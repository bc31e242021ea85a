//! Reader and analysis for flight-recorder timelines.
//!
//! A timeline is the JSONL directory `results/timelines/<run-id>/` the
//! `rhb-telemetry` [`Recorder`](rhb_telemetry::Recorder) writes: one
//! `{"kind": "snapshot", ...}` line per sampler tick plus
//! `{"kind": "alert", ...}` annotations for fired/resolved alerts, in
//! rotated `segment-*.jsonl` files. [`Timeline::load`] re-parses
//! leniently — unparseable lines (a truncated tail after a crash, a
//! corrupted segment) are counted and skipped, never fatal — because a
//! flight recorder that refuses to replay a crashed run is useless at
//! exactly the moment it exists for.
//!
//! [`Timeline::postmortem`] reconstructs what `rhb-report postmortem`
//! prints: the anomaly that ended the run's health (first critical/warn
//! alert, stall, or classification downgrade), the window of snapshots
//! leading into it, and a healthy-baseline diff ranking which rates
//! collapsed or spiked going into the anomaly.

use rhb_telemetry::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::path::Path;

/// One counter series sample inside a snapshot line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterPoint {
    pub total: u64,
    pub delta: u64,
    pub rate: f64,
}

/// One histogram digest inside a snapshot line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistPoint {
    pub count: u64,
    pub delta: u64,
    pub rate: f64,
    pub mean: f64,
    pub p50: f64,
    pub p90: f64,
    pub p95: f64,
    pub p99: f64,
    pub min: f64,
    pub max: f64,
}

/// One recorded snapshot.
#[derive(Debug, Clone, Default)]
pub struct TimelinePoint {
    pub seq: u64,
    pub uptime_s: f64,
    pub interval_s: Option<f64>,
    pub phase: String,
    pub counters: BTreeMap<String, CounterPoint>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistPoint>,
}

impl TimelinePoint {
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    pub fn counter_delta(&self, name: &str) -> u64 {
        self.counters.get(name).map(|c| c.delta).unwrap_or(0)
    }
}

/// One recorded alert annotation.
#[derive(Debug, Clone)]
pub struct TimelineAlert {
    pub rule: String,
    pub severity: String,
    /// `fired` or `resolved`.
    pub state: String,
    pub seq: u64,
    pub uptime_s: f64,
    pub phase: String,
    pub value: f64,
    pub threshold: f64,
    pub message: String,
}

impl TimelineAlert {
    pub fn is_fired(&self) -> bool {
        self.state == "fired"
    }
}

/// A replayed run: snapshots and alerts in recorded order.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    pub run_id: String,
    pub points: Vec<TimelinePoint>,
    pub alerts: Vec<TimelineAlert>,
    /// Segment files read.
    pub segments: usize,
    /// Lines that failed to parse (truncated tail, corruption) and were
    /// skipped.
    pub skipped_lines: usize,
}

impl Timeline {
    /// Loads a timeline directory. Fails only when the directory itself
    /// is unreadable or holds no segments; bad lines are skipped and
    /// counted in [`Timeline::skipped_lines`].
    pub fn load(dir: &Path) -> Result<Timeline, String> {
        let mut timeline = Timeline {
            run_id: dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default(),
            ..Timeline::default()
        };
        if let Ok(meta) = std::fs::read_to_string(dir.join("meta.json")) {
            if let Ok(doc) = json::parse(&meta) {
                if let Some(id) = doc.get("run_id").and_then(JsonValue::as_str) {
                    if !id.is_empty() {
                        timeline.run_id = id.to_string();
                    }
                }
            }
        }
        let mut segments: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .map(|n| {
                        let n = n.to_string_lossy();
                        n.starts_with("segment-") && n.ends_with(".jsonl")
                    })
                    .unwrap_or(false)
            })
            .collect();
        segments.sort();
        if segments.is_empty() {
            return Err(format!("{}: no timeline segments", dir.display()));
        }
        for segment in &segments {
            timeline.segments += 1;
            let Ok(content) = std::fs::read_to_string(segment) else {
                timeline.skipped_lines += 1;
                continue;
            };
            for line in content.lines() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                match json::parse(line) {
                    Ok(doc) => match doc.get("kind").and_then(JsonValue::as_str) {
                        Some("snapshot") => match parse_point(&doc) {
                            Some(point) => timeline.points.push(point),
                            None => timeline.skipped_lines += 1,
                        },
                        Some("alert") => match parse_alert(&doc) {
                            Some(alert) => timeline.alerts.push(alert),
                            None => timeline.skipped_lines += 1,
                        },
                        // Unknown kinds are forward-compatible noise.
                        _ => timeline.skipped_lines += 1,
                    },
                    Err(_) => timeline.skipped_lines += 1,
                }
            }
        }
        Ok(timeline)
    }

    /// Fired alerts only, in recorded order.
    pub fn fired_alerts(&self) -> Vec<&TimelineAlert> {
        self.alerts.iter().filter(|a| a.is_fired()).collect()
    }

    /// Every `(index, phase)` where the recorded phase changed — the
    /// run's phase boundaries.
    pub fn phase_boundaries(&self) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        let mut last: Option<&str> = None;
        for (i, p) in self.points.iter().enumerate() {
            if last != Some(p.phase.as_str()) {
                out.push((i, p.phase.clone()));
                last = Some(p.phase.as_str());
            }
        }
        out
    }

    /// The per-point series of one gauge (NaN where absent, so indexes
    /// line up with [`Timeline::points`]).
    pub fn gauge_series(&self, name: &str) -> Vec<f64> {
        self.points
            .iter()
            .map(|p| p.gauge(name).unwrap_or(f64::NAN))
            .collect()
    }

    /// The per-point rate series of one counter (0 where absent).
    pub fn counter_rate_series(&self, name: &str) -> Vec<f64> {
        self.points
            .iter()
            .map(|p| p.counters.get(name).map(|c| c.rate).unwrap_or(0.0))
            .collect()
    }

    /// Names of counters that moved at all, busiest (by total delta)
    /// first.
    pub fn busiest_counters(&self) -> Vec<(String, u64)> {
        let mut sums: BTreeMap<&str, u64> = BTreeMap::new();
        for p in &self.points {
            for (name, c) in &p.counters {
                if c.delta > 0 {
                    *sums.entry(name).or_default() += c.delta;
                }
            }
        }
        let mut out: Vec<(String, u64)> =
            sums.into_iter().map(|(n, v)| (n.to_string(), v)).collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Reconstructs the post-mortem view; `None` when the timeline is
    /// empty. `window` is N, the number of snapshots re-read before the
    /// anomaly (and used as the healthy baseline width before them).
    pub fn postmortem(&self, window: usize) -> Option<Postmortem> {
        if self.points.is_empty() {
            return None;
        }
        let window = window.max(1);
        let anomaly = self.find_anomaly();
        // The anomaly window is the last `window` points up to (and
        // including) the anomaly point — or the end of the run when the
        // run ended without an identified anomaly.
        let end = match &anomaly {
            Some(a) => a.index,
            None => self.points.len() - 1,
        };
        let start = end.saturating_sub(window - 1);
        // The healthy baseline is the `window` points before that.
        let base_end = start;
        let base_start = base_end.saturating_sub(window);
        Some(Postmortem {
            anomaly,
            window: (start, end),
            baseline: (base_start, base_end),
            diffs: self.window_diffs(base_start..base_end, start..end + 1),
        })
    }

    /// The first anomaly: the earliest of (a) the first fired alert of
    /// warn+ severity, (b) the first run-classification downgrade
    /// (`core/run_class` first seen, or dropping, below 2), (c) the
    /// first stall-counter increase.
    fn find_anomaly(&self) -> Option<Anomaly> {
        let mut best: Option<Anomaly> = None;
        let mut consider = |candidate: Anomaly| {
            if best.as_ref().is_none_or(|b| candidate.index < b.index) {
                best = Some(candidate);
            }
        };
        if let Some(alert) = self
            .alerts
            .iter()
            .find(|a| a.is_fired() && a.severity != "info")
        {
            // Map the alert's snapshot seq back onto a point index; the
            // recorded seq restarts on registry reset, so match both
            // seq and order (first point at or after the alert's seq).
            let index = self
                .points
                .iter()
                .position(|p| p.seq == alert.seq)
                .unwrap_or(0);
            consider(Anomaly {
                index,
                kind: AnomalyKind::Alert(alert.clone()),
            });
        }
        let mut prev_class: Option<f64> = None;
        for (i, p) in self.points.iter().enumerate() {
            if let Some(class) = p.gauge("core/run_class") {
                let reference = prev_class.unwrap_or(2.0);
                if class < reference {
                    consider(Anomaly {
                        index: i,
                        kind: AnomalyKind::Downgrade {
                            from: reference,
                            to: class,
                        },
                    });
                    break;
                }
                prev_class = Some(class);
            }
        }
        if let Some(i) = self
            .points
            .iter()
            .position(|p| p.counter_delta("core/health/stalls") > 0)
        {
            consider(Anomaly {
                index: i,
                kind: AnomalyKind::Stall,
            });
        }
        best
    }

    /// Rate/gauge movement between two index ranges, largest relative
    /// change first.
    fn window_diffs(
        &self,
        baseline: std::ops::Range<usize>,
        window: std::ops::Range<usize>,
    ) -> Vec<MetricDiff> {
        let mean_rate = |range: &std::ops::Range<usize>, name: &str| -> f64 {
            if range.is_empty() {
                return 0.0;
            }
            let sum: f64 = self.points[range.clone()]
                .iter()
                .map(|p| p.counters.get(name).map(|c| c.rate).unwrap_or(0.0))
                .sum();
            sum / range.len() as f64
        };
        let mut names: Vec<&String> = self.points.iter().flat_map(|p| p.counters.keys()).collect();
        names.sort();
        names.dedup();
        let mut diffs = Vec::new();
        for name in names {
            let before = mean_rate(&baseline, name);
            let after = mean_rate(&window, name);
            if before.max(after) <= 0.0 {
                continue;
            }
            diffs.push(MetricDiff {
                name: name.clone(),
                kind: "counter-rate",
                before,
                after,
            });
        }
        // Gauges compare last-in-baseline vs last-in-window.
        let last_gauge = |range: &std::ops::Range<usize>, name: &str| -> Option<f64> {
            self.points[range.clone()]
                .iter()
                .rev()
                .find_map(|p| p.gauge(name))
        };
        let mut gauge_names: Vec<&String> =
            self.points.iter().flat_map(|p| p.gauges.keys()).collect();
        gauge_names.sort();
        gauge_names.dedup();
        for name in gauge_names {
            let (Some(before), Some(after)) =
                (last_gauge(&baseline, name), last_gauge(&window, name))
            else {
                continue;
            };
            if before == after || !(before.is_finite() && after.is_finite()) {
                continue;
            }
            diffs.push(MetricDiff {
                name: name.clone(),
                kind: "gauge",
                before,
                after,
            });
        }
        rank_diffs(&mut diffs);
        diffs
    }
}

/// Sorts metric diffs by relative-change magnitude, largest first, with
/// a deterministic name tie-break. The comparison runs under
/// `f64::total_cmp` and a NaN delta (e.g. `inf − inf` from a corrupt
/// recorded rate) ranks *below* every real movement: the old
/// `partial_cmp`-based sort handed such pairs an incomparable
/// `Ordering::Equal`, destabilizing the ranking run-to-run.
pub fn rank_diffs(diffs: &mut [MetricDiff]) {
    fn magnitude(d: &MetricDiff) -> f64 {
        let m = d.relative_change().abs();
        // abs() is never negative, so −1 sorts NaN after all real deltas.
        if m.is_nan() {
            -1.0
        } else {
            m
        }
    }
    diffs.sort_by(|a, b| {
        magnitude(b)
            .total_cmp(&magnitude(a))
            .then_with(|| a.name.cmp(&b.name))
    });
}

/// What ended the run's health.
#[derive(Debug, Clone)]
pub enum AnomalyKind {
    /// A fired warn/critical alert.
    Alert(TimelineAlert),
    /// `core/run_class` observed below its previous (or full) value.
    Downgrade { from: f64, to: f64 },
    /// The health model's stall counter moved.
    Stall,
}

/// The anomaly anchoring a post-mortem, by point index.
#[derive(Debug, Clone)]
pub struct Anomaly {
    pub index: usize,
    pub kind: AnomalyKind,
}

impl Anomaly {
    pub fn describe(&self) -> String {
        match &self.kind {
            AnomalyKind::Alert(a) => format!(
                "[{}] {} fired (value {:.4} vs threshold {:.4}): {}",
                a.severity, a.rule, a.value, a.threshold, a.message
            ),
            AnomalyKind::Downgrade { from, to } => {
                format!("run classification downgraded {from:.0} -> {to:.0}")
            }
            AnomalyKind::Stall => "health model stall counter moved".to_string(),
        }
    }
}

/// One metric's movement between the baseline and anomaly windows.
#[derive(Debug, Clone)]
pub struct MetricDiff {
    pub name: String,
    pub kind: &'static str,
    pub before: f64,
    pub after: f64,
}

impl MetricDiff {
    /// Signed relative change, with a floor so a 0 -> x appearance is
    /// large but finite.
    pub fn relative_change(&self) -> f64 {
        let denom = self.before.abs().max(1e-9);
        (self.after - self.before) / denom
    }
}

/// The reconstructed post-mortem: the anomaly, the snapshot window
/// `[window.0, window.1]` (inclusive) leading into it, the healthy
/// baseline `[baseline.0, baseline.1)` before that, and the ranked
/// metric movements between the two.
#[derive(Debug, Clone)]
pub struct Postmortem {
    pub anomaly: Option<Anomaly>,
    pub window: (usize, usize),
    pub baseline: (usize, usize),
    pub diffs: Vec<MetricDiff>,
}

fn parse_point(doc: &JsonValue) -> Option<TimelinePoint> {
    let mut point = TimelinePoint {
        seq: doc.get("seq")?.as_u64()?,
        uptime_s: doc.get("uptime_s")?.as_f64()?,
        interval_s: doc.get("interval_s").and_then(JsonValue::as_f64),
        phase: doc.get("phase")?.as_str()?.to_string(),
        ..TimelinePoint::default()
    };
    if let Some(counters) = doc.get("counters").and_then(JsonValue::as_object) {
        for (name, c) in counters {
            point.counters.insert(
                name.clone(),
                CounterPoint {
                    total: c.get("total").and_then(JsonValue::as_u64)?,
                    delta: c.get("delta").and_then(JsonValue::as_u64)?,
                    rate: c.get("rate").and_then(JsonValue::as_f64).unwrap_or(0.0),
                },
            );
        }
    }
    if let Some(gauges) = doc.get("gauges").and_then(JsonValue::as_object) {
        for (name, v) in gauges {
            if let Some(v) = v.as_f64() {
                point.gauges.insert(name.clone(), v);
            }
        }
    }
    if let Some(hists) = doc.get("histograms").and_then(JsonValue::as_object) {
        for (name, h) in hists {
            let f = |key: &str| h.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
            point.histograms.insert(
                name.clone(),
                HistPoint {
                    count: h.get("count").and_then(JsonValue::as_u64)?,
                    delta: h.get("delta").and_then(JsonValue::as_u64)?,
                    rate: f("rate"),
                    mean: f("mean"),
                    p50: f("p50"),
                    p90: f("p90"),
                    p95: f("p95"),
                    p99: f("p99"),
                    min: f("min"),
                    max: f("max"),
                },
            );
        }
    }
    Some(point)
}

fn parse_alert(doc: &JsonValue) -> Option<TimelineAlert> {
    Some(TimelineAlert {
        rule: doc.get("rule")?.as_str()?.to_string(),
        severity: doc.get("severity")?.as_str()?.to_string(),
        state: doc.get("state")?.as_str()?.to_string(),
        seq: doc.get("seq")?.as_u64()?,
        uptime_s: doc
            .get("uptime_s")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0),
        phase: doc
            .get("phase")
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string(),
        value: doc.get("value").and_then(JsonValue::as_f64).unwrap_or(0.0),
        threshold: doc
            .get("threshold")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0),
        message: doc
            .get("message")
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string(),
    })
}

/// Renders a unicode sparkline of `values` (NaN renders as a gap).
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return " ".repeat(values.len());
    }
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|v| {
            if !v.is_finite() {
                ' '
            } else {
                let t = ((v - min) / span * (BARS.len() - 1) as f64).round() as usize;
                BARS[t.min(BARS.len() - 1)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rhb-timeline-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn snapshot_line(
        seq: u64,
        phase: &str,
        stall_total: u64,
        rate: f64,
        class: Option<f64>,
    ) -> String {
        let gauges = match class {
            Some(c) => format!("\"core/run_class\": {c}"),
            None => String::new(),
        };
        format!(
            "{{\"kind\": \"snapshot\", \"seq\": {seq}, \"uptime_s\": {}, \"interval_s\": 0.25, \
             \"phase\": \"{phase}\", \"counters\": {{\"core/health/stalls\": {{\"total\": {stall_total}, \
             \"delta\": {}, \"rate\": 0}}, \"dram/bits_flipped\": {{\"total\": 100, \"delta\": 10, \
             \"rate\": {rate}}}}}, \"gauges\": {{{gauges}}}, \"histograms\": {{}}}}",
            seq as f64 * 0.25,
            if seq > 3 && stall_total > 0 { 1 } else { 0 },
        )
    }

    #[test]
    fn rank_diffs_is_nan_safe_and_deterministic() {
        let diff = |name: &str, before: f64, after: f64| MetricDiff {
            name: name.to_string(),
            kind: "counter-rate",
            before,
            after,
        };
        // inf → inf yields a NaN relative change; 0 → 0 gauges a 0.0 one.
        let mut diffs = vec![
            diff("z/nan-delta", f64::INFINITY, f64::INFINITY),
            diff("b/doubled", 10.0, 20.0),
            diff("a/doubled", 5.0, 10.0),
            diff("c/flat", 7.0, 7.0),
            diff("a/nan-delta", f64::NEG_INFINITY, f64::NEG_INFINITY),
        ];
        rank_diffs(&mut diffs);
        let order: Vec<&str> = diffs.iter().map(|d| d.name.as_str()).collect();
        // Largest magnitude first, equal magnitudes by name, NaN deltas
        // last (also by name) — and no panic.
        assert_eq!(
            order,
            [
                "a/doubled",
                "b/doubled",
                "c/flat",
                "a/nan-delta",
                "z/nan-delta"
            ]
        );
        // Stable under re-sorting (the old partial_cmp sort was not).
        let mut again = diffs.clone();
        rank_diffs(&mut again);
        assert_eq!(
            again.iter().map(|d| &d.name).collect::<Vec<_>>(),
            diffs.iter().map(|d| &d.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn loads_points_alerts_and_phase_boundaries() {
        let dir = temp_dir("load");
        let mut lines = vec![
            snapshot_line(1, "pipeline/offline", 0, 40.0, None),
            snapshot_line(2, "pipeline/offline", 0, 42.0, None),
            snapshot_line(3, "pipeline/hammering", 0, 44.0, None),
        ];
        lines.push(
            "{\"kind\": \"alert\", \"rule\": \"attack-stall\", \"severity\": \"warn\", \
             \"state\": \"fired\", \"seq\": 3, \"uptime_s\": 0.75, \"phase\": \"pipeline/hammering\", \
             \"value\": 1, \"threshold\": 0, \"message\": \"stalled\"}"
                .to_string(),
        );
        std::fs::write(dir.join("segment-00000000.jsonl"), lines.join("\n")).unwrap();
        let t = Timeline::load(&dir).unwrap();
        assert_eq!(t.points.len(), 3);
        assert_eq!(t.alerts.len(), 1);
        assert_eq!(t.skipped_lines, 0);
        assert_eq!(
            t.phase_boundaries(),
            vec![
                (0, "pipeline/offline".into()),
                (2, "pipeline/hammering".into())
            ]
        );
        assert_eq!(t.fired_alerts().len(), 1);
        assert_eq!(t.busiest_counters()[0].0, "dram/bits_flipped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_garbage_lines_are_skipped_not_fatal() {
        let dir = temp_dir("lenient");
        let good = snapshot_line(1, "p", 0, 1.0, None);
        let content = format!(
            "{good}\nnot json at all\n{}\n{{\"kind\": \"snapshot\", \"seq\": 2, \"uptime\njunk",
            // A valid JSON object of unknown kind.
            "{\"kind\": \"future-record\", \"x\": 1}",
        );
        std::fs::write(dir.join("segment-00000000.jsonl"), content).unwrap();
        let t = Timeline::load(&dir).unwrap();
        assert_eq!(t.points.len(), 1);
        assert_eq!(t.skipped_lines, 4, "garbage, unknown kind, truncated x2");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_and_empty_dir_are_errors() {
        let dir = temp_dir("empty");
        assert!(Timeline::load(&dir)
            .unwrap_err()
            .contains("no timeline segments"));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(Timeline::load(Path::new("/nonexistent/rhb-x")).is_err());
    }

    #[test]
    fn postmortem_anchors_on_the_first_warn_alert_and_diffs_windows() {
        let dir = temp_dir("pm");
        let mut lines: Vec<String> = (1..=8)
            .map(|seq| snapshot_line(seq, "pipeline/hammering", 0, 50.0, None))
            .collect();
        // Rate collapses at seq 9..11 and the stall fires at 11.
        for seq in 9..=11 {
            lines.push(snapshot_line(
                seq,
                "pipeline/hammering",
                if seq == 11 { 1 } else { 0 },
                2.0,
                None,
            ));
        }
        lines.push(
            "{\"kind\": \"alert\", \"rule\": \"attack-stall\", \"severity\": \"warn\", \
             \"state\": \"fired\", \"seq\": 11, \"uptime_s\": 2.75, \"phase\": \"pipeline/hammering\", \
             \"value\": 1, \"threshold\": 0, \"message\": \"stalled\"}"
                .to_string(),
        );
        std::fs::write(dir.join("segment-00000000.jsonl"), lines.join("\n")).unwrap();
        let t = Timeline::load(&dir).unwrap();
        let pm = t.postmortem(3).expect("non-empty timeline");
        let anomaly = pm.anomaly.expect("anomaly found");
        assert_eq!(anomaly.index, 10, "anchors on the alert's snapshot");
        assert!(anomaly.describe().contains("attack-stall"));
        assert_eq!(pm.window, (8, 10), "last 3 points up to the anomaly");
        assert_eq!(pm.baseline, (5, 8), "3 healthy points before the window");
        // The flip-rate collapse dominates the diff ranking.
        let top = pm
            .diffs
            .iter()
            .find(|d| d.name == "dram/bits_flipped")
            .expect("flip rate diffed");
        assert!(top.before > 40.0 && top.after < 5.0, "{top:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn postmortem_detects_downgrade_without_alerts() {
        let dir = temp_dir("downgrade");
        let lines = [
            snapshot_line(1, "p", 0, 1.0, None),
            snapshot_line(2, "p", 0, 1.0, None),
            snapshot_line(3, "p", 0, 1.0, Some(1.0)),
        ];
        std::fs::write(dir.join("segment-00000000.jsonl"), lines.join("\n")).unwrap();
        let t = Timeline::load(&dir).unwrap();
        let pm = t.postmortem(2).unwrap();
        let anomaly = pm.anomaly.expect("downgrade found");
        assert_eq!(anomaly.index, 2);
        assert!(anomaly.describe().contains("downgraded 2 -> 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sparkline_scales_and_handles_gaps() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'), "{s}");
        assert_eq!(sparkline(&[f64::NAN, 1.0]).chars().next(), Some(' '));
        assert_eq!(sparkline(&[]), "");
        // Constant series stays at the floor, not a panic.
        assert_eq!(sparkline(&[2.0, 2.0]), "▁▁");
    }
}
