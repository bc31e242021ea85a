//! In-memory span recorder for traced runs.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! crates' public functions, or rebuilt from timestamps the server
//! reports. They stay in memory and are written out once, when the run
//! ends, together with each span's self time.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.offline`.
    pub name: &'static str,
    /// Shared by every span of one request, attack or phase.
    pub id: u64,
    /// Index of the parent span in the recorder.
    pub parent: Option<usize>,
    /// Start, microseconds since the recorder was created.
    pub start_us: f64,
    /// End, microseconds since the recorder was created.
    pub end_us: f64,
}

/// Collects spans while enabled; timing itself is always on, so a traced
/// and an untraced pass measure the same way.
pub struct Tracer {
    epoch: Instant,
    // Publishes no other data: it only gates whether spans are kept.
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span recorder lock poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Runs `f` and returns its output with its wall time in seconds.
    /// When enabled, records a span; `f` gets that span's index so it can
    /// parent the spans of its own calls.
    pub fn timed<R>(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let slot = self.enabled().then(|| {
            self.push(Span {
                name,
                id,
                parent,
                start_us: self.us(start),
                end_us: self.us(start),
            })
        });
        let out = f(slot);
        let end = Instant::now();
        if let Some(i) = slot {
            self.spans.lock().expect("span recorder lock poisoned")[i].end_us = self.us(end);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Records a span whose bounds were measured elsewhere.
    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        self.enabled().then(|| {
            self.push(Span {
                name,
                id,
                parent,
                start_us: self.us(start),
                end_us: self.us(end),
            })
        })
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span recorder lock poisoned")
            .clone()
    }
}

/// Self time of every span: its duration minus the part of it that the
/// union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut intervals: Vec<(f64, f64)> = kids
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_us.max(s.start_us),
                        spans[c].end_us.min(s.end_us),
                    )
                })
                .filter(|(a, b)| b > a)
                .collect();
            intervals.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut open: Option<(f64, f64)> = None;
            for (a, b) in intervals {
                open = match open {
                    Some((oa, ob)) if a <= ob => Some((oa, ob.max(b))),
                    Some((oa, ob)) => {
                        covered += ob - oa;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((oa, ob)) = open {
                covered += ob - oa;
            }
            (s.end_us - s.start_us - covered).max(0.0)
        })
        .collect()
}

/// Per-name roll-up: (count, total µs, self µs), sorted by name.
pub fn summary(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_us - s.start_us;
        e.2 += self_us;
    }
    out
}

pub fn print_summary(spans: &[Span]) {
    println!(
        "{:<26} {:>8} {:>14} {:>14}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (count, total, own)) in summary(spans) {
        println!(
            "{name:<26} {count:>8} {:>14.3} {:>14.3}",
            total / 1e3,
            own / 1e3
        );
    }
}

/// Writes `{<header fields>, "spans": [...], "summary": [...]}`.
pub fn write_json(path: &Path, header: &[(&str, String)], spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("{");
    for (key, value) in header {
        out += &format!("\"{key}\": \"{}\", ", value.replace(['"', '\\'], "_"));
    }
    out += "\"spans\": [";
    for (i, (s, self_us)) in spans.iter().zip(self_times(spans)).enumerate() {
        if i > 0 {
            out += ",";
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out += &format!(
            "\n{{\"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"start_us\": {:.1}, \"end_us\": {:.1}, \"self_us\": {self_us:.1}}}",
            s.name, s.id, s.start_us, s.end_us
        );
    }
    out += "\n], \"summary\": [";
    for (i, (name, (count, total, own))) in summary(spans).into_iter().enumerate() {
        if i > 0 {
            out += ",";
        }
        out += &format!(
            "\n{{\"name\": \"{name}\", \"count\": {count}, \"total_us\": {total:.1}, \"self_us\": {own:.1}}}"
        );
    }
    out += "\n]}\n";
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_nested_children() {
        let spans = [
            span("attack", None, 0.0, 100.0),
            // Two overlapping children cover 10..50 once, not twice.
            span("core.offline", Some(0), 10.0, 40.0),
            span("core.score", Some(0), 30.0, 50.0),
            // A grandchild counts against its parent only.
            span("nn.load_into", Some(1), 15.0, 25.0),
            // A child overrunning its parent is clipped to it.
            span("core.online", Some(0), 90.0, 120.0),
        ];
        let own = self_times(&spans);
        assert_eq!(
            own,
            vec![100.0 - 40.0 - 10.0, 30.0 - 10.0, 20.0, 10.0, 30.0]
        );
        let roll = summary(&spans);
        assert_eq!(roll["attack"], (1, 100.0, 50.0));
    }

    #[test]
    fn disabled_tracer_times_without_recording() {
        let tracer = Tracer::new();
        let (v, secs) = tracer.timed("core.offline", 1, None, |slot| {
            assert!(slot.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tracer.spans().is_empty());
        tracer.set_enabled(true);
        tracer.timed("attack", 2, None, |slot| {
            tracer.timed("core.online", 2, slot, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_us >= spans[1].end_us);
    }
}
