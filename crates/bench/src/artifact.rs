//! Durable run artifacts: one JSON document per pipeline run.
//!
//! A [`RunArtifact`] freezes everything a later session needs to audit or
//! compare a run — the configuration (model, dataset, attack parameters,
//! seed), per-phase wall-clock from the telemetry span tree, every
//! counter/gauge/histogram summary, the headline attack metrics (clean
//! accuracy, ASR, `N_flip`, attack time), and the full flip provenance
//! ledger. Artifacts are written to `results/runs/<timestamp>-<exp>.json`
//! and consumed by the `rhb-report` CLI (`show`, `diff`, `bench`).
//!
//! Serialization is hand-rolled via [`rhb_telemetry::json`] because the vendored
//! `serde` derives are inert.

use rhb_core::pipeline::{AttackMethod, AttackPipeline};
use rhb_core::provenance::FlipRecord;
use rhb_models::zoo::{pretrained, Architecture, ZooConfig};
use rhb_telemetry::json::{self, JsonValue};
use rhb_telemetry::TelemetryReport;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Schema tag carried by every artifact (bump on breaking change).
pub const SCHEMA: &str = "rhb-run-artifact/v1";

/// The run's configuration, as attacked.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Victim architecture name (e.g. `ResNet20`).
    pub model: String,
    /// Dataset family the victim was trained on.
    pub dataset: String,
    /// Attack method name (Table II row).
    pub method: String,
    /// Zoo scale (`tiny` / `standard`).
    pub scale: String,
    /// Seed for training, templating, and stochastic choices.
    pub seed: u64,
    /// Backdoor target label.
    pub target_label: usize,
    /// Templated pages available to the attacker.
    pub profile_pages: usize,
    /// Aggressor rows of the online hammer pattern.
    pub hammer_sides: usize,
    /// Offline flip budget (`N_flip` cap).
    pub flip_budget: usize,
}

/// Wall-clock aggregate of one span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTime {
    /// Full `/`-joined span path.
    pub name: String,
    /// Closures of this path.
    pub count: u64,
    /// Total microseconds across closures.
    pub total_us: u64,
    /// Mean microseconds per closure.
    pub mean_us: u64,
}

/// Percentile digest of one histogram, as persisted.
#[derive(Debug, Clone, PartialEq)]
pub struct HistDigest {
    pub name: String,
    pub count: u64,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p90: f64,
    pub p95: f64,
    pub p99: f64,
}

/// Headline attack metrics (the quantities the paper's tables report).
#[derive(Debug, Clone, PartialEq)]
pub struct Headline {
    /// Victim's clean accuracy before any attack.
    pub base_accuracy: f64,
    /// Test accuracy of the hardware-backdoored model (online TA).
    pub clean_accuracy: f64,
    /// Attack success rate of the hardware-backdoored model.
    pub asr: f64,
    /// Offline (software-ideal) ASR, for reference.
    pub offline_asr: f64,
    /// Bits actually flipped in DRAM (realized `N_flip`).
    pub n_flip: u64,
    /// Targets requested after per-page reduction.
    pub n_targets: usize,
    /// Targets the templating profile matched.
    pub n_matched: usize,
    /// The paper's match-rate metric, percent.
    pub r_match: f64,
    /// Modeled hammering wall-clock, milliseconds.
    pub attack_time_ms: u64,
}

/// Chaos/recovery summary of one run: how hostile the DRAM was and what
/// the adaptive driver did about it. All-zero with classification `full`
/// for runs without chaos (and for artifacts written before this field
/// existed, which parse leniently).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Graceful-degradation verdict: `full`, `degraded`, or `failed`.
    pub classification: String,
    /// Chaos faults injected during the online phase.
    pub injected_faults: usize,
    /// Recovery retry passes across all targets.
    pub retries: usize,
    /// Alternate-bit fallback attempts across all targets.
    pub fallbacks: usize,
    /// Targets realized only thanks to a recovery stage.
    pub recovered_flips: usize,
    /// Targets verifiably realized (directly or via an alternate).
    pub verified_flips: usize,
    /// Re-templating rounds the recovery driver ran.
    pub retemplate_rounds: u32,
    /// Modeled recovery wall-clock, milliseconds (on top of attack time).
    pub recovery_time_ms: u64,
}

impl Default for RecoverySummary {
    fn default() -> Self {
        RecoverySummary {
            classification: "full".to_string(),
            injected_faults: 0,
            retries: 0,
            fallbacks: 0,
            recovered_flips: 0,
            verified_flips: 0,
            retemplate_rounds: 0,
            recovery_time_ms: 0,
        }
    }
}

/// One fixed-width window of the serving trajectory, as persisted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeWindow {
    /// Window end offset on the serving clock, microseconds.
    pub end_us: u64,
    /// Clean requests completed in the window.
    pub clean_total: u64,
    /// Clean requests answered with the true label.
    pub clean_correct: u64,
    /// Triggered requests (true label ≠ target) in the window.
    pub triggered_total: u64,
    /// Triggered requests funneled into the target class.
    pub triggered_hits: u64,
}

impl ServeWindow {
    /// Clean accuracy over the window, when clean traffic landed.
    pub fn clean_accuracy(&self) -> Option<f64> {
        (self.clean_total > 0).then(|| self.clean_correct as f64 / self.clean_total as f64)
    }

    /// Attack success rate over the window, when triggered traffic landed.
    pub fn asr(&self) -> Option<f64> {
        (self.triggered_total > 0).then(|| self.triggered_hits as f64 / self.triggered_total as f64)
    }
}

/// Victim-as-a-service summary: what live traffic saw while the attack
/// flipped the served weights. `None` on artifacts from offline-only
/// drivers and on artifacts written before the field existed, which
/// parse leniently.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSummary {
    /// Requests the traffic schedule generated.
    pub requests: u64,
    /// Requests admitted past admission control.
    pub admitted: u64,
    /// Requests shed by the bounded queue.
    pub shed: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Trajectory window width, microseconds.
    pub window_us: u64,
    /// Serving-clock offset when the flip window opened, microseconds.
    pub flip_start_us: u64,
    /// Serving-clock offset when the last flip landed, microseconds.
    pub flip_end_us: u64,
    /// Time-to-first-backdoor-activation on the serving clock (`null`
    /// when the backdoor never fired on live traffic).
    pub first_activation_us: Option<u64>,
    /// End of the first window whose ASR crossed 90%.
    pub asr_cross_us: Option<u64>,
    /// p99 end-to-end latency before the flip window, seconds.
    pub baseline_p99_s: Option<f64>,
    /// p99 end-to-end latency at/after the flip window opened, seconds.
    pub attacked_p99_s: Option<f64>,
    /// The clean-accuracy/ASR trajectory, in window order.
    pub windows: Vec<ServeWindow>,
}

/// One alert the run's rule engine fired, as persisted. Artifacts carry
/// the post-hoc evaluation of the built-in rules against the end-of-run
/// snapshot (plus anything a live recorder observed is in the timeline,
/// not here), so `rhb-report show/diff` can surface "this run stalled"
/// without the timeline. Empty for healthy runs and for artifacts
/// written before this field existed, which parse leniently.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRecord {
    /// Rule name (e.g. `attack-stall`).
    pub rule: String,
    /// `info` / `warn` / `critical`.
    pub severity: String,
    /// Sequence number of the triggering snapshot.
    pub seq: u64,
    /// Live span path at trigger time.
    pub phase: String,
    /// Observed signal value that tripped the rule.
    pub value: f64,
    /// Threshold it tripped against.
    pub threshold: f64,
    /// Rule message.
    pub message: String,
}

impl From<&rhb_alert::Alert> for AlertRecord {
    fn from(a: &rhb_alert::Alert) -> AlertRecord {
        AlertRecord {
            rule: a.rule.clone(),
            severity: a.severity.as_str().to_string(),
            seq: a.seq,
            phase: a.phase.clone(),
            value: a.value,
            threshold: a.threshold,
            message: a.message.clone(),
        }
    }
}

/// One frozen pipeline run.
#[derive(Debug, Clone)]
pub struct RunArtifact {
    /// Experiment tag (used in the artifact filename).
    pub exp: String,
    /// Creation time, seconds since the Unix epoch.
    pub created_unix: u64,
    /// Run configuration.
    pub config: RunConfig,
    /// Span-tree wall-clock, every recorded path.
    pub phases: Vec<PhaseTime>,
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram digests, sorted by name.
    pub histograms: Vec<HistDigest>,
    /// Headline attack metrics.
    pub metrics: Headline,
    /// Chaos/recovery summary (all-zero `full` for cooperative runs).
    pub recovery: RecoverySummary,
    /// Alerts the built-in rules fired against the end-of-run snapshot.
    pub alerts: Vec<AlertRecord>,
    /// Serving-under-attack summary (`None` for offline-only runs).
    pub serve: Option<ServeSummary>,
    /// Flip provenance ledger, in request order.
    pub flips: Vec<FlipRecord>,
}

impl RunArtifact {
    /// Fraction of requested flips that actually landed (0 when the run
    /// requested none).
    pub fn flip_success_rate(&self) -> f64 {
        if self.flips.is_empty() {
            0.0
        } else {
            self.flips.iter().filter(|f| f.flipped).count() as f64 / self.flips.len() as f64
        }
    }

    /// Fraction of requested flips verifiably realized — own bit verified
    /// or an alternate landed (0 when the run requested none). For
    /// artifacts predating per-record verification this equals
    /// [`RunArtifact::flip_success_rate`], since `verified` parses
    /// leniently as `flipped`.
    pub fn verified_fraction(&self) -> f64 {
        if self.flips.is_empty() {
            0.0
        } else {
            self.flips.iter().filter(|f| f.realized()).count() as f64 / self.flips.len() as f64
        }
    }

    /// Wall-clock of a phase by span path, if recorded.
    pub fn phase_us(&self, name: &str) -> Option<u64> {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.total_us)
    }

    /// Folds a telemetry snapshot into phase/counter/gauge/histogram
    /// tables.
    pub fn fold_report(&mut self, report: &TelemetryReport) {
        self.phases = report
            .spans
            .iter()
            .map(|s| PhaseTime {
                name: s.path.clone(),
                count: s.count,
                total_us: s.total.as_micros() as u64,
                mean_us: s.mean().as_micros() as u64,
            })
            .collect();
        self.counters = report.counters.clone();
        self.gauges = report.gauges.clone();
        self.histograms = report
            .histograms
            .iter()
            .map(|h| HistDigest {
                name: h.name.clone(),
                count: h.count,
                mean: h.mean,
                min: h.min,
                max: h.max,
                p50: h.p50,
                p90: h.p90,
                p95: h.p95,
                p99: h.p99,
            })
            .collect();
    }

    /// Serializes the artifact as pretty-enough JSON (one line per list
    /// entry, so diffs in version control stay readable).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str(&format!("\"schema\": {},\n", quoted(SCHEMA)));
        s.push_str(&format!("\"exp\": {},\n", quoted(&self.exp)));
        s.push_str(&format!("\"created_unix\": {},\n", self.created_unix));
        let c = &self.config;
        s.push_str(&format!(
            "\"config\": {{\"model\": {}, \"dataset\": {}, \"method\": {}, \"scale\": {}, \
             \"seed\": {}, \"target_label\": {}, \"profile_pages\": {}, \"hammer_sides\": {}, \
             \"flip_budget\": {}}},\n",
            quoted(&c.model),
            quoted(&c.dataset),
            quoted(&c.method),
            quoted(&c.scale),
            c.seed,
            c.target_label,
            c.profile_pages,
            c.hammer_sides,
            c.flip_budget
        ));
        s.push_str("\"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            s.push_str(&format!(
                " {{\"name\": {}, \"count\": {}, \"total_us\": {}, \"mean_us\": {}}}{}\n",
                quoted(&p.name),
                p.count,
                p.total_us,
                p.mean_us,
                comma(i, self.phases.len())
            ));
        }
        s.push_str("],\n\"counters\": {");
        for (i, (name, total)) in self.counters.iter().enumerate() {
            s.push_str(&format!(
                "{}{}: {}",
                if i == 0 { "" } else { ", " },
                quoted(name),
                total
            ));
        }
        s.push_str("},\n\"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("{}: ", quoted(name)));
            json::write_f64(*value, &mut s);
        }
        s.push_str("},\n\"histograms\": [\n");
        for (i, h) in self.histograms.iter().enumerate() {
            s.push_str(&format!(
                " {{\"name\": {}, \"count\": {}",
                quoted(&h.name),
                h.count
            ));
            for (key, v) in [
                ("mean", h.mean),
                ("min", h.min),
                ("max", h.max),
                ("p50", h.p50),
                ("p90", h.p90),
                ("p95", h.p95),
                ("p99", h.p99),
            ] {
                s.push_str(&format!(", \"{key}\": "));
                json::write_f64(v, &mut s);
            }
            s.push_str(&format!("}}{}\n", comma(i, self.histograms.len())));
        }
        s.push_str("],\n\"metrics\": {");
        let m = &self.metrics;
        for (i, (key, v)) in [
            ("base_accuracy", m.base_accuracy),
            ("clean_accuracy", m.clean_accuracy),
            ("asr", m.asr),
            ("offline_asr", m.offline_asr),
            ("r_match", m.r_match),
        ]
        .iter()
        .enumerate()
        {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{key}\": "));
            json::write_f64(*v, &mut s);
        }
        s.push_str(&format!(
            ", \"n_flip\": {}, \"n_targets\": {}, \"n_matched\": {}, \"attack_time_ms\": {}}},\n",
            m.n_flip, m.n_targets, m.n_matched, m.attack_time_ms
        ));
        let r = &self.recovery;
        s.push_str(&format!(
            "\"recovery\": {{\"classification\": {}, \"injected_faults\": {}, \
             \"retries\": {}, \"fallbacks\": {}, \"recovered_flips\": {}, \
             \"verified_flips\": {}, \"retemplate_rounds\": {}, \"recovery_time_ms\": {}}},\n",
            quoted(&r.classification),
            r.injected_faults,
            r.retries,
            r.fallbacks,
            r.recovered_flips,
            r.verified_flips,
            r.retemplate_rounds,
            r.recovery_time_ms
        ));
        s.push_str("\"alerts\": [\n");
        for (i, a) in self.alerts.iter().enumerate() {
            s.push_str(&format!(
                " {{\"rule\": {}, \"severity\": {}, \"seq\": {}, \"phase\": {}, \"value\": ",
                quoted(&a.rule),
                quoted(&a.severity),
                a.seq,
                quoted(&a.phase),
            ));
            json::write_f64(a.value, &mut s);
            s.push_str(", \"threshold\": ");
            json::write_f64(a.threshold, &mut s);
            s.push_str(&format!(
                ", \"message\": {}}}{}\n",
                quoted(&a.message),
                comma(i, self.alerts.len())
            ));
        }
        s.push_str("],\n");
        if let Some(sv) = &self.serve {
            s.push_str(&format!(
                "\"serve\": {{\"requests\": {}, \"admitted\": {}, \"shed\": {}, \
                 \"completed\": {}, \"window_us\": {}, \"flip_start_us\": {}, \
                 \"flip_end_us\": {}, \"first_activation_us\": {}, \"asr_cross_us\": {}, \
                 \"baseline_p99_s\": {}, \"attacked_p99_s\": {}, \"windows\": [\n",
                sv.requests,
                sv.admitted,
                sv.shed,
                sv.completed,
                sv.window_us,
                sv.flip_start_us,
                sv.flip_end_us,
                opt_u64(sv.first_activation_us),
                opt_u64(sv.asr_cross_us),
                opt_f64(sv.baseline_p99_s),
                opt_f64(sv.attacked_p99_s),
            ));
            for (i, w) in sv.windows.iter().enumerate() {
                s.push_str(&format!(
                    " {{\"end_us\": {}, \"clean_total\": {}, \"clean_correct\": {}, \
                     \"triggered_total\": {}, \"triggered_hits\": {}}}{}\n",
                    w.end_us,
                    w.clean_total,
                    w.clean_correct,
                    w.triggered_total,
                    w.triggered_hits,
                    comma(i, sv.windows.len())
                ));
            }
            s.push_str("]},\n");
        }
        s.push_str("\"flips\": [\n");
        for (i, f) in self.flips.iter().enumerate() {
            s.push_str(&format!(
                " {{\"weight_idx\": {}, \"page\": {}, \"page_group\": {}, \"bit\": {}, \
                 \"zero_to_one\": {}, \"matched_frame\": {}, \"placed_frame\": {}, \
                 \"hammer_attempts\": {}, \"flipped\": {}, \"verified\": {}, \
                 \"retries\": {}, \"fallback\": {}}}{}\n",
                f.weight_idx,
                f.page,
                opt(f.page_group),
                f.bit,
                f.zero_to_one,
                opt(f.matched_frame),
                opt(f.placed_frame),
                f.hammer_attempts,
                f.flipped,
                f.verified,
                f.retries,
                f.fallback,
                comma(i, self.flips.len())
            ));
        }
        s.push_str("]\n}\n");
        s
    }

    /// Parses an artifact back from JSON.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed or missing field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let schema = str_field(&doc, "schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema '{schema}' (expected {SCHEMA})"));
        }
        let cfg = doc.get("config").ok_or("missing config")?;
        let m = doc.get("metrics").ok_or("missing metrics")?;
        let phases = doc
            .get("phases")
            .and_then(JsonValue::as_array)
            .ok_or("missing phases")?
            .iter()
            .map(|p| {
                Ok(PhaseTime {
                    name: str_field(p, "name")?,
                    count: u64_field(p, "count")?,
                    total_us: u64_field(p, "total_us")?,
                    mean_us: u64_field(p, "mean_us")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let counters = doc
            .get("counters")
            .and_then(JsonValue::as_object)
            .ok_or("missing counters")?
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("counter {k} is not a count"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let gauges = doc
            .get("gauges")
            .and_then(JsonValue::as_object)
            .ok_or("missing gauges")?
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("gauge {k} is not a number"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let histograms = doc
            .get("histograms")
            .and_then(JsonValue::as_array)
            .ok_or("missing histograms")?
            .iter()
            .map(|h| {
                Ok(HistDigest {
                    name: str_field(h, "name")?,
                    count: u64_field(h, "count")?,
                    mean: f64_field(h, "mean")?,
                    min: f64_field(h, "min")?,
                    max: f64_field(h, "max")?,
                    p50: f64_field(h, "p50")?,
                    p90: f64_field(h, "p90")?,
                    // Artifacts written before the p95 column default to
                    // 0 instead of failing to load (committed BENCH_*
                    // baselines predate it).
                    p95: f64_field(h, "p95").unwrap_or(0.0),
                    p99: f64_field(h, "p99")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let flips = doc
            .get("flips")
            .and_then(JsonValue::as_array)
            .ok_or("missing flips")?
            .iter()
            .map(|f| {
                let flipped = bool_field(f, "flipped")?;
                Ok(FlipRecord {
                    weight_idx: u64_field(f, "weight_idx")? as usize,
                    page: u64_field(f, "page")? as usize,
                    page_group: opt_field(f, "page_group")?,
                    bit: u64_field(f, "bit")? as u8,
                    zero_to_one: bool_field(f, "zero_to_one")?,
                    matched_frame: opt_field(f, "matched_frame")?,
                    placed_frame: opt_field(f, "placed_frame")?,
                    hammer_attempts: u64_field(f, "hammer_attempts")? as u32,
                    flipped,
                    // Pre-recovery artifacts lack these: on a cooperative
                    // DRAM a flip is verified iff it landed, with no
                    // retries and no fallback.
                    verified: bool_field(f, "verified").unwrap_or(flipped),
                    retries: u64_field(f, "retries").unwrap_or(0) as u32,
                    fallback: bool_field(f, "fallback").unwrap_or(false),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let recovery = match doc.get("recovery") {
            Some(r) => RecoverySummary {
                classification: str_field(r, "classification")?,
                injected_faults: u64_field(r, "injected_faults")? as usize,
                retries: u64_field(r, "retries")? as usize,
                fallbacks: u64_field(r, "fallbacks")? as usize,
                recovered_flips: u64_field(r, "recovered_flips")? as usize,
                verified_flips: u64_field(r, "verified_flips")? as usize,
                retemplate_rounds: u64_field(r, "retemplate_rounds")? as u32,
                recovery_time_ms: u64_field(r, "recovery_time_ms")?,
            },
            // Pre-recovery artifact: a cooperative full run.
            None => RecoverySummary {
                verified_flips: flips.iter().filter(|f| f.flipped).count(),
                ..RecoverySummary::default()
            },
        };
        // Offline-only (and pre-serving) artifacts parse with no serve
        // block.
        let serve = match doc.get("serve") {
            Some(sv) => Some(ServeSummary {
                requests: u64_field(sv, "requests")?,
                admitted: u64_field(sv, "admitted")?,
                shed: u64_field(sv, "shed")?,
                completed: u64_field(sv, "completed")?,
                window_us: u64_field(sv, "window_us")?,
                flip_start_us: u64_field(sv, "flip_start_us")?,
                flip_end_us: u64_field(sv, "flip_end_us")?,
                first_activation_us: opt_field(sv, "first_activation_us")?.map(|n| n as u64),
                asr_cross_us: opt_field(sv, "asr_cross_us")?.map(|n| n as u64),
                baseline_p99_s: opt_f64_field(sv, "baseline_p99_s")?,
                attacked_p99_s: opt_f64_field(sv, "attacked_p99_s")?,
                windows: sv
                    .get("windows")
                    .and_then(JsonValue::as_array)
                    .ok_or("serve block missing windows")?
                    .iter()
                    .map(|w| {
                        Ok(ServeWindow {
                            end_us: u64_field(w, "end_us")?,
                            clean_total: u64_field(w, "clean_total")?,
                            clean_correct: u64_field(w, "clean_correct")?,
                            triggered_total: u64_field(w, "triggered_total")?,
                            triggered_hits: u64_field(w, "triggered_hits")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            }),
            None => None,
        };
        // Pre-alerting artifacts parse as alert-free.
        let alerts = match doc.get("alerts").and_then(JsonValue::as_array) {
            Some(list) => list
                .iter()
                .map(|a| {
                    Ok(AlertRecord {
                        rule: str_field(a, "rule")?,
                        severity: str_field(a, "severity")?,
                        seq: u64_field(a, "seq")?,
                        phase: str_field(a, "phase")?,
                        value: f64_field(a, "value")?,
                        threshold: f64_field(a, "threshold")?,
                        message: str_field(a, "message")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            None => Vec::new(),
        };
        Ok(RunArtifact {
            exp: str_field(&doc, "exp")?,
            created_unix: u64_field(&doc, "created_unix")?,
            config: RunConfig {
                model: str_field(cfg, "model")?,
                dataset: str_field(cfg, "dataset")?,
                method: str_field(cfg, "method")?,
                scale: str_field(cfg, "scale")?,
                seed: u64_field(cfg, "seed")?,
                target_label: u64_field(cfg, "target_label")? as usize,
                profile_pages: u64_field(cfg, "profile_pages")? as usize,
                hammer_sides: u64_field(cfg, "hammer_sides")? as usize,
                flip_budget: u64_field(cfg, "flip_budget")? as usize,
            },
            phases,
            counters,
            gauges,
            histograms,
            metrics: Headline {
                base_accuracy: f64_field(m, "base_accuracy")?,
                clean_accuracy: f64_field(m, "clean_accuracy")?,
                asr: f64_field(m, "asr")?,
                offline_asr: f64_field(m, "offline_asr")?,
                n_flip: u64_field(m, "n_flip")?,
                n_targets: u64_field(m, "n_targets")? as usize,
                n_matched: u64_field(m, "n_matched")? as usize,
                r_match: f64_field(m, "r_match")?,
                attack_time_ms: u64_field(m, "attack_time_ms")?,
            },
            recovery,
            alerts,
            serve,
            flips,
        })
    }

    /// Reads an artifact from a file.
    ///
    /// # Errors
    ///
    /// I/O and parse failures, as a message.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes the artifact to `dir/<timestamp>-<exp>.json`, creating the
    /// directory as needed, and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!(
            "{}-{}.json",
            format_timestamp(self.created_unix),
            self.exp
        ));
        // Atomic write (temp + rename): a SIGKILL mid-save must never
        // leave a torn artifact that poisons later report/diff runs.
        rhb_telemetry::write_atomic(&path, &self.to_json())?;
        Ok(path)
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::new();
    json::write_json_string(s, &mut out);
    out
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

fn opt(v: Option<usize>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

fn opt_u64(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

fn opt_f64(v: Option<f64>) -> String {
    match v {
        Some(n) => {
            let mut s = String::new();
            json::write_f64(n, &mut s);
            s
        }
        None => "null".to_string(),
    }
}

fn opt_f64_field(v: &JsonValue, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        Some(JsonValue::Null) | None => Ok(None),
        Some(n) => n
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("field '{key}' is neither null nor a number")),
    }
}

fn str_field(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn u64_field(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing count field '{key}'"))
}

fn f64_field(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing numeric field '{key}'"))
}

fn bool_field(v: &JsonValue, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| format!("missing boolean field '{key}'"))
}

fn opt_field(v: &JsonValue, key: &str) -> Result<Option<usize>, String> {
    match v.get(key) {
        Some(JsonValue::Null) | None => Ok(None),
        Some(n) => n
            .as_u64()
            .map(|n| Some(n as usize))
            .ok_or_else(|| format!("field '{key}' is neither null nor a count")),
    }
}

/// `YYYYMMDDTHHMMSSZ` for a Unix timestamp (proleptic Gregorian, UTC) —
/// sortable and filename-safe.
pub fn format_timestamp(unix: u64) -> String {
    let days = unix / 86_400;
    let secs = unix % 86_400;
    let (y, m, d) = civil_from_days(days as i64);
    format!(
        "{y:04}{m:02}{d:02}T{:02}{:02}{:02}Z",
        secs / 3600,
        (secs / 60) % 60,
        secs % 60
    )
}

/// Days-since-epoch → (year, month, day); Howard Hinnant's civil-from-days.
fn civil_from_days(z: i64) -> (i64, u64, u64) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Runs the smoke pipeline (tiny ResNet-20, CFT+BR, offline + online) and
/// freezes it as an artifact. Resets the global telemetry aggregates so
/// the artifact reflects only this run; if no sink is installed, metrics
/// are still collected through a no-op sink.
///
/// Chaos-mode fault injection is armed from the `RHB_CHAOS` environment
/// variable when set (see [`rhb_dram::ChaosConfig::parse`]), so any
/// artifact-producing binary can reproduce a degraded run.
pub fn smoke_run(exp: &str, seed: u64) -> RunArtifact {
    smoke_run_with_chaos(exp, seed, rhb_dram::ChaosConfig::from_env())
}

/// [`smoke_run`] with an explicit chaos configuration (`None` = off).
pub fn smoke_run_with_chaos(
    exp: &str,
    seed: u64,
    chaos: Option<rhb_dram::ChaosConfig>,
) -> RunArtifact {
    if !rhb_telemetry::enabled() {
        rhb_telemetry::install(Arc::new(rhb_telemetry::NoopSink));
    }
    rhb_telemetry::reset();

    let model = pretrained(Architecture::ResNet20, &ZooConfig::tiny(), seed);
    let base_accuracy = model.base_accuracy;
    let mut pipe = AttackPipeline::new(model, 2, seed);
    pipe.chaos = chaos;
    let flip_budget = pipe.default_flip_budget();
    let config = RunConfig {
        model: Architecture::ResNet20.name().to_string(),
        dataset: "SynthCifar".to_string(),
        method: AttackMethod::CftBr.name().to_string(),
        scale: "tiny".to_string(),
        seed,
        target_label: pipe.target_label,
        profile_pages: pipe.profile_pages,
        hammer_sides: pipe.hammer.pattern.sides,
        flip_budget,
    };
    let offline = pipe.run_offline(AttackMethod::CftBr);
    let online = pipe.run_online(&offline);
    let report = rhb_telemetry::report();
    // Post-hoc alert evaluation of the end-of-run state. One snapshot,
    // so the postmortem rule set (sustain windows forced to 1) applies;
    // with a fixed seed and chaos config the resulting alert list is
    // deterministic. Runs after `report()` so the artifact's counter
    // table is not perturbed by the `core/alerts/*` fire counters.
    let final_snap = rhb_telemetry::snapshot();
    let alerts: Vec<AlertRecord> = rhb_alert::AlertEngine::postmortem()
        .evaluate(&final_snap)
        .iter()
        .filter(|a| a.state == rhb_alert::AlertState::Fired)
        .map(AlertRecord::from)
        .collect();

    let created_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut artifact = RunArtifact {
        exp: exp.to_string(),
        created_unix,
        config,
        phases: Vec::new(),
        counters: Vec::new(),
        gauges: Vec::new(),
        histograms: Vec::new(),
        metrics: Headline {
            base_accuracy,
            clean_accuracy: online.test_accuracy,
            asr: online.attack_success_rate,
            offline_asr: offline.attack_success_rate,
            n_flip: online.n_flip,
            n_targets: online.n_targets,
            n_matched: online.n_matched,
            r_match: online.r_match,
            attack_time_ms: online.attack_time.as_millis() as u64,
        },
        recovery: RecoverySummary {
            classification: online.classification.name().to_string(),
            injected_faults: online.injected_faults,
            retries: online.retries,
            fallbacks: online.fallbacks,
            recovered_flips: online.recovered_flips,
            verified_flips: online.verified_flips,
            retemplate_rounds: online.retemplate_rounds,
            recovery_time_ms: online.recovery_time.as_millis() as u64,
        },
        alerts,
        serve: None,
        flips: online.ledger.clone(),
    };
    artifact.fold_report(&report);
    artifact
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunArtifact {
        RunArtifact {
            exp: "unit".into(),
            created_unix: 1_754_000_000,
            config: RunConfig {
                model: "ResNet20".into(),
                dataset: "SynthCifar".into(),
                method: "CFT+BR".into(),
                scale: "tiny".into(),
                seed: 41,
                target_label: 2,
                profile_pages: 8192,
                hammer_sides: 7,
                flip_budget: 4,
            },
            phases: vec![PhaseTime {
                name: "pipeline/offline".into(),
                count: 1,
                total_us: 120_000,
                mean_us: 120_000,
            }],
            counters: vec![("core/cft/iterations".into(), 150)],
            gauges: vec![("core/cft/loss".into(), 0.125)],
            histograms: vec![HistDigest {
                name: "dram/rowconflict/latency_cycles".into(),
                count: 2048,
                mean: 251.0,
                min: 218.2,
                max: 411.9,
                p50: 240.0,
                p90: 260.0,
                p95: 300.0,
                p99: 420.0,
            }],
            metrics: Headline {
                base_accuracy: 0.84,
                clean_accuracy: 0.82,
                asr: 0.97,
                offline_asr: 0.98,
                n_flip: 9,
                n_targets: 4,
                n_matched: 4,
                r_match: 100.0,
                attack_time_ms: 1600,
            },
            recovery: RecoverySummary {
                classification: "degraded".into(),
                injected_faults: 3,
                retries: 2,
                fallbacks: 1,
                recovered_flips: 2,
                verified_flips: 4,
                retemplate_rounds: 1,
                recovery_time_ms: 900,
            },
            alerts: vec![AlertRecord {
                rule: "attack-stall".into(),
                severity: "warn".into(),
                seq: 1,
                phase: "pipeline/hammering".into(),
                value: 2.0,
                threshold: 0.0,
                message: "attack health model entered a stall".into(),
            }],
            serve: Some(ServeSummary {
                requests: 400,
                admitted: 390,
                shed: 10,
                completed: 390,
                window_us: 250_000,
                flip_start_us: 500_000,
                flip_end_us: 900_000,
                first_activation_us: Some(612_000),
                asr_cross_us: Some(1_000_000),
                baseline_p99_s: Some(0.018),
                attacked_p99_s: Some(0.031),
                windows: vec![
                    ServeWindow {
                        end_us: 250_000,
                        clean_total: 60,
                        clean_correct: 50,
                        triggered_total: 30,
                        triggered_hits: 1,
                    },
                    ServeWindow {
                        end_us: 500_000,
                        clean_total: 55,
                        clean_correct: 46,
                        triggered_total: 35,
                        triggered_hits: 33,
                    },
                ],
            }),
            flips: vec![FlipRecord {
                weight_idx: 12_345,
                page: 3,
                page_group: Some(2),
                bit: 6,
                zero_to_one: true,
                matched_frame: Some(77),
                placed_frame: Some(77),
                hammer_attempts: 1,
                flipped: true,
                verified: true,
                retries: 0,
                fallback: false,
            }],
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let a = sample();
        let b = RunArtifact::from_json(&a.to_json()).unwrap();
        assert_eq!(a.exp, b.exp);
        assert_eq!(a.created_unix, b.created_unix);
        assert_eq!(a.config, b.config);
        assert_eq!(a.phases, b.phases);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.gauges, b.gauges);
        assert_eq!(a.histograms, b.histograms);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.recovery, b.recovery);
        assert_eq!(a.alerts, b.alerts);
        assert_eq!(a.serve, b.serve);
        assert_eq!(a.flips, b.flips);
    }

    #[test]
    fn serve_block_round_trips_nulls_and_parses_leniently_when_absent() {
        // Null activation markers and latency splits survive the trip.
        let mut a = sample();
        {
            let sv = a.serve.as_mut().unwrap();
            sv.first_activation_us = None;
            sv.asr_cross_us = None;
            sv.baseline_p99_s = None;
        }
        let b = RunArtifact::from_json(&a.to_json()).unwrap();
        let sv = b.serve.as_ref().unwrap();
        assert_eq!(sv.first_activation_us, None);
        assert_eq!(sv.asr_cross_us, None);
        assert_eq!(sv.baseline_p99_s, None);
        assert_eq!(sv.attacked_p99_s, Some(0.031));
        assert_eq!(sv.windows.len(), 2);
        assert_eq!(sv.windows[1].asr(), Some(33.0 / 35.0));
        // Offline-only artifacts (serve: None) simply omit the block.
        let mut offline = sample();
        offline.serve = None;
        let text = offline.to_json();
        assert!(!text.contains("\"serve\""));
        assert_eq!(RunArtifact::from_json(&text).unwrap().serve, None);
    }

    #[test]
    fn pre_alerting_artifacts_parse_with_empty_alerts() {
        let mut a = sample();
        a.alerts.clear();
        let text = a.to_json().replace("\"alerts\": [\n],\n", "");
        assert!(!text.contains("\"alerts\""), "block was not stripped");
        let b = RunArtifact::from_json(&text).unwrap();
        assert!(b.alerts.is_empty());
        assert_eq!(b.recovery, a.recovery);
    }

    #[test]
    fn pre_recovery_artifacts_parse_leniently() {
        // Strip the recovery object and the per-flip recovery fields, as an
        // artifact written before chaos mode would look.
        let a = sample();
        let text = a.to_json();
        let stripped: String = text
            .lines()
            .filter(|l| !l.starts_with("\"recovery\""))
            .map(|l| {
                l.replace(
                    ", \"verified\": true, \"retries\": 0, \"fallback\": false",
                    "",
                )
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(stripped.len() < text.len(), "nothing was stripped");
        let b = RunArtifact::from_json(&stripped).unwrap();
        assert_eq!(b.recovery.classification, "full");
        assert_eq!(b.recovery.injected_faults, 0);
        // The lenient default scores landed flips as verified.
        assert_eq!(b.recovery.verified_flips, 1);
        assert!(b.flips[0].verified);
        assert_eq!(b.flips[0].retries, 0);
        assert!(!b.flips[0].fallback);
        assert_eq!(b.verified_fraction(), 1.0);
    }

    #[test]
    fn verified_fraction_counts_realized_targets() {
        let mut a = sample();
        // One verified, one refuted, one rescued by fallback.
        a.flips.push(FlipRecord {
            flipped: false,
            verified: false,
            retries: 3,
            fallback: false,
            ..a.flips[0]
        });
        a.flips.push(FlipRecord {
            flipped: false,
            verified: false,
            retries: 3,
            fallback: true,
            ..a.flips[0]
        });
        let frac = a.verified_fraction();
        assert!((frac - 2.0 / 3.0).abs() < 1e-9, "fraction {frac}");
    }

    #[test]
    fn unmatched_flip_round_trips_null_fields() {
        let mut a = sample();
        a.flips[0].page_group = None;
        a.flips[0].matched_frame = None;
        a.flips[0].flipped = false;
        let b = RunArtifact::from_json(&a.to_json()).unwrap();
        assert_eq!(b.flips[0].page_group, None);
        assert_eq!(b.flips[0].matched_frame, None);
        assert!(!b.flips[0].flipped);
    }

    #[test]
    fn flip_success_rate_counts_flipped() {
        let mut a = sample();
        assert_eq!(a.flip_success_rate(), 1.0);
        a.flips.push(FlipRecord {
            flipped: false,
            ..a.flips[0]
        });
        assert_eq!(a.flip_success_rate(), 0.5);
        a.flips.clear();
        assert_eq!(a.flip_success_rate(), 0.0);
    }

    #[test]
    fn wrong_schema_is_rejected_with_a_clear_error() {
        let text = sample().to_json().replace(SCHEMA, "rhb-run-artifact/v999");
        let err = RunArtifact::from_json(&text).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn timestamps_format_sortably() {
        // 2026-08-07 00:00:00 UTC.
        assert_eq!(format_timestamp(1_786_060_800), "20260807T000000Z");
        assert_eq!(format_timestamp(0), "19700101T000000Z");
        // Leap-year day.
        assert_eq!(&format_timestamp(1_709_164_800)[..8], "20240229");
    }

    #[test]
    fn save_uses_timestamped_filename() {
        let dir = std::env::temp_dir().join(format!("rhb-artifact-test-{}", std::process::id()));
        let a = sample();
        let path = a.save(&dir).unwrap();
        assert!(path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .ends_with("-unit.json"));
        let back = RunArtifact::load(&path).unwrap();
        assert_eq!(back.metrics, a.metrics);
        std::fs::remove_dir_all(&dir).ok();
    }
}
