//! Metric registry, statistics, provenance and the one-line JSON result.
//!
//! Every metric the benchmark prints is declared once here with its unit,
//! its direction and what it should move. `BENCHMARK.json` at the
//! repository root lists the same names, units and directions; a test
//! keeps the two in sync. Each run prints every metric of its kind: a
//! per-layer metric of a layer the workload does not exercise reads 0
//! with 0 samples.

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// What the metric is (end-to-end), or which end-to-end metric on
    /// which workload it should move (per layer).
    pub about: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    about: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        about,
    }
}

/// End-to-end metrics, reported by every workload (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", "lower", "median of the run's repeated set-ups"),
    def(
        "p50_ms",
        "ms",
        "lower",
        "median time of one unit of work: attack, request at the fixed rate, or online phase",
    ),
    def(
        "p90_ms",
        "ms",
        "lower",
        "90th percentile of the same (p99 is printed as a figure: on a 2-vCPU guest it tracks the host)",
    ),
    def(
        "ops_per_s",
        "1/s",
        "higher",
        "units completed per second (serving: in the saturating phase)",
    ),
];

/// Per-layer metrics (`--trace 1`), each with the end-to-end metric and
/// workload it should move.
pub const PER_LAYER: &[MetricDef] = &[
    def(
        "models.pretrain_s",
        "s",
        "lower",
        "setup_s @ attack, serve, serve_flip",
    ),
    def("core.offline_s", "s", "lower", "p50_ms @ attack"),
    def("core.online_s", "s", "lower", "p50_ms @ attack"),
    def("core.score_ms", "ms", "lower", "p50_ms @ attack"),
    def("core.evaluate_ms", "ms", "lower", "p50_ms @ attack"),
    def(
        "core.evaluate_calls",
        "count",
        "lower",
        "p50_ms @ attack (computed from CftConfig)",
    ),
    def(
        "core.evaluate_share",
        "ratio",
        "lower",
        "p50_ms @ attack: estimate evaluate_calls x evaluate_ms / offline time, capped at 1",
    ),
    def("core.group_select_ms", "ms", "lower", "p50_ms @ attack"),
    def("core.step_masked_ms", "ms", "lower", "p50_ms @ attack"),
    def(
        "core.attributed_pct",
        "%",
        "higher",
        "share of an attack spent in run_offline + run_online",
    ),
    def(
        "core.r_match_pct",
        "%",
        "higher",
        "attack outcome, fixed per seed",
    ),
    def(
        "core.online_asr",
        "ratio",
        "higher",
        "attack outcome, fixed per seed",
    ),
    def(
        "core.clean_acc",
        "ratio",
        "higher",
        "attack outcome, fixed per seed",
    ),
    def("nn.fwd_frozen_ms", "ms", "lower", "p50_ms @ attack"),
    def("nn.bwd_ms", "ms", "lower", "p50_ms @ attack"),
    def(
        "nn.fwd_i8_b1_ms",
        "ms",
        "lower",
        "p50_ms, ops_per_s @ serve",
    ),
    def(
        "nn.fwd_i8_b16_ms",
        "ms",
        "lower",
        "p50_ms, ops_per_s @ serve",
    ),
    def(
        "nn.load_into_ms",
        "ms",
        "lower",
        "serve.flip_ms @ serve_flip",
    ),
    def(
        "nn.fwd_i8_after_flip_ms",
        "ms",
        "lower",
        "p90_ms @ serve_flip",
    ),
    def(
        "serve.queue_wait_p50_ms",
        "ms",
        "lower",
        "p90_ms @ serve, serve_flip",
    ),
    def(
        "serve.queue_wait_p99_ms",
        "ms",
        "lower",
        "p90_ms @ serve, serve_flip",
    ),
    def(
        "serve.service_p50_ms",
        "ms",
        "lower",
        "p50_ms @ serve, serve_flip",
    ),
    def(
        "serve.batch_mean",
        "count",
        "higher",
        "ops_per_s @ serve, serve_flip",
    ),
    def(
        "serve.fixed_batch_mean",
        "count",
        "higher",
        "p50_ms, p90_ms @ serve, serve_flip: requests per forward pass at the fixed rate",
    ),
    def(
        "serve.shed",
        "count",
        "lower",
        "failed requests @ serve, serve_flip",
    ),
    def(
        "serve.gen_lag_p99_ms",
        "ms",
        "lower",
        "how late the generator ran @ serve, serve_flip",
    ),
    def("serve.flip_ms", "ms", "lower", "p90_ms @ serve_flip"),
    def("dram.template_ms", "ms", "lower", "p50_ms @ online"),
    def("dram.match_ms", "ms", "lower", "p50_ms @ online"),
    def("dram.place_ms", "ms", "lower", "p50_ms @ online"),
    def("dram.hammer_ms", "ms", "lower", "p50_ms @ online"),
    def(
        "dram.recovery_ms",
        "ms",
        "lower",
        "p50_ms @ online: execute_adaptive with minus without recovery, clamped at 0",
    ),
    def(
        "dram.cells",
        "count",
        "lower",
        "p50_ms @ online: matching scans every cell",
    ),
    def(
        "dram.match_frac",
        "ratio",
        "higher",
        "dram.verified_frac @ online",
    ),
    def("dram.retries", "count", "lower", "p50_ms @ online"),
    def("dram.fallbacks", "count", "lower", "p50_ms @ online"),
    def(
        "dram.retemplate_rounds",
        "count",
        "lower",
        "p50_ms @ online",
    ),
    def(
        "dram.verified_frac",
        "ratio",
        "higher",
        "online outcome, fixed per seed",
    ),
    def(
        "bench.trace_overhead_pct",
        "%",
        "lower",
        "p50_ms of the traced half over the untraced half, minus 100%",
    ),
];

fn declared(name: &str) -> bool {
    END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name)
}

/// Nearest-rank quantile; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `part / whole`, or 0 when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Value {
    value: f64,
    samples: usize,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted: attacks, requests or online phases.
    pub attempted: u64,
    /// Operations that failed an output check, were shed or went unanswered.
    pub failed: u64,
    errors: Vec<String>,
    values: BTreeMap<&'static str, Value>,
    /// The workload's figures under the names people use for them,
    /// printed above the result line.
    notes: Vec<(&'static str, f64, &'static str, usize)>,
}

impl RunResult {
    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name or a non-finite value: both are bugs
    /// in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(declared(name), "undeclared metric {name}");
        assert!(value.is_finite(), "metric {name} is {value}");
        self.values.insert(name, Value { value, samples });
    }

    /// A metric set earlier in the run, or 0.
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| v.value)
    }

    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.notes.push((name, value, unit, samples));
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn defs(trace: bool) -> &'static [MetricDef] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The result line: every metric of the run's kind, in declaration order.
    pub fn json(&self, trace: bool) -> String {
        let metrics: Vec<String> = Self::defs(trace)
            .iter()
            .map(|d| {
                let v = self.values.get(d.name).copied().unwrap_or_default();
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name, v.value, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints the human-readable tables, then the result line last.
    pub fn print(&self, trace: bool) {
        for (name, value, unit, samples) in &self.notes {
            println!("figure  {name:<26} {value:>14.4} {unit:<6} n={samples}");
        }
        println!(
            "failed_frac {:.4} ({} of {} operations)",
            ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        for d in Self::defs(trace) {
            let v = self.values.get(d.name).copied().unwrap_or_default();
            println!(
                "metric  {:<26} {:>14.4} {:<6} n={:<6} {} is better; {}",
                d.name, v.value, d.unit, v.samples, d.better, d.about
            );
        }
        for e in &self.errors {
            println!("check failed: {e}");
        }
        println!("{}", self.json(trace));
    }
}

/// Thread budget: serve workers plus `rhb-par` pool threads never exceed
/// the cores, so latency is not measured on an oversubscribed machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    pub nproc: usize,
    pub pool_threads: usize,
    pub serve_workers: usize,
}

impl Budget {
    /// `requested` is `RHB_THREADS`, honoured up to what the budget allows.
    pub fn new(serving: bool, nproc: usize, requested: Option<usize>) -> Budget {
        let nproc = nproc.max(1);
        let serve_workers = if serving { (nproc / 2).max(1) } else { 0 };
        let room = nproc.saturating_sub(serve_workers).max(1);
        Budget {
            nproc,
            pool_threads: requested.unwrap_or(room).clamp(1, room),
            serve_workers,
        }
    }
}

/// One line naming everything a result depends on besides the code, so
/// results from different hosts or kernel tiers are never compared.
pub fn provenance(workload: &str, seed: u64, budget: &Budget) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    format!(
        "provenance workload={workload} seed={seed} nproc={} RHB_THREADS={} pool_threads={} \
         serve_workers={} i8_kernel={:?} RHB_ENGINE={} commit={} source={}",
        budget.nproc,
        env("RHB_THREADS"),
        budget.pool_threads,
        budget.serve_workers,
        rhb_nn::gemm_i8::KernelKind::auto(),
        env("RHB_ENGINE"),
        env("PERFBENCH_COMMIT"),
        env("PERFBENCH_SOURCE"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(name_ok(d.name), "bad metric name {:?}", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit {:?}",
                d.unit
            );
            assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is declared twice");
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let entries = json.matches("{\"name\": ").count();
        let workloads = crate::Workload::ALL.len();
        assert_eq!(entries, workloads + END_TO_END.len() + PER_LAYER.len());
        for w in crate::Workload::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
        }
    }

    #[test]
    fn result_line_carries_every_metric_of_its_kind() {
        let mut r = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        r.set("p50_ms", 1.25, 3);
        let line = r.json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert!(line.contains("\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        for d in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{", d.name)));
        }
        r.fail("corrupted output".into());
        assert!(r
            .json(true)
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1, "));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn budget_keeps_workers_plus_pool_within_the_cores() {
        for nproc in 1..=8 {
            for requested in [None, Some(1), Some(64)] {
                let b = Budget::new(true, nproc, requested);
                assert!(b.serve_workers >= 1 && b.pool_threads >= 1);
                assert!(b.serve_workers + b.pool_threads <= nproc.max(2));
                let b = Budget::new(false, nproc, requested);
                assert!(b.pool_threads <= nproc && b.serve_workers == 0);
            }
        }
        assert_eq!(Budget::new(true, 2, None).pool_threads, 1);
    }
}
