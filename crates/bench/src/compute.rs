//! Compute-layer benchmark (`BENCH_4.json`): wall time for a standard
//! training step and a CFT+BR iteration at 1, 2, and N threads, plus a
//! naive-vs-blocked serial GEMM reference.
//!
//! Two numbers in the output are gating (see `ci.sh`): the serial
//! (`threads = 1`) wall times must not regress more than 10 % against
//! the committed baseline. The parallel speedup is *recorded* but
//! non-blocking — CI runners may have a single core, where no speedup is
//! physically possible; the committed baseline documents what the host
//! that produced it measured.

use rhb_core::cft::{self, CftConfig};
use rhb_core::trigger::{Trigger, TriggerMask};
use rhb_models::data::Dataset;
use rhb_models::zoo::{build, dataset_for, Architecture, ZooConfig};
use rhb_nn::init::Rng;
use rhb_nn::layer::Mode;
use rhb_nn::loss::cross_entropy;
use rhb_nn::optim::{Sgd, SgdConfig};
use rhb_telemetry::json::{self, JsonValue};
use std::time::Instant;

/// One timed scenario at one thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeEntry {
    /// Scenario name: `train_step` or `cft_br_iteration`.
    pub name: String,
    /// Global pool size the scenario ran under.
    pub threads: usize,
    /// Wall time in milliseconds (median of the timed repetitions).
    pub wall_ms: f64,
}

/// The full benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeBench {
    /// Threads the host offers (`RHB_THREADS` or available parallelism).
    pub threads_available: usize,
    /// Timed scenarios, one entry per (scenario, thread count).
    pub entries: Vec<ComputeEntry>,
    /// Serial naive reference GEMM, milliseconds.
    pub gemm_naive_ms: f64,
    /// Serial blocked GEMM on the same problem, milliseconds.
    pub gemm_blocked_ms: f64,
}

impl ComputeBench {
    /// Wall time of `name` at `threads`, if measured.
    pub fn wall_ms(&self, name: &str, threads: usize) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.name == name && e.threads == threads)
            .map(|e| e.wall_ms)
    }

    /// Best parallel speedup of `name` over its serial run, with the
    /// thread count that achieved it.
    pub fn best_speedup(&self, name: &str) -> Option<(usize, f64)> {
        let serial = self.wall_ms(name, 1)?;
        self.entries
            .iter()
            .filter(|e| e.name == name && e.threads > 1 && e.wall_ms > 0.0)
            .map(|e| (e.threads, serial / e.wall_ms))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// The thread counts to measure: 1, 2, and the host maximum, deduplicated.
fn thread_points() -> Vec<usize> {
    let max = rhb_par::default_threads();
    let mut points = vec![1, 2, max];
    points.sort_unstable();
    points.dedup();
    points
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(samples)
}

/// One SGD step (forward + backward + update) on a fresh tiny ResNet-20.
fn train_step_ms(data: &Dataset) -> f64 {
    let cfg = ZooConfig::tiny();
    let mut rng = Rng::seed_from(71);
    let mut net = build(Architecture::ResNet20, &cfg, &mut rng);
    let mut opt = Sgd::new(net.as_ref(), SgdConfig::default());
    let idx: Vec<usize> = (0..32.min(data.len())).collect();
    let (x, y) = data.batch(&idx);
    let step = |net: &mut dyn rhb_nn::Network, opt: &mut Sgd| {
        net.zero_grad();
        let logits = net.forward(&x, Mode::Train);
        let out = cross_entropy(&logits, &y);
        net.backward(&out.grad_logits);
        opt.step(net);
    };
    // One warm-up step grows the scratch arenas to their steady state.
    step(net.as_mut(), &mut opt);
    time_ms(5, || step(net.as_mut(), &mut opt))
}

/// One CFT+BR iteration (scoring, selection, bit reduction) on a
/// deployed tiny model.
fn cft_iteration_ms(data: &Dataset) -> f64 {
    let cfg = ZooConfig::tiny();
    let mut rng = Rng::seed_from(73);
    let mut net = build(Architecture::ResNet20, &cfg, &mut rng);
    for p in net.params_mut() {
        p.deploy().expect("synthetic weights are finite");
    }
    let pages = net
        .num_params()
        .div_ceil(rhb_core::groupsel::WEIGHTS_PER_PAGE);
    let attack_cfg = CftConfig {
        iterations: 1,
        bit_reduction_period: 1,
        batch_size: 32,
        ..CftConfig::cft_br(pages.clamp(1, 4), 1)
    };
    let mask = TriggerMask::paper_default(3, cfg.side);
    time_ms(3, || {
        let _ = cft::run(
            net.as_mut(),
            data,
            &attack_cfg,
            Trigger::black_square(mask.clone()),
        );
    })
}

/// Serial naive-vs-blocked GEMM reference on a fixed 192×192×192 problem.
fn gemm_reference_ms() -> (f64, f64) {
    const N: usize = 192;
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut fill = |len: usize| -> Vec<f32> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    };
    let a = fill(N * N);
    let b = fill(N * N);
    let mut c = vec![0.0f32; N * N];
    let naive = time_ms(5, || rhb_nn::gemm::matmul_naive(&a, &b, &mut c, N, N, N));
    let blocked = time_ms(5, || rhb_nn::gemm::gemm_serial(&a, &b, &mut c, N, N, N));
    (naive, blocked)
}

/// Runs the full benchmark. Restores the global pool to its default size
/// before returning.
pub fn run() -> ComputeBench {
    let cfg = ZooConfig::tiny();
    let (train_data, _) = dataset_for(Architecture::ResNet20, &cfg, 70);
    let mut entries = Vec::new();
    for threads in thread_points() {
        rhb_par::set_global_threads(threads);
        entries.push(ComputeEntry {
            name: "train_step".into(),
            threads,
            wall_ms: train_step_ms(&train_data),
        });
        entries.push(ComputeEntry {
            name: "cft_br_iteration".into(),
            threads,
            wall_ms: cft_iteration_ms(&train_data),
        });
    }
    rhb_par::set_global_threads(1);
    let (gemm_naive_ms, gemm_blocked_ms) = gemm_reference_ms();
    rhb_par::set_global_threads(rhb_par::default_threads());
    ComputeBench {
        threads_available: rhb_par::default_threads(),
        entries,
        gemm_naive_ms,
        gemm_blocked_ms,
    }
}

/// Serializes as the `BENCH_4.json` schema.
pub fn to_json(bench: &ComputeBench) -> String {
    let mut s = String::with_capacity(1024);
    s.push_str("{\n");
    s.push_str("\"schema\": \"rhb-compute-bench/v1\",\n");
    s.push_str(&format!(
        "\"threads_available\": {},\n",
        bench.threads_available
    ));
    s.push_str("\"entries\": [\n");
    for (i, e) in bench.entries.iter().enumerate() {
        s.push_str(&format!(
            " {{\"name\": \"{}\", \"threads\": {}, \"wall_ms\": ",
            e.name, e.threads
        ));
        json::write_f64(e.wall_ms, &mut s);
        s.push_str(if i + 1 == bench.entries.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    s.push_str("],\n\"gemm_reference\": {\"naive_ms\": ");
    json::write_f64(bench.gemm_naive_ms, &mut s);
    s.push_str(", \"blocked_ms\": ");
    json::write_f64(bench.gemm_blocked_ms, &mut s);
    s.push_str("}\n}\n");
    s
}

/// Parses a `BENCH_4.json` document.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn from_json(text: &str) -> Result<ComputeBench, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let threads_available = doc
        .get("threads_available")
        .and_then(JsonValue::as_u64)
        .ok_or("missing threads_available")? as usize;
    let mut entries = Vec::new();
    for e in doc
        .get("entries")
        .and_then(JsonValue::as_array)
        .ok_or("missing entries")?
    {
        entries.push(ComputeEntry {
            name: e
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("entry missing name")?
                .to_string(),
            threads: e
                .get("threads")
                .and_then(JsonValue::as_u64)
                .ok_or("entry missing threads")? as usize,
            wall_ms: e
                .get("wall_ms")
                .and_then(JsonValue::as_f64)
                .ok_or("entry missing wall_ms")?,
        });
    }
    let gemm = doc.get("gemm_reference").ok_or("missing gemm_reference")?;
    Ok(ComputeBench {
        threads_available,
        entries,
        gemm_naive_ms: gemm
            .get("naive_ms")
            .and_then(JsonValue::as_f64)
            .ok_or("missing naive_ms")?,
        gemm_blocked_ms: gemm
            .get("blocked_ms")
            .and_then(JsonValue::as_f64)
            .ok_or("missing blocked_ms")?,
    })
}

/// Result of comparing a candidate run against the committed baseline.
#[derive(Debug)]
pub struct ComputeDiff {
    /// Human-readable comparison.
    pub report: String,
    /// True when a *blocking* regression was found (serial wall time more
    /// than 10 % over baseline).
    pub regressed: bool,
}

/// Serial-regression threshold: candidate serial time may exceed the
/// baseline by at most this factor.
pub const SERIAL_BUDGET: f64 = 1.10;

/// Target parallel speedup at 4+ threads; failing it is reported but
/// non-blocking (single-core CI hosts cannot demonstrate any speedup).
pub const TARGET_SPEEDUP: f64 = 3.0;

/// Compares candidate against baseline (see [`ComputeDiff`]).
pub fn diff(base: &ComputeBench, cand: &ComputeBench) -> ComputeDiff {
    let mut report = String::new();
    let mut regressed = false;
    for name in ["train_step", "cft_br_iteration"] {
        match (base.wall_ms(name, 1), cand.wall_ms(name, 1)) {
            (Some(b), Some(c)) => {
                let ratio = if b > 0.0 { c / b } else { 1.0 };
                let verdict = if ratio > SERIAL_BUDGET {
                    regressed = true;
                    "REGRESSED (blocking)"
                } else {
                    "ok"
                };
                report.push_str(&format!(
                    "{name} serial: baseline {b:.1} ms, candidate {c:.1} ms ({:+.1} %) {verdict}\n",
                    (ratio - 1.0) * 100.0
                ));
            }
            _ => report.push_str(&format!("{name}: serial entry missing, skipped\n")),
        }
        match cand.best_speedup(name) {
            Some((threads, speedup)) if threads >= 4 => {
                let verdict = if speedup >= TARGET_SPEEDUP {
                    "ok"
                } else {
                    "below target (non-blocking)"
                };
                report.push_str(&format!(
                    "{name} speedup: {speedup:.2}x at {threads} threads {verdict}\n"
                ));
            }
            _ => report.push_str(&format!(
                "{name} speedup: <4 threads available, target not checkable\n"
            )),
        }
    }
    report.push_str(&format!(
        "gemm reference: naive {:.1} ms, blocked {:.1} ms ({:.2}x)\n",
        cand.gemm_naive_ms,
        cand.gemm_blocked_ms,
        if cand.gemm_blocked_ms > 0.0 {
            cand.gemm_naive_ms / cand.gemm_blocked_ms
        } else {
            f64::INFINITY
        }
    ));
    ComputeDiff { report, regressed }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ComputeBench {
        ComputeBench {
            threads_available: 4,
            entries: vec![
                ComputeEntry {
                    name: "train_step".into(),
                    threads: 1,
                    wall_ms: 100.0,
                },
                ComputeEntry {
                    name: "train_step".into(),
                    threads: 4,
                    wall_ms: 30.0,
                },
                ComputeEntry {
                    name: "cft_br_iteration".into(),
                    threads: 1,
                    wall_ms: 50.0,
                },
                ComputeEntry {
                    name: "cft_br_iteration".into(),
                    threads: 4,
                    wall_ms: 40.0,
                },
            ],
            gemm_naive_ms: 20.0,
            gemm_blocked_ms: 8.0,
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let bench = sample();
        let parsed = from_json(&to_json(&bench)).unwrap();
        assert_eq!(parsed, bench);
    }

    #[test]
    fn serial_regression_blocks_but_missing_speedup_does_not() {
        let base = sample();
        let mut cand = sample();
        // 10 % is within budget…
        cand.entries[0].wall_ms = 110.0;
        assert!(!diff(&base, &cand).regressed);
        // …12 % is not.
        cand.entries[0].wall_ms = 112.0;
        let d = diff(&base, &cand);
        assert!(d.regressed, "{}", d.report);
        // Weak parallel speedup alone never blocks.
        let mut slow_par = sample();
        slow_par.entries[1].wall_ms = 95.0; // 1.05x at 4 threads
        let d = diff(&base, &slow_par);
        assert!(!d.regressed, "{}", d.report);
        assert!(d.report.contains("below target (non-blocking)"));
    }

    #[test]
    fn best_speedup_picks_the_fastest_parallel_point() {
        let bench = sample();
        let (threads, speedup) = bench.best_speedup("train_step").unwrap();
        assert_eq!(threads, 4);
        assert!((speedup - 100.0 / 30.0).abs() < 1e-9);
    }
}
