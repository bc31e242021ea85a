//! Int8-engine benchmark (`BENCH_6.json`): serial int8-vs-f32 GEMM on a
//! fixed 192×192×192 problem, plus whole-model evaluation wall time
//! under both inference engines at 1, 2, and N threads.
//!
//! Four checks are gating (see `ci.sh`):
//!
//! 1. the serial (`threads = 1`) int8 evaluation wall time must not
//!    regress more than 10 % against the committed baseline;
//! 2. the serial int8-over-f32 GEMM speedup on the 192³ reference must
//!    stay at or above [`GEMM_SPEEDUP_FLOOR`];
//! 3. the whole-model serial int8-over-f32 eval speedup must stay at or
//!    above [`EVAL_SPEEDUP_FLOOR`] (1.5×; the stretch target of 2× is
//!    reported but not enforced);
//! 4. at every measured thread count the int8 engine must be at least
//!    as fast as f32 at the same thread count — the BENCH_5-era
//!    regression was int8 eval *slower* than f32 once the pool had two
//!    threads, and it must never come back.
//!
//! Checks 2–4 are speedup ratios taken inside one measurement window,
//! so they stay meaningful on shared runners whose absolute wall
//! clocks jitter by tens of percent under CPU-steal storms (the
//! sub-millisecond GEMM reference is especially exposed — a
//! cross-baseline wall-time gate on it flaked 40 %+). Multi-thread-
//! vs-serial and GEMM wall times are reported but never block for
//! exactly that reason.

use crate::compute::SERIAL_BUDGET;
use rhb_models::train::evaluate_mode;
use rhb_models::zoo::{build, dataset_for, Architecture, ZooConfig};
use rhb_nn::init::Rng;
use rhb_nn::layer::Mode;
use rhb_telemetry::json::{self, JsonValue};
use std::time::Instant;

/// Blocking floor on the whole-model serial int8-over-f32 eval speedup.
/// The tentpole target is 2×; CI fails below 1.5× so the packed-cache
/// and fused-pass wins cannot silently erode.
pub const EVAL_SPEEDUP_FLOOR: f64 = 1.5;

/// Reported (non-blocking) stretch target for the same speedup.
pub const EVAL_SPEEDUP_TARGET: f64 = 2.0;

/// Blocking floor on every entry's speedup, whatever its thread count:
/// int8 eval must never be slower than f32 eval measured in the same
/// window (BENCH_5's 2-thread entry broke exactly this).
pub const EVAL_SPEEDUP_ANY_THREADS_FLOOR: f64 = 1.0;

/// Blocking floor on the serial 192³ GEMM int8-over-f32 speedup. The
/// AVX2 pair-dot kernel measures ~4× on this problem; 2× leaves noise
/// headroom while still catching a kernel- or packing-level slide.
pub const GEMM_SPEEDUP_FLOOR: f64 = 2.0;

/// Evaluation timings at one thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct Int8Entry {
    /// Global pool size the evaluations ran under.
    pub threads: usize,
    /// Fake-quant f32 engine evaluation wall time, milliseconds.
    pub f32_eval_ms: f64,
    /// Int8 engine evaluation wall time, milliseconds.
    pub int8_eval_ms: f64,
}

impl Int8Entry {
    /// Whole-model int8-over-f32 speedup at this thread count.
    pub fn speedup(&self) -> f64 {
        if self.int8_eval_ms > 0.0 {
            self.f32_eval_ms / self.int8_eval_ms
        } else {
            f64::INFINITY
        }
    }
}

/// The full benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct Int8Bench {
    /// Threads the host offers (`RHB_THREADS` or available parallelism).
    pub threads_available: usize,
    /// Serial f32 blocked GEMM on the reference problem, milliseconds.
    pub gemm_f32_ms: f64,
    /// Serial int8 blocked GEMM on the same problem, milliseconds.
    pub gemm_i8_ms: f64,
    /// Engine evaluation timings, one entry per thread count.
    pub entries: Vec<Int8Entry>,
}

impl Int8Bench {
    /// Int8-over-f32 speedup on the serial GEMM reference.
    pub fn gemm_speedup(&self) -> f64 {
        if self.gemm_i8_ms > 0.0 {
            self.gemm_f32_ms / self.gemm_i8_ms
        } else {
            f64::INFINITY
        }
    }

    /// The evaluation entry measured at `threads`, if any.
    pub fn eval_at(&self, threads: usize) -> Option<&Int8Entry> {
        self.entries.iter().find(|e| e.threads == threads)
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

/// Minimum wall time over `reps` runs. The minimum, not the median:
/// these numbers feed blocking wall-clock gates, and on shared runners
/// the minimum is the sample least polluted by scheduler interference —
/// medians jitter 15 %+ run-to-run on a busy single-core host.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Serial f32-vs-int8 GEMM reference on a fixed 192×192×192 problem.
fn gemm_reference_ms() -> (f64, f64) {
    const N: usize = 192;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
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
    let af = fill(N * N);
    let bf = fill(N * N);
    let mut cf = vec![0.0f32; N * N];
    let quant = |v: &[f32]| -> Vec<i8> { v.iter().map(|&x| (x * 127.0) as i8).collect() };
    let ai = quant(&af);
    let bi = quant(&bf);
    let mut ci = vec![0i32; N * N];
    let f32_ms = time_ms(20, || rhb_nn::gemm::gemm_serial(&af, &bf, &mut cf, N, N, N));
    let i8_ms = time_ms(20, || {
        rhb_nn::gemm_i8::gemm_i8_serial(&ai, &bi, &mut ci, N, N, N)
    });
    (f32_ms, i8_ms)
}

/// Runs the full benchmark. Restores the global pool to its default size
/// before returning.
pub fn run() -> Int8Bench {
    let cfg = ZooConfig::tiny();
    let (data, _) = dataset_for(Architecture::ResNet20, &cfg, 75);
    let mut rng = Rng::seed_from(77);
    let mut net = build(Architecture::ResNet20, &cfg, &mut rng);
    for p in net.params_mut() {
        p.deploy().expect("synthetic weights are finite");
    }
    let mut entries = Vec::new();
    for threads in thread_points() {
        rhb_par::set_global_threads(threads);
        // One warm-up pass per engine grows the scratch arenas.
        evaluate_mode(net.as_mut(), &data, 32, Mode::Eval);
        evaluate_mode(net.as_mut(), &data, 32, Mode::Int8);
        let f32_eval_ms = time_ms(7, || {
            evaluate_mode(net.as_mut(), &data, 32, Mode::Eval);
        });
        let int8_eval_ms = time_ms(7, || {
            evaluate_mode(net.as_mut(), &data, 32, Mode::Int8);
        });
        entries.push(Int8Entry {
            threads,
            f32_eval_ms,
            int8_eval_ms,
        });
    }
    rhb_par::set_global_threads(1);
    let (gemm_f32_ms, gemm_i8_ms) = gemm_reference_ms();
    rhb_par::set_global_threads(rhb_par::default_threads());
    Int8Bench {
        threads_available: rhb_par::default_threads(),
        gemm_f32_ms,
        gemm_i8_ms,
        entries,
    }
}

/// Serializes as the `BENCH_6.json` schema (v2: per-entry whole-model
/// speedups are materialized for human readers; parsers derive them).
pub fn to_json(bench: &Int8Bench) -> String {
    let mut s = String::with_capacity(1024);
    s.push_str("{\n");
    s.push_str("\"schema\": \"rhb-int8-bench/v2\",\n");
    s.push_str(&format!(
        "\"threads_available\": {},\n",
        bench.threads_available
    ));
    s.push_str("\"gemm_reference\": {\"f32_ms\": ");
    json::write_f64(bench.gemm_f32_ms, &mut s);
    s.push_str(", \"i8_ms\": ");
    json::write_f64(bench.gemm_i8_ms, &mut s);
    s.push_str(", \"speedup\": ");
    json::write_f64(bench.gemm_speedup(), &mut s);
    s.push_str("},\n\"entries\": [\n");
    for (i, e) in bench.entries.iter().enumerate() {
        s.push_str(&format!(" {{\"threads\": {}, \"f32_eval_ms\": ", e.threads));
        json::write_f64(e.f32_eval_ms, &mut s);
        s.push_str(", \"int8_eval_ms\": ");
        json::write_f64(e.int8_eval_ms, &mut s);
        s.push_str(", \"speedup\": ");
        json::write_f64(e.speedup(), &mut s);
        s.push_str(if i + 1 == bench.entries.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    s.push_str("]\n}\n");
    s
}

/// Parses a `BENCH_6.json` (or legacy `BENCH_5.json`) document.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn from_json(text: &str) -> Result<Int8Bench, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let threads_available = doc
        .get("threads_available")
        .and_then(JsonValue::as_u64)
        .ok_or("missing threads_available")? as usize;
    let gemm = doc.get("gemm_reference").ok_or("missing gemm_reference")?;
    let mut entries = Vec::new();
    for e in doc
        .get("entries")
        .and_then(JsonValue::as_array)
        .ok_or("missing entries")?
    {
        entries.push(Int8Entry {
            threads: e
                .get("threads")
                .and_then(JsonValue::as_u64)
                .ok_or("entry missing threads")? as usize,
            f32_eval_ms: e
                .get("f32_eval_ms")
                .and_then(JsonValue::as_f64)
                .ok_or("entry missing f32_eval_ms")?,
            int8_eval_ms: e
                .get("int8_eval_ms")
                .and_then(JsonValue::as_f64)
                .ok_or("entry missing int8_eval_ms")?,
        });
    }
    Ok(Int8Bench {
        threads_available,
        gemm_f32_ms: gemm
            .get("f32_ms")
            .and_then(JsonValue::as_f64)
            .ok_or("missing f32_ms")?,
        gemm_i8_ms: gemm
            .get("i8_ms")
            .and_then(JsonValue::as_f64)
            .ok_or("missing i8_ms")?,
        entries,
    })
}

/// Result of comparing a candidate run against the committed baseline.
#[derive(Debug)]
pub struct Int8Diff {
    /// Human-readable comparison.
    pub report: String,
    /// True when a *blocking* regression was found: serial int8 eval
    /// more than 10 % over baseline, GEMM-reference speedup below
    /// [`GEMM_SPEEDUP_FLOOR`], serial whole-model speedup below
    /// [`EVAL_SPEEDUP_FLOOR`], or any entry's speedup below
    /// [`EVAL_SPEEDUP_ANY_THREADS_FLOOR`] (int8 slower than f32 at
    /// that thread count).
    pub regressed: bool,
}

/// Compares candidate against baseline (see [`Int8Diff`]).
pub fn diff(base: &Int8Bench, cand: &Int8Bench) -> Int8Diff {
    let mut report = String::new();
    let mut regressed = false;
    let mut gate = |name: &str, b: f64, c: f64, report: &mut String| {
        let ratio = if b > 0.0 { c / b } else { 1.0 };
        let verdict = if ratio > SERIAL_BUDGET {
            regressed = true;
            "REGRESSED (blocking)"
        } else {
            "ok"
        };
        report.push_str(&format!(
            "{name}: baseline {b:.2} ms, candidate {c:.2} ms ({:+.1} %) {verdict}\n",
            (ratio - 1.0) * 100.0
        ));
    };
    match (base.eval_at(1), cand.eval_at(1)) {
        (Some(b), Some(c)) => gate(
            "int8 eval serial",
            b.int8_eval_ms,
            c.int8_eval_ms,
            &mut report,
        ),
        _ => report.push_str("int8 eval serial: entry missing, skipped\n"),
    }
    let gemm_sp = cand.gemm_speedup();
    let gemm_verdict = if gemm_sp < GEMM_SPEEDUP_FLOOR {
        regressed = true;
        "REGRESSED (blocking)"
    } else {
        "ok"
    };
    report.push_str(&format!(
        "gemm 192^3: f32 {:.2} ms, i8 {:.2} ms — speedup {gemm_sp:.2}x (floor {GEMM_SPEEDUP_FLOOR:.1}x) {gemm_verdict}\n",
        cand.gemm_f32_ms, cand.gemm_i8_ms
    ));
    // Blocking: whole-model serial speedup floor (stretch target reported).
    if let Some(serial) = cand.eval_at(1) {
        let sp = serial.speedup();
        let verdict = if sp < EVAL_SPEEDUP_FLOOR {
            regressed = true;
            "REGRESSED (blocking)"
        } else if sp < EVAL_SPEEDUP_TARGET {
            "ok (below the 2.0x stretch target)"
        } else {
            "ok"
        };
        report.push_str(&format!(
            "int8 eval speedup serial: {sp:.2}x (floor {EVAL_SPEEDUP_FLOOR:.1}x) {verdict}\n"
        ));
        // Non-blocking: multi-thread wall times vs serial, informational
        // only (absolute wall clocks are too steal-noisy to gate on).
        for e in cand.entries.iter().filter(|e| e.threads > 1) {
            let ratio = if serial.int8_eval_ms > 0.0 {
                e.int8_eval_ms / serial.int8_eval_ms
            } else {
                1.0
            };
            report.push_str(&format!(
                "int8 eval at {} threads vs serial: {:.2} ms vs {:.2} ms ({:+.1} %, non-blocking)\n",
                e.threads,
                e.int8_eval_ms,
                serial.int8_eval_ms,
                (ratio - 1.0) * 100.0
            ));
        }
    } else {
        report.push_str("int8 eval speedup serial: entry missing, skipped\n");
    }
    // Blocking: int8 must beat f32 at *every* thread count — the
    // BENCH_5-era regression was 2-thread int8 eval slower than f32.
    for e in &cand.entries {
        let sp = e.speedup();
        let verdict = if sp < EVAL_SPEEDUP_ANY_THREADS_FLOOR {
            regressed = true;
            "REGRESSED (blocking)"
        } else {
            "ok"
        };
        report.push_str(&format!(
            "eval at {} threads: f32 {:.2} ms, int8 {:.2} ms ({:.2}x) {verdict}\n",
            e.threads, e.f32_eval_ms, e.int8_eval_ms, sp
        ));
    }
    Int8Diff { report, regressed }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Int8Bench {
        Int8Bench {
            threads_available: 4,
            gemm_f32_ms: 4.0,
            gemm_i8_ms: 2.0,
            entries: vec![
                Int8Entry {
                    threads: 1,
                    f32_eval_ms: 100.0,
                    int8_eval_ms: 60.0,
                },
                Int8Entry {
                    threads: 4,
                    f32_eval_ms: 30.0,
                    int8_eval_ms: 20.0,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let bench = sample();
        let parsed = from_json(&to_json(&bench)).unwrap();
        assert_eq!(parsed, bench);
    }

    #[test]
    fn serial_int8_regression_blocks() {
        let base = sample();
        let mut cand = sample();
        // 10 % is within budget (and 100/66 = 1.52x stays above the floor)…
        cand.entries[0].int8_eval_ms = 66.0;
        assert!(!diff(&base, &cand).regressed);
        // …12 % is not.
        cand.entries[0].int8_eval_ms = 67.2;
        let d = diff(&base, &cand);
        assert!(d.regressed, "{}", d.report);
        // A slower f32 path (better relative int8 speedup) never blocks.
        let mut slow_f32 = sample();
        slow_f32.entries[0].f32_eval_ms = 500.0;
        assert!(!diff(&base, &slow_f32).regressed);
        // An int8 GEMM that loses its 2x edge over f32 blocks; a
        // uniformly slower window (both engines hit by the same storm,
        // ratio intact) does not.
        let mut slow_gemm = sample();
        slow_gemm.gemm_i8_ms = 2.5;
        let d = diff(&base, &slow_gemm);
        assert!(d.regressed, "{}", d.report);
        let mut storm = sample();
        storm.gemm_f32_ms = 8.0;
        storm.gemm_i8_ms = 4.0;
        assert!(!diff(&base, &storm).regressed);
    }

    #[test]
    fn serial_speedup_below_the_floor_blocks() {
        let base = sample();
        // Serial f32 80 ms / int8 60 ms = 1.33x < 1.5x: blocking even
        // though the int8 wall time itself did not regress.
        let mut cand = sample();
        cand.entries[0].f32_eval_ms = 80.0;
        let d = diff(&base, &cand);
        assert!(d.regressed, "{}", d.report);
        assert!(d.report.contains("speedup serial: 1.33x"), "{}", d.report);
        // 1.6x passes the floor but is flagged as below the stretch target.
        cand.entries[0].f32_eval_ms = 96.0;
        let d = diff(&base, &cand);
        assert!(!d.regressed, "{}", d.report);
        assert!(d.report.contains("stretch target"), "{}", d.report);
    }

    #[test]
    fn int8_slower_than_f32_at_any_thread_count_blocks() {
        let base = sample();
        // The BENCH_5-era regression: 4-thread int8 eval (35 ms) slower
        // than 4-thread f32 eval (30 ms) — speedup 0.86x < 1.0x.
        let mut cand = sample();
        cand.entries[1].int8_eval_ms = 35.0;
        let d = diff(&base, &cand);
        assert!(d.regressed, "{}", d.report);
        assert!(d.report.contains("4 threads"), "{}", d.report);
        // At parity or faster, the entry passes; multi-thread-vs-serial
        // wall times are reported but never block.
        cand.entries[1].int8_eval_ms = 30.0;
        assert!(!diff(&base, &cand).regressed);
        cand.entries[1].int8_eval_ms = 80.0;
        cand.entries[1].f32_eval_ms = 120.0;
        let d = diff(&base, &cand);
        assert!(!d.regressed, "{}", d.report);
        assert!(d.report.contains("non-blocking"), "{}", d.report);
    }

    #[test]
    fn gemm_speedup_is_f32_over_i8() {
        assert!((sample().gemm_speedup() - 2.0).abs() < 1e-12);
        assert!((sample().entries[0].speedup() - 100.0 / 60.0).abs() < 1e-12);
    }
}
