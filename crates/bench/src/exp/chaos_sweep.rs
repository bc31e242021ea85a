//! Chaos-mode robustness sweep: runs the smoke pipeline (tiny ResNet-20,
//! CFT+BR) under increasing DRAM fault-injection rates and reports how
//! the adaptive recovery driver degrades.
//!
//! ```text
//! exp chaos_sweep [--rates 0.0,0.1,0.2,0.4] [--seed <chaos-seed>]
//!                 [--assert-degraded]
//! ```
//!
//! At rate `r` the injected chaos mix is [`chaos_at`]: flip flakiness
//! `r`, row eviction `r/4`, ECC masking `r/2`, templating false
//! positives and negatives `r/20` each — so the dominant fault is a
//! hammered bit that refuses to land, the case the retry/fallback
//! machinery targets.
//!
//! `--assert-degraded` turns the sweep into a CI gate: every non-zero
//! rate must classify as `degraded` (never `failed`) with at least one
//! target realized through recovery, and a zero rate must stay `full`.
//! Violations exit 1. Artifacts land in `results/runs/` for
//! `rhb-report diff`.

use super::Run;
use crate::artifact::smoke_run_with_chaos;
use crate::campaign_run::chaos_at;
use crate::flags::{self, Flags, Spec, UsageError};
use std::process::ExitCode;

const PIPELINE_SEED: u64 = 41;
const DEFAULT_CHAOS_SEED: u64 = 12;
const DEFAULT_RATES: &[f64] = &[0.0, 0.1, 0.2, 0.4];

pub const SPEC: Spec = Spec {
    switches: &["--assert-degraded"],
    valued: &[("--rates", "0.0,0.1,0.2,0.4"), ("--seed", "<n>")],
    ..Spec::NONE
};

pub fn prepare(flags: &Flags) -> Result<Run, UsageError> {
    let rates = flags
        .list("--rates", flags::FRACTION)?
        .unwrap_or_else(|| DEFAULT_RATES.to_vec());
    let chaos_seed = flags
        .get("--seed", flags::any())?
        .unwrap_or(DEFAULT_CHAOS_SEED);
    let assert_degraded = flags.switch("--assert-degraded");
    Ok(Box::new(move || run(&rates, chaos_seed, assert_degraded)))
}

fn run(rates: &[f64], chaos_seed: u64, assert_degraded: bool) -> ExitCode {
    rhb_telemetry::progress!(
        "chaos sweep over {} rate(s), chaos seed {chaos_seed}…",
        rates.len()
    );

    println!(
        "{:>6}  {:>10}  {:>6}  {:>7}  {:>9}  {:>10}  {:>9}  {:>7}  {:>8}",
        "rate",
        "class",
        "faults",
        "retries",
        "fallbacks",
        "recovered",
        "verified",
        "ASR",
        "time_ms"
    );

    let mut violations = Vec::new();
    for &rate in rates {
        let exp = format!("chaos_{rate:.2}");
        let artifact = smoke_run_with_chaos(&exp, PIPELINE_SEED, chaos_at(rate, chaos_seed));
        let r = &artifact.recovery;
        println!(
            "{:>6.2}  {:>10}  {:>6}  {:>7}  {:>9}  {:>10}  {:>6}/{:<2}  {:>6.1}%  {:>8}",
            rate,
            r.classification,
            r.injected_faults,
            r.retries,
            r.fallbacks,
            r.recovered_flips,
            r.verified_flips,
            artifact.metrics.n_targets,
            artifact.metrics.asr * 100.0,
            artifact.metrics.attack_time_ms,
        );
        match artifact.save(std::path::Path::new("results/runs")) {
            Ok(path) => eprintln!("exp chaos_sweep: artifact written to {}", path.display()),
            Err(e) => eprintln!("exp chaos_sweep: results/runs: {e}"),
        }

        if assert_degraded {
            if rate <= 0.0 {
                if r.classification != "full" {
                    violations.push(format!(
                        "rate {rate:.2}: expected a full run without chaos, got {}",
                        r.classification
                    ));
                }
            } else {
                if r.classification != "degraded" {
                    violations.push(format!(
                        "rate {rate:.2}: expected degraded, got {}",
                        r.classification
                    ));
                }
                if r.recovered_flips == 0 {
                    violations.push(format!(
                        "rate {rate:.2}: recovery realized no targets (retries {}, fallbacks {})",
                        r.retries, r.fallbacks
                    ));
                }
            }
        }
    }

    if !violations.is_empty() {
        for v in &violations {
            eprintln!("exp chaos_sweep: FAIL {v}");
        }
        return ExitCode::FAILURE;
    }
    if assert_degraded {
        eprintln!("exp chaos_sweep: degradation contract holds for all rates");
    }
    ExitCode::SUCCESS
}
