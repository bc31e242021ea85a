//! Long-running observable attack driver (not a paper artifact): runs
//! the full offline+online CFT+BR pipeline against a tiny ResNet-20 in a
//! loop, purpose-built for exercising the live observability plane.
//!
//! ```text
//! RHB_OBS_ADDR=127.0.0.1:9184 exp backdoor_online --runs 3 --min-seconds 10
//! ```
//!
//! then scrape `http://127.0.0.1:9184/metrics` (Prometheus text) and
//! `/status` (JSON), or point `rhb-report watch 127.0.0.1:9184` at it.
//! Unlike the artifact smoke runs, telemetry is *not* reset between
//! iterations: counters, histograms, and the health gauges accumulate
//! across the whole session, which is what a dashboard wants to see.
//!
//! Flags: `--runs N` (default 1) pipeline iterations, `--min-seconds S`
//! (default 0) keep iterating until this much wall time has passed,
//! `--seed X` (default 41) base seed (each iteration offsets it).

use super::Run;
use crate::flags::{self, Flags, Spec, UsageError};
use rhb_core::pipeline::{AttackMethod, AttackPipeline};
use rhb_models::zoo::{pretrained, Architecture, ZooConfig};
use std::process::ExitCode;
use std::time::Instant;

pub const SPEC: Spec = Spec {
    valued: &[("--runs", "N"), ("--min-seconds", "S"), ("--seed", "X")],
    ..Spec::NONE
};

pub fn prepare(flags: &Flags) -> Result<Run, UsageError> {
    let runs: u64 = flags.get("--runs", flags::any())?.unwrap_or(1);
    let min_seconds = flags
        .get("--min-seconds", flags::NON_NEGATIVE)?
        .unwrap_or(0.0);
    let seed: u64 = flags.get("--seed", flags::any())?.unwrap_or(41);
    Ok(Box::new(move || run(runs, min_seconds, seed)))
}

fn run(runs: u64, min_seconds: f64, base_seed: u64) -> ExitCode {
    // Publish the health gauges immediately with the §VII a-priori model
    // (seven-sided pattern, nominal ten-flip demand) so a scrape during
    // the first offline phase already sees them; the online phase
    // re-arms with the real target count and live rates.
    rhb_core::health::HealthMonitor::new(
        rhb_core::health::HealthConfig::default(),
        rhb_dram::HammerPattern::seven_sided(),
        10,
    );
    let started = Instant::now();
    let mut iteration = 0u64;
    loop {
        let seed = base_seed.wrapping_add(iteration);
        let _session = rhb_telemetry::span!("session", iteration = iteration, seed = seed);
        let model = pretrained(Architecture::ResNet20, &ZooConfig::tiny(), seed);
        let mut pipe = AttackPipeline::new(model, 2, seed);
        let offline = pipe.run_offline(AttackMethod::CftBr);
        let online = pipe.run_online(&offline);
        iteration += 1;
        println!(
            "run {iteration}: seed {seed}  asr {:.2}%  clean {:.2}%  n_flip {}  {}  ({:.1}s elapsed)",
            online.attack_success_rate * 100.0,
            online.test_accuracy * 100.0,
            online.n_flip,
            online.classification.name(),
            started.elapsed().as_secs_f64(),
        );
        if iteration >= runs && started.elapsed().as_secs_f64() >= min_seconds {
            break;
        }
    }
    ExitCode::SUCCESS
}
