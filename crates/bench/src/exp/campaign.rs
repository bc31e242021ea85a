//! Fault-tolerant campaign driver: executes (or resumes) a declarative
//! sweep grid under the `rhb-campaign` supervisor — per-run panic
//! isolation, deadline watchdogs, retry budgets with exponential
//! backoff, quarantine, and a crash-safe checkpoint journal under
//! `results/campaigns/<name>/`.
//!
//! ```text
//! exp campaign [--name <campaign>] [--models ResNet20] [--methods CFT+BR,FT]
//!              [--chips K1] [--rates 0.0,0.2] [--seeds 41,42,43]
//!              [--workers N] [--timeout-s 120] [--max-attempts 3]
//!              [--sabotage-every M]
//! ```
//!
//! Re-running the same command resumes: completed run-ids are skipped,
//! in-flight attempts re-execute, and templating results are served
//! from the on-disk template cache, so a resumed campaign re-hammers
//! instead of re-templating. `--sabotage-every M` panics the first
//! attempt of every M-th grid index — the fault-injection knob the
//! kill-resume CI gate uses; leave it unset for real sweeps.
//!
//! Exit codes: 0 when every run is settled (completed or quarantined),
//! 1 when the campaign could not settle the grid, 2 on usage errors.

use super::Run;
use crate::campaign_run::{campaign_dir, parse_grid, pipeline_run_fn};
use crate::flags::{self, Flags, Spec, UsageError};
use rhb_campaign::{run_campaign, CampaignSpec, CampaignStore, SupervisorConfig};
use rhb_dram::TemplateCache;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

pub const SPEC: Spec = Spec {
    valued: &[
        ("--name", "<campaign>"),
        ("--models", "<list>"),
        ("--methods", "<list>"),
        ("--chips", "<list>"),
        ("--rates", "<list>"),
        ("--seeds", "<list>"),
        ("--workers", "N"),
        ("--timeout-s", "S"),
        ("--max-attempts", "N"),
        ("--sabotage-every", "M"),
    ],
    ..Spec::NONE
};

pub fn prepare(flags: &Flags) -> Result<Run, UsageError> {
    let axis = |flag: &str, default: &'static str| flags.raw(flag).unwrap_or(default);
    let spec = parse_grid(
        axis("--name", "default"),
        axis("--models", "ResNet20"),
        axis("--methods", "CFT+BR"),
        axis("--chips", "K1"),
        axis("--rates", "0.0"),
        axis("--seeds", "41"),
    )
    .map_err(UsageError)?;
    let defaults = SupervisorConfig::default();
    let config = SupervisorConfig {
        workers: flags
            .get("--workers", flags::positive())?
            .unwrap_or(defaults.workers),
        run_timeout: flags
            .get("--timeout-s", flags::positive())?
            .map_or(defaults.run_timeout, Duration::from_secs),
        max_attempts: flags
            .get("--max-attempts", flags::positive())?
            .unwrap_or(defaults.max_attempts),
        ..defaults
    };
    let sabotage_every = flags.get("--sabotage-every", flags::positive())?;
    Ok(Box::new(move || run(&spec, &config, sabotage_every)))
}

fn run(spec: &CampaignSpec, config: &SupervisorConfig, sabotage_every: Option<usize>) -> ExitCode {
    let dir = campaign_dir(&spec.name);
    let cache = Arc::new(TemplateCache::persistent(&dir.join("templates")));
    let run = pipeline_run_fn(cache, sabotage_every);
    eprintln!(
        "campaign '{}': {} runs, {} workers, {}s deadline, {} attempts max, journal at {}",
        spec.name,
        spec.len(),
        config.workers,
        config.run_timeout.as_secs(),
        config.max_attempts,
        dir.display()
    );

    let outcome = match run_campaign(spec, &dir, config, run) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("exp campaign: journal failure: {err}");
            return ExitCode::from(1);
        }
    };

    let store = CampaignStore::from_state(outcome.state.clone());
    match store.save(&dir) {
        Ok(path) => eprintln!("aggregate written to {}", path.display()),
        Err(err) => eprintln!("exp campaign: aggregate write failed: {err}"),
    }

    println!(
        "campaign {}: {}/{} settled ({} full, {} degraded, {} failed, {} timed_out, \
         {} quarantined), {} retried, {} resumed-skips, {} attempts this process, {} ms",
        spec.name,
        store.counts.settled(),
        store.total_runs,
        store.counts.full,
        store.counts.degraded,
        store.counts.failed,
        store.counts.timed_out,
        store.counts.quarantined,
        store.retried,
        outcome.resumed_skips,
        outcome.attempts_run,
        outcome.wall_ms
    );

    if outcome.is_complete(spec) {
        ExitCode::SUCCESS
    } else {
        eprintln!("exp campaign: grid not settled; resume by re-running the same command");
        ExitCode::from(1)
    }
}
