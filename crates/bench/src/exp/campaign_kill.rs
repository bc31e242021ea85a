//! Kill-and-resume CI gate for the campaign supervisor.
//!
//! Two phases, both blocking:
//!
//! 1. **Fault domains (in-process).** A synthetic campaign where one
//!    config always panics and one always hangs past its deadline.
//!    Asserts: panics and timeouts are isolated and retried with
//!    backoff, both poison configs end quarantined (split into
//!    `quarantined` vs `timed_out`), healthy configs complete, and the
//!    whole thing finishes in bounded wall-clock — the queue never
//!    wedges.
//! 2. **Kill-resume (child process).** Launches this same executable as
//!    `exp campaign` on a seeded smoke-scale grid with sabotage
//!    injection, SIGKILLs it once the journal shows progress, then
//!    re-runs the identical command. Asserts the resumed campaign
//!    settles the full grid with zero duplicate run-ids and at least
//!    one recorded retry.
//!
//! Exit code 0 only if every assertion holds. Run from the repo root
//! (journals land under `results/campaigns/`).

use super::Run;
use crate::flags::{Flags, UsageError};
use rhb_campaign::{run_campaign, CampaignSpec, CampaignStore, RunFn, RunResult, SupervisorConfig};
use std::path::Path;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

const KILL_NAME: &str = "ci-kill";
const DOMAINS_NAME: &str = "ci-kill-domains";

pub fn prepare(_flags: &Flags) -> Result<Run, UsageError> {
    Ok(Box::new(|| {
        match phase_fault_domains().and_then(|()| phase_kill_resume()) {
            Ok(()) => {
                println!("exp campaign_kill: OK (fault domains + kill-resume)");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("exp campaign_kill: FAIL: {msg}");
                ExitCode::from(1)
            }
        }
    }))
}

/// Phase 1: panic and hang isolation with bounded wall-clock.
fn phase_fault_domains() -> Result<(), String> {
    let dir = crate::campaign_run::campaign_dir(DOMAINS_NAME);
    let _ = std::fs::remove_dir_all(&dir);
    let spec = CampaignSpec {
        name: DOMAINS_NAME.into(),
        models: vec!["ResNet20".into()],
        methods: vec!["CFT+BR".into()],
        chips: vec!["K1".into()],
        chaos_rates: vec![0.0],
        // seed 1: healthy; seed 2: always panics; seed 3: always hangs.
        seeds: vec![1, 2, 3],
    };
    let run: RunFn = Arc::new(|run_spec, _attempt, _token| {
        match run_spec.seed {
            2 => panic!("poison: always panics"),
            3 => std::thread::sleep(Duration::from_secs(600)),
            _ => {}
        }
        Ok(RunResult {
            class: "full".into(),
            asr: 1.0,
            attack_time_ms: 1,
        })
    });
    let config = SupervisorConfig {
        workers: 2,
        run_timeout: Duration::from_millis(300),
        max_attempts: 2,
        backoff_base_ms: 5,
        backoff_cap_ms: 10,
    };
    let started = Instant::now();
    let outcome = run_campaign(&spec, &dir, &config, run).map_err(|e| format!("journal: {e}"))?;
    let elapsed = started.elapsed();
    if elapsed > Duration::from_secs(60) {
        return Err(format!(
            "fault-domain campaign took {elapsed:?}; the queue wedged on a poison config"
        ));
    }
    let store = CampaignStore::from_state(outcome.state);
    if !store.is_complete() {
        return Err("fault-domain campaign did not settle every run".into());
    }
    if store.counts.full != 1 {
        return Err(format!("expected 1 full run, got {}", store.counts.full));
    }
    if store.counts.quarantined != 1 {
        return Err(format!(
            "expected 1 quarantined (panic) run, got {}",
            store.counts.quarantined
        ));
    }
    if store.counts.timed_out != 1 {
        return Err(format!(
            "expected 1 timed_out (hang) run, got {}",
            store.counts.timed_out
        ));
    }
    if store.retried != 2 {
        return Err(format!(
            "both poison configs must record retries, got {}",
            store.retried
        ));
    }
    eprintln!(
        "phase 1 OK: poison configs quarantined ({} quarantined / {} timed_out), \
         healthy run completed, wall {:?}",
        store.counts.quarantined, store.counts.timed_out, elapsed
    );
    Ok(())
}

/// Counts `done` lines across the campaign's journal segments.
fn done_lines(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut count = 0;
    for entry in entries.filter_map(|e| e.ok()) {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("journal-") && name.ends_with(".jsonl") {
            if let Ok(content) = std::fs::read_to_string(entry.path()) {
                count += content
                    .lines()
                    .filter(|l| l.contains("\"kind\": \"done\""))
                    .count();
            }
        }
    }
    count
}

/// Phase 2: SIGKILL a live campaign, resume it, and audit the journal.
fn phase_kill_resume() -> Result<(), String> {
    let dir = crate::campaign_run::campaign_dir(KILL_NAME);
    let _ = std::fs::remove_dir_all(&dir);
    // The child is this very executable, so it can never be a stale
    // build of another binary.
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let campaign_args: &[&str] = &[
        "campaign",
        "--name",
        KILL_NAME,
        "--models",
        "ResNet20",
        "--methods",
        "CFT+BR",
        "--chips",
        "K1",
        "--rates",
        "0.0",
        "--seeds",
        "1,2,3,4,5,6",
        "--workers",
        "2",
        "--timeout-s",
        "300",
        "--max-attempts",
        "3",
        // Every even grid index panics on its first attempt: guarantees
        // recorded retries for the --require-retried audit below.
        "--sabotage-every",
        "2",
    ];

    let mut child = Command::new(&exe)
        .args(campaign_args)
        .env("RHB_TELEMETRY", "off")
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;

    // Wait for real progress (≥1 settled run in the journal), then kill
    // mid-flight. If the campaign is so fast it finishes first, the
    // resume below still must be a clean no-op — the gate stays valid.
    let deadline = Instant::now() + Duration::from_secs(240);
    let mut killed_midway = false;
    loop {
        if done_lines(&dir) >= 1 {
            match child.try_wait() {
                Ok(None) => {
                    child.kill().map_err(|e| format!("kill: {e}"))?;
                    killed_midway = true;
                }
                Ok(Some(_)) => {}
                Err(e) => return Err(format!("try_wait: {e}")),
            }
            break;
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!(
                "campaign exited ({status}) before any run completed"
            ));
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err("no journal progress within 240s".into());
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let _ = child.wait(); // reap
    let pre_resume = CampaignStore::load(&dir).map_err(|e| format!("replay: {e}"))?;
    eprintln!(
        "phase 2: killed campaign with {}/{} settled (killed_midway={killed_midway}); resuming",
        pre_resume.counts.settled(),
        pre_resume.total_runs
    );

    // Resume: identical command, must run to completion.
    let status = Command::new(&exe)
        .args(campaign_args)
        .env("RHB_TELEMETRY", "off")
        .status()
        .map_err(|e| format!("resume spawn: {e}"))?;
    if !status.success() {
        return Err(format!("resumed campaign failed: {status}"));
    }

    // Audit the journal the way `rhb-report campaign` does.
    let store = CampaignStore::load(&dir).map_err(|e| format!("replay: {e}"))?;
    if !store.is_complete() {
        return Err(format!(
            "resume left {}/{} runs settled",
            store.counts.settled(),
            store.total_runs
        ));
    }
    if store.total_runs != 6 {
        return Err(format!(
            "expected 6-run grid, journal says {}",
            store.total_runs
        ));
    }
    if store.duplicate_done != 0 {
        return Err(format!(
            "{} duplicate done lines: a run was recorded twice",
            store.duplicate_done
        ));
    }
    if store.retried < 1 {
        return Err("no retried run recorded despite sabotage injection".into());
    }
    if store.counts.completed() != 6 {
        return Err(format!(
            "sabotaged runs must recover, not quarantine: {:?}",
            store.counts
        ));
    }
    eprintln!(
        "phase 2 OK: resumed to {}/{} settled, {} retried, 0 duplicates",
        store.counts.settled(),
        store.total_runs,
        store.retried
    );
    Ok(())
}
