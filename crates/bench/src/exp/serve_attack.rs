//! Victim-as-a-service under a live Rowhammer attack.
//!
//! Runs the full offline+online CFT+BR pipeline once to learn which DRAM
//! flips the attack realizes, restores the victim to its clean deployed
//! weights, and then *serves* it: an open-loop seeded traffic generator
//! submits a clean/triggered request mix against a [`VictimServer`]
//! while an attacker thread replays the realized bit flips into the live
//! weight pages mid-flight (the weights' generation counter invalidates
//! the packed panels, so there is no restart — the very next batch
//! computes on the flipped bytes).
//!
//! The run freezes per-window clean-accuracy/ASR trajectories,
//! time-to-first-backdoor-activation, and tail-latency interference into
//! the RunArtifact's `serve` block; render it with `rhb-report serve
//! <run.json>` and gate CI with `--check`.
//!
//! ```text
//! exp serve_attack --seed 41 --requests 600 --rps 150 --trigger-frac 0.35 \
//!                  --workers 2 --out serve_run.json
//! ```
//!
//! Flags: `--seed X` (41), `--requests N` (600), `--rps R` (150),
//! `--trigger-frac F` (0.35), `--workers W` (2), `--window-ms M` (250)
//! trajectory window width, `--asr-threshold T` (0.9) windowed-ASR
//! crossing bar, `--patch P` (5) trigger patch side (the tiny victims
//! need a patch above the paper's 3x3 proportions for a saturated
//! backdoor), `--out PATH` extra copy of the artifact JSON.

use super::Run;
use crate::artifact::{
    AlertRecord, Headline, RecoverySummary, RunArtifact, RunConfig, ServeSummary, ServeWindow,
};
use crate::flags::{self, Flags, Spec, UsageError};
use rhb_core::pipeline::{AttackMethod, AttackPipeline};
use rhb_models::zoo::{pretrained, Architecture, ZooConfig};
use rhb_nn::weightfile::WeightFile;
use rhb_serve::{drive_schedule, trajectory, Schedule, ServeConfig, TrafficConfig, VictimServer};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

pub const SPEC: Spec = Spec {
    valued: &[
        ("--seed", "X"),
        ("--requests", "N"),
        ("--rps", "R"),
        ("--trigger-frac", "F"),
        ("--workers", "W"),
        ("--window-ms", "M"),
        ("--asr-threshold", "T"),
        ("--patch", "P"),
        ("--out", "PATH"),
    ],
    ..Spec::NONE
};

struct Args {
    seed: u64,
    requests: usize,
    rps: f64,
    trigger_frac: f64,
    workers: usize,
    window_ms: u64,
    asr_threshold: f64,
    patch: usize,
    out: Option<String>,
}

pub fn prepare(flags: &Flags) -> Result<Run, UsageError> {
    let args = Args {
        seed: flags.get("--seed", flags::any())?.unwrap_or(41),
        requests: flags.get("--requests", flags::positive())?.unwrap_or(600),
        rps: flags.get("--rps", flags::POSITIVE_FINITE)?.unwrap_or(150.0),
        trigger_frac: flags
            .get("--trigger-frac", flags::FRACTION)?
            .unwrap_or(0.35),
        workers: flags.get("--workers", flags::positive())?.unwrap_or(2),
        window_ms: flags.get("--window-ms", flags::positive())?.unwrap_or(250),
        asr_threshold: flags
            .get("--asr-threshold", flags::FRACTION)?
            .unwrap_or(0.9),
        patch: flags.get("--patch", flags::positive())?.unwrap_or(5),
        out: flags.raw("--out").map(str::to_string),
    };
    Ok(Box::new(move || run(&args)))
}

fn run(args: &Args) -> ExitCode {
    // Phase 1: the attack pipeline learns which flips the hardware
    // realizes for this seed. run_online leaves the net corrupted.
    let model = pretrained(Architecture::ResNet20, &ZooConfig::tiny(), args.seed);
    let base_accuracy = model.base_accuracy;
    let mut pipe = AttackPipeline::new(model, 2, args.seed);
    // The width-scaled tiny victims give the paper-proportioned 3x3
    // patch a statistically weak backdoor; a larger patch saturates the
    // trigger funnel so the serving trajectory is gateable.
    pipe.trigger_patch = Some(args.patch);
    let target_label = pipe.target_label;
    let flip_budget = pipe.default_flip_budget();
    let config = RunConfig {
        model: Architecture::ResNet20.name().to_string(),
        dataset: "SynthCifar".to_string(),
        method: AttackMethod::CftBr.name().to_string(),
        scale: "tiny".to_string(),
        seed: args.seed,
        target_label,
        profile_pages: pipe.profile_pages,
        hammer_sides: pipe.hammer.pattern.sides,
        flip_budget,
    };
    let offline = pipe.run_offline(AttackMethod::CftBr);
    let online = pipe.run_online(&offline);
    let corrupted = WeightFile::from_network(pipe.model.net.as_ref());
    let realized_flips = offline.base_weights.diff(&corrupted);
    println!(
        "attack rehearsal: {} realized flips, online ASR {:.2}%, clean {:.2}%",
        realized_flips.len(),
        online.attack_success_rate * 100.0,
        online.test_accuracy * 100.0,
    );

    // Phase 2: restore the clean deployment and serve it live.
    offline
        .base_weights
        .load_into(pipe.model.net.as_mut())
        .expect("clean weight file matches the victim");
    let test_data = pipe.model.test_data;
    let traffic = TrafficConfig {
        seed: args.seed,
        requests: args.requests,
        rate_rps: args.rps,
        trigger_fraction: args.trigger_frac,
    };
    let schedule = Schedule::generate(&traffic, test_data.len());
    let span = schedule.span();
    // Flip window: the attack opens at 40% of the session and spaces the
    // realized flips across the next 30%, so the trajectory sees a clean
    // baseline, a transition, and a steady backdoored tail.
    let flip_open = span.mul_f64(0.4);
    let flip_window = span.mul_f64(0.3);
    let serve_config = ServeConfig {
        workers: args.workers,
        ..ServeConfig::for_input(test_data.channels(), test_data.side())
    };
    let server = VictimServer::start(pipe.model.net, serve_config);
    let epoch = server.started();
    let trigger = &offline.trigger;
    let mut flip_file = offline.base_weights.clone();

    let (stats, flip_span_us) = std::thread::scope(|scope| {
        let attacker = scope.spawn(|| {
            let gap = if realized_flips.len() > 1 {
                flip_window / (realized_flips.len() as u32 - 1).max(1)
            } else {
                Duration::ZERO
            };
            let mut applied: Option<(u64, u64)> = None;
            for (i, flip) in realized_flips.iter().enumerate() {
                let due = epoch + flip_open + gap * i as u32;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                server.with_model(|net| {
                    flip_file
                        .flip_bit(flip.location, flip.bit)
                        .expect("rehearsed flip is in range");
                    flip_file
                        .load_into(net)
                        .expect("flip file matches the victim");
                });
                let at_us = epoch.elapsed().as_micros() as u64;
                rhb_telemetry::counter!("serve/attack/flips_applied", 1);
                applied = Some(match applied {
                    None => (at_us, at_us),
                    Some((first, _)) => (first, at_us),
                });
            }
            applied.unwrap_or((flip_open.as_micros() as u64, flip_open.as_micros() as u64))
        });
        let stats = drive_schedule(&server, &schedule, 1.0, |spec| {
            let (x, labels) = test_data.batch(&[spec.sample_idx]);
            let image = if spec.triggered { trigger.apply(&x) } else { x };
            (image.data().to_vec(), labels[0])
        });
        (stats, attacker.join().expect("attacker thread panicked"))
    });
    let log = server.shutdown();
    let (flip_start_us, flip_end_us) = flip_span_us;

    // Phase 3: trajectory analysis and the frozen artifact.
    let window_us = args.window_ms * 1000;
    let window_stats = trajectory::windows(&log.completions, window_us, target_label);
    let first_activation_us =
        trajectory::first_activation_us(&log.completions, target_label, flip_start_us);
    let asr_cross_us =
        trajectory::first_asr_cross_us(&window_stats, args.asr_threshold, flip_start_us);
    let (baseline_p99_s, attacked_p99_s) =
        trajectory::tail_latency_split(&log.completions, flip_start_us);
    let serve = ServeSummary {
        requests: schedule.len() as u64,
        admitted: stats.admitted as u64,
        shed: stats.shed as u64,
        completed: log.completions.len() as u64,
        window_us,
        flip_start_us,
        flip_end_us,
        first_activation_us,
        asr_cross_us,
        baseline_p99_s,
        attacked_p99_s,
        windows: window_stats
            .iter()
            .map(|w| ServeWindow {
                end_us: w.end_us,
                clean_total: w.clean_total,
                clean_correct: w.clean_correct,
                triggered_total: w.triggered_total,
                triggered_hits: w.triggered_hits,
            })
            .collect(),
    };

    let report = rhb_telemetry::report();
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
        exp: "serve_attack".to_string(),
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
        serve: Some(serve),
        flips: online.ledger.clone(),
    };
    artifact.fold_report(&report);

    match artifact.save(Path::new("results/runs")) {
        Ok(path) => println!("artifact written to {}", path.display()),
        Err(e) => {
            eprintln!("exp serve_attack: results/runs: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(out) = &args.out {
        if let Err(e) = rhb_telemetry::write_atomic(Path::new(out), &artifact.to_json()) {
            eprintln!("exp serve_attack: {out}: {e}");
            return ExitCode::from(2);
        }
        println!("artifact copy written to {out}");
    }

    let ms = |us: u64| us as f64 / 1e3;
    println!(
        "served {} requests ({} admitted, {} shed), {} completed",
        schedule.len(),
        stats.admitted,
        stats.shed,
        log.completions.len()
    );
    println!(
        "flip window {:.1}..{:.1} ms  activation {}  ASR>= {:.0}% {}",
        ms(flip_start_us),
        ms(flip_end_us),
        first_activation_us.map_or("never".into(), |us| format!("@{:.1} ms", ms(us))),
        args.asr_threshold * 100.0,
        asr_cross_us.map_or("never".into(), |us| format!("@{:.1} ms", ms(us))),
    );
    println!(
        "latency p99: baseline {}  under attack {}",
        baseline_p99_s.map_or("?".into(), |v| format!("{:.3} ms", v * 1e3)),
        attacked_p99_s.map_or("?".into(), |v| format!("{:.3} ms", v * 1e3)),
    );
    ExitCode::SUCCESS
}
