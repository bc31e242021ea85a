//! End-to-end flight-recorder coverage: the smoke pipeline under a
//! [`rhb_telemetry::TraceSink`] must produce a well-formed Chrome trace
//! and a provenance-complete artifact, the `exp` command must honour
//! `RHB_TELEMETRY=trace`, and the `rhb-report` CLI must turn artifact
//! diffs into exit codes.
//!
//! Only `smoke_trace_is_wellformed_and_ledger_matches_counter` touches
//! the process-global telemetry registry; every other test here spawns a
//! subprocess. Keep it that way — tests in one binary run on parallel
//! threads and the registry is shared.

use rhb_bench::artifact::RunArtifact;
use rhb_bench::report::PIPELINE_PHASES;
use rhb_telemetry::json::{self, JsonValue};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rhb_flight_{}_{name}", std::process::id()))
}

/// Walks every trace event, checking global timestamp monotonicity and
/// per-track B/E nesting. Returns the names of all `B` events.
fn validate_trace(doc: &JsonValue) -> Vec<String> {
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("top-level traceEvents array");
    assert!(!events.is_empty(), "trace recorded no events");
    let mut last_ts = f64::NEG_INFINITY;
    let mut stacks: HashMap<i64, Vec<String>> = HashMap::new();
    let mut begun = Vec::new();
    for event in events {
        let ph = event
            .get("ph")
            .and_then(JsonValue::as_str)
            .expect("event has a ph");
        let ts = event
            .get("ts")
            .and_then(JsonValue::as_f64)
            .expect("event has a numeric ts");
        assert!(
            ts >= last_ts,
            "timestamps must be non-decreasing ({ts} after {last_ts})"
        );
        last_ts = ts;
        assert_eq!(event.get("pid").and_then(JsonValue::as_i64), Some(1));
        let tid = event
            .get("tid")
            .and_then(JsonValue::as_i64)
            .expect("event has a tid");
        let name = event
            .get("name")
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string();
        match ph {
            "B" => {
                begun.push(name.clone());
                stacks.entry(tid).or_default().push(name);
            }
            "E" => {
                let open = stacks.entry(tid).or_default().pop();
                assert_eq!(
                    open.as_deref(),
                    Some(name.as_str()),
                    "E event must close the innermost open span on its track"
                );
            }
            "C" | "i" => {}
            other => panic!("unexpected trace phase {other:?}"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "track {tid} left spans open: {stack:?}");
    }
    begun
}

/// The one test allowed to use the in-process telemetry registry: runs
/// the smoke pipeline under a `TraceSink` and checks both halves of the
/// flight recorder — the trace file and the run artifact.
#[test]
fn smoke_trace_is_wellformed_and_ledger_matches_counter() {
    let trace_path = temp_path("smoke_trace.json");
    let sink = rhb_telemetry::TraceSink::to_file(&trace_path).expect("create trace file");
    rhb_telemetry::install(Arc::new(sink));
    let artifact = rhb_bench::artifact::smoke_run("itest", 41);
    rhb_telemetry::shutdown(); // flushes the closing `]}`

    // The flip ledger is exactly one record per requested target.
    let requested = artifact
        .counters
        .iter()
        .find(|(name, _)| name == "core/online/targets_requested")
        .map(|&(_, total)| total)
        .expect("targets counter folded into the artifact");
    assert_eq!(artifact.flips.len() as u64, requested);
    assert_eq!(artifact.metrics.n_targets as u64, requested);
    for flip in &artifact.flips {
        // CFT+BR selects grouped targets; the tiny profile matches and
        // places all of them, so provenance must be fully populated.
        assert!(flip.page_group.is_some(), "CFT+BR flips carry a group");
        assert!(flip.matched_frame.is_some(), "target matched a template");
        assert_eq!(flip.placed_frame, flip.matched_frame);
        assert_eq!(flip.hammer_attempts, 1);
        assert!(flip.flipped, "smoke-run flips land deterministically");
        assert!(flip.bit < 8);
        assert_eq!(
            flip.weight_idx / rhb_core::groupsel::WEIGHTS_PER_PAGE,
            flip.page
        );
    }

    // The artifact survives a JSON round trip with the ledger intact.
    let back = RunArtifact::from_json(&artifact.to_json()).expect("artifact round-trips");
    assert_eq!(back.flips, artifact.flips);
    assert_eq!(back.metrics, artifact.metrics);

    // The trace parses, nests, and covers the pipeline phases.
    let text = std::fs::read_to_string(&trace_path).expect("read trace file");
    let doc = json::parse(&text).expect("trace parses as JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(JsonValue::as_str),
        Some("ms")
    );
    let begun = validate_trace(&doc);
    let phases_seen = PIPELINE_PHASES
        .iter()
        .filter(|phase| begun.iter().any(|name| name == *phase))
        .count();
    assert!(
        phases_seen >= 5,
        "expected >=5 pipeline phases in the trace, saw {phases_seen} of {PIPELINE_PHASES:?}"
    );
    let _ = std::fs::remove_file(&trace_path);
}

/// `RHB_TELEMETRY=trace` on an experiment writes a loadable trace.
#[test]
fn exp_binary_trace_mode_writes_parseable_trace() {
    let trace_path = temp_path("fig12_trace.json");
    let output = Command::new(env!("CARGO_BIN_EXE_exp"))
        .arg("fig12")
        .env("RHB_TELEMETRY", "trace")
        .env("RHB_TRACE", &trace_path)
        .env("RHB_TELEMETRY_REPORT", "0")
        .output()
        .expect("spawn exp fig12");
    assert!(output.status.success(), "exp fig12 failed: {output:?}");
    let text = std::fs::read_to_string(&trace_path).expect("read trace file");
    let doc = json::parse(&text).expect("exp trace parses as JSON");
    validate_trace(&doc);
    let _ = std::fs::remove_file(&trace_path);
}

/// Unknown `RHB_TELEMETRY` values warn on stderr and list the valid modes.
#[test]
fn unknown_telemetry_mode_warns_on_stderr() {
    let output = Command::new(env!("CARGO_BIN_EXE_exp"))
        .arg("attack_time")
        .env("RHB_TELEMETRY", "bogus")
        .env("RHB_TELEMETRY_REPORT", "0")
        .output()
        .expect("spawn exp attack_time");
    assert!(
        output.status.success(),
        "exp attack_time failed: {output:?}"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("progress|jsonl|trace|off"),
        "stderr should list the valid modes, got: {stderr}"
    );
}

/// A hand-built artifact fixture for the CLI tests: `offline_us` is the
/// knob the regression fixture doubles.
fn fixture_json(offline_us: u64) -> String {
    let mut artifact = RunArtifact {
        exp: "fixture".into(),
        created_unix: 1_754_000_000,
        config: rhb_bench::artifact::RunConfig {
            model: "ResNet20".into(),
            dataset: "SynthCifar".into(),
            method: "CFT+BR".into(),
            scale: "tiny".into(),
            seed: 7,
            target_label: 2,
            profile_pages: 8192,
            hammer_sides: 7,
            flip_budget: 4,
        },
        phases: Vec::new(),
        counters: Vec::new(),
        gauges: Vec::new(),
        histograms: Vec::new(),
        metrics: rhb_bench::artifact::Headline {
            base_accuracy: 0.84,
            clean_accuracy: 0.82,
            asr: 0.95,
            offline_asr: 0.98,
            n_flip: 2,
            n_targets: 2,
            n_matched: 2,
            r_match: 100.0,
            attack_time_ms: 800,
        },
        alerts: Vec::new(),
        serve: None,
        flips: Vec::new(),
        recovery: rhb_bench::artifact::RecoverySummary::default(),
    };
    artifact.phases = vec![
        rhb_bench::artifact::PhaseTime {
            name: "pipeline/offline".into(),
            count: 1,
            total_us: offline_us,
            mean_us: offline_us,
        },
        rhb_bench::artifact::PhaseTime {
            name: "pipeline/hammering".into(),
            count: 1,
            total_us: 50_000,
            mean_us: 50_000,
        },
    ];
    artifact.to_json()
}

fn report_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rhb-report"))
}

/// `rhb-report diff` exit codes: 0 when clean, 1 naming the regressed
/// phase, 2 on I/O errors.
#[test]
fn report_cli_diff_drives_exit_codes() {
    let base = temp_path("diff_base.json");
    let slow = temp_path("diff_slow.json");
    std::fs::write(&base, fixture_json(100_000)).unwrap();
    std::fs::write(&slow, fixture_json(200_000)).unwrap();

    let clean = report_cmd()
        .arg("diff")
        .arg(&base)
        .arg(&base)
        .output()
        .unwrap();
    assert_eq!(clean.status.code(), Some(0), "identical runs must pass");
    assert!(String::from_utf8_lossy(&clean.stdout).contains("no regressions"));

    let regressed = report_cmd()
        .arg("diff")
        .arg(&base)
        .arg(&slow)
        .output()
        .unwrap();
    assert_eq!(regressed.status.code(), Some(1), "2x phase time must fail");
    let stdout = String::from_utf8_lossy(&regressed.stdout);
    assert!(
        stdout.contains("1 regression(s): pipeline/offline"),
        "diff must name the regressed phase, got: {stdout}"
    );

    let missing = report_cmd()
        .arg("diff")
        .arg(&base)
        .arg(temp_path("does_not_exist.json"))
        .output()
        .unwrap();
    assert_eq!(
        missing.status.code(),
        Some(2),
        "missing file is an I/O error"
    );

    let show = report_cmd().arg("show").arg(&base).output().unwrap();
    assert_eq!(show.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&show.stdout).contains("ledger"));

    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&slow);
}
