//! The `exp` command's surface: the usage list, flag values refused
//! before any work starts, and a silent `RHB_TELEMETRY=off` run.
//!
//! Every test spawns the binary, so none of them touches this process's
//! telemetry registry.

use rhb_bench::exp::EXPERIMENTS;
use std::process::{Command, Output};

fn exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .env("RHB_TELEMETRY", "off")
        .output()
        .expect("spawn exp")
}

#[test]
fn missing_or_unknown_name_exits_2_and_lists_every_name() {
    for args in [&[][..], &["table5"][..]] {
        let out = exp(args);
        assert_eq!(out.status.code(), Some(2), "exp {args:?}: {out:?}");
        assert!(out.stdout.is_empty());
        let stderr = String::from_utf8_lossy(&out.stderr);
        for (name, _) in EXPERIMENTS {
            assert!(
                stderr.split_whitespace().any(|word| word == *name),
                "exp {args:?} does not list {name}:\n{stderr}"
            );
        }
    }
}

/// Asserts that `exp <args>` exits 2 naming `flag`, with nothing on
/// stdout: the attack never started.
fn refused(args: &[&str], flag: &str) {
    let out = exp(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "exp {args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "exp {args:?} ran: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        stderr.contains(&format!("{flag}: ")),
        "exp {args:?} must name {flag}: {stderr}"
    );
}

#[test]
fn serve_attack_refuses_a_zero_rate() {
    refused(&["serve_attack", "--rps", "0", "--requests", "10"], "--rps");
}

#[test]
fn serve_attack_refuses_a_nan_rate() {
    refused(&["serve_attack", "--rps", "nan"], "--rps");
}

#[test]
fn serve_attack_refuses_a_trigger_fraction_outside_0_1() {
    refused(&["serve_attack", "--trigger-frac", "1.5"], "--trigger-frac");
    refused(&["serve_attack", "--trigger-frac", "nan"], "--trigger-frac");
}

#[test]
fn serve_attack_refuses_an_asr_threshold_outside_0_1() {
    refused(
        &["serve_attack", "--asr-threshold", "-1"],
        "--asr-threshold",
    );
    refused(
        &["serve_attack", "--asr-threshold", "nan"],
        "--asr-threshold",
    );
}

#[test]
fn chaos_sweep_refuses_a_nan_rate() {
    refused(
        &["chaos_sweep", "--rates", "nan", "--assert-degraded"],
        "--rates",
    );
}

/// `smoke_run_with_chaos` installs a no-op sink to fill its artifact;
/// that must not bring back the end-of-run report in off mode.
#[test]
fn off_mode_prints_no_telemetry_report() {
    let dir = std::env::temp_dir().join(format!("rhb_exp_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(["chaos_sweep", "--rates", "0.0"])
        .env("RHB_TELEMETRY", "off")
        .current_dir(&dir)
        .output()
        .expect("spawn exp");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "only the artifact line, got:\n{stderr}");
    assert!(lines[0].starts_with("exp chaos_sweep: artifact written to "));
}
