//! Flight-recorder timeline coverage: the `rhb-telemetry` ring-buffer
//! writer and the `rhb_bench::timeline` reader must round-trip through
//! arbitrary ring geometries and crash truncation (proptest), alerts
//! frozen into artifacts must be bit-identical across identical seeded
//! chaos runs, and the `rhb-report timeline` / `postmortem` subcommands
//! must drive their documented exit codes.
//!
//! Only `chaos_alerts_are_deterministic_across_identical_runs` touches
//! the process-global telemetry registry; every other test writes its
//! own timeline directory or spawns a subprocess. Keep it that way —
//! tests in one binary run on parallel threads and the registry is
//! shared.

use proptest::prelude::*;
use rhb_bench::campaign_run::chaos_at;
use rhb_bench::timeline::Timeline;
use rhb_telemetry::Recorder;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rhb_tlrec_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A minimal but fully-valid snapshot line as the recorder writes them.
fn snapshot_line(seq: u64, rate: f64) -> String {
    format!(
        "{{\"kind\": \"snapshot\", \"seq\": {seq}, \"uptime_s\": {}, \"interval_s\": 0.05, \
         \"phase\": \"pipeline/hammering\", \"counters\": {{\"dram/bits_flipped\": \
         {{\"total\": {}, \"delta\": 3, \"rate\": {rate}}}}}, \"gauges\": \
         {{\"core/run_class\": 2}}, \"histograms\": {{}}}}",
        seq as f64 * 0.05,
        seq * 3,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any ring geometry: after writing `total` snapshot lines and then
    /// crashing mid-line (a truncated tail on the newest segment), the
    /// reader recovers a bounded, newest-suffix, strictly-ordered
    /// timeline and counts exactly the truncated line as skipped.
    #[test]
    fn ring_wraparound_and_truncated_tail_recover(
        total in 1u64..240,
        segment_lines in 1usize..10,
        cap_segments in 1usize..6,
    ) {
        let dir = temp_dir("prop");
        let cap = segment_lines * cap_segments;
        {
            let mut rec = Recorder::with_layout(dir.clone(), cap, segment_lines).unwrap();
            for seq in 0..total {
                rec.record_line(&snapshot_line(seq, 40.0)).unwrap();
            }
            prop_assert!(rec.retained_lines() <= cap.max(segment_lines) + segment_lines);
        }
        // Crash simulation: a partial line flushed without its tail.
        let mut newest: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.to_string_lossy().contains("segment-"))
            .collect();
        newest.sort();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(newest.last().unwrap())
            .unwrap();
        f.write_all(b"{\"kind\": \"snapshot\", \"seq\": 999999, \"upt").unwrap();
        drop(f);

        let t = Timeline::load(&dir).unwrap();
        prop_assert_eq!(t.skipped_lines, 1, "only the truncated tail is lost");
        prop_assert!(!t.points.is_empty());
        prop_assert!(t.points.len() as u64 <= total);
        prop_assert!(t.points.len() <= cap.max(segment_lines) + segment_lines);
        // The ring keeps the newest suffix, in order, ending at the last
        // line actually written.
        prop_assert_eq!(t.points.last().unwrap().seq, total - 1);
        for pair in t.points.windows(2) {
            prop_assert_eq!(pair[1].seq, pair[0].seq + 1, "contiguous suffix");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Deleting any whole interior segment (operator cleanup, disk
    /// corruption) still leaves a loadable timeline with ordered seqs.
    #[test]
    fn missing_interior_segment_is_survivable(drop_index in 0usize..3) {
        let dir = temp_dir("gap");
        {
            let mut rec = Recorder::with_layout(dir.clone(), 64, 4).unwrap();
            for seq in 0..16u64 {
                rec.record_line(&snapshot_line(seq, 10.0)).unwrap();
            }
        }
        let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.to_string_lossy().contains("segment-"))
            .collect();
        segments.sort();
        prop_assume!(drop_index < segments.len());
        std::fs::remove_file(&segments[drop_index]).unwrap();
        let t = Timeline::load(&dir).unwrap();
        prop_assert!(!t.points.is_empty());
        for pair in t.points.windows(2) {
            prop_assert!(pair[1].seq > pair[0].seq, "still ordered across the gap");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Fixed pipeline seed + fixed chaos schedule must freeze the exact same
/// alerts (rules, triggering values, sequence numbers) into the artifact
/// on every run — the determinism contract the CI gate relies on.
#[test]
fn chaos_alerts_are_deterministic_across_identical_runs() {
    let run = || rhb_bench::artifact::smoke_run_with_chaos("det", 41, chaos_at(0.4, 12));
    let a = run();
    let b = run();
    assert!(
        !a.alerts.is_empty(),
        "a 0.4-rate chaos run must trip at least one built-in alert"
    );
    assert_eq!(
        a.alerts, b.alerts,
        "identical seeds must fire identical alerts"
    );
    assert!(
        a.alerts
            .iter()
            .any(|al| al.rule.contains("recovery") || al.rule.contains("stall")),
        "chaos faults must surface as recovery/stall alerts, got {:?}",
        a.alerts.iter().map(|al| &al.rule).collect::<Vec<_>>()
    );
}

fn report_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rhb-report"))
}

/// `rhb-report timeline` / `postmortem` exit codes: 0 on a loadable
/// timeline, 1 when `--require-alert` matches nothing, 2 on I/O errors.
#[test]
fn timeline_and_postmortem_cli_drive_exit_codes() {
    let dir = temp_dir("cli");
    {
        let mut rec = Recorder::with_layout(dir.clone(), 64, 8).unwrap();
        for seq in 0..6u64 {
            let rate = if seq >= 4 { 1.0 } else { 50.0 };
            rec.record_line(&snapshot_line(seq, rate)).unwrap();
        }
        rec.record_line(
            "{\"kind\": \"alert\", \"rule\": \"attack-stall\", \"severity\": \"warn\", \
             \"state\": \"fired\", \"seq\": 5, \"uptime_s\": 0.25, \
             \"phase\": \"pipeline/hammering\", \"value\": 1, \"threshold\": 0, \
             \"message\": \"no forward progress\"}",
        )
        .unwrap();
    }

    let tl = report_cmd().arg("timeline").arg(&dir).output().unwrap();
    assert_eq!(tl.status.code(), Some(0), "timeline renders: {tl:?}");
    let stdout = String::from_utf8_lossy(&tl.stdout);
    assert!(stdout.contains("6 snapshots"), "header: {stdout}");
    assert!(stdout.contains("attack-stall"), "alert marker: {stdout}");
    assert!(
        stdout.contains("dram/bits_flipped"),
        "counter row: {stdout}"
    );

    let pm = report_cmd()
        .arg("postmortem")
        .arg(&dir)
        .arg("--last")
        .arg("2")
        .arg("--require-alert")
        .arg("stall,recovery")
        .output()
        .unwrap();
    assert_eq!(pm.status.code(), Some(0), "required alert present: {pm:?}");
    let stdout = String::from_utf8_lossy(&pm.stdout);
    assert!(stdout.contains("anomaly"), "anomaly pinpointed: {stdout}");
    assert!(stdout.contains("attack-stall"), "names the alert: {stdout}");
    assert!(
        stdout.contains("required alert present"),
        "gate satisfied: {stdout}"
    );

    let missed = report_cmd()
        .arg("postmortem")
        .arg(&dir)
        .arg("--require-alert")
        .arg("eta-blowup")
        .output()
        .unwrap();
    assert_eq!(
        missed.status.code(),
        Some(1),
        "unmatched --require-alert must fail the gate"
    );

    let gone = report_cmd()
        .arg("postmortem")
        .arg(std::env::temp_dir().join("rhb_tlrec_nonexistent"))
        .output()
        .unwrap();
    assert_eq!(gone.status.code(), Some(2), "missing timeline is I/O error");

    let badflag = report_cmd()
        .arg("postmortem")
        .arg(&dir)
        .arg("--bogus")
        .output()
        .unwrap();
    assert_eq!(
        badflag.status.code(),
        Some(2),
        "unknown flag is usage error"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
