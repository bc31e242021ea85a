//! Flight-recorder CLI: inspect, compare, and benchmark pipeline runs.
//!
//! `rhb-report` with no arguments lists every subcommand and its
//! arguments; [`COMMANDS`] drives both that list and dispatch.
//!
//! * `show` renders one run artifact; `diff` compares two and exits 1 on
//!   a regression (phase time +15 %, ASR −1 pt, any flip-success drop;
//!   see `rhb_bench::diff::DiffConfig`).
//! * `bench`, `bench-compute` and `bench-int8` record the smoke run, the
//!   compute-layer timings and the int8-vs-f32 engine timings (default
//!   outputs `BENCH_2.json`, `BENCH_4.json`, `BENCH_6.json`).
//!   `diff-compute` blocks only on serial wall-time regressions >10 %
//!   (parallel speedup below target is reported, not blocking; see
//!   `rhb_bench::compute`); `diff-int8` blocks on a serial int8 eval or
//!   GEMM regression >10 %, a whole-model speedup <1.5x, or threads
//!   making eval slower.
//! * `watch` is a live terminal view of a running attack's
//!   `RHB_OBS_ADDR` endpoint; `--check` also validates `/metrics`.
//! * `timeline` replays a flight-recorder timeline (what
//!   `RHB_OBS_RECORD=<run-id>` writes under `results/timelines/`) as
//!   sparklines, phase boundaries and alert markers; `postmortem`
//!   diffs the snapshots before the first anomaly against a healthy
//!   baseline window, and `--require-alert` exits 1 unless a fired
//!   alert's rule name contains one of its substrings (the CI chaos
//!   gate).
//! * `serve` renders the serving block of an `exp serve_attack`
//!   artifact; `--check` exits 1 unless the backdoor activated and the
//!   windowed ASR crossed the threshold.
//! * `campaign` replays a campaign's checkpoint journal; the
//!   `--require-*` / `--forbid-duplicates` flags turn it into the
//!   kill-resume CI gate.
//!
//! Exit codes: 0 ok, 1 regression / required check failed, 2 usage or
//! I/O error.

use rhb_bench::artifact::{smoke_run, RunArtifact};
use rhb_bench::compute;
use rhb_bench::diff::{diff, DiffConfig};
use rhb_bench::flags::{self, Flags, Spec, UsageError};
use rhb_bench::int8bench;
use rhb_bench::timeline::{sparkline, Timeline};
use rhb_telemetry::json;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

/// A subcommand: reads its flags (a [`UsageError`] exits 2 before any
/// work), then runs.
type Handler = fn(&Flags) -> Result<ExitCode, UsageError>;

const RUN_FILE: Spec = Spec {
    positionals: &["<run.json>"],
    ..Spec::NONE
};
const PAIR: Spec = Spec {
    positionals: &["<baseline.json>", "<candidate.json>"],
    ..Spec::NONE
};
const OUT: Spec = Spec {
    valued: &[("--out", "<path>")],
    ..Spec::NONE
};

/// Every subcommand: dispatch and the usage text both read this table.
const COMMANDS: &[(&str, Spec, Handler)] = &[
    ("show", RUN_FILE, |f| Ok(show(Path::new(f.positional(0))))),
    ("diff", PAIR, |f| {
        Ok(run_diff(
            Path::new(f.positional(0)),
            Path::new(f.positional(1)),
        ))
    }),
    ("bench", OUT, |f| {
        Ok(bench(Path::new(f.raw("--out").unwrap_or("BENCH_2.json"))))
    }),
    ("bench-compute", OUT, |f| {
        Ok(bench_compute(Path::new(
            f.raw("--out").unwrap_or("BENCH_4.json"),
        )))
    }),
    ("diff-compute", PAIR, |f| {
        Ok(diff_compute(
            Path::new(f.positional(0)),
            Path::new(f.positional(1)),
        ))
    }),
    ("bench-int8", OUT, |f| {
        Ok(bench_int8(Path::new(
            f.raw("--out").unwrap_or("BENCH_6.json"),
        )))
    }),
    ("diff-int8", PAIR, |f| {
        Ok(diff_int8(
            Path::new(f.positional(0)),
            Path::new(f.positional(1)),
        ))
    }),
    (
        "watch",
        Spec {
            positionals: &["<host:port>"],
            switches: &["--once", "--check"],
            valued: &[("--interval-ms", "N")],
        },
        watch,
    ),
    (
        "timeline",
        Spec {
            positionals: &["<timeline-dir>"],
            ..Spec::NONE
        },
        |f| Ok(timeline_cmd(Path::new(f.positional(0)))),
    ),
    (
        "postmortem",
        Spec {
            positionals: &["<timeline-dir>"],
            valued: &[("--last", "N"), ("--require-alert", "substr[,substr...]")],
            ..Spec::NONE
        },
        |f| {
            let last = f.get("--last", flags::positive())?.unwrap_or(5);
            let require_alert: Vec<String> =
                f.list("--require-alert", flags::any())?.unwrap_or_default();
            Ok(postmortem_cmd(
                Path::new(f.positional(0)),
                last,
                &require_alert,
            ))
        },
    ),
    (
        "serve",
        Spec {
            positionals: &["<run.json>"],
            switches: &["--check"],
            ..Spec::NONE
        },
        |f| Ok(serve_cmd(Path::new(f.positional(0)), f.switch("--check"))),
    ),
    (
        "campaign",
        Spec {
            positionals: &["<campaign-dir>"],
            switches: &[
                "--require-complete",
                "--require-retried",
                "--forbid-duplicates",
            ],
            ..Spec::NONE
        },
        |f| {
            Ok(campaign_cmd(
                Path::new(f.positional(0)),
                f.switch("--require-complete"),
                f.switch("--require-retried"),
                f.switch("--forbid-duplicates"),
            ))
        },
    ),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        return usage_error("missing subcommand");
    };
    let Some((_, spec, handler)) = COMMANDS.iter().find(|(n, _, _)| n == name) else {
        return usage_error(&format!("unknown subcommand '{name}'"));
    };
    match spec.parse(rest).and_then(|f| handler(&f)) {
        Ok(code) => code,
        Err(e) => usage_error(&format!("{name}: {e}")),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    let mut usage = String::from("usage: rhb-report <command>\n");
    for (name, spec, _) in COMMANDS {
        usage.push_str(&format!("  {name}{}\n", spec.synopsis()));
    }
    eprint!("rhb-report: {msg}\n{usage}");
    ExitCode::from(2)
}

fn load(path: &Path) -> Result<RunArtifact, ExitCode> {
    RunArtifact::load(path).map_err(|e| {
        eprintln!("rhb-report: {e}");
        ExitCode::from(2)
    })
}

fn show(path: &Path) -> ExitCode {
    let a = match load(path) {
        Ok(a) => a,
        Err(code) => return code,
    };
    print!("{}", render(&a));
    ExitCode::SUCCESS
}

fn render(a: &RunArtifact) -> String {
    let mut out = String::new();
    let c = &a.config;
    let m = &a.metrics;
    out.push_str(&format!(
        "run {} ({}): {} / {} / {} scale, seed {}\n",
        a.exp,
        rhb_bench::artifact::format_timestamp(a.created_unix),
        c.model,
        c.method,
        c.scale,
        c.seed
    ));
    out.push_str(&format!(
        "  attack: target label {}, {} profile pages, {}-sided hammer, budget {}\n",
        c.target_label, c.profile_pages, c.hammer_sides, c.flip_budget
    ));
    out.push_str(&format!(
        "  metrics: base acc {:.2}%  clean acc {:.2}%  ASR {:.2}% (offline {:.2}%)\n\
         \x20          n_flip {}  targets {}/{} matched  r_match {:.2}%  attack time {} ms\n",
        m.base_accuracy * 100.0,
        m.clean_accuracy * 100.0,
        m.asr * 100.0,
        m.offline_asr * 100.0,
        m.n_flip,
        m.n_matched,
        m.n_targets,
        m.r_match,
        m.attack_time_ms
    ));
    out.push_str(&format!(
        "  ledger: {} records, flip success {:.1}%, recovered {:.1}%\n",
        a.flips.len(),
        a.flip_success_rate() * 100.0,
        a.verified_fraction() * 100.0
    ));
    let r = &a.recovery;
    if r.classification != "full" || r.injected_faults > 0 {
        out.push_str(&format!(
            "  recovery: {} run — {} faults injected, {} retries, {} fallbacks, \
             {} re-templating rounds, {} targets recovered, +{} ms\n",
            r.classification,
            r.injected_faults,
            r.retries,
            r.fallbacks,
            r.retemplate_rounds,
            r.recovered_flips,
            r.recovery_time_ms
        ));
    }
    if !a.alerts.is_empty() {
        out.push_str("  alerts:\n");
        for alert in &a.alerts {
            out.push_str(&format!(
                "    [{}] {} @seq {} ({}): value {:.4} vs threshold {:.4} — {}\n",
                alert.severity,
                alert.rule,
                alert.seq,
                if alert.phase.is_empty() {
                    "(idle)"
                } else {
                    &alert.phase
                },
                alert.value,
                alert.threshold,
                alert.message
            ));
        }
    }
    out.push_str("  phases:\n");
    for p in &a.phases {
        out.push_str(&format!(
            "    {:<28} {:>4}x {:>12} µs total {:>12} µs mean\n",
            p.name, p.count, p.total_us, p.mean_us
        ));
    }
    if !a.histograms.is_empty() {
        out.push_str("  histograms:\n");
        for h in &a.histograms {
            out.push_str(&hist_row(
                h.name.as_str(),
                h.count,
                h.mean,
                h.p50,
                h.p95,
                h.p99,
                h.max,
            ));
        }
    }
    out
}

/// One histogram table row — `show` (persisted artifacts) and `watch`
/// (live /status digests) share this formatter so the two views line up.
fn hist_row(name: &str, count: u64, mean: f64, p50: f64, p95: f64, p99: f64, max: f64) -> String {
    format!(
        "    {name:<32} n={count:<7} mean {mean:<9.3}  p50 {p50:<9.3}  p95 {p95:<9.3}  p99 {p99:<9.3}  max {max:<9.3}\n"
    )
}

fn run_diff(base_path: &Path, cand_path: &Path) -> ExitCode {
    let (base, cand) = match (load(base_path), load(cand_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let report = diff(&base, &cand, &DiffConfig::default());
    print!("{report}");
    if report.regressed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn bench(out: &Path) -> ExitCode {
    let mode = rhb_bench::telemetry::init();
    let artifact = smoke_run("smoke", 41);
    rhb_bench::telemetry::finish(mode);
    match artifact.save(Path::new("results/runs")) {
        Ok(path) => eprintln!("rhb-report: artifact written to {}", path.display()),
        Err(e) => {
            eprintln!("rhb-report: results/runs: {e}");
            return ExitCode::from(2);
        }
    }
    if let Err(e) = std::fs::write(out, artifact.to_json()) {
        eprintln!("rhb-report: {}: {e}", out.display());
        return ExitCode::from(2);
    }
    eprintln!("rhb-report: bench trajectory written to {}", out.display());
    print!("{}", render(&artifact));
    ExitCode::SUCCESS
}

fn bench_compute(out: &Path) -> ExitCode {
    let report = compute::run();
    if let Err(e) = std::fs::write(out, compute::to_json(&report)) {
        eprintln!("rhb-report: {}: {e}", out.display());
        return ExitCode::from(2);
    }
    eprintln!("rhb-report: compute bench written to {}", out.display());
    for e in &report.entries {
        println!(
            "{:<16} {:>2} threads {:>10.2} ms",
            e.name, e.threads, e.wall_ms
        );
    }
    println!(
        "gemm 192^3        serial     {:>10.2} ms naive / {:.2} ms blocked ({:.2}x)",
        report.gemm_naive_ms,
        report.gemm_blocked_ms,
        report.gemm_naive_ms / report.gemm_blocked_ms.max(1e-9)
    );
    ExitCode::SUCCESS
}

fn bench_int8(out: &Path) -> ExitCode {
    let report = int8bench::run();
    if let Err(e) = std::fs::write(out, int8bench::to_json(&report)) {
        eprintln!("rhb-report: {}: {e}", out.display());
        return ExitCode::from(2);
    }
    eprintln!("rhb-report: int8 bench written to {}", out.display());
    println!(
        "gemm 192^3        serial     {:>10.2} ms f32 / {:.2} ms i8 ({:.2}x)",
        report.gemm_f32_ms,
        report.gemm_i8_ms,
        report.gemm_speedup()
    );
    for e in &report.entries {
        println!(
            "eval {:>2} threads  f32 {:>10.2} ms  int8 {:>10.2} ms ({:.2}x)",
            e.threads,
            e.f32_eval_ms,
            e.int8_eval_ms,
            e.speedup()
        );
    }
    ExitCode::SUCCESS
}

fn load_int8(path: &Path) -> Result<int8bench::Int8Bench, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("rhb-report: {}: {e}", path.display());
        ExitCode::from(2)
    })?;
    int8bench::from_json(&text).map_err(|e| {
        eprintln!("rhb-report: {}: {e}", path.display());
        ExitCode::from(2)
    })
}

fn diff_int8(base_path: &Path, cand_path: &Path) -> ExitCode {
    let (base, cand) = match (load_int8(base_path), load_int8(cand_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let d = int8bench::diff(&base, &cand);
    print!("{}", d.report);
    if d.regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn load_compute(path: &Path) -> Result<compute::ComputeBench, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("rhb-report: {}: {e}", path.display());
        ExitCode::from(2)
    })?;
    compute::from_json(&text).map_err(|e| {
        eprintln!("rhb-report: {}: {e}", path.display());
        ExitCode::from(2)
    })
}

fn diff_compute(base_path: &Path, cand_path: &Path) -> ExitCode {
    let (base, cand) = match (load_compute(base_path), load_compute(cand_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let d = compute::diff(&base, &cand);
    print!("{}", d.report);
    if d.regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

// ---------------------------------------------------------------------------
// watch: live terminal view of a running attack's RHB_OBS_ADDR endpoint.
// ---------------------------------------------------------------------------

const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

/// Polls the endpoint and renders frames: `--once` renders one and
/// exits, `--check` also validates /metrics (the CI smoke gate), and
/// `--interval-ms` sets the refresh period (at least 50 ms).
fn watch(f: &Flags) -> Result<ExitCode, UsageError> {
    let addr = f.positional(0);
    let once = f.switch("--once");
    let check = f.switch("--check");
    let interval_ms: u64 = f.get("--interval-ms", flags::any())?.unwrap_or(1000);
    let interval = Duration::from_millis(interval_ms.max(50));
    let mut first = true;
    loop {
        let frame = match watch_frame(addr, check) {
            Ok(frame) => frame,
            Err(msg) => {
                eprintln!("rhb-report: {addr}: {msg}");
                return Ok(ExitCode::FAILURE);
            }
        };
        if once {
            print!("{frame}");
            return Ok(ExitCode::SUCCESS);
        }
        if !first {
            // ANSI clear screen + home for the refreshing dashboard.
            print!("\x1b[2J\x1b[H");
        }
        print!("{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        first = false;
        std::thread::sleep(interval);
    }
}

/// Scrapes /status (and /metrics when checking) and renders one frame.
/// Returns an error string on unreachable endpoint, malformed JSON, or
/// (in check mode) an invalid exposition / missing metric families.
fn watch_frame(addr: &str, check: bool) -> Result<String, String> {
    let (code, body) =
        rhb_obs::http_get(addr, "/status", SCRAPE_TIMEOUT).map_err(|e| e.to_string())?;
    if code != 200 {
        return Err(format!("/status answered HTTP {code}"));
    }
    let status = json::parse(&body).map_err(|e| format!("/status is not JSON: {e}"))?;
    for key in ["phase", "classification", "ledger", "health", "histograms"] {
        if status.get(key).is_none() {
            return Err(format!("/status is missing the '{key}' key"));
        }
    }
    let mut out = render_status(addr, &status);
    match rhb_obs::http_get(addr, "/alerts", SCRAPE_TIMEOUT) {
        Ok((200, body)) => {
            let alerts = json::parse(&body).map_err(|e| format!("/alerts is not JSON: {e}"))?;
            out.push_str(&render_alerts(&alerts));
        }
        Ok((code, _)) if check => return Err(format!("/alerts answered HTTP {code}")),
        Err(e) if check => return Err(format!("/alerts unreachable: {e}")),
        // Outside check mode, tolerate an older endpoint without /alerts.
        _ => {}
    }
    if check {
        let (code, text) =
            rhb_obs::http_get(addr, "/metrics", SCRAPE_TIMEOUT).map_err(|e| e.to_string())?;
        if code != 200 {
            return Err(format!("/metrics answered HTTP {code}"));
        }
        rhb_obs::text::validate(&text).map_err(|e| format!("/metrics exposition invalid: {e}"))?;
        rhb_obs::text::require_families(
            &text,
            &["rhb_core_health_eta_s", "rhb_par_", "rhb_nn_eval_"],
        )?;
        out.push_str("  check: /metrics exposition valid, required families present\n");
    }
    Ok(out)
}

/// Renders the `/alerts` JSON block for the watch dashboard: a one-line
/// totals summary plus the currently-active rules, if any.
fn render_alerts(alerts: &json::JsonValue) -> String {
    let num = |key: &str| {
        alerts
            .get(key)
            .and_then(json::JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    let active = alerts
        .get("active")
        .and_then(json::JsonValue::as_array)
        .map(<[json::JsonValue]>::len)
        .unwrap_or(0);
    let mut out = format!(
        "  alerts: {active} active, {} fired / {} resolved total\n",
        num("fired_total"),
        num("resolved_total")
    );
    if let Some(rules) = alerts.get("rules").and_then(json::JsonValue::as_array) {
        for rule in rules {
            if rule.get("active").and_then(json::JsonValue::as_bool) != Some(true) {
                continue;
            }
            let s = |key: &str| {
                rule.get(key)
                    .and_then(json::JsonValue::as_str)
                    .unwrap_or("?")
                    .to_string()
            };
            out.push_str(&format!(
                "    [{}] {} — {}\n",
                s("severity"),
                s("name"),
                s("condition")
            ));
        }
    }
    out
}

fn render_status(addr: &str, status: &json::JsonValue) -> String {
    let str_of = |key: &str| {
        status
            .get(key)
            .and_then(json::JsonValue::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let f64_of = |v: Option<&json::JsonValue>| v.and_then(json::JsonValue::as_f64);
    let mut out = String::new();
    let uptime = f64_of(status.get("uptime_s")).unwrap_or(0.0);
    let phase = str_of("phase");
    out.push_str(&format!(
        "watching {addr}  up {uptime:.1}s  phase {}  class {}\n",
        if phase.is_empty() { "(idle)" } else { &phase },
        str_of("classification"),
    ));
    if let Some(health) = status.get("health") {
        let gauge = |k: &str| f64_of(health.get(k));
        out.push_str(&format!(
            "  health: eta {}  progress {}  hammer {}  templating {}  stalls {}\n",
            gauge("eta_s").map_or("?".into(), |v| format!("{v:.1}s")),
            gauge("progress").map_or("?".into(), |v| format!("{:.0}%", v * 100.0)),
            gauge("hammer_success_rate").map_or("?".into(), |v| format!("{:.0}%", v * 100.0)),
            gauge("templating_yield").map_or("?".into(), |v| format!("{:.0}%", v * 100.0)),
            f64_of(health.get("stalls")).unwrap_or(0.0),
        ));
    }
    if let Some(ledger) = status.get("ledger").and_then(json::JsonValue::as_object) {
        out.push_str("  ledger:");
        for (key, v) in ledger {
            if let Some(n) = v.as_f64() {
                if n > 0.0 {
                    out.push_str(&format!("  {key} {n}"));
                }
            }
        }
        out.push('\n');
    }
    if let Some(rates) = status.get("rates").and_then(json::JsonValue::as_object) {
        if !rates.is_empty() {
            out.push_str("  rates (events/s):\n");
            for (name, v) in rates {
                if let Some(r) = v.as_f64() {
                    out.push_str(&format!("    {name:<40} {r:>10.1}\n"));
                }
            }
        }
    }
    if let Some(hists) = status.get("histograms").and_then(json::JsonValue::as_array) {
        if !hists.is_empty() {
            out.push_str("  histograms:\n");
            for h in hists {
                let f = |k: &str| f64_of(h.get(k)).unwrap_or(0.0);
                out.push_str(&hist_row(
                    h.get("name")
                        .and_then(json::JsonValue::as_str)
                        .unwrap_or("?"),
                    f("count") as u64,
                    f("mean"),
                    f("p50"),
                    f("p95"),
                    f("p99"),
                    f("max"),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// timeline / postmortem: replay a flight-recorder timeline directory.
// ---------------------------------------------------------------------------

/// Gauges worth a sparkline row whenever the timeline recorded them.
const TIMELINE_GAUGES: &[&str] = &[
    "core/run_class",
    "core/health/progress",
    "core/health/hammer_success_rate",
    "core/health/templating_yield",
    "core/health/eta_s",
    "core/alerts/active",
];

/// How many counter-rate sparklines `timeline` renders (busiest first).
const TIMELINE_COUNTER_ROWS: usize = 8;

/// Sparkline width in cells; longer series are bucketed down to this.
const SPARK_WIDTH: usize = 64;

/// Buckets a series down to at most `width` cells (mean of the finite
/// values per bucket; a bucket with none stays NaN and renders as a gap).
fn downsample(series: &[f64], width: usize) -> Vec<f64> {
    if series.len() <= width {
        return series.to_vec();
    }
    (0..width)
        .map(|b| {
            let start = b * series.len() / width;
            let end = ((b + 1) * series.len() / width).max(start + 1);
            let finite: Vec<f64> = series[start..end]
                .iter()
                .copied()
                .filter(|v| v.is_finite())
                .collect();
            if finite.is_empty() {
                f64::NAN
            } else {
                finite.iter().sum::<f64>() / finite.len() as f64
            }
        })
        .collect()
}

fn load_timeline(dir: &Path) -> Result<Timeline, ExitCode> {
    Timeline::load(dir).map_err(|e| {
        eprintln!("rhb-report: {e}");
        ExitCode::from(2)
    })
}

fn timeline_cmd(dir: &Path) -> ExitCode {
    let t = match load_timeline(dir) {
        Ok(t) => t,
        Err(code) => return code,
    };
    print!("{}", render_timeline(&t));
    ExitCode::SUCCESS
}

fn render_timeline(t: &Timeline) -> String {
    let mut out = String::new();
    let span = t
        .points
        .last()
        .map(|p| p.uptime_s - t.points.first().map(|f| f.uptime_s).unwrap_or(0.0))
        .unwrap_or(0.0);
    out.push_str(&format!(
        "timeline {} — {} snapshots over {span:.1}s, {} alert events, {} segment(s)\n",
        t.run_id,
        t.points.len(),
        t.alerts.len(),
        t.segments
    ));
    if t.skipped_lines > 0 {
        out.push_str(&format!(
            "  (skipped {} unparseable line(s) — truncated or foreign records)\n",
            t.skipped_lines
        ));
    }
    let boundaries = t.phase_boundaries();
    if !boundaries.is_empty() {
        out.push_str("  phases:\n");
        for (i, phase) in &boundaries {
            let label = if phase.is_empty() { "(idle)" } else { phase };
            out.push_str(&format!(
                "    @{i:<4} {:>8.2}s  {label}\n",
                t.points[*i].uptime_s
            ));
        }
    }
    out.push_str("  gauges:\n");
    for name in TIMELINE_GAUGES {
        let series = t.gauge_series(name);
        if series.iter().all(|v| v.is_nan()) {
            continue;
        }
        let last = series.iter().rev().find(|v| v.is_finite()).copied();
        out.push_str(&format!(
            "    {name:<36} {}  last {}\n",
            sparkline(&downsample(&series, SPARK_WIDTH)),
            last.map_or("?".into(), |v| format!("{v:.3}"))
        ));
    }
    let busiest = t.busiest_counters();
    if !busiest.is_empty() {
        out.push_str("  counter rates (events/s):\n");
        for (name, total) in busiest.iter().take(TIMELINE_COUNTER_ROWS) {
            let series = t.counter_rate_series(name);
            let peak = series.iter().copied().fold(0.0_f64, f64::max);
            out.push_str(&format!(
                "    {name:<36} {}  peak {peak:.1}/s  Δ{total}\n",
                sparkline(&downsample(&series, SPARK_WIDTH))
            ));
        }
        if busiest.len() > TIMELINE_COUNTER_ROWS {
            out.push_str(&format!(
                "    ... {} more counters moved\n",
                busiest.len() - TIMELINE_COUNTER_ROWS
            ));
        }
    }
    if !t.alerts.is_empty() {
        out.push_str("  alert markers:\n");
        for a in &t.alerts {
            out.push_str(&format!(
                "    {:>8.2}s @seq {:<4} [{}] {} {} — {}\n",
                a.uptime_s, a.seq, a.severity, a.rule, a.state, a.message
            ));
        }
    }
    out
}

/// Reconstructs the `last` snapshots before the first anomaly and diffs
/// them against a healthy baseline window. With `require_alert`, exit 1
/// unless a fired alert's rule name contains one of its substrings.
fn postmortem_cmd(dir: &Path, last: usize, require_alert: &[String]) -> ExitCode {
    let t = match load_timeline(dir) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let Some(pm) = t.postmortem(last) else {
        eprintln!("rhb-report: {}: timeline holds no snapshots", dir.display());
        return ExitCode::from(2);
    };
    let mut out = format!("postmortem {} ({} snapshots)\n", t.run_id, t.points.len());
    match &pm.anomaly {
        Some(anomaly) => {
            let p = &t.points[anomaly.index];
            out.push_str(&format!(
                "  anomaly @seq {} ({:.2}s, phase {}): {}\n",
                p.seq,
                p.uptime_s,
                if p.phase.is_empty() {
                    "(idle)"
                } else {
                    &p.phase
                },
                anomaly.describe()
            ));
        }
        None => out.push_str("  no anomaly detected — run looks healthy; diffing run tail\n"),
    }
    out.push_str(&format!(
        "  window: snapshots [{}..{}], baseline [{}..{})\n",
        pm.window.0, pm.window.1, pm.baseline.0, pm.baseline.1
    ));
    let (start, end) = pm.window;
    out.push_str("  snapshots into the anomaly:\n");
    for p in &t.points[start..=end] {
        let class = p
            .gauge("core/run_class")
            .map_or("-".into(), |v| format!("{v:.0}"));
        out.push_str(&format!(
            "    @seq {:<4} {:>8.2}s  phase {:<24} class {class}  stallsΔ {}\n",
            p.seq,
            p.uptime_s,
            if p.phase.is_empty() {
                "(idle)"
            } else {
                &p.phase
            },
            p.counter_delta("core/health/stalls"),
        ));
    }
    if pm.baseline.0 < pm.baseline.1 && !pm.diffs.is_empty() {
        out.push_str("  movement vs healthy baseline (largest first):\n");
        for d in pm.diffs.iter().take(10) {
            let change = if d.before.abs() < 1e-9 {
                "(new)".to_string()
            } else if d.after.abs() < 1e-9 {
                "(gone)".to_string()
            } else {
                format!("({:+.0}%)", d.relative_change() * 100.0)
            };
            out.push_str(&format!(
                "    {:<40} {:<12} {:>12.3} -> {:<12.3} {change}\n",
                d.name, d.kind, d.before, d.after
            ));
        }
    }
    let fired = t.fired_alerts();
    if !fired.is_empty() {
        out.push_str("  fired alerts:\n");
        for a in &fired {
            out.push_str(&format!(
                "    {:>8.2}s [{}] {} — {}\n",
                a.uptime_s, a.severity, a.rule, a.message
            ));
        }
    }
    print!("{out}");
    if !require_alert.is_empty() {
        let matched = fired.iter().any(|a| {
            require_alert
                .iter()
                .any(|needle| a.rule.contains(needle.as_str()))
        });
        if !matched {
            eprintln!(
                "rhb-report: no fired alert matched --require-alert {}",
                require_alert.join(",")
            );
            return ExitCode::FAILURE;
        }
        println!("  required alert present ({})", require_alert.join(","));
    }
    ExitCode::SUCCESS
}

// --- serve ------------------------------------------------------------------

/// Renders the victim-serving block of an `exp serve_attack` artifact:
/// trajectory sparklines across observation windows, time-to-activation,
/// and the tail-latency interference the hammering threads caused.
/// `--check` is the CI gate: exit 1 unless the run actually served
/// traffic, the backdoor activated after the flip window opened, and the
/// per-window ASR crossed the experiment's threshold.
fn serve_cmd(path: &Path, check: bool) -> ExitCode {
    let a = match load(path) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let Some(s) = &a.serve else {
        eprintln!(
            "rhb-report: {}: artifact has no serve block (not an exp serve_attack run?)",
            path.display()
        );
        return ExitCode::from(2);
    };
    print!("{}", render_serve(&a.exp, s));
    if !check {
        return ExitCode::SUCCESS;
    }
    let mut failures = Vec::new();
    if s.requests == 0 || s.completed == 0 {
        failures.push(format!(
            "no traffic served (requests {}, completed {})",
            s.requests, s.completed
        ));
    }
    if s.first_activation_us.is_none() {
        failures.push("backdoor never activated (no triggered request hit the target)".into());
    }
    if s.asr_cross_us.is_none() {
        failures.push("windowed ASR never crossed the experiment threshold".into());
    }
    if failures.is_empty() {
        println!("  check: traffic served, backdoor activated, ASR crossed threshold");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("rhb-report: serve check failed: {f}");
        }
        ExitCode::FAILURE
    }
}

fn render_serve(exp: &str, s: &rhb_bench::artifact::ServeSummary) -> String {
    let ms = |us: u64| us as f64 / 1e3;
    let mut out = format!(
        "serve {} — {} requests ({} admitted, {} shed), {} completed\n",
        exp, s.requests, s.admitted, s.shed, s.completed
    );
    out.push_str(&format!(
        "  flip window: {:.1} ms .. {:.1} ms (trajectory windows {:.1} ms wide)\n",
        ms(s.flip_start_us),
        ms(s.flip_end_us),
        ms(s.window_us)
    ));
    out.push_str(&format!(
        "  activation: first triggered hit {}  ASR crossed {}\n",
        s.first_activation_us
            .map_or("never".into(), |us| format!("@{:.1} ms", ms(us))),
        s.asr_cross_us
            .map_or("never".into(), |us| format!("@{:.1} ms", ms(us))),
    ));
    let asr: Vec<f64> = s
        .windows
        .iter()
        .map(|w| w.asr().unwrap_or(f64::NAN))
        .collect();
    let clean: Vec<f64> = s
        .windows
        .iter()
        .map(|w| w.clean_accuracy().unwrap_or(f64::NAN))
        .collect();
    if !s.windows.is_empty() {
        let last = |series: &[f64]| {
            series
                .iter()
                .rev()
                .find(|v| v.is_finite())
                .map_or("?".into(), |v| format!("{:.1}%", v * 100.0))
        };
        out.push_str(&format!(
            "    {:<18} {}  last {}\n",
            "ASR",
            sparkline(&downsample(&asr, SPARK_WIDTH)),
            last(&asr)
        ));
        out.push_str(&format!(
            "    {:<18} {}  last {}\n",
            "clean accuracy",
            sparkline(&downsample(&clean, SPARK_WIDTH)),
            last(&clean)
        ));
    }
    match (s.baseline_p99_s, s.attacked_p99_s) {
        (Some(b), Some(h)) => out.push_str(&format!(
            "  latency p99: {:.3} ms before flips, {:.3} ms under attack ({:+.0}%)\n",
            b * 1e3,
            h * 1e3,
            (h / b.max(1e-12) - 1.0) * 100.0
        )),
        (b, h) => out.push_str(&format!(
            "  latency p99: {} before flips, {} under attack\n",
            b.map_or("?".into(), |v| format!("{:.3} ms", v * 1e3)),
            h.map_or("?".into(), |v| format!("{:.3} ms", v * 1e3)),
        )),
    }
    out
}

// --- campaign ---------------------------------------------------------------

/// Replays a campaign's checkpoint journal and prints the aggregate:
/// classification roll-up, retry and quarantine audit, journal health.
/// The `--require-*` / `--forbid-*` flags make it a blocking gate.
fn campaign_cmd(
    dir: &Path,
    require_complete: bool,
    require_retried: bool,
    forbid_duplicates: bool,
) -> ExitCode {
    let store = match rhb_campaign::CampaignStore::load(dir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("rhb-report: campaign {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    };
    if store.total_runs == 0 && store.state.completed.is_empty() {
        eprintln!(
            "rhb-report: campaign {}: no journal found (is this a campaign directory?)",
            dir.display()
        );
        return ExitCode::from(2);
    }

    let c = &store.counts;
    let mut out = String::new();
    out.push_str(&format!("campaign {} — {}\n", store.name, dir.display()));
    out.push_str(&format!(
        "  grid: {} runs, {} settled ({})\n",
        store.total_runs,
        c.settled(),
        if store.is_complete() {
            "complete"
        } else {
            "INCOMPLETE"
        }
    ));
    out.push_str(&format!(
        "  classes: {:>3} full  {:>3} degraded  {:>3} failed  {:>3} timed_out  {:>3} quarantined\n",
        c.full, c.degraded, c.failed, c.timed_out, c.quarantined
    ));
    out.push_str(&format!(
        "  retries: {} runs needed >1 attempt; {} ms total backoff charged\n",
        store.retried, store.total_backoff_ms
    ));
    if c.completed() > 0 {
        out.push_str(&format!(
            "  results: mean ASR {:.4}, total attack time {} ms\n",
            store.mean_asr, store.total_attack_time_ms
        ));
    }
    out.push_str(&format!(
        "  journal: {} duplicate done lines, {} unparsable lines\n",
        store.duplicate_done, store.skipped_lines
    ));
    if !store.state.quarantined.is_empty() {
        let mut ids: Vec<&String> = store.state.quarantined.iter().collect();
        ids.sort();
        out.push_str("  quarantined runs:\n");
        for id in ids {
            out.push_str(&format!("    {} ({})\n", id, store.retired_class(id)));
        }
    }
    print!("{out}");

    let mut ok = true;
    if require_complete && !store.is_complete() {
        eprintln!(
            "rhb-report: campaign incomplete: {}/{} settled",
            c.settled(),
            store.total_runs
        );
        ok = false;
    }
    if require_retried && store.retried < 1 {
        eprintln!("rhb-report: no retried run recorded (--require-retried)");
        ok = false;
    }
    if forbid_duplicates && store.duplicate_done > 0 {
        eprintln!(
            "rhb-report: {} duplicate done lines (--forbid-duplicates)",
            store.duplicate_done
        );
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
