//! Env-driven telemetry harness shared by the `exp` and `rhb-report`
//! commands.
//!
//! * `RHB_TELEMETRY=progress|jsonl|trace|off` — sink selection (default
//!   `progress`: human-readable span/message stream on stderr, so the
//!   stdout artifact tables stay clean; `trace` emits Chrome trace-event
//!   JSON loadable in Perfetto / `chrome://tracing`);
//! * `RHB_TRACE=<path>` — output path for `RHB_TELEMETRY=jsonl` (default
//!   `rhb_trace.jsonl`) and `RHB_TELEMETRY=trace` (default
//!   `rhb_trace.json`);
//! * `RHB_TELEMETRY_REPORT=0` — suppress the end-of-run
//!   [`rhb_telemetry::TelemetryReport`] table on stderr;
//! * `RHB_OBS_ADDR=<host:port>` — serve the live observability endpoint
//!   (`/metrics` Prometheus text, `/status` and `/alerts` JSON) for the
//!   duration of the run, sampling every `RHB_OBS_INTERVAL_MS` (default
//!   1000). The plane needs metric aggregation, so setting it alongside
//!   `RHB_TELEMETRY=off` enables collection with the no-op sink: no
//!   event stream, registry only;
//! * `RHB_OBS_RECORD=<run-id>` — persist every sampler snapshot (and
//!   fired alerts) to the `results/timelines/<run-id>/` flight-recorder
//!   timeline, capped at `RHB_OBS_TIMELINE_CAP` lines (default 4096);
//!   works with or without `RHB_OBS_ADDR`;
//! * `RHB_ALERT_RULES` — extra alert rules on top of the built-ins, in
//!   the `rhb_alert::parse_rules` DSL.
//!
//! Commands call [`init`] first and hand its mode to [`finish`] last:
//!
//! ```no_run
//! let mode = rhb_bench::telemetry::init();
//! // ... run the experiment ...
//! rhb_bench::telemetry::finish(mode);
//! ```

use std::sync::Arc;

/// Which sink [`init`] installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryMode {
    /// Telemetry disabled (`RHB_TELEMETRY=off`).
    Off,
    /// Human-readable progress on stderr.
    Progress,
    /// JSONL event stream to the `RHB_TRACE` path.
    Jsonl,
    /// Chrome trace-event JSON (Perfetto / `chrome://tracing`) to the
    /// `RHB_TRACE` path.
    Trace,
}

/// Installs the sink selected by `RHB_TELEMETRY` into the global registry
/// and returns which mode is active. A missing or empty variable means
/// `progress`; an unrecognized value warns on stderr (listing the valid
/// modes) and also falls back to `progress`. A file sink that cannot open
/// its path falls back to `progress` with a warning rather than killing
/// the experiment.
pub fn init() -> TelemetryMode {
    let mode = std::env::var("RHB_TELEMETRY").unwrap_or_default();
    let installed = match mode.as_str() {
        "off" | "0" | "none" => TelemetryMode::Off,
        "jsonl" => {
            let path = std::env::var("RHB_TRACE").unwrap_or_else(|_| "rhb_trace.jsonl".into());
            match rhb_telemetry::JsonlSink::to_file(std::path::Path::new(&path)) {
                Ok(sink) => {
                    rhb_telemetry::install(Arc::new(sink));
                    TelemetryMode::Jsonl
                }
                Err(e) => {
                    eprintln!("RHB_TRACE {path}: {e}; falling back to progress telemetry");
                    rhb_telemetry::install(Arc::new(rhb_telemetry::ProgressSink::default()));
                    TelemetryMode::Progress
                }
            }
        }
        "trace" => {
            let path = std::env::var("RHB_TRACE").unwrap_or_else(|_| "rhb_trace.json".into());
            match rhb_telemetry::TraceSink::to_file(std::path::Path::new(&path)) {
                Ok(sink) => {
                    rhb_telemetry::install(Arc::new(sink));
                    TelemetryMode::Trace
                }
                Err(e) => {
                    eprintln!("RHB_TRACE {path}: {e}; falling back to progress telemetry");
                    rhb_telemetry::install(Arc::new(rhb_telemetry::ProgressSink::default()));
                    TelemetryMode::Progress
                }
            }
        }
        "" | "progress" => {
            rhb_telemetry::install(Arc::new(rhb_telemetry::ProgressSink::default()));
            TelemetryMode::Progress
        }
        unknown => {
            eprintln!(
                "RHB_TELEMETRY={unknown}: unknown mode, valid modes are \
                 progress|jsonl|trace|off; using progress"
            );
            rhb_telemetry::install(Arc::new(rhb_telemetry::ProgressSink::default()));
            TelemetryMode::Progress
        }
    };
    install_panic_hook();
    start_obs(installed);
    installed
}

/// Installs (once per process) a panic hook that flushes the telemetry
/// sink and the flight recorder before unwinding, so a crashing run
/// still leaves a timeline ending at the moment of death. The hook
/// chains the previous hook (the default backtrace printer, or a test
/// harness's), uses `try_lock` throughout, and is cheap on caught
/// panics — campaign fault domains fire it on every sabotage/chaos
/// panic they contain.
fn install_panic_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Ok(guard) = OBS.try_lock() {
                if let Some(plane) = guard.as_ref() {
                    plane.flush_crash_snapshot(&info.to_string());
                }
            }
            rhb_telemetry::flush();
            previous(info);
        }));
    });
}

/// The live observability plane for the current run, if enabled.
static OBS: std::sync::Mutex<Option<rhb_obs::ObsPlane>> = std::sync::Mutex::new(None);

/// Starts the observability plane if requested: the `RHB_OBS_ADDR`
/// HTTP endpoint and/or the `RHB_OBS_RECORD` flight recorder (timeline
/// under `results/timelines/<run-id>/`, capped by
/// `RHB_OBS_TIMELINE_CAP`), with alert rules from `RHB_ALERT_RULES` on
/// top of the built-ins. The plane reads the metric registry, so with
/// `RHB_TELEMETRY=off` collection is enabled with the no-op sink
/// (aggregation only, no event stream).
fn start_obs(installed: TelemetryMode) {
    match rhb_obs::ObsPlane::from_env() {
        Ok(Some(plane)) => {
            if installed == TelemetryMode::Off {
                rhb_telemetry::install(Arc::new(rhb_telemetry::NoopSink));
            }
            if let Some(addr) = plane.server_addr() {
                eprintln!(
                    "observability endpoint serving http://{addr}/ (/metrics, /status, /alerts)"
                );
            }
            if let Some(dir) = plane.timeline_dir() {
                eprintln!("flight recorder writing timeline to {}", dir.display());
            }
            *OBS.lock().unwrap_or_else(|e| e.into_inner()) = Some(plane);
        }
        Ok(None) => {}
        Err(e) => eprintln!("observability plane: {e}; continuing without it"),
    }
}

/// Flushes the sink, prints the end-of-run telemetry report to stderr
/// (unless `mode` is off or `RHB_TELEMETRY_REPORT=0`), and disables
/// collection. `mode` is what
/// [`init`] returned: a run may install a no-op sink of its own to fill
/// an artifact, and that must not make `RHB_TELEMETRY=off` print.
pub fn finish(mode: TelemetryMode) {
    // Stop the plane before tearing telemetry down: shutdown joins the
    // listener and sampler threads (recording one final end-of-run
    // snapshot), so no scrape can observe a half-reset registry.
    if let Some(plane) = OBS.lock().unwrap_or_else(|e| e.into_inner()).take() {
        plane.shutdown();
    }
    if !rhb_telemetry::enabled() {
        return;
    }
    let report_env = std::env::var("RHB_TELEMETRY_REPORT").ok();
    if prints_report(mode, report_env.as_deref()) {
        let report = rhb_telemetry::report();
        if !report.is_empty() {
            eprint!("{}", report.render());
        }
    }
    rhb_telemetry::shutdown();
}

/// Whether [`finish`] prints the end-of-run report: never in off mode,
/// and not when `RHB_TELEMETRY_REPORT` is `0` or `off`.
fn prints_report(mode: TelemetryMode, report_env: Option<&str>) -> bool {
    mode != TelemetryMode::Off && !matches!(report_env, Some("0") | Some("off"))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var driven behavior is covered indirectly; here we only check
    // the harness round-trips against the global registry without a sink
    // (finish on a disabled registry must be a no-op).
    #[test]
    fn finish_without_init_is_a_noop() {
        finish(TelemetryMode::Off);
        assert!(!rhb_telemetry::enabled());
    }

    #[test]
    fn off_mode_never_prints_the_report() {
        for env in [None, Some("1"), Some("0")] {
            assert!(!prints_report(TelemetryMode::Off, env));
        }
        for mode in [
            TelemetryMode::Progress,
            TelemetryMode::Jsonl,
            TelemetryMode::Trace,
        ] {
            assert!(prints_report(mode, None));
            assert!(prints_report(mode, Some("1")));
            assert!(!prints_report(mode, Some("0")));
            assert!(!prints_report(mode, Some("off")));
        }
    }
}
