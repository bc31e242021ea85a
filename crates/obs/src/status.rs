//! The `/status` endpoint: a JSON view of the attack run so far —
//! current phase (live span path), run classification, flip-ledger
//! summary, health-model gauges, and percentile digests of every
//! histogram. `rhb-report watch` renders its terminal view from this
//! document alone, so it carries everything a human dashboard needs.

use rhb_telemetry::json::write_json_string;
use rhb_telemetry::MetricsSnapshot;
use std::fmt::Write as _;

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no Inf/NaN; status consumers treat null as "unknown".
        "null".into()
    }
}

/// Maps the `core/run_class` gauge (the rank set by the pipeline:
/// 2 = full, 1 = degraded, 0 = failed) back onto its name. Absent gauge
/// means the online phase has not classified yet.
fn classification(snap: &MetricsSnapshot) -> &'static str {
    match snap.gauge("core/run_class").map(|v| v as i64) {
        Some(2) => "full",
        Some(1) => "degraded",
        Some(0) => "failed",
        _ => "unknown",
    }
}

/// Renders the status document for one snapshot.
pub fn render(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("{\n");
    let _ = writeln!(out, "  \"uptime_s\": {},", num(snap.uptime.as_secs_f64()));
    let _ = writeln!(out, "  \"seq\": {},", snap.seq);
    let _ = writeln!(
        out,
        "  \"interval_ms\": {},",
        snap.interval
            .map(|d| num(d.as_secs_f64() * 1e3))
            .unwrap_or_else(|| "null".into())
    );
    out.push_str("  \"phase\": ");
    write_json_string(&snap.current_span, &mut out);
    out.push_str(",\n");
    let _ = writeln!(out, "  \"classification\": \"{}\",", classification(snap));

    // Flip-ledger summary: the provenance counters the online phase
    // maintains, all defaulting to 0 before that phase starts.
    out.push_str("  \"ledger\": {\n");
    let ledger = [
        ("records", "core/online/ledger_records"),
        ("targets_requested", "core/online/targets_requested"),
        ("realized_flips", "core/online/realized_flips"),
        ("targets_matched", "dram/targets_matched"),
        ("targets_unmatched", "dram/targets_unmatched"),
        ("bait_frames_used", "dram/bait_frames_used"),
        ("frames_hammered", "dram/frames_hammered"),
        ("bits_flipped", "dram/bits_flipped"),
        ("retries", "dram/recovery/retries"),
        ("fallbacks", "dram/recovery/fallbacks"),
        ("retemplate_rounds", "dram/recovery/retemplate_rounds"),
    ];
    for (i, (key, counter)) in ledger.iter().enumerate() {
        let comma = if i + 1 == ledger.len() { "" } else { "," };
        let _ = writeln!(out, "    \"{key}\": {}{comma}", snap.counter_total(counter));
    }
    out.push_str("  },\n");

    // Attack health model (absent gauges render as null = not yet known).
    out.push_str("  \"health\": {\n");
    let health_gauges = [
        ("eta_s", "core/health/eta_s"),
        ("progress", "core/health/progress"),
        ("hammer_success_rate", "core/health/hammer_success_rate"),
        ("templating_yield", "core/health/templating_yield"),
    ];
    for (key, gauge) in health_gauges {
        let _ = writeln!(
            out,
            "    \"{key}\": {},",
            snap.gauge(gauge).map(num).unwrap_or_else(|| "null".into())
        );
    }
    let _ = writeln!(
        out,
        "    \"stalls\": {}",
        snap.counter_total("core/health/stalls")
    );
    out.push_str("  },\n");

    // Counter rates (events/s over the sampling window) for the busiest
    // live counters — what a dashboard graphs.
    out.push_str("  \"rates\": {\n");
    let moving: Vec<_> = snap.counters.iter().filter(|c| c.delta > 0).collect();
    for (i, c) in moving.iter().enumerate() {
        let comma = if i + 1 == moving.len() { "" } else { "," };
        out.push_str("    ");
        write_json_string(&c.name, &mut out);
        let _ = writeln!(out, ": {}{comma}", num(c.rate));
    }
    out.push_str("  },\n");

    // Percentile digests of every histogram, so `watch` needs no second
    // endpoint for latency tables.
    out.push_str("  \"histograms\": [\n");
    for (i, h) in snap.histograms.iter().enumerate() {
        let s = h.summary();
        let comma = if i + 1 == snap.histograms.len() {
            ""
        } else {
            ","
        };
        out.push_str("    {\"name\": ");
        write_json_string(&h.name, &mut out);
        let _ = writeln!(
            out,
            ", \"count\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}, \"rate\": {}}}{comma}",
            s.count,
            num(s.mean),
            num(s.p50),
            num(s.p95),
            num(s.p99),
            num(s.max),
            num(h.rate),
        );
    }
    out.push_str("  ],\n");

    // Span aggregates (path, completions, total seconds).
    out.push_str("  \"spans\": [\n");
    for (i, s) in snap.spans.iter().enumerate() {
        let comma = if i + 1 == snap.spans.len() { "" } else { "," };
        out.push_str("    {\"path\": ");
        write_json_string(&s.path, &mut out);
        let _ = writeln!(
            out,
            ", \"count\": {}, \"total_s\": {}}}{comma}",
            s.count,
            num(s.total.as_secs_f64()),
        );
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhb_telemetry::{NoopSink, Telemetry};
    use std::sync::Arc;

    #[test]
    fn status_reports_phase_ledger_and_classification() {
        let tel = Telemetry::new();
        tel.install(Arc::new(NoopSink));
        tel.add_counter("dram/bits_flipped", 9);
        tel.add_counter("core/online/ledger_records", 4);
        tel.gauge("core/run_class", 1.0);
        tel.gauge("core/health/eta_s", 88.0);
        let _g = tel.start_span("pipeline", &[]);
        let _h = tel.start_span("hammering", &[]);
        let json = render(&tel.snapshot());
        assert!(json.contains("\"phase\": \"pipeline/hammering\""));
        assert!(json.contains("\"classification\": \"degraded\""));
        assert!(json.contains("\"bits_flipped\": 9"));
        assert!(json.contains("\"records\": 4"));
        assert!(json.contains("\"eta_s\": 88"));
    }

    #[test]
    fn idle_registry_reports_unknown_classification_and_zero_ledger() {
        let tel = Telemetry::new();
        let json = render(&tel.snapshot());
        assert!(json.contains("\"classification\": \"unknown\""));
        assert!(json.contains("\"bits_flipped\": 0"));
        assert!(json.contains("\"eta_s\": null"));
        assert!(json.contains("\"phase\": \"\""));
    }

    #[test]
    fn strings_are_json_escaped() {
        let tel = Telemetry::new();
        tel.install(Arc::new(NoopSink));
        let _span = tel.start_span("a\"b\\c\nd", &[]);
        let json = render(&tel.snapshot());
        assert!(json.contains("\"phase\": \"a\\\"b\\\\c\\nd\",\n"), "{json}");
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(1.5), "1.5");
    }
}
