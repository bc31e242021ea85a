//! Exact network-pass counts of one CFT+BR run: each step of Algorithm 1
//! runs only the passes whose results it reads.
//!
//! Per iteration the FGSM trigger step runs one triggered `Frozen` forward
//! and one input-only backward, and the weight step runs a clean and a
//! triggered forward/backward: full backwards on the iterations that
//! re-select the mask (the first of each bit-reduction period), masked
//! backwards on the iterations that hold it. Each bit-reduction
//! checkpoint (one per period plus one after the final reduction) runs
//! two `Eval` forwards and no backward. The alternate harvest runs one
//! more full evaluation.
//!
//! The telemetry registry is process-wide, so the counts live in a test
//! binary of their own: no unrelated test adds passes beside them.

use rhb_core::cft::{run, CftConfig};
use rhb_core::trigger::{Trigger, TriggerMask};
use rhb_models::zoo::{pretrained, Architecture, ZooConfig};
use std::sync::Arc;

fn counter(report: &rhb_telemetry::TelemetryReport, name: &str) -> u64 {
    report
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, total)| *total)
}

#[test]
fn cft_br_runs_only_the_passes_it_reads() {
    let mut model = pretrained(Architecture::ResNet20, &ZooConfig::tiny(), 41);
    // The attack benchmark's configuration.
    let config = CftConfig {
        iterations: 150,
        bit_reduction_period: 25,
        eta: 0.5,
        epsilon: 0.005,
        ..CftConfig::cft_br(5, 2)
    };
    let mask = TriggerMask::paper_default(3, model.test_data.side());
    rhb_telemetry::reset();
    rhb_telemetry::install(Arc::new(rhb_telemetry::NoopSink));
    run(
        model.net.as_mut(),
        &model.test_data,
        &config,
        Trigger::black_square(mask),
    );
    let report = rhb_telemetry::report();
    rhb_telemetry::shutdown();
    rhb_telemetry::reset();

    // 150 x 3 per iteration + 7 checkpoints x 2 + 2 for the harvest.
    assert_eq!(counter(&report, "nn/forward_passes"), 466);
    // 6 re-selecting iterations x 2 + 2 for the harvest.
    assert_eq!(counter(&report, "nn/backward_passes"), 14);
    // 144 held-mask iterations x 2.
    assert_eq!(counter(&report, "nn/backward_masked_passes"), 288);
    // One per trigger step.
    assert_eq!(counter(&report, "nn/backward_input_passes"), 150);
}
