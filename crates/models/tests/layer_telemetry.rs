//! Exact per-layer telemetry of the zoo's graphs: in each inference
//! engine, one forward records one `nn/eval/*` sample per leaf-layer
//! call, none for a container (`Sequential` or `Residual`), and one
//! `nn/forward_passes` count.
//!
//! The telemetry registry is process-wide, so these counts live in a test
//! binary of their own: no unrelated test adds samples beside them.

use rhb_models::zoo::{build, Architecture, ZooConfig};
use rhb_nn::init::Rng;
use rhb_nn::layer::Mode;
use rhb_nn::tensor::Tensor;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Serializes the tests here: each one resets the registry.
static LOCK: Mutex<()> = Mutex::new(());

/// Samples per `nn/eval/*` histogram, and the `nn/forward_passes` total,
/// recorded by one forward of a deployed tiny `arch` in `mode`.
fn one_forward(arch: Architecture, mode: Mode) -> (BTreeMap<String, u64>, u64) {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = ZooConfig::tiny();
    let mut net = build(arch, &cfg, &mut Rng::seed_from(3));
    net.deploy().expect("deploy test network");
    let x = Tensor::full(&[2, 3, cfg.side, cfg.side], 0.5);
    rhb_telemetry::reset();
    rhb_telemetry::install(Arc::new(rhb_telemetry::NoopSink));
    net.forward(&x, mode);
    let report = rhb_telemetry::report();
    rhb_telemetry::shutdown();
    rhb_telemetry::reset();
    let samples = report
        .histograms
        .iter()
        .filter(|h| h.name.starts_with("nn/eval/"))
        .map(|h| (h.name.clone(), h.count))
        .collect();
    let passes = report
        .counters
        .iter()
        .find(|(name, _)| name == "nn/forward_passes")
        .map_or(0, |(_, total)| *total);
    (samples, passes)
}

fn assert_one_forward_records(arch: Architecture, calls_per_op: &[(&str, u64)]) {
    for (mode, engine) in [(Mode::Eval, "f32"), (Mode::Int8, "i8")] {
        let (samples, passes) = one_forward(arch, mode);
        let expected: BTreeMap<String, u64> = calls_per_op
            .iter()
            .map(|&(op, calls)| (format!("nn/eval/{op}_{engine}_s"), calls))
            .collect();
        assert_eq!(samples, expected, "{} {mode:?} samples", arch.name());
        assert_eq!(passes, 1, "{} {mode:?} forward passes", arch.name());
    }
}

#[test]
fn resnet20_forward_records_each_layer_call_once() {
    // Stem conv/bn/relu; 9 blocks of conv/bn/relu/conv/bn plus the ReLU
    // after the sum; 2 projection conv/bn pairs; pool; classifier.
    assert_one_forward_records(
        Architecture::ResNet20,
        &[
            ("conv2d", 21),
            ("batch_norm2d", 21),
            ("relu", 19),
            ("global_avg_pool", 1),
            ("linear", 1),
        ],
    );
}

#[test]
fn vgg11_forward_records_each_layer_call_once() {
    // 8 conv/bn/relu stages and 5 max-pools, then pool and classifier.
    assert_one_forward_records(
        Architecture::Vgg11,
        &[
            ("conv2d", 8),
            ("batch_norm2d", 8),
            ("relu", 8),
            ("max_pool2d", 5),
            ("global_avg_pool", 1),
            ("linear", 1),
        ],
    );
}
