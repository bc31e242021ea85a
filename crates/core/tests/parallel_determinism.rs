//! The attack must be deterministic at every thread count.
//! `Group_Sort_Select` (and its top-2 variant) chunk the gradient sweep
//! across the global pool and merge per-chunk winners in chunk order,
//! which must reproduce the serial index-order scan exactly. A whole CFT
//! run adds the batch-split conv backwards, full and input-only.

use rhb_core::cft::{run, AlternateTarget, CftConfig};
use rhb_core::groupsel::{group_sort_select, group_sort_select_top2, GroupPlan, WEIGHTS_PER_PAGE};
use rhb_core::trigger::{Trigger, TriggerMask};
use rhb_models::zoo::{pretrained, Architecture, ZooConfig};
use rhb_nn::weightfile::WeightFile;
use std::sync::Mutex;

static GLOBAL_POOL_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn group_selection_is_identical_across_thread_counts() {
    let _guard = GLOBAL_POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut model = pretrained(Architecture::ResNet20, &ZooConfig::tiny(), 13);
    // Synthetic gradient with plenty of exact ties and zeros, the cases
    // where merge order could diverge from the serial scan.
    let mut k = 0u64;
    for p in model.net.params_mut() {
        for g in p.grad.data_mut() {
            *g = match k % 7 {
                0 => 0.0,
                1 | 2 => 0.5, // repeated magnitude: ties across indices
                n => (n as f32 * 0.31).sin(),
            };
            k += 1;
        }
    }
    let n = model.net.num_params();
    let n_flip = n.div_ceil(WEIGHTS_PER_PAGE).min(6);
    let plan = GroupPlan::new(n, n_flip);

    rhb_par::set_global_threads(1);
    let mask_serial = group_sort_select(model.net.as_ref(), &plan);
    let picks_serial = group_sort_select_top2(model.net.as_ref(), &plan);
    assert!(!mask_serial.is_empty());

    for threads in [2, 3, 5, 8] {
        rhb_par::set_global_threads(threads);
        let mask = group_sort_select(model.net.as_ref(), &plan);
        let picks = group_sort_select_top2(model.net.as_ref(), &plan);
        assert_eq!(mask, mask_serial, "mask diverged at {threads} threads");
        assert_eq!(picks, picks_serial, "picks diverged at {threads} threads");
    }
    rhb_par::set_global_threads(rhb_par::default_threads());
}

/// Everything a CFT+BR run hands the online phase, as comparable bits.
struct CftOutput {
    weights: Vec<u8>,
    trigger: Vec<u32>,
    losses: Vec<(usize, u32, bool)>,
    alternates: Vec<AlternateTarget>,
}

fn short_cft_run(threads: usize) -> CftOutput {
    rhb_par::set_global_threads(threads);
    let mut model = pretrained(Architecture::ResNet20, &ZooConfig::tiny(), 41);
    let config = CftConfig {
        iterations: 30,
        bit_reduction_period: 10,
        eta: 0.5,
        epsilon: 0.005,
        ..CftConfig::cft_br(5, 2)
    };
    let mask = TriggerMask::paper_default(3, model.test_data.side());
    let result = run(
        model.net.as_mut(),
        &model.test_data,
        &config,
        Trigger::black_square(mask),
    );
    let pattern = result.trigger.pattern().data();
    CftOutput {
        weights: WeightFile::from_network(model.net.as_ref())
            .bytes()
            .to_vec(),
        trigger: pattern.iter().map(|v| v.to_bits()).collect(),
        losses: result
            .loss_history
            .iter()
            .map(|p| (p.iteration, p.loss.to_bits(), p.bit_reduced))
            .collect(),
        alternates: result.alternates,
    }
}

#[test]
fn cft_run_is_identical_across_thread_counts() {
    let _guard = GLOBAL_POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let serial = short_cft_run(1);
    let pooled = short_cft_run(4);
    rhb_par::set_global_threads(rhb_par::default_threads());
    assert!(serial.weights == pooled.weights, "weight file diverged");
    assert_eq!(serial.trigger, pooled.trigger, "trigger diverged");
    assert_eq!(serial.losses, pooled.losses, "loss history diverged");
    assert_eq!(serial.alternates, pooled.alternates, "alternates diverged");
    let reductions = serial.losses.iter().filter(|p| p.2).count();
    assert_eq!(reductions, 3, "one bit reduction per period");
}
