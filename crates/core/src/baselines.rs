//! Baseline backdoor-injection methods the paper compares against:
//! BadNet-style unconstrained fine-tuning, last-layer fine-tuning (FT),
//! and TBT-style targeted bit trojaning — plus the parameter-restoration
//! sweep of Appendix D (Table IV).
//!
//! None of these respects the paper's hardware constraints: their bit
//! flips cluster inside a few memory pages (often a single last-layer
//! page), which is why their online-phase `r_match` and ASR collapse.

use crate::objective::Objective;
use crate::trigger::Trigger;
use rhb_models::data::Dataset;
use rhb_nn::network::Network;
use rhb_nn::optim::{Sgd, SgdConfig};
use rhb_nn::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Shared baseline hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BaselineConfig {
    /// Target label ỹ.
    pub target_label: usize,
    /// Trade-off α (same meaning as Eq. 3).
    pub alpha: f32,
    /// Learning rate.
    pub eta: f32,
    /// Fine-tuning iterations.
    pub iterations: usize,
    /// Attacker batch size.
    pub batch_size: usize,
    /// FGSM step for methods that optimize the trigger (TBT).
    pub epsilon: f32,
}

impl BaselineConfig {
    /// Defaults mirroring the CFT experiments.
    pub fn new(target_label: usize) -> Self {
        BaselineConfig {
            target_label,
            alpha: 0.5,
            eta: 0.04,
            iterations: 120,
            batch_size: 64,
            epsilon: 0.001,
        }
    }
}

/// Which parameters a baseline may modify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// All parameters (BadNet).
    All,
    /// Only the final linear layer's parameters (FT).
    LastLayer,
    /// Only the top-`k` last-layer weights by initial gradient (TBT).
    TopKLastLayer(usize),
}

/// Runs BadNet: unconstrained fine-tuning of *every* parameter on the
/// joint objective with a fixed (non-optimized) trigger patch.
pub fn badnet(
    net: &mut dyn Network,
    data: &Dataset,
    config: &BaselineConfig,
    trigger: Trigger,
) -> Trigger {
    fine_tune(net, data, config, trigger, Scope::All, false)
}

/// Runs FT: fine-tuning restricted to the last layer, fixed trigger.
pub fn ft_last_layer(
    net: &mut dyn Network,
    data: &Dataset,
    config: &BaselineConfig,
    trigger: Trigger,
) -> Trigger {
    fine_tune(net, data, config, trigger, Scope::LastLayer, false)
}

/// Runs TBT: trigger optimization plus fine-tuning of a limited number of
/// last-layer weights (the ones most responsive to the target class).
pub fn tbt(
    net: &mut dyn Network,
    data: &Dataset,
    config: &BaselineConfig,
    trigger: Trigger,
    weights_budget: usize,
) -> Trigger {
    fine_tune(
        net,
        data,
        config,
        trigger,
        Scope::TopKLastLayer(weights_budget),
        true,
    )
}

fn fine_tune(
    net: &mut dyn Network,
    data: &Dataset,
    config: &BaselineConfig,
    mut trigger: Trigger,
    scope: Scope,
    update_trigger: bool,
) -> Trigger {
    assert!(net.is_deployed(), "baselines attack deployed models");
    let objective = Objective {
        alpha: config.alpha,
        target_label: config.target_label,
    };
    let indices: Vec<usize> = (0..config.batch_size.min(data.len())).collect();
    let (batch, labels) = data.batch(&indices);
    let mut opt = Sgd::new(
        net,
        SgdConfig {
            lr: config.eta,
            momentum: 0.0,
            weight_decay: 0.0,
        },
    );

    // Resolve the scope to a flat index mask once, from the initial
    // gradients (TBT picks its weights from the target-class gradient).
    net.zero_grad();
    objective.evaluate(net, &batch, &labels, &trigger);
    let mask = scope_mask(net, scope);

    for _ in 0..config.iterations {
        if update_trigger {
            let grad_input = objective.trigger_gradient(net, &batch, &trigger);
            trigger.fgsm_step(&grad_input, config.epsilon);
        }
        net.zero_grad();
        objective.evaluate(net, &batch, &labels, &trigger);
        match &mask {
            Some(m) => opt.step_masked(net, m),
            None => opt.step(net),
        }
    }
    // Snap the float masters onto the deployable quantization grid once at
    // the end: the forward pass fake-quantizes throughout, so this is the
    // model the victim actually serves (and whose bytes diff into flips).
    for p in net.params_mut() {
        let scheme = p.scheme.expect("deployed parameter");
        p.value.map_inplace(|v| scheme.fake(v));
    }
    trigger
}

/// Builds the flat-index mask for a scope (`None` = all parameters).
fn scope_mask(net: &dyn Network, scope: Scope) -> Option<Vec<usize>> {
    match scope {
        Scope::All => None,
        Scope::LastLayer => {
            let (start, total) = last_layer_span(net);
            Some((start..total).collect())
        }
        Scope::TopKLastLayer(k) => {
            let (start, total) = last_layer_span(net);
            // Rank last-layer indices by current gradient magnitude.
            let mut flat: Vec<(usize, f32)> = Vec::with_capacity(total - start);
            let mut base = 0usize;
            for p in net.params() {
                for (i, &g) in p.grad.data().iter().enumerate() {
                    let idx = base + i;
                    if idx >= start {
                        flat.push((idx, g.abs()));
                    }
                }
                base += p.numel();
            }
            // `total_cmp` gives a total order even when a backward pass
            // produced NaN gradients (exploding activations do happen in
            // attacker fine-tuning); NaNs sort last and never panic.
            flat.sort_by(|a, b| b.1.total_cmp(&a.1));
            let mut mask: Vec<usize> = flat.into_iter().take(k).map(|(i, _)| i).collect();
            mask.sort_unstable();
            Some(mask)
        }
    }
}

/// `(first_flat_index, total_weights)` of the last two parameters (the
/// classifier weight and bias).
fn last_layer_span(net: &dyn Network) -> (usize, usize) {
    let sizes: Vec<usize> = net.params().iter().map(|p| p.numel()).collect();
    let total: usize = sizes.iter().sum();
    let last_two: usize = sizes.iter().rev().take(2).sum();
    (total - last_two, total)
}

/// Appendix D / Table IV: restore the `fraction` of modified parameters
/// with the *smallest* gradient magnitudes back to their original values,
/// keeping the rest modified. Returns how many weights remain modified.
///
/// # Panics
///
/// Panics if the snapshot does not match the network.
pub fn restore_parameters(
    net: &mut dyn Network,
    original: &[Tensor],
    gradients: &[Tensor],
    restore_fraction: f64,
) -> usize {
    let mut params = net.params_mut();
    assert_eq!(params.len(), original.len(), "snapshot mismatch");
    // Collect all modified coordinates with their gradient magnitudes.
    let mut modified: Vec<(usize, usize, f32)> = Vec::new();
    for (pi, (p, orig)) in params.iter().zip(original).enumerate() {
        for (i, (&v, &o)) in p.value.data().iter().zip(orig.data()).enumerate() {
            if v != o {
                modified.push((pi, i, gradients[pi].data()[i].abs()));
            }
        }
    }
    let restore_count = (modified.len() as f64 * restore_fraction).round() as usize;
    // NaN gradient magnitudes sort *largest* under `total_cmp`, so a
    // weight with an unusable gradient is restored last — and the sweep
    // no longer panics on non-finite gradients.
    modified.sort_by(|a, b| a.2.total_cmp(&b.2));
    for &(pi, i, _) in modified.iter().take(restore_count) {
        params[pi].value.data_mut()[i] = original[pi].value_at(i);
    }
    modified.len() - restore_count
}

/// Small helper so `restore_parameters` can read snapshot values.
trait ValueAt {
    fn value_at(&self, i: usize) -> f32;
}

impl ValueAt for Tensor {
    fn value_at(&self, i: usize) -> f32 {
        self.data()[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{attack_success_rate, n_flip};
    use crate::trigger::TriggerMask;
    use rhb_models::zoo::{pretrained, Architecture, ZooConfig};
    use rhb_nn::weightfile::WeightFile;

    fn model_and_trigger(seed: u64) -> (rhb_models::zoo::PretrainedModel, Trigger, BaselineConfig) {
        let model = pretrained(Architecture::ResNet20, &ZooConfig::tiny(), seed);
        let trigger = Trigger::black_square(TriggerMask::paper_default(3, model.test_data.side()));
        (model, trigger, BaselineConfig::new(2))
    }

    #[test]
    fn badnet_modifies_many_weights_and_injects_backdoor() {
        let (mut model, trigger, config) = model_and_trigger(31);
        let base = WeightFile::from_network(model.net.as_ref());
        let trigger = badnet(model.net.as_mut(), &model.test_data, &config, trigger);
        let flips = n_flip(&base, &WeightFile::from_network(model.net.as_ref())).unwrap();
        assert!(flips > 100, "BadNet flipped only {flips} bits");
        let asr = attack_success_rate(model.net.as_mut(), &model.test_data, &trigger, 2);
        assert!(asr > 0.5, "BadNet offline ASR {asr}");
    }

    #[test]
    fn ft_touches_only_last_layer() {
        let (mut model, trigger, config) = model_and_trigger(32);
        let before: Vec<Tensor> = model.net.params().iter().map(|p| p.value.clone()).collect();
        ft_last_layer(model.net.as_mut(), &model.test_data, &config, trigger);
        let after: Vec<Tensor> = model.net.params().iter().map(|p| p.value.clone()).collect();
        let n = before.len();
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            let changed = b != a;
            if i < n - 2 {
                assert!(!changed, "parameter {i} outside last layer changed");
            }
        }
        // The classifier weight itself must have moved.
        assert_ne!(before[n - 2], after[n - 2]);
    }

    #[test]
    fn tbt_respects_weight_budget() {
        let (mut model, trigger, config) = model_and_trigger(33);
        let before: Vec<Tensor> = model.net.params().iter().map(|p| p.value.clone()).collect();
        tbt(model.net.as_mut(), &model.test_data, &config, trigger, 8);
        let after: Vec<Tensor> = model.net.params().iter().map(|p| p.value.clone()).collect();
        let changed: usize = before
            .iter()
            .zip(&after)
            .map(|(b, a)| {
                b.data()
                    .iter()
                    .zip(a.data())
                    .filter(|(x, y)| x != y)
                    .count()
            })
            .sum();
        assert!(changed <= 8, "TBT changed {changed} weights, budget 8");
        assert!(changed > 0, "TBT changed nothing");
    }

    #[test]
    fn baseline_flips_cluster_in_few_pages() {
        let (mut model, trigger, config) = model_and_trigger(34);
        let base = WeightFile::from_network(model.net.as_ref());
        ft_last_layer(model.net.as_mut(), &model.test_data, &config, trigger);
        let targets = base.diff(&WeightFile::from_network(model.net.as_ref()));
        let mut pages: Vec<usize> = targets.iter().map(|t| t.location.page).collect();
        pages.sort_unstable();
        pages.dedup();
        // FT only touches the last layer, which spans very few pages.
        assert!(
            pages.len() <= 2,
            "FT flips spread over {} pages",
            pages.len()
        );
    }

    /// Regression: `scope_mask` used `partial_cmp(..).expect("finite
    /// gradients")` and panicked when a backward pass produced NaN
    /// gradients. `total_cmp` must rank them without panicking.
    #[test]
    fn tbt_scope_mask_tolerates_nan_gradients() {
        let (mut model, _trigger, _config) = model_and_trigger(36);
        for p in model.net.params_mut() {
            p.grad.data_mut().fill(f32::NAN);
        }
        let mask = scope_mask(model.net.as_ref(), Scope::TopKLastLayer(8))
            .expect("TopKLastLayer always yields a mask");
        assert_eq!(mask.len(), 8);
        let (start, total) = last_layer_span(model.net.as_ref());
        for &i in &mask {
            assert!((start..total).contains(&i), "index {i} outside last layer");
        }
    }

    /// Regression: `restore_parameters` panicked on NaN gradient
    /// magnitudes. NaNs now sort largest (restored last) and the sweep
    /// completes.
    #[test]
    fn restore_parameters_tolerates_nan_gradients() {
        let (mut model, _trigger, _config) = model_and_trigger(37);
        let original: Vec<Tensor> = model.net.params().iter().map(|p| p.value.clone()).collect();
        // Perturb one weight per parameter, then hand the sweep
        // all-NaN gradients.
        let n_params = {
            let mut params = model.net.params_mut();
            for p in params.iter_mut() {
                p.value.data_mut()[0] += 1.0;
            }
            params.len()
        };
        let gradients: Vec<Tensor> = original
            .iter()
            .map(|o| {
                let mut g = o.clone();
                g.data_mut().fill(f32::NAN);
                g
            })
            .collect();
        let remaining = restore_parameters(model.net.as_mut(), &original, &gradients, 0.5);
        let expected_restored = (n_params as f64 * 0.5).round() as usize;
        assert_eq!(remaining, n_params - expected_restored);
    }

    #[test]
    fn restore_parameters_shrinks_modified_set() {
        let (mut model, trigger, config) = model_and_trigger(35);
        let original: Vec<Tensor> = model.net.params().iter().map(|p| p.value.clone()).collect();
        badnet(model.net.as_mut(), &model.test_data, &config, trigger);
        let gradients: Vec<Tensor> = model.net.params().iter().map(|p| p.grad.clone()).collect();
        let full: usize = model
            .net
            .params()
            .iter()
            .zip(&original)
            .map(|(p, o)| {
                p.value
                    .data()
                    .iter()
                    .zip(o.data())
                    .filter(|(a, b)| a != b)
                    .count()
            })
            .sum();
        let remaining = restore_parameters(model.net.as_mut(), &original, &gradients, 0.5);
        assert!(remaining <= full / 2 + 1, "{remaining} > half of {full}");
        let now: usize = model
            .net
            .params()
            .iter()
            .zip(&original)
            .map(|(p, o)| {
                p.value
                    .data()
                    .iter()
                    .zip(o.data())
                    .filter(|(a, b)| a != b)
                    .count()
            })
            .sum();
        assert_eq!(now, remaining);
    }
}
