//! Stochastic gradient descent with momentum, weight decay, and masked
//! updates.
//!
//! The masked update is the heart of Algorithm 1, Step 3: only the weights
//! selected by `Group_Sort_Select` receive gradient steps; every other
//! coordinate of Δθ stays zero.

use crate::network::Network;
use crate::tensor::Tensor;

/// SGD hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct SgdConfig {
    /// Learning rate η.
    pub lr: f32,
    /// Momentum coefficient (0 disables).
    pub momentum: f32,
    /// L2 weight decay (0 disables).
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
        }
    }
}

/// SGD optimizer state (one velocity buffer per parameter).
#[derive(Debug)]
pub struct Sgd {
    config: SgdConfig,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an optimizer for the given network.
    pub fn new(net: &dyn Network, config: SgdConfig) -> Self {
        let velocity = net
            .params()
            .iter()
            .map(|p| Tensor::zeros(p.value.shape().dims()))
            .collect();
        Sgd { config, velocity }
    }

    /// The current configuration.
    pub fn config(&self) -> SgdConfig {
        self.config
    }

    /// Changes the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.config.lr = lr;
    }

    /// Applies one SGD step from accumulated gradients.
    ///
    /// # Panics
    ///
    /// Panics if the network's parameter list changed since construction.
    pub fn step(&mut self, net: &mut dyn Network) {
        let mut params = net.params_mut();
        assert_eq!(params.len(), self.velocity.len(), "parameter list changed");
        for (p, v) in params.iter_mut().zip(&mut self.velocity) {
            for i in 0..p.value.numel() {
                let mut g = p.grad.data()[i] + self.config.weight_decay * p.value.data()[i];
                if self.config.momentum > 0.0 {
                    let vel = self.config.momentum * v.data()[i] + g;
                    v.data_mut()[i] = vel;
                    g = vel;
                }
                p.value.data_mut()[i] -= self.config.lr * g;
            }
        }
    }

    /// Applies a *masked* step: only flat parameter indices present in
    /// `mask` (a sorted global index set over the concatenated parameter
    /// vector) are updated. No momentum or weight decay is applied — this is
    /// the plain masked gradient rule of Equation (6).
    ///
    /// # Panics
    ///
    /// Panics if any mask index is out of range.
    pub fn step_masked(&mut self, net: &mut dyn Network, mask: &[usize]) {
        let lr = self.config.lr;
        let mut params = net.params_mut();
        let mut cursor = 0usize; // index into mask
        let mut base = 0usize; // flat offset of current parameter
        for p in params.iter_mut() {
            let len = p.value.numel();
            while cursor < mask.len() && mask[cursor] < base + len {
                let local = mask[cursor] - base;
                let g = p.grad.data()[local];
                p.value.data_mut()[local] -= lr * g;
                cursor += 1;
            }
            base += len;
        }
        assert!(
            cursor == mask.len(),
            "mask index {} out of range for {} total weights",
            mask.get(cursor).copied().unwrap_or(0),
            base
        );
    }
}

/// Step-decay learning-rate schedule: `lr * gamma^(epoch / step)`.
#[derive(Debug, Clone, Copy)]
pub struct StepLr {
    /// Initial learning rate.
    pub base_lr: f32,
    /// Epochs between decays.
    pub step: usize,
    /// Multiplicative decay factor.
    pub gamma: f32,
}

impl StepLr {
    /// Learning rate for the given epoch.
    pub fn lr_at(&self, epoch: usize) -> f32 {
        self.base_lr * self.gamma.powi((epoch / self.step.max(1)) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Rng;
    use crate::layer::{Mode, Sequential};
    use crate::linear::Linear;
    use crate::loss::cross_entropy;
    use crate::network::SequentialNet;

    fn tiny() -> SequentialNet {
        let mut rng = Rng::seed_from(17);
        let mut seq = Sequential::new();
        seq.push(Box::new(Linear::new(2, 2, true, &mut rng)));
        SequentialNet::new(seq, "tiny")
    }

    #[test]
    fn sgd_reduces_loss_on_separable_data() {
        let mut net = tiny();
        let mut opt = Sgd::new(
            &net,
            SgdConfig {
                lr: 0.5,
                momentum: 0.9,
                weight_decay: 0.0,
            },
        );
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let targets = [0usize, 1];
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..50 {
            net.zero_grad();
            let logits = net.forward(&x, Mode::Train);
            let out = cross_entropy(&logits, &targets);
            net.backward(&out.grad_logits);
            opt.step(&mut net);
            first.get_or_insert(out.loss);
            last = out.loss;
        }
        assert!(last < first.unwrap() * 0.1, "loss {last} did not shrink");
    }

    #[test]
    fn masked_step_only_touches_selected_indices() {
        let mut net = tiny();
        let mut opt = Sgd::new(
            &net,
            SgdConfig {
                lr: 1.0,
                momentum: 0.0,
                weight_decay: 0.0,
            },
        );
        // Fill gradients with ones so any unmasked update would be visible.
        for p in net.params_mut() {
            for g in p.grad.data_mut() {
                *g = 1.0;
            }
        }
        let before: Vec<f32> = net
            .params()
            .iter()
            .flat_map(|p| p.value.data().to_vec())
            .collect();
        // weight is 4 values (indices 0..4), bias 2 values (indices 4..6).
        opt.step_masked(&mut net, &[1, 4]);
        let after: Vec<f32> = net
            .params()
            .iter()
            .flat_map(|p| p.value.data().to_vec())
            .collect();
        for i in 0..before.len() {
            if i == 1 || i == 4 {
                assert!(
                    (after[i] - (before[i] - 1.0)).abs() < 1e-6,
                    "index {i} not stepped"
                );
            } else {
                assert_eq!(after[i], before[i], "index {i} must be untouched");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn masked_step_rejects_out_of_range_index() {
        let mut net = tiny();
        let mut opt = Sgd::new(&net, SgdConfig::default());
        opt.step_masked(&mut net, &[1000]);
    }

    #[test]
    fn step_lr_decays_by_gamma() {
        let sched = StepLr {
            base_lr: 0.1,
            step: 10,
            gamma: 0.5,
        };
        assert_eq!(sched.lr_at(0), 0.1);
        assert_eq!(sched.lr_at(10), 0.05);
        assert_eq!(sched.lr_at(25), 0.025);
    }
}
