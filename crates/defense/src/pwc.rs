//! Piecewise Weight Clustering (paper §VI-A).
//!
//! PWC relaxes binarization: an extra penalty term in the training loss
//! pulls each weight toward one of two per-tensor cluster centers `±c`.
//! Clustered weight distributions leave less slack for a stealthy
//! backdoor — the paper observes a strengthened trade-off: at matched
//! `N_flip`, either ASR drops hard (43 % at TA 90 %) or TA collapses
//! (ASR 98 % at TA 10 %).

use rhb_models::data::Dataset;
use rhb_models::train::evaluate;
use rhb_nn::init::Rng;
use rhb_nn::layer::Mode;
use rhb_nn::loss::cross_entropy;
use rhb_nn::network::Network;
use rhb_nn::optim::{Sgd, SgdConfig};

/// PWC training hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct PwcConfig {
    /// Penalty weight λ on the clustering term.
    pub lambda: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Optimizer settings.
    pub sgd: SgdConfig,
}

impl Default for PwcConfig {
    fn default() -> Self {
        PwcConfig {
            lambda: 1e-3,
            epochs: 6,
            batch_size: 32,
            sgd: SgdConfig {
                lr: 0.08,
                momentum: 0.9,
                weight_decay: 0.0,
            },
        }
    }
}

/// Trains a network with the PWC penalty
/// `λ·Σ (w − c·sign(w))²` added to the loss, where `c` is each tensor's
/// mean absolute weight (re-estimated every step). Returns the final
/// training accuracy.
pub fn train_with_pwc(net: &mut dyn Network, data: &Dataset, config: &PwcConfig, seed: u64) -> f64 {
    let mut rng = Rng::seed_from(seed);
    let mut opt = Sgd::new(net, config.sgd);
    let mut order: Vec<usize> = (0..data.len()).collect();
    for _ in 0..config.epochs {
        for i in (1..order.len()).rev() {
            let j = rng.below(i + 1);
            order.swap(i, j);
        }
        for chunk in order.chunks(config.batch_size) {
            let (x, y) = data.batch(chunk);
            net.zero_grad();
            let logits = net.forward(&x, Mode::Train);
            let out = cross_entropy(&logits, &y);
            net.backward(&out.grad_logits);
            // Clustering penalty gradient: 2λ(w − c·sign(w)).
            for p in net.params_mut() {
                let c = p.value.data().iter().map(|v| v.abs()).sum::<f32>()
                    / p.value.numel().max(1) as f32;
                for (g, &w) in p.grad.data_mut().iter_mut().zip(p.value.data()) {
                    *g += 2.0 * config.lambda * (w - c * w.signum());
                }
            }
            opt.step(net);
        }
    }
    evaluate(net, data, 64)
}

/// How strongly a network's weights form two clusters: the mean squared
/// distance of each weight to its nearest cluster center `±c`, normalized
/// by the weight variance. Lower is more clustered.
pub fn clustering_score(net: &dyn Network) -> f64 {
    let mut dist = 0.0f64;
    let mut var = 0.0f64;
    let mut n = 0usize;
    for p in net.params() {
        if p.value.numel() < 8 {
            continue; // skip scalar-ish tensors (biases, batch-norm)
        }
        let c = p.value.data().iter().map(|v| v.abs()).sum::<f32>() / p.value.numel() as f32;
        let mean = p.value.data().iter().sum::<f32>() / p.value.numel() as f32;
        for &w in p.value.data() {
            dist += f64::from((w - c * w.signum()).powi(2));
            var += f64::from((w - mean).powi(2));
            n += 1;
        }
    }
    if var == 0.0 || n == 0 {
        return 0.0;
    }
    dist / var
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhb_models::zoo::{build, dataset_for, Architecture, ZooConfig};

    #[test]
    fn pwc_training_clusters_weights() {
        let cfg = ZooConfig::tiny();
        let (train, _) = dataset_for(Architecture::ResNet20, &cfg, 9);
        let mut rng = Rng::seed_from(9);
        let mut plain = build(Architecture::ResNet20, &cfg, &mut rng);
        let mut clustered = build(Architecture::ResNet20, &cfg, &mut rng);
        let pwc_off = PwcConfig {
            lambda: 0.0,
            epochs: 3,
            ..PwcConfig::default()
        };
        let pwc_on = PwcConfig {
            lambda: 5e-2,
            epochs: 3,
            ..PwcConfig::default()
        };
        train_with_pwc(plain.as_mut(), &train, &pwc_off, 1);
        train_with_pwc(clustered.as_mut(), &train, &pwc_on, 1);
        let score_plain = clustering_score(plain.as_ref());
        let score_clustered = clustering_score(clustered.as_ref());
        assert!(
            score_clustered < score_plain,
            "PWC did not cluster: {score_clustered} !< {score_plain}"
        );
    }

    #[test]
    fn pwc_model_still_learns() {
        let cfg = ZooConfig::tiny();
        let (train, _) = dataset_for(Architecture::ResNet20, &cfg, 10);
        let mut rng = Rng::seed_from(10);
        let mut net = build(Architecture::ResNet20, &cfg, &mut rng);
        let acc = train_with_pwc(
            net.as_mut(),
            &train,
            &PwcConfig {
                epochs: 4,
                ..PwcConfig::default()
            },
            2,
        );
        assert!(acc > 0.3, "PWC training accuracy {acc} near chance");
    }

    #[test]
    fn clustering_score_of_two_point_distribution_is_zero() {
        use rhb_nn::param::Parameter;
        use rhb_nn::tensor::Tensor;
        struct TwoPoint(Parameter);
        impl Network for TwoPoint {
            fn forward(&mut self, x: &Tensor, _: Mode) -> Tensor {
                x.clone()
            }
            fn backward(&mut self, g: &Tensor) -> Tensor {
                g.clone()
            }
            fn backward_input(&mut self, g: &Tensor) -> Tensor {
                g.clone()
            }
            fn backward_masked(&mut self, _: &Tensor, _: &[usize]) {}
            fn params(&self) -> Vec<&Parameter> {
                vec![&self.0]
            }
            fn params_mut(&mut self) -> Vec<&mut Parameter> {
                vec![&mut self.0]
            }
            fn describe(&self) -> String {
                "two-point".into()
            }
        }
        let values = vec![0.5f32, -0.5, 0.5, -0.5, 0.5, -0.5, 0.5, -0.5];
        let net = TwoPoint(Parameter::new("w", Tensor::from_vec(values, &[8])));
        assert!(clustering_score(&net) < 1e-12);
    }
}
