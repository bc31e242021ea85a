//! Mini-batch training and evaluation loops.

use crate::data::Dataset;
use rhb_nn::init::Rng;
use rhb_nn::layer::Mode;
use rhb_nn::loss::{accuracy, cross_entropy};
use rhb_nn::network::Network;
use rhb_nn::optim::{Sgd, SgdConfig, StepLr};

/// Training hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of passes over the dataset.
    pub epochs: usize,
    /// Samples per mini-batch.
    pub batch_size: usize,
    /// Optimizer settings.
    pub sgd: SgdConfig,
    /// Learning-rate decay schedule.
    pub schedule: Option<StepLr>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 8,
            batch_size: 32,
            sgd: SgdConfig::default(),
            schedule: Some(StepLr {
                base_lr: SgdConfig::default().lr,
                step: 4,
                gamma: 0.3,
            }),
        }
    }
}

/// Progress record for one epoch.
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub mean_loss: f32,
    /// Training accuracy over the epoch.
    pub train_accuracy: f64,
}

/// Drives SGD training of a [`Network`] on a [`Dataset`].
#[derive(Debug)]
pub struct Trainer {
    config: TrainConfig,
    rng: Rng,
}

impl Trainer {
    /// Creates a trainer with a deterministic shuffling seed.
    pub fn new(config: TrainConfig, seed: u64) -> Self {
        Trainer {
            config,
            rng: Rng::seed_from(seed),
        }
    }

    /// Trains the network in place, returning per-epoch statistics.
    pub fn fit(&mut self, net: &mut dyn Network, data: &Dataset) -> Vec<EpochStats> {
        let _fit_span = rhb_telemetry::span!(
            "train",
            epochs = self.config.epochs,
            batch_size = self.config.batch_size,
            samples = data.len(),
        );
        let mut opt = Sgd::new(net, self.config.sgd);
        let mut stats = Vec::with_capacity(self.config.epochs);
        let mut order: Vec<usize> = (0..data.len()).collect();
        for epoch in 0..self.config.epochs {
            let _epoch_span = rhb_telemetry::span!("epoch", index = epoch);
            if let Some(sched) = self.config.schedule {
                opt.set_lr(sched.lr_at(epoch));
            }
            // Fisher–Yates shuffle with the trainer's own stream.
            for i in (1..order.len()).rev() {
                let j = self.rng.below(i + 1);
                order.swap(i, j);
            }
            let mut total_loss = 0.0f32;
            let mut total_correct = 0.0f64;
            let mut batches = 0usize;
            for chunk in order.chunks(self.config.batch_size) {
                let (x, y) = data.batch(chunk);
                net.zero_grad();
                let logits = net.forward(&x, Mode::Train);
                let out = cross_entropy(&logits, &y);
                net.backward(&out.grad_logits);
                opt.step(net);
                total_loss += out.loss;
                total_correct += accuracy(&logits, &y) * chunk.len() as f64;
                batches += 1;
            }
            let s = EpochStats {
                epoch,
                mean_loss: total_loss / batches.max(1) as f32,
                train_accuracy: total_correct / data.len() as f64,
            };
            rhb_telemetry::counter!("models/epochs_trained", 1);
            rhb_telemetry::gauge!("models/train_loss", s.mean_loss);
            rhb_telemetry::gauge!("models/train_accuracy", s.train_accuracy);
            rhb_telemetry::event!(
                "epoch_stats",
                epoch = epoch,
                mean_loss = s.mean_loss,
                train_accuracy = s.train_accuracy,
            );
            stats.push(s);
        }
        stats
    }
}

/// Evaluates classification accuracy on a dataset, batching to bound memory.
///
/// Deployed networks run on the int8 inference engine by default (the
/// arithmetic the victim actually serves); undeployed networks — and
/// every network when `RHB_ENGINE=f32` — use the f32 eval path. Use
/// [`evaluate_mode`] to pin a specific engine.
pub fn evaluate(net: &mut dyn Network, data: &Dataset, batch_size: usize) -> f64 {
    let mode = rhb_nn::network::eval_mode(net);
    evaluate_mode(net, data, batch_size, mode)
}

/// [`evaluate`] with an explicit forward mode (inference engine).
pub fn evaluate_mode(net: &mut dyn Network, data: &Dataset, batch_size: usize, mode: Mode) -> f64 {
    let _span = rhb_telemetry::span!("evaluate", samples = data.len());
    let mut correct = 0.0f64;
    let idx: Vec<usize> = (0..data.len()).collect();
    for chunk in idx.chunks(batch_size.max(1)) {
        let (x, y) = data.batch(chunk);
        let logits = net.forward(&x, mode);
        correct += accuracy(&logits, &y) * chunk.len() as f64;
    }
    correct / data.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SynthCifar;
    use crate::resnet::ResNetConfig;

    #[test]
    fn training_improves_over_chance() {
        let gen = SynthCifar {
            side: 8,
            noise: 0.15,
            overlap: 0.0,
        };
        let mut data = gen.generate(160, 42);
        let test = data.split_off(40);
        let mut rng = Rng::seed_from(0);
        let mut net = ResNetConfig::resnet20(4, 10).build(&mut rng);
        let mut trainer = Trainer::new(
            TrainConfig {
                epochs: 4,
                batch_size: 16,
                sgd: SgdConfig {
                    lr: 0.05,
                    momentum: 0.9,
                    weight_decay: 1e-4,
                },
                schedule: None,
            },
            7,
        );
        let stats = trainer.fit(&mut net, &data);
        assert!(stats.last().unwrap().mean_loss < stats[0].mean_loss);
        let acc = evaluate(&mut net, &test, 20);
        assert!(acc > 0.3, "test accuracy {acc} barely above 10% chance");
    }

    #[test]
    fn evaluate_handles_partial_batches() {
        let gen = SynthCifar {
            side: 8,
            noise: 0.2,
            overlap: 0.0,
        };
        let data = gen.generate(13, 3);
        let mut rng = Rng::seed_from(1);
        let mut net = ResNetConfig::resnet20(4, 10).build(&mut rng);
        let acc = evaluate(&mut net, &data, 5);
        assert!((0.0..=1.0).contains(&acc));
    }
}
