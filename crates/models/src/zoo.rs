//! Deterministic "pretrained" model zoo.
//!
//! The paper downloads fixed checkpoints from public repositories
//! (akamaster's CIFAR ResNets, torchvision's ImageNet models). This
//! reproduction has no network access, so the zoo *trains* each victim
//! deterministically from a fixed seed — same architecture, same data, same
//! shuffling — and then deploys (8-bit-quantizes) it. Every call with the
//! same arguments yields bit-identical weight files, which is the property
//! experiments actually need from a checkpoint.

use crate::data::{Dataset, SynthCifar, SynthImageNet};
use crate::resnet::ResNetConfig;
use crate::train::{evaluate, evaluate_mode, TrainConfig, Trainer};
use crate::vgg::VggConfig;
use rhb_nn::init::Rng;
use rhb_nn::network::{Engine, Network};
use rhb_nn::optim::{SgdConfig, StepLr};

/// The victim architectures evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// ResNet-20 on CIFAR-style data (Table II row group 1).
    ResNet20,
    /// ResNet-32 on CIFAR-style data (Table II row group 2).
    ResNet32,
    /// ResNet-18 on CIFAR-style data (Table II row group 3).
    ResNet18,
    /// ResNet-34 on ImageNet-style data (Table II row group 4).
    ResNet34,
    /// ResNet-50 on ImageNet-style data (Table II row group 5).
    ResNet50,
    /// VGG-11 on CIFAR-style data (Table III).
    Vgg11,
    /// VGG-16 on CIFAR-style data (Table III).
    Vgg16,
}

impl Architecture {
    /// All architectures in Table II order, then Table III.
    pub const ALL: [Architecture; 7] = [
        Architecture::ResNet20,
        Architecture::ResNet32,
        Architecture::ResNet18,
        Architecture::ResNet34,
        Architecture::ResNet50,
        Architecture::Vgg11,
        Architecture::Vgg16,
    ];

    /// Paper-style display name.
    pub fn name(&self) -> &'static str {
        match self {
            Architecture::ResNet20 => "ResNet20",
            Architecture::ResNet32 => "ResNet32",
            Architecture::ResNet18 => "ResNet18",
            Architecture::ResNet34 => "ResNet34",
            Architecture::ResNet50 => "ResNet50",
            Architecture::Vgg11 => "VGG11",
            Architecture::Vgg16 => "VGG16",
        }
    }

    /// Parses a display name, case-insensitively and ignoring `-`/`_`
    /// separators (`resnet-20`, `ResNet20`, and `RESNET_20` all
    /// resolve), so campaign grids can name victims loosely. `None` for
    /// unknown architectures.
    pub fn from_name(name: &str) -> Option<Architecture> {
        let canon: String = name
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .map(|c| c.to_ascii_lowercase())
            .collect();
        Architecture::ALL
            .iter()
            .copied()
            .find(|a| a.name().to_ascii_lowercase() == canon)
    }

    /// Whether the paper evaluates this victim on ImageNet-scale data.
    pub fn is_imagenet(&self) -> bool {
        matches!(self, Architecture::ResNet34 | Architecture::ResNet50)
    }
}

/// Zoo knobs controlling the CPU budget of a pretrained victim.
#[derive(Debug, Clone, Copy)]
pub struct ZooConfig {
    /// Base width for ResNet/VGG construction.
    pub width: usize,
    /// Image side length.
    pub side: usize,
    /// Training samples to generate.
    pub train_samples: usize,
    /// Held-out test samples.
    pub test_samples: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Per-pixel dataset noise; higher values lower the victim's base
    /// accuracy toward the realistic 85-95% regime the paper's victims
    /// occupy (a saturated 100%-accuracy model has degenerate logit
    /// margins that no small-bit-budget attack can move).
    pub noise: f32,
    /// Class-template overlap (see [`SynthCifar::overlap`]); the second
    /// knob holding base accuracy below saturation.
    pub overlap: f32,
}

impl ZooConfig {
    /// Small, fast configuration for unit tests.
    pub fn tiny() -> Self {
        ZooConfig {
            width: 4,
            side: 8,
            train_samples: 256,
            test_samples: 64,
            epochs: 6,
            noise: 0.25,
            overlap: 0.6,
        }
    }

    /// Default configuration used by the experiment binaries.
    pub fn standard() -> Self {
        ZooConfig {
            width: 8,
            side: 16,
            train_samples: 640,
            test_samples: 160,
            epochs: 8,
            noise: 0.3,
            overlap: 0.62,
        }
    }
}

impl Default for ZooConfig {
    fn default() -> Self {
        ZooConfig::standard()
    }
}

/// A trained, deployed (quantized) victim plus its data splits.
pub struct PretrainedModel {
    /// The deployed network.
    pub net: Box<dyn Network>,
    /// Architecture tag.
    pub arch: Architecture,
    /// Training split (the attacker does *not* get this; kept for defenses
    /// that retrain, e.g. piecewise weight clustering).
    pub train_data: Dataset,
    /// Held-out test split (the attacker's "small percentage of unseen test
    /// data" from the threat model).
    pub test_data: Dataset,
    /// Base test accuracy after deployment (the paper's "Acc" row label).
    pub base_accuracy: f64,
}

impl PretrainedModel {
    /// Test accuracy under an explicit inference engine. Deployed zoo
    /// victims expose both: the fake-quant f32 reference and the true
    /// int8 serving path, which agree on argmax over the eval set (the
    /// parity contract in `DESIGN.md`).
    pub fn accuracy_with(&mut self, engine: Engine) -> f64 {
        evaluate_mode(self.net.as_mut(), &self.test_data, 64, engine.mode())
    }
}

impl std::fmt::Debug for PretrainedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PretrainedModel({}, acc={:.2}%)",
            self.arch.name(),
            self.base_accuracy * 100.0
        )
    }
}

/// Builds the architecture without training (random initialization).
pub fn build(arch: Architecture, cfg: &ZooConfig, rng: &mut Rng) -> Box<dyn Network> {
    let classes = if arch.is_imagenet() {
        SynthImageNet::default().classes
    } else {
        10
    };
    let w = cfg.width;
    Box::new(match arch {
        Architecture::ResNet20 => ResNetConfig::resnet20(w, classes).build(rng),
        Architecture::ResNet32 => ResNetConfig::resnet32(w, classes).build(rng),
        Architecture::ResNet18 => ResNetConfig::resnet18(w, classes).build(rng),
        Architecture::ResNet34 => ResNetConfig::resnet34(w, classes).build(rng),
        Architecture::ResNet50 => ResNetConfig::resnet50(w, classes).build(rng),
        Architecture::Vgg11 => VggConfig::vgg11(w, classes).build(rng),
        Architecture::Vgg16 => VggConfig::vgg16(w, classes).build(rng),
    })
}

/// Generates the data splits an architecture trains on.
pub fn dataset_for(arch: Architecture, cfg: &ZooConfig, seed: u64) -> (Dataset, Dataset) {
    let total = cfg.train_samples + cfg.test_samples;
    let mut data = if arch.is_imagenet() {
        SynthImageNet {
            side: cfg.side,
            noise: cfg.noise,
            overlap: cfg.overlap,
            ..SynthImageNet::default()
        }
        .generate(total, seed)
    } else {
        SynthCifar {
            side: cfg.side,
            noise: cfg.noise,
            overlap: cfg.overlap,
        }
        .generate(total, seed)
    };
    let test = data.split_off(cfg.test_samples);
    (data, test)
}

/// Deterministically trains, deploys, and evaluates a victim model.
///
/// Calling twice with the same arguments produces bit-identical quantized
/// weights — the reproduction's equivalent of downloading a checkpoint.
///
/// # Panics
///
/// Panics if deployment (quantization) fails, which cannot happen for a
/// trained network with finite weights.
pub fn pretrained(arch: Architecture, cfg: &ZooConfig, seed: u64) -> PretrainedModel {
    let (train_data, test_data) = dataset_for(arch, cfg, seed.wrapping_mul(0x9e37_79b9));
    let mut rng = Rng::seed_from(seed);
    let mut net = build(arch, cfg, &mut rng);
    let sgd = SgdConfig {
        lr: 0.08,
        momentum: 0.9,
        weight_decay: 1e-4,
    };
    let mut trainer = Trainer::new(
        TrainConfig {
            epochs: cfg.epochs,
            batch_size: 32,
            sgd,
            schedule: Some(StepLr {
                base_lr: sgd.lr,
                step: cfg.epochs.div_ceil(2).max(1),
                gamma: 0.3,
            }),
        },
        seed ^ 0xabcd,
    );
    trainer.fit(net.as_mut(), &train_data);
    net.deploy().expect("trained weights are finite");
    let base_accuracy = evaluate(net.as_mut(), &test_data, 64);
    PretrainedModel {
        net,
        arch,
        train_data,
        test_data,
        base_accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhb_nn::layer::Mode;
    use rhb_nn::loss::cross_entropy;
    use rhb_nn::tensor::Tensor;
    use rhb_nn::weightfile::WeightFile;

    #[test]
    fn pretrained_is_deterministic() {
        let cfg = ZooConfig::tiny();
        let a = pretrained(Architecture::ResNet20, &cfg, 5);
        let b = pretrained(Architecture::ResNet20, &cfg, 5);
        let wa = WeightFile::from_network(a.net.as_ref());
        let wb = WeightFile::from_network(b.net.as_ref());
        assert_eq!(wa.hamming_distance(&wb).unwrap(), 0);
        assert_eq!(a.base_accuracy, b.base_accuracy);
    }

    #[test]
    fn pretrained_beats_chance() {
        let model = pretrained(Architecture::ResNet20, &ZooConfig::tiny(), 5);
        assert!(
            model.base_accuracy > 0.3,
            "accuracy {} too close to 10% chance",
            model.base_accuracy
        );
    }

    #[test]
    fn different_seeds_give_different_weights() {
        let cfg = ZooConfig::tiny();
        let a = pretrained(Architecture::ResNet20, &cfg, 1);
        let b = pretrained(Architecture::ResNet20, &cfg, 2);
        let wa = WeightFile::from_network(a.net.as_ref());
        let wb = WeightFile::from_network(b.net.as_ref());
        assert!(wa.hamming_distance(&wb).unwrap() > 0);
    }

    /// The zoo-eval-set half of the accuracy contract: the int8 engine
    /// classifies every test sample identically to the fake-quant f32
    /// reference on a deployed victim.
    #[test]
    fn engines_agree_on_argmax_over_the_eval_set() {
        use rhb_nn::layer::Mode;
        let mut model = pretrained(Architecture::ResNet20, &ZooConfig::tiny(), 5);
        let idx: Vec<usize> = (0..model.test_data.len()).collect();
        for chunk in idx.chunks(16) {
            let (x, _) = model.test_data.batch(chunk);
            let f32_logits = model.net.forward(&x, Mode::Eval);
            let i8_logits = model.net.forward(&x, Mode::Int8);
            let classes = f32_logits.shape().dim(1);
            for (b, &sample) in chunk.iter().enumerate() {
                let argmax = |t: &rhb_nn::Tensor| {
                    let row = &t.data()[b * classes..(b + 1) * classes];
                    row.iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1))
                        .map(|(i, _)| i)
                        .unwrap()
                };
                assert_eq!(
                    argmax(&f32_logits),
                    argmax(&i8_logits),
                    "engines disagree on test sample {sample}"
                );
            }
        }
        // Accuracy under either engine therefore matches exactly.
        assert_eq!(
            model.accuracy_with(Engine::FakeQuantF32),
            model.accuracy_with(Engine::Int8)
        );
    }

    #[test]
    fn imagenet_archs_use_imagenet_data() {
        let cfg = ZooConfig::tiny();
        let (train, _) = dataset_for(Architecture::ResNet34, &cfg, 3);
        assert_eq!(train.classes(), SynthImageNet::default().classes);
        let (train, _) = dataset_for(Architecture::ResNet20, &cfg, 3);
        assert_eq!(train.classes(), 10);
    }

    #[test]
    fn all_architectures_build() {
        let cfg = ZooConfig::tiny();
        let mut rng = Rng::seed_from(0);
        for arch in Architecture::ALL {
            let net = build(arch, &cfg, &mut rng);
            assert!(net.num_params() > 0, "{} has no params", arch.name());
        }
    }

    /// The parameter order is the weight-file layout: it decides which
    /// weights share a 4 KB page, and so Algorithm 1's page groups.
    /// Pinned name by name and shape by shape, including ResNet-20's two
    /// projection blocks (main path first, then the 1×1 projection).
    #[test]
    fn weight_file_layout_is_pinned() {
        const RESNET20: [(&str, &[usize]); 65] = [
            ("conv3x4k3.weight", &[4, 3, 3, 3]),
            ("bn4.gamma", &[4]),
            ("bn4.beta", &[4]),
            ("conv4x4k3.weight", &[4, 4, 3, 3]),
            ("bn4.gamma", &[4]),
            ("bn4.beta", &[4]),
            ("conv4x4k3.weight", &[4, 4, 3, 3]),
            ("bn4.gamma", &[4]),
            ("bn4.beta", &[4]),
            ("conv4x4k3.weight", &[4, 4, 3, 3]),
            ("bn4.gamma", &[4]),
            ("bn4.beta", &[4]),
            ("conv4x4k3.weight", &[4, 4, 3, 3]),
            ("bn4.gamma", &[4]),
            ("bn4.beta", &[4]),
            ("conv4x4k3.weight", &[4, 4, 3, 3]),
            ("bn4.gamma", &[4]),
            ("bn4.beta", &[4]),
            ("conv4x4k3.weight", &[4, 4, 3, 3]),
            ("bn4.gamma", &[4]),
            ("bn4.beta", &[4]),
            ("conv4x8k3.weight", &[8, 4, 3, 3]),
            ("bn8.gamma", &[8]),
            ("bn8.beta", &[8]),
            ("conv8x8k3.weight", &[8, 8, 3, 3]),
            ("bn8.gamma", &[8]),
            ("bn8.beta", &[8]),
            ("conv4x8k1.weight", &[8, 4, 1, 1]),
            ("bn8.gamma", &[8]),
            ("bn8.beta", &[8]),
            ("conv8x8k3.weight", &[8, 8, 3, 3]),
            ("bn8.gamma", &[8]),
            ("bn8.beta", &[8]),
            ("conv8x8k3.weight", &[8, 8, 3, 3]),
            ("bn8.gamma", &[8]),
            ("bn8.beta", &[8]),
            ("conv8x8k3.weight", &[8, 8, 3, 3]),
            ("bn8.gamma", &[8]),
            ("bn8.beta", &[8]),
            ("conv8x8k3.weight", &[8, 8, 3, 3]),
            ("bn8.gamma", &[8]),
            ("bn8.beta", &[8]),
            ("conv8x16k3.weight", &[16, 8, 3, 3]),
            ("bn16.gamma", &[16]),
            ("bn16.beta", &[16]),
            ("conv16x16k3.weight", &[16, 16, 3, 3]),
            ("bn16.gamma", &[16]),
            ("bn16.beta", &[16]),
            ("conv8x16k1.weight", &[16, 8, 1, 1]),
            ("bn16.gamma", &[16]),
            ("bn16.beta", &[16]),
            ("conv16x16k3.weight", &[16, 16, 3, 3]),
            ("bn16.gamma", &[16]),
            ("bn16.beta", &[16]),
            ("conv16x16k3.weight", &[16, 16, 3, 3]),
            ("bn16.gamma", &[16]),
            ("bn16.beta", &[16]),
            ("conv16x16k3.weight", &[16, 16, 3, 3]),
            ("bn16.gamma", &[16]),
            ("bn16.beta", &[16]),
            ("conv16x16k3.weight", &[16, 16, 3, 3]),
            ("bn16.gamma", &[16]),
            ("bn16.beta", &[16]),
            ("linear16x10.weight", &[10, 16]),
            ("linear16x10.bias", &[10]),
        ];
        const VGG11: [(&str, &[usize]); 26] = [
            ("conv3x4k3.weight", &[4, 3, 3, 3]),
            ("bn4.gamma", &[4]),
            ("bn4.beta", &[4]),
            ("conv4x8k3.weight", &[8, 4, 3, 3]),
            ("bn8.gamma", &[8]),
            ("bn8.beta", &[8]),
            ("conv8x16k3.weight", &[16, 8, 3, 3]),
            ("bn16.gamma", &[16]),
            ("bn16.beta", &[16]),
            ("conv16x16k3.weight", &[16, 16, 3, 3]),
            ("bn16.gamma", &[16]),
            ("bn16.beta", &[16]),
            ("conv16x32k3.weight", &[32, 16, 3, 3]),
            ("bn32.gamma", &[32]),
            ("bn32.beta", &[32]),
            ("conv32x32k3.weight", &[32, 32, 3, 3]),
            ("bn32.gamma", &[32]),
            ("bn32.beta", &[32]),
            ("conv32x32k3.weight", &[32, 32, 3, 3]),
            ("bn32.gamma", &[32]),
            ("bn32.beta", &[32]),
            ("conv32x32k3.weight", &[32, 32, 3, 3]),
            ("bn32.gamma", &[32]),
            ("bn32.beta", &[32]),
            ("linear32x10.weight", &[10, 32]),
            ("linear32x10.bias", &[10]),
        ];
        let cfg = ZooConfig::tiny();
        for (arch, expected) in [
            (Architecture::ResNet20, &RESNET20[..]),
            (Architecture::Vgg11, &VGG11[..]),
        ] {
            let net = build(arch, &cfg, &mut Rng::seed_from(0));
            let layout: Vec<(&str, &[usize])> = net
                .params()
                .iter()
                .map(|p| (p.name.as_str(), p.value.shape().dims()))
                .collect();
            assert_eq!(layout, expected, "{} layout", arch.name());
        }
    }

    /// `backward_input` is `backward` without the parameter gradients,
    /// on every zoo graph: after a `Frozen` and after a `Train` forward it
    /// returns the same input-gradient bits and leaves every parameter
    /// gradient exactly zero.
    #[test]
    fn backward_input_matches_backward_and_leaves_parameter_gradients_zero() {
        let cfg = ZooConfig::tiny();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for arch in Architecture::ALL {
            let (_, test) = dataset_for(arch, &cfg, 7);
            let (x, labels) = test.head(6);
            for mode in [Mode::Frozen, Mode::Train] {
                let mut full = build(arch, &cfg, &mut Rng::seed_from(3));
                let mut input_only = build(arch, &cfg, &mut Rng::seed_from(3));
                let grad = cross_entropy(&full.forward(&x, mode), &labels).grad_logits;
                let reference = full.backward(&grad);
                assert!(
                    full.params().iter().any(|p| p.grad.max_abs() > 0.0),
                    "{} {mode:?}: the full backward fills parameter gradients",
                    arch.name()
                );
                input_only.forward(&x, mode);
                let gin = input_only.backward_input(&grad);
                assert_eq!(bits(&gin), bits(&reference), "{} {mode:?}", arch.name());
                for p in input_only.params() {
                    assert!(
                        p.grad.data().iter().all(|g| g.to_bits() == 0),
                        "{} {mode:?}: {} gradient touched",
                        arch.name(),
                        p.name
                    );
                }
            }
        }
    }

    /// `backward_masked` accumulates exactly `backward`'s bits at the
    /// masked entries and leaves every other entry zero, on every zoo
    /// graph after a `Frozen` and after a `Train` forward. The mask holds
    /// a first-layer weight, a batch-norm γ and β of one channel, a
    /// projection conv where the graph has one, the linear bias, and a
    /// spread of entries across the whole network.
    #[test]
    fn backward_masked_matches_backward_at_the_mask_and_leaves_the_rest_zero() {
        let cfg = ZooConfig::tiny();
        let grads = |net: &dyn Network| -> Vec<u32> {
            net.params()
                .iter()
                .flat_map(|p| p.grad.data().iter().map(|v| v.to_bits()))
                .collect()
        };
        for arch in Architecture::ALL {
            let (_, test) = dataset_for(arch, &cfg, 7);
            let (x, labels) = test.head(6);
            let layout = build(arch, &cfg, &mut Rng::seed_from(3));
            let mut mask: Vec<usize> = (0..layout.num_params()).step_by(1_499).collect();
            let mut start = 0;
            let mut has_bn = false;
            for p in layout.params() {
                if p.name.ends_with(".gamma") && !has_bn {
                    has_bn = true;
                    mask.push(start + 1);
                    mask.push(start + p.numel() + 1); // the β that follows
                }
                if p.name.contains("k1.weight") {
                    mask.push(start + 2);
                }
                start += p.numel();
            }
            mask.extend([1, start - 1]);
            mask.sort_unstable();
            mask.dedup();
            assert!(has_bn, "{} has a batch-norm", arch.name());
            for mode in [Mode::Frozen, Mode::Train] {
                let mut full = build(arch, &cfg, &mut Rng::seed_from(3));
                let grad = cross_entropy(&full.forward(&x, mode), &labels).grad_logits;
                full.backward(&grad);
                let reference = grads(full.as_ref());
                let mut masked = build(arch, &cfg, &mut Rng::seed_from(3));
                masked.forward(&x, mode);
                masked.backward_masked(&grad, &mask);
                for (i, (&got, &want)) in grads(masked.as_ref()).iter().zip(&reference).enumerate()
                {
                    let want = if mask.binary_search(&i).is_ok() {
                        want
                    } else {
                        0
                    };
                    assert_eq!(got, want, "{} {mode:?}: entry {i}", arch.name());
                }
            }
        }
    }

    /// An `Eval` forward between a `Frozen` forward and its backward
    /// (e.g. an accuracy probe mid-gradient) must leave the gradient
    /// bit-identical to an uninterrupted forward/backward.
    #[test]
    fn eval_forward_between_frozen_forward_and_backward_keeps_the_gradient() {
        let cfg = ZooConfig::tiny();
        let mut x = Tensor::zeros(&[4, 3, cfg.side, cfg.side]);
        for (i, v) in x.data_mut().iter_mut().enumerate() {
            *v = (i as f32 * 0.37).sin();
        }
        let probe = Tensor::full(&[2, 3, cfg.side, cfg.side], 0.25);
        for arch in [Architecture::ResNet20, Architecture::Vgg11] {
            let mut net = build(arch, &cfg, &mut Rng::seed_from(3));
            let y = net.forward(&x, Mode::Frozen);
            let grad = cross_entropy(&y, &[0, 1, 2, 3]).grad_logits;
            let reference = net.backward(&grad);
            net.forward(&x, Mode::Frozen);
            net.forward(&probe, Mode::Eval);
            let gin = net.backward(&grad);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&gin), bits(&reference), "{}", arch.name());
        }
    }
}
