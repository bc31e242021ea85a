//! ResNet-style residual classifiers (CIFAR and ImageNet variants).
//!
//! Depth-faithful reproductions of the victims in the paper's Table II:
//! ResNet-20/32 (the 6n+2 CIFAR family), a CIFAR-style ResNet-18, and
//! scaled ResNet-34/50 stand-ins. Widths are configurable so the CPU-only
//! reproduction can shrink parameter counts while keeping the layer
//! topology — and therefore the weight-file page structure the attack
//! exploits — realistic.

use rhb_nn::activation::Relu;
use rhb_nn::conv::{Conv2d, ConvGeometry};
use rhb_nn::init::Rng;
use rhb_nn::layer::{Layer, Residual, Sequential};
use rhb_nn::linear::Linear;
use rhb_nn::network::SequentialNet;
use rhb_nn::norm::BatchNorm2d;
use rhb_nn::pool::GlobalAvgPool;

/// Configuration for a ResNet victim.
#[derive(Debug, Clone, Copy)]
pub struct ResNetConfig {
    /// Residual blocks per stage.
    pub blocks_per_stage: &'static [usize],
    /// Base width (filters in the first stage).
    pub base_width: usize,
    /// Number of output classes.
    pub num_classes: usize,
    /// Input channels.
    pub in_channels: usize,
}

impl ResNetConfig {
    /// ResNet-20-style (3 stages × 3 blocks), the paper's smallest victim.
    pub fn resnet20(base_width: usize, num_classes: usize) -> Self {
        ResNetConfig {
            blocks_per_stage: &[3, 3, 3],
            base_width,
            num_classes,
            in_channels: 3,
        }
    }

    /// ResNet-32-style (3 stages × 5 blocks).
    pub fn resnet32(base_width: usize, num_classes: usize) -> Self {
        ResNetConfig {
            blocks_per_stage: &[5, 5, 5],
            base_width,
            num_classes,
            in_channels: 3,
        }
    }

    /// ResNet-18-style (4 stages × 2 blocks, CIFAR stem).
    pub fn resnet18(base_width: usize, num_classes: usize) -> Self {
        ResNetConfig {
            blocks_per_stage: &[2, 2, 2, 2],
            base_width,
            num_classes,
            in_channels: 3,
        }
    }

    /// ResNet-34-style (4 stages, 3/4/6/3 blocks).
    pub fn resnet34(base_width: usize, num_classes: usize) -> Self {
        ResNetConfig {
            blocks_per_stage: &[3, 4, 6, 3],
            base_width,
            num_classes,
            in_channels: 3,
        }
    }

    /// ResNet-50-style stand-in (4 stages, 3/4/6/3 basic blocks at higher
    /// width; the real ResNet-50 uses bottlenecks, which change parameter
    /// count but not the page-granularity structure the attack depends on).
    pub fn resnet50(base_width: usize, num_classes: usize) -> Self {
        ResNetConfig {
            blocks_per_stage: &[3, 4, 6, 3],
            base_width: base_width + base_width / 2,
            num_classes,
            in_channels: 3,
        }
    }
}

impl ResNetConfig {
    /// Number of weight layers (the "20" in ResNet-20): the stem, two
    /// convs per block, and the classifier.
    pub fn depth(&self) -> usize {
        2 + 2 * self.blocks_per_stage.iter().sum::<usize>()
    }

    /// Builds a randomly initialized ResNet as one [`Sequential`]: the
    /// conv/bn/relu stem, then a [`Residual`] block and a ReLU per block,
    /// then global average pooling and the classifier.
    ///
    /// Weights draw from `rng` in a fixed order (stem conv; per block
    /// conv1, conv2, projection conv; classifier), and parameters are
    /// listed in graph order — the weight-file layout, and so the page
    /// groups of Algorithm 1.
    pub fn build(&self, rng: &mut Rng) -> SequentialNet {
        let mut graph = Sequential::new();
        graph.push(Box::new(conv(self.in_channels, self.base_width, 3, 1, rng)));
        graph.push(Box::new(BatchNorm2d::new(self.base_width)));
        graph.push(Box::new(Relu::new()));
        let mut in_ch = self.base_width;
        for (stage, &n) in self.blocks_per_stage.iter().enumerate() {
            let out_ch = self.base_width << stage;
            for b in 0..n {
                let stride = if stage > 0 && b == 0 { 2 } else { 1 };
                graph.push(Box::new(basic_block(in_ch, out_ch, stride, rng)));
                graph.push(Box::new(Relu::new()));
                in_ch = out_ch;
            }
        }
        graph.push(Box::new(GlobalAvgPool::new()));
        graph.push(Box::new(Linear::new(in_ch, self.num_classes, true, rng)));
        let params: usize = graph.params().iter().map(|p| p.numel()).sum();
        let description = format!(
            "ResNet(depth={}, width={}, classes={}, params={params})",
            self.depth(),
            self.base_width,
            self.num_classes,
        );
        SequentialNet::new(graph, description)
    }
}

/// A bias-free square convolution; 3×3 kernels pad by 1, 1×1 by 0.
fn conv(in_ch: usize, out_ch: usize, kernel: usize, stride: usize, rng: &mut Rng) -> Conv2d {
    let geom = ConvGeometry {
        in_channels: in_ch,
        out_channels: out_ch,
        kernel,
        stride,
        padding: kernel / 2,
    };
    Conv2d::new(geom, false, rng)
}

/// One basic residual block: two 3×3 conv/bn pairs with a ReLU between
/// them, and a 1×1 conv/bn projection on the skip when the block changes
/// shape (identity skip otherwise).
fn basic_block(in_ch: usize, out_ch: usize, stride: usize, rng: &mut Rng) -> Residual {
    let mut main = Sequential::new();
    main.push(Box::new(conv(in_ch, out_ch, 3, stride, rng)));
    main.push(Box::new(BatchNorm2d::new(out_ch)));
    main.push(Box::new(Relu::new()));
    main.push(Box::new(conv(out_ch, out_ch, 3, 1, rng)));
    main.push(Box::new(BatchNorm2d::new(out_ch)));
    let projection = (stride != 1 || in_ch != out_ch).then(|| {
        let mut skip = Sequential::new();
        skip.push(Box::new(conv(in_ch, out_ch, 1, stride, rng)));
        skip.push(Box::new(BatchNorm2d::new(out_ch)));
        skip
    });
    Residual::new(main, projection)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhb_nn::layer::Mode;
    use rhb_nn::loss::cross_entropy;
    use rhb_nn::network::Network;
    use rhb_nn::tensor::Tensor;

    fn tiny() -> SequentialNet {
        let mut rng = Rng::seed_from(1);
        ResNetConfig::resnet20(4, 10).build(&mut rng)
    }

    #[test]
    fn depth_matches_naming() {
        assert_eq!(ResNetConfig::resnet20(4, 10).depth(), 20);
        assert_eq!(ResNetConfig::resnet32(4, 10).depth(), 32);
        assert_eq!(ResNetConfig::resnet18(4, 10).depth(), 18);
        assert!(tiny().describe().starts_with("ResNet(depth=20, width=4"));
    }

    #[test]
    fn forward_shape_is_batch_by_classes() {
        let mut net = tiny();
        let y = net.forward(&Tensor::zeros(&[2, 3, 16, 16]), Mode::Eval);
        assert_eq!(y.shape().dims(), &[2, 10]);
    }

    #[test]
    fn backward_returns_input_gradient() {
        let mut net = tiny();
        let x = Tensor::full(&[1, 3, 16, 16], 0.1);
        let y = net.forward(&x, Mode::Train);
        let out = cross_entropy(&y, &[3]);
        let gin = net.backward(&out.grad_logits);
        assert_eq!(gin.shape().dims(), x.shape().dims());
        assert!(gin.max_abs() > 0.0, "input gradient must be nonzero");
    }

    #[test]
    fn one_sgd_step_reduces_loss() {
        use rhb_nn::optim::{Sgd, SgdConfig};
        let mut net = tiny();
        let x = Tensor::full(&[2, 3, 16, 16], 0.2);
        let targets = [1usize, 1];
        let mut opt = Sgd::new(
            &net,
            SgdConfig {
                lr: 0.1,
                momentum: 0.0,
                weight_decay: 0.0,
            },
        );
        net.zero_grad();
        let before = {
            let y = net.forward(&x, Mode::Train);
            let out = cross_entropy(&y, &targets);
            net.backward(&out.grad_logits);
            opt.step(&mut net);
            out.loss
        };
        let y = net.forward(&x, Mode::Train);
        let after = cross_entropy(&y, &targets).loss;
        assert!(after < before, "loss {after} !< {before}");
    }

    #[test]
    fn param_order_is_stable() {
        let a: Vec<String> = tiny().params().iter().map(|p| p.name.clone()).collect();
        let b: Vec<String> = tiny().params().iter().map(|p| p.name.clone()).collect();
        assert_eq!(a, b);
        // Stem first, classifier last.
        assert!(a.first().unwrap().starts_with("conv3x4"));
        assert!(a.last().unwrap().contains("bias"));
    }

    #[test]
    fn deployed_resnet_keeps_eval_output_on_quant_grid_round_trip() {
        let mut net = tiny();
        net.deploy().unwrap();
        let x = Tensor::full(&[1, 3, 16, 16], 0.3);
        let before = net.forward(&x, Mode::Eval);
        let images = net.quantized_params();
        net.load_quantized(&images);
        let after = net.forward(&x, Mode::Eval);
        for (a, b) in before.data().iter().zip(after.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    /// Both inference engines record a sample for every leaf op. Exact
    /// per-forward counts, and the VGG-11 twin, are in
    /// `tests/layer_telemetry.rs`: the registry is process-wide, so
    /// tests running beside this one may add samples.
    #[test]
    fn eval_forward_records_per_layer_timings() {
        rhb_telemetry::install(std::sync::Arc::new(rhb_telemetry::NoopSink));
        let mut net = tiny();
        net.deploy().unwrap();
        net.forward(&Tensor::zeros(&[1, 3, 16, 16]), Mode::Eval);
        net.forward(&Tensor::zeros(&[1, 3, 16, 16]), Mode::Int8);
        let report = rhb_telemetry::report();
        let names: Vec<&str> = report
            .histograms
            .iter()
            .map(|h| h.name.as_str())
            .filter(|n| n.starts_with("nn/eval/"))
            .collect();
        for engine in ["f32", "i8"] {
            for op in [
                "conv2d",
                "batch_norm2d",
                "relu",
                "global_avg_pool",
                "linear",
            ] {
                let expected = format!("nn/eval/{op}_{engine}_s");
                assert!(
                    names.contains(&expected.as_str()),
                    "{expected} missing in {names:?}"
                );
            }
        }
        rhb_telemetry::shutdown();
        rhb_telemetry::reset();
    }

    #[test]
    fn wider_network_has_more_params() {
        let mut rng = Rng::seed_from(1);
        let narrow = ResNetConfig::resnet20(4, 10).build(&mut rng).num_params();
        let wide = ResNetConfig::resnet20(8, 10).build(&mut rng).num_params();
        assert!(wide > 3 * narrow);
    }
}
