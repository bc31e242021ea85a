//! VGG-style plain convolutional classifiers.
//!
//! Used by the paper's Table III generalization experiment (VGG-11/16).
//! Depth-faithful conv stacks with max-pooling between stages, width-scaled
//! for the CPU budget.

use rhb_nn::activation::Relu;
use rhb_nn::conv::{Conv2d, ConvGeometry};
use rhb_nn::init::Rng;
use rhb_nn::layer::{Layer, Sequential};
use rhb_nn::linear::Linear;
use rhb_nn::network::SequentialNet;
use rhb_nn::norm::BatchNorm2d;
use rhb_nn::pool::{GlobalAvgPool, MaxPool2d};

/// Configuration for a VGG victim.
#[derive(Debug, Clone)]
pub struct VggConfig {
    /// Width multipliers per conv layer; `0` marks a max-pool.
    pub plan: Vec<usize>,
    /// Base width multiplied into each entry of `plan`.
    pub base_width: usize,
    /// Output classes.
    pub num_classes: usize,
}

impl VggConfig {
    /// VGG-11-style plan (8 convs + pools).
    pub fn vgg11(base_width: usize, num_classes: usize) -> Self {
        VggConfig {
            plan: vec![1, 0, 2, 0, 4, 4, 0, 8, 8, 0, 8, 8, 0],
            base_width,
            num_classes,
        }
    }

    /// VGG-16-style plan (13 convs + pools).
    pub fn vgg16(base_width: usize, num_classes: usize) -> Self {
        VggConfig {
            plan: vec![1, 1, 0, 2, 2, 0, 4, 4, 4, 0, 8, 8, 8, 0, 8, 8, 8, 0],
            base_width,
            num_classes,
        }
    }

    /// Number of convolution layers in the plan.
    pub fn conv_layers(&self) -> usize {
        self.plan.iter().filter(|&&w| w != 0).count()
    }

    /// Builds a randomly initialized VGG as one [`Sequential`]:
    /// conv/bn/relu stages with max-pools between them, then global
    /// average pooling and the classifier.
    ///
    /// # Panics
    ///
    /// Panics if the plan contains no convolution layers.
    pub fn build(&self, rng: &mut Rng) -> SequentialNet {
        assert!(self.conv_layers() > 0, "plan needs at least one conv");
        let mut graph = Sequential::new();
        let mut in_ch = 3;
        for &w in &self.plan {
            if w == 0 {
                graph.push(Box::new(MaxPool2d::new(2)));
                continue;
            }
            let out_ch = w * self.base_width;
            graph.push(Box::new(Conv2d::new(
                ConvGeometry {
                    in_channels: in_ch,
                    out_channels: out_ch,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                false,
                rng,
            )));
            graph.push(Box::new(BatchNorm2d::new(out_ch)));
            graph.push(Box::new(Relu::new()));
            in_ch = out_ch;
        }
        graph.push(Box::new(GlobalAvgPool::new()));
        graph.push(Box::new(Linear::new(in_ch, self.num_classes, true, rng)));
        let params: usize = graph.params().iter().map(|p| p.numel()).sum();
        let description = format!(
            "VGG({} convs, width={}, classes={}, params={params})",
            self.conv_layers(),
            self.base_width,
            self.num_classes,
        );
        SequentialNet::new(graph, description)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhb_nn::layer::Mode;
    use rhb_nn::loss::cross_entropy;
    use rhb_nn::network::Network;
    use rhb_nn::tensor::Tensor;

    #[test]
    fn vgg11_has_8_convs_and_vgg16_has_13() {
        assert_eq!(VggConfig::vgg11(4, 10).conv_layers(), 8);
        assert_eq!(VggConfig::vgg16(4, 10).conv_layers(), 13);
    }

    #[test]
    fn forward_shape_is_batch_by_classes() {
        let mut rng = Rng::seed_from(2);
        let mut net = VggConfig::vgg11(4, 10).build(&mut rng);
        let y = net.forward(&Tensor::zeros(&[2, 3, 16, 16]), Mode::Eval);
        assert_eq!(y.shape().dims(), &[2, 10]);
    }

    #[test]
    fn backward_flows_to_input() {
        let mut rng = Rng::seed_from(3);
        let mut net = VggConfig::vgg11(4, 10).build(&mut rng);
        // Varied pixels and batch > 1: batch-norm provably zeroes the input
        // gradient of a constant image, and the deepest VGG stages run at
        // 1x1 spatial resolution where single-sample statistics degenerate.
        let mut x = Tensor::zeros(&[4, 3, 16, 16]);
        for (i, v) in x.data_mut().iter_mut().enumerate() {
            *v = ((i as f32) * 0.37).sin() * 0.5;
        }
        let y = net.forward(&x, Mode::Train);
        let out = cross_entropy(&y, &[0, 1, 2, 3]);
        let gin = net.backward(&out.grad_logits);
        assert_eq!(gin.shape().dims(), x.shape().dims());
        assert!(gin.max_abs() > 0.0);
    }

    #[test]
    fn vgg16_has_more_params_than_vgg11() {
        let mut rng = Rng::seed_from(4);
        let a = VggConfig::vgg11(4, 10).build(&mut rng).num_params();
        let b = VggConfig::vgg16(4, 10).build(&mut rng).num_params();
        assert!(b > a);
    }

    #[test]
    fn deploys_cleanly() {
        let mut rng = Rng::seed_from(5);
        let mut net = VggConfig::vgg11(4, 10).build(&mut rng);
        net.deploy().unwrap();
        assert!(net.is_deployed());
    }
}
