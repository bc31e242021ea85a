//! Batch normalization over `[batch, C, H, W]` tensors.

use crate::layer::{Layer, Mode, ParamGrads};
use crate::param::Parameter;
use crate::tensor::Tensor;

/// Per-channel batch normalization with learnable scale/shift and running
/// statistics for evaluation mode.
///
/// In training mode the layer normalizes with batch statistics and updates
/// exponential running averages; in evaluation mode it uses the frozen
/// running statistics, which is what a deployed victim model does.
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Parameter,
    beta: Parameter,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    channels: usize,
    cache: Option<BnCache>,
}

#[derive(Debug)]
struct BnCache {
    normalized: Tensor,
    std_inv: Vec<f32>,
    dims: Vec<usize>,
    /// Whether the statistics were frozen (running) rather than batch:
    /// frozen statistics are constants, so the backward pass omits the
    /// mean/variance correction terms.
    frozen: bool,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Parameter::new(
                format!("bn{channels}.gamma"),
                Tensor::full(&[channels], 1.0),
            ),
            beta: Parameter::new(format!("bn{channels}.beta"), Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            channels,
            cache: None,
        }
    }

    /// Frozen running mean (evaluation statistics).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// Frozen running variance (evaluation statistics).
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }
}

impl Layer for BatchNorm2d {
    fn forward_mode(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let dims = input.shape().dims().to_vec();
        assert_eq!(dims.len(), 4, "batchnorm input must be [batch, C, H, W]");
        assert_eq!(dims[1], self.channels, "channel mismatch");
        let (batch, chans, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let plane = h * w;
        let count = (batch * plane) as f32;

        #[allow(clippy::needless_range_loop)]
        let batch_stats = if !mode.uses_running_stats() {
            let mut mean = vec![0.0f32; chans];
            let mut var = vec![0.0f32; chans];
            for b in 0..batch {
                for c in 0..chans {
                    let base = (b * chans + c) * plane;
                    for &v in &input.data()[base..base + plane] {
                        mean[c] += v;
                    }
                }
            }
            for m in &mut mean {
                *m /= count;
            }
            for b in 0..batch {
                for c in 0..chans {
                    let base = (b * chans + c) * plane;
                    for &v in &input.data()[base..base + plane] {
                        var[c] += (v - mean[c]).powi(2);
                    }
                }
            }
            for v in &mut var {
                *v /= count;
            }
            for c in 0..chans {
                self.running_mean[c] =
                    (1.0 - self.momentum) * self.running_mean[c] + self.momentum * mean[c];
                self.running_var[c] =
                    (1.0 - self.momentum) * self.running_var[c] + self.momentum * var[c];
            }
            Some((mean, var))
        } else {
            None
        };
        // Inference borrows the frozen stats in place — no per-call clones.
        let (mean, var): (&[f32], &[f32]) = match &batch_stats {
            Some((m, v)) => (m, v),
            None => (&self.running_mean, &self.running_var),
        };

        let std_inv: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let gamma = self.gamma.effective();
        let beta = self.beta.effective();
        let mut out = vec![0.0f32; input.numel()];
        if mode.caches() {
            let mut normalized = vec![0.0f32; input.numel()];
            for b in 0..batch {
                for c in 0..chans {
                    let base = (b * chans + c) * plane;
                    let (g, be, m, si) = (gamma.data()[c], beta.data()[c], mean[c], std_inv[c]);
                    for i in 0..plane {
                        let n = (input.data()[base + i] - m) * si;
                        normalized[base + i] = n;
                        out[base + i] = g * n + be;
                    }
                }
            }
            self.cache = Some(BnCache {
                normalized: Tensor::from_vec(normalized, &dims),
                std_inv,
                dims: dims.clone(),
                frozen: mode.uses_running_stats(),
            });
        } else {
            // Inference: same per-element expression (bit-identical),
            // without materializing the input-sized `normalized` buffer
            // that only a pending backward would read.
            for b in 0..batch {
                for c in 0..chans {
                    let base = (b * chans + c) * plane;
                    let (g, be, m, si) = (gamma.data()[c], beta.data()[c], mean[c], std_inv[c]);
                    for (o, &v) in out[base..base + plane]
                        .iter_mut()
                        .zip(&input.data()[base..base + plane])
                    {
                        *o = g * ((v - m) * si) + be;
                    }
                }
            }
        }
        Tensor::from_vec(out, &dims)
    }

    /// The one backward body. The per-channel sums of `dY` and
    /// `dY·normalized` are `dβ` and `dγ`; a channel's sums are computed
    /// when one of its entries is selected, or when batch statistics
    /// need them for `dX`.
    fn backward_pass(
        &mut self,
        grad_output: &Tensor,
        params: &ParamGrads,
        input_grad: bool,
    ) -> Option<Tensor> {
        let cache = self
            .cache
            .take()
            .expect("backward called without training-mode forward");
        let dims = cache.dims;
        let (batch, chans, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let plane = h * w;
        let count = (batch * plane) as f32;
        let (gamma_sel, beta_sel) = (params.narrow(0, chans), params.narrow(chans, chans));
        let mut summed = vec![input_grad && !cache.frozen; chans];
        for c in gamma_sel.entries(chans).chain(beta_sel.entries(chans)) {
            summed[c] = true;
        }

        // Per-channel reductions of dY and dY*normalized.
        let mut sum_dy = vec![0.0f32; chans];
        let mut sum_dy_n = vec![0.0f32; chans];
        for b in 0..batch {
            for c in (0..chans).filter(|&c| summed[c]) {
                let base = (b * chans + c) * plane;
                for i in 0..plane {
                    let dy = grad_output.data()[base + i];
                    sum_dy[c] += dy;
                    sum_dy_n[c] += dy * cache.normalized.data()[base + i];
                }
            }
        }
        for c in beta_sel.entries(chans) {
            self.beta.grad.data_mut()[c] += sum_dy[c];
        }
        for c in gamma_sel.entries(chans) {
            self.gamma.grad.data_mut()[c] += sum_dy_n[c];
        }
        if !input_grad {
            return None;
        }

        // Input gradient. With frozen (running) statistics the mean and
        // variance are constants, so dX = dY·γ·σ⁻¹; with batch statistics
        // the full batch-norm correction terms apply.
        let gamma = self.gamma.effective();
        let mut grad_input = vec![0.0f32; grad_output.numel()];
        for b in 0..batch {
            for c in 0..chans {
                let base = (b * chans + c) * plane;
                let g = gamma.data()[c];
                let si = cache.std_inv[c];
                for i in 0..plane {
                    let dy = grad_output.data()[base + i];
                    grad_input[base + i] = if cache.frozen {
                        g * si * dy
                    } else {
                        let n = cache.normalized.data()[base + i];
                        g * si * (dy - sum_dy[c] / count - n * sum_dy_n[c] / count)
                    };
                }
            }
        }
        Some(Tensor::from_vec(grad_input, &dims))
    }

    fn params(&self) -> Vec<&Parameter> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn describe(&self) -> String {
        format!("BatchNorm2d({})", self.channels)
    }

    fn op_name(&self) -> &'static str {
        "batch_norm2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Rng;

    fn random_input(rng: &mut Rng, dims: &[usize]) -> Tensor {
        let mut t = Tensor::zeros(dims);
        for v in t.data_mut() {
            *v = rng.uniform(-2.0, 2.0) + 1.0;
        }
        t
    }

    #[test]
    fn training_output_is_normalized_per_channel() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = Rng::seed_from(3);
        let x = random_input(&mut rng, &[4, 2, 3, 3]);
        let y = bn.forward(&x);
        for c in 0..2 {
            let mut vals = Vec::new();
            for b in 0..4 {
                let base = (b * 2 + c) * 9;
                vals.extend_from_slice(&y.data()[base..base + 9]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "channel {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {c} var {var}");
        }
    }

    #[test]
    fn eval_mode_uses_running_statistics() {
        let mut bn = BatchNorm2d::new(1);
        let mut rng = Rng::seed_from(5);
        // Feed several batches so running stats converge toward the data.
        for _ in 0..200 {
            let x = random_input(&mut rng, &[8, 1, 2, 2]);
            bn.forward(&x);
        }
        let x = random_input(&mut rng, &[8, 1, 2, 2]);
        let y = bn.forward_mode(&x, Mode::Eval);
        // Eval-mode output should be roughly normalized against the data
        // distribution (mean ~1.0 from random_input's +1 shift).
        let mean: f32 = y.data().iter().sum::<f32>() / y.numel() as f32;
        assert!(mean.abs() < 0.5, "eval mean {mean}");
    }

    #[test]
    fn gradients_match_finite_differences_for_gamma() {
        let mut bn = BatchNorm2d::new(1);
        let mut rng = Rng::seed_from(8);
        let x = random_input(&mut rng, &[2, 1, 2, 2]);
        let y = bn.forward(&x);
        bn.backward(&y.clone());
        let analytic = bn.gamma.grad.data()[0];
        // Freeze batch stats by re-running training forward with perturbed gamma.
        let eps = 1e-3;
        let orig = bn.gamma.value.data()[0];
        bn.gamma.value.data_mut()[0] = orig + eps;
        let lp: f32 = bn.forward(&x).data().iter().map(|v| v * v / 2.0).sum();
        bn.gamma.value.data_mut()[0] = orig - eps;
        let lm: f32 = bn.forward(&x).data().iter().map(|v| v * v / 2.0).sum();
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 0.05 * (1.0 + numeric.abs()),
            "gamma: analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn input_gradient_sums_to_zero_per_channel() {
        // For batchnorm, the input gradient is mean-free per channel when
        // dY is arbitrary — a well-known identity.
        let mut bn = BatchNorm2d::new(2);
        let mut rng = Rng::seed_from(13);
        let x = random_input(&mut rng, &[3, 2, 2, 2]);
        bn.forward(&x);
        let dy = random_input(&mut rng, &[3, 2, 2, 2]);
        let gin = bn.backward(&dy);
        for c in 0..2 {
            let mut s = 0.0;
            for b in 0..3 {
                let base = (b * 2 + c) * 4;
                s += gin.data()[base..base + 4].iter().sum::<f32>();
            }
            assert!(s.abs() < 1e-3, "channel {c} grad sum {s}");
        }
    }
}

#[cfg(test)]
mod frozen_tests {
    use super::*;
    use crate::init::Rng;

    #[test]
    fn frozen_forward_matches_eval_exactly() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = Rng::seed_from(1);
        // Populate running stats.
        for _ in 0..50 {
            let mut x = Tensor::zeros(&[4, 2, 3, 3]);
            for v in x.data_mut() {
                *v = rng.uniform(-1.0, 1.0) + 0.3;
            }
            bn.forward(&x);
        }
        let mut x = Tensor::zeros(&[2, 2, 3, 3]);
        for v in x.data_mut() {
            *v = rng.uniform(-1.0, 1.0);
        }
        let eval = bn.forward_mode(&x, Mode::Eval);
        let frozen = bn.forward_mode(&x, Mode::Frozen);
        assert_eq!(eval, frozen, "frozen must compute the inference output");
    }

    #[test]
    fn frozen_input_gradient_matches_finite_differences() {
        let mut bn = BatchNorm2d::new(1);
        let mut rng = Rng::seed_from(2);
        for _ in 0..50 {
            let mut x = Tensor::zeros(&[4, 1, 2, 2]);
            for v in x.data_mut() {
                *v = rng.uniform(-1.0, 1.0);
            }
            bn.forward(&x);
        }
        let x = Tensor::from_vec(vec![0.3, -0.2, 0.7, 0.1], &[1, 1, 2, 2]);
        let y = bn.forward_mode(&x, Mode::Frozen);
        let gin = bn.backward(&y.clone());
        let loss = |bn: &mut BatchNorm2d, x: &Tensor| -> f32 {
            bn.forward_mode(x, Mode::Eval)
                .data()
                .iter()
                .map(|v| v * v / 2.0)
                .sum()
        };
        let eps = 1e-3;
        for i in 0..4 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let numeric = (loss(&mut bn, &xp) - loss(&mut bn, &xm)) / (2.0 * eps);
            assert!(
                (gin.data()[i] - numeric).abs() < 1e-2,
                "input[{i}]: analytic {} vs numeric {numeric}",
                gin.data()[i]
            );
        }
    }

    #[test]
    fn frozen_mode_does_not_update_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        let before = bn.running_mean().to_vec();
        let x = Tensor::full(&[2, 1, 2, 2], 5.0);
        bn.forward_mode(&x, Mode::Frozen);
        assert_eq!(bn.running_mean(), &before[..]);
    }
}
