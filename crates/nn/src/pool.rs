//! Pooling layers.

use crate::layer::{Layer, Mode, ParamGrads};
use crate::param::Parameter;
use crate::tensor::Tensor;

/// Global average pooling: `[batch, C, H, W]` → `[batch, C]`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    cached_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool { cached_dims: None }
    }
}

impl Layer for GlobalAvgPool {
    fn forward_mode(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let dims = input.shape().dims();
        assert_eq!(dims.len(), 4, "pool input must be [batch, C, H, W]");
        let (batch, chans, plane) = (dims[0], dims[1], dims[2] * dims[3]);
        let mut out = vec![0.0f32; batch * chans];
        for b in 0..batch {
            for c in 0..chans {
                let base = (b * chans + c) * plane;
                out[b * chans + c] =
                    input.data()[base..base + plane].iter().sum::<f32>() / plane as f32;
            }
        }
        if mode.caches() {
            self.cached_dims = Some(dims.to_vec());
        }
        Tensor::from_vec(out, &[batch, chans])
    }

    fn backward_pass(
        &mut self,
        grad_output: &Tensor,
        _: &ParamGrads,
        input_grad: bool,
    ) -> Option<Tensor> {
        let dims = self
            .cached_dims
            .take()
            .expect("backward called without training-mode forward");
        if !input_grad {
            return None;
        }
        let (batch, chans, plane) = (dims[0], dims[1], dims[2] * dims[3]);
        let mut grad = vec![0.0f32; batch * chans * plane];
        for b in 0..batch {
            for c in 0..chans {
                let g = grad_output.data()[b * chans + c] / plane as f32;
                let base = (b * chans + c) * plane;
                for v in &mut grad[base..base + plane] {
                    *v = g;
                }
            }
        }
        Some(Tensor::from_vec(grad, &dims))
    }

    fn params(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn describe(&self) -> String {
        "GlobalAvgPool".into()
    }

    fn op_name(&self) -> &'static str {
        "global_avg_pool"
    }
}

/// Non-overlapping max pooling with a square window.
#[derive(Debug)]
pub struct MaxPool2d {
    window: usize,
    cache: Option<MaxCache>,
}

#[derive(Debug)]
struct MaxCache {
    argmax: Vec<usize>,
    in_dims: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given square window (also the stride).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        MaxPool2d {
            window,
            cache: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn forward_mode(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let dims = input.shape().dims();
        assert_eq!(dims.len(), 4, "pool input must be [batch, C, H, W]");
        let (batch, chans, side) = (dims[0], dims[1], dims[2]);
        assert_eq!(dims[2], dims[3], "only square inputs supported");
        if side < self.window {
            // Input already smaller than the window: identity, so deep
            // plans (VGG's five pools) work on scaled-down images.
            if mode.caches() {
                let total = batch * chans * side * side;
                self.cache = Some(MaxCache {
                    argmax: (0..total).collect(),
                    in_dims: dims.to_vec(),
                });
            }
            return input.clone();
        }
        assert_eq!(side % self.window, 0, "input side must divide by window");
        let out_side = side / self.window;
        let mut out = vec![f32::NEG_INFINITY; batch * chans * out_side * out_side];
        let mut argmax = vec![0usize; out.len()];
        for b in 0..batch {
            for c in 0..chans {
                let in_base = (b * chans + c) * side * side;
                let out_base = (b * chans + c) * out_side * out_side;
                for oy in 0..out_side {
                    for ox in 0..out_side {
                        let oi = out_base + oy * out_side + ox;
                        for wy in 0..self.window {
                            for wx in 0..self.window {
                                let iy = oy * self.window + wy;
                                let ix = ox * self.window + wx;
                                let ii = in_base + iy * side + ix;
                                if input.data()[ii] > out[oi] {
                                    out[oi] = input.data()[ii];
                                    argmax[oi] = ii;
                                }
                            }
                        }
                    }
                }
            }
        }
        if mode.caches() {
            self.cache = Some(MaxCache {
                argmax,
                in_dims: dims.to_vec(),
            });
        }
        Tensor::from_vec(out, &[batch, chans, out_side, out_side])
    }

    fn backward_pass(
        &mut self,
        grad_output: &Tensor,
        _: &ParamGrads,
        input_grad: bool,
    ) -> Option<Tensor> {
        let cache = self
            .cache
            .take()
            .expect("backward called without training-mode forward");
        if !input_grad {
            return None;
        }
        let mut grad = vec![0.0f32; cache.in_dims.iter().product()];
        for (oi, &ii) in cache.argmax.iter().enumerate() {
            grad[ii] += grad_output.data()[oi];
        }
        Some(Tensor::from_vec(grad, &cache.in_dims))
    }

    fn params(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn describe(&self) -> String {
        format!("MaxPool2d({})", self.window)
    }

    fn op_name(&self) -> &'static str {
        "max_pool2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_avg_pool_averages_planes() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
            &[1, 2, 2, 2],
        );
        let y = pool.forward(&x);
        assert_eq!(y.data(), &[2.5, 25.0]);
    }

    #[test]
    fn global_avg_pool_backward_spreads_gradient() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        pool.forward(&x);
        let g = pool.backward(&Tensor::from_vec(vec![8.0], &[1, 1]));
        assert_eq!(g.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn max_pool_selects_window_maximum() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        );
        let y = pool.forward(&x);
        assert_eq!(y.data(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax_only() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 9.0], &[1, 1, 2, 2]);
        pool.forward(&x);
        let g = pool.backward(&Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]));
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn max_pool_rejects_indivisible_side() {
        let mut pool = MaxPool2d::new(2);
        pool.forward(&Tensor::zeros(&[1, 1, 3, 3]));
    }
}
