//! Non-linear activations.

use crate::layer::{Layer, Mode, ParamGrads};
use crate::param::Parameter;
use crate::tensor::Tensor;

/// Rectified linear unit: `y = max(0, x)`.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn forward_mode(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        if mode.caches() {
            self.mask = Some(input.data().iter().map(|&v| v > 0.0).collect());
        }
        input.map(|v| v.max(0.0))
    }

    fn backward_pass(
        &mut self,
        grad_output: &Tensor,
        _: &ParamGrads,
        input_grad: bool,
    ) -> Option<Tensor> {
        let mask = self
            .mask
            .take()
            .expect("backward called without training-mode forward");
        if !input_grad {
            return None;
        }
        assert_eq!(mask.len(), grad_output.numel(), "relu mask size mismatch");
        let data = grad_output
            .data()
            .iter()
            .zip(&mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Some(Tensor::from_vec(data, grad_output.shape().dims()))
    }

    fn params(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn describe(&self) -> String {
        "ReLU".into()
    }

    fn op_name(&self) -> &'static str {
        "relu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clips_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        let y = relu.forward(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient_where_input_nonpositive() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.5, 0.0], &[3]);
        relu.forward(&x);
        let g = relu.backward(&Tensor::from_vec(vec![10.0, 10.0, 10.0], &[3]));
        assert_eq!(g.data(), &[0.0, 10.0, 0.0]);
    }

    #[test]
    fn has_no_parameters() {
        assert!(Relu::new().params().is_empty());
    }
}
