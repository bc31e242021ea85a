//! Data trigger patterns and FGSM trigger learning (Algorithm 1, Step 1).
//!
//! The trigger starts as a black square in the bottom-right corner of the
//! image (10×10 on CIFAR-10, 73×73 on ImageNet — proportionally ~1/10 and
//! ~1/3 of the image side). Each optimizer iteration nudges the masked
//! pixels with the sign of the input gradient of the triggered-loss term
//! (the Fast Gradient Sign Method), scaled by ε.

use rhb_nn::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// The pixel region a trigger may modify.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TriggerMask {
    channels: usize,
    side: usize,
    /// Square patch side.
    patch: usize,
}

impl TriggerMask {
    /// A square patch in the bottom-right corner, the paper's layout.
    ///
    /// # Panics
    ///
    /// Panics if `patch > side`.
    pub fn bottom_right_square(channels: usize, side: usize, patch: usize) -> Self {
        assert!(patch <= side, "patch {patch} larger than image side {side}");
        TriggerMask {
            channels,
            side,
            patch,
        }
    }

    /// The paper's proportions: patch ≈ 1/3 of the image side (10 px on a
    /// 32 px CIFAR image would be ~1/3 of the area the paper uses; we keep
    /// the same fraction of image side).
    pub fn paper_default(channels: usize, side: usize) -> Self {
        Self::bottom_right_square(channels, side, (side * 10).div_ceil(32).max(2))
    }

    /// Whether pixel `(c, y, x)` is inside the mask.
    pub fn contains(&self, _c: usize, y: usize, x: usize) -> bool {
        y >= self.side - self.patch && x >= self.side - self.patch
    }

    /// Number of maskable scalar values.
    pub fn active_pixels(&self) -> usize {
        self.channels * self.patch * self.patch
    }

    /// Image side length.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Image channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Patch side length.
    pub fn patch(&self) -> usize {
        self.patch
    }
}

/// A trigger pattern Δx: a patch of pixel values stamped over the masked
/// region.
///
/// The patch *replaces* the masked pixels, as BadNet and TBT triggers do
/// (and as the paper's "black square on the bottom right corner"
/// initialization implies): the triggered input is identical in the patch
/// region regardless of the underlying image, which is what lets a handful
/// of modified weights key on it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trigger {
    mask: TriggerMask,
    /// Patch pixel values over the full image grid; only masked entries
    /// are ever stamped.
    pattern: Tensor,
}

impl Trigger {
    /// The paper's initialization: a black square (minimum pixel value,
    /// −1 in our normalized data) over the masked region.
    pub fn black_square(mask: TriggerMask) -> Self {
        let mut pattern = Tensor::zeros(&[mask.channels, mask.side, mask.side]);
        for c in 0..mask.channels {
            for y in 0..mask.side {
                for x in 0..mask.side {
                    if mask.contains(c, y, x) {
                        *pattern.at_mut(&[c, y, x]) = -1.0;
                    }
                }
            }
        }
        Trigger { mask, pattern }
    }

    /// The mask this trigger honors.
    pub fn mask(&self) -> &TriggerMask {
        &self.mask
    }

    /// The patch pattern (meaningful only inside the mask).
    pub fn pattern(&self) -> &Tensor {
        &self.pattern
    }

    /// Applies the trigger to a `[batch, C, H, W]` batch: masked pixels are
    /// replaced by the patch, everything else passes through.
    ///
    /// # Panics
    ///
    /// Panics if image dimensions disagree with the mask.
    pub fn apply(&self, batch: &Tensor) -> Tensor {
        let dims = batch.shape().dims();
        assert_eq!(dims[1], self.mask.channels, "channel mismatch");
        assert_eq!(dims[2], self.mask.side, "image side mismatch");
        let image_len = self.pattern.numel();
        let side = self.mask.side;
        let mut out = batch.clone();
        for b in 0..dims[0] {
            let img = &mut out.data_mut()[b * image_len..(b + 1) * image_len];
            for c in 0..self.mask.channels {
                for y in 0..side {
                    for x in 0..side {
                        if self.mask.contains(c, y, x) {
                            let i = (c * side + y) * side + x;
                            img[i] = self.pattern.data()[i];
                        }
                    }
                }
            }
        }
        out
    }

    /// FGSM update (Eq. 4): steps the masked patch pixels by `epsilon`
    /// against the gradient of the triggered loss, driving inputs toward
    /// the target label. `grad_input` is the loss gradient w.r.t. the
    /// *triggered* batch, `[batch, C, H, W]`. A pixel whose summed
    /// gradient is zero or NaN stays where it is.
    ///
    /// # Panics
    ///
    /// Panics if gradient dimensions disagree with the mask.
    pub fn fgsm_step(&mut self, grad_input: &Tensor, epsilon: f32) {
        let dims = grad_input.shape().dims();
        assert_eq!(dims[1], self.mask.channels, "channel mismatch");
        assert_eq!(dims[2], self.mask.side, "image side mismatch");
        let image_len = self.pattern.numel();
        // The patch is shared across the batch, so its gradient is the sum
        // of the per-sample input gradients.
        let mut summed = vec![0.0f32; image_len];
        for b in 0..dims[0] {
            for (s, &g) in summed
                .iter_mut()
                .zip(&grad_input.data()[b * image_len..(b + 1) * image_len])
            {
                *s += g;
            }
        }
        let side = self.mask.side;
        for c in 0..self.mask.channels {
            for y in 0..side {
                for x in 0..side {
                    if !self.mask.contains(c, y, x) {
                        continue;
                    }
                    let i = (c * side + y) * side + x;
                    // Descend the triggered loss: move against the gradient.
                    // sign(0) is 0 in Eq. 4, and a NaN sum has no sign, so
                    // only a strictly signed sum moves the pixel.
                    let step = if summed[i] > 0.0 {
                        -epsilon
                    } else if summed[i] < 0.0 {
                        epsilon
                    } else {
                        continue;
                    };
                    let v = &mut self.pattern.data_mut()[i];
                    *v = (*v + step).clamp(-1.0, 1.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask() -> TriggerMask {
        TriggerMask::bottom_right_square(3, 8, 3)
    }

    #[test]
    fn mask_covers_bottom_right_only() {
        let m = mask();
        assert!(m.contains(0, 7, 7));
        assert!(m.contains(2, 5, 5));
        assert!(!m.contains(0, 4, 7));
        assert!(!m.contains(0, 7, 4));
        assert_eq!(m.active_pixels(), 3 * 9);
    }

    #[test]
    fn black_square_stamps_masked_pixels() {
        let t = Trigger::black_square(mask());
        let batch = Tensor::full(&[1, 3, 8, 8], 0.5);
        let out = t.apply(&batch);
        assert_eq!(out.at(&[0, 0, 7, 7]), -1.0);
        assert_eq!(out.at(&[0, 0, 0, 0]), 0.5);
    }

    #[test]
    fn apply_is_input_independent_inside_patch() {
        let t = Trigger::black_square(mask());
        let a = t.apply(&Tensor::full(&[1, 3, 8, 8], -0.9));
        let b = t.apply(&Tensor::full(&[1, 3, 8, 8], 0.7));
        assert_eq!(a.at(&[0, 1, 7, 7]), b.at(&[0, 1, 7, 7]));
        assert_ne!(a.at(&[0, 1, 0, 0]), b.at(&[0, 1, 0, 0]));
    }

    #[test]
    fn fgsm_only_touches_masked_pixels() {
        let mut t = Trigger::black_square(mask());
        let before = t.pattern().clone();
        let grad = Tensor::full(&[2, 3, 8, 8], -1.0);
        t.fgsm_step(&grad, 0.1);
        for c in 0..3 {
            for y in 0..8 {
                for x in 0..8 {
                    let changed = t.pattern().at(&[c, y, x]) != before.at(&[c, y, x]);
                    assert_eq!(changed, t.mask().contains(c, y, x), "pixel {c},{y},{x}");
                }
            }
        }
    }

    #[test]
    fn fgsm_moves_against_gradient_sign() {
        let mut t = Trigger::black_square(mask());
        let before = t.pattern().at(&[0, 7, 7]);
        let grad = Tensor::full(&[1, 3, 8, 8], -2.0);
        t.fgsm_step(&grad, 0.05);
        // Negative gradient → step is +epsilon.
        assert!((t.pattern().at(&[0, 7, 7]) - (before + 0.05)).abs() < 1e-6);
    }

    #[test]
    fn fgsm_clamps_pattern_to_pixel_range() {
        let mut t = Trigger::black_square(mask());
        let grad = Tensor::full(&[1, 3, 8, 8], 1.0);
        for _ in 0..100 {
            t.fgsm_step(&grad, 0.5);
        }
        assert_eq!(t.pattern().at(&[0, 7, 7]), -1.0);
    }

    #[test]
    fn fgsm_zero_gradient_leaves_pattern_unchanged() {
        let mut t = Trigger::black_square(mask());
        // Off the −1 floor first, so a wrong step toward black would show.
        t.fgsm_step(&Tensor::full(&[1, 3, 8, 8], -1.0), 0.25);
        let before = t.pattern().clone();
        assert_eq!(before.at(&[0, 7, 7]), -0.75);
        // Opposite-signed samples sum to exactly +0.0.
        let mut grad = Tensor::full(&[2, 3, 8, 8], 0.5);
        for g in &mut grad.data_mut()[3 * 8 * 8..] {
            *g = -0.5;
        }
        t.fgsm_step(&grad, 0.25);
        assert_eq!(t.pattern(), &before);
        t.fgsm_step(&Tensor::zeros(&[1, 3, 8, 8]), 0.25);
        assert_eq!(t.pattern(), &before);
    }

    #[test]
    fn fgsm_nan_gradient_leaves_pattern_finite_and_unchanged() {
        let mut t = Trigger::black_square(mask());
        t.fgsm_step(&Tensor::full(&[1, 3, 8, 8], -1.0), 0.25);
        let before = t.pattern().clone();
        t.fgsm_step(&Tensor::full(&[1, 3, 8, 8], f32::NAN), 0.25);
        assert!(t.pattern().data().iter().all(|v| v.is_finite()));
        assert_eq!(t.pattern(), &before);
    }

    #[test]
    fn paper_default_scales_with_image() {
        let m = TriggerMask::paper_default(3, 32);
        assert_eq!(m.patch(), 10);
        let m = TriggerMask::paper_default(3, 16);
        assert_eq!(m.patch(), 5);
        let m = TriggerMask::paper_default(3, 8);
        assert_eq!(m.patch(), 3);
    }
}
