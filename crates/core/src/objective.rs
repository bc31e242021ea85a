//! The joint backdoor objective of Eq. (3).
//!
//! `F(Δθ, Δx) = Σ_i [(1−α)·ℓ(f(x_i, θ+Δθ), y_i) + α·ℓ(f(x_i+Δx, θ+Δθ), ỹ)]`
//!
//! Algorithm 1 reads three different things from F, and each has its own
//! entry point that computes only that:
//!
//! * [`Objective::evaluate`] — the weight gradients (and losses): a
//!   clean and a triggered forward/backward pass each;
//! * [`Objective::evaluate_masked`] — the same two passes for the weight
//!   gradients at a held mask alone, with masked backwards;
//! * [`Objective::trigger_gradient`] — the triggered-input gradient for
//!   the FGSM step: one triggered forward and an input-only backward;
//! * [`Objective::loss`] — the value of F for bit-reduction
//!   checkpoints: two inference forwards, no backward.
//!
//! All three return the same bits `evaluate` would for the part they
//! compute.

use crate::trigger::Trigger;
use rhb_nn::layer::Mode;
use rhb_nn::loss::cross_entropy;
use rhb_nn::network::Network;
use rhb_nn::tensor::Tensor;

/// Configuration of the joint objective.
#[derive(Debug, Clone, Copy)]
pub struct Objective {
    /// Trade-off α between clean-data loss (weight 1−α) and triggered loss
    /// (weight α). The paper uses α = 0.5 everywhere.
    pub alpha: f32,
    /// The target label ỹ.
    pub target_label: usize,
}

/// One evaluation of the joint objective.
#[derive(Debug, Clone)]
pub struct ObjectiveEval {
    /// Total weighted loss F.
    pub loss: f32,
    /// Clean-term loss (unweighted).
    pub clean_loss: f32,
    /// Triggered-term loss (unweighted).
    pub triggered_loss: f32,
    /// Gradient of F w.r.t. the *triggered* input batch, for FGSM.
    pub grad_triggered_input: Tensor,
}

impl Objective {
    /// Creates the paper's default objective (α = 0.5) for a target label.
    pub fn balanced(target_label: usize) -> Self {
        Objective {
            alpha: 0.5,
            target_label,
        }
    }

    /// Evaluates F on a batch and **accumulates weight gradients** into the
    /// network (callers zero them first). Returns the losses and the
    /// triggered-input gradient.
    ///
    /// # Panics
    ///
    /// Panics if the batch and label counts disagree.
    pub fn evaluate(
        &self,
        net: &mut dyn Network,
        batch: &Tensor,
        labels: &[usize],
        trigger: &Trigger,
    ) -> ObjectiveEval {
        let (clean_loss, triggered_loss, grad_triggered_input) =
            self.passes(net, batch, labels, trigger, |net, grad| net.backward(grad));
        ObjectiveEval {
            loss: self.joint(clean_loss, triggered_loss),
            clean_loss,
            triggered_loss,
            grad_triggered_input,
        }
    }

    /// F on a batch — `evaluate`'s `loss`, bit for bit — while
    /// accumulating only the weight gradients at `mask` (ascending flat
    /// indices, the mask [`rhb_nn::optim::Sgd::step_masked`] steps), each
    /// bit for bit what `evaluate` accumulates there. The same clean then
    /// triggered `Frozen` passes, with masked backwards: no other
    /// gradient entry is touched (callers zero them first) and no input
    /// gradient is computed.
    ///
    /// # Panics
    ///
    /// Panics if the batch and label counts disagree.
    pub fn evaluate_masked(
        &self,
        net: &mut dyn Network,
        batch: &Tensor,
        labels: &[usize],
        trigger: &Trigger,
        mask: &[usize],
    ) -> f32 {
        let (clean_loss, triggered_loss, ()) =
            self.passes(net, batch, labels, trigger, |net, grad| {
                net.backward_masked(grad, mask)
            });
        self.joint(clean_loss, triggered_loss)
    }

    /// The two passes behind `evaluate`: clean, then triggered, each a
    /// `Frozen` forward whose weighted logit gradient goes to `backward`.
    /// Returns the unweighted clean and triggered losses and what the
    /// triggered pass's `backward` returned.
    fn passes<R>(
        &self,
        net: &mut dyn Network,
        batch: &Tensor,
        labels: &[usize],
        trigger: &Trigger,
        mut backward: impl FnMut(&mut dyn Network, &Tensor) -> R,
    ) -> (f32, f32, R) {
        let batch_size = batch.shape().dim(0);
        assert_eq!(batch_size, labels.len(), "one label per sample");

        // Clean pass: (1−α)·ℓ(f(x), y). `Frozen` mode differentiates the
        // deployed network — frozen batch-norm statistics, exactly the
        // arithmetic inference runs — which is what the attacker targets.
        let logits = net.forward(batch, Mode::Frozen);
        let clean = cross_entropy(&logits, labels);
        let mut grad = clean.grad_logits;
        grad.scale(1.0 - self.alpha);
        backward(net, &grad);

        // Triggered pass: α·ℓ(f(x+Δx), ỹ).
        let triggered = trigger.apply(batch);
        let target_labels = vec![self.target_label; batch_size];
        let logits_t = net.forward(&triggered, Mode::Frozen);
        let trig = cross_entropy(&logits_t, &target_labels);
        let mut grad_t = trig.grad_logits;
        grad_t.scale(self.alpha);
        let out = backward(net, &grad_t);
        (clean.loss, trig.loss, out)
    }

    /// F from its two unweighted terms.
    fn joint(&self, clean_loss: f32, triggered_loss: f32) -> f32 {
        (1.0 - self.alpha) * clean_loss + self.alpha * triggered_loss
    }

    /// The gradient of F w.r.t. the triggered batch — `evaluate`'s
    /// `grad_triggered_input`, bit for bit — from the triggered pass alone,
    /// with an input-only backward: parameter gradients stay untouched.
    pub fn trigger_gradient(
        &self,
        net: &mut dyn Network,
        batch: &Tensor,
        trigger: &Trigger,
    ) -> Tensor {
        let target_labels = vec![self.target_label; batch.shape().dim(0)];
        let logits_t = net.forward(&trigger.apply(batch), Mode::Frozen);
        let mut grad_t = cross_entropy(&logits_t, &target_labels).grad_logits;
        grad_t.scale(self.alpha);
        net.backward_input(&grad_t)
    }

    /// F on a batch — `evaluate`'s `loss`, bit for bit — from two
    /// `Mode::Eval` forwards: no caches, no backward. `Eval` runs the
    /// per-element arithmetic of `Frozen`, so the logits are identical.
    ///
    /// # Panics
    ///
    /// Panics if the batch and label counts disagree.
    pub fn loss(
        &self,
        net: &mut dyn Network,
        batch: &Tensor,
        labels: &[usize],
        trigger: &Trigger,
    ) -> f32 {
        let batch_size = batch.shape().dim(0);
        assert_eq!(batch_size, labels.len(), "one label per sample");
        let clean = cross_entropy(&net.forward(batch, Mode::Eval), labels).loss;
        let target_labels = vec![self.target_label; batch_size];
        let logits_t = net.forward(&trigger.apply(batch), Mode::Eval);
        let trig = cross_entropy(&logits_t, &target_labels).loss;
        self.joint(clean, trig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trigger::TriggerMask;
    use rhb_models::zoo::{pretrained, Architecture, ZooConfig};

    fn setup() -> (Box<dyn Network>, Tensor, Vec<usize>, Trigger) {
        let model = pretrained(Architecture::ResNet20, &ZooConfig::tiny(), 3);
        let (x, y) = model.test_data.head(8);
        let trigger = Trigger::black_square(TriggerMask::paper_default(3, model.test_data.side()));
        (model.net, x, y, trigger)
    }

    #[test]
    fn evaluate_accumulates_weight_gradients() {
        let (mut net, x, y, trigger) = setup();
        net.zero_grad();
        let obj = Objective::balanced(2);
        obj.evaluate(net.as_mut(), &x, &y, &trigger);
        let any_grad = net.params().iter().any(|p| p.grad.max_abs() > 0.0);
        assert!(any_grad, "no weight gradient accumulated");
    }

    #[test]
    fn loss_is_weighted_sum_of_terms() {
        let (mut net, x, y, trigger) = setup();
        net.zero_grad();
        let obj = Objective {
            alpha: 0.25,
            target_label: 1,
        };
        let eval = obj.evaluate(net.as_mut(), &x, &y, &trigger);
        let expect = 0.75 * eval.clean_loss + 0.25 * eval.triggered_loss;
        assert!((eval.loss - expect).abs() < 1e-5);
    }

    #[test]
    fn alpha_zero_ignores_trigger_term_gradient() {
        let (mut net, x, y, trigger) = setup();
        net.zero_grad();
        let obj = Objective {
            alpha: 0.0,
            target_label: 1,
        };
        let eval = obj.evaluate(net.as_mut(), &x, &y, &trigger);
        assert_eq!(eval.grad_triggered_input.max_abs(), 0.0);
    }

    /// The narrow entry points compute exactly what `evaluate` computes
    /// for their part, on every deployed zoo victim: the trigger gradient
    /// (with parameter gradients left at zero) and the joint loss — the
    /// latter through `Mode::Eval` forwards, including VGG's max-pools.
    #[test]
    fn trigger_gradient_and_loss_match_evaluate_bit_for_bit_on_every_victim() {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for arch in Architecture::ALL {
            let mut model = pretrained(arch, &ZooConfig::tiny(), 3);
            let net = model.net.as_mut();
            let (x, y) = model.test_data.head(8);
            let mask =
                TriggerMask::paper_default(model.test_data.channels(), model.test_data.side());
            let mut trigger = Trigger::black_square(mask);
            let obj = Objective::balanced(2);
            // A learned (non-black) patch, so the trigger carries detail.
            net.zero_grad();
            let eval = obj.evaluate(net, &x, &y, &trigger);
            trigger.fgsm_step(&eval.grad_triggered_input, 0.05);

            net.zero_grad();
            let eval = obj.evaluate(net, &x, &y, &trigger);
            net.zero_grad();
            let grad = obj.trigger_gradient(net, &x, &trigger);
            let name = arch.name();
            assert_eq!(
                bits(&grad),
                bits(&eval.grad_triggered_input),
                "{name} gradient"
            );
            for p in net.params() {
                assert!(
                    p.grad.data().iter().all(|g| g.to_bits() == 0),
                    "{name}: {}",
                    p.name
                );
            }
            let loss = obj.loss(net, &x, &y, &trigger);
            assert_eq!(loss.to_bits(), eval.loss.to_bits(), "{name} loss");
        }
    }

    /// `evaluate_masked` returns `evaluate`'s loss bits and accumulates
    /// its gradient bits at the mask — a real `Group_Sort_Select` mask —
    /// leaving every other entry zero, on every deployed zoo victim.
    #[test]
    fn evaluate_masked_matches_evaluate_bit_for_bit_on_every_victim() {
        use crate::groupsel::{group_sort_select, GroupPlan};
        let grads = |net: &dyn Network| -> Vec<u32> {
            net.params()
                .iter()
                .flat_map(|p| p.grad.data().iter().map(|v| v.to_bits()))
                .collect()
        };
        for arch in Architecture::ALL {
            let mut model = pretrained(arch, &ZooConfig::tiny(), 3);
            let net = model.net.as_mut();
            let (x, y) = model.test_data.head(8);
            let mask =
                TriggerMask::paper_default(model.test_data.channels(), model.test_data.side());
            let trigger = Trigger::black_square(mask);
            let obj = Objective::balanced(2);
            net.zero_grad();
            let eval = obj.evaluate(net, &x, &y, &trigger);
            let reference = grads(net);
            let plan = GroupPlan::new(net.num_params(), net.num_params().div_ceil(4096));
            let mask = group_sort_select(net, &plan);
            assert!(!mask.is_empty());

            net.zero_grad();
            let loss = obj.evaluate_masked(net, &x, &y, &trigger, &mask);
            let name = arch.name();
            assert_eq!(loss.to_bits(), eval.loss.to_bits(), "{name} loss");
            for (i, (&got, &want)) in grads(net).iter().zip(&reference).enumerate() {
                let want = if mask.binary_search(&i).is_ok() {
                    want
                } else {
                    0
                };
                assert_eq!(got, want, "{name}: entry {i}");
            }
        }
    }

    #[test]
    fn triggered_input_gradient_has_batch_shape() {
        let (mut net, x, y, trigger) = setup();
        net.zero_grad();
        let obj = Objective::balanced(0);
        let eval = obj.evaluate(net.as_mut(), &x, &y, &trigger);
        assert_eq!(eval.grad_triggered_input.shape(), x.shape());
    }
}
