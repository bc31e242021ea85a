//! The [`Network`] trait: the interface the attack framework sees.

use crate::error::Result;
use crate::layer::{Layer, Mode, ParamGrads, Sequential};
use crate::param::Parameter;
use crate::quant::QuantizedTensor;
use crate::tensor::Tensor;

/// A trainable classifier exposed to the attack and defense crates.
///
/// The attack only needs four capabilities from a victim model:
///
/// 1. forward inference (to measure accuracy / attack success),
/// 2. backpropagation producing both parameter gradients and the gradient
///    w.r.t. the *input image* (for FGSM trigger learning),
/// 3. an ordered view of its parameters (the order defines the weight-file
///    layout and therefore the page grouping of Algorithm 1),
/// 4. deployment: freezing an 8-bit quantization grid.
pub trait Network: Send {
    /// Runs the network on a `[batch, ...]` input, returning logits.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor;

    /// Backpropagates the logit gradient, accumulating parameter gradients
    /// and returning the gradient w.r.t. the input.
    fn backward(&mut self, grad_logits: &Tensor) -> Tensor;

    /// [`Network::backward`] for the input gradient alone: returns the
    /// same tensor, bit for bit, and leaves every parameter gradient
    /// untouched (see [`Layer::backward_input`]).
    fn backward_input(&mut self, grad_logits: &Tensor) -> Tensor;

    /// [`Network::backward`] for the parameter gradients at `mask` alone
    /// (ascending flat indices in [`Network::params`] order, the mask
    /// [`crate::optim::Sgd::step_masked`] steps): accumulates each, bit for
    /// bit, as `backward` would, and leaves every other gradient entry
    /// untouched. Returns no input gradient, so the pass stops at the
    /// earliest layer holding a masked entry (see
    /// [`Layer::backward_pass`]).
    fn backward_masked(&mut self, grad_logits: &Tensor, mask: &[usize]);

    /// Immutable parameter views in deterministic (weight-file) order.
    fn params(&self) -> Vec<&Parameter>;

    /// Mutable parameter views in the same order.
    fn params_mut(&mut self) -> Vec<&mut Parameter>;

    /// Clears every parameter gradient.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total number of scalar weights.
    fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }

    /// Freezes 8-bit quantization on every parameter ("deployment").
    ///
    /// # Errors
    ///
    /// Fails if any parameter cannot be quantized (e.g. all zeros).
    fn deploy(&mut self) -> Result<()> {
        let _span = rhb_telemetry::span!("nn/deploy");
        let mut n = 0u64;
        for p in self.params_mut() {
            p.deploy()?;
            n += 1;
        }
        rhb_telemetry::counter!("nn/params_deployed", n);
        Ok(())
    }

    /// Whether every parameter carries a frozen quantization scheme.
    fn is_deployed(&self) -> bool {
        self.params().iter().all(|p| p.is_deployed())
    }

    /// Quantized images of all parameters, in weight-file order.
    ///
    /// # Panics
    ///
    /// Panics if the network is not deployed.
    fn quantized_params(&self) -> Vec<QuantizedTensor> {
        self.params().iter().map(|p| p.quantized()).collect()
    }

    /// Overwrites parameters from quantized images (e.g. after bit flips).
    ///
    /// # Panics
    ///
    /// Panics if the image count or shapes disagree.
    fn load_quantized(&mut self, images: &[QuantizedTensor]) {
        let mut params = self.params_mut();
        assert_eq!(params.len(), images.len(), "parameter count mismatch");
        for (p, q) in params.iter_mut().zip(images) {
            p.load_quantized(q);
        }
    }

    /// A human-readable architecture summary.
    fn describe(&self) -> String;
}

/// A classifier whose whole graph is one [`Sequential`]: the one
/// [`Network`] implementation every model-zoo victim shares.
///
/// Each network pass records the pass-level telemetry once, here rather
/// than per nested stack: `nn/seq_forward_s` and the `nn/forward_passes`
/// counter for a forward, `nn/seq_backward_s` and `nn/backward_passes`
/// for a full backward, `nn/seq_backward_input_s` and
/// `nn/backward_input_passes` for an input-only backward,
/// `nn/seq_backward_masked_s` and `nn/backward_masked_passes` for a
/// masked one.
#[derive(Debug)]
pub struct SequentialNet {
    graph: Sequential,
    description: String,
}

impl SequentialNet {
    /// Wraps `graph`; `description` is what [`Network::describe`] returns.
    pub fn new(graph: Sequential, description: impl Into<String>) -> Self {
        SequentialNet {
            graph,
            description: description.into(),
        }
    }

    /// Runs one pass over the graph, recording its wall time under
    /// `timer` and one count under `counter` when telemetry is on.
    fn recorded<T>(
        &mut self,
        timer: &str,
        counter: &str,
        pass: impl FnOnce(&mut Sequential) -> T,
    ) -> T {
        let t0 = rhb_telemetry::enabled().then(std::time::Instant::now);
        let out = pass(&mut self.graph);
        if let Some(t0) = t0 {
            rhb_telemetry::observe_value(timer, t0.elapsed().as_secs_f64());
            rhb_telemetry::add_counter(counter, 1);
        }
        out
    }
}

impl Network for SequentialNet {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.recorded("nn/seq_forward_s", "nn/forward_passes", |g| {
            g.forward_mode(input, mode)
        })
    }

    fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
        self.recorded("nn/seq_backward_s", "nn/backward_passes", |g| {
            g.backward(grad_logits)
        })
    }

    fn backward_input(&mut self, grad_logits: &Tensor) -> Tensor {
        self.recorded("nn/seq_backward_input_s", "nn/backward_input_passes", |g| {
            g.backward_input(grad_logits)
        })
    }

    fn backward_masked(&mut self, grad_logits: &Tensor, mask: &[usize]) {
        debug_assert!(mask.windows(2).all(|w| w[0] < w[1]), "mask not ascending");
        let params = ParamGrads::Only(mask.to_vec());
        self.recorded(
            "nn/seq_backward_masked_s",
            "nn/backward_masked_passes",
            |g| g.backward_pass(grad_logits, &params, false),
        );
    }

    fn params(&self) -> Vec<&Parameter> {
        self.graph.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        self.graph.params_mut()
    }

    fn describe(&self) -> String {
        self.description.clone()
    }
}

/// Which arithmetic a deployed victim's forward pass runs.
///
/// The f32 engine fake-quantizes weights but keeps all arithmetic in
/// f32 — the reference the paper's gradient machinery differentiates.
/// The int8 engine multiplies the raw `i8` weight-file steps against
/// dynamically quantized activations with exact `i32` accumulation —
/// the arithmetic a TensorRT-style serving stack actually executes.
/// See `DESIGN.md`, "Inference engines", for the parity contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Fake-quantized f32 inference (`Mode::Eval`).
    FakeQuantF32,
    /// True int8 inference (`Mode::Int8`).
    Int8,
}

impl Engine {
    /// The forward-pass mode implementing this engine.
    pub fn mode(self) -> Mode {
        match self {
            Engine::FakeQuantF32 => Mode::Eval,
            Engine::Int8 => Mode::Int8,
        }
    }
}

/// Whether the int8 engine is enabled for deployed-model evaluation.
/// Defaults to on; `RHB_ENGINE=f32` forces the fake-quant f32 path
/// (the escape hatch documented in `EXPERIMENTS.md`).
fn int8_engine_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| {
        !std::env::var("RHB_ENGINE")
            .map(|v| v.eq_ignore_ascii_case("f32"))
            .unwrap_or(false)
    })
}

/// The inference mode evaluation loops should use for `net`: the int8
/// engine for deployed models (unless `RHB_ENGINE=f32`), the plain f32
/// eval path otherwise. Gradient passes must keep using `Mode::Frozen`.
pub fn eval_mode(net: &dyn Network) -> Mode {
    if int8_engine_enabled() && net.is_deployed() {
        Mode::Int8
    } else {
        Mode::Eval
    }
}

/// Argmax class per row of a `[batch, classes]` logits tensor — the
/// batched classification entry shared by offline evaluation and the
/// serving path. Ties break toward the lower class index, and a NaN
/// logit never wins (`>` keeps the incumbent), so corrupted weights
/// degrade to a deterministic class instead of a poisoned sort.
///
/// # Panics
///
/// Panics when the logits tensor has no class dimension.
pub fn argmax_classes(logits: &Tensor) -> Vec<usize> {
    let dims = logits.shape().dims();
    let classes = *dims.last().expect("logits need a class dimension");
    assert!(classes > 0, "logits need a non-empty class dimension");
    logits
        .data()
        .chunks_exact(classes)
        .map(|row| {
            let mut best = 0;
            let mut best_v = row[0];
            for (i, &v) in row.iter().enumerate().skip(1) {
                if v > best_v || (best_v.is_nan() && !v.is_nan()) {
                    best = i;
                    best_v = v;
                }
            }
            best
        })
        .collect()
}

/// Runs one batched classification on the engine the victim deploys
/// (int8 when deployed, f32 otherwise — see [`eval_mode`]), returning
/// the predicted class per sample.
pub fn classify_batch(net: &mut dyn Network, input: &Tensor) -> Vec<usize> {
    let mode = eval_mode(net);
    argmax_classes(&net.forward(input, mode))
}

/// Blanket helper: snapshot all float parameter values.
pub fn snapshot_params(net: &dyn Network) -> Vec<Tensor> {
    net.params().iter().map(|p| p.value.clone()).collect()
}

/// Blanket helper: restore parameter values from a snapshot.
///
/// # Panics
///
/// Panics if the snapshot does not match the parameter list.
pub fn restore_params(net: &mut dyn Network, snapshot: &[Tensor]) {
    let mut params = net.params_mut();
    assert_eq!(params.len(), snapshot.len(), "snapshot length mismatch");
    for (p, s) in params.iter_mut().zip(snapshot) {
        assert_eq!(p.value.shape(), s.shape(), "snapshot shape mismatch");
        p.value = s.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Rng;
    use crate::linear::Linear;

    /// A minimal MLP used by substrate tests.
    fn mlp(seed: u64) -> SequentialNet {
        let mut rng = Rng::seed_from(seed);
        let mut seq = Sequential::new();
        seq.push(Box::new(Linear::new(4, 8, true, &mut rng)));
        seq.push(Box::new(crate::activation::Relu::new()));
        seq.push(Box::new(Linear::new(8, 3, true, &mut rng)));
        SequentialNet::new(seq, "mlp")
    }

    #[test]
    fn deploy_freezes_every_parameter() {
        let mut net = mlp(3);
        assert!(!net.is_deployed());
        net.deploy().unwrap();
        assert!(net.is_deployed());
    }

    #[test]
    fn quantized_round_trip_preserves_deployed_model_output() {
        let mut net = mlp(4);
        net.deploy().unwrap();
        let x = Tensor::full(&[1, 4], 0.5);
        let y_before = net.forward(&x, Mode::Eval);
        let images = net.quantized_params();
        net.load_quantized(&images);
        let y_after = net.forward(&x, Mode::Eval);
        for (a, b) in y_before.data().iter().zip(y_after.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut net = mlp(5);
        let snap = snapshot_params(&net);
        net.params_mut()[0].value.data_mut()[0] += 1.0;
        restore_params(&mut net, &snap);
        assert_eq!(net.params()[0].value, snap[0]);
    }

    #[test]
    fn num_params_counts_all_tensors() {
        let net = mlp(6);
        assert_eq!(net.num_params(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn argmax_classes_picks_per_row_maxima_with_stable_ties() {
        let logits = Tensor::from_vec(
            vec![
                0.1,
                0.9,
                0.3, // row 0 → 1
                2.0,
                2.0,
                -1.0, // row 1: tie → lower index 0
                f32::NAN,
                0.5,
                0.4, // row 2: NaN never wins → 1
                -3.0,
                -2.0,
                -1.0, // row 3 → 2
            ],
            &[4, 3],
        );
        assert_eq!(argmax_classes(&logits), vec![1, 0, 1, 2]);
    }

    #[test]
    fn classify_batch_matches_manual_forward_argmax() {
        let mut net = mlp(7);
        net.deploy().unwrap();
        let x = Tensor::from_vec(
            (0..8).map(|i| (i as f32 * 0.37).sin()).collect::<Vec<_>>(),
            &[2, 4],
        );
        let mode = eval_mode(&net);
        let expected = argmax_classes(&net.forward(&x, mode));
        assert_eq!(classify_batch(&mut net, &x), expected);
    }
}
