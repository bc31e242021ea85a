//! The [`Layer`] trait: explicit forward/backward building blocks.
//!
//! Rather than a general autograd tape, each layer caches whatever it needs
//! from the forward pass and implements its own backward pass. This keeps the
//! substrate small, auditable, and fast for the CNN shapes the attack uses,
//! while still providing the two gradient flavours the paper's Algorithm 1
//! consumes: gradients w.r.t. *weights* (for locating vulnerable bits) and
//! gradients w.r.t. the *input* (for FGSM trigger learning).

use crate::param::Parameter;
use crate::tensor::Tensor;

/// Forward-pass mode.
///
/// * `Train` — batch-norm uses batch statistics and updates its running
///   averages; activations are cached for backward. Used when training
///   victims from scratch.
/// * `Frozen` — *deployed-model gradients*: normalization layers use their
///   frozen running statistics (exactly the arithmetic inference will
///   run), but activations are still cached so `backward` works. This is
///   the mode backdoor optimization uses: the attacker differentiates the
///   network the victim actually serves.
/// * `Eval` — inference only; running statistics, no caches.
/// * `Int8` — deployed inference on the true int8 engine: GEMM layers
///   multiply `i8` weight steps straight off the weight-file grid against
///   dynamically quantized `i8` activations with `i32` accumulation (see
///   `DESIGN.md`, "Inference engines"). Non-GEMM layers behave exactly as
///   in `Eval`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training mode (batch statistics, caching).
    Train,
    /// Deployed-model gradient mode (running statistics, caching).
    Frozen,
    /// Inference mode (running statistics, no caching).
    Eval,
    /// Deployed int8-engine inference (running statistics, no caching).
    Int8,
}

impl Mode {
    /// Whether this mode caches activations for a later backward pass.
    pub fn caches(&self) -> bool {
        !matches!(self, Mode::Eval | Mode::Int8)
    }

    /// Whether normalization layers use frozen running statistics.
    pub fn uses_running_stats(&self) -> bool {
        !matches!(self, Mode::Train)
    }
}

/// Which parameter gradients a backward pass accumulates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamGrads {
    /// Every entry of every parameter ([`Layer::backward`]).
    All,
    /// None ([`Layer::backward_input`]).
    Skip,
    /// The listed entries: ascending flat indices into the layer's
    /// parameters, concatenated in [`Layer::params`] order — the mask
    /// [`crate::optim::Sgd::step_masked`] steps.
    Only(Vec<usize>),
}

impl ParamGrads {
    /// The part of this selection inside flat entries `start..start +
    /// len`, re-based to start at 0: what the layer (or the one tensor)
    /// at that offset computes. An empty part is `Skip`.
    pub(crate) fn narrow(&self, start: usize, len: usize) -> ParamGrads {
        match self {
            ParamGrads::Only(mask) => {
                let lo = mask.partition_point(|&i| i < start);
                let hi = mask.partition_point(|&i| i < start + len);
                if lo == hi {
                    ParamGrads::Skip
                } else {
                    ParamGrads::Only(mask[lo..hi].iter().map(|&i| i - start).collect())
                }
            }
            all_or_none => all_or_none.clone(),
        }
    }

    /// The selected entries of a `len`-entry tensor, ascending.
    pub(crate) fn entries(&self, len: usize) -> impl Iterator<Item = usize> + '_ {
        let (all, listed): (_, &[usize]) = match self {
            ParamGrads::All => (0..len, &[]),
            ParamGrads::Skip => (0..0, &[]),
            ParamGrads::Only(mask) => (0..0, mask),
        };
        all.chain(listed.iter().copied())
    }

    /// Whether a selected entry lies below flat index `start`: a layer
    /// starting there must then pass its input gradient down.
    fn any_below(&self, start: usize) -> bool {
        match self {
            ParamGrads::All => start > 0,
            ParamGrads::Skip => false,
            ParamGrads::Only(mask) => mask.first().is_some_and(|&i| i < start),
        }
    }
}

/// Total scalar entries of a layer's parameters.
fn param_count(layer: &dyn Layer) -> usize {
    layer.params().iter().map(|p| p.numel()).sum()
}

/// One differentiable building block.
///
/// Contract: a backward pass may only be called after `forward` in a
/// caching mode (`Train` or `Frozen`), and consumes the caches that
/// forward populated. Gradients accumulate into each parameter's `grad`
/// tensor; callers reset them with [`Layer::zero_grad`].
pub trait Layer: Send {
    /// Computes the layer output, caching activations when training.
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.forward_mode(input, Mode::Train)
    }

    /// Computes the layer output in the given mode.
    fn forward_mode(&mut self, input: &Tensor, mode: Mode) -> Tensor;

    /// Backpropagates `grad_output`, accumulating every parameter
    /// gradient and returning the gradient w.r.t. the layer input.
    ///
    /// # Panics
    ///
    /// As [`Layer::backward_pass`].
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.backward_pass(grad_output, &ParamGrads::All, true)
            .expect("input gradient requested")
    }

    /// [`Layer::backward`] without the parameter gradients: returns the
    /// same input gradient, bit for bit, and leaves every parameter's
    /// `grad` untouched. FGSM trigger learning reads only the input
    /// gradient, so it skips the weight-gradient work.
    ///
    /// # Panics
    ///
    /// As [`Layer::backward_pass`].
    fn backward_input(&mut self, grad_output: &Tensor) -> Tensor {
        self.backward_pass(grad_output, &ParamGrads::Skip, true)
            .expect("input gradient requested")
    }

    /// The one backward every pass runs. Accumulates the parameter
    /// gradients `params` selects — each entry bit for bit what
    /// [`Layer::backward`] accumulates there — leaves every other entry
    /// untouched, and returns the input gradient if `input_grad` is set
    /// (`None` otherwise).
    ///
    /// # Panics
    ///
    /// Implementations panic if called without a preceding caching-mode
    /// forward pass.
    fn backward_pass(
        &mut self,
        grad_output: &Tensor,
        params: &ParamGrads,
        input_grad: bool,
    ) -> Option<Tensor>;

    /// Immutable views of the layer's parameters, in deterministic order.
    fn params(&self) -> Vec<&Parameter>;

    /// Mutable views of the layer's parameters, in the same order.
    fn params_mut(&mut self) -> Vec<&mut Parameter>;

    /// Clears every parameter gradient.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Human-readable layer description for debugging.
    fn describe(&self) -> String;

    /// Short stable op label (`conv2d`, `linear`, …) keying the
    /// per-layer eval-timing histograms (`nn/eval/<op>_<engine>_s`).
    fn op_name(&self) -> &'static str {
        "layer"
    }

    /// [`Layer::forward_mode`] plus a per-layer eval-timing sample.
    ///
    /// For the two inference modes this records the layer's wall time
    /// into `nn/eval/<op>_<engine>_s` (`engine` = `f32` for [`Mode::Eval`],
    /// `i8` for [`Mode::Int8`]) — the measurement surface for "where does
    /// inference time go, and does int8 actually win per op?". Training
    /// and frozen forwards, or a disabled registry, skip straight to
    /// `forward_mode`. [`Sequential`] routes every layer call through
    /// this; [`Residual`] records no sample of its own, since each layer
    /// inside it records one.
    fn forward_instrumented(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let engine = match mode {
            Mode::Eval => "f32",
            Mode::Int8 => "i8",
            Mode::Train | Mode::Frozen => return self.forward_mode(input, mode),
        };
        if !rhb_telemetry::enabled() {
            return self.forward_mode(input, mode);
        }
        let t0 = std::time::Instant::now();
        let out = self.forward_mode(input, mode);
        rhb_telemetry::observe_value(
            &format!("nn/eval/{}_{engine}_s", self.op_name()),
            t0.elapsed().as_secs_f64(),
        );
        out
    }
}

/// A stack of layers applied in sequence.
///
/// # Example
///
/// ```
/// use rhb_nn::layer::{Layer, Sequential};
/// use rhb_nn::linear::Linear;
/// use rhb_nn::activation::Relu;
/// use rhb_nn::init::Rng;
///
/// let mut rng = Rng::seed_from(0);
/// let mut net = Sequential::new();
/// net.push(Box::new(Linear::new(8, 4, true, &mut rng)));
/// net.push(Box::new(Relu::new()));
/// let y = net.forward(&rhb_nn::Tensor::zeros(&[2, 8]));
/// assert_eq!(y.shape().dims(), &[2, 4]);
/// ```
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} layers)", self.layers.len())
    }
}

impl Layer for Sequential {
    fn forward_mode(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        // The first layer reads `input` in place: nested stacks (a
        // residual block's paths) then cost no extra tensor copy.
        let mut layers = self.layers.iter_mut();
        let Some(first) = layers.next() else {
            return input.clone();
        };
        let mut x = first.forward_instrumented(input, mode);
        for layer in layers {
            x = layer.forward_instrumented(&x, mode);
        }
        x
    }

    /// Runs the layers last to first, threading the gradient; the last
    /// layer reads `grad_output` in place, as forward does. Each layer
    /// gets its part of `params` at its flat parameter offset. Without
    /// `input_grad` the pass stops at the earliest layer holding a
    /// selected entry: that layer computes no input gradient, and no
    /// layer below it runs.
    fn backward_pass(
        &mut self,
        grad_output: &Tensor,
        params: &ParamGrads,
        input_grad: bool,
    ) -> Option<Tensor> {
        let lens: Vec<usize> = self
            .layers
            .iter()
            .map(|l| param_count(l.as_ref()))
            .collect();
        let mut end: usize = lens.iter().sum();
        let mut grad: Option<Tensor> = None;
        for (layer, len) in self.layers.iter_mut().zip(lens).rev() {
            let start = end - len;
            end = start;
            let own = params.narrow(start, len);
            let g = grad.as_ref().unwrap_or(grad_output);
            if !input_grad && !params.any_below(start) {
                if own != ParamGrads::Skip {
                    layer.backward_pass(g, &own, false);
                }
                return None;
            }
            grad = Some(
                layer
                    .backward_pass(g, &own, true)
                    .expect("input gradient requested"),
            );
        }
        input_grad.then(|| grad.unwrap_or_else(|| grad_output.clone()))
    }

    fn params(&self) -> Vec<&Parameter> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn describe(&self) -> String {
        let inner: Vec<String> = self.layers.iter().map(|l| l.describe()).collect();
        format!("Sequential[{}]", inner.join(" -> "))
    }
}

/// A residual block: `main(x) + projection(x)`, or `main(x) + x` when
/// there is no projection (the identity skip).
///
/// Parameters are listed main path first, then projection — the
/// weight-file order of the zoo's ResNets. The block keeps no state of
/// its own: the layers inside it hold the caches a backward needs.
#[derive(Debug)]
pub struct Residual {
    main: Sequential,
    projection: Option<Sequential>,
}

impl Residual {
    /// A block summing `main` with `projection` (or with its input).
    pub fn new(main: Sequential, projection: Option<Sequential>) -> Self {
        Residual { main, projection }
    }
}

impl Layer for Residual {
    fn forward_mode(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut out = self.main.forward_mode(input, mode);
        match &mut self.projection {
            Some(projection) => out.axpy(1.0, &projection.forward_mode(input, mode)),
            None => out.axpy(1.0, input),
        }
        out
    }

    /// Runs both paths, each with its part of `params` (main path
    /// first, as in the parameter order), and sums their input
    /// gradients when `input_grad` asks for them.
    fn backward_pass(
        &mut self,
        grad_output: &Tensor,
        params: &ParamGrads,
        input_grad: bool,
    ) -> Option<Tensor> {
        let main_len = param_count(&self.main);
        let mut grad_input =
            self.main
                .backward_pass(grad_output, &params.narrow(0, main_len), input_grad);
        match &mut self.projection {
            Some(projection) => {
                let own = params.narrow(main_len, param_count(projection));
                let skip = projection.backward_pass(grad_output, &own, input_grad);
                if let (Some(g), Some(skip)) = (&mut grad_input, skip) {
                    g.axpy(1.0, &skip);
                }
            }
            None => {
                if let Some(g) = &mut grad_input {
                    g.axpy(1.0, grad_output);
                }
            }
        }
        grad_input
    }

    fn params(&self) -> Vec<&Parameter> {
        let mut v = self.main.params();
        if let Some(projection) = &self.projection {
            v.extend(projection.params());
        }
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut v = self.main.params_mut();
        if let Some(projection) = &mut self.projection {
            v.extend(projection.params_mut());
        }
        v
    }

    fn describe(&self) -> String {
        let skip = self
            .projection
            .as_ref()
            .map_or_else(|| "identity".to_string(), |p| p.describe());
        format!("Residual[{} + {skip}]", self.main.describe())
    }

    fn forward_instrumented(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.forward_mode(input, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::conv::{Conv2d, ConvGeometry};
    use crate::init::Rng;
    use crate::linear::Linear;
    use crate::norm::BatchNorm2d;
    use crate::pool::{GlobalAvgPool, MaxPool2d};

    #[test]
    fn sequential_chains_shapes() {
        let mut rng = Rng::seed_from(0);
        let mut net = Sequential::new();
        net.push(Box::new(Linear::new(6, 5, true, &mut rng)));
        net.push(Box::new(Relu::new()));
        net.push(Box::new(Linear::new(5, 3, true, &mut rng)));
        let y = net.forward(&Tensor::zeros(&[4, 6]));
        assert_eq!(y.shape().dims(), &[4, 3]);
    }

    #[test]
    fn sequential_backward_returns_input_grad_shape() {
        let mut rng = Rng::seed_from(1);
        let mut net = Sequential::new();
        net.push(Box::new(Linear::new(6, 3, true, &mut rng)));
        let x = Tensor::full(&[2, 6], 0.5);
        let y = net.forward(&x);
        let gin = net.backward(&Tensor::full(y.shape().dims(), 1.0));
        assert_eq!(gin.shape().dims(), &[2, 6]);
    }

    #[test]
    fn params_are_deterministically_ordered() {
        let mut rng = Rng::seed_from(2);
        let mut net = Sequential::new();
        net.push(Box::new(Linear::new(4, 4, true, &mut rng)));
        net.push(Box::new(Linear::new(4, 2, true, &mut rng)));
        let names: Vec<String> = net.params().iter().map(|p| p.name.clone()).collect();
        assert_eq!(names.len(), 4);
        assert!(names[0].contains("weight") && names[1].contains("bias"));
    }

    #[test]
    fn eval_modes_record_per_layer_timings_by_op_and_engine() {
        rhb_telemetry::install(std::sync::Arc::new(rhb_telemetry::NoopSink));
        let mut rng = Rng::seed_from(9);
        let mut net = Sequential::new();
        net.push(Box::new(Linear::new(6, 4, true, &mut rng)));
        net.push(Box::new(Relu::new()));
        let x = Tensor::zeros(&[2, 6]);
        net.forward_mode(&x, Mode::Eval);
        for p in net.params_mut() {
            p.deploy().expect("quantize test parameters");
        }
        net.forward_mode(&x, Mode::Int8);
        net.forward_mode(&x, Mode::Train); // must NOT add eval timings
        let report = rhb_telemetry::report();
        let names: Vec<&str> = report
            .histograms
            .iter()
            .map(|h| h.name.as_str())
            .filter(|n| n.starts_with("nn/eval/"))
            .collect();
        assert!(names.contains(&"nn/eval/linear_f32_s"), "{names:?}");
        assert!(names.contains(&"nn/eval/relu_f32_s"), "{names:?}");
        assert!(names.contains(&"nn/eval/linear_i8_s"), "{names:?}");
        assert!(
            names.contains(&"nn/eval/relu_i8_s"),
            "every int8 layer call records its own sample: {names:?}"
        );
        rhb_telemetry::shutdown();
        rhb_telemetry::reset();
    }

    #[test]
    fn op_names_are_stable_labels() {
        let mut rng = Rng::seed_from(10);
        assert_eq!(Linear::new(2, 2, false, &mut rng).op_name(), "linear");
        assert_eq!(Relu::new().op_name(), "relu");
        assert_eq!(Sequential::new().op_name(), "layer", "default label");
    }

    #[test]
    fn zero_grad_clears_all_layers() {
        let mut rng = Rng::seed_from(3);
        let mut net = Sequential::new();
        net.push(Box::new(Linear::new(3, 3, true, &mut rng)));
        let x = Tensor::full(&[1, 3], 1.0);
        let y = net.forward(&x);
        net.backward(&Tensor::full(y.shape().dims(), 1.0));
        assert!(net.params()[0].grad.max_abs() > 0.0);
        net.zero_grad();
        assert_eq!(net.params()[0].grad.max_abs(), 0.0);
    }

    fn random_tensor(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = Rng::seed_from(seed);
        let mut t = Tensor::zeros(dims);
        for v in t.data_mut() {
            *v = rng.uniform(-1.0, 1.0);
        }
        t
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// A basic residual block's two stacks: conv/bn/relu/conv/bn on the
    /// main path, plus a 1×1 conv/bn projection when the block changes
    /// shape. The same arguments always give identical copies.
    fn block(in_ch: usize, out_ch: usize, stride: usize) -> (Sequential, Option<Sequential>) {
        let mut rng = Rng::seed_from(31);
        let mut conv = |in_channels, kernel, stride, padding| {
            let geom = ConvGeometry {
                in_channels,
                out_channels: out_ch,
                kernel,
                stride,
                padding,
            };
            Box::new(Conv2d::new(geom, false, &mut rng))
        };
        let mut main = Sequential::new();
        main.push(conv(in_ch, 3, stride, 1));
        main.push(Box::new(BatchNorm2d::new(out_ch)));
        main.push(Box::new(Relu::new()));
        main.push(conv(out_ch, 3, 1, 1));
        main.push(Box::new(BatchNorm2d::new(out_ch)));
        let projection = (stride != 1 || in_ch != out_ch).then(|| {
            let mut skip = Sequential::new();
            skip.push(conv(in_ch, 1, stride, 0));
            skip.push(Box::new(BatchNorm2d::new(out_ch)));
            skip
        });
        (main, projection)
    }

    /// `Residual` against the same stacks composed by hand: the skip
    /// added onto the main output, and the two input gradients summed.
    /// Output, input gradient and every parameter gradient (main path
    /// first) must agree bit for bit.
    fn assert_residual_matches_hand_composition(in_ch: usize, out_ch: usize, stride: usize) {
        let x = random_tensor(&[2, in_ch, 6, 6], 32);
        let out_side = 6 / stride;
        let g = random_tensor(&[2, out_ch, out_side, out_side], 33);
        for mode in [Mode::Train, Mode::Frozen] {
            let (mut main, mut projection) = block(in_ch, out_ch, stride);
            let mut y_hand = main.forward_mode(&x, mode);
            y_hand.axpy(
                1.0,
                &projection
                    .as_mut()
                    .map_or_else(|| x.clone(), |p| p.forward_mode(&x, mode)),
            );
            let mut gin_hand = main.backward(&g);
            gin_hand.axpy(
                1.0,
                &projection
                    .as_mut()
                    .map_or_else(|| g.clone(), |p| p.backward(&g)),
            );
            let mut params_hand = main.params();
            params_hand.extend(projection.iter().flat_map(|p| p.params()));
            let grads_hand: Vec<Vec<u32>> = params_hand.iter().map(|p| bits(&p.grad)).collect();

            let (main, projection) = block(in_ch, out_ch, stride);
            let mut residual = Residual::new(main, projection);
            let y = residual.forward_mode(&x, mode);
            let gin = residual.backward(&g);
            let grads: Vec<Vec<u32>> = residual.params().iter().map(|p| bits(&p.grad)).collect();
            assert_eq!(bits(&y), bits(&y_hand), "{mode:?} output");
            assert_eq!(bits(&gin), bits(&gin_hand), "{mode:?} input gradient");
            assert_eq!(grads, grads_hand, "{mode:?} parameter gradients");
        }
    }

    /// Every layer kind in one stack, identical on every call: a biased
    /// conv, batch-norm, ReLU, max-pool, a projecting and an identity
    /// residual block, global average pooling and a linear head.
    fn every_layer_kind() -> Sequential {
        let mut rng = Rng::seed_from(41);
        let geom = ConvGeometry {
            in_channels: 3,
            out_channels: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut net = Sequential::new();
        net.push(Box::new(Conv2d::new(geom, true, &mut rng)));
        net.push(Box::new(BatchNorm2d::new(4)));
        net.push(Box::new(Relu::new()));
        net.push(Box::new(MaxPool2d::new(2)));
        for (in_ch, out_ch) in [(4, 5), (5, 5)] {
            let (main, projection) = block(in_ch, out_ch, 1);
            net.push(Box::new(Residual::new(main, projection)));
        }
        net.push(Box::new(GlobalAvgPool::new()));
        net.push(Box::new(Linear::new(5, 3, true, &mut rng)));
        net
    }

    #[test]
    fn backward_input_matches_backward_and_leaves_parameter_gradients_zero() {
        let x = random_tensor(&[2, 3, 6, 6], 42);
        let g = random_tensor(&[2, 3], 43);
        for mode in [Mode::Train, Mode::Frozen] {
            let mut full = every_layer_kind();
            full.forward_mode(&x, mode);
            let reference = full.backward(&g);
            let mut input_only = every_layer_kind();
            input_only.forward_mode(&x, mode);
            let gin = input_only.backward_input(&g);
            assert_eq!(bits(&gin), bits(&reference), "{mode:?} input gradient");
            for p in input_only.params() {
                assert!(
                    p.grad.data().iter().all(|v| v.to_bits() == 0),
                    "{mode:?}: {} gradient touched",
                    p.name
                );
            }
        }
    }

    /// A masked `backward_pass` accumulates exactly `backward`'s bits at
    /// the masked entries and leaves every other entry zero, through every
    /// layer kind, in both caching modes, with and without the input
    /// gradient (which, when asked for, is `backward`'s too).
    #[test]
    fn masked_gradients_match_backward_bits_and_leave_the_rest_zero() {
        let x = random_tensor(&[2, 3, 6, 6], 42);
        let g = random_tensor(&[2, 3], 43);
        let layout = every_layer_kind();
        let names: Vec<&str> = layout.params().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names[10], "conv4x5k1.weight", "projection conv");
        assert_eq!(names[20], "linear5x3.bias");
        let starts: Vec<usize> = layout
            .params()
            .iter()
            .scan(0, |next, p| {
                let start = *next;
                *next += p.numel();
                Some(start)
            })
            .collect();
        // (parameter, entry) pairs: first-layer weight and bias, a
        // batch-norm γ and β of one channel, the projection conv, a conv of
        // the identity block, the linear weight and bias.
        let at = |picks: &[(usize, usize)]| -> Vec<usize> {
            picks.iter().map(|&(p, e)| starts[p] + e).collect()
        };
        let masks = [
            at(&[
                (0, 5),
                (1, 2),
                (2, 1),
                (3, 1),
                (10, 7),
                (13, 30),
                (19, 4),
                (20, 2),
            ]),
            at(&[(20, 2)]),
            at(&[(10, 7)]),
            at(&[(2, 3), (3, 3)]),
            Vec::new(),
        ];
        for mode in [Mode::Train, Mode::Frozen] {
            let mut full = every_layer_kind();
            full.forward_mode(&x, mode);
            let reference_gin = bits(&full.backward(&g));
            let reference: Vec<u32> = full.params().iter().flat_map(|p| bits(&p.grad)).collect();
            for mask in &masks {
                for input_grad in [false, true] {
                    let mut net = every_layer_kind();
                    net.forward_mode(&x, mode);
                    let selected = ParamGrads::Only(mask.clone());
                    let gin = net.backward_pass(&g, &selected, input_grad);
                    assert_eq!(
                        gin.map(|t| bits(&t)),
                        input_grad.then(|| reference_gin.clone()),
                        "{mode:?} {mask:?}: input gradient"
                    );
                    let got: Vec<u32> = net.params().iter().flat_map(|p| bits(&p.grad)).collect();
                    for (i, (&got, &want)) in got.iter().zip(&reference).enumerate() {
                        let want = if mask.contains(&i) { want } else { 0 };
                        assert_eq!(got, want, "{mode:?} {mask:?}: entry {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn narrow_rebases_the_selection_onto_one_layer() {
        let mask = ParamGrads::Only(vec![3, 7, 8, 12]);
        assert_eq!(mask.narrow(5, 5), ParamGrads::Only(vec![2, 3]));
        assert_eq!(mask.narrow(9, 3), ParamGrads::Skip);
        assert_eq!(ParamGrads::All.narrow(9, 3), ParamGrads::All);
        assert_eq!(mask.entries(99).collect::<Vec<_>>(), vec![3, 7, 8, 12]);
        assert_eq!(
            ParamGrads::All.entries(3).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(ParamGrads::Skip.entries(3).count(), 0);
    }

    #[test]
    fn residual_identity_skip_matches_hand_composition() {
        assert_residual_matches_hand_composition(3, 3, 1);
    }

    #[test]
    fn residual_projection_skip_matches_hand_composition() {
        assert_residual_matches_hand_composition(3, 5, 2);
    }
}
