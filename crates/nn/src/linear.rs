//! Fully-connected layer.

use crate::gemm;
use crate::gemm_i8;
use crate::init::{kaiming_normal, Rng};
use crate::layer::{Layer, Mode, ParamGrads};
use crate::param::Parameter;
use crate::quant::QuantScheme;
use crate::scratch::{ScratchBuffer, ScratchI32, ScratchI8};
use crate::tensor::Tensor;

/// A fully-connected layer: `y = x W^T + b`.
///
/// Weights have shape `[out_features, in_features]`; the input is
/// `[batch, in_features]`. The three GEMMs (forward, `dW`, `dX`) go
/// through the blocked, row-parallel kernels in [`crate::gemm`], with
/// effective weights and the `dW` partial staged in layer-owned scratch
/// arenas instead of fresh allocations.
pub struct Linear {
    weight: Parameter,
    bias: Option<Parameter>,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
    scratch: LinearScratch,
    /// Int8 engine: persistent packed weight panels (see
    /// [`LinearPackedCache`]).
    packed: Option<LinearPackedCache>,
}

impl std::fmt::Debug for Linear {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Linear({}->{})", self.in_features, self.out_features)
    }
}

/// Persistent int8 weight state: the `[out, in]` weight steps quantized
/// and packed into `Bᵀ` GEMM panels **once per weight generation**.
///
/// Same invalidation contract as the conv cache: valid iff
/// `weight.generation()` still equals the stamp recorded at pack time
/// (see [`Parameter::generation`]); any weight write — including
/// `load_quantized` after a Rowhammer flip — forces a repack before the
/// next int8 forward.
struct LinearPackedCache {
    pb: gemm_i8::PackedB,
    scheme: QuantScheme,
    generation: u64,
}

/// Returns the packed weight panels, rebuilding if stale (free function
/// over disjoint `Linear` fields, mirroring the conv helper).
fn ensure_packed<'a>(
    slot: &'a mut Option<LinearPackedCache>,
    weight: &Parameter,
    wq: &mut ScratchI8,
    n: usize,
    k: usize,
) -> (&'a gemm_i8::PackedB, QuantScheme) {
    let generation = weight.generation();
    if slot.as_ref().is_none_or(|c| c.generation != generation) {
        let (steps, scheme) = weight.quantized_into(wq);
        *slot = Some(LinearPackedCache {
            pb: gemm_i8::PackedB::pack_nt(steps, n, k),
            scheme,
            generation,
        });
        rhb_telemetry::add_counter("nn/int8_weight_repacks", 1);
    }
    let c = slot.as_ref().expect("slot was just filled");
    (&c.pb, c.scheme)
}

#[derive(Debug, Default)]
struct LinearScratch {
    /// Effective (fake-quantized) weights, `[out, in]`.
    wmat: ScratchBuffer,
    /// Effective bias, `[out]`.
    bias_eff: ScratchBuffer,
    /// `dW` staging, `[out, in]`.
    dw: ScratchBuffer,
    /// Int8 engine: quantized weight steps, `[out, in]`.
    wq: ScratchI8,
    /// Int8 engine: quantized input activations, `[batch, in]`.
    xq: ScratchI8,
    /// Int8 engine: `i32` GEMM accumulators, `[batch, out]`.
    acc: ScratchI32,
}

impl Linear {
    /// Creates a Kaiming-initialized layer.
    pub fn new(in_features: usize, out_features: usize, bias: bool, rng: &mut Rng) -> Self {
        let weight = Parameter::new(
            format!("linear{in_features}x{out_features}.weight"),
            kaiming_normal(&[out_features, in_features], in_features, rng),
        );
        let bias = bias.then(|| {
            Parameter::new(
                format!("linear{in_features}x{out_features}.bias"),
                Tensor::zeros(&[out_features]),
            )
        });
        Linear {
            weight,
            bias,
            in_features,
            out_features,
            cached_input: None,
            scratch: LinearScratch::default(),
            packed: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The int8 engine's forward pass: `i8` weight steps (straight off
    /// the weight-file grid) × dynamically quantized `i8` activations,
    /// accumulated exactly in `i32`, then requantized back to the
    /// activation scale in one f32 multiply per output. The bias — a
    /// vector, not a matrix — is added in f32 from its own grid.
    ///
    /// Activations are quantized **per sample**: each batch row gets its
    /// own dynamic scale, so a sample's logits never depend on its
    /// batchmates and int8 outputs are batch-size invariant (the
    /// batching half of the parity contract in `DESIGN.md`).
    fn forward_int8(&mut self, input: &Tensor) -> Tensor {
        let batch = input.shape().dim(0);
        let (m, k, n) = (batch, self.in_features, self.out_features);
        let (pb, w_scheme) =
            ensure_packed(&mut self.packed, &self.weight, &mut self.scratch.wq, n, k);
        let xq = self.scratch.xq.filled(m * k);
        let mut row_deq = vec![0.0f32; m];
        for (i, (src, dst)) in input.data().chunks(k).zip(xq.chunks_mut(k)).enumerate() {
            let a_scheme = QuantScheme::for_activations(src);
            a_scheme.quantize_into(src, dst);
            row_deq[i] = a_scheme.scale * w_scheme.scale;
            rhb_telemetry::observe!("nn/requant_scale", f64::from(row_deq[i]));
        }
        let acc = self.scratch.acc.filled(m * n);
        // y_q = x_q W_q^T (exact integer arithmetic, prepacked panels)
        gemm_i8::gemm_i8_nt_pb(xq, pb, acc, m);
        let mut out = vec![0.0f32; m * n];
        match &self.bias {
            Some(bias) => {
                let b = bias.effective_into(&mut self.scratch.bias_eff);
                for ((row, acc_row), &deq) in out.chunks_mut(n).zip(acc.chunks(n)).zip(&row_deq) {
                    for ((o, &a), &bv) in row.iter_mut().zip(acc_row).zip(b) {
                        *o = a as f32 * deq + bv;
                    }
                }
            }
            None => {
                for ((row, acc_row), &deq) in out.chunks_mut(n).zip(acc.chunks(n)).zip(&row_deq) {
                    for (o, &a) in row.iter_mut().zip(acc_row) {
                        *o = a as f32 * deq;
                    }
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }
}

impl Layer for Linear {
    fn forward_mode(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(
            input.shape().dim(1),
            self.in_features,
            "linear layer fed {} features, expects {}",
            input.shape().dim(1),
            self.in_features
        );
        if mode == Mode::Int8 {
            return self.forward_int8(input);
        }
        let batch = input.shape().dim(0);
        let (m, k, n) = (batch, self.in_features, self.out_features);
        let wmat = self.weight.effective_into(&mut self.scratch.wmat);
        let mut out = vec![0.0f32; m * n];
        // y = x W^T
        gemm::gemm_nt(input.data(), wmat, &mut out, m, k, n);
        if let Some(bias) = &self.bias {
            let b = bias.effective_into(&mut self.scratch.bias_eff);
            for row in out.chunks_mut(n) {
                for (o, &bv) in row.iter_mut().zip(b) {
                    *o += bv;
                }
            }
        }
        if mode.caches() {
            self.cached_input = Some(input.clone());
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// The one backward body: the selected `dW` entries (all of them
    /// through one `gemm_tn`, a masked few from the same kernel run on
    /// their rows alone) and bias entries, then `dX` when `input_grad`
    /// asks.
    fn backward_pass(
        &mut self,
        grad_output: &Tensor,
        params: &ParamGrads,
        input_grad: bool,
    ) -> Option<Tensor> {
        let input = self
            .cached_input
            .take()
            .expect("backward called without training-mode forward");
        let batch = input.shape().dim(0);
        let (n, k) = (self.out_features, self.in_features);
        let gy = grad_output.data();
        match params.narrow(0, n * k) {
            ParamGrads::Skip => {}
            ParamGrads::All => {
                // dW = dY^T X  (shape [out, in])
                let dw = self.scratch.dw.filled(n * k);
                gemm::gemm_tn(gy, input.data(), dw, n, batch, k);
                for (g, &d) in self.weight.grad.data_mut().iter_mut().zip(&*dw) {
                    *g += d;
                }
            }
            ParamGrads::Only(entries) => {
                let row = self.scratch.dw.filled(k);
                let gw = self.weight.grad.data_mut();
                for e in entries {
                    let o = e / k;
                    gemm::gemm_tn_range(gy, input.data(), row, n, batch, k, o..o + 1);
                    gw[e] += row[e % k];
                }
            }
        }
        if let Some(bias) = &mut self.bias {
            let selected = params.narrow(n * k, n);
            let bg = bias.grad.data_mut();
            for row in gy.chunks(n) {
                for o in selected.entries(n) {
                    bg[o] += row[o];
                }
            }
        }
        if !input_grad {
            return None;
        }
        // dX = dY W  (shape [batch, in])
        let wmat = self.weight.effective_into(&mut self.scratch.wmat);
        let mut dx = vec![0.0f32; batch * k];
        gemm::gemm(gy, wmat, &mut dx, batch, n, k);
        Some(Tensor::from_vec(dx, &[batch, k]))
    }

    fn params(&self) -> Vec<&Parameter> {
        let mut v = vec![&self.weight];
        if let Some(b) = &self.bias {
            v.push(b);
        }
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut v = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            v.push(b);
        }
        v
    }

    fn describe(&self) -> String {
        format!("Linear({}->{})", self.in_features, self.out_features)
    }

    fn op_name(&self) -> &'static str {
        "linear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Rng;

    /// Central-difference check of weight and input gradients.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(11);
        let mut layer = Linear::new(3, 2, true, &mut rng);
        let x = Tensor::from_vec(vec![0.2, -0.4, 0.9, 0.1, 0.3, -0.7], &[2, 3]);
        // Loss = sum(y^2)/2 so dL/dy = y.
        let y = layer.forward(&x);
        let gin = layer.backward(&y.clone());

        let eps = 1e-3;
        // Weight gradient check.
        for idx in 0..6 {
            let analytic = layer.weight.grad.data()[idx];
            let orig = layer.weight.value.data()[idx];
            layer.weight.value.data_mut()[idx] = orig + eps;
            let lp: f32 = layer
                .forward_mode(&x, Mode::Eval)
                .data()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            layer.weight.value.data_mut()[idx] = orig - eps;
            let lm: f32 = layer
                .forward_mode(&x, Mode::Eval)
                .data()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            layer.weight.value.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 1e-2,
                "weight[{idx}]: analytic {analytic} vs numeric {numeric}"
            );
        }
        // Input gradient check.
        for idx in 0..6 {
            let analytic = gin.data()[idx];
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp: f32 = layer
                .forward_mode(&xp, Mode::Eval)
                .data()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let lm: f32 = layer
                .forward_mode(&xm, Mode::Eval)
                .data()
                .iter()
                .map(|v| v * v / 2.0)
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 1e-2,
                "input[{idx}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn bias_shifts_output() {
        let mut rng = Rng::seed_from(4);
        let mut layer = Linear::new(2, 2, true, &mut rng);
        let x = Tensor::zeros(&[1, 2]);
        let y0 = layer.forward_mode(&x, Mode::Eval);
        layer.bias.as_mut().unwrap().value.data_mut()[0] = 5.0;
        let y1 = layer.forward_mode(&x, Mode::Eval);
        assert_eq!(y1.data()[0] - y0.data()[0], 5.0);
        assert_eq!(y1.data()[1], y0.data()[1]);
    }

    #[test]
    fn no_bias_layer_has_single_param() {
        let mut rng = Rng::seed_from(5);
        let layer = Linear::new(4, 4, false, &mut rng);
        assert_eq!(layer.params().len(), 1);
    }

    #[test]
    #[should_panic(expected = "backward called without")]
    fn backward_without_forward_panics() {
        let mut rng = Rng::seed_from(6);
        let mut layer = Linear::new(2, 2, false, &mut rng);
        layer.backward(&Tensor::zeros(&[1, 2]));
    }

    fn deployed_layer(seed: u64) -> Linear {
        let mut rng = Rng::seed_from(seed);
        let mut layer = Linear::new(16, 8, true, &mut rng);
        for p in layer.params_mut() {
            p.deploy().unwrap();
        }
        layer
    }

    fn random_input(seed: u64, rows: usize) -> Tensor {
        let mut rng = Rng::seed_from(seed);
        let mut x = Tensor::zeros(&[rows, 16]);
        for v in x.data_mut() {
            *v = rng.uniform(-1.0, 1.0);
        }
        x
    }

    /// The int8 path's only error source is activation rounding (deployed
    /// weights sit exactly on the grid), so every logit must land within
    /// half an activation step through the output's absolute weight mass.
    #[test]
    fn int8_forward_tracks_fake_quant_reference() {
        let mut layer = deployed_layer(8);
        let x = random_input(9, 4);
        let y_ref = layer.forward_mode(&x, Mode::Eval);
        let y_i8 = layer.forward_mode(&x, Mode::Int8);
        let w = layer.params()[0];
        let ws = w.scheme.unwrap();
        let wabs: Vec<f32> = (0..8)
            .map(|j| {
                w.value.data()[j * 16..(j + 1) * 16]
                    .iter()
                    .map(|&v| ws.fake(v).abs())
                    .sum()
            })
            .collect();
        for (i, (row_ref, row_i8)) in y_ref
            .data()
            .chunks(8)
            .zip(y_i8.data().chunks(8))
            .enumerate()
        {
            let s_a = QuantScheme::for_activations(&x.data()[i * 16..(i + 1) * 16]).scale;
            for j in 0..8 {
                let bound = 0.5 * s_a * wabs[j] + 1e-5;
                assert!(
                    (row_ref[j] - row_i8[j]).abs() <= bound,
                    "row {i} out {j}: {} vs {} (bound {bound})",
                    row_ref[j],
                    row_i8[j]
                );
            }
        }
    }

    /// Per-sample activation scales make int8 outputs independent of
    /// batch composition: a row forwarded alone equals the same row
    /// forwarded inside a batch, bit for bit.
    #[test]
    fn int8_outputs_are_batch_invariant() {
        let mut layer = deployed_layer(10);
        let x = random_input(11, 5);
        let y_all = layer.forward_mode(&x, Mode::Int8);
        for i in 0..5 {
            let xi = Tensor::from_vec(x.data()[i * 16..(i + 1) * 16].to_vec(), &[1, 16]);
            let yi = layer.forward_mode(&xi, Mode::Int8);
            assert_eq!(yi.data(), &y_all.data()[i * 8..(i + 1) * 8]);
        }
    }

    #[test]
    fn packed_weight_cache_invalidates_on_bit_flip_reload() {
        let mut layer = deployed_layer(14);
        let x = random_input(15, 2);
        let before = layer.forward_mode(&x, Mode::Int8); // warms the cache
        let mut q = layer.weight.quantized();
        q.flip_bit(7, 6).unwrap();
        layer.weight.load_quantized(&q);
        let after_warm = layer.forward_mode(&x, Mode::Int8);
        assert_ne!(before.data(), after_warm.data());
        let mut cold = deployed_layer(14);
        cold.weight.load_quantized(&q);
        let after_cold = cold.forward_mode(&x, Mode::Int8);
        assert_eq!(after_warm.data(), after_cold.data());
    }

    #[test]
    fn eval_mode_does_not_cache() {
        let mut rng = Rng::seed_from(7);
        let mut layer = Linear::new(2, 2, false, &mut rng);
        layer.forward_mode(&Tensor::zeros(&[1, 2]), Mode::Eval);
        assert!(layer.cached_input.is_none());
    }
}
