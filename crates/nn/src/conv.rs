//! 2-D convolution via im2col, batched over images on the global pool.
//!
//! The forward pass lowers each image to a column matrix (im2col) and
//! multiplies by the flattened kernel through the blocked GEMM kernels in
//! [`crate::gemm`]; the backward pass runs the transposed lowering
//! (col2im) to recover input gradients. Both passes parallelize over the
//! batch dimension: every image's lowering, GEMM, and scatter is
//! independent, and the per-image gradient partials are folded back in
//! batch order afterwards, so results are bit-identical at every thread
//! count (see `DESIGN.md`, "Threading model").
//!
//! All temporaries — column matrices, effective weights, gradient
//! partials — live in layer-owned [`ScratchBuffer`]s that grow to the
//! high-water mark of the shapes seen and are reused across calls.

use crate::error::{NnError, Result};
use crate::gemm;
use crate::gemm_i8;
use crate::init::{kaiming_normal, Rng};
use crate::layer::{Layer, Mode, ParamGrads};
use crate::param::Parameter;
use crate::quant::QuantScheme;
use crate::scratch::{ScratchBuffer, ScratchI32, ScratchI8};
use crate::tensor::Tensor;

/// Minimum whole-layer flop count (`2·batch·M·K·N`) before an int8 conv
/// forward is split across the pool at all.
///
/// Below this the per-dispatch cost of waking worker threads exceeds
/// the GEMM work itself — the zoo-scale models that exposed the
/// 2-thread int8 regression in `BENCH_5` spend ~1–2 µs of arithmetic
/// per conv call against ~10 µs of pool hand-off — so small layers run
/// inline on the calling thread at every thread count. Batch chunks are
/// independent images, so this changes scheduling only: outputs are
/// bit-identical either way (see `DESIGN.md`, "Threading model").
pub const BATCH_PAR_MIN_FLOPS: usize = 1 << 21;

/// Runs a prepared batch task set: inline when there is only one task
/// (no pool hand-off), on the global pool otherwise.
fn run_batch_tasks(tasks: Vec<rhb_par::Task<'_>>) {
    if tasks.len() == 1 {
        for t in tasks {
            t();
        }
    } else {
        rhb_par::pool().run(tasks);
    }
}

/// Spatial geometry of a convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every side.
    pub padding: usize,
}

impl ConvGeometry {
    /// Output spatial side for an input of side `in_side`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the kernel does not fit the
    /// padded input.
    pub fn out_side(&self, in_side: usize) -> Result<usize> {
        let padded = in_side + 2 * self.padding;
        if padded < self.kernel {
            return Err(NnError::ShapeMismatch {
                expected: vec![self.kernel],
                actual: vec![padded],
                op: "conv kernel vs padded input",
            });
        }
        Ok((padded - self.kernel) / self.stride + 1)
    }
}

/// A 2-D convolution layer over `[batch, channels, height, width]` tensors.
///
/// The kernel tensor has shape `[out_ch, in_ch, k, k]`. The forward pass
/// lowers each image to a column matrix (im2col) and multiplies by the
/// flattened kernel, the standard CPU formulation; the backward pass runs the
/// transposed lowering (col2im) to recover input gradients — which the
/// trigger-learning step of the attack needs all the way back to the pixels.
pub struct Conv2d {
    geom: ConvGeometry,
    weight: Parameter,
    bias: Option<Parameter>,
    cached: Option<CachedForward>,
    scratch: ConvScratch,
    /// Int8 engine: persistent packed weight panels (see
    /// [`ConvPackedCache`]).
    packed: Option<ConvPackedCache>,
}

/// Persistent int8 weight state: the kernel's `i8` steps quantized and
/// packed into GEMM panels **once per weight generation** instead of on
/// every forward call.
///
/// Invalidation contract: the cache is valid iff
/// `weight.generation() == self.generation` (see
/// [`Parameter::generation`]). Every weight mutation path — optimizer
/// steps, `deploy`, and crucially `load_quantized` (the Rowhammer flip
/// injection path) — advances the generation, so a mid-run bit flip
/// always repacks before the next int8 forward; a stale panel can never
/// mask a flip.
struct ConvPackedCache {
    /// `[out_ch, C·k·k]` weight steps packed for [`gemm_i8::gemm_i8_pa_serial`].
    pa: gemm_i8::PackedA,
    /// The frozen weight quantization scheme at pack time.
    scheme: QuantScheme,
    /// `Parameter::generation()` observed at pack time.
    generation: u64,
}

/// Returns the packed weight panels, rebuilding them first if `slot` is
/// empty or stale. Free function over disjoint `Conv2d` fields so the
/// returned borrow ties only to `slot`, leaving the other scratch
/// arenas free for the caller.
fn ensure_packed<'a>(
    slot: &'a mut Option<ConvPackedCache>,
    weight: &Parameter,
    wq: &mut ScratchI8,
    m: usize,
    k: usize,
) -> (&'a gemm_i8::PackedA, QuantScheme) {
    let generation = weight.generation();
    if slot.as_ref().is_none_or(|c| c.generation != generation) {
        let (steps, scheme) = weight.quantized_into(wq);
        *slot = Some(ConvPackedCache {
            pa: gemm_i8::PackedA::pack(steps, m, k),
            scheme,
            generation,
        });
        rhb_telemetry::add_counter("nn/int8_weight_repacks", 1);
    }
    let c = slot.as_ref().expect("slot was just filled");
    (&c.pa, c.scheme)
}

/// Shape of the last training-mode forward; the column matrices
/// themselves live in `ConvScratch::cols` (one contiguous block for the
/// whole batch) instead of a per-image `Vec<Tensor>`, so backward reads
/// them in place without any copies.
struct CachedForward {
    in_side: usize,
    batch: usize,
}

/// Layer-owned arenas, reused across calls (see module docs).
#[derive(Debug, Default)]
struct ConvScratch {
    /// Effective (fake-quantized) kernel, flattened to `[out_ch, C*k*k]`.
    wmat: ScratchBuffer,
    /// Effective bias, `[out_ch]`.
    bias_eff: ScratchBuffer,
    /// Training-mode im2col columns for the whole batch — the forward
    /// cache consumed by `backward`.
    cols: ScratchBuffer,
    /// Eval-mode columns and backward `dcols`; kept separate from `cols`
    /// so eval forwards between a training forward and its backward do
    /// not clobber the cache.
    work: ScratchBuffer,
    /// Per-image `dW` partials, `[batch, out_ch * C*k*k]`.
    dw: ScratchBuffer,
    /// Batch-folded `dW`.
    dw_acc: ScratchBuffer,
    /// Per-image bias-gradient partials, `[batch, out_ch]`.
    dbias: ScratchBuffer,
    /// Int8 engine: quantized kernel steps, `[out_ch, C*k*k]`.
    wq: ScratchI8,
    /// Int8 engine: quantized input activations, `[batch, C, H, W]`.
    xq: ScratchI8,
    /// Int8 engine: quantized im2col columns for the whole batch.
    colsq: ScratchI8,
    /// Int8 engine: `i32` GEMM accumulators, `[batch, out_ch * out²]`.
    acc: ScratchI32,
}

impl std::fmt::Debug for Conv2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Conv2d({:?})", self.geom)
    }
}

/// Lowers one image `[C, H, W]` into a `[C*k*k, out*out]` column matrix.
/// Generic over the element type: the f32 path lowers raw activations,
/// the int8 path lowers already-quantized steps (zero padding is exact
/// in both — the symmetric scheme has a zero zero-point).
fn im2col_into<T: Copy + Default>(
    g: ConvGeometry,
    image: &[T],
    in_side: usize,
    out: usize,
    cols: &mut [T],
) {
    cols.fill(T::default());
    for c in 0..g.in_channels {
        let chan = &image[c * in_side * in_side..(c + 1) * in_side * in_side];
        for ky in 0..g.kernel {
            for kx in 0..g.kernel {
                let row = (c * g.kernel + ky) * g.kernel + kx;
                let row_base = row * out * out;
                for oy in 0..out {
                    let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                    if iy < 0 || iy as usize >= in_side {
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..out {
                        let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                        if ix < 0 || ix as usize >= in_side {
                            continue;
                        }
                        cols[row_base + oy * out + ox] = chan[iy * in_side + ix as usize];
                    }
                }
            }
        }
    }
}

/// Strided variant of [`im2col_into`] for the int8 engine's
/// merged-batch GEMM: lowers one image into its `out²`-wide column band
/// of a `[C*k*k, row_stride]` matrix shared by a whole batch chunk
/// (band `i` starts at column `col_offset = i·out²`). The caller
/// zero-fills the matrix once per chunk; this only writes in-bounds
/// gathers, so padding stays exactly zero (the symmetric scheme has a
/// zero zero-point).
fn im2col_strided_into<T: Copy>(
    g: ConvGeometry,
    image: &[T],
    in_side: usize,
    out: usize,
    cols: &mut [T],
    row_stride: usize,
    col_offset: usize,
) {
    for c in 0..g.in_channels {
        let chan = &image[c * in_side * in_side..(c + 1) * in_side * in_side];
        for ky in 0..g.kernel {
            for kx in 0..g.kernel {
                let row = (c * g.kernel + ky) * g.kernel + kx;
                let row_base = row * row_stride + col_offset;
                if g.stride == 1 {
                    // Unit stride: the valid `ox` range maps to a
                    // contiguous run of the input row — one slice copy
                    // per output row instead of per-element gathers.
                    let ox_lo = g.padding.saturating_sub(kx);
                    let ox_hi = (in_side + g.padding).saturating_sub(kx).min(out);
                    if ox_lo >= ox_hi {
                        continue;
                    }
                    let run = ox_hi - ox_lo;
                    for oy in 0..out {
                        let iy = (oy + ky) as isize - g.padding as isize;
                        if iy < 0 || iy as usize >= in_side {
                            continue;
                        }
                        let src = iy as usize * in_side + ox_lo + kx - g.padding;
                        let dst = row_base + oy * out + ox_lo;
                        cols[dst..dst + run].copy_from_slice(&chan[src..src + run]);
                    }
                } else {
                    for oy in 0..out {
                        let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                        if iy < 0 || iy as usize >= in_side {
                            continue;
                        }
                        let iy = iy as usize;
                        for ox in 0..out {
                            let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                            if ix < 0 || ix as usize >= in_side {
                                continue;
                            }
                            cols[row_base + oy * out + ox] = chan[iy * in_side + ix as usize];
                        }
                    }
                }
            }
        }
    }
}

/// Scatters a `[C*k*k, out*out]` column-gradient back onto an image.
fn col2im_into(g: ConvGeometry, cols: &[f32], in_side: usize, out: usize, image: &mut [f32]) {
    image.fill(0.0);
    for c in 0..g.in_channels {
        for ky in 0..g.kernel {
            for kx in 0..g.kernel {
                let row = (c * g.kernel + ky) * g.kernel + kx;
                let row_base = row * out * out;
                for oy in 0..out {
                    let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                    if iy < 0 || iy as usize >= in_side {
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..out {
                        let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                        if ix < 0 || ix as usize >= in_side {
                            continue;
                        }
                        image[(c * in_side + iy) * in_side + ix as usize] +=
                            cols[row_base + oy * out + ox];
                    }
                }
            }
        }
    }
}

impl Conv2d {
    /// Creates a Kaiming-initialized convolution.
    pub fn new(geom: ConvGeometry, bias: bool, rng: &mut Rng) -> Self {
        let fan_in = geom.in_channels * geom.kernel * geom.kernel;
        let weight = Parameter::new(
            format!(
                "conv{}x{}k{}.weight",
                geom.in_channels, geom.out_channels, geom.kernel
            ),
            kaiming_normal(
                &[
                    geom.out_channels,
                    geom.in_channels,
                    geom.kernel,
                    geom.kernel,
                ],
                fan_in,
                rng,
            ),
        );
        let bias = bias.then(|| {
            Parameter::new(
                format!(
                    "conv{}x{}k{}.bias",
                    geom.in_channels, geom.out_channels, geom.kernel
                ),
                Tensor::zeros(&[geom.out_channels]),
            )
        });
        Conv2d {
            geom,
            weight,
            bias,
            cached: None,
            scratch: ConvScratch::default(),
            packed: None,
        }
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> ConvGeometry {
        self.geom
    }

    /// The int8 engine's forward pass. Each image is quantized under its
    /// own dynamic activation scale (so outputs are batch-size
    /// invariant — see `DESIGN.md`, "Inference engines"), lowered to
    /// `i8` columns directly (no f32 column buffer), multiplied against
    /// the persistent packed weight panels with exact `i32`
    /// accumulation, and requantized back to the activation scale with
    /// the f32 bias applied in the same sweep.
    ///
    /// Each batch chunk runs ONE merged GEMM over `chunk·out²` columns
    /// (images side by side) instead of a GEMM per image, amortizing the
    /// per-call blocking and packing overhead that dominates at zoo
    /// scale. Integer accumulation is exact under any column blocking
    /// and per-image scales are applied only in the epilogue, so the
    /// output is bit-identical at every thread count and chunking.
    fn forward_int8(&mut self, input: &Tensor) -> Tensor {
        let dims = input.shape().dims();
        assert_eq!(dims.len(), 4, "conv input must be [batch, C, H, W]");
        let (batch, chans, in_side) = (dims[0], dims[1], dims[2]);
        assert_eq!(chans, self.geom.in_channels, "channel mismatch");
        assert_eq!(dims[2], dims[3], "only square inputs supported");
        let g = self.geom;
        let out = g
            .out_side(in_side)
            .expect("kernel must fit the padded input");
        let rows = g.in_channels * g.kernel * g.kernel;
        let ow2 = out * out;
        let image_len = chans * in_side * in_side;
        let gout_len = g.out_channels * ow2;

        let (pa, w_scheme) = ensure_packed(
            &mut self.packed,
            &self.weight,
            &mut self.scratch.wq,
            g.out_channels,
            rows,
        );
        let bias_eff: Option<&[f32]> = self
            .bias
            .as_ref()
            .map(|b| b.effective_into(&mut self.scratch.bias_eff));
        let xq_all = self.scratch.xq.filled(batch * image_len);
        let mut img_deq = vec![0.0f32; batch];
        for (b, (src, dst)) in input
            .data()
            .chunks(image_len)
            .zip(xq_all.chunks_mut(image_len))
            .enumerate()
        {
            let a_scheme = QuantScheme::for_activations(src);
            a_scheme.quantize_into(src, dst);
            img_deq[b] = a_scheme.scale * w_scheme.scale;
            rhb_telemetry::observe!("nn/requant_scale", f64::from(img_deq[b]));
        }
        let xq_all: &[i8] = xq_all;
        let img_deq: &[f32] = &img_deq;
        let colsq_all = self.scratch.colsq.filled(batch * rows * ow2);
        let acc_all = self.scratch.acc.filled(batch * g.out_channels * ow2);

        let mut output = vec![0.0f32; batch * gout_len];
        let flops = 2 * batch * g.out_channels * rows * ow2;
        let threads = if flops < BATCH_PAR_MIN_FLOPS {
            1
        } else {
            rhb_par::pool().threads()
        };
        let ranges = rhb_par::split_range(batch, threads, 1);
        let out_chunks = rhb_par::split_slice_mut(&mut output, &ranges, gout_len);
        let col_chunks = rhb_par::split_slice_mut(colsq_all, &ranges, rows * ow2);
        let acc_chunks = rhb_par::split_slice_mut(acc_all, &ranges, g.out_channels * ow2);
        let is_1x1 = g.kernel == 1 && g.stride == 1 && g.padding == 0;
        let tasks: Vec<rhb_par::Task<'_>> = ranges
            .iter()
            .zip(
                out_chunks
                    .into_iter()
                    .zip(col_chunks.into_iter().zip(acc_chunks)),
            )
            .map(|(r, (out_chunk, (col_chunk, acc_chunk)))| {
                let r = r.clone();
                Box::new(move || {
                    let clen = r.len();
                    let cstride = clen * ow2;
                    // Lower the whole chunk into one [rows, clen·out²]
                    // column matrix, images side by side.
                    if is_1x1 {
                        // 1×1 s1 p0: column row r of image i IS channel
                        // r — a straight strided copy, every element
                        // written (no zero-fill needed).
                        for (i, b) in r.clone().enumerate() {
                            let image = &xq_all[b * image_len..(b + 1) * image_len];
                            for c in 0..rows {
                                let dst = c * cstride + i * ow2;
                                col_chunk[dst..dst + ow2]
                                    .copy_from_slice(&image[c * ow2..(c + 1) * ow2]);
                            }
                        }
                    } else {
                        col_chunk[..rows * cstride].fill(0);
                        for (i, b) in r.clone().enumerate() {
                            let image = &xq_all[b * image_len..(b + 1) * image_len];
                            im2col_strided_into(
                                g,
                                image,
                                in_side,
                                out,
                                col_chunk,
                                cstride,
                                i * ow2,
                            );
                        }
                    }
                    // One merged GEMM for the chunk.
                    gemm_i8::gemm_i8_pa_serial(
                        pa,
                        &col_chunk[..rows * cstride],
                        acc_chunk,
                        cstride,
                    );
                    // Per-image requantize epilogue (each image has its
                    // own deq scale).
                    for (i, b) in r.clone().enumerate() {
                        let deq = img_deq[b];
                        let dst = &mut out_chunk[i * gout_len..(i + 1) * gout_len];
                        for oc in 0..g.out_channels {
                            let bval = bias_eff.map_or(0.0, |bv| bv[oc]);
                            let arow =
                                &acc_chunk[oc * cstride + i * ow2..oc * cstride + i * ow2 + ow2];
                            for (o, &a) in dst[oc * ow2..(oc + 1) * ow2].iter_mut().zip(arow) {
                                *o = a as f32 * deq + bval;
                            }
                        }
                    }
                }) as rhb_par::Task<'_>
            })
            .collect();
        run_batch_tasks(tasks);
        Tensor::from_vec(output, &[batch, g.out_channels, out, out])
    }
}

impl Layer for Conv2d {
    fn forward_mode(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Int8 {
            return self.forward_int8(input);
        }
        let dims = input.shape().dims();
        assert_eq!(dims.len(), 4, "conv input must be [batch, C, H, W]");
        let (batch, chans, in_side) = (dims[0], dims[1], dims[2]);
        assert_eq!(chans, self.geom.in_channels, "channel mismatch");
        assert_eq!(dims[2], dims[3], "only square inputs supported");
        let g = self.geom;
        let out = g
            .out_side(in_side)
            .expect("kernel must fit the padded input");
        let rows = g.in_channels * g.kernel * g.kernel;
        let ow2 = out * out;
        let gout_len = g.out_channels * ow2;
        let image_len = chans * in_side * in_side;

        let wmat = self.weight.effective_into(&mut self.scratch.wmat);
        let bias_eff: Option<&[f32]> = self
            .bias
            .as_ref()
            .map(|b| b.effective_into(&mut self.scratch.bias_eff));
        // Training forwards fill the cache arena; eval forwards use the
        // separate work arena so an interleaved eval pass cannot clobber
        // columns that a pending backward still needs.
        let colbuf = if mode.caches() {
            &mut self.scratch.cols
        } else {
            &mut self.scratch.work
        };
        let cols_all = colbuf.filled(batch * rows * ow2);

        let mut output = vec![0.0f32; batch * gout_len];
        let ranges = rhb_par::split_range(batch, rhb_par::pool().threads(), 1);
        let out_chunks = rhb_par::split_slice_mut(&mut output, &ranges, gout_len);
        let col_chunks = rhb_par::split_slice_mut(cols_all, &ranges, rows * ow2);
        let input_data = input.data();
        let tasks: Vec<rhb_par::Task<'_>> = ranges
            .iter()
            .zip(out_chunks.into_iter().zip(col_chunks))
            .map(|(r, (out_chunk, col_chunk))| {
                let r = r.clone();
                Box::new(move || {
                    for (i, b) in r.clone().enumerate() {
                        let image = &input_data[b * image_len..(b + 1) * image_len];
                        let cols = &mut col_chunk[i * rows * ow2..(i + 1) * rows * ow2];
                        im2col_into(g, image, in_side, out, cols);
                        let dst = &mut out_chunk[i * gout_len..(i + 1) * gout_len];
                        gemm::gemm_serial(wmat, cols, dst, g.out_channels, rows, ow2);
                        if let Some(bv) = bias_eff {
                            for (oc, &bval) in bv.iter().enumerate() {
                                for v in &mut dst[oc * ow2..(oc + 1) * ow2] {
                                    *v += bval;
                                }
                            }
                        }
                    }
                }) as rhb_par::Task<'_>
            })
            .collect();
        run_batch_tasks(tasks);

        if mode.caches() {
            self.cached = Some(CachedForward { in_side, batch });
        }
        Tensor::from_vec(output, &[batch, g.out_channels, out, out])
    }

    /// The one backward body. Per image it stages the selected `dW`
    /// entries (all of them through `gemm_nt_serial`, a masked few as its
    /// per-element dot products) and bias sums, and runs the
    /// input-gradient GEMM and col2im only when `input_grad` asks; the
    /// staged partials are then folded in batch order into the parameter
    /// gradients.
    fn backward_pass(
        &mut self,
        grad_output: &Tensor,
        params: &ParamGrads,
        input_grad: bool,
    ) -> Option<Tensor> {
        let cache = self
            .cached
            .take()
            .expect("backward called without training-mode forward");
        let g = self.geom;
        let dims = grad_output.shape().dims();
        let (batch, out) = (dims[0], dims[2]);
        assert_eq!(
            batch, cache.batch,
            "grad batch mismatch with cached forward"
        );
        let in_side = cache.in_side;
        let rows = g.in_channels * g.kernel * g.kernel;
        let ow2 = out * out;
        let gout_len = g.out_channels * ow2;
        let image_len = g.in_channels * in_side * in_side;
        let wk = g.out_channels * rows;
        let w_sel = params.narrow(0, wk);
        let b_sel = match self.bias {
            Some(_) => params.narrow(wk, g.out_channels),
            None => ParamGrads::Skip,
        };
        // Each image stages only what is selected: no partials at all for
        // an input-only pass, and no dX buffers without `input_grad`.
        let dw_len = w_sel.entries(wk).count();
        let dbias_len = b_sel.entries(g.out_channels).count();
        let (dcols_len, gin_len) = if input_grad {
            (rows * ow2, image_len)
        } else {
            (0, 0)
        };

        let wmat = self.weight.effective_into(&mut self.scratch.wmat);
        let cols_all = self.scratch.cols.slice(batch * rows * ow2);
        let dw_all = self.scratch.dw.filled(batch * dw_len);
        let dcols_all = self.scratch.work.filled(batch * dcols_len);
        let dbias_all = self.scratch.dbias.zeroed(batch * dbias_len);

        let mut grad_input = vec![0.0f32; batch * gin_len];
        // A pass without dX stages a few dot products per image: too
        // little work to hand to the pool.
        let threads = if input_grad {
            rhb_par::pool().threads()
        } else {
            1
        };
        let ranges = rhb_par::split_range(batch, threads, 1);
        let gin_chunks = rhb_par::split_slice_mut(&mut grad_input, &ranges, gin_len);
        let dw_chunks = rhb_par::split_slice_mut(dw_all, &ranges, dw_len);
        let dcols_chunks = rhb_par::split_slice_mut(dcols_all, &ranges, dcols_len);
        let dbias_chunks = rhb_par::split_slice_mut(dbias_all, &ranges, dbias_len);
        let gout = grad_output.data();
        let (w_sel, b_sel) = (&w_sel, &b_sel);

        let tasks: Vec<rhb_par::Task<'_>> = ranges
            .iter()
            .zip(gin_chunks)
            .zip(dw_chunks)
            .zip(dcols_chunks)
            .zip(dbias_chunks)
            .map(|((((r, gin_c), dw_c), dcols_c), dbias_c)| {
                let r = r.clone();
                Box::new(move || {
                    for (i, b) in r.clone().enumerate() {
                        let gy = &gout[b * gout_len..(b + 1) * gout_len];
                        // dW_b = dY cols^T, stashed per image and folded
                        // below in batch order.
                        let cols = &cols_all[b * rows * ow2..(b + 1) * rows * ow2];
                        let dw = &mut dw_c[i * dw_len..(i + 1) * dw_len];
                        if *w_sel == ParamGrads::All {
                            gemm::gemm_nt_serial(gy, cols, dw, g.out_channels, ow2, rows);
                        } else {
                            for (d, k) in dw.iter_mut().zip(w_sel.entries(wk)) {
                                let (oc, row) = (k / rows, k % rows);
                                *d = gemm::dot(
                                    &gy[oc * ow2..(oc + 1) * ow2],
                                    &cols[row * ow2..(row + 1) * ow2],
                                );
                            }
                        }
                        let dbias = &mut dbias_c[i * dbias_len..(i + 1) * dbias_len];
                        for (d, oc) in dbias.iter_mut().zip(b_sel.entries(g.out_channels)) {
                            *d = gy[oc * ow2..(oc + 1) * ow2].iter().sum();
                        }
                        if input_grad {
                            // dcols = W^T dY, then scatter back to the image.
                            let dcols = &mut dcols_c[i * rows * ow2..(i + 1) * rows * ow2];
                            gemm::gemm_tn_serial(wmat, gy, dcols, rows, g.out_channels, ow2);
                            let gimg = &mut gin_c[i * image_len..(i + 1) * image_len];
                            col2im_into(g, dcols, in_side, out, gimg);
                        }
                    }
                }) as rhb_par::Task<'_>
            })
            .collect();
        run_batch_tasks(tasks);

        // Serial folds in batch order: bit-identical to the single-thread
        // accumulation regardless of how the batch was chunked above.
        let dw_all = self.scratch.dw.slice(batch * dw_len);
        let dw_acc = self.scratch.dw_acc.zeroed(dw_len);
        for b in 0..batch {
            for (acc, &d) in dw_acc.iter_mut().zip(&dw_all[b * dw_len..(b + 1) * dw_len]) {
                *acc += d;
            }
        }
        let gw = self.weight.grad.data_mut();
        for (k, &acc) in w_sel.entries(wk).zip(&*dw_acc) {
            gw[k] += acc;
        }
        if let Some(bias) = &mut self.bias {
            let dbias_all = self.scratch.dbias.slice(batch * dbias_len);
            let bg = bias.grad.data_mut();
            for b in 0..batch {
                let dbias = &dbias_all[b * dbias_len..(b + 1) * dbias_len];
                for (oc, &d) in b_sel.entries(g.out_channels).zip(dbias) {
                    bg[oc] += d;
                }
            }
        }
        input_grad.then(|| Tensor::from_vec(grad_input, &[batch, g.in_channels, in_side, in_side]))
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
        format!(
            "Conv2d({}->{}, k{}, s{}, p{})",
            self.geom.in_channels,
            self.geom.out_channels,
            self.geom.kernel,
            self.geom.stride,
            self.geom.padding
        )
    }

    fn op_name(&self) -> &'static str {
        "conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Rng;

    fn tiny_conv(stride: usize, padding: usize) -> Conv2d {
        let mut rng = Rng::seed_from(9);
        Conv2d::new(
            ConvGeometry {
                in_channels: 2,
                out_channels: 3,
                kernel: 3,
                stride,
                padding,
            },
            true,
            &mut rng,
        )
    }

    #[test]
    fn output_shape_follows_geometry() {
        let mut conv = tiny_conv(1, 1);
        let y = conv.forward_mode(&Tensor::zeros(&[2, 2, 8, 8]), Mode::Eval);
        assert_eq!(y.shape().dims(), &[2, 3, 8, 8]);
        let mut strided = tiny_conv(2, 1);
        let y = strided.forward_mode(&Tensor::zeros(&[1, 2, 8, 8]), Mode::Eval);
        assert_eq!(y.shape().dims(), &[1, 3, 4, 4]);
    }

    #[test]
    fn oversized_kernel_is_a_shape_error_not_a_panic() {
        let g = ConvGeometry {
            in_channels: 1,
            out_channels: 1,
            kernel: 7,
            stride: 1,
            padding: 1,
        };
        // 4 + 2*1 = 6 < 7: the kernel cannot fit.
        let err = g.out_side(4).unwrap_err();
        assert!(matches!(err, NnError::ShapeMismatch { op, .. } if op.contains("conv")));
        assert_eq!(g.out_side(5).unwrap(), 1);
    }

    #[test]
    fn identity_kernel_copies_input() {
        let mut rng = Rng::seed_from(0);
        let mut conv = Conv2d::new(
            ConvGeometry {
                in_channels: 1,
                out_channels: 1,
                kernel: 1,
                stride: 1,
                padding: 0,
            },
            false,
            &mut rng,
        );
        conv.weight.value.data_mut()[0] = 1.0;
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let y = conv.forward_mode(&x, Mode::Eval);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution_value() {
        let mut rng = Rng::seed_from(0);
        let mut conv = Conv2d::new(
            ConvGeometry {
                in_channels: 1,
                out_channels: 1,
                kernel: 3,
                stride: 1,
                padding: 0,
            },
            false,
            &mut rng,
        );
        // All-ones kernel: output = sum of the 3x3 window.
        for v in conv.weight.value.data_mut() {
            *v = 1.0;
        }
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]);
        let y = conv.forward_mode(&x, Mode::Eval);
        assert_eq!(y.data(), &[45.0]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut conv = tiny_conv(1, 1);
        let mut rng = Rng::seed_from(21);
        let mut x = Tensor::zeros(&[1, 2, 5, 5]);
        for v in x.data_mut() {
            *v = rng.uniform(-1.0, 1.0);
        }
        let y = conv.forward(&x);
        let gin = conv.backward(&y.clone());
        let loss = |c: &mut Conv2d, x: &Tensor| -> f32 {
            c.forward_mode(x, Mode::Eval)
                .data()
                .iter()
                .map(|v| v * v / 2.0)
                .sum()
        };
        let eps = 1e-2;
        // Spot-check a spread of weight coordinates.
        for idx in [0usize, 7, 19, 33, 53] {
            let analytic = conv.weight.grad.data()[idx];
            let orig = conv.weight.value.data()[idx];
            conv.weight.value.data_mut()[idx] = orig + eps;
            let lp = loss(&mut conv, &x);
            conv.weight.value.data_mut()[idx] = orig - eps;
            let lm = loss(&mut conv, &x);
            conv.weight.value.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 0.05 * (1.0 + numeric.abs()),
                "weight[{idx}]: analytic {analytic} vs numeric {numeric}"
            );
        }
        // Spot-check input coordinates.
        for idx in [0usize, 12, 24, 40] {
            let analytic = gin.data()[idx];
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let numeric = (loss(&mut conv, &xp) - loss(&mut conv, &xm)) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 0.05 * (1.0 + numeric.abs()),
                "input[{idx}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    fn random_input(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = Rng::seed_from(seed);
        let mut x = Tensor::zeros(dims);
        for v in x.data_mut() {
            *v = rng.uniform(-1.0, 1.0);
        }
        x
    }

    #[test]
    fn int8_output_is_batch_invariant_under_merged_gemm() {
        let mut conv = tiny_conv(1, 1);
        for p in conv.params_mut() {
            p.deploy().unwrap();
        }
        let x = random_input(&[3, 2, 6, 6], 11);
        let batched = conv.forward_mode(&x, Mode::Int8);
        let per_image_len = x.numel() / 3;
        let out_len = batched.numel() / 3;
        for b in 0..3 {
            let img = Tensor::from_vec(
                x.data()[b * per_image_len..(b + 1) * per_image_len].to_vec(),
                &[1, 2, 6, 6],
            );
            let single = conv.forward_mode(&img, Mode::Int8);
            assert_eq!(
                single.data(),
                &batched.data()[b * out_len..(b + 1) * out_len],
                "image {b}: merged-batch GEMM must be bit-identical to per-image"
            );
        }
    }

    #[test]
    fn packed_weight_cache_invalidates_on_bit_flip_reload() {
        let mut conv = tiny_conv(1, 1);
        for p in conv.params_mut() {
            p.deploy().unwrap();
        }
        let x = random_input(&[2, 2, 6, 6], 19);
        // Warm the packed cache, then flip a weight bit through the
        // quantized-image path (the Rowhammer injection route).
        let before = conv.forward_mode(&x, Mode::Int8);
        let mut q = conv.weight.quantized();
        q.flip_bit(5, 6).unwrap();
        conv.weight.load_quantized(&q);
        let after_warm = conv.forward_mode(&x, Mode::Int8);
        assert_ne!(
            before.data(),
            after_warm.data(),
            "flip must change the output"
        );
        // A cold-cache layer with the same flipped weights must agree
        // bit-for-bit: the warm cache may never mask a flip.
        let mut cold = tiny_conv(1, 1);
        for p in cold.params_mut() {
            p.deploy().unwrap();
        }
        cold.weight.load_quantized(&q);
        let after_cold = cold.forward_mode(&x, Mode::Int8);
        assert_eq!(after_warm.data(), after_cold.data());
    }

    #[test]
    fn eval_forward_does_not_clobber_the_training_cache() {
        let mut conv = tiny_conv(1, 1);
        let mut rng = Rng::seed_from(3);
        let mut x = Tensor::zeros(&[2, 2, 5, 5]);
        for v in x.data_mut() {
            *v = rng.uniform(-1.0, 1.0);
        }
        // Reference: train-forward then immediately backward.
        let y = conv.forward(&x);
        let gin_ref = conv.backward(&y.clone());
        let gw_ref = conv.weight.grad.clone();
        // Same, but with an eval forward (different input!) in between.
        conv.weight.zero_grad();
        if let Some(b) = &mut conv.bias {
            b.zero_grad();
        }
        let y2 = conv.forward(&x);
        assert_eq!(y.data(), y2.data());
        let other = Tensor::full(&[3, 2, 7, 7], 0.25);
        conv.forward_mode(&other, Mode::Eval);
        let gin = conv.backward(&y2.clone());
        assert_eq!(gin.data(), gin_ref.data());
        assert_eq!(conv.weight.grad.data(), gw_ref.data());
    }

    #[test]
    fn bias_gradient_sums_over_spatial_positions() {
        let mut conv = tiny_conv(1, 1);
        let x = Tensor::full(&[1, 2, 4, 4], 0.1);
        let y = conv.forward(&x);
        let ones = Tensor::full(y.shape().dims(), 1.0);
        conv.backward(&ones);
        let bias = conv.params()[1];
        for &g in bias.grad.data() {
            assert_eq!(g, 16.0); // 4x4 spatial positions, dY = 1 everywhere
        }
    }

    #[test]
    fn padding_zeroes_do_not_leak_gradient() {
        let mut conv = tiny_conv(1, 1);
        let x = Tensor::full(&[1, 2, 4, 4], 1.0);
        let y = conv.forward(&x);
        let gin = conv.backward(&y.clone());
        assert_eq!(gin.shape().dims(), x.shape().dims());
    }
}
