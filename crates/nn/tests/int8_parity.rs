//! End-to-end parity suite for the int8 inference engine.
//!
//! Three contracts are enforced here (see `DESIGN.md`, "Inference
//! engines"):
//!
//! 1. Int8 logits are bit-identical at every global thread count — the
//!    engine accumulates in exact integer arithmetic, so chunking can
//!    never change a result.
//! 2. Flipping a bit in the serialized [`WeightFile`] and running int8
//!    inference is equivalent to flipping the corresponding
//!    [`QuantizedTensor`] step and running the fake-quant f32 reference:
//!    the two corrupted models are byte-identical, their engines agree
//!    within the requantization envelope, and their argmax matches
//!    whenever the f32 margin exceeds that envelope.
//! 3. Per-sample activation scales make int8 outputs batch-invariant.

use proptest::prelude::*;
use rhb_nn::activation::Relu;
use rhb_nn::conv::{Conv2d, ConvGeometry};
use rhb_nn::init::Rng;
use rhb_nn::layer::{Mode, Sequential};
use rhb_nn::linear::Linear;
use rhb_nn::network::{Network, SequentialNet};
use rhb_nn::pool::GlobalAvgPool;
use rhb_nn::tensor::Tensor;
use rhb_nn::weightfile::{ByteLocation, WeightFile};
use rhb_nn::NnError;
use std::sync::Mutex;

/// The global pool is process-wide; tests that resize it must not
/// interleave with each other.
static GLOBAL_POOL_LOCK: Mutex<()> = Mutex::new(());

/// Total scalar weights of [`mlp`]: 12×16 + 16 + 16×4 + 4.
const MLP_WEIGHTS: usize = 12 * 16 + 16 + 16 * 4 + 4;

/// A small MLP victim assembled from substrate layers.
fn mlp(seed: u64) -> SequentialNet {
    let mut rng = Rng::seed_from(seed);
    let mut seq = Sequential::new();
    seq.push(Box::new(Linear::new(12, 16, true, &mut rng)));
    seq.push(Box::new(Relu::new()));
    seq.push(Box::new(Linear::new(16, 4, true, &mut rng)));
    SequentialNet::new(seq, "mlp")
}

/// A small CNN victim: conv, relu, global pool, classifier.
fn cnn(seed: u64) -> SequentialNet {
    let mut rng = Rng::seed_from(seed);
    let mut seq = Sequential::new();
    seq.push(Box::new(Conv2d::new(
        ConvGeometry {
            in_channels: 1,
            out_channels: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
        },
        true,
        &mut rng,
    )));
    seq.push(Box::new(Relu::new()));
    seq.push(Box::new(GlobalAvgPool::new()));
    seq.push(Box::new(Linear::new(4, 3, true, &mut rng)));
    SequentialNet::new(seq, "cnn")
}

fn deployed_mlp(seed: u64) -> SequentialNet {
    let mut net = mlp(seed);
    net.deploy().unwrap();
    net
}

fn deployed_cnn(seed: u64) -> SequentialNet {
    let mut net = cnn(seed);
    net.deploy().unwrap();
    net
}

/// Deterministic pseudo-random fill (xorshift), avoiding any dependence
/// on the vendored rand stub's stream.
fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap()
}

#[test]
fn int8_logits_are_bit_identical_at_every_thread_count() {
    let _guard = GLOBAL_POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut mlp = deployed_mlp(40);
    let mut cnn = deployed_cnn(41);
    let x_mlp = Tensor::from_vec(fill(7, 8 * 12), &[8, 12]);
    let x_cnn = Tensor::from_vec(fill(8, 8 * 36), &[8, 1, 6, 6]);

    rhb_par::set_global_threads(1);
    let ref_mlp = mlp.forward(&x_mlp, Mode::Int8);
    let ref_cnn = cnn.forward(&x_cnn, Mode::Int8);
    for threads in [2, 3, 4] {
        rhb_par::set_global_threads(threads);
        let y_mlp = mlp.forward(&x_mlp, Mode::Int8);
        let y_cnn = cnn.forward(&x_cnn, Mode::Int8);
        assert_eq!(ref_mlp.data(), y_mlp.data(), "mlp at {threads} threads");
        assert_eq!(ref_cnn.data(), y_cnn.data(), "cnn at {threads} threads");
    }
    rhb_par::set_global_threads(rhb_par::default_threads());
}

#[test]
fn int8_outputs_are_batch_invariant_through_a_cnn() {
    let mut net = deployed_cnn(42);
    let x = Tensor::from_vec(fill(9, 6 * 36), &[6, 1, 6, 6]);
    let y_all = net.forward(&x, Mode::Int8);
    let classes = y_all.shape().dim(1);
    for i in 0..6 {
        let xi = Tensor::from_vec(x.data()[i * 36..(i + 1) * 36].to_vec(), &[1, 1, 6, 6]);
        let yi = net.forward(&xi, Mode::Int8);
        assert_eq!(
            yi.data(),
            &y_all.data()[i * classes..(i + 1) * classes],
            "sample {i} depends on its batchmates"
        );
    }
}

/// Int8 inference reads weight steps straight off the quantization grid,
/// so a deployed model's int8 logits must agree with the fake-quant f32
/// reference on every eval-set classification (here: a fixed seed
/// checked empirically, the integration-level half of the zoo test).
#[test]
fn engines_agree_on_argmax_for_a_deployed_model() {
    let mut net = deployed_mlp(43);
    let x = Tensor::from_vec(fill(10, 32 * 12), &[32, 12]);
    let y_f32 = net.forward(&x, Mode::Eval);
    let y_i8 = net.forward(&x, Mode::Int8);
    for (b, (rf, ri)) in y_f32
        .data()
        .chunks(4)
        .zip(y_i8.data().chunks(4))
        .enumerate()
    {
        assert_eq!(argmax(rf), argmax(ri), "engines disagree on sample {b}");
    }
}

/// Regression for the `load_into` panic path: feeding a weight file to a
/// network with a different parameter structure must be a
/// [`NnError::MalformedWeightFile`], not an assertion failure.
#[test]
fn load_into_structure_mismatch_is_an_error_not_a_panic() {
    let mlp = deployed_mlp(44);
    let wf = WeightFile::from_network(&mlp);
    let mut other = deployed_cnn(45);
    let err = wf.load_into(&mut other).unwrap_err();
    assert!(matches!(err, NnError::MalformedWeightFile(_)), "{err:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Satellite contract: `flip_bit` on the serialized weight-file image
    /// followed by int8 inference is the *same attack* as flipping the
    /// corresponding `QuantizedTensor` step and running the fake-quant
    /// f32 reference. Both corrupted models are byte-identical (exact
    /// int8 and f32 logit equality across the two paths), and the two
    /// engines pick the same class whenever the f32 margin exceeds the
    /// observed requantization envelope.
    #[test]
    fn weight_file_flip_equals_quantized_step_flip(
        seed in 0u64..500,
        widx in 0usize..MLP_WEIGHTS,
        bit in 0u8..8,
    ) {
        // Path A: flip the bit in the mmap'd weight-file image.
        let mut a = deployed_mlp(seed);
        let mut wf = WeightFile::from_network(&a);
        wf.flip_bit(ByteLocation::from_flat(widx), bit).unwrap();
        wf.load_into(&mut a).unwrap();

        // Path B: flip the same bit in the in-memory quantized step.
        let mut b = deployed_mlp(seed);
        let mut images = b.quantized_params();
        let (mut pi, mut off) = (0usize, widx);
        while off >= images[pi].numel() {
            off -= images[pi].numel();
            pi += 1;
        }
        images[pi].flip_bit(off, bit).unwrap();
        b.load_quantized(&images);

        let x = Tensor::from_vec(fill(seed ^ 0x5a5a, 4 * 12), &[4, 12]);
        let yi8_a = a.forward(&x, Mode::Int8);
        let yi8_b = b.forward(&x, Mode::Int8);
        let yf32_a = a.forward(&x, Mode::Eval);
        let yf32_b = b.forward(&x, Mode::Eval);

        // The two flip paths corrupted the same weight: both engines are
        // bit-identical across them.
        prop_assert_eq!(yi8_a.data(), yi8_b.data());
        prop_assert_eq!(yf32_a.data(), yf32_b.data());

        // Cross-engine argmax parity, guarded by the per-row envelope.
        for (ri, rf) in yi8_a.data().chunks(4).zip(yf32_b.data().chunks(4)) {
            let envelope = ri
                .iter()
                .zip(rf)
                .map(|(p, q)| (p - q).abs())
                .fold(0f32, f32::max);
            prop_assert!(envelope.is_finite());
            let mut sorted: Vec<f32> = rf.to_vec();
            sorted.sort_by(|p, q| q.total_cmp(p));
            let margin = sorted[0] - sorted[1];
            if margin > 2.0 * envelope {
                prop_assert_eq!(argmax(ri), argmax(rf));
            }
        }
    }

    /// Packed-cache invalidation contract: a bit flip delivered via
    /// `load_quantized` must never be masked by a stale packed-weight
    /// panel. A model whose caches are warm (one int8 forward already
    /// ran) produces logits bit-identical to a fresh model flipped
    /// before its first forward — serially and multi-threaded.
    #[test]
    fn packed_caches_never_mask_a_weight_flip(
        seed in 0u64..500,
        widx in 0usize..36,
        bit in 0u8..8,
    ) {
        let _guard = GLOBAL_POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let x = Tensor::from_vec(fill(seed ^ 0xc0de, 4 * 36), &[4, 1, 6, 6]);

        for threads in [1usize, 4] {
            rhb_par::set_global_threads(threads);

            // Warm path: forward once to build the panels, then flip the
            // conv weight (params[0], 1·4·3·3 = 36 steps) and reload.
            let mut warm = deployed_cnn(seed);
            let _ = warm.forward(&x, Mode::Int8);
            let mut images = warm.quantized_params();
            images[0].flip_bit(widx, bit).unwrap();
            warm.load_quantized(&images);
            let y_warm = warm.forward(&x, Mode::Int8);

            // Cold path: same flip, but before any int8 forward.
            let mut cold = deployed_cnn(seed);
            let mut images = cold.quantized_params();
            images[0].flip_bit(widx, bit).unwrap();
            cold.load_quantized(&images);
            let y_cold = cold.forward(&x, Mode::Int8);

            prop_assert_eq!(
                y_warm.data(),
                y_cold.data(),
                "stale panel at {} threads", threads
            );
        }
        rhb_par::set_global_threads(rhb_par::default_threads());
    }
}
