//! Cache-blocked, register-tiled f32 GEMM kernels.
//!
//! Every matrix product in the training/attack hot path funnels through
//! the three kernels here:
//!
//! * [`gemm`] — `C = A·B` with `A: [m,k]`, `B: [k,n]` (conv forward,
//!   linear input-gradient),
//! * [`gemm_nt`] — `C = A·Bᵀ` with `B: [n,k]` (linear forward, conv
//!   weight-gradient),
//! * [`gemm_tn`] — `C = Aᵀ·B` with `A: [k,m]` (conv column-gradient,
//!   linear weight-gradient — both previously materialized an explicit
//!   transpose per call).
//!
//! The public entry points record a `nn/gemm_flops` histogram sample,
//! and split the `m` rows of `C` across the process-wide [`rhb_par`]
//! pool when the product is large enough; the `*_serial` kernels do the
//! actual arithmetic and are what batch-parallel layers call from inside
//! their own tasks (one level of parallelism, the outermost, wins).
//!
//! # Determinism contract
//!
//! Each output element is accumulated **in strictly increasing `k`
//! order by exactly one task**, with a single accumulator per element.
//! Cache blocking keeps that order by making the `C` tile resident
//! across `k`-blocks (load tile → accumulate the block in `k` order →
//! store), and row-splitting does not touch it at all. The results are
//! therefore bit-identical to the pre-existing naive kernels (kept as
//! [`matmul_naive`] for the parity suite and the bench baseline) at
//! every thread count, including 1.
//!
//! The naive kernel skipped `a == 0.0` terms; the blocked kernels do
//! not. The skip is bit-invisible: with finite inputs a product with a
//! zero factor is `±0.0`, and IEEE-754 round-to-nearest addition of
//! `±0.0` onto an accumulator that started from `+0.0` can never change
//! its bits (`x + ±0.0 == x`, and exact cancellation yields `+0.0`, so
//! the accumulator is never `-0.0`).

use std::cell::RefCell;

/// Register tile height (rows of `C` per micro-kernel call).
const MR: usize = 4;
/// Register tile width (columns of `C` per micro-kernel call).
const NR: usize = 8;
/// `k`-block: one packed `A`/`B` panel pair stays L1/L2-resident.
const KC: usize = 256;
/// `m`-block per packed `A` panel.
const MC: usize = 64;
/// `n`-block per packed `B` panel.
const NC: usize = 512;

/// Below this many flops (`2·m·n·k`) a product runs serially even on a
/// multi-thread pool: task dispatch would cost more than it saves.
const PAR_MIN_FLOPS: usize = 1 << 18;

thread_local! {
    /// Per-thread packing arena `(A-panel, B-panel)`, grown monotonically.
    static PACK: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The pre-PR reference kernel: naive `ikj` loop with the historical
/// `a == 0.0` skip. Kept verbatim for the parity suite and as the bench
/// baseline the blocked kernels are measured against.
pub fn matmul_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    c.fill(0.0);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut c[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

fn record_flops(m: usize, k: usize, n: usize) {
    rhb_telemetry::observe!("nn/gemm_flops", (2 * m * n * k) as f64);
}

fn should_parallelize(threads: usize, m: usize, k: usize, n: usize) -> bool {
    threads > 1 && m >= 2 && 2 * m * n * k >= PAR_MIN_FLOPS
}

/// `C = A·B` (`A: [m,k]`, `B: [k,n]`, `C: [m,n]`, all row-major).
/// Parallelizes over row blocks of `C`; bit-identical at any pool size.
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    record_flops(m, k, n);
    let pool = rhb_par::pool();
    if !should_parallelize(pool.threads(), m, k, n) {
        return gemm_serial(a, b, c, m, k, n);
    }
    let ranges = rhb_par::split_range(m, pool.threads(), MR);
    let chunks = rhb_par::split_slice_mut(c, &ranges, n);
    let tasks: Vec<rhb_par::Task<'_>> = ranges
        .iter()
        .zip(chunks)
        .map(|(r, c_rows)| {
            let a_rows = &a[r.start * k..r.end * k];
            let rows = r.end - r.start;
            Box::new(move || gemm_serial(a_rows, b, c_rows, rows, k, n)) as rhb_par::Task<'_>
        })
        .collect();
    pool.run(tasks);
}

/// `C = A·Bᵀ` (`A: [m,k]`, `B: [n,k]`, `C: [m,n]`). Row-parallel.
pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    record_flops(m, k, n);
    let pool = rhb_par::pool();
    if !should_parallelize(pool.threads(), m, k, n) {
        return gemm_nt_serial(a, b, c, m, k, n);
    }
    let ranges = rhb_par::split_range(m, pool.threads(), 1);
    let chunks = rhb_par::split_slice_mut(c, &ranges, n);
    let tasks: Vec<rhb_par::Task<'_>> = ranges
        .iter()
        .zip(chunks)
        .map(|(r, c_rows)| {
            let a_rows = &a[r.start * k..r.end * k];
            let rows = r.end - r.start;
            Box::new(move || gemm_nt_serial(a_rows, b, c_rows, rows, k, n)) as rhb_par::Task<'_>
        })
        .collect();
    pool.run(tasks);
}

/// `C = Aᵀ·B` (`A: [k,m]`, `B: [k,n]`, `C: [m,n]`). Row-parallel over
/// `C`'s rows (columns of the stored `A`).
pub fn gemm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    record_flops(m, k, n);
    let pool = rhb_par::pool();
    if !should_parallelize(pool.threads(), m, k, n) {
        return gemm_tn_serial(a, b, c, m, k, n);
    }
    let ranges = rhb_par::split_range(m, pool.threads(), 1);
    let chunks = rhb_par::split_slice_mut(c, &ranges, n);
    let tasks: Vec<rhb_par::Task<'_>> = ranges
        .iter()
        .zip(chunks)
        .map(|(r, c_rows)| {
            let range = r.clone();
            Box::new(move || gemm_tn_range(a, b, c_rows, m, k, n, range)) as rhb_par::Task<'_>
        })
        .collect();
    pool.run(tasks);
}

/// Serial blocked `C = A·B`. Packs `A`/`B` panels into the thread-local
/// arena and runs the `MR×NR` micro-kernel with `C`-resident
/// accumulation across `k`-blocks (see the module-level determinism
/// contract).
pub fn gemm_serial(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    c.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    PACK.with(|pack| {
        let mut pack = pack.borrow_mut();
        let (apack, bpack) = &mut *pack;
        apack.resize(MC.min(m).div_ceil(MR) * MR * KC.min(k).max(1), 0.0);
        bpack.resize(NC.min(n).div_ceil(NR) * NR * KC.min(k).max(1), 0.0);
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                pack_b_panel(b, bpack, n, pc, kc, jc, nc);
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    pack_a_panel(a, apack, k, ic, mc, pc, kc);
                    for jr in (0..nc).step_by(NR) {
                        let nr = NR.min(nc - jr);
                        let btile = &bpack[(jr / NR) * kc * NR..][..kc * NR];
                        for ir in (0..mc).step_by(MR) {
                            let mr = MR.min(mc - ir);
                            let atile = &apack[(ir / MR) * kc * MR..][..kc * MR];
                            microkernel(atile, btile, c, n, ic + ir, jc + jr, mr, nr, kc);
                        }
                    }
                }
            }
        }
    });
}

/// Packs `A[ic..ic+mc, pc..pc+kc]` into `MR`-row tiles: tile `t` holds
/// rows `ic+t·MR..`, laid out `k`-major (`kk·MR + i`), zero-padded to
/// `MR` so the micro-kernel never branches on the row edge.
fn pack_a_panel(
    a: &[f32],
    apack: &mut Vec<f32>,
    k: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
) {
    let tiles = mc.div_ceil(MR);
    apack.clear();
    apack.resize(tiles * kc * MR, 0.0);
    for t in 0..tiles {
        let dst = &mut apack[t * kc * MR..(t + 1) * kc * MR];
        let rows = MR.min(mc - t * MR);
        for kk in 0..kc {
            for i in 0..rows {
                dst[kk * MR + i] = a[(ic + t * MR + i) * k + pc + kk];
            }
        }
    }
}

/// Packs `B[pc..pc+kc, jc..jc+nc]` into `NR`-column tiles: tile `t`
/// holds columns `jc+t·NR..`, laid out `k`-major (`kk·NR + j`),
/// zero-padded to `NR`.
fn pack_b_panel(
    b: &[f32],
    bpack: &mut Vec<f32>,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
) {
    let tiles = nc.div_ceil(NR);
    bpack.clear();
    bpack.resize(tiles * kc * NR, 0.0);
    for t in 0..tiles {
        let dst = &mut bpack[t * kc * NR..(t + 1) * kc * NR];
        let cols = NR.min(nc - t * NR);
        for kk in 0..kc {
            let src = &b[(pc + kk) * n + jc + t * NR..][..cols];
            dst[kk * NR..kk * NR + cols].copy_from_slice(src);
        }
    }
}

/// The `MR×NR` register tile: loads the live `mr×nr` corner of `C`,
/// accumulates `kc` rank-1 updates with one accumulator per element
/// (unrolled over the fixed `MR×NR` grid), stores the corner back.
#[allow(clippy::too_many_arguments)]
#[inline]
fn microkernel(
    atile: &[f32],
    btile: &[f32],
    c: &mut [f32],
    n: usize,
    row0: usize,
    col0: usize,
    mr: usize,
    nr: usize,
    kc: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (i, acc_row) in acc.iter_mut().enumerate().take(mr) {
        let c_row = &c[(row0 + i) * n + col0..][..nr];
        acc_row[..nr].copy_from_slice(c_row);
    }
    for kk in 0..kc {
        let av = &atile[kk * MR..kk * MR + MR];
        let bv = &btile[kk * NR..kk * NR + NR];
        for i in 0..MR {
            let ai = av[i];
            let acc_row = &mut acc[i];
            for j in 0..NR {
                acc_row[j] += ai * bv[j];
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate().take(mr) {
        let c_row = &mut c[(row0 + i) * n + col0..][..nr];
        c_row.copy_from_slice(&acc_row[..nr]);
    }
}

/// Serial `C = A·Bᵀ`: each element is one dot product over `k`,
/// evaluated in a fresh accumulator in ascending `k` — the exact order
/// of the pre-PR `matmul_transposed`. A `2×4` register tile amortizes
/// loads of `A` rows without splitting any accumulator.
pub fn gemm_nt_serial(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        let mut j = 0;
        while j + 4 <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for kk in 0..k {
                let av = a_row[kk];
                s0 += av * b0[kk];
                s1 += av * b1[kk];
                s2 += av * b2[kk];
                s3 += av * b3[kk];
            }
            c_row[j] = s0;
            c_row[j + 1] = s1;
            c_row[j + 2] = s2;
            c_row[j + 3] = s3;
            j += 4;
        }
        for jj in j..n {
            c_row[jj] = dot(a_row, &b[jj * k..(jj + 1) * k]);
        }
    }
}

/// One element of [`gemm_nt_serial`]'s output, `Σ a[kk]·b[kk]`: a fresh
/// accumulator summed in ascending `kk`, bit for bit what the tiled
/// kernel computes for that element.
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&av, &bv) in a.iter().zip(b) {
        acc += av * bv;
    }
    acc
}

/// Serial `C = Aᵀ·B` over the full row range.
pub fn gemm_tn_serial(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_tn_range(a, b, c, m, k, n, 0..m);
}

/// `C`-rows `rows` of `Aᵀ·B`, written to `c_rows` (exactly
/// `rows.len()·n` long). `k`-outer loop order: each output element
/// accumulates in ascending `k` — the order the pre-PR code got from
/// materializing `Aᵀ` and running the naive kernel — while streaming
/// `B` rows sequentially. Every element's bits are independent of
/// `rows`, so one row equals that row of the whole product.
pub(crate) fn gemm_tn_range(
    a: &[f32],
    b: &[f32],
    c_rows: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    rows: std::ops::Range<usize>,
) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c_rows.len(), (rows.end - rows.start) * n);
    c_rows.fill(0.0);
    for kk in 0..k {
        let a_row = &a[kk * m..(kk + 1) * m];
        let b_row = &b[kk * n..(kk + 1) * n];
        for (i, c_row) in c_rows.chunks_mut(n).enumerate() {
            let av = a_row[rows.start + i];
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in c_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn blocked_gemm_is_bit_identical_to_naive() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (16, 16, 16),
            (33, 70, 65),
            (4, 300, 9),
        ] {
            let a = fill(m as u64 + 1, m * k);
            let b = fill(n as u64 + 2, k * n);
            let mut c_naive = vec![0.0f32; m * n];
            let mut c_blocked = vec![0.0f32; m * n];
            matmul_naive(&a, &b, &mut c_naive, m, k, n);
            gemm_serial(&a, &b, &mut c_blocked, m, k, n);
            assert_eq!(c_naive, c_blocked, "({m},{k},{n})");
        }
    }

    #[test]
    fn gemm_nt_matches_naive_on_transposed_operand() {
        for &(m, k, n) in &[(2, 3, 4), (17, 65, 9), (5, 128, 33)] {
            let a = fill(7, m * k);
            let bt = fill(8, n * k); // stored [n, k]
                                     // Materialize B = btᵀ for the reference.
            let mut b = vec![0.0f32; k * n];
            for j in 0..n {
                for kk in 0..k {
                    b[kk * n + j] = bt[j * k + kk];
                }
            }
            let mut c_ref = vec![0.0f32; m * n];
            let mut c = vec![0.0f32; m * n];
            // Reference: fresh-accumulator dot products in k order.
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc += a[i * k + kk] * bt[j * k + kk];
                    }
                    c_ref[i * n + j] = acc;
                }
            }
            gemm_nt_serial(&a, &bt, &mut c, m, k, n);
            assert_eq!(c_ref, c, "({m},{k},{n})");
            let _ = b;
        }
    }

    #[test]
    fn gemm_tn_is_bit_identical_to_naive_on_materialized_transpose() {
        for &(m, k, n) in &[(3, 4, 5), (20, 33, 7), (64, 9, 65)] {
            let at = fill(11, k * m); // stored [k, m]
            let b = fill(12, k * n);
            let mut a = vec![0.0f32; m * k];
            for kk in 0..k {
                for i in 0..m {
                    a[i * k + kk] = at[kk * m + i];
                }
            }
            let mut c_ref = vec![0.0f32; m * n];
            let mut c = vec![0.0f32; m * n];
            matmul_naive(&a, &b, &mut c_ref, m, k, n);
            gemm_tn_serial(&at, &b, &mut c, m, k, n);
            assert_eq!(c_ref, c, "({m},{k},{n})");
        }
    }

    #[test]
    fn parallel_dispatch_is_bit_identical_to_serial() {
        let (m, k, n) = (64, 96, 80); // 2mnk ≈ 983k flops > threshold
        let a = fill(21, m * k);
        let b = fill(22, k * n);
        let bt = fill(23, n * k);
        let at = fill(24, k * m);
        let mut serial = vec![0.0f32; m * n];
        gemm_serial(&a, &b, &mut serial, m, k, n);
        let mut serial_nt = vec![0.0f32; m * n];
        gemm_nt_serial(&a, &bt, &mut serial_nt, m, k, n);
        let mut serial_tn = vec![0.0f32; m * n];
        gemm_tn_serial(&at, &b, &mut serial_tn, m, k, n);
        for threads in [1, 2, 5] {
            let pool = rhb_par::Pool::new(threads);
            let ranges = rhb_par::split_range(m, pool.threads(), 1);
            // Drive the row-split path directly through a local pool (the
            // global pool is shared across the test binary).
            let mut c = vec![0.0f32; m * n];
            let chunks = rhb_par::split_slice_mut(&mut c, &ranges, n);
            let tasks: Vec<rhb_par::Task<'_>> = ranges
                .iter()
                .zip(chunks)
                .map(|(r, c_rows)| {
                    let a_rows = &a[r.start * k..r.end * k];
                    let rows = r.end - r.start;
                    let b = &b;
                    Box::new(move || gemm_serial(a_rows, b, c_rows, rows, k, n))
                        as rhb_par::Task<'_>
                })
                .collect();
            pool.run(tasks);
            assert_eq!(serial, c, "gemm threads={threads}");
        }
        // The public dispatchers run on the global pool; with any size
        // they must reproduce the serial bits.
        let mut c = vec![0.0f32; m * n];
        gemm(&a, &b, &mut c, m, k, n);
        assert_eq!(serial, c);
        let mut c = vec![0.0f32; m * n];
        gemm_nt(&a, &bt, &mut c, m, k, n);
        assert_eq!(serial_nt, c);
        let mut c = vec![0.0f32; m * n];
        gemm_tn(&at, &b, &mut c, m, k, n);
        assert_eq!(serial_tn, c);
    }
}
