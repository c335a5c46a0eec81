//! Cache-blocked serial and multi-threaded GEMM over the dispatched
//! [`kernel`](crate::kernel) family.
//!
//! The kernel computes `C = A · B` for row-major `f32` matrices. All entry
//! points route through [`gemm_block`] with the process-wide
//! [`active_kernel`] — explicit AVX-512/AVX2 register tiles on x86-64
//! hosts that report them, a blocked auto-vectorizable scalar loop
//! otherwise (see the dispatch ladder in [`kernel`](crate::kernel)).
//! [`matmul_parallel_with_kernel_on`] is the one way to force a specific
//! kernel, for equivalence tests and kernel-vs-kernel timing.
//!
//! Parallelism decomposes `C` into a 2D grid of `band × NC` tiles
//! scheduled as tasks on the shared [`mmjoin_executor::Executor`] pool:
//! B is packed **once** into a shared panel-major slab every tile reuses
//! (the old row-band split re-streamed all of B from DRAM per band), row
//! bands are [`MR`]-aligned so register tiles and the per-block density
//! scan never straddle a band edge, and the executor's chunk-claim
//! stealing rebalances density skew across bands. Tiles write disjoint
//! regions of `C` — the "coordination-free" scaling of §6 / Figure 3b —
//! and each tile walks its k-panels in serial order on the serial
//! kernel's own panel boundaries, so the result is bit-identical to the
//! serial product at any thread count and any pool occupancy.

use crate::arena;
use crate::dense::DenseMatrix;
use crate::kernel::{
    active_kernel, available_kernels, gemm_block, gemm_block_strided, k_panel, Kernel, MR, NC,
};
use mmjoin_executor::Executor;

/// Raw shared pointer the tile tasks use to write disjoint regions of C
/// (and to fill disjoint regions of the packing slab). Sound because the
/// scheduler hands every task a non-overlapping region.
#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
// SAFETY: the wrapped pointer is only dereferenced through disjoint
// per-task regions handed out by the tile scheduler (each task writes
// its own C tile / packing-slab panel), so sending or sharing the
// wrapper across worker threads cannot create aliasing writes.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Accessor (rather than field reads) so closures capture the whole
    /// `Sync` wrapper — precise closure capture would otherwise capture
    /// the bare `*mut f32` field, which is not `Sync`.
    fn get(self) -> *mut f32 {
        self.0
    }
}

/// Tiles per thread the scheduler aims for: enough slack that the
/// executor's chunk-claim stealing can rebalance a dense straggler band
/// without shrinking tiles into pack/claim overhead.
const TILE_OVERSUB: usize = 4;

/// Multiplies `a · b` into a fresh matrix.
///
/// ```
/// use mmjoin_matrix::{matmul, DenseMatrix};
/// let a = DenseMatrix::from_vec(1, 2, vec![1.0, 2.0]);
/// let b = DenseMatrix::from_vec(2, 1, vec![3.0, 4.0]);
/// assert_eq!(matmul(&a, &b).data(), &[11.0]);
/// ```
///
/// # Panics
/// Panics if the inner dimensions disagree.
pub fn matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let mut c = DenseMatrix::zeros(a.rows(), b.cols());
    matmul_into(a, b, &mut c);
    c
}

/// Multiplies `a · b`, accumulating into `c` (which must be pre-sized; its
/// prior contents are kept, i.e. this computes `C += A·B`).
///
/// # Panics
/// Panics on any dimension mismatch.
pub fn matmul_into(a: &DenseMatrix, b: &DenseMatrix, c: &mut DenseMatrix) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert_eq!(c.rows(), a.rows(), "output rows must match A");
    assert_eq!(c.cols(), b.cols(), "output cols must match B");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    gemm_block(active_kernel(), a.data(), b.data(), c.data_mut(), m, k, n);
}

/// Multi-threaded `a · b` on the tiled scheduler over `exec`'s pool
/// (engine code passes its own executor so a service-level thread budget
/// governs the GEMM tiles too). With `threads == 1` this is exactly
/// [`matmul`]; at any higher thread count the tile decomposition depends
/// only on the shape and `threads`, and every tile reproduces the serial
/// kernel's own panel schedule, so the result is **bit-identical** to the
/// serial product at any pool occupancy.
pub fn matmul_parallel_on(
    exec: &Executor,
    a: &DenseMatrix,
    b: &DenseMatrix,
    threads: usize,
) -> DenseMatrix {
    matmul_parallel_with_kernel_on(exec, active_kernel(), a, b, threads)
}

/// [`matmul_parallel_on`] forced onto one specific kernel — the hook the
/// kernel-equivalence tests and the CI crossover gate use to compare
/// dispatch paths (serially with `threads == 1`, or through the tile
/// scheduler) inside a single process.
///
/// # Panics
/// Panics if `kind` is not in [`available_kernels`] (requesting AVX-512 on
/// a machine without it would be UB, so it is checked here), or on
/// dimension mismatch.
pub fn matmul_parallel_with_kernel_on(
    exec: &Executor,
    kind: Kernel,
    a: &DenseMatrix,
    b: &DenseMatrix,
    threads: usize,
) -> DenseMatrix {
    assert!(
        available_kernels().contains(&kind),
        "kernel {kind} is not available on this machine"
    );
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert!(threads >= 1, "need at least one thread");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = DenseMatrix::zeros(m, n);
    if m == 0 || k == 0 || n == 0 {
        return c;
    }
    if threads == 1 {
        gemm_block(kind, a.data(), b.data(), c.data_mut(), m, k, n);
        return c;
    }
    gemm_tiled(
        exec,
        kind,
        a.data(),
        b.data(),
        c.data_mut(),
        m,
        k,
        n,
        threads,
    );
    c
}

/// The 2D tile scheduler: pack B once into a shared panel-major slab,
/// then compute `C` as a grid of MR-aligned row bands × NC-wide column
/// panels claimed through the executor's chunk-claim stealing.
///
/// Bit-exactness vs the serial `gemm_block` is by construction, not by
/// tolerance:
/// * k is sliced on [`k_panel`]`(kind, n)` boundaries — the exact panel
///   depths the serial kernel derives internally (each tile also gets
///   `kc_cols = n` so its *internal* panel math agrees);
/// * row bands are MR-aligned, so every register tile / density-probe
///   block covers the same absolute rows as in the serial schedule;
/// * column panels sit on NC boundaries, matching the serial j-panels;
/// * each tile walks its k-panels in increasing order, so every C element
///   accumulates its k-contributions in the serial order.
///
/// The per-element float contraction sequence is therefore identical to
/// the serial kernel's, for arbitrary inputs — not just exact 0/1 ones.
#[allow(clippy::too_many_arguments)]
fn gemm_tiled(
    exec: &Executor,
    kind: Kernel,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    let kc = k_panel(kind, n).min(k);
    let k_panels = k.div_ceil(kc);
    let j_panels = n.div_ceil(NC);
    // Aim for TILE_OVERSUB tiles per thread, but never split a register
    // tile: band heights round up to a multiple of MR (satellite fix for
    // the old `m / threads` split, whose mid-block edges defeated the
    // per-block density scan and register tiling).
    let max_bands = m.div_ceil(MR);
    let want_bands = (threads * TILE_OVERSUB).div_ceil(j_panels).max(1);
    let band_rows = m.div_ceil(want_bands.min(max_bands)).next_multiple_of(MR);
    let bands = m.div_ceil(band_rows);
    let tiles = bands * j_panels;

    // Slab layout: the (ki, pi) panel — k rows [kb, kb+kd), columns
    // [jb, jb+w) — lives at offset `kb·n + kd·jb`, row-major with row
    // stride w. Offsets of consecutive panels tile the k·n floats of B
    // exactly, and every panel is packed once and read by all `bands`
    // row bands (the old row-band split streamed all of B per band).
    arena::with_scratch(k * n, |slab| {
        let sp = SendPtr(slab.as_mut_ptr());
        let cp = SendPtr(c.as_mut_ptr());
        // Runtime contract (debug builds only): the executor's shared
        // counter must hand each tile index to exactly one task — a
        // double claim means two threads writing the same C tile, which
        // the SAFETY arguments below take as a given.
        #[cfg(debug_assertions)]
        let claimed: Vec<std::sync::atomic::AtomicBool> = (0..tiles)
            .map(|_| std::sync::atomic::AtomicBool::new(false))
            .collect();
        // Phase 1: pack every B panel, one task per (k-panel, j-panel).
        exec.run(threads, k_panels * j_panels, |t| {
            let kb = (t / j_panels) * kc;
            let kd = (kb + kc).min(k) - kb;
            let jb = (t % j_panels) * NC;
            let w = (jb + NC).min(n) - jb;
            // SAFETY: panel base offsets tile the k*n-float slab exactly
            // (kb*n floats of full-width panels above, plus kd*jb floats
            // of this panel row's earlier j-panels), so the offset is
            // in-bounds and each task's panel is disjoint.
            let dst = unsafe { sp.get().add(kb * n + kd * jb) };
            for r in 0..kd {
                // SAFETY: destination rows [0, kd) of this panel are
                // exclusively ours (disjoint slab offsets per task) and
                // the source row is in-bounds in B.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        b.as_ptr().add((kb + r) * n + jb),
                        dst.add(r * w),
                        w,
                    );
                }
            }
        });
        // Phase 2: compute the band × j-panel tile grid. Tasks claim
        // tiles through the executor's shared counter, so a dense
        // straggler band ends up spread over whichever threads are free,
        // while the *result* stays schedule-independent.
        exec.run(threads, tiles, |t| {
            #[cfg(debug_assertions)]
            assert!(
                !claimed[t].swap(true, std::sync::atomic::Ordering::Relaxed),
                "tile {t} claimed by two tasks"
            );
            let i0 = (t / j_panels) * band_rows;
            let i1 = (i0 + band_rows).min(m);
            let jb = (t % j_panels) * NC;
            let w = (jb + NC).min(n) - jb;
            for ki in 0..k_panels {
                let kb = ki * kc;
                let kd = (kb + kc).min(k) - kb;
                // SAFETY: A rows [i0, i1) are read-only; the packed panel
                // was fully written in phase 1 (the two `exec.run` calls
                // are separated by the executor's completion barrier);
                // C rows [i0, i1) × cols [jb, jb+w) belong to this tile
                // alone. `kind` came from the dispatch ladder.
                unsafe {
                    gemm_block_strided(
                        kind,
                        a.as_ptr().add(i0 * k + kb),
                        k,
                        sp.get().add(kb * n + kd * jb),
                        w,
                        cp.get().add(i0 * n + jb),
                        n,
                        i1 - i0,
                        kd,
                        w,
                        n,
                    );
                }
            }
        });
        #[cfg(debug_assertions)]
        for (t, flag) in claimed.iter().enumerate() {
            assert!(
                flag.load(std::sync::atomic::Ordering::Relaxed),
                "tile {t} never claimed"
            );
        }
    });
}

/// Reference naive triple loop, used only by tests to validate the blocked
/// kernels.
pub fn matmul_naive(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(a.cols(), b.rows());
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = DenseMatrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a.get(i, kk) * b.get(kk, j);
            }
            c.set(i, j, acc);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, density: f64) -> DenseMatrix {
        DenseMatrix::from_fn(
            rows,
            cols,
            |_, _| {
                if rng.gen_bool(density) {
                    1.0
                } else {
                    0.0
                }
            },
        )
    }

    #[test]
    fn small_known_product() {
        let a = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = DenseMatrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random_matrix(&mut rng, 17, 17, 0.4);
        let id = DenseMatrix::identity(17);
        assert_eq!(matmul(&a, &id), a);
        assert_eq!(matmul(&id, &a), a);
    }

    #[test]
    fn blocked_matches_naive_rectangular() {
        let mut rng = StdRng::seed_from_u64(2);
        for &(m, k, n) in &[(1, 1, 1), (5, 7, 3), (64, 33, 129), (300, 50, 17)] {
            let a = random_matrix(&mut rng, m, k, 0.3);
            let b = random_matrix(&mut rng, k, n, 0.3);
            assert_eq!(matmul(&a, &b), matmul_naive(&a, &b), "({m},{k},{n})");
        }
    }

    /// Every dispatchable kernel agrees exactly with the naive reference
    /// on 0/1 inputs, across shapes chosen to hit lane-width and block
    /// remainders (odd dims, single row/column, tile-straddling sizes).
    #[test]
    fn every_kernel_matches_naive_on_edge_shapes() {
        let mut rng = StdRng::seed_from_u64(21);
        let shapes = [
            (1, 1, 1),
            (1, 7, 19),   // single A row, sub-tile width
            (9, 300, 1),  // single C column, k crosses the KC=256 panel
            (4, 16, 16),  // exactly one register tile
            (5, 17, 33),  // every dim one past a boundary
            (31, 64, 47), // row remainder < MR, column remainder < NR
        ];
        for kind in available_kernels() {
            for &(m, k, n) in &shapes {
                let a = random_matrix(&mut rng, m, k, 0.35);
                let b = random_matrix(&mut rng, k, n, 0.35);
                assert_eq!(
                    matmul_parallel_with_kernel_on(Executor::global(), kind, &a, &b, 1),
                    matmul_naive(&a, &b),
                    "kernel {kind} on ({m},{k},{n})"
                );
            }
        }
    }

    /// For arbitrary (non-0/1) floats the SIMD kernels may reassociate
    /// and contract into FMA; they must still match the reference within
    /// a k-scaled relative tolerance.
    #[test]
    fn kernels_match_naive_on_general_floats_within_tolerance() {
        let mut rng = StdRng::seed_from_u64(22);
        let (m, k, n) = (23, 77, 41);
        let a = DenseMatrix::from_fn(m, k, |_, _| rng.gen_range(-1.0f64..1.0) as f32);
        let b = DenseMatrix::from_fn(k, n, |_, _| rng.gen_range(-1.0f64..1.0) as f32);
        let reference = matmul_naive(&a, &b);
        for kind in available_kernels() {
            let got = matmul_parallel_with_kernel_on(Executor::global(), kind, &a, &b, 1);
            for (x, y) in got.data().iter().zip(reference.data()) {
                let bound = 1e-5 * k as f32;
                assert!(
                    (x - y).abs() <= bound,
                    "kernel {kind}: {x} vs {y} (bound {bound})"
                );
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_matrix(&mut rng, 97, 61, 0.25);
        let b = random_matrix(&mut rng, 61, 143, 0.25);
        let serial = matmul(&a, &b);
        for threads in [1, 2, 3, 4, 8, 97, 200] {
            assert_eq!(
                matmul_parallel_on(Executor::global(), &a, &b, threads),
                serial,
                "threads={threads}"
            );
        }
    }

    /// The tile scheduler reproduces the serial kernel's contraction
    /// order exactly, so even arbitrary floats — where FMA rounding makes
    /// order observable — come out bit-identical, not merely close.
    #[test]
    fn parallel_is_bit_exact_on_general_floats() {
        let mut rng = StdRng::seed_from_u64(31);
        for &(m, k, n) in &[(37, 300, 143), (5, 61, 1040), (130, 17, 29)] {
            let a = DenseMatrix::from_fn(m, k, |_, _| rng.gen_range(-2.0f64..2.0) as f32);
            let b = DenseMatrix::from_fn(k, n, |_, _| rng.gen_range(-2.0f64..2.0) as f32);
            let serial = matmul(&a, &b);
            for threads in [2, 3, 8, 64] {
                let par = matmul_parallel_on(Executor::global(), &a, &b, threads);
                assert_eq!(
                    par.data(),
                    serial.data(),
                    "({m},{k},{n}) threads={threads} diverged bit-wise"
                );
            }
        }
    }

    /// Row counts around MR-multiple band edges: the scheduler must keep
    /// bands MR-aligned (partial register blocks only at the true bottom
    /// of C) for every m, including m smaller than one block.
    #[test]
    fn parallel_handles_band_boundary_row_counts() {
        let mut rng = StdRng::seed_from_u64(32);
        for m in [1, MR - 1, MR, MR + 1, 2 * MR, 8 * MR - 1, 8 * MR + 1] {
            let a = random_matrix(&mut rng, m, 50, 0.3);
            let b = random_matrix(&mut rng, 50, 77, 0.3);
            let serial = matmul(&a, &b);
            for threads in [2, 8] {
                assert_eq!(
                    matmul_parallel_on(Executor::global(), &a, &b, threads),
                    serial,
                    "m={m} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn matmul_into_accumulates() {
        let a = DenseMatrix::identity(2);
        let b = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut c = DenseMatrix::from_vec(2, 2, vec![10.0, 10.0, 10.0, 10.0]);
        matmul_into(&a, &b, &mut c);
        assert_eq!(c.data(), &[11.0, 12.0, 13.0, 14.0]);
    }

    /// The accumulation contract holds under the register tiling: a
    /// pre-loaded C with shapes spanning full tiles, row remainders and
    /// column tails comes out as `C0 + A·B` exactly.
    #[test]
    fn matmul_into_accumulates_under_tiling() {
        let mut rng = StdRng::seed_from_u64(23);
        for &(m, k, n) in &[(4, 16, 32), (7, 40, 37), (1, 5, 100)] {
            let a = random_matrix(&mut rng, m, k, 0.4);
            let b = random_matrix(&mut rng, k, n, 0.4);
            let base = random_matrix(&mut rng, m, n, 0.5);
            let mut c = base.clone();
            matmul_into(&a, &b, &mut c);
            let product = matmul_naive(&a, &b);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(
                        c.get(i, j),
                        base.get(i, j) + product.get(i, j),
                        "({m},{k},{n}) at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_dimension_products() {
        let a = DenseMatrix::zeros(0, 3);
        let b = DenseMatrix::zeros(3, 4);
        let c = matmul(&a, &b);
        assert_eq!((c.rows(), c.cols()), (0, 4));
        let a = DenseMatrix::zeros(2, 0);
        let b = DenseMatrix::zeros(0, 4);
        let c = matmul(&a, &b);
        assert_eq!((c.rows(), c.cols()), (2, 4));
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(4, 2);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn counts_are_exact_for_adjacency_products() {
        // 0/1 matrices: product entries are exact small integers.
        let mut rng = StdRng::seed_from_u64(4);
        let a = random_matrix(&mut rng, 40, 60, 0.5);
        let b = random_matrix(&mut rng, 60, 40, 0.5);
        let c = matmul(&a, &b);
        for &v in c.data() {
            assert_eq!(v.fract(), 0.0);
            assert!((0.0..=60.0).contains(&v));
        }
    }
}
