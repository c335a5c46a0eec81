//! Kernel-equivalence suite for the GEMM dispatch ladder.
//!
//! Every kernel [`available_kernels`] can dispatch to — scalar always;
//! AVX2/AVX-512 on x86-64 hardware that reports them — must agree with
//! the naive triple loop:
//!
//! * **bit-exactly** on 0/1 adjacency matrices (all intermediates are
//!   small integers, exact in `f32`; FMA contraction cannot change an
//!   exact result), the representation every join heavy-core uses;
//! * within FMA-rounding tolerance on arbitrary finite floats.
//!
//! Each test walks every available kernel inside one process, so the
//! SIMD kernels are proven against the same reference as scalar. The
//! shapes cross every blocking boundary: sub-tile, non-multiples of the
//! lane width, single row/column, and sizes straddling the KC/NC panels.

use mmjoin_executor::Executor;
use mmjoin_matrix::kernel::{KC, MR, NC};
use mmjoin_matrix::{
    active_kernel, available_kernels, matmul_naive, matmul_parallel_with_kernel_on, DenseMatrix,
    Kernel,
};
use proptest::prelude::*;

/// `a · b` forced onto `kernel` through the tile scheduler on `threads`
/// threads of the global pool (`threads == 1` is the serial kernel).
fn product(kernel: Kernel, a: &DenseMatrix, b: &DenseMatrix, threads: usize) -> DenseMatrix {
    matmul_parallel_with_kernel_on(Executor::global(), kernel, a, b, threads)
}

/// Deterministic 0/1 adjacency with roughly `1/q` density.
fn adjacency(rows: usize, cols: usize, q: usize, phase: usize) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |i, j| {
        ((i + phase) * 31 + j * 17).is_multiple_of(q) as u8 as f32
    })
}

/// Shapes chosen to hit every remainder path: tiles narrower than a
/// vector, ragged k groups, single row/column, and panel boundaries.
fn edge_shapes() -> Vec<(usize, usize, usize)> {
    vec![
        (1, 1, 1),
        (1, KC + 3, 1),
        (MR - 1, 5, 7),
        (MR + 1, 17, 33),
        (7, 1, 64),
        (64, 3, NC + 5),
        (5, KC - 1, 31),
        (MR, KC, 2 * 16),
        (33, KC + 17, 65),
        (2, 2 * KC + 5, 130),
    ]
}

/// Shapes that stress the parallel tile scheduler's decomposition:
/// band boundaries on and off MR multiples, row counts smaller than the
/// thread count, k crossing the serial kernel's panel depth, and column
/// counts straddling the NC j-panel boundary.
fn band_edge_shapes() -> Vec<(usize, usize, usize)> {
    vec![
        (1, 9, 5),                 // single row, more threads than bands
        (2 * MR, 33, 19),          // fewer MR blocks than 8 threads
        (8 * MR + 1, KC + 3, 40),  // row tail past the last full band
        (3, 7, NC + 9),            // partial MR block × two j-panels
        (37, 2 * KC + 5, NC + 31), // multi k-panel × multi j-panel grid
        (97, 61, 143),
    ]
}

/// The tile scheduler must be **bit-exact** against the serial
/// dispatched kernel — not merely tolerance-close — at every tested
/// thread count, for every dispatchable kernel. On 0/1 adjacency inputs
/// this is the correctness bar every join heavy-core relies on; the
/// general-float variant below proves the stronger schedule-equivalence
/// claim (identical contraction order, hence identical FMA rounding).
#[test]
fn parallel_scheduler_is_bit_exact_on_adjacency_shapes() {
    for (m, k, n) in band_edge_shapes() {
        for density in [2usize, 7] {
            let a = adjacency(m, k, density, 0);
            let b = adjacency(k, n, density, 1);
            for kernel in available_kernels() {
                let serial = product(kernel, &a, &b, 1);
                for threads in [2usize, 8] {
                    let par = product(kernel, &a, &b, threads);
                    assert_eq!(
                        par.data(),
                        serial.data(),
                        "kernel {kernel} diverges on {m}x{k}x{n} \
                         (density 1/{density}, threads {threads})"
                    );
                }
            }
        }
    }
}

/// Arbitrary floats make accumulation order observable through FMA
/// rounding. The scheduler slices k on the serial kernel's own panel
/// boundaries and keeps MR/NC alignment, so even here the parallel
/// product must be bit-identical at threads ∈ {2, 8}.
#[test]
fn parallel_scheduler_is_bit_exact_on_general_floats() {
    let val = |i: usize, j: usize, salt: u64| {
        let h = (i as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((j as u64).wrapping_mul(0xD1B54A32D192ED03))
            .wrapping_add(salt.wrapping_mul(0x94D049BB133111EB));
        ((h >> 32) as f32 / u32::MAX as f32) * 4.0 - 2.0
    };
    for (m, k, n) in band_edge_shapes() {
        let a = DenseMatrix::from_fn(m, k, |i, j| val(i, j, 1));
        let b = DenseMatrix::from_fn(k, n, |i, j| val(i, j, 2));
        for kernel in available_kernels() {
            let serial = product(kernel, &a, &b, 1);
            for threads in [2usize, 8] {
                let par = product(kernel, &a, &b, threads);
                assert_eq!(
                    par.data(),
                    serial.data(),
                    "kernel {kernel} reorders floats on {m}x{k}x{n} (threads {threads})"
                );
            }
        }
    }
}

#[test]
fn active_kernel_is_dispatchable() {
    let kernels = available_kernels();
    assert!(
        kernels.contains(&active_kernel()),
        "active kernel {} not in available set {kernels:?}",
        active_kernel()
    );
}

#[test]
fn every_kernel_is_bit_exact_on_adjacency_edge_shapes() {
    for (m, k, n) in edge_shapes() {
        for density in [2usize, 4, 7] {
            let a = adjacency(m, k, density, 0);
            let b = adjacency(k, n, density, 1);
            let reference = matmul_naive(&a, &b);
            for kernel in available_kernels() {
                let got = product(kernel, &a, &b, 1);
                assert_eq!(
                    got.data(),
                    reference.data(),
                    "kernel {kernel} diverges on {m}x{k}x{n} (density 1/{density})"
                );
            }
        }
    }
}

#[test]
fn every_kernel_handles_fully_dense_and_fully_zero_blocks() {
    // All-ones forces the register-tiled dense path; all-zeros must
    // short-circuit without touching C.
    for (m, k, n) in [(MR, KC, 64), (2 * MR + 1, KC + 9, 33)] {
        let ones = DenseMatrix::from_fn(m, k, |_, _| 1.0);
        let bm = adjacency(k, n, 3, 2);
        let zeros = DenseMatrix::from_fn(m, k, |_, _| 0.0);
        let reference = matmul_naive(&ones, &bm);
        for kernel in available_kernels() {
            assert_eq!(
                product(kernel, &ones, &bm, 1).data(),
                reference.data(),
                "kernel {kernel} diverges on all-ones {m}x{k}x{n}"
            );
            let out = product(kernel, &zeros, &bm, 1);
            assert!(
                out.data().iter().all(|&x| x == 0.0),
                "kernel {kernel} produced nonzeros from a zero A"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary small 0/1 matrices: dispatch stays bit-exact under
    /// random shapes and densities, not just the hand-picked grid.
    #[test]
    fn random_adjacency_products_are_bit_exact(
        m in 1usize..24,
        k in 1usize..40,
        n in 1usize..48,
        seed in 0u64..1024,
    ) {
        let bit = |i: usize, j: usize, salt: u64| {
            let h = (i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((j as u64).wrapping_mul(0xD1B54A32D192ED03))
                .wrapping_add(seed.wrapping_mul(0xBF58476D1CE4E5B9))
                .wrapping_add(salt);
            ((h >> 17) & 3 == 0) as u8 as f32
        };
        let a = DenseMatrix::from_fn(m, k, |i, j| bit(i, j, 0));
        let b = DenseMatrix::from_fn(k, n, |i, j| bit(i, j, 1));
        let reference = matmul_naive(&a, &b);
        for kernel in available_kernels() {
            prop_assert_eq!(
                product(kernel, &a, &b, 1).data(),
                reference.data(),
                "kernel {} diverges on {}x{}x{}", kernel, m, k, n
            );
        }
    }

    /// General floats (including negative zero and denormal-ish values):
    /// kernels may differ from the naive loop by FMA rounding only.
    #[test]
    fn random_float_products_agree_within_fma_tolerance(
        m in 1usize..12,
        k in 1usize..32,
        n in 1usize..40,
        seed in 0u64..1024,
    ) {
        let val = |i: usize, j: usize, salt: u64| {
            let h = (i as u64)
                .wrapping_mul(0xD1B54A32D192ED03)
                .wrapping_add((j as u64).wrapping_mul(0x9E3779B97F4A7C15))
                .wrapping_add(seed.wrapping_add(salt).wrapping_mul(0x94D049BB133111EB));
            match h % 7 {
                0 => 0.0,
                1 => -0.0,
                2 => -1.5,
                _ => ((h >> 32) as f32 / u32::MAX as f32) * 4.0 - 2.0,
            }
        };
        let a = DenseMatrix::from_fn(m, k, |i, j| val(i, j, 0));
        let b = DenseMatrix::from_fn(k, n, |i, j| val(i, j, 1));
        let reference = matmul_naive(&a, &b);
        for kernel in available_kernels() {
            let got = product(kernel, &a, &b, 1);
            for (x, y) in got.data().iter().zip(reference.data()) {
                let tol = 1e-4f32.max(y.abs() * 1e-5);
                prop_assert!(
                    (x - y).abs() <= tol,
                    "kernel {} off by {} (got {}, want {})", kernel, (x - y).abs(), x, y
                );
            }
        }
    }
}
