//! Bit-packed boolean matrices.
//!
//! When the consumer only needs *existence* of a join witness (plain
//! join-project output, boolean set intersection) the counts that SGEMM
//! produces are wasted work. A bit-matrix product over the boolean semiring
//! (`C[i][j] = ⋁_k A[i][k] ∧ B[k][j]`) does 64 columns per word operation:
//! for every set bit `A[i][k]`, OR row `k` of `B` into row `i` of `C`.
//!
//! This is an extension over the paper's prototype (which always used
//! SGEMM); the 2-path engine's bit-matrix heavy backend runs on it.
//!
//! The row-OR hot loop is *widened*: words are OR-ed in unrolled blocks of
//! [`OR_BLOCK`] (vectorizable to two 256-bit or one 512-bit operation per
//! step), and on x86-64 the block runs as explicit AVX2 / AVX-512F vector
//! ORs whenever [`active_kernel`] is the matching GEMM kernel — one
//! detection (and one `MMJOIN_KERNEL` override) governs both products.

use crate::kernel::{active_kernel, Kernel};

/// Words OR-ed per unrolled step of the widened row-OR loop.
pub const OR_BLOCK: usize = 8;

/// `dst[i] |= src[i]` over whole rows — the inner operation of
/// [`BitMatrix::bool_product`], widened to [`OR_BLOCK`]-word blocks and
/// routed by `kind` (a kernel from [`crate::available_kernels`]).
#[inline]
fn or_words(kind: Kernel, dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    match kind {
        Kernel::Scalar => or_words_scalar(dst, src),
        // SAFETY: `Avx512` is only available when the CPU reports
        // AVX-512F at runtime.
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Kernel::Avx512 => unsafe { or_words_avx512(dst, src) },
        // SAFETY: `Avx2` is only available when the CPU reports AVX2
        // (and FMA) at runtime.
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Kernel::Avx2 => unsafe { or_words_avx2(dst, src) },
    }
}

/// Unrolled scalar fallback: [`OR_BLOCK`] independent ORs per step give
/// the auto-vectorizer a full vector's worth of work.
#[inline]
fn or_words_scalar(dst: &mut [u64], src: &[u64]) {
    let mut dc = dst.chunks_exact_mut(OR_BLOCK);
    let mut sc = src.chunks_exact(OR_BLOCK);
    for (d, s) in (&mut dc).zip(&mut sc) {
        for i in 0..OR_BLOCK {
            d[i] |= s[i];
        }
    }
    for (d, s) in dc.into_remainder().iter_mut().zip(sc.remainder()) {
        *d |= *s;
    }
}

/// # Safety
/// Requires AVX2 at runtime.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
unsafe fn or_words_avx2(dst: &mut [u64], src: &[u64]) {
    use std::arch::x86_64::*;
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let sp = src.as_ptr();
    let mut i = 0;
    // Two 256-bit ORs per step = one OR_BLOCK.
    while i + OR_BLOCK <= n {
        let d0 = _mm256_loadu_si256(dp.add(i) as *const __m256i);
        let s0 = _mm256_loadu_si256(sp.add(i) as *const __m256i);
        let d1 = _mm256_loadu_si256(dp.add(i + 4) as *const __m256i);
        let s1 = _mm256_loadu_si256(sp.add(i + 4) as *const __m256i);
        _mm256_storeu_si256(dp.add(i) as *mut __m256i, _mm256_or_si256(d0, s0));
        _mm256_storeu_si256(dp.add(i + 4) as *mut __m256i, _mm256_or_si256(d1, s1));
        i += OR_BLOCK;
    }
    while i < n {
        *dp.add(i) |= *sp.add(i);
        i += 1;
    }
}

/// # Safety
/// Requires AVX-512F at runtime.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f")]
unsafe fn or_words_avx512(dst: &mut [u64], src: &[u64]) {
    use std::arch::x86_64::*;
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let sp = src.as_ptr();
    let mut i = 0;
    // One 512-bit OR per OR_BLOCK.
    while i + OR_BLOCK <= n {
        let d = _mm512_loadu_si512(dp.add(i) as *const __m512i);
        let s = _mm512_loadu_si512(sp.add(i) as *const __m512i);
        _mm512_storeu_si512(dp.add(i) as *mut __m512i, _mm512_or_si512(d, s));
        i += OR_BLOCK;
    }
    while i < n {
        *dp.add(i) |= *sp.add(i);
        i += 1;
    }
}

/// A row-major bit-packed boolean matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    /// Words per row.
    stride: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// An all-false `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let stride = cols.div_ceil(64);
        Self {
            rows,
            cols,
            stride,
            words: vec![0; rows * stride],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Sets bit `(i, j)` to true.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize) {
        debug_assert!(i < self.rows && j < self.cols);
        self.words[i * self.stride + j / 64] |= 1u64 << (j % 64);
    }

    /// Reads bit `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        debug_assert!(i < self.rows && j < self.cols);
        self.words[i * self.stride + j / 64] >> (j % 64) & 1 == 1
    }

    /// Row `i` as words.
    #[inline]
    pub fn row_words(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// Boolean product `self · other` (dimensions `m×k` by `k×n`).
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn bool_product(&self, other: &BitMatrix) -> BitMatrix {
        self.bool_product_with(active_kernel(), other)
    }

    /// [`BitMatrix::bool_product`] with the row OR routed by `kind`.
    fn bool_product_with(&self, kind: Kernel, other: &BitMatrix) -> BitMatrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut c = BitMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = &self.words[i * self.stride..(i + 1) * self.stride];
            let c_row = &mut c.words[i * c.stride..(i + 1) * c.stride];
            for (wk, &aw) in a_row.iter().enumerate() {
                let mut bits = aw;
                while bits != 0 {
                    let k = wk * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let b_row = &other.words[k * other.stride..(k + 1) * other.stride];
                    or_words(kind, c_row, b_row);
                }
            }
        }
        c
    }

    /// Number of set bits in the whole matrix.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over set bit coordinates `(row, col)`.
    pub fn iter_ones(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.rows).flat_map(move |i| {
            self.row_words(i)
                .iter()
                .enumerate()
                .flat_map(move |(wk, &w)| BitIter(w).map(move |b| (i, wk * 64 + b)))
        })
    }

    /// Popcount of the AND of two rows — the intersection size of the sets
    /// the rows encode. Used by bit-parallel SSJ verification.
    pub fn row_and_popcount(&self, i: usize, other: &BitMatrix, j: usize) -> usize {
        assert_eq!(self.cols, other.cols, "row widths must agree");
        self.row_words(i)
            .iter()
            .zip(other.row_words(j))
            .map(|(&a, &b)| (a & b).count_ones() as usize)
            .sum()
    }
}

/// Iterates set-bit positions of one word.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = usize;
    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use crate::gemm::matmul;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn set_and_get() {
        let mut m = BitMatrix::zeros(3, 100);
        m.set(0, 0);
        m.set(1, 63);
        m.set(1, 64);
        m.set(2, 99);
        assert!(m.get(0, 0));
        assert!(m.get(1, 63));
        assert!(m.get(1, 64));
        assert!(m.get(2, 99));
        assert!(!m.get(0, 1));
        assert_eq!(m.count_ones(), 4);
    }

    #[test]
    fn iter_ones_roundtrip() {
        let mut m = BitMatrix::zeros(2, 70);
        let coords = [(0usize, 5usize), (0, 64), (1, 0), (1, 69)];
        for &(i, j) in &coords {
            m.set(i, j);
        }
        let got: Vec<_> = m.iter_ones().collect();
        assert_eq!(got, coords);
    }

    #[test]
    fn bool_product_matches_float_gemm_thresholded() {
        let mut rng = StdRng::seed_from_u64(9);
        let (m, k, n) = (37, 53, 71);
        let mut a_bit = BitMatrix::zeros(m, k);
        let mut b_bit = BitMatrix::zeros(k, n);
        let mut a = DenseMatrix::zeros(m, k);
        let mut b = DenseMatrix::zeros(k, n);
        for i in 0..m {
            for j in 0..k {
                if rng.gen_bool(0.2) {
                    a_bit.set(i, j);
                    a.set(i, j, 1.0);
                }
            }
        }
        for i in 0..k {
            for j in 0..n {
                if rng.gen_bool(0.2) {
                    b_bit.set(i, j);
                    b.set(i, j, 1.0);
                }
            }
        }
        let c_bit = a_bit.bool_product(&b_bit);
        let c = matmul(&a, &b);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(c_bit.get(i, j), c.get(i, j) > 0.0, "({i},{j})");
            }
        }
    }

    #[test]
    fn row_and_popcount_counts_intersection() {
        let mut a = BitMatrix::zeros(1, 130);
        let mut b = BitMatrix::zeros(1, 130);
        for j in [0, 64, 100, 129] {
            a.set(0, j);
        }
        for j in [0, 64, 101, 129] {
            b.set(0, j);
        }
        assert_eq!(a.row_and_popcount(0, &b, 0), 3);
    }

    /// The widened OR loop (full blocks + word remainder) agrees with a
    /// per-bit reference across widths straddling word and block
    /// boundaries, under every available OR routing.
    #[test]
    fn widened_or_matches_per_bit_reference_on_edge_widths() {
        let mut rng = StdRng::seed_from_u64(17);
        for cols in [1usize, 63, 64, 65, 511, 512, 513, 1025] {
            let (m, k) = (5, 9);
            let mut a = BitMatrix::zeros(m, k);
            let mut b = BitMatrix::zeros(k, cols);
            for i in 0..m {
                for j in 0..k {
                    if rng.gen_bool(0.4) {
                        a.set(i, j);
                    }
                }
            }
            for i in 0..k {
                for j in 0..cols {
                    if rng.gen_bool(0.1) {
                        b.set(i, j);
                    }
                }
            }
            let c = a.bool_product(&b);
            for i in 0..m {
                for j in 0..cols {
                    let want = (0..k).any(|x| a.get(i, x) && b.get(x, j));
                    assert_eq!(c.get(i, j), want, "cols={cols} ({i},{j})");
                }
            }
            // The dispatched vector OR and every other available routing
            // agree word for word with the scalar path.
            let scalar = a.bool_product_with(Kernel::Scalar, &b);
            assert_eq!(c, scalar, "cols={cols}: active kernel vs scalar");
            for kind in crate::available_kernels() {
                assert_eq!(a.bool_product_with(kind, &b), scalar, "cols={cols} {kind}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn product_dimension_mismatch() {
        let a = BitMatrix::zeros(2, 3);
        let b = BitMatrix::zeros(4, 2);
        let _ = a.bool_product(&b);
    }

    #[test]
    fn empty_product() {
        let a = BitMatrix::zeros(0, 0);
        let c = a.bool_product(&BitMatrix::zeros(0, 5));
        assert_eq!(c.rows(), 0);
        assert_eq!(c.cols(), 5);
    }
}
