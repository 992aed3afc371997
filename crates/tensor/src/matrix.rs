//! Dense row-major `f32` matrix.
//!
//! This is the storage type underneath the autodiff tape ([`crate::tape`]).
//! All shapes in the MMKGR stack are 2-D (batches of feature vectors), so a
//! matrix — rather than an N-d tensor — keeps the kernel code simple and the
//! inner loops free of stride arithmetic.

use serde::{Deserialize, Serialize};

/// A dense, row-major matrix of `f32`.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Matrix({}x{})[", self.rows, self.cols)?;
        let show = self.data.len().min(8);
        for (i, v) in self.data[..show].iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > show {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// A `rows × cols` matrix of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build from a flat row-major vector. Panics if the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: {} values for a {rows}x{cols} matrix",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Build from a generator function over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// A `1 × n` row vector from a slice.
    pub fn row_vector(v: &[f32]) -> Self {
        Matrix {
            rows: 1,
            cols: v.len(),
            data: v.to_vec(),
        }
    }

    /// A `n × 1` column vector from a slice.
    pub fn col_vector(v: &[f32]) -> Self {
        Matrix {
            rows: v.len(),
            cols: 1,
            data: v.to_vec(),
        }
    }

    /// Stack row slices (all of equal width) into a matrix.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows: need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The flat row-major buffer, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterpret as a different shape with the same element count.
    pub fn reshaped(mut self, rows: usize, cols: usize) -> Self {
        assert_eq!(
            self.data.len(),
            rows * cols,
            "reshape: element count mismatch"
        );
        self.rows = rows;
        self.cols = cols;
        self
    }

    // ---- elementwise --------------------------------------------------

    /// Apply `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise combination of two equally-shaped matrices.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(self.shape(), other.shape(), "zip_map: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self += other` elementwise.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += alpha * other` elementwise (axpy).
    pub fn add_scaled(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_scaled: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scale all elements in place.
    pub fn scale_inplace(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Set all elements to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Reshape in place to `rows × cols`, reusing the backing storage
    /// (growing it if needed) and zeroing every element. The building
    /// block of the `*_into` ops below: inference hot loops keep a pool
    /// of scratch matrices alive across calls instead of allocating.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Become an element-wise copy of `other` (allocation-free once
    /// capacity is warm).
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    // ---- products ------------------------------------------------------
    //
    // Summation order: `matmul`, `matmul_into` and `matmul_nt` share one
    // kernel, `product`, which computes every output element as
    // `(((0.0 + a₀·b₀) + a₁·b₁) + …) + aₙ₋₁·bₙ₋₁`: in order over k,
    // starting from 0.0, each product rounded before it is added (no FMA).
    // That order is the contract that keeps the tape, the raw inference
    // forwards and every stored model bit-identical. A future kernel must
    // keep it, or say that it moves bits.

    /// `self · other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Self::matmul`] into a caller-owned scratch matrix: same kernel
    /// (bit-identical output), no allocation once `out` is warm.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul_into: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.reset(self.rows, other.cols);
        product(
            &self.data,
            &other.data,
            &mut out.data,
            (self.rows, self.cols, other.cols),
        );
    }

    /// `selfᵀ · other` without materializing the transpose.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn: {}x{}ᵀ · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, n, p) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(n, p);
        for i in 0..m {
            let arow = &self.data[i * n..(i + 1) * n];
            let brow = &other.data[i * p..(i + 1) * p];
            for (k, &a) in arow.iter().enumerate() {
                let orow = &mut out.data[k * p..(k + 1) * p];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self · otherᵀ`: the transpose, then the shared kernel.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt: {}x{} · {}x{}ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        self.matmul(&other.transpose())
    }

    /// Materialized transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Dot product of two matrices viewed as flat vectors.
    pub fn dot_flat(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "dot_flat: shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum()
    }

    // ---- reductions ----------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for an empty matrix).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Squared L2 norm of each row, returned as an `rows × 1` column.
    pub fn row_sq_norms(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        for r in 0..self.rows {
            out.data[r] = self.row(r).iter().map(|v| v * v).sum();
        }
        out
    }

    /// Index of the max element in row `r` (ties resolved to the first).
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        let mut bestv = f32::NEG_INFINITY;
        for (i, &v) in row.iter().enumerate() {
            if v > bestv {
                bestv = v;
                best = i;
            }
        }
        best
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    // ---- structural ----------------------------------------------------

    /// Horizontal concatenation `[self | other]`.
    pub fn concat_cols(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "concat_cols: row mismatch");
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Matrix {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Vertical concatenation (stack `other` below `self`).
    pub fn concat_rows(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "concat_rows: col mismatch");
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Copy of columns `[start, end)`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.cols, "slice_cols: bad range");
        let cols = end - start;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(&self.row(r)[start..end]);
        }
        Matrix {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Gather the given rows (with repetition allowed) into a new matrix.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            assert!(i < self.rows, "gather_rows: row {i} out of {}", self.rows);
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Row-wise softmax, numerically stabilized.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            softmax_slice(out.row_mut(r));
        }
        out
    }

    /// L2-normalize each row in place; zero rows stay zero.
    pub fn l2_normalize_rows(&mut self) {
        for r in 0..self.rows {
            let row = self.row_mut(r);
            let n: f32 = row.iter().map(|v| v * v).sum::<f32>().sqrt();
            if n > 1e-12 {
                for v in row {
                    *v /= n;
                }
            }
        }
    }
}

/// `out = a · b` for row-major `a: m×n`, `b: n×p` and `out: m×p`, in
/// the summation order documented at [`Matrix::matmul`]. The output is
/// walked in blocks of two rows by 16, then 8, then 1 columns; a block's
/// accumulators stay in a fixed-size array (registers) while k runs, and
/// are stored once at the end.
fn product(a: &[f32], b: &[f32], out: &mut [f32], (m, n, p): (usize, usize, usize)) {
    let mut i = 0;
    while i + 2 <= m {
        row_block::<2>(a, b, out, (n, p), i);
        i += 2;
    }
    if i < m {
        row_block::<1>(a, b, out, (n, p), i);
    }
}

/// Rows `i..i + R` of `out`, column panel by column panel.
fn row_block<const R: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    (n, p): (usize, usize),
    i: usize,
) {
    let arows: [&[f32]; R] = std::array::from_fn(|r| &a[(i + r) * n..(i + r + 1) * n]);
    let mut j = 0;
    while j + 16 <= p {
        panel::<R, 16>(&arows, b, out, p, (i, j));
        j += 16;
    }
    if j + 8 <= p {
        panel::<R, 8>(&arows, b, out, p, (i, j));
        j += 8;
    }
    while j < p {
        panel::<R, 1>(&arows, b, out, p, (i, j));
        j += 1;
    }
}

/// The `R × L` output block at row `i`, column `j`: each element is its
/// own accumulator, summed over k in order from 0.0.
///
/// The loops step indices by hand rather than through iterator
/// adapters: unoptimized builds (the test profile) run every adapter
/// step as a call, several times slower than an index step.
fn panel<const R: usize, const L: usize>(
    arows: &[&[f32]; R],
    b: &[f32],
    out: &mut [f32],
    p: usize,
    (i, j): (usize, usize),
) {
    let n = arows[0].len();
    let mut acc = [[0.0f32; L]; R];
    let mut k = 0;
    while k < n {
        let bk = &b[k * p + j..k * p + j + L];
        let mut r = 0;
        while r < R {
            let x = arows[r][k];
            let mut l = 0;
            while l < L {
                acc[r][l] += x * bk[l];
                l += 1;
            }
            r += 1;
        }
        k += 1;
    }
    for (r, accr) in acc.iter().enumerate() {
        out[(i + r) * p + j..(i + r) * p + j + L].copy_from_slice(accr);
    }
}

/// In-place numerically-stable softmax over a slice.
pub fn softmax_slice(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    // An all-(-inf) row (fully masked) degenerates to uniform to avoid NaN.
    if !max.is_finite() {
        let u = 1.0 / xs.len() as f32;
        xs.iter_mut().for_each(|v| *v = u);
        return;
    }
    let mut sum = 0.0;
    for v in xs.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    xs.iter_mut().for_each(|v| *v *= inv);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_shape() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert_eq!(z.sum(), 0.0);
        let o = Matrix::ones(3, 2);
        assert_eq!(o.sum(), 6.0);
        let f = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f32);
        assert_eq!(f.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
        let e = Matrix::eye(3);
        assert_eq!(e.get(1, 1), 1.0);
        assert_eq!(e.get(0, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_length_mismatch_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let c = a.matmul(&Matrix::eye(4));
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + c) as f32 * 0.5);
        let b = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + 2 * c) as f32 * 0.25);
        let b = Matrix::from_fn(5, 4, |r, c| (r * 4 + c) as f32 * 0.1);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let a = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f32);
        let b = Matrix::from_fn(2, 3, |r, c| 10.0 + (r * 3 + c) as f32);
        let cat = a.concat_cols(&b);
        assert_eq!(cat.shape(), (2, 5));
        assert_eq!(cat.slice_cols(0, 2), a);
        assert_eq!(cat.slice_cols(2, 5), b);
    }

    #[test]
    fn concat_rows_stacks() {
        let a = Matrix::ones(1, 3);
        let b = Matrix::zeros(2, 3);
        let cat = a.concat_rows(&b);
        assert_eq!(cat.shape(), (3, 3));
        assert_eq!(cat.row(0), &[1.0, 1.0, 1.0]);
        assert_eq!(cat.row(2), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn gather_rows_with_repetition() {
        let a = Matrix::from_fn(3, 2, |r, _| r as f32);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.as_slice(), &[2., 2., 0., 0., 2., 2.]);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1.]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // monotone: bigger logit -> bigger prob
        assert!(s.get(0, 2) > s.get(0, 1));
    }

    #[test]
    fn softmax_handles_all_masked_row() {
        let mut xs = [f32::NEG_INFINITY, f32::NEG_INFINITY];
        softmax_slice(&mut xs);
        assert!((xs[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_large_values_stable() {
        let mut xs = [1000.0, 1000.0, 999.0];
        softmax_slice(&mut xs);
        assert!(xs.iter().all(|v| v.is_finite()));
        assert!((xs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn argmax_first_tie() {
        let a = Matrix::from_vec(1, 4, vec![0.5, 2.0, 2.0, 1.0]);
        assert_eq!(a.argmax_row(0), 1);
    }

    #[test]
    fn l2_normalize_rows_handles_zero_row() {
        let mut a = Matrix::from_vec(2, 2, vec![3., 4., 0., 0.]);
        a.l2_normalize_rows();
        assert!((a.get(0, 0) - 0.6).abs() < 1e-6);
        assert!((a.get(0, 1) - 0.8).abs() < 1e-6);
        assert_eq!(a.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_vec(2, 2, vec![1., -2., 3., -4.]);
        assert_eq!(a.sum(), -2.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.max(), 3.0);
        assert!((a.norm() - (30.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Matrix::zeros(2, 2);
        assert!(!a.has_non_finite());
        a.set(1, 0, f32::NAN);
        assert!(a.has_non_finite());
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = a.clone().reshaped(3, 2);
        assert_eq!(b.shape(), (3, 2));
        assert_eq!(b.as_slice(), a.as_slice());
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = Matrix::ones(1, 3);
        let b = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        a.add_scaled(0.5, &b);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
    }
}
