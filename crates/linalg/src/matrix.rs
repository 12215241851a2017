//! Row-major dense matrices.
//!
//! `Matrix` stores the user feature matrix `U: |U|×k` and the item feature
//! matrix `V: |V|×k` of the paper. Rows are the unit of access everywhere
//! (a row is one user's or one item's latent vector), so the API is
//! row-oriented: `row`, `row_mut`, `axpy_row`.

use crate::rng::SeededRng;
use crate::vector;

/// Dense row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            data: vec![0.0; rows.checked_mul(cols).expect("matrix size overflow")],
            rows,
            cols,
        }
    }

    /// Matrix with entries drawn i.i.d. from `N(mean, std_dev²)`.
    ///
    /// The paper initializes feature matrices randomly; we use a small
    /// Gaussian (`std_dev = 0.1` in experiments), the standard MF init.
    pub fn random_normal(
        rows: usize,
        cols: usize,
        mean: f32,
        std_dev: f32,
        rng: &mut SeededRng,
    ) -> Self {
        let mut m = Self::zeros(rows, cols);
        for x in m.data.iter_mut() {
            *x = rng.normal(mean, std_dev);
        }
        m
    }

    /// Build from an explicit row-major buffer. Panics if the buffer length
    /// is not `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: wrong buffer length");
        Self { data, rows, cols }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the latent dimension `k` everywhere in this repo).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows, "row {i} out of {}", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.rows, "row {i} out of {}", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrow two distinct rows mutably at once (needed when a gradient
    /// step touches both the positive and the negative item row).
    pub fn two_rows_mut(&mut self, i: usize, j: usize) -> (&mut [f32], &mut [f32]) {
        assert_ne!(i, j, "two_rows_mut: identical rows");
        assert!(i < self.rows && j < self.rows);
        let c = self.cols;
        if i < j {
            let (a, b) = self.data.split_at_mut(j * c);
            (&mut a[i * c..(i + 1) * c], &mut b[..c])
        } else {
            let (a, b) = self.data.split_at_mut(i * c);
            let (bj, bi) = (&mut a[j * c..(j + 1) * c], &mut b[..c]);
            (bi, bj)
        }
    }

    /// `row(i) ← row(i) + alpha * x`.
    #[inline]
    pub fn axpy_row(&mut self, i: usize, alpha: f32, x: &[f32]) {
        vector::axpy(alpha, x, self.row_mut(i));
    }

    /// ℓ2 norm of every row; used by the attack's filler-item selection
    /// probabilities (Eq. 22) and by detection heuristics.
    pub fn row_norms(&self) -> Vec<f32> {
        (0..self.rows)
            .map(|i| vector::l2_norm(self.row(i)))
            .collect()
    }

    /// Frobenius norm of the whole matrix.
    pub fn frobenius_norm(&self) -> f32 {
        vector::l2_norm(&self.data)
    }

    /// Fill every entry with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Set every entry to zero.
    pub fn clear(&mut self) {
        self.fill(0.0);
    }

    /// Flat view of the underlying buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view of the underlying buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Mean of the rows whose indices are given.
    pub fn mean_of_rows(&self, indices: &[usize]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        if indices.is_empty() {
            return out;
        }
        for &i in indices {
            vector::add_assign(&mut out, self.row(i));
        }
        vector::scale(1.0 / indices.len() as f32, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn row_access_is_row_major() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "wrong buffer length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 5]);
    }

    #[test]
    fn two_rows_mut_both_orders() {
        let mut m = Matrix::from_vec(3, 2, vec![0.0; 6]);
        {
            let (a, b) = m.two_rows_mut(0, 2);
            a[0] = 1.0;
            b[1] = 2.0;
        }
        assert_eq!(m.row(0), &[1.0, 0.0]);
        assert_eq!(m.row(2), &[0.0, 2.0]);
        {
            let (a, b) = m.two_rows_mut(2, 0);
            a[0] = 9.0;
            b[0] = 7.0;
        }
        assert_eq!(m.row(2), &[9.0, 2.0]);
        assert_eq!(m.row(0), &[7.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "identical rows")]
    fn two_rows_mut_rejects_same_row() {
        let mut m = Matrix::zeros(2, 2);
        let _ = m.two_rows_mut(1, 1);
    }

    #[test]
    fn axpy_row_updates_only_that_row() {
        let mut m = Matrix::zeros(2, 2);
        m.axpy_row(1, 2.0, &[1.0, 3.0]);
        assert_eq!(m.row(0), &[0.0, 0.0]);
        assert_eq!(m.row(1), &[2.0, 6.0]);
    }

    #[test]
    fn row_norms_and_frobenius_agree() {
        let m = Matrix::from_vec(2, 2, vec![3.0, 4.0, 0.0, 0.0]);
        let norms = m.row_norms();
        assert!((norms[0] - 5.0).abs() < 1e-6);
        assert_eq!(norms[1], 0.0);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn random_normal_has_requested_moments() {
        let mut rng = SeededRng::new(101);
        let m = Matrix::random_normal(100, 100, 0.5, 0.2, &mut rng);
        let n = (m.rows() * m.cols()) as f64;
        let mean: f64 = m.as_slice().iter().map(|&x| x as f64).sum::<f64>() / n;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn mean_row_and_subset() {
        let m = Matrix::from_vec(3, 2, vec![1.0, 0.0, 3.0, 0.0, 5.0, 6.0]);
        assert_eq!(m.mean_of_rows(&[0, 1]), vec![2.0, 0.0]);
        assert_eq!(m.mean_of_rows(&[]), vec![0.0, 0.0]);
    }

    #[test]
    fn clear_resets() {
        let mut m = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        m.clear();
        assert_eq!(m.as_slice(), &[0.0, 0.0]);
    }
}
