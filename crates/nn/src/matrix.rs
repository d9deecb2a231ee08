//! Row-major dense matrices for the LSTM and attention layers.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// A row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Xavier/Glorot-uniform initialization, deterministic for a seed.
    pub fn xavier(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.random_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Build from raw row-major data.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Row count.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Raw data, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The row-major data, without copying it.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// `out = self · x` (matrix-vector product).
    pub fn matvec(&self, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(out.len(), self.rows);
        for (r, o) in out.iter_mut().enumerate() {
            *o = crate::vector::dot(self.row(r), x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_matches_manual() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut out = vec![0.0; 2];
        m.matvec(&[1.0, 0.0, -1.0], &mut out);
        assert_eq!(out, vec![-2.0, -2.0]);
    }

    #[test]
    fn xavier_is_deterministic_and_bounded() {
        let a = Matrix::xavier(4, 4, 9);
        let b = Matrix::xavier(4, 4, 9);
        assert_eq!(a, b);
        let bound = (6.0 / 8.0f32).sqrt();
        assert!(a.data().iter().all(|x| x.abs() <= bound));
        assert!(a.data().iter().any(|x| *x != 0.0));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_vec_checks_shape() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }
}
