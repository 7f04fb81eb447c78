//! Row-major dense matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `rows × cols` matrix of `f64`, stored row-major.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Matrix whose entry `(i, j)` is `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Deterministic pseudo-random matrix with entries in `[-1, 1)`,
    /// diagonally shifted so that square matrices are strictly diagonally
    /// dominant (and thus LU-factorisable without pivoting).
    ///
    /// A small multiplicative congruential generator keeps the kernels free
    /// of heavyweight dependencies.
    pub fn diagonally_dominant(n: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut next = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let v = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            (v >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let mut m = Self::from_fn(n, n, |_, _| next());
        for i in 0..n {
            m[(i, i)] += n as f64 + 1.0;
        }
        m
    }

    /// Deterministic pseudo-random rectangular matrix with entries in
    /// `[-1, 1)`.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let v = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            (v >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        Self::from_fn(rows, cols, |_, _| next())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of stored elements (the paper's problem-size measure).
    pub fn elements(&self) -> usize {
        self.rows * self.cols
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable slices of the row block `[r0, r1)`, useful for handing
    /// disjoint stripes to worker threads.
    pub fn stripe_mut(&mut self, r0: usize, r1: usize) -> &mut [f64] {
        assert!(r0 <= r1 && r1 <= self.rows);
        &mut self.data[r0 * self.cols..r1 * self.cols]
    }

    /// Splits the matrix into disjoint mutable row stripes at the given
    /// boundaries (`boundaries` are cumulative row counts ending at
    /// `rows`).
    pub fn split_stripes_mut(&mut self, boundaries: &[usize]) -> Vec<&mut [f64]> {
        assert_eq!(boundaries.last().copied(), Some(self.rows), "boundaries must end at rows");
        let cols = self.cols;
        let mut out = Vec::with_capacity(boundaries.len());
        let mut rest: &mut [f64] = &mut self.data;
        let mut prev = 0usize;
        for &b in boundaries {
            assert!(b >= prev, "boundaries must be non-decreasing");
            let (head, tail) = rest.split_at_mut((b - prev) * cols);
            out.push(head);
            rest = tail;
            prev = b;
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Max-norm distance to `other`.
    pub fn max_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for i in 0..show {
            let cols = self.cols.min(8);
            let row: Vec<String> =
                self.row(i)[..cols].iter().map(|v| format!("{v:9.4}")).collect();
            writeln!(f, "  {}{}", row.join(" "), if self.cols > 8 { " …" } else { "" })?;
        }
        if self.rows > show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!(m.elements(), 6);
        m[(1, 2)] = 5.0;
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn identity() {
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::random(3, 5, 42);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn diagonally_dominant_is_dominant() {
        let m = Matrix::diagonally_dominant(20, 7);
        for i in 0..20 {
            let off: f64 =
                (0..20).filter(|&j| j != i).map(|j| m[(i, j)].abs()).sum();
            assert!(m[(i, i)].abs() > off, "row {i} not dominant");
        }
    }

    #[test]
    fn random_is_reproducible() {
        assert_eq!(Matrix::random(4, 4, 9), Matrix::random(4, 4, 9));
        assert_ne!(Matrix::random(4, 4, 9), Matrix::random(4, 4, 10));
    }

    #[test]
    fn split_stripes() {
        let mut m = Matrix::from_fn(4, 2, |i, _| i as f64);
        let stripes = m.split_stripes_mut(&[1, 3, 4]);
        assert_eq!(stripes.len(), 3);
        assert_eq!(stripes[0], &[0.0, 0.0]);
        assert_eq!(stripes[1], &[1.0, 1.0, 2.0, 2.0]);
        assert_eq!(stripes[2], &[3.0, 3.0]);
    }

    #[test]
    fn max_diff() {
        let a = Matrix::zeros(2, 2);
        let mut b = Matrix::zeros(2, 2);
        b[(1, 1)] = 0.5;
        assert_eq!(a.max_diff(&b), 0.5);
    }
}
