//! Real multi-threaded LU factorisation over a column-block distribution.
//!
//! The parallel algorithm of paper Fig. 17a, executed with OS threads:
//! the matrix is stored as column blocks; at each step the current panel
//! is factorised, then every *owner* updates the trailing column blocks it
//! owns in parallel (triangular solve for its `U12` piece plus the
//! `A22 −= L21·U12` rank-`b` update). Ownership comes from any
//! column-block distribution — in particular the Variable Group Block
//! distribution of [`crate::vgb`].

use crate::matrix::Matrix;

/// A dense square matrix stored as `b`-wide column blocks (the last block
/// may be narrower).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMatrix {
    n: usize,
    blocks: Vec<Matrix>,
}

impl BlockMatrix {
    /// Splits a square matrix into column blocks of width `b`.
    pub fn from_matrix(a: &Matrix, b: usize) -> Self {
        assert_eq!(a.rows(), a.cols(), "block LU expects a square matrix");
        assert!(b > 0);
        let n = a.rows();
        let mut blocks = Vec::with_capacity(n.div_ceil(b));
        let mut c0 = 0;
        while c0 < n {
            let w = b.min(n - c0);
            blocks.push(Matrix::from_fn(n, w, |i, j| a[(i, c0 + j)]));
            c0 += w;
        }
        Self { n, blocks }
    }

    /// Reassembles the dense matrix.
    pub fn to_matrix(&self) -> Matrix {
        let mut out = Matrix::zeros(self.n, self.n);
        let mut c0 = 0;
        for block in &self.blocks {
            for i in 0..self.n {
                for j in 0..block.cols() {
                    out[(i, c0 + j)] = block[(i, j)];
                }
            }
            c0 += block.cols();
        }
        out
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of column blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

/// Factorises the panel (block column `k`): columns `[k·b, k·b+w)`,
/// operating on rows `k·b..n`. After the call the block holds its part of
/// `L` (unit diagonal implicit) and `U11`.
fn factor_panel(panel: &mut Matrix, k0: usize) {
    let n = panel.rows();
    let w = panel.cols();
    for p in 0..w {
        let row = k0 + p;
        let pivot = panel[(row, p)];
        assert!(
            pivot.abs() > f64::EPSILON,
            "zero pivot in panel column {p}: unpivoted LU needs non-singular leading minors"
        );
        for i in (row + 1)..n {
            let l = panel[(i, p)] / pivot;
            panel[(i, p)] = l;
            for j in (p + 1)..w {
                let u = panel[(row, j)];
                panel[(i, j)] -= l * u;
            }
        }
    }
}

/// Updates one trailing block `a_j` given the factorised `panel` starting
/// at row/column offset `k0` with width `w`:
/// `U12 = L11⁻¹·A12` (unit-lower triangular solve) then
/// `A22 −= L21·U12`.
fn update_block(panel: &Matrix, k0: usize, w: usize, a_j: &mut Matrix) {
    let n = panel.rows();
    let cols = a_j.cols();
    // Triangular solve, row by row of U12 (rows k0..k0+w of a_j).
    for p in 0..w {
        for q in (p + 1)..w {
            let l = panel[(k0 + q, p)];
            if l != 0.0 {
                for c in 0..cols {
                    let u = a_j[(k0 + p, c)];
                    a_j[(k0 + q, c)] -= l * u;
                }
            }
        }
    }
    // Rank-w update of the rows below the panel.
    for i in (k0 + w)..n {
        for p in 0..w {
            let l = panel[(i, p)];
            if l != 0.0 {
                for c in 0..cols {
                    let u = a_j[(k0 + p, c)];
                    a_j[(i, c)] -= l * u;
                }
            }
        }
    }
}

/// Multi-threaded right-looking LU over a column-block distribution:
/// `owners[j]` names the worker responsible for updating block `j`. At
/// each step the trailing blocks of each owner are updated on that owner's
/// thread, mirroring the paper's per-processor data ownership.
///
/// Returns the factorised matrix (L below the unit diagonal, U on and
/// above), bitwise-identical to the serial blocked kernel.
pub fn parallel_lu(a: &Matrix, b: usize, owners: &[usize]) -> Matrix {
    let mut bm = BlockMatrix::from_matrix(a, b);
    let m = bm.block_count();
    assert_eq!(owners.len(), m, "one owner per column block");
    let workers = owners.iter().copied().max().map_or(1, |w| w + 1);

    for k in 0..m {
        let k0 = k * b;
        let (head, tail) = bm.blocks.split_at_mut(k + 1);
        let panel = &mut head[k];
        let w = panel.cols();
        factor_panel(panel, k0);
        let panel: &Matrix = panel;

        // Group the trailing blocks by owner and update in parallel.
        let mut per_worker: Vec<Vec<&mut Matrix>> = (0..workers).map(|_| Vec::new()).collect();
        for (offset, block) in tail.iter_mut().enumerate() {
            per_worker[owners[k + 1 + offset]].push(block);
        }
        std::thread::scope(|scope| {
            for list in per_worker {
                if list.is_empty() {
                    continue;
                }
                scope.spawn(move || {
                    for a_j in list {
                        update_block(panel, k0, w, a_j);
                    }
                });
            }
        });
    }
    bm.to_matrix()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::{lu_blocked, reconstruction_error};

    #[test]
    fn block_matrix_round_trips() {
        let a = Matrix::random(10, 10, 3);
        for b in [1, 3, 4, 10, 16] {
            let bm = BlockMatrix::from_matrix(&a, b);
            assert_eq!(bm.to_matrix(), a, "b = {b}");
            assert_eq!(bm.block_count(), 10usize.div_ceil(b));
        }
    }

    #[test]
    fn parallel_matches_serial_blocked() {
        let a = Matrix::diagonally_dominant(48, 11);
        let b = 8;
        let owners: Vec<usize> = (0..6).map(|k| k % 3).collect();
        let parallel = parallel_lu(&a, b, &owners);
        let mut serial = a.clone();
        lu_blocked(&mut serial, b);
        assert!(
            parallel.max_diff(&serial) < 1e-9,
            "max diff {}",
            parallel.max_diff(&serial)
        );
    }

    #[test]
    fn parallel_lu_reconstructs_original() {
        let a = Matrix::diagonally_dominant(40, 21);
        let owners = vec![0, 1, 2, 1, 0];
        let f = parallel_lu(&a, 8, &owners);
        assert!(reconstruction_error(&a, &f) < 1e-9);
    }

    #[test]
    fn single_owner_degenerates_to_serial() {
        let a = Matrix::diagonally_dominant(24, 5);
        let f = parallel_lu(&a, 6, &[0, 0, 0, 0]);
        let mut serial = a.clone();
        lu_blocked(&mut serial, 6);
        assert!(f.max_diff(&serial) < 1e-10);
    }

    #[test]
    fn non_divisible_dimension() {
        let a = Matrix::diagonally_dominant(25, 9);
        // ceil(25/8) = 4 blocks, last of width 1.
        let f = parallel_lu(&a, 8, &[0, 1, 0, 1]);
        assert!(reconstruction_error(&a, &f) < 1e-9);
    }

    #[test]
    fn vgb_owners_drive_parallel_lu() {
        use fpm_core::partition::CombinedPartitioner;
        use fpm_core::speed::ConstantSpeed;
        let n = 64u64;
        let b = 8u64;
        let funcs = vec![ConstantSpeed::new(300.0), ConstantSpeed::new(100.0)];
        let d = crate::vgb::variable_group_block(n, b, &funcs, &CombinedPartitioner::new())
            .unwrap();
        let a = Matrix::diagonally_dominant(n as usize, 77);
        let f = parallel_lu(&a, b as usize, &d.block_owner);
        assert!(reconstruction_error(&a, &f) < 1e-8);
    }

    #[test]
    #[should_panic(expected = "one owner per column block")]
    fn owner_count_must_match() {
        let a = Matrix::diagonally_dominant(16, 1);
        parallel_lu(&a, 8, &[0]);
    }
}
