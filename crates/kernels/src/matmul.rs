//! Serial dense matrix multiplication.
//!
//! The paper's first application computes `C = A×Bᵀ` on dense square
//! matrices with a deliberately naive kernel — its aim is not fast BLAS but
//! a representative data-parallel workload with the smooth speed curve of
//! Fig. 1c. The serial kernel here follows that spirit (straight triple
//! loop over `A` rows and `B` rows, which for `A×Bᵀ` is actually a
//! cache-friendly dot-product formulation), plus a tiled variant standing
//! in for the ATLAS-like blocked kernel.
//!
//! Non-square shapes matter because processor speeds are estimated by
//! multiplying an `n1×n2` slice by the full matrix (paper Fig. 16b,
//! Table 3).

use crate::matrix::Matrix;

/// `C = A×Bᵀ` with the naive kernel. `A` is `n1×k`, `B` is `n2×k`,
/// the result is `n1×n2`.
///
/// # Panics
///
/// If the inner dimensions disagree.
pub fn matmul_abt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "A and B must share the inner dimension for A×Bᵀ");
    let mut c = Matrix::zeros(a.rows(), b.rows());
    matmul_abt_rows_into(a, b, 0, a.rows(), &mut c);
    c
}

/// Computes the row stripe `C[r0..r1] = A[r0..r1]×Bᵀ` into `c`
/// (which must be `a.rows()×b.rows()`), leaving other rows untouched.
///
/// This is exactly the work one processor performs under horizontal
/// striped partitioning (paper Fig. 16a).
pub fn matmul_abt_rows_into(a: &Matrix, b: &Matrix, r0: usize, r1: usize, c: &mut Matrix) {
    assert_eq!(a.cols(), b.cols());
    assert_eq!(c.rows(), a.rows());
    assert_eq!(c.cols(), b.rows());
    assert!(r0 <= r1 && r1 <= a.rows());
    for i in r0..r1 {
        let ai = a.row(i);
        for j in 0..b.rows() {
            let bj = b.row(j);
            let mut acc = 0.0;
            for (x, y) in ai.iter().zip(bj) {
                acc += x * y;
            }
            c[(i, j)] = acc;
        }
    }
}

/// Stripe variant writing into a raw row-major buffer of `(r1-r0)·b.rows()`
/// elements — used by the multi-threaded executor, which hands each worker
/// a disjoint stripe of `C`.
pub fn matmul_abt_rows_into_slice(
    a: &Matrix,
    b: &Matrix,
    r0: usize,
    r1: usize,
    out: &mut [f64],
) {
    assert_eq!(a.cols(), b.cols());
    assert!(r0 <= r1 && r1 <= a.rows());
    assert_eq!(out.len(), (r1 - r0) * b.rows());
    let nb = b.rows();
    for i in r0..r1 {
        let ai = a.row(i);
        let crow = &mut out[(i - r0) * nb..(i - r0 + 1) * nb];
        for (j, cj) in crow.iter_mut().enumerate() {
            let bj = b.row(j);
            let mut acc = 0.0;
            for (x, y) in ai.iter().zip(bj) {
                acc += x * y;
            }
            *cj = acc;
        }
    }
}

/// Rows per micro-tile of the packed kernel's register block.
const MR: usize = 4;
/// Columns per micro-tile of the packed kernel's register block.
const NR: usize = 4;

/// Default tile size of the packed kernel: a `64×64` `f64` panel is 32 KiB,
/// so one A panel plus the per-k-block B panel stay cache-resident.
pub const DEFAULT_TILE: usize = 64;

/// Tiled `C = A×Bᵀ` — the blocked stand-in for the ATLAS kernel, as a
/// packed-tile implementation.
///
/// Per k-block, panels of A and B are copied into contiguous k-major
/// buffers interleaved in groups of `MR`/`NR` rows; the inner loop
/// then walks both packs with `chunks_exact`, which LLVM autovectorizes
/// into a register-blocked `MR×NR` accumulator (no gather, no bounds
/// checks). Edge micro-tiles are zero-padded in the packs, contributing
/// exact zeros, so results accumulate per k-block in the same order as
/// the plain tiled loop ([`matmul_abt_blocked_loop`]).
pub fn matmul_abt_blocked(a: &Matrix, b: &Matrix, tile: usize) -> Matrix {
    assert_eq!(a.cols(), b.cols());
    assert!(tile > 0);
    let mut c = Matrix::zeros(a.rows(), b.rows());
    let n1 = a.rows();
    matmul_abt_packed_rows_into_slice(a, b, 0, n1, c.stripe_mut(0, n1), tile);
    c
}

/// The seed's plain tiled triple loop, kept as the packed kernel's
/// baseline in `repro bench_partition`.
pub fn matmul_abt_blocked_loop(a: &Matrix, b: &Matrix, tile: usize) -> Matrix {
    assert_eq!(a.cols(), b.cols());
    assert!(tile > 0);
    let n1 = a.rows();
    let n2 = b.rows();
    let k = a.cols();
    let mut c = Matrix::zeros(n1, n2);
    for i0 in (0..n1).step_by(tile) {
        let i1 = (i0 + tile).min(n1);
        for j0 in (0..n2).step_by(tile) {
            let j1 = (j0 + tile).min(n2);
            for k0 in (0..k).step_by(tile) {
                let k1 = (k0 + tile).min(k);
                for i in i0..i1 {
                    let ai = &a.row(i)[k0..k1];
                    for j in j0..j1 {
                        let bj = &b.row(j)[k0..k1];
                        let mut acc = 0.0;
                        for (x, y) in ai.iter().zip(bj) {
                            acc += x * y;
                        }
                        c[(i, j)] += acc;
                    }
                }
            }
        }
    }
    c
}

/// Packed-tile stripe variant: `out = A[r0..r1]×Bᵀ` into a row-major
/// buffer of `(r1-r0)·b.rows()` elements. This is the kernel the
/// multi-threaded host executor hands each worker.
pub fn matmul_abt_packed_rows_into_slice(
    a: &Matrix,
    b: &Matrix,
    r0: usize,
    r1: usize,
    out: &mut [f64],
    tile: usize,
) {
    assert_eq!(a.cols(), b.cols());
    assert!(r0 <= r1 && r1 <= a.rows());
    assert_eq!(out.len(), (r1 - r0) * b.rows());
    assert!(tile > 0);
    let n2 = b.rows();
    let k = a.cols();
    if r0 == r1 || n2 == 0 {
        return;
    }
    out.fill(0.0);

    // Pack buffers, allocated once: the B pack covers the whole column
    // range of one k-block (bounded by n2·tile elements), the A pack one
    // row block (tile·tile). Row counts are rounded up to the micro-tile
    // so the micro-kernel needs no edge branches.
    let n2_panels = n2.div_ceil(NR);
    let mut b_pack = vec![0.0f64; n2_panels * NR * tile];
    let mut a_pack = vec![0.0f64; tile.div_ceil(MR) * MR * tile];

    for k0 in (0..k).step_by(tile) {
        let kb = (k0 + tile).min(k) - k0;

        // Pack B[j][k0..k0+kb] k-major, interleaved in groups of NR rows:
        // b_pack[(panel·kb + kk)·NR + c] = B[panel·NR + c][k0 + kk].
        for pj in 0..n2_panels {
            let cols = (n2 - pj * NR).min(NR);
            let panel = &mut b_pack[pj * kb * NR..(pj + 1) * kb * NR];
            panel.fill(0.0);
            for cc in 0..cols {
                let brow = &b.row(pj * NR + cc)[k0..k0 + kb];
                for (kk, &v) in brow.iter().enumerate() {
                    panel[kk * NR + cc] = v;
                }
            }
        }

        for i0 in (r0..r1).step_by(tile) {
            let ib = (i0 + tile).min(r1) - i0;
            let i_panels = ib.div_ceil(MR);

            // Pack A[i][k0..k0+kb] k-major in groups of MR rows.
            for pi in 0..i_panels {
                let rows = (ib - pi * MR).min(MR);
                let panel = &mut a_pack[pi * kb * MR..(pi + 1) * kb * MR];
                panel.fill(0.0);
                for rr in 0..rows {
                    let arow = &a.row(i0 + pi * MR + rr)[k0..k0 + kb];
                    for (kk, &v) in arow.iter().enumerate() {
                        panel[kk * MR + rr] = v;
                    }
                }
            }

            // Micro-kernel sweep: every (A panel, B panel) pair updates an
            // MR×NR register tile.
            for pi in 0..i_panels {
                let rows = (ib - pi * MR).min(MR);
                let pa = &a_pack[pi * kb * MR..(pi + 1) * kb * MR];
                for pj in 0..n2_panels {
                    let cols = (n2 - pj * NR).min(NR);
                    let pb = &b_pack[pj * kb * NR..(pj + 1) * kb * NR];
                    let mut acc = [[0.0f64; NR]; MR];
                    for (ak, bk) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)) {
                        for (accr, &av) in acc.iter_mut().zip(ak) {
                            for (accv, &bv) in accr.iter_mut().zip(bk) {
                                *accv += av * bv;
                            }
                        }
                    }
                    for (rr, accr) in acc.iter().enumerate().take(rows) {
                        let gi = i0 + pi * MR + rr - r0;
                        let crow = &mut out[gi * n2 + pj * NR..gi * n2 + pj * NR + cols];
                        for (cv, &v) in crow.iter_mut().zip(accr) {
                            *cv += v;
                        }
                    }
                }
            }
        }
    }
}

/// Plain `C = A×B` reference (used by tests to cross-check `A×Bᵀ` and to
/// verify LU reconstructions).
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut c = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        let ai = a.row(i);
        for (kk, &aik) in ai.iter().enumerate() {
            let bk = b.row(kk);
            let ci = c.row_mut(i);
            for (j, &bkj) in bk.iter().enumerate() {
                ci[j] += aik * bkj;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abt_matches_reference() {
        let a = Matrix::random(7, 5, 1);
        let b = Matrix::random(6, 5, 2);
        let via_abt = matmul_abt(&a, &b);
        let reference = matmul(&a, &b.transpose());
        assert!(via_abt.max_diff(&reference) < 1e-12);
    }

    #[test]
    fn blocked_matches_naive() {
        let a = Matrix::random(17, 13, 3);
        let b = Matrix::random(11, 13, 4);
        let naive = matmul_abt(&a, &b);
        for tile in [1, 4, 8, 32] {
            let blocked = matmul_abt_blocked(&a, &b, tile);
            assert!(naive.max_diff(&blocked) < 1e-10, "tile {tile}");
        }
    }

    #[test]
    fn packed_matches_plain_tiled_loop() {
        // Shapes chosen to exercise every edge case of the micro-tiling:
        // ragged in rows, columns and depth relative to MR/NR and the tile.
        for (n1, n2, k, seed) in [(17, 13, 29, 1), (64, 64, 64, 2), (5, 3, 2, 3), (1, 1, 1, 4)] {
            let a = Matrix::random(n1, k, seed);
            let b = Matrix::random(n2, k, seed + 100);
            for tile in [1, 3, 4, 8, 64] {
                let packed = matmul_abt_blocked(&a, &b, tile);
                let plain = matmul_abt_blocked_loop(&a, &b, tile);
                assert!(
                    packed.max_diff(&plain) < 1e-10,
                    "{n1}x{k} · {n2}x{k}, tile {tile}"
                );
            }
        }
    }

    #[test]
    fn packed_stripe_matches_full_product() {
        let a = Matrix::random(23, 15, 9);
        let b = Matrix::random(14, 15, 10);
        let full = matmul_abt(&a, &b);
        for (r0, r1) in [(0, 23), (4, 11), (7, 7), (22, 23)] {
            let mut out = vec![f64::NAN; (r1 - r0) * 14];
            matmul_abt_packed_rows_into_slice(&a, &b, r0, r1, &mut out, 8);
            for i in 0..r1 - r0 {
                for j in 0..14 {
                    assert!(
                        (out[i * 14 + j] - full[(r0 + i, j)]).abs() < 1e-10,
                        "rows {r0}..{r1}, ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn stripe_computes_only_its_rows() {
        let a = Matrix::random(8, 4, 5);
        let b = Matrix::random(8, 4, 6);
        let full = matmul_abt(&a, &b);
        let mut c = Matrix::zeros(8, 8);
        matmul_abt_rows_into(&a, &b, 2, 5, &mut c);
        for i in 2..5 {
            for j in 0..8 {
                assert!((c[(i, j)] - full[(i, j)]).abs() < 1e-12);
            }
        }
        for i in [0, 1, 5, 6, 7] {
            assert_eq!(c.row(i), vec![0.0; 8].as_slice(), "row {i} untouched");
        }
    }

    #[test]
    fn stripe_slice_matches_matrix_variant() {
        let a = Matrix::random(9, 5, 7);
        let b = Matrix::random(6, 5, 8);
        let full = matmul_abt(&a, &b);
        let mut out = vec![0.0; 3 * 6];
        matmul_abt_rows_into_slice(&a, &b, 4, 7, &mut out);
        for i in 0..3 {
            for j in 0..6 {
                assert!((out[i * 6 + j] - full[(4 + i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn identity_multiplication() {
        let a = Matrix::random(5, 5, 11);
        let i = Matrix::identity(5);
        // A×Iᵀ = A.
        assert!(matmul_abt(&a, &i).max_diff(&a) < 1e-15);
    }

    #[test]
    fn non_square_shapes() {
        // Table 3's shapes: equal element counts, different aspect ratios.
        let a = Matrix::random(128, 512, 21);
        let b = Matrix::random(64, 512, 22);
        let c = matmul_abt(&a, &b);
        assert_eq!((c.rows(), c.cols()), (128, 64));
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        matmul_abt(&a, &b);
    }
}
