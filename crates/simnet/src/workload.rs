//! Problem-size conversions between matrix dimensions and element counts.
//!
//! The paper defines the **size of the problem** as "the amount of data
//! stored and processed by the algorithm" — *not* the operation count. For
//! the multiplication of two dense `n×n` matrices the size is `3·n²`
//! (A, B and C); for the LU factorisation of one dense `n×n` matrix it is
//! `n²`. These conversions are used everywhere a matrix workload meets a
//! speed function.

/// Elements stored by `C = A×Bᵀ` on square `n×n` matrices: `3n²`.
pub fn mm_elements(n: u64) -> u64 {
    3 * n * n
}

/// Elements stored by LU factorisation of an `n×n` matrix: `n²`.
pub fn lu_elements(n: u64) -> u64 {
    n * n
}

/// Matrix dimension whose square MM problem has (approximately) the given
/// element count: inverse of [`mm_elements`].
pub fn mm_dimension(elements: f64) -> f64 {
    (elements / 3.0).max(0.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_mm_elements() {
        assert_eq!(mm_elements(1000), 3_000_000);
        assert_eq!(mm_elements(0), 0);
    }

    #[test]
    fn dimensions_invert_elements() {
        let n = 4500u64;
        assert!((mm_dimension(mm_elements(n) as f64) - n as f64).abs() < 1e-6);
        assert_eq!((lu_elements(n) as f64).sqrt(), n as f64);
    }
}
