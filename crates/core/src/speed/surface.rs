//! Two-parameter problem sizes: speed *surfaces* and their reduction to
//! speed functions.
//!
//! Paper §3.1: for the matrix applications the problem size is really a
//! pair `(n1, n2)` and the speed function of a processor is geometrically
//! a surface `s = f(n1, n2)`. The paper's set-partitioning algorithm
//! applies after *fixing one parameter*: "since the parameter n2 is fixed
//! and is equal to n, the surface is reduced to a line
//! `s = f(n1, n2) = f(n1, n)`".
//!
//! This module provides the surface abstraction, the fixing reductions the
//! paper uses for MM (`n2 = n`) and LU (`n1 = n`), and a column-strip 2-D
//! partitioner for the two-free-parameter case the paper sketches ("the
//! optimal solution provided by a geometric algorithm would divide these
//! surfaces to produce a set of rectangular partitions … the number of
//! elements in each partition (the area of the partition) is proportional
//! to the speed of the processor").

use crate::error::Result;
use crate::partition::{Distribution, Partitioner};
use crate::speed::SpeedFunction;

/// Absolute speed as a function of a two-parameter problem size.
///
/// `speed2(n1, n2)` is the speed on a problem storing matrices of shape
/// `n1×n2` (the concrete element count is workload-specific). Like
/// [`SpeedFunction`], the surface must be continuous and positive in the
/// interior of its domain, and each line cut must satisfy the
/// single-intersection requirement for the reductions to be valid.
pub trait SpeedSurface {
    /// Absolute speed at the two-parameter size `(n1, n2)`.
    fn speed2(&self, n1: f64, n2: f64) -> f64;
}

impl<T: SpeedSurface + ?Sized> SpeedSurface for &T {
    fn speed2(&self, n1: f64, n2: f64) -> f64 {
        (**self).speed2(n1, n2)
    }
}

impl<T: SpeedSurface + ?Sized> SpeedSurface for Box<T> {
    fn speed2(&self, n1: f64, n2: f64) -> f64 {
        (**self).speed2(n1, n2)
    }
}

/// A surface induced by an element-count speed function: the speed depends
/// only on `elements(n1, n2)` — exactly the invariance the paper verifies
/// in Tables 3–4.
#[derive(Debug, Clone)]
pub struct ElementCountSurface<F> {
    inner: F,
    elements: fn(f64, f64) -> f64,
}

impl<F: SpeedFunction> ElementCountSurface<F> {
    /// Wraps an element-count function. `elements` maps `(n1, n2)` to the
    /// stored element count (e.g. `|a, b| 2.0*a*b + a*a` for `C = A×Bᵀ`).
    pub fn new(inner: F, elements: fn(f64, f64) -> f64) -> Self {
        Self { inner, elements }
    }
}

impl<F: SpeedFunction> SpeedSurface for ElementCountSurface<F> {
    fn speed2(&self, n1: f64, n2: f64) -> f64 {
        self.inner.speed((self.elements)(n1, n2))
    }
}

/// The paper's reduction: fix the second parameter, obtaining a 1-D speed
/// function of `n1` whose "problem size" argument is `n1·n2_fixed`
/// elements (the amount of data actually assigned to the processor).
#[derive(Debug, Clone)]
pub struct FixedN2<'a, S: ?Sized> {
    surface: &'a S,
    n2: f64,
}

impl<'a, S: SpeedSurface + ?Sized> FixedN2<'a, S> {
    /// Fixes `n2` (the paper's MM case: `n2 = n`).
    pub fn new(surface: &'a S, n2: f64) -> Self {
        assert!(n2 > 0.0 && n2.is_finite());
        Self { surface, n2 }
    }
}

impl<S: SpeedSurface + ?Sized> SpeedFunction for FixedN2<'_, S> {
    fn speed(&self, x: f64) -> f64 {
        // x is the element count n1·n2 assigned to this processor.
        let n1 = x / self.n2;
        self.surface.speed2(n1, self.n2)
    }
}

/// The symmetric reduction fixing the first parameter (the paper's LU
/// case: `n1 = n`, full-height panels).
#[derive(Debug, Clone)]
pub struct FixedN1<'a, S: ?Sized> {
    surface: &'a S,
    n1: f64,
}

impl<'a, S: SpeedSurface + ?Sized> FixedN1<'a, S> {
    /// Fixes `n1`.
    pub fn new(surface: &'a S, n1: f64) -> Self {
        assert!(n1 > 0.0 && n1.is_finite());
        Self { surface, n1 }
    }
}

impl<S: SpeedSurface + ?Sized> SpeedFunction for FixedN1<'_, S> {
    fn speed(&self, x: f64) -> f64 {
        let n2 = x / self.n1;
        self.surface.speed2(self.n1, n2)
    }
}

/// A rectangular partition of an `n1×n2` domain into vertical column
/// strips, one per processor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnStrips {
    /// Width (in columns) of each processor's strip.
    pub widths: Vec<u64>,
    /// Height of the domain (rows, shared by all strips).
    pub n1: u64,
}

impl ColumnStrips {
    /// Element count (area) of each strip.
    pub fn areas(&self) -> Vec<u64> {
        self.widths.iter().map(|&w| w * self.n1).collect()
    }
}

/// Partitions an `n1×n2` rectangular domain into column strips whose areas
/// are proportional to the processors' speeds at their strip sizes — the
/// simplest member of the family of rectangular 2-D partitionings the
/// paper sketches.
///
/// Works by fixing `n1` (each strip spans all rows) and running any 1-D
/// partitioner on the `n1·n2` elements, then converting the element
/// distribution to whole columns with largest-remainder rounding.
pub fn partition_column_strips<S: SpeedSurface, P: Partitioner>(
    n1: u64,
    n2: u64,
    surfaces: &[S],
    partitioner: &P,
) -> Result<ColumnStrips> {
    let reduced: Vec<FixedN1<'_, S>> =
        surfaces.iter().map(|s| FixedN1::new(s, n1 as f64)).collect();
    let report = partitioner.partition(n1 * n2, &reduced)?;
    let widths = columns_from_elements(n2, n1, report.distribution);
    Ok(ColumnStrips { widths, n1 })
}

/// Largest-remainder conversion of an element distribution to columns of
/// height `n1`, summing exactly to `n2`.
fn columns_from_elements(n2: u64, n1: u64, dist: Distribution) -> Vec<u64> {
    let total: u64 = dist.total();
    if total == 0 {
        let mut widths = vec![0; dist.len()];
        if let Some(first) = widths.first_mut() {
            *first = n2;
        }
        return widths;
    }
    let _ = n1; // heights are uniform; only proportions matter
    let shares: Vec<f64> =
        dist.counts().iter().map(|&x| n2 as f64 * x as f64 / total as f64).collect();
    let mut widths: Vec<u64> = shares.iter().map(|&s| s.floor() as u64).collect();
    let mut assigned: u64 = widths.iter().sum();
    let mut order: Vec<usize> = (0..widths.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = shares[a] - shares[a].floor();
        let fb = shares[b] - shares[b].floor();
        fb.total_cmp(&fa)
    });
    let len = widths.len().max(1);
    let mut k = 0;
    while assigned < n2 {
        widths[order[k % len]] += 1;
        assigned += 1;
        k += 1;
    }
    widths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::CombinedPartitioner;
    use crate::speed::{AnalyticSpeed, ConstantSpeed};

    fn mm_elements(n1: f64, n2: f64) -> f64 {
        2.0 * n1 * n2 + n1 * n1
    }

    #[test]
    fn element_count_surface_is_shape_invariant_at_equal_elements() {
        let s = ElementCountSurface::new(AnalyticSpeed::decreasing(100.0, 1e6, 2.0), |a, b| {
            a * b
        });
        assert_eq!(s.speed2(100.0, 400.0), s.speed2(200.0, 200.0));
        assert_ne!(s.speed2(100.0, 400.0), s.speed2(200.0, 400.0));
    }

    #[test]
    fn fixed_n2_reduces_to_1d_function() {
        let surface =
            ElementCountSurface::new(AnalyticSpeed::unimodal(200.0, 1e3, 1e6, 2.0), mm_elements);
        let f = FixedN2::new(&surface, 1000.0);
        // x = n1·n2 elements assigned; at x = 5e5, n1 = 500.
        let direct = surface.speed2(500.0, 1000.0);
        assert_eq!(f.speed(5e5), direct);
    }

    #[test]
    fn fixed_n1_reduces_to_1d_function() {
        let surface =
            ElementCountSurface::new(AnalyticSpeed::decreasing(150.0, 1e6, 2.0), |a, b| a * b);
        let f = FixedN1::new(&surface, 2000.0);
        assert_eq!(f.speed(1e6), surface.speed2(2000.0, 500.0));
    }

    #[test]
    fn reduced_functions_satisfy_single_intersection() {
        use crate::speed::check_single_intersection;
        let surface =
            ElementCountSurface::new(AnalyticSpeed::unimodal(200.0, 1e3, 1e6, 2.0), |a, b| {
                a * b
            });
        let f = FixedN2::new(&surface, 1000.0);
        assert!(check_single_intersection(&f, 1e3, 1e8, 200).is_ok());
    }

    #[test]
    fn column_strips_are_proportional_for_constant_speeds() {
        let surfaces: Vec<ElementCountSurface<ConstantSpeed>> = vec![
            ElementCountSurface::new(ConstantSpeed::new(300.0), |a, b| a * b),
            ElementCountSurface::new(ConstantSpeed::new(100.0), |a, b| a * b),
        ];
        let strips =
            partition_column_strips(500, 800, &surfaces, &CombinedPartitioner::new()).unwrap();
        assert_eq!(strips.widths.iter().sum::<u64>(), 800);
        assert_eq!(strips.widths, vec![600, 200]);
        assert_eq!(strips.areas(), vec![300_000, 100_000]);
    }

    #[test]
    fn column_strips_respect_paging_surfaces() {
        // Machine 0 pages once its strip exceeds 1e5 elements; machine 1
        // never does. Machine 0's strip must be capped near its knee.
        let surfaces: Vec<ElementCountSurface<AnalyticSpeed>> = vec![
            ElementCountSurface::new(AnalyticSpeed::paging(300.0, 1e5, 4.0), |a, b| a * b),
            ElementCountSurface::new(AnalyticSpeed::constant(60.0), |a, b| a * b),
        ];
        let strips =
            partition_column_strips(1000, 1000, &surfaces, &CombinedPartitioner::new()).unwrap();
        assert_eq!(strips.widths.iter().sum::<u64>(), 1000);
        let areas = strips.areas();
        // Far less than proportional-to-peak (300:60 would give 833k) …
        assert!(areas[0] < 400_000, "paging machine must not be overloaded: {areas:?}");
        // … and the strip sizes equalise execution times on the reduced
        // functions (up to one-column quantisation).
        let t0 = FixedN1::new(&surfaces[0], 1000.0).time(areas[0] as f64);
        let t1 = FixedN1::new(&surfaces[1], 1000.0).time(areas[1] as f64);
        assert!((t0 - t1).abs() / t0.max(t1) < 0.05, "times {t0} vs {t1}");
    }

    #[test]
    fn degenerate_zero_distribution_gives_all_columns_to_first() {
        let widths = columns_from_elements(10, 5, Distribution::new(vec![0, 0]));
        assert_eq!(widths, vec![10, 0]);
    }
}
