//! The modified algorithm: bisection of the space of solutions
//! (paper §2, Figs. 10–12).
//!
//! Where the basic algorithm shrinks the *region between two lines*, the
//! modified algorithm shrinks the discrete **space of candidate solutions**
//! — the set of origin lines passing through at least one integer-abscissa
//! point of some processor graph. At each step it:
//!
//! 1. finds the processor whose graph is intersected by the largest number
//!    of candidate lines inside the current region (the graph with the most
//!    integer abscissas between its two bounding intersections);
//! 2. draws the line through that graph's *median* integer point, splitting
//!    those candidates in half;
//! 3. keeps the half containing the optimum (by comparing the trial line's
//!    element total with `n`).
//!
//! After `p` such bisections the candidate count provably drops by at least
//! 50 %, so at most `p·log₂ n` steps are needed; with `O(p)` work per step
//! the complexity is `O(p²·log₂ n)` **independent of the shapes of the
//! graphs** — unlike the basic algorithm, which is shape-sensitive.
//!
//! The search stops when no integer lies strictly inside any graph's
//! interval. The loop, shared with the basic and secant algorithms, and
//! this algorithm's trial rule live in `search.rs`.

use super::problem::{Distribution, PartitionReport, Partitioner};
use super::search::{cold, warm, Rule};
use crate::cost::CostFunction;
use crate::error::Result;

/// The solution-space bisection partitioner.
///
/// [`Partitioner::resolve_from`] searches an ε-bracket seeded from the
/// donor plan and returns the cold plan. A search gives up with
/// [`crate::error::Error::NoConvergence`] after `4·p·⌈log₂(n+2)⌉ + 64`
/// steps, four times the theoretical bound plus slack.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModifiedPartitioner;

impl ModifiedPartitioner {
    /// Creates the partitioner.
    pub fn new() -> Self {
        Self
    }
}

impl Partitioner for ModifiedPartitioner {
    fn partition<F: CostFunction>(&self, n: u64, funcs: &[F]) -> Result<PartitionReport> {
        cold(Rule::Modified, n, funcs)
    }

    fn resolve_from<F: CostFunction>(
        &self,
        prev: &Distribution,
        n: u64,
        funcs: &[F],
    ) -> Result<PartitionReport> {
        warm(Rule::Modified, prev, n, funcs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::search::assert_warm_resolve_is_bit_identical_to_cold;
    use crate::partition::BisectionPartitioner;
    use crate::speed::{AnalyticSpeed, ConstantSpeed};

    fn mixed_cluster() -> Vec<AnalyticSpeed> {
        vec![
            AnalyticSpeed::decreasing(200.0, 1e6, 2.0),
            AnalyticSpeed::saturating(150.0, 5e4),
            AnalyticSpeed::unimodal(250.0, 1e4, 5e6, 2.0),
            AnalyticSpeed::paging(300.0, 2e6, 3.0),
        ]
    }

    #[test]
    fn conserves_total() {
        let funcs = mixed_cluster();
        for n in [1u64, 17, 1000, 1_000_000, 123_456_789] {
            let r = ModifiedPartitioner::new().partition(n, &funcs).unwrap();
            assert_eq!(r.distribution.total(), n, "n = {n}");
        }
    }

    #[test]
    fn agrees_with_basic_bisection_on_makespan() {
        let funcs = mixed_cluster();
        for n in [1000u64, 50_000, 10_000_000] {
            let a = BisectionPartitioner::new().partition(n, &funcs).unwrap();
            let b = ModifiedPartitioner::new().partition(n, &funcs).unwrap();
            let rel = (a.makespan - b.makespan).abs() / a.makespan.max(b.makespan);
            assert!(rel < 1e-3, "n = {n}: basic {} vs modified {}", a.makespan, b.makespan);
        }
    }

    #[test]
    fn handles_exponential_tails_within_budget() {
        // The basic algorithm's worst case is the modified algorithm's
        // bread and butter: the step count stays O(p·log n).
        let funcs =
            vec![AnalyticSpeed::exp_tail(100.0, 10.0), AnalyticSpeed::exp_tail(100.0, 10.0)];
        let n = 2000;
        let r = ModifiedPartitioner::new().partition(n, &funcs).unwrap();
        assert_eq!(r.distribution.total(), n);
        let bound = 4 * funcs.len() * ((n + 2) as f64).log2().ceil() as usize + 64;
        assert!(r.trace.steps() <= bound, "{} steps exceeds budget {}", r.trace.steps(), bound);
        // Symmetric processors must receive a near-even split.
        let c = r.distribution.counts();
        assert!((c[0] as i64 - c[1] as i64).abs() <= 1, "{c:?}");
    }

    #[test]
    fn step_count_is_logarithmic_in_n() {
        let funcs = mixed_cluster();
        let small = ModifiedPartitioner::new().partition(10_000, &funcs).unwrap();
        let large = ModifiedPartitioner::new().partition(100_000_000, &funcs).unwrap();
        // log₂(1e8/1e4) ≈ 13.3: the large problem may take more steps, but
        // only by an O(p·log) factor, never proportionally to n.
        assert!(large.trace.steps() <= small.trace.steps() + 4 * funcs.len() * 16 + 16);
    }

    #[test]
    fn constant_speeds_reduce_to_proportional() {
        let funcs = vec![ConstantSpeed::new(100.0), ConstantSpeed::new(50.0)];
        let r = ModifiedPartitioner::new().partition(3000, &funcs).unwrap();
        assert_eq!(r.distribution.counts(), &[2000, 1000]);
    }

    #[test]
    fn tiny_problems_terminate() {
        let funcs = mixed_cluster();
        for n in 1..=8u64 {
            let r = ModifiedPartitioner::new().partition(n, &funcs).unwrap();
            assert_eq!(r.distribution.total(), n);
        }
    }

    #[test]
    fn warm_resolve_is_bit_identical_to_cold() {
        assert_warm_resolve_is_bit_identical_to_cold(&ModifiedPartitioner::new());
    }
}
