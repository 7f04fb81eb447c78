//! A superlinear line search (towards the paper's "ideal algorithm").
//!
//! Paper §2 closes with: *"An ideal bisection algorithm would be of the
//! complexity O(p·log₂n) … being insensitive to the shape of the graphs of
//! the processors. The design of such an algorithm is still a challenge."*
//!
//! This partitioner is a practical step in that direction: it performs
//! **regula falsi (false position) with Illinois damping** on the monotone
//! map `slope ↦ Σ x_i(slope)`, interpolating in `log`-slope space so that
//! exponentially small optimal slopes (the basic algorithm's `O(n)` worst
//! case) are reached in a logarithmic number of steps. Each step still
//! costs `O(p)` intersection computations, and the Illinois damping
//! guarantees the bracket keeps shrinking, so the search never does worse
//! than a constant factor over plain bisection on the same bracket — but
//! there is **no shape-independent superlinearity proof**, which is
//! exactly why the paper's challenge stays open; the guaranteed-bound
//! algorithm remains [`super::ModifiedPartitioner`].
//!
//! The loop, shared with the basic and modified algorithms, and this
//! algorithm's trial rule live in `search.rs`.

use super::problem::{Distribution, PartitionReport, Partitioner};
use super::search::{cold, warm, Rule};
use crate::cost::CostFunction;
use crate::error::Result;

/// Regula-falsi (Illinois) partitioner in log-slope space, exposed
/// through the planner registry as `secant`.
///
/// **Guarantees.** Exact in the same sense as the other geometric
/// partitioners: the bracket only ever shrinks around the optimal slope
/// and the run ends in the paper's fine-tuning, so the plan lands within
/// the integer-rounding envelope of the continuous optimum
/// (oracle-checked in the conformance sweep). Superlinear *in practice*,
/// with no shape-independent proof: the paper's "ideal algorithm"
/// challenge stays open.
///
/// [`Partitioner::resolve_from`] searches an ε-bracket seeded from the
/// donor plan and returns the cold plan. A search gives up with
/// [`crate::error::Error::NoConvergence`] after 10 000 steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct SecantPartitioner;

impl SecantPartitioner {
    /// Creates the partitioner.
    pub fn new() -> Self {
        Self
    }
}

impl Partitioner for SecantPartitioner {
    fn partition<F: CostFunction>(&self, n: u64, funcs: &[F]) -> Result<PartitionReport> {
        cold(Rule::Secant, n, funcs)
    }

    fn resolve_from<F: CostFunction>(
        &self,
        prev: &Distribution,
        n: u64,
        funcs: &[F],
    ) -> Result<PartitionReport> {
        warm(Rule::Secant, prev, n, funcs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::search::assert_warm_resolve_is_bit_identical_to_cold;
    use crate::partition::{oracle, BisectionPartitioner};
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
    fn conserves_and_matches_oracle() {
        let funcs = mixed_cluster();
        for n in [1u64, 1000, 1_000_000, 1_000_000_000] {
            let r = SecantPartitioner::new().partition(n, &funcs).unwrap();
            assert_eq!(r.distribution.total(), n);
            if n >= 1000 {
                let o = oracle::solve(n, &funcs).unwrap();
                let rel = (r.makespan - o.makespan).abs() / o.makespan;
                assert!(rel < 1e-3, "n = {n}: {} vs {}", r.makespan, o.makespan);
            }
        }
    }

    #[test]
    fn handles_exponential_tails_in_few_steps() {
        // The log-space interpolation reaches exponentially small slopes
        // quickly where arithmetic slope bisection needs O(n) steps.
        let funcs =
            vec![AnalyticSpeed::exp_tail(100.0, 40.0), AnalyticSpeed::exp_tail(100.0, 100.0)];
        let n = 90_000;
        let secant = SecantPartitioner::new().partition(n, &funcs).unwrap();
        let basic = BisectionPartitioner::new().partition(n, &funcs).unwrap();
        assert_eq!(secant.distribution.total(), n);
        assert!(
            secant.trace.steps() * 4 < basic.trace.steps(),
            "secant {} steps vs basic {}",
            secant.trace.steps(),
            basic.trace.steps()
        );
        let o = oracle::solve(n, &funcs).unwrap();
        assert!((secant.makespan - o.makespan).abs() / o.makespan < 1e-3);
    }

    #[test]
    fn no_slower_than_bisection_on_smooth_problems() {
        let funcs = mixed_cluster();
        let n = 100_000_000;
        let secant = SecantPartitioner::new().partition(n, &funcs).unwrap();
        let basic = BisectionPartitioner::new().partition(n, &funcs).unwrap();
        assert!(
            secant.trace.steps() <= basic.trace.steps() * 2,
            "secant {} vs basic {}",
            secant.trace.steps(),
            basic.trace.steps()
        );
    }

    #[test]
    fn stops_at_slope_resolution_past_a_billion_elements() {
        // The intersections resolve x only to ~1e-9·x, about two elements
        // here, so an interval can stay one element wide between adjacent
        // slopes and only the slope-resolution guard ends the search.
        let funcs = mixed_cluster();
        let n = 2_000_000_000;
        let secant = SecantPartitioner::new().partition(n, &funcs).unwrap();
        let basic = BisectionPartitioner::new().partition(n, &funcs).unwrap();
        assert_eq!(secant.distribution.counts(), &[13668054, 1925256457, 46313107, 14762382]);
        assert_eq!(secant.distribution, basic.distribution);
        assert_eq!(secant.makespan.to_bits(), basic.makespan.to_bits());
    }

    #[test]
    fn stops_at_slope_resolution_near_2_pow_60() {
        // The plan `combined` returns for the same cluster and size.
        let funcs = vec![ConstantSpeed::new(3.0), ConstantSpeed::new(1.0)];
        let r = SecantPartitioner::new().partition((1u64 << 60) - 1, &funcs).unwrap();
        assert_eq!(r.distribution.counts(), &[864691128455135248, 288230376151711727]);
    }

    #[test]
    fn constant_speeds_exact() {
        let funcs = vec![ConstantSpeed::new(100.0), ConstantSpeed::new(50.0)];
        let r = SecantPartitioner::new().partition(3000, &funcs).unwrap();
        assert_eq!(r.distribution.counts(), &[2000, 1000]);
    }

    #[test]
    fn empty_and_zero_cases() {
        let empty: Vec<ConstantSpeed> = vec![];
        assert!(SecantPartitioner::new().partition(5, &empty).is_err());
        let funcs = vec![ConstantSpeed::new(1.0)];
        let r = SecantPartitioner::new().partition(0, &funcs).unwrap();
        assert_eq!(r.distribution.total(), 0);
    }

    #[test]
    fn warm_resolve_is_bit_identical_to_cold() {
        assert_warm_resolve_is_bit_identical_to_cold(&SecantPartitioner::new());
    }
}
