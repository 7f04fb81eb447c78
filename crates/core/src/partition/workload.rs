//! Workload-shaped partitioners: nonlinear per-machine cost transforms
//! over the cluster's base performance model.
//!
//! The paper's problem statement measures per-machine work in *elements*
//! and assumes the time to process `x` elements is `x / s(x)` — linear in
//! `x` up to the speed function's shape. Two important workload families
//! break that linearity while keeping the monotone-time invariant the
//! geometric machinery needs:
//!
//! * **comparison sorting** — a machine assigned `x` elements performs
//!   `Θ(x·log x)` comparisons (the heterogeneous sample-sort setting:
//!   partition first, sort locally, merge);
//! * **query/join processing** — per-machine cost grows as `x^(1+γ)` for
//!   some workload exponent `γ > 0` (nested-loop-ish joins, quadratic
//!   windowed aggregations).
//!
//! Both are solved here by wrapping every processor's model in the
//! corresponding [`CostFunction`] transform ([`SortCost`], [`QueryCost`])
//! and delegating to the [`CombinedPartitioner`] — the transforms preserve
//! "`time` strictly increasing", so the slope search, fine-tuning and
//! warm-start paths apply unchanged, merely in the transformed time
//! domain. The reported makespan is the transformed (wall-clock) time of
//! the slowest machine, not the element-domain time.

use super::combined::CombinedPartitioner;
use super::problem::{Distribution, PartitionReport, Partitioner};
use crate::cost::{CostFunction, QueryCost, SortCost};
use crate::error::Result;

/// Partitioner for heterogeneous sample-sort: balances `x·log₂ x`
/// comparison work instead of raw element counts. Exposed through the
/// planner registry as `sort-sample`.
///
/// Machines whose speed degrades at large sizes are doubly penalised
/// under sorting (more elements *and* a larger log factor), so the
/// optimal sort partition shifts work towards fast machines slightly
/// more aggressively than the linear partition does.
#[derive(Debug, Clone, Copy, Default)]
pub struct SortSamplePartitioner;

impl SortSamplePartitioner {
    /// Creates the partitioner.
    pub fn new() -> Self {
        Self
    }
}

impl Partitioner for SortSamplePartitioner {
    fn partition<F: CostFunction>(&self, n: u64, funcs: &[F]) -> Result<PartitionReport> {
        let wrapped: Vec<SortCost<'_, F>> = funcs.iter().map(SortCost::new).collect();
        CombinedPartitioner.partition(n, &wrapped)
    }

    fn resolve_from<F: CostFunction>(
        &self,
        prev: &Distribution,
        n: u64,
        funcs: &[F],
    ) -> Result<PartitionReport> {
        let wrapped: Vec<SortCost<'_, F>> = funcs.iter().map(SortCost::new).collect();
        CombinedPartitioner.resolve_from(prev, n, &wrapped)
    }
}

/// The query/join workload exponent used by the registry's `query`
/// entry: per-machine cost grows as `x^(1 + γ)` with `γ = 1/2`, the
/// classic sort-merge-join regime between linear scans (`γ = 0`) and
/// quadratic nested loops (`γ = 1`).
pub const DEFAULT_QUERY_GAMMA: f64 = 0.5;

/// Partitioner for superlinear query/join workloads: balances
/// `x^(1+γ)`-shaped work, with `γ` = [`DEFAULT_QUERY_GAMMA`], over the
/// cluster's base model. Exposed through the planner registry as `query`.
/// For another exponent, solve [`QueryCost`]-wrapped models with the
/// [`CombinedPartitioner`].
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryPartitioner;

impl QueryPartitioner {
    /// Creates the partitioner.
    pub fn new() -> Self {
        Self
    }
}

impl Partitioner for QueryPartitioner {
    fn partition<F: CostFunction>(&self, n: u64, funcs: &[F]) -> Result<PartitionReport> {
        let wrapped: Vec<QueryCost<'_, F>> =
            funcs.iter().map(|f| QueryCost::new(f, DEFAULT_QUERY_GAMMA)).collect();
        CombinedPartitioner.partition(n, &wrapped)
    }

    fn resolve_from<F: CostFunction>(
        &self,
        prev: &Distribution,
        n: u64,
        funcs: &[F],
    ) -> Result<PartitionReport> {
        let wrapped: Vec<QueryCost<'_, F>> =
            funcs.iter().map(|f| QueryCost::new(f, DEFAULT_QUERY_GAMMA)).collect();
        CombinedPartitioner.resolve_from(prev, n, &wrapped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speed::AnalyticSpeed;

    fn mixed_cluster() -> Vec<AnalyticSpeed> {
        vec![
            AnalyticSpeed::decreasing(200.0, 1e6, 2.0),
            AnalyticSpeed::saturating(150.0, 5e4),
            AnalyticSpeed::unimodal(250.0, 1e4, 5e6, 2.0),
            AnalyticSpeed::constant(80.0),
        ]
    }

    #[test]
    fn sort_partitioner_matches_manual_transform_bitwise() {
        let funcs = mixed_cluster();
        let n = 1_234_567;
        let via_entry = SortSamplePartitioner::new().partition(n, &funcs).unwrap();
        let wrapped: Vec<SortCost<'_, AnalyticSpeed>> =
            funcs.iter().map(SortCost::new).collect();
        let manual = CombinedPartitioner::new().partition(n, &wrapped).unwrap();
        assert_eq!(via_entry.distribution.counts(), manual.distribution.counts());
        assert_eq!(via_entry.makespan.to_bits(), manual.makespan.to_bits());
        assert_eq!(via_entry.distribution.total(), n);
    }

    #[test]
    fn sort_makespan_is_the_transformed_time_of_the_slowest_machine() {
        let funcs = mixed_cluster();
        let n = 500_000;
        let r = SortSamplePartitioner::new().partition(n, &funcs).unwrap();
        let worst = r
            .distribution
            .counts()
            .iter()
            .zip(&funcs)
            .map(|(&x, f)| SortCost::new(f).time(x as f64))
            .fold(0.0f64, f64::max);
        assert_eq!(r.makespan.to_bits(), worst.to_bits());
    }

    #[test]
    fn query_gamma_zero_is_bit_identical_to_the_plain_combined_solve() {
        let funcs = mixed_cluster();
        let n = 2_000_000;
        let wrapped: Vec<QueryCost<'_, AnalyticSpeed>> =
            funcs.iter().map(|f| QueryCost::new(f, 0.0)).collect();
        let degenerate = CombinedPartitioner::new().partition(n, &wrapped).unwrap();
        let plain = CombinedPartitioner::new().partition(n, &funcs).unwrap();
        assert_eq!(degenerate.distribution.counts(), plain.distribution.counts());
        assert_eq!(degenerate.makespan.to_bits(), plain.makespan.to_bits());
    }

    #[test]
    fn query_workload_conserves_and_equalises_transformed_times() {
        let funcs = mixed_cluster();
        let n = 750_000;
        let r = QueryPartitioner::new().partition(n, &funcs).unwrap();
        assert_eq!(r.distribution.total(), n);
        // All machines with work finish within the rounding envelope of
        // each other in the *transformed* time domain.
        let times: Vec<f64> = r
            .distribution
            .counts()
            .iter()
            .zip(&funcs)
            .map(|(&x, f)| QueryCost::new(f, DEFAULT_QUERY_GAMMA).time(x as f64))
            .collect();
        let max = times.iter().fold(0.0f64, |a, &b| a.max(b));
        let min = times.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        assert!((max - min) / max < 0.01, "times: {times:?}");
    }

    #[test]
    fn warm_start_reproduces_the_cold_solve() {
        let funcs = mixed_cluster();
        let donor_n = 1_000_000u64;
        for n in [donor_n, donor_n + 1, donor_n - 3000] {
            for (cold, warm) in [
                (
                    SortSamplePartitioner::new().partition(n, &funcs).unwrap(),
                    SortSamplePartitioner::new()
                        .resolve_from(
                            &SortSamplePartitioner::new()
                                .partition(donor_n, &funcs)
                                .unwrap()
                                .distribution,
                            n,
                            &funcs,
                        )
                        .unwrap(),
                ),
                (
                    QueryPartitioner::new().partition(n, &funcs).unwrap(),
                    QueryPartitioner::new()
                        .resolve_from(
                            &QueryPartitioner::new()
                                .partition(donor_n, &funcs)
                                .unwrap()
                                .distribution,
                            n,
                            &funcs,
                        )
                        .unwrap(),
                ),
            ] {
                assert_eq!(cold.distribution.counts(), warm.distribution.counts());
                assert_eq!(cold.makespan.to_bits(), warm.makespan.to_bits());
            }
        }
    }

    #[test]
    fn cold_solves_report_a_cold_trace() {
        // The combined solver, also under the transforms, seeds its cold
        // solves from the single-number line; only a donor plan marks a
        // trace warm.
        let funcs = mixed_cluster();
        let n = 1_000_000;
        let sort = SortSamplePartitioner::new();
        let query = QueryPartitioner::new();
        for cold in [
            CombinedPartitioner::new().partition(n, &funcs).unwrap(),
            sort.partition(n, &funcs).unwrap(),
            query.partition(n, &funcs).unwrap(),
        ] {
            assert!(!cold.trace.warm_bracket);
            assert!(cold.trace.steps() > 0);
        }
        let donor = sort.partition(n, &funcs).unwrap().distribution;
        assert!(sort.resolve_from(&donor, n + 1, &funcs).unwrap().trace.warm_bracket);
    }
}
