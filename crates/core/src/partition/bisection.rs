//! The basic (slope) bisection algorithm (paper §2, Figs. 7–8).
//!
//! The region between the two initial lines is repeatedly bisected by a
//! line through the origin. If the sum of the intersection abscissas of the
//! trial line is smaller than `n`, the optimum lies in the lower (shallower
//! slope) region, otherwise in the upper region. The iteration stops when
//! every processor's interval between the two lines is shorter than one
//! element, after which the fine-tuning procedure picks the integer
//! allocation. The loop, shared with the modified and secant algorithms,
//! and this algorithm's trial rule live in `search.rs`.
//!
//! Complexity: each step costs `O(p)` intersection computations. When the
//! optimal slope decreases polynomially with `n` (`θ_opt(n) = O(n^−k)`)
//! the number of steps is `O(k·log₂ n)`, giving `O(p·log n)` total — the
//! best case quoted in the paper. When the optimal slope decreases
//! exponentially (`θ_opt(n) = O(e^−n)`, see
//! [`crate::speed::AnalyticSpeed::exp_tail`]) the step count degenerates to
//! `O(n)` — the case that motivates the
//! [modified algorithm](super::ModifiedPartitioner).

use super::problem::{Distribution, PartitionReport, Partitioner};
use super::search::{cold, warm, Rule};
use crate::cost::CostFunction;
use crate::error::Result;

/// How the trial slope is chosen from the two bounding slopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlopeMode {
    /// Arithmetic mean of the tangents — what the paper recommends for
    /// practical implementations ("slopes that are tangents can be used
    /// instead of angles for efficiency from computational point of view").
    #[default]
    Tangent,
    /// Geometric mean of the tangents (an extension beyond the paper):
    /// halves the *ratio* of the slopes each step, which keeps the step
    /// count logarithmic even for exponentially decaying speed functions.
    /// Taken as the midpoint in ln-slope, so bounds whose product
    /// underflows still split.
    Geometric,
}

impl SlopeMode {
    /// The trial slope between `shallow` and `steep`.
    pub fn trial(&self, shallow: f64, steep: f64) -> f64 {
        match self {
            SlopeMode::Tangent => 0.5 * (shallow + steep),
            SlopeMode::Geometric => (0.5 * (shallow.ln() + steep.ln())).exp(),
        }
    }
}

/// The basic slope-bisection partitioner.
///
/// A cold solve halves the region by [`Self::slope_mode`];
/// [`Partitioner::resolve_from`] picks trials by regula falsi in
/// `(ln slope, ln total)` in an ε-bracket seeded from the donor plan, and
/// returns the cold plan. A
/// search gives up with [`crate::error::Error::NoConvergence`] after
/// 100 000 steps, far beyond any polynomial-slope workload, so the
/// algorithm's documented `O(n)` worst case surfaces instead of hanging.
#[derive(Debug, Clone, Copy, Default)]
pub struct BisectionPartitioner {
    /// Trial-slope rule.
    pub slope_mode: SlopeMode,
}

impl BisectionPartitioner {
    /// Creates the partitioner with the paper's tangent-bisection rule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the trial-slope rule.
    pub fn with_slope_mode(mut self, mode: SlopeMode) -> Self {
        self.slope_mode = mode;
        self
    }
}

impl Partitioner for BisectionPartitioner {
    fn partition<F: CostFunction>(&self, n: u64, funcs: &[F]) -> Result<PartitionReport> {
        cold(Rule::Basic(self.slope_mode), n, funcs)
    }

    fn resolve_from<F: CostFunction>(
        &self,
        prev: &Distribution,
        n: u64,
        funcs: &[F],
    ) -> Result<PartitionReport> {
        warm(Rule::Basic(self.slope_mode), prev, n, funcs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::partition::initial::bracket_slopes;
    use crate::partition::oracle;
    use crate::partition::search::{assert_warm_resolve_is_bit_identical_to_cold, search};
    use crate::speed::{AnalyticSpeed, ConstantSpeed};
    use crate::trace::Trace;

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
            let r = BisectionPartitioner::new().partition(n, &funcs).unwrap();
            assert_eq!(r.distribution.total(), n, "n = {n}");
        }
    }

    #[test]
    fn constant_speeds_reduce_to_proportional() {
        let funcs = vec![ConstantSpeed::new(100.0), ConstantSpeed::new(50.0)];
        let r = BisectionPartitioner::new().partition(3000, &funcs).unwrap();
        assert_eq!(r.distribution.counts(), &[2000, 1000]);
    }

    #[test]
    fn equalises_execution_times() {
        let funcs = mixed_cluster();
        let r = BisectionPartitioner::new().partition(10_000_000, &funcs).unwrap();
        let times = r.distribution.times(&funcs);
        let max = times.iter().cloned().fold(f64::MIN, f64::max);
        let min = times.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            (max - min) / max < 0.01,
            "optimal distribution equalises times: {times:?}"
        );
    }

    #[test]
    fn trace_records_monotone_bracket() {
        let funcs = mixed_cluster();
        let r = BisectionPartitioner::new().partition(5_000_000, &funcs).unwrap();
        assert!(!r.trace.iterations.is_empty());
        for w in r.trace.iterations.windows(2) {
            assert!(w[1].lower_slope >= w[0].lower_slope);
            assert!(w[1].upper_slope <= w[0].upper_slope);
        }
    }

    #[test]
    fn exp_tail_exhausts_arithmetic_bisection_but_not_geometric() {
        // The paper's worst case: exponentially decaying speeds make the
        // optimal slope exponentially small; arithmetic slope bisection
        // needs O(n) steps while the geometric-mean extension stays
        // logarithmic. The two decay scales must differ so that the initial
        // probe does not accidentally hit the optimum.
        let funcs =
            vec![AnalyticSpeed::exp_tail(100.0, 40.0), AnalyticSpeed::exp_tail(100.0, 100.0)];
        let n = 20_000;
        let budget = 64;
        let (bracket, _) = bracket_slopes(n, &funcs).unwrap();
        let run =
            |mode| search(Rule::Basic(mode), n, &funcs, bracket, None, Trace::default(), budget);
        let arith = run(SlopeMode::Tangent);
        assert!(
            matches!(arith, Err(Error::NoConvergence { .. })),
            "arithmetic bisection should blow the small budget: {arith:?}"
        );
        let geo = run(SlopeMode::Geometric).unwrap();
        assert_eq!(geo.distribution.total(), n);
    }

    #[test]
    fn geometric_mean_splits_brackets_whose_product_underflows() {
        // At n = 90 000 the initial lines bracket slopes near 1e-283 and
        // 1e-198, whose product is 0 in f64: the mean must still fall
        // strictly inside, so the search takes steps and reaches the
        // oracle's plan.
        let funcs =
            vec![AnalyticSpeed::exp_tail(100.0, 40.0), AnalyticSpeed::exp_tail(100.0, 100.0)];
        let n = 90_000;
        let (bracket, _) = bracket_slopes(n, &funcs).unwrap();
        assert_eq!(bracket.shallow * bracket.steep, 0.0);
        let geo = BisectionPartitioner::new()
            .with_slope_mode(SlopeMode::Geometric)
            .partition(n, &funcs)
            .unwrap();
        assert!(geo.trace.steps() > 0);
        assert_eq!(geo.distribution, oracle::solve(n, &funcs).unwrap().distribution);
        assert_eq!(geo.distribution.counts(), &[25740, 64260]);
    }

    #[test]
    fn single_processor_takes_everything() {
        let funcs = vec![AnalyticSpeed::decreasing(100.0, 1e5, 2.0)];
        let r = BisectionPartitioner::new().partition(777, &funcs).unwrap();
        assert_eq!(r.distribution.counts(), &[777]);
    }

    #[test]
    fn empty_processors_error() {
        let funcs: Vec<ConstantSpeed> = vec![];
        assert!(matches!(
            BisectionPartitioner::new().partition(5, &funcs),
            Err(Error::NoProcessors)
        ));
    }

    #[test]
    fn warm_resolve_is_bit_identical_to_cold() {
        assert_warm_resolve_is_bit_identical_to_cold(&BisectionPartitioner::new());
    }

    #[test]
    fn warm_resolve_falls_back_on_empty_donor() {
        let funcs = mixed_cluster();
        let p = BisectionPartitioner::new();
        let empty = Distribution::new(vec![0; funcs.len()]);
        let cold = p.partition(1_000_000, &funcs).unwrap();
        let warm = p.resolve_from(&empty, 1_000_000, &funcs).unwrap();
        assert_eq!(cold.distribution, warm.distribution);
        assert!(!warm.trace.warm_bracket);
    }
}
