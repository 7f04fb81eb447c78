//! The combined algorithm (paper Fig. 15).
//!
//! The basic and the modified algorithms have complementary strengths: for
//! most real-life problems the optimal line lies in a region where the
//! speed graphs have polynomial slopes and the basic algorithm converges in
//! `O(p·log n)`; for very large problem sizes the graphs "tend to be
//! horizontal" where the optimal slope can be exponentially smaller than
//! the initial bracket and the modified algorithm's shape-independent
//! `O(p²·log n)` bound wins.
//!
//! The combined strategy performs the first slope bisection, determines in
//! which half the optimum lies, and then:
//!
//! * **upper half** (steeper slopes) *and* all graphs locally non-flat at
//!   the trial intersections → continue with the basic algorithm;
//! * otherwise (lower half, or some graph nearly horizontal at its
//!   intersection: `|s'(x)|·x / s(x) < 0.02`) → switch to the modified
//!   algorithm.
//!
//! As a safety net beyond the paper, if the basic stage exhausts its
//! 4096-step budget the combined partitioner falls back to the modified
//! algorithm rather than failing.

use super::bisection::SlopeMode;
use super::initial::{bracket_from_slope, bracket_slopes, BracketProbes, SlopeBracket};
use super::problem::{
    donor_seed, empty_report, seed_slope, validate_processors, Distribution, PartitionReport,
    Partitioner,
};
use super::search::{search, Rule};
use super::single_number::SingleNumberPartitioner;
use crate::cost::CostFunction;
use crate::error::{Error, Result};
use crate::geometry::intersections_at_slope;
use crate::trace::{IterationRecord, Trace};

/// A graph is "horizontal" at `x` when `|s'(x)|·x / s(x)` is below this.
const FLATNESS_THRESHOLD: f64 = 0.02;

/// Steps of the basic stage before the modified algorithm takes over.
const BASIC_STEP_BUDGET: usize = 4096;

/// The basic stage: tangent bisection, or log-log regula falsi when seeded.
const BASIC: Rule = Rule::Basic(SlopeMode::Tangent);

/// Which algorithm the combined strategy selected for a given problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombinedChoice {
    /// The basic slope-bisection algorithm was used.
    Basic,
    /// The modified solution-space algorithm was used.
    Modified,
    /// The basic stage ran out of steps and the modified algorithm
    /// finished the job.
    FallbackToModified,
}

/// The hybrid partitioner of paper Fig. 15.
///
/// The strategy is [`CombinedPartitioner::partition_explain`], kept
/// paper-literal. [`Partitioner::partition`] starts elsewhere. The Fig. 18
/// probe already measures every machine's throughput at `n/p`, and the
/// single-number plan built from those numbers is close to the optimum.
/// Its [`seed_slope`] seeds the warm-start machinery (ε-bracket, log-log
/// regula falsi, the shared fine-tuning), which then needs one or two
/// steps instead of the ~35 the initial lines take at `p = 1080`. The
/// integer plan is fixed by the fine-tuning, not by the starting bracket,
/// so the counts and the makespan bits are those of `partition_explain`.
/// Whenever seeding, bracketing or the search fails, `partition` runs
/// `partition_explain`, so errors are identical too; only the trace
/// differs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CombinedPartitioner;

impl CombinedPartitioner {
    /// Creates the partitioner.
    pub fn new() -> Self {
        Self
    }

    /// Numerical relative log-derivative `|s'(x)|·x/s(x)` of `f`'s
    /// throughput curve at `x`.
    fn relative_slope<F: CostFunction>(f: &F, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::INFINITY;
        }
        let h = (x * 1e-4).max(1e-6);
        let s = f.throughput(x);
        if s <= 0.0 {
            return 0.0;
        }
        let ds = (f.throughput(x + h) - f.throughput((x - h).max(0.0))) / (2.0 * h);
        (ds * x / s).abs()
    }

    /// Partitions `n` elements with the paper-literal Fig. 15 strategy
    /// from the Fig. 18 initial lines, and additionally reports which
    /// algorithm the strategy chose.
    ///
    /// [`Partitioner::partition`] returns the same plan, or the same
    /// error, but starts from the single-number seed and runs this
    /// strategy only as its fallback (see the module docs). Use this
    /// method for the paper's step counts and decision rule.
    pub fn partition_explain<F: CostFunction>(
        &self,
        n: u64,
        funcs: &[F],
    ) -> Result<(PartitionReport, CombinedChoice)> {
        validate_processors(funcs)?;
        if n == 0 {
            return Ok((empty_report(funcs.len()), CombinedChoice::Basic));
        }
        let target = n as f64;
        let (bracket, bracket_probes) = bracket_slopes(n, funcs)?;

        // Probing step: one slope bisection of the initial region.
        let trial = 0.5 * (bracket.shallow + bracket.steep);
        let xs = intersections_at_slope(funcs, trial);
        let total: f64 = xs.iter().sum();
        let undershoot = total < target;
        let mut trace = Trace { bracket_probes, ..Trace::default() };
        trace.iterations.push(IterationRecord {
            step: 1,
            lower_slope: bracket.shallow,
            upper_slope: bracket.steep,
            trial_slope: trial,
            total_elements: total,
            undershoot,
        });
        let refined = if undershoot {
            SlopeBracket { shallow: bracket.shallow, steep: trial }
        } else {
            SlopeBracket { shallow: trial, steep: bracket.steep }
        };

        // Decision rule of Fig. 15: upper half with non-flat intersections
        // → basic; otherwise → modified.
        let any_flat =
            funcs.iter().zip(&xs).any(|(f, &x)| Self::relative_slope(f, x) < FLATNESS_THRESHOLD);
        if !undershoot && !any_flat {
            return basic_then_modified(n, funcs, refined, None, trace);
        }
        let budget = Rule::Modified.budget(n, funcs.len());
        let report = search(Rule::Modified, n, funcs, refined, None, trace, budget)?;
        Ok((report, CombinedChoice::Modified))
    }

    /// The warm machinery: the basic stage from the bracket seeded at
    /// `seed`, modified as the usual safety net. `warm` marks a seed taken
    /// from a donor plan in the trace. `None` when the seed fails to
    /// bracket or the search fails: the caller then takes its fallback.
    fn solve_from_seed<F: CostFunction>(
        &self,
        n: u64,
        funcs: &[F],
        seed: f64,
        warm: bool,
    ) -> Option<PartitionReport> {
        let (bracket, probes, bracket_probes) = bracket_from_slope(n, funcs, seed).ok()?;
        let trace = Trace { warm_bracket: warm, bracket_probes, ..Trace::default() };
        basic_then_modified(n, funcs, bracket, Some(probes), trace).ok().map(|(report, _)| report)
    }
}

/// The basic stage within its step budget, then, if it runs out, the
/// modified algorithm over the same bracket.
fn basic_then_modified<F: CostFunction>(
    n: u64,
    funcs: &[F],
    bracket: SlopeBracket,
    probes: Option<BracketProbes>,
    trace: Trace,
) -> Result<(PartitionReport, CombinedChoice)> {
    match search(BASIC, n, funcs, bracket, probes, trace.clone(), BASIC_STEP_BUDGET) {
        Ok(report) => Ok((report, CombinedChoice::Basic)),
        // The basic stage spent its whole step budget, so re-sweeping the
        // two endpoints here costs nothing next to it, and keeping the
        // probes for this rare path would copy them on every solve.
        Err(Error::NoConvergence { .. }) => {
            let budget = Rule::Modified.budget(n, funcs.len());
            let report = search(Rule::Modified, n, funcs, bracket, None, trace, budget)?;
            Ok((report, CombinedChoice::FallbackToModified))
        }
        Err(e) => Err(e),
    }
}

/// The slope of the single-number plan that the paper's Fig. 18 probe
/// already measures: every machine's throughput at the homogeneous share
/// `n/p`, distributed proportionally, then [`seed_slope`] of that plan.
/// `None` when a probed throughput is non-finite (the paper path then
/// reports the malformed model) or no machine yields a usable vote.
fn single_number_seed<F: CostFunction>(n: u64, funcs: &[F]) -> Option<f64> {
    let share = (n as f64 / funcs.len() as f64).max(1.0);
    let speeds: Vec<f64> = funcs
        .iter()
        .map(|f| {
            let s = f.throughput(share);
            s.is_finite().then_some(s.max(0.0))
        })
        .collect::<Option<_>>()?;
    let plan = SingleNumberPartitioner::at_size(share).partition_with_speeds(n, &speeds).ok()?;
    seed_slope(&plan, funcs)
}

impl Partitioner for CombinedPartitioner {
    fn partition<F: CostFunction>(&self, n: u64, funcs: &[F]) -> Result<PartitionReport> {
        validate_processors(funcs)?;
        if n == 0 {
            return Ok(empty_report(funcs.len()));
        }
        match single_number_seed(n, funcs).and_then(|s| self.solve_from_seed(n, funcs, s, false)) {
            Some(report) => Ok(report),
            None => self.partition_explain(n, funcs).map(|(report, _)| report),
        }
    }

    fn resolve_from<F: CostFunction>(
        &self,
        prev: &Distribution,
        n: u64,
        funcs: &[F],
    ) -> Result<PartitionReport> {
        let seed = if n == 0 { None } else { donor_seed(prev, n, funcs) };
        match seed.and_then(|s| self.solve_from_seed(n, funcs, s, true)) {
            Some(report) => Ok(report),
            None => self.partition(n, funcs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::ModifiedPartitioner;
    use crate::speed::{AnalyticSpeed, ConstantSpeed, PiecewiseLinearSpeed};

    fn mixed_cluster() -> Vec<AnalyticSpeed> {
        vec![
            AnalyticSpeed::decreasing(200.0, 1e6, 2.0),
            AnalyticSpeed::saturating(150.0, 5e4),
            AnalyticSpeed::unimodal(250.0, 1e4, 5e6, 2.0),
            AnalyticSpeed::paging(300.0, 2e6, 3.0),
        ]
    }

    #[test]
    fn conserves_total_across_sizes() {
        let funcs = mixed_cluster();
        for n in [1u64, 5, 999, 77_777, 10_000_000, 2_000_000_000] {
            let r = CombinedPartitioner::new().partition(n, &funcs).unwrap();
            assert_eq!(r.distribution.total(), n, "n = {n}");
            // The seeded solve returns the paper-literal plan.
            let paper = CombinedPartitioner::new().partition_explain(n, &funcs).map(|(r, _)| r);
            assert_same(&Ok(r), &paper, &format!("n = {n}"));
        }
    }

    #[test]
    fn worst_case_shape_is_delegated_to_modified() {
        let funcs =
            vec![AnalyticSpeed::exp_tail(100.0, 10.0), AnalyticSpeed::exp_tail(100.0, 10.0)];
        let (r, choice) = CombinedPartitioner::new().partition_explain(2000, &funcs).unwrap();
        assert_eq!(r.distribution.total(), 2000);
        assert!(
            choice != CombinedChoice::Basic,
            "flat exponential tails must not be handled by plain slope bisection"
        );
    }

    #[test]
    fn matches_modified_makespan() {
        let funcs = mixed_cluster();
        for n in [12_345u64, 6_000_000] {
            let a = CombinedPartitioner::new().partition(n, &funcs).unwrap();
            let b = ModifiedPartitioner::new().partition(n, &funcs).unwrap();
            let rel = (a.makespan - b.makespan).abs() / a.makespan.max(b.makespan);
            assert!(rel < 1e-3, "n = {n}");
        }
    }

    #[test]
    fn explain_reports_basic_for_polynomial_slopes() {
        // An upper-half problem with non-flat graphs: the probe line's
        // total exceeds n when the mean speed exceeds the midrange of the
        // probed speeds (one slow machine, several fast ones), and a
        // polynomially decreasing shape keeps the relative slope above the
        // flatness threshold.
        let funcs = vec![
            AnalyticSpeed::decreasing(50.0, 2e7, 2.0),
            AnalyticSpeed::decreasing(100.0, 2e7, 2.0),
            AnalyticSpeed::decreasing(100.0, 2e7, 2.0),
            AnalyticSpeed::decreasing(100.0, 2e7, 2.0),
        ];
        let (r, choice) = CombinedPartitioner::new().partition_explain(20_000_000, &funcs).unwrap();
        assert_eq!(r.distribution.total(), 20_000_000);
        assert_eq!(choice, CombinedChoice::Basic);
    }

    #[test]
    fn constant_speeds_choose_modified_and_stay_proportional() {
        // Constant graphs are maximally flat: the decision rule must route
        // them to the modified algorithm, which still yields the exact
        // proportional split.
        let funcs = vec![ConstantSpeed::new(100.0), ConstantSpeed::new(50.0)];
        let (r, choice) = CombinedPartitioner::new().partition_explain(3000, &funcs).unwrap();
        assert_eq!(r.distribution.counts(), &[2000, 1000]);
        assert_eq!(choice, CombinedChoice::Modified);
    }

    #[test]
    fn zero_elements() {
        let funcs = mixed_cluster();
        let r = CombinedPartitioner::new().partition(0, &funcs).unwrap();
        assert_eq!(r.distribution.total(), 0);
    }

    #[test]
    fn warm_resolve_is_bit_identical_to_cold() {
        let funcs = mixed_cluster();
        let p = CombinedPartitioner::new();
        let base = p.partition(10_000_000, &funcs).unwrap();
        for n in [10_000_000u64, 10_000_001, 9_999_000, 10_010_000, 2_000_000] {
            let cold = p.partition(n, &funcs).unwrap();
            let warm = p.resolve_from(&base.distribution, n, &funcs).unwrap();
            assert_eq!(cold.distribution, warm.distribution, "n = {n}");
            assert_eq!(cold.makespan.to_bits(), warm.makespan.to_bits(), "n = {n}");
            assert!(warm.trace.warm_bracket, "n = {n}: warm bracket not used");
        }
    }

    /// Counts, makespan bits and error text of two solve outcomes.
    fn assert_same(a: &Result<PartitionReport>, b: &Result<PartitionReport>, what: &str) {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.distribution, b.distribution, "{what}");
                assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{what}");
            }
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{what}"),
            _ => panic!("{what}: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn seeded_cold_solve_keeps_the_plan_above_2_pow_53() {
        // The single-number seed's floors sum past n here unless capped;
        // the plan is the one the paper path returns.
        let funcs = vec![ConstantSpeed::new(3.0), ConstantSpeed::new(1.0)];
        let n = (1u64 << 60) - 1;
        let r = CombinedPartitioner::new().partition(n, &funcs).unwrap();
        assert_eq!(r.distribution.counts(), &[864691128455135248, 288230376151711727]);
        let paper = CombinedPartitioner::new().partition_explain(n, &funcs).map(|(r, _)| r);
        assert_same(&Ok(r), &paper, "n = 2^60 - 1");
    }

    #[test]
    fn seeded_cold_solve_survives_speeds_that_sum_past_f64_max() {
        let funcs = vec![ConstantSpeed::new(f64::MAX), ConstantSpeed::new(f64::MAX / 2.0)];
        let n = 1u64 << 53;
        let r = CombinedPartitioner::new().partition(n, &funcs);
        let paper = CombinedPartitioner::new().partition_explain(n, &funcs).map(|(r, _)| r);
        assert_same(&r, &paper, "n = 2^53");
    }

    #[test]
    fn undonatable_donors_fall_back_to_the_cold_plan() {
        let funcs = mixed_cluster();
        let p = CombinedPartitioner::new();
        let n = 3_000_000;
        let cold = p.partition(n, &funcs).unwrap();
        for donor in [Distribution::new(vec![0; funcs.len()]), Distribution::new(vec![n])] {
            let warm = p.resolve_from(&donor, n, &funcs).unwrap();
            assert!(!warm.trace.warm_bracket, "donor {donor:?}");
            assert_same(&Ok(warm), &Ok(cold.clone()), &format!("donor {donor:?}"));
        }
    }

    #[test]
    fn a_far_seed_counts_its_bracket_widenings() {
        // Constant speeds 100 and 50 balance n = 3000 on the slope 0.05;
        // a seed 10⁶× off must widen its ε-bracket and still land on the
        // cold plan.
        let funcs = vec![ConstantSpeed::new(100.0), ConstantSpeed::new(50.0)];
        let p = CombinedPartitioner::new();
        let cold = p.partition(3000, &funcs).unwrap();
        for seed in [0.05 * 1e6, 0.05 * 1e-6] {
            let far = p.solve_from_seed(3000, &funcs, seed, false).unwrap();
            assert!(far.trace.bracket_probes > 0, "seed {seed}");
            assert!(far.trace.bracket_probes <= 2, "seed {seed}");
            assert_same(&Ok(far), &Ok(cold.clone()), &format!("seed {seed}"));
        }
        let near = p.solve_from_seed(3000, &funcs, 0.05, false).unwrap();
        assert_eq!(near.trace.bracket_probes, 0);
    }

    #[test]
    fn a_total_that_does_not_fall_still_ends_in_insufficient_capacity() {
        // Capacity 900 010 < n. The probe at n/p finds both machines fast,
        // so the seeded path runs; every shallow line clamps both at
        // `max_size`, the widening finds no usable extrapolation, and the
        // error is the paper path's.
        let funcs = vec![
            PiecewiseLinearSpeed::new(vec![(10.0, 100.0), (9e5, 90.0)]).unwrap(),
            PiecewiseLinearSpeed::new(vec![(1.0, 50.0), (10.0, 50.0)]).unwrap(),
        ];
        let n = 1_000_000;
        let seed = single_number_seed(n, &funcs).unwrap();
        assert!(bracket_from_slope(n, &funcs, seed).is_err());
        let p = CombinedPartitioner::new();
        let seeded = p.partition(n, &funcs);
        assert!(matches!(seeded, Err(Error::InsufficientCapacity { .. })), "{seeded:?}");
        assert_same(&seeded, &p.partition_explain(n, &funcs).map(|(r, _)| r), "capacity");
    }

    #[test]
    fn warm_resolve_survives_flat_graphs() {
        // Constant graphs route the cold path to the modified algorithm;
        // the warm path's basic stage must still land on the same integer
        // split (the fine-tune is bracket-independent).
        let funcs = vec![ConstantSpeed::new(100.0), ConstantSpeed::new(50.0)];
        let p = CombinedPartitioner::new();
        let base = p.partition(3000, &funcs).unwrap();
        let warm = p.resolve_from(&base.distribution, 3003, &funcs).unwrap();
        let cold = p.partition(3003, &funcs).unwrap();
        assert_eq!(cold.distribution, warm.distribution);
        assert_eq!(cold.makespan.to_bits(), warm.makespan.to_bits());
    }
}
