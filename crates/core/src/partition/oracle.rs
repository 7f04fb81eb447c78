//! Reference exact solver and optimality checking.
//!
//! The paper proves (§2, Fig. 6, induction over `p`) that the distribution
//! equalising execution times is the unique optimum of the real-valued
//! problem. That proof translates directly into an algorithm: the
//! per-processor allocation `x_i(t)` induced by a makespan `t` (the
//! intersection of the graph with the line of slope `1/t`) is monotone
//! non-decreasing in `t`, so `Σ x_i(t) = n` can be solved by bisection on
//! `t`. This module implements that solver — used as the *test oracle*
//! against which every production algorithm is verified — together with a
//! local-exchange optimality check for integer allocations.

use super::fine_tune::tune;
use super::initial::bracket_slopes;
use super::problem::{empty_report, validate_processors, Distribution, PartitionReport};
use crate::error::{Error, Result};
use crate::geometry::intersections_at_slope;
use crate::cost::CostFunction;
use crate::trace::Trace;

/// Hard iteration cap of the oracle's slope bisection. Far beyond what any
/// admissible cluster needs (the relative-resolution stop triggers after at
/// most ~1100 halvings of the widest representable bracket); exists purely
/// so corrupted models cannot hang the oracle.
const MAX_ORACLE_STEPS: usize = 2_000;

/// The converged state of the oracle's slope bisection: the final bracket
/// and the intersection abscissas of its steep bound.
struct SlopeSolution {
    shallow: f64,
    steep: f64,
    /// Abscissas at the steep bound (sum ≤ n).
    lo_x: Vec<f64>,
}

/// Shared slope bisection of [`solve`] and [`solve_real`].
///
/// Termination is belt-and-braces, hardened against the degenerate inputs
/// a pure relative-tolerance loop mishandles:
///
/// * **element closure** (`integer_stop`): once no per-processor interval
///   `[lo_i, hi_i]` is a full element wide, the integer fine-tuning result
///   is fully determined and further bisection is pure spin — this is what
///   stops quickly on flat clusters (all speeds equal) where the slope
///   interval narrows long after the allocation has settled;
/// * **slope resolution**: `steep − shallow ≤ ε·steep` relative stop plus a
///   midpoint-representability check, which also covers brackets that are
///   degenerate from the start (`shallow == steep`, makespan ≈ 0);
/// * **corruption guard**: a non-finite intersection total (NaN speeds from
///   a broken model) aborts with a clean [`Error::InvalidSpeedFunction`]
///   instead of silently bisecting on garbage comparisons.
fn bisect_slope<F: CostFunction>(
    n: u64,
    funcs: &[F],
    integer_stop: bool,
) -> Result<SlopeSolution> {
    let target = n as f64;
    let (bracket, _) = bracket_slopes(n, funcs)?;
    let mut shallow = bracket.shallow;
    let mut steep = bracket.steep;
    let mut hi_x = intersections_at_slope(funcs, shallow);
    let mut lo_x = intersections_at_slope(funcs, steep);
    for _ in 0..MAX_ORACLE_STEPS {
        if integer_stop && lo_x.iter().zip(&hi_x).all(|(&l, &h)| h - l < 1.0) {
            break;
        }
        let mid = 0.5 * (shallow + steep);
        if !(mid > shallow && mid < steep) {
            break;
        }
        let xs = intersections_at_slope(funcs, mid);
        let total: f64 = xs.iter().sum();
        if !total.is_finite() {
            return Err(Error::InvalidSpeedFunction {
                processor: xs.iter().position(|x| !x.is_finite()).unwrap_or(0),
                reason: "non-finite intersection during oracle bisection",
            });
        }
        if total < target {
            steep = mid;
            lo_x = xs;
        } else {
            shallow = mid;
            hi_x = xs;
        }
        if steep - shallow <= f64::EPSILON * steep {
            break;
        }
    }
    Ok(SlopeSolution { shallow, steep, lo_x })
}

/// Solves the real-valued equal-time problem to float resolution, then
/// fine-tunes to integers.
///
/// This is the idealised `O(p·log n)` algorithm the paper calls "still a
/// challenge" to achieve with guaranteed bounds; here it serves as a
/// correctness oracle (it performs plain slope bisection to convergence in
/// *slope* space, stopping early only once no integer point can remain
/// between the bounding lines).
pub fn solve<F: CostFunction>(n: u64, funcs: &[F]) -> Result<PartitionReport> {
    validate_processors(funcs)?;
    if n == 0 {
        return Ok(empty_report(funcs.len()));
    }
    let s = bisect_slope(n, funcs, true)?;
    let report = tune(n, funcs, &s.lo_x).into_report(funcs, Trace::default());
    if !report.makespan.is_finite() {
        // A model that degenerates (NaN/∞ speed) inside the allocated range
        // must surface as an error, not as a silently corrupt makespan.
        let times = report.distribution.times(funcs);
        return Err(Error::InvalidSpeedFunction {
            processor: times.iter().position(|t| !t.is_finite()).unwrap_or(0),
            reason: "non-finite execution time at the oracle solution",
        });
    }
    Ok(report)
}

/// The real-valued (non-integer) optimal allocation and its makespan.
///
/// Useful for measuring how much integer rounding costs.
pub fn solve_real<F: CostFunction>(n: u64, funcs: &[F]) -> Result<(Vec<f64>, f64)> {
    validate_processors(funcs)?;
    if n == 0 {
        return Ok((vec![0.0; funcs.len()], 0.0));
    }
    let s = bisect_slope(n, funcs, false)?;
    let slope = 0.5 * (s.shallow + s.steep);
    let xs = intersections_at_slope(funcs, slope);
    if let Some(i) = xs.iter().position(|x| !x.is_finite()) {
        return Err(Error::InvalidSpeedFunction {
            processor: i,
            reason: "non-finite intersection at the converged slope",
        });
    }
    Ok((xs, 1.0 / slope))
}

/// Checks that no single-element move can reduce the makespan of an
/// integer allocation.
///
/// For the separable min-max objective with increasing per-processor time
/// functions (the [`CostFunction`] invariant — checked on `time`, never on
/// speed), a distribution from which *every* bottleneck processor cannot
/// shed one element without some other processor becoming an equal-or-worse
/// bottleneck is globally optimal. This is the verifiable counterpart of
/// the paper's uniqueness argument and is what the property-based tests
/// assert about all production algorithms.
pub fn is_exchange_optimal<F: CostFunction>(
    distribution: &Distribution,
    funcs: &[F],
    tolerance: f64,
) -> bool {
    let counts = distribution.counts();
    let times = distribution.times(funcs);
    let makespan = times.iter().cloned().fold(0.0, f64::max);
    if makespan == 0.0 {
        return true;
    }
    // For every bottleneck processor, check that moving one of its elements
    // to any other processor would not strictly reduce the overall
    // makespan.
    for (i, &t_i) in times.iter().enumerate() {
        if t_i < makespan * (1.0 - 1e-12) || counts[i] == 0 {
            continue;
        }
        let reduced_i = funcs[i].time((counts[i] - 1) as f64);
        for (j, &t_j) in times.iter().enumerate() {
            if j == i {
                continue;
            }
            let raised_j = funcs[j].time((counts[j] + 1) as f64);
            // Makespan after the move, considering only the two changed
            // processors and the unchanged rest.
            let rest = times
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != i && k != j)
                .map(|(_, &t)| t)
                .fold(0.0, f64::max);
            let new_makespan = reduced_i.max(raised_j).max(rest).max(t_j);
            if new_makespan < makespan * (1.0 - tolerance) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{
        BisectionPartitioner, CombinedPartitioner, ModifiedPartitioner, Partitioner,
    };
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
    fn oracle_conserves_and_balances() {
        let funcs = mixed_cluster();
        let r = solve(10_000_000, &funcs).unwrap();
        assert_eq!(r.distribution.total(), 10_000_000);
        assert!(r.distribution.imbalance(&funcs) < 1.001);
    }

    #[test]
    fn real_solution_sums_to_n() {
        let funcs = mixed_cluster();
        let (xs, t) = solve_real(10_000_000, &funcs).unwrap();
        let total: f64 = xs.iter().sum();
        assert!((total - 1e7).abs() < 1.0, "total = {total}");
        assert!(t > 0.0);
        // Equal times at the real solution.
        for (f, &x) in funcs.iter().zip(&xs) {
            assert!((f.time(x) - t).abs() / t < 1e-6);
        }
    }

    #[test]
    fn all_algorithms_match_oracle_makespan() {
        let funcs = mixed_cluster();
        for n in [1000u64, 99_999, 10_000_000] {
            let oracle = solve(n, &funcs).unwrap();
            for (name, report) in [
                ("basic", BisectionPartitioner::new().partition(n, &funcs).unwrap()),
                ("modified", ModifiedPartitioner::new().partition(n, &funcs).unwrap()),
                ("combined", CombinedPartitioner::new().partition(n, &funcs).unwrap()),
            ] {
                let rel = (report.makespan - oracle.makespan).abs() / oracle.makespan;
                assert!(rel < 1e-3, "{name} at n = {n}: {} vs oracle {}", report.makespan,
                        oracle.makespan);
            }
        }
    }

    #[test]
    fn oracle_solution_is_exchange_optimal() {
        let funcs = mixed_cluster();
        for n in [100u64, 54_321, 3_333_333] {
            let r = solve(n, &funcs).unwrap();
            assert!(is_exchange_optimal(&r.distribution, &funcs, 1e-9), "n = {n}");
        }
    }

    #[test]
    fn exchange_check_detects_bad_distributions() {
        let funcs = vec![ConstantSpeed::new(1.0), ConstantSpeed::new(100.0)];
        // All the load on the slow machine: clearly improvable.
        let bad = Distribution::new(vec![100, 0]);
        assert!(!is_exchange_optimal(&bad, &funcs, 1e-9));
        let good = Distribution::new(vec![1, 99]);
        assert!(is_exchange_optimal(&good, &funcs, 1e-9));
    }

    #[test]
    fn zero_makespan_is_trivially_optimal() {
        let funcs = vec![ConstantSpeed::new(1.0)];
        assert!(is_exchange_optimal(&Distribution::new(vec![0]), &funcs, 1e-9));
    }

    // --- regression cases found by the testkit conformance sweeps ---

    /// A speed model that collapses to NaN past a memory threshold, as a
    /// crashed paging model would.
    #[derive(Debug)]
    struct NanBeyond {
        speed: f64,
        threshold: f64,
    }

    impl crate::speed::SpeedFunction for NanBeyond {
        fn speed(&self, x: f64) -> f64 {
            if x <= self.threshold {
                self.speed
            } else {
                f64::NAN
            }
        }
    }

    #[test]
    fn nan_model_yields_clean_error_not_corrupt_makespan() {
        // The optimum wants ~n/2 per machine, well past the NaN threshold,
        // so the oracle's converged allocation lands in the broken region.
        let funcs = vec![
            NanBeyond { speed: 100.0, threshold: 1_000.0 },
            NanBeyond { speed: 100.0, threshold: 1_000.0 },
        ];
        match solve(1_000_000, &funcs) {
            Err(Error::InvalidSpeedFunction { .. }) | Err(Error::InsufficientCapacity { .. }) => {}
            Ok(r) => {
                assert!(
                    r.makespan.is_finite(),
                    "oracle returned a non-finite makespan instead of an error"
                );
            }
            Err(e) => panic!("unexpected error kind: {e:?}"),
        }
    }

    /// A constant speed that counts its evaluations. It neither memoizes
    /// nor forwards the constant's closed-form intersection, so every
    /// intersection runs the numeric search.
    #[derive(Debug)]
    struct CountingConstant {
        speed: f64,
        evaluations: std::cell::Cell<u64>,
    }

    impl crate::speed::SpeedFunction for CountingConstant {
        fn speed(&self, _x: f64) -> f64 {
            self.evaluations.set(self.evaluations.get() + 1);
            self.speed
        }
    }

    #[test]
    fn flat_cluster_terminates_with_bounded_evaluations() {
        // All speeds equal and no closed-form intersection, the degenerate
        // case where pure relative-tolerance slope bisection keeps halving
        // long after the integer allocation is settled. Element closure
        // must stop it early.
        let funcs: Vec<CountingConstant> = (0..8)
            .map(|_| CountingConstant { speed: 250.0, evaluations: Default::default() })
            .collect();
        let r = solve(1_000_000, &funcs).unwrap();
        assert_eq!(r.distribution.total(), 1_000_000);
        for &c in r.distribution.counts() {
            assert_eq!(c, 125_000, "flat cluster must divide evenly");
        }
        let evals: u64 = funcs.iter().map(|f| f.evaluations.get()).sum();
        // With element closure this costs ~9k evaluations; without it the
        // bisection keeps halving to float resolution (~52 iterations × 8
        // numeric intersections each) at roughly 3× the cost.
        assert!(evals < 15_000, "flat cluster cost {evals} evaluations");
    }

    #[test]
    fn single_element_and_tiny_problems_terminate() {
        let funcs = mixed_cluster();
        for n in [1u64, 2, 3, 7] {
            let r = solve(n, &funcs).unwrap();
            assert_eq!(r.distribution.total(), n, "n = {n}");
            assert!(r.makespan.is_finite() && r.makespan >= 0.0);
        }
    }
}
