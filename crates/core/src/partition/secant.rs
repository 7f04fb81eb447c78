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

use super::fine_tune::fine_tune;
use super::initial::{bracket_slopes, SlopeBracket};
use super::problem::{empty_report, validate_processors, PartitionReport, Partitioner};
use crate::error::{Error, Result};
use crate::cost::CostFunction;
use crate::geometry::intersections_at_slope;
use crate::trace::{IterationRecord, Trace};

/// Regula-falsi (Illinois) partitioner in log-slope space, exposed
/// through the planner registry as `secant`.
///
/// **Guarantees.** Exact in the same sense as the other geometric
/// partitioners: the bracket only ever shrinks around the optimal slope,
/// and the run finishes with the paper's fine-tuning over the final
/// integer candidates, so the result lands within the integer-rounding
/// envelope of the continuous optimum (oracle-checked in the conformance
/// sweep). Illinois damping keeps every step's bracket reduction at least
/// a constant factor, so the step count is never worse than a constant
/// multiple of plain bisection on the same bracket; convergence is
/// superlinear *in practice* but carries no shape-independent
/// superlinearity proof (the paper's "ideal algorithm" challenge).
#[derive(Debug, Clone, Copy)]
pub struct SecantPartitioner {
    /// Step budget.
    pub max_steps: usize,
}

impl Default for SecantPartitioner {
    fn default() -> Self {
        Self { max_steps: 10_000 }
    }
}

impl SecantPartitioner {
    /// Creates the partitioner with the default budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the step budget.
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        assert!(max_steps > 0);
        self.max_steps = max_steps;
        self
    }

    /// Runs from an explicit bracket.
    pub fn partition_from_bracket<F: CostFunction>(
        &self,
        n: u64,
        funcs: &[F],
        bracket: SlopeBracket,
        mut trace: Trace,
    ) -> Result<PartitionReport> {
        let target = n as f64;
        // Work in log-slope: u = ln c. Residual r(u) = Σ x_i(e^u) − n is
        // decreasing in u.
        let mut u_lo = bracket.shallow.ln(); // r ≥ 0
        let mut u_hi = bracket.steep.ln(); // r ≤ 0
        // Bound intersections are cached across iterations; the residuals
        // derive from their sums.
        let mut hi_x = intersections_at_slope(funcs, bracket.shallow);
        let mut lo_x = intersections_at_slope(funcs, bracket.steep);
        let mut r_lo = hi_x.iter().sum::<f64>() - target;
        let mut r_hi = lo_x.iter().sum::<f64>() - target;
        // Illinois side marker: which endpoint was kept last.
        let mut last_kept: i8 = 0;
        for step in 1..=self.max_steps {
            let shallow = u_lo.exp();
            let steep = u_hi.exp();
            let open = lo_x.iter().zip(&hi_x).any(|(&l, &h)| h - l >= 1.0);
            if !open || u_hi - u_lo <= f64::EPSILON {
                let distribution = fine_tune(n, funcs, &lo_x, &hi_x);
                return Ok(PartitionReport::from_distribution(distribution, funcs, trace));
            }

            // False-position interpolation in (u, r); fall back to the
            // midpoint when the residuals are degenerate.
            let denom = r_lo - r_hi;
            let mut u_new = if denom.abs() > 0.0 && denom.is_finite() {
                u_lo + (u_hi - u_lo) * r_lo / denom
            } else {
                0.5 * (u_lo + u_hi)
            };
            if !(u_new > u_lo && u_new < u_hi) {
                u_new = 0.5 * (u_lo + u_hi);
            }
            let c_new = u_new.exp();
            let xs_new = intersections_at_slope(funcs, c_new);
            let total: f64 = xs_new.iter().sum();
            let r_new = total - target;
            trace.iterations.push(IterationRecord {
                step,
                lower_slope: shallow,
                upper_slope: steep,
                trial_slope: c_new,
                total_elements: total,
                undershoot: r_new < 0.0,
            });
            if r_new < 0.0 {
                u_hi = u_new;
                r_hi = r_new;
                lo_x = xs_new;
                if last_kept == -1 {
                    // Illinois: halve the retained endpoint's residual so
                    // the stale end cannot pin the bracket.
                    r_lo *= 0.5;
                }
                last_kept = -1;
            } else {
                u_lo = u_new;
                r_lo = r_new;
                hi_x = xs_new;
                if last_kept == 1 {
                    r_hi *= 0.5;
                }
                last_kept = 1;
            }
        }
        Err(Error::NoConvergence { algorithm: "regula falsi", steps: self.max_steps })
    }
}

impl Partitioner for SecantPartitioner {
    fn partition<F: CostFunction>(&self, n: u64, funcs: &[F]) -> Result<PartitionReport> {
        validate_processors(funcs)?;
        if n == 0 {
            return Ok(empty_report(funcs.len()));
        }
        let (bracket, bracket_probes) = bracket_slopes(n, funcs)?;
        self.partition_from_bracket(n, funcs, bracket, Trace { bracket_probes, ..Trace::default() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
