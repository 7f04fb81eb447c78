//! The general partitioning formulation (paper §1, reference \[20\]):
//! per-processor upper bounds.
//!
//! The paper's main text solves the "simple variant" — unit weights, no
//! bounds. The general problem it is a stepping stone towards adds:
//!
//! 1. an upper bound `b_i` on the number of elements each processor can
//!    store (its memory capacity), and
//! 2. element weights `w_j`, with the sum of weights per partition required
//!    to be proportional to the owning processor's speed.
//!
//! This module solves the first: the bounded unit-weight problem remains
//! exactly solvable by a *water-filling* variant of the geometric search.
//! The allocation induced by a line of slope `c` is `min(x_i(c), b_i)`,
//! still monotone in the slope, so the same bisection applies. The
//! discrete weighted problem is NP-hard in general (it contains
//! multiprocessor scheduling); its well-ordered special case, where each
//! processor takes a contiguous run of the items, is
//! [`partition_contiguous`](super::partition_contiguous).

use super::fine_tune::fine_tune_capped;
use super::problem::{empty_report, validate_processors, PartitionReport};
use crate::error::{Error, Result};
use crate::cost::CostFunction;
use crate::geometry::intersect_origin_line;
use crate::trace::Trace;

/// Allocation induced by slope `c` under caps: `min(x_i(c), b_i)`.
fn capped_intersections<F: CostFunction>(funcs: &[F], caps: &[u64], slope: f64) -> Vec<f64> {
    funcs
        .iter()
        .zip(caps)
        .map(|(f, &b)| intersect_origin_line(f, slope).min(b as f64))
        .collect()
}

/// Partitions `n` unit-weight elements over processors with per-processor
/// capacity bounds `caps` (elements).
///
/// # Errors
///
/// * [`Error::InsufficientCapacity`] if `Σ caps < n`;
/// * [`Error::NoProcessors`] for an empty processor list.
pub fn partition_bounded<F: CostFunction>(
    n: u64,
    funcs: &[F],
    caps: &[u64],
) -> Result<PartitionReport> {
    validate_processors(funcs)?;
    assert_eq!(funcs.len(), caps.len(), "caps length mismatch");
    if n == 0 {
        return Ok(empty_report(funcs.len()));
    }
    let capacity: u64 = caps.iter().fold(0u64, |a, &c| a.saturating_add(c));
    if capacity < n {
        return Err(Error::InsufficientCapacity { requested: n, available: capacity });
    }
    let target = n as f64;

    // Bracket the slope: steep side undershoots, shallow side overshoots.
    // Caps only lower totals, so the steep side from the uncapped problem
    // still undershoots; the shallow side may need to go much further down
    // because capped processors stop contributing.
    let mut steep = {
        let mut c = 1.0;
        let mut guard = 0;
        while capped_intersections(funcs, caps, c).iter().sum::<f64>() > target {
            c *= 4.0;
            guard += 1;
            if guard > 400 {
                return Err(Error::NoConvergence { algorithm: "bounded bracket", steps: guard });
            }
        }
        c
    };
    let mut shallow = {
        let mut c = steep;
        let mut guard = 0;
        while capped_intersections(funcs, caps, c).iter().sum::<f64>() < target {
            c /= 4.0;
            guard += 1;
            if guard > 400 {
                // Capacity is sufficient (checked above) but some models
                // saturate below their cap: stop widening, and let
                // fine-tuning hand out what the steep bound leaves under
                // the caps.
                break;
            }
        }
        c
    };

    for _ in 0..400 {
        let mid = 0.5 * (shallow + steep);
        if !(mid > shallow && mid < steep) {
            break;
        }
        let total: f64 = capped_intersections(funcs, caps, mid).iter().sum();
        if total < target {
            steep = mid;
        } else {
            shallow = mid;
        }
        if steep - shallow <= f64::EPSILON * steep {
            break;
        }
    }

    let lo_x = capped_intersections(funcs, caps, steep);
    Ok(fine_tune_capped(n, funcs, &lo_x, Some(caps))?.into_report(funcs, Trace::default()))
}

/// [`Partitioner`](crate::partition::Partitioner) adapter over [`partition_bounded`], exposed through the
/// planner registry as `bounded`.
///
/// Runs the water-filling solver with every cap fixed at `n` — caps that
/// can never bind — so it solves the paper's *unbounded* problem through
/// the bounded machinery and is exact in the same sense as the geometric
/// family: slope bisection over the capped intersections followed by the
/// paper's fine-tuning, landing within the integer-rounding envelope of
/// the continuous optimum (oracle-checked in the conformance sweep). The
/// report carries an empty [`Trace`]: the solver does not record the
/// per-iteration regions the traced algorithms do.
#[derive(Debug, Clone, Copy, Default)]
pub struct BoundedPartitioner;

impl super::problem::Partitioner for BoundedPartitioner {
    fn partition<F: CostFunction>(&self, n: u64, funcs: &[F]) -> Result<PartitionReport> {
        let caps = vec![n; funcs.len()];
        partition_bounded(n, funcs, &caps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::oracle;
    use crate::speed::{AnalyticSpeed, ConstantSpeed};

    #[test]
    fn unbounded_caps_match_unbounded_solution() {
        let funcs = vec![
            AnalyticSpeed::decreasing(200.0, 1e6, 2.0),
            AnalyticSpeed::paging(300.0, 2e6, 3.0),
        ];
        let caps = vec![u64::MAX, u64::MAX];
        let n = 1_000_000;
        let bounded = partition_bounded(n, &funcs, &caps).unwrap();
        let free = oracle::solve(n, &funcs).unwrap();
        let rel = (bounded.makespan - free.makespan).abs() / free.makespan;
        assert!(rel < 1e-3, "{} vs {}", bounded.makespan, free.makespan);
    }

    #[test]
    fn caps_bind_and_spill_to_others() {
        let funcs = vec![ConstantSpeed::new(100.0), ConstantSpeed::new(1.0)];
        // Unbounded, the fast machine would take ~99%; cap it at 50.
        let r = partition_bounded(100, &funcs, &[50, 100]).unwrap();
        assert_eq!(r.distribution.counts()[0], 50);
        assert_eq!(r.distribution.counts()[1], 50);
    }

    #[test]
    fn exact_capacity_fit() {
        let funcs = vec![ConstantSpeed::new(3.0), ConstantSpeed::new(7.0)];
        let r = partition_bounded(30, &funcs, &[10, 20]).unwrap();
        assert_eq!(r.distribution.counts(), &[10, 20]);
    }

    #[test]
    fn insufficient_capacity_is_an_error() {
        let funcs = vec![ConstantSpeed::new(1.0)];
        let e = partition_bounded(10, &funcs, &[5]).unwrap_err();
        assert!(matches!(e, Error::InsufficientCapacity { available: 5, requested: 10 }));
    }

    #[test]
    fn zero_items() {
        let funcs = vec![ConstantSpeed::new(1.0)];
        let r = partition_bounded(0, &funcs, &[10]).unwrap();
        assert_eq!(r.distribution.total(), 0);
    }

    #[test]
    fn partitioner_adapter_matches_non_binding_caps_and_oracle() {
        use super::super::problem::Partitioner as _;
        let funcs = vec![
            AnalyticSpeed::decreasing(200.0, 1e6, 2.0),
            AnalyticSpeed::paging(300.0, 2e6, 3.0),
            AnalyticSpeed::constant(75.0),
        ];
        let n = 2_500_000;
        let report = BoundedPartitioner.partition(n, &funcs).unwrap();
        assert_eq!(report.distribution.total(), n);
        // Identical to the explicit non-binding-caps call.
        let explicit = partition_bounded(n, &funcs, &[n, n, n]).unwrap();
        assert_eq!(report.distribution.counts(), explicit.distribution.counts());
        assert_eq!(report.makespan.to_bits(), explicit.makespan.to_bits());
        // Oracle-differential exactness.
        let free = oracle::solve(n, &funcs).unwrap();
        let rel = (report.makespan - free.makespan).abs() / free.makespan;
        assert!(rel < 5e-3, "{} vs oracle {}", report.makespan, free.makespan);
    }

    #[test]
    fn bounded_with_paging_models_avoids_overloading_small_memory() {
        // The capped machine pages hard; the cap mirrors its memory.
        let funcs = vec![
            AnalyticSpeed::paging(300.0, 1e5, 4.0),
            AnalyticSpeed::constant(50.0),
        ];
        let r = partition_bounded(1_000_000, &funcs, &[200_000, u64::MAX]).unwrap();
        assert!(r.distribution.counts()[0] <= 200_000);
        assert_eq!(r.distribution.total(), 1_000_000);
    }
}
