//! Geometric machinery: straight lines through the origin of the
//! (problem size, absolute speed) plane and their intersections with
//! processor speed graphs.
//!
//! Every partitioning algorithm in this crate searches for an *optimally
//! sloped* line `y = c·x`: a distribution is optimal exactly when the
//! points `(x_i, s_i(x_i))` of all processors lie on one such line
//! (paper Fig. 4), because then `x_i / s_i(x_i) = 1/c` for every `i` — all
//! processors finish simultaneously, and the common makespan is the
//! reciprocal of the slope.
//!
//! The shape assumption (`g(x) = s(x)/x` strictly decreasing) guarantees
//! that the intersection of any origin line with any graph is unique, which
//! makes [`intersect_origin_line`] a one-dimensional monotone root-finding
//! problem. Models that can invert it in closed form answer through
//! [`CostFunction::intersect_slope`] (piece-wise models, constant speeds,
//! and the sort/query transforms over them); every other model is solved
//! by exponential bracketing and bisection.
//!
//! The machinery is written against the time-domain [`CostFunction`]
//! contract: `g` is [`CostFunction::rate`] (`= 1/time(x)`), strictly
//! decreasing by the monotone-time invariant, and for speed-backed models
//! the blanket adapter makes `rate(x)` the literal `speed(x)/x` the
//! speed-domain search always computed. Solving `rate(x) = c` is solving
//! `time(x) = 1/c`: the line's slope *is* the reciprocal makespan.

use crate::cost::CostFunction;

/// Upper bound on intersection abscissas, used to bracket searches on
/// functions with unbounded domain.
const X_CAP: f64 = 1e18;

/// Absolute abscissa below which an intersection is considered to be at the
/// origin (the line is steeper than the whole graph).
const X_ORIGIN: f64 = 1e-9;

/// Solves `s(x) = c·x` for the unique positive intersection abscissa.
///
/// Given the shape assumption, `g(x) = s(x)/x` is strictly decreasing, so
/// the solution is the unique root of `g(x) = c`:
///
/// * if even at vanishing sizes `g < c` (line steeper than the graph
///   everywhere — possible for saturating shapes whose graph passes through
///   the origin), the intersection degenerates to `0`;
/// * if `g > c` over the whole domain (line shallower than the graph — the
///   processor would need more elements than its model covers), the
///   abscissa is clamped to [`CostFunction::max_size`] (or to an internal
///   cap of `10^18` for unbounded models).
///
/// Models with a closed form answer through
/// [`CostFunction::intersect_slope`]; otherwise the root is located by
/// exponential bracketing followed by bisection to sub-element precision.
pub fn intersect_origin_line<F: CostFunction + ?Sized>(f: &F, slope: f64) -> f64 {
    assert!(slope.is_finite() && slope > 0.0, "slope must be positive and finite");
    let g = |x: f64| f.rate(x);
    let x_max = f.max_size().min(X_CAP);

    // Models with a closed-form intersection (piece-wise linear, constant,
    // and the sort/query transforms over them) skip the bracketing/bisection
    // search entirely — the dominant cost of every partitioning iteration.
    // A non-finite or negative answer counts as no closed form: `f64::min`
    // would turn a NaN into `x_max` and hand the machine its whole domain.
    // The test is a plain float range check; spelled with `is_finite` it
    // compiled to integer bit tests that slowed a p = 1080 linear solve by
    // ~10 % on x86-64.
    if let Some(x) = f.intersect_slope(slope) {
        if (0.0..=f64::MAX).contains(&x) {
            return x.min(x_max);
        }
    }

    // The line is steeper than the graph already at vanishing size: the
    // only intersection is at the origin.
    if g(X_ORIGIN) <= slope {
        return 0.0;
    }
    // The line never catches the graph within the model's domain.
    if g(x_max) >= slope {
        return x_max;
    }

    // Exponential bracketing: find lo with g(lo) > slope and hi with
    // g(hi) < slope.
    let mut lo = X_ORIGIN;
    let mut hi = 1.0_f64.min(x_max);
    while g(hi) > slope {
        lo = hi;
        hi = (hi * 2.0).min(x_max);
        if hi >= x_max {
            break;
        }
    }

    // Bisection: monotone g makes this unconditionally convergent.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break; // float resolution reached
        }
        if g(mid) > slope {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo <= 1e-9 * hi.max(1.0) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Sum of the intersection abscissas of the line `y = slope·x` with every
/// processor graph: the total number of elements the line "distributes".
///
/// The search for the optimal line is a root-finding problem on this sum:
/// it is strictly decreasing in the slope, and the optimal slope makes it
/// equal to `n` (paper §2 step 2–3).
pub fn total_elements_at_slope<F: CostFunction>(funcs: &[F], slope: f64) -> f64 {
    funcs.iter().map(|f| intersect_origin_line(f, slope)).sum()
}

/// Intersection abscissas of the line with every processor graph.
pub fn intersections_at_slope<F: CostFunction>(funcs: &[F], slope: f64) -> Vec<f64> {
    funcs.iter().map(|f| intersect_origin_line(f, slope)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speed::{AnalyticSpeed, ConstantSpeed};

    #[test]
    fn constant_speed_intersection_is_exact() {
        // s(x) = 100, line y = c·x ⇒ x = 100/c.
        let f = ConstantSpeed::new(100.0);
        for &c in &[0.1, 1.0, 10.0] {
            let x = intersect_origin_line(&f, c);
            assert!((x - 100.0 / c).abs() < 1e-6 * (100.0 / c), "c={c}: x={x}");
        }
    }

    #[test]
    fn intersection_lies_on_both_curves() {
        let f = AnalyticSpeed::unimodal(250.0, 1e4, 5e6, 2.0);
        let c = 1e-4;
        let x = intersect_origin_line(&f, c);
        use crate::speed::SpeedFunction as _;
        assert!((f.speed(x) - c * x).abs() <= 1e-6 * f.speed(x).max(1.0));
    }

    #[test]
    fn steeper_line_gives_smaller_abscissa() {
        let f = AnalyticSpeed::decreasing(200.0, 1e6, 2.0);
        let x_steep = intersect_origin_line(&f, 1e-3);
        let x_shallow = intersect_origin_line(&f, 1e-5);
        assert!(x_steep < x_shallow);
    }

    #[test]
    fn saturating_shape_degenerates_to_origin_for_steep_lines() {
        // s(x) = 150·x/(x+1000): g(x) = 150/(x+1000) ≤ 0.15 everywhere.
        let f = AnalyticSpeed::saturating(150.0, 1000.0);
        assert_eq!(intersect_origin_line(&f, 0.2), 0.0);
        let x = intersect_origin_line(&f, 0.01);
        // 150/(x+1000) = 0.01 ⇒ x = 14000.
        assert!((x - 14_000.0).abs() < 1.0, "x = {x}");
    }

    #[test]
    fn bounded_model_clamps_to_max_size() {
        let f = crate::speed::PiecewiseLinearSpeed::new(vec![(10.0, 100.0), (1000.0, 50.0)])
            .unwrap();
        // Beyond the model, speed is clamped at 50; a shallow enough line
        // would intersect past 1000, so the abscissa clamps to max_size.
        let x = intersect_origin_line(&f, 1e-6);
        assert_eq!(x, 1000.0);
    }

    #[test]
    fn total_elements_decreases_with_slope() {
        let funcs = vec![
            AnalyticSpeed::constant(100.0),
            AnalyticSpeed::decreasing(200.0, 1e6, 2.0),
            AnalyticSpeed::paging(300.0, 2e6, 3.0),
        ];
        let hi = total_elements_at_slope(&funcs, 1e-5);
        let lo = total_elements_at_slope(&funcs, 1e-3);
        assert!(hi > lo, "sum of abscissas must decrease as the line steepens");
    }

    #[test]
    fn intersections_match_individual_calls() {
        let funcs =
            vec![AnalyticSpeed::constant(10.0), AnalyticSpeed::decreasing(20.0, 1e4, 1.5)];
        let xs = intersections_at_slope(&funcs, 1e-3);
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[0], intersect_origin_line(&funcs[0], 1e-3));
        assert_eq!(xs[1], intersect_origin_line(&funcs[1], 1e-3));
    }

    #[test]
    #[should_panic(expected = "slope")]
    fn rejects_non_positive_slope() {
        intersect_origin_line(&ConstantSpeed::new(1.0), 0.0);
    }

    #[test]
    fn pure_cost_models_intersect_in_the_time_domain() {
        // Numeric path: time(x) = x²/1e4 has no closed form here, and
        // rate(x) = 1e4/x² is strictly decreasing. The line y = c·x meets
        // the throughput curve where time(x) = 1/c.
        struct Quadratic;
        impl crate::cost::CostFunction for Quadratic {
            fn time(&self, x: f64) -> f64 {
                if x <= 0.0 {
                    0.0
                } else {
                    x * x / 1e4
                }
            }
        }
        let c = 0.5; // makespan 2 ⇒ x = sqrt(2·1e4) ≈ 141.42
        let x = intersect_origin_line(&Quadratic, c);
        assert!((Quadratic.time(x) - 2.0).abs() < 1e-6, "x = {x}");

        // Closed-form path: measured (size, time) knots invert exactly.
        let f = crate::cost::PiecewiseLinearCost::new(vec![(100.0, 1.0), (1000.0, 25.0)])
            .unwrap();
        let x = intersect_origin_line(&f, 1.0); // time(x) = 1 ⇒ first knot
        assert!((x - 100.0).abs() < 1e-9, "x = {x}");
        assert_eq!(intersect_origin_line(&f, 1e-9), 1000.0, "clamps to max_size");
    }

    #[test]
    fn non_finite_or_negative_closed_forms_fall_back_to_the_numeric_search() {
        // time(x) = x²/1e4 on a bounded domain, with and without a broken
        // closed form.
        struct Numeric;
        impl CostFunction for Numeric {
            fn time(&self, x: f64) -> f64 {
                if x <= 0.0 {
                    0.0
                } else {
                    x * x / 1e4
                }
            }
            fn max_size(&self) -> f64 {
                1e6
            }
        }
        struct Broken(f64);
        impl CostFunction for Broken {
            fn time(&self, x: f64) -> f64 {
                Numeric.time(x)
            }
            fn max_size(&self) -> f64 {
                Numeric.max_size()
            }
            fn intersect_slope(&self, _slope: f64) -> Option<f64> {
                Some(self.0)
            }
        }
        let numeric = intersect_origin_line(&Numeric, 0.5);
        assert!((numeric - 2e4f64.sqrt()).abs() < 1e-6, "x = {numeric}");
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let x = intersect_origin_line(&Broken(bad), 0.5);
            assert_eq!(x.to_bits(), numeric.to_bits(), "closed form {bad}");
        }
    }

    #[test]
    fn numeric_intersections_take_a_pinned_number_of_evaluations() {
        // A model with only `time` has no closed form, so every call runs
        // the two early-exit probes, doubling from x = 1 past the root and
        // bisection to a relative width of 1e-9. The count depends on the
        // root's size, not on the shape.
        struct Counting<'a> {
            f: AnalyticSpeed,
            calls: &'a std::cell::Cell<u64>,
        }
        impl CostFunction for Counting<'_> {
            fn time(&self, x: f64) -> f64 {
                self.calls.set(self.calls.get() + 1);
                self.f.time(x)
            }
        }
        let shapes = [
            AnalyticSpeed::decreasing(200.0, 1e6, 2.0),
            AnalyticSpeed::saturating(150.0, 1000.0),
            AnalyticSpeed::unimodal(250.0, 1e4, 5e6, 2.0),
            AnalyticSpeed::paging(300.0, 2e6, 3.0),
        ];
        for shape in shapes {
            let calls = std::cell::Cell::new(0);
            let f = Counting { f: shape, calls: &calls };
            let evaluations = [1e3, 1e6, 1e9, 2.5e9].map(|x| {
                let slope = f.rate(x);
                calls.set(0);
                intersect_origin_line(&f, slope);
                calls.get()
            });
            assert_eq!(evaluations, [42, 52, 62, 65], "{:?}", f.f);
        }
    }

    #[test]
    fn exp_tail_far_intersections_are_resolved() {
        // The basic algorithm's worst case must still be *solvable* by the
        // intersection primitive.
        let f = AnalyticSpeed::exp_tail(100.0, 1e4);
        let x = intersect_origin_line(&f, 1e-12);
        use crate::speed::SpeedFunction as _;
        assert!((f.speed(x) - 1e-12 * x).abs() <= 1e-6 * (1e-12 * x).max(1e-300));
    }
}
