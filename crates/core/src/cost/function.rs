//! The [`CostFunction`] trait and the blanket adapter from
//! [`SpeedFunction`].

use crate::speed::SpeedFunction;

/// Execution-time model of a single processor: `time(x)` is the wall
/// time the machine needs to process `x` elements.
///
/// This is the time-domain restatement of the paper's functional
/// performance model. The paper assumes each speed function `s(x)` has
/// the *single-intersection* shape: any line through the origin cuts
/// the curve `y = s(x)` at most once, which is equivalent to
/// `s(x)/x` being strictly decreasing. Substituting
/// `time(x) = x / s(x)` turns that into the invariant this trait
/// requires:
///
/// * **`time` is strictly increasing** on `(0, max_size())` — more
///   elements never finish sooner;
/// * **`time` is positive and continuous** there (linear time, i.e.
///   constant speed, is admissible: the invariant is on `time`, not on
///   its curvature);
/// * consequently [`rate`](CostFunction::rate)` = 1 / time(x)` — the
///   slope of the origin line through `(x, throughput(x))` — is
///   strictly decreasing, which is exactly what the solvers' slope
///   bisection needs: the root of `rate(x) = c` is unique.
///
/// Every [`SpeedFunction`] is a `CostFunction` through a blanket
/// adapter with `time(x) = x / speed(x)`; the adapter forwards
/// closed-form intersections so speed-backed solves take the identical
/// floating-point path they took before the cost generalisation.
pub trait CostFunction {
    /// Wall time to process `x` elements.
    ///
    /// Must be strictly increasing, positive, and continuous on
    /// `(0, max_size())`. `time(x)` for `x <= 0` should be `0.0`.
    fn time(&self, x: f64) -> f64;

    /// Largest problem size this machine can take (e.g. before memory
    /// exhaustion). Defaults to unbounded.
    fn max_size(&self) -> f64 {
        f64::INFINITY
    }

    /// Effective processing speed at size `x`: `x / time(x)`, in
    /// elements per unit time.
    ///
    /// For speed-backed models the blanket adapter overrides this to
    /// return `speed(x)` directly, so no extra division is introduced
    /// on the legacy path.
    fn throughput(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let t = self.time(x);
        if t <= 0.0 {
            f64::INFINITY
        } else {
            x / t
        }
    }

    /// Slope of the origin line through `(x, throughput(x))`, i.e.
    /// `throughput(x) / x = 1 / time(x)`.
    ///
    /// This is the quantity the solvers bisect on: by the trait
    /// invariant it is strictly decreasing in `x`, so `rate(x) = c`
    /// has at most one root.
    fn rate(&self, x: f64) -> f64 {
        self.throughput(x) / x
    }

    /// Closed-form solution of `rate(x) = slope` (equivalently
    /// `time(x) = 1/slope`), if this model has one. `None` sends the
    /// solvers down the numeric bracketing path.
    ///
    /// Models that answer in closed form:
    ///
    /// * [`PiecewiseLinearCost`](crate::cost::PiecewiseLinearCost)
    ///   (measured cost knots);
    /// * through the blanket adapter, the speed models with a closed
    ///   form: [`ConstantSpeed`](crate::speed::ConstantSpeed),
    ///   [`PiecewiseLinearSpeed`](crate::speed::PiecewiseLinearSpeed) and
    ///   [`ScaledSpeed`](crate::speed::ScaledSpeed) over either;
    /// * [`SortCost`](crate::cost::SortCost) and
    ///   [`QueryCost`](crate::cost::QueryCost) over a base that answers:
    ///   over a base with [`speed_knots`](Self::speed_knots), by one knot
    ///   search and a few Newton steps inside the segment that holds the
    ///   crossing; over any other base, by a few closed-form inversions of
    ///   that base;
    /// * the erased references over a model that answers.
    ///
    /// [`AnalyticSpeed`](crate::speed::AnalyticSpeed), simulated machines
    /// and custom models keep the default `None`.
    ///
    /// An answer must keep the numeric search's semantics: a finite,
    /// non-negative abscissa, clamped to [`max_size`](Self::max_size)
    /// when the line never catches the curve inside the modelled domain.
    /// A non-finite or negative answer is treated as `None`.
    fn intersect_slope(&self, slope: f64) -> Option<f64> {
        let _ = slope;
        None
    }

    /// The `(size, speed)` knots of a piece-wise linear speed model, if
    /// this is one; see
    /// [`SpeedFunction::speed_knots`](crate::speed::SpeedFunction::speed_knots)
    /// for the contract.
    ///
    /// The blanket adapter and the erased references forward it, so a
    /// [`PiecewiseLinearSpeed`](crate::speed::PiecewiseLinearSpeed) shows
    /// its knots through them. Every other model keeps the default `None`:
    /// [`PiecewiseLinearCost`](crate::cost::PiecewiseLinearCost) holds
    /// time knots, and the sort and query transforms change the curve.
    fn speed_knots(&self) -> Option<&[(f64, f64)]> {
        None
    }
}

/// Every speed function is a cost function with `time(x) = x / speed(x)`.
///
/// The overrides are chosen so that a solver rewritten against
/// `CostFunction` performs the *identical* floating-point operation
/// sequence the speed-domain solver performed:
///
/// * `throughput(x)` is `speed(x)` — no detour through `time`;
/// * `rate(x)` (the default `throughput(x) / x`) is therefore the
///   literal `speed(x) / x` every legacy call site computed;
/// * `time` and `intersect_slope` forward to the speed-domain
///   implementations, preserving closed forms and guards, and
///   `speed_knots` forwards too.
impl<F: SpeedFunction + ?Sized> CostFunction for F {
    fn time(&self, x: f64) -> f64 {
        SpeedFunction::time(self, x)
    }

    fn max_size(&self) -> f64 {
        SpeedFunction::max_size(self)
    }

    fn throughput(&self, x: f64) -> f64 {
        self.speed(x)
    }

    fn intersect_slope(&self, slope: f64) -> Option<f64> {
        SpeedFunction::intersect_slope(self, slope)
    }

    fn speed_knots(&self) -> Option<&[(f64, f64)]> {
        SpeedFunction::speed_knots(self)
    }
}

/// Forwarding impl so erased `&dyn CostFunction` elements satisfy
/// `F: CostFunction` bounds (mirrors the `&T` forwarding impl on
/// [`SpeedFunction`]; a generic `&T` impl would overlap the blanket
/// adapter, but `dyn CostFunction` itself is not a `SpeedFunction`, so
/// this specific impl is coherent).
impl<'a> CostFunction for &'a (dyn CostFunction + 'a) {
    fn time(&self, x: f64) -> f64 {
        (**self).time(x)
    }

    fn max_size(&self) -> f64 {
        (**self).max_size()
    }

    fn throughput(&self, x: f64) -> f64 {
        (**self).throughput(x)
    }

    fn rate(&self, x: f64) -> f64 {
        (**self).rate(x)
    }

    fn intersect_slope(&self, slope: f64) -> Option<f64> {
        (**self).intersect_slope(slope)
    }

    fn speed_knots(&self) -> Option<&[(f64, f64)]> {
        (**self).speed_knots()
    }
}

/// Same forwarding for the thread-safe erased form used by the serving
/// layer (`Arc<dyn CostFunction + Send + Sync>` borrows to this).
impl<'a> CostFunction for &'a (dyn CostFunction + Send + Sync + 'a) {
    fn time(&self, x: f64) -> f64 {
        (**self).time(x)
    }

    fn max_size(&self) -> f64 {
        (**self).max_size()
    }

    fn throughput(&self, x: f64) -> f64 {
        (**self).throughput(x)
    }

    fn rate(&self, x: f64) -> f64 {
        (**self).rate(x)
    }

    fn intersect_slope(&self, slope: f64) -> Option<f64> {
        (**self).intersect_slope(slope)
    }

    fn speed_knots(&self) -> Option<&[(f64, f64)]> {
        (**self).speed_knots()
    }
}

/// Validates the time-domain shape invariant on a log-spaced sample
/// grid: `time` must be (weakly, up to rounding) increasing and
/// positive across `[lo, hi]`.
///
/// The cost-domain analog of
/// [`check_single_intersection`](crate::speed::check_single_intersection):
/// returns `Err(x)` with the first offending sample point.
pub fn check_increasing_time<F: CostFunction + ?Sized>(
    f: &F,
    lo: f64,
    hi: f64,
    samples: usize,
) -> Result<(), f64> {
    assert!(lo > 0.0 && hi > lo && samples >= 2, "bad sample grid");
    let (ln_lo, ln_hi) = (lo.ln(), hi.ln());
    let mut prev_t = 0.0f64;
    for i in 0..samples {
        let frac = i as f64 / (samples - 1) as f64;
        let x = (ln_lo + frac * (ln_hi - ln_lo)).exp();
        let t = f.time(x);
        if t.is_nan() || t <= 0.0 || t < prev_t * (1.0 - 1e-9) {
            return Err(x);
        }
        prev_t = t;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speed::{AnalyticSpeed, ConstantSpeed};

    /// A pure cost model (no SpeedFunction impl): time(x) = x^2 / k.
    struct QuadraticCost {
        k: f64,
    }

    impl CostFunction for QuadraticCost {
        fn time(&self, x: f64) -> f64 {
            if x <= 0.0 {
                0.0
            } else {
                x * x / self.k
            }
        }
    }

    #[test]
    fn blanket_adapter_matches_speed_domain_bitwise() {
        let f = AnalyticSpeed::decreasing(80.0, 1.0e6, 1.4);
        for &x in &[1.0, 17.0, 1.0e3, 3.7e6, 9.9e8] {
            use crate::speed::SpeedFunction as _;
            let s = f.speed(x);
            assert_eq!(CostFunction::throughput(&f, x).to_bits(), s.to_bits());
            assert_eq!(CostFunction::rate(&f, x).to_bits(), (s / x).to_bits());
            assert_eq!(
                CostFunction::time(&f, x).to_bits(),
                SpeedFunction::time(&f, x).to_bits()
            );
        }
    }

    #[test]
    fn blanket_adapter_forwards_closed_forms() {
        let f = ConstantSpeed::new(250.0);
        let x = CostFunction::intersect_slope(&f, 0.5).expect("constant speed has a closed form");
        assert_eq!(x.to_bits(), (250.0f64 / 0.5).to_bits());
    }

    #[test]
    fn speed_knots_reach_every_forwarding_view() {
        use crate::speed::{PiecewiseLinearSpeed, ScaledSpeed};
        use std::sync::Arc;
        let model = PiecewiseLinearSpeed::new(vec![(10.0, 100.0), (1000.0, 50.0)]).unwrap();
        let knots = Some(model.knots());
        let erased: &dyn CostFunction = &model;
        let shared: Arc<dyn CostFunction + Send + Sync> = Arc::new(model.clone());
        let boxed: Box<dyn SpeedFunction> = Box::new(model.clone());
        assert_eq!(CostFunction::speed_knots(&model), knots);
        assert_eq!(CostFunction::speed_knots(&erased), knots);
        assert_eq!(CostFunction::speed_knots(&&*shared), knots);
        assert_eq!(CostFunction::speed_knots(&boxed), knots);
        // A wrapper that changes speeds must not show its inner knots.
        let scaled = ScaledSpeed::new(model.clone(), 2.0);
        assert_eq!(CostFunction::speed_knots(&scaled), None);
        assert_eq!(CostFunction::speed_knots(&ConstantSpeed::new(1.0)), None);
    }

    #[test]
    fn pure_cost_model_derives_throughput_and_rate() {
        let f = QuadraticCost { k: 100.0 };
        // time(10) = 1.0 → throughput 10, rate 1.0
        assert_eq!(f.time(10.0), 1.0);
        assert_eq!(f.throughput(10.0), 10.0);
        assert_eq!(f.rate(10.0), 1.0);
        // rate is strictly decreasing for a superlinear cost
        assert!(f.rate(20.0) < f.rate(10.0));
        assert!(f.throughput(0.0) == 0.0);
        assert!(f.rate(1e-3) > f.rate(1.0));
    }

    #[test]
    fn erased_cost_objects_forward() {
        let q = QuadraticCost { k: 100.0 };
        let erased: &dyn CostFunction = &q;
        assert_eq!(erased.time(10.0).to_bits(), q.time(10.0).to_bits());
        assert_eq!(erased.rate(10.0).to_bits(), q.rate(10.0).to_bits());
        // &dyn CostFunction itself satisfies a `F: CostFunction` bound.
        fn takes_generic<F: CostFunction>(f: &F, x: f64) -> f64 {
            f.time(x)
        }
        assert_eq!(takes_generic(&erased, 10.0).to_bits(), q.time(10.0).to_bits());
    }

    #[test]
    fn check_increasing_time_accepts_and_rejects() {
        assert!(check_increasing_time(&QuadraticCost { k: 10.0 }, 1.0, 1e6, 64).is_ok());
        assert!(
            check_increasing_time(&AnalyticSpeed::decreasing(80.0, 1.0e6, 1.4), 1.0, 1e8, 64)
                .is_ok()
        );

        struct Decreasing;
        impl CostFunction for Decreasing {
            fn time(&self, x: f64) -> f64 {
                1.0 / x.max(1e-12)
            }
        }
        assert!(check_increasing_time(&Decreasing, 1.0, 1e4, 32).is_err());
    }
}
