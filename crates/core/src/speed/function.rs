//! The [`SpeedFunction`] trait: the contract every processor model obeys.

/// Absolute speed of a processor as a function of problem size.
///
/// `x` is the **size of the problem** in the paper's sense: the amount of
/// data stored and processed by the algorithm (e.g. `3·n²` elements for the
/// multiplication of two dense `n×n` matrices), *not* the number of
/// arithmetic operations. Speed is expressed in work units per second
/// (MFlops in the paper's experiments).
///
/// # Model requirements
///
/// For the geometric partitioning algorithms to be correct the function must
/// satisfy the paper's shape assumption: **any straight line through the
/// origin of the (size, speed) plane intersects the graph in at most one
/// point**. This is equivalent to `x ↦ speed(x)/x` being strictly
/// decreasing on `(0, max_size]`, and is satisfied by all shapes observed
/// experimentally (paper Fig. 5):
///
/// * strictly decreasing functions (memory-inefficient applications),
/// * strictly increasing saturating functions,
/// * increasing-then-decreasing (unimodal) functions.
///
/// Use [`check_single_intersection`] to validate a custom implementation.
///
/// Implementations must return finite, strictly positive speeds for
/// `0 < x < max_size()`; beyond `max_size()` the speed may reach zero
/// (problem no longer solvable on the machine: the paper sets the speed to
/// zero at main-memory + swap exhaustion).
pub trait SpeedFunction {
    /// Absolute speed at problem size `x` (work units per second).
    ///
    /// Must be continuous and positive on `(0, max_size())`.
    fn speed(&self, x: f64) -> f64;

    /// Execution time of a problem of size `x`: `x / speed(x)`.
    ///
    /// Returns `0` for `x ≤ 0` and `+∞` if the speed is zero.
    fn time(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let s = self.speed(x);
        if s <= 0.0 {
            f64::INFINITY
        } else {
            x / s
        }
    }

    /// Largest problem size the processor can execute at non-negligible
    /// speed. Defaults to `+∞` for analytic models; piece-wise models built
    /// from experiments are bounded by the largest measured size.
    fn max_size(&self) -> f64 {
        f64::INFINITY
    }

    /// Closed-form intersection of the graph with the origin line
    /// `y = slope·x`, if the model can solve it analytically.
    ///
    /// Returning `Some(x)` lets [`crate::geometry::intersect_origin_line`]
    /// skip its exponential-bracketing + bisection search entirely. The
    /// returned abscissa must satisfy the same semantics as the numeric
    /// search: `0` when the line is steeper than the whole graph, clamped
    /// to [`SpeedFunction::max_size`] when the line never catches the
    /// graph inside the modelled domain. Returning `None` (the default)
    /// falls back to the numeric search.
    fn intersect_slope(&self, slope: f64) -> Option<f64> {
        let _ = slope;
        None
    }

    /// The `(size, speed)` knots this model interpolates, if it is one.
    ///
    /// Only a model whose [`speed`](Self::speed) is *exactly* the clamped
    /// linear interpolation of the returned knots may return them: `s_0`
    /// below the first knot, linear between neighbours, the last knot's
    /// speed above it, and [`max_size`](Self::max_size) at the last knot's
    /// abscissa. The knots must be ones
    /// [`PiecewiseLinearSpeed::new`](crate::speed::PiecewiseLinearSpeed::new)
    /// accepts. The sort and query cost transforms solve their
    /// intersections segment by segment over them
    /// ([`CostFunction::speed_knots`](crate::cost::CostFunction::speed_knots)).
    ///
    /// [`PiecewiseLinearSpeed`](crate::speed::PiecewiseLinearSpeed)
    /// returns its knots, and references, boxes and `Arc`s forward. The
    /// default is `None`; a wrapper that changes speeds, such as
    /// [`ScaledSpeed`], must keep it.
    fn speed_knots(&self) -> Option<&[(f64, f64)]> {
        None
    }
}

impl<T: SpeedFunction + ?Sized> SpeedFunction for &T {
    fn speed(&self, x: f64) -> f64 {
        (**self).speed(x)
    }
    fn time(&self, x: f64) -> f64 {
        (**self).time(x)
    }
    fn max_size(&self) -> f64 {
        (**self).max_size()
    }
    fn intersect_slope(&self, slope: f64) -> Option<f64> {
        (**self).intersect_slope(slope)
    }
    fn speed_knots(&self) -> Option<&[(f64, f64)]> {
        (**self).speed_knots()
    }
}

impl<T: SpeedFunction + ?Sized> SpeedFunction for Box<T> {
    fn speed(&self, x: f64) -> f64 {
        (**self).speed(x)
    }
    fn time(&self, x: f64) -> f64 {
        (**self).time(x)
    }
    fn max_size(&self) -> f64 {
        (**self).max_size()
    }
    fn intersect_slope(&self, slope: f64) -> Option<f64> {
        (**self).intersect_slope(slope)
    }
    fn speed_knots(&self) -> Option<&[(f64, f64)]> {
        (**self).speed_knots()
    }
}

impl<T: SpeedFunction + ?Sized> SpeedFunction for std::sync::Arc<T> {
    fn speed(&self, x: f64) -> f64 {
        (**self).speed(x)
    }
    fn time(&self, x: f64) -> f64 {
        (**self).time(x)
    }
    fn max_size(&self) -> f64 {
        (**self).max_size()
    }
    fn intersect_slope(&self, slope: f64) -> Option<f64> {
        (**self).intersect_slope(slope)
    }
    fn speed_knots(&self) -> Option<&[(f64, f64)]> {
        (**self).speed_knots()
    }
}

/// The classical single-number model: speed independent of problem size.
///
/// This is the baseline the paper argues against; it is what every
/// pre-existing model (\[1\]–\[11\] in the paper) reduces to. Note that a
/// constant satisfies the single-intersection requirement (`s/x = c/x` is
/// strictly decreasing), so the geometric algorithms degrade gracefully to
/// the classical proportional partitioning when given constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantSpeed {
    /// The single number representing the processor speed.
    pub speed: f64,
}

impl ConstantSpeed {
    /// Creates a constant-speed model. `speed` must be positive and finite.
    pub fn new(speed: f64) -> Self {
        assert!(speed.is_finite() && speed > 0.0, "speed must be positive and finite");
        Self { speed }
    }
}

impl SpeedFunction for ConstantSpeed {
    fn speed(&self, _x: f64) -> f64 {
        self.speed
    }

    fn intersect_slope(&self, slope: f64) -> Option<f64> {
        // s = slope·x ⇒ x = s/slope, exactly.
        Some(self.speed / slope)
    }
}

/// A speed function scaled by a constant factor.
///
/// Used to model constant-factor level shifts: the paper observes that for
/// computers already engaged in heavy tasks, additional load *shifts the
/// band to a lower level with the width remaining constant*.
#[derive(Debug, Clone)]
pub struct ScaledSpeed<F> {
    inner: F,
    factor: f64,
}

impl<F: SpeedFunction> ScaledSpeed<F> {
    /// Wraps `inner`, multiplying every speed by `factor` (> 0).
    pub fn new(inner: F, factor: f64) -> Self {
        assert!(factor.is_finite() && factor > 0.0, "factor must be positive and finite");
        Self { inner, factor }
    }

    /// The underlying unscaled function.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// The scale factor.
    pub fn factor(&self) -> f64 {
        self.factor
    }
}

impl<F: SpeedFunction> SpeedFunction for ScaledSpeed<F> {
    fn speed(&self, x: f64) -> f64 {
        self.factor * self.inner.speed(x)
    }
    fn max_size(&self) -> f64 {
        self.inner.max_size()
    }
    fn intersect_slope(&self, slope: f64) -> Option<f64> {
        // factor·s(x) = slope·x ⇔ s(x) = (slope/factor)·x at the same x.
        self.inner.intersect_slope(slope / self.factor)
    }
}

/// Validates the single-intersection requirement on a sample grid.
///
/// Checks that `speed(x)/x` is strictly decreasing over `samples`
/// logarithmically spaced points of `(lo, hi]`. Returns the first offending
/// abscissa pair on failure.
///
/// This is the shape assumption of paper §2 item 1: "there is only one
/// intersection point of the graph with any straight line passing through
/// the origin".
pub fn check_single_intersection<F: SpeedFunction + ?Sized>(
    f: &F,
    lo: f64,
    hi: f64,
    samples: usize,
) -> Result<(), (f64, f64)> {
    assert!(lo > 0.0 && hi > lo && samples >= 2);
    let log_lo = lo.ln();
    let log_hi = hi.ln();
    let mut prev_x = lo;
    let mut prev_g = f.speed(lo) / lo;
    for k in 1..samples {
        let t = k as f64 / (samples - 1) as f64;
        let x = (log_lo + t * (log_hi - log_lo)).exp();
        let g = f.speed(x) / x;
        // Strictly decreasing up to numerical slack proportional to scale.
        if g > prev_g * (1.0 + 1e-9) {
            return Err((prev_x, x));
        }
        prev_x = x;
        prev_g = g;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_speed_time_is_linear() {
        let c = ConstantSpeed::new(50.0);
        assert_eq!(c.speed(1.0), 50.0);
        assert_eq!(c.speed(1e9), 50.0);
        assert!((c.time(100.0) - 2.0).abs() < 1e-12);
        assert_eq!(c.time(0.0), 0.0);
        assert_eq!(c.time(-5.0), 0.0);
    }

    #[test]
    fn constant_passes_single_intersection() {
        let c = ConstantSpeed::new(10.0);
        assert!(check_single_intersection(&c, 1.0, 1e9, 200).is_ok());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn constant_rejects_nonpositive() {
        ConstantSpeed::new(0.0);
    }

    #[test]
    fn scaled_speed_scales() {
        let s = ScaledSpeed::new(ConstantSpeed::new(100.0), 0.5);
        assert_eq!(s.speed(42.0), 50.0);
        assert_eq!(s.factor(), 0.5);
        assert_eq!(s.inner().speed, 100.0);
    }

    #[test]
    fn super_linear_fails_single_intersection() {
        // speed(x) = x²: s/x = x is increasing, so the check must fail.
        struct Quad;
        impl SpeedFunction for Quad {
            fn speed(&self, x: f64) -> f64 {
                x * x
            }
        }
        assert!(check_single_intersection(&Quad, 1.0, 100.0, 50).is_err());
    }

    #[test]
    fn zero_speed_gives_infinite_time() {
        struct Dead;
        impl SpeedFunction for Dead {
            fn speed(&self, _x: f64) -> f64 {
                0.0
            }
        }
        assert!(Dead.time(10.0).is_infinite());
    }

    #[test]
    fn references_and_boxes_delegate() {
        let c = ConstantSpeed::new(7.0);
        let r: &dyn SpeedFunction = &c;
        assert_eq!(r.speed(1.0), 7.0);
        let b: Box<dyn SpeedFunction> = Box::new(c);
        assert_eq!(b.speed(2.0), 7.0);
        assert_eq!(b.max_size(), f64::INFINITY);
        let a: std::sync::Arc<dyn SpeedFunction> = std::sync::Arc::new(c);
        assert_eq!(a.speed(3.0), 7.0);
    }
}
