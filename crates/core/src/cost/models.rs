//! Concrete cost models: measured `(size, time)` knots and the
//! workload transforms for sort- and query-shaped loads.

use super::function::CostFunction;
use crate::error::{Error, Result};

/// A cost function interpolated linearly between measured
/// `(size, time)` knots — the time-domain counterpart of
/// [`crate::speed::PiecewiseLinearSpeed`].
///
/// Below the first knot the model interpolates linearly from the origin
/// `(0, 0)` (equivalent to the speed model's "clamp to the first
/// measured speed"); beyond the last knot it continues the final
/// segment's slope, and [`max_size`](CostFunction::max_size) is the
/// last knot's abscissa so the solvers never assign past the measured
/// domain.
///
/// # Shape validity
///
/// The trait invariant — `time` strictly increasing — holds for a
/// piece-wise linear function iff it holds at the knots, which
/// [`PiecewiseLinearCost::new`] enforces. Note this admits *any*
/// curvature (convex sort costs, concave cache-warming costs, straight
/// linear costs alike); the speed model's stricter `s(x)/x` decrease is
/// the special case of a time model that also passes through shrinking
/// origin-line slopes.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinearCost {
    /// Knots sorted by strictly increasing abscissa and time.
    points: Vec<(f64, f64)>,
}

impl PiecewiseLinearCost {
    /// Builds a piece-wise linear cost model from `(size, time)` knots.
    ///
    /// Requirements (checked, violations return
    /// [`Error::InvalidSpeedFunction`] with processor index
    /// `usize::MAX`, matching the speed-model constructor):
    ///
    /// * at least two knots;
    /// * abscissas strictly increasing, positive, finite;
    /// * times strictly increasing, positive, finite.
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self> {
        const P: usize = usize::MAX;
        if points.len() < 2 {
            return Err(Error::InvalidSpeedFunction {
                processor: P,
                reason: "piece-wise linear cost model needs at least two knots",
            });
        }
        for &(x, t) in &points {
            if !(x.is_finite() && x > 0.0) {
                return Err(Error::InvalidSpeedFunction {
                    processor: P,
                    reason: "cost knot abscissas must be positive and finite",
                });
            }
            if !(t.is_finite() && t > 0.0) {
                return Err(Error::InvalidSpeedFunction {
                    processor: P,
                    reason: "cost knot times must be positive and finite",
                });
            }
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(Error::InvalidSpeedFunction {
                    processor: P,
                    reason: "cost knot abscissas must be strictly increasing",
                });
            }
            if w[1].1 <= w[0].1 {
                return Err(Error::InvalidSpeedFunction {
                    processor: P,
                    reason: "cost knot times must be strictly increasing (monotone time invariant)",
                });
            }
        }
        Ok(Self { points })
    }

    /// The interpolation knots, sorted by size.
    pub fn knots(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of measured points the model is built from.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the model has no knots (never true for a constructed model).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

impl CostFunction for PiecewiseLinearCost {
    fn time(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let pts = &self.points;
        let (x0, t0) = pts[0];
        let (x_last, t_last) = pts[pts.len() - 1];
        if x <= x0 {
            // Linear from the origin through the first knot.
            return t0 * (x / x0);
        }
        if x >= x_last {
            // Continue the final segment's slope.
            let (xa, ta) = pts[pts.len() - 2];
            let m = (t_last - ta) / (x_last - xa);
            return t_last + m * (x - x_last);
        }
        let idx = pts.partition_point(|&(xk, _)| xk < x);
        let (xa, ta) = pts[idx - 1];
        let (xb, tb) = pts[idx];
        let u = (x - xa) / (xb - xa);
        ta + u * (tb - ta)
    }

    fn max_size(&self) -> f64 {
        self.points[self.points.len() - 1].0
    }

    /// Closed-form intersection with the origin line `y = slope·x` in
    /// the throughput plane, i.e. the root of `time(x) = 1/slope`.
    ///
    /// `time` is strictly increasing (validated at construction), so a
    /// binary search over the knots finds the containing segment and a
    /// linear inversion finishes. Mirrors the clamping semantics of
    /// [`crate::geometry::intersect_origin_line`]: `max_size` when even
    /// the full modelled domain finishes before `1/slope`.
    fn intersect_slope(&self, slope: f64) -> Option<f64> {
        if !(slope.is_finite() && slope > 0.0) {
            return None;
        }
        let target = 1.0 / slope;
        let pts = &self.points;
        let (x0, t0) = pts[0];
        let (x_last, t_last) = pts[pts.len() - 1];
        if target <= t0 {
            // Origin segment: time(x) = t0·x/x0.
            return Some(x0 * (target / t0));
        }
        if target >= t_last {
            return Some(x_last);
        }
        let k = pts.partition_point(|&(_, tk)| tk < target);
        debug_assert!(k >= 1 && k < pts.len());
        let (xa, ta) = pts[k - 1];
        let (xb, tb) = pts[k];
        let u = (target - ta) / (tb - ta);
        Some(xa + u * (xb - xa))
    }
}

/// Comparison-sort transform: `time(x) = base_time(x) · log₂(max(x, 2))`.
///
/// Models a machine whose elementwise throughput is described by an
/// existing model while the workload performs an `x·log x` comparison
/// sort over its assigned elements (Cérin/Dubacq/Roch-style
/// heterogeneous sorting). The factor is clamped at `log₂ 2 = 1` below
/// two elements so the transform is continuous and the base cost is a
/// lower bound.
///
/// Borrows its base model, matching how the planner wraps a
/// caller-owned cluster slice for the duration of one solve.
#[derive(Debug)]
pub struct SortCost<'a, F: ?Sized> {
    inner: &'a F,
}

impl<'a, F: CostFunction + ?Sized> SortCost<'a, F> {
    /// Wraps `inner` with the `x·log₂ x` comparison factor.
    pub fn new(inner: &'a F) -> Self {
        Self { inner }
    }

    /// The elementwise base model.
    pub fn inner(&self) -> &F {
        self.inner
    }
}

impl<F: CostFunction + ?Sized> CostFunction for SortCost<'_, F> {
    fn time(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        self.inner.time(x) * x.max(2.0).log2()
    }

    fn max_size(&self) -> f64 {
        self.inner.max_size()
    }

    /// The root of `base_time(x)·log₂ x = 1/slope`, found as the fixed
    /// point of `x = base⁻¹(1/(slope·log₂ x))` in a few closed-form
    /// inversions of the base model; `None` when the base has no closed
    /// form.
    fn intersect_slope(&self, slope: f64) -> Option<f64> {
        // φ = log₂ x above two elements, with d ln φ / d ln x = 1 / ln x.
        let factor = |u: f64| {
            let phi = u * std::f64::consts::LOG2_E;
            Factor { phi, ln_phi: phi.ln(), elasticity: u.recip() }
        };
        invert_through_base(self.inner, slope, 2.0, factor, |x| self.rate(x))
    }

    fn has_closed_form(&self) -> bool {
        self.inner.has_closed_form()
    }
}

/// Query/join transform: `time(x) = base_time(x) · max(x, 1)^γ`.
///
/// Models superlinear per-machine work — join-shaped and
/// query-processing loads where cost grows as `x^(1+γ)` over an
/// elementwise base model (γ = 0 degenerates to the base model). The
/// factor is clamped at `1^γ = 1` below one element so the transform
/// stays continuous and monotone near the origin.
#[derive(Debug)]
pub struct QueryCost<'a, F: ?Sized> {
    inner: &'a F,
    gamma: f64,
}

impl<'a, F: CostFunction + ?Sized> QueryCost<'a, F> {
    /// Wraps `inner` with the `x^γ` superlinearity factor.
    ///
    /// # Panics
    ///
    /// If `gamma` is negative or not finite (a negative exponent would
    /// break the monotone-time invariant).
    pub fn new(inner: &'a F, gamma: f64) -> Self {
        assert!(
            gamma.is_finite() && gamma >= 0.0,
            "query cost exponent must be finite and non-negative"
        );
        Self { inner, gamma }
    }

    /// The elementwise base model.
    pub fn inner(&self) -> &F {
        self.inner
    }

    /// The superlinearity exponent γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }
}

impl<F: CostFunction + ?Sized> CostFunction for QueryCost<'_, F> {
    fn time(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        self.inner.time(x) * x.max(1.0).powf(self.gamma)
    }

    fn max_size(&self) -> f64 {
        self.inner.max_size()
    }

    /// The root of `base_time(x)·x^γ = 1/slope`, found as the fixed point
    /// of `x = base⁻¹(1/(slope·x^γ))` in a few closed-form inversions of
    /// the base model; `None` when the base has no closed form. At γ = 0
    /// this is the base's answer bit for bit.
    fn intersect_slope(&self, slope: f64) -> Option<f64> {
        // φ = x^γ above one element (nowhere for γ = 0), with
        // d ln φ / d ln x = γ.
        let flat_to = if self.gamma == 0.0 { f64::INFINITY } else { 1.0 };
        let factor = |u: f64| {
            let ln_phi = self.gamma * u;
            Factor { phi: ln_phi.exp(), ln_phi, elasticity: self.gamma }
        };
        invert_through_base(self.inner, slope, flat_to, factor, |x| self.rate(x))
    }

    fn has_closed_form(&self) -> bool {
        self.inner.has_closed_form()
    }
}

/// Residual at which [`invert_through_base`] stops: the transformed time of
/// the returned abscissa is within this relative distance of `1/slope`.
const INVERSION_TOL: f64 = 1e-12;

/// Iteration cap of [`invert_through_base`]. Newton steps converge in a
/// handful of base inversions; the cap only bounds the bisection fallback,
/// which reaches float resolution in the log-size bracket well before it.
const INVERSION_MAX_STEPS: usize = 128;

/// A workload factor φ of a cost transform `time(x) = base_time(x)·φ(x)`,
/// evaluated at `u = ln x`.
#[derive(Debug, Clone, Copy)]
struct Factor {
    phi: f64,
    ln_phi: f64,
    /// `d ln φ / d ln x`.
    elasticity: f64,
}

/// Closed-form intersection of a workload transform
/// `time(x) = base_time(x)·φ(x)` with the origin line of `slope`, i.e.
/// the root of `time(x) = 1/slope`, computed from closed-form inversions
/// of the base model alone.
///
/// The factor φ is 1 on `x ≤ flat_to` and strictly increasing above it,
/// where `factor(ln x)` evaluates it; `rate` is the transform's own
/// [`CostFunction::rate`].
///
/// # Construction
///
/// Write `base⁻¹(t)` for the base's closed-form inversion at time `t`.
/// The root is the fixed point of `M(x) = base⁻¹(1/(slope·φ(x)))`. `M` is
/// decreasing, so the fixed point is unique, `x_hi = base⁻¹(1/slope)`
/// bounds it from above, and for any `x` it lies between `x` and `M(x)`.
/// The search runs safeguarded Newton steps on `r(u) = ln M(eᵘ) − u`,
/// whose slope is `−(1 + e·d ln φ/d ln x)` with `e = d ln x/d ln t` the
/// elasticity of the base inversion, estimated from the last two
/// inversions (1, a linear base, before the second). The first step,
/// from `x_hi` where `r` is not yet known, solves the same linear model
/// through the inversion at `x_hi`. Each step costs one base inversion;
/// a step that leaves the bracket bisects it instead. `M(x)` is itself a
/// candidate answer, with transformed time `φ(M(x))/(slope·φ(x))`; the
/// search stops once a candidate is within `10⁻¹²` of `1/slope`, or the
/// bracket reaches float resolution.
///
/// # Clamping
///
/// Mirrors [`crate::geometry::intersect_origin_line`]:
///
/// * where φ = 1 the base's own answer is returned bit for bit;
/// * `max_size` is returned when the transformed time there is still
///   below `1/slope`;
/// * `None` when the base has no closed form (or answers with a
///   non-finite or negative abscissa), which keeps such models on the
///   numeric search.
fn invert_through_base<F: CostFunction + ?Sized>(
    base: &F,
    slope: f64,
    flat_to: f64,
    factor: impl Fn(f64) -> Factor,
    rate: impl Fn(f64) -> f64,
) -> Option<f64> {
    // The float range test rejects NaN, infinities and negatives alike.
    let usable = |x: &f64| (0.0..=f64::MAX).contains(x);
    let invert = |s: f64| base.intersect_slope(s).filter(usable);
    let x_hi = invert(slope)?;
    if x_hi <= flat_to {
        return Some(x_hi);
    }
    // The latest inversion as `(ln(t·slope), ln x)` for its base time `t`:
    // `(0, ln x_hi)` where the base inverted exactly, the true base time
    // where it clamped to max_size.
    let max = base.max_size();
    let mut latest = (0.0, x_hi.ln());
    if x_hi >= max {
        if rate(max) >= slope {
            return Some(max);
        }
        latest = ((base.time(max) * slope).ln(), max.ln());
        if !latest.0.is_finite() {
            return None;
        }
    }
    let (mut lo, mut hi) = (flat_to.ln(), latest.1);
    let mut u = hi;
    let mut at_u = factor(u);
    let mut elasticity = 1.0;
    // The candidate with the smallest residual so far.
    let mut best = (f64::INFINITY, None);
    for _ in 0..INVERSION_MAX_STEPS {
        // Newton step on u + e·ln φ(u) = ln x − e·ln(t·slope), the fixed
        // point of a base with elasticity e through `latest`; once `latest`
        // is M(eᵘ), the step is r(u)/(1 + e·d ln φ/d ln x).
        u += (latest.1 - elasticity * latest.0 - u - elasticity * at_u.ln_phi)
            / (1.0 + elasticity * at_u.elasticity);
        if !(u > lo && u < hi) {
            u = 0.5 * (lo + hi);
            if !(u > lo && u < hi) {
                break; // float resolution
            }
        }
        at_u = factor(u);
        let x = invert(slope * at_u.phi)?;
        let ln_x = x.ln();
        let r = ln_x - u;
        if r > 0.0 {
            lo = u;
            hi = hi.min(ln_x);
        } else {
            hi = u;
            lo = lo.max(ln_x);
        }
        if x > flat_to && x < max {
            // ln(time(x)·slope) = ln φ(x) − ln φ(eᵘ) ≈ r·d ln φ/d ln x.
            let residual = (r * at_u.elasticity).abs();
            if residual <= INVERSION_TOL {
                return Some(x);
            }
            if residual < best.0 {
                best = (residual, Some(x));
            }
        }
        let next = (-at_u.ln_phi, ln_x);
        let e = (next.1 - latest.1) / (next.0 - latest.0);
        if usable(&e) {
            elasticity = e;
        }
        latest = next;
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::check_increasing_time;
    use crate::partition::DEFAULT_QUERY_GAMMA;
    use crate::speed::{AnalyticSpeed, ConstantSpeed, PiecewiseLinearSpeed};

    fn measured() -> PiecewiseLinearCost {
        // A convex (sort-like) measured cost curve.
        PiecewiseLinearCost::new(vec![
            (100.0, 1.0),
            (1_000.0, 15.0),
            (100_000.0, 2_500.0),
            (1_000_000.0, 40_000.0),
        ])
        .unwrap()
    }

    #[test]
    fn interpolates_and_extends() {
        let f = measured();
        assert_eq!(f.time(0.0), 0.0);
        assert_eq!(f.time(50.0), 0.5, "origin segment");
        assert_eq!(f.time(100.0), 1.0);
        let mid = f.time(550.0);
        assert!(mid > 1.0 && mid < 15.0);
        assert!(f.time(2_000_000.0) > 40_000.0, "extends past the last knot");
        assert_eq!(f.max_size(), 1_000_000.0);
        assert!(check_increasing_time(&f, 1.0, 2e6, 300).is_ok());
    }

    #[test]
    fn closed_form_inverts_time() {
        let f = measured();
        for &x in &[10.0, 100.0, 550.0, 40_000.0, 999_999.0] {
            let t = f.time(x);
            let slope = 1.0 / t;
            let back = f.intersect_slope(slope).unwrap();
            assert!(
                (back - x).abs() <= 1e-9 * x,
                "round-trip at {x}: got {back}"
            );
        }
        // A makespan beyond the modelled domain clamps to max_size.
        assert_eq!(f.intersect_slope(1.0 / 1e9).unwrap(), 1_000_000.0);
        assert!(f.intersect_slope(f64::INFINITY).is_none());
    }

    #[test]
    fn rejects_invalid_knots() {
        assert!(PiecewiseLinearCost::new(vec![(1.0, 1.0)]).is_err());
        assert!(PiecewiseLinearCost::new(vec![(2.0, 1.0), (1.0, 2.0)]).is_err());
        assert!(
            PiecewiseLinearCost::new(vec![(1.0, 2.0), (2.0, 1.0)]).is_err(),
            "decreasing time violates the monotone invariant"
        );
        assert!(PiecewiseLinearCost::new(vec![(1.0, 0.0), (2.0, 1.0)]).is_err());
        assert!(PiecewiseLinearCost::new(vec![(-1.0, 1.0), (2.0, 2.0)]).is_err());
    }

    #[test]
    fn sort_cost_is_monotone_and_dominates_base() {
        let base = AnalyticSpeed::decreasing(200.0, 1e7, 1.5);
        let f = SortCost::new(&base);
        assert!(check_increasing_time(&f, 1.0, 1e6, 300).is_ok());
        for &x in &[10.0, 1e3, 1e5] {
            assert!(f.time(x) >= CostFunction::time(&base, x));
        }
        // Rate (slope of the origin line) must strictly decrease.
        assert!(f.rate(1e3) > f.rate(1e4));
        assert_eq!(f.time(0.0), 0.0);
    }

    #[test]
    fn query_cost_is_monotone_and_gamma_zero_is_identity() {
        let base = AnalyticSpeed::decreasing(200.0, 1e7, 1.5);
        let id = QueryCost::new(&base, 0.0);
        for &x in &[10.0, 1e3, 1e5] {
            assert_eq!(id.time(x).to_bits(), CostFunction::time(&base, x).to_bits());
        }
        let f = QueryCost::new(&base, 0.5);
        assert!(check_increasing_time(&f, 1.0, 1e6, 300).is_ok());
        assert!(f.time(1e4) > CostFunction::time(&base, 1e4));
        assert!(f.rate(1e3) > f.rate(1e4));
    }

    /// A Fig. 21-style speed curve ending in a zero-speed knot (infinite
    /// time at `max_size`), as the benchmark and serve clusters use.
    fn paging_knots() -> PiecewiseLinearSpeed {
        PiecewiseLinearSpeed::new(vec![
            (1e4, 120.0),
            (1e7, 116.0),
            (2e7, 108.0),
            (4e7, 24.0),
            (8e7, 0.0),
        ])
        .unwrap()
    }

    /// Closed-form bases of each kind the transforms invert through.
    fn with_closed_form_bases(check: impl Fn(&str, &dyn CostFunction)) {
        check("paging knots", &paging_knots());
        check("constant speed", &ConstantSpeed::new(250.0));
        check("cost knots", &measured());
    }

    /// `time(intersect_slope(1/t)) = t` to the inversion tolerance, over a
    /// log grid of abscissas inside the domain where φ > 1.
    fn assert_round_trips(name: &str, f: &dyn CostFunction, from: f64) {
        let to = f.max_size().min(1e12) * 0.999;
        let steps = 120;
        for k in 0..=steps {
            let x = from * (to / from).powf(k as f64 / steps as f64);
            let t = f.time(x);
            let back = f.intersect_slope(1.0 / t).expect("closed-form base");
            let rel = (f.time(back) / t - 1.0).abs();
            assert!(rel <= 1e-11, "{name}: x = {x}, back = {back}, time off by {rel:e}");
            assert!((back - x).abs() <= 1e-9 * x, "{name}: x = {x}, back = {back}");
        }
    }

    #[test]
    fn transforms_invert_their_time_in_closed_form() {
        with_closed_form_bases(|name, base| {
            assert_round_trips(name, &SortCost::new(base), 2.5);
            for gamma in [0.25, DEFAULT_QUERY_GAMMA, 1.0] {
                assert_round_trips(name, &QueryCost::new(base, gamma), 1.5);
            }
        });
    }

    #[test]
    fn flat_factor_region_returns_the_base_answer_bit_for_bit() {
        with_closed_form_bases(|name, base| {
            let bits = |x: Option<f64>| x.map(f64::to_bits);
            // φ = 1 for x ≤ 2 (sort) and x ≤ 1 (query).
            for x in [0.25, 0.9, 1.5, 1.9] {
                let slope = 1.0 / base.time(x);
                let expected = bits(base.intersect_slope(slope));
                assert_eq!(bits(SortCost::new(base).intersect_slope(slope)), expected, "{name}");
                if x < 1.0 {
                    let query = QueryCost::new(base, DEFAULT_QUERY_GAMMA);
                    assert_eq!(bits(query.intersect_slope(slope)), expected, "{name}");
                }
            }
            // γ = 0: φ = 1 everywhere.
            let identity = QueryCost::new(base, 0.0);
            for k in 0..60 {
                let slope = 10f64.powf(2.0 - 0.25 * k as f64);
                assert_eq!(
                    bits(identity.intersect_slope(slope)),
                    bits(base.intersect_slope(slope)),
                    "{name}: slope {slope}"
                );
            }
        });
    }

    #[test]
    fn transforms_clamp_to_max_size_past_the_modelled_domain() {
        let base = measured();
        let max = base.max_size();
        for f in [
            &SortCost::new(&base) as &dyn CostFunction,
            &QueryCost::new(&base, DEFAULT_QUERY_GAMMA),
        ] {
            let at_max = f.time(max);
            // Still below 1/slope at max_size: clamp, like the numeric path.
            assert_eq!(f.intersect_slope(0.5 / at_max), Some(max));
            assert_eq!(f.intersect_slope(1e-30), Some(max));
            // The base alone clamps here (its time at max_size is below
            // 1/slope), but the transformed time crosses first.
            let slope = 1.0 / (0.5 * (base.time(max) + at_max));
            assert_eq!(base.intersect_slope(slope), Some(max));
            let x = f.intersect_slope(slope).unwrap();
            assert!(x < max, "x = {x}");
            assert!((f.time(x) * slope - 1.0).abs() <= 1e-11);
        }
    }

    #[test]
    fn transforms_of_bases_without_closed_form_stay_numeric() {
        let base = AnalyticSpeed::decreasing(200.0, 1e7, 1.5);
        let sort = SortCost::new(&base);
        let query = QueryCost::new(&base, DEFAULT_QUERY_GAMMA);
        for slope in [1e-6, 1e-3, 1.0] {
            assert_eq!(sort.intersect_slope(slope), None);
            assert_eq!(query.intersect_slope(slope), None);
        }
        assert!(!sort.has_closed_form() && !query.has_closed_form());
        with_closed_form_bases(|name, base| {
            assert!(SortCost::new(base).has_closed_form(), "{name}");
            assert!(QueryCost::new(base, DEFAULT_QUERY_GAMMA).has_closed_form(), "{name}");
        });
    }

    #[test]
    #[should_panic(expected = "query cost exponent")]
    fn query_cost_rejects_negative_gamma() {
        let base = AnalyticSpeed::constant(10.0);
        let _ = QueryCost::new(&base, -0.5);
    }
}
