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
    segments: Segments,
}

impl<'a, F: CostFunction + ?Sized> SortCost<'a, F> {
    /// Wraps `inner` with the `x·log₂ x` comparison factor.
    ///
    /// Over a base with [`speed_knots`](CostFunction::speed_knots) this
    /// tabulates the transformed work at every knot, once, for
    /// [`intersect_slope`](CostFunction::intersect_slope).
    pub fn new(inner: &'a F) -> Self {
        Self { inner, segments: Segments::new(inner, SORT_FLAT_TO, sort_work) }
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

    /// The root of `base_time(x)·log₂ x = 1/slope`. Over a base with
    /// [`speed_knots`](CostFunction::speed_knots) it takes one search over
    /// the knots and a few Newton steps inside the segment that holds it;
    /// over any other base it is the fixed point of
    /// `x = base⁻¹(1/(slope·log₂ x))`, found in a few closed-form inversions
    /// of the base model. `None` when the base has no closed form.
    fn intersect_slope(&self, slope: f64) -> Option<f64> {
        if self.segments.is_tabulated() {
            return self.segments.intersect(self.inner, slope, sort_work);
        }
        // φ = log₂ x above two elements, with d ln φ / d ln x = 1 / ln x.
        let factor = |u: f64| {
            let phi = u * std::f64::consts::LOG2_E;
            Factor { phi, ln_phi: phi.ln(), elasticity: u.recip() }
        };
        invert_through_base(self.inner, slope, SORT_FLAT_TO, factor, |x| self.rate(x))
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
    segments: Segments,
}

impl<'a, F: CostFunction + ?Sized> QueryCost<'a, F> {
    /// Wraps `inner` with the `x^γ` superlinearity factor.
    ///
    /// Over a base with [`speed_knots`](CostFunction::speed_knots) this
    /// tabulates the transformed work at every knot, once, for
    /// [`intersect_slope`](CostFunction::intersect_slope).
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
        let segments = Segments::new(inner, query_flat_to(gamma), query_work(gamma));
        Self { inner, gamma, segments }
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

    /// The root of `base_time(x)·x^γ = 1/slope`. Over a base with
    /// [`speed_knots`](CostFunction::speed_knots) it takes one search over
    /// the knots and a few Newton steps inside the segment that holds it;
    /// over any other base it is the fixed point of
    /// `x = base⁻¹(1/(slope·x^γ))`, found in a few closed-form inversions of
    /// the base model. `None` when the base has no closed form. At γ = 0
    /// this is the base's answer bit for bit.
    fn intersect_slope(&self, slope: f64) -> Option<f64> {
        if self.segments.is_tabulated() {
            return self.segments.intersect(self.inner, slope, query_work(self.gamma));
        }
        // φ = x^γ above one element (nowhere for γ = 0), with
        // d ln φ / d ln x = γ.
        let factor = |u: f64| {
            let ln_phi = self.gamma * u;
            Factor { phi: ln_phi.exp(), ln_phi, elasticity: self.gamma }
        };
        let flat_to = query_flat_to(self.gamma);
        invert_through_base(self.inner, slope, flat_to, factor, |x| self.rate(x))
    }
}

/// Where the sort factor `log₂ max(x, 2)` stops being 1.
const SORT_FLAT_TO: f64 = 2.0;

/// `x·log₂ x` and its derivative, for `x ≥ 2`.
fn sort_work(x: f64) -> (f64, f64) {
    let log = x.log2();
    (x * log, log + std::f64::consts::LOG2_E)
}

/// Where the query factor `max(x, 1)^γ` stops being 1: nowhere for γ = 0.
fn query_flat_to(gamma: f64) -> f64 {
    if gamma == 0.0 {
        f64::INFINITY
    } else {
        1.0
    }
}

/// `x·x^γ` and its derivative, for `x ≥ 1`.
///
/// At γ = ½, the registry's `query` exponent, `x^γ` is taken as `sqrt(x)`,
/// which costs a fraction of `powf` and is within an ulp of it; the
/// search only needs its root to `10⁻¹²`.
fn query_work(gamma: f64) -> impl Fn(f64) -> (f64, f64) {
    move |x| {
        let phi = if gamma == 0.5 { x.sqrt() } else { x.powf(gamma) };
        (x * phi, (1.0 + gamma) * phi)
    }
}

/// Residual at which the transform intersections stop: the transformed
/// time of the returned abscissa is within this relative distance of
/// `1/slope`.
const INVERSION_TOL: f64 = 1e-12;

/// Iteration cap of the transform intersections. Newton steps converge in a
/// handful of evaluations; the cap only bounds the bisection fallback,
/// which reaches float resolution in its bracket well before it.
const INVERSION_MAX_STEPS: usize = 128;

/// One row of a transform's segment table: an abscissa, the base speed
/// there and the transformed work `x·φ(x)` there, so that the transformed
/// time is `work/speed`.
#[derive(Debug, Clone, Copy)]
struct Row {
    x: f64,
    speed: f64,
    work: f64,
}

/// The segment table of a transform `time(x) = base_time(x)·φ(x)` over a
/// base with [`speed_knots`](CostFunction::speed_knots), where the base
/// speed `s` is linear between neighbouring rows. Empty for every other
/// base, and when φ = 1 on the whole modelled domain.
///
/// The first row is φ's flat point (`x = 2` for sort, `x = 1` for query),
/// the others are the knots above it. Tabulating `x_k·φ(x_k)` costs one φ
/// evaluation per knot, once per transform instance, which is once per
/// machine per solve.
///
/// # Search
///
/// The root of `time(x) = t`, `t = 1/slope`, is the root of
/// `g(x) = x·φ(x) − t·s(x)`, which has the sign of `time(x) − t` wherever
/// `s > 0`. `time` increases, so one `partition_point` over the rows'
/// `g_k` finds the segment that holds the root; a zero-speed last knot
/// has `g_k = x_k·φ(x_k) > 0`, an infinite time. Inside the segment
/// `s(x) = α + β·x`, and `g` is convex, because `x·φ(x)` is. The root is
/// found by safeguarded Newton steps on `g`, bracketed by the segment's
/// ends and started at the regula-falsi point of the ends, which convexity
/// puts at or left of the root. A step that leaves the bracket bisects it.
/// Each step costs one φ evaluation. The search stops once
/// `|g(x)/(t·s(x))|`, the relative error of `time(x)`, is within `10⁻¹²`;
/// a segment end that already is, such as a knot whose own time is `t`,
/// is returned without a step.
///
/// # Clamping
///
/// Mirrors [`invert_through_base`]:
///
/// * where the root lies at or below the flat point, where φ = 1, the
///   base's own answer is returned bit for bit;
/// * the last knot, which is `max_size`, is returned when the transformed
///   time there is still below `1/slope`;
/// * a slope the base rejects is rejected.
#[derive(Debug)]
struct Segments(Vec<Row>);

impl Segments {
    /// Tabulates `x·φ(x)`, the first half of `work(x)`, at φ's flat point
    /// `flat_to` and at every speed knot of `base` above it.
    fn new<F: CostFunction + ?Sized>(
        base: &F,
        flat_to: f64,
        work: impl Fn(f64) -> (f64, f64),
    ) -> Self {
        let Some(knots) = base.speed_knots() else {
            return Self(Vec::new());
        };
        let k = knots.partition_point(|&(x, _)| x <= flat_to);
        if k == knots.len() {
            return Self(Vec::new());
        }
        // The base speed at the flat point, as the base interpolates it.
        let speed = match k {
            0 => knots[0].1,
            _ => {
                let ((xa, sa), (xb, sb)) = (knots[k - 1], knots[k]);
                sa + (flat_to - xa) / (xb - xa) * (sb - sa)
            }
        };
        let mut rows = Vec::with_capacity(knots.len() - k + 1);
        rows.push(Row { x: flat_to, speed, work: work(flat_to).0 });
        rows.extend(knots[k..].iter().map(|&(x, speed)| Row { x, speed, work: work(x).0 }));
        Self(rows)
    }

    fn is_tabulated(&self) -> bool {
        !self.0.is_empty()
    }

    /// The root of `time(x) = 1/slope` (see [`Segments`]); `work(x)` is
    /// `(x·φ(x), d(x·φ(x))/dx)` above the flat point.
    fn intersect<F: CostFunction + ?Sized>(
        &self,
        base: &F,
        slope: f64,
        work: impl Fn(f64) -> (f64, f64),
    ) -> Option<f64> {
        let rows = &self.0;
        let t = 1.0 / slope;
        let g = |r: &Row| r.work - t * r.speed;
        // Also 0 for a NaN, infinite or non-positive slope, which the base
        // then rejects.
        let k = rows.partition_point(|r| g(r) < 0.0);
        if k == 0 {
            return base.intersect_slope(slope).filter(|x| (0.0..=f64::MAX).contains(x));
        }
        let Some(&b) = rows.get(k) else {
            return Some(rows[rows.len() - 1].x);
        };
        let a = rows[k - 1];
        let (g_a, g_b) = (g(&a), g(&b));
        for (end, g_end) in [(a, g_a), (b, g_b)] {
            if g_end.abs() <= INVERSION_TOL * t * end.speed {
                return Some(end.x);
            }
        }
        let beta = (b.speed - a.speed) / (b.x - a.x);
        let (mut lo, mut hi) = (a.x, b.x);
        let mut x = lo + (hi - lo) * (g_a / (g_a - g_b));
        // The candidate with the smallest residual so far.
        let mut best = (f64::INFINITY, None);
        for _ in 0..INVERSION_MAX_STEPS {
            if !(x > lo && x < hi) {
                x = 0.5 * (lo + hi);
                if !(x > lo && x < hi) {
                    break; // float resolution
                }
            }
            let (w, dw) = work(x);
            let t_s = t * (a.speed + beta * (x - a.x));
            let g_x = w - t_s;
            let residual = (g_x / t_s).abs();
            if residual <= INVERSION_TOL {
                return Some(x);
            }
            if residual < best.0 {
                best = (residual, Some(x));
            }
            if g_x < 0.0 {
                lo = x;
            } else {
                hi = x;
            }
            x -= g_x / (dw - t * beta);
        }
        best.1
    }
}

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
/// The transforms use it over bases without speed knots (constant speeds,
/// scaled speeds, measured cost knots, opaque wrappers). Over speed knots
/// [`Segments`] is cheaper; the closed-form differential keeps this path as
/// its reference through a view that hides the knots.
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

    /// Speed knots from below φ's flat point (x₀ ≤ 1), with rising-speed
    /// segments and a zero-speed last knot.
    fn low_knots() -> PiecewiseLinearSpeed {
        PiecewiseLinearSpeed::new(vec![
            (0.5, 40.0),
            (2.0, 60.0),
            (1e3, 200.0),
            (1e5, 150.0),
            (1e6, 0.0),
        ])
        .unwrap()
    }

    /// Speed knots starting at query's flat point, rising, and still
    /// running at the last knot, so the transforms can clamp there.
    fn rising_knots() -> PiecewiseLinearSpeed {
        PiecewiseLinearSpeed::new(vec![(1.0, 50.0), (1e4, 80.0), (1e6, 30.0)]).unwrap()
    }

    /// Closed-form bases of each kind the transforms invert through.
    fn with_closed_form_bases(check: impl Fn(&str, &dyn CostFunction)) {
        check("paging knots", &paging_knots());
        check("low knots", &low_knots());
        check("rising knots", &rising_knots());
        check("constant speed", &ConstantSpeed::new(250.0));
        check("cost knots", &measured());
    }

    /// `time(intersect_slope(1/t)) = t` to the inversion tolerance, over a
    /// log grid of abscissas inside the domain where φ > 1 and at every
    /// knot of `knots` there, where the root is the knot itself.
    fn assert_round_trips(name: &str, f: &dyn CostFunction, from: f64, knots: &[(f64, f64)]) {
        let to = f.max_size().min(1e12) * 0.999;
        let steps = 120;
        let grid = (0..=steps).map(|k| from * (to / from).powf(k as f64 / steps as f64));
        let at_knots = knots.iter().map(|&(x, _)| x).filter(|&x| x >= from);
        for x in grid.chain(at_knots) {
            let t = f.time(x);
            if !t.is_finite() {
                continue; // a zero-speed knot
            }
            let back = f.intersect_slope(1.0 / t).expect("closed-form base");
            let rel = (f.time(back) / t - 1.0).abs();
            assert!(rel <= 1e-11, "{name}: x = {x}, back = {back}, time off by {rel:e}");
            assert!((back - x).abs() <= 1e-9 * x, "{name}: x = {x}, back = {back}");
        }
    }

    #[test]
    fn transforms_invert_their_time_in_closed_form() {
        with_closed_form_bases(|name, base| {
            let knots = base.speed_knots().unwrap_or_default();
            assert_round_trips(name, &SortCost::new(base), 2.5, knots);
            for gamma in [0.25, DEFAULT_QUERY_GAMMA, 1.0] {
                assert_round_trips(name, &QueryCost::new(base, gamma), 1.5, knots);
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
        let (cost_knots, speed_knots) = (measured(), rising_knots());
        for base in [&cost_knots as &dyn CostFunction, &speed_knots] {
            clamps_to_max_size(base);
        }
    }

    fn clamps_to_max_size(base: &dyn CostFunction) {
        let max = base.max_size();
        for f in [
            &SortCost::new(base) as &dyn CostFunction,
            &QueryCost::new(base, DEFAULT_QUERY_GAMMA),
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
        with_closed_form_bases(|name, base| {
            assert!(SortCost::new(base).intersect_slope(1.0).is_some(), "{name}");
            let query = QueryCost::new(base, DEFAULT_QUERY_GAMMA);
            assert!(query.intersect_slope(1.0).is_some(), "{name}");
        });
    }

    #[test]
    #[should_panic(expected = "query cost exponent")]
    fn query_cost_rejects_negative_gamma() {
        let base = AnalyticSpeed::constant(10.0);
        let _ = QueryCost::new(&base, -0.5);
    }
}
