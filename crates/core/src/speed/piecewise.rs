//! Piece-wise linear speed functions — the representation the paper builds
//! from a small number of experimental points (Fig. 14).

use super::function::SpeedFunction;
use crate::error::{Error, Result};

/// A speed function interpolated linearly between experimentally obtained
/// points `(x_k, s_k)`.
///
/// Outside the measured range the function is clamped: `s(x) = s_0` for
/// `x < x_0` and `s(x) = s_last` for `x > x_last`. The paper's §3.1
/// procedure always anchors the right end at a size `b` where the speed is
/// practically zero, so the clamp is benign in practice.
///
/// # Shape validity
///
/// On a linear segment the ratio `g(x) = s(x)/x = m + q/x` is monotone with
/// the sign of `−q` (where `q` is the segment's back-extrapolated intercept
/// at `x = 0`), so `g` is strictly decreasing over the whole function **iff
/// it is strictly decreasing at the knots**. [`PiecewiseLinearSpeed::new`]
/// enforces exactly that, which is the paper's requirement that any line
/// through the origin cuts the graph at most once.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinearSpeed {
    /// Knots sorted by strictly increasing abscissa.
    points: Vec<(f64, f64)>,
}

impl PiecewiseLinearSpeed {
    /// Builds a piece-wise linear speed function from `(size, speed)` knots.
    ///
    /// Requirements (checked, violations return
    /// [`Error::InvalidSpeedFunction`] with processor index `usize::MAX`
    /// since the function is not yet attached to a processor):
    ///
    /// * at least two knots;
    /// * abscissas strictly increasing and positive;
    /// * speeds finite, non-negative, positive except possibly at the last
    ///   knot (the paper sets the speed at `b` = memory+swap exhaustion to
    ///   zero);
    /// * `s_k/x_k` strictly decreasing (single-intersection property).
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self> {
        const P: usize = usize::MAX;
        if points.len() < 2 {
            return Err(Error::InvalidSpeedFunction {
                processor: P,
                reason: "piece-wise linear model needs at least two knots",
            });
        }
        for (i, &(x, s)) in points.iter().enumerate() {
            if !(x.is_finite() && x > 0.0) {
                return Err(Error::InvalidSpeedFunction {
                    processor: P,
                    reason: "knot abscissas must be positive and finite",
                });
            }
            if !(s.is_finite() && s >= 0.0) {
                return Err(Error::InvalidSpeedFunction {
                    processor: P,
                    reason: "knot speeds must be non-negative and finite",
                });
            }
            if s == 0.0 && i + 1 != points.len() {
                return Err(Error::InvalidSpeedFunction {
                    processor: P,
                    reason: "only the final knot may have zero speed",
                });
            }
        }
        for w in points.windows(2) {
            let (x0, s0) = w[0];
            let (x1, s1) = w[1];
            if x1 <= x0 {
                return Err(Error::InvalidSpeedFunction {
                    processor: P,
                    reason: "knot abscissas must be strictly increasing",
                });
            }
            if s1 / x1 >= s0 / x0 {
                return Err(Error::InvalidSpeedFunction {
                    processor: P,
                    reason: "s(x)/x must be strictly decreasing at knots (single-intersection property)",
                });
            }
        }
        Ok(Self { points })
    }

    /// The interpolation knots, sorted by size.
    pub fn knots(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of experimental points the model is built from.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the model has no knots (never true for a constructed model).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

impl SpeedFunction for PiecewiseLinearSpeed {
    fn speed(&self, x: f64) -> f64 {
        let pts = &self.points;
        let first = pts[0];
        let last = pts[pts.len() - 1];
        if x <= first.0 {
            return first.1;
        }
        if x >= last.0 {
            return last.1;
        }
        // Binary search for the segment containing x.
        let idx = pts.partition_point(|&(xk, _)| xk < x);
        let (x0, s0) = pts[idx - 1];
        let (x1, s1) = pts[idx];
        let t = (x - x0) / (x1 - x0);
        s0 + t * (s1 - s0)
    }

    fn max_size(&self) -> f64 {
        self.points[self.points.len() - 1].0
    }

    /// Closed-form intersection with the origin line `y = slope·x`.
    ///
    /// `g(x) = s(x)/x` is strictly decreasing (validated at construction),
    /// so a binary search over the knots finds the segment where `g`
    /// crosses `slope`, and within a linear segment the crossing is the
    /// root of a linear equation. Mirrors the clamping semantics of
    /// [`crate::geometry::intersect_origin_line`]: `0` when the line is
    /// steeper than the whole graph, `max_size` when it never catches the
    /// graph inside the modelled domain.
    fn intersect_slope(&self, slope: f64) -> Option<f64> {
        if !(slope.is_finite() && slope > 0.0) {
            return None;
        }
        let pts = &self.points;
        let (x0, s0) = pts[0];
        let (x_last, s_last) = pts[pts.len() - 1];
        // Left of the first knot the speed clamps to s0, so g(x) = s0/x.
        // If even the first knot's g is below the slope, the intersection
        // lies in the clamp region at x = s0/slope (or at the origin).
        if s0 / x0 <= slope {
            return Some(s0 / slope);
        }
        // The line never catches the graph inside the modelled domain.
        if s_last / x_last >= slope {
            return Some(x_last);
        }
        // Binary search the knots for the first k with g_k ≤ slope; the
        // crossing lies on the segment (k-1, k). d_k = s_k − slope·x_k
        // shares the sign of g_k − slope. The tests above divide where this
        // one multiplies, so within rounding of an end knot's own slope they
        // can disagree; the crossing is then that knot's clamp answer.
        let k = pts.partition_point(|&(xk, sk)| sk - slope * xk > 0.0);
        if k == 0 {
            return Some(s0 / slope);
        }
        if k == pts.len() {
            return Some(x_last);
        }
        let (xa, sa) = pts[k - 1];
        let (xb, sb) = pts[k];
        let da = sa - slope * xa; // > 0
        let db = sb - slope * xb; // ≤ 0
        let t = da / (da - db);
        Some(xa + t * (xb - xa))
    }

    fn speed_knots(&self) -> Option<&[(f64, f64)]> {
        Some(&self.points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speed::function::check_single_intersection;

    fn simple() -> PiecewiseLinearSpeed {
        PiecewiseLinearSpeed::new(vec![(100.0, 200.0), (1e6, 180.0), (1e8, 0.0)]).unwrap()
    }

    #[test]
    fn interpolates_between_knots() {
        let f = simple();
        let mid = f.speed((100.0 + 1e6) / 2.0);
        assert!(mid < 200.0 && mid > 180.0);
        assert!((f.speed(1e6) - 180.0).abs() < 1e-12);
    }

    #[test]
    fn clamps_outside_range() {
        let f = simple();
        assert_eq!(f.speed(1.0), 200.0);
        assert_eq!(f.speed(1e9), 0.0);
        assert_eq!(f.max_size(), 1e8);
    }

    #[test]
    fn validated_model_passes_single_intersection() {
        let f = simple();
        assert!(check_single_intersection(&f, 1.0, 9e7, 500).is_ok());
    }

    #[test]
    fn rejects_single_knot() {
        assert!(PiecewiseLinearSpeed::new(vec![(1.0, 1.0)]).is_err());
    }

    #[test]
    fn rejects_non_increasing_abscissas() {
        assert!(PiecewiseLinearSpeed::new(vec![(10.0, 5.0), (10.0, 4.0)]).is_err());
        assert!(PiecewiseLinearSpeed::new(vec![(10.0, 5.0), (5.0, 4.0)]).is_err());
    }

    #[test]
    fn rejects_shape_violation() {
        // s/x increasing between the knots: (1,1) has g=1, (10,20) has g=2.
        let r = PiecewiseLinearSpeed::new(vec![(1.0, 1.0), (10.0, 20.0)]);
        assert!(matches!(r, Err(Error::InvalidSpeedFunction { .. })));
    }

    #[test]
    fn rejects_interior_zero_speed() {
        let r = PiecewiseLinearSpeed::new(vec![(1.0, 1.0), (2.0, 0.0), (3.0, 0.0)]);
        assert!(r.is_err());
    }

    #[test]
    fn accepts_rising_segment_with_decreasing_ratio() {
        // Rising speed but sub-proportionally: g decreases 10 → 5.5.
        let f = PiecewiseLinearSpeed::new(vec![(1.0, 10.0), (2.0, 11.0)]).unwrap();
        assert!(f.speed(1.5) > 10.0);
        assert!(check_single_intersection(&f, 0.5, 3.0, 100).is_ok());
    }

    #[test]
    fn slopes_within_rounding_of_an_end_knot_clamp_there() {
        let f = PiecewiseLinearSpeed::new(vec![
            (0.44738391833253743, 94.82885455442398),
            (69.37145658468398, 133.17937969661835),
            (1863.4584089134073, 94.78684491901093),
            (148726.1256671814, 1e-3),
        ])
        .unwrap();
        let (first, last) = (f.knots()[0], f.knots()[3]);
        for (x, s) in [first, last] {
            let g = s / x;
            for ulps in -4i64..=4 {
                let slope = f64::from_bits(g.to_bits().wrapping_add_signed(ulps));
                let at = f.intersect_slope(slope).unwrap();
                assert!((at - x).abs() <= 1e-12 * x, "slope {slope:e}: {at} vs knot {x}");
            }
        }
    }

    #[test]
    fn binary_search_segment_lookup_matches_linear_scan() {
        let knots: Vec<(f64, f64)> =
            (1..=50).map(|k| (k as f64 * 1000.0, 500.0 / k as f64)).collect();
        let f = PiecewiseLinearSpeed::new(knots.clone()).unwrap();
        for probe in [1500.0, 10_250.0, 49_999.0, 25_000.0] {
            // Reference: linear scan.
            let mut expected = knots[0].1;
            for w in knots.windows(2) {
                if probe >= w[0].0 && probe <= w[1].0 {
                    let t = (probe - w[0].0) / (w[1].0 - w[0].0);
                    expected = w[0].1 + t * (w[1].1 - w[0].1);
                }
            }
            assert!((f.speed(probe) - expected).abs() < 1e-9);
        }
    }
}
