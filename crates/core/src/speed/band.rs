//! Speed bands: representing workload-fluctuation envelopes.
//!
//! The paper (§1, Fig. 2) observes that a computer integrated into a common
//! network experiences constant stochastic workload fluctuations, so the
//! natural representation of its performance is a **band of curves** rather
//! than a single curve: the width of the band characterises the fluctuation
//! level (≈40 % of peak speed for small problems on highly integrated
//! machines, declining close-to-linearly to ≈5-7 % at the largest solvable
//! sizes), and additional heavy load *shifts* the band down at constant
//! width.

use super::function::SpeedFunction;
use super::piecewise::PiecewiseLinearSpeed;
use crate::error::{Error, Result};

/// One knot of a piece-wise linear speed band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandPoint {
    /// Problem size.
    pub x: f64,
    /// Lower edge of the band at `x` (speed units).
    pub lo: f64,
    /// Upper edge of the band at `x` (speed units).
    pub hi: f64,
}

/// How the relative band width varies with problem size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WidthLaw {
    /// Constant relative width (fraction of the mid speed), e.g. `0.05` for
    /// the ±5 % acceptance band of the model-building procedure, or the
    /// 5-7 % the paper reports for computers with low network integration.
    Constant(f64),
    /// Width declining with problem size, from `w0` at tiny sizes towards
    /// `w_inf` asymptotically, with `x_scale` controlling the decline:
    /// `w(x) = w_inf + (w0 − w_inf) · x_scale / (x + x_scale)`.
    ///
    /// Models the paper's observation that fluctuations are ≈40 % for small
    /// problem sizes and ≈6 % for the largest solvable ones, with influence
    /// declining as the execution time grows.
    Declining {
        /// Relative width at `x → 0`.
        w0: f64,
        /// Relative width at `x → ∞`.
        w_inf: f64,
        /// Size at which the excess width has halved.
        x_scale: f64,
    },
}

impl WidthLaw {
    /// Relative band width (fraction of mid speed) at problem size `x`.
    pub fn width_at(&self, x: f64) -> f64 {
        match *self {
            WidthLaw::Constant(w) => w,
            WidthLaw::Declining { w0, w_inf, x_scale } => {
                w_inf + (w0 - w_inf) * x_scale / (x.max(0.0) + x_scale)
            }
        }
    }

    /// Validates the law parameters.
    pub fn validate(&self) -> Result<()> {
        let ok = match *self {
            WidthLaw::Constant(w) => w.is_finite() && (0.0..1.0).contains(&w),
            WidthLaw::Declining { w0, w_inf, x_scale } => {
                w0.is_finite()
                    && w_inf.is_finite()
                    && x_scale.is_finite()
                    && (0.0..1.0).contains(&w0)
                    && (0.0..1.0).contains(&w_inf)
                    && w_inf <= w0
                    && x_scale > 0.0
            }
        };
        if ok {
            Ok(())
        } else {
            Err(Error::InvalidParameter("width law parameters out of range"))
        }
    }
}

/// A piece-wise linear band of speed curves.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedBand {
    knots: Vec<BandPoint>,
}

impl SpeedBand {
    /// Builds a band from explicit knots (strictly increasing `x`,
    /// `0 ≤ lo ≤ hi`).
    pub fn from_points(knots: Vec<BandPoint>) -> Result<Self> {
        if knots.len() < 2 {
            return Err(Error::InvalidParameter("band needs at least two knots"));
        }
        for k in &knots {
            if !(k.x.is_finite() && k.x > 0.0 && k.lo.is_finite() && k.hi.is_finite()) {
                return Err(Error::InvalidParameter("band knots must be finite and positive-x"));
            }
            if k.lo < 0.0 || k.hi < k.lo {
                return Err(Error::InvalidParameter("band requires 0 ≤ lo ≤ hi"));
            }
        }
        if knots.windows(2).any(|w| w[1].x <= w[0].x) {
            return Err(Error::InvalidParameter("band abscissas must be strictly increasing"));
        }
        Ok(Self { knots })
    }

    /// Samples a band around `mid` using a width law: at each sample size
    /// the band is `mid(x)·(1 ± w(x)/2)` — the paper quotes band widths as
    /// a *total* percentage of the maximum speed, so half lies above and
    /// half below the mid curve.
    pub fn around<F: SpeedFunction>(mid: &F, law: WidthLaw, sizes: &[f64]) -> Result<Self> {
        law.validate()?;
        if sizes.len() < 2 {
            return Err(Error::InvalidParameter("need at least two sample sizes"));
        }
        let knots = sizes
            .iter()
            .map(|&x| {
                let s = mid.speed(x);
                let half = law.width_at(x) / 2.0;
                BandPoint { x, lo: s * (1.0 - half), hi: s * (1.0 + half) }
            })
            .collect();
        Self::from_points(knots)
    }

    /// The band knots.
    pub fn knots(&self) -> &[BandPoint] {
        &self.knots
    }

    fn interp(&self, x: f64, pick: impl Fn(&BandPoint) -> f64) -> f64 {
        let first = &self.knots[0];
        let last = &self.knots[self.knots.len() - 1];
        if x <= first.x {
            return pick(first);
        }
        if x >= last.x {
            return pick(last);
        }
        let idx = self.knots.partition_point(|k| k.x < x);
        let a = &self.knots[idx - 1];
        let b = &self.knots[idx];
        let t = (x - a.x) / (b.x - a.x);
        pick(a) + t * (pick(b) - pick(a))
    }

    /// Lower edge of the band at `x`.
    pub fn lower(&self, x: f64) -> f64 {
        self.interp(x, |k| k.lo)
    }

    /// Upper edge of the band at `x`.
    pub fn upper(&self, x: f64) -> f64 {
        self.interp(x, |k| k.hi)
    }

    /// Mid curve of the band at `x`.
    pub fn mid(&self, x: f64) -> f64 {
        self.interp(x, |k| (k.lo + k.hi) / 2.0)
    }

    /// Reduces the band to its mid curve as a piece-wise linear speed
    /// function — the representation the partitioning algorithms consume
    /// when fluctuations are moderate (paper §1: "representation of the
    /// dependence of the speed on the problem size by a single curve is
    /// reasonable for computers with moderate fluctuations").
    pub fn midline(&self) -> Result<PiecewiseLinearSpeed> {
        PiecewiseLinearSpeed::new(
            self.knots.iter().map(|k| (k.x, (k.lo + k.hi) / 2.0)).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speed::analytic::AnalyticSpeed;

    fn sizes() -> Vec<f64> {
        (1..=20).map(|k| k as f64 * 1e5).collect()
    }

    /// Relative band width at `x`: `(hi − lo)/mid`.
    fn relative_width(band: &SpeedBand, x: f64) -> f64 {
        (band.upper(x) - band.lower(x)) / band.mid(x)
    }

    #[test]
    fn width_law_declines_towards_asymptote() {
        let law = WidthLaw::Declining { w0: 0.40, w_inf: 0.06, x_scale: 1e5 };
        assert!((law.width_at(0.0) - 0.40).abs() < 1e-12);
        assert!(law.width_at(1e5) < 0.40);
        assert!(law.width_at(1e9) < 0.065, "approaches w_inf");
        assert!(law.width_at(1e9) >= 0.06);
        law.validate().unwrap();
    }

    #[test]
    fn width_law_validation_rejects_bad_params() {
        assert!(WidthLaw::Constant(1.5).validate().is_err());
        assert!(WidthLaw::Constant(-0.1).validate().is_err());
        assert!(
            WidthLaw::Declining { w0: 0.05, w_inf: 0.4, x_scale: 1.0 }.validate().is_err(),
            "w_inf must not exceed w0"
        );
        assert!(WidthLaw::Declining { w0: 0.4, w_inf: 0.05, x_scale: 0.0 }.validate().is_err());
    }

    #[test]
    fn band_around_function_tracks_mid_curve() {
        let f = AnalyticSpeed::paging(200.0, 1e6, 2.0);
        let band =
            SpeedBand::around(&f, WidthLaw::Constant(0.10), &sizes()).unwrap();
        let x = 3.7e5;
        assert!((band.mid(x) - f.speed(x)).abs() / f.speed(x) < 0.01);
        assert!(band.lower(x) < band.mid(x));
        assert!(band.upper(x) > band.mid(x));
        assert!((relative_width(&band, x) - 0.10).abs() < 0.01);
    }

    #[test]
    fn declining_band_narrows_with_size() {
        let f = AnalyticSpeed::constant(100.0);
        let law = WidthLaw::Declining { w0: 0.40, w_inf: 0.06, x_scale: 2e5 };
        let band = SpeedBand::around(&f, law, &sizes()).unwrap();
        assert!(relative_width(&band, 1e5) > relative_width(&band, 1.9e6));
    }

    #[test]
    fn midline_is_valid_speed_function() {
        let f = AnalyticSpeed::decreasing(150.0, 1e6, 2.0);
        let band = SpeedBand::around(&f, WidthLaw::Constant(0.05), &sizes()).unwrap();
        let mid = band.midline().unwrap();
        use crate::speed::function::SpeedFunction as _;
        assert!((mid.speed(5e5) - f.speed(5e5)).abs() / f.speed(5e5) < 0.05);
    }

    #[test]
    fn from_points_validates() {
        assert!(SpeedBand::from_points(vec![]).is_err());
        let bad = vec![
            BandPoint { x: 1.0, lo: 5.0, hi: 4.0 },
            BandPoint { x: 2.0, lo: 1.0, hi: 2.0 },
        ];
        assert!(SpeedBand::from_points(bad).is_err(), "hi < lo rejected");
        let non_monotone = vec![
            BandPoint { x: 2.0, lo: 1.0, hi: 2.0 },
            BandPoint { x: 1.0, lo: 1.0, hi: 2.0 },
        ];
        assert!(SpeedBand::from_points(non_monotone).is_err());
    }

    #[test]
    fn clamped_outside_sampled_range() {
        let f = AnalyticSpeed::constant(100.0);
        let band = SpeedBand::around(&f, WidthLaw::Constant(0.10), &sizes()).unwrap();
        assert_eq!(band.mid(1.0), band.mid(1e5));
        assert_eq!(band.mid(1e9), band.mid(2e6));
    }
}
