//! Detection of the two initial lines bounding the optimal solution
//! (paper Fig. 18).
//!
//! Each processor is probed at the homogeneous share `n/p` (its
//! [`CostFunction::throughput`], i.e. its speed for speed-backed models).
//! The line through `(n/p, max_i s_i(n/p))` is the steeper initial bound — its
//! intersections with all graphs lie at abscissas ≤ `n/p`, so their sum is
//! ≤ `n`. Symmetrically the line through the minimum speed is the shallower
//! bound with sum ≥ `n`. If the probed speeds degenerate (e.g. the share
//! exceeds some machine's memory so its speed is zero), the bracket is
//! expanded geometrically until it provably contains the optimum.

use crate::error::{Error, Result};
use crate::geometry::{intersections_at_slope, total_elements_at_slope};
use crate::cost::CostFunction;

/// A slope interval known to contain the optimally sloped line.
///
/// Invariants: `steep > shallow > 0`, total elements at `steep` ≤ `n` ≤
/// total elements at `shallow` (the total is strictly decreasing in the
/// slope).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlopeBracket {
    /// The shallower bound (larger intersection abscissas, sum ≥ n).
    pub shallow: f64,
    /// The steeper bound (smaller intersection abscissas, sum ≤ n).
    pub steep: f64,
}

impl SlopeBracket {
    /// Width of the bracket in slope units.
    pub fn width(&self) -> f64 {
        self.steep - self.shallow
    }
}

/// A [`SlopeBracket`]'s per-machine intersection pair: the abscissas at the
/// steep bound (`lo`, summing ≤ n) and at the shallow bound (`hi`, summing
/// ≥ n).
pub type BracketProbes = (Vec<f64>, Vec<f64>);

/// The paper's initial-line construction: probe every processor at `n/p`
/// and return the slopes of the lines through the maximal and minimal
/// probed speeds. Returns `None` if all probed speeds are zero.
pub fn initial_slopes<F: CostFunction>(n: u64, funcs: &[F]) -> Option<(f64, f64)> {
    let p = funcs.len() as f64;
    let share = (n as f64 / p).max(1.0);
    let speeds: Vec<f64> = funcs.iter().map(|f| f.throughput(share).max(0.0)).collect();
    let max = speeds.iter().cloned().fold(0.0, f64::max);
    let positive_min =
        speeds.iter().cloned().filter(|&s| s > 0.0).fold(f64::INFINITY, f64::min);
    if max <= 0.0 {
        return None;
    }
    Some((positive_min / share, max / share))
}

/// Produces a valid [`SlopeBracket`] for the problem, starting from the
/// paper's initial lines and expanding geometrically when they fail to
/// bracket (possible when `n/p` probes hit degenerate regions of the
/// models), and how many times it was widened (see
/// [`crate::trace::Trace::bracket_probes`]).
///
/// # Errors
///
/// [`Error::InsufficientCapacity`] if even an arbitrarily shallow line
/// cannot reach `n` total elements (all models bounded and their combined
/// capacity is below `n`).
pub fn bracket_slopes<F: CostFunction>(n: u64, funcs: &[F]) -> Result<(SlopeBracket, usize)> {
    debug_assert!(n > 0 && !funcs.is_empty());
    let target = n as f64;

    // A NaN or infinite probed speed would otherwise slip through the
    // recovery guards below (`steep * 1e-3` and `shallow * 2.0` both
    // propagate NaN, and an infinite steep spins the expansion loop), so
    // reject malformed models before any slope arithmetic.
    let share = (target / funcs.len() as f64).max(1.0);
    for (i, f) in funcs.iter().enumerate() {
        if !f.throughput(share).is_finite() {
            return Err(Error::InvalidSpeedFunction {
                processor: i,
                reason: "non-finite throughput at the n/p probe",
            });
        }
    }

    let (mut shallow, mut steep) = match initial_slopes(n, funcs) {
        Some((lo, hi)) => (lo, hi),
        None => {
            // Every probe returned zero speed; fall back to a generic guess
            // around one element per unit time.
            (1e-12, 1e3)
        }
    };
    if shallow <= 0.0 || shallow.is_nan() {
        shallow = steep * 1e-3;
    }
    if steep <= shallow {
        steep = shallow * 2.0;
    }

    // Ensure the steep side undershoots the target. A model whose totals
    // never fall below the target would drive `steep *= 4.0` into overflow;
    // treat that as the model violation it is rather than spinning until
    // the step guard reports a misleading NoConvergence.
    let mut steep_widenings = 0;
    while total_elements_at_slope(funcs, steep) > target {
        steep *= 4.0;
        steep_widenings += 1;
        if !steep.is_finite() {
            return Err(Error::InvalidSpeedFunction {
                processor: 0,
                reason: "element total never undershoots the target at any finite slope",
            });
        }
        if steep_widenings > 400 {
            return Err(Error::NoConvergence {
                algorithm: "bracket_slopes(steep)",
                steps: steep_widenings,
            });
        }
    }
    // Ensure the shallow side overshoots the target; if the models are
    // bounded this may be impossible.
    let mut shallow_widenings = 0;
    while total_elements_at_slope(funcs, shallow) < target {
        shallow /= 4.0;
        shallow_widenings += 1;
        if shallow_widenings > 400 || shallow <= 0.0 {
            let capacity: f64 = funcs.iter().map(|f| f.max_size().min(1e18)).sum();
            return Err(Error::InsufficientCapacity {
                requested: n,
                available: capacity.min(u64::MAX as f64) as u64,
            });
        }
    }
    Ok((SlopeBracket { shallow, steep }, steep_widenings + shallow_widenings))
}

/// Seeds a [`SlopeBracket`] from a known-good slope — the warm-start path —
/// and returns it with its [`BracketProbes`], the intersections evaluated
/// at the two accepted bounds, so the search can start without re-sweeping
/// them, and how many times the ε-bracket was widened (see
/// [`crate::trace::Trace::bracket_probes`]).
///
/// The interval starts at `[slope·(1−ε), slope·(1+ε)]` (ε = 1e-3) and each
/// failing side is widened by *squaring* its relative offset factor
/// (`1±ε → (1±ε)² → …`), i.e. the offset doubles in log-slope space. A
/// seed that misses the optimum by a hair therefore costs one extra probe
/// and keeps the bracket within a few ε of the seed — halving the slope
/// outright would hand the search a bracket ~500× wider than the miss —
/// while a seed that is orders of magnitude off is still covered: k
/// squarings reach a relative offset of `ε·2^k`. Callers should fall back
/// to [`bracket_slopes`] on any error: the seed slope may simply be too
/// far from the new optimum.
///
/// # Errors
///
/// [`Error::NoConvergence`] if `slope` is non-positive or non-finite, if a
/// total evaluates to a non-finite value, or if either side fails to
/// bracket within its widening budget.
pub fn bracket_from_slope<F: CostFunction>(
    n: u64,
    funcs: &[F],
    slope: f64,
) -> Result<(SlopeBracket, BracketProbes, usize)> {
    debug_assert!(n > 0 && !funcs.is_empty());
    const EPSILON: f64 = 1e-3;
    const WIDEN_BUDGET: usize = 64;
    if !slope.is_finite() || slope <= 0.0 {
        return Err(Error::NoConvergence { algorithm: "bracket_from_slope(seed)", steps: 0 });
    }
    let target = n as f64;
    // Squares one side's offset factor until its total lands on its side
    // of the target: `le` for the steep side, `ge` for the shallow one.
    let widen = |mut factor: f64,
                 algorithm: &'static str,
                 lands: fn(&f64, &f64) -> bool|
     -> Result<(f64, Vec<f64>, usize)> {
        let mut steps = 0;
        loop {
            let bound = slope * factor;
            let xs = intersections_at_slope(funcs, bound);
            let total: f64 = xs.iter().sum();
            if !total.is_finite() {
                return Err(Error::NoConvergence { algorithm, steps });
            }
            if lands(&total, &target) {
                return Ok((bound, xs, steps));
            }
            factor *= factor;
            steps += 1;
            let next = slope * factor;
            if steps > WIDEN_BUDGET || !next.is_finite() || next <= 0.0 {
                return Err(Error::NoConvergence { algorithm, steps });
            }
        }
    };
    let (steep, lo_x, steep_widenings) =
        widen(1.0 + EPSILON, "bracket_from_slope(steep)", f64::le)?;
    let (shallow, hi_x, shallow_widenings) =
        widen(1.0 - EPSILON, "bracket_from_slope(shallow)", f64::ge)?;
    Ok((SlopeBracket { shallow, steep }, (lo_x, hi_x), steep_widenings + shallow_widenings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speed::{AnalyticSpeed, ConstantSpeed, PiecewiseLinearSpeed};

    #[test]
    fn initial_lines_bracket_for_constant_speeds() {
        let funcs = vec![ConstantSpeed::new(100.0), ConstantSpeed::new(50.0)];
        let (lo, hi) = initial_slopes(300, &funcs).unwrap();
        // share = 150; lines through (150, 100) and (150, 50).
        assert!((hi - 100.0 / 150.0).abs() < 1e-12);
        assert!((lo - 50.0 / 150.0).abs() < 1e-12);
        assert!(total_elements_at_slope(&funcs, hi) <= 300.0 + 1e-6);
        assert!(total_elements_at_slope(&funcs, lo) >= 300.0 - 1e-6);
    }

    #[test]
    fn bracket_is_valid_for_mixed_shapes() {
        let funcs = vec![
            AnalyticSpeed::decreasing(200.0, 1e6, 2.0),
            AnalyticSpeed::saturating(150.0, 5e4),
            AnalyticSpeed::unimodal(250.0, 1e4, 5e6, 2.0),
        ];
        let n = 10_000_000;
        let (b, _) = bracket_slopes(n, &funcs).unwrap();
        assert!(b.shallow < b.steep);
        assert!(total_elements_at_slope(&funcs, b.steep) <= n as f64 + 1e-3);
        assert!(total_elements_at_slope(&funcs, b.shallow) >= n as f64 - 1e-3);
    }

    #[test]
    fn degenerate_probe_is_recovered() {
        // Paging models with a tiny memory: at n/p the speed has collapsed
        // but a valid bracket must still be found for small n.
        let funcs = vec![
            AnalyticSpeed::paging(100.0, 1e3, 4.0),
            AnalyticSpeed::paging(100.0, 1e3, 4.0),
        ];
        let (b, _) = bracket_slopes(1_000_000, &funcs).unwrap();
        assert!(total_elements_at_slope(&funcs, b.shallow) >= 1e6 - 1.0);
    }

    #[test]
    fn insufficient_capacity_detected_for_bounded_models() {
        let f = PiecewiseLinearSpeed::new(vec![(10.0, 100.0), (1000.0, 0.0)]).unwrap();
        let funcs = vec![f.clone(), f];
        // Combined capacity is 2000 elements; ask for far more.
        let err = bracket_slopes(1_000_000, &funcs).unwrap_err();
        assert!(matches!(err, Error::InsufficientCapacity { .. }), "got {err:?}");
    }

    #[test]
    fn width_is_positive() {
        let funcs = vec![ConstantSpeed::new(10.0), ConstantSpeed::new(90.0)];
        let (b, _) = bracket_slopes(1000, &funcs).unwrap();
        assert!(b.width() > 0.0);
    }

    /// A model whose probe is broken in a specific way — mirrors the shapes
    /// testkit's `FaultyMeasurer` injects (NaN, ±∞) at model-building time,
    /// here surfacing at solve time instead.
    struct FaultySpeed(f64);

    impl crate::speed::SpeedFunction for FaultySpeed {
        fn speed(&self, _x: f64) -> f64 {
            self.0
        }
    }

    #[test]
    fn nan_speed_is_rejected_cleanly() {
        let funcs = vec![FaultySpeed(100.0), FaultySpeed(f64::NAN)];
        let err = bracket_slopes(1_000_000, &funcs).unwrap_err();
        assert!(
            matches!(err, Error::InvalidSpeedFunction { processor: 1, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn infinite_speed_is_rejected_cleanly() {
        let funcs = vec![FaultySpeed(f64::INFINITY), FaultySpeed(50.0)];
        let err = bracket_slopes(1_000_000, &funcs).unwrap_err();
        assert!(
            matches!(err, Error::InvalidSpeedFunction { processor: 0, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn negative_infinite_speed_is_rejected_cleanly() {
        let funcs = vec![FaultySpeed(f64::NEG_INFINITY)];
        let err = bracket_slopes(1000, &funcs).unwrap_err();
        assert!(matches!(err, Error::InvalidSpeedFunction { .. }), "got {err:?}");
    }

    #[test]
    fn warm_bracket_is_tight_around_a_good_seed() {
        let funcs = vec![
            AnalyticSpeed::decreasing(200.0, 1e6, 2.0),
            AnalyticSpeed::saturating(150.0, 5e4),
            AnalyticSpeed::unimodal(250.0, 1e4, 5e6, 2.0),
        ];
        let n = 10_000_000u64;
        let (cold, _) = bracket_slopes(n, &funcs).unwrap();
        // Use the cold bracket's midpoint as a plausible previous-solution
        // slope; the warm bracket must be valid and far tighter than cold.
        let seed = 0.5 * (cold.shallow + cold.steep);
        let (warm, ..) = bracket_from_slope(n, &funcs, seed).unwrap();
        assert!(warm.shallow < warm.steep);
        assert!(total_elements_at_slope(&funcs, warm.steep) <= n as f64 + 1e-3);
        assert!(total_elements_at_slope(&funcs, warm.shallow) >= n as f64 - 1e-3);
    }

    #[test]
    fn warm_bracket_widens_until_it_brackets() {
        let funcs = vec![ConstantSpeed::new(100.0), ConstantSpeed::new(50.0)];
        let n = 300u64;
        // Optimal slope is 0.5 (150 · slope⁻¹ = 300); seed far away on both
        // sides and require a valid bracket anyway.
        for seed in [1e-6, 1e6] {
            let (b, ..) = bracket_from_slope(n, &funcs, seed).unwrap();
            assert!(total_elements_at_slope(&funcs, b.steep) <= n as f64 + 1e-9, "{seed}");
            assert!(total_elements_at_slope(&funcs, b.shallow) >= n as f64 - 1e-9, "{seed}");
        }
    }

    #[test]
    fn warm_bracket_rejects_bad_seeds() {
        let funcs = vec![ConstantSpeed::new(100.0)];
        for seed in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = bracket_from_slope(1000, &funcs, seed).unwrap_err();
            assert!(matches!(err, Error::NoConvergence { .. }), "seed {seed}: {err:?}");
        }
    }
}
