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
/// Both sides of `[slope·(1−ε), slope·(1+ε)]` (ε = 1e-3) are probed first.
/// When one side misses, both probes lie on the same side of the optimum,
/// and the missed one is the closer: it becomes the opposite bound. The
/// missed side is then widened from its two latest probes. The root is
/// extrapolated along their chord in `(ln slope, ln total)`, which is exact
/// where the total is a power law in the slope (constant speeds), and the
/// next probe lands a fixed margin of ε/64 in log-slope past it, so even a
/// seed that is orders of magnitude off ends in a bracket whose new side
/// hugs the estimate. A probe that misses again becomes the opposite bound,
/// and the next extrapolation starts from it. When the extrapolation is
/// unusable (a non-finite value, or a total that does not fall with the
/// slope, as when every machine is clamped at its `max_size`), the offset
/// factor from the seed is squared instead (`1±ε → (1±ε)² → …`), which
/// doubles it in log-slope and still reaches any finite optimum. Callers
/// should fall back to [`bracket_slopes`] on any error: the seed slope may
/// simply be too far from the new optimum.
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
    if !slope.is_finite() || slope <= 0.0 {
        return Err(Error::NoConvergence { algorithm: "bracket_from_slope(seed)", steps: 0 });
    }
    let target = n as f64;
    let widen = Widen { funcs, seed: slope, target };
    let steep = widen.probe(slope * (1.0 + SEED_EPSILON), STEEP, 0)?;
    let shallow = widen.probe(slope * (1.0 - SEED_EPSILON), SHALLOW, 0)?;
    if steep.total > target {
        // The optimum is steeper than both probes.
        let (landed, missed, widenings) = widen.side(shallow, steep, STEEP)?;
        let bracket = SlopeBracket { shallow: missed.slope, steep: landed.slope };
        Ok((bracket, (landed.xs, missed.xs), widenings))
    } else if shallow.total < target {
        // The optimum is shallower than both probes.
        let (landed, missed, widenings) = widen.side(steep, shallow, SHALLOW)?;
        let bracket = SlopeBracket { shallow: landed.slope, steep: missed.slope };
        Ok((bracket, (missed.xs, landed.xs), widenings))
    } else {
        let bracket = SlopeBracket { shallow: shallow.slope, steep: steep.slope };
        Ok((bracket, (steep.xs, shallow.xs), 0))
    }
}

/// The seeded bracket's relative half-width ε.
const SEED_EPSILON: f64 = 1e-3;

/// Widenings one side of a seeded bracket may take.
const WIDEN_BUDGET: usize = 64;

/// How far past its extrapolated root, in log-slope, a widening probe
/// lands: ε/64, so the landed bound sits within a factor `1 + 1.6·10⁻⁵`
/// of the estimate, however far off the seed was.
const WIDEN_MARGIN: f64 = SEED_EPSILON / 64.0;

/// One side of a seeded bracket: the name its errors report, and whether a
/// total lands on it (`≤ n` on the steep side, `≥ n` on the shallow one).
#[derive(Clone, Copy)]
struct Side {
    algorithm: &'static str,
    lands: fn(&f64, &f64) -> bool,
}

const STEEP: Side = Side { algorithm: "bracket_from_slope(steep)", lands: f64::le };
const SHALLOW: Side = Side { algorithm: "bracket_from_slope(shallow)", lands: f64::ge };

/// One swept line of a seeded bracket.
struct Probe {
    slope: f64,
    xs: Vec<f64>,
    total: f64,
}

/// What widening a seeded bracket needs to know.
struct Widen<'a, F> {
    funcs: &'a [F],
    seed: f64,
    target: f64,
}

impl<F: CostFunction> Widen<'_, F> {
    /// Sweeps the line of slope `slope`; `steps` widenings came before it.
    fn probe(&self, slope: f64, side: Side, steps: usize) -> Result<Probe> {
        let xs = intersections_at_slope(self.funcs, slope);
        let total: f64 = xs.iter().sum();
        if !total.is_finite() {
            return Err(Error::NoConvergence { algorithm: side.algorithm, steps });
        }
        Ok(Probe { slope, xs, total })
    }

    /// Widens `side` until a probe lands on it, from its two latest probes
    /// `prev` and `last`, both of which missed. Returns the landed probe,
    /// the last one that missed (the opposite bound), and the widenings.
    fn side(&self, mut prev: Probe, mut last: Probe, side: Side) -> Result<(Probe, Probe, usize)> {
        for steps in 1..=WIDEN_BUDGET {
            let next = self.extrapolate(&prev, &last).unwrap_or_else(|| {
                // Square the offset factor from the seed.
                let factor = last.slope / self.seed;
                self.seed * factor * factor
            });
            if !next.is_finite() || next <= 0.0 {
                return Err(Error::NoConvergence { algorithm: side.algorithm, steps });
            }
            let probe = self.probe(next, side, steps)?;
            if (side.lands)(&probe.total, &self.target) {
                return Ok((probe, last, steps));
            }
            (prev, last) = (last, probe);
        }
        Err(Error::NoConvergence { algorithm: side.algorithm, steps: WIDEN_BUDGET })
    }

    /// The next widening probe: the slope where the chord through `prev`
    /// and `last` in `(ln slope, ln total)` reaches `ln n`, moved
    /// [`WIDEN_MARGIN`] further from `last`. `None` when that is unusable:
    /// a non-finite value, or a total that does not fall with the slope.
    fn extrapolate(&self, prev: &Probe, last: &Probe) -> Option<f64> {
        let du = (last.slope / prev.slope).ln();
        let elasticity = (last.total / prev.total).ln() / du;
        if !(elasticity < 0.0 && elasticity.is_finite()) {
            return None;
        }
        // Positive: `last` missed, so the root lies further in `du`'s
        // direction.
        let distance = (self.target / last.total).ln() / elasticity * du.signum();
        let next = last.slope * ((distance + WIDEN_MARGIN) * du.signum()).exp();
        (next.is_finite() && next > 0.0).then_some(next)
    }
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
    fn far_and_near_misses_bracket_within_two_widenings() {
        // Constant speeds make the total an exact power law in the slope:
        // the optimum balances 150 elements per unit slope over n = 3000.
        // Squaring the ε-offset took 14 widenings for the 10⁶× misses and 7
        // for the 10 % ones.
        let funcs = vec![ConstantSpeed::new(100.0), ConstantSpeed::new(50.0)];
        let (n, optimum) = (3000u64, 0.05_f64);
        for miss in [1e6, 1e-6, 1.1, 1.0 / 1.1] {
            let (b, (lo, hi), widenings) = bracket_from_slope(n, &funcs, optimum * miss).unwrap();
            assert!((1..=2).contains(&widenings), "miss {miss}: {widenings} widenings");
            assert!(lo.iter().sum::<f64>() <= n as f64, "miss {miss}");
            assert!(hi.iter().sum::<f64>() >= n as f64, "miss {miss}");
            // The widened side, shallow for a steep seed, lands within a
            // bounded margin of the optimum however far off the seed was;
            // stepping half again past the estimate would have landed 10³×
            // off from a 10⁶× miss.
            let landed = if miss > 1.0 { b.shallow } else { b.steep };
            let past = (landed / optimum).ln().abs();
            assert!(past <= 2.0 * WIDEN_MARGIN, "miss {miss}: {past} past the optimum");
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
