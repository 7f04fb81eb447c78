//! The one slope search behind the basic, modified and secant algorithms.
//!
//! Each step draws a trial line through the origin strictly inside the
//! region between two bounding lines, sweeps its intersections with every
//! graph, and keeps the half whose element total still brackets `n`. The
//! algorithms differ only in their [`Rule`] for the trial line. The basic
//! and secant rules stop when every per-processor interval `(l, h)` is
//! shorter than one element; the modified rule stops when no integer lies
//! strictly inside any of them. Under every rule the search also stops when
//! the region is one float wide (`steep − shallow ≤ ε·steep`) or the trial
//! is not strictly inside it, and then runs the paper's fine-tuning, which
//! lands on the same integer plan from any valid bracket. A search that
//! spends its step budget ends in [`Error::NoConvergence`] under the rule's
//! name.

use super::bisection::SlopeMode;
use super::fine_tune::tune;
use super::initial::{bracket_from_slope, bracket_slopes, BracketProbes, SlopeBracket};
use super::problem::{
    donor_seed, empty_report, validate_processors, Distribution, PartitionReport,
};
use crate::cost::CostFunction;
use crate::error::{Error, Result};
use crate::geometry::intersections_at_slope;
use crate::trace::{IterationRecord, Trace};

/// How a search picks its trial line.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rule {
    /// The basic algorithm (paper Figs. 7–8): the [`SlopeMode`] midpoint,
    /// or regula falsi on slopes when the bracket comes seeded.
    Basic(SlopeMode),
    /// The modified algorithm (paper Figs. 10–12): the line through the
    /// median integer point of the graph with the most candidates.
    Modified,
    /// The secant extension: Illinois regula falsi on ln-slope.
    Secant,
}

impl Rule {
    /// The step budget after which a search gives up (see the partitioner
    /// types for the reasons).
    pub(crate) fn budget(self, n: u64, p: usize) -> usize {
        match self {
            Rule::Basic(_) => 100_000,
            Rule::Modified => 4 * p * ((n + 2) as f64).log2().ceil() as usize + 64,
            Rule::Secant => 10_000,
        }
    }

    /// The algorithm name [`Error::NoConvergence`] reports.
    fn name(self) -> &'static str {
        match self {
            Rule::Basic(_) => "slope bisection",
            Rule::Modified => "solution-space bisection",
            Rule::Secant => "regula falsi",
        }
    }

    /// The rule's trial slope in `region`, or `None` when its stop test
    /// says the search is done. The search checks that the slope is
    /// strictly inside the region.
    fn trial<F: CostFunction>(self, region: &Region, funcs: &[F]) -> Option<f64> {
        let Region { shallow, steep, f_shallow, f_steep, .. } = *region;
        match self {
            Rule::Modified => {
                let (i, median) = region.richest_graph()?;
                let trial = funcs[i].rate(median);
                if region.inside(trial) {
                    return Some(trial);
                }
                // A line on a boundary cannot split the region along this
                // graph; a plain bisection step keeps making progress.
                Some(SlopeMode::Tangent.trial(shallow, steep))
            }
            // The basic and secant stop test.
            _ if !region.open() => None,
            Rule::Basic(mode) => {
                // Regula falsi on the (monotone) total-vs-slope residual.
                let denom = f_steep - f_shallow;
                let falsi = (shallow * f_steep - steep * f_shallow) / denom;
                let interpolate = region.seeded && denom < 0.0 && region.inside(falsi);
                Some(if interpolate { falsi } else { mode.trial(shallow, steep) })
            }
            Rule::Secant => {
                // False position in (ln-slope, residual). Degenerate
                // residuals put `u` outside the region.
                let (u_lo, u_hi) = (shallow.ln(), steep.ln());
                let u = u_lo + (u_hi - u_lo) * f_shallow / (f_shallow - f_steep);
                if u > u_lo && u < u_hi {
                    return Some(u.exp());
                }
                Some(SlopeMode::Geometric.trial(shallow, steep))
            }
        }
    }
}

/// The region between the two bounding lines, as a rule sees it.
struct Region {
    /// The shallower bound, whose intersections `hi_x` sum to ≥ n.
    shallow: f64,
    /// The steeper bound, whose intersections `lo_x` sum to ≤ n.
    steep: f64,
    lo_x: Vec<f64>,
    hi_x: Vec<f64>,
    /// The bounds' residuals `Σx − n`, damped by the Illinois rule so that
    /// regula falsi cannot stall against a stale end.
    f_shallow: f64,
    f_steep: f64,
    /// The bound the last step moved: `-1` steep, `1` shallow, `0` none.
    side: i8,
    /// Whether the bracket came seeded, with its endpoint intersections.
    seeded: bool,
}

impl Region {
    fn inside(&self, slope: f64) -> bool {
        slope > self.shallow && slope < self.steep
    }

    /// Some per-processor interval is at least one element wide.
    fn open(&self) -> bool {
        self.lo_x.iter().zip(&self.hi_x).any(|(&l, &h)| h - l >= 1.0)
    }

    /// The graph with the most integer abscissas strictly inside its
    /// interval, and its median one. `None` when no graph has any.
    fn richest_graph(&self) -> Option<(usize, f64)> {
        // Work in f64: counts can reach n.
        let mut best = None;
        let mut best_count = 0.0_f64;
        for (i, (&l, &h)) in self.lo_x.iter().zip(&self.hi_x).enumerate() {
            let first = (l + 1.0).floor(); // smallest integer > l
            let last = (h - 1.0).ceil().max(first - 1.0); // largest integer < h
            let count = (last - first + 1.0).max(0.0);
            if count > best_count {
                best_count = count;
                best = Some((i, (first + ((count - 1.0) / 2.0).floor()).max(1.0)));
            }
        }
        best
    }

    /// Moves the bound on the trial's side of the optimum to the trial, and
    /// halves the other bound's residual when it survives twice in a row.
    fn narrow(&mut self, trial: f64, xs: Vec<f64>, residual: f64) {
        if residual < 0.0 {
            // Too few elements: the optimal line is shallower.
            (self.steep, self.lo_x, self.f_steep) = (trial, xs, residual);
            self.f_shallow *= if self.side == -1 { 0.5 } else { 1.0 };
            self.side = -1;
        } else {
            (self.shallow, self.hi_x, self.f_shallow) = (trial, xs, residual);
            self.f_steep *= if self.side == 1 { 0.5 } else { 1.0 };
            self.side = 1;
        }
    }
}

/// Searches `bracket` under `rule` for at most `budget` steps. `probes`,
/// the endpoint intersections [`bracket_from_slope`] returns, spare the
/// two endpoint sweeps and mark the bracket as seeded.
pub(crate) fn search<F: CostFunction>(
    rule: Rule,
    n: u64,
    funcs: &[F],
    bracket: SlopeBracket,
    probes: Option<BracketProbes>,
    mut trace: Trace,
    budget: usize,
) -> Result<PartitionReport> {
    let target = n as f64;
    let seeded = probes.is_some();
    // After each step one bound inherits the trial line's intersections,
    // so a step costs p intersection searches instead of 3p.
    let sweep = |slope| intersections_at_slope(funcs, slope);
    let (lo_x, hi_x) = probes.unwrap_or_else(|| (sweep(bracket.steep), sweep(bracket.shallow)));
    let mut region = Region {
        shallow: bracket.shallow,
        steep: bracket.steep,
        f_shallow: hi_x.iter().sum::<f64>() - target,
        f_steep: lo_x.iter().sum::<f64>() - target,
        lo_x,
        hi_x,
        side: 0,
        seeded,
    };
    for step in 1..=budget {
        let resolved = region.steep - region.shallow <= f64::EPSILON * region.steep;
        let trial = if resolved { None } else { rule.trial(&region, funcs) };
        let Some(trial) = trial.filter(|&t| region.inside(t)) else {
            return Ok(tune(n, funcs, &region.lo_x, &region.hi_x).into_report(funcs, trace));
        };
        let xs = sweep(trial);
        let total: f64 = xs.iter().sum();
        trace.iterations.push(IterationRecord {
            step,
            lower_slope: region.shallow,
            upper_slope: region.steep,
            trial_slope: trial,
            total_elements: total,
            undershoot: total < target,
        });
        region.narrow(trial, xs, total - target);
    }
    Err(Error::NoConvergence { algorithm: rule.name(), steps: budget })
}

/// The cold path: the paper's initial lines (Fig. 18), then the search.
pub(crate) fn cold<F: CostFunction>(rule: Rule, n: u64, funcs: &[F]) -> Result<PartitionReport> {
    validate_processors(funcs)?;
    if n == 0 {
        return Ok(empty_report(funcs.len()));
    }
    let (bracket, bracket_probes) = bracket_slopes(n, funcs)?;
    let trace = Trace { bracket_probes, ..Trace::default() };
    search(rule, n, funcs, bracket, None, trace, rule.budget(n, funcs.len()))
}

/// The warm path: the ε-bracket around the donor plan's rescaled slope,
/// then the seeded search. Without a usable donor, or when the seed fails
/// to bracket, the cold path.
pub(crate) fn warm<F: CostFunction>(
    rule: Rule,
    prev: &Distribution,
    n: u64,
    funcs: &[F],
) -> Result<PartitionReport> {
    let seed = if n == 0 { None } else { donor_seed(prev, n, funcs) };
    match seed.map(|seed| bracket_from_slope(n, funcs, seed)) {
        Some(Ok((bracket, probes, bracket_probes))) => {
            let trace = Trace { warm_bracket: true, bracket_probes, ..Trace::default() };
            search(rule, n, funcs, bracket, Some(probes), trace, rule.budget(n, funcs.len()))
        }
        _ => cold(rule, n, funcs),
    }
}

/// Shared by the partitioners' tests: warm re-solves at near-duplicate
/// sizes around a donor, and at one far size that forces the widening path,
/// match cold solves bit for bit and use the warm bracket.
#[cfg(test)]
pub(crate) fn assert_warm_resolve_is_bit_identical_to_cold<P: super::Partitioner>(p: &P) {
    use crate::speed::AnalyticSpeed;
    let funcs = vec![
        AnalyticSpeed::decreasing(200.0, 1e6, 2.0),
        AnalyticSpeed::saturating(150.0, 5e4),
        AnalyticSpeed::unimodal(250.0, 1e4, 5e6, 2.0),
        AnalyticSpeed::paging(300.0, 2e6, 3.0),
    ];
    let base = p.partition(10_000_000, &funcs).unwrap();
    for n in [10_000_000u64, 10_000_001, 9_999_000, 10_010_000, 2_000_000] {
        let cold = p.partition(n, &funcs).unwrap();
        let warm = p.resolve_from(&base.distribution, n, &funcs).unwrap();
        assert_eq!(cold.distribution, warm.distribution, "n = {n}");
        assert_eq!(cold.makespan.to_bits(), warm.makespan.to_bits(), "n = {n}");
        assert!(warm.trace.warm_bracket, "n = {n}: warm bracket not used");
    }
}
