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
//!
//! A seeded search (one whose bracket came from [`bracket_from_slope`])
//! also stops as soon as the steep bound's total `Σ lo_i` is within one
//! element of `n`: the one-sided stop. Each machine's gap `x*_i − lo_i` to
//! the real optimum is non-negative, since the steep line crosses every
//! graph at or before the optimal one, and the gaps sum to
//! `n − Σ lo_i ≤ 1`, so no gap exceeds one element and every `⌊lo_i⌋` is
//! `⌊x*_i⌋` or one less: what the two-sided interval test certifies. The
//! fine-tuning reads only the steep intersections, so it needs no shallow
//! bound that close. Such a search also takes a trial whose total is
//! exactly `n` as its steep bound, which the stop then accepts. Both
//! apply below 2⁵³ elements only ([`ONE_SIDED_LIMIT`]).

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
    /// The basic algorithm (paper Figs. 7–8): the [`SlopeMode`] midpoint.
    /// When the bracket comes seeded, Illinois regula falsi in
    /// `(ln slope, ln total)` aimed at `n − ½` instead: near-flat graphs
    /// make the total close to a power law in the slope, so the log-log
    /// chord lands close to the root, and aiming half an element low puts
    /// the trial on the steep side, where the one-sided stop (module docs)
    /// ends the search.
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

    /// A bound's residual, as the rule's trial reads it, for the element
    /// total `total` at that bound: `Σx − n`, or, under the seeded basic
    /// rule, `ln Σx − ln(n − ½)` (a zero total gives `−∞`).
    fn residual(self, seeded: bool, total: f64, target: f64) -> f64 {
        match self {
            Rule::Basic(_) if seeded => {
                let aim = target - 0.5;
                ((total - aim) / aim).ln_1p()
            }
            _ => total - target,
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
            Rule::Basic(mode) if region.seeded => {
                // False position in (ln slope, ln total): the residuals
                // are `f_shallow > 0 > f_steep` (see `Rule::residual`), so
                // the fraction lies in (0, 1) unless a residual is
                // infinite or damped to zero, and any trial not strictly
                // inside (NaN included) falls back to the midpoint.
                let fraction = f_shallow / (f_shallow - f_steep);
                let falsi = shallow * ((steep / shallow).ln() * fraction).exp();
                Some(if region.inside(falsi) { falsi } else { mode.trial(shallow, steep) })
            }
            Rule::Basic(mode) => Some(mode.trial(shallow, steep)),
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
    /// The steep bound's element total `Σ lo_x`.
    steep_total: f64,
    /// The bounds' residuals ([`Rule::residual`]), damped by the Illinois
    /// rule so that regula falsi cannot stall against a stale end.
    f_shallow: f64,
    f_steep: f64,
    /// The bound the last step moved: `-1` steep, `1` shallow, `0` none.
    side: i8,
    /// Whether the bracket came seeded, with its endpoint intersections.
    seeded: bool,
    /// Whether the one-sided stop applies: the search is seeded and `n` is
    /// below [`ONE_SIDED_LIMIT`].
    one_sided: bool,
}

/// 2⁵³: below it an element total resolves single elements. Above it the
/// fine-tuning's keys can tie in floating point, and its plan depends on
/// where it starts, so seeded searches run to the same resolution as the
/// paper's.
const ONE_SIDED_LIMIT: f64 = 9_007_199_254_740_992.0;

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

    /// Whether a seeded search may stop at its steep bound: the bound
    /// holds all but at most one of the `target` elements (module docs).
    fn settled(&self, target: f64) -> bool {
        self.one_sided && target - self.steep_total <= 1.0
    }

    /// Moves the bound on the trial's side of the optimum to the trial, and
    /// halves the other bound's residual when it survives twice in a row.
    /// Under the one-sided stop a trial whose total is exactly `n` becomes
    /// the steep bound, where the stop ends the search.
    fn narrow(&mut self, trial: f64, xs: Vec<f64>, total: f64, target: f64, residual: f64) {
        if total < target || (self.one_sided && total == target) {
            // Too few elements: the optimal line is shallower.
            (self.steep, self.lo_x, self.steep_total, self.f_steep) = (trial, xs, total, residual);
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
    let steep_total: f64 = lo_x.iter().sum();
    let mut region = Region {
        shallow: bracket.shallow,
        steep: bracket.steep,
        f_shallow: rule.residual(seeded, hi_x.iter().sum(), target),
        f_steep: rule.residual(seeded, steep_total, target),
        steep_total,
        lo_x,
        hi_x,
        side: 0,
        seeded,
        one_sided: seeded && target < ONE_SIDED_LIMIT,
    };
    for step in 1..=budget {
        let resolved = region.settled(target)
            || region.steep - region.shallow <= f64::EPSILON * region.steep;
        let trial = if resolved { None } else { rule.trial(&region, funcs) };
        let Some(trial) = trial.filter(|&t| region.inside(t)) else {
            return Ok(tune(n, funcs, &region.lo_x).into_report(funcs, trace));
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
        region.narrow(trial, xs, total, target, rule.residual(seeded, total, target));
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

/// The Fig. 21 cluster of `repro fig21` and `repro bench_partition`:
/// five-knot speeds whose peaks and knees cycle with the index.
#[cfg(test)]
pub(crate) fn fig21_cluster(p: usize) -> Vec<crate::speed::PiecewiseLinearSpeed> {
    (0..p)
        .map(|i| {
            let peak = 60.0 + (i % 97) as f64 * 2.5;
            let knee = 2e7 * (1.0 + (i % 13) as f64);
            crate::speed::PiecewiseLinearSpeed::new(vec![
                (1e4, peak),
                (knee * 0.5, peak * 0.97),
                (knee, peak * 0.9),
                (knee * 2.0, peak * 0.2),
                (knee * 4.0, 0.0),
            ])
            .unwrap()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::cost::{QueryCost, SortCost};
    use crate::geometry::total_elements_at_slope;
    use crate::partition::{CombinedPartitioner, Partitioner, DEFAULT_QUERY_GAMMA};
    use crate::speed::{AnalyticSpeed, ConstantSpeed, PiecewiseLinearSpeed};

    const BASIC: Rule = Rule::Basic(SlopeMode::Tangent);

    /// A seeded basic search over `bracket`, with its endpoint probes.
    fn seeded_search<F: CostFunction>(
        n: u64,
        funcs: &[F],
        bracket: SlopeBracket,
    ) -> Result<PartitionReport> {
        let sweep = |slope| intersections_at_slope(funcs, slope);
        let probes = (sweep(bracket.steep), sweep(bracket.shallow));
        search(BASIC, n, funcs, bracket, Some(probes), Trace::default(), 100)
    }

    fn paper<F: CostFunction>(n: u64, funcs: &[F]) -> PartitionReport {
        CombinedPartitioner::new().partition_explain(n, funcs).unwrap().0
    }

    #[test]
    fn a_steep_trial_within_one_element_ends_the_search() {
        // Constant speeds make the total an exact power law in the slope,
        // so the first log-log trial lands half an element below n. The
        // seed is 4·10⁻⁴ steep, so the shallow bound still holds ~1800
        // elements too many and the two-sided test alone would go on.
        let funcs: Vec<ConstantSpeed> =
            [100.0, 50.0, 7.0].iter().map(|&s| ConstantSpeed::new(s)).collect();
        let n = 3_000_000u64;
        let (bracket, ..) = bracket_from_slope(n, &funcs, 157.0 / n as f64 * 1.0004).unwrap();
        let report = seeded_search(n, &funcs, bracket).unwrap();
        assert_eq!(report.trace.steps(), 1);
        let step = report.trace.iterations[0];
        assert!(step.undershoot && n as f64 - step.total_elements <= 1.0, "{step:?}");
        let (lo, hi) = (
            intersections_at_slope(&funcs, step.trial_slope),
            intersections_at_slope(&funcs, bracket.shallow),
        );
        assert!(lo.iter().zip(&hi).any(|(l, h)| h - l >= 1.0));
        let paper = paper(n, &funcs);
        assert_eq!(report.distribution, paper.distribution);
        assert_eq!(report.makespan.to_bits(), paper.makespan.to_bits());
    }

    #[test]
    fn a_zero_total_at_a_bound_never_yields_a_nan_trial() {
        // Saturating graphs pass through the origin: a line steeper than
        // every `s(x)/x` crosses them all at 0, so its total is 0 and its
        // log residual −∞.
        let funcs =
            vec![AnalyticSpeed::saturating(150.0, 5e4), AnalyticSpeed::saturating(100.0, 1e4)];
        let n = 1_000_000u64;
        let bracket = SlopeBracket { shallow: 1e-5, steep: 1.0 };
        assert_eq!(total_elements_at_slope(&funcs, bracket.steep), 0.0);
        assert!(total_elements_at_slope(&funcs, bracket.shallow) >= n as f64);
        let report = seeded_search(n, &funcs, bracket).unwrap();
        assert!(report.trace.iterations.iter().all(|r| r.trial_slope.is_finite()));
        let paper = paper(n, &funcs);
        assert_eq!(report.distribution, paper.distribution);
        assert_eq!(report.makespan.to_bits(), paper.makespan.to_bits());
        // A seed that steep widens from two zero totals, by squaring.
        let (far, _, widenings) = bracket_from_slope(n, &funcs, 10.0).unwrap();
        assert!(widenings > 0);
        let report = seeded_search(n, &funcs, far).unwrap();
        assert!(report.trace.iterations.iter().all(|r| r.trial_slope.is_finite()));
        assert_eq!(report.distribution, paper.distribution);
    }

    /// Intersection sweeps of a seeded solve: the two ε-probes, the
    /// bracket widenings and the search steps.
    fn sweeps(trace: &Trace) -> usize {
        2 + trace.bracket_probes + trace.steps()
    }

    /// The most sweeps any seeded cold and warm solve takes over `sizes`,
    /// after checking that each returns the paper-literal plan.
    fn max_sweeps<F: CostFunction>(funcs: &[F], sizes: &[(u64, u64)]) -> (usize, usize) {
        let combined = CombinedPartitioner::new();
        let (mut cold_max, mut warm_max) = (0, 0);
        for &(n, m) in sizes {
            let cold = combined.partition(n, funcs).unwrap();
            let warm = combined.resolve_from(&cold.distribution, m, funcs).unwrap();
            assert!(warm.trace.warm_bracket, "n = {m}: warm bracket not used");
            for (report, size) in [(&cold, n), (&warm, m)] {
                let paper = combined.partition_explain(size, funcs).unwrap().0;
                assert_eq!(report.distribution, paper.distribution, "n = {size}");
                assert_eq!(report.makespan.to_bits(), paper.makespan.to_bits(), "n = {size}");
            }
            cold_max = cold_max.max(sweeps(&cold.trace));
            warm_max = warm_max.max(sweeps(&warm.trace));
        }
        (cold_max, warm_max)
    }

    /// The benchmark's solve sizes: 40 in [2.5·10⁸, 2·10⁹], each with a
    /// warm re-solve at |Δn|/n ≤ 10⁻³ from its cold plan.
    fn benchmark_sizes() -> Vec<(u64, u64)> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5EED_0000_0024);
        (0..40)
            .map(|_| {
                let n = rng.gen_range(2.5e8..2e9);
                let m = n * (1.0 + rng.gen_range(-1e-3..1e-3));
                (n as u64, m as u64)
            })
            .collect()
    }

    /// The most sweeps (cold, warm) the seeded solves of `combined`,
    /// `sort-sample` and `query` take on the Fig. 21 cluster of `p`
    /// machines over [`benchmark_sizes`].
    fn max_sweeps_at(p: usize) -> [(&'static str, (usize, usize)); 3] {
        let cluster = fig21_cluster(p);
        let sort: Vec<SortCost<'_, PiecewiseLinearSpeed>> =
            cluster.iter().map(SortCost::new).collect();
        let query: Vec<QueryCost<'_, PiecewiseLinearSpeed>> =
            cluster.iter().map(|f| QueryCost::new(f, DEFAULT_QUERY_GAMMA)).collect();
        let sizes = benchmark_sizes();
        [
            ("combined", max_sweeps(&cluster, &sizes)),
            ("sort-sample", max_sweeps(&sort, &sizes)),
            ("query", max_sweeps(&query, &sizes)),
        ]
    }

    // The pins are the most sweeps the seeded solves take here. Regula
    // falsi on raw totals, with the ε-bracket squared until it brackets,
    // took 5 per linear solve and 11 to 15 per nonlinear cold solve.

    #[test]
    fn seeded_solves_stay_within_their_sweep_pins_at_p_1080() {
        for (name, (cold, warm)) in max_sweeps_at(1080) {
            assert!(cold <= 4 && warm <= 4, "{name}: most sweeps: cold {cold}, warm {warm}");
        }
    }

    #[test]
    fn seeded_solves_stay_within_their_sweep_pins_at_p_120() {
        for (name, (cold, warm)) in max_sweeps_at(120) {
            assert!(cold <= 5 && warm <= 4, "{name}: most sweeps: cold {cold}, warm {warm}");
        }
    }
}
