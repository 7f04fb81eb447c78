//! The differential conformance engine.
//!
//! Runs every production partitioner — enumerated from the planner
//! registry ([`fpm_core::planner::registry`]), so new registry entries are
//! covered automatically — against the reference [`oracle::solve`] over
//! seeded generated clusters and checks, per case:
//!
//! * **conservation** — exactly `n` elements distributed;
//! * **makespan gap** — within [`Tolerances::makespan_rel`] of the oracle,
//!   *two-sided*: an algorithm beating the oracle means the oracle is
//!   suboptimal, which the harness must surface just as loudly;
//! * **exchange-optimality** — no single-element move improves the result;
//! * **reported makespan** — equals the plan's makespan bit for bit, since
//!   fine-tuning hands the report the times it already evaluated;
//! * **cost-domain oracles** — every check is evaluated in the *time
//!   domain the entry solves*: linear entries against the plain oracle,
//!   the sort- and query-shaped entries against the oracle run over the
//!   same cluster wrapped in their cost transform
//!   ([`fpm_core::cost::SortCost`] / [`fpm_core::cost::QueryCost`]).
//!   Conservation is domain-free; the makespan gap and exchange
//!   optimality are judged on time, not speed;
//! * **iteration bounds** — traces stay within the paper's complexity
//!   envelopes (`O(log n)` bisection steps for the slope searches,
//!   `4·p·log₂(n+2)+64` for the solution-space search);
//! * **error consistency** — if the oracle rejects a cluster (e.g.
//!   insufficient bounded capacity), every algorithm rejects it too.
//!
//! The single-number baseline is checked differently: it is the classical
//! model the paper argues *against*, so it must conserve elements and must
//! not beat the oracle, but is allowed (expected!) to be slower.

use fpm_core::cost::{CostFunction, QueryCost, SortCost};
use fpm_core::partition::bounded::partition_bounded;
use fpm_core::partition::{
    fine_tune, oracle, BisectionPartitioner, CombinedPartitioner, Distribution,
    ModifiedPartitioner, PartitionReport, Partitioner, SingleNumberPartitioner,
    DEFAULT_QUERY_GAMMA,
};
use fpm_core::planner::{erase, registry, AlgorithmInfo, CostClass, TraceBound};
use fpm_core::speed::{ConstantSpeed, SpeedFunction};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::checks::{
    check_conservation, check_exchange_optimal, check_iteration_bound, check_makespan_gap,
    check_reported_makespan, BoundClass,
};
use crate::gen::{CaseSpec, GenConfig, WireCluster};

/// Conformance tolerances.
#[derive(Debug, Clone, Copy)]
pub struct Tolerances {
    /// Maximum relative makespan gap against the oracle (both directions).
    pub makespan_rel: f64,
    /// Tolerance of the exchange-optimality check.
    pub exchange: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Self { makespan_rel: 5e-3, exchange: 5e-3 }
    }
}

/// Full configuration of a conformance sweep.
#[derive(Debug, Clone, Default)]
pub struct ConformanceConfig {
    /// Number of generated cases (0 ⇒ the tier-1 default of 500).
    pub cases: usize,
    /// Base seed; case `i` uses a SplitMix-style derivation from it.
    pub base_seed: u64,
    /// Cluster generation knobs.
    pub gen: GenConfig,
    /// Check tolerances.
    pub tol: Tolerances,
}

/// One check violation, carrying everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// Seed of the generated case ([`CaseSpec::from_seed`] replays it).
    pub seed: u64,
    /// Which algorithm violated the check.
    pub algorithm: &'static str,
    /// The case descriptor (`p`, `n`, model mix).
    pub descriptor: String,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for CaseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[seed {:#018x}] {} ({}): {}",
            self.seed, self.algorithm, self.descriptor, self.message
        )
    }
}

/// Outcome of a conformance sweep.
#[derive(Debug, Default)]
pub struct ConformanceReport {
    /// Cases generated and checked.
    pub cases_run: usize,
    /// Cases the oracle (legitimately) rejected, e.g. bounded capacity.
    pub oracle_rejections: usize,
    /// All violations found.
    pub failures: Vec<CaseFailure>,
    /// Largest observed relative makespan gap among geometric algorithms.
    pub max_rel_gap: f64,
    /// Largest observed iteration count of any traced algorithm.
    pub max_steps: usize,
}

impl ConformanceReport {
    /// Panics with a reproduction-ready message if any check failed.
    pub fn assert_ok(&self) {
        if self.failures.is_empty() {
            return;
        }
        let shown: Vec<String> =
            self.failures.iter().take(20).map(|f| f.to_string()).collect();
        panic!(
            "conformance: {} violation(s) over {} cases (showing ≤20):\n{}\n\
             Reproduce one case with fpm_testkit::gen::CaseSpec::from_seed(<seed>, \
             &GenConfig::default()) and fpm_testkit::conformance::check_case.",
            self.failures.len(),
            self.cases_run,
            shown.join("\n")
        );
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} cases, {} failures, {} oracle rejections, max rel gap {:.2e}, max steps {}",
            self.cases_run,
            self.failures.len(),
            self.oracle_rejections,
            self.max_rel_gap,
            self.max_steps
        )
    }
}

/// Reads `FPM_TESTKIT_CASES` (decimal), falling back to `default`.
///
/// This is the opt-in exhaustive-mode knob: the tier-1 suite passes a
/// bounded default, CI's scheduled job exports a large value.
pub fn env_cases(default: usize) -> usize {
    match std::env::var("FPM_TESTKIT_CASES") {
        Ok(v) => v.trim().parse().unwrap_or(default),
        Err(_) => default,
    }
}

/// Reads `FPM_TESTKIT_COST_CASES` (decimal), falling back to `default`.
///
/// The nonlinear-entry conformance sweep's own exhaustive-mode knob:
/// independent of `FPM_TESTKIT_CASES` so CI's scheduled job can scale
/// sort/query cost-domain coverage without inflating the full
/// differential sweep.
pub fn env_cost_cases(default: usize) -> usize {
    match std::env::var("FPM_TESTKIT_COST_CASES") {
        Ok(v) => v.trim().parse().unwrap_or(default),
        Err(_) => default,
    }
}

/// Reads `FPM_TESTKIT_DRIFT_CASES` (decimal), falling back to `default`.
///
/// The drift-convergence sweep's own exhaustive-mode knob: independent of
/// `FPM_TESTKIT_CASES` so CI can scale the refinement harness without
/// inflating the (more expensive per case) differential sweep.
pub fn env_drift_cases(default: usize) -> usize {
    match std::env::var("FPM_TESTKIT_DRIFT_CASES") {
        Ok(v) => v.trim().parse().unwrap_or(default),
        Err(_) => default,
    }
}

/// Reads `FPM_TESTKIT_SEED` (decimal or `0x…` hex), falling back to
/// `default`. Lets a CI failure be replayed locally with the same stream.
pub fn env_base_seed(default: u64) -> u64 {
    match std::env::var("FPM_TESTKIT_SEED") {
        Ok(v) => {
            let v = v.trim();
            let parsed = if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X"))
            {
                u64::from_str_radix(hex, 16)
            } else {
                v.parse()
            };
            parsed.unwrap_or(default)
        }
        Err(_) => default,
    }
}

/// Envelope for the slope-search algorithms (basic bisection, secant): the
/// element-stopping criterion closes the bracket in `O(log n)` trials on
/// admissible shapes. The constants are deliberately loose — this guards
/// the complexity *class*, not the exact constant.
const SLOPE_SEARCH_BOUND: BoundClass = BoundClass::LogN { base: 96, factor: 16 };

/// Runs every production partitioner on one generated case and returns all
/// violations (empty = fully conformant).
///
/// The algorithm set is the planner registry itself
/// ([`fpm_core::planner::registry`]): every non-baseline entry gets full
/// conformance checks (conservation, two-sided makespan gap against the
/// oracle, exchange-optimality, and — where the entry declares a
/// [`TraceBound`] — the matching iteration-bound envelope); baseline
/// entries get the relaxed baseline checks. A partitioner added to the
/// registry is therefore conformance-checked with zero testkit changes.
///
/// Every oracle comparison happens in the entry's **own cost domain**
/// ([`fpm_core::planner::CostClass`]): the sort- and query-shaped
/// entries report makespans in transformed time (`x·log₂ x`, `x^(1+γ)`
/// work), so they are checked against the oracle run over the same
/// cluster wrapped in the matching cost transform, not against the
/// linear optimum.
pub fn check_case(case: &CaseSpec, tol: &Tolerances) -> Vec<CaseFailure> {
    check_entries(case, tol, &|_| true)
}

/// Runs only the nonlinear (cost-model) registry entries — sort-sample,
/// query — on one generated case, with the same cost-domain checks
/// [`check_case`] applies to them. This is the unit of the dedicated
/// nonlinear sweep ([`run_cost_conformance`]), which CI scales
/// independently of the full differential sweep.
pub fn check_cost_case(case: &CaseSpec, tol: &Tolerances) -> Vec<CaseFailure> {
    check_entries(case, tol, &|info| info.cost.nonlinear())
}

/// Solves the entry's cost-domain oracle and applies the time-domain
/// checks (makespan gap, exchange optimality) to `report` against it.
fn cost_domain_checks<F: CostFunction>(
    entry: &'static str,
    report: &PartitionReport,
    n: u64,
    funcs: &[F],
    tol: &Tolerances,
    fail: &dyn Fn(&'static str, String) -> CaseFailure,
    failures: &mut Vec<CaseFailure>,
) {
    let reference = match oracle::solve(n, funcs) {
        Ok(r) => r,
        Err(e) => {
            // The linear oracle accepted the cluster (the caller checked),
            // so a transformed-domain rejection is an inconsistency, not a
            // legitimately infeasible case: the transforms preserve
            // capacity (`max_size` passes through unchanged).
            failures.push(fail(
                entry,
                format!("returned Ok but the cost-domain oracle rejected the case: {e}"),
            ));
            return;
        }
    };
    if let Err(m) = check_makespan_gap(report.makespan, reference.makespan, tol.makespan_rel) {
        failures.push(fail(entry, m));
    }
    if let Err(m) = check_exchange_optimal(&report.distribution, funcs, tol.exchange) {
        failures.push(fail(entry, m));
    }
}

/// Shared body of [`check_case`] / [`check_cost_case`]: runs the registry
/// entries `select` admits, each checked in its own cost domain.
fn check_entries(
    case: &CaseSpec,
    tol: &Tolerances,
    select: &dyn Fn(&AlgorithmInfo) -> bool,
) -> Vec<CaseFailure> {
    let mut failures = Vec::new();
    let n = case.n;
    let p = case.funcs.len();
    let refs = erase(&case.funcs);
    let fail = |algorithm: &'static str, message: String| CaseFailure {
        seed: case.seed,
        algorithm,
        descriptor: case.descriptor.clone(),
        message,
    };

    let reference = match oracle::solve(n, &case.funcs) {
        Ok(r) => r,
        Err(oracle_err) => {
            // The oracle rejected the cluster; every production algorithm
            // must reject it too (consistently clean errors, never a bogus
            // success). The rejection reasons are capacity-shaped and the
            // cost transforms preserve capacity, so the linear verdict
            // governs the nonlinear entries too. Baselines are exempt:
            // they are checked only for well-formedness, which needs an
            // oracle optimum to compare to.
            for info in registry().iter().filter(|i| !i.baseline && select(i)) {
                if info.id_with(1.0).solve(n, &refs).is_ok() {
                    failures.push(fail(
                        info.name,
                        format!("returned Ok but the oracle rejected the case: {oracle_err}"),
                    ));
                }
            }
            return failures;
        }
    };

    // The nonlinear entries' clusters: the same machines wrapped in the
    // cost transform each entry solves (borrow wrappers — no copies).
    let sort_funcs: Vec<SortCost<'_, dyn SpeedFunction>> =
        case.funcs.iter().map(|f| SortCost::new(f.as_ref())).collect();
    let query_funcs: Vec<QueryCost<'_, dyn SpeedFunction>> = case
        .funcs
        .iter()
        .map(|f| QueryCost::new(f.as_ref(), DEFAULT_QUERY_GAMMA))
        .collect();

    // Every entry's report carries its plan's makespan, bit for bit, in
    // the entry's cost domain.
    let reported_makespan = |info: &AlgorithmInfo, report: &PartitionReport| match info.cost {
        CostClass::Linear => check_reported_makespan(report, &case.funcs),
        CostClass::SortNLogN => check_reported_makespan(report, &sort_funcs),
        CostClass::Superlinear => check_reported_makespan(report, &query_funcs),
    };

    // Production algorithms: full conformance against the oracle in the
    // entry's cost domain.
    for info in registry().iter().filter(|i| !i.baseline && select(i)) {
        let bound = match info.bound {
            Some(TraceBound::SlopeSearch) => Some(SLOPE_SEARCH_BOUND),
            Some(TraceBound::SolutionSpace) => Some(BoundClass::PLogN),
            None => None,
        };
        let report = match info.id_with(1.0).solve(n, &refs) {
            Ok(r) => r,
            Err(e) => {
                failures.push(fail(info.name, format!("failed where the oracle succeeded: {e}")));
                continue;
            }
        };
        if let Err(m) = check_conservation(&report.distribution, n) {
            failures.push(fail(info.name, m));
        }
        if let Err(m) = reported_makespan(info, &report) {
            failures.push(fail(info.name, m));
        }
        match info.cost {
            CostClass::Linear => {
                if let Err(m) =
                    check_makespan_gap(report.makespan, reference.makespan, tol.makespan_rel)
                {
                    failures.push(fail(info.name, m));
                }
                if let Err(m) =
                    check_exchange_optimal(&report.distribution, &case.funcs, tol.exchange)
                {
                    failures.push(fail(info.name, m));
                }
            }
            CostClass::SortNLogN => {
                cost_domain_checks(info.name, &report, n, &sort_funcs, tol, &fail, &mut failures);
            }
            CostClass::Superlinear => {
                cost_domain_checks(info.name, &report, n, &query_funcs, tol, &fail, &mut failures);
            }
        }
        if let Some(class) = bound {
            if let Err(m) = check_iteration_bound(&report.trace, n, p, class) {
                failures.push(fail(info.name, m));
            }
        }
    }

    // Baseline entries (the single-number model the paper argues against,
    // sampled at the homogeneous reference size n/p): they must stay
    // well-formed (conservation, no beating the oracle) but are expected
    // to be slower on heterogeneous functional clusters.
    let reference_size = (n as f64 / p as f64).max(1.0);
    for info in registry().iter().filter(|i| i.baseline && select(i)) {
        match info.id_with(reference_size).solve(n, &refs) {
            Ok(report) => {
                if let Err(m) = check_conservation(&report.distribution, n) {
                    failures.push(fail(info.name, m));
                }
                if let Err(m) = reported_makespan(info, &report) {
                    failures.push(fail(info.name, m));
                }
                if report.makespan < reference.makespan * (1.0 - tol.makespan_rel) {
                    failures.push(fail(
                        info.name,
                        format!(
                            "baseline makespan {} beats oracle {} — oracle suboptimal",
                            report.makespan, reference.makespan
                        ),
                    ));
                }
            }
            Err(e) => {
                failures.push(fail(info.name, format!("baseline failed: {e}")));
            }
        }
    }

    failures
}

/// Differentially pins the warm-start contract on one generated case: for
/// every registry entry, [`fpm_core::planner::AlgorithmId::resolve_from`]
/// seeded with a donor solution must be **bit-identical** — equal counts
/// and equal makespan bits — to a cold solve, for request sizes both near
/// the donor (the intended use) and far from it (the seed must still
/// bracket or fall back transparently).
pub fn check_warm_start(case: &CaseSpec) -> Vec<CaseFailure> {
    let mut failures = Vec::new();
    let n = case.n;
    let refs = erase(&case.funcs);
    let reference_size = (n as f64 / case.funcs.len() as f64).max(1.0);
    let fail = |algorithm: &'static str, message: String| CaseFailure {
        seed: case.seed,
        algorithm,
        descriptor: case.descriptor.clone(),
        message,
    };

    for info in registry().iter() {
        let id = info.id_with(reference_size);
        // The donor is a prior solve at the case's own size; a cluster the
        // algorithm rejects outright has nothing to donate.
        let Ok(donor) = id.solve(n, &refs) else { continue };
        let step = (n / 1000).max(1);
        let deltas: [i64; 5] = [0, 1, -1, step as i64 + 7, -(step as i64) - 7];
        for delta in deltas {
            let m = n.saturating_add_signed(delta).max(1);
            let cold = id.solve(m, &refs);
            let warm = id.resolve_from(donor.distribution.counts(), m, &refs);
            match (cold, warm) {
                (Ok(cold), Ok(warm)) => {
                    if warm.distribution.counts() != cold.distribution.counts()
                        || warm.makespan.to_bits() != cold.makespan.to_bits()
                    {
                        failures.push(fail(
                            info.name,
                            format!(
                                "warm solve diverged at n={m} (donor n={n}): \
                                 cold makespan {} vs warm {}",
                                cold.makespan, warm.makespan
                            ),
                        ));
                    }
                }
                (Err(_), Err(_)) => {}
                (Ok(_), Err(e)) => {
                    failures.push(fail(
                        info.name,
                        format!("warm solve failed where cold succeeded at n={m}: {e}"),
                    ));
                }
                (Err(e), Ok(_)) => {
                    failures.push(fail(
                        info.name,
                        format!("warm solve succeeded where cold failed at n={m}: {e}"),
                    ));
                }
            }
        }
    }
    failures
}

/// A cost model view that forwards `time`, `max_size`, `throughput` and
/// `rate` but never answers [`CostFunction::intersect_slope`], so every
/// intersection through it — and through a sort or query transform over
/// it — runs the numeric bracketing search. This is the path the
/// closed-form transform intersections replaced, kept as their
/// differential reference ([`check_closed_form`]).
pub struct NumericOnly<'a>(pub &'a dyn CostFunction);

impl CostFunction for NumericOnly<'_> {
    fn time(&self, x: f64) -> f64 {
        self.0.time(x)
    }

    fn max_size(&self) -> f64 {
        self.0.max_size()
    }

    fn throughput(&self, x: f64) -> f64 {
        self.0.throughput(x)
    }

    fn rate(&self, x: f64) -> f64 {
        self.0.rate(x)
    }
}

/// A cost model view that forwards everything but
/// [`CostFunction::speed_knots`], so a sort or query transform over it
/// intersects by closed-form inversions of the base, never segment by
/// segment over its knots. This is the path the segment search replaced
/// for piece-wise speed models, kept as its differential reference
/// ([`check_closed_form`]).
pub struct WithoutKnots<'a>(pub &'a dyn CostFunction);

impl CostFunction for WithoutKnots<'_> {
    fn time(&self, x: f64) -> f64 {
        self.0.time(x)
    }

    fn max_size(&self) -> f64 {
        self.0.max_size()
    }

    fn throughput(&self, x: f64) -> f64 {
        self.0.throughput(x)
    }

    fn rate(&self, x: f64) -> f64 {
        self.0.rate(x)
    }

    fn intersect_slope(&self, slope: f64) -> Option<f64> {
        self.0.intersect_slope(slope)
    }
}

/// Differentially pins the closed-form intersections of the sort and
/// query transforms on one cluster: for each nonlinear registry entry, a
/// cold solve and warm [`resolve_from`] solves at `|Δn|/n ≤ 1e-3` must be
/// **bit-identical** — equal counts and equal makespan bits — on three
/// paths: over the cluster as given (the segment search where a machine
/// has speed knots), over it wrapped in [`WithoutKnots`] (inversions of
/// the base) and over it wrapped in [`NumericOnly`] (the numeric search).
///
/// The cost-domain oracle intersects through the same closed forms, so
/// [`check_cost_case`] alone cannot catch a wrong one; this check can.
///
/// [`resolve_from`]: fpm_core::planner::AlgorithmId::resolve_from
pub fn check_closed_form(
    seed: u64,
    descriptor: &str,
    n: u64,
    funcs: &[&dyn CostFunction],
) -> Vec<CaseFailure> {
    let numeric: Vec<NumericOnly<'_>> = funcs.iter().map(|&f| NumericOnly(f)).collect();
    let inverting: Vec<WithoutKnots<'_>> = funcs.iter().map(|&f| WithoutKnots(f)).collect();
    let references = [("numeric search", erase(&numeric)), ("base inversion", erase(&inverting))];
    let mut failures = Vec::new();
    let mut diverged = |algorithm: &'static str, reference: &str, what: String| {
        failures.push(CaseFailure {
            seed,
            algorithm,
            descriptor: descriptor.to_string(),
            message: format!("closed form and {reference} diverged on the {what}"),
        })
    };
    for info in registry().iter().filter(|i| i.cost.nonlinear()) {
        let id = info.id_with(1.0);
        let cold = id.solve(n, funcs);
        for (reference, refs) in &references {
            if let Some(m) = plan_mismatch(&cold, &id.solve(n, refs)) {
                diverged(info.name, reference, format!("cold solve at n={n}: {m}"));
            }
        }
        let Ok(donor) = cold else { continue };
        let donor = donor.distribution.counts();
        let delta = n / 1000;
        for m in [n + delta, n - delta, n + delta / 3] {
            let warm = id.resolve_from(donor, m, funcs);
            for (reference, refs) in &references {
                if let Some(e) = plan_mismatch(&warm, &id.resolve_from(donor, m, refs)) {
                    diverged(
                        info.name,
                        reference,
                        format!("warm solve at n={m} (donor n={n}): {e}"),
                    );
                }
            }
        }
    }
    failures
}

/// Why two solve outcomes differ, if they do: counts and makespan bits
/// for two plans, any two errors counting as equal.
fn plan_mismatch(
    a: &fpm_core::Result<PartitionReport>,
    b: &fpm_core::Result<PartitionReport>,
) -> Option<String> {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            let same = a.distribution.counts() == b.distribution.counts()
                && a.makespan.to_bits() == b.makespan.to_bits();
            (!same).then(|| format!("makespan {} vs {}", a.makespan, b.makespan))
        }
        (Err(_), Err(_)) => None,
        (Ok(_), Err(e)) | (Err(e), Ok(_)) => Some(format!("only one side failed: {e}")),
    }
}

/// Runs the closed-form differential ([`check_closed_form`]) over seeded
/// clusters: per seed, the cost-conformance cluster ([`CaseSpec`], whose
/// piece-wise machines answer in closed form beside numeric ones) and the
/// all-piece-wise [`WireCluster`], whose every machine answers in closed
/// form.
pub fn run_closed_form_sweep(config: &ConformanceConfig) -> ConformanceReport {
    let cases = if config.cases == 0 { 150 } else { config.cases };
    let mut report = ConformanceReport::default();
    for i in 0..cases {
        let seed = config.base_seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let case = CaseSpec::from_seed(seed, &config.gen);
        let refs = erase(&case.funcs);
        report.failures.extend(check_closed_form(seed, &case.descriptor, case.n, &refs));
        let wire = WireCluster::from_seed(seed, &config.gen);
        let models = wire.build();
        let descriptor = format!("wire p={} n={}", models.len(), wire.n);
        report.failures.extend(check_closed_form(seed, &descriptor, wire.n, &erase(&models)));
        report.cases_run += 1;
    }
    report
}

/// Differentially pins the combined algorithm's seeded cold solve on one
/// cluster: [`CombinedPartitioner::partition`], which starts the warm
/// machinery from the single-number line, must equal the paper-literal
/// [`CombinedPartitioner::partition_explain`] — equal counts and makespan
/// bits, or errors with equal `Display` text.
pub fn check_seeded_cold<F: CostFunction>(
    seed: u64,
    descriptor: &str,
    n: u64,
    funcs: &[F],
) -> Vec<CaseFailure> {
    let combined = CombinedPartitioner::new();
    let seeded = combined.partition(n, funcs);
    let paper = combined.partition_explain(n, funcs).map(|(report, _)| report);
    let mismatch = match (&seeded, &paper) {
        (Err(a), Err(b)) => {
            (a.to_string() != b.to_string()).then(|| format!("errors \"{a}\" vs \"{b}\""))
        }
        _ => plan_mismatch(&seeded, &paper),
    };
    mismatch
        .map(|m| CaseFailure {
            seed,
            algorithm: "combined",
            descriptor: descriptor.to_string(),
            message: format!("seeded and paper-literal cold solves diverged at n={n}: {m}"),
        })
        .into_iter()
        .collect()
}

/// Runs the seeded-cold differential ([`check_seeded_cold`]) over seeded
/// clusters: per seed, the [`CaseSpec`] cluster plain and under the sort
/// and query cost transforms, and the all-piece-wise [`WireCluster`] at
/// its own size, one element less, and `n/1000 + 7` elements less.
pub fn run_seeded_cold_sweep(config: &ConformanceConfig) -> ConformanceReport {
    let cases = if config.cases == 0 { 150 } else { config.cases };
    let mut report = ConformanceReport::default();
    for i in 0..cases {
        let seed = config.base_seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let case = CaseSpec::from_seed(seed, &config.gen);
        let sort: Vec<SortCost<'_, dyn SpeedFunction>> =
            case.funcs.iter().map(|f| SortCost::new(f.as_ref())).collect();
        let query: Vec<QueryCost<'_, dyn SpeedFunction>> =
            case.funcs.iter().map(|f| QueryCost::new(f.as_ref(), DEFAULT_QUERY_GAMMA)).collect();
        let d = &case.descriptor;
        report.failures.extend(check_seeded_cold(seed, d, case.n, &case.funcs));
        report.failures.extend(check_seeded_cold(seed, &format!("{d} sort"), case.n, &sort));
        report.failures.extend(check_seeded_cold(seed, &format!("{d} query"), case.n, &query));
        let wire = WireCluster::from_seed(seed, &config.gen);
        let models = wire.build();
        let n = wire.n;
        for m in [n, n.saturating_sub(1), n.saturating_sub(n / 1000 + 7)] {
            let descriptor = format!("wire p={} n={m}", models.len());
            report.failures.extend(check_seeded_cold(seed, &descriptor, m, &models));
        }
        report.cases_run += 1;
    }
    report
}

/// The residue greedy one element at a time, `O(p·r)`: from the floors of
/// `lo` (capped), each element goes to the machine whose time after taking
/// it is smallest by `total_cmp`, ties to the lower index, never past its
/// cap. `None` when the caps run out first.
fn greedy_residue<F: CostFunction>(
    n: u64,
    funcs: &[F],
    lo: &[f64],
    caps: Option<&[u64]>,
) -> Option<Vec<u64>> {
    let cap = |i: usize| caps.map_or(u64::MAX, |c| c[i]);
    let mut counts: Vec<u64> =
        lo.iter().enumerate().map(|(i, &l)| (l.max(0.0).floor() as u64).min(cap(i))).collect();
    let assigned: u64 = counts.iter().sum();
    for _ in assigned..n {
        let mut best: Option<(f64, usize)> = None;
        for (i, &c) in counts.iter().enumerate().filter(|&(i, &c)| c < cap(i)) {
            let key = funcs[i].time((c + 1) as f64);
            if best.map_or(true, |(b, _)| key.total_cmp(&b).is_lt()) {
                best = Some((key, i));
            }
        }
        counts[best?.1] += 1;
    }
    Some(counts)
}

/// The single-number baseline's plan by the naive `O(p²)` residue loop of
/// its reference \[6\], from the baseline's proportional floors (scaled
/// when the speeds sum to ∞, each capped at what is left of `n`): each
/// element goes to the machine with the smallest `(x_i + 1)/s_i` by
/// `total_cmp`, ties to the lower index. `None` where the baseline must
/// return an error.
fn naive_single_number(n: u64, speeds: &[f64]) -> Option<Vec<u64>> {
    if speeds.is_empty() || speeds.iter().any(|s| !(s.is_finite() && *s >= 0.0)) {
        return None;
    }
    let total: f64 = speeds.iter().sum();
    if total <= 0.0 {
        return None;
    }
    let scale = if total.is_infinite() { 2f64.powi(-128) } else { 1.0 };
    let total: f64 = speeds.iter().map(|&s| s * scale).sum();
    let mut assigned = 0u64;
    let mut counts: Vec<u64> = speeds
        .iter()
        .map(|&s| {
            let floor = ((n as f64 * (s * scale) / total).floor() as u64).min(n - assigned);
            assigned += floor;
            floor
        })
        .collect();
    for _ in assigned..n {
        let (_, best) = counts
            .iter()
            .zip(speeds)
            .enumerate()
            .filter(|&(_, (_, &s))| s > 0.0)
            .map(|(i, (&c, &s))| (c.saturating_add(1) as f64 / s, i))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))?;
        counts[best] += 1;
    }
    Some(counts)
}

/// A constant speed whose time is NaN, of either sign, at some counts and
/// infinite past a size.
struct Patchy {
    speed: f64,
    nan_every: u64,
    finite_up_to: f64,
}

impl CostFunction for Patchy {
    fn time(&self, x: f64) -> f64 {
        match x as u64 % self.nan_every {
            _ if x > self.finite_up_to => f64::INFINITY,
            1 => f64::NAN,
            2 => -f64::NAN,
            _ => x / self.speed,
        }
    }
}

/// One residue run: the input, the entry point, its plan and the naive
/// plan (`None` for an error, or for caps that ran out).
type ResidueRun = (String, &'static str, Option<Vec<u64>>, Option<Vec<u64>>);

/// [`fine_tune`] from the steep intersections `lo` against the naive
/// greedy from the same floors.
fn tune_run<F: CostFunction>(input: String, n: u64, funcs: &[F], lo: &[f64]) -> ResidueRun {
    let plan = fine_tune(n, funcs, lo).counts().to_vec();
    (input, "fine-tune", Some(plan), greedy_residue(n, funcs, lo, None))
}

/// The single-number baseline on explicit speeds against its naive loop.
fn single_number_run(input: String, n: u64, speeds: &[f64]) -> ResidueRun {
    let plan = SingleNumberPartitioner::at_size(1.0).partition_with_speeds(n, speeds);
    let plan = plan.ok().map(|d| d.counts().to_vec());
    (input, "single-number", plan, naive_single_number(n, speeds))
}

/// The single-number baseline's fixed inputs: subnormal speeds, whose
/// times overflow to ∞; speeds near `f64::MAX`, whose sum does; and sizes
/// from 2⁵³ to `u64::MAX`, where `n as f64` rounds (up, at 2⁶⁰ − 1 and
/// `u64::MAX` − 1), so the floors can sum past `n`.
fn single_number_extremes() -> Vec<ResidueRun> {
    let extreme_speeds: [&[f64]; 5] = [
        &[1e-310, 1e-310],
        &[5e-324, 1e-310, 2.5e-308],
        &[1e-310, 1.0, 0.0],
        &[f64::MAX, f64::MAX / 3.0, 1.0],
        &[f64::MAX, 5e-324],
    ];
    let rounding_sizes: [(u64, &[f64]); 8] = [
        ((1 << 53) + 1, &[3.0, 1.0]),
        ((1 << 60) - 1, &[3.0, 1.0]),
        ((1 << 60) - 1, &[1.0, 1.0, 1.0]),
        (u64::MAX - 1, &[1.0]),
        (u64::MAX - 1, &[1.0, 1.0]),
        (u64::MAX, &[1.0]),
        (u64::MAX, &[5.0, 1.0]),
        (1 << 53, &[f64::MAX, f64::MAX]),
    ];
    extreme_speeds
        .into_iter()
        .flat_map(|speeds| [1u64, 2, 3, 17, 1000, 1 << 40].map(|n| (n, speeds)))
        .chain(rounding_sizes)
        .map(|(n, speeds)| single_number_run(format!("speeds {speeds:?} n={n}"), n, speeds))
        .collect()
}

/// The failures among `runs`: every plan that differs from its reference.
fn residue_failures(seed: u64, runs: Vec<ResidueRun>) -> impl Iterator<Item = CaseFailure> {
    runs.into_iter().filter(|(_, _, got, want)| got != want).map(
        move |(descriptor, algorithm, got, want)| CaseFailure {
            seed,
            algorithm,
            descriptor,
            message: format!("plan {got:?}, naive greedy {want:?}"),
        },
    )
}

/// Differentially pins the residue assignment on inputs derived from
/// `seed`: [`fine_tune`], [`partition_bounded`] (fine-tuning under caps)
/// and [`SingleNumberPartitioner::partition_with_speeds`] must return
/// exactly the plans of a naive greedy that hands out one element at a
/// time to the machine with the smallest time after taking it, ties to the
/// lower index (for the baseline, the naive `O(p²)` loop of its reference
/// \[6\] from the same floors). The bounded report must also carry the
/// naive plan's makespan bits.
///
/// The inputs reach both paths of the residue routine. The real optimum as
/// the bracket of the generated cluster leaves fewer elements than
/// machines, none of which needs a machine twice. Brackets several
/// elements wide, and `lo = 0`, leave more than `p`. A machine 1000 times
/// faster than the others must take several of `r ≤ p` elements. Equal
/// speeds tie the keys, and NaN or infinite times at some counts test the
/// key order. The baseline also runs at sizes up to 2⁶⁰, where rounding
/// can leave a residue beyond `p`, and on up to 300 machines with speed
/// ratios up to 10⁴. The bounded solver's naive plan starts
/// from zero: with strictly increasing times every element below the
/// floors of a steep bounding line is cheaper than every element above
/// them, so the plan from zero is the plan from any steep line's floors.
pub fn check_residue(seed: u64, gen: &GenConfig) -> Vec<CaseFailure> {
    let case = CaseSpec::from_seed(seed, gen);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x2E51_D0E0_0000_0001);
    let (n, p, funcs, d) = (case.n, case.funcs.len(), &case.funcs, &case.descriptor);
    let mut runs: Vec<ResidueRun> = Vec::new();
    let mut failures = Vec::new();

    // The generated cluster: its converged and widened brackets, and a
    // few elements from lo = 0. Floors above n are shed, not a residue.
    let small = rng.gen_range(1..=20 * p as u64);
    let mut brackets = vec![(format!("{d} lo=0 n={small}"), small, vec![0.0; p])];
    if let Ok((xs, _)) = oracle::solve_real(n, funcs) {
        let wide = xs.iter().map(|&x| (x - rng.gen_range(2.0..8.0)).max(0.0)).collect();
        brackets.push((format!("{d} converged"), n, xs));
        brackets.push((format!("{d} wide"), n, wide));
    }
    for (input, m, lo) in brackets {
        if lo.iter().map(|&l| l.floor() as u64).sum::<u64>() <= m {
            runs.push(tune_run(input, m, funcs, &lo));
        }
    }

    // Fine-tuning under caps, some binding and Σ caps possibly short.
    let caps: Vec<u64> = match oracle::solve_real(small, funcs) {
        Ok((xs, _)) => xs.iter().map(|&x| (rng.gen_range(0.3..1.6) * (x + 1.0)) as u64).collect(),
        Err(_) => vec![small; p],
    };
    let input = format!("{d} n={small} caps={caps:?}");
    let naive = greedy_residue(small, funcs, &vec![0.0; p], Some(&caps));
    let bounded = partition_bounded(small, funcs, &caps).ok();
    if let (Some(report), Some(want)) = (&bounded, &naive) {
        let makespan = Distribution::new(want.clone()).makespan(funcs);
        if report.makespan.to_bits() != makespan.to_bits() {
            failures.push(CaseFailure {
                seed,
                algorithm: "bounded",
                descriptor: input.clone(),
                message: format!("makespan {} vs the naive plan's {makespan}", report.makespan),
            });
        }
    }
    let plan = bounded.map(|r| r.distribution.counts().to_vec());
    runs.push((input, "bounded", plan, naive));

    // A machine 1000 times faster than the rest, 10 elements below its
    // share and the others at theirs: it takes several of r ≤ q elements.
    let q = rng.gen_range(2..=12usize);
    let fast = rng.gen_range(0..q);
    let t0 = rng.gen_range(10.0..1e4);
    let pair: Vec<f64> =
        (0..q).map(|i| if i == fast { 1000.0 } else { rng.gen_range(1.0..2.0) }).collect();
    let lo: Vec<f64> =
        (0..q).map(|i| (pair[i] * t0).floor() - 10.0 * f64::from(i == fast)).collect();
    let m_pair = lo.iter().sum::<f64>() as u64 + rng.gen_range(2..=q as u64);
    let constants: Vec<ConstantSpeed> = pair.iter().map(|&s| ConstantSpeed::new(s)).collect();
    runs.push(tune_run(format!("1000:1 q={q} n={m_pair}"), m_pair, &constants, &lo));

    // Equal speeds: floors k or k + 1, so keys tie across machines.
    let k = rng.gen_range(0..1000u64);
    let lo: Vec<f64> = (0..q).map(|_| (k + rng.gen_range(0..2u64)) as f64).collect();
    let m_ties = lo.iter().sum::<f64>() as u64 + rng.gen_range(1..=2 * q as u64);
    let equal = vec![ConstantSpeed::new(rng.gen_range(1.0..100.0)); q];
    runs.push(tune_run(format!("ties q={q} n={m_ties}"), m_ties, &equal, &lo));

    // NaN and infinite times.
    let lo: Vec<f64> = (0..q).map(|_| rng.gen_range(0..1000u64) as f64).collect();
    let patchy: Vec<Patchy> = lo
        .iter()
        .map(|&l| Patchy {
            speed: rng.gen_range(1.0..10.0),
            nan_every: rng.gen_range(3..=9),
            finite_up_to: l + rng.gen_range(0.0..4.0),
        })
        .collect();
    let m_nan = lo.iter().sum::<f64>() as u64 + rng.gen_range(1..=2 * q as u64);
    runs.push(tune_run(format!("nan q={q} n={m_nan}"), m_nan, &patchy, &lo));

    // The single-number baseline against its naive loop.
    let share = (n as f64 / p as f64).max(1.0);
    let sampled: Vec<f64> =
        funcs.iter().map(|f| CostFunction::throughput(f, share).max(0.0)).collect();
    let huge = 2f64.powf(rng.gen_range(53.0..=60.0)) as u64;
    let tied = vec![equal[0].speed; q];
    let wide_p = rng.gen_range(1..=300usize);
    let ratio = 10f64.powf(rng.gen_range(0.0..=4.0));
    let spread: Vec<f64> = (0..wide_p).map(|_| rng.gen_range(1.0..=ratio)).collect();
    let m_spread = 2f64.powf(rng.gen_range(0.0..=60.0)) as u64;
    for (input, m, speeds) in [
        (format!("{d} sampled at n/p"), n, &sampled),
        (format!("{d} sampled at n/p, n={huge}"), huge, &sampled),
        (format!("1000:1 q={q} n={m_pair}"), m_pair, &pair),
        (format!("ties q={q} n={m_ties}"), m_ties, &tied),
        (format!("p={wide_p} ratio {ratio:.1} n={m_spread}"), m_spread, &spread),
    ] {
        runs.push(single_number_run(input, m, speeds));
    }

    failures.extend(residue_failures(seed, runs));
    failures
}

/// Runs the residue differential ([`check_residue`]) over seeded clusters,
/// and once over the single-number baseline's fixed extreme inputs
/// (reported under `base_seed`).
pub fn run_residue_sweep(config: &ConformanceConfig) -> ConformanceReport {
    let cases = if config.cases == 0 { 300 } else { config.cases };
    let mut report = ConformanceReport::default();
    report.failures.extend(residue_failures(config.base_seed, single_number_extremes()));
    for i in 0..cases {
        let seed = config.base_seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        report.failures.extend(check_residue(seed, &config.gen));
        report.cases_run += 1;
    }
    report
}

/// Runs the warm-start differential sweep over seeded clusters: every
/// registry entry, every case, cold vs warm bit-identity
/// ([`check_warm_start`]).
pub fn run_warm_start_sweep(config: &ConformanceConfig) -> ConformanceReport {
    let cases = if config.cases == 0 { 120 } else { config.cases };
    let mut report = ConformanceReport::default();
    for i in 0..cases {
        let seed = config.base_seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let case = CaseSpec::from_seed(seed, &config.gen);
        report.failures.extend(check_warm_start(&case));
        report.cases_run += 1;
    }
    report
}

/// Runs a full conformance sweep: `cases` seeded clusters, every
/// production partitioner checked on each.
pub fn run_conformance(config: &ConformanceConfig) -> ConformanceReport {
    let cases = if config.cases == 0 { 500 } else { config.cases };
    let mut report = ConformanceReport::default();
    for i in 0..cases {
        let seed = config.base_seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let case = CaseSpec::from_seed(seed, &config.gen);

        // Diagnostics: track the worst gap and deepest trace observed.
        if let Ok(reference) = oracle::solve(case.n, &case.funcs) {
            for r in [
                BisectionPartitioner::new().partition(case.n, &case.funcs),
                ModifiedPartitioner::new().partition(case.n, &case.funcs),
            ]
            .into_iter()
            .flatten()
            {
                let rel =
                    (r.makespan - reference.makespan).abs() / reference.makespan.max(1e-30);
                if rel.is_finite() {
                    report.max_rel_gap = report.max_rel_gap.max(rel);
                }
                report.max_steps = report.max_steps.max(r.trace.steps());
            }
        } else {
            report.oracle_rejections += 1;
        }

        report.failures.extend(check_case(&case, &config.tol));
        report.cases_run += 1;
    }
    report
}

/// Runs the nonlinear-entry conformance sweep: `cases` seeded clusters,
/// the sort- and query-shaped registry entries checked against their
/// cost-domain oracles on each ([`check_cost_case`]).
pub fn run_cost_conformance(config: &ConformanceConfig) -> ConformanceReport {
    let cases = if config.cases == 0 { 150 } else { config.cases };
    let mut report = ConformanceReport::default();
    for i in 0..cases {
        let seed = config.base_seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let case = CaseSpec::from_seed(seed, &config.gen);
        report.failures.extend(check_cost_case(&case, &config.tol));
        report.cases_run += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpm_core::speed::PiecewiseLinearSpeed;

    #[test]
    fn small_sweep_is_clean() {
        let report = run_conformance(&ConformanceConfig {
            cases: 40,
            base_seed: 0xC0FF_EE00,
            ..ConformanceConfig::default()
        });
        assert_eq!(report.cases_run, 40);
        report.assert_ok();
    }

    #[test]
    fn small_warm_start_sweep_is_bit_identical() {
        let report = run_warm_start_sweep(&ConformanceConfig {
            cases: 12,
            base_seed: 0x5EED_1E55,
            ..ConformanceConfig::default()
        });
        assert_eq!(report.cases_run, 12);
        report.assert_ok();
    }

    #[test]
    fn check_case_replays_a_single_seed() {
        let case = CaseSpec::from_seed(0xDEAD_BEEF, &GenConfig::default());
        let failures = check_case(&case, &Tolerances::default());
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn small_cost_sweep_is_clean() {
        let report = run_cost_conformance(&ConformanceConfig {
            cases: 25,
            base_seed: 0x0C05_7001,
            ..ConformanceConfig::default()
        });
        assert_eq!(report.cases_run, 25);
        report.assert_ok();
    }

    #[test]
    fn cost_case_checks_only_nonlinear_entries() {
        // Failures from the cost-only path can only name nonlinear
        // entries; the linear entries (and baselines) are out of scope.
        let nonlinear: Vec<&str> = registry()
            .iter()
            .filter(|i| i.cost.nonlinear())
            .map(|i| i.name)
            .collect();
        assert_eq!(nonlinear, ["sort-sample", "query"]);
        let case = CaseSpec::from_seed(0xC057_CA5E, &GenConfig::default());
        let failures = check_cost_case(&case, &Tolerances::default());
        assert!(failures.is_empty(), "{failures:?}");
        // A nonsensical tolerance flags every checked entry, proving the
        // filter actually ran both nonlinear entries and nothing else.
        let strict = check_cost_case(&case, &Tolerances { makespan_rel: -1.0, exchange: 5e-3 });
        assert!(!strict.is_empty());
        for f in &strict {
            assert!(nonlinear.contains(&f.algorithm), "unexpected entry {}", f.algorithm);
        }
    }

    #[test]
    fn closed_form_check_catches_a_wrong_closed_form() {
        // A piece-wise model whose closed form is off by 1 %: the cold
        // sort and query plans must differ from the numeric search's.
        struct Skewed(PiecewiseLinearSpeed);
        impl CostFunction for Skewed {
            fn time(&self, x: f64) -> f64 {
                CostFunction::time(&self.0, x)
            }
            fn max_size(&self) -> f64 {
                CostFunction::max_size(&self.0)
            }
            fn throughput(&self, x: f64) -> f64 {
                CostFunction::throughput(&self.0, x)
            }
            fn intersect_slope(&self, slope: f64) -> Option<f64> {
                CostFunction::intersect_slope(&self.0, slope).map(|x| x * 1.01)
            }
        }
        let wire = WireCluster::from_seed(0xC105_EDF1, &GenConfig::default());
        let skewed: Vec<Skewed> = wire.build().into_iter().map(Skewed).collect();
        let failures = check_closed_form(0xC105_EDF1, "skewed", wire.n, &erase(&skewed));
        assert!(
            failures.iter().any(|f| f.algorithm == "sort-sample")
                && failures.iter().any(|f| f.algorithm == "query"),
            "{failures:?}"
        );

        // A piece-wise model whose knots sit 1 % right of its own: the
        // segment search must diverge from both references. (Knots that
        // scale every speed alike would only rescale the slope.)
        struct StretchedKnots(PiecewiseLinearSpeed, Vec<(f64, f64)>);
        impl CostFunction for StretchedKnots {
            fn time(&self, x: f64) -> f64 {
                CostFunction::time(&self.0, x)
            }
            fn max_size(&self) -> f64 {
                CostFunction::max_size(&self.0)
            }
            fn throughput(&self, x: f64) -> f64 {
                CostFunction::throughput(&self.0, x)
            }
            fn intersect_slope(&self, slope: f64) -> Option<f64> {
                CostFunction::intersect_slope(&self.0, slope)
            }
            fn speed_knots(&self) -> Option<&[(f64, f64)]> {
                Some(&self.1)
            }
        }
        let stretched: Vec<StretchedKnots> = wire
            .build()
            .into_iter()
            .map(|m| {
                let knots = m.knots().iter().map(|&(x, s)| (x * 1.01, s)).collect();
                StretchedKnots(m, knots)
            })
            .collect();
        let failures =
            check_closed_form(0xC105_EDF1, "stretched knots", wire.n, &erase(&stretched));
        for algorithm in ["sort-sample", "query"] {
            for reference in ["numeric search", "base inversion"] {
                assert!(
                    failures
                        .iter()
                        .any(|f| f.algorithm == algorithm && f.message.contains(reference)),
                    "{algorithm} vs {reference}: {failures:?}"
                );
            }
        }
    }

    #[test]
    fn env_parsers_fall_back() {
        // The variables are unset in unit tests.
        assert_eq!(env_cases(123), 123);
        assert_eq!(env_cost_cases(77), 77);
        assert_eq!(env_base_seed(0xAB), 0xAB);
    }

    #[test]
    fn failure_display_embeds_seed() {
        let f = CaseFailure {
            seed: 0x1234,
            algorithm: "basic",
            descriptor: "p=2 n=10".into(),
            message: "boom".into(),
        };
        let s = f.to_string();
        assert!(s.contains("0x0000000000001234"), "{s}");
        assert!(s.contains("basic"), "{s}");
    }
}
