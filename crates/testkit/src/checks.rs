//! The individual conformance invariants, reusable outside the engine.
//!
//! Each check returns `Result<(), String>` so callers (the conformance
//! engine, ad-hoc tests) can aggregate diagnostics instead of aborting on
//! the first violation.

use fpm_core::cost::CostFunction;
use fpm_core::partition::{oracle, Distribution, PartitionReport};
use fpm_core::planner::{erase, AlgorithmId};
use fpm_core::speed::{
    ModelRefiner, PiecewiseLinearSpeed, RefineConfig, RefineOutcome, RejectReason, SpeedFunction,
};
use fpm_core::trace::Trace;
use fpm_simnet::FluctuatingMeasurer;

use crate::gen::DriftScenario;

/// Exact element conservation: the allocation must distribute all `n`
/// elements, no more, no fewer.
pub fn check_conservation(distribution: &Distribution, n: u64) -> Result<(), String> {
    let total = distribution.total();
    if total == n {
        Ok(())
    } else {
        Err(format!("conservation violated: distributed {total} of {n} elements"))
    }
}

/// Relative makespan gap against the oracle: `|m − m*| / max(m*, floor)`.
///
/// Fails when the candidate is more than `tolerance` *worse* than the
/// oracle; a candidate *better* than the oracle by more than `tolerance`
/// also fails, because the oracle is supposed to be optimal — such a case
/// is an oracle bug the differential harness must surface.
pub fn check_makespan_gap(
    makespan: f64,
    oracle_makespan: f64,
    tolerance: f64,
) -> Result<(), String> {
    if !makespan.is_finite() {
        return Err(format!("non-finite makespan {makespan}"));
    }
    let rel = (makespan - oracle_makespan) / oracle_makespan.max(1e-30);
    if rel > tolerance {
        Err(format!(
            "makespan {makespan} exceeds oracle {oracle_makespan} by {rel:.2e} (tol {tolerance:.0e})"
        ))
    } else if rel < -tolerance {
        Err(format!(
            "makespan {makespan} BEATS oracle {oracle_makespan} by {:.2e} — oracle suboptimal",
            -rel
        ))
    } else {
        Ok(())
    }
}

/// The reported makespan must be the plan's makespan in `funcs`, the
/// entry's own cost domain, bit for bit: a solver may reuse the times it
/// evaluated while fine-tuning, but not change them.
pub fn check_reported_makespan<F: CostFunction>(
    report: &PartitionReport,
    funcs: &[F],
) -> Result<(), String> {
    let plan = report.distribution.makespan(funcs);
    if report.makespan.to_bits() == plan.to_bits() {
        Ok(())
    } else {
        Err(format!("reported makespan {} is not the plan's {plan}", report.makespan))
    }
}

/// No single-element move may improve the makespan beyond `tolerance`
/// (the verifiable counterpart of the paper's §2 uniqueness argument).
///
/// Generic over [`CostFunction`] so the check runs in whatever time
/// domain the caller's models live in: pass the raw speed models for
/// the linear entries, or the sort/query cost transforms for the
/// nonlinear ones — optimality is judged on *time*, not speed.
pub fn check_exchange_optimal<F: CostFunction>(
    distribution: &Distribution,
    funcs: &[F],
    tolerance: f64,
) -> Result<(), String> {
    if oracle::is_exchange_optimal(distribution, funcs, tolerance) {
        Ok(())
    } else {
        Err(format!(
            "not exchange-optimal at tolerance {tolerance:.0e}: counts {:?}",
            distribution.counts()
        ))
    }
}

/// Complexity envelope for a trace, from the paper's §2 analysis.
#[derive(Debug, Clone, Copy)]
pub enum BoundClass {
    /// `O(log n)` iterations (each costing `O(p)` evaluations): the basic
    /// bisection and secant searches on well-behaved shapes. The envelope
    /// is `base + factor·log₂(n+2)` iterations.
    LogN {
        /// Additive constant.
        base: usize,
        /// Multiplier on `log₂(n+2)`.
        factor: usize,
    },
    /// `O(p·log n)` iterations (total `O(p²·log n)` evaluations): the
    /// modified algorithm's guaranteed budget `4·p·log₂(n+2) + 64`.
    PLogN,
}

/// Checks a trace's iteration count against the paper's complexity claim.
/// Bracket widenings ([`Trace::bracket_probes`]) count as iterations: each
/// costs the same `O(p)` intersection sweep as a search step.
pub fn check_iteration_bound(
    trace: &Trace,
    n: u64,
    p: usize,
    class: BoundClass,
) -> Result<(), String> {
    let log_n = ((n + 2) as f64).log2().ceil() as usize;
    let bound = match class {
        BoundClass::LogN { base, factor } => base + factor * log_n,
        BoundClass::PLogN => 4 * p * log_n + 64,
    };
    let steps = trace.steps() + trace.bracket_probes;
    if steps <= bound {
        Ok(())
    } else {
        Err(format!(
            "iteration bound violated: {steps} steps and bracket probes > {bound} allowed \
             ({class:?}, n={n}, p={p})"
        ))
    }
}

/// Outcome of probing one machine at one size inside
/// [`refinement_conformance`].
enum Probe {
    /// An observation corroborated and the model was refit.
    Refined,
    /// The model already predicts this size within the refiner's band.
    InBand,
    /// All corroboration attempts stayed pending/rejected.
    NoChange,
    /// The observation budget ran out mid-probe.
    OutOfBudget,
}

/// Observes machine `i` at size `x` up to `corroboration` times, feeding
/// each observation through its refiner and applying an accepted refit to
/// `current[i]`. Every observation counts against `max_reports`.
#[allow(clippy::too_many_arguments)]
fn probe(
    measurers: &mut [FluctuatingMeasurer<PiecewiseLinearSpeed>],
    refiners: &mut [ModelRefiner],
    current: &mut [PiecewiseLinearSpeed],
    i: usize,
    x: f64,
    corroboration: usize,
    reports: &mut usize,
    max_reports: usize,
) -> Probe {
    for _ in 0..corroboration {
        if *reports >= max_reports {
            return Probe::OutOfBudget;
        }
        let s_obs = measurers[i].observe(x);
        *reports += 1;
        match refiners[i].observe(&current[i], x, s_obs) {
            RefineOutcome::Refined(m) => {
                current[i] = m;
                return Probe::Refined;
            }
            // In band: the model is already accurate here, move on without
            // burning budget on corroboration.
            RefineOutcome::Rejected(RejectReason::InBand) => return Probe::InBand,
            // Pending (or any other rejection): observe again to
            // corroborate before giving up on this size.
            RefineOutcome::Rejected(_) => {}
        }
    }
    Probe::NoChange
}

/// Slack allowed on the deployed-plan monotonicity assertion of
/// [`refinement_conformance`], absorbing rounding-scale wobble between
/// plans measured under the drifted truth.
const MONOTONE_SLACK: f64 = 1e-9;

/// Drives one drift scenario through the online-refinement loop and
/// checks the convergence contract end to end:
///
/// 1. partition on the *current* (initially stale) models,
/// 2. evaluate that plan under the drifted **truth** and compare with the
///    oracle's optimum on the truth — the relative gap is the makespan
///    error,
/// 3. observe every loaded machine at its assigned count through a
///    [`ModelRefiner`] (re-observing for corroboration when the first
///    observation lands out of band), refit all that corroborate, and
///    re-plan.
///
/// Refits are applied **jointly per round** before re-planning: fixing one
/// stale model at a time would shift load onto machines that are *also*
/// still stale and churn the plan machine by machine, so round granularity
/// is both the budget-efficient and the stable way to re-plan. Only
/// *observations* count against `max_reports` — solves are free — and a
/// machine that was already in band at (nearly) the same size is not
/// re-observed, so the budget is spent on stale bands, not confirmations.
/// After an accepted refit at size `x` the loop also probes the model knot
/// directly **below** `x`: a refit only corrects the containing segment,
/// and on a steeply decaying model the re-plan walks the assignment down
/// into the still-stale band one segment-sliver per round — pinning the
/// lower endpoint makes the whole landing segment exact and collapses that
/// geometric walk into a couple of observations.
///
/// Two convergence facts are asserted:
///
/// * **Monotone deployed-plan error.** The true makespan error of raw
///   intermediate plans is not monotone in principle: a re-plan
///   legitimately shifts load onto machines (or sizes) no observation has
///   validated yet, and a stale model there books the load below its true
///   cost. A correct refinement loop therefore never *deploys* such a
///   plan sight unseen — it keeps the incumbent until observations
///   validate the candidate (every probe of the sweep in band). The
///   deployed sequence — the stale plan the cluster was running, each
///   validated candidate, and the converged plan — must have monotone
///   non-increasing true makespan error (to within rounding slack).
/// * **Convergence.** The deployed plan's **true** makespan error against
///   the oracle's optimum on the drifted truth must drop to `tol` within
///   `max_reports` observations.
///
/// Returns the number of observations consumed.
pub fn refinement_conformance(
    scenario: &DriftScenario,
    max_reports: usize,
    tol: f64,
) -> Result<usize, String> {
    let n = scenario.n;
    let truth = scenario.truth_models();
    let oracle_best = oracle::solve(n, &truth)
        .map_err(|e| format!("oracle rejected the drifted truth: {e} [{}]", scenario.descriptor))?
        .makespan
        .max(1e-30);
    let mut current = scenario.initial_models();
    let mut measurers = scenario.measurers();
    // The in-band dead zone must be tighter than the makespan tolerance
    // being certified, else residual model error below the band (but above
    // `tol`) stalls the loop; the server's default ±5% band is sized for
    // real workload noise, not for a convergence proof.
    let cfg = RefineConfig {
        fluctuation: (tol * 0.2).min(RefineConfig::default().fluctuation).max(1e-6),
        // Deterministic measurers corroborate themselves: a second
        // identical sample carries no information, it only burns budget.
        // Real noise keeps the default gate.
        corroboration: if scenario.noise == 0.0 { 1 } else { RefineConfig::default().corroboration },
        ..RefineConfig::default()
    };
    let corroboration = cfg.corroboration.max(1);
    let mut refiners: Vec<ModelRefiner> =
        (0..current.len()).map(|_| ModelRefiner::new(cfg)).collect();
    let p = current.len();
    // Last size at which each machine's observation landed in band; sizes
    // within 5% of it are trusted without a fresh observation.
    let mut in_band_at: Vec<Option<f64>> = vec![None; p];
    let mut forced = false;
    let mut reports = 0usize;
    let mut deployed_err = f64::INFINITY;
    'replan: loop {
        let plan = AlgorithmId::Combined.solve(n, &erase(&current)).map_err(|e| {
            format!(
                "combined failed on refined models after {reports} reports: {e} [{}]",
                scenario.descriptor
            )
        })?;
        let counts = plan.distribution.counts();
        let true_makespan = counts
            .iter()
            .zip(&truth)
            .map(|(&c, t)| {
                if c == 0 {
                    0.0
                } else {
                    let x = c as f64;
                    x / t.speed(x).max(1e-30)
                }
            })
            .fold(0.0f64, f64::max);
        let err = (true_makespan - oracle_best) / oracle_best;
        // The stale plan the cluster was running before any observation is
        // the first deployed plan; validated candidates must improve on it.
        if deployed_err.is_infinite() {
            deployed_err = err;
        }
        // A plan at `tol` is deployed as final: it beats every previously
        // deployed plan because those all measured above `tol` (else the
        // loop would have returned there).
        if err <= tol {
            return Ok(reports);
        }
        if reports >= max_reports {
            return Err(format!(
                "did not converge: error {err:.3e} > tol {tol:.0e} after {reports} reports [{}]",
                scenario.descriptor
            ));
        }
        let mut moved = false;
        let mut skipped = false;
        for i in 0..p {
            // A machine the plan left unloaded still needs a validated
            // model at the margin: a later re-plan may place its first
            // element(s) here, and a stale model at tiny sizes books that
            // element far below its true cost — the classic way a "better"
            // plan regresses. One skip-cached probe at x = 1 pins the
            // marginal cost up front.
            let x = if counts[i] == 0 { 1.0 } else { counts[i] as f64 };
            if !forced {
                if let Some(x0) = in_band_at[i] {
                    if (x - x0).abs() <= 0.05 * x0 {
                        skipped = true;
                        continue;
                    }
                }
            }
            match probe(&mut measurers, &mut refiners, &mut current, i, x, corroboration, &mut reports, max_reports)
            {
                Probe::OutOfBudget => continue 'replan, // budget check above reports
                Probe::InBand => in_band_at[i] = Some(x),
                Probe::NoChange => {}
                Probe::Refined => {
                    in_band_at[i] = None;
                    moved = true;
                    // Cascade down and up the knot ladder from the refit.
                    // The refit rescaled only the containing segment's
                    // endpoints, which (a) leaves the bands a re-plan's
                    // shifted assignment lands in partially corrected —
                    // the assignment would crawl through them one
                    // segment-sliver per round — and (b) drags any
                    // previously observation-pinned neighbour off its
                    // evidence. Probing knot by knot re-fits each in place
                    // (knot-merge path) and stops at the first in-band
                    // probe, so a machine whose band is already accurate
                    // pays one confirming observation per direction. The
                    // cascade stays within the refiner's "same region"
                    // factor of the assignment — re-plans move a count by
                    // at most a few× per round, and pinning knots the plan
                    // cannot reach only burns budget.
                    let reach = cfg.region.max(1.0);
                    for dir in [-1.0f64, 1.0] {
                        let mut edge = x;
                        loop {
                            let next = if dir < 0.0 {
                                current[i]
                                    .knots()
                                    .iter()
                                    .rev()
                                    .find(|k| k.0 < edge * (1.0 - 1e-9))
                                    .filter(|k| k.0 >= x / reach)
                                    .map(|k| k.0)
                            } else {
                                current[i]
                                    .knots()
                                    .iter()
                                    .find(|k| k.0 > edge * (1.0 + 1e-9) && k.1 > 0.0)
                                    .filter(|k| k.0 <= x * reach)
                                    .map(|k| k.0)
                            };
                            let Some(xk) = next else { break };
                            match probe(&mut measurers, &mut refiners, &mut current, i, xk, corroboration, &mut reports, max_reports)
                            {
                                Probe::OutOfBudget => continue 'replan,
                                Probe::Refined => edge = xk,
                                Probe::InBand | Probe::NoChange => break,
                            }
                        }
                    }
                }
            }
        }
        if moved {
            forced = false;
            continue;
        }
        if skipped && !forced {
            // Nothing moved but some machines were trusted from an earlier
            // in-band size: do one full sweep before concluding anything
            // about this plan.
            forced = true;
            continue;
        }
        // A full sweep left every probe in band: the candidate plan is
        // validated by observation and displaces the incumbent — which it
        // must not regress on.
        if err > deployed_err + MONOTONE_SLACK {
            return Err(format!(
                "validated plan regressed on the deployed one after {reports} reports: \
                 {err:.3e} > {deployed_err:.3e} [{}]",
                scenario.descriptor
            ));
        }
        deployed_err = err;
        if scenario.noise == 0.0 {
            // Deterministic observations and a full fruitless sweep: the
            // loop will repeat forever, so fail now with the stuck state.
            return Err(format!(
                "stalled at error {err:.3e} (no observation moved any model) after {reports} \
                 reports [{}]",
                scenario.descriptor
            ));
        }
        forced = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpm_core::speed::ConstantSpeed;
    use fpm_core::trace::IterationRecord;

    #[test]
    fn conservation_check() {
        let d = Distribution::new(vec![3, 7]);
        assert!(check_conservation(&d, 10).is_ok());
        assert!(check_conservation(&d, 11).is_err());
    }

    #[test]
    fn makespan_gap_is_two_sided() {
        assert!(check_makespan_gap(100.0, 100.0, 5e-3).is_ok());
        assert!(check_makespan_gap(100.4, 100.0, 5e-3).is_ok());
        assert!(check_makespan_gap(101.0, 100.0, 5e-3).is_err());
        // Beating the oracle is an oracle bug, not a success.
        assert!(check_makespan_gap(99.0, 100.0, 5e-3).is_err());
        assert!(check_makespan_gap(f64::NAN, 100.0, 5e-3).is_err());
    }

    #[test]
    fn exchange_check_delegates() {
        let funcs = vec![ConstantSpeed::new(1.0), ConstantSpeed::new(100.0)];
        assert!(check_exchange_optimal(&Distribution::new(vec![100, 0]), &funcs, 1e-9).is_err());
        assert!(check_exchange_optimal(&Distribution::new(vec![1, 99]), &funcs, 1e-9).is_ok());
    }

    #[test]
    fn refinement_converges_on_a_small_seed_batch() {
        let cfg = crate::gen::GenConfig::default();
        for seed in 0..8u64 {
            let sc = DriftScenario::from_seed(seed, &cfg);
            let used = refinement_conformance(&sc, 64, 1e-2)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(used <= 64, "seed {seed} used {used} reports");
        }
    }

    #[test]
    fn refinement_rejects_an_impossible_budget() {
        let cfg = crate::gen::GenConfig::default();
        let sc = DriftScenario::from_seed(0, &cfg);
        // Zero observations allowed: the stale plan cannot converge.
        let err = refinement_conformance(&sc, 0, 1e-9).unwrap_err();
        assert!(err.contains("did not converge"), "{err}");
    }

    #[test]
    fn iteration_bounds() {
        let mut t = Trace::default();
        for step in 1..=50 {
            t.iterations.push(IterationRecord {
                step,
                lower_slope: 0.0,
                upper_slope: 1.0,
                trial_slope: 0.5,
                total_elements: 0.0,
                undershoot: false,
            });
        }
        assert!(check_iteration_bound(&t, 1 << 20, 4, BoundClass::PLogN).is_ok());
        assert!(
            check_iteration_bound(&t, 1 << 20, 4, BoundClass::LogN { base: 8, factor: 2 })
                .is_ok()
        );
        assert!(
            check_iteration_bound(&t, 2, 4, BoundClass::LogN { base: 1, factor: 1 }).is_err()
        );
        // The 50 steps exactly fill the LogN envelope above; one bracket
        // widening on top breaks it.
        t.bracket_probes = 1;
        assert!(
            check_iteration_bound(&t, 1 << 20, 4, BoundClass::LogN { base: 8, factor: 2 }).is_err()
        );
    }
}
