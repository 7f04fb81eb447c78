//! Deterministic differential-conformance and fault-injection harness for
//! the FPM partitioning stack.
//!
//! The paper's central claim is that every geometric partitioning
//! algorithm (basic, modified, combined + fine-tuning) lands on the unique
//! equal-time optimum of §2. This crate turns that claim into systematic,
//! reproducible tooling that the other crates' test suites consume:
//!
//! * [`gen`] — seeded generators for admissible heterogeneous clusters:
//!   analytic, piece-wise linear and simnet-profile-derived speed
//!   functions, with heterogeneity/paging/scale knobs. Every case is fully
//!   determined by a single `u64` seed. [`gen::DriftScenario`] extends
//!   this with stale-model clusters (a drifted "truth" per machine) for
//!   the online-refinement harness.
//! * [`conformance`] — the differential engine: runs every production
//!   partitioner in the planner registry ([`fpm_core::planner::registry`])
//!   against [`fpm_core::partition::oracle::solve`] over generated
//!   clusters and checks conservation, makespan gap, exchange-optimality,
//!   and trace-derived iteration bounds in one pass. Entries added to the
//!   registry are picked up without testkit changes.
//! * [`fault`] — failure injectors for the model-building and execution
//!   paths: flaky/NaN/zero measurers and a no-panic assertion wrapper
//!   (simnet's `FluctuatingMeasurer::with_death_after` provides mid-sweep
//!   machine death).
//! * [`checks`] — the individual invariant checks, reusable outside the
//!   engine.
//!
//! # Reproducing a failure
//!
//! Conformance failures embed the case seed. Re-run just that case with:
//!
//! ```
//! use fpm_testkit::conformance::{check_case, Tolerances};
//! use fpm_testkit::gen::{CaseSpec, GenConfig};
//!
//! let case = CaseSpec::from_seed(0xBAD5EED, &GenConfig::default());
//! let failures = check_case(&case, &Tolerances::default());
//! assert!(failures.is_empty(), "{failures:?}");
//! ```
//!
//! The tier-1 suite (`tests/conformance.rs`) runs a bounded number of
//! cases; CI's scheduled job raises `FPM_TESTKIT_CASES` for the exhaustive
//! sweep. See `TESTING.md` at the repository root.

pub mod checks;
pub mod conformance;
pub mod fault;
pub mod gen;

pub use checks::{
    check_conservation, check_exchange_optimal, check_iteration_bound, check_makespan_gap,
    check_reported_makespan, refinement_conformance,
};
pub use conformance::{
    check_case, check_closed_form, check_residue, check_seeded_cold, check_warm_start,
    env_base_seed, env_cases, env_drift_cases, run_closed_form_sweep, run_conformance,
    run_residue_sweep, run_seeded_cold_sweep, run_warm_start_sweep, CaseFailure,
    ConformanceConfig, ConformanceReport, NumericOnly, Tolerances, WithoutKnots,
};
pub use fault::{assert_no_panic, FaultKind, FaultyMeasurer};
pub use gen::{CaseSpec, DriftScenario, GenConfig, ModelKind, WireCluster};
