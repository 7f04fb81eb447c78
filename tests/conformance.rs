//! Tier-1 differential conformance and fault-injection matrix.
//!
//! The sweep runs ≥500 seeded clusters (raise with `FPM_TESTKIT_CASES`,
//! replay a stream with `FPM_TESTKIT_SEED`; see TESTING.md) through every
//! production partitioner against the oracle. The fault matrix injects
//! measurer, builder, and worker-pool failures and asserts clean `Error`
//! results or faithful recovery — never panics, never silent corruption.

use fpm_core::error::Error;
use fpm_core::speed::builder::{build_speed_band, BuilderConfig};
use fpm_core::speed::{check_single_intersection, AnalyticSpeed, SpeedFunction, WidthLaw};
use fpm_exec::pool::WorkerPool;
use fpm_simnet::{FluctuatingMeasurer, Integration};
use fpm_testkit::conformance::{
    env_base_seed, env_cases, env_cost_cases, run_closed_form_sweep, run_conformance,
    run_cost_conformance, run_residue_sweep, run_seeded_cold_sweep, ConformanceConfig,
};
use fpm_testkit::fault::{assert_no_panic, FaultKind, FaultyMeasurer};
use fpm_testkit::GenConfig;

// ---------------------------------------------------------------------------
// Differential conformance sweep
// ---------------------------------------------------------------------------

#[test]
fn conformance_sweep_all_partitioners_match_oracle() {
    let config = ConformanceConfig {
        cases: env_cases(500),
        base_seed: env_base_seed(0xD1FF_CA5E_0000_0001),
        ..ConformanceConfig::default()
    };
    let report = run_conformance(&config);
    eprintln!("conformance: {}", report.summary());
    assert!(report.cases_run >= config.cases);
    report.assert_ok();
}

/// The same sweep at the sizes of the paper's Fig. 21 (n from 10⁹ to
/// 10^9.5, where the default generator stops at 10^8.5). There the
/// intersections resolve a size only to a few elements, so only the
/// slope-resolution guard can end a slope search whose interval stays one
/// element wide. Scaled with `FPM_TESTKIT_CASES` like the full sweep.
#[test]
fn conformance_sweep_at_fig21_sizes() {
    let config = ConformanceConfig {
        cases: env_cases(60),
        base_seed: env_base_seed(0xB16_0000_0001),
        gen: GenConfig { n_log10: (9.0, 9.5), ..GenConfig::default() },
        ..ConformanceConfig::default()
    };
    let report = run_conformance(&config);
    eprintln!("conformance at Fig. 21 sizes: {}", report.summary());
    assert!(report.cases_run >= config.cases);
    report.assert_ok();
}

/// Dedicated nonlinear-entry sweep: the sort- and query-shaped registry
/// entries against their cost-domain oracles (makespan gap and exchange
/// optimality on transformed *time*, not speed). Scaled independently of
/// the full sweep with `FPM_TESTKIT_COST_CASES` (see TESTING.md).
#[test]
fn cost_conformance_sweep_nonlinear_entries_match_cost_oracles() {
    let config = ConformanceConfig {
        cases: env_cost_cases(150),
        base_seed: env_base_seed(0xD1FF_CA5E_0000_0002),
        ..ConformanceConfig::default()
    };
    let report = run_cost_conformance(&config);
    eprintln!("cost conformance: {}", report.summary());
    assert!(report.cases_run >= config.cases);
    report.assert_ok();
}

/// Closed-form differential: the sort and query transforms intersect
/// through their base model's closed form, and the cost-domain oracle
/// uses the same intersections, so the sweep above cannot see a wrong
/// closed form. Here every cold and warm sort/query plan must equal, bit
/// for bit, the plan of the numeric search over the same cluster. Scaled
/// with `FPM_TESTKIT_COST_CASES` like the cost-domain sweep.
#[test]
fn closed_form_transforms_match_the_numeric_search_plan_for_plan() {
    let config = ConformanceConfig {
        cases: env_cost_cases(150),
        base_seed: env_base_seed(0xD1FF_CA5E_0000_0003),
        ..ConformanceConfig::default()
    };
    let report = run_closed_form_sweep(&config);
    eprintln!("closed-form differential: {}", report.summary());
    assert!(report.cases_run >= config.cases);
    report.assert_ok();
}

/// Seeded-cold differential: the combined algorithm's cold solve starts
/// its search from the single-number line of the Fig. 18 probe, and must
/// return exactly what the paper-literal `partition_explain` returns —
/// counts, makespan bits and error text — on the generated clusters (plain
/// and under the sort and query transforms) and on wire clusters at three
/// sizes. Scaled with `FPM_TESTKIT_CASES` like the full sweep.
#[test]
fn seeded_combined_matches_the_paper_literal_path() {
    let config = ConformanceConfig {
        cases: env_cases(150),
        base_seed: env_base_seed(0xD1FF_CA5E_0000_0004),
        ..ConformanceConfig::default()
    };
    let report = run_seeded_cold_sweep(&config);
    eprintln!("seeded cold differential: {}", report.summary());
    assert!(report.cases_run >= config.cases);
    report.assert_ok();
}

/// Residue differential: fine-tuning (plain and under the bounded
/// solver's caps) and the single-number baseline hand out their residue
/// exactly as a naive one-element-at-a-time greedy does, on inputs that
/// reach both the selection and the heap path of the shared residue
/// routine. Scaled with `FPM_TESTKIT_CASES` like the full sweep.
#[test]
fn residue_assignment_matches_the_naive_greedy() {
    let config = ConformanceConfig {
        cases: env_cases(300),
        base_seed: env_base_seed(0xD1FF_CA5E_0000_0005),
        ..ConformanceConfig::default()
    };
    let report = run_residue_sweep(&config);
    eprintln!("residue differential: {}", report.summary());
    assert!(report.cases_run >= config.cases);
    report.assert_ok();
}

// ---------------------------------------------------------------------------
// Fault matrix: measurer failures
// ---------------------------------------------------------------------------

/// Every fault kind on several schedules, against a noisy simnet measurer:
/// the builder yields a valid admissible model or a clean error. No panics.
#[test]
fn measurer_fault_matrix_never_panics() {
    for kind in FaultKind::all() {
        for every in [1usize, 2, 5, 13] {
            let truth = AnalyticSpeed::unimodal(200.0, 1e3, 1e6, 3.0);
            let noisy = FluctuatingMeasurer::new(truth, WidthLaw::Constant(0.06), 0xFA);
            let mut faulty = FaultyMeasurer::new(noisy, kind, every);
            let outcome = assert_no_panic(|| {
                build_speed_band(&mut faulty, 1e3, 1e7, BuilderConfig::default())
            })
            .unwrap_or_else(|p| panic!("builder panicked under {kind:?}/every={every}: {p}"));
            match outcome {
                Ok(out) => {
                    // A model that survived injection must still be
                    // admissible — corrupt readings must not leak through.
                    check_single_intersection(&out.midline, 1e3, 9e6, 200).unwrap_or_else(
                        |(a, b)| {
                            panic!("{kind:?}/every={every}: inadmissible model between {a} and {b}")
                        },
                    );
                }
                Err(e) => assert!(
                    matches!(e, Error::InvalidSpeedFunction { .. } | Error::InvalidParameter(_)),
                    "{kind:?}/every={every}: unexpected error kind {e:?}"
                ),
            }
        }
    }
}

/// A measurer whose readings are *all* corrupt must produce a clean error.
#[test]
fn fully_corrupt_measurer_is_rejected_cleanly() {
    for kind in FaultKind::all() {
        let mut dead = FaultyMeasurer::new(|_x: f64| 100.0, kind, 1);
        let result = assert_no_panic(|| {
            build_speed_band(&mut dead, 1e3, 1e6, BuilderConfig::default())
        })
        .unwrap_or_else(|p| panic!("builder panicked on all-{kind:?} measurer: {p}"));
        assert!(result.is_err(), "all-corrupt {kind:?} measurer produced a model");
    }
}

// ---------------------------------------------------------------------------
// Fault matrix: builder under mid-sweep machine death
// ---------------------------------------------------------------------------

/// A machine dying after k observations (simnet fluctuation knob): the
/// builder sees zero speeds from that point on and must either model the
/// healthy prefix or reject cleanly — and the outcome must be bit-identical
/// across repeated builds (deterministic recovery).
#[test]
fn mid_sweep_machine_death_is_clean_and_deterministic() {
    let truth = AnalyticSpeed::paging(150.0, 1e6, 3.0);
    for k in [0usize, 1, 2, 5, 20] {
        let build = || {
            let mut dying = FluctuatingMeasurer::new(
                truth.clone(),
                Integration::Low.width_law(1e7),
                0xDEAD,
            )
            .with_death_after(k);
            assert_no_panic(|| build_speed_band(&mut dying, 1e3, 1e7, BuilderConfig::default()))
                .unwrap_or_else(|p| panic!("builder panicked with death_after={k}: {p}"))
        };
        let (first, second) = (build(), build());
        match (&first, &second) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    a.midline.knots(),
                    b.midline.knots(),
                    "death_after={k}: recovery must be bit-identical"
                );
                assert_eq!(a.measurements, b.measurements);
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "death_after={k}: error must be deterministic"),
            _ => panic!("death_after={k}: nondeterministic Ok/Err outcome"),
        }
    }
}

/// Degenerate build intervals must not hang or panic.
#[test]
fn degenerate_builder_intervals_fail_cleanly() {
    let truth = AnalyticSpeed::constant(100.0);
    for (a, b) in [(1e6, 1e6), (1e6, 1e3)] {
        let mut m = |x: f64| truth.speed(x);
        let result = assert_no_panic(|| build_speed_band(&mut m, a, b, BuilderConfig::default()))
            .unwrap_or_else(|p| panic!("builder panicked on interval ({a}, {b}): {p}"));
        assert!(result.is_err(), "interval ({a}, {b}) must be rejected");
    }
}

// ---------------------------------------------------------------------------
// Fault matrix: worker-pool failures
// ---------------------------------------------------------------------------

/// A panicking job mid-batch propagates its payload to the caller — and the
/// pool remains fully usable afterwards (no poisoned or leaked workers).
#[test]
fn pool_survives_panicking_batch_and_recovers() {
    let pool = WorkerPool::new(4);

    let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..16u64)
        .map(|i| {
            Box::new(move || {
                if i == 11 {
                    panic!("injected worker fault");
                }
                i * 3
            }) as Box<dyn FnOnce() -> u64 + Send>
        })
        .collect();
    let err = assert_no_panic(|| pool.run(tasks)).unwrap_err();
    assert!(err.contains("injected worker fault"), "panic payload lost: {err}");

    // Recovery: the same pool must run clean batches bit-identically.
    for _ in 0..3 {
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> =
            (0..16u64).map(|i| Box::new(move || i * 3) as Box<_>).collect();
        let results = pool.run(tasks);
        assert_eq!(results, (0..16u64).map(|i| i * 3).collect::<Vec<_>>());
    }
}

/// Adversarially nonuniform task durations (later tasks finish first):
/// results still come back in input order.
#[test]
fn pool_keeps_order_under_adversarial_durations() {
    let pool = WorkerPool::new(4);
    let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..24usize)
        .map(|i| {
            Box::new(move || {
                // Earlier tasks sleep longest, so completion order is the
                // reverse of submission order.
                std::thread::sleep(std::time::Duration::from_millis(
                    (24 - i) as u64 % 7 * 3,
                ));
                i
            }) as Box<dyn FnOnce() -> usize + Send>
        })
        .collect();
    assert_eq!(pool.run(tasks), (0..24).collect::<Vec<_>>());
}

/// Slow workers must not reorder or drop results on the global pool either.
#[test]
fn global_pool_under_slow_jobs_stays_in_order() {
    let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..12usize)
        .map(|i| {
            Box::new(move || {
                if i % 3 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                i * i
            }) as Box<dyn FnOnce() -> usize + Send>
        })
        .collect();
    let results = WorkerPool::global().run(tasks);
    assert_eq!(results, (0..12).map(|i| i * i).collect::<Vec<_>>());
}
