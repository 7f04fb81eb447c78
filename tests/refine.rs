//! Tier-1 tests of online model refinement.
//!
//! Two contracts are pinned here:
//!
//! 1. **Drift convergence** (in-process): over ≥100 seeded
//!    [`DriftScenario`]s — clusters whose registered models have drifted
//!    from the truth by 15–45% per machine — feeding observed runs back
//!    through the refiner must drive the plan's true makespan to within
//!    1e-2 of the oracle's optimum on the drifted truth within 64
//!    observations, with the deployed plans' makespan error monotone
//!    non-increasing along the way — a candidate plan only displaces the
//!    incumbent once a full observation sweep validates it (both asserted
//!    inside [`refinement_conformance`]).
//!
//! 2. **Epoch invalidation** (wire, differential): after a `report` is
//!    accepted by a live server, the next `partition` must be solved
//!    fresh (never the pre-refinement cached plan) and must be
//!    **bit-identical** to a local solve on a locally refined replica of
//!    the model — the refit is deterministic, and knots/observations
//!    round-trip exactly through shortest-round-trip `f64` rendering.
//!
//! Case counts scale with `FPM_TESTKIT_DRIFT_CASES` (default 100, the
//! acceptance floor); seeds derive from `FPM_TESTKIT_SEED`.

use std::sync::Arc;
use std::time::Duration;

use fpm_core::speed::{ModelRefiner, RefineConfig, RefineOutcome, SpeedFunction};
use fpm_serve::client::Client;
use fpm_serve::engine::solve;
use fpm_serve::registry::SharedCost;
use fpm_serve::server::{spawn, ServerConfig};
use fpm_serve::AlgorithmId;
use fpm_testkit::conformance::{env_base_seed, env_drift_cases};
use fpm_testkit::{refinement_conformance, DriftScenario, GenConfig};

#[test]
fn drift_sweep_converges_monotonically() {
    let cases = env_drift_cases(100);
    let base = env_base_seed(0xD21F_7001);
    let cfg = GenConfig::default();
    let mut worst = 0usize;
    for i in 0..cases {
        let seed = base.wrapping_add(i as u64);
        let scenario = DriftScenario::from_seed(seed, &cfg);
        let used = refinement_conformance(&scenario, 64, 1e-2).unwrap_or_else(|e| {
            panic!(
                "seed {seed:#x}: {e}\nReproduce with \
                 fpm_testkit::DriftScenario::from_seed({seed:#x}, &GenConfig::default())."
            )
        });
        worst = worst.max(used);
    }
    assert!(worst <= 64, "a scenario consumed {worst} observations");
}

#[test]
fn epoch_bump_invalidates_cache_bit_exactly() {
    let cases = (env_drift_cases(100) / 10).max(8);
    let base = env_base_seed(0xE70C_4B1D);
    let cfg = GenConfig::default();

    let handle = spawn(ServerConfig::default()).expect("spawn server");
    let mut client = Client::connect(handle.addr, Duration::from_secs(60)).expect("connect");
    let algorithm = AlgorithmId::Combined;

    for i in 0..cases {
        let seed = base.wrapping_add(i as u64);
        let scenario = DriftScenario::from_seed(seed, &cfg);
        // Rotate through a bounded name pool: re-registering a name
        // replaces the cluster (epoch back to 0), so arbitrarily many
        // cases fit a bounded registry.
        let name = format!("drift-{}", i % 64);
        let reg = client
            .register_inline(&name, &scenario.initial)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: register failed: {e}"));

        let cold = client
            .partition(&name, scenario.n, algorithm, Some(30_000))
            .unwrap_or_else(|e| panic!("seed {seed:#x}: cold partition failed: {e}"));

        // Machine 0 always drifts; observe it at its assigned count (or a
        // mid-range size when the plan gave it nothing).
        let initial = scenario.initial_models();
        let mut x = cold.counts[0] as f64;
        let mut s_true = initial[0].speed(x) * scenario.factors[0];
        if x <= 0.0 || s_true <= 0.0 {
            x = (initial[0].max_size() * 0.25).max(1.0);
            s_true = initial[0].speed(x) * scenario.factors[0];
        }
        let elapsed_us = x / s_true * 1e6;

        // First report only goes pending (corroboration gate); the second,
        // consistent one refits and bumps the epoch.
        let first = client
            .report(&name, 0, x, elapsed_us)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: first report failed: {e}"));
        assert!(!first.accepted, "seed {seed:#x}: first report accepted without corroboration");
        assert_eq!(first.epoch, 0, "seed {seed:#x}");
        assert_eq!(first.fingerprint, reg.fingerprint, "seed {seed:#x}");
        let second = client
            .report(&name, 0, x, elapsed_us)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: second report failed: {e}"));
        assert!(
            second.accepted,
            "seed {seed:#x}: corroborated report rejected ({})",
            second.reason
        );
        assert_eq!(second.epoch, 1, "seed {seed:#x}");
        assert_ne!(second.fingerprint, reg.fingerprint, "seed {seed:#x}");

        // Local replica of the server's refit: same default config, same
        // observed speed (computed with the server's exact expression), so
        // the refined model is bit-identical by determinism.
        let s_obs = x / (elapsed_us * 1e-6);
        let mut refiner = ModelRefiner::new(RefineConfig::default());
        assert!(
            !matches!(refiner.observe(&initial[0], x, s_obs), RefineOutcome::Refined(_)),
            "seed {seed:#x}: local refiner skipped the corroboration gate"
        );
        let refined = match refiner.observe(&initial[0], x, s_obs) {
            RefineOutcome::Refined(m) => m,
            RefineOutcome::Rejected(r) => {
                panic!("seed {seed:#x}: local refiner rejected ({})", r.as_str())
            }
        };
        let funcs: Vec<SharedCost> = std::iter::once(Arc::new(refined) as SharedCost)
            .chain(initial.iter().skip(1).map(|m| Arc::new(m.clone()) as SharedCost))
            .collect();
        let local = solve(algorithm, scenario.n, &funcs)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: local solve failed: {e}"));

        // No stale plan after the epoch bump: the next partition is solved
        // fresh and matches the local solve on the refined model exactly.
        let warm = client
            .partition(&name, scenario.n, algorithm, Some(30_000))
            .unwrap_or_else(|e| panic!("seed {seed:#x}: post-report partition failed: {e}"));
        assert!(!warm.cached, "seed {seed:#x}: stale plan served after epoch bump");
        assert_eq!(warm.fingerprint, second.fingerprint, "seed {seed:#x}");
        assert_eq!(local.counts, warm.counts, "seed {seed:#x}: counts diverge");
        assert_eq!(
            local.makespan.to_bits(),
            warm.makespan.to_bits(),
            "seed {seed:#x}: makespan not bit-identical ({} vs {})",
            local.makespan,
            warm.makespan
        );

        // And the refined plan itself is cacheable under the new epoch.
        let replay = client
            .partition(&name, scenario.n, algorithm, Some(30_000))
            .unwrap_or_else(|e| panic!("seed {seed:#x}: replay failed: {e}"));
        assert!(replay.cached, "seed {seed:#x}: refined plan not cached");
        assert_eq!(replay.counts, warm.counts, "seed {seed:#x}");
    }

    // Every post-bump partition above was a cache miss with the previous
    // epoch's plan available as a donor, so the engine must have attempted
    // a warm start for each — and the bit-identity assertions already
    // proved those warm solves match cold solves on the refined model.
    let snapshot = client.stats().expect("stats verb");
    let warm_starts =
        snapshot.get("warm_starts").and_then(fpm_serve::json::Json::as_u64).unwrap_or(0);
    let fallbacks = snapshot
        .get("warm_start_fallbacks")
        .and_then(fpm_serve::json::Json::as_u64)
        .unwrap_or(0);
    assert!(
        warm_starts + fallbacks >= cases as u64,
        "expected ≥{cases} warm-start attempts across epoch bumps, \
         saw {warm_starts} seeded + {fallbacks} fallbacks"
    );
    assert!(warm_starts > 0, "no post-refit solve was actually seeded from its donor");

    handle.shutdown_and_join();
}
