//! Tier-1 integration test of the serving layer: a real `fpm-serve` daemon
//! on an ephemeral port must answer partition requests **bit-identically**
//! to local solves of the same models.
//!
//! The clusters come from the testkit's [`WireCluster`] generator: plain
//! `(size, speed)` knot lists that are registered over the JSON protocol
//! and rebuilt locally from the same data. Because Rust renders `f64` as
//! shortest-round-trip decimal, the server reconstructs bit-identical
//! models, so its plans must match local plans exactly — counts equal and
//! makespans equal to the last bit.
//!
//! Case count scales with `FPM_TESTKIT_CASES` (default 100, the
//! acceptance floor); seeds derive from `FPM_TESTKIT_SEED`.

use std::sync::Arc;
use std::time::Duration;

use fpm_core::cost::PiecewiseLinearCost;
use fpm_core::speed::PiecewiseLinearSpeed;
use fpm_serve::client::Client;
use fpm_serve::engine::solve;
use fpm_serve::json::Json;
use fpm_serve::AlgorithmId;
use fpm_serve::registry::SharedCost;
use fpm_serve::server::{spawn, ServerConfig};
use fpm_testkit::conformance::{env_base_seed, env_cases};
use fpm_testkit::{GenConfig, WireCluster};

/// Every algorithm in the planner registry, cycled across cases.
const ALGORITHMS: &[AlgorithmId] = &[
    AlgorithmId::Combined,
    AlgorithmId::Basic,
    AlgorithmId::Modified,
    AlgorithmId::Secant,
    AlgorithmId::Bounded,
    AlgorithmId::Contiguous,
    AlgorithmId::SingleAt(5e5),
];

#[test]
fn server_plans_are_bit_identical_to_local_solves() {
    let cases = env_cases(100);
    let base = env_base_seed(0x5E11_7E57);
    let cfg = GenConfig::default();

    let handle = spawn(ServerConfig::default()).expect("spawn server");
    let mut client = Client::connect(handle.addr, Duration::from_secs(60)).expect("connect");

    for i in 0..cases {
        let seed = base.wrapping_add(i as u64);
        let wire = WireCluster::from_seed(seed, &cfg);
        let name = format!("case-{seed:x}");
        let reg = client
            .register_inline(&name, &wire.models)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: register failed: {e}"));
        assert_eq!(reg.machines.len(), wire.models.len(), "seed {seed:#x}");

        // Local oracle: identical knots, identical algorithm.
        let local_funcs: Vec<SharedCost> = wire
            .build()
            .into_iter()
            .map(|m| Arc::new(m) as SharedCost)
            .collect();
        let algorithm = ALGORITHMS[i % ALGORITHMS.len()];

        let local = solve(algorithm, wire.n, &local_funcs);
        let remote = client.partition(&name, wire.n, algorithm, Some(30_000));
        match (local, remote) {
            (Ok(local), Ok(remote)) => {
                assert_eq!(
                    local.counts, remote.counts,
                    "seed {seed:#x} ({algorithm:?}, n={}): counts diverge",
                    wire.n
                );
                assert_eq!(
                    local.makespan.to_bits(),
                    remote.makespan.to_bits(),
                    "seed {seed:#x}: makespan not bit-identical ({} vs {})",
                    local.makespan,
                    remote.makespan
                );
                assert_eq!(
                    remote.counts.iter().sum::<u64>(),
                    wire.n,
                    "seed {seed:#x}: conservation"
                );
            }
            (Err(local_err), Err(remote_err)) => {
                // Both sides must fail the same way (e.g. n beyond the
                // cluster's modelled capacity).
                assert_eq!(
                    remote_err.code, "solve_failed",
                    "seed {seed:#x}: remote {remote_err} vs local {local_err}"
                );
            }
            (local, remote) => {
                panic!("seed {seed:#x}: oracle disagreement: local {local:?} vs remote {remote:?}");
            }
        }
    }

    // Replaying one case against the warm server must hit the plan cache
    // and still be bit-identical.
    let wire = WireCluster::from_seed(base, &cfg);
    let cold = client
        .partition(&format!("case-{base:x}"), wire.n, ALGORITHMS[0], Some(30_000))
        .expect("replay");
    assert!(cold.cached, "second identical request must be cached");

    let stats = handle.shutdown_and_join();
    let served = stats.get("partition_requests").and_then(Json::as_u64).unwrap_or(0);
    assert!(served >= cases as u64, "served {served} of {cases}");
}

#[test]
fn batch_and_pipelined_replies_are_bit_identical_to_single_verbs() {
    // Every element of a `partition_batch` reply — and every reply of a
    // pipelined burst — must be byte-for-byte the answer the single
    // `partition` verb gives for the same (cluster, n, algorithm).
    let cases = (env_cases(100) / 4).max(8);
    let base = env_base_seed(0xBA7C_4ED0);
    let cfg = GenConfig::default();

    let handle = spawn(ServerConfig::default()).expect("spawn server");
    let mut client = Client::connect(handle.addr, Duration::from_secs(60)).expect("connect");

    for i in 0..cases {
        let seed = base.wrapping_add(i as u64);
        let wire = WireCluster::from_seed(seed, &cfg);
        let name = format!("batch-{seed:x}");
        client
            .register_inline(&name, &wire.models)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: register failed: {e}"));
        let algorithm = ALGORITHMS[i % ALGORITHMS.len()];

        // A spread of sizes around the generated n, including duplicates
        // (the batch path must serve repeats from the cache it just filled).
        let ns: Vec<u64> = [wire.n, wire.n / 2 + 1, wire.n + 17, wire.n, wire.n / 3 + 1]
            .into_iter()
            .filter(|&n| n > 0)
            .collect();

        let singles: Vec<_> = ns
            .iter()
            .map(|&n| client.partition(&name, n, algorithm, Some(30_000)))
            .collect();
        let batched = client
            .partition_batch(&name, &ns, algorithm, Some(30_000))
            .unwrap_or_else(|e| panic!("seed {seed:#x}: batch envelope failed: {e}"));
        let piped = client
            .partition_pipelined(&name, &ns, algorithm, Some(30_000), 4)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: pipelined burst failed: {e}"));
        assert_eq!(batched.len(), ns.len(), "seed {seed:#x}");
        assert_eq!(piped.len(), ns.len(), "seed {seed:#x}");

        for (j, single) in singles.iter().enumerate() {
            match (single, &batched[j], &piped[j]) {
                (Ok(s), Ok(b), Ok(p)) => {
                    assert_eq!(s.counts, b.counts, "seed {seed:#x} elem {j}: batch counts");
                    assert_eq!(s.counts, p.counts, "seed {seed:#x} elem {j}: piped counts");
                    assert_eq!(
                        s.makespan.to_bits(),
                        b.makespan.to_bits(),
                        "seed {seed:#x} elem {j}: batch makespan not bit-identical"
                    );
                    assert_eq!(
                        s.makespan.to_bits(),
                        p.makespan.to_bits(),
                        "seed {seed:#x} elem {j}: piped makespan not bit-identical"
                    );
                    // The single verb warmed the cache, so both replays
                    // must report a cache hit.
                    assert!(b.cached && p.cached, "seed {seed:#x} elem {j}: not cached");
                }
                (Err(s), Err(b), Err(p)) => {
                    assert_eq!(s.code, b.code, "seed {seed:#x} elem {j}: batch error code");
                    assert_eq!(s.code, p.code, "seed {seed:#x} elem {j}: piped error code");
                }
                (s, b, p) => panic!(
                    "seed {seed:#x} elem {j}: verb disagreement: single {s:?} vs batch {b:?} vs piped {p:?}"
                ),
            }
        }
    }

    let stats = handle.shutdown_and_join();
    assert_eq!(
        stats.get("batch_requests").and_then(Json::as_u64),
        Some(cases as u64),
        "one batch envelope per case"
    );
    // Bursts may land in one readable event or several depending on
    // scheduling, so only the floor is deterministic.
    assert!(
        stats.get("pipeline_depth_peak").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "pipelined bursts must be visible in metrics"
    );
}

#[test]
fn testbed_registration_matches_local_build() {
    // A testbed reference registered twice (under different names) must
    // fingerprint identically — the server-side build is deterministic.
    let handle = spawn(ServerConfig::default()).expect("spawn server");
    let mut client = Client::connect(handle.addr, Duration::from_secs(60)).expect("connect");
    let a = client.register_testbed("tb-a", "table1", "mm", 7).expect("register a");
    let b = client.register_testbed("tb-b", "table1", "mm", 7).expect("register b");
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.machines.len(), 4);
    // Partitioning by fingerprint reaches the same cluster.
    let via_name = client
        .partition("tb-a", 200_000, AlgorithmId::Combined, Some(30_000))
        .expect("partition by name");
    let raw = client
        .request_raw(&format!(
            r#"{{"verb":"partition","fingerprint":"{}","n":200000}}"#,
            a.fingerprint
        ))
        .expect("partition by fingerprint");
    assert_eq!(raw.get("ok").and_then(Json::as_bool), Some(true));
    let counts: Vec<u64> = raw
        .get("counts")
        .and_then(Json::as_array)
        .expect("counts")
        .iter()
        .map(|c| c.as_u64().expect("count"))
        .collect();
    assert_eq!(counts, via_name.counts);
    handle.shutdown_and_join();
}

/// The nonlinear registry entries end-to-end through the wire protocol:
/// clusters mixing `(size, speed)` and inline `(size, time)` cost-knot
/// machines are registered over JSON, partitioned with the sort- and
/// query-shaped algorithms, and every plan must be **bit-identical** to a
/// local solve over the same models (shortest-round-trip decimal makes
/// both sides reconstruct the same knots to the last bit).
#[test]
fn cost_knot_clusters_and_nonlinear_algorithms_match_local_solves() {
    let cases = (env_cases(100) / 4).max(8);
    let base = env_base_seed(0xC057_BA5E ^ 0xD00D);
    let cfg = GenConfig::default();

    let handle = spawn(ServerConfig::default()).expect("spawn server");
    let mut client = Client::connect(handle.addr, Duration::from_secs(60)).expect("connect");

    let algorithms =
        [AlgorithmId::SortSample, AlgorithmId::Query, AlgorithmId::Combined];
    for i in 0..cases {
        let seed = base.wrapping_add(i as u64);
        let wire = WireCluster::from_seed(seed, &cfg);
        // Every other machine is re-expressed as measured (size, time)
        // knots: admissible speed knots have strictly increasing x/s, so
        // the converted model is a valid monotone cost model.
        let mixed: Vec<fpm_serve::client::InlineModel> = wire
            .models
            .iter()
            .enumerate()
            .map(|(j, (name, knots))| {
                if j % 2 == 0 {
                    let cost_knots = knots.iter().map(|&(x, s)| (x, x / s)).collect();
                    (name.clone(), cost_knots, true)
                } else {
                    (name.clone(), knots.clone(), false)
                }
            })
            .collect();
        let name = format!("cost-{seed:x}");
        let reg = client
            .register_inline_mixed(&name, &mixed)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: register failed: {e}"));
        assert_eq!(reg.machines.len(), mixed.len(), "seed {seed:#x}");

        // Local twin of the server's materialisation.
        let local_funcs: Vec<SharedCost> = mixed
            .iter()
            .map(|(mname, knots, cost)| {
                if *cost {
                    Arc::new(
                        PiecewiseLinearCost::new(knots.clone())
                            .unwrap_or_else(|e| panic!("{mname}: {e:?}")),
                    ) as SharedCost
                } else {
                    Arc::new(
                        PiecewiseLinearSpeed::new(knots.clone())
                            .unwrap_or_else(|e| panic!("{mname}: {e:?}")),
                    ) as SharedCost
                }
            })
            .collect();

        let algorithm = algorithms[i % algorithms.len()];
        let local = solve(algorithm, wire.n, &local_funcs);
        let remote = client.partition(&name, wire.n, algorithm, Some(30_000));
        match (local, remote) {
            (Ok(local), Ok(remote)) => {
                assert_eq!(
                    local.counts, remote.counts,
                    "seed {seed:#x} ({algorithm:?}, n={}): counts diverge",
                    wire.n
                );
                assert_eq!(
                    local.makespan.to_bits(),
                    remote.makespan.to_bits(),
                    "seed {seed:#x} ({algorithm:?}): makespan not bit-identical ({} vs {})",
                    local.makespan,
                    remote.makespan
                );
                assert_eq!(
                    remote.counts.iter().sum::<u64>(),
                    wire.n,
                    "seed {seed:#x}: conservation"
                );
            }
            (Err(local_err), Err(remote_err)) => {
                assert_eq!(
                    remote_err.code, "solve_failed",
                    "seed {seed:#x}: remote {remote_err} vs local {local_err}"
                );
            }
            (local, remote) => {
                panic!("seed {seed:#x}: disagreement: local {local:?} vs remote {remote:?}");
            }
        }
    }
    handle.shutdown_and_join();
}

/// The unknown-algorithm error is context-sensitive over the wire: a
/// cluster with at least one inline cost machine gets the nonlinear
/// entries in the suggestion list; a plain speed cluster does not.
#[test]
fn unknown_algorithm_suggestions_follow_cluster_cost_models() {
    let handle = spawn(ServerConfig::default()).expect("spawn server");
    let mut client = Client::connect(handle.addr, Duration::from_secs(60)).expect("connect");

    let speed_knots = vec![(1e3, 200.0), (1e6, 180.0), (1e8, 0.5)];
    let cost_knots = vec![(1e3, 10.0), (1e6, 9_000.0)];
    client
        .register_inline("plain", &[("m0".into(), speed_knots.clone())])
        .expect("register plain");
    client
        .register_inline_mixed(
            "costy",
            &[
                ("m0".into(), speed_knots, false),
                ("m1".into(), cost_knots, true),
            ],
        )
        .expect("register costy");

    let ask = |client: &mut Client, cluster: &str| -> String {
        let raw = client
            .request_raw(&format!(
                r#"{{"verb":"partition","cluster":"{cluster}","n":1000,"algorithm":"bogus"}}"#
            ))
            .expect("transport");
        assert_eq!(raw.get("ok").and_then(Json::as_bool), Some(false), "{raw:?}");
        assert_eq!(raw.get("error").and_then(Json::as_str), Some("bad_request"), "{raw:?}");
        raw.get("message").and_then(Json::as_str).unwrap_or_default().to_string()
    };

    let plain_msg = ask(&mut client, "plain");
    assert!(plain_msg.contains("unknown algorithm"), "{plain_msg}");
    assert!(plain_msg.contains("combined"), "{plain_msg}");
    assert!(
        !plain_msg.contains("sort-sample") && !plain_msg.contains("query"),
        "linear cluster must not advertise nonlinear entries: {plain_msg}"
    );

    let costy_msg = ask(&mut client, "costy");
    assert!(
        costy_msg.contains("sort-sample") && costy_msg.contains("query"),
        "cost cluster must advertise the nonlinear entries: {costy_msg}"
    );
    handle.shutdown_and_join();
}
