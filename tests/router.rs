//! Tier-1 integration test of the sharded serving layer: an `fpm-router`
//! fronting three real `fpm-serve` shards must answer partition requests
//! **bit-identically** to a single-node daemon holding the same models —
//! and must keep answering, bit-identically, while shards die.
//!
//! Routing only decides *where* a model lives; registration forwards the
//! exact request line and every shard rebuilds models from
//! shortest-round-trip decimals, so the full stack (client → router →
//! owner shard → solver) must reproduce the single-node wire results to
//! the last bit. The fault tests follow the testkit's deterministic
//! kill-after-k pattern: the victim dies at a fixed request index, so
//! failures are reproducible, not racy.
//!
//! Case count scales with `FPM_TESTKIT_CASES` (default 100, the
//! acceptance floor); seeds derive from `FPM_TESTKIT_SEED`.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fpm_router::{RouterConfig, RouterHandle};
use fpm_serve::client::Client;
use fpm_serve::json::Json;
use fpm_serve::protocol::MAX_FRAME_BYTES;
use fpm_serve::server::{spawn as spawn_shard, ServerConfig};
use fpm_serve::{AlgorithmId, ServerHandle};
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
    AlgorithmId::SortSample,
    AlgorithmId::Query,
    AlgorithmId::SingleAt(5e5),
];

fn spawn_routed_cluster(shards: usize) -> (Vec<ServerHandle>, RouterHandle) {
    spawn_routed_cluster_with(shards, ServerConfig::default())
}

/// Shards with room for a whole pipelined burst of cold solves, so none
/// is shed.
fn deep_queue() -> ServerConfig {
    ServerConfig { queue_capacity: 256, ..ServerConfig::default() }
}

fn spawn_routed_cluster_with(
    shards: usize,
    shard_config: ServerConfig,
) -> (Vec<ServerHandle>, RouterHandle) {
    let handles: Vec<ServerHandle> =
        (0..shards).map(|_| spawn_shard(shard_config.clone()).expect("spawn shard")).collect();
    let config = RouterConfig {
        shards: handles.iter().map(|s| s.addr).collect(),
        probe_interval_ms: 50,
        ..RouterConfig::default()
    };
    let router = fpm_router::spawn(config).expect("spawn router");
    (handles, router)
}

#[test]
fn routed_plans_are_bit_identical_to_single_node() {
    let cases = env_cases(100);
    let base = env_base_seed(0x0F20_57ED);
    let cfg = GenConfig::default();

    let (shards, router) = spawn_routed_cluster(3);
    let single = spawn_shard(ServerConfig::default()).expect("spawn single node");
    let mut routed = Client::connect(router.addr, Duration::from_secs(60)).expect("connect router");
    let mut direct = Client::connect(single.addr, Duration::from_secs(60)).expect("connect single");

    for i in 0..cases {
        let seed = base.wrapping_add(i as u64);
        let wire = WireCluster::from_seed(seed, &cfg);
        let name = format!("case-{seed:x}");
        let reg_r = routed
            .register_inline(&name, &wire.models)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: routed register failed: {e}"));
        let reg_d = direct
            .register_inline(&name, &wire.models)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: direct register failed: {e}"));
        // Same models, same fingerprint — the fan-out forwarded the line
        // verbatim.
        assert_eq!(reg_r.fingerprint, reg_d.fingerprint, "seed {seed:#x}");
        assert_eq!(reg_r.machines, reg_d.machines, "seed {seed:#x}");

        let algorithm = ALGORITHMS[i % ALGORITHMS.len()];
        let via_router = routed.partition(&name, wire.n, algorithm, Some(30_000));
        let via_single = direct.partition(&name, wire.n, algorithm, Some(30_000));
        match (via_router, via_single) {
            (Ok(r), Ok(d)) => {
                assert_eq!(
                    r.counts, d.counts,
                    "seed {seed:#x} ({algorithm:?}, n={}): counts diverge",
                    wire.n
                );
                assert_eq!(
                    r.makespan.to_bits(),
                    d.makespan.to_bits(),
                    "seed {seed:#x}: makespan not bit-identical ({} vs {})",
                    r.makespan,
                    d.makespan
                );
                assert_eq!(r.fingerprint, d.fingerprint, "seed {seed:#x}");
                assert_eq!(r.counts.iter().sum::<u64>(), wire.n, "seed {seed:#x}");
            }
            (Err(r), Err(d)) => {
                assert_eq!(r.code, d.code, "seed {seed:#x}: error codes diverge");
            }
            (r, d) => {
                panic!("seed {seed:#x}: router {r:?} vs single-node {d:?}");
            }
        }
    }

    // The router never had to fail over: all shards stayed up.
    let stats = router.shutdown_and_join();
    assert_eq!(stats.get("failover_exhausted").and_then(Json::as_u64), Some(0));
    assert!(
        stats.get("forwarded").and_then(Json::as_u64).unwrap_or(0) >= cases as u64,
        "every partition goes through the forward path"
    );
    for shard in shards {
        shard.shutdown_and_join();
    }
    single.shutdown_and_join();
}

#[test]
fn failover_to_replica_is_bit_identical_when_the_owner_is_down() {
    // Register a handful of clusters, capture their answers with all
    // shards alive, kill one shard, and require every cluster to answer
    // *identically* — the ones owned by the victim via their replicas.
    let cases = (env_cases(100) / 10).clamp(5, 20);
    let base = env_base_seed(0xFA11_07E8);
    let cfg = GenConfig::default();

    let (mut shards, router) = spawn_routed_cluster(3);
    let mut client = Client::connect(router.addr, Duration::from_secs(60)).expect("connect");

    let mut baselines = Vec::new();
    for i in 0..cases {
        let seed = base.wrapping_add(i as u64);
        let wire = WireCluster::from_seed(seed, &cfg);
        let name = format!("fo-{seed:x}");
        client.register_inline(&name, &wire.models).expect("register");
        let algorithm = ALGORITHMS[i % ALGORITHMS.len()];
        let reply = client.partition(&name, wire.n, algorithm, Some(30_000));
        baselines.push((name, wire.n, algorithm, reply));
    }

    // Kill the shard that owns the first cluster (deterministic victim).
    let victim_addr = router.route(&baselines[0].0)[0];
    let victim = shards
        .iter()
        .position(|s| s.addr == victim_addr)
        .expect("victim among shards");
    shards.remove(victim).shutdown_and_join();

    let mut failed_over = 0usize;
    for (name, n, algorithm, baseline) in &baselines {
        if router.route(name)[0] == victim_addr {
            failed_over += 1;
        }
        let after = client.partition(name, *n, *algorithm, Some(30_000));
        match (baseline, &after) {
            (Ok(b), Ok(a)) => {
                assert_eq!(b.counts, a.counts, "{name}: counts diverge after failover");
                assert_eq!(
                    b.makespan.to_bits(),
                    a.makespan.to_bits(),
                    "{name}: makespan not bit-identical after failover"
                );
            }
            (Err(b), Err(a)) => assert_eq!(b.code, a.code, "{name}"),
            (b, a) => panic!("{name}: before {b:?} vs after {a:?}"),
        }
    }
    assert!(failed_over >= 1, "the victim owned at least cluster {}", baselines[0].0);

    // cluster_stats must call the dead shard out as unhealthy.
    let mut raw = String::new();
    client.request_line(r#"{"verb":"cluster_stats"}"#, &mut raw).expect("cluster_stats");
    let v = Json::parse(&raw).expect("parse cluster_stats");
    assert_eq!(v.get("total_shards").and_then(Json::as_u64), Some(3), "{raw}");
    assert_eq!(v.get("healthy_shards").and_then(Json::as_u64), Some(2), "{raw}");
    let dead_entry = v
        .get("shards")
        .and_then(Json::as_array)
        .expect("shards array")
        .iter()
        .find(|s| s.get("addr").and_then(Json::as_str) == Some(&victim_addr.to_string()))
        .expect("dead shard listed");
    assert_eq!(dead_entry.get("healthy").and_then(Json::as_bool), Some(false), "{raw}");

    let stats = router.shutdown_and_join();
    // Only the first orphaned request pays a live failover; it marks the
    // shard down and later requests route straight to the replica.
    assert!(
        stats.get("failovers").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "the death was discovered by at least one failover: {stats}"
    );
    assert_eq!(
        stats.get("failover_exhausted").and_then(Json::as_u64),
        Some(0),
        "replicas covered every orphaned cluster: {stats}"
    );
    for shard in shards {
        shard.shutdown_and_join();
    }
}

#[test]
fn killing_a_shard_mid_burst_is_invisible_to_clients() {
    // The testkit's `with_death_after` discipline, lifted to the wire: a
    // shard dies after a fixed number of burst requests, and every
    // request in the burst must still succeed — zero client-visible
    // protocol errors, before and after the death.
    let base = env_base_seed(0xDEAD_B057);
    let cfg = GenConfig::default();
    let clusters = 6usize;
    let requests = 48usize;
    let death_after = 16usize;

    let (mut shards, router) = spawn_routed_cluster(3);
    let mut client = Client::connect(router.addr, Duration::from_secs(60)).expect("connect");

    let mut names = Vec::new();
    for i in 0..clusters {
        let seed = base.wrapping_add(i as u64);
        let wire = WireCluster::from_seed(seed, &cfg);
        let name = format!("burst-{seed:x}");
        client.register_inline(&name, &wire.models).expect("register");
        names.push((name, wire.n));
    }

    // Deterministic victim: the owner of the first cluster, so at least
    // one cluster in the rotation is orphaned mid-burst.
    let victim_addr = router.route(&names[0].0)[0];

    for r in 0..requests {
        if r == death_after {
            let victim = shards
                .iter()
                .position(|s| s.addr == victim_addr)
                .expect("victim among shards");
            shards.remove(victim).shutdown_and_join();
        }
        let (name, n) = &names[r % names.len()];
        // Vary n so the burst is not one cache entry replayed 48 times.
        let n = n / 2 + 1 + r as u64;
        let reply = client
            .partition(name, n, AlgorithmId::Combined, Some(30_000))
            .unwrap_or_else(|e| panic!("request {r} ({name}, n={n}) errored mid-burst: {e}"));
        assert_eq!(reply.counts.iter().sum::<u64>(), n, "request {r}: conservation");
    }

    let stats = router.shutdown_and_join();
    assert_eq!(
        stats.get("failover_exhausted").and_then(Json::as_u64),
        Some(0),
        "no request ran out of replicas: {stats}"
    );
    assert_eq!(
        stats.get("errors").and_then(Json::as_u64),
        Some(0),
        "no client-visible errors: {stats}"
    );
    for shard in shards {
        shard.shutdown_and_join();
    }
}

#[test]
fn multi_endpoint_loadgen_drives_a_routed_cluster() {
    // The bench/CI entry path: the multi-endpoint closed loop pointed at
    // a router must complete with zero errors and exact totals.
    let (shards, router) = spawn_routed_cluster(3);
    let mut client = Client::connect(router.addr, Duration::from_secs(60)).expect("connect");
    client.register_testbed("lg", "table1", "mm", 7).expect("register testbed");

    let cfg = fpm_serve::LoadgenConfig {
        workers: 4,
        requests_per_worker: 25,
        distinct_n: 8,
        ..fpm_serve::LoadgenConfig::default()
    };
    let report =
        fpm_serve::loadgen::run_multi(&[router.addr], "lg", &cfg).expect("loadgen run");
    assert_eq!(report.ok, 100, "all requests succeed: {report:?}");
    assert_eq!(report.other_errors, 0, "{report:?}");
    assert!(report.p99_us >= report.p50_us, "{report:?}");

    router.shutdown_and_join();
    for shard in shards {
        shard.shutdown_and_join();
    }
}

/// The two-machine models of the router unit tests.
fn demo_models() -> Vec<(String, Vec<(f64, f64)>)> {
    vec![
        ("A".into(), vec![(1e3, 200.0), (1e6, 180.0), (1e9, 0.0)]),
        ("B".into(), vec![(1e3, 100.0), (1e6, 90.0), (1e9, 0.0)]),
    ]
}

/// A `report` line for machine A of [`demo_models`] running `x` elements
/// at half its modelled speed (far outside the refiner's band).
fn slow_report_line(cluster: &str, x: f64) -> String {
    let speed = 200.0 + (180.0 - 200.0) * (x - 1e3) / (1e6 - 1e3);
    let elapsed_us = x / (speed / 2.0) * 1e6;
    format!(
        "{{\"verb\":\"report\",\"cluster\":\"{cluster}\",\"machine\":0,\
         \"x\":{x},\"elapsed_us\":{elapsed_us}}}"
    )
}

/// A `register` line for [`demo_models`].
fn demo_register_line(cluster: &str) -> String {
    format!(
        "{{\"verb\":\"register\",\"cluster\":\"{cluster}\",\"models\":[\
         {{\"name\":\"A\",\"knots\":[[1e3,200],[1e6,180],[1e9,0]]}},\
         {{\"name\":\"B\",\"knots\":[[1e3,100],[1e6,90],[1e9,0]]}}]}}"
    )
}

/// A raw pipelining connection: writes many lines at once, reads lines.
struct Raw {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Raw {
    fn connect(addr: SocketAddr) -> Raw {
        let writer = TcpStream::connect(addr).expect("connect");
        writer.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Raw { writer, reader }
    }

    /// Sends `lines` in one write.
    fn send<S: AsRef<str>>(&mut self, lines: &[S]) {
        let mut burst = String::new();
        for line in lines {
            burst.push_str(line.as_ref());
            burst.push('\n');
        }
        self.writer.write_all(burst.as_bytes()).expect("write burst");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        Json::parse(&line).unwrap_or_else(|e| panic!("unparsable reply {line:?}: {e}"))
    }
}

/// Waits until the router's own `stats` lists `shard` with `healthy`.
fn await_health(client: &mut Client, shard: SocketAddr, healthy: bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut raw = String::new();
        client.request_line(r#"{"verb":"stats"}"#, &mut raw).expect("router stats");
        let v = Json::parse(&raw).expect("parse stats");
        let listed = v.get("shards").and_then(Json::as_array).expect("shards").iter().any(|s| {
            s.get("addr").and_then(Json::as_str) == Some(&shard.to_string())
                && s.get("healthy").and_then(Json::as_bool) == Some(healthy)
        });
        if listed {
            return;
        }
        assert!(Instant::now() < deadline, "{shard} never listed healthy={healthy}: {raw}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn routed_bursts_reach_shards_pipelined() {
    // 64 partitions written in one segment: the router must hand them to
    // the owner as a pipeline, and answer in order, bit-identically to a
    // single node.
    let base = env_base_seed(0xB0_057);
    let wire = WireCluster::from_seed(base, &GenConfig::default());
    let (shards, router) = spawn_routed_cluster_with(3, deep_queue());
    let single = spawn_shard(ServerConfig::default()).expect("spawn single node");
    let mut routed = Client::connect(router.addr, Duration::from_secs(60)).expect("connect");
    let mut direct = Client::connect(single.addr, Duration::from_secs(60)).expect("connect");
    routed.register_inline("burst", &wire.models).expect("routed register");
    direct.register_inline("burst", &wire.models).expect("direct register");

    let ns: Vec<u64> = (0..64u64).map(|i| wire.n / 2 + 1 + i * 997).collect();
    let lines: Vec<String> = ns
        .iter()
        .enumerate()
        .map(|(i, n)| {
            format!("{{\"id\":{i},\"verb\":\"partition\",\"cluster\":\"burst\",\"n\":{n}}}")
        })
        .collect();
    let mut raw = Raw::connect(router.addr);
    raw.send(&lines);
    for (i, &n) in ns.iter().enumerate() {
        let v = raw.recv();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(i as u64), "reply order: {v}");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "request {i}: {v}");
        let want = direct.partition("burst", n, AlgorithmId::Combined, None).expect("direct");
        let counts: Vec<u64> = v
            .get("counts")
            .and_then(Json::as_array)
            .expect("counts")
            .iter()
            .map(|c| c.as_u64().expect("count"))
            .collect();
        assert_eq!(counts, want.counts, "request {i} (n={n})");
        let makespan = v.get("makespan").and_then(Json::as_f64).expect("makespan");
        assert_eq!(makespan.to_bits(), want.makespan.to_bits(), "request {i} (n={n})");
    }

    let owner = router.route("burst")[0];
    let owner = shards.iter().find(|s| s.addr == owner).expect("owner among shards");
    let depth = owner.metrics_json().get("pipeline_depth_peak").and_then(Json::as_u64);
    assert!(depth.unwrap_or(0) > 1, "the owner saw no pipelined read: {depth:?}");

    router.shutdown_and_join();
    for shard in shards {
        shard.shutdown_and_join();
    }
    single.shutdown_and_join();
}

#[test]
fn queued_requests_fail_over_when_their_connection_drops() {
    // The owner is a fake shard that reads the forwarded lines and closes
    // without replying. Every request queued on its connections must fail
    // over to the real replica; with a 60 s probe interval only this
    // passive path can notice the death.
    let real = spawn_shard(deep_queue()).expect("spawn replica");
    let fake = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let fake_addr = fake.local_addr().unwrap();
    let router = fpm_router::spawn(RouterConfig {
        shards: vec![fake_addr, real.addr],
        probe_interval_ms: 60_000,
        ..RouterConfig::default()
    })
    .expect("spawn router");
    let name = (0..)
        .map(|i| format!("orphan-{i}"))
        .find(|name| router.route(name)[0] == fake_addr)
        .expect("a cluster the fake shard owns");
    let mut direct = Client::connect(real.addr, Duration::from_secs(60)).expect("connect");
    direct.register_inline(&name, &demo_models()).expect("register on the replica");

    let stop = Arc::new(AtomicBool::new(false));
    let fake_thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            fake.set_nonblocking(true).unwrap();
            let mut dropped = 0usize;
            while !stop.load(Ordering::SeqCst) {
                match fake.accept() {
                    Ok((mut conn, _)) => {
                        conn.set_nonblocking(false).unwrap();
                        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                        let mut buf = [0u8; 4096];
                        if conn.read(&mut buf).unwrap_or(0) > 0 {
                            dropped += 1;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => panic!("fake shard accept: {e}"),
                }
            }
            dropped
        })
    };

    let ns: Vec<u64> = (0..16u64).map(|i| 200_000 + i * 10_007).collect();
    let lines: Vec<String> = ns
        .iter()
        .enumerate()
        .map(|(i, n)| {
            format!("{{\"id\":{i},\"verb\":\"partition\",\"cluster\":\"{name}\",\"n\":{n}}}")
        })
        .collect();
    let mut raw = Raw::connect(router.addr);
    raw.send(&lines);
    for (i, &n) in ns.iter().enumerate() {
        let v = raw.recv();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(i as u64), "reply order: {v}");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "request {i}: {v}");
        let want = direct.partition(&name, n, AlgorithmId::Combined, None).expect("direct");
        let counts: Vec<u64> = v
            .get("counts")
            .and_then(Json::as_array)
            .expect("counts")
            .iter()
            .map(|c| c.as_u64().expect("count"))
            .collect();
        assert_eq!(counts, want.counts, "request {i} (n={n})");
        let makespan = v.get("makespan").and_then(Json::as_f64).expect("makespan");
        assert_eq!(makespan.to_bits(), want.makespan.to_bits(), "request {i} (n={n})");
    }

    let stats = router.shutdown_and_join();
    stop.store(true, Ordering::SeqCst);
    let dropped = fake_thread.join().expect("fake shard thread");
    assert!(dropped >= 1, "the fake shard never saw a forwarded line");
    assert!(stats.get("failovers").and_then(Json::as_u64).unwrap_or(0) >= 1, "{stats}");
    assert_eq!(stats.get("failover_exhausted").and_then(Json::as_u64), Some(0), "{stats}");
    assert_eq!(stats.get("errors").and_then(Json::as_u64), Some(0), "{stats}");
    real.shutdown_and_join();
}

#[test]
fn oversized_replies_are_relayed_intact() {
    // A partition_batch reply longer than the request frame bound: one n
    // repeated 1024 times over a 200-machine cluster (one solve, then
    // cached renders). The router must relay it byte for byte.
    let (shards, router) = spawn_routed_cluster(2);
    let models: Vec<(String, Vec<(f64, f64)>)> = (0..200)
        .map(|i| {
            let s = 100.0 + i as f64;
            (format!("M{i}"), vec![(1e3, s), (1e6, 0.9 * s), (1e9, 0.0)])
        })
        .collect();
    let mut routed = Client::connect(router.addr, Duration::from_secs(60)).expect("connect");
    routed.register_inline("wide", &models).expect("register");
    let n = 100_000_000u64;
    routed.partition("wide", n, AlgorithmId::Combined, None).expect("warm the owner");
    let ns = vec![n.to_string(); fpm_serve::protocol::MAX_BATCH].join(",");
    let line =
        format!("{{\"id\":77,\"verb\":\"partition_batch\",\"cluster\":\"wide\",\"ns\":[{ns}]}}");
    let mut via_router = String::new();
    routed.request_line(&line, &mut via_router).expect("routed batch");
    let owner = router.route("wide")[0];
    let mut direct = Client::connect(owner, Duration::from_secs(60)).expect("connect owner");
    let mut via_owner = String::new();
    direct.request_line(&line, &mut via_owner).expect("direct batch");
    assert!(via_owner.len() > MAX_FRAME_BYTES, "reply is only {} bytes", via_owner.len());
    assert!(via_router == via_owner, "relayed reply differs from the owner's");

    router.shutdown_and_join();
    for shard in shards {
        shard.shutdown_and_join();
    }
}

#[test]
fn pipelined_writes_reach_every_replica_in_send_order() {
    // A `report` pipelined ahead of a `register` on one connection: each
    // replica must apply them in that order, so both end at the same
    // model. Reads go to one shard's copy directly.
    let (shards, router) = spawn_routed_cluster(2);
    let mut client = Client::connect(router.addr, Duration::from_secs(60)).expect("connect");
    let mut raw = Raw::connect(router.addr);
    let mut direct: Vec<Client> = shards
        .iter()
        .map(|s| Client::connect(s.addr, Duration::from_secs(60)).expect("connect shard"))
        .collect();
    let mut divergent = Vec::new();
    for trial in 0..40 {
        let name = format!("order-{trial}");
        let register = demo_register_line(&name);
        raw.send(&[&register]);
        assert_eq!(raw.recv().get("ok").and_then(Json::as_bool), Some(true));
        let plan = client.partition(&name, 1_000_000, AlgorithmId::Combined, None).unwrap();
        let report = slow_report_line(&name, plan.counts[0] as f64);
        raw.send(&[&report]);
        let first = raw.recv();
        assert_eq!(first.get("reason").and_then(Json::as_str), Some("pending"), "{first}");
        raw.send(&[&report, &register]);
        for _ in 0..2 {
            assert_eq!(raw.recv().get("ok").and_then(Json::as_bool), Some(true));
        }
        raw.send(&[report]);
        assert_eq!(raw.recv().get("ok").and_then(Json::as_bool), Some(true));
        let fingerprints: Vec<String> = direct
            .iter_mut()
            .map(|c| {
                c.partition(&name, 1_000_000, AlgorithmId::Combined, None).unwrap().fingerprint
            })
            .collect();
        if fingerprints[0] != fingerprints[1] {
            divergent.push(trial);
        }
    }
    assert!(divergent.is_empty(), "replicas diverged in trials {divergent:?}");
    router.shutdown_and_join();
    for shard in shards {
        shard.shutdown_and_join();
    }
}

#[test]
fn revived_replica_catches_up_to_the_reported_epoch() {
    // Two reports refit `c` to epoch 1. The owner then restarts empty on
    // its port; once the router lists it healthy it must already hold the
    // refit model, not just the registration.
    let (shards, router) = spawn_routed_cluster(2);
    let mut client = Client::connect(router.addr, Duration::from_secs(60)).expect("connect");
    let reg = client.register_inline("c", &demo_models()).expect("register");
    let plan = client.partition("c", 1_000_000, AlgorithmId::Combined, None).unwrap();
    let report = slow_report_line("c", plan.counts[0] as f64);
    let mut raw = String::new();
    client.request_line(&report, &mut raw).unwrap();
    client.request_line(&report, &mut raw).unwrap();
    let refit = Json::parse(&raw).unwrap();
    assert_eq!(refit.get("epoch").and_then(Json::as_u64), Some(1), "{raw}");
    let refit_fp = refit.get("fingerprint").and_then(Json::as_str).unwrap().to_owned();
    assert_ne!(refit_fp, reg.fingerprint);

    let owner = router.route("c")[0];
    let mut shards = shards;
    let idx = shards.iter().position(|s| s.addr == owner).unwrap();
    let survivor = shards.remove(1 - idx);
    shards.remove(0).shutdown_and_join();
    await_health(&mut client, owner, false);
    let revived = spawn_shard(ServerConfig { addr: owner, ..ServerConfig::default() })
        .expect("restart the owner on its port");
    await_health(&mut client, owner, true);

    let mut revived_client = Client::connect(owner, Duration::from_secs(60)).expect("connect");
    let mut survivor_client = Client::connect(survivor.addr, Duration::from_secs(60)).unwrap();
    let got = revived_client
        .partition("c", 1_000_000, AlgorithmId::Combined, None)
        .expect("the revived shard holds c");
    let want = survivor_client.partition("c", 1_000_000, AlgorithmId::Combined, None).unwrap();
    assert_eq!(got.fingerprint, refit_fp, "revived shard is at the registration epoch");
    assert_eq!(got.counts, want.counts);
    assert_eq!(got.makespan.to_bits(), want.makespan.to_bits());

    let stats = router.shutdown_and_join();
    assert!(stats.get("catchup_replays").and_then(Json::as_u64).unwrap_or(0) >= 3, "{stats}");
    revived.shutdown_and_join();
    survivor.shutdown_and_join();
}

/// A slow replica: a proxy in front of a real shard that holds back the
/// reply to every `report` while `shut` is set. Other replies pass, in
/// order, unless they queue behind a held one on the same connection.
struct GatedProxy {
    addr: SocketAddr,
    shut: Arc<AtomicBool>,
    /// `report` lines forwarded to the shard so far.
    reports: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    acceptor: std::thread::JoinHandle<()>,
}

impl GatedProxy {
    fn spawn(target: SocketAddr) -> GatedProxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let shut = Arc::new(AtomicBool::new(false));
        let reports = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let (shut, reports, stop) =
                (Arc::clone(&shut), Arc::clone(&reports), Arc::clone(&stop));
            // The scope joins every relay thread once their connections close.
            std::thread::spawn(move || {
                std::thread::scope(|scope| {
                    while !stop.load(Ordering::SeqCst) {
                        match listener.accept() {
                            Ok((client, _)) => {
                                client.set_nonblocking(false).unwrap();
                                if let Ok(shard) = TcpStream::connect(target) {
                                    relay(scope, client, shard, &shut, &reports);
                                }
                            }
                            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            Err(e) => panic!("proxy accept: {e}"),
                        }
                    }
                })
            })
        };
        GatedProxy { addr, shut, reports, stop, acceptor }
    }

    /// Stops accepting and joins every relay; call it after the router,
    /// the proxy's only client, has shut down.
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.acceptor.join().expect("proxy threads");
    }
}

/// Pumps one proxied connection on two scoped threads: request lines to
/// the shard, reply lines back, each `report`'s reply held while `shut`
/// is set. Either side closing ends both.
fn relay<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    client: TcpStream,
    shard: TcpStream,
    shut: &'scope AtomicBool,
    reports: &'scope AtomicUsize,
) {
    let (is_report_tx, is_report_rx) = std::sync::mpsc::channel::<bool>();
    let mut to_shard = shard.try_clone().unwrap();
    let mut to_client = client.try_clone().unwrap();
    scope.spawn(move || {
        let mut requests = BufReader::new(client);
        let mut line = String::new();
        while requests.read_line(&mut line).is_ok_and(|n| n > 0) {
            let report = line.contains(r#""verb":"report""#);
            if is_report_tx.send(report).is_err() || to_shard.write_all(line.as_bytes()).is_err() {
                break;
            }
            if report {
                reports.fetch_add(1, Ordering::SeqCst);
            }
            line.clear();
        }
        let _ = to_shard.shutdown(Shutdown::Both);
    });
    scope.spawn(move || {
        let mut replies = BufReader::new(shard);
        let mut line = String::new();
        while replies.read_line(&mut line).is_ok_and(|n| n > 0) {
            if is_report_rx.recv().unwrap_or(false) {
                while shut.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            if to_client.write_all(line.as_bytes()).is_err() {
                break;
            }
            line.clear();
        }
        let _ = to_client.shutdown(Shutdown::Both);
    });
}

#[test]
fn a_write_in_flight_at_readmission_reaches_the_revived_replica() {
    // Shard 0 is down when the refitting `report` fans out, and a probe
    // readmits it while the slow replica still holds that report's
    // acknowledgement. The catch-up replay must carry the report in
    // flight, or the revived shard stays at the registration epoch.
    let first = spawn_shard(ServerConfig::default()).expect("spawn shard");
    let slow = spawn_shard(ServerConfig::default()).expect("spawn slow replica");
    let proxy = GatedProxy::spawn(slow.addr);
    let router = fpm_router::spawn(RouterConfig {
        shards: vec![first.addr, proxy.addr],
        probe_interval_ms: 50,
        ..RouterConfig::default()
    })
    .expect("spawn router");
    let mut client = Client::connect(router.addr, Duration::from_secs(60)).expect("connect");
    let reg = client.register_inline("late", &demo_models()).expect("register");
    let plan = client.partition("late", 1_000_000, AlgorithmId::Combined, None).unwrap();
    let report = slow_report_line("late", plan.counts[0] as f64);
    let mut raw = String::new();
    client.request_line(&report, &mut raw).unwrap();
    let pending = Json::parse(&raw).unwrap();
    assert_eq!(pending.get("reason").and_then(Json::as_str), Some("pending"), "{raw}");

    let addr = first.addr;
    first.shutdown_and_join();
    await_health(&mut client, addr, false);
    proxy.shut.store(true, Ordering::SeqCst);
    let mut writer = Raw::connect(router.addr);
    writer.send(&[&report]);
    let deadline = Instant::now() + Duration::from_secs(10);
    while proxy.reports.load(Ordering::SeqCst) < 2 {
        assert!(Instant::now() < deadline, "the report never reached the slow replica");
        std::thread::sleep(Duration::from_millis(2));
    }
    let revived = spawn_shard(ServerConfig { addr, ..ServerConfig::default() })
        .expect("restart shard 0 on its port");
    await_health(&mut client, addr, true);
    proxy.shut.store(false, Ordering::SeqCst);
    let refit = writer.recv();
    assert_eq!(refit.get("epoch").and_then(Json::as_u64), Some(1), "{refit}");
    let refit_fp = refit.get("fingerprint").and_then(Json::as_str).unwrap().to_owned();
    assert_ne!(refit_fp, reg.fingerprint);

    let mut revived_client = Client::connect(addr, Duration::from_secs(60)).expect("connect");
    let mut slow_client = Client::connect(slow.addr, Duration::from_secs(60)).expect("connect");
    let got = revived_client
        .partition("late", 1_000_000, AlgorithmId::Combined, None)
        .expect("the revived shard holds late");
    let want = slow_client.partition("late", 1_000_000, AlgorithmId::Combined, None).unwrap();
    assert_eq!(got.fingerprint, refit_fp, "the revived shard missed the report in flight");
    assert_eq!(got.counts, want.counts);
    assert_eq!(got.makespan.to_bits(), want.makespan.to_bits());

    router.shutdown_and_join();
    proxy.stop();
    revived.shutdown_and_join();
    slow.shutdown_and_join();
}
