//! `fpm serve`, `fpm router` and `fpm loadgen`: the CLI front end of the
//! serving layer.
//!
//! Errors are plain strings: these commands aggregate failures from the
//! model-file parser, the network layer and the protocol, and the binary
//! prints them verbatim.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::Duration;

use fpm_router::{RouterConfig, RouterHandle};
use fpm_serve::client::Client;
use fpm_serve::json::Json;
use fpm_serve::loadgen::{self, LoadMode, LoadgenConfig};
use fpm_serve::AlgorithmId;
use fpm_serve::server::{spawn, ServerConfig};

use crate::model_file::NamedModel;

/// Options for `fpm serve`.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Models to pre-register (from `--model FILE`), if any.
    pub preload: Option<Vec<NamedModel>>,
    /// Registry name for the preloaded cluster.
    pub cluster: String,
    /// Plan-cache capacity.
    pub cache_capacity: usize,
    /// Solver queue capacity (0 ⇒ derive from the worker pool).
    pub queue_capacity: usize,
    /// Default per-request deadline, ms.
    pub deadline_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7171".to_owned(),
            preload: None,
            cluster: "default".to_owned(),
            cache_capacity: 1024,
            queue_capacity: 0,
            deadline_ms: 2000,
        }
    }
}

/// Runs the daemon until a client sends the `shutdown` verb, then returns
/// the final metrics snapshot as a JSON line.
///
/// `on_ready` fires once with the bound address (the binary prints it;
/// tests use it to drive the server).
pub fn serve(
    opts: &ServeOptions,
    on_ready: impl FnOnce(SocketAddr),
) -> Result<String, String> {
    let addr: SocketAddr =
        opts.addr.parse().map_err(|e| format!("bad --addr {:?}: {e}", opts.addr))?;
    let config = ServerConfig {
        addr,
        cache_capacity: opts.cache_capacity,
        queue_capacity: opts.queue_capacity,
        default_deadline_ms: opts.deadline_ms,
        ..ServerConfig::default()
    };
    let handle = spawn(config).map_err(|e| format!("bind {addr}: {e}"))?;
    if let Some(models) = &opts.preload {
        // Register through the protocol itself: the preload path is then
        // exactly as tested as client registrations.
        let mut client = Client::connect(handle.addr, Duration::from_secs(30))
            .map_err(|e| format!("loopback connect: {e}"))?;
        let wire: Vec<(String, Vec<(f64, f64)>)> = models
            .iter()
            .map(|m| (m.name.clone(), m.model.knots().to_vec()))
            .collect();
        client
            .register_inline(&opts.cluster, &wire)
            .map_err(|e| format!("preload register: {e}"))?;
    }
    on_ready(handle.addr);
    while !handle.is_stopping() {
        std::thread::sleep(Duration::from_millis(20));
    }
    Ok(handle.shutdown_and_join().to_string())
}

/// Options for `fpm router`.
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Comma-separated backend shard addresses (`host:port,host:port,…`).
    pub shards: String,
    /// Replication factor for registrations and the failover set.
    pub replicas: usize,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
    /// Health-probe interval, ms.
    pub probe_interval_ms: u64,
}

impl Default for RouterOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7170".to_owned(),
            shards: String::new(),
            replicas: 2,
            vnodes: fpm_router::DEFAULT_VNODES,
            probe_interval_ms: 250,
        }
    }
}

/// Parses a comma-separated shard list into socket addresses.
fn parse_shard_list(list: &str) -> Result<Vec<SocketAddr>, String> {
    let shards: Vec<SocketAddr> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().map_err(|e| format!("bad shard address {s:?}: {e}")))
        .collect::<Result<_, _>>()?;
    if shards.is_empty() {
        return Err("--shards needs at least one HOST:PORT".to_owned());
    }
    Ok(shards)
}

/// Runs the router until a client sends the `shutdown` verb, then returns
/// the final router metrics snapshot as a JSON line.
///
/// `on_ready` fires once with the bound address and the running handle
/// (the binary prints the address; tests use the handle to inspect
/// routing).
pub fn router(
    opts: &RouterOptions,
    on_ready: impl FnOnce(SocketAddr, &RouterHandle),
) -> Result<String, String> {
    let addr: SocketAddr =
        opts.addr.parse().map_err(|e| format!("bad --addr {:?}: {e}", opts.addr))?;
    let config = RouterConfig {
        addr,
        shards: parse_shard_list(&opts.shards)?,
        replicas: opts.replicas.max(1),
        vnodes: opts.vnodes.max(1),
        probe_interval_ms: opts.probe_interval_ms.max(1),
    };
    let handle = fpm_router::spawn(config).map_err(|e| format!("bind {addr}: {e}"))?;
    on_ready(handle.addr, &handle);
    while !handle.is_stopping() {
        std::thread::sleep(Duration::from_millis(20));
    }
    Ok(handle.shutdown_and_join().to_string())
}

/// Options for `fpm report`.
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// Server address.
    pub addr: String,
    /// Cluster holding the machine that ran the workload.
    pub cluster: String,
    /// Machine index inside the cluster.
    pub machine: u64,
    /// Elements processed.
    pub x: f64,
    /// Observed wall time, microseconds.
    pub elapsed_us: f64,
}

impl Default for ReportOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7171".to_owned(),
            cluster: "default".to_owned(),
            machine: 0,
            x: 0.0,
            elapsed_us: 0.0,
        }
    }
}

/// Sends one observed execution to a running daemon and renders the
/// refiner's verdict.
pub fn report(opts: &ReportOptions) -> Result<String, String> {
    let addr: SocketAddr =
        opts.addr.parse().map_err(|e| format!("bad --addr {:?}: {e}", opts.addr))?;
    let mut client = Client::connect(addr, Duration::from_secs(30))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let reply = client
        .report(&opts.cluster, opts.machine, opts.x, opts.elapsed_us)
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    let verdict = if reply.accepted { "accepted" } else { "rejected" };
    let _ = writeln!(
        out,
        "report: {verdict} ({})  machine {}  epoch {}",
        reply.reason, reply.machine, reply.epoch,
    );
    let _ = writeln!(out, "fingerprint {}", reply.fingerprint);
    Ok(out)
}

/// Options for `fpm loadgen`.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Server address.
    pub addr: String,
    /// Comma-separated endpoint list (`--endpoints a,b,c`); when set,
    /// workers round-robin across these instead of `addr`. Point it at a
    /// router (or several) to drive a sharded deployment.
    pub endpoints: Option<String>,
    /// Cluster to drive. When `register` is set the cluster is
    /// (re-)registered first from that testbed spec (`table1-mm` style).
    pub cluster: String,
    /// Optional `TESTBED-APP` spec (e.g. `table2-mm`) to register first.
    pub register: Option<String>,
    /// Concurrent client workers.
    pub workers: usize,
    /// Requests per worker.
    pub requests: usize,
    /// Distinct problem sizes (1 ⇒ maximally warm cache).
    pub distinct_n: usize,
    /// RNG seed.
    pub seed: u64,
    /// Algorithm under load.
    pub algorithm: AlgorithmId,
    /// Per-request deadline, ms.
    pub deadline_ms: u64,
    /// Pipeline depth (`--pipeline`); 0 = one request in flight at a time.
    pub pipeline: usize,
    /// Batch size (`--batch`); 0 = plain `partition` verbs.
    pub batch: usize,
    /// Near-duplicate sizing (`--near-dup`): pack every drawn size within
    /// 0.1% of the base size so cold misses warm-start from cached donors.
    pub near_dup: bool,
    /// Whether to send a `shutdown` verb after the run.
    pub shutdown_after: bool,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7171".to_owned(),
            endpoints: None,
            cluster: "default".to_owned(),
            register: None,
            workers: 4,
            requests: 100,
            distinct_n: 16,
            seed: 0x10AD,
            algorithm: AlgorithmId::Combined,
            deadline_ms: 5000,
            pipeline: 0,
            batch: 0,
            near_dup: false,
            shutdown_after: false,
        }
    }
}

/// Splits a `table2-mm`-style spec into testbed and app names.
fn split_testbed_spec(spec: &str) -> Result<(&str, &str), String> {
    let (tb, app) = spec
        .split_once('-')
        .ok_or_else(|| format!("bad --register {spec:?}: expected TESTBED-APP, e.g. table2-mm"))?;
    Ok((tb, app))
}

/// Drives a load burst against a running server and renders the report.
pub fn loadgen(opts: &LoadgenOptions) -> Result<String, String> {
    let endpoints: Vec<SocketAddr> = match &opts.endpoints {
        Some(list) => parse_shard_list(list).map_err(|e| e.replace("--shards", "--endpoints"))?,
        None => vec![opts.addr.parse().map_err(|e| format!("bad --addr {:?}: {e}", opts.addr))?],
    };
    let addr = endpoints[0];
    if let Some(spec) = &opts.register {
        let (tb, app) = split_testbed_spec(spec)?;
        let mut client = Client::connect(addr, Duration::from_secs(60))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        client
            .register_testbed(&opts.cluster, tb, app, opts.seed)
            .map_err(|e| format!("register {spec}: {e}"))?;
    }
    let mode = match (opts.pipeline, opts.batch) {
        (0, 0) => LoadMode::Single,
        (depth, 0) => LoadMode::Pipelined { depth },
        (0, size) => LoadMode::Batch { size },
        _ => return Err("--pipeline and --batch are mutually exclusive".to_owned()),
    };
    let cfg = LoadgenConfig {
        workers: opts.workers.max(1),
        requests_per_worker: opts.requests.max(1),
        distinct_n: opts.distinct_n.max(1),
        seed: opts.seed,
        algorithm: opts.algorithm,
        deadline_ms: opts.deadline_ms,
        mode,
        near_dup: opts.near_dup,
        ..LoadgenConfig::default()
    };
    let report = loadgen::run_multi(&endpoints, &opts.cluster, &cfg).map_err(|e| e.to_string())?;
    let mut out = String::new();
    if endpoints.len() > 1 {
        let _ = writeln!(out, "endpoints: {}", opts.endpoints.as_deref().unwrap_or_default());
    }
    let mode_desc = match mode {
        LoadMode::Single => String::new(),
        LoadMode::Pipelined { depth } => format!(", pipeline depth {depth}"),
        LoadMode::Batch { size } => format!(", batch size {size}"),
    };
    let near_desc = if opts.near_dup { ", near-dup sizes" } else { "" };
    let _ = writeln!(
        out,
        "loadgen: {} workers x {} requests, {} distinct sizes, algorithm {}{}{}",
        cfg.workers,
        cfg.requests_per_worker,
        cfg.distinct_n,
        opts.algorithm,
        mode_desc,
        near_desc,
    );
    let _ = writeln!(
        out,
        "ok {}  cached {} ({:.1} % hit)  shed {}  deadline {}  errors {}",
        report.ok,
        report.cached,
        100.0 * report.hit_rate(),
        report.shed,
        report.deadline,
        report.other_errors,
    );
    let _ = writeln!(
        out,
        "throughput {:.0} req/s  latency p50 {} us  p99 {} us  mean {:.0} us",
        report.throughput(),
        report.p50_us,
        report.p99_us,
        report.mean_us,
    );
    if opts.near_dup {
        // Near-dup bursts exist to exercise the warm-start path; surface
        // the solver's counters so callers (CI) can assert on them. A
        // router answers `stats` with its own routing counters, so ask for
        // the shards' merged `cluster_stats` first; a shard answers that
        // verb with `unknown_verb` and its own `stats` hold the counters.
        let mut client = Client::connect(addr, Duration::from_secs(10))
            .map_err(|e| format!("connect for stats: {e}"))?;
        let reply = client
            .request_raw(r#"{"verb":"cluster_stats"}"#)
            .map_err(|e| format!("cluster_stats: {e}"))?;
        let stats = match reply.get("error").and_then(Json::as_str) {
            Some("unknown_verb") => client.stats().map_err(|e| format!("stats: {e}"))?,
            Some(code) => return Err(format!("cluster_stats: {code}")),
            None => reply.get("stats").cloned().unwrap_or(Json::Null),
        };
        let counter = |name: &str| {
            stats.get(name).and_then(Json::as_u64).ok_or_else(|| format!("stats carry no {name}"))
        };
        let (warm, fallbacks) = (counter("warm_starts")?, counter("warm_start_fallbacks")?);
        let _ = writeln!(out, "warm_starts {warm}  warm_start_fallbacks {fallbacks}");
    }
    if opts.shutdown_after {
        let mut client = Client::connect(addr, Duration::from_secs(10))
            .map_err(|e| format!("connect for shutdown: {e}"))?;
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let _ = writeln!(out, "shutdown requested");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn serve_preloads_and_shuts_down_cleanly() {
        let models = crate::parse_models("A 1000:200 1e6:180 1e8:0\nB 1000:100 1e6:90 1e8:0\n")
            .unwrap();
        let opts = ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            preload: Some(models),
            cluster: "pre".to_owned(),
            ..ServeOptions::default()
        };
        let (tx, rx) = mpsc::channel();
        let server = std::thread::spawn(move || {
            serve(&opts, move |addr| tx.send(addr).unwrap())
        });
        let addr = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let mut client = Client::connect(addr, Duration::from_secs(30)).unwrap();
        let reply = client
            .partition("pre", 500_000, AlgorithmId::Combined, None)
            .unwrap();
        assert_eq!(reply.counts.iter().sum::<u64>(), 500_000);
        client.shutdown().unwrap();
        let metrics = server.join().unwrap().unwrap();
        assert!(metrics.contains("partition_requests"), "{metrics}");
    }

    #[test]
    fn report_command_round_trips_refinement() {
        let models = crate::parse_models("A 1000:200 1e6:180 1e8:0\nB 1000:100 1e6:90 1e8:0\n")
            .unwrap();
        let opts = ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            preload: Some(models),
            cluster: "obs".to_owned(),
            ..ServeOptions::default()
        };
        let (tx, rx) = mpsc::channel();
        let server = std::thread::spawn(move || {
            serve(&opts, move |addr| tx.send(addr).unwrap())
        });
        let addr = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        // Machine A sustains only 60% of its modelled speed: two matching
        // reports at the same size corroborate and re-fit the band.
        let base = ReportOptions {
            addr: addr.to_string(),
            cluster: "obs".to_owned(),
            machine: 0,
            x: 500_000.0,
            elapsed_us: 500_000.0 / (180.0 * 0.6) * 1e6,
        };
        let first = report(&base).unwrap();
        assert!(first.contains("rejected (pending)"), "{first}");
        assert!(first.contains("epoch 0"), "{first}");
        let second = report(&base).unwrap();
        assert!(second.contains("accepted (refined)"), "{second}");
        assert!(second.contains("machine A"), "{second}");
        assert!(second.contains("epoch 1"), "{second}");
        let missing = report(&ReportOptions {
            cluster: "ghost".to_owned(),
            ..base
        })
        .unwrap_err();
        assert!(missing.contains("not_found"), "{missing}");
        let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
        client.shutdown().unwrap();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn loadgen_registers_runs_and_reports() {
        let opts = ServeOptions { addr: "127.0.0.1:0".to_owned(), ..ServeOptions::default() };
        let (tx, rx) = mpsc::channel();
        let server = std::thread::spawn(move || {
            serve(&opts, move |addr| tx.send(addr).unwrap())
        });
        let addr = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let lg = LoadgenOptions {
            addr: addr.to_string(),
            cluster: "lg".to_owned(),
            register: Some("table1-mm".to_owned()),
            workers: 2,
            requests: 20,
            distinct_n: 2,
            shutdown_after: true,
            ..LoadgenOptions::default()
        };
        let out = loadgen(&lg).unwrap();
        assert!(out.contains("ok 40"), "{out}");
        assert!(out.contains("errors 0"), "{out}");
        assert!(out.contains("shutdown requested"), "{out}");
        server.join().unwrap().unwrap();
    }

    /// Runs a near-dup burst against `addr` (one daemon or a router),
    /// shuts the deployment down and returns the printed `warm_starts`.
    fn near_dup_warm_starts(addr: SocketAddr) -> u64 {
        let lg = LoadgenOptions {
            addr: addr.to_string(),
            cluster: "nd".to_owned(),
            register: Some("table1-mm".to_owned()),
            workers: 2,
            requests: 30,
            distinct_n: 8,
            near_dup: true,
            shutdown_after: true,
            ..LoadgenOptions::default()
        };
        let out = loadgen(&lg).unwrap();
        assert!(out.contains("near-dup sizes"), "{out}");
        assert!(out.contains("errors 0"), "{out}");
        out.lines()
            .find_map(|l| l.strip_prefix("warm_starts "))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no warm_starts line in {out}"))
    }

    #[test]
    fn loadgen_near_dup_reports_warm_starts() {
        let opts = ServeOptions { addr: "127.0.0.1:0".to_owned(), ..ServeOptions::default() };
        let (tx, rx) = mpsc::channel();
        let server = std::thread::spawn(move || {
            serve(&opts, move |addr| tx.send(addr).unwrap())
        });
        let addr = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let warm = near_dup_warm_starts(addr);
        assert!(warm > 0, "near-dup burst must warm-start");
        server.join().unwrap().unwrap();

        // Through a router the warm starts happen on the shards, whose
        // counters the router's own `stats` does not carry.
        let shards = [
            spawn(ServerConfig::default()).unwrap(),
            spawn(ServerConfig::default()).unwrap(),
        ];
        let ropts = RouterOptions {
            addr: "127.0.0.1:0".to_owned(),
            shards: format!("{},{}", shards[0].addr, shards[1].addr),
            ..RouterOptions::default()
        };
        let (tx, rx) = mpsc::channel();
        let router = std::thread::spawn(move || {
            serve_cmd_router_entry(&ropts, move |addr| tx.send(addr).unwrap())
        });
        let addr = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let warm = near_dup_warm_starts(addr);
        assert!(warm > 0, "routed near-dup burst must warm-start");
        router.join().unwrap().unwrap();
        for shard in shards {
            shard.shutdown_and_join();
        }
    }

    #[test]
    fn loadgen_pipelined_and_batch_modes_report() {
        let opts = ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            queue_capacity: 256,
            ..ServeOptions::default()
        };
        let (tx, rx) = mpsc::channel();
        let server = std::thread::spawn(move || {
            serve(&opts, move |addr| tx.send(addr).unwrap())
        });
        let addr = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let base = LoadgenOptions {
            addr: addr.to_string(),
            cluster: "modes".to_owned(),
            register: Some("table1-mm".to_owned()),
            workers: 2,
            requests: 24,
            distinct_n: 2,
            ..LoadgenOptions::default()
        };
        let piped = loadgen(&LoadgenOptions { pipeline: 6, ..base.clone() }).unwrap();
        assert!(piped.contains("pipeline depth 6"), "{piped}");
        assert!(piped.contains("ok 48"), "{piped}");
        let batched = loadgen(&LoadgenOptions {
            batch: 8,
            register: None,
            shutdown_after: true,
            ..base
        })
        .unwrap();
        assert!(batched.contains("batch size 8"), "{batched}");
        assert!(batched.contains("ok 48"), "{batched}");
        server.join().unwrap().unwrap();
    }

    #[test]
    fn router_command_fronts_serve_shards() {
        let shard_a = spawn(ServerConfig::default()).unwrap();
        let shard_b = spawn(ServerConfig::default()).unwrap();
        let ropts = RouterOptions {
            addr: "127.0.0.1:0".to_owned(),
            shards: format!("{},{}", shard_a.addr, shard_b.addr),
            ..RouterOptions::default()
        };
        let (tx, rx) = mpsc::channel();
        let router = std::thread::spawn(move || {
            serve_cmd_router_entry(&ropts, move |addr| tx.send(addr).unwrap())
        });
        let addr = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        // Drive the router through the multi-endpoint loadgen path, then
        // shut the whole deployment down through the router.
        let lg = LoadgenOptions {
            endpoints: Some(addr.to_string()),
            cluster: "routed".to_owned(),
            register: Some("table1-mm".to_owned()),
            workers: 2,
            requests: 20,
            distinct_n: 2,
            shutdown_after: true,
            ..LoadgenOptions::default()
        };
        let out = loadgen(&lg).unwrap();
        assert!(out.contains("ok 40"), "{out}");
        assert!(out.contains("errors 0"), "{out}");
        let metrics = router.join().unwrap().unwrap();
        assert!(metrics.contains("forwarded"), "{metrics}");
        // The shutdown verb broadcast through the router drains the shards.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        for shard in [&shard_a, &shard_b] {
            while !shard.is_stopping() {
                assert!(std::time::Instant::now() < deadline, "shard not draining");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        shard_a.shutdown_and_join();
        shard_b.shutdown_and_join();
    }

    /// Adapter: the public `router` entry takes a two-argument callback.
    fn serve_cmd_router_entry(
        opts: &RouterOptions,
        ready: impl FnOnce(SocketAddr),
    ) -> Result<String, String> {
        router(opts, |addr, _| ready(addr))
    }

    #[test]
    fn bad_shard_lists_are_reported() {
        assert!(parse_shard_list("").is_err());
        assert!(parse_shard_list("nonsense").is_err());
        assert_eq!(
            parse_shard_list("127.0.0.1:1, 127.0.0.1:2,").unwrap().len(),
            2
        );
        let opts = RouterOptions { shards: String::new(), ..RouterOptions::default() };
        assert!(router(&opts, |_, _| {}).unwrap_err().contains("--shards"));
        let lg = LoadgenOptions {
            endpoints: Some("bogus".to_owned()),
            ..LoadgenOptions::default()
        };
        assert!(loadgen(&lg).unwrap_err().contains("bad shard address"));
    }

    #[test]
    fn bad_specs_are_reported() {
        assert!(split_testbed_spec("table2mm").is_err());
        assert_eq!(split_testbed_spec("table2-mm").unwrap(), ("table2", "mm"));
        let opts = LoadgenOptions { addr: "not an addr".to_owned(), ..LoadgenOptions::default() };
        assert!(loadgen(&opts).unwrap_err().contains("bad --addr"));
        let both = LoadgenOptions { pipeline: 4, batch: 4, ..LoadgenOptions::default() };
        assert!(loadgen(&both).unwrap_err().contains("mutually exclusive"));
    }
}
