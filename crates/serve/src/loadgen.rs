//! A deterministic closed-loop load generator for the serve daemon.
//!
//! `workers` client threads each run `requests_per_worker` partition
//! requests against a pre-registered cluster, drawing problem sizes from a
//! seeded RNG restricted to `distinct_n` values — so `distinct_n` directly
//! controls the warm-cache hit rate (few distinct sizes ⇒ almost all
//! hits). Every latency is kept, so the reported p50/p99 are exact order
//! statistics, not histogram approximations.
//!
//! Three load shapes ([`LoadMode`]) drive the server's event loop
//! differently: `Single` is the classic one-request-per-round-trip loop;
//! `Pipelined` keeps a window of requests in flight per connection
//! (latency is measured per reply, from its own send); `Batch` packs many
//! sizes into `partition_batch` round-trips. The drawn size sequence is
//! identical across modes for a given seed, so their reports are
//! comparable.
//!
//! Used by `fpm loadgen` and the CI smoke jobs to check that serving
//! works. Calibrated serving numbers come from the repository
//! benchmark's `serve-hot` and `serve-churn` workloads (`benchmark/`).

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::client::Client;
use crate::json::{Json, JsonRef, JsonStr};
use fpm_core::planner::AlgorithmId;

/// How requests are put on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// One request per round-trip (the pre-pipelining behaviour).
    Single,
    /// Up to `depth` `partition` requests in flight per connection.
    Pipelined {
        /// Window size (clamped to ≥ 1).
        depth: usize,
    },
    /// `partition_batch` round-trips of `size` problem sizes each.
    Batch {
        /// Sizes per batch envelope (clamped to ≥ 1).
        size: usize,
    },
}

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent client connections.
    pub workers: usize,
    /// Requests each worker issues.
    pub requests_per_worker: usize,
    /// Number of distinct problem sizes (1 ⇒ maximally warm cache).
    pub distinct_n: usize,
    /// Smallest problem size drawn.
    pub n_base: u64,
    /// RNG seed (workers derive independent streams).
    pub seed: u64,
    /// Algorithm under load.
    pub algorithm: AlgorithmId,
    /// Per-request deadline handed to the server.
    pub deadline_ms: u64,
    /// Wire shape: single, pipelined or batch.
    pub mode: LoadMode,
    /// Near-duplicate sizing: draw the `distinct_n` sizes from a band
    /// within `n_base/1000` of `n_base` (instead of 1000-element strides),
    /// so every first-occurrence miss has a donor plan close enough to
    /// warm-start the solver.
    pub near_dup: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            requests_per_worker: 100,
            distinct_n: 16,
            n_base: 100_000,
            seed: 0x10AD,
            algorithm: AlgorithmId::Combined,
            deadline_ms: 5000,
            mode: LoadMode::Single,
            near_dup: false,
        }
    }
}

/// Aggregated outcome of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests that returned a valid partition.
    pub ok: u64,
    /// Requests answered from the server's plan cache.
    pub cached: u64,
    /// `overloaded` rejections (expected under deliberate overload).
    pub shed: u64,
    /// `deadline` misses.
    pub deadline: u64,
    /// Any other protocol error (should be zero in healthy runs).
    pub other_errors: u64,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// Exact client-side latency order statistics, microseconds.
    pub p50_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
}

impl LoadgenReport {
    /// Requests per second over the whole run.
    pub fn throughput(&self) -> f64 {
        let total = self.ok + self.shed + self.deadline + self.other_errors;
        if self.wall.as_secs_f64() == 0.0 {
            0.0
        } else {
            total as f64 / self.wall.as_secs_f64()
        }
    }

    /// Fraction of successful requests served from the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.ok == 0 {
            0.0
        } else {
            self.cached as f64 / self.ok as f64
        }
    }
}

/// A tiny deterministic PRNG (splitmix64) so the loadgen needs no dev-only
/// dependencies in the library build.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Runs the load against already-running endpoints that each serve
/// `cluster` (one daemon, a router, N shards behind a router, or the
/// router replicated). Worker `w` connects to `addrs[w % addrs.len()]`,
/// so the workload round-robins across every endpoint. All
/// workers' latencies are pooled before the percentile pass, so the
/// reported p50/p99 stay exact order statistics over the merged run —
/// not an average of per-endpoint percentiles. Panics on an empty
/// address list or zero workers/requests (caller bug).
pub fn run_multi(
    addrs: &[SocketAddr],
    cluster: &str,
    config: &LoadgenConfig,
) -> Result<LoadgenReport, crate::protocol::ProtoError> {
    assert!(!addrs.is_empty(), "at least one endpoint");
    assert!(config.workers > 0 && config.requests_per_worker > 0);
    let distinct = config.distinct_n.max(1) as u64;
    let started = Instant::now();
    let mut handles = Vec::with_capacity(config.workers);
    for w in 0..config.workers {
        let addr = addrs[w % addrs.len()];
        let cluster = cluster.to_owned();
        let cfg = config.clone();
        handles.push(std::thread::spawn(move || -> (Vec<u64>, LoadgenReport) {
            let mut rng = SplitMix(cfg.seed ^ (w as u64).wrapping_mul(0xA5A5_A5A5));
            let mut latencies = Vec::with_capacity(cfg.requests_per_worker);
            let mut tally = LoadgenReport {
                ok: 0,
                cached: 0,
                shed: 0,
                deadline: 0,
                other_errors: 0,
                wall: Duration::ZERO,
                p50_us: 0,
                p99_us: 0,
                mean_us: 0.0,
            };
            let Ok(mut client) =
                Client::connect(addr, Duration::from_millis(cfg.deadline_ms + 5000))
            else {
                tally.other_errors = cfg.requests_per_worker as u64;
                return (latencies, tally);
            };
            // One size sequence per seed, shared by every mode, so reports
            // across modes describe the same workload. Near-dup mode packs
            // all sizes into a ±1e-3 band around n_base (warm-start
            // territory); the default spreads them 1000 elements apart.
            let stride = if cfg.near_dup {
                (cfg.n_base / (1000 * distinct)).max(1)
            } else {
                1000
            };
            let sizes: Vec<u64> = (0..cfg.requests_per_worker)
                .map(|_| cfg.n_base + (rng.next() % distinct) * stride)
                .collect();
            match cfg.mode {
                LoadMode::Single => {
                    run_single(&mut client, &cluster, &cfg, &sizes, &mut latencies, &mut tally)
                }
                LoadMode::Pipelined { depth } => run_pipelined(
                    &mut client,
                    &cluster,
                    &cfg,
                    &sizes,
                    depth.max(1),
                    &mut latencies,
                    &mut tally,
                ),
                LoadMode::Batch { size } => run_batched(
                    &mut client,
                    &cluster,
                    &cfg,
                    &sizes,
                    size.max(1),
                    &mut latencies,
                    &mut tally,
                ),
            }
            (latencies, tally)
        }));
    }
    let mut all_latencies = Vec::new();
    let mut report = LoadgenReport {
        ok: 0,
        cached: 0,
        shed: 0,
        deadline: 0,
        other_errors: 0,
        wall: Duration::ZERO,
        p50_us: 0,
        p99_us: 0,
        mean_us: 0.0,
    };
    for handle in handles {
        let (latencies, tally) = handle
            .join()
            .map_err(|_| crate::protocol::ProtoError::new("internal", "loadgen worker panicked"))?;
        all_latencies.extend(latencies);
        report.ok += tally.ok;
        report.cached += tally.cached;
        report.shed += tally.shed;
        report.deadline += tally.deadline;
        report.other_errors += tally.other_errors;
    }
    report.wall = started.elapsed();
    if !all_latencies.is_empty() {
        all_latencies.sort_unstable();
        report.p50_us = percentile(&all_latencies, 0.50);
        report.p99_us = percentile(&all_latencies, 0.99);
        report.mean_us =
            all_latencies.iter().sum::<u64>() as f64 / all_latencies.len() as f64;
    }
    Ok(report)
}

fn record_latency(latencies: &mut Vec<u64>, since: Instant) {
    latencies.push(since.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
}

fn tally_error(tally: &mut LoadgenReport, code: &str) {
    match code {
        "overloaded" => tally.shed += 1,
        "deadline" => tally.deadline += 1,
        _ => tally.other_errors += 1,
    }
}

fn run_single(
    client: &mut Client,
    cluster: &str,
    cfg: &LoadgenConfig,
    sizes: &[u64],
    latencies: &mut Vec<u64>,
    tally: &mut LoadgenReport,
) {
    for &n in sizes {
        let t0 = Instant::now();
        match client.partition(cluster, n, cfg.algorithm, Some(cfg.deadline_ms)) {
            Ok(reply) => {
                record_latency(latencies, t0);
                tally.ok += 1;
                if reply.cached {
                    tally.cached += 1;
                }
            }
            Err(e) => tally_error(tally, e.code),
        }
    }
}

/// Keeps up to `depth` requests in flight; each reply's latency is
/// measured from its own send instant, so queuing inside the window is
/// included (what a pipelined caller actually experiences).
fn run_pipelined(
    client: &mut Client,
    cluster: &str,
    cfg: &LoadgenConfig,
    sizes: &[u64],
    depth: usize,
    latencies: &mut Vec<u64>,
    tally: &mut LoadgenReport,
) {
    // Client and server often share one core (CI-class containers), so
    // the window loop is allocation-light: requests render into a reused
    // buffer, replies go through the borrowing parser (no per-reply DOM).
    let algorithm = cfg.algorithm.to_string();
    let mut burst = String::with_capacity(depth * 160);
    let mut reply = String::with_capacity(512);
    let mut in_flight: VecDeque<(u64, Instant)> = VecDeque::with_capacity(depth);
    let mut next = 0usize;
    let mut received = 0usize;
    while received < sizes.len() {
        if next < sizes.len() && in_flight.len() < depth {
            // Fill the window with one buffered write: per-request send
            // syscalls would dominate the round trip at depth ≥ 8.
            burst.clear();
            let first = next;
            while next < sizes.len() && in_flight.len() + (next - first) < depth {
                let _ = writeln!(
                    burst,
                    "{{\"id\":{next},\"verb\":\"partition\",\"cluster\":{},\"n\":{},\"algorithm\":\"{algorithm}\",\"deadline_ms\":{}}}",
                    JsonStr(cluster),
                    sizes[next],
                    cfg.deadline_ms,
                );
                next += 1;
            }
            if client.send_bytes(burst.as_bytes()).is_err() {
                tally.other_errors += (sizes.len() - received) as u64;
                return;
            }
            let sent_at = Instant::now();
            for id in first..next {
                in_flight.push_back((id as u64, sent_at));
            }
        }
        if client.recv_line(&mut reply).is_err() {
            tally.other_errors += (sizes.len() - received) as u64;
            return;
        }
        let Some((want, sent_at)) = in_flight.pop_front() else { return };
        let Ok(v) = Json::parse_ref(&reply) else {
            tally.other_errors += (sizes.len() - received) as u64;
            return;
        };
        if v.get("id").and_then(JsonRef::as_u64) != Some(want) {
            tally.other_errors += (sizes.len() - received) as u64;
            return;
        }
        if v.get("ok").and_then(JsonRef::as_bool) == Some(true) {
            record_latency(latencies, sent_at);
            tally.ok += 1;
            if v.get("cached").and_then(JsonRef::as_bool) == Some(true) {
                tally.cached += 1;
            }
        } else {
            tally_error(tally, v.get("error").and_then(JsonRef::as_str).unwrap_or("internal"));
        }
        received += 1;
    }
}

/// Packs sizes into `partition_batch` envelopes. Every element of a batch
/// is assigned the round-trip latency of its envelope — that is when its
/// answer actually arrived.
fn run_batched(
    client: &mut Client,
    cluster: &str,
    cfg: &LoadgenConfig,
    sizes: &[u64],
    batch: usize,
    latencies: &mut Vec<u64>,
    tally: &mut LoadgenReport,
) {
    for chunk in sizes.chunks(batch) {
        let t0 = Instant::now();
        match client.partition_batch(cluster, chunk, cfg.algorithm, Some(cfg.deadline_ms)) {
            Ok(results) => {
                let elapsed = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                for result in results {
                    match result {
                        Ok(reply) => {
                            latencies.push(elapsed);
                            tally.ok += 1;
                            if reply.cached {
                                tally.cached += 1;
                            }
                        }
                        Err(e) => tally_error(tally, e.code),
                    }
                }
            }
            Err(e) => {
                // Envelope-level failure: every element in it failed.
                for _ in chunk {
                    tally_error(tally, e.code);
                }
            }
        }
    }
}

/// Nearest-rank percentile of an already-sorted sample.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::server::{spawn, ServerConfig};

    fn register_demo(addr: SocketAddr) {
        let mut c = Client::connect(addr, Duration::from_secs(5)).unwrap();
        c.register_inline(
            "demo",
            &[
                ("A".into(), vec![(1e3, 200.0), (1e6, 180.0), (1e9, 0.0)]),
                ("B".into(), vec![(1e3, 100.0), (1e6, 90.0), (1e9, 0.0)]),
            ],
        )
        .unwrap();
    }

    /// Registers the clusters the warm, pipelined and batched runs drive:
    /// the inline 2-machine `demo` and the 12-machine Table 2 testbed,
    /// built server-side from its spec.
    fn register_clusters(addr: SocketAddr) -> [&'static str; 2] {
        register_demo(addr);
        let mut c = Client::connect(addr, Duration::from_secs(10)).unwrap();
        let reg = c.register_testbed("table2", "table2", "mm", 0xBE9C).unwrap();
        assert_eq!(reg.machines.len(), 12, "Table 2 testbed");
        ["demo", "table2"]
    }

    #[test]
    fn warm_run_hits_cache_heavily() {
        let handle = spawn(ServerConfig::default()).unwrap();
        let cfg = LoadgenConfig {
            workers: 3,
            requests_per_worker: 40,
            distinct_n: 2,
            ..LoadgenConfig::default()
        };
        for cluster in register_clusters(handle.addr) {
            let report = run_multi(&[handle.addr], cluster, &cfg).unwrap();
            assert_eq!(report.ok, 120, "{cluster}: {report:?}");
            assert_eq!(report.other_errors, 0, "{cluster}");
            // At most 2 distinct keys are ever computed; everything else
            // must be served from the cache (or coalesced onto a computing
            // flight).
            assert!(report.hit_rate() > 0.9, "{cluster} hit rate {}", report.hit_rate());
            assert!(report.p99_us >= report.p50_us);
            assert!(report.throughput() > 0.0);
        }
        handle.shutdown_and_join();
    }

    #[test]
    fn near_dup_run_warm_starts_the_solver() {
        let handle = spawn(ServerConfig::default()).unwrap();
        register_demo(handle.addr);
        let cfg = LoadgenConfig {
            workers: 2,
            requests_per_worker: 40,
            distinct_n: 8,
            n_base: 1_000_000,
            near_dup: true,
            ..LoadgenConfig::default()
        };
        let report = run_multi(&[handle.addr], "demo", &cfg).unwrap();
        assert_eq!(report.ok, 80);
        assert_eq!(report.other_errors, 0);
        let stats = handle.shutdown_and_join();
        // 8 distinct sizes within 0.1% of each other: the first is a cold
        // miss, every later first-occurrence warm-starts from its donor.
        let warm = stats.get("warm_starts").and_then(Json::as_u64).unwrap_or(0);
        let fallbacks = stats.get("warm_start_fallbacks").and_then(Json::as_u64).unwrap_or(0);
        assert!(warm > 0, "near-dup burst must warm-start ({warm} warm, {fallbacks} fallback)");
    }

    #[test]
    fn pipelined_and_batch_modes_complete_every_request() {
        // Pipelining keeps workers * depth requests in flight at once; give
        // the solver queue enough headroom that nothing is shed.
        let handle = spawn(ServerConfig {
            queue_capacity: 256,
            ..ServerConfig::default()
        })
        .unwrap();
        for cluster in register_clusters(handle.addr) {
            for mode in [LoadMode::Pipelined { depth: 8 }, LoadMode::Batch { size: 10 }] {
                let cfg = LoadgenConfig {
                    workers: 2,
                    requests_per_worker: 50,
                    distinct_n: 4,
                    mode,
                    ..LoadgenConfig::default()
                };
                let report = run_multi(&[handle.addr], cluster, &cfg).unwrap();
                assert_eq!(report.ok, 100, "{cluster} mode {mode:?}: {report:?}");
                assert_eq!(report.other_errors, 0, "{cluster} mode {mode:?}");
                let hit = report.hit_rate();
                assert!(hit > 0.9, "{cluster} mode {mode:?} hit {hit}");
                assert!(report.p99_us >= report.p50_us);
            }
        }
        let stats = handle.shutdown_and_join();
        assert!(stats.get("batch_requests").and_then(Json::as_u64).unwrap_or(0) >= 20);
        assert!(stats.get("pipeline_depth_peak").and_then(Json::as_u64).unwrap_or(0) >= 2);
    }

    #[test]
    fn multi_endpoint_run_round_robins_workers() {
        // Two independent servers, each holding the cluster: the merged
        // report must account for every request, and both endpoints must
        // have actually been exercised (each server sees ~half the load).
        let a = spawn(ServerConfig::default()).unwrap();
        let b = spawn(ServerConfig::default()).unwrap();
        register_demo(a.addr);
        register_demo(b.addr);
        let cfg = LoadgenConfig {
            workers: 4,
            requests_per_worker: 30,
            distinct_n: 2,
            ..LoadgenConfig::default()
        };
        let report = run_multi(&[a.addr, b.addr], "demo", &cfg).unwrap();
        assert_eq!(report.ok, 120);
        assert_eq!(report.other_errors, 0);
        assert!(report.p99_us >= report.p50_us);
        let stats_a = a.shutdown_and_join();
        let stats_b = b.shutdown_and_join();
        let pa = stats_a.get("partition_requests").and_then(Json::as_u64).unwrap();
        let pb = stats_b.get("partition_requests").and_then(Json::as_u64).unwrap();
        assert_eq!(pa + pb, 120);
        assert_eq!(pa, 60, "2 of 4 workers per endpoint");
    }

    #[test]
    fn percentiles_are_exact_order_statistics() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[7], 0.5), 7);
    }
}
