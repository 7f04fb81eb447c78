//! The serving stack under test: two in-process `fpm-serve` shards behind
//! one in-process `fpm-router`, all with default configurations except
//! ephemeral ports, plus their `stats` counters.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use fpm_router::{RouterConfig, RouterHandle};
use fpm_serve::json::Json;
use fpm_serve::protocol::{ClusterSpec, WireModel};
use fpm_serve::{ServerConfig, ServerHandle};

use crate::check::{field_str, reply_ok, Failure};
use crate::wire::Wire;

/// Shards behind the router; with the default replication factor of 2
/// every write fans out to both.
pub const SHARDS: usize = 2;

/// Shard counters read from `stats`, summed over shards.
const SHARD_COUNTERS: [&str; 9] = [
    "cache_hits",
    "cache_misses",
    "cache_coalesced",
    "warm_starts",
    "warm_start_fallbacks",
    "shed",
    "deadline_misses",
    "errors",
    "partition_requests",
];
/// Shard gauges whose maximum over shards is kept.
const SHARD_PEAKS: [&str; 2] = ["queue_depth_peak", "pipeline_depth_peak"];
/// Router counters read from the router's own `stats`.
const ROUTER_COUNTERS: [&str; 5] = [
    "forwarded",
    "fanout_legs",
    "failovers",
    "failover_exhausted",
    "errors",
];

pub struct Stack {
    shards: Vec<ServerHandle>,
    router: RouterHandle,
}

impl Stack {
    pub fn spawn() -> Result<Stack, Failure> {
        let mut shards = Vec::with_capacity(SHARDS);
        for _ in 0..SHARDS {
            shards.push(fpm_serve::spawn(ServerConfig::default())?);
        }
        let router = fpm_router::spawn(RouterConfig {
            shards: shards.iter().map(|s| s.addr).collect(),
            ..RouterConfig::default()
        })?;
        Ok(Stack { shards, router })
    }

    pub fn router_addr(&self) -> SocketAddr {
        self.router.addr
    }

    /// The shard that owns `cluster` on the router's ring.
    pub fn owner(&self, cluster: &str) -> SocketAddr {
        self.router.route(cluster)[0]
    }

    /// Stops the router, then every shard, and waits for all of them.
    pub fn shutdown(self) {
        self.router.shutdown_and_join();
        for shard in self.shards {
            shard.shutdown_and_join();
        }
    }

    /// Current counters: `serve.*` summed over shards (gauges: maximum)
    /// and `router.*`.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for shard in &self.shards {
            let stats = shard.metrics_json();
            for key in SHARD_COUNTERS {
                *c.0.entry(format!("serve.{key}")).or_default() += read(&stats, key);
            }
            for key in SHARD_PEAKS {
                let slot = c.0.entry(format!("serve.{key}")).or_default();
                *slot = (*slot).max(read(&stats, key));
            }
        }
        let stats = self.router.metrics_json();
        for key in ROUTER_COUNTERS {
            c.0.insert(format!("router.{key}"), read(&stats, key));
        }
        c
    }
}

fn read(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// A snapshot of the stack's counters, keyed `serve.<name>` / `router.<name>`.
#[derive(Debug, Clone, Default)]
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    /// Adds `after - before` into `self`; peak gauges take `after`'s value.
    pub fn add_delta(&mut self, before: &Counters, after: &Counters) {
        for (key, &v) in &after.0 {
            let slot = self.0.entry(key.clone()).or_default();
            if key.ends_with("_peak") {
                *slot = (*slot).max(v);
            } else {
                *slot += v.saturating_sub(before.get(key));
            }
        }
    }
}

/// The `register` payload for inline `(size, speed)` knots, as the mirror
/// registry takes it. Machine names are the daemon's defaults (`m<i>`).
pub fn inline_spec(knots: &[Vec<(f64, f64)>]) -> ClusterSpec {
    ClusterSpec::Inline(
        knots
            .iter()
            .enumerate()
            .map(|(i, k)| WireModel {
                name: format!("m{i}"),
                knots: k.clone(),
                cost: false,
            })
            .collect(),
    )
}

/// The same registration as a wire line (f64 `Display` round-trips
/// exactly, so daemon and mirror see bit-identical knots).
pub fn inline_register_line(cluster: &str, knots: &[Vec<(f64, f64)>]) -> String {
    let mut line = format!("{{\"verb\":\"register\",\"cluster\":\"{cluster}\",\"models\":[");
    for (i, machine) in knots.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str("{\"knots\":[");
        for (j, (x, s)) in machine.iter().enumerate() {
            if j > 0 {
                line.push(',');
            }
            let _ = write!(line, "[{x},{s}]");
        }
        line.push_str("]}");
    }
    line.push_str("]}\n");
    line
}

/// Registers one cluster through the router and returns its fingerprint
/// and how long the acknowledged round trip took.
pub fn register(wire: &mut Wire, line: &str) -> Result<(String, Duration), Failure> {
    let t = Instant::now();
    let reply = wire.roundtrip(line.as_bytes())?;
    let took = t.elapsed();
    reply_ok(&reply).map_err(|code| Failure::Io(format!("register refused: {code}")))?;
    let fp = field_str(&reply, "fingerprint")
        .ok_or_else(|| Failure::Io("register reply without fingerprint".into()))?;
    Ok((fp.to_owned(), took))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_subtract_counters_and_keep_peaks() {
        let snap = |pairs: &[(&str, u64)]| {
            Counters(pairs.iter().map(|&(k, v)| (k.to_owned(), v)).collect())
        };
        let before = snap(&[("serve.cache_hits", 10), ("serve.queue_depth_peak", 3)]);
        let after = snap(&[
            ("serve.cache_hits", 25),
            ("serve.queue_depth_peak", 2),
            ("router.forwarded", 4),
        ]);
        let mut total = Counters::default();
        total.add_delta(&before, &after);
        total.add_delta(&before, &after);
        assert_eq!(total.get("serve.cache_hits"), 30);
        assert_eq!(total.get("serve.queue_depth_peak"), 2);
        assert_eq!(total.get("router.forwarded"), 8);
        assert_eq!(total.get("serve.missing"), 0);
    }
}
