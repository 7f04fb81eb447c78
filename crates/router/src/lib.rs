//! fpm-router: the multi-node front door for `fpm-serve`.
//!
//! A single router process speaks the exact line-delimited JSON protocol
//! of a single `fpm-serve` daemon (clients need no changes) and spreads
//! the model registry across N backend shards:
//!
//! - **Routing** — a static consistent-hash ring ([`ring::HashRing`],
//!   FNV-1a64 with [`ring::DEFAULT_VNODES`] virtual nodes per shard) maps
//!   every cluster name to an owning shard; fingerprint-addressed
//!   requests follow a learned `fingerprint → name` alias.
//! - **Replication** — `register` and `report` fan out to the owner plus
//!   `replicas − 1` clockwise successors; both verbs are deterministic
//!   and each shard has one upstream connection, so every replica
//!   applies writes in the same order and holds a bit-identical model.
//! - **Failover** — `partition`/`partition_batch` go to the owner and
//!   retry replicas on transport failure or a draining shard, so killing
//!   one shard degrades routing instead of erroring clients. A failed
//!   upstream connection fails over every request queued on it.
//! - **Replica catch-up** — when a health probe finds a down shard alive
//!   again, the last acknowledged `register` line and every write sent
//!   since, in flight or acknowledged, are replayed for each cluster it
//!   replicates (keyed by the cluster names the `fingerprint → name`
//!   alias map resolves to), and the shard takes reads only once the
//!   replay is answered. A shard that restarted empty comes back at its
//!   peers' epoch.
//! - **Cluster stats** — the `cluster_stats` verb merges per-shard
//!   counters and latency histograms (bucket-wise, exact) and reports
//!   per-shard health.
//!
//! Like the serve crate, this is dependency-free, and it runs on one
//! thread: the serve crate's connection core ([`fpm_serve::conn`])
//! polls the client connections, one pipelined upstream connection per
//! shard, and the health probes. See [`server`] for the architecture and
//! [`server::spawn`] to embed a router in-process (the `fpm router` CLI
//! wraps exactly that).

#![forbid(unsafe_code)]

pub mod metrics;
pub mod ring;
pub mod server;

pub use ring::{fnv1a64, HashRing, DEFAULT_VNODES};
pub use server::{spawn, RouterConfig, RouterHandle};
