//! The router daemon: the routing/replication/failover handler on
//! `fpm-serve`'s connection core ([`fpm_serve::conn`]), plus a small pool
//! of blocking upstream connections per shard.
//!
//! # Architecture
//!
//! The client side is the connection core (pipelining, in-order replies,
//! drain). The handler never blocks on a shard: forwarding hands the raw
//! request line to a per-shard upstream worker (a thread owning one
//! blocking [`fpm_serve::Client`] connection), and the worker posts the
//! raw reply line back through the core's [`Completer`] — exactly how the
//! serve daemon hands solves to its worker pool.
//!
//! ```text
//!  clients ──conn core──▶ slot queue ──▶ per-shard job queues
//!                ▲                               │ (N upstream conns each)
//!                │ Completer (channel + wake)    ▼
//!                └────────────────────────── shard workers ──TCP──▶ fpm-serve
//! ```
//!
//! # Routing
//!
//! Every request that names a cluster is routed by consistent hash of its
//! routing key ([`crate::ring::HashRing`]): the cluster *name*, or for
//! fingerprint-addressed requests the name the fingerprint was learned
//! under (the router remembers `fingerprint → key` from `register` and
//! `report` replies). `register`/`report` fan out to the owner plus
//! `replicas - 1` successor shards so every replica holds the same model
//! (both verbs are deterministic, so replicas stay bit-identical);
//! `partition`/`partition_batch` go to the owner and fail over through
//! the replica set when a shard is unreachable, answers `shutting_down`,
//! or dies mid-request. Request and reply lines are forwarded *verbatim*,
//! which is what makes routed results bit-identical to single-node serving.
//!
//! # Health
//!
//! A shard is marked unhealthy passively (any transport failure on a
//! worker or stats leg) and recovers via a per-shard prober that pings on
//! a fixed interval while healthy and with exponential backoff (capped)
//! while down. Workers fail jobs against a down shard immediately — the
//! failover path answers from a replica without waiting on connect
//! timeouts.
//!
//! When the prober flips a shard back to healthy, the router *catches
//! the replica up*: every remembered `register` line whose replica set
//! includes the recovered shard is replayed to it (fire-and-forget, and
//! idempotent — registration is deterministic, so a shard that never
//! actually lost its registry converges to the same state). The replay
//! store is keyed by the same cluster names the `fingerprint → name`
//! alias map resolves to, so a shard that restarted empty serves both
//! name- and fingerprint-addressed requests again without any client
//! intervention.
//!
//! # Caveat
//!
//! Replies on one client connection stay strictly in request order, but a
//! fan-out verb (`register`/`report`) pipelined *ahead* of a dependent
//! `partition` on the same connection may reach the shards after it —
//! issue dependent requests after the fan-out's reply, as the tests do.

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::RouterMetrics;
use crate::ring::{HashRing, DEFAULT_VNODES};
use fpm_serve::client::{Client, SHARD_UNAVAILABLE};
use fpm_serve::conn::{self, Completer, Conn, Handler, Line, ReplyAddr};
use fpm_serve::json::{Json, JsonRef, JsonStr};
use fpm_serve::metrics::{elapsed_us, Counters, HistogramSnapshot};
use fpm_serve::protocol::{
    display_id, parse_report_target_ref, parse_target_ref, render_err, render_ok_head,
    ClusterRefView, ProtoError,
};

/// How long a worker waits on its job queue before re-checking shutdown.
const WORKER_TICK: Duration = Duration::from_millis(100);
/// TCP connect bound for upstream workers and probes.
const UPSTREAM_CONNECT: Duration = Duration::from_secs(1);
/// Upstream connections (worker threads) per shard.
const UPSTREAM_CONNS: usize = 4;
/// Read timeout on shard replies.
const UPSTREAM_TIMEOUT: Duration = Duration::from_secs(30);
/// First reconnect-probe delay after a shard goes down.
const BACKOFF_BASE: Duration = Duration::from_millis(50);
/// Reconnect-probe delay cap.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: SocketAddr,
    /// Backend fpm-serve shards, in ring order.
    pub shards: Vec<SocketAddr>,
    /// Replication factor for `register`/`report` fan-out and the
    /// failover set of `partition` (clamped to the shard count).
    pub replicas: usize,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
    /// Health-probe interval while a shard is healthy, milliseconds.
    pub probe_interval_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".parse().expect("literal address"),
            shards: Vec::new(),
            replicas: 2,
            vnodes: DEFAULT_VNODES,
            probe_interval_ms: 250,
        }
    }
}

/// One shard as the router sees it: its address, a passive+probed health
/// flag and the job queue its upstream workers drain.
struct ShardSlot {
    addr: SocketAddr,
    healthy: AtomicBool,
    jobs: mpsc::Sender<UpJob>,
}

/// Shared state of one running router.
struct Shared {
    config: RouterConfig,
    ring: HashRing,
    shards: Vec<ShardSlot>,
    metrics: RouterMetrics,
    stopping: AtomicBool,
    /// `routing key → last acknowledged raw register line`, replayed to
    /// a shard when the prober brings it back (replica catch-up). The
    /// keys are the cluster names the fingerprint alias map points at.
    catchup: Mutex<HashMap<String, String>>,
}

impl Shared {
    fn mark_down(&self, shard: usize) {
        if self.shards[shard].healthy.swap(false, Ordering::SeqCst) {
            self.metrics.inc(&self.metrics.shard_down_marks);
        }
    }

    /// Flips a shard healthy; true only on a down → up transition.
    fn mark_up(&self, shard: usize) -> bool {
        if !self.shards[shard].healthy.swap(true, Ordering::SeqCst) {
            self.metrics.inc(&self.metrics.shard_up_marks);
            return true;
        }
        false
    }

    /// Replays every remembered register line whose replica set includes
    /// `shard`. Fire-and-forget: a crash-restarted (empty) shard
    /// re-learns the models it replicates; a shard that merely lost
    /// connectivity re-registers identically (registration is
    /// deterministic), so the replay is idempotent either way.
    fn catch_up(&self, shard: usize) {
        let catchup = self.catchup.lock().expect("catchup lock");
        for (key, line) in catchup.iter() {
            if self.ring.route(key, self.config.replicas).contains(&shard)
                && self.shards[shard].jobs.send(UpJob::Fire { line: line.clone() }).is_ok()
            {
                self.metrics.inc(&self.metrics.catchup_replays);
            }
        }
    }
}

/// Handle to a running router; dropping it does **not** stop the daemon —
/// call [`RouterHandle::shutdown_and_join`] (or send the `shutdown` verb).
pub struct RouterHandle {
    /// The bound address (with the actual port when 0 was requested).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    driver: Option<JoinHandle<()>>,
    side_threads: Vec<JoinHandle<()>>,
}

impl RouterHandle {
    /// Requests shutdown, drains in-flight work and returns the final
    /// router metrics snapshot. Shards are left running — only the
    /// `shutdown` *verb* broadcasts drain to them.
    pub fn shutdown_and_join(mut self) -> Json {
        self.shared.stopping.store(true, Ordering::SeqCst);
        // Wake the poller with a no-op connection (dropped unserved).
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.driver.take() {
            let _ = handle.join();
        }
        for t in self.side_threads.drain(..) {
            let _ = t.join();
        }
        self.shared.metrics.snapshot_json()
    }

    /// Point-in-time router metrics snapshot.
    pub fn metrics_json(&self) -> Json {
        self.shared.metrics.snapshot_json()
    }

    /// True once shutdown has been requested (by verb or handle).
    pub fn is_stopping(&self) -> bool {
        self.shared.stopping.load(Ordering::SeqCst)
    }

    /// The replica set (owner first) a routing key maps to — used by the
    /// fault tests and benches to find (and kill) a cluster's owner.
    pub fn route(&self, key: &str) -> Vec<SocketAddr> {
        self.shared
            .ring
            .route(key, self.shared.config.replicas)
            .into_iter()
            .map(|i| self.shared.shards[i].addr)
            .collect()
    }

    /// All shard addresses, in ring order.
    pub fn shard_addrs(&self) -> Vec<SocketAddr> {
        self.shared.shards.iter().map(|s| s.addr).collect()
    }
}

/// A shard's raw reply line, or the transport error in its place.
type Reply = Result<String, ProtoError>;

/// A job handed to a shard's upstream workers.
enum UpJob {
    /// Round-trip `line` and post the raw reply to the event loop.
    Request { line: String, addr: ReplyAddr },
    /// Fire-and-forget (shutdown broadcast, catch-up replay): best-effort
    /// send, reply read and dropped.
    Fire { line: String },
}

/// Starts the router; returns once the listener is bound. Fails fast on
/// an empty shard list — a router with nothing behind it serves nothing.
pub fn spawn(config: RouterConfig) -> std::io::Result<RouterHandle> {
    if config.shards.is_empty() {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            "router needs at least one shard",
        ));
    }
    let listener = TcpListener::bind(config.addr)?;
    let addr = listener.local_addr()?;
    let (completer, completions) = conn::completion_channel::<Reply>()?;

    let ring = HashRing::new(config.shards.len(), config.vnodes.max(1));
    let mut shards = Vec::with_capacity(config.shards.len());
    let mut queues = Vec::with_capacity(config.shards.len());
    for &shard_addr in &config.shards {
        let (tx, rx) = mpsc::channel::<UpJob>();
        shards.push(ShardSlot { addr: shard_addr, healthy: AtomicBool::new(true), jobs: tx });
        queues.push(Arc::new(Mutex::new(rx)));
    }
    let shared = Arc::new(Shared {
        config,
        ring,
        shards,
        metrics: RouterMetrics::new(),
        stopping: AtomicBool::new(false),
        catchup: Mutex::new(HashMap::new()),
    });
    // Jobs queue up until the workers below start draining them.
    let handler = RouteHandler { shared: Arc::clone(&shared), aliases: HashMap::new() };
    let driver = conn::spawn("fpm-router-loop", listener, completions, handler)?;

    let mut side_threads = Vec::new();
    for (i, queue) in queues.into_iter().enumerate() {
        for w in 0..UPSTREAM_CONNS {
            let queue = Arc::clone(&queue);
            let shared = Arc::clone(&shared);
            let completer = completer.clone();
            side_threads.push(
                std::thread::Builder::new()
                    .name(format!("fpm-router-up-{i}-{w}"))
                    .spawn(move || upstream_worker(i, queue, shared, completer))
                    .expect("spawn upstream worker"),
            );
        }
        let shared_probe = Arc::clone(&shared);
        side_threads.push(
            std::thread::Builder::new()
                .name(format!("fpm-router-probe-{i}"))
                .spawn(move || prober(i, shared_probe))
                .expect("spawn prober"),
        );
    }
    Ok(RouterHandle { addr, shared, driver: Some(driver), side_threads })
}

// --- upstream workers and probing ---------------------------------------

/// One upstream worker: owns at most one blocking connection to its
/// shard, round-trips jobs one at a time (strict request/reply pairing —
/// no upstream id bookkeeping needed), and posts raw reply lines back.
fn upstream_worker(
    shard: usize,
    queue: Arc<Mutex<mpsc::Receiver<UpJob>>>,
    shared: Arc<Shared>,
    completer: Completer<Reply>,
) {
    let mut client: Option<Client> = None;
    let mut reply = String::with_capacity(512);
    let post = |addr: Option<ReplyAddr>, result: Reply| {
        if let Some(addr) = addr {
            completer.complete(addr, result);
        }
    };
    loop {
        let job = {
            let rx = queue.lock().expect("queue lock");
            rx.recv_timeout(WORKER_TICK)
        };
        let job = match job {
            Ok(job) => job,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        };
        let (line, addr) = match job {
            UpJob::Request { line, addr } => (line, Some(addr)),
            UpJob::Fire { line } => (line, None),
        };
        // Connect lazily. A shard already marked down fails the job
        // immediately: the failover path must not wait on connect
        // timeouts while a replica could answer now.
        if client.is_none() {
            if !shared.shards[shard].healthy.load(Ordering::SeqCst) {
                post(addr, Err(unavailable(&shared, shard, "marked down")));
                continue;
            }
            match Client::connect_timeout(
                shared.shards[shard].addr,
                Some(UPSTREAM_CONNECT),
                UPSTREAM_TIMEOUT,
            ) {
                Ok(c) => client = Some(c),
                Err(e) => {
                    shared.mark_down(shard);
                    post(addr, Err(unavailable(&shared, shard, &e.to_string())));
                    continue;
                }
            }
        }
        let conn = client.as_mut().expect("connected above");
        match conn.request_line(&line, &mut reply) {
            Ok(()) => post(addr, Ok(reply.clone())),
            Err(e) => {
                // Any failed round-trip abandons the connection: a
                // half-read reply would desynchronise the pairing.
                client = None;
                if e.code == SHARD_UNAVAILABLE {
                    shared.mark_down(shard);
                }
                post(addr, Err(e));
            }
        }
    }
}

fn unavailable(shared: &Shared, shard: usize, detail: &str) -> ProtoError {
    ProtoError::new(
        SHARD_UNAVAILABLE,
        format!("shard {} unavailable: {detail}", shared.shards[shard].addr),
    )
}

/// Per-shard health probe: pings on a fixed interval while the shard is
/// healthy; while it is down, retries with exponential backoff from
/// [`BACKOFF_BASE`] up to [`BACKOFF_CAP`] and flips the shard back to
/// healthy on the first successful pong.
fn prober(shard: usize, shared: Arc<Shared>) {
    let interval = Duration::from_millis(shared.config.probe_interval_ms.max(1));
    let mut delay = interval;
    loop {
        // Sleep in short slices so shutdown joins promptly even from the
        // backoff cap.
        let deadline = Instant::now() + delay;
        while Instant::now() < deadline {
            if shared.stopping.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        shared.metrics.inc(&shared.metrics.probes);
        let alive = Client::connect_timeout(
            shared.shards[shard].addr,
            Some(UPSTREAM_CONNECT),
            Duration::from_secs(2),
        )
        .ok()
        .and_then(|mut c| c.ping().ok())
        .is_some();
        if alive {
            if shared.mark_up(shard) {
                shared.catch_up(shard);
            }
            delay = interval;
        } else {
            shared.mark_down(shard);
            delay = (delay * 2).clamp(BACKOFF_BASE, BACKOFF_CAP);
        }
    }
}

// --- the request handler -------------------------------------------------

/// What a pending reply slot waits for.
enum Leg {
    /// One forwarded request with failover: `candidates[tried]` is the
    /// shard currently asked.
    Forward { raw: String, candidates: Vec<usize>, tried: usize },
    /// A fan-out (`register`/`report`), one result per replica leg in
    /// route order (owner first). `register_raw` carries the raw line of
    /// a `register` (None for `report`) so an acknowledged registration
    /// enters the replica catch-up store.
    FanOut {
        key: String,
        results: Vec<Option<Reply>>,
        remaining: usize,
        register_raw: Option<String>,
    },
    /// `cluster_stats`: one stats leg per shard.
    ClusterStats { results: Vec<Option<Reply>>, remaining: usize },
}

/// The router's request logic.
struct RouteHandler {
    shared: Arc<Shared>,
    /// `fingerprint → routing key` learned from register/report replies,
    /// so fingerprint-addressed requests land on the shard set that holds
    /// the model. Only the loop thread touches it.
    aliases: HashMap<String, String>,
}

impl Handler for RouteHandler {
    type Pending = Leg;
    type Done = Reply;

    fn stopping(&self) -> bool {
        self.shared.stopping.load(Ordering::SeqCst)
    }

    fn on_accept(&self) {
        self.shared.metrics.inc(&self.shared.metrics.connections);
    }

    fn on_request(&self) {
        self.shared.metrics.inc(&self.shared.metrics.requests);
    }

    fn on_error(&self) {
        self.shared.metrics.inc(&self.shared.metrics.errors);
    }

    fn handle(&mut self, conn: &mut Conn<Leg>, line: Line<'_>) -> bool {
        let m = &self.shared.metrics;
        let disp = line.display_id();
        match line.verb {
            "ping" => {
                m.inc(&m.ping_requests);
                conn.with_out(|out| {
                    render_ok_head(out, disp, "ping");
                    out.push_str(",\"pong\":true}");
                });
            }
            "stats" => {
                m.inc(&m.stats_requests);
                let snapshot = m.snapshot_json();
                let health = self.shards_health_json();
                conn.with_out(|out| {
                    render_ok_head(out, disp, "stats");
                    let _ = write!(out, ",\"stats\":{snapshot},\"shards\":{health}}}");
                });
            }
            "cluster_stats" => {
                m.inc(&m.cluster_stats_requests);
                self.start_cluster_stats(conn, &line);
            }
            "shutdown" => {
                m.inc(&m.shutdown_requests);
                // Drain the fleet, then drain the router itself.
                for shard in &self.shared.shards {
                    let _ = shard.jobs.send(UpJob::Fire {
                        line: r#"{"verb":"shutdown"}"#.to_owned(),
                    });
                }
                self.shared.stopping.store(true, Ordering::SeqCst);
                conn.with_out(|out| {
                    render_ok_head(out, disp, "shutdown");
                    out.push_str(",\"draining\":true}");
                });
                conn.close_after_flush();
                return false;
            }
            "register" => match line.value.get("cluster").and_then(JsonRef::as_str) {
                Some(cluster) => self.start_fanout(conn, &line, cluster.to_owned(), true),
                None => self.fail(
                    conn,
                    disp,
                    &ProtoError::new("bad_request", "missing string field: cluster"),
                ),
            },
            "report" => match parse_report_target_ref(line.value) {
                Ok(target) => {
                    let key = self.routing_key(target);
                    self.start_fanout(conn, &line, key, false);
                }
                Err(e) => self.fail(conn, disp, &e),
            },
            "partition" | "partition_batch" => match parse_target_ref(line.value) {
                Ok(target) => {
                    let key = self.routing_key(target);
                    self.start_forward(conn, &line, &key);
                }
                Err(e) => self.fail(conn, disp, &e),
            },
            other => self.fail(
                conn,
                disp,
                &ProtoError::new("unknown_verb", format!("unknown verb: {other:?}")),
            ),
        }
        true
    }

    /// Drives failover and fan-out/stats assembly as legs come back.
    fn complete(
        &mut self,
        addr: ReplyAddr,
        done: Reply,
        leg: &mut Leg,
        id: Option<&Json>,
        started: Instant,
    ) -> Option<String> {
        let m = &self.shared.metrics;
        match leg {
            Leg::Forward { raw, candidates, tried } => match draining_as_unavailable(done) {
                Ok(line) => {
                    m.forward_latency.record(elapsed_us(started));
                    Some(line)
                }
                Err(e) if e.code == SHARD_UNAVAILABLE && *tried + 1 < candidates.len() => {
                    m.inc(&m.failovers);
                    *tried += 1;
                    let job =
                        UpJob::Request { line: raw.clone(), addr: ReplyAddr { part: 0, ..addr } };
                    if self.shared.shards[candidates[*tried]].jobs.send(job).is_ok() {
                        return None;
                    }
                    m.inc(&m.errors);
                    m.inc(&m.failover_exhausted);
                    Some(err_line(id, &e))
                }
                Err(e) => {
                    m.inc(&m.errors);
                    if e.code == SHARD_UNAVAILABLE {
                        m.inc(&m.failover_exhausted);
                    }
                    Some(err_line(id, &e))
                }
            },
            Leg::FanOut { key, results, remaining, register_raw } => {
                if let Some(slot @ None) = results.get_mut(addr.part) {
                    *slot = Some(draining_as_unavailable(done));
                    *remaining -= 1;
                }
                (*remaining == 0).then(|| {
                    finish_fanout(
                        &mut self.aliases,
                        &self.shared,
                        key,
                        register_raw.as_deref(),
                        results,
                        id,
                    )
                })
            }
            Leg::ClusterStats { results, remaining } => {
                if let Some(slot @ None) = results.get_mut(addr.part) {
                    *slot = Some(done);
                    *remaining -= 1;
                }
                (*remaining == 0).then(|| {
                    let mut out = String::new();
                    render_cluster_stats(&self.shared, &mut out, display_id(id), results);
                    out
                })
            }
        }
    }
}

impl RouteHandler {
    /// The consistent-hash key for a cluster reference: names route as
    /// themselves; fingerprints route as the name they were learned under
    /// (or as the raw fingerprint, which a shard then answers `not_found`
    /// for — same as a single node that never saw the registration).
    fn routing_key(&self, target: ClusterRefView<'_>) -> String {
        match target {
            ClusterRefView::Name(name) => name.to_owned(),
            ClusterRefView::Fingerprint(fp) => {
                self.aliases.get(fp).cloned().unwrap_or_else(|| fp.to_owned())
            }
        }
    }

    /// Forwards one raw line to the owner of `key`, with the replica set
    /// queued as failover candidates.
    fn start_forward(&self, conn: &mut Conn<Leg>, line: &Line<'_>, key: &str) {
        let m = &self.shared.metrics;
        m.inc(&m.forwarded);
        let candidates = self.shared.ring.route(key, self.shared.config.replicas);
        // Skip shards already known dead: failover now, not after a
        // round-trip failure. Keep at least one candidate so the reply is
        // a real transport error when everything is down.
        let mut live: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&s| self.shared.shards[s].healthy.load(Ordering::SeqCst))
            .collect();
        if live.is_empty() {
            live = candidates;
        }
        let addr = conn.next_addr();
        let raw = line.text.to_owned();
        let job = UpJob::Request { line: raw.clone(), addr };
        if self.shared.shards[live[0]].jobs.send(job).is_err() {
            // Worker pool gone (shutdown race): answer directly.
            let e = ProtoError::new("shutting_down", "router is draining");
            return self.fail(conn, line.display_id(), &e);
        }
        let leg = Leg::Forward { raw, candidates: live, tried: 0 };
        conn.push_pending(addr, line.id, line.started, leg);
    }

    /// Sends `text` to every shard in `legs` as part `i` of the slot at
    /// `addr`; a leg that cannot be queued (shutdown race) fails at once.
    fn send_legs(&self, legs: &[usize], text: &str, addr: ReplyAddr) -> Vec<Option<Reply>> {
        legs.iter()
            .enumerate()
            .map(|(part, &shard)| {
                let job =
                    UpJob::Request { line: text.to_owned(), addr: ReplyAddr { part, ..addr } };
                match self.shared.shards[shard].jobs.send(job) {
                    Ok(()) => None,
                    Err(_) => Some(Err(ProtoError::new("shutting_down", "router is draining"))),
                }
            })
            .collect()
    }

    /// Fans one raw line out to the owner plus replicas of `key`.
    /// `register` marks a registration whose line feeds the replica
    /// catch-up store once a shard acknowledges it.
    fn start_fanout(&mut self, conn: &mut Conn<Leg>, line: &Line<'_>, key: String, register: bool) {
        let m = &self.shared.metrics;
        m.inc(&m.fanouts);
        let legs = self.shared.ring.route(&key, self.shared.config.replicas);
        m.fanout_legs.fetch_add(legs.len() as u64, Ordering::Relaxed);
        let addr = conn.next_addr();
        let results = self.send_legs(&legs, line.text, addr);
        let remaining = results.iter().filter(|r| r.is_none()).count();
        let register_raw = register.then(|| line.text.to_owned());
        if remaining == 0 {
            // Nothing was sent (shutdown race): answer from what we have.
            let id = line.id.map(JsonRef::to_json);
            let reply = finish_fanout(
                &mut self.aliases,
                &self.shared,
                &key,
                register_raw.as_deref(),
                &results,
                id.as_ref(),
            );
            return conn.with_out(|out| out.push_str(&reply));
        }
        let leg = Leg::FanOut { key, results, remaining, register_raw };
        conn.push_pending(addr, line.id, line.started, leg);
    }

    /// Fans a `stats` probe to every shard for `cluster_stats`.
    fn start_cluster_stats(&self, conn: &mut Conn<Leg>, line: &Line<'_>) {
        let all: Vec<usize> = (0..self.shared.shards.len()).collect();
        let addr = conn.next_addr();
        let results = self.send_legs(&all, r#"{"verb":"stats"}"#, addr);
        let remaining = results.iter().filter(|r| r.is_none()).count();
        if remaining == 0 {
            return conn.with_out(|out| {
                render_cluster_stats(&self.shared, out, line.display_id(), &results)
            });
        }
        conn.push_pending(addr, line.id, line.started, Leg::ClusterStats { results, remaining });
    }

    fn shards_health_json(&self) -> String {
        let mut out = String::from("[");
        for (i, shard) in self.shared.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"addr\":{},\"healthy\":{}}}",
                JsonStr(&shard.addr.to_string()),
                shard.healthy.load(Ordering::SeqCst)
            );
        }
        out.push(']');
        out
    }
}

/// A `shutting_down` reply from a draining shard is a failover trigger,
/// not an answer: the client never asked that shard to stop.
fn draining_as_unavailable(result: Reply) -> Reply {
    match result {
        Ok(line) if is_shutting_down_reply(&line) => {
            Err(ProtoError::new(SHARD_UNAVAILABLE, "shard is draining"))
        }
        other => other,
    }
}

fn err_line(id: Option<&Json>, e: &ProtoError) -> String {
    let mut out = String::new();
    render_err(&mut out, display_id(id), e);
    out
}

/// Picks the fan-out reply (owner first, then any shard that answered at
/// all), learns fingerprint aliases from ok replies, records acknowledged
/// registrations for replica catch-up, and renders the final line.
fn finish_fanout(
    aliases: &mut HashMap<String, String>,
    shared: &Shared,
    key: &str,
    register_raw: Option<&str>,
    results: &[Option<Reply>],
    id: Option<&Json>,
) -> String {
    let m = &shared.metrics;
    // Learn `fingerprint → key` from every ok leg: a later request
    // addressing the model by fingerprint must route to this set.
    let mut acked = false;
    for line in results.iter().flatten().flatten() {
        if let Ok(v) = Json::parse_ref(line) {
            if v.get("ok").and_then(JsonRef::as_bool) == Some(true) {
                acked = true;
                if let Some(fp) = v.get("fingerprint").and_then(JsonRef::as_str) {
                    aliases.insert(fp.to_owned(), key.to_owned());
                }
            }
        }
    }
    // An acknowledged register becomes the cluster's replayable line: if
    // a replica of `key` later restarts empty, the prober-triggered
    // catch-up re-sends exactly what a shard accepted here.
    if acked {
        if let Some(raw) = register_raw {
            shared
                .catchup
                .lock()
                .expect("catchup lock")
                .insert(key.to_owned(), raw.to_owned());
        }
    }
    // Reply preference: first leg (route order: owner, then replicas)
    // that produced *any* protocol reply — ok or a deterministic error
    // like invalid_model, which every replica reproduces.
    let mut last_err: Option<&ProtoError> = None;
    for result in results.iter().flatten() {
        match result {
            Ok(line) => return line.clone(),
            Err(e) => last_err = Some(e),
        }
    }
    m.inc(&m.errors);
    m.inc(&m.failover_exhausted);
    let fallback = ProtoError::new(SHARD_UNAVAILABLE, "no replica answered");
    err_line(id, last_err.unwrap_or(&fallback))
}

/// Merges per-shard stats legs: counters sum by name, latency histograms
/// sum bucket-wise (exact — all shards share the bucket layout), and each
/// shard reports health from whether its leg answered.
fn render_cluster_stats(
    shared: &Shared,
    out: &mut String,
    id: Option<&dyn fmt::Display>,
    results: &[Option<Reply>],
) {
    let mut counters = Counters::new();
    let mut latency = HistogramSnapshot::default();
    let mut healthy = 0usize;
    render_ok_head(out, id, "cluster_stats");
    let _ = write!(out, ",\"total_shards\":{}", shared.shards.len());
    let mut shards_json = String::from("[");
    for (i, result) in results.iter().enumerate() {
        if i > 0 {
            shards_json.push(',');
        }
        let addr = shared.shards[i].addr;
        match result {
            Some(Ok(line)) => {
                let parsed = Json::parse(line).ok();
                let stats = parsed.as_ref().and_then(|v| v.get("stats"));
                if let Some(stats) = stats {
                    counters.merge(&Counters::from_json(stats));
                    if let Some(h) =
                        stats.get("partition_latency").and_then(HistogramSnapshot::from_json)
                    {
                        latency.merge(&h);
                    }
                }
                healthy += 1;
                let requests =
                    stats.and_then(|s| s.get("requests")).and_then(Json::as_u64).unwrap_or(0);
                let _ = write!(
                    shards_json,
                    "{{\"addr\":{},\"healthy\":true,\"requests\":{requests}}}",
                    JsonStr(&addr.to_string())
                );
            }
            Some(Err(e)) => {
                let _ = write!(
                    shards_json,
                    "{{\"addr\":{},\"healthy\":false,\"error\":{}}}",
                    JsonStr(&addr.to_string()),
                    JsonStr(e.code)
                );
            }
            None => {
                let _ = write!(
                    shards_json,
                    "{{\"addr\":{},\"healthy\":false,\"error\":\"no reply\"}}",
                    JsonStr(&addr.to_string())
                );
            }
        }
    }
    shards_json.push(']');
    let mut merged = match counters.to_json() {
        Json::Obj(fields) => fields,
        _ => Vec::new(),
    };
    merged.push(("partition_latency".into(), latency.to_json()));
    let _ = write!(
        out,
        ",\"healthy_shards\":{healthy},\"shards\":{shards_json},\"stats\":{}}}",
        Json::Obj(merged)
    );
}

/// True when a raw reply line is a `shutting_down` refusal from a
/// draining shard.
fn is_shutting_down_reply(line: &str) -> bool {
    // Cheap reject before parsing: the marker string must appear at all.
    if !line.contains("shutting_down") {
        return false;
    }
    match Json::parse_ref(line) {
        Ok(v) => {
            v.get("ok").and_then(JsonRef::as_bool) == Some(false)
                && v.get("error").and_then(JsonRef::as_str) == Some("shutting_down")
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpm_serve::protocol::{err_response, MAX_FRAME_BYTES};
    use fpm_serve::server::{spawn as spawn_shard, ServerConfig};
    use fpm_serve::AlgorithmId;
    use std::io::{BufRead, BufReader, Read, Write};

    /// Writes `payload` on a fresh connection, half-closes it, and returns
    /// everything the daemon sends back before it closes.
    fn exchange(addr: SocketAddr, payload: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(payload).unwrap();
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        out
    }

    fn demo_models() -> Vec<(String, Vec<(f64, f64)>)> {
        vec![
            ("A".into(), vec![(1e3, 200.0), (1e6, 180.0), (1e9, 0.0)]),
            ("B".into(), vec![(1e3, 100.0), (1e6, 90.0), (1e9, 0.0)]),
        ]
    }

    fn spawn_cluster(n: usize) -> (Vec<fpm_serve::ServerHandle>, RouterHandle) {
        let shards: Vec<fpm_serve::ServerHandle> =
            (0..n).map(|_| spawn_shard(ServerConfig::default()).unwrap()).collect();
        let config = RouterConfig {
            shards: shards.iter().map(|s| s.addr).collect(),
            probe_interval_ms: 50,
            ..RouterConfig::default()
        };
        let router = spawn(config).unwrap();
        (shards, router)
    }

    #[test]
    fn answers_ping_locally_and_routes_partitions() {
        let (shards, router) = spawn_cluster(3);
        let mut client = Client::connect(router.addr, Duration::from_secs(10)).unwrap();
        client.ping().unwrap();
        let reg = client.register_inline("c1", &demo_models()).unwrap();
        assert_eq!(reg.machines, ["A", "B"]);
        let reply = client.partition("c1", 1_000_000, AlgorithmId::Combined, None).unwrap();
        assert_eq!(reply.counts.iter().sum::<u64>(), 1_000_000);
        assert_eq!(reply.fingerprint, reg.fingerprint);
        // By fingerprint too (the router learned the alias on register).
        let mut raw = String::new();
        let line = format!(
            "{{\"id\":9,\"verb\":\"partition\",\"fingerprint\":\"{}\",\"n\":1000000}}",
            reg.fingerprint
        );
        client.request_line(&line, &mut raw).unwrap();
        let v = Json::parse(&raw).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{raw}");
        assert_eq!(v.get("cached").and_then(Json::as_bool), Some(true));
        let stats = router.shutdown_and_join();
        assert!(stats.get("forwarded").and_then(Json::as_u64).unwrap_or(0) >= 2);
        assert_eq!(stats.get("fanouts").and_then(Json::as_u64), Some(1));
        for s in shards {
            s.shutdown_and_join();
        }
    }

    #[test]
    fn replication_covers_owner_death() {
        let (mut shards, router) = spawn_cluster(3);
        let mut client = Client::connect(router.addr, Duration::from_secs(10)).unwrap();
        client.register_inline("failover-me", &demo_models()).unwrap();
        let baseline =
            client.partition("failover-me", 500_000, AlgorithmId::Combined, None).unwrap();
        // Kill the owner shard; the replica must answer bit-identically.
        let owner = router.route("failover-me")[0];
        let idx = shards.iter().position(|s| s.addr == owner).unwrap();
        shards.remove(idx).shutdown_and_join();
        let after =
            client.partition("failover-me", 500_000, AlgorithmId::Combined, None).unwrap();
        assert_eq!(baseline.counts, after.counts);
        assert_eq!(baseline.makespan.to_bits(), after.makespan.to_bits());
        let stats = router.shutdown_and_join();
        assert!(stats.get("failovers").and_then(Json::as_u64).unwrap_or(0) >= 1);
        assert_eq!(stats.get("failover_exhausted").and_then(Json::as_u64), Some(0));
        for s in shards {
            s.shutdown_and_join();
        }
    }

    #[test]
    fn cluster_stats_merges_counters_and_reports_health() {
        let (mut shards, router) = spawn_cluster(3);
        let mut client = Client::connect(router.addr, Duration::from_secs(10)).unwrap();
        client.register_inline("m1", &demo_models()).unwrap();
        for n in [100_000u64, 200_000, 300_000] {
            client.partition("m1", n, AlgorithmId::Combined, None).unwrap();
        }
        let mut raw = String::new();
        client
            .request_line(r#"{"id":1,"verb":"cluster_stats"}"#, &mut raw)
            .unwrap();
        let v = Json::parse(&raw).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{raw}");
        assert_eq!(v.get("total_shards").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("healthy_shards").and_then(Json::as_u64), Some(3));
        let stats = v.get("stats").unwrap();
        assert_eq!(stats.get("partition_requests").and_then(Json::as_u64), Some(3));
        // The merged latency histogram saw exactly the 3 partitions.
        let lat = stats.get("partition_latency").unwrap();
        assert_eq!(lat.get("count").and_then(Json::as_u64), Some(3));
        // Kill one shard: health drops to 2 and the dead shard is called
        // out by address.
        let dead = shards.pop().unwrap();
        let dead_addr = dead.addr.to_string();
        dead.shutdown_and_join();
        client
            .request_line(r#"{"id":2,"verb":"cluster_stats"}"#, &mut raw)
            .unwrap();
        let v = Json::parse(&raw).unwrap();
        assert_eq!(v.get("healthy_shards").and_then(Json::as_u64), Some(2), "{raw}");
        let entry = v
            .get("shards")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .find(|s| s.get("addr").and_then(Json::as_str) == Some(&dead_addr))
            .expect("dead shard listed");
        assert_eq!(entry.get("healthy").and_then(Json::as_bool), Some(false));
        router.shutdown_and_join();
        for s in shards {
            s.shutdown_and_join();
        }
    }

    #[test]
    fn prober_recovers_a_restarted_shard() {
        let (shards, router) = spawn_cluster(2);
        // Kill shard 1 and wait for passive/probe marking.
        let addr1 = shards[1].addr;
        let mut iter = shards.into_iter();
        let keep = iter.next().unwrap();
        iter.next().unwrap().shutdown_and_join();
        let mut client = Client::connect(router.addr, Duration::from_secs(10)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut raw = String::new();
            client.request_line(r#"{"verb":"cluster_stats"}"#, &mut raw).unwrap();
            let v = Json::parse(&raw).unwrap();
            if v.get("healthy_shards").and_then(Json::as_u64) == Some(1) {
                break;
            }
            assert!(Instant::now() < deadline, "shard never marked down");
            std::thread::sleep(Duration::from_millis(20));
        }
        // Resurrect a server on the same port: the prober must flip the
        // shard back to healthy without any restart of the router.
        let revived = spawn_shard(ServerConfig { addr: addr1, ..ServerConfig::default() });
        let Ok(revived) = revived else {
            // The OS may refuse immediate rebinds; the down-marking above
            // already exercised the probe path.
            router.shutdown_and_join();
            keep.shutdown_and_join();
            return;
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut raw = String::new();
            client.request_line(r#"{"verb":"cluster_stats"}"#, &mut raw).unwrap();
            let v = Json::parse(&raw).unwrap();
            if v.get("healthy_shards").and_then(Json::as_u64) == Some(2) {
                break;
            }
            assert!(Instant::now() < deadline, "shard never recovered");
            std::thread::sleep(Duration::from_millis(50));
        }
        let stats = router.shutdown_and_join();
        assert!(stats.get("shard_up_marks").and_then(Json::as_u64).unwrap_or(0) >= 1);
        keep.shutdown_and_join();
        revived.shutdown_and_join();
    }

    #[test]
    fn recovered_shard_relearns_registrations() {
        // Two shards, replicas = 2: every cluster lives on both. Kill one
        // and restart it EMPTY on the same port — the prober flips it
        // healthy and the router replays the remembered register line,
        // so the revived shard answers partition requests for a cluster
        // it was never told about directly.
        let (shards, router) = spawn_cluster(2);
        let mut client = Client::connect(router.addr, Duration::from_secs(10)).unwrap();
        let reg = client.register_inline("relearn", &demo_models()).unwrap();
        let addr1 = shards[1].addr;
        let mut iter = shards.into_iter();
        let keep = iter.next().unwrap();
        iter.next().unwrap().shutdown_and_join();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut raw = String::new();
            client.request_line(r#"{"verb":"cluster_stats"}"#, &mut raw).unwrap();
            let v = Json::parse(&raw).unwrap();
            if v.get("healthy_shards").and_then(Json::as_u64) == Some(1) {
                break;
            }
            assert!(Instant::now() < deadline, "shard never marked down");
            std::thread::sleep(Duration::from_millis(20));
        }
        let revived = spawn_shard(ServerConfig { addr: addr1, ..ServerConfig::default() });
        let Ok(revived) = revived else {
            // The OS may refuse immediate rebinds; nothing to catch up.
            router.shutdown_and_join();
            keep.shutdown_and_join();
            return;
        };
        // Ask the revived shard DIRECTLY: only the catch-up replay can
        // hand it the model, and the replayed registration must produce
        // the same fingerprint the original fan-out did.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let caught_up = Client::connect(revived.addr, Duration::from_secs(2))
                .ok()
                .and_then(|mut direct| {
                    direct.partition("relearn", 250_000, AlgorithmId::Combined, None).ok()
                });
            if let Some(reply) = caught_up {
                assert_eq!(reply.counts.iter().sum::<u64>(), 250_000);
                assert_eq!(reply.fingerprint, reg.fingerprint);
                break;
            }
            assert!(Instant::now() < deadline, "revived shard never caught up");
            std::thread::sleep(Duration::from_millis(50));
        }
        let stats = router.shutdown_and_join();
        assert!(stats.get("catchup_replays").and_then(Json::as_u64).unwrap_or(0) >= 1);
        keep.shutdown_and_join();
        revived.shutdown_and_join();
    }

    #[test]
    fn local_errors_match_shard_spellings() {
        let (shards, router) = spawn_cluster(2);
        let mut router_client = Client::connect(router.addr, Duration::from_secs(5)).unwrap();
        let mut shard_client = Client::connect(shards[0].addr, Duration::from_secs(5)).unwrap();
        // Requests the router answers locally must produce byte-identical
        // lines to a shard answering the same request.
        for line in [
            r#"{"id":1,"verb":"ping"}"#,
            r#"{"id":2,"verb":"warp"}"#,
            r#"{"id":3,"verb":"partition","n":5}"#,
            r#"not json"#,
            r#"[1,2,3]"#,
            r#"{"id":4}"#,
        ] {
            let mut via_router = String::new();
            let mut via_shard = String::new();
            router_client.request_line(line, &mut via_router).unwrap();
            shard_client.request_line(line, &mut via_shard).unwrap();
            assert_eq!(via_router, via_shard, "line {line}");
        }
        // Framing is the shared core's: the same bytes in, the same bytes
        // out (then close), whichever daemon reads them.
        let oversized = vec![b'x'; MAX_FRAME_BYTES + 1];
        let framing: [(&str, &[u8], &str); 3] = [
            ("oversized frame", &oversized, "frame_too_large"),
            ("blank lines", b"\n \r\n\t\n", ""),
            ("unterminated final line", br#"{"id":5,"verb":"warp"}"#, "unknown_verb"),
        ];
        for (case, payload, code) in framing {
            let via_router = exchange(router.addr, payload);
            assert_eq!(via_router, exchange(shards[0].addr, payload), "{case}");
            if code.is_empty() {
                assert_eq!(via_router, "", "{case} get no reply");
            } else {
                assert_eq!(via_router.lines().count(), 1, "{case}: {via_router:?}");
                assert!(via_router.contains(code), "{case}: {via_router:?}");
            }
        }
        // A request read after the stop is refused, spelled exactly like a
        // draining shard's refusal. Flip the flag without waking the loop
        // so the next read is the request itself.
        let mut late = TcpStream::connect(router.addr).unwrap();
        late.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(late.try_clone().unwrap());
        writeln!(late, r#"{{"id":6,"verb":"ping"}}"#).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("pong"), "{line}");
        std::thread::sleep(Duration::from_millis(50));
        router.shared.stopping.store(true, Ordering::SeqCst);
        writeln!(late, r#"{{"id":7,"verb":"ping"}}"#).unwrap();
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        let refusal = ProtoError::new("shutting_down", "server is draining");
        assert_eq!(rest, err_response(None, &refusal) + "\n");
        router.shutdown_and_join();
        for s in shards {
            s.shutdown_and_join();
        }
    }

    #[test]
    fn shutdown_verb_drains_shards_and_router() {
        let (shards, router) = spawn_cluster(2);
        let mut stream = TcpStream::connect(router.addr).unwrap();
        writeln!(stream, r#"{{"verb":"shutdown"}}"#).unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("draining").and_then(Json::as_bool), Some(true));
        assert!(router.is_stopping());
        router.shutdown_and_join();
        // The broadcast reached the shards: they are draining too.
        let deadline = Instant::now() + Duration::from_secs(5);
        for s in &shards {
            while !s.is_stopping() {
                assert!(Instant::now() < deadline, "shard never observed shutdown");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        for s in shards {
            s.shutdown_and_join();
        }
    }
}
