//! The router daemon: the routing/replication/failover handler on
//! `fpm-serve`'s connection core ([`fpm_serve::conn`]), with its shard
//! connections in the same poll loop.
//!
//! # Architecture
//!
//! One thread runs everything. The client side is the connection core
//! (pipelining, in-order replies, drain). The upstream side is the
//! handler's own [`Outbound`] connections, polled through the core's
//! handler hooks: one pipelined connection per shard, a probe connection
//! while a health check runs, and timers in [`Handler::expire`].
//!
//! ```text
//!  clients ──conn core──▶ slot queue ──▶ send: raw line into an upstream
//!                ▲                        write buffer, ReplyAddr into its FIFO
//!                │                               │ flush once per iteration
//!                │ complete(addr, reply)         ▼
//!                └──── take_ready: next reply ◀──TCP── fpm-serve shards
//!                      line pops the FIFO head
//! ```
//!
//! A shard answers each connection in request order, so a FIFO of reply
//! addresses per connection pairs replies with requests without ids.
//! Every line handled in one loop iteration leaves in one write per
//! shard, so a pipelined client burst reaches its shard as a pipeline.
//! One connection per shard also means each shard sees requests in the
//! router's send order.
//!
//! # Routing
//!
//! Every request that names a cluster is routed by consistent hash of its
//! routing key ([`crate::ring::HashRing`]): the cluster *name*, or for
//! fingerprint-addressed requests the name the fingerprint was learned
//! under (the router remembers `fingerprint → key` from `register` and
//! `report` replies). `register`/`report` fan out to the owner plus
//! `replicas - 1` successor shards so every replica holds the same model.
//! Both verbs are deterministic, and each replica applies writes in the
//! router's send order, so replicas stay bit-identical.
//! `partition`/`partition_batch` go to the owner and fail over through
//! the replica set when a shard is unreachable, answers `shutting_down`,
//! or dies mid-request. Request and reply lines are forwarded
//! *verbatim*, which is what makes routed results bit-identical to
//! single-node serving.
//!
//! # Health
//!
//! A shard is marked down when a request on it fails in transport: every
//! request queued on that connection then fails over, in FIFO order. An
//! idle connection that closes is only dropped. A request whose
//! connection stays silent for 30 s (`UPSTREAM_TIMEOUT`) fails with
//! `internal`, and the shard stays up. Requests to a down shard with no
//! open connection fail at once, so the failover path answers from a
//! replica without waiting on connect timeouts. A timer probes each shard
//! on a fresh connection: on a fixed interval while it is up, and with
//! capped exponential backoff while it is down.
//!
//! When a probe finds a down shard alive again, the router *catches the
//! replica up*: for every routing key whose replica set includes the
//! shard, it replays the last acknowledged `register` line and every
//! write sent since, in send order, on the shard's connection ahead of
//! any new request. Writes still in flight are replayed too, so a write
//! whose leg to the shard failed just before the readmission is not lost.
//! The shard takes reads again once the last replay is answered. A
//! connection that fails with replays queued marks the shard down again,
//! so the next good probe replays from the start. The history is keyed
//! by the cluster names the `fingerprint → name` alias map resolves to,
//! so a shard that restarted empty serves both name- and
//! fingerprint-addressed requests again, at the same epoch as its peers,
//! without any client intervention.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::RouterMetrics;
use crate::ring::{HashRing, DEFAULT_VNODES};
use fpm_serve::client::SHARD_UNAVAILABLE;
use fpm_serve::conn::{self, Conn, Conns, Handler, Line, Outbound, ReplyAddr};
use fpm_serve::json::{Json, JsonRef, JsonStr};
use fpm_serve::metrics::{elapsed_us, Counters, HistogramSnapshot};
use fpm_serve::poll::PollFd;
use fpm_serve::protocol::{
    display_id, parse_report_target_ref, parse_target_ref, render_err, render_ok_head,
    ClusterRefView, ProtoError,
};

/// Bound on the TCP handshake of an upstream connection.
const UPSTREAM_CONNECT: Duration = Duration::from_secs(1);
/// How long the oldest request on an upstream connection may wait for
/// its reply.
const UPSTREAM_TIMEOUT: Duration = Duration::from_secs(30);
/// Bound on one probe: connect plus pong.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);
/// First reconnect-probe delay after a shard goes down.
const BACKOFF_BASE: Duration = Duration::from_millis(50);
/// Reconnect-probe delay cap.
const BACKOFF_CAP: Duration = Duration::from_secs(2);
/// Read chunk for upstream replies.
const READ_CHUNK: usize = 64 * 1024;

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

/// State shared between the loop and the [`RouterHandle`].
struct Shared {
    config: RouterConfig,
    ring: HashRing,
    metrics: RouterMetrics,
    stopping: AtomicBool,
}

/// Handle to a running router; dropping it does **not** stop the daemon —
/// call [`RouterHandle::shutdown_and_join`] (or send the `shutdown` verb).
pub struct RouterHandle {
    /// The bound address (with the actual port when 0 was requested).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    driver: Option<JoinHandle<()>>,
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
        let shards = &self.shared.config.shards;
        self.shared
            .ring
            .route(key, self.shared.config.replicas)
            .into_iter()
            .map(|i| shards[i])
            .collect()
    }
}

/// A shard's raw reply line, or the transport error in its place.
type Reply = Result<String, ProtoError>;

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
    // Nothing leaves the loop thread, so no Completer is kept.
    let (_, completions) = conn::completion_channel::<Reply>()?;
    let first_probe = Instant::now() + probe_interval(&config);
    let shards = config
        .shards
        .iter()
        .map(|&addr| Shard {
            addr,
            health: Health::Up,
            conn: None,
            probe: None,
            next_probe: first_probe,
            delay: probe_interval(&config),
        })
        .collect();
    let shared = Arc::new(Shared {
        ring: HashRing::new(config.shards.len(), config.vnodes.max(1)),
        config,
        metrics: RouterMetrics::new(),
        stopping: AtomicBool::new(false),
    });
    let handler = RouteHandler {
        shared: Arc::clone(&shared),
        shards,
        aliases: HashMap::new(),
        history: HashMap::new(),
        next_write: 0,
        failed: Vec::new(),
        polled: Vec::new(),
        chunk: vec![0u8; READ_CHUNK],
    };
    let driver = conn::spawn("fpm-router-loop", listener, completions, handler)?;
    Ok(RouterHandle { addr, shared, driver: Some(driver) })
}

fn probe_interval(config: &RouterConfig) -> Duration {
    Duration::from_millis(config.probe_interval_ms.max(1))
}

// --- shards and their connections --------------------------------------

/// Who an upstream reply belongs to.
enum Waiter {
    /// A client slot: a forward, a fan-out leg or a stats leg.
    Slot(ReplyAddr),
    /// A catch-up replay line.
    Replay,
    /// Fire-and-forget (the shutdown broadcast): the reply is dropped.
    Fire,
}

/// The pipelined connection to a shard.
struct Upstream {
    link: Outbound,
    /// Reply owners in send order.
    fifo: VecDeque<Waiter>,
    /// When the handshake began, then when the head of `fifo` began
    /// waiting.
    since: Instant,
}

/// A health probe: a fresh connection carrying one ping.
struct Probe {
    link: Outbound,
    started: Instant,
}

/// A shard's routing state: only an `Up` shard takes reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Health {
    Up,
    Down,
    /// Back from down, with catch-up replays still in flight.
    CatchingUp,
}

/// One shard as the loop sees it.
struct Shard {
    addr: SocketAddr,
    health: Health,
    conn: Option<Upstream>,
    probe: Option<Probe>,
    next_probe: Instant,
    /// The current probe delay: the interval while up, the backoff
    /// while down.
    delay: Duration,
}

/// Which descriptor a poll entry of [`RouteHandler::poll_fds`] watches,
/// by shard index.
#[derive(Clone, Copy)]
enum Polled {
    Conn(usize),
    Probe(usize),
}

// --- the request handler -------------------------------------------------

/// What a pending reply slot waits for.
enum Leg {
    /// One forwarded request with failover: `candidates[tried]` is the
    /// shard currently asked.
    Forward { raw: String, candidates: Vec<usize>, tried: usize },
    /// A fan-out (`register`/`report`), one result per replica leg in
    /// route order (owner first). `seq` names its entry in the catch-up
    /// history of `key`.
    FanOut { key: String, seq: u64, register: bool, results: Vec<Option<Reply>>, remaining: usize },
    /// `cluster_stats`: one stats leg per shard.
    ClusterStats { results: Vec<Option<Reply>>, remaining: usize },
}

/// One write in a key's catch-up history.
struct Write {
    /// The fan-out's sequence number.
    seq: u64,
    line: String,
}

/// The router's request logic and every upstream connection.
struct RouteHandler {
    shared: Arc<Shared>,
    shards: Vec<Shard>,
    /// `fingerprint → routing key` learned from register/report replies,
    /// so fingerprint-addressed requests land on the shard set that holds
    /// the model.
    aliases: HashMap<String, String>,
    /// `routing key → writes`: the last acknowledged `register` line and
    /// every write sent since, in send order, whether acknowledged or
    /// still in flight. Replayed to a replica that comes back (catch-up).
    history: HashMap<String, Vec<Write>>,
    /// Sequence number of the next fan-out.
    next_write: u64,
    /// Requests that failed before reaching a shard, delivered by the
    /// next [`Handler::expire`].
    failed: Vec<(ReplyAddr, Reply)>,
    /// The descriptors of the last [`Handler::poll_fds`], in order.
    polled: Vec<Polled>,
    chunk: Vec<u8>,
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
                // Drain the fleet (a down shard is skipped), then drain the
                // router itself.
                for shard in 0..self.shards.len() {
                    self.send(shard, r#"{"verb":"shutdown"}"#, Waiter::Fire);
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
                    let shard = candidates[*tried];
                    self.send(shard, raw, Waiter::Slot(ReplyAddr { part: 0, ..addr }));
                    None
                }
                Err(e) => {
                    m.inc(&m.errors);
                    if e.code == SHARD_UNAVAILABLE {
                        m.inc(&m.failover_exhausted);
                    }
                    Some(err_line(id, &e))
                }
            },
            Leg::FanOut { key, seq, register, results, remaining } => {
                if let Some(slot @ None) = results.get_mut(addr.part) {
                    *slot = Some(draining_as_unavailable(done));
                    *remaining -= 1;
                }
                (*remaining == 0).then(|| self.finish_fanout(key, *seq, *register, results, id))
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

    /// Runs the probe timers and the connect and read bounds, and hands
    /// over requests that failed before reaching a shard.
    fn expire(
        &mut self,
        _: &mut Conns<Leg>,
        done: &mut Vec<(ReplyAddr, Reply)>,
    ) -> Option<Instant> {
        done.append(&mut self.failed);
        let now = Instant::now();
        let stopping = self.stopping();
        let mut nearest: Option<Instant> = None;
        let mut wake_at = |t: Instant| nearest = Some(nearest.map_or(t, |n| n.min(t)));
        for shard in 0..self.shards.len() {
            if let Some(up) = &self.shards[shard].conn {
                let connecting = up.link.is_connecting();
                let due = match (connecting, up.fifo.is_empty()) {
                    (true, _) => Some(up.since + UPSTREAM_CONNECT),
                    (false, false) => Some(up.since + UPSTREAM_TIMEOUT),
                    (false, true) => None,
                };
                match due {
                    Some(due) if now >= due => {
                        let e = if connecting {
                            self.unavailable(shard, "connect timed out")
                        } else {
                            ProtoError::new("internal", "recv failed: timed out")
                        };
                        self.fail_conn(shard, e, done);
                    }
                    Some(due) => wake_at(due),
                    None => {}
                }
            }
            if stopping {
                continue;
            }
            let s = &self.shards[shard];
            match s.probe.as_ref().map(|probe| probe.started + PROBE_TIMEOUT) {
                Some(due) if now >= due => self.finish_probe(shard, false, now),
                None if now >= s.next_probe => self.start_probe(shard, now),
                _ => {}
            }
            let s = &self.shards[shard];
            wake_at(s.probe.as_ref().map_or(s.next_probe, |probe| probe.started + PROBE_TIMEOUT));
        }
        nearest
    }

    fn poll_fds(&mut self, fds: &mut Vec<PollFd>) {
        self.polled.clear();
        for (i, shard) in self.shards.iter().enumerate() {
            if let Some(up) = &shard.conn {
                fds.push(up.link.poll_fd());
                self.polled.push(Polled::Conn(i));
            }
            if let Some(probe) = &shard.probe {
                fds.push(probe.link.poll_fd());
                self.polled.push(Polled::Probe(i));
            }
        }
    }

    fn take_ready(&mut self, fds: &[PollFd], done: &mut Vec<(ReplyAddr, Reply)>) {
        let polled = std::mem::take(&mut self.polled);
        for (pfd, &which) in fds.iter().zip(&polled) {
            if pfd.revents == 0 {
                continue;
            }
            match which {
                Polled::Conn(shard) => self.conn_ready(shard, pfd, done),
                Polled::Probe(shard) => self.probe_ready(shard, pfd),
            }
        }
        self.polled = polled;
    }

    fn flush(&mut self) -> bool {
        let mut busy = false;
        for up in self.shards.iter_mut().filter_map(|s| s.conn.as_mut()) {
            // A failed write shows up as an error event on the next poll,
            // where `take_ready` fails the connection.
            let _ = up.link.flush();
            busy |= !up.fifo.is_empty();
        }
        busy
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

    fn unavailable(&self, shard: usize, detail: &str) -> ProtoError {
        ProtoError::new(
            SHARD_UNAVAILABLE,
            format!("shard {} unavailable: {detail}", self.shards[shard].addr),
        )
    }

    /// Queues `line` on the connection to `shard`, connecting first if
    /// needed. A shard marked down gets no new connection: the request
    /// fails at once, so failover need not wait on a connect timeout.
    fn send(&mut self, shard: usize, line: &str, waiter: Waiter) {
        if self.shards[shard].conn.is_none() {
            let opened = match self.shards[shard].health {
                Health::Down => Err(self.unavailable(shard, "marked down")),
                _ => Outbound::connect(&self.shards[shard].addr)
                    .map_err(|e| self.unavailable(shard, &e.to_string())),
            };
            match opened {
                Ok(link) => {
                    let up = Upstream { link, fifo: VecDeque::new(), since: Instant::now() };
                    self.shards[shard].conn = Some(up);
                }
                Err(e) => {
                    self.mark_down(shard);
                    if let Waiter::Slot(addr) = waiter {
                        self.failed.push((addr, Err(e)));
                    }
                    return;
                }
            }
        }
        let up = self.shards[shard].conn.as_mut().expect("connected above");
        if up.fifo.is_empty() && !up.link.is_connecting() {
            up.since = Instant::now();
        }
        up.link.send(line);
        up.fifo.push_back(waiter);
    }

    /// Reads what a connection delivered and pairs each reply line with
    /// the head of its FIFO.
    fn conn_ready(&mut self, shard: usize, pfd: &PollFd, done: &mut Vec<(ReplyAddr, Reply)>) {
        let s = &mut self.shards[shard];
        let Some(up) = s.conn.as_mut().filter(|up| up.link.poll_fd().fd == pfd.fd) else {
            return;
        };
        let mut status = up.link.ready(pfd.revents, &mut self.chunk);
        let mut answered = false;
        while let Some(line) = up.link.next_line() {
            let Some(waiter) = up.fifo.pop_front() else {
                status = Err(ErrorKind::InvalidData.into()); // unsolicited reply
                break;
            };
            answered = true;
            match waiter {
                Waiter::Slot(addr) => done.push((addr, Ok(line))),
                Waiter::Replay => {
                    let replaying = up.fifo.iter().any(|w| matches!(w, Waiter::Replay));
                    if s.health == Health::CatchingUp && !replaying {
                        s.health = Health::Up;
                    }
                }
                Waiter::Fire => {}
            }
        }
        if answered {
            up.since = Instant::now();
        }
        if let Err(e) = status {
            let e = self.unavailable(shard, &e.to_string());
            self.fail_conn(shard, e, done);
        }
    }

    /// Drops a connection and fails every request queued on it, in FIFO
    /// order. An idle connection is only dropped; a transport failure
    /// with requests queued marks the shard down, and so does losing a
    /// catch-up replay, so that the next good probe replays again.
    fn fail_conn(&mut self, shard: usize, e: ProtoError, done: &mut Vec<(ReplyAddr, Reply)>) {
        let Some(up) = self.shards[shard].conn.take() else { return };
        if up.fifo.is_empty() {
            return;
        }
        let replaying = up.fifo.iter().any(|w| matches!(w, Waiter::Replay));
        if e.code == SHARD_UNAVAILABLE || replaying {
            self.mark_down(shard);
        }
        for waiter in up.fifo {
            if let Waiter::Slot(addr) = waiter {
                done.push((addr, Err(e.clone())));
            }
        }
    }

    fn mark_down(&mut self, shard: usize) {
        if self.shards[shard].health != Health::Down {
            self.shards[shard].health = Health::Down;
            self.shared.metrics.inc(&self.shared.metrics.shard_down_marks);
        }
    }

    /// Readmits a down shard: replays the write history of every key it
    /// replicates, ahead of any new request. The shard takes reads once
    /// the last replay is answered.
    fn mark_up(&mut self, shard: usize) {
        if self.shards[shard].health != Health::Down {
            return;
        }
        let m = &self.shared.metrics;
        m.inc(&m.shard_up_marks);
        let replicas = self.shared.config.replicas;
        let lines: Vec<String> = self
            .history
            .iter()
            .filter(|(key, _)| self.shared.ring.route(key, replicas).contains(&shard))
            .flat_map(|(_, writes)| writes.iter().map(|w| w.line.clone()))
            .collect();
        self.shards[shard].health = if lines.is_empty() { Health::Up } else { Health::CatchingUp };
        m.catchup_replays.fetch_add(lines.len() as u64, Ordering::Relaxed);
        for line in &lines {
            self.send(shard, line, Waiter::Replay);
        }
    }

    /// Opens a probe connection with one ping queued.
    fn start_probe(&mut self, shard: usize, now: Instant) {
        self.shared.metrics.inc(&self.shared.metrics.probes);
        match Outbound::connect(&self.shards[shard].addr) {
            Ok(mut link) => {
                link.send(r#"{"verb":"ping"}"#);
                self.shards[shard].probe = Some(Probe { link, started: now });
            }
            Err(_) => self.finish_probe(shard, false, now),
        }
    }

    fn probe_ready(&mut self, shard: usize, pfd: &PollFd) {
        let Some(probe) = self.shards[shard].probe.as_mut() else { return };
        let status = probe.link.ready(pfd.revents, &mut self.chunk);
        match probe.link.next_line() {
            Some(line) => self.finish_probe(shard, is_ok_reply(&line), Instant::now()),
            None if status.is_err() => self.finish_probe(shard, false, Instant::now()),
            None => {}
        }
    }

    /// Closes the probe and schedules the next: after the interval when
    /// the shard answered, after a doubled backoff when it did not.
    fn finish_probe(&mut self, shard: usize, alive: bool, now: Instant) {
        self.shards[shard].probe = None;
        let delay = if alive {
            self.mark_up(shard);
            probe_interval(&self.shared.config)
        } else {
            self.mark_down(shard);
            (self.shards[shard].delay * 2).clamp(BACKOFF_BASE, BACKOFF_CAP)
        };
        self.shards[shard].delay = delay;
        self.shards[shard].next_probe = now + delay;
    }

    /// Forwards one raw line to the owner of `key`, with the replica set
    /// queued as failover candidates.
    fn start_forward(&mut self, conn: &mut Conn<Leg>, line: &Line<'_>, key: &str) {
        let m = &self.shared.metrics;
        m.inc(&m.forwarded);
        let candidates = self.shared.ring.route(key, self.shared.config.replicas);
        // Skip shards not taking reads: failover now, not after a
        // round-trip failure. Keep at least one candidate so the reply is
        // a real transport error when everything is down.
        let mut live: Vec<usize> =
            candidates.iter().copied().filter(|&s| self.shards[s].health == Health::Up).collect();
        if live.is_empty() {
            live = candidates;
        }
        let addr = conn.next_addr();
        self.send(live[0], line.text, Waiter::Slot(addr));
        let leg = Leg::Forward { raw: line.text.to_owned(), candidates: live, tried: 0 };
        conn.push_pending(addr, line.id, line.started, leg);
    }

    /// Fans one raw line out to the owner plus replicas of `key`.
    fn start_fanout(&mut self, conn: &mut Conn<Leg>, line: &Line<'_>, key: String, register: bool) {
        let m = &self.shared.metrics;
        m.inc(&m.fanouts);
        let legs = self.shared.ring.route(&key, self.shared.config.replicas);
        m.fanout_legs.fetch_add(legs.len() as u64, Ordering::Relaxed);
        let addr = conn.next_addr();
        for (part, &shard) in legs.iter().enumerate() {
            self.send(shard, line.text, Waiter::Slot(ReplyAddr { part, ..addr }));
        }
        // The write enters the history as it is sent: a replica readmitted
        // while it is in flight then replays it in send order, like its
        // peers receive it.
        let seq = self.next_write;
        self.next_write += 1;
        if register || self.history.contains_key(&key) {
            let write = Write { seq, line: line.text.to_owned() };
            self.history.entry(key.clone()).or_default().push(write);
        }
        let leg = Leg::FanOut {
            key,
            seq,
            register,
            results: vec![None; legs.len()],
            remaining: legs.len(),
        };
        conn.push_pending(addr, line.id, line.started, leg);
    }

    /// Fans a `stats` probe to every shard for `cluster_stats`.
    fn start_cluster_stats(&mut self, conn: &mut Conn<Leg>, line: &Line<'_>) {
        let addr = conn.next_addr();
        let shards = self.shards.len();
        for part in 0..shards {
            self.send(part, r#"{"verb":"stats"}"#, Waiter::Slot(ReplyAddr { part, ..addr }));
        }
        let leg = Leg::ClusterStats { results: vec![None; shards], remaining: shards };
        conn.push_pending(addr, line.id, line.started, leg);
    }

    /// Picks the fan-out reply (owner first, then any shard that answered
    /// at all), learns fingerprint aliases from ok replies, settles the
    /// write's place in the catch-up history, and renders the final line.
    fn finish_fanout(
        &mut self,
        key: &str,
        seq: u64,
        register: bool,
        results: &[Option<Reply>],
        id: Option<&Json>,
    ) -> String {
        let m = &self.shared.metrics;
        // Learn `fingerprint → key` from every ok leg: a later request
        // addressing the model by fingerprint must route to this set.
        let mut acked = false;
        for line in results.iter().flatten().flatten() {
            if let Ok(v) = Json::parse_ref(line) {
                if v.get("ok").and_then(JsonRef::as_bool) == Some(true) {
                    acked = true;
                    if let Some(fp) = v.get("fingerprint").and_then(JsonRef::as_str) {
                        self.aliases.insert(fp.to_owned(), key.to_owned());
                    }
                }
            }
        }
        // An acknowledged register restarts the key's history; a write no
        // replica acknowledged leaves it. Pending and rejected reports are
        // acknowledged: they move the refiner's corroboration state.
        if let Some(writes) = self.history.get_mut(key) {
            // Writes in flight sit at the tail: search from there.
            if let Some(i) = writes.iter().rposition(|w| w.seq == seq) {
                if !acked {
                    writes.remove(i);
                } else if register {
                    writes.drain(..i);
                }
            }
            if writes.is_empty() {
                self.history.remove(key);
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

    /// The `shards` array of the router's `stats`: a shard is healthy
    /// while it takes reads.
    fn shards_health_json(&self) -> String {
        let mut out = String::from("[");
        for (i, shard) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"addr\":{},\"healthy\":{}}}",
                JsonStr(&shard.addr.to_string()),
                shard.health == Health::Up
            );
        }
        out.push(']');
        out
    }
}

/// True for an `ok` reply line.
fn is_ok_reply(line: &str) -> bool {
    Json::parse_ref(line).is_ok_and(|v| v.get("ok").and_then(JsonRef::as_bool) == Some(true))
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

/// Merges per-shard stats legs: counters sum by name (peak gauges take
/// the maximum), latency histograms sum bucket-wise (exact — all shards
/// share the bucket layout), and each shard reports health from whether
/// its leg answered.
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
    let _ = write!(out, ",\"total_shards\":{}", shared.config.shards.len());
    let mut shards_json = String::from("[");
    for (i, result) in results.iter().enumerate() {
        if i > 0 {
            shards_json.push(',');
        }
        let addr = shared.config.shards[i];
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
    use fpm_serve::client::Client;
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

    #[cfg(target_os = "linux")]
    #[test]
    fn the_loop_is_the_only_router_thread() {
        let (shards, router) = spawn_cluster(2);
        // Forwards, fan-outs and stats legs open upstream connections.
        let mut client = Client::connect(router.addr, Duration::from_secs(10)).unwrap();
        client.register_inline("threads", &demo_models()).unwrap();
        client.partition("threads", 1_000_000, AlgorithmId::Combined, None).unwrap();
        let mut raw = String::new();
        client.request_line(r#"{"verb":"cluster_stats"}"#, &mut raw).unwrap();
        let mut names = Vec::new();
        for task in std::fs::read_dir("/proc/self/task").unwrap().flatten() {
            let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            if comm.starts_with("fpm-router") {
                names.push(comm.trim().to_owned());
            }
        }
        assert!(names.iter().any(|n| n == "fpm-router-loop"), "{names:?}");
        assert!(names.iter().all(|n| n == "fpm-router-loop"), "{names:?}");
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
