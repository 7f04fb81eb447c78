//! The TCP daemon: the partition service on the shared connection core
//! ([`crate::conn`]), which supplies the poll(2) loop, request pipelining
//! and graceful drain-and-exit shutdown.
//!
//! CPU-bound solving never runs on the loop thread. Warm requests — the
//! common case once a cluster's plans are cached — are answered inline
//! from [`crate::engine::Engine::probe`]: no thread hand-off, no lock
//! waits, no allocation beyond the response bytes. Cold `partition` /
//! `partition_batch` requests are admitted onto the shared worker pool
//! ([`crate::engine::Engine::submit`]) behind a pending reply slot, whose
//! completion callback posts the result back to the loop. Every pending
//! slot carries a deadline; the loop answers it with a `deadline` error
//! when the pool is too slow, and drops the late result.
//!
//! Any client may send `{"verb":"shutdown"}` (operators use `fpm serve`
//! which wires this up), or the embedder calls
//! [`ServerHandle::shutdown_and_join`].

use std::fmt;
use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cache::{CacheStatus, PlanResult};
use crate::conn::{self, Completer, Conn, Conns, Handler, Line, ReplyAddr, SlotState};
use crate::engine::{Admission, Engine, EngineConfig, Plan};
use crate::json::{Json, JsonRef, JsonStr};
use crate::metrics::{elapsed_us, Metrics};
use crate::protocol::{
    display_id, parse_partition_batch_ref, parse_partition_ref, parse_target_ref, render_err,
    render_ok_head, request_from_value, ClusterRef, ClusterRefView, ProtoError, Request,
};
use crate::registry::{RegisteredCluster, Registry};
use fpm_core::planner::AlgorithmId;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: SocketAddr,
    /// Plan-cache capacity (entries).
    pub cache_capacity: usize,
    /// Admitted-request bound before shedding; 0 = derive from pool size.
    pub queue_capacity: usize,
    /// Default per-request deadline, ms.
    pub default_deadline_ms: u64,
    /// Registry capacity (named clusters).
    pub max_clusters: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".parse().expect("literal address"),
            cache_capacity: 1024,
            queue_capacity: 0,
            default_deadline_ms: 2000,
            max_clusters: 256,
        }
    }
}

/// Shared state of one running server.
struct Shared {
    registry: Registry,
    engine: Arc<Engine>,
    metrics: Arc<Metrics>,
    default_deadline: Duration,
    stopping: AtomicBool,
}

/// Handle to a running server; dropping it does **not** stop the daemon —
/// call [`ServerHandle::shutdown_and_join`] (or send the `shutdown` verb).
pub struct ServerHandle {
    /// The bound address (with the actual port when 0 was requested).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    driver: Option<JoinHandle<()>>,
}

/// Starts the daemon; returns once the listener is bound.
pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(config.addr)?;
    let addr = listener.local_addr()?;
    let engine_cfg = EngineConfig {
        queue_capacity: if config.queue_capacity == 0 {
            EngineConfig::default().queue_capacity
        } else {
            config.queue_capacity
        },
        default_deadline: Duration::from_millis(config.default_deadline_ms),
    };
    let shared = Arc::new(Shared {
        registry: Registry::new(config.max_clusters),
        engine: Arc::new(Engine::new(config.cache_capacity, engine_cfg)),
        metrics: Arc::new(Metrics::new()),
        default_deadline: Duration::from_millis(config.default_deadline_ms),
        stopping: AtomicBool::new(false),
    });
    let (completer, completions) = conn::completion_channel()?;
    let handler = ServeHandler { shared: Arc::clone(&shared), completer };
    let driver = conn::spawn("fpm-serve-loop", listener, completions, handler)?;
    Ok(ServerHandle { addr, shared, driver: Some(driver) })
}

impl ServerHandle {
    /// Requests shutdown, drains in-flight work and returns the final
    /// metrics snapshot.
    pub fn shutdown_and_join(mut self) -> Json {
        self.shared.stopping.store(true, Ordering::SeqCst);
        // Wake the poller with a no-op connection (dropped unserved).
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.driver.take() {
            let _ = handle.join();
        }
        self.shared.engine.drain(Duration::from_secs(10));
        self.shared.metrics.snapshot_json()
    }

    /// Point-in-time metrics snapshot (embedder-side `stats`).
    pub fn metrics_json(&self) -> Json {
        self.shared.metrics.snapshot_json()
    }

    /// True once shutdown has been requested (by verb or handle).
    pub fn is_stopping(&self) -> bool {
        self.shared.stopping.load(Ordering::SeqCst)
    }
}

/// A pool solve's outcome, posted back to the loop.
type Solved = (PlanResult, CacheStatus);

/// One resolved `partition_batch` element.
enum BatchElem {
    /// Solved (plan, served-from-cache flag).
    Plan(Arc<Plan>, bool),
    /// Failed (solver error, shed, or deadline).
    Fail(ProtoError),
}

/// A reply waiting on pool solves.
struct Solve {
    deadline: Instant,
    deadline_ms: u128,
    algorithm: AlgorithmId,
    fingerprint: String,
    /// `None` for a `partition`; the element results of a
    /// `partition_batch`, at least one of them still on the pool.
    batch: Option<Batch>,
}

struct Batch {
    results: Vec<Option<BatchElem>>,
    remaining: usize,
}

/// The partition service's request logic.
struct ServeHandler {
    shared: Arc<Shared>,
    completer: Completer<Solved>,
}

impl Handler for ServeHandler {
    type Pending = Solve;
    type Done = Solved;

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

    fn on_lines(&self, lines: u64) {
        self.shared.metrics.observe_pipeline_depth(lines);
    }

    fn handle(&mut self, conn: &mut Conn<Solve>, line: Line<'_>) -> bool {
        match line.verb {
            "partition" => self.hot_partition(conn, &line),
            "partition_batch" => self.hot_batch(conn, &line),
            _ => return self.cold_verb(conn, &line),
        }
        true
    }

    fn complete(
        &mut self,
        addr: ReplyAddr,
        (result, status): Solved,
        solve: &mut Solve,
        id: Option<&Json>,
        started: Instant,
    ) -> Option<String> {
        let m = &self.shared.metrics;
        let cached = status != CacheStatus::Miss;
        let mut out = String::new();
        match &mut solve.batch {
            None => {
                count_cache_status(m, status);
                m.partition_latency.record(elapsed_us(started));
                match result {
                    Ok(plan) => render_partition_ok(
                        &mut out,
                        display_id(id),
                        &plan,
                        cached,
                        solve.algorithm,
                        &solve.fingerprint,
                    ),
                    Err(e) => {
                        m.inc(&m.errors);
                        render_err(&mut out, display_id(id), &e);
                    }
                }
            }
            Some(batch) => {
                if batch.results.get(addr.part).is_some_and(Option::is_none) {
                    count_cache_status(m, status);
                    m.partition_latency.record(elapsed_us(started));
                    batch.results[addr.part] = Some(match result {
                        Ok(plan) => BatchElem::Plan(plan, cached),
                        Err(e) => {
                            m.inc(&m.errors);
                            BatchElem::Fail(e)
                        }
                    });
                    batch.remaining -= 1;
                }
                if batch.remaining > 0 {
                    return None;
                }
                render_batch(
                    &mut out,
                    display_id(id),
                    solve.algorithm,
                    &solve.fingerprint,
                    &batch.results,
                );
            }
        }
        Some(out)
    }

    /// Answers every slot whose deadline has passed; late pool results
    /// for an answered slot are dropped by the core.
    fn expire(
        &mut self,
        conns: &mut Conns<Solve>,
        _: &mut Vec<(ReplyAddr, Solved)>,
    ) -> Option<Instant> {
        let now = Instant::now();
        let m = &self.shared.metrics;
        let mut nearest: Option<Instant> = None;
        for conn in conns.values_mut() {
            for slot in conn.slots_mut() {
                let SlotState::Pending(solve) = &mut slot.state else { continue };
                if now < solve.deadline {
                    nearest = Some(nearest.map_or(solve.deadline, |t| t.min(solve.deadline)));
                    continue;
                }
                let err = ProtoError::new(
                    "deadline",
                    format!("no result within {} ms", solve.deadline_ms),
                );
                let mut out = String::new();
                match &mut solve.batch {
                    None => {
                        m.inc(&m.deadline_misses);
                        m.inc(&m.errors);
                        render_err(&mut out, display_id(slot.id.as_ref()), &err);
                    }
                    Some(batch) => {
                        for elem in batch.results.iter_mut().filter(|e| e.is_none()) {
                            m.inc(&m.deadline_misses);
                            m.inc(&m.errors);
                            *elem = Some(BatchElem::Fail(err.clone()));
                        }
                        render_batch(
                            &mut out,
                            display_id(slot.id.as_ref()),
                            solve.algorithm,
                            &solve.fingerprint,
                            &batch.results,
                        );
                    }
                }
                slot.resolve(out);
            }
        }
        nearest
    }
}

impl ServeHandler {
    /// The hot path: borrowed parse, registry lookup by slice, cache probe
    /// — a warm hit renders the reply without leaving the loop thread.
    fn hot_partition(&self, conn: &mut Conn<Solve>, line: &Line<'_>) {
        let m = &self.shared.metrics;
        m.inc(&m.partition_requests);
        let disp = line.display_id();
        let view = match parse_partition_ref(line.value) {
            Ok(v) => v,
            Err(e) => {
                let e = self.contextualise_algorithm_error(line.value, e);
                return self.fail(conn, disp, &e);
            }
        };
        let cluster = match self.shared.registry.lookup_ref(view.target) {
            Ok(c) => c,
            Err(e) => return self.fail(conn, disp, &e),
        };
        if let Some(result) = self.shared.engine.probe(&cluster, view.n, view.algorithm) {
            m.inc(&m.cache_hits);
            m.partition_latency.record(elapsed_us(line.started));
            match result {
                Ok(plan) => conn.with_out(|out| {
                    render_partition_ok(out, disp, &plan, true, view.algorithm, &cluster.fingerprint)
                }),
                Err(e) => self.fail(conn, disp, &e),
            }
            return;
        }
        // Cold: reserve a queue slot and hand the solve to the pool.
        let admission = match self.shared.engine.admit(&self.shared.metrics) {
            Ok(a) => a,
            Err(e) => return self.fail(conn, disp, &e),
        };
        let addr = self.defer(conn, line, view.deadline_ms, view.algorithm, &cluster, None);
        self.submit_solve(admission, addr, &cluster, view.n, view.algorithm);
    }

    /// `partition_batch`: many sizes, one cluster, one reply. Cached
    /// elements are answered from the probe; cold elements are admitted
    /// element-wise (a full queue sheds single elements, not the batch).
    fn hot_batch(&self, conn: &mut Conn<Solve>, line: &Line<'_>) {
        let m = &self.shared.metrics;
        m.inc(&m.batch_requests);
        let disp = line.display_id();
        let view = match parse_partition_batch_ref(line.value) {
            Ok(v) => v,
            Err(e) => {
                let e = self.contextualise_algorithm_error(line.value, e);
                return self.fail(conn, disp, &e);
            }
        };
        m.batch_sub_requests.fetch_add(view.ns.len() as u64, Ordering::Relaxed);
        let cluster = match self.shared.registry.lookup_ref(view.target) {
            Ok(c) => c,
            Err(e) => return self.fail(conn, disp, &e),
        };
        let mut results: Vec<Option<BatchElem>> = Vec::with_capacity(view.ns.len());
        let mut cold: Vec<usize> = Vec::new();
        for (i, &n) in view.ns.iter().enumerate() {
            match self.shared.engine.probe(&cluster, n, view.algorithm) {
                Some(result) => {
                    m.inc(&m.cache_hits);
                    m.partition_latency.record(elapsed_us(line.started));
                    results.push(Some(match result {
                        Ok(plan) => BatchElem::Plan(plan, true),
                        Err(e) => {
                            m.inc(&m.errors);
                            BatchElem::Fail(e)
                        }
                    }));
                }
                None => {
                    cold.push(i);
                    results.push(None);
                }
            }
        }
        let mut admitted: Vec<(usize, Admission)> = Vec::with_capacity(cold.len());
        for &i in &cold {
            match self.shared.engine.admit(&self.shared.metrics) {
                Ok(a) => admitted.push((i, a)),
                Err(e) => {
                    m.inc(&m.errors);
                    results[i] = Some(BatchElem::Fail(e));
                }
            }
        }
        if admitted.is_empty() {
            conn.with_out(|out| {
                render_batch(out, disp, view.algorithm, &cluster.fingerprint, &results)
            });
            return;
        }
        let batch = Batch { results, remaining: admitted.len() };
        let addr = self.defer(conn, line, view.deadline_ms, view.algorithm, &cluster, Some(batch));
        for (i, admission) in admitted {
            let addr = ReplyAddr { part: i, ..addr };
            self.submit_solve(admission, addr, &cluster, view.ns[i], view.algorithm);
        }
    }

    /// Queues the pending slot for a request whose solves go to the pool.
    fn defer(
        &self,
        conn: &mut Conn<Solve>,
        line: &Line<'_>,
        deadline_ms: Option<u64>,
        algorithm: AlgorithmId,
        cluster: &RegisteredCluster,
        batch: Option<Batch>,
    ) -> ReplyAddr {
        let deadline =
            deadline_ms.map(Duration::from_millis).unwrap_or(self.shared.default_deadline);
        let addr = conn.next_addr();
        let solve = Solve {
            deadline: line.started + deadline,
            deadline_ms: deadline.as_millis(),
            algorithm,
            fingerprint: cluster.fingerprint.clone(),
            batch,
        };
        conn.push_pending(addr, line.id, line.started, solve);
        addr
    }

    /// Rewrites a parse failure for an unrecognised `algorithm` so the
    /// suggestion list matches what the referenced cluster can actually
    /// use: the nonlinear cost-model entries (`sort-sample`, `query`) are
    /// listed only when the request's cluster registered cost knots. A
    /// request whose cluster cannot be resolved keeps the full generic
    /// list from the planner.
    fn contextualise_algorithm_error(&self, value: &JsonRef<'_>, e: ProtoError) -> ProtoError {
        // The planner's parse error arrives wrapped (e.g. "invalid
        // parameter: unknown algorithm: …"), so match anywhere in the text.
        if e.code != "bad_request" || !e.message.contains("unknown algorithm") {
            return e;
        }
        let Some(cluster) = parse_target_ref(value)
            .ok()
            .and_then(|t| self.shared.registry.lookup_ref(t).ok())
        else {
            return e;
        };
        let nonlinear = cluster.has_cost_models();
        let mut names = String::new();
        for info in fpm_core::planner::registry() {
            if info.cost.nonlinear() && !nonlinear {
                continue;
            }
            if !names.is_empty() {
                names.push('|');
            }
            names.push_str(if info.name == "single" { "single@SIZE" } else { info.name });
        }
        ProtoError::new(
            "bad_request",
            format!(
                "unknown algorithm: expected one of {names} (or an alias; run `fpm algorithms` \
                 for the catalog)"
            ),
        )
    }

    fn submit_solve(
        &self,
        admission: Admission,
        addr: ReplyAddr,
        cluster: &Arc<RegisteredCluster>,
        n: u64,
        algorithm: AlgorithmId,
    ) {
        let done = self.completer.clone();
        self.shared.engine.submit(admission, cluster, n, algorithm, move |result, status| {
            done.complete(addr, (result, status));
        });
    }

    /// The infrequent verbs, via the owned parser (one allocation each —
    /// irrelevant off the partition path). Returns false when the verb
    /// ends service on this connection (`shutdown`).
    fn cold_verb(&self, conn: &mut Conn<Solve>, line: &Line<'_>) -> bool {
        let m = &self.shared.metrics;
        let disp = line.display_id();
        let request = match request_from_value(line.value) {
            Ok(r) => r,
            Err(e) => {
                self.fail(conn, disp, &e);
                return true;
            }
        };
        match request {
            Request::Ping => {
                m.inc(&m.ping_requests);
                conn.with_out(|out| {
                    render_ok_head(out, disp, "ping");
                    out.push_str(",\"pong\":true}");
                });
            }
            Request::Stats => {
                m.inc(&m.stats_requests);
                let snapshot = m.snapshot_json();
                let clusters = self.shared.registry.clusters_json();
                conn.with_out(|out| {
                    render_ok_head(out, disp, "stats");
                    let _ = write!(out, ",\"stats\":{snapshot},\"clusters\":{clusters}}}");
                });
            }
            Request::Shutdown => {
                m.inc(&m.shutdown_requests);
                self.shared.stopping.store(true, Ordering::SeqCst);
                conn.with_out(|out| {
                    render_ok_head(out, disp, "shutdown");
                    out.push_str(",\"draining\":true}");
                });
                conn.close_after_flush();
                return false;
            }
            Request::Register { cluster, spec } => {
                m.inc(&m.register_requests);
                match self.shared.registry.register(&cluster, &spec) {
                    Ok(c) => conn.with_out(|out| {
                        render_ok_head(out, disp, "register");
                        let _ = write!(out, ",\"fingerprint\":{}", JsonStr(&c.fingerprint));
                        out.push_str(",\"machines\":[");
                        for (i, name) in c.machine_names.iter().enumerate() {
                            if i > 0 {
                                out.push(',');
                            }
                            let _ = write!(out, "{}", JsonStr(name));
                        }
                        out.push_str("]}");
                    }),
                    Err(e) => self.fail(conn, disp, &e),
                }
            }
            Request::Report { target, machine, x, elapsed_us } => {
                m.inc(&m.report_requests);
                let view = match &target {
                    ClusterRef::Name(name) => ClusterRefView::Name(name),
                    ClusterRef::Fingerprint(fp) => ClusterRefView::Fingerprint(fp),
                };
                match self.shared.registry.report(view, machine, x, elapsed_us) {
                    Ok(o) => {
                        if o.accepted {
                            m.inc(&m.refine_accepted);
                        } else {
                            m.inc(&m.refine_rejected);
                        }
                        conn.with_out(|out| {
                            render_ok_head(out, disp, "report");
                            let _ = write!(
                                out,
                                ",\"accepted\":{},\"reason\":\"{}\",\"epoch\":{},\"machine\":{},\"fingerprint\":{}}}",
                                o.accepted,
                                o.reason,
                                o.epoch,
                                JsonStr(&o.machine),
                                JsonStr(&o.fingerprint)
                            );
                        });
                    }
                    Err(e) => self.fail(conn, disp, &e),
                }
            }
            Request::Partition { .. } | Request::PartitionBatch { .. } => {
                unreachable!("partition verbs dispatch on the hot path")
            }
        }
        true
    }
}

fn count_cache_status(m: &Metrics, status: CacheStatus) {
    match status {
        CacheStatus::Hit => m.inc(&m.cache_hits),
        CacheStatus::Miss => m.inc(&m.cache_misses),
        CacheStatus::Coalesced => m.inc(&m.cache_coalesced),
    }
}

// --- response rendering -------------------------------------------------
//
// Like the protocol renderers these write the exact bytes of the
// value-tree responses straight into a reused buffer.

fn render_plan_fields(out: &mut String, plan: &Plan, cached: bool) {
    // counts/makespan/steps are rendered once per plan and memoised (warm
    // hits re-send the same plan); only the hit flag varies per reply.
    out.push_str(plan.wire_fields());
    let _ = write!(out, ",\"cached\":{cached}");
}

fn render_partition_ok(
    out: &mut String,
    id: Option<&dyn fmt::Display>,
    plan: &Plan,
    cached: bool,
    algorithm: AlgorithmId,
    fingerprint: &str,
) {
    render_ok_head(out, id, "partition");
    render_plan_fields(out, plan, cached);
    // Algorithm names and fingerprints are escape-free identifiers.
    let _ = write!(out, ",\"algorithm\":\"{algorithm}\",\"fingerprint\":{}}}", JsonStr(fingerprint));
}

fn render_batch(
    out: &mut String,
    id: Option<&dyn fmt::Display>,
    algorithm: AlgorithmId,
    fingerprint: &str,
    results: &[Option<BatchElem>],
) {
    render_ok_head(out, id, "partition_batch");
    let _ = write!(out, ",\"algorithm\":\"{algorithm}\",\"fingerprint\":{}", JsonStr(fingerprint));
    out.push_str(",\"results\":[");
    for (i, elem) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match elem {
            Some(BatchElem::Plan(plan, cached)) => {
                out.push_str("{\"ok\":true");
                render_plan_fields(out, plan, *cached);
                out.push('}');
            }
            Some(BatchElem::Fail(e)) => {
                let _ = write!(
                    out,
                    "{{\"ok\":false,\"error\":{},\"message\":{}}}",
                    JsonStr(e.code),
                    JsonStr(&e.message)
                );
            }
            // Callers only render complete batches.
            None => out.push_str("{\"ok\":false,\"error\":\"internal\",\"message\":\"missing element\"}"),
        }
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MAX_FRAME_BYTES;
    use std::io::{BufRead, BufReader, Write};

    #[test]
    fn spawns_on_ephemeral_port_and_answers_ping() {
        let handle = spawn(ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr).unwrap();
        writeln!(stream, r#"{{"id":1,"verb":"ping"}}"#).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("pong").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(1));
        let stats = handle.shutdown_and_join();
        assert_eq!(stats.get("ping_requests").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn oversized_frames_close_with_structured_error() {
        let handle = spawn(ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr).unwrap();
        let big = vec![b'x'; MAX_FRAME_BYTES + 10];
        stream.write_all(&big).unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("error").and_then(Json::as_str), Some("frame_too_large"));
        // Connection is closed after the error.
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0);
        handle.shutdown_and_join();
    }

    #[test]
    fn requests_read_after_the_stop_are_refused() {
        let handle = spawn(ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        writeln!(stream, r#"{{"id":1,"verb":"ping"}}"#).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("pong"), "{line}");
        // Flip the flag without waking the loop, so the next thing it
        // reads is the request itself: refused, then closed.
        std::thread::sleep(Duration::from_millis(50));
        handle.shared.stopping.store(true, Ordering::SeqCst);
        writeln!(stream, r#"{{"id":2,"verb":"ping"}}"#).unwrap();
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut reader, &mut rest).unwrap();
        let refusal = ProtoError::new("shutting_down", "server is draining");
        assert_eq!(rest, crate::protocol::err_response(None, &refusal) + "\n");
        handle.shutdown_and_join();
    }

    #[test]
    fn shutdown_verb_stops_the_server() {
        let handle = spawn(ServerConfig::default()).unwrap();
        let addr = handle.addr;
        let mut stream = TcpStream::connect(addr).unwrap();
        writeln!(stream, r#"{{"verb":"shutdown"}}"#).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("draining").and_then(Json::as_bool), Some(true));
        // Give the loop a moment to observe the flag, then join.
        assert!(handle.is_stopping());
        handle.shutdown_and_join();
        // New connections are refused or dropped without service.
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = writeln!(s, r#"{{"verb":"ping"}}"#);
            let mut r = BufReader::new(s);
            let mut l = String::new();
            // Either 0 bytes (dropped) or an explicit shutting_down error.
            if r.read_line(&mut l).unwrap_or(0) > 0 {
                let v = Json::parse(&l).unwrap();
                assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
            }
        }
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let handle = spawn(ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr).unwrap();
        stream
            .write_all(
                b"{\"id\":1,\"verb\":\"ping\"}\n{\"id\":2,\"verb\":\"stats\"}\n{\"id\":3,\"verb\":\"ping\"}\n",
            )
            .unwrap();
        let mut reader = BufReader::new(stream);
        for want in 1..=3u64 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let v = Json::parse(&line).unwrap();
            assert_eq!(v.get("id").and_then(Json::as_u64), Some(want), "reply order");
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        }
        let stats = handle.shutdown_and_join();
        assert_eq!(stats.get("requests").and_then(Json::as_u64), Some(3));
        assert!(stats.get("pipeline_depth_peak").and_then(Json::as_u64).unwrap_or(0) >= 1);
    }

    #[test]
    fn requests_split_across_segments_are_reassembled() {
        let handle = spawn(ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr).unwrap();
        stream.write_all(b"{\"id\":7,\"ver").unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(30));
        stream.write_all(b"b\":\"ping\"}\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("pong").and_then(Json::as_bool), Some(true));
        handle.shutdown_and_join();
    }

    #[test]
    fn partition_batch_on_unknown_cluster_is_not_found() {
        let handle = spawn(ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr).unwrap();
        writeln!(stream, r#"{{"id":9,"verb":"partition_batch","cluster":"nope","ns":[10,20]}}"#)
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(9));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("error").and_then(Json::as_str), Some("not_found"));
        let stats = handle.shutdown_and_join();
        assert_eq!(stats.get("batch_requests").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("batch_sub_requests").and_then(Json::as_u64), Some(2));
    }
}
