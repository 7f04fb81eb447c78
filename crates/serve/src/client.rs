//! A small blocking client for the serve protocol — used by the CLI, the
//! load generator and the integration tests.
//!
//! One [`Client`] is one connection with no reconnect: a caller whose
//! server went away sees [`SHARD_UNAVAILABLE`] and connects again. (The
//! router does not use this client upstream; it keeps pipelined
//! [`crate::conn::Outbound`] connections on its poll loop.)
//!
//! Three request shapes are supported, matching the server's event loop:
//! one-at-a-time ([`Client::partition`]), pipelined windows of independent
//! requests ([`Client::partition_pipelined`] — many lines in flight, replies
//! read back in request order), and the `partition_batch` verb
//! ([`Client::partition_batch`] — many sizes in one round-trip).

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::json::Json;
use crate::protocol::ProtoError;
use fpm_core::planner::AlgorithmId;

/// Error code for a shard that cannot be reached or died mid-request
/// (connect refused, connection reset, broken pipe, server-side close).
/// The router's failover path keys on this code to tell "the backend is
/// gone — try a replica" apart from genuine protocol errors that a retry
/// would only repeat.
pub const SHARD_UNAVAILABLE: &str = "shard_unavailable";

/// A connected protocol client (one request *window* in flight at a time).
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// True when an io error kind means the peer process is unreachable or
/// gone (as opposed to a protocol or timeout problem).
fn is_unavailable(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::ConnectionRefused
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
            | ErrorKind::NotConnected
    )
}

/// A successful `partition` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionReply {
    /// Per-machine element counts.
    pub counts: Vec<u64>,
    /// Predicted makespan.
    pub makespan: f64,
    /// Solver search steps.
    pub steps: u64,
    /// True when the server answered from its plan cache.
    pub cached: bool,
    /// Cluster content fingerprint.
    pub fingerprint: String,
}

/// One inline model for [`Client::register_inline_mixed`]: `(machine
/// name, knots, cost)`. The knots are `(size, speed)` pairs when `cost`
/// is false (the `knots` wire field) and measured `(size, time)` pairs
/// when it is true (the `cost_knots` wire field).
pub type InlineModel = (String, Vec<(f64, f64)>, bool);

/// A successful `register` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct RegisterReply {
    /// Cluster content fingerprint.
    pub fingerprint: String,
    /// Machine names, in model order.
    pub machines: Vec<String>,
}

/// A successful `report` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportReply {
    /// True when the refiner accepted the observation and re-fit the model.
    pub accepted: bool,
    /// `"refined"` on acceptance, otherwise the rejection reason
    /// (`"in_band"`, `"pending"`, `"outlier"`, …).
    pub reason: String,
    /// The cluster's epoch after the report.
    pub epoch: u64,
    /// The machine the report applied to.
    pub machine: String,
    /// Cluster content fingerprint after the report (changes on refit).
    pub fingerprint: String,
}

impl Client {
    /// Connects with a read timeout (covers slow solves; pass generously).
    pub fn connect(addr: SocketAddr, read_timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(read_timeout))?;
        let writer = stream.try_clone()?;
        Ok(Self { writer, reader: BufReader::new(stream) })
    }

    /// Sends one newline-terminated frame, handling short writes and
    /// interrupted syscalls explicitly — `write` may move only part of the
    /// frame when the socket buffer is tight (deep pipelining does exactly
    /// that).
    pub(crate) fn send_line(&mut self, line: &str) -> Result<(), ProtoError> {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        self.send_bytes(&frame)
    }

    /// Writes pre-framed bytes (one or many `\n`-terminated requests) in
    /// one syscall where possible — pipelining callers batch a whole
    /// window per write.
    pub(crate) fn send_bytes(&mut self, frame: &[u8]) -> Result<(), ProtoError> {
        let mut written = 0usize;
        while written < frame.len() {
            match self.writer.write(&frame[written..]) {
                Ok(0) => {
                    return Err(ProtoError::new(SHARD_UNAVAILABLE, "server closed the connection"))
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if is_unavailable(e.kind()) => {
                    return Err(ProtoError::new(SHARD_UNAVAILABLE, format!("send failed: {e}")))
                }
                Err(e) => return Err(ProtoError::new("internal", format!("send failed: {e}"))),
            }
        }
        Ok(())
    }

    /// Reads one raw response line into `reply` (cleared first). The
    /// throughput-sensitive callers parse it with the borrowing parser.
    pub(crate) fn recv_line(&mut self, reply: &mut String) -> Result<(), ProtoError> {
        reply.clear();
        self.reader.read_line(reply).map_err(|e| {
            if is_unavailable(e.kind()) {
                ProtoError::new(SHARD_UNAVAILABLE, format!("recv failed: {e}"))
            } else {
                ProtoError::new("internal", format!("recv failed: {e}"))
            }
        })?;
        if reply.is_empty() {
            return Err(ProtoError::new(SHARD_UNAVAILABLE, "server closed the connection"));
        }
        Ok(())
    }

    /// Reads one response line and parses it.
    pub(crate) fn recv_reply(&mut self) -> Result<Json, ProtoError> {
        let mut reply = String::new();
        self.recv_line(&mut reply)?;
        Json::parse(&reply)
            .map_err(|e| ProtoError::new("internal", format!("unparsable response: {e}")))
    }

    /// Sends one raw request line, returns the parsed response object.
    pub fn request_raw(&mut self, line: &str) -> Result<Json, ProtoError> {
        self.send_line(line)?;
        self.recv_reply()
    }

    /// Sends one raw request line and reads the raw response line into
    /// `reply` (cleared first; trailing newline stripped), byte for byte:
    /// re-rendering through a parser could perturb float formatting. The
    /// tests compare routed and direct replies with it. (The router
    /// itself relays shard replies through its own pipelined
    /// [`crate::conn::Outbound`] connections, with the same line-ending
    /// strip.)
    pub fn request_line(&mut self, line: &str, reply: &mut String) -> Result<(), ProtoError> {
        self.send_line(line)?;
        self.recv_line(reply)?;
        while reply.ends_with('\n') || reply.ends_with('\r') {
            reply.pop();
        }
        Ok(())
    }

    /// Sends a request and lifts protocol-level errors into `ProtoError`.
    fn request_ok(&mut self, line: &str) -> Result<Json, ProtoError> {
        lift_ok(self.request_raw(line)?)
    }

    /// Registers a cluster from inline `(name, knots)` speed models.
    pub fn register_inline(
        &mut self,
        cluster: &str,
        models: &[(String, Vec<(f64, f64)>)],
    ) -> Result<RegisterReply, ProtoError> {
        let mixed: Vec<InlineModel> =
            models.iter().map(|(n, k)| (n.clone(), k.clone(), false)).collect();
        self.register_inline_mixed(cluster, &mixed)
    }

    /// Registers a cluster from inline models, each carrying either
    /// `(size, speed)` knots (`cost == false`, the `knots` wire field) or
    /// measured `(size, time)` cost knots (`cost == true`, sent as the
    /// `cost_knots` wire field). Speed and cost machines may be mixed
    /// freely within one cluster.
    pub fn register_inline_mixed(
        &mut self,
        cluster: &str,
        models: &[InlineModel],
    ) -> Result<RegisterReply, ProtoError> {
        let models_json = Json::Arr(
            models
                .iter()
                .map(|(name, knots, cost)| {
                    Json::Obj(vec![
                        ("name".into(), Json::str(name.clone())),
                        (
                            if *cost { "cost_knots".into() } else { "knots".into() },
                            Json::Arr(
                                knots
                                    .iter()
                                    .map(|&(x, s)| Json::Arr(vec![Json::num(x), Json::num(s)]))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let req = Json::Obj(vec![
            ("verb".into(), Json::str("register")),
            ("cluster".into(), Json::str(cluster)),
            ("models".into(), models_json),
        ]);
        let v = self.request_ok(&req.to_string())?;
        parse_register_reply(&v)
    }

    /// Registers a simnet testbed cluster built server-side.
    pub fn register_testbed(
        &mut self,
        cluster: &str,
        testbed: &str,
        app: &str,
        seed: u64,
    ) -> Result<RegisterReply, ProtoError> {
        let req = Json::Obj(vec![
            ("verb".into(), Json::str("register")),
            ("cluster".into(), Json::str(cluster)),
            (
                "testbed".into(),
                Json::Obj(vec![
                    ("name".into(), Json::str(testbed)),
                    ("app".into(), Json::str(app)),
                    ("seed".into(), Json::uint(seed)),
                ]),
            ),
        ]);
        let v = self.request_ok(&req.to_string())?;
        parse_register_reply(&v)
    }

    /// Partitions `n` elements over a registered cluster.
    pub fn partition(
        &mut self,
        cluster: &str,
        n: u64,
        algorithm: AlgorithmId,
        deadline_ms: Option<u64>,
    ) -> Result<PartitionReply, ProtoError> {
        let mut fields = vec![
            ("verb".into(), Json::str("partition")),
            ("cluster".into(), Json::str(cluster)),
            ("n".into(), Json::uint(n)),
            ("algorithm".into(), Json::str(algorithm.to_string())),
        ];
        if let Some(ms) = deadline_ms {
            fields.push(("deadline_ms".into(), Json::uint(ms)));
        }
        let v = self.request_ok(&Json::Obj(fields).to_string())?;
        parse_partition_reply(&v)
    }

    /// Pipelines one `partition` request per size, keeping up to `depth`
    /// requests in flight, and reads the replies back in request order
    /// (the server guarantees order even when solves complete out of
    /// order). All replies are drained even when one carries an error, so
    /// the connection stays usable afterwards.
    pub fn partition_pipelined(
        &mut self,
        cluster: &str,
        ns: &[u64],
        algorithm: AlgorithmId,
        deadline_ms: Option<u64>,
        depth: usize,
    ) -> Result<Vec<Result<PartitionReply, ProtoError>>, ProtoError> {
        let depth = depth.max(1);
        let mut replies = Vec::with_capacity(ns.len());
        let mut in_flight: VecDeque<u64> = VecDeque::with_capacity(depth);
        let mut next = 0usize;
        while replies.len() < ns.len() {
            while next < ns.len() && in_flight.len() < depth {
                let mut fields = vec![
                    ("id".into(), Json::uint(next as u64)),
                    ("verb".into(), Json::str("partition")),
                    ("cluster".into(), Json::str(cluster)),
                    ("n".into(), Json::uint(ns[next])),
                    ("algorithm".into(), Json::str(algorithm.to_string())),
                ];
                if let Some(ms) = deadline_ms {
                    fields.push(("deadline_ms".into(), Json::uint(ms)));
                }
                self.send_line(&Json::Obj(fields).to_string())?;
                in_flight.push_back(next as u64);
                next += 1;
            }
            let v = self.recv_reply()?;
            let want = in_flight.pop_front().expect("a request is in flight");
            if v.get("id").and_then(Json::as_u64) != Some(want) {
                return Err(ProtoError::new(
                    "internal",
                    format!("pipelined reply out of order (expected id {want})"),
                ));
            }
            replies.push(lift_ok(v).and_then(|v| parse_partition_reply(&v)));
        }
        Ok(replies)
    }

    /// Partitions many sizes over one cluster in a single round-trip via
    /// the `partition_batch` verb. Element failures (shed, deadline) come
    /// back in-place; only envelope failures (unknown cluster, bad
    /// request) abort the call.
    pub fn partition_batch(
        &mut self,
        cluster: &str,
        ns: &[u64],
        algorithm: AlgorithmId,
        deadline_ms: Option<u64>,
    ) -> Result<Vec<Result<PartitionReply, ProtoError>>, ProtoError> {
        let mut fields = vec![
            ("verb".into(), Json::str("partition_batch")),
            ("cluster".into(), Json::str(cluster)),
            ("ns".into(), Json::Arr(ns.iter().map(|&n| Json::uint(n)).collect())),
            ("algorithm".into(), Json::str(algorithm.to_string())),
        ];
        if let Some(ms) = deadline_ms {
            fields.push(("deadline_ms".into(), Json::uint(ms)));
        }
        let v = self.request_ok(&Json::Obj(fields).to_string())?;
        let fingerprint =
            v.get("fingerprint").and_then(Json::as_str).unwrap_or_default().to_owned();
        let results = v
            .get("results")
            .and_then(Json::as_array)
            .ok_or_else(|| ProtoError::new("internal", "missing results"))?;
        if results.len() != ns.len() {
            return Err(ProtoError::new(
                "internal",
                format!("batch answered {} of {} sizes", results.len(), ns.len()),
            ));
        }
        Ok(results
            .iter()
            .map(|elem| {
                if elem.get("ok").and_then(Json::as_bool) == Some(true) {
                    let mut reply = parse_partition_body(elem)?;
                    reply.fingerprint = fingerprint.clone();
                    Ok(reply)
                } else {
                    Err(lift_err(elem))
                }
            })
            .collect())
    }

    /// Reports an observed execution: `x` elements processed in
    /// `elapsed_us` microseconds on one machine of a registered cluster.
    /// The server's refiner decides whether the observation re-fits the
    /// model (bumping the cluster epoch) or is rejected.
    pub fn report(
        &mut self,
        cluster: &str,
        machine: u64,
        x: f64,
        elapsed_us: f64,
    ) -> Result<ReportReply, ProtoError> {
        let req = Json::Obj(vec![
            ("verb".into(), Json::str("report")),
            ("cluster".into(), Json::str(cluster)),
            ("machine".into(), Json::uint(machine)),
            ("x".into(), Json::num(x)),
            ("elapsed_us".into(), Json::num(elapsed_us)),
        ]);
        let v = self.request_ok(&req.to_string())?;
        parse_report_reply(&v)
    }

    /// Fetches the metrics snapshot.
    pub fn stats(&mut self) -> Result<Json, ProtoError> {
        let v = self.request_ok(r#"{"verb":"stats"}"#)?;
        v.get("stats")
            .cloned()
            .ok_or_else(|| ProtoError::new("internal", "missing stats"))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ProtoError> {
        self.request_ok(r#"{"verb":"ping"}"#).map(|_| ())
    }

    /// Asks the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ProtoError> {
        self.request_ok(r#"{"verb":"shutdown"}"#).map(|_| ())
    }
}

/// Lifts an error response object into a [`ProtoError`] with a stable
/// `&'static` code.
fn lift_err(v: &Json) -> ProtoError {
    let code: &'static str = match v.get("error").and_then(Json::as_str) {
        Some("overloaded") => "overloaded",
        Some("deadline") => "deadline",
        Some("not_found") => "not_found",
        Some("invalid_model") => "invalid_model",
        Some("solve_failed") => "solve_failed",
        Some("shutting_down") => "shutting_down",
        Some("bad_request") => "bad_request",
        Some("bad_json") => "bad_json",
        Some("unknown_verb") => "unknown_verb",
        Some("frame_too_large") => "frame_too_large",
        Some("shard_unavailable") => SHARD_UNAVAILABLE,
        _ => "internal",
    };
    let message = v
        .get("message")
        .and_then(Json::as_str)
        .unwrap_or("unspecified server error")
        .to_owned();
    ProtoError::new(code, message)
}

/// Passes `ok` responses through; converts error responses.
fn lift_ok(v: Json) -> Result<Json, ProtoError> {
    if v.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(v)
    } else {
        Err(lift_err(&v))
    }
}

/// Parses the plan fields shared by `partition` replies and
/// `partition_batch` elements (which carry no fingerprint of their own).
fn parse_partition_body(v: &Json) -> Result<PartitionReply, ProtoError> {
    let counts = v
        .get("counts")
        .and_then(Json::as_array)
        .ok_or_else(|| ProtoError::new("internal", "missing counts"))?
        .iter()
        .map(|c| c.as_u64().ok_or_else(|| ProtoError::new("internal", "bad count")))
        .collect::<Result<Vec<u64>, _>>()?;
    Ok(PartitionReply {
        counts,
        makespan: v
            .get("makespan")
            .and_then(Json::as_f64)
            .ok_or_else(|| ProtoError::new("internal", "missing makespan"))?,
        steps: v.get("steps").and_then(Json::as_u64).unwrap_or(0),
        cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
        fingerprint: String::new(),
    })
}

/// Parses a full `partition` reply (fingerprint included).
fn parse_partition_reply(v: &Json) -> Result<PartitionReply, ProtoError> {
    let mut reply = parse_partition_body(v)?;
    reply.fingerprint =
        v.get("fingerprint").and_then(Json::as_str).unwrap_or_default().to_owned();
    Ok(reply)
}

fn parse_report_reply(v: &Json) -> Result<ReportReply, ProtoError> {
    Ok(ReportReply {
        accepted: v
            .get("accepted")
            .and_then(Json::as_bool)
            .ok_or_else(|| ProtoError::new("internal", "missing accepted"))?,
        reason: v
            .get("reason")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned(),
        epoch: v
            .get("epoch")
            .and_then(Json::as_u64)
            .ok_or_else(|| ProtoError::new("internal", "missing epoch"))?,
        machine: v.get("machine").and_then(Json::as_str).unwrap_or_default().to_owned(),
        fingerprint: v
            .get("fingerprint")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned(),
    })
}

fn parse_register_reply(v: &Json) -> Result<RegisterReply, ProtoError> {
    Ok(RegisterReply {
        fingerprint: v
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtoError::new("internal", "missing fingerprint"))?
            .to_owned(),
        machines: v
            .get("machines")
            .and_then(Json::as_array)
            .map(|ms| {
                ms.iter()
                    .filter_map(Json::as_str)
                    .map(str::to_owned)
                    .collect()
            })
            .unwrap_or_default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{spawn, ServerConfig};

    #[test]
    fn register_partition_stats_round_trip() {
        let handle = spawn(ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr, Duration::from_secs(10)).unwrap();
        client.ping().unwrap();
        let reg = client
            .register_inline(
                "c1",
                &[
                    ("A".into(), vec![(1e3, 200.0), (1e6, 180.0), (1e8, 0.0)]),
                    ("B".into(), vec![(1e3, 100.0), (1e6, 90.0), (1e8, 0.0)]),
                ],
            )
            .unwrap();
        assert_eq!(reg.machines, ["A", "B"]);
        let cold = client
            .partition("c1", 1_000_000, AlgorithmId::Combined, None)
            .unwrap();
        assert_eq!(cold.counts.iter().sum::<u64>(), 1_000_000);
        assert!(!cold.cached);
        assert_eq!(cold.fingerprint, reg.fingerprint);
        let warm = client
            .partition("c1", 1_000_000, AlgorithmId::Combined, None)
            .unwrap();
        assert!(warm.cached);
        assert_eq!(cold.counts, warm.counts);
        assert_eq!(cold.makespan.to_bits(), warm.makespan.to_bits());
        let stats = client.stats().unwrap();
        assert_eq!(stats.get("cache_hits").and_then(Json::as_u64), Some(1));
        let err = client
            .partition("ghost", 10, AlgorithmId::Combined, None)
            .unwrap_err();
        assert_eq!(err.code, "not_found");
        handle.shutdown_and_join();
    }

    #[test]
    fn pipelined_and_batch_match_single_requests() {
        let handle = spawn(ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr, Duration::from_secs(30)).unwrap();
        client
            .register_inline(
                "c1",
                &[
                    ("A".into(), vec![(1e3, 200.0), (1e6, 180.0), (1e8, 0.0)]),
                    ("B".into(), vec![(1e3, 100.0), (1e6, 90.0), (1e8, 0.0)]),
                ],
            )
            .unwrap();
        let ns: Vec<u64> = (1..=6).map(|i| i * 50_000).collect();
        let singles: Vec<PartitionReply> = ns
            .iter()
            .map(|&n| client.partition("c1", n, AlgorithmId::Combined, None).unwrap())
            .collect();
        let piped = client
            .partition_pipelined("c1", &ns, AlgorithmId::Combined, None, 4)
            .unwrap();
        let batched = client.partition_batch("c1", &ns, AlgorithmId::Combined, None).unwrap();
        for ((single, piped), batched) in singles.iter().zip(&piped).zip(&batched) {
            let piped = piped.as_ref().unwrap();
            let batched = batched.as_ref().unwrap();
            assert_eq!(single.counts, piped.counts);
            assert_eq!(single.counts, batched.counts);
            assert_eq!(single.makespan.to_bits(), piped.makespan.to_bits());
            assert_eq!(single.makespan.to_bits(), batched.makespan.to_bits());
            assert_eq!(single.fingerprint, batched.fingerprint);
            assert!(piped.cached && batched.cached, "second pass must be warm");
        }
        handle.shutdown_and_join();
    }

    #[test]
    fn report_round_trip_bumps_epoch_and_invalidates_cache() {
        let handle = spawn(ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr, Duration::from_secs(10)).unwrap();
        let reg = client
            .register_inline(
                "c1",
                &[
                    ("A".into(), vec![(1e3, 200.0), (1e6, 180.0), (1e8, 0.0)]),
                    ("B".into(), vec![(1e3, 100.0), (1e6, 90.0), (1e8, 0.0)]),
                ],
            )
            .unwrap();
        let cold = client.partition("c1", 1_000_000, AlgorithmId::Combined, None).unwrap();
        // Machine A now runs 40% slower than its model says. The refiner
        // wants corroboration, so the first report only goes pending.
        let x = cold.counts[0] as f64;
        let elapsed_us = x / (180.0 * 0.6) * 1e6;
        let first = client.report("c1", 0, x, elapsed_us).unwrap();
        assert!(!first.accepted);
        assert_eq!(first.reason, "pending");
        assert_eq!(first.epoch, 0);
        assert_eq!(first.fingerprint, reg.fingerprint);
        let second = client.report("c1", 0, x, elapsed_us).unwrap();
        assert!(second.accepted);
        assert_eq!(second.reason, "refined");
        assert_eq!(second.epoch, 1);
        assert_eq!(second.machine, "A");
        assert_ne!(second.fingerprint, reg.fingerprint);
        // The refit invalidated the plan cache: same n solves fresh, on the
        // refined model, so the split shifts away from the slowed machine.
        let warm = client.partition("c1", 1_000_000, AlgorithmId::Combined, None).unwrap();
        assert!(!warm.cached);
        assert_eq!(warm.fingerprint, second.fingerprint);
        assert!(warm.counts[0] < cold.counts[0], "{:?} vs {:?}", warm.counts, cold.counts);
        let err = client.report("ghost", 0, 10.0, 10.0).unwrap_err();
        assert_eq!(err.code, "not_found");
        handle.shutdown_and_join();
    }

    #[test]
    fn dead_shard_surfaces_shard_unavailable() {
        // A server that dies mid-conversation surfaces the distinct
        // shard_unavailable code (or its drain refusal) on the next read.
        let handle = spawn(ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr, Duration::from_secs(5)).unwrap();
        client.ping().unwrap();
        handle.shutdown_and_join();
        let err = client.ping().unwrap_err();
        assert!(
            err.code == SHARD_UNAVAILABLE || err.code == "shutting_down",
            "got {}: {}",
            err.code,
            err.message
        );
    }

    #[test]
    fn shutdown_via_client_drains_server() {
        let handle = spawn(ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr, Duration::from_secs(5)).unwrap();
        client.shutdown().unwrap();
        assert!(handle.is_stopping());
        handle.shutdown_and_join();
    }
}
