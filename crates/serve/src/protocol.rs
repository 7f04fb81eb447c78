//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response per line. Every request is a JSON
//! object with a `"verb"` field and an optional `"id"` (echoed verbatim in
//! the response so clients may pipeline). Responses carry `"ok": true`
//! plus verb-specific fields, or `"ok": false` with a stable machine
//! `"error"` code and a human `"message"`.
//!
//! # Verbs
//!
//! | verb | request fields | response fields |
//! |---|---|---|
//! | `register` | `cluster`, and either `models` (inline piece-wise knots; per machine `knots` = `(size, speed)` pairs **or** `cost_knots` = `(size, time)` pairs for machines modelled directly in the time domain) or `testbed` (`{name, app, seed}` simnet reference) | `fingerprint`, `machines` |
//! | `partition` | `cluster` *or* `fingerprint`, `n`, optional `algorithm` (default `combined`), optional `deadline_ms` | `counts`, `makespan`, `cached`, `algorithm`, `fingerprint` |
//! | `partition_batch` | `cluster` *or* `fingerprint`, `ns` (array of sizes, ≤ [`MAX_BATCH`]), optional `algorithm`, optional `deadline_ms` (covers the whole batch) | `algorithm`, `fingerprint`, `results` — one array element per `ns` entry, each either the single-verb payload (`ok`, `counts`, `makespan`, `steps`, `cached`) or an element-level error (`ok: false`, `error`, `message`) |
//! | `report` | `model` (alias `cluster`) *or* `fingerprint`, `machine` (model index), `x` (problem size processed), `elapsed_us` (measured wall time, µs) | `accepted`, `reason`, `epoch`, `machine`, `fingerprint` |
//! | `stats` | — | metrics snapshot plus per-cluster `clusters` (epoch and refinement counters) |
//! | `ping` | — | `pong: true` |
//! | `shutdown` | — | `draining: true`, then the server drains and exits |
//!
//! `report` feeds one observed execution time back into the registry's
//! online refiner: an accepted observation re-fits the machine's
//! piece-wise model, bumps the cluster's epoch and changes its
//! fingerprint, invalidating all cached plans (the cache key includes the
//! epoch). A rejected observation (`accepted: false` with a `reason` such
//! as `in_band`, `pending` or `outlier`) never moves the epoch.
//!
//! Requests may be **pipelined**: clients can write many lines without
//! waiting; the server answers strictly in request order per connection.
//!
//! # Error codes
//!
//! `bad_json`, `bad_request`, `unknown_verb`, `invalid_model`,
//! `not_found`, `overloaded`, `deadline`, `frame_too_large`,
//! `shutting_down`, `solve_failed`, `internal`.
//!
//! # Limits
//!
//! Inputs are untrusted: frames are capped at [`MAX_FRAME_BYTES`] by the
//! server's line reader, clusters at [`MAX_MACHINES`] machines ×
//! [`MAX_KNOTS`] knots, `n` at [`MAX_N`] (2⁵³ — beyond that JSON
//! numbers stop being exact) and batches at [`MAX_BATCH`] sizes per
//! request. Knot coordinates must be finite.

use std::fmt::{self, Write as _};

use crate::json::{Json, JsonRef, JsonStr};
use fpm_core::planner::AlgorithmId;

/// Maximum accepted request line, in bytes (1 MiB).
pub const MAX_FRAME_BYTES: usize = 1 << 20;
/// Maximum machines per registered cluster.
pub const MAX_MACHINES: usize = 4096;
/// Maximum knots per machine model.
pub const MAX_KNOTS: usize = 4096;
/// Maximum problem size: 2⁵³, the largest integer JSON carries exactly.
pub const MAX_N: u64 = 1 << 53;
/// Maximum `ns` entries in one `partition_batch` request.
pub const MAX_BATCH: usize = 1024;

/// A protocol-level failure with a stable machine-readable code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Stable error code (see module docs).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    /// Creates an error.
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        Self { code, message: message.into() }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ProtoError {}

/// Parses a wire algorithm string through the planner registry
/// ([`AlgorithmId::parse`]): wire spellings *are* the canonical names
/// (plus registry aliases and `single@SIZE`). Unknown names come back as
/// `bad_request` with the full list of valid spellings in the message.
pub fn parse_algorithm(text: &str) -> Result<AlgorithmId, ProtoError> {
    AlgorithmId::parse(text).map_err(|e| ProtoError::new("bad_request", e.to_string()))
}

/// One machine of an inline cluster registration.
#[derive(Debug, Clone, PartialEq)]
pub struct WireModel {
    /// Machine name (diagnostics only).
    pub name: String,
    /// Knots of the piece-wise linear model: `(size, speed)` when
    /// [`cost`](Self::cost) is false, `(size, time)` when true.
    pub knots: Vec<(f64, f64)>,
    /// True when the knots came from the `cost_knots` wire field: the
    /// machine is described directly in the time domain (a
    /// [`fpm_core::cost::PiecewiseLinearCost`]) instead of by a speed
    /// function.
    pub cost: bool,
}

/// The cluster payload of a `register` request.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterSpec {
    /// Inline piece-wise linear models, one per machine.
    Inline(Vec<WireModel>),
    /// A simnet testbed reference, built server-side from noise-free
    /// simulated measurements (deterministic given the seed).
    Testbed {
        /// `table1` or `table2`.
        name: String,
        /// Application profile: `mm`, `mm-atlas`, `arrayops`, `lu`.
        app: String,
        /// Measurement RNG seed.
        seed: u64,
    },
}

/// How a `partition` request names its cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterRef {
    /// By registration name.
    Name(String),
    /// By content fingerprint (survives re-registration under new names).
    Fingerprint(String),
}

/// Borrowed counterpart of [`ClusterRef`]: the server's event loop routes
/// requests without copying the cluster name out of the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterRefView<'a> {
    /// By registration name.
    Name(&'a str),
    /// By content fingerprint.
    Fingerprint(&'a str),
}

impl ClusterRefView<'_> {
    /// Converts into the owned form (cold paths only).
    pub fn to_owned_ref(&self) -> ClusterRef {
        match self {
            ClusterRefView::Name(s) => ClusterRef::Name((*s).to_owned()),
            ClusterRefView::Fingerprint(s) => ClusterRef::Fingerprint((*s).to_owned()),
        }
    }
}

/// Borrowed view of a `partition` request. Produced by
/// [`parse_partition_ref`] on the server's hot path, where a warm cache
/// hit must not allocate beyond the response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionView<'a> {
    /// Which cluster.
    pub target: ClusterRefView<'a>,
    /// Problem size.
    pub n: u64,
    /// Algorithm selection (registry-canonical).
    pub algorithm: AlgorithmId,
    /// Per-request deadline override, milliseconds.
    pub deadline_ms: Option<u64>,
}

/// Borrowed view of a `partition_batch` request. The `ns` vector is the
/// only allocation — one per batch, not per element.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionBatchView<'a> {
    /// Which cluster (shared by every element).
    pub target: ClusterRefView<'a>,
    /// Problem sizes, one result element each, in order.
    pub ns: Vec<u64>,
    /// Algorithm selection (shared by every element).
    pub algorithm: AlgorithmId,
    /// Deadline covering the whole batch, milliseconds.
    pub deadline_ms: Option<u64>,
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register (or replace) a named cluster.
    Register {
        /// Registry name.
        cluster: String,
        /// The models.
        spec: ClusterSpec,
    },
    /// Partition `n` elements over a registered cluster.
    Partition {
        /// Which cluster.
        target: ClusterRef,
        /// Problem size.
        n: u64,
        /// Algorithm selection (registry-canonical).
        algorithm: AlgorithmId,
        /// Per-request deadline override, milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Partition many sizes over one registered cluster in a single
    /// round-trip, answering with an ordered `results` array.
    PartitionBatch {
        /// Which cluster (shared by every element).
        target: ClusterRef,
        /// Problem sizes, in reply order.
        ns: Vec<u64>,
        /// Algorithm selection (shared by every element).
        algorithm: AlgorithmId,
        /// Deadline covering the whole batch, milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Feed one observed execution time into a cluster's online refiner.
    Report {
        /// Which cluster (the `model` field is an accepted alias for
        /// `cluster`).
        target: ClusterRef,
        /// Index of the machine within the cluster's model order.
        machine: usize,
        /// Problem size the machine processed.
        x: f64,
        /// Measured wall time for that size, in microseconds.
        elapsed_us: f64,
    },
    /// Metrics snapshot.
    Stats,
    /// Liveness probe.
    Ping,
    /// Graceful drain-and-exit.
    Shutdown,
}

/// A parsed request envelope: the optional client-chosen `id` plus the
/// request proper.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Echoed verbatim in the response (number or string).
    pub id: Option<Json>,
    /// The request.
    pub request: Request,
}

/// Parses one request line.
///
/// On error the caller should still answer: the returned tuple carries
/// whatever `id` could be salvaged so the error response can be correlated.
pub fn parse_request(line: &str) -> Result<Envelope, (Option<Json>, ProtoError)> {
    let value = Json::parse_ref(line)
        .map_err(|e| (None, ProtoError::new("bad_json", e.to_string())))?;
    let id = match parse_id_ref(&value) {
        Ok(id) => id.map(JsonRef::to_json),
        Err(e) => return Err((None, e)),
    };
    match request_from_value(&value) {
        Ok(request) => Ok(Envelope { id, request }),
        Err(e) => Err((id, e)),
    }
}

/// Extracts the optional `id` field from a parsed request value without
/// copying it: the event loop only materialises an owned [`Json`] when a
/// response must be deferred past the frame's lifetime.
pub fn parse_id_ref<'a>(value: &'a JsonRef<'_>) -> Result<Option<&'a JsonRef<'a>>, ProtoError> {
    match value.get("id") {
        None | Some(JsonRef::Null) => Ok(None),
        Some(v @ (JsonRef::Num(_) | JsonRef::Str(_))) => Ok(Some(v)),
        Some(_) => Err(ProtoError::new("bad_request", "id must be a number or string")),
    }
}

/// Builds the owned [`Request`] from an already-parsed value tree (the
/// `id` is handled separately via [`parse_id_ref`]). The server's event
/// loop short-circuits `partition` through [`parse_partition_ref`]
/// instead and only falls back here for cold verbs.
pub fn request_from_value(value: &JsonRef<'_>) -> Result<Request, ProtoError> {
    if !matches!(value, JsonRef::Obj(_)) {
        return Err(ProtoError::new("bad_request", "request must be a JSON object"));
    }
    let verb = value
        .get("verb")
        .and_then(JsonRef::as_str)
        .ok_or_else(|| ProtoError::new("bad_request", "missing string field: verb"))?;
    match verb {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "register" => parse_register(value),
        "partition" => parse_partition_ref(value).map(|v| Request::Partition {
            target: v.target.to_owned_ref(),
            n: v.n,
            algorithm: v.algorithm,
            deadline_ms: v.deadline_ms,
        }),
        "partition_batch" => parse_partition_batch_ref(value).map(|v| Request::PartitionBatch {
            target: v.target.to_owned_ref(),
            ns: v.ns,
            algorithm: v.algorithm,
            deadline_ms: v.deadline_ms,
        }),
        "report" => parse_report(value),
        other => Err(ProtoError::new("unknown_verb", format!("unknown verb: {other:?}"))),
    }
}

fn parse_register(value: &JsonRef<'_>) -> Result<Request, ProtoError> {
    let cluster = value
        .get("cluster")
        .and_then(JsonRef::as_str)
        .ok_or_else(|| ProtoError::new("bad_request", "missing string field: cluster"))?;
    if cluster.is_empty() || cluster.len() > 256 {
        return Err(ProtoError::new("bad_request", "cluster name must be 1..=256 bytes"));
    }
    let spec = match (value.get("models"), value.get("testbed")) {
        (Some(models), None) => ClusterSpec::Inline(parse_models(models)?),
        (None, Some(tb)) => parse_testbed(tb)?,
        (Some(_), Some(_)) => {
            return Err(ProtoError::new(
                "bad_request",
                "register takes models or testbed, not both",
            ))
        }
        (None, None) => {
            return Err(ProtoError::new("bad_request", "register needs models or testbed"))
        }
    };
    Ok(Request::Register { cluster: cluster.to_owned(), spec })
}

fn parse_models(models: &JsonRef<'_>) -> Result<Vec<WireModel>, ProtoError> {
    let items = models
        .as_array()
        .ok_or_else(|| ProtoError::new("bad_request", "models must be an array"))?;
    if items.is_empty() {
        return Err(ProtoError::new("bad_request", "models must not be empty"));
    }
    if items.len() > MAX_MACHINES {
        return Err(ProtoError::new("bad_request", "too many machines"));
    }
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let name = item
            .get("name")
            .and_then(JsonRef::as_str)
            .map(str::to_owned)
            .unwrap_or_else(|| format!("m{i}"));
        if name.len() > 256 {
            return Err(ProtoError::new("bad_request", "machine name too long"));
        }
        let (knots_json, cost) = match (item.get("knots"), item.get("cost_knots")) {
            (Some(k), None) => (k, false),
            (None, Some(k)) => (k, true),
            (Some(_), Some(_)) => {
                return Err(ProtoError::new(
                    "bad_request",
                    "a model takes knots or cost_knots, not both",
                ))
            }
            (None, None) => {
                return Err(ProtoError::new(
                    "bad_request",
                    "each model needs a knots (or cost_knots) array",
                ))
            }
        };
        let knots_json = knots_json
            .as_array()
            .ok_or_else(|| ProtoError::new("bad_request", "each model needs a knots array"))?;
        if knots_json.len() < 2 {
            return Err(ProtoError::new("invalid_model", "each model needs ≥ 2 knots"));
        }
        if knots_json.len() > MAX_KNOTS {
            return Err(ProtoError::new("bad_request", "too many knots"));
        }
        let mut knots = Vec::with_capacity(knots_json.len());
        for k in knots_json {
            let pair = k.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                ProtoError::new(
                    "bad_request",
                    if cost { "knot must be [size, time]" } else { "knot must be [size, speed]" },
                )
            })?;
            let (x, s) = (pair[0].as_f64(), pair[1].as_f64());
            let (Some(x), Some(s)) = (x, s) else {
                return Err(ProtoError::new("bad_request", "knot coordinates must be numbers"));
            };
            // The JSON parser only yields finite numbers, but belt and
            // braces: the model layer must never see NaN.
            if !(x.is_finite() && s.is_finite()) {
                return Err(ProtoError::new("invalid_model", "knot coordinates must be finite"));
            }
            knots.push((x, s));
        }
        out.push(WireModel { name, knots, cost });
    }
    Ok(out)
}

fn parse_testbed(tb: &JsonRef<'_>) -> Result<ClusterSpec, ProtoError> {
    let name = tb
        .get("name")
        .and_then(JsonRef::as_str)
        .ok_or_else(|| ProtoError::new("bad_request", "testbed needs a name"))?;
    let app = tb.get("app").and_then(JsonRef::as_str).unwrap_or("mm");
    let seed = match tb.get("seed") {
        None => 0xF93,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| ProtoError::new("bad_request", "testbed seed must be a u64"))?,
    };
    Ok(ClusterSpec::Testbed { name: name.to_owned(), app: app.to_owned(), seed })
}

fn parse_report(value: &JsonRef<'_>) -> Result<Request, ProtoError> {
    // `model` is an alias for `cluster`: a report concerns one registered
    // model set.
    let target = parse_report_target_ref(value)?;
    let machine = value
        .get("machine")
        .and_then(JsonRef::as_u64)
        .ok_or_else(|| ProtoError::new("bad_request", "machine must be a non-negative integer"))?;
    if machine as usize >= MAX_MACHINES {
        return Err(ProtoError::new("bad_request", "machine index out of range"));
    }
    let x = value
        .get("x")
        .and_then(JsonRef::as_f64)
        .ok_or_else(|| ProtoError::new("bad_request", "x must be a number"))?;
    if !(x.is_finite() && x > 0.0) {
        return Err(ProtoError::new("bad_request", "x must be positive and finite"));
    }
    let elapsed_us = value
        .get("elapsed_us")
        .and_then(JsonRef::as_f64)
        .ok_or_else(|| ProtoError::new("bad_request", "elapsed_us must be a number"))?;
    if !(elapsed_us.is_finite() && elapsed_us > 0.0) {
        return Err(ProtoError::new("bad_request", "elapsed_us must be positive and finite"));
    }
    Ok(Request::Report {
        target: target.to_owned_ref(),
        machine: machine as usize,
        x,
        elapsed_us,
    })
}

/// Parses a `partition` request into a borrowed view: the target name
/// stays a slice into the frame, so warm cache hits never copy it.
pub fn parse_partition_ref<'a>(value: &'a JsonRef<'_>) -> Result<PartitionView<'a>, ProtoError> {
    let target = parse_target(value)?;
    let n = parse_n(value.get("n"))?;
    let algorithm = parse_algorithm_field(value)?;
    let deadline_ms = parse_deadline_field(value)?;
    Ok(PartitionView { target, n, algorithm, deadline_ms })
}

/// Parses a `partition_batch` request into a borrowed view.
pub fn parse_partition_batch_ref<'a>(
    value: &'a JsonRef<'_>,
) -> Result<PartitionBatchView<'a>, ProtoError> {
    let target = parse_target(value)?;
    let items = value
        .get("ns")
        .and_then(JsonRef::as_array)
        .ok_or_else(|| ProtoError::new("bad_request", "ns must be an array of sizes"))?;
    if items.is_empty() {
        return Err(ProtoError::new("bad_request", "ns must not be empty"));
    }
    if items.len() > MAX_BATCH {
        return Err(ProtoError::new(
            "bad_request",
            format!("batch exceeds {MAX_BATCH} sizes"),
        ));
    }
    let mut ns = Vec::with_capacity(items.len());
    for item in items {
        ns.push(parse_n(Some(item))?);
    }
    let algorithm = parse_algorithm_field(value)?;
    let deadline_ms = parse_deadline_field(value)?;
    Ok(PartitionBatchView { target, ns, algorithm, deadline_ms })
}

/// Extracts the cluster reference (`cluster` or `fingerprint`) from a
/// partition-shaped request without copying it. The router uses this to
/// derive the consistent-hash routing key before forwarding the raw frame.
pub fn parse_target_ref<'a>(value: &'a JsonRef<'_>) -> Result<ClusterRefView<'a>, ProtoError> {
    parse_target(value)
}

/// Extracts the cluster reference from a `report` request, honouring the
/// `model` alias exactly like the server's own parser (a router that
/// routed `model` differently from `cluster` would split replicas).
pub fn parse_report_target_ref<'a>(
    value: &'a JsonRef<'_>,
) -> Result<ClusterRefView<'a>, ProtoError> {
    match value.get("model").and_then(JsonRef::as_str) {
        Some(name) => {
            if value.get("cluster").is_some() || value.get("fingerprint").is_some() {
                return Err(ProtoError::new(
                    "bad_request",
                    "report takes model, cluster or fingerprint — pick one",
                ));
            }
            Ok(ClusterRefView::Name(name))
        }
        None => parse_target(value),
    }
}

fn parse_target<'a>(value: &'a JsonRef<'_>) -> Result<ClusterRefView<'a>, ProtoError> {
    match (
        value.get("cluster").and_then(JsonRef::as_str),
        value.get("fingerprint").and_then(JsonRef::as_str),
    ) {
        (Some(name), None) => Ok(ClusterRefView::Name(name)),
        (None, Some(fp)) => Ok(ClusterRefView::Fingerprint(fp)),
        (Some(_), Some(_)) => Err(ProtoError::new(
            "bad_request",
            "partition takes cluster or fingerprint, not both",
        )),
        (None, None) => Err(ProtoError::new(
            "bad_request",
            "partition needs a cluster name or fingerprint",
        )),
    }
}

fn parse_n(v: Option<&JsonRef<'_>>) -> Result<u64, ProtoError> {
    let n = v
        .and_then(JsonRef::as_u64)
        .ok_or_else(|| ProtoError::new("bad_request", "n must be a non-negative integer"))?;
    if n > MAX_N {
        return Err(ProtoError::new("bad_request", "n exceeds 2^53"));
    }
    Ok(n)
}

fn parse_algorithm_field(value: &JsonRef<'_>) -> Result<AlgorithmId, ProtoError> {
    match value.get("algorithm") {
        None => Ok(AlgorithmId::Combined),
        Some(a) => {
            let text = a
                .as_str()
                .ok_or_else(|| ProtoError::new("bad_request", "algorithm must be a string"))?;
            parse_algorithm(text)
        }
    }
}

fn parse_deadline_field(value: &JsonRef<'_>) -> Result<Option<u64>, ProtoError> {
    match value.get("deadline_ms") {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .filter(|&ms| ms > 0 && ms <= 3_600_000)
            .map(Some)
            .ok_or_else(|| ProtoError::new("bad_request", "deadline_ms must be in 1..=3600000")),
    }
}

/// Renders a success response line (no trailing newline).
pub fn ok_response(id: Option<&Json>, verb: &str, fields: Vec<(String, Json)>) -> String {
    let mut obj = Vec::with_capacity(fields.len() + 3);
    if let Some(id) = id {
        obj.push(("id".to_owned(), id.clone()));
    }
    obj.push(("ok".to_owned(), Json::Bool(true)));
    obj.push(("verb".to_owned(), Json::str(verb)));
    obj.extend(fields);
    Json::Obj(obj).to_string()
}

/// Renders an error response line (no trailing newline).
pub fn err_response(id: Option<&Json>, error: &ProtoError) -> String {
    let mut obj = Vec::with_capacity(4);
    if let Some(id) = id {
        obj.push(("id".to_owned(), id.clone()));
    }
    obj.push(("ok".to_owned(), Json::Bool(false)));
    obj.push(("error".to_owned(), Json::str(error.code)));
    obj.push(("message".to_owned(), Json::str(error.message.clone())));
    Json::Obj(obj).to_string()
}

// --- in-place rendering ---------------------------------------------------
//
// These write the exact byte sequences `ok_response` / `err_response`
// produce, directly into a reused buffer, so an event loop's warm path
// allocates nothing beyond growing that buffer. The tests below
// cross-check the two renderers.

/// A request `id` in the form the in-place renderers take.
pub fn display_id(id: Option<&Json>) -> Option<&dyn fmt::Display> {
    id.map(|v| v as &dyn fmt::Display)
}

fn render_id(out: &mut String, id: Option<&dyn fmt::Display>) {
    if let Some(id) = id {
        let _ = write!(out, "\"id\":{id},");
    }
}

/// Renders the head of a success response — `{"id":…,"ok":true,"verb":…`
/// — leaving the object open for verb-specific fields.
pub fn render_ok_head(out: &mut String, id: Option<&dyn fmt::Display>, verb: &str) {
    out.push('{');
    render_id(out, id);
    let _ = write!(out, "\"ok\":true,\"verb\":{}", JsonStr(verb));
}

/// Renders a complete error response (no trailing newline).
pub fn render_err(out: &mut String, id: Option<&dyn fmt::Display>, error: &ProtoError) {
    out.push('{');
    render_id(out, id);
    let _ = write!(
        out,
        "\"ok\":false,\"error\":{},\"message\":{}}}",
        JsonStr(error.code),
        JsonStr(&error.message)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_ping_stats_shutdown() {
        for (line, want) in [
            (r#"{"verb":"ping"}"#, Request::Ping),
            (r#"{"verb":"stats"}"#, Request::Stats),
            (r#"{"verb":"shutdown"}"#, Request::Shutdown),
        ] {
            let env = parse_request(line).unwrap();
            assert_eq!(env.request, want);
            assert_eq!(env.id, None);
        }
    }

    #[test]
    fn echoes_ids() {
        let env = parse_request(r#"{"id":7,"verb":"ping"}"#).unwrap();
        assert_eq!(env.id, Some(Json::Num(7.0)));
        let env = parse_request(r#"{"id":"abc","verb":"ping"}"#).unwrap();
        assert_eq!(env.id, Some(Json::Str("abc".into())));
        // Error paths keep the id for correlation.
        let (id, e) = parse_request(r#"{"id":9,"verb":"nope"}"#).unwrap_err();
        assert_eq!(id, Some(Json::Num(9.0)));
        assert_eq!(e.code, "unknown_verb");
    }

    #[test]
    fn parses_inline_register() {
        let line = r#"{"verb":"register","cluster":"c1","models":[
            {"name":"X1","knots":[[1000,200],[1e6,180],[1e8,0]]},
            {"knots":[[1000,100],[1e6,90]]}]}"#;
        let env = parse_request(&line.replace('\n', " ")).unwrap();
        let Request::Register { cluster, spec: ClusterSpec::Inline(models) } = env.request
        else {
            panic!("wrong variant");
        };
        assert_eq!(cluster, "c1");
        assert_eq!(models.len(), 2);
        assert_eq!(models[0].name, "X1");
        assert_eq!(models[0].knots[1], (1e6, 180.0));
        assert!(!models[0].cost);
        assert_eq!(models[1].name, "m1");
    }

    #[test]
    fn parses_cost_knot_register() {
        let line = r#"{"verb":"register","cluster":"sorted","models":[
            {"name":"S1","cost_knots":[[1000,0.5],[1e6,900]]},
            {"knots":[[1000,100],[1e6,90]]}]}"#;
        let env = parse_request(&line.replace('\n', " ")).unwrap();
        let Request::Register { spec: ClusterSpec::Inline(models), .. } = env.request else {
            panic!("wrong variant");
        };
        assert!(models[0].cost, "cost_knots marks the machine as a cost model");
        assert_eq!(models[0].knots, [(1000.0, 0.5), (1e6, 900.0)]);
        assert!(!models[1].cost, "speed machines mix freely in the same cluster");
        // A machine cannot carry both spellings, or neither.
        let (_, e) = parse_request(
            r#"{"verb":"register","cluster":"c","models":[{"knots":[[1,1],[2,2]],"cost_knots":[[1,1],[2,2]]}]}"#,
        )
        .unwrap_err();
        assert_eq!(e.code, "bad_request");
        assert!(e.message.contains("not both"), "{}", e.message);
        let (_, e) = parse_request(
            r#"{"verb":"register","cluster":"c","models":[{"name":"x"}]}"#,
        )
        .unwrap_err();
        assert_eq!(e.code, "bad_request");
    }

    #[test]
    fn parses_testbed_register() {
        let env = parse_request(
            r#"{"verb":"register","cluster":"t2","testbed":{"name":"table2","app":"lu","seed":9}}"#,
        )
        .unwrap();
        let Request::Register { cluster, spec } = env.request else { panic!() };
        assert_eq!(cluster, "t2");
        assert_eq!(
            spec,
            ClusterSpec::Testbed { name: "table2".into(), app: "lu".into(), seed: 9 }
        );
    }

    #[test]
    fn parses_partition_with_defaults() {
        let env =
            parse_request(r#"{"verb":"partition","cluster":"c1","n":1000000}"#).unwrap();
        assert_eq!(
            env.request,
            Request::Partition {
                target: ClusterRef::Name("c1".into()),
                n: 1_000_000,
                algorithm: AlgorithmId::Combined,
                deadline_ms: None,
            }
        );
    }

    #[test]
    fn parses_partition_by_fingerprint_and_algorithm() {
        let env = parse_request(
            r#"{"verb":"partition","fingerprint":"ab12","n":5,"algorithm":"single@7e5","deadline_ms":250}"#,
        )
        .unwrap();
        let Request::Partition { target, algorithm, deadline_ms, .. } = env.request else {
            panic!()
        };
        assert_eq!(target, ClusterRef::Fingerprint("ab12".into()));
        assert_eq!(algorithm, AlgorithmId::SingleAt(7e5));
        assert_eq!(deadline_ms, Some(250));
    }

    #[test]
    fn parses_partition_batch() {
        let env = parse_request(
            r#"{"verb":"partition_batch","cluster":"c1","ns":[10,20,30],"algorithm":"basic"}"#,
        )
        .unwrap();
        assert_eq!(
            env.request,
            Request::PartitionBatch {
                target: ClusterRef::Name("c1".into()),
                ns: vec![10, 20, 30],
                algorithm: AlgorithmId::Basic,
                deadline_ms: None,
            }
        );
    }

    #[test]
    fn rejects_malformed_batches() {
        let cases: &[(&str, &str)] = &[
            (r#"{"verb":"partition_batch","cluster":"c"}"#, "bad_request"),
            (r#"{"verb":"partition_batch","cluster":"c","ns":7}"#, "bad_request"),
            (r#"{"verb":"partition_batch","cluster":"c","ns":[]}"#, "bad_request"),
            (r#"{"verb":"partition_batch","cluster":"c","ns":[1,-2]}"#, "bad_request"),
            (r#"{"verb":"partition_batch","cluster":"c","ns":[1,2.5]}"#, "bad_request"),
        ];
        for (line, code) in cases {
            let (_, e) = parse_request(line).unwrap_err();
            assert_eq!(&e.code, code, "{line}");
        }
        // One over the batch cap.
        let ns: Vec<String> = (0..=MAX_BATCH).map(|i| i.to_string()).collect();
        let line =
            format!(r#"{{"verb":"partition_batch","cluster":"c","ns":[{}]}}"#, ns.join(","));
        let (_, e) = parse_request(&line).unwrap_err();
        assert_eq!(e.code, "bad_request");
        assert!(e.message.contains("batch"), "{}", e.message);
    }

    #[test]
    fn borrowed_views_match_owned_requests() {
        let line = r#"{"id":3,"verb":"partition","cluster":"west","n":4096,"deadline_ms":100}"#;
        let value = Json::parse_ref(line).unwrap();
        let id = parse_id_ref(&value).unwrap().map(JsonRef::to_json);
        assert_eq!(id, Some(Json::Num(3.0)));
        let view = parse_partition_ref(&value).unwrap();
        assert_eq!(view.target, ClusterRefView::Name("west"));
        assert_eq!(view.n, 4096);
        assert_eq!(view.deadline_ms, Some(100));
        let env = parse_request(line).unwrap();
        let Request::Partition { target, n, algorithm, deadline_ms } = env.request else {
            panic!()
        };
        assert_eq!(target, view.target.to_owned_ref());
        assert_eq!((n, algorithm, deadline_ms), (view.n, view.algorithm, view.deadline_ms));
    }

    #[test]
    fn parses_report_with_model_alias() {
        let env = parse_request(
            r#"{"verb":"report","model":"c1","machine":2,"x":50000,"elapsed_us":260.5}"#,
        )
        .unwrap();
        assert_eq!(
            env.request,
            Request::Report {
                target: ClusterRef::Name("c1".into()),
                machine: 2,
                x: 50_000.0,
                elapsed_us: 260.5,
            }
        );
        // `cluster` and `fingerprint` spellings work too.
        let env = parse_request(
            r#"{"verb":"report","cluster":"c1","machine":0,"x":1,"elapsed_us":1}"#,
        )
        .unwrap();
        assert!(matches!(env.request, Request::Report { target: ClusterRef::Name(_), .. }));
        let env = parse_request(
            r#"{"verb":"report","fingerprint":"ab12","machine":0,"x":1,"elapsed_us":1}"#,
        )
        .unwrap();
        assert!(matches!(env.request, Request::Report { target: ClusterRef::Fingerprint(_), .. }));
    }

    #[test]
    fn rejects_malformed_reports_with_stable_codes() {
        let cases: &[(&str, &str)] = &[
            // No target at all, or two competing spellings.
            (r#"{"verb":"report","machine":0,"x":1,"elapsed_us":1}"#, "bad_request"),
            (
                r#"{"verb":"report","model":"a","cluster":"b","machine":0,"x":1,"elapsed_us":1}"#,
                "bad_request",
            ),
            // Malformed machine index.
            (r#"{"verb":"report","model":"c","x":1,"elapsed_us":1}"#, "bad_request"),
            (r#"{"verb":"report","model":"c","machine":-1,"x":1,"elapsed_us":1}"#, "bad_request"),
            (r#"{"verb":"report","model":"c","machine":1.5,"x":1,"elapsed_us":1}"#, "bad_request"),
            (r#"{"verb":"report","model":"c","machine":9999,"x":1,"elapsed_us":1}"#, "bad_request"),
            // Malformed x.
            (r#"{"verb":"report","model":"c","machine":0,"elapsed_us":1}"#, "bad_request"),
            (r#"{"verb":"report","model":"c","machine":0,"x":0,"elapsed_us":1}"#, "bad_request"),
            (r#"{"verb":"report","model":"c","machine":0,"x":-5,"elapsed_us":1}"#, "bad_request"),
            // Malformed elapsed: missing, zero, negative, non-numeric.
            (r#"{"verb":"report","model":"c","machine":0,"x":1}"#, "bad_request"),
            (r#"{"verb":"report","model":"c","machine":0,"x":1,"elapsed_us":0}"#, "bad_request"),
            (r#"{"verb":"report","model":"c","machine":0,"x":1,"elapsed_us":-3}"#, "bad_request"),
            (
                r#"{"verb":"report","model":"c","machine":0,"x":1,"elapsed_us":"fast"}"#,
                "bad_request",
            ),
            // NaN / Infinity are not JSON: the parser rejects the frame.
            (r#"{"verb":"report","model":"c","machine":0,"x":1,"elapsed_us":NaN}"#, "bad_json"),
            (
                r#"{"verb":"report","model":"c","machine":0,"x":1,"elapsed_us":Infinity}"#,
                "bad_json",
            ),
            // Numeric overflow to ∞ is rejected by the number grammar too.
            (r#"{"verb":"report","model":"c","machine":0,"x":1,"elapsed_us":1e999}"#, "bad_json"),
        ];
        for (line, code) in cases {
            let (_, e) = parse_request(line).unwrap_err();
            assert_eq!(&e.code, code, "{line}");
        }
    }

    #[test]
    fn rejects_malformed_requests_with_stable_codes() {
        let cases: &[(&str, &str)] = &[
            ("not json at all", "bad_json"),
            ("[1,2,3]", "bad_request"),
            (r#"{"verb":"warp"}"#, "unknown_verb"),
            (r#"{"verb":"partition","n":5}"#, "bad_request"),
            (r#"{"verb":"partition","cluster":"c","n":-1}"#, "bad_request"),
            (r#"{"verb":"partition","cluster":"c","n":1.5}"#, "bad_request"),
            (r#"{"verb":"partition","cluster":"c","n":1e300}"#, "bad_request"),
            (r#"{"verb":"partition","cluster":"c","n":1,"algorithm":"magic"}"#, "bad_request"),
            (r#"{"verb":"register","cluster":"c"}"#, "bad_request"),
            (r#"{"verb":"register","cluster":"c","models":[]}"#, "bad_request"),
            (
                r#"{"verb":"register","cluster":"c","models":[{"knots":[[1,1]]}]}"#,
                "invalid_model",
            ),
            (r#"{"verb":"register","cluster":"c","models":[{"knots":[[1],[2]]}]}"#, "bad_request"),
        ];
        for (line, code) in cases {
            let (_, e) = parse_request(line).unwrap_err();
            assert_eq!(&e.code, code, "{line}");
        }
    }

    #[test]
    fn n_minus_one_is_bad_json_because_grammar() {
        // Negative n parses as JSON but fails the u64 check; "-1" is valid
        // JSON so this must come back bad_request, not bad_json.
        let (_, e) =
            parse_request(r#"{"verb":"partition","cluster":"c","n":-1.0}"#).unwrap_err();
        assert_eq!(e.code, "bad_request");
    }

    #[test]
    fn algorithm_round_trips() {
        // Every registry entry's example spelling round-trips over the
        // wire, as does the parameterized baseline at an awkward size.
        for info in fpm_core::planner::registry() {
            let a = parse_algorithm(info.example).unwrap();
            assert_eq!(a.to_string(), info.example);
        }
        let a = parse_algorithm("single@123456.5").unwrap();
        assert_eq!(a.to_string(), "single@123456.5");
        assert_ne!(
            AlgorithmId::SingleAt(1.0).key_tag(),
            AlgorithmId::SingleAt(2.0).key_tag()
        );
        assert_ne!(AlgorithmId::Combined.key_tag(), AlgorithmId::Basic.key_tag());
    }

    #[test]
    fn unknown_algorithm_error_lists_valid_names() {
        let e = parse_algorithm("magic").unwrap_err();
        assert_eq!(e.code, "bad_request");
        for info in fpm_core::planner::registry() {
            assert!(e.message.contains(info.name), "{}: {}", info.name, e.message);
        }
    }

    #[test]
    fn responses_render_ids_and_codes() {
        let id = Json::Num(3.0);
        let ok = ok_response(Some(&id), "ping", vec![("pong".into(), Json::Bool(true))]);
        assert_eq!(ok, r#"{"id":3,"ok":true,"verb":"ping","pong":true}"#);
        let err = err_response(None, &ProtoError::new("overloaded", "queue full"));
        assert_eq!(err, r#"{"ok":false,"error":"overloaded","message":"queue full"}"#);
    }

    #[test]
    fn in_place_renderers_match_the_value_renderers() {
        let error = ProtoError::new("bad_json", "unexpected \"}\" at 3\n\u{1}");
        for id in [None, Some(Json::Num(3.0)), Some(Json::Num(-0.5)), Some(Json::str("a\"b\\c"))] {
            let mut out = String::new();
            render_err(&mut out, display_id(id.as_ref()), &error);
            assert_eq!(out, err_response(id.as_ref(), &error));
            out.clear();
            render_ok_head(&mut out, display_id(id.as_ref()), "ping");
            out.push_str(",\"pong\":true}");
            let fields = vec![("pong".to_owned(), Json::Bool(true))];
            assert_eq!(out, ok_response(id.as_ref(), "ping", fields));
        }
    }
}
