//! Protocol fuzzing for the serving layer: seeded malformed inputs must
//! produce clean structured errors — never a panic, never a hung
//! connection, never an unparsable response.
//!
//! Two layers are attacked:
//!
//! * the request parser in isolation (pure function, checked under
//!   [`assert_no_panic`]);
//! * a live server, over real sockets, with the same corpus plus framing
//!   attacks (oversized lines, binary garbage, truncation mid-request);
//!   the re-segmented pipelined bursts also go through a router in front
//!   of two shards.
//!
//! The `report` verb gets its own corpus on top: non-finite / negative /
//! zero measurements, out-of-range machine indices and unregistered
//! models must come back as structured errors, and — the differential
//! invariant — the cluster epoch after the whole corpus must equal the
//! number of reports the server *accepted*: a rejected report never moves
//! the epoch, so never invalidates a cached plan.
//!
//! Corpus size scales with `FPM_TESTKIT_CASES`; all mutations derive from
//! `FPM_TESTKIT_SEED` so failures replay exactly.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use fpm_router::RouterConfig;
use fpm_serve::json::Json;
use fpm_serve::protocol::parse_request;
use fpm_serve::server::{spawn, ServerConfig, ServerHandle};
use fpm_testkit::conformance::{env_base_seed, env_cases};
use fpm_testkit::fault::assert_no_panic;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Hand-written adversarial lines covering every parse branch.
const STATIC_CORPUS: &[&str] = &[
    "",
    " ",
    "\t",
    "null",
    "true",
    "42",
    "\"just a string\"",
    "[1,2,3]",
    "{}",
    "{",
    "}",
    "{\"verb\":}",
    "{\"verb\":\"ping\"",
    "{\"verb\":\"ping\"}trailing",
    "{\"verb\":\"warp\"}",
    "{\"verb\":42}",
    "{\"verb\":\"partition\"}",
    "{\"verb\":\"partition\",\"cluster\":\"c\"}",
    "{\"verb\":\"partition\",\"cluster\":\"c\",\"n\":NaN}",
    "{\"verb\":\"partition\",\"cluster\":\"c\",\"n\":Infinity}",
    "{\"verb\":\"partition\",\"cluster\":\"c\",\"n\":-5}",
    "{\"verb\":\"partition\",\"cluster\":\"c\",\"n\":1.25}",
    "{\"verb\":\"partition\",\"cluster\":\"c\",\"n\":1e999}",
    "{\"verb\":\"partition\",\"cluster\":\"c\",\"n\":9007199254740993}",
    "{\"verb\":\"partition\",\"cluster\":\"c\",\"n\":10,\"algorithm\":\"single@\"}",
    "{\"verb\":\"partition\",\"cluster\":\"c\",\"n\":10,\"algorithm\":\"single@-1\"}",
    "{\"verb\":\"partition\",\"cluster\":\"c\",\"n\":10,\"algorithm\":\"single@nan\"}",
    "{\"verb\":\"partition\",\"cluster\":\"c\",\"n\":10,\"deadline_ms\":0}",
    "{\"verb\":\"partition\",\"cluster\":\"c\",\"fingerprint\":\"ff\",\"n\":10}",
    "{\"verb\":\"register\"}",
    "{\"verb\":\"register\",\"cluster\":\"\"}",
    "{\"verb\":\"register\",\"cluster\":\"c\",\"models\":{}}",
    "{\"verb\":\"register\",\"cluster\":\"c\",\"models\":[]}",
    "{\"verb\":\"register\",\"cluster\":\"c\",\"models\":[{}]}",
    "{\"verb\":\"register\",\"cluster\":\"c\",\"models\":[{\"knots\":[]}]}",
    "{\"verb\":\"register\",\"cluster\":\"c\",\"models\":[{\"knots\":[[1,2],[3]]}]}",
    "{\"verb\":\"register\",\"cluster\":\"c\",\"models\":[{\"knots\":[[1,\"x\"],[2,3]]}]}",
    "{\"verb\":\"register\",\"cluster\":\"c\",\"models\":[{\"knots\":[[1e6,9],[1e3,20]]}]}",
    "{\"verb\":\"register\",\"cluster\":\"c\",\"testbed\":{}}",
    "{\"verb\":\"register\",\"cluster\":\"c\",\"testbed\":{\"name\":\"table9\"}}",
    "{\"verb\":\"register\",\"cluster\":\"c\",\"testbed\":{\"name\":\"table1\",\"seed\":-1}}",
    "{\"verb\":\"register\",\"cluster\":\"c\",\"models\":[],\"testbed\":{\"name\":\"table1\"}}",
    "{\"verb\":\"partition_batch\"}",
    "{\"verb\":\"partition_batch\",\"cluster\":\"c\"}",
    "{\"verb\":\"partition_batch\",\"cluster\":\"c\",\"ns\":[]}",
    "{\"verb\":\"partition_batch\",\"cluster\":\"c\",\"ns\":7}",
    "{\"verb\":\"partition_batch\",\"cluster\":\"c\",\"ns\":[-1]}",
    "{\"verb\":\"partition_batch\",\"cluster\":\"c\",\"ns\":[1.5]}",
    "{\"verb\":\"partition_batch\",\"cluster\":\"c\",\"ns\":[10,null]}",
    "{\"verb\":\"partition_batch\",\"cluster\":\"c\",\"ns\":[10],\"algorithm\":\"warp\"}",
    "{\"verb\":\"report\"}",
    "{\"verb\":\"report\",\"model\":\"ghost\",\"machine\":0,\"x\":1,\"elapsed_us\":1}",
    "{\"verb\":\"report\",\"model\":\"c\",\"machine\":0,\"x\":1,\"elapsed_us\":NaN}",
    "{\"verb\":\"report\",\"model\":\"c\",\"machine\":0,\"x\":1,\"elapsed_us\":-7}",
    "{\"id\":{},\"verb\":\"ping\"}",
    "{\"id\":[1],\"verb\":\"ping\"}",
    "{\"verb\":\"ping\",\"id\":null}",
    "\u{0}\u{1}\u{2}",
    "\"\\ud800\"",
    "{\"verb\":\"ping\"} {\"verb\":\"ping\"}",
];

/// Seeded mutation of a valid request: random truncation, byte flips, or
/// splicing of adversarial tokens.
fn mutate(rng: &mut ChaCha8Rng) -> String {
    let valid = [
        r#"{"verb":"ping"}"#,
        r#"{"verb":"stats"}"#,
        r#"{"id":7,"verb":"partition","cluster":"c","n":100000,"algorithm":"combined"}"#,
        r#"{"verb":"register","cluster":"c","models":[{"name":"A","knots":[[1000,200],[1000000,180]]}]}"#,
    ];
    let base = valid[rng.gen_range(0usize..valid.len())];
    let mut bytes = base.as_bytes().to_vec();
    match rng.gen_range(0u8..4) {
        0 => {
            // Truncate at a random point.
            let cut = rng.gen_range(0usize..bytes.len());
            bytes.truncate(cut);
        }
        1 => {
            // Flip a few bytes to printable garbage.
            for _ in 0..rng.gen_range(1usize..5) {
                let i = rng.gen_range(0usize..bytes.len());
                bytes[i] = 33 + (rng.next_u64() % 90) as u8;
            }
        }
        2 => {
            // Splice an adversarial token mid-string.
            let tokens = ["NaN", "1e99999", "\\udfff", "}{", ",,,", "\"\""];
            let token = tokens[rng.gen_range(0usize..tokens.len())];
            let i = rng.gen_range(0usize..bytes.len());
            bytes.splice(i..i, token.bytes());
        }
        _ => {
            // Deep-nest to probe the depth limit.
            let depth = rng.gen_range(1usize..80);
            let mut s = String::new();
            for _ in 0..depth {
                s.push_str("{\"a\":");
            }
            s.push('1');
            for _ in 0..depth {
                s.push('}');
            }
            return s;
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn parser_never_panics_on_malformed_input() {
    let cases = env_cases(500);
    let mut rng = ChaCha8Rng::seed_from_u64(env_base_seed(0xF0_55ED));
    let mut corpus: Vec<String> = STATIC_CORPUS.iter().map(|s| s.to_string()).collect();
    for _ in 0..cases {
        corpus.push(mutate(&mut rng));
    }
    for line in &corpus {
        let outcome = assert_no_panic(|| parse_request(line));
        let result = outcome.unwrap_or_else(|panic| {
            panic!("parser panicked on {line:?}: {panic}")
        });
        // Whatever happened, the error (if any) must carry a stable code.
        if let Err((_, e)) = result {
            assert!(!e.code.is_empty(), "{line:?}");
            assert!(!e.message.is_empty(), "{line:?}");
        }
    }
}

#[test]
fn live_server_answers_every_malformed_line_with_structured_errors() {
    let cases = env_cases(200);
    let mut rng = ChaCha8Rng::seed_from_u64(env_base_seed(0xF0_55ED) ^ 0xBEEF);
    let handle = spawn(ServerConfig::default()).expect("spawn server");

    let mut corpus: Vec<String> = STATIC_CORPUS.iter().map(|s| s.to_string()).collect();
    for _ in 0..cases {
        corpus.push(mutate(&mut rng));
    }

    for line in &corpus {
        // Lines containing newlines/controls change framing; send them raw
        // on a fresh connection so each probe is independent.
        let stream = TcpStream::connect(handle.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut writer = stream.try_clone().expect("clone");
        writer.write_all(line.as_bytes()).expect("send");
        writer.write_all(b"\n").expect("send newline");
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        // Empty / whitespace-only lines legitimately get no reply; close
        // and move on. Everything else must answer with parsable JSON.
        if line.trim_matches(|c: char| c.is_whitespace() || c == '\u{0}').is_empty() {
            continue;
        }
        reader.read_line(&mut reply).expect("read reply");
        if reply.is_empty() {
            // Connection closed without a reply is only legal for pure
            // control-byte lines that trim to nothing after lossy decode.
            let trimmed: String =
                line.chars().filter(|c| !c.is_control() && !c.is_whitespace()).collect();
            assert!(trimmed.is_empty(), "no reply for {line:?}");
            continue;
        }
        let v = Json::parse(&reply)
            .unwrap_or_else(|e| panic!("unparsable reply {reply:?} for {line:?}: {e}"));
        // Every reply is a protocol object: ok=true for the lines that
        // mutated into valid requests, otherwise a coded error.
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => {}
            Some(false) => {
                let code = v.get("error").and_then(Json::as_str).unwrap_or("");
                assert!(!code.is_empty(), "error reply without code for {line:?}");
            }
            None => panic!("reply without ok field for {line:?}: {reply:?}"),
        }
    }

    // The server survived the whole corpus: it must still serve cleanly.
    let mut client =
        fpm_serve::client::Client::connect(handle.addr, Duration::from_secs(10)).expect("connect");
    client.ping().expect("server still alive after fuzzing");
    let stats = handle.shutdown_and_join();
    assert!(stats.get("errors").and_then(Json::as_u64).unwrap_or(0) > 0);
}

/// Every malformed-report shape the protocol documents: non-finite and
/// non-positive measurements, bad machine indices, competing or missing
/// targets, unregistered models. The live cluster is named `obs` and has
/// two machines, so `machine: 2` is in-protocol but out of range.
const REPORT_CORPUS: &[&str] = &[
    "{\"verb\":\"report\"}",
    "{\"verb\":\"report\",\"model\":\"obs\"}",
    "{\"verb\":\"report\",\"model\":\"obs\",\"cluster\":\"obs\",\"machine\":0,\"x\":1,\"elapsed_us\":1}",
    "{\"verb\":\"report\",\"machine\":0,\"x\":1,\"elapsed_us\":1}",
    // Malformed machine index: missing, negative, fractional, non-numeric,
    // beyond the protocol cap, and past this cluster's two machines.
    "{\"verb\":\"report\",\"model\":\"obs\",\"x\":1,\"elapsed_us\":1}",
    "{\"verb\":\"report\",\"model\":\"obs\",\"machine\":-1,\"x\":1,\"elapsed_us\":1}",
    "{\"verb\":\"report\",\"model\":\"obs\",\"machine\":0.5,\"x\":1,\"elapsed_us\":1}",
    "{\"verb\":\"report\",\"model\":\"obs\",\"machine\":\"0\",\"x\":1,\"elapsed_us\":1}",
    "{\"verb\":\"report\",\"model\":\"obs\",\"machine\":99999,\"x\":1,\"elapsed_us\":1}",
    "{\"verb\":\"report\",\"model\":\"obs\",\"machine\":2,\"x\":1,\"elapsed_us\":1}",
    // Malformed x.
    "{\"verb\":\"report\",\"model\":\"obs\",\"machine\":0,\"elapsed_us\":1}",
    "{\"verb\":\"report\",\"model\":\"obs\",\"machine\":0,\"x\":0,\"elapsed_us\":1}",
    "{\"verb\":\"report\",\"model\":\"obs\",\"machine\":0,\"x\":-5,\"elapsed_us\":1}",
    "{\"verb\":\"report\",\"model\":\"obs\",\"machine\":0,\"x\":NaN,\"elapsed_us\":1}",
    "{\"verb\":\"report\",\"model\":\"obs\",\"machine\":0,\"x\":1e999,\"elapsed_us\":1}",
    // Malformed elapsed_us: missing, zero, negative, non-numeric,
    // non-finite (NaN / Infinity are not JSON — the frame itself dies).
    "{\"verb\":\"report\",\"model\":\"obs\",\"machine\":0,\"x\":1}",
    "{\"verb\":\"report\",\"model\":\"obs\",\"machine\":0,\"x\":1,\"elapsed_us\":0}",
    "{\"verb\":\"report\",\"model\":\"obs\",\"machine\":0,\"x\":1,\"elapsed_us\":-3}",
    "{\"verb\":\"report\",\"model\":\"obs\",\"machine\":0,\"x\":1,\"elapsed_us\":\"fast\"}",
    "{\"verb\":\"report\",\"model\":\"obs\",\"machine\":0,\"x\":1,\"elapsed_us\":NaN}",
    "{\"verb\":\"report\",\"model\":\"obs\",\"machine\":0,\"x\":1,\"elapsed_us\":Infinity}",
    "{\"verb\":\"report\",\"model\":\"obs\",\"machine\":0,\"x\":1,\"elapsed_us\":-Infinity}",
    "{\"verb\":\"report\",\"model\":\"obs\",\"machine\":0,\"x\":1,\"elapsed_us\":1e999}",
    // Observed speed overflows f64 even though both inputs are finite.
    "{\"verb\":\"report\",\"model\":\"obs\",\"machine\":0,\"x\":1e300,\"elapsed_us\":1e-300}",
    // Unregistered targets.
    "{\"verb\":\"report\",\"model\":\"ghost\",\"machine\":0,\"x\":1,\"elapsed_us\":1}",
    "{\"verb\":\"report\",\"cluster\":\"ghost\",\"machine\":0,\"x\":1,\"elapsed_us\":1}",
    "{\"verb\":\"report\",\"fingerprint\":\"00DEAD00BEEF0000\",\"machine\":0,\"x\":1,\"elapsed_us\":1}",
];

/// Seeded mutation of a *valid* report line: the same truncation / flip /
/// splice moves as [`mutate`], so some mutants stay valid reports (and a
/// repeated pair may even corroborate into an accepted refit — the test
/// counts those instead of forbidding them).
fn mutate_report(rng: &mut ChaCha8Rng) -> String {
    let valid = [
        r#"{"verb":"report","model":"obs","machine":0,"x":50000,"elapsed_us":260.5}"#,
        r#"{"verb":"report","model":"obs","machine":1,"x":2000,"elapsed_us":19.5}"#,
        r#"{"verb":"report","fingerprint":"obs","machine":0,"x":1,"elapsed_us":1}"#,
    ];
    let base = valid[rng.gen_range(0usize..valid.len())];
    let mut bytes = base.as_bytes().to_vec();
    match rng.gen_range(0u8..3) {
        0 => {
            let cut = rng.gen_range(0usize..bytes.len());
            bytes.truncate(cut);
        }
        1 => {
            for _ in 0..rng.gen_range(1usize..4) {
                let i = rng.gen_range(0usize..bytes.len());
                bytes[i] = 33 + (rng.next_u64() % 90) as u8;
            }
        }
        _ => {
            let tokens = ["NaN", "-", "e308", "\"\"", "}{"];
            let token = tokens[rng.gen_range(0usize..tokens.len())];
            let i = rng.gen_range(0usize..bytes.len());
            bytes.splice(i..i, token.bytes());
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Reads one cluster's refinement epoch off a raw `stats` round-trip (the
/// typed client intentionally exposes only the counter snapshot).
fn cluster_epoch(addr: std::net::SocketAddr, name: &str) -> u64 {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    writer.write_all(b"{\"verb\":\"stats\"}\n").expect("send stats");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("read stats");
    let v = Json::parse(&reply).expect("parse stats reply");
    v.get("clusters")
        .and_then(Json::as_array)
        .and_then(|cs| cs.iter().find(|c| c.get("name").and_then(Json::as_str) == Some(name)))
        .and_then(|c| c.get("epoch").and_then(Json::as_u64))
        .unwrap_or_else(|| panic!("no epoch for cluster {name:?} in {reply:?}"))
}

#[test]
fn malformed_reports_error_cleanly_and_never_move_the_epoch() {
    let cases = env_cases(300);
    let mut rng = ChaCha8Rng::seed_from_u64(env_base_seed(0xF0_55ED) ^ 0x5E07);
    let mut corpus: Vec<String> = REPORT_CORPUS.iter().map(|s| s.to_string()).collect();
    for _ in 0..cases {
        corpus.push(mutate_report(&mut rng));
    }

    // Layer one: the parser survives every line and codes every error.
    for line in &corpus {
        let outcome = assert_no_panic(|| parse_request(line));
        let result =
            outcome.unwrap_or_else(|panic| panic!("parser panicked on {line:?}: {panic}"));
        if let Err((_, e)) = result {
            assert!(!e.code.is_empty(), "{line:?}");
            assert!(!e.message.is_empty(), "{line:?}");
        }
    }

    // Layer two: a live server with a real two-machine cluster.
    let handle = spawn(ServerConfig::default()).expect("spawn server");
    let mut client =
        fpm_serve::client::Client::connect(handle.addr, Duration::from_secs(10)).expect("connect");
    client
        .register_inline(
            "obs",
            &[
                ("A".into(), vec![(1e3, 200.0), (1e6, 180.0), (1e9, 0.0)]),
                ("B".into(), vec![(1e3, 100.0), (1e6, 90.0), (1e9, 0.0)]),
            ],
        )
        .expect("register");
    // One guaranteed refiner-level rejection before the corpus: an
    // observation sitting exactly on a knot is in-band by construction.
    let inband = client.report("obs", 0, 1e3, 1e3 / 200.0 * 1e6).expect("in-band report");
    assert!(!inband.accepted, "exact-knot observation must be in-band");
    assert_eq!(inband.epoch, 0, "an in-band report must not move the epoch");
    drop(client);
    assert_eq!(cluster_epoch(handle.addr, "obs"), 0, "fresh cluster starts at epoch 0");

    // Some seeded mutants remain valid reports, and a repeated pair can
    // legitimately corroborate into an accepted refit. Count acceptances:
    // the differential invariant is epoch == accepted reports, i.e. a
    // rejected or malformed report NEVER moves the epoch.
    let mut accepted = 0u64;
    for line in &corpus {
        let stream = TcpStream::connect(handle.addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let mut writer = stream.try_clone().expect("clone");
        writer.write_all(line.as_bytes()).expect("send");
        writer.write_all(b"\n").expect("send newline");
        if line.trim_matches(|c: char| c.is_whitespace() || c == '\u{0}').is_empty() {
            continue;
        }
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).expect("read reply");
        if reply.is_empty() {
            let trimmed: String =
                line.chars().filter(|c| !c.is_control() && !c.is_whitespace()).collect();
            assert!(trimmed.is_empty(), "no reply for {line:?}");
            continue;
        }
        let v = Json::parse(&reply)
            .unwrap_or_else(|e| panic!("unparsable reply {reply:?} for {line:?}: {e}"));
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => {
                if v.get("accepted").and_then(Json::as_bool) == Some(true) {
                    accepted += 1;
                }
            }
            Some(false) => {
                let code = v.get("error").and_then(Json::as_str).unwrap_or("");
                assert!(!code.is_empty(), "error reply without code for {line:?}");
            }
            None => panic!("reply without ok field for {line:?}: {reply:?}"),
        }
    }

    assert_eq!(
        cluster_epoch(handle.addr, "obs"),
        accepted,
        "epoch must move exactly once per accepted report — rejected reports never bump it"
    );
    let stats = handle.shutdown_and_join();
    assert_eq!(
        stats.get("refine_accepted").and_then(Json::as_u64),
        Some(accepted),
        "server-side acceptance counter disagrees with observed replies"
    );
    assert!(
        stats.get("refine_rejected").and_then(Json::as_u64).unwrap_or(0) > 0,
        "the corpus must exercise refiner-level rejections"
    );
}

/// One frame of a pipelined burst and what its reply must look like.
enum Frame {
    /// Carries `"id":N` and must come back `ok:true` with that id.
    Ok(u64),
    /// An in-band `report`: `ok:true` with that id, but `accepted:false`
    /// — pipelined reports must answer in order without moving the epoch.
    Report(u64),
    /// Carries `"id":N` and must come back `ok:false` with that id and
    /// exactly this error code.
    Err(u64, &'static str),
    /// Malformed; must come back `ok:false` with a coded error, id null.
    Garbage,
}

#[test]
fn pipelined_bursts_survive_arbitrary_frame_splits() {
    // Pipelining must not depend on how frames land in TCP segments:
    // several requests in one segment, one request split across many, or
    // garbage interleaved mid-burst. Replies must still come back exactly
    // one per non-empty line, in request order, with ids echoed.
    let cases = env_cases(100).clamp(20, 200);
    let seed = env_base_seed(0xF0_55ED) ^ 0x9199;
    // A whole burst may arrive in one readable event and hit a cold
    // cache; the queue must hold it so no frame is shed (shedding under
    // overload is tested elsewhere — here order is under test).
    let config = ServerConfig { queue_capacity: 256, ..ServerConfig::default() };
    let handle = spawn(config.clone()).expect("spawn server");
    // The router reassembles frames too, answering part of every burst
    // itself and forwarding the rest: the same bursts go through it.
    let shards: Vec<ServerHandle> =
        (0..2).map(|_| spawn(config.clone()).expect("spawn shard")).collect();
    let router = fpm_router::spawn(RouterConfig {
        shards: shards.iter().map(|s| s.addr).collect(),
        probe_interval_ms: 50,
        ..RouterConfig::default()
    })
    .expect("spawn router");

    for addr in [handle.addr, router.addr] {
        pipelined_bursts(addr, cases, seed);
    }
    router.shutdown_and_join();
    for shard in shards {
        shard.shutdown_and_join();
    }

    let stats = handle.shutdown_and_join();
    assert!(
        stats.get("pipeline_depth_peak").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "bursts must register in pipeline metrics"
    );
    assert!(
        stats.get("report_requests").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "bursts must carry report frames"
    );
    assert_eq!(
        stats.get("refine_accepted").and_then(Json::as_u64),
        Some(0),
        "every burst report is in-band or malformed — none may refit"
    );
}

/// Registers the `pipe` cluster at `addr`, then sends `cases` seeded
/// bursts, each split into random segments, and checks every reply.
fn pipelined_bursts(addr: SocketAddr, cases: usize, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut client =
        fpm_serve::client::Client::connect(addr, Duration::from_secs(10)).expect("connect");
    client
        .register_inline(
            "pipe",
            &[
                ("A".into(), vec![(1e3, 200.0), (1e6, 180.0), (1e9, 0.0)]),
                ("B".into(), vec![(1e3, 100.0), (1e6, 90.0), (1e9, 0.0)]),
            ],
        )
        .expect("register");
    drop(client);

    let garbage = [
        "{\"verb\":\"ping\"}trailing",
        "[1,2,3]",
        "{\"verb\":42}",
        "{\"verb\":\"partition_batch\",\"cluster\":\"pipe\",\"ns\":7}",
        "\"lonely string\"",
        "{\"verb\":\"report\",\"model\":\"pipe\",\"machine\":0,\"x\":1000,\"elapsed_us\":NaN}",
        "{\"verb\":\"report\",\"model\":\"pipe\",\"machine\":0,\"x\":0,\"elapsed_us\":1}",
    ];

    for case in 0..cases {
        let depth = rng.gen_range(4usize..=12);
        let mut frames = Vec::with_capacity(depth);
        let mut burst = String::new();
        for id in 0..depth as u64 {
            let line = match rng.gen_range(0u8..8) {
                // Warm sizes: replies may be inline (cache hit) or solved.
                0 | 1 => {
                    let n = 100_000 + 1_000 * rng.gen_range(0u64..4);
                    frames.push(Frame::Ok(id));
                    format!(
                        "{{\"id\":{id},\"verb\":\"partition\",\"cluster\":\"pipe\",\"n\":{n},\"deadline_ms\":30000}}"
                    )
                }
                2 => {
                    let ns = format!("[{},{}]", 100_000, 101_000 + 1_000 * rng.gen_range(0u64..3));
                    frames.push(Frame::Ok(id));
                    format!(
                        "{{\"id\":{id},\"verb\":\"partition_batch\",\"cluster\":\"pipe\",\"ns\":{ns},\"deadline_ms\":30000}}"
                    )
                }
                3 => {
                    frames.push(Frame::Err(id, "not_found"));
                    format!("{{\"id\":{id},\"verb\":\"partition\",\"cluster\":\"nope\",\"n\":10}}")
                }
                // Reports interleave with partitions mid-pipeline. The
                // observation sits exactly on machine A's first knot
                // (1000 elements at 200 el/s = 5s), so it is in-band by
                // construction: answered in order, never refitting.
                4 | 5 => {
                    frames.push(Frame::Report(id));
                    format!(
                        "{{\"id\":{id},\"verb\":\"report\",\"model\":\"pipe\",\"machine\":0,\"x\":1000,\"elapsed_us\":5000000}}"
                    )
                }
                6 => {
                    if rng.gen_range(0u8..2) == 0 {
                        frames.push(Frame::Err(id, "not_found"));
                        format!(
                            "{{\"id\":{id},\"verb\":\"report\",\"model\":\"nope\",\"machine\":0,\"x\":10,\"elapsed_us\":1}}"
                        )
                    } else {
                        // Machine 7 parses (under the protocol cap) but is
                        // out of range for this two-machine cluster.
                        frames.push(Frame::Err(id, "bad_request"));
                        format!(
                            "{{\"id\":{id},\"verb\":\"report\",\"model\":\"pipe\",\"machine\":7,\"x\":10,\"elapsed_us\":1}}"
                        )
                    }
                }
                _ => {
                    frames.push(Frame::Garbage);
                    garbage[rng.gen_range(0usize..garbage.len())].to_owned()
                }
            };
            burst.push_str(&line);
            burst.push('\n');
        }

        // Deliver the burst in random segments: sometimes everything at
        // once, sometimes byte-by-byte across a request boundary.
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let mut writer = stream.try_clone().expect("clone");
        let bytes = burst.as_bytes();
        let mut sent = 0usize;
        while sent < bytes.len() {
            let chunk = rng.gen_range(1usize..=(bytes.len() - sent).min(512));
            writer.write_all(&bytes[sent..sent + chunk]).expect("send segment");
            writer.flush().expect("flush");
            sent += chunk;
            if rng.gen_range(0u8..4) == 0 {
                std::thread::sleep(Duration::from_micros(rng.gen_range(0u64..500)));
            }
        }

        let mut reader = BufReader::new(stream);
        for (i, frame) in frames.iter().enumerate() {
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("read reply");
            assert!(!reply.is_empty(), "case {case}: connection died before reply {i}");
            let v = Json::parse(&reply)
                .unwrap_or_else(|e| panic!("case {case} reply {i}: unparsable {reply:?}: {e}"));
            let ok = v.get("ok").and_then(Json::as_bool);
            let id = v.get("id").and_then(Json::as_u64);
            match frame {
                Frame::Ok(want) => {
                    assert_eq!(ok, Some(true), "case {case} reply {i}: {reply:?}");
                    assert_eq!(id, Some(*want), "case {case} reply {i}: id out of order");
                }
                Frame::Report(want) => {
                    assert_eq!(ok, Some(true), "case {case} reply {i}: {reply:?}");
                    assert_eq!(id, Some(*want), "case {case} reply {i}: id out of order");
                    assert_eq!(
                        v.get("accepted").and_then(Json::as_bool),
                        Some(false),
                        "case {case} reply {i}: in-band report must be rejected: {reply:?}"
                    );
                    assert_eq!(
                        v.get("epoch").and_then(Json::as_u64),
                        Some(0),
                        "case {case} reply {i}: rejected report moved the epoch: {reply:?}"
                    );
                }
                Frame::Err(want, code) => {
                    assert_eq!(ok, Some(false), "case {case} reply {i}: {reply:?}");
                    assert_eq!(id, Some(*want), "case {case} reply {i}: id out of order");
                    assert_eq!(
                        v.get("error").and_then(Json::as_str),
                        Some(*code),
                        "case {case} reply {i}: {reply:?}"
                    );
                }
                Frame::Garbage => {
                    assert_eq!(ok, Some(false), "case {case} reply {i}: {reply:?}");
                    let code = v.get("error").and_then(Json::as_str).unwrap_or("");
                    assert!(!code.is_empty(), "case {case} reply {i}: uncoded {reply:?}");
                }
            }
        }
    }

    // The endpoint must still answer cleanly after every mutated burst.
    let mut client =
        fpm_serve::client::Client::connect(addr, Duration::from_secs(10)).expect("connect");
    client.ping().expect("endpoint alive after pipelined fuzzing");
}
