//! `serve-hot`: two connections through the router, each keeping a window
//! of 16 `partition` requests in flight over 64 hot keys (8 testbed
//! clusters × 8 sizes). After the warm-up every request is a plan-cache
//! hit, so parse, render, registry lookup, cache probe, the poll loops and
//! the router hop do all the work and the solver does none.

use std::io::Write as _;
use std::time::{Duration, Instant};

use fpm_core::planner::AlgorithmId;
use fpm_serve::protocol::{ClusterRefView, ClusterSpec};
use fpm_serve::{engine, Registry};

use crate::check::{check_plan, check_same, field, mismatch, reply_ok, scan_plan, Failure};
use crate::load::{self, Stop, Tally};
use crate::replay::{self, Line};
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stack::{self, Counters, Stack};
use crate::stats::p50;
use crate::wire::Wire;
use crate::{Metric, Plan, RunResult};

const APPS: [&str; 4] = ["mm", "mm-atlas", "arrayops", "lu"];
const SEEDS_PER_APP: usize = 2;
const KEYS_PER_CLUSTER: usize = 8;
const WINDOW: usize = 16;
const CONNS: u64 = 2;
/// Warm-up requests per connection after every key has been touched.
const WARMUP_OPS: usize = 4000;
const REPLAY_LINES: usize = 128;
const N_RANGE: (f64, f64) = (1e5, 1e6);
const TAG_SETUP: u64 = 10;
const TAG_TRAFFIC: u64 = 11;
const TAG_REPLAY: u64 = 12;

struct Cluster {
    name: String,
    register: String,
    fingerprint: String,
    machines: usize,
}

struct Key {
    cluster: usize,
    n: u64,
    /// The request after its id: `,"verb":"partition",…}\n`.
    suffix: Vec<u8>,
    /// The reference plan: a local solve on the mirror registry.
    counts: Vec<u64>,
    makespan: f64,
}

/// One client connection; its traffic stream continues across rounds.
struct Conn {
    wire: Wire,
    rng: Rng,
    next_id: u64,
}

pub fn run(plan: &Plan) -> Result<RunResult, Failure> {
    let mut out = RunResult::new(plan);
    let mut rng = Rng::stream(plan.seed, TAG_SETUP);

    // The mirror registry is the benchmark's reference, built once and
    // outside the timed set-up.
    let mirror = Registry::new(64);
    let mut write_ns = Vec::new();
    let mut clusters = Vec::new();
    for app in APPS {
        for _ in 0..SEEDS_PER_APP {
            let seed = rng.next_u64() >> 12;
            let name = format!("hot-{}", clusters.len());
            let spec = ClusterSpec::Testbed {
                name: "table2".into(),
                app: app.into(),
                seed,
            };
            let t = Instant::now();
            let c = mirror
                .register(&name, &spec)
                .map_err(|e| Failure::Io(format!("mirror register: {e}")))?;
            write_ns.push(t.elapsed().as_nanos() as u64);
            let register = format!(
                "{{\"verb\":\"register\",\"cluster\":\"{name}\",\"testbed\":{{\"name\":\"table2\",\"app\":\"{app}\",\"seed\":{seed}}}}}\n"
            );
            clusters.push(Cluster {
                name,
                register,
                fingerprint: c.fingerprint.clone(),
                machines: c.funcs.len(),
            });
        }
    }
    let mut keys = Vec::new();
    for (ci, c) in clusters.iter().enumerate() {
        let funcs = mirror
            .lookup_ref(ClusterRefView::Name(&c.name))
            .expect("registered above")
            .funcs
            .clone();
        for _ in 0..KEYS_PER_CLUSTER {
            let n = rng.range(N_RANGE.0, N_RANGE.1) as u64;
            let reference = engine::solve(AlgorithmId::Combined, n, &funcs).map_err(|e| {
                Failure::Io(format!("reference solve of {} at n = {n}: {e}", c.name))
            })?;
            check_plan(&reference.counts, c.machines, n)?;
            let suffix = format!(
                ",\"verb\":\"partition\",\"cluster\":\"{}\",\"n\":{n}}}\n",
                c.name
            )
            .into_bytes();
            keys.push(Key {
                cluster: ci,
                n,
                suffix,
                counts: reference.counts.clone(),
                makespan: reference.makespan,
            });
        }
    }

    let mut register_ns = Vec::new();
    let mut spans = Spans::new(Instant::now());
    let mut delta = Counters::default();
    for phase in 0..plan.phases {
        let t = Instant::now();
        let stack = Stack::spawn()?;
        let result = set_up(plan, phase, &stack, &clusters, &keys, &mut register_ns).and_then(
            |(mut conns, tails)| {
                out.setups.push(t.elapsed().as_secs_f64());
                measure(
                    plan, &stack, &mut conns, &keys, &tails, &mut out, &mut spans, &mut delta,
                )?;
                out.end_phase();
                if plan.trace && phase + 1 == plan.phases {
                    let lines = replay_sample(plan, &clusters, &keys);
                    out.layers
                        .extend(replay::run(&stack, &mirror, &lines, true, &mut spans)?);
                }
                Ok(())
            },
        );
        stack.shutdown();
        result?;
    }
    if plan.trace {
        out.layers.extend(replay::counter_metrics(&delta, 0)?);
        out.layers.push(Metric::new(
            "serve.registry_write_us_p50",
            p50(&write_ns).unwrap_or(0) as f64 / 1e3,
            "us",
        ));
        out.layers.push(Metric::new(
            "setup.register_ms_p50",
            p50(&register_ns).unwrap_or(0) as f64 / 1e6,
            "ms",
        ));
        out.spans = Some(spans);
    }
    out.info.push(format!(
        "ops: {} in {} timed rounds over {} phases; {CONNS} connections × window {WINDOW} over {} hot keys",
        out.attempted,
        out.rounds.len(),
        plan.phases,
        keys.len()
    ));
    Ok(out)
}

/// Registers every cluster through the router, verifies and learns each
/// key's cached reply, then runs the warm-up traffic on both connections.
fn set_up(
    plan: &Plan,
    phase: usize,
    stack: &Stack,
    clusters: &[Cluster],
    keys: &[Key],
    register_ns: &mut Vec<u64>,
) -> Result<(Vec<Conn>, Vec<Vec<u8>>), Failure> {
    let mut wire = Wire::connect(stack.router_addr())?;
    for c in clusters {
        let (fp, took) = stack::register(&mut wire, &c.register)?;
        if fp != c.fingerprint {
            return Err(mismatch(format!(
                "{}: daemon fingerprint {fp}, mirror {}",
                c.name, c.fingerprint
            )));
        }
        register_ns.push(took.as_nanos() as u64);
    }
    let tails = learn_tails(&mut wire, keys, clusters)?;
    let wires = [wire, Wire::connect(stack.router_addr())?];
    let mut conns: Vec<Conn> = (0..CONNS)
        .zip(wires)
        .map(|(i, wire)| Conn {
            wire,
            rng: Rng::stream(plan.seed, (TAG_TRAFFIC + i) | (phase as u64) << 8),
            next_id: i << 40,
        })
        .collect();
    let warm = plan.scaled(WARMUP_OPS) as u64;
    load::round(&mut conns, Stop::Ops(warm), None, |c, stop, t| {
        drive(c, keys, &tails, stop, t)
    })?;
    Ok((conns, tails))
}

/// The timed rounds of one phase; counter deltas add up over phases.
#[allow(clippy::too_many_arguments)]
fn measure(
    plan: &Plan,
    stack: &Stack,
    conns: &mut [Conn],
    keys: &[Key],
    tails: &[Vec<u8>],
    out: &mut RunResult,
    spans: &mut Spans,
    delta: &mut Counters,
) -> Result<(), Failure> {
    let mut measured = Duration::ZERO;
    let mut r = 0;
    while plan.another_round(r, measured) {
        let traced = plan.traced(r);
        let before = stack.counters();
        let start = Instant::now();
        let stop = Stop::At(start + plan.round);
        let tallies = load::round(conns, stop, traced.then(|| spans.epoch()), |c, stop, t| {
            drive(c, keys, tails, stop, t)
        })?;
        measured += load::record(out, traced, start, tallies, spans);
        delta.add_delta(&before, &stack.counters());
        r += 1;
    }
    Ok(())
}

/// Touches every key twice over one connection: the first reply solves,
/// the second must come from the cache. Both must equal the mirror's plan;
/// the cached reply's bytes after its id become the key's expected tail.
fn learn_tails(
    wire: &mut Wire,
    keys: &[Key],
    clusters: &[Cluster],
) -> Result<Vec<Vec<u8>>, Failure> {
    let mut tails = Vec::with_capacity(keys.len());
    for (k, key) in keys.iter().enumerate() {
        let c = &clusters[key.cluster];
        let mut line = format!("{{\"id\":{k}").into_bytes();
        line.extend_from_slice(&key.suffix);
        let mut tail = Vec::new();
        for pass in 0..2 {
            let reply = wire.roundtrip(&line)?;
            reply_ok(&reply).map_err(|code| {
                Failure::Io(format!("warm-up {} at n = {}: {code}", c.name, key.n))
            })?;
            let got = scan_plan(&reply)?;
            check_plan(&got.counts, c.machines, key.n)?;
            check_same(
                &format!("{} at n = {}", c.name, key.n),
                (&got.counts, got.makespan),
                (&key.counts, key.makespan),
            )?;
            if got.fingerprint != c.fingerprint {
                return Err(mismatch(format!(
                    "{}: served fingerprint {}, mirror {}",
                    c.name, got.fingerprint, c.fingerprint
                )));
            }
            if pass == 1 {
                if field(&reply, "cached") != Some(b"true") {
                    return Err(mismatch(format!(
                        "{} at n = {}: repeat request was not a cache hit",
                        c.name, key.n
                    )));
                }
                tail = split_id(&reply)
                    .ok_or_else(|| mismatch("reply without an id"))?
                    .1
                    .to_vec();
            }
        }
        tails.push(tail);
    }
    Ok(tails)
}

/// Splits `{"id":N,rest` into `(N, rest)`.
fn split_id(line: &[u8]) -> Option<(u64, &[u8])> {
    let rest = line.strip_prefix(b"{\"id\":")?;
    let digits = rest.iter().position(|&b| b == b',')?;
    let id = std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()?;
    Some((id, &rest[digits + 1..]))
}

/// Keeps `WINDOW` requests in flight until `stop`, then drains. Every reply
/// must be the key's verified cached reply, byte for byte after its id.
fn drive(
    conn: &mut Conn,
    keys: &[Key],
    tails: &[Vec<u8>],
    stop: Stop,
    tally: &mut Tally,
) -> Result<(), Failure> {
    let Conn { wire, rng, next_id } = conn;
    let next = |out: &mut Vec<u8>| {
        let k = rng.below(keys.len() as u64) as usize;
        let id = *next_id;
        *next_id += 1;
        let _ = write!(out, "{{\"id\":{id}");
        out.extend_from_slice(&keys[k].suffix);
        (id, k)
    };
    let check = |id: u64, k: usize, line: &[u8], tally: &mut Tally| match split_id(line) {
        Some((got, tail)) if got == id && tail == &tails[k][..] => Ok(()),
        _ if reply_ok(line).is_err() => {
            tally.failed += 1;
            Ok(())
        }
        _ => Err(mismatch(format!(
            "reply to request {id} differs from the verified cached plan: {}",
            String::from_utf8_lossy(line)
        ))),
    };
    load::windowed(wire, WINDOW, stop, tally, next, check)
}

/// 1 in 64 of connection 0's request stream, replayed layer by layer.
fn replay_sample(plan: &Plan, clusters: &[Cluster], keys: &[Key]) -> Vec<Line> {
    let mut traffic = Rng::stream(plan.seed, TAG_TRAFFIC);
    let mut pick = Rng::stream(plan.seed, TAG_REPLAY);
    let mut lines = Vec::new();
    while lines.len() < replay::sample_size(plan, REPLAY_LINES) {
        let key = &keys[traffic.below(keys.len() as u64) as usize];
        if pick.below(64) == 0 {
            lines.push(Line {
                cluster: clusters[key.cluster].name.clone(),
                n: key.n,
                algorithm: None,
            });
        }
    }
    lines
}
