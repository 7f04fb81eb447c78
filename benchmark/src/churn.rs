//! `serve-churn`: two connections through the router, one request in
//! flight each, over eight inline-knot p = 120 clusters. Partition sizes
//! come from a pool far larger than the plan cache, a quarter of them
//! near-duplicates of a size just asked for; connection 0 also replaces
//! clusters (`register` with drifted knots) and reports agreeing pairs of
//! drifted timings (`report`), so refits happen. This exercises cache
//! misses, single-flight, warm-start donors, epoch invalidation and
//! replicated writes — the same layers as `serve-hot`, used the other way.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fpm_core::cost::CostFunction;
use fpm_core::planner::AlgorithmId;
use fpm_serve::protocol::ClusterRefView;
use fpm_serve::registry::{MachineModel, RegisteredCluster};
use fpm_serve::Registry;

use crate::check::{
    check_fresh, check_plan, field, field_str, field_u64, mismatch, plan_hash, reply_ok, scan_plan,
    Failure,
};
use crate::load::{self, Stop, Tally};
use crate::replay::{self, Line};
use crate::rng::Rng;
use crate::solve::{cluster_knots, Knots};
use crate::spans::Spans;
use crate::stack::{self, Counters, Stack};
use crate::stats::p50;
use crate::wire::Wire;
use crate::{Metric, Plan, RunResult};

const CLUSTERS: usize = 8;
const CONNS: u64 = 2;
const P: usize = 120;
/// Sizes per cluster: 8 × 1024 distinct sizes against a 1024-entry cache.
const POOL: usize = 1024;
const N_RANGE: (f64, f64) = (2.5e8, 2e9);
const NEAR_DUP: f64 = 0.25;
/// Connection 0's write mix: registers, and report pairs (two ops each).
const REGISTER_P: f64 = 0.04;
const REPORT_PAIR_P: f64 = 0.08;
/// Drifted-timing factors of a report pair (observed / registered speed).
const REPORT_FACTORS: [f64; 2] = [0.7, 1.35];
/// One in this many partition replies is re-solved on the mirror.
const SAMPLE_EVERY: u64 = 8;
const WARMUP_OPS: usize = 400;
const REPLAY_LINES: usize = 96;
const TAG_BASE: u64 = 20;
const TAG_POOL: u64 = 40;
const TAG_TRAFFIC: u64 = 41;
const TAG_SAMPLE: u64 = 43;
const TAG_REPLAY: u64 = 45;

fn name(c: usize) -> String {
    format!("churn-{c}")
}

/// Knots of cluster `c`: a seeded base, with every machine's speeds scaled
/// by a factor in [0.9, 1.1] drawn from `drift` (0 = the base itself).
fn knots(seed: u64, c: usize, drift: u64) -> Knots {
    let mut base = cluster_knots(P, &mut Rng::stream(seed, TAG_BASE + c as u64));
    if drift != 0 {
        let mut r = Rng::new(drift);
        for machine in &mut base {
            let f = r.range(0.9, 1.1);
            for knot in machine.iter_mut() {
                knot.1 *= f;
            }
        }
    }
    base
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Partition {
        c: usize,
        n: u64,
    },
    Register {
        c: usize,
        drift: u64,
    },
    Report {
        c: usize,
        machine: usize,
        x: f64,
        elapsed_us: f64,
    },
}

/// An acknowledged write, kept until the mirror has replayed it.
enum Write {
    Register {
        c: usize,
        drift: u64,
        fp: String,
    },
    Report {
        c: usize,
        machine: usize,
        x: f64,
        elapsed_us: f64,
        accepted: bool,
        epoch: u64,
        fp: String,
    },
}

/// A partition reply kept for the bit-identity check after the round.
struct Sample {
    n: u64,
    fp: String,
    hash: u64,
}

/// The seeded request stream of one connection.
struct Gen {
    seed: u64,
    rng: Rng,
    pools: Arc<Vec<Vec<u64>>>,
    last_n: [u64; CLUSTERS],
    /// The second op of a report pair.
    twin: Option<Op>,
    /// Connection 0 only: the knots each cluster was last registered with.
    writer: Option<Vec<Knots>>,
}

impl Gen {
    fn new(seed: u64, conn: u64, phase: usize, pools: Arc<Vec<Vec<u64>>>) -> Self {
        let writer = (conn == 0).then(|| (0..CLUSTERS).map(|c| knots(seed, c, 0)).collect());
        let rng = Rng::stream(seed, (TAG_TRAFFIC + conn) | (phase as u64) << 8);
        Gen {
            seed,
            rng,
            pools,
            last_n: [0; CLUSTERS],
            twin: None,
            writer,
        }
    }

    fn next(&mut self) -> Op {
        if let Some(op) = self.twin.take() {
            return op;
        }
        if let Some(current) = &mut self.writer {
            let u = self.rng.unit();
            if u < REGISTER_P {
                let c = self.rng.below(CLUSTERS as u64) as usize;
                let drift = self.rng.next_u64() | 1;
                current[c] = knots(self.seed, c, drift);
                return Op::Register { c, drift };
            }
            if u < REGISTER_P + REPORT_PAIR_P {
                let c = self.rng.below(CLUSTERS as u64) as usize;
                let machine = self.rng.below(P as u64) as usize;
                let (x, s) = current[c][machine][1 + self.rng.below(2) as usize];
                let f = REPORT_FACTORS[self.rng.below(2) as usize];
                let op = Op::Report {
                    c,
                    machine,
                    x,
                    elapsed_us: x / (s * f) * 1e6,
                };
                self.twin = Some(op);
                return op;
            }
        }
        let c = self.rng.below(CLUSTERS as u64) as usize;
        let n = if self.last_n[c] != 0 && self.rng.unit() < NEAR_DUP {
            (self.last_n[c] as f64 * (1.0 + self.rng.range(-1e-3, 1e-3))) as u64
        } else {
            self.pools[c][self.rng.below(POOL as u64) as usize]
        };
        self.last_n[c] = n;
        Op::Partition { c, n }
    }
}

fn render(op: Op, seed: u64, line: &mut String) {
    use std::fmt::Write as _;
    line.clear();
    match op {
        Op::Partition { c, n } => {
            let _ = writeln!(
                line,
                "{{\"verb\":\"partition\",\"cluster\":\"churn-{c}\",\"n\":{n}}}"
            );
        }
        Op::Register { c, drift } => line.push_str(&stack::inline_register_line(
            &name(c),
            &knots(seed, c, drift),
        )),
        Op::Report {
            c,
            machine,
            x,
            elapsed_us,
        } => {
            let _ = writeln!(
                line,
                "{{\"verb\":\"report\",\"cluster\":\"churn-{c}\",\"machine\":{machine},\"x\":{x},\"elapsed_us\":{elapsed_us}}}"
            );
        }
    }
}

struct Conn {
    wire: Wire,
    gen: Gen,
    sample: Rng,
    next_op: u64,
    /// Connection 0: the fingerprint its last acknowledged write left on
    /// each cluster.
    acked: Vec<String>,
    writes: Vec<Write>,
    samples: Vec<Sample>,
    refits: u64,
}

/// Depth-1 closed loop: send one op, wait for its reply, check it.
fn drive(conn: &mut Conn, stop: Stop, tally: &mut Tally) -> Result<(), Failure> {
    let mut line = String::with_capacity(256);
    let mut sent = 0u64;
    while stop.more(sent, Instant::now()) {
        let op = conn.gen.next();
        render(op, conn.gen.seed, &mut line);
        let t0 = Instant::now();
        let reply = conn.wire.roundtrip(line.as_bytes())?;
        let t1 = Instant::now();
        sent += 1;
        conn.next_op += 1;
        tally.op(conn.next_op, t0, t1);
        if reply_ok(&reply).is_err() {
            tally.failed += 1;
            continue;
        }
        let fingerprint = || {
            field_str(&reply, "fingerprint")
                .map(str::to_owned)
                .ok_or_else(|| mismatch("write reply without fingerprint"))
        };
        match op {
            Op::Partition { c, n } => {
                let got = scan_plan(&reply)?;
                check_plan(&got.counts, P, n)?;
                if let Some(acked) = conn.acked.get(c) {
                    check_fresh(&name(c), &got.fingerprint, acked)?;
                }
                if conn.sample.below(SAMPLE_EVERY) == 0 {
                    let hash = plan_hash(&got.counts, got.makespan);
                    conn.samples.push(Sample {
                        n,
                        fp: got.fingerprint,
                        hash,
                    });
                }
            }
            Op::Register { c, drift } => {
                let fp = fingerprint()?;
                conn.acked[c] = fp.clone();
                conn.writes.push(Write::Register { c, drift, fp });
            }
            Op::Report {
                c,
                machine,
                x,
                elapsed_us,
            } => {
                let fp = fingerprint()?;
                let accepted = field(&reply, "accepted") == Some(b"true");
                let epoch = field_u64(&reply, "epoch")
                    .ok_or_else(|| mismatch("report reply without epoch"))?;
                conn.refits += u64::from(accepted);
                conn.acked[c] = fp.clone();
                conn.writes.push(Write::Report {
                    c,
                    machine,
                    x,
                    elapsed_us,
                    accepted,
                    epoch,
                    fp,
                });
            }
        }
    }
    Ok(())
}

/// The benchmark's reference: a registry fed the same acknowledged writes
/// in the same order, and every state it has been in since the last check.
struct Mirror {
    registry: Registry,
    seed: u64,
    current: Vec<Arc<RegisteredCluster>>,
    write_ns: Vec<u64>,
}

impl Mirror {
    fn new(seed: u64) -> Result<Self, Failure> {
        let registry = Registry::new(64);
        let mut m = Mirror {
            registry,
            seed,
            current: Vec::new(),
            write_ns: Vec::new(),
        };
        for c in 0..CLUSTERS {
            let snap = m.register(c, 0)?;
            m.current.push(snap);
        }
        Ok(m)
    }

    fn register(&mut self, c: usize, drift: u64) -> Result<Arc<RegisteredCluster>, Failure> {
        let spec = stack::inline_spec(&knots(self.seed, c, drift));
        let t = Instant::now();
        let snap = self
            .registry
            .register(&name(c), &spec)
            .map_err(|e| mismatch(format!("mirror register: {e}")))?;
        self.write_ns.push(t.elapsed().as_nanos() as u64);
        Ok(snap)
    }

    /// Replays connection 0's acknowledged writes in order, checking each
    /// acknowledgement against the mirror's own outcome, and checks every
    /// sampled plan against a local solve on the state whose fingerprint
    /// it carries.
    fn settle(&mut self, conns: &mut [Conn]) -> Result<(), Failure> {
        let mut pending: HashMap<String, Vec<Sample>> = HashMap::new();
        for conn in conns.iter_mut() {
            for s in conn.samples.drain(..) {
                pending.entry(s.fp.clone()).or_default().push(s);
            }
        }
        for snap in &self.current {
            verify(snap, &mut pending)?;
        }
        let writes = std::mem::take(&mut conns[0].writes);
        for w in writes {
            let (c, acked_fp) = match w {
                Write::Register { c, drift, fp } => {
                    self.current[c] = self.register(c, drift)?;
                    (c, fp)
                }
                Write::Report {
                    c,
                    machine,
                    x,
                    elapsed_us,
                    accepted,
                    epoch,
                    fp,
                } => {
                    let t = Instant::now();
                    let o = self
                        .registry
                        .report(ClusterRefView::Name(&name(c)), machine, x, elapsed_us)
                        .map_err(|e| {
                            mismatch(format!("mirror rejected an acknowledged report: {e}"))
                        })?;
                    self.write_ns.push(t.elapsed().as_nanos() as u64);
                    if (o.accepted, o.epoch) != (accepted, epoch) {
                        return Err(mismatch(format!(
                            "{}: report acknowledged as accepted={accepted} epoch={epoch}, mirror says accepted={} epoch={}",
                            name(c),
                            o.accepted,
                            o.epoch
                        )));
                    }
                    self.current[c] = self
                        .registry
                        .lookup_ref(ClusterRefView::Name(&name(c)))
                        .map_err(|e| mismatch(e.to_string()))?;
                    (c, fp)
                }
            };
            if self.current[c].fingerprint != acked_fp {
                return Err(mismatch(format!(
                    "{}: write acknowledged fingerprint {acked_fp}, mirror computed {}",
                    name(c),
                    self.current[c].fingerprint
                )));
            }
            verify(&self.current[c], &mut pending)?;
        }
        match pending.keys().next() {
            Some(fp) => Err(mismatch(format!(
                "a plan carried fingerprint {fp}, which no acknowledged write produced"
            ))),
            None => Ok(()),
        }
    }
}

fn verify(
    snap: &RegisteredCluster,
    pending: &mut HashMap<String, Vec<Sample>>,
) -> Result<(), Failure> {
    let Some(samples) = pending.remove(&snap.fingerprint) else {
        return Ok(());
    };
    // Solve over the raw models: the registry's evaluation caches are
    // bit-transparent, and bypassing them keeps the mirror's memory
    // independent of how many plans are checked.
    let refs: Vec<&dyn CostFunction> = snap
        .models
        .iter()
        .map(|m| match m {
            MachineModel::Speed(s) => s as &dyn CostFunction,
            MachineModel::Cost(c) => c as &dyn CostFunction,
        })
        .collect();
    for s in samples {
        let plan = AlgorithmId::Combined
            .solve(s.n, &refs)
            .map_err(|e| mismatch(format!("mirror solve: {e}")))?;
        if plan_hash(plan.distribution.counts(), plan.makespan) != s.hash {
            return Err(mismatch(format!(
                "{} at n = {}: served plan differs from the mirror's solve",
                snap.name, s.n
            )));
        }
    }
    Ok(())
}

pub fn run(plan: &Plan) -> Result<RunResult, Failure> {
    let mut out = RunResult::new(plan);
    let mut pool_rng = Rng::stream(plan.seed, TAG_POOL);
    let pools: Arc<Vec<Vec<u64>>> = Arc::new(
        (0..CLUSTERS)
            .map(|_| {
                (0..POOL)
                    .map(|_| pool_rng.range(N_RANGE.0, N_RANGE.1) as u64)
                    .collect()
            })
            .collect(),
    );

    let mut register_ns = Vec::new();
    let mut spans = Spans::new(Instant::now());
    let mut delta = Counters::default();
    let mut refits = 0;
    for phase in 0..plan.phases {
        let t = Instant::now();
        let stack = Stack::spawn()?;
        let result = set_up(plan, phase, &stack, &pools, &mut register_ns).and_then(|mut conns| {
            out.setups.push(t.elapsed().as_secs_f64());
            // Untimed: build the reference and check the warm-up's writes
            // and plans against it.
            let mut mirror = Mirror::new(plan.seed)?;
            mirror.settle(&mut conns)?;
            conns[0].refits = 0;
            measure(
                plan,
                &stack,
                &mut conns,
                &mut mirror,
                &mut out,
                &mut spans,
                &mut delta,
            )?;
            out.end_phase();
            refits += conns[0].refits;
            if plan.trace && phase + 1 == plan.phases {
                let lines = replay_sample(plan, &pools);
                out.layers.extend(replay::run(
                    &stack,
                    &mirror.registry,
                    &lines,
                    true,
                    &mut spans,
                )?);
                out.layers.push(Metric::new(
                    "serve.registry_write_us_p50",
                    p50(&mirror.write_ns).unwrap_or(0) as f64 / 1e3,
                    "us",
                ));
            }
            Ok(())
        });
        stack.shutdown();
        result?;
    }
    if plan.trace {
        out.layers.extend(replay::counter_metrics(&delta, refits)?);
        out.layers.push(Metric::new(
            "setup.register_ms_p50",
            p50(&register_ns).unwrap_or(0) as f64 / 1e6,
            "ms",
        ));
        out.spans = Some(spans);
    }
    out.info.push(format!(
        "ops: {} in {} timed rounds over {} phases; {CONNS} connections at depth 1; {refits} refits accepted; \
         {CLUSTERS} clusters × p = {P}",
        out.attempted,
        out.rounds.len(),
        plan.phases
    ));
    Ok(out)
}

fn set_up(
    plan: &Plan,
    phase: usize,
    stack: &Stack,
    pools: &Arc<Vec<Vec<u64>>>,
    register_ns: &mut Vec<u64>,
) -> Result<Vec<Conn>, Failure> {
    let mut wire = Wire::connect(stack.router_addr())?;
    let mut acked = Vec::new();
    for c in 0..CLUSTERS {
        let (fp, took) = stack::register(
            &mut wire,
            &stack::inline_register_line(&name(c), &knots(plan.seed, c, 0)),
        )?;
        register_ns.push(took.as_nanos() as u64);
        acked.push(fp);
    }
    let wires = [wire, Wire::connect(stack.router_addr())?];
    let mut conns: Vec<Conn> = (0..CONNS)
        .zip(wires)
        .map(|(i, wire)| Conn {
            wire,
            gen: Gen::new(plan.seed, i, phase, Arc::clone(pools)),
            sample: Rng::stream(plan.seed, (TAG_SAMPLE + i) | (phase as u64) << 8),
            next_op: i << 40,
            acked: if i == 0 { acked.clone() } else { Vec::new() },
            writes: Vec::new(),
            samples: Vec::new(),
            refits: 0,
        })
        .collect();
    load::round(
        &mut conns,
        Stop::Ops(plan.scaled(WARMUP_OPS) as u64),
        None,
        drive,
    )?;
    Ok(conns)
}

/// The timed rounds of one phase; after each, the mirror replays the
/// round's writes and checks its sampled plans. Counter deltas add up over
/// phases.
fn measure(
    plan: &Plan,
    stack: &Stack,
    conns: &mut [Conn],
    mirror: &mut Mirror,
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
        let tallies = load::round(
            conns,
            Stop::At(start + plan.round),
            traced.then(|| spans.epoch()),
            drive,
        )?;
        measured += load::record(out, traced, start, tallies, spans);
        delta.add_delta(&before, &stack.counters());
        mirror.settle(conns)?;
        r += 1;
    }
    Ok(())
}

/// 1 in 64 of connection 1's request stream, replayed layer by layer.
fn replay_sample(plan: &Plan, pools: &Arc<Vec<Vec<u64>>>) -> Vec<Line> {
    let mut gen = Gen::new(plan.seed, 1, 0, Arc::clone(pools));
    let mut pick = Rng::stream(plan.seed, TAG_REPLAY);
    let mut lines = Vec::new();
    while lines.len() < replay::sample_size(plan, REPLAY_LINES) {
        if let Op::Partition { c, n } = gen.next() {
            if pick.below(64) == 0 {
                lines.push(Line {
                    cluster: name(c),
                    n,
                    algorithm: None,
                });
            }
        }
    }
    lines
}
