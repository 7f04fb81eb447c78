//! `solve-linear` and `solve-nonlinear`: the solver called in-process, one
//! thread, no server. Ops come in groups of one cold `AlgorithmId::solve`
//! and three warm `resolve_from` calls at |Δn|/n ≤ 1e-3, seeded from the
//! group's cold plan.

use std::cell::Cell;
use std::time::{Duration, Instant};

use fpm_core::cost::CostFunction;
use fpm_core::partition::PartitionReport;
use fpm_core::planner::{erase, AlgorithmId};
use fpm_core::speed::PiecewiseLinearSpeed;
use fpm_serve::Registry;

use crate::check::{check_plan, check_same, mismatch, plan_hash, Failure};
use crate::replay::{self, Line};
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stack::{self, Stack};
use crate::stats::{p50, ratio};
use crate::{Metric, Plan, RunResult};

/// One solve workload.
pub struct Shape {
    pub p: usize,
    /// Groups alternate over these algorithms.
    pub algorithms: &'static [AlgorithmId],
    /// Untimed groups run at the end of each set-up.
    pub warmup_groups: usize,
    /// Groups re-run with counting models in a traced run.
    pub count_groups: usize,
    /// Sampled ops replayed through the serving stack in a traced run.
    pub replay_lines: usize,
}

/// The paper's Fig. 21 regime: p = 1080, n up to 2·10⁹, linear cost.
pub const LINEAR: Shape = Shape {
    p: 1080,
    algorithms: &[AlgorithmId::Combined],
    warmup_groups: 60,
    count_groups: 32,
    replay_lines: 48,
};

/// The nonlinear cost domain (`x·log x` sort, `x^1.5` query) at p = 120.
pub const NONLINEAR: Shape = Shape {
    p: 120,
    algorithms: &[AlgorithmId::SortSample, AlgorithmId::Query],
    warmup_groups: 6,
    count_groups: 8,
    replay_lines: 24,
};

const WARM_PER_GROUP: usize = 3;
const N_RANGE: (f64, f64) = (2.5e8, 2e9);
const WARM_DELTA: f64 = 1e-3;
/// One in this many warm solves is re-solved cold and compared bit for bit.
const VERIFY_EVERY: u64 = 16;
const TAG_CLUSTER: u64 = 1;
const TAG_OPS: u64 = 2;
const TAG_REPLAY: u64 = 3;

/// The `(size, speed)` knots of every machine of a cluster.
pub type Knots = Vec<Vec<(f64, f64)>>;

/// Fig. 21-style piece-wise speed knots for `p` machines, with peaks and
/// knees jittered by ±5 % from `rng`.
pub fn cluster_knots(p: usize, rng: &mut Rng) -> Knots {
    (0..p)
        .map(|i| {
            let peak = (60.0 + (i % 97) as f64 * 2.5) * rng.range(0.95, 1.05);
            let knee = 2e7 * (1.0 + (i % 13) as f64) * rng.range(0.95, 1.05);
            vec![
                (1e4, peak),
                (knee * 0.5, peak * 0.97),
                (knee, peak * 0.9),
                (knee * 2.0, peak * 0.2),
                (knee * 4.0, 0.0),
            ]
        })
        .collect()
}

fn build(knots: &[Vec<(f64, f64)>]) -> Vec<PiecewiseLinearSpeed> {
    knots
        .iter()
        .map(|k| PiecewiseLinearSpeed::new(k.clone()).expect("generated knots are valid"))
        .collect()
}

#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub algorithm: AlgorithmId,
    pub n: u64,
    pub warm: bool,
}

/// The seeded op stream: groups of one cold and three warm ops.
struct Ops {
    rng: Rng,
    algorithms: &'static [AlgorithmId],
    group: usize,
    in_group: usize,
    n: u64,
}

impl Ops {
    /// The stream of one phase of a run.
    fn new(seed: u64, phase: usize, algorithms: &'static [AlgorithmId]) -> Self {
        Ops {
            rng: Rng::stream(seed, TAG_OPS | (phase as u64) << 8),
            algorithms,
            group: 0,
            in_group: 0,
            n: 0,
        }
    }

    fn next(&mut self) -> Op {
        let algorithm = self.algorithms[self.group % self.algorithms.len()];
        let op = if self.in_group == 0 {
            self.n = self.rng.range(N_RANGE.0, N_RANGE.1) as u64;
            Op {
                algorithm,
                n: self.n,
                warm: false,
            }
        } else {
            let n = (self.n as f64 * (1.0 + self.rng.range(-WARM_DELTA, WARM_DELTA))) as u64;
            Op {
                algorithm,
                n,
                warm: true,
            }
        };
        self.in_group += 1;
        if self.in_group > WARM_PER_GROUP {
            self.in_group = 0;
            self.group += 1;
        }
        op
    }

    /// Whether the stream is between cycles: one whole group of every
    /// algorithm has been handed out since the last cycle boundary.
    fn between_cycles(&self) -> bool {
        self.in_group == 0 && self.group.is_multiple_of(self.algorithms.len())
    }
}

fn solve_op(
    op: Op,
    donor: &[u64],
    funcs: &[&dyn CostFunction],
) -> Result<PartitionReport, Failure> {
    let report = if op.warm {
        op.algorithm.resolve_from(donor, op.n, funcs)
    } else {
        op.algorithm.solve(op.n, funcs)
    };
    report.map_err(|e| {
        mismatch(format!(
            "{} at n = {}: solve failed: {e}",
            op.algorithm, op.n
        ))
    })
}

/// Forwards every `CostFunction` method to the wrapped model and counts the
/// calls that evaluate it (all but `max_size`).
pub struct Counting<'a> {
    inner: &'a dyn CostFunction,
    evals: &'a Cell<u64>,
}

impl<'a> Counting<'a> {
    pub fn new(inner: &'a dyn CostFunction, evals: &'a Cell<u64>) -> Self {
        Counting { inner, evals }
    }

    fn bump(&self) {
        self.evals.set(self.evals.get() + 1);
    }
}

impl CostFunction for Counting<'_> {
    fn time(&self, x: f64) -> f64 {
        self.bump();
        self.inner.time(x)
    }

    fn max_size(&self) -> f64 {
        self.inner.max_size()
    }

    fn throughput(&self, x: f64) -> f64 {
        self.bump();
        self.inner.throughput(x)
    }

    fn rate(&self, x: f64) -> f64 {
        self.bump();
        self.inner.rate(x)
    }

    fn intersect_slope(&self, slope: f64) -> Option<f64> {
        self.bump();
        self.inner.intersect_slope(slope)
    }
}

/// Evaluation count and report of one solve through [`Counting`] wrappers;
/// the counted plan must equal the unwrapped `plain` plan bit for bit.
pub fn counted(
    algorithm: AlgorithmId,
    n: u64,
    donor: Option<&[u64]>,
    funcs: &[&dyn CostFunction],
    plain: (&[u64], f64),
) -> Result<(u64, PartitionReport), Failure> {
    let evals = Cell::new(0);
    let counting: Vec<Counting<'_>> = funcs.iter().map(|&f| Counting::new(f, &evals)).collect();
    let refs = erase(&counting);
    let report = match donor {
        Some(d) => algorithm.resolve_from(d, n, &refs),
        None => algorithm.solve(n, &refs),
    }
    .map_err(|e| mismatch(format!("counted {algorithm} at n = {n} failed: {e}")))?;
    check_same(
        "counting wrapper",
        (report.distribution.counts(), report.makespan),
        plain,
    )?;
    Ok((evals.get(), report))
}

/// Per-solve counts gathered for the `core.*` count metrics.
#[derive(Default)]
pub struct CoreCounts {
    pub cold_evals: Vec<u64>,
    pub warm_evals: Vec<u64>,
    pub cold_steps: Vec<u64>,
    pub warm_seeded: u64,
}

impl CoreCounts {
    pub fn metrics(self) -> Result<Vec<Metric>, Failure> {
        let median = |v: &[u64], what: &str| {
            p50(v)
                .map(|x| x as f64)
                .ok_or_else(|| Failure::Io(format!("no {what} sampled")))
        };
        let warm = self.warm_evals.len() as u64;
        Ok(vec![
            Metric::new(
                "core.evals_per_cold_solve",
                median(&self.cold_evals, "cold solve")?,
                "count",
            ),
            Metric::new(
                "core.evals_per_warm_solve",
                median(&self.warm_evals, "warm solve")?,
                "count",
            ),
            Metric::new(
                "core.steps_per_cold_solve",
                median(&self.cold_steps, "cold solve")?,
                "count",
            ),
            Metric::new(
                "core.warm_seeded_ratio",
                ratio(self.warm_seeded, warm)
                    .ok_or_else(|| Failure::Io("no warm solve sampled".into()))?,
                "ratio",
            ),
        ])
    }
}

pub fn run(shape: &Shape, plan: &Plan) -> Result<RunResult, Failure> {
    let mut out = RunResult::new(plan);
    let knots = cluster_knots(shape.p, &mut Rng::stream(plan.seed, TAG_CLUSTER));
    let mut spans = Spans::new(Instant::now());
    let mut latencies = Vec::new();
    let mut warm_seen = 0u64;
    for phase in 0..plan.phases {
        // Set-up: build the models, then run the warm-up groups.
        let t = Instant::now();
        let funcs = build(&knots);
        let refs = erase(&funcs);
        let mut ops = Ops::new(plan.seed, phase, shape.algorithms);
        let mut donor = Vec::new();
        for _ in 0..plan.scaled(shape.warmup_groups) * (WARM_PER_GROUP + 1) {
            let op = ops.next();
            let report = solve_op(op, &donor, &refs)?;
            check_plan(report.distribution.counts(), shape.p, op.n)?;
            if !op.warm {
                donor = report.distribution.counts().to_vec();
            }
        }
        out.setups.push(t.elapsed().as_secs_f64());

        let mut measured = Duration::ZERO;
        let mut round = 0;
        while plan.another_round(round, measured) {
            let traced = plan.traced(round);
            let mut to_verify = Vec::new();
            let mut done = 0u64;
            let start = Instant::now();
            let end = start + plan.round;
            loop {
                let op = ops.next();
                let t0 = Instant::now();
                let report = solve_op(op, &donor, &refs)?;
                let t1 = Instant::now();
                let counts = report.distribution.counts();
                check_plan(counts, shape.p, op.n)?;
                if op.warm {
                    if warm_seen.is_multiple_of(VERIFY_EVERY) {
                        to_verify.push((op, plan_hash(counts, report.makespan)));
                    }
                    warm_seen += 1;
                } else {
                    donor = counts.to_vec();
                }
                if traced {
                    let id = out.attempted + done;
                    let root = spans.push("op", t0, Instant::now(), None, id, 0);
                    let name = if op.warm {
                        "core.warm_solve"
                    } else {
                        "core.cold_solve"
                    };
                    spans.push(name, t0, t1, Some(root), id, 0);
                } else {
                    latencies.push((t1 - t0).as_nanos() as u64);
                }
                done += 1;
                // Rounds end between cycles, so every round holds the same
                // mix of cold and warm solves of each algorithm.
                if t1 >= end && ops.between_cycles() {
                    break;
                }
            }
            measured += out.round(traced, done, start.elapsed().as_secs_f64(), &mut latencies);
            // Outside the timed region: warm plans must equal cold re-solves.
            for (op, hash) in to_verify {
                let cold = solve_op(Op { warm: false, ..op }, &[], &refs)?;
                if plan_hash(cold.distribution.counts(), cold.makespan) != hash {
                    return Err(mismatch(format!(
                        "{} at n = {}: warm plan differs from the cold re-solve",
                        op.algorithm, op.n
                    )));
                }
            }
            round += 1;
        }
        out.end_phase();
        if plan.trace && phase + 1 == plan.phases {
            for (name, layer) in [
                ("core.cold_solve_us_p50", "core.cold_solve"),
                ("core.warm_solve_us_p50", "core.warm_solve"),
            ] {
                out.layers
                    .push(Metric::new(name, spans.p50_us(layer)?, "us"));
            }
            out.layers.extend(count_sample(shape, plan, &refs)?);
        }
    }
    out.info.push(format!(
        "ops: {} in {} timed rounds over {} phases; p = {}; warm plans re-solved cold: 1 in {VERIFY_EVERY}",
        out.attempted,
        out.rounds.len(),
        plan.phases,
        shape.p
    ));
    if plan.trace {
        replay_through_stack(shape, plan, &knots, &mut spans, &mut out)?;
        out.spans = Some(spans);
    }
    Ok(out)
}

/// Re-runs the first groups of the op stream through counting models.
fn count_sample(
    shape: &Shape,
    plan: &Plan,
    refs: &[&dyn CostFunction],
) -> Result<Vec<Metric>, Failure> {
    let mut counts = CoreCounts::default();
    let mut ops = Ops::new(plan.seed, 0, shape.algorithms);
    let mut donor = Vec::new();
    for _ in 0..plan.scaled(shape.count_groups) * (WARM_PER_GROUP + 1) {
        let op = ops.next();
        let plain = solve_op(op, &donor, refs)?;
        let plain_plan = (plain.distribution.counts(), plain.makespan);
        let (evals, report) = counted(
            op.algorithm,
            op.n,
            op.warm.then_some(&donor[..]),
            refs,
            plain_plan,
        )?;
        if op.warm {
            counts.warm_evals.push(evals);
            counts.warm_seeded += u64::from(report.trace.warm_bracket);
        } else {
            counts.cold_evals.push(evals);
            counts.cold_steps.push(report.trace.steps() as u64);
            donor = plain.distribution.counts().to_vec();
        }
    }
    counts.metrics()
}

/// After the timed rounds of a traced run: replays a seeded sample of the
/// op stream as `partition` lines through every serving layer. Untraced
/// runs never start a server.
fn replay_through_stack(
    shape: &Shape,
    plan: &Plan,
    knots: &[Vec<(f64, f64)>],
    spans: &mut Spans,
    out: &mut RunResult,
) -> Result<(), Failure> {
    const CLUSTER: &str = "bench";
    let mut pick = Rng::stream(plan.seed, TAG_REPLAY);
    let mut ops = Ops::new(plan.seed, 0, shape.algorithms);
    let mut lines = Vec::new();
    while lines.len() < replay::sample_size(plan, shape.replay_lines) {
        let op = ops.next();
        if pick.below(64) == 0 {
            lines.push(Line {
                cluster: CLUSTER.to_owned(),
                n: op.n,
                algorithm: Some(op.algorithm),
            });
        }
    }

    let mirror = Registry::new(8);
    let spec = stack::inline_spec(knots);
    let t = Instant::now();
    let cluster = mirror
        .register(CLUSTER, &spec)
        .map_err(|e| Failure::Io(format!("mirror register: {e}")))?;
    let write_us = t.elapsed().as_secs_f64() * 1e6;

    let stack = Stack::spawn()?;
    let result = (|| {
        let mut wire = crate::wire::Wire::connect(stack.router_addr())?;
        let (fp, took) = stack::register(&mut wire, &stack::inline_register_line(CLUSTER, knots))?;
        if fp != cluster.fingerprint {
            return Err(mismatch(format!(
                "registered fingerprint {fp}, mirror computed {}",
                cluster.fingerprint
            )));
        }
        let before = stack.counters();
        let metrics = replay::run(&stack, &mirror, &lines, false, spans)?;
        let mut delta = stack::Counters::default();
        delta.add_delta(&before, &stack.counters());
        Ok((metrics, delta, took))
    })();
    stack.shutdown();
    let (metrics, delta, took) = result?;
    out.layers.extend(metrics);
    out.layers.extend(replay::counter_metrics(&delta, 0)?);
    out.layers
        .push(Metric::new("serve.registry_write_us_p50", write_us, "us"));
    out.layers.push(Metric::new(
        "setup.register_ms_p50",
        took.as_secs_f64() * 1e3,
        "ms",
    ));
    Ok(())
}
