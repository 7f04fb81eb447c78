//! The traced run's per-layer replay.
//!
//! A seeded sample of the workload's own `partition` lines goes
//! 1. in-process through the public functions of each serving layer —
//!    `protocol::parse_request`, `Registry::lookup`, `Engine::probe`,
//!    `engine::solve` / `solve_warm` on a miss, `Plan::wire_fields` +
//!    `protocol::ok_response` — each call timed as its own span;
//! 2. over loopback, once directly to the owning shard and once through
//!    the router, both with warm caches, so the shard's poll loop and
//!    sockets and the router's hop can be told apart by subtraction.

use std::collections::hash_map::{Entry, HashMap};
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Instant;

use fpm_core::cost::CostFunction;
use fpm_core::planner::AlgorithmId;
use fpm_serve::engine::{solve, solve_warm, Engine, EngineConfig};
use fpm_serve::json::Json;
use fpm_serve::protocol::{ok_response, parse_request, Request};
use fpm_serve::Registry;

use crate::check::{check_plan, check_same, mismatch, reply_ok, scan_plan, Failure};
use crate::solve::{counted, CoreCounts};
use crate::spans::Spans;
use crate::stack::{Counters, Stack};
use crate::stats::ratio;
use crate::wire::Wire;
use crate::Metric;

/// One sampled `partition` request.
#[derive(Debug, Clone)]
pub struct Line {
    pub cluster: String,
    pub n: u64,
    /// `None` leaves the field out (the daemon's default, `combined`).
    pub algorithm: Option<AlgorithmId>,
}

impl Line {
    pub fn render(&self, id: u64) -> String {
        let algorithm = self
            .algorithm
            .map_or(String::new(), |a| format!(",\"algorithm\":\"{a}\""));
        format!(
            "{{\"id\":{id},\"verb\":\"partition\",\"cluster\":\"{}\",\"n\":{}{algorithm}}}\n",
            self.cluster, self.n
        )
    }
}

/// Lines to replay: the full sample, or at least 16 in the smoke profile so
/// some model still appears at two sizes (a warm solve).
pub fn sample_size(plan: &crate::Plan, full: usize) -> usize {
    plan.scaled(full).max(16)
}

/// Replays `lines` and returns the serve, router and (with `with_core`)
/// core layer metrics.
pub fn run(
    stack: &Stack,
    mirror: &Registry,
    lines: &[Line],
    with_core: bool,
    spans: &mut Spans,
) -> Result<Vec<Metric>, Failure> {
    let engine = Engine::new(1024, EngineConfig::default());
    let op_base = 1 << 40;
    let texts: Vec<String> = lines
        .iter()
        .enumerate()
        .map(|(i, l)| l.render(i as u64))
        .collect();
    let parsed = |i: usize| {
        let env = parse_request(texts[i].trim_end())
            .map_err(|(_, e)| mismatch(format!("replay parse: {e}")))?;
        match env.request {
            Request::Partition {
                target,
                n,
                algorithm,
                ..
            } => Ok((env.id, target, n, algorithm)),
            _ => Err(mismatch("replay line did not parse as partition")),
        }
    };

    // Fill pass, as the daemon meets each line first: a miss solves, warm
    // from the nearest cached plan of the same model when there is one.
    let mut core = CoreCounts::default();
    let mut expected = Vec::with_capacity(lines.len());
    for i in 0..lines.len() {
        let op = op_base + i as u64;
        let (_, target, n, algorithm) = parsed(i)?;
        let cluster = mirror
            .lookup(&target)
            .map_err(|e| mismatch(format!("replay lookup: {e}")))?;
        let plan = match engine.probe(&cluster, n, algorithm) {
            Some(result) => result.map_err(|e| mismatch(format!("replay probe: {e}")))?,
            None => {
                let key = Engine::plan_key(&cluster, n, algorithm);
                let donor = engine
                    .cache()
                    .donor(key.fingerprint, key.epoch, key.algo, n);
                let s0 = Instant::now();
                let (result, seeded) = match &donor {
                    Some(d) => solve_warm(algorithm, n, &cluster.funcs, &d.counts),
                    None => (solve(algorithm, n, &cluster.funcs), false),
                };
                let s1 = Instant::now();
                spans.push(
                    if donor.is_some() {
                        "core.warm_solve"
                    } else {
                        "core.cold_solve"
                    },
                    s0,
                    s1,
                    None,
                    op,
                    0,
                );
                let (result, _) = engine.cache().get_or_compute(key, || result);
                let plan = result.map_err(|e| mismatch(format!("replay solve: {e}")))?;
                if with_core {
                    let refs: Vec<&dyn CostFunction> = cluster
                        .funcs
                        .iter()
                        .map(|f| &**f as &dyn CostFunction)
                        .collect();
                    let donor_counts = donor.as_ref().map(|d| &d.counts[..]);
                    let (evals, report) = counted(
                        algorithm,
                        n,
                        donor_counts,
                        &refs,
                        (&plan.counts, plan.makespan),
                    )?;
                    if donor.is_some() {
                        core.warm_evals.push(evals);
                        core.warm_seeded += u64::from(seeded);
                    } else {
                        core.cold_evals.push(evals);
                        core.cold_steps.push(report.trace.steps() as u64);
                    }
                }
                plan
            }
        };
        check_plan(&plan.counts, cluster.funcs.len(), n)?;
        // The daemon renders a plan when it first answers it; later hits
        // reuse that rendering.
        black_box(plan.wire_fields());
        expected.push((plan, cluster.fingerprint.clone()));
    }

    // Timed pass: the hit path the direct and routed passes below take in
    // the daemon, one span per layer call.
    for i in 0..lines.len() {
        let op = op_base + i as u64;
        let t0 = Instant::now();
        let (id, target, n, algorithm) = parsed(i)?;
        let t1 = Instant::now();
        let cluster = mirror
            .lookup(&target)
            .map_err(|e| mismatch(format!("replay lookup: {e}")))?;
        let t2 = Instant::now();
        let probed = engine.probe(&cluster, n, algorithm);
        let t3 = Instant::now();
        let plan = probed
            .ok_or_else(|| mismatch("replay plan left the cache"))?
            .map_err(|e| mismatch(e.to_string()))?;
        let fields = vec![
            ("cached".to_owned(), Json::Bool(true)),
            ("algorithm".to_owned(), Json::str(algorithm.to_string())),
            (
                "fingerprint".to_owned(),
                Json::str(cluster.fingerprint.clone()),
            ),
        ];
        let mut reply = ok_response(id.as_ref(), "partition", fields);
        reply.pop();
        reply.push_str(plan.wire_fields());
        reply.push('}');
        black_box(&reply);
        let t4 = Instant::now();
        let root = spans.push("replay.line", t0, t4, None, op, 0);
        spans.push("serve.parse", t0, t1, Some(root), op, 0);
        spans.push("serve.registry_lookup", t1, t2, Some(root), op, 0);
        spans.push("serve.cache_probe", t2, t3, Some(root), op, 0);
        spans.push("serve.render", t3, t4, Some(root), op, 0);
    }

    // Loopback passes. A first pass through the router fills the shard
    // caches; then each line goes to its owner directly and via the router.
    let mut router = Wire::connect(stack.router_addr())?;
    let mut direct: HashMap<SocketAddr, Wire> = HashMap::new();
    let check = |reply: &[u8], i: usize, route: &str| -> Result<(), Failure> {
        reply_ok(reply).map_err(|code| mismatch(format!("replay {route} reply failed: {code}")))?;
        let got = scan_plan(reply)?;
        let (plan, fp) = &expected[i];
        if &got.fingerprint != fp {
            return Err(mismatch(format!(
                "replay {route}: fingerprint {} but the mirror holds {fp}",
                got.fingerprint
            )));
        }
        check_same(
            &format!("replay {route} reply"),
            (&got.counts, got.makespan),
            (&plan.counts, plan.makespan),
        )
    };
    for (i, text) in texts.iter().enumerate() {
        let reply = router.roundtrip(text.as_bytes())?;
        check(&reply, i, "warm-up")?;
    }
    for (i, (line, text)) in lines.iter().zip(&texts).enumerate() {
        let op = op_base + i as u64;
        let t0 = Instant::now();
        let owner = stack.owner(&line.cluster);
        let t1 = Instant::now();
        spans.push("router.ring_route", t0, t1, None, op, 0);
        let wire = match direct.entry(owner) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(Wire::connect(owner)?),
        };
        let d0 = Instant::now();
        let reply = wire.roundtrip(text.as_bytes())?;
        spans.push("replay.direct", d0, Instant::now(), None, op, 0);
        check(&reply, i, "direct")?;
        let r0 = Instant::now();
        let reply = router.roundtrip(text.as_bytes())?;
        spans.push("replay.routed", r0, Instant::now(), None, op, 0);
        check(&reply, i, "routed")?;
    }

    let parse = spans.p50_us("serve.parse")?;
    let lookup = spans.p50_us("serve.registry_lookup")?;
    let probe = spans.p50_us("serve.cache_probe")?;
    let render = spans.p50_us("serve.render")?;
    let direct = spans.p50_us("replay.direct")?;
    let routed = spans.p50_us("replay.routed")?;
    let mut metrics = vec![
        Metric::new("serve.parse_us_p50", parse, "us"),
        Metric::new("serve.registry_lookup_us_p50", lookup, "us"),
        Metric::new("serve.cache_probe_us_p50", probe, "us"),
        Metric::new("serve.render_us_p50", render, "us"),
        Metric::new(
            "serve.loop_net_us_p50",
            direct - (parse + lookup + probe + render),
            "us",
        ),
        Metric::new("router.hop_us_p50", routed - direct, "us"),
        Metric::new(
            "router.ring_route_us_p50",
            spans.p50_us("router.ring_route")?,
            "us",
        ),
    ];
    if with_core {
        metrics.push(Metric::new(
            "core.cold_solve_us_p50",
            spans.p50_us("core.cold_solve")?,
            "us",
        ));
        metrics.push(Metric::new(
            "core.warm_solve_us_p50",
            spans.p50_us("core.warm_solve")?,
            "us",
        ));
        metrics.extend(core.metrics()?);
    }
    Ok(metrics)
}

/// The per-layer metrics read from the daemons' `stats` counter deltas.
/// `refits` counts accepted `report` replies seen by the client.
pub fn counter_metrics(delta: &Counters, refits: u64) -> Result<Vec<Metric>, Failure> {
    let hits = delta.get("serve.cache_hits");
    let lookups = hits + delta.get("serve.cache_misses") + delta.get("serve.cache_coalesced");
    let hit_ratio =
        ratio(hits, lookups).ok_or_else(|| Failure::Io("no partition reached a shard".into()))?;
    let count = |name: &'static str, key: &str| Metric::new(name, delta.get(key) as f64, "count");
    Ok(vec![
        Metric::new("serve.cache_hit_ratio", hit_ratio, "ratio"),
        count("serve.cache_misses", "serve.cache_misses"),
        count("serve.cache_coalesced", "serve.cache_coalesced"),
        count("serve.warm_starts", "serve.warm_starts"),
        count("serve.warm_start_fallbacks", "serve.warm_start_fallbacks"),
        count("serve.queue_depth_peak", "serve.queue_depth_peak"),
        count("serve.pipeline_depth_peak", "serve.pipeline_depth_peak"),
        count("serve.shed", "serve.shed"),
        count("serve.deadline_misses", "serve.deadline_misses"),
        Metric::new("serve.refine_accepted", refits as f64, "count"),
        count("router.forwarded", "router.forwarded"),
        count("router.fanout_legs", "router.fanout_legs"),
        count("router.failovers", "router.failovers"),
        count("router.failover_exhausted", "router.failover_exhausted"),
    ])
}
