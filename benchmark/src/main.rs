//! The repository benchmark.
//!
//! ```text
//! benchmark --workload <solve-linear|solve-nonlinear|serve-hot|serve-churn>
//!           --seed <u64> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Prints every metric as `name value unit`, then, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics without tracing, the per-layer metrics with it. Any
//! output that fails a check ends the run with a non-zero exit code and no
//! result line. See `README.md` for the workloads and metrics.

mod check;
mod churn;
mod hot;
mod load;
mod replay;
mod rng;
mod solve;
mod spans;
mod stack;
mod stats;
mod wire;

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use check::Failure;
use spans::Spans;
use stats::{median, percentile, quartiles, ratio};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SolveLinear,
    SolveNonlinear,
    ServeHot,
    ServeChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SolveLinear,
        Workload::SolveNonlinear,
        Workload::ServeHot,
        Workload::ServeChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveLinear => "solve-linear",
            Workload::SolveNonlinear => "solve-nonlinear",
            Workload::ServeHot => "serve-hot",
            Workload::ServeChurn => "serve-churn",
        }
    }
}

/// How one run is laid out.
///
/// A run is `phases` phases. Each phase sets the workload up from scratch
/// (timed: `setup_s` is the median over phases) and then runs timed
/// rounds of `round` each until `phase` has been measured. A traced run
/// alternates untraced and traced rounds, so the tracing overhead is
/// measured in the same run.
///
/// The host is a shared virtual machine whose speed changes by tens of
/// percent from one second to the next. Interference only ever slows a
/// round down, so the end-to-end rate and latency come from the least
/// disturbed rounds (see [`end_to_end`]); many short rounds spread over
/// five freshly set-up phases make those steady from run to run.
pub struct Plan {
    pub seed: u64,
    pub phases: usize,
    /// Timed time per phase.
    pub phase: Duration,
    pub round: Duration,
    pub trace: bool,
    /// About 1 % of the warm-up and sample sizes, one phase, one round of
    /// each kind.
    pub smoke: bool,
}

impl Plan {
    pub fn new(seed: u64, seconds: f64, trace: bool, smoke: bool) -> Plan {
        let phases = if smoke { 1 } else { 5 };
        let phase = Duration::from_secs_f64(seconds) / phases as u32;
        Plan {
            seed,
            phases,
            phase,
            round: if smoke {
                phase / 2
            } else {
                Duration::from_millis(250)
            },
            trace,
            smoke,
        }
    }

    /// Whether the `r`-th round of a phase runs, after `measured` time in
    /// the phase's earlier rounds.
    pub fn another_round(&self, r: usize, measured: Duration) -> bool {
        let at_least = if self.trace { 2 } else { 1 };
        r < at_least || (!self.smoke && measured < self.phase)
    }

    pub fn traced(&self, round: usize) -> bool {
        self.trace && round % 2 == 1
    }

    /// A warm-up or sample size, cut to about 1 % in the smoke profile.
    pub fn scaled(&self, full: usize) -> usize {
        if self.smoke {
            full.div_ceil(100).max(2)
        } else {
            full
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// One timed round, summarised.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub traced: bool,
    pub ops: u64,
    pub seconds: f64,
    /// Nearest-rank median latency over the round's ops, ns (0 for a traced
    /// round, whose ops are timed as spans instead).
    pub p50: u64,
}

impl Round {
    pub fn rate(&self) -> f64 {
        self.ops as f64 / self.seconds
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub rounds: Vec<Round>,
    /// Seconds per set-up.
    pub setups: Vec<f64>,
    /// Resident MB at the end of each phase's timed rounds.
    pub resident: Vec<f64>,
    /// Latencies of every op of the untraced rounds, ns, kept only in a
    /// traced run (whose memory use is not a metric) for the p99.
    pub pooled: Option<Vec<u64>>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
    pub spans: Option<Spans>,
    pub info: Vec<String>,
}

impl RunResult {
    pub fn new(plan: &Plan) -> RunResult {
        RunResult {
            pooled: plan.trace.then(Vec::new),
            ..RunResult::default()
        }
    }

    /// Records a finished round and returns its length. `latencies` holds
    /// its ops' latencies in ns (empty for a traced round) and is left empty
    /// for the next round.
    pub fn round(
        &mut self,
        traced: bool,
        ops: u64,
        seconds: f64,
        latencies: &mut Vec<u64>,
    ) -> Duration {
        self.attempted += ops;
        if let Some(pooled) = &mut self.pooled {
            pooled.extend_from_slice(latencies);
        }
        latencies.sort_unstable();
        let p50 = percentile(latencies, 0.5).unwrap_or(0);
        self.rounds.push(Round {
            traced,
            ops,
            seconds,
            p50,
        });
        latencies.clear();
        Duration::from_secs_f64(seconds)
    }

    /// Samples the resident set at the end of a phase, with the workload
    /// still set up.
    pub fn end_phase(&mut self) {
        self.resident.extend(resident_mb());
    }

    fn untraced(&self) -> impl Iterator<Item = &Round> {
        self.rounds.iter().filter(|r| !r.traced)
    }

    fn rates(&self, traced: bool) -> Vec<f64> {
        self.rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(Round::rate)
            .collect()
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

const USAGE: &str =
    "usage: benchmark --workload <solve-linear|solve-nonlinear|serve-hot|serve-churn> \
                     --seed <u64> [--seconds <s>] [--trace <0|1>] [--smoke]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    *Workload::ALL
                        .iter()
                        .find(|w| w.name() == v)
                        .ok_or_else(|| format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seed takes a u64".to_owned())?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_owned())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        smoke,
    })
}

pub fn run_workload(workload: Workload, plan: &Plan) -> Result<RunResult, Failure> {
    match workload {
        Workload::SolveLinear => solve::run(&solve::LINEAR, plan),
        Workload::SolveNonlinear => solve::run(&solve::NONLINEAR, plan),
        Workload::ServeHot => hot::run(plan),
        Workload::ServeChurn => churn::run(plan),
    }
}

fn measured(name: &str, v: Option<f64>) -> Result<f64, Failure> {
    match v {
        Some(v) if v.is_finite() && v > 0.0 => Ok(v),
        _ => Err(Failure::Io(format!("{name} was not measured"))),
    }
}

/// The end-to-end metrics of an untraced run. Rate and latency come from
/// the least disturbed rounds: `ops_per_s` is the fastest round's rate and
/// `latency_p50_us` the lowest round median, over all phases. Set-up time
/// and resident memory are medians over the phases.
pub fn end_to_end(r: &RunResult) -> Result<Vec<Metric>, Failure> {
    let fastest = r.untraced().map(Round::rate).reduce(f64::max);
    let p50 = r
        .untraced()
        .map(|round| round.p50)
        .min()
        .map(|ns| ns as f64 / 1e3);
    Ok(vec![
        Metric::new("ops_per_s", measured("ops_per_s", fastest)?, "1/s"),
        Metric::new("latency_p50_us", measured("latency_p50_us", p50)?, "us"),
        Metric::new("setup_s", measured("setup_s", median(&r.setups))?, "s"),
        Metric::new("rss_mb", measured("rss_mb", median(&r.resident))?, "MB"),
    ])
}

/// The per-layer metrics of a traced run, plus the client-side p99 over its
/// untraced rounds and the tracing overhead.
pub fn per_layer(r: &mut RunResult) -> Result<Vec<Metric>, Failure> {
    let overhead = match (median(&r.rates(true)), median(&r.rates(false))) {
        (Some(t), Some(u)) if u > 0.0 => 1.0 - t / u,
        _ => return Err(Failure::Io("trace.overhead_frac was not measured".into())),
    };
    let mut pooled = r.pooled.take().unwrap_or_default();
    pooled.sort_unstable();
    let p99 = percentile(&pooled, 0.99).map(|ns| ns as f64 / 1e3);
    let mut layers = std::mem::take(&mut r.layers);
    layers.push(Metric::new(
        "client.latency_p99_us",
        measured("client.latency_p99_us", p99)?,
        "us",
    ));
    layers.push(Metric::new("trace.overhead_frac", overhead, "ratio"));
    if let Some(bad) = layers.iter().find(|m| !m.value.is_finite()) {
        return Err(Failure::Io(format!("{} is not finite", bad.name)));
    }
    Ok(layers)
}

extern "C" {
    /// glibc: returns free heap memory of every arena to the kernel.
    fn malloc_trim(pad: usize) -> std::ffi::c_int;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> std::ffi::c_int;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> std::ffi::c_int;
}

/// Confines this thread, and so every thread it starts later, to the
/// highest-numbered CPU it may run on, and returns that CPU.
///
/// On the reference host (2 vCPUs of a nested virtual machine) a wake-up
/// sent to the other vCPU costs a hypervisor round trip whose price follows
/// the other tenants' load: spread over both vCPUs, `serve-churn`'s rate
/// had an interquartile spread of 0.17 of its median over ten runs, and
/// 0.03–0.09 on one vCPU at the same median (README, "How a run is laid
/// out"). Called before any server starts, so the servers' worker pools
/// size themselves to this one CPU, as they would on a one-core host.
fn pin_to_one_cpu() -> Option<usize> {
    const WORDS: usize = 16;
    let mut mask = [0u64; WORDS];
    // SAFETY: both calls read or write exactly `size_of_val(&mask)` bytes
    // of `mask`; pid 0 is the calling thread.
    unsafe {
        if sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) != 0 {
            return None;
        }
        let cpu = (0..WORDS * 64)
            .rev()
            .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        (sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0).then_some(cpu)
    }
}

/// Resident set of this process (servers included), MB, after free heap
/// memory has been returned to the kernel. The high-water mark would mostly
/// measure how the allocator spread freed memory over its per-thread
/// arenas, which varied by up to 15 % from run to run on `serve-churn` on a
/// 2-vCPU host; what is left after the trim is the memory the workload
/// holds.
fn resident_mb() -> Option<f64> {
    // SAFETY: `malloc_trim` takes no pointer and is thread-safe; it only
    // releases memory no allocation refers to.
    unsafe { malloc_trim(0) };
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The checked-out commit, when the run happens inside a git work tree.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn json_line(r: &RunResult, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::new(args.seed, args.seconds, args.trace, args.smoke);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = pin_to_one_cpu().map_or("none".to_owned(), |c| c.to_string());
    println!(
        "benchmark workload={} seed={} seconds={} trace={} smoke={} commit={} nproc={nproc} pinned_cpu={cpu}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        git_commit(),
    );
    let outcome = run_workload(args.workload, &plan).and_then(|mut r| {
        let metrics = if args.trace {
            per_layer(&mut r)?
        } else {
            end_to_end(&r)?
        };
        Ok((r, metrics))
    });
    let (r, metrics) = match outcome {
        Ok(done) => done,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(e.exit_code() as u8);
        }
    };
    for line in &r.info {
        println!("{line}");
    }
    for (i, round) in r.rounds.iter().enumerate() {
        let kind = if round.traced { "traced" } else { "untraced" };
        println!(
            "round {i} {kind}: {} ops in {:.3} s = {:.1} ops/s, p50 {:.1} us",
            round.ops,
            round.seconds,
            round.rate(),
            round.p50 as f64 / 1e3,
        );
    }
    let rates = r.rates(false);
    if let (Some(m), Some((q1, q3))) = (median(&rates), quartiles(&rates)) {
        println!(
            "untraced round ops/s: median {m:.1}, IQR {:.1} ({:.2} % of median)",
            q3 - q1,
            100.0 * (q3 - q1) / m
        );
    }
    println!(
        "attempted {} failed {} failed_frac {}",
        r.attempted,
        r.failed,
        ratio(r.failed, r.attempted).unwrap_or(0.0)
    );
    if let Some(spans) = &r.spans {
        let path =
            Path::new("target/benchmark").join(format!("trace-{}.json", args.workload.name()));
        match spans.write_chrome(&path, 20_000) {
            Ok(n) => println!(
                "trace: {n} of {} spans written to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("could not write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_line(&r, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, trace: bool) -> (RunResult, Vec<Metric>) {
        let plan = Plan::new(7, 0.2, trace, true);
        let mut r =
            run_workload(workload, &plan).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        let metrics = if trace {
            per_layer(&mut r)
        } else {
            end_to_end(&r)
        }
        .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        (r, metrics)
    }

    /// Metric names and units listed in `BENCHMARK.json` under `section`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let spec = include_str!("../../BENCHMARK.json");
        let body = spec
            .split(&format!("\"{section}\""))
            .nth(1)
            .expect("section present");
        let body = &body[..body.find(']').expect("section is a list")];
        let value = |entry: &str, key: &str| {
            let rest = entry
                .split(&format!("\"{key}\": \""))
                .nth(1)
                .expect("key present");
            rest[..rest.find('"').expect("closing quote")].to_owned()
        };
        body.split('}')
            .filter(|e| e.contains("\"name\""))
            .map(|e| (value(e, "name"), value(e, "unit")))
            .collect()
    }

    fn named(metrics: &[Metric]) -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = metrics
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn every_workload_prints_every_end_to_end_metric_without_failures() {
        let mut want = declared("end_to_end");
        want.sort();
        for w in Workload::ALL {
            let (r, metrics) = smoke(w, false);
            assert_eq!(named(&metrics), want, "{}", w.name());
            assert_eq!(r.failed, 0, "{}: failed_frac must be 0", w.name());
            assert!(r.attempted > 0, "{}", w.name());
            let line = json_line(&r, &metrics);
            for (name, _) in &want {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{line}"
                );
            }
        }
    }

    #[test]
    fn a_traced_run_prints_every_per_layer_metric() {
        let (r, metrics) = smoke(Workload::ServeChurn, true);
        assert_eq!(r.failed, 0);
        let mut want = declared("per_layer");
        want.sort();
        assert_eq!(named(&metrics), want);
    }

    #[test]
    fn arguments_are_parsed_and_bad_values_rejected() {
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload serve-hot --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace, a.smoke),
            (Workload::ServeHot, 3, 10.0, true, false)
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload serve-hot")).is_err());
        assert!(parse_args(&argv("--workload serve-hot --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve-hot --seed 1 --seconds 0")).is_err());
    }
}
