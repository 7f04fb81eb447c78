//! Discrete-event simulation of a run on a contended interconnect.
//!
//! The closed-form model in [`crate::comm`] charges *all* communication
//! before any computation starts. On the paper's actual network — switched
//! 100 Mbit Ethernet where it is "desirable to schedule a parallel program
//! in such a way that only one processor sends a message at a given time"
//! — a worker can start computing as soon as *its own* data has arrived,
//! overlapping with the transfers still being serialised for the others.
//!
//! This module provides a small resource-timeline simulator (per-processor
//! timelines plus one shared bus) and a DES-backed run of the striped
//! matrix multiplication, including the *serve-order* scheduling decision
//! the overlap makes relevant: serving the workers with the longest
//! computation first minimises the makespan (a classic result the
//! simulation reproduces).

use fpm_core::error::{Error, Result};
use fpm_core::partition::Distribution;
use fpm_core::speed::SpeedFunction;

use crate::comm::CommLink;

/// A resource-timeline simulator: one timeline per processor plus a shared
/// serialised bus. Operations must be submitted in causal order.
#[derive(Debug, Clone)]
pub struct Timeline {
    proc_free: Vec<f64>,
    bus_free: f64,
    bus_busy_total: f64,
}

impl Timeline {
    /// Creates timelines for `p` processors, all free at time zero.
    pub fn new(p: usize) -> Self {
        Self { proc_free: vec![0.0; p], bus_free: 0.0, bus_busy_total: 0.0 }
    }

    /// Schedules `seconds` of computation on processor `p`; returns the
    /// completion time.
    pub fn compute(&mut self, p: usize, seconds: f64) -> f64 {
        assert!(seconds >= 0.0);
        let start = self.proc_free[p];
        self.proc_free[p] = start + seconds;
        self.proc_free[p]
    }

    /// Schedules a bus transfer from `src` to `dst` taking `seconds`. The
    /// bus and the *sender* are occupied; the receiver is passive (DMA
    /// semantics) but cannot use the data before the transfer completes,
    /// so its timeline is advanced to at least the completion time.
    /// Returns the completion time.
    pub fn transfer(&mut self, src: usize, dst: usize, seconds: f64) -> f64 {
        assert!(seconds >= 0.0);
        let start = self.bus_free.max(self.proc_free[src]);
        let end = start + seconds;
        self.bus_free = end;
        self.proc_free[src] = end;
        self.proc_free[dst] = self.proc_free[dst].max(end);
        self.bus_busy_total += seconds;
        end
    }

    /// Time at which everything has finished.
    pub fn makespan(&self) -> f64 {
        self.proc_free.iter().cloned().fold(self.bus_free, f64::max)
    }

    /// Total time the bus spent transferring.
    pub fn bus_busy(&self) -> f64 {
        self.bus_busy_total
    }
}

/// In which order the master serves the workers' input transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOrder {
    /// Processor index order.
    AsGiven,
    /// Workers with the longest computation receive their data first —
    /// the makespan-minimising heuristic once transfers overlap compute.
    LongestComputeFirst,
    /// The adversarial order, for contrast.
    ShortestComputeFirst,
}

/// Outcome of a DES-backed striped-MM run.
#[derive(Debug, Clone)]
pub struct DesOutcome {
    /// Total wall-clock makespan (scatter + overlapped compute + gather).
    pub makespan: f64,
    /// Total bus occupancy.
    pub bus_seconds: f64,
    /// Per-processor completion time of the compute phase.
    pub compute_finish: Vec<f64>,
}

/// Runs the striped `C = A×Bᵀ` through the timeline simulator: the master
/// (processor 0, which also computes) serialises the input transfers in
/// the chosen order; every worker computes as soon as its data arrives;
/// the result stripes are gathered afterwards, again serialised.
pub fn simulate_mm_des<F: SpeedFunction>(
    n: u64,
    funcs: &[F],
    links: &[CommLink],
    distribution: &Distribution,
    order: ServeOrder,
) -> Result<DesOutcome> {
    if funcs.is_empty() {
        return Err(Error::NoProcessors);
    }
    assert_eq!(funcs.len(), links.len());
    assert_eq!(funcs.len(), distribution.len());
    let p = funcs.len();
    let counts = distribution.counts();

    // Per-worker compute seconds (flop volume over speed at its size).
    let compute_secs: Vec<f64> = counts
        .iter()
        .zip(funcs)
        .map(|(&x, f)| {
            if x == 0 {
                return 0.0;
            }
            // A stripe of r rows (x = 3·r·n elements) does 2·r·n² flops.
            let flops = 2.0 / 3.0 * x as f64 * n as f64;
            let s = f.speed(x as f64);
            if s <= 0.0 {
                f64::INFINITY
            } else {
                flops / (s * 1e6)
            }
        })
        .collect();

    // Serve order over remote workers (everyone but the master).
    let mut serve: Vec<usize> = (1..p).filter(|&i| counts[i] > 0).collect();
    match order {
        ServeOrder::AsGiven => {}
        ServeOrder::LongestComputeFirst => {
            serve.sort_by(|&a, &b| compute_secs[b].total_cmp(&compute_secs[a]))
        }
        ServeOrder::ShortestComputeFirst => {
            serve.sort_by(|&a, &b| compute_secs[a].total_cmp(&compute_secs[b]))
        }
    }

    let mut tl = Timeline::new(p);
    // Scatter: A stripe (x/3) plus the full B matrix (n²) per worker.
    for &i in &serve {
        let elements = counts[i] as f64 / 3.0 + (n * n) as f64;
        tl.transfer(0, i, links[i].transfer_time(elements));
    }
    // Compute (the master computes its own stripe too, after it finished
    // sending).
    let mut compute_finish = vec![0.0; p];
    for i in 0..p {
        if counts[i] > 0 {
            compute_finish[i] = tl.compute(i, compute_secs[i]);
        }
    }
    // Gather the C stripes (x/3 elements each), serialised on the bus in
    // completion order (workers send their results as they finish).
    let mut gather_order = serve.clone();
    gather_order.sort_by(|&a, &b| compute_finish[a].total_cmp(&compute_finish[b]));
    for &i in &gather_order {
        let elements = counts[i] as f64 / 3.0;
        tl.transfer(i, 0, links[i].transfer_time(elements));
    }
    Ok(DesOutcome { makespan: tl.makespan(), bus_seconds: tl.bus_busy(), compute_finish })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpm_core::partition::{CombinedPartitioner, Partitioner};
    use fpm_core::speed::ConstantSpeed;

    fn links(p: usize) -> Vec<CommLink> {
        vec![CommLink::new(0.5, 1e6); p]
    }

    #[test]
    fn timeline_compute_accumulates() {
        let mut tl = Timeline::new(2);
        assert_eq!(tl.compute(0, 2.0), 2.0);
        assert_eq!(tl.compute(0, 3.0), 5.0);
        assert_eq!(tl.compute(1, 1.0), 1.0);
        assert_eq!(tl.makespan(), 5.0);
    }

    #[test]
    fn timeline_bus_serialises() {
        let mut tl = Timeline::new(3);
        let t1 = tl.transfer(0, 1, 2.0);
        let t2 = tl.transfer(0, 2, 2.0);
        assert_eq!(t1, 2.0);
        assert_eq!(t2, 4.0, "second transfer waits for the bus");
        assert_eq!(tl.bus_busy(), 4.0);
    }

    #[test]
    fn transfers_overlap_with_unrelated_compute() {
        let mut tl = Timeline::new(3);
        tl.transfer(0, 1, 2.0); // bus busy 0–2
        let done = tl.compute(1, 10.0); // proc 1 computes 2–12
        let t = tl.transfer(0, 2, 2.0); // bus free at 2, proc 0 free at 2
        assert_eq!(t, 4.0, "proc 2's data arrives while proc 1 computes");
        assert_eq!(done, 12.0);
    }

    #[test]
    fn des_makespan_is_at_most_fully_serialised_model() {
        let funcs: Vec<ConstantSpeed> =
            vec![ConstantSpeed::new(100.0), ConstantSpeed::new(50.0), ConstantSpeed::new(25.0)];
        let n = 300u64;
        let dist = CombinedPartitioner::new().partition(3 * n * n, &funcs).unwrap().distribution;
        let des = simulate_mm_des(n, &funcs, &links(3), &dist, ServeOrder::LongestComputeFirst)
            .unwrap();
        // Fully serialised: all comm then max compute.
        let (comm, compute) =
            crate::comm::evaluate_mm_with_comm(n, &funcs, &links(3), &dist);
        assert!(
            des.makespan <= comm + compute + 1e-9,
            "DES {} vs serialised {}",
            des.makespan,
            comm + compute
        );
    }

    #[test]
    fn longest_first_beats_shortest_first() {
        // Strongly heterogeneous computation times make the serve order
        // matter: the long job should be fed first.
        let funcs: Vec<ConstantSpeed> =
            vec![ConstantSpeed::new(1e6), ConstantSpeed::new(2.0), ConstantSpeed::new(2000.0)];
        let n = 200u64;
        let dist = Distribution::new(vec![20_000, 80_000, 20_000]);
        let l = links(3);
        let long =
            simulate_mm_des(n, &funcs, &l, &dist, ServeOrder::LongestComputeFirst).unwrap();
        let short =
            simulate_mm_des(n, &funcs, &l, &dist, ServeOrder::ShortestComputeFirst).unwrap();
        assert!(
            long.makespan <= short.makespan,
            "longest-first {} vs shortest-first {}",
            long.makespan,
            short.makespan
        );
    }

    #[test]
    fn idle_workers_cost_nothing() {
        let funcs: Vec<ConstantSpeed> =
            vec![ConstantSpeed::new(100.0), ConstantSpeed::new(100.0)];
        let n = 100u64;
        let dist = Distribution::new(vec![3 * 100 * 100, 0]);
        let des =
            simulate_mm_des(n, &funcs, &links(2), &dist, ServeOrder::AsGiven).unwrap();
        assert_eq!(des.bus_seconds, 0.0, "no transfers when only the master works");
    }

    #[test]
    fn empty_cluster_errors() {
        let funcs: Vec<ConstantSpeed> = vec![];
        let l: Vec<CommLink> = vec![];
        let dist = Distribution::new(vec![]);
        assert!(matches!(
            simulate_mm_des(10, &funcs, &l, &dist, ServeOrder::AsGiven),
            Err(Error::NoProcessors)
        ));
    }
}
