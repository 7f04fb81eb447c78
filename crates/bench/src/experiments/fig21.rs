//! Fig. 21: the wall-clock cost of finding the optimal solution with the
//! partitioning algorithm for large problem sizes (up to 2·10⁹ elements)
//! and hundreds of processors (p ∈ {270, 540, 810, 1080}).
//!
//! The paper reports costs below ≈0.1 s, negligible against application
//! execution times of minutes to hours. Two costs are reported: the
//! default solve, which starts the search from the single-number line of
//! the Fig. 18 probe, and the paper-literal Fig. 15 strategy
//! ([`CombinedPartitioner::partition_explain`]); both return the same
//! plan.

use std::time::Instant;

use fpm_core::partition::{CombinedPartitioner, Partitioner};
use fpm_core::speed::PiecewiseLinearSpeed;

use crate::report::{fnum, Report};

/// A synthetic heterogeneous cluster of `p` processors with piece-wise
/// linear speed functions built from 5 points each (the paper builds its
/// functions from ~5 experimental points).
pub fn synthetic_cluster(p: usize) -> Vec<PiecewiseLinearSpeed> {
    (0..p)
        .map(|i| {
            let peak = 60.0 + (i % 97) as f64 * 2.5;
            let knee = 2e7 * (1.0 + (i % 13) as f64);
            // Five knots: ramp already done, plateau, knee, collapse, zero.
            PiecewiseLinearSpeed::new(vec![
                (1e4, peak),
                (knee * 0.5, peak * 0.97),
                (knee, peak * 0.9),
                (knee * 2.0, peak * 0.2),
                (knee * 4.0, 0.0),
            ])
            .expect("synthetic knots are valid")
        })
        .collect()
}

/// Measures the partitioning cost across the paper's `p` grid.
pub fn run() -> Report {
    let mut r = Report::new(
        "fig21",
        "Cost of the partitioning algorithm (paper Fig. 21)",
        &["p", "n (elements)", "seeded cost (s)", "paper cost (s)", "makespan check"],
    );
    let combined = CombinedPartitioner::new();
    for &p in &[270usize, 540, 810, 1080] {
        let funcs = synthetic_cluster(p);
        for &n in &[250_000_000u64, 500_000_000, 1_000_000_000, 2_000_000_000] {
            let start = Instant::now();
            let report = combined.partition(n, &funcs).unwrap();
            let seeded_cost = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let (paper, _) = combined.partition_explain(n, &funcs).unwrap();
            let paper_cost = start.elapsed().as_secs_f64();
            assert_eq!(report.distribution, paper.distribution, "p = {p}, n = {n}");
            r.push_row(vec![
                p.to_string(),
                n.to_string(),
                fnum(seeded_cost, 4),
                fnum(paper_cost, 4),
                fnum(report.makespan, 1),
            ]);
        }
    }
    r.note("paper: cost ≤ ~0.1 s at n = 2e9, growing with p (p² factor) and log n");
    r.note("seeded: the search starts from the single-number line at n/p; paper: the Fig. 15 strategy from the Fig. 18 initial lines; same plan");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_cluster_is_valid() {
        use fpm_core::speed::check_single_intersection;
        for f in synthetic_cluster(16) {
            assert!(check_single_intersection(&f, 1e4, 7e7, 200).is_ok());
        }
    }

    #[test]
    fn partitioning_a_large_cluster_is_subsecond() {
        let funcs = synthetic_cluster(270);
        let start = Instant::now();
        let r = CombinedPartitioner::new().partition(2_000_000_000, &funcs).unwrap();
        let cost = start.elapsed().as_secs_f64();
        assert_eq!(r.distribution.total(), 2_000_000_000);
        assert!(cost < 2.0, "partitioning took {cost} s");
    }
}
