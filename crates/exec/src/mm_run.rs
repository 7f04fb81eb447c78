//! Simulated parallel matrix multiplication `C = A×Bᵀ` with horizontal
//! striped partitioning (paper Fig. 16).
//!
//! The partitioner distributes the `3n²` matrix elements; the element
//! distribution is converted to whole rows; each processor's execution time
//! is then its *flop volume* divided by its speed **at the problem size it
//! actually received** (`x_i = 3·r_i·n` elements). A slice of `r` rows
//! performs `2·r·n²` flops, which is proportional to its element count, so
//! equalising `x_i/s_i(x_i)` equalises finish times — the paper's
//! optimality criterion.
//!
//! Communication is excluded from the cost model, as in the paper (§1).

use fpm_core::error::Result;
use fpm_core::partition::{Distribution, Partitioner};
use fpm_core::speed::SpeedFunction;
use fpm_kernels::striped::{rows_from_element_distribution, StripedLayout};

use crate::pool::scoped_map;

/// Outcome of a simulated striped-MM run.
#[derive(Debug, Clone)]
pub struct MmRunResult {
    /// Matrix dimension.
    pub n: u64,
    /// Element-level distribution the partitioner produced.
    pub distribution: Distribution,
    /// Whole-row layout actually executed.
    pub layout: StripedLayout,
    /// Per-processor execution times in seconds.
    pub times: Vec<f64>,
    /// Parallel execution time (max over processors).
    pub makespan: f64,
}

/// Flop volume of the row stripe `r` of an `n×n` `C = A×Bᵀ`: `2·r·n²`.
fn stripe_flops(rows: usize, n: u64) -> f64 {
    2.0 * rows as f64 * (n as f64) * (n as f64)
}

/// Elements of the three matrices held by a stripe of `r` rows: `3·r·n`.
fn stripe_elements(rows: usize, n: u64) -> f64 {
    3.0 * rows as f64 * n as f64
}

/// Simulates the parallel multiplication of two dense `n×n` matrices over
/// `funcs` under the distribution produced by `partitioner`.
pub fn simulate_mm<F: SpeedFunction, P: Partitioner>(
    n: u64,
    funcs: &[F],
    partitioner: &P,
) -> Result<MmRunResult> {
    let total_elements = 3 * n * n;
    let report = partitioner.partition(total_elements, funcs)?;
    simulate_mm_with_distribution(n, funcs, report.distribution)
}

/// Simulates the run for an explicit element distribution (used to compare
/// single-number and functional distributions on identical footing).
pub fn simulate_mm_with_distribution<F: SpeedFunction>(
    n: u64,
    funcs: &[F],
    distribution: Distribution,
) -> Result<MmRunResult> {
    let layout = rows_from_element_distribution(n as usize, &distribution);
    let times: Vec<f64> = layout
        .row_counts()
        .iter()
        .zip(funcs)
        .map(|(&rows, f)| stripe_time(rows, n, f))
        .collect();
    Ok(assemble_run(n, distribution, layout, times))
}

/// [`simulate_mm`] with the per-processor speed sweep executed in parallel
/// on pool-bounded scoped threads. Results are identical; use this variant
/// when the speed models are expensive to evaluate (e.g. measured models
/// over large clusters).
pub fn simulate_mm_par<F: SpeedFunction + Sync, P: Partitioner>(
    n: u64,
    funcs: &[F],
    partitioner: &P,
) -> Result<MmRunResult> {
    let total_elements = 3 * n * n;
    let report = partitioner.partition(total_elements, funcs)?;
    let distribution = report.distribution;
    let layout = rows_from_element_distribution(n as usize, &distribution);
    let row_counts = layout.row_counts();
    let times = scoped_map(funcs, |i, f| stripe_time(row_counts[i], n, f));
    Ok(assemble_run(n, distribution, layout, times))
}

/// Execution time of one stripe: flop volume over the speed at the problem
/// size the processor actually received.
fn stripe_time<F: SpeedFunction>(rows: usize, n: u64, f: &F) -> f64 {
    if rows == 0 {
        return 0.0;
    }
    let x = stripe_elements(rows, n);
    let speed_mflops = f.speed(x);
    if speed_mflops <= 0.0 {
        f64::INFINITY
    } else {
        stripe_flops(rows, n) / (speed_mflops * 1e6)
    }
}

fn assemble_run(
    n: u64,
    distribution: Distribution,
    layout: StripedLayout,
    times: Vec<f64>,
) -> MmRunResult {
    let makespan = times.iter().cloned().fold(0.0, f64::max);
    MmRunResult { n, distribution, layout, times, makespan }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::SimCluster;
    use fpm_core::partition::{CombinedPartitioner, SingleNumberPartitioner};
    use fpm_core::speed::ConstantSpeed;
    use fpm_simnet::profile::AppProfile;
    use fpm_simnet::workload;

    #[test]
    fn constant_speeds_give_balanced_times() {
        let funcs = vec![ConstantSpeed::new(100.0), ConstantSpeed::new(50.0)];
        let r = simulate_mm(900, &funcs, &CombinedPartitioner::new()).unwrap();
        assert_eq!(r.layout.total_rows(), 900);
        assert_eq!(r.layout.row_counts(), &[600, 300]);
        let dt = (r.times[0] - r.times[1]).abs() / r.makespan;
        assert!(dt < 0.01, "times {:?}", r.times);
    }

    #[test]
    fn makespan_is_max_of_times() {
        let funcs = vec![ConstantSpeed::new(10.0), ConstantSpeed::new(30.0)];
        let r = simulate_mm(100, &funcs, &CombinedPartitioner::new()).unwrap();
        let max = r.times.iter().cloned().fold(0.0, f64::max);
        assert_eq!(r.makespan, max);
    }

    #[test]
    fn functional_beats_single_number_when_paging_matters() {
        // The paper's headline experiment in miniature: on Table 2 at sizes
        // where some machines page, the functional model's distribution
        // must win (its makespan can never be worse, §3.2).
        let cluster = SimCluster::table2(AppProfile::MatrixMult);
        let n = 20_000u64;
        let functional =
            simulate_mm(n, cluster.funcs(), &CombinedPartitioner::new()).unwrap();
        let single = SingleNumberPartitioner::at_size(workload::mm_elements(500) as f64);
        let single_run = simulate_mm(n, cluster.funcs(), &single).unwrap();
        assert!(
            functional.makespan < single_run.makespan,
            "functional {} vs single-number {}",
            functional.makespan,
            single_run.makespan
        );
    }

    #[test]
    fn parallel_sweep_matches_sequential_exactly() {
        let cluster = SimCluster::table2(AppProfile::MatrixMult);
        let n = 15_000u64;
        let seq = simulate_mm(n, cluster.funcs(), &CombinedPartitioner::new()).unwrap();
        let par = simulate_mm_par(n, cluster.funcs(), &CombinedPartitioner::new()).unwrap();
        assert_eq!(seq.layout, par.layout);
        for (a, b) in seq.times.iter().zip(&par.times) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(seq.makespan.to_bits(), par.makespan.to_bits());
    }

    #[test]
    fn explicit_distribution_is_respected() {
        let funcs = vec![ConstantSpeed::new(10.0), ConstantSpeed::new(10.0)];
        let dist = Distribution::new(vec![100, 300]);
        let r = simulate_mm_with_distribution(100, &funcs, dist).unwrap();
        assert_eq!(r.layout.row_counts(), &[25, 75]);
        assert!(r.times[1] > r.times[0]);
    }

    #[test]
    fn zero_speed_processor_gives_infinite_time_if_loaded() {
        struct Dead;
        impl SpeedFunction for Dead {
            fn speed(&self, _x: f64) -> f64 {
                0.0
            }
        }
        let funcs: Vec<Box<dyn SpeedFunction>> =
            vec![Box::new(ConstantSpeed::new(10.0)), Box::new(Dead)];
        let dist = Distribution::new(vec![50, 50]);
        let r = simulate_mm_with_distribution(10, &funcs, dist).unwrap();
        assert!(r.makespan.is_infinite());
    }
}
