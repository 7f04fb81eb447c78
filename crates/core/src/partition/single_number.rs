//! The classical single-number baseline.
//!
//! Every pre-existing model the paper surveys (\[1\]–\[11\]) represents each
//! processor by one positive number and distributes elements proportionally
//! to it. The number is obtained by benchmarking every processor at one
//! common *reference size* — which is exactly the model's weakness: the
//! relative speeds measured at that size are wrong at any size where the
//! memory-hierarchy behaviour differs (paper Fig. 3), and the paper shows
//! the resulting distribution can even be *inversely* proportional to the
//! true speeds once paging sets in.
//!
//! The proportional floors leave an integer residue, which goes one element
//! at a time to the processor with the smallest post-assignment time. Paper
//! §2 quotes two complexities for that greedy: the naive incremental
//! `O(p²)` loop of reference \[6\] and the `O(p·log p)` refinement. This
//! module runs the refinement, the fine-tuning's residue routine (`O(p)`
//! selection, or a heap when one processor must take two elements). The
//! naive loop lives on in `fpm-testkit` as the reference its residue
//! differential checks this one against.

use super::fine_tune::assign_residue;
use super::problem::{empty_report, validate_processors, Distribution, PartitionReport,
                     Partitioner};
use crate::cost::CostFunction;
use crate::error::{Error, Result};
use crate::trace::Trace;

/// Partitioner using the single-number performance model.
#[derive(Debug, Clone, Copy)]
pub struct SingleNumberPartitioner {
    /// Problem size at which every processor's speed is sampled to obtain
    /// its single number (the paper's experiments use e.g. the speed of a
    /// 500×500 or 4000×4000 matrix multiplication).
    pub reference_size: f64,
}

impl SingleNumberPartitioner {
    /// Creates a partitioner sampling speeds at `reference_size` elements.
    pub fn at_size(reference_size: f64) -> Self {
        assert!(
            reference_size.is_finite() && reference_size > 0.0,
            "reference size must be positive and finite"
        );
        Self { reference_size }
    }

    /// Partitions using explicit constant speeds (already-sampled numbers).
    pub fn partition_with_speeds(&self, n: u64, speeds: &[f64]) -> Result<Distribution> {
        if speeds.is_empty() {
            return Err(Error::NoProcessors);
        }
        if speeds.iter().any(|s| !(s.is_finite() && *s >= 0.0)) {
            return Err(Error::InvalidSpeedFunction {
                processor: speeds
                    .iter()
                    .position(|s| !(s.is_finite() && *s >= 0.0))
                    .unwrap_or(0),
                reason: "single-number speeds must be non-negative and finite",
            });
        }
        let mut total_speed: f64 = speeds.iter().sum();
        if total_speed <= 0.0 {
            return Err(Error::InvalidSpeedFunction {
                processor: 0,
                reason: "at least one processor must have positive speed",
            });
        }
        // Speeds near `f64::MAX` can sum to infinity, which would zero every
        // floor below and hand all of n to the residue loop. One common
        // power-of-two scale keeps the proportions; a finite total keeps
        // the scale at 1, which leaves every product bit for bit.
        let mut scale = 1.0;
        if total_speed.is_infinite() {
            scale = 2f64.powi(-128);
            total_speed = speeds.iter().map(|&s| s * scale).sum();
        }
        // Proportional floors, then residue assignment. Above 2⁵³ `n as f64`
        // can round up, so the floors may sum past `n` (or past `u64::MAX`);
        // capping each floor at what is left of `n` keeps the sum ≤ n and
        // the residue within the rounding error.
        let mut assigned = 0u64;
        let mut counts: Vec<u64> = speeds
            .iter()
            .map(|&s| {
                let floor =
                    ((n as f64 * (s * scale) / total_speed).floor() as u64).min(n - assigned);
                assigned += floor;
                floor
            })
            .collect();
        // The residue goes to the smallest post-assignment times
        // `(x_i+1)/s_i`, ties (times that overflow to ∞ included) to the
        // lower index.
        assign_residue(&mut counts, n - assigned, |i, c| {
            (speeds[i] > 0.0).then(|| c.saturating_add(1) as f64 / speeds[i])
        })
        .expect("positive total speed guarantees candidates");
        Ok(Distribution::new(counts))
    }
}

impl Partitioner for SingleNumberPartitioner {
    fn partition<F: CostFunction>(&self, n: u64, funcs: &[F]) -> Result<PartitionReport> {
        validate_processors(funcs)?;
        if n == 0 {
            return Ok(empty_report(funcs.len()));
        }
        let speeds: Vec<f64> =
            funcs.iter().map(|f| f.throughput(self.reference_size).max(0.0)).collect();
        let distribution = self.partition_with_speeds(n, &speeds)?;
        // Makespan is evaluated under the *functional* model: the whole
        // point of the paper's comparison is that the single-number
        // distribution is executed on machines whose true speed varies with
        // the received size.
        Ok(PartitionReport::from_distribution(distribution, funcs, Trace::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speed::{AnalyticSpeed, ConstantSpeed};

    #[test]
    fn proportional_for_constant_speeds() {
        let funcs = vec![ConstantSpeed::new(100.0), ConstantSpeed::new(50.0)];
        let r = SingleNumberPartitioner::at_size(1000.0).partition(300, &funcs).unwrap();
        assert_eq!(r.distribution.counts(), &[200, 100]);
        assert_eq!(r.distribution.total(), 300);
    }

    #[test]
    fn residue_ties_overflowing_times_to_the_lower_index() {
        // Subnormal speeds: every post-assignment time is ∞.
        let d = SingleNumberPartitioner::at_size(1.0)
            .partition_with_speeds(3, &[1e-310, 1e-310])
            .unwrap();
        assert_eq!(d.counts(), &[2, 1]);
    }

    #[test]
    fn residue_lands_on_fastest() {
        let speeds = vec![10.0, 10.0, 10.0, 1000.0];
        let d = SingleNumberPartitioner::at_size(1.0)
            .partition_with_speeds(7, &speeds)
            .unwrap();
        assert_eq!(d.total(), 7);
        assert!(d.counts()[3] >= 6, "fast processor takes nearly everything: {d:?}");
    }

    #[test]
    fn zero_speed_processors_get_nothing() {
        let speeds = vec![0.0, 50.0];
        let d = SingleNumberPartitioner::at_size(1.0)
            .partition_with_speeds(10, &speeds)
            .unwrap();
        assert_eq!(d.counts(), &[0, 10]);
    }

    #[test]
    fn all_zero_speeds_error() {
        let e = SingleNumberPartitioner::at_size(1.0)
            .partition_with_speeds(10, &[0.0, 0.0])
            .unwrap_err();
        assert!(matches!(e, Error::InvalidSpeedFunction { .. }));
    }

    #[test]
    fn reference_size_matters_for_functional_targets() {
        // One machine pages beyond 1e6 elements, the other never does. A
        // small reference size makes the pager look fast; at a large
        // reference it looks slow — the distributions must differ.
        let funcs = vec![
            AnalyticSpeed::paging(300.0, 1e6, 3.0),
            AnalyticSpeed::constant(100.0),
        ];
        let small = SingleNumberPartitioner::at_size(1e4).partition(4_000_000, &funcs).unwrap();
        let large = SingleNumberPartitioner::at_size(8e6).partition(4_000_000, &funcs).unwrap();
        assert!(
            small.distribution.counts()[0] > large.distribution.counts()[0],
            "small ref: {:?}, large ref: {:?}",
            small.distribution,
            large.distribution
        );
    }

    #[test]
    fn empty_processors_rejected() {
        let funcs: Vec<ConstantSpeed> = vec![];
        assert!(matches!(
            SingleNumberPartitioner::at_size(1.0).partition(10, &funcs),
            Err(Error::NoProcessors)
        ));
    }

    #[test]
    fn conserves_elements_above_the_f64_integer_range() {
        // `n as f64` rounds above 2⁵³ (up, at 2⁶⁰−1 and u64::MAX−1), so the
        // proportional floors can sum past n, or past u64::MAX.
        let cases: [(u64, &[f64]); 8] = [
            ((1 << 53) + 1, &[3.0, 1.0]),
            ((1 << 60) - 1, &[3.0, 1.0]),
            ((1 << 60) - 1, &[1.0, 1.0, 1.0]),
            (u64::MAX - 1, &[1.0]),
            (u64::MAX - 1, &[1.0, 1.0]),
            (u64::MAX, &[1.0]),
            (u64::MAX, &[5.0, 1.0]),
            // Speeds whose sum overflows to infinity.
            (1 << 53, &[f64::MAX, f64::MAX]),
        ];
        for (n, speeds) in cases {
            let d = SingleNumberPartitioner::at_size(1.0).partition_with_speeds(n, speeds).unwrap();
            let total = d.counts().iter().try_fold(0u64, |acc, &c| acc.checked_add(c));
            assert_eq!(total, Some(n), "n = {n}, speeds {speeds:?}");
        }
    }

    #[test]
    fn n_zero_gives_empty_distribution() {
        let funcs = vec![ConstantSpeed::new(1.0)];
        let r = SingleNumberPartitioner::at_size(1.0).partition(0, &funcs).unwrap();
        assert_eq!(r.distribution.counts(), &[0]);
    }
}
