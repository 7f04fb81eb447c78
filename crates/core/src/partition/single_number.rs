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
//! Two rounding variants are provided, matching the complexities quoted in
//! paper §2: the naive incremental `O(p²)` algorithm of reference \[6\] and
//! the `O(p·log p)` refinement, here the fine-tuning's residue routine
//! (`O(p)` selection, or a heap when one processor must take two
//! elements).

use super::fine_tune::assign_residue;
use super::problem::{empty_report, validate_processors, Distribution, PartitionReport,
                     Partitioner};
use crate::cost::CostFunction;
use crate::error::{Error, Result};
use crate::trace::Trace;

/// How the proportional distribution's integer residue is assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoundingVariant {
    /// Scan all processors for each residue element (`O(p²)`), the naive
    /// implementation of reference \[6\].
    Naive,
    /// The same greedy in `O(p·log p)` or better: the residue goes to the
    /// processors with the smallest post-assignment times, picked by
    /// selection in `O(p)` when none of them must take two elements, else
    /// through a binary heap (the fine-tuning's residue routine). The
    /// plan is always the heap's.
    #[default]
    Heap,
}

/// Partitioner using the single-number performance model.
#[derive(Debug, Clone, Copy)]
pub struct SingleNumberPartitioner {
    /// Problem size at which every processor's speed is sampled to obtain
    /// its single number (the paper's experiments use e.g. the speed of a
    /// 500×500 or 4000×4000 matrix multiplication).
    pub reference_size: f64,
    /// Rounding variant.
    pub variant: RoundingVariant,
}

impl SingleNumberPartitioner {
    /// Creates a partitioner sampling speeds at `reference_size` elements.
    pub fn at_size(reference_size: f64) -> Self {
        assert!(
            reference_size.is_finite() && reference_size > 0.0,
            "reference size must be positive and finite"
        );
        Self { reference_size, variant: RoundingVariant::default() }
    }

    /// Selects the rounding variant.
    pub fn with_variant(mut self, variant: RoundingVariant) -> Self {
        self.variant = variant;
        self
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
        let residue = n - assigned;
        match self.variant {
            RoundingVariant::Naive => naive_residue(&mut counts, speeds, residue),
            RoundingVariant::Heap => {
                assign_residue(&mut counts, residue, |i, c| {
                    (speeds[i] > 0.0).then(|| c.saturating_add(1) as f64 / speeds[i])
                })
                .expect("positive total speed guarantees candidates");
            }
        }
        Ok(Distribution::new(counts))
    }
}

/// The naive `O(p²)` residue loop: for each remaining element scan all
/// processors for the one minimising the post-assignment time `(x_i+1)/s_i`,
/// in the heap's order (`total_cmp`, then index), so times that overflow
/// to ∞ still go to the lower index.
fn naive_residue(counts: &mut [u64], speeds: &[f64], residue: u64) {
    for _ in 0..residue {
        let (_, best) = counts
            .iter()
            .zip(speeds)
            .enumerate()
            .filter(|&(_, (_, &s))| s > 0.0)
            .map(|(i, (&c, &s))| (c.saturating_add(1) as f64 / s, i))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .expect("positive total speed guarantees candidates");
        counts[best] += 1;
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
    fn naive_and_heap_agree() {
        let speeds = vec![33.0, 77.0, 11.0, 59.0, 101.0];
        for n in [1u64, 7, 100, 999, 12345] {
            let naive = SingleNumberPartitioner::at_size(1.0)
                .with_variant(RoundingVariant::Naive)
                .partition_with_speeds(n, &speeds)
                .unwrap();
            let heap = SingleNumberPartitioner::at_size(1.0)
                .with_variant(RoundingVariant::Heap)
                .partition_with_speeds(n, &speeds)
                .unwrap();
            assert_eq!(naive, heap, "variants diverge at n = {n}");
        }
        // Seeded speeds: up to 300 machines, speed ratios up to 10⁴, sizes
        // up to 2⁶⁰, where rounding can leave a residue beyond p.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5146_1E00_0001);
        for case in 0..120 {
            let p = rng.gen_range(1..=300usize);
            let ratio = 10f64.powf(rng.gen_range(0.0..=4.0));
            let speeds: Vec<f64> = (0..p).map(|_| rng.gen_range(1.0..=ratio)).collect();
            let n = 2f64.powf(rng.gen_range(0.0..=60.0)) as u64;
            let [naive, heap] = [RoundingVariant::Naive, RoundingVariant::Heap].map(|variant| {
                SingleNumberPartitioner::at_size(1.0)
                    .with_variant(variant)
                    .partition_with_speeds(n, &speeds)
                    .unwrap()
            });
            assert_eq!(naive, heap, "case {case}: p = {p}, n = {n}, ratio {ratio}");
        }
        // Extreme speeds: subnormal ones, whose times overflow to ∞, and
        // ones near `f64::MAX`, whose sum does.
        let extremes: [&[f64]; 5] = [
            &[1e-310, 1e-310],
            &[5e-324, 1e-310, 2.5e-308],
            &[1e-310, 1.0, 0.0],
            &[f64::MAX, f64::MAX / 3.0, 1.0],
            &[f64::MAX, 5e-324],
        ];
        for speeds in extremes {
            for n in [1u64, 2, 3, 17, 1000, 1 << 40] {
                let [naive, heap] = [RoundingVariant::Naive, RoundingVariant::Heap].map(|variant| {
                    SingleNumberPartitioner::at_size(1.0)
                        .with_variant(variant)
                        .partition_with_speeds(n, speeds)
                        .unwrap()
                });
                assert_eq!(naive, heap, "speeds {speeds:?}, n = {n}");
            }
        }
    }

    #[test]
    fn naive_residue_ties_overflowing_times_to_the_lower_index() {
        // Subnormal speeds: every post-assignment time is ∞.
        for variant in [RoundingVariant::Naive, RoundingVariant::Heap] {
            let d = SingleNumberPartitioner::at_size(1.0)
                .with_variant(variant)
                .partition_with_speeds(3, &[1e-310, 1e-310])
                .unwrap();
            assert_eq!(d.counts(), &[2, 1], "{variant:?}");
        }
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
            for variant in [RoundingVariant::Naive, RoundingVariant::Heap] {
                let d = SingleNumberPartitioner::at_size(1.0)
                    .with_variant(variant)
                    .partition_with_speeds(n, speeds)
                    .unwrap();
                let total = d.counts().iter().try_fold(0u64, |acc, &c| acc.checked_add(c));
                assert_eq!(total, Some(n), "{variant:?} at n = {n}, speeds {speeds:?}");
            }
        }
    }

    #[test]
    fn n_zero_gives_empty_distribution() {
        let funcs = vec![ConstantSpeed::new(1.0)];
        let r = SingleNumberPartitioner::at_size(1.0).partition(0, &funcs).unwrap();
        assert_eq!(r.distribution.counts(), &[0]);
    }
}
