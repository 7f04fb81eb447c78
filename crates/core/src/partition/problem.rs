//! Problem and solution types shared by all partitioning algorithms.

use crate::error::{Error, Result};
use crate::cost::CostFunction;
use crate::trace::Trace;

/// An integer allocation of set elements to processors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Distribution {
    counts: Vec<u64>,
}

impl Distribution {
    /// Creates a distribution from per-processor element counts.
    pub fn new(counts: Vec<u64>) -> Self {
        Self { counts }
    }

    /// Per-processor element counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of processors.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether there are no processors.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total number of elements distributed.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Execution time of each processor under its cost model:
    /// `t_i = time_i(x_i)` (for speed-backed models, `x_i / s_i(x_i)`).
    pub fn times<F: CostFunction>(&self, funcs: &[F]) -> Vec<f64> {
        assert_eq!(self.counts.len(), funcs.len(), "distribution/processor count mismatch");
        self.counts.iter().zip(funcs).map(|(&x, f)| f.time(x as f64)).collect()
    }

    /// Parallel execution time: the maximum per-processor time (the paper's
    /// cost model excludes communication, §1).
    pub fn makespan<F: CostFunction>(&self, funcs: &[F]) -> f64 {
        self.times(funcs).into_iter().fold(0.0, f64::max)
    }

    /// Load-imbalance ratio: slowest over fastest non-idle processor time.
    /// Returns `1.0` for perfectly balanced distributions and when at most
    /// one processor is active.
    pub fn imbalance<F: CostFunction>(&self, funcs: &[F]) -> f64 {
        let times: Vec<f64> =
            self.times(funcs).into_iter().filter(|&t| t > 0.0).collect();
        if times.len() < 2 {
            return 1.0;
        }
        let max = times.iter().cloned().fold(f64::MIN, f64::max);
        let min = times.iter().cloned().fold(f64::MAX, f64::min);
        if min <= 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }
}

/// Outcome of a partitioning run: the distribution plus diagnostics.
#[derive(Debug, Clone)]
pub struct PartitionReport {
    /// The integer allocation found.
    pub distribution: Distribution,
    /// Parallel execution time of the allocation under the model.
    pub makespan: f64,
    /// Iteration trace (empty for non-iterative algorithms).
    pub trace: Trace,
}

impl PartitionReport {
    pub(crate) fn from_distribution<F: CostFunction>(
        distribution: Distribution,
        funcs: &[F],
        trace: Trace,
    ) -> Self {
        let makespan = distribution.makespan(funcs);
        Self { distribution, makespan, trace }
    }
}

/// A data-partitioning algorithm over the functional performance model
/// (any [`CostFunction`]; speed functions adapt via `time(x) = x/s(x)`).
pub trait Partitioner {
    /// Partitions `n` elements over the processors described by `funcs`.
    ///
    /// Returns the allocation, its makespan and the iteration trace.
    ///
    /// # Errors
    ///
    /// * [`Error::NoProcessors`] for an empty processor list;
    /// * [`Error::InsufficientCapacity`] when bounded speed models cannot
    ///   absorb `n` elements;
    /// * [`Error::NoConvergence`] if the iterative search exceeds its step
    ///   budget.
    fn partition<F: CostFunction>(&self, n: u64, funcs: &[F]) -> Result<PartitionReport>;

    /// Partitions `n` elements, warm-started from a previous solution.
    ///
    /// Implementations reconstruct the optimal slope of `prev` (the
    /// distribution of a near-duplicate problem — slightly different `n`
    /// or slightly perturbed models) and seed a tight bracket around it,
    /// falling back to the cold path when the seed fails to bracket. The
    /// result must be **bit-identical** to a cold [`Partitioner::partition`]
    /// on the same `(n, funcs)`; only the trace may differ.
    ///
    /// The default implementation simply runs the cold path, so algorithms
    /// without a meaningful warm start stay correct automatically.
    ///
    /// # Errors
    ///
    /// Same contract as [`Partitioner::partition`].
    fn resolve_from<F: CostFunction>(
        &self,
        prev: &Distribution,
        n: u64,
        funcs: &[F],
    ) -> Result<PartitionReport> {
        let _ = prev;
        self.partition(n, funcs)
    }
}

/// Reconstructs the optimal-line slope of a previous solution: the median
/// of `rate_i(x_i) = 1/time_i(x_i)` over the machines that received work
/// (for speed-backed models the literal `s_i(x_i)/x_i`).
///
/// On the optimal line every loaded machine's point `(x_i, s_i(x_i))` lies
/// (up to integer rounding) on `y = c·x`, so each loaded machine votes for
/// the slope and the median discards the rounding outliers (and, after a
/// model refit, the machines whose functions moved most). Returns `None`
/// when no machine yields a positive finite vote — callers then take the
/// cold path.
pub fn seed_slope<F: CostFunction>(prev: &Distribution, funcs: &[F]) -> Option<f64> {
    if prev.len() != funcs.len() {
        return None;
    }
    let mut votes: Vec<f64> = prev
        .counts()
        .iter()
        .zip(funcs)
        .filter(|&(&x, _)| x > 0)
        .map(|(&x, f)| f.rate(x as f64))
        .filter(|s| s.is_finite() && *s > 0.0)
        .collect();
    if votes.is_empty() {
        return None;
    }
    // Median by selection: the same element a full `total_cmp` sort would
    // put at the middle index, at `O(p)` instead of `O(p·log p)`.
    let mid = votes.len() / 2;
    let (_, median, _) = votes.select_nth_unstable_by(mid, f64::total_cmp);
    Some(*median)
}

/// The warm-start seed for re-solving `n` elements from the donor plan
/// `prev`: its [`seed_slope`], rescaled to the new size.
pub(crate) fn donor_seed<F: CostFunction>(prev: &Distribution, n: u64, funcs: &[F]) -> Option<f64> {
    // First-order rescale for the new size: the donor's slope balanced
    // `prev.total()` elements and the balanced total is inversely
    // proportional to the slope for locally flat graphs (exactly so for
    // constant speeds), so `seed·prev_total/n` centres the ε-bracket on
    // the expected optimum instead of on the donor's. `prev.total() > 0`
    // whenever the seed exists, and steeper-than-flat graphs only move
    // the optimum further in the same direction, which the bracket
    // widening covers.
    seed_slope(prev, funcs).map(|seed| seed * (prev.total() as f64 / n as f64))
}

/// Shared argument validation: non-empty processor list.
pub(crate) fn validate_processors<F: CostFunction>(funcs: &[F]) -> Result<()> {
    if funcs.is_empty() {
        return Err(Error::NoProcessors);
    }
    Ok(())
}

/// The trivial all-zeros report for `n = 0`.
pub(crate) fn empty_report(p: usize) -> PartitionReport {
    PartitionReport {
        distribution: Distribution::new(vec![0; p]),
        makespan: 0.0,
        trace: Trace::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speed::ConstantSpeed;

    #[test]
    fn distribution_accessors() {
        let d = Distribution::new(vec![3, 5, 2]);
        assert_eq!(d.total(), 10);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert_eq!(d.counts(), &[3, 5, 2]);
    }

    #[test]
    fn times_and_makespan() {
        let funcs = vec![ConstantSpeed::new(10.0), ConstantSpeed::new(5.0)];
        let d = Distribution::new(vec![20, 20]);
        let times = d.times(&funcs);
        assert_eq!(times, vec![2.0, 4.0]);
        assert_eq!(d.makespan(&funcs), 4.0);
        assert_eq!(d.imbalance(&funcs), 2.0);
    }

    #[test]
    fn balanced_distribution_has_unit_imbalance() {
        let funcs = vec![ConstantSpeed::new(10.0), ConstantSpeed::new(5.0)];
        let d = Distribution::new(vec![20, 10]);
        assert!((d.imbalance(&funcs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idle_processors_are_ignored_by_imbalance() {
        let funcs =
            vec![ConstantSpeed::new(10.0), ConstantSpeed::new(5.0), ConstantSpeed::new(1.0)];
        let d = Distribution::new(vec![20, 10, 0]);
        assert!((d.imbalance(&funcs) - 1.0).abs() < 1e-12);
        let solo = Distribution::new(vec![20, 0, 0]);
        assert_eq!(solo.imbalance(&funcs), 1.0);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_lengths_panic() {
        let funcs = vec![ConstantSpeed::new(10.0)];
        Distribution::new(vec![1, 2]).times(&funcs);
    }

    #[test]
    fn empty_report_is_all_zero() {
        let r = empty_report(4);
        assert_eq!(r.distribution.counts(), &[0, 0, 0, 0]);
        assert_eq!(r.makespan, 0.0);
    }
}
