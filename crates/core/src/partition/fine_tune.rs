//! The fine-tuning procedure (paper Fig. 9).
//!
//! Once the iterative search stops — no integer-abscissa point of any graph
//! lies strictly inside the region between the bounding lines — the exact
//! optimal line generally crosses the graphs at non-integer sizes. The
//! paper then considers the `2p` integer points nearest the two lines,
//! ranks their execution times (`O(p·log p)` with a comparison sort) and
//! picks the best consistent integer allocation.
//!
//! This implementation generalises the procedure slightly so that it is
//! robust to arbitrary rounding residue: starting from the floor of every
//! lower intersection it hands out the remaining `r = n − Σ⌊lo_i⌋`
//! elements one at a time, always to the processor whose *post-increment*
//! execution time (its *key*) is smallest, ties to the lower index (a
//! greedy, optimal for min-max objectives with increasing per-processor
//! time functions). If the floors overshoot `n`, elements are removed
//! through a heap from the processors with the largest current time.
//!
//! The greedy needs no heap when no processor takes two elements
//! ([`assign_residue`]). Every processor's key is evaluated once, and the
//! `r` smallest keys, ordered by time (`total_cmp`) and then index, are
//! picked by selection in `O(p)`. Then each pick's *following* key, its
//! time after a second element, is evaluated. If every following key lies
//! strictly above the `r`-th key in that order, the picks are exactly the
//! greedy's first `r` choices: before each choice the candidates are the
//! unpicked keys and the following keys, all above the `r`-th key, and
//! the picks not yet taken, all at or below it, so the smallest pick left
//! is taken next. Otherwise (`r` exceeds the candidates, or a processor
//! must take two elements) a binary heap built from the keys already
//! evaluated runs the greedy, in `O((p + r)·log p)`. The selection path
//! evaluates the `p + r` times the heap alone would; the heap after a
//! failed check spends up to `r` more. A converged bracket leaves `r < p`,
//! so the usual cost is `O(p)`, below the paper's sort.
//!
//! The times at the final counts of the processors that took a residue
//! element are the keys of their last element, so the report's makespan
//! ([`Tuned::into_report`]) evaluates only the other processors, folding
//! the same values in the same order as [`Distribution::makespan`].

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use super::problem::{Distribution, PartitionReport};
use crate::cost::CostFunction;
use crate::error::{Error, Result};
use crate::trace::Trace;

/// Total-ordering wrapper for `f64` keys. Paired with a processor index,
/// it orders keys by `total_cmp`, then index: the greedy's order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Hands `residue` elements to `counts` one at a time, each to the
/// processor with the smallest key `next(i, c)`, its cost of taking
/// element `c + 1` (`None` when it can take no more), ties to the lower
/// index. Shared by fine-tuning and the single-number baseline; the module
/// docs explain the selection and when the heap takes over.
///
/// Returns the key of each receiving processor's last element, paired with
/// its index, or `None` when the candidates run out first.
pub(crate) fn assign_residue(
    counts: &mut [u64],
    residue: u64,
    next: impl Fn(usize, u64) -> Option<f64>,
) -> Option<Vec<(f64, usize)>> {
    if residue == 0 {
        return Some(Vec::new());
    }
    let mut keys: Vec<(OrdF64, usize)> = counts
        .iter()
        .enumerate()
        .filter_map(|(i, &c)| Some((OrdF64(next(i, c)?), i)))
        .collect();
    let r = usize::try_from(residue).unwrap_or(usize::MAX);
    if r <= keys.len() {
        let threshold = *keys.select_nth_unstable(r - 1).1;
        let picks = &keys[..r];
        let exact = picks
            .iter()
            .all(|&(_, i)| next(i, counts[i] + 1).map_or(true, |f| (OrdF64(f), i) > threshold));
        if exact {
            for &(_, i) in picks {
                counts[i] += 1;
            }
            keys.truncate(r);
            return Some(keys.into_iter().map(|(OrdF64(k), i)| (k, i)).collect());
        }
    }
    let mut heap: BinaryHeap<Reverse<(OrdF64, usize)>> = keys.into_iter().map(Reverse).collect();
    let mut last = vec![None; counts.len()];
    for _ in 0..residue {
        let Reverse((OrdF64(k), i)) = heap.pop()?;
        counts[i] += 1;
        last[i] = Some(k);
        if let Some(f) = next(i, counts[i]) {
            heap.push(Reverse((OrdF64(f), i)));
        }
    }
    Some(last.into_iter().enumerate().filter_map(|(i, k)| Some((k?, i))).collect())
}

/// A fine-tuned plan and the execution times fine-tuning evaluated at its
/// final counts.
#[derive(Debug)]
pub(crate) struct Tuned {
    pub(crate) distribution: Distribution,
    /// `time_i(x_i)` of each processor that took a residue element.
    known: Vec<Option<f64>>,
}

impl Tuned {
    /// The plan's report. Its makespan folds the same times in the same
    /// order as [`Distribution::makespan`], so it has the same bits, but
    /// evaluates only the processors whose time is not known yet.
    pub(crate) fn into_report<F: CostFunction>(self, funcs: &[F], trace: Trace) -> PartitionReport {
        let Tuned { distribution, known } = self;
        let makespan = distribution
            .counts()
            .iter()
            .zip(funcs)
            .zip(known)
            .map(|((&x, f), t)| t.unwrap_or_else(|| f.time(x as f64)))
            .fold(0.0, f64::max);
        PartitionReport { distribution, makespan, trace }
    }
}

/// Fine-tunes the steeper bounding line's real-valued intersections into
/// the best integer allocation with `Σ x_i = n`.
///
/// `lo` holds those intersection abscissas, one per graph. The greedy
/// starts from their floors (module docs), so it needs no shallower line.
pub fn fine_tune<F: CostFunction>(n: u64, funcs: &[F], lo: &[f64]) -> Distribution {
    tune(n, funcs, lo).distribution
}

/// [`fine_tune`], keeping the times it evaluated for the report.
pub(crate) fn tune<F: CostFunction>(n: u64, funcs: &[F], lo: &[f64]) -> Tuned {
    fine_tune_capped(n, funcs, lo, None).expect("uncapped fine-tuning cannot run out of capacity")
}

/// Cap-aware variant used by the bounded formulation: no processor may
/// exceed its `caps` entry.
///
/// # Errors
///
/// [`Error::InsufficientCapacity`] if `Σ caps < n`.
pub(crate) fn fine_tune_capped<F: CostFunction>(
    n: u64,
    funcs: &[F],
    lo: &[f64],
    caps: Option<&[u64]>,
) -> Result<Tuned> {
    let p = funcs.len();
    assert_eq!(lo.len(), p, "lower bounds length mismatch");
    if let Some(caps) = caps {
        assert_eq!(caps.len(), p, "caps length mismatch");
        let capacity: u64 = caps.iter().fold(0u64, |acc, &c| acc.saturating_add(c));
        if capacity < n {
            return Err(Error::InsufficientCapacity { requested: n, available: capacity });
        }
    }
    let cap_of = |i: usize| caps.map_or(u64::MAX, |c| c[i]);

    // Starting point: the floor of every lower intersection, capped.
    let mut counts: Vec<u64> = (0..p)
        .map(|i| (lo[i].max(0.0).floor() as u64).min(cap_of(i)))
        .collect();
    let mut assigned: u64 = counts.iter().sum();
    let mut known = vec![None; p];

    if assigned < n {
        let next = |i: usize, c: u64| (c < cap_of(i)).then(|| funcs[i].time((c + 1) as f64));
        let Some(last) = assign_residue(&mut counts, n - assigned, next) else {
            let capacity: u64 = counts.iter().sum();
            return Err(Error::InsufficientCapacity { requested: n, available: capacity });
        };
        for (t, i) in last {
            known[i] = Some(t);
        }
    } else if assigned > n {
        // Remove the overshoot from the processors with the largest times.
        let mut heap: BinaryHeap<(OrdF64, usize)> = (0..p)
            .filter(|&i| counts[i] > 0)
            .map(|i| (OrdF64(funcs[i].time(counts[i] as f64)), i))
            .collect();
        while assigned > n {
            let (_, i) = heap.pop().expect("assigned > n ≥ 0 implies a non-empty heap");
            counts[i] -= 1;
            assigned -= 1;
            if counts[i] > 0 {
                heap.push((OrdF64(funcs[i].time(counts[i] as f64)), i));
            }
        }
    }

    debug_assert_eq!(counts.iter().sum::<u64>(), n);
    Ok(Tuned { distribution: Distribution::new(counts), known })
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::partition::search::fig21_cluster;
    use crate::partition::{oracle, CombinedPartitioner, Partitioner};
    use crate::speed::{ConstantSpeed, PiecewiseLinearSpeed};

    /// Counts the `time` evaluations of the model it wraps.
    struct CountingTime<'a> {
        inner: &'a PiecewiseLinearSpeed,
        calls: &'a Cell<u64>,
    }

    impl CostFunction for CountingTime<'_> {
        fn time(&self, x: f64) -> f64 {
            self.calls.set(self.calls.get() + 1);
            CostFunction::time(self.inner, x)
        }
        fn max_size(&self) -> f64 {
            CostFunction::max_size(self.inner)
        }
    }

    #[test]
    fn converged_residue_evaluates_what_the_heap_did_and_the_makespan_the_rest() {
        // The real optimum as both bounds is a converged bracket: it
        // leaves the ~p/2 residue a converged search leaves.
        let (p, n) = (1080, 2_000_000_000u64);
        let cluster = fig21_cluster(p);
        let (xs, _) = oracle::solve_real(n, &cluster).unwrap();
        let r = n - xs.iter().map(|x| x.floor() as u64).sum::<u64>();
        assert!(r > 100 && r < p as u64, "residue {r}");
        let calls = Cell::new(0);
        let counting: Vec<CountingTime<'_>> =
            cluster.iter().map(|inner| CountingTime { inner, calls: &calls }).collect();

        // Each machine's key, then each pick's following key: p + r, as
        // the heap's fill and pushes.
        let tuned = tune(n, &counting, &xs);
        assert_eq!(calls.get(), p as u64 + r);
        calls.set(0);
        let report = tuned.into_report(&counting, Trace::default());
        assert_eq!(calls.get(), p as u64 - r, "only machines without a residue element");
        assert_eq!(report.makespan.to_bits(), report.distribution.makespan(&cluster).to_bits());
        assert_eq!(report.distribution, fine_tune(n, &cluster, &xs));
    }

    #[test]
    fn search_reports_carry_the_plans_makespan_bits() {
        let (p, n) = (1080, 2_000_000_000u64);
        let cluster = fig21_cluster(p);
        let combined = CombinedPartitioner::new();
        let cold = combined.partition(n, &cluster).unwrap();
        let warm = combined.resolve_from(&cold.distribution, n + n / 1000, &cluster).unwrap();
        let paper = combined.partition_explain(n, &cluster).unwrap().0;
        let reference = oracle::solve(n, &cluster).unwrap();
        for report in [cold, warm, paper, reference] {
            let plan = report.distribution.makespan(&cluster);
            assert_eq!(report.makespan.to_bits(), plan.to_bits());
        }
    }

    #[test]
    fn exact_floors_need_no_adjustment() {
        let funcs = vec![ConstantSpeed::new(10.0), ConstantSpeed::new(20.0)];
        let d = fine_tune(30, &funcs, &[10.0, 20.0]);
        assert_eq!(d.counts(), &[10, 20]);
    }

    #[test]
    fn residue_goes_to_fastest() {
        // lo sums to 28, two residue elements must land on the faster
        // processor whose incremental time is lower.
        let funcs = vec![ConstantSpeed::new(10.0), ConstantSpeed::new(1000.0)];
        let d = fine_tune(30, &funcs, &[9.3, 18.7]);
        assert_eq!(d.total(), 30);
        assert_eq!(d.counts()[1], 21, "both extra elements on the fast machine: {:?}", d);
    }

    #[test]
    fn overshoot_is_removed_from_slowest() {
        let funcs = vec![ConstantSpeed::new(1.0), ConstantSpeed::new(100.0)];
        // floors sum to 40 but n = 30: the slow machine must shed load.
        let d = fine_tune(30, &funcs, &[20.0, 20.0]);
        assert_eq!(d.total(), 30);
        assert!(d.counts()[0] < d.counts()[1]);
    }

    #[test]
    fn minimises_makespan_on_equal_speeds() {
        let funcs: Vec<ConstantSpeed> = (0..4).map(|_| ConstantSpeed::new(10.0)).collect();
        let d = fine_tune(10, &funcs, &[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(d.total(), 10);
        let max = d.counts().iter().max().unwrap();
        let min = d.counts().iter().min().unwrap();
        assert!(max - min <= 1, "equal speeds must split near-evenly: {:?}", d);
    }

    #[test]
    fn caps_are_respected() {
        let funcs = vec![ConstantSpeed::new(100.0), ConstantSpeed::new(1.0)];
        let d = fine_tune_capped(20, &funcs, &[15.0, 1.0], Some(&[12, 100]))
            .unwrap()
            .distribution;
        assert_eq!(d.total(), 20);
        assert!(d.counts()[0] <= 12);
    }

    #[test]
    fn insufficient_caps_error() {
        let funcs = vec![ConstantSpeed::new(1.0), ConstantSpeed::new(1.0)];
        let e = fine_tune_capped(100, &funcs, &[1.0, 1.0], Some(&[10, 10]))
            .unwrap_err();
        assert!(matches!(e, Error::InsufficientCapacity { available: 20, .. }));
    }

    #[test]
    fn zero_n_gives_zero_distribution() {
        let funcs = vec![ConstantSpeed::new(1.0)];
        let d = fine_tune(0, &funcs, &[0.0]);
        assert_eq!(d.counts(), &[0]);
    }

    #[test]
    fn large_residue_is_handled() {
        // Bounding intervals far from n still converge (robustness beyond
        // the paper's 2p-candidate assumption).
        let funcs = vec![ConstantSpeed::new(3.0), ConstantSpeed::new(7.0)];
        let d = fine_tune(1000, &funcs, &[0.0, 0.0]);
        assert_eq!(d.total(), 1000);
        // Proportional to speeds: 300/700.
        assert!((d.counts()[0] as i64 - 300).abs() <= 1);
    }

    #[test]
    fn fewer_elements_than_processors_idles_the_slow_ones() {
        // n < p: only the fastest machines may receive an element.
        let funcs: Vec<ConstantSpeed> =
            [1.0, 50.0, 2.0, 40.0, 3.0, 60.0].iter().map(|&s| ConstantSpeed::new(s)).collect();
        let lo = [0.0; 6];
        let d = fine_tune(3, &funcs, &lo);
        assert_eq!(d.total(), 3);
        assert_eq!(
            d.counts(),
            &[0, 1, 0, 1, 0, 1],
            "the three fastest machines take one element each"
        );
    }

    #[test]
    fn zero_n_with_positive_floors_sheds_everything() {
        // The bounding intersections may be far above an n of zero (a
        // degenerate bracket); every element must be shed.
        let funcs = vec![ConstantSpeed::new(5.0), ConstantSpeed::new(9.0)];
        let d = fine_tune(0, &funcs, &[2.9, 3.7]);
        assert_eq!(d.counts(), &[0, 0]);
    }

    #[test]
    fn equal_time_ties_break_deterministically() {
        // Two identical machines, odd n: (k, k+1) and (k+1, k) have equal
        // makespan. The choice must be deterministic across runs and still
        // optimal.
        let funcs = vec![ConstantSpeed::new(10.0), ConstantSpeed::new(10.0)];
        let first = fine_tune(7, &funcs, &[3.2, 3.2]);
        let second = fine_tune(7, &funcs, &[3.2, 3.2]);
        assert_eq!(first, second, "tie-breaking must be deterministic");
        assert_eq!(first.total(), 7);
        assert_eq!(first.makespan(&funcs), 0.4, "one machine takes 4, the other 3");
        // More broadly: residue ties on a flat cluster fill the lowest
        // indices first (heap keys carry the index as tie-breaker).
        let flat: Vec<ConstantSpeed> = (0..5).map(|_| ConstantSpeed::new(10.0)).collect();
        let d = fine_tune(7, &flat, &[1.0; 5]);
        assert_eq!(d.counts(), &[2, 2, 1, 1, 1]);
    }

    #[test]
    fn beats_naive_floor_and_ceil_roundings() {
        use crate::partition::oracle;
        // Heterogeneous cluster with a fractional real optimum: the greedy
        // integer fine-tuning must be at least as good as rounding every
        // real abscissa down (dumping the deficit on the first machine) or
        // up (shedding the surplus from the last machine) — and strictly
        // better than at least one of them.
        let funcs = vec![ConstantSpeed::new(1.0), ConstantSpeed::new(100.0)];
        let n = 102u64;
        let (xs, _) = oracle::solve_real(n, &funcs).unwrap();
        assert!(xs.iter().any(|x| x.fract() > 1e-6), "optimum must be fractional: {xs:?}");

        let tuned = fine_tune(n, &funcs, &xs);
        assert_eq!(tuned.total(), n);

        let mut floor: Vec<u64> = xs.iter().map(|x| x.floor() as u64).collect();
        floor[0] += n - floor.iter().sum::<u64>(); // deficit on machine 0
        let mut ceil: Vec<u64> = xs.iter().map(|x| x.ceil() as u64).collect();
        let surplus = ceil.iter().sum::<u64>() - n;
        let last = ceil.len() - 1;
        ceil[last] -= surplus.min(ceil[last]); // surplus off the last machine

        let makespan = |c: &[u64]| Distribution::new(c.to_vec()).makespan(&funcs);
        let m_tuned = tuned.makespan(&funcs);
        let (m_floor, m_ceil) = (makespan(&floor), makespan(&ceil));
        assert!(m_tuned <= m_floor + 1e-12, "tuned {m_tuned} vs floor {m_floor}");
        assert!(m_tuned <= m_ceil + 1e-12, "tuned {m_tuned} vs ceil {m_ceil}");
        assert!(
            m_tuned < m_floor - 1e-12 || m_tuned < m_ceil - 1e-12,
            "tuned {m_tuned} must strictly beat a naive rounding ({m_floor}, {m_ceil})"
        );
    }
}
