//! Memoizing wrapper for cost functions — the per-run cache the solvers
//! wrap every model in, and the only memoizer in the crate.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use super::function::CostFunction;

/// Multiply-shift hasher for the cache's `u64` bit-pattern keys.
///
/// The keys are raw IEEE-754 bit patterns — already high-entropy in the
/// mantissa — so the DoS-resistant SipHash of the default `HashMap` only
/// adds latency: the cache sits on the hot path of every probe and the
/// fine-tuning heap issues thousands of them per solve. One Fibonacci
/// multiply mixes the bits plenty for open addressing.
#[derive(Default)]
struct BitsHasher(u64);

impl Hasher for BitsHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type BitsMap = HashMap<u64, f64, BuildHasherDefault<BitsHasher>>;

/// A [`CostFunction`] decorator that memoizes `time(x)` and
/// `throughput(x)` per abscissa.
///
/// The partitioners probe each processor at the same abscissas many
/// times over (bracket shrinking re-evaluates intersections, the
/// fine-tuning heap queries `time()` at the same `2p` integer candidates
/// repeatedly), so each distinct abscissa is computed once and replayed.
/// Keys are the raw IEEE-754 bits of `x`, and the replayed value *is*
/// the inner function's output, so memoization is bit-invisible.
///
/// Two independent channels are kept — one for `time`, one for
/// `throughput` — because a cost model's two views are separate
/// computations: caching one as a derived form of the other would
/// change the floating-point path for speed-backed models (whose
/// `throughput` is the raw `speed(x)`, not `x / time(x)`). The derived
/// [`rate`](CostFunction::rate) is left to the default
/// `throughput(x) / x`, exactly as the speed-domain solver computed it.
///
/// Borrows its inner function (`&F`), matching how solvers build one
/// wrapper per processor per run over a caller-owned slice.
///
/// The wrapper is deliberately **not** `Sync` (single-threaded
/// `RefCell` interior, one wrapper per solver run):
///
/// ```compile_fail
/// fn assert_sync<T: Sync>() {}
/// assert_sync::<fpm_core::cost::CachedCost<'static, fpm_core::speed::ConstantSpeed>>();
/// ```
#[derive(Debug)]
pub struct CachedCost<'a, F: ?Sized> {
    inner: &'a F,
    times: RefCell<BitsMap>,
    throughputs: RefCell<BitsMap>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl<'a, F: CostFunction + ?Sized> CachedCost<'a, F> {
    /// Wraps `inner` with empty caches.
    pub fn new(inner: &'a F) -> Self {
        Self {
            inner,
            times: RefCell::new(BitsMap::default()),
            throughputs: RefCell::new(BitsMap::default()),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// The wrapped function.
    pub fn inner(&self) -> &F {
        self.inner
    }

    /// Number of probes (either channel) answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Number of probes that had to evaluate the inner function.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Drops all memoized entries and resets the counters.
    pub fn clear(&self) {
        self.times.borrow_mut().clear();
        self.throughputs.borrow_mut().clear();
        self.hits.set(0);
        self.misses.set(0);
    }
}

impl<F: CostFunction + ?Sized> CostFunction for CachedCost<'_, F> {
    fn time(&self, x: f64) -> f64 {
        let key = x.to_bits();
        if let Some(&t) = self.times.borrow().get(&key) {
            self.hits.set(self.hits.get() + 1);
            return t;
        }
        let t = self.inner.time(x);
        self.misses.set(self.misses.get() + 1);
        self.times.borrow_mut().insert(key, t);
        t
    }

    fn max_size(&self) -> f64 {
        self.inner.max_size()
    }

    fn throughput(&self, x: f64) -> f64 {
        let key = x.to_bits();
        if let Some(&s) = self.throughputs.borrow().get(&key) {
            self.hits.set(self.hits.get() + 1);
            return s;
        }
        let s = self.inner.throughput(x);
        self.misses.set(self.misses.get() + 1);
        self.throughputs.borrow_mut().insert(key, s);
        s
    }

    fn intersect_slope(&self, slope: f64) -> Option<f64> {
        self.inner.intersect_slope(slope)
    }

    fn has_closed_form(&self) -> bool {
        self.inner.has_closed_form()
    }

    fn speed_knots(&self) -> Option<&[(f64, f64)]> {
        self.inner.speed_knots()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speed::{AnalyticSpeed, PiecewiseLinearSpeed, SpeedFunction};

    #[test]
    fn caches_repeated_probes_per_channel() {
        let inner = AnalyticSpeed::decreasing(200.0, 1e6, 2.0);
        let f = CachedCost::new(&inner);
        let a = f.time(1234.5);
        let b = f.time(1234.5);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(f.misses(), 1);
        assert_eq!(f.hits(), 1);
        // The throughput channel is independent: same abscissa misses once.
        let s1 = f.throughput(1234.5);
        let s2 = f.throughput(1234.5);
        assert_eq!(s1.to_bits(), s2.to_bits());
        assert_eq!(f.misses(), 2);
        assert_eq!(f.hits(), 2);
    }

    #[test]
    fn replays_speed_backed_models_bit_identically() {
        let inner = AnalyticSpeed::unimodal(250.0, 1e4, 5e6, 2.0);
        let cost = CachedCost::new(&inner);
        for _round in 0..2 {
            for k in 0..200 {
                let x = 10f64.powf(k as f64 * 0.04);
                assert_eq!(cost.throughput(x).to_bits(), inner.speed(x).to_bits());
                assert_eq!(cost.rate(x).to_bits(), (inner.speed(x) / x).to_bits());
                assert_eq!(cost.time(x).to_bits(), SpeedFunction::time(&inner, x).to_bits());
            }
        }
        // Two channels × 200 abscissas, each missed once.
        assert_eq!(cost.misses(), 400);
    }

    #[test]
    fn forwards_structure_queries() {
        let inner = PiecewiseLinearSpeed::new(vec![(10.0, 100.0), (1000.0, 50.0)]).unwrap();
        let f = CachedCost::new(&inner);
        assert_eq!(
            CostFunction::max_size(&f),
            SpeedFunction::max_size(&inner)
        );
        assert_eq!(
            CostFunction::intersect_slope(&f, 1e-3),
            SpeedFunction::intersect_slope(&inner, 1e-3)
        );
    }

    #[test]
    fn clear_resets_counters() {
        let inner = AnalyticSpeed::constant(10.0);
        let f = CachedCost::new(&inner);
        let _ = f.time(1.0);
        let _ = f.throughput(1.0);
        f.clear();
        assert_eq!(f.hits(), 0);
        assert_eq!(f.misses(), 0);
        let _ = f.time(1.0);
        assert_eq!(f.misses(), 1);
    }

    #[test]
    fn wraps_erased_cost_objects() {
        let inner = AnalyticSpeed::constant(10.0);
        let erased: &dyn CostFunction = &inner;
        let f = CachedCost::new(erased);
        assert_eq!(f.time(5.0).to_bits(), CostFunction::time(&inner, 5.0).to_bits());
    }
}
