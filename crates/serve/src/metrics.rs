//! In-process metrics: lock-free counters, gauges and a log₂-bucketed
//! latency histogram, snapshotted on demand by the `stats` verb and dumped
//! once more on graceful shutdown.
//!
//! Everything is plain atomics — recording on the request path is a handful
//! of `fetch_add`s, never a lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::json::Json;

/// Microseconds since `started`, saturating: a latency sample.
pub fn elapsed_us(started: Instant) -> u64 {
    started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// Number of histogram buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` microseconds; the last bucket is a catch-all.
pub const HIST_BUCKETS: usize = 32;

/// A latency histogram over microseconds with power-of-two buckets.
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&self, micros: u64) {
        let idx = (63 - (micros.max(1)).leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(micros, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Approximate quantile (0..=1): the upper edge of the bucket holding
    /// the q-th sample. Exact to within a factor of 2 by construction.
    pub fn quantile_us(&self, q: f64) -> u64 {
        self.snapshot().quantile_us(q)
    }

    /// Adds every sample recorded in `other` into this histogram,
    /// bucket-wise. Exact because all histograms share the bucket layout.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let v = theirs.load(Ordering::Relaxed);
            if v > 0 {
                mine.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum_us.fetch_add(other.sum_us.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Plain-data copy of the current bucket contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(self.buckets.iter()) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }

    fn snapshot_json(&self) -> Json {
        self.snapshot().to_json()
    }
}

/// A point-in-time, plain-data histogram: what the `stats` verb carries
/// on the wire and what the router sums across shards. Bucket layout is
/// identical to [`Histogram`], so merging is a bucket-wise add — exact,
/// not an approximation over pre-computed quantiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (bucket `i` = `[2^i, 2^(i+1))` µs).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all recorded microseconds.
    pub sum_us: u64,
}

impl HistogramSnapshot {
    /// Reads a snapshot back from its wire form (the object written by
    /// [`HistogramSnapshot::to_json`]). Returns `None` when the `buckets`
    /// array is missing or malformed — e.g. a stats reply from a pre-merge
    /// server that only carried quantile edges.
    pub fn from_json(v: &Json) -> Option<Self> {
        let arr = match v.get("buckets") {
            Some(Json::Arr(items)) => items,
            _ => return None,
        };
        if arr.len() != HIST_BUCKETS {
            return None;
        }
        let mut buckets = [0u64; HIST_BUCKETS];
        for (out, item) in buckets.iter_mut().zip(arr.iter()) {
            *out = item.as_u64()?;
        }
        Some(HistogramSnapshot {
            buckets,
            count: v.get("count").and_then(Json::as_u64)?,
            sum_us: v.get("sum_us").and_then(Json::as_u64)?,
        })
    }

    /// Bucket-wise sum of `other` into `self`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Approximate quantile (0..=1): the upper edge of the bucket holding
    /// the q-th sample. Exact to within a factor of 2 by construction.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                // The catch-all bucket holds everything from 2^(HIST_BUCKETS-1)
                // up to u64::MAX, so its reported upper edge saturates rather
                // than pretending the tail stops at 2^HIST_BUCKETS µs.
                return if i == HIST_BUCKETS - 1 { u64::MAX } else { 1u64 << (i + 1) };
            }
        }
        u64::MAX
    }

    /// Wire form: the derived summary fields plus the raw buckets, so a
    /// downstream merger can reconstruct exact quantiles. Derived edges
    /// saturate at 2⁵³ (JSON's exact-integer ceiling); the buckets stay
    /// exact, so a parsed snapshot recomputes the true u64::MAX edge.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::uint(self.count)),
            ("mean_us".into(), Json::num(round2(self.mean_us()))),
            ("p50_us_le".into(), wire_uint(self.quantile_us(0.50))),
            ("p99_us_le".into(), wire_uint(self.quantile_us(0.99))),
            ("sum_us".into(), wire_uint(self.sum_us)),
            (
                "buckets".into(),
                Json::Arr(self.buckets.iter().map(|&b| Json::uint(b)).collect()),
            ),
        ])
    }
}

/// A name → value counter bag parsed back from a `stats` reply, used to
/// merge per-shard counters into cluster-wide totals. Keys keep the order
/// of first appearance so merged output stays stable across shards that
/// share the counter layout.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    entries: Vec<(String, u64)>,
}

impl Counters {
    /// Empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Collects every top-level unsigned-integer field of a stats object.
    /// Nested objects (like `partition_latency`) are skipped — they are
    /// merged structurally via [`HistogramSnapshot`].
    pub fn from_json(v: &Json) -> Self {
        let mut entries = Vec::new();
        if let Json::Obj(fields) = v {
            for (key, value) in fields {
                if let Some(n) = value.as_u64() {
                    entries.push((key.clone(), n));
                }
            }
        }
        Counters { entries }
    }

    /// Merges `other` into `self` by key: counters sum, peak gauges
    /// (`*_peak`) take the maximum. Keys new to `self` are appended.
    pub fn merge(&mut self, other: &Counters) {
        for (key, value) in &other.entries {
            match self.entries.iter_mut().find(|(k, _)| k == key) {
                Some((_, mine)) if key.ends_with("_peak") => *mine = (*mine).max(*value),
                Some((_, mine)) => *mine += value,
                None => self.entries.push((key.clone(), *value)),
            }
        }
    }

    /// Reads one counter by name.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.entries.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no counters were collected.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the bag back to a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(self.entries.iter().map(|(k, v)| (k.clone(), Json::uint(*v))).collect())
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// Renders a u64 that may legitimately exceed JSON's exact range (the
/// saturated catch-all quantile edge) by clamping at 2⁵³.
fn wire_uint(v: u64) -> Json {
    Json::uint(v.min(1u64 << 53))
}

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {
        /// All serve-layer counters and gauges.
        #[derive(Default)]
        pub struct Metrics {
            $($(#[$doc])* pub $name: AtomicU64,)*
            /// Partition-request latency (admission to reply).
            pub partition_latency: Histogram,
        }

        impl Metrics {
            /// Creates zeroed metrics.
            pub fn new() -> Self {
                Self::default()
            }

            /// Point-in-time snapshot as a JSON object.
            pub fn snapshot_json(&self) -> Json {
                Json::Obj(vec![
                    $((stringify!($name).into(),
                       Json::uint(self.$name.load(Ordering::Relaxed))),)*
                    ("partition_latency".into(), self.partition_latency.snapshot_json()),
                ])
            }
        }
    };
}

counters! {
    /// Total connections accepted.
    connections,
    /// Total request lines received (well-formed or not).
    requests,
    /// `register` requests handled.
    register_requests,
    /// `partition` requests handled.
    partition_requests,
    /// `partition_batch` requests handled (one per batch envelope).
    batch_requests,
    /// Individual sizes solved inside `partition_batch` envelopes.
    batch_sub_requests,
    /// `report` requests handled.
    report_requests,
    /// Reports accepted by the refiner (each one bumped a cluster epoch).
    refine_accepted,
    /// Reports rejected by the refiner (in-band, pending, outlier, …).
    refine_rejected,
    /// `stats` requests handled.
    stats_requests,
    /// `ping` requests handled.
    ping_requests,
    /// `shutdown` requests handled.
    shutdown_requests,
    /// Error responses sent (any code).
    errors,
    /// Requests rejected with `overloaded`.
    shed,
    /// Requests that missed their deadline.
    deadline_misses,
    /// Plan-cache hits.
    cache_hits,
    /// Plan-cache misses (this request computed).
    cache_misses,
    /// Plan-cache waits coalesced onto another request's computation.
    cache_coalesced,
    /// Cache misses solved warm: seeded from a donor plan's slope.
    warm_starts,
    /// Warm-start attempts whose seed failed to bracket (the solver fell
    /// back to the cold bracket construction).
    warm_start_fallbacks,
    /// Current engine queue depth (gauge).
    queue_depth,
    /// Peak engine queue depth observed.
    queue_depth_peak,
    /// Peak pipelining depth: most complete request lines drained from one
    /// connection in a single readable event.
    pipeline_depth_peak,
}

impl Metrics {
    /// Bumps a counter by one.
    pub fn inc(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adjusts the queue-depth gauge, maintaining the peak.
    pub fn queue_enter(&self) {
        let now = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Decrements the queue-depth gauge.
    pub fn queue_exit(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records the number of complete requests drained from one readable
    /// event, keeping the peak (1 = no pipelining on that event).
    pub fn observe_pipeline_depth(&self, depth: u64) {
        self.pipeline_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        for us in [1u64, 2, 3, 100, 1000, 1000, 1000, 100_000] {
            h.record(us);
        }
        assert_eq!(h.count(), 8);
        assert!(h.mean_us() > 0.0);
        // p50 of the 8 samples sits in the 1000 µs region: bucket upper
        // edge within a factor of two.
        let p50 = h.quantile_us(0.5);
        assert!((128..=2048).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_us(0.99);
        assert!(p99 >= 100_000, "p99 {p99}");
        // Zero micros must not underflow the bucket index.
        h.record(0);
        assert_eq!(h.count(), 9);
    }

    #[test]
    fn catch_all_bucket_reports_a_saturated_edge() {
        // A sample beyond 2^32 µs lands in the catch-all bucket; its
        // reported quantile edge must cover the sample instead of the old
        // wrapped-intent 2^32 edge.
        let h = Histogram::new();
        let big = (1u64 << 40) + 12345;
        h.record(big);
        let p50 = h.quantile_us(0.5);
        assert_eq!(p50, u64::MAX, "catch-all edge must saturate, got {p50}");
        assert!(p50 >= big);
        // Mixed with small samples the tail quantile still saturates.
        for _ in 0..9 {
            h.record(10);
        }
        assert!(h.quantile_us(0.5) < u64::MAX);
        assert_eq!(h.quantile_us(1.0), u64::MAX);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.quantile_us(0.99), 0);
    }

    #[test]
    fn snapshot_contains_every_counter() {
        let m = Metrics::new();
        m.inc(&m.requests);
        m.inc(&m.cache_hits);
        m.queue_enter();
        m.queue_enter();
        m.queue_exit();
        let snap = m.snapshot_json();
        assert_eq!(snap.get("requests").and_then(Json::as_u64), Some(1));
        assert_eq!(snap.get("cache_hits").and_then(Json::as_u64), Some(1));
        assert_eq!(snap.get("queue_depth").and_then(Json::as_u64), Some(1));
        assert_eq!(snap.get("queue_depth_peak").and_then(Json::as_u64), Some(2));
        assert!(snap.get("partition_latency").is_some());
        // Rendered form is a single JSON object line.
        let text = snap.to_string();
        assert!(text.starts_with('{') && text.ends_with('}'));
    }

    #[test]
    fn histogram_merge_is_bucketwise_exact() {
        let a = Histogram::new();
        let b = Histogram::new();
        for us in [1u64, 5, 100, 900] {
            a.record(us);
        }
        for us in [3u64, 1000, 1000, 250_000] {
            b.record(us);
        }
        a.merge(&b);
        // Merged totals equal a histogram that saw every sample directly.
        let all = Histogram::new();
        for us in [1u64, 5, 100, 900, 3, 1000, 1000, 250_000] {
            all.record(us);
        }
        assert_eq!(a.snapshot(), all.snapshot());
        assert_eq!(a.count(), 8);
        assert_eq!(a.quantile_us(0.5), all.quantile_us(0.5));
        assert_eq!(a.quantile_us(0.99), all.quantile_us(0.99));
    }

    #[test]
    fn merge_preserves_the_catch_all_saturated_edge() {
        // A shard whose tail sample lives in the catch-all bucket (the
        // u64::MAX edge fixed in the histogram quantile logic) must keep
        // that saturated edge after a cross-shard merge.
        let tail = Histogram::new();
        tail.record((1u64 << 45) + 7);
        let bulk = Histogram::new();
        for _ in 0..99 {
            bulk.record(10);
        }
        bulk.merge(&tail);
        assert_eq!(bulk.count(), 100);
        assert!(bulk.quantile_us(0.5) < u64::MAX);
        assert_eq!(bulk.quantile_us(1.0), u64::MAX, "catch-all edge must survive merge");
        // Same invariant through the plain-data snapshot path.
        let mut snap = bulk.snapshot();
        snap.merge(&tail.snapshot());
        assert_eq!(snap.quantile_us(1.0), u64::MAX);
        assert_eq!(snap.count, 101);
    }

    #[test]
    fn histogram_snapshot_round_trips_through_json() {
        let h = Histogram::new();
        for us in [2u64, 40, 40, 7_000, (1u64 << 40) + 1] {
            h.record(us);
        }
        let snap = h.snapshot();
        let wire = snap.to_json();
        // Wire form keeps the derived fields and the raw buckets.
        assert_eq!(wire.get("count").and_then(Json::as_u64), Some(5));
        assert!(wire.get("buckets").is_some());
        let back = HistogramSnapshot::from_json(&wire).expect("round trip");
        assert_eq!(back, snap);
        // Quantiles recomputed from the round-tripped buckets are exact.
        assert_eq!(back.quantile_us(0.99), snap.quantile_us(0.99));
        assert_eq!(back.quantile_us(1.0), u64::MAX);
        // A legacy reply without buckets is rejected, not misparsed.
        let legacy = Json::Obj(vec![
            ("count".into(), Json::uint(3)),
            ("p99_us_le".into(), Json::uint(128)),
        ]);
        assert!(HistogramSnapshot::from_json(&legacy).is_none());
    }

    #[test]
    fn counters_merge_sums_by_key() {
        let m = Metrics::new();
        m.inc(&m.requests);
        m.inc(&m.requests);
        m.inc(&m.cache_hits);
        let a = Counters::from_json(&m.snapshot_json());
        // Nested partition_latency is structural, not a counter.
        assert!(a.get("partition_latency").is_none());
        assert_eq!(a.get("requests"), Some(2));

        let m2 = Metrics::new();
        m2.inc(&m2.requests);
        m2.inc(&m2.errors);
        let mut merged = a.clone();
        merged.merge(&Counters::from_json(&m2.snapshot_json()));
        assert_eq!(merged.get("requests"), Some(3));
        assert_eq!(merged.get("cache_hits"), Some(1));
        assert_eq!(merged.get("errors"), Some(1));
        // Keys unseen by the first bag are appended, none are lost.
        assert_eq!(merged.len(), a.len());
        let back = merged.to_json();
        assert_eq!(back.get("requests").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn counters_merge_takes_the_maximum_of_peak_gauges() {
        // Three shards, each at pipeline depth 1 and queue depth 1: the
        // cluster's peaks are 1, while the current depths still sum.
        let mut merged = Counters::new();
        for _ in 0..3 {
            let m = Metrics::new();
            m.observe_pipeline_depth(1);
            m.queue_enter();
            merged.merge(&Counters::from_json(&m.snapshot_json()));
        }
        assert_eq!(merged.get("pipeline_depth_peak"), Some(1));
        assert_eq!(merged.get("queue_depth_peak"), Some(1));
        assert_eq!(merged.get("queue_depth"), Some(3));
        let deep = Metrics::new();
        deep.observe_pipeline_depth(8);
        merged.merge(&Counters::from_json(&deep.snapshot_json()));
        assert_eq!(merged.get("pipeline_depth_peak"), Some(8));
    }

    #[test]
    fn gauge_peak_is_monotone() {
        let m = Metrics::new();
        for _ in 0..5 {
            m.queue_enter();
        }
        for _ in 0..5 {
            m.queue_exit();
        }
        m.queue_enter();
        assert_eq!(m.queue_depth.load(Ordering::Relaxed), 1);
        assert_eq!(m.queue_depth_peak.load(Ordering::Relaxed), 5);
    }
}
