//! The metrics registry: named atomic counters, gauges, and histograms.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, so 64 value buckets cover all of
/// `u64`.
pub const BUCKETS: usize = 65;

/// Bucket index for a recorded value.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive `(low, high)` value bounds of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        _ => (1 << (i - 1), (1 << i) - 1),
    }
}

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed value. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Replace the value.
    #[inline]
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adjust by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCore {
    pub(crate) buckets: [AtomicU64; BUCKETS],
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
    pub(crate) min: AtomicU64,
    pub(crate) max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A log₂-bucketed histogram of `u64` observations (typically span
/// durations in nanoseconds). Cloning shares the underlying cells.
///
/// Quantiles are bucket-midpoint estimates: exact to within a factor of 2,
/// which is plenty for "where does the time go" profiling while keeping
/// recording a single atomic increment.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let core = &*self.0;
        core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.min.fetch_min(value, Ordering::Relaxed);
        core.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a duration as nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn observe_duration(&self, d: Duration) {
        self.observe(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Run `f` and record its wall time; returns what `f` returns.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.observe_duration(start.elapsed());
        out
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Smallest observed value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        match self.0.min.load(Ordering::Relaxed) {
            u64::MAX if self.count() == 0 => None,
            v => Some(v),
        }
    }

    /// Largest observed value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.0.max.load(Ordering::Relaxed))
        }
    }

    /// Estimated value at quantile `q ∈ [0, 1]` (`None` when empty).
    ///
    /// Returns the midpoint of the bucket containing the rank-`⌈q·n⌉`
    /// observation, clamped to the observed min/max.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                let mid = lo + (hi - lo) / 2;
                let lo_clamp = self.min().unwrap_or(mid);
                let hi_clamp = self.max().unwrap_or(mid);
                return Some(mid.clamp(lo_clamp, hi_clamp));
            }
        }
        self.max()
    }
}

/// A thread-local, non-atomic histogram for contended hot loops: workers
/// record into their own `LocalHistogram` and merge once per chunk,
/// turning per-item atomic traffic into one merge per thread.
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LocalHistogram {
    /// A fresh, empty local histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Record a duration as nanoseconds.
    #[inline]
    pub fn record_duration(&mut self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Observations recorded locally.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fold this local histogram into a shared one, leaving `self` empty.
    pub fn merge_into(&mut self, shared: &Histogram) {
        if self.count == 0 {
            return;
        }
        let core = &*shared.0;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b > 0 {
                core.buckets[i].fetch_add(b, Ordering::Relaxed);
            }
        }
        core.count.fetch_add(self.count, Ordering::Relaxed);
        core.sum.fetch_add(self.sum, Ordering::Relaxed);
        core.min.fetch_min(self.min, Ordering::Relaxed);
        core.max.fetch_max(self.max, Ordering::Relaxed);
        *self = Self::default();
    }
}

#[derive(Clone, Debug)]
pub(crate) enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named-metric registry. Cloning shares the underlying store, so a
/// `Registry` value is itself a cheap handle.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    pub(crate) metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
    pub(crate) events: Arc<crate::event::EventLog>,
}

impl Registry {
    /// An empty registry with its own event log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            // dox-lint:allow(panic-hygiene) documented contract: kind mismatch is programmer error
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.metrics.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            // dox-lint:allow(panic-hygiene) documented contract: kind mismatch is programmer error
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// The histogram named `name`, created on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = self.metrics.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.clone(),
            // dox-lint:allow(panic-hygiene) documented contract: kind mismatch is programmer error
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// The structured event log attached to this registry.
    pub fn events(&self) -> &crate::event::EventLog {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every value lands inside its bucket's bounds.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 40, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn histogram_quantiles_track_the_data() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1000));
        // log2 buckets: estimates are within a factor of 2.
        let p50 = h.quantile(0.5).unwrap();
        assert!((250..=1000).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((500..=1000).contains(&p99), "p99 {p99}");
        assert!(h.quantile(0.0).unwrap() >= 1);
        assert_eq!(h.quantile(1.0).unwrap(), h.quantile(0.9999).unwrap());
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn concurrent_counter_increments_are_lossless() {
        let registry = Registry::new();
        let counter = registry.counter("hits");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let counter = counter.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(registry.counter("hits").get(), 80_000);
    }

    #[test]
    fn concurrent_histogram_observations_are_lossless() {
        let h = Histogram::default();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..5_000u64 {
                        h.observe(t * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 20_000);
    }

    #[test]
    fn local_histogram_merge_matches_direct_observation() {
        let direct = Histogram::default();
        let merged = Histogram::default();
        let mut local = LocalHistogram::new();
        for v in [0u64, 1, 5, 1000, 123_456, 1 << 40] {
            direct.observe(v);
            local.record(v);
        }
        local.merge_into(&merged);
        assert_eq!(local.count(), 0, "merge drains the local histogram");
        assert_eq!(direct.count(), merged.count());
        assert_eq!(direct.sum(), merged.sum());
        assert_eq!(direct.min(), merged.min());
        assert_eq!(direct.max(), merged.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(direct.quantile(q), merged.quantile(q));
        }
    }

    #[test]
    fn gauge_set_and_add() {
        let registry = Registry::new();
        let g = registry.gauge("depth");
        g.set(10);
        g.add(-3);
        assert_eq!(registry.gauge("depth").get(), 7);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("x");
        registry.histogram("x");
    }
}
