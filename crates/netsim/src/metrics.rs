//! Simulation metrics: counters, log-bucketed histograms, and a registry.
//!
//! All collections use `BTreeMap` so that iteration (and therefore any report
//! built from a registry) is deterministic.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Number of linear sub-buckets per power-of-two bucket group.
const SUB_BUCKETS: usize = 16;
const SUB_BUCKET_BITS: u32 = 4;
/// Total bucket count: 16 linear buckets + 60 exponent groups x 16 sub-buckets.
const BUCKETS: usize = 61 * SUB_BUCKETS;

/// A log-linear histogram of `u64` samples (HDR-histogram style).
///
/// Values are bucketed with ~6% relative resolution across the full `u64`
/// range, which is ample for latency (nanoseconds) and size (bytes) data.
///
/// # Examples
///
/// ```
/// use metaclass_netsim::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1_000, 2_000, 3_000, 100_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(50.0) >= 2_000);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram { counts: vec![0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    fn bucket_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros();
        let sub = ((value >> (exp - SUB_BUCKET_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
        ((exp - SUB_BUCKET_BITS + 1) as usize) * SUB_BUCKETS + sub
    }

    /// Upper bound (inclusive) of values mapping to `bucket`.
    fn bucket_upper(bucket: usize) -> u64 {
        if bucket < SUB_BUCKETS {
            return bucket as u64;
        }
        let group = (bucket / SUB_BUCKETS) as u32 + SUB_BUCKET_BITS - 1;
        let sub = (bucket % SUB_BUCKETS) as u128;
        let base = 1u128 << group;
        let step = 1u128 << (group - SUB_BUCKET_BITS);
        u64::try_from(base + (sub + 1) * step - 1).unwrap_or(u64::MAX)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records `n` identical samples in one step.
    ///
    /// Equivalent to calling [`Histogram::record`] `n` times; the flyweight
    /// population layer uses this to account for every pooled client without
    /// iterating over them. Recording zero samples is a no-op.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::bucket_of(value)] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of samples; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample; `0` when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample; `0` when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at percentile `p` (0–100), within bucket resolution (~6%).
    ///
    /// Returns `0` for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Resets the histogram to empty while keeping its bucket allocation,
    /// so accumulate-then-flush loops stay allocation-free.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// A compact numeric summary of the distribution.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            min: self.min(),
            p50: self.percentile(50.0),
            p90: self.percentile(90.0),
            p99: self.percentile(99.0),
            max: self.max(),
        }
    }
}

/// Summary statistics extracted from a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum sample.
    pub min: u64,
    /// Median (50th percentile).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum sample.
    pub max: u64,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} min={} p50={} p90={} p99={} max={}",
            self.count, self.mean, self.min, self.p50, self.p90, self.p99, self.max
        )
    }
}

impl Summary {
    /// Formats the summary interpreting samples as nanosecond durations.
    pub fn display_as_millis(&self) -> String {
        format!(
            "n={} mean={:.2}ms p50={:.2}ms p90={:.2}ms p99={:.2}ms max={:.2}ms",
            self.count,
            self.mean / 1e6,
            self.p50 as f64 / 1e6,
            self.p90 as f64 / 1e6,
            self.p99 as f64 / 1e6,
            self.max as f64 / 1e6,
        )
    }
}

/// A named collection of counters and histograms with deterministic iteration.
///
/// # Examples
///
/// ```
/// use metaclass_netsim::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new();
/// m.add("packets.sent", 3);
/// m.histogram("latency.ns").record(1_500);
/// assert_eq!(m.counter_value("packets.sent"), 3);
/// assert_eq!(m.histogram("latency.ns").count(), 1);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter, creating it at zero if absent.
    ///
    /// Steady-state increments are allocation-free: the owned key `String`
    /// is only built the first time a name is seen.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += delta;
        } else {
            self.counters.insert(name.to_owned(), delta);
        }
    }

    /// Increments the named counter by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of the named counter (zero if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, created empty on first access.
    ///
    /// Repeat access is allocation-free: the owned key `String` is only
    /// built the first time a name is seen.
    pub fn histogram(&mut self, name: &str) -> &mut Histogram {
        if !self.histograms.contains_key(name) {
            self.histograms.insert(name.to_owned(), Histogram::default());
        }
        self.histograms.get_mut(name).expect("just inserted")
    }

    /// The named histogram if it has been created.
    pub fn histogram_if_present(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merges another registry into this one (counters add, histograms merge).
    ///
    /// Like [`add`](Self::add), a key is cloned only the first time this
    /// registry sees it.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            self.add(k, *v);
        }
        for (k, h) in &other.histograms {
            self.histogram(k).merge(h);
        }
    }

    /// Sets every counter to zero and empties every histogram, keeping the
    /// keys and the bucket storage: a registry refilled after this allocates
    /// nothing for a name it held before. Merging it while still zeroed
    /// changes nothing in a registry that already holds all its names.
    pub(crate) fn zero(&mut self) {
        self.counters.values_mut().for_each(|v| *v = 0);
        self.histograms.values_mut().for_each(Histogram::clear);
    }

    /// A serializable point-in-time export of the registry: raw counter
    /// values plus a [`Summary`] per histogram, both in name order. This is
    /// the form consumed by JSON writers (sweep results, dashboards) — it is
    /// stable under merge order and cheap to diff.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            histograms: self.histograms.iter().map(|(k, h)| (k.clone(), h.summary())).collect(),
        }
    }
}

/// A serializable export of a [`MetricsRegistry`], produced by
/// [`MetricsRegistry::snapshot`].
///
/// Counter values are exact; histograms are reduced to their
/// [`Summary`] statistics. Iteration order (and therefore any serialized
/// form backed by these maps) is deterministic.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, Summary>,
}

impl MetricsSnapshot {
    /// A copy with every counter and histogram whose name starts with
    /// `prefix` removed. Identity comparisons between engine modes use
    /// `without_prefix("engine.")`: the `engine.` namespace describes the
    /// executor itself (op-pool reuse, shard windows), and is the only part
    /// of the registry allowed to differ between serial and sharded runs.
    pub fn without_prefix(&self, prefix: &str) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .filter(|(k, _)| !k.starts_with(prefix))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(k, _)| !k.starts_with(prefix))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        }
    }
}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.counters {
            writeln!(f, "{name}: {v}")?;
        }
        for (name, h) in &self.histograms {
            writeln!(f, "{name}: {}", h.summary())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_monotone() {
        let mut prev = 0;
        for b in 1..BUCKETS {
            let u = Histogram::bucket_upper(b);
            assert!(u >= prev, "bucket {b}: {u} < {prev}");
            prev = u;
        }
    }

    #[test]
    fn bucket_of_matches_upper_bound() {
        for v in [0u64, 1, 15, 16, 17, 100, 1_000, 123_456, u32::MAX as u64, 1 << 40] {
            let b = Histogram::bucket_of(v);
            assert!(Histogram::bucket_upper(b) >= v, "value {v} bucket {b}");
            if b > 0 {
                assert!(Histogram::bucket_upper(b - 1) < v, "value {v} bucket {b}");
            }
        }
    }

    #[test]
    fn percentile_relative_error_is_bounded() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for p in [10.0, 50.0, 90.0, 99.0] {
            let exact = (p / 100.0 * 10_000.0) as u64;
            let est = h.percentile(p);
            let rel = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(rel < 0.07, "p{p}: est {est} exact {exact}");
        }
    }

    #[test]
    fn empty_histogram_is_benign() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn merge_combines_distributions() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000);
    }

    #[test]
    fn merge_preserves_sum_count_and_buckets() {
        // Merging two histograms must be exactly equivalent to recording
        // every sample into one: bucket-wise add, sum/count/min/max intact.
        let samples_a = [3u64, 17, 250, 9_999];
        let samples_b = [1u64, 250, 1 << 20];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut reference = Histogram::new();
        for v in samples_a {
            a.record(v);
            reference.record(v);
        }
        for v in samples_b {
            b.record(v);
            reference.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), reference.count());
        assert_eq!(a.sum, reference.sum);
        assert_eq!(a.min(), reference.min());
        assert_eq!(a.max(), reference.max());
        assert_eq!(a.counts, reference.counts);
        assert_eq!(a.mean(), reference.mean());
        for p in [10.0, 50.0, 95.0, 99.0] {
            assert_eq!(a.percentile(p), reference.percentile(p));
        }
    }

    #[test]
    fn merging_an_empty_histogram_is_identity() {
        let mut a = Histogram::new();
        a.record(42);
        let before = a.summary();
        a.merge(&Histogram::new());
        assert_eq!(a.summary(), before);
        // And empty ← non-empty adopts the other's extremes.
        let mut empty = Histogram::new();
        empty.merge(&a);
        assert_eq!(empty.min(), 42);
        assert_eq!(empty.max(), 42);
    }

    #[test]
    fn registry_counters_and_merge() {
        let mut a = MetricsRegistry::new();
        a.inc("x");
        a.add("x", 2);
        let mut b = MetricsRegistry::new();
        b.add("x", 10);
        b.histogram("h").record(5);
        a.merge(&b);
        assert_eq!(a.counter_value("x"), 13);
        assert_eq!(a.histogram("h").count(), 1);
        assert_eq!(a.counter_value("never"), 0);
    }

    #[test]
    fn a_zeroed_registry_merges_as_a_no_op_into_one_holding_its_keys() {
        let mut lane = MetricsRegistry::new();
        lane.add("net.dropped.loss", 4);
        lane.histogram("rtt_ns").record(1_500);
        let mut world = MetricsRegistry::new();
        world.add("net.sent", 9);
        world.merge(&lane);
        lane.zero();
        assert_eq!(lane.counter_value("net.dropped.loss"), 0);
        assert!(lane.histogram_if_present("rtt_ns").is_some_and(Histogram::is_empty));
        let before = world.snapshot();
        world.merge(&lane);
        assert_eq!(world.snapshot(), before);
    }

    #[test]
    fn snapshot_exports_counters_and_summaries() {
        let mut m = MetricsRegistry::new();
        m.add("pkts", 7);
        m.histogram("lat").record(1_000);
        m.histogram("lat").record(3_000);
        let snap = m.snapshot();
        assert_eq!(snap.counters.get("pkts"), Some(&7));
        let lat = snap.histograms.get("lat").expect("histogram exported");
        assert_eq!(lat.count, 2);
        assert_eq!(lat.min, 1_000);
        assert_eq!(lat.max, 3_000);
        // Snapshot of a merge equals merge of snapshots' sources.
        let mut other = MetricsRegistry::new();
        other.add("pkts", 3);
        other.histogram("lat").record(2_000);
        m.merge(&other);
        let merged = m.snapshot();
        assert_eq!(merged.counters.get("pkts"), Some(&10));
        assert_eq!(merged.histograms.get("lat").unwrap().count, 3);
    }

    #[test]
    fn without_prefix_strips_the_engine_namespace_only() {
        let mut a = MetricsRegistry::new();
        a.add("delivered", 5);
        a.add("engine.shard.windows", 3);
        a.add("engine.ops_pool.hit", 9);
        a.histogram("rtt_ns").record(1_000);
        a.histogram("engine.shard.events_per_window").record(40);

        // Engine counters obey the ordinary merge rules (summed, histograms
        // pooled) — reassembly folds lane registries through `merge`.
        let mut b = MetricsRegistry::new();
        b.add("engine.shard.windows", 2);
        b.histogram("engine.shard.events_per_window").record(60);
        a.merge(&b);
        assert_eq!(a.counter_value("engine.shard.windows"), 5);

        let world = a.snapshot().without_prefix("engine.");
        assert_eq!(world.counters.get("delivered"), Some(&5));
        assert!(world.counters.keys().all(|k| !k.starts_with("engine.")));
        assert!(world.histograms.contains_key("rtt_ns"));
        assert!(!world.histograms.contains_key("engine.shard.events_per_window"));
        // The unfiltered snapshot still carries the engine namespace.
        assert_eq!(a.snapshot().counters.get("engine.ops_pool.hit"), Some(&9));
    }

    #[test]
    fn summary_display_is_nonempty() {
        let mut h = Histogram::new();
        h.record(1_000_000);
        let s = h.summary();
        assert!(s.to_string().contains("n=1"));
        assert!(s.display_as_millis().contains("1.00ms"));
    }
}
