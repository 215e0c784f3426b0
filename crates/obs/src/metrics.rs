//! Wait-free metric primitives: [`Counter`], [`Gauge`], and the
//! power-of-two [`Histogram`] (generalized from `rrc-serve`'s original
//! crate-private `LatencyHistogram`).
//!
//! Everything here is designed for hot paths: recording is a handful of
//! relaxed atomic `fetch_add`s (plus one `fetch_max` for histograms),
//! never a lock, never an allocation. Reading goes through cheap
//! plain-data snapshots ([`HistogramSnapshot`]) so repeated quantile
//! queries touch no atomics at all.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of power-of-two buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))`, except bucket 63 which absorbs the tail.
pub const BUCKETS: usize = 64;

/// A monotonically increasing event counter. `inc`/`add` are single
/// relaxed `fetch_add`s — wait-free from any thread.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depth, shard count, uptime).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket, wait-free histogram over `u64` values.
///
/// Power-of-two buckets trade resolution (quantiles are exact only to
/// within a factor of two; reported values use the geometric mean of the
/// winning bucket, clamped to the observed maximum) for a `record` that
/// is two relaxed `fetch_add`s and one `fetch_max` with no allocation —
/// the right trade for per-request and per-step instrumentation. Values
/// are unitless; latency users record nanoseconds via
/// [`Histogram::record_duration`].
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    /// Sum of recorded values (wrapping; overflows after ~584 years of
    /// summed nanoseconds).
    sum: AtomicU64,
    /// Largest recorded value.
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// `floor(log2(max(v, 1)))`: the bucket holding `v`.
#[inline]
fn bucket_index(value: u64) -> usize {
    (63 - value.max(1).leading_zeros()) as usize
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample. Wait-free; callable from any thread.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record an elapsed time as nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, elapsed: Duration) {
        self.record(elapsed.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Total samples recorded. One pass over the buckets; prefer
    /// [`Histogram::snapshot`] when quantiles are also needed.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Capture the bucket counts once; every quantile/mean/max query on
    /// the returned [`HistogramSnapshot`] is then atomics- and
    /// allocation-free. Concurrent `record`s may straddle the capture —
    /// the snapshot is consistent enough for monitoring, never torn
    /// per-bucket.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Start a timer that records its elapsed nanoseconds here on drop.
    pub fn timer(&self) -> HistogramTimer<'_> {
        HistogramTimer {
            histogram: self,
            start: Instant::now(),
        }
    }
}

/// RAII timer: records elapsed nanoseconds into its histogram on drop.
#[derive(Debug)]
pub struct HistogramTimer<'a> {
    histogram: &'a Histogram,
    start: Instant,
}

impl HistogramTimer<'_> {
    /// Time elapsed so far (the drop will record the final value).
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Stop explicitly and return the recorded duration.
    pub fn stop(self) -> Duration {
        let elapsed = self.start.elapsed();
        // Drop records; just return what it will see (re-measured time
        // differs by nanoseconds at most).
        elapsed
    }
}

impl Drop for HistogramTimer<'_> {
    fn drop(&mut self) {
        self.histogram.record_duration(self.start.elapsed());
    }
}

/// Plain-data capture of a [`Histogram`]: all queries are pure
/// arithmetic over the captured buckets — no atomic loads, no
/// allocation, no matter how many quantiles are asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Build a snapshot from raw parts (a report reader rebuilds an
    /// exported histogram this way). `count` is derived from the buckets
    /// so the two cannot disagree.
    pub fn from_parts(buckets: [u64; BUCKETS], sum: u64, max: u64) -> Self {
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum,
            max,
        }
    }

    /// Fold another population into this one, bucket by bucket — how
    /// per-shard series of one quantity become the engine-wide one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (acc, n) in self.buckets.iter_mut().zip(&other.buckets) {
            *acc = acc.saturating_add(*n);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// What was recorded between `base` and this capture of the same
    /// histogram: the bucket-by-bucket difference, so a reader holding two
    /// captures sees "lately" without the histogram keeping a window. The
    /// maximum of the difference is not recorded anywhere; it is bounded
    /// by the cumulative maximum and by the top of the highest bucket the
    /// difference still populates, and the smaller of the two is used.
    pub fn since(&self, base: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].saturating_sub(base.buckets[i]));
        let top = buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| ((1u128 << (i + 1)) - 1).min(u64::MAX as u128) as u64);
        HistogramSnapshot::from_parts(buckets, self.sum.wrapping_sub(base.sum), self.max.min(top))
    }

    /// Samples captured.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of captured values (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest captured value, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean captured value, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The value at quantile `q ∈ [0, 1]`, or `None` when empty.
    ///
    /// Returns the geometric midpoint of the bucket containing the
    /// quantile (within ×√2 of the true value), clamped to the observed
    /// maximum so the tail never reads above a real sample. The top rank
    /// (`q = 1.0`, and every `q` on a single-sample histogram) returns
    /// the exact observed maximum.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Geometric mean of [2^i, 2^(i+1)) = 2^i · √2.
                let mid = (1u128 << i) as f64 * std::f64::consts::SQRT_2;
                return Some((mid.min(u64::MAX as f64) as u64).min(self.max));
            }
        }
        unreachable!("rank is bounded by the captured total")
    }

    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// [`HistogramSnapshot::quantile`] as a [`Duration`] (for
    /// nanosecond-valued histograms).
    pub fn quantile_duration(&self, q: f64) -> Option<Duration> {
        self.quantile(q).map(Duration::from_nanos)
    }

    /// Raw bucket counts; bucket `i` covers `[2^i, 2^(i+1))`.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// `(lower_bound, count)` for each non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (1u64 << i, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(20);
        assert_eq!(g.get(), -5);
    }

    #[test]
    fn empty_histogram_has_no_quantiles_mean_or_max() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.quantile(0.5), None);
        assert_eq!(snap.mean(), None);
        assert_eq!(snap.max(), None);
    }

    #[test]
    fn quantile_bounds_q0_and_q1() {
        let h = Histogram::new();
        for v in [1u64, 10, 100, 1000, 10_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        // q=0 is the first sample's bucket; q=1 is clamped to max.
        assert_eq!(snap.quantile(0.0), Some(1));
        assert_eq!(snap.quantile(1.0), Some(10_000));
        assert!(snap.p50().unwrap() >= snap.quantile(0.0).unwrap());
        assert!(snap.p99().unwrap() <= snap.quantile(1.0).unwrap());
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn quantile_out_of_range_panics() {
        let _ = Histogram::new().snapshot().quantile(1.5);
    }

    #[test]
    fn single_sample_every_quantile_is_that_sample() {
        let h = Histogram::new();
        h.record(777);
        let snap = h.snapshot();
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), Some(777), "q={q}");
        }
        assert_eq!(snap.mean(), Some(777.0));
        assert_eq!(snap.max(), Some(777));
    }

    #[test]
    fn zero_valued_samples_land_in_bucket_zero() {
        let h = Histogram::new();
        h.record(0);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1);
        assert_eq!(snap.buckets()[0], 1);
        // Geometric midpoint √2 clamps to the observed max of 0.
        assert_eq!(snap.quantile(0.5), Some(0));
    }

    #[test]
    fn bucket_63_absorbs_the_tail_without_overflow() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 63);
        h.record((1u64 << 63) + 12345);
        let snap = h.snapshot();
        assert_eq!(snap.buckets()[63], 3);
        assert_eq!(snap.count(), 3);
        assert_eq!(snap.max(), Some(u64::MAX));
        // Mid-rank answers stay inside bucket 63 without overflowing…
        let p50 = snap.quantile(0.5).unwrap();
        assert!(p50 >= 1u64 << 63, "p50={p50}");
        // …and the top rank is the exact observed maximum.
        assert_eq!(snap.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn quantiles_bracket_true_values_within_a_bucket() {
        let h = Histogram::new();
        for micros in 1..=1000u64 {
            h.record_duration(Duration::from_micros(micros));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1000);
        let p50 = snap.quantile_duration(0.5).unwrap();
        // True median is 500µs; a power-of-two bucket answer must land in
        // [256µs, 1024µs], and the geometric-mid rule within ×√2.
        assert!(p50 >= Duration::from_micros(256), "p50={p50:?}");
        assert!(p50 <= Duration::from_micros(1024), "p50={p50:?}");
        let p99 = snap.quantile_duration(0.99).unwrap();
        assert!(p99 >= p50);
        let mean = snap.mean().unwrap();
        assert!((mean - 500_500.0).abs() < 1.0, "mean={mean}");
    }

    #[test]
    fn timer_records_on_drop() {
        let h = Histogram::new();
        {
            let t = h.timer();
            std::hint::black_box(());
            assert!(t.elapsed() < Duration::from_secs(1));
        }
        assert_eq!(h.count(), 1);
        let stopped = {
            let t = h.timer();
            t.stop()
        };
        assert_eq!(h.count(), 2);
        assert!(stopped < Duration::from_secs(1));
    }

    #[test]
    fn concurrent_record_while_snapshotting_stays_consistent() {
        let h = Arc::new(Histogram::new());
        const WRITERS: usize = 4;
        const PER_WRITER: u64 = 20_000;
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        h.record((w as u64 * PER_WRITER + i) % 1_000_000 + 1);
                    }
                })
            })
            .collect();
        // Snapshot continuously while writers hammer the histogram:
        // counts must be monotone and every snapshot internally sane.
        let mut last_count = 0u64;
        loop {
            let snap = h.snapshot();
            assert!(
                snap.count() >= last_count,
                "count went backwards: {} -> {}",
                last_count,
                snap.count()
            );
            last_count = snap.count();
            if snap.count() > 0 {
                let p50 = snap.quantile(0.5).unwrap();
                assert!(p50 <= snap.max.max(1), "p50 beyond max");
            }
            if writers.iter().all(|t| t.is_finished()) {
                break;
            }
        }
        for t in writers {
            t.join().unwrap();
        }
        let end = h.snapshot();
        assert_eq!(end.count(), (WRITERS as u64) * PER_WRITER);
        assert!(end.mean().unwrap() > 0.0);
        assert!(end.max().unwrap() <= 1_000_000);
    }
}
