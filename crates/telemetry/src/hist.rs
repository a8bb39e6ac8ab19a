//! Lock-free log-linear latency histograms.
//!
//! The layout is the classic HDR-histogram compromise: the first
//! `2^LINEAR_BITS` buckets are exact (one per value), and every later
//! octave is split into `2^LINEAR_BITS` linear sub-buckets, giving a
//! bounded relative error of `2^-LINEAR_BITS` (~6% at 4 bits) across the
//! full `u64` range in under 8 KiB of counters. Recording is a single
//! relaxed `fetch_add` on the bucket plus one on the running sum — no CAS
//! loops, no locks — so a histogram can sit on the tracer's fast path
//! without becoming the thing it is measuring.

use core::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::CachePadded;

use crate::snapshot::LatencySummary;

/// Sub-bucket resolution: each octave is split into `2^LINEAR_BITS`
/// buckets, bounding relative quantile error at `2^-LINEAR_BITS`.
const LINEAR_BITS: u32 = 4;
const M: u64 = 1 << LINEAR_BITS; // sub-buckets per octave

/// Total bucket count: `M` exact buckets for values `< M`, then
/// `M` sub-buckets for each of the `64 - LINEAR_BITS` remaining octaves.
pub const NUM_BUCKETS: usize = (M + (64 - LINEAR_BITS) as u64 * M) as usize;

/// Maps a value to its bucket index.
#[inline]
fn bucket_index(value: u64) -> usize {
    if value < M {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros(); // >= LINEAR_BITS
    let mantissa = (value >> (exp - LINEAR_BITS)) & (M - 1);
    (M + (exp - LINEAR_BITS) as u64 * M + mantissa) as usize
}

/// Largest value that maps to bucket `index` (the conservative bound
/// reported for quantiles).
fn bucket_upper_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < M {
        return index;
    }
    let b = index - M;
    let exp = (b / M) as u32 + LINEAR_BITS;
    let mantissa = b % M;
    let width = 1u64 << (exp - LINEAR_BITS);
    ((M + mantissa) << (exp - LINEAR_BITS)) + (width - 1)
}

/// A lock-free log-linear histogram of `u64` samples (typically
/// nanoseconds).
///
/// Concurrent [`record`](Histogram::record) calls are safe from any number
/// of threads; all operations use relaxed ordering, so a concurrent
/// [`snapshot`](Histogram::snapshot) sees some valid prefix of the
/// recorded samples, and counts are never lost.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    /// Running sum of recorded values, for the mean. May transiently
    /// disagree with the buckets under concurrency; both are exact once
    /// writers quiesce.
    sum: AtomicU64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample. Lock-free: two relaxed `fetch_add`s.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
    }

    /// Takes a point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let count = buckets.iter().sum();
        HistogramSnapshot { buckets, count, sum: self.sum.load(Relaxed) }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Histogram").field("count", &self.snapshot().count).finish()
    }
}

/// A [`Histogram`] split into per-core cache-padded shards so concurrent
/// recorders on different cores never contend on a cache line.
pub struct ShardedHistogram {
    shards: Box<[CachePadded<Histogram>]>,
}

impl ShardedHistogram {
    /// Creates a histogram with `shards` independent shards (at least 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        Self { shards: (0..shards).map(|_| CachePadded::new(Histogram::new())).collect() }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Records `value` on `shard` (clamped to the shard count, so callers
    /// can pass a raw core id).
    #[inline]
    pub fn record(&self, shard: usize, value: u64) {
        self.shards[shard.min(self.shards.len() - 1)].record(value);
    }

    /// Merged snapshot across all shards.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot { buckets: vec![0; NUM_BUCKETS], count: 0, sum: 0 };
        for shard in self.shards.iter() {
            let snap = shard.snapshot();
            for (m, b) in merged.buckets.iter_mut().zip(&snap.buckets) {
                *m += b;
            }
            merged.count += snap.count;
            merged.sum = merged.sum.wrapping_add(snap.sum);
        }
        merged
    }
}

impl core::fmt::Debug for ShardedHistogram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ShardedHistogram").field("shards", &self.shards.len()).finish()
    }
}

/// An owned, immutable copy of a histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl HistogramSnapshot {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (wrapping under extreme totals).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean recorded value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`, reported as the upper bound
    /// of the containing bucket (conservative, and monotone in `q`).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(self.buckets.len() - 1)
    }

    /// Upper bound of the highest occupied bucket (0 when empty).
    pub fn max(&self) -> u64 {
        self.buckets.iter().rposition(|&c| c > 0).map(bucket_upper_bound).unwrap_or(0)
    }

    /// Condenses the histogram into the fixed quantile set carried by
    /// [`crate::HealthSnapshot`].
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean_ns: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            max: self.max(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut values: Vec<u64> = (0..64)
            .flat_map(|shift| [0u64, 1, 3].map(|off| (1u64 << shift).saturating_add(off)))
            .collect();
        values.sort_unstable();
        let mut prev = 0;
        for v in values {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "index {i} out of range for {v}");
            assert!(i >= prev, "index not monotone at {v}");
            prev = i;
            assert!(bucket_upper_bound(i) >= v, "upper bound below value at {v}");
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 16);
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.max(), 15);
        assert_eq!(s.mean(), 7.5);
    }

    #[test]
    fn relative_error_is_bounded() {
        let h = Histogram::new();
        for v in [100u64, 1_000, 10_000, 123_456, 9_999_999] {
            h.record(v);
            let s = h.snapshot();
            let reported = s.max();
            assert!(reported >= v);
            assert!(
                (reported - v) as f64 <= v as f64 / M as f64 + 1.0,
                "error too large for {v}: reported {reported}"
            );
        }
    }

    #[test]
    fn quantiles_are_monotone() {
        let h = Histogram::new();
        let mut x = 1u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            h.record(x >> 44); // ~20-bit values
        }
        let s = h.snapshot();
        let mut prev = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let v = s.quantile(q);
            assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            prev = v;
        }
        assert!(s.quantile(1.0) <= s.max());
    }

    #[test]
    fn sharded_merges_all_shards() {
        let h = ShardedHistogram::new(4);
        for shard in 0..4 {
            for _ in 0..25 {
                h.record(shard, (shard as u64 + 1) * 100);
            }
        }
        // Out-of-range shard ids clamp instead of panicking.
        h.record(99, 400);
        let s = h.snapshot();
        assert_eq!(s.count(), 101);
        assert!(s.quantile(0.01) >= 100);
        assert!(s.max() >= 400);
    }
}
