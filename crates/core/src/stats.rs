//! The atomic counters behind [`Stats`]: the mechanisms the paper
//! ablates — closing, skipping, dummy filling, and straggler repair. The
//! `Stats` record itself, the degradation bits and [`TracerState`] are
//! defined once, in `btrace-telemetry`, and re-exported from this crate.
//!
//! The per-record counters (`records`, `recorded_bytes`) are kept per core
//! on padded cache lines — a single global counter would add cross-core
//! cache-line traffic to the otherwise contention-free fast path — and are
//! *packed into one word* so the fast path pays exactly one relaxed
//! fetch-and-add per record instead of two.

use btrace_telemetry::{CachePadded, Stats, TracerState};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bit where the record count lives in the packed word (low half).
const RECORDS_MASK: u64 = u32::MAX as u64;
/// Shift of the byte count (in 8-byte units) in the packed word (high half).
const BYTES8_SHIFT: u32 = 32;
/// Spill threshold: once either field's high guard bit is set, the adder
/// that observes it migrates the packed word into the 64-bit spill
/// accumulators. Records spill at 2^31, byte units at 2^30 — either field
/// would need another ~10^9 fast-path operations *after* the guard bit is
/// first observed to overflow into its neighbor, and every one of those
/// operations sees the guard and spills first.
const SPILL_GUARD: u64 = (1 << 31) | (1 << (BYTES8_SHIFT + 30));

/// Fast-path counters, one instance per core: a packed hot word
/// (`records` in the low 32 bits, recorded bytes / 8 in the high 32) plus
/// cold spill accumulators keeping the totals exact and unbounded.
#[derive(Debug, Default)]
pub(crate) struct HotCounters {
    packed: AtomicU64,
    records_spill: AtomicU64,
    bytes_spill: AtomicU64,
}

impl HotCounters {
    /// One record of `bytes` encoded bytes: a single relaxed add. All entry
    /// sizes are multiples of 8 (`ENTRY_ALIGN`), so bytes travel as 8-byte
    /// units and both fields fit one word.
    #[inline]
    fn record(&self, bytes: u64) {
        debug_assert_eq!(bytes % 8, 0, "entry sizes are 8-byte aligned");
        let old = self.packed.fetch_add(1 | (bytes >> 3 << BYTES8_SHIFT), Ordering::Relaxed);
        if old & SPILL_GUARD != 0 {
            self.spill();
        }
    }

    /// Migrates the packed word into the spill accumulators. Exact under
    /// races: `swap` removes precisely what it returns, concurrent adds land
    /// either before the swap (migrated here) or after (into the fresh
    /// zero), and a concurrent spiller just migrates a smaller remainder.
    #[cold]
    fn spill(&self) {
        let cur = self.packed.swap(0, Ordering::Relaxed);
        self.records_spill.fetch_add(cur & RECORDS_MASK, Ordering::Relaxed);
        self.bytes_spill.fetch_add((cur >> BYTES8_SHIFT) << 3, Ordering::Relaxed);
    }

    /// Exact `(records, recorded_bytes)` totals.
    fn totals(&self) -> (u64, u64) {
        let cur = self.packed.load(Ordering::Relaxed);
        (
            (cur & RECORDS_MASK) + self.records_spill.load(Ordering::Relaxed),
            ((cur >> BYTES8_SHIFT) << 3) + self.bytes_spill.load(Ordering::Relaxed),
        )
    }
}

/// Internal atomic counters.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    per_core: Box<[CachePadded<HotCounters>]>,
    pub dummy_bytes: AtomicU64,
    pub advances: AtomicU64,
    pub closes: AtomicU64,
    pub skips: AtomicU64,
    pub straggler_repairs: AtomicU64,
    pub resizes: AtomicU64,
    pub commit_failures: AtomicU64,
    pub resize_fallbacks: AtomicU64,
    pub lock_recoveries: AtomicU64,
    /// Live degradation condition, a bitset of
    /// [`degraded`](btrace_telemetry::degraded) flags. Not a counter: set
    /// when a failure edge fires, and `RECLAIM_DEFERRED` clears again once
    /// the deferred reclaim finally lands.
    pub degraded: AtomicU64,
}

impl Counters {
    pub(crate) fn new(cores: usize) -> Self {
        Self {
            per_core: (0..cores).map(|_| CachePadded::new(HotCounters::default())).collect(),
            ..Self::default()
        }
    }

    /// Raises a degradation condition flag.
    pub(crate) fn set_degraded(&self, bit: u64) {
        self.degraded.fetch_or(bit, Ordering::Relaxed);
    }

    /// Clears a degradation condition flag (the condition healed).
    pub(crate) fn clear_degraded(&self, bit: u64) {
        self.degraded.fetch_and(!bit, Ordering::Relaxed);
    }

    pub(crate) fn degraded_bits(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    #[inline]
    pub(crate) fn record_on_core(&self, core: usize, bytes: u64) {
        self.per_core[core].record(bytes);
    }

    /// Records committed so far on `core` (relaxed; used by the telemetry
    /// sampling decision). Reads only the hot packed word: the count resets
    /// when a spill migrates it, which merely restarts the sampling cadence
    /// — exactness is not needed for a 1-in-2^k decision.
    #[cfg(feature = "telemetry")]
    #[inline]
    pub(crate) fn records_on_core(&self, core: usize) -> u64 {
        self.per_core[core].packed.load(Ordering::Relaxed) & RECORDS_MASK
    }

    /// Per-core `(records, recorded_bytes)` pairs, indexed by core.
    #[cfg(feature = "telemetry")]
    pub(crate) fn per_core_snapshot(&self) -> Vec<(u64, u64)> {
        self.per_core.iter().map(|c| c.totals()).collect()
    }

    pub(crate) fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add(&self, counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> Stats {
        let (records, recorded_bytes) = self
            .per_core
            .iter()
            .map(|c| c.totals())
            .fold((0, 0), |(r, b), (cr, cb)| (r + cr, b + cb));
        Stats {
            records,
            recorded_bytes,
            dummy_bytes: self.dummy_bytes.load(Ordering::Relaxed),
            advances: self.advances.load(Ordering::Relaxed),
            closes: self.closes.load(Ordering::Relaxed),
            skips: self.skips.load(Ordering::Relaxed),
            straggler_repairs: self.straggler_repairs.load(Ordering::Relaxed),
            resizes: self.resizes.load(Ordering::Relaxed),
            commit_failures: self.commit_failures.load(Ordering::Relaxed),
            resize_fallbacks: self.resize_fallbacks.load(Ordering::Relaxed),
            lock_recoveries: self.lock_recoveries.load(Ordering::Relaxed),
        }
    }

    /// Builds the typed degradation state from the flag bits and counters.
    pub(crate) fn state(&self) -> TracerState {
        TracerState::from_bits(self.degraded_bits(), &self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrace_telemetry::degraded;

    #[test]
    fn degraded_state_reflects_flags_and_counters() {
        let c = Counters::new(1);
        assert_eq!(c.state(), TracerState::Healthy);
        c.bump(&c.commit_failures);
        c.bump(&c.resize_fallbacks);
        c.set_degraded(degraded::COMMIT_FAILED);
        match c.state() {
            TracerState::Degraded(d) => {
                assert!(d.commit_failed);
                assert!(!d.reclaim_deferred);
                assert_eq!(d.stats.commit_failures, 1);
                assert_eq!(d.stats.resize_fallbacks, 1);
            }
            TracerState::Healthy => panic!("flag set, must be degraded"),
        }
        // A healed condition clears its flag.
        c.set_degraded(degraded::RECLAIM_DEFERRED);
        c.clear_degraded(degraded::RECLAIM_DEFERRED);
        c.clear_degraded(degraded::COMMIT_FAILED);
        assert_eq!(c.state(), TracerState::Healthy);
    }

    #[test]
    fn snapshot_reflects_bumps() {
        let c = Counters::new(2);
        c.record_on_core(0, 32);
        c.record_on_core(1, 16);
        c.add(&c.dummy_bytes, 128);
        let s = c.snapshot();
        assert_eq!(s.records, 2);
        assert_eq!(s.recorded_bytes, 48);
        assert_eq!(s.dummy_bytes, 128);
        assert_eq!(s.skips, 0);
    }

    #[test]
    fn spill_keeps_totals_exact() {
        let c = Counters::new(1);
        // Preload the packed word right at both guard bits: the next record
        // observes them and migrates the word into the spill accumulators.
        c.per_core[0].packed.store(SPILL_GUARD, Ordering::Relaxed);
        c.record_on_core(0, 16);
        let (records, bytes) = c.per_core[0].totals();
        assert_eq!(records, (1 << 31) + 1);
        assert_eq!(bytes, (1u64 << 30 << 3) + 16);
        // The hot word is drained; further records keep exact totals.
        assert_eq!(c.per_core[0].packed.load(Ordering::Relaxed) & SPILL_GUARD, 0);
        c.record_on_core(0, 8);
        let s = c.snapshot();
        assert_eq!(s.records, (1 << 31) + 2);
        assert_eq!(s.recorded_bytes, (1u64 << 33) + 24);
    }
}
