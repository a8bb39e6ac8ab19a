//! Self-observation hooks (the `telemetry` feature).
//!
//! The tracer measures itself with the machinery from `btrace-telemetry`:
//! per-core sharded histograms on the record fast path, plain histograms
//! on the advance slow path and the consumer drain path, and a
//! [`HealthSnapshot`] builder that joins the diagnostic counters with live
//! buffer gauges.
//!
//! The fast path is *sampled*: timing every record would put two
//! `Instant::now()` calls (tens of nanoseconds each) around an operation
//! the paper budgets at ~10 ns. Instead, 1 in `2^k` records is timed,
//! chosen by masking the core's own record counter — no extra atomic
//! state, no RNG, and the untimed 63/64 pay only one relaxed load.
//! Slow paths (advance, drain) are orders of magnitude rarer and are
//! always timed.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use btrace_telemetry::{
    CoreHealth, EventKind, FlightRecorder, HealthSnapshot, Histogram, ShardedHistogram,
};

use crate::buffer::Shared;

/// Sentinel mask value meaning "record timing disabled".
const TIMING_OFF: u64 = u64::MAX;

/// Default sampling interval: time 1 in 64 records.
pub(crate) const DEFAULT_SAMPLE_EVERY: u32 = 64;

/// Skip-storm rate window: skips are counted per window and emitted as a
/// single [`EventKind::SkipStorm`] recorder event when a window closes
/// over threshold — one event per storm, not one per skip, so a pinned
/// buffer cannot flood the recorder with its own symptom.
const SKIP_WINDOW_NS: u64 = 10_000_000;
/// Minimum skips within one window that count as a storm.
const SKIP_STORM_MIN: u64 = 16;

/// Per-tracer telemetry state, embedded in `Shared`.
pub(crate) struct Telemetry {
    /// Fast-path record latency, sharded per core.
    pub(crate) record_hist: ShardedHistogram,
    /// Slow-path (advance/close/skip) latency.
    pub(crate) advance_hist: Histogram,
    /// Consumer drain latency.
    pub(crate) drain_hist: Histogram,
    /// Control-plane flight recorder; shared with stream pipelines and
    /// exporters via [`crate::BTrace::flight_recorder`].
    pub(crate) recorder: Arc<FlightRecorder>,
    /// Start of the current skip-storm rate window (recorder ns).
    skip_window_start: AtomicU64,
    /// Skips observed in the current window.
    skip_window_skips: AtomicU64,
    /// A record is timed when `records & mask == 0`; [`TIMING_OFF`]
    /// disables timing.
    sample_mask: AtomicU64,
}

impl Telemetry {
    pub(crate) fn new(cores: usize) -> Self {
        Self {
            record_hist: ShardedHistogram::new(cores),
            advance_hist: Histogram::new(),
            drain_hist: Histogram::new(),
            recorder: Arc::new(FlightRecorder::with_default_capacity(cores)),
            skip_window_start: AtomicU64::new(0),
            skip_window_skips: AtomicU64::new(0),
            sample_mask: AtomicU64::new(DEFAULT_SAMPLE_EVERY as u64 - 1),
        }
    }

    /// Emits a control-plane event (resize, fault, state flip) onto
    /// the recorder's control shard.
    pub(crate) fn control(&self, kind: EventKind, a: u64, b: u64) {
        self.recorder.emit(self.recorder.control_shard(), kind, 0, a, b);
    }

    /// Accounts one block skip toward the current rate window; emits a
    /// [`EventKind::SkipStorm`] event when a closing window saw at least
    /// [`SKIP_STORM_MIN`] skips. Lock-free: the closer is elected by CAS
    /// on the window start, and skips landing during the handover stay in
    /// the counter for the next window.
    pub(crate) fn note_skip(&self, core: usize) {
        let now = self.recorder.now_ns();
        self.skip_window_skips.fetch_add(1, Relaxed);
        let start = self.skip_window_start.load(Relaxed);
        if now.saturating_sub(start) >= SKIP_WINDOW_NS
            && self.skip_window_start.compare_exchange(start, now, Relaxed, Relaxed).is_ok()
        {
            let skips = self.skip_window_skips.swap(0, Relaxed);
            if skips >= SKIP_STORM_MIN {
                self.recorder.emit(
                    self.recorder.core_shard(core),
                    EventKind::SkipStorm,
                    core as u32,
                    skips,
                    now - start,
                );
            }
        }
    }

    /// Sets the record-timing interval: `Some(n)` times roughly 1 in `n`
    /// records (`n` rounded up to a power of two), `None` disables timing.
    pub(crate) fn set_sample_every(&self, every: Option<u32>) {
        let mask = match every {
            None => TIMING_OFF,
            Some(n) => n.max(1).next_power_of_two() as u64 - 1,
        };
        self.sample_mask.store(mask, Relaxed);
    }

    /// Decides whether this record is timed, given the core's record count
    /// so far. One relaxed load when timing is off or the sample is not
    /// chosen; `Instant::now()` only for chosen samples.
    #[inline]
    pub(crate) fn record_timer(&self, records_so_far: u64) -> Option<Instant> {
        let mask = self.sample_mask.load(Relaxed);
        if mask != TIMING_OFF && records_so_far & mask == 0 {
            Some(Instant::now())
        } else {
            None
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("sample_mask", &self.sample_mask.load(Relaxed))
            .finish_non_exhaustive()
    }
}

/// Builds a full health snapshot from the tracer's live state.
pub(crate) fn health_snapshot(shared: &Shared) -> HealthSnapshot {
    let stats = shared.counters.snapshot();
    let cap = shared.cap();
    let active = shared.active();

    // Occupancy of the active metadata rounds: how full each currently
    // live block is, by confirmed bytes. `pos` can transiently exceed the
    // block size (over-allocation before the tail check), so clamp. A
    // resize landing mid-scan republishes the geometry while meta rounds
    // are being forced closed and reopened, which skews the sum against a
    // mix of pre- and post-resize rounds — retry the scan until the global
    // word's ratio (the capacity) is the same before and after it, and
    // clamp the mean so no interleaving can report an occupancy outside
    // `[0, 1]`.
    let mut capacity_blocks;
    let mut open_blocks;
    let mut occupancy_sum;
    let mut attempts = 0;
    loop {
        capacity_blocks = shared.capacity_blocks() as usize;
        open_blocks = 0;
        occupancy_sum = 0.0;
        for meta in shared.metas.iter() {
            let conf = meta.confirmed();
            let pos = conf.pos.min(cap);
            if pos < cap {
                open_blocks += 1;
            }
            occupancy_sum += pos as f64 / cap as f64;
        }
        attempts += 1;
        let live = shared.capacity_blocks() as usize;
        if live == capacity_blocks || attempts >= 3 {
            // Either the scan saw one consistent geometry, or resizes are
            // storming; after a bounded number of retries report the last
            // scan (the clamp below keeps it in range) rather than block
            // the sampler behind the resize lock.
            capacity_blocks = live;
            break;
        }
    }
    let mean_occupancy = (occupancy_sum / active as f64).clamp(0.0, 1.0);

    let per_core = shared
        .counters
        .per_core_snapshot()
        .into_iter()
        .enumerate()
        .map(|(core, (records, recorded_bytes))| CoreHealth { core, records, recorded_bytes })
        .collect();

    HealthSnapshot {
        seq: 0,
        unix_ms: 0,
        age_ms: 0,
        cores: shared.cfg.cores,
        capacity_blocks,
        active_blocks: active,
        block_bytes: shared.cfg.block_bytes,
        capacity_bytes: capacity_blocks * shared.cfg.block_bytes,
        committed_bytes: shared.committed_extent.load(std::sync::atomic::Ordering::Acquire) as u64,
        open_blocks,
        mean_occupancy,
        stats,
        degraded_bits: shared.counters.degraded_bits(),
        // Export I/O counters live with the exporters; the Sampler fills
        // them in when it owns the export loop.
        export_retries: 0,
        export_drops: 0,
        effectivity_observed: stats.effectivity_ratio(),
        effectivity_bound: 1.0 - active as f64 / capacity_blocks.max(1) as f64,
        skip_rate: stats.skip_rate(),
        per_core,
        record_latency: shared.telem.record_hist.snapshot().summary(),
        advance_latency: shared.telem.advance_hist.snapshot().summary(),
        drain_latency: shared.telem.drain_hist.snapshot().summary(),
        rates: Default::default(),
        // Pipeline stage gauges are attached by whoever owns a running
        // stream (e.g. the CLI's `stream` command), not by the core.
        stream_stages: Vec::new(),
    }
}
