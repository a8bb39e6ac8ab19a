//! The shared tracer state: global/core-local positions, metadata blocks,
//! the producer fast path (§4.1) and the block-advancement slow path (§4.2).

use crate::config::{Config, Resolved};
use crate::error::TraceError;
use crate::event::{EntryHeader, EntryKind, HEADER_BYTES};
use crate::layout::{Mapping, RatioHistory};
use crate::meta::{Alloc, Close, MetaBlock};
use crate::packed::{RatioPos, RndPos};
use crate::raw::DataRegion;
use crate::stats::Counters;
use crate::sync::{Arc, AtomicU64, AtomicUsize, Mutex, Ordering};
use btrace_telemetry::{CachePadded, Stats};

/// Largest single dummy entry (bounded by the 16-bit length field).
const MAX_DUMMY: u32 = u16::MAX as u32 & !7;

pub(crate) struct Shared {
    pub(crate) cfg: Resolved,
    pub(crate) data: DataRegion,
    pub(crate) metas: Box<[MetaBlock]>,
    core_local: Box<[CachePadded<AtomicU64>]>,
    global: CachePadded<AtomicU64>,
    /// Candidates below this gpos were invalidated by a resize and must be
    /// abandoned by the advancement slow path.
    pub(crate) resize_floor: AtomicU64,
    /// High watermark of committed bytes (page aligned), for grow/shrink.
    pub(crate) committed_extent: AtomicUsize,
    pub(crate) history: RatioHistory,
    stamp_clock: CachePadded<AtomicU64>,
    pub(crate) counters: Counters,
    #[cfg(feature = "telemetry")]
    pub(crate) telem: crate::telem::Telemetry,
    pub(crate) resize_lock: Mutex<()>,
}

impl Shared {
    pub(crate) fn cap(&self) -> u32 {
        self.cfg.block_bytes as u32
    }

    pub(crate) fn active(&self) -> usize {
        self.cfg.active_blocks
    }

    /// Current global `(ratio, pos)`.
    ///
    /// Ordering: `Acquire`, not `SeqCst`. The only writers are the advance
    /// fetch-and-add (position only) and the resize CAS, and resizes are
    /// serialized by `resize_lock` — no reader needs a total order over
    /// independent writes, only the happens-before edge from the resize
    /// that published the ratio it reads (committed pages, history entry),
    /// which acquire/release provides.
    pub(crate) fn global_pos(&self) -> RatioPos {
        RatioPos::from_raw(self.global.load(Ordering::Acquire))
    }

    /// Where the claimed sequence `gpos` lives, for readers and dummy
    /// writers: the global word is loaded before the history is read, as
    /// [`RatioHistory`]'s mapping rule requires. Producers map with the
    /// ratio of their claim's word instead, sparing this contended line.
    pub(crate) fn map(&self, gpos: u64) -> Mapping {
        let published = self.global_pos().ratio;
        self.history.map(published, gpos)
    }

    /// The live number of data blocks `N = ratio × A`, read off the global
    /// word: the capacity bound of every reader. A resize changes it at
    /// the CAS that publishes its ratio.
    pub(crate) fn capacity_blocks(&self) -> u64 {
        self.global_pos().ratio as u64 * self.active() as u64
    }

    pub(crate) fn global_raw(&self) -> &AtomicU64 {
        &self.global
    }

    pub(crate) fn core_local(&self, core: usize) -> RatioPos {
        RatioPos::from_raw(self.core_local[core].load(Ordering::Acquire))
    }

    /// Writes a run of dummy entries covering `[pos, pos + len)` of data
    /// block `data_idx`. `len` may exceed the 16-bit entry limit; the run is
    /// split. Does **not** confirm — callers confirm the whole run at once.
    pub(crate) fn write_dummy_run(&self, data_idx: u64, pos: u32, len: u32) {
        debug_assert_eq!(pos % 8, 0);
        debug_assert_eq!(len % 8, 0);
        let base = self.data.block_offset(data_idx);
        let mut off = pos;
        let mut remaining = len;
        while remaining > 0 {
            let chunk = remaining.min(MAX_DUMMY);
            // A chunk that would leave a sub-minimum remainder shrinks so the
            // tail stays encodable (every entry is >= 8 bytes).
            let chunk =
                if remaining - chunk != 0 && remaining - chunk < 8 { chunk - 8 } else { chunk };
            let header = EntryHeader {
                len: chunk as u16,
                kind: EntryKind::Dummy,
                pad: 0,
                core: 0,
                tid: 0,
                stamp: 0,
            };
            let words = header.encode();
            if chunk >= HEADER_BYTES as u32 {
                self.data.store_words(base + off as usize, &words);
            } else {
                self.data.store_words(base + off as usize, &words[..1]);
            }
            off += chunk;
            remaining -= chunk;
        }
        self.counters.add(&self.counters.dummy_bytes, len as u64);
    }

    /// Writes the block header naming `gpos` at the start of its data block.
    pub(crate) fn write_block_header(&self, data_idx: u64, gpos: u64) {
        let header = EntryHeader {
            len: HEADER_BYTES as u16,
            kind: EntryKind::BlockHeader,
            pad: 0,
            core: 0,
            tid: 0,
            stamp: gpos,
        };
        self.data.store_words(self.data.block_offset(data_idx), &header.encode());
    }

    /// The global block sequences a reader may still find in the ring: the
    /// newest `span` claimed, where `span` is the number of data blocks the
    /// reserved region can hold. Older sequences are certainly overwritten.
    pub(crate) fn readable_window(&self) -> std::ops::Range<u64> {
        let head = self.global_pos().pos;
        let span = (self.data.region().len() / self.cfg.block_bytes) as u64;
        head.saturating_sub(span)..head
    }

    /// Repairs a straggler allocation that landed in round `actual` of
    /// `meta_idx` instead of the expected round (§3.4): the space is validly
    /// owned, so fill it with dummy data and confirm it. The unconfirmed
    /// in-capacity bytes pinned the round, which is what makes this safe.
    pub(crate) fn repair_straggler(&self, meta_idx: usize, actual: RndPos, need: u32) {
        self.counters.bump(&self.counters.straggler_repairs);
        let cap = self.cap();
        if actual.pos >= cap {
            return; // pure overshoot; wiped by the next reset
        }
        let fill = need.min(cap - actual.pos);
        let gpos = actual.rnd as u64 * self.active() as u64 + meta_idx as u64;
        let map = self.map(gpos);
        self.write_dummy_run(map.data_idx, actual.pos, fill);
        self.metas[meta_idx].confirm(fill);
    }

    /// Uncached allocation path: allocate `need` bytes on `core`, advancing
    /// blocks as required. Returns the granted range. `Producer` handles
    /// carry a cached descriptor and only land here to refresh it; the
    /// `TraceSink` impl and the slow paths use this directly.
    pub(crate) fn allocate(&self, core: usize, need: u32) -> Granted {
        loop {
            // Acquire pairs with the `core_local` CAS that follows the
            // claimer's fetch-add, so the entry for the claim's ratio is
            // visible (see [`RatioHistory`]); `alloc` checks the round.
            let local = self.core_local(core);
            let map = self.history.map(local.ratio, local.pos);
            let meta = &self.metas[map.meta_idx];
            match meta.alloc(map.rnd, need, self.cap()) {
                Alloc::Fits { pos } => {
                    return Granted {
                        gpos: local.pos,
                        rnd: map.rnd,
                        meta_idx: map.meta_idx,
                        data_idx: map.data_idx,
                        data_off: self.data.block_offset(map.data_idx),
                        offset: pos,
                        len: need,
                    };
                }
                Alloc::Tail { pos } => {
                    // Fig. 8(c): fill the insufficient tail with a dummy and
                    // advance to the next block.
                    let fill = self.cap() - pos;
                    self.write_dummy_run(map.data_idx, pos, fill);
                    meta.confirm(fill);
                    self.advance(core, local);
                }
                Alloc::Exhausted => {
                    self.advance(core, local);
                }
                Alloc::Stale(actual) => {
                    // Our core's block was recycled by a wrap-around producer
                    // on another core. Repair the misplaced allocation, then
                    // advance — retrying the same core-local block would spin.
                    self.repair_straggler(map.meta_idx, actual, need);
                    self.advance(core, local);
                }
            }
        }
    }

    /// Block advancement (§4.2, Fig. 9). Moves `core` off `expected` to a
    /// fresh block, closing the lagging round of each candidate's metadata
    /// block and skipping candidates still pinned by unconfirmed writes.
    ///
    /// Returns when the core-local pointer no longer equals `expected`
    /// (whether this thread or a concurrent one advanced it).
    pub(crate) fn advance(&self, core: usize, expected: RatioPos) {
        #[cfg(feature = "telemetry")]
        let t0 = std::time::Instant::now();
        self.advance_inner(core, expected);
        #[cfg(feature = "telemetry")]
        self.telem.advance_hist.record(t0.elapsed().as_nanos() as u64);
    }

    fn advance_inner(&self, core: usize, expected: RatioPos) {
        self.counters.bump(&self.counters.advances);
        let cap = self.cap();
        loop {
            if self.core_local(core) != expected {
                return; // another thread of this core already advanced (§4.2 step ⑧ failure)
            }
            // ① find a candidate block.
            //
            // Ordering: `Acquire`, not `AcqRel`. The acquire side is needed —
            // if the claimed gpos carries a ratio published by a resize, we
            // must also see that resize's committed pages and history entry.
            // The release side is not: claiming a candidate publishes
            // nothing; the block becomes visible to others only through the
            // `lock` CAS and `confirm` below, which carry their own release.
            let g = RatioPos::from_raw(self.global.fetch_add(1, Ordering::Acquire));
            if g.pos < self.resize_floor.load(Ordering::Acquire) {
                continue; // invalidated by a concurrent resize
            }
            // `g` is a word loaded at the claim, so its ratio maps `g.pos`.
            let map = self.history.map(g.ratio, g.pos);
            let meta = &self.metas[map.meta_idx];

            // ②③ the candidate reuses this metadata block: its previous round
            // (the lagging active block, §3.2) must be fully confirmed first.
            let mut conf = meta.confirmed();
            if conf.rnd >= map.rnd {
                continue; // candidate already overtaken by a later round
            }
            if conf.pos < cap {
                // Close the lagging block: no further allocations, dummy-fill
                // the remainder.
                if let Close::Fill { rnd, pos } = meta.close(conf.rnd, cap) {
                    let lag_gpos = rnd as u64 * self.active() as u64 + map.meta_idx as u64;
                    let lag_map = self.map(lag_gpos);
                    self.write_dummy_run(lag_map.data_idx, pos, cap - pos);
                    meta.confirm(cap - pos);
                    self.counters.bump(&self.counters.closes);
                }
                conf = meta.confirmed();
                if conf.rnd >= map.rnd {
                    continue;
                }
                if conf.pos < cap {
                    // Unconfirmed in-flight writes remain: skip the candidate
                    // to stay non-blocking (§3.4). The physical block keeps
                    // its previous contents; consumers reject it for this
                    // gpos via the block-header check. When every metadata
                    // block is pinned this way the loop degenerates into a
                    // wait on the pinning writers' confirms — hint so they
                    // can run.
                    self.counters.bump(&self.counters.skips);
                    #[cfg(feature = "telemetry")]
                    self.telem.note_skip(core);
                    crate::sync::contention_hint();
                    continue;
                }
            }

            // ④ lock the data block for our round.
            if !meta.lock(conf, map.rnd) {
                continue; // a wrap-around producer beat us; find another block
            }

            // A resize may have invalidated the candidate between ① and ④;
            // re-check after the lock so the resizer's metadata scan cannot
            // miss us. Undo by refilling the round so the block stays
            // recyclable.
            //
            // Ordering: `Acquire` suffices for both floor loads. A racing
            // resizer that published the floor *after* we loaded it cannot
            // lose us: its drain loop waits on every metadata block's
            // confirm, and our round stays unconfirmed until we either
            // refill it here or hand it to the core, so the drain observes
            // the outcome either way (the backstop the SeqCst fence was
            // redundantly duplicating).
            if g.pos < self.resize_floor.load(Ordering::Acquire) {
                meta.reset_allocated(map.rnd, cap);
                self.write_dummy_run(map.data_idx, 0, cap);
                meta.confirm(cap);
                continue;
            }

            // ⑤ write the block header, ⑥ reset Allocated, ⑦ confirm header.
            self.write_block_header(map.data_idx, g.pos);
            meta.reset_allocated(map.rnd, HEADER_BYTES as u32);
            meta.confirm(HEADER_BYTES as u32);

            // ⑧ publish the new block to the core.
            let fresh = RatioPos::new(g.ratio, g.pos);
            match self.core_local[core].compare_exchange(
                expected.to_raw(),
                fresh.to_raw(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(_) => {
                    // Another thread of this core installed a different
                    // block; abandon ours by filling it with dummy data so it
                    // recycles (§4.2, final paragraph).
                    if let Close::Fill { pos, .. } = meta.close(map.rnd, cap) {
                        self.write_dummy_run(map.data_idx, pos, cap - pos);
                        meta.confirm(cap - pos);
                    }
                    return;
                }
            }
        }
    }

    pub(crate) fn confirm_entry(&self, meta_idx: usize, len: u32) {
        self.metas[meta_idx].confirm(len);
    }

    pub(crate) fn next_stamp(&self) -> u64 {
        self.stamp_clock.fetch_add(1, Ordering::Relaxed)
    }
}

/// A granted byte range inside a data block, carrying the full mapping of
/// the block it lives in so `Producer` can seed its cached descriptor
/// without re-mapping.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Granted {
    pub gpos: u64,
    pub rnd: u32,
    pub meta_idx: usize,
    pub data_idx: u64,
    pub data_off: usize,
    pub offset: u32,
    pub len: u32,
}

/// Page-aligned committed extent for `ratio` (see `DataRegion`).
pub(crate) fn extent_bytes(cfg: &Resolved, ratio: u16) -> usize {
    let raw = ratio as usize * cfg.active_blocks * cfg.block_bytes;
    raw.div_ceil(btrace_vmem::PAGE_SIZE) * btrace_vmem::PAGE_SIZE
}

/// BTrace: a block-based tracer combining the memory efficiency of a global
/// buffer with per-core recording performance (paper §3).
///
/// The buffer is split into `N` data blocks managed by `A` metadata blocks.
/// Each core owns one block at a time; producers allocate with a single
/// fetch-and-add and confirm out of order, so recording never blocks even
/// when threads are preempted mid-write. See the crate docs for the full
/// protocol.
///
/// Handles ([`Producer`](crate::Producer), [`Consumer`](crate::Consumer))
/// share the tracer via `Arc`; `BTrace` itself is cheap to clone.
///
/// # Examples
///
/// ```rust
/// use btrace_core::{BTrace, Config};
///
/// # fn main() -> Result<(), btrace_core::TraceError> {
/// let tracer = BTrace::new(Config::new(2).buffer_bytes(1 << 20).active_blocks(32))?;
/// let p = tracer.producer(0)?;
/// p.record(b"irq: 17 enter")?;
/// let mut snapshot = btrace_core::RingSnapshot::new();
/// tracer.consumer().snapshot(&mut snapshot);
/// assert_eq!(snapshot.count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct BTrace {
    pub(crate) shared: Arc<Shared>,
}

impl BTrace {
    /// Creates a tracer from `config`.
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidConfig`] when the configuration is inconsistent
    /// and [`TraceError::Region`] when reserving memory fails.
    pub fn new(config: Config) -> Result<Self, TraceError> {
        let cfg = config.resolve()?;
        let data = DataRegion::new(&cfg)?;
        let extent = extent_bytes(&cfg, cfg.ratio);
        data.region().commit(0, extent)?;

        let cap = cfg.block_bytes as u32;
        let metas: Box<[MetaBlock]> =
            (0..cfg.active_blocks).map(|_| MetaBlock::genesis(cap)).collect();
        let a = cfg.active_blocks as u64;

        let shared = Shared {
            core_local: (0..cfg.cores).map(|_| CachePadded::new(AtomicU64::new(0))).collect(),
            global: CachePadded::new(AtomicU64::new(
                RatioPos::new(cfg.ratio, a + cfg.cores as u64).to_raw(),
            )),
            resize_floor: AtomicU64::new(0),
            committed_extent: AtomicUsize::new(extent),
            history: RatioHistory::new(cfg.ratio, cfg.active_blocks),
            stamp_clock: CachePadded::new(AtomicU64::new(0)),
            counters: Counters::new(cfg.cores),
            #[cfg(feature = "telemetry")]
            telem: crate::telem::Telemetry::new(cfg.cores),
            resize_lock: Mutex::new(()),
            cfg,
            data,
            metas,
        };

        // Pre-assign one block per core, starting at round 1 (round 0 is the
        // genesis state all metadata blocks begin in).
        for core in 0..shared.cfg.cores {
            let gpos = a + core as u64;
            let map = shared.map(gpos);
            let meta = &shared.metas[map.meta_idx];
            let locked = meta.lock(RndPos::new(0, cap), map.rnd);
            debug_assert!(locked, "genesis metadata must be lockable");
            shared.write_block_header(map.data_idx, gpos);
            meta.reset_allocated(map.rnd, HEADER_BYTES as u32);
            meta.confirm(HEADER_BYTES as u32);
            shared.core_local[core]
                .store(RatioPos::new(shared.cfg.ratio, gpos).to_raw(), Ordering::Release);
        }

        Ok(Self { shared: Arc::new(shared) })
    }

    /// Returns a recording handle pinned to `core`.
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidCore`] when `core` is out of range.
    pub fn producer(&self, core: usize) -> Result<crate::Producer, TraceError> {
        if core >= self.shared.cfg.cores {
            return Err(TraceError::InvalidCore { core, cores: self.shared.cfg.cores });
        }
        Ok(crate::Producer::new(Arc::clone(&self.shared), core as u16))
    }

    /// Returns a consumer of the live ring.
    pub fn consumer(&self) -> crate::Consumer {
        crate::Consumer::new(Arc::clone(&self.shared))
    }

    /// Returns a block-granularity streaming consumer: each
    /// [`poll`](crate::StreamShard::poll) hands off only blocks closed
    /// since the previous poll, so every delivered batch is final and can
    /// be encoded and shipped immediately. It is the stride-1
    /// [`StreamShard`](crate::StreamShard), owning every block sequence.
    pub fn stream(&self) -> crate::StreamShard {
        crate::StreamShard::new(Arc::clone(&self.shared), 0, 1)
    }

    /// Returns the streaming consumer split into `shards` disjoint stripes
    /// of the global block-sequence space: stripe `i` owns every block
    /// whose sequence is `≡ i (mod shards)`, so closed blocks can be
    /// drained by several threads in parallel, one
    /// [`StreamShard`](crate::StreamShard) each. The stripes deliver
    /// disjoint sets whose union is exactly what [`BTrace::stream`]
    /// delivers. `shards == 0` is treated as 1.
    pub fn stream_sharded(&self, shards: usize) -> Vec<crate::StreamShard> {
        let stride = shards.max(1) as u64;
        (0..stride)
            .map(|shard| crate::StreamShard::new(Arc::clone(&self.shared), shard, stride))
            .collect()
    }

    /// Snapshot of the diagnostic counters.
    pub fn stats(&self) -> Stats {
        self.shared.counters.snapshot()
    }

    /// Current health of the tracer: [`TracerState::Healthy`], or
    /// [`TracerState::Degraded`] with the live conditions and exact failure
    /// counters when a resource-acquisition edge has failed (commit retries
    /// exhausted, reclaim deferred, poisoned lock recovered). Recording
    /// never stops while degraded — producers keep writing into the
    /// surviving blocks.
    ///
    /// [`TracerState::Healthy`]: crate::TracerState::Healthy
    /// [`TracerState::Degraded`]: crate::TracerState::Degraded
    pub fn state(&self) -> crate::TracerState {
        self.shared.counters.state()
    }

    /// Injection counts when the tracer was configured with a
    /// [`FaultPlan`](crate::Config::fault_plan); `None` otherwise. The
    /// degradation counters in [`stats`](BTrace::stats) can be checked
    /// exactly against these.
    pub fn fault_stats(&self) -> Option<btrace_vmem::FaultStats> {
        self.shared.data.region().fault_stats()
    }

    /// Full health report: counters, buffer gauges, per-core breakdowns,
    /// latency summaries, and the observed effectivity ratio next to the
    /// paper's `1 − A/N` bound.
    ///
    /// Raw snapshots carry no sequence number, timestamp, or rates; those
    /// are filled in by a [`btrace_telemetry::Sampler`] (`BTrace`
    /// implements [`btrace_telemetry::SnapshotSource`]).
    #[cfg(feature = "telemetry")]
    pub fn health_snapshot(&self) -> btrace_telemetry::HealthSnapshot {
        crate::telem::health_snapshot(&self.shared)
    }

    /// Tunes fast-path record timing: `Some(n)` times roughly 1 in `n`
    /// records (`n` rounded up to a power of two; default 64), `None`
    /// disables timing so the fast path pays only one relaxed load.
    /// Advance and drain timing are unaffected (those paths are rare and
    /// always timed).
    #[cfg(feature = "telemetry")]
    pub fn set_record_timing(&self, every: Option<u32>) {
        self.shared.telem.set_sample_every(every);
    }

    /// The tracer's control-plane flight recorder: a bounded, lock-free
    /// timeline of state transitions (resizes, faults, degradation flips,
    /// skip storms) plus whatever a stream pipeline or
    /// exporter attached to the same handle emits. Feed its snapshot to
    /// `btrace-analysis`'s doctor to turn counters into a causal story.
    #[cfg(feature = "telemetry")]
    pub fn flight_recorder(&self) -> std::sync::Arc<btrace_telemetry::FlightRecorder> {
        std::sync::Arc::clone(&self.shared.telem.recorder)
    }

    /// Current buffer capacity in bytes (`N × block_bytes`).
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_blocks() * self.shared.cfg.block_bytes
    }

    /// Current number of data blocks `N = ratio × A`, read off the global
    /// `ratio_and_pos` word. A resize changes it at the CAS that publishes
    /// its ratio: a shrink's bound drops there, before the resize drains,
    /// and a grow's new slots, committed before the CAS, become readable
    /// there.
    pub fn capacity_blocks(&self) -> usize {
        self.shared.capacity_blocks() as usize
    }

    /// Number of active blocks `A` (fixed at construction).
    pub fn active_blocks(&self) -> usize {
        self.shared.cfg.active_blocks
    }

    /// Data block size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.shared.cfg.block_bytes
    }

    /// Number of cores this tracer serves.
    pub fn cores(&self) -> usize {
        self.shared.cfg.cores
    }

    /// Largest payload a single entry can carry.
    pub fn max_payload(&self) -> usize {
        crate::producer::max_payload(self.shared.cfg.block_bytes)
    }

    /// Draws a fresh logic stamp from the tracer's convenience clock.
    ///
    /// [`Producer::record`](crate::Producer::record) uses this internally;
    /// high-frequency callers should manage their own stamps and use
    /// [`Producer::record_with`](crate::Producer::record_with) to keep the
    /// clock off the hot path.
    pub fn next_stamp(&self) -> u64 {
        self.shared.next_stamp()
    }
}

#[cfg(feature = "telemetry")]
impl btrace_telemetry::SnapshotSource for BTrace {
    fn health_snapshot(&self) -> btrace_telemetry::HealthSnapshot {
        BTrace::health_snapshot(self)
    }
}

#[cfg(feature = "telemetry")]
impl btrace_telemetry::ResizeTarget for BTrace {
    fn current_bytes(&self) -> u64 {
        self.capacity_bytes() as u64
    }
    fn stride_bytes(&self) -> u64 {
        (self.shared.cfg.block_bytes * self.shared.cfg.active_blocks) as u64
    }
    fn max_bytes(&self) -> u64 {
        self.shared.cfg.max_bytes() as u64
    }
    fn resize_bytes(&self, bytes: u64) -> Result<(), String> {
        BTrace::resize_bytes(self, bytes as usize).map_err(|e| e.to_string())
    }
}

impl std::fmt::Debug for BTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTrace")
            .field("cores", &self.cores())
            .field("capacity_bytes", &self.capacity_bytes())
            .field("block_bytes", &self.block_bytes())
            .field("active_blocks", &self.active_blocks())
            .field("global", &self.shared.global_pos())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrace_vmem::Backing;

    fn small() -> BTrace {
        BTrace::new(
            Config::new(2)
                .active_blocks(4)
                .block_bytes(256)
                .buffer_bytes(4 * 256 * 2)
                .backing(Backing::Heap),
        )
        .unwrap()
    }

    #[test]
    fn construction_preassigns_blocks() {
        let t = small();
        let l0 = t.shared.core_local(0);
        let l1 = t.shared.core_local(1);
        assert_eq!(l0.pos, 4);
        assert_eq!(l1.pos, 5);
        assert_eq!(t.shared.global_pos().pos, 6);
        assert_eq!(t.capacity_blocks(), 8);
    }

    #[test]
    fn allocate_within_block_is_contiguous() {
        let t = small();
        let g1 = t.shared.allocate(0, 24);
        let g2 = t.shared.allocate(0, 24);
        assert_eq!(g1.gpos, g2.gpos);
        assert_eq!(g2.offset, g1.offset + 24);
        assert_eq!(g1.offset, HEADER_BYTES as u32);
        t.shared.confirm_entry(g1.meta_idx, 24);
        t.shared.confirm_entry(g2.meta_idx, 24);
    }

    #[test]
    fn allocate_advances_across_blocks() {
        let t = small();
        let mut seen = std::collections::BTreeSet::new();
        // 256-byte blocks hold (256 - 16) / 24 = 10 entries of 24 bytes.
        for _ in 0..25 {
            let g = t.shared.allocate(0, 24);
            t.shared.confirm_entry(g.meta_idx, 24);
            seen.insert(g.gpos);
        }
        assert!(seen.len() >= 3, "expected several blocks, got {seen:?}");
        assert!(t.stats().advances >= 2);
    }

    #[test]
    fn dummy_run_splits_large_fills() {
        let cfg = Config::new(1)
            .active_blocks(1)
            .block_bytes(128 * 1024)
            .buffer_bytes(128 * 1024)
            .backing(Backing::Heap);
        let t = BTrace::new(cfg).unwrap();
        // Fill the whole usable block with dummies via close.
        let local = t.shared.core_local(0);
        let map = t.shared.map(local.pos);
        if let Close::Fill { pos, .. } = t.shared.metas[map.meta_idx].close(map.rnd, t.shared.cap())
        {
            t.shared.write_dummy_run(map.data_idx, pos, t.shared.cap() - pos);
            t.shared.metas[map.meta_idx].confirm(t.shared.cap() - pos);
        } else {
            panic!("expected fill");
        }
        assert_eq!(t.shared.metas[map.meta_idx].confirmed().pos, t.shared.cap());
    }

    #[test]
    fn invalid_core_rejected() {
        let t = small();
        assert!(matches!(t.producer(2), Err(TraceError::InvalidCore { core: 2, cores: 2 })));
    }

    #[test]
    fn wraparound_reuses_blocks() {
        let t = small(); // 8 data blocks of 256B
        for i in 0..200u32 {
            let g = t.shared.allocate(0, 24);
            t.shared.confirm_entry(g.meta_idx, 24);
            let _ = i;
        }
        // 200 * 24B >> 2 KiB buffer: we must have wrapped several times.
        assert!(t.shared.global_pos().pos > 16);
    }

    #[test]
    fn btrace_is_send_sync_clone() {
        fn assert_traits<T: Send + Sync + Clone>() {}
        assert_traits::<BTrace>();
    }
}
