//! Recording handles: [`Producer`] (per core) and [`Grant`] (two-phase
//! allocate/commit, the unit the paper's out-of-order confirmation operates
//! on).
//!
//! Producers are insulated from every resource-acquisition failure the
//! tracer can hit: commit/decommit happens only on the serialized resize
//! path (never here), a failed grow falls back to the pre-resize geometry,
//! and a failed reclaim is deferred — in all cases the blocks a producer
//! can reach are committed, so `record`/`begin`/`commit` keep succeeding
//! while the tracer reports [`TracerState::Degraded`]
//! (§3.3's never-block, never-fail guarantee extends to memory pressure).
//!
//! [`TracerState::Degraded`]: crate::TracerState::Degraded

use crate::buffer::{Granted, Shared};
use crate::error::TraceError;
use crate::event::{encoded_len, EntryHeader, EntryKind, HEADER_BYTES};
use crate::meta::Alloc;
use crate::sync::Arc;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Weak;

/// Heap-shared state of one handle's coalesced confirm run.
///
/// The run state used to be a plain `Cell` inside [`Producer`], which made
/// the PR-7 discipline — *flush before a same-thread resize* — enforceable
/// only by convention: `resize_bytes` had no way to reach the calling
/// thread's pending runs, so a caller that forgot the flush pinned its
/// cached block's round across the resize and stalled the drain loop into
/// `ResizeTimeout`. Hoisting the state into a shared slot lets a per-thread
/// registry hand exactly those runs to [`flush_thread_coalesced`], which
/// the resize entry point calls before it starts waiting on block closes.
///
/// The fields are atomics only so the (forbidden, but `Send`-expressible)
/// pattern of moving a `Producer` across threads mid-run is a logic error
/// rather than UB. The producer path uses pure relaxed loads and stores —
/// no RMW, compiling to the same plain moves the `Cell` did — and these
/// deliberately bypass the model-checking facade: like the diagnostic
/// counters, the accumulator is thread-private bookkeeping, not protocol
/// synchronization (the publication edge is still the `confirm_entry`
/// Release that flushes it).
pub(crate) struct CoalesceSlot {
    /// Identity (address) of the `Shared` the run's confirms belong to.
    shared_id: usize,
    /// Token of the thread whose registry currently owns this slot; 0
    /// until the first run opens.
    owner: AtomicU64,
    /// Meta block the pending run occupies. Only meaningful while
    /// `pending` is non-zero; written at run open, before the first
    /// deferred confirm is accumulated.
    meta_idx: AtomicUsize,
    /// Unconfirmed bytes of the pending run.
    pending: AtomicU64,
}

thread_local! {
    /// The coalesced runs opened (most recently) on this thread, one weak
    /// entry per live coalescing `Producer`. Dead entries are pruned on
    /// every flush walk.
    static THREAD_RUNS: RefCell<Vec<Weak<CoalesceSlot>>> = const { RefCell::new(Vec::new()) };
}

/// A token unique to the calling thread for the thread's lifetime (the
/// address of a thread-local; a recycled address can only belong to a
/// thread whose registry started empty, so stale owners never alias).
fn thread_token() -> u64 {
    thread_local! {
        static TOKEN: u8 = const { 0 };
    }
    TOKEN.with(|t| t as *const u8 as usize as u64)
}

/// Confirms every pending coalesced run that was opened *on the calling
/// thread* against `shared`, returning the number of runs flushed.
///
/// This is the resize guard: `BTrace::resize_bytes` runs it before the
/// meta drain so a caller holding its own unflushed run cannot deadlock
/// the drain loop it is about to enter (the run pins its block's round,
/// and the only thread that could have flushed it is the one now inside
/// the resize). Runs owned by other threads are left alone — their owners
/// are still recording and flush at their own block boundaries.
pub(crate) fn flush_thread_coalesced(shared: &Shared) -> usize {
    let me = thread_token();
    let id = shared as *const Shared as usize;
    THREAD_RUNS.with(|runs| {
        let mut flushed = 0;
        runs.borrow_mut().retain(|weak| {
            let Some(slot) = weak.upgrade() else { return false };
            if slot.shared_id == id && slot.owner.load(Relaxed) == me {
                let pending = slot.pending.swap(0, Relaxed) as u32;
                if pending > 0 {
                    shared.confirm_entry(slot.meta_idx.load(Relaxed), pending);
                    flushed += 1;
                }
            }
            true
        });
        flushed
    })
}

/// Largest payload that fits one entry in a block of `block_bytes`: the
/// block header consumes the first 16 bytes, the entry header another 16.
pub(crate) fn max_payload(block_bytes: usize) -> usize {
    (block_bytes - 2 * HEADER_BYTES).min(crate::event::MAX_ENTRY_BYTES - HEADER_BYTES)
}

/// A recording handle pinned to one core.
///
/// Handles are cheap to clone and share the tracer. Any number of threads
/// "running on" the same core may record through clones of the same handle —
/// the paper's oversubscription scenario — and none of them ever blocks:
/// space allocation is one fetch-and-add, confirmation is out of order.
///
/// # Examples
///
/// ```rust
/// use btrace_core::{BTrace, Config};
///
/// # fn main() -> Result<(), btrace_core::TraceError> {
/// let tracer = BTrace::new(Config::new(1).buffer_bytes(256 << 10).active_blocks(16))?;
/// let producer = tracer.producer(0)?;
///
/// // Convenience path: internal stamp clock.
/// producer.record(b"freq: cpu0 1.8GHz -> 2.4GHz")?;
///
/// // Two-phase path: allocate first, commit later (possibly after the
/// // thread was preempted in between).
/// let grant = producer.begin(12)?;
/// grant.commit(42, 7, b"sched-wakeup")?;
/// # Ok(())
/// # }
/// ```
pub struct Producer {
    shared: Arc<Shared>,
    core: u16,
    /// Cached descriptor of the block this handle last allocated from.
    ///
    /// The uncached path pays an acquire load of the core-local word plus a
    /// `gpos → (meta, round, data)` mapping on *every* record; this cache
    /// pays neither. It needs no invalidation protocol because it is
    /// self-validating: the allocation fetch-and-add carries the expected
    /// round, so any staleness — the block filled, another thread advanced
    /// the core, a wrap-around producer recycled the block, a resize moved
    /// the world — surfaces as `Exhausted`/`Tail`/`Stale` from `alloc`, and
    /// the `#[cold]` refresh path falls back to `Shared::allocate` and
    /// re-seeds the cache from its result. A `Cell` (not an atomic) keeps
    /// the fast path free of even relaxed RMWs; it makes `Producer` `!Sync`,
    /// which matches how handles are used — cloned per thread, never shared
    /// by reference.
    desc: Cell<Desc>,
    /// Whether [`Producer::record_with`] defers confirmation (see
    /// [`Producer::set_confirm_coalescing`]).
    coalesce: Cell<bool>,
    /// Unconfirmed bytes this handle has written into the cached block,
    /// hoisted into a heap slot (see [`CoalesceSlot`]) so the resize path
    /// can flush the calling thread's runs through the per-thread registry.
    ///
    /// `pending` is non-zero only under coalescing, and only ever for the
    /// block the cached descriptor names: the run is flushed — one Release
    /// RMW covering all of it — before the descriptor is re-seeded to
    /// another block (the `#[cold]` refresh, i.e. a block boundary), on
    /// [`Producer::flush_confirms`], on a same-thread `resize_bytes`, and
    /// on drop. Holding the run unconfirmed is exactly the open-grant
    /// state the protocol already supports: an unconfirmed in-capacity
    /// allocation pins the block's round (`meta.rs` invariant 2), so the
    /// bytes can be neither recycled nor reclaimed before the flush. The
    /// coalesced record path pays one extra L1 load for the indirection;
    /// the slot's line is written only by this handle and stays hot.
    slot: Arc<CoalesceSlot>,
}

impl Clone for Producer {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
            core: self.core,
            desc: Cell::new(self.desc.get()),
            coalesce: Cell::new(self.coalesce.get()),
            // The pending run belongs to *this* handle's writes; a clone
            // sharing (or starting with) a non-zero slot would confirm
            // bytes it never wrote (double-confirm corrupts the round's
            // accounting) — every clone gets a fresh, empty slot.
            slot: Arc::new(CoalesceSlot {
                shared_id: self.slot.shared_id,
                owner: AtomicU64::new(0),
                meta_idx: AtomicUsize::new(0),
                pending: AtomicU64::new(0),
            }),
        }
    }
}

impl Drop for Producer {
    fn drop(&mut self) {
        // A dropped handle must not leave its block pinned forever: flush
        // the coalesced run so the block can close and recycle.
        self.flush_confirms();
    }
}

/// See [`Producer::desc`].
#[derive(Clone, Copy, Debug)]
struct Desc {
    gpos: u64,
    rnd: u32,
    meta_idx: usize,
    data_idx: u64,
    data_off: usize,
}

impl Producer {
    pub(crate) fn new(shared: Arc<Shared>, core: u16) -> Self {
        // Seed from the core's current block; if it is already stale by the
        // first record, the round check degrades it to a refresh.
        let local = shared.core_local(core as usize);
        let map = shared.history.map(local.ratio, local.pos);
        let desc = Desc {
            gpos: local.pos,
            rnd: map.rnd,
            meta_idx: map.meta_idx,
            data_idx: map.data_idx,
            data_off: shared.data.block_offset(map.data_idx),
        };
        let shared_id = &*shared as *const Shared as usize;
        Self {
            shared,
            core,
            desc: Cell::new(desc),
            coalesce: Cell::new(false),
            slot: Arc::new(CoalesceSlot {
                shared_id,
                owner: AtomicU64::new(0),
                meta_idx: AtomicUsize::new(0),
                pending: AtomicU64::new(0),
            }),
        }
    }

    /// Enables or disables **confirm coalescing** on this handle.
    ///
    /// Coalescing replaces the per-record Release fetch-and-add of the
    /// confirmed counter with one Release RMW per *run*: consecutive
    /// records into the same block accumulate in a pending counter that is
    /// flushed at the block boundary (the descriptor refresh), by
    /// [`flush_confirms`](Self::flush_confirms), or on drop. That single
    /// Release publishes every payload byte of the covered run — the same
    /// release/acquire edge as before, amortized.
    ///
    /// The trade is **visibility latency**: records of the current block
    /// stay invisible to consumers (and keep the block open) until the
    /// covering flush. Safety is unchanged — the unconfirmed run pins the
    /// block's round exactly like an open [`Grant`], so nothing is
    /// recycled or reclaimed underneath it.
    ///
    /// Disabling flushes any pending run first. Default: disabled.
    pub fn set_confirm_coalescing(&self, enabled: bool) {
        if !enabled {
            self.flush_confirms();
        }
        self.coalesce.set(enabled);
    }

    /// Whether confirm coalescing is enabled on this handle.
    pub fn confirm_coalescing(&self) -> bool {
        self.coalesce.get()
    }

    /// Confirms this handle's pending coalesced run, if any: one Release
    /// RMW that publishes every record since the last flush. Call before
    /// expecting a consumer to see the tail of a coalesced burst.
    pub fn flush_confirms(&self) {
        let pending = self.slot.pending.swap(0, Relaxed) as u32;
        if pending > 0 {
            self.shared.confirm_entry(self.slot.meta_idx.load(Relaxed), pending);
        }
    }

    /// Cached-descriptor allocation: one fetch-and-add against the cached
    /// block, no core-local load, no mapping. Falls into [`Self::refresh`]
    /// when the cached block cannot take the entry.
    #[inline]
    fn allocate(&self, need: u32) -> Granted {
        let d = self.desc.get();
        match self.shared.metas[d.meta_idx].alloc(d.rnd, need, self.shared.cap()) {
            Alloc::Fits { pos } => Granted {
                gpos: d.gpos,
                rnd: d.rnd,
                meta_idx: d.meta_idx,
                data_idx: d.data_idx,
                data_off: d.data_off,
                offset: pos,
                len: need,
            },
            fail => self.refresh(need, fail, d),
        }
    }

    /// Slow path: settle the failed allocation against the cached block —
    /// including the coalesced confirm run, whose covering Release lands
    /// here, at the block boundary — then allocate through the shared path
    /// and re-seed the cache.
    #[cold]
    fn refresh(&self, need: u32, fail: Alloc, d: Desc) -> Granted {
        let pending = self.slot.pending.swap(0, Relaxed) as u32;
        match fail {
            // We own the insufficient tail of the cached block: fill and
            // confirm it, exactly as the uncached path would (Fig. 8c). The
            // write is safe even against a concurrent shrink — the round
            // stays unconfirmed until our confirm, which the resize drain
            // waits on before any page is decommitted. One Release RMW
            // covers the coalesced run *and* the tail fill: the dummy bytes
            // are stored above, the run's payload bytes were stored before
            // their allocations returned, and the release orders all of
            // them before any observer of the bumped counter.
            Alloc::Tail { pos } => {
                let fill = self.shared.cap() - pos;
                self.shared.write_dummy_run(d.data_idx, pos, fill);
                self.shared.metas[d.meta_idx].confirm(pending + fill);
            }
            // The cached block was recycled into a newer round by a
            // wrap-around producer; our fetch-and-add inflated *that* round
            // and must be repaired, or its pin wedges the block (§3.4).
            Alloc::Stale(actual) => {
                // A pending run pins the cached round (its bytes are
                // unconfirmed), and a pinned round cannot be locked into a
                // newer one — so Stale implies no pending run. Were the
                // counter somehow non-zero, confirming into the *new*
                // round would corrupt it; dropping the count is the only
                // safe settlement (the old round no longer exists).
                debug_assert_eq!(pending, 0, "unconfirmed coalesced run pins the round");
                self.shared.repair_straggler(d.meta_idx, actual, need);
            }
            Alloc::Exhausted => {
                // The block filled under other writers; our run is its own
                // covering confirm.
                if pending > 0 {
                    self.shared.metas[d.meta_idx].confirm(pending);
                }
            }
            Alloc::Fits { .. } => unreachable!("fast path handles Fits"),
        }
        let granted = self.shared.allocate(self.core as usize, need);
        self.desc.set(Desc {
            gpos: granted.gpos,
            rnd: granted.rnd,
            meta_idx: granted.meta_idx,
            data_idx: granted.data_idx,
            data_off: granted.data_off,
        });
        granted
    }

    /// Opens a coalesced run in `meta_idx`: stamps the slot and, when this
    /// thread does not already own the slot, re-homes it into the calling
    /// thread's run registry so a same-thread `resize_bytes` can flush it.
    /// Runs once per block per handle — cold next to the per-record path.
    #[cold]
    fn open_run(&self, meta_idx: usize) {
        let slot = &self.slot;
        slot.meta_idx.store(meta_idx, Relaxed);
        let me = thread_token();
        if slot.owner.load(Relaxed) != me {
            slot.owner.store(me, Relaxed);
            THREAD_RUNS.with(|runs| {
                let mut runs = runs.borrow_mut();
                let ptr = Arc::as_ptr(slot);
                if !runs.iter().any(|w| w.as_ptr() == ptr) {
                    runs.push(Arc::downgrade(slot));
                }
            });
        }
    }

    /// The core this handle records on.
    pub fn core(&self) -> usize {
        self.core as usize
    }

    /// Records `payload` with a stamp from the tracer's convenience clock
    /// and a thread id of 0.
    ///
    /// # Errors
    ///
    /// [`TraceError::EntryTooLarge`] when the payload cannot fit in a block.
    pub fn record(&self, payload: &[u8]) -> Result<(), TraceError> {
        let stamp = self.shared.next_stamp();
        self.record_with(stamp, 0, payload)
    }

    /// Records `payload` with a caller-provided logic stamp and thread id.
    /// This is the hot path: one fetch-and-add against the cached block
    /// descriptor to allocate, a word-wise copy, one fetch-and-add to
    /// confirm, one packed relaxed add for the counters.
    ///
    /// # Errors
    ///
    /// [`TraceError::EntryTooLarge`] when the payload cannot fit in a block.
    #[inline]
    pub fn record_with(&self, stamp: u64, tid: u32, payload: &[u8]) -> Result<(), TraceError> {
        let shared = &*self.shared;
        let core = self.core as usize;
        let max = max_payload(shared.cfg.block_bytes);
        if payload.len() > max {
            return Err(TraceError::EntryTooLarge { payload: payload.len(), max });
        }
        let need = encoded_len(payload.len()) as u32;
        // Sampled fast-path timing: untimed records pay one relaxed load.
        #[cfg(feature = "telemetry")]
        let timer = shared.telem.record_timer(shared.counters.records_on_core(core));
        let granted = self.allocate(need);
        write_entry(
            shared,
            granted.data_off,
            granted.offset,
            granted.len,
            stamp,
            tid,
            self.core,
            payload,
        );
        if self.coalesce.get() {
            // Deferred: the covering Release happens at the block boundary
            // (refresh), on flush_confirms, on a same-thread resize, or on
            // drop. `granted` is always the cached descriptor's block here —
            // a boundary-crossing allocation went through refresh, which
            // flushed the old run before re-seeding the descriptor. Pure
            // relaxed load + store (no RMW): the slot is written by this
            // handle only, and the run-open below re-homes the slot into
            // the current thread's registry so `resize_bytes` can reach it.
            let slot = &*self.slot;
            let pending = slot.pending.load(Relaxed);
            if pending == 0 {
                self.open_run(granted.meta_idx);
            } else {
                debug_assert_eq!(slot.meta_idx.load(Relaxed), granted.meta_idx);
            }
            slot.pending.store(pending + granted.len as u64, Relaxed);
        } else {
            shared.confirm_entry(granted.meta_idx, granted.len);
        }
        shared.counters.record_on_core(core, granted.len as u64);
        #[cfg(feature = "telemetry")]
        if let Some(t0) = timer {
            shared.telem.record_hist.record(core, t0.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Allocates space for a `payload_len`-byte entry without writing it,
    /// returning a [`Grant`] to commit later.
    ///
    /// Between `begin` and [`Grant::commit`] the owning thread may be
    /// preempted arbitrarily long; other producers on the same core keep
    /// recording (out-of-order confirmation) and, when the block fills,
    /// advancement skips rather than waits (§3.4). The unconfirmed grant
    /// pins its block's round, so the space can be neither reused nor
    /// reclaimed underneath it.
    ///
    /// # Errors
    ///
    /// [`TraceError::EntryTooLarge`] when the payload cannot fit in a block.
    pub fn begin(&self, payload_len: usize) -> Result<Grant, TraceError> {
        let need = self.encoded_need(payload_len)?;
        let granted = self.allocate(need);
        Ok(Grant {
            shared: Arc::clone(&self.shared),
            meta_idx: granted.meta_idx,
            data_off: granted.data_off,
            offset: granted.offset,
            len: granted.len,
            payload_len: payload_len as u32,
            core: self.core,
            gpos: granted.gpos,
            committed: false,
        })
    }

    fn encoded_need(&self, payload_len: usize) -> Result<u32, TraceError> {
        let max = max_payload(self.shared.cfg.block_bytes);
        if payload_len > max {
            return Err(TraceError::EntryTooLarge { payload: payload_len, max });
        }
        Ok(encoded_len(payload_len) as u32)
    }
}

impl std::fmt::Debug for Producer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Producer").field("core", &self.core).finish()
    }
}

/// The grant-free, uncached recording path used by the `TraceSink`
/// implementation (which has no per-handle state to cache a descriptor in).
/// [`Producer::record_with`] carries its own copy running over the cached
/// descriptor.
#[inline]
pub(crate) fn record_on(
    shared: &Shared,
    core: usize,
    stamp: u64,
    tid: u32,
    payload: &[u8],
) -> Result<(), TraceError> {
    let max = max_payload(shared.cfg.block_bytes);
    if payload.len() > max {
        return Err(TraceError::EntryTooLarge { payload: payload.len(), max });
    }
    let need = encoded_len(payload.len()) as u32;
    // Sampled fast-path timing: untimed records pay one relaxed load.
    #[cfg(feature = "telemetry")]
    let timer = shared.telem.record_timer(shared.counters.records_on_core(core));
    let granted = shared.allocate(core, need);
    write_entry(
        shared,
        granted.data_off,
        granted.offset,
        granted.len,
        stamp,
        tid,
        core as u16,
        payload,
    );
    shared.confirm_entry(granted.meta_idx, granted.len);
    shared.counters.record_on_core(core, granted.len as u64);
    #[cfg(feature = "telemetry")]
    if let Some(t0) = timer {
        shared.telem.record_hist.record(core, t0.elapsed().as_nanos() as u64);
    }
    Ok(())
}

#[inline]
#[allow(clippy::too_many_arguments)]
fn write_entry(
    shared: &Shared,
    data_off: usize,
    offset: u32,
    len: u32,
    stamp: u64,
    tid: u32,
    core: u16,
    payload: &[u8],
) {
    let pad = len as usize - HEADER_BYTES - payload.len();
    let header = EntryHeader {
        len: len as u16,
        kind: EntryKind::Data,
        pad: pad as u8,
        core: core as u8,
        tid,
        stamp,
    };
    let at = data_off + offset as usize;
    shared.data.store_words(at, &header.encode());
    shared.data.store_bytes(at + HEADER_BYTES, payload);
}

/// An allocated-but-unconfirmed entry (paper Fig. 8).
///
/// Obtained from [`Producer::begin`]; finish with [`Grant::commit`].
/// Dropping an uncommitted grant confirms the space as a dummy entry so the
/// block can still fill, close, and recycle — a crashed or cancelled writer
/// costs its bytes, never the buffer's liveness.
#[must_use = "an unfinished grant keeps its block from completing; commit it"]
pub struct Grant {
    shared: Arc<Shared>,
    meta_idx: usize,
    data_off: usize,
    offset: u32,
    len: u32,
    payload_len: u32,
    core: u16,
    gpos: u64,
    committed: bool,
}

impl Grant {
    /// Number of payload bytes this grant was sized for.
    pub fn payload_len(&self) -> usize {
        self.payload_len as usize
    }

    /// Global sequence number of the block holding the grant.
    pub fn gpos(&self) -> u64 {
        self.gpos
    }

    /// Writes the entry and confirms it (the out-of-order confirmation of
    /// §3.4 — grants commit in any order, each bumping the confirmed
    /// counter).
    ///
    /// # Errors
    ///
    /// [`TraceError::EntryTooLarge`] when `payload` is not exactly the
    /// length the grant was allocated for.
    pub fn commit(mut self, stamp: u64, tid: u32, payload: &[u8]) -> Result<(), TraceError> {
        if payload.len() != self.payload_len as usize {
            return Err(TraceError::EntryTooLarge {
                payload: payload.len(),
                max: self.payload_len as usize,
            });
        }
        write_entry(
            &self.shared,
            self.data_off,
            self.offset,
            self.len,
            stamp,
            tid,
            self.core,
            payload,
        );
        self.shared.confirm_entry(self.meta_idx, self.len);
        self.shared.counters.record_on_core(self.core as usize, self.len as u64);
        self.committed = true;
        Ok(())
    }
}

impl Drop for Grant {
    fn drop(&mut self) {
        if !self.committed {
            // Convert the reserved space into dummy filler and confirm it so
            // the block is not wedged (C-DTOR-FAIL: never fails, never blocks).
            let data_idx = (self.data_off / self.shared.cfg.block_bytes) as u64;
            self.shared.write_dummy_run(data_idx, self.offset, self.len);
            self.shared.confirm_entry(self.meta_idx, self.len);
        }
    }
}

impl std::fmt::Debug for Grant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Grant")
            .field("gpos", &self.gpos)
            .field("offset", &self.offset)
            .field("len", &self.len)
            .field("committed", &self.committed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::consumer::tests::snapshot_of;
    use crate::{BTrace, Config, TraceError};
    use btrace_vmem::Backing;

    fn tracer(cores: usize) -> BTrace {
        BTrace::new(
            Config::new(cores)
                .active_blocks(cores.max(4))
                .block_bytes(256)
                .buffer_bytes(256 * cores.max(4) * 4)
                .backing(Backing::Heap),
        )
        .unwrap()
    }

    #[test]
    fn record_then_collect_roundtrip() {
        let t = tracer(1);
        let p = t.producer(0).unwrap();
        p.record_with(1, 7, b"hello").unwrap();
        p.record_with(2, 7, b"world!").unwrap();
        let out = snapshot_of(&t).to_events();
        let payloads: Vec<_> = out.iter().map(|e| e.payload.to_vec()).collect();
        assert_eq!(payloads, vec![b"hello".to_vec(), b"world!".to_vec()]);
        assert_eq!(out[0].stamp, 1);
        assert_eq!(out[0].tid, 7);
        assert_eq!(out[0].core, 0);
    }

    #[test]
    fn oversized_payload_rejected() {
        let t = tracer(1);
        let p = t.producer(0).unwrap();
        let big = vec![0u8; 1024];
        assert!(matches!(p.record(&big), Err(TraceError::EntryTooLarge { .. })));
    }

    #[test]
    fn max_payload_is_accepted() {
        let t = tracer(1);
        let p = t.producer(0).unwrap();
        let payload = vec![0xAB; t.max_payload()];
        p.record(&payload).unwrap();
        let out = snapshot_of(&t).to_events();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, &payload[..]);
    }

    #[test]
    fn grant_commit_publishes_entry() {
        let t = tracer(1);
        let p = t.producer(0).unwrap();
        let g = p.begin(4).unwrap();
        // Nothing visible while the grant is open.
        assert_eq!(snapshot_of(&t).to_events().len(), 0, "open grant must hide the block");
        g.commit(9, 3, b"abcd").unwrap();
        let out = snapshot_of(&t).to_events();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].stamp, 9);
        assert_eq!(out[0].payload, b"abcd");
    }

    #[test]
    fn grant_commit_wrong_len_rejected() {
        let t = tracer(1);
        let p = t.producer(0).unwrap();
        let g = p.begin(4).unwrap();
        assert!(g.commit(0, 0, b"too long").is_err());
        // The failed commit consumed the grant; its Drop confirmed a dummy,
        // so later records still flow.
        p.record(b"after").unwrap();
        let out = snapshot_of(&t).to_events();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn dropped_grant_becomes_dummy() {
        let t = tracer(1);
        let p = t.producer(0).unwrap();
        drop(p.begin(32).unwrap());
        p.record_with(5, 0, b"next").unwrap();
        let out = snapshot_of(&t).to_events();
        assert_eq!(out.len(), 1, "dummy must not surface as an event");
        assert_eq!(out[0].stamp, 5);
        assert!(t.stats().dummy_bytes >= 48);
    }

    #[test]
    fn interleaved_grants_commit_out_of_order() {
        let t = tracer(1);
        let p = t.producer(0).unwrap();
        let g1 = p.begin(2).unwrap();
        let g2 = p.begin(2).unwrap();
        g2.commit(2, 1, b"g2").unwrap(); // T1 confirms before T0 (Fig. 8b)
        g1.commit(1, 0, b"g1").unwrap();
        let out = snapshot_of(&t).to_events();
        let stamps: Vec<_> = out.iter().map(|e| e.stamp).collect();
        assert_eq!(stamps, vec![1, 2], "buffer order follows allocation order");
    }

    #[test]
    fn preempted_grant_does_not_block_other_threads() {
        let t = tracer(1);
        let p = t.producer(0).unwrap();
        let held = p.begin(8).unwrap(); // simulated preemption mid-write
                                        // Other threads on the core keep writing straight through block
                                        // boundaries (the held grant's block is skipped at wrap-around).
        for i in 0..200 {
            p.record_with(100 + i, 1, b"filler-entry").unwrap();
        }
        held.commit(1, 0, b"held-one").unwrap();
        assert!(t.stats().records == 201);
    }

    #[test]
    fn cached_descriptor_refreshes_across_advances() {
        let t = tracer(1);
        let p = t.producer(0).unwrap();
        // 100 records of 32 encoded bytes cross many 256-byte blocks, so the
        // cached descriptor is invalidated (Tail/Exhausted) and re-seeded
        // repeatedly.
        for i in 0..100u64 {
            p.record_with(i, 0, b"cache-payload-16").unwrap();
        }
        assert!(t.stats().advances >= 2, "run must cross blocks");
        let out = snapshot_of(&t).to_events();
        assert!(!out.is_empty());
        let stamps: Vec<_> = out.iter().map(|e| e.stamp).collect();
        let mut sorted = stamps.clone();
        sorted.sort_unstable();
        assert_eq!(stamps, sorted, "single-producer buffer order must follow stamps");
        for e in &out {
            assert_eq!(e.payload, b"cache-payload-16");
        }
    }

    #[test]
    fn cached_descriptor_survives_cross_core_recycle() {
        let t = tracer(2);
        let p0 = t.producer(0).unwrap();
        let p1 = t.producer(1).unwrap();
        p0.record_with(0, 0, b"prime-cache!").unwrap();
        // Flood from core 1 until the buffer wraps several times: core 0's
        // cached block is closed and recycled into a newer round behind the
        // cache's back.
        for i in 0..500u64 {
            p1.record_with(1000 + i, 1, b"flood-payload-entry").unwrap();
        }
        // The next allocation against the cached descriptor lands in the
        // newer round (Stale), must repair its own inflation, and the
        // record still goes through intact.
        p0.record_with(1, 0, b"after-recycle").unwrap();
        assert!(t.stats().straggler_repairs >= 1, "stale cached round must be repaired");
        let out = snapshot_of(&t).to_events();
        assert!(out.iter().any(|e| e.payload == b"after-recycle"));
        for e in &out {
            assert!(
                e.payload == b"after-recycle"
                    || e.payload == b"prime-cache!"
                    || e.payload == b"flood-payload-entry",
                "torn event: {:?}",
                e.payload
            );
        }
    }

    #[test]
    fn cached_descriptor_survives_shrink_resize() {
        let t = BTrace::new(
            Config::new(1)
                .active_blocks(4)
                .block_bytes(1024)
                .buffer_bytes(1024 * 4 * 4)
                .max_bytes(1024 * 4 * 8)
                .backing(Backing::Heap),
        )
        .unwrap();
        let p = t.producer(0).unwrap();
        p.record_with(0, 0, b"pre-resize").unwrap(); // primes the cache
        t.resize_bytes(1024 * 4 * 8).unwrap(); // grow: new mapping epoch
        for i in 1..25u64 {
            p.record_with(i, 0, b"post-grow-entry!").unwrap();
        }
        t.resize_bytes(1024 * 4).unwrap(); // shrink: blocks decommitted
        for i in 25..50u64 {
            p.record_with(i, 0, b"post-shrink-entry").unwrap();
        }
        let out = snapshot_of(&t).to_events();
        // No write was misplaced through a stale cached mapping: every
        // surviving event is byte-intact and the newest is retained.
        for e in &out {
            assert!(
                e.payload == b"pre-resize"
                    || e.payload == b"post-grow-entry!"
                    || e.payload == b"post-shrink-entry",
                "torn event after resize: {:?}",
                e.payload
            );
        }
        assert_eq!(out.last().unwrap().stamp, 49);
    }

    #[test]
    fn coalesced_run_is_invisible_until_flush() {
        let t = tracer(1);
        let p = t.producer(0).unwrap();
        p.set_confirm_coalescing(true);
        p.record_with(1, 0, b"deferred").unwrap();
        p.record_with(2, 0, b"deferred").unwrap();
        // The run is unconfirmed: its block cannot close, so nothing is
        // visible yet — the same containment as an open grant.
        assert_eq!(snapshot_of(&t).to_events().len(), 0, "unflushed run must stay hidden");
        p.flush_confirms();
        let out = snapshot_of(&t).to_events();
        let stamps: Vec<_> = out.iter().map(|e| e.stamp).collect();
        assert_eq!(stamps, vec![1, 2], "the covering confirm publishes the whole run");
    }

    #[test]
    fn coalesced_confirms_flush_at_block_boundaries() {
        let t = tracer(1);
        let p = t.producer(0).unwrap();
        p.set_confirm_coalescing(true);
        // 24-byte encoded entries into 256-byte blocks: every block
        // boundary crossing must flush the previous block's run, so all
        // but the current open block's records are visible without an
        // explicit flush.
        for i in 0..100u64 {
            p.record_with(i, 0, b"cache-payload-16").unwrap();
        }
        let visible = snapshot_of(&t).to_events().len();
        assert!(visible >= 80, "closed blocks must be published by boundary flushes: {visible}");
        p.flush_confirms();
        let out = snapshot_of(&t).to_events();
        let stamps: Vec<_> = out.iter().map(|e| e.stamp).collect();
        let expected: Vec<u64> = (0..100).collect();
        assert_eq!(stamps, expected, "flush publishes the tail; nothing lost or reordered");
    }

    #[test]
    fn dropping_a_coalescing_producer_flushes_its_run() {
        let t = tracer(1);
        let p = t.producer(0).unwrap();
        p.set_confirm_coalescing(true);
        p.record_with(7, 0, b"flushed by drop").unwrap();
        drop(p);
        let out = snapshot_of(&t).to_events();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].stamp, 7);
    }

    #[test]
    fn cloned_coalescing_handle_does_not_inherit_the_pending_run() {
        let t = tracer(1);
        let p = t.producer(0).unwrap();
        p.set_confirm_coalescing(true);
        p.record_with(1, 0, b"pending-on-p").unwrap();
        let q = p.clone();
        assert!(q.confirm_coalescing(), "the mode is inherited");
        // q flushing must not confirm p's bytes (that would double-count
        // and could close the block with p's entry still unpublished).
        q.flush_confirms();
        assert_eq!(snapshot_of(&t).to_events().len(), 0, "clone owns no pending bytes");
        p.flush_confirms();
        assert_eq!(snapshot_of(&t).to_events().len(), 1);
    }

    #[test]
    fn disabling_coalescing_flushes_and_restores_immediate_visibility() {
        let t = tracer(1);
        let p = t.producer(0).unwrap();
        p.set_confirm_coalescing(true);
        p.record_with(1, 0, b"deferred").unwrap();
        p.set_confirm_coalescing(false);
        assert_eq!(snapshot_of(&t).to_events().len(), 1, "disable flushes the run");
        p.record_with(2, 0, b"immediate").unwrap();
        assert_eq!(snapshot_of(&t).to_events().len(), 2, "per-record confirms are back");
    }

    #[test]
    fn coalesced_wraparound_preserves_integrity() {
        // Wrap the 16-block buffer many times with coalescing on: every
        // boundary flush must cover exactly its run, or a block would
        // close early (torn reads) or never (wedged stream).
        let t = tracer(1);
        let p = t.producer(0).unwrap();
        p.set_confirm_coalescing(true);
        for i in 0..2_000u64 {
            p.record_with(i, 0, b"wrap-the-buffer!").unwrap();
        }
        p.flush_confirms();
        let out = snapshot_of(&t).to_events();
        assert!(!out.is_empty());
        for e in &out {
            assert_eq!(e.payload, b"wrap-the-buffer!", "torn event at stamp {}", e.stamp);
        }
        assert_eq!(out.last().unwrap().stamp, 1_999, "newest record retained");
    }

    proptest::proptest! {
        #[test]
        fn wide_copy_roundtrips_any_payload(len in 1usize..=64, seed in proptest::prelude::any::<u8>()) {
            let t = tracer(1);
            let p = t.producer(0).unwrap();
            let payload: Vec<u8> = (0..len).map(|i| seed.wrapping_add(i as u8)).collect();
            p.record_with(7, 3, &payload).unwrap();
            let out = snapshot_of(&t).to_events();
            proptest::prop_assert_eq!(out.len(), 1);
            proptest::prop_assert_eq!(out[0].payload, &payload[..]);
        }
    }

    #[test]
    fn producers_on_all_cores_share_the_buffer() {
        let t = tracer(4);
        let handles: Vec<_> = (0..4)
            .map(|c| {
                let p = t.producer(c).unwrap();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        p.record_with(c as u64 * 1000 + i, c as u32, b"0123456789abcdef").unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.stats().records, 2000);
        let out = snapshot_of(&t).to_events();
        assert!(!out.is_empty());
        // Every surviving event must be intact (stamp within the ranges we wrote).
        for e in &out {
            assert!(e.stamp % 1000 < 500, "corrupt stamp {}", e.stamp);
            assert_eq!(e.payload, b"0123456789abcdef");
        }
    }
}
