//! LTTng-like baseline: per-core sub-buffered rings that **drop the newest**
//! events when a sub-buffer is pinned by a preempted writer (paper §2.2,
//! Fig. 1b; the behaviour of `lttng-ust`'s ring buffer in overwrite mode
//! when a sub-buffer cannot be switched out).
//!
//! Each core owns `S` sub-buffers used round-robin. Space is reserved with
//! a fetch-and-add; commits may land out of order. Switching to the next
//! sub-buffer requires its *previous* occupancy to be fully committed — if a
//! preempted thread still holds an uncommitted reservation there, the
//! switch fails and the incoming event is **dropped** (LTTng's
//! "lost events" counter), which is exactly how oversubscription translates
//! into the heavy newest-data loss of Table 2.

use crate::bbq::{pack, unpack};
use crate::wordbuf::WordBuf;
use btrace_core::event::{encoded_len, EventView};
use btrace_core::sink::{Begin, FullEvent, SinkGrant, TraceSink};
use btrace_telemetry::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct SubBuf {
    allocated: CachePadded<AtomicU64>,
    confirmed: CachePadded<AtomicU64>,
    buf: WordBuf,
}

struct CoreRing {
    subs: Vec<SubBuf>,
    /// Monotone sequence of the active sub-buffer (index = seq % S).
    seq: CachePadded<AtomicU64>,
}

struct Inner {
    cores: Vec<CoreRing>,
    sub_bytes: u32,
    total_bytes: usize,
    dropped: CachePadded<AtomicU64>,
}

/// Per-core drop-newest sub-buffered rings, modelled on LTTng-UST.
///
/// # Examples
///
/// ```rust
/// use btrace_baselines::PerCoreDropNewest;
/// use btrace_core::sink::TraceSink;
///
/// let tracer = PerCoreDropNewest::new(4, 1 << 20, 4);
/// tracer.record(2, 5, 1, b"ust event");
/// assert_eq!(tracer.drain().len(), 1);
/// ```
#[derive(Clone)]
pub struct PerCoreDropNewest {
    inner: Arc<Inner>,
}

impl PerCoreDropNewest {
    /// Splits `total_bytes` over `cores`, each core's share over
    /// `subs_per_core` sub-buffers.
    ///
    /// # Panics
    ///
    /// Panics when `cores` is zero or fewer than two sub-buffers per core
    /// result.
    pub fn new(cores: usize, total_bytes: usize, subs_per_core: usize) -> Self {
        assert!(cores > 0, "at least one core required");
        assert!(subs_per_core >= 2, "need at least two sub-buffers per core");
        let sub_bytes = ((total_bytes / cores / subs_per_core) & !7).max(64);
        let cores = (0..cores)
            .map(|_| {
                let subs: Vec<SubBuf> = (0..subs_per_core)
                    .map(|i| SubBuf {
                        // Genesis: sub i finished "round" i, empty and
                        // fully committed.
                        allocated: CachePadded::new(AtomicU64::new(pack(i as u32, 0))),
                        confirmed: CachePadded::new(AtomicU64::new(pack(i as u32, 0))),
                        buf: WordBuf::new(sub_bytes),
                    })
                    .collect();
                // Activate sequence S on sub 0.
                subs[0].allocated.store(pack(subs_per_core as u32, 0), Ordering::SeqCst);
                subs[0].confirmed.store(pack(subs_per_core as u32, 0), Ordering::SeqCst);
                CoreRing { subs, seq: CachePadded::new(AtomicU64::new(subs_per_core as u64)) }
            })
            .collect();
        Self {
            inner: Arc::new(Inner {
                cores,
                sub_bytes: sub_bytes as u32,
                total_bytes,
                dropped: CachePadded::new(AtomicU64::new(0)),
            }),
        }
    }

    /// Events dropped because a sub-buffer switch was blocked by an
    /// uncommitted reservation.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// The events of every fully committed sub-buffer, in stamp order — the
    /// selection behind [`TraceSink::visit`].
    fn drain_committed(&self) -> Vec<FullEvent> {
        let mut out = Vec::new();
        let cap = self.inner.sub_bytes;
        for ring in &self.inner.cores {
            let nsubs = ring.subs.len() as u64;
            let head = ring.seq.load(Ordering::Acquire);
            for seq in head.saturating_sub(nsubs - 1)..=head {
                let sub = &ring.subs[(seq % nsubs) as usize];
                let (crnd, cpos) = unpack(sub.confirmed.load(Ordering::Acquire));
                let (arnd, apos) = unpack(sub.allocated.load(Ordering::Acquire));
                if crnd != seq as u32 || arnd != seq as u32 || cpos != apos.min(cap) {
                    continue; // recycled, never reached, or uncommitted
                }
                sub.buf.read_entries(0..apos.min(cap) as usize, &mut out);
            }
        }
        out.sort_by_key(|e| e.stamp);
        out
    }

    /// Attempts to reserve `need` bytes on `core`. `None` means the event
    /// must be dropped.
    fn reserve(&self, core: usize, need: u32) -> Option<(usize, u64, u32)> {
        let ring = &self.inner.cores[core];
        let nsubs = ring.subs.len() as u64;
        let cap = self.inner.sub_bytes;
        loop {
            let seq = ring.seq.load(Ordering::Acquire);
            let idx = (seq % nsubs) as usize;
            let sub = &ring.subs[idx];
            let (ornd, opos) = unpack(sub.allocated.fetch_add(need as u64, Ordering::AcqRel));
            if ornd != seq as u32 {
                // Raced a switch; our bytes landed in another round.
                // Confirm them as waste so that round can still complete.
                if opos < cap {
                    sub.confirmed.fetch_add(need.min(cap - opos) as u64, Ordering::AcqRel);
                }
                continue;
            }
            if opos + need <= cap {
                return Some((idx, seq, opos));
            }
            // Sub-buffer exhausted (our reservation is waste; confirm the
            // in-capacity part so the counters converge).
            if opos < cap {
                sub.confirmed.fetch_add((cap - opos) as u64, Ordering::AcqRel);
            }
            // Try to switch to the next sub-buffer.
            let next = seq + 1;
            let nidx = (next % nsubs) as usize;
            let nsub = &ring.subs[nidx];
            let prev_rnd = (next - nsubs) as u32;
            let conf = nsub.confirmed.load(Ordering::Acquire);
            let alloc = nsub.allocated.load(Ordering::Acquire);
            let (crnd, cpos) = unpack(conf);
            let (arnd, apos) = unpack(alloc);
            // `allocated` may overshoot capacity (failed reservations
            // inflate it without confirming); fully committed means the
            // confirmed count reached the in-capacity watermark.
            if crnd == prev_rnd && arnd == prev_rnd && cpos == apos.min(cap) {
                // Fully committed: recycle it for round `next`.
                if nsub
                    .confirmed
                    .compare_exchange(
                        conf,
                        pack(next as u32, 0),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    let mut cur = nsub.allocated.load(Ordering::Acquire);
                    loop {
                        match nsub.allocated.compare_exchange_weak(
                            cur,
                            pack(next as u32, 0),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        ) {
                            Ok(_) => break,
                            Err(actual) => cur = actual,
                        }
                    }
                    let _ =
                        ring.seq.compare_exchange(seq, next, Ordering::AcqRel, Ordering::Acquire);
                }
                continue;
            }
            if crnd != prev_rnd || arnd != prev_rnd {
                continue; // switch already in progress elsewhere
            }
            // The next sub-buffer is pinned by an uncommitted reservation:
            // LTTng drops the newest event rather than wait.
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
    }
}

/// A reservation in one core's active sub-buffer.
#[derive(Debug)]
pub struct LttngGrant {
    tracer: PerCoreDropNewest,
    core: usize,
    idx: usize,
    offset: u32,
    len: u32,
    payload_len: u32,
    committed: bool,
}

impl SinkGrant for LttngGrant {
    fn commit(mut self, stamp: u64, tid: u32, payload: &[u8]) {
        debug_assert_eq!(payload.len(), self.payload_len as usize);
        let sub = &self.tracer.inner.cores[self.core].subs[self.idx];
        sub.buf.write_data(self.offset as usize, self.len as usize, self.core, tid, stamp, payload);
        sub.confirmed.fetch_add(self.len as u64, Ordering::AcqRel);
        self.committed = true;
    }
}

impl Drop for LttngGrant {
    fn drop(&mut self) {
        if !self.committed {
            let sub = &self.tracer.inner.cores[self.core].subs[self.idx];
            sub.buf.write_dummy(self.offset as usize, self.len as usize);
            sub.confirmed.fetch_add(self.len as u64, Ordering::AcqRel);
        }
    }
}

impl TraceSink for PerCoreDropNewest {
    type Grant = LttngGrant;

    fn name(&self) -> &'static str {
        "LTTng"
    }

    fn try_begin(&self, core: usize, _tid: u32, payload_len: usize) -> Begin<LttngGrant> {
        let need = encoded_len(payload_len) as u32;
        if core >= self.inner.cores.len() || need > self.inner.sub_bytes {
            return Begin::Dropped;
        }
        match self.reserve(core, need) {
            Some((idx, _seq, offset)) => Begin::Granted(LttngGrant {
                tracer: self.clone(),
                core,
                idx,
                offset,
                len: need,
                payload_len: payload_len as u32,
                committed: false,
            }),
            None => Begin::Dropped,
        }
    }

    fn record(
        &self,
        core: usize,
        tid: u32,
        stamp: u64,
        payload: &[u8],
    ) -> btrace_core::sink::RecordOutcome {
        use btrace_core::sink::RecordOutcome;
        let need = encoded_len(payload.len()) as u32;
        if core >= self.inner.cores.len() || need > self.inner.sub_bytes {
            return RecordOutcome::Dropped;
        }
        let Some((idx, _seq, offset)) = self.reserve(core, need) else {
            return RecordOutcome::Dropped;
        };
        let sub = &self.inner.cores[core].subs[idx];
        sub.buf.write_data(offset as usize, need as usize, core, tid, stamp, payload);
        sub.confirmed.fetch_add(need as u64, Ordering::AcqRel);
        RecordOutcome::Recorded
    }

    fn visit(&self, f: &mut dyn FnMut(EventView<'_>)) {
        self.drain_committed().iter().for_each(|e| f(e.view()));
    }

    fn capacity_bytes(&self) -> usize {
        self.inner.total_bytes
    }
}

impl std::fmt::Debug for PerCoreDropNewest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerCoreDropNewest")
            .field("cores", &self.inner.cores.len())
            .field("sub_bytes", &self.inner.sub_bytes)
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrace_core::sink::RecordOutcome;

    #[test]
    fn basic_record_and_drain() {
        let t = PerCoreDropNewest::new(2, 8192, 4);
        for i in 0..20u64 {
            assert_eq!(t.record((i % 2) as usize, i as u32, i, b"event"), RecordOutcome::Recorded);
        }
        let out = t.drain();
        assert_eq!(out.len(), 20);
        assert_eq!(out[0].stamp, 0);
    }

    #[test]
    fn wraps_and_keeps_newest_when_unobstructed() {
        let t = PerCoreDropNewest::new(1, 1024, 4); // 256 B subs
        for i in 0..500u64 {
            t.record(0, 0, i, b"0123456789");
        }
        let out = t.drain();
        assert_eq!(out.last().unwrap().stamp, 499);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn pinned_subbuffer_drops_newest() {
        let t = PerCoreDropNewest::new(1, 1024, 2); // two 512 B subs
                                                    // Preempted writer holds a reservation in the active sub-buffer.
        let held = match t.try_begin(0, 1, 8) {
            Begin::Granted(g) => g,
            Begin::Dropped => panic!("first reservation must succeed"),
        };
        // Fill the remaining space; the ring wraps onto the pinned sub and
        // must start dropping.
        let mut dropped = 0;
        for i in 0..200u64 {
            if t.record(0, 0, i, b"0123456789abcdef") == RecordOutcome::Dropped {
                dropped += 1;
            }
        }
        assert!(dropped > 0, "drop-newest must engage while the sub-buffer is pinned");
        assert_eq!(t.dropped(), dropped);
        held.commit(999, 1, b"released");
        // After release, recording flows again.
        assert_eq!(t.record(0, 0, 1000, b"after"), RecordOutcome::Recorded);
    }

    #[test]
    fn per_core_isolation() {
        let t = PerCoreDropNewest::new(2, 4096, 2);
        // Pin core 0; core 1 must be unaffected.
        let _held = match t.try_begin(0, 1, 8) {
            Begin::Granted(g) => g,
            Begin::Dropped => panic!(),
        };
        for i in 0..50u64 {
            assert_eq!(t.record(1, 0, i, b"core one"), RecordOutcome::Recorded);
        }
    }

    #[test]
    fn oversized_entry_dropped() {
        let t = PerCoreDropNewest::new(1, 1024, 2);
        assert_eq!(t.record(0, 0, 0, &[0u8; 1000]), RecordOutcome::Dropped);
    }
}
