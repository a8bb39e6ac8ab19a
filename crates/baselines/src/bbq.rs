//! BBQ baseline: a single global block-based bounded queue in overwrite
//! mode (Wang et al., USENIX ATC'22 — reference 45 of the BTrace paper).
//!
//! BBQ is the origin of BTrace's block machinery, minus the per-core block
//! assignment: *every* producer on *every* core allocates from the same
//! current block with a fetch-and-add, so the shared `Allocated` cache line
//! ping-pongs between cores — the contention that motivates BTrace (§3.1).
//! Utilization is perfect (Table 1: `1`), but when the queue wraps onto a
//! block that still has unconfirmed writes, producers **block** until the
//! straggler finishes (Table 1: "Blocking").

use crate::wordbuf::WordBuf;
use btrace_core::event::{encoded_len, EventView};
use btrace_core::sink::{Begin, FullEvent, SinkGrant, TraceSink};
use btrace_telemetry::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Packs `(rnd, pos)` into a `u64` (rnd high, pos low) — the same layout
/// the BTrace metadata uses, shared here by the BBQ and LTTng models.
pub(crate) fn pack(rnd: u32, pos: u32) -> u64 {
    ((rnd as u64) << 32) | pos as u64
}

/// Unpacks a `(rnd, pos)` pair.
pub(crate) fn unpack(raw: u64) -> (u32, u32) {
    ((raw >> 32) as u32, raw as u32)
}

struct Block {
    allocated: CachePadded<AtomicU64>,
    confirmed: CachePadded<AtomicU64>,
    buf: WordBuf,
}

struct Inner {
    blocks: Vec<Block>,
    /// Monotone sequence number of the current block.
    head: CachePadded<AtomicU64>,
    block_bytes: u32,
    total_bytes: usize,
}

/// The global block queue.
///
/// # Examples
///
/// ```rust
/// use btrace_baselines::Bbq;
/// use btrace_core::sink::TraceSink;
///
/// let queue = Bbq::new(1 << 20, 4096);
/// queue.record(3, 9, 1, b"any core, same buffer");
/// assert_eq!(queue.drain().len(), 1);
/// ```
#[derive(Clone)]
pub struct Bbq {
    inner: Arc<Inner>,
}

impl Bbq {
    /// Creates a queue of `total_bytes` split into `block_bytes` blocks.
    ///
    /// # Panics
    ///
    /// Panics when fewer than two blocks result or sizes are unaligned.
    pub fn new(total_bytes: usize, block_bytes: usize) -> Self {
        assert!(block_bytes >= 64 && block_bytes.is_multiple_of(8), "invalid block size");
        let n = total_bytes / block_bytes;
        assert!(n >= 2, "need at least two blocks");
        let blocks: Vec<Block> = (0..n)
            .map(|i| Block {
                // Genesis: block i "finished" round i, fully confirmed.
                allocated: CachePadded::new(AtomicU64::new(pack(i as u32, block_bytes as u32))),
                confirmed: CachePadded::new(AtomicU64::new(pack(i as u32, block_bytes as u32))),
                buf: WordBuf::new(block_bytes),
            })
            .collect();
        // Activate sequence n on block 0.
        blocks[0].allocated.store(pack(n as u32, 0), Ordering::SeqCst);
        blocks[0].confirmed.store(pack(n as u32, 0), Ordering::SeqCst);
        Self {
            inner: Arc::new(Inner {
                blocks,
                head: CachePadded::new(AtomicU64::new(n as u64)),
                block_bytes: block_bytes as u32,
                total_bytes,
            }),
        }
    }

    fn nblocks(&self) -> u64 {
        self.inner.blocks.len() as u64
    }

    /// The events of every fully confirmed block, oldest block first — the
    /// selection behind [`TraceSink::visit`].
    fn drain_confirmed(&self) -> Vec<FullEvent> {
        let inner = &self.inner;
        let cap = inner.block_bytes;
        let head = inner.head.load(Ordering::Acquire);
        let n = self.nblocks();
        let mut out = Vec::new();
        for seq in head.saturating_sub(n - 1)..=head {
            let block = &inner.blocks[(seq % n) as usize];
            let (crnd, cpos) = unpack(block.confirmed.load(Ordering::Acquire));
            let (arnd, apos) = unpack(block.allocated.load(Ordering::Acquire));
            if crnd != seq as u32 || arnd != seq as u32 {
                continue; // recycled or never reached
            }
            let watermark = apos.min(cap);
            if cpos != watermark {
                continue; // unconfirmed writes outstanding
            }
            block.buf.read_entries(0..watermark as usize, &mut out);
        }
        out
    }

    /// Allocates `need` bytes, advancing (and blocking on stragglers) as
    /// required. Returns `(seq, block index, offset)`.
    fn allocate(&self, need: u32) -> (u64, usize, u32) {
        let inner = &self.inner;
        let cap = inner.block_bytes;
        loop {
            let seq = inner.head.load(Ordering::Acquire);
            let idx = (seq % self.nblocks()) as usize;
            let block = &inner.blocks[idx];
            let (ornd, opos) = unpack(block.allocated.fetch_add(need as u64, Ordering::AcqRel));
            if ornd != seq as u32 {
                // Straggler: our bytes landed in another round. The space is
                // validly ours — convert it to dummy filler so the round can
                // still complete (same repair as BTrace's §3.4).
                self.repair(ornd, opos, need);
                continue;
            }
            if opos >= cap {
                self.advance(seq);
                continue;
            }
            if opos + need <= cap {
                return (seq, idx, opos);
            }
            // We crossed the boundary: dummy-fill the tail, then advance.
            self.fill_dummy(idx, opos, cap - opos);
            block.confirmed.fetch_add((cap - opos) as u64, Ordering::AcqRel);
            self.advance(seq);
        }
    }

    fn repair(&self, rnd: u32, pos: u32, need: u32) {
        let cap = self.inner.block_bytes;
        if pos >= cap {
            return;
        }
        let fill = need.min(cap - pos);
        // rnd identifies the block: seq ≡ rnd, block = rnd % n (n < 2^32 here).
        let idx = (rnd as u64 % self.nblocks()) as usize;
        self.fill_dummy(idx, pos, fill);
        self.inner.blocks[idx].confirmed.fetch_add(fill as u64, Ordering::AcqRel);
    }

    fn fill_dummy(&self, idx: usize, pos: u32, len: u32) {
        let mut off = pos;
        let mut remaining = len;
        while remaining > 0 {
            let chunk = remaining.min(u16::MAX as u32 & !7);
            let chunk =
                if remaining - chunk != 0 && remaining - chunk < 8 { chunk - 8 } else { chunk };
            self.inner.blocks[idx].buf.write_dummy(off as usize, chunk as usize);
            off += chunk;
            remaining -= chunk;
        }
    }

    /// Advances the queue head past the full block `seq`, **blocking** until
    /// the next block's previous round has fully confirmed — the behaviour
    /// that distinguishes BBQ under oversubscription (Table 1).
    fn advance(&self, seq: u64) {
        let inner = &self.inner;
        let cap = inner.block_bytes;
        if inner.head.load(Ordering::Acquire) != seq {
            return; // someone already advanced
        }
        let next = seq + 1;
        let idx = (next % self.nblocks()) as usize;
        let block = &inner.blocks[idx];
        let prev_rnd = (next - self.nblocks()) as u32;
        // Blocking wait: the overwritten round must be fully confirmed.
        let mut spins = 0u32;
        loop {
            let conf = block.confirmed.load(Ordering::Acquire);
            if conf == pack(prev_rnd, cap) {
                break;
            }
            if unpack(conf).0 != prev_rnd {
                return; // block already recycled by a concurrent advance
            }
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        if block
            .confirmed
            .compare_exchange(
                pack(prev_rnd, cap),
                pack(next as u32, 0),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_err()
        {
            return; // lost the race; the winner resets and publishes
        }
        // Reset Allocated (absorbing straggler inflation), then publish.
        let mut cur = block.allocated.load(Ordering::Acquire);
        loop {
            match block.allocated.compare_exchange_weak(
                cur,
                pack(next as u32, 0),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        let _ = inner.head.compare_exchange(seq, next, Ordering::AcqRel, Ordering::Acquire);
    }
}

/// A reserved range in the global queue.
#[derive(Debug)]
pub struct BbqGrant {
    queue: Bbq,
    idx: usize,
    offset: u32,
    len: u32,
    payload_len: u32,
    core: u16,
    committed: bool,
}

impl SinkGrant for BbqGrant {
    fn commit(mut self, stamp: u64, tid: u32, payload: &[u8]) {
        debug_assert_eq!(payload.len(), self.payload_len as usize);
        let block = &self.queue.inner.blocks[self.idx];
        let (at, len, core) = (self.offset as usize, self.len as usize, self.core.into());
        block.buf.write_data(at, len, core, tid, stamp, payload);
        block.confirmed.fetch_add(self.len as u64, Ordering::AcqRel);
        self.committed = true;
    }
}

impl Drop for BbqGrant {
    fn drop(&mut self) {
        if !self.committed {
            self.queue.fill_dummy(self.idx, self.offset, self.len);
            self.queue.inner.blocks[self.idx]
                .confirmed
                .fetch_add(self.len as u64, Ordering::AcqRel);
        }
    }
}

impl TraceSink for Bbq {
    type Grant = BbqGrant;

    fn name(&self) -> &'static str {
        "BBQ"
    }

    fn try_begin(&self, core: usize, _tid: u32, payload_len: usize) -> Begin<BbqGrant> {
        let need = encoded_len(payload_len) as u32;
        if need > self.inner.block_bytes {
            return Begin::Dropped;
        }
        let (_seq, idx, offset) = self.allocate(need);
        Begin::Granted(BbqGrant {
            queue: self.clone(),
            idx,
            offset,
            len: need,
            payload_len: payload_len as u32,
            core: core as u16,
            committed: false,
        })
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
        if need > self.inner.block_bytes {
            return RecordOutcome::Dropped;
        }
        let (_seq, idx, offset) = self.allocate(need);
        let block = &self.inner.blocks[idx];
        block.buf.write_data(offset as usize, need as usize, core, tid, stamp, payload);
        block.confirmed.fetch_add(need as u64, Ordering::AcqRel);
        RecordOutcome::Recorded
    }

    fn preemptible_writes(&self) -> bool {
        // BBQ's availability story is *blocking*: wrapping onto a block with
        // unconfirmed writes spins until the straggler finishes. A
        // cooperatively scheduled replayer cannot be preempted inside that
        // spin, so the model keeps each write atomic with respect to
        // simulated preemption; the cross-core contention and blocking that
        // dominate BBQ's latency remain fully exercised.
        false
    }

    fn visit(&self, f: &mut dyn FnMut(EventView<'_>)) {
        self.drain_confirmed().iter().for_each(|e| f(e.view()));
    }

    fn capacity_bytes(&self) -> usize {
        self.inner.total_bytes
    }
}

impl std::fmt::Debug for Bbq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bbq")
            .field("blocks", &self.inner.blocks.len())
            .field("block_bytes", &self.inner.block_bytes)
            .field("head", &self.inner.head.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrace_core::sink::RecordOutcome;

    #[test]
    fn records_from_all_cores_share_one_buffer() {
        let q = Bbq::new(4096, 256);
        for core in 0..8 {
            assert_eq!(
                q.record(core, core as u32, core as u64, b"shared"),
                RecordOutcome::Recorded
            );
        }
        let out = q.drain();
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn overwrite_keeps_newest() {
        let q = Bbq::new(1024, 256); // 4 blocks
        for i in 0..500u64 {
            q.record(0, 0, i, b"0123456789");
        }
        let out = q.drain();
        assert_eq!(out.last().unwrap().stamp, 499);
        // Contiguous suffix — the global buffer never leaves interior gaps.
        for w in out.windows(2) {
            assert_eq!(w[1].stamp, w[0].stamp + 1);
        }
        // Near-full utilization: at least N-1 blocks' worth of entries.
        let bytes: u32 = out.iter().map(|e| e.stored_bytes).sum();
        assert!(bytes >= 3 * 200, "got {bytes}");
    }

    #[test]
    fn concurrent_producers_converge() {
        let q = Bbq::new(64 * 1024, 1024);
        let handles: Vec<_> = (0..4)
            .map(|c| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        q.record(c, c as u32, c as u64 * 10_000 + i, b"contended-entry");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let out = q.drain();
        assert!(!out.is_empty());
        for e in &out {
            assert!(e.stamp % 10_000 < 1000);
        }
    }

    #[test]
    fn dropped_grant_becomes_dummy() {
        let q = Bbq::new(1024, 256);
        match q.try_begin(0, 0, 16) {
            Begin::Granted(g) => drop(g),
            Begin::Dropped => panic!("BBQ never drops"),
        }
        q.record(0, 0, 7, b"after");
        let out = q.drain();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].stamp, 7);
    }

    #[test]
    fn oversized_entry_dropped() {
        let q = Bbq::new(1024, 256);
        assert_eq!(q.record(0, 0, 0, &[0u8; 512]), RecordOutcome::Dropped);
    }
}
