//! The speculative consumer (paper §4.3).
//!
//! Reading never blocks producers: the consumer snapshots a block's bytes,
//! *then* re-validates that the block still belongs to the global sequence
//! number it expected (via the block header that every round writes first).
//! A block that was overwritten, skipped, or is mid-write simply fails
//! validation and is discarded — exactly the paper's "speculatively read,
//! re-check, abandon" loop.

use crate::buffer::Shared;
use crate::event::{EntryHeader, EntryKind, EntryView, Event, HEADER_BYTES};
use crate::sync::{Arc, Ordering};
use std::convert::Infallible;

/// Why a block contributed no events to a readout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct BlockCounts {
    /// Blocks whose events were returned.
    pub readable: usize,
    /// Blocks currently owned by a producer with unconfirmed writes.
    pub in_flight: usize,
    /// Sequence numbers that never materialized (skipped candidates) or
    /// whose data was already overwritten by a newer round.
    pub recycled: usize,
    /// Blocks that failed speculative validation (torn by a concurrent
    /// writer between snapshot and re-check).
    pub torn: usize,
}

/// The result of [`Consumer::collect`].
#[derive(Debug, Default)]
#[non_exhaustive]
pub struct Readout {
    /// Events in buffer order (ascending block sequence, then offset).
    pub events: Vec<Event>,
    /// Per-block accounting of the scan.
    pub blocks: BlockCounts,
}

impl Readout {
    /// Sum of on-buffer bytes of all returned events.
    pub fn stored_bytes(&self) -> usize {
        self.events.iter().map(Event::stored_bytes).sum()
    }
}

/// The validated blocks of one [`Consumer::snapshot`], copied back to back
/// into one byte buffer that is reused across snapshots.
///
/// Where [`Consumer::collect`] copies every event out into its own
/// [`Event`], a snapshot keeps the block bytes as read and visits its
/// events in place ([`RingSnapshot::try_for_each`]), so a reader that only
/// encodes them — the symptom dump — allocates nothing per event.
#[derive(Default)]
pub struct RingSnapshot {
    /// Validated block snapshots, back to back, each starting with its
    /// block header.
    bytes: Vec<u8>,
    /// End offset in `bytes` of each block snapshot, oldest block first.
    ends: Vec<usize>,
    blocks: BlockCounts,
    events: usize,
}

impl RingSnapshot {
    /// An empty snapshot, ready for [`Consumer::snapshot`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-block accounting of the scan that filled this snapshot.
    pub fn blocks(&self) -> BlockCounts {
        self.blocks
    }

    /// Number of events [`RingSnapshot::try_for_each`] visits. Counted by
    /// a header-only pass over each block as the snapshot takes it.
    pub fn count(&self) -> usize {
        self.events
    }

    /// Visits every event in buffer order (ascending block sequence, then
    /// offset), borrowing payloads from the snapshot, and stops at the
    /// first error `f` returns.
    ///
    /// # Errors
    ///
    /// The first error `f` returns.
    pub fn try_for_each<E>(
        &self,
        mut f: impl FnMut(EntryView<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut start = 0;
        for &end in &self.ends {
            try_for_each_entry(&self.bytes[start..end], HEADER_BYTES, &mut f)?;
            start = end;
        }
        Ok(())
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
        self.blocks = BlockCounts::default();
        self.events = 0;
    }
}

/// A reading handle. Create one per consumer thread via
/// [`BTrace::consumer`](crate::BTrace::consumer).
///
/// Each collect pins the tracer's reclamation domain, so a concurrent
/// shrink waits for the read to finish before decommitting memory (§4.4).
pub struct Consumer {
    shared: Arc<Shared>,
    participant: btrace_smr::Participant,
    scratch: Vec<u8>,
}

impl Consumer {
    pub(crate) fn new(shared: Arc<Shared>) -> Self {
        let participant = shared.domain.register();
        Self { shared, participant, scratch: Vec::new() }
    }

    /// Collects every currently readable event, oldest block first.
    ///
    /// Non-destructive: producers keep writing concurrently, and blocks
    /// overwritten mid-read are discarded, never returned torn.
    pub fn collect(&mut self) -> Readout {
        let mut readout = Readout::default();
        let Self { shared, participant, scratch } = self;
        scan(shared, participant, |shared, gpos| {
            scratch.clear();
            if read_block(shared, scratch, gpos, &mut readout.blocks) {
                push_events(scratch, HEADER_BYTES, gpos, &mut readout.events);
            }
        });
        readout
    }

    /// Snapshots every currently readable block into `out`, replacing its
    /// contents and reusing its buffer: the same scan and validation as
    /// [`Consumer::collect`], with the same [`BlockCounts`], but the block
    /// bytes stay as read instead of being copied out event by event.
    pub fn snapshot(&mut self, out: &mut RingSnapshot) {
        out.clear();
        scan(&self.shared, &self.participant, |shared, gpos| {
            let start = out.bytes.len();
            if read_block(shared, &mut out.bytes, gpos, &mut out.blocks) {
                out.events += for_each_entry(&out.bytes[start..], HEADER_BYTES, |_| {}).1;
                out.ends.push(out.bytes.len());
            }
        });
    }

    /// Collects like [`Consumer::collect`], then **closes** every core's
    /// current block — the paper's destructive read (§4.3: "After reading,
    /// the consumer closes the block by filling the remaining space with
    /// dummy data and proceeds").
    ///
    /// Closing forces each core onto a fresh block on its next record, so
    /// events recorded after this call land strictly after everything the
    /// readout returned — the semantics a dump-and-truncate collector wants.
    /// Producers are never blocked; one that races the close simply advances
    /// as if its block had filled naturally.
    pub fn collect_and_close(&mut self) -> Readout {
        let readout = self.collect();
        close_current_blocks(&self.shared);
        readout
    }

    /// Explicitly pins this consumer in the tracer's reclamation domain for
    /// the lifetime of the returned guard.
    ///
    /// [`Consumer::collect`] pins per call; this is for long-running readers
    /// (e.g. a query walking a large readout) that need the buffer to stay
    /// mapped across many operations. A shrink racing the pin defers physical
    /// reclaim after a *bounded* grace period (see
    /// [`BTrace::smr_stats`](crate::BTrace::smr_stats)) rather than waiting
    /// for the guard — so holding one indefinitely degrades reclamation, it
    /// never wedges the resize path.
    pub fn pin(&self) -> ReaderPin<'_> {
        ReaderPin { _guard: self.participant.pin() }
    }
}

/// RAII epoch pin returned by [`Consumer::pin`].
#[must_use = "dropping the pin immediately releases the epoch"]
#[derive(Debug)]
pub struct ReaderPin<'a> {
    _guard: btrace_smr::Guard<'a>,
}

/// Closes every core's current block by dummy-filling its remaining space
/// (§4.3's destructive cut), shared by [`Consumer::collect_and_close`] and
/// [`StreamConsumer::flush_close`](crate::stream::StreamConsumer::flush_close).
pub(crate) fn close_current_blocks(shared: &Shared) {
    let cap = shared.cap();
    for core in 0..shared.cfg.cores {
        let local = shared.core_local(core);
        // The dummy fill below writes through history mappings; a mapping
        // read between a resize's global CAS and its history push would
        // misdirect the fill into another live block (see
        // `Shared::history_published`).
        shared.wait_history_published();
        let map = shared.history.map(local.pos);
        if let crate::meta::Close::Fill { rnd, pos } =
            shared.metas[map.meta_idx].close(map.rnd, cap)
        {
            let gpos = rnd as u64 * shared.active() as u64 + map.meta_idx as u64;
            let lag = shared.history.map(gpos);
            shared.write_dummy_run(lag.data_idx, pos, cap - pos);
            shared.metas[map.meta_idx].confirm(cap - pos);
        }
    }
}

/// Pins the reclamation domain and calls `visit` for every global block
/// sequence in the readable window, oldest first — the scan behind both
/// [`Consumer::collect`] and [`Consumer::snapshot`], timed into the drain
/// latency histogram.
fn scan(
    shared: &Shared,
    participant: &btrace_smr::Participant,
    mut visit: impl FnMut(&Shared, u64),
) {
    #[cfg(feature = "telemetry")]
    let t0 = std::time::Instant::now();
    let _pin = participant.pin();
    let head = shared.global_pos().pos;
    let span = shared.data.region().len() / shared.cfg.block_bytes;
    for gpos in head.saturating_sub(span as u64)..head {
        visit(shared, gpos);
    }
    #[cfg(feature = "telemetry")]
    shared.telem.drain_hist.record(t0.elapsed().as_nanos() as u64);
}

/// Appends a validated snapshot of block `gpos` to `buf` and returns
/// `true`, or leaves `buf` as it was and returns `false`; either way the
/// outcome is counted into `counts`. The snapshot is `buf[len_before..]`
/// and starts with the block header.
fn read_block(shared: &Shared, buf: &mut Vec<u8>, gpos: u64, counts: &mut BlockCounts) -> bool {
    let cap = shared.cap() as usize;
    let map = shared.history.map(gpos);
    // Respect the live capacity bound: blocks beyond it may be
    // decommitted by a shrink that published the bound before our pin.
    // Acquire pairs with the shrinker's release store, which happens
    // before the EBR grace period our pin participates in — SeqCst added
    // nothing on top of that edge.
    if map.data_idx >= shared.capacity_blocks.load(Ordering::Acquire) {
        counts.recycled += 1;
        return false;
    }
    let meta = &shared.metas[map.meta_idx];
    let conf = meta.confirmed();
    let watermark = if conf.rnd < map.rnd {
        // This sequence number was skipped, or its round never started.
        counts.recycled += 1;
        return false;
    } else if conf.rnd == map.rnd {
        // Current round: readable only when fully confirmed (§4.3).
        let alloc = meta.allocated();
        let visible = alloc.pos.min(shared.cap());
        if alloc.rnd != map.rnd || conf.pos != visible {
            counts.in_flight += 1;
            return false;
        }
        visible as usize
    } else {
        // Past round: it was completely filled when it ended.
        cap
    };
    if watermark < HEADER_BYTES {
        counts.recycled += 1;
        return false;
    }

    // Speculative read: snapshot, then re-validate.
    let start = buf.len();
    let base = shared.data.block_offset(map.data_idx);
    shared.data.append_bytes(base, buf, watermark);

    if !snapshot_is_for(&buf[start..], gpos) {
        buf.truncate(start);
        counts.recycled += 1;
        return false;
    }
    // Re-read the live header: a wrap-around producer re-initializing
    // the block between our snapshot and now would have rewritten it.
    let mut live = [0u64; 2];
    shared.data.load_words(base, &mut live);
    let still_ours = EntryHeader::decode(live)
        .is_some_and(|h| h.kind == EntryKind::BlockHeader && h.stamp == gpos);
    if !still_ours {
        buf.truncate(start);
        counts.torn += 1;
        return false;
    }
    // No further checks are needed: entries are append-only within a
    // round, so `[0, watermark)` is stable unless the round changed —
    // and a round change rewrites the header, which we just re-read.
    counts.readable += 1;
    true
}

fn snapshot_is_for(scratch: &[u8], gpos: u64) -> bool {
    if scratch.len() < HEADER_BYTES {
        return false;
    }
    let words = [
        u64::from_le_bytes(scratch[0..8].try_into().expect("slice of 8")),
        u64::from_le_bytes(scratch[8..16].try_into().expect("slice of 8")),
    ];
    EntryHeader::decode(words).is_some_and(|h| h.kind == EntryKind::BlockHeader && h.stamp == gpos)
}

impl std::fmt::Debug for RingSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingSnapshot")
            .field("bytes", &self.bytes.len())
            .field("blocks", &self.blocks)
            .field("events", &self.events)
            .finish()
    }
}

impl std::fmt::Debug for Consumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer").field("participant", &self.participant).finish()
    }
}

/// The one entry walker: visits the `Data` entries of a validated block
/// snapshot in place, starting at the entry-aligned offset `from`
/// (`HEADER_BYTES` skips the block header), and stops at the first error
/// `f` returns.
///
/// On success returns the offset the walk stopped at — the snapshot's end,
/// or the first entry it could not read — for a reader that resumes a
/// growing block there. Torn or garbage bytes stop the walk instead of
/// panicking: an undecodable header, a length that is zero or runs past
/// the snapshot, or a `Data` entry whose padding exceeds its length. The
/// entries behind such an entry are not visited, because its length can
/// no longer be trusted to find them.
#[inline]
pub(crate) fn try_for_each_entry<E>(
    snapshot: &[u8],
    from: usize,
    mut f: impl FnMut(EntryView<'_>) -> Result<(), E>,
) -> Result<usize, E> {
    let mut off = from;
    while off + 8 <= snapshot.len() {
        let word0 = u64::from_le_bytes(snapshot[off..off + 8].try_into().expect("8 bytes"));
        let word1 = if off + 16 <= snapshot.len() {
            u64::from_le_bytes(snapshot[off + 8..off + 16].try_into().expect("8 bytes"))
        } else {
            0
        };
        let Some(header) = EntryHeader::decode([word0, word1]) else { break };
        let len = header.len as usize;
        if len == 0 || off + len > snapshot.len() {
            break;
        }
        if header.kind == EntryKind::Data {
            // `payload_len <= len - HEADER_BYTES`, so the payload lies
            // inside the `off + len` bytes checked above.
            let Some(payload_len) = header.payload_len() else { break };
            f(EntryView {
                stamp: header.stamp,
                core: header.core,
                tid: header.tid,
                payload: &snapshot[off + HEADER_BYTES..off + HEADER_BYTES + payload_len],
            })?;
        }
        off += len;
    }
    Ok(off)
}

/// [`try_for_each_entry`] with an infallible visitor. Returns the offset
/// the walk stopped at and the number of entries visited.
#[inline]
pub(crate) fn for_each_entry(
    snapshot: &[u8],
    from: usize,
    mut f: impl FnMut(EntryView<'_>),
) -> (usize, usize) {
    let mut visited = 0;
    let walked = try_for_each_entry(snapshot, from, |e| {
        visited += 1;
        f(e);
        Ok::<(), Infallible>(())
    });
    match walked {
        Ok(off) => (off, visited),
        Err(never) => match never {},
    }
}

/// Appends the `Data` entries of a validated snapshot of block `gpos` to
/// `out` as owned [`Event`]s — the output of the owned readers
/// ([`Consumer::collect`], the streaming shards, the tail reader). Returns
/// the offset the walk stopped at.
pub(crate) fn push_events(snapshot: &[u8], from: usize, gpos: u64, out: &mut Vec<Event>) -> usize {
    for_each_entry(snapshot, from, |e| {
        out.push(Event::new(e.stamp, e.core, e.tid, gpos, e.payload.to_vec()));
    })
    .0
}

#[cfg(test)]
mod tests {
    use super::{push_events, RingSnapshot};
    use crate::event::{EntryHeader, EntryKind, Event, HEADER_BYTES};
    use crate::{BTrace, Config};
    use btrace_vmem::Backing;
    use proptest::prelude::*;

    /// The entry walk `Consumer::collect` used before the shared walker,
    /// kept verbatim as the oracle the walker must match.
    fn parse_entries(snapshot: &[u8], gpos: u64, out: &mut Vec<Event>) {
        let mut off = HEADER_BYTES; // skip the block header
        while off + 8 <= snapshot.len() {
            let word0 = u64::from_le_bytes(snapshot[off..off + 8].try_into().expect("slice of 8"));
            let word1 = if off + 16 <= snapshot.len() {
                u64::from_le_bytes(snapshot[off + 8..off + 16].try_into().expect("slice of 8"))
            } else {
                0
            };
            let Some(header) = EntryHeader::decode([word0, word1]) else { return };
            let len = header.len as usize;
            if len == 0 || off + len > snapshot.len() {
                return;
            }
            if header.kind == EntryKind::Data {
                let Some(payload_len) = header.payload_len() else { return };
                if off + HEADER_BYTES + payload_len > snapshot.len() {
                    return;
                }
                let payload =
                    snapshot[off + HEADER_BYTES..off + HEADER_BYTES + payload_len].to_vec();
                out.push(Event::new(header.stamp, header.core, header.tid, gpos, payload));
            }
            off += len;
        }
    }

    /// A three-core ring that wrapped, with payloads of 0 to 40 bytes and
    /// dummy entries from dropped grants.
    fn busy_ring() -> BTrace {
        let t = BTrace::new(
            Config::new(3)
                .active_blocks(6)
                .block_bytes(256)
                .buffer_bytes(256 * 12)
                .backing(Backing::Heap),
        )
        .unwrap();
        for i in 0..600u64 {
            let p = t.producer((i % 3) as usize).unwrap();
            if i % 17 == 0 {
                drop(p.begin((i % 9) as usize).unwrap()); // becomes a dummy
            }
            let payload: Vec<u8> = (0..(i * 5 % 41) as u8).collect();
            p.record_with(i, i as u32 % 4, &payload).unwrap();
        }
        t
    }

    /// The block snapshots of `snap` with the gpos each header names.
    fn blocks(snap: &RingSnapshot) -> Vec<(u64, &[u8])> {
        let mut start = 0;
        snap.ends
            .iter()
            .map(|&end| {
                let block = &snap.bytes[start..end];
                start = end;
                (u64::from_le_bytes(block[8..16].try_into().unwrap()), block)
            })
            .collect()
    }

    /// A valid block header for `gpos` followed by `tail`.
    fn block_with_tail(gpos: u64, tail: &[u8]) -> Vec<u8> {
        let header = EntryHeader {
            len: HEADER_BYTES as u16,
            kind: EntryKind::BlockHeader,
            pad: 0,
            core: 0,
            tid: 0,
            stamp: gpos,
        };
        let mut block: Vec<u8> = header.encode().iter().flat_map(|w| w.to_le_bytes()).collect();
        block.extend_from_slice(tail);
        block
    }

    #[test]
    fn walker_matches_the_old_parse_on_valid_blocks() {
        let t = busy_ring();
        let mut snap = RingSnapshot::new();
        t.consumer().snapshot(&mut snap);
        let blocks = blocks(&snap);
        assert!(blocks.len() > 4, "the ring holds several readable blocks");
        for (gpos, block) in blocks {
            let (mut walked, mut oracle) = (Vec::new(), Vec::new());
            let stop = push_events(block, HEADER_BYTES, gpos, &mut walked);
            parse_entries(block, gpos, &mut oracle);
            assert_eq!(walked, oracle, "block {gpos}");
            assert_eq!(stop, block.len(), "a valid block is walked to its end");
        }
    }

    fn entry(len: u16, pad: u8, stamp: u64, payload: &[u8]) -> Vec<u8> {
        let header = EntryHeader { len, kind: EntryKind::Data, pad, core: 1, tid: 2, stamp };
        let mut bytes: Vec<u8> = header.encode().iter().flat_map(|w| w.to_le_bytes()).collect();
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn bad_payload_length_stops_the_walk() {
        let good = entry(24, 0, 1, b"8 bytes!");
        // Padding larger than the entry leaves no payload length.
        let bad = entry(16, 3, 2, b"");
        let tail = [good.clone(), bad, good].concat();
        let block = block_with_tail(7, &tail);
        let mut walked = Vec::new();
        let stop = push_events(&block, HEADER_BYTES, 7, &mut walked);
        let stamps: Vec<u64> = walked.iter().map(Event::stamp).collect();
        assert_eq!(stamps, [1], "the walk ends at the bad entry, not past it");
        assert_eq!(stop, HEADER_BYTES + 24, "and reports where it stopped");
    }

    #[test]
    fn snapshot_matches_collect() {
        let t = busy_ring();
        let collected = t.consumer().collect();
        let mut snap = RingSnapshot::new();
        // Reuse: a second snapshot replaces the first instead of appending.
        t.consumer().snapshot(&mut snap);
        t.consumer().snapshot(&mut snap);
        assert_eq!(snap.blocks(), collected.blocks);
        assert_eq!(snap.count(), collected.events.len());
        let mut visited = Vec::new();
        snap.try_for_each(|e| {
            visited.push((e.stamp, e.core as usize, e.tid, e.payload.to_vec()));
            Ok::<(), ()>(())
        })
        .unwrap();
        let expected: Vec<_> = collected
            .events
            .iter()
            .map(|e| (e.stamp(), e.core(), e.tid(), e.payload().to_vec()))
            .collect();
        assert_eq!(visited, expected);
        assert!(visited.iter().any(|e| e.3.is_empty()), "empty payloads are events too");
    }

    #[test]
    fn snapshot_visit_stops_at_the_first_error() {
        let t = busy_ring();
        let mut snap = RingSnapshot::new();
        t.consumer().snapshot(&mut snap);
        let mut seen = 0;
        let stopped = snap.try_for_each(|_| {
            seen += 1;
            if seen == 5 {
                Err("stop")
            } else {
                Ok(())
            }
        });
        assert_eq!((stopped, seen), (Err("stop"), 5));
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn snapshot_is_timed_as_a_drain() {
        let t = busy_ring();
        let before = t.health_snapshot().drain_latency.count;
        t.consumer().snapshot(&mut RingSnapshot::new());
        assert_eq!(t.health_snapshot().drain_latency.count, before + 1);
        t.consumer().collect();
        assert_eq!(t.health_snapshot().drain_latency.count, before + 2);
    }

    proptest! {
        /// Garbage after a valid block header never panics the walker, and
        /// it stops exactly where the old parse stopped, with the same
        /// events.
        #[test]
        fn walker_survives_garbage(tail in proptest::collection::vec(any::<u8>(), 0..512)) {
            let block = block_with_tail(7, &tail);
            let (mut walked, mut oracle) = (Vec::new(), Vec::new());
            push_events(&block, HEADER_BYTES, 7, &mut walked);
            parse_entries(&block, 7, &mut oracle);
            prop_assert_eq!(walked, oracle);
        }

        /// Every cut of a valid block — a torn snapshot — walks without a
        /// panic to the same events as the old parse, and never past the
        /// cut.
        #[test]
        fn walker_survives_truncation(cut in 0usize..256) {
            let t = busy_ring();
            let mut snap = RingSnapshot::new();
            t.consumer().snapshot(&mut snap);
            for (gpos, block) in blocks(&snap) {
                let torn = &block[..cut.min(block.len())];
                let (mut walked, mut oracle) = (Vec::new(), Vec::new());
                let stop = push_events(torn, HEADER_BYTES, gpos, &mut walked);
                parse_entries(torn, gpos, &mut oracle);
                prop_assert!(stop <= torn.len().max(HEADER_BYTES));
                prop_assert_eq!(walked, oracle);
            }
        }
    }

    fn tracer() -> BTrace {
        BTrace::new(
            Config::new(2)
                .active_blocks(4)
                .block_bytes(256)
                .buffer_bytes(256 * 4 * 2)
                .backing(Backing::Heap),
        )
        .unwrap()
    }

    #[test]
    fn empty_tracer_yields_nothing() {
        let t = tracer();
        let out = t.consumer().collect();
        assert!(out.events.is_empty());
        assert_eq!(out.blocks.readable, 2, "the two pre-assigned blocks are readable (and empty)");
    }

    #[test]
    fn events_come_back_in_buffer_order() {
        let t = tracer();
        let p = t.producer(0).unwrap();
        for i in 0..50u64 {
            p.record_with(i, 0, &i.to_le_bytes()).unwrap();
        }
        let out = t.consumer().collect();
        let stamps: Vec<_> = out.events.iter().map(|e| e.stamp()).collect();
        let mut sorted = stamps.clone();
        sorted.sort_unstable();
        assert_eq!(stamps, sorted, "single-producer events must be ordered");
        // The newest events always survive; the oldest may be overwritten.
        assert_eq!(*stamps.last().unwrap(), 49);
    }

    #[test]
    fn overwritten_blocks_drop_oldest_first() {
        let t = tracer(); // 8 blocks * 256B = 2 KiB
        let p = t.producer(0).unwrap();
        for i in 0..500u64 {
            p.record_with(i, 0, b"sixteen-byte-pay").unwrap();
        }
        let out = t.consumer().collect();
        let stamps: Vec<_> = out.events.iter().map(|e| e.stamp()).collect();
        assert!(!stamps.is_empty());
        assert_eq!(*stamps.last().unwrap(), 499, "newest event must be retained");
        // All retained events are a suffix (continuous trace, no interior gaps).
        for w in stamps.windows(2) {
            assert_eq!(w[1], w[0] + 1, "gap inside retained trace: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn open_grant_hides_only_its_block() {
        let t = tracer();
        let p0 = t.producer(0).unwrap();
        let p1 = t.producer(1).unwrap();
        let g = p0.begin(4).unwrap();
        p1.record_with(1, 0, b"other core").unwrap();
        let out = t.consumer().collect();
        assert_eq!(out.events.len(), 1, "core 1's block must be readable");
        assert_eq!(out.blocks.in_flight, 1, "core 0's block is in flight");
        g.commit(2, 0, b"done").unwrap();
        let out = t.consumer().collect();
        assert_eq!(out.events.len(), 2);
    }

    #[test]
    fn collect_and_close_separates_epochs() {
        let t = tracer();
        let p = t.producer(0).unwrap();
        for i in 0..5u64 {
            p.record_with(i, 0, b"epoch-one").unwrap();
        }
        let mut consumer = t.consumer();
        let first = consumer.collect_and_close();
        assert_eq!(first.events.len(), 5);
        for i in 5..10u64 {
            p.record_with(i, 0, b"epoch-two").unwrap();
        }
        let second = consumer.collect();
        // The second readout still sees old blocks (non-destructive read of
        // retained data), but the new events live in strictly newer blocks.
        let first_max_gpos = first.events.iter().map(|e| e.gpos()).max().unwrap();
        let new_min_gpos =
            second.events.iter().filter(|e| e.stamp() >= 5).map(|e| e.gpos()).min().unwrap();
        assert!(new_min_gpos > first_max_gpos, "closed blocks must not receive new events");
    }

    #[test]
    fn collect_and_close_with_concurrent_producers() {
        let t = tracer();
        let writers: Vec<_> = (0..2)
            .map(|c| {
                let p = t.producer(c).unwrap();
                std::thread::spawn(move || {
                    for i in 0..2000u64 {
                        p.record_with(c as u64 * 10_000 + i, 0, b"concurrent write").unwrap();
                    }
                })
            })
            .collect();
        let mut consumer = t.consumer();
        for _ in 0..20 {
            let _ = consumer.collect_and_close();
        }
        for w in writers {
            w.join().unwrap();
        }
        // Everything still works and the newest events are present.
        let out = t.consumer().collect();
        assert!(out.events.iter().any(|e| e.stamp() % 10_000 == 1999));
    }

    #[test]
    fn concurrent_reads_and_writes_never_tear_events() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let t = tracer();
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|c| {
                let p = t.producer(c).unwrap();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // Payload derived from the stamp so tearing is detectable.
                        let mut payload = [0u8; 24];
                        payload[..8].copy_from_slice(&i.to_le_bytes());
                        payload[8..16].copy_from_slice(&i.to_le_bytes());
                        payload[16..24].copy_from_slice(&i.to_le_bytes());
                        p.record_with(i, c as u32, &payload).unwrap();
                        i += 1;
                    }
                })
            })
            .collect();
        let mut consumer = t.consumer();
        for _ in 0..200 {
            let out = consumer.collect();
            for e in &out.events {
                let s = e.stamp().to_le_bytes();
                assert_eq!(&e.payload()[..8], s);
                assert_eq!(&e.payload()[8..16], s);
                assert_eq!(&e.payload()[16..24], s);
            }
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }
}
