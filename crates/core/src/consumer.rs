//! The speculative consumer (paper §4.3).
//!
//! Reading never blocks producers: the consumer snapshots a block's bytes,
//! *then* re-validates that the block still belongs to the global sequence
//! number it expected (via the block header that every round writes first).
//! A block that was overwritten, skipped, or is mid-write simply fails
//! validation and is discarded — exactly the paper's "speculatively read,
//! re-check, abandon" loop. [`read_block`] is that loop for every reader
//! of the live ring: [`Consumer`] here and the stream's
//! [`StreamShard`](crate::StreamShard).

use crate::buffer::Shared;
use crate::event::{encoded_len, EntryHeader, EntryKind, EventView, FullEvent, HEADER_BYTES};
use crate::sync::{Arc, Ordering};
use std::convert::Infallible;

/// Why a block contributed no events to a read.
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

/// The one product of every reader of the live ring: the validated blocks
/// of one [`Consumer::snapshot`], [`Consumer::snapshot_and_close`],
/// [`StreamShard::poll`](crate::StreamShard::poll) or
/// [`StreamShard::flush_close`](crate::StreamShard::flush_close), copied
/// back to back into one byte buffer that the caller owns and reuses.
///
/// A snapshot keeps the block bytes as read and visits its events in place
/// ([`RingSnapshot::try_for_each`], [`RingSnapshot::for_each_entry`]), so a
/// reader that only encodes them — the symptom dump, the streaming
/// pipeline — allocates nothing per event; [`RingSnapshot::to_events`]
/// copies them out for a reader that wants owned events.
#[derive(Default)]
pub struct RingSnapshot {
    /// Validated block snapshots, back to back, each starting with its
    /// block header.
    bytes: Vec<u8>,
    /// End offset in `bytes` of each block snapshot, oldest block first.
    ends: Vec<usize>,
    pub(crate) blocks: BlockCounts,
    pub(crate) missed_blocks: usize,
    events: usize,
    stored_bytes: usize,
}

impl RingSnapshot {
    /// An empty snapshot, ready for any reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-block accounting of the scan that filled this snapshot.
    pub fn blocks(&self) -> BlockCounts {
        self.blocks
    }

    /// Blocks a stream poll found overwritten before it reached them. A
    /// streaming daemon that cannot keep up loses oldest-first, exactly like
    /// the underlying buffer. A sequence number whose round never started
    /// and that the cursor laps before its metadata block moved on is
    /// counted here too: the stream cannot tell it from a lost block.
    /// Always 0 after a [`Consumer`] read.
    pub fn missed_blocks(&self) -> usize {
        self.missed_blocks
    }

    /// Number of events [`RingSnapshot::try_for_each`] visits. Counted by
    /// a header-only pass over each block as the snapshot takes it.
    pub fn count(&self) -> usize {
        self.events
    }

    /// Sum of the on-buffer bytes of those events, counted by the same pass.
    pub fn stored_bytes(&self) -> usize {
        self.stored_bytes
    }

    /// Visits every event in buffer order (ascending block sequence, then
    /// offset), borrowing payloads from the snapshot, and stops at the
    /// first error `f` returns.
    ///
    /// # Errors
    ///
    /// The first error `f` returns.
    pub fn try_for_each<'a, E>(
        &'a self,
        mut f: impl FnMut(EventView<'a>) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut start = 0;
        for &end in &self.ends {
            try_for_each_entry(&self.bytes[start..end], HEADER_BYTES, |e| f(e.event))?;
            start = end;
        }
        Ok(())
    }

    /// Visits every event with its ring entry, in the order of
    /// [`RingSnapshot::try_for_each`]: the walk an [`EntryBatch`] is
    /// filled from.
    pub fn for_each_entry<'a>(&'a self, mut f: impl FnMut(RingEntry<'a>)) {
        let mut start = 0;
        for &end in &self.ends {
            for_each_entry(&self.bytes[start..end], HEADER_BYTES, &mut f);
            start = end;
        }
    }

    /// The events copied out, payloads included, in the order of
    /// [`RingSnapshot::try_for_each`].
    pub fn to_events(&self) -> Vec<FullEvent> {
        let mut events = Vec::with_capacity(self.events);
        self.for_each_entry(|e| events.push(e.event.to_owned()));
        events
    }

    pub(crate) fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
        self.blocks = BlockCounts::default();
        self.missed_blocks = 0;
        self.events = 0;
        self.stored_bytes = 0;
    }

    /// Reads block `gpos` up to `until` ([`read_block`]) and, when it is
    /// readable, appends it as the snapshot's newest block, counting its
    /// events and their bytes on the way. Returns the read's outcome for
    /// the caller to count.
    pub(crate) fn take_block(&mut self, shared: &Shared, gpos: u64, until: Until) -> BlockRead {
        let start = self.bytes.len();
        let read = read_block(shared, gpos, until, &mut self.bytes);
        if read == BlockRead::Readable {
            let stored = &mut self.stored_bytes;
            self.events += for_each_entry(&self.bytes[start..], HEADER_BYTES, |e| {
                *stored += encoded_len(e.event.payload.len());
            })
            .1;
            self.ends.push(self.bytes.len());
        }
        read
    }
}

/// One event as a [`RingSnapshot`] holds it: the decoded view plus the
/// bytes of its ring entry (header, payload and padding), which an
/// [`EntryBatch`] copies without decoding or re-encoding them. Only the
/// snapshot's walk makes one, so its bytes are always a whole `Data` entry.
#[derive(Debug, Clone, Copy)]
pub struct RingEntry<'a> {
    /// The event, borrowed from the snapshot.
    pub event: EventView<'a>,
    entry: &'a [u8],
}

/// Events copied out of [`RingSnapshot`]s as their ring entries, back to
/// back, exactly as the ring stored them: the unit the streaming
/// pipeline's batch stage cuts snapshots into and its encode stage turns
/// into one frame. Walked by the same entry walker as a snapshot, so no
/// event becomes an owned value between the ring and the frame. Reused
/// across batches: [`EntryBatch::clear`] keeps the buffer.
#[derive(Default)]
pub struct EntryBatch {
    bytes: Vec<u8>,
    events: usize,
    payload_bytes: usize,
}

impl EntryBatch {
    /// Appends `entry`'s bytes.
    #[inline]
    pub fn push(&mut self, entry: RingEntry<'_>) {
        self.bytes.extend_from_slice(entry.entry);
        self.events += 1;
        self.payload_bytes += entry.event.payload.len();
    }

    /// Events pushed since the last [`EntryBatch::clear`].
    pub fn len(&self) -> usize {
        self.events
    }

    /// Whether no event was pushed since the last [`EntryBatch::clear`].
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Sum of the pushed events' payload lengths.
    pub fn payload_bytes(&self) -> usize {
        self.payload_bytes
    }

    /// Empties the batch, keeping its buffer.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.events = 0;
        self.payload_bytes = 0;
    }

    /// Visits every event in push order, borrowing payloads from the batch.
    pub fn for_each<'a>(&'a self, mut f: impl FnMut(EventView<'a>)) {
        for_each_entry(&self.bytes, 0, |e| f(e.event));
    }
}

/// A reading handle. Create one per consumer thread via
/// [`BTrace::consumer`](crate::BTrace::consumer).
///
/// A consumer registers nowhere and a shrink never waits for it: every
/// block it reads is validated after the copy (the §4.3 speculative read).
pub struct Consumer {
    shared: Arc<Shared>,
}

impl Consumer {
    pub(crate) fn new(shared: Arc<Shared>) -> Self {
        Self { shared }
    }

    /// Snapshots every currently readable block — the confirmed prefix of
    /// each block in the readable window, oldest block first — into `out`,
    /// replacing its contents and reusing its buffer.
    ///
    /// Non-destructive: producers keep writing concurrently, and blocks
    /// overwritten mid-read are discarded, never returned torn. Timed into
    /// the drain latency histogram.
    pub fn snapshot(&mut self, out: &mut RingSnapshot) {
        out.clear();
        #[cfg(feature = "telemetry")]
        let t0 = std::time::Instant::now();
        for gpos in self.shared.readable_window() {
            match out.take_block(&self.shared, gpos, Until::Confirmed) {
                BlockRead::Readable => out.blocks.readable += 1,
                BlockRead::InFlight => out.blocks.in_flight += 1,
                // A round that never started and a block beyond the
                // capacity bound hold nothing this read can return.
                BlockRead::NotStarted | BlockRead::Decommitted | BlockRead::Recycled => {
                    out.blocks.recycled += 1;
                }
                BlockRead::Torn => out.blocks.torn += 1,
            }
        }
        #[cfg(feature = "telemetry")]
        self.shared.telem.drain_hist.record(t0.elapsed().as_nanos() as u64);
    }

    /// Snapshots like [`Consumer::snapshot`], then **closes** every open
    /// block — the paper's destructive read (§4.3: "After reading, the
    /// consumer closes the block by filling the remaining space with dummy
    /// data and proceeds").
    ///
    /// Closing forces each core onto a fresh block on its next record, so
    /// events recorded after this call land strictly after everything the
    /// snapshot holds — the semantics a dump-and-truncate collector wants.
    /// Producers are never blocked; one that races the close simply advances
    /// as if its block had filled naturally.
    pub fn snapshot_and_close(&mut self, out: &mut RingSnapshot) {
        self.snapshot(out);
        close_open_window(&self.shared);
    }
}

/// Dummy-fills every still-open block in the readable window, exactly as a
/// §3.2 advancing producer would — the one close sweep behind
/// [`Consumer::snapshot_and_close`] and
/// [`StreamShard::flush_close`](crate::StreamShard::flush_close).
///
/// By the §3.2 closing horizon an open block is at most `A` positions
/// behind the head, so the window covers every core's current block as
/// well as any straggler a core has advanced away from. `Meta::close` is
/// round-checked, so a block whose metadata has already moved to a newer
/// round is left alone, and a straggler's unconfirmed entry below the
/// claimed fill range keeps the block incomplete until that writer
/// confirms.
///
/// The sweep's dummy writes never land in a slot a shrink decommits, with
/// no reader registration and no capacity check: the shrink's drain covers
/// them like any producer's grant. A shrink decommits only after its drain
/// has seen each metadata block on a post-boundary round or with its
/// pre-boundary round fully confirmed. A close that wins round `r` is the
/// `Allocated` CAS that takes `r` to capacity, so `r` reaches full
/// confirmation only with this sweep's `confirm`, which follows its dummy
/// write: the drain waits on it (the implicit reference count, §3.3). A
/// close that comes after the round filled or moved on finds it full or
/// gone and fills nothing. A post-boundary round maps through the new
/// ratio, inside the new bound.
pub(crate) fn close_open_window(shared: &Shared) {
    let cap = shared.cap();
    for gpos in shared.readable_window() {
        let map = shared.map(gpos);
        if let crate::meta::Close::Fill { pos, .. } = shared.metas[map.meta_idx].close(map.rnd, cap)
        {
            shared.write_dummy_run(map.data_idx, pos, cap - pos);
            shared.metas[map.meta_idx].confirm(cap - pos);
        }
    }
}

/// How far a block must have progressed for [`read_block`] to take it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Until {
    /// Its fully confirmed prefix: what [`Consumer::snapshot`] reads.
    Confirmed,
    /// Only a full, fully confirmed — closed — block: what the stream
    /// reads, so a delivered block is never amended by a later poll.
    Closed,
}

/// The raw outcome of one §4.3 read. Each reader turns it into its own
/// [`BlockCounts`] and, for the stream, into whether the block is resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockRead {
    /// A validated snapshot was appended to the buffer.
    Readable,
    /// The current round has unconfirmed writes, or, under
    /// [`Until::Closed`], is not yet full.
    InFlight,
    /// The round has not started on its metadata block. It still may: a
    /// producer claims a sequence number before it locks the block.
    NotStarted,
    /// The data block lies beyond the live capacity bound; a shrink may
    /// have decommitted it, and a later grow may bring it back intact.
    Decommitted,
    /// The block holds no data for this sequence number: a skipped
    /// candidate, or data already overwritten by a newer round.
    Recycled,
    /// A writer re-initialized the block between snapshot and re-check.
    Torn,
}

/// The one §4.3 speculative read: snapshots block `gpos` up to `until`,
/// then re-validates that it still belongs to `gpos`, and appends the
/// snapshot to `buf` only when it does ([`BlockRead::Readable`]; the
/// snapshot is `buf[len_before..]` and starts with the block header).
/// Every other outcome leaves `buf` as it was.
///
/// # A shrink may decommit the block mid-copy
///
/// No reader registers anywhere, so a shrink decommits the slots beyond
/// its bound as soon as its producers drain, even during this copy. The
/// post-copy checks suffice because decommit never unmaps: a decommitted
/// word reads as zero (mmap) or poison (heap) and stays unwritten until a
/// grow recommits it (`btrace_vmem::Region`). Neither value decodes as a
/// block header, so a copy of decommitted header words fails the snapshot
/// check. Say the copy kept `gpos`'s header but read a later decommitted
/// word `w`. An `Acquire` fence puts both post-copy checks behind every
/// load of the copy, and then:
///
/// 1. *The capacity re-check* sees the shrink's ratio, which excludes the
///    slot, or a later word: the shrink's CAS precedes its decommit. On the
///    heap every poison store is `Release`, so loading `w` and then the
///    fence orders the CAS before the re-load. On mmap the zero page
///    behind `w` was mapped by a fault that took the page-table lock after
///    `madvise` cleared the entry, which orders it the same way.
/// 2. *The live-header re-read* catches a later word that includes the
///    slot again. Only a grow publishes one, after the shrink's decommit
///    returned (`resize_lock`). The header words are the slot's lowest,
///    so they were decommitted before `w`: on the heap, poison goes down
///    in address order and the fence acquires the header's; on mmap,
///    `madvise` returned only after every CPU dropped its stale
///    translations, and the re-read follows the load of the grow's word.
///    It sees poison, zero or a newer sequence's header, never `gpos`'s.
///
/// Neither step assumes a one-page block or a strongly ordered target. A
/// decommit the fault injector defers lands later, still under the resize
/// lock, and a grow over its range cancels it, so both steps cover it.
pub(crate) fn read_block(shared: &Shared, gpos: u64, until: Until, buf: &mut Vec<u8>) -> BlockRead {
    let cap = shared.cap();
    let map = shared.map(gpos);
    // Beyond the live capacity bound the slot may be decommitted, or hold
    // data a later grow could bring back; neither is readable now.
    if map.data_idx >= shared.capacity_blocks() {
        return BlockRead::Decommitted;
    }
    let meta = &shared.metas[map.meta_idx];
    let conf = meta.confirmed();
    if conf.rnd < map.rnd {
        return BlockRead::NotStarted;
    }
    let watermark = if conf.rnd == map.rnd {
        // Current round: readable only when fully confirmed (§4.3), and for
        // the stream only once full as well.
        let alloc = meta.allocated();
        let visible = alloc.pos.min(cap);
        if alloc.rnd != map.rnd || conf.pos != visible || (until == Until::Closed && visible < cap)
        {
            return BlockRead::InFlight;
        }
        visible as usize
    } else {
        // Past round: it was completely filled when it ended.
        cap as usize
    };
    if watermark < HEADER_BYTES {
        return BlockRead::Recycled;
    }

    // Speculative read: snapshot, then re-validate.
    let start = buf.len();
    let base = shared.data.block_offset(map.data_idx);
    crate::sync::preemption_point();
    shared.data.append_bytes(base, buf, watermark);
    let word = |i: usize| {
        u64::from_le_bytes(buf[start + 8 * i..start + 8 * i + 8].try_into().expect("8 bytes"))
    };
    if !is_block_header([word(0), word(1)], gpos) {
        // The mapping is the one the block was written through, so another
        // header means the block was skipped, overwritten or decommitted.
        buf.truncate(start);
        return BlockRead::Recycled;
    }
    crate::sync::fence(Ordering::Acquire);
    if map.data_idx >= shared.capacity_blocks() {
        buf.truncate(start);
        return BlockRead::Decommitted;
    }
    // Re-read the live header: a wrap-around producer re-initializing the
    // block, or a shrink decommitting it, between our snapshot and now
    // would have rewritten it.
    let mut live = [0u64; 2];
    shared.data.load_words(base, &mut live);
    if !is_block_header(live, gpos) {
        buf.truncate(start);
        return BlockRead::Torn;
    }
    // No further checks are needed: entries are append-only within a round,
    // so `[0, watermark)` is stable unless the round changed — and a round
    // change rewrites the header, which we just re-read.
    BlockRead::Readable
}

/// Whether the header words `words` open the block of sequence `gpos`.
fn is_block_header(words: [u64; 2], gpos: u64) -> bool {
    EntryHeader::decode(words).is_some_and(|h| h.kind == EntryKind::BlockHeader && h.stamp == gpos)
}

impl std::fmt::Debug for RingSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingSnapshot")
            .field("bytes", &self.bytes.len())
            .field("blocks", &self.blocks)
            .field("missed_blocks", &self.missed_blocks)
            .field("events", &self.events)
            .finish()
    }
}

impl std::fmt::Debug for EntryBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EntryBatch")
            .field("bytes", &self.bytes.len())
            .field("events", &self.events)
            .finish()
    }
}

impl std::fmt::Debug for Consumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer").finish_non_exhaustive()
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
pub(crate) fn try_for_each_entry<'a, E>(
    snapshot: &'a [u8],
    from: usize,
    mut f: impl FnMut(RingEntry<'a>) -> Result<(), E>,
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
            f(RingEntry {
                event: EventView {
                    stamp: header.stamp,
                    core: header.core.into(),
                    tid: header.tid,
                    payload: &snapshot[off + HEADER_BYTES..off + HEADER_BYTES + payload_len],
                },
                entry: &snapshot[off..off + len],
            })?;
        }
        off += len;
    }
    Ok(off)
}

/// [`try_for_each_entry`] with an infallible visitor. Returns the offset
/// the walk stopped at and the number of entries visited.
#[inline]
pub(crate) fn for_each_entry<'a>(
    snapshot: &'a [u8],
    from: usize,
    mut f: impl FnMut(RingEntry<'a>),
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

#[cfg(test)]
pub(crate) mod tests {
    use super::{for_each_entry, RingSnapshot};
    use crate::event::{encoded_len, EntryHeader, EntryKind, FullEvent, HEADER_BYTES};
    use crate::{BTrace, Config};
    use btrace_vmem::Backing;
    use proptest::prelude::*;

    /// A fresh [`Consumer::snapshot`] of `t`: the unit tests' one-line read.
    pub(crate) fn snapshot_of(t: &BTrace) -> RingSnapshot {
        let mut snap = RingSnapshot::new();
        t.consumer().snapshot(&mut snap);
        snap
    }

    /// The events of `snap`, copied out and checked against the snapshot's
    /// own counts: `count` and `stored_bytes`, taken by the header walk as
    /// the blocks were read, and the events `try_for_each` visits.
    pub(crate) fn checked_events(snap: &RingSnapshot) -> Vec<FullEvent> {
        let events = snap.to_events();
        assert_eq!(snap.count(), events.len());
        let stored: usize = events.iter().map(|e| encoded_len(e.payload.len())).sum();
        assert_eq!(snap.stored_bytes(), stored);
        let mut visited = Vec::new();
        snap.try_for_each(|e| {
            visited.push(e.to_owned());
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(visited, events);
        events
    }

    /// Appends the `Data` entries of a block snapshot to `out`, copied out
    /// by the shared walker. Returns the offset the walk stopped at.
    fn push_events(snapshot: &[u8], from: usize, out: &mut Vec<FullEvent>) -> usize {
        for_each_entry(snapshot, from, |e| out.push(e.event.to_owned())).0
    }

    /// The entry walk the consumer used before the shared walker, kept
    /// verbatim as the oracle the walker must match.
    fn parse_entries(snapshot: &[u8], out: &mut Vec<FullEvent>) {
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
                out.push(FullEvent {
                    stamp: header.stamp,
                    core: header.core.into(),
                    tid: header.tid,
                    payload,
                });
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
            let stop = push_events(block, HEADER_BYTES, &mut walked);
            parse_entries(block, &mut oracle);
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
        let stop = push_events(&block, HEADER_BYTES, &mut walked);
        let stamps: Vec<u64> = walked.iter().map(|e| e.stamp).collect();
        assert_eq!(stamps, [1], "the walk ends at the bad entry, not past it");
        assert_eq!(stop, HEADER_BYTES + 24, "and reports where it stopped");
    }

    #[test]
    fn reused_snapshot_matches_a_fresh_one() {
        let t = busy_ring();
        let fresh = snapshot_of(&t);
        let mut snap = RingSnapshot::new();
        // Reuse: a second snapshot replaces the first instead of appending.
        t.consumer().snapshot(&mut snap);
        t.consumer().snapshot(&mut snap);
        assert_eq!(snap.blocks(), fresh.blocks());
        let events = checked_events(&snap);
        assert_eq!(events, fresh.to_events());
        assert!(events.iter().any(|e| e.payload.is_empty()), "empty payloads are events too");
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
        t.consumer().snapshot_and_close(&mut RingSnapshot::new());
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
            push_events(&block, HEADER_BYTES, &mut walked);
            parse_entries(&block, &mut oracle);
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
            for (_, block) in blocks(&snap) {
                let torn = &block[..cut.min(block.len())];
                let (mut walked, mut oracle) = (Vec::new(), Vec::new());
                let stop = push_events(torn, HEADER_BYTES, &mut walked);
                parse_entries(torn, &mut oracle);
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
        let out = snapshot_of(&t);
        assert_eq!(out.count(), 0);
        assert_eq!(
            out.blocks().readable,
            2,
            "the two pre-assigned blocks are readable (and empty)"
        );
    }

    #[test]
    fn events_come_back_in_buffer_order() {
        let t = tracer();
        let p = t.producer(0).unwrap();
        for i in 0..50u64 {
            p.record_with(i, 0, &i.to_le_bytes()).unwrap();
        }
        let stamps: Vec<_> = snapshot_of(&t).to_events().iter().map(|e| e.stamp).collect();
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
        let stamps: Vec<_> = snapshot_of(&t).to_events().iter().map(|e| e.stamp).collect();
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
        let out = snapshot_of(&t);
        assert_eq!(out.count(), 1, "core 1's block must be readable");
        assert_eq!(out.blocks().in_flight, 1, "core 0's block is in flight");
        g.commit(2, 0, b"done").unwrap();
        assert_eq!(snapshot_of(&t).count(), 2);
    }

    #[test]
    fn snapshot_and_close_separates_epochs() {
        let t = tracer();
        let p = t.producer(0).unwrap();
        for i in 0..5u64 {
            p.record_with(i, 0, b"epoch-one").unwrap();
        }
        let mut consumer = t.consumer();
        // One snapshot, reused: first by the destructive read, then by a
        // plain one.
        let mut snap = RingSnapshot::new();
        consumer.snapshot(&mut snap);
        consumer.snapshot_and_close(&mut snap);
        assert_eq!(checked_events(&snap).len(), 5);
        for i in 5..10u64 {
            p.record_with(i, 0, b"epoch-two").unwrap();
        }
        // The ring still holds the old blocks (non-destructive read of
        // retained data), but the new events live in strictly newer blocks:
        // walk the snapshot block by block and find which epochs each holds.
        consumer.snapshot(&mut snap);
        let epochs: Vec<(u64, bool, bool)> = blocks(&snap)
            .into_iter()
            .map(|(gpos, block)| {
                let mut walked = Vec::new();
                push_events(block, HEADER_BYTES, &mut walked);
                (gpos, walked.iter().any(|e| e.stamp < 5), walked.iter().any(|e| e.stamp >= 5))
            })
            .collect();
        let old_max = epochs.iter().filter(|b| b.1).map(|b| b.0).max().unwrap();
        let new_min = epochs.iter().filter(|b| b.2).map(|b| b.0).min().unwrap();
        assert!(new_min > old_max, "closed blocks must not receive new events");
    }

    /// `BlockCounts` as `readable/in_flight/recycled/torn`.
    fn counts(c: super::BlockCounts) -> String {
        format!("{}/{}/{}/{}", c.readable, c.in_flight, c.recycled, c.torn)
    }

    /// Stamps as sorted, comma-separated runs (`0-3,7`).
    fn runs(stamps: impl IntoIterator<Item = u64>) -> String {
        let mut stamps: Vec<u64> = stamps.into_iter().collect();
        stamps.sort_unstable();
        let mut out: Vec<String> = Vec::new();
        let mut i = 0;
        while i < stamps.len() {
            let mut j = i;
            while j + 1 < stamps.len() && stamps[j + 1] == stamps[j] + 1 {
                j += 1;
            }
            out.push(if i == j {
                stamps[i].to_string()
            } else {
                format!("{}-{}", stamps[i], stamps[j])
            });
            i = j + 1;
        }
        out.join(",")
    }

    /// The accounting of every reader of the live ring, pinned through a
    /// wrap, an open grant, a grow and a shrink: a `snapshot` after each
    /// step (its stamps in the `collect` row, its count in the `snapshot`
    /// row), and every stripe's poll and final `flush_close` at one and
    /// three stripes.
    #[test]
    fn readers_accounting_is_pinned_across_wrap_grant_and_resize() {
        use crate::stream::StreamShard;
        let t = BTrace::new(
            Config::new(2)
                .active_blocks(4)
                .block_bytes(256)
                .buffer_bytes(256 * 4 * 2)
                .max_bytes(256 * 4 * 8)
                .backing(Backing::Heap),
        )
        .unwrap();
        let stripes = |k: u64| -> Vec<StreamShard> {
            (0..k).map(|s| StreamShard::new(std::sync::Arc::clone(&t.shared), s, k)).collect()
        };
        let mut streams = [stripes(1), stripes(3)];
        let p = [t.producer(0).unwrap(), t.producer(1).unwrap()];
        let mut stamp = 0u64;
        let mut record = |cores: &[usize], n: usize| {
            for _ in 0..n {
                for &c in cores {
                    p[c].record_with(stamp, 0, b"a-sixteen-byte-p").unwrap();
                    stamp += 1;
                }
            }
        };
        let (mut seen, mut snap) = (Vec::new(), RingSnapshot::new());
        let mut observe = |step: &str, streams: &mut [Vec<StreamShard>; 2], close: bool| {
            t.consumer().snapshot(&mut snap);
            let stamps = runs(snap.to_events().iter().map(|e| e.stamp));
            seen.push(format!("{step} collect {} [{stamps}]", counts(snap.blocks())));
            seen.push(format!("{step} snapshot {} {}", counts(snap.blocks()), snap.count()));
            for shards in streams.iter_mut() {
                let k = shards.len();
                for (i, s) in shards.iter_mut().enumerate() {
                    if close {
                        s.flush_close(&mut snap);
                    } else {
                        s.poll(&mut snap);
                    }
                    seen.push(format!(
                        "{step} k{k} s{i} {} m{} [{}]",
                        counts(snap.blocks()),
                        snap.missed_blocks(),
                        runs(snap.to_events().iter().map(|e| e.stamp))
                    ));
                }
            }
        };

        record(&[0, 1], 60); // 120 records in 17 blocks of an 8-block ring
        observe("wrapped", &mut streams, false);
        let grant = p[0].begin(16).unwrap();
        record(&[1], 10);
        observe("grant", &mut streams, false);
        grant.commit(10_000, 0, b"a-sixteen-byte-p").unwrap();
        record(&[0], 3);
        t.resize_bytes(256 * 4 * 8).unwrap();
        record(&[0, 1], 50);
        observe("grown", &mut streams, false);
        t.resize_bytes(256 * 4 * 2).unwrap();
        record(&[1, 0], 10);
        observe("shrunk", &mut streams, false);
        observe("closed", &mut streams, true);
        let expected = [
            "wrapped collect 8/0/14/0 [70-119]",
            "wrapped snapshot 8/0/14/0 50",
            "wrapped k1 s0 6/2/14/0 m0 [70-111]",
            "wrapped k3 s0 2/1/5/0 m0 [71,73,75,77,79,81,83,98,100,102,104,106,108,110]",
            "wrapped k3 s1 2/0/5/0 m0 [84,86,88,90,92,94,96,99,101,103,105,107,109,111]",
            "wrapped k3 s2 2/1/4/0 m0 [70,72,74,76,78,80,82,85,87,89,91,93,95,97]",
            "grant collect 7/1/15/0 [71,73,75,77,79,81,83-111,113,115,117,119-129]",
            "grant snapshot 7/1/15/0 49",
            "grant k1 s0 1/2/0/0 m0 [113,115,117,119-122]",
            "grant k3 s0 1/0/0/0 m0 [113,115,117,119-122]",
            "grant k3 s1 0/1/0/0 m0 []",
            "grant k3 s2 0/1/0/0 m0 []",
            "grown collect 16/0/16/0 [133-232]",
            "grown snapshot 16/0/16/0 100",
            "grown k1 s0 14/2/7/0 m0 [133-230]",
            "grown k3 s0 4/1/2/0 m0 [147,149,151,153,155,157,159,162,164,166,168,170,172,174,189,191,193,195,197,199,201,204,206,208,210,212,214,216]",
            "grown k3 s1 5/1/2/0 m0 [133,135,137,139,141,143,145,148,150,152,154,156,158,160,175,177,179,181,183,185,187,190,192,194,196,198,200,202,217,219,221,223,225,227,229]",
            "grown k3 s2 5/0/3/0 m0 [134,136,138,140,142,144,146,161,163,165,167,169,171,173,176,178,180,182,184,186,188,203,205,207,209,211,213,215,218,220,222,224,226,228,230]",
            "shrunk collect 8/0/24/0 [189-216,233-252]",
            "shrunk snapshot 8/0/24/0 48",
            "shrunk k1 s0 2/8/0/0 m0 [233-246]",
            "shrunk k3 s0 1/3/0/0 m0 [234,236,238,240,242,244,246]",
            "shrunk k3 s1 1/2/0/0 m0 [233,235,237,239,241,243,245]",
            "shrunk k3 s2 0/3/0/0 m0 []",
            "closed collect 8/0/24/0 [189-216,233-252]",
            "closed snapshot 8/0/24/0 48",
            "closed k1 s0 2/6/0/0 m0 [247-252]",
            "closed k3 s0 1/2/0/0 m0 [248,250,252]",
            "closed k3 s1 0/2/0/0 m0 []",
            "closed k3 s2 1/2/0/0 m0 [247,249,251]",
        ];
        assert_eq!(seen, expected, "{seen:#?}");
    }

    #[test]
    fn snapshot_and_close_with_concurrent_producers() {
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
        let (mut consumer, mut snap) = (t.consumer(), RingSnapshot::new());
        for _ in 0..20 {
            consumer.snapshot_and_close(&mut snap);
        }
        for w in writers {
            w.join().unwrap();
        }
        // Everything still works and the newest events are present.
        assert!(snapshot_of(&t).to_events().iter().any(|e| e.stamp % 10_000 == 1999));
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
        let (mut consumer, mut snap) = (t.consumer(), RingSnapshot::new());
        for _ in 0..200 {
            consumer.snapshot(&mut snap);
            for e in &snap.to_events() {
                let s = e.stamp.to_le_bytes();
                assert_eq!(&e.payload[..8], s);
                assert_eq!(&e.payload[8..16], s);
                assert_eq!(&e.payload[16..24], s);
            }
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }
}
