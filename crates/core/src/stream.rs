//! Streaming consumption at **block granularity**: the cursor-based
//! consumer behind the `drain → batch → encode → sink` pipeline in
//! `btrace-persist`.
//!
//! A [`StreamConsumer`] tracks the last-drained global block sequence and,
//! on each [`poll`](StreamConsumer::poll), hands off only blocks that have
//! **closed** since the previous poll. Unlike [`TailReader`](crate::TailReader)
//! (which also returns partial prefixes of still-open blocks), the streaming
//! consumer treats the closed block as its unit of delivery — the natural
//! streaming granule of the block machinery (BBQ's consumption model), and
//! the granularity at which a batch can be encoded and shipped without ever
//! being amended by a later poll.
//!
//! ## Why closed-block handoff needs no new producer synchronization
//!
//! The §3.3 implicit-reclaim counters already fence visibility: a round is
//! closed exactly when its metadata block's `Confirmed` counter reaches the
//! block capacity for that round (`conf.rnd > map.rnd`, or `conf.rnd ==
//! map.rnd && conf.pos == cap`). `Confirmed` is advanced with a Release
//! fetch-and-add after the payload bytes are stored, so observing the
//! closed state (Acquire) makes every entry in the block visible. Nothing
//! is written back by the consumer: a drained block is "released" simply by
//! the cursor moving past it — recycling remains governed by the same
//! allocate/confirm protocol that recycles collected blocks, and producers
//! never learn the consumer exists.
//!
//! ## Cursor invariants
//!
//! * `cursor` is the smallest global block sequence not yet *resolved*
//!   (delivered, skipped, or permanently lost); it only moves forward.
//! * Every sequence in `delivered` is `>= cursor` and has been resolved
//!   out of order (a newer block closed while an older one was still
//!   open); it is never re-read.
//! * Each event is delivered **at most once** across polls: a block is
//!   parsed only in the poll that resolves it, and resolution is recorded
//!   before the next poll can observe the block again.

use crate::buffer::Shared;
use crate::consumer::BlockCounts;
use crate::event::{EntryHeader, EntryKind, Event, HEADER_BYTES};
use crate::sync::{Arc, Ordering};
use std::collections::BTreeSet;

/// One streaming poll's worth of closed blocks.
#[derive(Debug, Default)]
#[non_exhaustive]
pub struct DrainedBatch {
    /// Events from blocks that closed since the previous poll, in buffer
    /// order (ascending block sequence, then offset).
    pub events: Vec<Event>,
    /// Per-block accounting of this poll's scan.
    pub blocks: BlockCounts,
    /// Blocks that were overwritten before the stream reached them. A
    /// streaming daemon that cannot keep up loses oldest-first, exactly
    /// like the underlying buffer. A sequence number whose round never
    /// started and that the cursor laps before its metadata block moved on
    /// is counted here too: the stream cannot tell it from a lost block.
    pub missed_blocks: usize,
}

impl DrainedBatch {
    /// Sum of on-buffer bytes of the returned events.
    pub fn stored_bytes(&self) -> usize {
        self.events.iter().map(Event::stored_bytes).sum()
    }
}

/// Cumulative accounting across every poll of one [`StreamConsumer`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct StreamStats {
    /// Polls performed.
    pub polls: u64,
    /// Blocks whose events were delivered.
    pub blocks_delivered: u64,
    /// Events delivered.
    pub events_delivered: u64,
    /// On-buffer bytes of delivered events.
    pub bytes_delivered: u64,
    /// Blocks lost to wrap-around before the stream reached them.
    pub missed_blocks: u64,
}

/// One stripe of the global block-sequence space: the consumer owns every
/// `gpos` with `gpos % stride == shard` and nothing else.
///
/// This is the unit a multi-threaded drain parallelizes over. The stripe
/// hand-off needs no new producer synchronization: block resolution is
/// keyed purely on the global sequence number, and the §3.3 `Confirmed`
/// fence already gives *each block* an exclusive, final hand-off — so a
/// partition of the sequence space is a partition of the deliveries.
/// Stripes are disjoint by construction (`gpos % K` is a function), every
/// block belongs to exactly one stripe, and each stripe delivers its
/// blocks at most once by the same cursor discipline as the single
/// consumer; the union across stripes is therefore exactly the
/// single-consumer stream set.
///
/// A [`StreamConsumer`] is the `stride == 1` special case.
pub struct StreamShard {
    shared: Arc<Shared>,
    participant: btrace_smr::Participant,
    scratch: Vec<u8>,
    /// This stripe's residue class: owns `gpos % stride == shard`.
    shard: u64,
    /// Total number of stripes the sequence space is split into.
    stride: u64,
    /// Smallest owned global block sequence not yet resolved. Always
    /// congruent to `shard` modulo `stride`.
    cursor: u64,
    /// Owned sequences beyond the cursor already resolved out of order.
    delivered: BTreeSet<u64>,
    stats: StreamStats,
}

impl StreamShard {
    pub(crate) fn new(shared: Arc<Shared>, shard: u64, stride: u64) -> Self {
        debug_assert!(stride >= 1 && shard < stride);
        let participant = shared.domain.register();
        Self {
            shared,
            participant,
            scratch: Vec::new(),
            shard,
            stride,
            cursor: shard,
            delivered: BTreeSet::new(),
            stats: StreamStats::default(),
        }
    }

    /// The stripe this consumer owns: `(shard, of_stripes)`.
    pub fn stripe(&self) -> (usize, usize) {
        (self.shard as usize, self.stride as usize)
    }

    /// Returns the events of every **owned** block that closed since the
    /// previous poll, oldest block first.
    ///
    /// Non-destructive and non-blocking for producers. Events of a block
    /// that is still open (or has unconfirmed writes in flight) are *not*
    /// returned yet — they arrive in the poll that first observes the
    /// block closed, so each event is delivered at most once.
    pub fn poll(&mut self) -> DrainedBatch {
        let shared = Arc::clone(&self.shared);
        let Self { participant, scratch, cursor, delivered, stats, stride, .. } = self;
        let stride = *stride;
        let _pin = participant.pin();
        let head = shared.global_pos().pos;
        let span = (shared.data.region().len() / shared.cfg.block_bytes) as u64;
        let lo = head.saturating_sub(span);

        let mut out = DrainedBatch::default();
        if *cursor < lo {
            // Lapped: owned blocks in [cursor, lo) that we never resolved
            // are gone. Resolved ones were already delivered — not missed.
            // `cursor ≡ shard (mod stride)`, so the stripe members below
            // `lo` are `cursor, cursor+stride, …` — `⌈(lo-cursor)/stride⌉`
            // of them.
            let members = (lo - *cursor).div_ceil(stride);
            let resolved_below = delivered.range(..lo).count() as u64;
            out.missed_blocks = (members - resolved_below) as usize;
            *cursor += members * stride;
            *delivered = delivered.split_off(&lo);
        }

        let mut gpos = *cursor;
        while gpos < head {
            if delivered.contains(&gpos) {
                gpos += stride;
                continue;
            }
            match read_closed(&shared, scratch, gpos, &mut out) {
                Handoff::Resolved => {
                    delivered.insert(gpos);
                }
                Handoff::NotYetClosed => {
                    // Producer still owns the block (or unconfirmed writes
                    // are in flight), or its round has not started: deliver
                    // or resolve it in a later poll.
                }
            }
            gpos += stride;
        }
        // Advance the cursor over the resolved prefix of the stripe.
        while delivered.remove(cursor) {
            *cursor += stride;
        }

        stats.polls += 1;
        stats.blocks_delivered += out.blocks.readable as u64;
        stats.events_delivered += out.events.len() as u64;
        stats.bytes_delivered += out.stored_bytes() as u64;
        stats.missed_blocks += out.missed_blocks as u64;
        out
    }

    /// Closes every open block in the readable window — each core's
    /// current block (the destructive cut of
    /// [`Consumer::collect_and_close`](crate::Consumer::collect_and_close))
    /// *and* any straggler block still inside the §3.2 closing horizon —
    /// then polls, delivering everything recorded so far **on this
    /// stripe**, including events that were sitting in open blocks.
    ///
    /// The horizon sweep matters: a block a core has advanced away from
    /// stays open until the head passes it by `A` positions, and a final
    /// drain must not withhold its confirmed contents.
    ///
    /// `Meta::close` is a round-checked CAS, so any number of shards may
    /// flush concurrently: exactly one closer dummy-fills each block, the
    /// others observe `AlreadyFull`, and each closed block is still
    /// delivered only by the stripe that owns its sequence number.
    ///
    /// This is the shutdown flush of a streaming pipeline: after every
    /// shard has flushed, every confirmed record has been handed off
    /// exactly once across the union of stripes (absent wrap-around
    /// misses, which are reported).
    pub fn flush_close(&mut self) -> DrainedBatch {
        crate::consumer::close_current_blocks(&self.shared);
        close_open_window(&self.shared, &self.participant);
        self.poll()
    }

    /// First owned global block sequence not yet resolved by this stripe.
    pub fn position(&self) -> u64 {
        self.cursor
    }

    /// Cumulative accounting across every poll so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }
}

/// Dummy-fills every still-open block in the readable window, exactly
/// as a §3.2 advancing producer would. `Meta::close` is round-checked,
/// so a block whose metadata has already moved to a newer round is
/// left alone, and a straggler's unconfirmed entry below the claimed
/// fill range keeps the block incomplete until that writer confirms.
fn close_open_window(shared: &Shared, participant: &btrace_smr::Participant) {
    let _pin = participant.pin();
    let cap = shared.cap();
    let head = shared.global_pos().pos;
    let span = (shared.data.region().len() / shared.cfg.block_bytes) as u64;
    for gpos in head.saturating_sub(span)..head {
        // The dummy fill below writes through a history mapping; wait out
        // any resize whose global CAS has landed ahead of its history entry
        // so the fill cannot be misdirected into another live block. Fresh
        // sequence numbers claimed while we wait are beyond `head` and out
        // of this sweep's range.
        shared.wait_history_published();
        let map = shared.history.map(gpos);
        // A shrink may have decommitted this slot; never dummy-write it.
        if map.data_idx >= shared.capacity_blocks.load(Ordering::Acquire) {
            continue;
        }
        if let crate::meta::Close::Fill { rnd: _, pos } =
            shared.metas[map.meta_idx].close(map.rnd, cap)
        {
            shared.write_dummy_run(map.data_idx, pos, cap - pos);
            shared.metas[map.meta_idx].confirm(cap - pos);
        }
    }
}

/// An incremental block-granularity consumer. Create via
/// [`BTrace::stream`](crate::BTrace::stream).
///
/// Like every consumer, each poll pins the tracer's reclamation domain so
/// a concurrent shrink cannot decommit memory mid-read (§4.4), and reads
/// speculatively: snapshot, re-validate the block header, discard on
/// mismatch.
///
/// Internally this is a [`StreamShard`] that owns the whole sequence
/// space (stripe `0 mod 1`).
pub struct StreamConsumer {
    inner: StreamShard,
}

impl StreamConsumer {
    pub(crate) fn new(shared: Arc<Shared>) -> Self {
        Self { inner: StreamShard::new(shared, 0, 1) }
    }

    /// Returns the events of every block that closed since the previous
    /// poll, oldest block first. See [`StreamShard::poll`].
    pub fn poll(&mut self) -> DrainedBatch {
        self.inner.poll()
    }

    /// Closes every open block in the readable window, then polls,
    /// delivering everything recorded so far. See
    /// [`StreamShard::flush_close`].
    pub fn flush_close(&mut self) -> DrainedBatch {
        self.inner.flush_close()
    }

    /// First global block sequence not yet resolved by this stream.
    pub fn position(&self) -> u64 {
        self.inner.position()
    }

    /// Cumulative accounting across every poll so far.
    pub fn stats(&self) -> StreamStats {
        self.inner.stats()
    }
}

/// A streaming consumer split into `K` disjoint stripes of the global
/// block-sequence space, for multi-threaded draining. Create via
/// [`BTrace::stream_sharded`](crate::BTrace::stream_sharded).
///
/// Stripe `i` owns every block whose global sequence number is
/// `≡ i (mod K)`. Because block resolution is keyed on the sequence
/// number alone and the `Confirmed` fence hands each closed block off
/// exactly once, the stripes deliver **disjoint** sets whose union is
/// exactly what a single [`StreamConsumer`] would deliver.
///
/// Poll the stripes from one thread via [`poll_all`](Self::poll_all), or
/// split them across threads with [`into_shards`](Self::into_shards) —
/// each [`StreamShard`] is an independent, self-contained consumer.
pub struct ShardedStreamConsumer {
    shards: Vec<StreamShard>,
}

impl ShardedStreamConsumer {
    pub(crate) fn new(shared: Arc<Shared>, shards: usize) -> Self {
        let stride = shards.max(1) as u64;
        let shards =
            (0..stride).map(|shard| StreamShard::new(Arc::clone(&shared), shard, stride)).collect();
        Self { shards }
    }

    /// Number of stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The stripe consumers, for mutable per-stripe access.
    pub fn shards_mut(&mut self) -> &mut [StreamShard] {
        &mut self.shards
    }

    /// Consumes the handle, yielding one independently owned consumer per
    /// stripe (e.g. to move each onto its own drain thread).
    pub fn into_shards(self) -> Vec<StreamShard> {
        self.shards
    }

    /// Polls every stripe once, merging the batches (stripe order, oldest
    /// block first within each stripe).
    pub fn poll_all(&mut self) -> DrainedBatch {
        let mut out = DrainedBatch::default();
        for shard in &mut self.shards {
            merge_batch(&mut out, shard.poll());
        }
        out
    }

    /// Flush-closes every stripe (see [`StreamShard::flush_close`]),
    /// merging the final batches.
    pub fn flush_close_all(&mut self) -> DrainedBatch {
        let mut out = DrainedBatch::default();
        for shard in &mut self.shards {
            merge_batch(&mut out, shard.flush_close());
        }
        out
    }

    /// Cumulative accounting summed across every stripe.
    pub fn stats(&self) -> StreamStats {
        let mut total = StreamStats::default();
        for s in self.shards.iter().map(StreamShard::stats) {
            total.polls += s.polls;
            total.blocks_delivered += s.blocks_delivered;
            total.events_delivered += s.events_delivered;
            total.bytes_delivered += s.bytes_delivered;
            total.missed_blocks += s.missed_blocks;
        }
        total
    }
}

fn merge_batch(into: &mut DrainedBatch, from: DrainedBatch) {
    into.events.extend(from.events);
    into.blocks.readable += from.blocks.readable;
    into.blocks.recycled += from.blocks.recycled;
    into.blocks.torn += from.blocks.torn;
    into.blocks.in_flight += from.blocks.in_flight;
    into.missed_blocks += from.missed_blocks;
}

/// Outcome of attempting to hand off one block.
enum Handoff {
    /// Delivered, torn, or permanently recycled — never look again.
    Resolved,
    /// Open, with unconfirmed writes, or not started yet; revisit next
    /// poll.
    NotYetClosed,
}

fn read_closed(
    shared: &Shared,
    scratch: &mut Vec<u8>,
    gpos: u64,
    out: &mut DrainedBatch,
) -> Handoff {
    let cap = shared.cap() as usize;
    // `meta_idx` and `rnd` are ratio-independent (`gpos mod A`, `gpos div A`);
    // only `data_idx` depends on the history. The loop below re-derives the
    // mapping when a header mismatch may stem from a resize whose global CAS
    // has landed but whose history entry has not (see `history_published`).
    let mut map = shared.history.map(gpos);
    loop {
        // Acquire pairs with the shrinker's release store: blocks beyond the
        // live bound may already be decommitted, so they must not be touched —
        // but they are *withheld*, not resolved. A later grow can resurrect
        // the slot with its data intact (shrink decommits are deferrable), and
        // a one-shot collect would then read it; resolving here would make the
        // stream silently lose what other consumers still see. If no grow
        // comes, the cursor lap accounting converts the withheld block into an
        // explicit miss instead.
        if map.data_idx >= shared.capacity_blocks.load(Ordering::Acquire) {
            out.blocks.in_flight += 1;
            return Handoff::NotYetClosed;
        }
        let meta = &shared.metas[map.meta_idx];
        let conf = meta.confirmed();
        if conf.rnd < map.rnd {
            // The round has not started. It still may: a producer claims a
            // sequence number on the global counter *before* it locks the
            // metadata block, and while it is preempted in between, other
            // cores can claim the sequence numbers behind it — so no head
            // distance proves the claim dead. The block resolves once the
            // metadata moves past this round (the header check below then
            // recycles it), or once the cursor laps it. Not counted until
            // then.
            return Handoff::NotYetClosed;
        }
        if conf.rnd == map.rnd {
            let alloc = meta.allocated();
            let visible = alloc.pos.min(shared.cap());
            if alloc.rnd != map.rnd || conf.pos != visible || (visible as usize) < cap {
                // Current round and not yet full-and-confirmed: the §3.3
                // counters say the block is still referenced by producers.
                out.blocks.in_flight += 1;
                return Handoff::NotYetClosed;
            }
        }
        // Closed: either fully confirmed this round, or the metadata already
        // moved on (a past round is completely filled when it ends). Snapshot
        // the whole block, then re-validate the header (§4.3).
        let base = shared.data.block_offset(map.data_idx);
        shared.data.load_bytes(base, scratch, cap);
        let header_ok = scratch.len() >= HEADER_BYTES
            && EntryHeader::decode([
                u64::from_le_bytes(scratch[0..8].try_into().expect("8 bytes")),
                u64::from_le_bytes(scratch[8..16].try_into().expect("8 bytes")),
            ])
            .is_some_and(|h| h.kind == EntryKind::BlockHeader && h.stamp == gpos);
        if !header_ok {
            // The snapshot does not belong to `gpos`. Before resolving this
            // permanently as recycled, rule out a stale mapping: a resize
            // publishes its global CAS before its history entry, and a mapping
            // computed in that window points at the wrong data block. Deferring
            // costs one revisit; resolving on a stale mapping loses the block's
            // confirmed records forever.
            if !shared.history_published() {
                out.blocks.in_flight += 1;
                return Handoff::NotYetClosed;
            }
            let fresh = shared.history.map(gpos);
            if fresh != map {
                map = fresh;
                continue;
            }
            // Skip marker, or data already overwritten by a newer round.
            out.blocks.recycled += 1;
            return Handoff::Resolved;
        }
        let mut live = [0u64; 2];
        shared.data.load_words(base, &mut live);
        let still_ours = EntryHeader::decode(live)
            .is_some_and(|h| h.kind == EntryKind::BlockHeader && h.stamp == gpos);
        if !still_ours {
            out.blocks.torn += 1;
            return Handoff::Resolved;
        }
        crate::consumer::push_events(scratch, HEADER_BYTES, gpos, &mut out.events);
        out.blocks.readable += 1;
        return Handoff::Resolved;
    }
}

impl std::fmt::Debug for StreamShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamShard")
            .field("shard", &self.shard)
            .field("stride", &self.stride)
            .field("cursor", &self.cursor)
            .field("out_of_order", &self.delivered.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl std::fmt::Debug for StreamConsumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamConsumer")
            .field("cursor", &self.inner.cursor)
            .field("out_of_order", &self.inner.delivered.len())
            .field("stats", &self.inner.stats)
            .finish()
    }
}

impl std::fmt::Debug for ShardedStreamConsumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStreamConsumer").field("shards", &self.shards).finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::{BTrace, Config};
    use btrace_vmem::Backing;

    fn tracer(cores: usize) -> BTrace {
        BTrace::new(
            Config::new(cores)
                .active_blocks(4)
                .block_bytes(256)
                .buffer_bytes(256 * 16)
                .backing(Backing::Heap),
        )
        .expect("valid configuration")
    }

    #[test]
    fn open_block_is_withheld_until_closed() {
        let t = tracer(1);
        let p = t.producer(0).unwrap();
        let mut s = t.stream();
        p.record_with(0, 0, b"sits in an open block").unwrap();
        assert!(s.poll().events.is_empty(), "open blocks are not streamed");
        // Fill past the first block so it closes.
        for i in 1..40u64 {
            p.record_with(i, 0, b"a-sixteen-byte-p").unwrap();
        }
        let batch = s.poll();
        assert!(!batch.events.is_empty());
        assert_eq!(batch.events[0].stamp(), 0, "closed block arrives whole, oldest first");
    }

    #[test]
    fn each_closed_block_arrives_exactly_once() {
        let t = tracer(1);
        let p = t.producer(0).unwrap();
        let mut s = t.stream();
        let mut seen = Vec::new();
        for i in 0..300u64 {
            p.record_with(i, 0, b"a-sixteen-byte-p").unwrap();
            if i % 13 == 0 {
                seen.extend(s.poll().events.into_iter().map(|e| e.stamp()));
            }
        }
        seen.extend(s.flush_close().events.into_iter().map(|e| e.stamp()));
        let mut dedup = seen.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seen.len(), "no duplicates across polls");
        assert_eq!(*seen.last().unwrap(), 299, "flush_close delivers the open tail");
    }

    #[test]
    fn flush_close_delivers_everything_written() {
        let t = tracer(2);
        let p0 = t.producer(0).unwrap();
        let p1 = t.producer(1).unwrap();
        let mut s = t.stream();
        for i in 0..10u64 {
            p0.record_with(i, 0, b"core0").unwrap();
            p1.record_with(100 + i, 0, b"core1").unwrap();
        }
        let batch = s.flush_close();
        let mut stamps: Vec<u64> = batch.events.iter().map(|e| e.stamp()).collect();
        stamps.sort_unstable();
        let expected: Vec<u64> = (0..10).chain(100..110).collect();
        assert_eq!(stamps, expected);
        assert!(s.poll().events.is_empty(), "nothing is delivered twice");
    }

    #[test]
    fn lapped_stream_reports_misses_and_recovers() {
        let t = tracer(1); // 16 blocks x 256 B
        let p = t.producer(0).unwrap();
        let mut s = t.stream();
        for i in 0..2_000u64 {
            p.record_with(i, 0, b"wrap-the-buffer!").unwrap();
        }
        let batch = s.poll();
        assert!(batch.missed_blocks > 0, "a lapped stream must report misses");
        let stamps: Vec<u64> = batch.events.iter().map(|e| e.stamp()).collect();
        for w in stamps.windows(2) {
            assert!(w[1] > w[0], "stream must stay ordered");
        }
        // The stream keeps going after the lap.
        for i in 2_000..2_040u64 {
            p.record_with(i, 0, b"wrap-the-buffer!").unwrap();
        }
        let next = s.flush_close();
        assert_eq!(next.events.last().unwrap().stamp(), 2_039);
    }

    #[test]
    fn out_of_order_closes_do_not_wedge_the_cursor() {
        // Core 0 keeps one block open while core 1 closes many: the
        // stream must deliver core 1's closed blocks without waiting.
        let t = tracer(2);
        let p0 = t.producer(0).unwrap();
        let p1 = t.producer(1).unwrap();
        let mut s = t.stream();
        p0.record_with(0, 0, b"held open").unwrap();
        // Enough to close core 1's first block, but too little for core
        // 1's advances to reach the §3.2 closing horizon (A blocks back)
        // and close core 0's block for us.
        for i in 0..13u64 {
            p1.record_with(1 + i, 0, b"a-sixteen-byte-p").unwrap();
        }
        let batch = s.poll();
        assert!(
            batch.events.iter().any(|e| e.core() == 1),
            "closed blocks stream past an older open one"
        );
        assert!(batch.events.iter().all(|e| e.core() == 1), "the open block is withheld");
        // Flush closes core 0's straggler block too.
        let rest = s.flush_close();
        assert!(rest.events.iter().any(|e| e.stamp() == 0));
    }

    #[test]
    fn stream_coexists_with_resize() {
        let t = BTrace::new(
            Config::new(1)
                .active_blocks(4)
                .block_bytes(256)
                .buffer_bytes(256 * 8)
                .max_bytes(256 * 32)
                .backing(Backing::Heap),
        )
        .unwrap();
        let p = t.producer(0).unwrap();
        let mut s = t.stream();
        let mut seen = Vec::new();
        for i in 0..400u64 {
            p.record_with(i, 0, b"a-sixteen-byte-p").unwrap();
            match i {
                100 => t.resize_bytes(256 * 32).unwrap(),
                250 => t.resize_bytes(256 * 8).unwrap(),
                _ => {}
            }
            if i % 17 == 0 {
                seen.extend(s.poll().events.into_iter().map(|e| e.stamp()));
            }
        }
        seen.extend(s.flush_close().events.into_iter().map(|e| e.stamp()));
        let mut dedup = seen.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seen.len(), "resizes must not cause duplicates");
        assert_eq!(*seen.iter().max().unwrap(), 399, "newest survives the resizes");
    }

    #[test]
    fn sharded_union_matches_single_consumer_exactly_once() {
        for k in [2usize, 3, 4] {
            let t = tracer(1);
            let p = t.producer(0).unwrap();
            let mut single = t.stream();
            let mut sharded = t.stream_sharded(k);
            let mut single_seen = Vec::new();
            let mut shard_seen: Vec<Vec<u64>> = vec![Vec::new(); k];
            for i in 0..300u64 {
                p.record_with(i, 0, b"a-sixteen-byte-p").unwrap();
                if i % 13 == 0 {
                    single_seen.extend(single.poll().events.into_iter().map(|e| e.stamp()));
                    for (s, seen) in sharded.shards_mut().iter_mut().zip(&mut shard_seen) {
                        seen.extend(s.poll().events.into_iter().map(|e| e.stamp()));
                    }
                }
            }
            single_seen.extend(single.flush_close().events.into_iter().map(|e| e.stamp()));
            for (s, seen) in sharded.shards_mut().iter_mut().zip(&mut shard_seen) {
                seen.extend(s.flush_close().events.into_iter().map(|e| e.stamp()));
            }
            // Stripes are pairwise disjoint...
            let mut union: Vec<u64> = shard_seen.iter().flatten().copied().collect();
            let total = union.len();
            union.sort_unstable();
            union.dedup();
            assert_eq!(union.len(), total, "k={k}: a stamp crossed stripes or repeated");
            // ...and their union is the single-consumer set, exactly once.
            single_seen.sort_unstable();
            assert_eq!(union, single_seen, "k={k}: union of stripes != single-consumer set");
        }
    }

    #[test]
    fn sharded_shards_drain_concurrently_from_threads() {
        let t = std::sync::Arc::new(tracer(2));
        let k = 4;
        let shards = t.stream_sharded(k).into_shards();
        // Each core's last record waits until both cores wrote the rest, so
        // it is among the two newest records in time. Without the gate one
        // writer can finish before the other starts; the other's 22 blocks
        // then lap all 16 of the ring, and the finished core's last record
        // is legitimately overwritten (a counted miss), not withheld.
        let last_round = std::sync::Arc::new(std::sync::Barrier::new(2));
        let writers: Vec<_> = (0..2u16)
            .map(|core| {
                let p = t.producer(core as usize).unwrap();
                let last_round = std::sync::Arc::clone(&last_round);
                std::thread::spawn(move || {
                    for i in 0..150u64 {
                        if i == 149 {
                            last_round.wait();
                        }
                        p.record_with(core as u64 * 1000 + i, 0, b"a-sixteen-byte-p").unwrap();
                    }
                })
            })
            .collect();
        let drains: Vec<_> = shards
            .into_iter()
            .map(|mut shard| {
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    let mut lost_blocks = 0;
                    for _ in 0..20 {
                        let batch = shard.poll();
                        lost_blocks +=
                            batch.missed_blocks + batch.blocks.recycled + batch.blocks.torn;
                        seen.extend(batch.events.into_iter().map(|e| e.stamp()));
                        std::thread::yield_now();
                    }
                    (shard, seen, lost_blocks)
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let mut all = Vec::new();
        let mut lost_blocks = 0;
        for d in drains {
            let (mut shard, mut seen, lost) = d.join().unwrap();
            let last = shard.flush_close();
            lost_blocks += lost + last.missed_blocks + last.blocks.recycled + last.blocks.torn;
            seen.extend(last.events.into_iter().map(|e| e.stamp()));
            all.extend(seen);
        }
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "no stamp may be delivered by two stripes");
        // The 16-block buffer wrapped under 300 records; what survives must
        // be intact, and with all shards flushed nothing recorded at the
        // end is withheld.
        assert_eq!(*all.last().unwrap(), 1149, "the newest record must be delivered");
        assert!(all.contains(&149), "core 0's newest record must be delivered too");
        // Loss is counted, never silent: a 256-byte block holds at most 7
        // of these 32-byte entries, so every undelivered record is covered
        // by a block reported missed, recycled or torn.
        assert!(
            300 - all.len() <= 7 * lost_blocks,
            "{} delivered, {lost_blocks} lost blocks",
            all.len()
        );
    }

    #[test]
    fn sharded_lap_accounting_partitions_misses() {
        let t = tracer(1); // 16 blocks x 256 B
        let p = t.producer(0).unwrap();
        let mut single = t.stream();
        let mut sharded = t.stream_sharded(4);
        for i in 0..2_000u64 {
            p.record_with(i, 0, b"wrap-the-buffer!").unwrap();
        }
        let single_missed = single.poll().missed_blocks;
        let sharded_missed = sharded.poll_all().missed_blocks;
        assert!(single_missed > 0);
        assert_eq!(
            sharded_missed, single_missed,
            "stripe misses must partition the single-consumer misses"
        );
    }

    #[test]
    fn stats_accumulate() {
        let t = tracer(1);
        let p = t.producer(0).unwrap();
        let mut s = t.stream();
        for i in 0..100u64 {
            p.record_with(i, 0, b"a-sixteen-byte-p").unwrap();
        }
        let batch = s.flush_close();
        let stats = s.stats();
        assert_eq!(stats.polls, 1);
        assert_eq!(stats.events_delivered, batch.events.len() as u64);
        assert_eq!(stats.blocks_delivered, batch.blocks.readable as u64);
        assert_eq!(stats.bytes_delivered, batch.stored_bytes() as u64);
    }
}
