//! Streaming consumption at **block granularity**: the cursor-based
//! consumer behind the `drain → batch → encode → sink` pipeline in
//! `btrace-persist`.
//!
//! A [`StreamShard`] tracks the last-drained global block sequence and,
//! on each [`poll`](StreamShard::poll), hands off only blocks that have
//! **closed** since the previous poll, in a caller-owned, reused
//! [`RingSnapshot`]. Where [`Consumer`](crate::Consumer)
//! reads the confirmed prefix of every block once, the streaming consumer
//! treats the closed block as its unit of delivery — the natural streaming
//! granule of the block machinery (BBQ's consumption model), and the
//! granularity at which a batch can be encoded and shipped without ever
//! being amended by a later poll. Both read a block through the same §4.3
//! speculative read (`consumer::read_block`); they differ only in how far
//! a block must have progressed and in what an unreadable block counts as.
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
use crate::consumer::{close_open_window, BlockRead, RingSnapshot, Until};
use crate::sync::Arc;
use std::collections::BTreeSet;

/// Cumulative accounting across every poll of one [`StreamShard`].
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
/// [`BTrace::stream`](crate::BTrace::stream) returns the `stride == 1`
/// shard, which owns the whole sequence space;
/// [`BTrace::stream_sharded`](crate::BTrace::stream_sharded) returns the
/// `K` stripes, to be polled from one thread or moved one per thread.
///
/// Like every consumer, each poll reads speculatively: snapshot,
/// re-validate, discard on mismatch. The re-validation is also what makes
/// a block a concurrent shrink decommits mid-read harmless (§4.4).
pub struct StreamShard {
    shared: Arc<Shared>,
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
        Self {
            shared,
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

    /// Snapshots every **owned** block that closed since the previous poll
    /// into `out`, oldest block first, replacing its contents and reusing
    /// its buffer: the same §4.3 read as
    /// [`Consumer::snapshot`](crate::Consumer::snapshot), but only of
    /// closed blocks. `out` carries this poll's [`BlockCounts`](crate::BlockCounts) and
    /// [`missed_blocks`](RingSnapshot::missed_blocks).
    ///
    /// Non-destructive and non-blocking for producers. Events of a block
    /// that is still open (or has unconfirmed writes in flight) are *not*
    /// delivered yet — they arrive in the poll that first observes the
    /// block closed, so each event is delivered at most once.
    pub fn poll(&mut self, out: &mut RingSnapshot) {
        let Self { shared, cursor, delivered, stats, stride, .. } = self;
        let stride = *stride;
        let std::ops::Range { start: lo, end: head } = shared.readable_window();

        out.clear();
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
            // Delivered, torn and recycled blocks are resolved for good;
            // the rest wait for a later poll or for the cursor to lap them.
            let resolved = match out.take_block(shared, gpos, Until::Closed) {
                BlockRead::Readable => {
                    out.blocks.readable += 1;
                    true
                }
                // A block beyond the capacity bound is withheld, not lost:
                // a later grow can bring the slot back with its data, and
                // a one-shot snapshot would then read it.
                BlockRead::InFlight | BlockRead::Decommitted => {
                    out.blocks.in_flight += 1;
                    false
                }
                // No head distance proves the claim dead: its producer may
                // be preempted between claiming and locking the block while
                // other cores claim past it. Not counted until resolved.
                BlockRead::NotStarted => false,
                BlockRead::Recycled => {
                    out.blocks.recycled += 1;
                    true
                }
                BlockRead::Torn => {
                    out.blocks.torn += 1;
                    true
                }
            };
            // A block resolved in order moves the cursor at once; only one
            // resolved past an unresolved block waits in `delivered`.
            if resolved && gpos == *cursor {
                *cursor += stride;
            } else if resolved {
                delivered.insert(gpos);
            }
            gpos += stride;
        }
        // Advance the cursor over the resolved prefix of the stripe.
        while delivered.remove(cursor) {
            *cursor += stride;
        }

        stats.polls += 1;
        stats.blocks_delivered += out.blocks.readable as u64;
        stats.events_delivered += out.count() as u64;
        stats.bytes_delivered += out.stored_bytes() as u64;
        stats.missed_blocks += out.missed_blocks as u64;
    }

    /// Closes every open block in the readable window — each core's
    /// current block *and* any straggler block still inside the §3.2
    /// closing horizon, the same sweep as
    /// [`Consumer::snapshot_and_close`](crate::Consumer::snapshot_and_close)
    /// — then polls into `out`, delivering everything recorded so far **on
    /// this stripe**, including events that were sitting in open blocks.
    ///
    /// The straggler matters: a block a core has advanced away from stays
    /// open until the head passes it by `A` positions, and a final drain
    /// must not withhold its confirmed contents.
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
    pub fn flush_close(&mut self, out: &mut RingSnapshot) {
        close_open_window(&self.shared);
        self.poll(out);
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

#[cfg(test)]
mod tests {
    use super::StreamShard;
    use crate::consumer::tests::checked_events;
    use crate::{BTrace, Config, FullEvent, RingSnapshot};
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

    /// One poll of `s` (a flush with `close`) into a fresh snapshot.
    fn polled(s: &mut StreamShard, close: bool) -> RingSnapshot {
        let mut snap = RingSnapshot::new();
        if close {
            s.flush_close(&mut snap);
        } else {
            s.poll(&mut snap);
        }
        snap
    }

    /// The events of one poll of `s` (a flush with `close`), copied out.
    fn events(s: &mut StreamShard, close: bool) -> Vec<FullEvent> {
        polled(s, close).to_events()
    }

    /// Stamps of one poll of `s` (a flush with `close`), in visit order.
    fn stamps(s: &mut StreamShard, close: bool) -> Vec<u64> {
        events(s, close).iter().map(|e| e.stamp).collect()
    }

    #[test]
    fn open_block_is_withheld_until_closed() {
        let t = tracer(1);
        let p = t.producer(0).unwrap();
        let mut s = t.stream();
        p.record_with(0, 0, b"sits in an open block").unwrap();
        assert!(stamps(&mut s, false).is_empty(), "open blocks are not streamed");
        // Fill past the first block so it closes.
        for i in 1..40u64 {
            p.record_with(i, 0, b"a-sixteen-byte-p").unwrap();
        }
        let batch = stamps(&mut s, false);
        assert!(!batch.is_empty());
        assert_eq!(batch[0], 0, "closed block arrives whole, oldest first");
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
                seen.extend(stamps(&mut s, false));
            }
        }
        seen.extend(stamps(&mut s, true));
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
        let mut flushed = stamps(&mut s, true);
        flushed.sort_unstable();
        let expected: Vec<u64> = (0..10).chain(100..110).collect();
        assert_eq!(flushed, expected);
        assert_eq!(polled(&mut s, false).count(), 0, "nothing is delivered twice");
    }

    #[test]
    fn lapped_stream_reports_misses_and_recovers() {
        let t = tracer(1); // 16 blocks x 256 B
        let p = t.producer(0).unwrap();
        let mut s = t.stream();
        for i in 0..2_000u64 {
            p.record_with(i, 0, b"wrap-the-buffer!").unwrap();
        }
        let batch = polled(&mut s, false);
        assert!(batch.missed_blocks() > 0, "a lapped stream must report misses");
        let order: Vec<u64> = batch.to_events().iter().map(|e| e.stamp).collect();
        for w in order.windows(2) {
            assert!(w[1] > w[0], "stream must stay ordered");
        }
        // The stream keeps going after the lap.
        for i in 2_000..2_040u64 {
            p.record_with(i, 0, b"wrap-the-buffer!").unwrap();
        }
        assert_eq!(*stamps(&mut s, true).last().unwrap(), 2_039);
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
        let batch = events(&mut s, false);
        assert!(batch.iter().any(|e| e.core == 1), "closed blocks stream past an older open one");
        assert!(batch.iter().all(|e| e.core == 1), "the open block is withheld");
        // Flush closes core 0's straggler block too.
        assert!(stamps(&mut s, true).contains(&0));
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
                seen.extend(stamps(&mut s, false));
            }
        }
        seen.extend(stamps(&mut s, true));
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
                    single_seen.extend(stamps(&mut single, false));
                    for (s, seen) in sharded.iter_mut().zip(&mut shard_seen) {
                        seen.extend(stamps(s, false));
                    }
                }
            }
            single_seen.extend(stamps(&mut single, true));
            for (s, seen) in sharded.iter_mut().zip(&mut shard_seen) {
                seen.extend(stamps(s, true));
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
        let shards = t.stream_sharded(k);
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
        // Blocks a poll reports missed, recycled or torn, and its stamps.
        let lost_and_stamps = |batch: &RingSnapshot| {
            let lost = batch.missed_blocks() + batch.blocks().recycled + batch.blocks().torn;
            (lost, batch.to_events().into_iter().map(|e| e.stamp))
        };
        let drains: Vec<_> = shards
            .into_iter()
            .map(|mut shard| {
                std::thread::spawn(move || {
                    let (mut seen, mut lost_blocks, mut batch) =
                        (Vec::new(), 0, RingSnapshot::new());
                    for _ in 0..20 {
                        shard.poll(&mut batch);
                        let (lost, stamps) = lost_and_stamps(&batch);
                        lost_blocks += lost;
                        seen.extend(stamps);
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
            let (last_lost, stamps) = lost_and_stamps(&polled(&mut shard, true));
            lost_blocks += lost + last_lost;
            seen.extend(stamps);
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
        let single_missed = polled(&mut single, false).missed_blocks();
        let sharded_missed: usize =
            sharded.iter_mut().map(|s| polled(s, false).missed_blocks()).sum();
        assert!(single_missed > 0);
        assert_eq!(
            sharded_missed, single_missed,
            "stripe misses must partition the single-consumer misses"
        );
    }

    #[test]
    fn reused_snapshot_holds_only_each_polls_new_blocks() {
        let t = tracer(2);
        let p = [t.producer(0).unwrap(), t.producer(1).unwrap()];
        // Two cursors over the same ring, polled at the same instants: one
        // into a reused snapshot, one into a fresh snapshot each time.
        let (mut reused, mut fresh) = (t.stream(), t.stream());
        let mut snapshot = RingSnapshot::new();
        let mut union = Vec::new();
        let mut polls_with_events = 0;
        for i in 0..400u64 {
            p[(i % 3 == 0) as usize].record_with(i, 0, b"a-sixteen-byte-p").unwrap();
            if i % 29 != 0 && i != 399 {
                continue;
            }
            let flush = i == 399;
            if flush {
                reused.flush_close(&mut snapshot);
            } else {
                reused.poll(&mut snapshot);
            }
            let once = polled(&mut fresh, flush);
            let got: Vec<u64> = checked_events(&snapshot).iter().map(|e| e.stamp).collect();
            let once_stamps: Vec<u64> = checked_events(&once).iter().map(|e| e.stamp).collect();
            assert_eq!(got, once_stamps, "poll at {i}: the snapshot holds this poll only");
            assert_eq!(snapshot.stored_bytes(), once.stored_bytes());
            assert_eq!(snapshot.blocks(), once.blocks());
            assert_eq!(snapshot.missed_blocks(), once.missed_blocks());
            assert!(
                got.iter().all(|s| !union.contains(s)),
                "poll at {i} repeats a stamp of an earlier poll"
            );
            polls_with_events += usize::from(!got.is_empty());
            union.extend(got);
        }
        assert!(polls_with_events > 3, "the snapshot was reused across several polls");
        union.sort_unstable();
        assert_eq!(union, (0..400).collect::<Vec<u64>>(), "the flush delivers the open tail");
        assert_eq!(reused.stats(), fresh.stats());
    }

    #[test]
    fn stats_accumulate() {
        let t = tracer(1);
        let p = t.producer(0).unwrap();
        let mut s = t.stream();
        for i in 0..100u64 {
            p.record_with(i, 0, b"a-sixteen-byte-p").unwrap();
        }
        let batch = polled(&mut s, true);
        let events = checked_events(&batch);
        let stats = s.stats();
        assert_eq!(stats.polls, 1);
        assert_eq!(stats.events_delivered, events.len() as u64);
        assert_eq!(stats.blocks_delivered, batch.blocks().readable as u64);
        assert_eq!(stats.bytes_delivered, batch.stored_bytes() as u64);
    }
}
