//! Incremental (tailing) consumption: read only what is new since the last
//! poll — the access pattern of an asynchronous collector daemon that
//! drains the buffer continuously instead of snapshotting it (§2.1).
//!
//! A [`TailReader`] remembers the global block sequence it has consumed up
//! to, plus a byte watermark inside each still-open block, so repeated
//! polls return every event exactly once (unless the buffer wrapped over
//! unread blocks, which is reported as `missed`).

use crate::buffer::Shared;
use crate::event::{EntryHeader, EntryKind, Event, HEADER_BYTES};
use crate::sync::{Arc, Ordering};
use std::collections::HashMap;

/// One incremental poll's result.
#[derive(Debug, Default)]
#[non_exhaustive]
pub struct Polled {
    /// Events not returned by any previous poll, in buffer order.
    pub events: Vec<Event>,
    /// Blocks that were overwritten before this reader reached them. A
    /// tailing daemon that cannot keep up loses oldest-first, exactly like
    /// the underlying buffer.
    pub missed_blocks: usize,
}

/// Marker in the progress map: the block is fully resolved (consumed or
/// permanently unavailable) and must never be re-read.
const RESOLVED: usize = usize::MAX;

/// A stateful incremental reader. Create via
/// [`BTrace::tail`](crate::BTrace::tail).
pub struct TailReader {
    shared: Arc<Shared>,
    participant: btrace_smr::Participant,
    scratch: Vec<u8>,
    /// First block sequence not yet resolved.
    next_gpos: u64,
    /// Per-block progress beyond the frontier: parsed byte offset, or
    /// [`RESOLVED`].
    open: HashMap<u64, usize>,
}

impl TailReader {
    pub(crate) fn new(shared: Arc<Shared>) -> Self {
        let participant = shared.domain.register();
        Self { shared, participant, scratch: Vec::new(), next_gpos: 0, open: HashMap::new() }
    }

    /// Returns every event recorded since the previous poll.
    ///
    /// Non-destructive and non-blocking for producers, like
    /// [`Consumer::collect`](crate::Consumer::collect); unlike it, each
    /// event is returned exactly once across polls.
    pub fn poll(&mut self) -> Polled {
        let shared = Arc::clone(&self.shared);
        let Self { participant, scratch, next_gpos, open, .. } = self;
        let _pin = participant.pin();
        let head = shared.global_pos().pos;
        let active = shared.active() as u64;
        let span = shared.data.region().len() / shared.cfg.block_bytes;
        let lo = head.saturating_sub(span as u64);

        let mut out = Polled::default();
        if *next_gpos < lo {
            out.missed_blocks = (lo - *next_gpos) as usize;
            *next_gpos = lo;
            // Blocks at or beyond the new frontier keep their progress (and
            // especially their RESOLVED markers — re-reading them would
            // duplicate events); only lapped bookkeeping is dropped.
            open.retain(|&gpos, _| gpos >= lo);
        }

        for gpos in *next_gpos..head {
            if open.get(&gpos) == Some(&RESOLVED) {
                continue;
            }
            match read_incremental(&shared, scratch, open, gpos, &mut out) {
                BlockState::Consumed => {
                    open.insert(gpos, RESOLVED);
                }
                BlockState::Open | BlockState::Pending => {
                    // Producer still owns it (appending, or an unconfirmed
                    // write is in flight): revisit next poll.
                }
                BlockState::Unavailable => {
                    // Never started for this sequence number. Within the
                    // active window a concurrent advancement might still be
                    // installing it, so only resolve once it has fallen
                    // behind the closing horizon.
                    if gpos + active <= head {
                        open.insert(gpos, RESOLVED);
                    }
                }
            }
        }
        // Advance the frontier over the resolved prefix.
        while open.get(next_gpos) == Some(&RESOLVED) {
            open.remove(next_gpos);
            *next_gpos += 1;
        }
        out
    }

    /// Total blocks this reader has fully consumed or skipped.
    pub fn position(&self) -> u64 {
        self.next_gpos
    }
}

fn read_incremental(
    shared: &Shared,
    scratch: &mut Vec<u8>,
    open_map: &mut HashMap<u64, usize>,
    gpos: u64,
    out: &mut Polled,
) -> BlockState {
    let cap = shared.cap() as usize;
    let map = shared.history.map(gpos);
    // Acquire: pairs with the shrinker's release store (see `read_block`).
    if map.data_idx >= shared.capacity_blocks.load(Ordering::Acquire) {
        return BlockState::Unavailable;
    }
    let meta = &shared.metas[map.meta_idx];
    let conf = meta.confirmed();
    let (watermark, open) = if conf.rnd < map.rnd {
        return BlockState::Unavailable;
    } else if conf.rnd == map.rnd {
        let alloc = meta.allocated();
        let visible = alloc.pos.min(shared.cap());
        if alloc.rnd != map.rnd || conf.pos != visible {
            // Unconfirmed writes in flight: whatever prefix we already
            // parsed stays valid; wait for the confirmations.
            return BlockState::Pending;
        }
        (visible as usize, (visible as usize) < cap)
    } else {
        (cap, false)
    };
    if watermark < HEADER_BYTES {
        return if open { BlockState::Open } else { BlockState::Unavailable };
    }

    let from = *open_map.get(&gpos).unwrap_or(&HEADER_BYTES);
    if from >= watermark {
        return if open { BlockState::Open } else { BlockState::Consumed };
    }

    // Speculative snapshot of [0, watermark), then validate via header.
    let base = shared.data.block_offset(map.data_idx);
    shared.data.load_bytes(base, scratch, watermark);
    let header_ok = scratch.len() >= HEADER_BYTES
        && EntryHeader::decode([
            u64::from_le_bytes(scratch[0..8].try_into().expect("8 bytes")),
            u64::from_le_bytes(scratch[8..16].try_into().expect("8 bytes")),
        ])
        .is_some_and(|h| h.kind == EntryKind::BlockHeader && h.stamp == gpos);
    if !header_ok {
        // `Unavailable` is a permanent skip. Before taking it, rule out a
        // mapping computed between a resize's global CAS and its history
        // push (wrong data block): defer to the next poll, which re-maps.
        if !shared.history_published() || shared.history.map(gpos) != map {
            return BlockState::Pending;
        }
        return BlockState::Unavailable;
    }
    let mut live = [0u64; 2];
    shared.data.load_words(base, &mut live);
    let still_ours = EntryHeader::decode(live)
        .is_some_and(|h| h.kind == EntryKind::BlockHeader && h.stamp == gpos);
    if !still_ours {
        return BlockState::Unavailable;
    }

    let parsed_to = crate::consumer::push_events(scratch, from, gpos, &mut out.events);
    if open {
        open_map.insert(gpos, parsed_to);
        BlockState::Open
    } else {
        BlockState::Consumed
    }
}

enum BlockState {
    /// Fully read; never revisit.
    Consumed,
    /// The producer may still append; revisit next poll.
    Open,
    /// An unconfirmed write is in flight; revisit next poll.
    Pending,
    /// Skipped, recycled, or never started for this sequence number.
    Unavailable,
}

impl std::fmt::Debug for TailReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TailReader")
            .field("next_gpos", &self.next_gpos)
            .field("open_blocks", &self.open.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::{BTrace, Config};
    use btrace_vmem::Backing;

    fn tracer() -> BTrace {
        BTrace::new(
            Config::new(1)
                .active_blocks(4)
                .block_bytes(256)
                .buffer_bytes(256 * 16)
                .backing(Backing::Heap),
        )
        .expect("valid configuration")
    }

    #[test]
    fn polls_return_each_event_once() {
        let t = tracer();
        let p = t.producer(0).unwrap();
        let mut tail = t.tail();
        p.record_with(0, 0, b"one").unwrap();
        p.record_with(1, 0, b"two").unwrap();
        let first = tail.poll();
        assert_eq!(first.events.len(), 2);
        assert_eq!(tail.poll().events.len(), 0, "no new events");
        p.record_with(2, 0, b"three").unwrap();
        let third = tail.poll();
        assert_eq!(third.events.len(), 1);
        assert_eq!(third.events[0].stamp(), 2);
    }

    #[test]
    fn streams_across_block_boundaries() {
        let t = tracer();
        let p = t.producer(0).unwrap();
        let mut tail = t.tail();
        let mut seen = Vec::new();
        for i in 0..120u64 {
            p.record_with(i, 0, b"a-sixteen-byte-p").unwrap();
            if i % 7 == 0 {
                seen.extend(tail.poll().events.into_iter().map(|e| e.stamp()));
            }
        }
        seen.extend(tail.poll().events.into_iter().map(|e| e.stamp()));
        // Every event exactly once, in order.
        assert_eq!(seen, (0..120).collect::<Vec<_>>());
    }

    #[test]
    fn slow_reader_misses_oldest_only() {
        let t = tracer(); // 16 blocks x 256B
        let p = t.producer(0).unwrap();
        let mut tail = t.tail();
        for i in 0..2_000u64 {
            p.record_with(i, 0, b"wrap-the-buffer!").unwrap();
        }
        let polled = tail.poll();
        assert!(polled.missed_blocks > 0, "a lapped reader must report misses");
        let stamps: Vec<u64> = polled.events.iter().map(|e| e.stamp()).collect();
        assert_eq!(*stamps.last().unwrap(), 1999, "newest must be delivered");
        for w in stamps.windows(2) {
            assert!(w[1] > w[0], "stream must stay ordered");
        }
    }

    #[test]
    fn open_grant_defers_only_that_block() {
        let t = tracer();
        let p = t.producer(0).unwrap();
        let mut tail = t.tail();
        p.record_with(0, 0, b"before").unwrap();
        let grant = p.begin(4).unwrap();
        let polled = tail.poll();
        assert!(polled.events.is_empty(), "block with open grant is not yet readable");
        grant.commit(1, 0, b"held").unwrap();
        let polled = tail.poll();
        let stamps: Vec<u64> = polled.events.iter().map(|e| e.stamp()).collect();
        assert_eq!(stamps, vec![0, 1]);
    }

    #[test]
    fn concurrent_producer_and_tail() {
        let t = tracer();
        let p = t.producer(0).unwrap();
        let writer = std::thread::spawn(move || {
            for i in 0..5_000u64 {
                p.record_with(i, 0, b"streamed-entry!!").unwrap();
            }
        });
        let mut tail = t.tail();
        let mut collected: Vec<u64> = Vec::new();
        let mut missed = 0usize;
        while !writer.is_finished() {
            let polled = tail.poll();
            collected.extend(polled.events.iter().map(|e| e.stamp()));
            missed += polled.missed_blocks;
        }
        writer.join().unwrap();
        let polled = tail.poll();
        collected.extend(polled.events.iter().map(|e| e.stamp()));
        missed += polled.missed_blocks;
        // Exactly once, in order; misses only explain what's absent.
        for w in collected.windows(2) {
            assert!(w[1] > w[0], "duplicate or reordered: {} then {}", w[0], w[1]);
        }
        assert_eq!(*collected.last().unwrap(), 4_999);
        let _ = missed;
    }
}
