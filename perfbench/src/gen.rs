//! Seeded input generation.
//!
//! The seed stays in this module: the system under test only ever sees the
//! stamps, cores, thread ids and payload bytes derived from it.

use btrace_atrace::{Category, TraceEvent, MAX_ENCODED};
use btrace_core::sink::FullEvent;
use btrace_persist::{encode_frame_with, FrameEncoding};
use std::io::{self, Write};

/// SplitMix64: tiny, fast, and good enough to shape benchmark inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One pre-encoded atrace payload and the thread that emits it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Payload {
    pub bytes: Vec<u8>,
    pub tid: u32,
    pub sched: bool,
}

/// A pool of `len` atrace payloads in a sched-switch / wakeup / irq / binder
/// mix (35 / 25 / 25 / 15 %).
pub fn payload_pool(seed: u64, len: usize) -> Vec<Payload> {
    let mut rng = SplitMix64::new(seed ^ 0x706f_6f6c);
    let mut buf = [0u8; MAX_ENCODED];
    (0..len)
        .map(|_| {
            let tid = 1000 + rng.below(64) as u32;
            let roll = rng.below(100);
            let event = if roll < 35 {
                TraceEvent::SchedSwitch {
                    prev: tid,
                    next: 1000 + rng.below(64) as u32,
                    prio: rng.below(140) as u8,
                }
            } else if roll < 60 {
                TraceEvent::SchedWakeup {
                    tid: 1000 + rng.below(64) as u32,
                    cpu: rng.below(8) as u8,
                }
            } else if roll < 85 {
                TraceEvent::Irq { irq: rng.below(256) as u16, enter: rng.below(2) == 0 }
            } else {
                TraceEvent::BinderTxn {
                    from: tid,
                    to: 1000 + rng.below(64) as u32,
                    code: rng.below(1 << 16) as u32,
                }
            };
            let n = event.encode(&mut buf);
            Payload { bytes: buf[..n].to_vec(), tid, sched: event.category() == Category::SCHED }
        })
        .collect()
}

/// One scheduled event of the `dump_on_symptom` recorder: which core records
/// it and which pool payload it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    pub core: u8,
    pub payload: u16,
}

/// A repeating schedule indexed by stamp (`stamp % len`), with cores drawn
/// in proportion to `weights`. Because the stamp selects the slot, a reader
/// can check every dumped event against it.
pub fn schedule(seed: u64, len: usize, weights: &[u32], pool_len: usize) -> Vec<Slot> {
    let mut rng = SplitMix64::new(seed ^ 0x0073_6368_6564);
    let total: u64 = weights.iter().map(|&w| w as u64).sum();
    (0..len)
        .map(|_| {
            let mut pick = rng.below(total);
            let core = weights
                .iter()
                .position(|&w| {
                    let hit = pick < w as u64;
                    pick = pick.saturating_sub(w as u64);
                    hit
                })
                .expect("pick is below the weight total");
            Slot { core: core as u8, payload: rng.below(pool_len as u64) as u16 }
        })
        .collect()
}

/// Events per frame of the `store_query` corpus.
pub const EVENTS_PER_FRAME: usize = 1024;
/// Cores of the corpus: core 0 is hot (half the events), cores 1..=8 share
/// the rest evenly.
pub const CORPUS_CORES: usize = 9;
/// Seeded windows per query kind; rotation `i` uses window `i % WINDOWS`.
pub const WINDOWS: usize = 8;

/// Event and per-core counts of one predicate, tallied at generation time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    pub events: u64,
    pub per_core: [u64; CORPUS_CORES],
}

impl Tally {
    fn add(&mut self, core: usize) {
        self.events += 1;
        self.per_core[core] += 1;
    }
}

/// A stamp window `[since, until]` with what it must match.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Window {
    pub since: u64,
    pub until: u64,
    pub tally: Tally,
}

/// The oracle of a written corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corpus {
    pub bytes: u64,
    pub total: Tally,
    /// 10 % slices, all events.
    pub slices: Vec<Window>,
    /// 25 % slices, SCHED events only.
    pub sched_windows: Vec<Window>,
    /// Non-hot cores for the core query.
    pub cores: Vec<u16>,
}

/// Index range `[start, start + len)` of a window, in event order.
fn window_range(rng: &mut SplitMix64, events: u64, share: f64) -> (u64, u64) {
    let len = (events as f64 * share) as u64;
    let start = rng.below(events - len + 1);
    (start, start + len)
}

/// Writes an `events`-long atrace-shaped corpus as compressed BTSF frames
/// to `out`, one frame at a time (the corpus is never held in memory), and
/// returns the tallies the queries are checked against.
pub fn write_corpus(seed: u64, events: u64, out: &mut impl Write) -> io::Result<Corpus> {
    let pool = payload_pool(seed, 1024);
    let mut rng = SplitMix64::new(seed ^ 0x636f_7270);
    let slice_ranges: Vec<_> = (0..WINDOWS).map(|_| window_range(&mut rng, events, 0.10)).collect();
    let sched_ranges: Vec<_> = (0..WINDOWS).map(|_| window_range(&mut rng, events, 0.25)).collect();
    let cores = (0..WINDOWS).map(|_| 1 + rng.below(CORPUS_CORES as u64 - 1) as u16).collect();
    let mut slices = vec![Window::default(); WINDOWS];
    let mut sched_windows = vec![Window::default(); WINDOWS];
    let mut total = Tally::default();
    let mut bytes = 0u64;
    let mut frame: Vec<FullEvent> = Vec::with_capacity(EVENTS_PER_FRAME);
    let mut seq = 0u64;
    let mut stamp = 0u64;
    for i in 0..events {
        stamp += 1 + rng.below(3);
        let core = if rng.below(2) == 0 { 0 } else { 1 + rng.below(CORPUS_CORES as u64 - 1) };
        let p = &pool[rng.below(pool.len() as u64) as usize];
        let core = core as usize;
        total.add(core);
        for (w, &(lo, hi)) in slices.iter_mut().zip(&slice_ranges) {
            mark(w, i, lo, hi, stamp, core, true);
        }
        for (w, &(lo, hi)) in sched_windows.iter_mut().zip(&sched_ranges) {
            mark(w, i, lo, hi, stamp, core, p.sched);
        }
        frame.push(FullEvent { stamp, core: core as u16, tid: p.tid, payload: p.bytes.clone() });
        if frame.len() == EVENTS_PER_FRAME || i + 1 == events {
            let encoded = encode_frame_with(seq, &frame, FrameEncoding::Compressed);
            out.write_all(&encoded)?;
            bytes += encoded.len() as u64;
            seq += 1;
            frame.clear();
        }
    }
    Ok(Corpus { bytes, total, slices, sched_windows, cores })
}

/// Folds event `i` into window `w` spanning event indices `[lo, hi)`.
fn mark(w: &mut Window, i: u64, lo: u64, hi: u64, stamp: u64, core: usize, counts: bool) {
    if i == lo {
        w.since = stamp;
    }
    if (lo..hi).contains(&i) {
        w.until = stamp;
        if counts {
            w.tally.add(core);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus_bytes(seed: u64) -> (Vec<u8>, Corpus) {
        let mut out = Vec::new();
        let corpus = write_corpus(seed, 5000, &mut out).unwrap();
        (out, corpus)
    }

    fn dump_sequence(seed: u64) -> Vec<(u64, u8, Vec<u8>)> {
        let pool = payload_pool(seed, 64);
        let slots = schedule(seed, 4096, &[5, 3, 1], pool.len());
        (0..4096u64)
            .map(|stamp| {
                let slot = slots[stamp as usize % slots.len()];
                (stamp, slot.core, pool[slot.payload as usize].bytes.clone())
            })
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let (a, oracle_a) = corpus_bytes(7);
        let (b, oracle_b) = corpus_bytes(7);
        let (c, _) = corpus_bytes(8);
        assert_eq!(a, b, "corpus must be byte-identical for one seed");
        assert_eq!(oracle_a, oracle_b);
        assert_ne!(a, c, "another seed must change the corpus");
        assert_eq!(dump_sequence(7), dump_sequence(7));
        assert_ne!(dump_sequence(7), dump_sequence(8));
    }

    #[test]
    fn corpus_tallies_are_consistent() {
        let (bytes, corpus) = corpus_bytes(3);
        assert_eq!(corpus.bytes, bytes.len() as u64);
        assert_eq!(corpus.total.events, 5000);
        assert_eq!(corpus.total.per_core.iter().sum::<u64>(), 5000);
        for w in &corpus.slices {
            assert_eq!(w.tally.events, 500);
            assert!(w.since <= w.until);
        }
        assert!(corpus.sched_windows.iter().all(|w| w.tally.events < 1250));
        assert!(corpus.cores.iter().all(|&c| (1..CORPUS_CORES as u16).contains(&c)));
    }

    #[test]
    fn schedule_follows_weights() {
        let slots = schedule(1, 30_000, &[2, 1, 0], 8);
        let on = |c| slots.iter().filter(|s| s.core == c).count();
        assert_eq!(on(2), 0);
        assert!(on(0) > on(1) * 3 / 2, "core 0 has twice core 1's weight");
    }
}
