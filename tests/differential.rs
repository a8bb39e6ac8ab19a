//! Differential conformance suite: the same seeded workload is recorded
//! three ways — through the incremental **stream** consumer, through the
//! one-shot **collect** drain (`TraceSink::visit`), and into the **BBQ**
//! global-queue oracle —
//! and the surviving-event sets must agree up to each discipline's
//! *documented* discard budget:
//!
//! * **Streaming** that keeps up (the polling cadence here guarantees the
//!   cursor is never lapped) loses *nothing*: the delivered set must be
//!   exactly `0..n`, each stamp exactly once.
//! * **Collect** sees only what is still resident at the end, so its set
//!   is a subset of the streamed set, and per core it must be a
//!   contiguous suffix of that core's recorded sequence (blocks are
//!   recycled oldest-first; interior gaps would be corruption).
//! * **BBQ** with the same geometry retains a contiguous suffix of the
//!   global sequence.
//! * All three agree exactly on the **safe window** — the newest
//!   `SAFE_WINDOW` stamps, sized so conservatively that neither
//!   discipline can have recycled them — including payload bytes.
//!
//! Every failing seed is printed with a replay line
//! (`BTRACE_SEED=differential:<seed> cargo test --test differential <test>`;
//! see `tests/common`).

use btrace::baselines::Bbq;
use btrace::core::sink::{FullEvent, TraceSink};
use btrace::core::{BTrace, Config, RingSnapshot, TraceError};
use btrace::vmem::SplitMix64;
use common::{cases, run_batch, run_seeds, stormed_tracer, Base, CORES, STRIDE};
use std::collections::BTreeSet;

mod common;

const BLOCK: usize = 256;
const N_BLOCKS: usize = 64;
const ACTIVE: usize = 8;
const TOTAL: usize = BLOCK * N_BLOCKS;

/// Largest payload the workload generates.
const MAX_PAYLOAD: usize = 40;
/// Fewest events a closed block can carry at the worst payload size
/// (240 usable bytes, 56-byte worst-case entries).
const MIN_EVENTS_PER_BLOCK: u64 = ((BLOCK - 16) / (16 + MAX_PAYLOAD)) as u64;
/// The newest stamps every discipline must retain. Sized far inside both
/// retention guarantees: these stamps span well under `N - A - cores`
/// blocks of bytes, so neither BTrace's recycling nor BBQ's overwrite can
/// have reached them.
const SAFE_WINDOW: u64 = 100;

/// Base seed when `BTRACE_SEED` does not name this suite.
const DEFAULT_BASE_SEED: u64 = 0xD1FF_0CE4_2EA1;

/// The stripe counts the sharded run takes: an even seed runs at K = 2,
/// an odd seed at K = 4.
const SHARDS: [usize; 2] = [2, 4];

fn payload_for(stamp: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| (stamp as u8).wrapping_add(i as u8)).collect()
}

fn btrace() -> BTrace {
    BTrace::new(Config::new(CORES).active_blocks(ACTIVE).block_bytes(BLOCK).buffer_bytes(TOTAL))
        .expect("valid configuration")
}

/// Asserts `got` is a gap-free suffix of the sequence `recorded` (both
/// ascending). Returns the suffix start index.
/// Every event `sink` visits, payloads copied out.
fn visited(sink: &impl TraceSink) -> Vec<FullEvent> {
    let mut out = Vec::new();
    sink.visit(&mut |e| out.push(e.to_owned()));
    out
}

fn assert_contiguous_suffix(recorded: &[u64], got: &BTreeSet<u64>, what: &str, seed: u64) {
    if got.is_empty() {
        return;
    }
    let first = *got.iter().next().expect("non-empty");
    let start = recorded
        .iter()
        .position(|&s| s == first)
        .unwrap_or_else(|| panic!("seed {seed}: {what} retained unrecorded stamp {first}"));
    let expect: BTreeSet<u64> = recorded[start..].iter().copied().collect();
    assert_eq!(
        got, &expect,
        "seed {seed}: {what} survivors must be a contiguous suffix of the recorded sequence"
    );
}

/// One differential run. Panics (with the seed) on any disagreement.
fn run_differential(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let n_ops = 1_500 + (rng.next_u64() % 1_500);

    let tracer = btrace();
    let bbq = Bbq::new(TOTAL, BLOCK);
    let (mut stream, mut snap) = (tracer.stream(), RingSnapshot::new());

    let mut streamed: Vec<u64> = Vec::new();
    let mut per_core_recorded: Vec<Vec<u64>> = vec![Vec::new(); CORES];
    let mut next_poll = 1 + rng.next_u64() % 24;

    for stamp in 0..n_ops {
        let core = (rng.next_u64() as usize) % CORES;
        let len = 8 + (rng.next_u64() as usize) % (MAX_PAYLOAD - 7);
        let payload = payload_for(stamp, len);
        use btrace::core::sink::RecordOutcome;
        assert_eq!(
            tracer.record(core, core as u32, stamp, &payload),
            RecordOutcome::Recorded,
            "seed {seed}: BTrace never drops"
        );
        assert_eq!(
            bbq.record(core, core as u32, stamp, &payload),
            RecordOutcome::Recorded,
            "seed {seed}: single-threaded BBQ never drops"
        );
        per_core_recorded[core].push(stamp);

        next_poll -= 1;
        if next_poll == 0 {
            // Polling at least every 32 records bounds the inter-poll burst
            // to ~8 blocks, far less than the 56-block reclaim horizon, so
            // the cursor is never lapped and `missed` stays zero.
            stream.poll(&mut snap);
            streamed.extend(snap.to_events().iter().map(|e| e.stamp));
            next_poll = 1 + rng.next_u64() % 24;
        }
    }

    // Final handoff: close every core's open block, then drain the rest.
    stream.flush_close(&mut snap);
    streamed.extend(snap.to_events().iter().map(|e| e.stamp));
    assert_eq!(
        stream.stats().missed_blocks,
        0,
        "seed {seed}: this cadence must never let the stream get lapped"
    );

    // Exactly-once, zero-loss streaming: every stamp, no duplicates.
    let total = streamed.len() as u64;
    let stream_set: BTreeSet<u64> = streamed.iter().copied().collect();
    assert_eq!(stream_set.len() as u64, total, "seed {seed}: a stamp was streamed twice");
    let expect_all: BTreeSet<u64> = (0..n_ops).collect();
    assert_eq!(
        stream_set, expect_all,
        "seed {seed}: an unlapped stream must deliver every confirmed record"
    );

    // One-shot collect after the stream closed everything: a subset of the
    // streamed set, contiguous per core.
    let collected = visited(&tracer);
    let collect_set: BTreeSet<u64> = collected.iter().map(|e| e.stamp).collect();
    assert_eq!(collect_set.len(), collected.len(), "seed {seed}: collect yielded a duplicate");
    assert!(
        collect_set.is_subset(&stream_set),
        "seed {seed}: collect found a stamp streaming never saw"
    );
    for (core, recorded) in per_core_recorded.iter().enumerate() {
        let survivors: BTreeSet<u64> =
            collected.iter().filter(|e| e.core as usize == core).map(|e| e.stamp).collect();
        assert_contiguous_suffix(recorded, &survivors, &format!("core {core} collect"), seed);
    }

    // BBQ oracle: a contiguous suffix of the global sequence.
    let bbq_events = visited(&bbq);
    let bbq_set: BTreeSet<u64> = bbq_events.iter().map(|e| e.stamp).collect();
    let all: Vec<u64> = (0..n_ops).collect();
    assert_contiguous_suffix(&all, &bbq_set, "BBQ", seed);

    // Safe window: the newest stamps are inside every discipline's
    // retention guarantee, so all three must agree there — bytes included.
    let safe_from = n_ops - SAFE_WINDOW.min(n_ops);
    for stamp in safe_from..n_ops {
        assert!(
            collect_set.contains(&stamp),
            "seed {seed}: collect lost safe-window stamp {stamp} (window starts {safe_from})"
        );
        assert!(
            bbq_set.contains(&stamp),
            "seed {seed}: BBQ lost safe-window stamp {stamp} (window starts {safe_from})"
        );
    }
    for e in collected.iter().filter(|e| e.stamp >= safe_from) {
        assert_eq!(
            e.payload,
            payload_for(e.stamp, e.payload.len()),
            "seed {seed}: collect corrupted payload of stamp {}",
            e.stamp
        );
    }
    for e in bbq_events.iter().filter(|e| e.stamp >= safe_from) {
        assert_eq!(
            e.payload,
            payload_for(e.stamp, e.payload.len()),
            "seed {seed}: BBQ corrupted payload of stamp {}",
            e.stamp
        );
    }

    // Cross-check the block budget arithmetic the suite's constants rely
    // on: the safe window spans far fewer blocks than either queue holds.
    let worst_blocks = SAFE_WINDOW / MIN_EVENTS_PER_BLOCK + CORES as u64;
    assert!(
        worst_blocks < (N_BLOCKS - ACTIVE - CORES) as u64,
        "suite constants out of balance: widen the buffer or shrink SAFE_WINDOW"
    );
}

/// Sharded differential run: the same fault-stormed workload is observed
/// by a single-consumer stream **and** a K-way sharded consumer on the
/// *same* tracer, polled back to back at every cadence point. Polling
/// never mutates the ring, so adjacent polls observe identical state and
/// the union of per-shard deliveries must equal the single-consumer set
/// *exactly* — each stamp on exactly one stripe — whatever the fault
/// storm and mid-run resizes did to the geometry underneath. Odd cores
/// coalesce their confirms, so deferred-visibility runs cross the stripe
/// logic too.
fn run_differential_sharded(seed: u64, shards: usize) {
    let mut rng = SplitMix64::new(seed);
    let n_ops = 1_000 + (rng.next_u64() % 1_000);
    let tracer = stormed_tracer(seed ^ 0x57AB_1E5E_ED00, [0.25, 0.15, 0.2, 0.1]);

    let (mut single, mut snap) = (tracer.stream(), RingSnapshot::new());
    let mut sharded = tracer.stream_sharded(shards);
    let producers: Vec<_> = (0..CORES).map(|c| tracer.producer(c).unwrap()).collect();
    for (core, p) in producers.iter().enumerate() {
        if core % 2 == 1 {
            p.set_confirm_coalescing(true);
        }
    }

    let mut single_got: Vec<u64> = Vec::new();
    let mut shard_got: Vec<Vec<u64>> = vec![Vec::new(); shards];
    let mut next_poll = 1 + rng.next_u64() % 24;
    let mut resized = false;

    for stamp in 0..n_ops {
        let core = (rng.next_u64() as usize) % CORES;
        let len = 8 + (rng.next_u64() as usize) % (MAX_PAYLOAD - 7);
        let payload = payload_for(stamp, len);
        producers[core].record_with(stamp, core as u32, &payload).unwrap();

        if rng.next_u64().is_multiple_of(97) {
            // A pending coalesced run pins its block exactly like an open
            // grant, and a resize waits for unconfirmed producers to
            // drain — on this single thread it would wait forever. Flush
            // before resizing, the same discipline as not holding an open
            // grant across a geometry change.
            for p in &producers {
                p.flush_confirms();
            }
            let ratio = 2 + (rng.next_u64() as usize) % 7;
            match tracer.resize_bytes(ratio * STRIDE) {
                // A grow rejected by injected backing faults falls back to
                // the old geometry — sanctioned degradation.
                Ok(()) | Err(TraceError::Region(_)) => resized = true,
                Err(other) => panic!("seed {seed}: unexpected resize error {other:?}"),
            }
        }

        next_poll -= 1;
        if next_poll == 0 {
            single.poll(&mut snap);
            single_got.extend(snap.to_events().iter().map(|e| e.stamp));
            for (i, shard) in sharded.iter_mut().enumerate() {
                shard.poll(&mut snap);
                let b = snap.to_events();
                for e in &b {
                    assert_eq!(
                        e.payload,
                        payload_for(e.stamp, e.payload.len()),
                        "seed {seed}: shard {i} delivered a torn payload at stamp {}",
                        e.stamp
                    );
                }
                shard_got[i].extend(b.iter().map(|e| e.stamp));
            }
            next_poll = 1 + rng.next_u64() % 24;
        }
    }

    // Settle the coalesced runs (Drop flushes), then close the window from
    // both sides — single first. The close CAS is idempotent, so the order
    // must not change either consumer's final set.
    drop(producers);
    single.flush_close(&mut snap);
    single_got.extend(snap.to_events().iter().map(|e| e.stamp));
    for (i, shard) in sharded.iter_mut().enumerate() {
        shard.flush_close(&mut snap);
        shard_got[i].extend(snap.to_events().iter().map(|e| e.stamp));
    }

    // Per-shard at-most-once, then pairwise stripe disjointness: summed
    // per-stripe cardinality must equal the union's.
    let mut union: BTreeSet<u64> = BTreeSet::new();
    let mut delivered_total = 0usize;
    for (i, got) in shard_got.iter().enumerate() {
        let set: BTreeSet<u64> = got.iter().copied().collect();
        assert_eq!(set.len(), got.len(), "seed {seed}: shard {i} delivered a stamp twice");
        delivered_total += set.len();
        union.extend(set);
    }
    assert_eq!(
        union.len(),
        delivered_total,
        "seed {seed}: two stripes delivered the same stamp (stripe overlap, k={shards})"
    );

    // The tentpole equality: union across stripes == single-consumer set.
    let single_set: BTreeSet<u64> = single_got.iter().copied().collect();
    assert_eq!(
        single_set.len(),
        single_got.len(),
        "seed {seed}: the single consumer duplicated a stamp"
    );
    assert_eq!(
        union, single_set,
        "seed {seed}: sharded union diverged from the single-consumer stream set (k={shards})"
    );

    // Stripes partition the lap accounting too: summed per-shard misses
    // must equal what the lone cursor charged itself.
    assert_eq!(
        sharded.iter().map(|s| s.stats().missed_blocks).sum::<u64>(),
        single.stats().missed_blocks,
        "seed {seed}: stripes must partition missed blocks, not invent or lose them"
    );

    // Nothing invented; and with no resize and no laps, nothing lost.
    assert!(union.iter().all(|&s| s < n_ops), "seed {seed}: delivered an unrecorded stamp");
    if !resized && single.stats().missed_blocks == 0 {
        let expect_all: BTreeSet<u64> = (0..n_ops).collect();
        assert_eq!(
            union, expect_all,
            "seed {seed}: an un-lapped, un-resized sharded stream lost a record"
        );
    }
}

#[test]
fn sharded_fixed_seeds_agree() {
    // The pinned batch at both required stripe counts, so regressions
    // reproduce without environment setup.
    for k in SHARDS {
        let cases = cases(Base::pinned(DEFAULT_BASE_SEED), 8, &[k], |_, _| k);
        run_batch("sharded_seed_batch_agrees", &cases, run_differential_sharded);
    }
}

#[test]
fn sharded_seed_batch_agrees() {
    // 200 fresh seeds in release (CI exports a random BTRACE_SEED),
    // alternating K in {2, 4} by seed parity; fewer in debug.
    let count = if cfg!(debug_assertions) { 24 } else { 200 };
    let pair = |_, seed: u64| SHARDS[(seed % 2) as usize];
    let cases = cases(Base::from_env(DEFAULT_BASE_SEED), count, &SHARDS, pair);
    run_batch("sharded_seed_batch_agrees", &cases, run_differential_sharded);
}

#[test]
fn fixed_seeds_agree() {
    // A pinned batch that always runs, so regressions reproduce without
    // any environment setup.
    run_seeds("single_seed_replays", Base::pinned(DEFAULT_BASE_SEED), 8, run_differential);
}

#[test]
fn seed_batch_agrees() {
    // 200 fresh seeds in release (CI exports a random BTRACE_SEED);
    // fewer in debug where each run is ~10x slower.
    let count = if cfg!(debug_assertions) { 25 } else { 200 };
    run_seeds("single_seed_replays", Base::from_env(DEFAULT_BASE_SEED), count, run_differential);
}

#[test]
fn single_seed_replays() {
    // The replay entry point: BTRACE_SEED=differential:<seed> selects the
    // exact workload; default exercises one representative seed.
    run_seeds("single_seed_replays", Base::from_env(DEFAULT_BASE_SEED), 1, run_differential);
}
