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
//! (`BTRACE_DIFF_SEED=<seed> cargo test --test differential`).

use btrace::baselines::Bbq;
use btrace::core::sink::{FullEvent, TraceSink};
use btrace::core::{BTrace, Backing, Config, RingSnapshot, TraceError};
use btrace::vmem::FaultPlan;
use std::collections::BTreeSet;

const CORES: usize = 4;
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

/// Fallback base seed when `BTRACE_DIFF_SEED` is not set.
const DEFAULT_BASE_SEED: u64 = 0xD1FF_0CE4_2EA1;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

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
    let mut rng = seed;
    let n_ops = 1_500 + (splitmix(&mut rng) % 1_500);

    let tracer = btrace();
    let bbq = Bbq::new(TOTAL, BLOCK);
    let (mut stream, mut snap) = (tracer.stream(), RingSnapshot::new());

    let mut streamed: Vec<u64> = Vec::new();
    let mut per_core_recorded: Vec<Vec<u64>> = vec![Vec::new(); CORES];
    let mut next_poll = 1 + splitmix(&mut rng) % 24;

    for stamp in 0..n_ops {
        let core = (splitmix(&mut rng) as usize) % CORES;
        let len = 8 + (splitmix(&mut rng) as usize) % (MAX_PAYLOAD - 7);
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
            next_poll = 1 + splitmix(&mut rng) % 24;
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
    const S_ACTIVE: usize = 8;
    const STRIDE: usize = BLOCK * S_ACTIVE;

    let mut rng = seed;
    let n_ops = 1_000 + (splitmix(&mut rng) % 1_000);

    let plan = FaultPlan::new(seed ^ 0x57AB_1E5E_ED00)
        .commit_failure_rate(0.25)
        .partial_commit_rate(0.15)
        .decommit_failure_rate(0.2)
        .delayed_decommit_rate(0.1)
        .arm_after_ops(1);
    let tracer = BTrace::new(
        Config::new(CORES)
            .active_blocks(S_ACTIVE)
            .block_bytes(BLOCK)
            .buffer_bytes(4 * STRIDE)
            .max_bytes(16 * STRIDE)
            .backing(Backing::Heap)
            .fault_plan(plan),
    )
    .expect("valid configuration");

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
    let mut next_poll = 1 + splitmix(&mut rng) % 24;
    let mut resized = false;

    for stamp in 0..n_ops {
        let core = (splitmix(&mut rng) as usize) % CORES;
        let len = 8 + (splitmix(&mut rng) as usize) % (MAX_PAYLOAD - 7);
        let payload = payload_for(stamp, len);
        producers[core].record_with(stamp, core as u32, &payload).unwrap();

        if splitmix(&mut rng).is_multiple_of(97) {
            // A pending coalesced run pins its block exactly like an open
            // grant, and a resize waits for unconfirmed producers to
            // drain — on this single thread it would wait forever. Flush
            // before resizing, the same discipline as not holding an open
            // grant across a geometry change.
            for p in &producers {
                p.flush_confirms();
            }
            let ratio = 2 + (splitmix(&mut rng) as usize) % 7;
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
            next_poll = 1 + splitmix(&mut rng) % 24;
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

/// Runs `count` sharded seeds derived from `base`. `shards == 0` means
/// alternate K between 2 and 4 by seed parity.
fn run_batch_sharded(base: u64, count: u64, shards: usize) {
    let mut failures = Vec::new();
    for i in 0..count {
        let seed = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let k = if shards == 0 {
            if seed % 2 == 0 {
                2
            } else {
                4
            }
        } else {
            shards
        };
        if let Err(payload) = std::panic::catch_unwind(|| run_differential_sharded(seed, k)) {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            eprintln!(
                "sharded differential FAILED: seed {seed} k={k} \
                 (replay: BTRACE_DIFF_SEED={seed} cargo test --test differential sharded): {msg}"
            );
            failures.push(seed);
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {count} sharded seeds failed: {failures:?} (base {base})",
        failures.len()
    );
}

#[test]
fn sharded_fixed_seeds_agree() {
    // The pinned batch at both required stripe counts, so regressions
    // reproduce without environment setup.
    run_batch_sharded(DEFAULT_BASE_SEED, 8, 2);
    run_batch_sharded(DEFAULT_BASE_SEED, 8, 4);
}

#[test]
fn sharded_seed_batch_agrees() {
    // 200 fresh seeds in release (CI exports a random BTRACE_DIFF_SEED),
    // alternating K in {2, 4} by seed parity; fewer in debug.
    let count = if cfg!(debug_assertions) { 24 } else { 200 };
    let base = base_seed();
    eprintln!(
        "sharded differential batch: {count} seeds from base {base} (BTRACE_DIFF_SEED={base})"
    );
    run_batch_sharded(base, count, 0);
}

fn base_seed() -> u64 {
    std::env::var("BTRACE_DIFF_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(DEFAULT_BASE_SEED)
}

/// Runs `count` seeds derived from `base`, printing every seed so a
/// failure replays with `BTRACE_DIFF_SEED=<base>`.
fn run_batch(base: u64, count: u64) {
    let mut failures = Vec::new();
    for i in 0..count {
        let seed = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if let Err(payload) = std::panic::catch_unwind(|| run_differential(seed)) {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            eprintln!("differential FAILED: seed {seed} (replay: BTRACE_DIFF_SEED={seed}): {msg}");
            failures.push(seed);
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {count} seeds failed: {failures:?} (base {base})",
        failures.len()
    );
}

#[test]
fn fixed_seeds_agree() {
    // A pinned batch that always runs, so regressions reproduce without
    // any environment setup.
    run_batch(DEFAULT_BASE_SEED, 8);
}

#[test]
fn seed_batch_agrees() {
    // 200 fresh seeds in release (CI exports a random BTRACE_DIFF_SEED);
    // fewer in debug where each run is ~10x slower.
    let count = if cfg!(debug_assertions) { 25 } else { 200 };
    let base = base_seed();
    eprintln!("differential batch: {count} seeds from base {base} (BTRACE_DIFF_SEED={base})");
    run_batch(base, count);
}

#[test]
fn single_seed_replays() {
    // The replay entry point: BTRACE_DIFF_SEED=<seed> selects the exact
    // workload; default exercises one representative seed.
    run_differential(base_seed());
}
