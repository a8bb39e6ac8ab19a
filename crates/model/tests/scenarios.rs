//! Model-checked scenarios for the btrace-core lock-free protocol.
//!
//! Every test explores hundreds of seeded interleavings (random-walk and
//! PCT-style priority schedules) of a small tracer configuration and runs
//! the invariant checkers after each execution. A failing schedule prints
//! its seed; replay it with `BTRACE_MODEL_SEED=<seed>`.
//!
//! Scenario coverage maps to the paper's mechanisms:
//!
//! * closing (§3.2)            — `closing_bounds_staleness`
//! * implicit reclaiming (§3.3) — `implicit_reclaiming_wraparound`
//! * skipping (§3.4)           — `skipping_never_blocks`
//! * advancement (§4.2)        — all scenarios (step budget = bounded
//!   termination)
//! * speculative consumer (§4.3) — `speculative_consumer_race`
//! * resizing (§4.4)           — `resize_under_traffic`
//! * ABA hazard (Rnd wraparound past a pinned grant) — `aba_round_wraparound`
//! * cached block descriptor gone stale across a wrap-around —
//!   `descriptor_preemption`
//! * lagging close across a grow's publication —
//!   `lagging_close_lands_in_its_own_block_across_a_grow`
//! * a shrink's decommit between a reader's checks and its copy —
//!   `reader_copy_across_a_shrink_decommit`

use btrace_core::{introspect, model_rt, BTrace, Backing, Config, EventView, RingSnapshot};
use btrace_model::check::{
    check_conservation, check_counter_coherence, check_effectivity_with_slack, check_pin,
    MonotonicObserver,
};
use btrace_model::{explore, fingerprint, ModelConfig, Report, Sim};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Exactly-fitting payload: 8 payload bytes encode to 24 bytes, and a
/// 256-byte block (16-byte block header + 240 usable) holds exactly 10
/// entries — so sequential recording never leaves a partial tail.
const PAYLOAD: &[u8; 8] = b"8bytes!!";

/// One read (a consumer snapshot or a stream poll) into a fresh snapshot.
fn read(into: impl FnOnce(&mut RingSnapshot)) -> RingSnapshot {
    let mut snap = RingSnapshot::new();
    into(&mut snap);
    snap
}

fn assert_coverage(report: Report) {
    if report.replay {
        return; // a single-seed replay has nothing to say about coverage
    }
    assert!(
        report.distinct >= 500,
        "acceptance: need >= 500 distinct interleavings, got {} over {} schedules",
        report.distinct,
        report.schedules
    );
}

/// §3.2 block closing: two cores interleave freely; closing keeps lagging
/// blocks bounded and loses nothing. The configuration cannot wrap (events
/// live in data blocks a full ratio-cycle away from any reachable
/// candidate), so conservation is exact: every recorded stamp drains.
#[test]
fn closing_bounds_staleness() {
    let report = explore("closing_bounds_staleness", ModelConfig::default(), |sim| {
        let t = BTrace::new(
            Config::new(2)
                .active_blocks(4)
                .block_bytes(256)
                .buffer_bytes(256 * 4 * 4) // ratio 4, N = 16
                .backing(Backing::Heap),
        )
        .unwrap();
        let mut produced = BTreeSet::new();
        for core in 0..2u64 {
            for i in 0..15u64 {
                produced.insert(core * 1000 + i);
            }
            let p = t.producer(core as usize).unwrap();
            sim.thread(move || {
                for i in 0..15u64 {
                    p.record_with(core * 1000 + i, core as u32, PAYLOAD).unwrap();
                }
            });
        }
        sim.finally(move || {
            let readout = read(|o| t.consumer().snapshot(o));
            check_conservation(&readout, &produced, true);
            check_counter_coherence(&t);
            check_effectivity_with_slack(&t, t.active_blocks() as u32);
        });
    });
    assert_coverage(report);
}

/// §3.4 block skipping: a producer parked mid-write (open grant) pins its
/// block; a sibling thread on the same core floods past it. Advancement
/// must skip the pinned block (never block, never recycle it), and the
/// grant's late commit must still surface in the drain.
#[test]
fn skipping_never_blocks() {
    const FLOOD: u64 = 100; // 10 blocks on an N = 8 buffer: wraps past the pin
    const HELD_STAMP: u64 = 9_999;
    let report = explore("skipping_never_blocks", ModelConfig::default(), |sim| {
        let t = BTrace::new(
            Config::new(1)
                .active_blocks(4)
                .block_bytes(256)
                .buffer_bytes(256 * 4 * 2) // ratio 2, N = 8
                .max_bytes(256 * 4 * 8) // reserve: keeps the pinned block in scan range
                .backing(Backing::Heap),
        )
        .unwrap();
        let p = t.producer(0).unwrap();
        let pinned = Arc::new(AtomicBool::new(false));
        let flood_done = Arc::new(AtomicBool::new(false));

        let holder = {
            let t = t.clone();
            let p = p.clone();
            let pinned = Arc::clone(&pinned);
            let flood_done = Arc::clone(&flood_done);
            move || {
                let grant = p.begin(PAYLOAD.len()).unwrap();
                let (meta_idx, rnd, _) = introspect::mapping(&t, grant.gpos());
                pinned.store(true, Ordering::SeqCst);
                while !flood_done.load(Ordering::SeqCst) {
                    check_pin(&t, meta_idx, rnd);
                    model_rt::yield_spin();
                }
                check_pin(&t, meta_idx, rnd);
                grant.commit(HELD_STAMP, 0, PAYLOAD).unwrap();
            }
        };
        let flooder = {
            let pinned = Arc::clone(&pinned);
            let flood_done = Arc::clone(&flood_done);
            move || {
                // The scenario is about flooding *past a live pin* — wait for
                // the grant, or a schedule that runs this thread first would
                // flood an unpinned buffer and prove nothing.
                while !pinned.load(Ordering::SeqCst) {
                    model_rt::yield_spin();
                }
                for i in 0..FLOOD {
                    p.record_with(i, 1, PAYLOAD).unwrap();
                }
                flood_done.store(true, Ordering::SeqCst);
            }
        };
        sim.thread(holder);
        sim.thread(flooder);

        sim.finally(move || {
            let produced: BTreeSet<u64> = (0..FLOOD).chain([HELD_STAMP]).collect();
            let readout = read(|o| t.consumer().snapshot(o));
            check_conservation(&readout, &produced, false);
            assert!(
                readout.to_events().iter().any(|e| e.stamp == HELD_STAMP),
                "the late-committed grant's event was lost (block recycled under the pin?)"
            );
            assert!(
                t.stats().skips >= 1,
                "flooding past a pinned block must skip it at least once"
            );
            check_counter_coherence(&t);
            check_effectivity_with_slack(&t, t.active_blocks() as u32);
        });
    });
    assert_coverage(report);
}

/// §3.3 implicit reclaiming: a tiny buffer (N = 4) wraps several times
/// under three writer threads (two sharing core 0 — the straggler-repair
/// and advance-contention paths) while an observer thread snapshots the
/// metadata counters at every interleaving, asserting they never regress
/// (the counters double as reference counts; a lost update here is a
/// reclaimed block with a live writer).
#[test]
fn implicit_reclaiming_wraparound() {
    let report = explore("implicit_reclaiming_wraparound", ModelConfig::default(), |sim| {
        let t = BTrace::new(
            Config::new(2)
                .active_blocks(2)
                .block_bytes(256)
                .buffer_bytes(256 * 2 * 2) // ratio 2, N = 4
                .backing(Backing::Heap),
        )
        .unwrap();
        let writers_left = Arc::new(std::sync::atomic::AtomicUsize::new(3));
        let mut produced = BTreeSet::new();
        for (writer, core) in [(0u64, 0usize), (1, 0), (2, 1)] {
            for i in 0..20u64 {
                produced.insert(writer * 1000 + i);
            }
            let p = t.producer(core).unwrap();
            let writers_left = Arc::clone(&writers_left);
            sim.thread(move || {
                for i in 0..20u64 {
                    p.record_with(writer * 1000 + i, writer as u32, PAYLOAD).unwrap();
                }
                writers_left.fetch_sub(1, Ordering::SeqCst);
            });
        }
        {
            let t = t.clone();
            sim.thread(move || {
                let mut observer = MonotonicObserver::new();
                while writers_left.load(Ordering::SeqCst) > 0 {
                    observer.observe(&t);
                    model_rt::yield_spin();
                }
                observer.observe(&t);
            });
        }
        sim.finally(move || {
            let readout = read(|o| t.consumer().snapshot(o));
            check_conservation(&readout, &produced, false);
            check_counter_coherence(&t);
        });
    });
    assert_coverage(report);
}

/// §4.4 resizing under traffic: grow then shrink while two cores record.
/// Recording never fails, the drain stays coherent, and capacity lands on
/// the final target.
#[test]
fn resize_under_traffic() {
    let report = explore("resize_under_traffic", ModelConfig::default(), |sim| {
        let stride = 256 * 2; // block_bytes * active_blocks
        let t = BTrace::new(
            Config::new(2)
                .active_blocks(2)
                .block_bytes(256)
                .buffer_bytes(stride * 2) // ratio 2, N = 4
                .max_bytes(stride * 8) // up to ratio 8
                .backing(Backing::Heap),
        )
        .unwrap();
        let mut produced = BTreeSet::new();
        for core in 0..2u64 {
            for i in 0..15u64 {
                produced.insert(core * 1000 + i);
            }
            let p = t.producer(core as usize).unwrap();
            sim.thread(move || {
                for i in 0..15u64 {
                    p.record_with(core * 1000 + i, core as u32, PAYLOAD).unwrap();
                }
            });
        }
        {
            let t = t.clone();
            sim.thread(move || {
                t.resize_bytes(stride * 4).unwrap(); // grow to N = 8
                t.resize_bytes(stride).unwrap(); // shrink to N = 2
            });
        }
        sim.finally(move || {
            assert_eq!(t.capacity_blocks(), 2, "capacity must land on the final target");
            assert_eq!(t.stats().resizes, 2);
            let readout = read(|o| t.consumer().snapshot(o));
            check_conservation(&readout, &produced, false);
            check_counter_coherence(&t);
        });
    });
    assert_coverage(report);
}

/// §4.3 speculative consumer: a modeled reader races a producer across more
/// than two full buffer rounds. Payloads mirror their stamps, so a torn
/// read (parsing bytes of two different rounds as one entry) or a
/// duplicated event is detectable inside every poll.
#[test]
fn speculative_consumer_race() {
    const TOTAL: u64 = 180; // 18 blocks on an N = 8 buffer: > 2 full rounds
    let report = explore("speculative_consumer_race", ModelConfig::default(), |sim| {
        let t = BTrace::new(
            Config::new(1)
                .active_blocks(4)
                .block_bytes(256)
                .buffer_bytes(256 * 4 * 2) // ratio 2, N = 8
                .max_bytes(256 * 4 * 8)
                .backing(Backing::Heap),
        )
        .unwrap();
        let p = t.producer(0).unwrap();
        let writer_done = Arc::new(AtomicBool::new(false));

        {
            let writer_done = Arc::clone(&writer_done);
            sim.thread(move || {
                for i in 0..TOTAL {
                    p.record_with(i, 0, &i.to_le_bytes()).unwrap();
                }
                writer_done.store(true, Ordering::SeqCst);
            });
        }
        {
            let t = t.clone();
            sim.thread(move || {
                let mut consumer = t.consumer();
                loop {
                    let done_before = writer_done.load(Ordering::SeqCst);
                    let mut seen = BTreeSet::new();
                    for e in &read(|o| consumer.snapshot(o)).to_events() {
                        assert!(e.stamp < TOTAL, "invented stamp {}", e.stamp);
                        assert_eq!(
                            e.payload,
                            e.stamp.to_le_bytes(),
                            "torn event: stamp {} with mismatched payload",
                            e.stamp
                        );
                        assert!(seen.insert(e.stamp), "stamp {} duplicated in one poll", e.stamp);
                    }
                    if done_before {
                        return;
                    }
                    model_rt::yield_spin();
                }
            });
        }
        sim.finally(move || {
            let produced: BTreeSet<u64> = (0..TOTAL).collect();
            let readout = read(|o| t.consumer().snapshot(o));
            check_conservation(&readout, &produced, false);
            assert!(
                readout.to_events().iter().any(|e| e.stamp == TOTAL - 1),
                "the newest event must always be retained"
            );
            check_counter_coherence(&t);
        });
    });
    assert_coverage(report);
}

/// ABA hazard probe (satellite): pin a producer mid-write, then push enough
/// traffic that — were the pin ever ignored — the metadata block's `Rnd`
/// counter would wrap through more than a full `Ratio` round and recycle
/// the pinned data block. `check_pin` fires at every interleaving point if
/// the round ever advances past the open grant; the final drain proves the
/// late commit survived the wraparound pressure intact.
#[test]
fn aba_round_wraparound() {
    const FLOOD: u64 = 160; // 16 blocks: 4 full ratio rounds on N = 4
    const HELD_STAMP: u64 = 77_777;
    let report = explore("aba_round_wraparound", ModelConfig::default(), |sim| {
        let t = BTrace::new(
            Config::new(1)
                .active_blocks(2)
                .block_bytes(256)
                .buffer_bytes(256 * 2 * 2) // ratio 2, N = 4
                .max_bytes(256 * 2 * 16) // reserve: pinned block stays in scan range
                .backing(Backing::Heap),
        )
        .unwrap();
        let p = t.producer(0).unwrap();
        let pinned = Arc::new(AtomicBool::new(false));
        let flood_done = Arc::new(AtomicBool::new(false));

        {
            let t = t.clone();
            let p = p.clone();
            let pinned = Arc::clone(&pinned);
            let flood_done = Arc::clone(&flood_done);
            sim.thread(move || {
                let grant = p.begin(PAYLOAD.len()).unwrap();
                let (meta_idx, rnd, _) = introspect::mapping(&t, grant.gpos());
                pinned.store(true, Ordering::SeqCst);
                while !flood_done.load(Ordering::SeqCst) {
                    // The whole point: across a full Rnd wraparound's worth
                    // of traffic, the pinned round must never move.
                    check_pin(&t, meta_idx, rnd);
                    model_rt::yield_spin();
                }
                check_pin(&t, meta_idx, rnd);
                grant.commit(HELD_STAMP, 0, PAYLOAD).unwrap();
            });
        }
        {
            let pinned = Arc::clone(&pinned);
            let flood_done = Arc::clone(&flood_done);
            sim.thread(move || {
                while !pinned.load(Ordering::SeqCst) {
                    model_rt::yield_spin();
                }
                for i in 0..FLOOD {
                    p.record_with(i, 1, PAYLOAD).unwrap();
                }
                flood_done.store(true, Ordering::SeqCst);
            });
        }
        sim.finally(move || {
            let produced: BTreeSet<u64> = (0..FLOOD).chain([HELD_STAMP]).collect();
            let readout = read(|o| t.consumer().snapshot(o));
            check_conservation(&readout, &produced, false);
            let held: Vec<_> =
                readout.to_events().into_iter().filter(|e| e.stamp == HELD_STAMP).collect();
            assert_eq!(held.len(), 1, "the pinned grant's event must survive exactly once");
            assert_eq!(held[0].payload, PAYLOAD);
            assert!(t.stats().skips >= 1, "the pinned block must have been skipped");
            check_counter_coherence(&t);
        });
    });
    assert_coverage(report);
}

/// Cached-descriptor hazard: each `Producer` handle caches its block's
/// `(gpos, rnd, meta, data)` descriptor and allocates against it without
/// reloading the core-local word. Here a producer primes its cache, is
/// "preempted" while a sibling handle on the same core floods the buffer
/// through several full wrap-arounds (recycling the cached block into newer
/// rounds), then resumes recording through the stale cache. The refresh path
/// must detect the staleness via the round check, repair its own inflation
/// of the newer round (or the round's pin leaks and wedges the block), and
/// land every resumed event intact.
#[test]
fn descriptor_preemption() {
    const FLOOD: u64 = 160; // 16 blocks: 4 full ratio rounds on N = 4
    const RESUMED: u64 = 5;
    let report = explore("descriptor_preemption", ModelConfig::default(), |sim| {
        let t = BTrace::new(
            Config::new(1)
                .active_blocks(2)
                .block_bytes(256)
                .buffer_bytes(256 * 2 * 2) // ratio 2, N = 4
                .backing(Backing::Heap),
        )
        .unwrap();
        let p = t.producer(0).unwrap();
        let primed = Arc::new(AtomicBool::new(false));
        let flood_done = Arc::new(AtomicBool::new(false));

        {
            // The preempted producer: `p` moves in, so its cached descriptor
            // is primed by the first record and untouched by the flood.
            let primed = Arc::clone(&primed);
            let flood_done = Arc::clone(&flood_done);
            sim.thread(move || {
                p.record_with(500, 0, PAYLOAD).unwrap();
                primed.store(true, Ordering::SeqCst);
                while !flood_done.load(Ordering::SeqCst) {
                    model_rt::yield_spin(); // parked mid-trace, cache rotting
                }
                for i in 0..RESUMED {
                    p.record_with(600 + i, 0, PAYLOAD).unwrap();
                }
            });
        }
        {
            // A sibling handle on the same core floods the buffer through
            // full wrap-around behind the parked producer's back.
            let p = t.producer(0).unwrap();
            let primed = Arc::clone(&primed);
            let flood_done = Arc::clone(&flood_done);
            sim.thread(move || {
                while !primed.load(Ordering::SeqCst) {
                    model_rt::yield_spin();
                }
                for i in 0..FLOOD {
                    p.record_with(i, 1, PAYLOAD).unwrap();
                }
                flood_done.store(true, Ordering::SeqCst);
            });
        }
        sim.finally(move || {
            let produced: BTreeSet<u64> =
                (0..FLOOD).chain([500]).chain((0..RESUMED).map(|i| 600 + i)).collect();
            let readout = read(|o| t.consumer().snapshot(o));
            check_conservation(&readout, &produced, false);
            for e in &readout.to_events() {
                assert_eq!(e.payload, PAYLOAD, "torn event: stamp {}", e.stamp);
            }
            // The resumed producer allocated against a recycled round: the
            // round check must have degraded its cache to Stale and repaired
            // the misplaced inflation.
            assert!(
                t.stats().straggler_repairs >= 1,
                "stale cached descriptor must be detected and repaired"
            );
            // The resumed events are the newest written; they must survive.
            let newest = 600 + RESUMED - 1;
            assert!(
                readout.to_events().iter().any(|e| e.stamp == newest),
                "newest resumed event {newest} lost"
            );
            check_counter_coherence(&t);
        });
    });
    assert_coverage(report);
}

/// Confirm coalescing: a producer batches its confirms — one `Release`
/// RMW per block run instead of one per record — while a two-stripe
/// sharded drain polls concurrently and the buffer grows mid-stream. A
/// deferred run must behave exactly like an open grant: no record is
/// visible before its covering confirm (a premature read would surface as
/// a torn payload or an invented stamp inside a poll), and once the
/// producer drops — `Drop` is the flush point for the final, mid-block
/// run — every record surfaces exactly once across the stripes.
#[test]
fn confirm_coalescing() {
    const N: u64 = 25; // 2.5 blocks: the last run is still pending at drop
    let report = explore("confirm_coalescing", ModelConfig::default(), |sim| {
        let stride = 256 * 2;
        let t = BTrace::new(
            Config::new(1)
                .active_blocks(2)
                .block_bytes(256)
                .buffer_bytes(stride * 2) // ratio 2, N = 4: 25 records never wrap
                .max_bytes(stride * 8)
                .backing(Backing::Heap),
        )
        .unwrap();
        let produced_done = Arc::new(AtomicBool::new(false));
        let resize_done = Arc::new(AtomicBool::new(false));
        let streamed = Arc::new(Mutex::new(BTreeSet::new()));

        {
            let p = t.producer(0).unwrap();
            p.set_confirm_coalescing(true);
            let produced_done = Arc::clone(&produced_done);
            sim.thread(move || {
                for i in 0..N {
                    p.record_with(i, 0, PAYLOAD).unwrap();
                }
                // 25 records end mid-block: dropping the handle is the
                // pending run's flush point.
                drop(p);
                produced_done.store(true, Ordering::SeqCst);
            });
        }
        {
            let t = t.clone();
            let produced_done = Arc::clone(&produced_done);
            let resize_done = Arc::clone(&resize_done);
            let streamed = Arc::clone(&streamed);
            sim.thread(move || {
                let mut sharded = t.stream_sharded(2);
                let mut seen = BTreeSet::new();
                // Poll until full quiescence: the shutdown flush — like a
                // real pipeline's — runs only after producers AND the
                // resize have settled; then delivery must be total.
                loop {
                    let quiescent =
                        produced_done.load(Ordering::SeqCst) && resize_done.load(Ordering::SeqCst);
                    for batch in sharded.iter_mut().map(|s| read(|o| s.poll(o)).to_events()) {
                        for e in &batch {
                            assert!(e.stamp < N, "invented stamp {}", e.stamp);
                            assert_eq!(
                                e.payload, PAYLOAD,
                                "record visible before its covering confirm: stamp {} torn",
                                e.stamp
                            );
                            assert!(seen.insert(e.stamp), "stamp {} delivered twice", e.stamp);
                        }
                    }
                    if quiescent {
                        break;
                    }
                    model_rt::yield_spin();
                }
                for tail in sharded.iter_mut().map(|s| read(|o| s.flush_close(o)).to_events()) {
                    for e in &tail {
                        assert_eq!(e.payload, PAYLOAD, "torn tail event: stamp {}", e.stamp);
                        assert!(seen.insert(e.stamp), "stamp {} delivered twice", e.stamp);
                    }
                }
                *streamed.lock().unwrap() = seen;
            });
        }
        {
            let t = t.clone();
            let resize_done = Arc::clone(&resize_done);
            sim.thread(move || {
                t.resize_bytes(stride * 4).unwrap(); // grow to N = 8 mid-run
                resize_done.store(true, Ordering::SeqCst);
            });
        }
        sim.finally(move || {
            // The workload cannot wrap (3 of at least 4 blocks touched), so
            // delivery must be total: exactly once for all N stamps.
            let produced: BTreeSet<u64> = (0..N).collect();
            let got = streamed.lock().unwrap().clone();
            assert_eq!(got, produced, "coalesced records must all surface exactly once");
            assert_eq!(t.stats().resizes, 1);
            check_counter_coherence(&t);
        });
    });
    assert_coverage(report);
}

/// Determinism contract: the same seed reproduces the identical
/// interleaving (fingerprint of every scheduling decision), across
/// separately constructed executions.
#[test]
fn same_seed_same_interleaving() {
    let scenario = |sim: &mut Sim| {
        let t = BTrace::new(
            Config::new(2)
                .active_blocks(2)
                .block_bytes(256)
                .buffer_bytes(256 * 2 * 2)
                .backing(Backing::Heap),
        )
        .unwrap();
        for core in 0..2 {
            let p = t.producer(core).unwrap();
            sim.thread(move || {
                for i in 0..10u64 {
                    p.record_with(i, core as u32, PAYLOAD).unwrap();
                }
            });
        }
    };
    for seed in [1u64, 0xDEAD_BEEF, u64::MAX - 7] {
        let a = fingerprint(scenario, seed, 400_000);
        let b = fingerprint(scenario, seed, 400_000);
        assert_eq!(a, b, "seed {seed:#x} diverged between runs");
    }
    let x = fingerprint(scenario, 2, 400_000);
    let y = fingerprint(scenario, 3, 400_000);
    assert_ne!(x, y, "different seeds should (virtually always) diverge");
}

/// Streaming hand-off under free interleaving: two cores record while a
/// stream consumer polls. A producer can claim a sequence number and be
/// preempted before it locks the block, while the other core claims the
/// next ones; the stream must not resolve the unclaimed-looking block
/// for good before its claimer has either locked or skipped it. The ring
/// cannot wrap, so once the final flush ran, delivery is exact.
#[test]
fn stream_waits_out_a_preempted_claim() {
    const N: u64 = 25;
    let report = explore("stream_waits_out_a_preempted_claim", ModelConfig::default(), |sim| {
        let t = BTrace::new(
            Config::new(2)
                .active_blocks(2)
                .block_bytes(256)
                .buffer_bytes(256 * 2 * 8) // ratio 8, N = 16: 50 records never wrap
                .backing(Backing::Heap),
        )
        .unwrap();
        let done = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let streamed = Arc::new(Mutex::new(BTreeSet::new()));
        for core in 0..2u64 {
            let p = t.producer(core as usize).unwrap();
            let done = Arc::clone(&done);
            sim.thread(move || {
                for i in 0..N {
                    p.record_with(core * 1000 + i, core as u32, PAYLOAD).unwrap();
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        {
            let t = t.clone();
            let done = Arc::clone(&done);
            let streamed = Arc::clone(&streamed);
            sim.thread(move || {
                let mut stream = t.stream();
                let mut seen = BTreeSet::new();
                loop {
                    let finished = done.load(Ordering::SeqCst) == 2;
                    for e in read(|o| stream.poll(o)).to_events() {
                        assert!(seen.insert(e.stamp), "stamp {} delivered twice", e.stamp);
                    }
                    if finished {
                        break;
                    }
                    model_rt::yield_spin();
                }
                for e in read(|o| stream.flush_close(o)).to_events() {
                    assert!(seen.insert(e.stamp), "stamp {} delivered twice", e.stamp);
                }
                *streamed.lock().unwrap() = seen;
            });
        }
        sim.finally(move || {
            let produced: BTreeSet<u64> =
                (0..2).flat_map(|c| (0..N).map(move |i| c * 1000 + i)).collect();
            let got = streamed.lock().unwrap().clone();
            let missing: Vec<_> = produced.difference(&got).collect();
            assert!(missing.is_empty(), "stream lost confirmed records {missing:?}");
            check_counter_coherence(&t);
        });
    });
    assert_coverage(report);
}

/// The lagging close writes through the geometry its block was claimed
/// under. A grow (ratio 2 → 4) lands while core 1 opens a block past its
/// boundary and stops mid-block; core 0 then writes two more blocks, and
/// its second advance closes core 1's block with a dummy fill. The grow
/// moves round 3 to a new slot, so a fill mapped through the pre-grow ratio
/// would land in core 0's first block instead and cut its record.
///
/// Every payload mirrors its stamp, and entry boundaries differ between
/// the blocks a misdirected fill could hit and the open block's fill
/// offset, so a cut record shows as a torn payload. Each core's first
/// block is written before the threads start, which keeps the run short
/// enough for a schedule to fit it between the grow's CAS and the rest of
/// the resize. That window is one scheduling step wide, so the scenario
/// explores 5 000 schedules (~2 s in release); the split publication
/// failed within 2 000, and the default 600 missed it.
#[test]
fn lagging_close_lands_in_its_own_block_across_a_grow() {
    // (stamp, payload bytes): core 0 writes one full-block entry per
    // block; core 1 fills its first block with two entries and opens the
    // next with a third that ends mid-block, inside both cores' first
    // blocks' last entries.
    const CORE0: [(u64, usize); 3] = [(0, 224), (1, 224), (2, 224)];
    const CORE1: [(u64, usize); 3] = [(1000, 72), (1001, 136), (1002, 104)];
    let payload = |stamp: u64, len: usize| stamp.to_le_bytes().repeat(len / 8);
    let name = "lagging_close_lands_in_its_own_block_across_a_grow";
    let cfg = ModelConfig { schedules: 5000, ..Default::default() };
    let report = explore(name, cfg, |sim| {
        let stride = 256 * 2;
        let t = BTrace::new(
            Config::new(2)
                .active_blocks(2)
                .block_bytes(256)
                .buffer_bytes(stride * 2) // ratio 2, N = 4
                .max_bytes(stride * 4)
                .backing(Backing::Heap),
        )
        .unwrap();
        for (core, first, rest) in [(0, &CORE0[..1], &CORE0[1..]), (1, &CORE1[..2], &CORE1[2..])] {
            let p = t.producer(core).unwrap();
            for &(stamp, len) in first {
                p.record_with(stamp, 0, &payload(stamp, len)).unwrap();
            }
            sim.thread(move || {
                for &(stamp, len) in rest {
                    p.record_with(stamp, 0, &payload(stamp, len)).unwrap();
                }
            });
        }
        {
            let t = t.clone();
            sim.thread(move || t.resize_bytes(stride * 4).unwrap()); // grow to N = 8
        }
        sim.finally(move || {
            let produced: BTreeSet<u64> = CORE0.iter().chain(&CORE1).map(|e| e.0).collect();
            let readout = read(|o| t.consumer().snapshot(o));
            check_conservation(&readout, &produced, false);
            for e in &readout.to_events() {
                let len = CORE0.iter().chain(&CORE1).find(|w| w.0 == e.stamp).unwrap().1;
                assert_eq!(e.payload, payload(e.stamp, len), "torn event: stamp {}", e.stamp);
            }
            assert_eq!(t.capacity_blocks(), 8);
            check_counter_coherence(&t);
        });
    });
    assert_coverage(report);
}

/// §4.4 shrink under a reader that registers nowhere: the shrink poisons
/// the slots beyond its bound as soon as its producers drain, then a grow
/// recommits them. Schedules park the reader at its copy's preemption
/// point, between its round checks and its copy, while either lands. It
/// must never return a record that was not recorded. Blocks are a page
/// each, and two of the three recorded up front sit in the doomed slots.
#[test]
fn reader_copy_across_a_shrink_decommit() {
    const PRE: u64 = 12; // three full blocks before the threads start
    const TOTAL: u64 = 20;
    let payload = |stamp: u64| stamp.to_le_bytes().repeat(125); // 4 entries a block
    let check = move |e: EventView<'_>| {
        assert!(e.stamp < TOTAL, "invented stamp {:#x}", e.stamp);
        assert_eq!(e.payload, payload(e.stamp), "torn event: stamp {}", e.stamp);
        Ok::<_, ()>(())
    };
    let cfg = ModelConfig { schedules: 1000, ..Default::default() };
    let report = explore("reader_copy_across_a_shrink_decommit", cfg, |sim| {
        let stride = 4096 * 2;
        let t = BTrace::new(
            Config::new(1)
                .active_blocks(2)
                .block_bytes(4096)
                .buffer_bytes(stride * 2) // ratio 2, N = 4
                .max_bytes(stride * 2)
                .backing(Backing::Heap),
        )
        .unwrap();
        let p = t.producer(0).unwrap();
        (0..PRE).for_each(|i| p.record_with(i, 0, &payload(i)).unwrap());
        sim.thread(move || (PRE..TOTAL).for_each(|i| p.record_with(i, 0, &payload(i)).unwrap()));
        let resizer = t.clone();
        sim.thread(move || {
            resizer.resize_bytes(stride).unwrap(); // N = 2: slots 2 and 3 poisoned
            model_rt::yield_spin(); // let a parked reader copy the poison
            resizer.resize_bytes(stride * 2).unwrap();
        });
        let reader = t.clone();
        sim.thread(move || {
            let (mut consumer, mut snap) = (reader.consumer(), RingSnapshot::new());
            for _ in 0..4 {
                consumer.snapshot(&mut snap);
                snap.try_for_each(check).unwrap();
            }
        });
        sim.finally(move || {
            let readout = read(|o| t.consumer().snapshot(o));
            check_conservation(&readout, &(0..TOTAL).collect(), false);
            readout.try_for_each(check).unwrap();
            check_counter_coherence(&t);
        });
    });
    assert_coverage(report);
}
