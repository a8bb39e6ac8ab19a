//! Property-based tests on the BTrace core invariants: arbitrary sequences
//! of records, two-phase grants, preemption interleavings, and resizes must
//! never panic, never corrupt an event, and never lose the newest data.

use btrace::core::sink::{FullEvent, TraceSink};
use btrace::core::{BTrace, Config, Grant, RingSnapshot};
use proptest::prelude::*;

const BLOCK: usize = 256;

fn tracer(cores: usize, active: usize, ratio: usize) -> BTrace {
    BTrace::new(
        Config::new(cores)
            .active_blocks(active)
            .block_bytes(BLOCK)
            .buffer_bytes(BLOCK * active * ratio)
            .max_bytes(BLOCK * active * ratio.max(4)),
    )
    .expect("valid configuration")
}

/// Every currently readable event of `t`, copied out of one snapshot.
fn readable(t: &BTrace) -> Vec<FullEvent> {
    let mut snap = RingSnapshot::new();
    t.consumer().snapshot(&mut snap);
    snap.to_events()
}

/// One step of the single-threaded operation machine.
#[derive(Debug, Clone)]
enum Op {
    Record { core: usize, len: usize },
    Begin { core: usize, len: usize },
    Commit { slot: usize },
    Abandon { slot: usize },
    Resize { ratio: usize },
    Collect,
}

fn op_strategy(cores: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..cores, 0usize..64).prop_map(|(core, len)| Op::Record { core, len }),
        2 => (0..cores, 0usize..64).prop_map(|(core, len)| Op::Begin { core, len }),
        2 => (0usize..4).prop_map(|slot| Op::Commit { slot }),
        1 => (0usize..4).prop_map(|slot| Op::Abandon { slot }),
        1 => (1usize..=4).prop_map(|ratio| Op::Resize { ratio }),
        1 => Just(Op::Collect),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full state machine: any interleaving of records, held grants,
    /// abandons, resizes, and collects preserves the core invariants.
    #[test]
    fn operation_sequences_preserve_invariants(
        ops in proptest::collection::vec(op_strategy(3), 1..200)
    ) {
        let cores = 3;
        // Active blocks must exceed the maximum number of concurrently held
        // grants, or every active block can end up pinned and the
        // advancement loop (correctly) finds no candidate: real preemption
        // is transient, but the state machine would hold grants forever.
        let t = tracer(cores, 4 * cores, 4);
        let mut stamp = 0u64;
        let mut written: Vec<(u64, usize)> = Vec::new();
        let mut held: Vec<Option<(Grant, u64, usize)>> = (0..4).map(|_| None).collect();

        for op in ops {
            match op {
                Op::Record { core, len } => {
                    let payload = vec![0xC3u8; len];
                    t.producer(core).unwrap().record_with(stamp, 1, &payload).unwrap();
                    written.push((stamp, len));
                    stamp += 1;
                }
                Op::Begin { core, len } => {
                    if let Some(slot) = held.iter_mut().find(|s| s.is_none()) {
                        let grant = t.producer(core).unwrap().begin(len).unwrap();
                        *slot = Some((grant, stamp, len));
                        stamp += 1; // stamps are assigned at reservation time
                    }
                }
                Op::Commit { slot } => {
                    let idx = slot % held.len();
                    if let Some((grant, s, len)) = held[idx].take() {
                        let payload = vec![0x5Au8; len];
                        grant.commit(s, 2, &payload).unwrap();
                        written.push((s, len));
                    }
                }
                Op::Abandon { slot } => {
                    // Dropping an uncommitted grant must be harmless.
                    let idx = slot % held.len();
                    held[idx].take();
                }
                Op::Resize { ratio } => {
                    // A shrink waits for open grants (the implicit reference
                    // count) with a multi-second deadline; the dedicated
                    // `shrink_waits_for_open_grants` test covers that path.
                    // Here, resize only from grant-free states so the state
                    // machine stays fast.
                    if held.iter().all(|h| h.is_none()) {
                        t.resize_bytes(BLOCK * t.active_blocks() * ratio).unwrap();
                    }
                }
                Op::Collect => {
                    t.consumer().snapshot(&mut RingSnapshot::new());
                }
            }
        }
        drop(held); // abandon the rest

        let readout = readable(&t);
        // 1. No invented events: every event returned was actually written,
        //    with its exact payload length.
        for e in &readout {
            prop_assert!(
                written.iter().any(|&(s, len)| s == e.stamp && len == e.payload.len()),
                "event {e:?} was never written"
            );
        }
        // 2. No duplicates.
        let mut stamps: Vec<u64> = readout.iter().map(|e| e.stamp).collect();
        stamps.sort_unstable();
        let before = stamps.len();
        stamps.dedup();
        prop_assert_eq!(before, stamps.len(), "duplicate stamps in readout");
    }

    /// Single-producer traffic without holds: the retained trace is always a
    /// contiguous *suffix* of what was written (nothing newer is ever lost,
    /// no interior gaps).
    #[test]
    fn retained_is_a_contiguous_suffix(
        lens in proptest::collection::vec(0usize..100, 1..400),
        active in 2usize..8,
        ratio in 1usize..5,
    ) {
        let t = tracer(1, active, ratio);
        for (i, &len) in lens.iter().enumerate() {
            let payload = vec![0xEEu8; len];
            t.producer(0).unwrap().record_with(i as u64, 0, &payload).unwrap();
        }
        let readout = readable(&t);
        prop_assert!(!readout.is_empty());
        let stamps: Vec<u64> = readout.iter().map(|e| e.stamp).collect();
        prop_assert_eq!(*stamps.last().unwrap() as usize, lens.len() - 1, "newest lost");
        for w in stamps.windows(2) {
            prop_assert_eq!(w[1], w[0] + 1, "interior gap");
        }
    }

    /// Payload bytes survive verbatim at every length and alignment.
    #[test]
    fn payload_roundtrip_is_exact(payload in proptest::collection::vec(any::<u8>(), 0..200)) {
        let t = tracer(1, 4, 4);
        t.producer(0).unwrap().record_with(7, 3, &payload).unwrap();
        let readout = readable(&t);
        prop_assert_eq!(readout.len(), 1);
        prop_assert_eq!(readout[0].payload, &payload[..]);
        prop_assert_eq!(readout[0].tid, 3);
    }

    /// Skip rate is monotone in preemption pressure (§3.4): the same flood
    /// against 0..=3 producers parked mid-write can only skip more blocks as
    /// more metadata blocks are pinned — and with nothing pinned it skips
    /// none at all.
    #[test]
    fn skip_rate_monotonic_under_preemption(ratio in 2usize..5, rounds in 1usize..4) {
        let active = 4;
        let blocks = active * ratio;
        let mut last_skips = None;
        for held_count in 0..=3usize {
            let t = tracer(1, active, ratio);
            let p = t.producer(0).unwrap();
            // Pin `held_count` distinct blocks: take a grant, then fill the
            // rest of its 10-entry block so the next grant lands in a fresh
            // one. (256-byte block = 16-byte header + 10 exact-fit entries.)
            let mut held = Vec::new();
            for _ in 0..held_count {
                held.push(p.begin(8).unwrap());
                for _ in 0..9 {
                    p.record_with(0, 0, &[0u8; 8]).unwrap();
                }
            }
            for i in 0..(rounds * blocks * 10) as u64 {
                p.record_with(i, 0, &[0u8; 8]).unwrap();
            }
            let skips = t.stats().skips;
            if held_count == 0 {
                prop_assert_eq!(skips, 0, "skips without any pinned block");
            }
            if let Some(prev) = last_skips {
                prop_assert!(
                    skips >= prev,
                    "skip count fell from {prev} to {skips} as pins grew to {held_count}"
                );
            }
            last_skips = Some(skips);
            drop(held); // abandon: dummy-confirmed, harmless
        }
    }

    /// Conservation across a shrink (§4.4): events recorded before and after
    /// shrinking drain without invention or duplication, and the newest
    /// event survives the capacity cut.
    #[test]
    fn drain_after_shrink_conserves_events(
        before in 1usize..250,
        after in 1usize..250,
        hi in 3usize..6,
        lo in 1usize..3,
    ) {
        let t = tracer(1, 4, hi);
        for i in 0..before {
            let payload = vec![0xABu8; (i * 7) % 60];
            t.producer(0).unwrap().record_with(i as u64, 0, &payload).unwrap();
        }
        t.resize_bytes(BLOCK * 4 * lo).unwrap();
        for i in before..before + after {
            let payload = vec![0xCDu8; (i * 7) % 60];
            t.producer(0).unwrap().record_with(i as u64, 0, &payload).unwrap();
        }
        let total = (before + after) as u64;
        let readout = readable(&t);
        let mut stamps: Vec<u64> = readout.iter().map(|e| e.stamp).collect();
        for &s in &stamps {
            prop_assert!(s < total, "drained stamp {s} was never recorded");
        }
        prop_assert!(stamps.contains(&(total - 1)), "newest event lost across the shrink");
        stamps.sort_unstable();
        let len_before = stamps.len();
        stamps.dedup();
        prop_assert_eq!(len_before, stamps.len(), "duplicate stamps after shrink");
    }

    /// The §3.2 effectivity bound holds across random geometries and
    /// preemption pressure: with exact-fit entries (no tail waste), closing
    /// waste keeps the effectivity ratio at or above `1 − A/N`.
    #[test]
    fn effectivity_ratio_meets_analytic_bound(
        active in 2usize..6,
        ratio in 2usize..5,
        held in 0usize..3,
    ) {
        let held_count = held.min(active - 1);
        let t = tracer(1, active, ratio);
        let p = t.producer(0).unwrap();
        let mut grants = Vec::new();
        for _ in 0..held_count {
            grants.push(p.begin(8).unwrap());
            for _ in 0..9 {
                p.record_with(0, 0, &[0u8; 8]).unwrap();
            }
        }
        let blocks = active * ratio;
        for i in 0..(2 * blocks * 10) as u64 {
            p.record_with(i, 0, &[0u8; 8]).unwrap();
        }
        for grant in grants {
            grant.commit(1, 0, &[0u8; 8]).unwrap();
        }
        let stats = t.stats();
        let bound = 1.0 - active as f64 / blocks as f64;
        prop_assert!(
            stats.effectivity_ratio() + 1e-9 >= bound,
            "effectivity {} below 1 - A/N = {bound} (recorded={}, dummy={})",
            stats.effectivity_ratio(),
            stats.recorded_bytes,
            stats.dummy_bytes
        );
    }

    /// Concurrent multi-core traffic: drained events are exactly a subset of
    /// written ones, intact, and the per-core newest survives.
    #[test]
    fn concurrent_cores_never_corrupt(seed in any::<u64>()) {
        let cores = 3;
        let t = tracer(cores, 2 * cores, 3);
        let per_core = 400u64;
        std::thread::scope(|scope| {
            for core in 0..cores {
                let producer = t.producer(core).unwrap();
                scope.spawn(move || {
                    for i in 0..per_core {
                        let stamp = core as u64 * 10_000 + i;
                        let len = ((seed ^ stamp) % 60) as usize;
                        let payload = vec![core as u8; len];
                        producer.record_with(stamp, core as u32, &payload).unwrap();
                    }
                });
            }
        });
        // A sentinel recorded after every writer quiesced: nothing newer
        // exists, so overwrite can never claim it.
        let sentinel = 999_999u64;
        t.producer(0).unwrap().record_with(sentinel, 0, b"sentinel").unwrap();
        let drained = t.drain();
        for e in &drained {
            if e.stamp == sentinel {
                continue;
            }
            let core = (e.stamp / 10_000) as usize;
            let i = e.stamp % 10_000;
            prop_assert!(core < cores && i < per_core, "corrupt stamp {}", e.stamp);
            prop_assert_eq!(e.core as usize, core, "event migrated cores");
        }
        prop_assert!(drained.iter().any(|e| e.stamp == sentinel), "the newest event was lost");
        // (A finished core's own tail *can* be overwritten by another
        // core's wrap-around — that is the global buffer working as
        // intended, so no per-core-newest assertion here.)
    }
}
