//! Property tests for the streaming consumer: arbitrary single-threaded
//! interleavings of records, `poll`s, and resizes — with a seeded
//! backing-fault storm armed the whole time — must deliver every
//! confirmed record **at most once**, and exactly once whenever the
//! stream was never lapped and the geometry never shrank under it.
//!
//! Every read fills one reused `RingSnapshot`. The final cross-check drives
//! the other consumer: after the stream's `flush_close` (which closes every
//! open block in the window), a `snapshot_and_close` must hold a subset of
//! what streaming delivered — the one-shot path can know nothing the stream
//! missed.

use btrace::core::sink::FullEvent;
use btrace::core::{BTrace, Backing, Config, RingSnapshot, TraceError};
use btrace::vmem::FaultPlan;
use proptest::prelude::*;
use std::collections::BTreeSet;

const CORES: usize = 3;
const BLOCK: usize = 256;
const ACTIVE: usize = 8;
const STRIDE: usize = BLOCK * ACTIVE;

/// One step of the single-threaded stream machine.
#[derive(Debug, Clone)]
enum Op {
    Record { core: usize, len: usize },
    Poll,
    Resize { ratio: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0..CORES, 0usize..48).prop_map(|(core, len)| Op::Record { core, len }),
        3 => Just(Op::Poll),
        1 => (1usize..=4).prop_map(|ratio| Op::Resize { ratio }),
    ]
}

fn storm_tracer(fault_seed: u64) -> BTrace {
    let plan = FaultPlan::new(fault_seed)
        .commit_failure_rate(0.3)
        .partial_commit_rate(0.2)
        .decommit_failure_rate(0.25)
        .delayed_decommit_rate(0.15)
        .arm_after_ops(1);
    BTrace::new(
        Config::new(CORES)
            .active_blocks(ACTIVE)
            .block_bytes(BLOCK)
            .buffer_bytes(2 * STRIDE)
            .max_bytes(8 * STRIDE)
            .backing(Backing::Heap)
            .fault_plan(plan),
    )
    .expect("valid configuration")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exactly-once delivery under resize storms and injected backing
    /// faults, cross-checked against the one-shot consumer.
    #[test]
    fn polls_deliver_each_confirmed_record_exactly_once(
        fault_seed in 0u64..1_000_000,
        ops in proptest::collection::vec(op_strategy(), 1..250)
    ) {
        let t = storm_tracer(fault_seed);
        let mut stream = t.stream();
        let mut stamp = 0u64;
        let mut delivered: Vec<u64> = Vec::new();
        let mut resized = false;
        let mut snap = RingSnapshot::new();

        for op in ops {
            match op {
                Op::Record { core, len } => {
                    let payload = vec![0xE7u8; len];
                    t.producer(core).unwrap().record_with(stamp, core as u32, &payload).unwrap();
                    stamp += 1;
                }
                Op::Poll => {
                    stream.poll(&mut snap);
                    delivered.extend(snap.to_events().iter().map(|e| e.stamp));
                }
                Op::Resize { ratio } => {
                    match t.resize_bytes(ratio * STRIDE) {
                        // A grow rejected by injected backing faults falls
                        // back to the old geometry — sanctioned degradation.
                        Ok(()) | Err(TraceError::Region(_)) => resized = true,
                        Err(other) => panic!("unexpected resize error {other:?}"),
                    }
                }
            }
        }

        // Final flush: close every open block (current and stragglers) and
        // deliver the tail. After it, the one-shot consumer must see
        // nothing the stream did not already hand off.
        stream.flush_close(&mut snap);
        delivered.extend(snap.to_events().iter().map(|e| e.stamp));
        t.consumer().snapshot_and_close(&mut snap);

        // At-most-once, always: no stamp is ever handed out twice, and
        // nothing is invented.
        let delivered_set: BTreeSet<u64> = delivered.iter().copied().collect();
        prop_assert_eq!(delivered_set.len(), delivered.len(), "a stamp was delivered twice");
        prop_assert!(
            delivered_set.iter().all(|&s| s < stamp),
            "delivered a stamp that was never recorded"
        );

        // The streamed view covers the one-shot view.
        let collect_set: BTreeSet<u64> = snap.to_events().iter().map(|e| e.stamp).collect();
        let only: Vec<u64> = collect_set.difference(&delivered_set).copied().collect();
        prop_assert!(
            only.is_empty(),
            "snapshot_and_close saw stamps the stream never delivered: {:?} \
             (resized {}, missed {}, stamps {}, delivered {})",
            only, resized, stream.stats().missed_blocks, stamp, delivered_set.len()
        );

        // Exactly-once: with no resizes and no laps there is no sanctioned
        // loss, so delivery must be total.
        if !resized && stream.stats().missed_blocks == 0 {
            prop_assert_eq!(
                delivered_set.len() as u64, stamp,
                "stream lost records without a lap or resize to blame"
            );
        }
    }

    /// The sharded consumer under the same storm: arbitrary interleavings
    /// of records, per-stripe polls, and resizes must keep every stripe
    /// at-most-once, keep the stripes pairwise disjoint, never tear a
    /// payload, and lose nothing when no lap or resize sanctioned a loss.
    /// Half the schedules run the producers with confirm coalescing, so
    /// deferred-visibility runs cross the stripe logic too.
    #[test]
    fn sharded_polls_are_disjoint_exactly_once_and_untorn(
        fault_seed in 0u64..1_000_000,
        k in 2usize..=4,
        coalesce in any::<bool>(),
        ops in proptest::collection::vec(op_strategy(), 1..250)
    ) {
        let t = storm_tracer(fault_seed);
        let mut sharded = t.stream_sharded(k);
        let producers: Vec<_> = (0..CORES).map(|c| t.producer(c).unwrap()).collect();
        if coalesce {
            for p in &producers {
                p.set_confirm_coalescing(true);
            }
        }

        let mut stamp = 0u64;
        let mut lens: Vec<usize> = Vec::new();
        let mut per_shard: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); k];
        let mut resized = false;
        let mut snap = RingSnapshot::new();

        for op in ops {
            match op {
                Op::Record { core, len } => {
                    let payload: Vec<u8> = (0..len).map(|j| (stamp as u8) ^ (j as u8)).collect();
                    producers[core].record_with(stamp, core as u32, &payload).unwrap();
                    lens.push(len);
                    stamp += 1;
                }
                Op::Poll => {
                    for (i, shard) in sharded.iter_mut().enumerate() {
                        shard.poll(&mut snap);
                        per_shard[i].extend(snap.to_events().into_iter().map(|e| (e.stamp, e.payload)));
                    }
                }
                Op::Resize { ratio } => {
                    // A pending coalesced run pins its block like an open
                    // grant; a resize on this same thread would wait for
                    // it forever. Flush first — the documented discipline
                    // for geometry changes.
                    for p in &producers {
                        p.flush_confirms();
                    }
                    match t.resize_bytes(ratio * STRIDE) {
                        Ok(()) | Err(TraceError::Region(_)) => resized = true,
                        Err(other) => panic!("unexpected resize error {other:?}"),
                    }
                }
            }
        }

        // Settle pending coalesced runs (Drop flushes), then close the
        // window stripe by stripe — the close CAS is idempotent, so every
        // stripe may safely issue it.
        drop(producers);
        for (i, shard) in sharded.iter_mut().enumerate() {
            shard.flush_close(&mut snap);
            per_shard[i].extend(snap.to_events().into_iter().map(|e| (e.stamp, e.payload)));
        }

        // Per-stripe at-most-once; summed cardinality == union cardinality
        // means no stamp crossed a stripe boundary.
        let mut union: BTreeSet<u64> = BTreeSet::new();
        let mut total = 0usize;
        for (i, got) in per_shard.iter().enumerate() {
            let set: BTreeSet<u64> = got.iter().map(|(s, _)| *s).collect();
            prop_assert_eq!(set.len(), got.len(), "shard {} delivered a stamp twice", i);
            total += set.len();
            union.extend(set);
        }
        prop_assert_eq!(union.len(), total, "two stripes delivered the same stamp");
        prop_assert!(
            union.iter().all(|&s| s < stamp),
            "delivered a stamp that was never recorded"
        );

        // Untorn and untruncated: exact bytes, exact length.
        for (s, payload) in per_shard.iter().flatten() {
            prop_assert_eq!(payload.len(), lens[*s as usize], "truncated payload at stamp {}", s);
            let expect: Vec<u8> = (0..payload.len()).map(|j| (*s as u8) ^ (j as u8)).collect();
            prop_assert_eq!(payload, &expect, "torn payload at stamp {}", s);
        }

        // Exactly-once: with no resizes and no laps there is no sanctioned
        // loss, so the union must be total.
        if !resized && sharded.iter().map(|s| s.stats().missed_blocks).sum::<u64>() == 0 {
            prop_assert_eq!(
                union.len() as u64, stamp,
                "sharded stream lost records without a lap or resize to blame"
            );
        }
    }

    /// Streamed payloads are never torn: every delivered event carries the
    /// exact bytes its producer wrote, under the same storm.
    #[test]
    fn streamed_payloads_are_intact(
        fault_seed in 0u64..1_000_000,
        lens in proptest::collection::vec(0usize..48, 1..120)
    ) {
        let t = storm_tracer(fault_seed);
        let (mut stream, mut snap) = (t.stream(), RingSnapshot::new());
        let mut events: Vec<FullEvent> = Vec::new();
        for (i, len) in lens.iter().enumerate() {
            let stamp = i as u64;
            let core = i % CORES;
            let payload: Vec<u8> = (0..*len).map(|j| (stamp as u8) ^ (j as u8)).collect();
            t.producer(core).unwrap().record_with(stamp, core as u32, &payload).unwrap();
            if i % 13 == 0 {
                stream.poll(&mut snap);
                events.extend(snap.to_events());
            }
        }
        stream.flush_close(&mut snap);
        events.extend(snap.to_events());
        for e in &events {
            let expect: Vec<u8> = (0..e.payload.len()).map(|j| (e.stamp as u8) ^ (j as u8)).collect();
            prop_assert_eq!(&e.payload, &expect, "torn payload at stamp {}", e.stamp);
            prop_assert_eq!(e.core as usize, (e.stamp as usize) % CORES);
        }
    }
}
