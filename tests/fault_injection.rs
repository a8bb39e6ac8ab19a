//! Seeded fault-injection storms across the whole stack: a `FaultPlan` in
//! `btrace-vmem` fails commits/decommits on a deterministic SplitMix64
//! schedule while `btrace-core` resizes under live producers.
//!
//! The contract being exercised (graceful degradation, not crash-on-ENOMEM):
//!
//! * producers never panic, block, or drop while the backing misbehaves;
//! * a grow whose commit keeps failing falls back to the pre-resize
//!   geometry and reports `TraceError::Region`;
//! * a shrink whose decommit fails still takes effect logically and defers
//!   the physical reclaim;
//! * every injected fault is visible in the degradation counters with an
//!   exact identity: `commit_failures` equals the number of injected
//!   commit, partial-commit, and decommit faults (the heap backing itself
//!   never fails, so injection is the only failure source);
//! * any failing schedule replays from its printed line
//!   (`BTRACE_SEED=fault_injection:<seed> cargo test --test fault_injection
//!   <test>`; see `tests/common`).

use btrace::core::sink::TraceSink;
use btrace::core::{BTrace, Backing, Config, TraceError, TracerState};
use btrace::vmem::{FaultPlan, FaultStats};
use common::{run_seeds, Base};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

mod common;

const CORES: usize = 4;
const BLOCK: usize = 1024;
const ACTIVE: usize = 64;
const STRIDE: usize = BLOCK * ACTIVE;

/// Base seed when `BTRACE_SEED` does not name this suite.
const DEFAULT_BASE_SEED: u64 = 0xB7_2ACE_FA01;

fn storm_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .commit_failure_rate(0.35)
        .partial_commit_rate(0.25)
        .decommit_failure_rate(0.25)
        .delayed_decommit_rate(0.15)
        .arm_after_ops(1) // let the construction commit through
}

fn storm_tracer(plan: FaultPlan) -> BTrace {
    BTrace::new(
        Config::new(CORES)
            .active_blocks(ACTIVE)
            .block_bytes(BLOCK)
            .buffer_bytes(STRIDE)
            .max_bytes(8 * STRIDE)
            .backing(Backing::Heap)
            .fault_plan(plan),
    )
    .expect("valid configuration")
}

/// Alternating grow/shrink resizes against `tracer`; returns how many fell
/// back. Any error other than the sanctioned `Region` fallback is a bug.
fn resize_storm(tracer: &BTrace, rounds: usize) -> u64 {
    let mut fallbacks = 0;
    for round in 0..rounds {
        let target = if round % 2 == 0 { 8 * STRIDE } else { STRIDE };
        match tracer.resize_bytes(target) {
            Ok(()) => {}
            Err(TraceError::Region(_)) => fallbacks += 1,
            Err(other) => panic!("only backing failures may surface, got {other:?}"),
        }
    }
    fallbacks
}

/// The exact counter identity the telemetry promises: with an infallible
/// heap backing, every failed backing attempt is one injected fault.
fn assert_fault_accounting(tracer: &BTrace, fallbacks: u64) -> FaultStats {
    let faults = tracer.fault_stats().expect("fault injection is active");
    let stats = tracer.stats();
    assert_eq!(
        stats.commit_failures,
        faults.commit_faults + faults.partial_commits + faults.decommit_faults,
        "commit_failures must count exactly the injected faults: {faults:?}"
    );
    assert_eq!(stats.resize_fallbacks, fallbacks, "every fallback came from a failed grow");
    if fallbacks > 0 {
        assert!(
            tracer.state().is_degraded(),
            "a fallen-back resize must leave the tracer reporting Degraded"
        );
    }
    faults
}

/// One full storm: live producers on every core, alternating resizes with
/// faults armed, then a quiesced retention check. Panics on any violation.
fn run_storm(seed: u64) {
    let plan = storm_plan(seed);
    let tracer = storm_tracer(plan);
    let stop = Arc::new(AtomicBool::new(false));
    // The storm starts only once every writer has recorded: on a busy host
    // a writer thread may otherwise first run after the storm is over.
    let started = Arc::new(Barrier::new(CORES + 1));

    let writers: Vec<_> = (0..CORES)
        .map(|core| {
            let producer = tracer.producer(core).expect("producer");
            let stop = Arc::clone(&stop);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let mut i = 0u64;
                loop {
                    let stamp = (core as u64) << 32 | i;
                    producer
                        .record_with(stamp, core as u32, b"payload under fault storm")
                        .expect("producers must keep recording through backing faults");
                    i += 1;
                    if i == 1 {
                        started.wait();
                    }
                    if stop.load(Ordering::Relaxed) {
                        return i;
                    }
                }
            })
        })
        .collect();

    started.wait();
    let fallbacks = resize_storm(&tracer, 30);

    stop.store(true, Ordering::Relaxed);
    let per_core: Vec<u64> = writers.into_iter().map(|w| w.join().expect("no panic")).collect();
    assert!(per_core.iter().all(|&n| n > 0), "every producer made progress: {per_core:?}");

    assert_fault_accounting(&tracer, fallbacks);

    // Quiesced retention: with the storm over, a fresh burst must land
    // contiguously — degradation never corrupts the surviving blocks.
    const FRESH: u64 = 200;
    let producer = tracer.producer(0).expect("producer");
    for i in 0..FRESH {
        producer.record_with((1 << 40) | i, 0, b"post-storm probe").expect("record");
    }
    let retained = tracer.drain();
    let mut fresh: Vec<u64> = retained.iter().map(|e| e.stamp).filter(|&s| s >= 1 << 40).collect();
    fresh.sort_unstable();
    let expect: Vec<u64> = (0..FRESH).map(|i| (1 << 40) | i).collect();
    assert_eq!(fresh, expect, "seed {seed}: post-storm burst must be retained gap-free");
}

#[test]
fn fault_schedules_replay_deterministically() {
    // Same seed, same single-threaded op sequence → identical fault
    // schedule and identical counters, which is what makes a printed seed
    // from CI a complete repro.
    let run = |seed: u64| {
        let tracer = storm_tracer(storm_plan(seed));
        let fallbacks = resize_storm(&tracer, 20);
        let faults = assert_fault_accounting(&tracer, fallbacks);
        (faults, fallbacks, tracer.stats().commit_failures)
    };
    assert_eq!(run(0x5EED), run(0x5EED));
}

#[test]
fn partial_commits_never_leave_a_half_committed_extent() {
    // Every commit attempt is answered with a partial success; after
    // `max_faults` the plan goes quiet. If the rolled-back prefix leaked,
    // the eventual full commit would double-commit pages or the new blocks
    // would be unusable.
    let plan = FaultPlan::new(0x51AB).partial_commit_rate(1.0).arm_after_ops(1).max_faults(2);
    let tracer = storm_tracer(plan);
    tracer.resize_bytes(8 * STRIDE).expect("third attempt succeeds after two partials");
    let stats = tracer.stats();
    assert_eq!(stats.commit_failures, 2, "two partial commits, each rolled back");
    assert_eq!(stats.resize_fallbacks, 0);
    assert_eq!(tracer.fault_stats().unwrap().partial_commits, 2);
    assert_eq!(tracer.state(), TracerState::Healthy, "healed retries are not degradation");

    // The re-committed extent is fully writable: overfill the original
    // stride so producers must land in the newly grown blocks.
    let producer = tracer.producer(0).expect("producer");
    for i in 0..((2 * STRIDE / 32) as u64) {
        producer.record_with(i, 0, b"into the grown extent").expect("record");
    }
    assert!(tracer.drain().len() * 24 > STRIDE, "retention spills beyond the old extent");
}

#[test]
fn commit_failure_storm_with_live_producers() {
    run_storm(0xD15EA5E);
}

#[test]
fn random_seed_batch_survives_storms() {
    // A fresh batch each CI run (the workflow exports a random
    // BTRACE_SEED); each failing storm prints its replay line, so it
    // replays bit-for-bit on a developer machine.
    run_seeds("random_seed_batch_survives_storms", Base::from_env(DEFAULT_BASE_SEED), 4, run_storm);
}
