//! EBR reclamation regression: a deliberately stalled reader — a
//! [`ReaderPin`](btrace::core::ReaderPin) held across a resize storm — must
//! not stall reclamation unboundedly.
//!
//! The shrink path waits one *bounded* grace period (`EBR_GRACE_DEADLINE`,
//! 100 ms) for pinned readers; on timeout it defers physical reclaim
//! (`RECLAIM_DEFERRED`, self-healing on a later resize) instead of spinning
//! forever. The bound is asserted three ways:
//!
//! * wall-clock: a shrink under a live pin completes in bounded time;
//! * counters: [`BTrace::smr_stats`] shows `grace_timeouts > 0` with
//!   `grace_timeouts <= grace_waits` (the documented invariant);
//! * state: the tracer degrades to `reclaim_deferred` rather than wedging,
//!   and self-heals once the reader unpins and a later shrink retries.

use btrace::core::{BTrace, Backing, Config};
use std::time::{Duration, Instant};

const BLOCK: usize = 256;
const ACTIVE: usize = 8;
const STRIDE: usize = BLOCK * ACTIVE;

fn tracer() -> BTrace {
    BTrace::new(
        Config::new(2)
            .active_blocks(ACTIVE)
            .block_bytes(BLOCK)
            .buffer_bytes(4 * STRIDE)
            .max_bytes(16 * STRIDE)
            .backing(Backing::Heap),
    )
    .expect("valid configuration")
}

fn fill(tracer: &BTrace, stamps: std::ops::Range<u64>) {
    let p = tracer.producer(0).expect("core 0 exists");
    for stamp in stamps {
        p.record_with(stamp, 7, b"reclaim regression payload").expect("payload fits");
    }
    p.flush_confirms();
}

#[test]
fn stalled_reader_defers_reclaim_instead_of_stalling_the_resize() {
    let tracer = tracer();
    fill(&tracer, 0..500);

    let consumer = tracer.consumer();
    let pin = consumer.pin(); // the stalled reader: pinned, never progressing

    let before = tracer.smr_stats();
    let t0 = Instant::now();
    // A resize storm against the pin: grows interleaved with shrinks, each
    // shrink forced to run its grace period against the stalled epoch.
    for round in 0..3 {
        tracer.resize_bytes(8 * STRIDE).expect("grow succeeds");
        fill(&tracer, 1_000 * (round + 1)..1_000 * (round + 1) + 200);
        tracer.resize_bytes(4 * STRIDE).expect("shrink completes despite the pin");
    }
    let elapsed = t0.elapsed();
    let after = tracer.smr_stats();

    // The documented bound: each of the 3 shrinks waits at most one
    // ~100 ms grace deadline. 3 s of headroom absorbs scheduler noise while
    // still failing fast if the wait ever becomes unbounded.
    assert!(
        elapsed < Duration::from_secs(3),
        "resize storm under a stalled reader took {elapsed:?}; the grace wait must be bounded"
    );
    let timeouts = after.grace_timeouts - before.grace_timeouts;
    let waits = after.grace_waits - before.grace_waits;
    assert!(timeouts >= 1, "a stalled reader must force at least one bounded-grace timeout");
    assert!(timeouts <= waits, "timeouts can never exceed waits: {after:?}");
    assert!(after.advances > before.advances, "each shrink advances the epoch");

    // Timed-out reclaim must surface as the self-healing degraded state,
    // not as a wedge or a panic.
    let state = tracer.state();
    assert!(state.is_degraded(), "deferred reclaim must be visible: {state:?}");

    // Release the reader: the next shrink's grace period succeeds and the
    // deferred reclaim self-heals.
    drop(pin);
    tracer.resize_bytes(8 * STRIDE).expect("grow succeeds");
    tracer.resize_bytes(4 * STRIDE).expect("shrink succeeds");
    let healed = tracer.smr_stats();
    assert_eq!(
        healed.grace_timeouts, after.grace_timeouts,
        "the unpinned shrink's grace wait must succeed, not time out: {healed:?}"
    );
    assert!(healed.grace_waits > after.grace_waits, "the shrink re-ran a grace wait");
    if let btrace::core::TracerState::Degraded(d) = tracer.state() {
        assert!(!d.reclaim_deferred, "reclaim must self-heal after the reader unpins: {d:?}");
    }
}

#[test]
fn unpinned_shrinks_never_time_out() {
    let tracer = tracer();
    fill(&tracer, 0..300);
    for _ in 0..4 {
        tracer.resize_bytes(8 * STRIDE).expect("grow succeeds");
        tracer.resize_bytes(4 * STRIDE).expect("shrink succeeds");
    }
    let stats = tracer.smr_stats();
    assert_eq!(stats.grace_timeouts, 0, "no reader is pinned, no wait may time out: {stats:?}");
    assert!(stats.grace_waits >= 4, "every shrink runs one grace wait: {stats:?}");
    assert!(!tracer.state().is_degraded(), "healthy storm must stay healthy");
}

#[test]
fn collect_while_pinned_still_reads_consistently() {
    // The pin is for long-lived readers; make sure holding it across a
    // shrink storm does not corrupt what the consumer then reads.
    let tracer = tracer();
    fill(&tracer, 0..400);
    let pinned = tracer.consumer();
    let pin = pinned.pin();
    tracer.resize_bytes(2 * STRIDE).expect("shrink under pin completes");
    let mut consumer = tracer.consumer();
    let readout = consumer.collect();
    for e in &readout.events {
        assert_eq!(e.payload, b"reclaim regression payload");
        assert_eq!(e.tid, 7);
    }
    drop(pin);
}
