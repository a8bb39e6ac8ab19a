//! Readers across shrinks. A shrink decommits the slots beyond its new
//! bound as soon as its producers drain, without waiting for any reader:
//! decommit never unmaps, and every read validates its copy after taking
//! it (`consumer::read_block`). These tests race every reader of the live
//! ring against grow/shrink storms on both backings and check that:
//!
//! * no reader returns a record that was not recorded — each one carries
//!   a recorded stamp with its own payload and tid — and none faults;
//! * every shrink releases its pages at once: the committed bytes equal the
//!   new extent and `reclaim_deferred` stays clear, readers or not.

use btrace::core::{BTrace, Backing, Config, EventView, RingSnapshot};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Two pages per block, so a decommit can catch a copy between pages.
const BLOCK: usize = 8192;
const ACTIVE: usize = 4;
const STRIDE: usize = BLOCK * ACTIVE;
const CORES: u64 = 2;

fn tracer(backing: Backing) -> BTrace {
    BTrace::new(
        Config::new(CORES as usize)
            .active_blocks(ACTIVE)
            .block_bytes(BLOCK)
            .buffer_bytes(2 * STRIDE)
            .max_bytes(8 * STRIDE)
            .backing(backing),
    )
    .expect("valid configuration")
}

/// Record `i` of `core`: a stamp no poison or zero word decodes to, and a
/// payload of 1..=13 copies of it, so entries straddle page boundaries.
fn stamp(core: u64, i: u64) -> u64 {
    ((core + 1) << 40) | i
}

fn payload(stamp: u64) -> Vec<u8> {
    stamp.to_le_bytes().repeat(1 + (stamp % 13) as usize)
}

fn fill(tracer: &BTrace, core: u64, records: std::ops::Range<u64>) {
    let p = tracer.producer(core as usize).expect("core exists");
    for i in records {
        let s = stamp(core, i);
        p.record_with(s, core as u32, &payload(s)).expect("payload fits");
    }
    p.flush_confirms();
}

/// Panics unless `e` is a record some producer wrote; the `Ok` lets a
/// snapshot visit with it directly.
fn check_recorded(e: EventView<'_>) -> Result<(), ()> {
    let core = (e.stamp >> 40).wrapping_sub(1);
    assert!(core < CORES, "invented stamp {:#x}", e.stamp);
    assert_eq!(e.tid, core as u32, "stamp {:#x} with another core's tid", e.stamp);
    assert_eq!(e.payload, payload(e.stamp), "stamp {:#x} with a torn payload", e.stamp);
    Ok(())
}

fn readers_across_a_resize_storm(backing: Backing) {
    const CYCLES: usize = 40;
    let tracer = tracer(backing);
    // The reader's first pass, which precedes the first resize, finds these.
    (0..CORES).for_each(|core| fill(&tracer, core, 0..64));
    let (stop, passes) = (AtomicBool::new(false), AtomicUsize::new(0));
    std::thread::scope(|s| {
        for core in 0..CORES {
            let (tracer, stop) = (&tracer, &stop);
            s.spawn(move || {
                let mut i = 64;
                while !stop.load(Ordering::Relaxed) {
                    fill(tracer, core, i..i + 64);
                    i += 64;
                }
            });
        }
        let reader = s.spawn(|| {
            let (mut consumer, mut stream) = (tracer.consumer(), tracer.stream());
            let (mut snap, mut batch) = (RingSnapshot::new(), RingSnapshot::new());
            let mut returned = 0;
            while !stop.load(Ordering::Relaxed) {
                consumer.snapshot(&mut snap);
                snap.try_for_each(check_recorded).unwrap();
                stream.poll(&mut batch);
                batch.try_for_each(check_recorded).unwrap();
                returned += snap.count() + batch.count();
                passes.fetch_add(1, Ordering::Relaxed);
            }
            returned
        });
        for cycle in 0..CYCLES {
            // Every cycle overlaps a fresh pass of the live reader.
            while passes.load(Ordering::Relaxed) <= cycle && !reader.is_finished() {
                std::thread::yield_now();
            }
            let (big, small) = (if cycle % 2 == 0 { 8 } else { 4 }, 1 + cycle % 2);
            tracer.resize_bytes(big * STRIDE).expect("grow succeeds");
            std::thread::yield_now();
            tracer.resize_bytes(small * STRIDE).expect("shrink succeeds");
            let committed = tracer.health_snapshot().committed_bytes;
            assert_eq!(committed, tracer.capacity_bytes() as u64, "committed != extent");
            assert!(!tracer.state().is_degraded(), "reclaim deferred: {:?}", tracer.state());
        }
        stop.store(true, Ordering::Relaxed);
        assert!(reader.join().expect("reader never panics") > 0, "the reader read nothing");
    });
    assert_eq!(tracer.stats().resizes, 2 * CYCLES as u64);
}

#[test]
fn readers_across_a_resize_storm_return_only_recorded_records_on_the_heap() {
    readers_across_a_resize_storm(Backing::Heap);
}

#[test]
fn readers_across_a_resize_storm_return_only_recorded_records_on_mmap() {
    readers_across_a_resize_storm(Backing::Mmap);
}

#[test]
fn collect_while_pinned_still_reads_consistently() {
    // A long-lived reader held across a shrink: the shrink neither waits
    // for it nor defers its reclaim, and what it then collects is intact.
    let tracer = tracer(Backing::Heap);
    (0..CORES).for_each(|core| fill(&tracer, core, 0..400));
    let mut held = tracer.consumer();
    tracer.resize_bytes(STRIDE).expect("shrink with a live consumer completes");
    assert_eq!(tracer.health_snapshot().committed_bytes, tracer.capacity_bytes() as u64);
    assert!(!tracer.state().is_degraded(), "reclaim deferred: {:?}", tracer.state());
    let mut readout = RingSnapshot::new();
    for consumer in [&mut held, &mut tracer.consumer()] {
        consumer.snapshot(&mut readout);
        assert!(readout.count() > 0, "the shrunk ring still holds records");
        readout.try_for_each(check_recorded).unwrap();
    }
}
