//! A warm store query allocates per query, never per event: frames decode
//! in place into one reused scratch buffer, a category predicate judges
//! each payload decoded in place (no string copy), and each match updates
//! one preallocated stamp vector and one per-core and one per-thread row.
//!
//! Every allocation in this test binary is counted by its global allocator
//! while the window is open. The query runs on the test's own thread and
//! starts no other, so the window's count is the query's.

use btrace::atrace::{Category, TraceEvent, MAX_ENCODED};
use btrace::core::sink::FullEvent;
use btrace::persist::{encode_stream, Predicate, Query, QueryReport, TraceStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus a count of allocations made while [`COUNTING`] is on.
struct CountingAlloc;

impl CountingAlloc {
    fn count() {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only atomics, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const EVENTS: u64 = 120_000;
const FRAME_EVENTS: usize = 1_024;

/// Increasing stamps over 8 cores and 64 threads; every payload is an
/// atrace event, half of them markers with a string (`Begin`, `Counter`).
fn corpus() -> Vec<FullEvent> {
    let mut buf = [0u8; MAX_ENCODED];
    (0..EVENTS)
        .map(|s| {
            let event = match s % 4 {
                0 => TraceEvent::Begin { msg: "Choreographer#doFrame" },
                1 => TraceEvent::Counter { name: "gpu_busy", value: s as i64 },
                2 => TraceEvent::SchedWakeup { tid: s as u32, cpu: (s % 8) as u8 },
                _ => TraceEvent::End,
            };
            let n = event.encode(&mut buf);
            FullEvent {
                stamp: 3 * s,
                core: (s % 8) as u16,
                tid: 1_000 + (s % 64) as u32,
                payload: buf[..n].to_vec(),
            }
        })
        .collect()
}

/// Runs `query` once to warm up, then once with the allocator counting.
fn counted_run(store: &TraceStore, query: &Query) -> (QueryReport, u64) {
    query.run(store);
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let report = query.run(store);
    COUNTING.store(false, Ordering::Relaxed);
    (report, ALLOCS.load(Ordering::Relaxed))
}

#[test]
fn warm_query_allocates_under_one_per_thousand_events() {
    let store = TraceStore::from_bytes(encode_stream(&corpus(), FRAME_EVENTS));
    assert!(store.defects().is_empty(), "{:?}", store.defects());
    // `View` holds `Begin`/`End`; every `Counter` is decoded and rejected.
    let markers = Predicate { category: Some(Category::VIEW), ..Default::default() };
    for (name, predicate, matched) in
        [("unrestricted", Predicate::default(), EVENTS), ("category", markers, EVENTS / 2)]
    {
        let (report, allocs) = counted_run(&store, &Query::new(predicate));
        assert!(report.defects.is_empty(), "{name}: {:?}", report.defects);
        assert_eq!(report.matched_events, matched, "{name}");
        assert_eq!(report.frames_decoded, store.frames().len(), "{name}: nothing is pruned");
        assert!(
            allocs < EVENTS / 1_000,
            "{name}: {allocs} allocations while a query read {EVENTS} events"
        );
    }
}
