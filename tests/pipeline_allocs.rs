//! The live pipeline allocates nothing per event: a poll's closed blocks
//! travel as a recycled `RingSnapshot`, a frame's events as a recycled
//! `EntryBatch` of ring entries, and the frame itself as a recycled buffer,
//! so once the return pools are warm, `drain → batch → encode → sink`
//! runs without touching the allocator event by event.
//!
//! Every allocation in this test binary is counted by its global
//! allocator while the window is open. The recording thread allocates
//! nothing itself, so the window's count is the pipeline's.

use btrace::core::{BTrace, Backing, Config, Producer};
use btrace::persist::{FrameSink, PipelineConfig, StreamPipeline};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

const CORES: usize = 4;
const BLOCK_BYTES: usize = 4096;
/// Each 16-byte payload takes a 32-byte entry.
const PAYLOAD: &[u8] = b"pipeline-payload";
const ENTRY_BYTES: usize = 32;
/// Events recorded back to back before the recorder sleeps for a poll.
const BURST: u64 = 2_000;

/// Counts frames and, from each frame's header, the events in it; the
/// atomics are the only state, so the sink allocates nothing.
struct CountingSink {
    frames: Arc<AtomicU64>,
    events: Arc<AtomicU64>,
}

impl FrameSink for CountingSink {
    fn write_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        // The count word after magic, body length and seq; bit 31 flags
        // the revision.
        let count = u32::from_le_bytes(frame[16..20].try_into().expect("4 bytes")) & !(1 << 31);
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.events.fetch_add(count.into(), Ordering::Relaxed);
        Ok(())
    }
}

/// Records the events stamped `stamps` round-robin over `producers` in
/// paced bursts.
fn record(producers: &[Producer], stamps: Range<u64>) {
    for i in stamps {
        producers[i as usize % producers.len()].record_with(i, 0, PAYLOAD).expect("record");
        if (i + 1) % BURST == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Waits until the sink has seen at least `target` events.
fn await_events(events: &AtomicU64, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while events.load(Ordering::Relaxed) < target {
        assert!(
            Instant::now() < deadline,
            "the sink saw {} of {target} events",
            events.load(Ordering::Relaxed)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn steady_state_pipeline_allocates_under_one_per_hundred_events() {
    const WARM: u64 = 40_000;
    const N: u64 = 200_000;
    // Events a core's still-open block can withhold from the sink.
    const OPEN: u64 = (CORES * BLOCK_BYTES / ENTRY_BYTES) as u64;
    let t = Arc::new(
        BTrace::new(
            Config::new(CORES)
                .block_bytes(BLOCK_BYTES)
                .buffer_bytes(16 << 20)
                .backing(Backing::Heap),
        )
        .expect("valid configuration"),
    );
    let (frames, events) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let sink = CountingSink { frames: Arc::clone(&frames), events: Arc::clone(&events) };
    let config = PipelineConfig { poll_interval: Duration::from_millis(1), ..Default::default() };
    let pipeline = StreamPipeline::spawn(Arc::clone(&t), Box::new(sink), config);
    // Producer handles are made up front so the window records only.
    let producers: Vec<_> = (0..CORES).map(|c| t.producer(c).expect("core exists")).collect();

    // Warm up: the return pools fill and their buffers reach size.
    record(&producers, 0..WARM);
    await_events(&events, WARM - OPEN);

    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    record(&producers, WARM..WARM + N);
    await_events(&events, WARM + N - OPEN);
    COUNTING.store(false, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);

    let stats = pipeline.stop();
    assert_eq!(stats.missed_blocks, 0, "the 16 MiB ring holds the whole run");
    assert_eq!(stats.events_encoded, WARM + N, "every recorded event was encoded");
    assert_eq!(events.load(Ordering::Relaxed), WARM + N, "every recorded event reached the sink");
    assert!(frames.load(Ordering::Relaxed) > N / 512, "frames hold at most 512 events");
    assert!(allocs < N / 100, "{allocs} allocations while {N} events went through the pipeline");
}
