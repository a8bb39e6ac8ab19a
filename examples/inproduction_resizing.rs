//! In-production tracing with dynamic buffer resizing (paper §2.2
//! Observation 3 and §4.4).
//!
//! The scenario: a phone idles with a small trace buffer. An anomaly
//! detector flags an app cold start, so the buffer grows to capture a
//! detailed trace of the launch; once the main activity has loaded, the
//! trace is dumped and the buffer shrinks back — all while producers keep
//! recording, with no locks added to their path.
//!
//! ```text
//! cargo run --release --example inproduction_resizing
//! ```

use btrace::core::{BTrace, Config, RingSnapshot};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const CORES: usize = 8;
const STRIDE: usize = 4096 * 128; // block_bytes * active_blocks = 512 KiB

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tracer = BTrace::new(
        Config::new(CORES)
            .block_bytes(4096)
            .active_blocks(128)
            .buffer_bytes(STRIDE) // idle: 0.5 MiB
            .max_bytes(16 * STRIDE), // burst: up to 8 MiB
    )?;
    let stamp = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    // Background producers: the system never stops tracing.
    let producers: Vec<_> = (0..CORES)
        .map(|core| {
            let producer = tracer.producer(core)?;
            let stamp = Arc::clone(&stamp);
            let stop = Arc::clone(&stop);
            Ok(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let s = stamp.fetch_add(1, Ordering::Relaxed);
                    producer
                        .record_with(s, core as u32, b"freq/idle/sched decision record ....")
                        .expect("fits");
                    // A real phone produces a few thousand events per core
                    // per second, not tens of millions; pace accordingly so
                    // the buffer holds seconds of history, not milliseconds.
                    if s.is_multiple_of(64) {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                }
            }))
        })
        .collect::<Result<_, btrace::core::TraceError>>()?;

    println!("idle:       capacity {:>5} KiB", tracer.capacity_bytes() / 1024);

    // Anomaly detector fires: grow for the critical phase (app cold start).
    tracer.resize_bytes(16 * STRIDE)?;
    println!(
        "cold start: capacity {:>5} KiB (growing took one CAS + page commit)",
        tracer.capacity_bytes() / 1024
    );

    // Let the launch "run" while tracing at full detail.
    std::thread::sleep(std::time::Duration::from_millis(300));

    // Main activity loaded: dump the detailed trace...
    let (mut consumer, mut readout) = (tracer.consumer(), RingSnapshot::new());
    consumer.snapshot(&mut readout);
    println!(
        "dump:       {} events, {:.2} MiB retained, {} readable blocks",
        readout.count(),
        readout.stored_bytes() as f64 / (1 << 20) as f64,
        readout.blocks().readable,
    );

    // ... and shrink back. The shrinker closes the active blocks, waits for
    // the implicit reference counts (allocate/confirm) to drain, then
    // decommits the pages at once: readers validate what they copy, so
    // none is waited for. Producers above never stopped recording.
    tracer.resize_bytes(STRIDE)?;
    println!(
        "steady:     capacity {:>5} KiB (memory returned to the system)",
        tracer.capacity_bytes() / 1024
    );

    stop.store(true, Ordering::Relaxed);
    for p in producers {
        p.join().expect("producer thread");
    }

    let stats = tracer.stats();
    println!(
        "\n{} events recorded across the whole run; {} resizes; no event was ever dropped.",
        stats.records, stats.resizes
    );
    consumer.snapshot(&mut readout);
    println!("the shrunken buffer still serves reads: {} events retained", readout.count());
    Ok(())
}
