//! Quickstart: create a BTrace buffer, record from several "cores", read
//! everything back, and resize at runtime.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use btrace::core::{BTrace, Config, RingSnapshot};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A tracer for a 4-core device: 2 MiB buffer now, growable to 8 MiB,
    // 4 KiB data blocks, 64 active blocks (16 per core, the paper's sweet
    // spot).
    let tracer = BTrace::new(
        Config::new(4).buffer_bytes(2 << 20).max_bytes(8 << 20).block_bytes(4096).active_blocks(64),
    )?;
    println!("created: {tracer:?}");

    // One producer handle per core; clones are cheap and any number of
    // threads may share one. Recording is a fetch-and-add, a word-wise
    // copy, and a second fetch-and-add — it never blocks and never drops.
    let mut handles = Vec::new();
    for core in 0..tracer.cores() {
        let producer = tracer.producer(core)?;
        handles.push(std::thread::spawn(move || {
            for i in 0..10_000u64 {
                let line = format!("core{core}: sched switch #{i}");
                producer
                    .record_with(core as u64 * 1_000_000 + i, i as u32 % 7, line.as_bytes())
                    .expect("payload fits a block");
            }
        }));
    }
    for h in handles {
        h.join().expect("producer thread");
    }

    // The consumer reads speculatively: it never blocks the producers, and
    // re-validates every block so it never returns torn data. It fills a
    // snapshot the caller owns and may reuse for the next read.
    let mut readout = RingSnapshot::new();
    tracer.consumer().snapshot(&mut readout);
    println!(
        "collected {} events ({} KiB) from {} readable blocks",
        readout.count(),
        readout.stored_bytes() / 1024,
        readout.blocks().readable,
    );
    let events = readout.to_events();
    let newest = events.last().expect("events were recorded");
    println!("newest event: {:?} -> {}", newest, String::from_utf8_lossy(&newest.payload));

    // Resize at runtime: grow for a critical phase, shrink afterwards.
    // Producers could keep recording concurrently throughout.
    tracer.resize_bytes(8 << 20)?;
    println!("grown:  capacity = {} KiB", tracer.capacity_bytes() / 1024);
    tracer.resize_bytes(1 << 20)?;
    println!("shrunk: capacity = {} KiB", tracer.capacity_bytes() / 1024);

    let stats = tracer.stats();
    println!(
        "stats: {} records, {} advances, {} closes, {} skips, {:.2}% dummy overhead",
        stats.records,
        stats.advances,
        stats.closes,
        stats.skips,
        stats.dummy_fraction() * 100.0,
    );
    Ok(())
}
