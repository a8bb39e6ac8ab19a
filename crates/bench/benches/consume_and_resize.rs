//! Criterion benchmarks for the off-critical-path operations: speculative
//! consumption (§4.3) and runtime resizing (§4.4). The paper's claim is not
//! that these are fast but that they cost producers nothing; the companion
//! `record_under_resize` case quantifies exactly that.

use btrace_bench::harness::{btrace, CORES};
use btrace_core::sink::TraceSink;
use btrace_core::{BTrace, Config, RingSnapshot};
use criterion::{criterion_group, criterion_main, Criterion};

fn prefilled() -> BTrace {
    let tracer = btrace();
    let producer = tracer.producer(0).expect("core 0 exists");
    for i in 0..20_000u64 {
        producer.record_with(i, 0, b"prefill entry payload bytes").expect("fits");
    }
    tracer
}

/// The evaluation geometry at 4 resize strides, free to grow to 16;
/// returns the tracer and its stride.
fn resizable() -> (BTrace, usize) {
    let active = 16 * CORES;
    let stride = 4096 * active;
    let config = Config::new(CORES)
        .active_blocks(active)
        .block_bytes(4096)
        .buffer_bytes(4 * stride)
        .max_bytes(16 * stride);
    (BTrace::new(config).expect("valid"), stride)
}

/// What `Collector::trigger` runs: one snapshot of the whole ring into a
/// buffer reused across reads.
fn bench_snapshot(c: &mut Criterion) {
    let tracer = prefilled();
    let (mut consumer, mut snapshot) = (tracer.consumer(), RingSnapshot::new());
    c.bench_function("consumer_snapshot_12mb", |b| {
        b.iter(|| {
            consumer.snapshot(&mut snapshot);
            snapshot.count()
        })
    });
}

fn bench_resize_cycle(c: &mut Criterion) {
    let (tracer, stride) = resizable();
    c.bench_function("resize_grow_shrink_cycle", |b| {
        b.iter(|| {
            tracer.resize_bytes(16 * stride).expect("grow");
            tracer.resize_bytes(4 * stride).expect("shrink");
        })
    });
}

fn bench_record_under_resize(c: &mut Criterion) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let (tracer, stride) = resizable();
    let stop = Arc::new(AtomicBool::new(false));
    let resizer = {
        let tracer = tracer.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                tracer.resize_bytes(16 * stride).expect("grow");
                tracer.resize_bytes(4 * stride).expect("shrink");
            }
        })
    };
    let mut stamp = 0u64;
    c.bench_function("record_under_resize_storm", |b| {
        b.iter(|| {
            stamp += 1;
            tracer.record(0, 1, stamp, b"recording while resizing")
        })
    });
    stop.store(true, Ordering::Relaxed);
    resizer.join().expect("resizer thread");
}

criterion_group!(benches, bench_snapshot, bench_resize_cycle, bench_record_under_resize);
criterion_main!(benches);
