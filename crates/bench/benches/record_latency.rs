//! Criterion micro-benchmarks of the recording fast path — the ns-scale
//! numbers behind Table 2's latency block, isolated from the replay
//! harness: uncontended single-producer recording, and a two-producer
//! contended variant that exposes BBQ's shared-cache-line penalty.

use btrace_baselines::{Bbq, PerCoreDropNewest, PerCoreOverwrite, PerThread};
use btrace_bench::harness::{btrace, CORES, LTTNG_SUBS, TOTAL_BYTES};
use btrace_core::sink::TraceSink;
use criterion::{
    criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const PAYLOAD: &[u8] = b"sched: prev=1234 next=5678 flag";

/// Times one `record` on core 0 per iteration.
fn bench_record(group: &mut BenchmarkGroup<'_>, name: &str, sink: &impl TraceSink) {
    let mut stamp = 0u64;
    group.bench_function(BenchmarkId::from_parameter(name), |b| {
        b.iter(|| {
            stamp += 1;
            sink.record(0, 1, stamp, PAYLOAD)
        })
    });
}

fn bench_uncontended(c: &mut Criterion) {
    let mut group = c.benchmark_group("record_uncontended");
    group.throughput(Throughput::Elements(1));
    bench_record(&mut group, "BTrace", &btrace());
    bench_record(&mut group, "BBQ", &Bbq::new(TOTAL_BYTES, 4096));
    bench_record(&mut group, "ftrace", &PerCoreOverwrite::new(CORES, TOTAL_BYTES));
    bench_record(&mut group, "LTTng", &PerCoreDropNewest::new(CORES, TOTAL_BYTES, LTTNG_SUBS));
    bench_record(&mut group, "VTrace", &PerThread::new(TOTAL_BYTES, 480));
    group.finish();
}

/// One background producer hammers core 1 while the measured producer
/// records on core 0: per-core designs are unaffected, the global BBQ
/// buffer bounces its allocation cache line.
fn bench_contended(c: &mut Criterion) {
    let mut group = c.benchmark_group("record_contended");
    group.throughput(Throughput::Elements(1));

    fn with_background<S: TraceSink + Clone + 'static>(sink: S, f: impl FnOnce(&S)) {
        let stop = Arc::new(AtomicBool::new(false));
        let bg = {
            let sink = sink.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut stamp = u64::MAX / 2;
                while !stop.load(Ordering::Relaxed) {
                    stamp += 1;
                    sink.record(1, 2, stamp, PAYLOAD);
                }
            })
        };
        f(&sink);
        stop.store(true, Ordering::Relaxed);
        bg.join().expect("background producer");
    }

    with_background(btrace(), |sink| bench_record(&mut group, "BTrace", sink));
    with_background(Bbq::new(TOTAL_BYTES, 4096), |sink| bench_record(&mut group, "BBQ", sink));
    with_background(PerCoreOverwrite::new(CORES, TOTAL_BYTES), |sink| {
        bench_record(&mut group, "ftrace", sink)
    });
    with_background(PerCoreDropNewest::new(CORES, TOTAL_BYTES, LTTNG_SUBS), |sink| {
        bench_record(&mut group, "LTTng", sink)
    });
    group.finish();
}

fn bench_payload_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("record_payload_size");
    let sink = btrace();
    let buf = vec![0x5Au8; 1024];
    for size in [8usize, 32, 128, 512] {
        group.throughput(Throughput::Bytes(size as u64));
        let mut stamp = 0u64;
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            b.iter(|| {
                stamp += 1;
                sink.record(0, 1, stamp, &buf[..size])
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_uncontended, bench_contended, bench_payload_sizes);
criterion_main!(benches);
