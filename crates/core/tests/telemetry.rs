//! Integration tests for the telemetry layer against a live tracer:
//! concurrent histogram recording, health snapshots, the background
//! sampler, and the JSONL round trip.

#![cfg(feature = "telemetry")]

use std::sync::{Arc, Mutex};
use std::time::Duration;

use btrace_core::{BTrace, Backing, Config};
use btrace_telemetry::{Exporter, HealthSnapshot, Sampler, SamplerConfig, ShardedHistogram};

fn tracer(cores: usize) -> BTrace {
    BTrace::new(
        Config::new(cores)
            .active_blocks(16)
            .block_bytes(4096)
            .buffer_bytes(4096 * 16 * 4)
            .backing(Backing::Heap),
    )
    .unwrap()
}

#[test]
fn concurrent_histogram_recording_conserves_counts() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let hist = Arc::new(ShardedHistogram::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let hist = Arc::clone(&hist);
            std::thread::spawn(move || {
                let mut x = t as u64 + 1;
                for _ in 0..PER_THREAD {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    hist.record(t, x >> 50); // 14-bit values
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = hist.snapshot();
    assert_eq!(snap.count(), THREADS as u64 * PER_THREAD, "no sample may be lost");
    let mut prev = 0;
    for q in [0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
        let v = snap.quantile(q);
        assert!(v >= prev, "quantile({q}) regressed: {v} < {prev}");
        prev = v;
    }
    assert!(snap.max() <= (1 << 14) + (1 << 10), "max {} above sampled domain", snap.max());
}

#[test]
fn health_snapshot_reports_per_core_counts_and_latencies() {
    let t = tracer(2);
    let handles: Vec<_> = (0..2)
        .map(|core| {
            let p = t.producer(core).unwrap();
            std::thread::spawn(move || {
                for i in 0..2000u64 {
                    p.record_with(i, core as u32, b"telemetry-integration").unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = t.health_snapshot();
    assert_eq!(snap.cores, 2);
    assert_eq!(snap.stats.records, 4000);
    assert_eq!(snap.per_core.len(), 2);
    assert_eq!(snap.per_core.iter().map(|c| c.records).sum::<u64>(), 4000);
    assert_eq!(snap.per_core[0].records, 2000);
    // Default sampling times 1-in-64 records, so ~62 samples expected.
    assert!(snap.record_latency.count > 0, "sampled record latency must have samples");
    assert!(snap.record_latency.count < 4000, "sampling must not time every record");
    assert!(snap.record_latency.p50 <= snap.record_latency.p99);
    assert!(snap.record_latency.p99 <= snap.record_latency.p999);
    assert!(snap.record_latency.p999 <= snap.record_latency.max);
    // 4000 * ~32B spills many 4 KiB blocks: the slow path must have run.
    assert!(snap.stats.advances > 0);
    assert!(snap.advance_latency.count == snap.stats.advances);
    // Effectivity: observed within [0,1], bound is exactly 1 - A/N.
    assert!((0.0..=1.0).contains(&snap.effectivity_observed));
    let expected_bound = 1.0 - snap.active_blocks as f64 / snap.capacity_blocks as f64;
    assert!((snap.effectivity_bound - expected_bound).abs() < 1e-12);
    assert!((0.0..=1.0).contains(&snap.mean_occupancy));
    assert!(snap.open_blocks <= snap.active_blocks);

    // Drain latency appears after a snapshot.
    t.consumer().snapshot(&mut btrace_core::RingSnapshot::new());
    assert_eq!(t.health_snapshot().drain_latency.count, 1);
}

#[test]
fn mean_occupancy_stays_in_range_through_a_resize_storm() {
    // Snapshots taken while resizes republish the geometry used to mix
    // pre- and post-resize meta rounds into the occupancy sum. Hammer
    // snapshots against a grow/shrink storm under live load and pin the
    // invariant the controller depends on: mean_occupancy ∈ [0, 1].
    let t = BTrace::new(
        Config::new(2)
            .active_blocks(4)
            .block_bytes(1024)
            .buffer_bytes(1024 * 4 * 2)
            .max_bytes(1024 * 4 * 16)
            .backing(Backing::Heap),
    )
    .unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writers: Vec<_> = (0..2)
        .map(|core| {
            let p = t.producer(core).unwrap();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    p.record_with(i, core as u32, b"storm payload").unwrap();
                    i += 1;
                }
            })
        })
        .collect();
    let resizer = {
        let t = t.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let sizes = [1024 * 4 * 8, 1024 * 4, 1024 * 4 * 16, 1024 * 4 * 2];
            let mut i = 0;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let _ = t.resize_bytes(sizes[i % sizes.len()]);
                i += 1;
            }
        })
    };
    let deadline = std::time::Instant::now() + Duration::from_millis(300);
    let mut taken = 0u32;
    while std::time::Instant::now() < deadline {
        let snap = t.health_snapshot();
        assert!(
            (0.0..=1.0).contains(&snap.mean_occupancy),
            "mean_occupancy out of range mid-storm: {} (capacity_blocks={})",
            snap.mean_occupancy,
            snap.capacity_blocks
        );
        assert!(snap.open_blocks <= snap.active_blocks);
        taken += 1;
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    resizer.join().unwrap();
    assert!(taken > 10, "storm must actually exercise snapshots, took {taken}");
}

#[test]
fn record_timing_can_be_disabled_and_retuned() {
    let t = tracer(1);
    let p = t.producer(0).unwrap();
    t.set_record_timing(None);
    for i in 0..500u64 {
        p.record_with(i, 0, b"untimed").unwrap();
    }
    assert_eq!(t.health_snapshot().record_latency.count, 0, "timing off must take no samples");
    t.set_record_timing(Some(1)); // time every record
    for i in 0..100u64 {
        p.record_with(i, 0, b"timed").unwrap();
    }
    assert_eq!(t.health_snapshot().record_latency.count, 100);
}

/// Captures exported JSONL lines in memory.
struct VecExporter {
    lines: Arc<Mutex<Vec<String>>>,
}

impl Exporter for VecExporter {
    fn export(&mut self, snapshot: &HealthSnapshot) -> std::io::Result<()> {
        self.lines.lock().unwrap().push(snapshot.to_json());
        Ok(())
    }
}

#[test]
fn sampler_exports_jsonl_that_parses_back() {
    let t = tracer(1);
    let p = t.producer(0).unwrap();
    for i in 0..1000u64 {
        p.record_with(i, 0, b"sampled-workload").unwrap();
    }
    let lines = Arc::new(Mutex::new(Vec::new()));
    let mut sampler = Sampler::spawn(
        t.clone(),
        vec![Box::new(VecExporter { lines: Arc::clone(&lines) })],
        SamplerConfig { period: Duration::from_millis(5) },
    );
    while lines.lock().unwrap().len() < 3 {
        std::thread::sleep(Duration::from_millis(2));
    }
    sampler.stop();
    assert!(!sampler.is_running(), "stop must join the sampler thread");

    let lines = lines.lock().unwrap();
    let mut prev_seq = None;
    for line in lines.iter() {
        let snap = HealthSnapshot::from_json(line).expect("exported line must parse");
        assert_eq!(snap.stats.records, 1000);
        assert_eq!(snap.per_core.len(), 1);
        assert!(snap.unix_ms > 0, "sampler must stamp wall-clock time");
        if let Some(prev) = prev_seq {
            assert_eq!(snap.seq, prev + 1, "sampler sequence must be dense");
            // Quiescent workload: rates settle to zero after the first gap.
            assert_eq!(snap.rates.records_per_sec, 0.0);
            assert!(snap.rates.window_secs > 0.0);
        }
        prev_seq = Some(snap.seq);
        // Full lossless round trip: parse -> render -> identical text.
        assert_eq!(HealthSnapshot::from_json(line).unwrap().to_json(), *line);
    }
}
