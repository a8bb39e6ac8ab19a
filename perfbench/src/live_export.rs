//! `live_export`: open loop. One generator thread records pre-encoded atrace
//! payloads round-robin over 4 producers at a fixed 1 M events/s, in bursts
//! of 1 ms with a sleep in between, while a `StreamPipeline` (compressed
//! frames, one drain thread) exports to a sink that reads each frame's FIDX
//! footer and drops the frame. Every event's stamp is its due time, so
//! export lag = sink arrival − stamp includes any generator lateness.

use crate::gen::{payload_pool, Payload, SplitMix64};
use crate::report::{median, metric, quantile, scaled, Outcome};
use crate::spans::Spans;
use crate::{alloc, sys, Ctx};
use btrace_core::event::encoded_len;
use btrace_core::{BTrace, Config, Producer};
use btrace_persist::{FrameEncoding, FrameSink, PipelineConfig, StreamPipeline};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-layer metrics this workload reports.
pub const LAYERS: &[&str] = &[
    "core.record.ns_p50",
    "core.record.ns_p99",
    "core.record.allocs_per_event",
    "core.stats.closes_per_mevent",
    "core.stats.skips_per_mevent",
    "core.stream.missed_blocks",
    "persist.pipeline.drain.cpu_ns_per_event",
    "persist.pipeline.batch.cpu_ns_per_event",
    "persist.pipeline.encode.cpu_ns_per_event",
    "persist.pipeline.sink.cpu_ns_per_event",
    "persist.pipeline.drain.latency_us_p50",
    "persist.pipeline.batch.latency_us_p50",
    "persist.pipeline.encode.latency_us_p50",
    "persist.pipeline.sink.latency_us_p50",
    "persist.pipeline.drain.queue_wait_us_p50",
    "persist.pipeline.batch.queue_wait_us_p50",
    "persist.pipeline.encode.queue_wait_us_p50",
    "persist.pipeline.sink.queue_wait_us_p50",
    "persist.pipeline.batch.dropped",
    "persist.pipeline.encode.dropped",
    "persist.pipeline.sink.dropped",
    "persist.pipeline.allocs_per_event",
    "persist.sink.events_per_frame",
    "bench.generator.late_us_p99",
];

const CORES: usize = 4;
const BLOCK_BYTES: usize = 4096;
/// Ring size: several hundred ms of entries at the rate (see `warm_up`).
const RING_BYTES: usize = 16 << 20;
/// Nanoseconds between two events' due times: 1 M events/s.
const SPACING_NS: u64 = 1_000;
/// Events per burst: 1 ms of the schedule.
const BURST: u64 = 1_000;
const POOL: usize = 1024;
const SETUPS: usize = 3;
/// Pipeline thread names as the kernel keeps them (cut to 15 bytes).
const STAGES: [(&str, &str); 4] = [
    ("drain", "btrace-stream-d"),
    ("batch", "btrace-stream-b"),
    ("encode", "btrace-stream-e"),
    ("sink", "btrace-stream-s"),
];

/// Offsets inside a frame's trailing `FIDX` footer (40 bytes, then an
/// 8-byte checksum).
const FOOTER_FROM_END: usize = 48;

#[derive(Debug, Default)]
struct SinkTally {
    frames: u64,
    events: u64,
    payload_bytes: u64,
    bad_frames: u64,
    /// Only while measuring:
    window_frames: u64,
    window_events: u64,
    window_bytes: u64,
    lags_ns: Vec<u64>,
}

/// Reads each frame's footer, keeps the tallies, and drops the frame.
struct FooterSink {
    epoch: Instant,
    measuring: Arc<AtomicBool>,
    tally: Arc<Mutex<SinkTally>>,
}

impl FrameSink for FooterSink {
    fn write_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        let arrival = self.epoch.elapsed().as_nanos() as u64;
        let mut t = self.tally.lock().expect("sink tally lock is never poisoned");
        t.frames += 1;
        let Some(footer) = frame.len().checked_sub(FOOTER_FROM_END).map(|at| &frame[at..]) else {
            t.bad_frames += 1;
            return Ok(());
        };
        if &footer[..4] != b"FIDX" {
            t.bad_frames += 1;
            return Ok(());
        }
        let u64_at =
            |at: usize| u64::from_le_bytes(footer[at..at + 8].try_into().expect("8 bytes"));
        let oldest = u64_at(4);
        let events = u32::from_le_bytes(footer[28..32].try_into().expect("4 bytes")) as u64;
        t.events += events;
        t.payload_bytes += u64_at(32);
        if self.measuring.load(Ordering::Relaxed) {
            t.window_frames += 1;
            t.window_events += events;
            t.window_bytes += frame.len() as u64;
            t.lags_ns.push(arrival.saturating_sub(oldest));
        }
        Ok(())
    }
}

struct Rig {
    epoch: Instant,
    tracer: Arc<BTrace>,
    producers: Vec<Producer>,
    pipeline: StreamPipeline,
    measuring: Arc<AtomicBool>,
    tally: Arc<Mutex<SinkTally>>,
    pool: Vec<Payload>,
    rng: SplitMix64,
    /// Due time of the next event, ns since `epoch`.
    next_due: u64,
    recorded: u64,
    recorded_payload: u64,
}

/// What the generator saw while measuring.
#[derive(Default)]
struct GenSamples {
    record_ns: Vec<f64>,
    late_ns: Vec<u64>,
    allocs: u64,
}

impl Rig {
    fn new(ctx: &Ctx, spans: &mut Spans) -> Result<Rig, String> {
        let epoch = Instant::now();
        let config = Config::new(CORES).block_bytes(BLOCK_BYTES).buffer_bytes(RING_BYTES);
        let tracer = Arc::new(BTrace::new(config).map_err(|e| e.to_string())?);
        let producers = (0..CORES)
            .map(|c| tracer.producer(c).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let measuring = Arc::new(AtomicBool::new(false));
        let tally = Arc::new(Mutex::new(SinkTally::default()));
        let sink =
            FooterSink { epoch, measuring: Arc::clone(&measuring), tally: Arc::clone(&tally) };
        let pipeline_config = PipelineConfig {
            encoding: FrameEncoding::Compressed,
            drain_threads: 1,
            ..PipelineConfig::default()
        };
        let pipeline = spans.time("persist.pipeline.spawn", || {
            StreamPipeline::spawn(Arc::clone(&tracer), Box::new(sink), pipeline_config)
        });
        let mut rig = Rig {
            epoch,
            tracer,
            producers,
            pipeline,
            measuring,
            tally,
            pool: payload_pool(ctx.seed, POOL),
            rng: SplitMix64::new(ctx.seed ^ 0x6c69_7665),
            next_due: 0,
            recorded: 0,
            recorded_payload: 0,
        };
        rig.warm_up(spans)?;
        Ok(rig)
    }

    /// Runs the schedule until the ring has wrapped once, so every ring page
    /// is touched and the pipeline is in steady state before timing.
    fn warm_up(&mut self, spans: &mut Spans) -> Result<(), String> {
        let mean = self.pool.iter().map(|p| encoded_len(p.bytes.len())).sum::<usize>() as f64
            / self.pool.len() as f64;
        let wrap_ns = (RING_BYTES as f64 / mean * SPACING_NS as f64) as u64;
        self.next_due = self.epoch.elapsed().as_nanos() as u64;
        self.run(self.next_due + wrap_ns * 11 / 10, spans, None)
    }

    /// Sends 1 ms bursts until the schedule reaches `until` (ns since
    /// epoch), sleeping between bursts. Samples go to `samples` if given.
    fn run(
        &mut self,
        until: u64,
        spans: &mut Spans,
        mut samples: Option<&mut GenSamples>,
    ) -> Result<(), String> {
        let mut picks = [0u16; BURST as usize];
        while self.next_due < until {
            let now = self.epoch.elapsed().as_nanos() as u64;
            if now < self.next_due {
                std::thread::sleep(Duration::from_nanos(self.next_due - now));
                continue;
            }
            for p in picks.iter_mut() {
                *p = self.rng.below(POOL as u64) as u16;
            }
            let open = spans.enter("core.record");
            let a0 = alloc::thread_allocs();
            let t0 = Instant::now();
            let mut payload = 0u64;
            for (k, &pick) in picks.iter().enumerate() {
                let p = &self.pool[pick as usize];
                let stamp = self.next_due + k as u64 * SPACING_NS;
                self.producers[k % CORES]
                    .record_with(stamp, p.tid, &p.bytes)
                    .map_err(|e| format!("record_with failed: {e}"))?;
                payload += p.bytes.len() as u64;
            }
            let elapsed = t0.elapsed();
            let allocs = alloc::thread_allocs() - a0;
            spans.exit(open);
            if let Some(s) = samples.as_deref_mut() {
                s.record_ns.push(elapsed.as_nanos() as f64 / BURST as f64);
                s.late_ns.push(now - self.next_due);
                s.allocs += allocs;
            }
            self.recorded += BURST;
            self.recorded_payload += payload;
            self.next_due += BURST * SPACING_NS;
        }
        Ok(())
    }
}

/// Counters read at the edges of the timed window.
struct Snapshot {
    process_cpu: u64,
    generator_cpu: u64,
    process_allocs: u64,
    generator_allocs: u64,
    threads: Option<Vec<(String, u64)>>,
    closes: u64,
    skips: u64,
    missed_blocks: u64,
}

impl Snapshot {
    fn take(rig: &Rig) -> Snapshot {
        let stats = rig.tracer.stats();
        Snapshot {
            process_cpu: sys::process_cpu_ns(),
            generator_cpu: sys::thread_cpu_ns(),
            process_allocs: alloc::process_allocs(),
            generator_allocs: alloc::thread_allocs(),
            threads: sys::thread_cpu_by_name(Path::new("/proc/self/task")),
            closes: stats.closes,
            skips: stats.skips,
            missed_blocks: rig.pipeline.stats().missed_blocks,
        }
    }
}

pub fn measure(ctx: &Ctx, spans: &mut Spans) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut rig: Option<Rig> = None;
    for _ in 0..SETUPS {
        if let Some(old) = rig.take() {
            spans.time("persist.pipeline.stop", || old.pipeline.stop());
        }
        let t0 = Instant::now();
        rig = Some(Rig::new(ctx, spans)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one setup");

    let before = Snapshot::take(&rig);
    let recorded0 = rig.recorded;
    let mut gen = GenSamples::default();
    rig.measuring.store(true, Ordering::Relaxed);
    let until = rig.epoch.elapsed().as_nanos() as u64 + ctx.window.as_nanos() as u64;
    spans.next_op();
    rig.run(until, spans, Some(&mut gen))?;
    rig.measuring.store(false, Ordering::Relaxed);
    let after = Snapshot::take(&rig);
    let recorded = rig.recorded - recorded0;

    let final_stats = spans.time("persist.pipeline.stop", || rig.pipeline.stop());
    let tally = std::mem::take(&mut *rig.tally.lock().expect("sink tally lock is never poisoned"));

    // Conservation: what reached the sink is what was recorded, minus loss
    // the pipeline counted (missed blocks, dropped items).
    let counted_loss =
        final_stats.missed_blocks + final_stats.stages.iter().map(|s| s.dropped).sum::<u64>();
    let lost = rig.recorded.saturating_sub(tally.events);
    if tally.bad_frames > 0 {
        return Err(format!("{} frames without a readable FIDX footer", tally.bad_frames));
    }
    if tally.events > rig.recorded || (counted_loss == 0 && tally.events != rig.recorded) {
        return Err(format!(
            "sink saw {} events, generator recorded {}",
            tally.events, rig.recorded
        ));
    }
    if counted_loss == 0 && tally.payload_bytes != rig.recorded_payload {
        return Err(format!(
            "sink saw {} payload bytes, generator recorded {}",
            tally.payload_bytes, rig.recorded_payload
        ));
    }
    if tally.window_events == 0 {
        return Err("no frame reached the sink while measuring".into());
    }

    let delivered = tally.window_events as f64;
    let mut lags_ms = scaled(&tally.lags_ns, 1e-6);
    let export_cpu =
        (after.process_cpu - before.process_cpu) - (after.generator_cpu - before.generator_cpu);
    let e2e = vec![
        metric("setup_s", median(&mut setups).expect("setups ran"), "s"),
        metric("peak_rss_mib", sys::peak_rss_mib(), "MiB"),
        metric("bytes_per_event", tally.window_bytes as f64 / delivered, "B"),
        metric("latency_ms_p50", quantile(&mut lags_ms, 0.5).expect("frames arrived"), "ms"),
        metric("latency_ms_p90", quantile(&mut lags_ms, 0.9).expect("frames arrived"), "ms"),
        metric("cpu_ns_per_event", export_cpu as f64 / delivered, "ns"),
    ];

    let mut layers = Vec::new();
    if spans.on() {
        let per_mevent = |d: u64| d as f64 * 1e6 / recorded as f64;
        let late_us = quantile(&mut scaled(&gen.late_ns, 1e-3), 0.99).expect("bursts ran");
        layers.extend([
            metric(
                "core.record.ns_p50",
                quantile(&mut gen.record_ns, 0.5).expect("bursts ran"),
                "ns",
            ),
            metric(
                "core.record.ns_p99",
                quantile(&mut gen.record_ns, 0.99).expect("bursts ran"),
                "ns",
            ),
            metric("core.record.allocs_per_event", gen.allocs as f64 / recorded as f64, "count"),
            metric(
                "core.stats.closes_per_mevent",
                per_mevent(after.closes - before.closes),
                "count",
            ),
            metric("core.stats.skips_per_mevent", per_mevent(after.skips - before.skips), "count"),
            metric(
                "core.stream.missed_blocks",
                (after.missed_blocks - before.missed_blocks) as f64,
                "count",
            ),
        ]);
        for (i, (stage, _)) in STAGES.iter().enumerate() {
            let s = &final_stats.stages[i];
            layers.push(metric(
                format!("persist.pipeline.{stage}.latency_us_p50"),
                s.latency.p50 as f64 / 1e3,
                "us",
            ));
            layers.push(metric(
                format!("persist.pipeline.{stage}.queue_wait_us_p50"),
                s.queue_wait.p50 as f64 / 1e3,
                "us",
            ));
            if i > 0 {
                layers.push(metric(
                    format!("persist.pipeline.{stage}.dropped"),
                    s.dropped as f64,
                    "count",
                ));
            }
        }
        if let (Some(t0), Some(t1)) = (&before.threads, &after.threads) {
            for (stage, comm) in STAGES {
                if let (Some(a), Some(b)) = (sys::cpu_of(t0, comm), sys::cpu_of(t1, comm)) {
                    layers.push(metric(
                        format!("persist.pipeline.{stage}.cpu_ns_per_event"),
                        (b - a) as f64 / delivered,
                        "ns",
                    ));
                }
            }
        }
        let pipeline_allocs = (after.process_allocs - before.process_allocs)
            - (after.generator_allocs - before.generator_allocs);
        layers.extend([
            metric(
                "persist.pipeline.allocs_per_event",
                pipeline_allocs as f64 / delivered,
                "count",
            ),
            metric(
                "persist.sink.events_per_frame",
                delivered / tally.window_frames as f64,
                "count",
            ),
            metric("bench.generator.late_us_p99", late_us, "us"),
        ]);
    }
    Ok(Outcome { e2e, layers, attempted: rig.recorded, failed: lost })
}
