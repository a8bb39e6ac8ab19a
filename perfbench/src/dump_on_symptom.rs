//! `dump_on_symptom`: closed loop, one thread. Record flat out on the §5
//! tracer (12 cores, 4 KiB blocks, A = 192, 12 MiB) with eShop-2's per-core
//! weights, and after every ≥ 2 buffer capacities of recording dump the
//! ring with `Collector::trigger`, as a phone does when a symptom fires.

use crate::gen::{payload_pool, schedule, Payload, Slot};
use crate::report::{median, metric, quantile, scaled, Outcome};
use crate::spans::Spans;
use crate::{alloc, sys, Ctx};
use btrace_analysis::analyze;
use btrace_bench::harness;
use btrace_core::event::encoded_len;
use btrace_core::sink::CollectedEvent;
use btrace_core::{BTrace, Producer};
use btrace_persist::{Collector, CollectorConfig, TraceDump};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Per-layer metrics this workload reports.
pub const LAYERS: &[&str] = &[
    "core.record.ns_p50",
    "core.record.ns_p99",
    "core.record.allocs_per_event",
    "core.stats.closes_per_mevent",
    "core.stats.skips_per_mevent",
    "core.consumer.collect_ms",
    "core.consumer.allocs_per_event",
    "core.retention.effectivity",
    "persist.dump.write_ms",
];

const POOL: usize = 1024;
/// Schedule length; stamp `s` uses slot `s % SCHEDULE`.
const SCHEDULE: usize = 1 << 20;
/// Events per timed recording chunk.
const CHUNK: u64 = 4096;
const SETUPS: usize = 5;
const KEEP: usize = 2;

struct Rig {
    tracer: Arc<BTrace>,
    producers: Vec<Producer>,
    collector: Collector<BTrace>,
    dir: PathBuf,
    pool: Vec<Payload>,
    slots: Vec<Slot>,
    /// Events recorded between two dumps.
    per_cycle: u64,
    next_stamp: u64,
}

impl Rig {
    fn new(ctx: &Ctx) -> Result<Rig, String> {
        let tracer = Arc::new(harness::btrace());
        let producers = (0..harness::CORES)
            .map(|c| tracer.producer(c).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let dir = ctx.work.join("dumps");
        // Start empty: the collector's rotation counts every dump it finds.
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        }
        let config = CollectorConfig::new(&dir).keep(KEEP).prefix("symptom");
        let collector = Collector::new(Arc::clone(&tracer), config).map_err(|e| e.to_string())?;
        let pool = payload_pool(ctx.seed, POOL);
        let weights =
            btrace_replay::scenarios::by_name("eShop-2").expect("eShop-2 exists").core_rates;
        let slots = schedule(ctx.seed, SCHEDULE, &weights, POOL);
        let mean =
            slots.iter().map(|s| encoded_len(pool[s.payload as usize].bytes.len())).sum::<usize>()
                as f64
                / SCHEDULE as f64;
        // 2.25 capacities of entries: ≥ 2 capacities even after block
        // headers and filler, so the ring has wrapped and closing has acted.
        let per_cycle =
            (2.25 * tracer.capacity_bytes() as f64 / mean / CHUNK as f64).ceil() as u64 * CHUNK;
        let mut rig =
            Rig { tracer, producers, collector, dir, pool, slots, per_cycle, next_stamp: 0 };
        // Warm-up: touch every ring page and the dump path once.
        rig.record(rig.per_cycle)?;
        let path = rig.collector.trigger("warm-up").map_err(|e| e.to_string())?;
        std::fs::remove_file(path).map_err(|e| e.to_string())?;
        Ok(rig)
    }

    /// Records `n` scheduled events; returns nothing but errors.
    fn record(&mut self, n: u64) -> Result<(), String> {
        for _ in 0..n {
            let stamp = self.next_stamp;
            let slot = self.slots[stamp as usize % SCHEDULE];
            let p = &self.pool[slot.payload as usize];
            self.producers[slot.core as usize]
                .record_with(stamp, p.tid, &p.bytes)
                .map_err(|e| format!("record_with failed: {e}"))?;
            self.next_stamp += 1;
        }
        Ok(())
    }

    /// Checks a dump read back from disk: every payload and core is the one
    /// its stamp selects, per-core stamps increase strictly, and the latest
    /// fragment covers at least `1 − A/N` of the buffer. Returns the event
    /// count and the effectivity ratio.
    fn check(&self, path: &Path) -> Result<(usize, f64), String> {
        let dump = TraceDump::read_from(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let events = dump.events();
        if events.is_empty() {
            return Err("empty dump".into());
        }
        let mut last = [None; harness::CORES];
        for e in events {
            let slot = self.slots[e.stamp as usize % SCHEDULE];
            let p = &self.pool[slot.payload as usize];
            if e.core != slot.core as u16 || e.payload != p.bytes || e.tid != p.tid {
                return Err(format!("dumped event {} differs from its scheduled input", e.stamp));
            }
            let prev = &mut last[e.core as usize];
            if prev.is_some_and(|s| s >= e.stamp) {
                return Err(format!(
                    "core {} stamps not strictly increasing at {}",
                    e.core, e.stamp
                ));
            }
            *prev = Some(e.stamp);
        }
        let collected: Vec<CollectedEvent> = events
            .iter()
            .map(|e| CollectedEvent {
                stamp: e.stamp,
                core: e.core,
                tid: e.tid,
                stored_bytes: encoded_len(e.payload.len()) as u32,
            })
            .collect();
        let capacity = self.tracer.capacity_bytes();
        let effectivity = analyze(&collected, capacity).effectivity_ratio;
        let bound = 1.0 - self.tracer.active_blocks() as f64 / self.tracer.capacity_blocks() as f64;
        if effectivity < bound {
            return Err(format!("effectivity {effectivity:.4} below 1 − A/N = {bound:.4}"));
        }
        Ok((events.len(), effectivity))
    }
}

/// The trigger's own steps (`TraceDump::capture`, `TraceDump::write_to`,
/// rotation), called one by one so each gets a span.
fn traced_trigger(
    rig: &Rig,
    spans: &mut Spans,
    seq: u64,
    capture_allocs: &mut u64,
) -> Result<PathBuf, String> {
    let op = spans.enter("persist.collector.trigger");
    let a0 = alloc::thread_allocs();
    let dump = spans.time("core.consumer.collect", || TraceDump::capture("symptom", &rig.tracer));
    *capture_allocs += alloc::thread_allocs() - a0;
    let path = rig.dir.join(format!("traced-{seq:06}.btd"));
    spans.time("persist.dump.write", || dump.write_to(&path)).map_err(|e| e.to_string())?;
    if let Some(old) = seq.checked_sub(KEEP as u64) {
        std::fs::remove_file(rig.dir.join(format!("traced-{old:06}.btd")))
            .map_err(|e| e.to_string())?;
    }
    spans.exit(op);
    Ok(path)
}

pub fn measure(ctx: &Ctx, spans: &mut Spans) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut rig = None;
    for _ in 0..SETUPS {
        drop(rig.take());
        let t0 = Instant::now();
        rig = Some(Rig::new(ctx)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one setup");

    let (mut record_ns, mut dump_ns, mut bytes_per_event, mut effectivity) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut cpu_ns = 0u64;
    let (mut record_allocs, mut capture_allocs, mut captured) = (0u64, 0u64, 0u64);
    let stats0 = rig.tracer.stats();
    let recorded0 = rig.next_stamp;
    let mut cycles = 0u64;
    let end = Instant::now() + ctx.window;
    while Instant::now() < end {
        spans.next_op();
        let cpu0 = sys::thread_cpu_ns();
        for _ in 0..rig.per_cycle / CHUNK {
            let open = spans.enter("core.record");
            let a0 = alloc::thread_allocs();
            let t0 = Instant::now();
            rig.record(CHUNK)?;
            record_ns.push(t0.elapsed().as_nanos() as f64 / CHUNK as f64);
            record_allocs += alloc::thread_allocs() - a0;
            spans.exit(open);
        }
        let t0 = Instant::now();
        let path = if spans.on() {
            traced_trigger(&rig, spans, cycles, &mut capture_allocs)?
        } else {
            rig.collector.trigger("symptom").map_err(|e| e.to_string())?
        };
        dump_ns.push(t0.elapsed().as_nanos() as u64);
        cpu_ns += sys::thread_cpu_ns() - cpu0;
        cycles += 1;
        // Read-back check, outside the timed and CPU-counted region.
        let (events, eff) = rig.check(&path)?;
        let len = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        bytes_per_event.push(len as f64 / events as f64);
        effectivity.push(eff);
        captured += events as u64;
    }
    let recorded = rig.next_stamp - recorded0;
    let stats1 = rig.tracer.stats();

    let mut dump_ms = scaled(&dump_ns, 1e-6);
    let e2e = vec![
        metric("setup_s", median(&mut setups).expect("setups ran"), "s"),
        metric("peak_rss_mib", sys::peak_rss_mib(), "MiB"),
        metric("bytes_per_event", median(&mut bytes_per_event).ok_or("no dump")?, "B"),
        metric("latency_ms_p50", quantile(&mut dump_ms, 0.5).ok_or("no dump")?, "ms"),
        metric("latency_ms_p90", quantile(&mut dump_ms, 0.9).ok_or("no dump")?, "ms"),
        metric("cpu_ns_per_event", cpu_ns as f64 / recorded as f64, "ns"),
    ];
    let mut layers = Vec::new();
    if spans.on() {
        let per_mevent = |d: u64| d as f64 * 1e6 / recorded as f64;
        let mut collect_ms = scaled(&spans.self_times("core.consumer.collect"), 1e-6);
        let mut write_ms = scaled(&spans.self_times("persist.dump.write"), 1e-6);
        layers = vec![
            metric("core.record.ns_p50", quantile(&mut record_ns, 0.5).ok_or("no record")?, "ns"),
            metric("core.record.ns_p99", quantile(&mut record_ns, 0.99).ok_or("no record")?, "ns"),
            metric("core.record.allocs_per_event", record_allocs as f64 / recorded as f64, "count"),
            metric(
                "core.stats.closes_per_mevent",
                per_mevent(stats1.closes - stats0.closes),
                "count",
            ),
            metric("core.stats.skips_per_mevent", per_mevent(stats1.skips - stats0.skips), "count"),
            metric("core.consumer.collect_ms", median(&mut collect_ms).ok_or("no dump")?, "ms"),
            metric(
                "core.consumer.allocs_per_event",
                capture_allocs as f64 / captured as f64,
                "count",
            ),
            metric(
                "core.retention.effectivity",
                median(&mut effectivity).ok_or("no dump")?,
                "ratio",
            ),
            metric("persist.dump.write_ms", median(&mut write_ms).ok_or("no dump")?, "ms"),
        ];
    }
    Ok(Outcome { e2e, layers, attempted: cycles, failed: 0 })
}
