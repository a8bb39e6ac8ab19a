//! Command implementations. Each returns a process exit code.

use btrace_analysis::{diagnose, gap_map, GapMapOptions, Table, TraceAnalysis, TracePartial};
use btrace_atrace::Category;
use btrace_baselines::{Bbq, PerCoreDropNewest, PerCoreOverwrite, PerThread};
use btrace_core::sink::CollectedEvent;
use btrace_core::{BTrace, Backing, Config, FaultPlan, RingSnapshot};
use btrace_persist::{
    analyze_frames, analyze_frames_with, write_snapshot, AnalyzeOptions, Backpressure,
    FileFrameSink, FrameSink, JsonlExporter, NullFrameSink, ParallelAnalysis, PipelineConfig,
    Predicate, PrometheusExporter, Query, StreamPipeline, TraceDump, TraceStore,
};
use btrace_replay::{scenarios, ReplayConfig, ReplayReport, Replayer};
use btrace_telemetry::{
    degraded, ControllerConfig, ControllerThread, EventKind, Exporter, FlightRecorder,
    HealthSnapshot, ResizeTarget, Sampler, SamplerConfig,
};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const CORES: usize = 12;
const TOTAL: usize = 12 << 20;
const BLOCK: usize = 4096;

/// `btrace scenarios`
pub fn scenarios() -> i32 {
    let mut table = Table::new(vec![
        "Name".into(),
        "Events (30 s)".into(),
        "Skew".into(),
        "Threads/core/s".into(),
        "Threads/core 30s".into(),
    ]);
    for s in scenarios::all() {
        table.row(vec![
            s.name.to_string(),
            s.total_events().to_string(),
            format!("{:.1}x", s.skew()),
            s.threads_per_core_sec.to_string(),
            s.total_threads_per_core.to_string(),
        ]);
    }
    println!("{}", table.render());
    0
}

/// `btrace demo`
pub fn demo() -> i32 {
    let tracer = match BTrace::new(
        Config::new(4).active_blocks(64).block_bytes(BLOCK).buffer_bytes(1 << 20),
    ) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    std::thread::scope(|scope| {
        for core in 0..4 {
            let producer = tracer.producer(core).expect("core in range");
            scope.spawn(move || {
                for i in 0..50_000u64 {
                    producer
                        .record_with(
                            core as u64 * 1_000_000 + i,
                            i as u32 % 17,
                            b"demo: synthetic event",
                        )
                        .expect("payload fits");
                }
            });
        }
    });
    let readout = tracer.consumer().collect();
    let stats = tracer.stats();
    println!("recorded 200000 events from 4 cores into a 1 MiB buffer");
    println!(
        "retained {} events ({} KiB) in {} readable blocks",
        readout.events.len(),
        readout.stored_bytes() / 1024,
        readout.blocks.readable
    );
    println!(
        "mechanisms: {} advances, {} closes, {} skips, {:.2}% dummy overhead",
        stats.advances,
        stats.closes,
        stats.skips,
        stats.dummy_fraction() * 100.0
    );
    0
}

fn run(scenario_name: &str, tracer_name: &str, scale: f64) -> Result<ReplayReport, String> {
    let scenario = scenarios::by_name(scenario_name)
        .ok_or_else(|| format!("unknown scenario {scenario_name} (try `btrace scenarios`)"))?;
    let config = ReplayConfig { scale, latency_sample_every: 64, ..ReplayConfig::table2() };
    let replayer = Replayer::new(scenario, config);
    let report = match tracer_name {
        "BTrace" => {
            let t = BTrace::new(
                Config::new(CORES).active_blocks(16 * CORES).block_bytes(BLOCK).buffer_bytes(TOTAL),
            )
            .map_err(|e| e.to_string())?;
            replayer.run(&t)
        }
        "BBQ" => replayer.run(&Bbq::new(TOTAL, BLOCK)),
        "ftrace" => replayer.run(&PerCoreOverwrite::new(CORES, TOTAL)),
        "LTTng" => replayer.run(&PerCoreDropNewest::new(CORES, TOTAL, 4)),
        "VTrace" => {
            replayer.run(&PerThread::new(TOTAL, scenario.total_threads_per_core as usize * CORES))
        }
        other => return Err(format!("unknown tracer {other} (BTrace|BBQ|ftrace|LTTng|VTrace)")),
    };
    Ok(report)
}

fn print_report_analysis(events: &[CollectedEvent], capacity: usize, written: Option<u64>) {
    print_trace_analysis(&TracePartial::map(events).finish(capacity, 8), written);
}

fn print_trace_analysis(analysis: &TraceAnalysis, written: Option<u64>) {
    let metrics = &analysis.metrics;
    println!("events retained     {}", metrics.retained_events);
    if let Some(written) = written {
        println!("events written      {written}");
    }
    println!("retained bytes      {:.2} MB", metrics.retained_bytes as f64 / (1 << 20) as f64);
    println!(
        "latest fragment     {:.2} MB ({} events)",
        metrics.latest_fragment_bytes as f64 / (1 << 20) as f64,
        metrics.latest_fragment_events
    );
    println!("loss rate           {:.2}%", metrics.loss_rate * 100.0);
    println!("fragments           {}", metrics.fragments);
    println!("effectivity ratio   {:.3}", metrics.effectivity_ratio);
    if let Some(skew) = analysis.core_skew {
        println!("core skew           {skew:.1}x");
    }
    println!("\nper-core breakdown:");
    let mut table =
        Table::new(vec!["Core".into(), "Events".into(), "KiB".into(), "Stamp range".into()]);
    for c in &analysis.per_core {
        table.row(vec![
            format!("C{}", c.key),
            c.events.to_string(),
            (c.bytes / 1024).to_string(),
            format!("{}..{}", c.oldest, c.newest),
        ]);
    }
    println!("{}", table.render());
    println!("hottest threads:");
    let mut table = Table::new(vec!["Tid".into(), "Events".into(), "KiB".into()]);
    for t in &analysis.per_thread {
        table.row(vec![t.key.to_string(), t.events.to_string(), (t.bytes / 1024).to_string()]);
    }
    println!("{}", table.render());
}

/// `btrace replay`
pub fn replay(scenario: &str, tracer: &str, scale: f64, threads: usize) -> i32 {
    match run(scenario, tracer, scale) {
        Ok(report) => {
            println!("replayed {} against {} (scale {scale})\n", report.scenario, report.tracer);
            print_report_analysis(&report.retained, report.capacity_bytes, Some(report.written));
            if report.dropped_at_record > 0 {
                println!("dropped at record   {}", report.dropped_at_record);
            }
            if threads > 1 {
                let per_fragment = (report.retained.len() / (threads * 2)).max(1);
                let par = report.parallel_analysis(threads, per_fragment, 8);
                let seq = report.parallel_analysis(1, per_fragment, 8);
                let agree = par.analysis == seq.analysis
                    && par.latency == seq.latency
                    && par.state.merged == seq.state.merged;
                println!(
                    "\nfragment-parallel readout: {} fragments on {} threads, {} hand-off defects, \
                     {} the sequential analysis",
                    par.fragments,
                    par.threads,
                    par.state.defects.len(),
                    if agree { "bit-identical to" } else { "DIVERGES from" },
                );
                if !agree {
                    return 1;
                }
            }
            0
        }
        Err(message) => {
            eprintln!("error: {message}");
            1
        }
    }
}

/// `btrace analyze`
pub fn analyze(file: &str, threads: usize, fragments: usize, map: bool) -> i32 {
    let Some(store) = open_store(file) else { return 1 };
    // The analyzer is strict; the store's scan already names any damage.
    if let Some(defect) = store.defects().first() {
        eprintln!("error: {file}: {defect}");
        return 1;
    }
    let frames = store.bytes();
    let mut opts = AnalyzeOptions { threads, fragments, ..AnalyzeOptions::default() };
    let mut out = match analyze_frames(frames, &opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    if map && !out.state.is_empty() {
        // Second pass with the window sized to the observed stamp range;
        // fragment splitting and merge order are identical both times.
        let window = out.state.last_stamp - out.state.first_stamp + 1;
        opts.gap_map = Some(GapMapOptions { window, width: 72 });
        out = match analyze_frames(frames, &opts) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
    }
    print_parallel_analysis(&out);
    i32::from(!out.defects.is_empty())
}

fn print_parallel_analysis(out: &ParallelAnalysis) {
    println!("frames              {}", out.frames);
    println!("fragments           {} on {} thread(s)", out.work.len(), out.threads);
    let total_events: u64 = out.work.iter().map(|w| w.events).sum();
    if !out.work.is_empty() && total_events > 0 {
        println!("\nper-fragment work:");
        let mut table = Table::new(vec![
            "Fragment".into(),
            "Frames".into(),
            "Events".into(),
            "KiB".into(),
            "Busy us".into(),
            "Share".into(),
        ]);
        for w in &out.work {
            table.row(vec![
                format!("F{}", w.fragment),
                w.frames.to_string(),
                w.events.to_string(),
                (w.bytes / 1024).to_string(),
                (w.busy_ns / 1000).to_string(),
                format!("{:.1}%", w.events as f64 * 100.0 / total_events as f64),
            ]);
        }
        println!("{}", table.render());
    }
    for defect in &out.defects {
        println!("boundary defect: {defect}");
    }
    println!();
    print_trace_analysis(&out.analysis, None);
    if let Some(map) = &out.gap_map {
        println!("retention gap map (old -> new):");
        println!("|{map}|");
    }
}

/// Opens a `.btsf` stream or a `.btd` dump in place, through one mmap.
fn open_store(file: &str) -> Option<TraceStore> {
    TraceStore::open(Path::new(file))
        .inspect_err(|e| eprintln!("error: cannot open {file}: {e}"))
        .ok()
}

/// Resolves a `--category` argument: a catalog label (`sched`), or a raw
/// bitmask (`0x4` / `4`).
fn parse_category(arg: &str) -> Result<Category, String> {
    for &(cat, label, _) in Category::catalog() {
        if label.eq_ignore_ascii_case(arg) {
            return Ok(cat);
        }
    }
    let bits = match arg.strip_prefix("0x") {
        Some(hex) => u32::from_str_radix(hex, 16).ok(),
        None => arg.parse().ok(),
    };
    let cat = bits.map(Category::from_bits).unwrap_or(Category::NONE);
    if cat.is_empty() {
        let names: Vec<&str> = Category::catalog().iter().map(|&(_, l, _)| l).collect();
        return Err(format!("unknown category {arg}; known: {}", names.join(", ")));
    }
    Ok(cat)
}

/// `btrace query`
#[allow(clippy::too_many_arguments)] // mirrors the option surface 1:1
pub fn query(
    file: &str,
    since: Option<u64>,
    until: Option<u64>,
    cores: &[u16],
    category: Option<&str>,
    threads: usize,
    metrics: bool,
    map: bool,
    json: bool,
) -> i32 {
    let category = match category.map(parse_category).transpose() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let predicate = Predicate { since, until, cores: cores.to_vec(), category };
    let Some(store) = open_store(file) else { return 1 };
    let mut q = Query::new(predicate.clone());
    let mut report = q.run(&store);
    if map && !report.state.is_empty() {
        // Second pass with the window sized to the matched stamp range.
        let window = report.state.last_stamp - report.state.first_stamp + 1;
        q.options.gap_map = Some(GapMapOptions { window, width: 72 });
        report = q.run(&store);
    }
    if threads > 1 {
        // The pruned fragment-parallel analyzer shares the query's plan;
        // cross-check the two paths like `replay --threads` does.
        let opts = AnalyzeOptions { threads, gap_map: q.options.gap_map, ..Default::default() };
        match analyze_frames_with(store.bytes(), &opts, Some(&predicate)) {
            Ok(par) => {
                let agree = par.analysis == report.analysis
                    && par.state == report.state
                    && par.gap_map == report.gap_map;
                if !agree {
                    eprintln!("error: fragment-parallel query DIVERGES from the store query");
                    return 1;
                }
            }
            Err(e) => {
                // The store query tolerates per-frame corruption; the strict
                // parallel path refuses it. Not a divergence.
                eprintln!("note: fragment-parallel cross-check skipped: {e}");
            }
        }
    }
    if json {
        let mut line = String::from("{");
        line.push_str(&format!("\"file\":\"{}\"", file.escape_default()));
        line.push_str(&format!(",\"frames\":{}", report.frames_total));
        line.push_str(&format!(",\"frames_decoded\":{}", report.frames_decoded));
        line.push_str(&format!(",\"frames_pruned\":{}", report.frames_pruned));
        line.push_str(&format!(",\"matched_events\":{}", report.matched_events));
        match report.newest_stamp {
            Some(s) => line.push_str(&format!(",\"newest_stamp\":{s}")),
            None => line.push_str(",\"newest_stamp\":null"),
        }
        line.push_str(&format!(",\"defects\":{}", report.defects.len()));
        line.push_str(&format!(",\"payload_bytes\":{}", report.state.bytes));
        line.push('}');
        println!("{line}");
    } else {
        println!(
            "frames              {} ({} decoded, {} pruned by the index)",
            report.frames_total, report.frames_decoded, report.frames_pruned
        );
        println!("matched events      {}", report.matched_events);
        if let Some(newest) = report.newest_stamp {
            println!("newest stamp        {newest}");
        }
        for defect in &report.defects {
            println!("frame defect: {defect}");
        }
        if metrics {
            println!();
            print_trace_analysis(&report.analysis, None);
        }
        if let Some(gap) = &report.gap_map {
            println!("retention gap map (old -> new):");
            println!("|{gap}|");
        }
    }
    i32::from(!report.defects.is_empty())
}

/// `btrace dump`
pub fn dump(scenario: &str, out: &str, scale: f64) -> i32 {
    let tracer = match BTrace::new(
        Config::new(CORES).active_blocks(16 * CORES).block_bytes(BLOCK).buffer_bytes(TOTAL),
    ) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let Some(s) = scenarios::by_name(scenario) else {
        eprintln!("error: unknown scenario {scenario}");
        return 1;
    };
    let config = ReplayConfig { scale, latency_sample_every: 0, ..ReplayConfig::table2() };
    Replayer::new(s, config).run(&tracer);
    let mut snapshot = RingSnapshot::new();
    tracer.consumer().snapshot(&mut snapshot);
    match write_snapshot(Path::new(out), scenario, &snapshot) {
        Ok(()) => {
            println!("wrote {} events to {out}", snapshot.count());
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// Builds the file exporters requested on the command line.
fn file_exporters(
    jsonl: Option<&str>,
    prom: Option<&str>,
) -> Result<Vec<Box<dyn Exporter>>, String> {
    let mut exporters: Vec<Box<dyn Exporter>> = Vec::new();
    if let Some(path) = jsonl {
        exporters
            .push(Box::new(JsonlExporter::create(path).map_err(|e| format!("open {path}: {e}"))?));
    }
    if let Some(path) = prom {
        exporters.push(Box::new(PrometheusExporter::new(path)));
    }
    Ok(exporters)
}

/// Runs a 4-core synthetic load against `tracer` for `duration_ms`,
/// draining periodically so the consumer path shows up in the snapshot.
fn run_synthetic_load(tracer: &BTrace, duration_ms: u64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for core in 0..tracer.cores() {
            let producer = tracer.producer(core).expect("core in range");
            let stop = &stop;
            scope.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    producer
                        .record_with(
                            core as u64 * 1_000_000_000 + i,
                            i as u32 % 17,
                            b"stat: synthetic event",
                        )
                        .expect("payload fits");
                    i += 1;
                    if i.is_multiple_of(4096) {
                        std::thread::yield_now();
                    }
                }
            });
        }
        let mut consumer = tracer.consumer();
        let deadline = std::time::Instant::now() + Duration::from_millis(duration_ms);
        while std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(50.min(duration_ms / 4 + 1)));
            let _ = consumer.collect();
        }
        stop.store(true, Ordering::Relaxed);
    });
}

fn telemetry_tracer() -> Result<BTrace, String> {
    BTrace::new(Config::new(4).active_blocks(64).block_bytes(BLOCK).buffer_bytes(4 << 20))
        .map_err(|e| e.to_string())
}

/// Resize stride of the auto-sized tracer: 64 × 4 KiB = 256 KiB.
const AUTO_STRIDE: usize = 64 * BLOCK;

/// A deliberately small-starting tracer with grow headroom, for the
/// sizing controller: 512 KiB initial, 16 MiB reserved ceiling.
fn resizable_tracer() -> Result<BTrace, String> {
    BTrace::new(
        Config::new(4)
            .active_blocks(64)
            .block_bytes(BLOCK)
            .buffer_bytes(2 * AUTO_STRIDE)
            .max_bytes(64 * AUTO_STRIDE)
            .backing(Backing::Heap),
    )
    .map_err(|e| e.to_string())
}

/// `--auto-size` options for [`stream`].
#[derive(Debug, Clone, Copy)]
pub struct AutoSize {
    /// Hard memory budget in bytes (`None` = the reserved maximum).
    pub budget: Option<u64>,
    /// Loss-rate target in ppm.
    pub target_loss_ppm: u64,
}

/// Spawns the sizing controller against `tracer` with CLI-friendly
/// pacing (10 observations per second).
fn spawn_controller(tracer: &std::sync::Arc<BTrace>, auto: AutoSize) -> ControllerThread {
    let budget = auto.budget.unwrap_or(ResizeTarget::max_bytes(&**tracer));
    ControllerThread::spawn(
        std::sync::Arc::clone(tracer),
        tracer.flight_recorder(),
        ControllerConfig {
            budget_bytes: budget,
            target_loss_ppm: auto.target_loss_ppm,
            stale_after_ms: 1_000,
            ..ControllerConfig::default()
        },
        Duration::from_millis(100),
    )
}

fn print_health_table(snap: &HealthSnapshot) {
    println!(
        "buffer: {} blocks x {} B ({:.1} MiB), {} active (bound 1-A/N = {:.3})",
        snap.capacity_blocks,
        snap.block_bytes,
        snap.capacity_bytes as f64 / (1 << 20) as f64,
        snap.active_blocks,
        snap.effectivity_bound
    );
    println!(
        "counters: {} records, {} advances, {} closes, {} skips, {} repairs, {} resizes",
        snap.records, snap.advances, snap.closes, snap.skips, snap.straggler_repairs, snap.resizes
    );
    println!(
        "effectivity: {:.4} observed vs {:.4} bound; skip rate {:.4}; occupancy {:.2}; {} open blocks",
        snap.effectivity_observed, snap.effectivity_bound, snap.skip_rate, snap.mean_occupancy, snap.open_blocks
    );
    if snap.rates.window_secs > 0.0 {
        println!(
            "rates ({:.2}s window): {:.0} records/s, {:.2} MiB/s, {:.1} advances/s",
            snap.rates.window_secs,
            snap.rates.records_per_sec,
            snap.rates.bytes_per_sec / (1 << 20) as f64,
            snap.rates.advances_per_sec
        );
    }
    let mut table = Table::new(vec![
        "Path".into(),
        "Samples".into(),
        "Mean ns".into(),
        "p50".into(),
        "p90".into(),
        "p99".into(),
        "p999".into(),
        "Max".into(),
    ]);
    for (name, l) in [
        ("record (sampled)", &snap.record_latency),
        ("advance", &snap.advance_latency),
        ("drain", &snap.drain_latency),
    ] {
        table.row(vec![
            name.into(),
            l.count.to_string(),
            format!("{:.0}", l.mean_ns),
            l.p50.to_string(),
            l.p90.to_string(),
            l.p99.to_string(),
            l.p999.to_string(),
            l.max.to_string(),
        ]);
    }
    println!("{}", table.render());
    let mut table = Table::new(vec!["Core".into(), "Records".into(), "KiB".into()]);
    for core in &snap.per_core {
        table.row(vec![
            format!("C{}", core.core),
            core.records.to_string(),
            (core.recorded_bytes / 1024).to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// `btrace stat`
pub fn stat(json: bool, duration_ms: u64, jsonl: Option<&str>, prom: Option<&str>) -> i32 {
    let tracer = match telemetry_tracer() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let exporters = match file_exporters(jsonl, prom) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let mut sampler = Sampler::spawn(
        tracer.clone(),
        exporters,
        SamplerConfig { period: Duration::from_millis((duration_ms / 4).clamp(50, 1000)) },
    );
    run_synthetic_load(&tracer, duration_ms);
    sampler.stop();
    // The final report reflects the finished workload; rate/sequence
    // context comes from the sampler's last periodic snapshot.
    let mut snap = tracer.health_snapshot();
    if let Some(last) = sampler.latest() {
        snap.seq = last.seq;
        snap.unix_ms = last.unix_ms;
        snap.rates = last.rates;
    }
    if json {
        println!("{}", snap.to_json());
    } else {
        print_health_table(&snap);
    }
    0
}

/// Prints one table row per sampled snapshot.
struct WatchExporter;

impl Exporter for WatchExporter {
    fn export(&mut self, s: &HealthSnapshot) -> std::io::Result<()> {
        let stages = if s.stream_stages.is_empty() {
            "-".to_string()
        } else {
            s.stream_stages
                .iter()
                .map(|st| format!("{}:{}/{}", st.stage, st.depth, st.capacity))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "{:>4} {:>6} {:>12} {:>12.0} {:>9.2} {:>9} {:>6} {:>8.4} {:>8.4} {:>6} {:>6} {:>7} {:>8} {}",
            s.seq,
            s.age_ms,
            s.records,
            s.rates.records_per_sec,
            s.rates.bytes_per_sec / (1 << 20) as f64,
            s.advances,
            s.skips,
            s.effectivity_observed,
            s.mean_occupancy,
            s.record_latency.p50,
            s.record_latency.p99,
            s.record_latency.p999,
            stages,
            degraded::describe(s.degraded_bits),
        );
        Ok(())
    }
}

/// `btrace watch`
pub fn watch(period_ms: u64, duration_ms: u64, jsonl: Option<&str>, prom: Option<&str>) -> i32 {
    let tracer = match telemetry_tracer() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let mut exporters = match file_exporters(jsonl, prom) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    println!(
        "{:>4} {:>6} {:>12} {:>12} {:>9} {:>9} {:>6} {:>8} {:>8} {:>6} {:>6} {:>7} {:>8} state",
        "seq",
        "age_ms",
        "records",
        "rec/s",
        "MiB/s",
        "advances",
        "skips",
        "eff",
        "occ",
        "p50",
        "p99",
        "p999",
        "stages"
    );
    exporters.push(Box::new(WatchExporter));
    let mut sampler = Sampler::spawn(
        tracer.clone(),
        exporters,
        SamplerConfig { period: Duration::from_millis(period_ms) },
    );
    run_synthetic_load(&tracer, duration_ms);
    sampler.stop();
    let errors = sampler.export_errors();
    if errors > 0 {
        eprintln!("warning: {errors} export errors");
        return 1;
    }
    0
}

/// `btrace stream`
#[allow(clippy::fn_params_excessive_bools, clippy::too_many_arguments)]
pub fn stream(
    duration_ms: u64,
    out: Option<&str>,
    block: bool,
    batch_events: usize,
    queue_depth: usize,
    drain_threads: Option<usize>,
    auto_size: Option<AutoSize>,
    json: bool,
) -> i32 {
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let drain_threads = match drain_threads {
        Some(k) => {
            if k > host_cpus {
                eprintln!(
                    "warning: --drain-threads {k} exceeds the {host_cpus} available CPU(s); \
                     idle stripes serialize behind the scheduler and confirm coalescing \
                     degrades — consider --drain-threads {host_cpus}"
                );
            }
            k
        }
        None => 4.min(host_cpus),
    };
    // Auto-sized streams start small and let the controller earn the
    // bytes; fixed-size streams keep the classic 4 MiB geometry.
    let tracer = match if auto_size.is_some() { resizable_tracer() } else { telemetry_tracer() } {
        Ok(t) => std::sync::Arc::new(t),
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let controller = auto_size.map(|auto| spawn_controller(&tracer, auto));
    let sink: Box<dyn FrameSink> = match out {
        Some(path) => match FileFrameSink::create(path) {
            Ok(s) => Box::new(s),
            Err(e) => {
                eprintln!("error: cannot open {path}: {e}");
                return 1;
            }
        },
        None => Box::new(NullFrameSink::default()),
    };
    let config = PipelineConfig {
        batch_max_events: batch_events,
        queue_depth,
        backpressure: if block { Backpressure::Block } else { Backpressure::DropAndCount },
        drain_threads,
        ..PipelineConfig::default()
    };
    let pipeline = StreamPipeline::spawn(std::sync::Arc::clone(&tracer), sink, config);

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for core in 0..tracer.cores() {
            let producer = tracer.producer(core).expect("core in range");
            let stop = &stop;
            scope.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    producer
                        .record_with(
                            core as u64 * 1_000_000_000 + i,
                            i as u32 % 17,
                            b"stream: synthetic event",
                        )
                        .expect("payload fits");
                    i += 1;
                    if i.is_multiple_of(2048) {
                        std::thread::yield_now();
                    }
                }
            });
        }
        if !json {
            println!(
                "{:>8} {:>12} {:>10} {:>10} {:>9} {:>8}",
                "drained", "drained/s", "frames", "MiB out", "missed", "dropped"
            );
        }
        let deadline = std::time::Instant::now() + Duration::from_millis(duration_ms);
        while std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(200.min(duration_ms / 2 + 1)));
            if !json {
                let s = pipeline.stats();
                println!(
                    "{:>8} {:>12.0} {:>10} {:>10.2} {:>9} {:>8}",
                    s.events_drained,
                    s.drain_events_per_sec(),
                    s.frames_written,
                    s.bytes_written as f64 / (1 << 20) as f64,
                    s.missed_blocks,
                    s.stages.iter().map(|st| st.dropped).sum::<u64>(),
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    let stats = pipeline.stop();
    if let Some(mut ctrl) = controller {
        ctrl.stop();
        if !json {
            let s = ctrl.stats();
            println!(
                "controller: {} resizes ({} failed), {} budget clamps, {} stale snapshots \
                 skipped; final capacity {} KiB",
                s.resizes.load(Ordering::Relaxed),
                s.failures.load(Ordering::Relaxed),
                s.budget_clamps.load(Ordering::Relaxed),
                s.stale_skips.load(Ordering::Relaxed),
                tracer.capacity_bytes() / 1024,
            );
        }
    }

    if json {
        // The stream's per-stage gauges ride along in the standard health
        // snapshot, so existing JSONL tooling picks them up unchanged.
        let mut snap = tracer.health_snapshot();
        snap.stream_stages = stats.stages.clone();
        println!("{}", snap.to_json());
    } else {
        let mut table = Table::new(vec![
            "Stage".into(),
            "Depth".into(),
            "Cap".into(),
            "In".into(),
            "Out".into(),
            "Dropped".into(),
        ]);
        for s in &stats.stages {
            table.row(vec![
                s.stage.clone(),
                s.depth.to_string(),
                s.capacity.to_string(),
                s.in_items.to_string(),
                s.out_items.to_string(),
                s.dropped.to_string(),
            ]);
        }
        println!("{}", table.render());
        println!(
            "streamed {} events in {} frames ({:.2} MiB) over {:.2}s: {:.0} events/s, {:.2} MiB/s",
            stats.events_drained,
            stats.frames_written,
            stats.bytes_written as f64 / (1 << 20) as f64,
            stats.elapsed.as_secs_f64(),
            stats.drain_events_per_sec(),
            stats.sink_bytes_per_sec() / (1 << 20) as f64,
        );
        println!(
            "missed {} blocks; sink retries {}, sink drops {}",
            stats.missed_blocks, stats.io.retries, stats.io.drops
        );
        if let Some(path) = out {
            println!("frames written to {path}");
        }
    }
    0
}

/// `btrace tune` — dry-runs the sizing controller: a throwaway resizable
/// buffer takes a two-phase synthetic load (a spike, then a drip), the
/// controller reacts, and the command prints every decision it took plus
/// the capacity it settled on. Nothing outlives the run.
pub fn tune(duration_ms: u64, budget: Option<u64>, target_loss_ppm: u64, json: bool) -> i32 {
    let tracer = match resizable_tracer() {
        Ok(t) => std::sync::Arc::new(t),
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let start_bytes = tracer.capacity_bytes();
    let mut controller = spawn_controller(&tracer, AutoSize { budget, target_loss_ppm });

    // Phase 1 (first half): every core spins flat out — the launch-spike
    // shape that should force grows. Phase 2 (second half): a slow drip
    // that should let the retention-ranked shrink reclaim bytes.
    let stop = AtomicBool::new(false);
    let spike_until = std::time::Instant::now() + Duration::from_millis(duration_ms / 2);
    let deadline = std::time::Instant::now() + Duration::from_millis(duration_ms);
    std::thread::scope(|scope| {
        for core in 0..tracer.cores() {
            let producer = tracer.producer(core).expect("core in range");
            let stop = &stop;
            scope.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    producer
                        .record_with(
                            core as u64 * 1_000_000_000 + i,
                            i as u32 % 17,
                            b"tune: synthetic event",
                        )
                        .expect("payload fits");
                    i += 1;
                    if std::time::Instant::now() >= spike_until {
                        std::thread::sleep(Duration::from_millis(5));
                    } else if i.is_multiple_of(2048) {
                        std::thread::yield_now();
                    }
                }
            });
        }
        let mut consumer = tracer.consumer();
        while std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
            let _ = consumer.collect();
        }
        stop.store(true, Ordering::Relaxed);
    });
    controller.stop();

    let stats = controller.stats();
    let snap = tracer.health_snapshot();
    let recommended = tracer.capacity_bytes();
    if json {
        use btrace_telemetry::json::Json;
        let obj = Json::Obj(vec![
            ("recommended_bytes".into(), Json::from_u64(recommended as u64)),
            ("start_bytes".into(), Json::from_u64(start_bytes as u64)),
            (
                "budget_bytes".into(),
                Json::from_u64(budget.unwrap_or(ResizeTarget::max_bytes(&*tracer))),
            ),
            ("target_loss_ppm".into(), Json::from_u64(target_loss_ppm)),
            ("resizes".into(), Json::from_u64(stats.resizes.load(Ordering::Relaxed))),
            ("resize_failures".into(), Json::from_u64(stats.failures.load(Ordering::Relaxed))),
            ("budget_clamps".into(), Json::from_u64(stats.budget_clamps.load(Ordering::Relaxed))),
            ("stale_skips".into(), Json::from_u64(stats.stale_skips.load(Ordering::Relaxed))),
            ("skips".into(), Json::from_u64(snap.skips)),
        ]);
        println!("{}", obj.render());
    } else {
        println!("controller decision log:");
        let timeline = tracer.flight_recorder().snapshot();
        let mut decisions = 0;
        for e in &timeline.events {
            if matches!(
                e.kind,
                EventKind::CtrlObserve
                    | EventKind::CtrlResize
                    | EventKind::CtrlBackoff
                    | EventKind::CtrlBudgetClamp
            ) {
                // Observations are the controller's heartbeat; print only
                // the ones that carried a signal, plus every action.
                if e.kind != EventKind::CtrlObserve || e.a > 0 || e.source == 1 {
                    println!("  {}", e.describe());
                    decisions += 1;
                }
            }
        }
        if decisions == 0 {
            println!("  (only quiet observations — the load never stressed the buffer)");
        }
        println!(
            "tuned over {:.1}s: {} -> {} KiB ({} resizes, {} failed, {} budget clamps, \
             {} stale snapshots skipped)",
            duration_ms as f64 / 1000.0,
            start_bytes / 1024,
            recommended / 1024,
            stats.resizes.load(Ordering::Relaxed),
            stats.failures.load(Ordering::Relaxed),
            stats.budget_clamps.load(Ordering::Relaxed),
            stats.stale_skips.load(Ordering::Relaxed),
        );
        println!(
            "recommendation: provision {} KiB ({} blocks of {} B) for this load shape",
            recommended / 1024,
            recommended / BLOCK,
            BLOCK
        );
    }
    0
}

/// The doctor's fault-storm geometry: a deliberately tiny resizable
/// buffer so producers lap it and the pipeline sheds under load.
const DOCTOR_BLOCK: usize = 1024;
const DOCTOR_ACTIVE: usize = 8;
const DOCTOR_STRIDE: usize = DOCTOR_BLOCK * DOCTOR_ACTIVE;

/// `btrace doctor` — runs a seeded fault-storm workload (producers
/// hammering a tiny buffer through a shedding pipeline, with a mid-run
/// grow that the fault plan sabotages), then correlates the flight
/// recorder, health counters, and stage gauges into a diagnosis.
pub fn doctor(fault_seed: u64, duration_ms: u64, json: bool) -> i32 {
    let mut config = Config::new(4)
        .active_blocks(DOCTOR_ACTIVE)
        .block_bytes(DOCTOR_BLOCK)
        .buffer_bytes(2 * DOCTOR_STRIDE)
        .max_bytes(8 * DOCTOR_STRIDE)
        .backing(Backing::Heap);
    if fault_seed != 0 {
        // Every commit after construction fails: the mid-run grow must
        // retry, fall back, and leave the tracer degraded.
        config =
            config.fault_plan(FaultPlan::new(fault_seed).commit_failure_rate(1.0).arm_after_ops(1));
    }
    let tracer = match BTrace::new(config) {
        Ok(t) => std::sync::Arc::new(t),
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    // A depth-1 shedding pipeline: under four spinning producers its
    // queues overflow, so loss shows up as recorder StageDrop events, not
    // just counter drift.
    let pipeline = StreamPipeline::spawn(
        std::sync::Arc::clone(&tracer),
        Box::new(NullFrameSink::default()),
        PipelineConfig {
            poll_interval: Duration::from_millis(1),
            queue_depth: 1,
            backpressure: Backpressure::DropAndCount,
            ..PipelineConfig::default()
        },
    );
    // The sizing controller runs through the storm too: its grow attempts
    // hit the same injected commit faults, so its resize and back-off
    // decisions land on the recorder next to the loss they failed to
    // prevent — and the diagnosis below names them in the cause chains.
    let mut controller = ControllerThread::spawn(
        std::sync::Arc::clone(&tracer),
        tracer.flight_recorder(),
        ControllerConfig {
            budget_bytes: (8 * DOCTOR_STRIDE) as u64,
            stale_after_ms: 1_000,
            cooldown_ticks: 1,
            ..ControllerConfig::default()
        },
        Duration::from_millis(duration_ms.clamp(200, 2000) / 20),
    );

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for core in 0..tracer.cores() {
            let producer = tracer.producer(core).expect("core in range");
            let stop = &stop;
            scope.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    producer
                        .record_with(
                            core as u64 * 1_000_000_000 + i,
                            i as u32 % 17,
                            b"doctor: fault storm",
                        )
                        .expect("payload fits");
                    i += 1;
                    if i.is_multiple_of(2048) {
                        std::thread::yield_now();
                    }
                }
            });
        }
        // Halfway in, attempt a grow. With the fault plan armed this is
        // the injected incident: commit faults → retries → fallback.
        std::thread::sleep(Duration::from_millis(duration_ms / 2));
        let _ = BTrace::resize_bytes(&tracer, 4 * DOCTOR_STRIDE);
        std::thread::sleep(Duration::from_millis(duration_ms - duration_ms / 2));
        stop.store(true, Ordering::Relaxed);
    });
    controller.stop();
    let pstats = pipeline.stop();

    let mut snap = tracer.health_snapshot();
    snap.stream_stages = pstats.stages.clone();
    let timeline = tracer.flight_recorder().snapshot();
    let diagnosis = diagnose(&timeline.events, Some(&snap), None);

    if json {
        println!("{}", diagnosis.to_json().render());
    } else {
        print!("{}", diagnosis.render());
        if timeline.overwritten > 0 {
            println!(
                "\n(ring overwrote {} older event(s); earliest evidence may be gone)",
                timeline.overwritten
            );
        }
    }
    0
}

/// Prints recorder events newer than each shard's high-water mark,
/// advancing the marks. Returns how many events were printed.
fn print_new_events(recorder: &FlightRecorder, seen: &mut [u64], json: bool) -> usize {
    let snap = recorder.snapshot();
    let mut printed = 0;
    for e in &snap.events {
        let mark = &mut seen[e.shard as usize];
        if e.seq < *mark {
            continue;
        }
        *mark = e.seq + 1;
        if json {
            println!("{}", e.to_json().render());
        } else {
            println!("{}", e.describe());
        }
        printed += 1;
    }
    printed
}

/// `btrace events` — runs a synthetic load through a streaming pipeline
/// and prints the flight recorder's timeline (control-plane transitions
/// plus per-stage span events), optionally tailing it live.
pub fn events(duration_ms: u64, follow: bool, json: bool) -> i32 {
    let tracer = match telemetry_tracer() {
        Ok(t) => std::sync::Arc::new(t),
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let recorder = tracer.flight_recorder();
    let mut seen = vec![0u64; recorder.shards()];
    let pipeline = StreamPipeline::spawn(
        std::sync::Arc::clone(&tracer),
        Box::new(NullFrameSink::default()),
        PipelineConfig::default(),
    );
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for core in 0..tracer.cores() {
            let producer = tracer.producer(core).expect("core in range");
            let stop = &stop;
            scope.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    producer
                        .record_with(
                            core as u64 * 1_000_000_000 + i,
                            i as u32 % 17,
                            b"events: synthetic event",
                        )
                        .expect("payload fits");
                    i += 1;
                    if i.is_multiple_of(4096) {
                        std::thread::yield_now();
                    }
                }
            });
        }
        let deadline = std::time::Instant::now() + Duration::from_millis(duration_ms);
        while std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(50.min(duration_ms / 4 + 1)));
            if follow {
                print_new_events(&recorder, &mut seen, json);
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    pipeline.stop();
    let printed = print_new_events(&recorder, &mut seen, json);
    if !follow && printed == 0 && !json {
        println!("(no recorder events in this run)");
    }
    0
}

/// `btrace inspect`
pub fn inspect(file: &str, map: bool) -> i32 {
    let dump = match TraceDump::read_from(Path::new(file)) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    println!("dump {file:?}: label {:?}, {} events\n", dump.label(), dump.events().len());
    let events: Vec<CollectedEvent> = dump
        .events()
        .iter()
        .map(|e| CollectedEvent {
            stamp: e.stamp,
            core: e.core,
            tid: e.tid,
            stored_bytes: btrace_core::event::encoded_len(e.payload.len()) as u32,
        })
        .collect();
    print_report_analysis(&events, TOTAL, None);
    if map {
        let stamps: Vec<u64> = {
            let mut s: Vec<u64> = events.iter().map(|e| e.stamp).collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        if let Some(&newest) = stamps.last() {
            let window = newest - stamps.first().copied().unwrap_or(0) + 1;
            println!(
                "retention map (oldest left, newest right):\n|{}|",
                gap_map(&stamps, newest, GapMapOptions { window, width: 72 })
            );
        }
    }
    0
}
