//! The command table and its handlers. A handler runs one command and
//! writes its report to the sink it is given: text, or under `--json` the
//! same values as JSON lines.

use crate::args::{Args, Command, Flag, Kind, Kind::*, Outcome};
use crate::CliError;
use btrace_analysis::{diagnose, GapMapOptions, Table, TraceAnalysis, TracePartial};
use btrace_atrace::Category;
use btrace_baselines::{Bbq, PerCoreDropNewest, PerCoreOverwrite, PerThread};
use btrace_core::{BTrace, Backing, Config, FaultPlan, RingSnapshot};
use btrace_persist::{
    analyze_frames, analyze_frames_with, write_snapshot, AnalyzeOptions, Backpressure,
    FileFrameSink, FrameSink, JsonlExporter, NullFrameSink, PipelineConfig, Predicate,
    PrometheusExporter, Query, QueryOptions, QueryReport, StreamPipeline, TraceStore,
};
use btrace_replay::{scenarios, ReplayConfig, Replayer};
use btrace_telemetry::fields::{Field, Record};
use btrace_telemetry::json::Json;
use btrace_telemetry::{
    degraded, ControllerConfig, ControllerStats, ControllerThread, CoreHealth, EventKind, Exporter,
    FlightRecorder, HealthSnapshot, LatencySummary, ResizeTarget, Sampler, SamplerConfig,
    StageHealth, Stats,
};
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

type Str = &'static str;
type Handler = fn(&Args, &mut dyn Write, &mut dyn Write) -> Outcome;

const fn flag(name: Str, kind: Kind, default: Option<Str>, help: Str) -> Flag {
    Flag { name, kind, default, help }
}

const fn switch(name: Str, help: Str) -> Flag {
    flag(name, Switch, None, help)
}

const fn duration(default: Str) -> Flag {
    flag("--duration-ms", Ms, Some(default), "workload length")
}

const fn cmd(name: Str, help: Str, run: Handler, flags: &'static [Flag]) -> Command {
    Command { name, help, flags, check: |_| Ok(()), run }
}

const FILE: Flag = flag("<FILE>", File, None, "");
const MAP: Flag = switch("--map", "also print the retention gap map");
const SCENARIO: Flag = flag("--scenario", Text("<NAME>"), Some("eShop-1"), "workload");
const SCALE: Flag = flag("--scale", Scale, Some("0.05"), "fraction of the 30 s workload");
const JSONL: Flag = flag("--jsonl", Text("<FILE>"), None, "also append snapshots to a JSONL file");
const PROM: Flag = flag("--prom", Text("<FILE>"), None, "also maintain a Prometheus textfile");
const BUDGET: Flag = flag("--budget", Bytes, None, "controller budget (default: reserved max)");
const LOSS: Flag = flag("--target-loss", Ppm, Some("10000"), "controller loss-rate target");
const REPLAY: &[Flag] = &[
    SCENARIO,
    flag("--tracer", Text("<NAME>"), Some("BTrace"), "BTrace|BBQ|ftrace|LTTng|VTrace"),
    SCALE,
    flag("--threads", Count, Some("1"), "fragment-parallel readout workers"),
];
const DUMP: &[Flag] =
    &[SCENARIO, flag("--out", Text("<FILE>"), Some("trace.btd"), "output path"), SCALE];
const ANALYZE: &[Flag] = &[
    FILE,
    flag("--threads", Count, Some("1"), "worker threads; 1 is the sequential reference"),
    flag("--fragments", U64, None, "fragments to split into (default: one per thread)"),
    MAP,
];
const QUERY: &[Flag] = &[
    FILE,
    flag("--since", U64, None, "keep events with stamp >= N"),
    flag("--until", U64, None, "keep events with stamp <= N"),
    flag("--core", Cores, None, "keep events from core N (repeatable)"),
    flag("--category", Text("<NAME|0xBITS>"), None, "keep atrace events in this category"),
    flag("--threads", Count, Some("1"), "worker threads"),
    switch("--metrics", "also print the retention metrics table"),
    switch("--gap-map", "also print the retention gap map"),
    switch("--json", "emit the report as one JSON line"),
];
const STAT: &[Flag] =
    &[switch("--json", "emit the snapshot as one JSON line"), duration("1000"), JSONL, PROM];
const WATCH: &[Flag] =
    &[flag("--period-ms", Ms, Some("500"), "sampling period"), duration("5000"), JSONL, PROM];
const STREAM: &[Flag] = &[
    duration("2000"),
    flag("--out", Text("<FILE>"), None, "frame file (default: discard, count only)"),
    flag("--policy", Text("<block|drop>"), Some("block"), "backpressure policy"),
    flag("--batch-events", Count, Some("512"), "max events per frame"),
    flag("--queue-depth", Count, Some("8"), "bound of each stage queue"),
    flag("--drain-threads", Count, None, "drain workers (default: min(4, host CPUs))"),
    switch("--auto-size", "adaptive buffer sizing (the controller)"),
    BUDGET,
    LOSS,
    switch("--json", "emit final stats as one JSON line"),
];
const TUNE: &[Flag] =
    &[duration("2000"), BUDGET, LOSS, switch("--json", "emit the recommendation as one JSON line")];
const DOCTOR: &[Flag] = &[
    flag("--fault-seed", U64, Some("183"), "commit-fault plan seed, 0 disables"),
    duration("1000"),
    switch("--json", "emit the diagnosis as one JSON line"),
];
const EVENTS: &[Flag] = &[
    duration("1000"),
    switch("--follow", "tail events live while the load runs"),
    switch("--json", "one JSON object per event"),
];

/// Every command: the parser, `btrace help` and dispatch all read this.
pub static COMMANDS: &[Command] = &[
    cmd("scenarios", "list the built-in replay workloads", scenarios, &[]),
    cmd("demo", "run a quick synthetic demo", demo, &[]),
    cmd("replay", "replay a workload against one tracer", replay, REPLAY),
    cmd("dump", "replay, then persist the buffer to a file", dump, DUMP),
    cmd("inspect", "analyze a dump file", inspect, &[FILE, MAP]),
    cmd("analyze", "fragment-parallel analysis of a frame stream or dump", analyze, ANALYZE),
    Command {
        check: |args| match (args.num("--since"), args.num("--until")) {
            (Some(s), Some(u)) if s > u => Err(format!("--since {s} is after --until {u}")),
            _ => Ok(()),
        },
        ..cmd("query", "predicate query over a frame stream or dump", query, QUERY)
    },
    cmd("stat", "run a synthetic load, print a health snapshot", stat, STAT),
    cmd("watch", "live health table while a synthetic load runs", watch, WATCH),
    Command {
        check: |args| {
            if let Some(p) = args.get("--policy").filter(|p| !matches!(*p, "block" | "drop")) {
                return Err(format!("--policy must be block or drop, got {p}"));
            }
            match (args.on("--budget") || args.on("--target-loss")) && !args.on("--auto-size") {
                true => Err("--budget/--target-loss require --auto-size".into()),
                false => Ok(()),
            }
        },
        ..cmd("stream", "continuously export a synthetic load as frames", stream, STREAM)
    },
    cmd("tune", "dry-run the sizing controller on a synthetic load", tune, TUNE),
    cmd("doctor", "seeded fault-storm run, then loss forensics", doctor, DOCTOR),
    cmd("events", "run a synthetic load, print the recorder timeline", events, EVENTS),
];

const CORES: usize = 12;
const TOTAL: usize = 12 << 20;
const BLOCK: usize = 4096;
const MIB: f64 = (1 << 20) as f64;

/// Exit 1 if the run found defects or divergence: the report says which.
fn found(any: bool) -> Outcome {
    match any {
        true => Err(CliError::Found(String::new())),
        false => Ok(()),
    }
}

/// A table with one row per item of `rows`.
fn table<S: ToString>(header: &[S], rows: impl IntoIterator<Item = Vec<String>>) -> Table {
    let mut table = Table::new(header.iter().map(S::to_string).collect());
    for row in rows {
        table.row(row);
    }
    table
}

/// One JSON object on one line.
fn json_line(fields: Vec<(&str, Json)>) -> String {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect()).render()
}

/// `btrace scenarios`
fn scenarios(_: &Args, out: &mut dyn Write, _: &mut dyn Write) -> Outcome {
    let header = ["Name", "Events (30 s)", "Skew", "Threads/core/s", "Threads/core 30s"];
    let rows = scenarios::all().iter().map(|s| {
        let threads = [s.threads_per_core_sec, s.total_threads_per_core].map(|n| n.to_string());
        let cells = [s.name.into(), s.total_events().to_string(), format!("{:.1}x", s.skew())];
        [cells.to_vec(), threads.to_vec()].concat()
    });
    Ok(writeln!(out, "{}", table(&header, rows).render())?)
}

/// `btrace demo`
fn demo(_: &Args, out: &mut dyn Write, _: &mut dyn Write) -> Outcome {
    let tracer =
        BTrace::new(Config::new(4).active_blocks(64).block_bytes(BLOCK).buffer_bytes(1 << 20))?;
    std::thread::scope(|scope| {
        for core in 0..4 {
            let producer = tracer.producer(core).expect("core in range");
            scope.spawn(move || {
                for i in 0..50_000u64 {
                    let stamp = core as u64 * 1_000_000 + i;
                    let recorded =
                        producer.record_with(stamp, i as u32 % 17, b"demo: synthetic event");
                    recorded.expect("payload fits");
                }
            });
        }
    });
    let mut r = RingSnapshot::new();
    tracer.consumer().snapshot(&mut r);
    let (events, kib, blocks) = (r.count(), r.stored_bytes() / 1024, r.blocks().readable);
    let s = tracer.stats();
    writeln!(out, "recorded 200000 events from 4 cores into a 1 MiB buffer")?;
    writeln!(out, "retained {events} events ({kib} KiB) in {blocks} readable blocks")?;
    let dummy = s.dummy_fraction() * 100.0;
    let (advances, closes, skips) = (s.advances, s.closes, s.skips);
    writeln!(out, "mechanisms: {advances} advances, {closes} closes, {skips} skips, {dummy:.2}% dummy overhead")?;
    Ok(())
}

fn btrace_tracer() -> Result<BTrace, CliError> {
    Ok(BTrace::new(
        Config::new(CORES).active_blocks(16 * CORES).block_bytes(BLOCK).buffer_bytes(TOTAL),
    )?)
}

/// `btrace replay`, cross-checked against the fragment-parallel readout
/// under `--threads K`.
fn replay(args: &Args, out: &mut dyn Write, _: &mut dyn Write) -> Outcome {
    let (name, scale) = (args.text("--scenario"), args.value::<f64>("--scale"));
    let scenario = scenarios::by_name(name)
        .ok_or_else(|| fail!("unknown scenario {name} (try `btrace scenarios`)"))?;
    let config = ReplayConfig { scale, latency_sample_every: 64, ..ReplayConfig::table2() };
    let replayer = Replayer::new(scenario, config);
    let r = match args.text("--tracer") {
        "BTrace" => replayer.run(&btrace_tracer()?),
        "BBQ" => replayer.run(&Bbq::new(TOTAL, BLOCK)),
        "ftrace" => replayer.run(&PerCoreOverwrite::new(CORES, TOTAL)),
        "LTTng" => replayer.run(&PerCoreDropNewest::new(CORES, TOTAL, 4)),
        "VTrace" => {
            replayer.run(&PerThread::new(TOTAL, scenario.total_threads_per_core as usize * CORES))
        }
        other => return Err(fail!("unknown tracer {other} (BTrace|BBQ|ftrace|LTTng|VTrace)")),
    };
    writeln!(out, "replayed {} against {} (scale {scale})\n", r.scenario, r.tracer)?;
    let analysis = TracePartial::map(&r.retained).finish(r.capacity_bytes, 8);
    write_analysis(out, &analysis, Some(r.written))?;
    if r.dropped_at_record > 0 {
        writeln!(out, "dropped at record   {}", r.dropped_at_record)?;
    }
    let threads = args.value::<usize>("--threads");
    if threads == 1 {
        return Ok(());
    }
    let per_fragment = (r.retained.len() / (threads * 2)).max(1);
    let (par, seq) =
        (r.parallel_analysis(threads, per_fragment, 8), r.parallel_analysis(1, per_fragment, 8));
    let agree = par.analysis == seq.analysis
        && par.latency == seq.latency
        && par.state.merged == seq.state.merged;
    let verdict = if agree { "bit-identical to" } else { "DIVERGES from" };
    let (fragments, threads, defects) = (par.fragments, par.threads, par.state.defects.len());
    writeln!(
        out,
        "\nfragment-parallel readout: {fragments} fragments on {threads} threads, \
         {defects} hand-off defects, {verdict} the sequential analysis",
    )?;
    found(!agree)
}

fn write_analysis(
    out: &mut dyn Write,
    analysis: &TraceAnalysis,
    written: Option<u64>,
) -> io::Result<()> {
    let m = &analysis.metrics;
    writeln!(out, "events retained     {}", m.retained_events)?;
    if let Some(written) = written {
        writeln!(out, "events written      {written}")?;
    }
    writeln!(out, "retained bytes      {:.2} MB", m.retained_bytes as f64 / MIB)?;
    let (latest, events) = (m.latest_fragment_bytes as f64 / MIB, m.latest_fragment_events);
    writeln!(out, "latest fragment     {latest:.2} MB ({events} events)")?;
    writeln!(out, "loss rate           {:.2}%", m.loss_rate * 100.0)?;
    writeln!(out, "fragments           {}", m.fragments)?;
    writeln!(out, "effectivity ratio   {:.3}", m.effectivity_ratio)?;
    if let Some(skew) = analysis.core_skew {
        writeln!(out, "core skew           {skew:.1}x")?;
    }
    let cores = analysis.per_core.iter().map(|c| {
        let range = format!("{}..{}", c.oldest, c.newest);
        vec![format!("C{}", c.key), c.events.to_string(), (c.bytes / 1024).to_string(), range]
    });
    let cores = table(&["Core", "Events", "KiB", "Stamp range"], cores).render();
    let threads = analysis
        .per_thread
        .iter()
        .map(|t| vec![t.key.to_string(), t.events.to_string(), (t.bytes / 1024).to_string()]);
    let threads = table(&["Tid", "Events", "KiB"], threads).render();
    writeln!(out, "\nper-core breakdown:\n{cores}\nhottest threads:\n{threads}")
}

/// Opens a `.btsf` stream or a `.btd` dump in place, through one mmap; the
/// strict readers refuse one the directory scan found damaged.
fn open_store(file: &str, strict: bool) -> Result<TraceStore, CliError> {
    let store = TraceStore::open(file).map_err(|e| fail!("cannot open {file}: {e}"))?;
    match store.defects().first() {
        Some(defect) if strict => Err(fail!("{file}: {defect}")),
        _ => Ok(store),
    }
}

/// `btrace analyze`
fn analyze(args: &Args, out: &mut dyn Write, _: &mut dyn Write) -> Outcome {
    let store = open_store(args.text("<FILE>"), true)?;
    let mut opts = AnalyzeOptions { threads: args.value("--threads"), ..AnalyzeOptions::default() };
    if let Some(fragments) = args.num("--fragments") {
        opts.fragments = fragments as usize;
    }
    let mut a = analyze_frames(store.bytes(), &opts)?;
    if args.on("--map") && !a.state.is_empty() {
        // Second pass with the window sized to the observed stamp range;
        // fragment splitting and merge order are identical both times.
        let window = a.state.last_stamp - a.state.first_stamp + 1;
        opts.gap_map = Some(GapMapOptions { window, width: 72 });
        a = analyze_frames(store.bytes(), &opts)?;
    }
    writeln!(out, "frames              {}", a.frames)?;
    writeln!(out, "fragments           {} on {} thread(s)", a.work.len(), a.threads)?;
    let total_events: u64 = a.work.iter().map(|w| w.events).sum();
    if !a.work.is_empty() && total_events > 0 {
        let rows = a.work.iter().map(|w| {
            let share = format!("{:.1}%", w.events as f64 * 100.0 / total_events as f64);
            let cells = [w.frames as u64, w.events, w.bytes / 1024, w.busy_ns / 1000];
            let cells = cells.map(|n| n.to_string());
            [vec![format!("F{}", w.fragment)], cells.to_vec(), vec![share]].concat()
        });
        let header = ["Fragment", "Frames", "Events", "KiB", "Busy us", "Share"];
        writeln!(out, "\nper-fragment work:\n{}", table(&header, rows).render())?;
    }
    for defect in &a.defects {
        writeln!(out, "boundary defect: {defect}")?;
    }
    writeln!(out)?;
    write_analysis(out, &a.analysis, None)?;
    if let Some(map) = &a.gap_map {
        writeln!(out, "retention gap map (old -> new):\n|{map}|")?;
    }
    found(!a.defects.is_empty())
}

/// Runs `q` over `store`; with `map`, runs it again with the gap-map
/// window sized to the matched stamp range.
fn run_query(store: &TraceStore, mut q: Query, map: bool) -> (Query, QueryReport) {
    let mut report = q.run(store);
    if map && !report.state.is_empty() {
        let window = report.state.last_stamp - report.state.first_stamp + 1;
        q.options.gap_map = Some(GapMapOptions { window, width: 72 });
        report = q.run(store);
    }
    (q, report)
}

/// `btrace inspect` — the whole dump through the store, like `query`.
fn inspect(args: &Args, out: &mut dyn Write, _: &mut dyn Write) -> Outcome {
    let file = args.text("<FILE>");
    let store = open_store(file, true)?;
    let label = store.label().ok_or_else(|| fail!("{file}: not a dump (no BTDUMP02 header)"))?;
    let options = QueryOptions { capacity_bytes: TOTAL, top_threads: 8, ..QueryOptions::default() };
    let (_, report) = run_query(&store, Query { options, ..Query::default() }, args.on("--map"));
    if let Some(defect) = report.defects.first() {
        return Err(fail!("{file}: {defect}"));
    }
    writeln!(out, "dump {file:?}: label {label:?}, {} events\n", report.matched_events)?;
    write_analysis(out, &report.analysis, None)?;
    if let Some(map) = &report.gap_map {
        writeln!(out, "retention map (oldest left, newest right):\n|{map}|")?;
    }
    Ok(())
}

/// Resolves a `--category` argument: a catalog label (`sched`), or a raw
/// bitmask (`0x4` / `4`).
fn parse_category(arg: &str) -> Result<Category, CliError> {
    let catalog = Category::catalog();
    if let Some(&(cat, _, _)) = catalog.iter().find(|(_, label, _)| label.eq_ignore_ascii_case(arg))
    {
        return Ok(cat);
    }
    let bits = match arg.strip_prefix("0x") {
        Some(hex) => u32::from_str_radix(hex, 16).ok(),
        None => arg.parse().ok(),
    };
    let cat = bits.map(Category::from_bits).unwrap_or(Category::NONE);
    if cat.is_empty() {
        let names: Vec<&str> = catalog.iter().map(|&(_, label, _)| label).collect();
        return Err(fail!("unknown category {arg}; known: {}", names.join(", ")));
    }
    Ok(cat)
}

/// `btrace query`
fn query(args: &Args, out: &mut dyn Write, err: &mut dyn Write) -> Outcome {
    let category = args.get("--category").map(parse_category).transpose()?;
    let (since, until, cores) = (args.num("--since"), args.num("--until"), args.list("--core"));
    let predicate = Predicate { since, until, cores, category };
    let file = args.text("<FILE>");
    let store = open_store(file, false)?;
    let (q, r) = run_query(&store, Query::new(predicate.clone()), args.on("--gap-map"));
    let threads = args.value("--threads");
    if threads > 1 {
        // The pruned fragment-parallel analyzer shares the query's plan;
        // cross-check the two paths like `replay --threads` does.
        let opts = AnalyzeOptions { threads, gap_map: q.options.gap_map, ..Default::default() };
        match analyze_frames_with(store.bytes(), &opts, Some(&predicate)) {
            Ok(par)
                if (&par.analysis, &par.state, &par.gap_map)
                    != (&r.analysis, &r.state, &r.gap_map) =>
            {
                let divergence = "error: fragment-parallel query DIVERGES from the store query";
                return Err(CliError::Found(divergence.into()));
            }
            Ok(_) => {}
            // The store query tolerates per-frame corruption; the strict
            // parallel path refuses it. Not a divergence.
            Err(e) => drop(writeln!(err, "note: fragment-parallel cross-check skipped: {e}")),
        }
    }
    let (total, decoded, pruned) = (r.frames_total, r.frames_decoded, r.frames_pruned);
    if args.on("--json") {
        let n = |n: usize| Json::from_u64(n as u64);
        let line = json_line(vec![
            ("file", Json::Str(file.into())),
            ("frames", n(total)),
            ("frames_decoded", n(decoded)),
            ("frames_pruned", n(pruned)),
            ("matched_events", Json::from_u64(r.matched_events)),
            ("newest_stamp", r.newest_stamp.map_or(Json::Null, Json::from_u64)),
            ("defects", n(r.defects.len())),
            ("payload_bytes", Json::from_u64(r.state.bytes)),
        ]);
        writeln!(out, "{line}")?;
        return found(!r.defects.is_empty());
    }
    writeln!(out, "frames              {total} ({decoded} decoded, {pruned} pruned by the index)")?;
    writeln!(out, "matched events      {}", r.matched_events)?;
    if let Some(newest) = r.newest_stamp {
        writeln!(out, "newest stamp        {newest}")?;
    }
    for defect in &r.defects {
        writeln!(out, "frame defect: {defect}")?;
    }
    if args.on("--metrics") {
        writeln!(out)?;
        write_analysis(out, &r.analysis, None)?;
    }
    if let Some(gap) = &r.gap_map {
        writeln!(out, "retention gap map (old -> new):\n|{gap}|")?;
    }
    found(!r.defects.is_empty())
}

/// `btrace dump`
fn dump(args: &Args, out: &mut dyn Write, _: &mut dyn Write) -> Outcome {
    let tracer = btrace_tracer()?;
    let name = args.text("--scenario");
    let scenario = scenarios::by_name(name).ok_or_else(|| fail!("unknown scenario {name}"))?;
    let scale = args.value("--scale");
    let config = ReplayConfig { scale, latency_sample_every: 0, ..ReplayConfig::table2() };
    Replayer::new(scenario, config).run(&tracer);
    let mut snapshot = RingSnapshot::new();
    tracer.consumer().snapshot(&mut snapshot);
    let path = args.text("--out");
    write_snapshot(path.as_ref(), name, &snapshot)?;
    Ok(writeln!(out, "wrote {} events to {path}", snapshot.count())?)
}

/// How each synthetic producer paces itself.
#[derive(Debug, Clone, Copy)]
enum Pace {
    /// Flat out, yielding the CPU every `n` records.
    YieldEvery(u64),
    /// Flat out (yielding every 2048 records) until the instant, then one
    /// record per 5 ms: a launch spike followed by a drip.
    SpikeUntil(Instant),
}

/// Records a synthetic load into `tracer` for `duration_ms` and calls
/// `tick` on this thread every `step_ms`; the load stops at the deadline or
/// at `tick`'s first error. One producer per core records `payload` at
/// `pace`, with stamps `core * 10^9 + i` and tids cycling through 0..17.
fn synthetic_load(
    tracer: &BTrace,
    payload: &[u8],
    pace: Pace,
    (duration_ms, step_ms): (u64, u64),
    mut tick: impl FnMut() -> io::Result<()>,
) -> io::Result<()> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for core in 0..tracer.cores() {
            let producer = tracer.producer(core).expect("core in range");
            let stop = &stop;
            scope.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    producer
                        .record_with(core as u64 * 1_000_000_000 + i, i as u32 % 17, payload)
                        .expect("payload fits");
                    i += 1;
                    match pace {
                        Pace::SpikeUntil(t) if Instant::now() >= t => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Pace::SpikeUntil(_) if i.is_multiple_of(2048) => std::thread::yield_now(),
                        Pace::YieldEvery(n) if i.is_multiple_of(n) => std::thread::yield_now(),
                        _ => {}
                    }
                }
            });
        }
        let deadline = Instant::now() + Duration::from_millis(duration_ms);
        let mut ticked = Ok(());
        while ticked.is_ok() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(step_ms));
            ticked = tick();
        }
        stop.store(true, Ordering::Relaxed);
        ticked
    })
}

/// Runs a 4-core synthetic load on a fresh telemetry tracer for
/// `--duration-ms`, draining periodically so the consumer path shows up in
/// the snapshots, while a sampler feeds the `--jsonl`/`--prom` exporters
/// and `extra` every `period_ms`; `tick` runs after each drain. Returns the
/// tracer and the stopped sampler.
fn sampled_load(
    args: &Args,
    period_ms: u64,
    extra: Option<Box<dyn Exporter>>,
    mut tick: impl FnMut() -> io::Result<()>,
) -> Result<(BTrace, Sampler), CliError> {
    let tracer = telemetry_tracer()?;
    let mut exporters: Vec<Box<dyn Exporter>> = Vec::new();
    if let Some(path) = args.get("--jsonl") {
        let jsonl = JsonlExporter::create(path).map_err(|e| fail!("open {path}: {e}"))?;
        exporters.push(Box::new(jsonl));
    }
    if let Some(path) = args.get("--prom") {
        exporters.push(Box::new(PrometheusExporter::new(path)));
    }
    exporters.extend(extra);
    let period = Duration::from_millis(period_ms);
    let mut sampler = Sampler::spawn(tracer.clone(), exporters, SamplerConfig { period });
    let duration_ms = args.value("--duration-ms");
    let (mut consumer, mut snapshot) = (tracer.consumer(), RingSnapshot::new());
    let pace = (duration_ms, 50.min(duration_ms / 4 + 1));
    let ran =
        synthetic_load(&tracer, b"stat: synthetic event", Pace::YieldEvery(4096), pace, || {
            consumer.snapshot(&mut snapshot);
            tick()
        });
    sampler.stop();
    ran?;
    Ok((tracer, sampler))
}

fn telemetry_tracer() -> Result<BTrace, CliError> {
    Ok(BTrace::new(Config::new(4).active_blocks(64).block_bytes(BLOCK).buffer_bytes(4 << 20))?)
}

/// Resize stride of the auto-sized tracer: 64 × 4 KiB = 256 KiB.
const AUTO_STRIDE: usize = 64 * BLOCK;

/// A deliberately small-starting tracer with grow headroom, for the
/// sizing controller: 512 KiB initial, 16 MiB reserved ceiling.
fn resizable_tracer() -> Result<BTrace, CliError> {
    let config = Config::new(4).active_blocks(64).block_bytes(BLOCK).buffer_bytes(2 * AUTO_STRIDE);
    Ok(BTrace::new(config.max_bytes(64 * AUTO_STRIDE).backing(Backing::Heap))?)
}

/// The `--budget` of the sizing controller: the reserved maximum by default.
fn budget(args: &Args, tracer: &BTrace) -> u64 {
    args.num("--budget").unwrap_or(ResizeTarget::max_bytes(tracer))
}

/// Spawns the sizing controller against `tracer` with the `--budget` and
/// `--target-loss` of `args` and CLI-friendly pacing (10 observations per
/// second).
fn spawn_controller(tracer: &Arc<BTrace>, args: &Args) -> ControllerThread {
    ControllerThread::spawn(
        Arc::clone(tracer),
        tracer.flight_recorder(),
        ControllerConfig {
            budget_bytes: budget(args, tracer),
            target_loss_ppm: args.value("--target-loss"),
            stale_after_ms: 1_000,
            ..ControllerConfig::default()
        },
        Duration::from_millis(100),
    )
}

/// Resizes, failures, budget clamps and stale skips, in that order.
fn controller_counts(s: &ControllerStats) -> [u64; 4] {
    [&s.resizes, &s.failures, &s.budget_clamps, &s.stale_skips].map(|c| c.load(Ordering::Relaxed))
}

/// The text form of a health snapshot: geometry, counters, rates, and the
/// latency and per-core tables.
fn write_health(out: &mut dyn Write, s: &HealthSnapshot) -> io::Result<()> {
    let (blocks, block, mib) = (s.capacity_blocks, s.block_bytes, s.capacity_bytes as f64 / MIB);
    let (active, bound) = (s.active_blocks, s.effectivity_bound);
    writeln!(out, "buffer: {blocks} blocks x {block} B ({mib:.1} MiB), {active} active (bound 1-A/N = {bound:.3})")?;
    let counters: Vec<String> =
        scalar_fields::<Stats>().map(|f| format!("{} {}", (f.get)(&s.stats), f.name)).collect();
    writeln!(out, "counters: {}", counters.join(", "))?;
    let (observed, skip, occupancy, open) =
        (s.effectivity_observed, s.skip_rate, s.mean_occupancy, s.open_blocks);
    writeln!(out, "effectivity: {observed:.4} observed vs {bound:.4} bound; skip rate {skip:.4}; occupancy {occupancy:.2}; {open} open blocks")?;
    let r = &s.rates;
    if r.window_secs > 0.0 {
        let (secs, records, mibs, advances) =
            (r.window_secs, r.records_per_sec, r.bytes_per_sec / MIB, r.advances_per_sec);
        writeln!(out, "rates ({secs:.2}s window): {records:.0} records/s, {mibs:.2} MiB/s, {advances:.1} advances/s")?;
    }
    let paths = [
        ("record (sampled)", &s.record_latency),
        ("advance", &s.advance_latency),
        ("drain", &s.drain_latency),
    ];
    let header = [vec!["path".into()], field_names::<LatencySummary>()].concat();
    let rows = paths.map(|(name, l)| [vec![name.into()], field_cells(l)].concat());
    let cores = table(&field_names::<CoreHealth>(), s.per_core.iter().map(field_cells));
    writeln!(out, "{}\n{}", table(&header, rows).render(), cores.render())
}

/// The scalar fields of a record, in table order (nested records and
/// lists are left out): the columns of the CLI's health tables.
fn scalar_fields<R: Record>() -> impl Iterator<Item = &'static Field<R>> {
    R::FIELDS.iter().filter(|f| !matches!((f.get)(&R::default()), Json::Obj(_) | Json::Arr(_)))
}

fn field_names<R: Record>() -> Vec<String> {
    scalar_fields::<R>().map(|f| f.name.to_string()).collect()
}

/// One table row: each scalar field of `r`, fractions rounded.
fn field_cells<R: Record>(r: &R) -> Vec<String> {
    let cell = |f: &Field<R>| match (f.get)(r) {
        Json::Num(n) if n.contains('.') => format!("{:.0}", n.parse::<f64>().unwrap_or(0.0)),
        Json::Str(s) => s,
        v => v.render(),
    };
    scalar_fields::<R>().map(cell).collect()
}

/// `btrace stat`
fn stat(args: &Args, out: &mut dyn Write, _: &mut dyn Write) -> Outcome {
    let period_ms = (args.value::<u64>("--duration-ms") / 4).clamp(50, 1000);
    let (tracer, sampler) = sampled_load(args, period_ms, None, || Ok(()))?;
    // The final report reflects the finished workload; rate/sequence
    // context comes from the sampler's last periodic snapshot.
    let mut snap = tracer.health_snapshot();
    if let Some(last) = sampler.latest() {
        (snap.seq, snap.unix_ms, snap.rates) = (last.seq, last.unix_ms, last.rates);
    }
    match args.on("--json") {
        true => writeln!(out, "{}", snap.to_json())?,
        false => write_health(out, &snap)?,
    }
    Ok(())
}

/// Formats one table row per sampled snapshot and hands it to the thread
/// that owns the output sink.
struct WatchExporter(mpsc::Sender<String>);

impl Exporter for WatchExporter {
    fn export(&mut self, s: &HealthSnapshot) -> io::Result<()> {
        let stages: Vec<String> = s
            .stream_stages
            .iter()
            .map(|st| format!("{}:{}/{}", st.stage, st.depth, st.capacity))
            .collect();
        let stages = if stages.is_empty() { "-".into() } else { stages.join(" ") };
        let (st, r, l) = (&s.stats, &s.rates, &s.record_latency);
        let row = format!(
            "{:>4} {:>6} {:>12} {:>12.0} {:>9.2} {:>9} {:>6} {:>8.4} {:>8.4} {:>6} {:>6} {:>7} {:>8} {}",
            s.seq, s.age_ms, st.records, r.records_per_sec, r.bytes_per_sec / MIB, st.advances, st.skips,
            s.effectivity_observed, s.mean_occupancy, l.p50, l.p99, l.p999, stages,
            degraded::describe(s.degraded_bits),
        );
        self.0.send(row).map_err(|_| io::ErrorKind::BrokenPipe.into())
    }
}

/// `btrace watch`
fn watch(args: &Args, out: &mut dyn Write, _: &mut dyn Write) -> Outcome {
    writeln!(
        out,
        " seq age_ms      records        rec/s     MiB/s  advances  skips      eff      occ    p50    p99    p999   stages state"
    )?;
    let (rows, received) = mpsc::channel();
    let mut forward = || received.try_iter().try_for_each(|row| writeln!(out, "{row}"));
    let exporter = Box::new(WatchExporter(rows));
    let period_ms = args.value("--period-ms");
    let (_, sampler) = sampled_load(args, period_ms, Some(exporter), &mut forward)?;
    forward()?;
    match sampler.export_errors() {
        0 => Ok(()),
        errors => Err(CliError::Found(format!("warning: {errors} export errors"))),
    }
}

/// `btrace stream`
fn stream(args: &Args, out: &mut dyn Write, err: &mut dyn Write) -> Outcome {
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let drain_threads = args.num("--drain-threads").map_or(4.min(host_cpus), |k| k as usize);
    if drain_threads > host_cpus {
        let _ = writeln!(
            err,
            "warning: --drain-threads {drain_threads} exceeds the {host_cpus} available CPU(s); \
             idle stripes serialize behind the scheduler and confirm coalescing \
             degrades — consider --drain-threads {host_cpus}"
        );
    }
    // Auto-sized streams start small and let the controller earn the
    // bytes; fixed-size streams keep the classic 4 MiB geometry.
    let auto_size = args.on("--auto-size");
    let tracer = Arc::new(if auto_size { resizable_tracer()? } else { telemetry_tracer()? });
    let controller = auto_size.then(|| spawn_controller(&tracer, args));
    let path = args.get("--out");
    let sink: Box<dyn FrameSink> = match path {
        Some(path) => {
            Box::new(FileFrameSink::create(path).map_err(|e| fail!("cannot open {path}: {e}"))?)
        }
        None => Box::new(NullFrameSink::default()),
    };
    let drop = args.text("--policy") == "drop";
    let config = PipelineConfig {
        batch_max_events: args.value("--batch-events"),
        queue_depth: args.value("--queue-depth"),
        backpressure: if drop { Backpressure::DropAndCount } else { Backpressure::Block },
        drain_threads,
        ..PipelineConfig::default()
    };
    let (json, duration_ms) = (args.on("--json"), args.value("--duration-ms"));
    if !json {
        writeln!(out, " drained    drained/s     frames    MiB out    missed  dropped")?;
    }
    let pipeline = StreamPipeline::spawn(Arc::clone(&tracer), sink, config);
    let pace = (duration_ms, 200.min(duration_ms / 2 + 1));
    let ran =
        synthetic_load(&tracer, b"stream: synthetic event", Pace::YieldEvery(2048), pace, || {
            if json {
                return Ok(());
            }
            let s = pipeline.stats();
            let (events, rate, frames) =
                (s.events_drained, s.drain_events_per_sec(), s.frames_written);
            let (mib, missed) = (s.bytes_written as f64 / MIB, s.missed_blocks);
            let dropped: u64 = s.stages.iter().map(|st| st.dropped).sum();
            writeln!(
                out,
                "{events:>8} {rate:>12.0} {frames:>10} {mib:>10.2} {missed:>9} {dropped:>8}"
            )
        });
    let s = pipeline.stop();
    let controller = controller.map(|mut ctrl| {
        ctrl.stop();
        (controller_counts(ctrl.stats()), tracer.capacity_bytes() / 1024)
    });
    ran?;
    if json {
        // The final stats ride along in the health snapshot's stage gauges.
        let mut snap = tracer.health_snapshot();
        snap.stream_stages = s.stages;
        return Ok(writeln!(out, "{}", snap.to_json())?);
    }
    if let Some(([resizes, failed, clamps, stale], kib)) = controller {
        writeln!(
            out,
            "controller: {resizes} resizes ({failed} failed), {clamps} budget clamps, \
             {stale} stale snapshots skipped; final capacity {kib} KiB",
        )?;
    }
    let stages = table(&field_names::<StageHealth>(), s.stages.iter().map(field_cells));
    writeln!(out, "{}", stages.render())?;
    let (events, frames, mib) = (s.events_drained, s.frames_written, s.bytes_written as f64 / MIB);
    let (secs, rate, mibs) =
        (s.elapsed.as_secs_f64(), s.drain_events_per_sec(), s.sink_bytes_per_sec() / MIB);
    writeln!(out, "streamed {events} events in {frames} frames ({mib:.2} MiB) over {secs:.2}s: {rate:.0} events/s, {mibs:.2} MiB/s")?;
    let (missed, retries, drops) = (s.missed_blocks, s.io.retries, s.io.drops);
    writeln!(out, "missed {missed} blocks; sink retries {retries}, sink drops {drops}")?;
    if let Some(path) = path {
        writeln!(out, "frames written to {path}")?;
    }
    Ok(())
}

/// `btrace tune` — dry-runs the sizing controller: a throwaway resizable
/// buffer takes a two-phase synthetic load (a spike, then a drip), the
/// controller reacts, and the report lists every decision it took plus
/// the capacity it settled on. Nothing outlives the run.
fn tune(args: &Args, out: &mut dyn Write, _: &mut dyn Write) -> Outcome {
    let tracer = Arc::new(resizable_tracer()?);
    let start_bytes = tracer.capacity_bytes();
    let mut controller = spawn_controller(&tracer, args);
    // Phase 1 (first half): every core spins flat out — the launch-spike
    // shape that should force grows. Phase 2 (second half): a slow drip
    // that should let the retention-ranked shrink reclaim bytes.
    let duration_ms = args.value("--duration-ms");
    let spike = Pace::SpikeUntil(Instant::now() + Duration::from_millis(duration_ms / 2));
    let (mut consumer, mut snapshot) = (tracer.consumer(), RingSnapshot::new());
    synthetic_load(&tracer, b"tune: synthetic event", spike, (duration_ms, 20), || {
        consumer.snapshot(&mut snapshot);
        Ok(())
    })?;
    controller.stop();
    let (recommended, counts) = (tracer.capacity_bytes(), controller_counts(controller.stats()));
    if args.on("--json") {
        let n = Json::from_u64;
        let [resizes, failed, clamps, stale] = counts.map(n);
        let line = json_line(vec![
            ("recommended_bytes", n(recommended as u64)),
            ("start_bytes", n(start_bytes as u64)),
            ("budget_bytes", n(budget(args, &tracer))),
            ("target_loss_ppm", n(args.value("--target-loss"))),
            ("resizes", resizes),
            ("resize_failures", failed),
            ("budget_clamps", clamps),
            ("stale_skips", stale),
            ("skips", n(tracer.health_snapshot().stats.skips)),
        ]);
        return Ok(writeln!(out, "{line}")?);
    }
    // Observations are the controller's heartbeat; keep only the ones that
    // carried a signal, plus every action.
    writeln!(out, "controller decision log:")?;
    let mut decisions = 0;
    for e in tracer.flight_recorder().snapshot().events.iter().filter(|e| match e.kind {
        EventKind::CtrlObserve => e.a > 0 || e.source == 1,
        EventKind::CtrlResize | EventKind::CtrlBackoff | EventKind::CtrlBudgetClamp => true,
        _ => false,
    }) {
        writeln!(out, "  {}", e.describe())?;
        decisions += 1;
    }
    if decisions == 0 {
        writeln!(out, "  (only quiet observations — the load never stressed the buffer)")?;
    }
    let [resizes, failed, clamps, stale] = counts;
    let (secs, start, kib) = (duration_ms as f64 / 1000.0, start_bytes / 1024, recommended / 1024);
    writeln!(
        out,
        "tuned over {secs:.1}s: {start} -> {kib} KiB ({resizes} resizes, {failed} failed, \
         {clamps} budget clamps, {stale} stale snapshots skipped)"
    )?;
    let blocks = recommended / BLOCK;
    writeln!(
        out,
        "recommendation: provision {kib} KiB ({blocks} blocks of {BLOCK} B) for this load shape"
    )?;
    Ok(())
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
fn doctor(args: &Args, out: &mut dyn Write, _: &mut dyn Write) -> Outcome {
    let (fault_seed, duration_ms): (u64, u64) =
        (args.value("--fault-seed"), args.value("--duration-ms"));
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
    let tracer = Arc::new(BTrace::new(config)?);
    // A depth-1 shedding pipeline: under four spinning producers its
    // queues overflow, so loss shows up as recorder StageDrop events, not
    // just counter drift.
    let pipeline = StreamPipeline::spawn(
        Arc::clone(&tracer),
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
        Arc::clone(&tracer),
        tracer.flight_recorder(),
        ControllerConfig {
            budget_bytes: (8 * DOCTOR_STRIDE) as u64,
            stale_after_ms: 1_000,
            cooldown_ticks: 1,
            ..ControllerConfig::default()
        },
        Duration::from_millis(duration_ms.clamp(200, 2000) / 20),
    );
    // Halfway in, attempt a grow. With the fault plan armed this is the
    // injected incident: commit faults → retries → fallback.
    let mut grow = Some(4 * DOCTOR_STRIDE);
    let pace = (duration_ms, duration_ms / 2);
    synthetic_load(&tracer, b"doctor: fault storm", Pace::YieldEvery(2048), pace, || {
        if let Some(bytes) = grow.take() {
            let _ = BTrace::resize_bytes(&tracer, bytes);
        }
        Ok(())
    })?;
    controller.stop();
    let mut snap = tracer.health_snapshot();
    snap.stream_stages = pipeline.stop().stages;
    let timeline = tracer.flight_recorder().snapshot();
    let diagnosis = diagnose(&timeline.events, Some(&snap), None);
    if args.on("--json") {
        return Ok(writeln!(out, "{}", diagnosis.to_json().render())?);
    }
    write!(out, "{}", diagnosis.render())?;
    if timeline.overwritten > 0 {
        let overwritten = timeline.overwritten;
        writeln!(
            out,
            "\n(ring overwrote {overwritten} older event(s); earliest evidence may be gone)"
        )?;
    }
    Ok(())
}

/// Writes the recorder events newer than each shard's high-water mark in
/// `seen`, advancing the marks, as text or JSON lines; returns how many.
fn write_new_events(
    out: &mut dyn Write,
    recorder: &FlightRecorder,
    seen: &mut [u64],
    json: bool,
) -> io::Result<usize> {
    let mut events = recorder.snapshot().events;
    events.retain(|e| {
        let mark = &mut seen[e.shard as usize];
        let fresh = e.seq >= *mark;
        if fresh {
            *mark = e.seq + 1;
        }
        fresh
    });
    for e in &events {
        match json {
            true => writeln!(out, "{}", e.to_json().render())?,
            false => writeln!(out, "{}", e.describe())?,
        }
    }
    Ok(events.len())
}

/// `btrace events` — runs a synthetic load through a streaming pipeline
/// and writes the flight recorder's timeline (control-plane transitions
/// plus per-stage span events), optionally tailing it live.
fn events(args: &Args, out: &mut dyn Write, _: &mut dyn Write) -> Outcome {
    let (follow, json) = (args.on("--follow"), args.on("--json"));
    let duration_ms = args.value("--duration-ms");
    let tracer = Arc::new(telemetry_tracer()?);
    let recorder = tracer.flight_recorder();
    let mut seen = vec![0u64; recorder.shards()];
    let sink = Box::new(NullFrameSink::default());
    let pipeline = StreamPipeline::spawn(Arc::clone(&tracer), sink, PipelineConfig::default());
    let pace = (duration_ms, 50.min(duration_ms / 4 + 1));
    let tailed =
        synthetic_load(&tracer, b"events: synthetic event", Pace::YieldEvery(4096), pace, || {
            match follow {
                true => write_new_events(out, &recorder, &mut seen, json).map(drop),
                false => Ok(()),
            }
        });
    pipeline.stop();
    tailed?;
    if write_new_events(out, &recorder, &mut seen, json)? == 0 && !follow && !json {
        writeln!(out, "(no recorder events in this run)")?;
    }
    Ok(())
}
