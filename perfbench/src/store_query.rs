//! `store_query`: closed loop, one client. Set-up streams a seeded ~2 M
//! event atrace-shaped corpus to a compressed BTSF file (one hot core with
//! half the events) and keeps the tallies the answers are checked against.
//! Each operation is what `btrace query` does — `TraceStore::open` (mmap) +
//! `Query::run` — in a fixed rotation: a 10 % slice, one non-hot core, SCHED
//! within a 25 % slice, everything; the rotation ends with `analyze_frames`
//! on one thread. The slice query, whose latency is the workload's latency
//! metric, also runs between the other queries so a run holds enough samples.

use crate::gen::{write_corpus, Corpus, Tally, Window, CORPUS_CORES, WINDOWS};
use crate::report::{median, metric, quantile, scaled, Outcome};
use crate::spans::Spans;
use crate::{alloc, sys, Ctx};
use btrace_analysis::{tree_merge, TracePartial};
use btrace_atrace::Category;
use btrace_core::event::encoded_len;
use btrace_core::sink::CollectedEvent;
use btrace_persist::{
    analyze_frames, scan_frames, AnalyzeOptions, Predicate, Query, QueryReport, TraceStore,
};
use btrace_replay::TraceState;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::time::Instant;

/// Per-layer metrics this workload reports.
pub const LAYERS: &[&str] = &[
    "persist.store.open_ms",
    "persist.query.core.ms_p50",
    "persist.query.category.ms_p50",
    "persist.query.full.ms_p50",
    "persist.analyze.ms_p50",
    "persist.query.slice.frames_decoded_fraction",
    "persist.query.core.frames_decoded_fraction",
    "persist.query.category.frames_decoded_fraction",
    "persist.query.full.frames_decoded_fraction",
    "persist.query.unattributed_ms",
    "persist.decode.ns_per_event",
    "persist.decode.allocs_per_event",
    "persist.analyze.scan_ms",
    "persist.analyze.busy_ms",
    "analysis.map.ns_per_event",
    "analysis.merge_ms",
];

const EVENTS: u64 = 2_000_000;
const SETUPS: usize = 5;

/// The query kinds, with their span names.
const KINDS: [(&str, &str); 4] = [
    ("slice", "persist.query.slice"),
    ("core", "persist.query.core"),
    ("category", "persist.query.category"),
    ("full", "persist.query.full"),
];
const SLICE: usize = 0;
const CORE: usize = 1;
const CATEGORY: usize = 2;
const FULL: usize = 3;
/// One rotation's queries (indices into `KINDS`), before `analyze_frames`:
/// three slices around each other query give the latency metric over 100
/// samples in a 30 s run.
const ROTATION: [usize; 15] = [
    SLICE, SLICE, SLICE, CORE, SLICE, SLICE, SLICE, CATEGORY, SLICE, SLICE, SLICE, FULL, SLICE,
    SLICE, SLICE,
];

struct Rig {
    path: PathBuf,
    corpus: Corpus,
}

impl Rig {
    fn new(ctx: &Ctx) -> Result<Rig, String> {
        let path = ctx.work.join("corpus.btsf");
        let io = |e: std::io::Error| format!("{}: {e}", path.display());
        let mut out = BufWriter::new(std::fs::File::create(&path).map_err(io)?);
        let corpus = write_corpus(ctx.seed, EVENTS, &mut out).map_err(io)?;
        out.flush().map_err(io)?;
        drop(out);
        // Warm-up: read the whole file once through the store's mapping.
        let store = TraceStore::open(&path).map_err(io)?;
        let sum = store.bytes().iter().step_by(4096).fold(0u8, |a, &b| a.wrapping_add(b));
        std::hint::black_box(sum);
        Ok(Rig { path, corpus })
    }

    /// The predicate and expected answer of the `r`-th query of `kind`.
    fn plan(&self, kind: usize, r: usize) -> (Predicate, Tally) {
        let c = &self.corpus;
        let window = |w: &Window| Predicate {
            since: Some(w.since),
            until: Some(w.until),
            ..Default::default()
        };
        match kind {
            SLICE => (window(&c.slices[r % WINDOWS]), c.slices[r % WINDOWS].tally.clone()),
            CORE => {
                let core = c.cores[r % WINDOWS];
                let mut tally =
                    Tally { events: c.total.per_core[core as usize], ..Default::default() };
                tally.per_core[core as usize] = tally.events;
                (Predicate { cores: vec![core], ..Default::default() }, tally)
            }
            CATEGORY => {
                let w = &c.sched_windows[r % WINDOWS];
                (Predicate { category: Some(Category::SCHED), ..window(w) }, w.tally.clone())
            }
            _ => (Predicate::default(), c.total.clone()),
        }
    }
}

fn check_state(what: &str, state: &TraceState, expect: &Tally) -> Result<(), String> {
    for core in 0..CORPUS_CORES {
        let got = state.cores.get(core).map_or(0, |c| c.events);
        if got != expect.per_core[core] {
            return Err(format!(
                "{what}: core {core} has {got} events, expected {}",
                expect.per_core[core]
            ));
        }
    }
    Ok(())
}

fn check_report(what: &str, report: &QueryReport, expect: &Tally) -> Result<(), String> {
    if !report.defects.is_empty() {
        return Err(format!("{what}: {} frame defects", report.defects.len()));
    }
    if report.matched_events != expect.events {
        return Err(format!(
            "{what}: matched {} events, expected {}",
            report.matched_events, expect.events
        ));
    }
    check_state(what, &report.state, expect)
}

fn open(rig: &Rig, spans: &mut Spans) -> Result<TraceStore, String> {
    spans.time("persist.store.open", || TraceStore::open(&rig.path)).map_err(|e| e.to_string())
}

/// Scans, decodes and maps every frame step by step, outside the timed
/// window, so `scan_frames`, `decode_frame`, `TracePartial::map` and
/// `tree_merge` each get their own spans. Returns the allocations made by
/// `decode_frame`.
fn attribute(rig: &Rig, spans: &mut Spans) -> Result<u64, String> {
    spans.next_op();
    let store = open(rig, spans)?;
    spans.time("persist.analyze.scan", || scan_frames(store.bytes())).map_err(|e| e.to_string())?;
    let (mut decode_allocs, mut events) = (0, 0);
    let mut partials = Vec::with_capacity(store.frames().len());
    for idx in 0..store.frames().len() {
        let a0 = alloc::thread_allocs();
        let decoded = spans.time("persist.store.decode_frame", || store.decode_frame(idx));
        decode_allocs += alloc::thread_allocs() - a0;
        let decoded = decoded.map_err(|d| format!("frame {idx}: {}", d.detail))?;
        events += decoded.len() as u64;
        let collected: Vec<CollectedEvent> = decoded
            .iter()
            .map(|e| CollectedEvent {
                stamp: e.stamp,
                core: e.core,
                tid: e.tid,
                stored_bytes: encoded_len(e.payload.len()) as u32,
            })
            .collect();
        partials.push(spans.time("analysis.map", || TracePartial::map(&collected)));
    }
    let merged = spans.time("analysis.merge", || tree_merge(partials, TracePartial::merge));
    let retained = merged.map_or(0, |m| m.finish(0, 8).metrics.retained_events as u64);
    if events != EVENTS || retained != EVENTS {
        return Err(format!("attribution pass decoded {events} events, merged {retained}"));
    }
    Ok(decode_allocs)
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
    let rig = rig.expect("at least one setup");

    let mut slice_ms = Vec::new();
    let mut cpu_ns = 0u64;
    let mut rotations = 0u64;
    let mut busy_ms = Vec::new();
    let mut decoded_fraction = [0.0f64; 4];
    let mut queries = 0u64;
    let mut runs = [0usize; 4];
    let end = Instant::now() + ctx.window;
    while Instant::now() < end {
        spans.next_op();
        let op = spans.enter("bench.rotation");
        let cpu0 = sys::thread_cpu_ns();
        for kind in ROTATION {
            let (name, span) = KINDS[kind];
            let (predicate, expect) = rig.plan(kind, runs[kind]);
            runs[kind] += 1;
            let t0 = Instant::now();
            let store = open(&rig, spans)?;
            let report = spans.time(span, || Query::new(predicate).run(&store));
            let done = Instant::now();
            check_report(name, &report, &expect)?;
            queries += 1;
            decoded_fraction[kind] = report.frames_decoded as f64 / report.frames_total as f64;
            if kind == SLICE {
                slice_ms.push((done - t0).as_secs_f64() * 1e3);
            }
        }
        let store = open(&rig, spans)?;
        let opts = AnalyzeOptions { threads: 1, ..Default::default() };
        let analysis = spans
            .time("persist.analyze.frames", || analyze_frames(store.bytes(), &opts))
            .map_err(|e| format!("analyze_frames: {e}"))?;
        queries += 1;
        if !analysis.defects.is_empty()
            || analysis.analysis.metrics.retained_events as u64 != EVENTS
        {
            return Err(format!(
                "analyze_frames: {} defects, {} events",
                analysis.defects.len(),
                analysis.analysis.metrics.retained_events
            ));
        }
        check_state("analyze_frames", &analysis.state, &rig.corpus.total)?;
        busy_ms.push(analysis.work.iter().map(|w| w.busy_ns).sum::<u64>() as f64 / 1e6);
        cpu_ns += sys::thread_cpu_ns() - cpu0;
        rotations += 1;
        spans.exit(op);
    }

    let e2e = vec![
        metric("setup_s", median(&mut setups).expect("setups ran"), "s"),
        metric("peak_rss_mib", sys::peak_rss_mib(), "MiB"),
        metric("bytes_per_event", rig.corpus.bytes as f64 / EVENTS as f64, "B"),
        metric("latency_ms_p50", quantile(&mut slice_ms, 0.5).ok_or("no rotation")?, "ms"),
        metric("latency_ms_p90", quantile(&mut slice_ms, 0.9).ok_or("no rotation")?, "ms"),
        metric("cpu_ns_per_event", cpu_ns as f64 / (rotations * EVENTS) as f64, "ns"),
    ];
    let mut layers = Vec::new();
    if spans.on() {
        let decode_allocs = attribute(&rig, spans)?;
        let total_ns = |name| spans.self_times(name).iter().sum::<u64>() as f64;
        let (decode_ns, map_ns) =
            (total_ns("persist.store.decode_frame"), total_ns("analysis.map"));
        let merge_ns = total_ns("analysis.merge");
        let per_event = EVENTS as f64;
        let span_ms =
            |name| median(&mut scaled(&spans.self_times(name), 1e-6)).ok_or("no rotation");
        layers.push(metric("persist.store.open_ms", span_ms("persist.store.open")?, "ms"));
        for (name, span) in &KINDS[CORE..] {
            layers.push(metric(format!("persist.query.{name}.ms_p50"), span_ms(span)?, "ms"));
        }
        layers.push(metric("persist.analyze.ms_p50", span_ms("persist.analyze.frames")?, "ms"));
        for (kind, (name, _)) in KINDS.iter().enumerate() {
            layers.push(metric(
                format!("persist.query.{name}.frames_decoded_fraction"),
                decoded_fraction[kind],
                "ratio",
            ));
        }
        let full_ms = span_ms("persist.query.full")?;
        layers.extend([
            metric(
                "persist.query.unattributed_ms",
                full_ms - (decode_ns + map_ns + merge_ns) / 1e6,
                "ms",
            ),
            metric("persist.decode.ns_per_event", decode_ns / per_event, "ns"),
            metric("persist.decode.allocs_per_event", decode_allocs as f64 / per_event, "count"),
            metric("persist.analyze.scan_ms", total_ns("persist.analyze.scan") / 1e6, "ms"),
            metric("persist.analyze.busy_ms", median(&mut busy_ms).expect("rotations ran"), "ms"),
            metric("analysis.map.ns_per_event", map_ns / per_event, "ns"),
            metric("analysis.merge_ms", merge_ns / 1e6, "ms"),
        ]);
    }
    Ok(Outcome { e2e, layers, attempted: queries, failed: 0 })
}
