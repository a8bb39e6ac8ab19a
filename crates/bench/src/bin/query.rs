//! Queryable trace store: compression ratio of the delta/varint frame
//! encoding and the pruning power of footer-indexed predicate queries.
//!
//! Writes `BENCH_query.json`. On a synthetic atrace-payload corpus (the
//! workload shape a phone actually dumps: small encoded tracepoints, not
//! fat blobs):
//!
//! * bytes on disk of the revision-2 (delta/varint) framing against the
//!   size the same events would take in fixed-width framing (18 bytes of
//!   fields per event plus the payload, computed, not encoded), and the
//!   ratio between them;
//! * per predicate (time slice, hot core, category, unrestricted):
//!   frames decoded vs frames total, matched events, indexed-query wall
//!   time vs a linear full-decode-then-filter oracle over the same bytes,
//!   and an equality check of the two result sets;
//! * self-asserting: the selective time predicate must decode < 25% of
//!   frames and the compressed file must be >= 1.5x smaller than the
//!   fixed-width size.
//!
//! `BTRACE_BENCH_QUERY_EVENTS` overrides the corpus size (default 2_000_000).

use btrace_atrace::TraceEvent;
use btrace_core::sink::FullEvent;
use btrace_persist::{decode_frames, encode_stream, Predicate, Query, QueryOptions, TraceStore};
use std::time::Instant;

const EVENTS_PER_FRAME: usize = 1024;
const DEFAULT_EVENTS: usize = 2_000_000;

/// splitmix64 — deterministic corpus run to run.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A drain-shaped corpus: globally increasing stamps with jitter, a hot
/// core, and small atrace-encoded payloads (sched/irq/binder mix).
fn synthesize(total: usize) -> Vec<FullEvent> {
    let mut rng = 0x51u64;
    let mut stamp = 0u64;
    let mut buf = [0u8; btrace_atrace::MAX_ENCODED];
    (0..total)
        .map(|_| {
            let r = mix(&mut rng);
            stamp += 1 + (r & 15);
            let core = if r & 1 == 0 { 0 } else { ((r >> 1) % 8) as u16 };
            let tid = 100 + (r >> 16) as u32 % 32;
            let ev = match (r >> 4) % 4 {
                0 => TraceEvent::SchedSwitch { prev: tid, next: tid + 1, prio: (r >> 40) as u8 },
                1 => TraceEvent::SchedWakeup { tid, cpu: core as u8 },
                2 => TraceEvent::Irq { irq: (r >> 32) as u16 % 64, enter: r & 2 == 0 },
                _ => TraceEvent::BinderTxn { from: tid, to: tid ^ 5, code: (r >> 24) as u32 % 99 },
            };
            let n = ev.encode(&mut buf);
            FullEvent { stamp, core, tid, payload: buf[..n].to_vec() }
        })
        .collect()
}

/// Bytes the corpus would take with fixed-width event fields (stamp u64,
/// core u16, tid u32, payload length u32: 18 bytes) in front of each
/// payload, in frames carrying the same 20-byte header, 40-byte index
/// footer and 8-byte crc as a compressed frame.
fn fixed_width_bytes(events: &[FullEvent]) -> usize {
    let frames = events.len().div_ceil(EVENTS_PER_FRAME);
    frames * (20 + 40 + 8) + events.iter().map(|e| 18 + e.payload.len()).sum::<usize>()
}

struct Run {
    name: &'static str,
    frames_total: usize,
    frames_decoded: usize,
    frames_pruned: usize,
    matched_events: u64,
    query_ms: f64,
    linear_ms: f64,
    speedup: f64,
    identical: bool,
}

fn run_predicate(store: &TraceStore, name: &'static str, predicate: Predicate) -> Run {
    let q = Query {
        predicate: predicate.clone(),
        options: QueryOptions { collect_events: true, ..Default::default() },
    };
    let t0 = Instant::now();
    let report = q.run(store);
    let query_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let oracle: Vec<FullEvent> = decode_frames(store.bytes())
        .expect("healthy corpus decodes")
        .into_iter()
        .flat_map(|f| f.events)
        .filter(|e| predicate.admits_event(e))
        .collect();
    let linear_ms = t1.elapsed().as_secs_f64() * 1e3;

    assert!(report.defects.is_empty(), "{name}: healthy corpus reported defects");
    Run {
        name,
        frames_total: report.frames_total,
        frames_decoded: report.frames_decoded,
        frames_pruned: report.frames_pruned,
        matched_events: report.matched_events,
        query_ms,
        linear_ms,
        speedup: linear_ms / query_ms.max(1e-9),
        identical: report.events == oracle,
    }
}

fn main() {
    let total: usize = std::env::var("BTRACE_BENCH_QUERY_EVENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_EVENTS);

    eprintln!("synthesizing {total} atrace events...");
    let events = synthesize(total);
    let span = events.last().expect("non-empty corpus").stamp;

    let plain = fixed_width_bytes(&events);
    let compressed = encode_stream(&events, EVENTS_PER_FRAME);
    let ratio = plain as f64 / compressed.len() as f64;
    assert!(
        ratio >= 1.5,
        "compressed framing must be >= 1.5x smaller than fixed-width: got {ratio:.2}x"
    );

    let store = TraceStore::from_bytes(compressed);
    assert!(store.defects().is_empty(), "healthy compressed corpus scans clean");

    let predicates = [
        (
            "time_slice_10pct",
            Predicate {
                since: Some(span / 2),
                until: Some(span / 2 + span / 10),
                ..Default::default()
            },
        ),
        ("hot_core", Predicate { cores: vec![3], ..Default::default() }),
        (
            "sched_in_slice",
            Predicate {
                since: Some(span / 4),
                until: Some(span / 2),
                category: Some(btrace_atrace::Category::SCHED),
                ..Default::default()
            },
        ),
        ("unrestricted", Predicate::default()),
    ];
    let runs: Vec<Run> =
        predicates.into_iter().map(|(name, p)| run_predicate(&store, name, p)).collect();

    for r in &runs {
        assert!(r.identical, "{}: indexed query diverged from the linear oracle", r.name);
    }
    let selective = &runs[0];
    let decoded_pct = selective.frames_decoded as f64 * 100.0 / selective.frames_total as f64;
    assert!(
        decoded_pct < 25.0,
        "selective predicate must decode < 25% of frames: got {decoded_pct:.1}%"
    );

    let fmt = |r: &Run| {
        format!(
            "    {{\"predicate\": \"{}\", \"frames_total\": {}, \"frames_decoded\": {}, \
             \"frames_pruned\": {}, \"decoded_pct\": {:.1}, \"matched_events\": {}, \
             \"query_ms\": {:.2}, \"linear_decode_ms\": {:.2}, \"speedup_vs_linear\": {:.2}, \
             \"identical_to_oracle\": {}}}",
            r.name,
            r.frames_total,
            r.frames_decoded,
            r.frames_pruned,
            r.frames_decoded as f64 * 100.0 / r.frames_total as f64,
            r.matched_events,
            r.query_ms,
            r.linear_ms,
            r.speedup,
            r.identical,
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"queryable trace store: {total} atrace events, {} frames of {} events\",\n  \
           \"events\": {total},\n  \
           \"plain_bytes\": {},\n  \
           \"compressed_bytes\": {},\n  \
           \"compression_ratio\": {ratio:.2},\n  \
           \"plain_bytes_per_event\": {:.1},\n  \
           \"compressed_bytes_per_event\": {:.1},\n  \
           \"runs\": [\n{}\n  ],\n  \
           \"note\": \"every query is asserted bit-identical to a linear full-decode-then-filter oracle over the same bytes; the selective time slice must decode < 25% of frames and the compressed framing must be >= 1.5x smaller than the fixed-width framing (plain_bytes, computed as 18 B of fields plus the payload per event and 68 B per frame)\"\n}}\n",
        store.frames().len(),
        EVENTS_PER_FRAME,
        plain,
        store.bytes().len(),
        plain as f64 / total as f64,
        store.bytes().len() as f64 / total as f64,
        runs.iter().map(fmt).collect::<Vec<_>>().join(",\n"),
    );
    print!("{json}");
    std::fs::write("BENCH_query.json", &json).expect("write BENCH_query.json");
    eprintln!("wrote BENCH_query.json");
}
