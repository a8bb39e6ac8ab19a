//! Differential suite for the fragment-parallel analysis engine: the same
//! seeded workload — fault storms, mid-run resizes, lapped streams, empty
//! frames — is analyzed sequentially (one fragment, one
//! thread) and fragment-parallel at several thread/fragment shapes, and
//! every readout must be **bit-identical**:
//!
//! * `analyze_frames` at `K ∈ {2, 3, 4, 8}` threads and assorted fragment
//!   counts equals the `K = 1` reference — metrics, per-core/per-thread
//!   breakdowns, reconstructed trace state, and the rendered gap map;
//! * the reference itself equals the historical flat-decode analysis
//!   (`analyze`/`by_core`/`by_thread` over the decoded events), so the
//!   whole pipeline is pinned to the pre-fragment semantics;
//! * per-fragment states re-merge to the whole, and the boundary hand-off
//!   check stays silent on healthy traces;
//! * proptests split an event list and a frame stream at *arbitrary*
//!   points and the merged partials must equal the whole.
//!
//! Every failing seed is printed with a replay line
//! (`BTRACE_ANALYZE_SEED=<seed> cargo test --test analysis_parallel`).

use btrace::analysis::{analyze, by_core, by_thread, fold_merge, GapMapOptions, TracePartial};
use btrace::core::event::encoded_len;
use btrace::core::sink::{CollectedEvent, FullEvent};
use btrace::core::{BTrace, Backing, Config, TraceError};
use btrace::persist::{analyze_frames, decode_frames, encode_frame, AnalyzeOptions};
use btrace::vmem::FaultPlan;
use proptest::prelude::*;

const CORES: usize = 4;
const BLOCK: usize = 256;
const ACTIVE: usize = 8;
const STRIDE: usize = BLOCK * ACTIVE;
const MAX_PAYLOAD: usize = 40;

/// Fallback base seed when `BTRACE_ANALYZE_SEED` is not set.
const DEFAULT_BASE_SEED: u64 = 0xA7A1_5E3D_0C42;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Drives a fault-stormed, resizing, occasionally-lapped workload and
/// frames whatever the stream delivers — exactly what `btrace stream
/// --out` persists. Some frames are empty, so splitting must survive them.
fn build_stream(seed: u64) -> Vec<u8> {
    let mut rng = seed;
    let n_ops = 2_000 + splitmix(&mut rng) % 2_000;

    let plan = FaultPlan::new(seed ^ 0xFA01_57A2)
        .commit_failure_rate(0.2)
        .partial_commit_rate(0.1)
        .decommit_failure_rate(0.15)
        .delayed_decommit_rate(0.1)
        .arm_after_ops(1);
    let tracer = BTrace::new(
        Config::new(CORES)
            .active_blocks(ACTIVE)
            .block_bytes(BLOCK)
            .buffer_bytes(4 * STRIDE)
            .max_bytes(16 * STRIDE)
            .backing(Backing::Heap)
            .fault_plan(plan),
    )
    .expect("valid configuration");
    let mut stream = tracer.stream();
    let producers: Vec<_> = (0..CORES).map(|c| tracer.producer(c).unwrap()).collect();
    for (core, p) in producers.iter().enumerate() {
        if core % 2 == 1 {
            p.set_confirm_coalescing(true);
        }
    }

    let mut out = Vec::new();
    let mut seq = 0u64;
    let emit = |events: Vec<FullEvent>, out: &mut Vec<u8>, seq: &mut u64| {
        out.extend_from_slice(&encode_frame(*seq, &events));
        *seq += 1;
    };

    // Cadences up to ~200 records between polls let bursts overrun the
    // 32-block window, so some seeds genuinely lap the stream.
    let mut next_poll = 1 + splitmix(&mut rng) % 200;
    for stamp in 0..n_ops {
        let core = (splitmix(&mut rng) as usize) % CORES;
        let len = 8 + (splitmix(&mut rng) as usize) % (MAX_PAYLOAD - 7);
        let payload: Vec<u8> = (0..len).map(|i| (stamp as u8).wrapping_add(i as u8)).collect();
        producers[core].record_with(stamp, core as u32, &payload).unwrap();

        if splitmix(&mut rng).is_multiple_of(127) {
            for p in &producers {
                p.flush_confirms();
            }
            let ratio = 2 + (splitmix(&mut rng) as usize) % 7;
            match tracer.resize_bytes(ratio * STRIDE) {
                Ok(()) | Err(TraceError::Region(_)) => {}
                Err(other) => panic!("seed {seed}: unexpected resize error {other:?}"),
            }
        }

        next_poll -= 1;
        if next_poll == 0 {
            let batch = stream.poll();
            if !batch.events.is_empty() || splitmix(&mut rng).is_multiple_of(13) {
                let events: Vec<FullEvent> = batch
                    .events
                    .iter()
                    .map(|e| FullEvent {
                        stamp: e.stamp(),
                        core: e.core() as u16,
                        tid: e.tid(),
                        payload: e.payload().to_vec(),
                    })
                    .collect();
                emit(events, &mut out, &mut seq);
            }
            next_poll = 1 + splitmix(&mut rng) % 200;
        }
    }
    drop(producers);
    let tail = stream.flush_close();
    let events: Vec<FullEvent> = tail
        .events
        .iter()
        .map(|e| FullEvent {
            stamp: e.stamp(),
            core: e.core() as u16,
            tid: e.tid(),
            payload: e.payload().to_vec(),
        })
        .collect();
    emit(events, &mut out, &mut seq);
    out
}

/// One differential run: sequential reference vs parallel shapes vs the
/// historical flat-decode analysis. Panics (with the seed) on divergence.
fn run_parallel_vs_sequential(seed: u64) {
    let bytes = build_stream(seed);

    let mut ref_opts = AnalyzeOptions::default();
    let probe = analyze_frames(&bytes, &ref_opts).expect("stream decodes");
    if !probe.state.is_empty() {
        // Window the gap map to the observed stamp range so the rendered
        // string is part of the bit-identical surface too.
        let window = probe.state.last_stamp - probe.state.first_stamp + 1;
        ref_opts.gap_map = Some(GapMapOptions { window, width: 64 });
    }
    let reference = analyze_frames(&bytes, &ref_opts).expect("stream decodes");
    assert!(
        reference.defects.is_empty(),
        "seed {seed}: healthy trace reported hand-off defects: {:?}",
        reference.defects
    );

    // Pin the fragment pipeline to the historical flat-decode semantics.
    let events: Vec<CollectedEvent> = decode_frames(&bytes)
        .expect("stream decodes")
        .iter()
        .flat_map(|f| f.events.iter())
        .map(|e| CollectedEvent {
            stamp: e.stamp,
            core: e.core,
            tid: e.tid,
            stored_bytes: encoded_len(e.payload.len()) as u32,
        })
        .collect();
    assert_eq!(
        reference.analysis.metrics,
        analyze(&events, 0),
        "seed {seed}: fragment metrics diverged from the flat-decode analysis"
    );
    assert_eq!(reference.analysis.per_core, by_core(&events), "seed {seed}: per-core diverged");
    assert_eq!(
        reference.analysis.per_thread,
        by_thread(&events, 8),
        "seed {seed}: per-thread diverged"
    );

    for (threads, fragments) in [(2, 0), (3, 0), (4, 7), (8, 5), (4, 13)] {
        let opts = AnalyzeOptions { threads, fragments, ..ref_opts };
        let out = analyze_frames(&bytes, &opts).expect("stream decodes");
        assert_eq!(
            out.analysis, reference.analysis,
            "seed {seed}: K={threads} F={fragments} analysis diverged from sequential"
        );
        assert_eq!(
            out.state, reference.state,
            "seed {seed}: K={threads} F={fragments} trace state diverged"
        );
        assert_eq!(
            out.gap_map, reference.gap_map,
            "seed {seed}: K={threads} F={fragments} gap map diverged"
        );
        assert!(
            out.defects.is_empty(),
            "seed {seed}: K={threads} F={fragments} invented hand-off defects: {:?}",
            out.defects
        );
        let remerged = out
            .per_fragment_state
            .iter()
            .cloned()
            .fold(btrace::replay::TraceState::empty(), |a, b| a.merge(b));
        assert_eq!(
            remerged, out.state,
            "seed {seed}: K={threads} F={fragments} fragment states do not re-merge to the whole"
        );
    }
}

fn base_seed() -> u64 {
    match std::env::var("BTRACE_ANALYZE_SEED") {
        Ok(v) => v.parse().unwrap_or_else(|_| panic!("BTRACE_ANALYZE_SEED must be a u64, got {v}")),
        Err(_) => DEFAULT_BASE_SEED,
    }
}

/// Runs `count` seeds derived from `base`, printing a replay line for
/// every failure before asserting.
fn run_batch(base: u64, count: u64) {
    let mut failures = Vec::new();
    for i in 0..count {
        let seed = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if let Err(payload) = std::panic::catch_unwind(|| run_parallel_vs_sequential(seed)) {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            eprintln!(
                "parallel-analysis differential FAILED: seed {seed} \
                 (replay: BTRACE_ANALYZE_SEED={seed} cargo test --test analysis_parallel): {msg}"
            );
            failures.push(seed);
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {count} seeds failed: {failures:?} (base {base})",
        failures.len()
    );
}

#[test]
fn fixed_seeds_bit_identical() {
    // The pinned batch, so regressions reproduce without environment setup.
    run_batch(DEFAULT_BASE_SEED, 8);
}

#[test]
fn fresh_seed_batch_bit_identical() {
    // 200 fresh seeds in release (CI exports a random BTRACE_ANALYZE_SEED);
    // fewer in debug so the suite stays usable locally.
    let count = if cfg!(debug_assertions) { 25 } else { 200 };
    run_batch(base_seed() ^ 0x5_EED0_F5E7, count);
}

fn collected(raw: &[(u64, u16, u32, u8)]) -> Vec<CollectedEvent> {
    raw.iter()
        .map(|&(stamp, core, tid, len)| CollectedEvent {
            stamp,
            core: core % 8,
            tid,
            stored_bytes: encoded_len(len as usize) as u32,
        })
        .collect()
}

proptest! {
    /// Cutting the event list at arbitrary points, mapping each piece, and
    /// fold-merging equals mapping the whole — for any cut set.
    #[test]
    fn arbitrary_event_splits_merge_identically(
        raw in proptest::collection::vec((0u64..5_000, 0u16..8, 0u32..40, 8u8..40), 1..300),
        cuts in proptest::collection::vec(0usize..300, 0..6),
    ) {
        let events = collected(&raw);
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (events.len() + 1)).collect();
        cuts.sort_unstable();
        let mut parts = Vec::new();
        let mut start = 0;
        for cut in cuts {
            parts.push(TracePartial::map(&events[start..cut.max(start)]));
            start = cut.max(start);
        }
        parts.push(TracePartial::map(&events[start..]));
        let merged = fold_merge(parts, TracePartial::merge).expect("at least one part");
        prop_assert_eq!(merged.finish(1 << 20, 8), TracePartial::map(&events).finish(1 << 20, 8));
    }

    /// Splitting a real frame stream into any fragment count (far beyond
    /// the frame count included) analyzes bit-identically to one fragment.
    #[test]
    fn arbitrary_fragment_counts_analyze_identically(
        seed in 0u64..1_000, fragments in 1usize..24, threads in 1usize..6,
    ) {
        let mut rng = seed;
        let mut stamp = 0u64;
        let mut bytes = Vec::new();
        for seq in 0..(1 + seed % 9) {
            let events: Vec<FullEvent> = (0..(splitmix(&mut rng) % 40))
                .map(|_| {
                    stamp += 1 + (splitmix(&mut rng) & 3);
                    FullEvent {
                        stamp,
                        core: (splitmix(&mut rng) % 5) as u16,
                        tid: (splitmix(&mut rng) % 9) as u32,
                        payload: vec![0x3C; 8 + (splitmix(&mut rng) as usize) % 24],
                    }
                })
                .collect();
            bytes.extend_from_slice(&encode_frame(seq, &events));
        }
        let reference = analyze_frames(&bytes, &AnalyzeOptions::default()).expect("decodes");
        let opts = AnalyzeOptions { threads, fragments, ..AnalyzeOptions::default() };
        let out = analyze_frames(&bytes, &opts).expect("decodes");
        prop_assert_eq!(&out.analysis, &reference.analysis);
        prop_assert_eq!(&out.state, &reference.state);
        prop_assert!(out.defects.is_empty());
    }
}
