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
//! (`BTRACE_SEED=analysis_parallel:<seed> cargo test --test
//! analysis_parallel fresh_seed_batch_bit_identical`; see `tests/common`).

use btrace::analysis::{analyze, by_core, by_thread, fold_merge, GapMapOptions, TracePartial};
use btrace::core::event::encoded_len;
use btrace::core::sink::{CollectedEvent, FullEvent};
use btrace::persist::{analyze_frames, encode_frame, visit_frames, AnalyzeOptions};
use btrace::vmem::SplitMix64;
use common::{run_seeds, stormed_stream, Base};
use proptest::prelude::*;

mod common;
mod oracle;

const MAX_PAYLOAD: usize = 40;

/// Base of the pinned batch; the fresh batch's default XORs it.
const DEFAULT_BASE_SEED: u64 = 0xA7A1_5E3D_0C42;

/// One differential run: sequential reference vs parallel shapes vs the
/// historical flat-decode analysis. Panics (with the seed) on divergence.
fn run_parallel_vs_sequential(seed: u64) {
    // The stormed stream with coalescing odd cores and counting payloads.
    let bytes = stormed_stream(seed, true, |rng, stamp| {
        let len = 8 + (rng.next_u64() as usize) % (MAX_PAYLOAD - 7);
        (0..len).map(|i| (stamp as u8).wrapping_add(i as u8)).collect()
    });

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
    let mut events: Vec<CollectedEvent> = Vec::new();
    visit_frames(&bytes, |_, frame| events.extend(frame.iter().map(|e| e.collected())))
        .expect("stream decodes");
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

#[test]
fn fixed_seeds_bit_identical() {
    // The pinned batch, so regressions reproduce without environment setup.
    let base = Base::pinned(DEFAULT_BASE_SEED);
    run_seeds("fresh_seed_batch_bit_identical", base, 8, run_parallel_vs_sequential);
}

#[test]
fn fresh_seed_batch_bit_identical() {
    // 200 fresh seeds in release (CI exports a random BTRACE_SEED);
    // fewer in debug so the suite stays usable locally.
    let count = if cfg!(debug_assertions) { 25 } else { 200 };
    let base = Base::from_env(DEFAULT_BASE_SEED ^ 0x5_EED0_F5E7);
    run_seeds("fresh_seed_batch_bit_identical", base, count, run_parallel_vs_sequential);
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
        let mut rng = SplitMix64::new(seed);
        let mut stamp = 0u64;
        let mut bytes = Vec::new();
        for seq in 0..(1 + seed % 9) {
            let events: Vec<FullEvent> = (0..(rng.next_u64() % 40))
                .map(|_| {
                    stamp += 1 + (rng.next_u64() & 3);
                    FullEvent {
                        stamp,
                        core: (rng.next_u64() % 5) as u16,
                        tid: (rng.next_u64() % 9) as u32,
                        payload: vec![0x3C; 8 + (rng.next_u64() as usize) % 24],
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

    /// Partials built by `push` — whole and per fragment, then merged —
    /// equal the independent collect-sort-dedup reference on in-order,
    /// reversed, shuffled and unordered input. Stamps are drawn from a
    /// narrow range so most arrive more than once with different byte
    /// counts, and the in-order shape puts those repeats next to each
    /// other, where `push` resolves them in place.
    #[test]
    fn push_fold_matches_independent_oracle(
        raw in proptest::collection::vec((0u64..150, 0u16..8, 0u32..40, 8u8..40), 1..300),
        shape in 0u8..4,
        shuffle_seed in 0u64..u64::MAX,
        cuts in proptest::collection::vec(0usize..300, 0..6),
    ) {
        let mut events = collected(&raw);
        match shape {
            0 => events.sort_by_key(|e| e.stamp),
            1 => events.sort_by_key(|e| std::cmp::Reverse(e.stamp)),
            2 => {
                let mut rng = SplitMix64::new(shuffle_seed);
                for i in (1..events.len()).rev() {
                    events.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
                }
            }
            _ => {}
        }
        let expect = oracle::oracle(&events, 1 << 12, 8);
        let stamps: Vec<u64> = oracle::retained(&events).iter().map(|&(s, _)| s).collect();
        let push_all = |events: &[CollectedEvent]| {
            let mut p = TracePartial::default();
            for e in events {
                p.push(*e);
            }
            p
        };

        let whole = push_all(&events);
        prop_assert_eq!(oracle::readout(&whole.finish(1 << 12, 8)), expect.clone());
        prop_assert_eq!(whole.metrics.stamps().collect::<Vec<u64>>(), stamps.clone());
        prop_assert_eq!(whole.metrics.newest(), stamps.last().copied());
        prop_assert_eq!(whole.metrics.len(), stamps.len());
        prop_assert_eq!(&whole, &TracePartial::map(&events));

        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (events.len() + 1)).collect();
        cuts.sort_unstable();
        let mut parts = Vec::new();
        let mut start = 0;
        for cut in cuts.into_iter().chain([events.len()]) {
            parts.push(push_all(&events[start..cut.max(start)]));
            start = cut.max(start);
        }
        let merged = fold_merge(parts, TracePartial::merge).expect("at least one part");
        prop_assert_eq!(oracle::readout(&merged.finish(1 << 12, 8)), expect);
        prop_assert_eq!(merged.metrics.stamps().collect::<Vec<u64>>(), stamps);
    }
}
