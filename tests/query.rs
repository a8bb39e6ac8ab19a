//! Conformance suite for the queryable trace store.
//!
//! **Oracle differential**: seeded workloads (fault storms, mid-run
//! resizes, lapped streams) are dumped to BTSF, empty frames included, and
//! every generated predicate is resolved two ways:
//!
//! * through [`TraceStore`] + [`Query`] (footer pruning, per-frame decode,
//!   monoid partials), and
//! * by a linear full-decode of the same bytes followed by a plain filter
//!   (the oracle).
//!
//! The result sets, derived metrics, reconstructed state, and rendered gap
//! maps must be **bit-identical**, and the predicate-pruned
//! `analyze_frames_with` must agree with both. Failing seeds print a
//! replay line (`BTRACE_SEED=query:<seed> cargo test --test query
//! fresh_seed_batch_matches_oracle`; see `tests/common`).
//!
//! **Compression and pruning**: on a seeded atrace-shaped corpus the
//! compressed framing must stay >= 1.5x smaller than fixed-width framing,
//! and a 10% time slice must decode < 25% of the frames.
//!
//! **Corruption battery**: bits are flipped in headers, bodies, footers,
//! and length fields, files are truncated mid-frame and mid-footer, and
//! frames of the retired fixed-width revision are spliced in — every case
//! must surface as a typed per-frame defect, intact frames must stay
//! queryable, and nothing may panic.

use btrace::analysis::{gap_map, GapMapOptions, TracePartial};
use btrace::atrace::{Category, TraceEvent};
use btrace::core::sink::{CollectedEvent, FullEvent};
use btrace::core::{BTrace, Config};
use btrace::persist::{
    analyze_frames, analyze_frames_with, checksum, encode_frame, encode_stream, visit_frames,
    AnalyzeOptions, Collector, CollectorConfig, DefectKind, FrameInfo, Predicate, Query,
    QueryOptions, TraceDump, TraceStore,
};
use btrace::replay::TraceState;
use btrace::vmem::SplitMix64;
use common::{run_seeds, stormed_stream, Base, CORES, STRIDE};

mod common;
mod oracle;

const BLOCK: usize = 256;
const ACTIVE: usize = 8;

/// Base of the pinned batch; the fresh batch's default XORs it.
const DEFAULT_BASE_SEED: u64 = 0xB2E5_7A11_93D6;

/// A seeded atrace payload — roughly half the workload carries decodable
/// tracepoints (so category predicates bite), the rest raw filler bytes.
fn payload_for(rng: &mut SplitMix64, stamp: u64) -> Vec<u8> {
    let r = rng.next_u64();
    let mut buf = [0u8; btrace::atrace::MAX_ENCODED];
    let n = match r % 8 {
        0 => {
            TraceEvent::SchedWakeup { tid: stamp as u32, cpu: (r >> 8) as u8 % 8 }.encode(&mut buf)
        }
        1 => TraceEvent::SchedSwitch {
            prev: (r >> 8) as u32 % 64,
            next: (r >> 16) as u32 % 64,
            prio: (r >> 24) as u8,
        }
        .encode(&mut buf),
        2 => TraceEvent::Irq { irq: (r >> 8) as u16 % 32, enter: r & 256 == 0 }.encode(&mut buf),
        3 => TraceEvent::BinderTxn {
            from: (r >> 8) as u32 % 64,
            to: (r >> 16) as u32 % 64,
            code: (r >> 24) as u32 % 99,
        }
        .encode(&mut buf),
        _ => {
            let len = 8 + (r >> 8) as usize % 25;
            for (i, b) in buf[..len].iter_mut().enumerate() {
                *b = (stamp as u8).wrapping_add(i as u8);
            }
            len
        }
    };
    buf[..n].to_vec()
}

/// A seeded predicate over the observed stamp span: random time slices,
/// core subsets, and category masks in every combination (including the
/// unrestricted one).
fn gen_predicate(rng: &mut SplitMix64, min_stamp: u64, max_stamp: u64) -> Predicate {
    let span = max_stamp.saturating_sub(min_stamp).max(1);
    let r = rng.next_u64();
    let (since, until) = match r % 4 {
        0 => (None, None),
        1 => (Some(min_stamp + rng.next_u64() % span), None),
        2 => (None, Some(min_stamp + rng.next_u64() % span)),
        _ => {
            let a = min_stamp + rng.next_u64() % span;
            let b = min_stamp + rng.next_u64() % span;
            (Some(a.min(b)), Some(a.max(b)))
        }
    };
    let cores: Vec<u16> = match (r >> 8) % 3 {
        0 => Vec::new(),
        1 => vec![(rng.next_u64() % CORES as u64) as u16],
        _ => vec![0, (1 + rng.next_u64() % (CORES as u64 - 1)) as u16],
    };
    let category = match (r >> 16) % 4 {
        0 => Some(Category::SCHED),
        1 => Some(Category::IRQ | Category::BINDER_DRIVER),
        _ => None,
    };
    Predicate { since, until, cores, category }
}

fn collect(events: &[FullEvent]) -> Vec<CollectedEvent> {
    events.iter().map(|e| e.view().collected()).collect()
}

/// Every event of `bytes`, copied out through the strict whole-stream
/// reader.
fn decode_all(bytes: &[u8]) -> std::io::Result<Vec<FullEvent>> {
    let mut events = Vec::new();
    visit_frames(bytes, |_, frame| events.extend(frame.iter().map(|e| e.to_owned())))?;
    Ok(events)
}

/// One differential run: several generated predicates, each resolved via
/// the store query, the pruned parallel analyzer, and the linear oracle.
fn run_query_vs_oracle(seed: u64) {
    // The stormed stream with atrace-shaped payloads.
    let bytes = stormed_stream(seed, false, payload_for);
    let store = TraceStore::from_bytes(bytes.clone());
    assert!(store.defects().is_empty(), "seed {seed}: healthy stream scanned with defects");

    let all: Vec<FullEvent> = decode_all(&bytes).expect("healthy stream decodes");
    assert_eq!(
        store.total_events(),
        all.len() as u64,
        "seed {seed}: directory event total diverged from the full decode"
    );
    let (min_stamp, max_stamp) =
        all.iter().fold((u64::MAX, 0u64), |(lo, hi), e| (lo.min(e.stamp), hi.max(e.stamp)));

    let mut rng = SplitMix64::new(seed ^ 0x9D_1CE5);
    let mut predicates: Vec<Predicate> =
        (0..4).map(|_| gen_predicate(&mut rng, min_stamp, max_stamp.max(min_stamp))).collect();
    predicates.push(Predicate::default());

    // The borrowed decode yields the oracle's events in file order, and
    // every predicate judges a borrowed event exactly as its owned copy.
    let mut refs = Vec::new();
    let mut owned = all.iter();
    for idx in 0..store.frames().len() {
        store.decode_frame_refs(idx, &mut refs).expect("healthy frame validates");
        for r in &refs {
            let e = owned.next().expect("store yields no more events than the oracle");
            assert_eq!(r.to_owned(), *e, "seed {seed} frame {idx}: borrowed decode diverged");
            for (pi, predicate) in predicates.iter().enumerate() {
                assert_eq!(
                    predicate.admits(r),
                    predicate.admits(&e.view()),
                    "seed {seed} predicate {pi}: a view of the store disagrees with a view of the copy"
                );
            }
        }
    }
    assert!(owned.next().is_none(), "seed {seed}: store yields fewer events than the oracle");

    for (pi, predicate) in predicates.into_iter().enumerate() {
        let oracle: Vec<FullEvent> =
            all.iter().filter(|e| predicate.admits(&e.view())).cloned().collect();
        let oracle_partial = TracePartial::map(&collect(&oracle));
        let newest = oracle_partial.metrics.newest();
        let gopts = newest.map(|n| GapMapOptions { window: (n - min_stamp).max(1) + 1, width: 48 });

        let q = Query {
            predicate: predicate.clone(),
            options: QueryOptions {
                collect_events: true,
                capacity_bytes: 1 << 16,
                gap_map: gopts,
                ..Default::default()
            },
        };
        let report = q.run(&store);
        assert!(
            report.defects.is_empty(),
            "seed {seed} predicate {pi}: defects on a healthy stream: {:?}",
            report.defects
        );
        assert_eq!(
            report.events, oracle,
            "seed {seed} predicate {pi} ({predicate:?}): result set diverged from the oracle"
        );
        assert_eq!(report.matched_events, oracle.len() as u64, "seed {seed} predicate {pi}");
        assert_eq!(
            report.analysis,
            oracle_partial.clone().finish(1 << 16, 8),
            "seed {seed} predicate {pi}: derived metrics diverged from the oracle"
        );
        let mut oracle_state = TraceState::empty();
        for e in &oracle {
            oracle_state.record(e.core, e.tid, e.stamp, e.payload.len() as u64);
        }
        assert_eq!(report.state, oracle_state, "seed {seed} predicate {pi}: state diverged");
        assert_eq!(report.newest_stamp, newest, "seed {seed} predicate {pi}");
        let oracle_gap = gopts.and_then(|g| {
            newest.map(|n| {
                let stamps: Vec<u64> = oracle_partial.metrics.stamps().collect();
                gap_map(&stamps, n, g)
            })
        });
        assert_eq!(report.gap_map, oracle_gap, "seed {seed} predicate {pi}: gap map diverged");
        assert_eq!(
            report.frames_total,
            report.frames_decoded + report.frames_pruned,
            "seed {seed} predicate {pi}: prune accounting does not tile the directory"
        );

        // Without `collect_events` (the `btrace query` path) no payload is
        // copied, and every derived answer must be the same.
        let uncollected =
            Query { options: QueryOptions { collect_events: false, ..q.options }, ..q.clone() }
                .run(&store);
        assert!(uncollected.events.is_empty(), "seed {seed} predicate {pi}: events kept");
        assert!(uncollected.defects.is_empty(), "seed {seed} predicate {pi}");
        assert_eq!(uncollected.matched_events, report.matched_events, "seed {seed} pred {pi}");
        assert_eq!(uncollected.analysis, report.analysis, "seed {seed} predicate {pi}");
        assert_eq!(uncollected.state, report.state, "seed {seed} predicate {pi}");
        assert_eq!(uncollected.gap_map, report.gap_map, "seed {seed} predicate {pi}");
        assert_eq!(uncollected.newest_stamp, report.newest_stamp, "seed {seed} predicate {pi}");
        assert_eq!(
            (uncollected.frames_decoded, uncollected.frames_pruned),
            (report.frames_decoded, report.frames_pruned),
            "seed {seed} predicate {pi}: prune counts diverged"
        );

        // The pruned fragment-parallel analyzer shares the plan and must
        // agree event-for-event.
        for threads in [1usize, 3] {
            let opts = AnalyzeOptions {
                threads,
                fragments: 5,
                capacity_bytes: 1 << 16,
                gap_map: gopts,
                ..Default::default()
            };
            let par = analyze_frames_with(&bytes, &opts, Some(&predicate))
                .expect("healthy stream analyzes");
            assert_eq!(
                par.analysis, report.analysis,
                "seed {seed} predicate {pi} K={threads}: pruned analyzer diverged"
            );
            assert_eq!(par.state, report.state, "seed {seed} predicate {pi} K={threads}");
            assert_eq!(par.gap_map, report.gap_map, "seed {seed} predicate {pi} K={threads}");
        }
    }
}

#[test]
fn fixed_seeds_match_oracle() {
    // The pinned batch, so regressions reproduce without environment setup.
    let base = Base::pinned(DEFAULT_BASE_SEED);
    run_seeds("fresh_seed_batch_matches_oracle", base, 8, run_query_vs_oracle);
}

#[test]
fn fresh_seed_batch_matches_oracle() {
    // 200 fresh seeds in release (CI exports a random BTRACE_SEED);
    // fewer in debug so the suite stays usable locally.
    let count = if cfg!(debug_assertions) { 25 } else { 200 };
    let base = Base::from_env(DEFAULT_BASE_SEED ^ 0x5_EED0_F5E8);
    run_seeds("fresh_seed_batch_matches_oracle", base, count, run_query_vs_oracle);
}

// ---------------------------------------------------------------------------
// Compression and pruning on an atrace-shaped corpus
// ---------------------------------------------------------------------------

const CORPUS_EVENTS: usize = 64 * 1024;
const CORPUS_FRAME_EVENTS: usize = 1024;

/// Three laps over overlapping stamp ranges, written newest lap first:
/// frames run out of stamp order (one frame even steps backwards inside),
/// and each later lap repeats stamps of another with other payload sizes.
fn lapped_events() -> Vec<FullEvent> {
    let laps = [(1_000u64..1_600, 0usize), (0..700, 5), (650..1_100, 11)];
    laps.into_iter()
        .flat_map(|(stamps, shift)| {
            stamps.filter(|s| s % 17 != 3).map(move |s| FullEvent {
                stamp: s,
                core: ((s as usize + shift) % 5) as u16,
                tid: 300 + (s % 7) as u32,
                payload: vec![0x5A; 8 + (s as usize + shift) % 30],
            })
        })
        .collect()
}

#[test]
fn lapped_stream_matches_independent_oracle() {
    let events = lapped_events();
    let bytes = encode_stream(&events, 64);
    let store = TraceStore::from_bytes(bytes.clone());
    let gopts = GapMapOptions { window: 1_200, width: 40 };
    let restricted = Predicate {
        since: Some(600),
        until: Some(1_250),
        cores: vec![0, 2, 3],
        ..Default::default()
    };
    for predicate in [Predicate::default(), restricted] {
        let matched: Vec<FullEvent> =
            events.iter().filter(|e| predicate.admits(&e.view())).cloned().collect();
        let matched = collect(&matched);
        let expect = oracle::oracle(&matched, 1 << 14, 8);
        let stamps: Vec<u64> = oracle::retained(&matched).iter().map(|&(s, _)| s).collect();
        let newest = stamps.last().copied();
        let expect_gap = newest.map(|n| gap_map(&stamps, n, gopts));
        assert!(stamps.len() < matched.len(), "the laps must repeat stamps");

        let q = Query {
            predicate: predicate.clone(),
            options: QueryOptions {
                capacity_bytes: 1 << 14,
                gap_map: Some(gopts),
                ..Default::default()
            },
        };
        let report = q.run(&store);
        assert!(report.defects.is_empty());
        assert_eq!(report.matched_events, matched.len() as u64);
        assert_eq!(oracle::readout(&report.analysis), expect, "{predicate:?}: query");
        assert_eq!(report.gap_map, expect_gap, "{predicate:?}: query gap map");
        assert_eq!(report.newest_stamp, newest, "{predicate:?}: query newest");

        for (threads, fragments) in [(1, 0), (3, 5)] {
            let opts = AnalyzeOptions {
                threads,
                fragments,
                capacity_bytes: 1 << 14,
                gap_map: Some(gopts),
                ..Default::default()
            };
            // Unrestricted, the boundary hand-off check runs too.
            let restriction = (predicate != Predicate::default()).then_some(&predicate);
            let out = analyze_frames_with(&bytes, &opts, restriction).expect("decodes");
            let what = format!("{predicate:?}: analyze_frames at {threads} threads");
            assert!(out.defects.is_empty(), "{what}: {:?}", out.defects);
            assert_eq!(oracle::readout(&out.analysis), expect, "{what}");
            assert_eq!(out.gap_map, expect_gap, "{what}: gap map");
            assert_eq!(out.newest_stamp, newest, "{what}: newest");
            assert_eq!(out.state, report.state, "{what}: state");
        }
    }
}

/// Events whose keys stress the per-core and per-thread row lookup:
/// 1 500 tids spread across `u32` (a third of them multiples of 2^22, which
/// share every low bit a power-of-two table would index by identity),
/// cores 0..96 (past the footer bitmap's folded bit 63), and stamps that run
/// backwards within and across frames, skip some values and repeat others
/// with other payload sizes.
fn spread_key_events() -> Vec<FullEvent> {
    let mut rng = SplitMix64::new(0x6B3D_0A11);
    let tids: Vec<u32> = (0..1_500u32)
        .map(|i| match i % 3 {
            0 => (i / 3) << 22,
            1 => rng.next_u64() as u32,
            _ => u32::MAX - i,
        })
        .collect();
    (0..12_000u64)
        .map(|j| (j, (j * 7_919) % 10_000)) // a permutation of 0..10 000, then repeats
        .filter(|&(_, stamp)| stamp % 11 != 4)
        .map(|(j, stamp)| {
            let r = rng.next_u64();
            FullEvent {
                stamp,
                core: (r % 96) as u16,
                tid: tids[j as usize % tids.len()],
                payload: vec![0xE1; 4 + (r >> 8) as usize % 40],
            }
        })
        .collect()
}

/// The store query and the fragment analyzer fold each event once into rows
/// found by hashing; with over a thousand spread tids, cores past 63 and
/// out-of-order, repeated stamps they must equal the per-event
/// `TraceState::record` fold and `TracePartial::map`, and the readout must
/// equal the independent collect-then-sort oracle.
#[test]
fn spread_group_keys_match_the_record_oracle() {
    const TOP: usize = 2_000;
    let events = spread_key_events();
    let bytes = encode_stream(&events, 256);
    let store = TraceStore::from_bytes(bytes.clone());
    assert!(store.defects().is_empty(), "{:?}", store.defects());
    let restricted = Predicate {
        since: Some(1_000),
        until: Some(8_000),
        cores: vec![0, 5, 62, 63, 64, 95],
        ..Default::default()
    };
    for predicate in [Predicate::default(), restricted] {
        let matched: Vec<FullEvent> =
            events.iter().filter(|e| predicate.admits(&e.view())).cloned().collect();
        let collected = collect(&matched);
        let mut expect_state = TraceState::empty();
        for e in &matched {
            expect_state.record(e.core, e.tid, e.stamp, e.payload.len() as u64);
        }
        let expect = TracePartial::map(&collected).finish(1 << 16, TOP);
        assert_eq!(oracle::readout(&expect), oracle::oracle(&collected, 1 << 16, TOP));
        if predicate == Predicate::default() {
            assert!(expect_state.tids.len() > 1_000, "{} tids", expect_state.tids.len());
            assert_eq!(expect_state.cores.len(), 96);
            assert!(oracle::retained(&collected).len() < matched.len(), "stamps must repeat");
        }

        let q = Query {
            predicate: predicate.clone(),
            options: QueryOptions {
                capacity_bytes: 1 << 16,
                top_threads: TOP,
                ..Default::default()
            },
        };
        let report = q.run(&store);
        assert!(report.defects.is_empty(), "{predicate:?}: {:?}", report.defects);
        assert_eq!(report.matched_events, matched.len() as u64, "{predicate:?}");
        assert_eq!(report.analysis, expect, "{predicate:?}: query readout");
        assert_eq!(report.state, expect_state, "{predicate:?}: query state");

        for threads in [1, 3] {
            let opts = AnalyzeOptions {
                threads,
                fragments: 5,
                capacity_bytes: 1 << 16,
                top_threads: TOP,
                ..Default::default()
            };
            // Unrestricted, the boundary hand-off check runs too.
            let restriction = (predicate != Predicate::default()).then_some(&predicate);
            let out = analyze_frames_with(&bytes, &opts, restriction).expect("decodes");
            let what = format!("{predicate:?}: analyze_frames at {threads} threads");
            assert!(out.defects.is_empty(), "{what}: {:?}", out.defects);
            assert_eq!(out.analysis, expect, "{what}: readout");
            assert_eq!(out.state, expect_state, "{what}: state");
            let mut fragments = TraceState::empty();
            for state in out.per_fragment_state {
                fragments = fragments.merge(state);
            }
            assert_eq!(fragments, expect_state, "{what}: per-fragment states");
        }
    }
}

/// A drain-shaped corpus: globally increasing stamps with jitter, core 0
/// hot, and small atrace-encoded payloads (sched/irq/binder mix) — what a
/// phone dumps, not fat blobs.
fn atrace_corpus() -> Vec<FullEvent> {
    let mut rng = SplitMix64::new(0x51);
    let mut stamp = 0u64;
    let mut buf = [0u8; btrace::atrace::MAX_ENCODED];
    (0..CORPUS_EVENTS)
        .map(|_| {
            let r = rng.next_u64();
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

/// The compressed framing must stay >= 1.5x smaller than the same events
/// in fixed-width framing (computed: 18 bytes of fields per event plus the
/// payload, and the 20-byte header, 40-byte footer and 8-byte checksum per
/// frame), and a 10% time slice must decode < 25% of the frames. Every
/// query must return exactly the source events its predicate admits.
#[test]
fn atrace_corpus_compresses_and_prunes() {
    let events = atrace_corpus();
    let span = events.last().expect("non-empty corpus").stamp;
    let frames = events.len().div_ceil(CORPUS_FRAME_EVENTS);
    let fixed_width =
        frames * (20 + 40 + 8) + events.iter().map(|e| 18 + e.payload.len()).sum::<usize>();
    let store = TraceStore::from_bytes(encode_stream(&events, CORPUS_FRAME_EVENTS));
    assert!(store.defects().is_empty(), "{:?}", store.defects());
    assert_eq!(store.frames().len(), frames);
    let ratio = fixed_width as f64 / store.bytes().len() as f64;
    assert!(ratio >= 1.5, "compressed framing only {ratio:.2}x smaller than fixed-width");

    let slice = Predicate {
        since: Some(span / 2),
        until: Some(span / 2 + span / 10),
        ..Default::default()
    };
    let sched_in_slice = Predicate {
        since: Some(span / 4),
        until: Some(span / 2),
        category: Some(Category::SCHED),
        ..Default::default()
    };
    let one_core = Predicate { cores: vec![3], ..Default::default() };
    for (name, predicate) in [
        ("slice", slice),
        ("sched_in_slice", sched_in_slice),
        ("one_core", one_core),
        ("all", Predicate::default()),
    ] {
        let report = Query {
            predicate: predicate.clone(),
            options: QueryOptions { collect_events: true, ..Default::default() },
        }
        .run(&store);
        assert!(report.defects.is_empty(), "{name}: {:?}", report.defects);
        let oracle: Vec<FullEvent> =
            events.iter().filter(|e| predicate.admits(&e.view())).cloned().collect();
        assert_eq!(report.events, oracle, "{name}: indexed query diverged from the oracle");
        if name == "slice" {
            let decoded = report.frames_decoded as f64 / report.frames_total as f64;
            assert!(decoded < 0.25, "10% slice decoded {:.1}% of frames", decoded * 100.0);
        }
    }
}

// ---------------------------------------------------------------------------
// Corruption battery
// ---------------------------------------------------------------------------

fn battery_events(n: u64) -> Vec<FullEvent> {
    let mut rng = SplitMix64::new(0x00C0_FFEE);
    (0..n)
        .map(|s| FullEvent {
            stamp: s,
            core: (s % 4) as u16,
            tid: 7 + (s % 3) as u32,
            payload: payload_for(&mut rng, s),
        })
        .collect()
}

/// A six-frame stream with known per-frame contents (frame 4 empty), so the
/// battery knows exactly which events each surviving frame must still
/// yield.
fn battery_stream() -> (Vec<u8>, Vec<Vec<FullEvent>>) {
    let events = battery_events(100);
    let mut frames: Vec<Vec<FullEvent>> = events.chunks(20).map(<[FullEvent]>::to_vec).collect();
    frames.insert(4, Vec::new());
    let mut bytes = Vec::new();
    for (seq, frame) in frames.iter().enumerate() {
        bytes.extend_from_slice(&encode_frame(seq as u64, frame));
    }
    (bytes, frames)
}

/// Asserts the store over `bytes` never panics, reports at least one typed
/// defect (scan- or decode-time), and that every frame it can still decode
/// yields exactly the original contents for that seq.
fn assert_damage_contained(bytes: Vec<u8>, frames: &[Vec<FullEvent>], min_intact: usize) {
    let store = TraceStore::from_bytes(bytes);
    let mut intact = 0usize;
    let mut decode_defects = Vec::new();
    for idx in 0..store.frames().len() {
        let seq = store.frames()[idx].seq as usize;
        match store.decode_frame(idx) {
            Ok(events) => {
                assert_eq!(
                    events, frames[seq],
                    "surviving frame seq {seq} must yield its original events"
                );
                intact += 1;
            }
            Err(defect) => decode_defects.push(defect),
        }
    }
    assert!(
        !store.defects().is_empty() || !decode_defects.is_empty(),
        "damage must surface as a typed defect"
    );
    assert!(intact >= min_intact, "at least {min_intact} frames must stay queryable, got {intact}");
    // And the query path reports the same damage without panicking.
    let report = Query::default().run(&store);
    assert_eq!(report.defects.is_empty(), store.defects().is_empty() && decode_defects.is_empty());
}

#[test]
fn corrupt_header_magic_resyncs_past_the_damage() {
    let (bytes, frames) = battery_stream();
    let store = TraceStore::from_bytes(bytes.clone());
    for victim in 0..frames.len() {
        let mut bytes = bytes.clone();
        bytes[store.frames()[victim].offset] ^= 0x40;
        assert_damage_contained(bytes, &frames, frames.len() - 1);
    }
}

#[test]
fn corrupt_length_header_is_contained() {
    let (bytes, frames) = battery_stream();
    let store = TraceStore::from_bytes(bytes.clone());
    for victim in 0..frames.len() {
        for wreck in [0u32, 5, 0xFFFF_FF00] {
            let mut bytes = bytes.clone();
            let at = store.frames()[victim].offset + 4;
            bytes[at..at + 4].copy_from_slice(&wreck.to_le_bytes());
            assert_damage_contained(bytes, &frames, frames.len() - 2);
        }
    }
}

#[test]
fn corrupt_body_bits_are_one_frames_defect() {
    let (bytes, frames) = battery_stream();
    let store = TraceStore::from_bytes(bytes.clone());
    for victim in [0usize, 1, 3, 5] {
        let f = store.frames()[victim];
        for rel in [20, f.len / 2, f.len - 9] {
            let mut bytes = bytes.clone();
            bytes[f.offset + rel] ^= 0xA5;
            let store = TraceStore::from_bytes(bytes);
            let hit = store.frames().iter().position(|s| s.seq == victim as u64);
            if let Some(idx) = hit {
                let err = store.decode_frame(idx).expect_err("damaged frame must not decode");
                assert!(
                    matches!(
                        err.kind,
                        DefectKind::ChecksumMismatch
                            | DefectKind::BodyOverrun
                            | DefectKind::FooterMismatch
                    ),
                    "unexpected defect kind {:?}",
                    err.kind
                );
            }
            // Flipping one body bit may also desync the directory (the
            // length field lives in the body of no frame, so at most the
            // victim is lost); every other frame still round-trips.
            let mut others = 0;
            for idx in 0..store.frames().len() {
                let seq = store.frames()[idx].seq as usize;
                if seq != victim {
                    if let Ok(events) = store.decode_frame(idx) {
                        assert_eq!(events, frames[seq]);
                        others += 1;
                    }
                }
            }
            assert!(others >= frames.len() - 2, "intact frames must stay queryable");
        }
    }
}

/// Every single-bit flip in a frame's event section (past the 20-byte
/// header, before the 48-byte footer and crc) leaves the directory intact
/// and is caught by the checksum itself, before any event is decoded.
#[test]
fn corrupt_event_section_bit_flips_are_checksum_mismatches() {
    let (bytes, frames) = battery_stream();
    let store = TraceStore::from_bytes(bytes.clone());
    for victim in [0usize, 5] {
        let f = store.frames()[victim];
        for at in f.offset + 20..f.offset + f.len - 48 {
            for bit in 0..8 {
                let mut bytes = bytes.clone();
                bytes[at] ^= 1 << bit;
                let store = TraceStore::from_bytes(bytes);
                assert_eq!(store.frames().len(), frames.len(), "the directory must hold");
                let err = store.decode_frame(victim).expect_err("damaged frame must not decode");
                assert_eq!(err.kind, DefectKind::ChecksumMismatch, "byte {at} bit {bit}");
            }
        }
    }
}

#[test]
fn corrupt_footer_fields_are_typed_defects() {
    let (bytes, frames) = battery_stream();
    let store = TraceStore::from_bytes(bytes.clone());
    // Footer starts FOOTER_BYTES + 8 from the frame end (footer + crc = 48).
    for victim in [1usize, 2] {
        let f = store.frames()[victim];
        for rel_from_end in [48, 44, 20, 12] {
            let mut bytes = bytes.clone();
            bytes[f.offset + f.len - rel_from_end] ^= 0xFF;
            assert_damage_contained(bytes, &frames, frames.len() - 1);
        }
    }
}

#[test]
fn truncation_anywhere_is_contained() {
    let (bytes, frames) = battery_stream();
    let store = TraceStore::from_bytes(bytes.clone());
    let last = *store.frames().last().expect("frames exist");
    let cuts = [
        bytes.len() - 4,              // inside the trailing crc
        bytes.len() - 20,             // mid-footer
        last.offset + last.len / 2,   // mid-body of the last frame
        last.offset + 6,              // inside the last header
        store.frames()[2].offset + 9, // mid-file: frames 3.. vanish entirely
    ];
    for cut in cuts {
        let store = TraceStore::from_bytes(bytes[..cut].to_vec());
        assert!(
            !store.defects().is_empty(),
            "cut at {cut} must be a scan defect: {:?}",
            store.defects()
        );
        assert!(store.defects().iter().any(|d| d.kind == DefectKind::Truncated));
        for idx in 0..store.frames().len() {
            let seq = store.frames()[idx].seq as usize;
            assert_eq!(store.decode_frame(idx).expect("surviving frames decode"), frames[seq]);
        }
        Query::default().run(&store); // must not panic
    }
}

/// Rewrites one event's payload length inside frame `seq` of the battery
/// stream so the event section runs past the body, then re-seals the crc:
/// the checksum passes and only the event-section check can catch it.
fn overrun_behind_valid_crc(
    bytes: &mut [u8],
    frame: &FrameInfo,
    events: &[FullEvent],
    victim: usize,
) {
    // The event sections of a frame and of its prefix agree byte for byte,
    // so the prefix encoding locates the victim's payload (footer 40 and
    // crc 8 bytes sit behind it).
    let prefix = encode_frame(frame.seq, &events[..=victim]);
    let payload_at = frame.offset + prefix.len() - 48 - events[victim].payload.len();
    assert!(events[victim].payload.len() >= 3, "room for the widened varint");
    // The one-byte varint length becomes a four-byte 2^28 - 1 that swallows
    // the payload's first three bytes.
    bytes[payload_at - 1..payload_at + 3].copy_from_slice(&[0xFF, 0xFF, 0xFF, 0x7F]);
    let end = frame.offset + frame.len - 8;
    let crc = checksum(&bytes[frame.offset..end]);
    bytes[end..end + 8].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn overrun_behind_a_valid_checksum_contributes_nothing() {
    let (clean, frames) = battery_stream();
    let directory = TraceStore::from_bytes(clean.clone()).frames().to_vec();
    // Event 10 of 20 overruns, so ten events decode cleanly before the
    // damage is found.
    for victim in [0usize, 1] {
        let mut bytes = clean.clone();
        overrun_behind_valid_crc(&mut bytes, &directory[victim], &frames[victim], 10);
        let store = TraceStore::from_bytes(bytes.clone());
        assert!(store.defects().is_empty(), "structure is intact");
        assert_eq!(store.frames().len(), frames.len());

        // The scratch still holds the previous frame's events when the
        // victim is decoded into it; a defect must leave it empty.
        let mut refs = Vec::new();
        store.decode_frame_refs(2, &mut refs).expect("frame 2 is intact");
        assert!(!refs.is_empty());
        let err = store.decode_frame_refs(victim, &mut refs).expect_err("overrun frame");
        assert_eq!(err.kind, DefectKind::BodyOverrun, "frame {victim}: {err}");
        assert_eq!(err.frame, victim);
        assert!(refs.is_empty(), "frame {victim}: a defective frame must hand out no event");

        // The query reports the defect, counts none of the victim's events,
        // and every other frame still answers.
        let survivors: Vec<FullEvent> = frames
            .iter()
            .enumerate()
            .filter(|&(seq, _)| seq != victim)
            .flat_map(|(_, f)| f.iter().cloned())
            .collect();
        for collect_events in [true, false] {
            let q = Query {
                options: QueryOptions { collect_events, ..Default::default() },
                ..Default::default()
            };
            let report = q.run(&store);
            assert_eq!(report.defects.len(), 1, "frame {victim}: {:?}", report.defects);
            assert_eq!(report.defects[0].kind, DefectKind::BodyOverrun);
            assert_eq!(report.matched_events, survivors.len() as u64);
            if collect_events {
                assert_eq!(report.events, survivors);
            }
            let mut state = TraceState::empty();
            for e in &survivors {
                state.record(e.core, e.tid, e.stamp, e.payload.len() as u64);
            }
            assert_eq!(report.state, state, "frame {victim}: the victim leaked into the state");
        }
        let core = Query::new(Predicate { cores: vec![2], ..Default::default() }).run(&store);
        assert_eq!(core.matched_events, survivors.iter().filter(|e| e.core == 2).count() as u64);

        // The whole-stream readers reject the stream outright.
        let err = decode_all(&bytes).expect_err("overrun stream must not decode");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let err = analyze_frames(&bytes, &AnalyzeOptions::default())
            .expect_err("overrun stream must not analyze");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}

/// A frame in the retired fixed-width layout (revision 1): no revision
/// flag in the count, 18 bytes of fields before each payload, optionally
/// the index footer, and a valid crc.
fn fixed_width_frame(seq: u64, events: &[FullEvent], footer: bool) -> Vec<u8> {
    let mut frame = b"BTSF\0\0\0\0".to_vec();
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(&(events.len() as u32).to_le_bytes());
    for e in events {
        frame.extend_from_slice(&e.stamp.to_le_bytes());
        frame.extend_from_slice(&e.core.to_le_bytes());
        frame.extend_from_slice(&e.tid.to_le_bytes());
        frame.extend_from_slice(&(e.payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&e.payload);
    }
    if footer {
        frame.extend_from_slice(b"FIDX");
        frame.extend_from_slice(
            &events.iter().map(|e| e.stamp).min().unwrap_or(u64::MAX).to_le_bytes(),
        );
        frame.extend_from_slice(&events.iter().map(|e| e.stamp).max().unwrap_or(0).to_le_bytes());
        let bitmap = events.iter().fold(0u64, |b, e| b | 1 << (e.core as u64).min(63));
        frame.extend_from_slice(&bitmap.to_le_bytes());
        frame.extend_from_slice(&(events.len() as u32).to_le_bytes());
        let payload: u64 = events.iter().map(|e| e.payload.len() as u64).sum();
        frame.extend_from_slice(&payload.to_le_bytes());
    }
    // body_len counts everything after itself, the crc included.
    let body_len = frame.len() as u32;
    frame[4..8].copy_from_slice(&body_len.to_le_bytes());
    let crc = checksum(&frame);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

#[test]
fn fixed_width_frames_are_typed_defects_never_decoded() {
    let (clean, frames) = battery_stream();
    let directory = TraceStore::from_bytes(clean.clone()).frames().to_vec();
    for footer in [false, true] {
        // Frame 2 is replaced by the same events in the fixed-width layout.
        let mut bytes = clean[..directory[2].offset].to_vec();
        bytes.extend_from_slice(&fixed_width_frame(2, &frames[2], footer));
        bytes.extend_from_slice(&clean[directory[3].offset..]);

        let store = TraceStore::from_bytes(bytes.clone());
        assert_eq!(store.defects().len(), 1, "footer {footer}: {:?}", store.defects());
        assert_eq!(store.defects()[0].kind, DefectKind::UnknownRevision);
        let seqs: Vec<u64> = store.frames().iter().map(|f| f.seq).collect();
        assert_eq!(seqs, [0, 1, 3, 4, 5], "the store resyncs past the old frame");
        let report = Query::new(Predicate::default()).run(&store);
        let survivors = frames.iter().enumerate().filter(|&(seq, _)| seq != 2);
        assert_eq!(report.matched_events, survivors.map(|(_, f)| f.len() as u64).sum::<u64>());
        assert_eq!(report.defects[0].kind, DefectKind::UnknownRevision);

        let err = decode_all(&bytes).expect_err("old frame must not decode");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let err = analyze_frames(&bytes, &AnalyzeOptions::default())
            .expect_err("old frame must not analyze");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}

/// A collector dump opens in place: the store skips its label header, and
/// the query and analyzer over the frame section see exactly what
/// `TraceDump::read_from` reads.
#[test]
fn collector_dump_opens_in_place_through_the_store() {
    let tracer = std::sync::Arc::new(
        BTrace::new(
            Config::new(CORES).block_bytes(BLOCK).active_blocks(ACTIVE).buffer_bytes(8 * STRIDE),
        )
        .expect("valid configuration"),
    );
    let mut rng = SplitMix64::new(0x0D0_5EED);
    for stamp in 0..1_500u64 {
        let core = (rng.next_u64() as usize) % CORES;
        let payload = payload_for(&mut rng, stamp);
        tracer.producer(core).unwrap().record_with(stamp, core as u32, &payload).unwrap();
    }
    let dir = std::env::temp_dir().join(format!("btrace-query-dump-{}", std::process::id()));
    let collector = Collector::new(std::sync::Arc::clone(&tracer), CollectorConfig::new(&dir))
        .expect("collector");
    let path = collector.trigger("anr").expect("dump written");

    let dump = TraceDump::read_from(&path).expect("dump reads");
    assert!(!dump.events().is_empty());
    let store = TraceStore::open(&path).expect("dump opens");
    assert!(store.defects().is_empty(), "{:?}", store.defects());
    assert_eq!(store.total_events(), dump.events().len() as u64);

    let report = Query {
        options: QueryOptions { collect_events: true, ..Default::default() },
        ..Default::default()
    }
    .run(&store);
    assert!(report.defects.is_empty());
    assert_eq!(report.events, dump.events());
    let mut state = TraceState::empty();
    for e in dump.events() {
        state.record(e.core, e.tid, e.stamp, e.payload.len() as u64);
    }
    assert_eq!(report.state, state);
    let whole = TracePartial::map(&collect(dump.events())).finish(0, 8);
    assert_eq!(report.analysis, whole, "metrics and per-core counts");

    let par = analyze_frames(store.bytes(), &AnalyzeOptions { threads: 2, ..Default::default() })
        .expect("dump frames analyze");
    assert!(par.defects.is_empty(), "{:?}", par.defects);
    assert_eq!(par.state, state);
    assert_eq!(par.analysis, whole);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn garbage_files_never_panic() {
    let mut rng = SplitMix64::new(0xDEAD_BEEF);
    for len in [0usize, 1, 3, 7, 64, 4096] {
        let junk: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let store = TraceStore::from_bytes(junk);
        let report = Query::default().run(&store);
        assert_eq!(report.matched_events, 0);
    }
    // A lone magic with nothing behind it.
    let store = TraceStore::from_bytes(b"BTSF".to_vec());
    assert_eq!(store.frames().len(), 0);
    assert!(!store.defects().is_empty());
}
