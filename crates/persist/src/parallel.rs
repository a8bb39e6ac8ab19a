//! Fragment-parallel analysis of BTSF streams: scan → split → map
//! (decode + analyze per fragment, on a scoped worker pool) → ordered
//! merge → finish, with the boundary hand-off check and per-fragment work
//! counters.
//!
//! The sequential path **is** the parallel path with `threads = 1` — same
//! fragments, same map, same ordered merge — so the two are bit-identical
//! by construction, and the differential suite additionally pins the whole
//! pipeline against the single-fragment and legacy sequential analyses.

use std::io;
use std::time::Instant;

use btrace_analysis::{fold_merge, map_reduce, GapMapOptions, TraceAnalysis, TracePartial};
use btrace_replay::{check_handoff, BoundaryDefect, BoundaryExpectation, TraceState};

use crate::fragment::{scan_frames, split_fragments, FragmentContext};
use crate::query::{Predicate, ReadFold};
use crate::stream::visit_frames;

/// Tuning for [`analyze_frames`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyzeOptions {
    /// Worker threads (1 = sequential on the calling thread).
    pub threads: usize,
    /// Fragments to split into; 0 means one per thread.
    pub fragments: usize,
    /// Tracer buffer capacity for the effectivity ratio (0 if unknown).
    pub capacity_bytes: usize,
    /// Busiest-thread table size.
    pub top_threads: usize,
    /// Render a retention gap map over this window, if set.
    pub gap_map: Option<GapMapOptions>,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        Self { threads: 1, fragments: 0, capacity_bytes: 0, top_threads: 8, gap_map: None }
    }
}

/// Work counters for one fragment — the partition-balance evidence a 1-CPU
/// host reports in place of wall-clock speedup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct FragmentWork {
    /// Fragment position.
    pub fragment: usize,
    /// Frames decoded.
    pub frames: usize,
    /// Events decoded.
    pub events: u64,
    /// Stream bytes consumed.
    pub bytes: u64,
    /// Nanoseconds spent decoding + mapping this fragment.
    pub busy_ns: u64,
}

/// The finished fragment-parallel readout of one stream.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ParallelAnalysis {
    /// Retention metrics plus per-core / per-thread breakdowns
    /// (stored-byte accounting, as a live drain would report).
    pub analysis: TraceAnalysis,
    /// Reconstructed trace state (raw payload-byte accounting, matching the
    /// frame index footers).
    pub state: TraceState,
    /// Per-fragment states, in fragment order.
    pub per_fragment_state: Vec<TraceState>,
    /// Boundary hand-off defects: where the frame index's promises disagree
    /// with what the fragments actually decoded. Empty for a healthy trace.
    pub defects: Vec<BoundaryDefect>,
    /// Retention gap map, when requested.
    pub gap_map: Option<String>,
    /// Per-fragment work counters.
    pub work: Vec<FragmentWork>,
    /// Worker threads used.
    pub threads: usize,
    /// Frames scanned.
    pub frames: usize,
    /// Fragments skipped because no frame footer could match the predicate
    /// (always 0 for an unrestricted analysis).
    pub fragments_pruned: usize,
    /// Largest stamp seen, if any event decoded.
    pub newest_stamp: Option<u64>,
}

/// One fragment's mapped partials plus its work counter.
struct FragmentPartial {
    trace: TracePartial,
    state: TraceState,
    work: FragmentWork,
}

/// Analyzes a BTSF stream fragment-parallel. See the module docs for the
/// pipeline shape; `opts.threads = 1` is the sequential reference.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on structural corruption (bad magic,
/// truncation, checksum mismatch in any fragment).
pub fn analyze_frames(bytes: &[u8], opts: &AnalyzeOptions) -> io::Result<ParallelAnalysis> {
    analyze_frames_with(bytes, opts, None)
}

/// [`analyze_frames`] restricted to a [`Predicate`]: fragments whose frame
/// footers prove they cannot hold a matching event are never decoded, and
/// surviving fragments filter events by the exact predicate before mapping —
/// the same two-stage plan [`Query`](crate::Query) runs over a
/// [`TraceStore`](crate::TraceStore), so both paths produce identical
/// metrics for the same predicate.
///
/// Under a predicate the boundary hand-off check is skipped (its
/// expectations describe the *full* stream, which a restricted decode by
/// design does not reproduce), so `defects` is always empty.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on structural corruption (bad magic,
/// truncation, checksum mismatch in any decoded fragment).
pub fn analyze_frames_with(
    bytes: &[u8],
    opts: &AnalyzeOptions,
    predicate: Option<&Predicate>,
) -> io::Result<ParallelAnalysis> {
    let infos = scan_frames(bytes)?;
    let threads = opts.threads.max(1);
    let parts = if opts.fragments == 0 { threads } else { opts.fragments };
    let mut fragments = split_fragments(&infos, parts);
    let unpruned = fragments.len();
    if let Some(pred) = predicate {
        // A fragment survives if ANY of its frames may hold a match; the
        // footer test is conservative, so no matching event is ever lost.
        fragments
            .retain(|frag| infos[frag.frames.clone()].iter().any(|f| pred.admits_index(&f.index)));
    }
    let fragments_pruned = unpruned - fragments.len();

    let mapped: Vec<io::Result<FragmentPartial>> =
        map_reduce(&fragments, threads, |_, frag| map_fragment(frag, bytes, predicate));
    let mut partials = Vec::with_capacity(mapped.len());
    for m in mapped {
        partials.push(m?);
    }

    // The hand-off expectations promise what the full stream holds before
    // each fragment; a predicate-restricted decode intentionally sees less,
    // so the check only runs unrestricted.
    let expectations: Vec<BoundaryExpectation> = if predicate.is_some() {
        Vec::new()
    } else {
        fragments
            .iter()
            .map(|f| BoundaryExpectation {
                fragment: f.index,
                events_before: f.seed.events_before,
                bytes_before: f.seed.payload_bytes_before,
                max_stamp_before: f.seed.max_stamp_before,
                core_bitmap_before: f.seed.core_bitmap_before,
            })
            .collect()
    };

    let mut work = Vec::with_capacity(partials.len());
    let mut per_fragment_state = Vec::with_capacity(partials.len());
    let mut trace_parts = Vec::with_capacity(partials.len());
    for p in partials {
        work.push(p.work);
        per_fragment_state.push(p.state);
        trace_parts.push(p.trace);
    }
    let defects = if predicate.is_some() {
        Vec::new()
    } else {
        check_handoff(&per_fragment_state, &expectations)
    };
    let state =
        fold_merge(per_fragment_state.clone(), TraceState::merge).unwrap_or_else(TraceState::empty);
    let merged = fold_merge(trace_parts, TracePartial::merge).unwrap_or_default();
    let newest_stamp = merged.metrics.newest();
    // Rendered from the merged stamp set, where a stamp that several
    // fragments hold (a lapped stream) counts once.
    let gap_map = opts.gap_map.zip(newest_stamp).map(|(gopts, newest)| {
        let stamps: Vec<u64> = merged.metrics.stamps().collect();
        btrace_analysis::gap_map(&stamps, newest, gopts)
    });
    let analysis = merged.finish(opts.capacity_bytes, opts.top_threads);
    Ok(ParallelAnalysis {
        analysis,
        state,
        per_fragment_state,
        defects,
        gap_map,
        work,
        threads,
        frames: infos.len(),
        fragments_pruned,
        newest_stamp,
    })
}

fn map_fragment(
    frag: &FragmentContext,
    stream: &[u8],
    predicate: Option<&Predicate>,
) -> io::Result<FragmentPartial> {
    let t0 = Instant::now();
    let mut fold = ReadFold::with_capacity(frag.events as usize);
    let mut frames = 0usize;
    visit_frames(&stream[frag.bytes.clone()], |_, decoded| {
        frames += 1;
        for e in decoded {
            if predicate.is_none_or(|pred| pred.admits(e)) {
                fold.push(e);
            }
        }
    })?;
    let (trace, state) = fold.finish();
    Ok(FragmentPartial {
        work: FragmentWork {
            fragment: frag.index,
            frames,
            events: state.events,
            bytes: (frag.bytes.end - frag.bytes.start) as u64,
            busy_ns: t0.elapsed().as_nanos() as u64,
        },
        trace,
        state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::encode_stream;
    use btrace_core::sink::{CollectedEvent, FullEvent};

    fn events(n: u64) -> Vec<FullEvent> {
        (0..n)
            .filter(|s| s % 97 != 13) // sprinkle gaps
            .map(|s| FullEvent {
                stamp: s,
                core: (s % 6) as u16,
                tid: 200 + (s % 9) as u32,
                payload: vec![0xC3; 8 + (s % 40) as usize],
            })
            .collect()
    }

    fn collected(evs: &[FullEvent]) -> Vec<CollectedEvent> {
        evs.iter().map(|e| e.view().collected()).collect()
    }

    #[test]
    fn parallel_matches_sequential_and_legacy() {
        let evs = events(3000);
        let stream = encode_stream(&evs, 128);
        let gap = GapMapOptions { window: 2000, width: 40 };
        let base =
            AnalyzeOptions { capacity_bytes: 1 << 18, gap_map: Some(gap), ..Default::default() };
        let seq = analyze_frames(&stream, &AnalyzeOptions { threads: 1, ..base }).unwrap();
        assert!(seq.defects.is_empty(), "healthy stream: {:?}", seq.defects);
        for threads in [2, 4, 8] {
            let par =
                analyze_frames(&stream, &AnalyzeOptions { threads, fragments: 7, ..base }).unwrap();
            assert_eq!(par.analysis, seq.analysis);
            assert_eq!(par.state, seq.state);
            assert_eq!(par.gap_map, seq.gap_map);
            assert!(par.defects.is_empty());
            assert_eq!(par.work.iter().map(|w| w.events).sum::<u64>(), evs.len() as u64);
        }
        // And against the legacy single-pass analysis.
        let c = collected(&evs);
        assert_eq!(seq.analysis.metrics, btrace_analysis::analyze(&c, 1 << 18));
        assert_eq!(seq.analysis.per_core, btrace_analysis::by_core(&c));
        assert_eq!(seq.analysis.per_thread, btrace_analysis::by_thread(&c, 8));
        let stamps: Vec<u64> = c.iter().map(|e| e.stamp).collect();
        let newest = seq.newest_stamp.unwrap();
        assert_eq!(seq.gap_map.as_deref().unwrap(), btrace_analysis::gap_map(&stamps, newest, gap));
    }

    #[test]
    fn corrupted_index_is_a_defect_not_a_panic() {
        let evs = events(600);
        let mut stream = encode_stream(&evs, 50);
        // Lie in frame 2's footer max_stamp, then re-seal the crc so only
        // the index (not the payload) is corrupt.
        let infos = scan_frames(&stream).unwrap();
        let f = infos[2];
        let footer_off = f.offset + f.len - 8 - crate::stream::FOOTER_BYTES;
        let max_off = footer_off + 4 + 8;
        stream[max_off..max_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let crc = crate::checksum(&stream[f.offset..f.offset + f.len - 8]);
        let crc_off = f.offset + f.len - 8;
        stream[crc_off..crc_off + 8].copy_from_slice(&crc.to_le_bytes());

        let out = analyze_frames(
            &stream,
            &AnalyzeOptions { threads: 2, fragments: 6, ..Default::default() },
        )
        .unwrap();
        assert!(
            out.defects.iter().any(|d| d.field == "max_stamp_before"),
            "lying index must surface as a hand-off defect: {:?}",
            out.defects
        );
    }

    #[test]
    fn work_counters_balance_on_uniform_streams() {
        let evs = events(4000);
        let stream = encode_stream(&evs, 64);
        let out =
            analyze_frames(&stream, &AnalyzeOptions { threads: 4, ..Default::default() }).unwrap();
        assert_eq!(out.work.len(), 4);
        let max = out.work.iter().map(|w| w.events).max().unwrap();
        let min = out.work.iter().map(|w| w.events).min().unwrap();
        assert!(
            (max - min) as f64 <= 0.2 * max as f64,
            "uniform stream must split within 20%: max {max} min {min}"
        );
    }

    #[test]
    fn predicate_pruning_matches_the_store_query_path() {
        use crate::{Query, QueryOptions, TraceStore};
        let evs = events(2500);
        let stream = encode_stream(&evs, 100);
        let predicate = Predicate {
            since: Some(400),
            until: Some(1700),
            cores: vec![0, 2, 5],
            ..Default::default()
        };
        let gap = GapMapOptions { window: 1000, width: 30 };
        let opts = AnalyzeOptions {
            threads: 3,
            fragments: 8,
            capacity_bytes: 1 << 16,
            gap_map: Some(gap),
            ..Default::default()
        };
        let pruned = analyze_frames_with(&stream, &opts, Some(&predicate)).unwrap();
        assert!(pruned.fragments_pruned > 0, "time slice must prune whole fragments");
        assert!(pruned.defects.is_empty(), "hand-off check is skipped under a predicate");

        let store = TraceStore::from_bytes(stream);
        let q = Query {
            predicate: predicate.clone(),
            options: QueryOptions {
                capacity_bytes: 1 << 16,
                gap_map: Some(gap),
                ..Default::default()
            },
        };
        let report = q.run(&store);
        assert_eq!(pruned.analysis, report.analysis);
        assert_eq!(pruned.state, report.state);
        assert_eq!(pruned.gap_map, report.gap_map);
        assert_eq!(pruned.newest_stamp, report.newest_stamp);

        // And both equal the linear full-decode-then-filter oracle.
        let matched: Vec<FullEvent> =
            evs.iter().filter(|e| predicate.admits(&e.view())).cloned().collect();
        let c = collected(&matched);
        assert_eq!(pruned.analysis, TracePartial::map(&c).finish(1 << 16, 8));
    }

    #[test]
    fn empty_stream_analyzes_to_empty() {
        let out = analyze_frames(&[], &AnalyzeOptions::default()).unwrap();
        assert_eq!(out.frames, 0);
        assert!(out.state.is_empty());
        assert_eq!(out.analysis.metrics, btrace_analysis::Metrics::empty());
        assert!(out.defects.is_empty());
    }
}
