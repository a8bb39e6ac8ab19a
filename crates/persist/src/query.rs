//! Predicate queries over a [`TraceStore`].
//!
//! A [`Predicate`] restricts a query to a time range, a core set, and/or an
//! atrace category mask. The [`Query`] planner resolves it in two stages:
//!
//! 1. **Prune** against the frame directory: a frame whose `FIDX` footer
//!    proves its stamp range or core bitmap cannot intersect the predicate
//!    is never decoded. Category predicates prune nothing at the frame level
//!    (footers carry no category information) — they filter per event after
//!    decode.
//! 2. **Filter + fold**: each surviving frame is validated (checksummed)
//!    and decoded in place as borrowed [`EventView`]s, its events are
//!    filtered by the *exact* predicate, and each survivor is folded once,
//!    from its borrowed fields, into the same monoid partial the
//!    fragment-parallel analyzer uses ([`TracePartial::push`]: the retained
//!    stamp, one per-core row and one per-thread row, each found in expected
//!    O(1)), plus its core's payload-byte tally. No event is copied on the
//!    way. The [`TraceState`] is derived from the finished partial and the
//!    tally once per query ([`TraceState::from_partial`]), not updated per
//!    event. So `btrace query` and a predicate-pruned
//!    [`analyze_frames`](crate::analyze_frames) are one execution path, and
//!    both are bit-identical to a linear full-decode-then-filter oracle by
//!    the monoid's `map ∘ concat = merge ∘ map` law.
//!
//! Frame corruption never aborts a query: each damaged frame becomes a
//! [`FrameDefect`] in the report and the rest of the file still answers.

use btrace_analysis::{GapMapOptions, TraceAnalysis, TracePartial};
use btrace_atrace::{Category, TraceEvent};
use btrace_core::{EventView, FullEvent};
use btrace_replay::TraceState;

use crate::fragment::FrameIndex;
use crate::store::{FrameDefect, TraceStore};

/// What a query is looking for. `Default` matches every event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Predicate {
    /// Keep events with `stamp >= since`.
    pub since: Option<u64>,
    /// Keep events with `stamp <= until`.
    pub until: Option<u64>,
    /// Keep events recorded on these cores (empty = every core).
    pub cores: Vec<u16>,
    /// Keep events whose payload decodes as an atrace event intersecting
    /// this category mask. Events with non-atrace payloads never match a
    /// category predicate.
    pub category: Option<Category>,
}

impl Predicate {
    /// Folded 64-bit core bitmap of the requested cores (the same
    /// `min(core, 63)` folding the `FIDX` footer uses), or `u64::MAX` when
    /// no core constraint is set.
    fn core_bitmap(&self) -> u64 {
        if self.cores.is_empty() {
            return u64::MAX;
        }
        self.cores.iter().fold(0u64, |b, &c| b | 1u64 << (c as u64).min(63))
    }

    /// Frame-level admission from an index footer alone: conservative, may
    /// admit frames that hold no matching event, but never rejects a frame
    /// that does.
    pub fn admits_index(&self, idx: &FrameIndex) -> bool {
        if idx.event_count == 0 {
            return false;
        }
        if idx.min_stamp > self.until.unwrap_or(u64::MAX) || idx.max_stamp < self.since.unwrap_or(0)
        {
            return false;
        }
        idx.core_bitmap & self.core_bitmap() != 0
    }

    /// Exact event-level match, judged where the event's bytes live (an
    /// owned event is judged through [`FullEvent::view`]). A category is
    /// judged on the payload decoded in place, so no string is copied.
    pub fn admits(&self, e: &EventView<'_>) -> bool {
        if e.stamp < self.since.unwrap_or(0) || e.stamp > self.until.unwrap_or(u64::MAX) {
            return false;
        }
        if !self.cores.is_empty() && !self.cores.contains(&e.core) {
            return false;
        }
        match self.category {
            None => true,
            Some(mask) => match TraceEvent::decode(e.payload) {
                Ok(ev) => ev.category().bits() & mask.bits() != 0,
                Err(_) => false,
            },
        }
    }
}

/// Output shaping for [`Query::run`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryOptions {
    /// Tracer buffer capacity for the effectivity ratio (0 if unknown).
    pub capacity_bytes: usize,
    /// Busiest-thread table size.
    pub top_threads: usize,
    /// Render a retention gap map over the matched stamps, if set.
    pub gap_map: Option<GapMapOptions>,
    /// Keep the matched events in the report (costs memory proportional to
    /// the result set; metrics are computed either way).
    pub collect_events: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self { capacity_bytes: 0, top_threads: 8, gap_map: None, collect_events: false }
    }
}

/// A planned query: predicate plus output options.
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// The restriction to resolve.
    pub predicate: Predicate,
    /// Output shaping.
    pub options: QueryOptions,
}

/// What [`Query::run`] found.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct QueryReport {
    /// Matched events in file order (only when
    /// [`QueryOptions::collect_events`] was set).
    pub events: Vec<FullEvent>,
    /// Number of matched events (counted even when events are not kept).
    pub matched_events: u64,
    /// Retention metrics over the matched events.
    pub analysis: TraceAnalysis,
    /// Reconstructed trace state over the matched events.
    pub state: TraceState,
    /// Retention gap map over the matched stamps, when requested.
    pub gap_map: Option<String>,
    /// Largest matched stamp.
    pub newest_stamp: Option<u64>,
    /// Directory entries in the file.
    pub frames_total: usize,
    /// Frames the predicate touched (decoded or found defective).
    pub frames_decoded: usize,
    /// Frames skipped on footer evidence alone.
    pub frames_pruned: usize,
    /// Structural defects from open plus content defects from the frames
    /// this query touched.
    pub defects: Vec<FrameDefect>,
}

impl Query {
    /// A query for `predicate` with default output options.
    pub fn new(predicate: Predicate) -> Self {
        Self { predicate, options: QueryOptions::default() }
    }

    /// Directory indices of the frames this query must decode, in file
    /// order — the plan, exposed for diagnostics and the bench.
    pub fn plan(&self, store: &TraceStore) -> Vec<usize> {
        store
            .frames()
            .iter()
            .enumerate()
            .filter(|(_, f)| self.predicate.admits_index(&f.index))
            .map(|(i, _)| i)
            .collect()
    }

    /// Resolves the query against `store`.
    ///
    /// Each planned frame is validated and decoded in place into one reused
    /// scratch buffer; the predicate judges every event there, and a match
    /// is folded once, straight from its borrowed fields, into the report's
    /// [`TracePartial`] and its core's payload-byte tally. The report's
    /// [`TraceState`] is derived from both at the end. Nothing is copied
    /// unless [`QueryOptions::collect_events`] asks for the payloads. By the
    /// monoid law the one fold equals merging per-frame partials.
    pub fn run(&self, store: &TraceStore) -> QueryReport {
        let plan = self.plan(store);
        let mut defects = store.defects().to_vec();
        let mut events = Vec::new();
        // The planned frames' footers bound the matches: one reservation,
        // no growth copies (unused capacity is never touched).
        let bound: usize = plan.iter().map(|&i| store.frames()[i].index.event_count as usize).sum();
        let mut fold = ReadFold::with_capacity(bound);
        let mut scratch = Vec::new();
        for &idx in &plan {
            if let Err(defect) = store.decode_frame_refs(idx, &mut scratch) {
                defects.push(defect);
                continue;
            }
            for e in scratch.iter().filter(|e| self.predicate.admits(e)) {
                fold.push(e);
                if self.options.collect_events {
                    events.push(e.to_owned());
                }
            }
        }
        let (partial, state) = fold.finish();
        let newest_stamp = partial.metrics.newest();
        let gap_map = self.options.gap_map.and_then(|gopts| {
            newest_stamp.map(|newest| {
                let stamps: Vec<u64> = partial.metrics.stamps().collect();
                btrace_analysis::gap_map(&stamps, newest, gopts)
            })
        });
        let analysis = partial.finish(self.options.capacity_bytes, self.options.top_threads);
        QueryReport {
            events,
            matched_events: state.events,
            analysis,
            state,
            gap_map,
            newest_stamp,
            frames_total: store.frames().len(),
            frames_decoded: plan.len(),
            frames_pruned: store.frames().len() - plan.len(),
            defects,
        }
    }
}

/// The read path's one fold: each matched event updates the
/// [`TracePartial`] once and adds its payload bytes to its core's tally;
/// [`finish`](Self::finish) derives the [`TraceState`] from both.
/// [`Query::run`] and the fragment analyzer both fold through it.
pub(crate) struct ReadFold {
    trace: TracePartial,
    /// Payload bytes per core index: the state's byte accounting, which
    /// the partial (stored bytes) does not carry.
    payload_bytes: Vec<u64>,
}

impl ReadFold {
    /// An empty fold with room for `events` pushes.
    pub(crate) fn with_capacity(events: usize) -> Self {
        Self { trace: TracePartial::with_capacity(events), payload_bytes: Vec::new() }
    }

    /// Folds one event in.
    #[inline]
    pub(crate) fn push(&mut self, e: &EventView<'_>) {
        self.trace.push(e.collected());
        let core = e.core as usize;
        if core >= self.payload_bytes.len() {
            self.payload_bytes.resize(core + 1, 0);
        }
        self.payload_bytes[core] += e.payload.len() as u64;
    }

    /// The settled partial and the state derived from it.
    pub(crate) fn finish(mut self) -> (TracePartial, TraceState) {
        self.trace.settle();
        let state = TraceState::from_partial(&self.trace, &self.payload_bytes);
        (self.trace, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode_stream;
    use btrace_core::sink::CollectedEvent;

    fn ev(stamp: u64, core: u16, tid: u32) -> FullEvent {
        FullEvent { stamp, core, tid, payload: vec![0xAB; 8 + (stamp % 9) as usize] }
    }

    fn store() -> TraceStore {
        let events: Vec<FullEvent> = (0..400).map(|s| ev(s, (s % 4) as u16, 7)).collect();
        TraceStore::from_bytes(encode_stream(&events, 40))
    }

    #[test]
    fn time_predicate_prunes_and_filters_exactly() {
        let q = Query {
            predicate: Predicate { since: Some(100), until: Some(179), ..Default::default() },
            options: QueryOptions { collect_events: true, ..Default::default() },
        };
        let report = q.run(&store());
        assert_eq!(report.matched_events, 80);
        assert_eq!(report.events.len(), 80);
        assert!(report.events.iter().all(|e| (100..=179).contains(&e.stamp)));
        // Stamps 0..400 in frames of 40: only frames [2..5) overlap.
        assert_eq!(report.frames_decoded, 3);
        assert_eq!(report.frames_pruned, 7);
        assert!(report.defects.is_empty());
    }

    #[test]
    fn core_predicate_uses_the_folded_bitmap() {
        let events: Vec<FullEvent> =
            (0..100).map(|s| ev(s, if s < 50 { 0 } else { 9 }, 7)).collect();
        let store = TraceStore::from_bytes(encode_stream(&events, 25));
        let q = Query {
            predicate: Predicate { cores: vec![9], ..Default::default() },
            options: QueryOptions { collect_events: true, ..Default::default() },
        };
        let report = q.run(&store);
        assert_eq!(report.matched_events, 50);
        assert_eq!(report.frames_pruned, 2, "core-0-only frames must be pruned");
        assert!(report.events.iter().all(|e| e.core == 9));
    }

    #[test]
    fn category_predicate_filters_atrace_payloads_post_decode() {
        use btrace_atrace::TraceEvent;
        let mut buf = [0u8; btrace_atrace::MAX_ENCODED];
        let mut events = Vec::new();
        for s in 0..60u64 {
            let payload = if s % 3 == 0 {
                let n = TraceEvent::SchedWakeup { tid: s as u32, cpu: 1 }.encode(&mut buf);
                buf[..n].to_vec()
            } else if s % 3 == 1 {
                let n = TraceEvent::Irq { irq: 17, enter: true }.encode(&mut buf);
                buf[..n].to_vec()
            } else {
                vec![0xFF; 6] // not an atrace payload
            };
            events.push(FullEvent { stamp: s, core: 0, tid: 1, payload });
        }
        let store = TraceStore::from_bytes(encode_stream(&events, 20));
        let q = Query {
            predicate: Predicate { category: Some(Category::SCHED), ..Default::default() },
            options: QueryOptions { collect_events: true, ..Default::default() },
        };
        let report = q.run(&store);
        assert_eq!(report.matched_events, 20, "only the SchedWakeup third matches");
        assert_eq!(report.frames_pruned, 0, "category alone cannot prune frames");
    }

    #[test]
    fn query_is_identical_to_linear_filter_oracle() {
        let store = store();
        let predicate = Predicate {
            since: Some(33),
            until: Some(321),
            cores: vec![1, 3],
            ..Default::default()
        };
        let q = Query {
            predicate: predicate.clone(),
            options: QueryOptions { collect_events: true, ..Default::default() },
        };
        let report = q.run(&store);
        // Oracle: full linear decode, then filter.
        let mut oracle = Vec::new();
        crate::visit_frames(store.bytes(), |_, frame| {
            oracle.extend(frame.iter().filter(|e| predicate.admits(e)).map(EventView::to_owned));
        })
        .unwrap();
        assert_eq!(report.events, oracle);
        let collected: Vec<CollectedEvent> = oracle.iter().map(|e| e.view().collected()).collect();
        assert_eq!(report.analysis, TracePartial::map(&collected).finish(0, 8));
    }

    #[test]
    fn unconstrained_query_still_skips_empty_frames() {
        let mut bytes = encode_stream(&(0..10).map(|s| ev(s, 0, 1)).collect::<Vec<_>>(), 5);
        bytes.extend_from_slice(&crate::encode_frame(2, &[]));
        let store = TraceStore::from_bytes(bytes);
        let report = Query::default().run(&store);
        assert_eq!(report.matched_events, 10);
        assert_eq!(report.frames_pruned, 1, "the empty frame holds nothing to decode");
    }
}
