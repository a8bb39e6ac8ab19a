//! Reconstructed trace state for fragment-parallel replay.
//!
//! A [`TraceState`] summarizes everything the replayer's sequential walk
//! would know after ingesting a prefix of the trace: per-core cursors
//! (event/byte counts, first/last stamps), global totals, the set of cores
//! and producing threads observed. It is a **monoid**: [`TraceState::merge`]
//! is associative, and ingesting a concatenation equals merging the
//! ingestions of the pieces, so per-fragment states computed on a worker
//! pool reduce to exactly the sequential state.
//!
//! The *boundary hand-off check* is deliberately not part of the monoid:
//! fragment `i`'s exit state (the merged prefix `0..=i`) is compared against
//! fragment `i+1`'s seeded entry expectation (what the frame index promised
//! lies before it). Any mismatch means the index and the decoded bytes
//! disagree — a trace defect to report, never a panic.

use btrace_analysis::TracePartial;
use btrace_core::sink::CollectedEvent;

/// Per-core replay cursor inside a [`TraceState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct CoreCursor {
    /// Events observed on this core.
    pub events: u64,
    /// Bytes observed on this core (whatever byte accounting the caller
    /// feeds [`TraceState::record`] — stored bytes for drained events,
    /// payload bytes for decoded frames).
    pub bytes: u64,
    /// Smallest stamp observed; `u64::MAX` when the core is untouched.
    pub first_stamp: u64,
    /// Largest stamp observed; 0 when the core is untouched.
    pub last_stamp: u64,
}

impl Default for CoreCursor {
    fn default() -> Self {
        Self { events: 0, bytes: 0, first_stamp: u64::MAX, last_stamp: 0 }
    }
}

impl CoreCursor {
    /// True when no event has touched this core.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    fn absorb(&mut self, other: &CoreCursor) {
        self.events += other.events;
        self.bytes += other.bytes;
        self.first_stamp = self.first_stamp.min(other.first_stamp);
        self.last_stamp = self.last_stamp.max(other.last_stamp);
    }
}

/// Trace state reconstructed from one fragment (or a merged run of them).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct TraceState {
    /// Per-core cursors, indexed by core; sized to the largest core seen.
    pub cores: Vec<CoreCursor>,
    /// Total events ingested.
    pub events: u64,
    /// Total bytes ingested (same accounting caveat as [`CoreCursor::bytes`]).
    pub bytes: u64,
    /// Smallest stamp ingested; `u64::MAX` when empty.
    pub first_stamp: u64,
    /// Largest stamp ingested; 0 when empty.
    pub last_stamp: u64,
    /// Folded 64-bit core bitmap (bit `min(core, 63)`), matching the frame
    /// index footer's encoding.
    pub core_bitmap: u64,
    /// Distinct producing threads observed, sorted ascending.
    pub tids: Vec<u32>,
}

impl TraceState {
    /// An empty state (identity of [`merge`](Self::merge)).
    pub fn empty() -> Self {
        Self { first_stamp: u64::MAX, ..Self::default() }
    }

    /// Ingests one event with an explicit byte accounting.
    pub fn record(&mut self, core: u16, tid: u32, stamp: u64, bytes: u64) {
        if self.cores.len() <= core as usize {
            self.cores.resize(core as usize + 1, CoreCursor::default());
        }
        let cursor = &mut self.cores[core as usize];
        cursor.events += 1;
        cursor.bytes += bytes;
        cursor.first_stamp = cursor.first_stamp.min(stamp);
        cursor.last_stamp = cursor.last_stamp.max(stamp);
        self.events += 1;
        self.bytes += bytes;
        self.first_stamp = self.first_stamp.min(stamp);
        self.last_stamp = self.last_stamp.max(stamp);
        self.core_bitmap |= 1u64 << (core as u64).min(63);
        if let Err(i) = self.tids.binary_search(&tid) {
            self.tids.insert(i, tid);
        }
    }

    /// The state [`record`](Self::record) builds from the events `partial`
    /// folded, derived from its per-core and per-thread groups in
    /// O(cores + threads): each core's events and stamp range come from its
    /// core row, the thread ids are the thread rows' keys, and
    /// `core_bytes[c]` is core `c`'s byte accounting (0 past the end).
    ///
    /// This is how the read path builds its state: one fold per event into
    /// the partial, plus a per-core byte tally, and no per-event `record`.
    pub fn from_partial(partial: &TracePartial, core_bytes: &[u64]) -> Self {
        let mut state = Self::empty();
        let cores = partial.cores.rows();
        if let Some(top) = cores.iter().map(|g| g.key as usize).max() {
            state.cores.resize(top + 1, CoreCursor::default());
        }
        for g in cores.iter() {
            let core = g.key as usize;
            let bytes = core_bytes.get(core).copied().unwrap_or(0);
            state.cores[core] = CoreCursor {
                events: g.events as u64,
                bytes,
                first_stamp: g.oldest,
                last_stamp: g.newest,
            };
            state.events += g.events as u64;
            state.bytes += bytes;
            state.first_stamp = state.first_stamp.min(g.oldest);
            state.last_stamp = state.last_stamp.max(g.newest);
            state.core_bitmap |= 1u64 << (core as u64).min(63);
        }
        state.tids = partial.threads.rows().iter().map(|g| g.key).collect();
        state
    }

    /// Maps one fragment of drained events (stored-byte accounting).
    pub fn map(events: &[CollectedEvent]) -> Self {
        let mut state = Self::empty();
        for e in events {
            state.record(e.core, e.tid, e.stamp, e.stored_bytes as u64);
        }
        state
    }

    /// Associative merge; `merge(map(A), map(B)) == map(A ++ B)`.
    pub fn merge(mut self, other: Self) -> Self {
        if self.cores.len() < other.cores.len() {
            self.cores.resize(other.cores.len(), CoreCursor::default());
        }
        for (mine, theirs) in self.cores.iter_mut().zip(other.cores.iter()) {
            mine.absorb(theirs);
        }
        self.events += other.events;
        self.bytes += other.bytes;
        self.first_stamp = self.first_stamp.min(other.first_stamp);
        self.last_stamp = self.last_stamp.max(other.last_stamp);
        self.core_bitmap |= other.core_bitmap;
        self.tids.extend(other.tids);
        self.tids.sort_unstable();
        self.tids.dedup();
        self
    }

    /// True when nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }
}

/// What a fragment's index-derived seed promises about the stream **before**
/// the fragment starts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundaryExpectation {
    /// Fragment index this expectation seeds (0-based).
    pub fragment: usize,
    /// Events in all preceding fragments.
    pub events_before: u64,
    /// Bytes in all preceding fragments (index accounting).
    pub bytes_before: u64,
    /// Largest stamp in all preceding fragments; `None` when no event
    /// precedes (an empty prefix has no maximum).
    pub max_stamp_before: Option<u64>,
    /// Folded core bitmap of all preceding fragments.
    pub core_bitmap_before: u64,
}

/// One disagreement between a fragment's decoded exit state and the next
/// fragment's seeded entry expectation — a trace defect (corrupt index,
/// truncated frame, or a consumer that lied), reported instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct BoundaryDefect {
    /// Fragment whose seeded entry state disagreed.
    pub fragment: usize,
    /// Which field disagreed.
    pub field: &'static str,
    /// Value the index promised.
    pub expected: u64,
    /// Value the decoded prefix actually produced.
    pub found: u64,
}

impl std::fmt::Display for BoundaryDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fragment {}: seeded {} = {} but decoded prefix has {}",
            self.fragment, self.field, self.expected, self.found
        )
    }
}

/// Checks the boundary hand-off: for every fragment `i > 0`, the merged exit
/// state of fragments `0..i` must equal fragment `i`'s seeded entry
/// expectation. Returns all disagreements (empty for a healthy trace).
///
/// `states` are the per-fragment states in fragment order; `expectations`
/// carry one entry per fragment (the first fragment's expectation is the
/// empty prefix and is checked too — a nonzero `events_before` there is an
/// index defect in its own right).
pub fn check_handoff(
    states: &[TraceState],
    expectations: &[BoundaryExpectation],
) -> Vec<BoundaryDefect> {
    let mut defects = Vec::new();
    let mut prefix = TraceState::empty();
    for expect in expectations {
        let i = expect.fragment;
        if expect.events_before != prefix.events {
            defects.push(BoundaryDefect {
                fragment: i,
                field: "events_before",
                expected: expect.events_before,
                found: prefix.events,
            });
        }
        if expect.bytes_before != prefix.bytes {
            defects.push(BoundaryDefect {
                fragment: i,
                field: "bytes_before",
                expected: expect.bytes_before,
                found: prefix.bytes,
            });
        }
        if let Some(max_stamp) = expect.max_stamp_before {
            if !prefix.is_empty() && max_stamp != prefix.last_stamp {
                defects.push(BoundaryDefect {
                    fragment: i,
                    field: "max_stamp_before",
                    expected: max_stamp,
                    found: prefix.last_stamp,
                });
            }
        }
        if expect.core_bitmap_before != prefix.core_bitmap {
            defects.push(BoundaryDefect {
                fragment: i,
                field: "core_bitmap_before",
                expected: expect.core_bitmap_before,
                found: prefix.core_bitmap,
            });
        }
        if i < states.len() {
            prefix = prefix.merge(states[i].clone());
        }
    }
    defects
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(stamp: u64, core: u16, tid: u32, bytes: u32) -> CollectedEvent {
        CollectedEvent { stamp, core, tid, stored_bytes: bytes }
    }

    fn sample() -> Vec<CollectedEvent> {
        (0..200).map(|s| ev(s, (s % 5) as u16, 10 + (s % 3) as u32, 16 + (s % 9) as u32)).collect()
    }

    #[test]
    fn merge_matches_whole_for_any_split() {
        let events = sample();
        for split in [0, 1, 50, 133, events.len()] {
            let (a, b) = events.split_at(split);
            assert_eq!(TraceState::map(a).merge(TraceState::map(b)), TraceState::map(&events));
        }
    }

    #[test]
    fn merge_is_associative() {
        let events = sample();
        let (a, rest) = events.split_at(60);
        let (b, c) = rest.split_at(70);
        let (sa, sb, sc) = (TraceState::map(a), TraceState::map(b), TraceState::map(c));
        assert_eq!(sa.clone().merge(sb.clone()).merge(sc.clone()), sa.merge(sb.merge(sc)));
    }

    #[test]
    fn cursors_track_per_core_ranges() {
        let events = vec![ev(5, 2, 1, 8), ev(9, 2, 1, 8), ev(7, 0, 2, 16)];
        let state = TraceState::map(&events);
        assert_eq!(state.cores.len(), 3);
        assert_eq!(state.cores[2].events, 2);
        assert_eq!(state.cores[2].first_stamp, 5);
        assert_eq!(state.cores[2].last_stamp, 9);
        assert!(state.cores[1].is_empty());
        assert_eq!(state.core_bitmap, 0b101);
        assert_eq!(state.tids.len(), 2);
        assert_eq!(state.bytes, 32);
    }

    #[test]
    fn from_partial_equals_record() {
        // Cores past the bitmap's 63, tids out of order, repeated stamps.
        let mut events = sample();
        events.extend([ev(3, 70, 9, 40), ev(250, 64, 1 << 31, 8), ev(3, 1, 7, 16)]);
        let mut core_bytes = vec![0u64; 71];
        for e in &events {
            core_bytes[e.core as usize] += e.stored_bytes as u64;
        }
        for split in [0, 77, events.len()] {
            let (a, b) = events.split_at(split);
            let partial = TracePartial::map(b).merge(TracePartial::map(a));
            assert_eq!(TraceState::from_partial(&partial, &core_bytes), TraceState::map(&events));
        }
        assert_eq!(TraceState::from_partial(&TracePartial::default(), &[]), TraceState::empty());
    }

    #[test]
    fn handoff_accepts_consistent_seeds() {
        let events = sample();
        let (a, b) = events.split_at(80);
        let states = [TraceState::map(a), TraceState::map(b)];
        let expectations = [
            BoundaryExpectation { fragment: 0, ..Default::default() },
            BoundaryExpectation {
                fragment: 1,
                events_before: 80,
                bytes_before: states[0].bytes,
                max_stamp_before: Some(79),
                core_bitmap_before: states[0].core_bitmap,
            },
        ];
        assert!(check_handoff(&states, &expectations).is_empty());
    }

    #[test]
    fn handoff_reports_mismatch_as_defect() {
        let events = sample();
        let (a, b) = events.split_at(80);
        let states = [TraceState::map(a), TraceState::map(b)];
        let expectations = [
            BoundaryExpectation { fragment: 0, ..Default::default() },
            BoundaryExpectation {
                fragment: 1,
                events_before: 81, // index lies by one event
                bytes_before: states[0].bytes,
                max_stamp_before: Some(42), // and about the newest stamp
                core_bitmap_before: states[0].core_bitmap,
            },
        ];
        let defects = check_handoff(&states, &expectations);
        assert_eq!(defects.len(), 2);
        assert_eq!(defects[0].field, "events_before");
        assert_eq!(defects[0].expected, 81);
        assert_eq!(defects[0].found, 80);
        assert_eq!(defects[1].field, "max_stamp_before");
        assert!(defects[1].to_string().contains("fragment 1"));
    }
}
