//! Fragment-parallel analysis: per-fragment `map` partials with associative
//! `merge` for every pass in this crate, plus a small `std::thread::scope`
//! map-reduce pool.
//!
//! Every partial in this module is a **monoid homomorphism** over event
//! slices: for any split of an event sequence into fragments `A ++ B`,
//!
//! ```text
//! map(A ++ B) == merge(map(A), map(B))
//! ```
//!
//! and `merge` is associative, so folding per-fragment partials in fragment
//! order produces *bit-identical* results to a single sequential pass no
//! matter how the work was scheduled across threads. The sequential entry
//! points (`analyze`, `gap_map`, `by_core`, …) are themselves implemented as
//! `map(whole).finish()`, so there is exactly one code path to trust.
//!
//! Where the underlying data admits ties (duplicate stamps carrying
//! different byte counts, which a defensive consumer can produce by
//! delivering a block twice around a resize), the monoid fixes a canonical
//! resolution — the **smallest** stored byte count wins — because `min` is
//! associative while "whichever an unstable sort left first" is not.

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use btrace_core::sink::CollectedEvent;

use crate::{GapMapOptions, GroupStats, LatencyStats, Metrics};

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// Maps `items` to partials on up to `threads` scoped worker threads and
/// returns the results **in item order** (the schedule never leaks into the
/// output). `threads <= 1` degenerates to a plain sequential loop on the
/// calling thread — the parallel and sequential paths share `map`.
///
/// Work is claimed from a shared atomic index, so uneven items still
/// balance: a worker that finishes a cheap fragment immediately steals the
/// next unclaimed one.
pub fn map_reduce<T, P, F>(items: &[T], threads: usize, map: F) -> Vec<P>
where
    T: Sync,
    P: Send,
    F: Fn(usize, &T) -> P + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, item)| map(i, item)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<P>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let partial = map(i, &items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(partial);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot poisoned").expect("worker filled slot"))
        .collect()
}

/// Left-folds partials **in order** with an associative `merge`. Returns
/// `None` for an empty input. Keeping the fold ordered (even though `merge`
/// is associative) makes the reduction deterministic by inspection.
pub fn fold_merge<P>(parts: Vec<P>, mut merge: impl FnMut(P, P) -> P) -> Option<P> {
    let mut iter = parts.into_iter();
    let first = iter.next()?;
    Some(iter.fold(first, &mut merge))
}

/// Balanced pairwise reduction of partials with an associative `merge`.
/// Returns `None` for an empty input.
///
/// Produces the same result as [`fold_merge`] (associativity), but each
/// partial participates in O(log n) merges instead of up to n — the right
/// shape when there are *many* small partials (e.g. one per frame) and
/// `merge` copies its operands, where a linear fold over a growing
/// accumulator turns quadratic. Adjacent pairing preserves operand order,
/// so order-sensitive merges stay deterministic by inspection too.
pub fn tree_merge<P>(mut parts: Vec<P>, mut merge: impl FnMut(P, P) -> P) -> Option<P> {
    if parts.is_empty() {
        return None;
    }
    while parts.len() > 1 {
        let mut next = Vec::with_capacity(parts.len().div_ceil(2));
        let mut iter = parts.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => next.push(merge(a, b)),
                None => next.push(a),
            }
        }
        parts = next;
    }
    parts.pop()
}

// ---------------------------------------------------------------------------
// Metrics monoid
// ---------------------------------------------------------------------------

/// Per-fragment partial for [`crate::analyze`]: the fragment's retained
/// stamps, sorted and deduplicated, each carrying its stored byte count.
///
/// Built by [`TracePartial::push`] as the events stream past. In stamp order
/// (the common case: a stream's frames are written oldest first) a
/// push is an append, and a repeated newest stamp keeps the smaller byte
/// count in place. A stamp below the newest marks the partial for one sort +
/// dedup, which runs before it is merged and which every observer (`finish`,
/// `stamps`, `len`, `==`, `Debug`) sees already applied, so no caller can
/// tell the two build orders apart.
///
/// Duplicate stamps resolve to the smallest byte count (see module docs).
#[derive(Clone, Default)]
pub struct MetricsPartial {
    /// `(stamp, stored bytes)`; sorted by stamp with no duplicate stamps
    /// unless `unsorted` is set.
    entries: Vec<(u64, u32)>,
    /// A push arrived below the newest stamp: `entries` needs one sort +
    /// dedup before anything reads it.
    unsorted: bool,
}

impl MetricsPartial {
    fn with_capacity(events: usize) -> Self {
        Self { entries: Vec::with_capacity(events), unsorted: false }
    }

    /// Maps one fragment's events to a partial.
    pub fn map(events: &[CollectedEvent]) -> Self {
        let mut partial = Self::with_capacity(events.len());
        for e in events {
            partial.push(e.stamp, e.stored_bytes);
        }
        partial.settle();
        partial
    }

    /// Folds one event in: appends above the newest stamp, keeps the
    /// smaller byte count on a repeat of it, and otherwise defers ordering
    /// to one sort + dedup.
    #[inline]
    fn push(&mut self, stamp: u64, stored_bytes: u32) {
        match self.entries.last_mut() {
            Some(last) if stamp == last.0 => last.1 = last.1.min(stored_bytes),
            Some(last) if stamp < last.0 => {
                self.unsorted = true;
                self.entries.push((stamp, stored_bytes));
            }
            _ => self.entries.push((stamp, stored_bytes)),
        }
    }

    /// Runs the deferred sort + dedup now, in place (a no-op after in-order
    /// pushes), so later reads borrow the entries instead of settling a
    /// copy each.
    pub fn settle(&mut self) {
        if self.unsorted {
            sort_dedup(&mut self.entries);
            self.unsorted = false;
        }
    }

    /// The sorted, deduplicated entries: borrowed when already settled,
    /// a settled copy otherwise.
    fn view(&self) -> Cow<'_, [(u64, u32)]> {
        if self.unsorted {
            let mut entries = self.entries.clone();
            sort_dedup(&mut entries);
            Cow::Owned(entries)
        } else {
            Cow::Borrowed(&self.entries)
        }
    }

    /// Associative merge: sorted multiset union with min-bytes on stamp
    /// collisions. When every stamp of `other` is above `self`'s newest
    /// (ordered fragments), the union is an append.
    pub fn merge(mut self, mut other: Self) -> Self {
        self.settle();
        other.settle();
        if self.entries.is_empty() {
            return other;
        }
        if other.entries.is_empty() {
            return self;
        }
        if self.entries.last().expect("non-empty").0 < other.entries[0].0 {
            self.entries.extend_from_slice(&other.entries);
            return self;
        }
        let mut out = Vec::with_capacity(self.entries.len() + other.entries.len());
        let mut a = self.entries.into_iter().peekable();
        let mut b = other.entries.into_iter().peekable();
        while let (Some(&(sa, ba)), Some(&(sb, bb))) = (a.peek(), b.peek()) {
            match sa.cmp(&sb) {
                std::cmp::Ordering::Less => out.push(a.next().expect("peeked")),
                std::cmp::Ordering::Greater => out.push(b.next().expect("peeked")),
                std::cmp::Ordering::Equal => {
                    out.push((sa, ba.min(bb)));
                    a.next();
                    b.next();
                }
            }
        }
        out.extend(a);
        out.extend(b);
        Self { entries: out, unsorted: false }
    }

    /// Finishes the reduction into [`Metrics`]. Identical arithmetic to the
    /// historical sequential `analyze` (which now delegates here).
    pub fn finish(&self, capacity_bytes: usize) -> Metrics {
        let sorted = &*self.view();
        if sorted.is_empty() {
            return Metrics::empty();
        }
        let retained_events = sorted.len();
        // One pass sums the bytes and counts the places where a run breaks
        // (the next stamp is not the successor) as a sum of comparisons, with
        // no branch per entry; the latest run is then found by walking back
        // from the newest stamp.
        let (mut retained_bytes, mut breaks) = (sorted[0].1 as u64, 0usize);
        for w in sorted.windows(2) {
            retained_bytes += w[1].1 as u64;
            breaks += usize::from(w[1].0 != w[0].0 + 1);
        }
        let fragments = 1 + breaks;
        let latest_len = 1 + sorted.windows(2).rev().take_while(|w| w[1].0 == w[0].0 + 1).count();
        let latest = &sorted[sorted.len() - latest_len..];
        let latest_fragment_bytes: u64 = latest.iter().map(|&(_, b)| b as u64).sum();

        let oldest = sorted.first().expect("non-empty").0;
        let newest = sorted.last().expect("non-empty").0;
        let range = newest - oldest + 1;
        let loss_rate = (range - retained_events as u64) as f64 / range as f64;

        Metrics {
            retained_events,
            retained_bytes,
            latest_fragment_bytes,
            latest_fragment_events: latest.len(),
            fragments,
            loss_rate,
            effectivity_ratio: if capacity_bytes == 0 {
                0.0
            } else {
                latest_fragment_bytes as f64 / capacity_bytes as f64
            },
        }
    }

    /// The deduplicated retained stamps, sorted ascending.
    pub fn stamps(&self) -> impl Iterator<Item = u64> + '_ {
        let view = self.view();
        (0..view.len()).map(move |i| view[i].0)
    }

    /// Newest retained stamp, if any.
    pub fn newest(&self) -> Option<u64> {
        if self.unsorted {
            self.entries.iter().map(|&(stamp, _)| stamp).max()
        } else {
            self.entries.last().map(|&(stamp, _)| stamp)
        }
    }

    /// Number of deduplicated retained events.
    pub fn len(&self) -> usize {
        self.view().len()
    }

    /// True when the partial holds no events.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Sorts by `(stamp, bytes)`, which puts the smallest byte count first in
/// every equal-stamp run, so the first-wins dedup implements the canonical
/// min-bytes rule.
fn sort_dedup(entries: &mut Vec<(u64, u32)>) {
    entries.sort_unstable();
    entries.dedup_by_key(|&mut (stamp, _)| stamp);
}

impl PartialEq for MetricsPartial {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for MetricsPartial {}

impl std::fmt::Debug for MetricsPartial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsPartial").field("entries", &self.view()).finish()
    }
}

// ---------------------------------------------------------------------------
// Breakdown monoid
// ---------------------------------------------------------------------------

/// Per-fragment partial for the per-core / per-thread breakdowns: one
/// running [`GroupStats`] row per key. Merge is field-wise (`+`, `min`,
/// `max`), all associative and commutative.
///
/// A push finds its key's row through an open-addressing hash index over
/// the rows, in expected O(1) whatever the keys (dense core indices or
/// thread ids spread across `u32`), and a new key appends its row. Rows
/// stay in first-seen order until [`settle`](Self::settle) or
/// [`merge`](Self::merge) sorts them by key (a no-op when keys first
/// arrived ascending); every observer (`merge`, `finish_*`, `rows`, `==`,
/// `Debug`) sees them sorted, so no caller can tell two push orders apart.
#[derive(Clone, Default)]
pub struct GroupPartial {
    /// One row per key; sorted by key unless `unsorted` is set.
    rows: Vec<GroupStats>,
    /// `(key, row)` slots, linear probing, `row == FREE` when unused. Either
    /// empty (not built yet, or invalidated by a sort) or a power of two
    /// more than twice as long as `rows`, indexing every row.
    slots: Vec<(u32, u32)>,
    /// A key arrived below the last row's key: `rows` needs one sort
    /// before anything reads it.
    unsorted: bool,
}

/// Marks an unused slot of [`GroupPartial`]'s index.
const FREE: u32 = u32::MAX;

/// Home slot of `key` in an index of `mask + 1` slots: Fibonacci hashing, so
/// keys that share their low bits (tids spaced by a power of two) still
/// spread.
#[inline]
fn home_slot(key: u32, mask: usize) -> usize {
    ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
}

impl GroupPartial {
    /// Maps one fragment's events keyed by core index.
    pub fn by_core(events: &[CollectedEvent]) -> Self {
        Self::map(events, |e| e.core as u32)
    }

    /// Maps one fragment's events keyed by thread id.
    pub fn by_thread(events: &[CollectedEvent]) -> Self {
        Self::map(events, |e| e.tid)
    }

    fn map(events: &[CollectedEvent], key: impl Fn(&CollectedEvent) -> u32) -> Self {
        let mut partial = Self::default();
        for e in events {
            partial.push(key(e), e.stamp, e.stored_bytes);
        }
        partial.settle();
        partial
    }

    /// Folds one event into the group `key`.
    #[inline]
    fn push(&mut self, key: u32, stamp: u64, stored_bytes: u32) {
        let row = self.row(key);
        let g = &mut self.rows[row];
        g.events += 1;
        g.bytes += stored_bytes as u64;
        g.oldest = g.oldest.min(stamp);
        g.newest = g.newest.max(stamp);
    }

    /// The row of `key`, appended empty when the key is new.
    #[inline]
    fn row(&mut self, key: u32) -> usize {
        if 2 * self.rows.len() >= self.slots.len() {
            self.reindex();
        }
        let mask = self.slots.len() - 1;
        let mut i = home_slot(key, mask);
        loop {
            match self.slots[i] {
                (_, FREE) => break,
                (k, row) if k == key => return row as usize,
                _ => i = (i + 1) & mask,
            }
        }
        let row = self.rows.len();
        self.unsorted |= self.rows.last().is_some_and(|last| key < last.key);
        self.rows.push(GroupStats { key, events: 0, bytes: 0, oldest: u64::MAX, newest: 0 });
        self.slots[i] = (key, row as u32);
        row
    }

    /// Rebuilds the index over the current rows with room to grow: after
    /// it, more than half of the slots are free even once one more row is
    /// appended.
    #[cold]
    fn reindex(&mut self) {
        let len = (2 * self.rows.len() + 2).next_power_of_two().max(16);
        self.slots.clear();
        self.slots.resize(len, (0, FREE));
        let mask = len - 1;
        for (row, g) in self.rows.iter().enumerate() {
            let mut i = home_slot(g.key, mask);
            while self.slots[i].1 != FREE {
                i = (i + 1) & mask;
            }
            self.slots[i] = (g.key, row as u32);
        }
    }

    /// Runs the deferred sort by key now, in place (a no-op when keys
    /// arrived ascending); the index is rebuilt on the next push.
    pub fn settle(&mut self) {
        if self.unsorted {
            self.rows.sort_unstable_by_key(|g| g.key);
            self.slots.clear();
            self.unsorted = false;
        }
    }

    /// The rows sorted by key: borrowed when already settled, a sorted copy
    /// otherwise.
    pub fn rows(&self) -> Cow<'_, [GroupStats]> {
        if self.unsorted {
            let mut rows = self.rows.clone();
            rows.sort_unstable_by_key(|g| g.key);
            Cow::Owned(rows)
        } else {
            Cow::Borrowed(&self.rows)
        }
    }

    /// Associative merge of two partials: a sorted union of the rows.
    pub fn merge(mut self, mut other: Self) -> Self {
        self.settle();
        other.settle();
        if other.rows.is_empty() {
            return self;
        }
        if self.rows.is_empty() {
            return other;
        }
        let mut out = Vec::with_capacity(self.rows.len() + other.rows.len());
        let mut a = self.rows.into_iter().peekable();
        let mut b = other.rows.into_iter().peekable();
        while let (Some(ga), Some(gb)) = (a.peek(), b.peek()) {
            match ga.key.cmp(&gb.key) {
                std::cmp::Ordering::Less => out.push(a.next().expect("peeked")),
                std::cmp::Ordering::Greater => out.push(b.next().expect("peeked")),
                std::cmp::Ordering::Equal => {
                    let (mut mine, g) = (a.next().expect("peeked"), b.next().expect("peeked"));
                    mine.events += g.events;
                    mine.bytes += g.bytes;
                    mine.oldest = mine.oldest.min(g.oldest);
                    mine.newest = mine.newest.max(g.newest);
                    out.push(mine);
                }
            }
        }
        out.extend(a);
        out.extend(b);
        Self { rows: out, slots: Vec::new(), unsorted: false }
    }

    /// Finishes into the [`crate::by_core`] ordering: ascending by key.
    pub fn finish_by_key(&self) -> Vec<GroupStats> {
        self.rows().into_owned()
    }

    /// Finishes into the [`crate::by_thread`] ordering: descending by event
    /// count (ties broken by key, so the order is total and the rows' own
    /// order never shows), truncated to the `top` busiest groups.
    pub fn finish_hot(&self, top: usize) -> Vec<GroupStats> {
        let mut all = self.rows.clone();
        all.sort_unstable_by(|a, b| b.events.cmp(&a.events).then(a.key.cmp(&b.key)));
        all.truncate(top);
        all
    }

    /// Max-over-min event-count skew across groups, as in
    /// [`crate::core_skew`]; `None` with fewer than two groups.
    pub fn skew(&self) -> Option<f64> {
        if self.rows.len() < 2 {
            return None;
        }
        let max = self.rows.iter().map(|g| g.events).max()? as f64;
        let min = self.rows.iter().map(|g| g.events).min()?.max(1) as f64;
        Some(max / min)
    }
}

impl PartialEq for GroupPartial {
    fn eq(&self, other: &Self) -> bool {
        self.rows() == other.rows()
    }
}

impl Eq for GroupPartial {}

impl std::fmt::Debug for GroupPartial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupPartial").field("rows", &self.rows()).finish()
    }
}

// ---------------------------------------------------------------------------
// Gap-map monoid
// ---------------------------------------------------------------------------

/// Per-fragment partial for [`crate::gap_map`]: bucket hit counts over a
/// fixed `(newest_written, options)` window. Merging partials adds counts
/// element-wise — associative and commutative — so the rendered map is
/// independent of fragmentation.
///
/// The window parameters are fixed at construction: all partials that merge
/// must share them (checked with `assert_eq!`; mixing windows is a
/// programming error, not a data defect).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GapMapPartial {
    newest_written: u64,
    options: GapMapOptions,
    buckets: Vec<u64>,
}

impl GapMapPartial {
    /// Creates an empty partial for the given window.
    pub fn new(newest_written: u64, options: GapMapOptions) -> Self {
        let width = if options.window == 0 { 0 } else { options.width };
        Self { newest_written, options, buckets: vec![0; width] }
    }

    /// Maps one fragment's retained stamps.
    pub fn map(
        stamps: impl IntoIterator<Item = u64>,
        newest_written: u64,
        options: GapMapOptions,
    ) -> Self {
        let mut p = Self::new(newest_written, options);
        p.accumulate(stamps);
        p
    }

    /// Adds retained stamps to the bucket counts; stamps outside the window
    /// are ignored.
    pub fn accumulate(&mut self, stamps: impl IntoIterator<Item = u64>) {
        let GapMapOptions { window, width } = self.options;
        if width == 0 || window == 0 {
            return;
        }
        let start = self.newest_written.saturating_sub(window - 1);
        for stamp in stamps {
            if stamp < start || stamp > self.newest_written {
                continue;
            }
            let idx = ((stamp - start) * width as u64 / window) as usize;
            self.buckets[idx.min(width - 1)] += 1;
        }
    }

    /// Associative merge: element-wise bucket addition.
    ///
    /// # Panics
    ///
    /// Panics when the two partials were built for different windows.
    pub fn merge(mut self, other: Self) -> Self {
        assert_eq!(self.newest_written, other.newest_written, "gap-map window mismatch");
        assert_eq!(self.options, other.options, "gap-map options mismatch");
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets) {
            *mine += theirs;
        }
        self
    }

    /// Renders the merged buckets into the Fig. 1 retention row.
    pub fn render(&self) -> String {
        let GapMapOptions { window, width } = self.options;
        if width == 0 || window == 0 {
            return String::new();
        }
        let per_bucket_lo = window / width as u64; // bucket sizes differ by at most 1
        self.buckets
            .iter()
            .map(|&count| {
                let full = per_bucket_lo.max(1);
                let frac = count as f64 / full as f64;
                if frac >= 1.0 {
                    '█'
                } else if frac >= 0.66 {
                    '▓'
                } else if frac >= 0.33 {
                    '▒'
                } else if count > 0 {
                    '░'
                } else {
                    '·'
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Latency monoid
// ---------------------------------------------------------------------------

/// Per-fragment partial for [`LatencyStats`]: the fragment's samples kept
/// sorted; merge is a sorted merge, so the reduced sample is exactly the
/// sorted concatenation regardless of fragmentation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyPartial {
    sorted: Vec<u64>,
}

impl LatencyPartial {
    /// Maps one fragment's latency samples.
    pub fn map(samples: &[u64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        Self { sorted }
    }

    /// Associative merge of two sorted samples.
    pub fn merge(self, other: Self) -> Self {
        if self.sorted.is_empty() {
            return other;
        }
        if other.sorted.is_empty() {
            return self;
        }
        let mut out = Vec::with_capacity(self.sorted.len() + other.sorted.len());
        let mut a = self.sorted.into_iter().peekable();
        let mut b = other.sorted.into_iter().peekable();
        while let (Some(&va), Some(&vb)) = (a.peek(), b.peek()) {
            if va <= vb {
                out.push(a.next().expect("peeked"));
            } else {
                out.push(b.next().expect("peeked"));
            }
        }
        out.extend(a);
        out.extend(b);
        Self { sorted: out }
    }

    /// Finishes into [`LatencyStats`] — identical to
    /// [`LatencyStats::from_samples`] on the concatenated sample.
    pub fn finish(&self) -> LatencyStats {
        LatencyStats::from_sorted(&self.sorted)
    }

    /// Number of samples held.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples are held.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Combined one-pass partial
// ---------------------------------------------------------------------------

/// Everything the standard readout needs, mapped in one pass per fragment:
/// retention metrics, per-core and per-thread breakdowns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TracePartial {
    /// Retention-metrics partial.
    pub metrics: MetricsPartial,
    /// Per-core breakdown partial.
    pub cores: GroupPartial,
    /// Per-thread breakdown partial.
    pub threads: GroupPartial,
}

impl TracePartial {
    /// An empty partial with room for `events` pushes.
    pub fn with_capacity(events: usize) -> Self {
        Self { metrics: MetricsPartial::with_capacity(events), ..Self::default() }
    }

    /// Maps one fragment's events: a fold of [`push`](Self::push).
    pub fn map(events: &[CollectedEvent]) -> Self {
        let mut partial = Self::with_capacity(events.len());
        for e in events {
            partial.push(*e);
        }
        partial.settle();
        partial
    }

    /// Runs every deferred sort now (see [`MetricsPartial::settle`] and
    /// [`GroupPartial::settle`]), so later reads borrow instead of sorting
    /// a copy each.
    pub fn settle(&mut self) {
        self.metrics.settle();
        self.cores.settle();
        self.threads.settle();
    }

    /// Folds one event into all three partials (a drained event, or a
    /// borrowed one through [`EventView::collected`]).
    ///
    /// [`EventView::collected`]: btrace_core::EventView::collected
    #[inline]
    pub fn push(&mut self, e: CollectedEvent) {
        self.metrics.push(e.stamp, e.stored_bytes);
        self.cores.push(e.core as u32, e.stamp, e.stored_bytes);
        self.threads.push(e.tid, e.stamp, e.stored_bytes);
    }

    /// Associative merge of two fragment partials.
    pub fn merge(self, other: Self) -> Self {
        Self {
            metrics: self.metrics.merge(other.metrics),
            cores: self.cores.merge(other.cores),
            threads: self.threads.merge(other.threads),
        }
    }

    /// Finishes the reduction into a [`TraceAnalysis`].
    pub fn finish(&self, capacity_bytes: usize, top_threads: usize) -> TraceAnalysis {
        TraceAnalysis {
            metrics: self.metrics.finish(capacity_bytes),
            per_core: self.cores.finish_by_key(),
            per_thread: self.threads.finish_hot(top_threads),
            core_skew: self.cores.skew(),
        }
    }
}

/// The finished standard readout: what [`crate::analyze`], [`crate::by_core`],
/// [`crate::by_thread`] and [`crate::core_skew`] would report sequentially.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct TraceAnalysis {
    /// Retention metrics (Table 2).
    pub metrics: Metrics,
    /// Per-core aggregates, ascending by core index.
    pub per_core: Vec<GroupStats>,
    /// Hottest threads, descending by event count.
    pub per_thread: Vec<GroupStats>,
    /// Max-over-min per-core event skew.
    pub core_skew: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, by_core, by_thread, core_skew, gap_map};

    fn ev(stamp: u64, core: u16, tid: u32, bytes: u32) -> CollectedEvent {
        CollectedEvent { stamp, core, tid, stored_bytes: bytes }
    }

    fn sample_events() -> Vec<CollectedEvent> {
        // Two runs with a gap, multiple cores/threads, one duplicate stamp.
        let mut events: Vec<CollectedEvent> = (0..40)
            .chain(55..90)
            .map(|s| ev(s, (s % 3) as u16, 100 + (s % 5) as u32, 16 + (s % 7) as u32))
            .collect();
        events.push(ev(60, 1, 103, 16 + 60 % 7));
        events
    }

    #[test]
    fn tree_merge_matches_fold_merge() {
        let events = sample_events();
        for chunk in [1, 2, 3, 7, events.len()] {
            let parts: Vec<TracePartial> = events.chunks(chunk).map(TracePartial::map).collect();
            let folded = fold_merge(parts.clone(), TracePartial::merge).unwrap();
            let treed = tree_merge(parts, TracePartial::merge).unwrap();
            assert_eq!(treed, folded, "chunk size {chunk}");
        }
        assert!(tree_merge(Vec::<TracePartial>::new(), TracePartial::merge).is_none());
    }

    #[test]
    fn metrics_map_merge_matches_whole() {
        let events = sample_events();
        for split in [0, 1, 17, 40, events.len()] {
            let (a, b) = events.split_at(split);
            let merged = MetricsPartial::map(a).merge(MetricsPartial::map(b));
            assert_eq!(merged, MetricsPartial::map(&events), "split at {split}");
            assert_eq!(merged.finish(4096), analyze(&events, 4096));
        }
    }

    #[test]
    fn metrics_merge_is_associative() {
        let events = sample_events();
        let (a, rest) = events.split_at(20);
        let (b, c) = rest.split_at(30);
        let (pa, pb, pc) = (MetricsPartial::map(a), MetricsPartial::map(b), MetricsPartial::map(c));
        let left = pa.clone().merge(pb.clone()).merge(pc.clone());
        let right = pa.merge(pb.merge(pc));
        assert_eq!(left, right);
    }

    #[test]
    fn duplicate_stamps_resolve_to_min_bytes() {
        let a = [ev(5, 0, 0, 32)];
        let b = [ev(5, 1, 1, 8)];
        let m = MetricsPartial::map(&a).merge(MetricsPartial::map(&b));
        assert_eq!(m.finish(64).retained_bytes, 8);
        // Same answer regardless of merge order or of mapping them together.
        let m2 = MetricsPartial::map(&b).merge(MetricsPartial::map(&a));
        let together = MetricsPartial::map(&[a[0], b[0]]);
        assert_eq!(m, m2);
        assert_eq!(m, together);
    }

    #[test]
    fn group_partial_matches_sequential() {
        let events = sample_events();
        let (a, b) = events.split_at(33);
        let merged = GroupPartial::by_core(a).merge(GroupPartial::by_core(b));
        assert_eq!(merged.finish_by_key(), by_core(&events));
        assert_eq!(merged.skew(), core_skew(&events));
        let threads = GroupPartial::by_thread(a).merge(GroupPartial::by_thread(b));
        assert_eq!(threads.finish_hot(3), by_thread(&events, 3));
    }

    #[test]
    fn group_rows_ignore_push_order_and_key_spread() {
        // Keys sharing all their low bits, keys at the top of `u32`, and
        // more keys than the first index holds, pushed descending.
        let keys: Vec<u32> = (0..300u32).map(|i| if i % 2 == 0 { i << 23 } else { !i }).collect();
        let events: Vec<CollectedEvent> = (0..1_200u64)
            .map(|s| ev(s, 0, keys[(s * 7 % 300) as usize], 8 + (s % 5) as u32))
            .collect();
        let mut descending = events.clone();
        descending.sort_by_key(|e| std::cmp::Reverse(e.tid));
        let whole = GroupPartial::by_thread(&events);
        assert_eq!(GroupPartial::by_thread(&descending), whole);
        let rows = whole.rows();
        assert_eq!(rows.len(), keys.len());
        assert!(rows.windows(2).all(|w| w[0].key < w[1].key), "rows sorted by key");
        assert_eq!(rows.iter().map(|g| g.events).sum::<usize>(), events.len());
        assert_eq!(whole.finish_hot(keys.len()), by_thread(&descending, keys.len()));

        // Pushing after a settle or a merge rebuilds the index over the
        // sorted rows.
        let mut resumed = GroupPartial::by_thread(&events[..600]);
        for e in &events[600..] {
            resumed.push(e.tid, e.stamp, e.stored_bytes);
        }
        assert_eq!(resumed, whole);
        let (a, b) = descending.split_at(500);
        let mut merged = GroupPartial::by_thread(a).merge(GroupPartial::by_thread(&b[..100]));
        for e in &b[100..] {
            merged.push(e.tid, e.stamp, e.stored_bytes);
        }
        assert_eq!(merged, whole);
        assert_eq!(format!("{merged:?}"), format!("{whole:?}"));
    }

    #[test]
    fn gap_map_partial_matches_sequential() {
        let events = sample_events();
        let stamps: Vec<u64> = events.iter().map(|e| e.stamp).collect();
        let opts = GapMapOptions { window: 90, width: 12 };
        let (a, b) = stamps.split_at(41);
        let merged = GapMapPartial::map(a.iter().copied(), 89, opts).merge(GapMapPartial::map(
            b.iter().copied(),
            89,
            opts,
        ));
        assert_eq!(merged.render(), gap_map(&stamps, 89, opts));
    }

    #[test]
    fn latency_partial_matches_from_samples() {
        let samples: Vec<u64> = (0..500).map(|i| (i * 7919) % 1000).collect();
        let (a, b) = samples.split_at(123);
        let merged = LatencyPartial::map(a).merge(LatencyPartial::map(b));
        assert_eq!(merged.finish(), LatencyStats::from_samples(samples.clone()));
    }

    #[test]
    fn map_reduce_returns_in_item_order() {
        let items: Vec<u64> = (0..97).collect();
        for threads in [1, 2, 4, 8] {
            let out = map_reduce(&items, threads, |i, &v| (i as u64, v * 2));
            assert_eq!(out.len(), items.len());
            for (i, &(idx, doubled)) in out.iter().enumerate() {
                assert_eq!(idx, i as u64);
                assert_eq!(doubled, items[i] * 2);
            }
        }
    }

    #[test]
    fn trace_partial_round_trip() {
        let events = sample_events();
        let chunks: Vec<&[CollectedEvent]> = events.chunks(13).collect();
        for threads in [1, 3] {
            let parts = map_reduce(&chunks, threads, |_, chunk| TracePartial::map(chunk));
            let reduced = fold_merge(parts, TracePartial::merge).expect("non-empty");
            let finished = reduced.finish(4096, 8);
            assert_eq!(finished.metrics, analyze(&events, 4096));
            assert_eq!(finished.per_core, by_core(&events));
            assert_eq!(finished.per_thread, by_thread(&events, 8));
            assert_eq!(finished.core_skew, core_skew(&events));
        }
    }

    #[test]
    fn fold_merge_empty_is_none() {
        assert!(fold_merge(Vec::<MetricsPartial>::new(), MetricsPartial::merge).is_none());
    }
}
