//! Independent reference for the standard readout, shared by the analysis
//! and query suites.
//!
//! It is the collect-then-sort algorithm the streaming fold replaced, kept
//! here as plain test code: copy every event, sort `(stamp, bytes)` pairs,
//! dedup with the min-bytes rule, and count groups in `BTreeMap`s. The
//! library's `TracePartial` is checked against this, never against itself.

use std::collections::BTreeMap;

use btrace::analysis::TraceAnalysis;
use btrace::core::sink::CollectedEvent;

/// `(key, events, bytes, oldest, newest)` of one core or thread.
pub type Group = (u32, usize, u64, u64, u64);

/// Every field of a finished readout, in plain comparable form.
#[derive(Debug, Clone, PartialEq)]
pub struct Readout {
    pub retained_events: usize,
    pub retained_bytes: u64,
    pub latest_fragment_bytes: u64,
    pub latest_fragment_events: usize,
    pub fragments: usize,
    pub loss_rate: f64,
    pub effectivity_ratio: f64,
    pub per_core: Vec<Group>,
    pub per_thread: Vec<Group>,
    pub core_skew: Option<f64>,
}

/// The library's finished readout, flattened for comparison.
pub fn readout(a: &TraceAnalysis) -> Readout {
    let group = |g: &btrace::analysis::GroupStats| (g.key, g.events, g.bytes, g.oldest, g.newest);
    let m = &a.metrics;
    Readout {
        retained_events: m.retained_events,
        retained_bytes: m.retained_bytes,
        latest_fragment_bytes: m.latest_fragment_bytes,
        latest_fragment_events: m.latest_fragment_events,
        fragments: m.fragments,
        loss_rate: m.loss_rate,
        effectivity_ratio: m.effectivity_ratio,
        per_core: a.per_core.iter().map(group).collect(),
        per_thread: a.per_thread.iter().map(group).collect(),
        core_skew: a.core_skew,
    }
}

/// The retained `(stamp, bytes)` pairs: sorted, one per stamp, each stamp
/// keeping its smallest byte count.
pub fn retained(events: &[CollectedEvent]) -> Vec<(u64, u32)> {
    let mut entries: Vec<(u64, u32)> = events.iter().map(|e| (e.stamp, e.stored_bytes)).collect();
    entries.sort_unstable();
    entries.dedup_by_key(|&mut (stamp, _)| stamp);
    entries
}

/// The readout the library must produce for `events`, in any order.
pub fn oracle(events: &[CollectedEvent], capacity_bytes: usize, top_threads: usize) -> Readout {
    let entries = retained(events);
    let bytes = |run: &[(u64, u32)]| run.iter().map(|&(_, b)| b as u64).sum::<u64>();
    let mut fragments = usize::from(!entries.is_empty());
    let mut last_run = 0;
    for i in 1..entries.len() {
        if entries[i].0 != entries[i - 1].0 + 1 {
            fragments += 1;
            last_run = i;
        }
    }
    let latest = &entries[last_run..];
    let loss_rate = match (entries.first(), entries.last()) {
        (Some(&(oldest, _)), Some(&(newest, _))) => {
            let range = newest - oldest + 1;
            (range - entries.len() as u64) as f64 / range as f64
        }
        _ => 0.0,
    };
    let effectivity_ratio = if capacity_bytes == 0 || entries.is_empty() {
        0.0
    } else {
        bytes(latest) as f64 / capacity_bytes as f64
    };

    let groups = |key: &dyn Fn(&CollectedEvent) -> u32| {
        let mut map: BTreeMap<u32, Group> = BTreeMap::new();
        for e in events {
            let k = key(e);
            let g = map.entry(k).or_insert((k, 0, 0, u64::MAX, 0));
            g.1 += 1;
            g.2 += e.stored_bytes as u64;
            g.3 = g.3.min(e.stamp);
            g.4 = g.4.max(e.stamp);
        }
        map.into_values().collect::<Vec<Group>>()
    };
    let per_core = groups(&|e| e.core as u32);
    let mut per_thread = groups(&|e| e.tid);
    per_thread.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    per_thread.truncate(top_threads);
    let core_skew = (per_core.len() >= 2).then(|| {
        let max = per_core.iter().map(|g| g.1).max().expect("two groups");
        let min = per_core.iter().map(|g| g.1).min().expect("two groups");
        max as f64 / min.max(1) as f64
    });

    Readout {
        retained_events: entries.len(),
        retained_bytes: bytes(&entries),
        latest_fragment_bytes: bytes(latest),
        latest_fragment_events: latest.len(),
        fragments,
        loss_rate,
        effectivity_ratio,
        per_core,
        per_thread,
        core_skew,
    }
}
