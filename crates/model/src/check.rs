//! Invariant checkers run against every modeled execution.
//!
//! Each checker encodes one correctness claim of the paper; all panic with
//! a description on violation (the harness attaches the schedule seed).
//!
//! | checker | claim | paper |
//! |---|---|---|
//! | [`check_conservation`] | every drained event was produced, exactly once | §3.4 out-of-order confirm |
//! | [`check_effectivity`] | effectivity ratio ≥ `1 − A/N` | §3.2 block closing |
//! | [`check_effectivity_with_slack`] | as above, minus at most `slack` in-flight blocks | §3.2 block closing |
//! | [`check_counter_coherence`] | allocate/confirm counters agree at quiescence (no lost update) | §3.3 implicit reclaiming |
//! | [`check_pin`] | an unconfirmed grant's round is never recycled | §3.3 counters as refcounts |
//! | [`MonotonicObserver`] | per-block counters never regress | §4.1 single-fetch-add transitions |
//!
//! The sixth claim — advancement past a preempted thread terminates within
//! a bounded step count (§3.4 never-blocking) — is enforced by the
//! scheduler itself: every modeled execution runs under a hard step budget,
//! so any livelock fails the schedule with a "step budget exceeded" panic.

use btrace_core::introspect::{self, MetaView};
use btrace_core::{BTrace, RingSnapshot};
use std::collections::BTreeSet;

/// Event conservation: every drained stamp was produced and none is drained
/// twice. With `require_all` (scenarios that never wrap the buffer) the
/// drained set must equal the produced set — nothing silently lost either.
pub fn check_conservation(readout: &RingSnapshot, produced: &BTreeSet<u64>, require_all: bool) {
    let mut seen = BTreeSet::new();
    for event in &readout.to_events() {
        let stamp = event.stamp;
        assert!(
            produced.contains(&stamp),
            "conservation: drained stamp {stamp} was never produced (invented/torn event)"
        );
        assert!(seen.insert(stamp), "conservation: stamp {stamp} drained twice (duplicated event)");
    }
    if require_all {
        assert_eq!(
            seen.len(),
            produced.len(),
            "conservation: {} produced events missing from the drain (no-wrap scenario): {:?}",
            produced.len() - seen.len(),
            produced.difference(&seen).take(8).collect::<Vec<_>>()
        );
    }
}

/// Effectivity ratio never below the analytic `1 − A/N` bound (§3.2): block
/// closing wastes at most the `A` active blocks out of every `N` written.
pub fn check_effectivity(tracer: &BTrace) {
    let stats = tracer.stats();
    let a = tracer.active_blocks() as f64;
    let n = tracer.capacity_blocks() as f64;
    let bound = 1.0 - a / n;
    let observed = stats.effectivity_ratio();
    assert!(
        observed + 1e-9 >= bound,
        "effectivity: observed {observed:.4} below analytic bound {bound:.4} \
         (A={a}, N={n}, recorded={}, dummy={})",
        stats.recorded_bytes,
        stats.dummy_bytes
    );
}

/// Like [`check_effectivity`], but tolerates up to `slack_blocks` extra
/// blocks of dummy bytes. The analytic `1 − A/N` bound is asymptotic: it
/// amortizes the at-most-`A` active blocks that are still open (or were
/// closed by the final advancement without ever filling) at the moment the
/// run stops. Short modeled executions don't get that amortization, so an
/// adversarial schedule can legitimately land a hair under the strict bound
/// without any protocol bug. `slack_blocks = A` covers exactly that
/// in-flight set; anything past it is a real closing-waste regression.
pub fn check_effectivity_with_slack(tracer: &BTrace, slack_blocks: u32) {
    let stats = tracer.stats();
    let total = (stats.recorded_bytes + stats.dummy_bytes) as f64;
    if total == 0.0 {
        return;
    }
    let a = tracer.active_blocks() as f64;
    let n = tracer.capacity_blocks() as f64;
    let slack = f64::from(slack_blocks) * tracer.block_bytes() as f64 / total;
    let bound = (1.0 - a / n) - slack;
    let observed = stats.effectivity_ratio();
    assert!(
        observed + 1e-9 >= bound,
        "effectivity: observed {observed:.4} below bound {bound:.4} \
         (1 - {a}/{n} with {slack_blocks} blocks of in-flight slack; \
         recorded={}, dummy={})",
        stats.recorded_bytes,
        stats.dummy_bytes
    );
}

/// Counter coherence at quiescence (§3.3): with no operation in flight,
/// `Confirmed` must have caught up with `Allocated` — same round, and every
/// in-capacity allocated byte confirmed. A lost confirm (dropped fetch-add)
/// or a premature round advance leaves a permanent mismatch here.
pub fn check_counter_coherence(tracer: &BTrace) {
    let cap = introspect::block_cap(tracer);
    for (idx, m) in introspect::meta_states(tracer).iter().enumerate() {
        assert!(
            m.conf_pos <= cap,
            "coherence: meta {idx} confirmed {} beyond capacity {cap}",
            m.conf_pos
        );
        assert_eq!(
            m.conf_rnd, m.alloc_rnd,
            "coherence: meta {idx} rounds diverged at quiescence ({m:?})"
        );
        assert_eq!(
            m.conf_pos,
            m.alloc_pos.min(cap),
            "coherence: meta {idx} confirmed bytes lag allocation at quiescence ({m:?})"
        );
    }
}

/// Implicit-reclaiming pin (§3.3): while a producer holds an unconfirmed
/// in-capacity grant in round `rnd` of `meta_idx`, the metadata block's
/// confirmed round must still be `rnd` — the round cannot be locked (and
/// its data block cannot be recycled) until the grant confirms.
pub fn check_pin(tracer: &BTrace, meta_idx: usize, rnd: u32) {
    let m = introspect::meta_state(tracer, meta_idx);
    let cap = introspect::block_cap(tracer);
    assert_eq!(
        m.conf_rnd, rnd,
        "pin: meta {meta_idx} advanced to round {} while a grant pinned round {rnd} — \
         the block was recycled under a live producer reference",
        m.conf_rnd
    );
    assert!(
        m.conf_pos < cap,
        "pin: meta {meta_idx} fully confirmed ({}/{cap}) despite an open grant",
        m.conf_pos
    );
}

/// Watches the metadata counters across an execution and asserts they never
/// regress: both `Allocated` and `Confirmed` move strictly forward in
/// `(rnd, pos)` lexicographic order (§4.1 — every transition is a fetch-add
/// or a round-advancing CAS). Feed it snapshots from a modeled observer
/// thread; each snapshot is itself a sequence of yield points, so the
/// observer races the producers at every interleaving the seed generates.
#[derive(Debug, Default)]
pub struct MonotonicObserver {
    last: Vec<MetaView>,
}

impl MonotonicObserver {
    /// Creates an observer with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes one snapshot of every metadata block and asserts nothing moved
    /// backwards since the previous call.
    pub fn observe(&mut self, tracer: &BTrace) {
        let now = introspect::meta_states(tracer);
        if !self.last.is_empty() {
            for (idx, (prev, cur)) in self.last.iter().zip(&now).enumerate() {
                assert!(
                    (cur.alloc_rnd, cur.alloc_pos) >= (prev.alloc_rnd, prev.alloc_pos),
                    "regression: meta {idx} Allocated went backwards: {prev:?} -> {cur:?}"
                );
                assert!(
                    (cur.conf_rnd, cur.conf_pos) >= (prev.conf_rnd, prev.conf_pos),
                    "regression: meta {idx} Confirmed went backwards: {prev:?} -> {cur:?}"
                );
            }
        }
        self.last = now;
    }
}
