//! White-box views of tracer internals for the deterministic model checker
//! (`model` feature only).
//!
//! The invariant checkers in `btrace-model` need to observe protocol state
//! the public API intentionally hides: the per-metadata-block
//! `Allocated`/`Confirmed` pairs, the global and core-local positions, and
//! the `gpos → (meta, rnd, data)` mapping. This module exposes read-only
//! snapshots of exactly that.
//!
//! Reads go through the instrumented sync facade, so a modeled checker
//! thread that inspects state mid-execution participates in the schedule
//! like any other observer; harness-thread reads (no gate installed) pass
//! straight through.

use crate::BTrace;

/// Snapshot of one metadata block's two packed counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaView {
    /// Round of the `Allocated` word.
    pub alloc_rnd: u32,
    /// Byte watermark of the `Allocated` word (may overshoot capacity).
    pub alloc_pos: u32,
    /// Round of the `Confirmed` word.
    pub conf_rnd: u32,
    /// Confirmed byte count of the `Confirmed` word.
    pub conf_pos: u32,
}

/// Snapshots every metadata block, in index order.
pub fn meta_states(tracer: &BTrace) -> Vec<MetaView> {
    (0..tracer.shared.metas.len()).map(|idx| meta_state(tracer, idx)).collect()
}

/// Snapshots metadata block `meta_idx`.
///
/// # Panics
///
/// Panics when `meta_idx` is out of range.
pub fn meta_state(tracer: &BTrace, meta_idx: usize) -> MetaView {
    let meta = &tracer.shared.metas[meta_idx];
    let alloc = meta.allocated();
    let conf = meta.confirmed();
    MetaView { alloc_rnd: alloc.rnd, alloc_pos: alloc.pos, conf_rnd: conf.rnd, conf_pos: conf.pos }
}

/// Where a global block sequence number lives:
/// `(meta_idx, rnd, data_idx)` under the ratio that was live when it was
/// issued.
pub fn mapping(tracer: &BTrace, gpos: u64) -> (usize, u32, u64) {
    let map = tracer.shared.map(gpos);
    (map.meta_idx, map.rnd, map.data_idx)
}

/// Current global block sequence position.
pub fn global_pos(tracer: &BTrace) -> u64 {
    tracer.shared.global_pos().pos
}

/// Current block sequence position of `core`.
///
/// # Panics
///
/// Panics when `core` is out of range.
pub fn core_local_pos(tracer: &BTrace, core: usize) -> u64 {
    tracer.shared.core_local(core).pos
}

/// Data block capacity in bytes.
pub fn block_cap(tracer: &BTrace) -> u32 {
    tracer.shared.cap()
}
