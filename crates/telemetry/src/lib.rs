//! # btrace-telemetry — observability for the tracer itself
//!
//! The paper's claims are quantitative (~10 ns records, effectivity
//! `≈ 1 − A/N`, bounded dummy waste), so the tracer needs instrumentation
//! that can *show* those numbers live without perturbing them. This crate
//! provides that layer with the same discipline as the tracer's own fast
//! path — lock-free, cache-padded, relaxed-ordering:
//!
//! * [`Histogram`] / [`ShardedHistogram`] — HDR-style log-linear latency
//!   histograms: one atomic fetch-add per recorded value, bounded ~6%
//!   relative error, per-core shards to keep recording contention-free.
//! * [`Stats`], [`degraded`] and [`TracerState`] — the tracer's one
//!   counter set and degradation state. `btrace-core` fills them and
//!   re-exports them under the same names; nothing else redefines them.
//! * [`HealthSnapshot`] — a point-in-time health report: the embedded
//!   [`Stats`], per-core record counts, buffer gauges (capacity,
//!   committed bytes, occupancy), the observed effectivity ratio next to
//!   the paper's `1 − A/N` bound, and latency summaries.
//! * [`fields`] — one field table per exported record. The JSONL
//!   encoder, the strict decoder (its errors name the field) and the
//!   Prometheus renderer are walks over those tables.
//! * [`Sampler`] — a background thread that periodically snapshots a
//!   [`SnapshotSource`], derives rate-windowed deltas, and feeds pluggable
//!   [`Exporter`]s (JSONL and Prometheus text formats ship in
//!   `btrace-persist`).
//! * [`Controller`] / [`ControllerThread`] — the adaptive-sizing control
//!   loop: drives `resize_bytes` from snapshot deltas to hold a target
//!   loss-rate under a hard memory budget, with hysteresis, cooldown,
//!   exponential back-off, and retention-ranked shrinking.
//!
//! The crate is dependency-light and tracer-agnostic: `btrace-core`
//! always uses its counter types, and implements [`SnapshotSource`]
//! behind its `telemetry` feature (on by default, compiled out cleanly
//! when disabled).
//!
//! ```rust
//! use btrace_telemetry::{Histogram, HealthSnapshot};
//!
//! let hist = Histogram::new();
//! for ns in [12, 14, 13, 900, 15] {
//!     hist.record(ns);
//! }
//! let summary = hist.snapshot().summary();
//! assert_eq!(summary.count, 5);
//! assert!(summary.p50 >= 12 && summary.p50 <= 16);
//!
//! // Snapshots round-trip through the built-in JSON codec.
//! let snap = HealthSnapshot::default();
//! let parsed = HealthSnapshot::from_json(&snap.to_json()).unwrap();
//! assert_eq!(parsed, snap);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

#[macro_use]
pub mod fields;
mod controller;
mod hist;
pub mod json;
mod pad;
mod recorder;
mod sampler;
mod snapshot;
mod stats;

pub use controller::{
    Controller, ControllerConfig, ControllerStats, ControllerThread, Decision, IdleReason,
    ResizeReason, ResizeTarget, StaleReason,
};
pub use hist::{Histogram, HistogramSnapshot, ShardedHistogram, NUM_BUCKETS};
pub use pad::CachePadded;
pub use recorder::{
    EventKind, FlightRecorder, RecordedEvent, RecorderSnapshot, DEFAULT_SLOTS, STAGE_NAMES,
    STAGE_SHARDS,
};
pub use sampler::{ExportIoStats, Exporter, Sampler, SamplerConfig, SnapshotSource};
pub use snapshot::{CoreHealth, HealthSnapshot, LatencySummary, Rates, StageHealth};
pub use stats::{degraded, Degraded, Stats, TracerState};
