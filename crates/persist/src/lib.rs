//! # btrace-persist — trace dumps and the collector daemon
//!
//! Smartphones trace into memory and *dump on suspicious symptoms* (§2.1):
//! a daemon collector writes the ring buffer out when an anomaly detector
//! fires, instead of persisting every event (which costs energy, flash
//! lifetime, and write bandwidth). This crate provides that pipeline over
//! **one on-disk format**, BTSF: checksummed frames of delta/varint encoded
//! events, each ending in an index footer (see [`encode_frame`]).
//!
//! * [`Collector`] — the daemon: on each trigger it snapshots the ring
//!   ([`btrace_core::Consumer::snapshot`]), writes the snapshot straight
//!   into a `.btd` dump ([`write_snapshot`]), and keeps a bounded ring of
//!   the most recent dumps on disk (rotation), like the beta-release
//!   collectors of §6. A `.btd` file is a short checksummed label header
//!   followed by a BTSF stream.
//! * [`TraceDump`] — a dump as owned events in memory: read one back with
//!   [`TraceDump::read_from`], or build and write one from events already
//!   drained ([`TraceDump::capture`], [`TraceDump::write_to`]).
//! * [`StreamPipeline`] — continuous export: a bounded
//!   `drain → batch → encode → sink` pipeline over the incremental
//!   [`StreamConsumer`](btrace_core::StreamConsumer), with configurable
//!   backpressure ([`Backpressure::Block`] vs
//!   [`Backpressure::DropAndCount`]) and per-stage telemetry gauges.
//! * [`TraceStore`], [`Query`] and [`analyze_frames`] — the read side: a
//!   `.btsf` stream or a `.btd` dump opens in place through one mmap, its
//!   footers prune frames a predicate cannot match, and damaged frames
//!   become typed [`FrameDefect`]s instead of errors.
//!
//! ```rust
//! use btrace_core::{BTrace, Config};
//! use btrace_persist::{Collector, CollectorConfig, TraceDump};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tracer = Arc::new(BTrace::new(Config::new(1).buffer_bytes(256 << 10).active_blocks(16))?);
//! tracer.producer(0)?.record_with(1, 7, b"suspicious event")?;
//!
//! let dir = std::env::temp_dir().join("btrace-doc-dump");
//! let collector = Collector::new(Arc::clone(&tracer), CollectorConfig::new(&dir))?;
//! let path = collector.trigger("anr-2026-07-05")?;
//! let restored = TraceDump::read_from(&path)?;
//! assert_eq!(restored.label(), "anr-2026-07-05");
//! assert_eq!(restored.events()[0].payload, b"suspicious event");
//! // The same file answers queries in place.
//! let report = btrace_persist::Query::default().run(&btrace_persist::TraceStore::open(&path)?);
//! assert_eq!(report.matched_events, 1);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod collector;
mod dump;
mod export;
mod fragment;
mod parallel;
mod query;
mod store;
mod stream;

pub use collector::{Collector, CollectorConfig};
pub use dump::{write_snapshot, DumpError, TraceDump};
pub use export::{read_jsonl, JsonlExporter, PrometheusExporter, RetryPolicy};
pub use fragment::{
    encode_stream, scan_frames, split_fragments, FragmentContext, FragmentSeed, FrameIndex,
    FrameInfo,
};
pub use parallel::{
    analyze_frames, analyze_frames_with, AnalyzeOptions, FragmentWork, ParallelAnalysis,
};
pub use query::{Predicate, Query, QueryOptions, QueryReport};
pub use store::{DefectKind, FrameDefect, TraceStore};
pub use stream::{
    decode_frames, encode_frame, encode_frame_with, read_frames, Backpressure, EventRef,
    FileFrameSink, FrameEncoding, FrameSink, NullFrameSink, PipelineConfig, PipelineStats,
    StreamFrame, StreamPipeline,
};
