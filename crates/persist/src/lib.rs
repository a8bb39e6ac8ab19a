//! # btrace-persist — trace dumps and the collector daemon
//!
//! Smartphones trace into memory and *dump on suspicious symptoms* (§2.1):
//! a daemon collector writes the ring buffer out when an anomaly detector
//! fires, instead of persisting every event (which costs energy, flash
//! lifetime, and write bandwidth). This crate provides that pipeline:
//!
//! * [`TraceDump`] — a self-contained snapshot of a drained trace with a
//!   compact binary file format ([`TraceDump::write_to`] /
//!   [`TraceDump::read_from`]); no external format dependency.
//! * [`Collector`] — the daemon: watches a trigger, drains the tracer on
//!   each firing, and keeps a bounded ring of the most recent dumps on
//!   disk (rotation), like the beta-release collectors of §6.
//! * [`StreamPipeline`] — continuous export: a bounded
//!   `drain → batch → encode → sink` pipeline over the incremental
//!   [`StreamConsumer`](btrace_core::StreamConsumer), with configurable
//!   backpressure ([`Backpressure::Block`] vs
//!   [`Backpressure::DropAndCount`]) and per-stage telemetry gauges.
//!
//! ```rust
//! use btrace_core::{BTrace, Config};
//! use btrace_core::sink::TraceSink;
//! use btrace_persist::TraceDump;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tracer = BTrace::new(Config::new(1).buffer_bytes(256 << 10).active_blocks(16))?;
//! tracer.producer(0)?.record_with(1, 7, b"suspicious event")?;
//!
//! let dump = TraceDump::capture("anr-2026-07-05", &tracer);
//! let dir = std::env::temp_dir().join("btrace-doc-dump");
//! std::fs::create_dir_all(&dir)?;
//! let path = dir.join("trace.btd");
//! dump.write_to(&path)?;
//! let restored = TraceDump::read_from(&path)?;
//! assert_eq!(restored.events()[0].payload, b"suspicious event");
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
pub use dump::{DumpError, TraceDump};
pub use export::{read_jsonl, JsonlExporter, PrometheusExporter, RetryPolicy};
pub use fragment::{
    encode_stream, encode_stream_with, scan_frames, split_fragments, FragmentContext, FragmentSeed,
    FrameIndex, FrameInfo,
};
pub use parallel::{
    analyze_frames, analyze_frames_with, AnalyzeOptions, FragmentWork, ParallelAnalysis,
};
pub use query::{Predicate, Query, QueryOptions, QueryReport};
pub use store::{DefectKind, FrameDefect, StoreFrame, TraceStore};
pub use stream::{
    decode_frames, encode_frame, encode_frame_with, read_frames, Backpressure, EventRef,
    FileFrameSink, FrameEncoding, FrameSink, NullFrameSink, PipelineConfig, PipelineStats,
    StreamFrame, StreamPipeline,
};
