//! # btrace-core — block-based mobile tracing
//!
//! Reproduction of the tracer from *Enabling Efficient Mobile Tracing with
//! BTrace* (ASPLOS 2025). BTrace partitions one global trace buffer into
//! `N` equally sized **data blocks**, dynamically assigned to the cores that
//! need them — combining the memory efficiency of a global buffer with the
//! recording latency of per-core buffers.
//!
//! ## Mechanisms (paper §3)
//!
//! * **Block partitioning** (§3.1) — each core exclusively owns one data
//!   block at a time; producers allocate with one fetch-and-add on the
//!   block's `Allocated` counter and confirm with one fetch-and-add on
//!   `Confirmed`. When a block fills, the core advances via a global
//!   position counter. Worst-case memory utilization is `1 − (C−1)/N`
//!   instead of `1/C` (per-core buffers) or `1/T` (per-thread buffers).
//! * **Block closing** (§3.2) — only `A` blocks are active at once; an
//!   advancing producer closes the lagging block `A` positions behind it,
//!   bounding the effectivity ratio at `≈ 1 − A/N`.
//! * **Implicit reclaiming** (§3.3) — `N` data blocks share `A` metadata
//!   blocks (`Ratio = N/A`, round counter `Rnd` naming the live data
//!   block), and the allocate/confirm counters double as reference counts,
//!   so resizing needs no producer-side synchronization.
//! * **Block skipping** (§3.4) — confirmation is out of order inside a
//!   block, and advancement skips blocks pinned by preempted writers, so
//!   recording never blocks and never drops.
//!
//! ## Quickstart
//!
//! ```rust
//! use btrace_core::{BTrace, Config};
//!
//! # fn main() -> Result<(), btrace_core::TraceError> {
//! let tracer = BTrace::new(Config::new(4).buffer_bytes(1 << 20).active_blocks(64))?;
//!
//! // Producers are per core; any number of threads may share one.
//! let producer = tracer.producer(0)?;
//! producer.record_with(/*stamp*/ 1, /*tid*/ 42, b"sched: switch prev=7 next=9")?;
//!
//! // Consumers read speculatively and never block producers.
//! let mut snapshot = btrace_core::RingSnapshot::new();
//! tracer.consumer().snapshot(&mut snapshot);
//! assert_eq!(snapshot.to_events()[0].payload, b"sched: switch prev=7 next=9");
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod buffer;
mod config;
mod consumer;
mod error;
pub mod event;
#[cfg(feature = "model")]
pub mod introspect;
mod layout;
mod meta;
mod packed;
mod producer;
mod raw;
mod resize;
pub mod sink;
mod stats;
pub mod stream;
mod sync;
#[cfg(feature = "telemetry")]
mod telem;

pub use buffer::BTrace;
pub use config::Config;
pub use consumer::{BlockCounts, Consumer, EntryBatch, RingEntry, RingSnapshot};
pub use error::TraceError;
pub use event::{CollectedEvent, EventView, FullEvent};
pub use producer::{Grant, Producer};
pub use stream::{StreamShard, StreamStats};
#[cfg(feature = "model")]
pub use sync::model_rt;

// The counter set and the degradation state are defined once, in the
// telemetry crate, and surface here under their historical names.
pub use btrace_telemetry::{degraded, Degraded, Stats, TracerState};
// Re-exported so downstream crates can configure memory backing and
// fault injection without depending on the substrate crate directly.
pub use btrace_vmem::{Backing, FaultPlan, FaultStats};
