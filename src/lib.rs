//! # BTrace — efficient mobile tracing
//!
//! Facade crate for the BTrace reproduction (Wang et al., ASPLOS 2025,
//! *Enabling Efficient Mobile Tracing with BTrace*). It re-exports the public
//! APIs of every sub-crate so downstream users can depend on a single crate:
//!
//! * [`core`] — the BTrace tracer itself: a global buffer partitioned into
//!   blocks that are dynamically assigned to the most demanding cores.
//! * [`baselines`] — the buffer disciplines BTrace is evaluated against
//!   (BBQ, ftrace-like, LTTng-like, VTrace-like).
//! * [`replay`] — a mobile workload model and replayer used by the paper's
//!   evaluation (§5).
//! * [`analysis`] — readout metrics: latest fragment, loss rate, fragments,
//!   effectivity ratio, latency statistics.
//! * [`vmem`] — the substrate: reserved memory regions with
//!   commit/decommit, whose decommitted ranges stay readable.
//!
//! ## Quickstart
//!
//! ```rust
//! use btrace::core::{BTrace, Config};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 1 MiB buffer for a 4-core device, 4 KiB blocks, A = 16 blocks active.
//! let tracer = BTrace::new(Config::new(4).buffer_bytes(1 << 20).active_blocks(16))?;
//! let producer = tracer.producer(0)?; // producer handle pinned to core 0
//! producer.record(b"sched: task 42 -> cpu0")?;
//! let mut snapshot = btrace::core::RingSnapshot::new(); // reusable across reads
//! tracer.consumer().snapshot(&mut snapshot);
//! assert!(snapshot.to_events().iter().any(|e| e.payload == b"sched: task 42 -> cpu0"));
//! # Ok(())
//! # }
//! ```

pub use btrace_analysis as analysis;
pub use btrace_atrace as atrace;
pub use btrace_baselines as baselines;
pub use btrace_core as core;
pub use btrace_persist as persist;
pub use btrace_replay as replay;
pub use btrace_telemetry as telemetry;
pub use btrace_vmem as vmem;
