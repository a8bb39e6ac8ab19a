//! A uniform interface over tracer buffer disciplines, used by the replay
//! harness to drive BTrace and every baseline through identical code paths.
//!
//! The two-phase `try_begin` / [`SinkGrant::commit`] split exists so the
//! replayer can emulate a thread being **preempted mid-write** — the
//! scenario that distinguishes the tracers (§2.2 Observation 2): BTrace
//! skips the pinned block, LTTng-style buffers drop the newest entries,
//! ftrace-style buffers disable preemption, and a global queue blocks.

use crate::consumer::{Consumer, RingSnapshot};
use crate::error::TraceError;
use crate::event::EventView;
use crate::producer::Grant;
use crate::BTrace;

/// Result of an attempted record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordOutcome {
    /// The event was stored.
    Recorded,
    /// The tracer chose to drop the event (e.g. LTTng-style drop-newest).
    Dropped,
}

/// Result of an attempted two-phase begin.
#[derive(Debug)]
pub enum Begin<G> {
    /// Space was reserved; commit the grant to publish the event.
    Granted(G),
    /// The tracer refused the reservation and the event is lost.
    Dropped,
}

// The drained event types live with the rest of the event model.
pub use crate::event::{CollectedEvent, FullEvent};

/// An in-flight reservation produced by [`TraceSink::try_begin`].
pub trait SinkGrant: Send {
    /// Writes the entry and publishes it.
    fn commit(self, stamp: u64, tid: u32, payload: &[u8]);
}

/// A tracer buffer discipline under evaluation.
pub trait TraceSink: Send + Sync {
    /// The reservation type handed out by [`TraceSink::try_begin`].
    type Grant: SinkGrant;

    /// Short identifier used in benchmark tables (e.g. `"BTrace"`).
    fn name(&self) -> &'static str;

    /// Reserves space for a `payload_len`-byte event on `core`.
    fn try_begin(&self, core: usize, tid: u32, payload_len: usize) -> Begin<Self::Grant>;

    /// Whether the replayer is allowed to simulate preemption between
    /// `try_begin` and `commit`. `false` models ftrace's
    /// preemption-disabled writes (§2.2).
    fn preemptible_writes(&self) -> bool {
        true
    }

    /// One-shot record: reserve, write, publish.
    fn record(&self, core: usize, tid: u32, stamp: u64, payload: &[u8]) -> RecordOutcome {
        match self.try_begin(core, tid, payload.len()) {
            Begin::Granted(grant) => {
                grant.commit(stamp, tid, payload);
                RecordOutcome::Recorded
            }
            Begin::Dropped => RecordOutcome::Dropped,
        }
    }

    /// Visits every readable event, payload borrowed, in the tracer's
    /// documented order: the one read of a sink, behind both the analysis
    /// drain and the dump path of a real deployment (§2.1's daemon
    /// collector). Called after the replay has quiesced, so implementations
    /// need not be concurrent with producers.
    fn visit(&self, f: &mut dyn FnMut(EventView<'_>));

    /// Drains every readable event for analysis: [`TraceSink::visit`]
    /// reduced to each event's metadata and on-buffer footprint.
    fn drain(&self) -> Vec<CollectedEvent> {
        let mut out = Vec::new();
        self.visit(&mut |e| out.push(e.collected()));
        out
    }

    /// Total buffer capacity in bytes, for effectivity-ratio computations.
    fn capacity_bytes(&self) -> usize;
}

/// Sinks shared behind an `Arc` are sinks too (delegation), so sessions,
/// collectors, and replayers can share one tracer.
impl<S: TraceSink> TraceSink for std::sync::Arc<S> {
    type Grant = S::Grant;

    fn name(&self) -> &'static str {
        S::name(self)
    }

    fn try_begin(&self, core: usize, tid: u32, payload_len: usize) -> Begin<S::Grant> {
        S::try_begin(self, core, tid, payload_len)
    }

    fn preemptible_writes(&self) -> bool {
        S::preemptible_writes(self)
    }

    fn record(&self, core: usize, tid: u32, stamp: u64, payload: &[u8]) -> RecordOutcome {
        S::record(self, core, tid, stamp, payload)
    }

    fn visit(&self, f: &mut dyn FnMut(EventView<'_>)) {
        S::visit(self, f);
    }

    fn capacity_bytes(&self) -> usize {
        S::capacity_bytes(self)
    }
}

impl SinkGrant for Grant {
    fn commit(self, stamp: u64, tid: u32, payload: &[u8]) {
        // A payload-length mismatch is a harness bug; the grant's own Drop
        // converts the space to dummy filler, so this cannot wedge a replay.
        let _ = Grant::commit(self, stamp, tid, payload);
    }
}

/// BTrace as a [`TraceSink`]: never drops, never blocks; preempted writers
/// are handled by block skipping.
impl TraceSink for BTrace {
    type Grant = Grant;

    fn name(&self) -> &'static str {
        "BTrace"
    }

    fn try_begin(&self, core: usize, _tid: u32, payload_len: usize) -> Begin<Grant> {
        match self.producer(core).and_then(|p| p.begin(payload_len)) {
            Ok(grant) => Begin::Granted(grant),
            Err(TraceError::EntryTooLarge { .. }) | Err(_) => Begin::Dropped,
        }
    }

    fn record(&self, core: usize, tid: u32, stamp: u64, payload: &[u8]) -> RecordOutcome {
        // Fast path without the Grant's reference-count traffic: one
        // fetch-and-add to allocate, a word-wise copy, one to confirm.
        if core >= self.cores() {
            return RecordOutcome::Dropped;
        }
        match crate::producer::record_on(&self.shared, core, stamp, tid, payload) {
            Ok(()) => RecordOutcome::Recorded,
            Err(_) => RecordOutcome::Dropped,
        }
    }

    fn visit(&self, f: &mut dyn FnMut(EventView<'_>)) {
        // One block copy per readable block and no per-event allocation:
        // the events are visited in place in the snapshot.
        let mut snap = RingSnapshot::new();
        Consumer::new(std::sync::Arc::clone(&self.shared)).snapshot(&mut snap);
        snap.for_each_entry(|e| f(e.event));
    }

    fn capacity_bytes(&self) -> usize {
        BTrace::capacity_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;
    use btrace_vmem::Backing;

    fn sink() -> BTrace {
        BTrace::new(
            Config::new(2)
                .active_blocks(4)
                .block_bytes(256)
                .buffer_bytes(256 * 8)
                .backing(Backing::Heap),
        )
        .unwrap()
    }

    #[test]
    fn record_and_drain_via_trait() {
        let t = sink();
        assert_eq!(t.record(0, 5, 100, b"abc"), RecordOutcome::Recorded);
        assert_eq!(t.record(1, 6, 101, b"defg"), RecordOutcome::Recorded);
        let drained = t.drain();
        assert_eq!(drained.len(), 2);
        assert!(drained.iter().any(|e| e.stamp == 100 && e.core == 0 && e.tid == 5));
        assert!(drained.iter().any(|e| e.stamp == 101 && e.core == 1 && e.tid == 6));
    }

    #[test]
    fn two_phase_via_trait_objects() {
        fn drive<S: TraceSink>(sink: &S) {
            match sink.try_begin(0, 1, 4) {
                Begin::Granted(g) => g.commit(7, 1, b"wxyz"),
                Begin::Dropped => panic!("BTrace never drops"),
            }
        }
        let t = sink();
        drive(&t);
        assert_eq!(t.drain().len(), 1);
    }

    #[test]
    fn btrace_is_preemptible() {
        let t = sink();
        assert!(t.preemptible_writes());
        assert_eq!(t.name(), "BTrace");
        assert_eq!(TraceSink::capacity_bytes(&t), 256 * 8);
    }
}
