//! The atrace session: category filtering in front of any tracer sink.

use crate::category::Category;
use crate::codec::{OwnedEvent, TraceEvent, MAX_ENCODED};
use btrace_core::sink::{RecordOutcome, TraceSink};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// An atrace-style tracing session over a [`TraceSink`].
///
/// Tracepoints fire constantly in an instrumented system; whether they
/// *record* is decided here by one relaxed atomic load against the enabled
/// [`Category`] mask — a disabled tracepoint costs a few nanoseconds and
/// touches no shared state, which is what makes leaving instrumentation
/// compiled into production builds viable (§2.1).
pub struct Atrace<S> {
    sink: S,
    enabled: AtomicU32,
    clock: AtomicU64,
    filtered: AtomicU64,
    dropped: AtomicU64,
}

impl<S: TraceSink> Atrace<S> {
    /// Wraps `sink`, enabling `categories`.
    pub fn new(sink: S, categories: Category) -> Self {
        Self {
            sink,
            enabled: AtomicU32::new(categories.bits()),
            clock: AtomicU64::new(0),
            filtered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Changes the enabled category set at runtime (e.g. switching trace
    /// levels when a suspicious scenario begins).
    pub fn set_categories(&self, categories: Category) {
        self.enabled.store(categories.bits(), Ordering::SeqCst);
    }

    /// The currently enabled categories.
    pub fn categories(&self) -> Category {
        Category::from_bits(self.enabled.load(Ordering::SeqCst))
    }

    /// Emits a typed event from `core`/`tid`. Returns `true` when the event
    /// was recorded, `false` when it was filtered out or the sink dropped it.
    pub fn event(&self, core: usize, tid: u32, event: TraceEvent<'_>) -> bool {
        let mask = Category::from_bits(self.enabled.load(Ordering::Relaxed));
        if !mask.contains(event.category()) {
            self.filtered.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mut buf = [0u8; MAX_ENCODED];
        let len = event.encode(&mut buf);
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        match self.sink.record(core, tid, stamp, &buf[..len]) {
            RecordOutcome::Recorded => true,
            RecordOutcome::Dropped => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Opens a named duration: emits [`TraceEvent::Begin`] now and
    /// [`TraceEvent::End`] when the guard drops.
    pub fn scope<'a>(&'a self, core: usize, tid: u32, msg: &str) -> ScopeGuard<'a, S> {
        self.event(core, tid, TraceEvent::Begin { msg });
        ScopeGuard { atrace: self, core, tid }
    }

    /// Events suppressed by the category mask so far.
    pub fn filtered(&self) -> u64 {
        self.filtered.load(Ordering::Relaxed)
    }

    /// Events the sink refused so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The wrapped sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Unwraps the session.
    pub fn into_inner(self) -> S {
        self.sink
    }

    /// Drains the sink and decodes every retained event. Events whose
    /// payloads fail to decode (foreign writers on the same sink) are
    /// skipped.
    pub fn drain_decoded(&self) -> Vec<DecodedEvent> {
        let mut out = Vec::new();
        self.sink.visit(&mut |e| {
            if let Ok(event) = OwnedEvent::decode(e.payload) {
                out.push(DecodedEvent { stamp: e.stamp, core: e.core as usize, tid: e.tid, event });
            }
        });
        out
    }
}

impl<S> std::fmt::Debug for Atrace<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Atrace")
            .field("enabled", &Category::from_bits(self.enabled.load(Ordering::Relaxed)))
            .field("filtered", &self.filtered.load(Ordering::Relaxed))
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

/// A decoded, retained event with its recording context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedEvent {
    /// Logic stamp (session order).
    pub stamp: u64,
    /// Core it was recorded on.
    pub core: usize,
    /// Recording thread.
    pub tid: u32,
    /// The decoded payload.
    pub event: OwnedEvent,
}

/// RAII duration marker returned by [`Atrace::scope`].
#[must_use = "the scope ends when the guard drops"]
#[derive(Debug)]
pub struct ScopeGuard<'a, S: TraceSink> {
    atrace: &'a Atrace<S>,
    core: usize,
    tid: u32,
}

impl<S: TraceSink> Drop for ScopeGuard<'_, S> {
    fn drop(&mut self) {
        self.atrace.event(self.core, self.tid, TraceEvent::End);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Level;
    use btrace_core::{BTrace, Config};

    fn session(categories: Category) -> Atrace<BTrace> {
        let sink = BTrace::new(
            Config::new(2)
                .active_blocks(8)
                .block_bytes(512)
                .buffer_bytes(512 * 16)
                .backing(btrace_core::Backing::Heap),
        )
        .expect("valid configuration");
        Atrace::new(sink, categories)
    }

    #[test]
    fn filtering_respects_the_mask() {
        let a = session(Category::SCHED);
        assert!(a.event(0, 1, TraceEvent::SchedSwitch { prev: 1, next: 2, prio: 0 }));
        assert!(!a.event(0, 1, TraceEvent::FreqChange { cpu: 0, khz: 1_000_000 }));
        assert_eq!(a.filtered(), 1);
        let events = a.drain_decoded();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].event, OwnedEvent::SchedSwitch { prev: 1, next: 2, prio: 0 });
    }

    #[test]
    fn level_switch_at_runtime() {
        let a = session(Level::Level1.categories());
        assert!(!a.event(0, 1, TraceEvent::SchedSwitch { prev: 1, next: 2, prio: 0 }));
        a.set_categories(Level::Level3.categories());
        assert!(a.event(0, 1, TraceEvent::SchedSwitch { prev: 1, next: 2, prio: 0 }));
        assert!(a.event(0, 1, TraceEvent::ThermalThrottle { zone: 0, mdeg: 45_000 }));
        assert_eq!(a.drain_decoded().len(), 2);
    }

    #[test]
    fn scope_emits_begin_and_end_in_order() {
        let a = session(Category::ALL);
        {
            let _outer = a.scope(0, 1, "outer");
            let _inner = a.scope(0, 1, "inner");
        }
        let events = a.drain_decoded();
        let kinds: Vec<&OwnedEvent> = events.iter().map(|e| &e.event).collect();
        assert_eq!(kinds.len(), 4);
        assert_eq!(*kinds[0], OwnedEvent::Begin { msg: "outer".into() });
        assert_eq!(*kinds[1], OwnedEvent::Begin { msg: "inner".into() });
        assert_eq!(*kinds[2], OwnedEvent::End);
        assert_eq!(*kinds[3], OwnedEvent::End);
    }

    #[test]
    fn stamps_are_session_monotone() {
        let a = session(Category::ALL);
        for i in 0..50 {
            a.event((i % 2) as usize, i, TraceEvent::IdleExit { cpu: 0 });
        }
        let events = a.drain_decoded();
        let mut stamps: Vec<u64> = events.iter().map(|e| e.stamp).collect();
        let sorted = {
            let mut s = stamps.clone();
            s.sort_unstable();
            s
        };
        stamps.sort_unstable();
        assert_eq!(stamps, sorted);
        assert_eq!(stamps.len(), 50);
    }

    #[test]
    fn works_over_baseline_sinks_too() {
        use btrace_baselines::PerCoreOverwrite;
        let a = Atrace::new(PerCoreOverwrite::new(2, 8192), Level::Level2.categories());
        assert!(a.event(1, 3, TraceEvent::Irq { irq: 11, enter: true }));
        assert!(!a.event(1, 3, TraceEvent::IdleEnter { cpu: 1, state: 2 })); // level 3
        let events = a.drain_decoded();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].core, 1);
        assert_eq!(events[0].event, OwnedEvent::Irq { irq: 11, enter: true });
    }
}
