//! ftrace-like baseline: one overwrite-mode ring per core, writes performed
//! with preemption disabled (paper §2.2).
//!
//! The Linux function tracer gives each core an exclusive ring buffer and
//! wraps every write in `preempt_disable()` / `preempt_enable()`, so a
//! writer can never be scheduled out mid-record. The model here mirrors
//! that: [`TraceSink::preemptible_writes`] is `false` (the replayer will not
//! interleave writers on a core mid-write), and each record takes a per-core
//! mutex whose uncontended acquire/release stands in for the
//! preempt-disable/enable pair. The total buffer budget is split evenly
//! across cores, which is exactly the `1/C` utilization pathology of
//! Table 1.

use crate::ring::{drain_rings, lock, OverwriteRing};
use btrace_core::event::EventView;
use btrace_core::sink::{Begin, SinkGrant, TraceSink};
use std::sync::{Arc, Mutex};

/// Per-core overwrite-mode rings, modelled on Linux ftrace.
///
/// # Examples
///
/// ```rust
/// use btrace_baselines::PerCoreOverwrite;
/// use btrace_core::sink::TraceSink;
///
/// let tracer = PerCoreOverwrite::new(4, 1 << 20);
/// tracer.record(0, 7, 1, b"sched: switch");
/// assert_eq!(tracer.drain().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PerCoreOverwrite {
    rings: Arc<Vec<Mutex<OverwriteRing>>>,
    total_bytes: usize,
}

impl PerCoreOverwrite {
    /// Splits `total_bytes` evenly over `cores` rings.
    ///
    /// # Panics
    ///
    /// Panics when `cores` is zero.
    pub fn new(cores: usize, total_bytes: usize) -> Self {
        assert!(cores > 0, "at least one core required");
        let per_core = total_bytes / cores;
        let rings = (0..cores).map(|_| Mutex::new(OverwriteRing::new(per_core))).collect();
        Self { rings: Arc::new(rings), total_bytes }
    }

    /// Number of events evicted by overwrite so far.
    pub fn overwritten(&self) -> u64 {
        self.rings.iter().map(|r| lock(r).overwritten()).sum()
    }
}

/// Deferred write token: the actual ring operation happens at commit time,
/// inside the non-preemptible section.
#[derive(Debug)]
pub struct PerCoreGrant {
    rings: Arc<Vec<Mutex<OverwriteRing>>>,
    core: usize,
}

impl SinkGrant for PerCoreGrant {
    fn commit(self, stamp: u64, tid: u32, payload: &[u8]) {
        // The lock is the preempt-disabled critical section: allocate,
        // copy, and publish happen inside it, so no concurrent writer on
        // this core can observe a half-written entry.
        lock(&self.rings[self.core]).write(stamp, tid, self.core as u16, payload);
    }
}

impl TraceSink for PerCoreOverwrite {
    type Grant = PerCoreGrant;

    fn name(&self) -> &'static str {
        "ftrace"
    }

    fn try_begin(&self, core: usize, _tid: u32, payload_len: usize) -> Begin<PerCoreGrant> {
        if core >= self.rings.len() || !lock(&self.rings[core]).fits(payload_len) {
            return Begin::Dropped;
        }
        Begin::Granted(PerCoreGrant { rings: Arc::clone(&self.rings), core })
    }

    fn record(
        &self,
        core: usize,
        tid: u32,
        stamp: u64,
        payload: &[u8],
    ) -> btrace_core::sink::RecordOutcome {
        use btrace_core::sink::RecordOutcome;
        // Direct path: one lock acquire/release (the preempt-disable pair),
        // allocate + copy inside it.
        if core >= self.rings.len() {
            return RecordOutcome::Dropped;
        }
        let mut ring = lock(&self.rings[core]);
        if !ring.fits(payload.len()) {
            return RecordOutcome::Dropped;
        }
        ring.write(stamp, tid, core as u16, payload);
        RecordOutcome::Recorded
    }

    fn preemptible_writes(&self) -> bool {
        false // ftrace disables preemption around trace writes
    }

    fn visit(&self, f: &mut dyn FnMut(EventView<'_>)) {
        drain_rings(self.rings.iter()).iter().for_each(|e| f(e.view()));
    }

    fn capacity_bytes(&self) -> usize {
        self.total_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrace_core::sink::RecordOutcome;

    #[test]
    fn records_and_drains_across_cores() {
        let t = PerCoreOverwrite::new(2, 4096);
        assert_eq!(t.record(0, 1, 10, b"a"), RecordOutcome::Recorded);
        assert_eq!(t.record(1, 2, 11, b"b"), RecordOutcome::Recorded);
        let out = t.drain();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].stamp, 10);
        assert_eq!(out[1].core, 1);
    }

    #[test]
    fn skewed_cores_waste_other_rings() {
        // The 1/C pathology: one busy core can only ever use its own slice.
        let t = PerCoreOverwrite::new(4, 4 * 1024);
        for i in 0..1000u64 {
            t.record(0, 0, i, b"0123456789abcdef");
        }
        let out = t.drain();
        let retained_bytes: u32 = out.iter().map(|e| e.stored_bytes).sum();
        assert!(
            retained_bytes as usize <= 1024,
            "busy core must be confined to its 1/C slice, kept {retained_bytes}"
        );
        assert_eq!(out.last().unwrap().stamp, 999);
    }

    #[test]
    fn invalid_core_drops() {
        let t = PerCoreOverwrite::new(1, 1024);
        assert_eq!(t.record(5, 0, 0, b"x"), RecordOutcome::Dropped);
    }

    #[test]
    fn is_not_preemptible() {
        let t = PerCoreOverwrite::new(1, 1024);
        assert!(!t.preemptible_writes());
        assert_eq!(t.name(), "ftrace");
        assert_eq!(t.capacity_bytes(), 1024);
    }

    #[test]
    fn concurrent_cores_do_not_interfere() {
        let t = PerCoreOverwrite::new(4, 64 * 1024);
        let handles: Vec<_> = (0..4)
            .map(|c| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        t.record(c, c as u32, c as u64 * 1000 + i, b"payload");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let out = t.drain();
        assert_eq!(out.len(), 2000);
    }
}
