//! VTrace-like baseline: one overwrite-mode ring per *thread*.
//!
//! VampirTrace gives each traced thread its own buffer, which removes all
//! contention but shatters the memory budget: with a fixed total and `T`
//! threads, each thread only ever sees `1/T` of it (Table 1), and
//! short-lived threads leave their slices almost empty — the paper measures
//! a 0.3 MB average latest fragment out of a 12 MB budget (§5.2).

use crate::ring::{drain_rings, lock, OverwriteRing};
use btrace_core::event::EventView;
use btrace_core::sink::{Begin, SinkGrant, TraceSink};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Per-thread overwrite-mode rings, modelled on VampirTrace.
///
/// The total budget is divided by the `expected_threads` the workload is
/// known to spawn; rings are created lazily on a thread's first record.
///
/// # Examples
///
/// ```rust
/// use btrace_baselines::PerThread;
/// use btrace_core::sink::TraceSink;
///
/// let tracer = PerThread::new(1 << 20, 16);
/// tracer.record(0, /*tid*/ 42, 1, b"enter foo()");
/// assert_eq!(tracer.drain().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PerThread {
    rings: Arc<RwLock<HashMap<u32, Arc<Mutex<OverwriteRing>>>>>,
    per_thread_bytes: usize,
    total_bytes: usize,
}

impl PerThread {
    /// Splits `total_bytes` across `expected_threads` rings.
    ///
    /// # Panics
    ///
    /// Panics when `expected_threads` is zero.
    pub fn new(total_bytes: usize, expected_threads: usize) -> Self {
        assert!(expected_threads > 0, "at least one thread expected");
        Self {
            rings: Arc::new(RwLock::new(HashMap::new())),
            per_thread_bytes: (total_bytes / expected_threads).max(64),
            total_bytes,
        }
    }

    fn ring_for(&self, tid: u32) -> Arc<Mutex<OverwriteRing>> {
        if let Some(ring) = self.rings.read().unwrap_or_else(PoisonError::into_inner).get(&tid) {
            return Arc::clone(ring);
        }
        let mut map = self.rings.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            map.entry(tid)
                .or_insert_with(|| Arc::new(Mutex::new(OverwriteRing::new(self.per_thread_bytes)))),
        )
    }

    /// Number of rings created so far (distinct recording threads).
    pub fn threads_seen(&self) -> usize {
        self.rings.read().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Capacity each thread's ring received.
    pub fn per_thread_bytes(&self) -> usize {
        self.per_thread_bytes
    }
}

/// A reservation against one thread's private ring.
#[derive(Debug)]
pub struct PerThreadGrant {
    ring: Arc<Mutex<OverwriteRing>>,
    core: u16,
}

impl SinkGrant for PerThreadGrant {
    fn commit(self, stamp: u64, tid: u32, payload: &[u8]) {
        lock(&self.ring).write(stamp, tid, self.core, payload);
    }
}

impl TraceSink for PerThread {
    type Grant = PerThreadGrant;

    fn name(&self) -> &'static str {
        "VTrace"
    }

    fn try_begin(&self, core: usize, tid: u32, payload_len: usize) -> Begin<PerThreadGrant> {
        let ring = self.ring_for(tid);
        if !lock(&ring).fits(payload_len) {
            return Begin::Dropped;
        }
        Begin::Granted(PerThreadGrant { ring, core: core as u16 })
    }

    fn record(
        &self,
        core: usize,
        tid: u32,
        stamp: u64,
        payload: &[u8],
    ) -> btrace_core::sink::RecordOutcome {
        use btrace_core::sink::RecordOutcome;
        let ring = self.ring_for(tid);
        let mut ring = lock(&ring);
        if !ring.fits(payload.len()) {
            return RecordOutcome::Dropped;
        }
        ring.write(stamp, tid, core as u16, payload);
        RecordOutcome::Recorded
    }

    fn visit(&self, f: &mut dyn FnMut(EventView<'_>)) {
        let events = drain_rings(
            self.rings.read().unwrap_or_else(PoisonError::into_inner).values().map(Arc::as_ref),
        );
        events.iter().for_each(|e| f(e.view()));
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
    fn threads_get_private_rings() {
        let t = PerThread::new(64 * 1024, 4);
        t.record(0, 1, 10, b"thread one");
        t.record(1, 2, 11, b"thread two");
        assert_eq!(t.threads_seen(), 2);
        let out = t.drain();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].tid, 1);
        assert_eq!(out[1].tid, 2);
    }

    #[test]
    fn thousands_of_threads_shatter_the_budget() {
        // The 1/T pathology: 512 expected threads over 64 KiB leaves each
        // ring 128 bytes — a handful of entries per thread.
        let t = PerThread::new(64 * 1024, 512);
        assert_eq!(t.per_thread_bytes(), 128);
        for i in 0..8192u64 {
            let tid = (i % 512) as u32;
            assert_eq!(t.record(0, tid, i, b"busy busy busy"), RecordOutcome::Recorded);
        }
        let out = t.drain();
        // Far fewer retained than written even though the total budget
        // (64 KiB / 32 B = 2048 entries) would have held a quarter of them
        // contiguously; each 128 B ring caps at 4 entries.
        assert!(out.len() <= 512 * 4, "retained {}", out.len());
    }

    #[test]
    fn oversized_entry_drops() {
        let t = PerThread::new(1024, 8); // 128 B per thread
        assert_eq!(t.record(0, 1, 0, &[0u8; 512]), RecordOutcome::Dropped);
    }

    #[test]
    fn concurrent_threads_record_safely() {
        let t = PerThread::new(256 * 1024, 8);
        let handles: Vec<_> = (0..8u32)
            .map(|tid| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        t.record(0, tid, tid as u64 * 1000 + i, b"concurrent");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.drain().len(), 1600);
        assert_eq!(t.threads_seen(), 8);
    }
}
