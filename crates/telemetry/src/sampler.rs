//! The background sampler: periodically snapshots a source, derives
//! rate-windowed deltas, and fans out to exporters.
//!
//! The sampler owns one OS thread. Shutdown is graceful and synchronous:
//! [`Sampler::stop`] (or drop) flags the thread through a condvar —
//! waking it immediately rather than waiting out the period — and joins
//! it, so tests can assert no thread leaks and processes exit promptly.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::snapshot::HealthSnapshot;

/// Anything that can report tracer health. `btrace-core` implements this
/// for `BTrace` behind its `telemetry` feature.
pub trait SnapshotSource: Send + Sync {
    /// Captures the current health state. Called from the sampler thread;
    /// must not block on producer progress.
    fn health_snapshot(&self) -> HealthSnapshot;
}

impl<S: SnapshotSource + ?Sized> SnapshotSource for Arc<S> {
    fn health_snapshot(&self) -> HealthSnapshot {
        (**self).health_snapshot()
    }
}

/// Cumulative I/O accounting for an [`Exporter`] that retries and drops on
/// sink errors (bounded retry-with-backoff, drop-and-count overflow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExportIoStats {
    /// Retries performed after a failed sink write.
    pub retries: u64,
    /// Snapshots dropped after exhausting the retry budget.
    pub drops: u64,
}

impl ExportIoStats {
    /// Element-wise sum, for aggregating across exporters.
    pub fn merge(self, other: ExportIoStats) -> ExportIoStats {
        ExportIoStats { retries: self.retries + other.retries, drops: self.drops + other.drops }
    }
}

/// A sink for sampled snapshots (JSONL file, Prometheus textfile, stdout
/// table, ...). Exporters run on the sampler thread, one snapshot at a
/// time, so implementations need no internal locking.
pub trait Exporter: Send {
    /// Consumes one snapshot. Errors are counted (see
    /// [`Sampler::export_errors`]) but do not stop the sampler.
    fn export(&mut self, snapshot: &HealthSnapshot) -> io::Result<()>;

    /// Flushes any buffered output; called once at shutdown.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Retry/drop accounting, when the exporter keeps any. The sampler sums
    /// these into each snapshot's `export_retries`/`export_drops` fields so
    /// sink trouble is visible in the exported stream itself.
    fn io_stats(&self) -> ExportIoStats {
        ExportIoStats::default()
    }
}

/// Sampler tuning.
#[derive(Debug, Clone, Copy)]
pub struct SamplerConfig {
    /// Interval between snapshots.
    pub period: Duration,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self { period: Duration::from_secs(1) }
    }
}

struct Shared {
    stop: Mutex<bool>,
    wake: Condvar,
    latest: Mutex<Option<HealthSnapshot>>,
    export_errors: AtomicU64,
}

/// Handle to a running sampler thread.
#[derive(Debug)]
pub struct Sampler {
    shared: Arc<Shared>,
    handle: Option<thread::JoinHandle<()>>,
}

impl core::fmt::Debug for Shared {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

impl Sampler {
    /// Starts the sampler thread. The first snapshot is taken immediately,
    /// then one per `config.period` until [`stop`](Sampler::stop).
    pub fn spawn<S: SnapshotSource + 'static>(
        source: S,
        mut exporters: Vec<Box<dyn Exporter>>,
        config: SamplerConfig,
    ) -> Sampler {
        let shared = Arc::new(Shared {
            stop: Mutex::new(false),
            wake: Condvar::new(),
            latest: Mutex::new(None),
            export_errors: AtomicU64::new(0),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = thread::Builder::new()
            .name("btrace-sampler".into())
            .spawn(move || {
                let mut seq = 0u64;
                let mut prev: Option<(Instant, HealthSnapshot)> = None;
                loop {
                    let now = Instant::now();
                    let mut snap = source.health_snapshot();
                    snap.seq = seq;
                    seq += 1;
                    snap.unix_ms = SystemTime::now()
                        .duration_since(UNIX_EPOCH)
                        .map(|d| d.as_millis() as u64)
                        .unwrap_or(0);
                    if let Some((prev_at, prev_snap)) = &prev {
                        let gap = now.duration_since(*prev_at);
                        // The realized gap, not the configured period: condvar
                        // pacing oversleeps under host load, and consumers
                        // (the controller, `btrace watch`) must see the honest
                        // width of the window this snapshot covers.
                        snap.age_ms = gap.as_millis() as u64;
                        fill_rates(&mut snap, prev_snap, gap);
                    }
                    // Sink trouble up to (but not including) this export is
                    // part of the health report being exported.
                    let io = exporters
                        .iter()
                        .map(|e| e.io_stats())
                        .fold(ExportIoStats::default(), ExportIoStats::merge);
                    snap.export_retries = io.retries;
                    snap.export_drops = io.drops;
                    for exporter in &mut exporters {
                        if exporter.export(&snap).is_err() {
                            thread_shared.export_errors.fetch_add(1, Relaxed);
                        }
                    }
                    *thread_shared.latest.lock().unwrap() = Some(snap.clone());
                    prev = Some((now, snap));

                    let stop = thread_shared.stop.lock().unwrap();
                    let (stop, _timeout) = thread_shared
                        .wake
                        .wait_timeout_while(stop, config.period, |s| !*s)
                        .unwrap();
                    if *stop {
                        break;
                    }
                }
                for exporter in &mut exporters {
                    let _ = exporter.flush();
                }
            })
            .expect("spawn btrace-sampler thread");
        Sampler { shared, handle: Some(handle) }
    }

    /// The most recent snapshot, if one has been taken yet.
    pub fn latest(&self) -> Option<HealthSnapshot> {
        self.shared.latest.lock().unwrap().clone()
    }

    /// Number of exporter calls that returned an error.
    pub fn export_errors(&self) -> u64 {
        self.shared.export_errors.load(Relaxed)
    }

    /// Stops the sampler and joins its thread. Idempotent; also runs on
    /// drop. When this returns, the thread has exited and exporters are
    /// flushed.
    pub fn stop(&mut self) {
        *self.shared.stop.lock().unwrap() = true;
        self.shared.wake.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }

    /// Whether the sampler thread is still running.
    pub fn is_running(&self) -> bool {
        self.handle.as_ref().is_some_and(|h| !h.is_finished())
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop();
    }
}

fn fill_rates(snap: &mut HealthSnapshot, prev: &HealthSnapshot, window: Duration) {
    let secs = window.as_secs_f64();
    if secs <= 0.0 {
        return;
    }
    let per_sec = |now: u64, before: u64| now.saturating_sub(before) as f64 / secs;
    snap.rates.window_secs = secs;
    snap.rates.records_per_sec = per_sec(snap.stats.records, prev.stats.records);
    snap.rates.bytes_per_sec = per_sec(snap.stats.recorded_bytes, prev.stats.recorded_bytes);
    snap.rates.advances_per_sec = per_sec(snap.stats.advances, prev.stats.advances);
    snap.rates.skips_per_sec = per_sec(snap.stats.skips, prev.stats.skips);
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeSource {
        records: AtomicU64,
    }

    impl SnapshotSource for FakeSource {
        fn health_snapshot(&self) -> HealthSnapshot {
            HealthSnapshot {
                stats: crate::Stats {
                    records: self.records.fetch_add(1000, Relaxed),
                    ..crate::Stats::default()
                },
                ..HealthSnapshot::default()
            }
        }
    }

    struct CountingExporter {
        exports: Arc<AtomicU64>,
        flushes: Arc<AtomicU64>,
    }

    impl Exporter for CountingExporter {
        fn export(&mut self, _snapshot: &HealthSnapshot) -> io::Result<()> {
            self.exports.fetch_add(1, Relaxed);
            Ok(())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes.fetch_add(1, Relaxed);
            Ok(())
        }
    }

    #[test]
    fn samples_export_and_stop_joins() {
        let exports = Arc::new(AtomicU64::new(0));
        let flushes = Arc::new(AtomicU64::new(0));
        let mut sampler = Sampler::spawn(
            Arc::new(FakeSource { records: AtomicU64::new(0) }),
            vec![Box::new(CountingExporter {
                exports: Arc::clone(&exports),
                flushes: Arc::clone(&flushes),
            })],
            SamplerConfig { period: Duration::from_millis(5) },
        );
        while exports.load(Relaxed) < 3 {
            thread::sleep(Duration::from_millis(2));
        }
        sampler.stop();
        assert!(!sampler.is_running());
        assert_eq!(flushes.load(Relaxed), 1, "flush runs exactly once at shutdown");
        let last = sampler.latest().expect("at least one snapshot");
        assert!(last.seq >= 2);
        // Rates are derived after the first sample: 1000 records per tick.
        assert!(last.rates.window_secs > 0.0);
        assert!(last.rates.records_per_sec > 0.0);
        // Age stamping: every non-first sample carries its realized gap,
        // which can never undercut the configured period.
        assert!(last.age_ms >= 5, "realized gap at least the period: {}", last.age_ms);
        assert_eq!(sampler.export_errors(), 0);
    }

    #[test]
    fn failing_exporter_is_counted_not_fatal() {
        struct Failing;
        impl Exporter for Failing {
            fn export(&mut self, _s: &HealthSnapshot) -> io::Result<()> {
                Err(io::Error::other("disk full"))
            }
        }
        let mut sampler = Sampler::spawn(
            Arc::new(FakeSource { records: AtomicU64::new(0) }),
            vec![Box::new(Failing)],
            SamplerConfig { period: Duration::from_millis(2) },
        );
        while sampler.export_errors() < 2 {
            thread::sleep(Duration::from_millis(2));
        }
        sampler.stop();
        assert!(sampler.latest().is_some(), "snapshots continue despite exporter errors");
    }

    #[test]
    fn drop_stops_promptly_even_with_long_period() {
        let sampler = Sampler::spawn(
            Arc::new(FakeSource { records: AtomicU64::new(0) }),
            Vec::new(),
            SamplerConfig { period: Duration::from_secs(3600) },
        );
        let started = Instant::now();
        drop(sampler); // must not wait out the hour
        assert!(started.elapsed() < Duration::from_secs(5));
    }
}
