//! The collector daemon: dump-on-symptom with on-disk rotation (§2.1, §6).

use crate::dump::{write_snapshot, DumpError};
use crate::export::RetryPolicy;
use btrace_core::{BTrace, RingSnapshot};
use btrace_telemetry::ExportIoStats;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Collector behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectorConfig {
    /// Directory where dumps are written.
    pub directory: PathBuf,
    /// How many dumps to keep; the oldest is deleted when exceeded.
    pub keep: usize,
    /// File name prefix (`<prefix>-<seq>.btd`).
    pub prefix: String,
    /// Retry schedule for dump writes; after it is exhausted the trigger
    /// fails (and counts a drop) instead of blocking the anomaly path.
    pub retry: RetryPolicy,
}

impl CollectorConfig {
    /// A collector writing to `directory` keeping the 5 most recent dumps.
    pub fn new(directory: impl Into<PathBuf>) -> Self {
        Self {
            directory: directory.into(),
            keep: 5,
            prefix: "trace".to_string(),
            retry: RetryPolicy::default(),
        }
    }

    /// Sets how many dumps to retain.
    pub fn keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    /// Sets the file name prefix.
    pub fn prefix(mut self, prefix: impl Into<String>) -> Self {
        self.prefix = prefix.into();
        self
    }

    /// Sets the dump-write retry schedule.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// A dump-on-symptom collector bound to one tracer.
///
/// Call [`Collector::trigger`] whenever an anomaly detector fires (ANR
/// watchdog, frame-drop monitor, freeze daemon, §6); the current buffer
/// contents are snapshotted and persisted, and old dumps rotate out.
///
/// The type parameter is always [`BTrace`]: the collector reads the ring
/// through [`BTrace::consumer`].
#[derive(Debug)]
pub struct Collector<S> {
    sink: Arc<S>,
    config: CollectorConfig,
    seq: AtomicU64,
    io_retries: AtomicU64,
    io_drops: AtomicU64,
    /// The ring snapshot every trigger fills and writes from, kept so its
    /// buffer is reused from dump to dump.
    snapshot: Mutex<RingSnapshot>,
}

impl Collector<BTrace> {
    /// Creates the collector, ensuring the dump directory exists.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new(sink: Arc<BTrace>, config: CollectorConfig) -> Result<Self, DumpError> {
        std::fs::create_dir_all(&config.directory)?;
        Ok(Self {
            sink,
            config,
            seq: AtomicU64::new(0),
            io_retries: AtomicU64::new(0),
            io_drops: AtomicU64::new(0),
            snapshot: Mutex::new(RingSnapshot::new()),
        })
    }

    /// Snapshots the ring and persists a dump labelled `symptom`. Returns
    /// the dump's path.
    ///
    /// The ring is copied once, block by block, into the collector's
    /// reused [`RingSnapshot`] ([`btrace_core::Consumer::snapshot`]), and
    /// [`write_snapshot`] encodes the frames straight from it. The write
    /// runs under the configured [`RetryPolicy`]; the ring snapshot stays
    /// in memory until the write lands, and each retry re-encodes from it,
    /// so a transient sink error loses nothing. A persistent one gives up
    /// after the budget — that dump is lost (counted in
    /// [`io_stats`](Collector::io_stats)) but the anomaly path is never
    /// wedged. Concurrent triggers take turns on the snapshot.
    ///
    /// # Errors
    ///
    /// Propagates serialization and rotation I/O failures after retries are
    /// exhausted.
    pub fn trigger(&self, symptom: &str) -> Result<PathBuf, DumpError> {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        // Every trigger overwrites the whole snapshot, so one left behind
        // by a panicking trigger is as good as an empty one.
        let mut snapshot = self.snapshot.lock().unwrap_or_else(PoisonError::into_inner);
        self.sink.consumer().snapshot(&mut snapshot);
        let path = self.config.directory.join(format!("{}-{seq:06}.btd", self.config.prefix));
        let mut io = ExportIoStats::default();
        let wrote = self.config.retry.run(&mut io, || {
            write_snapshot(&path, symptom, &snapshot).map_err(|e| match e {
                DumpError::Io(io_err) => io_err,
                other => std::io::Error::other(other.to_string()),
            })
        });
        drop(snapshot);
        self.io_retries.fetch_add(io.retries, Ordering::Relaxed);
        self.io_drops.fetch_add(io.drops, Ordering::Relaxed);
        wrote?;
        self.rotate()?;
        Ok(path)
    }

    /// Cumulative retry/drop accounting for dump writes.
    pub fn io_stats(&self) -> ExportIoStats {
        ExportIoStats {
            retries: self.io_retries.load(Ordering::Relaxed),
            drops: self.io_drops.load(Ordering::Relaxed),
        }
    }

    /// Paths of the currently retained dumps, oldest first.
    pub fn dumps(&self) -> Vec<PathBuf> {
        let mut paths = list_dumps(&self.config.directory, &self.config.prefix);
        paths.sort();
        paths
    }

    fn rotate(&self) -> Result<(), DumpError> {
        let mut paths = self.dumps();
        while paths.len() > self.config.keep {
            let oldest = paths.remove(0);
            std::fs::remove_file(oldest)?;
        }
        Ok(())
    }
}

fn list_dumps(dir: &Path, prefix: &str) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|ext| ext == "btd")
                && p.file_stem().and_then(|s| s.to_str()).is_some_and(|s| s.starts_with(prefix))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceDump;
    use btrace_core::Config;

    fn tracer() -> Arc<BTrace> {
        Arc::new(
            BTrace::new(Config::new(1).active_blocks(8).block_bytes(512).buffer_bytes(512 * 16))
                .expect("valid configuration"),
        )
    }

    fn tmpdir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("btrace-collector-{name}-{}", std::process::id()))
    }

    #[test]
    fn trigger_captures_current_buffer() {
        let dir = tmpdir("capture");
        let sink = tracer();
        sink.producer(0).unwrap().record_with(1, 2, b"the symptom's context").unwrap();
        let collector = Collector::new(Arc::clone(&sink), CollectorConfig::new(&dir)).unwrap();
        let path = collector.trigger("frame-drop").unwrap();
        let dump = TraceDump::read_from(&path).unwrap();
        assert_eq!(dump.label(), "frame-drop");
        assert_eq!(dump.events().len(), 1);
        assert_eq!(dump.events()[0].payload, b"the symptom's context");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_keeps_newest() {
        let dir = tmpdir("rotate");
        let sink = tracer();
        let collector =
            Collector::new(Arc::clone(&sink), CollectorConfig::new(&dir).keep(3).prefix("anr"))
                .unwrap();
        for i in 0..7 {
            sink.producer(0).unwrap().record_with(i, 0, b"x").unwrap();
            collector.trigger(&format!("symptom-{i}")).unwrap();
        }
        let dumps = collector.dumps();
        assert_eq!(dumps.len(), 3);
        // The newest dumps survive.
        let labels: Vec<String> =
            dumps.iter().map(|p| TraceDump::read_from(p).unwrap().label().to_string()).collect();
        assert_eq!(labels, vec!["symptom-4", "symptom-5", "symptom-6"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_dump_write_is_dropped_and_counted() {
        let dir = tmpdir("retry");
        let sink = tracer();
        sink.producer(0).unwrap().record_with(1, 0, b"evidence").unwrap();
        let collector = Collector::new(
            Arc::clone(&sink),
            CollectorConfig::new(&dir).retry(crate::export::RetryPolicy {
                attempts: 2,
                backoff: std::time::Duration::from_micros(10),
            }),
        )
        .unwrap();
        // Yank the directory out from under the collector: writes fail.
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(collector.trigger("anr").is_err());
        assert_eq!(collector.io_stats(), ExportIoStats { retries: 1, drops: 1 });

        // The sink heals; triggering works again and counters stand still.
        std::fs::create_dir_all(&dir).unwrap();
        let path = collector.trigger("anr-again").unwrap();
        assert!(path.exists());
        assert_eq!(collector.io_stats(), ExportIoStats { retries: 1, drops: 1 });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_recording_during_trigger() {
        let dir = tmpdir("concurrent");
        let sink = tracer();
        let collector = Collector::new(Arc::clone(&sink), CollectorConfig::new(&dir)).unwrap();
        let producer = sink.producer(0).unwrap();
        let writer = std::thread::spawn(move || {
            for i in 0..2000u64 {
                producer.record_with(i, 0, b"background noise").unwrap();
            }
        });
        for _ in 0..5 {
            collector.trigger("mid-flight").unwrap();
        }
        writer.join().unwrap();
        assert!(!collector.dumps().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
