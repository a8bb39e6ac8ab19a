//! File-backed telemetry exporters: JSONL streams and Prometheus
//! textfiles.
//!
//! These are the disk ends of the telemetry pipeline: a
//! [`btrace_telemetry::Sampler`] drives them with one
//! [`HealthSnapshot`] per period.
//!
//! * [`JsonlExporter`] appends one JSON object per line — the natural
//!   format for shipping health history off-device and replaying it in
//!   analysis (each line parses back via [`HealthSnapshot::from_json`]).
//! * [`PrometheusExporter`] rewrites a text-exposition-format file on
//!   every sample, atomically (write to `<path>.tmp`, then rename), the
//!   contract node-exporter's textfile collector expects.
//!
//! Both exporters tolerate a flaky sink (full disk, transient `EIO`) with
//! the same policy the tracer core applies to its backing: a bounded
//! [`RetryPolicy`] with exponential backoff, then *drop and count* — one
//! lost health sample must never wedge the sampler thread or the traced
//! application. Retries and drops are surfaced through
//! [`Exporter::io_stats`], so the sampler folds them into the next
//! snapshot's `export_retries` / `export_drops` fields.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use btrace_telemetry::{ExportIoStats, Exporter, HealthSnapshot};

/// Bounded retry-with-backoff schedule for sink I/O.
///
/// `attempts` is the *total* number of tries (first try included); the
/// delay before each re-try starts at `backoff` and doubles. With the
/// default `{ attempts: 3, backoff: 2ms }` a persistently failing sink
/// costs at most ~6 ms per sample before the sample is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total tries per operation, minimum 1.
    pub attempts: u32,
    /// Delay before the first re-try; doubles for each subsequent one.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { attempts: 3, backoff: Duration::from_millis(2) }
    }
}

impl RetryPolicy {
    /// Runs `op` under this policy, bumping `io.retries` for every re-try
    /// and `io.drops` once if the budget is exhausted (the final error is
    /// returned so callers can still log it).
    pub(crate) fn run(
        &self,
        io: &mut ExportIoStats,
        mut op: impl FnMut() -> io::Result<()>,
    ) -> io::Result<()> {
        let attempts = self.attempts.max(1);
        let mut backoff = self.backoff;
        let mut last = None;
        for attempt in 0..attempts {
            match op() {
                Ok(()) => return Ok(()),
                Err(e) => {
                    last = Some(e);
                    if attempt + 1 < attempts {
                        io.retries += 1;
                        std::thread::sleep(backoff);
                        backoff *= 2;
                    }
                }
            }
        }
        io.drops += 1;
        Err(last.expect("attempts >= 1"))
    }
}

/// Appends snapshots to a file as JSON Lines.
///
/// Each export retries the whole line under the configured
/// [`RetryPolicy`]. A crash or persistent failure *mid-line* can leave a
/// torn (then duplicated) line in the log; [`read_jsonl`] reports it as
/// `InvalidData` rather than guessing, since health logs are diagnostic
/// evidence.
#[derive(Debug)]
pub struct JsonlExporter {
    writer: BufWriter<File>,
    policy: RetryPolicy,
    io: ExportIoStats,
}

impl JsonlExporter {
    /// Opens `path` for appending, creating it if needed.
    ///
    /// # Errors
    ///
    /// Propagates the underlying open failure.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self {
            writer: BufWriter::new(file),
            policy: RetryPolicy::default(),
            io: ExportIoStats::default(),
        })
    }

    /// Replaces the default retry policy.
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }
}

impl Exporter for JsonlExporter {
    fn export(&mut self, snapshot: &HealthSnapshot) -> io::Result<()> {
        let mut line = snapshot.to_json().into_bytes();
        line.push(b'\n');
        let writer = &mut self.writer;
        // One flush per sample keeps the tail loss to at most the snapshot
        // being written when the process dies — these are health records,
        // not the trace itself, so write amplification is negligible.
        self.policy.run(&mut self.io, || {
            writer.write_all(&line)?;
            writer.flush()
        })
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    fn io_stats(&self) -> ExportIoStats {
        self.io
    }
}

/// Reads a JSONL health log back into snapshots (the inverse of
/// [`JsonlExporter`]); blank lines are skipped.
///
/// # Errors
///
/// I/O errors reading the file, or [`io::ErrorKind::InvalidData`] when a
/// line does not parse as a [`HealthSnapshot`].
pub fn read_jsonl(path: impl AsRef<Path>) -> io::Result<Vec<HealthSnapshot>> {
    let text = std::fs::read_to_string(path)?;
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            HealthSnapshot::from_json(line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
        })
        .collect()
}

/// Rewrites a Prometheus text-exposition file on every snapshot.
///
/// Retrying here is safe at any point: the whole write-then-rename pair is
/// idempotent, so a retry after a failed rename simply rewrites the same
/// bytes and scrapers only ever see whole files.
#[derive(Debug)]
pub struct PrometheusExporter {
    path: PathBuf,
    tmp: PathBuf,
    policy: RetryPolicy,
    io: ExportIoStats,
}

impl PrometheusExporter {
    /// Exports to `path` (conventionally `*.prom`). The parent directory
    /// must exist; the file itself is created on first export.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        Self {
            path,
            tmp: PathBuf::from(tmp),
            policy: RetryPolicy::default(),
            io: ExportIoStats::default(),
        }
    }

    /// Replaces the default retry policy.
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }
}

impl Exporter for PrometheusExporter {
    fn export(&mut self, snapshot: &HealthSnapshot) -> io::Result<()> {
        let text = snapshot.to_prometheus();
        let (tmp, path) = (&self.tmp, &self.path);
        self.policy.run(&mut self.io, || {
            // Write-then-rename so scrapers never observe a torn file.
            std::fs::write(tmp, &text)?;
            std::fs::rename(tmp, path)
        })
    }

    fn io_stats(&self) -> ExportIoStats {
        self.io
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrace_telemetry::{CoreHealth, Stats};

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("btrace-export-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn snapshot(seq: u64) -> HealthSnapshot {
        HealthSnapshot {
            seq,
            stats: Stats { records: 1000 * seq, ..Stats::default() },
            cores: 1,
            per_core: vec![CoreHealth { core: 0, records: 1000 * seq, recorded_bytes: 0 }],
            ..HealthSnapshot::default()
        }
    }

    #[test]
    fn jsonl_appends_and_reads_back() {
        let dir = scratch_dir("jsonl");
        let path = dir.join("health.jsonl");
        let mut exporter = JsonlExporter::create(&path).unwrap();
        for seq in 0..5 {
            exporter.export(&snapshot(seq)).unwrap();
        }
        drop(exporter);
        // Append mode: a reopened exporter extends the log.
        let mut exporter = JsonlExporter::create(&path).unwrap();
        exporter.export(&snapshot(5)).unwrap();
        drop(exporter);

        let restored = read_jsonl(&path).unwrap();
        assert_eq!(restored.len(), 6);
        for (seq, snap) in restored.iter().enumerate() {
            assert_eq!(*snap, snapshot(seq as u64));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn jsonl_reader_rejects_corruption() {
        let dir = scratch_dir("jsonl-bad");
        let path = dir.join("health.jsonl");
        std::fs::write(&path, format!("{}\nnot json\n", snapshot(0).to_json())).unwrap();
        assert_eq!(read_jsonl(&path).unwrap_err().kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prometheus_file_is_replaced_whole() {
        let dir = scratch_dir("prom");
        let path = dir.join("btrace.prom");
        let mut exporter = PrometheusExporter::new(&path);
        exporter.export(&snapshot(1)).unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        assert!(first.contains("btrace_records_total 1000"));
        exporter.export(&snapshot(2)).unwrap();
        let second = std::fs::read_to_string(&path).unwrap();
        assert!(second.contains("btrace_records_total 2000"));
        assert!(
            !second.contains("btrace_records_total 1000"),
            "file must be replaced, not appended"
        );
        assert!(!path.with_extension("prom.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retry_policy_counts_retries_and_drops() {
        let policy = RetryPolicy { attempts: 3, backoff: Duration::from_micros(10) };
        let mut io = ExportIoStats::default();

        // Persistent failure: all attempts burned, one drop.
        let mut calls = 0;
        let err = policy
            .run(&mut io, || {
                calls += 1;
                Err(io::Error::other("sink down"))
            })
            .unwrap_err();
        assert_eq!(err.to_string(), "sink down");
        assert_eq!(calls, 3, "attempts is the total try count");
        assert_eq!(io, ExportIoStats { retries: 2, drops: 1 });

        // Transient failure: one retry heals it, nothing dropped.
        let mut calls = 0;
        policy
            .run(&mut io, || {
                calls += 1;
                if calls < 2 {
                    Err(io::Error::other("blip"))
                } else {
                    Ok(())
                }
            })
            .unwrap();
        assert_eq!(io, ExportIoStats { retries: 3, drops: 1 });
    }

    #[test]
    fn prometheus_drops_are_counted_and_sink_recovery_is_clean() {
        let dir = scratch_dir("prom-retry");
        // The parent directory does not exist yet: every write fails.
        let path = dir.join("not-there").join("btrace.prom");
        let mut exporter = PrometheusExporter::new(&path)
            .with_retry(RetryPolicy { attempts: 2, backoff: Duration::from_micros(10) });
        assert!(exporter.export(&snapshot(1)).is_err());
        assert_eq!(exporter.io_stats(), ExportIoStats { retries: 1, drops: 1 });

        // The sink comes back; exports succeed and the counters stand still.
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        exporter.export(&snapshot(2)).unwrap();
        assert_eq!(exporter.io_stats(), ExportIoStats { retries: 1, drops: 1 });
        assert!(std::fs::read_to_string(&path).unwrap().contains("btrace_records_total 2000"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn jsonl_export_retries_are_observable() {
        let dir = scratch_dir("jsonl-retry");
        let path = dir.join("health.jsonl");
        let mut exporter = JsonlExporter::create(&path)
            .unwrap()
            .with_retry(RetryPolicy { attempts: 2, backoff: Duration::from_micros(10) });
        exporter.export(&snapshot(0)).unwrap();
        assert_eq!(exporter.io_stats(), ExportIoStats::default(), "healthy sink: no retries");
        std::fs::remove_dir_all(&dir).ok();
    }
}
