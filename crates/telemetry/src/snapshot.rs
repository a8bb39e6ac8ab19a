//! Health snapshots: the unit of export.
//!
//! A [`HealthSnapshot`] is everything the tracer can say about itself at
//! one instant: cumulative mechanism counters (records, advances, closes,
//! skips — the events of §3.2–§3.4 of the paper), buffer gauges, per-core
//! breakdowns, latency summaries from the histograms, and the observed
//! effectivity ratio side by side with the paper's `1 − A/N` bound.
//! Snapshots serialize to single-line JSON (for JSONL streams) and to
//! Prometheus text exposition format, and parse back losslessly. Each
//! record here has one field table ([`Record`]); both formats and the
//! strict decoder are walks over those tables.

use crate::fields::{self, families, labelled, DecodeError, Prom};
use crate::Stats;

record! {
    /// Condensed latency distribution (nanoseconds), produced by
    /// [`crate::HistogramSnapshot::summary`].
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct LatencySummary {
        /// Number of timed samples (for sampled paths this is less than the
        /// operation count).
        pub count: u64,
        /// Mean latency in nanoseconds.
        pub mean_ns: f64,
        /// 50th-percentile latency (ns, bucket upper bound).
        pub p50: u64,
        /// 90th-percentile latency (ns).
        pub p90: u64,
        /// 99th-percentile latency (ns).
        pub p99: u64,
        /// 99.9th-percentile latency (ns).
        pub p999: u64,
        /// Maximum observed latency (ns, bucket upper bound).
        pub max: u64,
    }
}

record! {
    /// Per-core slice of the health report.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct CoreHealth {
        /// Core (shard) index.
        pub core: usize,
        /// Entries recorded from this core.
        pub records: u64 = Prom::Counter("core_records_total", "Entries recorded per core."),
        /// Payload bytes recorded from this core.
        pub recorded_bytes: u64,
    }
}

record! {
    /// Per-stage gauges of a streaming drain pipeline (`drain → batch →
    /// encode → sink`), attached to snapshots while a stream session runs.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct StageHealth {
        /// Stage name (`drain`, `batch`, `encode`, `sink`).
        pub stage: String,
        /// Items currently queued at the stage's inlet.
        pub depth: usize = Prom::Gauge("stream_stage_depth", "Items queued at the stage inlet."),
        /// Bound of the stage's inlet queue (0 for the unqueued first stage).
        pub capacity: usize,
        /// Items accepted by the stage so far.
        pub in_items: u64 = Prom::Counter("stream_stage_in_total", "Items accepted by the stage."),
        /// Items the stage has handed downstream.
        pub out_items: u64 = Prom::Counter("stream_stage_out_total", "Items handed downstream."),
        /// Items dropped at this stage by the backpressure policy.
        pub dropped: u64 =
            Prom::Counter("stream_stage_dropped_total", "Items dropped by backpressure."),
        /// Per-item stage processing latency (span-timed, ns).
        pub latency: LatencySummary = Prom::Summary(
            "stream_stage_latency_ns",
            "Per-item stage latency quantiles (span-timed, ns).",
        ),
        /// Time items spent waiting in the stage's inlet queue (ns).
        pub queue_wait: LatencySummary = Prom::Summary(
            "stream_stage_queue_wait_ns",
            "Inlet queue wait quantiles (span-timed, ns).",
        ),
    }
}

record! {
    /// Rate-windowed deltas between consecutive sampler snapshots. All zeros
    /// on a raw (non-sampler) snapshot or the first sample of a run.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct Rates {
        /// Width of the measurement window in seconds (0 when unavailable).
        pub window_secs: f64,
        /// Entries recorded per second over the window.
        pub records_per_sec: f64 =
            Prom::Gauge("records_per_sec", "Record rate over the sample window."),
        /// Payload bytes recorded per second over the window.
        pub bytes_per_sec: f64 = Prom::Gauge("bytes_per_sec", "Byte rate over the sample window."),
        /// Block advances (slow-path entries) per second over the window.
        pub advances_per_sec: f64,
        /// Block skips per second over the window.
        pub skips_per_sec: f64,
    }
}

record! {
    /// A point-in-time health report for one tracer instance.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct HealthSnapshot {
        /// Monotone sequence number assigned by the sampler (0 for raw
        /// snapshots).
        pub seq: u64,
        /// Wall-clock capture time, milliseconds since the Unix epoch (0 for
        /// raw snapshots).
        pub unix_ms: u64,
        /// Realized sampling gap in milliseconds: time elapsed between the
        /// previous sampler capture and this one (0 for raw snapshots and the
        /// first sample of a run). Condvar pacing can oversleep under host
        /// load, so this is the honest age of the *window* the snapshot
        /// covers — consumers acting on snapshots (the adaptive-sizing
        /// controller, `btrace watch`) compare it against the configured
        /// period to detect stale input instead of trusting the schedule.
        pub age_ms: u64,
        /// Producer cores / counter shards.
        pub cores: usize,
        /// Total data blocks `N`.
        pub capacity_blocks: usize = Prom::Gauge("capacity_blocks", "Total data blocks N."),
        /// Active metadata blocks `A`.
        pub active_blocks: usize = Prom::Gauge("active_blocks", "Active metadata blocks A."),
        /// Bytes per data block.
        pub block_bytes: usize,
        /// Total buffer capacity in bytes.
        pub capacity_bytes: usize = Prom::Gauge("capacity_bytes", "Buffer capacity in bytes."),
        /// High-water mark of physically committed buffer bytes.
        pub committed_bytes: u64 = Prom::Gauge("committed_bytes", "Committed buffer bytes."),
        /// Active metadata rounds whose block is not yet full.
        pub open_blocks: usize = Prom::Gauge("open_blocks", "Active rounds not yet full."),
        /// Mean confirmed fraction of the active metadata rounds, `[0, 1]`.
        pub mean_occupancy: f64 =
            Prom::Gauge("mean_occupancy", "Mean confirmed fraction of active rounds."),
        /// The tracer's cumulative counters, written inline: their JSON keys
        /// sit at the top level of the snapshot object.
        pub stats: Stats = Prom::Flat(families::<Stats>),
        /// Current `TracerState` degradation bitset (see [`degraded`](crate::degraded)).
        pub degraded_bits: u64 =
            Prom::Bits("degraded_bits", "TracerState degradation bitset (0 = healthy)."),
        /// Exporter I/O retries performed (filled by the sampler).
        pub export_retries: u64 = Prom::Counter("export_retries_total", "Exporter I/O retries."),
        /// Snapshots dropped after exhausting exporter retries (sampler).
        pub export_drops: u64 =
            Prom::Counter("export_drops_total", "Snapshots dropped after exporter retries."),
        /// Observed effectivity: recorded bytes over recorded + dummy bytes.
        pub effectivity_observed: f64 =
            Prom::Gauge("effectivity_observed", "Observed effectivity ratio."),
        /// The paper's effectivity bound `1 − A/N`.
        pub effectivity_bound: f64 = Prom::Gauge("effectivity_bound", "Paper bound 1 - A/N."),
        /// Skips per advance (how often the slow path found a stuck block).
        pub skip_rate: f64 = Prom::Gauge("skip_rate", "Skips per advance."),
        /// Per-core record counts and bytes.
        pub per_core: Vec<CoreHealth> = Prom::List(labelled::<CoreHealth>),
        /// Fast-path record latency (sampled).
        pub record_latency: LatencySummary =
            Prom::Summary("record_latency_ns", "record latency quantiles (sampled, ns)."),
        /// Slow-path advance/close/skip latency.
        pub advance_latency: LatencySummary =
            Prom::Summary("advance_latency_ns", "advance latency quantiles (sampled, ns)."),
        /// Consumer drain latency.
        pub drain_latency: LatencySummary =
            Prom::Summary("drain_latency_ns", "drain latency quantiles (sampled, ns)."),
        /// Rate-windowed deltas (filled by the sampler).
        pub rates: Rates = Prom::Inline(families::<Rates>),
        /// Streaming pipeline stage gauges (empty when no stream session is
        /// attached).
        pub stream_stages: Vec<StageHealth> = Prom::List(labelled::<StageHealth>),
    }
}

impl HealthSnapshot {
    /// Serializes to a single-line JSON object (one JSONL record).
    pub fn to_json(&self) -> String {
        fields::to_json(self).render()
    }

    /// Parses a snapshot previously produced by
    /// [`to_json`](HealthSnapshot::to_json). Every field must be present
    /// with its type; the error names the first field that is not.
    pub fn from_json(text: &str) -> Result<HealthSnapshot, DecodeError> {
        fields::decode(text)
    }

    /// Renders the snapshot in Prometheus text exposition format
    /// (metric families with `# HELP`/`# TYPE` headers, suitable for a
    /// node-exporter textfile collector or a `/metrics` endpoint).
    pub fn to_prometheus(&self) -> String {
        fields::to_prometheus(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degraded;

    fn sample() -> HealthSnapshot {
        HealthSnapshot {
            seq: 7,
            unix_ms: 1_754_000_000_123,
            age_ms: 1007,
            cores: 2,
            capacity_blocks: 3072,
            active_blocks: 192,
            block_bytes: 4096,
            capacity_bytes: 12 << 20,
            committed_bytes: 1 << 20,
            open_blocks: 150,
            mean_occupancy: 0.42,
            stats: Stats {
                records: (1 << 53) + 17, // exercise > f64-exact integers
                recorded_bytes: 999,
                dummy_bytes: 1,
                advances: 10,
                closes: 9,
                skips: 1,
                straggler_repairs: 0,
                resizes: 2,
                commit_failures: 5,
                resize_fallbacks: 1,
                lock_recoveries: 1,
            },
            degraded_bits: degraded::COMMIT_FAILED | degraded::RECLAIM_DEFERRED,
            export_retries: 3,
            export_drops: 1,
            effectivity_observed: 0.999,
            effectivity_bound: 0.9375,
            skip_rate: 0.1,
            per_core: vec![
                CoreHealth { core: 0, records: 600, recorded_bytes: 500 },
                CoreHealth { core: 1, records: 400, recorded_bytes: 499 },
            ],
            record_latency: LatencySummary {
                count: 100,
                mean_ns: 12.5,
                p50: 11,
                p90: 15,
                p99: 31,
                p999: 63,
                max: 95,
            },
            advance_latency: LatencySummary::default(),
            drain_latency: LatencySummary::default(),
            rates: Rates {
                window_secs: 1.0,
                records_per_sec: 1000.0,
                bytes_per_sec: 999.0,
                advances_per_sec: 10.0,
                skips_per_sec: 1.0,
            },
            stream_stages: vec![
                StageHealth {
                    stage: "drain".into(),
                    depth: 0,
                    capacity: 0,
                    in_items: 5000,
                    out_items: 5000,
                    dropped: 0,
                    ..StageHealth::default()
                },
                StageHealth {
                    stage: "sink".into(),
                    depth: 3,
                    capacity: 8,
                    in_items: 41,
                    out_items: 38,
                    dropped: 2,
                    latency: LatencySummary {
                        count: 41,
                        mean_ns: 820.0,
                        p50: 700,
                        p90: 1200,
                        p99: 2100,
                        p999: 2500,
                        max: 2600,
                    },
                    queue_wait: LatencySummary {
                        count: 41,
                        mean_ns: 90.0,
                        p50: 80,
                        p90: 150,
                        p99: 240,
                        p999: 300,
                        max: 310,
                    },
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let snap = sample();
        let line = snap.to_json();
        assert!(!line.contains('\n'), "JSONL records must be single-line");
        let parsed = HealthSnapshot::from_json(&line).unwrap();
        assert_eq!(parsed, snap);
    }

    /// The exact bytes of both export formats, pinned against golden files
    /// so that no refactor of the serialisers can move a byte unnoticed.
    #[test]
    fn wire_format_is_pinned() {
        let snap = sample();
        assert_eq!(format!("{}\n", snap.to_json()), include_str!("../testdata/sample.json"));
        assert_eq!(snap.to_prometheus(), include_str!("../testdata/sample.prom"));
    }

    #[test]
    fn default_round_trips_too() {
        let snap = HealthSnapshot::default();
        assert_eq!(HealthSnapshot::from_json(&snap.to_json()).unwrap(), snap);
    }

    #[test]
    fn decode_errors_name_the_field() {
        let line = sample().to_json();
        let mistyped = line.replace("\"skips\":1,", "\"skips\":\"x\",");
        let err = HealthSnapshot::from_json(&mistyped).unwrap_err();
        assert_eq!(err, DecodeError::Mistyped("skips".into()));
        assert!(err.to_string().contains("skips"), "{err}");

        let key_at = line.find(",\"rates\"").unwrap();
        let stages_at = line.find(",\"stream_stages\"").unwrap();
        let missing = format!("{}{}", &line[..key_at], &line[stages_at..]);
        let err = HealthSnapshot::from_json(&missing).unwrap_err();
        assert_eq!(err.field(), Some("rates"));
        assert!(err.to_string().contains("rates"), "{err}");

        let nested = line.replace("\"in_items\":41", "\"in_items\":-1");
        let err = HealthSnapshot::from_json(&nested).unwrap_err();
        assert_eq!(err.field(), Some("stream_stages[1].in_items"));
        assert_eq!(HealthSnapshot::from_json("{").unwrap_err().field(), None);
    }

    #[test]
    fn rejects_truncated_input() {
        let line = sample().to_json();
        assert!(HealthSnapshot::from_json(&line[..line.len() / 2]).is_err());
        assert!(HealthSnapshot::from_json("{}").is_err());
    }

    #[test]
    fn prometheus_output_has_expected_families() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE btrace_records_total counter"));
        assert!(text.contains(&format!("btrace_records_total {}", (1u64 << 53) + 17)));
        assert!(text.contains("btrace_core_records_total{core=\"1\"} 400"));
        assert!(text.contains("btrace_record_latency_ns{quantile=\"0.99\"} 31"));
        assert!(text.contains("btrace_effectivity_bound 0.9375"));
        assert!(text.contains("# TYPE btrace_commit_failures_total counter"));
        assert!(text.contains("btrace_commit_failures_total 5"));
        assert!(text.contains("btrace_stream_stage_depth{stage=\"sink\"} 3"));
        assert!(text.contains("btrace_stream_stage_dropped_total{stage=\"sink\"} 2"));
        assert!(
            text.contains("btrace_stream_stage_latency_ns{stage=\"sink\",quantile=\"0.99\"} 2100")
        );
        assert!(
            text.contains("btrace_stream_stage_queue_wait_ns{stage=\"sink\",quantile=\"0.5\"} 80")
        );
        assert!(text.contains("btrace_stream_stage_latency_ns_count{stage=\"sink\"} 41"));
        assert!(text.contains("btrace_degraded_bits 3"));
        assert!(text.contains("btrace_degraded{bit=\"commit_failed\",sticky=\"true\"} 1"));
        assert!(text.contains("btrace_degraded{bit=\"lock_recovered\",sticky=\"true\"} 0"));
        assert!(text.contains("btrace_export_drops_total 1"));
        // Every line is either a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(line.starts_with('#') || line.contains(' '), "bad line: {line}");
        }
    }
}
