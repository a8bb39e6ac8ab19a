//! Loss forensics: correlating the flight-recorder timeline with health
//! counters and (optionally) a decoded dump into a causal diagnosis.
//!
//! The recorder gives *when* and *what order*; the snapshot gives
//! cumulative *how much*; the dump gives ground truth about what actually
//! survived. [`diagnose`] joins the three:
//!
//! 1. Loss **symptoms** (skip storms, pipeline sheds, export drops) are
//!    merged into time windows.
//! 2. Each window is annotated with its **cause chain** — the
//!    control-plane events (fault injections, resize retries and
//!    fallbacks, backpressure) that precede it within the
//!    lookback horizon, in causal order.
//! 3. Global findings grade overall health: sticky degradation bits,
//!    capacity shortfalls, dump-observed loss.

use btrace_telemetry::json::Json;
use btrace_telemetry::{degraded, EventKind, HealthSnapshot, RecordedEvent, STAGE_NAMES};

use crate::Metrics;

/// Loss symptoms closer together than this merge into one window.
const LOSS_MERGE_NS: u64 = 500_000_000;
/// How far back from a loss window causes are correlated.
const CAUSE_LOOKBACK_NS: u64 = 2_000_000_000;
/// Fault injections closer together than this form one episode.
const FAULT_CLUSTER_NS: u64 = 250_000_000;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Context, not a problem.
    Info,
    /// Degraded but self-limiting.
    Warning,
    /// Data was lost or capacity is permanently below target.
    Critical,
}

impl Severity {
    fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// One diagnostic statement with its supporting evidence lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// How bad it is.
    pub severity: Severity,
    /// One-line statement.
    pub title: String,
    /// Supporting detail, one line each.
    pub evidence: Vec<String>,
}

/// A time window in which the system demonstrably lost data, with the
/// control-plane events that explain it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LossWindow {
    /// Window start (recorder ns).
    pub start_ns: u64,
    /// Window end (recorder ns).
    pub end_ns: u64,
    /// Items lost inside the window (block skips + shed batches +
    /// dropped frames — mixed units, a volume indicator not a count).
    pub lost_items: u64,
    /// What the loss looked like, in time order.
    pub symptoms: Vec<String>,
    /// Why it happened: preceding control-plane events in causal order.
    pub causes: Vec<String>,
}

impl LossWindow {
    /// `"loss window 2.103–2.290s: ~187 items lost"`.
    pub fn headline(&self) -> String {
        format!(
            "loss window {:.3}\u{2013}{:.3}s: ~{} items lost",
            secs(self.start_ns),
            secs(self.end_ns),
            self.lost_items
        )
    }

    /// The cause chain as one arrow-joined line, or a shrug.
    pub fn chain(&self) -> String {
        if self.causes.is_empty() {
            "no control-plane cause recorded in lookback horizon".to_string()
        } else {
            self.causes.join(" \u{2192} ")
        }
    }
}

/// The full diagnosis: global findings plus per-window forensics.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// Graded findings, most severe first.
    pub findings: Vec<Finding>,
    /// Loss windows in time order.
    pub loss_windows: Vec<LossWindow>,
    /// Recorder events examined.
    pub events_examined: usize,
    /// No loss windows and nothing above `Info`.
    pub healthy: bool,
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn stage_name(source: u32) -> &'static str {
    STAGE_NAMES.get(source as usize).copied().unwrap_or("?")
}

/// One clustered run of fault injections.
struct FaultEpisode {
    start_ns: u64,
    end_ns: u64,
    count: u64,
}

fn cluster_faults(events: &[RecordedEvent]) -> Vec<FaultEpisode> {
    let mut episodes: Vec<FaultEpisode> = Vec::new();
    for e in events.iter().filter(|e| e.kind == EventKind::FaultInjected) {
        match episodes.last_mut() {
            Some(ep) if e.t_ns.saturating_sub(ep.end_ns) <= FAULT_CLUSTER_NS => {
                ep.end_ns = e.t_ns;
                ep.count += 1;
            }
            _ => episodes.push(FaultEpisode { start_ns: e.t_ns, end_ns: e.t_ns, count: 1 }),
        }
    }
    episodes
}

/// A loss symptom extracted from one recorder event.
fn symptom(e: &RecordedEvent) -> Option<(u64, String)> {
    match e.kind {
        EventKind::SkipStorm => Some((
            e.a,
            format!(
                "skip storm on core {}: {} block skips in {:.1}ms",
                e.source,
                e.a,
                e.b as f64 / 1e6
            ),
        )),
        EventKind::StageDrop => {
            Some((e.b, format!("pipeline {} stage shed {} item(s)", stage_name(e.source), e.b)))
        }
        EventKind::ExportDrop => {
            Some((e.b, format!("export dropped {} frame(s) after retries (total {})", e.b, e.a)))
        }
        _ => None,
    }
}

/// A cause-chain entry extracted from one recorder event.
fn cause(e: &RecordedEvent) -> Option<String> {
    match e.kind {
        EventKind::FaultInjected => None, // reported as clustered episodes
        EventKind::ResizeRetry => Some(format!(
            "resize retry #{} (backoff {}\u{00b5}s) at {:.3}s",
            e.a,
            e.b,
            secs(e.t_ns)
        )),
        EventKind::ResizeFallback => Some(format!(
            "resize fallback: wanted {} blocks, kept {} at {:.3}s",
            e.a,
            e.b,
            secs(e.t_ns)
        )),
        EventKind::Backpressure => Some(format!(
            "{} stage backpressure {:.1}ms at {:.3}s",
            stage_name(e.source),
            e.b as f64 / 1e6,
            secs(e.t_ns)
        )),
        EventKind::StateSet => Some(format!(
            "degradation bit set: {} at {:.3}s",
            degraded::describe(e.a),
            secs(e.t_ns)
        )),
        // Controller actions: a resize, back-off, or budget clamp inside
        // the lookback horizon is part of the loss story — either the
        // adaptation that was still catching up, or the constraint that
        // stopped it from adapting at all.
        EventKind::CtrlResize => Some(format!(
            "controller {} buffer {} -> {} bytes at {:.3}s",
            if e.source == 2 { "shrank" } else { "grew" },
            e.b,
            e.a,
            secs(e.t_ns)
        )),
        EventKind::CtrlBackoff => Some(format!(
            "controller backed off resizing ({} tick cooldown after {} failure(s)) at {:.3}s",
            e.a,
            e.b,
            secs(e.t_ns)
        )),
        EventKind::CtrlBudgetClamp => Some(format!(
            "controller budget clamp: wanted {} bytes, held to {} at {:.3}s",
            e.a,
            e.b,
            secs(e.t_ns)
        )),
        _ => None,
    }
}

/// Correlates the recorder timeline with an optional health snapshot and
/// an optional decoded-dump analysis into a [`Diagnosis`].
///
/// `events` need not be pre-sorted; they are ordered by timestamp here.
pub fn diagnose(
    events: &[RecordedEvent],
    snapshot: Option<&HealthSnapshot>,
    dump: Option<&Metrics>,
) -> Diagnosis {
    let mut timeline: Vec<&RecordedEvent> = events.iter().collect();
    timeline.sort_by_key(|e| e.t_ns);

    let episodes = cluster_faults(events);

    // Phase 1: merge loss symptoms into windows.
    let mut windows: Vec<LossWindow> = Vec::new();
    for &e in &timeline {
        let Some((lost, label)) = symptom(e) else { continue };
        match windows.last_mut() {
            Some(w) if e.t_ns.saturating_sub(w.end_ns) <= LOSS_MERGE_NS => {
                w.end_ns = e.t_ns;
                w.lost_items += lost;
                w.symptoms.push(label);
            }
            _ => windows.push(LossWindow {
                start_ns: e.t_ns,
                end_ns: e.t_ns,
                lost_items: lost,
                symptoms: vec![label],
                causes: Vec::new(),
            }),
        }
    }

    // Phase 2: attach cause chains from the lookback horizon.
    for w in &mut windows {
        let horizon = w.start_ns.saturating_sub(CAUSE_LOOKBACK_NS);
        for ep in &episodes {
            if ep.end_ns >= horizon && ep.start_ns <= w.end_ns {
                w.causes.push(format!(
                    "{} injected commit fault(s) {:.3}\u{2013}{:.3}s",
                    ep.count,
                    secs(ep.start_ns),
                    secs(ep.end_ns)
                ));
            }
        }
        for &e in &timeline {
            if e.t_ns < horizon || e.t_ns > w.end_ns {
                continue;
            }
            if let Some(label) = cause(e) {
                w.causes.push(label);
            }
        }
        w.causes.dedup();
    }

    // Phase 3: global findings.
    let mut findings: Vec<Finding> = Vec::new();

    let total_faults: u64 = episodes.iter().map(|ep| ep.count).sum();
    if total_faults > 0 {
        findings.push(Finding {
            severity: Severity::Warning,
            title: format!(
                "{total_faults} commit fault(s) injected across {} episode(s)",
                episodes.len()
            ),
            evidence: episodes
                .iter()
                .map(|ep| {
                    format!(
                        "{} fault(s) {:.3}\u{2013}{:.3}s",
                        ep.count,
                        secs(ep.start_ns),
                        secs(ep.end_ns)
                    )
                })
                .collect(),
        });
    }

    for e in timeline.iter().filter(|e| e.kind == EventKind::ResizeFallback) {
        let retries = timeline
            .iter()
            .filter(|r| {
                r.kind == EventKind::ResizeRetry
                    && r.t_ns <= e.t_ns
                    && e.t_ns.saturating_sub(r.t_ns) <= CAUSE_LOOKBACK_NS
            })
            .count();
        findings.push(Finding {
            severity: Severity::Critical,
            title: format!(
                "resize fell back at {:.3}s: wanted {} blocks, kept {}",
                secs(e.t_ns),
                e.a,
                e.b
            ),
            evidence: vec![format!("{retries} retry attempt(s) in the preceding horizon")],
        });
    }

    if let Some(snap) = snapshot {
        let sticky: u64 = degraded::ALL
            .iter()
            .filter(|i| i.sticky && snap.degraded_bits & i.bit != 0)
            .map(|i| i.bit)
            .sum();
        if sticky != 0 {
            findings.push(Finding {
                severity: Severity::Critical,
                title: format!("sticky degradation bits set: {}", degraded::describe(sticky)),
                evidence: vec![format!(
                    "commit_failures={} resize_fallbacks={} lock_recoveries={}",
                    snap.stats.commit_failures,
                    snap.stats.resize_fallbacks,
                    snap.stats.lock_recoveries
                )],
            });
        } else if snap.degraded_bits != 0 {
            findings.push(Finding {
                severity: Severity::Warning,
                title: format!(
                    "self-healing degradation active: {}",
                    degraded::describe(snap.degraded_bits)
                ),
                evidence: Vec::new(),
            });
        }
        if snap.stats.skips > 0 {
            findings.push(Finding {
                severity: Severity::Warning,
                title: format!("{} block skip(s) recorded by the tracer", snap.stats.skips),
                evidence: vec![format!(
                    "skip rate {:.4}, mean occupancy {:.1}%",
                    snap.skip_rate,
                    snap.mean_occupancy * 100.0
                )],
            });
        }
    }

    if let Some(m) = dump {
        if m.loss_rate > 0.0 {
            findings.push(Finding {
                severity: Severity::Critical,
                title: format!(
                    "dump confirms loss: {:.2}% of the stamp range missing across {} fragment(s)",
                    m.loss_rate * 100.0,
                    m.fragments
                ),
                evidence: vec![format!(
                    "{} events retained, latest fragment {} bytes (effectivity {:.2})",
                    m.retained_events, m.latest_fragment_bytes, m.effectivity_ratio
                )],
            });
        } else {
            findings.push(Finding {
                severity: Severity::Info,
                title: format!("dump is gap-free: {} events, 1 fragment", m.retained_events),
                evidence: Vec::new(),
            });
        }
    }

    let healthy = windows.is_empty() && findings.iter().all(|f| f.severity == Severity::Info);
    if healthy {
        findings.push(Finding {
            severity: Severity::Info,
            title: "no loss events in the recorded window".to_string(),
            evidence: Vec::new(),
        });
    }
    findings.sort_by_key(|f| std::cmp::Reverse(f.severity));

    Diagnosis { findings, loss_windows: windows, events_examined: events.len(), healthy }
}

impl Diagnosis {
    /// The one-word status line: `healthy`, `degraded`, or `losing-data`.
    pub fn status(&self) -> &'static str {
        if !self.loss_windows.is_empty() {
            "losing-data"
        } else if self.healthy {
            "healthy"
        } else {
            "degraded"
        }
    }

    /// The human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "btrace doctor \u{2014} {} recorder event(s) examined\nstatus: {} ({} loss window(s), {} finding(s))\n",
            self.events_examined,
            self.status(),
            self.loss_windows.len(),
            self.findings.len()
        ));
        out.push_str("\nfindings:\n");
        for f in &self.findings {
            out.push_str(&format!("  [{}] {}\n", f.severity.label(), f.title));
            for line in &f.evidence {
                out.push_str(&format!("      {line}\n"));
            }
        }
        if !self.loss_windows.is_empty() {
            out.push_str("\nloss windows:\n");
            for w in &self.loss_windows {
                out.push_str(&format!("  {}\n", w.headline()));
                for s in &w.symptoms {
                    out.push_str(&format!("      symptom: {s}\n"));
                }
                out.push_str(&format!("      cause chain: {}\n", w.chain()));
            }
        }
        out
    }

    /// The machine-readable report (`btrace doctor --json`).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("status".into(), Json::Str(self.status().into())),
            ("events_examined".into(), Json::from_u64(self.events_examined as u64)),
            (
                "findings".into(),
                Json::Arr(
                    self.findings
                        .iter()
                        .map(|f| {
                            Json::Obj(vec![
                                ("severity".into(), Json::Str(f.severity.label().into())),
                                ("title".into(), Json::Str(f.title.clone())),
                                (
                                    "evidence".into(),
                                    Json::Arr(f.evidence.iter().cloned().map(Json::Str).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "loss_windows".into(),
                Json::Arr(
                    self.loss_windows
                        .iter()
                        .map(|w| {
                            Json::Obj(vec![
                                ("start_s".into(), Json::from_f64(secs(w.start_ns))),
                                ("end_s".into(), Json::from_f64(secs(w.end_ns))),
                                ("lost_items".into(), Json::from_u64(w.lost_items)),
                                (
                                    "symptoms".into(),
                                    Json::Arr(w.symptoms.iter().cloned().map(Json::Str).collect()),
                                ),
                                (
                                    "causes".into(),
                                    Json::Arr(w.causes.iter().cloned().map(Json::Str).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_ms: u64, kind: EventKind, source: u32, a: u64, b: u64) -> RecordedEvent {
        RecordedEvent { seq: 0, shard: 0, t_ns: t_ms * 1_000_000, kind, source, a, b }
    }

    /// The canned fault-storm timeline: faults → retries → fallback →
    /// skip storm. The golden shape of a degraded run.
    fn storm_timeline() -> Vec<RecordedEvent> {
        vec![
            ev(2000, EventKind::ResizeBegin, 0, 64, 128),
            ev(2081, EventKind::FaultInjected, 0, 1, 1),
            ev(2082, EventKind::ResizeRetry, 0, 1, 100),
            ev(2086, EventKind::FaultInjected, 0, 2, 2),
            ev(2087, EventKind::ResizeRetry, 0, 2, 200),
            ev(2090, EventKind::FaultInjected, 0, 3, 3),
            ev(2091, EventKind::ResizeRetry, 0, 3, 400),
            ev(2093, EventKind::FaultInjected, 0, 4, 4),
            ev(2095, EventKind::ResizeFallback, 0, 128, 64),
            ev(2095, EventKind::StateSet, 0, degraded::COMMIT_FAILED, degraded::COMMIT_FAILED),
            ev(2103, EventKind::SkipStorm, 1, 187, 10_000_000),
            ev(2290, EventKind::SkipStorm, 1, 201, 10_000_000),
        ]
    }

    #[test]
    fn golden_fault_storm_report() {
        let d = diagnose(&storm_timeline(), None, None);
        assert_eq!(d.status(), "losing-data");
        assert!(!d.healthy);
        assert_eq!(d.loss_windows.len(), 1, "storms 187ms apart merge: {d:?}");
        let w = &d.loss_windows[0];
        assert_eq!(w.lost_items, 388);
        assert_eq!((w.start_ns, w.end_ns), (2_103_000_000, 2_290_000_000));
        let chain = w.chain();
        assert!(chain.contains("4 injected commit fault(s)"), "chain: {chain}");
        assert!(chain.contains("resize fallback: wanted 128 blocks, kept 64"), "chain: {chain}");
        let report = d.render();
        assert!(report.contains("loss window 2.103\u{2013}2.290s: ~388 items lost"), "{report}");
        assert!(report.contains("[critical] resize fell back at 2.095s"), "{report}");
    }

    #[test]
    fn golden_report_json_shape() {
        let d = diagnose(&storm_timeline(), None, None);
        let json = d.to_json();
        let text = json.render();
        let parsed = Json::parse(&text).expect("doctor json parses back");
        assert_eq!(parsed.get("status").and_then(|s| s.as_str()), Some("losing-data"));
        let windows = parsed.get("loss_windows").and_then(|w| w.as_arr()).unwrap();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].get("lost_items").and_then(|l| l.as_u64()), Some(388));
        assert!(!windows[0].get("causes").and_then(|c| c.as_arr()).unwrap().is_empty());
    }

    #[test]
    fn controller_actions_join_the_cause_chain() {
        // A launch spike overwhelms an auto-sized buffer: the controller
        // observes loss, grows twice, hits the budget, and the remaining
        // loss window must name all three actions as part of its story.
        let events = vec![
            ev(1000, EventKind::CtrlObserve, 0, 42_000, 310),
            ev(1001, EventKind::CtrlResize, 1, 2_097_152, 1_048_576),
            ev(1400, EventKind::CtrlObserve, 0, 35_000, 940),
            ev(1401, EventKind::CtrlBudgetClamp, 0, 4_194_304, 3_145_728),
            ev(1402, EventKind::CtrlResize, 1, 3_145_728, 2_097_152),
            ev(1600, EventKind::CtrlBackoff, 0, 8, 2),
            ev(1700, EventKind::SkipStorm, 2, 64, 10_000_000),
        ];
        let d = diagnose(&events, None, None);
        assert_eq!(d.loss_windows.len(), 1);
        let chain = d.loss_windows[0].chain();
        assert!(
            chain.contains("controller grew buffer 1048576 -> 2097152 bytes"),
            "chain: {chain}"
        );
        assert!(
            chain.contains("controller budget clamp: wanted 4194304 bytes, held to 3145728"),
            "chain: {chain}"
        );
        assert!(
            chain.contains("controller backed off resizing (8 tick cooldown after 2 failure(s))"),
            "chain: {chain}"
        );
        // Observations are heartbeat, not cause: they stay out.
        assert!(!chain.contains("loss_ppm"), "chain: {chain}");
    }

    #[test]
    fn healthy_timeline_reports_healthy() {
        let events = vec![
            ev(100, EventKind::StageEnter, 0, 1, 0),
            ev(101, EventKind::StageExit, 0, 1, 900_000),
            ev(500, EventKind::ResizeBegin, 0, 64, 128),
            ev(505, EventKind::ResizeCommit, 0, 128, 5_000_000),
        ];
        let d = diagnose(&events, None, None);
        assert!(d.healthy);
        assert_eq!(d.status(), "healthy");
        assert!(d.loss_windows.is_empty());
        assert!(d.render().contains("no loss events"));
    }

    #[test]
    fn distant_storms_form_separate_windows() {
        let events = vec![
            ev(1000, EventKind::SkipStorm, 0, 20, 10_000_000),
            ev(5000, EventKind::SkipStorm, 0, 30, 10_000_000),
        ];
        let d = diagnose(&events, None, None);
        assert_eq!(d.loss_windows.len(), 2);
        assert_eq!(d.loss_windows[0].lost_items, 20);
        assert_eq!(d.loss_windows[1].lost_items, 30);
        assert!(d.loss_windows[0].chain().contains("no control-plane cause"));
    }

    #[test]
    fn snapshot_and_dump_evidence_are_graded() {
        let snap = HealthSnapshot {
            degraded_bits: degraded::COMMIT_FAILED,
            stats: btrace_telemetry::Stats { commit_failures: 4, skips: 12, ..Default::default() },
            ..HealthSnapshot::default()
        };
        let mut dump = Metrics::empty();
        dump.loss_rate = 0.25;
        dump.fragments = 7;
        dump.retained_events = 900;
        let d = diagnose(&[], Some(&snap), Some(&dump));
        assert_eq!(d.status(), "degraded");
        let titles: Vec<&str> = d.findings.iter().map(|f| f.title.as_str()).collect();
        assert!(titles.iter().any(|t| t.contains("sticky degradation bits")), "{titles:?}");
        assert!(titles.iter().any(|t| t.contains("dump confirms loss")), "{titles:?}");
        // Critical findings sort first.
        assert_eq!(d.findings[0].severity, Severity::Critical);
    }
}
