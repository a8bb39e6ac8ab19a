//! The adaptive-sizing controller: closes the paper's §4 resizing loop.
//!
//! Resizing has existed since the seed (in-production grow/shrink with
//! implicit reclamation), but nothing *drove* it — the right-sized-buffer
//! story stayed unrealized. This module consumes [`HealthSnapshot`]s
//! (occupancy, skip rate, observed effectivity vs the `1 − A/N` bound,
//! degradation bits) and drives `resize_bytes` to hold a target loss-rate
//! under a hard memory budget, following the budgeted-retention framing of
//! *Budgeted Dynamic Trace Structures* and *Tree Buffers*: spend a fixed
//! budget to retain the most *useful* history, not merely the most recent.
//!
//! The control law, in one paragraph: every tick the controller diffs the
//! newest snapshot against the last one it acted on and derives a
//! block-level loss rate (skipped blocks per closed-or-skipped block, in
//! ppm). Loss above target or occupancy above the grow band doubles the
//! buffer; zero loss with occupancy below the shrink band for a patience
//! streak shrinks it, with the shrink size ranked by a retention score
//! over the recent windows rather than raw recency. Every proposed size is
//! clamped to the budget (emitting [`EventKind::CtrlBudgetClamp`] when the
//! clamp bites), a cooldown separates consecutive resizes (hysteresis in
//! time as well as amplitude, so the controller never thrashes), and a
//! failed or fallen-back resize doubles the cooldown exponentially
//! ([`EventKind::CtrlBackoff`]) — a tracer whose backing store is
//! rejecting commits (PR-4 fault fallbacks) must be probed gently, not
//! hammered. Every decision lands in the [`FlightRecorder`] so `btrace
//! doctor` can attach controller actions to the loss windows they caused
//! or failed to prevent.
//!
//! [`Controller`] is the pure, deterministically testable law: feed it
//! snapshots, get [`Decision`]s. [`ControllerThread`] is the production
//! wrapper: one background thread that samples a [`SnapshotSource`],
//! stamps sequence and realized age (condvar pacing oversleeps under host
//! load — stale snapshots are skipped and counted, never silently acted
//! on), and applies decisions to a [`ResizeTarget`].

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::degraded;
use crate::recorder::{EventKind, FlightRecorder};
use crate::sampler::SnapshotSource;
use crate::snapshot::HealthSnapshot;

/// Something whose buffer the controller can resize. `btrace-core`
/// implements this for `BTrace` behind its `telemetry` feature.
pub trait ResizeTarget: Send + Sync {
    /// Current buffer capacity in bytes.
    fn current_bytes(&self) -> u64;
    /// Resize granularity in bytes (`block_bytes × active_blocks`); every
    /// target the controller proposes is a positive multiple of this.
    fn stride_bytes(&self) -> u64;
    /// The reserved ceiling in bytes; resizes above this are impossible.
    fn max_bytes(&self) -> u64;
    /// Performs the resize. An `Err` is treated as a resize failure and
    /// triggers exponential back-off.
    fn resize_bytes(&self, bytes: u64) -> Result<(), String>;
}

impl<T: ResizeTarget + ?Sized> ResizeTarget for Arc<T> {
    fn current_bytes(&self) -> u64 {
        (**self).current_bytes()
    }
    fn stride_bytes(&self) -> u64 {
        (**self).stride_bytes()
    }
    fn max_bytes(&self) -> u64 {
        (**self).max_bytes()
    }
    fn resize_bytes(&self, bytes: u64) -> Result<(), String> {
        (**self).resize_bytes(bytes)
    }
}

/// Controller tuning. The defaults hold a trace buffer steady under the
/// replay-model workloads; the CLI exposes the budget and loss target.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Hard memory budget in bytes: the controller never proposes a size
    /// above this, and shrinks toward it when the buffer already exceeds
    /// it (a lowered budget is honored, not grandfathered).
    pub budget_bytes: u64,
    /// Target block-level loss rate in parts per million. Loss above this
    /// grows the buffer.
    pub target_loss_ppm: u64,
    /// Grow band: occupancy at or above this proposes a grow even before
    /// loss materializes.
    pub grow_occupancy: f64,
    /// Shrink band: occupancy below this (with zero loss) accumulates
    /// patience toward a shrink. Keep well below `grow_occupancy` — the
    /// gap is the hysteresis that prevents thrash.
    pub shrink_occupancy: f64,
    /// Consecutive calm observations required before a shrink.
    pub shrink_patience: u32,
    /// Ticks to wait after any resize decision before the next one.
    pub cooldown_ticks: u32,
    /// Ceiling for the exponential back-off cooldown after failed
    /// resizes.
    pub max_backoff_ticks: u32,
    /// Snapshots whose realized age exceeds this are skipped and counted
    /// (stale input; see `HealthSnapshot::age_ms`).
    pub stale_after_ms: u64,
    /// Recent windows kept for the retention score.
    pub retention_windows: usize,
    /// When set, decisions are emitted and counted but never applied —
    /// `btrace tune`'s what-would-it-do mode.
    pub dry_run: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            budget_bytes: u64::MAX,
            target_loss_ppm: 10_000, // 1% of blocks
            grow_occupancy: 0.85,
            shrink_occupancy: 0.30,
            shrink_patience: 5,
            cooldown_ticks: 3,
            max_backoff_ticks: 64,
            stale_after_ms: 5_000,
            retention_windows: 16,
            dry_run: false,
        }
    }
}

/// Why an observation produced no resize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleReason {
    /// Loss within target and occupancy inside the hysteresis bands.
    Healthy,
    /// A recent resize decision's cooldown (or back-off) is still
    /// running.
    Cooldown,
    /// A grow was warranted but the budget clamp left no headroom.
    AtBudget,
    /// The buffer is calm but the shrink patience streak is still
    /// accumulating.
    AwaitingPatience,
}

/// Why an observation was skipped outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaleReason {
    /// The snapshot's sequence number did not advance past the last
    /// observation (the sampler has not produced new data).
    NoNewData,
    /// The snapshot's realized age exceeded `stale_after_ms` — the window
    /// it covers is too wide to act on.
    TooOld,
}

/// Direction of a proposed resize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeReason {
    /// Measured loss above the target.
    Loss,
    /// Occupancy at or above the grow band.
    Occupancy,
    /// Calm buffer: shrink ranked by the retention score.
    Retention,
    /// Capacity above the (possibly lowered) budget.
    Budget,
}

/// One controller decision, returned by [`Controller::observe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// No action this tick.
    Idle(IdleReason),
    /// The snapshot was skipped as stale and counted.
    Stale(StaleReason),
    /// Resize the buffer to `to` bytes (a stride multiple within budget).
    Resize {
        /// Proposed capacity in bytes.
        to: u64,
        /// Capacity in bytes at decision time.
        from: u64,
        /// What drove the proposal.
        reason: ResizeReason,
    },
}

/// Cumulative controller accounting, readable while it runs.
#[derive(Debug, Default)]
pub struct ControllerStats {
    /// Snapshots observed (including stale skips).
    pub ticks: AtomicU64,
    /// Snapshots skipped as stale.
    pub stale_skips: AtomicU64,
    /// Resize decisions applied successfully.
    pub resizes: AtomicU64,
    /// Resize failures (apply errors or observed fault fallbacks).
    pub failures: AtomicU64,
    /// Times the budget clamp reduced a proposal.
    pub budget_clamps: AtomicU64,
}

/// One observed sampling window, kept for the retention score.
#[derive(Debug, Clone, Copy, Default)]
struct WindowStat {
    /// Payload bytes the workload produced in the window.
    bytes: u64,
    /// Blocks lost (skipped) in the window.
    skips: u64,
}

/// The pure control law. Deterministic: identical snapshot sequences
/// produce identical decision sequences, which is what makes the seeded
/// load-storm scenarios replayable tests.
#[derive(Debug)]
pub struct Controller {
    cfg: ControllerConfig,
    recorder: Arc<FlightRecorder>,
    stats: Arc<ControllerStats>,
    last: Option<HealthSnapshot>,
    cooldown: u32,
    calm_streak: u32,
    consecutive_failures: u32,
    windows: Vec<WindowStat>,
}

impl Controller {
    /// Creates a controller emitting its decisions onto `recorder`'s
    /// control shard.
    pub fn new(cfg: ControllerConfig, recorder: Arc<FlightRecorder>) -> Self {
        Self {
            cfg,
            recorder,
            stats: Arc::new(ControllerStats::default()),
            last: None,
            cooldown: 0,
            calm_streak: 0,
            consecutive_failures: 0,
            windows: Vec::new(),
        }
    }

    /// Shared handle to the cumulative accounting.
    pub fn stats(&self) -> Arc<ControllerStats> {
        Arc::clone(&self.stats)
    }

    /// Rounds `bytes` down to a positive stride multiple.
    fn floor_to_stride(bytes: u64, stride: u64) -> u64 {
        (bytes / stride).max(1) * stride
    }

    /// Block-level loss rate over the window, in ppm: skipped blocks per
    /// closed-or-skipped block. Skips are §3.4's forced abandonment — the
    /// mechanism by which an undersized buffer actually loses history.
    fn window_loss_ppm(d_skips: u64, d_closes: u64) -> u64 {
        (d_skips * 1_000_000).checked_div(d_skips + d_closes).unwrap_or(0)
    }

    /// The retention score of running at `candidate` bytes, over the
    /// recent windows: how much of each window's produced history a
    /// buffer that size could have retained, weighted toward windows that
    /// produced more (dense activity is the history worth keeping — the
    /// Tree-Buffers framing — and a window that skipped is weighted up
    /// further, since it marks history we already failed to keep once).
    fn retention_score(&self, candidate: u64) -> f64 {
        let mut score = 0.0;
        for w in &self.windows {
            if w.bytes == 0 {
                continue;
            }
            let weight = w.bytes as f64 * (1.0 + w.skips as f64);
            let retained = (candidate as f64 / w.bytes as f64).min(1.0);
            score += weight * retained;
        }
        score
    }

    /// Picks the smallest shrink candidate (stride multiples between one
    /// stride and `from`) that still retains at least 95% of the score of
    /// staying at `from` — shrink as far as the recent history's
    /// usefulness allows, not as far as the current instant's emptiness
    /// suggests.
    fn shrink_target(&self, from: u64, stride: u64) -> u64 {
        let full = self.retention_score(from);
        if full == 0.0 {
            // No history observed yet: fall back to halving.
            return Self::floor_to_stride(from / 2, stride);
        }
        let mut candidate = from;
        let mut size = stride;
        while size < from {
            if self.retention_score(size) >= 0.95 * full {
                candidate = size;
                break;
            }
            size += stride;
        }
        candidate.min(Self::floor_to_stride(from / 2, stride).max(stride))
    }

    /// Emits one decision event on the recorder's control shard.
    fn emit(&self, kind: EventKind, source: u32, a: u64, b: u64) {
        self.recorder.emit(self.recorder.control_shard(), kind, source, a, b);
    }

    /// Consumes one snapshot and returns the controller's decision.
    /// `geometry` supplies the live stride/ceiling (the snapshot's
    /// capacity can lag a just-applied resize).
    pub fn observe(&mut self, snap: &HealthSnapshot, geometry: &dyn ResizeTarget) -> Decision {
        self.stats.ticks.fetch_add(1, Relaxed);

        // Staleness guard (the sampler stamps seq and realized age): act
        // only on fresh windows, count what was skipped.
        let stale = match &self.last {
            Some(prev) if snap.seq <= prev.seq => Some(StaleReason::NoNewData),
            _ if snap.age_ms > self.cfg.stale_after_ms => Some(StaleReason::TooOld),
            _ => None,
        };
        if let Some(reason) = stale {
            self.stats.stale_skips.fetch_add(1, Relaxed);
            self.emit(EventKind::CtrlObserve, 1, 0, (snap.mean_occupancy * 1000.0) as u64);
            return Decision::Stale(reason);
        }

        let (d_skips, d_closes, d_bytes, d_fallbacks, d_commit_failures) = match &self.last {
            Some(prev) => (
                snap.stats.skips.saturating_sub(prev.stats.skips),
                snap.stats.closes.saturating_sub(prev.stats.closes),
                snap.stats.recorded_bytes.saturating_sub(prev.stats.recorded_bytes),
                snap.stats.resize_fallbacks.saturating_sub(prev.stats.resize_fallbacks),
                snap.stats.commit_failures.saturating_sub(prev.stats.commit_failures),
            ),
            None => (0, 0, 0, 0, 0),
        };
        let first = self.last.is_none();
        self.last = Some(snap.clone());
        let loss_ppm = Self::window_loss_ppm(d_skips, d_closes);

        self.windows.push(WindowStat { bytes: d_bytes, skips: d_skips });
        let keep = self.cfg.retention_windows.max(1);
        if self.windows.len() > keep {
            let drop = self.windows.len() - keep;
            self.windows.drain(..drop);
        }

        self.emit(
            EventKind::CtrlObserve,
            0,
            loss_ppm,
            (snap.mean_occupancy.clamp(0.0, 1.0) * 1000.0) as u64,
        );
        if first {
            // The first snapshot has no window to diff; observe only.
            return Decision::Idle(IdleReason::Healthy);
        }

        // A resize that fell back to its old geometry (PR-4 fault path)
        // reports success to its caller but shows up in the fallback
        // counter and the degradation bits: back off before probing the
        // failing backing store again.
        if d_fallbacks > 0
            || (d_commit_failures > 0 && snap.degraded_bits & degraded::COMMIT_FAILED != 0)
        {
            self.register_failure();
        }

        if self.cooldown > 0 {
            self.cooldown -= 1;
            return Decision::Idle(IdleReason::Cooldown);
        }

        let stride = geometry.stride_bytes().max(1);
        let from = geometry.current_bytes();
        let ceiling =
            Self::floor_to_stride(self.cfg.budget_bytes.min(geometry.max_bytes()), stride);

        // Budget enforcement dominates: a buffer above a (lowered) budget
        // shrinks toward it regardless of load, ranked by retention like
        // any other shrink.
        if from > ceiling {
            let to = self.shrink_target(from, stride).min(ceiling);
            self.stats.budget_clamps.fetch_add(1, Relaxed);
            self.emit(EventKind::CtrlBudgetClamp, 0, from, to);
            return self.decide_resize(to, from, ResizeReason::Budget);
        }

        let growing =
            loss_ppm > self.cfg.target_loss_ppm || snap.mean_occupancy >= self.cfg.grow_occupancy;
        if growing {
            self.calm_streak = 0;
            // Double under pressure; when the observed effectivity is
            // below the paper's 1 − A/N bound the buffer is additionally
            // wasting bytes on dummy fill, so round one more stride up.
            let mut want = from.saturating_mul(2).max(from + stride);
            if snap.effectivity_observed > 0.0 && snap.effectivity_observed < snap.effectivity_bound
            {
                want = want.saturating_add(stride);
            }
            let to = want.min(ceiling);
            if to <= from {
                self.stats.budget_clamps.fetch_add(1, Relaxed);
                self.emit(EventKind::CtrlBudgetClamp, 0, want, from);
                return Decision::Idle(IdleReason::AtBudget);
            }
            if to < want {
                self.stats.budget_clamps.fetch_add(1, Relaxed);
                self.emit(EventKind::CtrlBudgetClamp, 0, want, to);
            }
            let reason = if loss_ppm > self.cfg.target_loss_ppm {
                ResizeReason::Loss
            } else {
                ResizeReason::Occupancy
            };
            return self.decide_resize(to, from, reason);
        }

        if loss_ppm == 0 && snap.mean_occupancy < self.cfg.shrink_occupancy {
            self.calm_streak += 1;
            if self.calm_streak < self.cfg.shrink_patience {
                return Decision::Idle(IdleReason::AwaitingPatience);
            }
            let to = self.shrink_target(from, stride);
            if to >= from {
                return Decision::Idle(IdleReason::Healthy);
            }
            self.calm_streak = 0;
            return self.decide_resize(to, from, ResizeReason::Retention);
        }

        self.calm_streak = 0;
        Decision::Idle(IdleReason::Healthy)
    }

    /// Emits the resize decision and starts its cooldown.
    fn decide_resize(&mut self, to: u64, from: u64, reason: ResizeReason) -> Decision {
        let source = if to >= from { 1 } else { 2 };
        self.emit(EventKind::CtrlResize, source, to, from);
        self.cooldown = self.cfg.cooldown_ticks;
        Decision::Resize { to, from, reason }
    }

    /// Books a resize failure: bumps the failure streak and replaces the
    /// cooldown with an exponentially backed-off one.
    fn register_failure(&mut self) {
        self.consecutive_failures += 1;
        self.stats.failures.fetch_add(1, Relaxed);
        let backoff = self
            .cfg
            .cooldown_ticks
            .max(1)
            .saturating_mul(1 << self.consecutive_failures.min(16))
            .min(self.cfg.max_backoff_ticks);
        self.cooldown = self.cooldown.max(backoff);
        self.emit(EventKind::CtrlBackoff, 0, backoff as u64, self.consecutive_failures as u64);
    }

    /// Applies a decision to `target`. Resize successes reset the failure
    /// streak; failures trigger exponential back-off. In dry-run mode the
    /// resize is counted but not performed.
    pub fn apply(&mut self, decision: &Decision, target: &dyn ResizeTarget) {
        let Decision::Resize { to, .. } = decision else { return };
        if self.cfg.dry_run {
            self.stats.resizes.fetch_add(1, Relaxed);
            return;
        }
        match target.resize_bytes(*to) {
            Ok(()) => {
                self.stats.resizes.fetch_add(1, Relaxed);
                self.consecutive_failures = 0;
            }
            Err(_) => self.register_failure(),
        }
    }
}

struct ThreadShared {
    stop: Mutex<bool>,
    wake: Condvar,
}

/// Handle to a running controller thread. Stops (and joins) on drop.
#[derive(Debug)]
pub struct ControllerThread {
    shared: Arc<ThreadShared>,
    stats: Arc<ControllerStats>,
    handle: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadShared").finish_non_exhaustive()
    }
}

impl ControllerThread {
    /// Starts the controller loop: every `period` it snapshots `target`,
    /// stamps sequence and realized age (its own pacing can oversleep —
    /// such windows are skipped as stale, not silently acted on), runs
    /// the control law, and applies the decision.
    pub fn spawn<T>(
        target: Arc<T>,
        recorder: Arc<FlightRecorder>,
        cfg: ControllerConfig,
        period: Duration,
    ) -> ControllerThread
    where
        T: SnapshotSource + ResizeTarget + 'static,
    {
        let mut controller = Controller::new(cfg, recorder);
        let stats = controller.stats();
        let shared = Arc::new(ThreadShared { stop: Mutex::new(false), wake: Condvar::new() });
        let thread_shared = Arc::clone(&shared);
        let handle = thread::Builder::new()
            .name("btrace-controller".into())
            .spawn(move || {
                let mut seq = 0u64;
                let mut prev_at: Option<Instant> = None;
                loop {
                    let now = Instant::now();
                    let mut snap = target.health_snapshot();
                    snap.seq = seq;
                    seq += 1;
                    if let Some(prev) = prev_at {
                        snap.age_ms = now.duration_since(prev).as_millis() as u64;
                    }
                    prev_at = Some(now);
                    let decision = controller.observe(&snap, &target);
                    controller.apply(&decision, &target);

                    let stop = thread_shared.stop.lock().unwrap();
                    let (stop, _) =
                        thread_shared.wake.wait_timeout_while(stop, period, |s| !*s).unwrap();
                    if *stop {
                        break;
                    }
                }
            })
            .expect("spawn btrace-controller thread");
        ControllerThread { shared, stats, handle: Some(handle) }
    }

    /// Cumulative controller accounting.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Stops the controller and joins its thread. Idempotent; also runs
    /// on drop.
    pub fn stop(&mut self) {
        *self.shared.stop.lock().unwrap() = true;
        self.shared.wake.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ControllerThread {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stats;

    /// A fake buffer: remembers its size, can be told to fail resizes.
    struct FakeTarget {
        bytes: AtomicU64,
        fail: std::sync::atomic::AtomicBool,
        resizes: AtomicU64,
    }

    impl FakeTarget {
        fn new(bytes: u64) -> Self {
            Self {
                bytes: AtomicU64::new(bytes),
                fail: std::sync::atomic::AtomicBool::new(false),
                resizes: AtomicU64::new(0),
            }
        }
    }

    impl ResizeTarget for FakeTarget {
        fn current_bytes(&self) -> u64 {
            self.bytes.load(Relaxed)
        }
        fn stride_bytes(&self) -> u64 {
            4096
        }
        fn max_bytes(&self) -> u64 {
            1 << 30
        }
        fn resize_bytes(&self, bytes: u64) -> Result<(), String> {
            if self.fail.load(Relaxed) {
                return Err("injected".into());
            }
            self.bytes.store(bytes, Relaxed);
            self.resizes.fetch_add(1, Relaxed);
            Ok(())
        }
    }

    /// Builds the snapshot at `seq` of a workload that skips `skips`
    /// blocks and closes `closes` blocks *per window* (counters are
    /// cumulative, so they scale with `seq`).
    fn snap(seq: u64, skips: u64, closes: u64, occupancy: f64) -> HealthSnapshot {
        HealthSnapshot {
            seq,
            age_ms: 10,
            stats: Stats {
                skips: seq * skips,
                closes: seq * closes,
                recorded_bytes: seq * closes * 4096,
                ..Stats::default()
            },
            mean_occupancy: occupancy,
            effectivity_observed: 1.0,
            effectivity_bound: 0.9,
            ..HealthSnapshot::default()
        }
    }

    fn controller(cfg: ControllerConfig) -> Controller {
        Controller::new(cfg, Arc::new(FlightRecorder::with_default_capacity(1)))
    }

    #[test]
    fn loss_above_target_grows_and_respects_budget() {
        let target = FakeTarget::new(8 * 4096);
        let mut c = controller(ControllerConfig {
            budget_bytes: 24 * 4096,
            target_loss_ppm: 1_000,
            cooldown_ticks: 0,
            ..ControllerConfig::default()
        });
        assert_eq!(c.observe(&snap(0, 0, 0, 0.5), &target), Decision::Idle(IdleReason::Healthy));
        // 50% of blocks skipped: way over a 1000 ppm target.
        let d = c.observe(&snap(1, 50, 50, 0.6), &target);
        let Decision::Resize { to, from, reason } = d else { panic!("expected grow, got {d:?}") };
        assert_eq!(from, 8 * 4096);
        assert_eq!(reason, ResizeReason::Loss);
        assert_eq!(to, 16 * 4096, "doubling within budget");
        c.apply(&d, &target);
        assert_eq!(target.current_bytes(), 16 * 4096);
        // Still losing: the next grow wants 32 strides but clamps to 24.
        let d = c.observe(&snap(2, 50, 50, 0.6), &target);
        let Decision::Resize { to, .. } = d else { panic!("expected clamped grow, got {d:?}") };
        assert_eq!(to, 24 * 4096, "budget clamp");
        c.apply(&d, &target);
        // At budget: growing further is impossible, decision says so.
        let d = c.observe(&snap(3, 50, 50, 0.6), &target);
        assert_eq!(d, Decision::Idle(IdleReason::AtBudget));
        assert!(c.stats().budget_clamps.load(Relaxed) >= 2);
    }

    #[test]
    fn cooldown_prevents_thrash() {
        let target = FakeTarget::new(8 * 4096);
        let mut c = controller(ControllerConfig {
            target_loss_ppm: 1_000,
            cooldown_ticks: 3,
            ..ControllerConfig::default()
        });
        c.observe(&snap(0, 0, 0, 0.5), &target);
        let d = c.observe(&snap(1, 50, 50, 0.6), &target);
        assert!(matches!(d, Decision::Resize { .. }));
        c.apply(&d, &target);
        // The next three losing windows sit out the cooldown.
        for s in 2..5 {
            assert_eq!(
                c.observe(&snap(s, 50, 50, 0.6), &target),
                Decision::Idle(IdleReason::Cooldown),
                "tick {s} must be inside the cooldown"
            );
        }
        assert!(matches!(c.observe(&snap(5, 50, 50, 0.6), &target), Decision::Resize { .. }));
    }

    #[test]
    fn calm_buffer_shrinks_after_patience_with_retention_ranking() {
        let target = FakeTarget::new(32 * 4096);
        let mut c = controller(ControllerConfig {
            target_loss_ppm: 1_000,
            cooldown_ticks: 0,
            shrink_patience: 3,
            ..ControllerConfig::default()
        });
        // Light steady load: ~2 blocks per window, occupancy low.
        let mut d = Decision::Idle(IdleReason::Healthy);
        for s in 0..8 {
            d = c.observe(&snap(s, 0, 2, 0.1), &target);
            if matches!(d, Decision::Resize { .. }) {
                break;
            }
        }
        let Decision::Resize { to, from, reason } = d else {
            panic!("calm buffer must shrink, got {d:?}")
        };
        assert_eq!(reason, ResizeReason::Retention);
        assert!(to < from);
        assert!(to >= 4096, "never below one stride");
        // The retention score keeps enough for the recent windows (2
        // blocks ≈ 8 KiB each): candidate covers the observed history.
        assert!(to >= 2 * 4096, "retention keeps the recent window: {to}");
    }

    #[test]
    fn failed_resizes_back_off_exponentially() {
        let target = FakeTarget::new(8 * 4096);
        target.fail.store(true, Relaxed);
        let mut c = controller(ControllerConfig {
            target_loss_ppm: 1_000,
            cooldown_ticks: 1,
            max_backoff_ticks: 64,
            ..ControllerConfig::default()
        });
        c.observe(&snap(0, 0, 0, 0.5), &target);
        let mut seq = 1;
        let mut gaps = Vec::new();
        for _ in 0..3 {
            // Drive losing windows until the next resize attempt.
            let mut gap = 0;
            loop {
                let d = c.observe(&snap(seq, 50, 50, 0.6), &target);
                seq += 1;
                match d {
                    Decision::Resize { .. } => {
                        c.apply(&d, &target);
                        break;
                    }
                    _ => gap += 1,
                }
                assert!(gap < 1000, "controller stopped attempting resizes");
            }
            gaps.push(gap);
        }
        assert!(
            gaps[2] > gaps[1] && gaps[1] > gaps[0],
            "back-off must lengthen after consecutive failures: {gaps:?}"
        );
        assert_eq!(target.resizes.load(Relaxed), 0);
        assert!(c.stats().failures.load(Relaxed) >= 3);
    }

    #[test]
    fn stale_snapshots_are_skipped_and_counted() {
        let target = FakeTarget::new(8 * 4096);
        let mut c = controller(ControllerConfig {
            stale_after_ms: 100,
            cooldown_ticks: 0,
            ..ControllerConfig::default()
        });
        c.observe(&snap(0, 0, 0, 0.5), &target);
        // Same sequence re-delivered: no new data.
        assert_eq!(
            c.observe(&snap(0, 50, 50, 0.6), &target),
            Decision::Stale(StaleReason::NoNewData)
        );
        // Fresh sequence but an overslept window: too old to act on.
        let mut old = snap(1, 50, 50, 0.6);
        old.age_ms = 5_000;
        assert_eq!(c.observe(&old, &target), Decision::Stale(StaleReason::TooOld));
        assert_eq!(c.stats().stale_skips.load(Relaxed), 2);
        // A fresh window still works afterwards.
        assert!(matches!(c.observe(&snap(2, 50, 50, 0.6), &target), Decision::Resize { .. }));
    }

    #[test]
    fn lowered_budget_shrinks_even_under_load() {
        let target = FakeTarget::new(32 * 4096);
        let mut c = controller(ControllerConfig {
            budget_bytes: 8 * 4096,
            cooldown_ticks: 0,
            ..ControllerConfig::default()
        });
        c.observe(&snap(0, 0, 0, 0.9), &target);
        let d = c.observe(&snap(1, 10, 90, 0.9), &target);
        let Decision::Resize { to, reason, .. } = d else {
            panic!("over-budget buffer must shrink, got {d:?}")
        };
        assert_eq!(reason, ResizeReason::Budget);
        assert!(to <= 8 * 4096, "shrink target within budget: {to}");
    }

    #[test]
    fn every_decision_lands_in_the_flight_recorder() {
        let recorder = Arc::new(FlightRecorder::with_default_capacity(1));
        let target = FakeTarget::new(8 * 4096);
        let mut c = Controller::new(
            ControllerConfig {
                budget_bytes: 16 * 4096,
                target_loss_ppm: 1_000,
                cooldown_ticks: 0,
                ..ControllerConfig::default()
            },
            Arc::clone(&recorder),
        );
        c.observe(&snap(0, 0, 0, 0.5), &target);
        let d = c.observe(&snap(1, 50, 50, 0.6), &target); // grow
        c.apply(&d, &target);
        let d = c.observe(&snap(2, 50, 50, 0.6), &target); // clamped at budget
        c.apply(&d, &target);
        c.observe(&snap(1, 0, 0, 0.5), &target); // stale
        let kinds: Vec<EventKind> = recorder.snapshot().events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::CtrlObserve));
        assert!(kinds.contains(&EventKind::CtrlResize));
        assert!(kinds.contains(&EventKind::CtrlBudgetClamp));
    }

    #[test]
    fn controller_thread_runs_and_stops_cleanly() {
        struct Source(FakeTarget, AtomicU64);
        impl SnapshotSource for Source {
            fn health_snapshot(&self) -> HealthSnapshot {
                let n = self.1.fetch_add(1, Relaxed);
                HealthSnapshot {
                    stats: Stats { skips: n * 10, closes: n * 10, ..Stats::default() },
                    mean_occupancy: 0.9,
                    ..HealthSnapshot::default()
                }
            }
        }
        impl ResizeTarget for Source {
            fn current_bytes(&self) -> u64 {
                self.0.current_bytes()
            }
            fn stride_bytes(&self) -> u64 {
                self.0.stride_bytes()
            }
            fn max_bytes(&self) -> u64 {
                self.0.max_bytes()
            }
            fn resize_bytes(&self, bytes: u64) -> Result<(), String> {
                self.0.resize_bytes(bytes)
            }
        }
        let source = Arc::new(Source(FakeTarget::new(8 * 4096), AtomicU64::new(0)));
        let recorder = Arc::new(FlightRecorder::with_default_capacity(1));
        let mut thread = ControllerThread::spawn(
            Arc::clone(&source),
            recorder,
            ControllerConfig {
                target_loss_ppm: 1_000,
                cooldown_ticks: 0,
                ..ControllerConfig::default()
            },
            Duration::from_millis(2),
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while source.0.resizes.load(Relaxed) == 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        thread.stop();
        assert!(source.0.resizes.load(Relaxed) > 0, "thread must apply at least one grow");
        assert!(thread.stats().ticks.load(Relaxed) > 0);
    }
}
