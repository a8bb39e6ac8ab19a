//! The tracer's diagnostic counters and degradation state: the one
//! definition that `btrace-core` fills, [`HealthSnapshot`] embeds and
//! every exporter writes through the field table.
//!
//! [`HealthSnapshot`]: crate::HealthSnapshot

use crate::fields::Prom;

record! {
    /// A point-in-time snapshot of the tracer's diagnostic counters: the
    /// mechanisms the paper ablates — closing, skipping, dummy filling and
    /// straggler repair — plus resize and failure accounting.
    ///
    /// Obtained from `BTrace::stats`. All counts are cumulative since
    /// construction.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Stats {
        /// Successfully recorded events.
        pub records: u64 = Prom::Counter("records_total", "Entries recorded."),
        /// Payload bytes recorded (on-buffer encoded size).
        pub recorded_bytes: u64 =
            Prom::Counter("recorded_bytes_total", "Payload bytes recorded."),
        /// Bytes spent on dummy filler (tail fills, closes, repairs).
        pub dummy_bytes: u64 = Prom::Counter("dummy_bytes_total", "Bytes lost to dummy entries."),
        /// Block advancements (slow-path executions).
        pub advances: u64 = Prom::Counter("advances_total", "Slow-path block advances."),
        /// Blocks closed while only partially filled (§3.2).
        pub closes: u64 = Prom::Counter("closes_total", "Blocks closed."),
        /// Blocks skipped to preserve availability (§3.4).
        pub skips: u64 = Prom::Counter("skips_total", "Blocks skipped."),
        /// Straggler allocations repaired after landing in a newer round.
        pub straggler_repairs: u64 =
            Prom::Counter("straggler_repairs_total", "Straggler repairs."),
        /// Completed resize operations.
        pub resizes: u64 = Prom::Counter("resizes_total", "Buffer resizes."),
        /// Backing commit/decommit attempts that failed (each retry counts).
        pub commit_failures: u64 =
            Prom::Counter("commit_failures_total", "Failed backing commit attempts."),
        /// Resizes abandoned after exhausting commit retries, falling back
        /// to the pre-resize geometry.
        pub resize_fallbacks: u64 =
            Prom::Counter("resize_fallbacks_total", "Resizes fallen back to old geometry."),
        /// Poisoned resize locks recovered instead of propagating the panic.
        pub lock_recoveries: u64 =
            Prom::Counter("lock_recoveries_total", "Poisoned resize locks recovered."),
    }
}

impl Stats {
    /// Fraction of written bytes wasted on dummy filler; 0.0 when nothing
    /// has been written.
    pub fn dummy_fraction(&self) -> f64 {
        let total = self.recorded_bytes + self.dummy_bytes;
        if total == 0 {
            0.0
        } else {
            self.dummy_bytes as f64 / total as f64
        }
    }

    /// Observed effectivity ratio: the fraction of written bytes that
    /// carried real payload, the quantity the paper bounds by `1 − A/N`
    /// (§3.2). Complement of [`dummy_fraction`](Stats::dummy_fraction);
    /// 1.0 when nothing has been written (no waste yet).
    pub fn effectivity_ratio(&self) -> f64 {
        1.0 - self.dummy_fraction()
    }

    /// Skips per advance: how often the slow path found its candidate
    /// block still pinned by unconfirmed writes and skipped it (§3.4).
    /// 0.0 when no advance has run.
    pub fn skip_rate(&self) -> f64 {
        if self.advances == 0 {
            0.0
        } else {
            self.skips as f64 / self.advances as f64
        }
    }
}

/// The tracer's degradation bits, as kept by `btrace-core` and carried in
/// [`HealthSnapshot::degraded_bits`](crate::HealthSnapshot::degraded_bits).
///
/// Each bit is either **sticky** — it records that a degradation happened
/// and stays set for the life of the tracer — or **self-healing** — it
/// reflects an ongoing condition and clears when the condition resolves.
pub mod degraded {
    /// A backing commit kept failing after retries; the last grow fell back
    /// to its pre-resize geometry. Sticky.
    pub const COMMIT_FAILED: u64 = 1 << 0;
    /// A shrink completed logically but its decommit kept failing; physical
    /// reclaim is deferred to a later resize. Self-healing.
    pub const RECLAIM_DEFERRED: u64 = 1 << 1;
    /// The resize lock was found poisoned by a panicked caller and was
    /// recovered (geometry re-validated). Sticky.
    pub const LOCK_RECOVERED: u64 = 1 << 2;

    /// Description of one degradation bit.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct BitInfo {
        /// The bit value.
        pub bit: u64,
        /// Stable snake_case name.
        pub name: &'static str,
        /// `true` if the bit never clears once set.
        pub sticky: bool,
    }

    /// Every known degradation bit, in bit order.
    pub const ALL: [BitInfo; 3] = [
        BitInfo { bit: COMMIT_FAILED, name: "commit_failed", sticky: true },
        BitInfo { bit: RECLAIM_DEFERRED, name: "reclaim_deferred", sticky: false },
        BitInfo { bit: LOCK_RECOVERED, name: "lock_recovered", sticky: true },
    ];

    /// Renders a bitset as a compact label, e.g.
    /// `commit_failed!+reclaim_deferred` (`!` marks sticky bits), or
    /// `ok` when no bits are set.
    pub fn describe(bits: u64) -> String {
        if bits == 0 {
            return "ok".to_string();
        }
        let mut parts: Vec<String> = ALL
            .iter()
            .filter(|info| bits & info.bit != 0)
            .map(|info| if info.sticky { format!("{}!", info.name) } else { info.name.to_string() })
            .collect();
        let known: u64 = ALL.iter().map(|i| i.bit).sum();
        if bits & !known != 0 {
            parts.push(format!("{:#x}", bits & !known));
        }
        parts.join("+")
    }
}

/// Detail of a [`TracerState::Degraded`] report: which conditions are live
/// and the counters behind them.
///
/// The tracer *never* stops recording while degraded — producers keep
/// writing into the surviving blocks (§3.3's never-block guarantee extends
/// to resource-acquisition failure). Degradation means a resize could not
/// fully take effect or a reclaim is pending.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct Degraded {
    /// A backing commit kept failing after retries; the last grow fell back
    /// to its pre-resize geometry.
    pub commit_failed: bool,
    /// A shrink completed logically but physical reclaim is deferred; a
    /// later resize retries the decommit. Clears once reclaim lands.
    pub reclaim_deferred: bool,
    /// A resize caller panicked and poisoned the resize lock; the lock was
    /// recovered and the geometry re-validated.
    pub lock_recovered: bool,
    /// The counters at the time of the report: `commit_failures`,
    /// `resize_fallbacks` and `lock_recoveries` are the exact failures
    /// behind the flags.
    pub stats: Stats,
}

/// Current health of the tracer, from `BTrace::state`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracerState {
    /// Every resource-acquisition edge has behaved so far.
    Healthy,
    /// A failure edge fired; recording continues on surviving blocks.
    Degraded(Degraded),
}

impl TracerState {
    /// The state described by a [`degraded`] bitset and the counters
    /// behind it: healthy exactly when no bit is set.
    pub fn from_bits(bits: u64, stats: &Stats) -> Self {
        if bits == 0 {
            return TracerState::Healthy;
        }
        TracerState::Degraded(Degraded {
            commit_failed: bits & degraded::COMMIT_FAILED != 0,
            reclaim_deferred: bits & degraded::RECLAIM_DEFERRED != 0,
            lock_recovered: bits & degraded::LOCK_RECOVERED != 0,
            stats: *stats,
        })
    }

    /// Whether any degradation condition is live.
    pub fn is_degraded(&self) -> bool {
        matches!(self, TracerState::Degraded(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dummy_fraction_handles_zero() {
        assert_eq!(Stats::default().dummy_fraction(), 0.0);
        let s = Stats { recorded_bytes: 300, dummy_bytes: 100, ..Stats::default() };
        assert!((s.dummy_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn effectivity_ratio_complements_dummy_fraction() {
        assert_eq!(Stats::default().effectivity_ratio(), 1.0);
        let s = Stats { recorded_bytes: 300, dummy_bytes: 100, ..Stats::default() };
        assert!((s.effectivity_ratio() - 0.75).abs() < 1e-9);
        assert!((s.effectivity_ratio() + s.dummy_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skip_rate_handles_zero_advances() {
        assert_eq!(Stats::default().skip_rate(), 0.0);
        let s = Stats { advances: 40, skips: 10, ..Stats::default() };
        assert!((s.skip_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn degraded_describe_marks_sticky_bits() {
        assert_eq!(degraded::describe(0), "ok");
        assert_eq!(degraded::describe(degraded::COMMIT_FAILED), "commit_failed!");
        assert_eq!(
            degraded::describe(degraded::COMMIT_FAILED | degraded::RECLAIM_DEFERRED),
            "commit_failed!+reclaim_deferred"
        );
        assert!(degraded::describe(1 << 40).contains("0x"), "unknown bits stay visible");
    }
}
