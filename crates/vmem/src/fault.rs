//! Deterministic fault injection for [`Region`](crate::Region) backings.
//!
//! Real mobile deployments lose the happy path first: `madvise` returns
//! `ENOMEM` under memory pressure, a commit succeeds for a prefix of the
//! range and then fails, and decommits land late because the kernel
//! reclaims lazily. A [`FaultPlan`] injects exactly those behaviours on a
//! seed-replayable schedule so every layer above (`btrace-core` resize,
//! `btrace-persist` exporters) can be tested against them.
//!
//! The schedule mirrors the `btrace-model` seed/replay convention: the
//! whole fault sequence is a pure function of one `u64` seed expanded
//! through [`SplitMix64`], so a failing storm in the `fault_injection`
//! suite is replayed by the line it prints,
//! `BTRACE_SEED=fault_injection:<seed> cargo test --test fault_injection <test>`.
//!
//! ```rust
//! use btrace_vmem::{Backing, FaultPlan, Region, PAGE_SIZE};
//!
//! let plan = FaultPlan::new(42).commit_failure_rate(1.0).max_faults(1);
//! let region = Region::reserve_with_faults(4 * PAGE_SIZE, Backing::Heap, plan).unwrap();
//! assert!(region.commit(0, PAGE_SIZE).is_err()); // injected ENOMEM
//! assert!(region.commit(0, PAGE_SIZE).is_ok()); // fault budget exhausted
//! assert_eq!(region.fault_stats().unwrap().commit_faults, 1);
//! ```

use crate::{SplitMix64, PAGE_SIZE};
use std::sync::{Mutex, PoisonError};

/// `ENOMEM`: the errno injected commit/decommit failures report.
pub(crate) const ENOMEM: i32 = 12;

/// Probabilities are stored in parts-per-million so [`FaultPlan`] stays
/// `Copy + Eq` and decisions are exact integer comparisons (bit-for-bit
/// replayable, no float rounding in the schedule).
const PPM: u64 = 1_000_000;

/// A seed-replayable fault schedule for one [`Region`](crate::Region).
///
/// Build one with [`FaultPlan::new`] and the rate setters, then reserve
/// the region with [`Region::reserve_with_faults`](crate::Region::reserve_with_faults).
/// Every commit/decommit consults the plan in call order; with a fixed
/// seed and the same call sequence the injected faults are identical, so
/// any failure observed under a plan is replayable from its seed alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    seed: u64,
    commit_fail_ppm: u64,
    partial_commit_ppm: u64,
    decommit_fail_ppm: u64,
    delayed_decommit_ppm: u64,
    /// How many later operations a deferred decommit waits before landing.
    delay_ops: u64,
    /// Operations before this index never fault (lets construction-time
    /// commits through so the storm starts only once the tracer is up).
    arm_after: u64,
    /// Total faults to inject before the plan goes quiet.
    max_faults: u64,
}

impl FaultPlan {
    /// A plan that injects nothing until rates are set.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            commit_fail_ppm: 0,
            partial_commit_ppm: 0,
            decommit_fail_ppm: 0,
            delayed_decommit_ppm: 0,
            delay_ops: 2,
            arm_after: 0,
            max_faults: u64::MAX,
        }
    }

    /// The seed the schedule derives from (print this on failure).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn ppm(rate: f64) -> u64 {
        (rate.clamp(0.0, 1.0) * PPM as f64) as u64
    }

    /// Probability that a commit fails outright with `ENOMEM`.
    pub fn commit_failure_rate(mut self, rate: f64) -> Self {
        self.commit_fail_ppm = Self::ppm(rate);
        self
    }

    /// Probability that a multi-page commit succeeds for a random page
    /// prefix and then fails (the mid-range failure mode the cleanup path
    /// must roll back).
    pub fn partial_commit_rate(mut self, rate: f64) -> Self {
        self.partial_commit_ppm = Self::ppm(rate);
        self
    }

    /// Probability that a decommit fails with `ENOMEM`.
    pub fn decommit_failure_rate(mut self, rate: f64) -> Self {
        self.decommit_fail_ppm = Self::ppm(rate);
        self
    }

    /// Probability that a decommit is deferred: it reports success but the
    /// backing releases the pages only [`decommit_delay_ops`]
    /// operations later — the kernel's lazy-reclaim behaviour. A deferred
    /// decommit overlapped by a later commit is cancelled (the real kernel
    /// never discards pages a caller has recommitted and may be writing).
    ///
    /// [`decommit_delay_ops`]: FaultPlan::decommit_delay_ops
    pub fn delayed_decommit_rate(mut self, rate: f64) -> Self {
        self.delayed_decommit_ppm = Self::ppm(rate);
        self
    }

    /// Sets how many operations a deferred decommit lags (default 2).
    pub fn decommit_delay_ops(mut self, ops: u64) -> Self {
        self.delay_ops = ops.max(1);
        self
    }

    /// Disarms the plan for the first `ops` operations (default 0).
    pub fn arm_after_ops(mut self, ops: u64) -> Self {
        self.arm_after = ops;
        self
    }

    /// Caps the total number of injected faults (default unlimited).
    pub fn max_faults(mut self, n: u64) -> Self {
        self.max_faults = n;
        self
    }
}

/// Cumulative injection counts, readable via
/// [`Region::fault_stats`](crate::Region::fault_stats). Exact: one count
/// per injected event, in schedule order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct FaultStats {
    /// Commits failed outright (`ENOMEM`, nothing committed).
    pub commit_faults: u64,
    /// Commits that succeeded for a prefix and then failed mid-range.
    pub partial_commits: u64,
    /// Decommits failed with `ENOMEM`.
    pub decommit_faults: u64,
    /// Decommits deferred past their call (kernel lazy reclaim).
    pub deferred_decommits: u64,
    /// Deferred decommits that later landed on the backing.
    pub flushed_decommits: u64,
    /// Deferred decommits cancelled by an overlapping commit.
    pub cancelled_decommits: u64,
    /// Total commit/decommit operations the plan observed.
    pub ops: u64,
}

/// What the injector decided for one commit call.
pub(crate) enum CommitDecision {
    Proceed,
    Fail {
        errno: i32,
    },
    /// Commit only the first `prefix` bytes, then fail mid-range.
    Partial {
        prefix: usize,
    },
}

/// What the injector decided for one decommit call.
pub(crate) enum DecommitDecision {
    Proceed,
    Fail {
        errno: i32,
    },
    /// Report success now; release the pages `delay_ops` operations later.
    Defer,
}

/// A decommit the injector is holding back.
#[derive(Debug, Clone, Copy)]
struct PendingDecommit {
    offset: usize,
    len: usize,
    due_at_op: u64,
}

struct InjectorState {
    rng: SplitMix64,
    ops: u64,
    faults: u64,
    pending: Vec<PendingDecommit>,
    stats: FaultStats,
}

/// The per-region injector: plan plus mutable schedule state. Interior
/// mutability behind a mutex because `Region::commit`/`decommit` take
/// `&self`; the callers above (resize) already serialize, so this lock is
/// uncontended, and a poisoned guard is recovered rather than propagated
/// (a fault injector must not add failure modes of its own).
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    state: Mutex<InjectorState>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector").field("plan", &self.plan).finish_non_exhaustive()
    }
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            state: Mutex::new(InjectorState {
                rng: SplitMix64::new(plan.seed),
                ops: 0,
                faults: 0,
                pending: Vec::new(),
                stats: FaultStats::default(),
            }),
        }
    }

    pub(crate) fn stats(&self) -> FaultStats {
        self.lock().stats
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, InjectorState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Decides the fate of a commit and returns any deferred decommits
    /// that are now due, in `(decision, due)` order. The caller applies
    /// the due decommits to the backing *before* acting on the decision so
    /// schedule time moves strictly forward.
    pub(crate) fn on_commit(
        &self,
        offset: usize,
        len: usize,
    ) -> (CommitDecision, Vec<(usize, usize)>) {
        let mut s = self.lock();
        let armed = self.advance(&mut s);
        // An overlapping deferred decommit is cancelled: the recommit wins,
        // exactly as the kernel never reclaims pages under a live mapping
        // the caller has committed again.
        let end = offset + len;
        let mut cancelled = 0;
        s.pending.retain(|p| {
            let overlaps = p.offset < end && offset < p.offset + p.len;
            cancelled += u64::from(overlaps);
            !overlaps
        });
        s.stats.cancelled_decommits += cancelled;
        let due = Self::take_due(&mut s);
        if !armed {
            return (CommitDecision::Proceed, due);
        }
        let draw = s.rng.next_below(PPM);
        let decision = if draw < self.plan.commit_fail_ppm {
            s.faults += 1;
            s.stats.commit_faults += 1;
            CommitDecision::Fail { errno: ENOMEM }
        } else if draw < self.plan.commit_fail_ppm + self.plan.partial_commit_ppm {
            let pages = len / PAGE_SIZE;
            if pages < 2 {
                // A one-page range has no mid-point; degrade to a plain fail.
                s.faults += 1;
                s.stats.commit_faults += 1;
                CommitDecision::Fail { errno: ENOMEM }
            } else {
                let prefix_pages = 1 + s.rng.next_below(pages as u64 - 1) as usize;
                s.faults += 1;
                s.stats.partial_commits += 1;
                CommitDecision::Partial { prefix: prefix_pages * PAGE_SIZE }
            }
        } else {
            CommitDecision::Proceed
        };
        (decision, due)
    }

    /// Decides the fate of a decommit; same due-flush contract as
    /// [`on_commit`](FaultInjector::on_commit).
    pub(crate) fn on_decommit(
        &self,
        offset: usize,
        len: usize,
    ) -> (DecommitDecision, Vec<(usize, usize)>) {
        let mut s = self.lock();
        let armed = self.advance(&mut s);
        let due = Self::take_due(&mut s);
        if !armed {
            return (DecommitDecision::Proceed, due);
        }
        let draw = s.rng.next_below(PPM);
        let decision = if draw < self.plan.decommit_fail_ppm {
            s.faults += 1;
            s.stats.decommit_faults += 1;
            DecommitDecision::Fail { errno: ENOMEM }
        } else if draw < self.plan.decommit_fail_ppm + self.plan.delayed_decommit_ppm {
            let due_at_op = s.ops + self.plan.delay_ops;
            s.pending.push(PendingDecommit { offset, len, due_at_op });
            s.faults += 1;
            s.stats.deferred_decommits += 1;
            DecommitDecision::Defer
        } else {
            DecommitDecision::Proceed
        };
        (decision, due)
    }

    /// Bumps the operation clock; returns whether faults may fire.
    fn advance(&self, s: &mut InjectorState) -> bool {
        s.ops += 1;
        s.stats.ops += 1;
        s.ops > self.plan.arm_after && s.faults < self.plan.max_faults
    }

    fn take_due(s: &mut InjectorState) -> Vec<(usize, usize)> {
        let now = s.ops;
        let mut due = Vec::new();
        s.pending.retain(|p| {
            if p.due_at_op <= now {
                due.push((p.offset, p.len));
                false
            } else {
                true
            }
        });
        s.stats.flushed_decommits += due.len() as u64;
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_faults(seed: u64, ops: u64) -> FaultStats {
        let inj = FaultInjector::new(
            FaultPlan::new(seed).commit_failure_rate(0.4).partial_commit_rate(0.2),
        );
        for _ in 0..ops {
            let _ = inj.on_commit(0, 4 * PAGE_SIZE);
        }
        inj.stats()
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        assert_eq!(count_faults(7, 500), count_faults(7, 500));
        assert_ne!(count_faults(7, 500), count_faults(8, 500));
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let s = count_faults(1234, 10_000);
        // 40% fail + 20% partial over 10k draws: generous 3-sigma bands.
        assert!((3_500..4_500).contains(&s.commit_faults), "{s:?}");
        assert!((1_600..2_400).contains(&s.partial_commits), "{s:?}");
    }

    #[test]
    fn arm_after_and_max_faults_bound_the_storm() {
        let inj = FaultInjector::new(
            FaultPlan::new(3).commit_failure_rate(1.0).arm_after_ops(2).max_faults(3),
        );
        let mut failures = 0;
        for _ in 0..10 {
            if matches!(inj.on_commit(0, PAGE_SIZE).0, CommitDecision::Fail { .. }) {
                failures += 1;
            }
        }
        assert_eq!(failures, 3, "2 disarmed + 3 budget + 5 quiet");
        assert_eq!(inj.stats().ops, 10);
    }

    #[test]
    fn deferred_decommit_lands_later_and_commit_cancels() {
        let inj =
            FaultInjector::new(FaultPlan::new(9).delayed_decommit_rate(1.0).decommit_delay_ops(1));
        let (d, due) = inj.on_decommit(0, PAGE_SIZE);
        assert!(matches!(d, DecommitDecision::Defer));
        assert!(due.is_empty());
        // Next op: the pending range is due and handed back for flushing.
        let (_, due) = inj.on_decommit(4 * PAGE_SIZE, PAGE_SIZE);
        assert_eq!(due, vec![(0, PAGE_SIZE)]);
        // A commit overlapping a fresh pending cancels it instead.
        let (_, _) = inj.on_decommit(8 * PAGE_SIZE, PAGE_SIZE); // defer again
        let (_, due) = inj.on_commit(8 * PAGE_SIZE, PAGE_SIZE);
        assert!(due.is_empty(), "overlapped pending must be cancelled, not flushed");
        assert_eq!(inj.stats().cancelled_decommits, 1);
    }
}
