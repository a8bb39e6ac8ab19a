//! The deterministic scheduler: real OS threads serialized by a run token.
//!
//! Exactly one modeled thread runs at any instant. Every synchronization
//! operation in `btrace-core` (via its `sync` facade) calls back into
//! [`Execution::yield_point`], where the scheduler picks the next thread to
//! run from a seeded PRNG — so the entire interleaving is a pure function
//! of the schedule seed, and any failure replays exactly.
//!
//! Two schedule policies:
//!
//! * [`Policy::RandomWalk`] — uniform choice among runnable threads at every
//!   step; good breadth.
//! * [`Policy::Pct`] — PCT-style priority scheduling (Burckhardt et al.,
//!   ASPLOS 2010): threads get random distinct priorities, the highest
//!   runnable priority always runs, and at a few seeded change points the
//!   running thread is demoted below everyone else. Probabilistically covers
//!   low-depth ordering bugs that a random walk is unlikely to hit.
//!
//! Threads that spin on a condition another thread must establish (mutex
//! acquisition, drain loops) cross [`Execution::yield_spin`] instead, which
//! demotes the spinner so priority schedules cannot starve the thread being
//! waited on.

use crate::rng::{fnv_mix, FNV_OFFSET};
use btrace_vmem::SplitMix64;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// No thread holds the run token (before kick-off / after completion).
const NOBODY: usize = usize::MAX;

/// Panic payload used to unwind modeled threads once a sibling has aborted
/// the schedule. A thread spinning on a flag its (now dead) sibling was
/// supposed to set would otherwise free-run forever; unwinding it instead
/// is always safe because the schedule's result is already a failure. The
/// harness recognizes this payload and reports the sibling's original
/// panic, not this one.
#[derive(Debug)]
pub struct ScheduleAborted;

/// Upper bound for drawing PCT change points. Deliberately shorter than
/// even the smallest scenario (~100 steps): a change point beyond the
/// execution's length never fires, and every no-fire PCT schedule collapses
/// into the same max-priority trace, gutting interleaving diversity. Early
/// points always fire; the random-walk family covers late-execution
/// diversity.
const PCT_STEP_RANGE: u64 = 64;

/// Wall-clock watchdog per wait: a modeled execution only stalls this long
/// if the process itself is wedged (the step budget catches algorithmic
/// livelock long before).
const WATCHDOG: Duration = Duration::from_secs(30);

/// Schedule policy: how the next runnable thread is chosen.
#[derive(Debug)]
pub enum Policy {
    /// Uniformly random choice at every yield point.
    RandomWalk,
    /// PCT-style strict priorities with seeded demotion points.
    Pct {
        /// Current priority per thread; highest runnable wins.
        priorities: Vec<i64>,
        /// Remaining scheduler steps at which the running thread is demoted,
        /// descending (so `pop` yields the next one).
        change_points: Vec<u64>,
        /// Next value handed out by a demotion; decreases monotonically so
        /// every demotion lands below all current priorities.
        floor: i64,
    },
}

impl Policy {
    /// Seeds a policy for schedule `index`: even schedules random-walk, odd
    /// schedules PCT, so every scenario gets both families.
    pub fn for_schedule(index: usize, threads: usize, rng: &mut SplitMix64) -> Policy {
        if index.is_multiple_of(2) {
            Policy::RandomWalk
        } else {
            let mut priorities: Vec<i64> = (0..threads as i64).collect();
            // Fisher-Yates with the schedule RNG.
            for i in (1..priorities.len()).rev() {
                priorities.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            let depth = 1 + rng.next_below(4);
            let mut change_points: Vec<u64> =
                (0..depth).map(|_| rng.next_u64() % PCT_STEP_RANGE).collect();
            change_points.sort_unstable_by(|a, b| b.cmp(a));
            Policy::Pct { priorities, change_points, floor: -1 }
        }
    }

    /// Picks the next thread among `alive` (at least one true). `avoid` is
    /// the spinning caller to deprioritize, if any.
    fn choose(
        &mut self,
        alive: &[bool],
        step: u64,
        avoid: Option<usize>,
        rng: &mut SplitMix64,
    ) -> usize {
        match self {
            Policy::RandomWalk => {
                let candidates: Vec<usize> = alive
                    .iter()
                    .enumerate()
                    .filter(|&(tid, &a)| a && Some(tid) != avoid)
                    .map(|(tid, _)| tid)
                    .collect();
                if candidates.is_empty() {
                    // The spinner is the only thread left: it must run.
                    return avoid.expect("no runnable thread");
                }
                candidates[rng.next_below(candidates.len() as u64) as usize]
            }
            Policy::Pct { priorities, change_points, floor } => {
                if let Some(tid) = avoid {
                    priorities[tid] = *floor;
                    *floor -= 1;
                }
                while change_points.last().is_some_and(|&cp| cp <= step) {
                    change_points.pop();
                    // Demote the currently highest runnable thread.
                    if let Some(top) = alive
                        .iter()
                        .enumerate()
                        .filter(|&(_, &a)| a)
                        .map(|(tid, _)| tid)
                        .max_by_key(|&tid| priorities[tid])
                    {
                        priorities[top] = *floor;
                        *floor -= 1;
                    }
                }
                alive
                    .iter()
                    .enumerate()
                    .filter(|&(_, &a)| a)
                    .map(|(tid, _)| tid)
                    .max_by_key(|&tid| priorities[tid])
                    .expect("no runnable thread")
            }
        }
    }
}

#[derive(Debug)]
struct SchedState {
    policy: Policy,
    rng: SplitMix64,
    alive: Vec<bool>,
    current: usize,
    steps: u64,
    max_steps: u64,
    aborted: bool,
    trace_hash: u64,
}

/// One modeled execution: shared by the harness and every modeled thread's
/// [`ThreadGate`].
#[derive(Debug)]
pub struct Execution {
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl Execution {
    /// Creates an execution for `threads` modeled threads.
    pub fn new(threads: usize, policy: Policy, rng: SplitMix64, max_steps: u64) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(SchedState {
                policy,
                rng,
                alive: vec![true; threads],
                current: NOBODY,
                steps: 0,
                max_steps,
                aborted: false,
                trace_hash: FNV_OFFSET,
            }),
            cv: Condvar::new(),
        })
    }

    /// Locks the state, tolerating poison (a panicking modeled thread must
    /// not wedge the others' shutdown path).
    fn locked(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Hands the run token to the first scheduled thread. Called once by the
    /// harness after spawning every modeled thread.
    pub fn kick(&self) {
        let mut st = self.locked();
        if st.alive.iter().any(|&a| a) {
            let first = st.pick(None);
            st.current = first;
        }
        self.cv.notify_all();
    }

    /// Parks the calling modeled thread until it is scheduled for the first
    /// time.
    pub fn wait_first(&self, tid: usize) {
        let mut st = self.locked();
        while !st.aborted && st.current != tid {
            let (guard, timeout) =
                self.cv.wait_timeout(st, WATCHDOG).unwrap_or_else(|poisoned| poisoned.into_inner());
            st = guard;
            if timeout.timed_out() && !st.aborted && st.current != tid {
                st.aborted = true;
                self.cv.notify_all();
                drop(st);
                panic!("model scheduler watchdog: thread {tid} never scheduled");
            }
        }
        if st.aborted {
            drop(st);
            self.exit_aborted();
        }
    }

    /// A yield point: the calling thread (which holds the run token) lets
    /// the scheduler pick who runs next, then blocks until re-scheduled.
    pub fn yield_point(&self, tid: usize) {
        self.reschedule(tid, None);
    }

    /// A spinning yield point: like [`Execution::yield_point`] but demotes
    /// the caller, since it waits on a condition only another thread can
    /// establish.
    pub fn yield_spin(&self, tid: usize) {
        self.reschedule(tid, Some(tid));
    }

    /// Exits a yield point on an aborted schedule: a thread that is already
    /// unwinding free-runs (its destructors may cross more yield points); a
    /// thread that is not gets unwound via [`ScheduleAborted`], so loops
    /// waiting on a dead sibling cannot spin forever.
    fn exit_aborted(&self) {
        if !std::thread::panicking() {
            std::panic::panic_any(ScheduleAborted);
        }
    }

    fn reschedule(&self, tid: usize, avoid: Option<usize>) {
        let mut st = self.locked();
        if st.aborted {
            drop(st);
            self.exit_aborted();
            return;
        }
        st.steps += 1;
        if st.steps > st.max_steps {
            let steps = st.steps;
            st.aborted = true;
            self.cv.notify_all();
            drop(st);
            panic!(
                "model step budget exceeded ({steps} steps): \
                 livelock or unbounded retry in the modeled protocol"
            );
        }
        let next = st.pick(avoid);
        st.current = next;
        self.cv.notify_all();
        while !st.aborted && st.current != tid {
            let (guard, timeout) =
                self.cv.wait_timeout(st, WATCHDOG).unwrap_or_else(|poisoned| poisoned.into_inner());
            st = guard;
            if timeout.timed_out() && !st.aborted && st.current != tid {
                st.aborted = true;
                self.cv.notify_all();
                drop(st);
                panic!("model scheduler watchdog: thread {tid} starved");
            }
        }
        if st.aborted {
            drop(st);
            self.exit_aborted();
        }
    }

    /// Marks the calling thread finished and passes the token on.
    pub fn thread_done(&self, tid: usize) {
        let mut st = self.locked();
        st.alive[tid] = false;
        if !st.aborted && st.alive.iter().any(|&a| a) {
            let next = st.pick(None);
            st.current = next;
        } else {
            st.current = NOBODY;
        }
        self.cv.notify_all();
    }

    /// Aborts the execution: every parked thread wakes and free-runs to
    /// completion (used when a modeled thread panics).
    pub fn abort(&self) {
        let mut st = self.locked();
        st.aborted = true;
        self.cv.notify_all();
    }

    /// Fingerprint of the scheduling decisions taken so far; two executions
    /// with equal fingerprints interleaved identically.
    pub fn trace_hash(&self) -> u64 {
        self.locked().trace_hash
    }

    /// Scheduler steps consumed so far.
    pub fn steps(&self) -> u64 {
        self.locked().steps
    }
}

impl SchedState {
    fn pick(&mut self, avoid: Option<usize>) -> usize {
        let next = self.policy.choose(&self.alive, self.steps, avoid, &mut self.rng);
        self.trace_hash = fnv_mix(self.trace_hash, next as u64);
        next
    }
}

/// The per-thread gate installed into `btrace-core`'s sync facade: routes
/// the core's yield points to this execution's scheduler.
#[derive(Debug)]
pub struct ThreadGate {
    exec: Arc<Execution>,
    tid: usize,
}

impl ThreadGate {
    /// Creates the gate for modeled thread `tid`.
    pub fn new(exec: Arc<Execution>, tid: usize) -> Self {
        Self { exec, tid }
    }
}

impl btrace_core::model_rt::Gate for ThreadGate {
    fn yield_point(&self) {
        self.exec.yield_point(self.tid);
    }

    fn yield_spin(&self) {
        self.exec.yield_spin(self.tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_sequence(policy_idx: usize, seed: u64) -> u64 {
        let mut rng = SplitMix64::new(seed);
        let policy = Policy::for_schedule(policy_idx, 3, &mut rng);
        let exec = Execution::new(3, policy, rng, 10_000);
        let handles: Vec<_> = (0..3)
            .map(|tid| {
                let exec = Arc::clone(&exec);
                std::thread::spawn(move || {
                    exec.wait_first(tid);
                    for _ in 0..50 {
                        exec.yield_point(tid);
                    }
                    exec.thread_done(tid);
                })
            })
            .collect();
        exec.kick();
        for h in handles {
            h.join().unwrap();
        }
        exec.trace_hash()
    }

    #[test]
    fn same_seed_same_trace() {
        for policy_idx in 0..2 {
            assert_eq!(run_sequence(policy_idx, 77), run_sequence(policy_idx, 77));
        }
    }

    #[test]
    fn different_seeds_different_traces() {
        assert_ne!(run_sequence(0, 1), run_sequence(0, 2));
    }

    #[test]
    fn spinner_does_not_starve_under_pct() {
        let mut rng = SplitMix64::new(5);
        let policy = Policy::for_schedule(1, 2, &mut rng); // PCT
        let exec = Execution::new(2, policy, rng, 100_000);
        let flag = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let waiter = {
            let exec = Arc::clone(&exec);
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                exec.wait_first(0);
                while !flag.load(std::sync::atomic::Ordering::SeqCst) {
                    exec.yield_spin(0);
                }
                exec.thread_done(0);
            })
        };
        let setter = {
            let exec = Arc::clone(&exec);
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                exec.wait_first(1);
                for _ in 0..10 {
                    exec.yield_point(1);
                }
                flag.store(true, std::sync::atomic::Ordering::SeqCst);
                exec.thread_done(1);
            })
        };
        exec.kick();
        waiter.join().unwrap();
        setter.join().unwrap();
    }

    #[test]
    fn step_budget_aborts_runaway() {
        let mut rng = SplitMix64::new(9);
        let policy = Policy::for_schedule(0, 1, &mut rng);
        let exec = Execution::new(1, policy, rng, 100);
        let runaway = {
            let exec = Arc::clone(&exec);
            std::thread::spawn(move || {
                exec.wait_first(0);
                loop {
                    exec.yield_point(0);
                }
            })
        };
        exec.kick();
        assert!(runaway.join().is_err(), "budget must abort the runaway loop");
    }
}
