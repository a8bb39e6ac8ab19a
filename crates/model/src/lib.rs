//! # btrace-model — deterministic concurrency model checking for btrace-core
//!
//! A loom/shuttle-style controlled-scheduler harness: modeled threads run as
//! real OS threads, but a run token serializes them so that exactly one
//! executes at a time, and `btrace-core`'s sync facade (built with the
//! `model` feature) hands the scheduler a yield point at **every** atomic
//! load/store/RMW. The next thread to run is drawn from a seeded PRNG, which
//! makes the complete interleaving a pure function of one `u64` seed:
//!
//! * exploration — each scenario runs hundreds of schedules (alternating
//!   uniform random walks and PCT-style priority schedules) per invocation;
//! * replay — a failing schedule prints its seed; rerun the same test with
//!   `BTRACE_MODEL_SEED=<seed>` to reproduce the exact interleaving.
//!
//! After every modeled execution the scenario's `finally` blocks run the
//! invariant checkers in [`check`]: event conservation, the `1 − A/N`
//! effectivity bound, allocate/confirm coherence (lost updates), the
//! implicit-reclaiming pin, and counter monotonicity. Bounded termination
//! is enforced during the execution itself by the scheduler's step budget.
//!
//! ## Writing a scenario
//!
//! ```rust
//! use btrace_core::{BTrace, Config};
//! use btrace_model::{explore, ModelConfig};
//!
//! let report = explore("two-producers", ModelConfig { schedules: 16, ..Default::default() }, |sim| {
//!     let t = BTrace::new(
//!         Config::new(2)
//!             .active_blocks(4)
//!             .block_bytes(256)
//!             .buffer_bytes(4 * 256 * 4)
//!             .backing(btrace_core::Backing::Heap),
//!     )
//!     .unwrap();
//!     for core in 0..2 {
//!         let p = t.producer(core).unwrap();
//!         sim.thread(move || {
//!             for i in 0..4u64 {
//!                 p.record_with(core as u64 * 100 + i, 0, b"payload!").unwrap();
//!             }
//!         });
//!     }
//!     let t2 = t.clone();
//!     sim.finally(move || {
//!         btrace_model::check::check_counter_coherence(&t2);
//!     });
//! });
//! assert_eq!(report.schedules, 16);
//! ```
//!
//! Environment knobs (all optional):
//!
//! * `BTRACE_MODEL_SEED` — replay exactly one schedule with this seed;
//! * `BTRACE_MODEL_BASE_SEED` — rebase the whole seed batch (CI runs a
//!   fixed batch plus a fresh random one);
//! * `BTRACE_MODEL_SCHEDULES` — override the schedule count.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod check;
pub mod rng;
pub mod sched;

use crate::rng::schedule_seed;
use crate::sched::{Execution, Policy, ThreadGate};
use btrace_vmem::SplitMix64;
use std::collections::HashSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Configuration of one [`explore`] call.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Schedules (distinct seeds) to run.
    pub schedules: usize,
    /// Base seed the per-schedule seeds derive from.
    pub seed: u64,
    /// Hard budget of scheduler steps per schedule; exceeding it fails the
    /// schedule (livelock / unbounded retry).
    pub max_steps: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        // 600 seeds comfortably clears the "≥ 500 distinct schedules"
        // acceptance bar even when some PCT seeds collide on short
        // scenarios.
        Self { schedules: 600, seed: 0xB7_7ACE, max_steps: 400_000 }
    }
}

/// What one exploration did. Returned by [`explore`].
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// Schedules executed.
    pub schedules: usize,
    /// Distinct interleavings among them (by scheduling-decision
    /// fingerprint).
    pub distinct: usize,
    /// Scheduler steps summed over all schedules.
    pub total_steps: u64,
    /// True when `BTRACE_MODEL_SEED` replayed a single schedule — coverage
    /// assertions (distinct-interleaving floors) do not apply to a replay.
    pub replay: bool,
}

/// One modeled execution under construction: the scenario closure registers
/// modeled threads and post-execution checks on it.
#[derive(Default)]
pub struct Sim {
    threads: Vec<Box<dyn FnOnce() + Send + 'static>>,
    finals: Vec<Box<dyn FnOnce() + Send + 'static>>,
}

impl Sim {
    /// Registers a modeled thread. Every sync-facade operation it performs
    /// becomes a scheduling decision.
    pub fn thread(&mut self, f: impl FnOnce() + Send + 'static) {
        self.threads.push(Box::new(f));
    }

    /// Registers a check to run on the harness thread (uninstrumented,
    /// quiescent) after every modeled thread has finished.
    pub fn finally(&mut self, f: impl FnOnce() + Send + 'static) {
        self.finals.push(Box::new(f));
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("threads", &self.threads.len())
            .field("finals", &self.finals.len())
            .finish()
    }
}

/// Ends the modeled thread on all exits: normal completion hands the run
/// token on; a panic aborts the schedule so parked siblings free-run out.
struct DoneGuard {
    exec: Arc<Execution>,
    tid: usize,
}

impl Drop for DoneGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.exec.abort();
        } else {
            self.exec.thread_done(self.tid);
        }
        btrace_core::model_rt::uninstall();
    }
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("{name}={raw:?} is not a u64 (decimal or 0x-hex)"),
    }
}

/// Runs one schedule: builds the scenario, drives its threads under the
/// seeded scheduler, then runs the `finally` checks. Returns the schedule's
/// interleaving fingerprint and step count.
fn run_one<F>(scenario: &F, seed: u64, max_steps: u64) -> (u64, u64)
where
    F: Fn(&mut Sim),
{
    let mut sim = Sim::default();
    scenario(&mut sim);
    assert!(!sim.threads.is_empty(), "scenario registered no modeled threads");

    let mut rng = SplitMix64::new(seed);
    // The policy family is drawn from the seed stream (not the schedule
    // index) so a replayed seed reconstructs the identical schedule.
    let family = rng.next_below(2) as usize;
    let policy = Policy::for_schedule(family, sim.threads.len(), &mut rng);
    let exec = Execution::new(sim.threads.len(), policy, rng, max_steps);

    let handles: Vec<_> = sim
        .threads
        .into_iter()
        .enumerate()
        .map(|(tid, f)| {
            let exec = Arc::clone(&exec);
            std::thread::Builder::new()
                .name(format!("model-{tid}"))
                .spawn(move || {
                    btrace_core::model_rt::install(Arc::new(ThreadGate::new(
                        Arc::clone(&exec),
                        tid,
                    )));
                    exec.wait_first(tid);
                    let _done = DoneGuard { exec, tid };
                    f();
                })
                .expect("spawning a modeled thread failed")
        })
        .collect();
    exec.kick();

    // Keep the root-cause panic: threads unwound by the scheduler after an
    // abort carry a `ScheduleAborted` payload, which only matters if no
    // thread reported the original failure.
    let mut failure: Option<Box<dyn std::any::Any + Send>> = None;
    for handle in handles {
        if let Err(payload) = handle.join() {
            let keep = match &failure {
                None => true,
                Some(kept) => {
                    kept.is::<sched::ScheduleAborted>() && !payload.is::<sched::ScheduleAborted>()
                }
            };
            if keep {
                failure = Some(payload);
            }
        }
    }
    if let Some(payload) = failure {
        resume_unwind(payload);
    }

    for f in sim.finals {
        f();
    }
    (exec.trace_hash(), exec.steps())
}

/// Runs a single schedule of `scenario` under `seed` and returns its
/// interleaving fingerprint. Two calls with the same seed must return the
/// same fingerprint — the determinism contract the whole harness rests on.
pub fn fingerprint<F>(scenario: F, seed: u64, max_steps: u64) -> u64
where
    F: Fn(&mut Sim),
{
    run_one(&scenario, seed, max_steps).0
}

/// Explores `cfg.schedules` seeded interleavings of `scenario`, running its
/// `finally` checks after each, and self-checks determinism by replaying
/// the first seed. Panics (with the seed and replay instructions) on the
/// first failing schedule.
pub fn explore<F>(name: &str, cfg: ModelConfig, scenario: F) -> Report
where
    F: Fn(&mut Sim),
{
    // Replay mode: exactly one schedule, the given seed.
    if let Some(seed) = env_u64("BTRACE_MODEL_SEED") {
        eprintln!("model: scenario '{name}' replaying seed {seed:#018x}");
        let (hash, steps) = run_with_context(&scenario, name, seed, cfg.max_steps);
        eprintln!("model: replay fingerprint {hash:#018x} ({steps} steps)");
        return Report { schedules: 1, distinct: 1, total_steps: steps, replay: true };
    }

    let base = env_u64("BTRACE_MODEL_BASE_SEED").unwrap_or(cfg.seed);
    let schedules = env_u64("BTRACE_MODEL_SCHEDULES").map(|n| n as usize).unwrap_or(cfg.schedules);
    eprintln!("model: scenario '{name}': {schedules} schedules from base seed {base:#018x}");

    let mut hashes = HashSet::with_capacity(schedules);
    let mut total_steps = 0u64;
    let mut first: Option<(u64, u64)> = None; // (seed, fingerprint)
    for index in 0..schedules {
        let seed = schedule_seed(base, index);
        let (hash, steps) = run_with_context(&scenario, name, seed, cfg.max_steps);
        hashes.insert(hash);
        total_steps += steps;
        first.get_or_insert((seed, hash));
    }

    // Determinism self-check: the first seed, replayed, must reproduce its
    // interleaving bit for bit.
    if let Some((seed, hash)) = first {
        let (replayed, _) = run_with_context(&scenario, name, seed, cfg.max_steps);
        assert_eq!(
            replayed, hash,
            "scenario '{name}': seed {seed:#018x} replayed a different interleaving — \
             the scenario is nondeterministic (wall-clock, OS randomness, or \
             un-faceted synchronization?)"
        );
    }

    let report = Report { schedules, distinct: hashes.len(), total_steps, replay: false };
    eprintln!(
        "model: scenario '{name}': {} distinct interleavings over {} schedules ({} steps)",
        report.distinct, report.schedules, report.total_steps
    );
    report
}

/// Runs one schedule, decorating any failure with the scenario name, seed,
/// and replay instructions.
fn run_with_context<F>(scenario: &F, name: &str, seed: u64, max_steps: u64) -> (u64, u64)
where
    F: Fn(&mut Sim),
{
    match catch_unwind(AssertUnwindSafe(|| run_one(scenario, seed, max_steps))) {
        Ok(result) => result,
        Err(payload) => {
            let detail = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            panic!(
                "scenario '{name}' failed under seed {seed:#018x}\n\
                 --> {detail}\n\
                 replay: BTRACE_MODEL_SEED={seed:#x} cargo test -p btrace-model {name} -- --nocapture"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_schedules() {
        let report =
            explore("unit-counting", ModelConfig { schedules: 8, ..Default::default() }, |sim| {
                sim.thread(|| {});
            });
        assert_eq!(report.schedules, 8);
        assert!(report.distinct >= 1);
    }

    #[test]
    fn failing_schedule_reports_seed() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            explore("unit-failing", ModelConfig { schedules: 2, ..Default::default() }, |sim| {
                sim.thread(|| panic!("injected failure"));
            })
        }));
        let payload = result.expect_err("the injected failure must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("decorated failure should be a String");
        assert!(message.contains("BTRACE_MODEL_SEED="), "no replay seed in: {message}");
        assert!(message.contains("injected failure"), "original cause lost in: {message}");
    }

    #[test]
    fn failing_finally_reports_seed() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            explore(
                "unit-failing-finally",
                ModelConfig { schedules: 2, ..Default::default() },
                |sim| {
                    sim.thread(|| {});
                    sim.finally(|| panic!("check tripped"));
                },
            )
        }));
        let payload = result.expect_err("the failing check must propagate");
        let message = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("check tripped"), "original cause lost in: {message}");
    }
}
