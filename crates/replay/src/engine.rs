//! The replay engine: drives a [`TraceSink`] with a [`Scenario`]'s event
//! stream at core level or thread level (paper §5, "replaying setup").
//!
//! One OS thread simulates each of the 12 phone cores. The virtual 30
//! seconds are divided into time slices; workers synchronize on a barrier
//! at every slice boundary, so the *relative* production rates across cores
//! (the Fig. 4 skew) shape the global interleaving of logic stamps without
//! any real-time sleeping.
//!
//! In thread-level mode each core worker multiplexes the scenario's
//! simulated threads. A context switch can strike **between** a writer's
//! reservation and its commit — the reservation is parked in the thread's
//! context and committed when that thread is scheduled again, exactly the
//! preempted-writer scenario of §2.2 Observation 2. Sinks that "disable
//! preemption" ([`TraceSink::preemptible_writes`] `== false`) never have
//! writes split this way.

use crate::model::Scenario;
use crate::report::ReplayReport;
use crate::state::{check_handoff, BoundaryDefect, BoundaryExpectation, TraceState};
use btrace_core::sink::{Begin, CollectedEvent, RecordOutcome, SinkGrant, TraceSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Shared payload bytes; content is irrelevant to buffer behaviour.
static PAYLOAD: [u8; 1024] = [0xA5; 1024];

/// Replay granularity (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplayMode {
    /// One producer thread per core produces all of that core's traces.
    CoreLevel,
    /// The scenario's thread population is multiplexed per core, with
    /// simulated preemption mid-write.
    ThreadLevel,
}

/// Replay tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayConfig {
    /// Core- or thread-level replay.
    pub mode: ReplayMode,
    /// Fraction of the full 30-second workload to generate (1.0 ≈ millions
    /// of events; keep small in tests).
    pub scale: f64,
    /// Number of barrier-synchronized time slices.
    pub slices: u32,
    /// Sample every n-th record's latency; 0 disables sampling.
    pub latency_sample_every: u32,
    /// RNG seed (each core derives its own stream).
    pub seed: u64,
    /// Cap on concurrently preempted writers per core (see `run_core`).
    /// Real preemption is transient; a cap of a handful per core matches a
    /// phone. Callers replaying against tracers with *few* active blocks
    /// must keep `cores × max_parked_per_core` below the block budget, or
    /// the replay models an impossible machine where every block is pinned
    /// at once.
    pub max_parked_per_core: usize,
}

impl ReplayConfig {
    /// Thread-level replay of the full workload — the Table 2 setup.
    pub fn table2() -> Self {
        Self {
            mode: ReplayMode::ThreadLevel,
            scale: 1.0,
            slices: 120,
            latency_sample_every: 64,
            seed: 42,
            max_parked_per_core: 4,
        }
    }

    /// A tiny deterministic configuration for unit tests.
    pub fn quick_test() -> Self {
        Self {
            mode: ReplayMode::ThreadLevel,
            scale: 0.01,
            slices: 6,
            latency_sample_every: 0,
            seed: 7,
            max_parked_per_core: 4,
        }
    }

    /// Sets the mode, builder style.
    pub fn mode(mut self, mode: ReplayMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the scale, builder style.
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self::table2()
    }
}

/// A configured replay, ready to run against any tracer.
#[derive(Debug)]
pub struct Replayer {
    scenario: &'static Scenario,
    config: ReplayConfig,
}

/// A parked reservation of a preempted simulated thread.
struct Pending<G> {
    grant: G,
    stamp: u64,
    payload_len: usize,
    tid: u32,
}

struct ThreadCtx<G> {
    tid: u32,
    pending: Option<Pending<G>>,
}

/// Per-core results gathered by a worker.
struct WorkerOut {
    written: u64,
    written_bytes: u64,
    dropped: u64,
    latencies: Vec<u64>,
    tids: usize,
}

impl Replayer {
    /// Creates a replayer for `scenario` with `config`.
    pub fn new(scenario: &'static Scenario, config: ReplayConfig) -> Self {
        Self { scenario, config }
    }

    /// Runs the replay against `sink` and drains it afterwards.
    pub fn run<S: TraceSink>(&self, sink: &S) -> ReplayReport {
        let scenario = self.scenario;
        let config = &self.config;
        let cores = scenario.cores();
        let stamp = AtomicU64::new(0);
        let barrier = Barrier::new(cores);
        let syncs = syncs_per_slice(scenario, config, sink.capacity_bytes());
        let start = Instant::now();

        let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..cores)
                .map(|core| {
                    let stamp = &stamp;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        run_core(sink, scenario, config, core, stamp, barrier, syncs)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("replay worker panicked")).collect()
        });

        let wall = start.elapsed();
        let retained = sink.drain();
        ReplayReport {
            tracer: sink.name(),
            scenario: scenario.name,
            written: outs.iter().map(|o| o.written).sum(),
            written_per_core: outs.iter().map(|o| o.written).collect(),
            written_bytes: outs.iter().map(|o| o.written_bytes).sum(),
            dropped_at_record: outs.iter().map(|o| o.dropped).sum(),
            retained,
            latencies_ns: outs.into_iter().flat_map(|o| o.latencies).collect(),
            tids_per_core: Vec::new(), // filled below for thread-level runs
            capacity_bytes: sink.capacity_bytes(),
            wall,
        }
        .with_tids(scenario, config)
    }
}

impl ReplayReport {
    fn with_tids(mut self, scenario: &Scenario, config: &ReplayConfig) -> Self {
        // Distinct tids per core are a property of the schedule, which is
        // deterministic given the config; recompute rather than thread
        // HashSets through the hot path.
        let per_core = match config.mode {
            ReplayMode::CoreLevel => 1,
            ReplayMode::ThreadLevel => {
                let events_per_core = (scenario.core_rates[0] as f64
                    * crate::model::TRACE_SECONDS as f64
                    * config.scale) as u32;
                scenario.total_threads_per_core.min(events_per_core.max(1))
            }
        };
        self.tids_per_core = vec![per_core as usize; scenario.cores()];
        self
    }
}

/// How many barrier synchronizations to run per time slice.
///
/// The slice barrier keeps the *relative* production rates across cores
/// honest, but on a loaded host (CI runners, 1-CPU machines) the OS can
/// deschedule one worker for long enough that the others produce a whole
/// slice quota around it — enough to wrap a small buffer over blocks the
/// laggard's parked grants still pin, which skip-recycling then discards.
/// That cross-core skew is an artifact of the *replay host*, not of the
/// modeled phone, so bound it: add intra-slice barriers whenever one
/// slice's global production spans a large fraction of the sink's
/// capacity, capping the skew at roughly `capacity / 8` bytes of global
/// production between synchronization points.
fn syncs_per_slice(scenario: &Scenario, config: &ReplayConfig, capacity_bytes: usize) -> u64 {
    let slices = config.slices.max(1) as u64;
    let total_events: u64 = (0..scenario.cores())
        .map(|core| {
            (scenario.core_rates[core] as f64 * crate::model::TRACE_SECONDS as f64 * config.scale)
                .round() as u64
        })
        .sum();
    let mean_entry = btrace_core::event::encoded_len(scenario.mean_payload as usize) as u64;
    let slice_bytes = (total_events / slices) * mean_entry;
    let chunk = (capacity_bytes as u64 / 8).max(1);
    slice_bytes.div_ceil(chunk).clamp(1, 64)
}

#[allow(clippy::too_many_arguments)]
fn run_core<S: TraceSink>(
    sink: &S,
    scenario: &Scenario,
    config: &ReplayConfig,
    core: usize,
    stamp: &AtomicU64,
    barrier: &Barrier,
    syncs: u64,
) -> WorkerOut {
    let mut rng =
        StdRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(core as u64));
    let total_events =
        (scenario.core_rates[core] as f64 * crate::model::TRACE_SECONDS as f64 * config.scale)
            .round() as u64;
    let slices = config.slices.max(1) as u64;
    let preemptible = sink.preemptible_writes() && matches!(config.mode, ReplayMode::ThreadLevel);

    // Simulated thread population for this core.
    let total_threads = match config.mode {
        ReplayMode::CoreLevel => 1,
        ReplayMode::ThreadLevel => scenario.total_threads_per_core.max(1),
    } as u64;
    let window = match config.mode {
        ReplayMode::CoreLevel => 1,
        ReplayMode::ThreadLevel => scenario.threads_per_core_sec.max(1),
    } as u64;
    let mut threads: Vec<ThreadCtx<S::Grant>> = (0..total_threads)
        .map(|i| ThreadCtx { tid: (core as u32) << 20 | i as u32, pending: None })
        .collect();
    let mut tids_seen: HashSet<u32> = HashSet::new();
    // Real preemption is transient: a writer is off-core for microseconds,
    // so only a handful of a core's threads can ever sit inside the
    // reservation window at once. Parking unboundedly many grants would
    // model an impossible machine (and pin every active block of every
    // tracer at once), so cap the concurrently preempted writers per core.
    let max_parked = config.max_parked_per_core;
    let mut parked = 0usize;

    let mut out =
        WorkerOut { written: 0, written_bytes: 0, dropped: 0, latencies: Vec::new(), tids: 0 };
    let sample_every = config.latency_sample_every as u64;

    for slice in 0..slices {
        // Burstiness: a bursty workload emits only a trickle in idle slices.
        let nominal = total_events / slices;
        let n = if scenario.burstiness > 0.0 && rng.gen::<f32>() < scenario.burstiness {
            nominal / 8
        } else {
            nominal
        };
        // The active thread window slides across the population over time
        // (thread churn: short-lived threads come and go, Fig. 6).
        let window_base = slice * total_threads / slices;
        // Context switch cadence: roughly `window` switches per slice.
        let quantum = (n / window.max(1)).max(1);
        let mut current = 0u64;
        let mut i = 0u64;

        // `syncs` intra-slice barriers bound cross-core skew (see
        // `syncs_per_slice`); every core performs exactly `syncs` waits per
        // slice regardless of its own quota, so the barrier count matches.
        for sync in 0..syncs {
            let chunk_end = n * (sync + 1) / syncs;
            while i < chunk_end {
                if i.is_multiple_of(quantum) {
                    current = (window_base + rng.gen_range(0..window)) % total_threads;
                }
                let ctx = &mut threads[current as usize];
                // A running thread first finishes any interrupted write (it
                // is by definition no longer preempted).
                if let Some(p) = ctx.pending.take() {
                    p.grant.commit(p.stamp, p.tid, &PAYLOAD[..p.payload_len]);
                    parked -= 1;
                }
                tids_seen.insert(ctx.tid);
                let payload_len = sample_payload(&mut rng, scenario.mean_payload);
                let s = stamp.fetch_add(1, Ordering::Relaxed);
                out.written += 1;
                out.written_bytes += btrace_core::event::encoded_len(payload_len) as u64;

                let timing = sample_every != 0 && out.written.is_multiple_of(sample_every);
                let t0 = timing.then(Instant::now);

                if preemptible
                    && parked < max_parked
                    && rng.gen::<f32>() < scenario.preempt_mid_write
                {
                    // Reserve now, get "preempted", commit on reschedule.
                    match sink.try_begin(core, ctx.tid, payload_len) {
                        Begin::Granted(grant) => {
                            ctx.pending =
                                Some(Pending { grant, stamp: s, payload_len, tid: ctx.tid });
                            parked += 1;
                        }
                        Begin::Dropped => out.dropped += 1,
                    }
                } else if sink.record(core, ctx.tid, s, &PAYLOAD[..payload_len])
                    == RecordOutcome::Dropped
                {
                    out.dropped += 1;
                }

                if let Some(t0) = t0 {
                    out.latencies.push(t0.elapsed().as_nanos() as u64);
                }
                i += 1;
            }
            if sync + 1 == syncs {
                // Preemption is transient (§2.2): a parked writer is
                // rescheduled within its slice, never across one. Flushing
                // here keeps a laggard core's parked grants from pinning
                // blocks through the next slice's production.
                for ctx in &mut threads {
                    if let Some(p) = ctx.pending.take() {
                        p.grant.commit(p.stamp, p.tid, &PAYLOAD[..p.payload_len]);
                        parked -= 1;
                    }
                }
            }
            barrier.wait();
        }
    }

    debug_assert_eq!(parked, 0, "every parked grant flushed at its slice boundary");
    out.tids = tids_seen.len();
    out
}

fn sample_payload(rng: &mut StdRng, mean: u32) -> usize {
    // Uniform on [mean/2, 3*mean/2): same mean, realistic spread of small
    // entries with the occasional longer format string.
    let lo = (mean / 2).max(1);
    let hi = mean + mean / 2;
    rng.gen_range(lo..hi.max(lo + 1)) as usize
}

// ---------------------------------------------------------------------------
// Fragment-parallel state reconstruction
// ---------------------------------------------------------------------------

/// Result of [`reconstruct_fragments`]: per-fragment states, their ordered
/// merge, and any boundary hand-off defects.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct StateReconstruction {
    /// One reconstructed state per fragment, in fragment order.
    pub per_fragment: Vec<TraceState>,
    /// The ordered merge of all fragment states — bit-identical to a
    /// sequential walk of the whole trace.
    pub merged: TraceState,
    /// Boundary hand-off disagreements (fragment `i`'s exit state vs
    /// fragment `i+1`'s seeded entry state). Empty for a healthy trace.
    pub defects: Vec<BoundaryDefect>,
}

/// Reconstructs trace state fragment-parallel on up to `threads` scoped
/// workers, then runs the boundary hand-off check.
///
/// `expectations` are the index-derived entry seeds (one per fragment); pass
/// `None` to derive them from the fragments themselves via
/// [`derive_expectations`], which exercises the hand-off machinery as a
/// self-check when no external index exists.
pub fn reconstruct_fragments<F>(
    fragments: &[F],
    threads: usize,
    expectations: Option<&[BoundaryExpectation]>,
) -> StateReconstruction
where
    F: AsRef<[CollectedEvent]> + Sync,
{
    let per_fragment =
        btrace_analysis::map_reduce(fragments, threads, |_, f| TraceState::map(f.as_ref()));
    let derived;
    let expectations = match expectations {
        Some(e) => e,
        None => {
            derived = derive_expectations(&per_fragment);
            &derived
        }
    };
    let defects = check_handoff(&per_fragment, expectations);
    let merged = btrace_analysis::fold_merge(per_fragment.clone(), TraceState::merge)
        .unwrap_or_else(TraceState::empty);
    StateReconstruction { per_fragment, merged, defects }
}

/// Builds per-fragment entry expectations by prefix-merging the states in
/// fragment order — what a trustworthy frame index would have promised.
pub fn derive_expectations(states: &[TraceState]) -> Vec<BoundaryExpectation> {
    let mut out = Vec::with_capacity(states.len());
    let mut prefix = TraceState::empty();
    for (i, state) in states.iter().enumerate() {
        out.push(BoundaryExpectation {
            fragment: i,
            events_before: prefix.events,
            bytes_before: prefix.bytes,
            max_stamp_before: (!prefix.is_empty()).then_some(prefix.last_stamp),
            core_bitmap_before: prefix.core_bitmap,
        });
        prefix = prefix.merge(state.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::scenarios;
    use btrace_baselines::{Bbq, PerCoreDropNewest, PerCoreOverwrite, PerThread};
    use btrace_core::{BTrace, Config};

    fn btrace_sink() -> BTrace {
        BTrace::new(
            Config::new(12)
                .active_blocks(48)
                .block_bytes(1024)
                .buffer_bytes(1024 * 48 * 4)
                .backing(btrace_core::Backing::Heap),
        )
        .unwrap()
    }

    #[test]
    fn replays_against_btrace() {
        let scenario = scenarios::by_name("IM").unwrap();
        let report = Replayer::new(scenario, ReplayConfig::quick_test()).run(&btrace_sink());
        assert!(report.written > 1000);
        assert_eq!(report.dropped_at_record, 0, "BTrace never drops");
        assert!(!report.retained.is_empty());
        // Every retained stamp was actually written.
        let max = report.retained_stamps().last().copied().unwrap();
        assert!(max < report.written);
    }

    #[test]
    fn replays_against_all_baselines() {
        let scenario = scenarios::by_name("LockScr.").unwrap();
        let cfg = ReplayConfig::quick_test();
        let r = Replayer::new(scenario, cfg.clone());
        let total = 1 << 20;
        assert!(!r.run(&Bbq::new(total, 4096)).retained.is_empty());
        assert!(!r.run(&PerCoreOverwrite::new(12, total)).retained.is_empty());
        assert!(!r.run(&PerCoreDropNewest::new(12, total, 4)).retained.is_empty());
        assert!(!r.run(&PerThread::new(total, 480)).retained.is_empty());
    }

    #[test]
    fn core_level_uses_one_thread_per_core() {
        let scenario = scenarios::by_name("Desktop").unwrap();
        let cfg = ReplayConfig::quick_test().mode(ReplayMode::CoreLevel);
        let report = Replayer::new(scenario, cfg).run(&btrace_sink());
        assert!(report.tids_per_core.iter().all(|&t| t == 1));
    }

    #[test]
    fn thread_level_oversubscribes() {
        let scenario = scenarios::by_name("eShop-2").unwrap();
        let cfg = ReplayConfig { scale: 0.05, ..ReplayConfig::quick_test() };
        let report = Replayer::new(scenario, cfg).run(&btrace_sink());
        assert!(
            report.tids_per_core.iter().all(|&t| t > 30),
            "heavy workloads multiplex many threads per core: {:?}",
            report.tids_per_core
        );
    }

    #[test]
    fn stamps_are_unique_across_cores() {
        let scenario = scenarios::by_name("IM").unwrap();
        let report = Replayer::new(scenario, ReplayConfig::quick_test()).run(&btrace_sink());
        let stamps = report.retained_stamps();
        // retained_stamps dedups; equal length to raw retained means no dups.
        assert_eq!(stamps.len(), report.retained.len());
    }

    #[test]
    fn latency_sampling_collects() {
        let scenario = scenarios::by_name("Music").unwrap();
        let cfg = ReplayConfig { latency_sample_every: 16, ..ReplayConfig::quick_test() };
        let report = Replayer::new(scenario, cfg).run(&btrace_sink());
        assert!(!report.latencies_ns.is_empty());
        // Sampling is per core, so counts round per worker.
        let expect = report.written / 16;
        let got = report.latencies_ns.len() as u64;
        assert!(got.abs_diff(expect) <= 12, "got {got}, expected ≈{expect}");
    }

    #[test]
    fn preempted_writers_eventually_commit_everything() {
        // With drops impossible (BTrace) and all pendings flushed, the
        // newest stamp must always be retained.
        let scenario = scenarios::by_name("Video-3").unwrap();
        let report = Replayer::new(scenario, ReplayConfig::quick_test()).run(&btrace_sink());
        let newest = report.retained_stamps().last().copied().unwrap();
        assert!(newest >= report.written - (report.written / 10).max(2));
    }
}
