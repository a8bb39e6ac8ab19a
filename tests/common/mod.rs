//! The seed harness of the seeded batteries ([`SUITES`]). One variable,
//! `BTRACE_SEED=<suite>:<n>` (`n` decimal or `0x`-hex; another suite's
//! value is ignored, a malformed one panics), moves the base of the
//! suite's batches. Seed `i` of a batch is `base + i·φ`, so case 0 is the
//! base. [`run_batch`] prints one replay line per failing case,
//! `BTRACE_SEED=<suite>:<seed> cargo test --test <suite> <filter>`, whose
//! batch runs that seed first under every parameter it could have had.
//! `tests/seed_harness.rs` tests this contract. [`stormed_stream`] is the
//! seeded workload the analysis and query suites share.

// Each suite uses its own part of the harness.
#![allow(dead_code)]

use btrace::core::sink::FullEvent;
use btrace::core::{BTrace, Backing, Config, RingSnapshot, TraceError};
use btrace::persist::encode_frame;
use btrace::vmem::{FaultPlan, SplitMix64};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The one variable that moves a suite's base seed.
pub const VAR: &str = "BTRACE_SEED";

/// The seeded batteries: the suites a `BTRACE_SEED` value may name.
pub const SUITES: [&str; 5] =
    ["differential", "fault_injection", "controller", "analysis_parallel", "query"];

/// This test binary's name, used by its replay lines.
pub const SUITE: &str = env!("CARGO_CRATE_NAME");

/// Where a batch's seeds start. A `replay` base came from `BTRACE_SEED`,
/// so case 0 runs under every parameter value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Base {
    pub seed: u64,
    pub replay: bool,
}

impl Base {
    /// A base that `BTRACE_SEED` does not move.
    pub fn pinned(seed: u64) -> Self {
        Self { seed, replay: false }
    }

    /// The seed of a `BTRACE_SEED` value naming this suite, else `default`.
    pub fn from_env(default: u64) -> Self {
        let value = std::env::var_os(VAR).map(|v| v.to_string_lossy().into_owned());
        Self::from_value(value.as_deref(), default)
    }

    /// [`Base::from_env`] for a given value of the variable.
    pub fn from_value(value: Option<&str>, default: u64) -> Self {
        match value.and_then(|v| parse(SUITE, v)) {
            Some(seed) => Self { seed, replay: true },
            None => Self::pinned(default),
        }
    }
}

/// Parses a `BTRACE_SEED` value: `Some(n)` when it names `suite`, `None`
/// when it names another seeded suite; panics on anything else.
pub fn parse(suite: &str, value: &str) -> Option<u64> {
    let Some((name, n)) = value.split_once(':') else { malformed(value) };
    if name != suite {
        return if SUITES.contains(&name) { None } else { malformed(value) };
    }
    let n = match n.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => n.parse(),
    };
    Some(n.unwrap_or_else(|_| malformed(value)))
}

fn malformed(value: &str) -> ! {
    panic!("{VAR}={value:?} is not <suite>:<n>, <suite> in {SUITES:?}, n decimal or 0x-hex")
}

/// The cases of a batch of `count` seeds from `base`: seed `i` is
/// `base + i·φ` and runs under `pair(i, seed)`, except that a replayed
/// base runs under every value of `params`.
pub fn cases<P: Copy>(
    base: Base,
    count: u64,
    params: &[P],
    pair: impl Fn(u64, u64) -> P,
) -> Vec<(u64, P)> {
    let mut cases = Vec::new();
    for i in 0..count {
        let seed = base.seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if i == 0 && base.replay {
            cases.extend(params.iter().map(|&p| (seed, p)));
        } else {
            cases.push((seed, pair(i, seed)));
        }
    }
    cases
}

/// Runs every case, catching its panic (the panic hook prints its message
/// and place), and returns the replay line of each failure after printing
/// it.
pub fn failures<P: Copy + Debug>(
    filter: &str,
    cases: &[(u64, P)],
    run: impl Fn(u64, P),
) -> Vec<String> {
    let mut lines = Vec::new();
    for &(seed, param) in cases {
        if catch_unwind(AssertUnwindSafe(|| run(seed, param))).is_err() {
            let line = format!("{VAR}={SUITE}:{seed} cargo test --test {SUITE} {filter}");
            eprintln!("{SUITE} FAILED: seed {seed} with {param:?}; replay: {line}");
            lines.push(line);
        }
    }
    lines
}

/// Runs a batch and asserts that every case passed. `filter` names the
/// test whose batch replays a failure.
pub fn run_batch<P: Copy + Debug>(filter: &str, cases: &[(u64, P)], run: impl Fn(u64, P)) {
    eprintln!("{SUITE}: {} cases from seed {}", cases.len(), cases[0].0);
    let failed = failures(filter, cases, run);
    let (n, all) = (failed.len(), cases.len());
    assert!(failed.is_empty(), "{n} of {all} cases failed:\n{}", failed.join("\n"));
}

/// [`run_batch`] over `count` seeds from `base`, with no parameter.
pub fn run_seeds(filter: &str, base: Base, count: u64, run: impl Fn(u64)) {
    run_batch(filter, &cases(base, count, &[()], |_, _| ()), |seed, ()| run(seed));
}

/// Cores of [`stormed_tracer`].
pub const CORES: usize = 4;
/// Resize step of [`stormed_tracer`]: 8 active blocks of 256 bytes.
pub const STRIDE: usize = 256 * 8;

/// A tracer of [`CORES`] cores on the heap, 4 strides growing to 16,
/// whose backing fails commits, commits in part, fails decommits and
/// defers decommits at the four `rates` on the schedule of `plan_seed`.
pub fn stormed_tracer(plan_seed: u64, rates: [f64; 4]) -> BTrace {
    let plan = FaultPlan::new(plan_seed)
        .commit_failure_rate(rates[0])
        .partial_commit_rate(rates[1])
        .decommit_failure_rate(rates[2])
        .delayed_decommit_rate(rates[3])
        .arm_after_ops(1);
    let config = Config::new(CORES).active_blocks(8).block_bytes(STRIDE / 8);
    let config = config.buffer_bytes(4 * STRIDE).max_bytes(16 * STRIDE).backing(Backing::Heap);
    BTrace::new(config.fault_plan(plan)).expect("valid configuration")
}

/// The fault-stormed, resizing, occasionally lapped workload of `seed`,
/// framed as the stream delivers it, empty frames included: what `btrace
/// stream --out` persists. Odd cores coalesce their confirms when
/// `coalesce` is set; `payload(rng, stamp)` draws each event's payload.
pub fn stormed_stream(
    seed: u64,
    coalesce: bool,
    mut payload: impl FnMut(&mut SplitMix64, u64) -> Vec<u8>,
) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let n_ops = 2_000 + rng.next_u64() % 2_000;
    let tracer = stormed_tracer(seed ^ 0xFA01_57A2, [0.2, 0.1, 0.15, 0.1]);
    let (mut stream, mut snap) = (tracer.stream(), RingSnapshot::new());
    let producers: Vec<_> = (0..CORES).map(|c| tracer.producer(c).unwrap()).collect();
    for (core, p) in producers.iter().enumerate() {
        if coalesce && core % 2 == 1 {
            p.set_confirm_coalescing(true);
        }
    }

    let (mut out, mut seq) = (Vec::new(), 0u64);
    let mut emit = |events: Vec<FullEvent>| {
        out.extend_from_slice(&encode_frame(seq, &events));
        seq += 1;
    };
    // Cadences up to ~200 records between polls let bursts overrun the
    // 32-block window, so some seeds genuinely lap the stream.
    let mut next_poll = 1 + rng.next_u64() % 200;
    for stamp in 0..n_ops {
        let core = (rng.next_u64() as usize) % CORES;
        let payload = payload(&mut rng, stamp);
        producers[core].record_with(stamp, core as u32, &payload).unwrap();

        if rng.next_u64().is_multiple_of(127) {
            for p in &producers {
                p.flush_confirms();
            }
            let ratio = 2 + (rng.next_u64() as usize) % 7;
            match tracer.resize_bytes(ratio * STRIDE) {
                Ok(()) | Err(TraceError::Region(_)) => {}
                Err(other) => panic!("seed {seed}: unexpected resize error {other:?}"),
            }
        }

        next_poll -= 1;
        if next_poll == 0 {
            stream.poll(&mut snap);
            if snap.count() > 0 || rng.next_u64().is_multiple_of(13) {
                emit(snap.to_events());
            }
            next_poll = 1 + rng.next_u64() % 200;
        }
    }
    drop(producers);
    stream.flush_close(&mut snap);
    emit(snap.to_events());
    out
}
