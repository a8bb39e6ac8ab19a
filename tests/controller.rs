//! Deterministic load-storm scenarios for the adaptive-sizing controller.
//!
//! Each test drives a real tracer tick-by-tick with a replay-model-shaped
//! workload (app-launch spike, scroll-jank bursts, background sync over a
//! steady drip) and feeds the pure [`Controller`] the resulting health
//! snapshots — no background threads, no wall-clock, so every run is a
//! pure function of its seed. The contract under test:
//!
//! * the controller holds the retention loss-rate at or under its target
//!   once converged, where the static seed-size buffer demonstrably loses
//!   more on the same workload;
//! * capacity never exceeds the hard budget, on any tick;
//! * the resize count stays bounded (hysteresis + cooldown: no thrash);
//! * a fault storm that makes every grow fall back produces exponential
//!   back-off — a handful of probes, not one attempt per tick;
//! * a failing seed of the random batch replays from its printed line
//!   (`BTRACE_SEED=controller:<seed> cargo test --test controller
//!   random_seed_batch_holds_the_loss_target`; see `tests/common`), under
//!   every shape the batch could have paired with it.

use btrace::core::{BTrace, Backing, Config, RingSnapshot};
use btrace::telemetry::{Controller, ControllerConfig, EventKind};
use btrace::vmem::{FaultPlan, SplitMix64};
use common::{cases, run_batch, Base};
use std::collections::HashSet;

mod common;

const BLOCK: usize = 1024;
const ACTIVE: usize = 8;
const STRIDE: usize = BLOCK * ACTIVE; // 8 KiB resize granularity
const START_BYTES: usize = 2 * STRIDE; // 16 KiB seed-size buffer
const MAX_BYTES: usize = 64 * STRIDE; // 512 KiB reserved ceiling
/// ~64 B per event on the wire (header + payload below).
const PAYLOAD: &[u8] = b"controller-storm synthetic event payload";

/// Base seed when `BTRACE_SEED` does not name this suite.
const DEFAULT_BASE_SEED: u64 = 0xC0_47_20_11_E4;

/// Events to record on `tick`, per scenario shape (with seeded jitter).
type Shape = fn(u64, &mut SplitMix64) -> u64;

/// App launch: a hard 15-tick spike, then a moderate steady state.
fn launch_spike(tick: u64, rng: &mut SplitMix64) -> u64 {
    if tick < 15 {
        2_500 + rng.next_u64() % 400
    } else {
        250 + rng.next_u64() % 50
    }
}

/// Scroll jank: a big burst every 8th tick over a light baseline.
fn scroll_jank(tick: u64, rng: &mut SplitMix64) -> u64 {
    if tick.is_multiple_of(8) {
        2_000 + rng.next_u64() % 300
    } else {
        150 + rng.next_u64() % 30
    }
}

/// Background sync: a 4-tick medium burst every 20 ticks over a drip.
fn background_sync(tick: u64, rng: &mut SplitMix64) -> u64 {
    if tick % 20 < 4 {
        800 + rng.next_u64() % 100
    } else {
        80 + rng.next_u64() % 16
    }
}

struct StormOutcome {
    /// Retention loss over the post-convergence window, in ppm.
    window_loss_ppm: u64,
    /// Successful resizes applied by the controller.
    resizes: u64,
    /// Resize failures / observed fallbacks booked by the controller.
    failures: u64,
    /// Final buffer capacity in bytes.
    final_capacity: u64,
    /// Controller event kinds retained by the flight recorder.
    kinds: Vec<EventKind>,
}

/// Runs `ticks` single-threaded workload ticks against one tracer. With
/// `controlled`, the pure controller observes a stamped snapshot after
/// every tick and its decisions are applied; without, the buffer stays at
/// its seed size (the static baseline). Loss is measured by stamp-set
/// retention over the window `[warmup, ticks)`: every recorded stamp that
/// never shows up in any snapshot was overwritten before it could be read.
#[allow(clippy::too_many_arguments)] // scenario knobs read better flat than bundled
fn run_storm(
    seed: u64,
    shape: Shape,
    ticks: u64,
    warmup: u64,
    budget: u64,
    target_loss_ppm: u64,
    plan: Option<FaultPlan>,
    controlled: bool,
) -> StormOutcome {
    let mut config = Config::new(1)
        .active_blocks(ACTIVE)
        .block_bytes(BLOCK)
        .buffer_bytes(START_BYTES)
        .max_bytes(MAX_BYTES)
        .backing(Backing::Heap);
    if let Some(plan) = plan {
        config = config.fault_plan(plan);
    }
    let tracer = BTrace::new(config).expect("valid storm configuration");
    let mut controller = Controller::new(
        ControllerConfig {
            budget_bytes: budget,
            target_loss_ppm,
            cooldown_ticks: 1,
            shrink_patience: 4,
            max_backoff_ticks: 32,
            ..ControllerConfig::default()
        },
        tracer.flight_recorder(),
    );
    let stats = controller.stats();

    let mut rng = SplitMix64::new(seed);
    let producer = tracer.producer(0).expect("core 0");
    let (mut consumer, mut drained) = (tracer.consumer(), RingSnapshot::new());
    let mut recorded_per_tick = vec![0u64; ticks as usize];
    let mut retained: HashSet<u64> = HashSet::new();

    for tick in 0..ticks {
        let events = shape(tick, &mut rng);
        recorded_per_tick[tick as usize] = events;
        for i in 0..events {
            producer
                .record_with((tick << 32) | i, 0, PAYLOAD)
                .expect("producers must never fail under a storm");
        }
        // The drain: non-destructive snapshot, then close the open block
        // so its events become readable by the next tick's snapshot.
        consumer.snapshot_and_close(&mut drained);
        retained.extend(drained.to_events().iter().map(|e| e.stamp));

        if controlled {
            let mut snap = tracer.health_snapshot();
            snap.seq = tick + 1;
            snap.age_ms = 10;
            let decision = controller.observe(&snap, &tracer);
            controller.apply(&decision, &tracer);
        }
        assert!(
            tracer.capacity_bytes() as u64 <= budget.max(START_BYTES as u64),
            "seed {seed} tick {tick}: capacity {} exceeds budget {budget}",
            tracer.capacity_bytes()
        );
    }
    // Scoop the final open block.
    consumer.snapshot_and_close(&mut drained);
    retained.extend(drained.to_events().iter().map(|e| e.stamp));
    consumer.snapshot(&mut drained);
    retained.extend(drained.to_events().iter().map(|e| e.stamp));

    let window_recorded: u64 = recorded_per_tick[warmup as usize..].iter().sum();
    let window_retained = retained.iter().filter(|&&s| (s >> 32) >= warmup).count() as u64;
    let lost = window_recorded.saturating_sub(window_retained);
    let kinds = tracer
        .flight_recorder()
        .snapshot()
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::CtrlObserve
                    | EventKind::CtrlResize
                    | EventKind::CtrlBackoff
                    | EventKind::CtrlBudgetClamp
            )
        })
        .map(|e| e.kind)
        .collect();
    StormOutcome {
        window_loss_ppm: lost * 1_000_000 / window_recorded.max(1),
        resizes: stats.resizes.load(std::sync::atomic::Ordering::Relaxed),
        failures: stats.failures.load(std::sync::atomic::Ordering::Relaxed),
        final_capacity: tracer.capacity_bytes() as u64,
        kinds,
    }
}

/// One assertion bundle shared by the scenario tests.
fn assert_holds(seed: u64, name: &str, shape: Shape, budget: u64, max_resizes: u64) {
    const TARGET_PPM: u64 = 20_000; // 2 % of window events
    eprintln!("controller storm `{name}` seed {seed}");
    let auto = run_storm(seed, shape, 60, 12, budget, TARGET_PPM, None, true);
    let stat = run_storm(seed, shape, 60, 12, budget, TARGET_PPM, None, false);
    eprintln!(
        "  controlled {} ppm vs static {} ppm; {} resize(s), {} failure(s), final {} KiB",
        auto.window_loss_ppm,
        stat.window_loss_ppm,
        auto.resizes,
        auto.failures,
        auto.final_capacity / 1024
    );
    assert!(
        auto.window_loss_ppm <= TARGET_PPM,
        "{name} seed {seed}: controller loss {} ppm above target {TARGET_PPM}",
        auto.window_loss_ppm
    );
    assert!(
        stat.window_loss_ppm > 5 * TARGET_PPM.max(auto.window_loss_ppm),
        "{name} seed {seed}: static seed-size buffer must demonstrably lose more \
         (static {} ppm vs controlled {} ppm)",
        stat.window_loss_ppm,
        auto.window_loss_ppm
    );
    assert!(
        auto.resizes <= max_resizes,
        "{name} seed {seed}: {} resizes — the controller is thrashing",
        auto.resizes
    );
    assert!(auto.resizes > 0, "{name} seed {seed}: the controller never adapted");
    assert!(auto.final_capacity as usize <= MAX_BYTES);
    assert!(
        auto.kinds.contains(&EventKind::CtrlObserve) && auto.kinds.contains(&EventKind::CtrlResize),
        "{name} seed {seed}: decisions must land in the flight recorder, got {:?}",
        auto.kinds
    );
    assert!(
        stat.resizes == 0 && !stat.kinds.contains(&EventKind::CtrlResize),
        "the static baseline must not resize"
    );
}

#[test]
fn launch_spike_holds_loss_under_budget() {
    assert_holds(0x0A_B5_01, "launch-spike", launch_spike, 32 * STRIDE as u64, 8);
}

#[test]
fn scroll_jank_bursts_hold_loss_under_budget() {
    assert_holds(0x0A_B5_02, "scroll-jank", scroll_jank, 32 * STRIDE as u64, 8);
}

#[test]
fn background_sync_over_drip_does_not_thrash() {
    assert_holds(0x0A_B5_03, "background-sync", background_sync, 16 * STRIDE as u64, 6);
}

#[test]
fn fault_storm_backs_off_exponentially_instead_of_hammering() {
    // Every commit after construction fails: each grow the controller
    // attempts falls back to the seed geometry. The controller must keep
    // producers alive, register every fallback, and space its probes out
    // exponentially — not retry on every tick.
    let seed = 0xFA_17_5E_ED;
    eprintln!("controller storm `fault-storm` seed {seed}");
    let plan = FaultPlan::new(seed).commit_failure_rate(1.0).arm_after_ops(1);
    let out = run_storm(seed, launch_spike, 60, 12, 32 * STRIDE as u64, 20_000, Some(plan), true);
    assert_eq!(out.resizes, 0, "no grow can succeed under a total commit-fault storm");
    assert!(out.failures >= 2, "fallbacks must be booked as failures, got {}", out.failures);
    assert!(
        out.kinds.contains(&EventKind::CtrlBackoff),
        "back-off decisions must land in the flight recorder, got {:?}",
        out.kinds
    );
    let attempts = out.kinds.iter().filter(|k| **k == EventKind::CtrlResize).count();
    assert!(
        (1..=8).contains(&attempts),
        "exponential back-off bounds resize probes over 60 ticks, got {attempts}"
    );
    assert_eq!(out.final_capacity, START_BYTES as u64, "every grow fell back");
}

#[test]
fn random_seed_batch_holds_the_loss_target() {
    // A fresh batch each CI run (the workflow exports a random
    // BTRACE_SEED); case i runs shape i mod 3, and a failing seed prints
    // its replay line, so it replays bit-for-bit on a developer machine.
    const SHAPES: [(&str, Shape); 3] = [
        ("launch-spike", launch_spike),
        ("scroll-jank", scroll_jank),
        ("background-sync", background_sync),
    ];
    let cases = cases(Base::from_env(DEFAULT_BASE_SEED), 3, &[0, 1, 2], |i, _| i as usize % 3);
    run_batch("random_seed_batch_holds_the_loss_target", &cases, |seed, shape| {
        let (name, shape) = SHAPES[shape];
        assert_holds(seed, name, shape, 32 * STRIDE as u64, 8)
    });
}
