//! Cross-crate integration tests: replay → tracer → analysis, exercising
//! the same pipeline as the benchmark harness.

use btrace::analysis::analyze;
use btrace::baselines::{Bbq, PerCoreDropNewest, PerCoreOverwrite, PerThread};
use btrace::core::{BTrace, Config, RingSnapshot};
use btrace::replay::{scenarios, ReplayConfig, ReplayMode, Replayer};

const CORES: usize = 12;
const BLOCK: usize = 1024;
const ACTIVE: usize = 16 * CORES;
// Buffer must be a multiple of block_bytes * active_blocks.
const TOTAL: usize = BLOCK * ACTIVE * 12; // 2.25 MiB

fn btrace() -> BTrace {
    BTrace::new(Config::new(CORES).active_blocks(ACTIVE).block_bytes(BLOCK).buffer_bytes(TOTAL))
        .expect("valid configuration")
}

fn quick() -> ReplayConfig {
    ReplayConfig { scale: 0.02, slices: 8, latency_sample_every: 0, ..ReplayConfig::table2() }
}

/// Upper bound on entries per block: the smallest encodable entry is 24
/// bytes (16-byte header, 8-byte alignment), so one discarded block costs
/// at most this many stamps.
const MAX_ENTRIES_PER_BLOCK: u64 = (BLOCK / 24) as u64;

#[test]
fn btrace_never_drops_and_never_gaps_interior() {
    for name in ["LockScr.", "eShop-2", "Video-1"] {
        let scenario = scenarios::by_name(name).expect("scenario exists");
        let tracer = btrace();
        let report = Replayer::new(scenario, quick()).run(&tracer);
        assert_eq!(report.dropped_at_record, 0, "{name}: BTrace must never drop");
        let stats = tracer.stats();

        // Interior continuity is a *budget*, not a guess: the only
        // sanctioned content loss is a whole block discarded by skipping
        // (§3.4) or a straggler repair, each worth at most one block of
        // entries. Everything beyond that budget would be a real gap.
        let stamps = report.retained_stamps();
        let (oldest, newest) = (stamps[0], *stamps.last().expect("events retained"));
        let lost = (newest - oldest + 1) - stamps.len() as u64;
        let discarded_blocks = stats.skips + stats.straggler_repairs;
        let budget = discarded_blocks * MAX_ENTRIES_PER_BLOCK;
        assert!(
            lost <= budget,
            "{name}: {lost} stamps missing inside the retained range exceed the \
             discard budget {budget} ({} skips, {} repairs)",
            stats.skips,
            stats.straggler_repairs
        );
        let metrics = analyze(&report.retained, report.capacity_bytes);
        assert!(metrics.loss_rate < 0.25, "{name}: loss {}", metrics.loss_rate);

        // Newest-retention: the newest stamps can sit in blocks that were
        // skip-recycled while pinned by parked grants, so the tolerance is
        // the pinnable worst case (every core's parked budget) — not a
        // hand-tuned percentage.
        let slack = (CORES * quick().max_parked_per_core) as u64 * MAX_ENTRIES_PER_BLOCK;
        assert!(
            newest + 1 + slack >= report.written,
            "{name}: newest retained stamp {newest} trails written {} by more than \
             the parked-grant slack {slack}",
            report.written
        );
    }
}

#[test]
fn per_core_buffers_fragment_under_skew() {
    let scenario = scenarios::by_name("Video-1").expect("strongly skewed scenario");
    let config = quick().scale(0.08);
    let bt = Replayer::new(scenario, config.clone()).run(&btrace());
    let ft = Replayer::new(scenario, config).run(&PerCoreOverwrite::new(CORES, TOTAL));
    let bt_m = analyze(&bt.retained, bt.capacity_bytes);
    let ft_m = analyze(&ft.retained, ft.capacity_bytes);
    assert!(
        bt_m.latest_fragment_bytes > ft_m.latest_fragment_bytes,
        "BTrace latest fragment ({}) must beat per-core buffers ({}) under skew",
        bt_m.latest_fragment_bytes,
        ft_m.latest_fragment_bytes
    );
    assert!(
        ft_m.fragments > bt_m.fragments,
        "per-core buffers must fragment more: ftrace {} vs btrace {}",
        ft_m.fragments,
        bt_m.fragments
    );
}

#[test]
fn drop_newest_loses_newest_under_oversubscription() {
    let scenario = scenarios::by_name("eShop-2").expect("oversubscribed scenario");
    let config = quick().scale(0.08);
    let lt = Replayer::new(scenario, config).run(&PerCoreDropNewest::new(CORES, TOTAL, 2));
    assert!(lt.dropped_at_record > 0, "LTTng-style must drop under heavy preemption");
}

#[test]
fn per_thread_buffers_retain_least() {
    let scenario = scenarios::by_name("eShop-1").expect("scenario exists");
    let config = quick().scale(0.08);
    let threads = scenario.total_threads_per_core as usize * CORES;
    let vt = Replayer::new(scenario, config.clone()).run(&PerThread::new(TOTAL, threads));
    let bt = Replayer::new(scenario, config).run(&btrace());
    let vt_m = analyze(&vt.retained, vt.capacity_bytes);
    let bt_m = analyze(&bt.retained, bt.capacity_bytes);
    assert!(
        vt_m.latest_fragment_bytes * 4 < bt_m.latest_fragment_bytes,
        "per-thread latest fragment ({}) must be far below BTrace's ({})",
        vt_m.latest_fragment_bytes,
        bt_m.latest_fragment_bytes
    );
}

#[test]
fn bbq_matches_btrace_retention() {
    let scenario = scenarios::by_name("Desktop").expect("scenario exists");
    let config = quick().scale(0.08);
    let bbq = Replayer::new(scenario, config.clone()).run(&Bbq::new(TOTAL, BLOCK));
    let bt = Replayer::new(scenario, config).run(&btrace());
    let bbq_m = analyze(&bbq.retained, bbq.capacity_bytes);
    let bt_m = analyze(&bt.retained, bt.capacity_bytes);
    // §5.2: BTrace's latest fragment lands within ~15% of the global
    // buffer's near-ideal retention.
    assert!(
        bt_m.latest_fragment_bytes as f64 >= 0.8 * bbq_m.latest_fragment_bytes as f64,
        "BTrace {} vs BBQ {}",
        bt_m.latest_fragment_bytes,
        bbq_m.latest_fragment_bytes
    );
}

#[test]
fn core_level_and_thread_level_both_converge() {
    let scenario = scenarios::by_name("IM").expect("scenario exists");
    for mode in [ReplayMode::CoreLevel, ReplayMode::ThreadLevel] {
        let config = quick().mode(mode);
        let report = Replayer::new(scenario, config).run(&btrace());
        assert!(report.written > 0);
        assert!(!report.retained.is_empty(), "{mode:?} retained nothing");
    }
}

#[test]
fn resize_during_replay_keeps_recording() {
    let scenario = scenarios::by_name("Browser").expect("scenario exists");
    let stride = BLOCK * ACTIVE;
    let tracer = BTrace::new(
        Config::new(CORES)
            .active_blocks(16 * CORES)
            .block_bytes(1024)
            .buffer_bytes(stride)
            .max_bytes(4 * stride),
    )
    .expect("valid configuration");
    let t2 = tracer.clone();
    let resizer = std::thread::spawn(move || {
        for _ in 0..5 {
            t2.resize_bytes(4 * stride).expect("grow");
            t2.resize_bytes(stride).expect("shrink");
        }
    });
    let report = Replayer::new(scenario, quick()).run(&tracer);
    resizer.join().expect("resizer");
    assert_eq!(report.dropped_at_record, 0);
    assert!(tracer.stats().resizes >= 10);
}

#[test]
fn snapshot_and_close_is_pinned_at_wraparound() {
    // Regression pin for the destructive read at buffer wrap-around:
    // after writing 3x the buffer's capacity, `snapshot_and_close` must
    // hold a gap-free suffix ending at the newest stamp, every event's
    // `stored_bytes` must equal its encoded length, the snapshot total
    // must fit the buffer, and a post-close burst must land strictly
    // after everything returned.
    use btrace::core::event::encoded_len;

    const WRAP_BLOCK: usize = 256;
    const WRAP_ACTIVE: usize = 4;
    const WRAP_TOTAL: usize = WRAP_BLOCK * 16;
    const PAYLOAD: &[u8] = b"wrap-around payload."; // 20 B -> 40 B encoded
    let tracer = BTrace::new(
        Config::new(1).active_blocks(WRAP_ACTIVE).block_bytes(WRAP_BLOCK).buffer_bytes(WRAP_TOTAL),
    )
    .expect("valid configuration");
    let producer = tracer.producer(0).expect("core 0");
    // 40-byte entries, 240 usable bytes per block -> 6 events per block,
    // 96 events per buffer; 300 events wrap the buffer three times.
    const WRITES: u64 = 300;
    for i in 0..WRITES {
        producer.record_with(i, 7, PAYLOAD).expect("payload fits");
    }

    let (mut consumer, mut readout) = (tracer.consumer(), RingSnapshot::new());
    consumer.snapshot_and_close(&mut readout);
    let events = readout.to_events();

    let stamps: Vec<u64> = events.iter().map(|e| e.stamp).collect();
    assert!(!stamps.is_empty(), "a wrapped buffer still holds the newest window");
    let newest = *stamps.iter().max().expect("non-empty");
    assert_eq!(newest, WRITES - 1, "the newest stamp survives the wrap");
    let oldest = *stamps.iter().min().expect("non-empty");
    let mut sorted = stamps.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), stamps.len(), "no stamp is collected twice");
    assert_eq!(
        sorted,
        (oldest..=newest).collect::<Vec<u64>>(),
        "survivors form a gap-free suffix across the wrap seam"
    );

    // stored_bytes identities: per event, per readout, and within budget.
    for e in &events {
        assert_eq!(
            e.view().collected().stored_bytes as usize,
            encoded_len(PAYLOAD.len()),
            "stored_bytes must be the on-buffer footprint at stamp {}",
            e.stamp
        );
    }
    assert_eq!(
        readout.stored_bytes(),
        events.len() * encoded_len(PAYLOAD.len()),
        "readout total is the sum of its events"
    );
    assert!(
        readout.stored_bytes() <= WRAP_TOTAL,
        "a single readout can never exceed the buffer it came from"
    );

    // The destructive cut: everything recorded after the close lands
    // strictly after everything the readout returned.
    const FRESH: u64 = 10;
    for i in 0..FRESH {
        producer.record_with(WRITES + i, 7, PAYLOAD).expect("payload fits");
    }
    consumer.snapshot_and_close(&mut readout);
    let fresh: Vec<u64> =
        readout.to_events().iter().map(|e| e.stamp).filter(|&s| s >= WRITES).collect();
    assert_eq!(
        fresh,
        (WRITES..WRITES + FRESH).collect::<Vec<u64>>(),
        "post-close burst must be retained gap-free after the cut"
    );
}

#[test]
fn collected_events_match_what_was_written() {
    // Payload integrity across the whole pipeline: every drained stamp was
    // written exactly once with the size the generator chose.
    let scenario = scenarios::by_name("Music").expect("scenario exists");
    let report = Replayer::new(scenario, quick()).run(&btrace());
    let stamps = report.retained_stamps();
    assert_eq!(stamps.len(), report.retained.len(), "no duplicate stamps");
    assert!(stamps.iter().all(|&s| s < report.written));
}
