//! Replays the paper's shopping-app workload (Fig. 1b) against all five
//! tracer disciplines and prints the retention metrics plus a gap map —
//! a miniature of the paper's headline comparison.
//!
//! ```text
//! cargo run --release --example shopping_app_replay
//! ```

use btrace::analysis::{analyze, gap_map, GapMapOptions, Table};
use btrace::baselines::{Bbq, PerCoreDropNewest, PerCoreOverwrite, PerThread};
use btrace::core::{BTrace, Config};
use btrace::replay::{scenarios, ReplayConfig, ReplayReport, Replayer};

const CORES: usize = 12;
/// One BTrace resize stride: `block_bytes × active_blocks` (4 KiB × 16
/// blocks per core). BTrace's buffer must be a whole number of strides.
const STRIDE: usize = 4096 * 16 * CORES;
/// The one budget every tracer gets: five strides (3.75 MiB) keep the
/// example snappy.
const TOTAL: usize = 5 * STRIDE;

fn main() {
    let scenario = scenarios::by_name("eShop-1").expect("scenario exists");
    let config = ReplayConfig { scale: 0.1, ..ReplayConfig::table2() };
    let replayer = || Replayer::new(scenario, config.clone());

    let btrace = BTrace::new(
        Config::new(CORES).active_blocks(STRIDE / 4096).block_bytes(4096).buffer_bytes(TOTAL),
    )
    .expect("valid configuration");

    let reports: Vec<ReplayReport> = vec![
        replayer().run(&btrace),
        replayer().run(&Bbq::new(TOTAL, 4096)),
        replayer().run(&PerCoreOverwrite::new(CORES, TOTAL)),
        replayer().run(&PerCoreDropNewest::new(CORES, TOTAL, 4)),
        replayer().run(&PerThread::new(TOTAL, scenario.total_threads_per_core as usize * CORES)),
    ];

    let mut table = Table::new(vec![
        "Tracer".into(),
        "Latest fragment".into(),
        "Loss rate".into(),
        "Fragments".into(),
        "Dropped at record".into(),
    ]);
    for report in &reports {
        let m = analyze(&report.retained, report.capacity_bytes);
        table.row(vec![
            report.tracer.to_string(),
            format!("{:.2} MB", m.latest_fragment_bytes as f64 / (1 << 20) as f64),
            format!("{:.1}%", m.loss_rate * 100.0),
            m.fragments.to_string(),
            report.dropped_at_record.to_string(),
        ]);
    }
    println!("{}", table.render());

    println!("Retention of the last buffer-full of written events (newest right):\n");
    for report in &reports {
        let mean_entry = (report.written_bytes / report.written.max(1)).max(1);
        let window = (report.capacity_bytes as u64 / mean_entry).min(report.written);
        let map = gap_map(
            &report.retained_stamps(),
            report.written.saturating_sub(1),
            GapMapOptions { window, width: 64 },
        );
        println!("  {:<8}|{map}|", report.tracer);
    }
}
