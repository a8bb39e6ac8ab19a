//! Shared harness for the `paper` binary's tables and figures: construct
//! the five tracers under the paper's §5 configuration and run replays.

use btrace_analysis::{analyze, LatencyStats, Metrics};
use btrace_baselines::{Bbq, PerCoreDropNewest, PerCoreOverwrite, PerThread};
use btrace_core::{BTrace, Config};
use btrace_replay::{ReplayConfig, ReplayMode, ReplayReport, Replayer, Scenario};

/// The evaluation buffer: 12 MB total, 4 KiB blocks, `A = 16 × C` (§5).
pub const TOTAL_BYTES: usize = 12 << 20;
/// Data block size (one page).
pub const BLOCK_BYTES: usize = 4096;
/// Cores of the simulated phone.
pub const CORES: usize = 12;
/// LTTng sub-buffers per core (lttng-ust default of 4).
pub const LTTNG_SUBS: usize = 4;

/// Tracer identifiers, in the paper's presentation order.
pub const TRACERS: [&str; 5] = ["BTrace", "BBQ", "ftrace", "LTTng", "VTrace"];

/// Builds the BTrace instance under the evaluation configuration, with a
/// caller-chosen number of active blocks.
pub fn btrace_with_active(active: usize) -> BTrace {
    let stride = BLOCK_BYTES * active;
    // Round the 12 MB budget to the resize stride.
    let buffer = (TOTAL_BYTES / stride).max(1) * stride;
    BTrace::new(
        Config::new(CORES).active_blocks(active).block_bytes(BLOCK_BYTES).buffer_bytes(buffer),
    )
    .expect("evaluation configuration is valid")
}

/// The default BTrace (sweet spot `A = 16 × C`, §5.1).
pub fn btrace() -> BTrace {
    btrace_with_active(16 * CORES)
}

/// One (metrics, latency) outcome of a replay.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Tracer name.
    pub tracer: &'static str,
    /// Retention metrics.
    pub metrics: Metrics,
    /// Latency summary (empty sample when sampling was off).
    pub latency: LatencyStats,
    /// The raw report (for gap maps and CDFs).
    pub report: ReplayReport,
}

/// Replays `scenario` against one named tracer under the §5 configuration.
pub fn run_tracer(name: &str, scenario: &'static Scenario, config: &ReplayConfig) -> Outcome {
    let replayer = Replayer::new(scenario, config.clone());
    let expected_threads = scenario.total_threads_per_core as usize * CORES;
    let report = match name {
        "BTrace" => replayer.run(&btrace()),
        "BBQ" => replayer.run(&Bbq::new(TOTAL_BYTES, BLOCK_BYTES)),
        "ftrace" => replayer.run(&PerCoreOverwrite::new(CORES, TOTAL_BYTES)),
        "LTTng" => replayer.run(&PerCoreDropNewest::new(CORES, TOTAL_BYTES, LTTNG_SUBS)),
        "VTrace" => replayer.run(&PerThread::new(TOTAL_BYTES, expected_threads)),
        other => panic!("unknown tracer {other}"),
    };
    let tracer = TRACERS.into_iter().find(|&t| t == name).expect("matched above");
    let metrics = analyze(&report.retained, report.capacity_bytes);
    let latency = LatencyStats::from_samples(report.latencies_ns.clone());
    Outcome { tracer, metrics, latency, report }
}

/// Parses the replay flags shared by the figures: `--scale X`,
/// `--seed N` and `--mode core|thread`. An unknown flag, a flag without a
/// value, a value that does not parse (or a scale that is not a positive
/// number) and an unknown mode are errors.
pub fn config_from_args<S: AsRef<str>>(
    default_scale: f64,
    args: &[S],
) -> Result<ReplayConfig, String> {
    let mut config = ReplayConfig { scale: default_scale, ..ReplayConfig::table2() };
    let mut args = args.iter().map(AsRef::as_ref);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            "--scale" => {
                config.scale = parse(flag, value()?)?;
                if !(config.scale.is_finite() && config.scale > 0.0) {
                    return Err(format!("--scale must be a positive number, got {}", config.scale));
                }
            }
            "--seed" => config.seed = parse(flag, value()?)?,
            "--mode" => {
                config.mode = match value()? {
                    "core" => ReplayMode::CoreLevel,
                    "thread" => ReplayMode::ThreadLevel,
                    other => return Err(format!("unknown mode {other} (expected core or thread)")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(config)
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad value {value} for {flag}"))
}

/// Geometric mean over per-scenario values (the Table 2 "G.M." column).
pub fn geomean_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrace_replay::scenarios;

    #[test]
    fn btrace_matches_evaluation_geometry() {
        let t = btrace();
        assert_eq!(t.cores(), 12);
        assert_eq!(t.block_bytes(), 4096);
        assert_eq!(t.active_blocks(), 192);
        assert_eq!(t.capacity_bytes(), 12 << 20);
    }

    #[test]
    fn run_tracer_produces_outcomes_for_all_five() {
        let scenario = scenarios::by_name("Music").unwrap();
        let config = ReplayConfig {
            scale: 0.002,
            slices: 4,
            latency_sample_every: 32,
            ..ReplayConfig::table2()
        };
        for name in TRACERS {
            let outcome = run_tracer(name, scenario, &config);
            assert_eq!(outcome.tracer, name);
            assert!(outcome.report.written > 0, "{name} wrote nothing");
        }
    }

    #[test]
    fn config_from_args_accepts_every_flag() {
        let config =
            config_from_args(0.25, &["--scale", "0.5", "--seed", "9", "--mode", "core"]).unwrap();
        assert_eq!(config.scale, 0.5);
        assert_eq!(config.seed, 9);
        assert_eq!(config.mode, ReplayMode::CoreLevel);
        let config = config_from_args::<&str>(0.25, &[]).unwrap();
        assert_eq!((config.scale, config.mode), (0.25, ReplayMode::ThreadLevel));
    }

    #[test]
    fn config_from_args_rejects_malformed_lines() {
        for (args, error) in [
            (&["--threads", "4"][..], "unknown flag --threads"),
            (&["--scale"], "--scale needs a value"),
            (&["--scale", "abc"], "bad value abc for --scale"),
            (&["--scale", "-1"], "--scale must be a positive number, got -1"),
            (&["--seed", "0.5"], "bad value 0.5 for --seed"),
            (&["--mode", "cpu"], "unknown mode cpu (expected core or thread)"),
        ] {
            assert_eq!(config_from_args(0.25, args), Err(error.to_string()), "{args:?}");
        }
    }

    #[test]
    fn geomean_f64_basics() {
        assert!((geomean_f64(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean_f64(&[]), 0.0);
    }
}
