//! perfbench — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <live_export|dump_on_symptom|store_query>
//!           --seed <n> --seconds <s> --trace <0|1> [--count-allocs <0|1>]
//! ```
//!
//! Runs one workload from a seed for `--seconds`, checks the program's
//! outputs, and prints one JSON line: with `--trace 0` every end-to-end
//! metric, with `--trace 1` every per-layer metric (the timed window is then
//! split into an untraced and a traced half, and the difference between the
//! two is reported as tracing overhead). Exit code 1 means a correctness
//! check failed, 2 a bad argument. See `README.md` for the metric map.

mod alloc;
mod dump_on_symptom;
mod gen;
mod live_export;
mod report;
mod spans;
mod store_query;
mod sys;

use report::{metric, result_json, Metric, Outcome};
use spans::Spans;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// End-to-end metrics, printed by every workload: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("bytes_per_event", "B"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("cpu_ns_per_event", "ns"),
];

/// Per-layer metrics of the traced run, in output order: `(name, unit)`.
/// A workload prints 0 for a layer it does not run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.record.ns_p50", "ns"),
    ("core.record.ns_p99", "ns"),
    ("core.record.allocs_per_event", "count"),
    ("core.stats.closes_per_mevent", "count"),
    ("core.stats.skips_per_mevent", "count"),
    ("core.stream.missed_blocks", "count"),
    ("core.consumer.collect_ms", "ms"),
    ("core.consumer.allocs_per_event", "count"),
    ("core.retention.effectivity", "ratio"),
    ("persist.pipeline.drain.cpu_ns_per_event", "ns"),
    ("persist.pipeline.batch.cpu_ns_per_event", "ns"),
    ("persist.pipeline.encode.cpu_ns_per_event", "ns"),
    ("persist.pipeline.sink.cpu_ns_per_event", "ns"),
    ("persist.pipeline.drain.latency_us_p50", "us"),
    ("persist.pipeline.batch.latency_us_p50", "us"),
    ("persist.pipeline.encode.latency_us_p50", "us"),
    ("persist.pipeline.sink.latency_us_p50", "us"),
    ("persist.pipeline.drain.queue_wait_us_p50", "us"),
    ("persist.pipeline.batch.queue_wait_us_p50", "us"),
    ("persist.pipeline.encode.queue_wait_us_p50", "us"),
    ("persist.pipeline.sink.queue_wait_us_p50", "us"),
    ("persist.pipeline.batch.dropped", "count"),
    ("persist.pipeline.encode.dropped", "count"),
    ("persist.pipeline.sink.dropped", "count"),
    ("persist.pipeline.allocs_per_event", "count"),
    ("persist.sink.events_per_frame", "count"),
    ("persist.dump.write_ms", "ms"),
    ("persist.store.open_ms", "ms"),
    ("persist.query.core.ms_p50", "ms"),
    ("persist.query.category.ms_p50", "ms"),
    ("persist.query.full.ms_p50", "ms"),
    ("persist.analyze.ms_p50", "ms"),
    ("persist.query.slice.frames_decoded_fraction", "ratio"),
    ("persist.query.core.frames_decoded_fraction", "ratio"),
    ("persist.query.category.frames_decoded_fraction", "ratio"),
    ("persist.query.full.frames_decoded_fraction", "ratio"),
    ("persist.query.unattributed_ms", "ms"),
    ("persist.decode.ns_per_event", "ns"),
    ("persist.decode.allocs_per_event", "count"),
    ("persist.analyze.scan_ms", "ms"),
    ("persist.analyze.busy_ms", "ms"),
    ("analysis.map.ns_per_event", "ns"),
    ("analysis.merge_ms", "ms"),
    ("bench.generator.late_us_p99", "us"),
    ("bench.trace_overhead.setup_s", "ratio"),
    ("bench.trace_overhead.peak_rss_mib", "ratio"),
    ("bench.trace_overhead.bytes_per_event", "ratio"),
    ("bench.trace_overhead.latency_ms_p50", "ratio"),
    ("bench.trace_overhead.latency_ms_p90", "ratio"),
    ("bench.trace_overhead.cpu_ns_per_event", "ratio"),
];

/// What every workload gets: its seed, the length of its timed window, and
/// a scratch directory inside the working directory.
pub struct Ctx {
    pub seed: u64,
    pub window: Duration,
    pub work: PathBuf,
}

type Measure = fn(&Ctx, &mut Spans) -> Result<Outcome, String>;

/// `(name, measure, its per-layer metrics)`.
const WORKLOADS: [(&str, Measure, &[&str]); 3] = [
    ("live_export", live_export::measure, live_export::LAYERS),
    ("dump_on_symptom", dump_on_symptom::measure, dump_on_symptom::LAYERS),
    ("store_query", store_query::measure, store_query::LAYERS),
];

const USAGE: &str = "usage: perfbench --workload <live_export|dump_on_symptom|store_query> \
                     --seed <n> --seconds <s> --trace <0|1> [--count-allocs <0|1>]";

struct Args {
    workload: usize,
    seed: u64,
    seconds: u64,
    trace: bool,
    count_allocs: Option<bool>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut count_allocs) =
        (None, None, None, None, None);
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        let bit = |v: &str| match v {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(bad()),
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(WORKLOADS.iter().position(|w| w.0 == value).ok_or_else(bad)?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?),
            "--trace" => trace = Some(bit(&value)?),
            "--count-allocs" => count_allocs = Some(bit(&value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        count_allocs,
    })
}

/// A scratch directory removed when dropped, also on early return.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `(traced − untraced) / untraced` for every end-to-end metric.
fn overhead(untraced: &Outcome, traced: &Outcome) -> Vec<Metric> {
    END_TO_END
        .iter()
        .filter_map(|&(name, _)| {
            let (u, t) = (untraced.get(name)?, traced.get(name)?);
            Some(metric(format!("bench.trace_overhead.{name}"), (t - u) / u, "ratio"))
        })
        .collect()
}

/// Orders `produced` as `list`; a listed metric of a layer the workload
/// does not run reads 0, a produced metric missing from the list is a bug.
fn arrange(list: &[(&str, &'static str)], own: &[&str], produced: Vec<Metric>) -> Vec<Metric> {
    for m in &produced {
        assert!(
            list.iter().any(|&(n, u)| n == m.name && u == m.unit),
            "unlisted metric {} ({})",
            m.name,
            m.unit
        );
    }
    list.iter()
        .filter_map(|&(name, unit)| match produced.iter().find(|m| m.name == name) {
            Some(m) => Some(m.clone()),
            None if own.contains(&name) || name.starts_with("bench.trace_overhead.") => None,
            None => Some(metric(name, 0.0, unit)),
        })
        .collect()
}

fn run(args: &Args, work: &Path) -> Result<(Vec<Metric>, u64, u64), String> {
    let (name, measure, own) = WORKLOADS[args.workload];
    let window = Duration::from_secs(args.seconds);
    let ctx = |window| Ctx { seed: args.seed, window, work: work.to_path_buf() };
    alloc::set_counting(args.count_allocs.unwrap_or(args.trace));
    if !args.trace {
        let outcome = measure(&ctx(window), &mut Spans::new(false, Instant::now()))?;
        return Ok((arrange(&END_TO_END, &[], outcome.e2e), outcome.attempted, outcome.failed));
    }
    let untraced = measure(&ctx(window / 2), &mut Spans::new(false, Instant::now()))?;
    let mut spans = Spans::new(true, Instant::now());
    let mut traced = measure(&ctx(window / 2), &mut spans)?;
    let spans_path = Path::new(".perfbench").join(format!("spans-{name}-seed{}.tsv", args.seed));
    spans.write_tsv(&spans_path).map_err(|e| format!("{}: {e}", spans_path.display()))?;
    eprintln!("spans written to {}; self time by span:", spans_path.display());
    for (span, (count, total, own_ns)) in spans.summary() {
        eprintln!(
            "  {span:32} n={count:<8} total={:>10.3} ms  self={:>10.3} ms",
            total as f64 / 1e6,
            own_ns as f64 / 1e6
        );
    }
    let mut layers = std::mem::take(&mut traced.layers);
    layers.extend(overhead(&untraced, &traced));
    Ok((
        arrange(PER_LAYER, own, layers),
        untraced.attempted + traced.attempted,
        untraced.failed + traced.failed,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = WorkDir(Path::new(".perfbench").join(format!("run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("perfbench: cannot create {}: {e}", work.0.display());
        return ExitCode::from(1);
    }
    match run(&args, &work.0) {
        Ok((metrics, attempted, failed)) => {
            println!("{}", result_json(true, attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: correctness check failed: {e}");
            println!("{}", result_json(false, 1, 1, &[]));
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload store_query --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (2, 7, 3, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload live_export --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload live_export --seconds 1").is_err());
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .chain(WORKLOADS.iter().map(|w| w.0));
        let mut count = 0;
        for name in names {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
            count += 1;
        }
        assert_eq!(json.matches("\"name\":").count(), count, "BENCHMARK.json lists extra metrics");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} unit"
            );
        }
    }

    #[test]
    fn every_workload_layer_is_listed() {
        for (name, _, own) in WORKLOADS {
            for layer in own {
                assert!(
                    PER_LAYER.iter().any(|(n, _)| n == layer),
                    "{name}: {layer} not in PER_LAYER"
                );
            }
        }
    }

    #[test]
    fn unrun_layers_read_zero_and_absent_host_metrics_stay_absent() {
        let list = [("a", "ms"), ("b", "ns"), ("c", "count")];
        let out = arrange(&list, &["a", "b"], vec![metric("a", 2.0, "ms")]);
        assert_eq!(out, vec![metric("a", 2.0, "ms"), metric("c", 0.0, "count")]);
    }
}
