//! The `btrace` CLI, run in process through `btrace_cli::run`: readouts
//! pinned byte for byte against golden files, every usage rejection with
//! its exit code and message, the command table against `help`, valid JSON
//! whatever the file name, quiet exits on a closed pipe, and the doctor's
//! diagnosis of a seeded fault storm.
//!
//! The golden files under `tests/golden/cli/` hold the output of the two
//! fixtures below with their directory shown as `<DIR>`; `analyze` tables
//! have their wall-clock `Busy us` column masked.

use btrace_cli::{run, usage, Kind, COMMANDS};
use btrace_core::{BTrace, Config, RingSnapshot};
use btrace_persist::{write_snapshot, FileFrameSink, PipelineConfig, StreamPipeline, TraceStore};
use btrace_telemetry::json::Json;
use btrace_telemetry::HealthSnapshot;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Writes the two fixtures into `dir` and returns `(dump, stream)`: a
/// `.btd` and a `.btsf` of the same single-threaded recording. Stamps,
/// cores, tids and payload lengths are fixed, and the ring laps, so the
/// files are identical on every run and their readouts show loss.
fn write_fixtures(dir: &Path) -> (PathBuf, PathBuf) {
    std::fs::create_dir_all(dir).unwrap();
    let config = Config::new(4).active_blocks(16).block_bytes(1024).buffer_bytes(64 << 10);
    let tracer = Arc::new(BTrace::new(config).unwrap());
    let producers: Vec<_> = (0..4).map(|c| tracer.producer(c).unwrap()).collect();
    let payload = [0x5Au8; 40];
    for i in 0..3000u64 {
        let len = 8 + (i % 29) as usize;
        producers[(i % 4) as usize].record_with(i, 100 + (i % 7) as u32, &payload[..len]).unwrap();
    }
    let dump = dir.join("trace.btd");
    let mut snapshot = RingSnapshot::new();
    tracer.consumer().snapshot(&mut snapshot);
    write_snapshot(&dump, "cli-fixture", &snapshot).unwrap();
    // Close every open block first, so the pipeline's drain finds the
    // whole ring in its first poll and frame boundaries never depend on
    // when it polls.
    tracer.stream().flush_close(&mut RingSnapshot::new());
    let stream = dir.join("trace.btsf");
    let _ = std::fs::remove_file(&stream);
    let sink = Box::new(FileFrameSink::create(&stream).unwrap());
    let config = PipelineConfig { batch_max_events: 64, ..PipelineConfig::default() };
    StreamPipeline::spawn(tracer, sink, config).stop();
    (dump, stream)
}

/// The fixture directory, written once per test run.
fn fixtures() -> &'static str {
    static DIR: OnceLock<String> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-fixtures");
        write_fixtures(&dir);
        dir.to_str().unwrap().to_string()
    })
}

/// One in-process run of `btrace`.
struct Ran {
    code: i32,
    out: String,
    err: String,
}

fn btrace_args(args: &[&str]) -> Ran {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code = run(&args, &mut out, &mut err);
    Ran { code, out: String::from_utf8(out).unwrap(), err: String::from_utf8(err).unwrap() }
}

/// Runs a command line, with `<DIR>` standing for the fixture directory.
fn btrace(line: &str) -> Ran {
    let line = line.replace("<DIR>", fixtures());
    btrace_args(&line.split_whitespace().collect::<Vec<_>>())
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/cli/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Masks the wall-clock `Busy us` column of `analyze`'s work table and
/// re-spaces the table, since that column's width moves the others.
fn mask_busy(text: &str) -> String {
    let mut work = false;
    let lines: Vec<String> = text
        .split('\n')
        .map(|line| {
            work = line.starts_with("Fragment") || (work && !line.is_empty());
            if !work {
                return line.to_string();
            }
            let mut cells: Vec<&str> = line.split_whitespace().collect();
            if line.starts_with('-') {
                cells = vec!["-"];
            } else if line.starts_with('F') && line[1..].starts_with(|c: char| c.is_ascii_digit()) {
                cells[4] = "*";
            }
            cells.join(" ")
        })
        .collect();
    lines.join("\n")
}

/// Golden file name, command line.
const GOLDEN: &[(&str, &str)] = &[
    ("scenarios", "scenarios"),
    ("inspect", "inspect <DIR>/trace.btd"),
    ("inspect_map", "inspect <DIR>/trace.btd --map"),
    ("query", "query <DIR>/trace.btsf"),
    ("query_json", "query <DIR>/trace.btsf --json"),
    (
        "query_slice",
        "query <DIR>/trace.btsf --since 500 --until 2500 --core 1 --core 3 --metrics --gap-map",
    ),
    ("query_slice_json", "query --since 2000 --until 2600 --core 2 <DIR>/trace.btsf --json"),
    ("query_category", "query <DIR>/trace.btsf --category sched --metrics"),
    ("query_dump", "query <DIR>/trace.btd --gap-map --threads 2"),
    ("query_dump_json", "query <DIR>/trace.btd --json --until 1800"),
    ("analyze", "analyze <DIR>/trace.btsf"),
    ("analyze_map", "analyze <DIR>/trace.btsf --threads 2 --map"),
    ("analyze_dump", "analyze --threads 2 <DIR>/trace.btd --fragments 3 --map"),
];

#[test]
fn readouts_match_the_golden_files() {
    for (name, line) in GOLDEN {
        let ran = btrace(line);
        assert_eq!((ran.code, ran.err.as_str()), (0, ""), "{line}");
        let mut text = ran.out.replace(fixtures(), "<DIR>");
        if name.starts_with("analyze") {
            text = mask_busy(&text);
        }
        assert_eq!(text, golden(&format!("{name}.txt")), "{line}");
    }
}

#[test]
fn every_rejection_keeps_its_exit_code_and_message() {
    let rows = golden("rejections.txt");
    for row in rows.lines() {
        let [code, line, message] = row.splitn(3, " | ").collect::<Vec<_>>()[..] else {
            panic!("bad row {row}");
        };
        let ran = btrace(line);
        assert_eq!(ran.code.to_string(), code, "{line}");
        assert_eq!(ran.err, format!("{message}\n\n{}", usage()), "{line}");
        assert_eq!(ran.out, "", "{line}");
    }
}

/// Command lines that parse, and the value of every flag of the command
/// they parse to (`-` = absent).
const ACCEPTED: &[(&str, &str)] = &[
    ("scenarios", ""),
    ("demo", ""),
    ("replay", "--scenario=eShop-1 --tracer=BTrace --scale=0.05 --threads=1"),
    (
        "replay --scenario IM --tracer LTTng --scale 0.2 --threads 4",
        "--scenario=IM --tracer=LTTng --scale=0.2 --threads=4",
    ),
    ("dump --out x.btd", "--scenario=eShop-1 --out=x.btd --scale=0.05"),
    ("inspect x.btd --map", "<FILE>=x.btd --map=on"),
    ("analyze frames.btsf", "<FILE>=frames.btsf --threads=1 --fragments=- --map=-"),
    (
        "analyze --threads 8 trace.btd --fragments 16 --map",
        "<FILE>=trace.btd --threads=8 --fragments=16 --map=on",
    ),
    (
        "query frames.btsf",
        "<FILE>=frames.btsf --since=- --until=- --core=- --category=- --threads=1 --metrics=- \
         --gap-map=- --json=-",
    ),
    (
        "query --since 100 --until 900 --core 0 --core 3 --category sched \
         --threads 4 trace.btd --metrics --gap-map --json",
        "<FILE>=trace.btd --since=100 --until=900 --core=0,3 --category=sched --threads=4 \
         --metrics=on --gap-map=on --json=on",
    ),
    (
        "stat --json --duration-ms 250 --jsonl h.jsonl",
        "--json=on --duration-ms=250 --jsonl=h.jsonl --prom=-",
    ),
    ("stat", "--json=- --duration-ms=1000 --jsonl=- --prom=-"),
    (
        "watch --period-ms 100 --prom out.prom",
        "--period-ms=100 --duration-ms=5000 --jsonl=- --prom=out.prom",
    ),
    (
        "stream",
        "--duration-ms=2000 --out=- --policy=block --batch-events=512 --queue-depth=8 \
         --drain-threads=- --auto-size=- --budget=- --target-loss=10000 --json=-",
    ),
    (
        "stream --policy drop --out t.btsf --queue-depth 4 --json",
        "--duration-ms=2000 --out=t.btsf --policy=drop --batch-events=512 --queue-depth=4 \
         --drain-threads=- --auto-size=- --budget=- --target-loss=10000 --json=on",
    ),
    (
        "stream --drain-threads 4",
        "--duration-ms=2000 --out=- --policy=block --batch-events=512 --queue-depth=8 \
         --drain-threads=4 --auto-size=- --budget=- --target-loss=10000 --json=-",
    ),
    (
        "stream --auto-size --budget 1048576 --target-loss 500",
        "--duration-ms=2000 --out=- --policy=block --batch-events=512 --queue-depth=8 \
         --drain-threads=- --auto-size=on --budget=1048576 --target-loss=500 --json=-",
    ),
    ("tune", "--duration-ms=2000 --budget=- --target-loss=10000 --json=-"),
    (
        "tune --duration-ms 500 --budget 262144 --target-loss 1000 --json",
        "--duration-ms=500 --budget=262144 --target-loss=1000 --json=on",
    ),
    ("doctor", "--fault-seed=183 --duration-ms=1000 --json=-"),
    (
        "doctor --fault-seed 0 --duration-ms 250 --json",
        "--fault-seed=0 --duration-ms=250 --json=on",
    ),
    ("events --follow", "--duration-ms=1000 --follow=on --json=-"),
    ("events --json --duration-ms 400", "--duration-ms=400 --follow=- --json=on"),
    // Commands without flags ignore what follows them.
    ("scenarios --json", ""),
    ("demo extra words", ""),
    // Repeated flags are last-wins.
    ("stat --duration-ms 5 --duration-ms 7", "--json=- --duration-ms=7 --jsonl=- --prom=-"),
];

fn command(name: &str) -> &'static btrace_cli::Command {
    COMMANDS.iter().find(|c| c.name == name).unwrap()
}

#[test]
fn accepted_command_lines_parse_to_their_values() {
    for (line, expected) in ACCEPTED {
        let words: Vec<String> = line.split_whitespace().map(String::from).collect();
        let command = command(&words[0]);
        let args = command.parse(&words[1..]).unwrap_or_else(|e| panic!("{line}: {e}"));
        let mut named: Vec<&str> = Vec::new();
        for pair in expected.split_whitespace() {
            let (name, value) = pair.split_once('=').unwrap();
            let shown = match name {
                "--core" if args.on(name) => {
                    args.list(name).iter().map(u16::to_string).collect::<Vec<_>>().join(",")
                }
                _ => args.get(name).unwrap_or("-").to_string(),
            };
            assert_eq!(shown, value, "{line}: {name}");
            named.push(name);
        }
        let mut flags: Vec<&str> = command.flags.iter().map(|f| f.name).collect();
        named.sort();
        flags.sort();
        assert_eq!(named, flags, "{line}: every flag of the command is pinned");
    }
}

/// The help lines under a command's own line.
fn help_section<'a>(help: &'a str, name: &str) -> Vec<&'a str> {
    let mut lines = help.lines().skip_while(|l| {
        !(l.starts_with("    ")
            && !l.starts_with("     ")
            && l.split_whitespace().next() == Some(name))
    });
    assert!(lines.next().is_some(), "{name} is missing from the help");
    lines.take_while(|l| l.starts_with("        ")).collect()
}

#[test]
fn every_table_flag_is_in_the_help_and_parses() {
    let help = btrace("help");
    assert_eq!((help.code, help.err.as_str()), (0, ""));
    assert_eq!(help.out, usage());
    for line in ["", "--help", "-h"] {
        let ran = btrace(line);
        assert_eq!((ran.code, ran.out.as_str(), ran.err.as_str()), (0, usage().as_str(), ""));
    }
    for command in COMMANDS {
        let section = help_section(&help.out, command.name);
        // Every switch at once keeps `--budget` next to its `--auto-size`.
        let mut base: Vec<&str> = Vec::new();
        for flag in command.flags {
            match flag.kind {
                Kind::File => base.push("x.btd"),
                Kind::Switch => base.push(flag.name),
                _ => {}
            }
        }
        for flag in command.flags {
            let sample = match flag.kind {
                Kind::File | Kind::Switch => None,
                Kind::Scale => Some("0.5"),
                Kind::Text(_) => Some("drop"),
                _ => Some("7"),
            };
            if flag.kind != Kind::File {
                let listed = section.iter().any(|l| l.split_whitespace().next() == Some(flag.name));
                assert!(listed, "{} {} is missing from the help", command.name, flag.name);
            }
            let mut words: Vec<String> = base.iter().map(|w| w.to_string()).collect();
            words.extend(sample.iter().flat_map(|s| [flag.name.to_string(), s.to_string()]));
            let args = command.parse(&words).unwrap_or_else(|e| panic!("{words:?}: {e}"));
            assert!(args.on(flag.name), "{} {}", command.name, flag.name);
            if let Some(default) = flag.default {
                assert_eq!(flag.check(default), Ok(()), "{} {} default", command.name, flag.name);
            }
        }
    }
}

#[test]
fn library_never_prints_or_exits() {
    let src = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/cli/src");
    for entry in std::fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        for banned in ["print!", "println!", "eprint!", "eprintln!", "process::exit", "or_exit!"] {
            assert!(!text.contains(banned), "{} uses {banned}", path.display());
        }
    }
}

#[test]
fn query_json_is_valid_for_any_file_name() {
    let dir = Path::new(fixtures()).join("odd \"names\" \\ it's");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("it's-é.btsf");
    std::fs::copy(Path::new(fixtures()).join("trace.btsf"), &path).unwrap();
    let path = path.to_str().unwrap();
    let ran = btrace_args(&["query", path, "--json"]);
    assert_eq!((ran.code, ran.err.as_str()), (0, ""));
    let json = Json::parse(ran.out.trim_end()).unwrap_or_else(|e| panic!("{}: {e:?}", ran.out));
    assert_eq!(json.get("file").and_then(Json::as_str), Some(path));
    assert_eq!(json.get("matched_events").and_then(Json::as_u64), Some(1476));
}

#[test]
fn inspect_names_the_defect_of_a_damaged_dump() {
    let good = std::fs::read(Path::new(fixtures()).join("trace.btd")).unwrap();
    let dir = Path::new(fixtures()).join("damaged");
    std::fs::create_dir_all(&dir).unwrap();
    let mut body = good.clone();
    body[good.len() / 2] ^= 0x40;
    let mut label = good.clone();
    label[12] ^= 0x01;
    let store = TraceStore::open(Path::new(fixtures()).join("trace.btd")).unwrap();
    let (start, frames) = (good.len() - store.bytes().len(), store.frames());
    let (a, b) = (start + frames[0].offset, start + frames[1].offset);
    let c = b + frames[1].len;
    let cases = [
        ("body.btd", body, "ChecksumMismatch"),
        ("label.btd", label, "BadMagic"),
        ("cut.btd", good[..good.len() - 100].to_vec(), "Truncated"),
        ("swapped.btd", [&good[..a], &good[b..c], &good[a..b], &good[c..]].concat(), "contiguous"),
    ];
    for (name, bytes, defect) in cases {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        let ran = btrace_args(&["inspect", path.to_str().unwrap()]);
        assert_eq!((ran.code, ran.out.as_str()), (1, ""), "{name}");
        let prefix = format!("error: {}: frame ", path.display());
        assert!(ran.err.starts_with(&prefix) && ran.err.contains(defect), "{name}: {}", ran.err);
    }
    let ran = btrace("inspect <DIR>/trace.btsf");
    assert_eq!(ran.code, 1);
    assert!(ran.err.contains("not a dump"), "{}", ran.err);
    let ran = btrace("inspect <DIR>/missing.btd");
    assert_eq!(ran.code, 1);
    assert!(ran.err.starts_with("error: cannot open"), "{}", ran.err);
}

/// A reader that goes away after `n` bytes.
struct ClosesAfter(usize);

impl Write for ClosesAfter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.0 == 0 {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        let n = buf.len().min(self.0);
        self.0 -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_closed_pipe_ends_the_command_quietly() {
    for line in ["scenarios", "events --duration-ms 300", "events --duration-ms 300 --follow"] {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        let mut err = Vec::new();
        let code = run(&args, &mut ClosesAfter(10), &mut err);
        assert_eq!((code, String::from_utf8(err).unwrap()), (0, String::new()), "{line}");
    }
}

fn keys(json: &Json) -> Vec<&str> {
    match json {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other}"),
    }
}

fn json_lines(line: &str) -> Vec<String> {
    let ran = btrace(line);
    assert_eq!((ran.code, ran.err.as_str()), (0, ""), "{line}");
    assert!(!ran.out.is_empty(), "{line}");
    ran.out.lines().map(String::from).collect()
}

#[test]
fn load_driven_json_reports_decode() {
    for line in ["stat --json --duration-ms 200", "stream --json --duration-ms 300"] {
        let lines = json_lines(line);
        assert_eq!(lines.len(), 1, "{line}");
        let snap = HealthSnapshot::from_json(&lines[0]).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert!(snap.stats.records > 0, "{line}");
        assert_eq!(snap.stream_stages.is_empty(), line.starts_with("stat"), "{line}");
    }
    let tune = json_lines("tune --json --duration-ms 300 --budget 4194304 --target-loss 500");
    let tune = Json::parse(&tune[0]).unwrap();
    assert_eq!(
        keys(&tune),
        [
            "recommended_bytes",
            "start_bytes",
            "budget_bytes",
            "target_loss_ppm",
            "resizes",
            "resize_failures",
            "budget_clamps",
            "stale_skips",
            "skips"
        ]
    );
    assert_eq!(tune.get("budget_bytes").and_then(Json::as_u64), Some(4 << 20));
    assert_eq!(tune.get("target_loss_ppm").and_then(Json::as_u64), Some(500));
    for line in json_lines("events --json --duration-ms 200") {
        let event = Json::parse(&line).unwrap();
        assert_eq!(keys(&event), ["seq", "shard", "t_ns", "kind", "source", "a", "b"]);
    }
}

/// The same contract the CI `doctor-check` step asserts on the binary.
#[test]
fn doctor_diagnoses_the_seeded_storm() {
    let lines = json_lines("doctor --fault-seed 183 --json");
    let d = Json::parse(&lines[0]).unwrap();
    assert_eq!(d.get("status").and_then(Json::as_str), Some("losing-data"));
    let findings = d.get("findings").and_then(Json::as_arr).unwrap();
    let titles: Vec<&str> =
        findings.iter().filter_map(|f| f.get("title").and_then(Json::as_str)).collect();
    let titles = titles.join(" | ");
    assert!(titles.contains("resize fell back"), "missing fallback finding: {titles}");
    assert!(titles.contains("commit fault"), "missing fault finding: {titles}");
    let windows = d.get("loss_windows").and_then(Json::as_arr).unwrap();
    assert!(!windows.is_empty(), "the storm must produce a loss window");
    let chains: Vec<&str> = windows
        .iter()
        .flat_map(|w| w.get("causes").and_then(Json::as_arr).unwrap_or(&[]))
        .filter_map(Json::as_str)
        .collect();
    let chains = chains.join(" | ");
    assert!(
        chains.contains("commit fault") || chains.contains("resize fallback"),
        "no loss window reaches the injected cause: {chains}"
    );
}
