//! `frame_budget` — one open-loop serving benchmark over four paper
//! workloads, with an outside-in per-layer replay.
//!
//! ```text
//! frame_budget (--workload NAME | --all) [--seed N] [--seconds N] [--trace 0|1]
//!              [--out PATH] [--smoke]
//! ```
//!
//! A run sets the workload's detector up and serves seeded inputs
//! through the public `pcnn_cluster::Cluster` API, in cycles of set-up,
//! closed loop and open loop, with every time divided by the host's
//! slowdown measured around it (see `host`). It gates on bit-exact
//! agreement with a serial detector and, with `--trace 1`, replays the
//! first frames serially with a span around every call into a layer.
//! It prints one line per metric and, last, a one-line JSON result; it
//! writes a JSON document (and the replay's Chrome trace) under
//! `target/frame_budget/` unless `--out` says otherwise. `--all` runs
//! every workload in its own child process. The exit code is non-zero
//! when a frame failed or the outputs did not agree; a run whose timing
//! a validity gate rejects says so and still exits 0. See README.md for
//! what each metric and workload measures.

mod host;
mod replay;
mod run;
mod schedule;
mod serve;
mod spans;
mod stats;
mod workload;

use run::{Metric, Report, Settings};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workload::{Workload, RUN_SECONDS, WORKLOADS};

const USAGE: &str = "usage: frame_budget (--workload NAME | --all) [--seed N] [--seconds N] \
                     [--trace 0|1] [--out PATH] [--smoke]";

/// Where documents and traces go unless `--out` says otherwise.
const OUT_DIR: &str = "target/frame_budget";

/// Measured seconds per workload in smoke mode.
const SMOKE_SECONDS: u64 = 2;

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        out: None,
        smoke: false,
    };
    let mut all = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(workload::find(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--all" => all = true,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    match (all, args.workload) {
        (true, Some(_)) => Err("--all and --workload exclude each other".to_owned()),
        (false, None) => Err("name a --workload or pass --all".to_owned()),
        _ => Ok(args),
    }
}

fn main() -> ExitCode {
    // The program's own tracer stays off: spans here are the
    // benchmark's, taken around the calls it makes.
    std::env::remove_var("PCNN_TRACE");
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("frame_budget: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.workload {
        Some(w) => run_one(&args, w),
        None => run_all(&args),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("frame_budget: {e}");
            ExitCode::FAILURE
        }
    }
}

fn entry(key: &str, value: Value) -> (String, Value) {
    (key.to_owned(), value)
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|m| {
                let body = Value::Map(vec![
                    entry("value", Value::Float(m.value)),
                    entry("unit", Value::Str(m.unit.to_owned())),
                ]);
                (m.name.to_owned(), body)
            })
            .collect(),
    )
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

/// The commit under test, read from `.git` in the working directory, or
/// `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |path: &str| std::fs::read_to_string(Path::new(".git").join(path)).ok();
    let head = read("HEAD").unwrap_or_default();
    let revision = match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_owned()),
        Some(name) => read(name).map(|r| r.trim().to_owned()).or_else(|| {
            let packed = read("packed-refs")?;
            packed.lines().find_map(|l| l.strip_suffix(name)).map(|r| r.trim().to_owned())
        }),
    };
    revision
        .filter(|r| r.len() == 40 && r.bytes().all(|b| b.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// Runs one workload in this process.
fn run_one(args: &Args, w: &Workload) -> Result<bool, String> {
    let seconds = if args.smoke { SMOKE_SECONDS } else { args.seconds };
    let settings =
        Settings { seed: args.seed, seconds: seconds as f64, trace: args.trace, smoke: args.smoke };
    let report = run::run(w, settings);
    let correct = report.failed == 0 && report.gates.agreement;

    for m in report.end_to_end.iter().chain(&report.per_layer) {
        println!("{:<16} {:<38} {:>16.4} {}", w.name, m.name, m.value, m.unit);
    }
    let gates = &report.gates;
    println!(
        "{:<16} digest {:016x}  agreement {} on {} frames  coverage {}  generator p99 late {:.3} ms  \
         timing {}  {} of {} frames failed",
        w.name,
        report.digest,
        if gates.agreement { "ok" } else { "FAILED" },
        gates.agreement_frames,
        gates.min_coverage.map_or("-".to_owned(), |c| format!("{:.4}", c)),
        gates.generator_late_p99_ms,
        if gates.valid() { "valid" } else { "INVALID" },
        report.failed,
        report.attempted,
    );

    let beyond = |seconds: f64| stats::beyond(w.sources * w.open_frames(seconds), w.tail_pct);
    let (here, sized) = (beyond(seconds as f64), beyond(RUN_SECONDS as f64));
    if here < sized.min(stats::TAIL_BEYOND) {
        eprintln!(
            "frame_budget: {}: only {here} samples beyond p{} in a {seconds} s run; the workload \
             is sized for {RUN_SECONDS} s",
            w.name, w.tail_pct
        );
    }

    let out =
        args.out.clone().unwrap_or_else(|| Path::new(OUT_DIR).join(format!("{}.json", w.name)));
    let trace_path = args.trace.then(|| out.with_extension("trace.json"));
    if let Some(path) = &trace_path {
        write_json(path, &spans::chrome_trace(&report.spans))?;
    }
    write_json(&out, &document(args, w, seconds, &report, correct, trace_path.as_deref()))?;

    let metrics = if args.trace { &report.per_layer } else { &report.end_to_end };
    let result = Value::Map(vec![
        entry("correct", Value::Bool(correct)),
        entry("attempted", Value::UInt(report.attempted as u64)),
        entry("failed", Value::UInt(report.failed as u64)),
        entry("metrics", metrics_value(metrics)),
    ]);
    println!("{}", serde_json::to_string(&result).map_err(|e| e.to_string())?);
    Ok(correct)
}

/// The JSON document of one workload run.
fn document(
    args: &Args,
    w: &Workload,
    seconds: u64,
    report: &Report,
    correct: bool,
    trace_path: Option<&Path>,
) -> Value {
    let gates = &report.gates;
    let open_frames = w.sources * w.open_frames(seconds as f64);
    Value::Map(vec![
        entry("bench", Value::Str("frame_budget".to_owned())),
        entry("workload", Value::Str(w.name.to_owned())),
        entry("why", Value::Str(w.why.to_owned())),
        entry("seed", Value::UInt(args.seed)),
        entry("seconds", Value::UInt(seconds)),
        entry("smoke", Value::Bool(args.smoke)),
        entry("git_revision", Value::Str(git_revision())),
        entry("nproc", Value::UInt(nproc())),
        entry("backend", Value::Str(pcnn_kernels::backend_summary())),
        entry(
            "topology",
            Value::Map(vec![
                entry("shards", Value::UInt(w.shards.into())),
                entry("workers_per_shard", Value::UInt(w.workers as u64)),
                entry("load_clients", Value::UInt(w.shards.into())),
            ]),
        ),
        entry(
            "load",
            Value::Map(vec![
                entry("sources", Value::UInt(w.sources as u64)),
                entry("rate_hz_per_source", Value::Float(w.rate_hz)),
                entry("open_frames", Value::UInt(open_frames as u64)),
                entry("tail_percentile", Value::UInt(w.tail_pct.into())),
                entry(
                    "tail_samples_beyond",
                    Value::UInt(stats::beyond(open_frames, w.tail_pct) as u64),
                ),
                entry("closed_batch", Value::UInt(w.closed_batch as u64)),
                entry("closed_rounds", Value::UInt(report.closed_rates.len() as u64)),
            ]),
        ),
        entry("digest", Value::Str(format!("{:016x}", report.digest))),
        entry("correct", Value::Bool(correct)),
        entry("attempted", Value::UInt(report.attempted as u64)),
        entry("failed", Value::UInt(report.failed as u64)),
        entry(
            "gates",
            Value::Map(vec![
                entry("agreement", Value::Bool(gates.agreement)),
                entry("agreement_frames", Value::UInt(gates.agreement_frames as u64)),
                entry("min_coverage", gates.min_coverage.map_or(Value::Null, Value::Float)),
                entry("generator_late_p99_ms", Value::Float(gates.generator_late_p99_ms)),
                entry("valid", Value::Bool(gates.valid())),
            ]),
        ),
        entry("end_to_end", metrics_value(&report.end_to_end)),
        entry("per_layer", metrics_value(&report.per_layer)),
        entry(
            "host_slowdowns",
            Value::Array(report.slowdowns.iter().copied().map(Value::Float).collect()),
        ),
        entry(
            "closed_loop_rates",
            Value::Array(report.closed_rates.iter().copied().map(Value::Float).collect()),
        ),
        entry(
            "open_loop_samples_us",
            Value::Array(
                report
                    .samples
                    .iter()
                    .map(|s| {
                        let mut sample: Vec<Value> =
                            [s.due_us, s.start_us, s.done_us, s.shard.into()]
                                .map(Value::UInt)
                                .to_vec();
                        sample.push(Value::Float(s.slowdown));
                        Value::Array(sample)
                    })
                    .collect(),
            ),
        ),
        entry(
            "chrome_trace",
            trace_path.map_or(Value::Null, |p| Value::Str(p.display().to_string())),
        ),
    ])
}

/// Runs every workload traced, each in its own child process (so peak
/// RSS and set-up time stay per workload), then prints the metrics as
/// tables and writes one combined document.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let out = args.out.clone().unwrap_or_else(|| Path::new(OUT_DIR).join("all.json"));
    let dir = out.parent().map_or_else(PathBuf::new, Path::to_path_buf);
    let mut all_ok = true;
    let mut docs = Vec::new();
    for w in &WORKLOADS {
        let doc_path = dir.join(format!("{}.json", w.name));
        let mut child = Command::new(&exe);
        child.args(["--workload", w.name, "--seed", &args.seed.to_string()]);
        child.args(["--seconds", &args.seconds.to_string(), "--trace", "1", "--out"]);
        child.arg(&doc_path);
        if args.smoke {
            child.arg("--smoke");
        }
        let status = child.status().map_err(|e| format!("run {}: {e}", w.name))?;
        all_ok &= status.success();
        let text = std::fs::read_to_string(&doc_path)
            .map_err(|e| format!("read {}: {e}", doc_path.display()))?;
        docs.push(serde_json::from_str::<Value>(&text).map_err(|e| e.to_string())?);
    }

    for section in ["end_to_end", "per_layer"] {
        println!("\n{section:<38}{}", WORKLOADS.map(|w| format!("{:>16}", w.name)).concat());
        let names: Vec<String> = docs[0]
            .get(section)
            .and_then(Value::as_map)
            .map(|m| m.iter().map(|(k, _)| k.clone()).collect())
            .unwrap_or_default();
        for name in names {
            let cells: String = docs
                .iter()
                .map(|d| {
                    match d.get(section).and_then(|s| s.get(&name)).and_then(|m| m.get("value")) {
                        Some(Value::Float(v)) => format!("{v:>16.4}"),
                        _ => format!("{:>16}", "-"),
                    }
                })
                .collect();
            println!("{name:<38}{cells}");
        }
    }

    let sum = |key: &str| {
        docs.iter().map(|d| if let Some(Value::UInt(n)) = d.get(key) { *n } else { 0 }).sum::<u64>()
    };
    let (attempted, failed) = (sum("attempted"), sum("failed"));
    let metrics = Value::Map(
        docs.iter()
            .zip(&WORKLOADS)
            .flat_map(|(d, w)| {
                let e2e = d.get("end_to_end").and_then(Value::as_map).unwrap_or(&[]).to_vec();
                e2e.into_iter().map(move |(k, v)| (format!("{}/{k}", w.name), v))
            })
            .collect(),
    );
    let combined = Value::Map(vec![
        entry("bench", Value::Str("frame_budget".to_owned())),
        entry("seed", Value::UInt(args.seed)),
        entry("smoke", Value::Bool(args.smoke)),
        entry("git_revision", Value::Str(git_revision())),
        entry("nproc", Value::UInt(nproc())),
        entry("workloads", Value::Array(docs)),
    ]);
    write_json(&out, &combined)?;
    println!("\nwrote {}", out.display());
    let result = Value::Map(vec![
        entry("correct", Value::Bool(all_ok)),
        entry("attempted", Value::UInt(attempted)),
        entry("failed", Value::UInt(failed)),
        entry("metrics", metrics),
    ]);
    println!("{}", serde_json::to_string(&result).map_err(|e| e.to_string())?);
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_a_single_workload_command_line() {
        let a = args("--workload fig5_frames --seed 42 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload.map(|w| w.name), Some("fig5_frames"));
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (42, 20, true, false));
        let all = args("--all --smoke --out x.json").unwrap();
        assert!(all.workload.is_none());
        assert!(all.smoke);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--all --workload hw_windows",
            "--all --trace 2",
            "--all --seconds 0",
            "--all --seed",
            "--all --frobnicate",
        ] {
            assert!(args(bad).is_err(), "accepted `{bad}`");
        }
    }
}
