//! The one harness behind every bench that records a
//! `results/BENCH_*.json` file.
//!
//! A bench reads its [`Mode`] from the process arguments, sizes its
//! workload with [`Mode::pick`], times each baseline/candidate pair with
//! [`time_pair`], checks its outputs against an oracle, and hands its
//! rows to [`Report::finish`] together with the [`Gate`]s that guard
//! them:
//!
//! | invocation | runs | writes |
//! |---|---|---|
//! | `cargo bench -p pcnn-bench --bench <name>` | full size | `results/<file>` |
//! | `… -- --test` | one rep at smoke size | nothing |
//! | `… -- --check` | full size, then every gate against the committed `results/<file>` | `target/bench/<file>` |
//!
//! Every file shares one envelope ([`Report`]): the bench name, the
//! kernel backend, the worker count, the measured tree's
//! `git describe --always --dirty`, and the result rows, each a map
//! keyed by a unique `name`.

use serde::{Deserialize, Serialize, Value};
use std::path::Path;
use std::time::Instant;

/// How a bench was invoked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No flag: a full run that rewrites `results/<file>`.
    Record,
    /// `--test`: one rep at smoke size that writes nothing.
    Test,
    /// `--check`: a full run compared against the committed
    /// `results/<file>`; the measured document goes to
    /// `target/bench/<file>`.
    Check,
}

impl Mode {
    /// The mode the process arguments select. Cargo passes `--bench` to
    /// every bench binary, so arguments other than `--test` and
    /// `--check` are ignored.
    ///
    /// # Panics
    ///
    /// If both `--test` and `--check` are given.
    pub fn from_args() -> Mode {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let has = |flag: &str| args.iter().any(|a| a == flag);
        match (has("--test"), has("--check")) {
            (true, true) => panic!("--test and --check are exclusive"),
            (true, false) => Mode::Test,
            (false, true) => Mode::Check,
            (false, false) => Mode::Record,
        }
    }

    /// `full` for a recorded or checked run, `smoke` under `--test`.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        if self == Mode::Test {
            smoke
        } else {
            full
        }
    }
}

/// Minimum seconds per call of a baseline and a candidate, measured
/// **interleaved** over `reps` rounds after one warm-up call each. The
/// minimum is the most stable estimate on a shared host, because
/// interference only ever adds time; interleaving makes frequency drift
/// hit both sides equally instead of skewing their ratio.
pub fn time_pair<A: FnMut(), B: FnMut()>(reps: usize, mut base: A, mut candidate: B) -> (f64, f64) {
    base();
    candidate();
    let (mut best_base, mut best_candidate) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t = Instant::now();
        base();
        best_base = best_base.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        candidate();
        best_candidate = best_candidate.min(t.elapsed().as_secs_f64());
    }
    (best_base, best_candidate)
}

/// The fraction of its committed value a [`Gate::Floor`] ratio must reach.
pub const FLOOR: f64 = 0.8;

/// What `--check` holds a measured field to, in every row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// A higher-is-better ratio must reach at least [`FLOOR`] of its
    /// committed value.
    Floor(&'static str),
    /// A deterministic count or flag must equal its committed value.
    Exact(&'static str),
}

impl Gate {
    /// The verdict on one row: `Ok` or `Err`, each with its line.
    fn judge(self, committed: &Value, measured: &Value) -> Result<String, String> {
        let (Gate::Floor(field) | Gate::Exact(field)) = self;
        let (Some(was), Some(now)) = (committed.get(field), measured.get(field)) else {
            let side = if committed.get(field).is_none() { "committed" } else { "measured" };
            return Err(format!("`{field}` missing from the {side} row"));
        };
        let (line, pass) = match self {
            Gate::Exact(_) => {
                (format!("{field} {} vs committed {}", json(now), json(was)), was == now)
            }
            Gate::Floor(_) => {
                let number = |v: &Value| f64::from_value(v).map_err(|e| format!("`{field}`: {e}"));
                let (was, now) = (number(was)?, number(now)?);
                let line =
                    format!("{field} {now:.3} vs committed {was:.3} (floor {:.3})", FLOOR * was);
                (line, now >= FLOOR * was)
            }
        };
        if pass {
            Ok(line)
        } else {
            Err(line)
        }
    }
}

/// The envelope every `results/BENCH_*.json` file shares.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// The bench target that measured the rows.
    pub bench: String,
    /// The kernel SIMD backend the run dispatched to.
    pub backend: String,
    /// Worker threads per server (per shard, on the cluster benches).
    pub workers: usize,
    /// `git describe --always --dirty` of the measured tree.
    pub revision: String,
    /// One row per case, each a map with a unique `name`.
    pub results: Vec<Value>,
}

impl Report {
    /// The envelope around `rows`, stamped with the active kernel
    /// backend and the source revision.
    ///
    /// # Panics
    ///
    /// If a row lacks a string `name` or two rows share one.
    pub fn new<R: Serialize>(bench: &str, workers: usize, rows: &[R]) -> Report {
        let report = Report {
            bench: bench.to_owned(),
            backend: pcnn_kernels::backend_label().to_owned(),
            workers,
            revision: revision(),
            results: rows.iter().map(Serialize::to_value).collect(),
        };
        report.validate().unwrap_or_else(|e| panic!("{bench}: {e}"));
        report
    }

    /// Reads and validates a results file.
    ///
    /// # Errors
    ///
    /// If the file cannot be read, is not the envelope, or has a row
    /// without a unique string `name`.
    pub fn load(path: &Path) -> Result<Report, String> {
        let parsed = std::fs::read_to_string(path).map_err(|e| e.to_string()).and_then(|text| {
            let report: Report = serde_json::from_str(&text).map_err(|e| e.to_string())?;
            report.validate().map(|()| report)
        });
        parsed.map_err(|e| format!("{}: {e}", path.display()))
    }

    fn validate(&self) -> Result<(), String> {
        for (i, row) in self.results.iter().enumerate() {
            let name = row_name(row).ok_or("a result row has no string `name`")?;
            if self.results[..i].iter().any(|r| row_name(r) == Some(name)) {
                return Err(format!("two result rows are named `{name}`"));
            }
        }
        Ok(())
    }

    /// Prints every row, then ends the run in `mode` for the results
    /// file named `file`: records it, writes nothing, or checks `gates`
    /// against the committed copy.
    ///
    /// # Panics
    ///
    /// If a file cannot be written, or if any gate fails under
    /// `--check`.
    pub fn finish(&self, mode: Mode, file: &str, gates: &[Gate]) {
        for row in &self.results {
            println!("bench: {} {}", self.bench, json(row));
        }
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        if let Err(failures) = self.finish_in(root, mode, file, gates) {
            panic!("{file}: --check failed:\n  {}", failures.join("\n  "));
        }
    }

    fn finish_in(
        &self,
        root: &Path,
        mode: Mode,
        file: &str,
        gates: &[Gate],
    ) -> Result<(), Vec<String>> {
        let committed = root.join("results").join(file);
        match mode {
            Mode::Test => println!("{}: --test run, nothing written", self.bench),
            Mode::Record => self.write(&committed),
            Mode::Check => {
                // Both sides are compared as read back from disk, so a
                // count compares equal whatever integer type wrote it.
                let measured = root.join("target/bench").join(file);
                self.write(&measured);
                let load = |path: &Path| Report::load(path).map_err(|e| vec![e]);
                return check(&load(&committed)?, &load(&measured)?, gates);
            }
        }
        Ok(())
    }

    fn write(&self, path: &Path) {
        let dir = path.parent().expect("results files live in a directory");
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        let text = serde_json::to_string_pretty(self).expect("a report serializes") + "\n";
        std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}

/// Holds every committed row to `gates` in the measured row of the same
/// name, printing one line per verdict. Fails with one message per
/// failed gate, per committed row the measured report lacks, and per
/// gated field missing from either side.
fn check(committed: &Report, measured: &Report, gates: &[Gate]) -> Result<(), Vec<String>> {
    let mut failures = Vec::new();
    for old in &committed.results {
        let name = row_name(old).unwrap_or_default();
        let Some(new) = measured.results.iter().find(|r| row_name(r) == Some(name)) else {
            failures.push(format!("{name}: committed but not measured"));
            continue;
        };
        for verdict in gates.iter().map(|gate| gate.judge(old, new)) {
            match verdict {
                Ok(line) => println!("check: {name:<32} ok      {line}"),
                Err(line) => failures.push(format!("{name}: {line}")),
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

fn row_name(row: &Value) -> Option<&str> {
    match row.get("name") {
        Some(Value::Str(name)) => Some(name),
        _ => None,
    }
}

fn json(value: &Value) -> String {
    serde_json::to_string(value).expect("a value serializes")
}

fn revision() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |rev| rev.trim().to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, fields: &[(&str, Value)]) -> Value {
        let mut map = vec![("name".to_owned(), Value::Str(name.to_owned()))];
        map.extend(fields.iter().map(|(k, v)| ((*k).to_owned(), v.clone())));
        Value::Map(map)
    }

    fn report(results: Vec<Value>) -> Report {
        Report {
            bench: "unit".to_owned(),
            backend: "scalar".to_owned(),
            workers: 1,
            revision: "test".to_owned(),
            results,
        }
    }

    fn speedup(x: f64) -> Report {
        report(vec![row("case", &[("speedup", Value::Float(x))])])
    }

    #[test]
    fn floor_gate_passes_at_the_floor_and_fails_just_below() {
        let gates = [Gate::Floor("speedup")];
        let committed = speedup(12.5);
        let at = FLOOR * 12.5;
        assert!(check(&committed, &speedup(at), &gates).is_ok());
        let below = f64::from_bits(at.to_bits() - 1);
        assert_eq!(check(&committed, &speedup(below), &gates).map_err(|f| f.len()), Err(1));
    }

    #[test]
    fn exact_gate_fails_on_a_count_off_by_one() {
        let gates = [Gate::Exact("cells")];
        let cells = |n: u64| report(vec![row("static", &[("cells", Value::UInt(n))])]);
        assert!(check(&cells(4948), &cells(4948), &gates).is_ok());
        assert!(check(&cells(4948), &cells(4949), &gates).is_err());
        assert!(check(&cells(4948), &cells(4947), &gates).is_err());
    }

    #[test]
    fn a_committed_row_missing_from_the_run_fails() {
        let committed = report(vec![row("a", &[]), row("b", &[])]);
        let renamed = report(vec![row("a", &[]), row("b2", &[])]);
        let failures = check(&committed, &renamed, &[]).expect_err("row `b` was dropped");
        assert!(failures[0].contains("b: committed but not measured"), "{failures:?}");
    }

    #[test]
    fn a_gated_field_missing_on_either_side_fails() {
        let gates = [Gate::Exact("shed")];
        let with = report(vec![row("s1", &[("shed", Value::UInt(0))])]);
        let without = report(vec![row("s1", &[])]);
        assert!(check(&with, &without, &gates).is_err());
        assert!(check(&without, &with, &gates).is_err());
        let floor = [Gate::Floor("speedup")];
        assert!(check(&speedup(2.0), &report(vec![row("case", &[])]), &floor).is_err());
    }

    #[test]
    fn test_leaves_results_byte_identical_and_check_writes_under_target() {
        let root = std::env::temp_dir().join(format!("pcnn-harness-{}", std::process::id()));
        let committed = root.join("results/BENCH_unit.json");
        std::fs::create_dir_all(committed.parent().unwrap()).unwrap();
        speedup(4.0).write(&committed);
        let before = std::fs::read(&committed).unwrap();
        let gates = [Gate::Floor("speedup")];

        speedup(1.0).finish_in(&root, Mode::Test, "BENCH_unit.json", &gates).unwrap();
        assert_eq!(std::fs::read(&committed).unwrap(), before);

        assert!(speedup(1.0).finish_in(&root, Mode::Check, "BENCH_unit.json", &gates).is_err());
        assert_eq!(std::fs::read(&committed).unwrap(), before);
        assert_eq!(Report::load(&root.join("target/bench/BENCH_unit.json")), Ok(speedup(1.0)));

        speedup(1.0).finish_in(&root, Mode::Record, "BENCH_unit.json", &gates).unwrap();
        assert_eq!(Report::load(&committed), Ok(speedup(1.0)));
        std::fs::remove_dir_all(&root).unwrap();
    }
}
