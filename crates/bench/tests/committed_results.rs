//! Every committed `results/BENCH_*.json` file is a full-run document
//! in the shared harness envelope, so `--check` can compare against it.

use pcnn_bench::harness::Report;
use serde::Value;
use std::path::Path;

#[test]
fn every_committed_bench_file_is_a_full_run_in_the_harness_envelope() {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("results directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no BENCH_*.json under {}", dir.display());

    for path in &files {
        let report = Report::load(path).unwrap_or_else(|e| panic!("{e}"));
        for (field, value) in
            [("bench", &report.bench), ("backend", &report.backend), ("revision", &report.revision)]
        {
            assert!(!value.is_empty(), "{}: empty `{field}`", path.display());
        }
        assert!(report.workers > 0, "{}: zero workers", path.display());
        assert!(!report.results.is_empty(), "{}: no result rows", path.display());

        let text = std::fs::read_to_string(path).expect("readable");
        let doc: Value = serde_json::from_str(&text).expect("valid JSON");
        assert!(doc.get("smoke").is_none(), "{}: a smoke run was committed", path.display());
    }
}
