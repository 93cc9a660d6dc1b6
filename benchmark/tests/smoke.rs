//! Runs the benchmark at its smallest size (`--seconds 1`) on every
//! workload, untraced and traced, and checks that each run is correct
//! and prints exactly the metrics BENCHMARK.json names — so a renamed or
//! dropped metric is a test failure, not a silent hole.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Every `"name": "<x>"` inside the array that follows `"<section>"`.
fn names_in(doc: &str, section: &str) -> Vec<String> {
    let start = doc
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let array = &doc[start..];
    let array = &array[..array.find(']').expect("section is an array")];
    array
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

/// The `name → value` pairs of the result line's `metrics` object.
fn metrics_of(line: &str) -> BTreeMap<String, f64> {
    let body = line
        .split_once("\"metrics\": {")
        .expect("result line has metrics")
        .1;
    let mut out = BTreeMap::new();
    for entry in body.split("\"unit\"").filter(|e| e.contains("\"value\"")) {
        let (name, value) = entry
            .split_once("\": {\"value\": ")
            .expect("name and value");
        let name = &name[name.rfind('"').expect("opening quote") + 1..];
        let value: f64 = value
            .trim_end_matches([',', ' '])
            .parse()
            .unwrap_or_else(|_| panic!("{name}: unparsable value {value:?}"));
        assert!(
            out.insert(name.to_string(), value).is_none(),
            "{name} printed twice"
        );
    }
    out
}

#[test]
fn every_workload_prints_every_metric_once_and_finite() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root");
    let doc = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let workloads = names_in(&doc, "workloads");
    assert_eq!(workloads.len(), 6);
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let mut expected = names_in(&doc, section);
        expected.sort();
        for workload in &workloads {
            let run = Command::new(env!("CARGO_BIN_EXE_qtls-benchmark"))
                .current_dir(root)
                .args(["--workload", workload, "--seed", "7"])
                .args(["--seconds", "1", "--trace", trace])
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8(run.stdout).expect("UTF-8 output");
            let line = stdout.lines().last().expect("a result line");
            assert!(
                run.status.success() && line.starts_with("{\"correct\": true, "),
                "{workload} --trace {trace}:\n{stdout}"
            );
            let metrics = metrics_of(line);
            let printed: Vec<&String> = metrics.keys().collect();
            assert_eq!(printed, expected.iter().collect::<Vec<_>>(), "{workload}");
            for (name, value) in &metrics {
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                // The human-readable form of the same metric, once.
                let prefix = format!("{name} ");
                let lines = stdout.lines().filter(|l| l.starts_with(&prefix)).count();
                assert_eq!(lines, 1, "{workload}: `{name} unit value` lines");
            }
        }
    }
}
