//! The trajectory gate (ROADMAP 3(g)): the newest entry of
//! `results/BENCH_e2e.json` must not record an end-to-end cell that is
//! worse than at its parent commit by more than the bound
//! `BENCHMARK.json` fixes for that metric, nor more failed operations.
//! A PR that appends a regression to the trajectory fails here.

use qtls_core::obs::tracejson::{self, Json};

fn load(name: &str) -> Json {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    tracejson::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn field<'a>(json: &'a Json, key: &str) -> &'a Json {
    json.get(key)
        .unwrap_or_else(|| panic!("missing field {key:?}"))
}

fn num(json: &Json, key: &str) -> f64 {
    field(json, key)
        .as_num()
        .unwrap_or_else(|| panic!("{key:?} is not a number"))
}

#[test]
fn newest_trajectory_entry_is_inside_every_bound() {
    let benchmark = load("BENCHMARK.json");
    let trajectory = load("results/BENCH_e2e.json");
    let entry = field(&trajectory, "entries")
        .as_arr()
        .and_then(|entries| entries.last())
        .expect("the trajectory has an entry");
    let pr = num(entry, "pr");
    let cells = field(entry, "workloads");
    let mut outside = Vec::new();
    for workload in field(&benchmark, "workloads").as_arr().expect("workloads") {
        let workload = field(workload, "name").as_str().expect("workload name");
        let Some(row) = cells.get(workload) else {
            outside.push(format!("{workload}: not measured"));
            continue;
        };
        for metric in field(&benchmark, "end_to_end").as_arr().expect("metrics") {
            let name = field(metric, "name").as_str().expect("metric name");
            let higher_is_better = field(metric, "better").as_str() == Some("higher");
            let cell = field(row, name);
            let (parent, change) = (num(cell, "parent_median"), num(cell, "change_median"));
            let worse_by = if higher_is_better {
                (parent - change) / parent
            } else {
                (change - parent) / parent
            };
            if worse_by > num(metric, "bound") {
                outside.push(format!(
                    "{workload} {name}: {parent} -> {change} ({:+.1} %)",
                    -worse_by * 100.0
                ));
            }
        }
        let failed = field(row, "failed");
        if num(failed, "change") > num(failed, "parent") {
            outside.push(format!("{workload}: more operations failed"));
        }
    }
    assert!(
        outside.is_empty(),
        "results/BENCH_e2e.json entry for PR {pr} is outside its bounds:\n{}",
        outside.join("\n")
    );
}
