//! Byte-exact goldens of the three status pages — `/stub_status`,
//! `/stub_status?format=kv` and `/metrics` — served by a worker's
//! `MetricsPlane` fed one fixed `StatusSnapshot`. Every snapshot field
//! (each `WorkerStats` and `HeuristicStats` counter included) holds a
//! distinct value, so a getter that reads the wrong field changes a
//! byte. Scrapers parse these pages; any edit to the renderers must
//! leave them as they are.
//!
//! Three configurations: SW (no engine, no poller), sharded QTLS on a
//! fresh, idle two-endpoint device with heuristic stats, and the same
//! with `trace_sample_rate 1`, which appends the latency-attribution
//! table and the trace families. The idle engine's phase histograms,
//! device and submit counters and flight recorder are then given fixed
//! samples, and the traced worker one published connection trace, so
//! the labelled families render non-zero values too.

mod golden_plane;

use golden_plane::pages;
use qtls_core::OffloadProfile;

fn assert_golden(config: &str, rendered: [String; 3]) {
    for (page, got) in ["stub_status", "kv", "metrics"].iter().zip(rendered) {
        let path = format!(
            "{}/tests/golden/{config}.{page}.txt",
            env!("CARGO_MANIFEST_DIR")
        );
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        if got != want {
            let line = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .unwrap_or(got.lines().count().min(want.lines().count()));
            panic!(
                "{config} {page} differs from {path} at line {}:\n got: {:?}\nwant: {:?}\n\
                 rendered page:\n{got}",
                line + 1,
                got.lines().nth(line),
                want.lines().nth(line),
            );
        }
    }
}

#[test]
fn sw_pages_are_byte_identical_to_their_goldens() {
    assert_golden("sw", pages(OffloadProfile::Sw, 0));
}

#[test]
fn sharded_qtls_pages_are_byte_identical_to_their_goldens() {
    assert_golden("qtls", pages(OffloadProfile::Qtls, 0));
}

#[test]
fn traced_qtls_pages_are_byte_identical_to_their_goldens() {
    assert_golden("qtls_traced", pages(OffloadProfile::Qtls, 1));
}
