//! Experiment runners — one per table/figure of the paper's evaluation
//! (§5). Each returns a [`Figure`] of labeled series that can be rendered
//! as the text analogue of the paper's plot; `cargo run -p qtls-sim --bin
//! figures` renders them.

use crate::cost::CostModel;
use crate::sim::{RequestLoad, Sim, SimConfig, SimProfile, SimReport};
use crate::workload::SuiteKind;
use qtls_crypto::ecc::NamedCurve;

/// Simulation fidelity (trade run time for smoother numbers).
#[derive(Clone, Copy, Debug)]
pub struct Fidelity {
    /// Warmup nanoseconds.
    pub warmup_ns: u64,
    /// Measurement window nanoseconds.
    pub measure_ns: u64,
}

impl Fidelity {
    /// Quick runs for tests (±10% noise).
    pub const QUICK: Fidelity = Fidelity {
        warmup_ns: 2_000_000_000,
        measure_ns: 1_500_000_000,
    };
    /// Full runs for reported numbers.
    pub const FULL: Fidelity = Fidelity {
        warmup_ns: 6_000_000_000,
        measure_ns: 4_000_000_000,
    };
    /// Smoke runs for CI: just enough simulated time to exercise every
    /// figure-generating code path; the numbers are noisy and must not
    /// be quoted.
    pub const SMOKE: Fidelity = Fidelity {
        warmup_ns: 300_000_000,
        measure_ns: 200_000_000,
    };
}

/// One plotted series.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label (configuration name).
    pub label: String,
    /// `(x label, y value)` points.
    pub points: Vec<(String, f64)>,
}

/// A reproduced figure/table.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Paper identifier, e.g. "Fig 7a".
    pub id: String,
    /// Description.
    pub title: String,
    /// Y-axis unit.
    pub unit: String,
    /// All series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Render as an aligned text table (x values as rows, series as
    /// columns) — the textual analogue of the paper's plot.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{} — {} [{}]\n", self.id, self.title, self.unit));
        let xs: Vec<&String> = self.series[0].points.iter().map(|(x, _)| x).collect();
        out.push_str(&format!("{:>12}", ""));
        for s in &self.series {
            out.push_str(&format!("{:>14}", s.label));
        }
        out.push('\n');
        for (i, x) in xs.iter().enumerate() {
            out.push_str(&format!("{x:>12}"));
            for s in &self.series {
                out.push_str(&format!("{:>14.2}", s.points[i].1));
            }
            out.push('\n');
        }
        out
    }

    /// Serialize as JSON (for scripts that post-process results).
    /// Hand-rolled to keep the dependency set to the approved crates;
    /// the structure is flat enough that escaping label strings is the
    /// only subtlety.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.chars()
                .flat_map(|c| match c {
                    '"' => "\\\"".chars().collect::<Vec<_>>(),
                    '\\' => "\\\\".chars().collect(),
                    c => vec![c],
                })
                .collect()
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"id\": \"{}\",\n  \"title\": \"{}\",\n  \"unit\": \"{}\",\n  \"series\": [\n",
            esc(&self.id),
            esc(&self.title),
            esc(&self.unit)
        ));
        for (i, s) in self.series.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"points\": [",
                esc(&s.label)
            ));
            for (j, (x, y)) in s.points.iter().enumerate() {
                out.push_str(&format!("[\"{}\", {}]", esc(x), y));
                if j + 1 < s.points.len() {
                    out.push_str(", ");
                }
            }
            out.push_str("]}");
            out.push_str(if i + 1 < self.series.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}");
        out
    }

    /// Look up a value by series label and x label.
    pub fn value(&self, label: &str, x: &str) -> Option<f64> {
        let s = self.series.iter().find(|s| s.label == label)?;
        s.points.iter().find(|(px, _)| px == x).map(|(_, y)| *y)
    }
}

fn run(cfg: SimConfig) -> SimReport {
    Sim::new(cfg).run()
}

fn handshake_cfg(
    profile: SimProfile,
    workers: usize,
    clients: usize,
    suite: SuiteKind,
    f: Fidelity,
) -> SimConfig {
    let mut cfg = SimConfig::handshake(profile, workers, clients, suite);
    cfg.warmup_ns = f.warmup_ns;
    cfg.measure_ns = f.measure_ns;
    cfg
}

/// Figure 7a: TLS 1.2 TLS-RSA (2048) full-handshake CPS vs workers.
pub fn fig7a(f: Fidelity) -> Figure {
    cps_vs_workers(
        "Fig 7a",
        "Full handshake, TLS 1.2 TLS-RSA (2048-bit)",
        SuiteKind::TlsRsa,
        &[2, 4, 8, 16, 24, 32],
        SimProfile::FIVE.to_vec(),
        0,
        f,
    )
}

/// Figure 7b: ECDHE-RSA (2048, P-256) CPS vs workers.
pub fn fig7b(f: Fidelity) -> Figure {
    cps_vs_workers(
        "Fig 7b",
        "Full handshake, TLS 1.2 ECDHE-RSA (2048-bit, P-256)",
        SuiteKind::EcdheRsa(NamedCurve::P256),
        &[2, 4, 8, 12, 16, 20],
        SimProfile::FIVE.to_vec(),
        0,
        f,
    )
}

/// Figure 8: TLS 1.3 ECDHE-RSA CPS vs workers (HKDF stays on the CPU).
pub fn fig8(f: Fidelity) -> Figure {
    cps_vs_workers(
        "Fig 8",
        "Full handshake, TLS 1.3 ECDHE-RSA (2048-bit, P-256)",
        SuiteKind::Tls13EcdheRsa(NamedCurve::P256),
        &[2, 4, 8, 12, 16, 20],
        SimProfile::FIVE.to_vec(),
        0,
        f,
    )
}

/// Figure 9a: 100% abbreviated handshakes, ECDHE-RSA.
pub fn fig9a(f: Fidelity) -> Figure {
    cps_vs_workers(
        "Fig 9a",
        "Session resumption (100% abbreviated), TLS 1.2 ECDHE-RSA",
        SuiteKind::EcdheRsa(NamedCurve::P256),
        &[2, 4, 8, 12, 16, 20],
        SimProfile::FIVE.to_vec(),
        u32::MAX,
        f,
    )
}

/// Figure 9b: full:abbreviated = 1:9 mixture, ECDHE-RSA.
pub fn fig9b(f: Fidelity) -> Figure {
    cps_vs_workers(
        "Fig 9b",
        "Session resumption (full:abbreviated = 1:9), TLS 1.2 ECDHE-RSA",
        SuiteKind::EcdheRsa(NamedCurve::P256),
        &[2, 4, 8, 12, 16, 20],
        SimProfile::FIVE.to_vec(),
        9,
        f,
    )
}

#[allow(clippy::too_many_arguments)]
fn cps_vs_workers(
    id: &str,
    title: &str,
    suite: SuiteKind,
    worker_counts: &[usize],
    profiles: Vec<SimProfile>,
    resumes_per_full: u32,
    f: Fidelity,
) -> Figure {
    let series = profiles
        .into_iter()
        .map(|p| Series {
            label: p.label(),
            points: worker_counts
                .iter()
                .map(|&w| {
                    let mut cfg = handshake_cfg(p, w, 2000, suite, f);
                    cfg.resumes_per_full = resumes_per_full;
                    let r = run(cfg);
                    (format!("{w}HT"), r.cps / 1000.0)
                })
                .collect(),
        })
        .collect();
    Figure {
        id: id.into(),
        title: title.into(),
        unit: "K connections/s".into(),
        series,
    }
}

/// Figure 7c: ECDHE-ECDSA CPS on six NIST curves, 4 workers.
pub fn fig7c(f: Fidelity) -> Figure {
    let curves = NamedCurve::ALL;
    let series = SimProfile::FIVE
        .into_iter()
        .map(|p| Series {
            label: p.label(),
            points: curves
                .iter()
                .map(|&c| {
                    let cfg = handshake_cfg(p, 4, 2000, SuiteKind::EcdheEcdsa(c), f);
                    let r = run(cfg);
                    (c.name().to_string(), r.cps / 1000.0)
                })
                .collect(),
        })
        .collect();
    Figure {
        id: "Fig 7c".into(),
        title: "Full handshake, TLS 1.2 ECDHE-ECDSA (six NIST curves, 4 workers)".into(),
        unit: "K connections/s".into(),
        series,
    }
}

/// Figure 10: secure data transfer throughput vs requested file size
/// (AES128-SHA, 8 workers, 400 keep-alive clients).
pub fn fig10(f: Fidelity) -> Figure {
    let sizes_kb = [4u64, 16, 32, 64, 128, 256, 512, 1024];
    let series = SimProfile::FIVE
        .into_iter()
        .map(|p| Series {
            label: p.label(),
            points: sizes_kb
                .iter()
                .map(|&kb| {
                    let mut cfg = handshake_cfg(p, 8, 400, SuiteKind::TlsRsa, f);
                    cfg.request = Some(RequestLoad {
                        size: kb * 1024,
                        requests_per_conn: 1000, // keepalive: handshake amortized away
                    });
                    let r = run(cfg);
                    (format!("{kb}KB"), r.gbps)
                })
                .collect(),
        })
        .collect();
    Figure {
        id: "Fig 10".into(),
        title: "Secure data transfer throughput vs file size (AES128-SHA)".into(),
        unit: "Gbps".into(),
        series,
    }
}

/// Figure 11: average response time vs concurrency (1 worker, TLS-RSA,
/// small page, full handshake per request).
pub fn fig11(f: Fidelity) -> Figure {
    let concurrencies = [1usize, 2, 4, 6, 8, 12, 16, 32, 64, 128, 256];
    let profiles = vec![
        SimProfile::Sw,
        SimProfile::QatS {
            poll_interval_ns: 10_000,
        },
        SimProfile::QatA {
            poll_interval_ns: 10_000,
        },
        SimProfile::Qtls,
    ];
    let series = profiles
        .into_iter()
        .map(|p| Series {
            label: p.label(),
            points: concurrencies
                .iter()
                .map(|&n| {
                    let mut cfg = handshake_cfg(p, 1, n, SuiteKind::TlsRsa, f);
                    cfg.request = Some(RequestLoad {
                        size: 100, // "a small-size page (less than 100 bytes)"
                        requests_per_conn: 1,
                    });
                    let r = run(cfg);
                    (format!("{n}"), r.avg_latency_ms)
                })
                .collect(),
        })
        .collect();
    Figure {
        id: "Fig 11".into(),
        title: "Average response time vs concurrency (1 worker, TLS-RSA)".into(),
        unit: "ms".into(),
        series,
    }
}

/// The three polling scenarios of §5.6.
fn polling_profiles() -> Vec<(String, SimProfile)> {
    vec![
        (
            "10us".into(),
            SimProfile::QatA {
                poll_interval_ns: 10_000,
            },
        ),
        (
            "1ms".into(),
            SimProfile::QatA {
                poll_interval_ns: 1_000_000,
            },
        ),
        ("Heuristic".into(), SimProfile::QatAH),
    ]
}

/// Figure 12a: CPS vs workers for the three polling schemes (TLS-RSA).
pub fn fig12a(f: Fidelity) -> Figure {
    let worker_counts = [2usize, 4, 8, 12, 16, 20, 24, 28, 32];
    let series = polling_profiles()
        .into_iter()
        .map(|(label, p)| Series {
            label,
            points: worker_counts
                .iter()
                .map(|&w| {
                    let cfg = handshake_cfg(p, w, 2000, SuiteKind::TlsRsa, f);
                    (format!("{w}"), run(cfg).cps / 1000.0)
                })
                .collect(),
        })
        .collect();
    Figure {
        id: "Fig 12a".into(),
        title: "Polling schemes: full handshake TLS-RSA (2048-bit)".into(),
        unit: "K connections/s".into(),
        series,
    }
}

/// Figure 12b: throughput vs concurrent clients, 64 KB file.
pub fn fig12b(f: Fidelity) -> Figure {
    let clients = [16usize, 32, 48, 64, 96, 128, 192, 256, 512];
    let series = polling_profiles()
        .into_iter()
        .map(|(label, p)| Series {
            label,
            points: clients
                .iter()
                .map(|&n| {
                    let mut cfg = handshake_cfg(p, 8, n, SuiteKind::TlsRsa, f);
                    cfg.request = Some(RequestLoad {
                        size: 64 * 1024,
                        requests_per_conn: 1000,
                    });
                    (format!("{n}"), run(cfg).gbps)
                })
                .collect(),
        })
        .collect();
    Figure {
        id: "Fig 12b".into(),
        title: "Polling schemes: secure data transfer, 64 KB file (8 workers)".into(),
        unit: "Gbps".into(),
        series,
    }
}

/// Figure 12c: response time vs concurrent clients.
pub fn fig12c(f: Fidelity) -> Figure {
    let clients = [1usize, 2, 4, 6, 8, 12, 16, 32, 64];
    let series = polling_profiles()
        .into_iter()
        .map(|(label, p)| Series {
            label,
            points: clients
                .iter()
                .map(|&n| {
                    let mut cfg = handshake_cfg(p, 1, n, SuiteKind::TlsRsa, f);
                    cfg.request = Some(RequestLoad {
                        size: 100,
                        requests_per_conn: 1,
                    });
                    (format!("{n}"), run(cfg).avg_latency_ms)
                })
                .collect(),
        })
        .collect();
    Figure {
        id: "Fig 12c".into(),
        title: "Polling schemes: average response time (1 worker)".into(),
        unit: "ms".into(),
        series,
    }
}

/// Ablation (DESIGN.md §7): sweep the heuristic efficiency thresholds
/// (the `qat_heuristic_poll_*_threshold` directives) around the paper's
/// defaults of 48/24 and report CPS plus poll efficiency.
pub fn threshold_sweep(f: Fidelity) -> Figure {
    let thresholds = [6u64, 12, 24, 48, 96, 192];
    let mut cps = Series {
        label: "K CPS".into(),
        points: vec![],
    };
    let mut polls_per_k = Series {
        label: "polls/1K hs".into(),
        points: vec![],
    };
    for &t in &thresholds {
        let mut cfg = handshake_cfg(SimProfile::Qtls, 8, 2000, SuiteKind::TlsRsa, f);
        // Scale both thresholds together, preserving the 2:1 ratio.
        cfg.heuristic_asym_threshold = t;
        cfg.heuristic_sym_threshold = t / 2;
        let r = run(cfg);
        cps.points.push((format!("{t}"), r.cps / 1000.0));
        polls_per_k.points.push((
            format!("{t}"),
            r.polls as f64 / (r.handshakes as f64 / 1000.0),
        ));
    }
    Figure {
        id: "Ablation".into(),
        title: "Heuristic asym-threshold sweep (sym = asym/2), TLS-RSA, 8 workers".into(),
        unit: "see series".into(),
        series: vec![cps, polls_per_k],
    }
}

/// Ablation (DESIGN.md §7): sweep the sweep-boundary submission flush
/// depth under QTLS. Depth 1 is the per-request-doorbell baseline; as
/// the mean batch grows, the doorbell (ring publish + MMIO) cost
/// amortizes and only the per-request descriptor cost remains.
pub fn batching_ablation(f: Fidelity) -> Figure {
    let depths = [1u64, 2, 4, 8, 16];
    let off = crate::cost::CostModel::default().offload;
    let mut cps = Series {
        label: "K CPS".into(),
        points: vec![],
    };
    let mut submit_ns = Series {
        label: "submit ns/req".into(),
        points: vec![],
    };
    for &d in &depths {
        let mut cfg = handshake_cfg(SimProfile::Qtls, 8, 2000, SuiteKind::TlsRsa, f);
        cfg.submit_flush = crate::cost::SimFlushPolicy::AssumedDepth(d);
        let r = run(cfg);
        cps.points.push((format!("{d}"), r.cps / 1000.0));
        let per_req = off.submit_per_req_ns + off.submit_doorbell_ns.div_ceil(d);
        submit_ns.points.push((format!("{d}"), per_req as f64));
    }
    Figure {
        id: "Batching".into(),
        title: "Submission flush-depth sweep (QTLS), TLS-RSA, 8 workers".into(),
        unit: "see series".into(),
        series: vec![cps, submit_ns],
    }
}

/// Ablation (DESIGN.md §9): adaptive flush policy vs fixed depth 1 and
/// fixed depth 16 across the load sweep. Fixed depth 1 never amortizes
/// the doorbell; fixed depth 16 amortizes fully under saturation but
/// strands shallow batches behind the hold cap under light load; the
/// adaptive policy tracks the better of the two at each end.
pub fn adaptive_flush_ablation(f: Fidelity) -> Figure {
    use crate::cost::SimFlushPolicy;
    let loads = [20usize, 100, 500, 2000, 4000];
    let policies: [(&str, SimFlushPolicy); 3] = [
        ("fixed-1", SimFlushPolicy::FixedHold { depth: 1 }),
        ("fixed-16", SimFlushPolicy::FixedHold { depth: 16 }),
        ("adaptive", SimFlushPolicy::Adaptive { max_depth: 16 }),
    ];
    let mut series = Vec::new();
    for (name, policy) in policies {
        let mut cps = Series {
            label: format!("{name} K CPS"),
            points: vec![],
        };
        let mut p99 = Series {
            label: format!("{name} p99 ms"),
            points: vec![],
        };
        for &clients in &loads {
            let mut cfg = handshake_cfg(SimProfile::Qtls, 8, clients, SuiteKind::TlsRsa, f);
            cfg.submit_flush = policy;
            let r = run(cfg);
            cps.points.push((format!("{clients}"), r.cps / 1000.0));
            p99.points.push((format!("{clients}"), r.p99_latency_ms));
        }
        series.push(cps);
        series.push(p99);
    }
    Figure {
        id: "Adaptive".into(),
        title: "Adaptive vs fixed flush depth across load (QTLS), TLS-RSA, 8 workers".into(),
        unit: "see series".into(),
        series,
    }
}

/// Ablation (DESIGN.md §10): multi-instance sharding scaling. Sweep the
/// per-worker shard count at light, moderate, and saturating load with a
/// finite per-shard ring. One shard funnels the whole worker's inflight
/// through a single ring pair, so under saturation the ring fills and
/// submissions defer (paying extra doorbells plus requeue holds); more
/// shards divide the inflight across independent rings and the deferral
/// penalty vanishes. The sweep tops out at 2000 clients (≈250 inflight
/// per worker) — the heaviest load where four 64-slot shards still fit
/// the whole inflight window, so the 4-shard series shows the clean
/// escape from ring pressure rather than a deeper saturation regime.
pub fn sharding_ablation(f: Fidelity) -> Figure {
    use crate::cost::SimFlushPolicy;
    let loads = [500usize, 1000, 2000];
    let shard_counts = [1u64, 2, 4];
    let mut series = Vec::new();
    for &shards in &shard_counts {
        let mut cps = Series {
            label: format!("{shards}-shard K CPS"),
            points: vec![],
        };
        let mut p99 = Series {
            label: format!("{shards}-shard sim p99 ms"),
            points: vec![],
        };
        for &clients in &loads {
            let mut cfg = handshake_cfg(SimProfile::Qtls, 8, clients, SuiteKind::TlsRsa, f);
            cfg.submit_flush = SimFlushPolicy::Adaptive { max_depth: 16 };
            cfg.worker_shards = shards;
            cfg.shard_ring_capacity = 64;
            let r = run(cfg);
            cps.points.push((format!("{clients}"), r.cps / 1000.0));
            p99.points.push((format!("{clients}"), r.p99_latency_ms));
        }
        series.push(cps);
        series.push(p99);
    }
    Figure {
        id: "Sharding".into(),
        title: "Worker shard-count sweep (QTLS, ring 64/shard), TLS-RSA, 8 workers".into(),
        unit: "see series".into(),
        series,
    }
}

/// Ablation (DESIGN.md §13): the record data plane's batched bulk
/// offload. Keep-alive clients stream one object per request; every
/// 16 KB record is one `Cipher` op through the shards. Two workers keep
/// the worker CPU — where the submission machinery runs — the
/// bottleneck, so the card (~40 Gbps of AES) and the 80 GbE egress stay
/// clear and the per-record overheads are what the Gbps curve measures.
///
/// Four configurations:
/// - `SW`: all crypto on the CPU (the serial-CBC wall).
/// - `per-record`: one doorbell per sealed record (the pre-split codec
///   path, flush depth 1), ciphers spread across shards.
/// - `pinned-16`: records batched 16 deep but every cipher pinned to a
///   single shard ring (the old `op_affinity`), which at steady-state
///   inflight overflows a finite ring and pays deferral retries.
/// - `batched-16`: depth-16 batches AND ciphers spread across the
///   non-asym shards by least-inflight (the re-tuned `op_affinity`) —
///   the shipped data-plane default.
pub fn bulk_ablation(f: Fidelity) -> Figure {
    use crate::cost::SimFlushPolicy;
    let sizes_kb = [64u64, 256, 1024];
    // (label, profile, flush depth, shards)
    let variants: [(&str, SimProfile, u64, u64); 4] = [
        ("SW", SimProfile::Sw, 1, 1),
        ("per-record", SimProfile::Qtls, 1, 4),
        ("pinned-16", SimProfile::Qtls, 16, 1),
        ("batched-16", SimProfile::Qtls, 16, 4),
    ];
    let mut series = Vec::new();
    for (label, profile, depth, shards) in variants {
        let mut s = Series {
            label: label.into(),
            points: vec![],
        };
        for &kb in &sizes_kb {
            let mut cfg = handshake_cfg(profile, 2, 400, SuiteKind::TlsRsa, f);
            cfg.request = Some(RequestLoad {
                size: kb * 1024,
                requests_per_conn: 1000, // keepalive: handshake amortized away
            });
            cfg.submit_flush = SimFlushPolicy::AssumedDepth(depth);
            cfg.worker_shards = shards;
            cfg.shard_ring_capacity = 16;
            let r = run(cfg);
            s.points.push((format!("{kb}KB"), r.gbps));
        }
        series.push(s);
    }
    Figure {
        id: "Bulk".into(),
        title: "Record data plane: batched bulk offload vs per-record doorbells (2 workers)".into(),
        unit: "Gbps".into(),
        series,
    }
}

/// Ablation (DESIGN.md §12): cluster-shared resumption store vs
/// per-worker caches. A 1:9 full:abbreviated mixture is dispatched
/// round-robin over a growing worker count; with per-worker caches a
/// resumption attempt only succeeds when the dispatcher happens to land
/// the client back on the minting worker (≈1/W of the time), so almost
/// the whole abbreviated budget silently degrades to full handshakes
/// and CPS collapses toward the full-handshake curve. The shared store
/// holds the miss rate at zero regardless of worker count.
pub fn resumption_ablation(f: Fidelity) -> Figure {
    let worker_counts = [2usize, 4, 8, 12, 16];
    let mut series = Vec::new();
    for (label, shared) in [("shared", true), ("per-worker", false)] {
        let mut cps = Series {
            label: format!("{label} K CPS"),
            points: vec![],
        };
        let mut miss_pct = Series {
            label: format!("{label} miss %"),
            points: vec![],
        };
        for &w in &worker_counts {
            let mut cfg = handshake_cfg(
                SimProfile::Qtls,
                w,
                2000,
                SuiteKind::EcdheRsa(NamedCurve::P256),
                f,
            );
            cfg.resumes_per_full = 9;
            cfg.shared_resumption = shared;
            let r = run(cfg);
            cps.points.push((format!("{w}HT"), r.cps / 1000.0));
            let pct = if r.handshakes > 0 {
                100.0 * r.resume_misses as f64 / r.handshakes as f64
            } else {
                0.0
            };
            miss_pct.points.push((format!("{w}HT"), pct));
        }
        series.push(cps);
        series.push(miss_pct);
    }
    Figure {
        id: "Resumption".into(),
        title: "Shared vs per-worker resumption store (1:9 mixture, ECDHE-RSA, QTLS)".into(),
        unit: "see series".into(),
        series,
    }
}

/// Handshake-flood ablation: a warm keep-alive population (the QFAM
/// priority class) with a spoofed ClientHello flood riding on top, with
/// and without the admission-control layer. The flood targets the
/// asymmetric cost of full handshakes, so the software profile — where
/// that cost lands directly on the worker cores — shows the failure and
/// the protection most starkly.
pub fn flood_ablation(f: Fidelity) -> Figure {
    let scenarios = [
        ("no flood", 0usize, false),
        ("admission off", 320, false),
        ("admission on", 320, true),
    ];
    let mut p99 = Series {
        label: "est p99 ms".into(),
        points: vec![],
    };
    let mut rps = Series {
        label: "est K rps".into(),
        points: vec![],
    };
    let mut challenges = Series {
        label: "chal K/s".into(),
        points: vec![],
    };
    let mut flood_hs = Series {
        label: "flood hs/s".into(),
        points: vec![],
    };
    for (x, flood_clients, admission) in scenarios {
        let mut cfg = handshake_cfg(
            SimProfile::Sw,
            8,
            32,
            SuiteKind::EcdheRsa(NamedCurve::P256),
            f,
        );
        cfg.request = Some(RequestLoad {
            size: 16 * 1024,
            requests_per_conn: 8,
        });
        cfg.resumes_per_full = u32::MAX;
        cfg.cost.net.rtt_ns = 1_000_000;
        cfg.flood_clients = flood_clients;
        cfg.admission_enabled = admission;
        cfg.admission_watermark = 8;
        let r = run(cfg);
        let secs = f.measure_ns as f64 / 1e9;
        p99.points.push((x.into(), r.p99_latency_ms));
        rps.points.push((x.into(), r.rps / 1000.0));
        challenges
            .points
            .push((x.into(), r.challenges as f64 / secs / 1000.0));
        flood_hs
            .points
            .push((x.into(), r.flood_handshakes as f64 / secs));
    }
    Figure {
        id: "Flood".into(),
        title: "ClientHello flood vs QFAM admission control (SW, ECDHE-RSA, warm keep-alive \
                population)"
            .into(),
        unit: "see series".into(),
        series: vec![p99, rps, challenges, flood_hs],
    }
}

/// Ablation (DESIGN.md §15): cluster scheduling disciplines under a
/// skewed service-time mix. A quarter of the clients stream heavy
/// keep-alive record traffic (the bulk phase); the rest are
/// handshake-only. Four disciplines over the same mix:
/// - `rr`: blind round-robin dispatch, per-worker FCFS queues — the
///   seed cluster's policy.
/// - `cfcfs`: centralized FCFS — one shared queue per phase pool; ideal
///   balance but every pop pays the shared-structure synchronization
///   cost.
/// - `dfcfs`: least-loaded dispatch (argmin over the workers' load
///   gauges) into per-worker queues.
/// - `dfcfs+steal`: least-loaded dispatch plus idle workers stealing
///   half of the most-loaded sibling's queued backlog.
///
/// The x axis sweeps the phase-core split: a unified pool vs dedicating
/// a worker prefix to TLS/offload and the rest to application record
/// I/O (the carvalhof phases_table shape).
pub fn scheduling_ablation(f: Fidelity) -> Figure {
    use crate::sim::{SimDiscipline, SimDispatch};
    let splits: [(&str, Option<(usize, usize)>); 3] = [
        ("unified", None),
        ("tls6+app2", Some((6, 2))),
        ("tls4+app4", Some((4, 4))),
    ];
    let disciplines: [(&str, SimDispatch, SimDiscipline); 4] = [
        ("rr", SimDispatch::RoundRobin, SimDiscipline::DFcfs),
        ("cfcfs", SimDispatch::RoundRobin, SimDiscipline::CFcfs),
        ("dfcfs", SimDispatch::LeastLoaded, SimDiscipline::DFcfs),
        (
            "dfcfs+steal",
            SimDispatch::LeastLoaded,
            SimDiscipline::DFcfsSteal,
        ),
    ];
    let mut series = Vec::new();
    let mut steals = Series {
        label: "dfcfs+steal steals/s".into(),
        points: vec![],
    };
    for (name, dispatch, discipline) in disciplines {
        let mut p99 = Series {
            label: format!("{name} p99 ms"),
            points: vec![],
        };
        let mut cps = Series {
            label: format!("{name} K CPS"),
            points: vec![],
        };
        for (x, split) in splits {
            let mut cfg = handshake_cfg(
                SimProfile::Sw,
                8,
                64,
                SuiteKind::EcdheRsa(NamedCurve::P256),
                f,
            );
            cfg.request = Some(RequestLoad {
                size: 64 * 1024,
                requests_per_conn: 16,
            });
            cfg.heavy_clients = 16;
            cfg.dispatch = dispatch;
            cfg.discipline = discipline;
            cfg.phase_split = split;
            let r = run(cfg);
            p99.points.push((x.into(), r.p99_latency_ms));
            cps.points.push((x.into(), r.cps / 1000.0));
            if discipline == SimDiscipline::DFcfsSteal {
                let secs = f.measure_ns as f64 / 1e9;
                steals.points.push((x.into(), r.steals as f64 / secs));
            }
        }
        series.push(p99);
        series.push(cps);
    }
    series.push(steals);
    Figure {
        id: "Scheduling".into(),
        title: "Cluster scheduling: dispatch policy x queue discipline x phase split \
                (skewed heavy/light mix, SW, 8 workers)"
            .into(),
        unit: "see series".into(),
        series,
    }
}

/// Table 1: server-side crypto operations per full handshake.
pub fn table1() -> Figure {
    use crate::workload::{handshake_flights, OpKind, Seg};
    let m = CostModel::default();
    let rows: Vec<(String, SuiteKind)> = vec![
        ("1.2 TLS-RSA".into(), SuiteKind::TlsRsa),
        (
            "1.2 ECDHE-RSA".into(),
            SuiteKind::EcdheRsa(NamedCurve::P256),
        ),
        (
            "1.2 ECDHE-ECDSA".into(),
            SuiteKind::EcdheEcdsa(NamedCurve::P256),
        ),
        (
            "1.3 ECDHE-RSA".into(),
            SuiteKind::Tls13EcdheRsa(NamedCurve::P256),
        ),
    ];
    let mut rsa_series = Series {
        label: "RSA".into(),
        points: vec![],
    };
    let mut ecc_series = Series {
        label: "ECC".into(),
        points: vec![],
    };
    let mut kdf_series = Series {
        label: "PRF/HKDF".into(),
        points: vec![],
    };
    for (name, suite) in rows {
        let flights = handshake_flights(suite, false, &m);
        let mut rsa = 0.0;
        let mut ecc = 0.0;
        let mut kdf = 0.0;
        for seg in flights.iter().flatten() {
            match seg {
                Seg::Op(OpKind::RsaPriv) => rsa += 1.0,
                Seg::Op(OpKind::EcSign(_) | OpKind::EcKeygen(_) | OpKind::Ecdh(_)) => ecc += 1.0,
                Seg::Op(OpKind::Prf) => kdf += 1.0,
                // TLS 1.3's HKDF runs as CPU segments; count them.
                Seg::Cpu(ns) if suite.is_tls13() && *ns % m.sw.hkdf_ns == 0 => {
                    kdf += (*ns / m.sw.hkdf_ns) as f64;
                }
                _ => {}
            }
        }
        rsa_series.points.push((name.clone(), rsa));
        ecc_series.points.push((name.clone(), ecc));
        kdf_series.points.push((name, kdf));
    }
    Figure {
        id: "Table 1".into(),
        title: "Server-side crypto operations for full handshake".into(),
        unit: "operations".into(),
        series: vec![rsa_series, ecc_series, kdf_series],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let t = table1();
        assert_eq!(t.value("RSA", "1.2 TLS-RSA"), Some(1.0));
        assert_eq!(t.value("ECC", "1.2 TLS-RSA"), Some(0.0));
        assert_eq!(t.value("PRF/HKDF", "1.2 TLS-RSA"), Some(4.0));
        assert_eq!(t.value("RSA", "1.2 ECDHE-RSA"), Some(1.0));
        assert_eq!(t.value("ECC", "1.2 ECDHE-RSA"), Some(2.0));
        assert_eq!(t.value("ECC", "1.2 ECDHE-ECDSA"), Some(3.0));
        assert_eq!(t.value("RSA", "1.3 ECDHE-RSA"), Some(1.0));
        assert!(t.value("PRF/HKDF", "1.3 ECDHE-RSA").unwrap() > 4.0);
    }

    #[test]
    fn json_output_is_wellformed() {
        let t = table1();
        let j = t.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"id\": \"Table 1\""));
        assert!(j.contains("\"label\": \"RSA\""));
        assert!(j.contains("[\"1.2 TLS-RSA\", 1]"));
        // Balanced braces/brackets (cheap sanity for hand-rolled JSON).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn render_produces_table() {
        let t = table1();
        let s = t.render();
        assert!(s.contains("Table 1"));
        assert!(s.contains("ECDHE-ECDSA"));
    }

    #[test]
    fn batching_ablation_amortizes_doorbell() {
        let fig = batching_ablation(Fidelity::QUICK);
        // Cost model: depth 1 pays the full 5 µs submit; deeper batches
        // amortize the 3.5 µs doorbell share across the batch.
        assert_eq!(fig.value("submit ns/req", "1"), Some(5000.0));
        assert_eq!(fig.value("submit ns/req", "4"), Some(2375.0));
        assert_eq!(fig.value("submit ns/req", "16"), Some(1719.0));
        let c1 = fig.value("K CPS", "1").unwrap();
        let c16 = fig.value("K CPS", "16").unwrap();
        assert!(c1 > 0.0);
        assert!(
            c16 >= c1,
            "deeper batches must not lose CPS: {c1}K -> {c16}K"
        );
    }

    #[test]
    fn adaptive_flush_wins_both_ends() {
        let fig = adaptive_flush_ablation(Fidelity::QUICK);
        // Light load (20 closed-loop clients, ~2-3 inflight per worker):
        // fixed-16 strands every submission behind the 50 µs hold cap;
        // the adaptive policy must stay near fixed-1's p99 and clearly
        // beat fixed-16's.
        let a_p99 = fig.value("adaptive p99 ms", "20").unwrap();
        let f1_p99 = fig.value("fixed-1 p99 ms", "20").unwrap();
        let f16_p99 = fig.value("fixed-16 p99 ms", "20").unwrap();
        assert!(
            a_p99 <= f1_p99 * 1.10,
            "light-load p99: adaptive {a_p99} ms vs fixed-1 {f1_p99} ms"
        );
        assert!(
            f16_p99 > a_p99,
            "fixed-16 must pay the hold cap: {f16_p99} vs {a_p99}"
        );
        // Saturation (4000 clients): the adaptive policy amortizes like
        // fixed-16 and must not fall behind fixed-1's throughput.
        let a_cps = fig.value("adaptive K CPS", "4000").unwrap();
        let f1_cps = fig.value("fixed-1 K CPS", "4000").unwrap();
        let f16_cps = fig.value("fixed-16 K CPS", "4000").unwrap();
        assert!(
            a_cps >= f1_cps * 0.97,
            "saturation CPS: adaptive {a_cps}K vs fixed-1 {f1_cps}K"
        );
        assert!(
            a_cps >= f16_cps * 0.90,
            "adaptive within 10% of fixed-16 under saturation: {a_cps}K vs {f16_cps}K"
        );
    }

    #[test]
    fn sharding_relieves_ring_pressure_under_saturation() {
        let fig = sharding_ablation(Fidelity::QUICK);
        // Light load (500 clients): a single shard's ring never fills,
        // so extra shards must be free — all counts within noise.
        let c1_light = fig.value("1-shard K CPS", "500").unwrap();
        let c4_light = fig.value("4-shard K CPS", "500").unwrap();
        assert!(
            (c4_light - c1_light).abs() <= c1_light * 0.03,
            "light-load parity: 1-shard {c1_light}K vs 4-shard {c4_light}K"
        );
        // Saturation (2000 clients, ~250 inflight/worker): one 64-slot
        // ring defers constantly; four shards fit the whole window and
        // recover the lost CPS.
        let c1 = fig.value("1-shard K CPS", "2000").unwrap();
        let c4 = fig.value("4-shard K CPS", "2000").unwrap();
        assert!(
            c4 >= c1 * 1.15,
            "saturation CPS: 1-shard {c1}K vs 4-shard {c4}K"
        );
        // The requeue holds behind a full ring dominate tail latency;
        // sharding must cut the saturated p99 by more than half.
        let p1 = fig.value("1-shard sim p99 ms", "2000").unwrap();
        let p4 = fig.value("4-shard sim p99 ms", "2000").unwrap();
        assert!(
            p4 <= p1 * 0.5,
            "saturation p99: 1-shard {p1} ms vs 4-shard {p4} ms"
        );
    }

    #[test]
    fn bulk_batched_submission_beats_per_record() {
        let fig = bulk_ablation(Fidelity::QUICK);
        let sw = fig.value("SW", "1024KB").unwrap();
        let per_record = fig.value("per-record", "1024KB").unwrap();
        let pinned = fig.value("pinned-16", "1024KB").unwrap();
        let batched = fig.value("batched-16", "1024KB").unwrap();
        // Offloading the record path at all must clear the serial-CBC
        // software wall by a wide margin.
        assert!(
            per_record > sw * 2.0,
            "offload clears the SW cipher wall: {per_record} vs {sw} Gbps"
        );
        // The tentpole claim: coalescing records into depth-16 batches
        // amortizes the doorbell and buys back worker CPU.
        assert!(
            batched >= per_record * 1.15,
            "batched-16 {batched} Gbps must beat per-record {per_record} Gbps by >=1.15x"
        );
        // The op_affinity re-tune: spreading ciphers across shards by
        // least-inflight escapes the pinned ring's deferral retries.
        assert!(
            batched >= pinned * 1.1,
            "spread shards {batched} Gbps must beat pinned {pinned} Gbps"
        );
    }

    #[test]
    fn resumption_ablation_shared_store_wins() {
        let fig = resumption_ablation(Fidelity::QUICK);
        // The shared plane never misses; per-worker caches miss almost
        // the entire abbreviated budget at 8 workers (≈7/8 of attempts).
        let shared_miss = fig.value("shared miss %", "8HT").unwrap();
        let solo_miss = fig.value("per-worker miss %", "8HT").unwrap();
        assert_eq!(shared_miss, 0.0, "shared store must not miss");
        assert!(
            solo_miss > 50.0,
            "per-worker caches miss most cross-worker resumes: {solo_miss}%"
        );
        // Paying full handshakes for missed resumes costs CPS.
        let shared_cps = fig.value("shared K CPS", "8HT").unwrap();
        let solo_cps = fig.value("per-worker K CPS", "8HT").unwrap();
        assert!(
            shared_cps > solo_cps,
            "shared {shared_cps}K must beat per-worker {solo_cps}K"
        );
    }

    #[test]
    fn fig7a_quick_shape() {
        // The headline claims: SW anchor, monotone config ordering,
        // QTLS ≈ 9x SW at 8HT, card limit ~100K at 32HT.
        let fig = fig7a(Fidelity::QUICK);
        let sw8 = fig.value("SW", "8HT").unwrap();
        let qats8 = fig.value("QAT+S", "8HT").unwrap();
        let qata8 = fig.value("QAT+A", "8HT").unwrap();
        let qatah8 = fig.value("QAT+AH", "8HT").unwrap();
        let qtls8 = fig.value("QTLS", "8HT").unwrap();
        assert!((3.5..5.2).contains(&sw8), "SW 8HT = {sw8}K (paper 4.3K)");
        let s_ratio = qats8 / sw8;
        assert!(
            (1.4..3.5).contains(&s_ratio),
            "QAT+S/SW = {s_ratio} (paper ~2x)"
        );
        assert!(qata8 > qats8 * 2.0, "async >> straight");
        assert!(qatah8 > qata8, "heuristic helps");
        assert!(qtls8 > qatah8, "kernel bypass helps");
        let ratio = qtls8 / sw8;
        assert!(
            (6.0..12.0).contains(&ratio),
            "QTLS/SW at 8HT = {ratio} (paper ~9x)"
        );
        let qtls32 = fig.value("QTLS", "32HT").unwrap();
        assert!(
            (80.0..115.0).contains(&qtls32),
            "card limit ~100K: {qtls32}K"
        );
    }

    #[test]
    fn flood_ablation_admission_protects() {
        let fig = flood_ablation(Fidelity::QUICK);
        let base = fig.value("est p99 ms", "no flood").unwrap();
        let off = fig.value("est p99 ms", "admission off").unwrap();
        let on = fig.value("est p99 ms", "admission on").unwrap();
        // The success metric of the admission layer: the same flood that
        // degrades established p99 >= 2x without it stays within 1.2x of
        // the unflooded baseline with it.
        assert!(off >= base * 2.0, "flood must hurt: base={base} off={off}");
        assert!(
            on <= base * 1.2,
            "admission must protect: base={base} on={on}"
        );
        let chal = fig.value("chal K/s", "admission on").unwrap();
        assert!(chal > 0.0, "the flood must be absorbed by challenges");
        let fhs = fig.value("flood hs/s", "admission on").unwrap();
        assert_eq!(fhs, 0.0, "spoofed sources never finish a handshake");
    }
}
