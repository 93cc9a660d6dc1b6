//! The paper's quantitative claims, and the scheduling ablation's,
//! checked against the simulated testbed at quick fidelity (generous
//! bands to absorb simulation noise; EXPERIMENTS.md records exact
//! full-fidelity numbers).

use qtls::crypto::ecc::NamedCurve;
use qtls::sim::experiments::{scheduling_ablation, Fidelity};
use qtls::sim::{RequestLoad, Sim, SimConfig, SimProfile, SuiteKind};

fn run(cfg: SimConfig) -> qtls::sim::SimReport {
    Sim::new(cfg).run()
}

fn quick(mut cfg: SimConfig) -> qtls::sim::SimReport {
    cfg.warmup_ns = 1_500_000_000;
    cfg.measure_ns = 1_000_000_000;
    run(cfg)
}

const QTLS: SimProfile = SimProfile::Qtls;
const SW: SimProfile = SimProfile::Sw;
const QAT_S: SimProfile = SimProfile::QatS {
    poll_interval_ns: 10_000,
};
const QAT_A: SimProfile = SimProfile::QatA {
    poll_interval_ns: 10_000,
};

/// §5.3 / Fig 9a: "with abbreviated handshakes only, QTLS can provide a
/// 30%-40% CPS enhancement over the software baseline", while QAT+S
/// "gives an obviously lower CPS" than SW.
#[test]
fn claim_abbreviated_handshakes() {
    let suite = SuiteKind::EcdheRsa(NamedCurve::P256);
    let mk = |p| {
        let mut cfg = SimConfig::handshake(p, 8, 2000, suite);
        cfg.resumes_per_full = u32::MAX;
        cfg
    };
    let sw = quick(mk(SW));
    let qtls = quick(mk(QTLS));
    let qat_s = quick(mk(QAT_S));
    let boost = qtls.cps / sw.cps;
    assert!(
        (1.15..1.6).contains(&boost),
        "QTLS/SW abbreviated = {boost} (paper: 1.3-1.4x)"
    );
    assert!(qat_s.cps < sw.cps, "QAT+S must lose to SW on abbreviated");
}

/// §5.3 / Fig 9b: 1:9 full:abbreviated mixture — "QTLS improves the CPS
/// by more than 2x".
#[test]
fn claim_mixed_resumption() {
    let suite = SuiteKind::EcdheRsa(NamedCurve::P256);
    let mk = |p| {
        let mut cfg = SimConfig::handshake(p, 12, 2000, suite);
        cfg.resumes_per_full = 9;
        cfg
    };
    let sw = quick(mk(SW));
    let qtls = quick(mk(QTLS));
    let ratio = qtls.cps / sw.cps;
    assert!(ratio > 2.0, "QTLS/SW at 1:9 = {ratio} (paper: >2x)");
    // Sanity: the mixture really is ~90% abbreviated.
    let frac = qtls.abbreviated as f64 / qtls.handshakes as f64;
    assert!((0.85..0.95).contains(&frac), "abbreviated fraction {frac}");
}

/// §5.4 / Fig 10: at 128 KB the full QTLS provides "more than 2x
/// throughput improvement over the software baseline"; at 4 KB "only a
/// slightly higher throughput".
#[test]
fn claim_transfer_throughput() {
    let mk = |p, size_kb: u64| {
        let mut cfg = SimConfig::handshake(p, 8, 400, SuiteKind::TlsRsa);
        cfg.request = Some(RequestLoad {
            size: size_kb * 1024,
            requests_per_conn: 1000,
        });
        cfg
    };
    let sw128 = quick(mk(SW, 128));
    let qtls128 = quick(mk(QTLS, 128));
    let ratio = qtls128.gbps / sw128.gbps;
    assert!(ratio > 1.9, "128KB QTLS/SW = {ratio} (paper: >2x)");
    let sw4 = quick(mk(SW, 4));
    let qtls4 = quick(mk(QTLS, 4));
    let small_ratio = qtls4.gbps / sw4.gbps;
    assert!(
        (0.9..1.5).contains(&small_ratio),
        "4KB QTLS/SW = {small_ratio} (paper: 'slightly higher')"
    );
}

/// §5.5 / Fig 11: at concurrency 64 (1 worker, TLS-RSA, small page),
/// QAT+A cuts average response time by ~75% and QTLS by ~85%; at
/// concurrency 1 QAT+S has the lowest latency and SW the highest.
#[test]
fn claim_response_time() {
    let mk = |p, clients| {
        let mut cfg = SimConfig::handshake(p, 1, clients, SuiteKind::TlsRsa);
        cfg.request = Some(RequestLoad {
            size: 100,
            requests_per_conn: 1,
        });
        cfg
    };
    // Concurrency 64.
    let sw = quick(mk(SW, 64)).avg_latency_ms;
    let qat_a = quick(mk(QAT_A, 64)).avg_latency_ms;
    let qtls = quick(mk(QTLS, 64)).avg_latency_ms;
    let red_a = 1.0 - qat_a / sw;
    let red_q = 1.0 - qtls / sw;
    assert!(
        (0.65..0.90).contains(&red_a),
        "QAT+A reduction {red_a} (paper ~0.75)"
    );
    assert!(
        (0.78..0.92).contains(&red_q),
        "QTLS reduction {red_q} (paper ~0.85)"
    );
    assert!(qtls < qat_a, "QTLS below QAT+A at high concurrency");
    // Concurrency 1 ordering: QAT+S < QTLS < QAT+A < SW.
    let sw1 = quick(mk(SW, 1)).avg_latency_ms;
    let s1 = quick(mk(QAT_S, 1)).avg_latency_ms;
    let a1 = quick(mk(QAT_A, 1)).avg_latency_ms;
    let q1 = quick(mk(QTLS, 1)).avg_latency_ms;
    assert!(
        s1 < q1,
        "QAT+S ({s1}) lowest at concurrency 1 vs QTLS ({q1})"
    );
    assert!(q1 < a1, "QTLS ({q1}) below QAT+A ({a1}) at concurrency 1");
    assert!(a1 < sw1, "QAT+A ({a1}) below SW ({sw1}) at concurrency 1");
}

/// §5.6 / Fig 12: the 10 µs polling thread costs ~20% CPS vs heuristic;
/// the 1 ms poller collapses throughput at low concurrency.
#[test]
fn claim_polling_schemes() {
    // (a) handshake CPS at 8 workers.
    let cps_10us = quick(SimConfig::handshake(
        SimProfile::QatA {
            poll_interval_ns: 10_000,
        },
        8,
        2000,
        SuiteKind::TlsRsa,
    ))
    .cps;
    let cps_heur = quick(SimConfig::handshake(
        SimProfile::QatAH,
        8,
        2000,
        SuiteKind::TlsRsa,
    ))
    .cps;
    let gap = 1.0 - cps_10us / cps_heur;
    assert!(
        (0.10..0.30).contains(&gap),
        "10us gap = {gap} (paper ~0.20)"
    );
    // (b) 64 KB transfer at 16 clients: 1 ms poller collapses.
    let mk = |p| {
        let mut cfg = SimConfig::handshake(p, 8, 16, SuiteKind::TlsRsa);
        cfg.request = Some(RequestLoad {
            size: 64 * 1024,
            requests_per_conn: 1000,
        });
        cfg
    };
    let gbps_1ms = quick(mk(SimProfile::QatA {
        poll_interval_ns: 1_000_000,
    }))
    .gbps;
    let gbps_heur = quick(mk(SimProfile::QatAH)).gbps;
    assert!(
        gbps_1ms < 0.5 * gbps_heur,
        "1ms poller must collapse at low concurrency: {gbps_1ms} vs {gbps_heur}"
    );
}

/// §5.2 / Fig 8: TLS 1.3 sees a smaller speedup than TLS 1.2 because
/// HKDF cannot be offloaded.
#[test]
fn claim_tls13_smaller_speedup() {
    let w = 12;
    let t12 = SuiteKind::EcdheRsa(NamedCurve::P256);
    let t13 = SuiteKind::Tls13EcdheRsa(NamedCurve::P256);
    let r12 = quick(SimConfig::handshake(QTLS, w, 2000, t12)).cps
        / quick(SimConfig::handshake(SW, w, 2000, t12)).cps;
    let r13 = quick(SimConfig::handshake(QTLS, w, 2000, t13)).cps
        / quick(SimConfig::handshake(SW, w, 2000, t13)).cps;
    assert!(
        r13 < r12,
        "TLS1.3 speedup ({r13:.1}x) must be below TLS1.2 ({r12:.1}x)"
    );
    assert!(r13 > 2.5, "but still substantial: {r13:.1}x (paper 3.5x)");
}

/// DESIGN.md §15: under a skewed handshake+app mix, least-loaded dispatch
/// with work stealing cuts blind round-robin's p99 by at least 1.25x at
/// throughput parity, tracks the central-queue ideal, and a phase split
/// cuts the tail further.
#[test]
fn scheduling_ablation_steal_beats_round_robin() {
    let fig = scheduling_ablation(Fidelity::QUICK);
    let rr_p99 = fig.value("rr p99 ms", "unified").unwrap();
    let steal_p99 = fig.value("dfcfs+steal p99 ms", "unified").unwrap();
    assert!(
        rr_p99 / steal_p99 >= 1.25,
        "stealing must beat round-robin p99 by 1.25x: rr={rr_p99} steal={steal_p99}"
    );
    let rr_cps = fig.value("rr K CPS", "unified").unwrap();
    let steal_cps = fig.value("dfcfs+steal K CPS", "unified").unwrap();
    assert!(
        steal_cps >= rr_cps * 0.95,
        "throughput parity: rr={rr_cps}K steal={steal_cps}K"
    );
    // Why dfcfs+steal is the shipped policy: it tracks the
    // centralized-queue ideal's tail without paying a shared queue in the
    // real cluster.
    let cfcfs_p99 = fig.value("cfcfs p99 ms", "unified").unwrap();
    assert!(
        steal_p99 <= cfcfs_p99 * 1.25,
        "stealing tracks cFCFS: cfcfs={cfcfs_p99} steal={steal_p99}"
    );
    assert!(
        fig.value("dfcfs+steal steals/s", "unified").unwrap() > 0.0,
        "idle workers must actually steal under the skewed mix"
    );
    // Phase-dedicated cores isolate record I/O from handshakes and cut
    // the tail further, at a handshake-throughput cost: the trade the
    // split knob exposes.
    let split_p99 = fig.value("dfcfs+steal p99 ms", "tls6+app2").unwrap();
    assert!(
        split_p99 < steal_p99,
        "phase split must cut the tail: unified={steal_p99} split={split_p99}"
    );
}

/// §5.2 / Fig 7c: the "striking phenomenon" — Montgomery-friendly P-256
/// software beats straight offload, yet QTLS still wins by >70%; for
/// P-384 and the binary curves QTLS wins by an order of magnitude.
#[test]
fn claim_curve_matrix() {
    let mk = |p, c| SimConfig::handshake(p, 4, 1000, SuiteKind::EcdheEcdsa(c));
    // P-256: SW > QAT+S.
    let sw_p256 = quick(mk(SW, NamedCurve::P256)).cps;
    let s_p256 = quick(mk(QAT_S, NamedCurve::P256)).cps;
    assert!(
        sw_p256 > 2.0 * s_p256,
        "optimized P-256 SW must beat straight offload ({sw_p256} vs {s_p256})"
    );
    // ...but QTLS still enhances CPS by >70% over SW.
    let qtls_p256 = quick(mk(QTLS, NamedCurve::P256)).cps;
    assert!(
        qtls_p256 / sw_p256 > 1.5,
        "QTLS/SW on P-256 = {} (paper >1.7)",
        qtls_p256 / sw_p256
    );
    // P-384: QTLS an order of magnitude above SW.
    let sw_p384 = quick(mk(SW, NamedCurve::P384)).cps;
    let qtls_p384 = quick(mk(QTLS, NamedCurve::P384)).cps;
    assert!(
        qtls_p384 / sw_p384 > 8.0,
        "QTLS/SW on P-384 = {} (paper ~14x)",
        qtls_p384 / sw_p384
    );
}
