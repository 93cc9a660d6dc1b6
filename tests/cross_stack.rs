//! Cross-crate consistency tests: the functional TLS stack, the QAT
//! device model and the simulator's workload model must all agree on the
//! paper's Table 1 — and a fully-offloaded handshake must push exactly
//! those operations through the device.

use qtls::core::{EngineMode, OffloadEngine, OffloadProfile};
use qtls::crypto::ecc::NamedCurve;
use qtls::qat::{QatConfig, QatDevice};
use qtls::sim::workload::{handshake_flights, OpKind, Seg, SuiteKind};
use qtls::sim::CostModel;
use qtls::tls::client::ClientSession;
use qtls::tls::provider::{CryptoProvider, OffloadSelection};
use qtls::tls::server::{ServerConfig, ServerSession};
use qtls::tls::CipherSuite;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn pump(client: &mut ClientSession, server: &mut ServerSession) {
    for _ in 0..32 {
        let c = client.take_output();
        let s = server.take_output();
        if c.is_empty() && s.is_empty() {
            break;
        }
        if !c.is_empty() {
            server.feed(&c);
            server.process().unwrap();
        }
        if !s.is_empty() {
            client.feed(&s);
            client.process().unwrap();
        }
    }
}

/// Count (rsa, ecc, prf) ops in a sim workload's flights.
fn sim_counts(suite: SuiteKind) -> (u32, u32, u32) {
    let m = CostModel::default();
    let mut out = (0u32, 0u32, 0u32);
    for seg in handshake_flights(suite, false, &m).iter().flatten() {
        if let Seg::Op(op) = seg {
            match op {
                OpKind::RsaPriv => out.0 += 1,
                OpKind::EcSign(_) | OpKind::EcKeygen(_) | OpKind::Ecdh(_) => out.1 += 1,
                OpKind::Prf => out.2 += 1,
                OpKind::Cipher(_) => {}
            }
        }
    }
    out
}

/// Run a functional full handshake and return the server's op counters.
fn functional_counts(suite: CipherSuite, seed: u64) -> (u32, u32, u32) {
    let config = ServerConfig::test_default();
    let mut server = ServerSession::new(config, CryptoProvider::Software, seed);
    let mut client = ClientSession::new(
        CryptoProvider::Software,
        suite,
        NamedCurve::P256,
        None,
        seed + 1,
    );
    client.start().unwrap();
    pump(&mut client, &mut server);
    assert!(server.is_established());
    (
        server.counters.rsa,
        server.counters.ecc,
        server.counters.prf,
    )
}

#[test]
fn table1_functional_matches_simulated_model() {
    // The simulator's cost-model workload and the real protocol
    // implementation must count identical operations (both must match
    // the paper's Table 1).
    let pairs = [
        (CipherSuite::TlsRsa, SuiteKind::TlsRsa),
        (CipherSuite::EcdheRsa, SuiteKind::EcdheRsa(NamedCurve::P256)),
        (
            CipherSuite::EcdheEcdsa,
            SuiteKind::EcdheEcdsa(NamedCurve::P256),
        ),
    ];
    for (i, (functional, simulated)) in pairs.into_iter().enumerate() {
        let f = functional_counts(functional, 100 + i as u64 * 10);
        let s = sim_counts(simulated);
        assert_eq!(f, s, "{functional:?} vs {simulated:?}");
    }
}

#[test]
fn offloaded_handshake_ops_reach_the_device() {
    // Every countable crypto op of an ECDHE-RSA handshake must travel
    // through the device model when fully offloaded: 1 RSA + 2 ECC asym,
    // 4 PRF (the record ops during the handshake are cipher class).
    let dev = QatDevice::new(QatConfig::functional_small());
    let engine = Arc::new(OffloadEngine::new(
        dev.alloc_instance(),
        EngineMode::Blocking,
    ));
    let config = ServerConfig::test_default();
    let selection = OffloadSelection::offload_everything();
    let mut server = ServerSession::new(config, CryptoProvider::Offload { engine, selection }, 300);
    let mut client = ClientSession::new(
        CryptoProvider::Software,
        CipherSuite::EcdheRsa,
        NamedCurve::P256,
        None,
        301,
    );
    client.start().unwrap();
    pump(&mut client, &mut server);
    assert!(server.is_established());
    let counters = dev.fw_counters();
    assert_eq!(counters.asym.load(Ordering::Relaxed), 3, "1 RSA + 2 ECC");
    assert_eq!(counters.prf.load(Ordering::Relaxed), 4, "4 PRF (Table 1)");
    // Handshake-phase record protection: server encrypts NST?/Finished
    // and decrypts the client's Finished — at least 2 cipher ops.
    assert!(counters.cipher.load(Ordering::Relaxed) >= 2);
    // Everything submitted was retrieved.
    assert_eq!(
        counters.submitted.load(Ordering::Relaxed),
        counters.polled.load(Ordering::Relaxed)
    );
}

#[test]
fn all_suites_and_profiles_matrix() {
    // Smoke the full functional matrix: every suite through every
    // offloading profile's worker (one handshake each).
    use qtls::server::loadgen::{run_connection, ClientConfig};
    use qtls::server::{VListener, Worker, WorkerConfig};
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    for profile in [
        OffloadProfile::Sw,
        OffloadProfile::QatS,
        OffloadProfile::QatA,
        OffloadProfile::QatAH,
        OffloadProfile::Qtls,
    ] {
        let listener = Arc::new(VListener::new());
        let device = profile
            .uses_qat()
            .then(|| QatDevice::new(QatConfig::functional_small()));
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let l2 = Arc::clone(&listener);
        let handle = std::thread::spawn(move || {
            let mut worker = Worker::new(l2, device.as_ref(), WorkerConfig::new(profile));
            worker.run_until(|_| stop2.load(Ordering::Relaxed));
            worker.stats
        });
        for (i, suite) in CipherSuite::ALL.into_iter().enumerate() {
            let cfg = ClientConfig {
                suite,
                request_path: Some("/".into()),
                ..ClientConfig::default()
            };
            let seed = 7000 + i as u64;
            run_connection(&listener, &cfg, seed, None, Duration::from_secs(60))
                .unwrap_or_else(|e| panic!("{profile:?}/{suite:?}: {e:?}"));
        }
        stop.store(true, Ordering::Relaxed);
        let stats = handle.join().unwrap();
        assert_eq!(stats.errors, 0, "{profile:?}");
        assert_eq!(stats.handshakes, 3, "{profile:?}");
    }
}
