//! Boot computes nothing the first connection does not need. After
//! `ServerConfig::test_default()` and a QTLS `Worker::new`, no scalar
//! multiplication has run on any curve and no comb table has been built:
//! the test ECDSA keys' public points are pinned (`test_keys`) and a
//! prime curve builds its table on first use. The first ECDHE-RSA P-256
//! handshake then builds P-256's table and nothing else's.
//!
//! The counts are process-wide, so this file holds one test: no other
//! test shares its process.

use qtls::core::OffloadProfile;
use qtls::crypto::ec::{p256, p384, scalar_muls};
use qtls::crypto::ecc::NamedCurve;
use qtls::qat::QatDevice;
use qtls::server::{VListener, Worker, WorkerConfig};
use qtls::tls::client::ClientSession;
use qtls::tls::provider::CryptoProvider;
use qtls::tls::server::ServerConfig;
use qtls::tls::CipherSuite;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn boot_runs_no_scalar_multiplication_and_builds_no_comb() {
    let config = ServerConfig::test_default();
    assert_eq!(config.curves, NamedCurve::ALL, "every curve stays enabled");
    assert_eq!(config.ecdsa_keys.len(), NamedCurve::ALL.len());
    let device = QatDevice::with_defaults();
    let listener = Arc::new(VListener::new());
    let mut cfg = WorkerConfig::new(OffloadProfile::Qtls);
    cfg.tls = config;
    let mut worker = Worker::new(Arc::clone(&listener), Some(&device), cfg);
    assert_eq!(scalar_muls(), 0, "boot ran a scalar multiplication");
    assert!(!p256().comb_built(), "boot built P-256's comb");
    assert!(!p384().comb_built(), "boot built P-384's comb");

    let mut client = ClientSession::new(
        CryptoProvider::Software,
        CipherSuite::EcdheRsa,
        NamedCurve::P256,
        None,
        0xb007,
    );
    client.start().expect("client hello");
    let sock = listener.connect();
    let deadline = Instant::now() + Duration::from_secs(60);
    while !(client.is_established() && worker.stats.handshakes == 1) {
        let out = client.take_output();
        if !out.is_empty() {
            sock.write(&out).expect("server end open");
        }
        worker.run_iteration();
        if let Ok(bytes) = sock.read_all() {
            client.feed(&bytes);
            client.process().expect("client side of the handshake");
        }
        assert!(Instant::now() < deadline, "handshake stalled");
    }
    assert!(scalar_muls() > 0);
    assert!(
        p256().comb_built(),
        "the first P-256 handshake builds its comb"
    );
    assert!(!p384().comb_built(), "no P-384 work");
    worker.shutdown();
}
