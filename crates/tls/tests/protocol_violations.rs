//! Adversarial protocol tests: out-of-order messages, downgrades,
//! replays and tampered handshake content must be rejected with typed
//! errors.

use qtls_core::run_sync;
use qtls_crypto::ecc::NamedCurve;
use qtls_crypto::rsa::RsaPrivateKey;
use qtls_crypto::test_keys::test_rsa_2048;
use qtls_crypto::{Bn, CryptoError, TestRng};
use qtls_tls::client::ClientSession;
use qtls_tls::messages::*;
use qtls_tls::provider::{CryptoProvider, OpCounters};
use qtls_tls::record::{ContentType, RecordLayer};
use qtls_tls::server::{ServerConfig, ServerSession};
use qtls_tls::suite::{CipherSuite, Version};
use qtls_tls::tls13::{Tls13ClientSession, Tls13ServerSession};
use qtls_tls::TlsError;
use std::sync::Arc;

/// Wrap a handshake message in a plaintext record.
fn record_with(msg: &HandshakeMsg) -> Vec<u8> {
    let mut layer = RecordLayer::new(Version::Tls12.wire());
    let mut counters = OpCounters::default();
    let mut rng = TestRng::new(7);
    let mut record = Vec::new();
    run_sync(layer.write_record_async(
        ContentType::Handshake,
        &msg.encode(),
        &mut record,
        &CryptoProvider::Software,
        &mut counters,
        &mut rng,
    ))
    .unwrap();
    record
}

fn fresh_server(seed: u64) -> ServerSession {
    ServerSession::new(ServerConfig::test_default(), CryptoProvider::Software, seed)
}

/// A second `start()` is a typed error, not a panic, and sends nothing.
#[test]
fn client_start_twice_is_an_error() {
    let mut client = ClientSession::new(
        CryptoProvider::Software,
        CipherSuite::EcdheRsa,
        NamedCurve::P256,
        None,
        3,
    );
    client.start().unwrap();
    let hello = client.take_output();
    assert!(!hello.is_empty());
    assert_eq!(
        client.start(),
        Err(TlsError::InvalidState("start() called twice"))
    );
    assert!(client.take_output().is_empty());
    let mut tls13 = Tls13ClientSession::new(
        CryptoProvider::Software,
        CipherSuite::EcdheRsa,
        NamedCurve::P256,
        3,
    );
    tls13.start().unwrap();
    assert_eq!(
        tls13.start(),
        Err(TlsError::InvalidState("start() called twice"))
    );
}

#[test]
fn server_rejects_ckx_before_hello() {
    let mut server = fresh_server(1);
    let ckx = HandshakeMsg::ClientKeyExchange(ClientKeyExchange {
        payload: vec![0u8; 256],
    });
    server.feed(&record_with(&ckx));
    match server.process() {
        Err(TlsError::UnexpectedMessage { expected, got }) => {
            assert_eq!(expected, "ClientHello");
            assert_eq!(got, "ClientKeyExchange");
        }
        other => panic!("expected UnexpectedMessage, got {other:?}"),
    }
}

#[test]
fn server_rejects_duplicate_client_hello() {
    let mut server = fresh_server(2);
    let ch = HandshakeMsg::ClientHello(ClientHello {
        version: Version::Tls12,
        random: [1u8; 32],
        session_id: vec![],
        suites: vec![CipherSuite::TlsRsa.wire()],
        curves: vec![],
        ticket: None,
        key_share: None,
        psk: None,
    });
    server.feed(&record_with(&ch));
    server.process().unwrap();
    server.feed(&record_with(&ch));
    assert!(matches!(
        server.process(),
        Err(TlsError::UnexpectedMessage { .. })
    ));
}

#[test]
fn server_rejects_unknown_suite_offer() {
    let mut server = fresh_server(3);
    let ch = HandshakeMsg::ClientHello(ClientHello {
        version: Version::Tls12,
        random: [1u8; 32],
        session_id: vec![],
        suites: vec![0x1337], // not a real suite
        curves: vec![],
        ticket: None,
        key_share: None,
        psk: None,
    });
    server.feed(&record_with(&ch));
    assert!(matches!(
        server.process(),
        Err(TlsError::HandshakeFailure(_))
    ));
}

#[test]
fn server_rejects_ecdhe_without_common_curve() {
    let mut server = fresh_server(4);
    let ch = HandshakeMsg::ClientHello(ClientHello {
        version: Version::Tls12,
        random: [1u8; 32],
        session_id: vec![],
        suites: vec![CipherSuite::EcdheRsa.wire()],
        curves: vec![9999], // unsupported group
        ticket: None,
        key_share: None,
        psk: None,
    });
    server.feed(&record_with(&ch));
    assert!(matches!(
        server.process(),
        Err(TlsError::HandshakeFailure(_))
    ));
}

#[test]
fn server_rejects_app_data_before_handshake() {
    let mut server = fresh_server(5);
    let mut layer = RecordLayer::new(Version::Tls12.wire());
    let mut counters = OpCounters::default();
    let mut rng = TestRng::new(9);
    let mut rec = Vec::new();
    run_sync(layer.write_record_async(
        ContentType::ApplicationData,
        b"premature",
        &mut rec,
        &CryptoProvider::Software,
        &mut counters,
        &mut rng,
    ))
    .unwrap();
    server.feed(&rec);
    assert!(matches!(
        server.process(),
        Err(TlsError::UnexpectedMessage { .. })
    ));
}

#[test]
fn server_rejects_wrong_version_hello() {
    let mut server = fresh_server(6);
    let ch = HandshakeMsg::ClientHello(ClientHello {
        version: Version::Tls13, // 1.3 hello at a 1.2 session
        random: [1u8; 32],
        session_id: vec![],
        suites: vec![CipherSuite::TlsRsa.wire()],
        curves: vec![],
        ticket: None,
        key_share: None,
        psk: None,
    });
    server.feed(&record_with(&ch));
    assert!(server.process().is_err());
}

#[test]
fn client_rejects_unoffered_suite_selection() {
    // A MITM downgrading the suite must be caught at the ServerHello.
    let mut client = ClientSession::new(
        CryptoProvider::Software,
        CipherSuite::EcdheEcdsa,
        NamedCurve::P256,
        None,
        7,
    );
    client.start().unwrap();
    let _ = client.take_output();
    let sh = HandshakeMsg::ServerHello(ServerHello {
        version: Version::Tls12,
        random: [2u8; 32],
        session_id: vec![3; 32],
        suite: CipherSuite::TlsRsa, // never offered
        key_share: None,
        selected_psk: None,
    });
    client.feed(&record_with(&sh));
    assert!(matches!(
        client.process(),
        Err(TlsError::HandshakeFailure(_))
    ));
}

#[test]
fn client_rejects_forged_server_key_exchange() {
    // Tampering with the signed ECDHE parameters must fail verification.
    let config = ServerConfig::test_default();
    let mut server = ServerSession::new(config, CryptoProvider::Software, 8);
    let mut client = ClientSession::new(
        CryptoProvider::Software,
        CipherSuite::EcdheRsa,
        NamedCurve::P256,
        None,
        9,
    );
    client.start().unwrap();
    server.feed(&client.take_output());
    server.process().unwrap();
    // Server flight: SH + Cert + SKX + Done. Flip bytes in the middle of
    // the flight (the SKX public-key area) and hand it to the client.
    let mut flight = server.take_output();
    let mid = flight.len() / 2;
    for b in &mut flight[mid..mid + 8] {
        *b ^= 0xff;
    }
    client.feed(&flight);
    assert!(client.process().is_err(), "forged SKX must be rejected");
}

#[test]
fn finished_replay_across_sessions_fails() {
    // Capture a Finished-bearing flight from one session and splice it
    // into another: the transcript/master mismatch must be fatal.
    let config = ServerConfig::test_default();
    // Session A runs fully to capture the client's final flight.
    let mut server_a = ServerSession::new(config.clone(), CryptoProvider::Software, 10);
    let mut client_a = ClientSession::new(
        CryptoProvider::Software,
        CipherSuite::TlsRsa,
        NamedCurve::P256,
        None,
        11,
    );
    client_a.start().unwrap();
    server_a.feed(&client_a.take_output());
    server_a.process().unwrap();
    client_a.feed(&server_a.take_output());
    client_a.process().unwrap();
    let client_a_final = client_a.take_output(); // CKX + CCS + Finished
                                                 // Session B: same client opening, but session A's final flight.
    let mut server_b = ServerSession::new(config, CryptoProvider::Software, 12);
    let mut client_b = ClientSession::new(
        CryptoProvider::Software,
        CipherSuite::TlsRsa,
        NamedCurve::P256,
        None,
        13,
    );
    client_b.start().unwrap();
    server_b.feed(&client_b.take_output());
    server_b.process().unwrap();
    let _ = server_b.take_output();
    server_b.feed(&client_a_final);
    assert!(
        server_b.process().is_err(),
        "cross-session replay must fail (randoms differ)"
    );
}

/// A certificate's RSA key is peer input: a modulus that is even or ≤ 1,
/// or an exponent that is even or < 3, is a typed error, not a panic in
/// the Montgomery set-up (TLS 1.2 client).
#[test]
fn tls12_client_rejects_a_certificate_rsa_key_that_is_not_a_key() {
    let n = test_rsa_2048().public().modulus().to_bytes_be();
    let e = test_rsa_2048().public().exponent().to_bytes_be();
    let hostile = [
        (vec![], e.clone()),
        (vec![0x02], e.clone()),
        (vec![0x01], e.clone()),
        (vec![0xff, 0xfe], e.clone()),
        (n.clone(), vec![]),
        (n.clone(), vec![0x01]),
        (n.clone(), vec![0x01, 0x00, 0x00]),
    ];
    for (seed, (n, e)) in (20..).zip(hostile) {
        let mut client = ClientSession::new(
            CryptoProvider::Software,
            CipherSuite::EcdheRsa,
            NamedCurve::P256,
            None,
            seed,
        );
        client.start().unwrap();
        let _ = client.take_output();
        let sh = HandshakeMsg::ServerHello(ServerHello {
            version: Version::Tls12,
            random: [2u8; 32],
            session_id: vec![3; 32],
            suite: CipherSuite::EcdheRsa,
            key_share: None,
            selected_psk: None,
        });
        client.feed(&record_with(&sh));
        client.process().unwrap();
        let cert = HandshakeMsg::Certificate(CertPayload::Rsa {
            n: n.clone(),
            e: e.clone(),
        });
        client.feed(&record_with(&cert));
        assert!(
            matches!(
                client.process(),
                Err(TlsError::Crypto(CryptoError::InvalidKey))
            ),
            "n = {n:02x?}, e = {e:02x?}"
        );
    }
}

/// The same check on the TLS 1.3 client, whose certificate arrives
/// encrypted: a server whose key carries `e` = 1 or 2 (its signatures
/// still use the real `d`).
#[test]
fn tls13_client_rejects_a_certificate_rsa_key_that_is_not_a_key() {
    let key = test_rsa_2048();
    let (p, q) = key.primes();
    for (seed, e) in (30..).step_by(2).zip([1, 2]) {
        let hostile = RsaPrivateKey::from_parts(
            key.public().modulus().clone(),
            Bn::from_u64(e),
            key.d().clone(),
            p.clone(),
            q.clone(),
        );
        let base = ServerConfig::test_default();
        let config = Arc::new(ServerConfig {
            rsa_key: Arc::new(hostile),
            ecdsa_keys: base.ecdsa_keys.clone(),
            suites: base.suites.clone(),
            curves: base.curves.clone(),
            session_store: Arc::clone(&base.session_store),
            ticket_keys: Arc::clone(&base.ticket_keys),
            issue_tickets: base.issue_tickets,
        });
        let mut server = Tls13ServerSession::new(config, CryptoProvider::Software, seed);
        let mut client = Tls13ClientSession::new(
            CryptoProvider::Software,
            CipherSuite::EcdheRsa,
            NamedCurve::P256,
            seed + 1,
        );
        client.start().unwrap();
        server.feed(&client.take_output());
        server.process().unwrap();
        client.feed(&server.take_output());
        assert!(
            matches!(
                client.process(),
                Err(TlsError::Crypto(CryptoError::InvalidKey))
            ),
            "e = {e}"
        );
    }
}
