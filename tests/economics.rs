//! The cost ratios the design rests on that no end-to-end cell can see,
//! each measured as the fastest of several runs per side (host noise can
//! only inflate a run):
//!
//! - admission: minting and verifying a retry token must cost orders of
//!   magnitude less than the full handshake it displaces, or a flood of
//!   challenges would cost the server as much as a flood of ClientHellos
//!   (DESIGN.md §14);
//! - the record data plane: 16 sealed 16 KB records under one doorbell
//!   must beat 16 one-record round trips, on a device whose engines
//!   sleep a card's service time (DESIGN.md §13);
//! - the bulk bytes: a megabyte through a virtual socket, and a
//!   megabyte of synthetic body, must each cost no more than a few
//!   copies of a megabyte (DESIGN.md §13), or the transport and the
//!   content outweigh the record cipher on the bulk path.

use qtls::core::{EngineMode, OffloadEngine};
use qtls::crypto::ecc::NamedCurve;
use qtls::crypto::CbcHmacSha1;
use qtls::qat::{CryptoOp, QatConfig, QatDevice, ServiceMode};
use qtls::server::http::synthetic_body;
use qtls::server::VSocket;
use qtls::tls::client::ClientSession;
use qtls::tls::provider::CryptoProvider;
use qtls::tls::server::{ServerConfig, ServerSession};
use qtls::tls::CipherSuite;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Every verdict is a wall-clock ratio, so the tests of this file take
/// turns instead of sharing the cores.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The fastest of `runs` timings of `f`.
fn fastest(runs: usize, mut f: impl FnMut() -> Duration) -> Duration {
    (0..runs).map(|_| f()).min().expect("at least one run")
}

/// A software ECDHE-RSA full handshake; returns the time the server
/// spent in it (the work a challenge is there to spare).
fn server_full_handshake(config: &Arc<ServerConfig>, seed: u64) -> Duration {
    let mut server = ServerSession::new(Arc::clone(config), CryptoProvider::Software, seed);
    let mut client = ClientSession::new(
        CryptoProvider::Software,
        CipherSuite::EcdheRsa,
        NamedCurve::P256,
        None,
        seed + 1,
    );
    client.start().expect("client hello");
    let mut spent = Duration::ZERO;
    for _ in 0..32 {
        let c = client.take_output();
        let s = server.take_output();
        if c.is_empty() && s.is_empty() {
            break;
        }
        if !c.is_empty() {
            let t = Instant::now();
            server.feed(&c);
            server.process().expect("server side of the handshake");
            spent += t.elapsed();
        }
        if !s.is_empty() {
            client.feed(&s);
            client.process().expect("client side of the handshake");
        }
    }
    assert!(server.is_established() && client.is_established());
    spent
}

#[test]
fn a_challenge_costs_a_fiftieth_of_the_handshake_it_displaces() {
    const RUNS: usize = 9;
    const CHALLENGES: u32 = 1_000;
    let _turn = serial();
    let config = ServerConfig::test_default();
    let keys = Arc::clone(&config.ticket_keys);

    let mut seed = 0x1000_0000;
    let handshake = fastest(RUNS, || {
        seed += 2;
        server_full_handshake(&config, seed)
    });
    let challenge = fastest(RUNS, || {
        let t = Instant::now();
        for addr in 0..u64::from(CHALLENGES) {
            let token = keys.mint_retry_token(addr, 1_000);
            assert!(keys.verify_retry_token(&token, addr, 1_000, 30));
        }
        t.elapsed() / CHALLENGES
    });
    let ratio = handshake.as_secs_f64() / challenge.as_secs_f64();
    println!(
        "admission economics: handshake {handshake:?}, mint+verify {challenge:?}, {ratio:.0}x"
    );
    assert!(
        ratio >= 50.0,
        "a challenge must be at least 50x cheaper than the full handshake it displaces: \
         handshake {handshake:?}, mint+verify {challenge:?} ({ratio:.0}x)"
    );
}

#[test]
fn sixteen_records_under_one_doorbell_beat_sixteen_round_trips() {
    const DEPTH: usize = 16;
    const RECORD: usize = 16 * 1024;
    const RUNS: usize = 9;
    let _turn = serial();
    let device = QatDevice::new(QatConfig {
        endpoints: 1,
        engines_per_endpoint: DEPTH,
        ring_capacity: 1024,
        // Engines sleep twice the calibrated 16 KB service time, so the
        // card latency that batching overlaps dominates the host-side
        // seal compute, which serialises on a small box.
        service_mode: ServiceMode::Timed { time_scale: 2.0 },
        ..QatConfig::functional_small()
    });
    let engine = OffloadEngine::new(device.alloc_instance(), EngineMode::Blocking);
    let cipher = Arc::new(CbcHmacSha1::new(&[0x11; 16], &[0x0b; 20]));
    let seal = |seq: usize| CryptoOp::CipherSealInPlace {
        cipher: Arc::clone(&cipher),
        iv: [0x22; 16],
        buf: vec![0x5a; RECORD],
        aad: [seq as u8; 11],
    };
    let per_record = || {
        let t = Instant::now();
        for i in 0..DEPTH {
            engine.offload(seal(i)).expect("seal");
        }
        t.elapsed()
    };
    let batched = || {
        let t = Instant::now();
        for result in engine.offload_batch((0..DEPTH).map(seal).collect()) {
            result.expect("seal");
        }
        t.elapsed()
    };

    // Exact counts first: what the wall-clock ratio below is made of.
    let doorbells = || device.fw_counters().doorbells.load(Ordering::Relaxed);
    let before = doorbells();
    batched();
    assert_eq!(
        doorbells() - before,
        1,
        "one doorbell for a batch of {DEPTH}"
    );
    let before = doorbells();
    per_record();
    assert_eq!(
        doorbells() - before,
        DEPTH as u64,
        "one doorbell per record"
    );

    let serial_time = fastest(RUNS, per_record);
    let batched_time = fastest(RUNS, batched);
    let speedup = serial_time.as_secs_f64() / batched_time.as_secs_f64();
    println!(
        "record batching: {DEPTH} x 16 KB per-record {serial_time:?}, batched \
         {batched_time:?}, {speedup:.2}x"
    );
    assert!(
        speedup >= 1.5,
        "{DEPTH} records under one doorbell must be at least 1.5x faster than \
         {DEPTH} round trips: per-record {serial_time:?}, batched {batched_time:?} \
         ({speedup:.2}x)"
    );
}

#[test]
fn bulk_bytes_move_at_memory_speed() {
    const MIB: usize = 1 << 20;
    const RUNS: usize = 9;
    /// A byte-at-a-time loop reads 50-80x here; two or three copies
    /// (plus one fresh allocation per side) read 1-3x.
    const BOUND: u32 = 8;
    let _turn = serial();
    let body = synthetic_body(MIB);
    // Each side times its work and returns before dropping its output.
    let clone = fastest(RUNS, || {
        let t = Instant::now();
        let copy = black_box(body.clone());
        let spent = t.elapsed();
        drop(copy);
        spent
    });
    let (client, server) = VSocket::pair();
    let socket = fastest(RUNS, || {
        let t = Instant::now();
        server.write(black_box(&body)).expect("open socket");
        let got = black_box(client.read_all().expect("bytes waiting"));
        let spent = t.elapsed();
        assert_eq!(got.len(), MIB);
        spent
    });
    let build = fastest(RUNS, || {
        let t = Instant::now();
        let built = black_box(synthetic_body(black_box(MIB)));
        let spent = t.elapsed();
        assert_eq!(built.len(), MIB);
        spent
    });
    let ratio = |d: Duration| d.as_secs_f64() / clone.as_secs_f64();
    println!(
        "bulk bytes, 1 MiB: clone {clone:?}, socket write + read_all {socket:?} \
         ({:.1}x), synthetic_body {build:?} ({:.1}x)",
        ratio(socket),
        ratio(build)
    );
    assert!(
        socket <= clone * BOUND,
        "1 MiB through a VSocket must cost at most {BOUND}x a 1 MiB clone: \
         {socket:?} vs {clone:?} ({:.1}x)",
        ratio(socket)
    );
    assert!(
        build <= clone * BOUND,
        "synthetic_body(1 MiB) must cost at most {BOUND}x a 1 MiB clone: \
         {build:?} vs {clone:?} ({:.1}x)",
        ratio(build)
    );
}
