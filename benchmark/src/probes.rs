//! Layer probes: each public call that a workload leans on, timed on its
//! own from outside the crate that owns it, single-threaded (the QAT
//! probes have the device's engine threads as their only company).
//! Layers are the crates: `crypto`, `qat`, `core`, `tls`, `server`.

use crate::client::Session;
use crate::stats::median;
use qtls_core::{
    pause_job, start_job, AsyncQueue, EngineMode, FdSelector, HeuristicConfig, HeuristicPoller,
    OffloadEngine, OffloadProfile, StackAsyncOp, StackPoll, StartResult, VirtualFd,
};
use qtls_crypto::ecc::{self, NamedCurve};
use qtls_crypto::sha256::Sha256;
use qtls_crypto::test_keys::test_rsa_2048;
use qtls_crypto::{kdf, TestRng};
use qtls_qat::ring::Ring;
use qtls_qat::{make_request, seal_in_place, CryptoOp, QatConfig, QatDevice};
use qtls_server::http::{build_response, parse_request, synthetic_body};
use qtls_server::{VListener, VSocket, Worker, WorkerConfig};
use qtls_tls::any_session::AnyServerSession;
use qtls_tls::client::ClientSession;
use qtls_tls::provider::{CryptoProvider, OpCounters};
use qtls_tls::record::RecordCodec;
use qtls_tls::server::ServerConfig;
use qtls_tls::session::SessionEntry;
use qtls_tls::store::SharedSessionStore;
use qtls_tls::suite::{CipherSuite, Version};
use qtls_tls::tls13::Tls13ClientSession;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many probes [`run`] times; each gets an equal share of the budget.
const PROBE_COUNT: u32 = 32;

/// Samples per probe, however small the budget.
const MIN_SAMPLES: usize = 5;

struct Timer {
    /// Measuring time per probe.
    budget: Duration,
}

impl Timer {
    /// Median of repeated samples of `sample()`, which returns the ns it
    /// measured. One unmeasured call first, so lazy set-up is not timed.
    fn median_ns(&self, mut sample: impl FnMut() -> f64) -> f64 {
        sample();
        let end = Instant::now() + self.budget;
        let mut samples = Vec::new();
        while samples.len() < MIN_SAMPLES || Instant::now() < end {
            samples.push(sample());
        }
        median(&samples)
    }

    /// Median ns per call of `f`, each sample timing `batch` calls.
    fn per_call_ns(&self, batch: u32, mut f: impl FnMut()) -> f64 {
        self.median_ns(|| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(batch)
        })
    }
}

fn prf_op(out_len: usize) -> CryptoOp {
    CryptoOp::Prf {
        secret: b"s".to_vec(),
        label: b"l".to_vec(),
        seed: b"x".to_vec(),
        out_len,
    }
}

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / ns * 1e3
}

/// Pump an in-memory handshake to completion and return the ns spent
/// inside the server's `process()`.
fn handshake<S: Session>(server: &mut AnyServerSession, client: &mut S) -> f64 {
    client.start().expect("client hello");
    let mut server_ns = 0u128;
    loop {
        let c = client.take_output();
        let s = server.take_output();
        if c.is_empty() && s.is_empty() {
            break;
        }
        if !c.is_empty() {
            server.feed(&c);
            let t = Instant::now();
            server.process().expect("server handshake");
            server_ns += t.elapsed().as_nanos();
        }
        if !s.is_empty() {
            client.feed(&s);
            client.process().expect("client handshake");
        }
    }
    assert!(server.is_established() && client.is_established());
    server_ns as f64
}

/// One handshake against a software-provider server: the server-side
/// ns, the client's resumption state, and whether it resumed.
fn server_handshake_ns<S: Session>(
    version: Version,
    config: &Arc<ServerConfig>,
    resume: Option<S::Resume>,
    seed: u64,
) -> (f64, Option<S::Resume>, bool) {
    let mut server =
        AnyServerSession::new(version, Arc::clone(config), CryptoProvider::Software, seed);
    let mut client = S::open(resume, seed ^ 0x5eed);
    let ns = handshake(&mut server, &mut client);
    (ns, client.export(), client.was_resumed())
}

/// Time full and resumed handshakes of one protocol version.
fn handshake_probes<S: Session>(timer: &Timer, version: Version) -> (f64, f64) {
    let config = ServerConfig::test_default();
    let mut seed = 0x1000u64;
    let mut resume = None;
    let full = timer.median_ns(|| {
        seed += 1;
        let (ns, fresh, resumed) = server_handshake_ns::<S>(version, &config, None, seed);
        assert!(!resumed);
        resume = fresh;
        ns
    });
    let resume = resume.expect("a full handshake exports resumption state");
    let resumed = timer.median_ns(|| {
        seed += 1;
        let (ns, _, resumed) =
            server_handshake_ns::<S>(version, &config, Some(resume.clone()), seed);
        assert!(resumed, "the server must honour the resumption");
        ns
    });
    (full, resumed)
}

/// A connected pair of record codecs `(server, client)` from a real
/// TLS 1.2 handshake.
fn codec_pair() -> (RecordCodec, RecordCodec) {
    let mut server = AnyServerSession::new(
        Version::Tls12,
        ServerConfig::test_default(),
        CryptoProvider::Software,
        7,
    );
    let mut client = ClientSession::open(None, 8);
    handshake(&mut server, &mut client);
    let (s_secrets, s_left) = server.extract_secrets().expect("server established");
    let (c_secrets, c_left) = client.extract_secrets().expect("client established");
    (
        RecordCodec::new(s_secrets, s_left, RecordCodec::DEFAULT_BATCH),
        RecordCodec::new(c_secrets, c_left, RecordCodec::DEFAULT_BATCH),
    )
}

/// One offload round trip through the fiber mechanism: start a job that
/// offloads, poll until the response is back, resume to completion.
fn fiber_roundtrip(engine: &Arc<OffloadEngine>) {
    let inner = Arc::clone(engine);
    let mut job = match start_job(move || inner.offload(prf_op(16))) {
        StartResult::Paused(job) => job,
        StartResult::Finished(_) => unreachable!("an async offload pauses"),
    };
    loop {
        engine.poll_all();
        match job.resume() {
            StartResult::Finished(result) => {
                black_box(result.expect("prf"));
                return;
            }
            StartResult::Paused(again) => {
                job = again;
                std::thread::yield_now();
            }
        }
    }
}

fn stack_roundtrip(engine: &Arc<OffloadEngine>) {
    let op = StackAsyncOp::new();
    assert!(matches!(
        op.drive(engine, || prf_op(16)),
        StackPoll::WantAsync
    ));
    loop {
        engine.poll_all();
        match op.drive(engine, || prf_op(16)) {
            StackPoll::Ready(result) => {
                black_box(result.expect("prf"));
                return;
            }
            StackPoll::WantAsync => std::thread::yield_now(),
            StackPoll::WantRetry => unreachable!("the ring is empty"),
        }
    }
}

/// Run every probe for about `budget` in total and return
/// `(name, unit, value)` for each, in print order.
pub fn run(budget: Duration) -> Vec<(&'static str, &'static str, f64)> {
    let timer = Timer {
        budget: budget / PROBE_COUNT,
    };
    let mut out = Vec::new();
    let mut rng = TestRng::new(0xbe7c);

    // crypto
    let key = test_rsa_2048();
    out.push((
        "crypto.rsa2048_sign_us",
        "us",
        timer.per_call_ns(1, || {
            black_box(key.sign_pkcs1_sha256(black_box(b"server key exchange"))).expect("sign");
        }) / 1e3,
    ));
    out.push((
        "crypto.p256_keygen_us",
        "us",
        timer.per_call_ns(1, || {
            black_box(ecc::generate_keypair(NamedCurve::P256, &mut rng));
        }) / 1e3,
    ));
    let alice = ecc::generate_keypair(NamedCurve::P256, &mut rng);
    let bob = ecc::generate_keypair(NamedCurve::P256, &mut rng);
    out.push((
        "crypto.p256_ecdh_us",
        "us",
        timer.per_call_ns(1, || {
            black_box(ecc::ecdh(
                NamedCurve::P256,
                &alice.private,
                black_box(&bob.public),
            ))
            .expect("ecdh");
        }) / 1e3,
    ));
    let record = vec![0x5au8; 16 * 1024];
    let mut buf = Vec::with_capacity(record.len() + 64);
    let seal_ns = timer.per_call_ns(1, || {
        buf.clear();
        buf.extend_from_slice(&record);
        seal_in_place(&[1; 16], &[2; 20], &[3; 16], &mut buf, &[4; 11]).expect("seal");
        black_box(&buf);
    });
    out.push((
        "crypto.aes128cbc_hmacsha1_16k_MBps",
        "MB/s",
        mb_per_s(record.len(), seal_ns),
    ));
    let sha_ns = timer.per_call_ns(1, || {
        black_box(Sha256::digest(black_box(&record)));
    });
    out.push((
        "crypto.sha256_16k_MBps",
        "MB/s",
        mb_per_s(record.len(), sha_ns),
    ));
    out.push((
        "crypto.tls12_prf_us",
        "us",
        timer.per_call_ns(1, || {
            black_box(kdf::prf_tls12(
                black_box(b"master"),
                b"key expansion",
                b"randoms",
                104,
            ));
        }) / 1e3,
    ));
    out.push((
        "crypto.hkdf_expand_label_us",
        "us",
        timer.per_call_ns(8, || {
            black_box(kdf::hkdf_expand_label(
                black_box(&[7u8; 32]),
                b"s hs traffic",
                &[1; 32],
                32,
            ));
        }) / 1e3,
    ));

    // qat
    let ring: Ring<u64> = Ring::new(64);
    out.push((
        "qat.ring_push_pop_ns",
        "ns",
        timer.per_call_ns(1000, || {
            ring.push(black_box(9)).ok();
            black_box(ring.pop());
        }),
    ));
    {
        // Engines off: the submission path alone, ring drained per batch.
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 0,
            ring_capacity: 1024,
            ..QatConfig::functional_small()
        });
        let inst = dev.alloc_instance();
        out.push((
            "qat.submit_per_req_ns",
            "ns",
            timer.per_call_ns(16, || {
                for i in 0..16 {
                    inst.submit(make_request(i, prf_op(16), Box::new(|_| {})))
                        .expect("ring has room");
                }
                inst.discard_requests(usize::MAX);
            }) / 16.0,
        ));
        out.push((
            "qat.submit_batch16_per_req_ns",
            "ns",
            timer.per_call_ns(16, || {
                let mut batch: VecDeque<_> = (0..16)
                    .map(|i| make_request(i, prf_op(16), Box::new(|_| {})))
                    .collect();
                black_box(inst.submit_batch(&mut batch));
                inst.discard_requests(usize::MAX);
            }) / 16.0,
        ));
    }
    let dev = QatDevice::new(QatConfig::functional_small());
    {
        let inst = dev.alloc_instance();
        let done = Arc::new(AtomicBool::new(false));
        out.push((
            "qat.device_roundtrip_us",
            "us",
            timer.per_call_ns(1, || {
                done.store(false, Ordering::SeqCst);
                let flag = Arc::clone(&done);
                inst.submit(make_request(
                    0,
                    prf_op(16),
                    Box::new(move |_| flag.store(true, Ordering::SeqCst)),
                ))
                .expect("ring has room");
                while !done.load(Ordering::SeqCst) {
                    inst.poll(usize::MAX);
                    std::thread::yield_now();
                }
            }) / 1e3,
        ));
    }

    // core
    out.push((
        "core.fiber_start_us",
        "us",
        timer.per_call_ns(1, || match start_job(|| black_box(42)) {
            StartResult::Finished(v) => {
                black_box(v);
            }
            StartResult::Paused(_) => unreachable!("the job never pauses"),
        }) / 1e3,
    ));
    out.push((
        "core.fiber_pause_resume_us",
        "us",
        timer.per_call_ns(1, || {
            let job = match start_job(|| {
                pause_job();
                7
            }) {
                StartResult::Paused(job) => job,
                StartResult::Finished(_) => unreachable!("the job pauses once"),
            };
            match job.resume() {
                StartResult::Finished(v) => {
                    black_box(v);
                }
                StartResult::Paused(_) => unreachable!("the job pauses once"),
            }
        }) / 1e3,
    ));
    let async_engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
    out.push((
        "core.offload_roundtrip_fiber_us",
        "us",
        timer.per_call_ns(1, || fiber_roundtrip(&async_engine)) / 1e3,
    ));
    out.push((
        "core.offload_roundtrip_stack_us",
        "us",
        timer.per_call_ns(1, || stack_roundtrip(&async_engine)) / 1e3,
    ));
    let blocking_engine = OffloadEngine::new(dev.alloc_instance(), EngineMode::Blocking);
    out.push((
        "core.offload_roundtrip_blocking_us",
        "us",
        timer.per_call_ns(1, || {
            black_box(blocking_engine.offload(prf_op(16))).expect("prf");
        }) / 1e3,
    ));
    let queue: AsyncQueue<u64> = AsyncQueue::new();
    out.push((
        "core.notify_bypass_ns",
        "ns",
        timer.per_call_ns(1000, || {
            queue.push(black_box(1));
            black_box(queue.pop());
        }),
    ));
    let selector = FdSelector::new();
    let fd = Arc::new(VirtualFd::new(1));
    selector.register(Arc::clone(&fd));
    out.push((
        "core.notify_fd_ns",
        "ns",
        timer.per_call_ns(1000, || {
            fd.signal();
            black_box(selector.poll_ready());
            fd.clear();
        }),
    ));
    let poller = HeuristicPoller::new(Arc::clone(&async_engine), HeuristicConfig::default());
    out.push((
        "core.poller_check_ns",
        "ns",
        timer.per_call_ns(1000, || {
            black_box(poller.check(black_box(100)));
        }),
    ));

    // tls
    let (full12, resumed12) = handshake_probes::<ClientSession>(&timer, Version::Tls12);
    let (full13, psk13) = handshake_probes::<Tls13ClientSession>(&timer, Version::Tls13);
    out.extend(
        [
            ("tls.hs12_full_server_us", full12),
            ("tls.hs12_resumed_server_us", resumed12),
            ("tls.hs13_full_server_us", full13),
            ("tls.hs13_psk_server_us", psk13),
        ]
        .map(|(name, ns)| (name, "us", ns / 1e3)),
    );
    let (mut server_codec, mut client_codec) = codec_pair();
    let software = CryptoProvider::Software;
    let mut counters = OpCounters::default();
    let mut wire = Vec::new();
    for (name, len) in [
        ("tls.record_seal_16k_us", 16 * 1024),
        ("tls.record_seal_1k_us", 1024),
    ] {
        let data = vec![0x5au8; len];
        out.push((
            name,
            "us",
            timer.per_call_ns(1, || {
                wire.clear();
                server_codec
                    .seal_into(&data, &mut wire, &software, &mut counters, &mut rng)
                    .expect("seal");
            }) / 1e3,
        ));
    }
    let data = vec![0x5au8; 1024];
    let mut plain = Vec::new();
    out.push((
        "tls.record_open_1k_us",
        "us",
        timer.median_ns(|| {
            wire.clear();
            client_codec
                .seal_into(&data, &mut wire, &software, &mut counters, &mut rng)
                .expect("seal");
            server_codec.feed(&wire);
            plain.clear();
            let t = Instant::now();
            let opened = server_codec
                .open_into(&mut plain, &software, &mut counters)
                .expect("open");
            let ns = t.elapsed().as_nanos() as f64;
            assert_eq!((opened, plain.len()), (1, 1024));
            ns
        }) / 1e3,
    ));
    let store = SharedSessionStore::new(8, 100_000, Duration::from_secs(3600));
    let entry = SessionEntry {
        master: vec![0x42; 48],
        suite: CipherSuite::EcdheRsa,
    };
    let mut n = 0u32;
    out.push((
        "tls.store_put_get_ns",
        "ns",
        timer.per_call_ns(100, || {
            n = (n + 1) % 1024;
            let key = n.to_be_bytes().to_vec();
            store.put(key.clone(), entry.clone());
            black_box(store.get(&key));
        }),
    ));
    let config = ServerConfig::test_default();
    out.push((
        "tls.ticket_seal_open_us",
        "us",
        timer.per_call_ns(8, || {
            let ticket = config.ticket_keys.seal(&entry, &mut rng).expect("seal");
            black_box(config.ticket_keys.open(&ticket)).expect("open");
        }) / 1e3,
    ));

    // server
    {
        let mut worker = Worker::new(
            Arc::new(VListener::new()),
            Some(&dev),
            WorkerConfig::new(OffloadProfile::Qtls),
        );
        out.push((
            "server.worker_idle_iteration_ns",
            "ns",
            timer.per_call_ns(100, || {
                black_box(worker.run_iteration());
            }),
        ));
    }
    let body = synthetic_body(1024);
    let request = b"GET /1kb HTTP/1.1\r\nHost: qtls\r\nConnection: keep-alive\r\n\r\n";
    out.push((
        "server.http_parse_build_ns",
        "ns",
        timer.per_call_ns(100, || {
            black_box(parse_request(black_box(request)));
            black_box(build_response(200, "OK", &body, true));
        }),
    ));
    let (a, b) = VSocket::pair();
    out.push((
        "server.vsocket_write_read_1k_ns",
        "ns",
        timer.per_call_ns(100, || {
            a.write(black_box(&body)).expect("open socket");
            black_box(b.read_all()).expect("bytes waiting");
        }),
    ));
    out.push((
        "server.admission_mint_verify_us",
        "us",
        timer.per_call_ns(8, || {
            let token = config.ticket_keys.mint_retry_token(0xbeef, 1_000);
            assert!(config
                .ticket_keys
                .verify_retry_token(&token, 0xbeef, 1_000, 30));
        }) / 1e3,
    ));

    assert_eq!(
        out.len(),
        PROBE_COUNT as usize,
        "PROBE_COUNT splits the time budget"
    );
    out
}
