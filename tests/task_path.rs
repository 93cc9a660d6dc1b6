//! The production pause/resume path, end to end: a real `Worker` whose
//! connections are polled tasks, under every async profile, both
//! protocol versions, full and resumed handshakes, and the three request
//! shapes the benchmark drives. Single-threaded on the test's side — the
//! test pumps the client session and `Worker::run_iteration` in turn —
//! so every count asserted here is exact.

use qtls::core::{OffloadProfile, PollingScheme};
use qtls::crypto::ecc::NamedCurve;
use qtls::qat::{QatConfig, QatDevice, ServiceMode, ServiceTable};
use qtls::server::http::synthetic_body;
use qtls::server::{VListener, VSocket, Worker, WorkerConfig};
use qtls::tls::client::{ClientSession, ResumeData};
use qtls::tls::provider::{CryptoProvider, OffloadSelection};
use qtls::tls::suite::Version;
use qtls::tls::tls13::{Tls13ClientSession, Tls13ResumeData};
use qtls::tls::{CipherSuite, TlsError};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Thread counts are process-wide, so the tests of this file take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Threads of this process that the stack itself started (device
/// engines, pollers, cluster threads, fiber jobs) — every one of them is
/// named, which keeps the test harness's own threads out of the count.
fn stack_threads() -> usize {
    let is_ours =
        |comm: &str| comm.starts_with("qat-") || comm.starts_with("qtls-") || comm == "async-job";
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .flatten()
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm")).is_ok_and(|comm| is_ours(comm.trim()))
        })
        .count()
}

/// A client of either protocol version.
enum Client {
    V12(ClientSession),
    V13(Tls13ClientSession),
}

#[derive(Clone)]
enum Resume {
    V12(ResumeData),
    V13(Tls13ResumeData),
}

macro_rules! each {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            Client::V12($s) => $body,
            Client::V13($s) => $body,
        }
    };
}

impl Client {
    fn new(version: Version, resume: Option<Resume>, seed: u64) -> Self {
        let (suite, curve) = (CipherSuite::EcdheRsa, NamedCurve::P256);
        match (version, resume) {
            (Version::Tls12, None) => Client::V12(ClientSession::new(
                CryptoProvider::Software,
                suite,
                curve,
                None,
                seed,
            )),
            (Version::Tls12, Some(Resume::V12(r))) => Client::V12(ClientSession::new(
                CryptoProvider::Software,
                suite,
                curve,
                Some(r),
                seed,
            )),
            (Version::Tls13, None) => Client::V13(Tls13ClientSession::new(
                CryptoProvider::Software,
                suite,
                curve,
                seed,
            )),
            (Version::Tls13, Some(Resume::V13(r))) => {
                Client::V13(Tls13ClientSession::new_resuming(
                    CryptoProvider::Software,
                    suite,
                    curve,
                    Some(r),
                    seed,
                ))
            }
            _ => panic!("resumption state of the other protocol version"),
        }
    }

    fn start(&mut self) -> Result<(), TlsError> {
        each!(self, s => s.start())
    }
    fn feed(&mut self, bytes: &[u8]) {
        each!(self, s => s.feed(bytes))
    }
    fn process(&mut self) -> Result<(), TlsError> {
        each!(self, s => s.process())
    }
    fn take_output(&mut self) -> Vec<u8> {
        each!(self, s => s.take_output())
    }
    fn is_established(&self) -> bool {
        each!(self, s => s.is_established())
    }
    fn was_resumed(&self) -> bool {
        each!(self, s => s.was_resumed())
    }
    fn write_app_data(&mut self, data: &[u8]) -> Result<(), TlsError> {
        each!(self, s => s.write_app_data(data))
    }
    fn read_app_data(&mut self) -> Option<Vec<u8>> {
        each!(self, s => s.read_app_data())
    }
    fn export(&self) -> Option<Resume> {
        match self {
            Client::V12(s) => s.export_resume_data().map(Resume::V12),
            Client::V13(s) => s.export_resume_data().map(Resume::V13),
        }
    }
}

/// Waits, when dropped, until `stack_threads()` is back down to `before`.
/// A joined thread can stay listed in `/proc/self/task` for a moment
/// after `join` returns (the kernel wakes the joiner before it unlinks
/// the task), so without this the next rig's baseline count — or an
/// assertion right after `drop(rig)` — can include a thread that is
/// about to vanish, and the count it then waits for never comes.
struct ThreadsGone {
    before: usize,
}

impl Drop for ThreadsGone {
    fn drop(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while stack_threads() > self.before && Instant::now() < deadline {
            std::thread::yield_now();
        }
    }
}

/// One worker over its own device and listener.
struct Rig {
    device: QatDevice,
    listener: Arc<VListener>,
    worker: Worker,
    version: Version,
    next_seed: u64,
    /// `stack_threads()` with this rig up: what was there before plus
    /// the device's engines and the profile's poller thread, if any.
    threads: usize,
    /// Declared last, so dropped after the device and the worker have
    /// joined their threads.
    _threads_gone: ThreadsGone,
}

impl Rig {
    /// A rig under the default offload rule (DESIGN.md §21).
    fn new(profile: OffloadProfile, version: Version, device: QatConfig) -> Self {
        Rig::with_selection(profile, version, device, OffloadSelection::default())
    }

    /// A rig under the paper's offload-everything policy, the ablation
    /// whose wait counts are the paper's Table 1.
    fn ablation(profile: OffloadProfile, version: Version, device: QatConfig) -> Self {
        Rig::with_selection(
            profile,
            version,
            device,
            OffloadSelection::offload_everything(),
        )
    }

    fn with_selection(
        profile: OffloadProfile,
        version: Version,
        device: QatConfig,
        selection: OffloadSelection,
    ) -> Self {
        let poller = matches!(profile.polling(), Some(PollingScheme::TimerThread(_)));
        let before = stack_threads();
        let threads = before + device.total_engines() + usize::from(poller);
        let device = QatDevice::new(device);
        let listener = Arc::new(VListener::new());
        let mut cfg = WorkerConfig::new(profile);
        cfg.version = version;
        cfg.selection = selection;
        let worker = Worker::new(Arc::clone(&listener), Some(&device), cfg);
        // A thread names itself once it runs; wait until every thread
        // this rig started has, so later counts compare like with like.
        let deadline = Instant::now() + Duration::from_secs(5);
        while stack_threads() != threads {
            assert!(Instant::now() < deadline, "rig threads never came up");
            std::thread::yield_now();
        }
        Rig {
            device,
            listener,
            worker,
            version,
            next_seed: 0x7a5c,
            threads,
            _threads_gone: ThreadsGone { before },
        }
    }

    /// Shuttle bytes between `client` and the worker until `done`.
    fn pump(
        &mut self,
        client: &mut Client,
        sock: &VSocket,
        mut done: impl FnMut(&mut Client, &Worker) -> bool,
    ) {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let out = client.take_output();
            if !out.is_empty() {
                sock.write(&out).expect("server end open");
            }
            self.worker.run_iteration();
            if let Ok(bytes) = sock.read_all() {
                client.feed(&bytes);
                client.process().expect("client side of the exchange");
            }
            if done(client, &self.worker) {
                return;
            }
            assert!(Instant::now() < deadline, "exchange stalled");
            std::thread::yield_now();
        }
    }

    /// Connect and handshake; returns once BOTH ends are established (so
    /// a request sent next is a service pass of its own).
    fn connect(&mut self, resume: Option<Resume>) -> (Client, VSocket) {
        self.next_seed += 1;
        let mut client = Client::new(self.version, resume, self.next_seed);
        let sock = self.listener.connect();
        client.start().expect("client hello");
        let handshakes = self.worker.stats.handshakes;
        self.pump(&mut client, &sock, |c, w| {
            c.is_established() && w.stats.handshakes > handshakes
        });
        (client, sock)
    }

    /// `GET path` over an established connection; returns the body.
    fn get(
        &mut self,
        client: &mut Client,
        sock: &VSocket,
        path: &str,
        keep_alive: bool,
    ) -> Vec<u8> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let request =
            format!("GET {path} HTTP/1.1\r\nHost: qtls\r\nConnection: {connection}\r\n\r\n");
        client.write_app_data(request.as_bytes()).expect("request");
        let mut response = Vec::new();
        self.pump(client, sock, |c, _| {
            while let Some(chunk) = c.read_app_data() {
                response.extend_from_slice(&chunk);
            }
            body_of(&response).is_some()
        });
        assert!(response.starts_with(b"HTTP/1.1 200 OK\r\n"));
        body_of(&response).expect("complete").to_vec()
    }

    /// Let the worker notice the client's close.
    fn settle(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.worker.tc_alive() > 0 {
            self.worker.run_iteration();
            assert!(Instant::now() < deadline, "connection never torn down");
        }
    }

    fn polled(&self) -> u64 {
        self.device.fw_counters().polled.load(Ordering::Relaxed)
    }
}

/// The body of a complete HTTP response, once all of it has arrived.
fn body_of(response: &[u8]) -> Option<&[u8]> {
    let head_end = response.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&response[..head_end]).ok()?;
    let length: usize = head
        .lines()
        .find_map(|line| line.strip_prefix("Content-Length: "))?
        .trim()
        .parse()
        .ok()?;
    response.get(head_end..head_end + length)
}

const ASYNC_PROFILES: [OffloadProfile; 3] = [
    OffloadProfile::QatA,
    OffloadProfile::QatAH,
    OffloadProfile::Qtls,
];

#[derive(Clone, Copy, Debug)]
enum Shape {
    OneSmallClose,
    FiftyKeepAlive,
    OneLarge,
}

/// Drive one connection of `shape`; returns resumption state for the
/// next one.
fn run_shape(rig: &mut Rig, resume: Option<Resume>, shape: Shape) -> Option<Resume> {
    let want_resumed = resume.is_some();
    let (mut client, sock) = rig.connect(resume);
    assert_eq!(client.was_resumed(), want_resumed);
    match shape {
        Shape::OneSmallClose => {
            let body = rig.get(&mut client, &sock, "/1kb", false);
            assert_eq!(body, synthetic_body(1024));
        }
        Shape::FiftyKeepAlive => {
            for i in 0..50 {
                let body = rig.get(&mut client, &sock, "/1kb", i < 49);
                assert_eq!(body, synthetic_body(1024), "request {i}");
            }
        }
        Shape::OneLarge => {
            let body = rig.get(&mut client, &sock, "/1024kb", false);
            assert!(body == synthetic_body(1024 * 1024), "1 MiB body differs");
        }
    }
    let exported = client.export();
    sock.close();
    rig.settle();
    exported
}

#[test]
fn every_async_profile_serves_every_handshake_and_request_shape() {
    let _turn = serial();
    let rules = [
        ("default", OffloadSelection::default()),
        ("ablation", OffloadSelection::offload_everything()),
    ];
    for (rule, selection) in rules {
        for profile in ASYNC_PROFILES {
            for version in [Version::Tls12, Version::Tls13] {
                for shape in [Shape::OneSmallClose, Shape::FiftyKeepAlive, Shape::OneLarge] {
                    let device = QatConfig::functional_small();
                    let mut rig = Rig::with_selection(profile, version, device, selection);
                    let resume = run_shape(&mut rig, None, shape);
                    let resume = resume.expect("a full handshake exports resumption state");
                    run_shape(&mut rig, Some(resume), shape);
                    let stats = rig.worker.stats;
                    let case = format!("{rule} {profile:?} {version:?} {shape:?}");
                    assert_eq!(stats.errors, 0, "{case}");
                    assert_eq!((stats.handshakes, stats.resumed), (2, 1), "{case}");
                    assert_eq!(stats.resume_miss, 0, "{case}");
                    assert_eq!(stats.closed, 2, "{case}");
                    assert!(stats.async_jobs > 0 && stats.resumptions >= stats.async_jobs);
                    assert_eq!(
                        stack_threads(),
                        rig.threads,
                        "{case}: a pass started a thread"
                    );
                    let engine = rig.worker.engine().expect("offload profile");
                    assert_eq!(engine.inflight().total(), 0, "{case}");
                    // One resumption per completed offload step. Lone ops are
                    // a step each; the 1 MiB response is 65 records sealed
                    // in one step (five doorbells, one pause), once per
                    // connection.
                    let batched = match shape {
                        Shape::OneLarge => 2 * (65 - 1),
                        _ => 0,
                    };
                    assert_eq!(stats.resumptions + batched, rig.polled(), "{case}");
                }
            }
        }
    }
}

#[test]
fn wait_counts_keep_their_meaning() {
    // TLS 1.2 ECDHE-RSA + GET /1kb close: 11 offload waits on a full
    // handshake connection (keygen, sign | ecdh, 2 PRF, open Finished,
    // PRF | PRF, seal Finished | open request, seal response), 7 on a
    // resumed one, none under SW; three service passes each.
    let _turn = serial();
    for profile in ASYNC_PROFILES {
        let mut rig = Rig::ablation(profile, Version::Tls12, QatConfig::functional_small());
        let resume = run_shape(&mut rig, None, Shape::OneSmallClose);
        assert_eq!(rig.worker.stats.resumptions, 11, "{profile:?} full");
        assert_eq!(rig.worker.stats.async_jobs, 3, "{profile:?} full");
        run_shape(&mut rig, resume, Shape::OneSmallClose);
        assert_eq!(rig.worker.stats.resumptions, 11 + 7, "{profile:?} resumed");
        assert_eq!(rig.worker.stats.async_jobs, 3 + 3, "{profile:?} resumed");
        assert_eq!(rig.polled(), 18);
    }
    for profile in [OffloadProfile::Sw, OffloadProfile::QatS] {
        let mut rig = Rig::ablation(profile, Version::Tls12, QatConfig::functional_small());
        let resume = run_shape(&mut rig, None, Shape::OneSmallClose);
        run_shape(&mut rig, resume, Shape::OneSmallClose);
        let stats = rig.worker.stats;
        assert_eq!((stats.async_jobs, stats.resumptions), (0, 0), "{profile:?}");
        assert_eq!((stats.handshakes, stats.resumed, stats.errors), (2, 1, 0));
        let offloaded = if profile == OffloadProfile::QatS {
            18
        } else {
            0
        };
        assert_eq!(rig.polled(), offloaded, "{profile:?}");
    }
}

#[test]
fn wait_counts_under_the_default_rule() {
    // The same connections under the default offload rule (DESIGN.md
    // §21): only the asymmetric ops are worth a round trip — 3 waits on a
    // full handshake connection (keygen, sign | ecdh), none on a resumed
    // one, none under SW. Every PRF, both Finished records, the request
    // and the 1 KB response run inline. The rig counts 2 paused service
    // passes on the full connection, not 3: keygen and sign share the
    // ClientHello pass, and the request pass no longer pauses.
    let _turn = serial();
    for profile in ASYNC_PROFILES {
        let mut rig = Rig::new(profile, Version::Tls12, QatConfig::functional_small());
        let resume = run_shape(&mut rig, None, Shape::OneSmallClose);
        assert_eq!(rig.worker.stats.resumptions, 3, "{profile:?} full");
        assert_eq!(rig.worker.stats.async_jobs, 2, "{profile:?} full");
        run_shape(&mut rig, resume, Shape::OneSmallClose);
        assert_eq!(rig.worker.stats.resumptions, 3, "{profile:?} resumed");
        assert_eq!(rig.worker.stats.async_jobs, 2, "{profile:?} resumed");
        assert_eq!(rig.worker.stats.resumed, 1);
        assert_eq!(rig.polled(), 3);
    }
    for profile in [OffloadProfile::Sw, OffloadProfile::QatS] {
        let mut rig = Rig::new(profile, Version::Tls12, QatConfig::functional_small());
        let resume = run_shape(&mut rig, None, Shape::OneSmallClose);
        run_shape(&mut rig, resume, Shape::OneSmallClose);
        let stats = rig.worker.stats;
        assert_eq!((stats.async_jobs, stats.resumptions), (0, 0), "{profile:?}");
        assert_eq!((stats.handshakes, stats.resumed, stats.errors), (2, 1, 0));
        let offloaded = if profile == OffloadProfile::QatS {
            3
        } else {
            0
        };
        assert_eq!(rig.polled(), offloaded, "{profile:?}");
    }
}

#[test]
fn steady_state_starts_no_threads() {
    // 500 connections (1 full, 499 resumed, each GET /1kb close) under
    // the production profile: the fiber path started ~2.3 threads per
    // connection; the task path starts none.
    let _turn = serial();
    let mut rig = Rig::ablation(
        OffloadProfile::Qtls,
        Version::Tls12,
        QatConfig::functional_small(),
    );
    let mut resume = run_shape(&mut rig, None, Shape::OneSmallClose);
    for i in 1..500 {
        resume = run_shape(&mut rig, resume, Shape::OneSmallClose);
        if i % 50 == 0 {
            assert_eq!(stack_threads(), rig.threads, "after {i} connections");
        }
    }
    assert_eq!(stack_threads(), rig.threads);
    let stats = rig.worker.stats;
    assert_eq!(
        (stats.handshakes, stats.resumed, stats.errors),
        (500, 499, 0)
    );
    assert_eq!(stats.resumptions, 11 + 499 * 7);
    assert_eq!(stats.resumptions, rig.polled());
}

#[test]
fn two_slot_ring_defers_and_still_delivers() {
    // A ring that holds two requests under 65-record responses: the
    // flush's step overflows it, the overflow rides the sweep queue as
    // deferrals, and the pass stays pending across many polls that find
    // nothing parked yet.
    let _turn = serial();
    for profile in ASYNC_PROFILES {
        let mut rig = Rig::ablation(
            profile,
            Version::Tls12,
            QatConfig {
                ring_capacity: 2,
                ..QatConfig::functional_small()
            },
        );
        run_shape(&mut rig, None, Shape::OneLarge);
        let stats = rig.worker.stats;
        assert_eq!(stats.errors, 0, "{profile:?}");
        assert!(stats.deferred_submits > 0, "{profile:?}: ring never filled");
        assert_eq!(stats.resumptions + (65 - 1), rig.polled(), "{profile:?}");
        assert_eq!(
            rig.worker.engine().expect("engine").inflight().total(),
            0,
            "{profile:?}"
        );
    }
}

#[test]
fn read_mid_offload_is_not_polled_for() {
    // Event disorder (§4.2): the second request arrives while the first
    // request's pass is pending on a slow cipher op. The task is parked
    // on the offload, not on its socket — no waker is armed there — so
    // the read is no event at all and nothing is polled for it: the
    // pending pass is not disturbed, and the bytes are served once the
    // task asks for input again.
    let _turn = serial();
    let slow_cipher = QatConfig {
        service_mode: ServiceMode::Timed { time_scale: 1.0 },
        service_table: ServiceTable {
            // The floor for a small record is an eighth of this: 20 ms.
            cipher_16kb_ns: 160_000_000,
            ..ServiceTable::default()
        },
        ..QatConfig::functional_small()
    };
    let mut rig = Rig::ablation(OffloadProfile::Qtls, Version::Tls12, slow_cipher);
    let (mut client, sock) = rig.connect(None);
    let request = b"GET /1kb HTTP/1.1\r\nHost: qtls\r\nConnection: keep-alive\r\n\r\n";
    client.write_app_data(request).expect("first request");
    sock.write(&client.take_output()).expect("open");
    let jobs = rig.worker.stats.async_jobs;
    while rig.worker.stats.async_jobs == jobs {
        rig.worker.run_iteration();
    }
    // The pass is pending on the record open. Pipeline the second
    // request behind it and keep the loop turning.
    client.write_app_data(request).expect("second request");
    sock.write(&client.take_output()).expect("open");
    let (resumptions, polled) = (rig.worker.stats.resumptions, rig.polled());
    for _ in 0..20 {
        let events = rig.worker.run_iteration();
        if rig.polled() == polled {
            assert_eq!(events, 0, "no event: nothing is polled for the read");
        }
    }
    if rig.polled() == polled {
        // The slow open is still out: nothing was resumed or served.
        assert_eq!(rig.worker.stats.resumptions, resumptions);
        assert_eq!(rig.worker.stats.requests, 0);
    }
    let mut bodies = Vec::new();
    rig.pump(&mut client, &sock, |c, w| {
        while let Some(chunk) = c.read_app_data() {
            bodies.extend_from_slice(&chunk);
        }
        w.stats.requests == 2 && body_of(&bodies).is_some()
    });
    assert_eq!(rig.worker.stats.errors, 0);
    assert_eq!(rig.worker.stats.requests, 2);
    assert_eq!(
        body_of(&bodies).expect("first response"),
        synthetic_body(1024)
    );
}

#[test]
fn shutdown_mid_handshake_leaks_nothing() {
    // Regression: a connection dropped while its pass was paused used to
    // leave the job's thread blocked in `pause_job` forever, holding the
    // connection's context. 40 connections, every one pending on its
    // first handshake offload (no engines: nothing ever completes).
    let _turn = serial();
    for profile in ASYNC_PROFILES {
        let threads_before = stack_threads();
        let mut rig = Rig::ablation(
            profile,
            Version::Tls12,
            QatConfig {
                engines_per_endpoint: 0,
                ring_capacity: 8,
                ..QatConfig::functional_small()
            },
        );
        let mut socks = Vec::new();
        for seed in 0..40 {
            let mut client = Client::new(Version::Tls12, None, 900 + seed);
            client.start().expect("client hello");
            let sock = rig.listener.connect();
            sock.write(&client.take_output()).expect("open");
            socks.push(sock);
        }
        for _ in 0..50 {
            rig.worker.run_iteration();
        }
        assert_eq!(rig.worker.stats.async_jobs, 40, "{profile:?}");
        assert_eq!(rig.worker.tc_alive(), 40);
        assert_eq!(
            stack_threads(),
            rig.threads,
            "{profile:?}: pending passes own no threads"
        );
        let engine = Arc::clone(rig.worker.engine().expect("engine"));
        assert_eq!(engine.inflight().total(), 40);
        rig.worker.shutdown();
        assert_eq!(rig.worker.tc_alive(), 0);
        assert_eq!(rig.worker.stats.closed, 40);
        for sock in &socks {
            assert!(sock.peer_closed(), "{profile:?}: server end left open");
        }
        // Staged requests were cancelled; the eight the ring took are
        // with a device that will never answer, and stay accounted.
        assert!(engine.submit_queue().expect("queue").is_empty());
        assert_eq!(engine.inflight().total(), 8, "{profile:?}");
        assert_eq!(rig.worker.stats.cancelled_submits, 32, "{profile:?}");
        drop(rig);
        assert_eq!(stack_threads(), threads_before, "{profile:?}");
    }
    // With engines the same shutdown settles the accounting to zero.
    let mut rig = Rig::ablation(
        OffloadProfile::Qtls,
        Version::Tls12,
        QatConfig::functional_small(),
    );
    let mut socks = Vec::new();
    for seed in 0..40 {
        let mut client = Client::new(Version::Tls12, None, 990 + seed);
        client.start().expect("client hello");
        let sock = rig.listener.connect();
        sock.write(&client.take_output()).expect("open");
        socks.push(sock);
    }
    rig.worker.run_iteration();
    assert_eq!(rig.worker.stats.async_jobs, 40);
    let engine = Arc::clone(rig.worker.engine().expect("engine"));
    rig.worker.shutdown();
    assert!(socks.iter().all(VSocket::peer_closed));
    assert!(engine.submit_queue().expect("queue").is_empty());
    assert_eq!(engine.inflight().total(), 0);
}
