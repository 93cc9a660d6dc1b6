//! The idle worker sleeps, and every event source wakes it.
//!
//! A worker whose loop has gone empty parks on one wake handle
//! (`Worker::run_until`). Each test lets a worker park, fires exactly
//! one kind of event from outside, and checks two things: the event is
//! served, and it was the event's own wake-up that ended the sleep —
//! `Parker::wakes` counts only unparks that found the sleeper parked,
//! and is read the moment the event call returns. Nothing here sleeps
//! to line threads up: waits poll an observable state under a deadline.
//! The tests take turns (`ONE_AT_A_TIME`): a worker that cannot get a
//! core is awake-but-waiting rather than parked, which is exactly the
//! state these tests need it not to be in when the event fires.

use qtls_core::{HeuristicConfig, OffloadProfile};
use qtls_crypto::ecc::NamedCurve;
use qtls_qat::{QatConfig, QatDevice, ServiceMode, ServiceTable};
use qtls_server::net::SockError;
use qtls_server::{
    parse_ssl_engine_conf, Cluster, ContentStore, MetricsPlane, SchedShared, VListener, VSocket,
    Worker, WorkerConfig, WorkerStats,
};
use qtls_sync::Parker;
use qtls_tls::client::ClientSession;
use qtls_tls::provider::{CryptoProvider, OffloadSelection};
use qtls_tls::server::ServerConfig;
use qtls_tls::suite::CipherSuite;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serialises this file's tests (see the module docs); the cluster
/// tests also find their worker threads by name in `/proc`.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn my_turn() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// Poll `cond` (yielding) until it holds; a hang fails the test.
fn await_or_panic(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out: {what}");
        std::thread::yield_now();
    }
}

/// A worker running `run_until` on its own thread, with the handles a
/// test needs to watch it from outside.
struct Rig {
    listener: Arc<VListener>,
    wake: Arc<Parker>,
    plane: Arc<MetricsPlane>,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<WorkerStats>,
    device: Option<QatDevice>,
}

impl Rig {
    fn start(device: Option<QatDevice>, cfg: WorkerConfig) -> Rig {
        let listener = Arc::new(VListener::new());
        let mut worker = Worker::new(Arc::clone(&listener), device.as_ref(), cfg);
        let wake = worker.wake_handle();
        let plane = Arc::clone(worker.metrics_plane());
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            worker.run_until(|_| stop2.load(Ordering::SeqCst));
            worker.shutdown();
            worker.stats
        });
        Rig {
            listener,
            wake,
            plane,
            stop,
            handle,
            device,
        }
    }

    fn software() -> Rig {
        Rig::start(None, WorkerConfig::new(OffloadProfile::Sw))
    }

    fn await_parked(&self) {
        await_or_panic("worker parks", || self.wake.is_parked());
    }

    fn stats(&self) -> WorkerStats {
        self.plane.snapshot().stats
    }

    /// Let the worker park, fire `event`, and report whether the event's
    /// own unpark is what found the worker asleep. (The idle bound can
    /// end a park in the instant between the check and the event; that
    /// round reports `false` and the caller's tally absorbs it.)
    fn fire_at_parked(&self, event: impl FnOnce()) -> bool {
        self.await_parked();
        let before = self.wake.wakes();
        event();
        self.wake.wakes() > before
    }

    fn finish(self) -> WorkerStats {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.unpark();
        self.handle.join().expect("worker thread")
    }
}

/// Rounds per source. An unwired source scores 0 of these, always; a
/// wired one loses a round only to the idle-bound race above.
const ROUNDS: usize = 8;

fn assert_woken(source: &str, hits: usize) {
    assert!(
        hits * 2 >= ROUNDS,
        "{source}: only {hits}/{ROUNDS} events found the parked worker and woke it"
    );
}

/// Handshake a keep-alive client against a worker that runs elsewhere.
fn establish(listener: &VListener, seed: u64) -> (VSocket, ClientSession) {
    let sock = listener.connect();
    let mut client = ClientSession::new(
        CryptoProvider::Software,
        CipherSuite::EcdheRsa,
        NamedCurve::P256,
        None,
        seed,
    );
    client.start().unwrap();
    await_or_panic("handshake", || {
        let out = client.take_output();
        if !out.is_empty() {
            sock.write(&out).unwrap();
        }
        if let Ok(bytes) = sock.read_all() {
            client.feed(&bytes);
            client.process().unwrap();
        }
        client.is_established()
    });
    let out = client.take_output();
    if !out.is_empty() {
        sock.write(&out).unwrap();
    }
    (sock, client)
}

#[test]
fn client_write_wakes_the_parked_worker() {
    let _turn = my_turn();
    let rig = Rig::software();
    let (sock, mut client) = establish(&rig.listener, 9001);
    let mut hits = 0;
    for round in 0..ROUNDS {
        client
            .write_app_data(b"GET / HTTP/1.1\r\nHost: qtls\r\nConnection: keep-alive\r\n\r\n")
            .unwrap();
        let request = client.take_output();
        hits += usize::from(rig.fire_at_parked(|| sock.write(&request).unwrap()));
        let mut got = Vec::new();
        await_or_panic("response", || {
            if let Ok(bytes) = sock.read_all() {
                client.feed(&bytes);
                client.process().unwrap();
                while let Some(chunk) = client.read_app_data() {
                    got.extend_from_slice(&chunk);
                }
            }
            got.windows(4).any(|w| w == b"\r\n\r\n")
        });
        await_or_panic("request counted", || {
            rig.stats().requests == round as u64 + 1
        });
    }
    assert_woken("VSocket::write", hits);
    drop(sock);
    let stats = rig.finish();
    assert_eq!(stats.requests, ROUNDS as u64);
    assert_eq!(stats.errors, 0);
}

#[test]
fn peer_close_connect_and_inject_wake_the_parked_worker() {
    let _turn = my_turn();
    let rig = Rig::software();
    let (mut connects, mut closes, mut injects) = (0, 0, 0);
    let mut accepted = 0;
    for _ in 0..ROUNDS {
        // connect: the backlog entry announces itself.
        let mut sock = None;
        connects += usize::from(rig.fire_at_parked(|| sock = Some(rig.listener.connect())));
        accepted += 1;
        await_or_panic("accept", || rig.stats().accepted == accepted);
        // peer close: nothing was ever written on this socket.
        closes += usize::from(rig.fire_at_parked(|| drop(sock.take())));
        await_or_panic("close reaped", || rig.stats().closed == accepted);
        // inject: the dispatcher's hand-off announces itself the same way.
        let (client, server) = VSocket::pair();
        injects += usize::from(rig.fire_at_parked(|| assert!(rig.listener.inject(server).is_ok())));
        accepted += 1;
        await_or_panic("injected socket accepted", || {
            rig.stats().accepted == accepted
        });
        drop(client);
        await_or_panic("close reaped", || rig.stats().closed == accepted);
    }
    assert_woken("VListener::connect", connects);
    assert_woken("VSocket::close", closes);
    assert_woken("VListener::inject", injects);
    let stats = rig.finish();
    assert_eq!(stats.accepted, stats.closed);
}

/// A device slow enough (3 ms per op) that the worker parks long before
/// each response exists — and off the beat of the worker's own idle
/// bound — with the failover backstop pushed out of reach.
fn slow_device_rig(profile: OffloadProfile) -> Rig {
    let slow = 3_000_000;
    let device = QatDevice::new(QatConfig {
        service_mode: ServiceMode::Timed { time_scale: 1.0 },
        service_table: ServiceTable {
            rsa2048_ns: slow,
            ecc_p256_ns: slow,
            prf_ns: slow,
            ..ServiceTable::default()
        },
        ..QatConfig::functional_small()
    });
    let mut cfg = WorkerConfig::new(profile);
    cfg.heuristic = HeuristicConfig {
        failover: Duration::from_secs(3600),
        ..HeuristicConfig::default()
    };
    Rig::start(Some(device), cfg)
}

/// Send a ClientHello and stand still until the server's first flight is
/// back: it takes a key generation and a signature, offloaded one after
/// the other, and this thread does nothing in between — whatever woke
/// the worker for each result came from the offload path. Returns how
/// many of the `2 * ROUNDS` results found the worker asleep and woke it.
fn wakes_during_first_flights(rig: &Rig) -> u64 {
    let mut woken = 0;
    for round in 0..ROUNDS as u64 {
        let sock = rig.listener.connect();
        let mut client = ClientSession::new(
            CryptoProvider::Software,
            CipherSuite::EcdheRsa,
            NamedCurve::P256,
            None,
            9100 + round,
        );
        client.start().unwrap();
        let hello = client.take_output();
        rig.await_parked();
        sock.write(&hello).unwrap();
        let after_write = rig.wake.wakes();
        await_or_panic("ServerHello flight", || sock.readable());
        woken += rig.wake.wakes() - after_write;
    }
    woken
}

#[test]
fn response_landing_wakes_the_parked_qtls_worker() {
    let _turn = my_turn();
    let rig = slow_device_rig(OffloadProfile::Qtls);
    let woken = wakes_during_first_flights(&rig);
    assert!(
        woken >= ROUNDS as u64,
        "{} responses landed while the worker slept; only {woken} woke it",
        2 * ROUNDS
    );
    let stats = rig.finish();
    assert!(stats.async_jobs > 0);
}

#[test]
fn timer_pollers_fd_signal_wakes_the_parked_qat_a_worker() {
    let _turn = my_turn();
    // QAT+A: a foreign thread (the timer poller) retrieves the response
    // and signals the connection's VirtualFd; ring pairs announce
    // nothing to this worker, so every wake here is an FD signal.
    let rig = slow_device_rig(OffloadProfile::QatA);
    let woken = wakes_during_first_flights(&rig);
    assert!(
        woken >= ROUNDS as u64,
        "{} FD signals arrived while the worker slept; only {woken} woke it",
        2 * ROUNDS
    );
    let stats = rig.finish();
    assert!(stats.async_jobs > 0);
}

#[test]
fn a_deferred_submit_is_never_slept_on() {
    let _turn = my_turn();
    // A 2-slot ring with no engines behind it: three handshakes each
    // offload a key generation, the ring takes two and the sweep flush
    // defers the third, which then stays staged for good. Staged work
    // raises no event (ring space frees silently), so a worker that
    // parked on it would sit out its idle bound again and again. It
    // must keep sweeping instead: from the deferral on, it never parks.
    let mut cfg = WorkerConfig::new(OffloadProfile::Qtls);
    cfg.selection = OffloadSelection::offload_everything();
    cfg.heuristic.failover = Duration::from_secs(3600);
    let device = QatDevice::new(QatConfig {
        engines_per_endpoint: 0,
        ring_capacity: 2,
        ..QatConfig::functional_small()
    });
    let rig = Rig::start(Some(device), cfg);
    let mut conns = Vec::new();
    for seed in 0..3 {
        let sock = rig.listener.connect();
        let mut client = ClientSession::new(
            CryptoProvider::Software,
            CipherSuite::EcdheRsa,
            NamedCurve::P256,
            None,
            9300 + seed,
        );
        client.start().unwrap();
        sock.write(&client.take_output()).unwrap();
        conns.push((sock, client));
    }
    let fw = rig.device.as_ref().expect("device").fw_counters();
    await_or_panic("a flush defers on the full ring", || {
        fw.ring_full.load(Ordering::Relaxed) > 0
    });
    assert_eq!(fw.submitted.load(Ordering::Relaxed), 2);
    // Twenty idle bounds' worth of watching.
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(100) {
        assert!(
            !rig.wake.is_parked(),
            "the worker parked with a request staged"
        );
        std::thread::yield_now();
    }
    drop(conns);
    let stats = rig.finish();
    assert!(stats.deferred_submits > 0);
    assert_eq!(
        stats.cancelled_submits, 1,
        "the shutdown drain fails the staged request"
    );
}

#[test]
fn parked_thieves_still_steal() {
    let _turn = my_turn();
    // Worker 0 never runs: its backlog holds four sockets and its gauge
    // says so. Workers 1..3 run, find nothing of their own and park; no
    // event will ever reach them, so only the idle bound lets them see
    // the sibling's backlog. Steal-half from 4: 2, then 1, then nothing.
    let sched = Arc::new(SchedShared::new(
        4,
        qtls_server::DispatchPolicy::RoundRobin,
        true,
    ));
    let listeners: Vec<Arc<VListener>> = (0..4).map(|_| Arc::new(VListener::new())).collect();
    let stop = Arc::new(AtomicBool::new(false));
    let thieves: Vec<_> = (1..4)
        .map(|i| {
            let mut cfg = WorkerConfig::new(OffloadProfile::Sw);
            cfg.sched = Some(Arc::clone(&sched));
            cfg.worker_index = i;
            cfg.peers = listeners.clone();
            let mut worker = Worker::new(Arc::clone(&listeners[i]), None, cfg);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                worker.run_until(|_| stop.load(Ordering::SeqCst));
                worker.stats
            })
        })
        .collect();
    await_or_panic("thieves park", || sched.parked_workers() == 3);
    let clients: Vec<VSocket> = (0..4).map(|_| listeners[0].connect()).collect();
    sched.publish(0, 4);
    // Wait on the victim's side: `record_steal` bumps the thief's count
    // first, so the victim's total reaching 3 means both are final.
    await_or_panic("steals", || sched.steal_totals().1 == vec![3, 0, 0, 0]);
    assert_eq!(listeners[0].pending(), 1, "the victim keeps its oldest");
    assert_eq!(sched.steal_totals().0.iter().sum::<u64>(), 3);
    stop.store(true, Ordering::SeqCst);
    sched.wake_workers();
    let stolen: u64 = thieves
        .into_iter()
        .map(|t| t.join().expect("thief").steals)
        .sum();
    assert_eq!(stolen, 3);
    drop(clients);
}

/// CPU time consumed so far by this process's threads named `name`
/// (`/proc/self/task/<tid>/schedstat`, first field, nanoseconds).
fn thread_cpu_ns(name: &str) -> u64 {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("task entry").path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if comm.trim() == name {
            let stat = std::fs::read_to_string(dir.join("schedstat")).unwrap_or_default();
            total += stat
                .split_whitespace()
                .next()
                .and_then(|ns| ns.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    total
}

fn qtls_cluster(workers: usize) -> Cluster {
    let conf = format!(
        "worker_processes {workers};\nssl_engine {{\n use qat_engine;\n default_algorithm ALL;\n \
         qat_engine {{\n qat_offload_mode async;\n qat_notify_mode poll;\n \
         qat_poll_mode heuristic;\n }}\n}}\n"
    );
    Cluster::start(
        &parse_ssl_engine_conf(&conf).expect("conf"),
        ServerConfig::test_default(),
        Arc::new(ContentStore::new()),
    )
}

#[test]
fn idle_cluster_worker_burns_next_to_no_cpu() {
    let _turn = my_turn();
    let cluster = qtls_cluster(1);
    await_or_panic("worker parks", || cluster.sched().parked_workers() == 1);
    let before = thread_cpu_ns("qtls-worker-0");
    let t0 = Instant::now();
    // Not a synchroniser: the measurement window itself.
    std::thread::sleep(Duration::from_millis(200));
    let burnt = thread_cpu_ns("qtls-worker-0") - before;
    let window = t0.elapsed();
    // 5 ms per 200 ms, scaled in case the sleep overshot.
    let budget = window.as_nanos() as u64 / 40;
    assert!(
        burnt < budget,
        "idle worker burnt {burnt} ns of CPU in {window:?} (budget {budget} ns)"
    );
    // Stop reaches a sleeping worker: shutdown joins it.
    let report = cluster.shutdown();
    assert_eq!(report.workers.len(), 1);
    assert_eq!(report.undispatched, 0);
}

#[test]
fn shutdown_with_every_worker_parked_conserves_sockets() {
    let _turn = my_turn();
    let cluster = qtls_cluster(2);
    let listener = cluster.listener();
    // 40 connections stop mid-handshake: ClientHello out, the server's
    // first flight back, then silence. The workers have nothing left to
    // do and go to sleep with all 40 open.
    let stalled: Vec<(VSocket, ClientSession)> = (0..40u64)
        .map(|i| {
            let sock = listener.connect();
            let mut client = ClientSession::new(
                CryptoProvider::Software,
                CipherSuite::EcdheRsa,
                NamedCurve::P256,
                None,
                9200 + i,
            );
            client.start().unwrap();
            sock.write(&client.take_output()).unwrap();
            (sock, client)
        })
        .collect();
    for (sock, _) in &stalled {
        await_or_panic("ServerHello flight", || sock.readable());
    }
    await_or_panic("workers park", || cluster.sched().parked_workers() == 2);
    let report = cluster.shutdown();
    let d = &report.dispatch;
    assert_eq!(d.dispatched.iter().sum::<u64>(), 40);
    assert_eq!((d.shed, report.undispatched), (0, 0));
    for (i, (stats, _)) in report.workers.iter().enumerate() {
        assert_eq!(
            d.dispatched[i] + d.stolen_in[i],
            stats.accepted + report.dropped_accepts[i] + d.stolen_out[i],
            "worker {i}: the socket conservation law"
        );
        assert_eq!(stats.handshakes, 0, "nobody finished a handshake");
    }
    // Nothing leaked open either: behind the flight it already sent,
    // every stalled client finds its connection closed.
    for (sock, _) in &stalled {
        assert!(sock.read_all().is_ok(), "the buffered flight");
        assert_eq!(sock.read_all().unwrap_err(), SockError::Closed);
    }
}
