//! A connection reaches its worker inside `connect()`. The cluster's
//! front listener runs the dispatch on the connecting thread (DESIGN.md
//! §15), so no dispatcher thread exists, a connect that has returned is
//! already on a worker's backlog, shed, or refused, and shutdown's
//! ledger has nothing in transit to miss.

use qtls::crypto::ecc::NamedCurve;
use qtls::server::{parse_ssl_engine_conf, Cluster, ContentStore, ShutdownReport};
use qtls::tls::client::ClientSession;
use qtls::tls::provider::CryptoProvider;
use qtls::tls::server::ServerConfig;
use qtls::tls::CipherSuite;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sw_cluster(workers: usize) -> Cluster {
    let directives =
        parse_ssl_engine_conf(&format!("worker_processes {workers};")).expect("conf parses");
    Cluster::start(
        &directives,
        ServerConfig::test_default(),
        Arc::new(ContentStore::new()),
    )
}

/// Poll `cond` (yielding) until it holds; a hang fails the test.
fn await_or_panic(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out: {what}");
        std::thread::yield_now();
    }
}

/// Every worker's socket ledger balances: what entered its backlog
/// (dispatched + stolen in) is what left it (accepted + drained at
/// shutdown + stolen away).
fn assert_workers_conserve(report: &ShutdownReport) {
    let d = &report.dispatch;
    for (i, (stats, _)) in report.workers.iter().enumerate() {
        assert_eq!(
            d.dispatched[i] + d.stolen_in[i],
            stats.accepted + report.dropped_accepts[i] + d.stolen_out[i],
            "worker {i}: the socket conservation law"
        );
    }
}

#[test]
fn no_dispatcher_thread_runs_beside_the_workers() {
    let cluster = sw_cluster(2);
    await_or_panic("workers boot", || {
        cluster.metrics_planes().iter().all(Option::is_some)
    });
    let comms: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .collect();
    for worker in ["qtls-worker-0", "qtls-worker-1"] {
        assert!(comms.iter().any(|c| c == worker), "{worker} in {comms:?}");
    }
    assert!(
        !comms.iter().any(|c| c == "qtls-master"),
        "a dispatcher thread runs: {comms:?}"
    );
    cluster.shutdown();
}

#[test]
fn back_to_back_connects_then_shutdown_lose_nothing_in_transit() {
    let cluster = sw_cluster(2);
    let listener = cluster.listener();
    let _clients: Vec<_> = (0..50).map(|_| listener.connect()).collect();
    let report = cluster.shutdown();
    let d = &report.dispatch;
    assert_eq!(
        report.undispatched, 0,
        "every connect preceded the shutdown"
    );
    assert_eq!(d.dispatched.iter().sum::<u64>() + d.shed, 50);
    assert_workers_conserve(&report);
}

#[test]
fn connects_racing_shutdown_land_in_exactly_one_ledger_term() {
    let cluster = sw_cluster(2);
    let listener = cluster.listener();
    // A connection its worker has accepted and answered, left open: a
    // stopping worker drains live connections before it exits, so this
    // one holds both workers' joins — and the report behind them —
    // until the connecting thread below has made its last connect.
    let held = listener.connect();
    let mut client = ClientSession::new(
        CryptoProvider::Software,
        CipherSuite::EcdheRsa,
        NamedCurve::P256,
        None,
        0xd15c,
    );
    client.start().expect("ClientHello");
    held.write(&client.take_output()).expect("ClientHello sent");
    await_or_panic("the server's first flight", || held.readable());

    let fired = Arc::new(AtomicU64::new(0));
    let connector = {
        let listener = Arc::clone(&listener);
        let fired = Arc::clone(&fired);
        std::thread::spawn(move || {
            // A connect returns with its server end on a backlog (open)
            // or already closed (shed or refused). Fire until the first
            // closed one: shutdown has begun.
            let (mut open, mut closed) = (0u64, 0u64);
            while closed == 0 {
                let sock = listener.connect();
                if sock.peer_closed() {
                    closed += 1;
                } else {
                    open += 1;
                }
                fired.fetch_add(1, Ordering::Relaxed);
            }
            drop(held);
            (open, closed)
        })
    };
    await_or_panic("connects in flight", || fired.load(Ordering::Relaxed) >= 20);
    let report = cluster.shutdown();
    let (open, closed) = connector.join().expect("connecting thread");
    let d = &report.dispatch;
    assert_eq!(
        d.dispatched.iter().sum::<u64>(),
        open + 1,
        "the open connects and the held one were dispatched"
    );
    // The closed one is a refusal, or a shed when it was parked on
    // full backlogs as the workers stopped accepting.
    assert_eq!(d.shed + report.undispatched, closed, "closed at the door");
    assert_workers_conserve(&report);
}
