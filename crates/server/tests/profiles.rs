//! End-to-end worker tests: every offload profile terminates real TLS
//! handshakes and serves HTTP over the in-memory network, with genuine
//! crypto both in software and through the QAT device model.

use qtls_core::OffloadProfile;
use qtls_crypto::ecc::NamedCurve;
use qtls_qat::{QatConfig, QatDevice};
use qtls_server::loadgen::{run_connection, ClientConfig};
use qtls_server::{VListener, Worker, WorkerConfig};
use qtls_tls::suite::CipherSuite;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run a worker on its own thread until stopped; return its final stats
/// and kernel-switch count.
fn with_worker<F>(profile: OffloadProfile, body: F) -> (qtls_server::WorkerStats, u64)
where
    F: FnOnce(&Arc<VListener>),
{
    let listener = Arc::new(VListener::new());
    let device = if profile.uses_qat() {
        Some(QatDevice::new(QatConfig::functional_small()))
    } else {
        None
    };
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let l2 = Arc::clone(&listener);
    let handle = std::thread::spawn(move || {
        let mut worker = Worker::new(l2, device.as_ref(), WorkerConfig::new(profile));
        // After the stop signal, drain remaining work (e.g. the final
        // Finished of an abbreviated handshake arrives after the client
        // considers itself done) before exiting.
        let mut deadline: Option<Instant> = None;
        worker.run_until(|w| {
            if !stop2.load(Ordering::Relaxed) {
                return false;
            }
            let d = *deadline.get_or_insert_with(|| Instant::now() + Duration::from_secs(5));
            w.tc_alive() == 0 || Instant::now() > d
        });
        let stats = worker.stats;
        let switches = worker.kernel_switches();
        (stats, switches)
    });
    body(&listener);
    stop.store(true, Ordering::Relaxed);
    handle.join().expect("worker thread")
}

fn handshake_and_get(listener: &Arc<VListener>, cfg: &ClientConfig, seed: u64) {
    let (_, _, responses, _, _) =
        run_connection(listener, cfg, seed, None, Duration::from_secs(60)).expect("connection");
    if cfg.request_path.is_some() {
        assert_eq!(responses, cfg.requests_per_conn as u64);
    }
}

fn get_cfg(path: &str) -> ClientConfig {
    ClientConfig {
        request_path: Some(path.to_string()),
        ..ClientConfig::default()
    }
}

#[test]
fn sw_profile_serves_requests() {
    let (stats, switches) = with_worker(OffloadProfile::Sw, |l| {
        for i in 0..3 {
            handshake_and_get(l, &get_cfg("/"), 1000 + i);
        }
    });
    assert_eq!(stats.handshakes, 3);
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.errors, 0);
    assert_eq!(switches, 0, "SW has no async notification");
}

#[test]
fn qat_s_profile_serves_requests() {
    let (stats, _) = with_worker(OffloadProfile::QatS, |l| {
        handshake_and_get(l, &get_cfg("/4kb"), 2000);
    });
    assert_eq!(stats.handshakes, 1);
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.async_jobs, 0, "straight offload never pauses");
}

#[test]
fn qat_a_profile_uses_fd_notification() {
    let (stats, switches) = with_worker(OffloadProfile::QatA, |l| {
        handshake_and_get(l, &get_cfg("/"), 3000);
    });
    assert_eq!(stats.handshakes, 1);
    assert_eq!(stats.errors, 0);
    assert!(stats.async_jobs > 0, "async profile must pause jobs");
    assert!(
        switches > 0,
        "FD-based notification must cross the (simulated) kernel"
    );
}

#[test]
fn qat_ah_profile_heuristic_polling() {
    let (stats, _) = with_worker(OffloadProfile::QatAH, |l| {
        handshake_and_get(l, &get_cfg("/"), 4000);
    });
    assert_eq!(stats.handshakes, 1);
    assert_eq!(stats.errors, 0);
    assert!(stats.async_jobs > 0);
}

#[test]
fn qtls_profile_kernel_bypass() {
    let (stats, switches) = with_worker(OffloadProfile::Qtls, |l| {
        for i in 0..3 {
            handshake_and_get(l, &get_cfg("/16kb"), 5000 + i);
        }
    });
    assert_eq!(stats.handshakes, 3);
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.errors, 0);
    assert!(stats.async_jobs > 0);
    assert!(stats.resumptions > 0, "jobs must be resumed via the queue");
    assert_eq!(
        switches, 0,
        "kernel-bypass notification must not cross the kernel"
    );
}

#[test]
fn qtls_concurrent_clients() {
    // Multiple concurrent connections multiplexed in ONE worker thread —
    // the event-driven architecture under the async framework.
    let (stats, _) = with_worker(OffloadProfile::Qtls, |l| {
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let l = Arc::clone(l);
            handles.push(std::thread::spawn(move || {
                handshake_and_get(&l, &get_cfg("/"), 6000 + i);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });
    assert_eq!(stats.handshakes, 8);
    assert_eq!(stats.requests, 8);
    assert_eq!(stats.errors, 0);
}

#[test]
fn tls_rsa_and_ecdsa_suites_through_qtls() {
    let (stats, _) = with_worker(OffloadProfile::Qtls, |l| {
        let mut cfg = get_cfg("/");
        cfg.suite = CipherSuite::TlsRsa;
        handshake_and_get(l, &cfg, 7000);
        cfg.suite = CipherSuite::EcdheEcdsa;
        cfg.curve = NamedCurve::P256;
        handshake_and_get(l, &cfg, 7001);
    });
    assert_eq!(stats.handshakes, 2);
    assert_eq!(stats.errors, 0);
}

#[test]
fn session_resumption_through_worker() {
    let (stats, _) = with_worker(OffloadProfile::Qtls, |l| {
        let cfg = ClientConfig {
            resumes_per_full: 9,
            ..ClientConfig::default()
        };
        // One closed-loop client doing 10 connections: 1 full + 9 abbreviated.
        let mut resume = None;
        for i in 0..10u64 {
            let (new_resume, _resumed, _, _, _) =
                run_connection(l, &cfg, 8000 + i, resume.take(), Duration::from_secs(60))
                    .expect("connection");
            resume = new_resume;
        }
    });
    assert_eq!(stats.handshakes, 10);
    assert_eq!(
        stats.resumed, 9,
        "first handshake full, the rest abbreviated"
    );
}

#[test]
fn keepalive_multiple_requests_one_connection() {
    let (stats, _) = with_worker(OffloadProfile::Sw, |l| {
        let cfg = ClientConfig {
            request_path: Some("/4kb".into()),
            requests_per_conn: 5,
            ..ClientConfig::default()
        };
        handshake_and_get(l, &cfg, 9000);
    });
    assert_eq!(stats.handshakes, 1);
    assert_eq!(stats.requests, 5);
}

#[test]
fn large_transfer_fragments() {
    // 1024 KB object: 64 records of 16 KB (Fig. 10's largest size).
    let (stats, _) = with_worker(OffloadProfile::Qtls, |l| {
        let t0 = Instant::now();
        handshake_and_get(l, &get_cfg("/1024kb"), 10_000);
        assert!(t0.elapsed() < Duration::from_secs(60));
    });
    assert_eq!(stats.requests, 1);
    assert!(stats.bytes_sent >= 1024 * 1024);
    assert_eq!(stats.errors, 0);
}

#[test]
fn kernel_switch_ablation_fd_vs_bypass() {
    // The §4.4 ablation: FD notification costs kernel crossings per
    // async event; the kernel-bypass queue costs none.
    let n = 4;
    let (stats_fd, switches_fd) = with_worker(OffloadProfile::QatAH, |l| {
        for i in 0..n {
            handshake_and_get(l, &ClientConfig::default(), 11_000 + i);
        }
    });
    let (stats_kb, switches_kb) = with_worker(OffloadProfile::Qtls, |l| {
        for i in 0..n {
            handshake_and_get(l, &ClientConfig::default(), 12_000 + i);
        }
    });
    assert_eq!(stats_fd.handshakes, n);
    assert_eq!(stats_kb.handshakes, n);
    assert!(switches_fd > 0);
    assert_eq!(switches_kb, 0);
}

#[test]
fn tls13_through_qtls_worker() {
    // The worker terminates TLS 1.3 as well (Fig. 8's protocol), with
    // the HKDF schedule computed on the CPU and the asymmetric ops
    // offloaded.
    use qtls_server::loadgen::run_connection_tls13;
    use qtls_tls::suite::Version;

    let listener = Arc::new(VListener::new());
    let device = QatDevice::new(QatConfig::functional_small());
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let l2 = Arc::clone(&listener);
    let handle = std::thread::spawn(move || {
        let mut cfg = WorkerConfig::new(OffloadProfile::Qtls);
        cfg.version = Version::Tls13;
        let mut worker = Worker::new(l2, Some(&device), cfg);
        let mut deadline: Option<Instant> = None;
        worker.run_until(|w| {
            if !stop2.load(Ordering::Relaxed) {
                return false;
            }
            let d = *deadline.get_or_insert_with(|| Instant::now() + Duration::from_secs(5));
            w.tc_alive() == 0 || Instant::now() > d
        });
        (
            worker.stats,
            device.fw_counters().asym.load(Ordering::Relaxed),
        )
    });
    for i in 0..2u64 {
        let cfg = ClientConfig {
            request_path: Some("/4kb".into()),
            ..ClientConfig::default()
        };
        let (_, resumed, responses, bytes, _) =
            run_connection_tls13(&listener, &cfg, 60_000 + i, None, Duration::from_secs(60))
                .expect("tls13 connection");
        assert!(!resumed, "no PSK offered");
        assert_eq!(responses, 1);
        assert_eq!(bytes, 4096);
    }
    stop.store(true, Ordering::Relaxed);
    let (stats, asym_ops) = handle.join().unwrap();
    assert_eq!(stats.handshakes, 2);
    assert_eq!(stats.errors, 0);
    // 2 handshakes x (keygen + ecdh + RSA sign) through the accelerator.
    assert_eq!(asym_ops, 6);
}

/// Drive one keepalive connection to established by hand, interleaving
/// client flights with worker iterations on the calling thread.
fn hand_establish(
    worker: &mut Worker,
    listener: &Arc<VListener>,
    seed: u64,
) -> (qtls_server::VSocket, qtls_tls::client::ClientSession) {
    let sock = listener.connect();
    let mut client = qtls_tls::client::ClientSession::new(
        qtls_tls::provider::CryptoProvider::Software,
        CipherSuite::EcdheRsa,
        NamedCurve::P256,
        None,
        seed,
    );
    client.start().unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while !client.is_established() {
        let out = client.take_output();
        if !out.is_empty() {
            sock.write(&out).unwrap();
        }
        worker.run_iteration();
        if let Ok(bytes) = sock.read_all() {
            client.feed(&bytes);
            client.process().unwrap();
        }
        assert!(Instant::now() < deadline);
    }
    (sock, client)
}

#[test]
fn stub_status_formats_every_field() {
    // Exact zero-state rendering: every counter line the heuristic
    // scheme scrapes must be present even before the first accept.
    let listener = Arc::new(VListener::new());
    let worker = Worker::new(listener, None, WorkerConfig::new(OffloadProfile::Sw));
    assert_eq!(
        worker.stub_status(),
        "Active connections: 0\n\
         server accepts handled requests\n 0 0 0\n\
         TLS: alive 0 idle 0 active 0 async-jobs 0 resumptions 0\n\
         bytes: sent 0 received 0 handoffs 0\n\
         submit: flushes 0 flushed 0 max-depth 0 deferred 0 \
         holds 0 forced 0 bypassed 0 ewma-depth 0.000\n\
         admission: accepted 0 challenges 0 verified 0 rejected 0 \
         sheds 0 overloads 0\n\
         sched: load 0 steals 0 policy 0\n"
    );
}

#[test]
fn tc_accounting_under_keepalive_requests() {
    let listener = Arc::new(VListener::new());
    let mut worker = Worker::new(
        Arc::clone(&listener),
        None,
        WorkerConfig::new(OffloadProfile::Sw),
    );
    let (_sock_a, _client_a) = hand_establish(&mut worker, &listener, 501);
    let (sock_b, mut client_b) = hand_establish(&mut worker, &listener, 502);
    for _ in 0..100 {
        worker.run_iteration();
    }
    assert_eq!(worker.tc_alive(), 2);
    assert_eq!(worker.tc_idle(), 2, "both established, nothing pending");
    assert_eq!(worker.tc_active(), 0);
    let page = worker.stub_status();
    assert!(page.contains("Active connections: 2"), "{page}");
    assert!(
        page.contains("server accepts handled requests\n 2 2 0\n"),
        "{page}"
    );
    assert!(page.contains("alive 2 idle 2 active 0"), "{page}");

    // A request lands on B but has not been read yet: B turns active
    // while A stays idle.
    client_b
        .write_app_data(b"GET / HTTP/1.1\r\nHost: qtls\r\nConnection: keep-alive\r\n\r\n")
        .unwrap();
    sock_b.write(&client_b.take_output()).unwrap();
    assert_eq!(worker.tc_alive(), 2);
    assert_eq!(worker.tc_active(), 1, "unread request data counts active");
    assert_eq!(worker.tc_idle(), 1);
    assert!(worker.stub_status().contains("alive 2 idle 1 active 1"));

    // Serve it; keepalive returns the connection to idle and bumps the
    // handled-requests column.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut got = Vec::new();
    while !got.windows(4).any(|w| w == b"\r\n\r\n") {
        worker.run_iteration();
        if let Ok(bytes) = sock_b.read_all() {
            client_b.feed(&bytes);
            client_b.process().unwrap();
            while let Some(chunk) = client_b.read_app_data() {
                got.extend_from_slice(&chunk);
            }
        }
        assert!(Instant::now() < deadline);
    }
    for _ in 0..50 {
        worker.run_iteration();
    }
    assert_eq!(worker.stats.requests, 1);
    assert_eq!(worker.tc_alive(), 2, "keepalive: connection survives");
    assert_eq!(worker.tc_idle(), 2);
    let page = worker.stub_status();
    assert!(
        page.contains("server accepts handled requests\n 2 2 1\n"),
        "{page}"
    );
}

#[test]
fn handshake_waiting_on_the_network_is_not_active() {
    // A connection stops mid-handshake: its ClientHello is served and
    // the server now waits for the client's next flight. Handshaking, no
    // unread bytes, nothing inflight -> not active, so it cannot hold the
    // timeliness rule's `R_total >= TC_active` hostage.
    let listener = Arc::new(VListener::new());
    let mut worker = Worker::new(
        Arc::clone(&listener),
        None,
        WorkerConfig::new(OffloadProfile::Sw),
    );
    let sock = listener.connect();
    let mut client = qtls_tls::client::ClientSession::new(
        qtls_tls::provider::CryptoProvider::Software,
        CipherSuite::EcdheRsa,
        NamedCurve::P256,
        None,
        504,
    );
    client.start().unwrap();
    sock.write(&client.take_output()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while !sock.readable() {
        worker.run_iteration();
        assert!(Instant::now() < deadline, "ServerHello flight never came");
    }
    worker.run_iteration();
    assert_eq!(worker.tc_alive(), 1);
    assert_eq!(
        worker.tc_active(),
        0,
        "waiting on the network is not active"
    );
    assert_eq!(worker.tc_idle(), 1);
    assert!(worker.stub_status().contains("alive 1 idle 1 active 0"));
}

#[test]
fn qtls_stub_status_reports_batched_submissions() {
    // Async profiles stage submissions on the per-worker SubmitQueue and
    // publish them at the sweep boundary; the stub page exposes the
    // flush/batch-depth accounting.
    let listener = Arc::new(VListener::new());
    let device = QatDevice::new(QatConfig::functional_small());
    let mut worker = Worker::new(
        Arc::clone(&listener),
        Some(&device),
        WorkerConfig::new(OffloadProfile::Qtls),
    );
    let (_sock, _client) = hand_establish(&mut worker, &listener, 503);
    for _ in 0..100 {
        worker.run_iteration();
    }
    assert!(worker.stats.async_jobs > 0);
    assert!(worker.stats.flushes > 0, "handshake ops must flush");
    assert!(worker.stats.flushed_requests >= worker.stats.flushes);
    assert!(worker.stats.max_flush_depth >= 1);
    assert_eq!(worker.stats.deferred_submits, 0, "ring never filled");
    let page = worker.stub_status();
    assert!(
        page.contains(&format!(
            "submit: flushes {} flushed {} max-depth {} deferred 0",
            worker.stats.flushes, worker.stats.flushed_requests, worker.stats.max_flush_depth
        )),
        "{page}"
    );
    // All submit counters must agree with the queue's own accounting —
    // they are now copied from one SubmitStats snapshot, not folded from
    // per-sweep reports (which lost deferrals on otherwise-empty sweeps).
    let snap = worker
        .engine()
        .expect("qtls has an engine")
        .submit_queue()
        .expect("async profile attaches a queue")
        .stats()
        .snapshot();
    assert_eq!(worker.stats.flushes, snap.flushes);
    assert_eq!(worker.stats.flushed_requests, snap.flushed_requests);
    assert_eq!(worker.stats.max_flush_depth, snap.max_depth);
    assert_eq!(worker.stats.deferred_submits, snap.deferred);
    assert_eq!(worker.stats.submit_holds, snap.holds);
    assert_eq!(worker.stats.forced_flushes, snap.forced_flushes);
    assert_eq!(worker.stats.bypassed_submits, snap.bypasses);
    assert_eq!(worker.stats.ewma_flush_depth_milli, snap.ewma_depth_milli);
}

/// A raw crypto request whose callback records what happened to it.
fn counting_request(
    cookie: u64,
    cancelled: &Arc<std::sync::atomic::AtomicU64>,
) -> qtls_qat::CryptoRequest {
    use qtls_crypto::CryptoError;
    let cancelled = Arc::clone(cancelled);
    qtls_qat::CryptoRequest {
        trace: Default::default(),
        cookie,
        op: qtls_qat::CryptoOp::Prf {
            secret: b"secret".to_vec(),
            label: b"label".to_vec(),
            seed: b"seed".to_vec(),
            out_len: 8,
        },
        callback: Box::new(move |result| {
            if matches!(result, Err(CryptoError::Cancelled)) {
                cancelled.fetch_add(1, Ordering::Relaxed);
            }
        }),
    }
}

#[test]
fn worker_stats_track_deferred_submits_from_ring_full_sweeps() {
    // Regression (stub_status undercounting): stage more requests than
    // the ring can take in one sweep. The flush publishes ring-capacity
    // requests and defers the rest; the worker's stub counters must
    // match the queue exactly — in particular flushes against a full
    // ring (report.submitted == 0) must still be counted, and deferred
    // must be visible even on sweeps whose report is otherwise empty.
    use std::sync::atomic::AtomicU64;
    let listener = Arc::new(VListener::new());
    let device = QatDevice::new(QatConfig {
        endpoints: 1,
        engines_per_endpoint: 0, // nothing completes; counters only
        ring_capacity: 2,
        ..QatConfig::functional_small()
    });
    let mut worker = Worker::new(
        Arc::clone(&listener),
        Some(&device),
        WorkerConfig::new(OffloadProfile::Qtls),
    );
    let queue = worker
        .engine()
        .expect("engine")
        .submit_queue()
        .expect("queue");
    let cancelled = Arc::new(AtomicU64::new(0));
    for i in 0..5 {
        queue.enqueue(counting_request(i, &cancelled));
    }
    // Staged depth 5 >= adaptive target? No (target 16) — but a full
    // ring forces deferral regardless once the flush happens; run enough
    // sweeps to pass any hold bound.
    for _ in 0..10 {
        worker.run_iteration();
    }
    let snap = queue.stats().snapshot();
    assert!(snap.deferred > 0, "ring of 2 must defer from a batch of 5");
    assert_eq!(worker.stats.deferred_submits, snap.deferred);
    assert_eq!(worker.stats.flushes, snap.flushes);
    assert_eq!(worker.stats.flushed_requests, snap.flushed_requests);
    assert_eq!(worker.stats.max_flush_depth, snap.max_depth);
    assert_eq!(worker.stats.max_flush_depth, 5, "deepest staged batch");
    assert!(
        snap.flushes >= 2,
        "full-ring flushes that published nothing must still count: {snap:?}"
    );
    let page = worker.stub_status();
    assert!(
        page.contains(&format!("deferred {}", snap.deferred)),
        "{page}"
    );
}

#[test]
fn worker_shutdown_drains_staged_submissions() {
    // Regression (silent drop): requests staged but not yet flushed when
    // the worker goes away must be failed with a definite error, not
    // leaked. Ring capacity 2 (no engines): shutdown flushes 2 into the
    // ring and cancels the other 3.
    use std::sync::atomic::AtomicU64;
    let listener = Arc::new(VListener::new());
    let device = QatDevice::new(QatConfig {
        endpoints: 1,
        engines_per_endpoint: 0,
        ring_capacity: 2,
        ..QatConfig::functional_small()
    });
    let mut worker = Worker::new(
        Arc::clone(&listener),
        Some(&device),
        WorkerConfig::new(OffloadProfile::Qtls),
    );
    let queue = worker
        .engine()
        .expect("engine")
        .submit_queue()
        .expect("queue");
    let cancelled = Arc::new(AtomicU64::new(0));
    for i in 0..5 {
        queue.enqueue(counting_request(i, &cancelled));
    }
    worker.shutdown();
    assert!(queue.is_empty(), "shutdown must leave nothing staged");
    assert_eq!(cancelled.load(Ordering::Relaxed), 3);
    assert_eq!(worker.stats.cancelled_submits, 3);
    // Dropping the worker re-drains; the second drain is a no-op.
    drop(worker);
    assert_eq!(cancelled.load(Ordering::Relaxed), 3);
}

#[test]
fn stub_status_per_shard_totals_match_aggregate() {
    // The shard section invariant: the `shards:` aggregate line must
    // equal the column-wise totals of the per-shard rows (and the
    // worker's folded stats), whatever traffic ran.
    let listener = Arc::new(VListener::new());
    let device = QatDevice::new(QatConfig {
        endpoints: 2,
        engines_per_endpoint: 2,
        ..QatConfig::functional_small()
    });
    let mut worker = Worker::new(
        Arc::clone(&listener),
        Some(&device),
        WorkerConfig::new(OffloadProfile::Qtls),
    );
    let engine = Arc::clone(worker.engine().expect("engine"));
    assert_eq!(engine.shard_count(), 2, "auto-shards: one per endpoint");
    let (_sock, _client) = hand_establish(&mut worker, &listener, 504);
    for _ in 0..50 {
        worker.run_iteration();
    }
    let page = worker.stub_status();
    // Parse "shards: count C inflight I holds H forced F" and each
    // "shard i: inflight x ewma-depth e holds h forced f" row.
    let mut agg: Option<(u64, u64, u64, u64)> = None;
    let mut row_inflight = 0u64;
    let mut row_holds = 0u64;
    let mut row_forced = 0u64;
    let mut rows = 0usize;
    for line in page.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if line.starts_with("shards: ") {
            agg = Some((
                f[2].parse().unwrap(),
                f[4].parse().unwrap(),
                f[6].parse().unwrap(),
                f[8].parse().unwrap(),
            ));
        } else if line.starts_with("shard ") {
            rows += 1;
            row_inflight += f[3].parse::<u64>().unwrap();
            row_holds += f[7].parse::<u64>().unwrap();
            row_forced += f[9].parse::<u64>().unwrap();
        }
    }
    let (count, inflight, holds, forced) = agg.expect("aggregate shard line present: {page}");
    assert_eq!(count, 2, "{page}");
    assert_eq!(rows, 2, "{page}");
    assert_eq!(inflight, row_inflight, "{page}");
    assert_eq!(holds, row_holds, "{page}");
    assert_eq!(forced, row_forced, "{page}");
    // The folded worker stats agree with the aggregate line.
    assert_eq!(worker.stats.submit_holds, holds);
    assert_eq!(worker.stats.forced_flushes, forced);
    assert_eq!(engine.inflight().total(), inflight);
    // The scheduling line's load gauge agrees with the worker's live
    // gauge (same formula the cluster dispatcher routes on).
    let sched: Vec<&str> = page
        .lines()
        .find(|l| l.starts_with("sched: "))
        .expect("sched line present")
        .split_whitespace()
        .collect();
    assert_eq!(sched[2].parse::<u64>().unwrap(), worker.load_gauge());
}

#[test]
fn multi_shard_shutdown_drains_every_shard() {
    // The PR-3 drain regression extended to N queues: shutdown must
    // flush what each shard's ring accepts and cancel the rest on every
    // shard — not just shard 0.
    use std::sync::atomic::AtomicU64;
    let listener = Arc::new(VListener::new());
    let device = QatDevice::new(QatConfig {
        endpoints: 2,
        engines_per_endpoint: 0,
        ring_capacity: 2,
        ..QatConfig::functional_small()
    });
    let mut worker = Worker::new(
        Arc::clone(&listener),
        Some(&device),
        WorkerConfig::new(OffloadProfile::Qtls),
    );
    let engine = Arc::clone(worker.engine().expect("engine"));
    assert_eq!(engine.shard_count(), 2);
    let cancelled = Arc::new(AtomicU64::new(0));
    for i in 0..engine.shard_count() {
        let queue = engine.shard_submit_queue(i).expect("per-shard queue");
        for j in 0..5 {
            queue.enqueue(counting_request((i * 10 + j) as u64, &cancelled));
        }
    }
    worker.shutdown();
    // Each ring of 2 took 2; each queue cancelled its other 3.
    assert_eq!(cancelled.load(Ordering::Relaxed), 6);
    assert_eq!(worker.stats.cancelled_submits, 6);
    for i in 0..engine.shard_count() {
        assert!(engine.shard_submit_queue(i).unwrap().is_empty());
        assert_eq!(engine.shard_instance(i).queued_requests(), 2);
    }
    // Dropping the worker re-drains; the second drain is a no-op.
    drop(worker);
    assert_eq!(cancelled.load(Ordering::Relaxed), 6);
}

/// Send one keepalive HTTPS GET over an established hand-driven
/// connection and return (status, body).
fn https_get(
    worker: &mut Worker,
    sock: &qtls_server::VSocket,
    client: &mut qtls_tls::client::ClientSession,
    path: &str,
) -> (u16, String) {
    let req = format!("GET {path} HTTP/1.1\r\nHost: qtls\r\nConnection: keep-alive\r\n\r\n");
    client.write_app_data(req.as_bytes()).unwrap();
    sock.write(&client.take_output()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut got: Vec<u8> = Vec::new();
    loop {
        worker.run_iteration();
        if let Ok(bytes) = sock.read_all() {
            client.feed(&bytes);
            client.process().unwrap();
            while let Some(chunk) = client.read_app_data() {
                got.extend_from_slice(&chunk);
            }
        }
        if let Some(hdr_end) = got.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&got[..hdr_end]).to_string();
            let len = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.trim().parse::<usize>().ok())
                .unwrap_or(0);
            if got.len() >= hdr_end + 4 + len {
                let status = head
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse::<u16>().ok())
                    .expect("status line");
                let body = String::from_utf8(got[hdr_end + 4..hdr_end + 4 + len].to_vec()).unwrap();
                return (status, body);
            }
        }
        assert!(Instant::now() < deadline, "no response for {path}");
    }
}

#[test]
fn stub_status_kv_is_a_superset_of_the_human_page() {
    // Invariant: every numeric field of the human stub_status page has a
    // kv key carrying the same value (the kv page may add more), on a
    // sharded worker with tracing on so the shard section and the
    // latency-attribution table are both exercised.
    let listener = Arc::new(VListener::new());
    let device = QatDevice::new(QatConfig {
        endpoints: 2,
        engines_per_endpoint: 2,
        ..QatConfig::functional_small()
    });
    let mut cfg = WorkerConfig::new(OffloadProfile::Qtls);
    cfg.metrics.enabled = true;
    cfg.metrics.trace_sample_rate = 1;
    let mut worker = Worker::new(Arc::clone(&listener), Some(&device), cfg);
    // One closed connection so at least one span tree has been published
    // into the attribution table, one still alive for the gauges.
    let (closed_sock, _closed_client) = hand_establish(&mut worker, &listener, 600);
    closed_sock.close();
    for _ in 0..50 {
        worker.run_iteration();
    }
    let (_sock, _client) = hand_establish(&mut worker, &listener, 601);
    for _ in 0..50 {
        worker.run_iteration();
    }
    // Through the plane, not worker.stub_status(): the attribution table
    // is appended by the endpoint, which is what scrapers see.
    let plane = Arc::clone(worker.metrics_plane());
    let (status, _, human) = plane.serve("/stub_status", "").expect("stub page");
    assert_eq!(status, 200);
    let (status, _, kv_page) = plane.serve("/stub_status", "format=kv").expect("kv page");
    assert_eq!(status, 200);
    let kv: std::collections::HashMap<String, u64> = kv_page
        .lines()
        .map(|l| {
            let (k, v) = l.split_once(' ').expect("key value line");
            (k.to_string(), v.parse::<u64>().expect("numeric kv value"))
        })
        .collect();
    assert_eq!(kv.len(), kv_page.lines().count(), "kv keys must be unique");

    let mut pairs: Vec<(String, u64)> = Vec::new();
    let mut ewma_decimals: Vec<(String, String)> = Vec::new();
    for line in human.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if line.starts_with("Active connections:") {
            pairs.push(("active_connections".into(), f[2].parse().unwrap()));
        } else if f.len() == 3 && f.iter().all(|t| t.parse::<u64>().is_ok()) {
            // The accepts/handled/requests row under the header line.
            pairs.push(("accepts".into(), f[0].parse().unwrap()));
            pairs.push(("handled".into(), f[1].parse().unwrap()));
            pairs.push(("requests".into(), f[2].parse().unwrap()));
        } else if line.starts_with("TLS:") {
            for (key, idx) in [
                ("tls_alive", 2),
                ("tls_idle", 4),
                ("tls_active", 6),
                ("async_jobs", 8),
                ("resumptions", 10),
            ] {
                pairs.push((key.into(), f[idx].parse().unwrap()));
            }
        } else if line.starts_with("bytes:") {
            for (key, idx) in [
                ("bytes_sent", 2),
                ("bytes_received", 4),
                ("record_handoffs", 6),
            ] {
                pairs.push((key.into(), f[idx].parse().unwrap()));
            }
        } else if line.starts_with("submit:") {
            for (key, idx) in [
                ("submit_flushes", 2),
                ("submit_flushed", 4),
                ("submit_max_depth", 6),
                ("submit_deferred", 8),
                ("submit_holds", 10),
                ("submit_forced", 12),
                ("submit_bypassed", 14),
            ] {
                pairs.push((key.into(), f[idx].parse().unwrap()));
            }
            ewma_decimals.push(("submit_ewma_depth_milli".into(), f[16].to_string()));
        } else if line.starts_with("sched:") {
            for (key, idx) in [("sched_load", 2), ("sched_steals", 4), ("sched_policy", 6)] {
                pairs.push((key.into(), f[idx].parse().unwrap()));
            }
        } else if line.starts_with("shards:") {
            for (key, idx) in [
                ("shards_count", 2),
                ("shards_inflight", 4),
                ("shards_holds", 6),
                ("shards_forced", 8),
            ] {
                pairs.push((key.into(), f[idx].parse().unwrap()));
            }
        } else if line.starts_with("shard ") {
            let i = f[1].trim_end_matches(':');
            pairs.push((format!("shard{i}_inflight"), f[3].parse().unwrap()));
            pairs.push((format!("shard{i}_holds"), f[7].parse().unwrap()));
            pairs.push((format!("shard{i}_forced"), f[9].parse().unwrap()));
            ewma_decimals.push((format!("shard{i}_ewma_depth_milli"), f[5].to_string()));
        } else if line.starts_with("trace:") {
            for (key, idx) in [
                ("trace_sample_rate", 2),
                ("trace_sampled", 4),
                ("trace_spans", 6),
                ("trace_dropped", 8),
                ("trace_wall_us", 10),
                ("trace_covered_us", 12),
            ] {
                pairs.push((key.into(), f[idx].parse().unwrap()));
            }
        } else if line.starts_with("trace stage ") {
            let name = f[2].trim_end_matches(':');
            pairs.push((format!("trace_stage_{name}_count"), f[4].parse().unwrap()));
            pairs.push((format!("trace_stage_{name}_mean_us"), f[6].parse().unwrap()));
            pairs.push((format!("trace_stage_{name}_p99_us"), f[8].parse().unwrap()));
        }
    }
    assert!(
        pairs.iter().any(|(k, v)| k == "trace_sampled" && *v > 0),
        "tracing-on page must carry a populated attribution table: {human}"
    );
    assert!(
        pairs
            .iter()
            .any(|(k, _)| k == "trace_stage_handshake_count"),
        "attribution table must list every stage: {human}"
    );
    assert!(
        pairs.iter().any(|(k, _)| k == "shards_count"),
        "sharded page must carry the shard section: {human}"
    );
    assert!(
        pairs.iter().any(|(k, _)| k == "sched_load"),
        "page must carry the scheduling line: {human}"
    );
    for (key, value) in pairs {
        assert_eq!(
            kv.get(&key).copied(),
            Some(value),
            "kv missing or mismatching {key}\nhuman:\n{human}\nkv:\n{kv_page}"
        );
    }
    // EWMA fields: the human page prints milli-requests as a decimal.
    for (key, decimal) in ewma_decimals {
        let milli = kv.get(&key).copied().expect("ewma kv key");
        assert_eq!(format!("{}.{:03}", milli / 1000, milli % 1000), decimal);
    }
}

/// The Prometheus family responsible for a `stub_status?format=kv` key.
/// Panics on an unmapped key — adding a kv counter without a registered
/// family is exactly the regression this audit exists to catch.
fn prom_family_for_kv_key(key: &str) -> &'static str {
    if let Some(rest) = key.strip_prefix("shard") {
        if rest.starts_with(|c: char| c.is_ascii_digit()) {
            return if rest.ends_with("_inflight") {
                "qtls_shard_inflight"
            } else if rest.ends_with("_ewma_depth_milli") {
                "qtls_submit_ewma_depth_milli"
            } else if rest.ends_with("_holds") {
                "qtls_submit_holds_total"
            } else if rest.ends_with("_forced") {
                "qtls_submit_forced_flushes_total"
            } else {
                panic!("per-shard kv key {key} has no mapped Prometheus family")
            };
        }
    }
    if key.starts_with("trace_stage_") {
        return "qtls_trace_stage_us";
    }
    match key {
        "active_connections" | "tls_alive" => "qtls_worker_connections_alive",
        "tls_idle" => "qtls_worker_connections_idle",
        "tls_active" => "qtls_worker_connections_active",
        "accepts" | "admission_accepted" => "qtls_worker_accepts_total",
        "handled" | "handshakes" => "qtls_worker_handshakes_total",
        "requests" => "qtls_worker_requests_total",
        "async_jobs" => "qtls_worker_async_jobs_total",
        "resumptions" => "qtls_worker_resumptions_total",
        "bytes_sent" => "qtls_worker_bytes_sent_total",
        "bytes_received" => "qtls_worker_bytes_received_total",
        "record_handoffs" => "qtls_worker_record_handoffs_total",
        "submit_flushes" => "qtls_submit_flushes_total",
        "submit_flushed" => "qtls_submit_flushed_requests_total",
        "submit_max_depth" => "qtls_submit_max_depth",
        "submit_deferred" => "qtls_submit_deferred_total",
        "submit_holds" | "shards_holds" => "qtls_submit_holds_total",
        "submit_forced" | "shards_forced" => "qtls_submit_forced_flushes_total",
        "submit_bypassed" => "qtls_submit_bypassed_total",
        "submit_ewma_depth_milli" => "qtls_submit_ewma_depth_milli",
        "admission_challenges" => "qtls_admission_challenges_total",
        "admission_tokens_verified" => "qtls_admission_tokens_verified_total",
        "admission_tokens_rejected" => "qtls_admission_tokens_rejected_total",
        "admission_accept_sheds" => "qtls_admission_accept_sheds_total",
        "admission_overloads" => "qtls_admission_overloads_total",
        "sched_load" => "qtls_worker_load",
        "sched_steals" => "qtls_worker_steals_total",
        "sched_policy" => "qtls_dispatch_policy",
        "resumed_handshakes" => "qtls_worker_resumed_handshakes_total",
        "resume_miss" => "qtls_worker_resume_miss_total",
        "errors" => "qtls_worker_errors_total",
        "closed" => "qtls_worker_closed_total",
        "retries" => "qtls_worker_ring_retries_total",
        "cancelled_submits" => "qtls_worker_cancelled_submits_total",
        "kernel_switches" => "qtls_worker_kernel_switches_total",
        "poll_efficiency" | "poll_timeliness" | "poll_failover" => "qtls_poll_fired_total",
        "poll_wasted" => "qtls_poll_wasted_total",
        "poll_responses" => "qtls_poll_responses_total",
        "poll_shards_swept" => "qtls_poll_shards_swept_total",
        "shards_count" => "qtls_shard_count",
        "shards_inflight" => "qtls_shard_inflight",
        "trace_sample_rate" => "qtls_trace_sample_rate",
        "trace_sampled" => "qtls_trace_sampled_total",
        "trace_spans" => "qtls_trace_spans_total",
        "trace_dropped" => "qtls_trace_dropped_total",
        "trace_wall_us" => "qtls_trace_wall_us_total",
        "trace_covered_us" => "qtls_trace_covered_us_total",
        _ => panic!("kv key {key} has no mapped Prometheus family — register one"),
    }
}

#[test]
fn every_kv_counter_has_a_registered_prometheus_family() {
    // Registry audit: every key the machine-readable stub page exposes
    // maps to a family that is in obs::registry::METRIC_NAMES AND is
    // actually rendered by /metrics on the same worker — stub_status
    // and the Prometheus exposition must not drift apart.
    use qtls_core::obs;
    let listener = Arc::new(VListener::new());
    let device = QatDevice::new(QatConfig {
        endpoints: 2,
        engines_per_endpoint: 2,
        ..QatConfig::functional_small()
    });
    let mut cfg = WorkerConfig::new(OffloadProfile::Qtls);
    cfg.metrics.enabled = true;
    cfg.metrics.trace_sample_rate = 1;
    let mut worker = Worker::new(Arc::clone(&listener), Some(&device), cfg);
    let (sock, _client) = hand_establish(&mut worker, &listener, 611);
    sock.close();
    for _ in 0..50 {
        worker.run_iteration();
    }
    let plane = Arc::clone(worker.metrics_plane());
    let (_, _, kv_page) = plane.serve("/stub_status", "format=kv").expect("kv page");
    let (_, _, metrics_page) = plane.serve("/metrics", "").expect("metrics page");
    let mut checked = 0usize;
    for line in kv_page.lines() {
        let key = line.split(' ').next().expect("kv key");
        let family = prom_family_for_kv_key(key);
        assert!(
            obs::registry::is_registered(family),
            "family {family} (for kv key {key}) not in obs::registry::METRIC_NAMES"
        );
        assert!(
            metrics_page.contains(&format!("# TYPE {family} ")),
            "family {family} (for kv key {key}) not rendered by /metrics"
        );
        checked += 1;
    }
    assert!(checked > 40, "kv page suspiciously small: {kv_page}");
}

#[test]
fn metrics_and_flight_endpoints_serve_in_band() {
    // `qat_metrics on`: the worker serves /metrics (valid Prometheus
    // text, every family registered), the kv stub page and the flight
    // dump over TLS, and all four offload phases accumulate samples.
    use qtls_core::obs;
    let listener = Arc::new(VListener::new());
    let device = QatDevice::new(QatConfig {
        endpoints: 2,
        engines_per_endpoint: 2,
        ..QatConfig::functional_small()
    });
    let mut cfg = WorkerConfig::new(OffloadProfile::Qtls);
    cfg.metrics.enabled = true;
    let mut worker = Worker::new(Arc::clone(&listener), Some(&device), cfg);
    let (sock, mut client) = hand_establish(&mut worker, &listener, 602);
    for _ in 0..50 {
        worker.run_iteration();
    }
    let (status, body) = https_get(&mut worker, &sock, &mut client, "/metrics");
    assert_eq!(status, 200);
    let families = obs::promtext::parse(&body).expect("valid Prometheus text");
    assert!(!families.is_empty());
    for family in &families {
        assert!(
            obs::registry::is_registered(family),
            "family {family} not in obs::registry::METRIC_NAMES"
        );
    }
    assert!(body.contains("qtls_metrics_enabled 1"), "{body}");
    for phase in [
        "pre_processing",
        "retrieval",
        "notification",
        "post_processing",
    ] {
        for shard in ["merged", "0", "1"] {
            let series = format!(
                "qtls_phase_latency_ns{{phase=\"{phase}\",class=\"asym\",shard=\"{shard}\",quantile=\"0.99\"}}"
            );
            assert!(body.contains(&series), "missing {series}\n{body}");
        }
    }
    // The handshake's asym ops recorded real samples in every phase.
    let engine = Arc::clone(worker.engine().expect("engine"));
    for phase in obs::Phase::ALL {
        let snap = engine.obs().merged(phase, qtls_qat::OpClass::Asym);
        assert!(snap.count() > 0, "phase {phase:?} recorded no samples");
        assert!(snap.quantile(0.99) >= snap.quantile(0.5));
    }
    let (status, kv) = https_get(&mut worker, &sock, &mut client, "/stub_status?format=kv");
    assert_eq!(status, 200);
    assert!(kv.lines().any(|l| l.starts_with("active_connections ")));
    let (status, human) = https_get(&mut worker, &sock, &mut client, "/stub_status");
    assert_eq!(status, 200);
    assert!(human.starts_with("Active connections:"), "{human}");
    let (status, flight) = https_get(&mut worker, &sock, &mut client, "/flight");
    assert_eq!(status, 200);
    assert!(flight.starts_with("flight: "), "{flight}");
}

#[test]
fn metrics_endpoints_are_404_when_disabled() {
    // Default `qat_metrics off`: the scrape endpoints answer 404, the
    // stub page still serves, and the engine records nothing.
    let listener = Arc::new(VListener::new());
    let device = QatDevice::new(QatConfig::functional_small());
    let mut worker = Worker::new(
        Arc::clone(&listener),
        Some(&device),
        WorkerConfig::new(OffloadProfile::Qtls),
    );
    let (sock, mut client) = hand_establish(&mut worker, &listener, 603);
    let (status, _) = https_get(&mut worker, &sock, &mut client, "/metrics");
    assert_eq!(status, 404);
    let (status, _) = https_get(&mut worker, &sock, &mut client, "/flight");
    assert_eq!(status, 404);
    let (status, page) = https_get(&mut worker, &sock, &mut client, "/stub_status");
    assert_eq!(status, 200);
    assert!(page.starts_with("Active connections:"));
    let engine = worker.engine().expect("engine");
    assert!(!engine.obs().enabled());
    for phase in qtls_core::obs::Phase::ALL {
        let snap = engine.obs().merged(phase, qtls_qat::OpClass::Asym);
        assert_eq!(snap.count(), 0, "disabled plane must record nothing");
    }
}

#[test]
fn data_plane_codec_serves_bulk_objects() {
    // Tentpole: after Finished the worker hands the connection to the
    // batched record codec; a 1 MB object leaves as 64 records sealed in
    // scatter-gather batches — far fewer doorbells than records.
    let listener = Arc::new(VListener::new());
    let device = QatDevice::new(QatConfig::functional_small());
    let mut worker = Worker::new(
        Arc::clone(&listener),
        Some(&device),
        WorkerConfig::new(OffloadProfile::Qtls),
    );
    let (sock, mut client) = hand_establish(&mut worker, &listener, 701);
    for _ in 0..20 {
        worker.run_iteration();
    }
    assert_eq!(worker.stats.record_handoffs, 1, "handoff after Finished");
    let fw = device.fw_counters();
    let ciphers_before = fw.cipher.load(Ordering::Relaxed);
    let doorbells_before = fw.doorbells.load(Ordering::Relaxed);
    let (status, body) = https_get(&mut worker, &sock, &mut client, "/1024kb");
    assert_eq!(status, 200);
    assert_eq!(body.len(), 1024 * 1024);
    let ciphers = fw.cipher.load(Ordering::Relaxed) - ciphers_before;
    let doorbells = fw.doorbells.load(Ordering::Relaxed) - doorbells_before;
    assert!(
        ciphers >= 64,
        "bulk records sealed on the device: {ciphers}"
    );
    assert!(
        doorbells < ciphers / 2,
        "batching must amortize doorbells: {doorbells} vs {ciphers}"
    );
    assert!(worker.stats.bytes_sent >= 1024 * 1024);
    assert!(worker.stats.bytes_received > 0, "request bytes counted");
    let page = worker.stub_status();
    assert!(page.contains("handoffs 1"), "{page}");
    let kv = worker.stub_status_kv();
    assert!(
        kv.lines()
            .any(|l| l.starts_with("bytes_received ") && !l.ends_with(" 0")),
        "{kv}"
    );
}

#[test]
fn stub_status_accounting() {
    let listener = Arc::new(VListener::new());
    let mut worker = Worker::new(
        Arc::clone(&listener),
        None,
        WorkerConfig::new(OffloadProfile::Sw),
    );
    assert_eq!(worker.tc_alive(), 0);
    // Drive one keepalive connection to established by hand.
    let sock = listener.connect();
    let mut client = qtls_tls::client::ClientSession::new(
        qtls_tls::provider::CryptoProvider::Software,
        CipherSuite::EcdheRsa,
        NamedCurve::P256,
        None,
        77,
    );
    client.start().unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while !client.is_established() {
        let out = client.take_output();
        if !out.is_empty() {
            sock.write(&out).unwrap();
        }
        worker.run_iteration();
        if let Ok(bytes) = sock.read_all() {
            client.feed(&bytes);
            client.process().unwrap();
        }
        assert!(Instant::now() < deadline);
    }
    // Let the worker observe the final client flight.
    for _ in 0..100 {
        worker.run_iteration();
    }
    assert_eq!(worker.tc_alive(), 1, "connection stays alive (keepalive)");
    assert_eq!(worker.tc_idle(), 1, "established + no pending input = idle");
    assert_eq!(worker.tc_active(), 0);
    let page = worker.stub_status();
    assert!(page.contains("Active connections: 1"), "{page}");
    assert!(page.contains("idle 1"), "{page}");
    drop(sock);
    for _ in 0..100 {
        worker.run_iteration();
    }
    assert_eq!(worker.tc_alive(), 0, "closed connection reaped");
}
