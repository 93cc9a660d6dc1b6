//! End-to-end tracing integration tests: a mixed flood/bulk/resume
//! cluster run must export complete, sum-checked span trees through
//! `/trace` (Chrome trace-event JSON), the admission round trip must be
//! visible in the spans, sampling off must cost nothing and store
//! nothing, and the anomaly sweep must run on its wall-clock cadence
//! rather than the old every-256-iterations counter.

use qtls_core::obs::{self, SpanKind};
use qtls_core::OffloadProfile;
use qtls_crypto::ecc::NamedCurve;
use qtls_qat::{QatConfig, QatDevice};
use qtls_server::loadgen::{run_connection, run_flood_connection, ClientConfig, FloodOutcome};
use qtls_server::{Cluster, ContentStore, VListener, Worker, WorkerConfig};
use qtls_tls::server::ServerConfig;
use qtls_tls::suite::CipherSuite;
use std::sync::Arc;
use std::time::{Duration, Instant};

const QTLS_TRACING_CONF: &str = r#"
worker_processes 2;
ssl_engine {
    use qat_engine;
    qat_engine {
        qat_offload_mode async;
        qat_notify_mode poll;
    }
}
qat_metrics on;
trace_sample_rate 1;
"#;

#[test]
fn mixed_cluster_run_exports_complete_sum_checked_span_trees() {
    // Bulk + resume mix over a 2-worker QTLS cluster at 1-in-1 sampling:
    // every published trace must be a complete tree whose stage
    // durations cover the connection's wall time (within the 5% budget —
    // exact by construction, since idle gaps are attributed explicitly),
    // and /trace must export the lot as valid Chrome trace-event JSON.
    let directives = qtls_server::parse_ssl_engine_conf(QTLS_TRACING_CONF).expect("conf");
    assert_eq!(directives.profile, OffloadProfile::Qtls);
    let cluster = Cluster::start(
        &directives,
        ServerConfig::test_default(),
        Arc::new(ContentStore::new()),
    );
    let listener = cluster.listener();

    // Bulk transfers: keep-alive GETs exercising the batched record
    // data plane (seal on the server, open for the request records).
    let bulk = ClientConfig::bulk("/16kb", 3);
    for i in 0..4u64 {
        run_connection(&listener, &bulk, 7300 + i, None, Duration::from_secs(30))
            .expect("bulk connection");
    }
    // Resumption pairs: a full handshake minting a session, then an
    // abbreviated one reusing it.
    let hs_only = ClientConfig {
        resumes_per_full: 1,
        ..ClientConfig::default()
    };
    let mut resume = None;
    let mut resumed_seen = 0u64;
    for i in 0..4u64 {
        let (out, resumed, _, _, _) = run_connection(
            &listener,
            &hs_only,
            7400 + i,
            resume.take(),
            Duration::from_secs(30),
        )
        .expect("resume connection");
        resume = out;
        resumed_seen += u64::from(resumed);
    }
    assert!(resumed_seen > 0, "the resume mix produced no resumptions");

    // Workers publish a trace when they reap the closed connection —
    // give the event loops a bounded window to catch up.
    let deadline = Instant::now() + Duration::from_secs(10);
    let want = 8usize;
    loop {
        let published: usize = cluster
            .metrics_planes()
            .iter()
            .flatten()
            .map(|p| p.trace_sink().traces().len())
            .sum();
        if published >= want {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {published}/{want} traces published in time"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut total_traces = 0usize;
    let mut kinds_seen = std::collections::BTreeSet::new();
    let mut resumed_handshake_spans = 0u64;
    let mut offload_waits = 0u64;
    let mut export_events = 0u64;
    for plane in cluster.metrics_planes().iter().flatten() {
        for trace in plane.trace_sink().traces() {
            total_traces += 1;
            let spans = trace.spans();
            let root = &spans[0];
            assert_eq!(root.kind, SpanKind::Connection, "first span is the root");
            assert!(root.end_ns > root.start_ns, "root span was closed");
            // Sum check: direct children cover the root within 5%.
            let wall = trace.wall_ns();
            let covered = trace.covered_ns();
            let gap = wall.abs_diff(covered);
            assert!(
                gap * 20 <= wall.max(1),
                "stage durations cover only {covered} of {wall} ns (conn {})",
                trace.conn_id()
            );
            for span in spans {
                kinds_seen.insert(span.kind.name());
                assert!(span.end_ns >= span.start_ns, "span closed backwards");
                if span.kind == SpanKind::Handshake && span.a == 1 {
                    resumed_handshake_spans += 1;
                }
                if span.kind == SpanKind::OffloadWait {
                    offload_waits += 1;
                }
                if let Some(parent) = span.parent {
                    let p = &spans[parent as usize];
                    assert!(
                        span.start_ns >= p.start_ns && span.end_ns <= p.end_ns,
                        "child span escapes its parent's interval"
                    );
                }
            }
        }
        // The export surface: valid Chrome trace-event JSON, one X event
        // per span, connections keyed by tid.
        let (status, _, body) = plane.serve("/trace", "").expect("trace endpoint");
        assert_eq!(status, 200, "/trace serves when tracing is on");
        let summary = obs::tracejson::validate_chrome_trace(&body).expect("Chrome trace shape");
        export_events += summary.events as u64;
    }
    assert!(total_traces >= 8, "published {total_traces} traces");
    assert!(export_events > 0, "/trace exported no events");
    for stage in [
        "connection",
        "accept_wait",
        "handshake",
        "serve",
        "record_seal",
        "record_open",
    ] {
        assert!(
            kinds_seen.contains(stage),
            "no {stage} span in any trace; saw {kinds_seen:?}"
        );
    }
    assert!(
        resumed_handshake_spans > 0,
        "no handshake span was annotated as resumed"
    );
    assert!(
        offload_waits > 0,
        "no offload submit->retrieve wait was traced"
    );
    cluster.shutdown();
}

#[test]
fn admission_round_trip_is_visible_in_the_span_trees() {
    // Watermark 0 keeps the lone worker permanently in overload: the
    // first connection is challenged (partial tree, admission a=1), the
    // token retry is admitted (admission a=2) and completes.
    use qtls_server::admission::AdmissionConfig;
    use std::sync::atomic::{AtomicBool, Ordering};
    let listener = Arc::new(VListener::new());
    let mut cfg = WorkerConfig::new(OffloadProfile::Sw);
    cfg.admission = AdmissionConfig {
        enabled: true,
        watermark: 0,
        ..AdmissionConfig::default()
    };
    cfg.metrics.enabled = true;
    cfg.metrics.trace_sample_rate = 1;
    let stop = Arc::new(AtomicBool::new(false));
    let (plane_tx, plane_rx) = std::sync::mpsc::channel();
    let handle = {
        let listener = Arc::clone(&listener);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut worker = Worker::new(listener, None, cfg);
            plane_tx
                .send(Arc::clone(worker.metrics_plane()))
                .expect("send plane");
            worker.run_until(|_| stop.load(Ordering::Relaxed));
        })
    };
    let plane = plane_rx.recv().expect("worker plane");
    let outcome = run_flood_connection(
        &listener,
        &ClientConfig::default(),
        7500,
        0xAD417,
        true,
        Duration::from_secs(30),
    )
    .expect("flood connection");
    assert!(matches!(
        outcome,
        FloodOutcome::Completed { challenged: true }
    ));

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (mut challenged_spans, mut token_spans) = (0u64, 0u64);
        for trace in plane.trace_sink().traces() {
            for span in trace.spans() {
                if span.kind == SpanKind::Admission {
                    match span.a {
                        1 => challenged_spans += 1,
                        2 => token_spans += 1,
                        _ => {}
                    }
                }
            }
        }
        if challenged_spans > 0 && token_spans > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "admission spans missing: challenged {challenged_spans} token {token_spans}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);
    handle.join().expect("worker thread");
}

#[test]
fn teardown_mid_offload_publishes_the_partial_tree() {
    // Regression: a sampled connection torn down while its task was
    // parked on an offload used to drop its span tree with the pending
    // pass. No engines, so every connection is still waiting for its
    // first handshake offload when the worker shuts down.
    const CONNS: usize = 12;
    let listener = Arc::new(VListener::new());
    let device = QatDevice::new(QatConfig {
        engines_per_endpoint: 0,
        ..QatConfig::functional_small()
    });
    let mut cfg = WorkerConfig::new(OffloadProfile::Qtls);
    cfg.metrics.enabled = true;
    cfg.metrics.trace_sample_rate = 1;
    let mut worker = Worker::new(Arc::clone(&listener), Some(&device), cfg);
    let mut socks = Vec::new();
    for seed in 0..CONNS as u64 {
        let mut client = qtls_tls::client::ClientSession::new(
            qtls_tls::provider::CryptoProvider::Software,
            CipherSuite::EcdheRsa,
            NamedCurve::P256,
            None,
            7800 + seed,
        );
        client.start().expect("client hello");
        let sock = listener.connect();
        sock.write(&client.take_output()).expect("client write");
        socks.push(sock);
    }
    for _ in 0..10 {
        worker.run_iteration();
    }
    assert_eq!(worker.stats.async_jobs, CONNS as u64);
    let sink = Arc::clone(worker.metrics_plane().trace_sink());
    assert!(sink.traces().is_empty(), "nothing is torn down yet");
    worker.shutdown();
    let traces = sink.traces();
    assert_eq!(traces.len(), CONNS, "one tree per torn-down connection");
    for trace in &traces {
        let spans = trace.spans();
        let waits: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::OffloadWait)
            .collect();
        assert_eq!(waits.len(), 1, "the one open offload wait");
        let parent = &spans[waits[0].parent.expect("nested") as usize];
        assert_eq!(parent.kind, SpanKind::Handshake);
        // Closed at the teardown instant, like everything above it.
        assert_eq!(waits[0].end_ns, parent.end_ns);
        assert_eq!(parent.end_ns, spans[0].end_ns);
        assert!(waits[0].end_ns > waits[0].start_ns);
        assert_eq!(trace.covered_ns(), trace.wall_ns());
    }
}

#[test]
fn sampling_off_stores_nothing_and_trace_is_404() {
    // trace_sample_rate 0 (the default): serving traffic must leave the
    // sink completely untouched and the export endpoint dark.
    let listener = Arc::new(VListener::new());
    let device = QatDevice::new(QatConfig::functional_small());
    let mut cfg = WorkerConfig::new(OffloadProfile::Qtls);
    cfg.metrics.enabled = true;
    let mut worker = Worker::new(Arc::clone(&listener), Some(&device), cfg);
    let (sock, _client) = establish(&mut worker, &listener, 7600);
    sock.close();
    for _ in 0..50 {
        worker.run_iteration();
    }
    let plane = Arc::clone(worker.metrics_plane());
    let sink = plane.trace_sink();
    assert!(!sink.enabled());
    assert_eq!(sink.sampled(), 0);
    assert_eq!(sink.spans_published(), 0);
    assert_eq!(sink.wall_ns_total(), 0);
    assert!(sink.traces().is_empty(), "no span storage at rate 0");
    let (status, _, _) = plane.serve("/trace", "").expect("endpoint routed");
    assert_eq!(status, 404, "/trace is dark when sampling is off");
}

#[test]
fn trace_export_off_hides_the_endpoint_but_keeps_attribution() {
    // trace_export off: sampling still feeds the attribution table, but
    // the Chrome export endpoint answers 404.
    let listener = Arc::new(VListener::new());
    let device = QatDevice::new(QatConfig::functional_small());
    let mut cfg = WorkerConfig::new(OffloadProfile::Qtls);
    cfg.metrics.enabled = true;
    cfg.metrics.trace_sample_rate = 1;
    cfg.metrics.trace_export = false;
    let mut worker = Worker::new(Arc::clone(&listener), Some(&device), cfg);
    let (sock, _client) = establish(&mut worker, &listener, 7601);
    sock.close();
    let deadline = Instant::now() + Duration::from_secs(10);
    while worker.metrics_plane().trace_sink().sampled() == 0 {
        worker.run_iteration();
        assert!(Instant::now() < deadline, "trace never published");
    }
    let plane = Arc::clone(worker.metrics_plane());
    let (status, _, _) = plane.serve("/trace", "").expect("endpoint routed");
    assert_eq!(status, 404, "/trace is dark with export off");
    let (_, _, page) = plane.serve("/stub_status", "").expect("stub page");
    assert!(
        page.lines().any(|l| l.starts_with("trace: ")),
        "attribution table still renders: {page}"
    );
}

#[test]
fn anomaly_sweep_runs_on_wall_clock_cadence_not_iteration_count() {
    // Regression for the hard-coded every-256-iterations sweep. With a
    // huge interval, 300 iterations (past the old trigger point) must
    // not freeze; with a 1 ms interval, a handful of iterations after
    // the clock passes must freeze — and attach the slowest sampled
    // connection's span tree as the exemplar.
    let listener = Arc::new(VListener::new());
    let device = QatDevice::new(QatConfig::functional_small());
    let mut cfg = WorkerConfig::new(OffloadProfile::Qtls);
    cfg.metrics.enabled = true;
    cfg.metrics.anomaly_p99_us = 1; // any real handshake p99 exceeds this
    cfg.metrics.anomaly_interval_ms = 3_600_000;
    cfg.metrics.trace_sample_rate = 1;
    let mut slow = Worker::new(Arc::clone(&listener), Some(&device), cfg);
    let (sock, _client) = establish(&mut slow, &listener, 7700);
    sock.close();
    for _ in 0..300 {
        slow.run_iteration();
    }
    let recorder_frozen = slow
        .engine()
        .expect("engine")
        .obs()
        .recorder()
        .frozen()
        .is_some();
    assert!(
        !recorder_frozen,
        "sweep fired before its interval elapsed (old 256-iteration cadence?)"
    );

    let listener = Arc::new(VListener::new());
    let mut cfg = WorkerConfig::new(OffloadProfile::Qtls);
    cfg.metrics.enabled = true;
    cfg.metrics.anomaly_p99_us = 1;
    cfg.metrics.anomaly_interval_ms = 1;
    cfg.metrics.trace_sample_rate = 1;
    let mut fast = Worker::new(Arc::clone(&listener), Some(&device), cfg);
    let (sock, _client) = establish(&mut fast, &listener, 7701);
    sock.close();
    for _ in 0..50 {
        fast.run_iteration();
    }
    std::thread::sleep(Duration::from_millis(5));
    for _ in 0..10 {
        fast.run_iteration();
    }
    let recorder = fast.engine().expect("engine").obs().recorder();
    assert!(
        recorder.frozen().is_some(),
        "wall-clock sweep did not fire after its interval"
    );
    let exemplar = recorder.frozen_trace().expect("exemplar trace attached");
    assert!(
        exemplar
            .spans()
            .iter()
            .any(|s| s.kind == SpanKind::Handshake),
        "exemplar should be the sampled handshake connection"
    );
}

/// Hand-drive one client handshake against `worker` (single-threaded,
/// no background event loop).
fn establish(
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
    client.start().expect("client hello");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !client.is_established() {
        let out = client.take_output();
        if !out.is_empty() {
            sock.write(&out).expect("client write");
        }
        worker.run_iteration();
        if let Ok(bytes) = sock.read_all() {
            client.feed(&bytes);
            client.process().expect("client TLS state");
        }
        assert!(Instant::now() < deadline, "handshake stalled");
    }
    (sock, client)
}
