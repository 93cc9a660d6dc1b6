//! Smoke-scrape of the metrics plane for `scripts/check.sh`: boot a
//! sharded QTLS worker with `qat_metrics on`, drive one real TLS
//! connection, then fetch `/metrics`, `/stub_status?format=kv` and
//! `/flight` in-band. The scraped Prometheus page is echoed to stdout
//! (so the caller can check its `# TYPE` lines against the schema
//! table of `qtls_server::metrics`) followed by a `metrics_smoke: OK`
//! verdict; any violation panics with a non-zero exit.

use qtls_core::{obs, OffloadProfile};
use qtls_crypto::ecc::NamedCurve;
use qtls_qat::{QatConfig, QatDevice};
use qtls_server::{metrics, VListener, VSocket, Worker, WorkerConfig};
use qtls_tls::client::ClientSession;
use qtls_tls::provider::CryptoProvider;
use qtls_tls::suite::CipherSuite;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn pump(worker: &mut Worker, sock: &VSocket, client: &mut ClientSession) {
    let out = client.take_output();
    if !out.is_empty() {
        sock.write(&out).expect("client -> server");
    }
    worker.run_iteration();
    if let Ok(bytes) = sock.read_all() {
        client.feed(&bytes);
        client.process().expect("client TLS state");
    }
}

fn https_get(
    worker: &mut Worker,
    sock: &VSocket,
    client: &mut ClientSession,
    path: &str,
) -> (u16, String) {
    let req = format!("GET {path} HTTP/1.1\r\nHost: qtls\r\nConnection: keep-alive\r\n\r\n");
    client
        .write_app_data(req.as_bytes())
        .expect("write request");
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut got: Vec<u8> = Vec::new();
    loop {
        pump(worker, sock, client);
        while let Some(chunk) = client.read_app_data() {
            got.extend_from_slice(&chunk);
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
                let body =
                    String::from_utf8(got[hdr_end + 4..hdr_end + 4 + len].to_vec()).expect("body");
                return (status, body);
            }
        }
        assert!(Instant::now() < deadline, "no response for {path}");
    }
}

fn main() {
    let listener = Arc::new(VListener::new());
    let device = QatDevice::new(QatConfig {
        endpoints: 2,
        engines_per_endpoint: 2,
        ..QatConfig::functional_small()
    });
    let mut cfg = WorkerConfig::new(OffloadProfile::Qtls);
    cfg.metrics.enabled = true;
    let mut worker = Worker::new(Arc::clone(&listener), Some(&device), cfg);

    let sock = listener.connect();
    let mut client = ClientSession::new(
        CryptoProvider::Software,
        CipherSuite::EcdheRsa,
        NamedCurve::P256,
        None,
        7001,
    );
    client.start().expect("client hello");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !client.is_established() {
        pump(&mut worker, &sock, &mut client);
        assert!(Instant::now() < deadline, "handshake stalled");
    }
    for _ in 0..300 {
        worker.run_iteration();
    }

    let (status, page) = https_get(&mut worker, &sock, &mut client, "/metrics");
    assert_eq!(status, 200, "/metrics must serve when enabled");
    let families = obs::promtext::parse(&page).expect("valid Prometheus text");
    assert!(!families.is_empty(), "scrape produced no families");
    for family in &families {
        assert!(
            metrics::is_registered(family),
            "family {family} not in the metrics table"
        );
    }
    for must in [
        "qtls_metrics_enabled",
        "qtls_phase_latency_ns",
        "qtls_phase_latency_hist_ns",
        "qtls_shard_inflight",
        "qtls_qat_submitted_total",
        "qtls_worker_handshakes_total",
        "qtls_worker_accepts_total",
        "qtls_admission_challenges_total",
        "qtls_admission_tokens_verified_total",
        "qtls_admission_accept_sheds_total",
        "qtls_admission_overloads_total",
    ] {
        assert!(
            families.iter().any(|f| f == must),
            "family {must} missing from the scrape"
        );
    }

    let (status, kv) = https_get(&mut worker, &sock, &mut client, "/stub_status?format=kv");
    assert_eq!(status, 200);
    assert!(
        kv.lines().any(|l| l.starts_with("active_connections ")),
        "kv page lacks active_connections: {kv}"
    );
    let (status, flight) = https_get(&mut worker, &sock, &mut client, "/flight");
    assert_eq!(status, 200);
    assert!(flight.starts_with("flight: "), "bad flight dump: {flight}");

    print!("{page}");
    println!("metrics_smoke: OK families {}", families.len());
}
