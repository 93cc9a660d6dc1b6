//! Boots the real stack in-process over a `VListener`: a one-worker
//! `Cluster` for the TLS 1.2 workloads, a bare `Worker` thread for the
//! TLS 1.3 one (the cluster serves 1.2 only). Everything goes through
//! the server crates' public API and the config-file directives.

use crate::workload::Workload;
use qtls_core::OffloadProfile;
use qtls_qat::QatDevice;
use qtls_server::{
    parse_ssl_engine_conf, Cluster, ContentStore, MetricsPlane, VListener, Worker, WorkerConfig,
    WorkerStats,
};
use qtls_tls::server::ServerConfig;
use qtls_tls::suite::Version;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

enum Inner {
    Cluster(Cluster),
    Bare {
        stop: Arc<AtomicBool>,
        handle: JoinHandle<WorkerStats>,
    },
}

/// A running server under test.
pub struct Server {
    listener: Arc<VListener>,
    plane: Arc<MetricsPlane>,
    device: Option<Arc<QatDevice>>,
    inner: Inner,
}

/// What the server reports once stopped.
pub struct ServerTotals {
    pub stats: WorkerStats,
    /// The socket conservation law: every socket that entered was
    /// accepted or counted; `Err` says which term is off.
    pub conserved: Result<(), String>,
}

fn conf_text(profile: OffloadProfile, traced: bool) -> String {
    let mut conf = String::from("worker_processes 1;\n");
    if profile == OffloadProfile::Qtls {
        conf.push_str(
            "ssl_engine {\n    use qat_engine;\n    default_algorithm ALL;\n    qat_engine {\n        \
             qat_offload_mode async;\n        qat_notify_mode poll;\n        \
             qat_poll_mode heuristic;\n    }\n}\n",
        );
    }
    if traced {
        conf.push_str("qat_metrics on;\ntrace_sample_rate 1;\n");
    }
    conf
}

impl Server {
    /// Boot the server `workload` needs; `traced` turns on the metrics
    /// plane and 1-in-1 connection tracing through the existing
    /// directives.
    pub fn boot(workload: &Workload, traced: bool) -> Server {
        let directives = parse_ssl_engine_conf(&conf_text(workload.profile, traced))
            .expect("generated conf parses");
        assert_eq!(directives.profile, workload.profile);
        let tls = ServerConfig::test_default();
        let content = Arc::new(ContentStore::new());
        if workload.version == Version::Tls12 {
            let cluster = Cluster::start(&directives, tls, content);
            let deadline = Instant::now() + Duration::from_secs(30);
            let plane = loop {
                if let Some(plane) = cluster.metrics_planes()[0].clone() {
                    break plane;
                }
                assert!(Instant::now() < deadline, "worker never booted");
                std::thread::yield_now();
            };
            return Server {
                listener: cluster.listener(),
                plane,
                device: cluster.device().cloned(),
                inner: Inner::Cluster(cluster),
            };
        }
        let listener = Arc::new(VListener::new());
        let device = workload
            .profile
            .uses_qat()
            .then(|| Arc::new(QatDevice::with_defaults()));
        let stop = Arc::new(AtomicBool::new(false));
        let (plane_tx, plane_rx) = mpsc::channel();
        let handle = {
            let listener = Arc::clone(&listener);
            let device = device.clone();
            let stop = Arc::clone(&stop);
            let mut cfg = WorkerConfig::from_directives(&directives);
            cfg.tls = tls;
            cfg.content = content;
            cfg.version = workload.version;
            std::thread::Builder::new()
                .name("qtls-worker-0".into())
                .spawn(move || {
                    let mut worker = Worker::new(listener, device.as_deref(), cfg);
                    plane_tx
                        .send(Arc::clone(worker.metrics_plane()))
                        .expect("benchmark waits for the plane");
                    // Same drain as the cluster's workers: stop
                    // accepting, then give open connections 2 s.
                    let mut drain: Option<Instant> = None;
                    worker.run_until(|w| {
                        if !stop.load(Ordering::Relaxed) {
                            return false;
                        }
                        w.pause_accepts();
                        let d =
                            *drain.get_or_insert_with(|| Instant::now() + Duration::from_secs(2));
                        w.tc_alive() == 0 || Instant::now() > d
                    });
                    worker.shutdown();
                    worker.stats
                })
                .expect("spawn worker")
        };
        let plane = plane_rx.recv().expect("worker thread publishes its plane");
        Server {
            listener,
            plane,
            device,
            inner: Inner::Bare { stop, handle },
        }
    }

    pub fn listener(&self) -> Arc<VListener> {
        Arc::clone(&self.listener)
    }

    /// The worker's metrics plane (stays readable after shutdown).
    pub fn plane(&self) -> Arc<MetricsPlane> {
        Arc::clone(&self.plane)
    }

    /// The accelerator, for its firmware counters (none under `SW`).
    pub fn device(&self) -> Option<Arc<QatDevice>> {
        self.device.clone()
    }

    /// Stop the server and check the socket conservation law.
    pub fn shutdown(self) -> ServerTotals {
        match self.inner {
            Inner::Cluster(cluster) => {
                let report = cluster.shutdown();
                let (stats, _) = report.workers[0];
                let d = &report.dispatch;
                let conserved = if report.undispatched != 0 {
                    Err(format!("{} sockets never dispatched", report.undispatched))
                } else if d.shed != 0 {
                    Err(format!("{} sockets shed at dispatch", d.shed))
                } else if d.dispatched[0] + d.stolen_in[0]
                    != stats.accepted + report.dropped_accepts[0] + d.stolen_out[0]
                {
                    Err(format!(
                        "dispatched {} + stolen_in {} != accepted {} + dropped {} + stolen_out {}",
                        d.dispatched[0],
                        d.stolen_in[0],
                        stats.accepted,
                        report.dropped_accepts[0],
                        d.stolen_out[0]
                    ))
                } else {
                    Ok(())
                };
                ServerTotals { stats, conserved }
            }
            Inner::Bare { stop, handle } => {
                stop.store(true, Ordering::Relaxed);
                let stats = handle.join().expect("worker thread");
                let left = self.listener.drain();
                let conserved = if left == 0 {
                    Ok(())
                } else {
                    Err(format!("{left} sockets never accepted"))
                };
                ServerTotals { stats, conserved }
            }
        }
    }
}
