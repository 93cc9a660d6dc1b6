//! A multi-worker server — the paper's deployment shape: N worker event
//! loops on dedicated cores behind one listening address, each with its
//! own QAT crypto instance "distributed evenly from the three QAT
//! endpoints" (§5.1). There is no dispatcher thread: the `Router` runs
//! inside each client's `connect` on the front listener and places the
//! new connection on a worker's backlog before `connect` returns.

use crate::config_file::EngineDirectives;
use crate::http::ContentStore;
use crate::metrics::MetricsPlane;
use crate::net::{VListener, VSocket};
use crate::sched::{least_loaded_pick, DispatchPolicy, SchedShared, DISPATCH_PROBE};
use crate::worker::{Worker, WorkerConfig, WorkerStats};
use qtls_crypto::TestRng;
use qtls_qat::QatDevice;
use qtls_tls::server::ServerConfig;
use qtls_tls::store::{SharedSessionStore, TicketKeyRing};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-worker dispatch accounting kept by the router.
struct DispatchCounters {
    /// Sockets handed to each worker's accept queue.
    dispatched: Vec<AtomicU64>,
    /// Injects each worker's full backlog bounced back.
    rejected: Vec<AtomicU64>,
    /// Sockets dropped because every worker's backlog was full.
    shed: AtomicU64,
}

/// Snapshot of the router's per-worker accounting.
#[derive(Clone, Debug, Default)]
pub struct DispatchSnapshot {
    /// Sockets handed to each worker's accept queue.
    pub dispatched: Vec<u64>,
    /// Injects each worker's full backlog bounced back (the socket was
    /// retried on the next worker, so a reject is not a drop).
    pub rejected: Vec<u64>,
    /// Sockets dropped at dispatch because every backlog was full.
    pub shed: u64,
    /// Sockets each worker stole INTO its backlog from a loaded sibling.
    pub stolen_in: Vec<u64>,
    /// Sockets stolen OUT of each worker's backlog by an idle sibling.
    pub stolen_out: Vec<u64>,
}

impl DispatchCounters {
    fn new(workers: usize) -> Self {
        DispatchCounters {
            dispatched: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            rejected: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            shed: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> DispatchSnapshot {
        DispatchSnapshot {
            dispatched: self
                .dispatched
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            rejected: self
                .rejected
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            shed: self.shed.load(Ordering::Relaxed),
            // Steal accounting lives in the scheduling plane; the
            // cluster folds it in when it builds the report.
            stolen_in: vec![0; self.dispatched.len()],
            stolen_out: vec![0; self.dispatched.len()],
        }
    }
}

/// The cluster's dispatch: which worker's backlog a new connection
/// joins. It runs on the connecting thread, inside
/// [`VListener::connect_from`] on the front listener, so a connection
/// costs one worker wake and no hand-off between threads.
pub(crate) struct Router {
    targets: Vec<Arc<VListener>>,
    sched: Arc<SchedShared>,
    counters: DispatchCounters,
    /// The rotation cursor: round-robin's next worker, least-loaded's
    /// probe start.
    next: AtomicUsize,
    /// Set when shutdown begins; connects from then on are refused.
    stop: Arc<AtomicBool>,
    /// Connects inside [`Router::route`] right now. Shutdown waits for
    /// zero before it drains the backlogs, so no socket lands on a
    /// backlog after its drain.
    routing: AtomicUsize,
    /// Connects refused because shutdown had begun.
    refused: AtomicU64,
}

impl Router {
    /// Place `sock` on a worker's backlog, shed it, or refuse it at the
    /// door if shutdown has begun — exactly one of the three.
    pub(crate) fn route(&self, sock: VSocket) {
        // With the stop store and the routing load in `quiesce`, both
        // SeqCst: either this connect sees the stop, or shutdown sees
        // this connect and waits for it.
        self.routing.fetch_add(1, Ordering::SeqCst);
        if self.stop.load(Ordering::SeqCst) {
            self.refused.fetch_add(1, Ordering::Relaxed);
            sock.close();
        } else {
            self.dispatch(sock);
        }
        self.routing.fetch_sub(1, Ordering::SeqCst);
    }

    fn dispatch(&self, sock: VSocket) {
        let n = self.targets.len();
        // Claim a start worker — blind rotation, or the least-loaded
        // gauge within a bounded probe — then walk past full backlogs:
        // a worker that bounces the inject gets a reject mark and the
        // socket moves to the next one.
        let cursor = self.next.fetch_add(1, Ordering::Relaxed) % n;
        let mut pending = Some(sock);
        let mut drain_waits = 0u32;
        loop {
            let start = match self.sched.policy() {
                DispatchPolicy::RoundRobin => cursor,
                DispatchPolicy::LeastLoaded => {
                    least_loaded_pick(&self.sched.loads(), cursor, DISPATCH_PROBE)
                }
            };
            // Read the drain generation BEFORE the walk: a worker
            // accepting mid-walk must not be missed by the park below.
            let gen = self.sched.drain_generation();
            for attempt in 0..n {
                let i = (start + attempt) % n;
                let mut sock = pending.take().expect("socket present");
                // Annotate how many backlogs this socket was walked
                // past; a sampled connection surfaces it on its
                // accept-wait span.
                sock.set_dispatch_probes(sock.dispatch_probes() + 1);
                match self.targets[i].inject(sock) {
                    Ok(()) => {
                        self.counters.dispatched[i].fetch_add(1, Ordering::Relaxed);
                        if i != cursor {
                            self.next.store(i + 1, Ordering::Relaxed);
                        }
                        break;
                    }
                    Err(back) => {
                        self.counters.rejected[i].fetch_add(1, Ordering::Relaxed);
                        pending = Some(back);
                    }
                }
            }
            if pending.is_none() {
                return;
            }
            // Every backlog full. Don't shed on a blind backoff timer:
            // park until some worker signals a backlog drain, then retry
            // the round — a drain means some backlog has room, so each
            // retry makes progress. Shed only when a wait passes with no
            // drain at all (workers genuinely stuck) — the connect's
            // latency under overload is bounded by the workers' drain
            // rate.
            drain_waits += 1;
            if self.stop.load(Ordering::Relaxed)
                || drain_waits > 64
                || !self.sched.wait_drain(gen, Duration::from_millis(10))
            {
                break;
            }
        }
        if let Some(sock) = pending {
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
            sock.close();
        }
    }

    /// Refuse every later connect and wait out the ones already routing:
    /// a connect parked on full backlogs sees the stop within one
    /// 10 ms drain wait and sheds.
    fn quiesce(&self) {
        self.stop.store(true, Ordering::SeqCst);
        while self.routing.load(Ordering::SeqCst) != 0 {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

/// What `Cluster::shutdown` returns: per-worker stats plus a full
/// accounting of every socket that entered the cluster but was never
/// served — nothing disappears silently at shutdown.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Per-worker `(stats, kernel_switches)`, worker order.
    pub workers: Vec<(WorkerStats, u64)>,
    /// Connects refused at the front listener because shutdown had
    /// begun (never assigned to a worker); each was closed at once.
    pub undispatched: u64,
    /// Sockets per worker that were dispatched but never accepted
    /// (still in the worker's backlog at shutdown); drained and closed.
    pub dropped_accepts: Vec<u64>,
    /// The router's per-worker dispatch/reject/shed accounting.
    pub dispatch: DispatchSnapshot,
}

/// A running multi-worker HTTPS server.
pub struct Cluster {
    listener: Arc<VListener>,
    router: Arc<Router>,
    handles: Vec<std::thread::JoinHandle<(WorkerStats, u64)>>,
    device: Option<Arc<QatDevice>>,
    session_store: Arc<SharedSessionStore>,
    worker_listeners: Vec<Arc<VListener>>,
    sched: Arc<SchedShared>,
    /// Each worker's metrics plane, published by the worker thread as it
    /// boots (None until then) — lets in-process callers aggregate the
    /// per-worker trace sinks without an in-band scrape.
    planes: Arc<Mutex<Vec<Option<Arc<MetricsPlane>>>>>,
}

impl Cluster {
    /// Start `directives.worker_processes` workers behind one front
    /// listener. A QAT device is created automatically for offloading
    /// profiles.
    pub fn start(
        directives: &EngineDirectives,
        tls: Arc<ServerConfig>,
        content: Arc<ContentStore>,
    ) -> Self {
        // Cluster-shared resumption plane: one sharded session/PSK store
        // and one ticket key ring handed to every worker, so a ticket or
        // session id minted on worker A resumes on worker B instead of
        // silently falling back to a full handshake.
        let session_store = Arc::new(SharedSessionStore::new(
            directives.session_store_shards,
            100_000,
            directives.session_timeout,
        ));
        let mut ring_rng = TestRng::new(0x71c7_e75e_ed00_0001);
        let ticket_keys = Arc::new(TicketKeyRing::new(
            &mut ring_rng,
            directives.ticket_rotation,
        ));
        let tls = tls.with_resumption_plane(Arc::clone(&session_store), ticket_keys);
        let device = directives
            .profile
            .uses_qat()
            .then(|| Arc::new(QatDevice::with_defaults()));
        let stop = Arc::new(AtomicBool::new(false));
        // Per-worker accept queues, fed round-robin by the router
        // ("handle incoming connections in a balanced manner", §2.2).
        // Backlogs are bounded by the admission directive so a handshake
        // flood cannot grow them without limit.
        let worker_listeners: Vec<Arc<VListener>> = (0..directives.worker_processes)
            .map(|_| Arc::new(VListener::with_capacity(directives.admission.backlog_cap)))
            .collect();
        let sched = Arc::new(SchedShared::new(
            directives.worker_processes,
            directives.dispatch_policy,
            directives.dispatch_steal,
        ));
        let router = Arc::new(Router {
            targets: worker_listeners.clone(),
            sched: Arc::clone(&sched),
            counters: DispatchCounters::new(directives.worker_processes),
            next: AtomicUsize::new(0),
            stop: Arc::clone(&stop),
            routing: AtomicUsize::new(0),
            refused: AtomicU64::new(0),
        });
        let listener = Arc::new(VListener::routed(Arc::clone(&router)));
        // Queue-delay attribution: stamp sockets at connect so a sampled
        // connection's accept-wait span covers its time on the worker
        // backlog, including any park on all-full backlogs.
        if directives.metrics.trace_sample_rate > 0 {
            listener.set_queue_timestamps(true);
            for target in &worker_listeners {
                target.set_queue_timestamps(true);
            }
        }
        let planes: Arc<Mutex<Vec<Option<Arc<MetricsPlane>>>>> =
            Arc::new(Mutex::new(vec![None; directives.worker_processes]));
        let handles = (0..directives.worker_processes)
            .map(|i| {
                let mut cfg = WorkerConfig::from_directives(directives);
                cfg.tls = Arc::clone(&tls);
                cfg.content = Arc::clone(&content);
                cfg.sched = Some(Arc::clone(&sched));
                cfg.worker_index = i;
                cfg.peers = worker_listeners.clone();
                let listener = Arc::clone(&worker_listeners[i]);
                let device = device.clone();
                let stop = Arc::clone(&stop);
                let planes = Arc::clone(&planes);
                std::thread::Builder::new()
                    .name(format!("qtls-worker-{i}"))
                    .spawn(move || {
                        let mut worker = Worker::new(listener, device.as_deref(), cfg);
                        planes.lock().expect("planes lock")[i] =
                            Some(Arc::clone(worker.metrics_plane()));
                        let mut drain: Option<Instant> = None;
                        worker.run_until(|w| {
                            if !stop.load(Ordering::Relaxed) {
                                return false;
                            }
                            // Shutdown: stop accepting so still-queued
                            // sockets stay on the backlog for the
                            // cluster to drain and account, then give
                            // in-flight connections a bounded drain.
                            w.pause_accepts();
                            let d = *drain
                                .get_or_insert_with(|| Instant::now() + Duration::from_secs(2));
                            w.tc_alive() == 0 || Instant::now() > d
                        });
                        (worker.stats, worker.kernel_switches())
                    })
                    .expect("spawn worker")
            })
            .collect();
        Cluster {
            listener,
            router,
            handles,
            device,
            session_store,
            worker_listeners,
            sched,
            planes,
        }
    }

    /// Each worker's metrics plane, in worker order (None for workers
    /// that have not finished booting yet).
    pub fn metrics_planes(&self) -> Vec<Option<Arc<MetricsPlane>>> {
        self.planes.lock().expect("planes lock").clone()
    }

    /// The cluster's scheduling plane (load gauges, steal accounting).
    pub fn sched(&self) -> &Arc<SchedShared> {
        &self.sched
    }

    /// The front listener clients connect through; each connect is
    /// routed to a worker's backlog before it returns.
    pub fn listener(&self) -> Arc<VListener> {
        Arc::clone(&self.listener)
    }

    /// The shared accelerator, if any.
    pub fn device(&self) -> Option<&Arc<QatDevice>> {
        self.device.as_ref()
    }

    /// The cluster-shared session/PSK store all workers resolve
    /// resumption state against.
    pub fn session_store(&self) -> Arc<SharedSessionStore> {
        Arc::clone(&self.session_store)
    }

    /// Stop all workers (draining in-flight connections) and account for
    /// every socket the cluster never served: connects refused at the
    /// front listener once shutdown began, and dispatched-but-never-
    /// accepted sockets in the per-worker backlogs, which are drained,
    /// closed, and counted — shutdown drops nothing silently.
    pub fn shutdown(self) -> ShutdownReport {
        // Sets the stop the workers read, then waits out the connects
        // still routing, so nothing lands on a backlog after its drain.
        self.router.quiesce();
        // Sleeping workers have no event for the flag; ring them.
        self.sched.wake_workers();
        let workers: Vec<(WorkerStats, u64)> = self
            .handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect();
        // Workers paused accepts when they observed stop, so anything
        // still queued is exactly what would have been dropped silently.
        let dropped_accepts: Vec<u64> = self.worker_listeners.iter().map(|l| l.drain()).collect();
        let mut dispatch = self.router.counters.snapshot();
        (dispatch.stolen_in, dispatch.stolen_out) = self.sched.steal_totals();
        ShutdownReport {
            workers,
            undispatched: self.router.refused.load(Ordering::Relaxed),
            dropped_accepts,
            dispatch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config_file::parse_ssl_engine_conf;
    use crate::loadgen::{run_connection, ClientConfig};
    use qtls_tls::server::ServerConfig;
    use std::sync::MutexGuard;

    /// Every test here boots a cluster and drives it from client threads
    /// on the same cores. `full_backlogs_park_on_drain_signal_not_backoff`
    /// sheds a connection when its lone worker accepts nothing for 10 ms,
    /// which a neighbouring test's handshake traffic can cause on a small
    /// box, so the cluster tests take turns.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn cluster_from_conf_serves_across_workers() {
        let _turn = serial();
        let directives = parse_ssl_engine_conf(
            r#"
worker_processes 3;
ssl_engine {
    use qat_engine;
    default_algorithm ALL;
    qat_engine {
        qat_offload_mode async;
        qat_notify_mode poll;
        qat_poll_mode heuristic;
    }
}
"#,
        )
        .unwrap();
        let cluster = Cluster::start(
            &directives,
            ServerConfig::test_default(),
            Arc::new(ContentStore::new()),
        );
        let listener = cluster.listener();
        // Enough connections that round-robin reaches every worker.
        let mut handles = Vec::new();
        for i in 0..9u64 {
            let listener = Arc::clone(&listener);
            handles.push(std::thread::spawn(move || {
                let cfg = ClientConfig {
                    request_path: Some("/4kb".into()),
                    ..ClientConfig::default()
                };
                run_connection(&listener, &cfg, 40_000 + i, None, Duration::from_secs(60))
                    .expect("connection")
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let report = cluster.shutdown();
        let stats = &report.workers;
        let total: u64 = stats.iter().map(|(s, _)| s.handshakes).sum();
        let errors: u64 = stats.iter().map(|(s, _)| s.errors).sum();
        assert_eq!(total, 9);
        assert_eq!(errors, 0);
        // Socket conservation: everything dispatched was either
        // accepted by its worker or drained (and counted) at shutdown.
        assert_eq!(report.dispatch.dispatched.iter().sum::<u64>(), 9);
        assert_eq!(report.dispatch.shed, 0);
        assert_eq!(report.undispatched, 0);
        for (i, (s, _)) in stats.iter().enumerate() {
            assert_eq!(
                report.dispatch.dispatched[i] + report.dispatch.stolen_in[i],
                s.accepted + report.dropped_accepts[i] + report.dispatch.stolen_out[i],
                "worker {i}: dispatched sockets must be accepted, stolen, or counted"
            );
        }
        // Stealing is off by default.
        assert_eq!(report.dispatch.stolen_in.iter().sum::<u64>(), 0);
        // Work spread across more than one worker.
        let busy_workers = stats.iter().filter(|(s, _)| s.handshakes > 0).count();
        assert!(busy_workers >= 2, "round-robin accept should spread load");
        // QTLS profile: no kernel switches anywhere.
        assert!(stats.iter().all(|(_, switches)| *switches == 0));
    }

    #[test]
    fn ticket_minted_on_worker_a_resumes_on_worker_b() {
        let _turn = serial();
        // The round-robin router guarantees consecutive connections
        // land on different workers of a 2-worker cluster: the full
        // handshake (and its ticket) goes to worker 0, the reconnect to
        // worker 1. With the cluster-shared resumption plane the second
        // handshake must be abbreviated — no silent full-handshake
        // fallback (resume_miss stays 0 everywhere).
        let directives = parse_ssl_engine_conf("worker_processes 2;").unwrap();
        let cluster = Cluster::start(
            &directives,
            ServerConfig::test_default(),
            Arc::new(ContentStore::new()),
        );
        let listener = cluster.listener();
        let cfg = ClientConfig::default();
        let (resume, resumed, _, _, _) =
            run_connection(&listener, &cfg, 70_000, None, Duration::from_secs(60)).unwrap();
        assert!(!resumed, "first connection is a full handshake");
        let resume = resume.expect("full handshake exports resumption material");
        let (_, resumed, _, _, _) = run_connection(
            &listener,
            &cfg,
            70_001,
            Some(resume),
            Duration::from_secs(60),
        )
        .unwrap();
        assert!(resumed, "cross-worker reconnect must resume abbreviated");
        let store = cluster.session_store();
        let stats = cluster.shutdown().workers;
        assert_eq!(stats.len(), 2);
        // One handshake per worker; the resumed one happened on the
        // worker that did NOT mint the session.
        for (s, _) in &stats {
            assert_eq!(s.handshakes, 1, "the router alternates workers");
        }
        assert_eq!(stats.iter().map(|(s, _)| s.resumed).sum::<u64>(), 1);
        let minted = stats.iter().filter(|(s, _)| s.resumed == 0).count();
        assert_eq!(minted, 1, "resume happened on the other worker");
        assert_eq!(
            stats.iter().map(|(s, _)| s.resume_miss).sum::<u64>(),
            0,
            "shared plane: no silent fallback to full handshakes"
        );
        assert_eq!(stats.iter().map(|(s, _)| s.errors).sum::<u64>(), 0);
        // The shared store served the lookup (session-id or ticket path;
        // the put is recorded either way).
        assert!(store.stats().inserts >= 1);
    }

    #[test]
    fn least_loaded_cluster_with_stealing_conserves_sockets() {
        let _turn = serial();
        let directives = parse_ssl_engine_conf(
            r#"
worker_processes 3;
dispatch_policy least_loaded;
dispatch_steal on;
"#,
        )
        .unwrap();
        let cluster = Cluster::start(
            &directives,
            ServerConfig::test_default(),
            Arc::new(ContentStore::new()),
        );
        let listener = cluster.listener();
        let mut handles = Vec::new();
        for i in 0..12u64 {
            let listener = Arc::clone(&listener);
            handles.push(std::thread::spawn(move || {
                let cfg = ClientConfig {
                    request_path: Some("/4kb".into()),
                    ..ClientConfig::default()
                };
                run_connection(&listener, &cfg, 60_000 + i, None, Duration::from_secs(60))
                    .expect("connection")
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let report = cluster.shutdown();
        let stats = &report.workers;
        assert_eq!(stats.iter().map(|(s, _)| s.handshakes).sum::<u64>(), 12);
        assert_eq!(stats.iter().map(|(s, _)| s.errors).sum::<u64>(), 0);
        // Socket conservation with stealing in the balance: what entered
        // a worker (dispatched + stolen in) equals what left it
        // (accepted + drained at shutdown + stolen away).
        assert_eq!(report.dispatch.dispatched.iter().sum::<u64>(), 12);
        assert_eq!(report.dispatch.shed, 0);
        assert_eq!(report.undispatched, 0);
        for (i, (s, _)) in stats.iter().enumerate() {
            assert_eq!(
                report.dispatch.dispatched[i] + report.dispatch.stolen_in[i],
                s.accepted + report.dropped_accepts[i] + report.dispatch.stolen_out[i],
                "worker {i}: conservation must include steals"
            );
        }
        // Steal traffic balances globally, and the stats counter agrees
        // with the scheduling plane's accounting.
        assert_eq!(
            report.dispatch.stolen_in.iter().sum::<u64>(),
            report.dispatch.stolen_out.iter().sum::<u64>()
        );
        assert_eq!(
            stats.iter().map(|(s, _)| s.steals).sum::<u64>(),
            report.dispatch.stolen_in.iter().sum::<u64>()
        );
    }

    #[test]
    fn full_backlogs_park_on_drain_signal_not_backoff() {
        let _turn = serial();
        // One worker with a 2-deep backlog, 8 concurrent clients: the
        // router keeps finding the lone backlog full. With the old
        // fixed-backoff park it would shed; with the drain signal it
        // parks until the worker accepts and every socket lands.
        let directives = parse_ssl_engine_conf(
            r#"
worker_processes 1;
admission_backlog_cap 2;
"#,
        )
        .unwrap();
        let cluster = Cluster::start(
            &directives,
            ServerConfig::test_default(),
            Arc::new(ContentStore::new()),
        );
        let listener = cluster.listener();
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let listener = Arc::clone(&listener);
            handles.push(std::thread::spawn(move || {
                run_connection(
                    &listener,
                    &ClientConfig::default(),
                    80_000 + i,
                    None,
                    Duration::from_secs(60),
                )
                .expect("connection")
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let report = cluster.shutdown();
        assert_eq!(
            report
                .workers
                .iter()
                .map(|(s, _)| s.handshakes)
                .sum::<u64>(),
            8,
            "every socket must be served"
        );
        assert_eq!(
            report.dispatch.shed, 0,
            "dispatch latency is bounded by the worker's drain, not shed on a timer"
        );
    }

    #[test]
    fn sw_cluster_without_device() {
        let _turn = serial();
        let directives = parse_ssl_engine_conf("worker_processes 2;").unwrap();
        let cluster = Cluster::start(
            &directives,
            ServerConfig::test_default(),
            Arc::new(ContentStore::new()),
        );
        assert!(cluster.device().is_none());
        let listener = cluster.listener();
        let cfg = ClientConfig::default();
        run_connection(&listener, &cfg, 50_000, None, Duration::from_secs(60)).unwrap();
        let stats = cluster.shutdown().workers;
        assert_eq!(stats.iter().map(|(s, _)| s.handshakes).sum::<u64>(), 1);
    }
}
