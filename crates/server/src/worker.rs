//! The event-driven HTTPS worker — the Nginx-worker role of the paper,
//! with the QTLS modifications of §4.2:
//!
//! - one thread handles many connections over non-blocking sockets;
//! - each connection is one long-lived task (`conn`, boxed once at
//!   accept) and the worker is its executor, with one run queue (the
//!   async queue): a task is polled only when a waker named it or it is
//!   owed a ring-full retry. A crypto submission makes the poll return
//!   `Pending` (async profiles): the pause is a return, the resume the
//!   next poll;
//! - a task parked on input has armed its socket's waker; one parked on
//!   an offload (the **TLS-ASYNC** state) has not, so a read that lands
//!   mid-offload wakes nothing: "event disorder" needs no saved read;
//! - completions arrive through the task's wait-context `Waker` — the
//!   paper's notification callback: it queues the connection id
//!   (QTLS) or signals the connection's eventfd-style FD (QAT+A /
//!   QAT+AH), whose simulated kernel crossings are counted;
//! - a sweep costs O(ready): overload check → accept (each new task
//!   queued for its first poll) → drain the run queue and poll (input)
//!   → heuristic poll, fed by the engine's inflight counters and
//!   `TC_active` (kept where it changes) → drain again plus the FD
//!   selector and poll (completions) → ring-full retries → flush → fold
//!   the tasks' counters into the metrics plane. Only
//!   [`Worker::shutdown`] walks the connection table;
//! - a loop with nothing to do sleeps ([`Worker::run_until`]) on its one
//!   wake handle, which every event source rings *after* publishing —
//!   a run-queue push (a socket waking its task, a timer-poller
//!   completion), `connect`/`inject` on its listener, a response landing
//!   on one of its ring pairs (heuristic profiles; the stand-in for the
//!   QAT driver's event-driven polling fd), an FD signal, cluster
//!   shutdown. While the loop is busy retrieval is the paper's pure poll.

use crate::admission::AdmissionConfig;
use crate::conn::{ConnCtx, Connection, InputWake, Spans, TaskEnv};
use crate::http::ContentStore;
use crate::metrics::{MetricsConfig, MetricsPlane, StatusSnapshot};
use crate::net::{VListener, VSocket};
use crate::sched::SchedShared;
use qtls_core::obs::{self, ConnTrace, SpanKind};
use qtls_core::{
    poll_pass, AsyncQueue, EngineMode, FdSelector, HeuristicConfig, HeuristicPoller, NotifyScheme,
    OffloadEngine, OffloadProfile, PollingScheme, SubmitQueue, SubmitSnapshot, TimerPoller,
    VirtualFd, WaitCtx,
};
use qtls_crypto::TestRng;
use qtls_qat::QatDevice;
use qtls_sync::{Mutex, Parker};
use qtls_tls::any_session::AnyServerSession;
use qtls_tls::provider::{CryptoProvider, OffloadSelection, OpCounters};
use qtls_tls::record::RecordCodec;
use qtls_tls::server::ServerConfig;
use qtls_tls::suite::Version;
use std::collections::hash_map::{Entry, HashMap};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::Waker;
use std::time::{Duration, Instant};

/// Worker configuration.
pub struct WorkerConfig {
    /// Offload profile (the five configurations of §5.1).
    pub profile: OffloadProfile,
    /// TLS server configuration (keys, suites, session cache).
    pub tls: Arc<ServerConfig>,
    /// Served content.
    pub content: Arc<ContentStore>,
    /// Heuristic polling thresholds.
    pub heuristic: HeuristicConfig,
    /// Timer-poller interval override (Fig. 12 sweeps 10 µs vs 1 ms).
    pub timer_interval: Option<Duration>,
    /// Which algorithm classes are eligible for offload (the
    /// `default_algorithm` directive of the SSL Engine Framework) and the
    /// size below which an eligible PRF or record pass stays on this
    /// worker ([`OffloadSelection::offload_everything`] is the paper's
    /// policy, kept as an ablation).
    pub selection: OffloadSelection,
    /// Protocol version served (the worker terminates one protocol, as
    /// in the paper's per-experiment Nginx configurations).
    pub version: Version,
    /// Number of offload shards (crypto instances) this worker spreads
    /// its submissions over; 0 means one per device endpoint (the
    /// `qat_worker_shards` directive). Offloads take the shards in
    /// rotation.
    pub shards: usize,
    /// Observability plane (the `qat_metrics` directive family).
    pub metrics: MetricsConfig,
    /// Records staged per data-plane batch submission (the
    /// `qat_record_batch_depth` directive).
    pub record_batch: usize,
    /// Handshake-flood admission control (the `admission_*` directive
    /// family): retry-token challenges over the watermark, capped
    /// accepts per sweep, overload prioritization.
    pub admission: AdmissionConfig,
    /// The cluster scheduling plane (load gauges, steal accounting,
    /// drain signal); `None` for a standalone worker.
    pub sched: Option<Arc<SchedShared>>,
    /// This worker's slot in the scheduling plane's gauge array.
    pub worker_index: usize,
    /// Every worker's accept backlog in cluster order — the steal
    /// victims. Empty for a standalone worker.
    pub peers: Vec<Arc<VListener>>,
}

impl WorkerConfig {
    /// Default config for `profile`.
    pub fn new(profile: OffloadProfile) -> Self {
        WorkerConfig {
            profile,
            tls: ServerConfig::test_default(),
            content: Arc::new(ContentStore::new()),
            heuristic: HeuristicConfig::default(),
            timer_interval: None,
            selection: OffloadSelection::default(),
            version: Version::Tls12,
            shards: 0,
            metrics: MetricsConfig::default(),
            record_batch: RecordCodec::DEFAULT_BATCH,
            admission: AdmissionConfig::default(),
            sched: None,
            worker_index: 0,
            peers: Vec::new(),
        }
    }

    /// Build a worker config from parsed `ssl_engine` directives.
    pub fn from_directives(d: &crate::config_file::EngineDirectives) -> Self {
        WorkerConfig {
            heuristic: d.heuristic,
            timer_interval: d.timer_interval,
            selection: d.selection,
            shards: d.worker_shards,
            metrics: d.metrics,
            record_batch: d.record_batch_depth,
            admission: d.admission,
            ..WorkerConfig::new(d.profile)
        }
    }
}

/// Worker statistics (a `stub_status` superset).
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerStats {
    /// Completed handshakes.
    pub handshakes: u64,
    /// Of which abbreviated (resumed).
    pub resumed: u64,
    /// Handshakes where the client offered resumption state this worker
    /// could not honour (silent fallback to a full handshake).
    pub resume_miss: u64,
    /// HTTP requests served.
    pub requests: u64,
    /// Application bytes sent.
    pub bytes_sent: u64,
    /// Application bytes received.
    pub bytes_received: u64,
    /// Established connections handed off from the handshake control
    /// plane to the batched record codec.
    pub record_handoffs: u64,
    /// Service passes that pended at least once (offload jobs).
    pub async_jobs: u64,
    /// Pass resumptions (re-polls) processed.
    pub resumptions: u64,
    /// Ring-full retry reschedules.
    pub retries: u64,
    /// Connections closed.
    pub closed: u64,
    /// TLS protocol errors.
    pub errors: u64,
    /// Sweep-boundary submit flushes that published at least one request.
    pub flushes: u64,
    /// Crypto requests published through batched flushes.
    pub flushed_requests: u64,
    /// Deepest submit batch published by one flush.
    pub max_flush_depth: u64,
    /// Requests a flush had to defer to the next sweep (ring full).
    pub deferred_submits: u64,
    /// Staged requests cancelled at worker shutdown.
    pub cancelled_submits: u64,
    /// Connections accepted off the listener backlog.
    pub accepted: u64,
    /// Admission challenges sent to token-less ClientHellos while over
    /// the watermark.
    pub challenges_sent: u64,
    /// Retry tokens presented and verified (admitted past the gate).
    pub tokens_verified: u64,
    /// Retry tokens rejected (stale, spoofed, or malformed frames).
    pub tokens_rejected: u64,
    /// Connections shed at the listener's full accept backlog.
    pub accept_sheds: u64,
    /// Transitions into overload mode (inflight handshakes crossed the
    /// watermark).
    pub overload_entered: u64,
    /// Sockets this worker stole from a loaded sibling's accept backlog
    /// while its own was dry (`dispatch_steal on`).
    pub steals: u64,
}

impl WorkerStats {
    /// Add what the connection tasks counted (`task`: their deltas).
    fn add_task_counts(&mut self, task: &WorkerStats) {
        self.handshakes += task.handshakes;
        self.resumed += task.resumed;
        self.resume_miss += task.resume_miss;
        self.requests += task.requests;
        self.bytes_sent += task.bytes_sent;
        self.bytes_received += task.bytes_received;
        self.record_handoffs += task.record_handoffs;
        self.async_jobs += task.async_jobs;
        self.resumptions += task.resumptions;
        self.errors += task.errors;
        self.challenges_sent += task.challenges_sent;
        self.tokens_verified += task.tokens_verified;
        self.tokens_rejected += task.tokens_rejected;
    }

    /// Copy in the submit-pipeline counters of every shard's queue:
    /// counters sum, the depth high-water mark takes the max (at one
    /// shard, an exact copy of that queue's snapshot).
    fn refresh_submit(&mut self, engine: &OffloadEngine) {
        let mut sum = SubmitSnapshot::default();
        for i in 0..engine.shard_count() {
            let Some(queue) = engine.shard_submit_queue(i) else {
                continue;
            };
            let snap = queue.stats().snapshot();
            sum.flushes += snap.flushes;
            sum.flushed_requests += snap.flushed_requests;
            sum.max_depth = sum.max_depth.max(snap.max_depth);
            sum.deferred += snap.deferred;
        }
        self.flushes = sum.flushes;
        self.flushed_requests = sum.flushed_requests;
        self.max_flush_depth = sum.max_depth;
        self.deferred_submits = sum.deferred;
    }
}

struct Conn {
    task: Pin<Box<dyn Future<Output = ()> + Send>>,
    /// The task's rendezvous with the engine — parked result, retry
    /// flag, submit annotation, and the waker that announces a
    /// completion to this worker. `None` for the profiles that never
    /// pause (`SW`, `QAT+S`): with no context installed their offloads
    /// block in place and the task only ever parks on input.
    wait: Option<Arc<WaitCtx>>,
    /// The FD the waker signals under the FD notification scheme — one
    /// per connection, shared by all its offloads (§4.4).
    fd: Option<Arc<VirtualFd>>,
    /// Handshake complete (admission counts the others as inflight).
    established: bool,
}

/// How long [`Worker::shutdown`] waits for requests already on the
/// device to complete before giving up on them.
const SHUTDOWN_SETTLE: Duration = Duration::from_millis(100);

/// Empty iterations (yielding between them) before an idle worker parks:
/// long enough that a symmetric/PRF offload (tens of microseconds)
/// completes without paying a sleep and a wake, short enough that the
/// spin is noise next to an asymmetric one (EXPERIMENTS.md, PR 16).
const IDLE_SPINS: u32 = 32;

/// Longest an idle worker sleeps. Every event source wakes it, so this
/// only bounds what has no wake-up of its own: a sibling's backlog
/// growing deep enough to steal from, and a caller-owned stop flag. A
/// timed-out park costs 30-45 us of CPU in this sandbox, so 5 ms keeps
/// an idle worker under 1 % of a core (1 ms measured 3 %).
const IDLE_PARK: Duration = Duration::from_millis(5);

/// The event-driven worker.
pub struct Worker {
    listener: Arc<VListener>,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    engine: Option<Arc<OffloadEngine>>,
    heuristic: Option<HeuristicPoller>,
    _timer_poller: Option<TimerPoller>,
    /// The run queue: every task's wakers push its connection id here.
    async_queue: Arc<AsyncQueue<u64>>,
    selector: Option<FdSelector>,
    /// Aggregated statistics.
    pub stats: WorkerStats,
    session_seed: u64,
    /// What the connection tasks share with the worker: the served
    /// configuration, the metrics plane, the overload flag, the idle
    /// count and the tasks' counters.
    env: Arc<TaskEnv>,
    /// Coarse stamp of the last anomaly check (wall cadence, not
    /// iteration counts — see `qat_anomaly_interval_ms`).
    last_anomaly_check_ms: u64,
    /// Set at shutdown: stop taking new accepts so still-queued
    /// sockets drain with accounting instead of being half-served.
    accepts_paused: bool,
    /// What an idle [`run_until`](Worker::run_until) sleeps on; every
    /// event source of this worker holds a clone.
    wake: Arc<Parker>,
    /// Connections mid-handshake (admission's inflight count, a term of
    /// the load gauge), counted as they are accepted, establish or close.
    handshaking: u64,
    /// The tasks a sweep step polls: accepted connections, then what
    /// the run queue named. Kept to reuse its allocation.
    ready: Vec<u64>,
    /// Tasks owed a ring-full retry.
    retries: Vec<u64>,
}

impl Worker {
    /// Build a worker for `cfg.profile`, allocating the configured number
    /// of QAT instances (shards) from `device` for the offloading
    /// profiles — by default one per device endpoint, spread over
    /// distinct endpoints.
    pub fn new(listener: Arc<VListener>, device: Option<&QatDevice>, cfg: WorkerConfig) -> Self {
        let profile = cfg.profile;
        let engine = if profile.uses_qat() {
            let device = device.expect("offload profile requires a QAT device");
            let mode = if profile.uses_async() {
                EngineMode::Async
            } else {
                EngineMode::Blocking
            };
            let shard_count = if cfg.shards == 0 {
                device.config().endpoints.max(1)
            } else {
                cfg.shards
            };
            Some(Arc::new(OffloadEngine::sharded(
                device.alloc_instances(shard_count),
                mode,
            )))
        } else {
            None
        };
        let timer_poller = match (profile.polling(), &engine) {
            (Some(PollingScheme::TimerThread(default)), Some(engine)) => {
                let interval = cfg.timer_interval.unwrap_or(default);
                Some(TimerPoller::spawn(Arc::clone(engine), interval))
            }
            _ => None,
        };
        let heuristic = match (profile.polling(), &engine) {
            (Some(PollingScheme::Heuristic), Some(engine)) => {
                Some(HeuristicPoller::new(Arc::clone(engine), cfg.heuristic))
            }
            _ => None,
        };
        let selector = match profile.notification() {
            Some(NotifyScheme::Fd) => Some(FdSelector::new()),
            _ => None,
        };
        // The wake handle, registered with every source that can hand
        // this worker an event while it sleeps. Ring pairs announce
        // responses only to a worker that retrieves them itself.
        let wake = Arc::new(Parker::new());
        listener.set_accept_waker(Arc::clone(&wake));
        let async_queue = Arc::new(AsyncQueue::new());
        async_queue.set_waker(Arc::clone(&wake));
        if let Some(selector) = &selector {
            selector.set_waker(Arc::clone(&wake));
        }
        if let (Some(_), Some(engine)) = (&heuristic, &engine) {
            for i in 0..engine.shard_count() {
                engine
                    .shard_instance(i)
                    .set_response_waker(Arc::clone(&wake));
            }
        }
        if let Some(sched) = &cfg.sched {
            sched.register_waker(Arc::clone(&wake));
        }
        // Async profiles batch submissions per event-loop sweep — one
        // queue per shard, each flushed to its own ring pair; the
        // blocking profile (QAT+S) submits in place and needs no queue.
        if let Some(engine) = &engine {
            if profile.uses_async() {
                for i in 0..engine.shard_count() {
                    engine.attach_shard_submit_queue(i, Arc::new(SubmitQueue::new()));
                }
            }
        }
        // `qat_metrics on`: size the flight ring, then enable tracing,
        // histograms and the recorder (queues are attached above, so
        // `enable_metrics` wires them all).
        if cfg.metrics.enabled {
            if let Some(engine) = &engine {
                engine
                    .obs()
                    .recorder()
                    .set_capacity(cfg.metrics.flight_capacity);
                engine.enable_metrics();
            }
        }
        // Connection tracing: stamp backlog entry times on this worker's
        // listener so accept-wait spans have a start edge.
        if cfg.metrics.trace_sample_rate > 0 {
            listener.set_queue_timestamps(true);
        }
        let env = Arc::new(TaskEnv {
            plane: Arc::new(MetricsPlane::new(cfg.metrics, engine.clone())),
            cfg: Arc::new(cfg),
            in_overload: AtomicBool::new(false),
            idle: AtomicU64::new(0),
            tally: Mutex::default(),
        });
        Worker {
            listener,
            conns: HashMap::new(),
            next_id: 1,
            engine,
            heuristic,
            _timer_poller: timer_poller,
            async_queue,
            selector,
            stats: WorkerStats::default(),
            session_seed: 0x9_0000_0000,
            env,
            last_anomaly_check_ms: 0,
            accepts_paused: false,
            wake,
            handshaking: 0,
            ready: Vec::new(),
            retries: Vec::new(),
        }
    }

    /// Stop accepting new connections (shutdown drain): sockets still
    /// queued on the listener stay there for the cluster to drain and
    /// count instead of being accepted into a dying worker.
    pub fn pause_accepts(&mut self) {
        self.accepts_paused = true;
    }

    /// Is the worker in overload mode (inflight handshakes at or over
    /// the admission watermark, as of the last sweep)?
    pub fn in_overload(&self) -> bool {
        self.env.in_overload.load(Ordering::Relaxed)
    }

    /// The offload engine, if any (inflight counters etc.).
    pub fn engine(&self) -> Option<&Arc<OffloadEngine>> {
        self.engine.as_ref()
    }

    /// Simulated user/kernel mode switches spent on async notification
    /// (0 under the kernel-bypass scheme).
    pub fn kernel_switches(&self) -> u64 {
        self.selector
            .as_ref()
            .map(|s| s.meter().total())
            .unwrap_or(0)
    }

    /// `TC_alive`: currently-open connections.
    pub fn tc_alive(&self) -> u64 {
        self.conns.len() as u64
    }

    /// `TC_idle`: connections waiting on the peer — their task parked on
    /// input with its socket's waker armed.
    pub fn tc_idle(&self) -> u64 {
        self.env.idle.load(Ordering::Relaxed)
    }

    /// `TC_active` (§4.3), the timeliness rule's input and the gauge:
    /// alive − idle. Saturating: a peer's wake may still be between
    /// taking a dropped task's waker and uncounting it.
    pub fn tc_active(&self) -> u64 {
        self.tc_alive().saturating_sub(self.tc_idle())
    }

    /// Render the `stub_status`-style page the heuristic scheme builds
    /// on (§4.3 extends this very module's accounting). The original
    /// single-instance lines keep their exact shape; workers whose
    /// engine stages submissions per shard append one aggregate
    /// `shards:` line plus a row per shard.
    pub fn stub_status(&self) -> String {
        self.env
            .plane
            .stub_status(&self.status_snapshot(), false, false)
    }

    /// The machine-parseable `stub_status?format=kv` variant: one
    /// `key value` pair per line, keys a superset of the human page's
    /// numeric fields.
    pub fn stub_status_kv(&self) -> String {
        self.env
            .plane
            .stub_status(&self.status_snapshot(), true, false)
    }

    /// The worker's metrics plane (shared with in-band HTTP endpoints).
    pub fn metrics_plane(&self) -> &Arc<MetricsPlane> {
        &self.env.plane
    }

    /// Current worker-level statistics as one snapshot.
    fn status_snapshot(&self) -> StatusSnapshot {
        StatusSnapshot {
            stats: self.stats,
            tc_alive: self.tc_alive(),
            tc_idle: self.tc_idle(),
            tc_active: self.tc_active(),
            heuristic: self.heuristic.as_ref().map(|h| h.stats()),
            kernel_switches: self.kernel_switches(),
            load: self.load_gauge(),
            dispatch_policy: match self.env.cfg.sched.as_ref().map(|s| s.policy()) {
                Some(crate::sched::DispatchPolicy::LeastLoaded) => 1,
                _ => 0,
            },
        }
    }

    fn provider(&self) -> CryptoProvider {
        match &self.engine {
            None => CryptoProvider::Software,
            Some(engine) => CryptoProvider::Offload {
                engine: Arc::clone(engine),
                selection: self.env.cfg.selection,
            },
        }
    }

    /// One turn of the main event loop. Returns the number of events
    /// handled (0 = idle).
    pub fn run_iteration(&mut self) -> usize {
        let mut events = 0;
        // 0. Overload check (QFAM): inflight handshakes against the
        // admission watermark, before this sweep's accepts.
        if self.env.cfg.admission.enabled {
            let overload = self.handshaking >= self.env.cfg.admission.watermark;
            let was_overload = self.env.in_overload.swap(overload, Ordering::Relaxed);
            if overload && !was_overload {
                self.stats.overload_entered += 1;
            }
        }
        // 1. Accept new connections — capped per sweep so a flood of
        // fresh sockets cannot starve in-flight connections behind an
        // arbitrarily long accept loop. When the own backlog runs dry
        // with stealing enabled, take the newest half of the most-loaded
        // sibling's backlog instead of going idle (dFCFS+steal; at most
        // one steal per sweep).
        let mut accepts_left = self.env.cfg.admission.accepts_per_sweep;
        let mut accepted_now = 0u64;
        let mut stole = false;
        while accepts_left > 0 && !self.accepts_paused {
            let Some(sock) = self.listener.accept() else {
                if stole {
                    break;
                }
                stole = true;
                let stolen = self.steal_batch(accepts_left);
                if stolen.is_empty() {
                    break;
                }
                for sock in stolen {
                    accepts_left -= 1;
                    self.admit_socket(sock);
                    accepted_now += 1;
                    events += 1;
                }
                continue;
            };
            accepts_left -= 1;
            self.admit_socket(sock);
            accepted_now += 1;
            events += 1;
        }
        // Backlog space freed (own or the steal victim's): wake a
        // dispatcher parked on all-full backlogs.
        if accepted_now > 0 {
            if let Some(sched) = &self.env.cfg.sched {
                sched.note_drain();
            }
        }
        // 2. Input: the new connections and every task its socket woke.
        // In overload mode established connections' record I/O is
        // driven before handshaking ones, and older (further-along)
        // handshakes before fresh ClientHellos — the QFAM priority order.
        let mut ready = std::mem::take(&mut self.ready);
        self.async_queue.drain_into(&mut ready);
        if self.in_overload() {
            let conns = &self.conns;
            ready.sort_by_key(|id| (!conns.get(id).is_some_and(|c| c.established), *id));
        }
        let mut polled = ready.len();
        for id in ready.drain(..) {
            self.poll_task(id);
        }
        // 3. QAT response retrieval (heuristic profiles; timer profiles
        // poll from their dedicated thread).
        let tc_active = self.tc_active();
        let mut retrieved = 0;
        if let Some(h) = &mut self.heuristic {
            retrieved = h.maybe_poll(tc_active) + h.failover_check();
        }
        events += retrieved;
        // 4. Async event delivery (§3.4: "at the end of the main event
        // loop"): the completions just retrieved — QTLS is heuristic-
        // polled, so no retrieval means nothing new to drain — or FDs
        // signalled, each read (cleared) before its task is polled.
        if retrieved > 0 {
            self.async_queue.drain_into(&mut ready);
        }
        if let Some(selector) = &self.selector {
            for id in selector.poll_ready() {
                if let Some(fd) = self.conns.get(&id).and_then(|c| c.fd.as_ref()) {
                    fd.clear();
                }
                ready.push(id);
            }
        }
        polled += ready.len();
        for id in ready.drain(..) {
            self.poll_task(id);
        }
        self.ready = ready;
        // 5. Ring-full retries: reschedule the tasks whose submission a
        // full ring handed back.
        for id in std::mem::take(&mut self.retries) {
            polled += 1;
            self.stats.retries += 1;
            self.poll_task(id);
        }
        events += polled;
        // 6. Sweep boundary: publish the staged batch (one cursor
        // publish, one doorbell per shard).
        if let Some(engine) = &self.engine {
            events += engine.flush_submissions().submitted;
            self.stats.refresh_submit(engine);
        }
        // 7. Fold what the polled tasks counted, refresh the metrics
        // plane's worker snapshot and run the (cheap, periodic) anomaly
        // check against the phase p99s.
        if polled > 0 {
            let mut tally = self.env.tally.lock();
            self.stats
                .add_task_counts(&std::mem::take(&mut tally.stats));
            for id in tally.established.drain(..) {
                // A connection that closed since was counted out at retire.
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.established = true;
                    self.handshaking -= 1;
                }
            }
        }
        self.stats.accept_sheds = self.listener.rejected();
        if let Some(sched) = &self.env.cfg.sched {
            sched.publish(self.env.cfg.worker_index, self.load_gauge());
        }
        self.env.plane.update(self.status_snapshot());
        // Anomaly check on a wall-clock cadence: an iteration-count
        // cadence ran 256 sweeps apart, which on a saturated loop could
        // be microseconds and on an idle one could be never-in-time.
        let metrics = &self.env.cfg.metrics;
        if metrics.enabled && metrics.anomaly_p99_us > 0 {
            let now_ms = qtls_qat::trace::now_ms();
            if now_ms.saturating_sub(self.last_anomaly_check_ms) >= metrics.anomaly_interval_ms {
                self.last_anomaly_check_ms = now_ms;
                self.env.plane.check_anomaly();
            }
        }
        events
    }

    /// Poll connection `id`'s task once: retire it if it finished, owe
    /// it a retry if a full ring handed its submission back.
    fn poll_task(&mut self, id: u64) {
        let Entry::Occupied(mut slot) = self.conns.entry(id) else {
            return; // a wake outlived its connection
        };
        let conn = slot.get_mut();
        if poll_pass(conn.wait.as_ref(), conn.task.as_mut()).is_ready() {
            let conn = slot.remove();
            self.retire(conn);
        } else if conn.wait.as_ref().is_some_and(|wait| wait.take_retry()) {
            self.retries.push(id);
        }
    }

    /// The worker's load gauge, as published to the scheduling plane:
    /// accepted-but-unserved backlog + inflight handshakes + staged
    /// offload depth.
    pub fn load_gauge(&self) -> u64 {
        let inflight = self
            .engine
            .as_ref()
            .map(|e| e.inflight().total())
            .unwrap_or(0);
        self.listener.pending() as u64 + self.handshaking + inflight
    }

    /// Turn an accepted (or stolen) socket into a tracked connection,
    /// queued for its first poll this sweep.
    fn admit_socket(&mut self, sock: VSocket) {
        let id = self.next_id;
        self.next_id += 1;
        self.session_seed += 1;
        let cfg = &self.env.cfg;
        let session = Box::new(AnyServerSession::new(
            cfg.version,
            Arc::clone(&cfg.tls),
            self.provider(),
            self.session_seed,
        ));
        // 1-in-N sampling decision — one relaxed fetch_add when tracing
        // is on, one relaxed load when off. A sampled connection's root
        // span opens at backlog entry (if stamped) so the accept wait is
        // inside the connection's wall time.
        let trace = self.env.plane.trace_sink().sample().map(|conn_id| {
            let now = obs::now_ns();
            let queued = sock.queued_ns();
            let start = if queued != 0 && queued < now {
                queued
            } else {
                now
            };
            let mut trace = ConnTrace::new(conn_id, cfg.worker_index as u32, start);
            if queued != 0 && queued < now {
                trace.add(
                    SpanKind::AcceptWait,
                    queued,
                    now,
                    u64::from(sock.dispatch_probes()),
                    u64::from(sock.stolen()),
                );
            }
            trace
        });
        // SSL_set_async_callback equivalent: the waker that announces
        // the task's completions is registered on its wait context here,
        // before its first poll — so a response retrieved (by a
        // dedicated poller thread) the instant after submission is still
        // announced. Its socket's waker queues it under every profile.
        let fd = self.selector.as_ref().map(|selector| {
            let fd = Arc::new(VirtualFd::new(id));
            selector.register(Arc::clone(&fd));
            fd
        });
        let queued = self.async_queue.waker(id);
        let wait = cfg.profile.notification().map(|_| {
            let wait = Arc::new(WaitCtx::new());
            wait.set_waker(match &fd {
                Some(fd) => Arc::clone(fd).into(),
                None => queued.clone(),
            });
            wait
        });
        let connection = Connection {
            id,
            sock,
            env: Arc::clone(&self.env),
            waker: Waker::from(Arc::new(InputWake {
                env: Arc::clone(&self.env),
                queue: queued,
            })),
            spans: Spans::default(),
            ctx: ConnCtx {
                session,
                http_buf: Vec::new(),
                codec: None,
                provider: self.provider(),
                counters: OpCounters::default(),
                rng: TestRng::new(self.session_seed ^ 0xda7a_9a7e),
                wire_out: Vec::new(),
                record_batch: cfg.record_batch,
                trace,
            },
        };
        self.conns.insert(
            id,
            Conn {
                task: Box::pin(connection.run()),
                wait,
                fd,
                established: false,
            },
        );
        self.handshaking += 1;
        self.stats.accepted += 1;
        self.ready.push(id);
    }

    /// Steal up to `max` sockets (half the victim's backlog, newest
    /// half) from the most-loaded sibling. Returns the stolen sockets;
    /// empty when stealing is off, nobody is strictly busier, or the
    /// victim's backlog is too shallow to split.
    fn steal_batch(&mut self, max: usize) -> Vec<VSocket> {
        let cfg = &self.env.cfg;
        let Some(sched) = &cfg.sched else {
            return Vec::new();
        };
        if !sched.steal_enabled() || max == 0 {
            return Vec::new();
        }
        let me = cfg.worker_index;
        let Some(victim) = sched.most_loaded_except(me) else {
            return Vec::new();
        };
        let Some(victim_listener) = cfg.peers.get(victim) else {
            return Vec::new();
        };
        let stolen = victim_listener.steal_half(max);
        if !stolen.is_empty() {
            let n = stolen.len() as u64;
            sched.record_steal(me, victim, n);
            self.stats.steals += n;
        }
        stolen
    }

    /// Shut the worker down without leaking: close every connection
    /// still open — a task parked on an offload is dropped with all it
    /// owns (session, pooled codec buffers; its partial span tree is
    /// published), nothing stays parked anywhere — then drain the
    /// submit pipeline (publish
    /// what the ring can take, fail every still-staged request with a
    /// definite `Cancelled` error so no waiter is silently dropped
    /// mid-sweep), and give requests already on the device a bounded
    /// moment to come back so the inflight accounting settles at zero.
    pub fn shutdown(&mut self) {
        for (_, conn) in std::mem::take(&mut self.conns) {
            self.retire(conn);
        }
        if let Some(engine) = &self.engine {
            let drained = engine.drain_submit_queue();
            self.stats.cancelled_submits += drained.cancelled as u64;
            self.stats.refresh_submit(engine);
            let deadline = Instant::now() + SHUTDOWN_SETTLE;
            while engine.inflight().total() > 0 && Instant::now() < deadline {
                if engine.poll_all() == 0 {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Run the loop until `stop` returns true, sleeping when idle: after
    /// [`IDLE_SPINS`] empty iterations, and with nothing staged for the
    /// next sweep to flush, the worker parks on its wake handle until an
    /// event source rings it, the heuristic poller's failover deadline
    /// comes due (requests inflight), or [`IDLE_PARK`] passes. Sources
    /// publish before they ring and the handle keeps one token, so an
    /// event that races the park ends it at once; `stop` is re-evaluated
    /// after every wake.
    pub fn run_until(&mut self, mut stop: impl FnMut(&mut Worker) -> bool) {
        let mut idle = 0;
        while !stop(self) {
            if self.run_iteration() > 0 {
                idle = 0;
            } else if idle < IDLE_SPINS {
                idle += 1;
                std::thread::yield_now();
            } else if self.submissions_staged() {
                // Not idle: a full ring deferred part of the last
                // flush, and the sweep is that batch's only flusher.
                std::thread::yield_now();
            } else {
                // `idle` stays put: a park that brought no event (the
                // bound ran out, or a stale token) leads straight back
                // to the next park, not through another spin.
                let failover = self.heuristic.as_ref().and_then(|h| h.failover_in());
                self.wake
                    .park_timeout(failover.map_or(IDLE_PARK, |d| d.min(IDLE_PARK)));
            }
        }
    }

    /// Is any request still staged on a shard's submit queue after the
    /// sweep flush (a full ring deferred it)?
    fn submissions_staged(&self) -> bool {
        self.engine.as_ref().is_some_and(|engine| {
            (0..engine.shard_count())
                .filter_map(|i| engine.shard_submit_queue(i))
                .any(|queue| !queue.is_empty())
        })
    }

    /// The handle an idle [`run_until`](Worker::run_until) sleeps on: ring
    /// it after changing what `stop` reads to have that noticed at once
    /// (and read its gauges to see whether the loop sleeps).
    pub fn wake_handle(&self) -> Arc<Parker> {
        Arc::clone(&self.wake)
    }

    /// Close a connection that left the table. Dropping it drops its
    /// task wherever that was parked, which disarms and closes its
    /// socket and publishes its span tree.
    fn retire(&mut self, conn: Conn) {
        if !conn.established {
            self.handshaking -= 1;
        }
        if let (Some(fd), Some(selector)) = (&conn.fd, &self.selector) {
            selector.deregister(fd.id);
        }
        self.stats.closed += 1;
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Idempotent: a second drain on an empty queue is a no-op, so an
        // explicit `shutdown()` followed by drop is fine.
        self.shutdown();
    }
}
