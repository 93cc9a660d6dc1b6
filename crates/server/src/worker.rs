//! The event-driven HTTPS worker — the Nginx-worker role of the paper,
//! with the QTLS modifications of §4.2:
//!
//! - one thread handles many connections over non-blocking sockets;
//! - each connection is one long-lived task (`conn`, boxed once at
//!   accept) and the worker is its executor. When a crypto request is
//!   submitted the poll returns `Pending` (async profiles) and the loop
//!   moves on: the pause is a return, the resume the next poll, no
//!   thread or stack switch either way;
//! - a task parked on an offload (the **TLS-ASYNC** state) is polled
//!   only when its waker names it or to retry a full ring, never for
//!   socket readiness: "event disorder" needs no saved read handler;
//! - the heuristic polling scheme runs inside the loop, fed by the
//!   engine's inflight counters and the worker's `TC_active` statistic
//!   (`stub_status`-style accounting);
//! - completions arrive through the task's `Waker` — the paper's
//!   notification callback and its argument: it appends the connection
//!   id to the kernel-bypass async queue (QTLS) or signals the
//!   connection's eventfd-style FD (QAT+A / QAT+AH), whose simulated
//!   kernel crossings are counted;
//! - a loop with nothing to do sleeps ([`Worker::run_until`]): after a
//!   short run of empty iterations it parks on its one wake handle,
//!   which every event source rings *after* publishing the event —
//!   bytes or a close on one of its sockets, `connect`/`inject` on its
//!   listener, a response landing on one of its ring pairs (heuristic
//!   profiles; the software stand-in for the QAT driver's event-driven
//!   polling fd), an async-queue push or FD signal from the timer
//!   poller's thread, and cluster shutdown. While the loop is busy none
//!   of this changes anything: retrieval is the paper's pure poll.

use crate::admission::AdmissionConfig;
use crate::conn::{ConnCtx, Connection, Progress, Spans, TaskEnv};
use crate::http::ContentStore;
use crate::metrics::{self, MetricsConfig, MetricsPlane, StatusSnapshot};
use crate::net::{VListener, VSocket};
use crate::sched::SchedShared;
use qtls_core::obs::{self, ConnTrace, SpanKind};
use qtls_core::{
    poll_pass, AsyncQueue, EngineMode, FdSelector, FlushPolicyConfig, HeuristicConfig,
    HeuristicPoller, NotifyScheme, OffloadEngine, OffloadProfile, PollingScheme, ShardPolicy,
    SubmitQueue, TimerPoller, VirtualFd, WaitCtx,
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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
    /// Which algorithm classes are offloaded (the `default_algorithm`
    /// directive of the SSL Engine Framework).
    pub selection: OffloadSelection,
    /// Protocol version served (the worker terminates one protocol, as
    /// in the paper's per-experiment Nginx configurations).
    pub version: Version,
    /// Sweep-boundary flush policy for the submit pipeline (the
    /// `qat_submit_flush_*` directive family). Applies per shard.
    pub flush: FlushPolicyConfig,
    /// Number of offload shards (crypto instances) this worker spreads
    /// its submissions over; 0 means one per device endpoint (the
    /// `qat_worker_shards` directive).
    pub shards: usize,
    /// Shard placement policy (the `qat_shard_policy` directive).
    pub shard_policy: ShardPolicy,
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
            flush: FlushPolicyConfig::adaptive(),
            shards: 0,
            shard_policy: ShardPolicy::default(),
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
            profile: d.profile,
            tls: ServerConfig::test_default(),
            content: Arc::new(ContentStore::new()),
            heuristic: d.heuristic,
            timer_interval: d.timer_interval,
            selection: d.selection,
            version: Version::Tls12,
            flush: d.flush,
            shards: d.worker_shards,
            shard_policy: d.shard_policy,
            metrics: d.metrics,
            record_batch: d.record_batch_depth,
            admission: d.admission,
            sched: None,
            worker_index: 0,
            peers: Vec::new(),
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
    /// Sweeps where the adaptive policy held a shallow batch back.
    pub submit_holds: u64,
    /// Held batches published because the hold bound expired.
    pub forced_flushes: u64,
    /// Requests that bypassed staging under light load.
    pub bypassed_submits: u64,
    /// EWMA of published flush depth, in milli-requests.
    pub ewma_flush_depth_milli: u64,
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

/// Submit-pipeline counters folded over every shard's queue: counters
/// sum, the depth high-water mark takes the max, the EWMA takes the
/// mean — at one shard every field is an exact copy of that queue's
/// snapshot, keeping the single-instance `stub_status` fields stable.
#[derive(Default)]
struct FoldedSubmit {
    flushes: u64,
    flushed_requests: u64,
    max_depth: u64,
    deferred: u64,
    holds: u64,
    forced_flushes: u64,
    bypasses: u64,
    ewma_depth_milli: u64,
}

fn folded_submit_stats(engine: &OffloadEngine) -> Option<FoldedSubmit> {
    let mut folded = FoldedSubmit::default();
    let mut queues = 0u64;
    for i in 0..engine.shard_count() {
        if let Some(queue) = engine.shard_submit_queue(i) {
            let snap = queue.stats().snapshot();
            queues += 1;
            folded.flushes += snap.flushes;
            folded.flushed_requests += snap.flushed_requests;
            folded.max_depth = folded.max_depth.max(snap.max_depth);
            folded.deferred += snap.deferred;
            folded.holds += snap.holds;
            folded.forced_flushes += snap.forced_flushes;
            folded.bypasses += snap.bypasses;
            folded.ewma_depth_milli += snap.ewma_depth_milli;
        }
    }
    if queues == 0 {
        return None;
    }
    folded.ewma_depth_milli /= queues;
    Some(folded)
}

/// What a connection's task is parked on, which decides what may poll
/// it next.
#[derive(Clone, Copy, PartialEq)]
enum Parked {
    /// Its socket: polled when input is readable.
    Input,
    /// An offload (§4.2's TLS-ASYNC state): polled when its waker names
    /// it — or, with `retry`, next sweep, to republish what a full
    /// request ring handed back.
    Offload { retry: bool },
}

/// Why the worker turns to a connection.
#[derive(Clone, Copy)]
enum Reason {
    /// Its socket is readable, or the peer closed.
    Input,
    /// Its waker fired: an offload completed.
    Completion,
    /// It is owed a ring-full retry.
    RingRetry,
}

struct Conn {
    sock: Arc<VSocket>,
    task: Pin<Box<dyn Future<Output = ()> + Send>>,
    progress: Arc<Mutex<Progress>>,
    /// The task's rendezvous with the engine — parked result, retry
    /// flag, submit annotation, and the waker that announces a
    /// completion to this worker. `None` for the profiles that never
    /// pause (`SW`, `QAT+S`): with no context installed their offloads
    /// block in place and the task only ever parks on input.
    wait: Option<Arc<WaitCtx>>,
    /// The FD the waker signals under the FD notification scheme — one
    /// per connection, shared by all its offloads (§4.4).
    fd: Option<Arc<VirtualFd>>,
    parked: Parked,
    /// Handshake complete (admission counts the others as inflight).
    established: bool,
}

impl Conn {
    /// Poll the task once and take its report: fold its counters into
    /// `stats`, note what it parked on. Returns whether it finished.
    fn poll(&mut self, stats: &mut WorkerStats) -> bool {
        let done = poll_pass(self.wait.as_ref(), self.task.as_mut()).is_ready();
        let mut progress = self.progress.lock();
        let delta = std::mem::take(&mut progress.stats);
        stats.async_jobs += delta.async_jobs;
        stats.record_handoffs += delta.record_handoffs;
        stats.handshakes += delta.handshakes;
        stats.resumed += delta.resumed;
        stats.resume_miss += delta.resume_miss;
        stats.requests += delta.requests;
        stats.bytes_sent += delta.bytes_sent;
        stats.bytes_received += delta.bytes_received;
        stats.errors += delta.errors;
        stats.challenges_sent += delta.challenges_sent;
        stats.tokens_verified += delta.tokens_verified;
        stats.tokens_rejected += delta.tokens_rejected;
        self.established |= delta.handshakes > 0;
        self.parked = if progress.awaiting_input {
            Parked::Input
        } else {
            let retry = self.wait.as_ref().is_some_and(|wait| wait.take_retry());
            Parked::Offload { retry }
        };
        done
    }
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

/// `TC_active`: connections the loop can still make progress on without
/// hearing from the peer — an offload pending, or bytes unread. A
/// handshake waiting for the client's next flight is not active (the
/// paper's alive − idle would count it; DESIGN.md §8).
fn tc_active(conns: &HashMap<u64, Conn>) -> u64 {
    conns
        .values()
        .filter(|c| matches!(c.parked, Parked::Offload { .. }) || c.sock.readable())
        .count() as u64
}

/// The event-driven worker.
pub struct Worker {
    cfg: Arc<WorkerConfig>,
    listener: Arc<VListener>,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    engine: Option<Arc<OffloadEngine>>,
    heuristic: Option<HeuristicPoller>,
    _timer_poller: Option<TimerPoller>,
    async_queue: Arc<AsyncQueue<u64>>,
    selector: Option<FdSelector>,
    /// Aggregated statistics.
    pub stats: WorkerStats,
    session_seed: u64,
    /// What the connection tasks share with the worker: the served
    /// configuration, the metrics plane and the overload flag.
    env: Arc<TaskEnv>,
    iterations: u64,
    /// Coarse stamp of the last anomaly check (wall cadence, not
    /// iteration counts — see `qat_anomaly_interval_ms`).
    last_anomaly_check_ms: u64,
    /// Set at shutdown: stop taking new accepts so still-queued
    /// sockets drain with accounting instead of being half-served.
    accepts_paused: bool,
    /// What an idle [`run_until`](Worker::run_until) sleeps on; every
    /// event source of this worker holds a clone.
    wake: Arc<Parker>,
    /// Per-sweep id lists, kept to reuse their allocations.
    readable_scratch: Vec<u64>,
    retry_scratch: Vec<u64>,
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
                cfg.shard_policy,
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
        // queue per shard, so the flush policy applies per ring pair; the
        // blocking profile (QAT+S) submits in place and needs no queue.
        if let Some(engine) = &engine {
            if profile.uses_async() {
                for i in 0..engine.shard_count() {
                    engine.attach_shard_submit_queue(
                        i,
                        Arc::new(SubmitQueue::with_policy(cfg.flush)),
                    );
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
        let cfg = Arc::new(cfg);
        let env = Arc::new(TaskEnv {
            cfg: Arc::clone(&cfg),
            plane: Arc::new(MetricsPlane::new(cfg.metrics, engine.clone())),
            in_overload: AtomicBool::new(false),
        });
        // Connection tracing: stamp backlog entry times on this worker's
        // listener so accept-wait spans have a start edge.
        if cfg.metrics.trace_sample_rate > 0 {
            listener.set_queue_timestamps(true);
        }
        Worker {
            cfg,
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
            iterations: 0,
            last_anomaly_check_ms: 0,
            accepts_paused: false,
            wake,
            readable_scratch: Vec::new(),
            retry_scratch: Vec::new(),
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

    /// `TC_idle`: connections waiting on the peer — nothing unread,
    /// nothing offloaded.
    pub fn tc_idle(&self) -> u64 {
        self.tc_alive() - self.tc_active()
    }

    /// Render the `stub_status`-style page the heuristic scheme builds
    /// on (§4.3 extends this very module's accounting). The original
    /// single-instance lines keep their exact shape; workers whose
    /// engine stages submissions per shard append one aggregate
    /// `shards:` line plus a row per shard.
    pub fn stub_status(&self) -> String {
        metrics::render_stub_status(&self.status_snapshot(), self.engine.as_deref())
    }

    /// The machine-parseable `stub_status?format=kv` variant: one
    /// `key value` pair per line, keys a superset of the human page's
    /// numeric fields.
    pub fn stub_status_kv(&self) -> String {
        metrics::render_stub_status_kv(&self.status_snapshot(), self.engine.as_deref())
    }

    /// The worker's metrics plane (shared with in-band HTTP endpoints).
    pub fn metrics_plane(&self) -> &Arc<MetricsPlane> {
        &self.env.plane
    }

    /// Current worker-level statistics as one snapshot.
    fn status_snapshot(&self) -> StatusSnapshot {
        let (tc_alive, tc_active) = (self.tc_alive(), self.tc_active());
        StatusSnapshot {
            stats: self.stats,
            tc_alive,
            tc_idle: tc_alive - tc_active,
            tc_active,
            heuristic: self.heuristic.as_ref().map(|h| h.stats()),
            kernel_switches: self.kernel_switches(),
            load: self.load_gauge(),
            dispatch_policy: match self.cfg.sched.as_ref().map(|s| s.policy()) {
                Some(crate::sched::DispatchPolicy::LeastLoaded) => 1,
                _ => 0,
            },
        }
    }

    /// `TC_active` (§4.3), the timeliness rule's input and the gauge:
    /// connections with an offload pending or bytes unread.
    pub fn tc_active(&self) -> u64 {
        tc_active(&self.conns)
    }

    fn provider(&self) -> CryptoProvider {
        match &self.engine {
            None => CryptoProvider::Software,
            Some(engine) => CryptoProvider::Offload {
                engine: Arc::clone(engine),
                selection: self.cfg.selection,
            },
        }
    }

    /// One turn of the main event loop. Returns the number of events
    /// handled (0 = idle).
    pub fn run_iteration(&mut self) -> usize {
        let mut events = 0;
        // 0. Overload check (QFAM): count inflight handshakes against
        // the admission watermark before this sweep's accepts.
        if self.cfg.admission.enabled {
            let inflight = self.conns.values().filter(|c| !c.established).count() as u64;
            let overload = inflight >= self.cfg.admission.watermark;
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
        let mut accepts_left = self.cfg.admission.accepts_per_sweep;
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
            if let Some(sched) = &self.cfg.sched {
                sched.note_drain();
            }
        }
        // 2. Socket read events. In overload mode, established
        // connections' record I/O is driven before handshaking ones,
        // and older (further-along) handshakes before fresh
        // ClientHellos — the QFAM priority order.
        let mut readable = std::mem::take(&mut self.readable_scratch);
        readable.clear();
        readable.extend(
            self.conns
                .iter()
                .filter(|(_, c)| c.sock.readable() || c.sock.peer_closed())
                .map(|(id, _)| *id),
        );
        if self.in_overload() {
            readable.sort_by_key(|id| (!self.conns[id].established, *id));
        }
        for &id in &readable {
            events += 1;
            self.wake(id, Reason::Input);
        }
        self.readable_scratch = readable;
        // 3. QAT response retrieval (heuristic profiles; timer profiles
        // poll from their dedicated thread).
        if let Some(h) = &mut self.heuristic {
            events += h.maybe_poll(tc_active(&self.conns));
            events += h.failover_check();
        }
        // 4. Async event delivery: the connections whose wakers fired.
        match self.cfg.profile.notification() {
            Some(NotifyScheme::KernelBypass) => {
                // Drain the application async queue (processed "at the
                // end of the main event loop", §3.4).
                for id in self.async_queue.drain() {
                    events += 1;
                    self.wake(id, Reason::Completion);
                }
            }
            Some(NotifyScheme::Fd) => {
                if let Some(selector) = &self.selector {
                    for id in selector.poll_ready() {
                        events += 1;
                        self.wake(id, Reason::Completion);
                    }
                }
            }
            None => {}
        }
        // 5. Ring-full retries: reschedule paused tasks.
        let mut retries = std::mem::take(&mut self.retry_scratch);
        retries.clear();
        retries.extend(
            self.conns
                .iter()
                .filter(|(_, c)| c.parked == Parked::Offload { retry: true })
                .map(|(id, _)| *id),
        );
        for &id in &retries {
            events += 1;
            self.stats.retries += 1;
            self.wake(id, Reason::RingRetry);
        }
        self.retry_scratch = retries;
        // 6. Sweep boundary: let the flush policy decide whether the
        // staged batch publishes now (one cursor publish, one doorbell)
        // or holds for a deeper batch. All submit counters come from the
        // queue's own stats — folding them from per-sweep reports lost
        // `deferred` whenever the report was otherwise empty.
        if let Some(engine) = &self.engine {
            let report = engine.flush_submissions();
            events += report.submitted;
            if let Some(folded) = folded_submit_stats(engine) {
                self.stats.flushes = folded.flushes;
                self.stats.flushed_requests = folded.flushed_requests;
                self.stats.max_flush_depth = folded.max_depth;
                self.stats.deferred_submits = folded.deferred;
                self.stats.submit_holds = folded.holds;
                self.stats.forced_flushes = folded.forced_flushes;
                self.stats.bypassed_submits = folded.bypasses;
                self.stats.ewma_flush_depth_milli = folded.ewma_depth_milli;
            }
        }
        // 7. Refresh the metrics plane's worker snapshot and run the
        // (cheap, periodic) anomaly check against the phase p99s.
        self.stats.accept_sheds = self.listener.rejected();
        if let Some(sched) = &self.cfg.sched {
            sched.publish(self.cfg.worker_index, self.load_gauge());
        }
        self.iterations += 1;
        self.env.plane.update(self.status_snapshot());
        // Anomaly check on a wall-clock cadence: an iteration-count
        // cadence ran 256 sweeps apart, which on a saturated loop could
        // be microseconds and on an idle one could be never-in-time.
        if self.cfg.metrics.enabled && self.cfg.metrics.anomaly_p99_us > 0 {
            let now_ms = qtls_qat::trace::now_ms();
            if now_ms.saturating_sub(self.last_anomaly_check_ms)
                >= self.cfg.metrics.anomaly_interval_ms
            {
                self.last_anomaly_check_ms = now_ms;
                self.env.plane.check_anomaly();
            }
        }
        events
    }

    /// The worker's load gauge, as published to the scheduling plane:
    /// accepted-but-unserved backlog + inflight handshakes + staged
    /// offload depth.
    pub fn load_gauge(&self) -> u64 {
        let handshaking = self.conns.values().filter(|c| !c.established).count() as u64;
        let inflight = self
            .engine
            .as_ref()
            .map(|e| e.inflight().total())
            .unwrap_or(0);
        self.listener.pending() as u64 + handshaking + inflight
    }

    /// Turn an accepted (or stolen) socket into a tracked connection.
    fn admit_socket(&mut self, sock: VSocket) {
        let id = self.next_id;
        self.next_id += 1;
        self.session_seed += 1;
        let session = Box::new(AnyServerSession::new(
            self.cfg.version,
            Arc::clone(&self.cfg.tls),
            self.provider(),
            self.session_seed,
        ));
        // Registered before this sweep's readable scan, so bytes that
        // beat the registration are seen there and later ones wake us.
        sock.set_read_waker(Arc::clone(&self.wake));
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
            let mut trace = ConnTrace::new(conn_id, self.cfg.worker_index as u32, start);
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
        // announced.
        let fd = self.selector.as_ref().map(|selector| {
            let fd = Arc::new(VirtualFd::new(id));
            selector.register(Arc::clone(&fd));
            fd
        });
        let wait = self.cfg.profile.notification().map(|_| {
            let wait = Arc::new(WaitCtx::new());
            wait.set_waker(match &fd {
                Some(fd) => Arc::clone(fd).into(),
                None => self.async_queue.waker(id),
            });
            wait
        });
        let sock = Arc::new(sock);
        let progress = Arc::new(Mutex::new(Progress::default()));
        let connection = Connection {
            sock: Arc::clone(&sock),
            env: Arc::clone(&self.env),
            progress: Arc::clone(&progress),
            spans: Spans::default(),
            ctx: ConnCtx {
                session,
                http_buf: Vec::new(),
                codec: None,
                provider: self.provider(),
                counters: OpCounters::default(),
                rng: TestRng::new(self.session_seed ^ 0xda7a_9a7e),
                wire_out: Vec::new(),
                record_batch: self.cfg.record_batch,
                trace,
            },
        };
        self.conns.insert(
            id,
            Conn {
                sock,
                task: Box::pin(connection.run()),
                progress,
                wait,
                fd,
                parked: Parked::Input,
                established: false,
            },
        );
        self.stats.accepted += 1;
    }

    /// Steal up to `max` sockets (half the victim's backlog, newest
    /// half) from the most-loaded sibling. Returns the stolen sockets;
    /// empty when stealing is off, nobody is strictly busier, or the
    /// victim's backlog is too shallow to split.
    fn steal_batch(&mut self, max: usize) -> Vec<VSocket> {
        let Some(sched) = self.cfg.sched.clone() else {
            return Vec::new();
        };
        if !sched.steal_enabled() || max == 0 {
            return Vec::new();
        }
        let me = self.cfg.worker_index;
        let Some(victim) = sched.most_loaded_except(me) else {
            return Vec::new();
        };
        let Some(victim_listener) = self.cfg.peers.get(victim) else {
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
        for (_, conn) in self.conns.drain() {
            Self::retire(conn, self.selector.as_ref(), &mut self.stats);
        }
        if let Some(engine) = &self.engine {
            let drained = engine.drain_submit_queue();
            self.stats.cancelled_submits += drained.cancelled as u64;
            if let Some(folded) = folded_submit_stats(engine) {
                self.stats.flushes = folded.flushes;
                self.stats.flushed_requests = folded.flushed_requests;
                self.stats.max_flush_depth = folded.max_depth;
                self.stats.deferred_submits = folded.deferred;
            }
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
                // Not idle: the sweep is the staged batch's only
                // flusher and its hold is bounded in time.
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

    /// Is any request staged on a shard's submit queue (held by the
    /// flush policy, or handed back by a full ring)?
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

    /// Turn to connection `id` because of `why`, polling its task if
    /// that is what the task is parked on; a task that finishes is
    /// retired.
    fn wake(&mut self, id: u64, why: Reason) {
        let Entry::Occupied(mut slot) = self.conns.entry(id) else {
            return; // a completion outlived its connection
        };
        let conn = slot.get_mut();
        if let (Reason::Completion, Some(fd)) = (why, &conn.fd) {
            fd.clear();
        }
        let done = match (why, conn.parked) {
            (Reason::Input, Parked::Input) => {
                (conn.sock.peer_closed() && !conn.sock.readable()) || conn.poll(&mut self.stats)
            }
            (Reason::Completion | Reason::RingRetry, Parked::Offload { .. }) => {
                self.stats.resumptions += 1;
                conn.poll(&mut self.stats)
            }
            // A read that lands mid-offload is not polled for — the
            // bytes wait in the socket until the task asks for input
            // (§4.2's event disorder); a completion for a task parked on
            // input is stale.
            (Reason::Input, Parked::Offload { .. })
            | (Reason::Completion | Reason::RingRetry, Parked::Input) => false,
        };
        if done {
            Self::retire(slot.remove(), self.selector.as_ref(), &mut self.stats);
        }
    }

    /// Close a connection that left the table. Dropping it drops its
    /// task wherever that was parked, which publishes its span tree.
    fn retire(conn: Conn, selector: Option<&FdSelector>, stats: &mut WorkerStats) {
        if let (Some(fd), Some(selector)) = (&conn.fd, selector) {
            selector.deregister(fd.id);
        }
        conn.sock.close();
        stats.closed += 1;
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Idempotent: a second drain on an empty queue is a no-op, so an
        // explicit `shutdown()` followed by drop is fine.
        self.shutdown();
    }
}
