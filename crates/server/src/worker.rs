//! The event-driven HTTPS worker — the Nginx-worker role of the paper,
//! with the QTLS modifications of §4.2:
//!
//! - one thread handles many connections over non-blocking sockets;
//! - each service pass (TLS state machine + HTTP layer) is a future the
//!   worker polls: when a crypto request is submitted the poll returns
//!   `Pending` (async profiles), the connection enters the **TLS-ASYNC**
//!   state and the loop moves on — the pause is a return, the resume the
//!   next poll, no thread or stack switch either way;
//! - read events that arrive while an async event is expected are saved
//!   and replayed after the async event is processed ("event disorder");
//! - the heuristic polling scheme runs inside the loop, fed by the
//!   engine's inflight counters and the worker's `TC_active` statistic
//!   (`stub_status`-style accounting);
//! - completions arrive through the kernel-bypass async queue (QTLS) or
//!   an eventfd/epoll-style FD path (QAT+A / QAT+AH), whose simulated
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

use crate::admission::{self, AdmissionConfig, FrameParse};
use crate::http::{self, ContentStore, ParseOutcome};
use crate::metrics::{self, MetricsConfig, MetricsPlane, StatusSnapshot};
use crate::net::{SockError, VListener, VSocket};
use crate::sched::SchedShared;
use qtls_core::obs::{self, ConnTrace, SpanKind};
use qtls_core::{
    poll_pass, AsyncQueue, EngineMode, FdSelector, FlushPolicyConfig, HeuristicConfig,
    HeuristicPoller, Notifier, NotifyScheme, OffloadEngine, OffloadProfile, PollingScheme,
    ShardPolicy, SubmitQueue, TimerPoller, VirtualFd, WaitCtx,
};
use qtls_crypto::TestRng;
use qtls_qat::QatDevice;
use qtls_sync::Parker;
use qtls_tls::any_session::AnyServerSession;
use qtls_tls::provider::{CryptoProvider, OffloadSelection, OpCounters};
use qtls_tls::record::RecordCodec;
use qtls_tls::server::ServerConfig;
use qtls_tls::suite::Version;
use qtls_tls::TlsError;
use std::collections::HashMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::Poll;
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
    /// Hand established connections off to the batched record codec
    /// (the `qat_record_offload` directive). Off = the handshake
    /// session keeps serving application records one at a time.
    pub record_offload: bool,
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
            record_offload: true,
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
            record_offload: d.record_offload,
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

/// The bundle a service pass owns while it runs: the TLS session plus
/// the connection's HTTP parsing state and, once the handshake control
/// plane has handed off, the batched data-plane record codec.
struct ConnCtx {
    session: Box<AnyServerSession>,
    http_buf: Vec<u8>,
    /// The data-plane codec; `Some` after the post-Finished handoff.
    codec: Option<RecordCodec>,
    /// Provider + counters the data plane seals/opens through (the
    /// handshake session keeps its own for control-plane ops).
    provider: CryptoProvider,
    counters: OpCounters,
    rng: TestRng,
    /// Wire records sealed by the codec this pass, flushed to the
    /// socket by `finish_service`.
    wire_out: Vec<u8>,
    record_offload: bool,
    record_batch: usize,
    /// The connection's span tree when it was sampled for tracing;
    /// `None` (no allocation, no clock reads) otherwise.
    trace: Option<ConnTrace>,
    /// Open handshake span, until the flight that completes it.
    hs_span: Option<u32>,
    /// Open serve span for the current established service pass.
    serve_span: Option<u32>,
}

/// Result of one service pass over a connection.
struct ServiceReport {
    handshake_done: bool,
    resumed: bool,
    resume_miss: bool,
    requests: u64,
    bytes_sent: u64,
    bytes_received: u64,
    /// This pass performed the control-plane → data-plane handoff.
    handoff: bool,
    close: bool,
    error: Option<TlsError>,
}

/// One service pass in flight: owns the connection's context until it
/// resolves, handing it back with the pass's report. Dropping it (the
/// connection went away mid-offload) drops the context with it.
type Pass = Pin<Box<dyn Future<Output = (ConnCtx, ServiceReport)> + Send>>;

/// Run the TLS state machine + HTTP layer over whatever input has been
/// fed. Every crypto call inside is awaited, so under the async profiles
/// the pass is pending wherever an offload is in flight.
async fn service(ctx: &mut ConnCtx, content: &ContentStore, plane: &MetricsPlane) -> ServiceReport {
    let mut report = ServiceReport {
        handshake_done: false,
        resumed: false,
        resume_miss: false,
        requests: 0,
        bytes_sent: 0,
        bytes_received: 0,
        handoff: false,
        close: false,
        error: None,
    };
    if ctx.codec.is_none() {
        let was_established = ctx.session.is_established();
        match ctx.session.process_async().await {
            Ok(()) => {}
            Err(e) => {
                report.error = Some(e);
                report.close = true;
                return report;
            }
        }
        if !was_established && ctx.session.is_established() {
            report.handshake_done = true;
            report.resumed = ctx.session.was_resumed();
            report.resume_miss = ctx.session.resume_missed();
        }
        // Application data the handshake session decrypted before the
        // handoff (e.g. a request pipelined behind Finished).
        while let Some(chunk) = ctx.session.read_app_data() {
            report.bytes_received += chunk.len() as u64;
            ctx.http_buf.extend_from_slice(&chunk);
        }
        // Control plane → data plane: once established, the handshake
        // session exports its record secrets (sequence spaces included)
        // and the batched codec owns record protection from here on.
        if ctx.record_offload && ctx.session.is_established() {
            match ctx.session.extract_secrets() {
                Ok((secrets, leftover)) => {
                    ctx.codec = Some(RecordCodec::new(secrets, leftover, ctx.record_batch));
                    report.handoff = true;
                }
                Err(e) => {
                    report.error = Some(e);
                    report.close = true;
                    return report;
                }
            }
        }
    }
    if let Some(codec) = &mut ctx.codec {
        let mut plain = Vec::new();
        let open_span = ctx
            .trace
            .as_mut()
            .map(|t| t.begin(SpanKind::RecordOpen, obs::now_ns()));
        match codec
            .open_into_async(&mut plain, &ctx.provider, &mut ctx.counters)
            .await
        {
            Ok(records) => {
                if let (Some(trace), Some(id)) = (&mut ctx.trace, open_span) {
                    trace.end_annotated(id, obs::now_ns(), records as u64, plain.len() as u64);
                }
                report.bytes_received += plain.len() as u64;
                ctx.http_buf.extend_from_slice(&plain);
            }
            Err(e) => {
                if let (Some(trace), Some(id)) = (&mut ctx.trace, open_span) {
                    trace.end(id, obs::now_ns());
                }
                report.error = Some(e);
                report.close = true;
                return report;
            }
        }
    }
    loop {
        match http::parse_request(&ctx.http_buf) {
            ParseOutcome::Complete(req, used) => {
                ctx.http_buf.drain(..used);
                // Observability endpoints take a query string; plain
                // content paths never carry one.
                let (path, query) = match req.path.split_once('?') {
                    Some((p, q)) => (p, q),
                    None => (req.path.as_str(), ""),
                };
                let (status, reason, body) = if req.method != "GET" {
                    (405, "Method Not Allowed", Vec::new())
                } else if let Some((status, reason, text)) = plane.serve(path, query) {
                    (status, reason, text.into_bytes())
                } else {
                    match content.get(path) {
                        Some(body) => (200, "OK", body),
                        None => (404, "Not Found", Vec::new()),
                    }
                };
                let resp = http::build_response(status, reason, &body, req.keep_alive);
                report.bytes_sent += resp.len() as u64;
                report.requests += 1;
                match &mut ctx.codec {
                    // Data plane: stage now, seal the whole pass as one
                    // scatter-gather batch below.
                    Some(codec) => codec.stage(&resp),
                    None => {
                        if let Err(e) = ctx.session.write_app_data_async(&resp).await {
                            report.error = Some(e);
                            report.close = true;
                            break;
                        }
                    }
                }
                if !req.keep_alive {
                    report.close = true;
                    break;
                }
            }
            ParseOutcome::Partial => break,
            ParseOutcome::Bad(_) => {
                report.close = true;
                break;
            }
        }
    }
    // One batched flush per service pass: every response staged above is
    // sealed through the engine in batches of `record_batch` in-place
    // descriptors — one doorbell per batch, not per record.
    if let Some(codec) = &mut ctx.codec {
        if codec.staged_bytes() > 0 {
            let wire_before = ctx.wire_out.len();
            let seal_span = ctx
                .trace
                .as_mut()
                .map(|t| t.begin(SpanKind::RecordSeal, obs::now_ns()));
            match codec
                .flush_into_async(
                    &mut ctx.wire_out,
                    &ctx.provider,
                    &mut ctx.counters,
                    &mut ctx.rng,
                )
                .await
            {
                Ok(records) => {
                    if let (Some(trace), Some(id)) = (&mut ctx.trace, seal_span) {
                        let sealed = (ctx.wire_out.len() - wire_before) as u64;
                        trace.end_annotated(id, obs::now_ns(), records as u64, sealed);
                    }
                }
                Err(e) => {
                    if let (Some(trace), Some(id)) = (&mut ctx.trace, seal_span) {
                        trace.end(id, obs::now_ns());
                    }
                    report.error = Some(e);
                    report.close = true;
                }
            }
        }
    }
    report
}

/// Per-connection driver state (§4.2's TLS state machine extension: the
/// `Awaiting` arm is the TLS-ASYNC state).
enum Driver {
    /// Session available; events can be handled directly.
    Idle(ConnCtx),
    /// The service pass is pending on an offload, awaiting an async
    /// event.
    Awaiting {
        pass: Pass,
        /// The pass's rendezvous with the engine: parked result, retry
        /// flag, submit annotation, and the notifier that announces the
        /// completion to this worker.
        wait: Arc<WaitCtx>,
        /// A read event arrived while the async event was expected; its
        /// handler was saved and will be replayed (§4.2).
        saved_read: bool,
        /// Pending on a full request ring; re-poll to retry.
        retry: bool,
    },
    /// Transitional.
    Taken,
}

struct Conn {
    sock: VSocket,
    driver: Driver,
    fd: Option<Arc<VirtualFd>>,
    established: bool,
    close_requested: bool,
    /// Past the admission gate (always true with admission off).
    admitted: bool,
    /// First bytes buffered while the admission gate classifies them
    /// (frame vs raw ClientHello); fed to the session on admission.
    pre_buf: Vec<u8>,
    /// The client's declared address, which retry tokens bind to.
    peer_addr: u64,
    /// This connection carries a span trace (mirrors `ctx.trace` so the
    /// worker can skip clock reads without touching the driver).
    sampled: bool,
    /// When the admission gate first engaged (0 = not measuring).
    gate_start_ns: u64,
    /// How the gate resolved: 0 passed, 1 challenged, 2 token verified.
    admitted_via: u64,
    /// Open offload-wait interval: (start, engine submit annotation)
    /// — measured on the worker side while the pass owns the ctx.
    await_open: Option<(u64, Option<(u32, u64)>)>,
    /// Closed offload-wait intervals awaiting transfer into the trace:
    /// (start, end, shard, path).
    await_spans: Vec<(u64, u64, u64, u64)>,
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
        .filter(|c| matches!(c.driver, Driver::Awaiting { .. }) || c.sock.readable())
        .count() as u64
}

/// The event-driven worker.
pub struct Worker {
    cfg: WorkerConfig,
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
    plane: Arc<MetricsPlane>,
    iterations: u64,
    /// Coarse stamp of the last anomaly check (wall cadence, not
    /// iteration counts — see `qat_anomaly_interval_ms`).
    last_anomaly_check_ms: u64,
    /// Inflight handshakes crossed the admission watermark last sweep.
    in_overload: bool,
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
        let plane = Arc::new(MetricsPlane::new(cfg.metrics, engine.clone()));
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
            plane,
            iterations: 0,
            last_anomaly_check_ms: 0,
            in_overload: false,
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
        self.in_overload
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
        &self.plane
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
            if overload && !self.in_overload {
                self.stats.overload_entered += 1;
            }
            self.in_overload = overload;
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
        if self.in_overload {
            readable.sort_by_key(|id| {
                let c = &self.conns[id];
                (!c.established, *id)
            });
        }
        for &id in &readable {
            events += 1;
            let conn = self.conns.get_mut(&id).expect("exists");
            if let Driver::Awaiting { saved_read, .. } = &mut conn.driver {
                // §4.2: save the read handler; replay after the async
                // event is processed.
                *saved_read = true;
            } else if conn.sock.peer_closed() && !conn.sock.readable() {
                self.remove_conn(id);
            } else {
                self.drive(id);
            }
        }
        self.readable_scratch = readable;
        // 3. QAT response retrieval (heuristic profiles; timer profiles
        // poll from their dedicated thread).
        if let Some(h) = &mut self.heuristic {
            events += h.maybe_poll(tc_active(&self.conns));
            events += h.failover_check();
        }
        // 4. Async event delivery.
        match self.cfg.profile.notification() {
            Some(NotifyScheme::KernelBypass) => {
                // Drain the application async queue (processed "at the
                // end of the main event loop", §3.4).
                for id in self.async_queue.drain() {
                    events += 1;
                    self.resume(id);
                }
            }
            Some(NotifyScheme::Fd) => {
                if let Some(selector) = &self.selector {
                    let ready = selector.poll_ready();
                    for id in ready {
                        events += 1;
                        if let Some(conn) = self.conns.get(&id) {
                            if let Some(fd) = &conn.fd {
                                fd.clear();
                            }
                        }
                        self.resume(id);
                    }
                }
            }
            None => {}
        }
        // 5. Ring-full retries: reschedule paused jobs.
        let mut retries = std::mem::take(&mut self.retry_scratch);
        retries.clear();
        retries.extend(
            self.conns
                .iter()
                .filter(|(_, c)| matches!(c.driver, Driver::Awaiting { retry: true, .. }))
                .map(|(id, _)| *id),
        );
        for &id in &retries {
            events += 1;
            self.stats.retries += 1;
            self.resume(id);
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
        self.plane.update(self.status_snapshot());
        // Anomaly check on a wall-clock cadence: an iteration-count
        // cadence ran 256 sweeps apart, which on a saturated loop could
        // be microseconds and on an idle one could be never-in-time.
        if self.cfg.metrics.enabled && self.cfg.metrics.anomaly_p99_us > 0 {
            let now_ms = qtls_qat::trace::now_ms();
            if now_ms.saturating_sub(self.last_anomaly_check_ms)
                >= self.cfg.metrics.anomaly_interval_ms
            {
                self.last_anomaly_check_ms = now_ms;
                self.plane.check_anomaly();
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
        let peer_addr = sock.peer_addr();
        // Registered before this sweep's readable scan, so bytes that
        // beat the registration are seen there and later ones wake us.
        sock.set_read_waker(Arc::clone(&self.wake));
        // 1-in-N sampling decision — one relaxed fetch_add when tracing
        // is on, one relaxed load when off. A sampled connection's root
        // span opens at backlog entry (if stamped) so the accept wait is
        // inside the connection's wall time.
        let trace = self.plane.trace_sink().sample().map(|conn_id| {
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
        let sampled = trace.is_some();
        self.conns.insert(
            id,
            Conn {
                sock,
                driver: Driver::Idle(ConnCtx {
                    session,
                    http_buf: Vec::new(),
                    codec: None,
                    provider: self.provider(),
                    counters: OpCounters::default(),
                    rng: TestRng::new(self.session_seed ^ 0xda7a_9a7e),
                    wire_out: Vec::new(),
                    record_offload: self.cfg.record_offload,
                    record_batch: self.cfg.record_batch,
                    trace,
                    hs_span: None,
                    serve_span: None,
                }),
                fd: None,
                established: false,
                close_requested: false,
                admitted: !self.cfg.admission.enabled,
                pre_buf: Vec::new(),
                peer_addr,
                sampled,
                gate_start_ns: 0,
                admitted_via: 0,
                await_open: None,
                await_spans: Vec::new(),
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
    /// still open — a pass pending on an offload is dropped with the
    /// context it owns (session, pooled codec buffers, trace), nothing
    /// stays parked anywhere — then drain the submit pipeline (publish
    /// what the ring can take, fail every still-staged request with a
    /// definite `Cancelled` error so no waiter is silently dropped
    /// mid-sweep), and give requests already on the device a bounded
    /// moment to come back so the inflight accounting settles at zero.
    pub fn shutdown(&mut self) {
        let open: Vec<u64> = self.conns.keys().copied().collect();
        for id in open {
            self.remove_conn(id);
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

    /// The admission gate for a connection that has not been admitted:
    /// buffer its first bytes and classify them. Returns `true` when
    /// the connection may proceed into TLS processing this pass.
    fn admission_gate(&mut self, id: u64) -> bool {
        let conn = self.conns.get_mut(&id).expect("caller checked");
        if let Ok(bytes) = conn.sock.read_all() {
            conn.pre_buf.extend_from_slice(&bytes);
        }
        match admission::parse_frame(&conn.pre_buf) {
            FrameParse::Incomplete => {
                if conn.sock.peer_closed() {
                    self.remove_conn(id);
                }
                false
            }
            FrameParse::Malformed
            | FrameParse::Frame {
                kind: admission::FRAME_CHALLENGE,
                ..
            } => {
                // Hostile header, or a frame only servers send.
                self.stats.tokens_rejected += 1;
                self.remove_conn(id);
                false
            }
            FrameParse::Frame {
                token, consumed, ..
            } => {
                let now = admission::coarse_now_secs();
                let ok = self.cfg.tls.ticket_keys.verify_retry_token(
                    &token,
                    conn.peer_addr,
                    now,
                    self.cfg.admission.token_lifetime.as_secs(),
                );
                if !ok {
                    self.stats.tokens_rejected += 1;
                    self.remove_conn(id);
                    return false;
                }
                self.stats.tokens_verified += 1;
                conn.admitted = true;
                conn.admitted_via = 2;
                conn.pre_buf.drain(..consumed);
                true
            }
            FrameParse::NotAFrame => {
                if self.in_overload {
                    // Over the watermark: challenge instead of spending
                    // any asymmetric offload work on this ClientHello.
                    let now = admission::coarse_now_secs();
                    let token = self
                        .cfg
                        .tls
                        .ticket_keys
                        .mint_retry_token(conn.peer_addr, now);
                    let _ = conn.sock.write(&admission::challenge_frame(&token));
                    self.stats.challenges_sent += 1;
                    conn.admitted_via = 1;
                    self.remove_conn(id);
                    return false;
                }
                conn.admitted = true;
                true
            }
        }
    }

    /// Drive a connection that has a usable session.
    fn drive(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if !matches!(conn.driver, Driver::Idle(_)) {
            return; // still awaiting an async event
        }
        if !conn.admitted {
            // Admission round-trip span: opens when the gate first sees
            // the connection, closes when it passes (or in `remove_conn`
            // when it is challenged away).
            if conn.sampled && conn.gate_start_ns == 0 {
                conn.gate_start_ns = obs::now_ns();
            }
            if !self.admission_gate(id) {
                return;
            }
        }
        let conn = self.conns.get_mut(&id).expect("gate keeps admitted conns");
        let Driver::Idle(mut ctx) = std::mem::replace(&mut conn.driver, Driver::Taken) else {
            unreachable!("checked above")
        };
        if let Some(trace) = &mut ctx.trace {
            let now = obs::now_ns();
            if conn.gate_start_ns != 0 {
                trace.add(
                    SpanKind::Admission,
                    conn.gate_start_ns,
                    now,
                    conn.admitted_via,
                    0,
                );
                conn.gate_start_ns = 0;
            }
            if !conn.established {
                if ctx.hs_span.is_none() {
                    ctx.hs_span = Some(trace.begin(SpanKind::Handshake, now));
                }
            } else if ctx.serve_span.is_none() {
                ctx.serve_span = Some(trace.begin(SpanKind::Serve, now));
            }
        }
        // Feed everything readable: first any bytes the admission gate
        // buffered ahead of the handshake, then fresh reads — to the
        // data-plane codec once the connection has handed off, to the
        // handshake session before.
        let pre = std::mem::take(&mut conn.pre_buf);
        if !pre.is_empty() {
            match &mut ctx.codec {
                Some(codec) => codec.feed(&pre),
                None => ctx.session.feed(&pre),
            }
        }
        match conn.sock.read_all() {
            Ok(bytes) => match &mut ctx.codec {
                Some(codec) => codec.feed(&bytes),
                None => ctx.session.feed(&bytes),
            },
            Err(SockError::WouldBlock) | Err(SockError::Closed) => {}
        }
        let content = Arc::clone(&self.cfg.content);
        let plane = Arc::clone(&self.plane);
        let pass: Pass = Box::pin(async move {
            let report = service(&mut ctx, &content, &plane).await;
            (ctx, report)
        });
        let wait = self.pass_wait_ctx(id);
        if self.poll(id, pass, wait, false) {
            self.stats.async_jobs += 1;
        }
    }

    /// The wait context of a new service pass, with this worker's
    /// completion channel registered on it *before* the first poll — so
    /// a response retrieved (by a dedicated poller thread) the instant
    /// after submission is still announced. `None` for the profiles
    /// that never pause (`SW`, `QAT+S`): with no context installed
    /// their offloads block in place and the pass is ready at once.
    fn pass_wait_ctx(&mut self, id: u64) -> Option<Arc<WaitCtx>> {
        let notifier: Arc<dyn Notifier> = match self.cfg.profile.notification()? {
            // SSL_set_async_callback equivalent: the async queue IS the
            // notifier — the response callback delivers the
            // async-handler token (the connection id) straight onto it,
            // no closure indirection.
            NotifyScheme::KernelBypass => Arc::clone(&self.async_queue) as _,
            NotifyScheme::Fd => {
                let conn = self.conns.get_mut(&id).expect("exists");
                // §4.4 optimization: one FD shared across all passes of
                // the same connection.
                let fd = conn.fd.get_or_insert_with(|| {
                    let fd = Arc::new(VirtualFd::new(id));
                    if let Some(sel) = &self.selector {
                        sel.register(Arc::clone(&fd));
                    }
                    fd
                });
                Arc::clone(fd) as _
            }
        };
        let wait = Arc::new(WaitCtx::new());
        wait.set_notifier(notifier, id);
        Some(wait)
    }

    /// Poll a connection's service pass: finish the pass if it resolved,
    /// otherwise park the connection in TLS-ASYNC until its async event.
    /// `saved_read` carries a read event saved while the pass was
    /// pending (§4.2); `None` for `wait` marks a pass that cannot pend.
    /// Returns whether the pass is (still) pending.
    fn poll(
        &mut self,
        id: u64,
        mut pass: Pass,
        wait: Option<Arc<WaitCtx>>,
        saved_read: bool,
    ) -> bool {
        match (poll_pass(wait.as_ref(), pass.as_mut()), wait) {
            (Poll::Ready((ctx, report)), _) => {
                self.finish_service(id, ctx, report);
                // Replay the saved read event (§4.2).
                if saved_read && self.conns.get(&id).is_some_and(|c| c.sock.readable()) {
                    self.drive(id);
                }
                false
            }
            (Poll::Pending, Some(wait)) => {
                let conn = self.conns.get_mut(&id).expect("exists");
                if conn.sampled {
                    conn.await_open = Some((obs::now_ns(), wait.submit_info()));
                }
                let retry = wait.take_retry();
                conn.driver = Driver::Awaiting {
                    pass,
                    wait,
                    saved_read,
                    retry,
                };
                true
            }
            (Poll::Pending, None) => {
                // Without a task context every offload waits in place,
                // so this is unreachable; fail the connection rather
                // than the worker if it ever is not.
                self.stats.errors += 1;
                self.remove_conn(id);
                false
            }
        }
    }

    /// Resume a pending service pass (post-processing phase).
    fn resume(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let Driver::Awaiting {
            pass,
            wait,
            saved_read,
            ..
        } = std::mem::replace(&mut conn.driver, Driver::Taken)
        else {
            return;
        };
        // Close the offload-wait interval at the moment the notification
        // is acted on — submit → notify → resume is the paper's async
        // round trip, and it all happened while the pass owned the ctx.
        if conn.sampled {
            if let Some((start, info)) = conn.await_open.take() {
                let (shard, path) = info.unwrap_or((0, 0));
                conn.await_spans
                    .push((start, obs::now_ns(), u64::from(shard), path));
            }
        }
        self.stats.resumptions += 1;
        self.poll(id, pass, Some(wait), saved_read);
    }

    /// Post-service bookkeeping: flush output, update stats, close.
    fn finish_service(&mut self, id: u64, mut ctx: ConnCtx, report: ServiceReport) {
        let out = ctx.session.take_output();
        let wire = std::mem::take(&mut ctx.wire_out);
        let conn = self.conns.get_mut(&id).expect("exists");
        if !out.is_empty() {
            let _ = conn.sock.write(&out);
        }
        if !wire.is_empty() {
            let _ = conn.sock.write(&wire);
        }
        // Fold the pass's offload waits into the trace (they become
        // children of whichever control-plane span is still open), then
        // close the spans this pass resolved.
        if let Some(trace) = &mut ctx.trace {
            for (start, end, shard, path) in conn.await_spans.drain(..) {
                trace.add(SpanKind::OffloadWait, start, end, shard, path);
            }
            let now = obs::now_ns();
            if report.handshake_done {
                if let Some(hs) = ctx.hs_span.take() {
                    let resume_tag = if report.resumed {
                        1
                    } else if report.resume_miss {
                        2
                    } else {
                        0
                    };
                    trace.end_annotated(hs, now, resume_tag, u64::from(report.handoff));
                }
            }
            if let Some(sv) = ctx.serve_span.take() {
                trace.end_annotated(sv, now, report.requests, report.bytes_sent);
            }
        }
        if report.handoff {
            self.stats.record_handoffs += 1;
        }
        if report.handshake_done {
            self.stats.handshakes += 1;
            if report.resumed {
                self.stats.resumed += 1;
            }
            if report.resume_miss {
                self.stats.resume_miss += 1;
            }
            conn.established = true;
        }
        self.stats.requests += report.requests;
        self.stats.bytes_sent += report.bytes_sent;
        self.stats.bytes_received += report.bytes_received;
        if report.error.is_some() {
            self.stats.errors += 1;
        }
        conn.driver = Driver::Idle(ctx);
        if report.close || conn.close_requested {
            self.remove_conn(id);
        }
    }

    fn remove_conn(&mut self, id: u64) {
        if let Some(mut conn) = self.conns.remove(&id) {
            if let (Some(fd), Some(sel)) = (&conn.fd, &self.selector) {
                sel.deregister(fd.id);
            }
            // Publish the connection's span tree on teardown — the only
            // point where the tree is guaranteed complete. Challenged or
            // errored connections publish partial trees, which is the
            // point: the gate's work is visible even when nothing else
            // happened.
            if conn.sampled {
                let now = obs::now_ns();
                let trace = match &mut conn.driver {
                    Driver::Idle(ctx) => ctx.trace.take(),
                    // Torn down mid-offload: the pending pass owns the
                    // ctx (and its trace) and is dropped with the
                    // connection; nothing to publish.
                    _ => None,
                };
                if let Some(mut trace) = trace {
                    if let Some((start, info)) = conn.await_open.take() {
                        let (shard, path) = info.unwrap_or((0, 0));
                        conn.await_spans.push((start, now, u64::from(shard), path));
                    }
                    for (start, end, shard, path) in conn.await_spans.drain(..) {
                        trace.add(SpanKind::OffloadWait, start, end, shard, path);
                    }
                    if conn.gate_start_ns != 0 {
                        trace.add(
                            SpanKind::Admission,
                            conn.gate_start_ns,
                            now,
                            conn.admitted_via,
                            0,
                        );
                    }
                    self.plane.trace_sink().publish(trace, now);
                }
            }
            conn.sock.close();
            self.stats.closed += 1;
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Idempotent: a second drain on an empty queue is a no-op, so an
        // explicit `shutdown()` followed by drop is fine.
        self.shutdown();
    }
}
