//! A connection is one long-lived task: an `async fn` future, boxed once
//! at accept, that owns its socket handle, TLS session, record codec,
//! HTTP buffer and span trace from first byte to close and loops *await
//! input → feed → service → write out → report*. The
//! [`worker`](crate::worker) is its executor.
//!
//! The paper's §4.2 additions to the TLS state machine fall out of this
//! shape: the **TLS-ASYNC state** is the task being parked on an
//! offload's `.await` rather than on [`input`], and a read that lands
//! meanwhile waits in the socket until the task comes round to
//! [`input`] again — nothing is saved, nothing replayed. Teardown at any
//! instant is a drop of the future, which publishes the span tree.

use crate::admission::{self, FrameParse};
use crate::http::{self, ContentStore, ParseOutcome};
use crate::metrics::MetricsPlane;
use crate::net::VSocket;
use crate::worker::{WorkerConfig, WorkerStats};
use qtls_core::current_wait_ctx;
use qtls_core::obs::{self, ConnTrace, SpanKind};
use qtls_crypto::TestRng;
use qtls_sync::Mutex;
use qtls_tls::any_session::AnyServerSession;
use qtls_tls::provider::{CryptoProvider, OpCounters};
use qtls_tls::record::RecordCodec;
use qtls_tls::TlsError;
use std::future::{poll_fn, Future};
use std::pin::pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::Poll;

/// What a service pass works on: the TLS session plus the connection's
/// HTTP parsing state and, once the handshake control plane has handed
/// off, the batched data-plane record codec.
pub(crate) struct ConnCtx {
    pub session: Box<AnyServerSession>,
    pub http_buf: Vec<u8>,
    /// The data-plane codec; `Some` after the post-Finished handoff.
    pub codec: Option<RecordCodec>,
    /// Provider + counters the data plane seals/opens through (the
    /// handshake session keeps its own for control-plane ops).
    pub provider: CryptoProvider,
    pub counters: OpCounters,
    pub rng: TestRng,
    /// Wire records sealed by the codec this pass, written to the
    /// socket when the pass ends.
    pub wire_out: Vec<u8>,
    pub record_batch: usize,
    /// The connection's span tree when it was sampled for tracing;
    /// `None` (no allocation, no clock reads) otherwise.
    pub trace: Option<ConnTrace>,
}

/// Result of one service pass over a connection.
#[derive(Default)]
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

/// Run the TLS state machine + HTTP layer over whatever input has been
/// fed. Every crypto call inside is awaited, so under the async profiles
/// the pass is pending wherever an offload is in flight. A TLS error
/// ends the pass and the connection (a span the failed step left open
/// closes with its parent).
async fn service(ctx: &mut ConnCtx, content: &ContentStore, plane: &MetricsPlane) -> ServiceReport {
    let mut report = ServiceReport::default();
    if let Err(e) = serve(ctx, content, plane, &mut report).await {
        report.error = Some(e);
        report.close = true;
    }
    report
}

async fn serve(
    ctx: &mut ConnCtx,
    content: &ContentStore,
    plane: &MetricsPlane,
    report: &mut ServiceReport,
) -> Result<(), TlsError> {
    let codec = match &mut ctx.codec {
        Some(codec) => codec,
        None => {
            let was_established = ctx.session.is_established();
            ctx.session.process_async().await?;
            if !ctx.session.is_established() {
                return Ok(());
            }
            if !was_established {
                report.handshake_done = true;
                report.resumed = ctx.session.was_resumed();
                report.resume_miss = ctx.session.resume_missed();
            }
            // Application data the handshake session decrypted before
            // the handoff (e.g. a request pipelined behind Finished).
            while let Some(chunk) = ctx.session.read_app_data() {
                report.bytes_received += chunk.len() as u64;
                ctx.http_buf.extend_from_slice(&chunk);
            }
            // Control plane → data plane: once established, the
            // handshake session exports its record secrets (sequence
            // spaces included) and the batched codec owns record
            // protection from here on.
            let (secrets, leftover) = ctx.session.extract_secrets()?;
            report.handoff = true;
            ctx.codec
                .insert(RecordCodec::new(secrets, leftover, ctx.record_batch))
        }
    };
    let mut plain = Vec::new();
    let open_span = ctx
        .trace
        .as_mut()
        .map(|t| t.begin(SpanKind::RecordOpen, obs::now_ns()));
    let records = codec
        .open_into_async(&mut plain, &ctx.provider, &mut ctx.counters)
        .await?;
    if let (Some(trace), Some(id)) = (&mut ctx.trace, open_span) {
        trace.end_annotated(id, obs::now_ns(), records as u64, plain.len() as u64);
    }
    report.bytes_received += plain.len() as u64;
    ctx.http_buf.extend_from_slice(&plain);
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
                // Stage now, seal the whole pass as one scatter-gather
                // batch below.
                codec.stage(&resp);
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
    if codec.staged_bytes() > 0 {
        let wire_before = ctx.wire_out.len();
        let seal_span = ctx
            .trace
            .as_mut()
            .map(|t| t.begin(SpanKind::RecordSeal, obs::now_ns()));
        let records = codec
            .flush_into_async(
                &mut ctx.wire_out,
                &ctx.provider,
                &mut ctx.counters,
                &mut ctx.rng,
            )
            .await?;
        if let (Some(trace), Some(id)) = (&mut ctx.trace, seal_span) {
            let sealed = (ctx.wire_out.len() - wire_before) as u64;
            trace.end_annotated(id, obs::now_ns(), records as u64, sealed);
        }
    }
    Ok(())
}

/// What a worker's connection tasks share with it.
pub(crate) struct TaskEnv {
    pub cfg: Arc<WorkerConfig>,
    pub plane: Arc<MetricsPlane>,
    /// Inflight handshakes crossed the admission watermark last sweep.
    pub in_overload: AtomicBool,
}

/// A connection task's side of its conversation with the worker:
/// written while the task is polled, read by the worker right after.
#[derive(Default)]
pub(crate) struct Progress {
    /// The task is parked on its socket — the one place it can be
    /// polled for readable input — rather than on an offload.
    pub awaiting_input: bool,
    /// The task-side counters of [`WorkerStats`], as deltas since the
    /// worker last folded them in.
    pub stats: WorkerStats,
}

/// Span bookkeeping a traced connection keeps beside the trace itself,
/// which the pass in flight borrows.
#[derive(Default)]
pub(crate) struct Spans {
    /// Open handshake span, until the flight that completes it.
    handshake: Option<u32>,
    /// When the admission gate first engaged (0 = not measuring).
    gate_start_ns: u64,
    /// How the gate resolved: 0 passed, 1 challenged, 2 token verified.
    admitted_via: u64,
    /// Open offload wait: (start, engine submit annotation).
    wait_open: Option<(u64, Option<(u32, u64)>)>,
    /// Closed offload waits of the pass in flight — (start, end, shard,
    /// path) — folded into the trace when the pass ends, as children of
    /// whichever control-plane span is open.
    waits: Vec<(u64, u64, u64, u64)>,
}

impl Spans {
    fn close_wait(&mut self, now: u64) {
        if let Some((start, info)) = self.wait_open.take() {
            let (shard, path) = info.unwrap_or((0, 0));
            self.waits.push((start, now, u64::from(shard), path));
        }
    }

    fn fold_waits(&mut self, trace: &mut ConnTrace) {
        for (start, end, shard, path) in self.waits.drain(..) {
            trace.add(SpanKind::OffloadWait, start, end, shard, path);
        }
    }
}

/// Park the calling task on `sock` until it has bytes to read, telling
/// the worker so through `progress`.
async fn input(sock: &VSocket, progress: &Mutex<Progress>) {
    poll_fn(|_| {
        let readable = sock.readable();
        progress.lock().awaiting_input = !readable;
        if readable {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    })
    .await
}

/// One accepted socket from first byte to close: the state its task
/// ([`Connection::run`]) owns. Dropping it — the task finished, or the
/// worker tore the connection down wherever it was parked — publishes
/// the span tree.
pub(crate) struct Connection {
    pub sock: Arc<VSocket>,
    pub env: Arc<TaskEnv>,
    pub progress: Arc<Mutex<Progress>>,
    pub ctx: ConnCtx,
    pub spans: Spans,
}

impl Connection {
    /// The connection's life: pass the admission gate, then *await
    /// input → feed → service → write out → report* until a pass says
    /// close. Returning closes the connection.
    pub async fn run(mut self) {
        if self.env.cfg.admission.enabled {
            if !self.admit().await {
                return;
            }
        } else {
            input(&self.sock, &self.progress).await;
        }
        loop {
            // To the data-plane codec once the connection has handed
            // off, to the handshake session before.
            if let Ok(bytes) = self.sock.read_all() {
                match &mut self.ctx.codec {
                    Some(codec) => codec.feed(&bytes),
                    None => self.ctx.session.feed(&bytes),
                }
            }
            let mut serve_span = None;
            if let Some(trace) = &mut self.ctx.trace {
                let now = obs::now_ns();
                if self.ctx.codec.is_some() {
                    serve_span = Some(trace.begin(SpanKind::Serve, now));
                } else if self.spans.handshake.is_none() {
                    self.spans.handshake = Some(trace.begin(SpanKind::Handshake, now));
                }
            }
            let report = self.pass().await;
            let out = self.ctx.session.take_output();
            if !out.is_empty() {
                let _ = self.sock.write(&out);
            }
            let wire = std::mem::take(&mut self.ctx.wire_out);
            if !wire.is_empty() {
                let _ = self.sock.write(&wire);
            }
            // Fold the pass's offload waits into the trace, then close
            // the spans this pass resolved.
            if let Some(trace) = &mut self.ctx.trace {
                self.spans.fold_waits(trace);
                let now = obs::now_ns();
                if let (true, Some(hs)) = (report.handshake_done, self.spans.handshake) {
                    let resume_tag = if report.resumed {
                        1
                    } else if report.resume_miss {
                        2
                    } else {
                        0
                    };
                    trace.end_annotated(hs, now, resume_tag, u64::from(report.handoff));
                    self.spans.handshake = None;
                }
                if let Some(sv) = serve_span {
                    trace.end_annotated(sv, now, report.requests, report.bytes_sent);
                }
            }
            {
                let mut progress = self.progress.lock();
                let stats = &mut progress.stats;
                stats.record_handoffs += u64::from(report.handoff);
                stats.handshakes += u64::from(report.handshake_done);
                stats.resumed += u64::from(report.resumed);
                stats.resume_miss += u64::from(report.resume_miss);
                stats.requests += report.requests;
                stats.bytes_sent += report.bytes_sent;
                stats.bytes_received += report.bytes_received;
                stats.errors += u64::from(report.error.is_some());
            }
            if report.close {
                return;
            }
            input(&self.sock, &self.progress).await;
        }
    }

    /// One service pass, polled to completion. A pass that pends is an
    /// offload job, counted when it first does; around each pending
    /// stretch a traced connection measures the offload wait — from the
    /// poll that returned `Pending` to the poll its waker brought
    /// about: submit → notify → resume, the paper's async round trip.
    async fn pass(&mut self) -> ServiceReport {
        let sampled = self.ctx.trace.is_some();
        let (spans, progress) = (&mut self.spans, &self.progress);
        let mut service = pin!(service(
            &mut self.ctx,
            &self.env.cfg.content,
            &self.env.plane
        ));
        let mut pended = false;
        poll_fn(|cx| {
            if sampled {
                spans.close_wait(obs::now_ns());
            }
            let polled = service.as_mut().poll(cx);
            if polled.is_pending() {
                if !std::mem::replace(&mut pended, true) {
                    progress.lock().stats.async_jobs += 1;
                }
                if sampled {
                    let submit = current_wait_ctx().and_then(|wait| wait.submit_info());
                    spans.wait_open = Some((obs::now_ns(), submit));
                }
            }
            polled
        })
        .await
    }

    /// The admission gate: buffer the connection's first bytes and
    /// classify them. Returns `true` once the connection may proceed
    /// into TLS processing, with whatever followed the frame fed to the
    /// session; `false` turns it away.
    async fn admit(&mut self) -> bool {
        let mut pre_buf = Vec::new();
        loop {
            input(&self.sock, &self.progress).await;
            // Admission round-trip span: opens when the gate first sees
            // the connection, closes when it passes (or at teardown when
            // it is challenged away).
            if self.ctx.trace.is_some() && self.spans.gate_start_ns == 0 {
                self.spans.gate_start_ns = obs::now_ns();
            }
            if let Ok(bytes) = self.sock.read_all() {
                pre_buf.extend_from_slice(&bytes);
            }
            let tls = &self.env.cfg.tls;
            let peer_addr = self.sock.peer_addr();
            let consumed = match admission::parse_frame(&pre_buf) {
                FrameParse::Incomplete => {
                    if self.sock.peer_closed() {
                        return false;
                    }
                    continue;
                }
                FrameParse::Malformed
                | FrameParse::Frame {
                    kind: admission::FRAME_CHALLENGE,
                    ..
                } => {
                    // Hostile header, or a frame only servers send.
                    self.progress.lock().stats.tokens_rejected += 1;
                    return false;
                }
                FrameParse::Frame {
                    token, consumed, ..
                } => {
                    let ok = tls.ticket_keys.verify_retry_token(
                        &token,
                        peer_addr,
                        admission::coarse_now_secs(),
                        self.env.cfg.admission.token_lifetime.as_secs(),
                    );
                    if !ok {
                        self.progress.lock().stats.tokens_rejected += 1;
                        return false;
                    }
                    self.progress.lock().stats.tokens_verified += 1;
                    self.spans.admitted_via = 2;
                    consumed
                }
                FrameParse::NotAFrame => {
                    if self.env.in_overload.load(Ordering::Relaxed) {
                        // Over the watermark: challenge instead of
                        // spending any asymmetric offload work on this
                        // ClientHello.
                        let token = tls
                            .ticket_keys
                            .mint_retry_token(peer_addr, admission::coarse_now_secs());
                        let _ = self.sock.write(&admission::challenge_frame(&token));
                        self.progress.lock().stats.challenges_sent += 1;
                        self.spans.admitted_via = 1;
                        return false;
                    }
                    0
                }
            };
            if let Some(trace) = &mut self.ctx.trace {
                trace.add(
                    SpanKind::Admission,
                    self.spans.gate_start_ns,
                    obs::now_ns(),
                    self.spans.admitted_via,
                    0,
                );
                self.spans.gate_start_ns = 0;
            }
            self.ctx.session.feed(&pre_buf[consumed..]);
            return true;
        }
    }
}

impl Drop for Connection {
    /// Publish the span tree at teardown — the only point where it is
    /// guaranteed complete. Challenged, errored or torn-down-mid-offload
    /// connections publish partial trees, which is the point: the open
    /// offload wait and the gate's work end at the teardown instant.
    fn drop(&mut self) {
        let Some(mut trace) = self.ctx.trace.take() else {
            return;
        };
        let now = obs::now_ns();
        self.spans.close_wait(now);
        self.spans.fold_waits(&mut trace);
        if self.spans.gate_start_ns != 0 {
            trace.add(
                SpanKind::Admission,
                self.spans.gate_start_ns,
                now,
                self.spans.admitted_via,
                0,
            );
        }
        self.env.plane.trace_sink().publish(trace, now);
    }
}
