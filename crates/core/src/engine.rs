//! The QAT Engine layer (paper §3.2, §4.3): the bridge between the TLS
//! library and the QAT driver, structured as an explicit pipeline of
//! three stages composed per shard by [`OffloadEngine`]:
//!
//! - [`SubmitStage`] — cookie allocation, inflight accounting and
//!   request submission, either immediate (one doorbell per request) or
//!   staged through an attached [`SubmitQueue`] and flushed in one
//!   batch at the event-loop sweep boundary. Owns the single shared
//!   [`Backpressure`] policy every ring-full retry goes through.
//! - [`RetrieveStage`] — response retrieval (polling) over the same
//!   ring pair.
//! - the notify stage — wraps completion delivery (inflight decrement +
//!   [`crate::wait_ctx::WaitCtx::complete`], which wakes the registered
//!   waker) into the device response callback.
//!
//! An engine is a *set of shards*: each shard owns one
//! [`CryptoInstance`] (one ring pair, ideally on its own endpoint) plus
//! its own submit/retrieve/notify stages and optional submit queue, and
//! a round-robin cursor places every offload on one shard. A
//! single-instance engine ([`OffloadEngine::new`]) is simply the
//! one-shard special case and behaves exactly as before; multi-shard
//! engines ([`OffloadEngine::sharded`]) scale a worker's offload path
//! past one ring pair.
//!
//! Every offload — a single op is a batch of one — is ONE poll-style
//! step ([`Offload`]): the first call places the batch on the shards, a
//! chunk per shard, and stages or publishes every chunk; later calls
//! take the parked results or stay pending, and a full ring raises the
//! wait context's retry flag. Three drivers turn the step's `Pending`
//! into a wait, chosen from what the caller can do:
//!
//! - a polled **task** ([`crate::task`], the production path of the
//!   async profiles) returns `Pending` to the event loop — the paper's
//!   "crypto pause" as a plain return, the resume a plain call;
//! - a legacy **fiber** job ([`crate::fiber`], ablation only) calls
//!   `pause_job()`;
//! - a **blocking** caller (straight offload `QAT+S`, or async mode
//!   with no task to return to) waits in place — reproducing the
//!   offload-I/O blocking pathology of §2.4 — polling the shard itself,
//!   or parking until an attached external poller delivers.
//!
//! The per-class inflight counters `R_asym`, `R_cipher`, `R_prf` are
//! maintained "with a new engine command" for the heuristic polling
//! scheme; sharded engines keep the engine-wide aggregate *and* a
//! per-shard total so shard-aware polling sees each ring's own load.

use crate::fiber;
use crate::obs::{self, EngineObs, EventKind, Phase, ShardObs};
use crate::pipeline::{Backpressure, DrainReport, FlushReport, SubmitContext, SubmitQueue};
use crate::task;
use crate::wait_ctx::WaitCtx;
use qtls_crypto::CryptoError;
use qtls_qat::{
    make_request, CryptoInstance, CryptoOp, CryptoOutput, CryptoRequest, CryptoResult, OpClass,
    ResponseCallback,
};
use qtls_sync::{Mutex, Parker};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

/// Inflight request counters (paper §4.3: collected in the QAT Engine
/// layer "for accuracy"). On a sharded engine this is the engine-wide
/// aggregate; per-shard totals live in the shards themselves.
#[derive(Debug, Default)]
pub struct InflightCounters {
    /// Inflight asymmetric requests.
    pub asym: AtomicU64,
    /// Inflight cipher requests.
    pub cipher: AtomicU64,
    /// Inflight PRF requests.
    pub prf: AtomicU64,
}

impl InflightCounters {
    fn counter(&self, class: OpClass) -> &AtomicU64 {
        match class {
            OpClass::Asym => &self.asym,
            OpClass::Cipher => &self.cipher,
            OpClass::Prf => &self.prf,
        }
    }

    /// `R_total = R_asym + R_cipher + R_prf`.
    pub fn total(&self) -> u64 {
        self.asym.load(Ordering::Relaxed)
            + self.cipher.load(Ordering::Relaxed)
            + self.prf.load(Ordering::Relaxed)
    }

    /// `R_asym` (selects the bigger heuristic threshold when non-zero).
    pub fn asym_inflight(&self) -> u64 {
        self.asym.load(Ordering::Relaxed)
    }
}

/// Per-shard inflight tallies: the shard-aware poller's "does this ring
/// have pending work" test and its per-ring efficiency threshold.
#[derive(Debug, Default)]
struct ShardInflight {
    total: AtomicU64,
    asym: AtomicU64,
}

impl ShardInflight {
    fn inc(&self, class: OpClass) {
        self.total.fetch_add(1, Ordering::Relaxed);
        if class == OpClass::Asym {
            self.asym.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn dec(&self, class: OpClass) {
        self.total.fetch_sub(1, Ordering::Relaxed);
        if class == OpClass::Asym {
            self.asym.fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    fn asym(&self) -> u64 {
        self.asym.load(Ordering::Relaxed)
    }
}

/// How `offload` behaves for the submitting caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineMode {
    /// Straight offload: the caller blocks until the response arrives
    /// (QAT+S). Responses are retrieved by whatever poller is attached;
    /// absent one, the caller polls the instance itself.
    Blocking,
    /// Asynchronous offload: the step answers `Pending` to the task (or
    /// pauses the fiber job) that reached it; the next poll delivers
    /// the result (QAT+A / QAT+AH / QTLS).
    Async,
}

/// The submission stage of one shard of the offload pipeline: cookies,
/// inflight accounting, immediate or queued (batched) submission, and
/// the shared ring-full [`Backpressure`] policy.
pub struct SubmitStage {
    instance: CryptoInstance,
    /// Engine-wide aggregate counters (shared by every shard).
    counters: Arc<InflightCounters>,
    /// This shard's own tallies.
    shard: Arc<ShardInflight>,
    /// Engine-wide cookie allocator: cookies stay unique across shards.
    next_cookie: Arc<AtomicU64>,
    backpressure: Backpressure,
    /// When attached, async submissions are staged here and published
    /// in one batch by `flush` at the sweep boundary.
    queue: Mutex<Option<Arc<SubmitQueue>>>,
    /// Total submission retries due to a full request ring.
    ring_full_retries: AtomicU64,
}

impl SubmitStage {
    fn new(
        instance: CryptoInstance,
        counters: Arc<InflightCounters>,
        shard: Arc<ShardInflight>,
        next_cookie: Arc<AtomicU64>,
    ) -> Self {
        SubmitStage {
            instance,
            counters,
            shard,
            next_cookie,
            backpressure: Backpressure::default(),
            queue: Mutex::new(None),
            ring_full_retries: AtomicU64::new(0),
        }
    }

    fn next_cookie(&self) -> u64 {
        self.next_cookie.fetch_add(1, Ordering::Relaxed)
    }

    /// Account a request as inflight the moment it enters the pipeline.
    fn begin(&self, class: OpClass) {
        self.counters.counter(class).fetch_add(1, Ordering::Relaxed);
        self.shard.inc(class);
    }

    fn attached_queue(&self) -> Option<Arc<SubmitQueue>> {
        self.queue.lock().clone()
    }

    /// Sweep-boundary flush of the attached queue: publish everything
    /// staged under one doorbell.
    fn flush(&self) -> FlushReport {
        match self.attached_queue() {
            Some(queue) => queue.flush(&self.instance),
            None => FlushReport::default(),
        }
    }
}

/// The retrieval stage of one shard of the offload pipeline: response
/// polling over the instance's response ring (callbacks run inline).
pub struct RetrieveStage {
    instance: CryptoInstance,
}

impl RetrieveStage {
    /// Retrieve up to `max` responses; returns the number retrieved.
    pub fn poll(&self, max: usize) -> usize {
        self.instance.poll(max)
    }

    /// Drain all available responses.
    pub fn poll_all(&self) -> usize {
        self.instance.poll_all()
    }
}

/// The notify stage of one shard of the offload pipeline: builds the
/// device response callback that pairs the inflight decrements
/// (aggregate + shard) with completion delivery (parking the result and
/// waking the registered waker).
struct NotifyStage {
    counters: Arc<InflightCounters>,
    shard: Arc<ShardInflight>,
    /// This shard's phase histograms (notification phase is measured
    /// here, inside the response callback).
    obs: Arc<ShardObs>,
}

impl NotifyStage {
    /// Response callback for member `index` of an offload step: undo
    /// the inflight accounting and fill the member's slot; the LAST
    /// completion (submitted, deferred or cancelled) parks the batch
    /// marker on the step's wait context, which wakes its waker — so
    /// a whole batch costs one crypto pause. With metrics on, the
    /// notification phase (marker parked + waker woken) is recorded
    /// here and the fire time is stamped on the wait context for the
    /// post-processing phase.
    fn completion(
        &self,
        collector: Arc<BatchCollector>,
        index: usize,
        ctx: Arc<WaitCtx>,
        class: OpClass,
    ) -> ResponseCallback {
        let counters = Arc::clone(&self.counters);
        let shard = Arc::clone(&self.shard);
        let obs = Arc::clone(&self.obs);
        Box::new(move |result| {
            counters.counter(class).fetch_sub(1, Ordering::Relaxed);
            shard.dec(class);
            if !collector.fill(index, result) {
                return;
            }
            let done = Ok(CryptoOutput::Bytes(Vec::new()));
            if obs.enabled() {
                let t0 = obs::now_ns();
                ctx.complete(done);
                let t1 = obs::now_ns();
                obs.record(Phase::Notify, class, t1 - t0);
                ctx.set_notified_ns(t1);
            } else {
                ctx.complete(done);
            }
        })
    }
}

/// One shard: a crypto instance plus its pipeline stages.
struct Shard {
    /// Position within the engine (flight-event labelling).
    index: u32,
    submit: SubmitStage,
    retrieve: RetrieveStage,
    notify: NotifyStage,
    inflight: Arc<ShardInflight>,
    /// This shard's phase histograms (shared with the notify stage and
    /// installed as the device retrieve hook when metrics are enabled).
    obs: Arc<ShardObs>,
}

/// The offload engine of one worker: one or more shards, each a thin
/// composition of the submit, retrieve and notify stages bound to its
/// own crypto instance, taken in turn by a round-robin cursor.
pub struct OffloadEngine {
    shards: Vec<Shard>,
    /// Round-robin placement cursor (counts multi-shard placements).
    next_shard: AtomicUsize,
    counters: Arc<InflightCounters>,
    mode: EngineMode,
    /// Whether a dedicated polling thread retrieves responses (affects
    /// only the blocking path's self-polling decision).
    has_external_poller: AtomicU64,
    /// The observability plane: per-shard phase histograms plus the
    /// flight recorder. Disabled (one relaxed load per touch point)
    /// until [`Self::enable_metrics`].
    obs: EngineObs,
}

impl OffloadEngine {
    /// Create a single-shard engine over `instance` in the given mode.
    pub fn new(instance: CryptoInstance, mode: EngineMode) -> Self {
        Self::sharded(vec![instance], mode)
    }

    /// Create an engine sharded over `instances` (one shard per
    /// instance), placing offloads on them in rotation.
    ///
    /// # Panics
    ///
    /// Panics if `instances` is empty.
    pub fn sharded(instances: Vec<CryptoInstance>, mode: EngineMode) -> Self {
        assert!(!instances.is_empty(), "engine needs at least one instance");
        let counters = Arc::new(InflightCounters::default());
        let next_cookie = Arc::new(AtomicU64::new(1));
        let obs = EngineObs::new(instances.len());
        let shards = instances
            .into_iter()
            .enumerate()
            .map(|(i, instance)| {
                let inflight = Arc::new(ShardInflight::default());
                let shard_obs = Arc::clone(obs.shard(i));
                Shard {
                    index: i as u32,
                    submit: SubmitStage::new(
                        instance.clone(),
                        Arc::clone(&counters),
                        Arc::clone(&inflight),
                        Arc::clone(&next_cookie),
                    ),
                    retrieve: RetrieveStage { instance },
                    notify: NotifyStage {
                        counters: Arc::clone(&counters),
                        shard: Arc::clone(&inflight),
                        obs: Arc::clone(&shard_obs),
                    },
                    inflight,
                    obs: shard_obs,
                }
            })
            .collect();
        OffloadEngine {
            shards,
            next_shard: AtomicUsize::new(0),
            counters,
            mode,
            has_external_poller: AtomicU64::new(0),
            obs,
        }
    }

    /// Pick the shard for an op of `class`: the next one in rotation.
    /// Multi-shard placements are logged to the flight recorder while
    /// metrics are enabled.
    fn route(&self, class: OpClass) -> &Shard {
        let n = self.shards.len();
        if n == 1 {
            return &self.shards[0];
        }
        let idx = self.next_shard.fetch_add(1, Ordering::Relaxed) % n;
        self.obs.recorder().record(
            EventKind::RouterDecision,
            idx as u32,
            obs::class_index(class) as u64,
            0,
        );
        &self.shards[idx]
    }

    /// The engine's observability plane.
    pub fn obs(&self) -> &EngineObs {
        &self.obs
    }

    /// Turn the observability plane on: enables device-descriptor
    /// tracing (process-wide), installs this engine's shard observers
    /// as the device retrieve hooks, enables the histograms and flight
    /// recorder, and wires already-attached submit queues to the
    /// recorder. Queues attached later are wired by
    /// [`Self::attach_shard_submit_queue`].
    pub fn enable_metrics(&self) {
        qtls_qat::trace::set_tracing(true);
        self.obs.set_enabled(true);
        for shard in &self.shards {
            shard
                .submit
                .instance
                .set_retrieve_hook(Arc::clone(&shard.obs) as Arc<dyn qtls_qat::RetrieveHook>);
            if let Some(queue) = shard.submit.attached_queue() {
                queue.set_flight_recorder(Arc::clone(self.obs.recorder()), shard.index);
            }
        }
    }

    /// Declare that an external polling thread is attached (the blocking
    /// path then waits instead of polling the rings itself).
    pub fn set_external_poller(&self, attached: bool) {
        self.has_external_poller
            .store(attached as u64, Ordering::Relaxed);
    }

    /// Number of shards (crypto instances) backing this engine.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard 0's crypto instance (single-shard engines: *the* instance).
    pub fn instance(&self) -> &CryptoInstance {
        &self.shards[0].submit.instance
    }

    /// The crypto instance backing shard `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= shard_count()`.
    pub fn shard_instance(&self, i: usize) -> &CryptoInstance {
        &self.shards[i].submit.instance
    }

    /// Shard `i`'s inflight request total.
    ///
    /// # Panics
    ///
    /// Panics if `i >= shard_count()`.
    pub fn shard_inflight(&self, i: usize) -> u64 {
        self.shards[i].inflight.total()
    }

    /// Shard `i`'s inflight asymmetric-request count.
    ///
    /// # Panics
    ///
    /// Panics if `i >= shard_count()`.
    pub fn shard_asym_inflight(&self, i: usize) -> u64 {
        self.shards[i].inflight.asym()
    }

    /// Engine mode.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// The aggregate inflight counters ("new engine command" of §4.3).
    pub fn inflight(&self) -> &InflightCounters {
        &self.counters
    }

    /// Total submission retries due to a full request ring, summed over
    /// shards.
    pub fn ring_full_retries(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.submit.ring_full_retries.load(Ordering::Relaxed))
            .sum()
    }

    /// Shard 0's retrieval stage (for pollers that want it by name).
    pub fn retrieve_stage(&self) -> &RetrieveStage {
        &self.shards[0].retrieve
    }

    /// Attach a per-worker submit queue to shard 0: async submissions
    /// placed on that shard are staged on it and published in one batch
    /// by [`Self::flush_submissions`] at the event-loop sweep boundary.
    /// Blocking offloads keep submitting immediately — a blocked caller
    /// cannot also be the flusher. Multi-shard engines attach one queue
    /// per shard via [`Self::attach_shard_submit_queue`].
    pub fn attach_submit_queue(&self, queue: Arc<SubmitQueue>) {
        self.attach_shard_submit_queue(0, queue);
    }

    /// Attach a submit queue to shard `i` (each shard stages and
    /// flushes its own ring independently).
    ///
    /// # Panics
    ///
    /// Panics if `i >= shard_count()`.
    pub fn attach_shard_submit_queue(&self, i: usize, queue: Arc<SubmitQueue>) {
        if self.obs.enabled() {
            queue.set_flight_recorder(Arc::clone(self.obs.recorder()), i as u32);
        }
        *self.shards[i].submit.queue.lock() = Some(queue);
    }

    /// Shard 0's attached submit queue, if any.
    pub fn submit_queue(&self) -> Option<Arc<SubmitQueue>> {
        self.shards[0].submit.attached_queue()
    }

    /// Shard `i`'s attached submit queue, if any.
    ///
    /// # Panics
    ///
    /// Panics if `i >= shard_count()`.
    pub fn shard_submit_queue(&self, i: usize) -> Option<Arc<SubmitQueue>> {
        self.shards[i].submit.attached_queue()
    }

    /// Sweep-boundary flush of every shard's attached submit queue
    /// (no-op for shards without one). Called by the worker at the end
    /// of each event-loop iteration: everything staged is published.
    pub fn flush_submissions(&self) -> FlushReport {
        let mut total = FlushReport::default();
        for shard in &self.shards {
            let report = shard.submit.flush();
            total.submitted += report.submitted;
            total.deferred += report.deferred;
        }
        total
    }

    /// Shutdown drain of every shard's attached submit queue: publish
    /// what each ring will take, then fail everything still staged with
    /// [`CryptoError::Cancelled`] so no waiter is silently dropped
    /// mid-sweep. No-op for shards without a queue; idempotent.
    pub fn drain_submit_queue(&self) -> DrainReport {
        let mut total = DrainReport::default();
        for shard in &self.shards {
            let Some(queue) = shard.submit.attached_queue() else {
                continue;
            };
            let report = queue.flush(&shard.submit.instance);
            let cancelled = queue.drain_failing(CryptoError::Cancelled);
            total.flushed += report.submitted;
            total.cancelled += cancelled;
        }
        total
    }

    /// Poll the shards in order, retrieving up to `max` responses in
    /// total (callbacks run inline). Returns the number retrieved.
    pub fn poll(&self, max: usize) -> usize {
        let mut total = 0;
        for shard in &self.shards {
            if total >= max {
                break;
            }
            total += shard.retrieve.poll(max - total);
        }
        total
    }

    /// Drain all available responses from every shard.
    pub fn poll_all(&self) -> usize {
        self.shards.iter().map(|s| s.retrieve.poll_all()).sum()
    }

    /// Drain all available responses from shard `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= shard_count()`.
    pub fn poll_shard(&self, i: usize) -> usize {
        self.shards[i].retrieve.poll_all()
    }

    /// Offload one crypto operation and wait for its result in place —
    /// the synchronous facade over [`Self::offload_async`]. Any task
    /// context is masked, so the caller blocks (mirroring OpenSSL
    /// running synchronously when no `ASYNC_JOB` is active) or, inside a
    /// legacy fiber job, pauses that job.
    pub fn offload(&self, op: CryptoOp) -> CryptoResult {
        task::run_sync(self.offload_async(op))
    }

    /// Offload one crypto operation: a batch of one through
    /// [`Self::offload_batch_async`].
    pub async fn offload_async(&self, op: CryptoOp) -> CryptoResult {
        // An awaited offload answers once, with one result per op; the
        // error stands for a result that a batch of one cannot lack.
        let mut results = self.offload_batch_async(vec![op]).await;
        results.pop().unwrap_or(Err(CryptoError::Cancelled))
    }

    /// Synchronous facade over [`Self::offload_batch_async`] (see
    /// [`Self::offload`]).
    pub fn offload_batch(&self, ops: Vec<CryptoOp>) -> Vec<CryptoResult> {
        task::run_sync(self.offload_batch_async(ops))
    }

    /// Offload a batch of same-class operations through ONE shard, under
    /// one ring publish and one doorbell: [`Self::offload_chunks_async`]
    /// with the whole batch as its one chunk.
    pub fn offload_batch_async(&self, ops: Vec<CryptoOp>) -> Offload<'_> {
        self.offload_chunks_async(ops, usize::MAX)
    }

    /// Offload a batch of same-class operations as chunks of at most
    /// `chunk` requests; the results return in op order. Each chunk goes
    /// to the next shard in the cursor's rotation under its own ring
    /// publish and doorbell, every chunk before the caller waits; the
    /// mode and the caller's context then decide how the pending step is
    /// waited on (see the module docs). However many chunks, the caller
    /// pauses ONCE: the last member's completion wakes the waker.
    ///
    /// A multi-op batch — the data plane's record flush — is published
    /// at once. A lone op has no batch of its own: on the event loop
    /// with a submit queue attached it is staged, and
    /// [`Self::flush_submissions`] publishes it with the rest of the
    /// sweep.
    ///
    /// Whatever a full ring would not take is staged on its shard's
    /// submit queue when the caller is on the event loop (published by
    /// the next sweep flush, failed with [`CryptoError::Cancelled`] by
    /// a shutdown drain — so a mid-batch shutdown fails only the unsent
    /// tail of each chunk). Without a queue the step raises the retry
    /// flag and republishes each chunk's tail when polled again; retries
    /// stay on the shard the cursor picked for the chunk — re-routing a
    /// bounced request would reorder it behind later submissions on
    /// another ring.
    ///
    /// # Panics
    ///
    /// Debug-asserts that every op shares one [`OpClass`].
    pub fn offload_chunks_async(&self, ops: Vec<CryptoOp>, chunk: usize) -> Offload<'_> {
        Offload {
            engine: self,
            state: OffloadState::Fresh {
                ops,
                chunk: chunk.max(1),
            },
        }
    }

    /// Who is calling, and therefore how a pending step is waited on
    /// and which wait context its completions rendezvous at.
    fn waiter(&self) -> (Waiter, Arc<WaitCtx>) {
        let current = match self.mode {
            EngineMode::Async => task::current_wait_ctx(),
            EngineMode::Blocking => None,
        };
        match current {
            Some(ctx) if fiber::in_job() => (Waiter::Fiber, ctx),
            Some(ctx) => (Waiter::Task, ctx),
            None => {
                let ctx = Arc::new(WaitCtx::new());
                let self_poll = self.mode == EngineMode::Async
                    || self.has_external_poller.load(Ordering::Relaxed) == 0;
                if self_poll {
                    return (Waiter::Blocking(Blocker::SelfPoll), ctx);
                }
                let parker = Arc::new(Parker::new());
                ctx.set_waker(Arc::clone(&parker).into());
                (Waiter::Blocking(Blocker::Parked(parker)), ctx)
            }
        }
    }

    /// The step's first call: place each chunk, account, then stage or
    /// publish it.
    fn submit_step(&self, ops: Vec<CryptoOp>, chunk: usize) -> OffloadStep {
        let class = ops[0].class();
        debug_assert!(
            ops.iter().all(|op| op.class() == class),
            "an offload batch is single-class"
        );
        let (waiter, ctx) = self.waiter();
        // Only an event-loop caller may leave requests on the sweep
        // queue: a blocked caller cannot also be its flusher.
        let on_event_loop = matches!(waiter, Waiter::Task | Waiter::Fiber);
        let lone = ops.len() == 1;
        let collector = Arc::new(BatchCollector::new(ops.len()));
        let mut step = OffloadStep {
            class,
            waiter,
            ctx,
            collector,
            parts: Vec::with_capacity(ops.len().div_ceil(chunk)),
            attempt: 0,
            deadline: None,
        };
        let mut ops = ops.into_iter().enumerate().peekable();
        while ops.peek().is_some() {
            let shard = self.route(class);
            if step.parts.is_empty() && shard.obs.enabled() {
                // Connection tracing: link the coming pause to the first
                // chunk's shard (read back by the worker when it
                // annotates the offload-wait span).
                step.ctx.set_submit_info(shard.index, 0);
            }
            let mut unsent: VecDeque<CryptoRequest> = ops
                .by_ref()
                .take(chunk)
                .map(|(i, op)| {
                    shard.submit.begin(class);
                    let done = shard.notify.completion(
                        Arc::clone(&step.collector),
                        i,
                        Arc::clone(&step.ctx),
                        class,
                    );
                    make_request(shard.submit.next_cookie(), op, done)
                })
                .collect();
            let queue = on_event_loop
                .then(|| shard.submit.attached_queue())
                .flatten();
            // A staged lone op skips the ring here: ring-full then shows
            // up as deferral inside the queue, not as a submission
            // failure.
            if !lone || queue.is_none() {
                shard.submit.instance.submit_batch(&mut unsent);
            }
            // The unsent tail rides the sweep machinery: the next flush
            // publishes it; a shutdown drain fails it with Cancelled
            // while the already-published head completes.
            if let Some(queue) = queue {
                unsent.drain(..).for_each(|request| queue.enqueue(request));
            }
            step.parts.push(Part {
                shard: shard.index as usize,
                unsent,
            });
        }
        if step.parts.iter().any(|part| !part.unsent.is_empty()) {
            self.note_ring_full(&mut step);
        }
        step
    }

    /// Submission failure (§3.2): count it on every shard whose ring
    /// bounced part of its chunk, and raise the retry flag once so the
    /// application reschedules the pass.
    fn note_ring_full(&self, step: &mut OffloadStep) {
        step.attempt += 1;
        for part in step.parts.iter().filter(|part| !part.unsent.is_empty()) {
            let shard = &self.shards[part.shard];
            shard
                .submit
                .ring_full_retries
                .fetch_add(1, Ordering::Relaxed);
            self.obs.recorder().record(
                EventKind::BackpressureRetry,
                shard.index,
                u64::from(step.attempt),
                0,
            );
            if shard.obs.enabled() {
                step.ctx.set_submit_info(shard.index, 2);
            }
        }
        step.ctx.set_retry();
    }

    /// One poll-style step of a submitted offload: republish every
    /// chunk's ring-full tail, then take the parked results — a call
    /// with nothing parked (spurious wake, event disorder §4.2) stays
    /// pending. With metrics on, the post-processing phase
    /// (notification fired → results consumed here) is recorded against
    /// the first chunk's shard.
    fn poll_step(&self, step: &mut OffloadStep) -> Poll<Vec<CryptoResult>> {
        let mut bounced = false;
        for part in step.parts.iter_mut().filter(|p| !p.unsent.is_empty()) {
            let instance = &self.shards[part.shard].submit.instance;
            instance.submit_batch(&mut part.unsent);
            bounced |= !part.unsent.is_empty();
        }
        if bounced {
            self.note_ring_full(step);
            return Poll::Pending;
        }
        if step.ctx.take_result().is_none() {
            return Poll::Pending;
        }
        if let Some(part) = step.parts.first() {
            let shard = &self.shards[part.shard];
            if shard.obs.enabled() {
                if let Some(t) = step.ctx.take_notified_ns() {
                    shard
                        .obs
                        .record(Phase::Post, step.class, obs::now_ns().saturating_sub(t));
                }
            }
        }
        Poll::Ready(step.collector.take())
    }

    /// Drive the offload until it must return: the first call submits,
    /// then a task hands `Pending` back to its poller, a fiber job
    /// pauses, a blocking caller waits in place (a device that never
    /// answers fails the op with [`CryptoError::DeviceTimeout`], not the
    /// thread). A finished offload has handed its results over: polling
    /// it again yields none.
    fn drive(&self, state: &mut OffloadState) -> Poll<Vec<CryptoResult>> {
        let mut just_submitted = false;
        if let OffloadState::Fresh { ops, chunk } = state {
            if ops.is_empty() {
                *state = OffloadState::Done;
                return Poll::Ready(Vec::new());
            }
            *state = OffloadState::InFlight(self.submit_step(std::mem::take(ops), *chunk));
            just_submitted = true;
        }
        let OffloadState::InFlight(step) = state else {
            return Poll::Ready(Vec::new());
        };
        loop {
            if !std::mem::take(&mut just_submitted) {
                if let Poll::Ready(results) = self.poll_step(step) {
                    *state = OffloadState::Done;
                    return Poll::Ready(results);
                }
            }
            let OffloadStep {
                waiter,
                parts,
                attempt,
                deadline,
                collector,
                ..
            } = &mut *step;
            match waiter {
                Waiter::Task => return Poll::Pending,
                Waiter::Fiber => fiber::pause_job(),
                Waiter::Blocking(blocker) => {
                    if let Err(timeout) = self.wait_in_place(blocker, parts, *attempt, deadline) {
                        let n = collector.len();
                        *state = OffloadState::Done;
                        return Poll::Ready((0..n).map(|_| Err(timeout)).collect());
                    }
                }
            }
        }
    }

    /// The blocking driver's wait ("the QAT Engine cannot return
    /// control to upper layers after it submits a crypto request" —
    /// §2.4), for a result or for ring space.
    fn wait_in_place(
        &self,
        blocker: &Blocker,
        parts: &[Part],
        attempt: u32,
        deadline: &mut Option<Instant>,
    ) -> Result<(), CryptoError> {
        let now = Instant::now();
        if now >= *deadline.get_or_insert(now + OFFLOAD_TIMEOUT) {
            return Err(CryptoError::DeviceTimeout);
        }
        match blocker {
            // Only this caller's own polls can deliver its results (or
            // free ring space), so there is nothing to sleep on: yield
            // only when every chunk's shard came back empty.
            Blocker::SelfPoll => {
                let retrieved: usize = parts
                    .iter()
                    .map(|part| self.shards[part.shard].retrieve.poll_all())
                    .sum();
                if retrieved == 0 {
                    std::thread::yield_now();
                }
            }
            // The external poller frees ring space: spin briefly, then
            // park so its thread gets cycles.
            Blocker::Parked(parker) => match parts.iter().find(|part| !part.unsent.is_empty()) {
                Some(part) => self.shards[part.shard]
                    .submit
                    .backpressure
                    .wait(attempt.saturating_sub(1), SubmitContext::BlockingWait),
                None => parker.park_timeout(PARK_SLICE),
            },
        }
        Ok(())
    }
}

/// How long a blocking caller waits for the device before failing the
/// op.
const OFFLOAD_TIMEOUT: Duration = Duration::from_secs(120);

/// Longest a parked blocking caller sleeps between deadline checks (the
/// external poller's notification ends the sleep early).
const PARK_SLICE: Duration = Duration::from_millis(10);

/// How the caller of an offload waits while its step is pending — the
/// three drivers of the one step.
enum Waiter {
    /// A polled task: `Pending` goes back to whoever polled.
    Task,
    /// A legacy fiber job: `Pending` becomes `pause_job()`.
    Fiber,
    /// A blocking caller: nowhere to return to, so it waits in place.
    Blocking(Blocker),
}

/// How a blocking caller waits in place.
enum Blocker {
    /// Polls the shards of its chunks itself.
    SelfPoll,
    /// Behind an external poller: sleeps on the waker of its private
    /// wait context until the poller delivers.
    Parked(Arc<Parker>),
}

/// One chunk of a submitted offload: the shard it went to, and whatever
/// that shard's ring has not taken yet with no queue to stage it on.
struct Part {
    shard: usize,
    unsent: VecDeque<CryptoRequest>,
}

/// One submitted offload: where its chunks went, who waits for it and
/// how.
struct OffloadStep {
    class: OpClass,
    waiter: Waiter,
    /// The rendezvous: the caller's per-pass context, or a private one
    /// for a blocking caller.
    ctx: Arc<WaitCtx>,
    collector: Arc<BatchCollector>,
    /// One per chunk, in op order.
    parts: Vec<Part>,
    /// Consecutive ring-full failures.
    attempt: u32,
    /// Blocking callers give up at this instant (set by the first wait).
    deadline: Option<Instant>,
}

impl Drop for OffloadStep {
    /// An abandoned step (its pass was dropped, or it timed out) must
    /// not strand the inflight accounting of requests the device never
    /// saw: fail them as a shutdown drain would.
    fn drop(&mut self) {
        for part in &mut self.parts {
            for request in part.unsent.drain(..) {
                (request.callback)(Err(CryptoError::Cancelled));
            }
        }
    }
}

enum OffloadState {
    Fresh { ops: Vec<CryptoOp>, chunk: usize },
    InFlight(OffloadStep),
    Done,
}

/// An offload in progress, as a future: polling it drives the engine's
/// one step (see [`OffloadEngine::offload_batch_async`]).
pub struct Offload<'e> {
    engine: &'e OffloadEngine,
    state: OffloadState,
}

impl Future for Offload<'_> {
    type Output = Vec<CryptoResult>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        this.engine.drive(&mut this.state)
    }
}

/// Shared result board of one offload step: a slot per member op and a
/// countdown; the callback that decrements it to zero wakes the waiter
/// (one pause / one signal per offload, however many chunks it took).
struct BatchCollector {
    /// Each slot reads `Cancelled` until its member's completion fills
    /// it; the step takes them only once the countdown reached zero.
    slots: Mutex<Vec<CryptoResult>>,
    remaining: AtomicU64,
}

impl BatchCollector {
    fn new(n: usize) -> Self {
        BatchCollector {
            slots: Mutex::new(vec![Err(CryptoError::Cancelled); n]),
            remaining: AtomicU64::new(n as u64),
        }
    }

    fn len(&self) -> usize {
        self.slots.lock().len()
    }

    /// Park one member's result; true when it was the last outstanding.
    fn fill(&self, index: usize, result: CryptoResult) -> bool {
        if let Some(slot) = self.slots.lock().get_mut(index) {
            *slot = result;
        }
        self.remaining.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Collect every result in submission order.
    fn take(&self) -> Vec<CryptoResult> {
        std::mem::take(&mut *self.slots.lock())
    }
}

/// Convenience: a [`CryptoError`]-typed failure for engine users.
pub type EngineResult = Result<Vec<u8>, CryptoError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fiber::{start_job, StartResult};
    use qtls_qat::{QatConfig, QatDevice};

    fn device() -> QatDevice {
        QatDevice::new(QatConfig::functional_small())
    }

    fn prf_op(n: usize) -> CryptoOp {
        CryptoOp::Prf {
            secret: b"secret".to_vec(),
            label: b"label".to_vec(),
            seed: b"seed".to_vec(),
            out_len: n,
        }
    }

    #[test]
    fn blocking_offload_returns_result() {
        let dev = device();
        let engine = OffloadEngine::new(dev.alloc_instance(), EngineMode::Blocking);
        let out = engine.offload(prf_op(48)).unwrap().into_bytes();
        assert_eq!(out.len(), 48);
        assert_eq!(engine.inflight().total(), 0);
    }

    #[test]
    fn async_offload_pauses_and_resumes() {
        let dev = device();
        let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
        let eng = Arc::clone(&engine);
        let result = start_job(move || eng.offload(prf_op(32)));
        let StartResult::Paused(job) = result else {
            panic!("job must pause after submission")
        };
        // While paused, one PRF request is inflight.
        assert_eq!(engine.inflight().total(), 1);
        assert_eq!(engine.inflight().prf.load(Ordering::Relaxed), 1);
        // Retrieve the response: poll until the callback fires.
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.poll_all() == 0 {
            assert!(Instant::now() < deadline);
            std::thread::yield_now();
        }
        assert_eq!(engine.inflight().total(), 0);
        match job.resume() {
            StartResult::Finished(res) => {
                assert_eq!(res.unwrap().into_bytes().len(), 32)
            }
            StartResult::Paused(_) => panic!("result ready; must finish"),
        }
    }

    #[test]
    fn many_concurrent_async_offloads() {
        // Multiple crypto operations from different "connections"
        // offloaded concurrently in one thread — §3.1's core claim.
        let dev = device();
        let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
        let mut jobs = Vec::new();
        for i in 0..16usize {
            let eng = Arc::clone(&engine);
            match start_job(move || eng.offload(prf_op(16 + i))) {
                StartResult::Paused(j) => jobs.push((i, j)),
                StartResult::Finished(_) => panic!("must pause"),
            }
        }
        assert_eq!(engine.inflight().total(), 16);
        // Retrieve all responses, then resume all jobs.
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.inflight().total() > 0 {
            engine.poll_all();
            assert!(Instant::now() < deadline);
            std::thread::yield_now();
        }
        for (i, job) in jobs {
            match job.resume() {
                StartResult::Finished(res) => {
                    assert_eq!(res.unwrap().into_bytes().len(), 16 + i)
                }
                StartResult::Paused(_) => panic!("must finish"),
            }
        }
    }

    #[test]
    fn async_outside_job_falls_back_to_blocking() {
        let dev = device();
        let engine = OffloadEngine::new(dev.alloc_instance(), EngineMode::Async);
        let out = engine.offload(prf_op(20)).unwrap().into_bytes();
        assert_eq!(out.len(), 20);
    }

    #[test]
    fn ring_full_sets_retry_and_recovers() {
        // Device with zero engines on a tiny ring: submissions queue up
        // and the ring fills; after we attach capacity (poll drains
        // nothing, so instead use a second device)... simpler: fill the
        // ring, verify retry flag, then let engines drain (re-created
        // device has engines).
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 0,
            ring_capacity: 2,
            ..QatConfig::functional_small()
        });
        let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
        // Two jobs fill the ring.
        let mut jobs = Vec::new();
        for _ in 0..2 {
            let eng = Arc::clone(&engine);
            match start_job(move || eng.offload(prf_op(8))) {
                StartResult::Paused(j) => jobs.push(j),
                _ => panic!(),
            }
        }
        // Third job hits ring-full and pauses with the retry flag.
        let eng = Arc::clone(&engine);
        let third = match start_job(move || eng.offload(prf_op(8))) {
            StartResult::Paused(j) => j,
            _ => panic!(),
        };
        assert!(third.wait_ctx().take_retry(), "retry flag expected");
        assert_eq!(engine.ring_full_retries(), 1);
    }

    #[test]
    fn queued_submissions_flush_in_one_batch() {
        use crate::pipeline::SubmitQueue;
        let dev = device();
        let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
        let queue = Arc::new(SubmitQueue::new());
        engine.attach_submit_queue(Arc::clone(&queue));
        let mut jobs = Vec::new();
        for i in 0..6usize {
            let eng = Arc::clone(&engine);
            match start_job(move || eng.offload(prf_op(8 + i))) {
                StartResult::Paused(j) => jobs.push((i, j)),
                StartResult::Finished(_) => panic!("must pause"),
            }
        }
        // The sweep staged everything; nothing reached the device yet.
        assert_eq!(queue.len(), 6);
        assert_eq!(engine.inflight().total(), 6);
        assert_eq!(dev.fw_counters().submitted.load(Ordering::Relaxed), 0);
        // The sweep-boundary flush publishes the batch: one doorbell.
        let report = engine.flush_submissions();
        assert_eq!(report.submitted, 6);
        assert_eq!(report.deferred, 0);
        assert!(queue.is_empty());
        assert_eq!(dev.fw_counters().submitted.load(Ordering::Relaxed), 6);
        assert_eq!(dev.fw_counters().doorbells.load(Ordering::Relaxed), 1);
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.inflight().total() > 0 {
            engine.poll_all();
            assert!(Instant::now() < deadline);
            std::thread::yield_now();
        }
        for (i, job) in jobs {
            match job.resume() {
                StartResult::Finished(res) => {
                    assert_eq!(res.unwrap().into_bytes().len(), 8 + i)
                }
                StartResult::Paused(_) => panic!("must finish"),
            }
        }
        assert_eq!(engine.ring_full_retries(), 0);
    }

    #[test]
    fn flush_defers_on_full_ring_and_retries_next_sweep() {
        use crate::pipeline::SubmitQueue;
        // No engines, tiny ring: the flush can only place 2 of 5.
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 0,
            ring_capacity: 2,
            ..QatConfig::functional_small()
        });
        let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
        let queue = Arc::new(SubmitQueue::new());
        engine.attach_submit_queue(Arc::clone(&queue));
        let mut jobs = Vec::new();
        for _ in 0..5 {
            let eng = Arc::clone(&engine);
            match start_job(move || eng.offload(prf_op(8))) {
                StartResult::Paused(j) => jobs.push(j),
                StartResult::Finished(_) => panic!("must pause"),
            }
        }
        let report = engine.flush_submissions();
        assert_eq!(report.submitted, 2);
        assert_eq!(report.deferred, 3);
        // Deferral is queue-internal backpressure: no per-job retry
        // pause, no ring_full_retries.
        assert_eq!(engine.ring_full_retries(), 0);
        assert_eq!(engine.inflight().total(), 5);
        // "Engines" consume the ring; later sweeps' flushes drain the
        // deferred tail two slots at a time.
        assert_eq!(engine.instance().discard_requests(usize::MAX), 2);
        let report = engine.flush_submissions();
        assert_eq!(report.submitted, 2);
        assert_eq!(report.deferred, 1);
        assert_eq!(engine.instance().discard_requests(usize::MAX), 2);
        let report = engine.flush_submissions();
        assert_eq!(report.submitted, 1);
        assert_eq!(report.deferred, 0);
        assert!(queue.is_empty());
    }

    #[test]
    fn drain_cancels_staged_requests_with_definite_error() {
        // Regression (PR 3): requests staged in the SubmitQueue but not
        // yet flushed were silently dropped on worker shutdown — the
        // paused jobs' waiters never saw a result and the inflight
        // counters never came back down.
        use crate::pipeline::SubmitQueue;
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 0,
            ring_capacity: 2,
            ..QatConfig::functional_small()
        });
        let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
        let queue = Arc::new(SubmitQueue::new());
        engine.attach_submit_queue(Arc::clone(&queue));
        let mut jobs = Vec::new();
        for _ in 0..5 {
            let eng = Arc::clone(&engine);
            match start_job(move || eng.offload(prf_op(8))) {
                StartResult::Paused(j) => jobs.push(j),
                StartResult::Finished(_) => panic!("must pause"),
            }
        }
        assert_eq!(engine.inflight().total(), 5);
        // Shutdown mid-sweep: the ring takes two, the other three must
        // be failed — not dropped.
        let drained = engine.drain_submit_queue();
        assert_eq!(drained.flushed, 2);
        assert_eq!(drained.cancelled, 3);
        assert!(queue.is_empty());
        // Cancelled requests released their inflight accounting.
        assert_eq!(engine.inflight().total(), 2);
        // Their waiters observe the definite error on resume.
        let mut cancelled = 0;
        for job in jobs {
            match job.resume() {
                StartResult::Finished(Err(CryptoError::Cancelled)) => cancelled += 1,
                StartResult::Finished(other) => panic!("unexpected result: {other:?}"),
                StartResult::Paused(j) => {
                    // The two that reached the ring have no response (no
                    // engines); they stay parked. Keep them alive to drop.
                    drop(j);
                }
            }
        }
        assert_eq!(cancelled, 3);
        // Second drain is a no-op.
        assert_eq!(
            engine.drain_submit_queue(),
            crate::pipeline::DrainReport::default()
        );
    }

    #[test]
    fn blocking_full_ring_with_external_poller_does_not_hot_spin() {
        use crate::poller::TimerPoller;
        // Regression: with an external poller attached (self_poll ==
        // false) the old SubmitFull retry loop spun hot — one
        // ring_full_retries increment per yield, tens of thousands per
        // blocked submission. The shared Backpressure policy bounds the
        // spin and parks, so the retry count stays small.
        use qtls_qat::{ServiceMode, ServiceTable};
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 1,
            ring_capacity: 2,
            service_mode: ServiceMode::Timed { time_scale: 1.0 },
            service_table: ServiceTable {
                prf_ns: 3_000_000, // 3 ms per op: the ring stays full
                ..ServiceTable::default()
            },
        });
        let engine = Arc::new(OffloadEngine::new(
            dev.alloc_instance(),
            EngineMode::Blocking,
        ));
        let poller = TimerPoller::spawn(Arc::clone(&engine), Duration::from_micros(200));
        let mut handles = Vec::new();
        for _ in 0..6 {
            let eng = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                eng.offload(prf_op(16)).unwrap().into_bytes()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap().len(), 16);
        }
        poller.stop();
        let retries = engine.ring_full_retries();
        assert!(
            retries < 5_000,
            "blocking path hot-spun on a full ring: {retries} retries"
        );
    }

    #[test]
    fn notification_callback_fires_on_poll() {
        let dev = device();
        let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
        let eng = Arc::clone(&engine);
        let job = match start_job(move || eng.offload(prf_op(4))) {
            StartResult::Paused(j) => j,
            _ => panic!(),
        };
        let queue = Arc::new(crate::notify::AsyncQueue::<u64>::new());
        job.wait_ctx().set_waker(queue.waker(4242));
        let deadline = Instant::now() + Duration::from_secs(10);
        while queue.is_empty() {
            engine.poll_all();
            assert!(Instant::now() < deadline, "callback never fired");
            std::thread::yield_now();
        }
        assert_eq!(queue.drain(), vec![4242]);
        match job.resume() {
            StartResult::Finished(r) => assert_eq!(r.unwrap().into_bytes().len(), 4),
            _ => panic!(),
        }
    }

    #[test]
    fn sharded_engine_spreads_requests_round_robin() {
        let dev = QatDevice::new(QatConfig {
            endpoints: 2,
            engines_per_endpoint: 0,
            ring_capacity: 32,
            ..QatConfig::functional_small()
        });
        let engine = Arc::new(OffloadEngine::sharded(
            dev.alloc_instances(2),
            EngineMode::Async,
        ));
        assert_eq!(engine.shard_count(), 2);
        // Distinct endpoints back the two shards.
        assert_ne!(
            engine.shard_instance(0).endpoint_index(),
            engine.shard_instance(1).endpoint_index()
        );
        for _ in 0..4 {
            let eng = Arc::clone(&engine);
            match start_job(move || eng.offload(prf_op(8))) {
                StartResult::Paused(j) => std::mem::forget(j),
                _ => panic!("must pause"),
            }
        }
        // Aggregate and per-shard accounting agree: 2 + 2.
        assert_eq!(engine.inflight().total(), 4);
        assert_eq!(engine.shard_inflight(0), 2);
        assert_eq!(engine.shard_inflight(1), 2);
        assert_eq!(engine.shard_instance(0).queued_requests(), 2);
        assert_eq!(engine.shard_instance(1).queued_requests(), 2);
    }

    #[test]
    fn sharded_drain_cancels_staged_requests_on_every_shard() {
        // The PR-3 drain fix, extended to N queues: shutdown must
        // publish what each shard's ring takes and fail the rest — on
        // every shard, not just shard 0.
        use crate::pipeline::SubmitQueue;
        let dev = QatDevice::new(QatConfig {
            endpoints: 2,
            engines_per_endpoint: 0,
            ring_capacity: 2,
            ..QatConfig::functional_small()
        });
        let engine = Arc::new(OffloadEngine::sharded(
            dev.alloc_instances(2),
            EngineMode::Async,
        ));
        for i in 0..engine.shard_count() {
            engine.attach_shard_submit_queue(i, Arc::new(SubmitQueue::new()));
        }
        let mut jobs = Vec::new();
        for _ in 0..10 {
            let eng = Arc::clone(&engine);
            match start_job(move || eng.offload(prf_op(8))) {
                StartResult::Paused(j) => jobs.push(j),
                StartResult::Finished(_) => panic!("must pause"),
            }
        }
        // 5 staged per shard; each ring takes 2, each queue cancels 3.
        let drained = engine.drain_submit_queue();
        assert_eq!(drained.flushed, 4);
        assert_eq!(drained.cancelled, 6);
        assert_eq!(engine.inflight().total(), 4);
        assert_eq!(engine.shard_inflight(0), 2);
        assert_eq!(engine.shard_inflight(1), 2);
        let mut cancelled = 0;
        for job in jobs {
            match job.resume() {
                StartResult::Finished(Err(CryptoError::Cancelled)) => cancelled += 1,
                StartResult::Finished(other) => panic!("unexpected result: {other:?}"),
                StartResult::Paused(j) => drop(j),
            }
        }
        assert_eq!(cancelled, 6);
        // Second drain is a no-op.
        assert_eq!(engine.drain_submit_queue(), DrainReport::default());
    }

    #[test]
    fn batched_blocking_offload_one_doorbell_ordered_results() {
        let dev = device();
        let engine = OffloadEngine::new(dev.alloc_instance(), EngineMode::Blocking);
        let ops: Vec<CryptoOp> = (1..=8).map(prf_op).collect();
        let results = engine.offload_batch(ops);
        assert_eq!(results.len(), 8);
        for (i, result) in results.into_iter().enumerate() {
            assert_eq!(result.unwrap().into_bytes().len(), i + 1, "order kept");
        }
        // The whole batch went out under ONE doorbell.
        assert_eq!(dev.fw_counters().doorbells.load(Ordering::Relaxed), 1);
        assert_eq!(dev.fw_counters().submitted.load(Ordering::Relaxed), 8);
        assert_eq!(engine.inflight().total(), 0);
    }

    #[test]
    fn batched_async_offload_pauses_once_for_the_whole_batch() {
        let dev = device();
        let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
        let eng = Arc::clone(&engine);
        let job = match start_job(move || eng.offload_batch((1..=6).map(prf_op).collect())) {
            StartResult::Paused(j) => j,
            StartResult::Finished(_) => panic!("must pause"),
        };
        // All six inflight after a single publish + doorbell.
        assert_eq!(engine.inflight().total(), 6);
        assert_eq!(dev.fw_counters().doorbells.load(Ordering::Relaxed), 1);
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.inflight().total() > 0 {
            engine.poll_all();
            assert!(Instant::now() < deadline);
            std::thread::yield_now();
        }
        // ONE resume finishes the job with every result, in op order.
        match job.resume() {
            StartResult::Finished(results) => {
                assert_eq!(results.len(), 6);
                for (i, result) in results.into_iter().enumerate() {
                    assert_eq!(result.unwrap().into_bytes().len(), 1 + i);
                }
            }
            StartResult::Paused(_) => panic!("batch resolved; must finish"),
        }
    }

    #[test]
    fn batched_drain_cancels_only_the_unsent_tail() {
        // Mid-batch shutdown mirrors the PR-3 drain semantics: the head
        // of the batch that reached the ring completes normally; only
        // the tail still staged on the submit queue fails, with the
        // definite Cancelled error, and order is preserved.
        use crate::pipeline::SubmitQueue;
        use qtls_qat::{ServiceMode, ServiceTable};
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 1,
            ring_capacity: 4,
            service_mode: ServiceMode::Timed { time_scale: 1.0 },
            service_table: ServiceTable {
                prf_ns: 2_000_000, // 2 ms per op keeps the ring busy
                ..ServiceTable::default()
            },
        });
        let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
        engine.attach_submit_queue(Arc::new(SubmitQueue::new()));
        let eng = Arc::clone(&engine);
        let job = match start_job(move || eng.offload_batch(vec![prf_op(8); 10])) {
            StartResult::Paused(j) => j,
            StartResult::Finished(_) => panic!("must pause"),
        };
        // Ring took 4; the other 6 are staged for the next sweep.
        assert_eq!(engine.inflight().total(), 10);
        let drained = engine.drain_submit_queue();
        assert!(
            drained.cancelled >= 1,
            "shutdown must cancel the staged tail"
        );
        let cancelled = drained.cancelled;
        // The published head still completes through the engine.
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.inflight().total() > 0 {
            engine.poll_all();
            assert!(Instant::now() < deadline);
            std::thread::yield_now();
        }
        let results = match job.resume() {
            StartResult::Finished(r) => r,
            StartResult::Paused(_) => panic!("all members resolved; must finish"),
        };
        assert_eq!(results.len(), 10);
        for (i, result) in results.iter().enumerate() {
            if i < 10 - cancelled {
                assert!(result.is_ok(), "sent head member {i} must complete");
            } else {
                assert!(
                    matches!(result, Err(CryptoError::Cancelled)),
                    "unsent tail member {i} must fail with Cancelled, got {result:?}"
                );
            }
        }
    }

    #[test]
    fn chunked_offload_publishes_every_chunk_before_its_one_pause() {
        // 40 ops in chunks of 16 over three shards: a publish and a
        // doorbell per chunk, on the shards in rotation, all before the
        // caller pauses; then ONE pause, and the results in op order
        // although the shards are retrieved last-first.
        let dev = QatDevice::new(QatConfig {
            endpoints: 3,
            engines_per_endpoint: 1,
            ring_capacity: 64,
            ..QatConfig::functional_small()
        });
        let engine = OffloadEngine::sharded(dev.alloc_instances(3), EngineMode::Async);
        let ctx = Arc::new(WaitCtx::new());
        let ops = (1..=40).map(prf_op).collect();
        let mut fut = std::pin::pin!(engine.offload_chunks_async(ops, 16));
        assert!(task::poll_pass(Some(&ctx), fut.as_mut()).is_pending());
        assert_eq!(dev.fw_counters().doorbells.load(Ordering::Relaxed), 3);
        assert_eq!(dev.fw_counters().submitted.load(Ordering::Relaxed), 40);
        let inflight: Vec<u64> = (0..3).map(|i| engine.shard_inflight(i)).collect();
        assert_eq!(inflight, [16, 16, 8]);
        let deadline = Instant::now() + Duration::from_secs(10);
        let answered = || (0..3).map(|i| engine.shard_instance(i).pending_responses());
        while answered().sum::<usize>() < 40 {
            assert!(Instant::now() < deadline, "engines never answered");
            std::thread::yield_now();
        }
        for i in (0..3).rev() {
            assert!(!ctx.has_result(), "woken before the last chunk");
            engine.poll_shard(i);
        }
        let Poll::Ready(results) = task::poll_pass(Some(&ctx), fut.as_mut()) else {
            panic!("every chunk answered; one resume finishes the offload")
        };
        for (i, result) in results.into_iter().enumerate() {
            assert_eq!(result.unwrap().into_bytes().len(), i + 1, "op order kept");
        }
        assert_eq!(engine.inflight().total(), 0);
    }

    #[test]
    fn sharded_blocking_offloads_complete_on_every_shard() {
        // End-to-end through real engines: round-robin placement across
        // two shards still delivers every result.
        let dev = QatDevice::new(QatConfig {
            endpoints: 2,
            engines_per_endpoint: 1,
            ring_capacity: 32,
            ..QatConfig::functional_small()
        });
        let engine = OffloadEngine::sharded(dev.alloc_instances(2), EngineMode::Blocking);
        for i in 1..=6 {
            let out = engine.offload(prf_op(i)).unwrap().into_bytes();
            assert_eq!(out.len(), i);
        }
        assert_eq!(engine.inflight().total(), 0);
        assert_eq!(engine.shard_inflight(0), 0);
        assert_eq!(engine.shard_inflight(1), 0);
    }

    /// Drive a task-polled future to completion the way an event loop
    /// would: poll the pass, flush the sweep, retrieve responses.
    fn run_task<T>(engine: &OffloadEngine, fut: impl Future<Output = T>) -> (T, u32) {
        let ctx = Arc::new(WaitCtx::new());
        let mut fut = std::pin::pin!(fut);
        let mut pendings = 0;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Poll::Ready(out) = task::poll_pass(Some(&ctx), fut.as_mut()) {
                return (out, pendings);
            }
            pendings += 1;
            assert!(Instant::now() < deadline, "task never completed");
            engine.flush_submissions();
            while !ctx.has_result() && !ctx.take_retry() {
                engine.poll_all();
                std::thread::yield_now();
                assert!(Instant::now() < deadline, "no completion delivered");
            }
        }
    }

    #[test]
    fn task_offload_pends_once_then_is_ready() {
        let dev = device();
        let engine = OffloadEngine::new(dev.alloc_instance(), EngineMode::Async);
        let (out, pendings) = run_task(&engine, engine.offload_async(prf_op(24)));
        assert_eq!(out.unwrap().into_bytes().len(), 24);
        assert_eq!(pendings, 1, "one crypto pause per offload");
        assert_eq!(engine.inflight().total(), 0);
    }

    #[test]
    fn task_poll_with_nothing_parked_stays_pending() {
        // Event disorder (§4.2): a poll that is not backed by a parked
        // result — a spurious wake — must neither complete nor resubmit.
        let dev = QatDevice::new(QatConfig {
            engines_per_endpoint: 0,
            ..QatConfig::functional_small()
        });
        let engine = OffloadEngine::new(dev.alloc_instance(), EngineMode::Async);
        let ctx = Arc::new(WaitCtx::new());
        let mut fut = std::pin::pin!(engine.offload_async(prf_op(8)));
        for _ in 0..3 {
            assert!(task::poll_pass(Some(&ctx), fut.as_mut()).is_pending());
        }
        assert_eq!(dev.fw_counters().submitted.load(Ordering::Relaxed), 1);
        assert_eq!(engine.inflight().total(), 1);
    }

    #[test]
    fn dropped_task_releases_unsent_requests() {
        // A pass torn down while its offload waits for ring space must
        // not strand the inflight accounting of what the device never saw.
        let dev = QatDevice::new(QatConfig {
            engines_per_endpoint: 0,
            ring_capacity: 2,
            ..QatConfig::functional_small()
        });
        let engine = OffloadEngine::new(dev.alloc_instance(), EngineMode::Async);
        let ctx = Arc::new(WaitCtx::new());
        {
            let ops = (0..5).map(|_| prf_op(8)).collect();
            let mut fut = std::pin::pin!(engine.offload_batch_async(ops));
            assert!(task::poll_pass(Some(&ctx), fut.as_mut()).is_pending());
            assert!(ctx.take_retry(), "three requests bounced off the ring");
            assert_eq!(engine.inflight().total(), 5);
        }
        assert_eq!(engine.inflight().total(), 2, "only what the ring took");
    }

    #[test]
    fn task_ring_full_retries_until_the_tail_is_published() {
        // No queue to stage on and a ring of two under a batch of five:
        // the step raises the retry flag, and every re-poll republishes
        // what fits until the whole batch has been through the device.
        let dev = QatDevice::new(QatConfig {
            ring_capacity: 2,
            ..QatConfig::functional_small()
        });
        let engine = OffloadEngine::new(dev.alloc_instance(), EngineMode::Async);
        let ops = (1..=5).map(prf_op).collect();
        let (results, pendings) = run_task(&engine, engine.offload_batch_async(ops));
        for (i, result) in results.into_iter().enumerate() {
            assert_eq!(result.unwrap().into_bytes().len(), i + 1, "order kept");
        }
        assert!(engine.ring_full_retries() >= 1);
        assert!(
            pendings >= 2,
            "at least one retry pause and one result pause"
        );
        assert_eq!(engine.inflight().total(), 0);
    }

    #[test]
    fn wedged_device_fails_the_op_not_the_thread() {
        // No engines and nobody polling: the blocking driver must give
        // up with a typed error. (The step's deadline is its first wait
        // plus OFFLOAD_TIMEOUT; plant an expired one.)
        let dev = QatDevice::new(QatConfig {
            engines_per_endpoint: 0,
            ..QatConfig::functional_small()
        });
        let engine = OffloadEngine::new(dev.alloc_instance(), EngineMode::Blocking);
        let mut step = engine.submit_step(vec![prf_op(8), prf_op(8)], usize::MAX);
        step.deadline = Some(Instant::now());
        let mut state = OffloadState::InFlight(step);
        match engine.drive(&mut state) {
            Poll::Ready(results) => {
                assert_eq!(results.len(), 2);
                assert!(results
                    .iter()
                    .all(|r| matches!(r, Err(CryptoError::DeviceTimeout))));
            }
            Poll::Pending => panic!("a blocking caller never sees Pending"),
        }
    }

    /// What one lone offload leaves behind on a fresh two-shard engine.
    #[derive(Debug, PartialEq)]
    struct Observed {
        output: Vec<u8>,
        pendings: u32,
        submitted: u64,
        doorbells: u64,
        ring_full_retries: u64,
        phase_counts: Vec<u64>,
        flight: Vec<(EventKind, u32, u64, u64)>,
        queue: Option<crate::pipeline::SubmitSnapshot>,
    }

    fn observe_lone_offload(with_queue: bool, task: bool, as_batch: bool) -> Observed {
        use crate::pipeline::SubmitQueue;
        let dev = QatDevice::new(QatConfig {
            endpoints: 2,
            ..QatConfig::functional_small()
        });
        let engine = OffloadEngine::sharded(dev.alloc_instances(2), EngineMode::Async);
        if with_queue {
            for i in 0..2 {
                engine.attach_shard_submit_queue(i, Arc::new(SubmitQueue::new()));
            }
        }
        engine.enable_metrics();
        let offload = async {
            if as_batch {
                engine.offload_batch_async(vec![prf_op(40)]).await.remove(0)
            } else {
                engine.offload_async(prf_op(40)).await
            }
        };
        let (result, pendings) = if task {
            run_task(&engine, offload)
        } else {
            (task::run_sync(offload), 0)
        };
        assert_eq!(engine.inflight().total(), 0);
        Observed {
            output: result.unwrap().into_bytes(),
            pendings,
            submitted: dev.fw_counters().submitted.load(Ordering::Relaxed),
            doorbells: dev.fw_counters().doorbells.load(Ordering::Relaxed),
            ring_full_retries: engine.ring_full_retries(),
            phase_counts: Phase::ALL
                .iter()
                .map(|&p| engine.obs().merged(p, OpClass::Prf).count())
                .collect(),
            flight: engine
                .obs()
                .recorder()
                .dump()
                .iter()
                .map(|e| (e.kind, e.shard, e.a, e.b))
                .collect(),
            queue: engine.submit_queue().map(|q| q.stats().snapshot()),
        }
    }

    #[test]
    fn single_op_path_is_exactly_the_batch_of_one_path() {
        for (with_queue, task) in [(false, false), (false, true), (true, true)] {
            let single = observe_lone_offload(with_queue, task, false);
            let batch = observe_lone_offload(with_queue, task, true);
            assert_eq!(single, batch, "queue {with_queue} task {task}");
            // And the path is the expected one: one request, one
            // doorbell, every phase recorded once, one router decision.
            assert_eq!((single.submitted, single.doorbells), (1, 1));
            assert_eq!(single.phase_counts, vec![1, 1, 1, 1]);
            assert_eq!(single.flight.len(), 1);
            assert_eq!(single.flight[0].0, EventKind::RouterDecision);
            assert_eq!(single.pendings, u32::from(task));
            if let Some(queue) = single.queue {
                // Staged, then published by the sweep flush.
                assert_eq!((queue.flushes, queue.flushed_requests), (1, 1));
            }
        }
    }

    #[test]
    fn task_fiber_and_blocking_drivers_agree() {
        // The three drivers of the one step: same bytes out, same
        // device-side work.
        let drive = |mode: EngineMode, how: u8| {
            let dev = device();
            let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), mode));
            let ops = || (1..=4).map(prf_op).collect::<Vec<_>>();
            let results = match how {
                0 => engine.offload_batch(ops()),
                1 => run_task(&engine, engine.offload_batch_async(ops())).0,
                _ => {
                    let eng = Arc::clone(&engine);
                    let mut job = match start_job(move || eng.offload_batch(ops())) {
                        StartResult::Paused(job) => job,
                        StartResult::Finished(_) => panic!("must pause"),
                    };
                    loop {
                        engine.poll_all();
                        match job.resume() {
                            StartResult::Finished(results) => break results,
                            StartResult::Paused(again) => job = again,
                        }
                    }
                }
            };
            let bytes: Vec<Vec<u8>> = results
                .into_iter()
                .map(|r| r.unwrap().into_bytes())
                .collect();
            let fw = dev.fw_counters();
            (
                bytes,
                fw.submitted.load(Ordering::Relaxed),
                fw.doorbells.load(Ordering::Relaxed),
            )
        };
        let blocking = drive(EngineMode::Blocking, 0);
        assert_eq!(blocking.1, 4);
        assert_eq!(blocking.2, 1);
        assert_eq!(drive(EngineMode::Async, 0), blocking, "async, no task");
        assert_eq!(drive(EngineMode::Async, 1), blocking, "task");
        assert_eq!(drive(EngineMode::Async, 2), blocking, "fiber");
    }
}
