//! The submission side of the offload pipeline: a per-worker
//! [`SubmitQueue`] that collects crypto requests during one event-loop
//! sweep and flushes them with a single batched ring publish at the
//! sweep boundary (nginx's posted-events discipline applied to crypto
//! submission), plus the one shared [`Backpressure`] policy every
//! ring-full retry path goes through.
//!
//! QTLS batches on the *retrieval* side (the heuristic poller drains up
//! to a threshold of responses per poll, §4.1); this module gives the
//! *submission* side the same treatment: N requests enqueued under one
//! cursor publish and one engine doorbell instead of N.
//!
//! A [`FlushPolicyConfig`] decides *when* the sweep-boundary flush
//! actually publishes: a fixed sweep-boundary flush is great under
//! saturation but a pure latency tax under light load, so the adaptive
//! mode flushes (or bypasses staging entirely) when load is light and
//! holds for up to a bounded number of sweeps / a max hold time when
//! batches are worth deepening — with a hard starvation cap so a held
//! request always goes out.

use qtls_crypto::CryptoError;
use qtls_qat::{CryptoInstance, CryptoRequest};
use qtls_sync::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a full-ring submission failure is being handled, which decides
/// how the caller may wait for ring space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitContext {
    /// A task (or legacy fiber job) on the event loop: the caller must
    /// not block the loop, so the only legal reaction is to pause —
    /// raise the retry flag, return `Pending` — and let the application
    /// reschedule it (§3.2 "failure of crypto submission").
    EventLoop,
    /// A blocking caller that drains the response ring itself: retrying
    /// makes progress on every attempt, so it never needs to park.
    BlockingSelfPoll,
    /// A blocking caller relying on an external poller to free ring
    /// space: spinning buys nothing, so after a bounded number of
    /// yields the caller must park and give the poller thread cycles.
    BlockingWait,
}

/// What a submitter should do about a full request ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FullAction {
    /// Pause the pass; the application reschedules and retries.
    Reschedule,
    /// Yield the CPU and retry immediately.
    Yield,
    /// Sleep for the given duration, then retry.
    Park(Duration),
}

/// Tunables for [`Backpressure`].
#[derive(Clone, Copy, Debug)]
pub struct BackpressureConfig {
    /// Yield-and-retry attempts before the first park
    /// (in [`SubmitContext::BlockingWait`]).
    pub spin_yields: u32,
    /// First park duration; doubles per subsequent attempt.
    pub park_initial: Duration,
    /// Park duration ceiling.
    pub park_max: Duration,
}

impl Default for BackpressureConfig {
    fn default() -> Self {
        BackpressureConfig {
            spin_yields: 64,
            park_initial: Duration::from_micros(50),
            park_max: Duration::from_millis(1),
        }
    }
}

/// The single ring-full backpressure policy shared by every submission
/// path (async event-loop, blocking self-poll, blocking with an
/// external poller), replacing the divergent per-path retry loops.
#[derive(Debug, Default)]
pub struct Backpressure {
    cfg: BackpressureConfig,
}

impl Backpressure {
    /// Policy with explicit tunables.
    pub fn new(cfg: BackpressureConfig) -> Self {
        Backpressure { cfg }
    }

    /// Decide the reaction to the `attempt`-th consecutive ring-full
    /// failure (0-based) in the given context.
    pub fn action(&self, attempt: u32, ctx: SubmitContext) -> FullAction {
        match ctx {
            SubmitContext::EventLoop => FullAction::Reschedule,
            SubmitContext::BlockingSelfPoll => FullAction::Yield,
            SubmitContext::BlockingWait => {
                if attempt < self.cfg.spin_yields {
                    FullAction::Yield
                } else {
                    let exp = (attempt - self.cfg.spin_yields).min(10);
                    let park = self.cfg.park_initial.saturating_mul(1u32 << exp);
                    FullAction::Park(park.min(self.cfg.park_max))
                }
            }
        }
    }

    /// Execute the policy for a blocking caller: yield or park as
    /// [`Backpressure::action`] dictates. Panics on
    /// [`SubmitContext::EventLoop`], where the caller must pause
    /// instead of waiting in place.
    pub fn wait(&self, attempt: u32, ctx: SubmitContext) {
        match self.action(attempt, ctx) {
            FullAction::Reschedule => {
                unreachable!("event-loop backpressure is pause/reschedule, not a wait")
            }
            FullAction::Yield => std::thread::yield_now(),
            FullAction::Park(d) => std::thread::sleep(d),
        }
    }
}

/// How the sweep-boundary flush decides between latency and batching.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushMode {
    /// Publish everything staged at every sweep boundary (PR 2
    /// behaviour; what `SubmitQueue::new` gives you).
    Eager,
    /// Let the policy hold shallow batches under pressure and flush or
    /// bypass immediately under light load.
    Adaptive,
}

/// Tunables for the sweep-boundary flush decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlushPolicyConfig {
    /// Eager or adaptive.
    pub mode: FlushMode,
    /// Batch depth the adaptive mode tries to reach before flushing
    /// while the pipeline is under pressure.
    pub target_depth: usize,
    /// Load is "light" only while total inflight is at or below this.
    pub light_inflight: u64,
    /// Load is "light" only while the EWMA flush depth (milli-requests)
    /// is at or below this.
    pub light_ewma_depth_milli: u64,
    /// Maximum consecutive sweeps a staged batch may be held.
    pub max_hold_sweeps: u32,
    /// Hard starvation cap: a staged request is force-flushed once it
    /// has been held this long, regardless of sweep count.
    pub max_hold: Duration,
    /// Under light load, skip staging entirely and submit in place
    /// (one doorbell per request, but no sweep of added latency).
    pub bypass: bool,
}

impl FlushPolicyConfig {
    /// The eager policy: flush every sweep, never hold, never bypass.
    pub fn eager() -> Self {
        FlushPolicyConfig {
            mode: FlushMode::Eager,
            target_depth: 1,
            light_inflight: u64::MAX,
            light_ewma_depth_milli: u64::MAX,
            max_hold_sweeps: 0,
            max_hold: Duration::ZERO,
            bypass: false,
        }
    }

    /// The adaptive policy with calibrated defaults: hold up to 3
    /// sweeps / 200 µs chasing a depth-16 batch, treat ≤ 4 inflight
    /// with a shallow (≤ 2.0) EWMA depth and no recent deferrals as
    /// light load.
    pub fn adaptive() -> Self {
        FlushPolicyConfig {
            mode: FlushMode::Adaptive,
            target_depth: 16,
            light_inflight: 4,
            light_ewma_depth_milli: 2_000,
            max_hold_sweeps: 3,
            max_hold: Duration::from_micros(200),
            bypass: false,
        }
    }
}

impl Default for FlushPolicyConfig {
    fn default() -> Self {
        FlushPolicyConfig::eager()
    }
}

/// What the policy told one sweep to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FlushDecision {
    Flush,
    ForcedFlush,
    Hold,
}

/// Flush accounting, monotonic over the queue's lifetime.
#[derive(Debug, Default)]
pub struct SubmitStats {
    /// Non-empty flushes performed (each is at most one doorbell).
    pub flushes: AtomicU64,
    /// Requests handed to the device across all flushes.
    pub flushed_requests: AtomicU64,
    /// Deepest batch observed at flush time.
    pub max_depth: AtomicU64,
    /// Requests deferred to a later flush because the ring was full.
    pub deferred: AtomicU64,
    /// Sweeps where the policy held a staged batch to let it deepen.
    pub holds: AtomicU64,
    /// Flushes forced by the hold bound / starvation cap.
    pub forced_flushes: AtomicU64,
    /// Requests that bypassed staging under light load.
    pub bypasses: AtomicU64,
    /// EWMA of the published batch depth, in milli-requests (gauge).
    pub ewma_depth_milli: AtomicU64,
}

impl SubmitStats {
    /// A coherent point-in-time copy of every counter — the single
    /// source the worker folds into its own `stub_status` accounting.
    pub fn snapshot(&self) -> SubmitSnapshot {
        SubmitSnapshot {
            flushes: self.flushes.load(Ordering::Relaxed),
            flushed_requests: self.flushed_requests.load(Ordering::Relaxed),
            max_depth: self.max_depth.load(Ordering::Relaxed),
            deferred: self.deferred.load(Ordering::Relaxed),
            holds: self.holds.load(Ordering::Relaxed),
            forced_flushes: self.forced_flushes.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            ewma_depth_milli: self.ewma_depth_milli.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`SubmitStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubmitSnapshot {
    /// See [`SubmitStats::flushes`].
    pub flushes: u64,
    /// See [`SubmitStats::flushed_requests`].
    pub flushed_requests: u64,
    /// See [`SubmitStats::max_depth`].
    pub max_depth: u64,
    /// See [`SubmitStats::deferred`].
    pub deferred: u64,
    /// See [`SubmitStats::holds`].
    pub holds: u64,
    /// See [`SubmitStats::forced_flushes`].
    pub forced_flushes: u64,
    /// See [`SubmitStats::bypasses`].
    pub bypasses: u64,
    /// See [`SubmitStats::ewma_depth_milli`].
    pub ewma_depth_milli: u64,
}

/// Outcome of a shutdown drain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests the final flush managed to publish.
    pub flushed: usize,
    /// Requests failed with [`CryptoError::Cancelled`] because the ring
    /// would not take them.
    pub cancelled: usize,
}

/// Outcome of one [`SubmitQueue::flush`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlushReport {
    /// Requests accepted by the device under this flush's doorbell.
    pub submitted: usize,
    /// Requests left queued (ring full); retried by the next flush.
    pub deferred: usize,
}

/// Hold-tracking between sweeps (touched only by the flusher thread).
#[derive(Default)]
struct HoldState {
    sweeps: u32,
    since: Option<Instant>,
}

/// A per-worker staging queue for crypto submissions. Requests enqueued
/// during an event-loop sweep are published to the device ring in one
/// batch at the sweep boundary, paying one cursor publish and one
/// doorbell for the whole sweep. The queue is unbounded: ring-full
/// shows up as deferral at flush time, never as an enqueue failure.
///
/// [`SubmitQueue::sweep`] consults the queue's [`FlushPolicyConfig`];
/// [`SubmitQueue::flush`] always publishes.
#[derive(Default)]
pub struct SubmitQueue {
    pending: Mutex<VecDeque<CryptoRequest>>,
    stats: SubmitStats,
    policy: FlushPolicyConfig,
    hold: Mutex<HoldState>,
    /// The last flush left requests behind (ring full): the pipeline is
    /// saturated, so the light-load fast paths are disabled until a
    /// flush drains clean.
    recent_deferral: AtomicBool,
    /// Optional obs-plane flight recorder and the shard index this
    /// queue feeds (events are per-sweep, so the lock is off the
    /// per-request path).
    recorder: Mutex<Option<(Arc<crate::obs::FlightRecorder>, u32)>>,
}

impl SubmitQueue {
    /// Empty queue with the eager (flush-every-sweep) policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty queue governed by `policy`.
    pub fn with_policy(policy: FlushPolicyConfig) -> Self {
        SubmitQueue {
            policy,
            ..Self::default()
        }
    }

    /// The governing policy.
    pub fn policy(&self) -> &FlushPolicyConfig {
        &self.policy
    }

    /// Stage a request for the next flush.
    pub fn enqueue(&self, request: CryptoRequest) {
        self.pending.lock().push_back(request);
    }

    /// Requests currently staged (including deferrals).
    pub fn len(&self) -> usize {
        self.pending.lock().len()
    }

    /// Is nothing staged?
    pub fn is_empty(&self) -> bool {
        self.pending.lock().is_empty()
    }

    /// Flush accounting.
    pub fn stats(&self) -> &SubmitStats {
        &self.stats
    }

    /// Attach the obs-plane flight recorder, labelling this queue's
    /// events with `shard`.
    pub fn set_flight_recorder(&self, recorder: Arc<crate::obs::FlightRecorder>, shard: u32) {
        *self.recorder.lock() = Some((recorder, shard));
    }

    /// Emit a flight event if a recorder is attached (cold paths only).
    fn flight(&self, kind: crate::obs::EventKind, a: u64, b: u64) {
        if let Some((recorder, shard)) = self.recorder.lock().as_ref() {
            recorder.record(kind, *shard, a, b);
        }
    }

    /// Is the pipeline light enough for the latency-first fast paths?
    /// Light means: shallow recent batches, nothing deferred by the
    /// last flush, and few requests inflight.
    fn is_light(&self, inflight: u64) -> bool {
        self.stats.ewma_depth_milli.load(Ordering::Relaxed) <= self.policy.light_ewma_depth_milli
            && !self.recent_deferral.load(Ordering::Relaxed)
            && inflight <= self.policy.light_inflight
    }

    /// Should a new submission skip staging and ring its own doorbell?
    /// Only under the adaptive policy with `bypass` on, with nothing
    /// already staged (ordering) and light load.
    pub fn should_bypass(&self, inflight: u64) -> bool {
        self.policy.mode == FlushMode::Adaptive
            && self.policy.bypass
            && self.pending.lock().is_empty()
            && self.is_light(inflight)
    }

    /// Account one submission that bypassed staging.
    pub fn note_bypass(&self) {
        self.stats.bypasses.fetch_add(1, Ordering::Relaxed);
        self.note_depth_sample(1);
    }

    /// Fold one published batch depth into the EWMA gauge (α = 1/8,
    /// milli-request fixed point). Only the flusher thread writes it, so
    /// load/store needs no CAS.
    fn note_depth_sample(&self, depth: u64) {
        let sample = (depth * 1000) as i64;
        let cur = self.stats.ewma_depth_milli.load(Ordering::Relaxed) as i64;
        let mut step = (sample - cur) / 8;
        if step == 0 {
            step = (sample - cur).signum();
        }
        self.stats
            .ewma_depth_milli
            .store((cur + step).max(0) as u64, Ordering::Relaxed);
    }

    fn decide(&self, staged: usize, inflight: u64) -> FlushDecision {
        match self.policy.mode {
            FlushMode::Eager => FlushDecision::Flush,
            FlushMode::Adaptive => {
                if self.is_light(inflight) || staged >= self.policy.target_depth {
                    return FlushDecision::Flush;
                }
                let mut hold = self.hold.lock();
                let since = *hold.since.get_or_insert_with(Instant::now);
                if hold.sweeps >= self.policy.max_hold_sweeps
                    || since.elapsed() >= self.policy.max_hold
                {
                    FlushDecision::ForcedFlush
                } else {
                    hold.sweeps += 1;
                    FlushDecision::Hold
                }
            }
        }
    }

    /// Sweep-boundary entry point: ask the policy whether to publish
    /// now or keep the staged batch deepening. The starvation cap
    /// ([`FlushPolicyConfig::max_hold_sweeps`] /
    /// [`FlushPolicyConfig::max_hold`]) bounds every hold.
    pub fn sweep(&self, instance: &CryptoInstance, inflight: u64) -> FlushReport {
        let staged = self.pending.lock().len();
        if staged == 0 {
            *self.hold.lock() = HoldState::default();
            return FlushReport::default();
        }
        match self.decide(staged, inflight) {
            FlushDecision::Flush => self.flush(instance),
            FlushDecision::ForcedFlush => {
                self.stats.forced_flushes.fetch_add(1, Ordering::Relaxed);
                let sweeps = self.hold.lock().sweeps;
                self.flight(
                    crate::obs::EventKind::ForcedFlush,
                    staged as u64,
                    sweeps as u64,
                );
                self.flush(instance)
            }
            FlushDecision::Hold => {
                self.stats.holds.fetch_add(1, Ordering::Relaxed);
                FlushReport::default()
            }
        }
    }

    /// Publish everything staged to `instance` in one batched submit,
    /// regardless of policy. Requests the ring cannot take stay queued
    /// (FIFO) for the next flush.
    pub fn flush(&self, instance: &CryptoInstance) -> FlushReport {
        let mut pending = self.pending.lock();
        let depth = pending.len();
        if depth == 0 {
            return FlushReport::default();
        }
        let submitted = instance.submit_batch(&mut pending);
        let deferred = pending.len();
        drop(pending);
        *self.hold.lock() = HoldState::default();
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        self.stats
            .flushed_requests
            .fetch_add(submitted as u64, Ordering::Relaxed);
        self.stats
            .max_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
        if deferred > 0 {
            self.stats
                .deferred
                .fetch_add(deferred as u64, Ordering::Relaxed);
            self.flight(
                crate::obs::EventKind::RingFullDeferral,
                deferred as u64,
                submitted as u64,
            );
        }
        self.recent_deferral.store(deferred > 0, Ordering::Relaxed);
        if submitted > 0 {
            self.note_depth_sample(submitted as u64);
        }
        FlushReport {
            submitted,
            deferred,
        }
    }

    /// Fail every still-staged request with `err` (callbacks run with
    /// the queue unlocked). Shutdown path: a waiter parked on a staged
    /// request must see a definite error, never silence.
    pub fn drain_failing(&self, err: CryptoError) -> usize {
        let drained: Vec<CryptoRequest> = {
            let mut pending = self.pending.lock();
            pending.drain(..).collect()
        };
        let n = drained.len();
        for request in drained {
            (request.callback)(Err(err));
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtls_qat::{make_request, CryptoOp, QatConfig, QatDevice};
    use std::sync::Arc;

    fn engineless_device(ring_capacity: usize) -> QatDevice {
        QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 0,
            ring_capacity,
            ..QatConfig::functional_small()
        })
    }

    fn prf_request(cookie: u64) -> CryptoRequest {
        make_request(
            cookie,
            CryptoOp::Prf {
                secret: vec![],
                label: vec![],
                seed: vec![],
                out_len: 1,
            },
            Box::new(|_| {}),
        )
    }

    #[test]
    fn flush_publishes_batch_under_one_doorbell() {
        let dev = engineless_device(16);
        let inst = dev.alloc_instance();
        let q = SubmitQueue::new();
        for i in 0..5 {
            q.enqueue(prf_request(i));
        }
        assert_eq!(q.len(), 5);
        let report = q.flush(&inst);
        assert_eq!(
            report,
            FlushReport {
                submitted: 5,
                deferred: 0
            }
        );
        assert!(q.is_empty());
        assert_eq!(dev.fw_counters().doorbells.load(Ordering::Relaxed), 1);
        assert_eq!(q.stats().flushes.load(Ordering::Relaxed), 1);
        assert_eq!(q.stats().flushed_requests.load(Ordering::Relaxed), 5);
        assert_eq!(q.stats().max_depth.load(Ordering::Relaxed), 5);
        assert_eq!(q.stats().deferred.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn empty_flush_is_free() {
        let dev = engineless_device(8);
        let inst = dev.alloc_instance();
        let q = SubmitQueue::new();
        assert_eq!(q.flush(&inst), FlushReport::default());
        assert_eq!(q.stats().flushes.load(Ordering::Relaxed), 0);
        assert_eq!(dev.fw_counters().doorbells.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn flush_defers_overflow_to_next_flush() {
        let dev = engineless_device(4);
        let inst = dev.alloc_instance();
        let q = SubmitQueue::new();
        for i in 0..6 {
            q.enqueue(prf_request(i));
        }
        let report = q.flush(&inst);
        assert_eq!(
            report,
            FlushReport {
                submitted: 4,
                deferred: 2
            }
        );
        assert_eq!(q.len(), 2);
        assert_eq!(q.stats().deferred.load(Ordering::Relaxed), 2);
        // Ring drained → the deferred tail goes out on the next flush.
        assert_eq!(inst.discard_requests(usize::MAX), 4);
        let report = q.flush(&inst);
        assert_eq!(
            report,
            FlushReport {
                submitted: 2,
                deferred: 0
            }
        );
        assert!(q.is_empty());
        assert_eq!(q.stats().max_depth.load(Ordering::Relaxed), 6);
    }

    /// Adaptive policy that is never "light" for inflight > 0 and never
    /// times out — holds are bounded by sweep count alone.
    fn sweep_bound_policy(max_hold_sweeps: u32) -> FlushPolicyConfig {
        FlushPolicyConfig {
            light_inflight: 0,
            max_hold_sweeps,
            max_hold: Duration::from_secs(3600),
            ..FlushPolicyConfig::adaptive()
        }
    }

    #[test]
    fn eager_queue_flushes_every_sweep() {
        let dev = engineless_device(16);
        let inst = dev.alloc_instance();
        let q = SubmitQueue::new();
        q.enqueue(prf_request(1));
        // Even a depth-1 batch goes out on the very next sweep.
        let report = q.sweep(&inst, 100);
        assert_eq!(report.submitted, 1);
        assert_eq!(q.stats().holds.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn adaptive_light_load_flushes_immediately() {
        let dev = engineless_device(16);
        let inst = dev.alloc_instance();
        let q = SubmitQueue::with_policy(FlushPolicyConfig::adaptive());
        q.enqueue(prf_request(1));
        // EWMA 0, nothing deferred, inflight 1 ≤ light_inflight 4.
        let report = q.sweep(&inst, 1);
        assert_eq!(report.submitted, 1);
        assert_eq!(q.stats().holds.load(Ordering::Relaxed), 0);
        assert_eq!(q.stats().forced_flushes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn adaptive_holds_shallow_batches_then_forces() {
        let dev = engineless_device(16);
        let inst = dev.alloc_instance();
        let q = SubmitQueue::with_policy(sweep_bound_policy(3));
        for i in 0..4 {
            q.enqueue(prf_request(i));
        }
        // 4 staged < target 16, inflight high: held for 3 sweeps...
        for _ in 0..3 {
            assert_eq!(q.sweep(&inst, 64), FlushReport::default());
        }
        assert_eq!(q.stats().holds.load(Ordering::Relaxed), 3);
        assert_eq!(q.len(), 4);
        // ...then the sweep bound forces the flush (starvation cap).
        let report = q.sweep(&inst, 64);
        assert_eq!(report.submitted, 4);
        assert_eq!(q.stats().forced_flushes.load(Ordering::Relaxed), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn adaptive_flushes_at_target_depth_without_holding() {
        let dev = engineless_device(32);
        let inst = dev.alloc_instance();
        let q = SubmitQueue::with_policy(sweep_bound_policy(3));
        for i in 0..16 {
            q.enqueue(prf_request(i));
        }
        let report = q.sweep(&inst, 64);
        assert_eq!(report.submitted, 16);
        assert_eq!(q.stats().holds.load(Ordering::Relaxed), 0);
        assert_eq!(q.stats().forced_flushes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn adaptive_hold_respects_wall_clock_cap() {
        let dev = engineless_device(16);
        let inst = dev.alloc_instance();
        // Unreachable sweep bound; 1 ms wall-clock cap does the work.
        let q = SubmitQueue::with_policy(FlushPolicyConfig {
            max_hold: Duration::from_millis(1),
            ..sweep_bound_policy(u32::MAX)
        });
        q.enqueue(prf_request(1));
        assert_eq!(q.sweep(&inst, 64), FlushReport::default());
        std::thread::sleep(Duration::from_millis(2));
        let report = q.sweep(&inst, 64);
        assert_eq!(report.submitted, 1);
        assert_eq!(q.stats().forced_flushes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn deferral_disables_light_fast_path_until_clean_flush() {
        let dev = engineless_device(2);
        let inst = dev.alloc_instance();
        let q = SubmitQueue::with_policy(FlushPolicyConfig {
            bypass: true,
            ..FlushPolicyConfig::adaptive()
        });
        for i in 0..4 {
            q.enqueue(prf_request(i));
        }
        // Ring takes 2 of 4: a deferral was observed.
        assert_eq!(q.flush(&inst).deferred, 2);
        assert!(!q.should_bypass(0), "deferral must disable bypass");
        // Drain the ring; the next clean flush re-arms the fast path.
        assert_eq!(inst.discard_requests(usize::MAX), 2);
        assert_eq!(q.flush(&inst).deferred, 0);
        // EWMA is still ~2.0 deep; decay it with shallow samples.
        for _ in 0..32 {
            q.note_depth_sample(1);
        }
        assert!(q.should_bypass(0));
        assert_eq!(inst.discard_requests(usize::MAX), 2);
    }

    #[test]
    fn bypass_requires_empty_stage_and_light_load() {
        let dev = engineless_device(16);
        let _inst = dev.alloc_instance();
        let q = SubmitQueue::with_policy(FlushPolicyConfig {
            bypass: true,
            ..FlushPolicyConfig::adaptive()
        });
        assert!(q.should_bypass(0));
        assert!(!q.should_bypass(100), "heavy inflight is not light");
        q.enqueue(prf_request(1));
        assert!(!q.should_bypass(0), "staged work means no reorder");
        // Eager queues never bypass.
        let eager = SubmitQueue::new();
        assert!(!eager.should_bypass(0));
    }

    #[test]
    fn ewma_tracks_flush_depth() {
        let dev = engineless_device(64);
        let inst = dev.alloc_instance();
        let q = SubmitQueue::with_policy(FlushPolicyConfig::adaptive());
        for round in 0..40 {
            for i in 0..16 {
                q.enqueue(prf_request(round * 16 + i));
            }
            assert_eq!(q.flush(&inst).submitted, 16);
            assert_eq!(inst.discard_requests(usize::MAX), 16);
        }
        let ewma = q.stats().ewma_depth_milli.load(Ordering::Relaxed);
        assert!(
            (15_000..=16_000).contains(&ewma),
            "EWMA should converge to ~16.0: {ewma} milli"
        );
    }

    #[test]
    fn drain_failing_cancels_every_staged_request() {
        use std::sync::atomic::AtomicUsize;
        let q = SubmitQueue::new();
        let cancelled = Arc::new(AtomicUsize::new(0));
        for i in 0..3 {
            let cancelled = Arc::clone(&cancelled);
            q.enqueue(make_request(
                i,
                CryptoOp::Prf {
                    secret: vec![],
                    label: vec![],
                    seed: vec![],
                    out_len: 1,
                },
                Box::new(move |result| {
                    assert_eq!(result.unwrap_err(), CryptoError::Cancelled);
                    cancelled.fetch_add(1, Ordering::SeqCst);
                }),
            ));
        }
        assert_eq!(q.drain_failing(CryptoError::Cancelled), 3);
        assert_eq!(cancelled.load(Ordering::SeqCst), 3);
        assert!(q.is_empty());
        // Idempotent on an empty queue.
        assert_eq!(q.drain_failing(CryptoError::Cancelled), 0);
    }

    #[test]
    fn backpressure_policy_shapes() {
        let bp = Backpressure::default();
        // Event loop: always pause/reschedule, never wait in place.
        assert_eq!(
            bp.action(0, SubmitContext::EventLoop),
            FullAction::Reschedule
        );
        assert_eq!(
            bp.action(999, SubmitContext::EventLoop),
            FullAction::Reschedule
        );
        // Self-polling caller: always yield (each retry drains responses).
        assert_eq!(
            bp.action(0, SubmitContext::BlockingSelfPoll),
            FullAction::Yield
        );
        assert_eq!(
            bp.action(10_000, SubmitContext::BlockingSelfPoll),
            FullAction::Yield
        );
        // External-poller caller: bounded spin, then escalating parks.
        let cfg = BackpressureConfig::default();
        assert_eq!(
            bp.action(cfg.spin_yields - 1, SubmitContext::BlockingWait),
            FullAction::Yield
        );
        let first = match bp.action(cfg.spin_yields, SubmitContext::BlockingWait) {
            FullAction::Park(d) => d,
            other => panic!("expected park, got {other:?}"),
        };
        assert_eq!(first, cfg.park_initial);
        let second = match bp.action(cfg.spin_yields + 1, SubmitContext::BlockingWait) {
            FullAction::Park(d) => d,
            other => panic!("expected park, got {other:?}"),
        };
        assert_eq!(second, cfg.park_initial * 2);
        // ...capped at park_max no matter how long the ring stays full.
        let late = match bp.action(u32::MAX, SubmitContext::BlockingWait) {
            FullAction::Park(d) => d,
            other => panic!("expected park, got {other:?}"),
        };
        assert_eq!(late, cfg.park_max);
    }
}
