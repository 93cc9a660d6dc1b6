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
//! cursor publish and one engine doorbell instead of N. Every sweep
//! boundary publishes whatever is staged: nothing is held back to let a
//! batch deepen, and nothing skips the stage (DESIGN.md §9).

use qtls_crypto::CryptoError;
use qtls_qat::{CryptoInstance, CryptoRequest};
use qtls_sync::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

/// A per-worker staging queue for crypto submissions. Requests enqueued
/// during an event-loop sweep are published to the device ring in one
/// batch at the sweep boundary, paying one cursor publish and one
/// doorbell for the whole sweep. The queue is unbounded: ring-full
/// shows up as deferral at flush time, never as an enqueue failure.
#[derive(Default)]
pub struct SubmitQueue {
    pending: Mutex<VecDeque<CryptoRequest>>,
    stats: SubmitStats,
    /// Optional obs-plane flight recorder and the shard index this
    /// queue feeds (events are per-sweep, so the lock is off the
    /// per-request path).
    recorder: Mutex<Option<(Arc<crate::obs::FlightRecorder>, u32)>>,
}

impl SubmitQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
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

    /// Publish everything staged to `instance` in one batched submit —
    /// the sweep boundary calls this every time there is something
    /// staged. Requests the ring cannot take stay queued (FIFO) for the
    /// next flush.
    pub fn flush(&self, instance: &CryptoInstance) -> FlushReport {
        let mut pending = self.pending.lock();
        let depth = pending.len();
        if depth == 0 {
            return FlushReport::default();
        }
        let submitted = instance.submit_batch(&mut pending);
        let deferred = pending.len();
        drop(pending);
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

    #[test]
    fn a_lone_request_goes_out_on_the_next_flush() {
        let dev = engineless_device(16);
        let inst = dev.alloc_instance();
        let q = SubmitQueue::new();
        q.enqueue(prf_request(1));
        // Even a depth-1 batch goes out on the very next sweep boundary.
        let report = q.flush(&inst);
        assert_eq!(report.submitted, 1);
        assert!(q.is_empty());
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
