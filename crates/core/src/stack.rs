//! Stack async: the paper's first pause/resume implementation (§4.1,
//! Fig. 5) — "altering the normal sequence of program execution
//! according to the state flag".
//!
//! Instead of swapping fiber contexts, the crypto call is re-entered:
//! the first invocation submits the request, sets the flag to *inflight*
//! and returns a want-async indication; the QAT response callback flips
//! the flag to *ready*; re-invoking the same call "jumps over the crypto
//! submission part to directly consume the crypto result". A failed
//! submission parks the operation in *retry* so the caller can
//! re-schedule it.
//!
//! The paper notes this design "has a good performance but is intrusive"
//! — the caller must perform the careful skipping that fibers give for
//! free.
//!
//! **Ablation only.** The TLS stack here integrates neither hand-written
//! mechanism: its service passes are `async fn` state machines the worker
//! polls ([`crate::task`]) — the compiler does the "careful skipping",
//! so the design is as cheap as stack async without being intrusive.
//! This module stays as the faithful second implementation of the
//! paper's comparison, exercised by tests, the `framework` ablation
//! bench and the benchmark's `core.offload_roundtrip_stack_us` probe.

use crate::engine::OffloadEngine;
use qtls_qat::{CryptoOp, CryptoResult, SubmitFull};
use qtls_sync::Mutex;
use std::sync::Arc;

/// The state flag of Fig. 5.
enum Flag {
    /// No operation outstanding.
    Idle,
    /// Submitted; waiting for the QAT response.
    Inflight,
    /// Response retrieved; result ready for consumption.
    Ready(CryptoResult),
    /// Submission failed (ring full); retry with the stored descriptor.
    Retry(Box<CryptoOp>),
}

/// What a [`StackAsyncOp::drive`] call tells the caller to do next.
pub enum StackPoll {
    /// Request submitted (or still inflight): return control to the
    /// event loop and re-invoke later (`SSL_ERROR_WANT_ASYNC`).
    WantAsync,
    /// The result is ready; the operation is complete.
    Ready(CryptoResult),
    /// Submission failed; the caller must reschedule and re-invoke
    /// (the paper's *retry* flag).
    WantRetry,
}

/// One crypto operation driven through the engine with the stack-async
/// discipline. Reusable: after `Ready` is returned the state is `Idle`
/// again.
pub struct StackAsyncOp {
    flag: Arc<Mutex<Flag>>,
}

impl Default for StackAsyncOp {
    fn default() -> Self {
        Self::new()
    }
}

impl StackAsyncOp {
    /// Fresh, idle operation.
    pub fn new() -> Self {
        StackAsyncOp {
            flag: Arc::new(Mutex::new(Flag::Idle)),
        }
    }

    /// Is a request currently inflight?
    pub fn is_inflight(&self) -> bool {
        matches!(*self.flag.lock(), Flag::Inflight)
    }

    /// Drive the operation one step — the re-enterable crypto API of
    /// Fig. 5. `make_op` is only invoked when a fresh submission is
    /// needed (first call, or after `Ready` reset the state).
    pub fn drive(&self, engine: &OffloadEngine, make_op: impl FnOnce() -> CryptoOp) -> StackPoll {
        // Fast path decisions under the lock; submission outside it.
        let op = {
            let mut flag = self.flag.lock();
            match std::mem::replace(&mut *flag, Flag::Inflight) {
                Flag::Idle => Some(make_op()),
                Flag::Retry(op) => Some(*op),
                Flag::Inflight => return StackPoll::WantAsync,
                Flag::Ready(result) => {
                    *flag = Flag::Idle;
                    return StackPoll::Ready(result);
                }
            }
        };
        let op = op.expect("submission path");
        let slot = Arc::clone(&self.flag);
        let request = qtls_qat::make_request(
            0,
            op,
            Box::new(move |result| {
                *slot.lock() = Flag::Ready(result);
            }),
        );
        match engine.instance().submit(request) {
            Ok(()) => StackPoll::WantAsync,
            Err(SubmitFull(back)) => {
                *self.flag.lock() = Flag::Retry(Box::new(back.op));
                StackPoll::WantRetry
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineMode;
    use qtls_qat::{QatConfig, QatDevice};
    use std::time::{Duration, Instant};

    fn prf_op() -> CryptoOp {
        CryptoOp::Prf {
            secret: b"s".to_vec(),
            label: b"l".to_vec(),
            seed: b"x".to_vec(),
            out_len: 16,
        }
    }

    #[test]
    fn submit_then_consume() {
        let dev = QatDevice::new(QatConfig::functional_small());
        let engine = OffloadEngine::new(dev.alloc_instance(), EngineMode::Async);
        let op = StackAsyncOp::new();
        // First call: submits, wants async.
        assert!(matches!(op.drive(&engine, prf_op), StackPoll::WantAsync));
        assert!(op.is_inflight());
        // Poll until ready, re-driving as the event loop would.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            engine.poll_all();
            match op.drive(&engine, || unreachable!("no resubmission")) {
                StackPoll::WantAsync => {
                    assert!(Instant::now() < deadline, "never completed");
                    std::thread::yield_now();
                }
                StackPoll::Ready(result) => {
                    assert_eq!(result.unwrap().into_bytes().len(), 16);
                    break;
                }
                StackPoll::WantRetry => panic!("no retry expected"),
            }
        }
        // Reusable afterwards.
        assert!(matches!(op.drive(&engine, prf_op), StackPoll::WantAsync));
    }

    #[test]
    fn retry_on_full_ring() {
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 0,
            ring_capacity: 2,
            ..QatConfig::functional_small()
        });
        let engine = OffloadEngine::new(dev.alloc_instance(), EngineMode::Async);
        // Fill the ring.
        let a = StackAsyncOp::new();
        let b = StackAsyncOp::new();
        assert!(matches!(a.drive(&engine, prf_op), StackPoll::WantAsync));
        assert!(matches!(b.drive(&engine, prf_op), StackPoll::WantAsync));
        // Third submission bounces into Retry.
        let c = StackAsyncOp::new();
        assert!(matches!(c.drive(&engine, prf_op), StackPoll::WantRetry));
        // Re-driving retries the stored descriptor (still full → retry).
        assert!(matches!(
            c.drive(&engine, || unreachable!("descriptor is stored")),
            StackPoll::WantRetry
        ));
    }

    #[test]
    fn many_stack_ops_concurrently() {
        // The same concurrency property as fiber async: many operations
        // inflight from one thread, each re-driven to completion.
        let dev = QatDevice::new(QatConfig::functional_small());
        let engine = OffloadEngine::new(dev.alloc_instance(), EngineMode::Async);
        let n = 16;
        let ops: Vec<StackAsyncOp> = (0..n).map(|_| StackAsyncOp::new()).collect();
        for op in &ops {
            assert!(matches!(op.drive(&engine, prf_op), StackPoll::WantAsync));
        }
        let mut done = vec![false; n];
        let deadline = Instant::now() + Duration::from_secs(10);
        while done.iter().any(|d| !d) {
            engine.poll_all();
            for (i, op) in ops.iter().enumerate() {
                if done[i] {
                    continue;
                }
                match op.drive(&engine, || unreachable!("no resubmission")) {
                    StackPoll::Ready(r) => {
                        assert_eq!(r.unwrap().into_bytes().len(), 16);
                        done[i] = true;
                    }
                    StackPoll::WantAsync => {}
                    StackPoll::WantRetry => panic!("no retry expected"),
                }
            }
            assert!(Instant::now() < deadline, "stack ops never completed");
            std::thread::yield_now();
        }
    }
}
