//! Per-job wait context — the equivalent of OpenSSL's `ASYNC_WAIT_CTX`
//! extended with the paper's two new members, `callback` and
//! `callback_arg` (§4.4), plus the parked crypto result that the engine
//! stores between pause and resume.
//!
//! The paper's callback and its argument are one [`Waker`] here: the
//! application registers how a completion reaches it
//! ([`WaitCtx::set_waker`], the `SSL_set_async_callback` analogue) and
//! the context is agnostic of the notification scheme behind it — the
//! kernel-bypass queue, the FD baseline or a blocking caller's parker
//! (see [`crate::notify`]).

use qtls_qat::CryptoResult;
use qtls_sync::Mutex;
use std::task::Waker;

#[derive(Default)]
struct Inner {
    /// Result parked by the QAT response callback, consumed at resume.
    result: Option<CryptoResult>,
    /// Set when a submission failed with a full ring; the application
    /// must reschedule the job to retry (§3.2 "failure of crypto
    /// submission").
    needs_retry: bool,
    /// Completion delivery: woken once a result is parked.
    waker: Option<Waker>,
    /// Trace stamp: when the notification was fired for the currently
    /// parked result (obs plane; consumed at resume for the
    /// post-processing phase).
    notified_ns: Option<u64>,
    /// Trace annotation: the shard the last submission from this job
    /// was placed on, and how it left (0 = staged or published,
    /// 2 = backpressure retry). Set by the engine only for
    /// sampled/traced jobs.
    submit_info: Option<(u32, u64)>,
}

/// Wait context shared between the job, the engine and the application.
#[derive(Default)]
pub struct WaitCtx {
    inner: Mutex<Inner>,
}

impl WaitCtx {
    /// Fresh, empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// `SSL_set_async_callback` equivalent: register how a completion
    /// on this context reaches the application. Replaces whatever was
    /// registered before.
    pub fn set_waker(&self, waker: Waker) {
        self.inner.lock().waker = Some(waker);
    }

    /// The registered waker, if any (what a poll of the job runs under).
    pub fn waker(&self) -> Option<Waker> {
        self.inner.lock().waker.clone()
    }

    /// Park a crypto result (called by the QAT response callback) and
    /// wake the registered waker, if any. The waker is chosen under the
    /// lock but woken outside it, so a wake handler may re-enter the
    /// context.
    pub fn complete(&self, result: CryptoResult) {
        let waker = {
            let mut inner = self.inner.lock();
            inner.result = Some(result);
            inner.waker.clone()
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// Take the parked result (called by the engine right after resume).
    pub fn take_result(&self) -> Option<CryptoResult> {
        self.inner.lock().result.take()
    }

    /// Is a result parked and not yet consumed?
    pub fn has_result(&self) -> bool {
        self.inner.lock().result.is_some()
    }

    /// Mark that the submission failed and must be retried.
    pub fn set_retry(&self) {
        self.inner.lock().needs_retry = true;
    }

    /// Consume the retry flag.
    pub fn take_retry(&self) -> bool {
        std::mem::take(&mut self.inner.lock().needs_retry)
    }

    /// Trace stamp (obs plane): record when the notification for the
    /// parked result was fired. Benign race with a fast resume: if the
    /// job consumed the result first, the stale stamp is overwritten or
    /// consumed by the next completion on this context.
    pub fn set_notified_ns(&self, ns: u64) {
        self.inner.lock().notified_ns = Some(ns);
    }

    /// Consume the notification trace stamp, if one was recorded for
    /// the result just taken.
    pub fn take_notified_ns(&self) -> Option<u64> {
        self.inner.lock().notified_ns.take()
    }

    /// Trace annotation (connection tracing): which shard the last
    /// submission went to and whether it was staged or published (0)
    /// or retried on backpressure (2).
    pub fn set_submit_info(&self, shard: u32, path: u64) {
        self.inner.lock().submit_info = Some((shard, path));
    }

    /// Read the last submit annotation, if the engine recorded one.
    pub fn submit_info(&self) -> Option<(u32, u64)> {
        self.inner.lock().submit_info
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtls_qat::CryptoOutput;
    use std::sync::Arc;

    #[test]
    fn result_parking() {
        let ctx = WaitCtx::new();
        assert!(!ctx.has_result());
        ctx.complete(Ok(CryptoOutput::Bytes(vec![1, 2, 3])));
        assert!(ctx.has_result());
        let r = ctx.take_result().unwrap().unwrap().into_bytes();
        assert_eq!(r, vec![1, 2, 3]);
        assert!(!ctx.has_result());
    }

    #[test]
    fn completion_wakes_the_registered_waker_with_its_token() {
        use crate::notify::AsyncQueue;
        let ctx = WaitCtx::new();
        assert!(ctx.waker().is_none());
        let queue = Arc::new(AsyncQueue::<u64>::new());
        ctx.set_waker(queue.waker(91));
        ctx.complete(Ok(CryptoOutput::Bytes(vec![])));
        assert_eq!(queue.drain(), vec![91]);
        assert!(ctx.has_result());
    }

    #[test]
    fn last_registered_waker_wins() {
        use crate::notify::{AsyncQueue, VirtualFd};
        let ctx = WaitCtx::new();
        let fd = Arc::new(VirtualFd::new(1));
        ctx.set_waker(Arc::clone(&fd).into());
        let queue = Arc::new(AsyncQueue::<u64>::new());
        ctx.set_waker(queue.waker(77));
        ctx.complete(Ok(CryptoOutput::Bytes(vec![])));
        assert_eq!(queue.drain(), vec![77]);
        assert!(!fd.is_ready(), "FD path must be bypassed");
    }

    #[test]
    fn retry_flag() {
        let ctx = WaitCtx::new();
        assert!(!ctx.take_retry());
        ctx.set_retry();
        assert!(ctx.take_retry());
        assert!(!ctx.take_retry());
    }
}
