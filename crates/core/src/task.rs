//! Task async: the production pause/resume mechanism. A connection is
//! a compiler-generated state machine (an `async fn` future) that the
//! event loop polls; the *crypto pause* is `Poll::Pending` — a plain
//! return — and the *resume* is the next `poll` — a plain call. No
//! thread, no condvar, no second stack.
//!
//! The application owns its futures and is their executor: it polls a
//! task when the task's [`Waker`] — registered on the task's
//! [`WaitCtx`], the paper's notification callback — has named it, or to
//! retry a full ring, and every poll runs under that waker. What a poll
//! needs besides is the [`WaitCtx`] itself — the rendezvous the engine
//! parks results on — and the engine finds it through the thread-local
//! installed here for the duration of each poll. The legacy
//! [`fiber`](crate::fiber) jobs install theirs the same way, which is
//! how one engine step serves all three drivers.

use crate::fiber;
use crate::wait_ctx::WaitCtx;
use std::cell::RefCell;
use std::future::Future;
use std::pin::{pin, Pin};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

thread_local! {
    static CURRENT: RefCell<Option<Arc<WaitCtx>>> = const { RefCell::new(None) };
}

/// Puts the previous wait context back when a poll ends.
pub(crate) struct Restore(Option<Arc<WaitCtx>>);

impl Drop for Restore {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.0.take());
    }
}

/// Make `ctx` the calling thread's current wait context until the
/// returned guard drops.
pub(crate) fn install(ctx: Option<Arc<WaitCtx>>) -> Restore {
    Restore(CURRENT.with(|c| c.replace(ctx)))
}

/// The wait context of the pass (or fiber job) being run on this
/// thread, if any (`ASYNC_get_wait_ctx` of the current job).
pub fn current_wait_ctx() -> Option<Arc<WaitCtx>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Poll a task once, under the waker registered on `ctx`. With `ctx`
/// installed, every offload the task reaches parks its result there and
/// answers `Pending`; the caller registers its waker on `ctx` *before*
/// the first poll, so no completion can slip past it (a context without
/// one is for a caller that polls on its own schedule). With `None`
/// (profiles that never pause) offloads block in place and never pend.
pub fn poll_pass<F: Future + ?Sized>(
    ctx: Option<&Arc<WaitCtx>>,
    pass: Pin<&mut F>,
) -> Poll<F::Output> {
    let waker = ctx.and_then(|ctx| ctx.waker());
    let _restore = install(ctx.cloned());
    pass.poll(&mut Context::from_waker(
        waker.as_ref().unwrap_or(Waker::noop()),
    ))
}

/// Run `fut` to completion on the calling thread — the synchronous
/// facade over the async call graph. Any task context is masked for the
/// duration, so offloads inside wait in place (blocking, or pausing the
/// enclosing fiber job) and a single poll finishes the future.
pub fn run_sync<F: Future>(fut: F) -> F::Output {
    let _restore = (!fiber::in_job()).then(|| install(None));
    match pin!(fut).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => unreachable!("an offload outside a task context waits in place"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_is_scoped_to_the_poll() {
        let ctx = Arc::new(WaitCtx::new());
        assert!(current_wait_ctx().is_none());
        let mut pass = pin!(async { current_wait_ctx().expect("installed") });
        let Poll::Ready(inside) = poll_pass(Some(&ctx), pass.as_mut()) else {
            panic!("the pass finishes in one poll")
        };
        assert!(Arc::ptr_eq(&inside, &ctx));
        assert!(current_wait_ctx().is_none());
    }

    #[test]
    fn a_poll_runs_under_the_registered_waker() {
        let queue = Arc::new(crate::notify::AsyncQueue::<u64>::new());
        let ctx = Arc::new(WaitCtx::new());
        ctx.set_waker(queue.waker(5));
        let mut pass = pin!(std::future::poll_fn(|cx| {
            cx.waker().wake_by_ref();
            Poll::Ready(())
        }));
        assert!(poll_pass(Some(&ctx), pass.as_mut()).is_ready());
        assert_eq!(queue.drain(), vec![5]);
    }

    #[test]
    fn run_sync_masks_the_task_context() {
        let ctx = Arc::new(WaitCtx::new());
        let mut pass = pin!(async { run_sync(async { current_wait_ctx().is_none() }) });
        assert_eq!(poll_pass(Some(&ctx), pass.as_mut()), Poll::Ready(true));
    }
}
