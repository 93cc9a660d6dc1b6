//! Fiber async: cooperative pausable jobs, mirroring OpenSSL's
//! `ASYNC_JOB` API (paper §4.1, Fig. 6).
//!
//! **Ablation only.** The server runs its service passes as polled
//! tasks ([`crate::task`]); this module is kept as the paper's fiber
//! mechanism so the `framework` bench and the benchmark's
//! `core.fiber_*` probes can measure what a fiber costs next to the
//! task and [`stack`](crate::stack) mechanisms. `scripts/check.sh`
//! fails if `crates/server/src` mentions it.
//!
//! OpenSSL implements fibers with raw stack switching; here each job runs
//! on a dedicated OS thread with a strict *handoff* discipline: exactly
//! one of (caller, job) is runnable at any instant, enforced by a small
//! state machine under a mutex — so a pause or a resume is two condvar
//! handoffs and a start is a thread spawn, which is the cost the task
//! mechanism removes. Semantics match the paper's description:
//!
//! - `start_job(f)` runs `f` until it either finishes or calls
//!   [`pause_job`]; the caller is blocked meanwhile ("fiber context swap").
//! - `pause_job()` (inside the job) returns control to the caller.
//! - `AsyncJob::resume()` jumps back to the pause point.
//! - dropping a paused [`AsyncJob`] cancels it: the job thread unwinds
//!   from its pause point (running the closure's destructors) and is
//!   joined, so an abandoned job strands neither its thread nor what
//!   the closure owned.
//!
//! An engine offload inside a job finds the job's [`WaitCtx`] through
//! the same thread-local a task poll installs, and turns the step's
//! `Pending` into `pause_job()`.

use crate::task;
use crate::wait_ctx::WaitCtx;
use qtls_sync::{Condvar, Mutex};
use std::sync::Arc;

/// Who may run right now.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Turn {
    /// The job thread runs; the caller waits.
    Job,
    /// The caller runs; the job thread waits at its pause point.
    Caller,
    /// The job thread is exiting; its result (or panic) can be joined.
    Done,
    /// The paused job was dropped: unwind from the pause point.
    Cancelled,
}

struct Shared {
    turn: Mutex<Turn>,
    cond: Condvar,
    /// Wait context attached to this job (callback / fd / result slot).
    wait_ctx: Arc<WaitCtx>,
}

/// Hands the turn back when the job thread exits, however it exits — a
/// job that panics must fail its caller's join, not leave it waiting.
struct DoneOnExit(Arc<Shared>);

impl Drop for DoneOnExit {
    fn drop(&mut self) {
        *self.0.turn.lock() = Turn::Done;
        self.0.cond.notify_all();
    }
}

/// Unwind payload of a cancelled job (never reaches a panic hook).
struct JobCancelled;

thread_local! {
    static CURRENT_JOB: std::cell::RefCell<Option<Arc<Shared>>> =
        const { std::cell::RefCell::new(None) };
}

/// Outcome of [`start_job`] / [`AsyncJob::resume`].
pub enum StartResult<R> {
    /// The job function ran to completion.
    Finished(R),
    /// The job paused (`ASYNC_PAUSE`); resume it later.
    Paused(AsyncJob<R>),
}

/// A paused asynchronous job. Dropping it cancels the job.
pub struct AsyncJob<R> {
    shared: Arc<Shared>,
    /// `None` once `resume` has taken the thread over.
    handle: Option<std::thread::JoinHandle<R>>,
}

impl<R> std::fmt::Debug for AsyncJob<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AsyncJob { paused }")
    }
}

/// Start a new fiber-based job (`ASYNC_start_job` with a NULL job).
///
/// Blocks the caller until `f` finishes or pauses.
///
/// # Panics
///
/// Panics if the OS refuses the job thread, and re-raises a panic of
/// `f` — one more reason no production path starts jobs.
pub fn start_job<R, F>(f: F) -> StartResult<R>
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    let shared = Arc::new(Shared {
        turn: Mutex::new(Turn::Job),
        cond: Condvar::new(),
        wait_ctx: Arc::new(WaitCtx::new()),
    });
    let job_shared = Arc::clone(&shared);
    let handle = std::thread::Builder::new()
        .name("async-job".into())
        .spawn(move || {
            let _done = DoneOnExit(Arc::clone(&job_shared));
            let _ctx = task::install(Some(Arc::clone(&job_shared.wait_ctx)));
            CURRENT_JOB.with(|c| *c.borrow_mut() = Some(job_shared));
            f()
        })
        .expect("spawn job thread");
    wait_for_caller_turn(&shared, handle)
}

impl<R: Send + 'static> AsyncJob<R> {
    /// Resume a paused job (`ASYNC_start_job` with an existing job):
    /// control jumps back to the pause point; blocks the caller until the
    /// job pauses again or finishes.
    pub fn resume(mut self) -> StartResult<R> {
        let handle = self.handle.take().expect("a paused job owns its thread");
        {
            let mut turn = self.shared.turn.lock();
            debug_assert_eq!(*turn, Turn::Caller);
            *turn = Turn::Job;
            self.shared.cond.notify_all();
        }
        wait_for_caller_turn(&self.shared, handle)
    }
}

impl<R> AsyncJob<R> {
    /// The wait context of this job (`ASYNC_get_wait_ctx`).
    pub fn wait_ctx(&self) -> &WaitCtx {
        &self.shared.wait_ctx
    }
}

impl<R> Drop for AsyncJob<R> {
    fn drop(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        *self.shared.turn.lock() = Turn::Cancelled;
        self.shared.cond.notify_all();
        // The join result is the cancellation payload; nothing to report.
        let _ = handle.join();
    }
}

/// Block the caller until the job yields (pause or finish).
fn wait_for_caller_turn<R: Send + 'static>(
    shared: &Arc<Shared>,
    handle: std::thread::JoinHandle<R>,
) -> StartResult<R> {
    let mut turn = shared.turn.lock();
    while *turn == Turn::Job {
        shared.cond.wait(&mut turn);
    }
    match *turn {
        Turn::Caller => {
            drop(turn);
            StartResult::Paused(AsyncJob {
                shared: Arc::clone(shared),
                handle: Some(handle),
            })
        }
        Turn::Done => {
            drop(turn);
            match handle.join() {
                Ok(result) => StartResult::Finished(result),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        Turn::Job | Turn::Cancelled => unreachable!("only a dropped job is cancelled"),
    }
}

/// Pause the current job (`ASYNC_pause_job`): returns control to the code
/// that called `start_job`/`resume`. Blocks until resumed.
///
/// Panics when called outside a job — the synchronous path must check
/// [`in_job`] first (mirrors `ASYNC_get_current_job() == NULL`).
pub fn pause_job() {
    let shared = CURRENT_JOB
        .with(|c| c.borrow().clone())
        .expect("pause_job called outside an async job");
    let mut turn = shared.turn.lock();
    debug_assert_eq!(*turn, Turn::Job);
    *turn = Turn::Caller;
    shared.cond.notify_all();
    while *turn == Turn::Caller {
        shared.cond.wait(&mut turn);
    }
    if *turn == Turn::Cancelled {
        drop(turn);
        std::panic::resume_unwind(Box::new(JobCancelled));
    }
}

/// Is the calling code executing inside an async job?
/// (`ASYNC_get_current_job() != NULL`.)
pub fn in_job() -> bool {
    CURRENT_JOB.with(|c| c.borrow().is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn job_without_pause_finishes_immediately() {
        match start_job(|| 42) {
            StartResult::Finished(v) => assert_eq!(v, 42),
            StartResult::Paused(_) => panic!("should not pause"),
        }
    }

    #[test]
    fn pause_and_resume_roundtrip() {
        let steps = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&steps);
        let r = start_job(move || {
            s.fetch_add(1, Ordering::SeqCst);
            pause_job();
            s.fetch_add(1, Ordering::SeqCst);
            "done"
        });
        let StartResult::Paused(job) = r else {
            panic!("expected pause")
        };
        assert_eq!(steps.load(Ordering::SeqCst), 1);
        match job.resume() {
            StartResult::Finished(v) => assert_eq!(v, "done"),
            StartResult::Paused(_) => panic!("should finish"),
        }
        assert_eq!(steps.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn multiple_pauses() {
        let r = start_job(|| {
            let mut acc = 0;
            for i in 1..=3 {
                acc += i;
                pause_job();
            }
            acc
        });
        let mut job = match r {
            StartResult::Paused(j) => j,
            _ => panic!(),
        };
        let mut resumes = 0;
        loop {
            match job.resume() {
                StartResult::Paused(j) => {
                    job = j;
                    resumes += 1;
                }
                StartResult::Finished(v) => {
                    assert_eq!(v, 6);
                    assert_eq!(resumes, 2);
                    break;
                }
            }
        }
    }

    #[test]
    fn in_job_detection() {
        assert!(!in_job());
        match start_job(in_job) {
            StartResult::Finished(inside) => assert!(inside),
            _ => panic!(),
        }
        assert!(!in_job());
    }

    #[test]
    fn many_concurrent_paused_jobs() {
        // The framework's core property: many offload jobs paused at once
        // in one "process" (§3.1 C1, C2, C3 ...).
        let mut jobs = Vec::new();
        for i in 0..64u64 {
            match start_job(move || {
                pause_job();
                i * 2
            }) {
                StartResult::Paused(j) => jobs.push(j),
                _ => panic!(),
            }
        }
        for (i, job) in jobs.into_iter().enumerate() {
            match job.resume() {
                StartResult::Finished(v) => assert_eq!(v, i as u64 * 2),
                _ => panic!(),
            }
        }
    }

    #[test]
    fn wait_ctx_accessible_inside_and_outside() {
        let r = start_job(|| {
            let ctx = task::current_wait_ctx().expect("inside job");
            pause_job();
            ctx
        });
        let StartResult::Paused(job) = r else {
            panic!()
        };
        let outside: *const WaitCtx = job.wait_ctx();
        let StartResult::Finished(inside) = job.resume() else {
            panic!()
        };
        assert!(std::ptr::eq(Arc::as_ptr(&inside), outside));
    }

    #[test]
    fn dropping_a_paused_job_unwinds_and_joins_its_thread() {
        struct CountDrop(Arc<AtomicUsize>);
        impl Drop for CountDrop {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(AtomicUsize::new(0));
        let owned = CountDrop(Arc::clone(&dropped));
        let StartResult::Paused(job) = start_job(move || {
            let _owned = owned;
            pause_job();
            unreachable!("a cancelled job never runs past its pause point");
        }) else {
            panic!("expected pause")
        };
        assert_eq!(dropped.load(Ordering::SeqCst), 0);
        // Drop joins the job thread, so by the time it returns the
        // thread has unwound and released what the closure owned.
        drop(job);
        assert_eq!(dropped.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_panicking_job_fails_its_caller_instead_of_hanging_it() {
        let caught = std::panic::catch_unwind(|| start_job(|| -> u32 { panic!("job failed") }));
        assert!(caught.is_err());
    }
}
