//! # qtls-core — the TLS asynchronous offload framework
//!
//! This crate is the paper's primary contribution, re-engineered in Rust:
//! the machinery that turns blocking crypto offload into the four-phase
//! asynchronous pipeline of §3.1:
//!
//! 1. **Pre-processing** — [`engine::OffloadEngine`] (a thin
//!    composition of submit/retrieve/notify stages) submits the crypto
//!    request through the device's non-blocking ring API and answers
//!    `Poll::Pending`: the connection that reached the offload is a
//!    future the event loop polls ([`task`]), so the crypto pause is a
//!    plain return into the loop. With a [`pipeline::SubmitQueue`]
//!    attached, submissions are staged per event-loop sweep and
//!    published in one batch (one ring-cursor publish, one doorbell) at
//!    the sweep boundary; ring-full handling everywhere goes through the
//!    single [`pipeline::Backpressure`] policy.
//! 2. **QAT response retrieval** — [`poller::HeuristicPoller`]
//!    implements the heuristic scheme (efficiency threshold, timeliness
//!    rule, failover), with [`poller::TimerPoller`] as the timer-thread
//!    baseline.
//! 3. **Async event notification** — the task's [`std::task::Waker`],
//!    registered on its wait context: [`notify::AsyncQueue`] is the
//!    kernel-bypass channel; [`notify::VirtualFd`] + [`notify::FdSelector`]
//!    model the FD/epoll baseline, with every simulated kernel crossing
//!    counted by [`notify::KernelCostMeter`].
//! 4. **Post-processing** — the next poll of the pass consumes the
//!    parked crypto result from its [`wait_ctx::WaitCtx`] and carries on
//!    from the `.await` it stopped at.
//!
//! The [`obs`] module measures all four phases in the real engine:
//! per-shard log-linear latency histograms keyed by phase × op class, a
//! flight recorder of recent pipeline events, and connection span
//! traces; the server's `/metrics` endpoint exports them.
//!
//! Three pause/resume mechanisms exist, one of them in production:
//! [`task`] — the polled, compiler-generated state machine every server
//! profile runs on — and the paper's two §4.1 implementations, kept
//! only as ablation mechanisms for the `framework` bench and the
//! benchmark's `core.fiber_*` / `core.offload_roundtrip_*` probes:
//! [`fiber`] (OpenSSL's `ASYNC_JOB` shape; here an OS thread per job, so
//! a pause costs two condvar handoffs) and [`stack`] (the original
//! state-flag design). All three drive the engine's one offload step.
//!
//! [`profile::OffloadProfile`] names the five evaluated configurations
//! (`SW`, `QAT+S`, `QAT+A`, `QAT+AH`, `QTLS`) and is shared with the
//! functional server and the simulator.

#![warn(missing_docs)]

pub mod engine;
pub mod fiber;
pub mod notify;
pub mod obs;
pub mod pipeline;
pub mod poller;
pub mod profile;
pub mod stack;
pub mod task;
pub mod wait_ctx;

pub use engine::{
    EngineMode, InflightCounters, Offload, OffloadEngine, RetrieveStage, SubmitStage,
};
pub use fiber::{in_job, pause_job, start_job, AsyncJob, StartResult};
pub use notify::{AsyncQueue, FdSelector, KernelCostMeter, VirtualFd};
pub use obs::{
    EngineObs, EventKind, FlightEvent, FlightRecorder, HistSnapshot, Histogram, Phase, ShardObs,
};
pub use pipeline::{
    Backpressure, BackpressureConfig, DrainReport, FlushReport, FullAction, SubmitContext,
    SubmitQueue, SubmitSnapshot, SubmitStats,
};
pub use poller::{HeuristicConfig, HeuristicPoller, HeuristicStats, PollTrigger, TimerPoller};
pub use profile::{NotifyScheme, OffloadProfile, PollingScheme};
pub use stack::{StackAsyncOp, StackPoll};
pub use task::{current_wait_ctx, poll_pass, run_sync};
pub use wait_ctx::WaitCtx;
