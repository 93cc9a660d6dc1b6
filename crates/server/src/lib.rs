//! # qtls-server — the event-driven web worker
//!
//! A miniature Nginx: one thread, many connections, non-blocking virtual
//! sockets, an HTTP/1.1 subset, and the QTLS modifications of paper §4.2
//! (a connection is one polled task, whose being parked on an offload
//! is the TLS-ASYNC state; heuristic polling integration; kernel-bypass
//! async queue). All five offload configurations (`SW`,
//! `QAT+S`, `QAT+A`, `QAT+AH`, `QTLS`) are wired end-to-end and can be
//! exercised against the closed-loop load generators in [`loadgen`].

#![warn(missing_docs)]

pub mod admission;
pub mod cluster;
pub mod config_file;
mod conn;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod net;
pub mod sched;
pub mod worker;

pub use cluster::{Cluster, DispatchSnapshot, ShutdownReport};
pub use config_file::{parse_ssl_engine_conf, EngineDirectives};
pub use http::ContentStore;
pub use loadgen::{
    latency_quantile, run_flood_connection, run_keepalive_stream, spawn_clients, spawn_flood,
    ClientConfig, FloodOutcome, FloodStats, LoadStats,
};
pub use metrics::{MetricsConfig, MetricsPlane, StatusSnapshot};
pub use net::{VListener, VSocket};
pub use sched::{least_loaded_pick, DispatchPolicy, SchedShared, DISPATCH_PROBE};
pub use worker::{Worker, WorkerConfig, WorkerStats};
