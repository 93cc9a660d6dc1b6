//! # QTLS — a Rust reproduction of the PPoPP'19 QTLS system
//!
//! *QTLS: High-Performance TLS Asynchronous Offload Framework with
//! Intel® QuickAssist Technology* (Hu et al., PPoPP 2019), rebuilt from
//! scratch in Rust with a software QAT device model in place of the
//! accelerator card.
//!
//! The workspace layers, bottom-up:
//!
//! | crate | role |
//! |---|---|
//! | `qtls-sync` | hermetic std-only locks (`Mutex`/`RwLock`/`Condvar`) + `CachePadded` |
//! | [`crypto`] | from-scratch crypto substrate (RSA, 6 NIST curves, AES-CBC+HMAC, PRF/HKDF) |
//! | [`qat`] | QAT device model: endpoints, engines, lock-free ring pairs, fw_counters |
//! | [`core`] | **the paper's contribution**: polled offload tasks (fiber and stack async kept as ablations), offload engine, heuristic polling, kernel-bypass notification |
//! | [`tls`] | TLS 1.2/1.3 stack with async crypto support in every layer |
//! | [`server`] | event-driven HTTPS worker (mini-nginx) wiring the five configurations |
//! | [`sim`] | discrete-event testbed simulator regenerating every evaluation figure |
//!
//! ## Quickstart
//!
//! ```
//! use qtls::core::{poll_pass, EngineMode, OffloadEngine, WaitCtx};
//! use qtls::qat::{CryptoOp, QatConfig, QatDevice};
//! use std::sync::Arc;
//! use std::task::Poll;
//!
//! // Bring up a (software-modeled) QAT device and an offload engine.
//! let device = QatDevice::new(QatConfig::functional_small());
//! let engine = OffloadEngine::new(device.alloc_instance(), EngineMode::Async);
//!
//! // A service pass is a future the application polls under the pass's
//! // wait context (where it registers how it wants to be notified).
//! let wait = Arc::new(WaitCtx::new());
//! let mut pass = std::pin::pin!(engine.offload_async(CryptoOp::Prf {
//!     secret: b"master".to_vec(),
//!     label: b"key expansion".to_vec(),
//!     seed: b"randoms".to_vec(),
//!     out_len: 104,
//! }));
//!
//! // Pre-processing: the request is submitted and the poll returns —
//! // the crypto pause is `Pending`, a plain return into the event loop.
//! assert!(poll_pass(Some(&wait), pass.as_mut()).is_pending());
//!
//! // QAT response retrieval + post-processing: the next poll picks the
//! // parked result up.
//! while engine.inflight().total() > 0 {
//!     engine.poll_all();
//!     std::thread::yield_now();
//! }
//! match poll_pass(Some(&wait), pass.as_mut()) {
//!     Poll::Ready(result) => assert_eq!(result.unwrap().into_bytes().len(), 104),
//!     Poll::Pending => unreachable!("the result is parked"),
//! }
//! ```
//!
//! See `examples/` for the event-driven HTTPS server and the paper-figure
//! reproductions, and EXPERIMENTS.md for paper-vs-measured results.

#![warn(missing_docs)]

pub mod prop;

pub use qtls_core as core;
pub use qtls_crypto as crypto;
pub use qtls_qat as qat;
pub use qtls_server as server;
pub use qtls_sim as sim;
pub use qtls_tls as tls;
