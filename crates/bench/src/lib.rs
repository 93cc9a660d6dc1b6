//! # qtls-bench — crypto micro-benchmarks
//!
//! - `src/harness.rs`: the hermetic std-only micro-benchmark harness
//!   (criterion-compatible subset) the bench below runs on;
//! - `benches/crypto.rs`: micro-benchmarks of the software crypto
//!   substrate (the per-op costs behind the `SW` baseline), each
//!   hardware-dispatched kernel beside its portable twin.
//!
//! Everything else is measured end to end, layer by layer, by the
//! `benchmark/` package.

#![warn(missing_docs)]

pub mod harness;
