//! # qtls-crypto — software cryptography substrate for the QTLS reproduction
//!
//! A from-scratch implementation of every cryptographic primitive the
//! paper's TLS stack needs, standing in for OpenSSL's libcrypto:
//!
//! - [`bn`]/[`mont`]/[`prime`]: arbitrary-precision arithmetic, Montgomery
//!   exponentiation (one multiply, one squaring and one reduction kernel,
//!   shared with [`fp`]) and prime generation;
//! - [`rsa`]: RSA-2048 sign/verify/encrypt/decrypt (PKCS#1 v1.5, CRT);
//! - [`fp`]/[`ec`]: prime-field ECC — NIST P-256 and P-384 (ECDHE, ECDSA):
//!   a fixed-base comb table for `k * G`, width-5 wNAF for the rest;
//! - [`gf2m`]/[`ec2m`]: binary-field ECC — NIST B-283/B-409/K-283/K-409;
//! - [`ecc`]: the unified named-curve API;
//! - [`aes`]/[`sha1`]/[`sha256`]/[`hmac`]: the AES128-SHA record
//!   protection suite and signature digests, and [`cbc_hmac`], the keyed
//!   MAC-then-encrypt context built from them once per direction;
//! - [`kdf`]: the TLS 1.2 PRF and HKDF / HKDF-Expand-Label (TLS 1.3).
//!
//! AES-128-CBC and the SHA-1 / SHA-256 compression functions each have
//! two bodies: portable table / rolled code, and AES-NI / SHA-NI kernels
//! in `x86.rs` picked per call by `is_x86_feature_detected!`
//! (DESIGN.md §20). That file is the only one allowed `unsafe`; the rest
//! of the crate is compiled under `deny(unsafe_code)`.
//!
//! These are the operations the QAT accelerator offloads (RSA, ECC,
//! symmetric chained cipher, PRF) and the CPU computes in the `SW`
//! baseline. The implementation is validated against published test
//! vectors and group-structure checks; it is **not** hardened against
//! timing side channels and must not be used to protect real traffic.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod aes;
#[cfg(test)]
mod aes_oracle;
pub mod bn;
pub mod cbc_hmac;
pub mod ec;
pub mod ec2m;
#[cfg(test)]
mod ec_oracle;
pub mod ecc;
pub mod error;
pub mod fp;
pub mod gf2m;
pub mod hash;
pub mod hmac;
pub mod kdf;
pub mod mont;
pub mod prime;
pub mod rng;
pub mod rsa;
pub mod sha1;
pub mod sha256;
pub mod test_keys;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

pub use bn::Bn;
pub use cbc_hmac::CbcHmacSha1;
pub use error::CryptoError;
pub use rng::{EntropySource, SystemRng, TestRng};
