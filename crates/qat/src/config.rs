//! QAT device configuration and the calibrated service-time table.
//!
//! The service-time table is shared between the threaded device model
//! (timed mode) and the discrete-event simulator in `qtls-sim`, so that
//! both describe the same accelerator.

use crate::request::{CryptoOp, OpClass};
use qtls_crypto::ecc::NamedCurve;

/// Per-operation engine service times, in nanoseconds.
///
/// Calibration anchors (see DESIGN.md §5): an Intel DH8970 card has three
/// endpoints; with 12 engines each, 330 µs per RSA-2048 private operation
/// and 8 µs per PRF, a TLS-RSA handshake (1 RSA + 4 PRF) costs ≈362 µs of
/// engine time, so the card sustains ≈99K handshakes/s — the paper's
/// "upper limit of the DH8970" of ≈100K CPS (Fig. 7a). The P-256 time
/// yields the ≈40K CPS ECDHE-RSA limit of Fig. 7b.
#[derive(Clone, Debug)]
pub struct ServiceTable {
    /// RSA-2048 private-key op (sign or decrypt).
    pub rsa2048_ns: u64,
    /// P-256 point multiplication (ECDSA sign / ECDH op).
    pub ecc_p256_ns: u64,
    /// P-384 point multiplication.
    pub ecc_p384_ns: u64,
    /// Binary-curve (283-bit) point multiplication.
    pub ecc_b283_ns: u64,
    /// Binary-curve (409-bit) point multiplication.
    pub ecc_b409_ns: u64,
    /// One PRF expansion.
    pub prf_ns: u64,
    /// Chained cipher (AES-128-CBC + HMAC-SHA1) per 16 KB record.
    pub cipher_16kb_ns: u64,
}

impl Default for ServiceTable {
    fn default() -> Self {
        ServiceTable {
            rsa2048_ns: 330_000,
            ecc_p256_ns: 290_000,
            ecc_p384_ns: 900_000,
            ecc_b283_ns: 500_000,
            ecc_b409_ns: 1_100_000,
            prf_ns: 8_000,
            cipher_16kb_ns: 117_000,
        }
    }
}

impl ServiceTable {
    /// Service time for a descriptor (cipher ops scale with payload).
    pub fn service_ns(&self, op: &CryptoOp) -> u64 {
        match op {
            CryptoOp::RsaSign { .. } | CryptoOp::RsaDecrypt { .. } => self.rsa2048_ns,
            CryptoOp::EcdsaSign { curve, .. }
            | CryptoOp::EcKeygen { curve, .. }
            | CryptoOp::EcdhDerive { curve, .. } => self.ecc_ns(*curve),
            CryptoOp::Prf { .. } => self.prf_ns,
            CryptoOp::CipherSealInPlace { buf, .. } | CryptoOp::CipherOpenInPlace { buf, .. } => {
                self.cipher_ns(buf.len())
            }
        }
    }

    /// Service time for an ECC operation on `curve`.
    pub fn ecc_ns(&self, curve: NamedCurve) -> u64 {
        match curve {
            NamedCurve::P256 => self.ecc_p256_ns,
            NamedCurve::P384 => self.ecc_p384_ns,
            NamedCurve::B283 | NamedCurve::K283 => self.ecc_b283_ns,
            NamedCurve::B409 | NamedCurve::K409 => self.ecc_b409_ns,
        }
    }

    /// Service time for a cipher operation over `len` bytes
    /// (proportional, with a per-record floor of 1/8 of the 16 KB cost).
    pub fn cipher_ns(&self, len: usize) -> u64 {
        let per_byte = self.cipher_16kb_ns as f64 / (16.0 * 1024.0);
        let floor = self.cipher_16kb_ns / 8;
        ((len as f64 * per_byte) as u64).max(floor)
    }

    /// Service time by class with a representative size (used by
    /// coarse-grained models).
    pub fn class_ns(&self, class: OpClass) -> u64 {
        match class {
            OpClass::Asym => self.rsa2048_ns,
            OpClass::Prf => self.prf_ns,
            OpClass::Cipher => self.cipher_16kb_ns,
        }
    }
}

/// How engine threads "perform" work.
#[derive(Clone, Debug)]
pub enum ServiceMode {
    /// Execute the real crypto operation on the engine thread
    /// (functional mode: results are genuine and verifiable).
    RealCompute,
    /// Sleep the table-specified service time (scaled by `time_scale`)
    /// before executing the real operation — demonstrates accelerator
    /// latency/parallelism behaviour in wall-clock examples while keeping
    /// results genuine. `time_scale` < 1.0 compresses time for tests.
    Timed {
        /// Multiplier applied to every service time.
        time_scale: f64,
    },
}

/// Configuration of a QAT device (one PCIe card).
#[derive(Clone, Debug)]
pub struct QatConfig {
    /// Independent endpoints on the card (DH8970: 3).
    pub endpoints: usize,
    /// Parallel computation engines per endpoint.
    pub engines_per_endpoint: usize,
    /// Capacity of each request/response ring.
    pub ring_capacity: usize,
    /// Engine execution mode.
    pub service_mode: ServiceMode,
    /// Service-time table (used by `Timed` mode and exported to the DES).
    pub service_table: ServiceTable,
}

impl Default for QatConfig {
    fn default() -> Self {
        QatConfig {
            endpoints: 3,
            engines_per_endpoint: 12,
            ring_capacity: 64,
            service_mode: ServiceMode::RealCompute,
            service_table: ServiceTable::default(),
        }
    }
}

impl QatConfig {
    /// A small functional configuration for tests.
    pub fn functional_small() -> Self {
        QatConfig {
            endpoints: 1,
            engines_per_endpoint: 2,
            ring_capacity: 32,
            service_mode: ServiceMode::RealCompute,
            service_table: ServiceTable::default(),
        }
    }

    /// Total engines across all endpoints.
    pub fn total_engines(&self) -> usize {
        self.endpoints * self.engines_per_endpoint
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_card_capacity_anchor() {
        // 36 engines / 380µs ≈ 94.7K RSA ops/s — the paper's ~100K limit.
        let cfg = QatConfig::default();
        let ops_per_sec = cfg.total_engines() as f64 / (cfg.service_table.rsa2048_ns as f64 / 1e9);
        assert!(
            (90_000.0..110_000.0).contains(&ops_per_sec),
            "{ops_per_sec}"
        );
    }

    #[test]
    fn ecdhe_rsa_capacity_anchor() {
        // 1 RSA + 2 P-256 per handshake: engine-seconds per handshake
        // bound the card CPS at ≈40K (paper Fig. 7b).
        let cfg = QatConfig::default();
        let t = &cfg.service_table;
        let per_handshake_ns = t.rsa2048_ns + 2 * t.ecc_p256_ns;
        let cps = cfg.total_engines() as f64 / (per_handshake_ns as f64 / 1e9);
        assert!((34_000.0..46_000.0).contains(&cps), "{cps}");
    }

    #[test]
    fn cipher_scales_with_length() {
        let t = ServiceTable::default();
        assert!(t.cipher_ns(16 * 1024) > t.cipher_ns(4 * 1024));
        assert_eq!(t.cipher_ns(16 * 1024), t.cipher_16kb_ns);
        // Floor for tiny records.
        assert_eq!(t.cipher_ns(1), t.cipher_16kb_ns / 8);
    }
}
