//! The crypto provider: routes TLS crypto operations either to the
//! software substrate (the paper's `SW` configuration) or to the QAT
//! engine (blocking or async per [`qtls_core::EngineMode`]).
//!
//! The offloadable operations are `async fn`s: under an async profile
//! the future is pending while the accelerator works (the crypto pause),
//! everywhere else it is ready the first time it is polled — wrap a call
//! in [`qtls_core::run_sync`] to use one from synchronous code.
//!
//! Every call is counted per class, which is how the Table 1 operation
//! counts are verified by test. Which classes *may* be offloaded is
//! configurable — mirroring the artifact's SSL Engine Framework
//! (`default_algorithm RSA,EC,DH,PKEY_CRYPTO`, `qat_offload_mode`, ...) —
//! and whether an eligible call *is* offloaded is one cost rule, decided
//! in one place (`CryptoProvider::engine_for`, DESIGN.md §21): every
//! asymmetric op goes to the device, a PRF or record-crypto op only when
//! it processes at least [`OffloadSelection::min_sym_bytes`].

use crate::error::TlsError;
use qtls_core::OffloadEngine;
use qtls_crypto::bn::Bn;
use qtls_crypto::ecc::{self, NamedCurve};
use qtls_crypto::kdf;
use qtls_crypto::rsa::RsaPrivateKey;
use qtls_crypto::{CryptoError, TestRng};
use qtls_qat::{CryptoOp, CryptoOutput};
use std::sync::Arc;

/// Per-connection crypto operation counters (Table 1 verification).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// RSA private-key operations.
    pub rsa: u32,
    /// ECC operations (keygen, derive, sign).
    pub ecc: u32,
    /// TLS 1.2 PRF invocations.
    pub prf: u32,
    /// HKDF invocations (extract or expand; TLS 1.3).
    pub hkdf: u32,
    /// Record cipher operations.
    pub cipher: u32,
}

/// Which offloadable classes are eligible for the accelerator (the
/// `default_algorithm` directive of the artifact's engine framework), and
/// how many bytes a symmetric op must process to be worth a round trip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OffloadSelection {
    /// RSA/ECC are eligible; an eligible one always goes to the device.
    pub asym: bool,
    /// The TLS 1.2 PRF is eligible.
    pub prf: bool,
    /// Record encryption/decryption is eligible.
    pub cipher: bool,
    /// An eligible PRF (its output length) or record-crypto pass (its
    /// input bytes) goes to the device only from this size up; below it
    /// the op is cheaper on the CPU than a device round trip.
    pub min_sym_bytes: usize,
}

impl OffloadSelection {
    /// Default [`Self::min_sym_bytes`]: Intel's QAT Engine keeps records
    /// below 2048 bytes on the CPU by default, and at that size a record
    /// op still costs a fraction of a round trip (DESIGN.md §21).
    pub const DEFAULT_MIN_SYM_BYTES: usize = 2048;

    /// The paper's policy, kept as an ablation: every eligible class, and
    /// every op of it, goes to the device whatever its size.
    pub fn offload_everything() -> Self {
        OffloadSelection {
            min_sym_bytes: 0,
            ..OffloadSelection::default()
        }
    }
}

impl Default for OffloadSelection {
    fn default() -> Self {
        OffloadSelection {
            asym: true,
            prf: true,
            cipher: true,
            min_sym_bytes: Self::DEFAULT_MIN_SYM_BYTES,
        }
    }
}

/// What an offloadable call is, as far as the offload rule cares.
enum OpClass {
    Asym,
    /// A TLS 1.2 PRF producing this many bytes.
    Prf(usize),
    /// Record crypto over this many bytes (one pass of records).
    Cipher(usize),
}

/// The provider held by each TLS session.
#[derive(Clone)]
pub enum CryptoProvider {
    /// Compute everything on the CPU (`SW`).
    Software,
    /// Offload selected classes through the QAT engine. Whether a call
    /// blocks (straight offload) or is pending until the response
    /// arrives (async) is the engine's mode.
    Offload {
        /// The per-worker offload engine.
        engine: Arc<OffloadEngine>,
        /// Class selection.
        selection: OffloadSelection,
    },
}

impl CryptoProvider {
    /// An offloading provider with the default selection.
    pub fn offload(engine: Arc<OffloadEngine>) -> Self {
        CryptoProvider::Offload {
            engine,
            selection: OffloadSelection::default(),
        }
    }

    /// The offload rule, and the only place it is decided: the engine an
    /// op of `class` goes to, or `None` to compute it on the CPU.
    fn engine_for(&self, class: OpClass) -> Option<&OffloadEngine> {
        let CryptoProvider::Offload { engine, selection } = self else {
            return None;
        };
        let offload = match class {
            OpClass::Asym => selection.asym,
            OpClass::Prf(bytes) => selection.prf && bytes >= selection.min_sym_bytes,
            OpClass::Cipher(bytes) => selection.cipher && bytes >= selection.min_sym_bytes,
        };
        offload.then_some(engine.as_ref())
    }

    async fn run(engine: &OffloadEngine, op: CryptoOp) -> Result<CryptoOutput, TlsError> {
        engine.offload_async(op).await.map_err(TlsError::Crypto)
    }

    /// RSA PKCS#1 v1.5 signature (SHA-256).
    pub async fn rsa_sign(
        &self,
        counters: &mut OpCounters,
        key: &Arc<RsaPrivateKey>,
        msg: &[u8],
    ) -> Result<Vec<u8>, TlsError> {
        counters.rsa += 1;
        match self.engine_for(OpClass::Asym) {
            Some(engine) => Ok(Self::run(
                engine,
                CryptoOp::RsaSign {
                    key: Arc::clone(key),
                    msg: msg.to_vec(),
                },
            )
            .await?
            .into_bytes()),
            None => key.sign_pkcs1_sha256(msg).map_err(TlsError::Crypto),
        }
    }

    /// RSA PKCS#1 v1.5 decryption of the premaster secret.
    pub async fn rsa_decrypt(
        &self,
        counters: &mut OpCounters,
        key: &Arc<RsaPrivateKey>,
        ciphertext: &[u8],
    ) -> Result<Vec<u8>, TlsError> {
        counters.rsa += 1;
        match self.engine_for(OpClass::Asym) {
            Some(engine) => Ok(Self::run(
                engine,
                CryptoOp::RsaDecrypt {
                    key: Arc::clone(key),
                    ciphertext: ciphertext.to_vec(),
                },
            )
            .await?
            .into_bytes()),
            None => key.decrypt_pkcs1(ciphertext).map_err(TlsError::Crypto),
        }
    }

    /// ECDSA signature (SHA-256) with a deterministic nonce seed.
    pub async fn ecdsa_sign(
        &self,
        counters: &mut OpCounters,
        curve: NamedCurve,
        key: &Arc<Bn>,
        msg: &[u8],
        nonce_seed: u64,
    ) -> Result<Vec<u8>, TlsError> {
        counters.ecc += 1;
        match self.engine_for(OpClass::Asym) {
            Some(engine) => Ok(Self::run(
                engine,
                CryptoOp::EcdsaSign {
                    curve,
                    key: Arc::clone(key),
                    msg: msg.to_vec(),
                    nonce_seed,
                },
            )
            .await?
            .into_bytes()),
            None => {
                let mut rng = TestRng::new(nonce_seed);
                let sig = ecc::ecdsa_sign(curve, key, msg, &mut rng);
                Ok(sig.to_bytes(curve))
            }
        }
    }

    /// Ephemeral EC key generation; returns (private scalar, encoded
    /// public point).
    pub async fn ec_keygen(
        &self,
        counters: &mut OpCounters,
        curve: NamedCurve,
        seed: u64,
    ) -> Result<(Bn, Vec<u8>), TlsError> {
        counters.ecc += 1;
        match self.engine_for(OpClass::Asym) {
            Some(engine) => match Self::run(engine, CryptoOp::EcKeygen { curve, seed }).await? {
                CryptoOutput::KeyPair { private, public } => Ok((private, public)),
                CryptoOutput::Bytes(_) => Err(TlsError::Crypto(CryptoError::InvalidPoint)),
            },
            None => {
                let mut rng = TestRng::new(seed);
                let kp = ecc::generate_keypair(curve, &mut rng);
                Ok((kp.private, ecc::encode_point(curve, &kp.public)))
            }
        }
    }

    /// ECDH shared-secret derivation.
    pub async fn ecdh(
        &self,
        counters: &mut OpCounters,
        curve: NamedCurve,
        private: &Bn,
        peer: &[u8],
    ) -> Result<Vec<u8>, TlsError> {
        counters.ecc += 1;
        match self.engine_for(OpClass::Asym) {
            Some(engine) => Ok(Self::run(
                engine,
                CryptoOp::EcdhDerive {
                    curve,
                    private: private.clone(),
                    peer: peer.to_vec(),
                },
            )
            .await?
            .into_bytes()),
            None => {
                let pt = ecc::decode_point(curve, peer).map_err(TlsError::Crypto)?;
                ecc::ecdh(curve, private, &pt).map_err(TlsError::Crypto)
            }
        }
    }

    /// TLS 1.2 PRF (offloadable).
    pub async fn prf(
        &self,
        counters: &mut OpCounters,
        secret: &[u8],
        label: &[u8],
        seed: &[u8],
        out_len: usize,
    ) -> Result<Vec<u8>, TlsError> {
        counters.prf += 1;
        match self.engine_for(OpClass::Prf(out_len)) {
            Some(engine) => Ok(Self::run(
                engine,
                CryptoOp::Prf {
                    secret: secret.to_vec(),
                    label: label.to_vec(),
                    seed: seed.to_vec(),
                    out_len,
                },
            )
            .await?
            .into_bytes()),
            None => Ok(kdf::prf_tls12(secret, label, seed, out_len)),
        }
    }

    /// HKDF-Extract — **never offloaded**: "the TLS 1.3 protocol
    /// introduces a new key derivation function named HKDF, which cannot
    /// be offloaded through the QAT Engine currently" (§5.2).
    pub fn hkdf_extract(&self, counters: &mut OpCounters, salt: &[u8], ikm: &[u8]) -> Vec<u8> {
        counters.hkdf += 1;
        kdf::hkdf_extract::<qtls_crypto::sha256::Sha256>(salt, ikm)
    }

    /// HKDF-Expand-Label — never offloaded (see [`Self::hkdf_extract`]).
    pub fn hkdf_expand_label(
        &self,
        counters: &mut OpCounters,
        secret: &[u8],
        label: &[u8],
        context: &[u8],
        out_len: usize,
    ) -> Vec<u8> {
        counters.hkdf += 1;
        kdf::hkdf_expand_label(secret, label, context, out_len)
    }

    /// The record layers' one decision per pass: the engine that a pass
    /// processing `bytes` of record crypto goes to, as one offload of one
    /// descriptor per record, a doorbell per chunk
    /// ([`OffloadEngine::offload_chunks_async`]), or `None` to seal or
    /// open the whole pass in place on the CPU.
    pub fn offloads_cipher(&self, bytes: usize) -> Option<&OffloadEngine> {
        self.engine_for(OpClass::Cipher(bytes))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use qtls_core::run_sync;
    use qtls_crypto::test_keys::test_rsa_1024;

    #[test]
    fn software_counts_ops() {
        let p = CryptoProvider::Software;
        let mut c = OpCounters::default();
        let key = Arc::new(test_rsa_1024().clone());
        run_sync(p.rsa_sign(&mut c, &key, b"m")).unwrap();
        run_sync(p.prf(&mut c, b"s", b"l", b"x", 16)).unwrap();
        p.hkdf_extract(&mut c, b"", b"ikm");
        let (_, _) = run_sync(p.ec_keygen(&mut c, NamedCurve::P256, 7)).unwrap();
        assert_eq!(
            c,
            OpCounters {
                rsa: 1,
                ecc: 1,
                prf: 1,
                hkdf: 1,
                cipher: 0
            }
        );
    }

    #[test]
    fn ecdh_agreement_via_provider() {
        let p = CryptoProvider::Software;
        let mut c = OpCounters::default();
        let (priv_a, pub_a) = run_sync(p.ec_keygen(&mut c, NamedCurve::P256, 1)).unwrap();
        let (priv_b, pub_b) = run_sync(p.ec_keygen(&mut c, NamedCurve::P256, 2)).unwrap();
        let s1 = run_sync(p.ecdh(&mut c, NamedCurve::P256, &priv_a, &pub_b)).unwrap();
        let s2 = run_sync(p.ecdh(&mut c, NamedCurve::P256, &priv_b, &pub_a)).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(c.ecc, 4);
    }

    /// A blocking-mode provider over its own device, with `selection`.
    pub(crate) fn blocking(selection: OffloadSelection) -> (CryptoProvider, qtls_qat::QatDevice) {
        use qtls_core::EngineMode;
        use qtls_qat::{QatConfig, QatDevice};
        let dev = QatDevice::new(QatConfig::functional_small());
        let engine = Arc::new(OffloadEngine::new(
            dev.alloc_instance(),
            EngineMode::Blocking,
        ));
        (CryptoProvider::Offload { engine, selection }, dev)
    }

    #[test]
    fn offload_provider_blocking_mode() {
        let (p, dev) = blocking(OffloadSelection::offload_everything());
        let mut c = OpCounters::default();
        let out = run_sync(p.prf(&mut c, b"s", b"master secret", b"r", 48)).unwrap();
        assert_eq!(out, kdf::prf_tls12(b"s", b"master secret", b"r", 48));
        assert_eq!(c.prf, 1);
        assert_eq!(dev.fw_counters().total_completed(), 1);
    }

    #[test]
    fn selection_keeps_unselected_classes_on_cpu() {
        let (p, dev) = blocking(OffloadSelection {
            asym: true,
            prf: false,
            cipher: false,
            min_sym_bytes: 0,
        });
        let mut c = OpCounters::default();
        run_sync(p.prf(&mut c, b"s", b"l", b"x", 4)).unwrap();
        // PRF stayed on the CPU: nothing went through the device.
        assert_eq!(dev.fw_counters().total_completed(), 0);
    }

    #[test]
    fn prfs_stay_inline_while_asymmetric_ops_reach_the_device() {
        let (p, dev) = blocking(OffloadSelection::default());
        let mut c = OpCounters::default();
        // The largest TLS 1.2 PRF output here is a 104-byte key block.
        let out = run_sync(p.prf(&mut c, b"s", b"key expansion", b"r", 104)).unwrap();
        assert_eq!(out, kdf::prf_tls12(b"s", b"key expansion", b"r", 104));
        assert_eq!(dev.fw_counters().total_completed(), 0);
        let key = Arc::new(test_rsa_1024().clone());
        let sig = run_sync(p.rsa_sign(&mut c, &key, b"m")).unwrap();
        assert_eq!(sig, key.sign_pkcs1_sha256(b"m").unwrap());
        assert_eq!(dev.fw_counters().total_completed(), 1);
    }

    #[test]
    fn min_sym_bytes_zero_sends_everything() {
        let (p, dev) = blocking(OffloadSelection::offload_everything());
        let mut c = OpCounters::default();
        run_sync(p.prf(&mut c, b"s", b"l", b"x", 1)).unwrap();
        run_sync(p.ec_keygen(&mut c, NamedCurve::P256, 7)).unwrap();
        assert_eq!(dev.fw_counters().total_completed(), 2);
        assert!(p.offloads_cipher(0).is_some());
    }
}
