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
//! counts are verified by test, and which algorithms are offloaded is
//! configurable — mirroring the artifact's SSL Engine Framework
//! (`default_algorithm RSA,EC,DH,PKEY_CRYPTO`, `qat_offload_mode`, ...).

use crate::error::TlsError;
use qtls_core::OffloadEngine;
use qtls_crypto::bn::Bn;
use qtls_crypto::ecc::{self, NamedCurve};
use qtls_crypto::kdf;
use qtls_crypto::rsa::RsaPrivateKey;
use qtls_crypto::{CbcHmacSha1, CryptoError, TestRng};
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

/// Which offloadable classes actually go to the accelerator (the
/// `default_algorithm` directive of the artifact's engine framework).
#[derive(Clone, Copy, Debug)]
pub struct OffloadSelection {
    /// Offload RSA/ECC.
    pub asym: bool,
    /// Offload the TLS 1.2 PRF.
    pub prf: bool,
    /// Offload record encryption/decryption.
    pub cipher: bool,
}

impl Default for OffloadSelection {
    fn default() -> Self {
        OffloadSelection {
            asym: true,
            prf: true,
            cipher: true,
        }
    }
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

    fn engine_for(&self, want: impl Fn(&OffloadSelection) -> bool) -> Option<&Arc<OffloadEngine>> {
        match self {
            CryptoProvider::Software => None,
            CryptoProvider::Offload { engine, selection } => want(selection).then_some(engine),
        }
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
        match self.engine_for(|s| s.asym) {
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
        match self.engine_for(|s| s.asym) {
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
        match self.engine_for(|s| s.asym) {
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
        match self.engine_for(|s| s.asym) {
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
        match self.engine_for(|s| s.asym) {
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
        match self.engine_for(|s| s.prf) {
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

    /// Record protection: MAC-then-encrypt with AES-128-CBC + HMAC-SHA1
    /// under the direction's keyed context.
    pub async fn cipher_encrypt(
        &self,
        counters: &mut OpCounters,
        cipher: &Arc<CbcHmacSha1>,
        iv: [u8; 16],
        plaintext: &[u8],
        aad: &[u8],
    ) -> Result<Vec<u8>, TlsError> {
        counters.cipher += 1;
        match self.engine_for(|s| s.cipher) {
            Some(engine) => Ok(Self::run(
                engine,
                CryptoOp::CipherEncrypt {
                    cipher: Arc::clone(cipher),
                    iv,
                    plaintext: plaintext.to_vec(),
                    aad: aad.to_vec(),
                },
            )
            .await?
            .into_bytes()),
            None => cipher.seal(&iv, plaintext, aad).map_err(TlsError::Crypto),
        }
    }

    /// Record decryption + MAC verification. Takes the ciphertext by
    /// value: the software path opens it in place and hands the same
    /// buffer back, the offload path moves it into the descriptor.
    pub async fn cipher_decrypt(
        &self,
        counters: &mut OpCounters,
        cipher: &Arc<CbcHmacSha1>,
        iv: [u8; 16],
        mut ciphertext: Vec<u8>,
        aad: &[u8],
    ) -> Result<Vec<u8>, TlsError> {
        counters.cipher += 1;
        match self.engine_for(|s| s.cipher) {
            Some(engine) => Ok(Self::run(
                engine,
                CryptoOp::CipherDecrypt {
                    cipher: Arc::clone(cipher),
                    iv,
                    ciphertext,
                    aad: aad.to_vec(),
                },
            )
            .await?
            .into_bytes()),
            None => {
                cipher.open_in_place(&iv, &mut ciphertext, aad)?;
                Ok(ciphertext)
            }
        }
    }

    /// Does record crypto go to the accelerator? The record codec uses
    /// this to pick between its in-place software path and the batched
    /// offload path.
    pub fn offloads_cipher(&self) -> bool {
        self.engine_for(|s| s.cipher).is_some()
    }

    /// Batched record protection for the data plane: each op protects one
    /// record, and the engine publishes the whole batch under a single
    /// doorbell ([`OffloadEngine::offload_batch`]). Results come back in
    /// op order. Returns `None` when record crypto is not offloaded (the
    /// caller runs its software path instead).
    pub async fn cipher_batch(
        &self,
        counters: &mut OpCounters,
        ops: Vec<CryptoOp>,
    ) -> Option<Vec<Result<CryptoOutput, CryptoError>>> {
        let engine = self.engine_for(|s| s.cipher)?;
        counters.cipher += ops.len() as u32;
        Some(engine.offload_batch_async(ops).await)
    }
}

#[cfg(test)]
mod tests {
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
    fn software_cipher_roundtrip_via_provider() {
        let p = CryptoProvider::Software;
        let mut c = OpCounters::default();
        let cipher = Arc::new(CbcHmacSha1::new(&[1; 16], &[2; 20]));
        let ct = run_sync(p.cipher_encrypt(&mut c, &cipher, [3; 16], b"data", b"aad")).unwrap();
        let pt = run_sync(p.cipher_decrypt(&mut c, &cipher, [3; 16], ct, b"aad")).unwrap();
        assert_eq!(pt, b"data");
        assert_eq!(c.cipher, 2);
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

    #[test]
    fn offload_provider_blocking_mode() {
        use qtls_core::{EngineMode, OffloadEngine};
        use qtls_qat::{QatConfig, QatDevice};
        let dev = QatDevice::new(QatConfig::functional_small());
        let engine = Arc::new(OffloadEngine::new(
            dev.alloc_instance(),
            EngineMode::Blocking,
        ));
        let p = CryptoProvider::offload(engine);
        let mut c = OpCounters::default();
        let out = run_sync(p.prf(&mut c, b"s", b"master secret", b"r", 48)).unwrap();
        assert_eq!(out, kdf::prf_tls12(b"s", b"master secret", b"r", 48));
        assert_eq!(c.prf, 1);
    }

    #[test]
    fn selection_keeps_unselected_classes_on_cpu() {
        use qtls_core::{EngineMode, OffloadEngine};
        use qtls_qat::{QatConfig, QatDevice};
        let dev = QatDevice::new(QatConfig::functional_small());
        let engine = Arc::new(OffloadEngine::new(
            dev.alloc_instance(),
            EngineMode::Blocking,
        ));
        let p = CryptoProvider::Offload {
            engine: Arc::clone(&engine),
            selection: OffloadSelection {
                asym: true,
                prf: false,
                cipher: false,
            },
        };
        let mut c = OpCounters::default();
        run_sync(p.prf(&mut c, b"s", b"l", b"x", 4)).unwrap();
        // PRF stayed on the CPU: nothing went through the device.
        assert_eq!(dev.fw_counters().total_completed(), 0);
    }
}
