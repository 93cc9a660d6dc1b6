//! Crypto request/response types carried on the QAT rings.
//!
//! Requests carry full payloads so the device model can *actually
//! execute* the operation in real-compute mode; in timed mode the same
//! descriptors drive the calibrated service-time model.

use qtls_crypto::bn::Bn;
use qtls_crypto::ecc::NamedCurve;
use qtls_crypto::rsa::RsaPrivateKey;
use qtls_crypto::{CbcHmacSha1, CryptoError};
use std::sync::Arc;

/// Coarse operation classes matching the paper's inflight counters
/// (`R_asym`, `R_cipher`, `R_prf` in §4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Asymmetric-key calculation (RSA, ECDSA, ECDH).
    Asym,
    /// Symmetric chained cipher (AES-CBC + HMAC record protection).
    Cipher,
    /// Pseudo-random function / key derivation.
    Prf,
}

/// A crypto operation descriptor (the "request" content).
#[derive(Clone, Debug)]
pub enum CryptoOp {
    /// RSA private-key signature (PKCS#1 v1.5 + SHA-256).
    RsaSign {
        /// Signing key (shared; the paper notes QAT can keep keys inside
        /// the ASIC — here the `Arc` stands in for the key handle).
        key: Arc<RsaPrivateKey>,
        /// Message to sign.
        msg: Vec<u8>,
    },
    /// RSA private-key decryption of an encrypted premaster secret.
    RsaDecrypt {
        /// Decryption key.
        key: Arc<RsaPrivateKey>,
        /// PKCS#1 v1.5 ciphertext.
        ciphertext: Vec<u8>,
    },
    /// ECDSA signature over `msg` (SHA-256).
    EcdsaSign {
        /// Curve.
        curve: NamedCurve,
        /// Private scalar.
        key: Arc<Bn>,
        /// Message to sign.
        msg: Vec<u8>,
        /// Deterministic seed for the nonce RNG (keeps the device model
        /// reproducible).
        nonce_seed: u64,
    },
    /// Ephemeral EC key generation (server ECDHE share).
    EcKeygen {
        /// Curve.
        curve: NamedCurve,
        /// Deterministic seed for key material.
        seed: u64,
    },
    /// ECDH shared-secret derivation.
    EcdhDerive {
        /// Curve.
        curve: NamedCurve,
        /// Our private scalar.
        private: Bn,
        /// Peer public point, X9.62 uncompressed.
        peer: Vec<u8>,
    },
    /// TLS 1.2 PRF expansion.
    Prf {
        /// Secret.
        secret: Vec<u8>,
        /// Label (e.g. `b"master secret"`).
        label: Vec<u8>,
        /// Seed.
        seed: Vec<u8>,
        /// Output length.
        out_len: usize,
    },
    /// AES-128-CBC + HMAC-SHA1 record encryption (MAC-then-encrypt).
    CipherEncrypt {
        /// The direction's keyed cipher+hash session.
        cipher: Arc<CbcHmacSha1>,
        /// Explicit IV.
        iv: [u8; 16],
        /// Plaintext fragment (≤ 16 KB).
        plaintext: Vec<u8>,
        /// MAC additional data (seq num + record header).
        aad: Vec<u8>,
    },
    /// AES-128-CBC + HMAC-SHA1 record decryption + MAC check.
    CipherDecrypt {
        /// The direction's keyed cipher+hash session.
        cipher: Arc<CbcHmacSha1>,
        /// Explicit IV.
        iv: [u8; 16],
        /// Ciphertext.
        ciphertext: Vec<u8>,
        /// MAC additional data.
        aad: Vec<u8>,
    },
    /// In-place record seal for the data plane: `buf` carries the
    /// plaintext fragment in a reusable buffer with capacity reserved
    /// for tag + padding; the response returns the same buffer holding
    /// the ciphertext (models a DMA-style in-place transform — no
    /// per-record allocation on either side).
    CipherSealInPlace {
        /// The direction's keyed cipher+hash session, shared by every
        /// descriptor of the connection (as a QAT session handle is).
        cipher: Arc<CbcHmacSha1>,
        /// Explicit IV.
        iv: [u8; 16],
        /// Plaintext in, ciphertext out (same buffer).
        buf: Vec<u8>,
        /// Fixed-size MAC additional data: `seq || type || version`.
        aad: [u8; 11],
    },
    /// In-place record open: `buf` carries the ciphertext (without the
    /// explicit IV); the response returns the same buffer truncated to
    /// the verified content.
    CipherOpenInPlace {
        /// The direction's keyed cipher+hash session.
        cipher: Arc<CbcHmacSha1>,
        /// Explicit IV.
        iv: [u8; 16],
        /// Ciphertext in, plaintext out (same buffer).
        buf: Vec<u8>,
        /// Fixed-size MAC additional data: `seq || type || version`.
        aad: [u8; 11],
    },
}

impl CryptoOp {
    /// Classify for the inflight counters and the service-time table.
    pub fn class(&self) -> OpClass {
        match self {
            CryptoOp::RsaSign { .. }
            | CryptoOp::RsaDecrypt { .. }
            | CryptoOp::EcdsaSign { .. }
            | CryptoOp::EcKeygen { .. }
            | CryptoOp::EcdhDerive { .. } => OpClass::Asym,
            CryptoOp::Prf { .. } => OpClass::Prf,
            CryptoOp::CipherEncrypt { .. }
            | CryptoOp::CipherDecrypt { .. }
            | CryptoOp::CipherSealInPlace { .. }
            | CryptoOp::CipherOpenInPlace { .. } => OpClass::Cipher,
        }
    }
}

/// Result payload of a completed operation.
#[derive(Clone, Debug)]
pub enum CryptoOutput {
    /// Raw bytes (signature, shared secret, key block, ciphertext...).
    Bytes(Vec<u8>),
    /// A generated EC key pair.
    KeyPair {
        /// Private scalar.
        private: Bn,
        /// Public point, X9.62 uncompressed.
        public: Vec<u8>,
    },
}

impl CryptoOutput {
    /// The byte payload; panics if this is a key pair.
    pub fn into_bytes(self) -> Vec<u8> {
        match self {
            CryptoOutput::Bytes(b) => b,
            CryptoOutput::KeyPair { .. } => panic!("expected bytes, got key pair"),
        }
    }
}

/// Completion callback invoked when the response is retrieved by a poll
/// (the paper's "pre-registered response callback", §3.2).
pub type ResponseCallback = Box<dyn FnOnce(CryptoResult) + Send>;

/// The outcome delivered to the response callback.
pub type CryptoResult = Result<CryptoOutput, CryptoError>;

/// A request as submitted onto a QAT request ring.
pub struct CryptoRequest {
    /// Caller-assigned opaque cookie (diagnostics).
    pub cookie: u64,
    /// The operation.
    pub op: CryptoOp,
    /// Callback to invoke at response-retrieval time.
    pub callback: ResponseCallback,
    /// Phase-trace stamps (all zero unless [`crate::trace`] is on).
    pub trace: crate::trace::ReqTrace,
}

/// A response as read back from a QAT response ring.
pub struct CryptoResponse {
    /// Cookie of the originating request.
    pub cookie: u64,
    /// Operation class (for counter bookkeeping).
    pub class: OpClass,
    /// Result payload.
    pub result: CryptoResult,
    /// Callback registered at submission time.
    pub callback: ResponseCallback,
    /// Phase-trace stamps copied from the originating request.
    pub trace: crate::trace::ReqTrace,
}

/// MAC-then-encrypt one record **in place** under one-shot keys: a thin
/// wrapper that keys a [`CbcHmacSha1`] for this call only. Anything that
/// seals more than one record holds the context instead.
pub fn seal_in_place(
    enc_key: &[u8; 16],
    mac_key: &[u8],
    iv: &[u8; 16],
    buf: &mut Vec<u8>,
    aad: &[u8],
) -> Result<(), CryptoError> {
    CbcHmacSha1::new(enc_key, mac_key).seal_in_place(iv, buf, aad)
}

/// Decrypt + verify one record **in place** under one-shot keys (see
/// [`seal_in_place`]).
pub fn open_in_place(
    enc_key: &[u8; 16],
    mac_key: &[u8],
    iv: &[u8; 16],
    buf: &mut Vec<u8>,
    aad: &[u8],
) -> Result<(), CryptoError> {
    CbcHmacSha1::new(enc_key, mac_key).open_in_place(iv, buf, aad)
}

/// Execute an operation, consuming the descriptor — the engine-thread
/// entry point. In-place cipher ops transform their carried buffer and
/// hand it back through the response, so the data plane's record
/// buffers round-trip device-side without a copy or allocation; every
/// other op delegates to [`execute`].
pub fn execute_owned(op: CryptoOp) -> CryptoResult {
    match op {
        CryptoOp::CipherSealInPlace {
            cipher,
            iv,
            mut buf,
            aad,
        } => {
            cipher.seal_in_place(&iv, &mut buf, &aad)?;
            Ok(CryptoOutput::Bytes(buf))
        }
        CryptoOp::CipherOpenInPlace {
            cipher,
            iv,
            mut buf,
            aad,
        } => {
            cipher.open_in_place(&iv, &mut buf, &aad)?;
            Ok(CryptoOutput::Bytes(buf))
        }
        other => execute(&other),
    }
}

/// Execute an operation using the software crypto substrate — this is
/// what a QAT computation engine "does" in real-compute mode.
pub fn execute(op: &CryptoOp) -> CryptoResult {
    use qtls_crypto::{ecc, kdf, TestRng};
    match op {
        CryptoOp::RsaSign { key, msg } => key.sign_pkcs1_sha256(msg).map(CryptoOutput::Bytes),
        CryptoOp::RsaDecrypt { key, ciphertext } => {
            key.decrypt_pkcs1(ciphertext).map(CryptoOutput::Bytes)
        }
        CryptoOp::EcdsaSign {
            curve,
            key,
            msg,
            nonce_seed,
        } => {
            let mut rng = TestRng::new(*nonce_seed);
            let sig = ecc::ecdsa_sign(*curve, key, msg, &mut rng);
            Ok(CryptoOutput::Bytes(sig.to_bytes(*curve)))
        }
        CryptoOp::EcKeygen { curve, seed } => {
            let mut rng = TestRng::new(*seed);
            let kp = ecc::generate_keypair(*curve, &mut rng);
            Ok(CryptoOutput::KeyPair {
                public: ecc::encode_point(*curve, &kp.public),
                private: kp.private,
            })
        }
        CryptoOp::EcdhDerive {
            curve,
            private,
            peer,
        } => {
            let peer_pt = ecc::decode_point(*curve, peer)?;
            ecc::ecdh(*curve, private, &peer_pt).map(CryptoOutput::Bytes)
        }
        CryptoOp::Prf {
            secret,
            label,
            seed,
            out_len,
        } => Ok(CryptoOutput::Bytes(kdf::prf_tls12(
            secret, label, seed, *out_len,
        ))),
        CryptoOp::CipherEncrypt {
            cipher,
            iv,
            plaintext,
            aad,
        } => cipher.seal(iv, plaintext, aad).map(CryptoOutput::Bytes),
        CryptoOp::CipherDecrypt {
            cipher,
            iv,
            ciphertext,
            aad,
        } => cipher.open(iv, ciphertext, aad).map(CryptoOutput::Bytes),
        // By-reference callers (benches, service-time probes) get a
        // copying fallback; the engine threads go through
        // [`execute_owned`] and stay allocation-free.
        CryptoOp::CipherSealInPlace {
            cipher,
            iv,
            buf,
            aad,
        } => cipher.seal(iv, buf, aad).map(CryptoOutput::Bytes),
        CryptoOp::CipherOpenInPlace {
            cipher,
            iv,
            buf,
            aad,
        } => cipher.open(iv, buf, aad).map(CryptoOutput::Bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtls_crypto::test_keys::test_rsa_1024;

    #[test]
    fn op_classes() {
        let key = Arc::new(test_rsa_1024().clone());
        assert_eq!(
            CryptoOp::RsaSign {
                key: key.clone(),
                msg: vec![]
            }
            .class(),
            OpClass::Asym
        );
        assert_eq!(
            CryptoOp::Prf {
                secret: vec![],
                label: vec![],
                seed: vec![],
                out_len: 8
            }
            .class(),
            OpClass::Prf
        );
        assert_eq!(
            CryptoOp::CipherEncrypt {
                cipher: Arc::new(CbcHmacSha1::new(&[0; 16], &[])),
                iv: [0; 16],
                plaintext: vec![],
                aad: vec![]
            }
            .class(),
            OpClass::Cipher
        );
    }

    #[test]
    fn execute_rsa_sign() {
        let key = Arc::new(test_rsa_1024().clone());
        let out = execute(&CryptoOp::RsaSign {
            key: key.clone(),
            msg: b"hello".to_vec(),
        })
        .unwrap()
        .into_bytes();
        key.public().verify_pkcs1_sha256(b"hello", &out).unwrap();
    }

    #[test]
    fn execute_prf() {
        let out = execute(&CryptoOp::Prf {
            secret: b"sec".to_vec(),
            label: b"master secret".to_vec(),
            seed: b"randoms".to_vec(),
            out_len: 48,
        })
        .unwrap()
        .into_bytes();
        assert_eq!(out.len(), 48);
        assert_eq!(
            out,
            qtls_crypto::kdf::prf_tls12(b"sec", b"master secret", b"randoms", 48)
        );
    }

    #[test]
    fn execute_cipher_roundtrip() {
        let cipher = Arc::new(CbcHmacSha1::new(&[1; 16], &[2; 20]));
        let enc = CryptoOp::CipherEncrypt {
            cipher: Arc::clone(&cipher),
            iv: [3; 16],
            plaintext: b"application data record".to_vec(),
            aad: b"seq+hdr".to_vec(),
        };
        let ct = execute(&enc).unwrap().into_bytes();
        assert_eq!(ct.len() % 16, 0);
        let dec = CryptoOp::CipherDecrypt {
            cipher: Arc::clone(&cipher),
            iv: [3; 16],
            ciphertext: ct.clone(),
            aad: b"seq+hdr".to_vec(),
        };
        assert_eq!(
            execute(&dec).unwrap().into_bytes(),
            b"application data record"
        );
        // Wrong AAD -> MAC failure.
        let bad = CryptoOp::CipherDecrypt {
            cipher,
            iv: [3; 16],
            ciphertext: ct,
            aad: b"tampered".to_vec(),
        };
        assert!(matches!(execute(&bad), Err(CryptoError::BadMac)));
    }

    #[test]
    fn in_place_ops_hand_the_same_buffer_back() {
        let cipher = Arc::new(CbcHmacSha1::new(&[1; 16], &[2; 20]));
        let aad = [7u8; 11];
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(b"bulk record payload");
        let ptr = buf.as_ptr();
        let sealed = execute_owned(CryptoOp::CipherSealInPlace {
            cipher: Arc::clone(&cipher),
            iv: [3; 16],
            buf,
            aad,
        })
        .unwrap()
        .into_bytes();
        assert_eq!(sealed.as_ptr(), ptr, "sealed in the caller's buffer");
        // The one-shot wrappers key the same context.
        let mut oneshot = b"bulk record payload".to_vec();
        seal_in_place(&[1; 16], &[2; 20], &[3; 16], &mut oneshot, &aad).unwrap();
        assert_eq!(oneshot, sealed);
        open_in_place(&[1; 16], &[2; 20], &[3; 16], &mut oneshot, &aad).unwrap();
        assert_eq!(oneshot, b"bulk record payload");
        // Open in place recovers the content and truncates the buffer.
        let opened = execute_owned(CryptoOp::CipherOpenInPlace {
            cipher: Arc::clone(&cipher),
            iv: [3; 16],
            buf: sealed.clone(),
            aad,
        })
        .unwrap()
        .into_bytes();
        assert_eq!(opened, b"bulk record payload");
        // Tampered AAD fails the MAC.
        let mut bad_aad = aad;
        bad_aad[0] ^= 1;
        assert!(matches!(
            execute_owned(CryptoOp::CipherOpenInPlace {
                cipher,
                iv: [3; 16],
                buf: sealed,
                aad: bad_aad,
            }),
            Err(CryptoError::BadMac)
        ));
    }

    #[test]
    fn execute_ecdh_keygen_and_derive() {
        use qtls_crypto::ecc::NamedCurve;
        let a = execute(&CryptoOp::EcKeygen {
            curve: NamedCurve::P256,
            seed: 1,
        })
        .unwrap();
        let b = execute(&CryptoOp::EcKeygen {
            curve: NamedCurve::P256,
            seed: 2,
        })
        .unwrap();
        let (
            CryptoOutput::KeyPair {
                private: pa,
                public: qa,
            },
            CryptoOutput::KeyPair {
                private: pb,
                public: qb,
            },
        ) = (a, b)
        else {
            panic!("expected key pairs")
        };
        let s1 = execute(&CryptoOp::EcdhDerive {
            curve: NamedCurve::P256,
            private: pa,
            peer: qb,
        })
        .unwrap()
        .into_bytes();
        let s2 = execute(&CryptoOp::EcdhDerive {
            curve: NamedCurve::P256,
            private: pb,
            peer: qa,
        })
        .unwrap()
        .into_bytes();
        assert_eq!(s1, s2);
    }
}
