//! RSA: key generation, raw exponentiation with CRT, and PKCS#1 v1.5
//! signing / verification / encryption / decryption — the asymmetric
//! operations of the TLS-RSA and ECDHE-RSA cipher suites.

use crate::bn::Bn;
use crate::error::CryptoError;
use crate::mont::MontCtx;
use crate::prime::gen_prime;
use crate::rng::EntropySource;
use crate::sha256::Sha256;

/// An RSA public key `(n, e)`.
#[derive(Clone, Debug)]
pub struct RsaPublicKey {
    n: Bn,
    e: Bn,
    ctx: MontCtx,
}

/// An RSA private key with CRT parameters.
#[derive(Clone, Debug)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    /// Private exponent (kept for completeness; CRT path is used).
    d: Bn,
    p: Bn,
    q: Bn,
    /// `d mod (p-1)`
    dp: Bn,
    /// `d mod (q-1)`
    dq: Bn,
    /// `q^{-1} mod p`
    qinv: Bn,
    ctx_p: MontCtx,
    ctx_q: MontCtx,
}

impl RsaPublicKey {
    /// Construct from modulus and public exponent.
    pub fn new(n: Bn, e: Bn) -> Self {
        let ctx = MontCtx::new(n.clone());
        RsaPublicKey { n, e, ctx }
    }

    /// The modulus.
    pub fn modulus(&self) -> &Bn {
        &self.n
    }

    /// The public exponent.
    pub fn exponent(&self) -> &Bn {
        &self.e
    }

    /// Modulus size in bytes (e.g. 256 for RSA-2048).
    pub fn size(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Raw public-key operation `m^e mod n`.
    pub fn raw(&self, m: &Bn) -> Bn {
        self.ctx.mod_exp(m, &self.e)
    }

    /// PKCS#1 v1.5 encryption (block type 2) of `msg`.
    pub fn encrypt_pkcs1<R: EntropySource>(
        &self,
        msg: &[u8],
        rng: &mut R,
    ) -> Result<Vec<u8>, CryptoError> {
        let k = self.size();
        if msg.len() + 11 > k {
            return Err(CryptoError::MessageTooLong);
        }
        // 00 || 02 || PS (nonzero random) || 00 || msg
        let mut em = vec![0u8; k];
        em[1] = 0x02;
        let ps_len = k - msg.len() - 3;
        for b in &mut em[2..2 + ps_len] {
            let mut byte = [0u8];
            loop {
                rng.fill(&mut byte);
                if byte[0] != 0 {
                    break;
                }
            }
            *b = byte[0];
        }
        em[2 + ps_len] = 0x00;
        em[3 + ps_len..].copy_from_slice(msg);
        let c = self.raw(&Bn::from_bytes_be(&em));
        Ok(c.to_bytes_be_padded(k))
    }

    /// PKCS#1 v1.5 signature verification with SHA-256 digest info.
    pub fn verify_pkcs1_sha256(&self, msg: &[u8], sig: &[u8]) -> Result<(), CryptoError> {
        let k = self.size();
        if sig.len() != k {
            return Err(CryptoError::InvalidSignature);
        }
        let s = Bn::from_bytes_be(sig);
        if s >= self.n {
            return Err(CryptoError::InvalidSignature);
        }
        let em = self.raw(&s).to_bytes_be_padded(k);
        let expected = pkcs1_sha256_em(msg, k)?;
        // Not secret data; plain comparison is fine for verification.
        if em == expected {
            Ok(())
        } else {
            Err(CryptoError::InvalidSignature)
        }
    }
}

impl RsaPrivateKey {
    /// Generate a fresh key with modulus size `bits` and `e = 65537`.
    pub fn generate<R: EntropySource>(bits: usize, rng: &mut R) -> Self {
        assert!(
            bits >= 128 && bits.is_multiple_of(2),
            "unsupported key size"
        );
        let e = Bn::from_u64(65537);
        loop {
            let p = gen_prime(bits / 2, rng);
            let q = gen_prime(bits / 2, rng);
            if p == q {
                continue;
            }
            let one = Bn::one();
            let p1 = p.sub(&one);
            let q1 = q.sub(&one);
            let phi = p1.mul(&q1);
            if !phi.gcd(&e).is_one() {
                continue;
            }
            let n = p.mul(&q);
            if n.bit_len() != bits {
                continue;
            }
            let d = e.mod_inv(&phi).expect("gcd checked");
            return Self::from_parts(n, e, d, p, q);
        }
    }

    /// Assemble a key from `(n, e, d, p, q)`, deriving the CRT parameters.
    pub fn from_parts(n: Bn, e: Bn, d: Bn, p: Bn, q: Bn) -> Self {
        let one = Bn::one();
        let dp = d.rem(&p.sub(&one));
        let dq = d.rem(&q.sub(&one));
        let qinv = q.mod_inv(&p).expect("p, q prime");
        let ctx_p = MontCtx::new(p.clone());
        let ctx_q = MontCtx::new(q.clone());
        RsaPrivateKey {
            public: RsaPublicKey::new(n, e),
            d,
            p,
            q,
            dp,
            dq,
            qinv,
            ctx_p,
            ctx_q,
        }
    }

    /// The corresponding public key.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// The private exponent.
    pub fn d(&self) -> &Bn {
        &self.d
    }

    /// The prime factors `(p, q)`.
    pub fn primes(&self) -> (&Bn, &Bn) {
        (&self.p, &self.q)
    }

    /// Raw private-key operation `c^d mod n` using the Chinese Remainder
    /// Theorem (≈4x faster than a direct `mod_exp` on `n`). `c` must be
    /// below `n`: signing encodes below it and decryption checks.
    pub fn raw(&self, c: &Bn) -> Bn {
        debug_assert!(c < &self.public.n, "RSA input not reduced mod n");
        let m1 = self.ctx_p.mod_exp(&c.rem(&self.p), &self.dp);
        let m2 = self.ctx_q.mod_exp(&c.rem(&self.q), &self.dq);
        // h = qinv * (m1 - m2) mod p
        let diff = m1.sub_mod(&m2.rem(&self.p), &self.p);
        let h = self.qinv.mul_mod(&diff, &self.p);
        m2.add(&q_mul(&self.q, &h))
    }

    /// PKCS#1 v1.5 signature with SHA-256 digest info.
    pub fn sign_pkcs1_sha256(&self, msg: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.size();
        let em = pkcs1_sha256_em(msg, k)?;
        let s = self.raw(&Bn::from_bytes_be(&em));
        Ok(s.to_bytes_be_padded(k))
    }

    /// PKCS#1 v1.5 decryption (block type 2).
    pub fn decrypt_pkcs1(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.size();
        if ciphertext.len() != k || k < 11 {
            return Err(CryptoError::DecryptionFailed);
        }
        let c = Bn::from_bytes_be(ciphertext);
        if &c >= self.public.modulus() {
            return Err(CryptoError::DecryptionFailed);
        }
        let em = self.raw(&c).to_bytes_be_padded(k);
        if em[0] != 0x00 || em[1] != 0x02 {
            return Err(CryptoError::DecryptionFailed);
        }
        // Find the 0x00 separator after at least 8 padding bytes.
        let sep = em[2..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(CryptoError::DecryptionFailed)?;
        if sep < 8 {
            return Err(CryptoError::DecryptionFailed);
        }
        Ok(em[sep + 3..].to_vec())
    }
}

/// `q * h` (helper naming the CRT recombination step).
fn q_mul(q: &Bn, h: &Bn) -> Bn {
    q.mul(h)
}

/// DER prefix of the SHA-256 `DigestInfo` structure (RFC 8017 §9.2).
const SHA256_DIGEST_INFO: &[u8] = &[
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// EMSA-PKCS1-v1_5 encoding of a SHA-256 digest into `k` bytes.
fn pkcs1_sha256_em(msg: &[u8], k: usize) -> Result<Vec<u8>, CryptoError> {
    let digest = Sha256::digest(msg);
    let t_len = SHA256_DIGEST_INFO.len() + digest.len();
    if k < t_len + 11 {
        return Err(CryptoError::KeyTooSmall);
    }
    // 00 || 01 || FF.. || 00 || DigestInfo || digest
    let mut em = vec![0xffu8; k];
    em[0] = 0x00;
    em[1] = 0x01;
    let sep = k - t_len - 1;
    em[sep] = 0x00;
    em[sep + 1..sep + 1 + SHA256_DIGEST_INFO.len()].copy_from_slice(SHA256_DIGEST_INFO);
    em[k - digest.len()..].copy_from_slice(&digest);
    Ok(em)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TestRng;
    use crate::test_keys::test_rsa_2048;

    #[test]
    fn keygen_roundtrip_small() {
        let mut rng = TestRng::new(11);
        let key = RsaPrivateKey::generate(512, &mut rng);
        assert_eq!(key.public().modulus().bit_len(), 512);
        let msg = b"hello QTLS";
        let sig = key.sign_pkcs1_sha256(msg).unwrap();
        key.public().verify_pkcs1_sha256(msg, &sig).unwrap();
        assert!(key.public().verify_pkcs1_sha256(b"tampered", &sig).is_err());
    }

    #[test]
    fn crt_matches_plain_exponentiation() {
        let mut rng = TestRng::new(12);
        let key = RsaPrivateKey::generate(256, &mut rng);
        let m = Bn::from_hex("123456789abcdef").unwrap();
        let via_crt = key.raw(&m);
        let plain = m.mod_exp(key.d(), key.public().modulus());
        assert_eq!(via_crt, plain);
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut rng = TestRng::new(13);
        let key = RsaPrivateKey::generate(512, &mut rng);
        let msg = b"premaster secret bytes";
        let ct = key.public().encrypt_pkcs1(msg, &mut rng).unwrap();
        assert_eq!(ct.len(), key.public().size());
        let pt = key.decrypt_pkcs1(&ct).unwrap();
        assert_eq!(pt, msg);
    }

    #[test]
    fn decrypt_rejects_bad_padding() {
        let mut rng = TestRng::new(14);
        let key = RsaPrivateKey::generate(512, &mut rng);
        let garbage = vec![0x17u8; key.public().size()];
        assert!(key.decrypt_pkcs1(&garbage).is_err());
    }

    #[test]
    fn message_too_long_rejected() {
        let mut rng = TestRng::new(15);
        let key = RsaPrivateKey::generate(256, &mut rng);
        let too_long = vec![0u8; key.public().size()];
        assert!(matches!(
            key.public().encrypt_pkcs1(&too_long, &mut rng),
            Err(CryptoError::MessageTooLong)
        ));
    }

    #[test]
    fn embedded_2048_key_sign_verify() {
        let key = test_rsa_2048();
        assert_eq!(key.public().modulus().bit_len(), 2048);
        let msg = b"TLS server key exchange params";
        let sig = key.sign_pkcs1_sha256(msg).unwrap();
        assert_eq!(sig.len(), 256);
        key.public().verify_pkcs1_sha256(msg, &sig).unwrap();
    }

    #[test]
    fn embedded_2048_key_encrypt_decrypt() {
        let key = test_rsa_2048();
        let mut rng = TestRng::new(16);
        let premaster = {
            let mut b = vec![0u8; 48];
            rng.fill(&mut b);
            b
        };
        let ct = key.public().encrypt_pkcs1(&premaster, &mut rng).unwrap();
        assert_eq!(key.decrypt_pkcs1(&ct).unwrap(), premaster);
    }

    #[test]
    fn signature_is_deterministic() {
        let key = test_rsa_2048();
        let a = key.sign_pkcs1_sha256(b"same message").unwrap();
        let b = key.sign_pkcs1_sha256(b"same message").unwrap();
        assert_eq!(a, b);
    }
}
