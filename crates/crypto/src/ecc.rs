//! Unified ECC API over the six NIST curves evaluated in the paper
//! (P-256, P-384, B-283, B-409, K-283, K-409): key generation, ECDH and
//! ECDSA with SHA-256.

use crate::bn::Bn;
use crate::ec::{p256, p384, AffinePoint};
use crate::ec2m::{b283, b409, k283, k409};
use crate::error::CryptoError;
use crate::rng::EntropySource;
use crate::sha256::Sha256;

/// The named curves of the paper's evaluation (Fig. 7b/7c).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NamedCurve {
    /// NIST P-256 (secp256r1) — the OpenSSL default, "Montgomery friendly".
    P256,
    /// NIST P-384 (secp384r1).
    P384,
    /// NIST B-283 (binary random curve).
    B283,
    /// NIST B-409.
    B409,
    /// NIST K-283 (Koblitz).
    K283,
    /// NIST K-409.
    K409,
}

impl NamedCurve {
    /// All six curves, in the paper's Figure 7c order.
    pub const ALL: [NamedCurve; 6] = [
        NamedCurve::P256,
        NamedCurve::P384,
        NamedCurve::B283,
        NamedCurve::B409,
        NamedCurve::K283,
        NamedCurve::K409,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            NamedCurve::P256 => "P-256",
            NamedCurve::P384 => "P-384",
            NamedCurve::B283 => "B-283",
            NamedCurve::B409 => "B-409",
            NamedCurve::K283 => "K-283",
            NamedCurve::K409 => "K-409",
        }
    }

    /// IANA "supported groups" codepoint (RFC 8422).
    pub fn iana_id(&self) -> u16 {
        match self {
            NamedCurve::P256 => 23,
            NamedCurve::P384 => 24,
            NamedCurve::B283 => 9,
            NamedCurve::B409 => 11,
            NamedCurve::K283 => 10,
            NamedCurve::K409 => 12,
        }
    }

    /// Look up by IANA codepoint.
    pub fn from_iana_id(id: u16) -> Option<Self> {
        Some(match id {
            23 => NamedCurve::P256,
            24 => NamedCurve::P384,
            9 => NamedCurve::B283,
            11 => NamedCurve::B409,
            10 => NamedCurve::K283,
            12 => NamedCurve::K409,
            _ => return None,
        })
    }

    /// Group order.
    pub fn order(&self) -> &'static Bn {
        match self {
            NamedCurve::P256 => &p256().order,
            NamedCurve::P384 => &p384().order,
            NamedCurve::B283 => &b283().order,
            NamedCurve::B409 => &b409().order,
            NamedCurve::K283 => &k283().order,
            NamedCurve::K409 => &k409().order,
        }
    }

    /// Field element encoding width in bytes.
    pub fn byte_len(&self) -> usize {
        match self {
            NamedCurve::P256 => p256().byte_len,
            NamedCurve::P384 => p384().byte_len,
            NamedCurve::B283 => b283().byte_len,
            NamedCurve::B409 => b409().byte_len,
            NamedCurve::K283 => k283().byte_len,
            NamedCurve::K409 => k409().byte_len,
        }
    }

    /// The base point.
    pub fn generator(&self) -> AffinePoint {
        match self {
            NamedCurve::P256 => p256().generator(),
            NamedCurve::P384 => p384().generator(),
            NamedCurve::B283 => b283().generator(),
            NamedCurve::B409 => b409().generator(),
            NamedCurve::K283 => k283().generator(),
            NamedCurve::K409 => k409().generator(),
        }
    }

    /// Scalar multiplication `k * pt` on this curve.
    pub fn scalar_mul(&self, pt: &AffinePoint, k: &Bn) -> AffinePoint {
        match self {
            NamedCurve::P256 => p256().scalar_mul(pt, k),
            NamedCurve::P384 => p384().scalar_mul(pt, k),
            NamedCurve::B283 => b283().scalar_mul(pt, k),
            NamedCurve::B409 => b409().scalar_mul(pt, k),
            NamedCurve::K283 => k283().scalar_mul(pt, k),
            NamedCurve::K409 => k409().scalar_mul(pt, k),
        }
    }

    /// `k * G` on this curve.
    pub fn scalar_mul_base(&self, k: &Bn) -> AffinePoint {
        match self {
            NamedCurve::P256 => p256().scalar_mul_base(k),
            NamedCurve::P384 => p384().scalar_mul_base(k),
            NamedCurve::B283 => b283().scalar_mul_base(k),
            NamedCurve::B409 => b409().scalar_mul_base(k),
            NamedCurve::K283 => k283().scalar_mul_base(k),
            NamedCurve::K409 => k409().scalar_mul_base(k),
        }
    }

    /// `u1*G + u2*Q` on this curve.
    pub fn double_scalar_mul(&self, u1: &Bn, u2: &Bn, q: &AffinePoint) -> AffinePoint {
        match self {
            NamedCurve::P256 => p256().double_scalar_mul(u1, u2, q),
            NamedCurve::P384 => p384().double_scalar_mul(u1, u2, q),
            NamedCurve::B283 => b283().double_scalar_mul(u1, u2, q),
            NamedCurve::B409 => b409().double_scalar_mul(u1, u2, q),
            NamedCurve::K283 => k283().double_scalar_mul(u1, u2, q),
            NamedCurve::K409 => k409().double_scalar_mul(u1, u2, q),
        }
    }

    /// Is the point on this curve?
    pub fn is_on_curve(&self, pt: &AffinePoint) -> bool {
        match self {
            NamedCurve::P256 => p256().is_on_curve(pt),
            NamedCurve::P384 => p384().is_on_curve(pt),
            NamedCurve::B283 => b283().is_on_curve(pt),
            NamedCurve::B409 => b409().is_on_curve(pt),
            NamedCurve::K283 => k283().is_on_curve(pt),
            NamedCurve::K409 => k409().is_on_curve(pt),
        }
    }
}

/// An EC key pair (private scalar + public point).
#[derive(Clone, Debug)]
pub struct EcKeyPair {
    /// The curve.
    pub curve: NamedCurve,
    /// Private scalar in `[1, n-1]`.
    pub private: Bn,
    /// Public point `private * G`.
    pub public: AffinePoint,
}

/// Generate an ephemeral/static EC key pair on `curve`.
pub fn generate_keypair<R: EntropySource>(curve: NamedCurve, rng: &mut R) -> EcKeyPair {
    let n = curve.order();
    let bound = n.sub(&Bn::one());
    let private = Bn::random_below(rng, &bound).add(&Bn::one()); // [1, n-1]
    let public = curve.scalar_mul_base(&private);
    EcKeyPair {
        curve,
        private,
        public,
    }
}

/// ECDH shared-secret computation: the x-coordinate of
/// `private * peer_public`, encoded to the field width.
///
/// `peer_public` is validated here even though [`decode_point`] already
/// did: this function is public on a raw [`AffinePoint`], and on the
/// prime curves the check is a limb compare and four field products.
pub fn ecdh(
    curve: NamedCurve,
    private: &Bn,
    peer_public: &AffinePoint,
) -> Result<Vec<u8>, CryptoError> {
    if !curve.is_on_curve(peer_public) {
        return Err(CryptoError::InvalidPoint);
    }
    let shared = curve.scalar_mul(peer_public, private);
    if shared.infinity {
        return Err(CryptoError::InvalidPoint);
    }
    Ok(shared.x.to_bytes_be_padded(curve.byte_len()))
}

/// Encode a point in X9.62 uncompressed form: `04 || X || Y`.
pub fn encode_point(curve: NamedCurve, pt: &AffinePoint) -> Vec<u8> {
    assert!(!pt.infinity, "cannot encode the point at infinity");
    let len = curve.byte_len();
    let mut out = Vec::with_capacity(1 + 2 * len);
    out.push(0x04);
    out.extend_from_slice(&pt.x.to_bytes_be_padded(len));
    out.extend_from_slice(&pt.y.to_bytes_be_padded(len));
    out
}

/// Decode an X9.62 uncompressed point, validating curve membership.
pub fn decode_point(curve: NamedCurve, data: &[u8]) -> Result<AffinePoint, CryptoError> {
    let len = curve.byte_len();
    if data.len() != 1 + 2 * len || data[0] != 0x04 {
        return Err(CryptoError::InvalidPoint);
    }
    let pt = AffinePoint::new(
        Bn::from_bytes_be(&data[1..1 + len]),
        Bn::from_bytes_be(&data[1 + len..]),
    );
    if !curve.is_on_curve(&pt) {
        return Err(CryptoError::InvalidPoint);
    }
    Ok(pt)
}

/// An ECDSA signature `(r, s)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EcdsaSignature {
    /// First half.
    pub r: Bn,
    /// Second half.
    pub s: Bn,
}

impl EcdsaSignature {
    /// Fixed-width `r || s` encoding (2 * order width).
    pub fn to_bytes(&self, curve: NamedCurve) -> Vec<u8> {
        let len = curve.order().bit_len().div_ceil(8);
        let mut out = self.r.to_bytes_be_padded(len);
        out.extend_from_slice(&self.s.to_bytes_be_padded(len));
        out
    }

    /// Parse the fixed-width encoding.
    pub fn from_bytes(curve: NamedCurve, data: &[u8]) -> Result<Self, CryptoError> {
        let len = curve.order().bit_len().div_ceil(8);
        if data.len() != 2 * len {
            return Err(CryptoError::InvalidSignature);
        }
        Ok(EcdsaSignature {
            r: Bn::from_bytes_be(&data[..len]),
            s: Bn::from_bytes_be(&data[len..]),
        })
    }
}

/// Truncate a message digest to the bit length of the group order
/// (FIPS 186-4 §6.4).
fn digest_to_scalar(curve: NamedCurve, digest: &[u8]) -> Bn {
    let n_bits = curve.order().bit_len();
    let mut z = Bn::from_bytes_be(digest);
    let d_bits = digest.len() * 8;
    if d_bits > n_bits {
        z = z.shr(d_bits - n_bits);
    }
    z
}

/// ECDSA sign (SHA-256 digest of `msg`).
pub fn ecdsa_sign<R: EntropySource>(
    curve: NamedCurve,
    private: &Bn,
    msg: &[u8],
    rng: &mut R,
) -> EcdsaSignature {
    let n = curve.order();
    let z = digest_to_scalar(curve, &Sha256::digest(msg));
    loop {
        let k = Bn::random_below(rng, &n.sub(&Bn::one())).add(&Bn::one());
        let point = curve.scalar_mul_base(&k);
        let r = point.x.rem(n);
        if r.is_zero() {
            continue;
        }
        let k_inv = k.mod_inv(n).expect("k in [1, n-1], n prime");
        // s = k^-1 (z + r d) mod n
        let s = k_inv.mul_mod(&z.add(&r.mul_mod(private, n)).rem(n), n);
        if s.is_zero() {
            continue;
        }
        return EcdsaSignature { r, s };
    }
}

/// ECDSA verify (SHA-256 digest of `msg`).
pub fn ecdsa_verify(
    curve: NamedCurve,
    public: &AffinePoint,
    msg: &[u8],
    sig: &EcdsaSignature,
) -> Result<(), CryptoError> {
    let n = curve.order();
    let one = Bn::one();
    if sig.r < one || &sig.r >= n || sig.s < one || &sig.s >= n {
        return Err(CryptoError::InvalidSignature);
    }
    if !curve.is_on_curve(public) {
        return Err(CryptoError::InvalidPoint);
    }
    let z = digest_to_scalar(curve, &Sha256::digest(msg));
    let s_inv = sig.s.mod_inv(n).ok_or(CryptoError::InvalidSignature)?;
    let u1 = z.mul_mod(&s_inv, n);
    let u2 = sig.r.mul_mod(&s_inv, n);
    let point = curve.double_scalar_mul(&u1, &u2, public);
    if point.infinity {
        return Err(CryptoError::InvalidSignature);
    }
    if point.x.rem(n) == sig.r {
        Ok(())
    } else {
        Err(CryptoError::InvalidSignature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TestRng;

    #[test]
    fn keypair_public_on_curve() {
        let mut rng = TestRng::new(101);
        for curve in [NamedCurve::P256, NamedCurve::P384] {
            let kp = generate_keypair(curve, &mut rng);
            assert!(curve.is_on_curve(&kp.public), "{curve:?}");
            assert!(!kp.private.is_zero());
            assert!(&kp.private < curve.order());
        }
    }

    #[test]
    fn ecdh_agreement_prime_curves() {
        let mut rng = TestRng::new(102);
        for curve in [NamedCurve::P256, NamedCurve::P384] {
            let alice = generate_keypair(curve, &mut rng);
            let bob = generate_keypair(curve, &mut rng);
            let s1 = ecdh(curve, &alice.private, &bob.public).unwrap();
            let s2 = ecdh(curve, &bob.private, &alice.public).unwrap();
            assert_eq!(s1, s2, "{curve:?}");
            assert_eq!(s1.len(), curve.byte_len());
        }
    }

    #[test]
    fn ecdh_agreement_binary_curves() {
        let mut rng = TestRng::new(103);
        for curve in [NamedCurve::B283, NamedCurve::K283] {
            let alice = generate_keypair(curve, &mut rng);
            let bob = generate_keypair(curve, &mut rng);
            let s1 = ecdh(curve, &alice.private, &bob.public).unwrap();
            let s2 = ecdh(curve, &bob.private, &alice.public).unwrap();
            assert_eq!(s1, s2, "{curve:?}");
        }
    }

    #[test]
    fn ecdh_rejects_off_curve_point() {
        let mut rng = TestRng::new(104);
        let kp = generate_keypair(NamedCurve::P256, &mut rng);
        let bogus = AffinePoint::new(Bn::from_u64(2), Bn::from_u64(3));
        assert_eq!(
            ecdh(NamedCurve::P256, &kp.private, &bogus),
            Err(CryptoError::InvalidPoint)
        );
    }

    #[test]
    fn ecdsa_sign_verify_all_curves() {
        let mut rng = TestRng::new(105);
        for curve in NamedCurve::ALL {
            let kp = generate_keypair(curve, &mut rng);
            let msg = b"server key exchange: curve params + ecdhe pubkey";
            let sig = ecdsa_sign(curve, &kp.private, msg, &mut rng);
            ecdsa_verify(curve, &kp.public, msg, &sig)
                .unwrap_or_else(|e| panic!("{}: {e}", curve.name()));
            assert!(
                ecdsa_verify(curve, &kp.public, b"other message", &sig).is_err(),
                "{}",
                curve.name()
            );
        }
    }

    #[test]
    fn ecdsa_rejects_zero_signature() {
        let mut rng = TestRng::new(106);
        let kp = generate_keypair(NamedCurve::P256, &mut rng);
        let sig = EcdsaSignature {
            r: Bn::zero(),
            s: Bn::one(),
        };
        assert!(ecdsa_verify(NamedCurve::P256, &kp.public, b"m", &sig).is_err());
    }

    #[test]
    fn ecdsa_signature_encoding_roundtrip() {
        let mut rng = TestRng::new(107);
        let kp = generate_keypair(NamedCurve::P256, &mut rng);
        let sig = ecdsa_sign(NamedCurve::P256, &kp.private, b"msg", &mut rng);
        let bytes = sig.to_bytes(NamedCurve::P256);
        assert_eq!(bytes.len(), 64);
        let back = EcdsaSignature::from_bytes(NamedCurve::P256, &bytes).unwrap();
        assert_eq!(back, sig);
    }

    #[test]
    fn point_encoding_roundtrip() {
        let mut rng = TestRng::new(108);
        for curve in [NamedCurve::P256, NamedCurve::B283] {
            let kp = generate_keypair(curve, &mut rng);
            let enc = encode_point(curve, &kp.public);
            assert_eq!(enc.len(), 1 + 2 * curve.byte_len());
            let dec = decode_point(curve, &enc).unwrap();
            assert_eq!(dec, kp.public);
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(decode_point(NamedCurve::P256, &[]).is_err());
        assert!(decode_point(NamedCurve::P256, &[0x02; 65]).is_err());
        let mut valid_len_garbage = vec![0x04u8];
        valid_len_garbage.extend_from_slice(&[0x11; 64]);
        assert!(decode_point(NamedCurve::P256, &valid_len_garbage).is_err());
    }

    #[test]
    fn iana_roundtrip() {
        for c in NamedCurve::ALL {
            assert_eq!(NamedCurve::from_iana_id(c.iana_id()), Some(c));
        }
        assert_eq!(NamedCurve::from_iana_id(9999), None);
    }
}
