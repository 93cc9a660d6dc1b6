//! Deterministic, process-cached test keys.
//!
//! Each RSA key is the one [`RsaPrivateKey::generate`] finds from a
//! fixed seed, but a 2048-bit prime search costs ~200 ms, so the primes are
//! pinned here and a process only assembles the key from them (a test
//! re-runs the search and compares). Every test run and every machine
//! gets the same key material.
//!
//! The test ECDSA keys are pinned the same way. Their private scalars are
//! drawn from [`ECDSA_SEED`] at run time, which costs microseconds, but
//! their public points are pinned: on the binary curves one `d · G`
//! costs 8–17 ms, ≈ 50 ms for the six (a test recomputes them and
//! compares).

use crate::bn::Bn;
use crate::ecc::NamedCurve;
use crate::rsa::RsaPrivateKey;
use std::sync::OnceLock;

static RSA_2048: OnceLock<RsaPrivateKey> = OnceLock::new();
static RSA_1024: OnceLock<RsaPrivateKey> = OnceLock::new();

const P_2048: &str = concat!(
    "de61a396aef27df998dbca1472de112a807bf23635d9b877111c010a5330c9c9",
    "c161fcade49379a76a8c008a8f6a5bb89d4347bb651ce69cabef71c8db601ddb",
    "47a65570c4175504481861b47b48e974a744095cdad346f05a343ce809178a60",
    "cae711a7dd1957164184acec927a65120d9d4762d024264fc9c015abbc57d9dd",
);
const Q_2048: &str = concat!(
    "e3260c4e658ed9d26108a6eea4651082b57ef11ef5d2f8b71ffbf35ac4c00e07",
    "a6ca082cffc669534846c5859df88993860061574922cd070f3c47a3c048d714",
    "9ff4eeba5d95d1831c565ddec90b0275cd5c8c139bb2e6e8a8396ad69a3c6c73",
    "80f2bceecbacfa0cc10b594e7edf9cb081694f60a5496ca705b939a349e15965",
);
const P_1024: &str = concat!(
    "c9986767c53855f77f9f26bf74efab1c3ec071d38efdbe4b6306d2b70a6f6283",
    "21b5e2d0f948f5334c5e728c05a9c10548a6f328848d26a41ac1b19b320644bb",
);
const Q_1024: &str = concat!(
    "c19eac2083406edb403b52ae49f8526c19f8ce1acfad069ba93614b497e69837",
    "70b6c67700faf6aedde3b17129deefe09d0cafdc8bdb085811a04fd80b7a3901",
);

/// The seed of the test ECDSA keys: one private scalar per curve, drawn
/// in [`NamedCurve::ALL`] order as [`crate::ecc::generate_keypair`]
/// draws it ([`crate::ecc::random_scalar`]).
pub const ECDSA_SEED: u64 = 0x5eed_c0f1;

/// The public point of the test ECDSA key on `curve`: `d · G` for the
/// scalar `d` drawn for it from [`ECDSA_SEED`], X9.62 uncompressed.
pub fn test_ecdsa_public_point(curve: NamedCurve) -> Vec<u8> {
    let hex = match curve {
        NamedCurve::P256 => concat!(
            "04678700fbd8f041ef468233ba35b3a95116decdcd9fa5d7b530c0f1307c996048",
            "f087e66495d6a25f4d307d46e6375d9f3ebf3533462397447b9a3b7810dab3a3",
        ),
        NamedCurve::P384 => concat!(
            "04218fead72a25bfa8891ad3194a57db0596a799302bcbeb3cb3068d3364ddef0b",
            "5a2bb5d5165a5a00d3d36d9f38d02ea7b227ae935cd201d6a02ee7825f2a045437",
            "c3795b367d82c7b031522874f3e8a5d70a0db135bec6b0438a5fda466c056d",
        ),
        NamedCurve::B283 => concat!(
            "04055f79d90cb0fb485baf5767d0862f2ea68c79415adf4c330e19f8cb09626807",
            "7620f3f903b8c24fae461e95c1ec611b57436abb85d1d51cc9016a8fe286cdc6b6",
            "d33f39c5198500",
        ),
        NamedCurve::B409 => concat!(
            "0401b5e8b29cfb840f055652d7baabb60c938f0aecfd2cde95d7c50f66df347168",
            "4122e1e3d3141cfc081b2e04990a52a12ef716fd01dbeb96674d3ab376817b34a4",
            "e934b9495f01edb4014913f39cbd37a03b14344ab3b0550991d5dbdcc0d2b8eaf0",
            "35dd01ecedf4",
        ),
        NamedCurve::K283 => concat!(
            "0404c8d59378d1e8ea06109e138edc945f0d2bc3f42a2b10caef4abffdffd17b5c",
            "56d4190705b191e6189919442d6ed4e1e162a180d094742f9c6b5c3708134606845",
            "fecf2e9d99893",
        ),
        NamedCurve::K409 => concat!(
            "040151b5d813c6e3d2d09e94c78be66fff3302569b6cc5dfe8fe6af9dfa8bb7934",
            "5d365f73a7d4f95517e2c233ffee75fc4c00e73001bad42923957f62518a487827",
            "69c7520aa85fc3b4b3977e02b751da4e3f55d24f75bfeef0f77a61ed8c6a78b370",
            "5eb676f8095a",
        ),
    };
    Bn::from_hex(hex)
        .expect("pinned hex")
        .to_bytes_be_padded(hex.len() / 2)
}

/// The key with primes `p`, `q` and `e = 65537`, as `generate` builds it.
fn from_primes(p: &str, q: &str) -> RsaPrivateKey {
    let p = Bn::from_hex(p).expect("pinned hex");
    let q = Bn::from_hex(q).expect("pinned hex");
    let e = Bn::from_u64(65537);
    let one = Bn::one();
    let phi = p.sub(&one).mul(&q.sub(&one));
    let d = e
        .mod_inv(&phi)
        .expect("gcd(e, phi) = 1 for the pinned primes");
    RsaPrivateKey::from_parts(p.mul(&q), e, d, p, q)
}

/// A deterministic RSA-2048 key for tests, examples and benchmarks.
pub fn test_rsa_2048() -> &'static RsaPrivateKey {
    RSA_2048.get_or_init(|| from_primes(P_2048, Q_2048))
}

/// A deterministic RSA-1024 key (faster; for tests that only need "an RSA
/// key" rather than production-size parameters).
pub fn test_rsa_1024() -> &'static RsaPrivateKey {
    RSA_1024.get_or_init(|| from_primes(P_1024, Q_1024))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecc;
    use crate::rng::TestRng;

    /// The seed whose [`RsaPrivateKey::generate`] yields [`test_rsa_2048`].
    const SEED_2048: u64 = 0x5154_4c53_2048; // "QTLS" 2048
    /// The seed whose [`RsaPrivateKey::generate`] yields [`test_rsa_1024`].
    const SEED_1024: u64 = 0x5154_4c53_1024;

    #[test]
    fn cached_key_is_stable() {
        let a = test_rsa_2048();
        let b = test_rsa_2048();
        assert_eq!(a.public().modulus(), b.public().modulus());
    }

    /// The pinned primes are exactly what the seeded search finds, so
    /// pinning them changed no key byte and cannot drift from the seed.
    #[test]
    fn pinned_keys_equal_the_seeded_search() {
        for (bits, seed, pinned) in [
            (2048, SEED_2048, test_rsa_2048()),
            (1024, SEED_1024, test_rsa_1024()),
        ] {
            let searched = RsaPrivateKey::generate(bits, &mut TestRng::new(seed));
            assert_eq!(searched.primes(), pinned.primes(), "{bits}-bit primes");
            assert_eq!(searched.public().modulus(), pinned.public().modulus());
            assert_eq!(searched.public().exponent(), pinned.public().exponent());
            assert_eq!(searched.d(), pinned.d(), "{bits}-bit private exponent");
        }
    }

    /// The pinned points are exactly `d · G` for the scalars drawn from
    /// the seed, so pinning them changed no key byte and cannot drift
    /// from the seed.
    #[test]
    fn pinned_ecdsa_points_equal_the_seeded_draw() {
        let mut rng = TestRng::new(ECDSA_SEED);
        for curve in NamedCurve::ALL {
            let d = ecc::random_scalar(curve, &mut rng);
            let point = ecc::encode_point(curve, &curve.scalar_mul_base(&d));
            assert_eq!(point, test_ecdsa_public_point(curve), "{curve:?}");
        }
    }
}
