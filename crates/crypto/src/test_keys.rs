//! Deterministic, process-cached test keys.
//!
//! Each RSA key is the one [`RsaPrivateKey::generate`] finds from a
//! fixed seed, but a 2048-bit prime search costs ~200 ms, so the primes are
//! pinned here and a process only assembles the key from them (a test
//! re-runs the search and compares). Every test run and every machine
//! gets the same key material.

use crate::bn::Bn;
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
}
