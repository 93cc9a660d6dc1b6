//! Key derivation: the TLS 1.2 PRF (RFC 5246 §5) and HKDF (RFC 5869),
//! including the TLS 1.3 `HKDF-Expand-Label` construction (RFC 8446 §7.1).
//!
//! In the paper's taxonomy these are the `PRF` and `HKDF` operations of
//! Table 1. The QAT Engine can offload PRF but — at the time of the paper
//! — not HKDF, which is why TLS 1.3 sees a smaller speedup (Fig. 8).

use crate::hash::Hash;
use crate::hmac::Hmac;
use crate::sha256::Sha256;

/// TLS 1.2 `P_hash`: HMAC-based expansion of `secret` over
/// `seed`, producing `out_len` bytes.
pub fn p_hash<H: Hash>(secret: &[u8], seed: &[u8], out_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(out_len + H::OUTPUT_SIZE);
    // Keyed once; every HMAC below starts from a clone of the midstates.
    let keyed = Hmac::<H>::new(secret);
    let mac = |first: &[u8], second: &[u8]| {
        let mut h = keyed.clone();
        h.update(first);
        h.update(second);
        h.finalize_fixed()
    };
    // A(1) = HMAC(secret, seed); A(i) = HMAC(secret, A(i-1))
    let mut a = mac(seed, &[]);
    while out.len() < out_len {
        out.extend_from_slice(mac(a.as_ref(), seed).as_ref());
        a = mac(a.as_ref(), &[]);
    }
    out.truncate(out_len);
    out
}

/// TLS 1.2 PRF with SHA-256: `PRF(secret, label, seed)`.
pub fn prf_tls12(secret: &[u8], label: &[u8], seed: &[u8], out_len: usize) -> Vec<u8> {
    let mut label_seed = Vec::with_capacity(label.len() + seed.len());
    label_seed.extend_from_slice(label);
    label_seed.extend_from_slice(seed);
    p_hash::<Sha256>(secret, &label_seed, out_len)
}

/// HKDF-Extract (RFC 5869 §2.2): `PRK = HMAC-Hash(salt, IKM)`.
pub fn hkdf_extract<H: Hash>(salt: &[u8], ikm: &[u8]) -> Vec<u8> {
    let salt_or_zeros;
    let salt = if salt.is_empty() {
        salt_or_zeros = vec![0u8; H::OUTPUT_SIZE];
        &salt_or_zeros
    } else {
        salt
    };
    Hmac::<H>::mac(salt, ikm)
}

/// HKDF-Expand (RFC 5869 §2.3).
pub fn hkdf_expand<H: Hash>(prk: &[u8], info: &[u8], out_len: usize) -> Vec<u8> {
    assert!(out_len <= 255 * H::OUTPUT_SIZE, "HKDF output too long");
    let mut out = Vec::with_capacity(out_len + H::OUTPUT_SIZE);
    let keyed = Hmac::<H>::new(prk);
    let mut counter = 1u8;
    while out.len() < out_len {
        let mut h = keyed.clone();
        // T(i-1) is the previous block of output (empty for T(0)).
        h.update(&out[out.len().saturating_sub(H::OUTPUT_SIZE)..]);
        h.update(info);
        h.update(&[counter]);
        out.extend_from_slice(h.finalize_fixed().as_ref());
        counter += 1;
    }
    out.truncate(out_len);
    out
}

/// TLS 1.3 `HKDF-Expand-Label(secret, label, context, length)`.
///
/// The label is prefixed with `"tls13 "` per RFC 8446 §7.1.
pub fn hkdf_expand_label(secret: &[u8], label: &[u8], context: &[u8], out_len: usize) -> Vec<u8> {
    let mut info = Vec::with_capacity(4 + 6 + label.len() + context.len());
    info.extend_from_slice(&(out_len as u16).to_be_bytes());
    info.push((6 + label.len()) as u8);
    info.extend_from_slice(b"tls13 ");
    info.extend_from_slice(label);
    info.push(context.len() as u8);
    info.extend_from_slice(context);
    hkdf_expand::<Sha256>(secret, &info, out_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::Sha1;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // Published TLS 1.2 PRF (SHA-256) test vector
    // (IETF TLS mailing list / widely reproduced).
    #[test]
    fn tls12_prf_vector() {
        let secret = unhex("9bbe436ba940f017b17652849a71db35");
        let seed = unhex("a0ba9f936cda311827a6f796ffd5198c");
        let out = prf_tls12(&secret, b"test label", &seed, 100);
        assert_eq!(
            hex(&out),
            "e3f229ba727be17b8d122620557cd453c2aab21d07c3d495329b52d4e61edb5a\
             6b301791e90d35c9c9a46b4e14baf9af0fa022f7077def17abfd3797c0564bab\
             4fbc91666e9def9b97fce34f796789baa48082d122ee42c5a72e5a5110fff701\
             87347b66"
        );
    }

    #[test]
    fn p_hash_length_handling() {
        // Output shorter / equal / longer than one HMAC block.
        for len in [1usize, 20, 32, 33, 64, 100] {
            let out = p_hash::<Sha256>(b"secret", b"seed", len);
            assert_eq!(out.len(), len);
        }
        // Prefix property: longer output starts with shorter output.
        let short = p_hash::<Sha256>(b"s", b"x", 10);
        let long = p_hash::<Sha256>(b"s", b"x", 50);
        assert_eq!(&long[..10], &short[..]);
    }

    #[test]
    fn p_hash_sha1_differs_from_sha256() {
        let a = p_hash::<Sha1>(b"k", b"s", 16);
        let b = p_hash::<Sha256>(b"k", b"s", 16);
        assert_ne!(a, b);
    }

    // RFC 5869 Appendix A test cases.
    #[test]
    fn hkdf_rfc5869_case1() {
        let ikm = unhex("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
        let salt = unhex("000102030405060708090a0b0c");
        let info = unhex("f0f1f2f3f4f5f6f7f8f9");
        let prk = hkdf_extract::<Sha256>(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = hkdf_expand::<Sha256>(&prk, &info, 42);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
             34007208d5b887185865"
        );
    }

    #[test]
    fn hkdf_rfc5869_case3_empty_salt_info() {
        let ikm = unhex("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
        let prk = hkdf_extract::<Sha256>(&[], &ikm);
        assert_eq!(
            hex(&prk),
            "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04"
        );
        let okm = hkdf_expand::<Sha256>(&prk, &[], 42);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d\
             9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn expand_label_structure() {
        // Check it is deterministic and label-sensitive.
        let s = [7u8; 32];
        let a = hkdf_expand_label(&s, b"key", &[], 16);
        let b = hkdf_expand_label(&s, b"key", &[], 16);
        let c = hkdf_expand_label(&s, b"iv", &[], 16);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 16);
    }

    // RFC 8448 §3 (TLS 1.3 simple 1-RTT handshake trace): derived secret.
    #[test]
    fn tls13_early_secret_derivation() {
        // early_secret = HKDF-Extract(0, 0) with SHA-256
        let zeros = [0u8; 32];
        let early = hkdf_extract::<Sha256>(&[], &zeros);
        assert_eq!(
            hex(&early),
            "33ad0a1c607ec03b09e6cd9893680ce210adf300aa1f2660e1b22e10f170f92a"
        );
        // derived = HKDF-Expand-Label(early_secret, "derived", SHA256(""), 32)
        let empty_hash = crate::sha256::Sha256::digest(b"");
        let derived = hkdf_expand_label(&early, b"derived", &empty_hash, 32);
        assert_eq!(
            hex(&derived),
            "6f2615a108c702c5678f54fc9dbab69716c076189c48250cebeac3576c3611ba"
        );
    }
}
