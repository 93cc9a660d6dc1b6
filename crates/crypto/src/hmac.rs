//! HMAC (RFC 2104), generic over the hash function.

use crate::hash::Hash;

/// Largest hash block this module keys (covers a 128-byte SHA-512 block).
const MAX_BLOCK: usize = 128;

/// Streaming HMAC state: the inner hash, already keyed and absorbing the
/// message, and the keyed outer hash waiting for the inner digest.
///
/// A freshly keyed `Hmac` is the pair of RFC 2104 §4 precomputed
/// midstates, so callers that MAC many messages under one key build it
/// once and `clone()` it per message: a MAC then costs no key-block
/// compressions and no allocation.
#[derive(Clone)]
pub struct Hmac<H: Hash> {
    inner: H,
    outer: H,
}

impl<H: Hash> Hmac<H> {
    /// Start an HMAC computation with `key`.
    pub fn new(key: &[u8]) -> Self {
        let mut block = [0u8; MAX_BLOCK];
        let block = &mut block[..H::BLOCK_SIZE];
        if key.len() > H::BLOCK_SIZE {
            let mut h = H::new();
            h.update(key);
            let digest = h.finalize_fixed();
            block[..H::OUTPUT_SIZE].copy_from_slice(digest.as_ref());
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let mut inner = H::new();
        block.iter_mut().for_each(|b| *b ^= 0x36);
        inner.update(block);
        let mut outer = H::new();
        block.iter_mut().for_each(|b| *b ^= 0x36 ^ 0x5c);
        outer.update(block);
        Hmac { inner, outer }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finish, producing the tag without allocating.
    pub fn finalize_fixed(mut self) -> H::Digest {
        self.outer.update(self.inner.finalize_fixed().as_ref());
        self.outer.finalize_fixed()
    }

    /// Finish, producing the tag.
    pub fn finalize(self) -> Vec<u8> {
        self.finalize_fixed().as_ref().to_vec()
    }

    /// One-shot convenience.
    pub fn mac(key: &[u8], msg: &[u8]) -> Vec<u8> {
        let mut h = Hmac::<H>::new(key);
        h.update(msg);
        h.finalize()
    }

    /// Constant-time tag comparison.
    pub fn verify(key: &[u8], msg: &[u8], tag: &[u8]) -> bool {
        let computed = Self::mac(key, msg);
        constant_time_eq(&computed, tag)
    }
}

/// Constant-time byte-slice equality (length leak is acceptable: lengths
/// are public protocol constants).
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::Sha1;
    use crate::sha256::Sha256;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test cases for HMAC-SHA-256.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let tag = Hmac::<Sha256>::mac(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let tag = Hmac::<Sha256>::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3_long_key_data() {
        let key = [0xaau8; 131];
        let tag = Hmac::<Sha256>::mac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    // RFC 2202 test cases for HMAC-SHA-1.
    #[test]
    fn rfc2202_sha1_case1() {
        let key = [0x0bu8; 20];
        let tag = Hmac::<Sha1>::mac(&key, b"Hi There");
        assert_eq!(hex(&tag), "b617318655057264e28bc0b6fb378c8ef146be00");
    }

    #[test]
    fn rfc2202_sha1_case2() {
        let tag = Hmac::<Sha1>::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex(&tag), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
    }

    #[test]
    fn streaming_matches_oneshot() {
        let key = b"key material";
        let msg: Vec<u8> = (0..200u8).collect();
        let mut h = Hmac::<Sha256>::new(key);
        h.update(&msg[..77]);
        h.update(&msg[77..]);
        assert_eq!(h.finalize(), Hmac::<Sha256>::mac(key, &msg));
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = Hmac::<Sha256>::mac(b"k", b"m");
        assert!(Hmac::<Sha256>::verify(b"k", b"m", &tag));
        assert!(!Hmac::<Sha256>::verify(b"k", b"m2", &tag));
        assert!(!Hmac::<Sha256>::verify(b"k2", b"m", &tag));
        assert!(!Hmac::<Sha256>::verify(b"k", b"m", &tag[..31]));
    }

    #[test]
    fn constant_time_eq_basics() {
        assert!(constant_time_eq(b"abc", b"abc"));
        assert!(!constant_time_eq(b"abc", b"abd"));
        assert!(!constant_time_eq(b"abc", b"ab"));
        assert!(constant_time_eq(b"", b""));
    }
}
