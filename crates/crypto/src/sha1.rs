//! SHA-1 (FIPS 180-4) — used by the AES128-SHA cipher suite's HMAC.
//!
//! SHA-1 is cryptographically broken for collision resistance but remains
//! in the paper's evaluated cipher suite (AES128-SHA); it is implemented
//! here for fidelity, not as a recommendation.

use crate::hash::{BlockBuffer, Hash};

/// Streaming SHA-1 state.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    block: BlockBuffer,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Fresh state.
    pub fn new() -> Self {
        Sha1 {
            state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            block: BlockBuffer::new(),
        }
    }

    /// One-shot digest.
    pub fn digest(data: &[u8]) -> [u8; 20] {
        let mut h = Sha1::new();
        h.update(data);
        h.finalize_fixed()
    }

    /// Absorb bytes.
    pub fn update(&mut self, data: &[u8]) {
        let state = &mut self.state;
        self.block.update(data, |b| compress(state, b));
    }

    /// Finish and produce the 20-byte digest.
    pub fn finalize_fixed(self) -> [u8; 20] {
        let mut state = self.state;
        self.block.finish(|b| compress(&mut state, b));
        let mut out = [0u8; 20];
        for (o, w) in out.chunks_exact_mut(4).zip(state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// Compress a run of whole 64-byte blocks: by the SHA-NI kernel of
/// `x86.rs` where the CPU has one (DESIGN.md §20), else block by block
/// through [`compress_portable`].
fn compress(state: &mut [u32; 5], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if crate::x86::sha1_compress(state, blocks) {
        return;
    }
    for block in blocks.chunks_exact(64) {
        compress_portable(state, block.try_into().expect("chunks_exact(64)"));
    }
}

/// The FIPS 180-4 §6.1.3 alternate method: the message schedule lives in
/// a 16-word ring (`W[t]` overwrites `W[t-16]`), and the 80 rounds are
/// one loop per round function (the first split where the ring starts
/// being extended), so no round tests its index.
///
/// The only path without SHA-NI, and the reference the hardware kernel
/// is tested and benchmarked against (hence reachable from `tests/` and
/// `crates/bench`).
#[doc(hidden)]
pub fn compress_portable(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (wi, b) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes(b.try_into().expect("chunks_exact(4)"));
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    macro_rules! rounds {
        ($t:ident in $range:expr, $k:expr, $f:expr, $w:expr) => {
            for $t in $range {
                let tmp = a
                    .rotate_left(5)
                    .wrapping_add($f)
                    .wrapping_add(e)
                    .wrapping_add($k)
                    .wrapping_add($w);
                e = d;
                d = c;
                c = b.rotate_left(30);
                b = a;
                a = tmp;
            }
        };
    }
    rounds!(t in 0..16, 0x5A827999, d ^ (b & (c ^ d)), w[t]);
    rounds!(t in 16..20, 0x5A827999, d ^ (b & (c ^ d)), schedule(&mut w, t));
    rounds!(t in 20..40, 0x6ED9EBA1, b ^ c ^ d, schedule(&mut w, t));
    rounds!(t in 40..60, 0x8F1BBCDC, (b & c) | (d & (b | c)), schedule(&mut w, t));
    rounds!(t in 60..80, 0xCA62C1D6, b ^ c ^ d, schedule(&mut w, t));
    for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
        *s = s.wrapping_add(v);
    }
}

/// `W[t]` for `t >= 16`, written over `W[t-16]` in the ring.
#[inline(always)]
fn schedule(w: &mut [u32; 16], t: usize) -> u32 {
    let x = (w[(t + 13) & 15] ^ w[(t + 8) & 15] ^ w[(t + 2) & 15] ^ w[t & 15]).rotate_left(1);
    w[t & 15] = x;
    x
}

impl Hash for Sha1 {
    const BLOCK_SIZE: usize = 64;
    const OUTPUT_SIZE: usize = 20;
    type Digest = [u8; 20];

    fn new() -> Self {
        Sha1::new()
    }

    fn update(&mut self, data: &[u8]) {
        Sha1::update(self, data)
    }

    fn finalize_fixed(self) -> [u8; 20] {
        Sha1::finalize_fixed(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(
            hex(&Sha1::digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            hex(&Sha1::digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
        assert_eq!(
            hex(&Sha1::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize_fixed()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..257u16).map(|i| i as u8).collect();
        for split in [0usize, 1, 63, 64, 65, 128, 200, 257] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize_fixed(), Sha1::digest(&data), "split={split}");
        }
    }
}
