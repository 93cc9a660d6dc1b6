//! SHA-256 (FIPS 180-4) — digest for PKCS#1 signatures, the TLS 1.2 PRF
//! and the TLS 1.3 HKDF key schedule.

use crate::hash::{BlockBuffer, Hash};

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Streaming SHA-256 state.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    block: BlockBuffer,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh state.
    pub fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            block: BlockBuffer::new(),
        }
    }

    /// One-shot digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize_fixed()
    }

    /// Absorb bytes.
    pub fn update(&mut self, data: &[u8]) {
        let state = &mut self.state;
        self.block.update(data, |b| compress(state, b));
    }

    /// Finish and produce the 32-byte digest.
    pub fn finalize_fixed(self) -> [u8; 32] {
        let mut state = self.state;
        self.block.finish(|b| compress(&mut state, b));
        let mut out = [0u8; 32];
        for (o, w) in out.chunks_exact_mut(4).zip(state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// Compress a run of whole 64-byte blocks: by the SHA-NI kernel of
/// `x86.rs` where the CPU has one (DESIGN.md §20), else block by block
/// through [`compress_portable`].
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if crate::x86::sha256_compress(state, blocks, &K) {
        return;
    }
    for block in blocks.chunks_exact(64) {
        compress_portable(state, block.try_into().expect("chunks_exact(64)"));
    }
}

/// The message schedule lives in a 16-word ring (`W[t]` overwrites
/// `W[t-16]`): rounds 0..16 read the block's words, rounds 16..64 extend
/// the ring as they go.
///
/// The only path without SHA-NI, and the reference the hardware kernel
/// is tested and benchmarked against (hence reachable from `tests/` and
/// `crates/bench`).
#[doc(hidden)]
pub fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (wi, b) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes(b.try_into().expect("chunks_exact(4)"));
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    macro_rules! rounds {
        ($t:ident in $range:expr, $w:expr) => {
            for $t in $range {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = g ^ (e & (f ^ g));
                let t1 = h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[$t])
                    .wrapping_add($w);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) | (c & (a | b));
                h = g;
                g = f;
                f = e;
                e = d.wrapping_add(t1);
                d = c;
                c = b;
                b = a;
                a = t1.wrapping_add(s0.wrapping_add(maj));
            }
        };
    }
    rounds!(t in 0..16, w[t]);
    rounds!(t in 16..64, schedule(&mut w, t));
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// `W[t]` for `t >= 16`, written over `W[t-16]` in the ring.
#[inline(always)]
fn schedule(w: &mut [u32; 16], t: usize) -> u32 {
    let w15 = w[(t + 1) & 15];
    let w2 = w[(t + 14) & 15];
    let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
    let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
    let x = w[t & 15]
        .wrapping_add(s0)
        .wrapping_add(w[(t + 9) & 15])
        .wrapping_add(s1);
    w[t & 15] = x;
    x
}

impl Hash for Sha256 {
    const BLOCK_SIZE: usize = 64;
    const OUTPUT_SIZE: usize = 32;
    type Digest = [u8; 32];

    fn new() -> Self {
        Sha256::new()
    }

    fn update(&mut self, data: &[u8]) {
        Sha256::update(self, data)
    }

    fn finalize_fixed(self) -> [u8; 32] {
        Sha256::finalize_fixed(self)
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
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize_fixed()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..300u16).map(|i| (i * 7) as u8).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize_fixed(), Sha256::digest(&data), "split={split}");
        }
    }
}
