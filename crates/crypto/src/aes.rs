//! AES-128 block cipher and CBC mode (FIPS 197 / SP 800-38A).
//!
//! The paper's secure-data-transfer evaluation uses the AES128-SHA cipher
//! suite (AES-128-CBC + HMAC-SHA1), and in this reproduction the same
//! code is the client's decrypt, the `SW` baseline's encrypt and what a
//! QAT engine thread "does" in real-compute mode — so its speed is the
//! floor under every bulk and keep-alive number the benchmark reports.
//!
//! Two implementations sit behind the four entry points
//! ([`cbc_encrypt_in_place`], [`cbc_decrypt_in_place`],
//! [`Aes128::encrypt_block`], [`Aes128::decrypt_block`]). On an x86-64
//! CPU with AES-NI they run the `aesenc`/`aesdec` kernels of `x86.rs`
//! (DESIGN.md §20), chosen per call by `is_x86_feature_detected!`. On
//! every other CPU — and, through the `*_portable` functions, under the
//! tests that hold the two to one answer — they run the code in this
//! file.
//!
//! That code is the classic word-wise table implementation: the state is
//! four big-endian column words, a round is four 256×`u32` lookups per
//! column (SubBytes, ShiftRows and MixColumns folded into `TE`/`TD`), and
//! decryption runs the FIPS 197 §5.3.5 *equivalent inverse cipher* on its
//! own key schedule, so both directions have the same round shape — and
//! the schedule is the one `aesdec` takes. All tables are
//! `const`-evaluated at compile time (no first-use initialisation,
//! nothing that differs run to run). CBC encryption is serial by
//! construction; CBC decryption is not, and
//! [`cbc_decrypt_in_place_portable`] runs `DECRYPT_LANES` independent
//! blocks per iteration to overlap their lookups.
//!
//! The tables are indexed by secret bytes: the portable path is **not**
//! constant-time (see DESIGN.md §18); the hardware path has no tables.
//! This file is `unsafe`-free.

use crate::error::CryptoError;

/// AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// `x · 2` in GF(2^8) with the AES polynomial 0x11b.
const fn xtime(x: u8) -> u8 {
    (x << 1) ^ (((x >> 7) & 1) * 0x1b)
}

/// Inverse S-box.
const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

/// The four per-row tables of a round: `t0` is the table for a byte in
/// row 0, and a byte in row `k` contributes the same column rotated down
/// `k` rows — `t0` rotated right `k` bytes.
const fn per_row(t0: [u32; 256]) -> [[u32; 256]; 4] {
    let mut t = [t0; 4];
    let mut k = 1;
    while k < 4 {
        let mut x = 0;
        while x < 256 {
            t[k][x] = t0[x].rotate_right(8 * k as u32);
            x += 1;
        }
        k += 1;
    }
    t
}

/// `TE[0][x]` is the MixColumns image of the column `(S[x], 0, 0, 0)`,
/// i.e. the bytes `(2·S[x], S[x], S[x], 3·S[x])` top to bottom.
static TE: [[u32; 256]; 4] = {
    let mut t0 = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let s2 = xtime(s);
        t0[x] = u32::from_be_bytes([s2, s, s, s2 ^ s]);
        x += 1;
    }
    per_row(t0)
};

/// `TD[0][x]` is the InvMixColumns image of `(s, 0, 0, 0)`, `s = S⁻¹[x]`,
/// i.e. `(14·s, 9·s, 13·s, 11·s)`.
static TD: [[u32; 256]; 4] = {
    let mut t0 = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        let s = INV_SBOX[x];
        let s2 = xtime(s);
        let s4 = xtime(s2);
        let s8 = xtime(s4);
        t0[x] = u32::from_be_bytes([s8 ^ s4 ^ s2, s8 ^ s, s8 ^ s4 ^ s, s8 ^ s2 ^ s]);
        x += 1;
    }
    per_row(t0)
};

/// SubWord (FIPS 197 §5.2) through `sbox`.
#[inline(always)]
fn sub_word(sbox: &[u8; 256], w: u32) -> u32 {
    let [a, b, c, d] = w.to_be_bytes();
    u32::from_be_bytes([
        sbox[a as usize],
        sbox[b as usize],
        sbox[c as usize],
        sbox[d as usize],
    ])
}

/// One table round over a word-wise state. `T` is `TE` or `TD`; `SHIFT`
/// is the column ShiftRows pulls row 1 from (1 when encrypting, 3 when
/// decrypting — rows 2 and 3 follow as `2·SHIFT` and `3·SHIFT` mod 4).
#[inline(always)]
fn table_round<const SHIFT: usize>(t: &[[u32; 256]; 4], s: &[u32; 4], rk: &[u32]) -> [u32; 4] {
    std::array::from_fn(|c| {
        t[0][(s[c] >> 24) as usize]
            ^ t[1][(s[(c + SHIFT) % 4] >> 16) as usize & 0xff]
            ^ t[2][(s[(c + 2 * SHIFT) % 4] >> 8) as usize & 0xff]
            ^ t[3][s[(c + 3 * SHIFT) % 4] as usize & 0xff]
            ^ rk[c]
    })
}

/// The final round: ShiftRows and SubBytes only, no MixColumns.
#[inline(always)]
fn last_round<const SHIFT: usize>(sbox: &[u8; 256], s: &[u32; 4], rk: &[u32]) -> [u32; 4] {
    std::array::from_fn(|c| {
        sub_word(
            sbox,
            (s[c] & 0xff00_0000)
                | (s[(c + SHIFT) % 4] & 0x00ff_0000)
                | (s[(c + 2 * SHIFT) % 4] & 0x0000_ff00)
                | (s[(c + 3 * SHIFT) % 4] & 0x0000_00ff),
        ) ^ rk[c]
    })
}

/// All ten rounds over `N` independent blocks, round by round, so the
/// lookups of different blocks overlap in the pipeline.
#[inline(always)]
fn cipher<const N: usize, const SHIFT: usize>(
    t: &[[u32; 256]; 4],
    sbox: &[u8; 256],
    rk: &[u32; 44],
    blocks: &mut [[u32; 4]; N],
) {
    for s in blocks.iter_mut() {
        for (w, k) in s.iter_mut().zip(&rk[..4]) {
            *w ^= k;
        }
    }
    for r in 1..10 {
        for s in blocks.iter_mut() {
            *s = table_round::<SHIFT>(t, s, &rk[4 * r..4 * r + 4]);
        }
    }
    for s in blocks.iter_mut() {
        *s = last_round::<SHIFT>(sbox, s, &rk[40..]);
    }
}

fn load(block: &[u8]) -> [u32; 4] {
    std::array::from_fn(|c| {
        u32::from_be_bytes(block[4 * c..4 * c + 4].try_into().expect("4 bytes"))
    })
}

fn store(block: &mut [u8], s: &[u32; 4]) {
    for (b, w) in block.chunks_exact_mut(4).zip(s) {
        b.copy_from_slice(&w.to_be_bytes());
    }
}

/// An expanded AES-128 key: the encryption schedule and the
/// equivalent-inverse-cipher decryption schedule, 44 words each.
#[derive(Clone)]
pub struct Aes128 {
    enc: [u32; 44],
    dec: [u32; 44],
}

impl Aes128 {
    /// Expand a 16-byte key.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut enc = [0u32; 44];
        enc[..4].copy_from_slice(&load(key));
        let mut rcon = 1u8;
        for i in 4..44 {
            let mut t = enc[i - 1];
            if i % 4 == 0 {
                t = sub_word(&SBOX, t.rotate_left(8)) ^ ((rcon as u32) << 24);
                rcon = xtime(rcon);
            }
            enc[i] = enc[i - 4] ^ t;
        }
        // FIPS 197 §5.3.5: the round keys in reverse order, the nine
        // inner ones passed through InvMixColumns — which is
        // `TD[k][S[byte k]]` summed, since `TD` undoes an S-box first.
        let mut dec = [0u32; 44];
        for r in 0..11 {
            for c in 0..4 {
                let w = enc[4 * (10 - r) + c];
                dec[4 * r + c] = if r == 0 || r == 10 {
                    w
                } else {
                    let [b0, b1, b2, b3] = w.to_be_bytes();
                    TD[0][SBOX[b0 as usize] as usize]
                        ^ TD[1][SBOX[b1 as usize] as usize]
                        ^ TD[2][SBOX[b2 as usize] as usize]
                        ^ TD[3][SBOX[b3 as usize] as usize]
                };
            }
        }
        Aes128 { enc, dec }
    }

    fn encrypt_words<const N: usize>(&self, blocks: &mut [[u32; 4]; N]) {
        cipher::<N, 1>(&TE, &SBOX, &self.enc, blocks);
    }

    fn decrypt_words<const N: usize>(&self, blocks: &mut [[u32; 4]; N]) {
        cipher::<N, 3>(&TD, &INV_SBOX, &self.dec, blocks);
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        // One block of CBC under a zero IV is the bare cipher.
        #[cfg(target_arch = "x86_64")]
        if crate::x86::cbc_encrypt(&self.enc, &[0; 16], block) {
            return;
        }
        self.encrypt_block_portable(block);
    }

    /// Decrypt one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        #[cfg(target_arch = "x86_64")]
        if crate::x86::cbc_decrypt(&self.dec, &[0; 16], block) {
            return;
        }
        self.decrypt_block_portable(block);
    }

    /// [`Self::encrypt_block`] by the table cipher, whatever the CPU.
    pub(crate) fn encrypt_block_portable(&self, block: &mut [u8; 16]) {
        let mut s = [load(block)];
        self.encrypt_words(&mut s);
        store(block, &s[0]);
    }

    /// [`Self::decrypt_block`] by the table cipher, whatever the CPU.
    pub(crate) fn decrypt_block_portable(&self, block: &mut [u8; 16]) {
        let mut s = [load(block)];
        self.decrypt_words(&mut s);
        store(block, &s[0]);
    }
}

/// AES-128-CBC encryption in place: `buf` is overwritten with the
/// ciphertext, no output allocation. `buf.len()` must be a multiple of
/// 16 (the record layer pads before encrypting).
pub fn cbc_encrypt_in_place(
    key: &Aes128,
    iv: &[u8; 16],
    buf: &mut [u8],
) -> Result<(), CryptoError> {
    if !buf.len().is_multiple_of(16) {
        return Err(CryptoError::InvalidLength);
    }
    #[cfg(target_arch = "x86_64")]
    if crate::x86::cbc_encrypt(&key.enc, iv, buf) {
        return Ok(());
    }
    cbc_encrypt_in_place_portable(key, iv, buf)
}

/// [`cbc_encrypt_in_place`] by the table cipher, whatever the CPU: the
/// only path without AES-NI, and the reference the hardware kernel is
/// tested and benchmarked against (hence reachable from `tests/` and
/// `crates/bench`).
#[doc(hidden)]
pub fn cbc_encrypt_in_place_portable(
    key: &Aes128,
    iv: &[u8; 16],
    buf: &mut [u8],
) -> Result<(), CryptoError> {
    if !buf.len().is_multiple_of(16) {
        return Err(CryptoError::InvalidLength);
    }
    let mut prev = load(iv);
    for block in buf.chunks_exact_mut(16) {
        let p = load(block);
        let mut s = [std::array::from_fn(|c| p[c] ^ prev[c])];
        key.encrypt_words(&mut s);
        prev = s[0];
        store(block, &prev);
    }
    Ok(())
}

/// Blocks [`cbc_decrypt_in_place_portable`] decrypts per iteration.
/// Measured on the 16 KB record (x86-64, 16 general registers; two
/// alternating runs each): 1 lane ≈ 215 MiB/s, 2 lanes ≈ 344, 4 lanes ≈ 289 — four
/// word-wise states are 16 live words before a single temporary, so the
/// round spills.
const DECRYPT_LANES: usize = 2;

/// AES-128-CBC decryption in place: `buf` is overwritten with the
/// (still padded) plaintext, no output allocation.
pub fn cbc_decrypt_in_place(
    key: &Aes128,
    iv: &[u8; 16],
    buf: &mut [u8],
) -> Result<(), CryptoError> {
    if !buf.len().is_multiple_of(16) || buf.is_empty() {
        return Err(CryptoError::InvalidLength);
    }
    #[cfg(target_arch = "x86_64")]
    if crate::x86::cbc_decrypt(&key.dec, iv, buf) {
        return Ok(());
    }
    cbc_decrypt_in_place_portable(key, iv, buf)
}

/// [`cbc_decrypt_in_place`] by the table cipher, whatever the CPU (see
/// [`cbc_encrypt_in_place_portable`]). `DECRYPT_LANES` blocks per
/// iteration (each plaintext block needs only its own and the previous
/// ciphertext block), then the tail one block at a time.
#[doc(hidden)]
pub fn cbc_decrypt_in_place_portable(
    key: &Aes128,
    iv: &[u8; 16],
    buf: &mut [u8],
) -> Result<(), CryptoError> {
    if !buf.len().is_multiple_of(16) || buf.is_empty() {
        return Err(CryptoError::InvalidLength);
    }
    let mut prev = load(iv);
    let mut groups = buf.chunks_exact_mut(16 * DECRYPT_LANES);
    for group in &mut groups {
        prev = cbc_decrypt_blocks::<DECRYPT_LANES>(key, prev, group);
    }
    for block in groups.into_remainder().chunks_exact_mut(16) {
        prev = cbc_decrypt_blocks::<1>(key, prev, block);
    }
    Ok(())
}

/// Decrypt `N` consecutive CBC blocks in `buf` (`16·N` bytes) chained
/// from `prev`; returns the last ciphertext block for the next call.
#[inline(always)]
fn cbc_decrypt_blocks<const N: usize>(key: &Aes128, prev: [u32; 4], buf: &mut [u8]) -> [u32; 4] {
    let ct: [[u32; 4]; N] = std::array::from_fn(|i| load(&buf[16 * i..16 * i + 16]));
    let mut s = ct;
    key.decrypt_words(&mut s);
    for i in 0..N {
        let chain = if i == 0 { &prev } else { &ct[i - 1] };
        let p = std::array::from_fn(|c| s[i][c] ^ chain[c]);
        store(&mut buf[16 * i..16 * i + 16], &p);
    }
    ct[N - 1]
}

/// AES-128-CBC encryption. `plaintext.len()` must be a multiple of 16
/// (TLS 1.2 CBC records are padded by the record layer before encryption).
pub fn cbc_encrypt(key: &Aes128, iv: &[u8; 16], plaintext: &[u8]) -> Result<Vec<u8>, CryptoError> {
    let mut out = plaintext.to_vec();
    cbc_encrypt_in_place(key, iv, &mut out)?;
    Ok(out)
}

/// AES-128-CBC decryption.
pub fn cbc_decrypt(key: &Aes128, iv: &[u8; 16], ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
    let mut out = ciphertext.to_vec();
    cbc_decrypt_in_place(key, iv, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn fips197_vector() {
        // FIPS 197 Appendix B.
        let key: [u8; 16] = unhex("2b7e151628aed2a6abf7158809cf4f3c")
            .try_into()
            .unwrap();
        let aes = Aes128::new(&key);
        let mut block: [u8; 16] = unhex("3243f6a8885a308d313198a2e0370734")
            .try_into()
            .unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(hex(&block), "3925841d02dc09fbdc118597196a0b32");
        aes.decrypt_block(&mut block);
        assert_eq!(hex(&block), "3243f6a8885a308d313198a2e0370734");
    }

    #[test]
    fn sp80038a_ecb_kat() {
        // SP 800-38A F.1.1 (first block).
        let key: [u8; 16] = unhex("2b7e151628aed2a6abf7158809cf4f3c")
            .try_into()
            .unwrap();
        let aes = Aes128::new(&key);
        let mut block: [u8; 16] = unhex("6bc1bee22e409f96e93d7e117393172a")
            .try_into()
            .unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(hex(&block), "3ad77bb40d7a3660a89ecaf32466ef97");
    }

    #[test]
    fn sp80038a_cbc_kat() {
        // SP 800-38A F.2.1 CBC-AES128.Encrypt (all four blocks).
        let key: [u8; 16] = unhex("2b7e151628aed2a6abf7158809cf4f3c")
            .try_into()
            .unwrap();
        let iv: [u8; 16] = unhex("000102030405060708090a0b0c0d0e0f")
            .try_into()
            .unwrap();
        let pt = unhex(
            "6bc1bee22e409f96e93d7e117393172a\
             ae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52ef\
             f69f2445df4f9b17ad2b417be66c3710",
        );
        let aes = Aes128::new(&key);
        let ct = cbc_encrypt(&aes, &iv, &pt).unwrap();
        assert_eq!(
            hex(&ct),
            "7649abac8119b246cee98e9b12e9197d\
             5086cb9b507219ee95db113a917678b2\
             73bed6b8e3c1743b7116e69e22229516\
             3ff1caa1681fac09120eca307586e1a7"
        );
        assert_eq!(cbc_decrypt(&aes, &iv, &ct).unwrap(), pt);
    }

    #[test]
    fn cbc_rejects_partial_blocks() {
        let aes = Aes128::new(&[0u8; 16]);
        assert!(cbc_encrypt(&aes, &[0u8; 16], &[0u8; 15]).is_err());
        assert!(cbc_decrypt(&aes, &[0u8; 16], &[0u8; 17]).is_err());
        assert!(cbc_decrypt(&aes, &[0u8; 16], &[]).is_err());
    }

    #[test]
    fn cbc_roundtrip_various_lengths() {
        let aes = Aes128::new(b"0123456789abcdef");
        let iv = [7u8; 16];
        for blocks in [1usize, 2, 5, 64] {
            let pt: Vec<u8> = (0..blocks * 16).map(|i| i as u8).collect();
            let ct = cbc_encrypt(&aes, &iv, &pt).unwrap();
            assert_ne!(ct, pt);
            assert_eq!(cbc_decrypt(&aes, &iv, &ct).unwrap(), pt);
        }
    }

    #[test]
    fn cbc_in_place_matches_allocating_mode() {
        let aes = Aes128::new(b"0123456789abcdef");
        let iv = [7u8; 16];
        for blocks in [1usize, 2, 5, 64] {
            let pt: Vec<u8> = (0..blocks * 16).map(|i| i as u8).collect();
            let mut buf = pt.clone();
            cbc_encrypt_in_place(&aes, &iv, &mut buf).unwrap();
            assert_eq!(buf, cbc_encrypt(&aes, &iv, &pt).unwrap());
            cbc_decrypt_in_place(&aes, &iv, &mut buf).unwrap();
            assert_eq!(buf, pt);
        }
        let mut short = vec![0u8; 15];
        assert!(cbc_encrypt_in_place(&aes, &iv, &mut short).is_err());
        assert!(cbc_decrypt_in_place(&aes, &iv, &mut short).is_err());
        assert!(cbc_decrypt_in_place(&aes, &iv, &mut []).is_err());
    }

    /// Single blocks, dispatched and by the table cipher, against the
    /// byte-wise reference over random keys; CBC at every lane-tail length
    /// is `tests/proptest_crypto.rs`'s `aes_matches_bytewise_oracle`,
    /// which shares the oracle by `#[path]`.
    #[test]
    fn blocks_match_bytewise_oracle() {
        use crate::aes_oracle::OracleAes128;
        use crate::rng::{EntropySource, TestRng};
        let mut rng = TestRng::new(0xae5);
        for _ in 0..32 {
            let mut key = [0u8; 16];
            let mut block = [0u8; 16];
            rng.fill(&mut key);
            rng.fill(&mut block);
            let (aes, oracle) = (Aes128::new(&key), OracleAes128::new(&key));
            let (mut got, mut want) = (block, block);
            aes.encrypt_block(&mut got);
            oracle.encrypt_block(&mut want);
            assert_eq!(got, want, "encrypt_block");
            let mut got = block;
            aes.encrypt_block_portable(&mut got);
            assert_eq!(got, want, "encrypt_block_portable");
            // The same random bytes as ciphertext: the inverse cipher is
            // checked on its own, not only as encrypt's undo.
            let (mut got, mut want) = (block, block);
            aes.decrypt_block(&mut got);
            oracle.decrypt_block(&mut want);
            assert_eq!(got, want, "decrypt_block");
            let mut got = block;
            aes.decrypt_block_portable(&mut got);
            assert_eq!(got, want, "decrypt_block_portable");
        }
    }

    #[test]
    fn oracle_gmul_known_values() {
        use crate::aes_oracle::gmul;
        assert_eq!(gmul(0x57, 0x83), 0xc1); // FIPS 197 §4.2 example
        assert_eq!(gmul(0x57, 0x13), 0xfe);
        assert_eq!(gmul(1, 0xab), 0xab);
        assert_eq!(gmul(0, 0xff), 0);
    }
}
