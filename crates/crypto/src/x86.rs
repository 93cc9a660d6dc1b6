//! x86-64 hardware kernels: AES-NI AES-128-CBC and SHA-NI SHA-1 /
//! SHA-256 block compression (DESIGN.md §20).
//!
//! This is the only file in the crate that may contain `unsafe`. It
//! holds four kernels and nothing else; the four dispatch sites
//! (`aes::cbc_{en,de}crypt_in_place` with the single-block pair,
//! `sha1::compress`, `sha256::compress`) call the safe wrappers below,
//! which run a kernel only right behind `is_x86_feature_detected!`
//! (std caches the CPUID result in an atomic) and otherwise return
//! `false`, sending the caller down its portable path. Outputs are
//! bit-identical to the portable kernels, which stay as the path on
//! every other CPU and as the reference the tests compare against.
//!
//! The kernels are safe `#[target_feature]` functions: inside them the
//! register-only intrinsics need no `unsafe`. What remains `unsafe` is
//! (a) each call from a wrapper, which has no target feature of its own,
//! into a kernel, and (b) the unaligned 16-byte load and store, which
//! take raw pointers.
//!
//! Every kernel takes a run of whole blocks so that round keys and hash
//! state are loaded once and stay in registers across the run.

use std::arch::x86_64::*;

/// Unaligned 16-byte load (SSE2, the x86-64 baseline).
#[inline(always)]
fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is 16 readable bytes and `loadu` has no alignment
    // requirement.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// Unaligned 16-byte store.
#[inline(always)]
fn store(bytes: &mut [u8; 16], v: __m128i) {
    // SAFETY: `bytes` is 16 writable bytes and `storeu` has no alignment
    // requirement.
    unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), v) }
}

/// `buf[16 * i..16 * i + 16]` as an array.
#[inline(always)]
fn lane(buf: &[u8], i: usize) -> &[u8; 16] {
    buf[16 * i..16 * i + 16].try_into().expect("16-byte lane")
}

#[inline(always)]
fn lane_mut(buf: &mut [u8], i: usize) -> &mut [u8; 16] {
    (&mut buf[16 * i..16 * i + 16])
        .try_into()
        .expect("16-byte lane")
}

// ---- AES-128-CBC ----

fn has_aes() -> bool {
    is_x86_feature_detected!("aes")
}

/// The eleven round keys of a `aes::Aes128` schedule (big-endian column
/// words) as the byte-order vectors `aesenc`/`aesdec` take.
#[inline(always)]
fn round_keys(rk: &[u32; 44]) -> [__m128i; 11] {
    std::array::from_fn(|r| {
        let mut bytes = [0u8; 16];
        for (b, w) in bytes.chunks_exact_mut(4).zip(&rk[4 * r..4 * r + 4]) {
            b.copy_from_slice(&w.to_be_bytes());
        }
        load(&bytes)
    })
}

/// AES-128-CBC encryption of `buf` (whole blocks) in place under the
/// encryption schedule `enc`. Returns `false`, `buf` untouched, when the
/// CPU has no AES-NI.
pub(crate) fn cbc_encrypt(enc: &[u32; 44], iv: &[u8; 16], buf: &mut [u8]) -> bool {
    if !has_aes() {
        return false;
    }
    // SAFETY: `has_aes()` just confirmed the `aes` feature the kernel is
    // compiled for (SSE2 is part of the x86-64 baseline).
    unsafe { cbc_encrypt_aesni(enc, iv, buf) };
    true
}

/// AES-128-CBC decryption of `buf` (whole blocks) in place under the
/// equivalent-inverse-cipher schedule `dec`; `false` without AES-NI.
pub(crate) fn cbc_decrypt(dec: &[u32; 44], iv: &[u8; 16], buf: &mut [u8]) -> bool {
    if !has_aes() {
        return false;
    }
    // SAFETY: `has_aes()` just confirmed the `aes` feature the kernel is
    // compiled for.
    unsafe { cbc_decrypt_aesni(dec, iv, buf) };
    true
}

/// Serial by construction: each block's input is the previous block's
/// output, so this is one dependent `aesenc` chain.
#[target_feature(enable = "aes")]
fn cbc_encrypt_aesni(enc: &[u32; 44], iv: &[u8; 16], buf: &mut [u8]) {
    let rk = round_keys(enc);
    let mut prev = load(iv);
    for block in buf.chunks_exact_mut(16) {
        let block = lane_mut(block, 0);
        let mut s = _mm_xor_si128(_mm_xor_si128(load(block), prev), rk[0]);
        for k in &rk[1..10] {
            s = _mm_aesenc_si128(s, *k);
        }
        prev = _mm_aesenclast_si128(s, rk[10]);
        store(block, prev);
    }
}

/// Blocks per iteration of the decrypt loop: `aesdec` has a latency of
/// several cycles and a throughput of one or two per cycle, so eight
/// independent states (plus round key and chain in the other eight
/// registers) keep the unit busy.
const DECRYPT_LANES: usize = 8;

/// A plaintext block needs only its own and the previous ciphertext
/// block, so `DECRYPT_LANES` blocks go through each round together; the
/// tail runs one block at a time.
#[target_feature(enable = "aes")]
fn cbc_decrypt_aesni(dec: &[u32; 44], iv: &[u8; 16], buf: &mut [u8]) {
    let rk = round_keys(dec);
    let mut prev = load(iv);
    let mut groups = buf.chunks_exact_mut(16 * DECRYPT_LANES);
    for group in &mut groups {
        let ct: [__m128i; DECRYPT_LANES] = std::array::from_fn(|i| load(lane(group, i)));
        let mut s = ct.map(|c| _mm_xor_si128(c, rk[0]));
        for k in &rk[1..10] {
            for x in &mut s {
                *x = _mm_aesdec_si128(*x, *k);
            }
        }
        for i in 0..DECRYPT_LANES {
            let chain = if i == 0 { prev } else { ct[i - 1] };
            let p = _mm_xor_si128(_mm_aesdeclast_si128(s[i], rk[10]), chain);
            store(lane_mut(group, i), p);
        }
        prev = ct[DECRYPT_LANES - 1];
    }
    for block in groups.into_remainder().chunks_exact_mut(16) {
        let block = lane_mut(block, 0);
        let ct = load(block);
        let mut s = _mm_xor_si128(ct, rk[0]);
        for k in &rk[1..10] {
            s = _mm_aesdec_si128(s, *k);
        }
        store(block, _mm_xor_si128(_mm_aesdeclast_si128(s, rk[10]), prev));
        prev = ct;
    }
}

// ---- SHA-1 / SHA-256 ----

fn has_sha() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// SHA-1 compression of `blocks` (whole 64-byte blocks) into `state`;
/// `false`, `state` untouched, when the CPU has no SHA extensions.
pub(crate) fn sha1_compress(state: &mut [u32; 5], blocks: &[u8]) -> bool {
    if !has_sha() {
        return false;
    }
    // SAFETY: `has_sha()` just confirmed `sha`, `ssse3` and `sse4.1`,
    // the features the kernel is compiled for.
    unsafe { sha1_compress_shani(state, blocks) };
    true
}

/// SHA-256 compression of `blocks` (whole 64-byte blocks) into `state`;
/// `false` without the SHA extensions.
pub(crate) fn sha256_compress(state: &mut [u32; 8], blocks: &[u8], k: &[u32; 64]) -> bool {
    if !has_sha() {
        return false;
    }
    // SAFETY: `has_sha()` just confirmed `sha`, `ssse3` and `sse4.1`,
    // the features the kernel is compiled for.
    unsafe { sha256_compress_shani(state, blocks, k) };
    true
}

/// The state rides as `ABCD` (A in the top lane) plus `E` in the top lane
/// of a second register; `sha1rnds4` does four rounds, `sha1nexte` folds
/// the rotated `A` of four rounds ago into the next four schedule words,
/// and `W[t..t+4] = sha1msg2(sha1msg1(W[t-16..], W[t-12..]) ^ W[t-8..],
/// W[t-4..])` extends the schedule in a four-register ring.
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn sha1_compress_shani(state: &mut [u32; 5], blocks: &[u8]) {
    // Reverses all 16 bytes: big-endian words, first word in the top lane.
    let flip = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    let [a, b, c, d, e] = state.map(|w| w as i32);
    let mut abcd = _mm_set_epi32(a, b, c, d);
    let mut e0 = _mm_set_epi32(e, 0, 0, 0);
    for block in blocks.chunks_exact(64) {
        let (abcd_save, e_save) = (abcd, e0);
        let mut w = [_mm_setzero_si128(); 4];
        // ABCD as it stood before the latest four rounds: its A, rotated,
        // is the E of the next four.
        let mut before = abcd;
        macro_rules! rounds {
            ($groups:expr, $func:literal) => {
                for g in $groups {
                    let e = if g < 4 {
                        w[g] = _mm_shuffle_epi8(load(lane(block, g)), flip);
                        if g == 0 {
                            _mm_add_epi32(e0, w[0])
                        } else {
                            _mm_sha1nexte_epu32(before, w[g])
                        }
                    } else {
                        let x = _mm_sha1msg1_epu32(w[g % 4], w[(g + 1) % 4]);
                        let x = _mm_xor_si128(x, w[(g + 2) % 4]);
                        w[g % 4] = _mm_sha1msg2_epu32(x, w[(g + 3) % 4]);
                        _mm_sha1nexte_epu32(before, w[g % 4])
                    };
                    before = abcd;
                    abcd = _mm_sha1rnds4_epu32(abcd, e, $func);
                }
            };
        }
        rounds!(0..5, 0);
        rounds!(5..10, 1);
        rounds!(10..15, 2);
        rounds!(15..20, 3);
        e0 = _mm_sha1nexte_epu32(before, e_save);
        abcd = _mm_add_epi32(abcd, abcd_save);
    }
    let mut out = [0u8; 16];
    store(&mut out, abcd);
    for (s, w) in state[..4].iter_mut().rev().zip(out.chunks_exact(4)) {
        *s = u32::from_le_bytes(w.try_into().expect("chunks_exact(4)"));
    }
    state[4] = _mm_extract_epi32(e0, 3) as u32;
}

/// `sha256rnds2` wants the state as `ABEF` / `CDGH`; each group of four
/// rounds is two of them fed `W + K`, and `W[t..t+4] =
/// sha256msg2(sha256msg1(W[t-16..], W[t-12..]) + W[t-7..], W[t-4..])`
/// extends the schedule in a four-register ring. `k` is the round
/// constant table the portable kernel already owns.
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn sha256_compress_shani(state: &mut [u32; 8], blocks: &[u8], k: &[u32; 64]) {
    // Byte-swaps each 32-bit word.
    let flip = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);
    for block in blocks.chunks_exact(64) {
        let (abef_save, cdgh_save) = (abef, cdgh);
        let mut w = [_mm_setzero_si128(); 4];
        for g in 0..16 {
            if g < 4 {
                w[g] = _mm_shuffle_epi8(load(lane(block, g)), flip);
            } else {
                let x = _mm_sha256msg1_epu32(w[g % 4], w[(g + 1) % 4]);
                let w7 = _mm_alignr_epi8(w[(g + 3) % 4], w[(g + 2) % 4], 4);
                w[g % 4] = _mm_sha256msg2_epu32(_mm_add_epi32(x, w7), w[(g + 3) % 4]);
            }
            let kg = _mm_set_epi32(
                k[4 * g + 3] as i32,
                k[4 * g + 2] as i32,
                k[4 * g + 1] as i32,
                k[4 * g] as i32,
            );
            let wk = _mm_add_epi32(w[g % 4], kg);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }
        abef = _mm_add_epi32(abef, abef_save);
        cdgh = _mm_add_epi32(cdgh, cdgh_save);
    }
    let (mut hi, mut lo) = ([0u8; 16], [0u8; 16]);
    store(&mut hi, abef);
    store(&mut lo, cdgh);
    let word = |bytes: &[u8; 16], i: usize| {
        u32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().expect("4 bytes"))
    };
    *state = [
        word(&hi, 3),
        word(&hi, 2),
        word(&lo, 3),
        word(&lo, 2),
        word(&hi, 1),
        word(&hi, 0),
        word(&lo, 1),
        word(&lo, 0),
    ];
}
