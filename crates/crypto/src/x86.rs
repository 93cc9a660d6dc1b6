//! x86-64 hardware kernels: AES-NI AES-128-CBC, SHA-NI SHA-1 / SHA-256
//! block compression, the two stitched into one pass for the AES128-SHA
//! record seal, AVX-512 IFMA radix-2^52 Montgomery products for
//! RSA-2048's CRT halves, 16-lane AVX-512 SHA-1 and VAES CBC encryption
//! for a batch of records, and BMI2 + ADX Montgomery products and
//! squares in the P-256 field (DESIGN.md §20).
//!
//! This is the only file in the crate that may contain `unsafe`. It
//! holds ten kernels and nothing else; the dispatch sites
//! (`aes::cbc_{en,de}crypt_in_place` with the single-block pair,
//! `sha1::compress`, `sha256::compress`, `CbcHmacSha1::seal_in_place`,
//! `mont::Mont52`, `cbc_hmac::{seal,open}_batch`, `sha1::digest_x16`
//! and `fp::FpParams`) call the safe wrappers below, which run a kernel
//! only right behind `is_x86_feature_detected!` (std caches the CPUID
//! result in an atomic) and otherwise return `false`, sending the caller
//! down its portable path — or, for the stitched seal, the radix-2^52
//! product, the 16-lane kernels and the P-256 field products, only with
//! the [`AesSha`] / [`Ifma`] / [`Avx512Vaes`] / [`Bmi2Adx`] proof that
//! the same check made. Outputs are bit-identical to the portable
//! kernels (for the radix-2^52 product: the exponentiations built on it
//! return the same integers), which stay as the path on every other CPU
//! and as the reference the tests compare against.
//!
//! The intrinsic kernels are safe `#[target_feature]` functions: inside
//! them the register-only intrinsics need no `unsafe`. What remains
//! `unsafe` is (a) each call from a wrapper, which has no target feature
//! of its own, into a kernel, (b) the unaligned 16- and 64-byte loads
//! and stores, which take raw pointers, and (c) the two P-256 kernels,
//! which are `asm!` blocks: LLVM does not emit `mulx` with the two
//! carry chains of `adcx` / `adox` from Rust or from intrinsics.
//!
//! Every symmetric kernel takes a run of whole blocks so that round keys
//! and hash state are loaded once and stay in registers across the run.

use crate::mont::{Limbs52, MASK52};
use std::arch::asm;
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
        prev = cbc_encrypt_block(&rk, prev, lane_mut(block, 0));
    }
}

/// `block` ← AES(`block` ⊕ `prev`); returns the ciphertext, the next
/// block's chain value.
#[target_feature(enable = "aes")]
fn cbc_encrypt_block(rk: &[__m128i; 11], prev: __m128i, block: &mut [u8; 16]) -> __m128i {
    let mut s = _mm_xor_si128(_mm_xor_si128(load(block), prev), rk[0]);
    for k in &rk[1..10] {
        s = _mm_aesenc_si128(s, *k);
    }
    let ct = _mm_aesenclast_si128(s, rk[10]);
    store(block, ct);
    ct
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

/// The four message vectors of the 64-byte block at `buf[at..at + 64]`.
#[target_feature(enable = "ssse3")]
fn sha1_message(buf: &[u8], at: usize) -> [__m128i; 4] {
    let block = &buf[at..at + 64];
    // Reverses all 16 bytes: big-endian words, first word in the top lane.
    let flip = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    [0, 1, 2, 3].map(|i| _mm_shuffle_epi8(load(lane(block, i)), flip))
}

/// `state` as the `(ABCD, E)` register pair: A in the top lane of the
/// first, E in the top lane of the second.
#[target_feature(enable = "sse4.1")]
fn sha1_state_load(state: &[u32; 5]) -> (__m128i, __m128i) {
    let [a, b, c, d, e] = state.map(|w| w as i32);
    (_mm_set_epi32(a, b, c, d), _mm_set_epi32(e, 0, 0, 0))
}

#[target_feature(enable = "sse4.1")]
fn sha1_state_store(state: &mut [u32; 5], abcd: __m128i, e0: __m128i) {
    let mut out = [0u8; 16];
    store(&mut out, abcd);
    for (s, w) in state[..4].iter_mut().rev().zip(out.chunks_exact(4)) {
        *s = u32::from_le_bytes(w.try_into().expect("chunks_exact(4)"));
    }
    state[4] = _mm_extract_epi32(e0, 3) as u32;
}

/// One SHA-1 block on the register state `($abcd, $e0)`, message
/// vectors `$msg`, running `$between!(g)` before each four-round group
/// `g` (0..20) — the slot the stitched seal fills with AES rounds.
///
/// `sha1rnds4` does four rounds, `sha1nexte` folds the rotated `A` of
/// four rounds ago into the next four schedule words, and `W[t..t+4] =
/// sha1msg2(sha1msg1(W[t-16..], W[t-12..]) ^ W[t-8..], W[t-4..])`
/// extends the schedule in a four-register ring.
macro_rules! sha1_block {
    ($abcd:ident, $e0:ident, $msg:expr, $between:ident) => {{
        let (abcd_save, e_save) = ($abcd, $e0);
        let mut w: [__m128i; 4] = $msg;
        // ABCD as it stood before the latest four rounds: its A, rotated,
        // is the E of the next four.
        let mut before = $abcd;
        sha1_block!(@groups $abcd, $e0, w, before, $between;
            0 0, 1 0, 2 0, 3 0, 4 0, 5 1, 6 1, 7 1, 8 1, 9 1,
            10 2, 11 2, 12 2, 13 2, 14 2, 15 3, 16 3, 17 3, 18 3, 19 3);
        $e0 = _mm_sha1nexte_epu32(before, e_save);
        $abcd = _mm_add_epi32($abcd, abcd_save);
    }};
    (@groups $abcd:ident, $e0:ident, $w:ident, $before:ident, $between:ident;
        $($g:literal $func:literal),*) => {
        $(
            $between!($g);
            let e = if $g == 0 {
                _mm_add_epi32($e0, $w[0])
            } else if $g < 4 {
                _mm_sha1nexte_epu32($before, $w[$g % 4])
            } else {
                let x = _mm_sha1msg1_epu32($w[$g % 4], $w[($g + 1) % 4]);
                let x = _mm_xor_si128(x, $w[($g + 2) % 4]);
                $w[$g % 4] = _mm_sha1msg2_epu32(x, $w[($g + 3) % 4]);
                _mm_sha1nexte_epu32($before, $w[$g % 4])
            };
            $before = $abcd;
            $abcd = _mm_sha1rnds4_epu32($abcd, e, $func);
        )*
    };
}

/// Nothing to run between the groups of a plain SHA-1 block.
macro_rules! no_interleave {
    ($g:literal) => {};
}

/// The state stays in registers across the run of blocks.
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn sha1_compress_shani(state: &mut [u32; 5], blocks: &[u8]) {
    let (mut abcd, mut e0) = sha1_state_load(state);
    for at in (0..blocks.len() / 64).map(|i| 64 * i) {
        sha1_block!(abcd, e0, sha1_message(blocks, at), no_interleave);
    }
    sha1_state_store(state, abcd, e0);
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

// ---- Stitched AES-128-CBC encryption + SHA-1 ----

/// Proof that the CPU has AES-NI and the SHA extensions, the two units
/// the stitched seal runs on: only [`aes_sha`] makes one.
#[derive(Clone, Copy)]
pub(crate) struct AesSha(());

/// `Some` when the stitched seal can run. Its caller must commit to the
/// kernel before calling it (it hashes the record's first bytes), so
/// the check comes first and the kernel takes the proof.
pub(crate) fn aes_sha() -> Option<AesSha> {
    (has_aes() && has_sha()).then_some(AesSha(()))
}

/// One pass over `buf` for the MAC-then-encrypt seal: SHA-1-compress the
/// whole 64-byte blocks of `buf[lead..]` into `state`, and AES-128-CBC
/// encrypt in place, under `enc` and chained from `chain`, every 16-byte
/// block of `buf` that ends at or before the last hashed byte; `chain`
/// returns as the last ciphertext block. The caller has already hashed
/// `buf[..lead]`.
pub(crate) fn cbc_sha1_encrypt(
    _cpu: AesSha,
    enc: &[u32; 44],
    chain: &mut [u8; 16],
    state: &mut [u32; 5],
    buf: &mut [u8],
    lead: usize,
) {
    // SAFETY: an `AesSha` exists only where `aes_sha()` confirmed `aes`,
    // `sha`, `ssse3` and `sse4.1`, the features the kernel is compiled
    // for.
    unsafe { cbc_sha1_encrypt_stitched(enc, chain, state, buf, lead) };
}

/// CBC encryption is one dependent `aesenc` chain and SHA-1 one
/// dependent `sha1rnds4` chain, on different units, so each 64-byte
/// step issues them interleaved: two AES rounds before each of the 20
/// four-round SHA groups, which is four AES blocks per SHA block. A
/// step reads its SHA block before it stores any ciphertext, and
/// encrypts only blocks that lie wholly in bytes already read, so the
/// hash sees plaintext.
#[target_feature(enable = "aes,sha,ssse3,sse4.1")]
fn cbc_sha1_encrypt_stitched(
    enc: &[u32; 44],
    chain: &mut [u8; 16],
    state: &mut [u32; 5],
    buf: &mut [u8],
    lead: usize,
) {
    let rk = round_keys(enc);
    let mut prev = load(chain);
    // The blocks before the first SHA block: hashed by the caller.
    for block in buf[..lead & !15].chunks_exact_mut(16) {
        prev = cbc_encrypt_block(&rk, prev, lane_mut(block, 0));
    }
    let (mut abcd, mut e0) = sha1_state_load(state);
    // The AES state of the block in flight.
    let mut s = prev;
    for at in (0..(buf.len() - lead) / 64).map(|i| lead + 64 * i) {
        // Four AES blocks from the one holding `buf[at]`: together they
        // end at or before `at + 64`.
        let first = at / 16;
        macro_rules! aes_rounds {
            ($g:literal) => {
                let block = first + $g / 5;
                if $g % 5 == 0 {
                    s = _mm_xor_si128(_mm_xor_si128(load(lane(buf, block)), prev), rk[0]);
                }
                s = _mm_aesenc_si128(s, rk[2 * ($g % 5) + 1]);
                if $g % 5 == 4 {
                    prev = _mm_aesenclast_si128(s, rk[10]);
                    store(lane_mut(buf, block), prev);
                } else {
                    s = _mm_aesenc_si128(s, rk[2 * ($g % 5) + 2]);
                }
            };
        }
        sha1_block!(abcd, e0, sha1_message(buf, at), aes_rounds);
    }
    sha1_state_store(state, abcd, e0);
    store(chain, prev);
}

// ---- Radix-2^52 Montgomery products (AVX-512 IFMA) ----

/// Proof that the CPU has AVX-512F and AVX-512 IFMA, the two the
/// radix-2^52 kernel runs on: only [`ifma`] makes one.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Ifma(());

/// `Some` when [`amm52x20_x2`] can run. The caller keeps the proof in
/// the per-key context it builds for the kernel, so the check is made
/// once per key.
pub(crate) fn ifma() -> Option<Ifma> {
    (is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma"))
        .then_some(Ifma(()))
}

/// A value's three registers.
#[target_feature(enable = "avx512f")]
#[inline]
fn load3(x: &Limbs52) -> [__m512i; 3] {
    // SAFETY: each `x[8 * j..]` holds 8 readable words (`x` is 24) and
    // `loadu` has no alignment requirement.
    std::array::from_fn(|j| unsafe { _mm512_loadu_si512(x[8 * j..].as_ptr().cast()) })
}

#[target_feature(enable = "avx512f")]
#[inline]
fn store3(x: &mut Limbs52, v: [__m512i; 3]) {
    for (j, v) in v.into_iter().enumerate() {
        let words: &mut [u64; 8] = (&mut x[8 * j..8 * j + 8]).try_into().expect("8 lanes");
        // SAFETY: `words` is 64 writable bytes and `storeu` has no
        // alignment requirement.
        unsafe { _mm512_storeu_si512(words.as_mut_ptr().cast(), v) }
    }
}

/// Two independent almost-Montgomery products, `a[h] * b[h] / 2^1040
/// mod m[h]` for `h` = 0, 1, where `k0[h] = -m[h]^-1 mod 2^52`.
///
/// Inputs are normalised limbs (each below 2^52: the multiplier reads
/// only the low 52 bits of a lane), `a[h]` and `b[h]` below `2 m[h]`,
/// and `4 m[h] <= 2^1040`. The output is normalised and below `2 m[h]`
/// again, so products chain without a conditional subtraction: the
/// result is congruent to the Montgomery product, not reduced.
pub(crate) fn amm52x20_x2(
    _cpu: Ifma,
    a: [&Limbs52; 2],
    b: [&Limbs52; 2],
    m: [&Limbs52; 2],
    k0: [u64; 2],
) -> [Limbs52; 2] {
    // SAFETY: an `Ifma` exists only where `ifma()` confirmed `avx512f`
    // and `avx512ifma`, the features the kernel is compiled for.
    unsafe { amm52x20_ifma(a, b, m, k0) }
}

/// Word-serial Montgomery: for each limb `b_i`, add `a * b_i`, add the
/// multiple `y * m` that clears limb 0, and divide by 2^52 — one lane
/// shift down the three registers. `madd52lo` adds the low half of each
/// 104-bit lane product at its own lane before the shift and `madd52hi`
/// the high half at the same lane after it, which is one limb up. The
/// lanes are not normalised inside the loop (20 steps add at most
/// 80 · 2^52 to a lane). Limb 0 lives in a general register: `y` needs
/// it every step, and the scalar `a_0 b_i + y m_0` is shorter than a
/// round trip through the vector unit; the vector lane 0 is never read.
/// The two products are independent chains, interleaved step by step so
/// each hides the other's multiply latency.
#[target_feature(enable = "avx512f,avx512ifma")]
fn amm52x20_ifma(
    a: [&Limbs52; 2],
    b: [&Limbs52; 2],
    m: [&Limbs52; 2],
    k0: [u64; 2],
) -> [Limbs52; 2] {
    let (va, vm) = ([load3(a[0]), load3(a[1])], [load3(m[0]), load3(m[1])]);
    let zero = _mm512_setzero_si512();
    let mut acc = [[zero; 3]; 2];
    let mut acc0 = [0u64; 2];
    for (&b0, &b1) in b[0][..20].iter().zip(&b[1][..20]) {
        for (h, bi) in [b0, b1].into_iter().enumerate() {
            let t = acc0[h] as u128 + a[h][0] as u128 * bi as u128;
            let y = (t as u64).wrapping_mul(k0[h]) & MASK52;
            let t = t + m[h][0] as u128 * y as u128;
            let (vb, vy) = (_mm512_set1_epi64(bi as i64), _mm512_set1_epi64(y as i64));
            let r = &mut acc[h];
            for j in 0..3 {
                r[j] = _mm512_madd52lo_epu64(r[j], va[h][j], vb);
                r[j] = _mm512_madd52lo_epu64(r[j], vm[h][j], vy);
            }
            r[0] = _mm512_alignr_epi64::<1>(r[1], r[0]);
            r[1] = _mm512_alignr_epi64::<1>(r[2], r[1]);
            r[2] = _mm512_alignr_epi64::<1>(zero, r[2]);
            // `t` is a multiple of 2^52: its quotient carries limb 0's
            // whole contribution, the high halves of `a_0 b_i` and
            // `y m_0` included.
            acc0[h] = (t >> 52) as u64 + _mm_cvtsi128_si64(_mm512_castsi512_si128(r[0])) as u64;
            for j in 0..3 {
                r[j] = _mm512_madd52hi_epu64(r[j], va[h][j], vb);
                r[j] = _mm512_madd52hi_epu64(r[j], vm[h][j], vy);
            }
        }
    }
    let mut out = [[0u64; 24]; 2];
    for h in 0..2 {
        store3(&mut out[h], acc[h]);
        out[h][0] = acc0[h];
        let mut carry = 0;
        for limb in &mut out[h][..20] {
            let v = *limb + carry;
            *limb = v & MASK52;
            carry = v >> 52;
        }
        debug_assert_eq!(carry, 0, "an almost-Montgomery product is below 2^1040");
    }
    out
}

// ---- 16-lane AES-128-CBC encryption and SHA-1 (AVX-512, VAES) ----

/// Records one multi-buffer pass carries: sixteen 32-bit SHA-1 words in
/// a `zmm`, and four `zmm` of four 128-bit AES blocks each.
pub(crate) const LANES: usize = 16;

/// Proof that the CPU has AVX-512F, AVX-512BW and VAES, what the two
/// 16-lane kernels run on: only [`avx512_vaes`] makes one.
#[derive(Clone, Copy)]
pub(crate) struct Avx512Vaes(());

/// `Some` when [`sha1_x16`] and [`cbc_encrypt_x16`] can run.
pub(crate) fn avx512_vaes() -> Option<Avx512Vaes> {
    (is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("vaes"))
    .then_some(Avx512Vaes(()))
}

/// Unaligned 64-byte load.
#[target_feature(enable = "avx512f")]
#[inline]
fn load64(bytes: &[u8; 64]) -> __m512i {
    // SAFETY: `bytes` is 64 readable bytes and `loadu` has no alignment
    // requirement.
    unsafe { _mm512_loadu_si512(bytes.as_ptr().cast()) }
}

/// Unaligned 64-byte store.
#[target_feature(enable = "avx512f")]
#[inline]
fn store64(bytes: &mut [u8; 64], v: __m512i) {
    // SAFETY: `bytes` is 64 writable bytes and `storeu` has no alignment
    // requirement.
    unsafe { _mm512_storeu_si512(bytes.as_mut_ptr().cast(), v) }
}

/// Sixteen words as the bytes of a register, and back.
fn words_to_bytes(words: &[u32; LANES]) -> [u8; 64] {
    let mut bytes = [0u8; 64];
    for (b, w) in bytes.chunks_exact_mut(4).zip(words) {
        b.copy_from_slice(&w.to_le_bytes());
    }
    bytes
}

fn bytes_to_words(bytes: &[u8; 64]) -> [u32; LANES] {
    std::array::from_fn(|i| {
        u32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().expect("4 bytes"))
    })
}

/// One lane of [`sha1_x16`]: its message blocks as up to three runs of
/// whole 64-byte blocks, hashed in order. A lane with no blocks idles.
pub(crate) type Sha1Lane<'a> = [&'a [u8]; 3];

/// SHA-1 compression of sixteen independent messages at once:
/// `state[w][l]` is word `w` of lane `l`'s state, and lane `l` absorbs
/// the blocks of `lanes[l]`. Lanes may differ in length; one that has
/// run out keeps its state while the others go on.
pub(crate) fn sha1_x16(
    _cpu: Avx512Vaes,
    state: &mut [[u32; LANES]; 5],
    lanes: &[Sha1Lane<'_>; LANES],
) {
    // SAFETY: an `Avx512Vaes` exists only where `avx512_vaes()` confirmed
    // `avx512f` and `avx512bw`, the features the kernel is compiled for.
    unsafe { sha1_x16_avx512(state, lanes) }
}

/// Block `i` of a lane, `None` past its end.
#[inline(always)]
fn sha1_lane_block<'a>(lane: &Sha1Lane<'a>, counts: &[usize; 3], i: usize) -> Option<&'a [u8; 64]> {
    let mut i = i;
    for (run, &n) in lane.iter().zip(counts) {
        if i < n {
            return Some(run[64 * i..64 * i + 64].try_into().expect("64-byte block"));
        }
        i -= n;
    }
    None
}

/// Sixteen rows of sixteen words → sixteen columns, in place: `r[j]`
/// ends up holding word `j` of every row, row `l` in lane `l`. Pairs of
/// rows interleave by word, then by pairs of words, leaving each 128-bit
/// lane `q` of `u[g][k]` with word `4q + k` of rows `4g..4g + 4`; two
/// rounds of 128-bit shuffles then gather the four groups. (Plain loops
/// over arrays: a closure here would not inherit the target features
/// and would not be inlined.)
#[target_feature(enable = "avx512f")]
#[inline]
fn transpose16(r: &mut [__m512i; 16]) {
    let mut u = [[_mm512_setzero_si512(); 4]; 4];
    for g in 0..4 {
        let lo01 = _mm512_unpacklo_epi32(r[4 * g], r[4 * g + 1]);
        let hi01 = _mm512_unpackhi_epi32(r[4 * g], r[4 * g + 1]);
        let lo23 = _mm512_unpacklo_epi32(r[4 * g + 2], r[4 * g + 3]);
        let hi23 = _mm512_unpackhi_epi32(r[4 * g + 2], r[4 * g + 3]);
        u[g] = [
            _mm512_unpacklo_epi64(lo01, lo23),
            _mm512_unpackhi_epi64(lo01, lo23),
            _mm512_unpacklo_epi64(hi01, hi23),
            _mm512_unpackhi_epi64(hi01, hi23),
        ];
    }
    for k in 0..4 {
        let v0 = _mm512_shuffle_i32x4::<0x44>(u[0][k], u[1][k]);
        let v1 = _mm512_shuffle_i32x4::<0xee>(u[0][k], u[1][k]);
        let v2 = _mm512_shuffle_i32x4::<0x44>(u[2][k], u[3][k]);
        let v3 = _mm512_shuffle_i32x4::<0xee>(u[2][k], u[3][k]);
        r[k] = _mm512_shuffle_i32x4::<0x88>(v0, v2);
        r[4 + k] = _mm512_shuffle_i32x4::<0xdd>(v0, v2);
        r[8 + k] = _mm512_shuffle_i32x4::<0x88>(v1, v3);
        r[12 + k] = _mm512_shuffle_i32x4::<0xdd>(v1, v3);
    }
}

/// Eighty rounds on sixteen lanes, one lane per 32-bit element: the
/// round functions are single `vpternlogd`s (choose `0xca`, parity
/// `0x96`, majority `0xe8`), and the schedule lives in a sixteen-register
/// ring as in [`crate::sha1::compress_portable`]. Fully unrolled, so
/// every ring index is a constant and the ring stays in registers.
#[target_feature(enable = "avx512f")]
#[inline]
fn sha1_x16_rounds(s: &mut [__m512i; 5], w: &mut [__m512i; 16]) {
    let [mut a, mut b, mut c, mut d, mut e] = *s;
    macro_rules! rounds {
        ($k:expr, $f:literal; $($t:literal)*) => {
            let k = _mm512_set1_epi32($k as i32);
            $(
                if $t >= 16 {
                    let x = _mm512_ternarylogic_epi32::<0x96>(
                        w[($t + 13) & 15],
                        w[($t + 8) & 15],
                        w[($t + 2) & 15],
                    );
                    w[$t & 15] = _mm512_rol_epi32::<1>(_mm512_xor_si512(x, w[$t & 15]));
                }
                let f = _mm512_ternarylogic_epi32::<$f>(b, c, d);
                let tmp = _mm512_add_epi32(
                    _mm512_add_epi32(_mm512_rol_epi32::<5>(a), f),
                    _mm512_add_epi32(_mm512_add_epi32(e, k), w[$t & 15]),
                );
                e = d;
                d = c;
                c = _mm512_rol_epi32::<30>(b);
                b = a;
                a = tmp;
            )*
        };
    }
    rounds!(0x5A827999u32, 0xca;
        0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19);
    rounds!(0x6ED9EBA1u32, 0x96;
        20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39);
    rounds!(0x8F1BBCDCu32, 0xe8;
        40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59);
    rounds!(0xCA62C1D6u32, 0x96;
        60 61 62 63 64 65 66 67 68 69 70 71 72 73 74 75 76 77 78 79);
    for (s, x) in s.iter_mut().zip([a, b, c, d, e]) {
        *s = _mm512_add_epi32(*s, x);
    }
}

/// Each step loads one block of every lane still running (an idle lane
/// reads zeros), transposes the sixteen rows into the sixteen schedule
/// words, byte-swaps them to big-endian words and runs the rounds; the
/// state update is masked to the running lanes.
#[target_feature(enable = "avx512f,avx512bw")]
fn sha1_x16_avx512(state: &mut [[u32; LANES]; 5], lanes: &[Sha1Lane<'_>; LANES]) {
    const IDLE: [u8; 64] = [0; 64];
    let mut counts = [[0usize; 3]; LANES];
    let mut steps = 0;
    for (count, lane) in counts.iter_mut().zip(lanes) {
        for (n, run) in count.iter_mut().zip(lane) {
            *n = run.len() / 64;
        }
        steps = steps.max(count.iter().sum());
    }
    // Reverses the bytes of each 32-bit word.
    let flip = _mm512_broadcast_i32x4(_mm_set_epi8(
        12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3,
    ));
    let mut s = [_mm512_setzero_si512(); 5];
    for (s, words) in s.iter_mut().zip(state.iter()) {
        *s = load64(&words_to_bytes(words));
    }
    let mut w = [_mm512_setzero_si512(); 16];
    for i in 0..steps {
        let mut running: u16 = 0;
        for l in 0..LANES {
            let block = sha1_lane_block(&lanes[l], &counts[l], i);
            running |= (block.is_some() as u16) << l;
            w[l] = load64(block.unwrap_or(&IDLE));
        }
        transpose16(&mut w);
        for x in &mut w {
            *x = _mm512_shuffle_epi8(*x, flip);
        }
        let mut next = s;
        sha1_x16_rounds(&mut next, &mut w);
        for (s, n) in s.iter_mut().zip(next) {
            *s = _mm512_mask_mov_epi32(*s, running, n);
        }
    }
    for (words, v) in state.iter_mut().zip(s) {
        let mut bytes = [0u8; 64];
        store64(&mut bytes, v);
        *words = bytes_to_words(&bytes);
    }
}

/// One lane of [`cbc_encrypt_x16`]: an AES-128 encryption schedule, the
/// IV, and whole 16-byte blocks to encrypt in place. A lane with no
/// blocks idles.
pub(crate) struct CbcLane<'a> {
    pub(crate) enc: &'a [u32; 44],
    pub(crate) iv: &'a [u8; 16],
    pub(crate) buf: &'a mut [u8],
}

/// AES-128-CBC encryption of sixteen independent buffers at once, each
/// under its own key and IV. Lanes may differ in length.
pub(crate) fn cbc_encrypt_x16(_cpu: Avx512Vaes, lanes: &mut [CbcLane<'_>; LANES]) {
    // SAFETY: an `Avx512Vaes` exists only where `avx512_vaes()` confirmed
    // `avx512f` and `vaes`, the features the kernel is compiled for.
    unsafe { cbc_encrypt_x16_vaes(lanes) }
}

/// Four 128-bit values as one register, `x[0]` in the low lane.
#[target_feature(enable = "avx512f")]
#[inline]
fn join4(x: [__m128i; 4]) -> __m512i {
    let v = _mm512_castsi128_si512(x[0]);
    let v = _mm512_inserti32x4::<1>(v, x[1]);
    let v = _mm512_inserti32x4::<2>(v, x[2]);
    _mm512_inserti32x4::<3>(v, x[3])
}

/// Four chains per register, four registers: each CBC chain is serial,
/// but the sixteen are independent, so one `vaesenc` advances four of
/// them and the four registers' rounds overlap in the pipeline. Lane
/// `4g + j` is 128-bit lane `j` of register `g`; its round keys sit at
/// the same place in `rk[g]`. A step encrypts block `i` of every lane
/// that has one; an idle lane's slot computes on zeros and is not
/// stored.
#[target_feature(enable = "avx512f,vaes")]
fn cbc_encrypt_x16_vaes(lanes: &mut [CbcLane<'_>; LANES]) {
    let mut rk = [[_mm512_setzero_si512(); 11]; 4];
    let mut chain = [_mm512_setzero_si512(); 4];
    let mut counts = [0usize; LANES];
    for g in 0..4 {
        let keys = [0, 1, 2, 3].map(|j| round_keys(lanes[4 * g + j].enc));
        for (r, rk) in rk[g].iter_mut().enumerate() {
            *rk = join4([keys[0][r], keys[1][r], keys[2][r], keys[3][r]]);
        }
        let ivs = [0, 1, 2, 3].map(|j| load(lanes[4 * g + j].iv));
        chain[g] = join4(ivs);
    }
    for (count, lane) in counts.iter_mut().zip(lanes.iter()) {
        *count = lane.buf.len() / 16;
    }
    let steps = counts.iter().copied().max().unwrap_or(0);
    for i in 0..steps {
        let mut s = [_mm512_setzero_si512(); 4];
        for g in 0..4 {
            let mut pt = [_mm_setzero_si128(); 4];
            for (j, pt) in pt.iter_mut().enumerate() {
                let l = 4 * g + j;
                if i < counts[l] {
                    *pt = load(lane(lanes[l].buf, i));
                }
            }
            // Plaintext ⊕ round key 0 ⊕ chain in one `vpternlogd`: only
            // the last input is on the chain's critical path.
            s[g] = _mm512_ternarylogic_epi32::<0x96>(join4(pt), rk[g][0], chain[g]);
        }
        for r in 1..10 {
            for (s, rk) in s.iter_mut().zip(&rk) {
                *s = _mm512_aesenc_epi128(*s, rk[r]);
            }
        }
        for g in 0..4 {
            chain[g] = _mm512_aesenclast_epi128(s[g], rk[g][10]);
            let ct = [
                _mm512_extracti32x4_epi32::<0>(chain[g]),
                _mm512_extracti32x4_epi32::<1>(chain[g]),
                _mm512_extracti32x4_epi32::<2>(chain[g]),
                _mm512_extracti32x4_epi32::<3>(chain[g]),
            ];
            for (j, ct) in ct.into_iter().enumerate() {
                let l = 4 * g + j;
                if i < counts[l] {
                    store(lane_mut(lanes[l].buf, i), ct);
                }
            }
        }
    }
}

// ---- P-256 field products (BMI2 + ADX) ----

/// Proof that the CPU has BMI2 (`mulx`) and ADX (`adcx`/`adox`), what
/// the two P-256 kernels run on: only [`bmi2_adx`] makes one.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Bmi2Adx(());

/// `Some` when [`p256_mul_mont`] and [`p256_sqr_mont`] can run. The
/// P-256 field keeps the proof (`fp::FpParams::new`), so the check is
/// made once per process.
pub(crate) fn bmi2_adx() -> Option<Bmi2Adx> {
    (is_x86_feature_detected!("bmi2") && is_x86_feature_detected!("adx")).then_some(Bmi2Adx(()))
}

/// The top limb of the P-256 prime `p = 2^256 - 2^224 + 2^192 + 2^96 -
/// 1`, whose limbs are `[2^64 - 1, 2^32 - 1, 0, P256_TOP]`.
const P256_TOP: u64 = 0xffff_ffff_0000_0001;

// The kernels follow Gueron & Krasnov, "Fast prime field elliptic curve
// cryptography with 256-bit primes" (J. Cryptogr. Eng. 2015). Since
// `p ≡ -1 mod 2^64`, `-p^-1 mod 2^64` is 1: the multiple of `p` that
// clears the low limb `m` of the accumulator is `m` itself, and
// `m * p = -m + m * 2^96 + m * P256_TOP * 2^192`. So a reduction round
// drops the low limb (it cancels `-m`), adds `m << 32` and `m >> 32` to
// the next two limbs and one `mulx` by `P256_TOP` to the two above
// them, and moves the accumulator down a limb. The templates name
// their registers; a round's macro takes the names in accumulator
// order, so moving down a limb is a renaming, not a move.

/// One reduction round of the product's six-limb accumulator `x0..x5`
/// (`x5` takes the carry): afterwards the value is `x1..x5`.
#[rustfmt::skip]
macro_rules! p256_reduce6 {
    ($x0:literal, $x1:literal, $x2:literal, $x3:literal, $x4:literal, $x5:literal) => {
        concat!(
            "mov rdx, {", $x0, "}\n",
            "mov {t0}, {", $x0, "}\n",
            "shl {t0}, 32\n",
            "shr {", $x0, "}, 32\n",
            "add {", $x1, "}, {t0}\n",
            "adc {", $x2, "}, {", $x0, "}\n",
            "mulx {t1}, {t0}, {top}\n",
            "adc {", $x3, "}, {t0}\n",
            "adc {", $x4, "}, {t1}\n",
            "adc {", $x5, "}, 0\n",
        )
    };
}

/// `a * b[i]` (at byte offset `off` of `b`) added into the five-limb
/// accumulator `x0..x4`, and `x5` zeroed for the reduction round that
/// follows: the low halves ride the `adcx` (CF) chain and the high
/// halves, one limb up, the `adox` (OF) chain, so the two run side by
/// side. Nothing carries out of `x4`: it holds at most 1 (the
/// accumulator is below `2p`), and `a` below `p` has `a_3 <= P256_TOP`,
/// so the high half it gets is at most `2^64 - 2^32` and the two carries
/// in cannot reach `2^64`.
#[rustfmt::skip]
macro_rules! p256_mul_row {
    ($off:literal, $x0:literal, $x1:literal, $x2:literal, $x3:literal, $x4:literal, $x5:literal) => {
        concat!(
            "mov rdx, qword ptr [{b} + ", $off, "]\n",
            "xor {", $x5, ":e}, {", $x5, ":e}\n",
            "mulx {t1}, {t0}, qword ptr [{a}]\n",
            "adcx {", $x0, "}, {t0}\n",
            "adox {", $x1, "}, {t1}\n",
            "mulx {t1}, {t0}, qword ptr [{a} + 8]\n",
            "adcx {", $x1, "}, {t0}\n",
            "adox {", $x2, "}, {t1}\n",
            "mulx {t1}, {t0}, qword ptr [{a} + 16]\n",
            "adcx {", $x2, "}, {t0}\n",
            "adox {", $x3, "}, {t1}\n",
            "mulx {t1}, {t0}, qword ptr [{a} + 24]\n",
            "adcx {", $x3, "}, {t0}\n",
            "adox {", $x4, "}, {t1}\n",
            "adcx {", $x4, "}, {", $x5, "}\n",
        )
    };
}

/// Montgomery product `a * b / 2^256 mod p` of two reduced P-256 field
/// elements (little-endian limbs, each below `p`); the result is
/// reduced too, and equals `fp::FpParams::<4>::mul_portable`'s.
///
/// Row-interleaved: four rows of `a * b[i]`, each followed by one
/// reduction round, keep the accumulator below `2p` (five limbs), and a
/// branch-free `sbb` / `cmovc` subtraction of `p` ends it.
pub(crate) fn p256_mul_mont(_cpu: Bmi2Adx, a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let (r0, r1, r2, r3): (u64, u64, u64, u64);
    // SAFETY: a `Bmi2Adx` exists only where `bmi2_adx()` confirmed `bmi2`
    // (`mulx`) and `adx` (`adcx`, `adox`), the extensions the block
    // uses. It reads the 32 bytes of `a` and of `b` through their
    // pointers and writes only the registers it declares, and it
    // touches no stack.
    unsafe {
        asm!(
            // Row 0 into an empty accumulator: one carry chain.
            "mov rdx, qword ptr [{b}]",
            "mulx {acc1}, {acc0}, qword ptr [{a}]",
            "mulx {acc2}, {t0}, qword ptr [{a} + 8]",
            "add {acc1}, {t0}",
            "mulx {acc3}, {t0}, qword ptr [{a} + 16]",
            "adc {acc2}, {t0}",
            "mulx {acc4}, {t0}, qword ptr [{a} + 24]",
            "adc {acc3}, {t0}",
            "adc {acc4}, 0",
            "xor {acc5:e}, {acc5:e}",
            p256_reduce6!("acc0", "acc1", "acc2", "acc3", "acc4", "acc5"),
            p256_mul_row!("8", "acc1", "acc2", "acc3", "acc4", "acc5", "acc0"),
            p256_reduce6!("acc1", "acc2", "acc3", "acc4", "acc5", "acc0"),
            p256_mul_row!("16", "acc2", "acc3", "acc4", "acc5", "acc0", "acc1"),
            p256_reduce6!("acc2", "acc3", "acc4", "acc5", "acc0", "acc1"),
            p256_mul_row!("24", "acc3", "acc4", "acc5", "acc0", "acc1", "acc2"),
            p256_reduce6!("acc3", "acc4", "acc5", "acc0", "acc1", "acc2"),
            // The value, below 2p, is acc4, acc5, acc0, acc1 and the bit
            // acc2. Subtract p; keep the value where that borrows.
            "mov edx, 0xffffffff",
            "mov {t0}, {acc4}",
            "sub {t0}, -1",
            "mov {t1}, {acc5}",
            "sbb {t1}, rdx",
            "mov {acc3}, {acc0}",
            "sbb {acc3}, 0",
            "mov {b}, {acc1}",
            "sbb {b}, {top}",
            "sbb {acc2}, 0",
            "cmovc {t0}, {acc4}",
            "cmovc {t1}, {acc5}",
            "cmovc {acc3}, {acc0}",
            "cmovc {b}, {acc1}",
            a = in(reg) a.as_ptr(),
            b = inout(reg) b.as_ptr() => r3,
            top = in(reg) P256_TOP,
            acc0 = out(reg) _,
            acc1 = out(reg) _,
            acc2 = out(reg) _,
            acc3 = out(reg) r2,
            acc4 = out(reg) _,
            acc5 = out(reg) _,
            t0 = out(reg) r0,
            t1 = out(reg) r1,
            out("rdx") _,
            options(pure, readonly, nostack),
        );
    }
    [r0, r1, r2, r3]
}

/// One reduction round of the square's low half `x0..x3`: afterwards
/// the value is `x1, x2, x3, x0`. It needs no fifth limb, because
/// `(x + m p) / 2^64 < 2^192 + p < 2^256` for any four-limb `x`.
#[rustfmt::skip]
macro_rules! p256_reduce4 {
    ($x0:literal, $x1:literal, $x2:literal, $x3:literal) => {
        concat!(
            "mov rdx, {", $x0, "}\n",
            "mov {t0}, {", $x0, "}\n",
            "shl {t0}, 32\n",
            "shr {", $x0, "}, 32\n",
            "add {", $x1, "}, {t0}\n",
            "adc {", $x2, "}, {", $x0, "}\n",
            "mulx {", $x0, "}, {t0}, {t1}\n",
            "adc {", $x3, "}, {t0}\n",
            "adc {", $x0, "}, 0\n",
        )
    };
}

/// Montgomery square `a * a / 2^256 mod p` of a reduced P-256 field
/// element; equals `p256_mul_mont(a, a)`.
///
/// The six cross products `a_i a_j` (`i < j`) once, doubled, plus the
/// four squares `a_i^2`: 10 `mulx` where the product takes 16. Then the
/// low half is reduced in four rounds, the high half added and `p`
/// subtracted where that does not borrow.
pub(crate) fn p256_sqr_mont(_cpu: Bmi2Adx, a: &[u64; 4]) -> [u64; 4] {
    let (r0, r1, r2, r3): (u64, u64, u64, u64);
    // SAFETY: a `Bmi2Adx` exists only where `bmi2_adx()` confirmed `bmi2`
    // (`mulx`) and `adx` (`adcx`, `adox`), the extensions the block
    // uses. It reads the 32 bytes of `a` through its pointer and writes
    // only the registers it declares, and it touches no stack.
    unsafe {
        asm!(
            // Cross products: a0 * (a1, a2, a3) ...
            "mov rdx, qword ptr [{a}]",
            "mulx {c2}, {c1}, qword ptr [{a} + 8]",
            "mulx {c3}, {t0}, qword ptr [{a} + 16]",
            "add {c2}, {t0}",
            "mulx {c4}, {t0}, qword ptr [{a} + 24]",
            "adc {c3}, {t0}",
            "adc {c4}, 0",
            // ... a1 * (a2, a3) ...
            "mov rdx, qword ptr [{a} + 8]",
            "xor {c5:e}, {c5:e}",
            "mulx {t1}, {t0}, qword ptr [{a} + 16]",
            "adcx {c3}, {t0}",
            "adox {c4}, {t1}",
            "mulx {t1}, {t0}, qword ptr [{a} + 24]",
            "adcx {c4}, {t0}",
            "adox {c5}, {t1}",
            "adc {c5}, 0",
            // ... and a2 * a3.
            "mov rdx, qword ptr [{a} + 16]",
            "mulx {c6}, {t0}, qword ptr [{a} + 24]",
            "add {c5}, {t0}",
            "adc {c6}, 0",
            // Twice the cross products (CF chain) plus the squares (OF
            // chain).
            "mov rdx, qword ptr [{a}]",
            "xor {c7:e}, {c7:e}",
            "mulx {t1}, {c0}, rdx",
            "adcx {c1}, {c1}",
            "adox {c1}, {t1}",
            "mov rdx, qword ptr [{a} + 8]",
            "mulx {t1}, {t0}, rdx",
            "adcx {c2}, {c2}",
            "adox {c2}, {t0}",
            "adcx {c3}, {c3}",
            "adox {c3}, {t1}",
            "mov rdx, qword ptr [{a} + 16]",
            "mulx {t1}, {t0}, rdx",
            "adcx {c4}, {c4}",
            "adox {c4}, {t0}",
            "adcx {c5}, {c5}",
            "adox {c5}, {t1}",
            "mov rdx, qword ptr [{a} + 24]",
            "mulx {t1}, {t0}, rdx",
            "adcx {c6}, {c6}",
            "adox {c6}, {t0}",
            "adcx {c7}, {c7}",
            "adox {c7}, {t1}",
            // Reduce the low half; `t1` holds P256_TOP from here on.
            "mov {t1}, 0xffffffff00000001",
            p256_reduce4!("c0", "c1", "c2", "c3"),
            p256_reduce4!("c1", "c2", "c3", "c0"),
            p256_reduce4!("c2", "c3", "c0", "c1"),
            p256_reduce4!("c3", "c0", "c1", "c2"),
            // Add the high half: the value, below 2p, is c0..c3 and the
            // bit in `a`. Subtract p; keep the value where that borrows.
            "xor {a:e}, {a:e}",
            "add {c0}, {c4}",
            "adc {c1}, {c5}",
            "adc {c2}, {c6}",
            "adc {c3}, {c7}",
            "adc {a}, 0",
            "mov edx, 0xffffffff",
            "mov {c4}, {c0}",
            "sub {c4}, -1",
            "mov {c5}, {c1}",
            "sbb {c5}, rdx",
            "mov {c6}, {c2}",
            "sbb {c6}, 0",
            "mov {c7}, {c3}",
            "sbb {c7}, {t1}",
            "sbb {a}, 0",
            "cmovc {c4}, {c0}",
            "cmovc {c5}, {c1}",
            "cmovc {c6}, {c2}",
            "cmovc {c7}, {c3}",
            a = inout(reg) a.as_ptr() => _,
            c0 = out(reg) _,
            c1 = out(reg) _,
            c2 = out(reg) _,
            c3 = out(reg) _,
            c4 = out(reg) r0,
            c5 = out(reg) r1,
            c6 = out(reg) r2,
            c7 = out(reg) r3,
            t0 = out(reg) _,
            t1 = out(reg) _,
            out("rdx") _,
            options(pure, readonly, nostack),
        );
    }
    [r0, r1, r2, r3]
}
