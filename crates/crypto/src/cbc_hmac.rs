//! The AES128-SHA record protection as one keyed context: TLS 1.2
//! MAC-then-encrypt (RFC 5246 §6.2.3.2) with AES-128-CBC + HMAC-SHA1.
//!
//! This is the software twin of a QAT *chained cipher+hash session*:
//! the AES key schedules and the two HMAC midstates are computed once,
//! when a direction's keys are installed, and every record after that
//! costs only its own blocks. It is the single MAC-then-encrypt body in
//! the workspace — the record layer, the data-plane codec, the client
//! and the engine threads all hold an `Arc` of it.
//!
//! [`seal_batch`] and [`open_batch`] take many records at once, each
//! under its own context, and run up to [`LANES`] of them through one
//! multi-buffer pass where the CPU has the 16-lane kernels; every
//! record's bytes and verdict are the per-record methods' (DESIGN.md
//! §20).

use crate::aes::{cbc_decrypt_in_place, cbc_encrypt_in_place, Aes128};
use crate::error::CryptoError;
use crate::hmac::{constant_time_eq, Hmac};
use crate::sha1::Sha1;
#[cfg(target_arch = "x86_64")]
use crate::{sha1, x86};
use std::cell::Cell;

/// HMAC-SHA1 tag length.
const TAG_LEN: usize = 20;

/// One direction's keyed AES-128-CBC + HMAC-SHA1 state.
#[derive(Clone)]
pub struct CbcHmacSha1 {
    aes: Aes128,
    hmac: Hmac<Sha1>,
}

impl std::fmt::Debug for CbcHmacSha1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Key material stays out of logs and panic messages.
        f.write_str("CbcHmacSha1 { .. }")
    }
}

impl CbcHmacSha1 {
    /// Expand `enc_key` and key the MAC.
    pub fn new(enc_key: &[u8; 16], mac_key: &[u8]) -> Self {
        CbcHmacSha1 {
            aes: Aes128::new(enc_key),
            hmac: Hmac::new(mac_key),
        }
    }

    /// The MAC keyed and fed `aad`, ready for the content.
    fn mac(&self, aad: &[u8]) -> Hmac<Sha1> {
        #[cfg(test)]
        tests::TAGS_COMPUTED.with(|n| n.set(n.get() + 1));
        let mut mac = self.hmac.clone();
        mac.update(aad);
        mac
    }

    fn tag(&self, aad: &[u8], content: &[u8]) -> [u8; TAG_LEN] {
        let mut mac = self.mac(aad);
        mac.update(content);
        mac.finalize_fixed()
    }

    /// MAC-then-encrypt one record **in place**: `buf` holds the
    /// plaintext on entry and the ciphertext on return. The tag and
    /// TLS-style CBC padding are appended to `buf` (reserve
    /// `len + 20 + 16` up front to avoid a grow). No allocation when
    /// capacity suffices.
    ///
    /// On an x86-64 CPU with AES-NI and SHA-NI the content goes through
    /// the stitched kernel of `x86.rs`, hashed and encrypted in one pass
    /// (DESIGN.md §20); elsewhere, and for the record's last bytes, the
    /// MAC runs first and the encryption after it.
    pub fn seal_in_place(
        &self,
        iv: &[u8; 16],
        buf: &mut Vec<u8>,
        aad: &[u8],
    ) -> Result<(), CryptoError> {
        self.seal_with(iv, buf, aad, true)
    }

    /// [`Self::seal_in_place`] as two passes, MAC then encrypt, whatever
    /// the CPU: the reference the stitched kernel is tested and
    /// benchmarked against (hence reachable from `tests/` and
    /// `crates/bench`).
    #[doc(hidden)]
    pub fn seal_in_place_two_pass(
        &self,
        iv: &[u8; 16],
        buf: &mut Vec<u8>,
        aad: &[u8],
    ) -> Result<(), CryptoError> {
        self.seal_with(iv, buf, aad, false)
    }

    fn seal_with(
        &self,
        iv: &[u8; 16],
        buf: &mut Vec<u8>,
        aad: &[u8],
        stitch: bool,
    ) -> Result<(), CryptoError> {
        let mut mac = self.mac(aad);
        let mut chain = *iv;
        let hashed = if stitch {
            self.seal_front(&mut mac, &mut chain, buf)
        } else {
            0
        };
        mac.update(&buf[hashed..]);
        buf.extend_from_slice(&mac.finalize_fixed());
        let pad_len = 16 - (buf.len() % 16);
        buf.resize(buf.len() + pad_len, (pad_len - 1) as u8);
        // The whole blocks among the hashed bytes are already encrypted.
        cbc_encrypt_in_place(&self.aes, &chain, &mut buf[hashed & !15..])
    }

    /// The stitched front of a seal: hashes `buf` into `mac` up to the
    /// last whole block of the MAC input and encrypts, from `chain`, the
    /// whole 16-byte blocks among those bytes, leaving `chain` the last
    /// ciphertext block. Returns how many bytes were hashed; 0, with
    /// nothing touched, where the CPU lacks the kernel or the record is
    /// too short to fill a block.
    #[cfg(target_arch = "x86_64")]
    fn seal_front(&self, mac: &mut Hmac<Sha1>, chain: &mut [u8; 16], buf: &mut [u8]) -> usize {
        let Some(cpu) = crate::x86::aes_sha() else {
            return 0;
        };
        let inner = mac.inner_mut();
        // Content bytes that complete the block the AAD started.
        let lead = (64 - inner.buffered()) % 64;
        let blocks = buf.len().saturating_sub(lead) / 64;
        if blocks == 0 {
            return 0;
        }
        inner.update(&buf[..lead]);
        let hashed = lead + 64 * blocks;
        inner.absorb_blocks_with(blocks, |state| {
            crate::x86::cbc_sha1_encrypt(cpu, &self.aes.enc, chain, state, &mut buf[..hashed], lead)
        });
        hashed
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn seal_front(&self, _: &mut Hmac<Sha1>, _: &mut [u8; 16], _: &mut [u8]) -> usize {
        0
    }

    /// Decrypt + verify one record **in place**: `buf` holds the
    /// ciphertext (without the explicit IV) on entry and is truncated to
    /// the verified content on return. No allocation.
    ///
    /// Every authentication failure is the one [`CryptoError::BadMac`],
    /// and the MAC is computed whether or not the padding was well
    /// formed (a malformed pad is treated as zero-length, RFC 5246
    /// §6.2.3.2), so neither the error kind nor a skipped HMAC tells an
    /// attacker which check failed. Only a length that is not a positive
    /// multiple of the block size — visible on the wire anyway — is
    /// reported differently, as [`CryptoError::InvalidLength`].
    pub fn open_in_place(
        &self,
        iv: &[u8; 16],
        buf: &mut Vec<u8>,
        aad: &[u8],
    ) -> Result<(), CryptoError> {
        let content = self.open_slice(iv, buf, aad)?;
        buf.truncate(content);
        Ok(())
    }

    /// [`Self::open_in_place`] on a borrowed buffer: decrypts `buf` in
    /// place and returns the length of the verified content at its
    /// front.
    fn open_slice(&self, iv: &[u8; 16], buf: &mut [u8], aad: &[u8]) -> Result<usize, CryptoError> {
        cbc_decrypt_in_place(&self.aes, iv, buf)?;
        let frame = Unpadded::of(buf);
        let tag = self.tag(aad, &buf[..frame.content]);
        frame.verify(buf, &tag)
    }

    /// Allocating form of [`Self::seal_in_place`]: returns the ciphertext
    /// of `plaintext`.
    pub fn seal(
        &self,
        iv: &[u8; 16],
        plaintext: &[u8],
        aad: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let mut buf = Vec::with_capacity(plaintext.len() + TAG_LEN + 16);
        buf.extend_from_slice(plaintext);
        self.seal_in_place(iv, &mut buf, aad)?;
        Ok(buf)
    }

    /// Allocating form of [`Self::open_in_place`]: returns the verified
    /// content of `ciphertext`.
    pub fn open(
        &self,
        iv: &[u8; 16],
        ciphertext: &[u8],
        aad: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let mut buf = ciphertext.to_vec();
        self.open_in_place(iv, &mut buf, aad)?;
        Ok(buf)
    }
}

/// Where the content, tag and pad of a decrypted record lie.
#[derive(Clone, Copy, Default)]
struct Unpadded {
    pad_ok: bool,
    /// Content bytes at the front of the record.
    content: usize,
    /// Content and tag: where the pad starts.
    content_and_tag: usize,
}

impl Unpadded {
    /// A malformed pad is treated as zero-length (RFC 5246 §6.2.3.2), so
    /// the MAC runs either way.
    fn of(buf: &[u8]) -> Self {
        let len = buf.len();
        let pad_len = buf[len - 1] as usize + 1;
        let pad_ok = pad_len + TAG_LEN <= len
            && buf[len - pad_len..]
                .iter()
                .all(|&b| b as usize == pad_len - 1);
        let content_and_tag = if pad_ok { len - pad_len } else { len };
        Unpadded {
            pad_ok,
            // Saturates only for a one-block record, which has no room
            // for a tag: its MAC still runs (over nothing) and cannot
            // match.
            content: content_and_tag.saturating_sub(TAG_LEN),
            content_and_tag,
        }
    }

    /// The content length, or [`CryptoError::BadMac`] for a bad pad or
    /// tag alike.
    fn verify(self, buf: &[u8], tag: &[u8; TAG_LEN]) -> Result<usize, CryptoError> {
        let tag_ok = constant_time_eq(tag, &buf[self.content..self.content_and_tag]);
        if !(self.pad_ok & tag_ok) {
            return Err(CryptoError::BadMac);
        }
        Ok(self.content)
    }
}

/// Records one multi-buffer pass seals or opens: the lanes of the
/// 16-lane kernels of `x86.rs` (DESIGN.md §20). An engine takes at most
/// this many requests off its ring at once.
pub const LANES: usize = 16;

/// The fewest records for which one multi-buffer pass costs less than
/// sealing or opening them one at a time (DESIGN.md §20). A pass costs
/// what its longest lane costs whatever the number of lanes in use, so
/// below this [`seal_batch`] and [`open_batch`] take the per-record
/// paths, as they do on a CPU without AVX-512 and VAES.
pub const MULTI_BUFFER_MIN: usize = 6;

/// One record of a [`seal_batch`]: what [`CbcHmacSha1::seal_in_place`]
/// takes, under the record's own keys.
pub struct SealRecord<'a> {
    /// The direction's keyed context.
    pub cipher: &'a CbcHmacSha1,
    /// Explicit IV.
    pub iv: &'a [u8; 16],
    /// MAC additional data.
    pub aad: &'a [u8],
    /// Plaintext in, ciphertext out (tag and pad appended).
    pub buf: &'a mut Vec<u8>,
}

/// One record of an [`open_batch`]: what [`CbcHmacSha1::open_in_place`]
/// takes, on a borrowed buffer.
pub struct OpenRecord<'a> {
    /// The direction's keyed context.
    pub cipher: &'a CbcHmacSha1,
    /// Explicit IV.
    pub iv: &'a [u8; 16],
    /// MAC additional data.
    pub aad: &'a [u8],
    /// Ciphertext in, decrypted record out; the verified content is
    /// its front.
    pub buf: &'a mut [u8],
}

thread_local! {
    /// Multi-buffer passes this thread has run.
    static PASSES: Cell<u64> = const { Cell::new(0) };
}

/// Multi-buffer passes this thread has run: how a test sees that a
/// batch took the 16-lane path rather than falling back in silence.
#[doc(hidden)]
pub fn multi_buffer_passes() -> u64 {
    PASSES.with(Cell::get)
}

/// MAC-then-encrypt every record `records` yields, in place, each
/// exactly as [`CbcHmacSha1::seal_in_place`] would: [`LANES`] at a time
/// in one multi-buffer pass — every inner and outer HMAC in one 16-lane
/// SHA-1 run each, then every CBC chain in one 16-lane VAES run — where
/// the CPU has AVX-512 and VAES and a run holds at least
/// [`MULTI_BUFFER_MIN`] records; one at a time otherwise. The records
/// may be under different keys. Allocation-free; a batch whose size
/// hint bounds it below [`MULTI_BUFFER_MIN`] goes straight to the
/// per-record path, without staging a run.
pub fn seal_batch<'a>(
    records: impl IntoIterator<Item = SealRecord<'a>>,
) -> Result<(), CryptoError> {
    let mut records = records.into_iter();
    if too_few_for_a_pass(records.size_hint()) {
        return records.try_for_each(|r| r.cipher.seal_in_place(r.iv, r.buf, r.aad));
    }
    let mut records = records.fuse();
    loop {
        let mut run: [Option<SealRecord<'a>>; LANES] = std::array::from_fn(|_| records.next());
        let n = run.iter().flatten().count();
        #[cfg(target_arch = "x86_64")]
        if let Some(cpu) = multi_buffer(n, run.iter().flatten().map(|r| r.aad)) {
            seal_x16(cpu, &mut run);
        } else {
            seal_each(&mut run)?;
        }
        #[cfg(not(target_arch = "x86_64"))]
        seal_each(&mut run)?;
        if n < LANES {
            return Ok(());
        }
    }
}

fn seal_each(run: &mut [Option<SealRecord<'_>>; LANES]) -> Result<(), CryptoError> {
    for r in run.iter_mut().flatten() {
        r.cipher.seal_in_place(r.iv, r.buf, r.aad)?;
    }
    Ok(())
}

/// Decrypt and verify every record `records` yields, in place, each
/// exactly as [`CbcHmacSha1::open_in_place`] would, and hand its verdict
/// to `verdict` with its index: the length of the verified content at
/// the front of its buffer, [`CryptoError::BadMac`] or
/// [`CryptoError::InvalidLength`]. Each record is decrypted on its own;
/// the MACs of [`LANES`] at a time run as one multi-buffer pass under
/// the same conditions as [`seal_batch`]'s, and with the same
/// per-record shortcut. Allocation-free.
pub fn open_batch<'a>(
    records: impl IntoIterator<Item = OpenRecord<'a>>,
    mut verdict: impl FnMut(usize, Result<usize, CryptoError>),
) {
    let records = records.into_iter();
    if too_few_for_a_pass(records.size_hint()) {
        for (i, r) in records.enumerate() {
            verdict(i, r.cipher.open_slice(r.iv, r.buf, r.aad));
        }
        return;
    }
    let mut records = records.fuse();
    let mut index = 0;
    loop {
        let mut run: [Option<OpenRecord<'a>>; LANES] = std::array::from_fn(|_| records.next());
        let n = run.iter().flatten().count();
        let mut verdicts = [Ok(0); LANES];
        #[cfg(target_arch = "x86_64")]
        if let Some(cpu) = multi_buffer(n, run.iter().flatten().map(|r| r.aad)) {
            open_x16(cpu, &mut run, &mut verdicts);
        } else {
            open_each(&mut run, &mut verdicts);
        }
        #[cfg(not(target_arch = "x86_64"))]
        open_each(&mut run, &mut verdicts);
        for v in &verdicts[..n] {
            verdict(index, *v);
            index += 1;
        }
        if n < LANES {
            return;
        }
    }
}

fn open_each(
    run: &mut [Option<OpenRecord<'_>>; LANES],
    verdicts: &mut [Result<usize, CryptoError>; LANES],
) {
    for (r, verdict) in run.iter_mut().flatten().zip(verdicts) {
        *verdict = r.cipher.open_slice(r.iv, r.buf, r.aad);
    }
}

/// Whether a batch with this size hint is sure to hold fewer than
/// [`MULTI_BUFFER_MIN`] records, so no run of it takes a multi-buffer
/// pass.
fn too_few_for_a_pass((_, upper): (usize, Option<usize>)) -> bool {
    upper.is_some_and(|n| n < MULTI_BUFFER_MIN)
}

/// The kernels' proof when a run of `n` records with these AADs is worth
/// a multi-buffer pass.
#[cfg(target_arch = "x86_64")]
fn multi_buffer<'a>(n: usize, mut aads: impl Iterator<Item = &'a [u8]>) -> Option<x86::Avx512Vaes> {
    if n < MULTI_BUFFER_MIN || aads.any(|aad| aad.len() > sha1::MAX_LANE_PREFIX) {
        return None;
    }
    x86::avx512_vaes()
}

#[cfg(target_arch = "x86_64")]
fn seal_x16(cpu: x86::Avx512Vaes, run: &mut [Option<SealRecord<'_>>; LANES]) {
    let tags = tags_x16(
        cpu,
        run.each_ref()
            .map(|r| r.as_ref().map(|r| (&r.cipher.hmac, r.aad, &r.buf[..]))),
    );
    for (r, tag) in run.iter_mut().zip(&tags) {
        if let Some(r) = r {
            r.buf.extend_from_slice(tag);
            let pad_len = 16 - (r.buf.len() % 16);
            r.buf.resize(r.buf.len() + pad_len, (pad_len - 1) as u8);
        }
    }
    let mut lanes = run.each_mut().map(|r| match r {
        Some(r) => x86::CbcLane {
            enc: &r.cipher.aes.enc,
            iv: r.iv,
            buf: &mut r.buf[..],
        },
        None => x86::CbcLane {
            enc: &[0; 44],
            iv: &[0; 16],
            buf: &mut [],
        },
    });
    x86::cbc_encrypt_x16(cpu, &mut lanes);
}

#[cfg(target_arch = "x86_64")]
fn open_x16(
    cpu: x86::Avx512Vaes,
    run: &mut [Option<OpenRecord<'_>>; LANES],
    verdicts: &mut [Result<usize, CryptoError>; LANES],
) {
    let mut frames = [Unpadded::default(); LANES];
    for ((r, verdict), frame) in run.iter_mut().zip(verdicts.iter_mut()).zip(&mut frames) {
        if let Some(r) = r {
            *verdict = cbc_decrypt_in_place(&r.cipher.aes, r.iv, r.buf).map(|()| 0);
            if verdict.is_ok() {
                *frame = Unpadded::of(r.buf);
            }
        }
    }
    let mut messages = [None; LANES];
    for ((m, r), frame) in messages.iter_mut().zip(run.iter()).zip(&frames) {
        *m = r
            .as_ref()
            .map(|r| (&r.cipher.hmac, r.aad, &r.buf[..frame.content]));
    }
    let tags = tags_x16(cpu, messages);
    for (((r, verdict), frame), tag) in run.iter().zip(verdicts).zip(frames).zip(&tags) {
        if let Some(r) = r {
            if verdict.is_ok() {
                *verdict = frame.verify(r.buf, tag);
            }
        }
    }
}

/// One lane's MAC input: the keyed midstates, the AAD and the content.
#[cfg(target_arch = "x86_64")]
type MacInput<'m> = (&'m Hmac<Sha1>, &'m [u8], &'m [u8]);

/// HMAC-SHA1 of `aad ‖ content` for each message, each under its own
/// keyed midstates: one 16-lane run over the inner hashes, then one over
/// the outer. A lane with no message idles.
#[cfg(target_arch = "x86_64")]
fn tags_x16(
    cpu: x86::Avx512Vaes,
    messages: [Option<MacInput<'_>>; LANES],
) -> [[u8; TAG_LEN]; LANES] {
    PASSES.with(|n| n.set(n.get() + 1));
    let mut heads = [[0u8; sha1::LANE_EDGE]; LANES];
    let mut tails = [[0u8; sha1::LANE_EDGE]; LANES];
    let mut frames: [(usize, &[u8], usize); LANES] = [(0, &[], 0); LANES];
    let mut inner = [[0u32; LANES]; 5];
    let mut outer = [[0u32; LANES]; 5];
    let mut outer_len = [None; LANES];
    for (l, message) in messages.into_iter().enumerate() {
        let Some((hmac, aad, content)) = message else {
            continue;
        };
        #[cfg(test)]
        tests::TAGS_COMPUTED.with(|n| n.set(n.get() + 1));
        let (inner_hash, outer_hash) = hmac.midstates();
        let (state, absorbed) = inner_hash.midstate();
        (0..5).for_each(|w| inner[w][l] = state[w]);
        frames[l] = sha1::frame_lane(aad, content, absorbed, &mut heads[l], &mut tails[l]);
        let (state, absorbed) = outer_hash.midstate();
        (0..5).for_each(|w| outer[w][l] = state[w]);
        outer_len[l] = Some(absorbed);
    }
    let runs = std::array::from_fn(|l| {
        let (head, body, tail) = frames[l];
        [&heads[l][..head], body, &tails[l][..tail]]
    });
    x86::sha1_x16(cpu, &mut inner, &runs);
    // The outer message is the inner digest: one block with its padding.
    let mut blocks = [[0u8; 64]; LANES];
    for (l, block) in blocks.iter_mut().enumerate() {
        let Some(absorbed) = outer_len[l] else {
            continue;
        };
        for (w, bytes) in block[..TAG_LEN].chunks_exact_mut(4).enumerate() {
            bytes.copy_from_slice(&inner[w][l].to_be_bytes());
        }
        block[TAG_LEN] = 0x80;
        let bits = (absorbed + TAG_LEN as u64) * 8;
        block[56..].copy_from_slice(&bits.to_be_bytes());
    }
    let runs = std::array::from_fn(|l| {
        let block: &[u8] = if outer_len[l].is_some() {
            &blocks[l]
        } else {
            &[]
        };
        [block, &[], &[]]
    });
    x86::sha1_x16(cpu, &mut outer, &runs);
    std::array::from_fn(|l| {
        let mut tag = [0u8; TAG_LEN];
        for (w, bytes) in tag.chunks_exact_mut(4).enumerate() {
            bytes.copy_from_slice(&outer[w][l].to_be_bytes());
        }
        tag
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// How many tags this thread has computed: the seam that lets a
        /// test see that a rejected record still paid for its MAC.
        pub(super) static TAGS_COMPUTED: Cell<u32> = const { Cell::new(0) };
    }

    fn tags() -> u32 {
        TAGS_COMPUTED.with(Cell::get)
    }

    fn ctx() -> CbcHmacSha1 {
        CbcHmacSha1::new(&[1; 16], &[2; 20])
    }

    #[test]
    fn seal_open_roundtrip_every_pad_length() {
        let ctx = ctx();
        for len in 0..=48 {
            let pt: Vec<u8> = (0..len as u8).collect();
            let ct = ctx.seal(&[3; 16], &pt, b"aad").unwrap();
            assert_eq!(ct.len() % 16, 0);
            assert!(ct.len() > len + TAG_LEN);
            assert_eq!(ctx.open(&[3; 16], &ct, b"aad").unwrap(), pt, "len {len}");
            assert_eq!(
                ctx.open(&[3; 16], &ct, b"aae"),
                Err(CryptoError::BadMac),
                "aad is authenticated"
            );
        }
    }

    /// Forge a record whose *plaintext* is `padded` (so the test controls
    /// the pad and tag bytes the opener sees after decryption).
    fn encrypt_raw(ctx: &CbcHmacSha1, iv: &[u8; 16], padded: &[u8]) -> Vec<u8> {
        crate::aes::cbc_encrypt(&ctx.aes, iv, padded).unwrap()
    }

    #[test]
    fn bad_pad_and_bad_tag_are_one_error_and_both_run_the_mac() {
        let ctx = ctx();
        let iv = [3u8; 16];
        // content(7) || tag(20) || pad(5 x 0x04) = 32 bytes.
        let mut good = b"payload".to_vec();
        good.extend_from_slice(&ctx.tag(b"aad", b"payload"));
        good.extend_from_slice(&[4; 5]);
        assert_eq!(
            ctx.open(&iv, &encrypt_raw(&ctx, &iv, &good), b"aad")
                .unwrap(),
            b"payload"
        );

        let mut bad_pad = good.clone();
        bad_pad[28] ^= 0x10; // a pad byte that is not the length byte
        let mut bad_pad_len = good.clone();
        bad_pad_len[31] = 0xff; // pad longer than the record
        let mut bad_tag = good.clone();
        bad_tag[10] ^= 0x01;
        for (what, forged) in [
            ("pad byte", bad_pad),
            ("pad length", bad_pad_len),
            ("tag byte", bad_tag),
            ("one block, no room for a tag", vec![0u8; 16]),
        ] {
            let before = tags();
            let got = ctx.open(&iv, &encrypt_raw(&ctx, &iv, &forged), b"aad");
            assert_eq!(got, Err(CryptoError::BadMac), "{what}");
            assert_eq!(tags(), before + 1, "{what}: the MAC must still run");
        }
    }

    #[test]
    fn lengths_that_are_not_whole_blocks_are_invalid_length() {
        let ctx = ctx();
        for len in [0usize, 1, 15, 17, 33] {
            assert_eq!(
                ctx.open(&[0; 16], &vec![0u8; len], b""),
                Err(CryptoError::InvalidLength),
                "len {len}"
            );
        }
    }

    #[test]
    fn in_place_forms_match_allocating_forms_and_do_not_regrow() {
        let ctx = ctx();
        let pt = vec![0x5au8; 1000];
        let mut buf = Vec::with_capacity(pt.len() + 36);
        buf.extend_from_slice(&pt);
        let cap = buf.capacity();
        ctx.seal_in_place(&[9; 16], &mut buf, &[7; 11]).unwrap();
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf, ctx.seal(&[9; 16], &pt, &[7; 11]).unwrap());
        ctx.open_in_place(&[9; 16], &mut buf, &[7; 11]).unwrap();
        assert_eq!(buf, pt);
    }

    /// Records of `lens` bytes: contexts under two alternating keys,
    /// plaintexts, IVs and AADs of alternating lengths.
    struct BatchInputs {
        ciphers: [CbcHmacSha1; 2],
        plain: Vec<Vec<u8>>,
        ivs: Vec<[u8; 16]>,
        aads: Vec<Vec<u8>>,
    }

    fn batch_inputs(lens: &[usize]) -> BatchInputs {
        BatchInputs {
            ciphers: [ctx(), CbcHmacSha1::new(&[5; 16], &[6; 20])],
            plain: lens
                .iter()
                .enumerate()
                .map(|(i, &len)| (0..len).map(|b| (b * 7 + i) as u8).collect())
                .collect(),
            ivs: (0..lens.len()).map(|i| [i as u8; 16]).collect(),
            aads: (0..lens.len())
                .map(|i| vec![i as u8; [11, 13, 0, 64][i % 4]])
                .collect(),
        }
    }

    #[test]
    fn batched_seal_and_open_match_the_per_record_paths() {
        for lens in [
            vec![16384; 16],
            (0..16).map(|i| i * 997 % 1500).collect(),
            vec![5; 6],
            vec![100; 17],
        ] {
            let BatchInputs {
                ciphers,
                plain,
                ivs,
                aads,
            } = batch_inputs(&lens);
            let mut bufs = plain.clone();
            let passes = multi_buffer_passes();
            seal_batch(bufs.iter_mut().enumerate().map(|(i, buf)| SealRecord {
                cipher: &ciphers[i % 2],
                iv: &ivs[i],
                aad: &aads[i],
                buf,
            }))
            .unwrap();
            #[cfg(target_arch = "x86_64")]
            if x86::avx512_vaes().is_some() {
                assert_eq!(
                    multi_buffer_passes() - passes,
                    1,
                    "{lens:?}: one 16-lane pass"
                );
            }
            for (i, buf) in bufs.iter().enumerate() {
                let want = ciphers[i % 2].seal(&ivs[i], &plain[i], &aads[i]).unwrap();
                assert!(*buf == want, "seal, record {i} of {lens:?}");
            }
            let mut verdicts = vec![Ok(0); lens.len()];
            open_batch(
                bufs.iter_mut().enumerate().map(|(i, buf)| OpenRecord {
                    cipher: &ciphers[i % 2],
                    iv: &ivs[i],
                    aad: &aads[i],
                    buf: &mut buf[..],
                }),
                |i, verdict| verdicts[i] = verdict,
            );
            for (i, buf) in bufs.iter().enumerate() {
                assert_eq!(verdicts[i], Ok(plain[i].len()), "open, record {i}");
                assert!(buf[..plain[i].len()] == plain[i][..], "open, record {i}");
            }
        }
    }

    /// `it` without a size hint: a batch that must stage its runs.
    fn unhinted<T>(mut it: impl Iterator<Item = T>) -> impl Iterator<Item = T> {
        std::iter::from_fn(move || it.next())
    }

    /// Every batch size 0–17 under two keys, each once through an
    /// iterator with an exact size hint (below [`MULTI_BUFFER_MIN`], the
    /// per-record shortcut) and once through one with none (staged runs):
    /// the ciphertexts of per-record seals, and the verdicts and contents
    /// of per-record opens, one tampered record included.
    #[test]
    fn every_batch_size_matches_the_per_record_calls_with_or_without_a_size_hint() {
        for n in 0..=17usize {
            let lens: Vec<usize> = (0..n).map(|i| i * 331 % 700).collect();
            let BatchInputs {
                ciphers,
                plain,
                ivs,
                aads,
            } = batch_inputs(&lens);
            let mut sealed: Vec<Vec<u8>> = (0..n)
                .map(|i| ciphers[i % 2].seal(&ivs[i], &plain[i], &aads[i]).unwrap())
                .collect();
            if let Some(record) = sealed.get_mut(n / 2) {
                record[0] ^= 1;
            }
            let want: Vec<_> = sealed
                .iter()
                .enumerate()
                .map(|(i, record)| {
                    let mut buf = record.clone();
                    ciphers[i % 2]
                        .open_in_place(&ivs[i], &mut buf, &aads[i])
                        .map(|()| buf)
                })
                .collect();
            for hinted in [true, false] {
                let mut bufs = plain.clone();
                let records = bufs.iter_mut().enumerate().map(|(i, buf)| SealRecord {
                    cipher: &ciphers[i % 2],
                    iv: &ivs[i],
                    aad: &aads[i],
                    buf,
                });
                let passes = multi_buffer_passes();
                if hinted {
                    seal_batch(records)
                } else {
                    seal_batch(unhinted(records))
                }
                .unwrap();
                if hinted && n < MULTI_BUFFER_MIN {
                    assert_eq!(multi_buffer_passes(), passes, "{n} records");
                }
                if let Some(record) = bufs.get_mut(n / 2) {
                    record[0] ^= 1;
                }
                assert!(bufs == sealed, "{n} records, hinted {hinted}: seal");
                let mut got = vec![None; n];
                let records = bufs.iter_mut().enumerate().map(|(i, buf)| OpenRecord {
                    cipher: &ciphers[i % 2],
                    iv: &ivs[i],
                    aad: &aads[i],
                    buf: &mut buf[..],
                });
                let verdict = |i: usize, v| got[i] = Some(v);
                if hinted {
                    open_batch(records, verdict)
                } else {
                    open_batch(unhinted(records), verdict)
                }
                for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                    let got = got.expect("every record gets a verdict");
                    let at = format!("{n} records, hinted {hinted}: open {i}");
                    match want {
                        Ok(content) => {
                            assert_eq!(got, Ok(content.len()), "{at}");
                            assert!(bufs[i][..content.len()] == content[..], "{at}");
                        }
                        Err(e) => assert_eq!(got, Err(*e), "{at}"),
                    }
                }
            }
        }
    }

    #[test]
    fn debug_does_not_print_keys() {
        assert_eq!(format!("{:?}", ctx()), "CbcHmacSha1 { .. }");
    }
}
