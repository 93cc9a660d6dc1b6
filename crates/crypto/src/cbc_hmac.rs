//! The AES128-SHA record protection as one keyed context: TLS 1.2
//! MAC-then-encrypt (RFC 5246 §6.2.3.2) with AES-128-CBC + HMAC-SHA1.
//!
//! This is the software twin of a QAT *chained cipher+hash session*:
//! the AES key schedules and the two HMAC midstates are computed once,
//! when a direction's keys are installed, and every record after that
//! costs only its own blocks. It is the single MAC-then-encrypt body in
//! the workspace — the record layer, the data-plane codec, the client
//! and the engine threads all hold an `Arc` of it.

use crate::aes::{cbc_decrypt_in_place, cbc_encrypt_in_place, Aes128};
use crate::error::CryptoError;
use crate::hmac::{constant_time_eq, Hmac};
use crate::sha1::Sha1;

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
        cbc_decrypt_in_place(&self.aes, iv, buf)?;
        let len = buf.len();
        let pad_len = buf[len - 1] as usize + 1;
        let pad_ok = pad_len + TAG_LEN <= len
            && buf[len - pad_len..]
                .iter()
                .all(|&b| b as usize == pad_len - 1);
        let content_and_tag = if pad_ok { len - pad_len } else { len };
        // Saturates only for a one-block record, which has no room for a
        // tag: its MAC still runs (over nothing) and cannot match.
        let content = content_and_tag.saturating_sub(TAG_LEN);
        let tag = self.tag(aad, &buf[..content]);
        let tag_ok = constant_time_eq(&tag, &buf[content..content_and_tag]);
        if !(pad_ok & tag_ok) {
            return Err(CryptoError::BadMac);
        }
        buf.truncate(content);
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

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

    #[test]
    fn debug_does_not_print_keys() {
        assert_eq!(format!("{:?}", ctx()), "CbcHmacSha1 { .. }");
    }
}
