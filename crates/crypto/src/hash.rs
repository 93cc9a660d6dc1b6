//! A minimal streaming-hash abstraction so HMAC, the PRF and HKDF are
//! generic over the digest (SHA-1 for the record MAC, SHA-256 for key
//! derivation and signatures), plus the Merkle–Damgård block buffering
//! and padding both digests share.

/// A streaming cryptographic hash function.
pub trait Hash: Clone {
    /// Internal block size in bytes (HMAC padding unit).
    const BLOCK_SIZE: usize;
    /// Digest length in bytes.
    const OUTPUT_SIZE: usize;
    /// The digest as a fixed-size array (`[u8; OUTPUT_SIZE]`).
    type Digest: AsRef<[u8]> + Copy;

    /// Fresh state.
    fn new() -> Self;
    /// Absorb bytes.
    fn update(&mut self, data: &[u8]);
    /// Finish, producing the digest without allocating.
    fn finalize_fixed(self) -> Self::Digest;

    /// Finish, producing `OUTPUT_SIZE` bytes.
    fn finalize(self) -> Vec<u8> {
        self.finalize_fixed().as_ref().to_vec()
    }

    /// One-shot convenience.
    fn hash(data: &[u8]) -> Vec<u8> {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }
}

/// The 64-byte block buffer and FIPS 180-4 §5.1.1 padding shared by
/// SHA-1 and SHA-256: callers pass the compression function, this type
/// decides which runs of whole 64-byte blocks it sees.
#[derive(Clone)]
pub(crate) struct BlockBuffer {
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl BlockBuffer {
    pub(crate) const fn new() -> Self {
        BlockBuffer {
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data`, compressing every completed block. Whole blocks
    /// in the middle of `data` are compressed where they lie, uncopied
    /// and as one run, so a kernel keeps its state in registers across
    /// them.
    pub(crate) fn update(&mut self, mut data: &[u8], mut compress: impl FnMut(&[u8])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&self.buf);
            self.buf_len = 0;
        }
        let (blocks, rest) = data.split_at(data.len() & !63);
        if !blocks.is_empty() {
            compress(blocks);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Bytes waiting for their block to fill.
    pub(crate) fn buffered(&self) -> usize {
        self.buf_len
    }

    /// Bytes absorbed so far.
    pub(crate) fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Count `len` bytes of whole blocks that the caller compressed
    /// itself; only between blocks (nothing buffered).
    pub(crate) fn skip_blocks(&mut self, len: usize) {
        debug_assert!(
            self.buf_len == 0 && len.is_multiple_of(64),
            "not on a block boundary"
        );
        self.total_len = self.total_len.wrapping_add(len as u64);
    }

    /// Pad (`0x80`, zeros, 64-bit big-endian bit length) and compress the
    /// final one or two blocks.
    pub(crate) fn finish(mut self, mut compress: impl FnMut(&[u8])) {
        let bit_len = self.total_len.wrapping_mul(8);
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            // No room for the length: it goes in a block of its own.
            compress(&self.buf);
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&self.buf);
    }
}
