//! The TLS record layer: framing, sequence numbers, fragmentation at
//! 16 KB (§2.1), and AES-128-CBC + HMAC-SHA1 record protection routed
//! through the [`CryptoProvider`] (so record crypto is offloadable, as in
//! the paper's secure-data-transfer evaluation). Every entry point that
//! can reach the accelerator is an `async fn` (`*_async`) with a
//! synchronous facade of the historical name beside it.
//!
//! Simplification vs RFC 5246: the MAC additional data covers
//! `seq || type || version` (the plaintext length is protected implicitly
//! by the MAC over the content plus the padding check).

use crate::codec::Reader;
use crate::error::TlsError;
use crate::keys::{DirectionSecrets, ExtractedSecrets};
use crate::provider::{CryptoProvider, OpCounters};
use crate::suite::sizes;
use qtls_core::run_sync;
use qtls_crypto::{CbcHmacSha1, EntropySource};
use qtls_qat::CryptoOp;
use std::sync::Arc;

/// Record content types (RFC values).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ContentType {
    /// ChangeCipherSpec.
    ChangeCipherSpec = 20,
    /// Alert.
    Alert = 21,
    /// Handshake.
    Handshake = 22,
    /// ApplicationData.
    ApplicationData = 23,
}

impl ContentType {
    fn from_u8(v: u8) -> Result<Self, TlsError> {
        Ok(match v {
            20 => ContentType::ChangeCipherSpec,
            21 => ContentType::Alert,
            22 => ContentType::Handshake,
            23 => ContentType::ApplicationData,
            _ => return Err(TlsError::Decode("unknown content type")),
        })
    }
}

/// Keys protecting one direction.
#[derive(Clone)]
pub struct DirectionKeys {
    /// HMAC-SHA1 key.
    pub mac_key: Vec<u8>,
    /// AES-128 key.
    pub enc_key: [u8; 16],
}

/// One direction's record protection state: the raw keys (kept for
/// [`RecordLayer::extract_secrets`]), the cipher+hash context keyed from
/// them once, here, and the next sequence number.
struct CipherState {
    keys: DirectionKeys,
    cipher: Arc<CbcHmacSha1>,
    seq: u64,
}

impl CipherState {
    fn new(keys: DirectionKeys, seq: u64) -> Self {
        let cipher = Arc::new(CbcHmacSha1::new(&keys.enc_key, &keys.mac_key));
        CipherState { keys, cipher, seq }
    }
}

/// The record layer of one connection end.
pub struct RecordLayer {
    version: u16,
    write: Option<CipherState>,
    read: Option<CipherState>,
    /// Raw inbound bytes; those before `in_pos` are already consumed.
    /// Records are taken by advancing the cursor, and the consumed
    /// prefix is dropped once per [`Self::feed`] — not once per record,
    /// which moved the whole tail of a multi-record flush every time.
    in_buf: Vec<u8>,
    in_pos: usize,
    /// Set once `extract_secrets` hands the connection to a codec:
    /// record I/O through this layer is a logic error from then on (it
    /// would otherwise silently emit plaintext).
    detached: bool,
}

/// Record header: type (1) + version (2) + length (2).
const HEADER_LEN: usize = 5;

impl RecordLayer {
    /// Fresh (plaintext) record layer.
    pub fn new(version: u16) -> Self {
        RecordLayer {
            version,
            write: None,
            read: None,
            in_buf: Vec::new(),
            in_pos: 0,
            detached: false,
        }
    }

    /// Activate write protection (our ChangeCipherSpec point).
    pub fn set_write_keys(&mut self, keys: DirectionKeys) {
        self.write = Some(CipherState::new(keys, 0));
    }

    /// Activate read protection (peer's ChangeCipherSpec point).
    pub fn set_read_keys(&mut self, keys: DirectionKeys) {
        self.read = Some(CipherState::new(keys, 0));
    }

    /// Is write protection active?
    pub fn write_protected(&self) -> bool {
        self.write.is_some()
    }

    /// Is read protection active?
    pub fn read_protected(&self) -> bool {
        self.read.is_some()
    }

    /// Synchronous facade over [`Self::write_record_async`].
    pub fn write_record<R: EntropySource>(
        &mut self,
        typ: ContentType,
        payload: &[u8],
        provider: &CryptoProvider,
        counters: &mut OpCounters,
        rng: &mut R,
    ) -> Result<Vec<u8>, TlsError> {
        run_sync(self.write_record_async(typ, payload, provider, counters, rng))
    }

    /// Frame (and protect, once keys are active) one record. `payload`
    /// must fit one fragment.
    pub async fn write_record_async<R: EntropySource>(
        &mut self,
        typ: ContentType,
        payload: &[u8],
        provider: &CryptoProvider,
        counters: &mut OpCounters,
        rng: &mut R,
    ) -> Result<Vec<u8>, TlsError> {
        assert!(payload.len() <= sizes::MAX_FRAGMENT, "fragment too large");
        if self.detached {
            return Err(TlsError::InvalidState("record layer handed off to codec"));
        }
        let body = match &mut self.write {
            None => payload.to_vec(),
            Some(state) => {
                let mut aad = Vec::with_capacity(11);
                aad.extend_from_slice(&state.seq.to_be_bytes());
                aad.push(typ as u8);
                aad.extend_from_slice(&self.version.to_be_bytes());
                let mut iv = [0u8; 16];
                rng.fill(&mut iv);
                let ct = provider
                    .cipher_encrypt(counters, &state.cipher, iv, payload, &aad)
                    .await?;
                state.seq += 1;
                let mut body = Vec::with_capacity(16 + ct.len());
                body.extend_from_slice(&iv);
                body.extend_from_slice(&ct);
                body
            }
        };
        let mut out = Vec::with_capacity(HEADER_LEN + body.len());
        out.push(typ as u8);
        out.extend_from_slice(&self.version.to_be_bytes());
        out.extend_from_slice(&(body.len() as u16).to_be_bytes());
        out.extend_from_slice(&body);
        Ok(out)
    }

    /// Synchronous facade over [`Self::write_fragmented_async`].
    pub fn write_fragmented<R: EntropySource>(
        &mut self,
        typ: ContentType,
        data: &[u8],
        provider: &CryptoProvider,
        counters: &mut OpCounters,
        rng: &mut R,
    ) -> Result<Vec<u8>, TlsError> {
        run_sync(self.write_fragmented_async(typ, data, provider, counters, rng))
    }

    /// Fragment `data` into records of at most 16 KB each (§2.1: "the
    /// data object is fragmented into units of 16KB").
    pub async fn write_fragmented_async<R: EntropySource>(
        &mut self,
        typ: ContentType,
        data: &[u8],
        provider: &CryptoProvider,
        counters: &mut OpCounters,
        rng: &mut R,
    ) -> Result<Vec<u8>, TlsError> {
        let mut out = Vec::with_capacity(data.len() + 64);
        if data.is_empty() {
            return self
                .write_record_async(typ, data, provider, counters, rng)
                .await;
        }
        for chunk in data.chunks(sizes::MAX_FRAGMENT) {
            let record = self
                .write_record_async(typ, chunk, provider, counters, rng)
                .await?;
            out.extend_from_slice(&record);
        }
        Ok(out)
    }

    /// Buffer incoming raw bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.in_buf.drain(..self.in_pos);
        self.in_pos = 0;
        self.in_buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.in_buf.len() - self.in_pos
    }

    /// Synchronous facade over [`Self::next_record_async`].
    pub fn next_record(
        &mut self,
        provider: &CryptoProvider,
        counters: &mut OpCounters,
    ) -> Result<Option<(ContentType, Vec<u8>)>, TlsError> {
        run_sync(self.next_record_async(provider, counters))
    }

    /// Extract and (if protected) decrypt the next complete record.
    /// Returns `None` when more bytes are needed.
    pub async fn next_record_async(
        &mut self,
        provider: &CryptoProvider,
        counters: &mut OpCounters,
    ) -> Result<Option<(ContentType, Vec<u8>)>, TlsError> {
        if self.detached {
            return Err(TlsError::InvalidState("record layer handed off to codec"));
        }
        let unread = &self.in_buf[self.in_pos..];
        if unread.len() < HEADER_LEN {
            return Ok(None);
        }
        let mut r = Reader::new(unread);
        let typ = ContentType::from_u8(r.u8()?)?;
        let version = r.u16()?;
        if version != self.version {
            return Err(TlsError::Decode("record version mismatch"));
        }
        let len = r.u16()? as usize;
        if unread.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let body = &unread[HEADER_LEN..HEADER_LEN + len];
        // The record is consumed whatever becomes of it below.
        self.in_pos += HEADER_LEN + len;
        let payload = match &mut self.read {
            None => body.to_vec(),
            Some(state) => {
                let Some((iv, ciphertext)) = body.split_first_chunk::<16>() else {
                    return Err(TlsError::Decode("protected record too short"));
                };
                let aad = aad_bytes(state.seq, typ, self.version);
                // The one copy of the body: opened in place by the
                // software path, moved into the descriptor by the engine.
                let pt = provider
                    .cipher_decrypt(counters, &state.cipher, *iv, ciphertext.to_vec(), &aad)
                    .await?;
                state.seq += 1;
                pt
            }
        };
        Ok(Some((typ, payload)))
    }

    /// Export the established record state plus any buffered-but-unparsed
    /// inbound bytes, handing the connection off to the data-plane
    /// [`RecordCodec`]. This is the control-plane/data-plane seam: after
    /// `Finished`, the handshake machine calls this once and never
    /// touches record protection again (kTLS-style key handoff).
    ///
    /// Errors unless both directions are protected. On success the record
    /// layer is left keyless — further protected I/O through it is a
    /// logic error.
    pub fn extract_secrets(&mut self) -> Result<(ExtractedSecrets, Vec<u8>), TlsError> {
        let (write, read) = match (self.write.take(), self.read.take()) {
            (Some(w), Some(r)) => (w, r),
            (w, r) => {
                self.write = w;
                self.read = r;
                return Err(TlsError::InvalidState(
                    "extract_secrets before record protection is active",
                ));
            }
        };
        self.detached = true;
        let secrets = ExtractedSecrets {
            version: self.version,
            write: DirectionSecrets {
                keys: write.keys,
                seq: write.seq,
            },
            read: DirectionSecrets {
                keys: read.keys,
                seq: read.seq,
            },
        };
        let mut leftover = std::mem::take(&mut self.in_buf);
        leftover.drain(..std::mem::take(&mut self.in_pos));
        Ok((secrets, leftover))
    }
}

/// MAC additional data as a fixed array (the batched descriptors carry it
/// inline; same bytes as the handshake path's `Vec` AAD).
fn aad_bytes(seq: u64, typ: ContentType, version: u16) -> [u8; 11] {
    let mut aad = [0u8; 11];
    aad[..8].copy_from_slice(&seq.to_be_bytes());
    aad[8] = typ as u8;
    aad[9..].copy_from_slice(&version.to_be_bytes());
    aad
}

/// The data-plane record codec: owns an established connection's record
/// protection after the handshake control plane exports its secrets
/// ([`RecordLayer::extract_secrets`]).
///
/// Unlike [`RecordLayer`] it never consults handshake state, seals and
/// opens **ApplicationData** only, and is built for bulk throughput:
///
/// - writes are staged into pooled fragment buffers (tiny writes coalesce
///   into the tail fragment, so N small writes become one record, not N);
/// - a flush seals all staged fragments as one scatter-gather batch of
///   [`CryptoOp::CipherSealInPlace`] descriptors — up to `max_batch`
///   records per [`OffloadEngine::offload_batch`](qtls_core::OffloadEngine)
///   submission, i.e. one ring publish + one doorbell for the whole batch;
/// - the cipher transforms run **in place** in the pooled buffers (the
///   one memcpy splicing each sealed record into the contiguous wire
///   buffer is the only copy), and buffers return to the pool, so the
///   steady-state hot path performs no per-record allocation
///   ([`Self::pool_allocs`] stays flat — see the buffer-reuse test).
///
/// The wire format is identical to [`RecordLayer`]'s, so a codec on one
/// end interoperates with an unmodified record layer on the other.
pub struct RecordCodec {
    version: u16,
    write: CipherState,
    read: CipherState,
    /// Raw inbound bytes not yet opened.
    in_buf: Vec<u8>,
    /// Staged outbound plaintext fragments awaiting flush.
    staged: Vec<Vec<u8>>,
    /// Reusable record buffers (both directions draw from one pool).
    pool: Vec<Vec<u8>>,
    /// Records per batched submission.
    max_batch: usize,
    pool_allocs: u64,
    bytes_sealed: u64,
    bytes_opened: u64,
}

impl RecordCodec {
    /// Default records per batched submission (`qat_record_batch_depth`).
    pub const DEFAULT_BATCH: usize = 16;

    /// Build a codec from extracted secrets plus any leftover raw bytes
    /// the handshake had buffered past `Finished`.
    pub fn new(secrets: ExtractedSecrets, leftover: Vec<u8>, max_batch: usize) -> Self {
        RecordCodec {
            version: secrets.version,
            write: CipherState::new(secrets.write.keys, secrets.write.seq),
            read: CipherState::new(secrets.read.keys, secrets.read.seq),
            in_buf: leftover,
            staged: Vec::new(),
            pool: Vec::new(),
            max_batch: max_batch.max(1),
            pool_allocs: 0,
            bytes_sealed: 0,
            bytes_opened: 0,
        }
    }

    fn pool_get(&mut self) -> Vec<u8> {
        match self.pool.pop() {
            Some(buf) => buf,
            None => {
                self.pool_allocs += 1;
                // Room for a full fragment plus tag and padding, so a
                // seal never regrows the buffer.
                Vec::with_capacity(sizes::MAX_FRAGMENT + 64)
            }
        }
    }

    fn pool_put(&mut self, mut buf: Vec<u8>) {
        if self.pool.len() < 2 * self.max_batch {
            buf.clear();
            self.pool.push(buf);
        }
    }

    /// Stage outbound plaintext. Data is split at 16 KB fragment
    /// boundaries; consecutive small writes coalesce into the tail
    /// fragment so they seal as one record.
    pub fn stage(&mut self, data: &[u8]) {
        let mut rest = data;
        if let Some(tail) = self.staged.last_mut() {
            if tail.len() < sizes::MAX_FRAGMENT {
                let take = rest.len().min(sizes::MAX_FRAGMENT - tail.len());
                tail.extend_from_slice(&rest[..take]);
                rest = &rest[take..];
            }
        }
        while !rest.is_empty() {
            let take = rest.len().min(sizes::MAX_FRAGMENT);
            let mut buf = self.pool_get();
            buf.extend_from_slice(&rest[..take]);
            self.staged.push(buf);
            rest = &rest[take..];
        }
    }

    /// Plaintext bytes staged but not yet flushed.
    pub fn staged_bytes(&self) -> usize {
        self.staged.iter().map(Vec::len).sum()
    }

    /// Synchronous facade over [`Self::flush_into_async`].
    pub fn flush_into<R: EntropySource>(
        &mut self,
        out: &mut Vec<u8>,
        provider: &CryptoProvider,
        counters: &mut OpCounters,
        rng: &mut R,
    ) -> Result<usize, TlsError> {
        run_sync(self.flush_into_async(out, provider, counters, rng))
    }

    /// Seal every staged fragment, appending wire records to `out`.
    /// Returns the number of records sealed. With an offloading provider
    /// the fragments go down as batches of up to `max_batch` in-place
    /// descriptors per doorbell — the future is pending once per batch
    /// and resumes at the batch it paused on; otherwise they are sealed
    /// in place on the CPU.
    pub async fn flush_into_async<R: EntropySource>(
        &mut self,
        out: &mut Vec<u8>,
        provider: &CryptoProvider,
        counters: &mut OpCounters,
        rng: &mut R,
    ) -> Result<usize, TlsError> {
        if self.staged.is_empty() {
            return Ok(0);
        }
        let staged = std::mem::take(&mut self.staged);
        let n = staged.len();
        let offload = provider.offloads_cipher();
        let mut ops: Vec<CryptoOp> = Vec::with_capacity(self.max_batch.min(n));
        let mut ivs: Vec<[u8; 16]> = Vec::with_capacity(self.max_batch.min(n));
        for mut buf in staged {
            self.bytes_sealed += buf.len() as u64;
            let aad = aad_bytes(self.write.seq, ContentType::ApplicationData, self.version);
            self.write.seq += 1;
            let mut iv = [0u8; 16];
            rng.fill(&mut iv);
            if offload {
                ops.push(CryptoOp::CipherSealInPlace {
                    cipher: Arc::clone(&self.write.cipher),
                    iv,
                    buf,
                    aad,
                });
                ivs.push(iv);
                if ops.len() == self.max_batch {
                    self.submit_seal_batch(&mut ops, &mut ivs, out, provider, counters)
                        .await?;
                }
            } else {
                counters.cipher += 1;
                self.write
                    .cipher
                    .seal_in_place(&iv, &mut buf, &aad)
                    .map_err(TlsError::Crypto)?;
                Self::emit_record(out, self.version, &iv, &buf);
                self.pool_put(buf);
            }
        }
        self.submit_seal_batch(&mut ops, &mut ivs, out, provider, counters)
            .await?;
        Ok(n)
    }

    /// `stage` + `flush_into` in one call (synchronous).
    pub fn seal_into<R: EntropySource>(
        &mut self,
        data: &[u8],
        out: &mut Vec<u8>,
        provider: &CryptoProvider,
        counters: &mut OpCounters,
        rng: &mut R,
    ) -> Result<usize, TlsError> {
        self.stage(data);
        self.flush_into(out, provider, counters, rng)
    }

    async fn submit_seal_batch(
        &mut self,
        ops: &mut Vec<CryptoOp>,
        ivs: &mut Vec<[u8; 16]>,
        out: &mut Vec<u8>,
        provider: &CryptoProvider,
        counters: &mut OpCounters,
    ) -> Result<(), TlsError> {
        if ops.is_empty() {
            return Ok(());
        }
        let results = provider
            .cipher_batch(counters, std::mem::take(ops))
            .await
            .expect("seal batch built without a cipher engine");
        for (result, iv) in results.into_iter().zip(ivs.drain(..)) {
            let ct = result.map_err(TlsError::Crypto)?.into_bytes();
            Self::emit_record(out, self.version, &iv, &ct);
            self.pool_put(ct);
        }
        Ok(())
    }

    fn emit_record(out: &mut Vec<u8>, version: u16, iv: &[u8; 16], ct: &[u8]) {
        out.push(ContentType::ApplicationData as u8);
        out.extend_from_slice(&version.to_be_bytes());
        out.extend_from_slice(&((16 + ct.len()) as u16).to_be_bytes());
        out.extend_from_slice(iv);
        out.extend_from_slice(ct);
    }

    /// Buffer raw inbound bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.in_buf.extend_from_slice(bytes);
    }

    /// Raw inbound bytes buffered but not yet opened.
    pub fn buffered(&self) -> usize {
        self.in_buf.len()
    }

    /// Synchronous facade over [`Self::open_into_async`].
    pub fn open_into(
        &mut self,
        out: &mut Vec<u8>,
        provider: &CryptoProvider,
        counters: &mut OpCounters,
    ) -> Result<usize, TlsError> {
        run_sync(self.open_into_async(out, provider, counters))
    }

    /// Open every complete buffered record, appending plaintext to `out`
    /// in record order. Returns the number of records opened; partial
    /// trailing bytes stay buffered. Batched like the seal path.
    pub async fn open_into_async(
        &mut self,
        out: &mut Vec<u8>,
        provider: &CryptoProvider,
        counters: &mut OpCounters,
    ) -> Result<usize, TlsError> {
        let offload = provider.offloads_cipher();
        let in_buf = std::mem::take(&mut self.in_buf);
        let mut pos = 0usize;
        let mut opened = 0usize;
        let mut ops: Vec<CryptoOp> = Vec::new();
        while in_buf.len() - pos >= HEADER_LEN {
            let hdr = &in_buf[pos..pos + HEADER_LEN];
            let version = u16::from_be_bytes([hdr[1], hdr[2]]);
            let len = u16::from_be_bytes([hdr[3], hdr[4]]) as usize;
            if version != self.version {
                return Err(TlsError::Decode("record version mismatch"));
            }
            if hdr[0] != ContentType::ApplicationData as u8 {
                return Err(TlsError::Decode("non-application record on data plane"));
            }
            if in_buf.len() - pos < HEADER_LEN + len {
                break;
            }
            if len < 16 {
                return Err(TlsError::Decode("protected record too short"));
            }
            let body = &in_buf[pos + HEADER_LEN..pos + HEADER_LEN + len];
            let iv: [u8; 16] = body[..16].try_into().unwrap();
            let aad = aad_bytes(self.read.seq, ContentType::ApplicationData, self.version);
            self.read.seq += 1;
            let mut buf = self.pool_get();
            buf.extend_from_slice(&body[16..]);
            if offload {
                ops.push(CryptoOp::CipherOpenInPlace {
                    cipher: Arc::clone(&self.read.cipher),
                    iv,
                    buf,
                    aad,
                });
                if ops.len() == self.max_batch {
                    opened += self
                        .submit_open_batch(&mut ops, out, provider, counters)
                        .await?;
                }
            } else {
                counters.cipher += 1;
                self.read
                    .cipher
                    .open_in_place(&iv, &mut buf, &aad)
                    .map_err(TlsError::Crypto)?;
                self.bytes_opened += buf.len() as u64;
                out.extend_from_slice(&buf);
                self.pool_put(buf);
                opened += 1;
            }
            pos += HEADER_LEN + len;
        }
        opened += self
            .submit_open_batch(&mut ops, out, provider, counters)
            .await?;
        self.in_buf = in_buf;
        self.in_buf.drain(..pos);
        Ok(opened)
    }

    async fn submit_open_batch(
        &mut self,
        ops: &mut Vec<CryptoOp>,
        out: &mut Vec<u8>,
        provider: &CryptoProvider,
        counters: &mut OpCounters,
    ) -> Result<usize, TlsError> {
        if ops.is_empty() {
            return Ok(0);
        }
        let results = provider
            .cipher_batch(counters, std::mem::take(ops))
            .await
            .expect("open batch built without a cipher engine");
        let n = results.len();
        for result in results {
            let pt = result.map_err(TlsError::Crypto)?.into_bytes();
            self.bytes_opened += pt.len() as u64;
            out.extend_from_slice(&pt);
            self.pool_put(pt);
        }
        Ok(n)
    }

    /// Buffers allocated by the pool since construction. Flat in steady
    /// state: the hot path reuses pooled buffers instead of allocating
    /// per record.
    pub fn pool_allocs(&self) -> u64 {
        self.pool_allocs
    }

    /// Total plaintext bytes sealed (sent) through this codec.
    pub fn bytes_sealed(&self) -> u64 {
        self.bytes_sealed
    }

    /// Total plaintext bytes opened (received) through this codec.
    pub fn bytes_opened(&self) -> u64 {
        self.bytes_opened
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtls_crypto::TestRng;

    fn keys(seed: u8) -> DirectionKeys {
        DirectionKeys {
            mac_key: vec![seed; 20],
            enc_key: [seed; 16],
        }
    }

    fn pipe() -> (
        RecordLayer,
        RecordLayer,
        CryptoProvider,
        OpCounters,
        TestRng,
    ) {
        (
            RecordLayer::new(0x0303),
            RecordLayer::new(0x0303),
            CryptoProvider::Software,
            OpCounters::default(),
            TestRng::new(1),
        )
    }

    #[test]
    fn plaintext_roundtrip() {
        let (mut tx, mut rx, p, mut c, mut rng) = pipe();
        let rec = tx
            .write_record(ContentType::Handshake, b"hello", &p, &mut c, &mut rng)
            .unwrap();
        rx.feed(&rec);
        let (typ, payload) = rx.next_record(&p, &mut c).unwrap().unwrap();
        assert_eq!(typ, ContentType::Handshake);
        assert_eq!(payload, b"hello");
        assert_eq!(c.cipher, 0, "no crypto before keys");
    }

    #[test]
    fn encrypted_roundtrip() {
        let (mut tx, mut rx, p, mut c, mut rng) = pipe();
        tx.set_write_keys(keys(5));
        rx.set_read_keys(keys(5));
        let rec = tx
            .write_record(
                ContentType::ApplicationData,
                b"secret data",
                &p,
                &mut c,
                &mut rng,
            )
            .unwrap();
        assert!(
            !rec.windows(11).any(|w| w == b"secret data"),
            "must be encrypted"
        );
        rx.feed(&rec);
        let (typ, payload) = rx.next_record(&p, &mut c).unwrap().unwrap();
        assert_eq!(typ, ContentType::ApplicationData);
        assert_eq!(payload, b"secret data");
        assert_eq!(c.cipher, 2);
    }

    #[test]
    fn sequence_numbers_prevent_replay() {
        let (mut tx, mut rx, p, mut c, mut rng) = pipe();
        tx.set_write_keys(keys(5));
        rx.set_read_keys(keys(5));
        let rec = tx
            .write_record(ContentType::ApplicationData, b"msg", &p, &mut c, &mut rng)
            .unwrap();
        rx.feed(&rec);
        rx.next_record(&p, &mut c).unwrap().unwrap();
        // Replaying the identical record must fail the MAC (seq advanced).
        rx.feed(&rec);
        assert!(rx.next_record(&p, &mut c).is_err());
    }

    #[test]
    fn partial_records_buffer() {
        let (mut tx, mut rx, p, mut c, mut rng) = pipe();
        let rec = tx
            .write_record(ContentType::Handshake, b"abcdef", &p, &mut c, &mut rng)
            .unwrap();
        for b in &rec[..rec.len() - 1] {
            rx.feed(&[*b]);
            // (may yield None repeatedly)
        }
        assert!(rx.next_record(&p, &mut c).unwrap().is_none());
        rx.feed(&rec[rec.len() - 1..]);
        assert!(rx.next_record(&p, &mut c).unwrap().is_some());
    }

    #[test]
    fn fragmentation_at_16kb() {
        let (mut tx, mut rx, p, mut c, mut rng) = pipe();
        tx.set_write_keys(keys(9));
        rx.set_read_keys(keys(9));
        let data = vec![0x5au8; 40 * 1024]; // 40 KB -> 3 records
        let stream = tx
            .write_fragmented(ContentType::ApplicationData, &data, &p, &mut c, &mut rng)
            .unwrap();
        assert_eq!(c.cipher, 3, "40KB must become 3 cipher ops (16+16+8)");
        rx.feed(&stream);
        let mut got = Vec::new();
        while let Some((_, payload)) = rx.next_record(&p, &mut c).unwrap() {
            got.extend_from_slice(&payload);
        }
        assert_eq!(got, data);
    }

    #[test]
    fn tampering_detected() {
        let (mut tx, mut rx, p, mut c, mut rng) = pipe();
        tx.set_write_keys(keys(5));
        rx.set_read_keys(keys(5));
        let mut rec = tx
            .write_record(
                ContentType::ApplicationData,
                b"payload!",
                &p,
                &mut c,
                &mut rng,
            )
            .unwrap();
        let n = rec.len();
        rec[n - 1] ^= 0x01;
        rx.feed(&rec);
        assert!(rx.next_record(&p, &mut c).is_err());
    }

    #[test]
    fn wrong_keys_fail() {
        let (mut tx, mut rx, p, mut c, mut rng) = pipe();
        tx.set_write_keys(keys(5));
        rx.set_read_keys(keys(6));
        let rec = tx
            .write_record(ContentType::ApplicationData, b"x", &p, &mut c, &mut rng)
            .unwrap();
        rx.feed(&rec);
        assert!(rx.next_record(&p, &mut c).is_err());
    }

    /// Mirrored secrets for a codec pair (server writes 5/reads 6).
    fn secrets_pair(version: u16) -> (ExtractedSecrets, ExtractedSecrets) {
        let dir = |seed| DirectionSecrets {
            keys: keys(seed),
            seq: 0,
        };
        (
            ExtractedSecrets {
                version,
                write: dir(5),
                read: dir(6),
            },
            ExtractedSecrets {
                version,
                write: dir(6),
                read: dir(5),
            },
        )
    }

    #[test]
    fn codec_interops_with_unmodified_record_layer() {
        let (server, _) = secrets_pair(0x0303);
        let mut codec = RecordCodec::new(server, Vec::new(), RecordCodec::DEFAULT_BATCH);
        let p = CryptoProvider::Software;
        let mut c = OpCounters::default();
        let mut rng = TestRng::new(3);
        let mut peer = RecordLayer::new(0x0303);
        peer.set_read_keys(keys(5));
        peer.set_write_keys(keys(6));
        let mut wire = Vec::new();
        codec
            .seal_into(
                b"hello from the data plane",
                &mut wire,
                &p,
                &mut c,
                &mut rng,
            )
            .unwrap();
        peer.feed(&wire);
        let (typ, payload) = peer.next_record(&p, &mut c).unwrap().unwrap();
        assert_eq!(typ, ContentType::ApplicationData);
        assert_eq!(payload, b"hello from the data plane");
        // Reverse direction: handshake-layer peer writes, codec opens.
        let rec = peer
            .write_record(ContentType::ApplicationData, b"reply", &p, &mut c, &mut rng)
            .unwrap();
        codec.feed(&rec);
        let mut pt = Vec::new();
        assert_eq!(codec.open_into(&mut pt, &p, &mut c).unwrap(), 1);
        assert_eq!(pt, b"reply");
    }

    #[test]
    fn extract_secrets_carries_seq_and_leftover_to_codec() {
        let (mut tx, mut rx, p, mut c, mut rng) = pipe();
        tx.set_write_keys(keys(5));
        rx.set_read_keys(keys(5));
        rx.set_write_keys(keys(6));
        tx.set_read_keys(keys(6));
        // Advance the read sequence space through the handshake layer.
        let r1 = tx
            .write_record(ContentType::Handshake, b"fin", &p, &mut c, &mut rng)
            .unwrap();
        // Early data arrives before handoff, in the same read as the
        // last handshake record; only part of it has landed.
        let early = tx
            .write_record(ContentType::ApplicationData, b"early", &p, &mut c, &mut rng)
            .unwrap();
        rx.feed(&[&r1[..], &early[..3]].concat());
        rx.next_record(&p, &mut c).unwrap().unwrap();
        // The consumed record is behind the read cursor, not yet dropped:
        // neither the count nor the handoff may include it.
        assert_eq!(rx.buffered(), 3);
        let (secrets, leftover) = rx.extract_secrets().unwrap();
        assert_eq!(secrets.read.seq, 1);
        assert_eq!(secrets.write.seq, 0);
        assert_eq!(leftover, early[..3].to_vec());
        assert!(!rx.write_protected() && !rx.read_protected());
        let mut codec = RecordCodec::new(secrets, leftover, 4);
        codec.feed(&early[3..]);
        let mut pt = Vec::new();
        assert_eq!(codec.open_into(&mut pt, &p, &mut c).unwrap(), 1);
        assert_eq!(pt, b"early");
        // Extraction before protection is active is an error.
        assert!(RecordLayer::new(0x0303).extract_secrets().is_err());
    }

    #[test]
    fn tiny_writes_coalesce_into_one_batched_submission() {
        use qtls_core::{EngineMode, OffloadEngine};
        use qtls_qat::{QatConfig, QatDevice};
        use std::sync::atomic::Ordering;
        let dev = QatDevice::new(QatConfig::functional_small());
        let engine = Arc::new(OffloadEngine::new(
            dev.alloc_instance(),
            EngineMode::Blocking,
        ));
        let p = CryptoProvider::offload(engine);
        let mut c = OpCounters::default();
        let mut rng = TestRng::new(7);
        let (server, client) = secrets_pair(0x0303);
        let mut codec = RecordCodec::new(server, Vec::new(), RecordCodec::DEFAULT_BATCH);
        for _ in 0..100 {
            codec.stage(b"tiny");
        }
        assert_eq!(codec.staged_bytes(), 400);
        let mut wire = Vec::new();
        let records = codec.flush_into(&mut wire, &p, &mut c, &mut rng).unwrap();
        assert_eq!(records, 1, "100 tiny writes must coalesce into 1 record");
        let after_tiny = dev.fw_counters().doorbells.load(Ordering::Relaxed);
        assert_eq!(after_tiny, 1, "one batched submission -> one doorbell");
        // A multi-record flush also rings the doorbell exactly once.
        codec.stage(&vec![0xa5u8; 40 * 1024]);
        let records = codec.flush_into(&mut wire, &p, &mut c, &mut rng).unwrap();
        assert_eq!(records, 3);
        let after_bulk = dev.fw_counters().doorbells.load(Ordering::Relaxed);
        assert_eq!(after_bulk - after_tiny, 1);
        // In-place buffers round-trip through the device: one alloc for
        // the tiny record, two more when three records were in flight.
        assert_eq!(codec.pool_allocs(), 3);
        // The peer opens the batched wire bytes.
        let mut peer = RecordCodec::new(client, wire, RecordCodec::DEFAULT_BATCH);
        let mut pt = Vec::new();
        assert_eq!(peer.open_into(&mut pt, &p, &mut c).unwrap(), 4);
        assert_eq!(pt.len(), 400 + 40 * 1024);
        assert!(pt[..400].iter().all(|_| true) && pt[400..].iter().all(|&b| b == 0xa5));
        assert_eq!(c.cipher, 8, "4 seals + 4 opens counted");
    }

    #[test]
    fn codec_reuses_pooled_buffers_on_the_hot_path() {
        let (server, client) = secrets_pair(0x0303);
        let mut tx = RecordCodec::new(server, Vec::new(), 8);
        let mut rx = RecordCodec::new(client, Vec::new(), 8);
        let p = CryptoProvider::Software;
        let mut c = OpCounters::default();
        let mut rng = TestRng::new(9);
        let data = vec![0x3cu8; 32 * 1024]; // two fragments per flush
        let mut total = Vec::new();
        for _ in 0..10 {
            let mut wire = Vec::new();
            tx.seal_into(&data, &mut wire, &p, &mut c, &mut rng)
                .unwrap();
            rx.feed(&wire);
            rx.open_into(&mut total, &p, &mut c).unwrap();
        }
        assert_eq!(total.len(), 10 * data.len());
        // Warm after the first flush: the seal path stages two fragments
        // at once (two buffers, reused ever after); the open path opens
        // records sequentially, so one buffer serves all 20 records.
        assert_eq!(tx.pool_allocs(), 2, "seal path allocated per record");
        assert_eq!(rx.pool_allocs(), 1, "open path allocated per record");
        assert_eq!(tx.bytes_sealed(), (10 * data.len()) as u64);
        assert_eq!(rx.bytes_opened(), (10 * data.len()) as u64);
    }

    #[test]
    fn codec_rejects_tampering_and_non_application_records() {
        let (server, client) = secrets_pair(0x0303);
        let p = CryptoProvider::Software;
        let mut c = OpCounters::default();
        let mut rng = TestRng::new(11);
        let mut tx = RecordCodec::new(server, Vec::new(), 4);
        let mut wire = Vec::new();
        tx.seal_into(b"payload", &mut wire, &p, &mut c, &mut rng)
            .unwrap();
        let mut tampered = wire.clone();
        let n = tampered.len();
        tampered[n - 1] ^= 1;
        let mut rx = RecordCodec::new(client.clone(), tampered, 4);
        assert!(rx.open_into(&mut Vec::new(), &p, &mut c).is_err());
        // A handshake record on the data plane is a protocol violation.
        let mut hs = wire.clone();
        hs[0] = ContentType::Handshake as u8;
        let mut rx2 = RecordCodec::new(client, hs, 4);
        assert!(rx2.open_into(&mut Vec::new(), &p, &mut c).is_err());
    }
}
