//! The TLS record layer: framing, sequence numbers, fragmentation at
//! 16 KB (§2.1), and AES-128-CBC + HMAC-SHA1 record protection routed
//! through the [`CryptoProvider`] (so record crypto is offloadable, as in
//! the paper's secure-data-transfer evaluation; whether a record or a codec
//! pass is big enough to be worth the round trip is the provider's call).
//! Every entry point that can reach the accelerator is an `async fn`
//! (`*_async`) with a synchronous facade of the historical name beside it.
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
use qtls_crypto::cbc_hmac::{self, OpenRecord, LANES};
use qtls_crypto::{CbcHmacSha1, CryptoError, EntropySource};
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

    /// Open the run of complete, protected ApplicationData records at
    /// the front of the buffered input that `provider` opens on the CPU,
    /// [`LANES`] at a time as one batch ([`cbc_hmac::open_batch`]: each
    /// record decrypted in place in the input buffer, then their MACs in
    /// one multi-buffer pass where the CPU and the number of records
    /// allow, DESIGN.md §20), and hand each verified content to `deliver`
    /// in record order. Returns how many records were delivered; 0 when
    /// the next record is anything else — not yet complete, another
    /// content type, malformed, or one the provider would offload — which
    /// [`Self::next_record_async`] then takes as before.
    ///
    /// The checks and the error are [`CbcHmacSha1::open_in_place`]'s: at
    /// the first record that fails, the records before it have been
    /// delivered, none after it is, and the error is returned. A failed
    /// run is consumed whole — its records were decrypted in place and
    /// cannot be read again — and the connection is dead anyway.
    pub fn open_app_data(
        &mut self,
        provider: &CryptoProvider,
        counters: &mut OpCounters,
        mut deliver: impl FnMut(&[u8]),
    ) -> Result<usize, TlsError> {
        if self.detached {
            return Err(TlsError::InvalidState("record layer handed off to codec"));
        }
        let Some(state) = &mut self.read else {
            return Ok(0);
        };
        let mut delivered = 0;
        loop {
            // The run: each record's length, at most LANES of them.
            let mut lens = [0usize; LANES];
            let mut n = 0;
            let mut at = self.in_pos;
            while n < LANES {
                let Some(hdr) = self.in_buf[at..].first_chunk::<HEADER_LEN>() else {
                    break;
                };
                let len = u16::from_be_bytes([hdr[3], hdr[4]]) as usize;
                if hdr[0] != ContentType::ApplicationData as u8
                    || u16::from_be_bytes([hdr[1], hdr[2]]) != self.version
                    || len < 16
                    || self.in_buf.len() - at < HEADER_LEN + len
                    || provider.offloads_cipher(len - 16).is_some()
                {
                    break;
                }
                lens[n] = len;
                n += 1;
                at += HEADER_LEN + len;
            }
            if n == 0 {
                return Ok(delivered);
            }
            let aads: [[u8; 11]; LANES] = std::array::from_fn(|j| {
                aad_bytes(
                    state.seq + j as u64,
                    ContentType::ApplicationData,
                    self.version,
                )
            });
            // A record the batch never saw (none: each is at least an IV
            // long) would fail rather than deliver.
            let mut verdicts = [Err(CryptoError::InvalidLength); LANES];
            let mut rest = &mut self.in_buf[self.in_pos..at];
            let cipher = &state.cipher;
            cbc_hmac::open_batch(
                lens[..n].iter().zip(&aads).map_while(|(&len, aad)| {
                    let (record, tail) = std::mem::take(&mut rest).split_at_mut(HEADER_LEN + len);
                    rest = tail;
                    let (iv, ciphertext) = record[HEADER_LEN..].split_first_chunk_mut::<16>()?;
                    Some(OpenRecord {
                        cipher,
                        iv,
                        aad,
                        buf: ciphertext,
                    })
                }),
                |j, verdict| verdicts[j] = verdict,
            );
            let mut start = self.in_pos;
            self.in_pos = at;
            for (&len, verdict) in lens[..n].iter().zip(verdicts) {
                counters.cipher += 1;
                let content = verdict.map_err(TlsError::Crypto)?;
                let body = start + HEADER_LEN + 16;
                deliver(&self.in_buf[body..body + content]);
                state.seq += 1;
                delivered += 1;
                start += HEADER_LEN + len;
            }
        }
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

/// Ciphertext bytes (bodies less their IVs) of the complete records at the
/// front of `buf`: what one open pass of the codec would process. Headers
/// are validated by the pass itself.
fn complete_ciphertext_bytes(mut buf: &[u8]) -> usize {
    let mut bytes = 0;
    while let Some((hdr, rest)) = buf.split_first_chunk::<HEADER_LEN>() {
        let len = u16::from_be_bytes([hdr[3], hdr[4]]) as usize;
        let Some((body, rest)) = rest.split_at_checked(len) else {
            break;
        };
        bytes += body.len().saturating_sub(16);
        buf = rest;
    }
    bytes
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
/// - each flush (and each open pass) is offloaded or not as a whole, on
///   its total bytes ([`CryptoProvider::offloads_cipher`]); an offloaded
///   flush seals all staged fragments as one scatter-gather offload of
///   [`CryptoOp::CipherSealInPlace`] descriptors
///   ([`qtls_core::OffloadEngine::offload_chunks_async`]): chunks of
///   `max_batch` records, each one ring publish + one doorbell on the
///   next shard, all published before the flush pauses — once;
/// - the cipher transforms run **in place** in the pooled buffers (the
///   one memcpy splicing each sealed record into the contiguous wire
///   buffer is the only copy), and buffers return to the pool, which
///   keeps as many as the largest pass used (up to a 1 MiB response's
///   65 fragments), so the steady-state hot path performs no per-record
///   allocation
///   ([`Self::pool_allocs`] stays flat — see the buffer-reuse tests).
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
    /// Most buffers the pool keeps: the most one pass has held at once,
    /// up to `POOL_MAX`.
    pool_keep: usize,
    /// Records per doorbell (one chunk of an offloaded pass).
    max_batch: usize,
    pool_allocs: u64,
    bytes_sealed: u64,
    bytes_opened: u64,
}

/// Most record buffers a codec's pool keeps: a 1 MiB response's
/// fragments (64 full ones and the one its header spills into).
const POOL_MAX: usize = (1 << 20) / sizes::MAX_FRAGMENT + 1;

impl RecordCodec {
    /// Default records per doorbell (`qat_record_batch_depth`).
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
            pool_keep: 1,
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
        if self.pool.len() < self.pool_keep {
            buf.clear();
            self.pool.push(buf);
        }
    }

    /// A pass is about to hold `buffers` pool buffers at once: let the
    /// pool keep that many for the next one.
    fn pool_reserve(&mut self, buffers: usize) {
        self.pool_keep = self.pool_keep.max(buffers.min(POOL_MAX));
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
    /// Returns the number of records sealed. The provider decides once,
    /// on the bytes staged, where the whole flush runs
    /// ([`CryptoProvider::offloads_cipher`]): on the device every
    /// fragment goes down as an in-place descriptor, `max_batch` per
    /// doorbell, all published before the future pends — once — for the
    /// lot; otherwise they are sealed in place on the CPU. Either way the
    /// records are emitted in order; on a failed seal, those before it
    /// are emitted and the error is returned.
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
        self.pool_reserve(n);
        let engine = provider.offloads_cipher(staged.iter().map(Vec::len).sum());
        let batch = engine.map_or(0, |_| n);
        let mut ops: Vec<CryptoOp> = Vec::with_capacity(batch);
        let mut ivs: Vec<[u8; 16]> = Vec::with_capacity(batch);
        counters.cipher += n as u32;
        for mut buf in staged {
            self.bytes_sealed += buf.len() as u64;
            let aad = aad_bytes(self.write.seq, ContentType::ApplicationData, self.version);
            self.write.seq += 1;
            let mut iv = [0u8; 16];
            rng.fill(&mut iv);
            if engine.is_some() {
                ops.push(CryptoOp::CipherSealInPlace {
                    cipher: Arc::clone(&self.write.cipher),
                    iv,
                    buf,
                    aad,
                });
                ivs.push(iv);
                continue;
            }
            self.write
                .cipher
                .seal_in_place(&iv, &mut buf, &aad)
                .map_err(TlsError::Crypto)?;
            Self::emit_record(out, self.version, &iv, &buf);
            self.pool_put(buf);
        }
        if let Some(engine) = engine {
            let results = engine.offload_chunks_async(ops, self.max_batch).await;
            self.take_results(results, |codec, i, sealed| {
                Self::emit_record(out, codec.version, &ivs[i], sealed);
            })?;
        }
        Ok(n)
    }

    /// Hand each offloaded record's output to `emit` in record order up
    /// to the first failure, whose error is returned; every buffer that
    /// came back goes to the pool, emitted or not.
    fn take_results(
        &mut self,
        results: Vec<qtls_qat::CryptoResult>,
        mut emit: impl FnMut(&mut Self, usize, &[u8]),
    ) -> Result<(), TlsError> {
        let mut failure = None;
        for (i, result) in results.into_iter().enumerate() {
            match result {
                Ok(output) => {
                    let buf = output.into_bytes();
                    if failure.is_none() {
                        emit(self, i, &buf);
                    }
                    self.pool_put(buf);
                }
                Err(e) => {
                    failure.get_or_insert(e);
                }
            }
        }
        failure.map_or(Ok(()), |e| Err(TlsError::Crypto(e)))
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
    /// trailing bytes stay buffered. Decided once, on the ciphertext bytes
    /// of the complete records, and offloaded like the seal path: one
    /// offload for the pass, `max_batch` records per doorbell, one pause.
    pub async fn open_into_async(
        &mut self,
        out: &mut Vec<u8>,
        provider: &CryptoProvider,
        counters: &mut OpCounters,
    ) -> Result<usize, TlsError> {
        let in_buf = std::mem::take(&mut self.in_buf);
        let engine = provider.offloads_cipher(complete_ciphertext_bytes(&in_buf));
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
            let body = &in_buf[pos + HEADER_LEN..pos + HEADER_LEN + len];
            let Some((&iv, ciphertext)) = body.split_first_chunk::<16>() else {
                return Err(TlsError::Decode("protected record too short"));
            };
            let aad = aad_bytes(self.read.seq, ContentType::ApplicationData, self.version);
            self.read.seq += 1;
            counters.cipher += 1;
            let mut buf = self.pool_get();
            buf.extend_from_slice(ciphertext);
            pos += HEADER_LEN + len;
            if engine.is_some() {
                ops.push(CryptoOp::CipherOpenInPlace {
                    cipher: Arc::clone(&self.read.cipher),
                    iv,
                    buf,
                    aad,
                });
                continue;
            }
            self.read
                .cipher
                .open_in_place(&iv, &mut buf, &aad)
                .map_err(TlsError::Crypto)?;
            self.bytes_opened += buf.len() as u64;
            out.extend_from_slice(&buf);
            self.pool_put(buf);
            opened += 1;
        }
        if let Some(engine) = engine {
            self.pool_reserve(ops.len());
            let results = engine.offload_chunks_async(ops, self.max_batch).await;
            self.take_results(results, |codec, _, plaintext| {
                codec.bytes_opened += plaintext.len() as u64;
                out.extend_from_slice(plaintext);
                opened += 1;
            })?;
        }
        self.in_buf = in_buf;
        self.in_buf.drain(..pos);
        Ok(opened)
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
    use crate::provider::tests::blocking as offloading;
    use crate::provider::OffloadSelection;
    use qtls_core::{poll_pass, EngineMode, OffloadEngine, SubmitQueue, WaitCtx};
    use qtls_crypto::TestRng;
    use qtls_qat::{QatConfig, QatDevice};
    use std::future::Future;
    use std::sync::atomic::Ordering;
    use std::task::Poll;
    use std::time::{Duration, Instant};

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

    /// What a reader makes of `wire`, record by record through
    /// `next_record` or in batches through `open_app_data` first: the
    /// application data delivered, then the error (or the type of the
    /// first record that is not application data), and the record
    /// operations counted.
    fn read_all(
        wire: &[u8],
        batched: bool,
    ) -> (Vec<Vec<u8>>, Result<Option<ContentType>, TlsError>, u32) {
        let (_, mut rx, p, mut c, _) = pipe();
        rx.set_read_keys(keys(7));
        rx.feed(wire);
        let mut delivered = Vec::new();
        let outcome = loop {
            if batched {
                match rx.open_app_data(&p, &mut c, |content| delivered.push(content.to_vec())) {
                    Ok(0) => {}
                    Ok(_) => continue,
                    Err(e) => break Err(e),
                }
            }
            match rx.next_record(&p, &mut c) {
                Ok(Some((ContentType::ApplicationData, pt))) => delivered.push(pt),
                Ok(other) => break Ok(other.map(|(typ, _)| typ)),
                Err(e) => break Err(e),
            }
        };
        (delivered, outcome, c.cipher)
    }

    /// The client's batched open delivers what the per-record path
    /// delivers: every record up to a tampered one in order, then the
    /// same `BadMac`, with the same records counted; and it stops at a
    /// record of another type, which the per-record path then takes.
    #[test]
    fn batched_app_data_open_matches_the_per_record_path() {
        let (mut tx, _, p, mut c, mut rng) = pipe();
        tx.set_write_keys(keys(7));
        let mut records = Vec::new();
        for i in 0..40usize {
            let len = [16 * 1024, 1, 700, 0, 5000][i % 5];
            let (typ, data) = match i {
                35 => (ContentType::Handshake, b"hs".to_vec()),
                _ => (ContentType::ApplicationData, vec![i as u8; len]),
            };
            records.push(tx.write_record(typ, &data, &p, &mut c, &mut rng).unwrap());
        }
        let clean = records.concat();
        let (want, want_end, want_count) = read_all(&clean, false);
        assert_eq!(want.len(), 35);
        assert_eq!(want_end, Ok(Some(ContentType::Handshake)));
        assert_eq!(read_all(&clean, true), (want, want_end, want_count));
        for bad in [0, 7, 15, 16, 17, 34] {
            let mut wire = records.clone();
            // A byte of the last ciphertext block: the MAC or the pad.
            let last = wire[bad].len() - 1;
            wire[bad][last] ^= 0x40;
            let wire = wire.concat();
            let per_record = read_all(&wire, false);
            assert_eq!(per_record.0.len(), bad);
            assert_eq!(per_record.1, Err(TlsError::Crypto(CryptoError::BadMac)));
            assert_eq!(read_all(&wire, true), per_record, "tampered record {bad}");
        }
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
        use std::sync::atomic::Ordering;
        let (p, dev) = offloading(OffloadSelection::offload_everything());
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

    /// An async-mode provider over `device`, one shard per endpoint,
    /// that sends every record pass to the device.
    fn sharded(device: &QatDevice) -> (CryptoProvider, Arc<OffloadEngine>) {
        let shards = device.config().endpoints;
        let engine = Arc::new(OffloadEngine::sharded(
            device.alloc_instances(shards),
            EngineMode::Async,
        ));
        let provider = CryptoProvider::Offload {
            engine: Arc::clone(&engine),
            selection: OffloadSelection::offload_everything(),
        };
        (provider, engine)
    }

    /// Poll `fut` as the worker polls a connection task, and return its
    /// output and how many times it paused. At each pause, wait until
    /// the engines have answered every published request, then retrieve
    /// the shards last-first, so a pass's chunks complete in reverse.
    fn drive_reversed<T>(engine: &OffloadEngine, fut: impl Future<Output = T>) -> (T, u32) {
        let ctx = Arc::new(WaitCtx::new());
        let mut fut = std::pin::pin!(fut);
        let deadline = Instant::now() + Duration::from_secs(60);
        let answered = || {
            (0..engine.shard_count())
                .map(|i| engine.shard_instance(i).pending_responses() as u64)
                .sum::<u64>()
        };
        for pauses in 0.. {
            if let Poll::Ready(out) = poll_pass(Some(&ctx), fut.as_mut()) {
                return (out, pauses);
            }
            while answered() < engine.inflight().total() {
                assert!(Instant::now() < deadline, "engines never answered");
                std::thread::yield_now();
            }
            for i in (0..engine.shard_count()).rev() {
                engine.poll_shard(i);
            }
        }
        unreachable!("a pass pauses fewer than u32::MAX times")
    }

    #[test]
    fn the_offload_decision_never_changes_a_wire_byte() {
        // Flushes of 100 B, 1 KB, 2 KB and a 1 MiB response with its
        // header, each opened by the peer as it lands: the default keeps
        // the first two on the CPU, the ablation offloads all four, and
        // both ends put out the same bytes.
        let sizes = [100, 1024, 2048, (1 << 20) + 100];
        let run = |selection| {
            let (p, dev) = offloading(selection);
            let (server, client) = secrets_pair(0x0303);
            let mut tx = RecordCodec::new(server, Vec::new(), RecordCodec::DEFAULT_BATCH);
            let mut rx = RecordCodec::new(client, Vec::new(), RecordCodec::DEFAULT_BATCH);
            let mut c = OpCounters::default();
            let mut rng = TestRng::new(0x5eed);
            let (mut wire, mut on_device) = (Vec::new(), Vec::new());
            for (i, &len) in sizes.iter().enumerate() {
                let data = vec![i as u8; len];
                let mut flight = Vec::new();
                tx.seal_into(&data, &mut flight, &p, &mut c, &mut rng)
                    .unwrap();
                rx.feed(&flight);
                let mut opened = Vec::new();
                rx.open_into(&mut opened, &p, &mut c).unwrap();
                assert_eq!(opened, data);
                wire.extend_from_slice(&flight);
                on_device.push(dev.fw_counters().total_completed());
            }
            (wire, on_device, c.cipher)
        };
        let default = run(OffloadSelection::default());
        let everything = run(OffloadSelection::offload_everything());
        assert!(default.0 == everything.0, "wire bytes differ");
        // Cumulative device ops after each size: 65 records seal and 65
        // open for the 1 MiB response under both.
        assert_eq!(default.1, [0, 0, 2, 132]);
        assert_eq!(everything.1, [2, 4, 6, 136]);
        assert_eq!((default.2, everything.2), (136, 136));

        // Flushes of 1 to 70 records through a three-shard engine, every
        // chunk of 16 on the next shard and the shards retrieved
        // last-first: the wire bytes are the inline seal's, each flush
        // pauses once and rings one doorbell per chunk.
        let device = QatDevice::new(QatConfig {
            endpoints: 3,
            engines_per_endpoint: 1,
            ring_capacity: 64,
            ..QatConfig::functional_small()
        });
        let (p, engine) = sharded(&device);
        let (server, _) = secrets_pair(0x0303);
        let mut on_device =
            RecordCodec::new(server.clone(), Vec::new(), RecordCodec::DEFAULT_BATCH);
        let mut inline = RecordCodec::new(server, Vec::new(), RecordCodec::DEFAULT_BATCH);
        let (mut rng_device, mut rng_inline) = (TestRng::new(70), TestRng::new(70));
        let mut c = OpCounters::default();
        let doorbells = || device.fw_counters().doorbells.load(Ordering::Relaxed);
        for records in 1..=70usize {
            let data = vec![records as u8; records * sizes::MAX_FRAGMENT - 7];
            let mut want = Vec::new();
            inline
                .seal_into(
                    &data,
                    &mut want,
                    &CryptoProvider::Software,
                    &mut c,
                    &mut rng_inline,
                )
                .unwrap();
            on_device.stage(&data);
            let before = doorbells();
            let mut wire = Vec::new();
            let (sealed, pauses) = drive_reversed(
                &engine,
                on_device.flush_into_async(&mut wire, &p, &mut c, &mut rng_device),
            );
            assert_eq!(sealed, Ok(records));
            assert!(wire == want, "{records} records: wire bytes differ");
            assert_eq!(pauses, 1, "{records} records: one pause per flush");
            assert_eq!(doorbells() - before, records.div_ceil(16) as u64);
        }
        assert_eq!(engine.inflight().total(), 0);
    }

    /// A 1 MiB response is 65 fragments: the pool keeps them all, so a
    /// keep-alive connection serving it again allocates nothing.
    #[test]
    fn a_whole_mib_flush_stays_in_the_pool() {
        let (server, _) = secrets_pair(0x0303);
        let mut tx = RecordCodec::new(server, Vec::new(), RecordCodec::DEFAULT_BATCH);
        let p = CryptoProvider::Software;
        let mut c = OpCounters::default();
        let mut rng = TestRng::new(13);
        let response = vec![0x6du8; (1 << 20) + 100];
        let mut allocs = Vec::new();
        for _ in 0..3 {
            let records = tx
                .seal_into(&response, &mut Vec::new(), &p, &mut c, &mut rng)
                .unwrap();
            assert_eq!(records, POOL_MAX);
            allocs.push(tx.pool_allocs());
        }
        assert_eq!(allocs, [65, 65, 65], "later flushes missed the pool");
    }

    /// A worker shutdown drains the submit queues while a flush's chunks
    /// are in flight on all three shards, each with a tail staged behind
    /// a four-slot ring: the flush emits exactly the records before the
    /// first cancelled one and fails with `Cancelled`; inflight counts go
    /// back to zero, and the pool lacks only the buffers that died with
    /// the cancelled requests.
    #[test]
    fn a_shutdown_drain_mid_flush_emits_exactly_the_records_before_it() {
        use qtls_qat::{ServiceMode, ServiceTable};
        const RECORDS: usize = 40;
        // Timed engines take one request per 2 ms: a ring the drain
        // publishes into is still nearly full from the flush.
        let device = QatDevice::new(QatConfig {
            endpoints: 3,
            engines_per_endpoint: 1,
            ring_capacity: 4,
            service_mode: ServiceMode::Timed { time_scale: 1.0 },
            service_table: ServiceTable {
                cipher_16kb_ns: 2_000_000,
                ..ServiceTable::default()
            },
        });
        let (p, engine) = sharded(&device);
        let queues: Vec<Arc<SubmitQueue>> = (0..3)
            .map(|i| {
                let queue = Arc::new(SubmitQueue::new());
                engine.attach_shard_submit_queue(i, Arc::clone(&queue));
                queue
            })
            .collect();
        let (server, client) = secrets_pair(0x0303);
        let mut tx = RecordCodec::new(server, Vec::new(), RecordCodec::DEFAULT_BATCH);
        let mut rx = RecordCodec::new(client, Vec::new(), RecordCodec::DEFAULT_BATCH);
        let mut c = OpCounters::default();
        let mut rng = TestRng::new(17);
        let data = |i: usize| vec![i as u8; RECORDS * sizes::MAX_FRAGMENT];
        // Poll a flush as the worker would, flushing the sweep queues.
        let flush = |tx: &mut RecordCodec, c: &mut OpCounters, rng: &mut TestRng, drain: bool| {
            let ctx = Arc::new(WaitCtx::new());
            let mut wire = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(60);
            let mut cancelled = None;
            let result = {
                let mut fut = std::pin::pin!(tx.flush_into_async(&mut wire, &p, c, rng));
                loop {
                    if let Poll::Ready(result) = poll_pass(Some(&ctx), fut.as_mut()) {
                        break result;
                    }
                    if drain && cancelled.is_none() {
                        let staged: Vec<usize> = queues.iter().map(|q| q.len()).collect();
                        let flushed =
                            |q: &SubmitQueue| q.stats().snapshot().flushed_requests as usize;
                        let before: Vec<usize> = queues.iter().map(|q| flushed(q)).collect();
                        assert!(
                            staged.iter().all(|&s| s > 0),
                            "a tail staged on every shard"
                        );
                        let drained = engine.drain_submit_queue();
                        let per_shard: Vec<usize> = (0..3)
                            .map(|i| staged[i] - (flushed(&queues[i]) - before[i]))
                            .collect();
                        assert_eq!(per_shard.iter().sum::<usize>(), drained.cancelled);
                        cancelled = Some(per_shard);
                    }
                    while !ctx.has_result() && !ctx.take_retry() {
                        engine.flush_submissions();
                        engine.poll_all();
                        assert!(Instant::now() < deadline, "flush never completed");
                        std::thread::yield_now();
                    }
                }
            };
            (result, wire, cancelled)
        };
        tx.stage(&data(1));
        let (warm, wire, _) = flush(&mut tx, &mut c, &mut rng, false);
        assert_eq!(warm, Ok(RECORDS));
        let mut plain = Vec::new();
        rx.feed(&wire);
        assert_eq!(
            rx.open_into(&mut plain, &CryptoProvider::Software, &mut c),
            Ok(RECORDS)
        );
        let baseline = tx.pool_allocs();
        assert_eq!(baseline, RECORDS as u64);

        // Chunks 0, 1 and 2 (16 + 16 + 8) go to shards 0, 1 and 2: the
        // warm flush left the rotation where it starts.
        tx.stage(&data(2));
        let (failed, wire, cancelled) = flush(&mut tx, &mut c, &mut rng, true);
        assert_eq!(failed, Err(TlsError::Crypto(CryptoError::Cancelled)));
        let cancelled = cancelled.expect("drained mid-flush");
        let first_failure = [(0, 16), (16, 16), (32, 8)]
            .iter()
            .zip(&cancelled)
            .find(|(_, &lost)| lost > 0)
            .map(|(&(start, len), &lost)| start + len - lost)
            .expect("the drain cancelled a staged tail");
        let mut plain = Vec::new();
        rx.feed(&wire);
        assert_eq!(
            rx.open_into(&mut plain, &CryptoProvider::Software, &mut c),
            Ok(first_failure),
            "cancelled per shard {cancelled:?}"
        );
        assert!(plain == data(2)[..first_failure * sizes::MAX_FRAGMENT]);
        assert_eq!(engine.inflight().total(), 0);
        assert!((0..3).all(|i| engine.shard_inflight(i) == 0));
        // The pool: the next flush replaces the buffers the cancelled
        // requests took with them, the one after allocates nothing.
        let lost = cancelled.iter().sum::<usize>() as u64;
        for _ in 0..2 {
            tx.stage(&data(3));
            assert_eq!(flush(&mut tx, &mut c, &mut rng, false).0, Ok(RECORDS));
            assert_eq!(tx.pool_allocs(), baseline + lost);
        }
    }
}
