//! The TLS record layer: framing, sequence numbers, fragmentation at
//! 16 KB (§2.1), and AES-128-CBC + HMAC-SHA1 record protection routed
//! through the [`CryptoProvider`] (so record crypto is offloadable, as in
//! the paper's secure-data-transfer evaluation).
//!
//! Every protected record, of either layer here, is sealed by one sealer
//! and opened by one opener (`Direction::seal` and `Direction::open`).
//! A call to either is a *pass* of N records: it asks
//! [`CryptoProvider::offloads_cipher`] once, on the pass's bytes, and then
//! either runs the records in place on the CPU through
//! [`cbc_hmac::seal_batch`] / [`cbc_hmac::open_batch`] (16 at a time in
//! one multi-buffer pass where the CPU and the number of records allow,
//! DESIGN.md §20), or makes one
//! [`qtls_core::OffloadEngine::offload_chunks_async`] call with one
//! in-place descriptor per record. [`RecordLayer`], the handshake's
//! control plane, makes each record a pass of its own, except the run of
//! complete ApplicationData records at the front of a client's input,
//! which is one pass; [`RecordCodec`], the data plane, makes each flush
//! and each read one pass. The entry points that can reach the
//! accelerator are `async fn`s.
//!
//! Simplification vs RFC 5246: the MAC additional data covers
//! `seq || type || version` (the plaintext length is protected implicitly
//! by the MAC over the content plus the padding check).

use crate::error::TlsError;
use crate::keys::{DirectionSecrets, ExtractedSecrets};
use crate::provider::{CryptoProvider, OpCounters};
use crate::suite::sizes;
use qtls_core::run_sync;
use qtls_crypto::cbc_hmac::{self, OpenRecord, SealRecord, LANES};
use qtls_crypto::{CbcHmacSha1, EntropySource};
use qtls_qat::{CryptoOp, CryptoResult};
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

/// Record header: type (1) + version (2) + length (2).
const HEADER_LEN: usize = 5;

/// Most record buffers a pool keeps: a 1 MiB response's fragments (64
/// full ones and the one its header spills into).
const POOL_MAX: usize = (1 << 20) / sizes::MAX_FRAGMENT + 1;

/// Reusable record buffers: the fragments a codec stages, and the
/// buffers a pass's records travel in to the device and back.
struct Pool {
    free: Vec<Vec<u8>>,
    /// Most buffers kept: the most one pass has held at once, up to
    /// `POOL_MAX`.
    keep: usize,
    /// Buffers allocated since construction.
    allocs: u64,
}

impl Pool {
    fn new() -> Self {
        Pool {
            free: Vec::new(),
            keep: 1,
            allocs: 0,
        }
    }

    /// An empty buffer with room for `len` bytes plus a record's tag and
    /// padding, so a seal never regrows it. Sized to the record, not to
    /// a full fragment: a 16 KB block per connection for a 16-byte
    /// Finished made resumed handshakes measurably slower.
    fn get(&mut self, len: usize) -> Vec<u8> {
        let room = len + 64;
        match self.free.pop() {
            Some(mut buf) => {
                buf.reserve(room);
                buf
            }
            None => {
                self.allocs += 1;
                Vec::with_capacity(room)
            }
        }
    }

    fn put(&mut self, mut buf: Vec<u8>) {
        if self.free.len() < self.keep {
            buf.clear();
            self.free.push(buf);
        }
    }

    /// A pass is about to hold `buffers` buffers at once: keep that many
    /// for the next one.
    fn reserve(&mut self, buffers: usize) {
        self.keep = self.keep.max(buffers.min(POOL_MAX));
    }
}

/// One protected direction of a connection end: the raw keys (kept for
/// [`RecordLayer::extract_secrets`]), the cipher+hash context keyed from
/// them once, here, the next sequence number, and the buffers its passes
/// borrow. Its `seal` and `open` are the only code that protects a
/// record.
struct Direction {
    keys: DirectionKeys,
    cipher: Arc<CbcHmacSha1>,
    version: u16,
    seq: u64,
    /// Records per doorbell (one chunk of an offloaded pass).
    chunk: usize,
    pool: Pool,
}

impl Direction {
    fn new(keys: DirectionKeys, version: u16, seq: u64, chunk: usize) -> Self {
        let cipher = Arc::new(CbcHmacSha1::new(&keys.enc_key, &keys.mac_key));
        Direction {
            keys,
            cipher,
            version,
            seq,
            chunk: chunk.max(1),
            pool: Pool::new(),
        }
    }

    /// The next record's MAC additional data, `seq || type || version`;
    /// the sequence number moves on.
    fn next_aad(&mut self, typ: u8) -> [u8; 11] {
        let mut aad = [0u8; 11];
        aad[..8].copy_from_slice(&self.seq.to_be_bytes());
        aad[8] = typ;
        aad[9..].copy_from_slice(&self.version.to_be_bytes());
        self.seq += 1;
        aad
    }

    /// The sealer. Seals `records` — plaintext fragments of type `typ`,
    /// each at most 16 KB — as one pass and appends them to `out` as
    /// wire records, in order; every buffer goes back to the pool.
    /// Sequence numbers and explicit IVs (drawn from `rng`) go to the
    /// records in order. The provider decides once, on the pass's
    /// plaintext bytes, where the pass runs: on the device every record
    /// goes down as an in-place descriptor, `chunk` per doorbell, all
    /// published before the future pends — once; otherwise they are
    /// sealed in place on the CPU, [`LANES`] per [`cbc_hmac::seal_batch`].
    /// Every record is counted. A CPU seal cannot fail (its one error is
    /// a length the padding rules out); on a device failure the records
    /// before it are appended and the error is returned.
    async fn seal<R: EntropySource>(
        &mut self,
        typ: ContentType,
        records: &mut [Vec<u8>],
        out: &mut Vec<u8>,
        provider: &CryptoProvider,
        counters: &mut OpCounters,
        rng: &mut R,
    ) -> Result<(), TlsError> {
        let engine = provider.offloads_cipher(records.iter().map(Vec::len).sum());
        counters.cipher += records.len() as u32;
        self.pool.reserve(records.len());
        let Some(engine) = engine else {
            for run in records.chunks_mut(LANES) {
                let mut ivs = [[0u8; 16]; LANES];
                let mut aads = [[0u8; 11]; LANES];
                for (iv, aad) in ivs.iter_mut().zip(&mut aads).take(run.len()) {
                    *aad = self.next_aad(typ as u8);
                    rng.fill(iv);
                }
                let cipher = &self.cipher;
                cbc_hmac::seal_batch(run.iter_mut().zip(ivs.iter().zip(&aads)).map(
                    |(buf, (iv, aad))| SealRecord {
                        cipher,
                        iv,
                        aad,
                        buf,
                    },
                ))
                .map_err(TlsError::Crypto)?;
                for (buf, iv) in run.iter_mut().zip(&ivs) {
                    frame(out, typ, self.version, iv, buf);
                    self.pool.put(std::mem::take(buf));
                }
            }
            return Ok(());
        };
        let mut ivs = Vec::with_capacity(records.len());
        let ops = records
            .iter_mut()
            .map(|buf| {
                let aad = self.next_aad(typ as u8);
                let mut iv = [0u8; 16];
                rng.fill(&mut iv);
                ivs.push(iv);
                CryptoOp::CipherSealInPlace {
                    cipher: Arc::clone(&self.cipher),
                    iv,
                    buf: std::mem::take(buf),
                    aad,
                }
            })
            .collect();
        let results = engine.offload_chunks_async(ops, self.chunk).await;
        let version = self.version;
        self.take_results(results, |i, sealed| {
            frame(out, typ, version, &ivs[i], sealed)
        })
    }

    /// The opener. Opens the records back to back in `wire` — complete,
    /// and each at least an IV long, as the caller's framing checked — as
    /// one pass, and hands each verified content to `deliver` in record
    /// order. The provider decides once, on the pass's ciphertext bytes,
    /// where the pass runs: on the CPU the records are decrypted in place
    /// in `wire`, [`LANES`] per [`cbc_hmac::open_batch`]; on the device
    /// each ciphertext travels in a pooled buffer as an in-place
    /// descriptor, `chunk` per doorbell, under one pause.
    ///
    /// The checks and the error are [`CbcHmacSha1::open_in_place`]'s: at
    /// the first record that fails, the records before it have been
    /// delivered, none after it is, and the error is returned. Records
    /// are counted up to and including the one that failed.
    async fn open(
        &mut self,
        wire: &mut [u8],
        provider: &CryptoProvider,
        counters: &mut OpCounters,
        mut deliver: impl FnMut(&[u8]),
    ) -> Result<(), TlsError> {
        let bytes = split_records(wire).map(|(_, _, ct)| ct.len()).sum();
        let Some(engine) = provider.offloads_cipher(bytes) else {
            let mut rest = wire;
            loop {
                // The next run: up to LANES records, opened in place, then
                // walked again for their verdicts.
                let mut aads = [[0u8; 11]; LANES];
                let (mut n, mut run_bytes) = (0, 0);
                for (typ, _, ciphertext) in split_records(rest).take(LANES) {
                    aads[n] = self.next_aad(typ);
                    run_bytes += HEADER_LEN + 16 + ciphertext.len();
                    n += 1;
                }
                if n == 0 {
                    return Ok(());
                }
                let (run, tail) = std::mem::take(&mut rest).split_at_mut(run_bytes);
                let mut verdicts = [Ok(0); LANES];
                let cipher = &self.cipher;
                cbc_hmac::open_batch(
                    split_records(run)
                        .zip(&aads[..n])
                        .map(|((_, iv, buf), aad)| OpenRecord {
                            cipher,
                            iv,
                            aad,
                            buf,
                        }),
                    |j, verdict| verdicts[j] = verdict,
                );
                for ((_, _, buf), verdict) in split_records(run).zip(verdicts) {
                    counters.cipher += 1;
                    let content = verdict.map_err(TlsError::Crypto)?;
                    deliver(&buf[..content]);
                }
                if n < LANES {
                    return Ok(());
                }
                rest = tail;
            }
        };
        let mut ops = Vec::new();
        for (typ, iv, ciphertext) in split_records(wire) {
            let mut buf = self.pool.get(ciphertext.len());
            buf.extend_from_slice(ciphertext);
            ops.push(CryptoOp::CipherOpenInPlace {
                cipher: Arc::clone(&self.cipher),
                iv: *iv,
                buf,
                aad: self.next_aad(typ),
            });
        }
        self.pool.reserve(ops.len());
        let results = engine.offload_chunks_async(ops, self.chunk).await;
        let mut opened = 0;
        let result = self.take_results(results, |_, content| {
            opened += 1;
            deliver(content)
        });
        counters.cipher += opened + result.is_err() as u32;
        result
    }

    /// Hand each offloaded record's output to `emit` in record order up
    /// to the first failure, whose error is returned; every buffer that
    /// came back goes to the pool, emitted or not.
    fn take_results(
        &mut self,
        results: Vec<CryptoResult>,
        mut emit: impl FnMut(usize, &[u8]),
    ) -> Result<(), TlsError> {
        let mut failure = None;
        for (i, result) in results.into_iter().enumerate() {
            match result {
                Ok(output) => {
                    let buf = output.into_bytes();
                    if failure.is_none() {
                        emit(i, &buf);
                    }
                    self.pool.put(buf);
                }
                Err(e) => {
                    failure.get_or_insert(e);
                }
            }
        }
        failure.map_or(Ok(()), |e| Err(TlsError::Crypto(e)))
    }
}

/// Append one wire record: the header, then the explicit IV (empty for a
/// plaintext record), then the body.
fn frame(out: &mut Vec<u8>, typ: ContentType, version: u16, iv: &[u8], body: &[u8]) {
    out.reserve(HEADER_LEN + iv.len() + body.len());
    out.push(typ as u8);
    out.extend_from_slice(&version.to_be_bytes());
    out.extend_from_slice(&((iv.len() + body.len()) as u16).to_be_bytes());
    out.extend_from_slice(iv);
    out.extend_from_slice(body);
}

/// The complete records back to back in `wire`, each as its type byte,
/// explicit IV and ciphertext.
fn split_records(mut wire: &mut [u8]) -> impl Iterator<Item = (u8, &[u8; 16], &mut [u8])> {
    std::iter::from_fn(move || {
        let (hdr, rest) = std::mem::take(&mut wire).split_first_chunk_mut::<HEADER_LEN>()?;
        let len = u16::from_be_bytes([hdr[3], hdr[4]]) as usize;
        let (body, rest) = rest.split_at_mut_checked(len)?;
        wire = rest;
        let (iv, ciphertext) = body.split_first_chunk_mut::<16>()?;
        Some((hdr[0], &*iv, ciphertext))
    })
}

/// The run of complete, protected ApplicationData records of `version`
/// at the front of `buf`: what one open pass of application data takes.
/// Returns its bytes, its records and, when the scan stopped at a record
/// header that is not such a record, why.
fn app_data_run(buf: &[u8], version: u16) -> (usize, usize, Option<TlsError>) {
    let (mut bytes, mut records) = (0, 0);
    while let Some(hdr) = buf[bytes..].first_chunk::<HEADER_LEN>() {
        let len = u16::from_be_bytes([hdr[3], hdr[4]]) as usize;
        let refusal = if u16::from_be_bytes([hdr[1], hdr[2]]) != version {
            Some("record version mismatch")
        } else if hdr[0] != ContentType::ApplicationData as u8 {
            Some("non-application record on data plane")
        } else if len < 16 {
            Some("protected record too short")
        } else {
            None
        };
        if let Some(why) = refusal {
            return (bytes, records, Some(TlsError::Decode(why)));
        }
        if buf.len() - bytes < HEADER_LEN + len {
            break;
        }
        bytes += HEADER_LEN + len;
        records += 1;
    }
    (bytes, records, None)
}

/// The record layer of one connection end.
pub struct RecordLayer {
    version: u16,
    write: Option<Direction>,
    read: Option<Direction>,
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

    fn direction(&self, keys: DirectionKeys) -> Direction {
        Direction::new(keys, self.version, 0, RecordCodec::DEFAULT_BATCH)
    }

    /// Activate write protection (our ChangeCipherSpec point).
    pub fn set_write_keys(&mut self, keys: DirectionKeys) {
        self.write = Some(self.direction(keys));
    }

    /// Activate read protection (peer's ChangeCipherSpec point).
    pub fn set_read_keys(&mut self, keys: DirectionKeys) {
        self.read = Some(self.direction(keys));
    }

    /// Is write protection active?
    pub fn write_protected(&self) -> bool {
        self.write.is_some()
    }

    /// Is read protection active?
    pub fn read_protected(&self) -> bool {
        self.read.is_some()
    }

    fn check_attached(&self) -> Result<(), TlsError> {
        if self.detached {
            return Err(TlsError::InvalidState("record layer handed off to codec"));
        }
        Ok(())
    }

    /// Frame `data` as records of at most 16 KB each (§2.1: "the data
    /// object is fragmented into units of 16KB"; empty data is one empty
    /// record), protected once write keys are active, and append them to
    /// `out`. Each record is a pass of its own, so each is offloaded or
    /// not on its own bytes.
    pub async fn write_record_async<R: EntropySource>(
        &mut self,
        typ: ContentType,
        data: &[u8],
        out: &mut Vec<u8>,
        provider: &CryptoProvider,
        counters: &mut OpCounters,
        rng: &mut R,
    ) -> Result<(), TlsError> {
        self.check_attached()?;
        let mut rest = data;
        loop {
            let (fragment, tail) = rest.split_at(rest.len().min(sizes::MAX_FRAGMENT));
            match &mut self.write {
                None => frame(out, typ, self.version, &[], fragment),
                Some(write) => {
                    let mut buf = write.pool.get(fragment.len());
                    buf.extend_from_slice(fragment);
                    let record = std::slice::from_mut(&mut buf);
                    write
                        .seal(typ, record, out, provider, counters, rng)
                        .await?;
                }
            }
            rest = tail;
            if rest.is_empty() {
                return Ok(());
            }
        }
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

    /// Extract and (if protected) open the next complete record, as a
    /// pass of its own. Returns `None` when more bytes are needed.
    pub async fn next_record_async(
        &mut self,
        provider: &CryptoProvider,
        counters: &mut OpCounters,
    ) -> Result<Option<(ContentType, Vec<u8>)>, TlsError> {
        self.check_attached()?;
        let start = self.in_pos;
        let Some(hdr) = self.in_buf[start..].first_chunk::<HEADER_LEN>() else {
            return Ok(None);
        };
        let typ = ContentType::from_u8(hdr[0])?;
        if u16::from_be_bytes([hdr[1], hdr[2]]) != self.version {
            return Err(TlsError::Decode("record version mismatch"));
        }
        let end = start + HEADER_LEN + u16::from_be_bytes([hdr[3], hdr[4]]) as usize;
        if self.in_buf.len() < end {
            return Ok(None);
        }
        // The record is consumed whatever becomes of it below.
        self.in_pos = end;
        let Some(read) = &mut self.read else {
            return Ok(Some((typ, self.in_buf[start + HEADER_LEN..end].to_vec())));
        };
        if end - start < HEADER_LEN + 16 {
            return Err(TlsError::Decode("protected record too short"));
        }
        let mut payload = Vec::new();
        read.open(
            &mut self.in_buf[start..end],
            provider,
            counters,
            |content| payload = content.to_vec(),
        )
        .await?;
        Ok(Some((typ, payload)))
    }

    /// Open the run of complete, protected ApplicationData records at
    /// the front of the buffered input as one pass, and hand each
    /// verified content to `deliver` in record order. Returns how many
    /// records were delivered; 0 when the next record is anything else —
    /// not yet complete, another content type, or malformed — which
    /// [`Self::next_record_async`] then takes.
    ///
    /// On a failure the records before it have been delivered and the
    /// error is returned. A failed run is consumed whole — its records
    /// were decrypted in place and cannot be read again — and the
    /// connection is dead anyway.
    pub async fn open_app_records_async(
        &mut self,
        provider: &CryptoProvider,
        counters: &mut OpCounters,
        deliver: impl FnMut(&[u8]),
    ) -> Result<usize, TlsError> {
        self.check_attached()?;
        let Some(read) = &mut self.read else {
            return Ok(0);
        };
        let start = self.in_pos;
        let (bytes, records, _) = app_data_run(&self.in_buf[start..], self.version);
        if records == 0 {
            return Ok(0);
        }
        self.in_pos += bytes;
        read.open(
            &mut self.in_buf[start..start + bytes],
            provider,
            counters,
            deliver,
        )
        .await?;
        Ok(records)
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

/// The data-plane record codec: owns an established connection's record
/// protection after the handshake control plane exports its secrets
/// ([`RecordLayer::extract_secrets`]).
///
/// It is the sealer and the opener of the module docs plus staging and
/// the buffer pool. Unlike [`RecordLayer`] it never consults handshake
/// state, seals and opens **ApplicationData** only, and is built for bulk
/// throughput:
///
/// - writes are staged into pooled fragment buffers (tiny writes coalesce
///   into the tail fragment, so N small writes become one record, not N);
/// - each flush, and each open of the complete records read so far, is
///   one pass: offloaded or not as a whole, on its total bytes; an
///   offloaded pass is one scatter-gather offload of
///   [`CryptoOp::CipherSealInPlace`] / [`CryptoOp::CipherOpenInPlace`]
///   descriptors: chunks of `max_batch` records, each one ring publish +
///   one doorbell on the next shard, all published before the pass
///   pauses — once;
/// - the cipher transforms run **in place**: a seal in the pooled
///   fragment (the one memcpy splicing each sealed record into the
///   contiguous wire buffer is the only copy), a CPU open in the input
///   buffer itself. Buffers return to the pool, which keeps as many as
///   the largest pass used (up to a 1 MiB response's 65 fragments), so
///   the steady-state hot path performs no per-record allocation
///   ([`Self::pool_allocs`] stays flat — see the buffer-reuse tests).
///
/// The wire format is identical to [`RecordLayer`]'s, so a codec on one
/// end interoperates with an unmodified record layer on the other.
pub struct RecordCodec {
    write: Direction,
    read: Direction,
    /// Raw inbound bytes not yet opened.
    in_buf: Vec<u8>,
    /// Staged outbound plaintext fragments awaiting flush.
    staged: Vec<Vec<u8>>,
    bytes_sealed: u64,
    bytes_opened: u64,
}

impl RecordCodec {
    /// Default records per doorbell (`qat_record_batch_depth`).
    pub const DEFAULT_BATCH: usize = 16;

    /// Build a codec from extracted secrets plus any leftover raw bytes
    /// the handshake had buffered past `Finished`.
    pub fn new(secrets: ExtractedSecrets, leftover: Vec<u8>, max_batch: usize) -> Self {
        let direction =
            |s: DirectionSecrets| Direction::new(s.keys, secrets.version, s.seq, max_batch);
        RecordCodec {
            write: direction(secrets.write),
            read: direction(secrets.read),
            in_buf: leftover,
            staged: Vec::new(),
            bytes_sealed: 0,
            bytes_opened: 0,
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
            // A full fragment's room: later writes coalesce into it.
            let mut buf = self.write.pool.get(sizes::MAX_FRAGMENT);
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

    /// Seal every staged fragment as one pass, appending wire records to
    /// `out`. Returns the number of records sealed. On a failed seal,
    /// the records before it are appended and the error is returned.
    pub async fn flush_into_async<R: EntropySource>(
        &mut self,
        out: &mut Vec<u8>,
        provider: &CryptoProvider,
        counters: &mut OpCounters,
        rng: &mut R,
    ) -> Result<usize, TlsError> {
        let records = self.staged.len();
        self.bytes_sealed += self.staged_bytes() as u64;
        let sealed = self
            .write
            .seal(
                ContentType::ApplicationData,
                &mut self.staged,
                out,
                provider,
                counters,
                rng,
            )
            .await;
        self.staged.clear();
        sealed.map(|()| records)
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

    /// Open every complete buffered record as one pass, appending
    /// plaintext to `out` in record order. Returns the number of records
    /// opened; partial trailing bytes stay buffered. A record that is not
    /// protected ApplicationData of this connection's version is an
    /// error, returned after the records before it are delivered.
    pub async fn open_into_async(
        &mut self,
        out: &mut Vec<u8>,
        provider: &CryptoProvider,
        counters: &mut OpCounters,
    ) -> Result<usize, TlsError> {
        let (bytes, records, refusal) = app_data_run(&self.in_buf, self.read.version);
        let opened = self
            .read
            .open(&mut self.in_buf[..bytes], provider, counters, |content| {
                self.bytes_opened += content.len() as u64;
                out.extend_from_slice(content);
            })
            .await;
        self.in_buf.drain(..bytes);
        opened?;
        refusal.map_or(Ok(records), Err)
    }

    /// Buffers allocated by the pool since construction. Flat in steady
    /// state: the hot path reuses pooled buffers instead of allocating
    /// per record.
    pub fn pool_allocs(&self) -> u64 {
        self.write.pool.allocs + self.read.pool.allocs
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
    use qtls_crypto::{CryptoError, TestRng};
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

    /// [`RecordLayer::write_record_async`] run to completion: the wire
    /// records it appended.
    fn write(
        layer: &mut RecordLayer,
        typ: ContentType,
        data: &[u8],
        p: &CryptoProvider,
        c: &mut OpCounters,
        rng: &mut TestRng,
    ) -> Result<Vec<u8>, TlsError> {
        let mut out = Vec::new();
        run_sync(layer.write_record_async(typ, data, &mut out, p, c, rng)).map(|()| out)
    }

    /// [`RecordLayer::next_record_async`] run to completion.
    fn next(
        layer: &mut RecordLayer,
        p: &CryptoProvider,
        c: &mut OpCounters,
    ) -> Result<Option<(ContentType, Vec<u8>)>, TlsError> {
        run_sync(layer.next_record_async(p, c))
    }

    /// The ways into the opener: a client's loop (its run of application
    /// data as one pass, then the next record alone), a server's (one
    /// record per pass) and a codec's read (all of it as one pass).
    #[derive(Clone, Copy, Debug)]
    enum Reader {
        ClientLoop,
        PerRecord,
        Codec,
    }

    /// What `reader` under `p` makes of `wire`, sealed under `keys(7)`
    /// from sequence number 0: the application data delivered, then the
    /// error (or the type of the first record that is not application
    /// data), and the records counted.
    fn read_all(
        wire: &[u8],
        reader: Reader,
        p: &CryptoProvider,
    ) -> (Vec<u8>, Result<Option<ContentType>, TlsError>, u32) {
        let mut c = OpCounters::default();
        let mut delivered = Vec::new();
        if let Reader::Codec = reader {
            let (_, client) = secrets_pair(0x0303);
            let secrets = ExtractedSecrets {
                read: DirectionSecrets {
                    keys: keys(7),
                    seq: 0,
                },
                ..client
            };
            let mut rx = RecordCodec::new(secrets, wire.to_vec(), RecordCodec::DEFAULT_BATCH);
            let outcome = rx.open_into(&mut delivered, p, &mut c).map(|_| None);
            return (delivered, outcome, c.cipher);
        }
        let mut rx = RecordLayer::new(0x0303);
        rx.set_read_keys(keys(7));
        rx.feed(wire);
        let outcome = loop {
            if let Reader::ClientLoop = reader {
                let run = rx.open_app_records_async(p, &mut c, |content| {
                    delivered.extend_from_slice(content)
                });
                match run_sync(run) {
                    Ok(0) => {}
                    Ok(_) => continue,
                    Err(e) => break Err(e),
                }
            }
            match next(&mut rx, p, &mut c) {
                Ok(Some((ContentType::ApplicationData, pt))) => delivered.extend_from_slice(&pt),
                Ok(other) => break Ok(other.map(|(typ, _)| typ)),
                Err(e) => break Err(e),
            }
        };
        (delivered, outcome, c.cipher)
    }

    /// Every way into the opener, on the CPU and on the device, delivers
    /// the same thing: each record in order up to a tampered one, then
    /// `BadMac`, with the records up to and including the tampered one
    /// counted. A client's run of application data stops at a record of
    /// another type, which its loop then takes alone.
    #[test]
    fn the_opener_delivers_exactly_the_records_before_a_tampered_one() {
        let (mut tx, _, p, mut c, mut rng) = pipe();
        tx.set_write_keys(keys(7));
        let contents: Vec<Vec<u8>> = (0..35usize)
            .map(|i| vec![i as u8; [16 * 1024, 1, 700, 0, 5000][i % 5]])
            .collect();
        let mut records: Vec<Vec<u8>> = contents
            .iter()
            .map(|data| {
                write(
                    &mut tx,
                    ContentType::ApplicationData,
                    data,
                    &p,
                    &mut c,
                    &mut rng,
                )
            })
            .collect::<Result<_, _>>()
            .unwrap();
        let handshake = write(&mut tx, ContentType::Handshake, b"hs", &p, &mut c, &mut rng);
        let (device, _dev) = offloading(OffloadSelection::offload_everything());
        let readers = [Reader::ClientLoop, Reader::PerRecord, Reader::Codec];
        for (reader, p) in readers.iter().flat_map(|&r| [(r, &p), (r, &device)]) {
            let mut wire = records.concat();
            let (mut end, mut counted) = (None, 35);
            if !matches!(reader, Reader::Codec) {
                wire.extend_from_slice(handshake.as_ref().unwrap());
                (end, counted) = (Some(ContentType::Handshake), 36);
            }
            let clean = read_all(&wire, reader, p);
            assert_eq!((clean.1, clean.2), (Ok(end), counted), "{reader:?}");
            assert!(clean.0 == contents.concat(), "{reader:?}: content differs");
        }
        for bad in [0, 7, 15, 16, 17, 34] {
            // A byte of the last ciphertext block: the MAC or the pad.
            let last = records[bad].len() - 1;
            records[bad][last] ^= 0x40;
            let wire = records.concat();
            records[bad][last] ^= 0x40;
            for (reader, p) in readers.iter().flat_map(|&r| [(r, &p), (r, &device)]) {
                let (delivered, outcome, counted) = read_all(&wire, reader, p);
                let what = format!("{reader:?}, tampered record {bad}");
                assert!(delivered == contents[..bad].concat(), "{what}: content");
                assert_eq!(
                    outcome,
                    Err(TlsError::Crypto(CryptoError::BadMac)),
                    "{what}"
                );
                assert_eq!(counted, bad as u32 + 1, "{what}: counted");
            }
        }
    }

    #[test]
    fn plaintext_roundtrip() {
        let (mut tx, mut rx, p, mut c, mut rng) = pipe();
        let rec = write(
            &mut tx,
            ContentType::Handshake,
            b"hello",
            &p,
            &mut c,
            &mut rng,
        )
        .unwrap();
        rx.feed(&rec);
        let (typ, payload) = next(&mut rx, &p, &mut c).unwrap().unwrap();
        assert_eq!(typ, ContentType::Handshake);
        assert_eq!(payload, b"hello");
        assert_eq!(c.cipher, 0, "no crypto before keys");
    }

    #[test]
    fn encrypted_roundtrip() {
        let (mut tx, mut rx, p, mut c, mut rng) = pipe();
        tx.set_write_keys(keys(5));
        rx.set_read_keys(keys(5));
        let rec = write(
            &mut tx,
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
        let (typ, payload) = next(&mut rx, &p, &mut c).unwrap().unwrap();
        assert_eq!(typ, ContentType::ApplicationData);
        assert_eq!(payload, b"secret data");
        assert_eq!(c.cipher, 2);
    }

    #[test]
    fn sequence_numbers_prevent_replay() {
        let (mut tx, mut rx, p, mut c, mut rng) = pipe();
        tx.set_write_keys(keys(5));
        rx.set_read_keys(keys(5));
        let rec = write(
            &mut tx,
            ContentType::ApplicationData,
            b"msg",
            &p,
            &mut c,
            &mut rng,
        )
        .unwrap();
        rx.feed(&rec);
        next(&mut rx, &p, &mut c).unwrap().unwrap();
        // Replaying the identical record must fail the MAC (seq advanced).
        rx.feed(&rec);
        assert!(next(&mut rx, &p, &mut c).is_err());
    }

    #[test]
    fn partial_records_buffer() {
        let (mut tx, mut rx, p, mut c, mut rng) = pipe();
        let rec = write(
            &mut tx,
            ContentType::Handshake,
            b"abcdef",
            &p,
            &mut c,
            &mut rng,
        )
        .unwrap();
        for b in &rec[..rec.len() - 1] {
            rx.feed(&[*b]);
            // (may yield None repeatedly)
        }
        assert!(next(&mut rx, &p, &mut c).unwrap().is_none());
        rx.feed(&rec[rec.len() - 1..]);
        assert!(next(&mut rx, &p, &mut c).unwrap().is_some());
    }

    #[test]
    fn fragmentation_at_16kb() {
        let (mut tx, mut rx, p, mut c, mut rng) = pipe();
        tx.set_write_keys(keys(9));
        rx.set_read_keys(keys(9));
        let data = vec![0x5au8; 40 * 1024]; // 40 KB -> 3 records
        let stream = write(
            &mut tx,
            ContentType::ApplicationData,
            &data,
            &p,
            &mut c,
            &mut rng,
        )
        .unwrap();
        assert_eq!(c.cipher, 3, "40KB must become 3 cipher ops (16+16+8)");
        rx.feed(&stream);
        let mut got = Vec::new();
        while let Some((_, payload)) = next(&mut rx, &p, &mut c).unwrap() {
            got.extend_from_slice(&payload);
        }
        assert_eq!(got, data);
    }

    /// A handshake payload over 16 KB (a long certificate chain) is framed
    /// as two records, plaintext or protected, and the peer reads both.
    #[test]
    fn a_handshake_payload_over_16kb_is_two_records() {
        let payload: Vec<u8> = (0..20 * 1024).map(|i| i as u8).collect();
        for protected in [false, true] {
            let (mut tx, mut rx, p, mut c, mut rng) = pipe();
            if protected {
                tx.set_write_keys(keys(3));
                rx.set_read_keys(keys(3));
            }
            let wire = write(
                &mut tx,
                ContentType::Handshake,
                &payload,
                &p,
                &mut c,
                &mut rng,
            )
            .unwrap();
            rx.feed(&wire);
            let (head, tail) = payload.split_at(sizes::MAX_FRAGMENT);
            for fragment in [head, tail] {
                let record = next(&mut rx, &p, &mut c).unwrap();
                assert_eq!(record, Some((ContentType::Handshake, fragment.to_vec())));
            }
            assert_eq!(next(&mut rx, &p, &mut c), Ok(None));
            assert_eq!(c.cipher, 4 * protected as u32);
        }
    }

    /// A record pass reaches the device from `min_sym_bytes` up: a seal
    /// decides on its plaintext, an open on its ciphertext (content, tag
    /// and pad).
    #[test]
    fn a_record_reaches_the_device_from_min_sym_bytes_up() {
        let (p, dev) = offloading(OffloadSelection::default());
        let (mut tx, mut rx, _, mut c, mut rng) = pipe();
        tx.set_write_keys(keys(1));
        rx.set_read_keys(keys(1));
        // 2000 bytes + tag pad to 2032 (seal and open inline), 2047 to
        // 2080 (the open on the device), 2048 to 2080 (both on it).
        for (len, completed) in [(2000, 0), (2047, 1), (2048, 3)] {
            let data = vec![7; len];
            let wire = write(
                &mut tx,
                ContentType::ApplicationData,
                &data,
                &p,
                &mut c,
                &mut rng,
            )
            .unwrap();
            rx.feed(&wire);
            let record = next(&mut rx, &p, &mut c).unwrap();
            assert_eq!(record, Some((ContentType::ApplicationData, data)));
            assert_eq!(
                dev.fw_counters().total_completed(),
                completed,
                "{len}-byte record"
            );
        }
        assert_eq!(c.cipher, 6);
    }

    #[test]
    fn tampering_detected() {
        let (mut tx, mut rx, p, mut c, mut rng) = pipe();
        tx.set_write_keys(keys(5));
        rx.set_read_keys(keys(5));
        let mut rec = write(
            &mut tx,
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
        assert!(next(&mut rx, &p, &mut c).is_err());
    }

    #[test]
    fn wrong_keys_fail() {
        let (mut tx, mut rx, p, mut c, mut rng) = pipe();
        tx.set_write_keys(keys(5));
        rx.set_read_keys(keys(6));
        let rec = write(
            &mut tx,
            ContentType::ApplicationData,
            b"x",
            &p,
            &mut c,
            &mut rng,
        )
        .unwrap();
        rx.feed(&rec);
        assert!(next(&mut rx, &p, &mut c).is_err());
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
        let (typ, payload) = next(&mut peer, &p, &mut c).unwrap().unwrap();
        assert_eq!(typ, ContentType::ApplicationData);
        assert_eq!(payload, b"hello from the data plane");
        // Reverse direction: handshake-layer peer writes, codec opens.
        let rec = write(
            &mut peer,
            ContentType::ApplicationData,
            b"reply",
            &p,
            &mut c,
            &mut rng,
        )
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
        let r1 = write(
            &mut tx,
            ContentType::Handshake,
            b"fin",
            &p,
            &mut c,
            &mut rng,
        )
        .unwrap();
        // Early data arrives before handoff, in the same read as the
        // last handshake record; only part of it has landed.
        let early = write(
            &mut tx,
            ContentType::ApplicationData,
            b"early",
            &p,
            &mut c,
            &mut rng,
        )
        .unwrap();
        rx.feed(&[&r1[..], &early[..3]].concat());
        next(&mut rx, &p, &mut c).unwrap().unwrap();
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
        // each record in place in the input and takes no buffer at all.
        assert_eq!(tx.pool_allocs(), 2, "seal path allocated per record");
        assert_eq!(rx.pool_allocs(), 0, "open path took a buffer");
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
        // pauses once and rings one doorbell per chunk. A record layer
        // with the same keys, sequence numbers and IV stream writes the
        // same bytes on the CPU and on the device, one pass and one pause
        // per record; a record layer reading the codec's bytes as a client
        // does (one pass and one pause, on the device) and a codec reading
        // the layer's (one pass, on the CPU) get the data back. Every
        // pause count is exact: `drive_reversed` polls only once each
        // published request's response can be popped.
        let device = QatDevice::new(QatConfig {
            endpoints: 3,
            engines_per_endpoint: 1,
            ring_capacity: 64,
            ..QatConfig::functional_small()
        });
        let (p, engine) = sharded(&device);
        let (server, client) = secrets_pair(0x0303);
        let mut on_device =
            RecordCodec::new(server.clone(), Vec::new(), RecordCodec::DEFAULT_BATCH);
        let mut inline = RecordCodec::new(server, Vec::new(), RecordCodec::DEFAULT_BATCH);
        let mut codec_reader = RecordCodec::new(client, Vec::new(), RecordCodec::DEFAULT_BATCH);
        let layer = |keys: Option<DirectionKeys>| {
            let mut layer = RecordLayer::new(0x0303);
            match keys {
                Some(keys) => layer.set_write_keys(keys),
                None => layer.set_read_keys(self::keys(5)),
            }
            layer
        };
        let (mut layer_inline, mut layer_device) = (layer(Some(keys(5))), layer(Some(keys(5))));
        let mut layer_reader = layer(None);
        let mut rngs = [70; 4].map(TestRng::new);
        let mut c = OpCounters::default();
        let doorbells = || device.fw_counters().doorbells.load(Ordering::Relaxed);
        let completed = || device.fw_counters().total_completed();
        for records in 1..=70usize {
            let data = vec![records as u8; records * sizes::MAX_FRAGMENT - 7];
            let [rng_inline, rng_device, rng_layer_inline, rng_layer_device] = &mut rngs;
            let mut want = Vec::new();
            let software = CryptoProvider::Software;
            inline
                .seal_into(&data, &mut want, &software, &mut c, rng_inline)
                .unwrap();
            on_device.stage(&data);
            let before = doorbells();
            let mut wire = Vec::new();
            let (sealed, pauses) = drive_reversed(
                &engine,
                on_device.flush_into_async(&mut wire, &p, &mut c, rng_device),
            );
            assert_eq!(sealed, Ok(records));
            assert!(wire == want, "{records} records: wire bytes differ");
            assert_eq!(pauses, 1, "{records} records: one pause per flush");
            assert_eq!(doorbells() - before, records.div_ceil(16) as u64);

            let typ = ContentType::ApplicationData;
            let layer_wire = write(
                &mut layer_inline,
                typ,
                &data,
                &software,
                &mut c,
                rng_layer_inline,
            );
            assert!(
                layer_wire.unwrap() == want,
                "{records} records: layer's inline bytes"
            );
            let mut layer_wire = Vec::new();
            let before = completed();
            let (written, pauses) = drive_reversed(
                &engine,
                layer_device.write_record_async(
                    typ,
                    &data,
                    &mut layer_wire,
                    &p,
                    &mut c,
                    rng_layer_device,
                ),
            );
            assert_eq!(written, Ok(()));
            assert_eq!(
                completed() - before,
                records as u64,
                "one offload per record"
            );
            assert_eq!(pauses, records as u32, "one pause per record");
            assert!(
                layer_wire == want,
                "{records} records: layer's device bytes"
            );

            layer_reader.feed(&want);
            let mut opened = Vec::new();
            let before = completed();
            let (run, pauses) = drive_reversed(
                &engine,
                layer_reader.open_app_records_async(&p, &mut c, |content| {
                    opened.extend_from_slice(content)
                }),
            );
            assert_eq!(run, Ok(records));
            assert_eq!(completed() - before, records as u64, "one offload per pass");
            assert_eq!(pauses, 1, "{records} records: one pause per read");
            assert!(
                opened == data,
                "{records} records: the layer read the codec's"
            );
            codec_reader.feed(&layer_wire);
            opened.clear();
            let run = codec_reader.open_into(&mut opened, &software, &mut c);
            assert_eq!(run, Ok(records));
            assert!(
                opened == data,
                "{records} records: the codec read the layer's"
            );
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
