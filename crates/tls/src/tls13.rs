//! Simplified TLS 1.3 (RFC 8446) 1-RTT handshake — enough protocol to
//! reproduce the paper's Figure 8 finding: the ECDHE/RSA asymmetric ops
//! are still offloadable, but the new HKDF-based key schedule is not
//! ("HKDF ... cannot be offloaded through the QAT Engine currently"),
//! so TLS 1.3 sees a smaller speedup than TLS 1.2.
//!
//! Substitutions vs the RFC (documented in DESIGN.md): record protection
//! reuses the AES-128-CBC + HMAC-SHA1 construction instead of an AEAD
//! (the cost-equivalent symmetric work), and extensions are reduced to
//! the key-share.

use crate::error::TlsError;
use crate::messages::*;
use crate::provider::{CryptoProvider, OpCounters};
use crate::record::{ContentType, DirectionKeys, RecordLayer};
use crate::session::SessionEntry;
use crate::store::psk_store_key;
use crate::suite::{Auth, CipherSuite, Version};
use qtls_core::run_sync;
use qtls_crypto::ecc::{self, NamedCurve};
use qtls_crypto::hmac::Hmac;
use qtls_crypto::rsa::RsaPublicKey;
use qtls_crypto::sha256::Sha256;
use qtls_crypto::{Bn, EntropySource, TestRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// Context string for the server CertificateVerify (RFC 8446 §4.4.3).
const SERVER_CV_CONTEXT: &[u8] = b"TLS 1.3, server CertificateVerify";

/// Derive one direction's record keys from a traffic secret.
fn traffic_keys(
    provider: &CryptoProvider,
    counters: &mut OpCounters,
    secret: &[u8],
) -> DirectionKeys {
    let key = provider.hkdf_expand_label(counters, secret, b"key", &[], 16);
    let mac = provider.hkdf_expand_label(counters, secret, b"mac", &[], 20);
    DirectionKeys {
        enc_key: key.try_into().expect("16 bytes"),
        mac_key: mac,
    }
}

/// The TLS 1.3 key schedule up to the handshake-traffic stage.
struct Schedule {
    handshake_secret: Vec<u8>,
    client_hs_traffic: Vec<u8>,
    server_hs_traffic: Vec<u8>,
}

impl Schedule {
    /// Run Extract/Expand chain: early secret (seeded by the resumption
    /// PSK when one was negotiated) → handshake secret → handshake
    /// traffic secrets.
    fn handshake(
        provider: &CryptoProvider,
        counters: &mut OpCounters,
        shared_secret: &[u8],
        hello_hash: &[u8],
        psk: Option<&[u8]>,
    ) -> Self {
        let zeros = [0u8; 32];
        let empty_hash = Sha256::digest(b"");
        let early = provider.hkdf_extract(counters, &[], psk.unwrap_or(&zeros));
        let derived = provider.hkdf_expand_label(counters, &early, b"derived", &empty_hash, 32);
        let hs = provider.hkdf_extract(counters, &derived, shared_secret);
        let c_hs = provider.hkdf_expand_label(counters, &hs, b"c hs traffic", hello_hash, 32);
        let s_hs = provider.hkdf_expand_label(counters, &hs, b"s hs traffic", hello_hash, 32);
        Schedule {
            handshake_secret: hs,
            client_hs_traffic: c_hs,
            server_hs_traffic: s_hs,
        }
    }

    /// Master secret + application traffic secrets. The master secret
    /// is returned so callers can derive the resumption master
    /// (`"res master"`) for NewSessionTicket PSKs.
    fn application(
        &self,
        provider: &CryptoProvider,
        counters: &mut OpCounters,
        transcript_hash: &[u8],
    ) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let zeros = [0u8; 32];
        let empty_hash = Sha256::digest(b"");
        let derived = provider.hkdf_expand_label(
            counters,
            &self.handshake_secret,
            b"derived",
            &empty_hash,
            32,
        );
        let master = provider.hkdf_extract(counters, &derived, &zeros);
        let c_app =
            provider.hkdf_expand_label(counters, &master, b"c ap traffic", transcript_hash, 32);
        let s_app =
            provider.hkdf_expand_label(counters, &master, b"s ap traffic", transcript_hash, 32);
        (master, c_app, s_app)
    }
}

/// The binder key for a resumption PSK: `early = Extract([], psk)`,
/// then `Expand-Label(early, "res binder", Hash(""), 32)` (RFC 8446
/// §4.2.11.2, collapsed to one derivation step).
fn res_binder_key(provider: &CryptoProvider, counters: &mut OpCounters, psk: &[u8]) -> Vec<u8> {
    let empty_hash = Sha256::digest(b"");
    let early = provider.hkdf_extract(counters, &[], psk);
    provider.hkdf_expand_label(counters, &early, b"res binder", &empty_hash, 32)
}

/// PSK binder over a ClientHello encoding whose binder bytes are
/// zeroed: both sides HMAC the hash of that partial encoding.
fn psk_binder(
    provider: &CryptoProvider,
    counters: &mut OpCounters,
    psk: &[u8],
    zeroed_hello: &[u8],
) -> Vec<u8> {
    let key = res_binder_key(provider, counters, psk);
    Hmac::<Sha256>::mac(&key, &Sha256::digest(zeroed_hello))
}

/// Material a TLS 1.3 client exports after a handshake to resume later:
/// the NewSessionTicket identity plus the resumption PSK derived from
/// the session's master secret.
#[derive(Clone, Debug)]
pub struct Tls13ResumeData {
    /// Opaque ticket (the PSK identity offered in `pre_shared_key`).
    pub ticket: Vec<u8>,
    /// Resumption PSK (`"res master"` derivation, 32 bytes).
    pub secret: Vec<u8>,
    /// Suite of the original session.
    pub suite: CipherSuite,
}

/// Finished verify data: `HMAC(finished_key, transcript_hash)`.
fn finished_mac(
    provider: &CryptoProvider,
    counters: &mut OpCounters,
    traffic_secret: &[u8],
    transcript_hash: &[u8],
) -> Vec<u8> {
    let finished_key = provider.hkdf_expand_label(counters, traffic_secret, b"finished", &[], 32);
    Hmac::<Sha256>::mac(&finished_key, transcript_hash)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ServerState {
    ExpectClientHello,
    ExpectClientFinished,
    Connected,
}

/// A TLS 1.3 server session.
pub struct Tls13ServerSession {
    config: Arc<crate::server::ServerConfig>,
    provider: CryptoProvider,
    rng: TestRng,
    records: RecordLayer,
    transcript: Sha256,
    state: ServerState,
    /// Crypto operation counters.
    pub counters: OpCounters,
    suite: CipherSuite,
    curve: NamedCurve,
    schedule: Option<Schedule>,
    resumed: bool,
    resume_offered: bool,
    out: Vec<u8>,
    app_in: VecDeque<Vec<u8>>,
    hs_buf: Vec<u8>,
}

impl Tls13ServerSession {
    /// New TLS 1.3 server session.
    pub fn new(
        config: Arc<crate::server::ServerConfig>,
        provider: CryptoProvider,
        seed: u64,
    ) -> Self {
        Tls13ServerSession {
            config,
            provider,
            rng: TestRng::new(seed),
            records: RecordLayer::new(Version::Tls13.wire()),
            transcript: Sha256::new(),
            state: ServerState::ExpectClientHello,
            counters: OpCounters::default(),
            suite: CipherSuite::EcdheRsa,
            curve: NamedCurve::P256,
            schedule: None,
            resumed: false,
            resume_offered: false,
            out: Vec::new(),
            app_in: VecDeque::new(),
            hs_buf: Vec::new(),
        }
    }

    /// Feed raw network bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.records.feed(bytes);
    }

    /// Drain output.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    /// Established?
    pub fn is_established(&self) -> bool {
        self.state == ServerState::Connected
    }

    /// Did this session resume via a PSK (abbreviated handshake, no
    /// certificate or CertificateVerify)?
    pub fn was_resumed(&self) -> bool {
        self.resumed
    }

    /// Did the client offer a PSK that this server could not honour
    /// (a resume miss — it silently paid the full handshake)?
    pub fn resume_missed(&self) -> bool {
        self.resume_offered && !self.resumed
    }

    /// Received app data.
    pub fn read_app_data(&mut self) -> Option<Vec<u8>> {
        self.app_in.pop_front()
    }

    /// Synchronous facade over [`Self::write_app_data_async`].
    pub fn write_app_data(&mut self, data: &[u8]) -> Result<(), TlsError> {
        run_sync(self.write_app_data_async(data))
    }

    /// Send app data.
    pub async fn write_app_data_async(&mut self, data: &[u8]) -> Result<(), TlsError> {
        if !self.is_established() {
            return Err(TlsError::InvalidState("write before handshake done"));
        }
        let rec = self
            .records
            .write_fragmented_async(
                ContentType::ApplicationData,
                data,
                &self.provider,
                &mut self.counters,
                &mut self.rng,
            )
            .await?;
        self.out.extend_from_slice(&rec);
        Ok(())
    }

    /// Export the established record secrets plus leftover inbound bytes
    /// for a data-plane [`crate::record::RecordCodec`] (see
    /// [`crate::server::ServerSession::extract_secrets`]). The TLS 1.3
    /// application traffic keys are active at this point, so the codec
    /// continues the application-data sequence space.
    pub fn extract_secrets(
        &mut self,
    ) -> Result<(crate::keys::ExtractedSecrets, Vec<u8>), TlsError> {
        if !self.is_established() {
            return Err(TlsError::InvalidState("extract before established"));
        }
        self.records.extract_secrets()
    }

    /// Synchronous facade over [`Self::process_async`].
    pub fn process(&mut self) -> Result<(), TlsError> {
        run_sync(self.process_async())
    }

    /// Process buffered input.
    pub async fn process_async(&mut self) -> Result<(), TlsError> {
        loop {
            let Some((typ, payload)) = self
                .records
                .next_record_async(&self.provider, &mut self.counters)
                .await?
            else {
                return Ok(());
            };
            match typ {
                ContentType::Handshake => {
                    self.hs_buf.extend_from_slice(&payload);
                    while let Some((msg, used)) = HandshakeMsg::decode(&self.hs_buf)? {
                        let raw: Vec<u8> = self.hs_buf[..used].to_vec();
                        self.hs_buf.drain(..used);
                        self.handle(msg, &raw).await?;
                    }
                }
                ContentType::ApplicationData if self.is_established() => {
                    self.app_in.push_back(payload)
                }
                _ => return Err(TlsError::Decode("unexpected record")),
            }
        }
    }

    async fn send_handshake(&mut self, msg: &HandshakeMsg) -> Result<(), TlsError> {
        let raw = msg.encode();
        self.transcript.update(&raw);
        let rec = self
            .records
            .write_record_async(
                ContentType::Handshake,
                &raw,
                &self.provider,
                &mut self.counters,
                &mut self.rng,
            )
            .await?;
        self.out.extend_from_slice(&rec);
        Ok(())
    }

    fn transcript_hash(&self) -> Vec<u8> {
        self.transcript.clone().finalize_fixed().to_vec()
    }

    async fn handle(&mut self, msg: HandshakeMsg, raw: &[u8]) -> Result<(), TlsError> {
        match (self.state, msg) {
            (ServerState::ExpectClientHello, HandshakeMsg::ClientHello(ch)) => {
                self.transcript.update(raw);
                self.on_client_hello(ch, raw).await
            }
            (ServerState::ExpectClientFinished, HandshakeMsg::Finished(fin)) => {
                let th = self.transcript_hash();
                self.transcript.update(raw);
                self.on_client_finished(fin, th).await
            }
            (_, msg) => Err(TlsError::UnexpectedMessage {
                expected: "ClientHello/Finished",
                got: msg.name(),
            }),
        }
    }

    /// Resolve a PSK offer against the shared store / ticket-key ring
    /// and verify its binder over `raw` (the ClientHello bytes) with
    /// the trailing binder bytes zeroed. `None` = resume miss.
    fn resolve_psk(&mut self, offer: &PskOffer, raw: &[u8]) -> Option<Vec<u8>> {
        if offer.modes & PSK_DHE_KE == 0 {
            return None;
        }
        let blen = offer.binder.len();
        if blen != 32 || raw.len() < blen {
            return None;
        }
        // Shared-store lookup first (cheap digest key), then the ring
        // (any worker's ticket opens under the cluster keys).
        let entry = self
            .config
            .session_store
            .get(&psk_store_key(&offer.identity))
            .or_else(|| self.config.ticket_keys.open(&offer.identity))?;
        // A TLS 1.2 master (48 bytes) must never slip in as a 1.3 PSK.
        if entry.suite != self.suite || entry.master.len() != 32 {
            return None;
        }
        let mut zeroed = raw.to_vec();
        let n = zeroed.len();
        zeroed[n - blen..].fill(0);
        let expect = psk_binder(&self.provider, &mut self.counters, &entry.master, &zeroed);
        if !qtls_crypto::hmac::constant_time_eq(&expect, &offer.binder) {
            return None;
        }
        Some(entry.master)
    }

    async fn on_client_hello(&mut self, ch: ClientHello, raw: &[u8]) -> Result<(), TlsError> {
        if ch.version != Version::Tls13 {
            return Err(TlsError::HandshakeFailure("not TLS 1.3"));
        }
        let (curve_id, client_share) = ch
            .key_share
            .clone()
            .ok_or(TlsError::HandshakeFailure("missing key share"))?;
        let curve = NamedCurve::from_iana_id(curve_id)
            .ok_or(TlsError::HandshakeFailure("unknown group"))?;
        self.curve = curve;
        self.suite = self
            .config
            .suites
            .iter()
            .copied()
            .find(|s| {
                ch.suites.contains(&s.wire())
                    && s.key_exchange() == crate::suite::KeyExchange::Ecdhe
            })
            .ok_or(TlsError::HandshakeFailure("no common suite"))?;
        // PSK resolution (psk_dhe_ke: the ECDHE share stays mandatory,
        // so resumption keeps its forward secrecy and the offload
        // engine still sees the asym ops; what it skips is the
        // certificate flight below).
        self.resume_offered = ch.psk.is_some();
        let psk_secret = ch
            .psk
            .as_ref()
            .and_then(|offer| self.resolve_psk(offer, raw));
        self.resumed = psk_secret.is_some();
        // Server ECDHE share (offloadable asym ops).
        let seed = self.rng.next_u64();
        let (private, public) = self
            .provider
            .ec_keygen(&mut self.counters, curve, seed)
            .await?;
        let shared = self
            .provider
            .ecdh(&mut self.counters, curve, &private, &client_share)
            .await?;
        let mut random = [0u8; 32];
        self.rng.fill(&mut random);
        self.send_handshake(&HandshakeMsg::ServerHello(ServerHello {
            version: Version::Tls13,
            random,
            session_id: vec![],
            suite: self.suite,
            key_share: Some((curve_id, public)),
            selected_psk: if self.resumed { Some(0) } else { None },
        }))
        .await?;
        // Key schedule to handshake-traffic (CPU-only HKDF).
        let hello_hash = self.transcript_hash();
        let schedule = Schedule::handshake(
            &self.provider,
            &mut self.counters,
            &shared,
            &hello_hash,
            psk_secret.as_deref(),
        );
        // Switch the record layer to handshake keys.
        let server_keys = traffic_keys(
            &self.provider,
            &mut self.counters,
            &schedule.server_hs_traffic,
        );
        let client_keys = traffic_keys(
            &self.provider,
            &mut self.counters,
            &schedule.client_hs_traffic,
        );
        self.records.set_write_keys(server_keys);
        self.records.set_read_keys(client_keys);
        // Encrypted flight: EE, [Certificate, CertificateVerify],
        // Finished — the certificate pair is skipped when the PSK
        // authenticates the connection (the abbreviated op mix).
        self.send_handshake(&HandshakeMsg::EncryptedExtensions)
            .await?;
        if !self.resumed {
            let cert = match self.suite.auth() {
                Auth::Rsa => CertPayload::Rsa {
                    n: self.config.rsa_key.public().modulus().to_bytes_be(),
                    e: self.config.rsa_key.public().exponent().to_bytes_be(),
                },
                Auth::Ecdsa => {
                    let key = self
                        .config
                        .ecdsa_keys
                        .get(&curve)
                        .ok_or(TlsError::HandshakeFailure("no ECDSA key"))?;
                    CertPayload::Ecdsa {
                        curve: curve.iana_id(),
                        point: key.public_point.clone(),
                    }
                }
            };
            self.send_handshake(&HandshakeMsg::Certificate(cert))
                .await?;
            // CertificateVerify: signature over context || transcript hash.
            let mut content = SERVER_CV_CONTEXT.to_vec();
            content.extend_from_slice(&self.transcript_hash());
            let signature = match self.suite.auth() {
                Auth::Rsa => {
                    self.provider
                        .rsa_sign(&mut self.counters, &self.config.rsa_key, &content)
                        .await?
                }
                Auth::Ecdsa => {
                    let key = self.config.ecdsa_keys.get(&curve).expect("checked");
                    let nonce_seed = self.rng.next_u64();
                    self.provider
                        .ecdsa_sign(
                            &mut self.counters,
                            curve,
                            &key.private,
                            &content,
                            nonce_seed,
                        )
                        .await?
                }
            };
            self.send_handshake(&HandshakeMsg::CertificateVerify(CertificateVerify {
                signature,
            }))
            .await?;
        }
        // Server Finished.
        let th = self.transcript_hash();
        let verify = finished_mac(
            &self.provider,
            &mut self.counters,
            &schedule.server_hs_traffic,
            &th,
        );
        self.send_handshake(&HandshakeMsg::Finished(Finished {
            verify_data: verify,
        }))
        .await?;
        self.schedule = Some(schedule);
        self.state = ServerState::ExpectClientFinished;
        Ok(())
    }

    async fn on_client_finished(&mut self, fin: Finished, th: Vec<u8>) -> Result<(), TlsError> {
        let schedule = self.schedule.as_ref().expect("schedule exists");
        let expect = finished_mac(
            &self.provider,
            &mut self.counters,
            &schedule.client_hs_traffic,
            &th,
        );
        if !qtls_crypto::hmac::constant_time_eq(&expect, &fin.verify_data) {
            return Err(TlsError::BadFinished);
        }
        // Application keys (transcript through server Finished).
        let (master, c_app, s_app) = {
            let schedule = self.schedule.as_ref().unwrap();
            schedule.application(&self.provider, &mut self.counters, &th)
        };
        let server_keys = traffic_keys(&self.provider, &mut self.counters, &s_app);
        let client_keys = traffic_keys(&self.provider, &mut self.counters, &c_app);
        self.records.set_write_keys(server_keys);
        self.records.set_read_keys(client_keys);
        self.state = ServerState::Connected;
        // NewSessionTicket after Finished: derive the resumption
        // master over the transcript *including* the client Finished
        // (the transcript was updated before this handler ran), seal
        // it as a ticket under the cluster ring, and publish it in the
        // shared store so any worker resumes it without the ring.
        if self.config.issue_tickets {
            let th_full = self.transcript_hash();
            let res_master = self.provider.hkdf_expand_label(
                &mut self.counters,
                &master,
                b"res master",
                &th_full,
                32,
            );
            let entry = SessionEntry {
                master: res_master,
                suite: self.suite,
            };
            if let Some(ticket) = self.config.ticket_keys.seal(&entry, &mut self.rng) {
                self.config.session_store.put(psk_store_key(&ticket), entry);
                self.send_handshake(&HandshakeMsg::NewSessionTicket(NewSessionTicket { ticket }))
                    .await?;
            }
        }
        Ok(())
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ClientState {
    Start,
    ExpectServerHello,
    ExpectEncryptedExtensions,
    ExpectCertificate,
    ExpectCertificateVerify,
    ExpectFinished,
    Connected,
}

/// A TLS 1.3 client session.
pub struct Tls13ClientSession {
    provider: CryptoProvider,
    rng: TestRng,
    records: RecordLayer,
    transcript: Sha256,
    state: ClientState,
    /// Crypto operation counters.
    pub counters: OpCounters,
    suite: CipherSuite,
    curve: NamedCurve,
    ecdhe_private: Option<Bn>,
    schedule: Option<Schedule>,
    server_rsa: Option<RsaPublicKey>,
    server_ecdsa: Option<(NamedCurve, Vec<u8>)>,
    cv_transcript_hash: Vec<u8>,
    resume: Option<Tls13ResumeData>,
    resumed: bool,
    offered_psk: bool,
    new_ticket: Option<Vec<u8>>,
    res_master: Option<Vec<u8>>,
    out: Vec<u8>,
    app_in: VecDeque<Vec<u8>>,
    hs_buf: Vec<u8>,
}

impl Tls13ClientSession {
    /// New TLS 1.3 client on `curve` with `suite`.
    pub fn new(provider: CryptoProvider, suite: CipherSuite, curve: NamedCurve, seed: u64) -> Self {
        Self::new_resuming(provider, suite, curve, None, seed)
    }

    /// New TLS 1.3 client offering PSK resumption from a prior
    /// session's exported [`Tls13ResumeData`] (ignored if its suite
    /// differs from `suite`).
    pub fn new_resuming(
        provider: CryptoProvider,
        suite: CipherSuite,
        curve: NamedCurve,
        resume: Option<Tls13ResumeData>,
        seed: u64,
    ) -> Self {
        Tls13ClientSession {
            provider,
            rng: TestRng::new(seed),
            records: RecordLayer::new(Version::Tls13.wire()),
            transcript: Sha256::new(),
            state: ClientState::Start,
            counters: OpCounters::default(),
            suite,
            curve,
            ecdhe_private: None,
            schedule: None,
            server_rsa: None,
            server_ecdsa: None,
            cv_transcript_hash: Vec::new(),
            resume,
            resumed: false,
            offered_psk: false,
            new_ticket: None,
            res_master: None,
            out: Vec::new(),
            app_in: VecDeque::new(),
            hs_buf: Vec::new(),
        }
    }

    /// Synchronous facade over [`Self::start_async`].
    pub fn start(&mut self) -> Result<(), TlsError> {
        run_sync(self.start_async())
    }

    /// Send the ClientHello with a key share (and a `pre_shared_key`
    /// offer when resumption data is loaded).
    pub async fn start_async(&mut self) -> Result<(), TlsError> {
        assert_eq!(self.state, ClientState::Start);
        let seed = self.rng.next_u64();
        let (private, public) = self
            .provider
            .ec_keygen(&mut self.counters, self.curve, seed)
            .await?;
        self.ecdhe_private = Some(private);
        let mut random = [0u8; 32];
        self.rng.fill(&mut random);
        let psk = match &self.resume {
            Some(r) if r.suite == self.suite => Some(PskOffer {
                identity: r.ticket.clone(),
                modes: PSK_DHE_KE,
                // Placeholder; the real binder is computed below over
                // this zeroed encoding and patched in (same length, so
                // the wire size is unchanged).
                binder: vec![0u8; 32],
            }),
            _ => None,
        };
        let mut ch = ClientHello {
            version: Version::Tls13,
            random,
            session_id: vec![],
            suites: vec![self.suite.wire()],
            curves: vec![self.curve.iana_id()],
            ticket: None,
            key_share: Some((self.curve.iana_id(), public)),
            psk,
        };
        if ch.psk.is_some() {
            let zeroed = HandshakeMsg::ClientHello(ch.clone()).encode();
            let secret = self
                .resume
                .as_ref()
                .expect("psk offer implies resume data")
                .secret
                .clone();
            let binder = psk_binder(&self.provider, &mut self.counters, &secret, &zeroed);
            if let Some(offer) = ch.psk.as_mut() {
                offer.binder = binder;
            }
            self.offered_psk = true;
        }
        self.send_handshake(&HandshakeMsg::ClientHello(ch)).await?;
        self.state = ClientState::ExpectServerHello;
        Ok(())
    }

    /// Feed raw bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.records.feed(bytes);
    }

    /// Drain output.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    /// Established?
    pub fn is_established(&self) -> bool {
        self.state == ClientState::Connected
    }

    /// Did the server accept the PSK offer (abbreviated handshake)?
    pub fn was_resumed(&self) -> bool {
        self.resumed
    }

    /// Export material for resuming this session later: requires an
    /// established session that has received a NewSessionTicket.
    pub fn export_resume_data(&self) -> Option<Tls13ResumeData> {
        if !self.is_established() {
            return None;
        }
        Some(Tls13ResumeData {
            ticket: self.new_ticket.clone()?,
            secret: self.res_master.clone()?,
            suite: self.suite,
        })
    }

    /// Received app data.
    pub fn read_app_data(&mut self) -> Option<Vec<u8>> {
        self.app_in.pop_front()
    }

    /// Synchronous facade over [`Self::write_app_data_async`].
    pub fn write_app_data(&mut self, data: &[u8]) -> Result<(), TlsError> {
        run_sync(self.write_app_data_async(data))
    }

    /// Send app data.
    pub async fn write_app_data_async(&mut self, data: &[u8]) -> Result<(), TlsError> {
        if !self.is_established() {
            return Err(TlsError::InvalidState("write before handshake done"));
        }
        let rec = self
            .records
            .write_fragmented_async(
                ContentType::ApplicationData,
                data,
                &self.provider,
                &mut self.counters,
                &mut self.rng,
            )
            .await?;
        self.out.extend_from_slice(&rec);
        Ok(())
    }

    /// Export the established record secrets plus leftover inbound bytes
    /// for a data-plane [`crate::record::RecordCodec`]. Call after any
    /// expected NewSessionTicket has been processed — post-handoff
    /// handshake records are rejected by the codec.
    pub fn extract_secrets(
        &mut self,
    ) -> Result<(crate::keys::ExtractedSecrets, Vec<u8>), TlsError> {
        if !self.is_established() {
            return Err(TlsError::InvalidState("extract before established"));
        }
        self.records.extract_secrets()
    }

    /// Synchronous facade over [`Self::process_async`].
    pub fn process(&mut self) -> Result<(), TlsError> {
        run_sync(self.process_async())
    }

    /// Process buffered input.
    pub async fn process_async(&mut self) -> Result<(), TlsError> {
        loop {
            let Some((typ, payload)) = self
                .records
                .next_record_async(&self.provider, &mut self.counters)
                .await?
            else {
                return Ok(());
            };
            match typ {
                ContentType::Handshake => {
                    self.hs_buf.extend_from_slice(&payload);
                    while let Some((msg, used)) = HandshakeMsg::decode(&self.hs_buf)? {
                        let raw: Vec<u8> = self.hs_buf[..used].to_vec();
                        self.hs_buf.drain(..used);
                        self.handle(msg, &raw).await?;
                    }
                }
                ContentType::ApplicationData if self.is_established() => {
                    self.app_in.push_back(payload)
                }
                _ => return Err(TlsError::Decode("unexpected record")),
            }
        }
    }

    async fn send_handshake(&mut self, msg: &HandshakeMsg) -> Result<(), TlsError> {
        let raw = msg.encode();
        self.transcript.update(&raw);
        let rec = self
            .records
            .write_record_async(
                ContentType::Handshake,
                &raw,
                &self.provider,
                &mut self.counters,
                &mut self.rng,
            )
            .await?;
        self.out.extend_from_slice(&rec);
        Ok(())
    }

    fn transcript_hash(&self) -> Vec<u8> {
        self.transcript.clone().finalize_fixed().to_vec()
    }

    async fn handle(&mut self, msg: HandshakeMsg, raw: &[u8]) -> Result<(), TlsError> {
        match (self.state, msg) {
            (ClientState::ExpectServerHello, HandshakeMsg::ServerHello(sh)) => {
                self.transcript.update(raw);
                self.on_server_hello(sh).await
            }
            (ClientState::ExpectEncryptedExtensions, HandshakeMsg::EncryptedExtensions) => {
                self.transcript.update(raw);
                // Resumed handshakes skip the certificate flight: the
                // PSK authenticates the server, Finished comes next.
                self.state = if self.resumed {
                    ClientState::ExpectFinished
                } else {
                    ClientState::ExpectCertificate
                };
                Ok(())
            }
            (ClientState::Connected, HandshakeMsg::NewSessionTicket(t)) => {
                // Post-handshake NST: stored for export, excluded from
                // the (already-final) transcript.
                self.new_ticket = Some(t.ticket);
                Ok(())
            }
            (ClientState::ExpectCertificate, HandshakeMsg::Certificate(cert)) => {
                self.transcript.update(raw);
                match cert {
                    CertPayload::Rsa { n, e } => {
                        self.server_rsa = Some(RsaPublicKey::new(
                            Bn::from_bytes_be(&n),
                            Bn::from_bytes_be(&e),
                        ));
                    }
                    CertPayload::Ecdsa { curve, point } => {
                        let curve = NamedCurve::from_iana_id(curve)
                            .ok_or(TlsError::HandshakeFailure("unknown curve"))?;
                        self.server_ecdsa = Some((curve, point));
                    }
                }
                self.state = ClientState::ExpectCertificateVerify;
                Ok(())
            }
            (ClientState::ExpectCertificateVerify, HandshakeMsg::CertificateVerify(cv)) => {
                self.cv_transcript_hash = self.transcript_hash();
                self.transcript.update(raw);
                self.on_certificate_verify(cv)
            }
            (ClientState::ExpectFinished, HandshakeMsg::Finished(fin)) => {
                let th = self.transcript_hash();
                self.transcript.update(raw);
                self.on_server_finished(fin, th).await
            }
            (_, msg) => Err(TlsError::UnexpectedMessage {
                expected: "next TLS 1.3 flight message",
                got: msg.name(),
            }),
        }
    }

    async fn on_server_hello(&mut self, sh: ServerHello) -> Result<(), TlsError> {
        if sh.version != Version::Tls13 {
            return Err(TlsError::HandshakeFailure("not TLS 1.3"));
        }
        let (curve_id, server_share) = sh
            .key_share
            .ok_or(TlsError::HandshakeFailure("missing server key share"))?;
        if curve_id != self.curve.iana_id() {
            return Err(TlsError::HandshakeFailure("group mismatch"));
        }
        let private = self
            .ecdhe_private
            .take()
            .ok_or(TlsError::InvalidState("no key share sent"))?;
        let shared = self
            .provider
            .ecdh(&mut self.counters, self.curve, &private, &server_share)
            .await?;
        // PSK acceptance: the server echoes the offered identity index.
        self.resumed = self.offered_psk && sh.selected_psk == Some(0);
        let psk_secret = if self.resumed {
            Some(
                self.resume
                    .as_ref()
                    .expect("accepted psk implies resume data")
                    .secret
                    .clone(),
            )
        } else {
            None
        };
        let hello_hash = self.transcript_hash();
        let schedule = Schedule::handshake(
            &self.provider,
            &mut self.counters,
            &shared,
            &hello_hash,
            psk_secret.as_deref(),
        );
        let server_keys = traffic_keys(
            &self.provider,
            &mut self.counters,
            &schedule.server_hs_traffic,
        );
        let client_keys = traffic_keys(
            &self.provider,
            &mut self.counters,
            &schedule.client_hs_traffic,
        );
        self.records.set_read_keys(server_keys);
        self.records.set_write_keys(client_keys);
        self.schedule = Some(schedule);
        self.state = ClientState::ExpectEncryptedExtensions;
        Ok(())
    }

    fn on_certificate_verify(&mut self, cv: CertificateVerify) -> Result<(), TlsError> {
        let mut content = SERVER_CV_CONTEXT.to_vec();
        content.extend_from_slice(&self.cv_transcript_hash);
        if let Some(key) = &self.server_rsa {
            key.verify_pkcs1_sha256(&content, &cv.signature)
                .map_err(TlsError::Crypto)?;
        } else if let Some((curve, point)) = &self.server_ecdsa {
            let public = ecc::decode_point(*curve, point).map_err(TlsError::Crypto)?;
            let sig =
                ecc::EcdsaSignature::from_bytes(*curve, &cv.signature).map_err(TlsError::Crypto)?;
            ecc::ecdsa_verify(*curve, &public, &content, &sig).map_err(TlsError::Crypto)?;
        } else {
            return Err(TlsError::InvalidState("no server certificate"));
        }
        self.state = ClientState::ExpectFinished;
        Ok(())
    }

    async fn on_server_finished(&mut self, fin: Finished, th: Vec<u8>) -> Result<(), TlsError> {
        let schedule = self.schedule.take().expect("schedule");
        let expect = finished_mac(
            &self.provider,
            &mut self.counters,
            &schedule.server_hs_traffic,
            &th,
        );
        if !qtls_crypto::hmac::constant_time_eq(&expect, &fin.verify_data) {
            return Err(TlsError::BadFinished);
        }
        // Client Finished over the transcript incl. server Finished.
        let th_client = self.transcript_hash();
        let verify = finished_mac(
            &self.provider,
            &mut self.counters,
            &schedule.client_hs_traffic,
            &th_client,
        );
        self.send_handshake(&HandshakeMsg::Finished(Finished {
            verify_data: verify,
        }))
        .await?;
        // Application keys: both sides use the transcript hash THROUGH
        // the server Finished (= `th_client` here; the server computes it
        // as the hash before the client's Finished arrives).
        let (master, c_app, s_app) =
            schedule.application(&self.provider, &mut self.counters, &th_client);
        let server_keys = traffic_keys(&self.provider, &mut self.counters, &s_app);
        let client_keys = traffic_keys(&self.provider, &mut self.counters, &c_app);
        self.records.set_read_keys(server_keys);
        self.records.set_write_keys(client_keys);
        // Resumption master over the transcript including the client
        // Finished just sent — pairs with any NewSessionTicket the
        // server mints at the same point of its transcript.
        let th_full = self.transcript_hash();
        let res_master = self.provider.hkdf_expand_label(
            &mut self.counters,
            &master,
            b"res master",
            &th_full,
            32,
        );
        self.res_master = Some(res_master);
        self.state = ClientState::Connected;
        Ok(())
    }
}
