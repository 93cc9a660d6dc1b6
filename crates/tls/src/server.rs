//! The TLS 1.2 server session: full handshake (Fig. 1), abbreviated
//! handshake (session-ID and ticket resumption), and the connected
//! secure-data-transfer state.
//!
//! The session is written in the straight-line style of OpenSSL, as
//! `async fn`s: crypto calls go through the [`CryptoProvider`] and are
//! `.await`ed, so — under the async offload framework — the handshake
//! future is pending at each operation and the next poll continues it
//! when the QAT response has arrived. The compiler generates the state
//! machine; the handlers never spell it out. `process()` and
//! `write_app_data()` are the synchronous facades.

use crate::error::TlsError;
use crate::keys::{self, KeyBlock};
use crate::messages::*;
use crate::provider::{CryptoProvider, OpCounters};
use crate::record::{ContentType, RecordLayer};
use crate::session::SessionEntry;
use crate::store::{SharedSessionStore, TicketKeyRing};
use crate::suite::{sizes, Auth, CipherSuite, KeyExchange, Version};
use qtls_core::run_sync;
use qtls_crypto::bn::Bn;
use qtls_crypto::ecc::{self, NamedCurve};
use qtls_crypto::rsa::RsaPrivateKey;
use qtls_crypto::sha256::Sha256;
use qtls_crypto::test_keys;
use qtls_crypto::{EntropySource, TestRng};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// An ECDSA signing key for one curve.
#[derive(Clone)]
pub struct EcdsaKey {
    /// Private scalar.
    pub private: Arc<Bn>,
    /// Encoded public point (the "certificate" content).
    pub public_point: Vec<u8>,
}

/// Server-wide configuration shared by all sessions of a worker.
pub struct ServerConfig {
    /// RSA key (TLS-RSA key exchange and ECDHE-RSA signatures).
    pub rsa_key: Arc<RsaPrivateKey>,
    /// ECDSA keys per curve (ECDHE-ECDSA).
    pub ecdsa_keys: HashMap<NamedCurve, EcdsaKey>,
    /// Enabled suites, in preference order.
    pub suites: Vec<CipherSuite>,
    /// Enabled curves, in preference order.
    pub curves: Vec<NamedCurve>,
    /// Shared session/PSK store (session-ID and PSK resumption). In a
    /// cluster this is the *same* store on every worker.
    pub session_store: Arc<SharedSessionStore>,
    /// Rotating ticket protection key ring, likewise cluster-shared so
    /// any worker can open any worker's ticket.
    pub ticket_keys: Arc<TicketKeyRing>,
    /// Issue NewSessionTicket after full handshakes.
    pub issue_tickets: bool,
}

impl ServerConfig {
    /// Like [`Self::test_default`] but restricted to `suites`.
    pub fn test_with_suites(suites: Vec<CipherSuite>) -> Arc<Self> {
        let base = Self::test_default();
        let mut rng = TestRng::new(0x5eed_c0f2);
        Arc::new(ServerConfig {
            rsa_key: Arc::clone(&base.rsa_key),
            ecdsa_keys: base.ecdsa_keys.clone(),
            suites,
            curves: base.curves.clone(),
            session_store: Arc::new(SharedSessionStore::default()),
            ticket_keys: Arc::new(TicketKeyRing::new(&mut rng, std::time::Duration::ZERO)),
            issue_tickets: true,
        })
    }

    /// Re-home this config onto a cluster-shared resumption plane: the
    /// key material and policy are cloned, but the session store and
    /// ticket-key ring are the shared instances handed in (so every
    /// worker built this way resumes every other worker's sessions).
    pub fn with_resumption_plane(
        &self,
        store: Arc<SharedSessionStore>,
        ring: Arc<TicketKeyRing>,
    ) -> Arc<Self> {
        Arc::new(ServerConfig {
            rsa_key: Arc::clone(&self.rsa_key),
            ecdsa_keys: self.ecdsa_keys.clone(),
            suites: self.suites.clone(),
            curves: self.curves.clone(),
            session_store: store,
            ticket_keys: ring,
            issue_tickets: self.issue_tickets,
        })
    }

    /// A ready-to-use config with the deterministic test RSA-2048 key and
    /// ECDSA keys on every supported curve. The keys are built once per
    /// process; each call gets its own session store and ticket ring.
    pub fn test_default() -> Arc<Self> {
        let (ecdsa_keys, rng) = test_ecdsa_keys();
        let mut rng = rng.clone();
        Arc::new(ServerConfig {
            rsa_key: Arc::new(test_keys::test_rsa_2048().clone()),
            ecdsa_keys: ecdsa_keys.clone(),
            suites: CipherSuite::ALL.to_vec(),
            curves: NamedCurve::ALL.to_vec(),
            session_store: Arc::new(SharedSessionStore::default()),
            ticket_keys: Arc::new(TicketKeyRing::new(&mut rng, std::time::Duration::ZERO)),
            issue_tickets: true,
        })
    }
}

/// ECDSA keys on every supported curve, their scalars drawn in
/// [`NamedCurve::ALL`] order from [`test_keys::ECDSA_SEED`] and their
/// public points the pinned `d · G`, and the generator as the last draw
/// left it, so every [`ServerConfig::test_default`] continues from there.
/// Building them runs no scalar multiplication.
fn test_ecdsa_keys() -> &'static (HashMap<NamedCurve, EcdsaKey>, TestRng) {
    static KEYS: OnceLock<(HashMap<NamedCurve, EcdsaKey>, TestRng)> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut rng = TestRng::new(test_keys::ECDSA_SEED);
        let keys = NamedCurve::ALL
            .into_iter()
            .map(|curve| {
                let key = EcdsaKey {
                    private: Arc::new(ecc::random_scalar(curve, &mut rng)),
                    public_point: test_keys::test_ecdsa_public_point(curve),
                };
                (curve, key)
            })
            .collect();
        (keys, rng)
    })
}

/// Handshake progress states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    ExpectClientHello,
    ExpectClientKeyExchange,
    ExpectCcs,
    ExpectFinished,
    AbbrExpectCcs,
    AbbrExpectFinished,
    Connected,
}

/// The content of the ServerKeyExchange signature (RFC 4492 §5.4:
/// client_random || server_random || params).
fn skx_signed_content(
    client_random: &[u8; 32],
    server_random: &[u8; 32],
    curve: u16,
    public: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + 2 + public.len());
    out.extend_from_slice(client_random);
    out.extend_from_slice(server_random);
    out.extend_from_slice(&curve.to_be_bytes());
    out.extend_from_slice(public);
    out
}

/// A server-side TLS 1.2 session.
pub struct ServerSession {
    config: Arc<ServerConfig>,
    provider: CryptoProvider,
    rng: TestRng,
    records: RecordLayer,
    transcript: Sha256,
    state: State,
    /// Crypto operation counters (Table 1 verification).
    pub counters: OpCounters,
    suite: CipherSuite,
    curve: NamedCurve,
    client_random: [u8; 32],
    server_random: [u8; 32],
    session_id: Vec<u8>,
    master: Vec<u8>,
    key_block: Option<KeyBlock>,
    ecdhe_private: Option<Bn>,
    resumed: bool,
    resume_offered: bool,
    out: Vec<u8>,
    app_in: VecDeque<Vec<u8>>,
    hs_buf: Vec<u8>,
}

/// Result of processing buffered input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcessOutcome {
    /// Need more input bytes to make progress.
    NeedRead,
    /// The handshake just completed during this call.
    HandshakeFinished,
    /// Connection already established; any app data was queued.
    Established,
    /// Handshake still in progress (made progress, needs more).
    InProgress,
}

impl ServerSession {
    /// New session. `seed` makes all randomness deterministic (testing
    /// and simulation); every connection must use a distinct seed.
    pub fn new(config: Arc<ServerConfig>, provider: CryptoProvider, seed: u64) -> Self {
        ServerSession {
            config,
            provider,
            rng: TestRng::new(seed),
            records: RecordLayer::new(Version::Tls12.wire()),
            transcript: Sha256::new(),
            state: State::ExpectClientHello,
            counters: OpCounters::default(),
            suite: CipherSuite::TlsRsa,
            curve: NamedCurve::P256,
            client_random: [0; 32],
            server_random: [0; 32],
            session_id: Vec::new(),
            master: Vec::new(),
            key_block: None,
            ecdhe_private: None,
            resumed: false,
            resume_offered: false,
            out: Vec::new(),
            app_in: VecDeque::new(),
            hs_buf: Vec::new(),
        }
    }

    /// Feed raw bytes received from the network.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.records.feed(bytes);
    }

    /// Bytes to send to the peer (drains the output buffer).
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    /// Is there pending output?
    pub fn has_output(&self) -> bool {
        !self.out.is_empty()
    }

    /// Established (handshake complete)?
    pub fn is_established(&self) -> bool {
        self.state == State::Connected
    }

    /// Did this session resume (abbreviated handshake)?
    pub fn was_resumed(&self) -> bool {
        self.resumed
    }

    /// Did the client *offer* resumption state (session id or ticket)
    /// that this server could not honour — a resume miss? This is the
    /// silent-fallback pathology the shared store exists to eliminate:
    /// the client pays a full asym handshake it did not ask for.
    pub fn resume_missed(&self) -> bool {
        self.resume_offered && !self.resumed
    }

    /// The negotiated suite.
    pub fn negotiated_suite(&self) -> CipherSuite {
        self.suite
    }

    /// Received application data, in order.
    pub fn read_app_data(&mut self) -> Option<Vec<u8>> {
        self.app_in.pop_front()
    }

    /// Synchronous facade over [`Self::write_app_data_async`].
    pub fn write_app_data(&mut self, data: &[u8]) -> Result<(), TlsError> {
        run_sync(self.write_app_data_async(data))
    }

    /// Encrypt and queue application data (fragmenting at 16 KB).
    pub async fn write_app_data_async(&mut self, data: &[u8]) -> Result<(), TlsError> {
        if self.state != State::Connected {
            return Err(TlsError::InvalidState("write before handshake done"));
        }
        self.records
            .write_record_async(
                ContentType::ApplicationData,
                data,
                &mut self.out,
                &self.provider,
                &mut self.counters,
                &mut self.rng,
            )
            .await
    }

    /// Export the established record secrets (kTLS-style) plus any
    /// buffered-but-unparsed inbound bytes, handing record protection to
    /// a data-plane [`crate::record::RecordCodec`]. The handshake state
    /// machine keeps its role (counters, resumption metadata) but can no
    /// longer perform record I/O.
    pub fn extract_secrets(
        &mut self,
    ) -> Result<(crate::keys::ExtractedSecrets, Vec<u8>), TlsError> {
        if self.state != State::Connected {
            return Err(TlsError::InvalidState("extract before established"));
        }
        self.records.extract_secrets()
    }

    /// Synchronous facade over [`Self::process_async`].
    pub fn process(&mut self) -> Result<ProcessOutcome, TlsError> {
        run_sync(self.process_async())
    }

    /// Process everything currently buffered. Pending at each offloaded
    /// crypto operation under an async profile; the next poll resumes
    /// mid-handshake, exactly where the operation was issued.
    pub async fn process_async(&mut self) -> Result<ProcessOutcome, TlsError> {
        let was_established = self.is_established();
        let mut progressed = false;
        while let Some((typ, payload)) = self
            .records
            .next_record_async(&self.provider, &mut self.counters)
            .await?
        {
            progressed = true;
            match typ {
                ContentType::Handshake => {
                    self.hs_buf.extend_from_slice(&payload);
                    while let Some((msg, used)) = HandshakeMsg::decode(&self.hs_buf)? {
                        let raw: Vec<u8> = self.hs_buf[..used].to_vec();
                        self.hs_buf.drain(..used);
                        self.handle_handshake(msg, &raw).await?;
                    }
                }
                ContentType::ChangeCipherSpec => self.handle_ccs()?,
                ContentType::ApplicationData => {
                    if self.state != State::Connected {
                        return Err(TlsError::UnexpectedMessage {
                            expected: "handshake",
                            got: "application data",
                        });
                    }
                    self.app_in.push_back(payload);
                }
                ContentType::Alert => {
                    return Err(TlsError::Decode("peer alert"));
                }
            }
        }
        Ok(if self.is_established() {
            if was_established {
                ProcessOutcome::Established
            } else {
                ProcessOutcome::HandshakeFinished
            }
        } else if progressed {
            ProcessOutcome::InProgress
        } else {
            ProcessOutcome::NeedRead
        })
    }

    async fn send_handshake(&mut self, msg: &HandshakeMsg) -> Result<(), TlsError> {
        let raw = msg.encode();
        self.transcript.update(&raw);
        self.records
            .write_record_async(
                ContentType::Handshake,
                &raw,
                &mut self.out,
                &self.provider,
                &mut self.counters,
                &mut self.rng,
            )
            .await
    }

    async fn send_ccs(&mut self) -> Result<(), TlsError> {
        self.records
            .write_record_async(
                ContentType::ChangeCipherSpec,
                &[1],
                &mut self.out,
                &self.provider,
                &mut self.counters,
                &mut self.rng,
            )
            .await
    }

    fn transcript_hash(&self) -> Vec<u8> {
        self.transcript.clone().finalize_fixed().to_vec()
    }

    async fn handle_handshake(&mut self, msg: HandshakeMsg, raw: &[u8]) -> Result<(), TlsError> {
        match (self.state, msg) {
            (State::ExpectClientHello, HandshakeMsg::ClientHello(ch)) => {
                self.transcript.update(raw);
                self.on_client_hello(ch).await
            }
            (State::ExpectClientKeyExchange, HandshakeMsg::ClientKeyExchange(ckx)) => {
                self.transcript.update(raw);
                self.on_client_key_exchange(ckx).await
            }
            (State::ExpectFinished, HandshakeMsg::Finished(fin)) => {
                // Verify over the transcript EXCLUDING this message.
                let th = self.transcript_hash();
                self.transcript.update(raw);
                self.on_client_finished_full(fin, th).await
            }
            (State::AbbrExpectFinished, HandshakeMsg::Finished(fin)) => {
                let th = self.transcript_hash();
                self.transcript.update(raw);
                self.on_client_finished_abbr(fin, th).await
            }
            (state, msg) => Err(TlsError::UnexpectedMessage {
                expected: match state {
                    State::ExpectClientHello => "ClientHello",
                    State::ExpectClientKeyExchange => "ClientKeyExchange",
                    State::ExpectFinished | State::AbbrExpectFinished => "Finished",
                    State::ExpectCcs | State::AbbrExpectCcs => "ChangeCipherSpec",
                    State::Connected => "application data",
                },
                got: msg.name(),
            }),
        }
    }

    fn handle_ccs(&mut self) -> Result<(), TlsError> {
        match self.state {
            State::ExpectCcs => {
                let kb = self
                    .key_block
                    .as_ref()
                    .ok_or(TlsError::InvalidState("client CCS before the key block"))?;
                self.records.set_read_keys(kb.client.clone());
                self.state = State::ExpectFinished;
                Ok(())
            }
            State::AbbrExpectCcs => {
                let kb = self
                    .key_block
                    .as_ref()
                    .ok_or(TlsError::InvalidState("client CCS before the key block"))?;
                self.records.set_read_keys(kb.client.clone());
                self.state = State::AbbrExpectFinished;
                Ok(())
            }
            _ => Err(TlsError::UnexpectedMessage {
                expected: "handshake message",
                got: "ChangeCipherSpec",
            }),
        }
    }

    async fn on_client_hello(&mut self, ch: ClientHello) -> Result<(), TlsError> {
        if ch.version != Version::Tls12 {
            return Err(TlsError::HandshakeFailure("server is TLS 1.2"));
        }
        self.client_random = ch.random;
        self.rng.fill(&mut self.server_random);
        // Suite selection: server preference order.
        let suite = self
            .config
            .suites
            .iter()
            .copied()
            .find(|s| ch.suites.contains(&s.wire()))
            .ok_or(TlsError::HandshakeFailure("no common cipher suite"))?;
        self.suite = suite;
        if suite.key_exchange() == KeyExchange::Ecdhe {
            let curve = self
                .config
                .curves
                .iter()
                .copied()
                .find(|c| ch.curves.contains(&c.iana_id()))
                .ok_or(TlsError::HandshakeFailure("no common curve"))?;
            self.curve = curve;
        }
        // Resumption lookup: session ID first, then ticket.
        self.resume_offered = !ch.session_id.is_empty() || ch.ticket.is_some();
        let resumable = if !ch.session_id.is_empty() {
            self.config
                .session_store
                .get(&ch.session_id)
                .filter(|e| e.suite == suite)
                .map(|e| (ch.session_id.clone(), e))
        } else {
            None
        }
        .or_else(|| {
            ch.ticket.as_ref().and_then(|t| {
                self.config
                    .ticket_keys
                    .open(t)
                    .filter(|e| e.suite == suite)
                    .map(|e| (ch.session_id.clone(), e))
            })
        });

        match resumable {
            Some((sid, entry)) => self.start_abbreviated(sid, entry).await,
            None => self.start_full().await,
        }
    }

    /// Abbreviated handshake: SH, CCS, Finished (PRF only — §2.1).
    async fn start_abbreviated(
        &mut self,
        session_id: Vec<u8>,
        entry: SessionEntry,
    ) -> Result<(), TlsError> {
        self.resumed = true;
        self.session_id = session_id;
        self.master = entry.master;
        self.send_handshake(&HandshakeMsg::ServerHello(ServerHello {
            version: Version::Tls12,
            random: self.server_random,
            session_id: self.session_id.clone(),
            suite: self.suite,
            key_share: None,
            selected_psk: None,
        }))
        .await?;
        let kb = keys::derive_key_block(
            &self.provider,
            &mut self.counters,
            &self.master,
            &self.client_random,
            &self.server_random,
        )
        .await?;
        // Server sends its Finished first in the abbreviated flow.
        let th = self.transcript_hash();
        let verify = keys::finished_verify_data(
            &self.provider,
            &mut self.counters,
            &self.master,
            keys::SERVER_FINISHED,
            &th,
        )
        .await?;
        self.send_ccs().await?;
        self.records.set_write_keys(kb.server.clone());
        self.key_block = Some(kb);
        self.send_handshake(&HandshakeMsg::Finished(Finished {
            verify_data: verify,
        }))
        .await?;
        self.state = State::AbbrExpectCcs;
        Ok(())
    }

    /// Full handshake: SH, Certificate, [SKX], SHD.
    async fn start_full(&mut self) -> Result<(), TlsError> {
        self.resumed = false;
        let mut sid = vec![0u8; 32];
        self.rng.fill(&mut sid);
        self.session_id = sid;
        self.send_handshake(&HandshakeMsg::ServerHello(ServerHello {
            version: Version::Tls12,
            random: self.server_random,
            session_id: self.session_id.clone(),
            suite: self.suite,
            key_share: None,
            selected_psk: None,
        }))
        .await?;
        // Certificate: the bare public key of the authentication alg.
        let cert = match self.suite.auth() {
            Auth::Rsa => CertPayload::Rsa {
                n: self.config.rsa_key.public().modulus().to_bytes_be(),
                e: self.config.rsa_key.public().exponent().to_bytes_be(),
            },
            Auth::Ecdsa => {
                let key = self
                    .config
                    .ecdsa_keys
                    .get(&self.curve)
                    .ok_or(TlsError::HandshakeFailure("no ECDSA key for curve"))?;
                CertPayload::Ecdsa {
                    curve: self.curve.iana_id(),
                    point: key.public_point.clone(),
                }
            }
        };
        self.send_handshake(&HandshakeMsg::Certificate(cert))
            .await?;
        // ServerKeyExchange for ECDHE: ephemeral keygen + signature.
        if self.suite.key_exchange() == KeyExchange::Ecdhe {
            let seed = self.rng.next_u64();
            let (private, public) = self
                .provider
                .ec_keygen(&mut self.counters, self.curve, seed)
                .await?;
            self.ecdhe_private = Some(private);
            let content = skx_signed_content(
                &self.client_random,
                &self.server_random,
                self.curve.iana_id(),
                &public,
            );
            let signature = match self.suite.auth() {
                Auth::Rsa => {
                    self.provider
                        .rsa_sign(&mut self.counters, &self.config.rsa_key, &content)
                        .await?
                }
                Auth::Ecdsa => {
                    let key = self
                        .config
                        .ecdsa_keys
                        .get(&self.curve)
                        .ok_or(TlsError::InvalidState("no ECDSA key for the curve"))?;
                    let nonce_seed = self.rng.next_u64();
                    self.provider
                        .ecdsa_sign(
                            &mut self.counters,
                            self.curve,
                            &key.private,
                            &content,
                            nonce_seed,
                        )
                        .await?
                }
            };
            self.send_handshake(&HandshakeMsg::ServerKeyExchange(ServerKeyExchange {
                curve: self.curve.iana_id(),
                public,
                signature,
            }))
            .await?;
        }
        self.send_handshake(&HandshakeMsg::ServerHelloDone).await?;
        self.state = State::ExpectClientKeyExchange;
        Ok(())
    }

    async fn on_client_key_exchange(&mut self, ckx: ClientKeyExchange) -> Result<(), TlsError> {
        let premaster = match self.suite.key_exchange() {
            KeyExchange::Rsa => {
                // The asymmetric-key calculation of Fig. 1 (RSA private op).
                let pm = self
                    .provider
                    .rsa_decrypt(&mut self.counters, &self.config.rsa_key, &ckx.payload)
                    .await?;
                if pm.len() != sizes::PREMASTER_LEN {
                    return Err(TlsError::HandshakeFailure("bad premaster length"));
                }
                pm
            }
            KeyExchange::Ecdhe => {
                let private = self
                    .ecdhe_private
                    .take()
                    .ok_or(TlsError::InvalidState("no ephemeral key"))?;
                self.provider
                    .ecdh(&mut self.counters, self.curve, &private, &ckx.payload)
                    .await?
            }
        };
        self.master = keys::derive_master_secret(
            &self.provider,
            &mut self.counters,
            &premaster,
            &self.client_random,
            &self.server_random,
        )
        .await?;
        let kb = keys::derive_key_block(
            &self.provider,
            &mut self.counters,
            &self.master,
            &self.client_random,
            &self.server_random,
        )
        .await?;
        self.key_block = Some(kb);
        self.state = State::ExpectCcs;
        Ok(())
    }

    /// Full handshake: verify client Finished, then NST + CCS + Finished.
    async fn on_client_finished_full(
        &mut self,
        fin: Finished,
        th: Vec<u8>,
    ) -> Result<(), TlsError> {
        let expect = keys::finished_verify_data(
            &self.provider,
            &mut self.counters,
            &self.master,
            keys::CLIENT_FINISHED,
            &th,
        )
        .await?;
        if !qtls_crypto::hmac::constant_time_eq(&expect, &fin.verify_data) {
            return Err(TlsError::BadFinished);
        }
        // Issue a ticket (RFC 5077 flow) before CCS. Seal returns None
        // only for oversized masters, which a 48-byte TLS 1.2 master
        // can never be; skipping the NST is the safe degradation.
        if self.config.issue_tickets {
            let entry = SessionEntry {
                master: self.master.clone(),
                suite: self.suite,
            };
            if let Some(ticket) = self.config.ticket_keys.seal(&entry, &mut self.rng) {
                self.send_handshake(&HandshakeMsg::NewSessionTicket(NewSessionTicket { ticket }))
                    .await?;
            }
        }
        // Cache for session-ID resumption.
        self.config.session_store.put(
            self.session_id.clone(),
            SessionEntry {
                master: self.master.clone(),
                suite: self.suite,
            },
        );
        let th = self.transcript_hash();
        let verify = keys::finished_verify_data(
            &self.provider,
            &mut self.counters,
            &self.master,
            keys::SERVER_FINISHED,
            &th,
        )
        .await?;
        self.send_ccs().await?;
        let kb = self.key_block.as_ref().ok_or(TlsError::InvalidState(
            "server Finished before the key block",
        ))?;
        self.records.set_write_keys(kb.server.clone());
        self.send_handshake(&HandshakeMsg::Finished(Finished {
            verify_data: verify,
        }))
        .await?;
        self.state = State::Connected;
        Ok(())
    }

    /// Abbreviated handshake: verify client Finished; done.
    async fn on_client_finished_abbr(
        &mut self,
        fin: Finished,
        th: Vec<u8>,
    ) -> Result<(), TlsError> {
        let expect = keys::finished_verify_data(
            &self.provider,
            &mut self.counters,
            &self.master,
            keys::CLIENT_FINISHED,
            &th,
        )
        .await?;
        if !qtls_crypto::hmac::constant_time_eq(&expect, &fin.verify_data) {
            return Err(TlsError::BadFinished);
        }
        self.state = State::Connected;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The process-wide keys are what `generate_keypair` draws from the
    /// seed, pinned points included, so caching them and pinning the
    /// points changed no key byte, and the generator `test_default` hands
    /// to its ticket ring continues where the draw left off.
    #[test]
    fn cached_ecdsa_keys_equal_a_fresh_draw_from_the_seed() {
        let (cached, cached_rng) = test_ecdsa_keys();
        let mut rng = TestRng::new(test_keys::ECDSA_SEED);
        for curve in NamedCurve::ALL {
            let kp = ecc::generate_keypair(curve, &mut rng);
            let key = &cached[&curve];
            assert_eq!(*key.private, kp.private, "{curve:?} private scalar");
            assert_eq!(
                key.public_point,
                ecc::encode_point(curve, &kp.public),
                "{curve:?} public point"
            );
        }
        let (mut fresh, mut continued) = ([0u8; 32], [0u8; 32]);
        rng.fill(&mut fresh);
        cached_rng.clone().fill(&mut continued);
        assert_eq!(
            fresh, continued,
            "the ticket ring draws what it drew before"
        );
    }

    /// `test_default`'s six private scalars and its ticket ring hash to
    /// what they hashed to when every public point was still computed at
    /// boot: the ring is read through a ticket sealed under a fixed IV
    /// stream and a retry token for a fixed address and time.
    #[test]
    fn test_default_keys_match_their_pinned_digests() {
        let hex = |digest: [u8; 32]| digest.map(|b| format!("{b:02x}")).concat();
        let config = ServerConfig::test_default();
        let mut scalars = Sha256::new();
        for curve in NamedCurve::ALL {
            let private = &config.ecdsa_keys[&curve].private;
            scalars.update(&private.to_bytes_be_padded(curve.byte_len() + 1));
        }
        assert_eq!(
            hex(scalars.finalize_fixed()),
            "1047b5e2a53ce984cf74ee56f9ee7aedf925e33d433a74cf2f1db21f0de93350"
        );
        let entry = SessionEntry {
            master: vec![7; 48],
            suite: CipherSuite::EcdheRsa,
        };
        let mut ring = Sha256::new();
        let ticket = config.ticket_keys.seal(&entry, &mut TestRng::new(1));
        ring.update(&ticket.expect("a 48-byte master seals"));
        ring.update(&config.ticket_keys.mint_retry_token(7, 1000));
        assert_eq!(
            hex(ring.finalize_fixed()),
            "89c64bf3143e0054ff7271a92933b42f583a76084ed4b36a0dbf5a44dc9bd757"
        );
    }
}
