//! The TLS 1.2 client session — the load-generator side (`s_time` /
//! ApacheBench in the paper's testbed). Verifies the server's signature
//! and Finished, supports session-ID and ticket resumption.

use crate::error::TlsError;
use crate::keys::{self, KeyBlock};
use crate::messages::*;
use crate::provider::{CryptoProvider, OpCounters};
use crate::record::{ContentType, RecordLayer};
use crate::suite::{sizes, Auth, CipherSuite, KeyExchange, Version};
use qtls_core::run_sync;
use qtls_crypto::bn::Bn;
use qtls_crypto::ecc::{self, NamedCurve};
use qtls_crypto::rsa::RsaPublicKey;
use qtls_crypto::sha256::Sha256;
use qtls_crypto::{EntropySource, TestRng};
use std::collections::VecDeque;

/// Resumption material exported after a successful handshake.
#[derive(Clone, Debug)]
pub struct ResumeData {
    /// Session id assigned by the server.
    pub session_id: Vec<u8>,
    /// Ticket (if the server issued one).
    pub ticket: Option<Vec<u8>>,
    /// Master secret.
    pub master: Vec<u8>,
    /// Suite of the original session.
    pub suite: CipherSuite,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Start,
    ExpectServerHello,
    /// Full handshake: waiting for Certificate.
    ExpectCertificate,
    /// Full: waiting for ServerKeyExchange (ECDHE) or ServerHelloDone.
    ExpectSkxOrDone,
    /// Full: waiting for ServerHelloDone after SKX.
    ExpectDone,
    /// Full: waiting for NewSessionTicket or server CCS.
    ExpectNstOrCcs,
    /// Waiting for server Finished (after its CCS).
    ExpectFinished,
    /// Abbreviated: waiting for server CCS (resumption accepted) — or
    /// Certificate (server declined; falls back to full).
    ExpectCcsOrCertificate,
    /// Abbreviated: after server Finished we send CCS + Finished.
    Connected,
}

/// A client-side TLS 1.2 session.
pub struct ClientSession {
    provider: CryptoProvider,
    rng: TestRng,
    records: RecordLayer,
    transcript: Sha256,
    state: State,
    /// Crypto operation counters.
    pub counters: OpCounters,
    offered_suite: CipherSuite,
    curve: NamedCurve,
    client_random: [u8; 32],
    server_random: [u8; 32],
    session_id: Vec<u8>,
    master: Vec<u8>,
    key_block: Option<KeyBlock>,
    resume: Option<ResumeData>,
    resumed: bool,
    server_rsa: Option<RsaPublicKey>,
    server_ecdsa: Option<(NamedCurve, Vec<u8>)>,
    skx: Option<ServerKeyExchange>,
    new_ticket: Option<Vec<u8>>,
    out: Vec<u8>,
    app_in: VecDeque<Vec<u8>>,
    hs_buf: Vec<u8>,
}

impl ClientSession {
    /// New client offering `suite` on `curve`; `resume` enables an
    /// abbreviated-handshake attempt.
    pub fn new(
        provider: CryptoProvider,
        suite: CipherSuite,
        curve: NamedCurve,
        resume: Option<ResumeData>,
        seed: u64,
    ) -> Self {
        ClientSession {
            provider,
            rng: TestRng::new(seed),
            records: RecordLayer::new(Version::Tls12.wire()),
            transcript: Sha256::new(),
            state: State::Start,
            counters: OpCounters::default(),
            offered_suite: suite,
            curve,
            client_random: [0; 32],
            server_random: [0; 32],
            session_id: Vec::new(),
            master: Vec::new(),
            key_block: None,
            resume,
            resumed: false,
            server_rsa: None,
            server_ecdsa: None,
            skx: None,
            new_ticket: None,
            out: Vec::new(),
            app_in: VecDeque::new(),
            hs_buf: Vec::new(),
        }
    }

    /// Synchronous facade over [`Self::start_async`].
    pub fn start(&mut self) -> Result<(), TlsError> {
        run_sync(self.start_async())
    }

    /// Kick off the handshake (queues the ClientHello).
    pub async fn start_async(&mut self) -> Result<(), TlsError> {
        assert_eq!(self.state, State::Start, "start() called twice");
        self.rng.fill(&mut self.client_random);
        let (session_id, ticket) = match &self.resume {
            Some(r) => (r.session_id.clone(), r.ticket.clone()),
            None => (Vec::new(), None),
        };
        let ch = HandshakeMsg::ClientHello(ClientHello {
            version: Version::Tls12,
            random: self.client_random,
            session_id,
            suites: vec![self.offered_suite.wire()],
            curves: vec![self.curve.iana_id()],
            ticket,
            key_share: None,
            psk: None,
        });
        self.send_handshake(&ch).await?;
        self.state = State::ExpectServerHello;
        Ok(())
    }

    /// Feed raw bytes from the network.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.records.feed(bytes);
    }

    /// Drain pending output.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    /// Established?
    pub fn is_established(&self) -> bool {
        self.state == State::Connected
    }

    /// Did the server accept resumption?
    pub fn was_resumed(&self) -> bool {
        self.resumed
    }

    /// Export material for resuming later (established sessions only).
    pub fn export_resume_data(&self) -> Option<ResumeData> {
        if !self.is_established() {
            return None;
        }
        Some(ResumeData {
            session_id: self.session_id.clone(),
            ticket: self.new_ticket.clone(),
            master: self.master.clone(),
            suite: self.offered_suite,
        })
    }

    /// Received application data.
    pub fn read_app_data(&mut self) -> Option<Vec<u8>> {
        self.app_in.pop_front()
    }

    /// Synchronous facade over [`Self::write_app_data_async`].
    pub fn write_app_data(&mut self, data: &[u8]) -> Result<(), TlsError> {
        run_sync(self.write_app_data_async(data))
    }

    /// Encrypt and queue application data.
    pub async fn write_app_data_async(&mut self, data: &[u8]) -> Result<(), TlsError> {
        if self.state != State::Connected {
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
    /// [`crate::server::ServerSession::extract_secrets`]).
    pub fn extract_secrets(
        &mut self,
    ) -> Result<(crate::keys::ExtractedSecrets, Vec<u8>), TlsError> {
        if self.state != State::Connected {
            return Err(TlsError::InvalidState("extract before established"));
        }
        self.records.extract_secrets()
    }

    /// Synchronous facade over [`Self::process_async`].
    pub fn process(&mut self) -> Result<(), TlsError> {
        run_sync(self.process_async())
    }

    /// Process everything currently buffered.
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
                        self.handle_handshake(msg, &raw).await?;
                    }
                }
                ContentType::ChangeCipherSpec => self.handle_ccs().await?,
                ContentType::ApplicationData => {
                    if self.state != State::Connected {
                        return Err(TlsError::UnexpectedMessage {
                            expected: "handshake",
                            got: "application data",
                        });
                    }
                    self.app_in.push_back(payload);
                }
                ContentType::Alert => return Err(TlsError::Decode("peer alert")),
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

    async fn send_ccs(&mut self) -> Result<(), TlsError> {
        let rec = self
            .records
            .write_record_async(
                ContentType::ChangeCipherSpec,
                &[1],
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

    async fn handle_ccs(&mut self) -> Result<(), TlsError> {
        match self.state {
            // Full handshake: server CCS right before its Finished.
            State::ExpectNstOrCcs => {
                let kb = self.key_block.as_ref().expect("derived");
                self.records.set_read_keys(kb.server.clone());
                self.state = State::ExpectFinished;
                Ok(())
            }
            // Abbreviated: server accepted resumption.
            State::ExpectCcsOrCertificate => {
                let resume = self.resume.as_ref().expect("offered resumption");
                self.resumed = true;
                self.master = resume.master.clone();
                let kb = keys::derive_key_block(
                    &self.provider,
                    &mut self.counters,
                    &self.master,
                    &self.client_random,
                    &self.server_random,
                )
                .await?;
                self.records.set_read_keys(kb.server.clone());
                self.key_block = Some(kb);
                self.state = State::ExpectFinished;
                Ok(())
            }
            _ => Err(TlsError::UnexpectedMessage {
                expected: "handshake message",
                got: "ChangeCipherSpec",
            }),
        }
    }

    async fn handle_handshake(&mut self, msg: HandshakeMsg, raw: &[u8]) -> Result<(), TlsError> {
        match (self.state, msg) {
            (State::ExpectServerHello, HandshakeMsg::ServerHello(sh)) => {
                self.transcript.update(raw);
                self.on_server_hello(sh)
            }
            (
                State::ExpectCertificate | State::ExpectCcsOrCertificate,
                HandshakeMsg::Certificate(cert),
            ) => {
                self.transcript.update(raw);
                self.on_certificate(cert)
            }
            (State::ExpectSkxOrDone, HandshakeMsg::ServerKeyExchange(skx)) => {
                self.transcript.update(raw);
                self.on_server_key_exchange(skx)
            }
            (State::ExpectSkxOrDone | State::ExpectDone, HandshakeMsg::ServerHelloDone) => {
                self.transcript.update(raw);
                self.on_server_hello_done().await
            }
            (State::ExpectNstOrCcs, HandshakeMsg::NewSessionTicket(nst)) => {
                self.transcript.update(raw);
                self.new_ticket = Some(nst.ticket);
                Ok(())
            }
            (State::ExpectFinished, HandshakeMsg::Finished(fin)) => {
                let th = self.transcript_hash();
                self.transcript.update(raw);
                self.on_server_finished(fin, th).await
            }
            (state, msg) => Err(TlsError::UnexpectedMessage {
                expected: match state {
                    State::Start => "nothing (call start())",
                    State::ExpectServerHello => "ServerHello",
                    State::ExpectCertificate => "Certificate",
                    State::ExpectSkxOrDone => "ServerKeyExchange/Done",
                    State::ExpectDone => "ServerHelloDone",
                    State::ExpectNstOrCcs => "NewSessionTicket/CCS",
                    State::ExpectFinished => "Finished",
                    State::ExpectCcsOrCertificate => "CCS/Certificate",
                    State::Connected => "application data",
                },
                got: msg.name(),
            }),
        }
    }

    fn on_server_hello(&mut self, sh: ServerHello) -> Result<(), TlsError> {
        if sh.version != Version::Tls12 {
            return Err(TlsError::HandshakeFailure("version mismatch"));
        }
        if sh.suite != self.offered_suite {
            return Err(TlsError::HandshakeFailure("server picked unoffered suite"));
        }
        self.server_random = sh.random;
        // Resumption detection (session-ID path): echoed non-empty id.
        let offered_id = self
            .resume
            .as_ref()
            .map(|r| r.session_id.clone())
            .unwrap_or_default();
        self.session_id = sh.session_id.clone();
        if self.resume.is_some()
            && ((!offered_id.is_empty() && sh.session_id == offered_id)
                || self.resume.as_ref().is_some_and(|r| r.ticket.is_some()))
        {
            // Server may still decline (ticket path): next message decides.
            self.state = State::ExpectCcsOrCertificate;
        } else {
            self.state = State::ExpectCertificate;
        }
        Ok(())
    }

    fn on_certificate(&mut self, cert: CertPayload) -> Result<(), TlsError> {
        // Server declined resumption (or none offered): full handshake.
        self.resumed = false;
        match cert {
            CertPayload::Rsa { n, e } => {
                if self.offered_suite.auth() != Auth::Rsa {
                    return Err(TlsError::HandshakeFailure("cert/suite mismatch"));
                }
                self.server_rsa = Some(RsaPublicKey::new(
                    Bn::from_bytes_be(&n),
                    Bn::from_bytes_be(&e),
                ));
            }
            CertPayload::Ecdsa { curve, point } => {
                if self.offered_suite.auth() != Auth::Ecdsa {
                    return Err(TlsError::HandshakeFailure("cert/suite mismatch"));
                }
                let curve = NamedCurve::from_iana_id(curve)
                    .ok_or(TlsError::HandshakeFailure("unknown curve in cert"))?;
                self.server_ecdsa = Some((curve, point));
            }
        }
        self.state = match self.offered_suite.key_exchange() {
            KeyExchange::Ecdhe => State::ExpectSkxOrDone,
            KeyExchange::Rsa => State::ExpectSkxOrDone, // Done arrives next
        };
        Ok(())
    }

    fn on_server_key_exchange(&mut self, skx: ServerKeyExchange) -> Result<(), TlsError> {
        if self.offered_suite.key_exchange() != KeyExchange::Ecdhe {
            return Err(TlsError::UnexpectedMessage {
                expected: "ServerHelloDone",
                got: "ServerKeyExchange",
            });
        }
        let content = {
            let mut c = Vec::new();
            c.extend_from_slice(&self.client_random);
            c.extend_from_slice(&self.server_random);
            c.extend_from_slice(&skx.curve.to_be_bytes());
            c.extend_from_slice(&skx.public);
            c
        };
        // Authenticate the server's ephemeral parameters.
        match self.offered_suite.auth() {
            Auth::Rsa => {
                let key = self
                    .server_rsa
                    .as_ref()
                    .ok_or(TlsError::InvalidState("SKX before certificate"))?;
                key.verify_pkcs1_sha256(&content, &skx.signature)
                    .map_err(TlsError::Crypto)?;
            }
            Auth::Ecdsa => {
                let (curve, point) = self
                    .server_ecdsa
                    .as_ref()
                    .ok_or(TlsError::InvalidState("SKX before certificate"))?;
                let public = ecc::decode_point(*curve, point).map_err(TlsError::Crypto)?;
                let sig = ecc::EcdsaSignature::from_bytes(*curve, &skx.signature)
                    .map_err(TlsError::Crypto)?;
                ecc::ecdsa_verify(*curve, &public, &content, &sig).map_err(TlsError::Crypto)?;
            }
        }
        self.skx = Some(skx);
        self.state = State::ExpectDone;
        Ok(())
    }

    async fn on_server_hello_done(&mut self) -> Result<(), TlsError> {
        // Build ClientKeyExchange and derive keys.
        let premaster: Vec<u8>;
        let ckx_payload: Vec<u8>;
        match self.offered_suite.key_exchange() {
            KeyExchange::Rsa => {
                let mut pm = vec![0u8; sizes::PREMASTER_LEN];
                self.rng.fill(&mut pm);
                let key = self
                    .server_rsa
                    .as_ref()
                    .ok_or(TlsError::InvalidState("no server RSA key"))?;
                ckx_payload = key
                    .encrypt_pkcs1(&pm, &mut self.rng)
                    .map_err(TlsError::Crypto)?;
                premaster = pm;
            }
            KeyExchange::Ecdhe => {
                let skx = self
                    .skx
                    .as_ref()
                    .ok_or(TlsError::InvalidState("no SKX before done"))?;
                let curve = NamedCurve::from_iana_id(skx.curve)
                    .ok_or(TlsError::HandshakeFailure("unknown curve"))?;
                let seed = self.rng.next_u64();
                let (private, public) = self
                    .provider
                    .ec_keygen(&mut self.counters, curve, seed)
                    .await?;
                premaster = self
                    .provider
                    .ecdh(&mut self.counters, curve, &private, &skx.public)
                    .await?;
                ckx_payload = public;
            }
        }
        self.send_handshake(&HandshakeMsg::ClientKeyExchange(ClientKeyExchange {
            payload: ckx_payload,
        }))
        .await?;
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
        // Client Finished over the transcript so far.
        let th = self.transcript_hash();
        let verify = keys::finished_verify_data(
            &self.provider,
            &mut self.counters,
            &self.master,
            keys::CLIENT_FINISHED,
            &th,
        )
        .await?;
        self.send_ccs().await?;
        self.records.set_write_keys(kb.client.clone());
        self.key_block = Some(kb);
        self.send_handshake(&HandshakeMsg::Finished(Finished {
            verify_data: verify,
        }))
        .await?;
        self.state = State::ExpectNstOrCcs;
        Ok(())
    }

    async fn on_server_finished(&mut self, fin: Finished, th: Vec<u8>) -> Result<(), TlsError> {
        let expect = keys::finished_verify_data(
            &self.provider,
            &mut self.counters,
            &self.master,
            keys::SERVER_FINISHED,
            &th,
        )
        .await?;
        if !qtls_crypto::hmac::constant_time_eq(&expect, &fin.verify_data) {
            return Err(TlsError::BadFinished);
        }
        if self.resumed {
            // Abbreviated: we still owe our CCS + Finished.
            let th = self.transcript_hash();
            let verify = keys::finished_verify_data(
                &self.provider,
                &mut self.counters,
                &self.master,
                keys::CLIENT_FINISHED,
                &th,
            )
            .await?;
            self.send_ccs().await?;
            let kb = self.key_block.as_ref().expect("derived");
            self.records.set_write_keys(kb.client.clone());
            self.send_handshake(&HandshakeMsg::Finished(Finished {
                verify_data: verify,
            }))
            .await?;
        }
        self.state = State::Connected;
        Ok(())
    }
}
