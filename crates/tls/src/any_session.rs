//! A version-erased server session so the event-driven worker can serve
//! TLS 1.2 and TLS 1.3 through one code path (Nginx's TLS module is
//! likewise version-agnostic).

use crate::provider::{CryptoProvider, OpCounters};
use crate::server::{ServerConfig, ServerSession};
use crate::suite::Version;
use crate::tls13::Tls13ServerSession;
use crate::TlsError;
use qtls_core::run_sync;
use std::sync::Arc;

/// A server session of either protocol version.
pub enum AnyServerSession {
    /// TLS 1.2.
    V12(ServerSession),
    /// TLS 1.3.
    V13(Tls13ServerSession),
}

impl AnyServerSession {
    /// Create a session for `version`.
    pub fn new(
        version: Version,
        config: Arc<ServerConfig>,
        provider: CryptoProvider,
        seed: u64,
    ) -> Self {
        match version {
            Version::Tls12 => AnyServerSession::V12(ServerSession::new(config, provider, seed)),
            Version::Tls13 => {
                AnyServerSession::V13(Tls13ServerSession::new(config, provider, seed))
            }
        }
    }

    /// Feed raw network bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        match self {
            AnyServerSession::V12(s) => s.feed(bytes),
            AnyServerSession::V13(s) => s.feed(bytes),
        }
    }

    /// Synchronous facade over [`Self::process_async`].
    pub fn process(&mut self) -> Result<(), TlsError> {
        run_sync(self.process_async())
    }

    /// Process buffered input (pending at each offloaded operation
    /// under an async profile).
    pub async fn process_async(&mut self) -> Result<(), TlsError> {
        match self {
            AnyServerSession::V12(s) => s.process_async().await.map(|_| ()),
            AnyServerSession::V13(s) => s.process_async().await,
        }
    }

    /// Drain pending output.
    pub fn take_output(&mut self) -> Vec<u8> {
        match self {
            AnyServerSession::V12(s) => s.take_output(),
            AnyServerSession::V13(s) => s.take_output(),
        }
    }

    /// Handshake complete?
    pub fn is_established(&self) -> bool {
        match self {
            AnyServerSession::V12(s) => s.is_established(),
            AnyServerSession::V13(s) => s.is_established(),
        }
    }

    /// Did this session resume (TLS 1.2 abbreviated handshake or
    /// TLS 1.3 PSK)?
    pub fn was_resumed(&self) -> bool {
        match self {
            AnyServerSession::V12(s) => s.was_resumed(),
            AnyServerSession::V13(s) => s.was_resumed(),
        }
    }

    /// Did the client offer resumption state this server could not
    /// honour (silent fallback to a full handshake)?
    pub fn resume_missed(&self) -> bool {
        match self {
            AnyServerSession::V12(s) => s.resume_missed(),
            AnyServerSession::V13(s) => s.resume_missed(),
        }
    }

    /// Received application data.
    pub fn read_app_data(&mut self) -> Option<Vec<u8>> {
        match self {
            AnyServerSession::V12(s) => s.read_app_data(),
            AnyServerSession::V13(s) => s.read_app_data(),
        }
    }

    /// Synchronous facade over [`Self::write_app_data_async`].
    pub fn write_app_data(&mut self, data: &[u8]) -> Result<(), TlsError> {
        run_sync(self.write_app_data_async(data))
    }

    /// Send application data.
    pub async fn write_app_data_async(&mut self, data: &[u8]) -> Result<(), TlsError> {
        match self {
            AnyServerSession::V12(s) => s.write_app_data_async(data).await,
            AnyServerSession::V13(s) => s.write_app_data_async(data).await,
        }
    }

    /// Crypto operation counters.
    pub fn counters(&self) -> OpCounters {
        match self {
            AnyServerSession::V12(s) => s.counters,
            AnyServerSession::V13(s) => s.counters,
        }
    }

    /// Export the established record secrets plus leftover inbound bytes
    /// for a data-plane [`crate::record::RecordCodec`] — the
    /// version-erased control-plane/data-plane handoff the worker uses.
    pub fn extract_secrets(
        &mut self,
    ) -> Result<(crate::keys::ExtractedSecrets, Vec<u8>), TlsError> {
        match self {
            AnyServerSession::V12(s) => s.extract_secrets(),
            AnyServerSession::V13(s) => s.extract_secrets(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructs_both_versions() {
        let config = ServerConfig::test_default();
        let v12 =
            AnyServerSession::new(Version::Tls12, config.clone(), CryptoProvider::Software, 1);
        let v13 = AnyServerSession::new(Version::Tls13, config, CryptoProvider::Software, 2);
        assert!(matches!(v12, AnyServerSession::V12(_)));
        assert!(matches!(v13, AnyServerSession::V13(_)));
        assert!(!v12.is_established());
        assert!(!v13.is_established());
    }
}
