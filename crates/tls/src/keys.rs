//! TLS 1.2 key schedule (RFC 5246 §8): master secret, key block and
//! Finished verify data — all through the (offloadable, hence `async`)
//! PRF.

use crate::error::TlsError;
use crate::provider::{CryptoProvider, OpCounters};
use crate::record::DirectionKeys;
use crate::suite::sizes;

/// The expanded key block, split per direction.
#[derive(Clone)]
pub struct KeyBlock {
    /// Client-write keys (client encrypts, server decrypts).
    pub client: DirectionKeys,
    /// Server-write keys.
    pub server: DirectionKeys,
}

/// `master_secret = PRF(premaster, "master secret", client_random ||
/// server_random, 48)`.
pub async fn derive_master_secret(
    provider: &CryptoProvider,
    counters: &mut OpCounters,
    premaster: &[u8],
    client_random: &[u8; 32],
    server_random: &[u8; 32],
) -> Result<Vec<u8>, TlsError> {
    let mut seed = Vec::with_capacity(64);
    seed.extend_from_slice(client_random);
    seed.extend_from_slice(server_random);
    provider
        .prf(
            counters,
            premaster,
            b"master secret",
            &seed,
            sizes::MASTER_SECRET_LEN,
        )
        .await
}

/// `key_block = PRF(master, "key expansion", server_random ||
/// client_random, 104)` split into MAC keys, cipher keys and IVs
/// (the IV halves are unused — records carry explicit IVs).
pub async fn derive_key_block(
    provider: &CryptoProvider,
    counters: &mut OpCounters,
    master: &[u8],
    client_random: &[u8; 32],
    server_random: &[u8; 32],
) -> Result<KeyBlock, TlsError> {
    let mut seed = Vec::with_capacity(64);
    seed.extend_from_slice(server_random);
    seed.extend_from_slice(client_random);
    let block = provider
        .prf(
            counters,
            master,
            b"key expansion",
            &seed,
            sizes::KEY_BLOCK_LEN,
        )
        .await?;
    let m = sizes::MAC_KEY_LEN;
    let k = sizes::ENC_KEY_LEN;
    Ok(KeyBlock {
        client: DirectionKeys {
            mac_key: block[..m].to_vec(),
            enc_key: block[2 * m..2 * m + k].try_into().unwrap(),
        },
        server: DirectionKeys {
            mac_key: block[m..2 * m].to_vec(),
            enc_key: block[2 * m + k..2 * m + 2 * k].try_into().unwrap(),
        },
    })
}

/// `verify_data = PRF(master, label, transcript_hash, 12)`.
pub async fn finished_verify_data(
    provider: &CryptoProvider,
    counters: &mut OpCounters,
    master: &[u8],
    label: &'static [u8],
    transcript_hash: &[u8],
) -> Result<Vec<u8>, TlsError> {
    provider
        .prf(
            counters,
            master,
            label,
            transcript_hash,
            sizes::VERIFY_DATA_LEN,
        )
        .await
}

/// One direction's record-protection state at the moment of extraction:
/// the keys plus the sequence number the handshake advanced to, so the
/// data plane continues the sequence without a gap (a gap or repeat
/// would fail the peer's MAC check).
#[derive(Clone)]
pub struct DirectionSecrets {
    /// Record-protection keys for this direction.
    pub keys: DirectionKeys,
    /// Next record sequence number for this direction.
    pub seq: u64,
}

/// kTLS-style snapshot of an established connection's record state.
///
/// After `Finished`, the handshake control plane exports these and hands
/// the connection to the record-layer data plane
/// ([`crate::record::RecordCodec`]), which never touches handshake state
/// again — mirroring how a kernel-TLS `setsockopt` receives
/// `tls12_crypto_info` and takes over record protection.
#[derive(Clone)]
pub struct ExtractedSecrets {
    /// Record-layer protocol version on the wire (e.g. `0x0303`).
    pub version: u16,
    /// Our write direction (we seal with these).
    pub write: DirectionSecrets,
    /// Our read direction (we open with these).
    pub read: DirectionSecrets,
}

/// Label for the server Finished.
pub const SERVER_FINISHED: &[u8] = b"server finished";
/// Label for the client Finished.
pub const CLIENT_FINISHED: &[u8] = b"client finished";

#[cfg(test)]
mod tests {
    use super::*;
    use qtls_core::run_sync;

    #[test]
    fn schedule_is_deterministic_and_split_correctly() {
        let p = CryptoProvider::Software;
        let mut c = OpCounters::default();
        let premaster = vec![9u8; 48];
        let cr = [1u8; 32];
        let sr = [2u8; 32];
        let master = run_sync(derive_master_secret(&p, &mut c, &premaster, &cr, &sr)).unwrap();
        assert_eq!(master.len(), 48);
        let kb = run_sync(derive_key_block(&p, &mut c, &master, &cr, &sr)).unwrap();
        assert_eq!(kb.client.mac_key.len(), 20);
        assert_ne!(kb.client.mac_key, kb.server.mac_key);
        assert_ne!(kb.client.enc_key, kb.server.enc_key);
        // Deterministic.
        let master2 = run_sync(derive_master_secret(&p, &mut c, &premaster, &cr, &sr)).unwrap();
        assert_eq!(master, master2);
        // 1 master + 1 key block + 1 repeat = 3 PRF ops counted.
        assert_eq!(c.prf, 3);
    }

    #[test]
    fn finished_labels_differ() {
        let p = CryptoProvider::Software;
        let mut c = OpCounters::default();
        let master = vec![7u8; 48];
        let th = [0xabu8; 32];
        let s = run_sync(finished_verify_data(
            &p,
            &mut c,
            &master,
            SERVER_FINISHED,
            &th,
        ))
        .unwrap();
        let cl = run_sync(finished_verify_data(
            &p,
            &mut c,
            &master,
            CLIENT_FINISHED,
            &th,
        ))
        .unwrap();
        assert_eq!(s.len(), 12);
        assert_ne!(s, cl);
    }

    #[test]
    fn randoms_affect_master() {
        let p = CryptoProvider::Software;
        let mut c = OpCounters::default();
        let pm = vec![3u8; 48];
        let a = run_sync(derive_master_secret(&p, &mut c, &pm, &[1; 32], &[2; 32])).unwrap();
        let b = run_sync(derive_master_secret(&p, &mut c, &pm, &[1; 32], &[3; 32])).unwrap();
        assert_ne!(a, b);
    }
}
