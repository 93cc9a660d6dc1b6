//! Stateless retry tokens for handshake-flood admission control (the
//! QFAM design): before a worker spends any asymmetric offload work on
//! a new ClientHello while overloaded, it challenges the client with a
//! token it can verify statelessly on the retry — an HMAC over the
//! client address and a coarse timestamp, keyed by the cluster's
//! rotating [`TicketKeyRing`] MAC key. Reusing the ticket ring means
//! key rotation is free: tokens minted just before a rotation still
//! verify under the previous key, exactly like tickets.
//!
//! A token is `timestamp_secs (8 bytes BE) || tag (16 bytes)` where
//! `tag = HMAC-SHA256(mac_key, "qtls-retry" || addr || timestamp)`
//! truncated to 128 bits. Verification is constant-time on the tag and
//! bounds the token's age by the caller's lifetime, so a flooding
//! client cannot stockpile tokens.

use crate::session::TicketKeys;
use qtls_crypto::hmac::constant_time_eq;

/// Wire length of a retry token: 8-byte timestamp + 16-byte tag.
pub const RETRY_TOKEN_LEN: usize = 24;

/// Domain-separation prefix so a retry token can never collide with a
/// ticket MAC computed under the same key.
const RETRY_CONTEXT: &[u8] = b"qtls-retry";

fn retry_tag(keys: &TicketKeys, addr: u64, ts_secs: u64) -> [u8; 16] {
    let mut msg = [0u8; RETRY_CONTEXT.len() + 16];
    msg[..RETRY_CONTEXT.len()].copy_from_slice(RETRY_CONTEXT);
    msg[RETRY_CONTEXT.len()..RETRY_CONTEXT.len() + 8].copy_from_slice(&addr.to_be_bytes());
    msg[RETRY_CONTEXT.len() + 8..].copy_from_slice(&ts_secs.to_be_bytes());
    let mut tag = [0u8; 16];
    tag.copy_from_slice(&keys.mac(&msg)[..16]);
    tag
}

/// Mint a retry token binding `addr` to the coarse timestamp
/// `now_secs` under `keys`.
pub fn mint_token(keys: &TicketKeys, addr: u64, now_secs: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(RETRY_TOKEN_LEN);
    out.extend_from_slice(&now_secs.to_be_bytes());
    out.extend_from_slice(&retry_tag(keys, addr, now_secs));
    out
}

/// Verify a retry token against `addr`: authentic under `keys`, minted
/// no later than `now_secs`, and no older than `lifetime_secs`.
pub fn verify_token(
    keys: &TicketKeys,
    token: &[u8],
    addr: u64,
    now_secs: u64,
    lifetime_secs: u64,
) -> bool {
    if token.len() != RETRY_TOKEN_LEN {
        return false;
    }
    let ts_secs = u64::from_be_bytes(token[..8].try_into().expect("length checked"));
    if ts_secs > now_secs || now_secs - ts_secs > lifetime_secs {
        return false;
    }
    constant_time_eq(&retry_tag(keys, addr, ts_secs), &token[8..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtls_crypto::TestRng;

    fn keys(seed: u64) -> TicketKeys {
        TicketKeys::generate(&mut TestRng::new(seed))
    }

    #[test]
    fn token_round_trips() {
        let k = keys(1);
        let token = mint_token(&k, 0xC11E_0001, 1000);
        assert_eq!(token.len(), RETRY_TOKEN_LEN);
        assert!(verify_token(&k, &token, 0xC11E_0001, 1000, 30));
        // Still fresh at the lifetime boundary.
        assert!(verify_token(&k, &token, 0xC11E_0001, 1030, 30));
    }

    #[test]
    fn token_binds_the_client_address() {
        let k = keys(2);
        let token = mint_token(&k, 7, 1000);
        assert!(!verify_token(&k, &token, 8, 1000, 30));
    }

    #[test]
    fn token_expires_and_rejects_the_future() {
        let k = keys(3);
        let token = mint_token(&k, 7, 1000);
        assert!(!verify_token(&k, &token, 7, 1031, 30), "one past lifetime");
        assert!(
            !verify_token(&k, &token, 7, 999, 30),
            "minted in the future"
        );
    }

    #[test]
    fn token_rejects_tampering_and_foreign_keys() {
        let k = keys(4);
        let mut token = mint_token(&k, 7, 1000);
        token[12] ^= 1;
        assert!(!verify_token(&k, &token, 7, 1000, 30));
        let token = mint_token(&k, 7, 1000);
        assert!(!verify_token(&keys(5), &token, 7, 1000, 30));
        assert!(!verify_token(&k, &token[..20], 7, 1000, 30), "short token");
    }
}
