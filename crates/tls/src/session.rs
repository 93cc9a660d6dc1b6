//! Session resumption state: the server-side session-ID cache and
//! self-encrypted session tickets (§2.1 "Session resumption").
//!
//! Real deployments restrict the lifetime of IDs/tickets to bound the
//! forward-secrecy exposure; the cache enforces a configurable lifetime
//! and capacity.
//!
//! The LRU bookkeeping lives in [`LruCore`], shared with the sharded
//! cross-worker store in [`crate::store`], so both enforce the same
//! recency and expiry semantics.

use crate::suite::CipherSuite;
use qtls_crypto::hmac::{constant_time_eq, Hmac};
use qtls_crypto::{aes, sha256::Sha256, EntropySource};
use qtls_sync::Mutex;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// What resumption restores.
#[derive(Clone, Debug)]
pub struct SessionEntry {
    /// The negotiated master secret.
    pub master: Vec<u8>,
    /// The suite of the original session.
    pub suite: CipherSuite,
}

struct Slot {
    entry: SessionEntry,
    at: Instant,
    seq: u64,
}

/// Single-threaded LRU + lifetime core used by both [`SessionCache`]
/// and the sharded [`crate::store::SharedSessionStore`].
///
/// Recency is tracked with a sequence-stamped queue: a re-put assigns a
/// fresh sequence number and pushes a new queue slot, turning the old
/// slot into a tombstone that eviction skips. The queue is therefore
/// always in put-recency order (which is also ascending-timestamp
/// order), so expired entries form a prefix and can be purged lazily.
pub(crate) struct LruCore {
    map: HashMap<Vec<u8>, Slot>,
    queue: VecDeque<(u64, Vec<u8>)>,
    next_seq: u64,
    capacity: usize,
    lifetime: Duration,
    evictions: u64,
    expirations: u64,
}

impl LruCore {
    pub(crate) fn new(capacity: usize, lifetime: Duration) -> Self {
        LruCore {
            map: HashMap::new(),
            queue: VecDeque::new(),
            next_seq: 0,
            capacity: capacity.max(1),
            lifetime,
            evictions: 0,
            expirations: 0,
        }
    }

    fn is_expired(&self, at: Instant) -> bool {
        at.elapsed() > self.lifetime
    }

    /// Drop expired entries from the front of the recency queue
    /// (tombstones are dropped on the way; live-but-fresh stops the
    /// walk since the queue is timestamp-ordered).
    fn purge_expired(&mut self) {
        loop {
            let expired = match self.queue.front() {
                None => return,
                Some((seq, id)) => match self.map.get(id) {
                    // Tombstone: a newer put superseded this slot.
                    Some(slot) if slot.seq != *seq => false,
                    Some(slot) if self.is_expired(slot.at) => true,
                    // Front is live and fresh; everything behind it in
                    // the queue is newer, so the walk can stop.
                    Some(_) => return,
                    None => false,
                },
            };
            let (_, id) = self.queue.pop_front().expect("front was Some");
            if expired {
                self.map.remove(&id);
                self.expirations += 1;
            }
        }
    }

    /// Evict the least-recently-put live entry.
    fn evict_oldest(&mut self) {
        while let Some((seq, id)) = self.queue.pop_front() {
            if let Some(slot) = self.map.get(&id) {
                if slot.seq == seq {
                    self.map.remove(&id);
                    self.evictions += 1;
                    return;
                }
            }
        }
    }

    /// Rebuild the queue without tombstones once they dominate, so a
    /// re-put-heavy workload cannot grow the queue unboundedly.
    fn maybe_compact(&mut self) {
        if self.queue.len() > 2 * self.map.len() + 16 {
            let map = &self.map;
            self.queue
                .retain(|(seq, id)| map.get(id).is_some_and(|s| s.seq == *seq));
        }
    }

    /// Insert or refresh `id`; a re-put moves the entry to the back of
    /// the recency queue. Returns true if this was a fresh insert.
    pub(crate) fn put(&mut self, id: Vec<u8>, entry: SessionEntry) -> bool {
        self.purge_expired();
        let fresh = !self.map.contains_key(&id);
        if fresh && self.map.len() >= self.capacity {
            self.evict_oldest();
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push_back((seq, id.clone()));
        self.map.insert(
            id,
            Slot {
                entry,
                at: Instant::now(),
                seq,
            },
        );
        self.maybe_compact();
        fresh
    }

    /// Look up `id`, dropping it if it has expired. Returns the entry
    /// and whether it was present-but-expired (for miss accounting).
    pub(crate) fn get(&mut self, id: &[u8]) -> Option<SessionEntry> {
        let at = self.map.get(id)?.at;
        if self.is_expired(at) {
            self.map.remove(id);
            self.expirations += 1;
            return None;
        }
        Some(self.map.get(id)?.entry.clone())
    }

    /// Number of live (unexpired) entries.
    pub(crate) fn len(&mut self) -> usize {
        self.purge_expired();
        // purge_expired only walks the timestamp-ordered prefix; count
        // precisely in case of clock-order anomalies (there are none in
        // practice, the prefix walk already removed every expired one).
        self.map.len()
    }

    /// Counters for the observability plane.
    pub(crate) fn churn(&self) -> (u64, u64) {
        (self.evictions, self.expirations)
    }

    /// Test seam: age every entry by `d` without sleeping.
    pub(crate) fn age_entries(&mut self, d: Duration) {
        for slot in self.map.values_mut() {
            if let Some(at) = slot.at.checked_sub(d) {
                slot.at = at;
            }
        }
    }
}

/// A bounded, lifetime-limited session-ID cache.
pub struct SessionCache {
    inner: Mutex<LruCore>,
}

impl SessionCache {
    /// Create with `capacity` entries and `lifetime` per entry.
    pub fn new(capacity: usize, lifetime: Duration) -> Self {
        SessionCache {
            inner: Mutex::new(LruCore::new(capacity, lifetime)),
        }
    }

    /// Store a session under `id`; a re-put refreshes its recency.
    pub fn put(&self, id: Vec<u8>, entry: SessionEntry) {
        self.inner.lock().put(id, entry);
    }

    /// Look up a session (respecting lifetime; expired entries are
    /// dropped on access so they cannot hold capacity slots).
    pub fn get(&self, id: &[u8]) -> Option<SessionEntry> {
        self.inner.lock().get(id)
    }

    /// Number of live (unexpired) entries.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Test seam: age every entry by `d` without sleeping.
    #[doc(hidden)]
    pub fn age_entries(&self, d: Duration) {
        self.inner.lock().age_entries(d);
    }
}

impl Default for SessionCache {
    fn default() -> Self {
        // Paper: lifetimes are "generally less than an hour".
        SessionCache::new(100_000, Duration::from_secs(3600))
    }
}

/// Server ticket protection keys (AES-128-CBC + HMAC-SHA256), held
/// expanded: the AES schedules and the keyed HMAC midstates are built
/// once per key, not once per ticket.
#[derive(Clone)]
pub struct TicketKeys {
    aes: aes::Aes128,
    mac: Hmac<Sha256>,
}

impl TicketKeys {
    /// Generate fresh random keys.
    pub fn generate<R: EntropySource>(rng: &mut R) -> Self {
        let mut enc_key = [0u8; 16];
        let mut mac_key = [0u8; 32];
        rng.fill(&mut enc_key);
        rng.fill(&mut mac_key);
        TicketKeys {
            aes: aes::Aes128::new(&enc_key),
            mac: Hmac::new(&mac_key),
        }
    }

    /// HMAC-SHA256 of `msg` under the MAC half of the key pair. Shared
    /// with sibling modules that derive cheap authenticators (admission
    /// retry tokens) from the same rotating material.
    pub(crate) fn mac(&self, msg: &[u8]) -> [u8; 32] {
        let mut h = self.mac.clone();
        h.update(msg);
        h.finalize_fixed()
    }

    /// Seal a session into an opaque ticket: `iv || ct || mac`.
    ///
    /// Returns `None` if the master secret is too large to encode
    /// (the u16 length field caps it at 65535 bytes) — a ticket must
    /// never round-trip to a truncated secret.
    pub fn seal<R: EntropySource>(&self, entry: &SessionEntry, rng: &mut R) -> Option<Vec<u8>> {
        let mlen = u16::try_from(entry.master.len()).ok()?;
        let mut plaintext = Vec::with_capacity(entry.master.len() + 4);
        plaintext.extend_from_slice(&entry.suite.wire().to_be_bytes());
        plaintext.extend_from_slice(&mlen.to_be_bytes());
        plaintext.extend_from_slice(&entry.master);
        // Pad to block size.
        let pad = 16 - plaintext.len() % 16;
        plaintext.extend(std::iter::repeat_n(pad as u8, pad));
        let mut iv = [0u8; 16];
        rng.fill(&mut iv);
        let ct = aes::cbc_encrypt(&self.aes, &iv, &plaintext).expect("padded");
        let mut out = Vec::with_capacity(16 + ct.len() + 32);
        out.extend_from_slice(&iv);
        out.extend_from_slice(&ct);
        let mac = self.mac(&out);
        out.extend_from_slice(&mac);
        Some(out)
    }

    /// Open a ticket, returning the session if authentic.
    pub fn open(&self, ticket: &[u8]) -> Option<SessionEntry> {
        if ticket.len() < 16 + 16 + 32 {
            return None;
        }
        let (body, mac) = ticket.split_at(ticket.len() - 32);
        if !constant_time_eq(&self.mac(body), mac) {
            return None;
        }
        let iv: [u8; 16] = body[..16].try_into().ok()?;
        let pt = aes::cbc_decrypt(&self.aes, &iv, &body[16..]).ok()?;
        let pad = *pt.last()? as usize;
        if pad == 0 || pad > 16 || pad >= pt.len() {
            return None;
        }
        let pt = &pt[..pt.len() - pad];
        if pt.len() < 4 {
            return None;
        }
        let suite = CipherSuite::from_wire(u16::from_be_bytes([pt[0], pt[1]]))?;
        let mlen = u16::from_be_bytes([pt[2], pt[3]]) as usize;
        if pt.len() != 4 + mlen {
            return None;
        }
        Some(SessionEntry {
            master: pt[4..].to_vec(),
            suite,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtls_crypto::TestRng;

    fn entry() -> SessionEntry {
        SessionEntry {
            master: vec![0x42; 48],
            suite: CipherSuite::EcdheRsa,
        }
    }

    #[test]
    fn cache_put_get() {
        let cache = SessionCache::new(10, Duration::from_secs(60));
        cache.put(vec![1, 2, 3], entry());
        let got = cache.get(&[1, 2, 3]).unwrap();
        assert_eq!(got.master, vec![0x42; 48]);
        assert!(cache.get(&[9, 9]).is_none());
    }

    #[test]
    fn cache_lifetime_expires() {
        let cache = SessionCache::new(10, Duration::from_millis(5));
        cache.put(vec![1], entry());
        std::thread::sleep(Duration::from_millis(20));
        assert!(cache.get(&[1]).is_none());
    }

    #[test]
    fn cache_eviction_at_capacity() {
        let cache = SessionCache::new(2, Duration::from_secs(60));
        cache.put(vec![1], entry());
        cache.put(vec![2], entry());
        cache.put(vec![3], entry());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&[1]).is_none(), "oldest evicted");
        assert!(cache.get(&[3]).is_some());
    }

    #[test]
    fn cache_re_put_refreshes_recency() {
        // Re-putting id 1 must move it to the back of the eviction
        // queue, so inserting a third entry evicts id 2 instead.
        let cache = SessionCache::new(2, Duration::from_secs(60));
        cache.put(vec![1], entry());
        cache.put(vec![2], entry());
        cache.put(vec![1], entry());
        cache.put(vec![3], entry());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&[1]).is_some(), "re-put entry survives");
        assert!(cache.get(&[2]).is_none(), "stale entry evicted");
        assert!(cache.get(&[3]).is_some());
    }

    #[test]
    fn cache_expired_entries_release_capacity() {
        // A burst of short-lived sessions must not evict live ones:
        // expired entries are purged on put, freeing their slots.
        let cache = SessionCache::new(2, Duration::from_secs(60));
        cache.put(vec![1], entry());
        cache.put(vec![2], entry());
        cache.age_entries(Duration::from_secs(120));
        assert_eq!(cache.len(), 0, "len excludes expired entries");
        cache.put(vec![3], entry());
        cache.put(vec![4], entry());
        assert!(cache.get(&[3]).is_some());
        assert!(cache.get(&[4]).is_some());
        assert!(cache.get(&[1]).is_none());
    }

    #[test]
    fn cache_expired_get_drops_entry() {
        let cache = SessionCache::new(10, Duration::from_secs(60));
        cache.put(vec![1], entry());
        cache.age_entries(Duration::from_secs(120));
        assert!(cache.get(&[1]).is_none());
        // The expired slot is gone, not just hidden.
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn cache_heavy_re_put_does_not_grow_queue() {
        let cache = SessionCache::new(4, Duration::from_secs(60));
        for i in 0..10_000u32 {
            cache.put(vec![(i % 4) as u8], entry());
        }
        assert_eq!(cache.len(), 4);
        let inner = cache.inner.lock();
        assert!(
            inner.queue.len() <= 2 * inner.map.len() + 16,
            "tombstone compaction bounds the queue (len {})",
            inner.queue.len()
        );
    }

    #[test]
    fn ticket_seal_open_roundtrip() {
        let mut rng = TestRng::new(3);
        let keys = TicketKeys::generate(&mut rng);
        let ticket = keys.seal(&entry(), &mut rng).unwrap();
        let opened = keys.open(&ticket).unwrap();
        assert_eq!(opened.master, entry().master);
        assert_eq!(opened.suite, CipherSuite::EcdheRsa);
    }

    #[test]
    fn ticket_large_master_roundtrips_exactly() {
        // A master longer than 255 bytes used to truncate via the u8
        // length; the u16 field must round-trip it bit-exactly.
        let mut rng = TestRng::new(7);
        let keys = TicketKeys::generate(&mut rng);
        let big = SessionEntry {
            master: (0..300).map(|i| (i % 251) as u8).collect(),
            suite: CipherSuite::EcdheRsa,
        };
        let ticket = keys.seal(&big, &mut rng).unwrap();
        let opened = keys.open(&ticket).unwrap();
        assert_eq!(opened.master, big.master);
    }

    #[test]
    fn ticket_oversized_master_rejected() {
        let mut rng = TestRng::new(8);
        let keys = TicketKeys::generate(&mut rng);
        let huge = SessionEntry {
            master: vec![0xAA; 70_000],
            suite: CipherSuite::EcdheRsa,
        };
        assert!(keys.seal(&huge, &mut rng).is_none());
    }

    #[test]
    fn ticket_tamper_rejected() {
        let mut rng = TestRng::new(4);
        let keys = TicketKeys::generate(&mut rng);
        let mut ticket = keys.seal(&entry(), &mut rng).unwrap();
        let n = ticket.len();
        ticket[n / 2] ^= 1;
        assert!(keys.open(&ticket).is_none());
        assert!(keys.open(&[]).is_none());
    }

    #[test]
    fn ticket_wrong_key_rejected() {
        let mut rng = TestRng::new(5);
        let k1 = TicketKeys::generate(&mut rng);
        let k2 = TicketKeys::generate(&mut rng);
        let ticket = k1.seal(&entry(), &mut rng).unwrap();
        assert!(k2.open(&ticket).is_none());
    }
}
