//! Cluster-shared resumption plane: a sharded, lock-striped session /
//! PSK store plus a rotating ticket-key ring.
//!
//! The paper's §2.1 resumption story assumes an abbreviated handshake
//! actually resumes, but with per-worker ticket keys and session caches
//! a round-robin dispatcher sends the returning client
//! to a worker that cannot open its ticket — it silently pays the full
//! asym-offload handshake (a resume *miss*). This module makes the
//! resumption state structural cluster property instead: one
//! [`SharedSessionStore`] and one [`TicketKeyRing`] are built by the
//! cluster and handed to every worker, so any worker can resume any
//! worker's session.
//!
//! Sharding follows the lock-striped map design from s2n-quic-dc's
//! path-secret store: entries are distributed over N independent
//! `Mutex<LruCore>` shards by an FNV-1a hash of the lookup key, so
//! concurrent workers contend only when they touch the same shard.
//! Stats are merged exactly (each shard's counters are read under that
//! shard's lock) for the observability plane.

use crate::session::{LruCore, SessionEntry, TicketKeys};
use qtls_crypto::{sha256::Sha256, EntropySource};
use qtls_sync::Mutex;
use std::time::{Duration, Instant};

/// Exact-merge counters for the shared store, summed across shards
/// under each shard's lock (no racy snapshot drift).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups that returned a live entry.
    pub hits: u64,
    /// Lookups that found nothing (or only an expired entry).
    pub misses: u64,
    /// Total insertions (including refreshes of an existing id).
    pub inserts: u64,
    /// Live entries evicted to make room at capacity.
    pub evictions: u64,
    /// Entries dropped because their lifetime elapsed.
    pub expirations: u64,
}

struct Shard {
    core: LruCore,
    hits: u64,
    misses: u64,
    inserts: u64,
}

/// A sharded, lock-striped session/PSK store shared by every worker in
/// a cluster (N shards keyed by id-hash, per-shard LRU + lifetime).
pub struct SharedSessionStore {
    shards: Vec<Mutex<Shard>>,
    mask_mod: usize,
}

/// FNV-1a over the lookup key: cheap, deterministic, and well-mixed
/// for both 32-byte session ids and ticket digests.
fn fnv1a(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl SharedSessionStore {
    /// Create a store with `shards` stripes holding `total_capacity`
    /// entries overall, each living at most `lifetime`.
    pub fn new(shards: usize, total_capacity: usize, lifetime: Duration) -> Self {
        let n = shards.max(1);
        let per_shard = total_capacity.div_ceil(n).max(1);
        SharedSessionStore {
            shards: (0..n)
                .map(|_| {
                    Mutex::new(Shard {
                        core: LruCore::new(per_shard, lifetime),
                        hits: 0,
                        misses: 0,
                        inserts: 0,
                    })
                })
                .collect(),
            mask_mod: n,
        }
    }

    fn shard_for(&self, key: &[u8]) -> &Mutex<Shard> {
        &self.shards[(fnv1a(key) as usize) % self.mask_mod]
    }

    /// Number of shards (lock stripes).
    pub fn shard_count(&self) -> usize {
        self.mask_mod
    }

    /// Insert or refresh `key`; a re-put moves the entry to the back
    /// of its shard's recency queue.
    pub fn put(&self, key: Vec<u8>, entry: SessionEntry) {
        let mut shard = self.shard_for(&key).lock();
        shard.inserts += 1;
        shard.core.put(key, entry);
    }

    /// Look up `key`, dropping it if expired.
    pub fn get(&self, key: &[u8]) -> Option<SessionEntry> {
        let mut shard = self.shard_for(key).lock();
        let got = shard.core.get(key);
        if got.is_some() {
            shard.hits += 1;
        } else {
            shard.misses += 1;
        }
        got
    }

    /// Total live (unexpired) entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().core.len()).sum()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact-merge stats: every shard's counters are read under that
    /// shard's lock and summed.
    pub fn stats(&self) -> StoreStats {
        let mut out = StoreStats::default();
        for s in &self.shards {
            let shard = s.lock();
            let (ev, ex) = shard.core.churn();
            out.hits += shard.hits;
            out.misses += shard.misses;
            out.inserts += shard.inserts;
            out.evictions += ev;
            out.expirations += ex;
        }
        out
    }

    /// Test seam: age every entry in every shard by `d` without
    /// sleeping.
    #[doc(hidden)]
    pub fn age_entries(&self, d: Duration) {
        for s in &self.shards {
            s.lock().core.age_entries(d);
        }
    }
}

impl Default for SharedSessionStore {
    fn default() -> Self {
        // Lifetimes are "generally less than an hour" (the paper);
        // striped over 8 shards.
        SharedSessionStore::new(8, 100_000, Duration::from_secs(3600))
    }
}

/// Derive the store key for a PSK ticket: tickets are opaque and can
/// be large, so entries are indexed by their SHA-256 digest.
pub fn psk_store_key(ticket: &[u8]) -> Vec<u8> {
    Sha256::digest(ticket).to_vec()
}

struct RingState {
    current: TicketKeys,
    previous: Option<TicketKeys>,
    rotated_at: Instant,
    generation: u64,
}

/// A cluster-level rotating ticket-key ring: one current sealing key
/// plus the previous key for opening, so tickets minted just before a
/// rotation still resume anywhere in the cluster.
///
/// With `interval` zero the ring never rotates on its own; otherwise
/// any seal past the interval first rotates using the caller's RNG.
pub struct TicketKeyRing {
    inner: Mutex<RingState>,
    interval: Duration,
}

impl TicketKeyRing {
    /// Create a ring with a fresh current key and the given rotation
    /// interval (zero disables time-based rotation).
    pub fn new<R: EntropySource>(rng: &mut R, interval: Duration) -> Self {
        TicketKeyRing {
            inner: Mutex::new(RingState {
                current: TicketKeys::generate(rng),
                previous: None,
                rotated_at: Instant::now(),
                generation: 0,
            }),
            interval,
        }
    }

    /// Wrap existing keys (e.g. a worker config's) into a ring that
    /// never rotates — used to keep single-worker setups byte-stable.
    pub fn from_keys(keys: TicketKeys) -> Self {
        TicketKeyRing {
            inner: Mutex::new(RingState {
                current: keys,
                previous: None,
                rotated_at: Instant::now(),
                generation: 0,
            }),
            interval: Duration::ZERO,
        }
    }

    /// Rotate now: the current key becomes the previous key and a
    /// fresh key takes its place.
    pub fn rotate<R: EntropySource>(&self, rng: &mut R) {
        let mut st = self.inner.lock();
        st.previous = Some(st.current.clone());
        st.current = TicketKeys::generate(rng);
        st.rotated_at = Instant::now();
        st.generation += 1;
    }

    /// How many rotations have happened.
    pub fn generation(&self) -> u64 {
        self.inner.lock().generation
    }

    /// Seal a session under the current key, rotating first if the
    /// rotation interval has elapsed. Returns `None` only for entries
    /// [`TicketKeys::seal`] rejects (oversized master secrets).
    pub fn seal<R: EntropySource>(&self, entry: &SessionEntry, rng: &mut R) -> Option<Vec<u8>> {
        let mut st = self.inner.lock();
        if self.interval > Duration::ZERO && st.rotated_at.elapsed() >= self.interval {
            st.previous = Some(st.current.clone());
            st.current = TicketKeys::generate(rng);
            st.rotated_at = Instant::now();
            st.generation += 1;
        }
        st.current.seal(entry, rng)
    }

    /// Open a ticket under the current key, falling back to the
    /// previous key (tickets minted before the last rotation).
    pub fn open(&self, ticket: &[u8]) -> Option<SessionEntry> {
        let st = self.inner.lock();
        st.current
            .open(ticket)
            .or_else(|| st.previous.as_ref().and_then(|k| k.open(ticket)))
    }

    /// Mint an admission retry token for `addr` under the current key
    /// (see [`crate::admission`]).
    pub fn mint_retry_token(&self, addr: u64, now_secs: u64) -> Vec<u8> {
        crate::admission::mint_token(&self.inner.lock().current, addr, now_secs)
    }

    /// Verify an admission retry token for `addr` under the current
    /// key, falling back to the previous key — tokens minted just
    /// before a rotation stay valid, so rotation costs nothing.
    pub fn verify_retry_token(
        &self,
        token: &[u8],
        addr: u64,
        now_secs: u64,
        lifetime_secs: u64,
    ) -> bool {
        let st = self.inner.lock();
        crate::admission::verify_token(&st.current, token, addr, now_secs, lifetime_secs)
            || st.previous.as_ref().is_some_and(|k| {
                crate::admission::verify_token(k, token, addr, now_secs, lifetime_secs)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::CipherSuite;
    use qtls_crypto::TestRng;
    use std::sync::Arc;

    fn entry(tag: u8) -> SessionEntry {
        SessionEntry {
            master: vec![tag; 48],
            suite: CipherSuite::EcdheRsa,
        }
    }

    #[test]
    fn store_put_get_across_shards() {
        let store = SharedSessionStore::new(4, 64, Duration::from_secs(60));
        for i in 0..32u8 {
            store.put(vec![i, i ^ 0x5A], entry(i));
        }
        assert_eq!(store.len(), 32);
        for i in 0..32u8 {
            let got = store.get(&[i, i ^ 0x5A]).unwrap();
            assert_eq!(got.master, vec![i; 48]);
        }
        assert!(store.get(&[0xFF, 0xFF]).is_none());
        let stats = store.stats();
        assert_eq!(stats.hits, 32);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.inserts, 32);
    }

    #[test]
    fn store_expiry_frees_slots_and_counts() {
        let store = SharedSessionStore::new(2, 8, Duration::from_secs(60));
        for i in 0..8u8 {
            store.put(vec![i], entry(i));
        }
        store.age_entries(Duration::from_secs(120));
        assert_eq!(store.len(), 0);
        let stats = store.stats();
        assert_eq!(stats.expirations, 8);
    }

    #[test]
    fn store_stats_merge_is_exact_under_concurrency() {
        let store = Arc::new(SharedSessionStore::new(4, 1024, Duration::from_secs(60)));
        let threads: Vec<_> = (0..4u8)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..100u8 {
                        store.put(vec![t, i], entry(i));
                        assert!(store.get(&[t, i]).is_some());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker thread");
        }
        let stats = store.stats();
        assert_eq!(stats.inserts, 400);
        assert_eq!(stats.hits, 400);
        assert_eq!(stats.misses, 0);
    }

    #[test]
    fn ring_open_falls_back_to_previous_key() {
        let mut rng = TestRng::new(11);
        let ring = TicketKeyRing::new(&mut rng, Duration::ZERO);
        let old = ring.seal(&entry(1), &mut rng).unwrap();
        ring.rotate(&mut rng);
        assert_eq!(ring.generation(), 1);
        let new = ring.seal(&entry(2), &mut rng).unwrap();
        assert_eq!(ring.open(&old).unwrap().master, vec![1; 48]);
        assert_eq!(ring.open(&new).unwrap().master, vec![2; 48]);
        // Two rotations away, the old ticket is gone for good.
        ring.rotate(&mut rng);
        assert!(ring.open(&old).is_none());
        assert!(ring.open(&new).is_some());
    }

    #[test]
    fn ring_retry_tokens_survive_one_rotation() {
        let mut rng = TestRng::new(13);
        let ring = TicketKeyRing::new(&mut rng, Duration::ZERO);
        let token = ring.mint_retry_token(42, 1000);
        assert!(ring.verify_retry_token(&token, 42, 1001, 30));
        assert!(!ring.verify_retry_token(&token, 43, 1001, 30), "other addr");
        // One rotation: the previous-key fallback still verifies it.
        ring.rotate(&mut rng);
        assert!(ring.verify_retry_token(&token, 42, 1002, 30));
        // Two rotations: gone for good, like tickets.
        ring.rotate(&mut rng);
        assert!(!ring.verify_retry_token(&token, 42, 1002, 30));
        // Fresh tokens mint under the rotated current key.
        let token = ring.mint_retry_token(42, 1003);
        assert!(ring.verify_retry_token(&token, 42, 1003, 30));
    }

    #[test]
    fn ring_rejects_foreign_tickets() {
        let mut rng = TestRng::new(12);
        let ring_a = TicketKeyRing::new(&mut rng, Duration::ZERO);
        let ring_b = TicketKeyRing::new(&mut rng, Duration::ZERO);
        let ticket = ring_a.seal(&entry(3), &mut rng).unwrap();
        assert!(ring_b.open(&ticket).is_none());
    }

    #[test]
    fn psk_store_key_is_stable_digest() {
        let a = psk_store_key(b"ticket-bytes");
        let b = psk_store_key(b"ticket-bytes");
        let c = psk_store_key(b"other");
        assert_eq!(a.len(), 32);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
