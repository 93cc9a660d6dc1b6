//! Property-based tests over the TLS resumption plane: model-checked
//! LRU/lifetime behavior of the session cache (the structure shared
//! with the cluster store's shards), ticket fuzzing against the sealed
//! format, and shard-consistency of the cluster-shared store.
//!
//! Runs on the hermetic in-repo harness (`qtls::prop`): a small
//! deterministic case set by default, the full sweep with
//! `cargo test --features proptest`.

use qtls::crypto::TestRng;
use qtls::prop;
use qtls::tls::session::{SessionCache, SessionEntry, TicketKeys};
use qtls::tls::store::{psk_store_key, SharedSessionStore, TicketKeyRing};
use qtls::tls::suite::CipherSuite;
use std::time::Duration;

fn entry(master_byte: u8) -> SessionEntry {
    SessionEntry {
        master: vec![master_byte; 48],
        suite: CipherSuite::EcdheRsa,
    }
}

/// Reference model of the cache: a recency-ordered list of live entries
/// with accumulated age. Mirrors the observable contract of the real
/// cache — put-recency eviction order, re-put moves to back and
/// refreshes the lifetime clock, entries older than `lifetime` are
/// never returned and never hold capacity.
struct Model {
    /// `(id, master_byte, age)` in put-recency order (front = oldest).
    live: Vec<(u8, u8, u64)>,
    capacity: usize,
    lifetime: u64,
}

impl Model {
    // The real cache expires on `elapsed > lifetime`; the test ages in
    // whole seconds and a few real microseconds always elapse on top,
    // so an entry aged to exactly `lifetime` is expired there. Model
    // that as `age >= lifetime` (cases never run for a whole second).
    fn purge(&mut self) {
        let lifetime = self.lifetime;
        self.live.retain(|(_, _, age)| *age < lifetime);
    }

    fn put(&mut self, id: u8, master: u8) {
        self.purge();
        if let Some(pos) = self.live.iter().position(|(i, _, _)| *i == id) {
            self.live.remove(pos);
        } else if self.live.len() >= self.capacity {
            self.live.remove(0);
        }
        self.live.push((id, master, 0));
    }

    fn get(&self, id: u8) -> Option<u8> {
        self.live
            .iter()
            .find(|(i, _, age)| *i == id && *age < self.lifetime)
            .map(|(_, m, _)| *m)
    }

    fn age(&mut self, d: u64) {
        for (_, _, age) in &mut self.live {
            *age += d;
        }
    }

    fn len(&mut self) -> usize {
        self.purge();
        self.live.len()
    }
}

/// Model-checked cache churn: random interleavings of put / re-put /
/// get / age must agree with the reference model on every lookup and on
/// the live count — covering eviction order under re-put and the
/// expiry-vs-capacity interaction.
#[test]
fn cache_churn_matches_model() {
    prop::check("cache_churn_matches_model", 48, |g| {
        let capacity = g.usize_in(1, 6);
        let lifetime = 60u64;
        let cache = SessionCache::new(capacity, Duration::from_secs(lifetime));
        let mut model = Model {
            live: Vec::new(),
            capacity,
            lifetime,
        };
        // Total aging is capped (≤ 24 ops x 5 s) so the test seam's
        // saturating age-shift never engages.
        let ops = g.usize_in(8, 24);
        for _ in 0..ops {
            match g.u64_in(0, 4) {
                0 | 1 => {
                    // Small id space forces re-puts of hot ids.
                    let id = g.u64_in(0, 8) as u8;
                    let master = g.u8();
                    cache.put(vec![id], entry(master));
                    model.put(id, master);
                }
                2 => {
                    let id = g.u64_in(0, 8) as u8;
                    let got = cache.get(&[id]).map(|e| e.master[0]);
                    assert_eq!(got, model.get(id), "lookup of id {id} diverged");
                }
                _ => {
                    let d = g.u64_in(1, 6);
                    cache.age_entries(Duration::from_secs(d));
                    model.age(d);
                }
            }
            assert!(
                cache.len() <= capacity,
                "cache overflowed its capacity {capacity}"
            );
        }
        assert_eq!(cache.len(), model.len(), "live-entry count diverged");
        // Final sweep: every id agrees.
        for id in 0..8u8 {
            let got = cache.get(&[id]).map(|e| e.master[0]);
            assert_eq!(got, model.get(id), "final lookup of id {id} diverged");
        }
    });
}

/// Hot entries survive churn: re-putting one id while `capacity` other
/// ids stream past must never evict it (the re-put bug this PR fixes
/// left the old recency slot in place, so exactly this pattern evicted
/// the hottest entry).
#[test]
fn cache_hot_entry_survives_streaming_churn() {
    prop::check("cache_hot_entry_survives_streaming_churn", 32, |g| {
        let capacity = g.usize_in(2, 8);
        let cache = SessionCache::new(capacity, Duration::from_secs(3600));
        cache.put(vec![0xAA], entry(1));
        let rounds = g.usize_in(1, 50);
        for i in 0..rounds {
            // One cold id streams through, then the hot id is re-put.
            cache.put(vec![0xBB, i as u8], entry(2));
            cache.put(vec![0xAA], entry(1));
        }
        assert!(
            cache.get(&[0xAA]).is_some(),
            "hot re-put entry evicted (capacity {capacity}, {rounds} rounds)"
        );
    });
}

/// Apply one random structural mutation to `ticket`, returning None if
/// the mutation happens to be the identity.
fn mutate(g: &mut qtls::prop::Gen, ticket: &[u8]) -> Option<Vec<u8>> {
    match g.u64_in(0, 3) {
        0 => {
            // Flip one bit somewhere.
            let mut t = ticket.to_vec();
            let i = g.usize_in(0, t.len());
            t[i] ^= 1 << g.u64_in(0, 8);
            Some(t)
        }
        1 => {
            // Truncate to a strict prefix (possibly empty).
            let keep = g.usize_in(0, ticket.len());
            Some(ticket[..keep].to_vec())
        }
        _ => {
            // Extend with random bytes.
            let mut t = ticket.to_vec();
            t.extend(g.bytes_in(1, 24));
            Some(t)
        }
    }
}

/// Ticket fuzz: `open` never panics on arbitrary input, never returns
/// `Some` for any mutated ticket, and always round-trips the untouched
/// one exactly.
#[test]
fn ticket_open_rejects_all_mutations() {
    prop::check("ticket_open_rejects_all_mutations", 48, |g| {
        let mut rng = TestRng::new(g.u64());
        let keys = TicketKeys::generate(&mut rng);
        let e = SessionEntry {
            master: g.bytes_in(1, 96),
            suite: CipherSuite::EcdheRsa,
        };
        let ticket = keys.seal(&e, &mut rng).expect("master fits the format");
        let back = keys.open(&ticket).expect("untouched ticket opens");
        assert_eq!(back.master, e.master);
        assert_eq!(back.suite, e.suite);
        for _ in 0..8 {
            if let Some(t) = mutate(g, &ticket) {
                if t == ticket {
                    continue;
                }
                assert!(
                    keys.open(&t).is_none(),
                    "mutated ticket must not open (len {} vs {})",
                    t.len(),
                    ticket.len()
                );
            }
        }
        // Pure garbage of any length must also be rejected quietly.
        let garbage = g.bytes_in(0, 128);
        if garbage != ticket {
            assert!(keys.open(&garbage).is_none());
        }
    });
}

/// The rotating ring honours the same rejection property across both of
/// its generations: tickets sealed before a rotation still open, and
/// mutations of either generation's tickets never do.
#[test]
fn ticket_ring_rejects_mutations_across_rotation() {
    prop::check("ticket_ring_rejects_mutations_across_rotation", 32, |g| {
        let mut rng = TestRng::new(g.u64());
        let ring = TicketKeyRing::new(&mut rng, Duration::ZERO);
        let e = entry(g.u8());
        let old = ring.seal(&e, &mut rng).expect("seal");
        ring.rotate(&mut rng);
        let new = ring.seal(&e, &mut rng).expect("seal");
        assert!(
            ring.open(&old).is_some(),
            "previous-generation ticket opens"
        );
        assert!(ring.open(&new).is_some(), "current-generation ticket opens");
        for ticket in [&old, &new] {
            if let Some(t) = mutate(g, ticket) {
                if t != **ticket {
                    assert!(ring.open(&t).is_none(), "mutated ticket must not open");
                }
            }
        }
        // A second rotation retires the first generation entirely.
        ring.rotate(&mut rng);
        assert!(ring.open(&old).is_none(), "twice-rotated ticket is dead");
    });
}

/// Shard consistency of the cluster store: whatever the shard count, a
/// put is always visible through a get of the same key, distinct keys
/// never alias, and the merged stats account exactly for every hit,
/// miss, and insert.
#[test]
fn shared_store_shards_are_consistent() {
    prop::check("shared_store_shards_are_consistent", 32, |g| {
        let shards = g.usize_in(1, 9);
        // Capacity generous enough that even a worst-case hash skew
        // (every key in one shard) cannot trigger eviction: per-shard
        // capacity is total/shards, so give every shard >= 32 slots.
        let store = SharedSessionStore::new(shards, 32 * shards, Duration::from_secs(3600));
        assert_eq!(store.shard_count(), shards);
        let n = g.usize_in(1, 32);
        let mut keys = Vec::new();
        for i in 0..n {
            // Derive keys the way the PSK path does, so they spread over
            // shards like real ticket digests.
            let key = psk_store_key(&[i as u8, g.u8(), 0x51]);
            store.put(key.clone(), entry(i as u8));
            keys.push(key);
        }
        for (i, key) in keys.iter().enumerate() {
            let e = store.get(key).expect("inserted key must be visible");
            assert_eq!(e.master[0], i as u8, "keys must not alias across shards");
        }
        let missing = psk_store_key(b"never-inserted");
        assert!(store.get(&missing).is_none());
        let stats = store.stats();
        assert_eq!(stats.inserts, n as u64);
        assert_eq!(stats.hits, n as u64);
        assert_eq!(stats.misses, 1);
        assert_eq!(store.len(), n);
    });
}

// ---------------------------------------------------------------------
// Determinism across the three drivers of the engine's one offload step.
// ---------------------------------------------------------------------

mod drivers {
    use qtls::core::{
        poll_pass, run_sync, start_job, EngineMode, OffloadEngine, StartResult, SubmitQueue,
        WaitCtx,
    };
    use qtls::crypto::ecc::NamedCurve;
    use qtls::crypto::TestRng;
    use qtls::prop::Gen;
    use qtls::qat::{QatConfig, QatDevice};
    use qtls::tls::any_session::AnyServerSession;
    use qtls::tls::client::ClientSession;
    use qtls::tls::provider::{CryptoProvider, OpCounters};
    use qtls::tls::record::RecordCodec;
    use qtls::tls::server::ServerConfig;
    use qtls::tls::suite::{CipherSuite, Version};
    use qtls::tls::tls13::Tls13ClientSession;
    use std::sync::Arc;
    use std::task::Poll;

    /// How the server end's passes are run.
    pub enum Driver {
        /// The synchronous facade over a software provider.
        Sync,
        /// A polled task against a real-compute device, every completion
        /// delivered one sweep late (a spurious poll first).
        Task(Accelerator),
        /// A legacy `start_job` fiber against the same kind of device.
        Fiber(Accelerator),
    }

    /// An async-mode engine with a sweep queue, as a worker builds it.
    pub struct Accelerator {
        /// Owns the engine threads.
        _device: QatDevice,
        engine: Arc<OffloadEngine>,
    }

    impl Accelerator {
        pub fn new() -> Self {
            let device = QatDevice::new(QatConfig::functional_small());
            let engine = Arc::new(OffloadEngine::new(
                device.alloc_instance(),
                EngineMode::Async,
            ));
            engine.attach_submit_queue(Arc::new(SubmitQueue::new()));
            Accelerator {
                _device: device,
                engine,
            }
        }
    }

    impl Driver {
        fn provider(&self) -> CryptoProvider {
            match self {
                Driver::Sync => CryptoProvider::Software,
                Driver::Task(acc) | Driver::Fiber(acc) => {
                    CryptoProvider::offload(Arc::clone(&acc.engine))
                }
            }
        }
    }

    /// One sweep of an event loop with nothing else to do: publish what
    /// was staged, then retrieve until something came back.
    fn sweep_until_delivered(engine: &OffloadEngine) {
        engine.flush_submissions();
        while engine.poll_all() == 0 {
            std::thread::yield_now();
        }
    }

    /// The server end of one connection: handshake control plane, then
    /// the record codec.
    pub struct ServerEnd {
        session: AnyServerSession,
        codec: Option<RecordCodec>,
        provider: CryptoProvider,
        counters: OpCounters,
        rng: TestRng,
        /// Everything this end has put on the wire, in order.
        pub wire: Vec<u8>,
        /// Wire bytes not yet handed to the client.
        unsent: Vec<u8>,
    }

    impl ServerEnd {
        fn new(version: Version, config: Arc<ServerConfig>, driver: &Driver, seed: u64) -> Self {
            ServerEnd {
                session: AnyServerSession::new(version, config, driver.provider(), seed),
                codec: None,
                provider: driver.provider(),
                counters: OpCounters::default(),
                rng: TestRng::new(seed ^ 0xc0dec),
                wire: Vec::new(),
                unsent: Vec::new(),
            }
        }

        pub fn counters(&self) -> (OpCounters, OpCounters) {
            (self.session.counters(), self.counters)
        }

        /// One service pass over `input`: the worker's `service` without
        /// the HTTP layer — every request byte is answered with `reply`.
        async fn pass(mut self, input: Vec<u8>, reply: Vec<u8>) -> Self {
            let mut out = Vec::new();
            match &mut self.codec {
                None => {
                    self.session.feed(&input);
                    self.session.process_async().await.expect("server pass");
                    out = self.session.take_output();
                    if self.session.is_established() {
                        let (secrets, leftover) =
                            self.session.extract_secrets().expect("established");
                        self.codec = Some(RecordCodec::new(secrets, leftover, 4));
                    }
                }
                Some(codec) => {
                    codec.feed(&input);
                    let mut request = Vec::new();
                    codec
                        .open_into_async(&mut request, &self.provider, &mut self.counters)
                        .await
                        .expect("open");
                    if !request.is_empty() {
                        codec.stage(&reply);
                        codec
                            .flush_into_async(
                                &mut out,
                                &self.provider,
                                &mut self.counters,
                                &mut self.rng,
                            )
                            .await
                            .expect("seal");
                    }
                }
            }
            self.wire.extend_from_slice(&out);
            self.unsent.extend_from_slice(&out);
            self
        }

        fn run_pass(self, driver: &Driver, input: Vec<u8>, reply: Vec<u8>) -> Self {
            match driver {
                Driver::Sync => run_sync(self.pass(input, reply)),
                Driver::Task(Accelerator { engine, .. }) => {
                    let wait = Arc::new(WaitCtx::new());
                    let mut pass = Box::pin(self.pass(input, reply));
                    loop {
                        if let Poll::Ready(end) = poll_pass(Some(&wait), pass.as_mut()) {
                            return end;
                        }
                        // One sweep late: the sweep that published the
                        // request polls the pass again with nothing
                        // parked, and only the next one delivers.
                        engine.flush_submissions();
                        assert!(poll_pass(Some(&wait), pass.as_mut()).is_pending());
                        sweep_until_delivered(engine);
                    }
                }
                Driver::Fiber(Accelerator { engine, .. }) => {
                    let mut job = match start_job(move || run_sync(self.pass(input, reply))) {
                        StartResult::Finished(end) => return end,
                        StartResult::Paused(job) => job,
                    };
                    loop {
                        sweep_until_delivered(engine);
                        match job.resume() {
                            StartResult::Finished(end) => return end,
                            StartResult::Paused(again) => job = again,
                        }
                    }
                }
            }
        }
    }

    /// A software client of either version, reduced to what the script
    /// needs.
    enum ClientEnd {
        V12(Box<ClientSession>),
        V13(Box<Tls13ClientSession>),
    }

    macro_rules! each {
        ($self:expr, $s:ident => $body:expr) => {
            match $self {
                ClientEnd::V12($s) => $body,
                ClientEnd::V13($s) => $body,
            }
        };
    }

    /// What one scripted connection looks like from the server's side.
    #[derive(Debug, PartialEq)]
    pub struct Transcript {
        pub wire: Vec<u8>,
        pub session_ops: OpCounters,
        pub data_plane_ops: OpCounters,
        pub resumed: bool,
    }

    /// The inputs of one property case.
    pub struct Script {
        pub version: Version,
        pub suite: CipherSuite,
        pub seed: u64,
        pub requests: Vec<Vec<u8>>,
        pub replies: Vec<Vec<u8>>,
    }

    impl Script {
        pub fn generate(g: &mut Gen) -> Self {
            let version = if g.bool() {
                Version::Tls12
            } else {
                Version::Tls13
            };
            let suite = match (version, g.usize_in(0, 3)) {
                (Version::Tls12, 0) => CipherSuite::TlsRsa,
                (_, 1) => CipherSuite::EcdheEcdsa,
                _ => CipherSuite::EcdheRsa,
            };
            Script {
                version,
                suite,
                seed: g.u64(),
                requests: (0..3).map(|_| g.bytes_in(1, 600)).collect(),
                // Up to five records: one, two batches of four, or less.
                replies: (0..3).map(|_| g.bytes_in(1, 80_000)).collect(),
            }
        }

        /// Two connections against one server config — a full handshake,
        /// then a resumed one — each followed by the three requests.
        pub fn run(&self, driver: &Driver) -> Vec<Transcript> {
            let config = ServerConfig::test_default();
            let mut resume12 = None;
            let mut resume13 = None;
            (0..2u64)
                .map(|conn| {
                    let seed = self.seed.wrapping_add(conn);
                    let mut client = match self.version {
                        Version::Tls12 => ClientEnd::V12(Box::new(ClientSession::new(
                            CryptoProvider::Software,
                            self.suite,
                            NamedCurve::P256,
                            resume12.take(),
                            seed ^ 0xc11e,
                        ))),
                        Version::Tls13 => {
                            ClientEnd::V13(Box::new(Tls13ClientSession::new_resuming(
                                CryptoProvider::Software,
                                self.suite,
                                NamedCurve::P256,
                                resume13.take(),
                                seed ^ 0xc11e,
                            )))
                        }
                    };
                    let mut server =
                        ServerEnd::new(self.version, Arc::clone(&config), driver, seed);
                    each!(&mut client, c => c.start()).expect("client hello");
                    // Handshake: alternate flights until both sides rest.
                    loop {
                        let flight = each!(&mut client, c => c.take_output());
                        if flight.is_empty() {
                            break;
                        }
                        server = server.run_pass(driver, flight, Vec::new());
                        let reply = std::mem::take(&mut server.unsent);
                        each!(&mut client, c => { c.feed(&reply); c.process() })
                            .expect("client handshake");
                    }
                    assert!(each!(&client, c => c.is_established()));
                    for (request, reply) in self.requests.iter().zip(&self.replies) {
                        each!(&mut client, c => c.write_app_data(request)).expect("request");
                        let flight = each!(&mut client, c => c.take_output());
                        server = server.run_pass(driver, flight, reply.clone());
                        let sealed = std::mem::take(&mut server.unsent);
                        each!(&mut client, c => { c.feed(&sealed); c.process() })
                            .expect("client read");
                        let mut got = Vec::new();
                        while let Some(chunk) = each!(&mut client, c => c.read_app_data()) {
                            got.extend_from_slice(&chunk);
                        }
                        assert_eq!(&got, reply, "the client reads what the server sealed");
                    }
                    match &client {
                        ClientEnd::V12(c) => resume12 = c.export_resume_data(),
                        ClientEnd::V13(c) => resume13 = c.export_resume_data(),
                    }
                    let (session_ops, data_plane_ops) = server.counters();
                    Transcript {
                        wire: server.wire,
                        session_ops,
                        data_plane_ops,
                        resumed: each!(&client, c => c.was_resumed()),
                    }
                })
                .collect()
        }
    }
}

/// The three drivers of the engine's one offload step are
/// observationally equal: for any seeded script (version, suite, a full
/// then a resumed handshake, three requests each), the server's wire
/// bytes and operation counters are identical whether its passes run
/// through the synchronous facade in software, as a task polled against
/// a device whose completions arrive a sweep late, or inside a legacy
/// fiber job.
#[test]
fn sync_task_and_fiber_drivers_are_observationally_equal() {
    use drivers::{Accelerator, Driver, Script};
    prop::check(
        "sync_task_and_fiber_drivers_are_observationally_equal",
        24,
        |g| {
            let script = Script::generate(g);
            let sync = script.run(&Driver::Sync);
            assert_eq!(
                sync.iter().map(|t| t.resumed).collect::<Vec<_>>(),
                [false, true],
                "{:?} {:?}",
                script.version,
                script.suite
            );
            assert!(sync[0].data_plane_ops.cipher >= 6, "3 opens + 3 seals");
            let task = script.run(&Driver::Task(Accelerator::new()));
            assert!(sync == task, "task driver diverged from the sync facade");
            let fiber = script.run(&Driver::Fiber(Accelerator::new()));
            assert!(sync == fiber, "fiber driver diverged from the sync facade");
        },
    );
}
