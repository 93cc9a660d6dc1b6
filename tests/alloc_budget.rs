//! Allocation budget of the production data path: one established QTLS
//! keep-alive connection, `GET /1kb` after `GET /1kb`, driven
//! single-threaded through `Worker::run_iteration`. The count is the
//! worker thread's own — a thread-local counter behind the global
//! allocator, read around each `run_iteration` — so the client side of
//! the exchange and the device's engine threads stay out of it.
//!
//! A request is one service pass of a task that was boxed once, at
//! accept, with one wait context: nothing per pass is allocated for the
//! pause/resume machinery itself (the boxed pass future and its
//! `Arc<WaitCtx>` were two allocations per request until PR 20;
//! EXPERIMENTS.md "A connection is one task").
//!
//! A second case pins the asymmetric primitives the handshake leans on —
//! one RSA-2048 signature, one P-256 key pair — so the allocator cannot
//! creep back into the exponentiation loop or the comb walk
//! (DESIGN.md §19).

use qtls::core::OffloadProfile;
use qtls::crypto::ecc::NamedCurve;
use qtls::qat::{QatConfig, QatDevice};
use qtls::server::http::synthetic_body;
use qtls::server::{VListener, VSocket, Worker, WorkerConfig};
use qtls::tls::client::ClientSession;
use qtls::tls::provider::CryptoProvider;
use qtls::tls::CipherSuite;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

thread_local! {
    /// Allocations (fresh and grown) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // A thread being torn down has no counter left; it is not the one
    // under test.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` with no destructor, so touching it allocates
// nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed on as they came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Worker-thread allocations per `GET /1kb` on an established QTLS
/// keep-alive connection (28 at the parent of PR 20).
const ALLOCS_PER_REQUEST: u64 = 26;

struct Rig {
    worker: Worker,
    client: ClientSession,
    sock: VSocket,
    /// Allocations made inside `run_iteration` so far.
    worker_allocs: u64,
}

impl Rig {
    /// Shuttle bytes between the client and the worker until `done`.
    fn pump(&mut self, mut done: impl FnMut(&mut ClientSession, &Worker) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let out = self.client.take_output();
            if !out.is_empty() {
                self.sock.write(&out).expect("server end open");
            }
            let before = ALLOCS.get();
            self.worker.run_iteration();
            self.worker_allocs += ALLOCS.get() - before;
            if let Ok(bytes) = self.sock.read_all() {
                self.client.feed(&bytes);
                self.client.process().expect("client side of the exchange");
            }
            if done(&mut self.client, &self.worker) {
                return;
            }
            assert!(Instant::now() < deadline, "exchange stalled");
            std::thread::yield_now();
        }
    }

    /// One keep-alive `GET /1kb`; returns what the worker allocated.
    fn get(&mut self) -> u64 {
        let request = b"GET /1kb HTTP/1.1\r\nHost: qtls\r\nConnection: keep-alive\r\n\r\n";
        self.client.write_app_data(request).expect("request");
        let before = self.worker_allocs;
        let mut response = Vec::new();
        self.pump(|client, _| {
            while let Some(chunk) = client.read_app_data() {
                response.extend_from_slice(&chunk);
            }
            response.ends_with(&synthetic_body(1024))
        });
        assert!(response.starts_with(b"HTTP/1.1 200 OK\r\n"));
        self.worker_allocs - before
    }
}

#[test]
fn keepalive_request_allocations_are_pinned() {
    let device = QatDevice::new(QatConfig::functional_small());
    let listener = Arc::new(VListener::new());
    let worker = Worker::new(
        Arc::clone(&listener),
        Some(&device),
        WorkerConfig::new(OffloadProfile::Qtls),
    );
    let mut client = ClientSession::new(
        CryptoProvider::Software,
        CipherSuite::EcdheRsa,
        NamedCurve::P256,
        None,
        0xa110c,
    );
    client.start().expect("client hello");
    let mut rig = Rig {
        worker,
        client,
        sock: listener.connect(),
        worker_allocs: 0,
    };
    rig.pump(|client, worker| client.is_established() && worker.stats.handshakes == 1);
    // The first requests grow the connection's buffers to their working
    // size; from then on every request costs the same.
    for _ in 0..8 {
        rig.get();
    }
    let counts: Vec<u64> = (0..200).map(|_| rig.get()).collect();
    assert_eq!(rig.worker.stats.errors, 0);
    assert_eq!(rig.worker.stats.requests, 208);
    assert!(
        counts.iter().all(|&n| n == ALLOCS_PER_REQUEST),
        "worker-thread allocations per request moved off {ALLOCS_PER_REQUEST}: {counts:?}"
    );
}

/// Allocations of `f` on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.get();
    let out = f();
    let count = ALLOCS.get() - before;
    drop(out);
    count
}

/// Allocations per RSA-2048 `sign_pkcs1_sha256` of [`SIGNED`]: the
/// encoded message, the two CRT halves (a reduced input, one scratch
/// block and one result each), the recombination's bignums and the
/// signature bytes. The recombination's `Bn` steps make the count
/// data-dependent (34 to 40 over other messages), so one message is
/// pinned. It was ≈ 7 400 while `mod_exp` allocated per Montgomery
/// multiplication.
const ALLOCS_PER_RSA_SIGN: u64 = 34;
const SIGNED: &[u8] = b"server key exchange";

/// Allocations per `generate_keypair(P256)`: the scalar's draw and
/// range shift, and the public point's two coordinates. The comb walk
/// and the field inversion allocate nothing.
const ALLOCS_PER_P256_KEYGEN: u64 = 8;

#[test]
fn asymmetric_primitive_allocations_are_pinned() {
    use qtls::crypto::ecc::generate_keypair;
    use qtls::crypto::test_keys::test_rsa_2048;
    use qtls::crypto::TestRng;

    // Generating the key and building the curve's comb table are set-up,
    // not part of any operation.
    let key = test_rsa_2048();
    let mut rng = TestRng::new(0xa110c);
    generate_keypair(NamedCurve::P256, &mut rng);

    let signs: Vec<u64> = (0..16)
        .map(|_| allocations_of(|| key.sign_pkcs1_sha256(SIGNED).expect("2048-bit key")))
        .collect();
    assert!(
        signs.iter().all(|&n| n == ALLOCS_PER_RSA_SIGN),
        "allocations per RSA-2048 signature moved off {ALLOCS_PER_RSA_SIGN}: {signs:?}"
    );
    let keygens: Vec<u64> = (0..16)
        .map(|_| allocations_of(|| generate_keypair(NamedCurve::P256, &mut rng)))
        .collect();
    assert!(
        keygens.iter().all(|&n| n == ALLOCS_PER_P256_KEYGEN),
        "allocations per P-256 key pair moved off {ALLOCS_PER_P256_KEYGEN}: {keygens:?}"
    );
}
