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
//! one RSA-2048 signature, one P-256 key pair, one P-256 ECDH — so the
//! allocator cannot creep back into the exponentiation loop, the comb
//! walk, the wNAF pass or the field kernels under them (DESIGN.md §19,
//! §20).

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
    /// Bytes those allocations asked for: a fresh block's size, a grown
    /// block's new size.
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    // A thread being torn down has no counter left; it is not the one
    // under test.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = ALLOC_BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` with no destructor, so touching it allocates
// nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on as they came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Worker-thread allocations per `GET /1kb` on an established QTLS
/// keep-alive connection (28 while each pass boxed a future and a wait
/// context; 26 while every sweep that delivered a completion collected
/// the async queue into a fresh `Vec` — one per offload wait, two per
/// request; 24 while the request and the 1 KB response each went to the
/// device as a batch of one descriptor; 11 while every request rebuilt its
/// body, copied it behind the head into a fresh response, and opened the
/// request into a fresh buffer; 5 while every flush took the codec's list
/// of staged fragments with it, so the next request regrew the list).
/// Under the default offload rule (DESIGN.md §21) the request is opened
/// in place in the codec's input buffer and the response sealed in place
/// in its pooled fragments on the worker; the body is the store's, by
/// reference.
const ALLOCS_PER_REQUEST: u64 = 4;

/// Client-thread allocations per keep-alive `GET /1kb` through
/// `ClientSession`: the request's write and the response's read. No
/// other test covers the client, the larger share of the benchmark's
/// CPU. The write seals the request in place in its record layer's
/// pooled buffer and frames it into the session's output, which
/// `take_output` hands over whole, so each write allocates it afresh
/// (once: the frame reserves its record's length); the read opens the
/// response in place in the input buffer and hands its content over as a
/// fresh `Vec`. It was 7 while the write sealed into a fresh ciphertext,
/// copied it behind the IV into a fresh body, framed that into a fresh
/// record and grew the session's output while copying it out.
const CLIENT_ALLOCS_PER_REQUEST: u64 = 2;

/// Worker-thread bytes allocated per `GET /1024kb` beyond the wire
/// bytes of its response. The response's one fresh buffer is the pipe's
/// (`VSocket::write` into a pipe the client emptied, the kernel socket
/// buffer's stand-in); the body is the store's shared buffer, staged into
/// the codec's pooled fragments and framed into the connection's kept
/// wire buffer, so what is left is the request's small allocations.
const BULK_SLACK_BYTES: u64 = 64 * 1024;

struct Rig {
    worker: Worker,
    client: ClientSession,
    sock: VSocket,
    /// Allocations made inside `run_iteration` so far, and their bytes.
    worker_allocs: u64,
    worker_bytes: u64,
    /// Allocations made inside the client's calls so far.
    client_allocs: u64,
    /// Bytes the worker wrote to the socket so far.
    wire_bytes: u64,
}

/// What the worker spent on one request.
struct Spent {
    allocs: u64,
    client_allocs: u64,
    bytes: u64,
    wire_bytes: u64,
}

impl Rig {
    /// A QTLS worker with one established keep-alive connection.
    fn established(device: &QatDevice) -> Rig {
        let listener = Arc::new(VListener::new());
        let worker = Worker::new(
            Arc::clone(&listener),
            Some(device),
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
            worker_bytes: 0,
            client_allocs: 0,
            wire_bytes: 0,
        };
        rig.pump(|client, worker| client.is_established() && worker.stats.handshakes == 1);
        rig
    }

    /// `f` on the client, its allocations counted.
    fn on_client<T>(&mut self, f: impl FnOnce(&mut ClientSession) -> T) -> T {
        let allocs = ALLOCS.get();
        let out = f(&mut self.client);
        self.client_allocs += ALLOCS.get() - allocs;
        out
    }

    /// Shuttle bytes between the client and the worker until `done`.
    fn pump(&mut self, mut done: impl FnMut(&mut ClientSession, &Worker) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let out = self.on_client(ClientSession::take_output);
            if !out.is_empty() {
                self.sock.write(&out).expect("server end open");
            }
            let (allocs, bytes) = (ALLOCS.get(), ALLOC_BYTES.get());
            self.worker.run_iteration();
            self.worker_allocs += ALLOCS.get() - allocs;
            self.worker_bytes += ALLOC_BYTES.get() - bytes;
            if let Ok(bytes) = self.sock.read_all() {
                self.wire_bytes += bytes.len() as u64;
                self.on_client(|client| {
                    client.feed(&bytes);
                    client.process()
                })
                .expect("client side of the exchange");
            }
            if done(&mut self.client, &self.worker) {
                return;
            }
            assert!(Instant::now() < deadline, "exchange stalled");
            std::thread::yield_now();
        }
    }

    /// One keep-alive `GET /<kb>kb`; returns what the worker spent on it.
    fn get(&mut self, kb: usize) -> Spent {
        let request =
            format!("GET /{kb}kb HTTP/1.1\r\nHost: qtls\r\nConnection: keep-alive\r\n\r\n");
        let before = (
            self.worker_allocs,
            self.worker_bytes,
            self.wire_bytes,
            self.client_allocs,
        );
        self.on_client(|client| client.write_app_data(request.as_bytes()))
            .expect("request");
        let body = synthetic_body(kb * 1024);
        let mut response = Vec::new();
        self.pump(|client, _| {
            while let Some(chunk) = client.read_app_data() {
                response.extend_from_slice(&chunk);
            }
            response.ends_with(&body)
        });
        assert!(response.starts_with(b"HTTP/1.1 200 OK\r\n"));
        Spent {
            allocs: self.worker_allocs - before.0,
            client_allocs: self.client_allocs - before.3,
            bytes: self.worker_bytes - before.1,
            wire_bytes: self.wire_bytes - before.2,
        }
    }
}

#[test]
fn keepalive_request_allocations_are_pinned() {
    let device = QatDevice::new(QatConfig::functional_small());
    let mut rig = Rig::established(&device);
    // The first requests grow the connection's buffers to their working
    // size; from then on every request costs the same.
    for _ in 0..8 {
        rig.get(1);
    }
    let counts: Vec<u64> = (0..200).map(|_| rig.get(1).allocs).collect();
    assert_eq!(rig.worker.stats.errors, 0);
    assert_eq!(rig.worker.stats.requests, 208);
    assert!(
        counts.iter().all(|&n| n == ALLOCS_PER_REQUEST),
        "worker-thread allocations per request moved off {ALLOCS_PER_REQUEST}: {counts:?}"
    );
}

#[test]
fn keepalive_client_allocations_are_pinned() {
    let device = QatDevice::new(QatConfig::functional_small());
    let mut rig = Rig::established(&device);
    for _ in 0..8 {
        rig.get(1);
    }
    let counts: Vec<u64> = (0..200).map(|_| rig.get(1).client_allocs).collect();
    assert_eq!(rig.worker.stats.requests, 208);
    assert!(
        counts.iter().all(|&n| n == CLIENT_ALLOCS_PER_REQUEST),
        "client allocations per request moved off {CLIENT_ALLOCS_PER_REQUEST}: {counts:?}"
    );
}

#[test]
fn a_mib_response_allocates_only_the_socket_buffer() {
    let device = QatDevice::new(QatConfig::functional_small());
    let mut rig = Rig::established(&device);
    // Warm: the store's shared buffer, the codec's pool and the wire
    // buffer reach their working size on the first requests.
    for _ in 0..3 {
        rig.get(1024);
    }
    for i in 0..8 {
        let spent = rig.get(1024);
        eprintln!(
            "GET /1024kb: {} bytes in {} allocations for {} wire bytes",
            spent.bytes, spent.allocs, spent.wire_bytes
        );
        assert!(
            spent.wire_bytes > 1 << 20,
            "request {i}: {} wire bytes",
            spent.wire_bytes
        );
        assert!(
            spent.bytes <= spent.wire_bytes + BULK_SLACK_BYTES,
            "request {i}: the worker allocated {} bytes ({} times) for a {}-byte response",
            spent.bytes,
            spent.allocs,
            spent.wire_bytes
        );
    }
    assert_eq!(rig.worker.stats.errors, 0);
    assert_eq!(rig.worker.stats.requests, 11);
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
/// encoded message, the two CRT halves (a reduced input and a result
/// each; their table and accumulators live on the stack), the
/// recombination's bignums and the signature bytes. The recombination's
/// `Bn` steps make the count data-dependent, so one message is pinned.
/// It was ≈ 7 400 while `mod_exp` allocated per Montgomery
/// multiplication, and 34 while each half ran `MontCtx::mod_exp` with a
/// scratch block of its own — which it still does on a CPU without
/// AVX-512 IFMA ([`ALLOCS_PER_RSA_SIGN_PORTABLE`]).
const ALLOCS_PER_RSA_SIGN: u64 = 32;
const ALLOCS_PER_RSA_SIGN_PORTABLE: u64 = 34;
const SIGNED: &[u8] = b"server key exchange";

/// Allocations per `generate_keypair(P256)`: the scalar's draw and
/// range shift, and the public point's two coordinates. The comb walk
/// and the field inversion allocate nothing.
const ALLOCS_PER_P256_KEYGEN: u64 = 8;

/// Allocations per `ecdh(P256, ..)` on a fresh peer: the scalar's wNAF
/// digits, the shared point's two coordinates, and the secret's bytes
/// (drawn, then padded to the field width). The peer's validation, the
/// table of its odd multiples, the doubling chain and the inversion
/// allocate nothing.
const ALLOCS_PER_P256_ECDH: u64 = 5;

#[test]
fn asymmetric_primitive_allocations_are_pinned() {
    use qtls::crypto::ecc::{ecdh, generate_keypair};
    use qtls::crypto::test_keys::test_rsa_2048;
    use qtls::crypto::TestRng;

    // Generating the key and building the curve's comb table are set-up,
    // not part of any operation.
    let key = test_rsa_2048();
    let mut rng = TestRng::new(0xa110c);
    generate_keypair(NamedCurve::P256, &mut rng);

    let pinned = if key.raw_uses_ifma() {
        ALLOCS_PER_RSA_SIGN
    } else {
        ALLOCS_PER_RSA_SIGN_PORTABLE
    };
    let signs: Vec<u64> = (0..16)
        .map(|_| allocations_of(|| key.sign_pkcs1_sha256(SIGNED).expect("2048-bit key")))
        .collect();
    assert!(
        signs.iter().all(|&n| n == pinned),
        "allocations per RSA-2048 signature moved off {pinned}: {signs:?}"
    );
    let keygens: Vec<u64> = (0..16)
        .map(|_| allocations_of(|| generate_keypair(NamedCurve::P256, &mut rng)))
        .collect();
    assert!(
        keygens.iter().all(|&n| n == ALLOCS_PER_P256_KEYGEN),
        "allocations per P-256 key pair moved off {ALLOCS_PER_P256_KEYGEN}: {keygens:?}"
    );
    let ecdhs: Vec<u64> = (0..16)
        .map(|_| {
            let (ours, peer) = (
                generate_keypair(NamedCurve::P256, &mut rng),
                generate_keypair(NamedCurve::P256, &mut rng),
            );
            allocations_of(|| ecdh(NamedCurve::P256, &ours.private, &peer.public))
        })
        .collect();
    assert!(
        ecdhs.iter().all(|&n| n == ALLOCS_PER_P256_ECDH),
        "allocations per P-256 ECDH moved off {ALLOCS_PER_P256_ECDH}: {ecdhs:?}"
    );
}

/// Engine-side allocations of one doorbell's 16 records sealed as one
/// run (`execute_run`, what an engine thread does with a batch it pops)
/// beyond the same 16 sealed one at a time through `execute_owned`. The
/// per-record seal allocates nothing (the codec's buffers carry their
/// tag and pad room), and neither does the multi-buffer pass: its lanes,
/// hash blocks and verdicts live on the stack (DESIGN.md §20).
const EXTRA_ALLOCS_PER_BATCHED_SEAL: u64 = 0;

#[test]
fn a_batched_seal_allocates_nothing_beyond_the_per_record_seals() {
    use qtls::crypto::{cbc_hmac, CbcHmacSha1};
    use qtls::qat::request::{execute_owned, execute_run};
    use qtls::qat::{CryptoOp, CryptoRequest};

    let cipher = Arc::new(CbcHmacSha1::new(&[1; 16], &[2; 20]));
    let request = |i: u64| {
        let mut buf = Vec::with_capacity(16 * 1024 + 64);
        buf.extend_from_slice(&synthetic_body(16 * 1024));
        CryptoRequest {
            cookie: i,
            op: CryptoOp::CipherSealInPlace {
                cipher: Arc::clone(&cipher),
                iv: [3; 16],
                buf,
                aad: [4; 11],
            },
            callback: Box::new(|_| {}),
            trace: Default::default(),
        }
    };
    let per_record: u64 = (0..16)
        .map(|i| {
            let op = request(i).op;
            allocations_of(|| execute_owned(op))
        })
        .sum();
    let mut run: Vec<CryptoRequest> = (0..16).map(request).collect();
    let mut responses = Vec::with_capacity(16);
    let passes = cbc_hmac::multi_buffer_passes();
    let batched = allocations_of(|| execute_run(&mut run, |resp| responses.push(resp)));
    assert_eq!(responses.len(), 16);
    assert!(responses.iter().all(|r| r.result.is_ok()));
    eprintln!(
        "16 seals: {per_record} allocations one at a time, {batched} as one run \
         ({} multi-buffer pass)",
        cbc_hmac::multi_buffer_passes() - passes
    );
    assert_eq!(
        batched,
        per_record + EXTRA_ALLOCS_PER_BATCHED_SEAL,
        "a batched seal allocates beyond its per-record seals"
    );
}
