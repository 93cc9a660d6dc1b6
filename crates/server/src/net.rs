//! In-memory network substrate: non-blocking virtual sockets with the
//! semantics the event-driven architecture needs (readable/writable
//! readiness, `WouldBlock`, FIN/close) — standing in for the testbed's
//! TCP over back-to-back 40 GbE NICs.
//!
//! Readiness is a waker, not a scan: the task reading a socket arms a
//! [`std::task::Waker`] on it ([`VSocket::set_read_waker`]), which the
//! next bytes or close take and wake once the event is visible. A
//! listener announces arrivals to the accepting loop's [`Parker`], so a
//! loop with nothing to do can sleep.
//!
//! A cluster's front listener is *routed*: it has no backlog of its
//! own, and [`VListener::connect_from`] hands the new connection to a
//! worker's backlog before it returns, the way a kernel picks a
//! `SO_REUSEPORT` socket while it handles the SYN.

use crate::cluster::Router;
use qtls_sync::{Mutex, MutexGuard, Parker, WakeSlot};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::Waker;

/// One direction's byte pipe.
struct Pipe {
    buf: Mutex<Buffer>,
    closed: AtomicBool,
}

/// A pipe's bytes, and the reader waiting for more under the same lock,
/// so arming the reader and checking for bytes are one step.
#[derive(Default)]
struct Buffer {
    bytes: VecDeque<u8>,
    /// The reader's waker, taken by the next write or close.
    reader: Option<Waker>,
}

impl Pipe {
    fn new() -> Arc<Self> {
        Arc::new(Pipe {
            buf: Mutex::new(Buffer::default()),
            closed: AtomicBool::new(false),
        })
    }

    /// Wake the armed reader, if any, with the pipe unlocked.
    fn announce(mut buf: MutexGuard<'_, Buffer>) {
        let reader = buf.reader.take();
        drop(buf);
        if let Some(reader) = reader {
            reader.wake();
        }
    }
}

/// Non-blocking socket I/O errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SockError {
    /// No bytes available / peer buffer full (never full here, reads only).
    WouldBlock,
    /// Peer closed its end.
    Closed,
}

/// A non-blocking, in-memory stream socket.
pub struct VSocket {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
    /// The peer's address (0 = unknown) — the source-address bit the
    /// admission layer binds retry tokens to.
    peer: u64,
    /// Trace stamp: when this server-side socket entered a listener
    /// backlog (0 = unstamped; only set while connection tracing is on,
    /// see [`VListener::set_queue_timestamps`]).
    queued_ns: u64,
    /// Trace annotation: dispatch probes the cluster master spent
    /// picking this socket's worker.
    probes: u32,
    /// Trace annotation: the socket reached its worker by work
    /// stealing, not dispatch.
    stolen: bool,
}

impl VSocket {
    /// A connected socket pair.
    pub fn pair() -> (VSocket, VSocket) {
        Self::pair_from(0)
    }

    /// A connected socket pair where the client end carries address
    /// `client_addr`: the returned `(client, server)` server end
    /// reports it as [`VSocket::peer_addr`].
    pub fn pair_from(client_addr: u64) -> (VSocket, VSocket) {
        let a = Pipe::new();
        let b = Pipe::new();
        (
            VSocket {
                rx: Arc::clone(&a),
                tx: Arc::clone(&b),
                peer: 0,
                queued_ns: 0,
                probes: 0,
                stolen: false,
            },
            VSocket {
                rx: b,
                tx: a,
                peer: client_addr,
                queued_ns: 0,
                probes: 0,
                stolen: false,
            },
        )
    }

    /// The peer's address (0 when the peer did not declare one).
    pub fn peer_addr(&self) -> u64 {
        self.peer
    }

    /// When this socket entered a listener backlog (0 = unstamped).
    pub fn queued_ns(&self) -> u64 {
        self.queued_ns
    }

    /// Dispatch probes spent routing this socket (trace annotation).
    pub fn dispatch_probes(&self) -> u32 {
        self.probes
    }

    /// Annotate the dispatch probe count (cluster master).
    pub fn set_dispatch_probes(&mut self, probes: u32) {
        self.probes = probes;
    }

    /// Did this socket arrive at its worker via work stealing?
    pub fn stolen(&self) -> bool {
        self.stolen
    }

    /// Arm `waker` to be woken once, by the peer's next write or close —
    /// unless bytes or a close are already here: then arm nothing and
    /// return `false`. The check and the arming are one step, so no
    /// event slips between them. Firing takes the waker (std's one-shot
    /// contract); arming again replaces an armed one.
    pub fn set_read_waker(&self, waker: &Waker) -> bool {
        let mut rx = self.rx.buf.lock();
        if !rx.bytes.is_empty() || self.rx.closed.load(Ordering::Acquire) {
            return false;
        }
        rx.reader = Some(waker.clone());
        true
    }

    /// Disarm: take back a waker that has not fired.
    pub fn take_read_waker(&self) -> Option<Waker> {
        self.rx.buf.lock().reader.take()
    }

    /// Read up to `buf.len()` bytes (non-blocking).
    pub fn read(&self, buf: &mut [u8]) -> Result<usize, SockError> {
        let mut rx = self.rx.buf.lock();
        if rx.bytes.is_empty() {
            if self.rx.closed.load(Ordering::Acquire) {
                return Err(SockError::Closed);
            }
            return Err(SockError::WouldBlock);
        }
        // The ring holds its bytes as at most two runs: copy each.
        let n = buf.len().min(rx.bytes.len());
        let (front, back) = rx.bytes.as_slices();
        let split = n.min(front.len());
        buf[..split].copy_from_slice(&front[..split]);
        buf[split..n].copy_from_slice(&back[..n - split]);
        rx.bytes.drain(..n);
        Ok(n)
    }

    /// Drain everything currently readable. The pipe's buffer itself is
    /// handed over (one copy only if its bytes wrap the ring); the next
    /// write starts a fresh one.
    pub fn read_all(&self) -> Result<Vec<u8>, SockError> {
        let mut rx = self.rx.buf.lock();
        if rx.bytes.is_empty() {
            if self.rx.closed.load(Ordering::Acquire) {
                return Err(SockError::Closed);
            }
            return Err(SockError::WouldBlock);
        }
        Ok(Vec::from(std::mem::take(&mut rx.bytes)))
    }

    /// Write all bytes (the in-memory pipe is unbounded).
    pub fn write(&self, data: &[u8]) -> Result<(), SockError> {
        if self.tx.closed.load(Ordering::Acquire) {
            return Err(SockError::Closed);
        }
        let mut tx = self.tx.buf.lock();
        tx.bytes.extend(data);
        Pipe::announce(tx);
        Ok(())
    }

    /// Any bytes waiting to be read?
    pub fn readable(&self) -> bool {
        !self.rx.buf.lock().bytes.is_empty()
    }

    /// Has the peer closed (and no bytes remain)?
    pub fn peer_closed(&self) -> bool {
        self.rx.closed.load(Ordering::Acquire) && self.rx.buf.lock().bytes.is_empty()
    }

    /// Close the socket (both directions; buffered bytes remain readable
    /// by the peer).
    pub fn close(&self) {
        self.tx.closed.store(true, Ordering::Release);
        self.rx.closed.store(true, Ordering::Release);
        Pipe::announce(self.tx.buf.lock());
    }
}

impl Drop for VSocket {
    fn drop(&mut self) {
        self.close();
    }
}

/// Default accept-backlog capacity (the `listen()` backlog role).
pub const DEFAULT_BACKLOG: usize = 4096;

/// A listening endpoint accepting virtual connections. The backlog is
/// bounded: connections arriving at a full queue are shed immediately
/// (the client's end reads `Closed`, like a SYN dropped at a full
/// accept queue) and counted, so a handshake flood cannot grow the
/// queue without bound.
pub struct VListener {
    backlog: Mutex<VecDeque<VSocket>>,
    /// The event loop accepting from this listener, woken whenever the
    /// backlog gains an entry so it can sleep when idle.
    acceptor: WakeSlot,
    cap: usize,
    rejected: AtomicU64,
    /// When set, sockets entering the backlog are stamped with
    /// [`qtls_core::obs::now_ns`] so the accepting worker can attribute
    /// backlog wait time. Off by default: the accept path then performs
    /// one relaxed load and no clock reads.
    stamp: AtomicBool,
    /// Routed mode: the cluster's dispatch, run by every connect in
    /// place of queueing on this listener's (then unused) backlog.
    router: Option<Arc<Router>>,
}

impl Default for VListener {
    fn default() -> Self {
        Self::new()
    }
}

impl VListener {
    /// New listener with the default backlog capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_BACKLOG)
    }

    /// New listener shedding connections beyond `cap` pending accepts.
    pub fn with_capacity(cap: usize) -> Self {
        VListener {
            backlog: Mutex::new(VecDeque::new()),
            acceptor: WakeSlot::new(),
            cap: cap.max(1),
            rejected: AtomicU64::new(0),
            stamp: AtomicBool::new(false),
            router: None,
        }
    }

    /// A front listener whose connects `router` places on a worker's
    /// backlog before they return; nothing ever queues here.
    pub(crate) fn routed(router: Arc<Router>) -> Self {
        VListener {
            router: Some(router),
            ..Self::new()
        }
    }

    /// Enable backlog-entry timestamping (connection tracing).
    pub fn set_queue_timestamps(&self, on: bool) {
        self.stamp.store(on, Ordering::Relaxed);
    }

    /// Wake `waker` whenever the backlog gains an entry (replaces any
    /// previous registration).
    pub fn set_accept_waker(&self, waker: Arc<Parker>) {
        self.acceptor.set(waker);
    }

    /// Announce a backlog entry that is already queued.
    fn announce_arrival(&self) {
        self.acceptor.wake();
    }

    /// Client side: connect, returning the client socket.
    pub fn connect(&self) -> VSocket {
        self.connect_from(0)
    }

    /// Connect declaring the client's address `addr` (what the server
    /// side will see as [`VSocket::peer_addr`]). At a full backlog the
    /// connection is shed: the returned client socket reads `Closed`.
    /// On a routed listener the connecting thread runs the dispatch
    /// itself, so the connection is on a worker's backlog, shed or
    /// refused when this returns.
    pub fn connect_from(&self, addr: u64) -> VSocket {
        let (client, mut server) = VSocket::pair_from(addr);
        if self.stamp.load(Ordering::Relaxed) {
            server.queued_ns = qtls_core::obs::now_ns();
        }
        if let Some(router) = &self.router {
            router.route(server);
            return client;
        }
        let mut backlog = self.backlog.lock();
        if backlog.len() >= self.cap {
            drop(backlog);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            // Dropping the server end closes it; the client observes
            // the refusal on its first read.
            return client;
        }
        backlog.push_back(server);
        drop(backlog);
        self.announce_arrival();
        client
    }

    /// Server side: accept a pending connection (non-blocking).
    pub fn accept(&self) -> Option<VSocket> {
        self.backlog.lock().pop_front()
    }

    /// Inject an already-established server-side socket (used by the
    /// cluster's router to balance connections to workers). At a full
    /// backlog the socket is handed back so the router can retry
    /// another worker or shed it knowingly — never a silent drop.
    pub fn inject(&self, mut sock: VSocket) -> Result<(), VSocket> {
        if sock.queued_ns == 0 && self.stamp.load(Ordering::Relaxed) {
            sock.queued_ns = qtls_core::obs::now_ns();
        }
        let mut backlog = self.backlog.lock();
        if backlog.len() >= self.cap {
            drop(backlog);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(sock);
        }
        backlog.push_back(sock);
        drop(backlog);
        self.announce_arrival();
        Ok(())
    }

    /// Pending connections.
    pub fn pending(&self) -> usize {
        self.backlog.lock().len()
    }

    /// Backlog capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Connections shed because the backlog was full.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Steal-half protocol: remove up to `max` sockets from the BACK of
    /// the backlog — at most half of what is queued, so the victim
    /// keeps the older (front) half it is about to accept — and hand
    /// them to the caller intact. An idle worker uses this to take work
    /// from the most-loaded sibling's accept queue; nothing is closed
    /// or dropped, so socket conservation holds by construction.
    pub fn steal_half(&self, max: usize) -> Vec<VSocket> {
        let mut backlog = self.backlog.lock();
        let len = backlog.len();
        let take = (len / 2).min(max);
        backlog
            .drain(len - take..)
            .map(|mut sock| {
                sock.stolen = true;
                sock
            })
            .collect()
    }

    /// Drain every still-queued connection, closing each, and return
    /// how many were dropped — shutdown accounting for sockets that
    /// were dispatched but never accepted.
    pub fn drain(&self) -> u64 {
        let drained: Vec<VSocket> = self.backlog.lock().drain(..).collect();
        let n = drained.len() as u64;
        for sock in drained {
            sock.close();
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_bidirectional() {
        let (a, b) = VSocket::pair();
        a.write(b"ping").unwrap();
        assert!(b.readable());
        assert_eq!(b.read_all().unwrap(), b"ping");
        b.write(b"pong").unwrap();
        let mut buf = [0u8; 2];
        assert_eq!(a.read(&mut buf).unwrap(), 2);
        assert_eq!(&buf, b"po");
        assert_eq!(a.read_all().unwrap(), b"ng");
    }

    #[test]
    fn would_block_when_empty() {
        let (a, _b) = VSocket::pair();
        assert_eq!(a.read_all().unwrap_err(), SockError::WouldBlock);
        assert!(!a.readable());
    }

    #[test]
    fn close_semantics() {
        let (a, b) = VSocket::pair();
        a.write(b"last").unwrap();
        a.close();
        // Buffered data is still readable after FIN.
        assert_eq!(b.read_all().unwrap(), b"last");
        assert_eq!(b.read_all().unwrap_err(), SockError::Closed);
        assert!(b.peer_closed());
        assert_eq!(b.write(b"x").unwrap_err(), SockError::Closed);
    }

    /// `(a, b, want)`: `b`'s pipe holds `want` split across the ring's
    /// wrap point — a write, a partial read, then a write that fills the
    /// ring past its end.
    fn wrapped_pair() -> (VSocket, VSocket, Vec<u8>) {
        let (a, b) = VSocket::pair();
        let first: Vec<u8> = (0..40).collect();
        a.write(&first).unwrap();
        let mut head = [0u8; 30];
        assert_eq!(b.read(&mut head).unwrap(), 30);
        assert_eq!(head[..], first[..30]);
        let room = b.rx.buf.lock().bytes.capacity() - 10;
        let second: Vec<u8> = (0..room).map(|i| (100 + i) as u8).collect();
        a.write(&second).unwrap();
        let (front, back) = {
            let rx = b.rx.buf.lock();
            let (front, back) = rx.bytes.as_slices();
            (front.len(), back.len())
        };
        assert!(front > 0 && back > 0, "the bytes wrap the ring");
        let want = [&first[30..], &second[..]].concat();
        (a, b, want)
    }

    /// After the wrapped bytes: nothing left, then the peer's close.
    fn assert_drained_then_closed(a: VSocket, b: &VSocket) {
        let mut byte = [0u8; 1];
        assert_eq!(b.read(&mut byte).unwrap_err(), SockError::WouldBlock);
        assert_eq!(b.read_all().unwrap_err(), SockError::WouldBlock);
        drop(a);
        assert_eq!(b.read(&mut byte).unwrap_err(), SockError::Closed);
        assert_eq!(b.read_all().unwrap_err(), SockError::Closed);
    }

    #[test]
    fn reads_keep_byte_order_across_the_ring_wrap() {
        let (a, b, want) = wrapped_pair();
        let mut got = Vec::new();
        let mut byte = [0u8; 1];
        while let Ok(1) = b.read(&mut byte) {
            got.push(byte[0]);
        }
        assert_eq!(got, want, "single bytes");
        assert_drained_then_closed(a, &b);

        let (a, b, want) = wrapped_pair();
        let mut got = Vec::new();
        let mut chunk = [0u8; 7];
        while let Ok(n) = b.read(&mut chunk) {
            got.extend_from_slice(&chunk[..n]);
        }
        assert_eq!(got, want, "partial reads");
        assert_drained_then_closed(a, &b);

        let (a, b, want) = wrapped_pair();
        assert_eq!(b.read_all().unwrap(), want, "read_all");
        assert_drained_then_closed(a, &b);

        // A read that stops inside the front run, then read_all.
        let (a, b, want) = wrapped_pair();
        let mut two = [0u8; 2];
        assert_eq!(b.read(&mut two).unwrap(), 2);
        assert_eq!(two[..], want[..2]);
        assert_eq!(b.read_all().unwrap(), want[2..], "read then read_all");
        assert_drained_then_closed(a, &b);
    }

    /// Counts its wakes.
    struct Wakes(AtomicU64);

    impl std::task::Wake for Wakes {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn read_waker_fires_once_per_arming() {
        let (a, b) = VSocket::pair();
        let wakes = Arc::new(Wakes(AtomicU64::new(0)));
        let waker = Waker::from(Arc::clone(&wakes));
        let woken = || wakes.0.load(Ordering::SeqCst);
        assert!(b.set_read_waker(&waker), "nothing here yet: armed");
        a.write(b"x").unwrap();
        a.write(b"y").unwrap();
        assert_eq!(woken(), 1, "one-shot");
        assert!(!b.set_read_waker(&waker), "bytes waiting: not armed");
        b.read_all().unwrap();
        assert!(b.set_read_waker(&waker));
        assert!(b.take_read_waker().is_some(), "disarmed");
        a.write(b"z").unwrap();
        assert_eq!(woken(), 1, "a disarmed waker is not woken");
        b.read_all().unwrap();
        assert!(b.set_read_waker(&waker));
        drop(a);
        assert_eq!(woken(), 2, "a close fires it");
        assert!(!b.set_read_waker(&waker), "closed: not armed");
    }

    #[test]
    fn drop_closes() {
        let (a, b) = VSocket::pair();
        drop(a);
        assert!(b.peer_closed());
    }

    #[test]
    fn listener_accept_order() {
        let l = VListener::new();
        let c1 = l.connect();
        let c2 = l.connect();
        assert_eq!(l.pending(), 2);
        let s1 = l.accept().unwrap();
        c1.write(b"one").unwrap();
        c2.write(b"two").unwrap();
        assert_eq!(s1.read_all().unwrap(), b"one");
        let s2 = l.accept().unwrap();
        assert_eq!(s2.read_all().unwrap(), b"two");
        assert!(l.accept().is_none());
    }

    #[test]
    fn peer_addr_travels_with_the_connection() {
        let l = VListener::new();
        let _client = l.connect_from(0xBEEF);
        let server = l.accept().unwrap();
        assert_eq!(server.peer_addr(), 0xBEEF);
        let _plain = l.connect();
        let server = l.accept().unwrap();
        assert_eq!(server.peer_addr(), 0, "plain connect declares no address");
    }

    #[test]
    fn backlog_cap_sheds_connects_and_counts() {
        let l = VListener::with_capacity(2);
        let c1 = l.connect();
        let c2 = l.connect();
        let c3 = l.connect();
        assert_eq!(l.pending(), 2, "third connection shed at capacity");
        assert_eq!(l.rejected(), 1);
        // The shed client observes the refusal; queued ones don't.
        assert_eq!(c3.read_all().unwrap_err(), SockError::Closed);
        assert_eq!(c1.read_all().unwrap_err(), SockError::WouldBlock);
        assert_eq!(c2.read_all().unwrap_err(), SockError::WouldBlock);
    }

    #[test]
    fn inject_reports_the_drop_instead_of_losing_the_socket() {
        let l = VListener::with_capacity(1);
        let (_c1, s1) = VSocket::pair();
        let (c2, s2) = VSocket::pair();
        assert!(l.inject(s1).is_ok());
        let back = l.inject(s2).expect_err("backlog full");
        assert_eq!(l.rejected(), 1);
        // The socket came back intact — the router can still place
        // it elsewhere or close it with accounting.
        back.write(b"still usable").unwrap();
        assert_eq!(c2.read_all().unwrap(), b"still usable");
    }

    #[test]
    fn steal_half_takes_the_back_and_keeps_order() {
        let l = VListener::new();
        let clients: Vec<VSocket> = (1..=5u64).map(|a| l.connect_from(a)).collect();
        // 5 queued: steal-half takes floor(5/2) = 2, from the back.
        let stolen = l.steal_half(usize::MAX);
        assert_eq!(stolen.len(), 2);
        assert_eq!(l.pending(), 3);
        assert_eq!(
            stolen.iter().map(|s| s.peer_addr()).collect::<Vec<_>>(),
            vec![4, 5],
            "thief gets the newest half in arrival order"
        );
        // The victim keeps the oldest sockets it was about to accept.
        assert_eq!(l.accept().unwrap().peer_addr(), 1);
        // Stolen sockets are intact, not closed.
        stolen[0].write(b"served elsewhere").unwrap();
        assert_eq!(clients[3].read_all().unwrap(), b"served elsewhere");
        // `max` caps the take; an empty or single-entry backlog yields
        // nothing (never leaves the victim empty-handed).
        assert_eq!(l.steal_half(0).len(), 0);
        let l2 = VListener::new();
        let _c = l2.connect();
        assert_eq!(l2.steal_half(8).len(), 0, "half of 1 rounds down to 0");
    }

    #[test]
    fn drain_counts_and_closes_undispatched_sockets() {
        let l = VListener::new();
        let c1 = l.connect();
        let c2 = l.connect();
        assert_eq!(l.drain(), 2);
        assert_eq!(l.pending(), 0);
        assert_eq!(c1.read_all().unwrap_err(), SockError::Closed);
        assert_eq!(c2.read_all().unwrap_err(), SockError::Closed);
        assert_eq!(l.drain(), 0, "idempotent");
    }

    #[test]
    fn cross_thread() {
        let l = Arc::new(VListener::new());
        let l2 = Arc::clone(&l);
        let t = std::thread::spawn(move || {
            let c = l2.connect();
            c.write(b"hello from client").unwrap();
            loop {
                match c.read_all() {
                    Ok(v) => return v,
                    Err(SockError::WouldBlock) => std::thread::yield_now(),
                    Err(e) => panic!("{e:?}"),
                }
            }
        });
        let s = loop {
            if let Some(s) = l.accept() {
                break s;
            }
            std::thread::yield_now();
        };
        let got = loop {
            match s.read_all() {
                Ok(v) => break v,
                Err(_) => std::thread::yield_now(),
            }
        };
        assert_eq!(got, b"hello from client");
        s.write(b"hi client").unwrap();
        assert_eq!(t.join().unwrap(), b"hi client");
    }
}
