//! In-memory network substrate: non-blocking virtual sockets with the
//! semantics the event-driven architecture needs (readable/writable
//! readiness, `WouldBlock`, FIN/close) — standing in for the testbed's
//! TCP over back-to-back 40 GbE NICs.
//!
//! Readiness is edge-announced as well as level-readable: the owner of a
//! socket's read side, or of a listener's accept side, may register its
//! [`Parker`]; bytes, a close, `connect` and `inject` then wake it (one
//! wake-up per event, after the event is visible), so an event loop
//! with nothing to do can sleep instead of scanning.

use qtls_sync::{Condvar, Mutex, Parker, WakeSlot};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One direction's byte pipe.
struct Pipe {
    buf: Mutex<VecDeque<u8>>,
    closed: AtomicBool,
    /// Whoever reads this pipe, woken when bytes or a close arrive.
    reader: WakeSlot,
}

impl Pipe {
    fn new() -> Arc<Self> {
        Arc::new(Pipe {
            buf: Mutex::new(VecDeque::new()),
            closed: AtomicBool::new(false),
            reader: WakeSlot::new(),
        })
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

    /// Wake `waker` whenever the peer writes or closes (replaces any
    /// previous registration). Bytes already buffered announce nothing:
    /// register, then check [`readable`](VSocket::readable).
    pub fn set_read_waker(&self, waker: Arc<Parker>) {
        self.rx.reader.set(waker);
    }

    /// Read up to `buf.len()` bytes (non-blocking).
    pub fn read(&self, buf: &mut [u8]) -> Result<usize, SockError> {
        let mut rx = self.rx.buf.lock();
        if rx.is_empty() {
            if self.rx.closed.load(Ordering::Acquire) {
                return Err(SockError::Closed);
            }
            return Err(SockError::WouldBlock);
        }
        let n = buf.len().min(rx.len());
        for b in buf.iter_mut().take(n) {
            *b = rx.pop_front().unwrap();
        }
        Ok(n)
    }

    /// Drain everything currently readable.
    pub fn read_all(&self) -> Result<Vec<u8>, SockError> {
        let mut rx = self.rx.buf.lock();
        if rx.is_empty() {
            if self.rx.closed.load(Ordering::Acquire) {
                return Err(SockError::Closed);
            }
            return Err(SockError::WouldBlock);
        }
        Ok(rx.drain(..).collect())
    }

    /// Write all bytes (the in-memory pipe is unbounded).
    pub fn write(&self, data: &[u8]) -> Result<(), SockError> {
        if self.tx.closed.load(Ordering::Acquire) {
            return Err(SockError::Closed);
        }
        self.tx.buf.lock().extend(data);
        self.tx.reader.wake();
        Ok(())
    }

    /// Any bytes waiting to be read?
    pub fn readable(&self) -> bool {
        !self.rx.buf.lock().is_empty()
    }

    /// Has the peer closed (and no bytes remain)?
    pub fn peer_closed(&self) -> bool {
        self.rx.closed.load(Ordering::Acquire) && self.rx.buf.lock().is_empty()
    }

    /// Close the socket (both directions; buffered bytes remain readable
    /// by the peer).
    pub fn close(&self) {
        self.tx.closed.store(true, Ordering::Release);
        self.rx.closed.store(true, Ordering::Release);
        self.tx.reader.wake();
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
    /// Signalled whenever the backlog gains an entry, so an accepting
    /// thread can park instead of spinning when idle.
    arrived: Condvar,
    /// The event loop accepting from this listener, if it sleeps on its
    /// own handle rather than in [`VListener::wait_pending`].
    acceptor: WakeSlot,
    cap: usize,
    rejected: AtomicU64,
    /// When set, sockets entering the backlog are stamped with
    /// [`qtls_core::obs::now_ns`] so the accepting worker can attribute
    /// backlog wait time. Off by default: the accept path then performs
    /// one relaxed load and no clock reads.
    stamp: AtomicBool,
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
            arrived: Condvar::new(),
            acceptor: WakeSlot::new(),
            cap: cap.max(1),
            rejected: AtomicU64::new(0),
            stamp: AtomicBool::new(false),
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
        self.arrived.notify_one();
        self.acceptor.wake();
    }

    /// Client side: connect, returning the client socket.
    pub fn connect(&self) -> VSocket {
        self.connect_from(0)
    }

    /// Connect declaring the client's address `addr` (what the server
    /// side will see as [`VSocket::peer_addr`]). At a full backlog the
    /// connection is shed: the returned client socket reads `Closed`.
    pub fn connect_from(&self, addr: u64) -> VSocket {
        let (client, mut server) = VSocket::pair_from(addr);
        if self.stamp.load(Ordering::Relaxed) {
            server.queued_ns = qtls_core::obs::now_ns();
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
    /// cluster's master dispatcher to balance connections to workers).
    /// At a full backlog the socket is handed back so the dispatcher
    /// can retry another worker or shed it knowingly — never a silent
    /// drop.
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

    /// Park until the backlog is non-empty or `timeout` elapses;
    /// returns whether anything is pending. Lets the dispatcher block
    /// instead of busy-spinning on an idle listener.
    pub fn wait_pending(&self, timeout: Duration) -> bool {
        let mut backlog = self.backlog.lock();
        if backlog.is_empty() {
            let _ = self.arrived.wait_for(&mut backlog, timeout);
        }
        !backlog.is_empty()
    }

    /// Steal-half protocol: remove up to `max` sockets from the BACK of
    /// the backlog — at most half of what is queued, so the victim
    /// keeps the older (front) half it is about to accept — and hand
    /// them to the caller intact. An idle worker uses this to take work
    /// from the most-loaded sibling's accept queue; nothing is closed
    /// or dropped, so socket conservation holds by construction.
    pub fn steal_half(&self, max: usize) -> Vec<VSocket> {
        let mut backlog = self.backlog.lock();
        let take = (backlog.len() / 2).min(max);
        let mut stolen = Vec::with_capacity(take);
        for _ in 0..take {
            let mut sock = backlog.pop_back().expect("len checked");
            sock.stolen = true;
            stolen.push(sock);
        }
        // Popped back-to-front: restore arrival order for the thief.
        stolen.reverse();
        stolen
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
        // The socket came back intact — the dispatcher can still place
        // it elsewhere or close it with accounting.
        back.write(b"still usable").unwrap();
        assert_eq!(c2.read_all().unwrap(), b"still usable");
    }

    #[test]
    fn wait_pending_parks_until_a_connection_arrives() {
        let l = Arc::new(VListener::new());
        // Idle: times out empty-handed.
        assert!(!l.wait_pending(Duration::from_millis(1)));
        let l2 = Arc::clone(&l);
        let t = std::thread::spawn(move || {
            let _c = l2.connect();
            std::thread::sleep(Duration::from_millis(50));
        });
        // A connect notifies the parked waiter well before 5 s.
        assert!(l.wait_pending(Duration::from_secs(5)));
        assert!(l.accept().is_some());
        t.join().unwrap();
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
