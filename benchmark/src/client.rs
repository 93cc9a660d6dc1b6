//! The closed-loop client: one thread per connection, written on the
//! public `ClientSession` / `Tls13ClientSession` / `VSocket` API so that
//! connect, handshake, each request and close are timed separately and
//! every response is verified byte for byte.

use crate::workload::{Resume, Workload};
use qtls_crypto::ecc::NamedCurve;
use qtls_server::http::synthetic_body;
use qtls_server::net::SockError;
use qtls_server::{VListener, VSocket};
use qtls_tls::client::{ClientSession, ResumeData};
use qtls_tls::provider::CryptoProvider;
use qtls_tls::suite::CipherSuite;
use qtls_tls::tls13::{Tls13ClientSession, Tls13ResumeData};
use qtls_tls::TlsError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An operation that takes longer than this has failed.
const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// The two client session types behind one interface.
pub trait Session: Sized {
    type Resume: Clone + Send + 'static;
    fn open(resume: Option<Self::Resume>, seed: u64) -> Self;
    fn export(&self) -> Option<Self::Resume>;
    fn start(&mut self) -> Result<(), TlsError>;
    fn feed(&mut self, bytes: &[u8]);
    fn process(&mut self) -> Result<(), TlsError>;
    fn take_output(&mut self) -> Vec<u8>;
    fn is_established(&self) -> bool;
    fn was_resumed(&self) -> bool;
    fn read_app_data(&mut self) -> Option<Vec<u8>>;
    fn write_app_data(&mut self, data: &[u8]) -> Result<(), TlsError>;
}

macro_rules! forward_session {
    () => {
        fn start(&mut self) -> Result<(), TlsError> {
            self.start()
        }
        fn feed(&mut self, bytes: &[u8]) {
            self.feed(bytes)
        }
        fn process(&mut self) -> Result<(), TlsError> {
            self.process()
        }
        fn take_output(&mut self) -> Vec<u8> {
            self.take_output()
        }
        fn is_established(&self) -> bool {
            self.is_established()
        }
        fn was_resumed(&self) -> bool {
            self.was_resumed()
        }
        fn read_app_data(&mut self) -> Option<Vec<u8>> {
            self.read_app_data()
        }
        fn write_app_data(&mut self, data: &[u8]) -> Result<(), TlsError> {
            self.write_app_data(data)
        }
    };
}

impl Session for ClientSession {
    type Resume = ResumeData;
    fn open(resume: Option<ResumeData>, seed: u64) -> Self {
        ClientSession::new(
            CryptoProvider::Software,
            CipherSuite::EcdheRsa,
            NamedCurve::P256,
            resume,
            seed,
        )
    }
    fn export(&self) -> Option<ResumeData> {
        self.export_resume_data()
    }
    forward_session!();
}

impl Session for Tls13ClientSession {
    type Resume = Tls13ResumeData;
    fn open(resume: Option<Tls13ResumeData>, seed: u64) -> Self {
        Tls13ClientSession::new_resuming(
            CryptoProvider::Software,
            CipherSuite::EcdheRsa,
            NamedCurve::P256,
            resume,
            seed,
        )
    }
    fn export(&self) -> Option<Tls13ResumeData> {
        self.export_resume_data()
    }
    forward_session!();
}

/// The client-side spans of one connection, in ns since the pass began:
/// `start → connected` is the connect, `connected → hs_end` the
/// handshake, each `reqs` pair a request, `close_ns → end_ns` the close.
pub struct ConnRecord {
    pub client: usize,
    pub start_ns: u64,
    pub connected_ns: u64,
    /// 0 until the handshake completes.
    pub hs_end_ns: u64,
    pub reqs: Vec<(u64, u64)>,
    pub close_ns: u64,
    pub end_ns: u64,
    /// The schedule asked this connection to offer resumption state.
    pub planned_resume: bool,
    pub resumed: bool,
    /// Why the connection's last operation failed, if it did.
    pub error: Option<String>,
}

/// splitmix64: the benchmark's only randomness, a pure function of
/// `--seed`, so the same seed generates the same traffic.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn pump<S: Session>(
    session: &mut S,
    sock: &VSocket,
    deadline: Instant,
    mut done: impl FnMut(&mut S) -> Result<bool, String>,
) -> Result<(), String> {
    loop {
        let out = session.take_output();
        if !out.is_empty() {
            sock.write(&out).map_err(|e| format!("write: {e:?}"))?;
        }
        let closed = match sock.read_all() {
            Ok(bytes) => {
                session.feed(&bytes);
                session.process().map_err(|e| format!("tls: {e:?}"))?;
                false
            }
            Err(SockError::WouldBlock) => false,
            Err(SockError::Closed) => true,
        };
        if done(session)? {
            let out = session.take_output();
            if !out.is_empty() {
                sock.write(&out).map_err(|e| format!("write: {e:?}"))?;
            }
            return Ok(());
        }
        if closed {
            return Err("server closed the connection early".into());
        }
        if Instant::now() > deadline {
            return Err("timed out".into());
        }
        std::thread::yield_now();
    }
}

/// Verifies one HTTP response as its bytes arrive: status 200, the
/// expected `Content-Length`, and a body equal to `synthetic_body`.
struct ResponseCheck<'a> {
    expected_body: &'a [u8],
    head: Vec<u8>,
    /// Body bytes verified so far; `None` until the headers are parsed.
    body_seen: Option<usize>,
}

impl<'a> ResponseCheck<'a> {
    fn new(expected_body: &'a [u8]) -> Self {
        ResponseCheck {
            expected_body,
            head: Vec::new(),
            body_seen: None,
        }
    }

    /// Consume a chunk; `Ok(true)` once the whole response is verified.
    fn feed(&mut self, chunk: &[u8]) -> Result<bool, String> {
        if self.body_seen.is_none() {
            self.head.extend_from_slice(chunk);
            let Some(end) = self.head.windows(4).position(|w| w == b"\r\n\r\n") else {
                return Ok(false);
            };
            let head = std::str::from_utf8(&self.head[..end])
                .map_err(|_| "response headers are not UTF-8".to_string())?;
            let mut lines = head.split("\r\n");
            let status = lines.next().unwrap_or("");
            if status != "HTTP/1.1 200 OK" {
                return Err(format!("status line {status:?}"));
            }
            let length = lines
                .filter_map(|l| l.split_once(':'))
                .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
                .and_then(|(_, v)| v.trim().parse::<usize>().ok());
            if length != Some(self.expected_body.len()) {
                return Err(format!("Content-Length {length:?}"));
            }
            self.body_seen = Some(0);
            let rest = self.head.split_off(end + 4);
            return self.feed_body(&rest);
        }
        self.feed_body(chunk)
    }

    fn feed_body(&mut self, chunk: &[u8]) -> Result<bool, String> {
        let seen = self.body_seen.expect("headers parsed");
        let want = self
            .expected_body
            .get(seen..seen + chunk.len())
            .ok_or("response body longer than Content-Length")?;
        if chunk != want {
            return Err(format!("response body differs in bytes {seen}.."));
        }
        self.body_seen = Some(seen + chunk.len());
        Ok(seen + chunk.len() == self.expected_body.len())
    }
}

struct ClientCtx {
    index: usize,
    listener: Arc<VListener>,
    stop: Arc<AtomicBool>,
    t0: Instant,
    seed: u64,
    path: String,
    body: Arc<Vec<u8>>,
    requests_per_conn: Option<usize>,
    resume: Resume,
}

impl ClientCtx {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Does connection number `n` of this client offer resumption?
    fn plans_resume(&self, n: u64) -> bool {
        match self.resume {
            Resume::Never => false,
            Resume::Always => n > 0,
            Resume::NineInTen => {
                // One full handshake per block of ten, at a seeded
                // position; the very first connection has nothing to
                // resume, so block 0 puts it first.
                let block = n / 10;
                let full_at = if block == 0 {
                    0
                } else {
                    mix(self.seed ^ mix(self.index as u64) ^ block) % 10
                };
                n % 10 != full_at
            }
        }
    }

    /// One connection: handshake, requests, close. Spans and the outcome
    /// land in `rec`; the returned value is fresh resumption state.
    fn connection<S: Session>(
        &self,
        rec: &mut ConnRecord,
        resume: Option<S::Resume>,
        seed: u64,
    ) -> Option<S::Resume> {
        let sock = self.listener.connect();
        rec.connected_ns = self.now_ns();
        let mut session = S::open(resume, seed);
        let result = self.drive(&mut session, &sock, rec);
        rec.close_ns = self.now_ns();
        sock.close();
        rec.end_ns = self.now_ns();
        match result {
            Ok(()) => session.export(),
            Err(why) => {
                rec.error = Some(why);
                None
            }
        }
    }

    fn drive<S: Session>(
        &self,
        session: &mut S,
        sock: &VSocket,
        rec: &mut ConnRecord,
    ) -> Result<(), String> {
        session.start().map_err(|e| format!("tls: {e:?}"))?;
        pump(session, sock, Instant::now() + OP_TIMEOUT, |s| {
            Ok(s.is_established())
        })?;
        rec.hs_end_ns = self.now_ns();
        rec.resumed = session.was_resumed();
        let mut sent = 0usize;
        loop {
            let last = match self.requests_per_conn {
                Some(n) => sent + 1 == n,
                None => false,
            };
            let req = format!(
                "GET {} HTTP/1.1\r\nHost: qtls\r\nConnection: {}\r\n\r\n",
                self.path,
                if last { "close" } else { "keep-alive" }
            );
            let req_start = self.now_ns();
            session
                .write_app_data(req.as_bytes())
                .map_err(|e| format!("tls: {e:?}"))?;
            let mut check = ResponseCheck::new(&self.body);
            let mut complete = false;
            pump(session, sock, Instant::now() + OP_TIMEOUT, |s| {
                while let Some(chunk) = s.read_app_data() {
                    if complete {
                        return Err("bytes after the end of the response".into());
                    }
                    complete = check.feed(&chunk)?;
                }
                Ok(complete)
            })?;
            rec.reqs.push((req_start, self.now_ns()));
            sent += 1;
            if last || (self.requests_per_conn.is_none() && self.stop.load(Ordering::Relaxed)) {
                return Ok(());
            }
        }
    }

    fn run<S: Session>(&self) -> Vec<ConnRecord> {
        let mut records = Vec::new();
        let mut resume: Option<S::Resume> = None;
        let mut n = 0u64;
        // At least one connection, so a pass with `stop` already set is
        // exactly one connection (the set-up probe).
        loop {
            let planned_resume = self.plans_resume(n) && resume.is_some();
            let mut rec = ConnRecord {
                client: self.index,
                start_ns: self.now_ns(),
                connected_ns: 0,
                hs_end_ns: 0,
                reqs: Vec::new(),
                close_ns: 0,
                end_ns: 0,
                planned_resume,
                resumed: false,
                error: None,
            };
            let session_seed = mix(self.seed ^ mix((self.index as u64) << 32 | n));
            let offered = if planned_resume { resume.clone() } else { None };
            if let Some(fresh) = self.connection::<S>(&mut rec, offered, session_seed) {
                resume = Some(fresh);
            }
            records.push(rec);
            n += 1;
            if self.stop.load(Ordering::Relaxed) {
                return records;
            }
        }
    }
}

/// Spawn the workload's closed-loop clients (`loadgen-<i>` threads).
/// They run until `stop`, finishing the operation in flight, and return
/// every connection's record. `t0` is the pass's time origin.
pub fn spawn<S: Session>(
    workload: &Workload,
    clients: usize,
    listener: &Arc<VListener>,
    seed: u64,
    stop: &Arc<AtomicBool>,
    t0: Instant,
) -> Vec<JoinHandle<Vec<ConnRecord>>> {
    let body = Arc::new(synthetic_body(workload.body_len()));
    (0..clients)
        .map(|index| {
            let ctx = ClientCtx {
                index,
                listener: Arc::clone(listener),
                stop: Arc::clone(stop),
                t0,
                seed,
                path: workload.path(),
                body: Arc::clone(&body),
                requests_per_conn: workload.requests_per_conn,
                resume: workload.resume,
            };
            std::thread::Builder::new()
                .name(format!("loadgen-{index}"))
                .spawn(move || ctx.run::<S>())
                .expect("spawn client")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(body: &[u8]) -> Vec<u8> {
        qtls_server::http::build_response(200, "OK", body, true)
    }

    #[test]
    fn response_check_accepts_the_exact_body_in_any_chunking() {
        let body = synthetic_body(3000);
        let wire = response(&body);
        for step in [1, 7, 1024, wire.len()] {
            let mut check = ResponseCheck::new(&body);
            let mut done = false;
            for chunk in wire.chunks(step) {
                assert!(!done, "complete before the last chunk");
                done = check.feed(chunk).unwrap();
            }
            assert!(done);
        }
    }

    #[test]
    fn response_check_rejects_wrong_bytes_length_and_status() {
        let body = synthetic_body(64);
        let mut flipped = body.clone();
        flipped[40] ^= 1;
        assert!(ResponseCheck::new(&body).feed(&response(&flipped)).is_err());
        assert!(ResponseCheck::new(&body)
            .feed(&response(&body[..63]))
            .is_err());
        let not_found = qtls_server::http::build_response(404, "Not Found", &[], true);
        assert!(ResponseCheck::new(&body).feed(&not_found).is_err());
    }

    #[test]
    fn nine_in_ten_schedule_has_one_full_per_block() {
        let ctx = ClientCtx {
            index: 1,
            listener: Arc::new(VListener::new()),
            stop: Arc::new(AtomicBool::new(false)),
            t0: Instant::now(),
            seed: 42,
            path: String::new(),
            body: Arc::new(Vec::new()),
            requests_per_conn: Some(1),
            resume: Resume::NineInTen,
        };
        assert!(!ctx.plans_resume(0), "nothing to resume yet");
        for block in 0..50u64 {
            let full = (0..10)
                .filter(|i| !ctx.plans_resume(block * 10 + i))
                .count();
            assert_eq!(full, 1, "block {block}");
        }
    }
}
