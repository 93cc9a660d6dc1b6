//! A minimal HTTP/1.1 subset: request parsing, keep-alive handling and a
//! content store serving fixed-size objects — the web-server role the
//! paper configures Nginx into for all experiments.

use qtls_sync::RwLock;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

/// A parsed HTTP request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpRequest {
    /// Method (only GET is served).
    pub method: String,
    /// Request path.
    pub path: String,
    /// Keep the connection alive after responding?
    pub keep_alive: bool,
}

/// Incremental request parser outcome.
pub enum ParseOutcome {
    /// A complete request, plus bytes consumed.
    Complete(HttpRequest, usize),
    /// Need more bytes.
    Partial,
    /// Malformed request.
    Bad(&'static str),
}

/// Parse one request from `buf` (headers only; GET has no body).
pub fn parse_request(buf: &[u8]) -> ParseOutcome {
    let Some(end) = find_header_end(buf) else {
        // Guard against unbounded header growth.
        if buf.len() > 16 * 1024 {
            return ParseOutcome::Bad("headers too large");
        }
        return ParseOutcome::Partial;
    };
    let head = match std::str::from_utf8(&buf[..end]) {
        Ok(s) => s,
        Err(_) => return ParseOutcome::Bad("non-utf8 headers"),
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return ParseOutcome::Bad("bad request line");
    };
    if !version.starts_with("HTTP/1.") {
        return ParseOutcome::Bad("bad version");
    }
    // HTTP/1.1 defaults to keep-alive unless "Connection: close".
    let mut keep_alive = version == "HTTP/1.1";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("connection") {
            let v = value.trim();
            if v.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if v.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    ParseOutcome::Complete(
        HttpRequest {
            method: method.to_string(),
            path: path.to_string(),
            keep_alive,
        },
        end + 4,
    )
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The status line and headers of a response whose body is
/// `content_length` bytes: what goes on the wire before the body.
pub fn response_head(
    status: u16,
    reason: &str,
    content_length: usize,
    keep_alive: bool,
) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Length: {content_length}\r\nConnection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    )
    .into_bytes()
}

/// Build a response with the given status and body: [`response_head`]
/// followed by the body.
pub fn build_response(status: u16, reason: &str, body: &[u8], keep_alive: bool) -> Vec<u8> {
    let mut out = response_head(status, reason, body.len(), keep_alive);
    out.extend_from_slice(body);
    out
}

/// A body the store serves: the first `len` bytes of a shared buffer.
/// Cloning it, or handing it out, copies no body bytes.
#[derive(Clone, Debug)]
pub struct Body {
    bytes: Arc<[u8]>,
    len: usize,
}

impl Deref for Body {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

impl From<Vec<u8>> for Body {
    fn from(bytes: Vec<u8>) -> Self {
        let len = bytes.len();
        Body {
            bytes: bytes.into(),
            len,
        }
    }
}

/// The largest synthetic `/<N>kb` object the store serves.
const MAX_SYNTHETIC: usize = 10 * 1024 * 1024;

/// An in-memory content store. Besides explicit entries, paths of the
/// form `/<N>kb` serve `N` kilobytes of synthetic data — the fixed-size
/// objects of the paper's transfer experiments (4 KB–1024 KB).
///
/// Bodies are served by reference. Every synthetic object is a prefix
/// of [`synthetic_body`]'s pattern, so they all share one buffer, as
/// long as the largest object served so far: it grows by doubling on
/// the first request that outgrows it, up to [`MAX_SYNTHETIC`].
pub struct ContentStore {
    entries: RwLock<HashMap<String, Arc<[u8]>>>,
    synthetic: RwLock<Arc<[u8]>>,
}

impl Default for ContentStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentStore {
    /// Empty store (synthetic `/<N>kb` paths still resolve).
    pub fn new() -> Self {
        let mut entries = HashMap::new();
        // The "small-size page (less than 100 bytes)" of §5.5.
        entries.insert(
            "/".to_string(),
            Arc::from(&b"<html>QTLS reproduction index</html>"[..]),
        );
        ContentStore {
            entries: RwLock::new(entries),
            synthetic: RwLock::new(Arc::from(&[][..])),
        }
    }

    /// Insert explicit content.
    pub fn insert(&self, path: &str, body: Vec<u8>) {
        self.entries.write().insert(path.to_string(), body.into());
    }

    /// Resolve a path to content.
    pub fn get(&self, path: &str) -> Option<Body> {
        if let Some(bytes) = self.entries.read().get(path) {
            return Some(Body {
                bytes: Arc::clone(bytes),
                len: bytes.len(),
            });
        }
        // Synthetic sized objects: "/64kb" etc.
        let stripped = path.strip_prefix('/')?.strip_suffix("kb")?;
        let kb: usize = stripped.parse().ok()?;
        if kb > MAX_SYNTHETIC / 1024 {
            return None;
        }
        let len = kb * 1024;
        Some(Body {
            bytes: self.synthetic_prefix(len),
            len,
        })
    }

    /// The shared synthetic buffer, grown first if it is shorter than
    /// `len`.
    fn synthetic_prefix(&self, len: usize) -> Arc<[u8]> {
        {
            let shared = self.synthetic.read();
            if shared.len() >= len {
                return Arc::clone(&shared);
            }
        }
        let mut shared = self.synthetic.write();
        if shared.len() < len {
            let grown = len.max(2 * shared.len()).min(MAX_SYNTHETIC);
            *shared = synthetic_body(grown).into();
        }
        Arc::clone(&shared)
    }
}

/// The period of [`synthetic_body`].
const PATTERN: &[u8] = b"QTLS-PPoPP19-reproduction-payload-";

/// Deterministic filler content of exactly `len` bytes: [`PATTERN`]
/// repeated. Each pass appends a copy of everything written so far (a
/// whole number of periods), so the body is built by about
/// `log2(len / 34)` memcpys.
pub fn synthetic_body(len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&PATTERN[..len.min(PATTERN.len())]);
    while out.len() < len {
        let copy = out.len().min(len - out.len());
        out.extend_from_within(..copy);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_get() {
        let raw = b"GET /64kb HTTP/1.1\r\nHost: test\r\n\r\n";
        match parse_request(raw) {
            ParseOutcome::Complete(req, used) => {
                assert_eq!(req.method, "GET");
                assert_eq!(req.path, "/64kb");
                assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
                assert_eq!(used, raw.len());
            }
            _ => panic!("should parse"),
        }
    }

    #[test]
    fn parse_connection_close() {
        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        match parse_request(raw) {
            ParseOutcome::Complete(req, _) => assert!(!req.keep_alive),
            _ => panic!(),
        }
    }

    #[test]
    fn parse_http10_default_close() {
        let raw = b"GET / HTTP/1.0\r\n\r\n";
        match parse_request(raw) {
            ParseOutcome::Complete(req, _) => assert!(!req.keep_alive),
            _ => panic!(),
        }
    }

    #[test]
    fn parse_partial() {
        assert!(matches!(
            parse_request(b"GET / HTTP/1.1\r\nHost:"),
            ParseOutcome::Partial
        ));
    }

    #[test]
    fn parse_bad() {
        assert!(matches!(
            parse_request(b"NONSENSE\r\n\r\n"),
            ParseOutcome::Bad(_)
        ));
    }

    #[test]
    fn pipelined_requests_consume_correctly() {
        let mut raw = b"GET /a HTTP/1.1\r\n\r\n".to_vec();
        raw.extend_from_slice(b"GET /b HTTP/1.1\r\n\r\n");
        match parse_request(&raw) {
            ParseOutcome::Complete(req, used) => {
                assert_eq!(req.path, "/a");
                match parse_request(&raw[used..]) {
                    ParseOutcome::Complete(req2, _) => assert_eq!(req2.path, "/b"),
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn response_format() {
        let r = build_response(200, "OK", b"hello", true);
        let s = String::from_utf8(r).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Length: 5\r\n"));
        assert!(s.contains("Connection: keep-alive"));
        assert!(s.ends_with("\r\n\r\nhello"));
    }

    #[test]
    fn content_store_sized_paths() {
        let store = ContentStore::new();
        assert_eq!(store.get("/4kb").unwrap().len(), 4 * 1024);
        assert_eq!(store.get("/1024kb").unwrap().len(), 1024 * 1024);
        assert!(store.get("/nope").is_none());
        assert!(store.get("/").unwrap().len() < 100, "small index page");
    }

    /// The doubling build equals the plain repetition, around one period
    /// and at record and bulk sizes.
    #[test]
    fn synthetic_body_is_the_pattern_repeated() {
        for n in [0, 1, 33, 34, 35, 16 * 1024, 1 << 20, 10 << 20] {
            let reference: Vec<u8> = PATTERN.iter().copied().cycle().take(n).collect();
            // Not assert_eq!: a mismatch would print megabytes.
            assert!(synthetic_body(n) == reference, "synthetic_body({n})");
        }
    }

    #[test]
    fn content_store_explicit_entries() {
        let store = ContentStore::new();
        store.insert("/custom", b"abc".to_vec());
        assert_eq!(&store.get("/custom").unwrap()[..], b"abc");
    }

    /// Synthetic objects are prefixes of one shared buffer, as long as
    /// the largest served so far and never longer than the cap; explicit
    /// entries are handed out, not copied.
    #[test]
    fn synthetic_objects_share_one_bounded_buffer() {
        let store = ContentStore::new();
        let shared_len = |store: &ContentStore| store.synthetic.read().len();
        assert_eq!(shared_len(&store), 0, "nothing is built before a request");
        for kb in [1, 1024, 4] {
            let body = store.get(&format!("/{kb}kb")).unwrap();
            assert!(*body == synthetic_body(kb * 1024)[..], "/{kb}kb");
        }
        assert_eq!(shared_len(&store), 1 << 20);
        let (a, b) = (store.get("/1024kb").unwrap(), store.get("/1024kb").unwrap());
        assert_eq!(a.as_ptr(), b.as_ptr(), "two gets share one allocation");
        assert_eq!(a.as_ptr(), store.get("/4kb").unwrap().as_ptr());
        store.insert("/custom", b"abc".to_vec());
        let (a, b) = (store.get("/custom").unwrap(), store.get("/custom").unwrap());
        assert_eq!(a.as_ptr(), b.as_ptr());

        let largest = store.get("/10240kb").unwrap();
        assert!(*largest == synthetic_body(MAX_SYNTHETIC)[..]);
        assert_eq!(shared_len(&store), MAX_SYNTHETIC);
        assert!(store.get("/10241kb").is_none());
        assert!(store.get(&format!("/{}kb", usize::MAX)).is_none());
        assert_eq!(shared_len(&store), MAX_SYNTHETIC);
    }
}
