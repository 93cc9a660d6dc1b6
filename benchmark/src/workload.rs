//! The six workloads: what traffic each one generates and why it exists
//! (the same reasons are in BENCHMARK.json and the README).
//! All are closed loops of [`CLIENTS`] client threads, one connection
//! each, against one worker.

use qtls_core::OffloadProfile;
use qtls_tls::suite::Version;

/// Closed-loop client threads (= cores of the reference box).
pub const CLIENTS: usize = 2;

/// What one timed operation is.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// connect → handshake → request(s) → close.
    Connection,
    /// request written → full verified response, on a kept-alive
    /// connection.
    Request,
}

/// Which connections offer resumption state.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Resume {
    /// Every handshake is full.
    Never,
    /// Every connection after a client's first resumes.
    Always,
    /// One full handshake at a seeded position in every block of ten.
    NineInTen,
}

/// One workload.
pub struct Workload {
    pub name: &'static str,
    pub profile: OffloadProfile,
    pub version: Version,
    pub op: Op,
    pub resume: Resume,
    /// Object fetched: `GET /<body_kb>kb`.
    pub body_kb: usize,
    /// Requests per connection; `None` keeps the connection for the
    /// whole pass.
    pub requests_per_conn: Option<usize>,
}

impl Workload {
    pub fn path(&self) -> String {
        format!("/{}kb", self.body_kb)
    }

    pub fn body_len(&self) -> usize {
        self.body_kb * 1024
    }
}

pub static WORKLOADS: [Workload; 6] = [
    Workload {
        name: "full_hs_qtls",
        // full TLS 1.2 handshake + GET /1kb + close under QTLS: ~4 offloaded
        // asym/PRF ops per connection, so primitives, ring hand-off and
        // fiber pause/resume do most of the work
        profile: OffloadProfile::Qtls,
        version: Version::Tls12,
        op: Op::Connection,
        resume: Resume::Never,
        body_kb: 1,
        requests_per_conn: Some(1),
    },
    Workload {
        name: "full_hs_sw",
        // same traffic under SW: bypasses qtls-qat and qtls-core, so an
        // offload-path change predicts no change here and QTLS/SW is the
        // framework's net cost
        profile: OffloadProfile::Sw,
        version: Version::Tls12,
        op: Op::Connection,
        resume: Resume::Never,
        body_kb: 1,
        requests_per_conn: Some(1),
    },
    Workload {
        name: "resumed_hs_qtls",
        // every connection after the first resumes: no asymmetric crypto, so
        // accept, fiber spawn, store lookup and PRF/cipher waits dominate
        profile: OffloadProfile::Qtls,
        version: Version::Tls12,
        op: Op::Connection,
        resume: Resume::Always,
        body_kb: 1,
        requests_per_conn: Some(1),
    },
    Workload {
        name: "bulk_1m_qtls",
        // 8 keep-alive GET /1024kb per connection: the record data plane, 16
        // KB fragments sealed 16 per doorbell, handshake amortised
        profile: OffloadProfile::Qtls,
        version: Version::Tls12,
        op: Op::Request,
        resume: Resume::Never,
        body_kb: 1024,
        requests_per_conn: Some(8),
    },
    Workload {
        name: "keepalive_1k_qtls",
        // two established connections issuing GET /1kb back to back: per-
        // request fixed cost (one record_open + one record_seal wait), bytes
        // do not matter
        profile: OffloadProfile::Qtls,
        version: Version::Tls12,
        op: Op::Request,
        resume: Resume::Never,
        body_kb: 1,
        requests_per_conn: None,
    },
    Workload {
        name: "mix13_qtls",
        // TLS 1.3, 1 full : 9 PSK-resumed, GET /16kb + close on a bare
        // Worker: the realistic mix and the only cover for tls13.rs, HKDF,
        // NST and the PSK store
        profile: OffloadProfile::Qtls,
        version: Version::Tls13,
        op: Op::Connection,
        resume: Resume::NineInTen,
        body_kb: 16,
        requests_per_conn: Some(1),
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
