//! The observability plane: phase-latency histograms, a flight recorder
//! of recent pipeline events, and the metric registry backing the
//! `/metrics` exposition endpoint.
//!
//! The paper's argument is entirely about *where time goes* in the four
//! offload phases (§3.2: pre-processing, response retrieval, async
//! notification, post-processing) and about polling efficiency (§5.6
//! wasted polls). This module measures all of it in the real engine:
//!
//! - [`Histogram`] — HDR-style log-linear fixed-bucket latency
//!   histograms (32 sub-buckets per power of two ⇒ ≤ 3.125% relative
//!   quantile error), recorded with relaxed atomics only: no locks, no
//!   allocation, no formatting on the hot path. Snapshots are plain
//!   values and merge across shards by bucket-wise addition.
//! - [`ShardObs`] — one histogram per phase × op class per shard,
//!   implementing the device-side [`qtls_qat::trace::RetrieveHook`] for
//!   the two phases measured at the ring boundary; the engine records
//!   the notification and post-processing phases directly.
//! - [`FlightRecorder`] — a fixed-size ring of recent structured events
//!   (ring-full deferrals, forced flushes, backpressure retries, poller
//!   misses, shard-router decisions), dumpable on demand or frozen on
//!   anomaly so post-hoc debugging does not need a re-run.
//! - [`registry`] — the single authoritative list of every exposed
//!   metric name, enforced by `scripts/check.sh`.
//! - [`promtext`] — a renderer + mini-parser for the Prometheus text
//!   exposition format (std-only; used by the server and the CI smoke
//!   check).
//!
//! Everything is gated on one `Arc<AtomicBool>` shared by an engine's
//! shards: when metrics are disabled the record paths reduce to a single
//! relaxed load.

use qtls_qat::trace::RetrieveHook;
use qtls_qat::OpClass;
use qtls_sync::Mutex;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

pub use qtls_qat::trace::now_ns;

/// The four offload phases of paper §3.2, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Descriptor creation → ring publish (request staging + batching).
    Pre,
    /// Ring publish → response popped by a poller (device service time
    /// plus time spent waiting for a poll).
    Retrieve,
    /// Response popped → completion parked and notification fired.
    Notify,
    /// Notification fired → resumed job consumes the result (event-loop
    /// scheduling latency; async profiles only).
    Post,
}

/// Number of phases.
pub const PHASES: usize = 4;
/// Number of op classes.
pub const CLASSES: usize = 3;

impl Phase {
    /// All phases, pipeline order.
    pub const ALL: [Phase; PHASES] = [Phase::Pre, Phase::Retrieve, Phase::Notify, Phase::Post];

    /// Stable index (0-based, pipeline order).
    pub fn index(self) -> usize {
        match self {
            Phase::Pre => 0,
            Phase::Retrieve => 1,
            Phase::Notify => 2,
            Phase::Post => 3,
        }
    }

    /// Label value used in the exposition format.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Pre => "pre_processing",
            Phase::Retrieve => "retrieval",
            Phase::Notify => "notification",
            Phase::Post => "post_processing",
        }
    }
}

/// All op classes, in counter order.
pub const CLASS_LIST: [OpClass; CLASSES] = [OpClass::Asym, OpClass::Cipher, OpClass::Prf];

/// Stable index of an op class (matches [`CLASS_LIST`]).
pub fn class_index(class: OpClass) -> usize {
    match class {
        OpClass::Asym => 0,
        OpClass::Cipher => 1,
        OpClass::Prf => 2,
    }
}

/// Label value of an op class in the exposition format.
pub fn class_name(class: OpClass) -> &'static str {
    match class {
        OpClass::Asym => "asym",
        OpClass::Cipher => "cipher",
        OpClass::Prf => "prf",
    }
}

// ---------------------------------------------------------------------------
// Log-linear histogram
// ---------------------------------------------------------------------------

/// log2 of the sub-bucket count: 32 sub-buckets per power of two.
const SUB_BITS: u32 = 5;
/// Sub-buckets per power of two.
const SUBBUCKETS: usize = 1 << SUB_BITS;
/// Values with a most-significant bit at or above this exponent land in
/// the overflow bucket (2^36 ns ≈ 68.7 s — far beyond any phase).
const MAX_EXP: u32 = 36;
/// Total regular buckets: one linear row for values < 32, then one row
/// of 32 sub-buckets per power of two up to `MAX_EXP`.
pub const BUCKETS: usize = (MAX_EXP - SUB_BITS + 1) as usize * SUBBUCKETS;

/// Bucket index for a nanosecond value, or `None` for overflow.
fn bucket_index(v: u64) -> Option<usize> {
    if v < SUBBUCKETS as u64 {
        return Some(v as usize);
    }
    let msb = 63 - v.leading_zeros();
    if msb >= MAX_EXP {
        return None;
    }
    let row = (msb - SUB_BITS + 1) as usize;
    let sub = ((v >> (msb - SUB_BITS)) & (SUBBUCKETS as u64 - 1)) as usize;
    Some(row * SUBBUCKETS + sub)
}

/// Largest value stored in bucket `idx` (inclusive). Row 0 buckets are
/// exact; bucket widths double every power of two, bounding the
/// relative error of reporting a bucket by its upper bound at
/// `1/SUBBUCKETS` = 3.125%.
pub fn bucket_upper_bound(idx: usize) -> u64 {
    let row = idx / SUBBUCKETS;
    let sub = idx % SUBBUCKETS;
    if row == 0 {
        sub as u64
    } else {
        (((SUBBUCKETS + sub + 1) as u64) << (row - 1)) - 1
    }
}

/// A fixed-bucket log-linear latency histogram in nanoseconds.
///
/// `record` is wait-free: one relaxed `fetch_add` on the bucket, one on
/// the running sum, one `fetch_max`. The total count is *derived from
/// the bucket sums* rather than kept separately, so a snapshot taken
/// concurrently with writers is always self-consistent (every counted
/// sample is in exactly one bucket).
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    overflow: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            overflow: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample of `nanos`. Never allocates or formats.
    #[inline]
    pub fn record(&self, nanos: u64) {
        match bucket_index(nanos) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.sum.fetch_add(nanos, Ordering::Relaxed);
        self.max.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Copy the current state into a plain-value snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            overflow: self.overflow.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], mergeable across shards.
#[derive(Clone, Debug)]
pub struct HistSnapshot {
    /// Per-bucket sample counts (see [`bucket_upper_bound`]).
    pub buckets: Vec<u64>,
    /// Samples beyond the largest regular bucket (> ~68.7 s).
    pub overflow: u64,
    /// Sum of all recorded values, ns.
    pub sum: u64,
    /// Largest recorded value, ns.
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistSnapshot {
    /// A snapshot with no samples.
    pub fn empty() -> Self {
        HistSnapshot {
            buckets: vec![0; BUCKETS],
            overflow: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Total sample count (derived from the buckets, so it is always
    /// consistent with them).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.overflow
    }

    /// Fold `other` into `self` by bucket-wise addition; count, sum and
    /// max all merge exactly.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`) as the upper bound of the
    /// bucket holding the ranked sample, clamped to the recorded max —
    /// within 3.125% of the true value. Samples in the overflow bucket
    /// report the recorded max. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut acc = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }
}

// ---------------------------------------------------------------------------
// Per-shard and per-engine observers
// ---------------------------------------------------------------------------

/// Phase × op-class histograms of one engine shard. Implements the
/// device-side [`RetrieveHook`] for the pre-processing and retrieval
/// phases; the engine records notification and post-processing.
pub struct ShardObs {
    enabled: Arc<AtomicBool>,
    hists: Vec<Histogram>,
}

impl ShardObs {
    fn new(enabled: Arc<AtomicBool>) -> Self {
        ShardObs {
            enabled,
            hists: (0..PHASES * CLASSES).map(|_| Histogram::new()).collect(),
        }
    }

    /// Is recording enabled (shared with the owning engine)?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record one phase sample; a no-op while disabled.
    #[inline]
    pub fn record(&self, phase: Phase, class: OpClass, nanos: u64) {
        if !self.enabled() {
            return;
        }
        self.hists[phase.index() * CLASSES + class_index(class)].record(nanos);
    }

    /// Snapshot one phase × class histogram.
    pub fn snapshot(&self, phase: Phase, class: OpClass) -> HistSnapshot {
        self.hists[phase.index() * CLASSES + class_index(class)].snapshot()
    }
}

impl RetrieveHook for ShardObs {
    fn on_response(&self, class: OpClass, pre_ns: u64, retrieve_ns: u64) {
        if !self.enabled() {
            return;
        }
        self.record(Phase::Pre, class, pre_ns);
        self.record(Phase::Retrieve, class, retrieve_ns);
    }
}

/// The observability state owned by one `OffloadEngine`: per-shard
/// histogram sets sharing one enable gate, plus the flight recorder.
pub struct EngineObs {
    enabled: Arc<AtomicBool>,
    shards: Vec<Arc<ShardObs>>,
    recorder: Arc<FlightRecorder>,
}

impl EngineObs {
    /// Build state for `shards` shards, disabled.
    pub fn new(shards: usize) -> Self {
        let enabled = Arc::new(AtomicBool::new(false));
        EngineObs {
            shards: (0..shards)
                .map(|_| Arc::new(ShardObs::new(Arc::clone(&enabled))))
                .collect(),
            recorder: Arc::new(FlightRecorder::new(FLIGHT_CAPACITY_DEFAULT)),
            enabled,
        }
    }

    /// Enable or disable recording (histograms and flight recorder).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
        self.recorder.set_enabled(on);
    }

    /// Is recording enabled?
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// `now_ns()` if recording is enabled, else `None` — the idiom for
    /// hot paths that must not read the clock while disabled.
    #[inline]
    pub fn now_if_enabled(&self) -> Option<u64> {
        if self.enabled() {
            Some(now_ns())
        } else {
            None
        }
    }

    /// Number of shard observers.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The observer of shard `i`.
    pub fn shard(&self, i: usize) -> &Arc<ShardObs> {
        &self.shards[i]
    }

    /// The engine's flight recorder.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Merge one phase × class histogram across every shard.
    pub fn merged(&self, phase: Phase, class: OpClass) -> HistSnapshot {
        let mut out = HistSnapshot::empty();
        for shard in &self.shards {
            out.merge(&shard.snapshot(phase, class));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// Default event-ring capacity (`qat_metrics_flight_capacity`).
pub const FLIGHT_CAPACITY_DEFAULT: usize = 256;

/// The structured event kinds the flight recorder captures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A flush left requests behind because the ring was full
    /// (`a` = deferred count, `b` = accepted count).
    RingFullDeferral,
    /// The hold policy force-flushed a light queue
    /// (`a` = flushed depth, `b` = hold sweeps at the time).
    ForcedFlush,
    /// A direct submission hit a full ring and the job rescheduled
    /// (`a` = retry attempt number).
    BackpressureRetry,
    /// A heuristic poll swept a shard with inflight requests and found
    /// its response ring empty — one §5.6 wasted poll (`a` = trigger:
    /// 0 efficiency, 1 timeliness, 2 failover).
    PollerMiss,
    /// The shard router placed a request (`a` = op-class index); only
    /// recorded when the engine has more than one shard.
    RouterDecision,
    /// A merged phase p99 crossed the configured anomaly threshold
    /// (`a` = phase index × `CLASSES` + class index, `b` = p99 ns).
    AnomalyP99,
}

/// Number of event kinds.
pub const EVENT_KINDS: usize = 6;

impl EventKind {
    /// All kinds, in declaration order.
    pub const ALL: [EventKind; EVENT_KINDS] = [
        EventKind::RingFullDeferral,
        EventKind::ForcedFlush,
        EventKind::BackpressureRetry,
        EventKind::PollerMiss,
        EventKind::RouterDecision,
        EventKind::AnomalyP99,
    ];

    /// Stable index (matches [`Self::ALL`]).
    pub fn index(self) -> usize {
        match self {
            EventKind::RingFullDeferral => 0,
            EventKind::ForcedFlush => 1,
            EventKind::BackpressureRetry => 2,
            EventKind::PollerMiss => 3,
            EventKind::RouterDecision => 4,
            EventKind::AnomalyP99 => 5,
        }
    }

    /// Label value used in dumps and the exposition format.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::RingFullDeferral => "ring_full_deferral",
            EventKind::ForcedFlush => "forced_flush",
            EventKind::BackpressureRetry => "backpressure_retry",
            EventKind::PollerMiss => "poller_miss",
            EventKind::RouterDecision => "router_decision",
            EventKind::AnomalyP99 => "anomaly_p99",
        }
    }
}

/// One recorded event. `a`/`b` are kind-specific operands (see
/// [`EventKind`]).
#[derive(Clone, Copy, Debug)]
pub struct FlightEvent {
    /// Nanoseconds since the process trace origin.
    pub at_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Shard the event concerns (0 for engine-wide events).
    pub shard: u32,
    /// First kind-specific operand.
    pub a: u64,
    /// Second kind-specific operand.
    pub b: u64,
}

struct FlightInner {
    ring: Vec<FlightEvent>,
    /// Next overwrite position once the ring is full.
    next: usize,
}

/// A fixed-size ring of recent [`FlightEvent`]s plus monotonic per-kind
/// counts. Recording takes one short mutex (events are rare —
/// per-sweep, per-retry — never per-request on the fast path); when
/// disabled it is a single relaxed load.
pub struct FlightRecorder {
    enabled: AtomicBool,
    counts: [AtomicU64; EVENT_KINDS],
    inner: Mutex<FlightInner>,
    /// Snapshot captured by [`Self::freeze`] on anomaly.
    frozen: Mutex<Option<Vec<FlightEvent>>>,
    /// Exemplar captured alongside [`Self::freeze`]: the slowest sampled
    /// connection's span tree at the moment of the anomaly, so a p99
    /// spike comes with a concrete trace attached.
    frozen_trace: Mutex<Option<ConnTrace>>,
}

impl FlightRecorder {
    /// A disabled recorder holding up to `capacity` events.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            enabled: AtomicBool::new(false),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            inner: Mutex::new(FlightInner {
                ring: Vec::with_capacity(capacity.max(1)),
                next: 0,
            }),
            frozen: Mutex::new(None),
            frozen_trace: Mutex::new(None),
        }
    }

    /// Enable or disable recording.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Is recording enabled?
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Replace the ring with an empty one of `capacity` (setup only;
    /// drops recorded events).
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.inner.lock();
        inner.ring = Vec::with_capacity(capacity.max(1));
        inner.next = 0;
    }

    /// Record one event; a no-op while disabled. Never allocates after
    /// the ring has filled once.
    pub fn record(&self, kind: EventKind, shard: u32, a: u64, b: u64) {
        if !self.enabled() {
            return;
        }
        self.counts[kind.index()].fetch_add(1, Ordering::Relaxed);
        let ev = FlightEvent {
            at_ns: now_ns(),
            kind,
            shard,
            a,
            b,
        };
        let mut inner = self.inner.lock();
        if inner.ring.len() < inner.ring.capacity() {
            inner.ring.push(ev);
        } else {
            let at = inner.next;
            inner.ring[at] = ev;
            inner.next = (at + 1) % inner.ring.capacity();
        }
    }

    /// Monotonic count of events of `kind` (survives ring overwrites).
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind.index()].load(Ordering::Relaxed)
    }

    /// The retained events, oldest first.
    pub fn dump(&self) -> Vec<FlightEvent> {
        let inner = self.inner.lock();
        if inner.ring.len() < inner.ring.capacity() {
            inner.ring.clone()
        } else {
            let mut out = Vec::with_capacity(inner.ring.len());
            out.extend_from_slice(&inner.ring[inner.next..]);
            out.extend_from_slice(&inner.ring[..inner.next]);
            out
        }
    }

    /// Capture the current ring as the frozen anomaly snapshot
    /// (replacing any previous one) and count an [`EventKind::AnomalyP99`].
    pub fn freeze(&self, shard: u32, a: u64, b: u64) {
        self.record(EventKind::AnomalyP99, shard, a, b);
        *self.frozen.lock() = Some(self.dump());
    }

    /// The snapshot captured by the most recent [`Self::freeze`].
    pub fn frozen(&self) -> Option<Vec<FlightEvent>> {
        self.frozen.lock().clone()
    }

    /// Attach the exemplar span tree for the current anomaly (the
    /// slowest sampled connection at freeze time).
    pub fn freeze_trace(&self, trace: ConnTrace) {
        *self.frozen_trace.lock() = Some(trace);
    }

    /// The exemplar span tree captured with the last anomaly, if any.
    pub fn frozen_trace(&self) -> Option<ConnTrace> {
        self.frozen_trace.lock().clone()
    }

    /// Render the retained events (and any frozen snapshot) as one
    /// line-oriented page for the on-demand dump endpoint.
    pub fn render_dump(&self) -> String {
        fn lines(out: &mut String, events: &[FlightEvent]) {
            for ev in events {
                let _ = writeln!(
                    out,
                    "{} {} shard={} a={} b={}",
                    ev.at_ns,
                    ev.kind.name(),
                    ev.shard,
                    ev.a,
                    ev.b
                );
            }
        }
        let mut out = String::new();
        let recent = self.dump();
        let _ = writeln!(out, "flight: {} recent events", recent.len());
        lines(&mut out, &recent);
        if let Some(frozen) = self.frozen() {
            let _ = writeln!(out, "frozen: {} events at anomaly", frozen.len());
            lines(&mut out, &frozen);
        }
        if let Some(trace) = self.frozen_trace() {
            let _ = writeln!(
                out,
                "exemplar: conn {} worker {} wall-ns {} spans {}",
                trace.conn_id(),
                trace.worker(),
                trace.wall_ns(),
                trace.spans().len(),
            );
            for sp in trace.spans() {
                let _ = writeln!(
                    out,
                    "span {} start {} dur {} parent {} a={} b={}",
                    sp.kind.name(),
                    sp.start_ns,
                    sp.dur_ns(),
                    sp.parent.map(i64::from).unwrap_or(-1),
                    sp.a,
                    sp.b,
                );
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Connection tracing: sampled lifecycle spans
// ---------------------------------------------------------------------------

/// Number of [`SpanKind`] variants.
pub const SPAN_KINDS: usize = 9;

/// A named stage of a connection's lifecycle. The histograms of PR 5
/// see only the four *offload* phases; spans attribute the rest of the
/// wall clock — accept-backlog wait, the admission round-trip, the
/// handshake control plane, record-plane batches, and the offload
/// submit→retrieve waits in between.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// The root span: socket admitted → connection closed.
    Connection,
    /// Time queued in a listener backlog before a worker accepted it.
    /// `a` = dispatch probes, `b` = 1 if the socket arrived by stealing.
    AcceptWait,
    /// Admission-gate round trip (QFAM). `a` = 1 challenge sent,
    /// 2 token verified, 0 passed without a frame.
    Admission,
    /// TLS handshake control plane, first flight → `Finished`.
    /// `a` = 1 if resumed (abbreviated / PSK), 2 on a resume miss;
    /// `b` = negotiated version tag.
    Handshake,
    /// One established service pass: request parse → response staged.
    /// `a` = requests completed, `b` = body bytes sent.
    Serve,
    /// A crypto pause: offload submit → async notify → resume.
    /// `a` = shard index, `b` = 1 if the submit bypassed the batch
    /// queue, 2 if it retried on backpressure.
    OffloadWait,
    /// One `RecordCodec::flush_into` batch. `a` = records sealed,
    /// `b` = ciphertext bytes produced.
    RecordSeal,
    /// One `RecordCodec::open_into` batch. `a` = records opened,
    /// `b` = plaintext bytes produced.
    RecordOpen,
    /// Derived at publish: wall time of the root not covered by any
    /// direct child (established keep-alive gaps, client think time).
    Idle,
}

/// All span kinds, in [`SpanKind::index`] order.
pub const SPAN_KIND_LIST: [SpanKind; SPAN_KINDS] = [
    SpanKind::Connection,
    SpanKind::AcceptWait,
    SpanKind::Admission,
    SpanKind::Handshake,
    SpanKind::Serve,
    SpanKind::OffloadWait,
    SpanKind::RecordSeal,
    SpanKind::RecordOpen,
    SpanKind::Idle,
];

impl SpanKind {
    /// Dense index for per-kind arrays.
    pub fn index(self) -> usize {
        match self {
            SpanKind::Connection => 0,
            SpanKind::AcceptWait => 1,
            SpanKind::Admission => 2,
            SpanKind::Handshake => 3,
            SpanKind::Serve => 4,
            SpanKind::OffloadWait => 5,
            SpanKind::RecordSeal => 6,
            SpanKind::RecordOpen => 7,
            SpanKind::Idle => 8,
        }
    }

    /// Stable snake_case name used in exports and the attribution table.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Connection => "connection",
            SpanKind::AcceptWait => "accept_wait",
            SpanKind::Admission => "admission",
            SpanKind::Handshake => "handshake",
            SpanKind::Serve => "serve",
            SpanKind::OffloadWait => "offload_wait",
            SpanKind::RecordSeal => "record_seal",
            SpanKind::RecordOpen => "record_open",
            SpanKind::Idle => "idle",
        }
    }
}

/// One begin/end stamped interval in a sampled connection's tree.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Stage this span attributes its interval to.
    pub kind: SpanKind,
    /// Monotonic begin stamp ([`now_ns`]).
    pub start_ns: u64,
    /// Monotonic end stamp; 0 while still open.
    pub end_ns: u64,
    /// Index of the enclosing span in the trace; `None` on the root.
    pub parent: Option<u32>,
    /// Kind-specific annotation (see [`SpanKind`]).
    pub a: u64,
    /// Kind-specific annotation (see [`SpanKind`]).
    pub b: u64,
}

impl Span {
    /// Closed duration (0 while open or on clock skew).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span tree of one sampled connection. Single-writer by
/// construction — owned by the task of the connection it traces — so
/// begin / end / annotate are plain `Vec` pushes with no atomics and no
/// locks.
/// Unsampled connections hold `None` instead and allocate nothing.
#[derive(Clone, Debug)]
pub struct ConnTrace {
    conn_id: u64,
    worker: u32,
    spans: Vec<Span>,
    /// Indices of currently-open spans, innermost last. New spans
    /// nest under the top of this stack.
    open: Vec<u32>,
}

impl ConnTrace {
    /// A new trace whose root [`SpanKind::Connection`] span opens at
    /// `start_ns`.
    pub fn new(conn_id: u64, worker: u32, start_ns: u64) -> Self {
        let mut t = ConnTrace {
            conn_id,
            worker,
            spans: Vec::with_capacity(16),
            open: Vec::with_capacity(4),
        };
        t.spans.push(Span {
            kind: SpanKind::Connection,
            start_ns,
            end_ns: 0,
            parent: None,
            a: 0,
            b: 0,
        });
        t.open.push(0);
        t
    }

    /// Sampled connection id (the 1-in-N counter value).
    pub fn conn_id(&self) -> u64 {
        self.conn_id
    }

    /// Worker that owned the connection.
    pub fn worker(&self) -> u32 {
        self.worker
    }

    /// Open a child span of the innermost open span. Returns an id for
    /// [`Self::end`].
    pub fn begin(&mut self, kind: SpanKind, now: u64) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.spans.push(Span {
            kind,
            start_ns: now,
            end_ns: 0,
            parent,
            a: 0,
            b: 0,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and, defensively, anything it still has open
    /// under it — ends are popped in LIFO order).
    pub fn end(&mut self, id: u32, now: u64) {
        while let Some(top) = self.open.pop() {
            let sp = &mut self.spans[top as usize];
            if sp.end_ns == 0 {
                sp.end_ns = now.max(sp.start_ns);
            }
            if top == id {
                break;
            }
        }
    }

    /// Close span `id` with annotations.
    pub fn end_annotated(&mut self, id: u32, now: u64, a: u64, b: u64) {
        {
            let sp = &mut self.spans[id as usize];
            sp.a = a;
            sp.b = b;
        }
        self.end(id, now);
    }

    /// Record an already-measured interval as a completed child of the
    /// innermost open span (used for the offload waits measured around
    /// the polls of a pending service pass).
    pub fn add(&mut self, kind: SpanKind, start_ns: u64, end_ns: u64, a: u64, b: u64) {
        let parent = self.open.last().copied();
        self.spans.push(Span {
            kind,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            a,
            b,
        });
    }

    /// Annotate an open span in place without closing it.
    pub fn annotate(&mut self, id: u32, a: u64, b: u64) {
        let sp = &mut self.spans[id as usize];
        sp.a = a;
        sp.b = b;
    }

    /// Close every open span (root included) at `now`, then fill the
    /// root's uncovered gaps with derived [`SpanKind::Idle`] children so
    /// direct-child durations sum to the root wall time exactly.
    pub fn finish(&mut self, now: u64) {
        while let Some(top) = self.open.pop() {
            let sp = &mut self.spans[top as usize];
            if sp.end_ns == 0 {
                sp.end_ns = now.max(sp.start_ns);
            }
        }
        // Direct children of the root are sequential (one worker drives
        // the connection), so gaps are the intervals between the end of
        // one child and the start of the next.
        let root_start = self.spans[0].start_ns;
        let root_end = self.spans[0].end_ns;
        let mut edges: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(0))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        edges.sort_unstable();
        let mut cursor = root_start;
        let mut gaps: Vec<(u64, u64)> = Vec::new();
        for (s, e) in edges {
            if s > cursor {
                gaps.push((cursor, s));
            }
            cursor = cursor.max(e);
        }
        if root_end > cursor {
            gaps.push((cursor, root_end));
        }
        for (s, e) in gaps {
            self.spans.push(Span {
                kind: SpanKind::Idle,
                start_ns: s,
                end_ns: e,
                parent: Some(0),
                a: 0,
                b: 0,
            });
        }
    }

    /// Root-span wall time (0 until [`Self::finish`]).
    pub fn wall_ns(&self) -> u64 {
        self.spans[0].dur_ns()
    }

    /// Sum of the durations of the root's direct children.
    pub fn covered_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(0))
            .map(|s| s.dur_ns())
            .sum()
    }

    /// All spans, root first, in creation order (derived idle spans
    /// last).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of still-open spans (diagnostics; 0 after `finish`).
    pub fn open_depth(&self) -> usize {
        self.open.len()
    }
}

/// Per-worker sink of sampled connection traces.
///
/// The hot path touches only [`Self::sample`] — one relaxed
/// `fetch_add` per accepted connection when enabled, one relaxed load
/// when disabled (`trace_sample_rate 0`). Span begin/end stamps happen
/// on the single-writer [`ConnTrace`] owned by the sampled connection;
/// the sink's mutex is taken once per *sampled connection close*
/// (1-in-N), never per request.
pub struct TraceSink {
    sample_rate: AtomicU64,
    max_spans: usize,
    seen: AtomicU64,
    sampled: AtomicU64,
    spans_total: AtomicU64,
    dropped: AtomicU64,
    wall_ns_total: AtomicU64,
    covered_ns_total: AtomicU64,
    stage_ns: [Histogram; SPAN_KINDS],
    inner: Mutex<SinkInner>,
    slowest: Mutex<Option<ConnTrace>>,
}

struct SinkInner {
    traces: Vec<ConnTrace>,
    spans_held: usize,
}

/// Default retained-span budget (`trace_buffer_spans`).
pub const TRACE_BUFFER_SPANS_DEFAULT: usize = 16384;

impl TraceSink {
    /// A sink sampling 1-in-`sample_rate` connections (0 disables) and
    /// retaining at most `max_spans` spans across buffered traces.
    pub fn new(sample_rate: u64, max_spans: usize) -> Self {
        TraceSink {
            sample_rate: AtomicU64::new(sample_rate),
            max_spans: max_spans.max(64),
            seen: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
            spans_total: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            wall_ns_total: AtomicU64::new(0),
            covered_ns_total: AtomicU64::new(0),
            stage_ns: std::array::from_fn(|_| Histogram::new()),
            inner: Mutex::new(SinkInner {
                traces: Vec::new(),
                spans_held: 0,
            }),
            slowest: Mutex::new(None),
        }
    }

    /// Is sampling on at all? One relaxed load.
    pub fn enabled(&self) -> bool {
        self.sample_rate.load(Ordering::Relaxed) != 0
    }

    /// The configured 1-in-N rate (0 = off).
    pub fn sample_rate(&self) -> u64 {
        self.sample_rate.load(Ordering::Relaxed)
    }

    /// Per-connection sampling decision. Returns a connection id when
    /// this connection should carry a trace.
    pub fn sample(&self) -> Option<u64> {
        let rate = self.sample_rate.load(Ordering::Relaxed);
        if rate == 0 {
            return None;
        }
        let n = self.seen.fetch_add(1, Ordering::Relaxed);
        if n % rate == 0 {
            self.sampled.fetch_add(1, Ordering::Relaxed);
            Some(n)
        } else {
            None
        }
    }

    /// Finish `trace` at `now` and retire it into the buffer: stage
    /// durations feed the per-kind histograms, the slowest-connection
    /// slot updates, and the oldest buffered traces are dropped if the
    /// span budget would overflow.
    pub fn publish(&self, mut trace: ConnTrace, now: u64) {
        trace.finish(now);
        let wall = trace.wall_ns();
        self.wall_ns_total.fetch_add(wall, Ordering::Relaxed);
        self.covered_ns_total
            .fetch_add(trace.covered_ns(), Ordering::Relaxed);
        self.spans_total
            .fetch_add(trace.spans().len() as u64, Ordering::Relaxed);
        for sp in trace.spans() {
            self.stage_ns[sp.kind.index()].record(sp.dur_ns());
        }
        {
            let mut slowest = self.slowest.lock();
            let beat = slowest.as_ref().map(|t| wall > t.wall_ns()).unwrap_or(true);
            if beat {
                *slowest = Some(trace.clone());
            }
        }
        let mut inner = self.inner.lock();
        let incoming = trace.spans().len();
        while inner.spans_held + incoming > self.max_spans && !inner.traces.is_empty() {
            let evicted = inner.traces.remove(0);
            inner.spans_held -= evicted.spans().len();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        if incoming <= self.max_spans {
            inner.spans_held += incoming;
            inner.traces.push(trace);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Connections sampled so far.
    pub fn sampled(&self) -> u64 {
        self.sampled.load(Ordering::Relaxed)
    }

    /// Spans published so far (monotonic; survives eviction).
    pub fn spans_published(&self) -> u64 {
        self.spans_total.load(Ordering::Relaxed)
    }

    /// Traces evicted from the buffer to stay under the span budget.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Sum of published root wall times.
    pub fn wall_ns_total(&self) -> u64 {
        self.wall_ns_total.load(Ordering::Relaxed)
    }

    /// Sum of published direct-child (stage) durations.
    pub fn covered_ns_total(&self) -> u64 {
        self.covered_ns_total.load(Ordering::Relaxed)
    }

    /// Latency snapshot of one stage across published traces.
    pub fn stage_snapshot(&self, kind: SpanKind) -> HistSnapshot {
        self.stage_ns[kind.index()].snapshot()
    }

    /// Clone of the currently buffered traces, oldest first.
    pub fn traces(&self) -> Vec<ConnTrace> {
        self.inner.lock().traces.clone()
    }

    /// The slowest (by root wall time) connection published so far.
    pub fn slowest(&self) -> Option<ConnTrace> {
        self.slowest.lock().clone()
    }
}

/// Render traces as a Chrome trace-event JSON document (the
/// `{"traceEvents": [...]}` object format; loadable in Perfetto or
/// `chrome://tracing`). Events are complete (`"ph":"X"`) spans with
/// microsecond timestamps; `pid` is the worker, `tid` the sampled
/// connection id, so each connection renders as its own track.
pub fn chrome_trace_json(traces: &[ConnTrace]) -> String {
    fn us(ns: u64) -> String {
        format!("{}.{:03}", ns / 1_000, ns % 1_000)
    }
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for t in traces {
        for sp in t.spans() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"qtls\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"a\":{},\"b\":{},\"parent\":{}}}}}",
                sp.kind.name(),
                us(sp.start_ns),
                us(sp.dur_ns()),
                t.worker(),
                t.conn_id(),
                sp.a,
                sp.b,
                sp.parent.map(i64::from).unwrap_or(-1),
            );
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

// ---------------------------------------------------------------------------
// Mini JSON parser: Chrome-trace validation for CI
// ---------------------------------------------------------------------------

/// A std-only recursive-descent JSON parser, just big enough to load a
/// Chrome trace-event document back and check its shape. Backs the
/// `/trace` CI gate in `scripts/check.sh` and the loadgen
/// `--trace-dump` artifact check.
pub mod tracejson {
    use std::collections::BTreeMap;

    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Json {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number, kept as f64 (trace stamps fit exactly ≤ 2^53).
        Num(f64),
        /// A string with escapes decoded.
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object (sorted keys).
        Obj(BTreeMap<String, Json>),
    }

    impl Json {
        /// Object field access.
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(m) => m.get(key),
                _ => None,
            }
        }

        /// Array elements, if this is an array.
        pub fn as_arr(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(v) => Some(v),
                _ => None,
            }
        }

        /// Numeric value, if this is a number.
        pub fn as_num(&self) -> Option<f64> {
            match self {
                Json::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// String value, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }
    }

    struct Parser<'a> {
        b: &'a [u8],
        at: usize,
    }

    impl<'a> Parser<'a> {
        fn ws(&mut self) {
            while self
                .b
                .get(self.at)
                .map(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
                .unwrap_or(false)
            {
                self.at += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.b.get(self.at).copied()
        }

        fn eat(&mut self, c: u8) -> Result<(), String> {
            if self.peek() == Some(c) {
                self.at += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected '{}' at byte {}, found {:?}",
                    c as char,
                    self.at,
                    self.peek().map(|c| c as char)
                ))
            }
        }

        fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
            if self.b[self.at..].starts_with(word.as_bytes()) {
                self.at += word.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.at))
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut s = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.at += 1;
                        return Ok(s);
                    }
                    Some(b'\\') => {
                        self.at += 1;
                        let esc = self.peek().ok_or("truncated escape")?;
                        self.at += 1;
                        match esc {
                            b'"' => s.push('"'),
                            b'\\' => s.push('\\'),
                            b'/' => s.push('/'),
                            b'n' => s.push('\n'),
                            b't' => s.push('\t'),
                            b'r' => s.push('\r'),
                            b'b' => s.push('\u{8}'),
                            b'f' => s.push('\u{c}'),
                            b'u' => {
                                if self.at + 4 > self.b.len() {
                                    return Err("truncated \\u escape".into());
                                }
                                let hex = std::str::from_utf8(&self.b[self.at..self.at + 4])
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                self.at += 4;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            other => return Err(format!("bad escape \\{}", other as char)),
                        }
                    }
                    Some(c) if c < 0x80 => {
                        s.push(c as char);
                        self.at += 1;
                    }
                    Some(_) => {
                        // Multi-byte UTF-8: copy the sequence through.
                        let start = self.at;
                        self.at += 1;
                        while self
                            .b
                            .get(self.at)
                            .map(|c| c & 0xc0 == 0x80)
                            .unwrap_or(false)
                        {
                            self.at += 1;
                        }
                        s.push_str(
                            std::str::from_utf8(&self.b[start..self.at])
                                .map_err(|_| "invalid utf-8 in string".to_string())?,
                        );
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.at;
            if self.peek() == Some(b'-') {
                self.at += 1;
            }
            while self
                .peek()
                .map(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
                .unwrap_or(false)
            {
                self.at += 1;
            }
            std::str::from_utf8(&self.b[start..self.at])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }

        fn value(&mut self) -> Result<Json, String> {
            self.ws();
            match self.peek() {
                Some(b'{') => {
                    self.at += 1;
                    let mut m = BTreeMap::new();
                    self.ws();
                    if self.peek() == Some(b'}') {
                        self.at += 1;
                        return Ok(Json::Obj(m));
                    }
                    loop {
                        self.ws();
                        let k = self.string()?;
                        self.ws();
                        self.eat(b':')?;
                        let v = self.value()?;
                        m.insert(k, v);
                        self.ws();
                        match self.peek() {
                            Some(b',') => self.at += 1,
                            Some(b'}') => {
                                self.at += 1;
                                return Ok(Json::Obj(m));
                            }
                            _ => return Err(format!("bad object at byte {}", self.at)),
                        }
                    }
                }
                Some(b'[') => {
                    self.at += 1;
                    let mut v = Vec::new();
                    self.ws();
                    if self.peek() == Some(b']') {
                        self.at += 1;
                        return Ok(Json::Arr(v));
                    }
                    loop {
                        v.push(self.value()?);
                        self.ws();
                        match self.peek() {
                            Some(b',') => self.at += 1,
                            Some(b']') => {
                                self.at += 1;
                                return Ok(Json::Arr(v));
                            }
                            _ => return Err(format!("bad array at byte {}", self.at)),
                        }
                    }
                }
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'n') => self.literal("null", Json::Null),
                Some(_) => self.number(),
                None => Err("empty input".into()),
            }
        }
    }

    /// Parse a complete JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.at != p.b.len() {
            return Err(format!("trailing bytes at {}", p.at));
        }
        Ok(v)
    }

    /// Shape summary of a validated Chrome trace document.
    #[derive(Debug, Default)]
    pub struct ChromeSummary {
        /// Total trace events.
        pub events: usize,
        /// Distinct `tid`s (sampled connections).
        pub connections: usize,
        /// Events per span name.
        pub by_name: BTreeMap<String, usize>,
    }

    /// Validate `doc` as a Chrome trace-event JSON object: a top-level
    /// `traceEvents` array whose entries each carry `name`, `ph`, `ts`,
    /// `dur`, `pid`, and `tid`. Returns counts for further assertions.
    pub fn validate_chrome_trace(doc: &str) -> Result<ChromeSummary, String> {
        let v = parse(doc)?;
        let events = v
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or("missing traceEvents array")?;
        let mut summary = ChromeSummary::default();
        let mut tids = std::collections::BTreeSet::new();
        for (i, ev) in events.iter().enumerate() {
            let name = ev
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("event {i}: missing name"))?;
            let ph = ev
                .get("ph")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("event {i}: missing ph"))?;
            if ph != "X" {
                return Err(format!("event {i}: unexpected ph {ph:?}"));
            }
            for field in ["ts", "dur", "pid", "tid"] {
                let n = ev
                    .get(field)
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i}: missing {field}"))?;
                if !n.is_finite() || n < 0.0 {
                    return Err(format!("event {i}: bad {field}"));
                }
            }
            if let Some(tid) = ev.get("tid").and_then(Json::as_num) {
                tids.insert(tid as u64);
            }
            summary.events += 1;
            *summary.by_name.entry(name.to_string()).or_insert(0) += 1;
        }
        summary.connections = tids.len();
        Ok(summary)
    }
}

// ---------------------------------------------------------------------------
// Metric registry
// ---------------------------------------------------------------------------

/// The single authoritative list of exposed metric family names.
/// `scripts/check.sh` greps every `# TYPE` family scraped from
/// `/metrics` against this constant — a metric absent here fails CI.
pub mod registry {
    /// Every metric family name the `/metrics` endpoint may expose.
    pub const METRIC_NAMES: &[&str] = &[
        "qtls_phase_latency_ns",
        "qtls_phase_latency_hist_ns",
        "qtls_phase_latency_max_ns",
        "qtls_phase_overflow_total",
        "qtls_submit_flushes_total",
        "qtls_submit_flushed_requests_total",
        "qtls_submit_deferred_total",
        "qtls_submit_holds_total",
        "qtls_submit_forced_flushes_total",
        "qtls_submit_bypassed_total",
        "qtls_submit_max_depth",
        "qtls_submit_ewma_depth_milli",
        "qtls_shard_inflight",
        "qtls_shard_asym_inflight",
        "qtls_ring_full_retries_total",
        "qtls_poll_fired_total",
        "qtls_poll_wasted_total",
        "qtls_poll_shards_swept_total",
        "qtls_poll_responses_total",
        "qtls_qat_submitted_total",
        "qtls_qat_ring_full_total",
        "qtls_qat_doorbells_total",
        "qtls_qat_polled_total",
        "qtls_qat_resp_stalls_total",
        "qtls_qat_completed_total",
        "qtls_flight_events_total",
        "qtls_worker_connections_active",
        "qtls_worker_connections_alive",
        "qtls_worker_connections_idle",
        "qtls_shard_count",
        "qtls_worker_handshakes_total",
        "qtls_worker_resumed_handshakes_total",
        "qtls_worker_resume_miss_total",
        "qtls_worker_requests_total",
        "qtls_worker_bytes_sent_total",
        "qtls_worker_bytes_received_total",
        "qtls_worker_record_handoffs_total",
        "qtls_worker_async_jobs_total",
        "qtls_worker_resumptions_total",
        "qtls_worker_errors_total",
        "qtls_worker_kernel_switches_total",
        "qtls_worker_accepts_total",
        "qtls_admission_challenges_total",
        "qtls_admission_tokens_verified_total",
        "qtls_admission_tokens_rejected_total",
        "qtls_admission_accept_sheds_total",
        "qtls_admission_overloads_total",
        "qtls_worker_load",
        "qtls_worker_steals_total",
        "qtls_dispatch_policy",
        "qtls_qat_rebalances_total",
        "qtls_metrics_enabled",
        "qtls_worker_closed_total",
        "qtls_worker_ring_retries_total",
        "qtls_worker_cancelled_submits_total",
        "qtls_trace_sample_rate",
        "qtls_trace_sampled_total",
        "qtls_trace_spans_total",
        "qtls_trace_dropped_total",
        "qtls_trace_wall_us_total",
        "qtls_trace_covered_us_total",
        "qtls_trace_stage_us",
    ];

    /// Is `name` a registered family, or a `_bucket`/`_sum`/`_count`
    /// series of one?
    pub fn is_registered(name: &str) -> bool {
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name);
        METRIC_NAMES.contains(&base) || METRIC_NAMES.contains(&name)
    }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition: renderer and mini-parser
// ---------------------------------------------------------------------------

/// Renderer and validator for the Prometheus text exposition format
/// (std-only; the validator backs the CI smoke check).
pub mod promtext {
    use super::registry;
    use std::fmt::Write as _;

    /// Incremental builder of a Prometheus text page. Debug-asserts that
    /// every family it emits is in [`registry::METRIC_NAMES`].
    #[derive(Default)]
    pub struct PromText {
        out: String,
    }

    impl PromText {
        /// An empty page.
        pub fn new() -> Self {
            Self::default()
        }

        /// Emit the `# HELP` / `# TYPE` header of a family.
        pub fn header(&mut self, name: &str, kind: &str, help: &str) {
            debug_assert!(
                registry::METRIC_NAMES.contains(&name),
                "unregistered metric {name}"
            );
            let _ = writeln!(self.out, "# HELP {name} {help}");
            let _ = writeln!(self.out, "# TYPE {name} {kind}");
        }

        /// Emit one sample line with integer value.
        pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
            self.sample_raw(name, labels, &value.to_string());
        }

        /// Emit one sample line with a pre-formatted value (e.g. `+Inf`
        /// bucket bounds or floats).
        pub fn sample_raw(&mut self, name: &str, labels: &[(&str, &str)], value: &str) {
            self.out.push_str(name);
            if !labels.is_empty() {
                self.out.push('{');
                for (i, (k, v)) in labels.iter().enumerate() {
                    if i > 0 {
                        self.out.push(',');
                    }
                    let _ = write!(self.out, "{k}=\"{v}\"");
                }
                self.out.push('}');
            }
            let _ = writeln!(self.out, " {value}");
        }

        /// The finished page.
        pub fn finish(self) -> String {
            self.out
        }
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    fn valid_value(s: &str) -> bool {
        matches!(s, "+Inf" | "-Inf" | "NaN") || s.parse::<f64>().is_ok()
    }

    /// Parse labels of the form `k="v",k2="v2"` (no trailing comma; `\"`
    /// escapes inside values).
    fn valid_labels(s: &str) -> bool {
        let mut rest = s;
        loop {
            let Some(eq) = rest.find('=') else {
                return false;
            };
            if !valid_name(&rest[..eq]) {
                return false;
            }
            rest = &rest[eq + 1..];
            if !rest.starts_with('"') {
                return false;
            }
            rest = &rest[1..];
            let mut escaped = false;
            let mut close = None;
            for (i, c) in rest.char_indices() {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    close = Some(i);
                    break;
                }
            }
            let Some(close) = close else {
                return false;
            };
            rest = &rest[close + 1..];
            if rest.is_empty() {
                return true;
            }
            let Some(tail) = rest.strip_prefix(',') else {
                return false;
            };
            rest = tail;
        }
    }

    /// Validate a Prometheus text page and return the `# TYPE`-declared
    /// family names in order of declaration. Rejects malformed lines,
    /// unknown sample families, and samples with no preceding `# TYPE`.
    pub fn parse(text: &str) -> Result<Vec<String>, String> {
        const TYPES: [&str; 5] = ["counter", "gauge", "histogram", "summary", "untyped"];
        let mut families: Vec<(String, String)> = Vec::new();
        for (no, line) in text.lines().enumerate() {
            let lineno = no + 1;
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split_whitespace().next().unwrap_or("");
                if !valid_name(name) {
                    return Err(format!("line {lineno}: bad HELP name {name:?}"));
                }
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let (name, kind) = (it.next().unwrap_or(""), it.next().unwrap_or(""));
                if !valid_name(name) {
                    return Err(format!("line {lineno}: bad TYPE name {name:?}"));
                }
                if !TYPES.contains(&kind) {
                    return Err(format!("line {lineno}: bad TYPE kind {kind:?}"));
                }
                families.push((name.to_string(), kind.to_string()));
                continue;
            }
            if line.starts_with('#') {
                continue; // free-form comment
            }
            // Sample line: name[{labels}] value
            let (series, rest) = match line.find('{') {
                Some(open) => {
                    let close = line
                        .rfind('}')
                        .ok_or_else(|| format!("line {lineno}: unclosed label braces"))?;
                    if close < open {
                        return Err(format!("line {lineno}: mismatched label braces"));
                    }
                    if !valid_labels(&line[open + 1..close]) {
                        return Err(format!("line {lineno}: bad labels"));
                    }
                    (&line[..open], line[close + 1..].trim())
                }
                None => {
                    let sp = line
                        .find(' ')
                        .ok_or_else(|| format!("line {lineno}: sample missing value"))?;
                    (&line[..sp], line[sp + 1..].trim())
                }
            };
            if !valid_name(series) {
                return Err(format!("line {lineno}: bad sample name {series:?}"));
            }
            // Value (timestamps are not emitted by our renderer).
            let value = rest.split_whitespace().next().unwrap_or("");
            if !valid_value(value) {
                return Err(format!("line {lineno}: bad value {value:?}"));
            }
            // The series must belong to a previously declared family
            // (allowing histogram/summary suffix series).
            let known = families.iter().any(|(name, kind)| {
                series == name
                    || (matches!(kind.as_str(), "histogram" | "summary")
                        && (series == format!("{name}_sum")
                            || series == format!("{name}_count")
                            || series == format!("{name}_bucket")))
            });
            if !known {
                return Err(format!("line {lineno}: sample {series:?} has no # TYPE"));
            }
        }
        Ok(families.into_iter().map(|(name, _)| name).collect())
    }
}

/// Append a merged phase histogram to a [`promtext::PromText`] page as a
/// Prometheus `histogram` family plus companion max gauge and overflow
/// counter samples (shared by the server endpoint and benches).
pub fn render_phase_histogram(
    page: &mut promtext::PromText,
    phase: Phase,
    class: OpClass,
    snap: &HistSnapshot,
) {
    let labels = [("phase", phase.name()), ("class", class_name(class))];
    let mut cumulative = 0u64;
    for (i, &c) in snap.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        cumulative += c;
        let le = bucket_upper_bound(i).to_string();
        page.sample(
            "qtls_phase_latency_hist_ns_bucket",
            &[
                ("phase", phase.name()),
                ("class", class_name(class)),
                ("le", &le),
            ],
            cumulative,
        );
    }
    page.sample(
        "qtls_phase_latency_hist_ns_bucket",
        &[
            ("phase", phase.name()),
            ("class", class_name(class)),
            ("le", "+Inf"),
        ],
        snap.count(),
    );
    page.sample("qtls_phase_latency_hist_ns_count", &labels, snap.count());
    page.sample("qtls_phase_latency_hist_ns_sum", &labels, snap.sum);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotonic_at_row_boundaries() {
        let mut prev = 0usize;
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            127,
            128,
            1 << 20,
            (1 << 36) - 1,
        ] {
            let idx = bucket_index(v).unwrap();
            assert!(idx >= prev, "index must not decrease at v={v}");
            assert!(bucket_upper_bound(idx) >= v, "upper bound covers v={v}");
            prev = idx;
        }
        assert_eq!(bucket_index(0), Some(0));
        assert_eq!(bucket_index(31), Some(31));
        assert_eq!(bucket_index(32), Some(32));
        assert_eq!(bucket_index((1 << 36) - 1), Some(BUCKETS - 1));
        assert_eq!(bucket_index(1 << 36), None);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut v = 1u64;
        while v < 1 << 36 {
            for off in [0u64, 1, v / 3] {
                let x = v + off;
                if x >= 1 << 36 {
                    continue;
                }
                let ub = bucket_upper_bound(bucket_index(x).unwrap());
                assert!(ub >= x);
                let err = (ub - x) as f64 / x.max(1) as f64;
                assert!(err <= 1.0 / SUBBUCKETS as f64, "err {err} at {x}");
            }
            v *= 2;
        }
    }

    #[test]
    fn zero_duration_samples_count() {
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.max, 0);
        assert_eq!(s.quantile(1.0), 0);
    }

    #[test]
    fn overflow_bucket_catches_huge_samples() {
        let h = Histogram::new();
        h.record(1 << 40);
        h.record(100);
        let s = h.snapshot();
        assert_eq!(s.overflow, 1);
        assert_eq!(s.count(), 2);
        assert_eq!(s.max, 1 << 40);
        // The overflow sample ranks last and reports the recorded max.
        assert_eq!(s.quantile(1.0), 1 << 40);
    }

    #[test]
    fn quantiles_stay_within_error_bound() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1µs .. 1ms
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        for (q, truth) in [(0.5, 500_000u64), (0.9, 900_000), (0.99, 990_000)] {
            let got = s.quantile(q);
            assert!(got >= truth, "q{q}: {got} < {truth}");
            let err = (got - truth) as f64 / truth as f64;
            assert!(err <= 1.0 / SUBBUCKETS as f64, "q{q}: err {err}");
        }
        assert_eq!(s.quantile(1.0), 1_000_000);
    }

    #[test]
    fn merge_of_disjoint_histograms_preserves_count_and_max() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..100u64 {
            a.record(v); // tiny values
            b.record(1_000_000 + v * 1_000); // ~1ms values
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 200);
        assert_eq!(m.sum, a.snapshot().sum + b.snapshot().sum);
        assert_eq!(m.max, b.snapshot().max);
        // Low quantiles come from a, high from b.
        assert!(m.quantile(0.25) < 100);
        assert!(m.quantile(0.75) >= 1_000_000);
    }

    #[test]
    fn flight_ring_wraps_and_keeps_counts() {
        let rec = FlightRecorder::new(4);
        rec.set_enabled(true);
        for i in 0..6u64 {
            rec.record(EventKind::ForcedFlush, 0, i, 0);
        }
        let dump = rec.dump();
        assert_eq!(dump.len(), 4);
        // Oldest retained is event 2; order is preserved.
        let seq: Vec<u64> = dump.iter().map(|e| e.a).collect();
        assert_eq!(seq, vec![2, 3, 4, 5]);
        assert_eq!(rec.count(EventKind::ForcedFlush), 6);
        assert_eq!(rec.count(EventKind::PollerMiss), 0);
    }

    #[test]
    fn flight_recorder_disabled_records_nothing() {
        let rec = FlightRecorder::new(4);
        rec.record(EventKind::PollerMiss, 1, 0, 0);
        assert!(rec.dump().is_empty());
        assert_eq!(rec.count(EventKind::PollerMiss), 0);
    }

    #[test]
    fn freeze_captures_anomaly_snapshot() {
        let rec = FlightRecorder::new(8);
        rec.set_enabled(true);
        rec.record(EventKind::RingFullDeferral, 0, 3, 1);
        rec.freeze(0, 7, 1_000_000);
        let frozen = rec.frozen().unwrap();
        assert_eq!(frozen.len(), 2);
        assert_eq!(frozen[1].kind, EventKind::AnomalyP99);
        assert!(rec.render_dump().contains("anomaly_p99"));
    }

    #[test]
    fn registry_has_no_duplicates() {
        let mut names: Vec<&str> = registry::METRIC_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), registry::METRIC_NAMES.len());
        assert!(registry::is_registered("qtls_phase_latency_hist_ns_bucket"));
        assert!(registry::is_registered("qtls_qat_polled_total"));
        assert!(!registry::is_registered("qtls_rogue_metric"));
    }

    #[test]
    fn promtext_roundtrip_and_rejections() {
        let mut page = promtext::PromText::new();
        page.header("qtls_metrics_enabled", "gauge", "Is the obs plane on");
        page.sample("qtls_metrics_enabled", &[], 1);
        page.header("qtls_phase_latency_hist_ns", "histogram", "Phase latency");
        let h = Histogram::new();
        h.record(500);
        h.record(70_000);
        render_phase_histogram(&mut page, Phase::Retrieve, OpClass::Asym, &h.snapshot());
        let text = page.finish();
        let families = promtext::parse(&text).unwrap();
        assert_eq!(
            families,
            vec!["qtls_metrics_enabled", "qtls_phase_latency_hist_ns"]
        );
        for fam in &families {
            assert!(registry::is_registered(fam));
        }
        // Rejections: sample without TYPE, bad value, bad labels.
        assert!(promtext::parse("loose_metric 1").is_err());
        assert!(promtext::parse("# TYPE x gauge\nx notanumber").is_err());
        assert!(promtext::parse("# TYPE x gauge\nx{k=} 1").is_err());
        assert!(promtext::parse("# TYPE x banana\n").is_err());
    }

    #[test]
    fn engine_obs_merges_across_shards() {
        let obs = EngineObs::new(2);
        obs.set_enabled(true);
        obs.shard(0).record(Phase::Notify, OpClass::Prf, 1_000);
        obs.shard(1).record(Phase::Notify, OpClass::Prf, 9_000);
        let merged = obs.merged(Phase::Notify, OpClass::Prf);
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.max, 9_000);
        // Other phase/class cells stay empty.
        assert_eq!(obs.merged(Phase::Post, OpClass::Prf).count(), 0);
        // Disabled => record is a no-op.
        obs.set_enabled(false);
        obs.shard(0).record(Phase::Notify, OpClass::Prf, 1);
        assert_eq!(obs.merged(Phase::Notify, OpClass::Prf).count(), 2);
    }

    #[test]
    fn span_tree_nests_under_open_stack() {
        let mut t = ConnTrace::new(7, 1, 100);
        let hs = t.begin(SpanKind::Handshake, 110);
        let wait = t.begin(SpanKind::OffloadWait, 120);
        t.end_annotated(wait, 150, 2, 1);
        t.add(SpanKind::RecordSeal, 155, 160, 3, 4096);
        t.end(hs, 200);
        t.finish(300);
        let spans = t.spans();
        assert_eq!(spans[0].kind, SpanKind::Connection);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[hs as usize].parent, Some(0));
        assert_eq!(spans[wait as usize].parent, Some(hs));
        assert_eq!(spans[wait as usize].a, 2);
        // The add() landed while the handshake was still open.
        let seal = spans.iter().find(|s| s.kind == SpanKind::RecordSeal);
        assert_eq!(seal.map(|s| s.parent), Some(Some(hs)));
        assert_eq!(t.open_depth(), 0);
        assert_eq!(t.wall_ns(), 200);
    }

    #[test]
    fn finish_fills_gaps_so_children_cover_the_root_exactly() {
        let mut t = ConnTrace::new(0, 0, 1_000);
        t.add(SpanKind::AcceptWait, 1_000, 1_100, 0, 0);
        let hs = t.begin(SpanKind::Handshake, 1_200);
        t.end(hs, 1_500);
        let sv = t.begin(SpanKind::Serve, 1_900);
        t.end(sv, 2_000);
        t.finish(2_400);
        // Gaps: [1100,1200), [1500,1900), [2000,2400) => idle 900.
        let idle: u64 = t
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Idle)
            .map(|s| s.dur_ns())
            .sum();
        assert_eq!(idle, 900);
        assert_eq!(t.covered_ns(), t.wall_ns());
    }

    #[test]
    fn finish_closes_dangling_spans() {
        let mut t = ConnTrace::new(0, 0, 10);
        let hs = t.begin(SpanKind::Handshake, 20);
        let _wait = t.begin(SpanKind::OffloadWait, 30);
        // Connection dies mid-await: nothing was ended explicitly.
        t.finish(90);
        assert_eq!(t.open_depth(), 0);
        for sp in t.spans() {
            assert!(sp.end_ns >= sp.start_ns);
            assert!(sp.end_ns != 0);
        }
        assert_eq!(t.spans()[hs as usize].end_ns, 90);
    }

    #[test]
    fn trace_sink_samples_one_in_n_and_is_off_at_zero() {
        let off = TraceSink::new(0, 1024);
        assert!(!off.enabled());
        for _ in 0..100 {
            assert!(off.sample().is_none());
        }
        assert_eq!(off.sampled(), 0);

        let sink = TraceSink::new(4, 1024);
        let hits: Vec<bool> = (0..16).map(|_| sink.sample().is_some()).collect();
        assert_eq!(hits.iter().filter(|h| **h).count(), 4);
        assert!(hits[0], "first connection is always sampled");
        assert_eq!(sink.sampled(), 4);
    }

    #[test]
    fn trace_sink_publishes_and_evicts_under_span_budget() {
        let sink = TraceSink::new(1, 64);
        for i in 0..100u64 {
            let mut t = ConnTrace::new(i, 0, i * 1_000);
            let hs = t.begin(SpanKind::Handshake, i * 1_000 + 10);
            t.end(hs, i * 1_000 + 500);
            sink.publish(t, i * 1_000 + 600);
        }
        assert!(sink.dropped() > 0, "budget of 64 spans must evict");
        let held: usize = sink.traces().iter().map(|t| t.spans().len()).sum();
        assert!(held <= 64, "held {held} spans over budget");
        // Stage histograms and sums accumulated for every publish.
        assert_eq!(sink.stage_snapshot(SpanKind::Handshake).count(), 100);
        assert_eq!(sink.stage_snapshot(SpanKind::Connection).count(), 100);
        assert!(sink.wall_ns_total() > 0);
        // Slowest slot holds a full 600ns-wall trace.
        let slow = sink.slowest().expect("slowest populated");
        assert_eq!(slow.wall_ns(), 600);
    }

    #[test]
    fn chrome_trace_json_roundtrips_through_the_mini_parser() {
        let sink = TraceSink::new(1, 4096);
        for i in 0..3u64 {
            let mut t = ConnTrace::new(i, 2, 5_000);
            t.add(SpanKind::AcceptWait, 5_000, 6_000, 1, 0);
            let hs = t.begin(SpanKind::Handshake, 6_000);
            let w = t.begin(SpanKind::OffloadWait, 6_200);
            t.end_annotated(w, 6_400, 0, 1);
            t.end(hs, 7_000);
            sink.publish(t, 8_000);
        }
        let doc = chrome_trace_json(&sink.traces());
        let summary = tracejson::validate_chrome_trace(&doc).expect("valid chrome trace");
        assert_eq!(summary.connections, 3);
        assert_eq!(summary.by_name.get("handshake"), Some(&3));
        assert_eq!(summary.by_name.get("offload_wait"), Some(&3));
        assert_eq!(summary.by_name.get("accept_wait"), Some(&3));
        // 5 spans per trace: root, accept, hs, wait, one tail idle gap.
        assert_eq!(summary.events, 15);
    }

    #[test]
    fn mini_parser_handles_escapes_and_rejects_garbage() {
        let v =
            tracejson::parse(r#"{"s":"a\"b\nA","n":-1.5e2,"x":[true,null]}"#).expect("valid json");
        assert_eq!(
            v.get("s").and_then(tracejson::Json::as_str),
            Some("a\"b\nA")
        );
        assert_eq!(v.get("n").and_then(tracejson::Json::as_num), Some(-150.0));
        assert!(tracejson::parse("{\"a\":1,}").is_err());
        assert!(tracejson::parse("[1 2]").is_err());
        assert!(tracejson::parse("{\"a\" 1}").is_err());
        assert!(tracejson::parse("").is_err());
        assert!(tracejson::parse("{} trailing").is_err());
        assert!(tracejson::validate_chrome_trace("{\"traceEvents\":3}").is_err());
        assert!(
            tracejson::validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err(),
            "event without name/ts must fail"
        );
    }

    #[test]
    fn span_kind_list_matches_indices() {
        for (i, kind) in SPAN_KIND_LIST.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
        let mut names: Vec<&str> = SPAN_KIND_LIST.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SPAN_KINDS);
    }
}
