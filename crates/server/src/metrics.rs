//! The worker's scrapable metrics plane: the `stub_status` page (human
//! and `?format=kv` machine variants), the Prometheus-text `/metrics`
//! endpoint, and the `/flight` recorder dump — all rendered from one
//! [`StatusSnapshot`] the worker refreshes at its sweep boundary plus
//! the engine's live [`qtls_core::obs`] state.
//!
//! The three status pages walk one schema, declared once in `mod schema`
//! below: every Prometheus family (`METRICS`, in page order) and every
//! `stub_status` line (`STUB`, whose fields name their kv key and take
//! their value from a family or a getter of their own). The registry,
//! [`is_registered`], is that table.
//!
//! Rendering happens only when an endpoint is actually requested; the
//! event loop's per-iteration cost is one snapshot copy. With
//! `qat_metrics off` (the default) the engine's record paths stay
//! single-relaxed-load no-ops and `/metrics` answers 404.

use qtls_core::obs::{
    self, promtext::PromText, EventKind, Phase, TraceSink, CLASS_LIST, SPAN_KIND_LIST,
};
use qtls_core::{HeuristicStats, HistSnapshot, OffloadEngine, SubmitSnapshot};
use qtls_qat::counters::FwCounters;
use qtls_sync::Mutex;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::worker::WorkerStats;

/// The `ssl_engine { qat_metrics ... }` directive family.
#[derive(Clone, Copy, Debug)]
pub struct MetricsConfig {
    /// `qat_metrics on|off`: serve `/metrics` + `/flight` and enable
    /// phase tracing, histograms and the flight recorder.
    pub enabled: bool,
    /// `qat_metrics_anomaly_p99_us`: freeze the flight recorder when any
    /// merged phase p99 crosses this many microseconds (0 = never).
    pub anomaly_p99_us: u64,
    /// `qat_metrics_flight_capacity`: events retained by the recorder.
    pub flight_capacity: usize,
    /// `qat_anomaly_interval_ms`: wall-clock cadence of the anomaly
    /// check, replacing the historical every-256-iterations count.
    pub anomaly_interval_ms: u64,
    /// `trace_sample_rate`: sample 1-in-N connections for end-to-end
    /// span tracing (0 = off).
    pub trace_sample_rate: u64,
    /// `trace_buffer_spans`: retained-span budget across buffered
    /// connection traces.
    pub trace_buffer_spans: usize,
    /// `trace_export on|off`: serve the `/trace` Chrome-JSON endpoint.
    pub trace_export: bool,
}

/// Default `qat_anomaly_interval_ms`.
pub const ANOMALY_INTERVAL_MS_DEFAULT: u64 = 50;

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            enabled: false,
            anomaly_p99_us: 0,
            flight_capacity: obs::FLIGHT_CAPACITY_DEFAULT,
            anomaly_interval_ms: ANOMALY_INTERVAL_MS_DEFAULT,
            trace_sample_rate: 0,
            trace_buffer_spans: obs::TRACE_BUFFER_SPANS_DEFAULT,
            trace_export: true,
        }
    }
}

/// Point-in-time copy of the worker-level statistics every status
/// renderer reads. Refreshed by the worker once per event-loop
/// iteration, so an endpoint served mid-handshake sees the state as of
/// the previous sweep boundary.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatusSnapshot {
    /// The worker's aggregated counters.
    pub stats: WorkerStats,
    /// `TC_alive`: open connections.
    pub tc_alive: u64,
    /// `TC_idle`: established connections with nothing pending.
    pub tc_idle: u64,
    /// `TC_active` (§4.3): an offload pending or unread bytes.
    pub tc_active: u64,
    /// Heuristic-poller statistics, for profiles that run one.
    pub heuristic: Option<HeuristicStats>,
    /// Simulated user/kernel switches spent on notification.
    pub kernel_switches: u64,
    /// The scheduling load gauge as last published: accepted-but-unserved
    /// backlog + un-established connections + staged offload depth.
    pub load: u64,
    /// Dispatch policy code the cluster routes new sockets with:
    /// 0 `round_robin`, 1 `least_loaded`.
    pub dispatch_policy: u64,
}

/// The plane shared between the worker loop (writer) and the in-band
/// HTTP endpoints (readers).
pub struct MetricsPlane {
    cfg: MetricsConfig,
    engine: Option<Arc<OffloadEngine>>,
    status: Mutex<StatusSnapshot>,
    sink: Arc<TraceSink>,
}

impl MetricsPlane {
    /// Build for a worker with `engine` (if its profile offloads).
    pub fn new(cfg: MetricsConfig, engine: Option<Arc<OffloadEngine>>) -> Self {
        MetricsPlane {
            cfg,
            engine,
            status: Mutex::new(StatusSnapshot::default()),
            sink: Arc::new(TraceSink::new(
                cfg.trace_sample_rate,
                cfg.trace_buffer_spans,
            )),
        }
    }

    /// The connection-trace sink (sampling decisions + publishes).
    pub fn trace_sink(&self) -> &Arc<TraceSink> {
        &self.sink
    }

    /// Is the plane enabled (`qat_metrics on`)?
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The directive configuration.
    pub fn config(&self) -> MetricsConfig {
        self.cfg
    }

    /// Replace the worker-level snapshot (called at the sweep boundary).
    pub fn update(&self, snap: StatusSnapshot) {
        *self.status.lock() = snap;
    }

    /// The last snapshot stored by [`Self::update`].
    pub fn snapshot(&self) -> StatusSnapshot {
        *self.status.lock()
    }

    /// Serve an observability endpoint, or `None` if `path` is not one.
    /// `query` is the raw query string (without the `?`).
    pub fn serve(&self, path: &str, query: &str) -> Option<(u16, &'static str, String)> {
        match path {
            "/stub_status" => {
                let kv = query.split('&').any(|kv| kv == "format=kv");
                Some((200, "OK", self.stub_status(&self.snapshot(), kv, true)))
            }
            "/metrics" => {
                if self.cfg.enabled {
                    Some((200, "OK", self.render_metrics()))
                } else {
                    Some((404, "Not Found", String::new()))
                }
            }
            "/flight" => {
                if self.cfg.enabled {
                    let page = match &self.engine {
                        Some(engine) => engine.obs().recorder().render_dump(),
                        None => "flight: 0 recent events\n".to_string(),
                    };
                    Some((200, "OK", page))
                } else {
                    Some((404, "Not Found", String::new()))
                }
            }
            "/trace" => {
                if self.cfg.trace_export && self.sink.enabled() {
                    Some((200, "OK", obs::chrome_trace_json(&self.sink.traces())))
                } else {
                    Some((404, "Not Found", String::new()))
                }
            }
            _ => None,
        }
    }

    /// Compare every merged phase p99 against the configured anomaly
    /// threshold and freeze the flight recorder on the worst crossing
    /// (`a` = phase index × classes + class index, `b` = p99 ns).
    /// Called periodically by the worker; a no-op when the threshold is
    /// 0 or the plane is disabled.
    pub fn check_anomaly(&self) {
        if !self.cfg.enabled || self.cfg.anomaly_p99_us == 0 {
            return;
        }
        let Some(engine) = &self.engine else {
            return;
        };
        let threshold_ns = self.cfg.anomaly_p99_us.saturating_mul(1000);
        let mut worst: Option<(u64, u64)> = None;
        for phase in Phase::ALL {
            for class in CLASS_LIST {
                let p99 = engine.obs().merged(phase, class).quantile(0.99);
                if p99 > threshold_ns && worst.is_none_or(|(_, w)| p99 > w) {
                    let code = (phase.index() * obs::CLASSES + obs::class_index(class)) as u64;
                    worst = Some((code, p99));
                }
            }
        }
        if let Some((code, p99)) = worst {
            engine.obs().recorder().freeze(0, code, p99);
            // Exemplar linkage: attach the slowest sampled connection's
            // span tree so the spike comes with a concrete trace.
            if let Some(trace) = self.sink.slowest() {
                engine.obs().recorder().freeze_trace(trace);
            }
        }
    }

    /// Render the Prometheus text page: every family of the schema
    /// whose source this worker has.
    pub fn render_metrics(&self) -> String {
        let snap = self.snapshot();
        let src = self.src(&snap, true);
        let mut page = PromText::new();
        for run in METRICS {
            match run {
                Prom::One(scalar) => {
                    if let Some(value) = src.get(scalar.get) {
                        let Family { name, kind, help } = scalar.family;
                        page.header(name, kind, help);
                        page.sample(name, &[], value);
                    }
                }
                Prom::Each(families, emit) => {
                    let out = &mut Samples {
                        page: &mut page,
                        families,
                    };
                    match *emit {
                        Emit::Poll(f) => snap.heuristic.iter().for_each(|h| f(h, out.head())),
                        Emit::Engine(f) => src.engine.into_iter().for_each(|e| f(e, out.head())),
                        Emit::Trace(f) => src.sink.into_iter().for_each(|t| f(t, out.head())),
                    }
                }
            }
        }
        page.finish()
    }

    /// Render the `stub_status` page (human, or `kv` for one `key value`
    /// pair per line) of `snap`, with the latency-attribution lines when
    /// `traced` and the plane samples connections.
    pub(crate) fn stub_status(&self, snap: &StatusSnapshot, kv: bool, traced: bool) -> String {
        let src = self.src(snap, traced);
        let mut page = String::new();
        for line in STUB {
            for (label, at) in src.instances(line) {
                let values: Option<Vec<u64>> = line
                    .fields
                    .iter()
                    .map(|&(_, _, value)| src.value(value, &at))
                    .collect();
                let Some(values) = values else {
                    continue;
                };
                if kv {
                    for (&(_, key, _), value) in line.fields.iter().zip(values) {
                        let _ = writeln!(page, "{} {value}", key.replace("{}", &label));
                    }
                } else if let Some(head) = line.human {
                    page.push_str(&head.replace("{}", &label));
                    for (&(name, _, _), value) in line.fields.iter().zip(values) {
                        if name.is_empty() {
                            let _ = write!(page, " {value}");
                        } else {
                            let _ = write!(page, " {name} {value}");
                        }
                    }
                    page.push('\n');
                }
            }
        }
        page
    }

    fn src<'a>(&'a self, snap: &'a StatusSnapshot, traced: bool) -> Src<'a> {
        let engine = self.engine.as_deref();
        Src {
            cfg: &self.cfg,
            snap,
            engine,
            sink: (traced && self.sink.enabled()).then_some(&*self.sink),
            staging: engine.map_or_else(Vec::new, |e| {
                (0..e.shard_count())
                    .filter(|&i| e.shard_submit_queue(i).is_some())
                    .collect()
            }),
        }
    }
}

/// Is `name` a family of the schema, or a `_bucket`/`_sum`/`_count`
/// series of one? The registry every scrape is checked against.
pub fn is_registered(name: &str) -> bool {
    let base = name
        .strip_suffix("_bucket")
        .or_else(|| name.strip_suffix("_sum"))
        .or_else(|| name.strip_suffix("_count"))
        .unwrap_or(name);
    families().any(|family| family.name == base || family.name == name)
}

/// The schema's kv-to-family links: each `stub_status?format=kv` key
/// whose value is a `/metrics` family's (a [`Value::Of`] field), with
/// that family. An audit reads both pages and checks the two values
/// match; no key outside this list claims a family.
#[doc(hidden)]
pub fn kv_family_links() -> impl Iterator<Item = (&'static str, &'static str)> {
    STUB.iter()
        .flat_map(|line| line.fields)
        .filter_map(|&(_, key, value)| match value {
            Value::Of(scalar) => Some((key, scalar.family.name)),
            _ => None,
        })
}

/// Every family of `METRICS`, in page order.
fn families() -> impl Iterator<Item = &'static Family> {
    METRICS.iter().flat_map(|run| match run {
        Prom::One(scalar) => std::slice::from_ref(&scalar.family),
        Prom::Each(families, _) => families,
    })
}

// ---------------------------------------------------------------------------
// The schema's types
// ---------------------------------------------------------------------------

/// Where a value is read from. The source decides whether a worker shows
/// it: poller counters only under a profile that runs the heuristic
/// poller, engine values only under an offloading one, trace counters
/// only while connection tracing samples.
#[derive(Clone, Copy)]
enum Get {
    Config(fn(&MetricsConfig) -> u64),
    Snap(fn(&StatusSnapshot) -> u64),
    Poll(fn(&HeuristicStats) -> u64),
    Engine(fn(&OffloadEngine) -> u64),
    Trace(fn(&TraceSink) -> u64),
}

/// The sample writer of a labelled run, by the source it reads (shown
/// under the same rule as [`Get`]).
#[derive(Clone, Copy)]
enum Emit {
    Poll(fn(&HeuristicStats, &mut Samples)),
    Engine(fn(&OffloadEngine, &mut Samples)),
    Trace(fn(&TraceSink, &mut Samples)),
}

/// A Prometheus family: its name, kind and help text.
struct Family {
    name: &'static str,
    kind: &'static str,
    help: &'static str,
}

/// A family of one unlabelled sample, and where its value comes from.
struct Scalar {
    family: Family,
    get: Get,
}

/// A run of the `/metrics` page.
enum Prom {
    /// One scalar family.
    One(&'static Scalar),
    /// Labelled families: their headers, then the samples [`Emit`]
    /// writes.
    Each(&'static [Family], Emit),
}

/// A line of the `stub_status` pages. The kv page prints each field as
/// `key value`; the human page prints `human` then ` label value` per
/// field (` value` for an empty label), and skips a kv-only line. In a
/// line of [`Value::Shard`] or [`Value::Stage`] fields, printed once per
/// staging shard or per trace stage, `{}` in `human` and the keys
/// stands for the shard's index or the stage's name.
struct Line {
    human: Option<&'static str>,
    fields: &'static [(&'static str, &'static str, Value)],
}

/// Where a `stub_status` field's value comes from.
#[derive(Clone, Copy)]
enum Value {
    /// The value of a `/metrics` family.
    Of(&'static Scalar),
    /// A value no family exports.
    Own(Get),
    /// A value of the shards that stage submissions (and their count),
    /// shown when there is one.
    Staging(fn(&OffloadEngine, usize) -> u64),
    /// The value of one staging shard.
    Shard(fn(&OffloadEngine, usize) -> u64),
    /// A value of one trace stage's histogram.
    Stage(fn(&HistSnapshot) -> u64),
}

const fn counter(name: &'static str, get: Get, help: &'static str) -> Scalar {
    Scalar {
        family: family("counter", name, help),
        get,
    }
}

const fn gauge(name: &'static str, get: Get, help: &'static str) -> Scalar {
    Scalar {
        family: family("gauge", name, help),
        get,
    }
}

const fn family(kind: &'static str, name: &'static str, help: &'static str) -> Family {
    Family { name, kind, help }
}

/// Where a labelled run writes: sample `i` goes to the run's family `i`.
struct Samples<'a> {
    page: &'a mut PromText,
    families: &'static [Family],
}

impl Samples<'_> {
    /// Write the run's headers, before its samples.
    fn head(&mut self) -> &mut Self {
        for family in self.families {
            self.page.header(family.name, family.kind, family.help);
        }
        self
    }

    fn push(&mut self, family: usize, labels: &[(&str, &str)], value: u64) {
        self.page.sample(self.families[family].name, labels, value);
    }

    /// A sample of the series `<family><suffix>` (a histogram's
    /// `_bucket`, `_count` and `_sum`).
    fn series(&mut self, family: usize, suffix: &str, labels: &[(&str, &str)], value: u64) {
        let name = format!("{}{suffix}", self.families[family].name);
        self.page.sample(&name, labels, value);
    }
}

/// Which instance of a line is printed.
enum At {
    Once,
    Shard(usize),
    Stage(HistSnapshot),
}

/// What the pages read.
struct Src<'a> {
    cfg: &'a MetricsConfig,
    snap: &'a StatusSnapshot,
    engine: Option<&'a OffloadEngine>,
    /// The trace sink, while connection tracing samples.
    sink: Option<&'a TraceSink>,
    /// The shards that stage submissions.
    staging: Vec<usize>,
}

impl Src<'_> {
    fn get(&self, get: Get) -> Option<u64> {
        match get {
            Get::Config(f) => Some(f(self.cfg)),
            Get::Snap(f) => Some(f(self.snap)),
            Get::Poll(f) => self.snap.heuristic.as_ref().map(f),
            Get::Engine(f) => self.engine.map(f),
            Get::Trace(f) => self.sink.map(f),
        }
    }

    fn value(&self, value: Value, at: &At) -> Option<u64> {
        match (value, at) {
            (Value::Of(scalar), _) => self.get(scalar.get),
            (Value::Own(get), _) => self.get(get),
            (Value::Staging(f), _) if !self.staging.is_empty() => {
                Some(f(self.engine?, self.staging.len()))
            }
            (Value::Shard(f), At::Shard(i)) => Some(f(self.engine?, *i)),
            (Value::Stage(f), At::Stage(hist)) => Some(f(hist)),
            _ => None,
        }
    }

    /// The instances of `line` (its `{}` label and what it reads): one
    /// per staging shard or per trace stage, else one.
    fn instances(&self, line: &Line) -> Vec<(String, At)> {
        match line.fields.first().map(|field| field.2) {
            Some(Value::Shard(_)) => self
                .staging
                .iter()
                .map(|&i| (i.to_string(), At::Shard(i)))
                .collect(),
            Some(Value::Stage(_)) => self.sink.map_or_else(Vec::new, |sink| {
                SPAN_KIND_LIST
                    .iter()
                    .map(|&kind| (kind.name().into(), At::Stage(sink.stage_snapshot(kind))))
                    .collect()
            }),
            _ => vec![(String::new(), At::Once)],
        }
    }
}

// ---------------------------------------------------------------------------
// The schema: every family and every kv key, declared once
// ---------------------------------------------------------------------------

/// The table, one row per line (kept by hand, not by rustfmt). A
/// counter both pages show is a [`Scalar`] named once here, listed where
/// `/metrics` shows it and read by its kv field through [`Value::Of`].
#[rustfmt::skip]
mod schema {
    use super::Get::{Config, Engine, Poll, Snap, Trace};
    use super::Prom::{Each, One};
    use super::Value::{Of, Own, Shard, Stage, Staging};
    use super::*;

    static ENABLED: Scalar = gauge("qtls_metrics_enabled", Config(|c| c.enabled as u64),
        "1 when the qat_metrics directive enabled the observability plane.");
    static ACTIVE: Scalar = gauge("qtls_worker_connections_active", Snap(|s| s.tc_active),
        "TC_active: connections with an offload pending or unread bytes.");
    static ALIVE: Scalar = gauge("qtls_worker_connections_alive", Snap(|s| s.tc_alive),
        "TC_alive: all live connections (idle + active).");
    static IDLE: Scalar = gauge("qtls_worker_connections_idle", Snap(|s| s.tc_idle),
        "TC_idle: connections waiting on the peer (nothing unread, nothing offloaded).");
    static LOAD: Scalar = gauge("qtls_worker_load", Snap(|s| s.load),
        "Scheduling load gauge: backlog + un-established connections + staged offload depth.");
    static POLICY: Scalar = gauge("qtls_dispatch_policy", Snap(|s| s.dispatch_policy),
        "Dispatch policy routing new sockets: 0 round_robin, 1 least_loaded.");
    static STEALS: Scalar = counter("qtls_worker_steals_total", Snap(|s| s.stats.steals),
        "Queued sockets stolen from a more-loaded peer's accept backlog.");
    static HANDSHAKES: Scalar = counter("qtls_worker_handshakes_total", Snap(|s| s.stats.handshakes),
        "Completed TLS handshakes.");
    static RESUMED: Scalar = counter("qtls_worker_resumed_handshakes_total", Snap(|s| s.stats.resumed),
        "Of which abbreviated (session resumption).");
    static RESUME_MISS: Scalar = counter("qtls_worker_resume_miss_total", Snap(|s| s.stats.resume_miss),
        "Handshakes where offered resumption state could not be honoured (fell back to full).");
    static REQUESTS: Scalar = counter("qtls_worker_requests_total", Snap(|s| s.stats.requests),
        "HTTP requests served.");
    static SENT: Scalar = counter("qtls_worker_bytes_sent_total", Snap(|s| s.stats.bytes_sent),
        "Application bytes sent (HTTP responses, pre-encryption).");
    static RECEIVED: Scalar = counter("qtls_worker_bytes_received_total", Snap(|s| s.stats.bytes_received),
        "Application bytes received (HTTP requests, post-decryption).");
    static HANDOFFS: Scalar = counter("qtls_worker_record_handoffs_total", Snap(|s| s.stats.record_handoffs),
        "Connections handed from the handshake control plane to the batched record codec.");
    static ASYNC_JOBS: Scalar = counter("qtls_worker_async_jobs_total", Snap(|s| s.stats.async_jobs),
        "Service passes that paused on a crypto offload at least once.");
    static RESUMPTIONS: Scalar = counter("qtls_worker_resumptions_total", Snap(|s| s.stats.resumptions),
        "Offload-job resumptions processed.");
    static ERRORS: Scalar = counter("qtls_worker_errors_total", Snap(|s| s.stats.errors),
        "TLS protocol errors.");
    static SWITCHES: Scalar = counter("qtls_worker_kernel_switches_total", Snap(|s| s.kernel_switches),
        "Simulated user/kernel switches spent on async notification.");
    static ACCEPTS: Scalar = counter("qtls_worker_accepts_total", Snap(|s| s.stats.accepted),
        "Connections accepted off the listener backlog.");
    static CHALLENGES: Scalar = counter("qtls_admission_challenges_total", Snap(|s| s.stats.challenges_sent),
        "Retry-token challenges sent to token-less ClientHellos under overload.");
    static VERIFIED: Scalar = counter("qtls_admission_tokens_verified_total", Snap(|s| s.stats.tokens_verified),
        "Retry tokens presented and verified (admitted past the gate).");
    static REJECTED: Scalar = counter("qtls_admission_tokens_rejected_total", Snap(|s| s.stats.tokens_rejected),
        "Retry tokens rejected (stale, spoofed, or malformed frames).");
    static SHEDS: Scalar = counter("qtls_admission_accept_sheds_total", Snap(|s| s.stats.accept_sheds),
        "Connections shed at the listener's full accept backlog.");
    static OVERLOADS: Scalar = counter("qtls_admission_overloads_total", Snap(|s| s.stats.overload_entered),
        "Transitions into overload mode (inflight handshakes crossed the watermark).");
    static CLOSED: Scalar = counter("qtls_worker_closed_total", Snap(|s| s.stats.closed),
        "Connections closed and reaped by the worker.");
    static RETRIES: Scalar = counter("qtls_worker_ring_retries_total", Snap(|s| s.stats.retries),
        "Jobs rescheduled after a full request ring (event-loop backpressure).");
    static CANCELLED: Scalar = counter("qtls_worker_cancelled_submits_total", Snap(|s| s.stats.cancelled_submits),
        "Staged submissions cancelled at shutdown before reaching a ring.");
    static WASTED: Scalar = counter("qtls_poll_wasted_total", Poll(|h| h.empty_polls),
        "Swept shards that retrieved nothing (per-shard wasted polls, paper section 5.6).");
    static SWEPT: Scalar = counter("qtls_poll_shards_swept_total", Poll(|h| h.shards_swept),
        "Shards swept across all fired polls.");
    static RESPONSES: Scalar = counter("qtls_poll_responses_total", Poll(|h| h.responses),
        "Responses retrieved by the heuristic poller.");
    static RATE: Scalar = gauge("qtls_trace_sample_rate", Trace(|t| t.sample_rate()),
        "Connection tracing samples 1-in-N connections (0 = off).");
    static SAMPLED: Scalar = counter("qtls_trace_sampled_total", Trace(|t| t.sampled()),
        "Connections sampled for end-to-end span tracing.");
    static SPANS: Scalar = counter("qtls_trace_spans_total", Trace(|t| t.spans_published()),
        "Spans published across sampled connections.");
    static DROPPED: Scalar = counter("qtls_trace_dropped_total", Trace(|t| t.dropped()),
        "Traces evicted from the buffer to stay under trace_buffer_spans.");
    static WALL_US: Scalar = counter("qtls_trace_wall_us_total", Trace(|t| t.wall_ns_total() / 1_000),
        "Sum of sampled-connection wall times, microseconds.");
    static COVERED_US: Scalar = counter("qtls_trace_covered_us_total", Trace(|t| t.covered_ns_total() / 1_000),
        "Sum of stage durations attributed across sampled connections, microseconds.");

    /// The `/metrics` page, run by run.
    pub(super) static METRICS: &[Prom] = &[
        One(&ENABLED),
        // The worker.
        One(&ACTIVE), One(&ALIVE), One(&IDLE), One(&LOAD), One(&POLICY),
        One(&STEALS), One(&HANDSHAKES), One(&RESUMED), One(&RESUME_MISS),
        One(&REQUESTS), One(&SENT), One(&RECEIVED), One(&HANDOFFS),
        One(&ASYNC_JOBS), One(&RESUMPTIONS), One(&ERRORS), One(&SWITCHES),
        One(&ACCEPTS), One(&CHALLENGES), One(&VERIFIED), One(&REJECTED),
        One(&SHEDS), One(&OVERLOADS), One(&CLOSED), One(&RETRIES),
        One(&CANCELLED),
        // The heuristic poller.
        Each(&[family("counter", "qtls_poll_fired_total", "Heuristic polls fired, by trigger rule.")],
            Emit::Poll(poll_fired)),
        One(&WASTED), One(&SWEPT), One(&RESPONSES),
        // The engine: phase latencies (quantiles per shard and merged,
        // then the merged distributions), shard occupancy, the submit
        // pipeline per shard, device counters per shard instance, and
        // flight-recorder event counts (monotonic; they survive ring
        // overwrite).
        Each(&[family("gauge", "qtls_phase_latency_ns",
            "Phase latency quantile in ns (log-linear buckets, <=3.125% relative error).")],
            Emit::Engine(phase_quantiles)),
        Each(&[family("histogram", "qtls_phase_latency_hist_ns", "Merged phase latency distribution in ns.")],
            Emit::Engine(phase_histograms)),
        Each(&[
            family("gauge", "qtls_phase_latency_max_ns", "Largest phase latency recorded, ns."),
            family("counter", "qtls_phase_overflow_total", "Samples beyond the largest histogram bucket (~68.7 s)."),
        ], Emit::Engine(phase_max_and_overflow)),
        One(&gauge("qtls_shard_count", Engine(|e| e.shard_count() as u64),
            "Engine shards (QAT instance pairs) this worker submits to.")),
        Each(&[
            family("gauge", "qtls_shard_inflight", "Inflight requests on the shard's rings."),
            family("gauge", "qtls_shard_asym_inflight", "Of which asymmetric operations."),
        ], Emit::Engine(shard_inflight)),
        One(&counter("qtls_ring_full_retries_total", Engine(|e| e.ring_full_retries()),
            "Submissions retried after a full request ring, all shards.")),
        Each(&[family("counter", "qtls_submit_flushes_total", "Flushes that published at least one request.")],
            Emit::Engine(|e, out| per_submit_queue(e, out, |q| q.flushes))),
        Each(&[family("counter", "qtls_submit_flushed_requests_total", "Requests published through batched flushes.")],
            Emit::Engine(|e, out| per_submit_queue(e, out, |q| q.flushed_requests))),
        Each(&[family("counter", "qtls_submit_deferred_total", "Requests a flush deferred to the next sweep (ring full).")],
            Emit::Engine(|e, out| per_submit_queue(e, out, |q| q.deferred))),
        Each(&[family("gauge", "qtls_submit_max_depth", "Deepest batch published by one flush.")],
            Emit::Engine(|e, out| per_submit_queue(e, out, |q| q.max_depth))),
        Each(&[family("counter", "qtls_qat_submitted_total", "Requests accepted onto request rings.")],
            Emit::Engine(|e, out| per_instance(e, out, |fw| &fw.submitted))),
        Each(&[family("counter", "qtls_qat_ring_full_total", "Submissions rejected by a full request ring.")],
            Emit::Engine(|e, out| per_instance(e, out, |fw| &fw.ring_full))),
        Each(&[family("counter", "qtls_qat_doorbells_total", "Ring-cursor publishes (doorbell writes).")],
            Emit::Engine(|e, out| per_instance(e, out, |fw| &fw.doorbells))),
        Each(&[family("counter", "qtls_qat_polled_total", "Responses retrieved by polling.")],
            Emit::Engine(|e, out| per_instance(e, out, |fw| &fw.polled))),
        Each(&[family("counter", "qtls_qat_resp_stalls_total", "Device stalls on a full response ring.")],
            Emit::Engine(|e, out| per_instance(e, out, |fw| &fw.resp_stalls))),
        Each(&[family("counter", "qtls_qat_completed_total", "Completed operations, by shard and op class.")],
            Emit::Engine(completed_by_class)),
        Each(&[family("counter", "qtls_flight_events_total", "Structured pipeline events recorded, by kind.")],
            Emit::Engine(flight_events)),
        // Connection tracing.
        One(&RATE), One(&SAMPLED), One(&SPANS), One(&DROPPED),
        One(&WALL_US), One(&COVERED_US),
        Each(&[family("gauge", "qtls_trace_stage_us",
            "Per-stage latency attribution across sampled connections, microseconds.")],
            Emit::Trace(stage_us)),
    ];

    /// The `stub_status` pages, line by line. The human page keeps
    /// nginx's first three lines, whose kv names are aliases:
    /// `active_connections` is `TC_alive`, `handled` is handshakes, and
    /// `accepts` is handshakes + errors (listener accepts are
    /// `admission_accepted`). `submit` is the worker's fold of every
    /// shard queue, which `/metrics` shows per shard. The trace lines
    /// are the latency-attribution table: covered-us against wall-us is
    /// its sum check (idle gaps are attributed, so the two match up to
    /// integer truncation).
    pub(super) static STUB: &[Line] = &[
        Line { human: Some("Active connections:"), fields: &[("", "active_connections", Of(&ALIVE))] },
        Line { human: Some("server accepts handled requests\n"), fields: &[
            ("", "accepts", Own(Snap(|s| s.stats.handshakes + s.stats.errors))),
            ("", "handled", Of(&HANDSHAKES)),
            ("", "requests", Of(&REQUESTS)),
        ] },
        Line { human: Some("TLS:"), fields: &[
            ("alive", "tls_alive", Of(&ALIVE)),
            ("idle", "tls_idle", Of(&IDLE)),
            ("active", "tls_active", Of(&ACTIVE)),
            ("async-jobs", "async_jobs", Of(&ASYNC_JOBS)),
            ("resumptions", "resumptions", Of(&RESUMPTIONS)),
        ] },
        Line { human: Some("bytes:"), fields: &[
            ("sent", "bytes_sent", Of(&SENT)),
            ("received", "bytes_received", Of(&RECEIVED)),
            ("handoffs", "record_handoffs", Of(&HANDOFFS)),
        ] },
        Line { human: Some("submit:"), fields: &[
            ("flushes", "submit_flushes", Own(Snap(|s| s.stats.flushes))),
            ("flushed", "submit_flushed", Own(Snap(|s| s.stats.flushed_requests))),
            ("max-depth", "submit_max_depth", Own(Snap(|s| s.stats.max_flush_depth))),
            ("deferred", "submit_deferred", Own(Snap(|s| s.stats.deferred_submits))),
        ] },
        Line { human: Some("admission:"), fields: &[
            ("accepted", "admission_accepted", Of(&ACCEPTS)),
            ("challenges", "admission_challenges", Of(&CHALLENGES)),
            ("verified", "admission_tokens_verified", Of(&VERIFIED)),
            ("rejected", "admission_tokens_rejected", Of(&REJECTED)),
            ("sheds", "admission_accept_sheds", Of(&SHEDS)),
            ("overloads", "admission_overloads", Of(&OVERLOADS)),
        ] },
        Line { human: Some("sched:"), fields: &[
            ("load", "sched_load", Of(&LOAD)),
            ("steals", "sched_steals", Of(&STEALS)),
            ("policy", "sched_policy", Of(&POLICY)),
        ] },
        Line { human: None, fields: &[
            ("", "handshakes", Of(&HANDSHAKES)),
            ("", "resumed_handshakes", Of(&RESUMED)),
            ("", "resume_miss", Of(&RESUME_MISS)),
            ("", "errors", Of(&ERRORS)),
            ("", "closed", Of(&CLOSED)),
            ("", "retries", Of(&RETRIES)),
            ("", "cancelled_submits", Of(&CANCELLED)),
            ("", "kernel_switches", Of(&SWITCHES)),
        ] },
        Line { human: None, fields: &[
            ("", "poll_efficiency", Own(Poll(|h| h.efficiency_polls))),
            ("", "poll_timeliness", Own(Poll(|h| h.timeliness_polls))),
            ("", "poll_failover", Own(Poll(|h| h.failover_polls))),
            ("", "poll_wasted", Of(&WASTED)),
            ("", "poll_responses", Of(&RESPONSES)),
            ("", "poll_shards_swept", Of(&SWEPT)),
        ] },
        Line { human: Some("shards:"), fields: &[
            ("count", "shards_count", Staging(|_, n| n as u64)),
            ("inflight", "shards_inflight", Staging(|e, _| e.inflight().total())),
        ] },
        Line { human: Some("shard {}:"), fields: &[
            ("inflight", "shard{}_inflight", Shard(OffloadEngine::shard_inflight)),
        ] },
        Line { human: Some("trace:"), fields: &[
            ("rate", "trace_sample_rate", Of(&RATE)),
            ("sampled", "trace_sampled", Of(&SAMPLED)),
            ("spans", "trace_spans", Of(&SPANS)),
            ("dropped", "trace_dropped", Of(&DROPPED)),
            ("wall-us", "trace_wall_us", Of(&WALL_US)),
            ("covered-us", "trace_covered_us", Of(&COVERED_US)),
        ] },
        Line { human: Some("trace stage {}:"), fields: &[
            ("count", "trace_stage_{}_count", Stage(HistSnapshot::count)),
            ("mean-us", "trace_stage_{}_mean_us", Stage(stage_mean_us)),
            ("p99-us", "trace_stage_{}_p99_us", Stage(stage_p99_us)),
        ] },
    ];
}

use schema::{METRICS, STUB};

// ---------------------------------------------------------------------------
// The labelled runs' sample writers
// ---------------------------------------------------------------------------

fn poll_fired(h: &HeuristicStats, out: &mut Samples) {
    for (trigger, count) in [
        ("efficiency", h.efficiency_polls),
        ("timeliness", h.timeliness_polls),
        ("failover", h.failover_polls),
    ] {
        out.push(0, &[("trigger", trigger)], count);
    }
}

fn phase_quantiles(engine: &OffloadEngine, out: &mut Samples) {
    const QUANTILES: [(&str, f64); 3] = [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)];
    let eobs = engine.obs();
    for phase in Phase::ALL {
        for class in CLASS_LIST {
            let shards = (0..eobs.shard_count())
                .map(|i| (i.to_string(), eobs.shard(i).snapshot(phase, class)));
            let merged = ("merged".to_string(), eobs.merged(phase, class));
            for (shard, hist) in std::iter::once(merged).chain(shards) {
                for (quantile, q) in QUANTILES {
                    let labels = [
                        ("phase", phase.name()),
                        ("class", obs::class_name(class)),
                        ("shard", &shard),
                        ("quantile", quantile),
                    ];
                    out.push(0, &labels, hist.quantile(q));
                }
            }
        }
    }
}

/// Every (phase, class) cell's merged histogram, with its label values.
fn merged_phases(
    engine: &OffloadEngine,
) -> impl Iterator<Item = (&'static str, &'static str, HistSnapshot)> + '_ {
    Phase::ALL.into_iter().flat_map(move |phase| {
        CLASS_LIST.into_iter().map(move |class| {
            let merged = engine.obs().merged(phase, class);
            (phase.name(), obs::class_name(class), merged)
        })
    })
}

fn phase_histograms(engine: &OffloadEngine, out: &mut Samples) {
    for (phase, class, hist) in merged_phases(engine) {
        let mut cumulative = 0u64;
        for (i, &count) in hist.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            cumulative += count;
            let le = obs::bucket_upper_bound(i).to_string();
            let labels = [("phase", phase), ("class", class), ("le", &le)];
            out.series(0, "_bucket", &labels, cumulative);
        }
        let labels = [("phase", phase), ("class", class), ("le", "+Inf")];
        out.series(0, "_bucket", &labels, hist.count());
        let labels = [("phase", phase), ("class", class)];
        out.series(0, "_count", &labels, hist.count());
        out.series(0, "_sum", &labels, hist.sum);
    }
}

fn phase_max_and_overflow(engine: &OffloadEngine, out: &mut Samples) {
    for (phase, class, merged) in merged_phases(engine) {
        let labels = [("phase", phase), ("class", class)];
        out.push(0, &labels, merged.max);
        out.push(1, &labels, merged.overflow);
    }
}

fn shard_inflight(engine: &OffloadEngine, out: &mut Samples) {
    for i in 0..engine.shard_count() {
        let shard = i.to_string();
        let labels = [("shard", shard.as_str())];
        out.push(0, &labels, engine.shard_inflight(i));
        out.push(1, &labels, engine.shard_asym_inflight(i));
    }
}

fn per_submit_queue(engine: &OffloadEngine, out: &mut Samples, get: fn(&SubmitSnapshot) -> u64) {
    for i in 0..engine.shard_count() {
        if let Some(queue) = engine.shard_submit_queue(i) {
            let shard = i.to_string();
            out.push(0, &[("shard", &shard)], get(&queue.stats().snapshot()));
        }
    }
}

fn per_instance(engine: &OffloadEngine, out: &mut Samples, get: fn(&FwCounters) -> &AtomicU64) {
    for i in 0..engine.shard_count() {
        let count = get(engine.shard_instance(i).fw_counters());
        let shard = i.to_string();
        out.push(0, &[("shard", &shard)], count.load(Ordering::Relaxed));
    }
}

fn completed_by_class(engine: &OffloadEngine, out: &mut Samples) {
    for i in 0..engine.shard_count() {
        let fw = engine.shard_instance(i).fw_counters();
        let shard = i.to_string();
        for (class, count) in [("asym", &fw.asym), ("cipher", &fw.cipher), ("prf", &fw.prf)] {
            let labels = [("shard", shard.as_str()), ("class", class)];
            out.push(0, &labels, count.load(Ordering::Relaxed));
        }
    }
}

fn flight_events(engine: &OffloadEngine, out: &mut Samples) {
    for kind in EventKind::ALL {
        let count = engine.obs().recorder().count(kind);
        out.push(0, &[("kind", kind.name())], count);
    }
}

fn stage_us(sink: &TraceSink, out: &mut Samples) {
    for kind in SPAN_KIND_LIST {
        let hist = sink.stage_snapshot(kind);
        let mean = [("stage", kind.name()), ("stat", "mean")];
        out.push(0, &mean, stage_mean_us(&hist));
        let p99 = [("stage", kind.name()), ("stat", "p99")];
        out.push(0, &p99, stage_p99_us(&hist));
    }
}

fn stage_mean_us(hist: &HistSnapshot) -> u64 {
    match hist.count() {
        0 => 0,
        count => hist.sum / count / 1_000,
    }
}

fn stage_p99_us(hist: &HistSnapshot) -> u64 {
    hist.quantile(0.99) / 1_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_family_and_kv_key_is_declared_once() {
        let mut names: Vec<&str> = families().map(|family| family.name).collect();
        let declared = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), declared, "a family is declared twice");
        let mut keys: Vec<&str> = STUB
            .iter()
            .flat_map(|line| line.fields.iter().map(|&(_, key, _)| key))
            .collect();
        let declared = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), declared, "a kv key is declared twice");
    }

    #[test]
    fn a_stub_field_that_reads_a_family_reads_one_on_the_metrics_page() {
        for line in STUB {
            for &(_, key, value) in line.fields {
                if let Value::Of(scalar) = value {
                    assert!(
                        METRICS
                            .iter()
                            .any(|run| matches!(run, Prom::One(s) if std::ptr::eq(*s, scalar))),
                        "kv key {key} reads {}, which /metrics does not render",
                        scalar.family.name
                    );
                }
            }
        }
    }

    #[test]
    fn the_registry_is_the_table() {
        assert!(is_registered("qtls_phase_latency_hist_ns_bucket"));
        assert!(is_registered("qtls_qat_polled_total"));
        assert!(is_registered("qtls_trace_stage_us"));
        assert!(!is_registered("qtls_rogue_metric"));
        assert_eq!(families().count(), 57);
    }
}
