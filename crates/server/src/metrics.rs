//! The worker's scrapable metrics plane: the `stub_status` page (human
//! and `?format=kv` machine variants), the Prometheus-text `/metrics`
//! endpoint, and the `/flight` recorder dump — all rendered from one
//! [`StatusSnapshot`] the worker refreshes at its sweep boundary plus
//! the engine's live [`qtls_core::obs`] state.
//!
//! Rendering happens only when an endpoint is actually requested; the
//! event loop's per-iteration cost is one snapshot copy. With
//! `qat_metrics off` (the default) the engine's record paths stay
//! single-relaxed-load no-ops and `/metrics` answers 404.

use qtls_core::obs::{
    self, promtext::PromText, EventKind, Phase, TraceSink, CLASS_LIST, SPAN_KIND_LIST,
};
use qtls_core::{HeuristicStats, OffloadEngine};
use qtls_sync::Mutex;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
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
                let snap = self.snapshot();
                let kv = query.split('&').any(|kv| kv == "format=kv");
                let mut page = if kv {
                    render_stub_status_kv(&snap, self.engine.as_deref())
                } else {
                    render_stub_status(&snap, self.engine.as_deref())
                };
                if self.sink.enabled() {
                    page.push_str(&render_trace_attribution(&self.sink, kv));
                }
                Some((200, "OK", page))
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

    /// Render the Prometheus text page: merged + per-shard phase
    /// histograms and every worker/engine/device counter. Every family
    /// name emitted here is in [`obs::registry::METRIC_NAMES`].
    pub fn render_metrics(&self) -> String {
        let snap = self.snapshot();
        let mut page = PromText::new();

        page.header(
            "qtls_metrics_enabled",
            "gauge",
            "1 when the qat_metrics directive enabled the observability plane.",
        );
        page.sample("qtls_metrics_enabled", &[], self.cfg.enabled as u64);

        render_worker_section(&mut page, &snap);
        if let Some(heuristic) = &snap.heuristic {
            render_poller_section(&mut page, heuristic);
        }
        if let Some(engine) = &self.engine {
            render_engine_section(&mut page, engine);
        }
        if self.sink.enabled() {
            render_trace_section(&mut page, &self.sink);
        }
        page.finish()
    }
}

fn render_trace_section(page: &mut PromText, sink: &TraceSink) {
    page.header(
        "qtls_trace_sample_rate",
        "gauge",
        "Connection tracing samples 1-in-N connections (0 = off).",
    );
    page.sample("qtls_trace_sample_rate", &[], sink.sample_rate());
    let counters: [(&str, &str, u64); 5] = [
        (
            "qtls_trace_sampled_total",
            "Connections sampled for end-to-end span tracing.",
            sink.sampled(),
        ),
        (
            "qtls_trace_spans_total",
            "Spans published across sampled connections.",
            sink.spans_published(),
        ),
        (
            "qtls_trace_dropped_total",
            "Traces evicted from the buffer to stay under trace_buffer_spans.",
            sink.dropped(),
        ),
        (
            "qtls_trace_wall_us_total",
            "Sum of sampled-connection wall times, microseconds.",
            sink.wall_ns_total() / 1_000,
        ),
        (
            "qtls_trace_covered_us_total",
            "Sum of stage durations attributed across sampled connections, microseconds.",
            sink.covered_ns_total() / 1_000,
        ),
    ];
    for (name, help, value) in counters {
        page.header(name, "counter", help);
        page.sample(name, &[], value);
    }
    page.header(
        "qtls_trace_stage_us",
        "gauge",
        "Per-stage latency attribution across sampled connections, microseconds.",
    );
    for kind in SPAN_KIND_LIST {
        let snap = sink.stage_snapshot(kind);
        let count = snap.count();
        let mean_us = if count == 0 {
            0
        } else {
            snap.sum / count / 1_000
        };
        let labels_mean = [("stage", kind.name()), ("stat", "mean")];
        page.sample("qtls_trace_stage_us", &labels_mean, mean_us);
        let labels_p99 = [("stage", kind.name()), ("stat", "p99")];
        page.sample(
            "qtls_trace_stage_us",
            &labels_p99,
            snap.quantile(0.99) / 1_000,
        );
    }
}

/// Render the latency-attribution table appended to `stub_status` when
/// tracing is on: one row per stage (count / mean / p99, µs) plus a
/// summary row whose covered-vs-wall ratio is the sum check — stage
/// durations of every published trace must account for its root wall
/// time (idle gaps are attributed explicitly, so the two match up to
/// integer truncation).
pub fn render_trace_attribution(sink: &TraceSink, kv: bool) -> String {
    let mut page = String::new();
    let wall_us = sink.wall_ns_total() / 1_000;
    let covered_us = sink.covered_ns_total() / 1_000;
    if kv {
        let _ = writeln!(page, "trace_sample_rate {}", sink.sample_rate());
        let _ = writeln!(page, "trace_sampled {}", sink.sampled());
        let _ = writeln!(page, "trace_spans {}", sink.spans_published());
        let _ = writeln!(page, "trace_dropped {}", sink.dropped());
        let _ = writeln!(page, "trace_wall_us {wall_us}");
        let _ = writeln!(page, "trace_covered_us {covered_us}");
    } else {
        let _ = writeln!(
            page,
            "trace: rate {} sampled {} spans {} dropped {} wall-us {} covered-us {}",
            sink.sample_rate(),
            sink.sampled(),
            sink.spans_published(),
            sink.dropped(),
            wall_us,
            covered_us,
        );
    }
    for kind in SPAN_KIND_LIST {
        let snap = sink.stage_snapshot(kind);
        let count = snap.count();
        let mean_us = if count == 0 {
            0
        } else {
            snap.sum / count / 1_000
        };
        let p99_us = snap.quantile(0.99) / 1_000;
        if kv {
            let name = kind.name();
            let _ = writeln!(page, "trace_stage_{name}_count {count}");
            let _ = writeln!(page, "trace_stage_{name}_mean_us {mean_us}");
            let _ = writeln!(page, "trace_stage_{name}_p99_us {p99_us}");
        } else {
            let _ = writeln!(
                page,
                "trace stage {}: count {} mean-us {} p99-us {}",
                kind.name(),
                count,
                mean_us,
                p99_us,
            );
        }
    }
    page
}

fn render_worker_section(page: &mut PromText, snap: &StatusSnapshot) {
    let gauges: [(&str, &str, u64); 5] = [
        (
            "qtls_worker_connections_active",
            "TC_active: connections with an offload pending or unread bytes.",
            snap.tc_active,
        ),
        (
            "qtls_worker_connections_alive",
            "TC_alive: all live connections (idle + active).",
            snap.tc_alive,
        ),
        (
            "qtls_worker_connections_idle",
            "TC_idle: connections waiting on the peer (nothing unread, nothing offloaded).",
            snap.tc_idle,
        ),
        (
            "qtls_worker_load",
            "Scheduling load gauge: backlog + un-established connections + staged offload depth.",
            snap.load,
        ),
        (
            "qtls_dispatch_policy",
            "Dispatch policy routing new sockets: 0 round_robin, 1 least_loaded.",
            snap.dispatch_policy,
        ),
    ];
    for (name, help, value) in gauges {
        page.header(name, "gauge", help);
        page.sample(name, &[], value);
    }
    let counters: [(&str, &str, u64); 21] = [
        (
            "qtls_worker_steals_total",
            "Queued sockets stolen from a more-loaded peer's accept backlog.",
            snap.stats.steals,
        ),
        (
            "qtls_worker_handshakes_total",
            "Completed TLS handshakes.",
            snap.stats.handshakes,
        ),
        (
            "qtls_worker_resumed_handshakes_total",
            "Of which abbreviated (session resumption).",
            snap.stats.resumed,
        ),
        (
            "qtls_worker_resume_miss_total",
            "Handshakes where offered resumption state could not be honoured (fell back to full).",
            snap.stats.resume_miss,
        ),
        (
            "qtls_worker_requests_total",
            "HTTP requests served.",
            snap.stats.requests,
        ),
        (
            "qtls_worker_bytes_sent_total",
            "Application bytes sent (HTTP responses, pre-encryption).",
            snap.stats.bytes_sent,
        ),
        (
            "qtls_worker_bytes_received_total",
            "Application bytes received (HTTP requests, post-decryption).",
            snap.stats.bytes_received,
        ),
        (
            "qtls_worker_record_handoffs_total",
            "Connections handed from the handshake control plane to the batched record codec.",
            snap.stats.record_handoffs,
        ),
        (
            "qtls_worker_async_jobs_total",
            "Service passes that paused on a crypto offload at least once.",
            snap.stats.async_jobs,
        ),
        (
            "qtls_worker_resumptions_total",
            "Offload-job resumptions processed.",
            snap.stats.resumptions,
        ),
        (
            "qtls_worker_errors_total",
            "TLS protocol errors.",
            snap.stats.errors,
        ),
        (
            "qtls_worker_kernel_switches_total",
            "Simulated user/kernel switches spent on async notification.",
            snap.kernel_switches,
        ),
        (
            "qtls_worker_accepts_total",
            "Connections accepted off the listener backlog.",
            snap.stats.accepted,
        ),
        (
            "qtls_admission_challenges_total",
            "Retry-token challenges sent to token-less ClientHellos under overload.",
            snap.stats.challenges_sent,
        ),
        (
            "qtls_admission_tokens_verified_total",
            "Retry tokens presented and verified (admitted past the gate).",
            snap.stats.tokens_verified,
        ),
        (
            "qtls_admission_tokens_rejected_total",
            "Retry tokens rejected (stale, spoofed, or malformed frames).",
            snap.stats.tokens_rejected,
        ),
        (
            "qtls_admission_accept_sheds_total",
            "Connections shed at the listener's full accept backlog.",
            snap.stats.accept_sheds,
        ),
        (
            "qtls_admission_overloads_total",
            "Transitions into overload mode (inflight handshakes crossed the watermark).",
            snap.stats.overload_entered,
        ),
        (
            "qtls_worker_closed_total",
            "Connections closed and reaped by the worker.",
            snap.stats.closed,
        ),
        (
            "qtls_worker_ring_retries_total",
            "Jobs rescheduled after a full request ring (event-loop backpressure).",
            snap.stats.retries,
        ),
        (
            "qtls_worker_cancelled_submits_total",
            "Staged submissions cancelled at shutdown before reaching a ring.",
            snap.stats.cancelled_submits,
        ),
    ];
    for (name, help, value) in counters {
        page.header(name, "counter", help);
        page.sample(name, &[], value);
    }
}

fn render_poller_section(page: &mut PromText, stats: &HeuristicStats) {
    page.header(
        "qtls_poll_fired_total",
        "counter",
        "Heuristic polls fired, by trigger rule.",
    );
    for (trigger, count) in [
        ("efficiency", stats.efficiency_polls),
        ("timeliness", stats.timeliness_polls),
        ("failover", stats.failover_polls),
    ] {
        page.sample("qtls_poll_fired_total", &[("trigger", trigger)], count);
    }
    let counters: [(&str, &str, u64); 3] = [
        (
            "qtls_poll_wasted_total",
            "Swept shards that retrieved nothing (per-shard wasted polls, paper section 5.6).",
            stats.empty_polls,
        ),
        (
            "qtls_poll_shards_swept_total",
            "Shards swept across all fired polls.",
            stats.shards_swept,
        ),
        (
            "qtls_poll_responses_total",
            "Responses retrieved by the heuristic poller.",
            stats.responses,
        ),
    ];
    for (name, help, value) in counters {
        page.header(name, "counter", help);
        page.sample(name, &[], value);
    }
}

fn render_engine_section(page: &mut PromText, engine: &Arc<OffloadEngine>) {
    let eobs = engine.obs();

    // Phase latency quantiles: per shard and merged, as gauges (the
    // full distribution follows as a histogram family).
    page.header(
        "qtls_phase_latency_ns",
        "gauge",
        "Phase latency quantile in ns (log-linear buckets, <=3.125% relative error).",
    );
    const QUANTILES: [(&str, f64); 3] = [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)];
    for phase in Phase::ALL {
        for class in CLASS_LIST {
            let merged = eobs.merged(phase, class);
            for (q_label, q) in QUANTILES {
                page.sample(
                    "qtls_phase_latency_ns",
                    &[
                        ("phase", phase.name()),
                        ("class", obs::class_name(class)),
                        ("shard", "merged"),
                        ("quantile", q_label),
                    ],
                    merged.quantile(q),
                );
            }
            for i in 0..eobs.shard_count() {
                let shard_snap = eobs.shard(i).snapshot(phase, class);
                let shard = i.to_string();
                for (q_label, q) in QUANTILES {
                    page.sample(
                        "qtls_phase_latency_ns",
                        &[
                            ("phase", phase.name()),
                            ("class", obs::class_name(class)),
                            ("shard", &shard),
                            ("quantile", q_label),
                        ],
                        shard_snap.quantile(q),
                    );
                }
            }
        }
    }

    // Merged distributions as Prometheus histograms, plus max/overflow.
    page.header(
        "qtls_phase_latency_hist_ns",
        "histogram",
        "Merged phase latency distribution in ns.",
    );
    for phase in Phase::ALL {
        for class in CLASS_LIST {
            let merged = eobs.merged(phase, class);
            obs::render_phase_histogram(page, phase, class, &merged);
        }
    }
    page.header(
        "qtls_phase_latency_max_ns",
        "gauge",
        "Largest phase latency recorded, ns.",
    );
    page.header(
        "qtls_phase_overflow_total",
        "counter",
        "Samples beyond the largest histogram bucket (~68.7 s).",
    );
    for phase in Phase::ALL {
        for class in CLASS_LIST {
            let merged = eobs.merged(phase, class);
            let labels = [("phase", phase.name()), ("class", obs::class_name(class))];
            page.sample("qtls_phase_latency_max_ns", &labels, merged.max);
            page.sample("qtls_phase_overflow_total", &labels, merged.overflow);
        }
    }

    // Shard occupancy.
    page.header(
        "qtls_shard_count",
        "gauge",
        "Engine shards (QAT instance pairs) this worker submits to.",
    );
    page.sample("qtls_shard_count", &[], engine.shard_count() as u64);
    page.header(
        "qtls_shard_inflight",
        "gauge",
        "Inflight requests on the shard's rings.",
    );
    page.header(
        "qtls_shard_asym_inflight",
        "gauge",
        "Of which asymmetric operations.",
    );
    for i in 0..engine.shard_count() {
        let shard = i.to_string();
        let labels = [("shard", shard.as_str())];
        page.sample("qtls_shard_inflight", &labels, engine.shard_inflight(i));
        page.sample(
            "qtls_shard_asym_inflight",
            &labels,
            engine.shard_asym_inflight(i),
        );
    }
    page.header(
        "qtls_ring_full_retries_total",
        "counter",
        "Submissions retried after a full request ring, all shards.",
    );
    page.sample(
        "qtls_ring_full_retries_total",
        &[],
        engine.ring_full_retries(),
    );

    // Per-shard submit pipeline.
    let submit_families: [(&str, &str, &str); 4] = [
        (
            "qtls_submit_flushes_total",
            "counter",
            "Flushes that published at least one request.",
        ),
        (
            "qtls_submit_flushed_requests_total",
            "counter",
            "Requests published through batched flushes.",
        ),
        (
            "qtls_submit_deferred_total",
            "counter",
            "Requests a flush deferred to the next sweep (ring full).",
        ),
        (
            "qtls_submit_max_depth",
            "gauge",
            "Deepest batch published by one flush.",
        ),
    ];
    for (name, kind, help) in submit_families {
        page.header(name, kind, help);
        for i in 0..engine.shard_count() {
            let Some(queue) = engine.shard_submit_queue(i) else {
                continue;
            };
            let qs = queue.stats().snapshot();
            let shard = i.to_string();
            let labels = [("shard", shard.as_str())];
            let value = match name {
                "qtls_submit_flushes_total" => qs.flushes,
                "qtls_submit_flushed_requests_total" => qs.flushed_requests,
                "qtls_submit_deferred_total" => qs.deferred,
                _ => qs.max_depth,
            };
            page.sample(name, &labels, value);
        }
    }

    // Device firmware counters, per shard instance.
    let qat_counters: [(&str, &str); 5] = [
        (
            "qtls_qat_submitted_total",
            "Requests accepted onto request rings.",
        ),
        (
            "qtls_qat_ring_full_total",
            "Submissions rejected by a full request ring.",
        ),
        (
            "qtls_qat_doorbells_total",
            "Ring-cursor publishes (doorbell writes).",
        ),
        ("qtls_qat_polled_total", "Responses retrieved by polling."),
        (
            "qtls_qat_resp_stalls_total",
            "Device stalls on a full response ring.",
        ),
    ];
    for (name, help) in qat_counters {
        page.header(name, "counter", help);
        for i in 0..engine.shard_count() {
            let fw = engine.shard_instance(i).fw_counters();
            let shard = i.to_string();
            let labels = [("shard", shard.as_str())];
            let value = match name {
                "qtls_qat_submitted_total" => fw.submitted.load(Ordering::Relaxed),
                "qtls_qat_ring_full_total" => fw.ring_full.load(Ordering::Relaxed),
                "qtls_qat_doorbells_total" => fw.doorbells.load(Ordering::Relaxed),
                "qtls_qat_polled_total" => fw.polled.load(Ordering::Relaxed),
                _ => fw.resp_stalls.load(Ordering::Relaxed),
            };
            page.sample(name, &labels, value);
        }
    }
    page.header(
        "qtls_qat_completed_total",
        "counter",
        "Completed operations, by shard and op class.",
    );
    for i in 0..engine.shard_count() {
        let fw = engine.shard_instance(i).fw_counters();
        let shard = i.to_string();
        for (class, value) in [
            ("asym", fw.asym.load(Ordering::Relaxed)),
            ("cipher", fw.cipher.load(Ordering::Relaxed)),
            ("prf", fw.prf.load(Ordering::Relaxed)),
        ] {
            page.sample(
                "qtls_qat_completed_total",
                &[("shard", shard.as_str()), ("class", class)],
                value,
            );
        }
    }

    // Flight-recorder event counts (monotonic; survive ring overwrite).
    page.header(
        "qtls_flight_events_total",
        "counter",
        "Structured pipeline events recorded, by kind.",
    );
    for kind in EventKind::ALL {
        page.sample(
            "qtls_flight_events_total",
            &[("kind", kind.name())],
            eobs.recorder().count(kind),
        );
    }
}

/// Render the human `stub_status` page. The original single-instance
/// lines keep their exact historical shape; workers whose engine stages
/// submissions per shard append one aggregate `shards:` line plus a row
/// per shard.
pub fn render_stub_status(snap: &StatusSnapshot, engine: Option<&OffloadEngine>) -> String {
    let mut page = format!(
        "Active connections: {}\n\
         server accepts handled requests\n {} {} {}\n\
         TLS: alive {} idle {} active {} async-jobs {} resumptions {}\n\
         bytes: sent {} received {} handoffs {}\n\
         submit: flushes {} flushed {} max-depth {} deferred {}\n",
        snap.tc_alive,
        snap.stats.handshakes + snap.stats.errors,
        snap.stats.handshakes,
        snap.stats.requests,
        snap.tc_alive,
        snap.tc_idle,
        snap.tc_active,
        snap.stats.async_jobs,
        snap.stats.resumptions,
        snap.stats.bytes_sent,
        snap.stats.bytes_received,
        snap.stats.record_handoffs,
        snap.stats.flushes,
        snap.stats.flushed_requests,
        snap.stats.max_flush_depth,
        snap.stats.deferred_submits,
    );
    let _ = writeln!(
        page,
        "admission: accepted {} challenges {} verified {} rejected {} \
         sheds {} overloads {}",
        snap.stats.accepted,
        snap.stats.challenges_sent,
        snap.stats.tokens_verified,
        snap.stats.tokens_rejected,
        snap.stats.accept_sheds,
        snap.stats.overload_entered,
    );
    let _ = writeln!(
        page,
        "sched: load {} steals {} policy {}",
        snap.load, snap.stats.steals, snap.dispatch_policy,
    );
    if let Some(engine) = engine {
        let queued: Vec<usize> = (0..engine.shard_count())
            .filter(|&i| engine.shard_submit_queue(i).is_some())
            .collect();
        if !queued.is_empty() {
            let _ = writeln!(
                page,
                "shards: count {} inflight {}",
                queued.len(),
                engine.inflight().total(),
            );
            for i in queued {
                let _ = writeln!(page, "shard {i}: inflight {}", engine.shard_inflight(i));
            }
        }
    }
    page
}

/// Render the machine-parseable `stub_status?format=kv` variant: one
/// `key value` pair per line. The keys are a strict superset of the
/// numeric fields of the human page (pinned by an invariant test), plus
/// extra worker counters the human page omits.
pub fn render_stub_status_kv(snap: &StatusSnapshot, engine: Option<&OffloadEngine>) -> String {
    let mut page = String::new();
    let mut kv = |k: &str, v: u64| {
        let _ = writeln!(page, "{k} {v}");
    };
    kv("active_connections", snap.tc_alive);
    kv("accepts", snap.stats.handshakes + snap.stats.errors);
    kv("handled", snap.stats.handshakes);
    kv("requests", snap.stats.requests);
    kv("tls_alive", snap.tc_alive);
    kv("tls_idle", snap.tc_idle);
    kv("tls_active", snap.tc_active);
    kv("async_jobs", snap.stats.async_jobs);
    kv("resumptions", snap.stats.resumptions);
    kv("bytes_sent", snap.stats.bytes_sent);
    kv("bytes_received", snap.stats.bytes_received);
    kv("record_handoffs", snap.stats.record_handoffs);
    kv("submit_flushes", snap.stats.flushes);
    kv("submit_flushed", snap.stats.flushed_requests);
    kv("submit_max_depth", snap.stats.max_flush_depth);
    kv("submit_deferred", snap.stats.deferred_submits);
    kv("admission_accepted", snap.stats.accepted);
    kv("admission_challenges", snap.stats.challenges_sent);
    kv("admission_tokens_verified", snap.stats.tokens_verified);
    kv("admission_tokens_rejected", snap.stats.tokens_rejected);
    kv("admission_accept_sheds", snap.stats.accept_sheds);
    kv("admission_overloads", snap.stats.overload_entered);
    kv("sched_load", snap.load);
    kv("sched_steals", snap.stats.steals);
    kv("sched_policy", snap.dispatch_policy);
    // Extras the human page does not carry.
    kv("handshakes", snap.stats.handshakes);
    kv("resumed_handshakes", snap.stats.resumed);
    kv("resume_miss", snap.stats.resume_miss);
    kv("errors", snap.stats.errors);
    kv("closed", snap.stats.closed);
    kv("retries", snap.stats.retries);
    kv("cancelled_submits", snap.stats.cancelled_submits);
    kv("kernel_switches", snap.kernel_switches);
    if let Some(h) = &snap.heuristic {
        kv("poll_efficiency", h.efficiency_polls);
        kv("poll_timeliness", h.timeliness_polls);
        kv("poll_failover", h.failover_polls);
        kv("poll_wasted", h.empty_polls);
        kv("poll_responses", h.responses);
        kv("poll_shards_swept", h.shards_swept);
    }
    if let Some(engine) = engine {
        let queued: Vec<usize> = (0..engine.shard_count())
            .filter(|&i| engine.shard_submit_queue(i).is_some())
            .collect();
        if !queued.is_empty() {
            let _ = writeln!(page, "shards_count {}", queued.len());
            let _ = writeln!(page, "shards_inflight {}", engine.inflight().total());
            for i in queued {
                let _ = writeln!(page, "shard{i}_inflight {}", engine.shard_inflight(i));
            }
        }
    }
    page
}
