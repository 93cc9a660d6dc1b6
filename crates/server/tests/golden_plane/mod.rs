//! The goldens' worker: a `MetricsPlane` fed one fixed
//! `StatusSnapshot` whose every field holds a distinct value, on SW or
//! on sharded QTLS with an idle engine given fixed samples. The golden
//! pages (`metrics_golden.rs`) and the kv-to-family audit
//! (`profiles.rs`) both read its pages.

use qtls_core::obs::{ConnTrace, Phase, SpanKind, CLASS_LIST};
use qtls_core::{EventKind, HeuristicStats, OffloadEngine, OffloadProfile};
use qtls_qat::{QatConfig, QatDevice};
use qtls_server::{StatusSnapshot, VListener, Worker, WorkerConfig, WorkerStats};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The fixed snapshot: field `i` reads `1000 + i` (worker counters),
/// `2000 + i` (poller counters) or `3000 + i` (gauges), so no two
/// fields, nor the derived `accepts` (handshakes + errors), coincide.
fn snapshot(heuristic: bool) -> StatusSnapshot {
    StatusSnapshot {
        stats: WorkerStats {
            handshakes: 1001,
            resumed: 1002,
            resume_miss: 1003,
            requests: 1004,
            bytes_sent: 1005,
            bytes_received: 1006,
            record_handoffs: 1007,
            async_jobs: 1008,
            resumptions: 1009,
            retries: 1010,
            closed: 1011,
            errors: 1012,
            flushes: 1013,
            flushed_requests: 1014,
            max_flush_depth: 1015,
            deferred_submits: 1016,
            cancelled_submits: 1017,
            accepted: 1018,
            challenges_sent: 1019,
            tokens_verified: 1020,
            tokens_rejected: 1021,
            accept_sheds: 1022,
            overload_entered: 1023,
            steals: 1024,
        },
        heuristic: heuristic.then_some(HeuristicStats {
            efficiency_polls: 2001,
            timeliness_polls: 2002,
            failover_polls: 2003,
            empty_polls: 2004,
            responses: 2005,
            shards_swept: 2006,
        }),
        tc_alive: 3001,
        tc_idle: 3002,
        tc_active: 3003,
        kernel_switches: 3004,
        load: 3005,
        dispatch_policy: 3006,
    }
}

/// Fixed samples on an idle engine: shard `s` records, per phase and
/// class cell `c`, `(c + 1) * (s + 1)` µs; its device counter `k` reads
/// `4000 + 100 s + k`, its submit counter `k` `5000 + 100 s + k`; the
/// flight recorder holds `k + 1` events of kind `k`.
fn load(engine: &OffloadEngine) {
    for shard in 0..engine.shard_count() {
        let cells = Phase::ALL
            .into_iter()
            .flat_map(|phase| CLASS_LIST.map(|class| (phase, class)));
        for (c, (phase, class)) in cells.enumerate() {
            let ns = (c as u64 + 1) * (shard as u64 + 1) * 1_000;
            engine.obs().shard(shard).record(phase, class, ns);
        }
        let base = 100 * shard as u64;
        let fw = engine.shard_instance(shard).fw_counters();
        let device = [
            &fw.submitted,
            &fw.ring_full,
            &fw.doorbells,
            &fw.asym,
            &fw.cipher,
            &fw.prf,
            &fw.polled,
            &fw.resp_stalls,
        ];
        for (k, counter) in device.into_iter().enumerate() {
            counter.fetch_add(4000 + base + k as u64, Ordering::Relaxed);
        }
        let queue = engine
            .shard_submit_queue(shard)
            .expect("QTLS stages submissions");
        let stats = queue.stats();
        let submit = [
            &stats.flushes,
            &stats.flushed_requests,
            &stats.max_depth,
            &stats.deferred,
        ];
        for (k, counter) in submit.into_iter().enumerate() {
            counter.fetch_add(5000 + base + k as u64, Ordering::Relaxed);
        }
    }
    for (k, kind) in EventKind::ALL.into_iter().enumerate() {
        for _ in 0..=k {
            engine.obs().recorder().record(kind, 0, 0, 0);
        }
    }
}

/// The three pages of a fresh worker whose plane holds the fixed
/// snapshot, as `(stub_status, kv, metrics)`.
pub fn pages(profile: OffloadProfile, trace_sample_rate: u64) -> [String; 3] {
    let listener = Arc::new(VListener::new());
    let device = profile.uses_qat().then(|| {
        QatDevice::new(QatConfig {
            endpoints: 2,
            engines_per_endpoint: 2,
            ..QatConfig::functional_small()
        })
    });
    let mut cfg = WorkerConfig::new(profile);
    cfg.metrics.enabled = true;
    cfg.metrics.trace_sample_rate = trace_sample_rate;
    let worker = Worker::new(listener, device.as_ref(), cfg);
    let plane = Arc::clone(worker.metrics_plane());
    plane.update(snapshot(profile.uses_qat()));
    if let Some(engine) = worker.engine() {
        load(engine);
    }
    if trace_sample_rate > 0 {
        let sink = plane.trace_sink();
        let id = sink.sample().expect("rate 1 samples every connection");
        let mut trace = ConnTrace::new(id, 0, 1_000_000);
        let handshake = trace.begin(SpanKind::Handshake, 1_250_000);
        trace.end(handshake, 3_750_000);
        sink.publish(trace, 9_000_000);
    }
    let serve = |path: &str, query: &str| {
        let (status, _, page) = plane.serve(path, query).expect("an endpoint");
        assert_eq!(status, 200, "{path}?{query}");
        page
    };
    [
        serve("/stub_status", ""),
        serve("/stub_status", "format=kv"),
        serve("/metrics", ""),
    ]
}
