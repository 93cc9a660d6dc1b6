//! Micro-benchmarks of the offload framework's moving parts — the
//! ablations DESIGN.md §7 calls out:
//!
//! - fiber pause/resume cost (the "slight performance penalty" of fiber
//!   async, §4.1);
//! - kernel-bypass async queue vs FD-based notification (§4.4);
//! - ring push/pop (the request/response ring pair);
//! - heuristic poll decision cost (§4.3);
//! - what waiting costs (DESIGN.md §2): a doorbell against parked
//!   engines — submitter side and round trip — and the CPU an idle
//!   worker burns.

use qtls_bench::harness::Criterion;
use qtls_bench::{criterion_group, criterion_main};
use qtls_core::{
    start_job, AsyncQueue, EngineMode, FdSelector, HeuristicConfig, HeuristicPoller, OffloadEngine,
    StartResult, VirtualFd,
};
use qtls_qat::ring::Ring;
use qtls_qat::{CryptoOp, QatConfig, QatDevice};
use std::hint::black_box;
use std::sync::Arc;

fn bench_fiber(c: &mut Criterion) {
    let mut group = c.benchmark_group("fiber");
    group.bench_function("start_finish_no_pause", |b| {
        b.iter(|| match start_job(|| black_box(42)) {
            StartResult::Finished(v) => v,
            StartResult::Paused(_) => unreachable!(),
        })
    });
    group.bench_function("start_pause_resume", |b| {
        b.iter(|| {
            let job = match start_job(|| {
                qtls_core::pause_job();
                7
            }) {
                StartResult::Paused(j) => j,
                StartResult::Finished(_) => unreachable!(),
            };
            match job.resume() {
                StartResult::Finished(v) => v,
                StartResult::Paused(_) => unreachable!(),
            }
        })
    });
    group.finish();
}

fn bench_notification(c: &mut Criterion) {
    let mut group = c.benchmark_group("notification");
    // Kernel-bypass: push + drain of the application async queue.
    let queue: AsyncQueue<u64> = AsyncQueue::new();
    group.bench_function("kernel_bypass_queue", |b| {
        b.iter(|| {
            queue.push(black_box(1u64));
            queue.pop().unwrap()
        })
    });
    // FD-based: signal + poll_ready + clear through the selector.
    let selector = FdSelector::new();
    let fd = Arc::new(VirtualFd::new(1));
    selector.register(Arc::clone(&fd));
    group.bench_function("fd_signal_poll_clear", |b| {
        b.iter(|| {
            fd.signal();
            let ready = selector.poll_ready();
            fd.clear();
            ready
        })
    });
    group.finish();
}

fn bench_ring(c: &mut Criterion) {
    let mut group = c.benchmark_group("ring");
    let ring: Ring<u64> = Ring::new(64);
    group.bench_function("push_pop", |b| {
        b.iter(|| {
            ring.push(black_box(9)).ok();
            ring.pop().unwrap()
        })
    });
    group.finish();
}

fn bench_heuristic(c: &mut Criterion) {
    // Decision cost of the heuristic check (called wherever a crypto op
    // may be involved — must be nearly free).
    let dev = QatDevice::new(QatConfig {
        endpoints: 1,
        engines_per_endpoint: 0,
        ring_capacity: 256,
        ..QatConfig::functional_small()
    });
    let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
    let poller = HeuristicPoller::new(Arc::clone(&engine), HeuristicConfig::default());
    let mut group = c.benchmark_group("heuristic");
    group.bench_function("check_no_inflight", |b| {
        b.iter(|| poller.check(black_box(100)))
    });
    group.finish();
}

fn bench_submission(c: &mut Criterion) {
    // Per-request doorbells vs one batched ring publish (the sweep-
    // boundary flush). Engines are disabled so the measurement isolates
    // the submission path; each iteration drains the request ring.
    use qtls_bench::harness::Throughput;
    use qtls_qat::make_request;
    use std::collections::VecDeque;
    let dev = QatDevice::new(QatConfig {
        endpoints: 1,
        engines_per_endpoint: 0,
        ring_capacity: 1024,
        ..QatConfig::functional_small()
    });
    let inst = dev.alloc_instance();
    let op = || CryptoOp::Prf {
        secret: Vec::new(),
        label: Vec::new(),
        seed: Vec::new(),
        out_len: 16,
    };
    let mut group = c.benchmark_group("submission");
    for depth in [1u64, 4, 16] {
        group.throughput(Throughput::Elements(depth));
        group.bench_function(format!("per_op_depth{depth}"), |b| {
            b.iter(|| {
                for i in 0..depth {
                    inst.submit(make_request(i, op(), Box::new(|_| {})))
                        .unwrap();
                }
                inst.discard_requests(usize::MAX)
            })
        });
        group.bench_function(format!("batched_depth{depth}"), |b| {
            b.iter(|| {
                let mut batch: VecDeque<_> = (0..depth)
                    .map(|i| make_request(i, op(), Box::new(|_| {})))
                    .collect();
                let n = inst.submit_batch(&mut batch);
                inst.discard_requests(usize::MAX);
                n
            })
        });
    }
    group.finish();
}

fn bench_flush_policy(c: &mut Criterion) {
    // The adaptive flush policy's two promises (DESIGN.md §9): under
    // light load a submission clears the staging queue as fast as the
    // eager depth-1 policy (no hold tax — compare p99 against the
    // hold-to-16 policy, which eats extra sweeps per request); under
    // saturation a staged batch of 64 publishes with one doorbell,
    // matching the deep-fixed policy's per-request cost. Engines are
    // disabled so the measurement isolates the submission path.
    use qtls_bench::harness::Throughput;
    use qtls_core::{FlushMode, FlushPolicyConfig, SubmitQueue};
    use qtls_qat::make_request;
    use std::time::Duration;
    let dev = QatDevice::new(QatConfig {
        endpoints: 1,
        engines_per_endpoint: 0,
        ring_capacity: 1024,
        ..QatConfig::functional_small()
    });
    let inst = dev.alloc_instance();
    let op = || CryptoOp::Prf {
        secret: Vec::new(),
        label: Vec::new(),
        seed: Vec::new(),
        out_len: 16,
    };
    // A fixed-depth-16 policy that always holds shallow batches: light
    // fast path disabled, generous wall cap so the sweep bound governs.
    let hold16 = FlushPolicyConfig {
        mode: FlushMode::Adaptive,
        target_depth: 16,
        light_inflight: 0,
        light_ewma_depth_milli: 0,
        max_hold_sweeps: 3,
        max_hold: Duration::from_secs(1),
        bypass: false,
    };
    let policies: [(&str, SubmitQueue); 3] = [
        ("eager_depth1", SubmitQueue::new()),
        (
            "adaptive",
            SubmitQueue::with_policy(FlushPolicyConfig::adaptive()),
        ),
        ("hold_to_16", SubmitQueue::with_policy(hold16)),
    ];
    let mut group = c.benchmark_group("flush_policy");
    // Light load: one request staged per sweep, inflight 1 (just this
    // request). The p99 column is the staging delay comparison.
    for (name, queue) in &policies {
        group.throughput(Throughput::Elements(1));
        group.bench_function(format!("light_submit_cycle/{name}"), |b| {
            b.iter(|| {
                queue.enqueue(make_request(0, op(), Box::new(|_| {})));
                let mut sweeps = 0u32;
                while queue.sweep(&inst, 1).submitted == 0 {
                    sweeps += 1;
                    assert!(sweeps < 100, "policy must not starve");
                }
                inst.discard_requests(usize::MAX)
            })
        });
    }
    // Saturation: 64 requests staged in one sweep (inflight 64). The
    // adaptive policy publishes the whole batch with one doorbell; the
    // per-request-doorbell baseline rings 64 times.
    group.throughput(Throughput::Elements(64));
    group.bench_function("saturated_64/per_req_doorbell", |b| {
        b.iter(|| {
            for i in 0..64 {
                inst.submit(make_request(i, op(), Box::new(|_| {})))
                    .unwrap();
            }
            inst.discard_requests(usize::MAX)
        })
    });
    let adaptive = SubmitQueue::with_policy(FlushPolicyConfig::adaptive());
    group.bench_function("saturated_64/adaptive_batch", |b| {
        b.iter(|| {
            for i in 0..64 {
                adaptive.enqueue(make_request(i, op(), Box::new(|_| {})));
            }
            let report = adaptive.sweep(&inst, 64);
            assert_eq!(report.submitted, 64, "target depth reached: flush");
            inst.discard_requests(usize::MAX)
        })
    });
    group.finish();
}

fn bench_sharding(c: &mut Criterion) {
    // Multi-instance sharding (DESIGN.md §10): the same saturated batch
    // of 64 PRFs driven through 1, 2 and 4 shards, each shard owning its
    // own staging queue and ring pair on a distinct endpoint. Devices
    // run in Timed mode so engine threads sleep the calibrated service
    // time and release the CPU — wall-clock scaling here reflects real
    // endpoint parallelism even on a single-core host, not spin timing.
    use qtls_bench::harness::Throughput;
    use qtls_core::{FlushPolicyConfig, SubmitQueue};
    use qtls_qat::{make_request, ServiceMode};
    use std::sync::atomic::{AtomicU64, Ordering};
    const TOTAL: u64 = 64;
    let op = || CryptoOp::Prf {
        secret: Vec::new(),
        label: Vec::new(),
        seed: Vec::new(),
        out_len: 16,
    };
    let mut group = c.benchmark_group("sharding");
    // Submission-path parity anchor: identical body to the PR-3
    // flush_policy/saturated_64/adaptive_batch case, so a one-shard
    // engine can be checked against that baseline within noise.
    {
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 0,
            ring_capacity: 1024,
            ..QatConfig::functional_small()
        });
        let inst = dev.alloc_instance();
        let adaptive = SubmitQueue::with_policy(FlushPolicyConfig::adaptive());
        group.throughput(Throughput::Elements(TOTAL));
        group.bench_function("submit_only_64/shards1", |b| {
            b.iter(|| {
                for i in 0..TOTAL {
                    adaptive.enqueue(make_request(i, op(), Box::new(|_| {})));
                }
                let report = adaptive.sweep(&inst, TOTAL);
                assert_eq!(
                    report.submitted as u64, TOTAL,
                    "target depth reached: flush"
                );
                inst.discard_requests(usize::MAX)
            })
        });
    }
    // Saturated submit+retrieve roundtrip: each shard gets TOTAL/N of
    // the batch (one doorbell per shard), then the caller polls every
    // shard until all callbacks fire. Each endpoint contributes two
    // sleeping engines, so N shards service the batch N times as wide.
    group.sample_size(10);
    let mut rows: Vec<String> = Vec::new();
    for shards in [1usize, 2, 4] {
        let dev = QatDevice::new(QatConfig {
            endpoints: shards,
            engines_per_endpoint: 2,
            ring_capacity: 1024,
            service_mode: ServiceMode::Timed { time_scale: 25.0 },
            ..QatConfig::functional_small()
        });
        let insts = dev.alloc_instances(shards);
        // Measure (not simulate) the device-side phase tail for the
        // EXPERIMENTS.md measured-vs-sim comparison: per-shard phase
        // histograms via the retrieve hook, merged p99 printed below.
        let obs = qtls_core::obs::EngineObs::new(shards);
        obs.set_enabled(true);
        qtls_qat::trace::set_tracing(true);
        for (i, inst) in insts.iter().enumerate() {
            inst.set_retrieve_hook(Arc::clone(obs.shard(i)) as Arc<dyn qtls_qat::RetrieveHook>);
        }
        let queues: Vec<SubmitQueue> = (0..shards)
            .map(|_| SubmitQueue::with_policy(FlushPolicyConfig::adaptive()))
            .collect();
        let done = Arc::new(AtomicU64::new(0));
        group.throughput(Throughput::Elements(TOTAL));
        group.bench_function(format!("saturated_roundtrip_64/shards{shards}"), |b| {
            b.iter(|| {
                done.store(0, Ordering::SeqCst);
                for i in 0..TOTAL {
                    let d = Arc::clone(&done);
                    queues[i as usize % shards].enqueue(make_request(
                        i,
                        op(),
                        Box::new(move |_| {
                            d.fetch_add(1, Ordering::SeqCst);
                        }),
                    ));
                }
                let per_shard = TOTAL / shards as u64;
                for (queue, inst) in queues.iter().zip(&insts) {
                    let report = queue.sweep(inst, per_shard);
                    assert_eq!(
                        report.submitted as u64, per_shard,
                        "whole shard batch publishes"
                    );
                }
                while done.load(Ordering::SeqCst) < TOTAL {
                    for inst in &insts {
                        inst.poll(usize::MAX);
                    }
                    std::thread::yield_now();
                }
            })
        });
        let pre = obs.merged(qtls_core::obs::Phase::Pre, qtls_qat::OpClass::Prf);
        let ret = obs.merged(qtls_core::obs::Phase::Retrieve, qtls_qat::OpClass::Prf);
        if ret.count() > 0 {
            println!(
                "sharding/measured/shards{shards}: pre_p99_us {} retrieval_p99_us {} \
                 retrieval_p50_us {} samples {}",
                pre.quantile(0.99) / 1_000,
                ret.quantile(0.99) / 1_000,
                ret.quantile(0.5) / 1_000,
                ret.count()
            );
            rows.push(format!(
                "{{\"shards\": {shards}, \"pre_p99_us\": {}, \"retrieval_p99_us\": {}, \
                 \"retrieval_p50_us\": {}, \"samples\": {}}}",
                pre.quantile(0.99) / 1_000,
                ret.quantile(0.99) / 1_000,
                ret.quantile(0.5) / 1_000,
                ret.count()
            ));
        }
        qtls_qat::trace::set_tracing(false);
    }
    group.finish();
    qtls_bench::results::write(
        "sharding",
        &format!(
            "{{\n  \"bench\": \"sharding\",\n  \"measured\": [{}]\n}}\n",
            rows.join(", ")
        ),
    );
}

fn bench_bulk_transfer(c: &mut Criterion) {
    // The record data plane's headline number (DESIGN.md §13): N sealed
    // records per doorbell vs one offload round-trip per record. The
    // device runs in Timed mode — engines sleep the calibrated 16 KB
    // cipher service time and release the core — so the batched path
    // overlaps service across the 16 engines while the per-record path
    // serializes submit → wait → submit, exactly the contrast between
    // the codec's `flush_into` and the old one-record-per-pause seal.
    // Throughput::Bytes turns the rows into GiB/s; the paired A/B below
    // prints the greppable verdict scripts/check.sh gates on.
    use qtls_bench::harness::Throughput;
    use qtls_qat::ServiceMode;
    use std::time::Instant;
    const DEPTH: usize = 16;
    const RECORD: usize = 16 * 1024;
    if !c.selects_group("bulk_transfer") {
        return;
    }
    let dev = QatDevice::new(QatConfig {
        endpoints: 1,
        engines_per_endpoint: DEPTH,
        ring_capacity: 1024,
        // Engines sleep 2x the calibrated 117 µs per 16 KB record so the
        // overlappable card latency dominates the host-side software
        // compute (which serializes on a small CI box) and the batched
        // path's overlap is what the A/B gate measures.
        service_mode: ServiceMode::Timed { time_scale: 2.0 },
        ..QatConfig::functional_small()
    });
    let engine = Arc::new(OffloadEngine::new(
        dev.alloc_instance(),
        EngineMode::Blocking,
    ));
    let cipher = Arc::new(qtls_crypto::CbcHmacSha1::new(&[0x11; 16], &[0x0b; 20]));
    let seal_op = |seq: usize| CryptoOp::CipherSealInPlace {
        cipher: Arc::clone(&cipher),
        iv: [0x22; 16],
        buf: vec![0x5a; RECORD],
        aad: [seq as u8; 11],
    };
    let per_record = |eng: &Arc<OffloadEngine>| {
        for i in 0..DEPTH {
            eng.offload(seal_op(i)).unwrap();
        }
    };
    let batched = |eng: &Arc<OffloadEngine>| {
        let results = eng.offload_batch((0..DEPTH).map(seal_op).collect());
        for r in results {
            r.unwrap();
        }
    };
    let mut group = c.benchmark_group("bulk_transfer");
    group.sample_size(15);
    group.throughput(Throughput::Bytes((DEPTH * RECORD) as u64));
    let eng = Arc::clone(&engine);
    group.bench_function("per_record_depth16", |b| b.iter(|| per_record(&eng)));
    let eng = Arc::clone(&engine);
    group.bench_function("batched_depth16", |b| b.iter(|| batched(&eng)));
    // Staging ceiling (engines disabled, ring drained between iters):
    // descriptor build + ring publish + doorbell only — the GB/s bound
    // of the submission path itself, independent of card service time.
    {
        use qtls_qat::make_request;
        use std::collections::VecDeque;
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 0,
            ring_capacity: 1024,
            ..QatConfig::functional_small()
        });
        let inst = dev.alloc_instance();
        group.bench_function("publish_only/per_record", |b| {
            b.iter(|| {
                for i in 0..DEPTH {
                    inst.submit(make_request(i as u64, seal_op(i), Box::new(|_| {})))
                        .unwrap();
                }
                inst.discard_requests(usize::MAX)
            })
        });
        group.bench_function("publish_only/batched", |b| {
            b.iter(|| {
                let mut batch: VecDeque<_> = (0..DEPTH)
                    .map(|i| make_request(i as u64, seal_op(i), Box::new(|_| {})))
                    .collect();
                let n = inst.submit_batch(&mut batch);
                inst.discard_requests(usize::MAX);
                n
            })
        });
    }
    group.finish();

    // Paired A/B for the acceptance gate: interleaved batches, median of
    // the per-pair serial/batched ratios. The batched path must move the
    // same bytes at least 1.5x as fast at depth 16.
    const PAIRS: usize = 9;
    const BATCH: usize = 12;
    per_record(&engine); // warmup
    batched(&engine);
    let mut ratios = Vec::with_capacity(PAIRS);
    for _ in 0..PAIRS {
        let t = Instant::now();
        for _ in 0..BATCH {
            per_record(&engine);
        }
        let serial = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for _ in 0..BATCH {
            batched(&engine);
        }
        let one_doorbell = t.elapsed().as_secs_f64();
        ratios.push(serial / one_doorbell);
    }
    ratios.sort_by(f64::total_cmp);
    let speedup = ratios[PAIRS / 2];
    assert!(
        speedup >= 1.5,
        "batched bulk transfer below the 1.5x bar: {speedup:.2}x"
    );
    println!("bulk_batched_speedup: PASS {speedup:.2}x batched vs per-record at depth 16");
    qtls_bench::results::write(
        "bulk",
        &format!(
            "{{\n  \"bench\": \"bulk\",\n  \"batched_vs_per_record_speedup\": {speedup:.2},\n  \
             \"depth\": 16,\n  \"pairs\": {PAIRS},\n  \"gate\": 1.5\n}}\n"
        ),
    );
}

fn bench_obs_overhead(c: &mut Criterion) {
    // The <2% guard for the observability plane: the same fiber
    // submit→resume roundtrip with the metrics plane off and on. The
    // record path is a handful of relaxed atomics, so toggling the two
    // gates (global trace flag + per-engine enable) must not move the
    // roundtrip. A paired interleaved A/B measurement prints a
    // greppable verdict and enforces the budget.
    use std::time::Instant;
    // The paired A/B below runs outside `bench_function`, so honour the
    // CLI substring filter the same way the harness does.
    if !c.selects_group("obs_overhead") {
        return;
    }
    let dev = QatDevice::new(QatConfig::functional_small());
    let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
    engine.enable_metrics(); // install hooks once; the gates toggle below
    let op = || CryptoOp::Prf {
        secret: b"s".to_vec(),
        label: b"l".to_vec(),
        seed: b"x".to_vec(),
        out_len: 16,
    };
    let roundtrip = |eng: &Arc<OffloadEngine>| {
        let e2 = Arc::clone(eng);
        let mut job = match start_job(move || e2.offload(op())) {
            StartResult::Paused(j) => j,
            StartResult::Finished(_) => unreachable!(),
        };
        loop {
            eng.poll_all();
            match job.resume() {
                StartResult::Finished(r) => break black_box(r.unwrap()),
                StartResult::Paused(j) => {
                    job = j;
                    std::thread::yield_now();
                }
            }
        }
    };
    let set = |on: bool| {
        qtls_qat::trace::set_tracing(on);
        engine.obs().set_enabled(on);
    };
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(30);
    set(false);
    let eng = Arc::clone(&engine);
    group.bench_function("fiber_roundtrip/metrics_off", |b| {
        b.iter(|| roundtrip(&eng))
    });
    set(true);
    let eng = Arc::clone(&engine);
    group.bench_function("fiber_roundtrip/metrics_on", |b| b.iter(|| roundtrip(&eng)));
    group.finish();

    // Paired A/B: interleave off/on batches and take the median of the
    // per-pair on/off ratios — robust to drift, sensitive to a real
    // per-request cost. Retried to ride out scheduler noise; the budget
    // itself is never widened.
    const BATCH: usize = 200;
    const PAIRS: usize = 15;
    let mut verdict = f64::MAX;
    for attempt in 0..3 {
        let mut ratios = Vec::with_capacity(PAIRS);
        set(false);
        for _ in 0..BATCH {
            roundtrip(&engine);
        }
        for _ in 0..PAIRS {
            set(false);
            let t = Instant::now();
            for _ in 0..BATCH {
                roundtrip(&engine);
            }
            let off = t.elapsed().as_secs_f64();
            set(true);
            let t = Instant::now();
            for _ in 0..BATCH {
                roundtrip(&engine);
            }
            let on = t.elapsed().as_secs_f64();
            ratios.push(on / off);
        }
        ratios.sort_by(f64::total_cmp);
        verdict = ratios[PAIRS / 2];
        println!(
            "obs_overhead: attempt {attempt} median on/off ratio {verdict:.4} \
             (delta {:+.2}%)",
            (verdict - 1.0) * 100.0
        );
        if verdict <= 1.02 {
            break;
        }
    }
    set(false);
    assert!(
        verdict <= 1.02,
        "obs overhead above the 2% budget: on/off ratio {verdict:.4}"
    );
    println!("obs_overhead: PASS enabled-vs-disabled delta under 2%");
}

/// Spin (yielding) until `cond` holds.
fn spin_until(mut cond: impl FnMut() -> bool) {
    while !cond() {
        std::thread::yield_now();
    }
}

fn bench_doorbell(c: &mut Criterion) {
    // What one doorbell costs when the engines are asleep: the
    // submitter's share (ring publish + wake grant + one futex wake) and
    // the submit -> response round trip of a small PRF, with 1 and with
    // 12 engines parked on the endpoint. One request wakes one engine
    // either way, so the two rows should read alike; a broadcast wake
    // would make the 12-engine row pay for 11 futile scans.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;
    if !c.selects_group("doorbell") {
        return;
    }
    const ROUNDS: usize = 2000;
    for engines in [1usize, 12] {
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: engines,
            ..QatConfig::functional_small()
        });
        let inst = dev.alloc_instance();
        let done = Arc::new(AtomicBool::new(false));
        let (mut submit_ns, mut roundtrip_ns) = (Vec::new(), Vec::new());
        for _ in 0..ROUNDS {
            spin_until(|| dev.parked_engines() == engines);
            done.store(false, Ordering::SeqCst);
            let flag = Arc::clone(&done);
            let request = qtls_qat::make_request(
                0,
                CryptoOp::Prf {
                    secret: b"s".to_vec(),
                    label: b"l".to_vec(),
                    seed: b"x".to_vec(),
                    out_len: 16,
                },
                Box::new(move |_| flag.store(true, Ordering::SeqCst)),
            );
            let t = Instant::now();
            inst.submit(request).expect("ring has room");
            submit_ns.push(t.elapsed().as_nanos() as u64);
            spin_until(|| {
                inst.poll_all();
                done.load(Ordering::SeqCst)
            });
            roundtrip_ns.push(t.elapsed().as_nanos() as u64);
        }
        let median = |v: &mut Vec<u64>| {
            v.sort_unstable();
            v[v.len() / 2]
        };
        println!(
            "doorbell/parked{engines}: submit {} ns, round trip {:.1} us, {:.2} engine wakes per \
             request (median of {ROUNDS})",
            median(&mut submit_ns),
            median(&mut roundtrip_ns) as f64 / 1e3,
            dev.engine_wakes() as f64 / ROUNDS as f64
        );
    }
}

fn bench_worker_idle(c: &mut Criterion) {
    // CPU an idle QTLS worker burns per millisecond of idleness, read
    // from the worker thread's schedstat over a half-second window once
    // it has parked. A spinning loop reads 1000 here.
    use qtls_core::OffloadProfile;
    use qtls_server::{VListener, Worker, WorkerConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};
    if !c.selects_group("worker_idle") {
        return;
    }
    const THREAD: &str = "bench-idle-wrk";
    let cpu_ns = || -> u64 {
        std::fs::read_dir("/proc/self/task")
            .into_iter()
            .flatten()
            .flatten()
            .filter(|t| {
                std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.trim() == THREAD)
            })
            .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
            .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .sum()
    };
    let dev = QatDevice::new(QatConfig::functional_small());
    let mut worker = Worker::new(
        Arc::new(VListener::new()),
        Some(&dev),
        WorkerConfig::new(OffloadProfile::Qtls),
    );
    let wake = worker.wake_handle();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name(THREAD.into())
        .spawn(move || worker.run_until(|_| stop2.load(Ordering::SeqCst)))
        .expect("spawn worker");
    spin_until(|| wake.is_parked());
    let (cpu0, t0) = (cpu_ns(), Instant::now());
    std::thread::sleep(Duration::from_millis(500));
    let (burnt, window) = (cpu_ns() - cpu0, t0.elapsed());
    stop.store(true, Ordering::SeqCst);
    wake.unpark();
    handle.join().expect("worker thread");
    println!(
        "worker_idle: {:.1} cpu-us per idle ms ({} us of CPU in {:?})",
        burnt as f64 / 1e3 / (window.as_secs_f64() * 1e3),
        burnt / 1000,
        window
    );
}

fn bench_offload_roundtrip(c: &mut Criterion) {
    // Full blocking offload of a PRF through the threaded device model:
    // submit → engine thread computes → poll → callback.
    let dev = QatDevice::new(QatConfig::functional_small());
    let engine = OffloadEngine::new(dev.alloc_instance(), EngineMode::Blocking);
    let mut group = c.benchmark_group("offload");
    group.sample_size(30);
    group.bench_function("blocking_prf_roundtrip", |b| {
        b.iter(|| {
            engine
                .offload(CryptoOp::Prf {
                    secret: b"s".to_vec(),
                    label: b"l".to_vec(),
                    seed: b"x".to_vec(),
                    out_len: 48,
                })
                .unwrap()
        })
    });
    group.finish();
}

fn bench_async_impl(c: &mut Criterion) {
    // The three pause/resume mechanisms, each driving one PRF offload
    // to completion against the same device through the engine's one
    // step: the production task (a polled future under a no-op waker —
    // the pause is a return), and the paper's two §4.1 designs kept for
    // this comparison — the fiber ("a slight performance penalty due to
    // the fiber management and switches"; here a thread handoff, so not
    // slight) and the state-flag stack design.
    use qtls_core::{poll_pass, StackAsyncOp, StackPoll, WaitCtx};
    use std::task::Poll;
    use std::time::Instant;
    let dev = QatDevice::new(QatConfig::functional_small());
    let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
    let op = || CryptoOp::Prf {
        secret: b"s".to_vec(),
        label: b"l".to_vec(),
        seed: b"x".to_vec(),
        out_len: 16,
    };
    let task = |eng: &Arc<OffloadEngine>| {
        let wait = Arc::new(WaitCtx::new());
        let mut pass = std::pin::pin!(eng.offload_async(op()));
        loop {
            match poll_pass(Some(&wait), pass.as_mut()) {
                Poll::Ready(r) => break r.unwrap(),
                Poll::Pending => {
                    eng.poll_all();
                    if !wait.has_result() {
                        std::thread::yield_now();
                    }
                }
            }
        }
    };
    let fiber = |eng: &Arc<OffloadEngine>| {
        let e2 = Arc::clone(eng);
        let mut job = match start_job(move || e2.offload(op())) {
            StartResult::Paused(j) => j,
            StartResult::Finished(_) => unreachable!(),
        };
        loop {
            eng.poll_all();
            match job.resume() {
                StartResult::Finished(r) => break r.unwrap(),
                StartResult::Paused(j) => {
                    job = j;
                    std::thread::yield_now();
                }
            }
        }
    };
    let stack = |eng: &Arc<OffloadEngine>| {
        let s = StackAsyncOp::new();
        assert!(matches!(s.drive(eng, op), StackPoll::WantAsync));
        loop {
            eng.poll_all();
            match s.drive(eng, op) {
                StackPoll::Ready(r) => break r.unwrap(),
                StackPoll::WantAsync => std::thread::yield_now(),
                StackPoll::WantRetry => unreachable!(),
            }
        }
    };
    let mut group = c.benchmark_group("async_impl");
    group.sample_size(30);
    group.bench_function("task_offload_roundtrip", |b| b.iter(|| task(&engine)));
    group.bench_function("fiber_offload_roundtrip", |b| b.iter(|| fiber(&engine)));
    group.bench_function("stack_offload_roundtrip", |b| b.iter(|| stack(&engine)));
    group.finish();

    // Side by side: interleaved rounds, median per mechanism. Runs
    // outside `bench_function`, so honour the CLI substring filter the
    // same way the harness does.
    if !c.selects_group("async_impl") {
        return;
    }
    const ROUNDS: usize = 300;
    let mut samples = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..ROUNDS {
        let t = Instant::now();
        black_box(task(&engine));
        samples[0].push(t.elapsed());
        let t = Instant::now();
        black_box(fiber(&engine));
        samples[1].push(t.elapsed());
        let t = Instant::now();
        black_box(stack(&engine));
        samples[2].push(t.elapsed());
    }
    let median = |v: &mut Vec<std::time::Duration>| {
        v.sort();
        v[v.len() / 2].as_secs_f64() * 1e6
    };
    let [task_us, fiber_us, stack_us] = samples.each_mut().map(median);
    println!(
        "async_impl: PRF round trip, median of {ROUNDS} interleaved rounds: \
         task {task_us:.1} us (production) | fiber {fiber_us:.1} us | stack {stack_us:.1} us"
    );
}

criterion_group!(
    benches,
    bench_fiber,
    bench_notification,
    bench_ring,
    bench_submission,
    bench_flush_policy,
    bench_sharding,
    bench_bulk_transfer,
    bench_heuristic,
    bench_offload_roundtrip,
    bench_doorbell,
    bench_worker_idle,
    bench_obs_overhead,
    bench_async_impl
);
criterion_main!(benches);
