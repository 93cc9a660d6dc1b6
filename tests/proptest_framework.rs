//! Property-based tests of the offload-framework data structures: the
//! lock-free ring against a reference queue model, and the notification
//! primitives.
//!
//! Runs on the hermetic in-repo harness (`qtls::prop`): a small
//! deterministic case set by default, the full sweep with
//! `cargo test --features proptest`.

use qtls::core::AsyncQueue;
use qtls::prop;
use qtls::qat::ring::Ring;
use std::collections::VecDeque;

/// An operation against the ring.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(u32),
    Pop,
}

fn gen_op(g: &mut prop::Gen) -> Op {
    if g.bool() {
        Op::Push(g.u32())
    } else {
        Op::Pop
    }
}

#[test]
fn ring_matches_reference_queue() {
    prop::check("ring_matches_reference_queue", 128, |g| {
        let cap = g.usize_in(1, 64);
        let ops: Vec<Op> = (0..g.usize_in(0, 200)).map(|_| gen_op(g)).collect();
        let ring = Ring::new(cap);
        let real_cap = ring.capacity();
        let mut model: VecDeque<u32> = VecDeque::new();
        for op in ops {
            match op {
                Op::Push(v) => {
                    let ring_ok = ring.push(v).is_ok();
                    let model_ok = model.len() < real_cap;
                    assert_eq!(ring_ok, model_ok, "push accept/reject must match");
                    if model_ok {
                        model.push_back(v);
                    }
                }
                Op::Pop => {
                    assert_eq!(ring.pop(), model.pop_front());
                }
            }
            assert_eq!(ring.len(), model.len());
        }
        // Drain and compare the tail.
        while let Some(expect) = model.pop_front() {
            assert_eq!(ring.pop(), Some(expect));
        }
        assert_eq!(ring.pop(), None);
    });
}

#[test]
fn ring_push_batch_matches_single_pushes_at_wrap_around() {
    // The batched path claims slots with one cursor CAS; its observable
    // behaviour must be identical to N single `push` calls, in the three
    // awkward geometries: the batch straddles the end of the buffer, the
    // batch exactly equals the remaining capacity, and the batch exceeds
    // capacity (partial accept, leftovers stay in the caller's queue).
    prop::check("ring_push_batch_wrap_around", 128, |g| {
        let cap_req = g.usize_in(1, 32);
        let ring: Ring<u32> = Ring::new(cap_req);
        let shadow: Ring<u32> = Ring::new(cap_req);
        let cap = ring.capacity();
        // Advance both cursors an arbitrary number of laps so the batch
        // lands near (often across) the physical end of the buffer.
        let advance = g.usize_in(0, 4 * cap);
        for i in 0..advance {
            ring.push(i as u32).unwrap();
            shadow.push(i as u32).unwrap();
            assert_eq!(ring.pop(), Some(i as u32));
            assert_eq!(shadow.pop(), Some(i as u32));
        }
        // Partially fill, leaving `room` free slots.
        let occupied = g.usize_in(0, cap);
        for i in 0..occupied {
            ring.push(1000 + i as u32).unwrap();
            shadow.push(1000 + i as u32).unwrap();
        }
        let room = cap - occupied;
        // Batch size: pick the geometry — short of room, exactly room,
        // or larger than the whole capacity.
        let batch_len = match g.u8() % 3 {
            0 => g.usize_in(0, room),
            1 => room,
            _ => g.usize_in(cap + 1, 2 * cap + 1),
        };
        let values: Vec<u32> = (0..batch_len as u32).map(|v| 2000 + v).collect();
        let mut batch: VecDeque<u32> = values.iter().copied().collect();
        let pushed = ring.push_batch(&mut batch);
        // Model: N single pushes accept exactly min(batch, room).
        let mut shadow_pushed = 0usize;
        for &v in &values {
            if shadow.push(v).is_ok() {
                shadow_pushed += 1;
            } else {
                break;
            }
        }
        assert_eq!(pushed, shadow_pushed, "batch must accept like N pushes");
        assert_eq!(pushed, batch_len.min(room));
        assert_eq!(batch.len(), batch_len - pushed, "leftovers stay queued");
        assert_eq!(ring.len(), shadow.len());
        // The consumer observes identical contents and order.
        loop {
            let (a, b) = (ring.pop(), shadow.pop());
            assert_eq!(a, b, "consumer-observed order must match");
            if a.is_none() {
                break;
            }
        }
    });
}

#[test]
fn async_queue_preserves_order() {
    prop::check("async_queue_preserves_order", 128, |g| {
        let values: Vec<u64> = (0..g.usize_in(0, 100)).map(|_| g.u64()).collect();
        let q = AsyncQueue::new();
        for &v in &values {
            q.push(v);
        }
        assert_eq!(q.drain(), values);
        assert!(q.is_empty());
    });
}

#[test]
fn heuristic_thresholds_monotone() {
    prop::check("heuristic_thresholds_monotone", 128, |g| {
        let total = g.u64_in(0, 200);
        let active = g.u64_in(0, 200);
        // A pure re-statement of §4.3's decision rule: polling is
        // triggered iff inflight work exists AND (everyone is waiting OR
        // the coalescing threshold is reached). Guards the rule against
        // regressions in either implementation.
        let threshold = 24u64;
        let decide = |total: u64, active: u64| -> bool {
            total > 0 && (total >= active || total >= threshold)
        };
        let fires = decide(total, active);
        // Monotone in total:
        if fires {
            assert!(decide(total + 1, active));
        }
        // Anti-monotone in active (more active conns never force a poll):
        if !fires {
            assert!(!decide(total, active + 1));
        }
    });
}

#[test]
fn histogram_zero_duration_and_error_bound() {
    use qtls::core::obs::{bucket_upper_bound, Histogram, BUCKETS};
    prop::check("histogram_zero_duration_and_error_bound", 128, |g| {
        // Zero-duration samples are legal and exact: they land in the
        // first linear bucket and report quantiles of exactly 0.
        let h = Histogram::new();
        let zeros = g.u64_in(1, 20);
        for _ in 0..zeros {
            h.record(0);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), zeros);
        assert_eq!(snap.buckets[0], zeros);
        assert_eq!((snap.sum, snap.max, snap.overflow), (0, 0, 0));
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.quantile(1.0), 0);

        // Arbitrary in-range values: the bucket placement agrees with an
        // independent model (smallest bucket whose upper bound covers the
        // value — `bucket_upper_bound` is monotone, so binary search),
        // and the upper bound is within the documented 1/32 relative
        // error for values past the linear row, exact inside it.
        let h = Histogram::new();
        let mut model = vec![0u64; BUCKETS];
        let n = g.usize_in(1, 64);
        let mut sum = 0u64;
        let mut max = 0u64;
        for _ in 0..n {
            let v = g.u64_in(0, (1u64 << 36) - 1);
            h.record(v);
            sum += v;
            max = max.max(v);
            let idx = (0..BUCKETS)
                .collect::<Vec<_>>()
                .partition_point(|&i| bucket_upper_bound(i) < v);
            model[idx] += 1;
            let ub = bucket_upper_bound(idx);
            assert!(ub >= v);
            if v < 32 {
                assert_eq!(ub, v, "linear row is exact");
            } else {
                assert!(ub - v <= v / 32, "bucket error beyond 1/32: v={v} ub={ub}");
            }
        }
        let snap = h.snapshot();
        assert_eq!(snap.buckets, model, "placement disagrees with model");
        assert_eq!(snap.count(), n as u64);
        assert_eq!((snap.sum, snap.max, snap.overflow), (sum, max, 0));
        assert_eq!(snap.quantile(1.0), max, "p100 clamps to the true max");
    });
}

#[test]
fn histogram_overflow_bucket_counts_and_reports_max() {
    use qtls::core::obs::Histogram;
    prop::check("histogram_overflow_bucket", 128, |g| {
        let h = Histogram::new();
        let big = g.u64_in(1, 16);
        let small = g.u64_in(0, 16);
        let mut max = 0u64;
        for _ in 0..big {
            let v = g.u64_in(1u64 << 36, 1u64 << 48);
            h.record(v);
            max = max.max(v);
        }
        for _ in 0..small {
            h.record(g.u64_in(0, 1_000_000));
        }
        let snap = h.snapshot();
        assert_eq!(snap.overflow, big, "values >= 2^36 ns land in overflow");
        assert_eq!(snap.count(), big + small, "overflow samples stay counted");
        assert_eq!(snap.max, max);
        // Overflow-ranked quantiles report the recorded max, not a
        // fabricated bucket bound.
        assert_eq!(snap.quantile(1.0), max);
    });
}

#[test]
fn histogram_merge_of_disjoint_shards_preserves_count_and_max() {
    use qtls::core::obs::{EngineObs, Phase};
    use qtls::qat::OpClass;
    prop::check("histogram_merge_disjoint_shards", 128, |g| {
        // Two shards record disjoint value ranges (plus optional
        // overflow); the engine-level merge must preserve count, sum,
        // max and overflow exactly — bucket-wise addition loses nothing.
        let obs = EngineObs::new(2);
        obs.set_enabled(true);
        let phase = Phase::ALL[g.usize_in(0, Phase::ALL.len() - 1)];
        let (mut count, mut sum, mut max, mut over) = (0u64, 0u64, 0u64, 0u64);
        let mut record = |shard: usize, v: u64| {
            obs.shard(shard).record(phase, OpClass::Asym, v);
            count += 1;
            sum += v;
            max = max.max(v);
            if v >= 1u64 << 36 {
                over += 1;
            }
        };
        for _ in 0..g.usize_in(1, 40) {
            record(0, g.u64_in(0, 1 << 18)); // shard 0: short ops
        }
        for _ in 0..g.usize_in(1, 40) {
            record(1, g.u64_in((1 << 18) + 1, 1 << 35)); // shard 1: long ops
        }
        for _ in 0..g.usize_in(0, 4) {
            record(1, g.u64_in(1 << 36, 1 << 40)); // and some overflow
        }
        let a = obs.shard(0).snapshot(phase, OpClass::Asym);
        let b = obs.shard(1).snapshot(phase, OpClass::Asym);
        let merged = obs.merged(phase, OpClass::Asym);
        assert_eq!(merged.count(), a.count() + b.count());
        assert_eq!(merged.count(), count);
        assert_eq!(merged.sum, sum);
        assert_eq!(merged.max, max, "merge keeps the global max");
        assert_eq!(merged.overflow, over);
        assert_eq!(merged.quantile(1.0), max);
        // Another class / phase stays untouched.
        assert_eq!(obs.merged(phase, OpClass::Cipher).count(), 0);
    });
}

#[test]
fn histogram_snapshot_during_record_is_consistent() {
    // A snapshot taken while a writer is recording must always be
    // self-consistent: the derived count equals the bucket sums by
    // construction, never decreases between successive snapshots (each
    // bucket is monotone under coherence), and quantiles stay ordered
    // and clamped to max. Finally the joined state is exact.
    use qtls::core::obs::Histogram;
    use std::sync::Arc;
    let h = Arc::new(Histogram::new());
    let per = 50_000u64;
    let writer = {
        let h = Arc::clone(&h);
        std::thread::spawn(move || {
            let mut sum = 0u64;
            let mut max = 0u64;
            for i in 0..per {
                // A spread of magnitudes, including zero and overflow.
                let v = match i % 5 {
                    0 => 0,
                    1 => i % 31,
                    2 => 1_000 + i,
                    3 => (1 << 20) + i,
                    _ => (1u64 << 36) + i,
                };
                h.record(v);
                sum += v;
                max = max.max(v);
            }
            (sum, max)
        })
    };
    let mut last_count = 0u64;
    let mut last_max = 0u64;
    while last_count < per {
        let snap = h.snapshot();
        let count = snap.count();
        assert!(count >= last_count, "count went backwards mid-record");
        assert!(snap.max >= last_max, "max went backwards mid-record");
        assert!(count <= per);
        let (p50, p99, p100) = (snap.quantile(0.5), snap.quantile(0.99), snap.quantile(1.0));
        assert!(p50 <= p99 && p99 <= p100, "quantiles must be ordered");
        assert!(p100 <= snap.max, "quantiles clamp to the recorded max");
        last_count = count;
        last_max = snap.max;
        std::thread::yield_now();
    }
    let (sum, max) = writer.join().unwrap();
    let fin = h.snapshot();
    assert_eq!(fin.count(), per);
    assert_eq!(fin.sum, sum);
    assert_eq!(fin.max, max);
    assert_eq!(fin.quantile(1.0), max);
}

#[test]
fn least_loaded_dispatch_is_argmin() {
    use qtls::server::least_loaded_pick;
    // The cluster dispatcher's decision function (DESIGN.md §15): with a
    // full probe the pick IS the argmin over the published gauges, ties
    // resolved by rotation order from `start`; with a bounded probe it
    // is the argmin over exactly the probed window.
    prop::check("least_loaded_dispatch_is_argmin", 128, |g| {
        let n = g.usize_in(1, 13);
        let gauges: Vec<u64> = (0..n).map(|_| g.u64_in(0, 51)).collect();
        let start = g.usize_in(0, 2 * n);
        // Full probe: exact argmin, first-seen in rotation order.
        let pick = least_loaded_pick(&gauges, start, n);
        let min = *gauges.iter().min().unwrap();
        assert_eq!(
            gauges[pick], min,
            "picked {pick} holding {}, min is {min}: {gauges:?}",
            gauges[pick]
        );
        let model = (0..n)
            .map(|step| (start + step) % n)
            .find(|&i| gauges[i] == min)
            .unwrap();
        assert_eq!(pick, model, "ties must go to the first probed index");
        // Bounded probe: argmin over exactly the probed window.
        let probe = g.usize_in(1, n + 1);
        let pick = least_loaded_pick(&gauges, start, probe);
        let window: Vec<usize> = (0..probe).map(|step| (start + step) % n).collect();
        assert!(window.contains(&pick), "pick must come from the window");
        let win_min = window.iter().map(|&i| gauges[i]).min().unwrap();
        assert_eq!(
            gauges[pick], win_min,
            "bounded probe must be the window argmin: {gauges:?} window {window:?}"
        );
    });
}

#[test]
fn steal_half_conserves_and_never_duplicates_sockets() {
    use qtls::server::net::VListener;
    // Work-stealing conservation: over an arbitrary interleaving of
    // injects, accepts and steal-half calls, every socket ends up in
    // exactly one place — accepted by the victim, stolen by a thief, or
    // still pending — with no duplicates, no drops, and the victim
    // always keeping at least the older half of its queue.
    prop::check("steal_half_conserves_sockets", 128, |g| {
        let listener = VListener::new();
        let mut injected = 0u64;
        let mut accepted: Vec<u64> = Vec::new();
        let mut stolen: Vec<u64> = Vec::new();
        for _ in 0..g.usize_in(0, 120) {
            match g.u8() % 4 {
                // Inject twice as often as the other ops so queues grow.
                0 | 1 => {
                    injected += 1;
                    listener.connect_from(injected);
                }
                2 => {
                    if let Some(sock) = listener.accept() {
                        accepted.push(sock.peer_addr());
                    }
                }
                _ => {
                    let before = listener.pending();
                    let batch = listener.steal_half(g.usize_in(0, 10));
                    assert!(
                        batch.len() <= before / 2,
                        "thief took {} of {before}: victim must keep the older half",
                        batch.len()
                    );
                    assert!(
                        batch
                            .windows(2)
                            .all(|w| w[0].peer_addr() < w[1].peer_addr()),
                        "a stolen batch must preserve arrival order"
                    );
                    stolen.extend(batch.iter().map(|s| s.peer_addr()));
                }
            }
        }
        // Conservation: every injected socket is in exactly one place.
        let pending = listener.pending() as u64;
        assert_eq!(
            accepted.len() as u64 + stolen.len() as u64 + pending,
            injected,
            "accepted {} + stolen {} + pending {pending} != injected {injected}",
            accepted.len(),
            stolen.len()
        );
        let mut all: Vec<u64> = accepted.iter().chain(stolen.iter()).copied().collect();
        while let Some(sock) = listener.accept() {
            all.push(sock.peer_addr());
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len() as u64,
            injected,
            "a socket was duplicated or dropped"
        );
        // The victim accepts in arrival order even across steals.
        assert!(
            accepted.windows(2).all(|w| w[0] < w[1]),
            "victim accept order broken: {accepted:?}"
        );
    });
}

#[test]
fn ring_concurrent_no_loss() {
    // Heavier multi-threaded check than the unit test: values pushed by
    // 8 producers all come out exactly once.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let ring: Arc<Ring<u64>> = Arc::new(Ring::new(128));
    let done = Arc::new(AtomicBool::new(false));
    let per = 20_000u64;
    let producers: Vec<_> = (0..8u64)
        .map(|p| {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..per {
                    let mut v = (p << 32) | i;
                    loop {
                        match ring.push(v) {
                            Ok(()) => break,
                            Err(qtls::qat::ring::RingFull(back)) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            })
        })
        .collect();
    let consumer = {
        let ring = Arc::clone(&ring);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut seen = [0u64; 8];
            let mut count = 0u64;
            loop {
                match ring.pop() {
                    Some(v) => {
                        let p = (v >> 32) as usize;
                        let i = v & 0xffff_ffff;
                        assert_eq!(seen[p], i, "per-producer FIFO order");
                        seen[p] += 1;
                        count += 1;
                    }
                    None => {
                        if done.load(Ordering::Acquire) && ring.is_empty() {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            }
            count
        })
    };
    for p in producers {
        p.join().unwrap();
    }
    done.store(true, Ordering::Release);
    assert_eq!(consumer.join().unwrap(), 8 * per);
}

#[test]
fn span_trees_nest_and_idle_fill_makes_coverage_exact() {
    // Random begin/end/add sequences against a sampled connection's
    // span tree: children always sit inside their parent's interval,
    // direct-child durations never exceed the parent's wall, and after
    // finish() the root is covered exactly (idle gaps are attributed
    // explicitly, which is what makes the attribution sum-check honest).
    use qtls::core::obs::{ConnTrace, SpanKind, SPAN_KIND_LIST};
    prop::check(
        "span_trees_nest_and_idle_fill_makes_coverage_exact",
        96,
        |g| {
            let mut now = g.u64_in(1, 1 << 40);
            let mut trace = ConnTrace::new(g.u64(), g.u32(), now);
            let mut open: Vec<u32> = Vec::new();
            for _ in 0..g.usize_in(0, 60) {
                now += g.u64_in(1, 1_000);
                match g.usize_in(0, 2) {
                    0 => {
                        let kind = SPAN_KIND_LIST[g.usize_in(1, SPAN_KIND_LIST.len() - 1)];
                        open.push(trace.begin(kind, now));
                    }
                    1 => {
                        // A completed child (the offload-wait shape): starts
                        // now, ends before the next event.
                        let start = now;
                        now += g.u64_in(1, 500);
                        let kind = SPAN_KIND_LIST[g.usize_in(1, SPAN_KIND_LIST.len() - 1)];
                        trace.add(kind, start, now, g.u64(), g.u64());
                    }
                    _ => {
                        if let Some(id) = open.pop() {
                            trace.end(id, now);
                        }
                    }
                }
            }
            now += g.u64_in(1, 1_000);
            trace.finish(now);
            let spans = trace.spans();
            assert_eq!(spans[0].kind, SpanKind::Connection, "span 0 is the root");
            assert!(spans[0].parent.is_none());
            let mut child_sum = vec![0u64; spans.len()];
            for (idx, span) in spans.iter().enumerate().skip(1) {
                let p = span.parent.expect("non-root spans have a parent") as usize;
                assert!(p < idx, "parents precede children");
                assert!(span.end_ns >= span.start_ns, "span closed backwards");
                assert!(
                    span.start_ns >= spans[p].start_ns && span.end_ns <= spans[p].end_ns,
                    "child [{}, {}] escapes parent [{}, {}]",
                    span.start_ns,
                    span.end_ns,
                    spans[p].start_ns,
                    spans[p].end_ns
                );
                child_sum[p] += span.dur_ns();
            }
            for (idx, span) in spans.iter().enumerate() {
                assert!(
                    child_sum[idx] <= span.dur_ns(),
                    "children of span {idx} outlast it"
                );
            }
            // Gap-filling: the root's direct children tile it exactly.
            assert_eq!(child_sum[0], spans[0].dur_ns());
            assert_eq!(trace.covered_ns(), trace.wall_ns());
        },
    );
}

#[test]
fn trace_sampling_is_exact_and_off_costs_nothing() {
    // 1-in-N sampling hits exactly ceil(n/N) of n decisions, and a
    // disabled sink (rate 0) stays byte-for-byte untouched no matter
    // how many connections pass it — the zero-cost-when-off contract.
    use qtls::core::obs::TraceSink;
    prop::check("trace_sampling_is_exact_and_off_costs_nothing", 64, |g| {
        let n = g.usize_in(0, 500) as u64;
        let off = TraceSink::new(0, 4096);
        assert!(!off.enabled());
        for _ in 0..n {
            assert!(off.sample().is_none());
        }
        assert_eq!(off.sampled(), 0);
        assert_eq!(off.spans_published(), 0);
        assert_eq!(off.wall_ns_total(), 0);
        assert!(off.traces().is_empty(), "no span storage at rate 0");

        let rate = g.u64_in(1, 64);
        let sink = TraceSink::new(rate, 4096);
        let hits = (0..n).filter(|_| sink.sample().is_some()).count() as u64;
        assert_eq!(hits, n.div_ceil(rate), "1-in-{rate} over {n} decisions");
        assert_eq!(sink.sampled(), hits);
    });
}
