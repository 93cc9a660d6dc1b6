//! QAT response retrieval schemes (paper §3.3 / §4.3 / §5.6).
//!
//! - [`TimerPoller`]: the baseline — a dedicated thread polling the
//!   instance at a fixed interval (the QAT Engine default; 10 µs in the
//!   paper's `QAT+S`/`QAT+A` configurations, 1 ms in the Fig. 12
//!   comparison).
//! - [`HeuristicPoller`]: the paper's contribution — polling driven by
//!   application-level knowledge, integrated into the event loop:
//!   * **efficiency**: poll when `R_total` reaches a threshold (48 when
//!     asymmetric requests are inflight, 24 otherwise) to coalesce
//!     responses;
//!   * **timeliness**: poll immediately when `R_total >=
//!     TC_active` — every active connection is waiting on the
//!     accelerator, so the process would otherwise stall;
//!   * **failover**: a coarse timer forces a poll if none was triggered
//!     during the last interval while requests are inflight.
//!
//! `TC_active` is the caller's count of connections the loop could
//! still make progress on without the accelerator's answer: those with
//! an offload pending or with unread bytes. A connection that is
//! mid-handshake but waiting for the *peer's* next flight is not one of
//! them — counting it (the paper's alive − idle reading) kept the
//! timeliness rule from firing until a sibling submitted too, and a
//! response sat on the ring for several device round trips. While the
//! loop is busy this is the paper's pure poll; once it has nothing else
//! to do it sleeps until [`HeuristicPoller::failover_in`] and is woken
//! early by the device when a response lands (`qtls-qat`'s response
//! waker, the model of event-driven polling).
//!
//! On a sharded engine the heuristic is shard-aware: the efficiency
//! rule evaluates each shard against its own threshold (a ring's
//! responses can only coalesce on that ring), and a fired poll sweeps
//! only the shards that actually have inflight work — preserving the
//! paper's "poll only when the app knows responses are pending"
//! property at N rings.

use crate::engine::OffloadEngine;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A dedicated timer-based polling thread bound to an engine's instance.
///
/// Stops (and joins) on drop.
pub struct TimerPoller {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<u64>>,
}

impl TimerPoller {
    /// Spawn a polling thread that drains the engine's instance every
    /// `interval`.
    pub fn spawn(engine: Arc<OffloadEngine>, interval: Duration) -> Self {
        engine.set_external_poller(true);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("qat-timer-poller".into())
            .spawn(move || {
                let mut total = 0u64;
                while !stop2.load(Ordering::Relaxed) {
                    total += engine.poll_all() as u64;
                    std::thread::sleep(interval);
                }
                // Final drain so no response is stranded at shutdown.
                total += engine.poll_all() as u64;
                total
            })
            .expect("spawn poller thread");
        TimerPoller {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop the thread and return the total number of responses it
    /// retrieved.
    pub fn stop(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.take().map(|h| h.join().unwrap()).unwrap_or(0)
    }
}

impl Drop for TimerPoller {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Thresholds for the heuristic scheme (defaults from §4.3; the paper
/// "opened the threshold setting in the Nginx configuration file" — the
/// `ssl_engine { qat_heuristic_poll_*_threshold }` directives).
#[derive(Clone, Copy, Debug)]
pub struct HeuristicConfig {
    /// Efficiency threshold when asymmetric requests are inflight.
    pub asym_threshold: u64,
    /// Efficiency threshold when only symmetric/PRF requests are inflight.
    pub sym_threshold: u64,
    /// Failover interval: force a poll if none happened for this long
    /// while requests are inflight.
    pub failover: Duration,
}

impl Default for HeuristicConfig {
    fn default() -> Self {
        HeuristicConfig {
            asym_threshold: 48,
            sym_threshold: 24,
            failover: Duration::from_millis(5),
        }
    }
}

/// Why a heuristic poll fired (exposed for tests and ablation benches).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PollTrigger {
    /// `R_total` reached the efficiency threshold.
    Efficiency,
    /// `R_total >= TC_active`: all active connections are waiting.
    Timeliness,
    /// Failover timer expired with inflight requests.
    Failover,
}

/// Statistics of a heuristic poller.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeuristicStats {
    /// Polls fired by the efficiency rule.
    pub efficiency_polls: u64,
    /// Polls fired by the timeliness rule.
    pub timeliness_polls: u64,
    /// Polls fired by failover.
    pub failover_polls: u64,
    /// Swept shards that retrieved nothing — the §5.6 "wasted polls"
    /// metric. Counted per shard, not per sweep: on a sharded engine a
    /// sweep that drains one ring but touches N-1 empty ones still
    /// wasted N-1 ring reads, and a per-sweep count would hide them.
    pub empty_polls: u64,
    /// Responses retrieved in total.
    pub responses: u64,
    /// Shards swept across all fired polls (idle shards are skipped, so
    /// on a sharded engine this is <= polls * shard_count).
    pub shards_swept: u64,
}

/// Flight-recorder encoding of a [`PollTrigger`] (the `a` payload of a
/// `PollerMiss` event): 0 efficiency, 1 timeliness, 2 failover.
fn trigger_index(trigger: PollTrigger) -> u64 {
    match trigger {
        PollTrigger::Efficiency => 0,
        PollTrigger::Timeliness => 1,
        PollTrigger::Failover => 2,
    }
}

/// The heuristic polling scheme, owned by the worker's event loop (no
/// dedicated thread, no context switches).
pub struct HeuristicPoller {
    engine: Arc<OffloadEngine>,
    config: HeuristicConfig,
    last_poll: Instant,
    stats: HeuristicStats,
}

impl HeuristicPoller {
    /// Build over `engine` with `config`.
    pub fn new(engine: Arc<OffloadEngine>, config: HeuristicConfig) -> Self {
        HeuristicPoller {
            engine,
            config,
            last_poll: Instant::now(),
            stats: HeuristicStats::default(),
        }
    }

    /// Decide whether the constraints require a poll right now, given the
    /// number of active TLS connections (`TC_active`: an offload pending
    /// or unread bytes — see the module docs). Returns the trigger that
    /// fired, if any.
    pub fn check(&self, tc_active: u64) -> Option<PollTrigger> {
        let total = self.engine.inflight().total();
        if total == 0 {
            return None;
        }
        // Timeliness: every active connection is waiting on the QAT.
        // The process stalls as a whole, so this rule stays aggregate.
        if total >= tc_active {
            return Some(PollTrigger::Timeliness);
        }
        // Efficiency: enough responses to coalesce. Responses coalesce
        // per ring, so each shard is held to its own threshold (with
        // the asym threshold applying only where asym ops are inflight);
        // at one shard this degenerates to the aggregate rule.
        for i in 0..self.engine.shard_count() {
            let threshold = if self.engine.shard_asym_inflight(i) > 0 {
                self.config.asym_threshold
            } else {
                self.config.sym_threshold
            };
            if self.engine.shard_inflight(i) >= threshold {
                return Some(PollTrigger::Efficiency);
            }
        }
        None
    }

    /// Check the constraints and poll if one fires. Call wherever a
    /// crypto operation may be involved or `TC_active` may be updated.
    /// Returns the number of responses retrieved.
    pub fn maybe_poll(&mut self, tc_active: u64) -> usize {
        match self.check(tc_active) {
            Some(trigger) => self.poll_now(trigger),
            None => 0,
        }
    }

    /// Failover check: call from a coarse timer (e.g. once per event-loop
    /// turn). Polls only if no poll happened during the last failover
    /// interval while requests are inflight.
    pub fn failover_check(&mut self) -> usize {
        if self.engine.inflight().total() > 0 && self.last_poll.elapsed() >= self.config.failover {
            self.poll_now(PollTrigger::Failover)
        } else {
            0
        }
    }

    /// How long until [`failover_check`](Self::failover_check) would
    /// fire, or `None` with nothing inflight — the longest an otherwise
    /// idle event loop may sleep without stranding a response.
    pub fn failover_in(&self) -> Option<Duration> {
        (self.engine.inflight().total() > 0).then(|| {
            self.config
                .failover
                .saturating_sub(self.last_poll.elapsed())
        })
    }

    fn poll_now(&mut self, trigger: PollTrigger) -> usize {
        // Sweep only shards with inflight work: an idle ring cannot have
        // responses pending, so touching it is a pure cache miss.
        let mut n = 0;
        for i in 0..self.engine.shard_count() {
            if self.engine.shard_inflight(i) > 0 {
                let got = self.engine.poll_shard(i);
                self.stats.shards_swept += 1;
                if got == 0 {
                    // Wasted poll of this ring: swept, nothing there.
                    self.stats.empty_polls += 1;
                    self.engine.obs().recorder().record(
                        crate::obs::EventKind::PollerMiss,
                        i as u32,
                        trigger_index(trigger),
                        0,
                    );
                }
                n += got;
            }
        }
        self.last_poll = Instant::now();
        match trigger {
            PollTrigger::Efficiency => self.stats.efficiency_polls += 1,
            PollTrigger::Timeliness => self.stats.timeliness_polls += 1,
            PollTrigger::Failover => self.stats.failover_polls += 1,
        }
        self.stats.responses += n as u64;
        n
    }

    /// Poller statistics.
    pub fn stats(&self) -> HeuristicStats {
        self.stats
    }

    /// The configured thresholds.
    pub fn config(&self) -> HeuristicConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineMode;
    use crate::fiber::{start_job, StartResult};
    use qtls_qat::{CryptoOp, QatConfig, QatDevice};

    fn prf_op() -> CryptoOp {
        CryptoOp::Prf {
            secret: vec![1],
            label: vec![2],
            seed: vec![3],
            out_len: 8,
        }
    }

    /// Engine with no device engines: requests stay inflight forever, so
    /// the counter state is fully controlled by the test.
    fn stuck_engine() -> (QatDevice, Arc<OffloadEngine>) {
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 0,
            ring_capacity: 128,
            ..QatConfig::functional_small()
        });
        let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
        (dev, engine)
    }

    fn submit_n(engine: &Arc<OffloadEngine>, n: usize) {
        for _ in 0..n {
            let eng = Arc::clone(engine);
            match start_job(move || eng.offload(prf_op())) {
                StartResult::Paused(j) => std::mem::forget(j),
                _ => panic!("must pause"),
            }
        }
    }

    #[test]
    fn no_inflight_no_poll() {
        let (_dev, engine) = stuck_engine();
        let poller = HeuristicPoller::new(engine, HeuristicConfig::default());
        assert_eq!(poller.check(0), None);
        assert_eq!(poller.check(100), None);
    }

    #[test]
    fn timeliness_fires_when_all_active_connections_wait() {
        let (_dev, engine) = stuck_engine();
        submit_n(&engine, 3);
        let poller = HeuristicPoller::new(Arc::clone(&engine), HeuristicConfig::default());
        // 3 offloads pending plus 2 connections with unread bytes: the
        // loop still has work that needs no response -> no poll yet.
        assert_eq!(poller.check(5), None);
        // Only the 3 waiters are active (siblings waiting on the network
        // do not count): poll immediately.
        assert_eq!(poller.check(3), Some(PollTrigger::Timeliness));
        // A batch pass holds several requests inflight per connection.
        assert_eq!(poller.check(2), Some(PollTrigger::Timeliness));
    }

    #[test]
    fn failover_in_bounds_an_idle_loops_sleep() {
        let (_dev, engine) = stuck_engine();
        let poller = HeuristicPoller::new(
            Arc::clone(&engine),
            HeuristicConfig {
                failover: Duration::from_secs(3600),
                ..Default::default()
            },
        );
        assert_eq!(poller.failover_in(), None, "nothing inflight: no deadline");
        submit_n(&engine, 1);
        let left = poller.failover_in().expect("inflight");
        assert!(left <= Duration::from_secs(3600) && left > Duration::from_secs(3500));
    }

    #[test]
    fn efficiency_threshold_sym_vs_asym() {
        let (_dev, engine) = stuck_engine();
        let cfg = HeuristicConfig {
            asym_threshold: 48,
            sym_threshold: 24,
            failover: Duration::from_secs(10),
        };
        // 24 PRF requests inflight (no asym): sym threshold fires.
        submit_n(&engine, 24);
        let poller = HeuristicPoller::new(Arc::clone(&engine), cfg);
        assert_eq!(poller.check(1000), Some(PollTrigger::Efficiency));
        // One fewer would not fire (need a fresh engine).
        let (_dev2, engine2) = stuck_engine();
        submit_n(&engine2, 23);
        let poller2 = HeuristicPoller::new(Arc::clone(&engine2), cfg);
        assert_eq!(poller2.check(1000), None);
    }

    #[test]
    fn asym_inflight_raises_threshold() {
        // 30 inflight including one asym: sym threshold (24) must NOT
        // fire because the asym threshold (48) applies.
        let (_dev, engine) = stuck_engine();
        submit_n(&engine, 29);
        let eng = Arc::clone(&engine);
        match start_job(move || {
            eng.offload(CryptoOp::EcKeygen {
                curve: qtls_crypto::ecc::NamedCurve::P256,
                seed: 1,
            })
        }) {
            StartResult::Paused(j) => std::mem::forget(j),
            _ => panic!(),
        }
        assert_eq!(engine.inflight().total(), 30);
        assert_eq!(engine.inflight().asym_inflight(), 1);
        let poller = HeuristicPoller::new(Arc::clone(&engine), HeuristicConfig::default());
        assert_eq!(poller.check(1000), None, "below asym threshold");
    }

    #[test]
    fn failover_fires_after_interval() {
        let (_dev, engine) = stuck_engine();
        submit_n(&engine, 1);
        let mut poller = HeuristicPoller::new(
            Arc::clone(&engine),
            HeuristicConfig {
                failover: Duration::from_millis(5),
                ..Default::default()
            },
        );
        assert_eq!(poller.failover_check(), 0); // interval not elapsed... but counts?
        std::thread::sleep(Duration::from_millis(10));
        poller.failover_check();
        assert_eq!(poller.stats().failover_polls, 1);
    }

    #[test]
    fn failover_never_fires_with_zero_inflight() {
        // Zero inflight means there is nothing a poll could retrieve:
        // the failover timer must stay silent no matter how long ago
        // the last poll happened.
        let (_dev, engine) = stuck_engine();
        let mut poller = HeuristicPoller::new(
            Arc::clone(&engine),
            HeuristicConfig {
                failover: Duration::from_millis(1),
                ..Default::default()
            },
        );
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(poller.failover_check(), 0);
        let stats = poller.stats();
        assert_eq!(stats.failover_polls, 0);
        assert_eq!(stats.empty_polls, 0);
    }

    #[test]
    fn timeliness_fires_at_zero_active_connections() {
        // TC_active == 0 with requests inflight (the waiter's connection
        // went away mid-offload): total >= 0 always holds, so the rule
        // fires immediately (nothing else could drive the event loop).
        let (_dev, engine) = stuck_engine();
        submit_n(&engine, 1);
        let poller = HeuristicPoller::new(Arc::clone(&engine), HeuristicConfig::default());
        assert_eq!(poller.check(0), Some(PollTrigger::Timeliness));
    }

    #[test]
    fn any_poll_resets_the_failover_timer() {
        let (_dev, engine) = stuck_engine();
        submit_n(&engine, 1);
        let mut poller = HeuristicPoller::new(
            Arc::clone(&engine),
            HeuristicConfig {
                failover: Duration::from_millis(20),
                ..Default::default()
            },
        );
        std::thread::sleep(Duration::from_millis(25));
        // A timeliness poll lands first and resets last_poll...
        assert_eq!(poller.maybe_poll(1), 0);
        assert_eq!(poller.stats().timeliness_polls, 1);
        // ...so the immediately-following failover check stays quiet
        // even though more than `failover` elapsed since construction.
        assert_eq!(poller.failover_check(), 0);
        assert_eq!(poller.stats().failover_polls, 0);
        // Once the interval elapses again with no other poll, it fires.
        std::thread::sleep(Duration::from_millis(25));
        poller.failover_check();
        assert_eq!(poller.stats().failover_polls, 1);
    }

    #[test]
    fn empty_polls_are_accounted() {
        // A stuck engine never produces responses, so every fired poll
        // is an empty one — the §5.6 "wasted polls" accounting.
        let (_dev, engine) = stuck_engine();
        submit_n(&engine, 2);
        let mut poller = HeuristicPoller::new(
            Arc::clone(&engine),
            HeuristicConfig {
                failover: Duration::from_millis(1),
                ..Default::default()
            },
        );
        assert_eq!(poller.maybe_poll(2), 0); // timeliness, retrieves nothing
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(poller.failover_check(), 0); // failover, retrieves nothing
        let stats = poller.stats();
        assert_eq!(stats.timeliness_polls, 1);
        assert_eq!(stats.failover_polls, 1);
        assert_eq!(stats.empty_polls, 2);
        assert_eq!(stats.responses, 0);
    }

    #[test]
    fn sharded_poll_sweeps_only_shards_with_inflight() {
        use qtls_qat::{ServiceMode, ServiceTable};
        let dev = QatDevice::new(QatConfig {
            endpoints: 2,
            engines_per_endpoint: 1,
            ring_capacity: 128,
            service_mode: ServiceMode::Timed { time_scale: 1.0 },
            service_table: ServiceTable {
                // Asym instant; PRF stuck for the duration of the test.
                ecc_p256_ns: 1,
                prf_ns: 300_000_000,
                ..ServiceTable::default()
            },
        });
        let engine = Arc::new(OffloadEngine::sharded(
            dev.alloc_instances(2),
            EngineMode::Async,
        ));
        // Round-robin order: the first offload takes shard 0 and is
        // waited out in place; the second, one batch of two PRF ops,
        // takes shard 1. Shard 0 is left idle.
        engine
            .offload(CryptoOp::EcKeygen {
                curve: qtls_crypto::ecc::NamedCurve::P256,
                seed: 5,
            })
            .expect("keygen");
        let eng = Arc::clone(&engine);
        match start_job(move || eng.offload_batch(vec![prf_op(), prf_op()])) {
            StartResult::Paused(j) => std::mem::forget(j),
            _ => panic!("must pause"),
        }
        assert_eq!(engine.shard_inflight(0), 0);
        assert_eq!(engine.shard_inflight(1), 2);
        let mut poller = HeuristicPoller::new(Arc::clone(&engine), HeuristicConfig::default());
        // Timeliness fires (2 inflight >= 2 active) but the sweep only
        // touches the shard with pending work.
        assert_eq!(poller.maybe_poll(2), 0);
        let stats = poller.stats();
        assert_eq!(stats.timeliness_polls, 1);
        assert_eq!(stats.shards_swept, 1);
    }

    #[test]
    fn efficiency_evaluates_each_shard_against_its_own_threshold() {
        let dev = QatDevice::new(QatConfig {
            endpoints: 2,
            engines_per_endpoint: 0,
            ring_capacity: 128,
            ..QatConfig::functional_small()
        });
        let engine = Arc::new(OffloadEngine::sharded(
            dev.alloc_instances(2),
            EngineMode::Async,
        ));
        // 30 PRFs round-robin to 15 per shard: the aggregate (30) passes
        // the sym threshold (24) but no single ring can coalesce that
        // many responses — no efficiency poll.
        submit_n(&engine, 30);
        assert_eq!(engine.shard_inflight(0), 15);
        assert_eq!(engine.shard_inflight(1), 15);
        let poller = HeuristicPoller::new(Arc::clone(&engine), HeuristicConfig::default());
        assert_eq!(poller.check(1000), None, "no shard at its threshold");
        // 18 more (24 per shard): a ring reaches its threshold.
        submit_n(&engine, 18);
        assert_eq!(poller.check(1000), Some(PollTrigger::Efficiency));
    }

    #[test]
    fn asym_threshold_applies_only_to_the_asym_shard() {
        let dev = QatDevice::new(QatConfig {
            endpoints: 2,
            engines_per_endpoint: 0,
            ring_capacity: 128,
            ..QatConfig::functional_small()
        });
        let engine = Arc::new(OffloadEngine::sharded(
            dev.alloc_instances(2),
            EngineMode::Async,
        ));
        // One asym op on shard 0, then one batch of 24 PRFs, which the
        // round-robin cursor places on shard 1. The old aggregate rule
        // would hold everything to the asym threshold (48); per shard,
        // the pure-sym ring fires at 24.
        let eng = Arc::clone(&engine);
        match start_job(move || {
            eng.offload(CryptoOp::EcKeygen {
                curve: qtls_crypto::ecc::NamedCurve::P256,
                seed: 7,
            })
        }) {
            StartResult::Paused(j) => std::mem::forget(j),
            _ => panic!(),
        }
        let eng = Arc::clone(&engine);
        match start_job(move || eng.offload_batch(vec![prf_op(); 24])) {
            StartResult::Paused(j) => std::mem::forget(j),
            _ => panic!(),
        }
        assert_eq!(engine.shard_asym_inflight(0), 1);
        assert_eq!(engine.shard_inflight(1), 24);
        let poller = HeuristicPoller::new(Arc::clone(&engine), HeuristicConfig::default());
        assert_eq!(poller.check(1000), Some(PollTrigger::Efficiency));
    }

    #[test]
    fn wasted_polls_count_per_shard_not_per_sweep() {
        // Regression: on a sharded engine, one sweep over two stuck
        // shards wastes TWO ring reads. The old per-sweep accounting
        // (`if n == 0` after the loop) reported a single empty poll and
        // under-counted the §5.6 wasted-poll metric on every sharded
        // configuration.
        let dev = QatDevice::new(QatConfig {
            endpoints: 2,
            engines_per_endpoint: 0,
            ring_capacity: 128,
            ..QatConfig::functional_small()
        });
        let engine = Arc::new(OffloadEngine::sharded(
            dev.alloc_instances(2),
            EngineMode::Async,
        ));
        submit_n(&engine, 2); // round-robin: one stuck request per shard
        assert_eq!(engine.shard_inflight(0), 1);
        assert_eq!(engine.shard_inflight(1), 1);
        let mut poller = HeuristicPoller::new(Arc::clone(&engine), HeuristicConfig::default());
        assert_eq!(poller.maybe_poll(2), 0); // timeliness sweep, both empty
        let stats = poller.stats();
        assert_eq!(stats.timeliness_polls, 1);
        assert_eq!(stats.shards_swept, 2);
        assert_eq!(stats.empty_polls, 2, "one wasted poll per swept shard");
    }

    #[test]
    fn productive_sweep_still_counts_empty_shards_as_wasted() {
        // A sweep that retrieves responses from one shard but finds the
        // other ring empty has still wasted one ring read. The old
        // accounting (aggregate n > 0) reported zero empty polls here.
        use qtls_qat::{ServiceMode, ServiceTable};
        let dev = QatDevice::new(QatConfig {
            endpoints: 2,
            engines_per_endpoint: 1,
            ring_capacity: 128,
            service_mode: ServiceMode::Timed { time_scale: 1.0 },
            service_table: ServiceTable {
                // Asym stuck for the duration of the test; PRF instant.
                ecc_p256_ns: 300_000_000,
                prf_ns: 1,
                ..ServiceTable::default()
            },
            ..QatConfig::functional_small()
        });
        let engine = Arc::new(OffloadEngine::sharded(
            dev.alloc_instances(2),
            EngineMode::Async,
        ));
        // Round-robin order: the slow asym op takes shard 0, the fast
        // PRF shard 1.
        let eng = Arc::clone(&engine);
        match start_job(move || {
            eng.offload(CryptoOp::EcKeygen {
                curve: qtls_crypto::ecc::NamedCurve::P256,
                seed: 3,
            })
        }) {
            StartResult::Paused(j) => std::mem::forget(j),
            _ => panic!(),
        }
        submit_n(&engine, 1);
        // Wait until the PRF response is sitting in shard 1's ring.
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.shard_instance(1).pending_responses() == 0 {
            assert!(Instant::now() < deadline, "PRF never completed");
            std::thread::sleep(Duration::from_micros(50));
        }
        let mut poller = HeuristicPoller::new(Arc::clone(&engine), HeuristicConfig::default());
        assert_eq!(poller.maybe_poll(2), 1, "PRF response retrieved");
        let stats = poller.stats();
        assert_eq!(stats.shards_swept, 2);
        assert_eq!(stats.responses, 1);
        assert_eq!(stats.empty_polls, 1, "the asym shard sweep was wasted");
    }

    #[test]
    fn timer_poller_retrieves_responses() {
        let dev = QatDevice::new(QatConfig::functional_small());
        let engine = Arc::new(OffloadEngine::new(dev.alloc_instance(), EngineMode::Async));
        let mut jobs = Vec::new();
        for _ in 0..4 {
            let eng = Arc::clone(&engine);
            match start_job(move || eng.offload(prf_op())) {
                StartResult::Paused(j) => jobs.push(j),
                _ => panic!(),
            }
        }
        let poller = TimerPoller::spawn(Arc::clone(&engine), Duration::from_micros(100));
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.inflight().total() > 0 {
            assert!(Instant::now() < deadline, "poller never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        let retrieved = poller.stop();
        assert_eq!(retrieved, 4);
        for job in jobs {
            match job.resume() {
                StartResult::Finished(r) => assert!(r.is_ok()),
                _ => panic!("result ready; must finish"),
            }
        }
    }
}
