//! The cluster scheduling plane (DESIGN.md §15): per-worker load gauges,
//! load-aware dispatch, work stealing, and the dispatcher's drain
//! signal.
//!
//! The sim ablation (`figures -- scheduling`) picked dFCFS with
//! least-loaded dispatch plus work stealing: it matches the centralized
//! queue's tail latency without paying a shared run queue. The pieces
//! here are what the real cluster needs to implement that discipline:
//!
//! - every worker publishes a cache-padded **load gauge** (accepted-but-
//!   unserved backlog + inflight handshakes + staged offload depth) once
//!   per event-loop sweep;
//! - the master dispatcher routes new sockets to the least-loaded worker
//!   found by a **bounded probe** (power-of-two-choices style), walking
//!   past full backlogs;
//! - an idle worker **steals half** of the most-loaded sibling's accept
//!   backlog through [`crate::net::VListener::steal_half`];
//! - workers ring the **drain signal** after every accept sweep, so a
//!   dispatcher facing all-full backlogs parks until a drain instead of
//!   sleeping a blind backoff.

use qtls_sync::{CachePadded, Condvar, Mutex, Parker};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How the master dispatcher picks the worker for a new socket (the
/// `dispatch_policy` directive).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Blind rotation — the original policy, still selectable.
    #[default]
    RoundRobin,
    /// Route to the least-loaded worker within a bounded probe window.
    LeastLoaded,
}

/// How many gauges the dispatcher probes per decision under
/// [`DispatchPolicy::LeastLoaded`] — a power-of-two-choices-style
/// bounded walk, not a full scan, so the decision stays O(1) as the
/// worker count grows.
pub const DISPATCH_PROBE: usize = 4;

/// Pick the least-loaded index among the `probe` consecutive entries of
/// `gauges` starting at `start` (wrapping). Ties go to the first index
/// probed, so with `probe == gauges.len()` this is an exact argmin over
/// the rotation order. The pure decision function — the property tests
/// pin it as an argmin.
pub fn least_loaded_pick(gauges: &[u64], start: usize, probe: usize) -> usize {
    let n = gauges.len();
    debug_assert!(n > 0, "no workers to pick from");
    let probe = probe.clamp(1, n);
    let mut best = start % n;
    let mut best_load = gauges[best];
    for step in 1..probe {
        let i = (start + step) % n;
        if gauges[i] < best_load {
            best = i;
            best_load = gauges[i];
        }
    }
    best
}

/// Shared state between the master dispatcher and the workers: the load
/// gauges, the steal accounting, and the drain signal. One per cluster,
/// handed to every worker.
pub struct SchedShared {
    /// Per-worker load gauges. Cache-padded: each worker stores its own
    /// gauge every sweep, and padding keeps those stores from false-
    /// sharing a line with a neighbour's.
    gauges: Vec<CachePadded<AtomicU64>>,
    /// Sockets each worker stole INTO its backlog.
    stolen_in: Vec<CachePadded<AtomicU64>>,
    /// Sockets stolen OUT of each worker's backlog.
    stolen_out: Vec<CachePadded<AtomicU64>>,
    /// Bumped by a worker after every accept sweep that drained its
    /// backlog; the dispatcher parks on this when every backlog is full.
    drain_gen: Mutex<u64>,
    drained: Condvar,
    /// `dispatch_steal` directive: whether idle workers steal.
    steal: bool,
    /// `dispatch_policy` directive, re-exposed to workers for the
    /// metrics plane.
    policy: DispatchPolicy,
    /// Every worker's wake handle, so the master can rouse sleeping
    /// workers for something they have no event for (shutdown).
    wakers: Mutex<Vec<Arc<Parker>>>,
}

impl SchedShared {
    /// Scheduling state for `workers` workers.
    pub fn new(workers: usize, policy: DispatchPolicy, steal: bool) -> Self {
        SchedShared {
            gauges: (0..workers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            stolen_in: (0..workers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            stolen_out: (0..workers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            drain_gen: Mutex::new(0),
            drained: Condvar::new(),
            steal,
            policy,
            wakers: Mutex::new(Vec::new()),
        }
    }

    /// A worker registers the handle its idle loop sleeps on.
    pub fn register_waker(&self, waker: Arc<Parker>) {
        self.wakers.lock().push(waker);
    }

    /// Registered workers asleep in their idle loop right now (racy;
    /// monitoring and tests).
    pub fn parked_workers(&self) -> usize {
        self.wakers.lock().iter().filter(|w| w.is_parked()).count()
    }

    /// Wake every registered worker.
    pub fn wake_workers(&self) {
        for waker in self.wakers.lock().iter() {
            waker.unpark();
        }
    }

    /// Number of workers the plane tracks.
    pub fn workers(&self) -> usize {
        self.gauges.len()
    }

    /// Is work stealing enabled?
    pub fn steal_enabled(&self) -> bool {
        self.steal
    }

    /// The configured dispatch policy.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// Worker `i` publishes its current load gauge.
    pub fn publish(&self, i: usize, load: u64) {
        self.gauges[i].store(load, Ordering::Relaxed);
    }

    /// Worker `i`'s last-published load gauge.
    pub fn load(&self, i: usize) -> u64 {
        self.gauges[i].load(Ordering::Relaxed)
    }

    /// Snapshot of every gauge, worker order.
    pub fn loads(&self) -> Vec<u64> {
        self.gauges
            .iter()
            .map(|g| g.load(Ordering::Relaxed))
            .collect()
    }

    /// The most-loaded worker other than `thief`, if any has a strictly
    /// higher gauge — the steal victim.
    pub fn most_loaded_except(&self, thief: usize) -> Option<usize> {
        let mut victim = None;
        let mut best = self.load(thief);
        for i in 0..self.gauges.len() {
            if i == thief {
                continue;
            }
            let l = self.load(i);
            if l > best {
                best = l;
                victim = Some(i);
            }
        }
        victim
    }

    /// Record `n` sockets moving from `victim`'s backlog to `thief`'s.
    pub fn record_steal(&self, thief: usize, victim: usize, n: u64) {
        self.stolen_in[thief].fetch_add(n, Ordering::Relaxed);
        self.stolen_out[victim].fetch_add(n, Ordering::Relaxed);
    }

    /// Per-worker `(stolen_in, stolen_out)` totals.
    pub fn steal_totals(&self) -> (Vec<u64>, Vec<u64>) {
        (
            self.stolen_in
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            self.stolen_out
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        )
    }

    /// Current drain generation; read BEFORE probing the backlogs so a
    /// drain between probe and park is never missed.
    pub fn drain_generation(&self) -> u64 {
        *self.drain_gen.lock()
    }

    /// A worker drained (accepted from) its backlog: wake any parked
    /// dispatcher.
    pub fn note_drain(&self) {
        *self.drain_gen.lock() += 1;
        self.drained.notify_all();
    }

    /// Park until the drain generation advances past `seen` or `timeout`
    /// elapses; returns whether a drain was observed. This is what
    /// bounds dispatch latency under overload by the workers' drain
    /// rate instead of a blind backoff timer.
    pub fn wait_drain(&self, seen: u64, timeout: Duration) -> bool {
        let mut gen = self.drain_gen.lock();
        if *gen == seen {
            let _ = self.drained.wait_for(&mut gen, timeout);
        }
        *gen != seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn least_loaded_pick_is_argmin_over_full_probe() {
        let gauges = [5, 3, 9, 3, 7];
        // Full probe: exact argmin; tie (indices 1 and 3) goes to the
        // first one reached from the start cursor.
        assert_eq!(least_loaded_pick(&gauges, 0, 5), 1);
        assert_eq!(least_loaded_pick(&gauges, 2, 5), 3);
        // Bounded probe only sees its window.
        assert_eq!(least_loaded_pick(&gauges, 2, 2), 3);
        assert_eq!(least_loaded_pick(&gauges, 4, 2), 0, "wraps past the end");
        // Degenerate probes clamp sanely.
        assert_eq!(least_loaded_pick(&gauges, 1, 0), 1);
        assert_eq!(least_loaded_pick(&gauges, 1, 99), 1);
    }

    #[test]
    fn most_loaded_victim_requires_strictly_higher_gauge() {
        let s = SchedShared::new(3, DispatchPolicy::LeastLoaded, true);
        s.publish(0, 4);
        s.publish(1, 4);
        s.publish(2, 4);
        assert_eq!(s.most_loaded_except(0), None, "no victim at equal load");
        s.publish(2, 9);
        assert_eq!(s.most_loaded_except(0), Some(2));
        assert_eq!(s.most_loaded_except(2), None, "the max never steals");
    }

    #[test]
    fn drain_signal_wakes_parked_dispatcher_before_the_timeout() {
        let s = Arc::new(SchedShared::new(1, DispatchPolicy::RoundRobin, false));
        let seen = s.drain_generation();
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            s2.note_drain();
        });
        let t0 = Instant::now();
        // The park is bounded by the drain, not the 5 s timeout.
        assert!(s.wait_drain(seen, Duration::from_secs(5)));
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "woken by the drain signal, not the timeout"
        );
        t.join().unwrap();
        // A stale generation returns immediately without parking.
        assert!(s.wait_drain(seen, Duration::from_secs(5)));
        // An up-to-date generation with no drain times out false.
        let now = s.drain_generation();
        assert!(!s.wait_drain(now, Duration::from_millis(1)));
    }
}
