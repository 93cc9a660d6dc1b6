//! The QAT device model: endpoints, parallel computation engines and
//! crypto instances (Fig. 2 of the paper).
//!
//! A [`QatDevice`] stands in for one PCIe QAT card. Each endpoint owns a
//! set of engine threads which load-balance requests from all the
//! endpoint's instance rings (the hardware behaviour: "QAT load-balances
//! requests from all rings across all available computation engines").
//! A [`CryptoInstance`] is the logical unit a worker is assigned: one
//! request/response ring pair plus a handle for submission and polling.
//!
//! # What waiting costs
//!
//! Idle engines sleep untimed on their endpoint's condvar and are woken
//! by count, not by broadcast: a doorbell for `n` published requests
//! grants `min(n, parked)` wake-ups and none when every engine is busy
//! (a busy engine re-scans the rings when it finishes). An engine
//! registers as parked and re-scans *under the wake lock* before it
//! waits, and a doorbell takes the same lock after the ring publish, so
//! either the engine's re-scan sees the request or the doorbell sees the
//! engine — no timed rescan is needed to paper over a lost wake-up. Only
//! a doorbell and device shutdown ever notify. A completed response
//! wakes the instance's registered [`Parker`], if any — the model of the
//! QAT driver's event-driven polling fd. Each costs one futex wake.

use crate::config::{QatConfig, ServiceMode};
use crate::counters::FwCounters;
use crate::request::{execute_owned, CryptoRequest, CryptoResponse, ResponseCallback};
use crate::ring::{Ring, RingFull};
use crate::trace::{self, RetrieveHook};
use qtls_sync::{Condvar, Mutex, MutexGuard, Parker, RwLock, WakeSlot};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A request/response ring pair backing one crypto instance.
struct RingPair {
    req: Ring<CryptoRequest>,
    resp: Ring<CryptoResponse>,
    /// Observer for retrieved responses while tracing is on; shared by
    /// every clone of the owning instance (pollers included).
    retrieve_hook: RwLock<Option<Arc<dyn RetrieveHook>>>,
    /// Woken whenever an engine lands a response on `resp`.
    resp_waker: WakeSlot,
    /// Index of the endpoint whose engines currently serve this pair.
    /// Runtime shard rebalancing retargets it (under both endpoints'
    /// wake locks), so submitters route doorbells through this instead
    /// of a captured endpoint handle.
    owner: AtomicUsize,
}

/// Engine sleep accounting of one endpoint, guarded by its wake lock.
#[derive(Default)]
struct WakeState {
    /// Engines registered as parked (waiting, or about to).
    parked: usize,
    /// Wake-ups granted by doorbells and not yet taken by an engine.
    tokens: usize,
    /// Wake-ups granted since bring-up.
    wakes: u64,
}

/// Shared state of one endpoint.
struct EndpointShared {
    /// Instances assigned from this endpoint.
    pairs: RwLock<Vec<Arc<RingPair>>>,
    /// Engine wakeup. Lock order: `wake` before `pairs`.
    wake: Mutex<WakeState>,
    wake_cond: Condvar,
    shutdown: AtomicBool,
    /// Round-robin scan start so engines don't all hammer ring 0.
    scan_cursor: AtomicUsize,
}

impl EndpointShared {
    /// Grant one wake-up per published request, to as many parked
    /// engines as have none pending. Called with the requests already on
    /// a ring.
    fn grant_wakes(&self, mut wake: MutexGuard<'_, WakeState>, requests: usize) {
        let grant = requests.min(wake.parked - wake.tokens);
        wake.tokens += grant;
        wake.wakes += grant as u64;
        // Notify unlocked so a woken engine does not immediately block
        // on the lock; the token it needs is already in place.
        drop(wake);
        for _ in 0..grant {
            self.wake_cond.notify_one();
        }
    }

    /// Pop the next request off any of this endpoint's rings, rotating
    /// the scan start for fairness across instances.
    fn scan(&self) -> Option<(Arc<RingPair>, CryptoRequest)> {
        let pairs = self.pairs.read();
        if pairs.is_empty() {
            return None;
        }
        let start = self.scan_cursor.fetch_add(1, Ordering::Relaxed) % pairs.len();
        (0..pairs.len()).find_map(|i| {
            let pair = &pairs[(start + i) % pairs.len()];
            pair.req.pop().map(|req| (Arc::clone(pair), req))
        })
    }

    /// The engine's idle path: the next request, sleeping untimed while
    /// there is none. `None` means the device is shutting down.
    fn next_request(&self) -> Option<(Arc<RingPair>, CryptoRequest)> {
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(work) = self.scan() {
                return Some(work);
            }
            let mut wake = self.wake.lock();
            wake.parked += 1;
            // Re-scan now that doorbells can see this engine: one rung
            // since the empty scan above found nobody to wake.
            let work = self.scan();
            if work.is_none() {
                while wake.tokens == 0 && !self.shutdown.load(Ordering::SeqCst) {
                    self.wake_cond.wait(&mut wake);
                }
                wake.tokens = wake.tokens.saturating_sub(1);
            }
            wake.parked -= 1;
            if work.is_some() {
                return work;
            }
        }
    }
}

/// Error returned when the request ring is full; the request is handed
/// back so the caller can pause the offload job and retry (§3.2).
pub struct SubmitFull(pub CryptoRequest);

impl std::fmt::Debug for SubmitFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SubmitFull(cookie={})", self.0.cookie)
    }
}

/// A crypto instance handle: submit requests, poll responses.
///
/// Cloneable so a worker can share it with a dedicated polling thread
/// (the `QAT+S`/`QAT+A` configurations).
#[derive(Clone)]
pub struct CryptoInstance {
    pair: Arc<RingPair>,
    /// Every endpoint of the device: the doorbell goes to whichever one
    /// currently owns the pair (rebalancing may move it at runtime).
    endpoints: Arc<Vec<Arc<EndpointShared>>>,
    counters: Arc<FwCounters>,
}

impl CryptoInstance {
    /// The endpoint whose engines currently serve this instance (may
    /// change under runtime shard rebalancing).
    pub fn endpoint_index(&self) -> usize {
        self.pair.owner.load(Ordering::Relaxed)
    }

    /// Ring the owning endpoint's doorbell for `requests` just
    /// published on this pair.
    fn ring_doorbell(&self, requests: usize) {
        loop {
            let idx = self.pair.owner.load(Ordering::SeqCst);
            let wake = self.endpoints[idx].wake.lock();
            // `rebalance` moves a pair under both endpoints' wake locks:
            // an owner unchanged under the lock is the endpoint whose
            // engines scan this pair.
            if self.pair.owner.load(Ordering::SeqCst) == idx {
                return self.endpoints[idx].grant_wakes(wake, requests);
            }
        }
    }

    /// Submit a crypto request in non-blocking mode. On success the
    /// request is queued for an engine; completion is delivered through
    /// the callback at poll time.
    #[allow(clippy::result_large_err)] // the Err intentionally returns the request
    pub fn submit(&self, mut request: CryptoRequest) -> Result<(), SubmitFull> {
        if trace::tracing() {
            request.trace.flush_ns = trace::now_ns();
        }
        match self.pair.req.push(request) {
            Ok(()) => {
                self.counters.submitted.fetch_add(1, Ordering::Relaxed);
                self.counters.doorbells.fetch_add(1, Ordering::Relaxed);
                self.ring_doorbell(1);
                Ok(())
            }
            Err(RingFull(back)) => {
                self.counters.ring_full.fetch_add(1, Ordering::Relaxed);
                Err(SubmitFull(back))
            }
        }
    }

    /// Submit a batch of requests under ONE ring-cursor publish and ONE
    /// engine doorbell, amortizing the per-submission overhead across
    /// the batch (the doorbell wakes at most one parked engine per
    /// accepted request). Requests that did not fit (ring full) are
    /// left at the front of `requests`; the number accepted is returned.
    pub fn submit_batch(&self, requests: &mut std::collections::VecDeque<CryptoRequest>) -> usize {
        if requests.is_empty() {
            return 0;
        }
        if trace::tracing() {
            // One clock read per flush; leftovers are re-stamped by the
            // next attempt, so flush_ns reflects the publish that stuck.
            let t = trace::now_ns();
            for req in requests.iter_mut() {
                req.trace.flush_ns = t;
            }
        }
        // push_batch claims as many contiguous slots as are free in one
        // CAS; loop in case concurrent producers fragment the claim.
        let mut accepted = 0;
        while !requests.is_empty() {
            let n = self.pair.req.push_batch(requests);
            if n == 0 {
                break;
            }
            accepted += n;
        }
        if accepted > 0 {
            self.counters
                .submitted
                .fetch_add(accepted as u64, Ordering::Relaxed);
            self.counters.doorbells.fetch_add(1, Ordering::Relaxed);
            self.ring_doorbell(accepted);
        }
        if !requests.is_empty() {
            // Each leftover request was rejected by this flush attempt.
            self.counters
                .ring_full
                .fetch_add(requests.len() as u64, Ordering::Relaxed);
        }
        accepted
    }

    /// Pop and drop up to `max` queued requests without executing them.
    /// Returns the number discarded. Stands in for engine consumption in
    /// benches and tests that run the device with zero engine threads.
    pub fn discard_requests(&self, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.pair.req.pop() {
                Some(_) => n += 1,
                None => break,
            }
        }
        n
    }

    /// Poll the response ring, invoking up to `max` callbacks.
    /// Returns the number of responses retrieved.
    pub fn poll(&self, max: usize) -> usize {
        let mut n = 0;
        // Read the hook Arc once per poll call, and only when tracing.
        let hook = if trace::tracing() {
            self.pair.retrieve_hook.read().clone()
        } else {
            None
        };
        while n < max {
            match self.pair.resp.pop() {
                Some(resp) => {
                    n += 1;
                    self.counters.polled.fetch_add(1, Ordering::Relaxed);
                    if let Some(hook) = &hook {
                        let t = resp.trace;
                        if t.submit_ns > 0 && t.flush_ns >= t.submit_ns {
                            let now = trace::now_ns();
                            hook.on_response(
                                resp.class,
                                t.flush_ns - t.submit_ns,
                                now.saturating_sub(t.flush_ns),
                            );
                        }
                    }
                    (resp.callback)(resp.result);
                }
                None => break,
            }
        }
        n
    }

    /// Install the tracing observer for this instance's response ring
    /// (shared by all clones; replaces any previous hook).
    pub fn set_retrieve_hook(&self, hook: Arc<dyn RetrieveHook>) {
        *self.pair.retrieve_hook.write() = Some(hook);
    }

    /// Register the sleeper to wake whenever an engine lands a response
    /// on this instance's ring (shared by all clones; replaces any
    /// previous one) — the software analogue of the QAT driver's
    /// event-driven polling fd.
    pub fn set_response_waker(&self, waker: Arc<Parker>) {
        self.pair.resp_waker.set(waker);
    }

    /// The device-wide firmware counters this instance reports into.
    pub fn fw_counters(&self) -> &Arc<FwCounters> {
        &self.counters
    }

    /// Drain every available response.
    pub fn poll_all(&self) -> usize {
        let mut total = 0;
        loop {
            let n = self.poll(usize::MAX);
            total += n;
            if n == 0 {
                break;
            }
        }
        total
    }

    /// Number of responses currently waiting (racy; monitoring only).
    pub fn pending_responses(&self) -> usize {
        self.pair.resp.len()
    }

    /// Number of submitted-but-not-yet-consumed requests on the request
    /// ring (racy; monitoring only).
    pub fn queued_requests(&self) -> usize {
        self.pair.req.len()
    }
}

/// A software QAT card: endpoints, engines and firmware counters.
pub struct QatDevice {
    config: QatConfig,
    endpoints: Arc<Vec<Arc<EndpointShared>>>,
    counters: Arc<FwCounters>,
    engine_handles: Vec<std::thread::JoinHandle<()>>,
}

impl QatDevice {
    /// Bring up the device: spawn `endpoints * engines_per_endpoint`
    /// engine threads.
    pub fn new(config: QatConfig) -> Self {
        let counters = Arc::new(FwCounters::default());
        let mut endpoints = Vec::with_capacity(config.endpoints);
        let mut engine_handles = Vec::new();
        for ep_idx in 0..config.endpoints {
            let shared = Arc::new(EndpointShared {
                pairs: RwLock::new(Vec::new()),
                wake: Mutex::new(WakeState::default()),
                wake_cond: Condvar::new(),
                shutdown: AtomicBool::new(false),
                scan_cursor: AtomicUsize::new(0),
            });
            for engine_idx in 0..config.engines_per_endpoint {
                let shared = Arc::clone(&shared);
                let counters = Arc::clone(&counters);
                let mode = config.service_mode.clone();
                let table = config.service_table.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("qat-ep{ep_idx}-eng{engine_idx}"))
                    .spawn(move || engine_loop(shared, counters, mode, table))
                    .expect("spawn engine thread");
                engine_handles.push(handle);
            }
            endpoints.push(shared);
        }
        QatDevice {
            config,
            endpoints: Arc::new(endpoints),
            counters,
            engine_handles,
        }
    }

    /// Bring up a device with the default (DH8970-like) configuration in
    /// real-compute mode.
    pub fn with_defaults() -> Self {
        Self::new(QatConfig::default())
    }

    /// Allocate a crypto instance on the least-loaded endpoint — the one
    /// with the fewest instances already assigned, ties to the lowest
    /// index (the paper distributes Nginx workers' instances "evenly
    /// from the three QAT endpoints"). Unlike a sequential cursor this
    /// stays even when co-tenant workers allocate in arbitrary
    /// interleavings.
    pub fn alloc_instance(&self) -> CryptoInstance {
        let idx = self.least_loaded_endpoint();
        self.alloc_on(idx)
    }

    /// Allocate `n` instances spread over *distinct* endpoints when the
    /// device has that many: each pick is restricted to the endpoints
    /// least used by this batch, and among those takes the least-loaded
    /// one device-wide (so a worker asking for N shards gets N different
    /// ring banks whenever `n <= endpoints`, regardless of what other
    /// workers already allocated).
    pub fn alloc_instances(&self, n: usize) -> Vec<CryptoInstance> {
        let eps = self.endpoints.len();
        let mut picked = vec![0usize; eps];
        (0..n)
            .map(|_| {
                let min_picked = *picked.iter().min().expect("device has endpoints");
                let idx = (0..eps)
                    .filter(|&i| picked[i] == min_picked)
                    .min_by_key(|&i| self.endpoints[i].pairs.read().len())
                    .expect("device has endpoints");
                picked[idx] += 1;
                self.alloc_on(idx)
            })
            .collect()
    }

    /// Endpoint with the fewest assigned instances (lowest index wins
    /// ties).
    fn least_loaded_endpoint(&self) -> usize {
        (0..self.endpoints.len())
            .min_by_key(|&i| self.endpoints[i].pairs.read().len())
            .expect("device has endpoints")
    }

    fn alloc_on(&self, idx: usize) -> CryptoInstance {
        let pair = Arc::new(RingPair {
            req: Ring::new(self.config.ring_capacity),
            resp: Ring::new(self.config.ring_capacity * 2),
            retrieve_hook: RwLock::new(None),
            resp_waker: WakeSlot::new(),
            owner: AtomicUsize::new(idx),
        });
        self.endpoints[idx].pairs.write().push(Arc::clone(&pair));
        CryptoInstance {
            pair,
            endpoints: Arc::clone(&self.endpoints),
            counters: Arc::clone(&self.counters),
        }
    }

    /// Queued (submitted-but-unconsumed) requests per endpoint — the
    /// co-tenant pressure signal rebalancing acts on.
    pub fn endpoint_pressures(&self) -> Vec<u64> {
        self.endpoints
            .iter()
            .map(|ep| {
                ep.pairs
                    .read()
                    .iter()
                    .map(|p| p.req.len() as u64)
                    .sum::<u64>()
            })
            .collect()
    }

    /// Runtime shard rebalancing: when the most-pressured endpoint's
    /// queued-request count exceeds the least-pressured one's by at
    /// least `threshold`, migrate ONE quiescent ring pair (empty request
    /// AND response ring — no inflight ops) from the hot endpoint to the
    /// cold one. Doorbells follow the pair's owner, so submitters need
    /// no coordination. Returns the number of pairs migrated (0 or 1).
    pub fn rebalance(&self, threshold: u64) -> usize {
        let pressures = self.endpoint_pressures();
        if pressures.len() < 2 {
            return 0;
        }
        let hot = (0..pressures.len())
            .max_by_key(|&i| pressures[i])
            .expect("device has endpoints");
        let cold = (0..pressures.len())
            .min_by_key(|&i| pressures[i])
            .expect("device has endpoints");
        if hot == cold || pressures[hot] - pressures[cold] < threshold {
            return 0;
        }
        // Hold both endpoints' wake locks (index order, before the pair
        // lists) across the quiescence check and the move. A doorbell
        // serialises against this section on the owner it read: one
        // that came first published its request before the check below
        // (the pair is then busy, or a hot engine already took it), one
        // that comes after re-reads the owner under the lock and rings
        // the cold endpoint. Either way no explicit notify is needed.
        let (first, second) = if hot < cold { (hot, cold) } else { (cold, hot) };
        let _first_wake = self.endpoints[first].wake.lock();
        let _second_wake = self.endpoints[second].wake.lock();
        let mut first_guard = self.endpoints[first].pairs.write();
        let mut second_guard = self.endpoints[second].pairs.write();
        let (hot_pairs, cold_pairs) = if hot < cold {
            (&mut *first_guard, &mut *second_guard)
        } else {
            (&mut *second_guard, &mut *first_guard)
        };
        let Some(pos) = hot_pairs
            .iter()
            .position(|p| p.req.len() == 0 && p.resp.len() == 0)
        else {
            return 0; // every shard on the hot endpoint has inflight ops
        };
        let pair = hot_pairs.remove(pos);
        pair.owner.store(cold, Ordering::SeqCst);
        cold_pairs.push(pair);
        self.counters.rebalances.fetch_add(1, Ordering::Relaxed);
        1
    }

    /// Engines asleep with no wake-up pending, device-wide (racy;
    /// monitoring and tests).
    pub fn parked_engines(&self) -> usize {
        self.endpoints
            .iter()
            .map(|ep| {
                let wake = ep.wake.lock();
                wake.parked - wake.tokens
            })
            .sum()
    }

    /// Engine wake-ups granted by doorbells since bring-up, device-wide.
    pub fn engine_wakes(&self) -> u64 {
        self.endpoints.iter().map(|ep| ep.wake.lock().wakes).sum()
    }

    /// The firmware counters (`cat /sys/kernel/debug/qat*/fw_counters`).
    pub fn fw_counters(&self) -> &FwCounters {
        &self.counters
    }

    /// Device configuration.
    pub fn config(&self) -> &QatConfig {
        &self.config
    }
}

impl Drop for QatDevice {
    fn drop(&mut self) {
        for ep in self.endpoints.iter() {
            ep.shutdown.store(true, Ordering::SeqCst);
            // Under the lock: an engine is either before its shutdown
            // check (and sees the flag) or already waiting (and hears
            // this).
            let _wake = ep.wake.lock();
            ep.wake_cond.notify_all();
        }
        for handle in self.engine_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The engine thread body: take requests off the endpoint's rings,
/// execute, deliver the response to the originating instance's ring.
fn engine_loop(
    shared: Arc<EndpointShared>,
    counters: Arc<FwCounters>,
    mode: ServiceMode,
    table: crate::config::ServiceTable,
) {
    while let Some((pair, req)) = shared.next_request() {
        if let ServiceMode::Timed { time_scale } = mode {
            let ns = (table.service_ns(&req.op) as f64 * time_scale) as u64;
            if ns > 0 {
                std::thread::sleep(Duration::from_nanos(ns));
            }
        }
        let class = req.op.class();
        // Consume the descriptor: in-place cipher ops transform their
        // carried buffer and return it via the response.
        let result = execute_owned(req.op);
        counters.record_completion(class);
        let mut resp = CryptoResponse {
            cookie: req.cookie,
            class,
            result,
            callback: req.callback,
            trace: req.trace,
        };
        // Response-ring backpressure: hardware stalls until the host
        // drains responses; model with a yield-retry loop.
        loop {
            match pair.resp.push(resp) {
                Ok(()) => break,
                Err(RingFull(back)) => {
                    counters.resp_stalls.fetch_add(1, Ordering::Relaxed);
                    resp = back;
                    std::thread::yield_now();
                }
            }
        }
        pair.resp_waker.wake();
    }
}

/// Convenience: build a request.
pub fn make_request(
    cookie: u64,
    op: crate::request::CryptoOp,
    callback: ResponseCallback,
) -> CryptoRequest {
    let mut t = trace::ReqTrace::default();
    if trace::tracing() {
        t.submit_ns = trace::now_ns();
    }
    CryptoRequest {
        cookie,
        op,
        callback,
        trace: t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QatConfig;
    use crate::request::CryptoOp;
    use qtls_crypto::test_keys::test_rsa_1024;
    use std::sync::mpsc;

    fn small_device() -> QatDevice {
        QatDevice::new(QatConfig::functional_small())
    }

    #[test]
    fn submit_poll_roundtrip() {
        let dev = small_device();
        let inst = dev.alloc_instance();
        let (tx, rx) = mpsc::channel();
        let op = CryptoOp::Prf {
            secret: b"s".to_vec(),
            label: b"l".to_vec(),
            seed: b"x".to_vec(),
            out_len: 32,
        };
        inst.submit(make_request(7, op, Box::new(move |r| tx.send(r).unwrap())))
            .unwrap();
        // Poll until the callback fires.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            inst.poll_all();
            match rx.try_recv() {
                Ok(result) => {
                    assert_eq!(result.unwrap().into_bytes().len(), 32);
                    break;
                }
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::yield_now();
                }
                Err(e) => panic!("timed out: {e}"),
            }
        }
        assert_eq!(dev.fw_counters().total_completed(), 1);
    }

    #[test]
    fn concurrent_requests_one_instance() {
        // The core parallelism claim of §2.3: concurrent requests from
        // ONE instance execute in parallel on multiple engines.
        let dev = small_device();
        let inst = dev.alloc_instance();
        let (tx, rx) = mpsc::channel();
        let n = 24;
        for i in 0..n {
            let tx = tx.clone();
            inst.submit(make_request(
                i,
                CryptoOp::RsaSign {
                    key: std::sync::Arc::new(test_rsa_1024().clone()),
                    msg: format!("msg {i}").into_bytes(),
                },
                Box::new(move |r| tx.send((i, r)).unwrap()),
            ))
            .unwrap();
        }
        drop(tx);
        let mut seen = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while seen < n {
            inst.poll_all();
            while let Ok((i, result)) = rx.try_recv() {
                let sig = result.unwrap().into_bytes();
                test_rsa_1024()
                    .public()
                    .verify_pkcs1_sha256(format!("msg {i}").as_bytes(), &sig)
                    .unwrap();
                seen += 1;
            }
            assert!(std::time::Instant::now() < deadline, "timed out");
            std::thread::yield_now();
        }
        assert_eq!(dev.fw_counters().asym.load(Ordering::Relaxed), n);
    }

    #[test]
    fn ring_full_surfaces_submit_error() {
        // No engines: requests pile up on the ring until it is full.
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 0,
            ring_capacity: 4,
            ..QatConfig::functional_small()
        });
        let inst = dev.alloc_instance();
        let mk = |i| {
            make_request(
                i,
                CryptoOp::Prf {
                    secret: vec![],
                    label: vec![],
                    seed: vec![],
                    out_len: 1,
                },
                Box::new(|_| {}),
            )
        };
        for i in 0..4 {
            inst.submit(mk(i)).unwrap();
        }
        let err = inst.submit(mk(99)).unwrap_err();
        assert_eq!(err.0.cookie, 99);
        assert_eq!(dev.fw_counters().ring_full.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn batch_submit_rings_one_doorbell() {
        // No engines: inspect the rings and counters directly.
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 0,
            ring_capacity: 16,
            ..QatConfig::functional_small()
        });
        let inst = dev.alloc_instance();
        let mk = |i| {
            make_request(
                i,
                CryptoOp::Prf {
                    secret: vec![],
                    label: vec![],
                    seed: vec![],
                    out_len: 1,
                },
                Box::new(|_| {}),
            )
        };
        let mut batch: std::collections::VecDeque<_> = (0..5).map(mk).collect();
        assert_eq!(inst.submit_batch(&mut batch), 5);
        assert!(batch.is_empty());
        let c = dev.fw_counters();
        assert_eq!(c.submitted.load(Ordering::Relaxed), 5);
        assert_eq!(c.doorbells.load(Ordering::Relaxed), 1);
        assert_eq!(inst.queued_requests(), 5);
        // Per-op submits pay one doorbell each.
        inst.submit(mk(10)).unwrap();
        inst.submit(mk(11)).unwrap();
        assert_eq!(c.submitted.load(Ordering::Relaxed), 7);
        assert_eq!(c.doorbells.load(Ordering::Relaxed), 3);
        assert_eq!(inst.discard_requests(usize::MAX), 7);
        assert_eq!(inst.queued_requests(), 0);
    }

    #[test]
    fn batch_submit_partial_on_full_ring() {
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 0,
            ring_capacity: 4,
            ..QatConfig::functional_small()
        });
        let inst = dev.alloc_instance();
        let mk = |i| {
            make_request(
                i,
                CryptoOp::Prf {
                    secret: vec![],
                    label: vec![],
                    seed: vec![],
                    out_len: 1,
                },
                Box::new(|_| {}),
            )
        };
        let mut batch: std::collections::VecDeque<_> = (0..6).map(mk).collect();
        assert_eq!(inst.submit_batch(&mut batch), 4);
        // The two rejects stay queued for the next flush, FIFO intact.
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].cookie, 4);
        let c = dev.fw_counters();
        assert_eq!(c.submitted.load(Ordering::Relaxed), 4);
        assert_eq!(c.ring_full.load(Ordering::Relaxed), 2);
        assert_eq!(c.doorbells.load(Ordering::Relaxed), 1);
        // Draining the ring makes room for the leftovers.
        assert_eq!(inst.discard_requests(usize::MAX), 4);
        assert_eq!(inst.submit_batch(&mut batch), 2);
        assert!(batch.is_empty());
        assert_eq!(c.doorbells.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn batch_submit_completes_through_engines() {
        // End-to-end: a batch flushed with one doorbell is still fully
        // executed by the engine threads and delivered via callbacks.
        let dev = small_device();
        let inst = dev.alloc_instance();
        let (tx, rx) = mpsc::channel();
        let n = 8u64;
        let mut batch = std::collections::VecDeque::new();
        for i in 0..n {
            let tx = tx.clone();
            batch.push_back(make_request(
                i,
                CryptoOp::Prf {
                    secret: b"s".to_vec(),
                    label: b"l".to_vec(),
                    seed: vec![i as u8],
                    out_len: 16,
                },
                Box::new(move |r| tx.send((i, r)).unwrap()),
            ));
        }
        drop(tx);
        assert_eq!(inst.submit_batch(&mut batch), n as usize);
        let mut seen = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while seen < n {
            inst.poll_all();
            while let Ok((i, result)) = rx.try_recv() {
                assert_eq!(
                    result.unwrap().into_bytes(),
                    qtls_crypto::kdf::prf_tls12(b"s", b"l", &[i as u8], 16)
                );
                seen += 1;
            }
            assert!(std::time::Instant::now() < deadline, "timed out");
            std::thread::yield_now();
        }
        assert_eq!(dev.fw_counters().prf.load(Ordering::Relaxed), n);
        assert_eq!(dev.fw_counters().doorbells.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn instances_round_robin_endpoints() {
        let dev = QatDevice::new(QatConfig {
            endpoints: 3,
            engines_per_endpoint: 1,
            ..QatConfig::functional_small()
        });
        let idx: Vec<usize> = (0..6)
            .map(|_| dev.alloc_instance().endpoint_index())
            .collect();
        assert_eq!(idx, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn batch_alloc_spreads_over_distinct_endpoints() {
        let dev = QatDevice::new(QatConfig {
            endpoints: 3,
            engines_per_endpoint: 0,
            ..QatConfig::functional_small()
        });
        // n <= endpoints: all endpoints distinct.
        let batch = dev.alloc_instances(3);
        let mut eps: Vec<usize> = batch.iter().map(|i| i.endpoint_index()).collect();
        eps.sort_unstable();
        assert_eq!(eps, vec![0, 1, 2]);
        // n > endpoints: as even as possible (counts differ by <= 1).
        let batch = dev.alloc_instances(5);
        let mut counts = [0usize; 3];
        for inst in &batch {
            counts[inst.endpoint_index()] += 1;
        }
        assert!(counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1);
    }

    #[test]
    fn alloc_prefers_least_loaded_endpoint() {
        // A co-tenant worker already crowded endpoint 0; the next single
        // allocation must avoid it — the old sequential cursor could
        // land right back on the crowded endpoint.
        let dev = QatDevice::new(QatConfig {
            endpoints: 2,
            engines_per_endpoint: 0,
            ..QatConfig::functional_small()
        });
        let a = dev.alloc_instance();
        assert_eq!(a.endpoint_index(), 0);
        let b = dev.alloc_instance();
        assert_eq!(b.endpoint_index(), 1);
        let c = dev.alloc_instance();
        assert_eq!(c.endpoint_index(), 0);
        // Endpoint 0 now holds 2 instances, endpoint 1 holds 1.
        assert_eq!(dev.alloc_instance().endpoint_index(), 1);
        // Batch allocation stays distinct even with the uneven history.
        let batch = dev.alloc_instances(2);
        let mut eps: Vec<usize> = batch.iter().map(|i| i.endpoint_index()).collect();
        eps.sort_unstable();
        assert_eq!(eps, vec![0, 1]);
    }

    #[test]
    fn rebalance_migrates_only_quiescent_shards() {
        // No engines: queued requests stay queued, so endpoint pressure
        // is fully deterministic.
        let dev = QatDevice::new(QatConfig {
            endpoints: 2,
            engines_per_endpoint: 0,
            ring_capacity: 8,
            ..QatConfig::functional_small()
        });
        let a = dev.alloc_instance(); // endpoint 0
        let b = dev.alloc_instance(); // endpoint 1
        let c = dev.alloc_instance(); // endpoint 0 again (2 vs 1 pairs)
        assert_eq!((a.endpoint_index(), b.endpoint_index()), (0, 1));
        assert_eq!(c.endpoint_index(), 0);
        let mk = |i| {
            make_request(
                i,
                CryptoOp::Prf {
                    secret: vec![],
                    label: vec![],
                    seed: vec![],
                    out_len: 1,
                },
                Box::new(|_| {}),
            )
        };
        for i in 0..4 {
            a.submit(mk(i)).unwrap();
        }
        assert_eq!(dev.endpoint_pressures(), vec![4, 0]);
        // Gap 4 < threshold 5: no migration.
        assert_eq!(dev.rebalance(5), 0);
        // Gap 4 >= threshold 2: the QUIESCENT pair (c) migrates off the
        // hot endpoint; the pair with inflight ops (a) must stay put.
        assert_eq!(dev.rebalance(2), 1);
        assert_eq!(c.endpoint_index(), 1, "quiescent shard migrated");
        assert_eq!(a.endpoint_index(), 0, "busy shard never migrates");
        assert_eq!(a.queued_requests(), 4, "inflight ops untouched");
        assert_eq!(
            dev.fw_counters().rebalances.load(Ordering::Relaxed),
            1,
            "migration is observable"
        );
        // Hot endpoint now holds only the busy pair: nothing quiescent
        // remains to migrate, however wide the gap.
        assert_eq!(dev.rebalance(1), 0);
        assert_eq!(dev.fw_counters().rebalances.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn rebalanced_shard_completes_work_on_its_new_endpoint() {
        // Timed engines hold endpoint 0 busy long enough for the
        // pressure gap to be visible; after migration, a submit through
        // the moved instance must ring endpoint 1's doorbell and
        // complete there (endpoint 1's engine sleeps untimed, so the
        // wrong doorbell is a hang).
        use crate::config::{ServiceMode, ServiceTable};
        let dev = QatDevice::new(QatConfig {
            endpoints: 2,
            engines_per_endpoint: 1,
            ring_capacity: 32,
            service_mode: ServiceMode::Timed { time_scale: 1.0 },
            service_table: ServiceTable {
                prf_ns: 20_000_000, // 20 ms per PRF
                ..ServiceTable::default()
            },
        });
        let a = dev.alloc_instance(); // endpoint 0
        let _b = dev.alloc_instance(); // endpoint 1
        let c = dev.alloc_instance(); // endpoint 0
        let mk = |i| {
            make_request(
                i,
                CryptoOp::Prf {
                    secret: b"s".to_vec(),
                    label: b"l".to_vec(),
                    seed: b"x".to_vec(),
                    out_len: 8,
                },
                Box::new(|_| {}),
            )
        };
        for i in 0..8 {
            a.submit(mk(i)).unwrap();
        }
        // Endpoint 0's lone engine chews one request at a time, so at
        // least 6 stay queued while we rebalance.
        assert_eq!(dev.rebalance(4), 1);
        assert_eq!(c.endpoint_index(), 1);
        let (tx, rx) = mpsc::channel();
        c.submit(make_request(
            99,
            CryptoOp::Prf {
                secret: b"s".to_vec(),
                label: b"l".to_vec(),
                seed: b"y".to_vec(),
                out_len: 16,
            },
            Box::new(move |r| tx.send(r).unwrap()),
        ))
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            c.poll_all();
            if let Ok(result) = rx.try_recv() {
                assert_eq!(
                    result.unwrap().into_bytes(),
                    qtls_crypto::kdf::prf_tls12(b"s", b"l", b"y", 16)
                );
                break;
            }
            assert!(std::time::Instant::now() < deadline, "timed out");
            std::thread::yield_now();
        }
    }

    /// Spin (yielding) until `cond` holds; a hang is a test failure, not
    /// a stuck suite.
    fn await_or_panic(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::yield_now();
        }
    }

    /// Submit one small PRF on `inst` counting its completion on `done`.
    fn counted_prf(cookie: u64, done: &Arc<AtomicUsize>) -> CryptoRequest {
        let done = Arc::clone(done);
        make_request(
            cookie,
            CryptoOp::Prf {
                secret: b"s".to_vec(),
                label: b"l".to_vec(),
                seed: cookie.to_be_bytes().to_vec(),
                out_len: 8,
            },
            Box::new(move |r| {
                r.expect("prf");
                done.fetch_add(1, Ordering::SeqCst);
            }),
        )
    }

    #[test]
    fn lone_engine_never_misses_a_doorbell() {
        // The engine waits untimed, so a doorbell lost between its empty
        // scan and its wait would hang this loop: 20 000 strictly
        // sequential round trips, the engine idle before most of them.
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 1,
            ..QatConfig::functional_small()
        });
        let inst = dev.alloc_instance();
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..20_000usize {
            inst.submit(counted_prf(i as u64, &done)).unwrap();
            await_or_panic("round trip", || {
                inst.poll_all();
                done.load(Ordering::SeqCst) == i + 1
            });
        }
        let c = dev.fw_counters();
        assert_eq!(c.doorbells.load(Ordering::Relaxed), 20_000);
        assert_eq!(c.prf.load(Ordering::Relaxed), 20_000);
        assert!(dev.engine_wakes() <= 20_000, "at most one wake per request");
    }

    #[test]
    fn doorbell_wakes_one_engine_per_request() {
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 4,
            ..QatConfig::functional_small()
        });
        let inst = dev.alloc_instance();
        let done = Arc::new(AtomicUsize::new(0));
        let mut expect = 0usize;
        let settle = |expect: usize| {
            await_or_panic("completions", || {
                inst.poll_all();
                done.load(Ordering::SeqCst) == expect
            });
            await_or_panic("engines re-park", || dev.parked_engines() == 4);
        };
        settle(0);
        // One request, four sleepers: exactly one wakes.
        let before = dev.engine_wakes();
        inst.submit(counted_prf(0, &done)).unwrap();
        expect += 1;
        settle(expect);
        assert_eq!(dev.engine_wakes() - before, 1, "no thundering herd");
        // A batch of 16 under one doorbell: every sleeper, once.
        let before = dev.engine_wakes();
        let mut batch: std::collections::VecDeque<_> =
            (0..16).map(|i| counted_prf(i, &done)).collect();
        assert_eq!(inst.submit_batch(&mut batch), 16);
        expect += 16;
        settle(expect);
        assert_eq!(dev.engine_wakes() - before, 4, "min(requests, parked)");
        // Interleave batches and single submits without settling in
        // between: engines park and wake at every possible point.
        let doorbells = dev.fw_counters().doorbells.load(Ordering::Relaxed);
        for round in 0..300u64 {
            let mut batch: std::collections::VecDeque<_> = (0..16)
                .map(|i| counted_prf(round * 32 + i, &done))
                .collect();
            while !batch.is_empty() {
                inst.submit_batch(&mut batch);
                inst.poll_all();
            }
            let mut single = counted_prf(round * 32 + 16, &done);
            while let Err(SubmitFull(back)) = inst.submit(single) {
                single = back;
                inst.poll_all();
            }
            expect += 17;
            if round % 3 == 0 {
                settle(expect);
            }
        }
        settle(expect);
        let c = dev.fw_counters();
        assert_eq!(c.prf.load(Ordering::Relaxed), expect as u64);
        assert!(
            c.doorbells.load(Ordering::Relaxed) - doorbells >= 600,
            "one doorbell per submit call, batched or not"
        );
    }

    #[test]
    fn rebalance_racing_a_submit_never_strands_the_request() {
        // A submit reads the pair's owner, then rings that endpoint; a
        // migration in between would leave the request on a ring no
        // woken engine scans. Line the two up many times over.
        use crate::config::{ServiceMode, ServiceTable};
        for round in 0..100u64 {
            let dev = QatDevice::new(QatConfig {
                endpoints: 2,
                engines_per_endpoint: 1,
                ring_capacity: 32,
                service_mode: ServiceMode::Timed { time_scale: 1.0 },
                service_table: ServiceTable {
                    prf_ns: 2_000_000, // keeps endpoint 0 pressured
                    ecc_p256_ns: 0,
                    ..ServiceTable::default()
                },
            });
            let a = dev.alloc_instance(); // endpoint 0
            let _b = dev.alloc_instance(); // endpoint 1
            let c = dev.alloc_instance(); // endpoint 0, quiescent
            let slow = Arc::new(AtomicUsize::new(0));
            for i in 0..6 {
                a.submit(counted_prf(i, &slow)).unwrap();
            }
            await_or_panic("endpoint 1 idle", || dev.parked_engines() == 1);
            let done = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&done);
            let request = make_request(
                99,
                CryptoOp::EcKeygen {
                    curve: qtls_crypto::ecc::NamedCurve::P256,
                    seed: round,
                },
                Box::new(move |_| flag.store(true, Ordering::SeqCst)),
            );
            let line_up = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    line_up.wait();
                    dev.rebalance(2);
                });
                line_up.wait();
                c.submit(request).unwrap();
            });
            await_or_panic("request on the migrated pair", || {
                c.poll_all();
                done.load(Ordering::SeqCst)
            });
        }
    }

    #[test]
    fn drop_joins_parked_engines() {
        // Shutdown is one of the two things that notify: every engine of
        // the full 3 x 12 shape is asleep, untimed, when the device goes.
        let dev = QatDevice::with_defaults();
        await_or_panic("all engines parked", || dev.parked_engines() == 36);
        assert_eq!(dev.engine_wakes(), 0, "an idle device wakes nobody");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            drop(dev);
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("drop hung on a parked engine");
    }

    #[test]
    fn response_landing_wakes_the_registered_parker() {
        let dev = small_device();
        let inst = dev.alloc_instance();
        let parker = Arc::new(Parker::new());
        inst.set_response_waker(Arc::clone(&parker));
        let done = Arc::new(AtomicUsize::new(0));
        inst.submit(counted_prf(1, &done)).unwrap();
        // No polling until the wake arrives: an hour-long park that
        // returns is the response announcing itself.
        let t0 = std::time::Instant::now();
        while inst.pending_responses() == 0 {
            parker.park_timeout(Duration::from_secs(3600));
            assert!(t0.elapsed() < Duration::from_secs(60), "woken by timeout");
        }
        assert_eq!(inst.poll_all(), 1);
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn timed_mode_delays_but_computes() {
        // Timed mode sleeps the calibrated service time (scaled) before
        // executing — the result must still be genuine.
        use crate::config::{ServiceMode, ServiceTable};
        let table = ServiceTable {
            prf_ns: 2_000_000, // 2 ms, scaled to 1 ms below
            ..ServiceTable::default()
        };
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 1,
            ring_capacity: 8,
            service_mode: ServiceMode::Timed { time_scale: 0.5 },
            service_table: table,
        });
        let inst = dev.alloc_instance();
        let (tx, rx) = mpsc::channel();
        let t0 = std::time::Instant::now();
        inst.submit(make_request(
            1,
            CryptoOp::Prf {
                secret: b"s".to_vec(),
                label: b"l".to_vec(),
                seed: b"x".to_vec(),
                out_len: 32,
            },
            Box::new(move |r| tx.send(r).unwrap()),
        ))
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let result = loop {
            inst.poll_all();
            if let Ok(r) = rx.try_recv() {
                break r;
            }
            assert!(std::time::Instant::now() < deadline);
            std::thread::yield_now();
        };
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_micros(900),
            "timed mode must delay ~1ms, took {elapsed:?}"
        );
        // ...and the PRF output is real.
        assert_eq!(
            result.unwrap().into_bytes(),
            qtls_crypto::kdf::prf_tls12(b"s", b"l", b"x", 32)
        );
    }

    #[test]
    fn tracing_records_device_phases() {
        use std::sync::atomic::AtomicU64;
        struct Probe {
            responses: AtomicU64,
            pre_ns: AtomicU64,
            retrieve_ns: AtomicU64,
        }
        impl crate::trace::RetrieveHook for Probe {
            fn on_response(&self, class: crate::request::OpClass, pre: u64, ret: u64) {
                assert_eq!(class, crate::request::OpClass::Prf);
                self.responses.fetch_add(1, Ordering::Relaxed);
                self.pre_ns.fetch_add(pre, Ordering::Relaxed);
                self.retrieve_ns.fetch_add(ret, Ordering::Relaxed);
            }
        }
        let dev = small_device();
        let inst = dev.alloc_instance();
        let probe = Arc::new(Probe {
            responses: AtomicU64::new(0),
            pre_ns: AtomicU64::new(0),
            retrieve_ns: AtomicU64::new(0),
        });
        inst.set_retrieve_hook(probe.clone());
        trace::set_tracing(true);
        let (tx, rx) = mpsc::channel();
        inst.submit(make_request(
            1,
            CryptoOp::Prf {
                secret: b"s".to_vec(),
                label: b"l".to_vec(),
                seed: b"x".to_vec(),
                out_len: 16,
            },
            Box::new(move |r| tx.send(r).unwrap()),
        ))
        .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while rx.try_recv().is_err() {
            inst.poll_all();
            assert!(std::time::Instant::now() < deadline, "timed out");
            std::thread::yield_now();
        }
        trace::set_tracing(false);
        assert_eq!(probe.responses.load(Ordering::Relaxed), 1);
        // submit -> flush is stamped with two distinct clock reads, and
        // flush -> retrieval spans the engine's real PRF execution.
        assert!(probe.retrieve_ns.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn clean_shutdown_with_pending_work() {
        let dev = small_device();
        let inst = dev.alloc_instance();
        for i in 0..8 {
            let _ = inst.submit(make_request(
                i,
                CryptoOp::Prf {
                    secret: vec![0; 16],
                    label: b"l".to_vec(),
                    seed: vec![0; 16],
                    out_len: 64,
                },
                Box::new(|_| {}),
            ));
        }
        drop(dev); // must not hang or panic
    }
}
