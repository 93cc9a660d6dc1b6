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
//! by count, not by broadcast: a doorbell grants one wake-up per *run*
//! its requests make — the requests one engine takes at once (up to
//! [`LANES`] records of one batch class, or one `SOLO` request) — to at
//! most as many engines as are parked, and none when every engine is
//! busy (a busy engine re-scans the rings when it finishes). An engine
//! registers as parked and re-scans *under the wake lock* before it
//! waits, and a doorbell takes the same lock after the ring publish, so
//! either the engine's re-scan sees the request or the doorbell sees the
//! engine — no timed rescan is needed to paper over a lost wake-up. Only
//! a doorbell and device shutdown ever notify. A completed response
//! wakes the instance's registered [`Parker`], if any — the model of the
//! QAT driver's event-driven polling fd. Each costs one futex wake.

use crate::config::{QatConfig, ServiceMode};
use crate::counters::FwCounters;
use crate::request::{execute_run, CryptoRequest, CryptoResponse, OpClass, ResponseCallback};
use crate::ring::{Ring, RingFull, SOLO};
use crate::trace::{self, RetrieveHook};
use qtls_crypto::cbc_hmac::LANES;
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
    /// Most requests of one batch class an engine takes at once.
    run_width: usize,
}

impl EndpointShared {
    /// Grant one wake-up per published run, to as many parked engines as
    /// have none pending. Called with the requests already on a ring.
    fn grant_wakes(&self, mut wake: MutexGuard<'_, WakeState>, runs: usize) {
        let grant = runs.min(wake.parked - wake.tokens);
        wake.tokens += grant;
        wake.wakes += grant as u64;
        // Notify unlocked so a woken engine does not immediately block
        // on the lock; the token it needs is already in place.
        drop(wake);
        for _ in 0..grant {
            self.wake_cond.notify_one();
        }
    }

    /// Pop the next run of requests off any of this endpoint's rings
    /// into `run` (at most `run_width`, of one batch class: see
    /// [`batch_class`]), rotating the scan start for fairness across
    /// instances; the ring pair they came from, or `None` with `run`
    /// untouched when every ring is empty.
    fn scan(&self, run: &mut Vec<CryptoRequest>) -> Option<Arc<RingPair>> {
        let pairs = self.pairs.read();
        if pairs.is_empty() {
            return None;
        }
        let start = self.scan_cursor.fetch_add(1, Ordering::Relaxed) % pairs.len();
        (0..pairs.len()).find_map(|i| {
            let pair = &pairs[(start + i) % pairs.len()];
            (pair.req.pop_batch(self.run_width, run) > 0).then(|| Arc::clone(pair))
        })
    }

    /// The engine's idle path: the next run of requests (see
    /// [`Self::scan`]), sleeping untimed while there is none. `None`
    /// means the device is shutting down. A wake-up after which the
    /// engine finds every ring empty — the run it was woken for taken by
    /// a sibling that finished its own first — is counted in
    /// `empty_wakes` before it sleeps again.
    fn next_request(
        &self,
        run: &mut Vec<CryptoRequest>,
        counters: &FwCounters,
    ) -> Option<Arc<RingPair>> {
        let mut woken = false;
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(pair) = self.scan(run) {
                return Some(pair);
            }
            let mut wake = self.wake.lock();
            wake.parked += 1;
            // Re-scan now that doorbells can see this engine: one rung
            // since the empty scan above found nobody to wake.
            let work = self.scan(run);
            if work.is_none() {
                if woken {
                    counters.empty_wakes.fetch_add(1, Ordering::Relaxed);
                }
                while wake.tokens == 0 && !self.shutdown.load(Ordering::SeqCst) {
                    self.wake_cond.wait(&mut wake);
                }
                wake.tokens = wake.tokens.saturating_sub(1);
                woken = true;
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
    /// The endpoint whose engines serve this pair, for its lifetime.
    endpoint: Arc<EndpointShared>,
    /// That endpoint's index on the device.
    endpoint_index: usize,
    counters: Arc<FwCounters>,
}

impl CryptoInstance {
    /// The endpoint whose engines serve this instance.
    pub fn endpoint_index(&self) -> usize {
        self.endpoint_index
    }

    /// Ring the endpoint's doorbell for `runs` runs of requests just
    /// published on this pair.
    fn ring_doorbell(&self, runs: usize) {
        self.endpoint.grant_wakes(self.endpoint.wake.lock(), runs);
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
    /// the batch. The doorbell wakes at most one parked engine per run
    /// the accepted requests make: 16 records wake one engine,
    /// which takes them all, and 3 RSA signs wake three. Requests that
    /// did not fit (ring full) are left at the front of `requests`; the
    /// number accepted is returned.
    pub fn submit_batch(&self, requests: &mut std::collections::VecDeque<CryptoRequest>) -> usize {
        if requests.is_empty() {
            return 0;
        }
        let width = self.endpoint.run_width;
        let batch_runs = runs(requests.iter(), width);
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
            // A full ring took a prefix: the unsent tail's runs are not
            // published, and the cut may have split one run in two.
            let published = if requests.is_empty() {
                batch_runs
            } else {
                (batch_runs.saturating_sub(runs(requests.iter(), width)) + 1).min(accepted)
            };
            self.ring_doorbell(published);
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

    /// Number of responses a poll could retrieve now: the published run
    /// at the head of the response ring (racy under other consumers).
    /// An engine's response is counted once it can be popped, not when
    /// its slot is claimed, so a wait on this count never ends early.
    pub fn pending_responses(&self) -> usize {
        self.pair.resp.len()
    }

    /// Number of submitted requests an engine could take now: the
    /// published run at the head of the request ring (racy; monitoring
    /// and tests).
    pub fn queued_requests(&self) -> usize {
        self.pair.req.len()
    }
}

/// A software QAT card: endpoints, engines and firmware counters.
pub struct QatDevice {
    config: QatConfig,
    endpoints: Vec<Arc<EndpointShared>>,
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
        // A card has at least one endpoint, so every allocation below
        // has one to land on.
        for ep_idx in 0..config.endpoints.max(1) {
            let shared = Arc::new(EndpointShared {
                pairs: RwLock::new(Vec::new()),
                wake: Mutex::new(WakeState::default()),
                wake_cond: Condvar::new(),
                shutdown: AtomicBool::new(false),
                scan_cursor: AtomicUsize::new(0),
                run_width: run_width(&config.service_mode),
            });
            for engine_idx in 0..config.engines_per_endpoint {
                let shared = Arc::clone(&shared);
                let counters = Arc::clone(&counters);
                let mode = config.service_mode.clone();
                let table = config.service_table.clone();
                // An engine the OS gives no thread is left out: the
                // endpoint serves with the engines it has, and
                // `engine_threads` says how many that is.
                if let Ok(handle) = std::thread::Builder::new()
                    .name(format!("qat-ep{ep_idx}-eng{engine_idx}"))
                    .spawn(move || engine_loop(shared, counters, mode, table))
                {
                    engine_handles.push(handle);
                }
            }
            endpoints.push(shared);
        }
        QatDevice {
            config,
            endpoints,
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
                // `new` brings up at least one endpoint, so neither
                // fallback below is ever taken.
                let min_picked = picked.iter().min().copied().unwrap_or(0);
                let idx = (0..eps)
                    .filter(|&i| picked[i] == min_picked)
                    .min_by_key(|&i| self.endpoints[i].pairs.read().len())
                    .unwrap_or(0);
                picked[idx] += 1;
                self.alloc_on(idx)
            })
            .collect()
    }

    /// Endpoint with the fewest assigned instances (lowest index wins
    /// ties).
    fn least_loaded_endpoint(&self) -> usize {
        // Endpoint 0 exists: `new` brings up at least one.
        (0..self.endpoints.len())
            .min_by_key(|&i| self.endpoints[i].pairs.read().len())
            .unwrap_or(0)
    }

    fn alloc_on(&self, idx: usize) -> CryptoInstance {
        let pair = Arc::new(RingPair {
            req: Ring::with_classes(self.config.ring_capacity, batch_class),
            resp: Ring::new(self.config.ring_capacity * 2),
            retrieve_hook: RwLock::new(None),
            resp_waker: WakeSlot::new(),
        });
        self.endpoints[idx].pairs.write().push(Arc::clone(&pair));
        CryptoInstance {
            pair,
            endpoint: Arc::clone(&self.endpoints[idx]),
            endpoint_index: idx,
            counters: Arc::clone(&self.counters),
        }
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

    /// Engine threads running, device-wide: `endpoints ×
    /// engines_per_endpoint` unless the OS refused some at bring-up.
    pub fn engine_threads(&self) -> usize {
        self.engine_handles.len()
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

/// A request's batch class on its ring: record crypto travels in runs
/// (the multi-buffer passes of `cbc_hmac`), everything else alone — an
/// RSA sign held behind another would only wait, and a sibling engine
/// is free to take it.
fn batch_class(req: &CryptoRequest) -> u8 {
    match req.op.class() {
        OpClass::Cipher => 1,
        OpClass::Asym | OpClass::Prf => SOLO,
    }
}

/// Most requests one engine takes at once: a real-compute engine seals
/// or opens up to [`LANES`] records in one multi-buffer pass; a timed
/// engine models a card whose engines work in parallel, so it takes one
/// request at a time.
fn run_width(mode: &ServiceMode) -> usize {
    match mode {
        ServiceMode::RealCompute => LANES,
        ServiceMode::Timed { .. } => 1,
    }
}

/// How many runs engines take `requests` in, in order — each a stretch
/// of at most `width` consecutive requests of one batched class, or one
/// `SOLO` request (the runs [`Ring::pop_batch`] claims) — and so how
/// many wake-ups their publish earns.
fn runs<'a>(requests: impl Iterator<Item = &'a CryptoRequest>, width: usize) -> usize {
    let mut runs = 0;
    let mut open: Option<(u8, usize)> = None;
    for class in requests.map(batch_class) {
        match &mut open {
            Some((c, len)) if *c == class && class != SOLO && *len < width => *len += 1,
            _ => {
                runs += 1;
                open = Some((class, 1));
            }
        }
    }
    runs
}

/// The engine thread body: take runs of requests off the endpoint's
/// rings, execute, deliver each response to the originating instance's
/// ring. An engine takes up to [`run_width`] ready requests at once, so
/// a doorbell's records are sealed or opened in one multi-buffer pass; a
/// lone request is a run of one and never waits for company.
fn engine_loop(
    shared: Arc<EndpointShared>,
    counters: Arc<FwCounters>,
    mode: ServiceMode,
    table: crate::config::ServiceTable,
) {
    let mut run = Vec::with_capacity(shared.run_width);
    while let Some(pair) = shared.next_request(&mut run, &counters) {
        if let ServiceMode::Timed { time_scale } = mode {
            for req in &run {
                let ns = (table.service_ns(&req.op) as f64 * time_scale) as u64;
                if ns > 0 {
                    std::thread::sleep(Duration::from_nanos(ns));
                }
            }
        }
        // In-place cipher ops transform their carried buffer and return
        // it via the response.
        execute_run(&mut run, |mut resp| {
            counters.record_completion(resp.class);
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
        });
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

    /// A doorbell's 16 records are one run: they wake one engine, which
    /// takes them all, and none of the other three — each request still
    /// gets its own response, sealed as it would be alone. An RSA sign
    /// never joins a run.
    #[test]
    fn a_doorbells_records_are_one_run_on_one_engine() {
        use qtls_crypto::CbcHmacSha1;
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 4,
            ..QatConfig::functional_small()
        });
        let inst = dev.alloc_instance();
        let cipher = Arc::new(CbcHmacSha1::new(&[1; 16], &[2; 20]));
        let got = Arc::new(qtls_sync::Mutex::new(Vec::new()));
        let settle = |n: usize| {
            await_or_panic("responses", || {
                inst.poll_all();
                got.lock().len() == n
            });
            await_or_panic("engines re-park", || dev.parked_engines() == 4);
        };
        settle(0);
        let c = dev.fw_counters();
        let (wakes, empty) = (dev.engine_wakes(), c.empty_wakes.load(Ordering::Relaxed));
        let mut batch: std::collections::VecDeque<_> = (0..16u8)
            .map(|i| {
                let got = Arc::clone(&got);
                make_request(
                    i as u64,
                    CryptoOp::CipherSealInPlace {
                        cipher: Arc::clone(&cipher),
                        iv: [i; 16],
                        buf: vec![i; 4096],
                        aad: [i; 11],
                    },
                    Box::new(move |r| got.lock().push((i, r.unwrap().into_bytes()))),
                )
            })
            .collect();
        assert_eq!(inst.submit_batch(&mut batch), 16);
        settle(16);
        assert_eq!(dev.engine_wakes() - wakes, 1, "one run, one wake-up");
        assert_eq!(
            c.empty_wakes.load(Ordering::Relaxed) - empty,
            0,
            "the engine woken took the run"
        );
        for (i, sealed) in got.lock().iter() {
            let want = cipher.seal(&[*i; 16], &[*i; 4096], &[*i; 11]).unwrap();
            assert!(*sealed == want, "record {i}");
        }
        assert_eq!(batch_class(&counted_prf(0, &Arc::default())), SOLO);
        let key = Arc::new(test_rsa_1024().clone());
        let sign = make_request(0, CryptoOp::RsaSign { key, msg: vec![] }, Box::new(|_| {}));
        assert_eq!(batch_class(&sign), SOLO);
    }

    /// A doorbell wakes one engine per run: 33 records are three runs
    /// (16 + 16 + 1) and wake three of four sleepers, each of which finds
    /// its run; three `SOLO` requests are three runs. The response ring
    /// is filled to 8 free slots first, so no engine can finish a
    /// 16-record run — and go back for a sibling's — before every woken
    /// engine has scanned.
    #[test]
    fn doorbell_wakes_one_engine_per_run() {
        use qtls_crypto::CbcHmacSha1;
        let dev = QatDevice::new(QatConfig {
            endpoints: 1,
            engines_per_endpoint: 4,
            ring_capacity: 64,
            ..QatConfig::functional_small()
        });
        let inst = dev.alloc_instance();
        let done = Arc::new(AtomicUsize::new(0));
        let all_parked = || await_or_panic("engines park", || dev.parked_engines() == 4);
        all_parked();
        // 120 answered PRFs left unpolled on the 128-slot response ring.
        for round in 0..2u64 {
            let mut fill: std::collections::VecDeque<_> = (0..60)
                .map(|i| counted_prf(round * 60 + i, &done))
                .collect();
            assert_eq!(inst.submit_batch(&mut fill), 60);
            await_or_panic("fill taken", || inst.queued_requests() == 0);
        }
        await_or_panic("fill answered", || inst.pending_responses() == 120);
        all_parked();
        let c = dev.fw_counters();
        let (wakes, empty) = (dev.engine_wakes(), c.empty_wakes.load(Ordering::Relaxed));
        let cipher = Arc::new(CbcHmacSha1::new(&[1; 16], &[2; 20]));
        let mut records: std::collections::VecDeque<_> = (0..33u8)
            .map(|i| {
                let done = Arc::clone(&done);
                make_request(
                    1000 + u64::from(i),
                    CryptoOp::CipherSealInPlace {
                        cipher: Arc::clone(&cipher),
                        iv: [i; 16],
                        buf: vec![i; 1024],
                        aad: [i; 11],
                    },
                    Box::new(move |r| {
                        r.expect("seal");
                        done.fetch_add(1, Ordering::SeqCst);
                    }),
                )
            })
            .collect();
        assert_eq!(inst.submit_batch(&mut records), 33);
        // Every run claimed, two of them stalled on the response ring.
        await_or_panic("runs taken", || inst.queued_requests() == 0);
        await_or_panic("everything answered", || {
            inst.poll_all();
            done.load(Ordering::SeqCst) == 153
        });
        all_parked();
        assert_eq!(dev.engine_wakes() - wakes, 3, "three runs, three wake-ups");
        assert_eq!(
            c.empty_wakes.load(Ordering::Relaxed) - empty,
            0,
            "every woken engine found its run"
        );
        let wakes = dev.engine_wakes();
        let mut solo: std::collections::VecDeque<_> =
            (0..3).map(|i| counted_prf(2000 + i, &done)).collect();
        assert_eq!(inst.submit_batch(&mut solo), 3);
        await_or_panic("solo answered", || {
            inst.poll_all();
            done.load(Ordering::SeqCst) == 156
        });
        all_parked();
        assert_eq!(dev.engine_wakes() - wakes, 3, "a SOLO request is a run");
    }

    /// The wake-up count of a publish is the number of runs engines take
    /// it in: a stretch of one batched class in runs of `width`, a class
    /// change or a `SOLO` request starting a new run; a timed device
    /// (width 1) wakes one engine per request.
    #[test]
    fn runs_follow_the_engines_batch_rule() {
        use qtls_crypto::CbcHmacSha1;
        let cipher = Arc::new(CbcHmacSha1::new(&[1; 16], &[2; 20]));
        let seal = || {
            make_request(
                0,
                CryptoOp::CipherSealInPlace {
                    cipher: Arc::clone(&cipher),
                    iv: [0; 16],
                    buf: Vec::new(),
                    aad: [0; 11],
                },
                Box::new(|_| {}),
            )
        };
        let prf = || counted_prf(0, &Arc::default());
        let count = |pattern: &str, width: usize| {
            let reqs: Vec<_> = pattern
                .bytes()
                .map(|b| if b == b'c' { seal() } else { prf() })
                .collect();
            runs(reqs.iter(), width)
        };
        assert_eq!(count("", LANES), 0);
        assert_eq!(count(&"c".repeat(16), LANES), 1);
        assert_eq!(count(&"c".repeat(17), LANES), 2);
        assert_eq!(count(&"c".repeat(33), LANES), 3);
        assert_eq!(count("ppp", LANES), 3);
        assert_eq!(count("ccpcc", LANES), 3);
        assert_eq!(count(&"c".repeat(16), 1), 16);
    }

    #[test]
    fn drop_joins_parked_engines() {
        // Shutdown is one of the two things that notify: every engine of
        // the full 3 x 12 shape is asleep, untimed, when the device goes.
        let dev = QatDevice::with_defaults();
        assert_eq!(dev.engine_threads(), 36);
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
