//! The discrete-event testbed simulator.
//!
//! Reproduces the paper's evaluation platform in virtual time: N worker
//! cores running the event loop, a QAT card with parallel engines behind
//! request/response rings, closed-loop client generators over an RTT/
//! bandwidth network model, and the five offload configurations with
//! their polling and notification schemes. All results of Figs. 7–12 are
//! emergent from the per-operation costs in [`crate::cost`].

use crate::cost::CostModel;
use crate::workload::{handshake_flights, request_flight, Seg, SuiteKind};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Virtual time in nanoseconds.
pub type Time = u64;

/// One trace sample: `(time, busy engines, busy workers, queued tasks,
/// ready responses)`.
pub type TraceSample = (Time, usize, usize, usize, usize);

/// Simulated offload configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimProfile {
    /// Software baseline.
    Sw,
    /// Straight offload + timer polling thread.
    QatS {
        /// Poller interval (paper default 10 µs).
        poll_interval_ns: u64,
    },
    /// Async framework + timer polling thread + FD notification.
    QatA {
        /// Poller interval.
        poll_interval_ns: u64,
    },
    /// Async framework + heuristic polling + FD notification.
    QatAH,
    /// Full QTLS: heuristic polling + kernel-bypass notification.
    Qtls,
}

impl SimProfile {
    /// Figure label.
    pub fn label(&self) -> String {
        match self {
            SimProfile::Sw => "SW".into(),
            SimProfile::QatS { .. } => "QAT+S".into(),
            SimProfile::QatA { poll_interval_ns } if *poll_interval_ns == 10_000 => "QAT+A".into(),
            SimProfile::QatA { poll_interval_ns } => {
                format!("QAT+A({}us)", poll_interval_ns / 1000)
            }
            SimProfile::QatAH => "QAT+AH".into(),
            SimProfile::Qtls => "QTLS".into(),
        }
    }

    /// The paper's five configurations with default parameters.
    pub const FIVE: [SimProfile; 5] = [
        SimProfile::Sw,
        SimProfile::QatS {
            poll_interval_ns: 10_000,
        },
        SimProfile::QatA {
            poll_interval_ns: 10_000,
        },
        SimProfile::QatAH,
        SimProfile::Qtls,
    ];

    fn uses_qat(&self) -> bool {
        !matches!(self, SimProfile::Sw)
    }

    fn uses_async(&self) -> bool {
        matches!(
            self,
            SimProfile::QatA { .. } | SimProfile::QatAH | SimProfile::Qtls
        )
    }

    fn timer_interval(&self) -> Option<u64> {
        match self {
            SimProfile::QatS { poll_interval_ns } | SimProfile::QatA { poll_interval_ns } => {
                Some(*poll_interval_ns)
            }
            _ => None,
        }
    }

    fn fd_notification(&self) -> bool {
        matches!(self, SimProfile::QatA { .. } | SimProfile::QatAH)
    }
}

/// HTTP request load after the handshake (ab-style).
#[derive(Clone, Copy, Debug)]
pub struct RequestLoad {
    /// Object size in bytes.
    pub size: u64,
    /// Requests per connection (keep-alive).
    pub requests_per_conn: u32,
}

/// How the master dispatcher picks a worker for a new connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimDispatch {
    /// Blind rotation — the seed cluster's policy.
    RoundRobin,
    /// Exact argmin over the workers' load gauges (queued tasks +
    /// inflight handshakes + staged offload depth).
    LeastLoaded,
}

/// Queue discipline inside a worker pool (the carvalhof design axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimDiscipline {
    /// Decentralized FCFS: each worker owns its queue; work stays where
    /// it was dispatched.
    DFcfs,
    /// Centralized FCFS: one shared queue per phase pool; an idle worker
    /// pops the oldest task, paying a per-pop centralization cost for
    /// the shared-structure synchronization.
    CFcfs,
    /// dFCFS plus work stealing: an idle worker with an empty queue
    /// takes half of the most-loaded sibling's stealable backlog.
    DFcfsSteal,
}

/// Simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Offload configuration.
    pub profile: SimProfile,
    /// Number of worker (HT) cores.
    pub workers: usize,
    /// Number of closed-loop clients.
    pub clients: usize,
    /// Suite / protocol version.
    pub suite: SuiteKind,
    /// Abbreviated handshakes per full handshake per client
    /// (0 = all full; `u32::MAX` = all abbreviated).
    pub resumes_per_full: u32,
    /// Whether resumption state is shared across workers (the
    /// cluster-shared session/PSK store). When false each worker owns a
    /// private cache, so a resumption attempt dispatched round-robin to
    /// a worker other than the minting one silently falls back to a
    /// full handshake (a resume miss) — the pre-store pathology.
    pub shared_resumption: bool,
    /// Optional request workload.
    pub request: Option<RequestLoad>,
    /// Warmup (excluded from measurement).
    pub warmup_ns: Time,
    /// Measurement window.
    pub measure_ns: Time,
    /// Cost model.
    pub cost: CostModel,
    /// Engines on the QAT card.
    pub qat_engines: usize,
    /// Heuristic efficiency threshold with asymmetric requests inflight
    /// (§4.3 default 48).
    pub heuristic_asym_threshold: u64,
    /// Heuristic efficiency threshold without asymmetric requests
    /// (§4.3 default 24).
    pub heuristic_sym_threshold: u64,
    /// Submission flush policy for async profiles: how the doorbell is
    /// amortized and what staging delay a held request pays (a model
    /// only: the functional pipeline flushes eagerly, DESIGN.md §9).
    pub submit_flush: crate::cost::SimFlushPolicy,
    /// Starvation cap for held submissions: latency a request stranded
    /// in a batch that cannot fill pays before the forced flush.
    pub submit_hold_cap_ns: u64,
    /// Offload shards per worker (the `qat_worker_shards` analogue):
    /// the worker's inflight is split across this many submit queues,
    /// so each flush batches only its shard's share — but each shard
    /// also owns its own ring pair, lifting the single-ring cap.
    pub worker_shards: u64,
    /// Request-ring capacity of one shard. `u64::MAX` (the default)
    /// models an unconstrained ring; a finite value makes a worker whose
    /// per-shard inflight exceeds it pay deferral retries, which is what
    /// sharding removes at saturation.
    pub shard_ring_capacity: u64,
    /// Handshake-flood adversary: extra closed-loop clients that hammer
    /// full ClientHellos (no resumption, no requests) and never honor a
    /// retry-token challenge — spoofed sources that cannot complete the
    /// round trip (0 = no flood).
    pub flood_clients: usize,
    /// QFAM admission control: workers over the inflight-handshake
    /// watermark answer token-less new ClientHellos with a cheap
    /// stateless challenge instead of spending handshake work, and
    /// prioritize established connections in their run queues.
    pub admission_enabled: bool,
    /// Inflight handshakes per worker at which overload mode engages.
    pub admission_watermark: u32,
    /// Dispatch policy for new connections.
    pub dispatch: SimDispatch,
    /// Queue discipline within each worker pool.
    pub discipline: SimDiscipline,
    /// Phase-partitioned cores: `Some((tls, app))` dedicates the first
    /// `tls` workers to handshake/offload work and the remaining `app`
    /// workers to established-connection record I/O (the carvalhof
    /// phases_table shape). `None` keeps the unified pool.
    pub phase_split: Option<(usize, usize)>,
    /// Per-pop cost of the centralized queue (cache-line bouncing and
    /// CAS retries on the shared head under cFCFS).
    pub central_queue_op_ns: u64,
    /// Skewed service-time mix: the first N clients carry the request
    /// workload, the rest are handshake-only (0 = `request` applies to
    /// every client — the uniform default).
    pub heavy_clients: usize,
}

impl SimConfig {
    /// A handshake-benchmark config (s_time style).
    pub fn handshake(
        profile: SimProfile,
        workers: usize,
        clients: usize,
        suite: SuiteKind,
    ) -> Self {
        SimConfig {
            profile,
            workers,
            clients,
            suite,
            resumes_per_full: 0,
            shared_resumption: true,
            request: None,
            // Closed-loop equilibrium with thousands of clients takes
            // `clients / CPS` seconds to prime; warm up generously.
            warmup_ns: 2_000_000_000,  // 2 s
            measure_ns: 1_500_000_000, // 1.5 s
            cost: CostModel::default(),
            qat_engines: crate::cost::QAT_ENGINES,
            heuristic_asym_threshold: 48,
            heuristic_sym_threshold: 24,
            submit_flush: crate::cost::SimFlushPolicy::default(),
            submit_hold_cap_ns: 50_000,
            worker_shards: 1,
            shard_ring_capacity: u64::MAX,
            flood_clients: 0,
            admission_enabled: false,
            admission_watermark: 64,
            dispatch: SimDispatch::RoundRobin,
            discipline: SimDiscipline::DFcfs,
            phase_split: None,
            central_queue_op_ns: 800,
            heavy_clients: 0,
        }
    }
}

/// Simulation results.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// Handshakes completed per second (CPS).
    pub cps: f64,
    /// Handshakes completed in the window.
    pub handshakes: u64,
    /// Of which abbreviated.
    pub abbreviated: u64,
    /// Resumption attempts that fell back to a full handshake because
    /// the landing worker could not open the client's state.
    pub resume_misses: u64,
    /// HTTP responses per second.
    pub rps: f64,
    /// Application throughput in Gbit/s.
    pub gbps: f64,
    /// Average client-perceived response time (connect → done), ms.
    pub avg_latency_ms: f64,
    /// Median response time, ms.
    pub p50_latency_ms: f64,
    /// 99th-percentile response time, ms.
    pub p99_latency_ms: f64,
    /// Worker CPU utilization (busy fraction).
    pub worker_util: f64,
    /// QAT engine utilization.
    pub qat_util: f64,
    /// Heuristic/timer polls executed.
    pub polls: u64,
    /// Polls that retrieved nothing.
    pub empty_polls: u64,
    /// Simulated user/kernel switches for notification.
    pub kernel_switches: u64,
    /// Handshakes completed by flood connections (with admission off the
    /// flood's ClientHellos go through the full asymmetric pipeline).
    pub flood_handshakes: u64,
    /// Admission challenges issued to token-less new ClientHellos.
    pub challenges: u64,
    /// Queued tasks migrated by the work-stealing discipline.
    pub steals: u64,
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    Connect { client: u32 },
    Flight { conn: u32 },
    Request { conn: u32 },
    QatArrive { worker: u32, conn: u32 },
    QatDone { worker: u32, conn: u32 },
    QatReady { worker: u32, conn: u32 },
    TaskDone { worker: u32 },
    Failover { worker: u32 },
}

#[derive(Clone, Copy, Debug)]
enum Task {
    Run(u32),
    /// Mint and send a stateless retry token to a token-less ClientHello
    /// that arrived while the worker was over the admission watermark
    /// (one HMAC plus a frame write — no asymmetric work).
    Challenge(u32),
    Resume(u32),
    /// Continue a straight-offload flight after the blocking wait.
    ResumeBlocked(u32),
    /// Heuristic poll; `idle_wake` marks a timeliness-triggered poll on
    /// an otherwise-idle worker (the event loop has to come around and
    /// wake before the ring is read, unlike a busy-looping QAT+S worker).
    Poll {
        idle_wake: bool,
    },
}

/// What to apply when the running task completes.
#[derive(Clone, Copy, Debug)]
enum Outcome {
    /// Async offload: job paused after submission.
    OpSubmitted,
    /// Straight offload: the worker blocks until the response returns.
    OpSubmittedBlocking {
        conn: u32,
    },
    FlightDone {
        conn: u32,
    },
    ChallengeDone {
        conn: u32,
    },
    PollDone,
}

/// CPU cost of an admission challenge: HMAC-SHA256 over address+timestamp
/// plus the 0xAD frame write — three orders of magnitude under an RSA
/// private-key operation, which is the entire point of the scheme.
const CHALLENGE_NS: u64 = 2_000;

struct ConnSim {
    client: u32,
    worker: u32,
    flights: VecDeque<Vec<Seg>>,
    segs: VecDeque<Seg>,
    started_at: Time,
    requests_left: u32,
    handshake_done: bool,
    abbreviated: bool,
    /// The client attempted resumption but the landing worker could not
    /// honour it (per-worker caches): counted as a resume miss.
    resume_missed: bool,
    /// Connection belongs to the flood adversary (full handshakes only,
    /// no requests, never honours a retry token).
    is_flood: bool,
    /// Past the admission gate: carried a valid retry token, or arrived
    /// while the worker was under the watermark.
    admitted: bool,
    closed: bool,
    /// Whether the (single) inflight op of this connection is asymmetric.
    inflight_asym_flag: bool,
    /// Engine service time of the (single) inflight op.
    pending_service_ns: u64,
    /// Diagnostics: when the current op was submitted / became ready.
    dbg_submit_at: Time,
    dbg_ready_at: Time,
}

struct WorkerSim {
    queue: VecDeque<Task>,
    running: Option<Outcome>,
    /// Straight offload: the worker is blocked on this conn's response
    /// since the given time (busy-waiting; no other task may run).
    blocked: Option<(u32, Time)>,
    inflight_total: u32,
    inflight_asym: u32,
    ready: VecDeque<u32>,
    poll_queued: bool,
    failover_scheduled: bool,
    busy_ns: u64,
    /// Connections assigned to this worker whose handshake has neither
    /// completed nor been challenged away — the admission watermark input.
    handshaking: u32,
    /// Sticky overload mode: entered past the watermark, left only once
    /// the inflight-handshake count falls to half of it (hysteresis, so
    /// a flood cannot sneak full handshakes through transient dips).
    overloaded: bool,
}

struct ClientSim {
    handshakes_since_full: u32,
    /// Worker that served this client's previous connection (where its
    /// resumption state lives under per-worker caches).
    last_worker: Option<u32>,
    /// Flood adversary: hammers full ClientHellos and drops challenges.
    is_flood: bool,
    /// A retry token from the last challenge, spent on the reconnect.
    has_token: bool,
}

/// The simulator.
pub struct Sim {
    cfg: SimConfig,
    now: Time,
    seq: u64,
    heap: BinaryHeap<Reverse<(Time, u64, u32)>>,
    events: Vec<Ev>, // indexed by the heap's payload id
    workers: Vec<WorkerSim>,
    conns: Vec<ConnSim>,
    clients: Vec<ClientSim>,
    /// Busy engines on the card.
    card_busy: usize,
    /// Pending asymmetric requests (their own ring pairs, §2.3).
    card_q_asym: VecDeque<(u32, u32)>,
    /// Pending symmetric/PRF requests (separate ring pairs).
    card_q_sym: VecDeque<(u32, u32)>,
    /// Round-robin fairness toggle between the two ring classes.
    card_rr_sym_next: bool,
    qat_busy_ns: u64,
    link_free: Time,
    end: Time,
    next_worker: usize,
    /// Separate rotation cursor for the application pool under a phase
    /// split, so re-dispatching established connections does not perturb
    /// the handshake pool's rotation.
    next_app: usize,
    /// cFCFS shared queues, one per phase pool (unused under dFCFS).
    central: Vec<VecDeque<Task>>,
    jitter_state: u64,
    // measurement
    m_handshakes: u64,
    m_abbrev: u64,
    m_resume_misses: u64,
    m_responses: u64,
    m_bytes: u64,
    m_latency_sum_ns: u64,
    m_latency_count: u64,
    /// Latency samples for percentiles (capped; deterministic reservoir).
    m_latency_samples: Vec<u64>,
    m_polls: u64,
    m_empty_polls: u64,
    m_kernel_switches: u64,
    m_flood_handshakes: u64,
    m_challenges: u64,
    m_steals: u64,
    /// Diagnostics: accumulated (card wait, retrieve wait, count).
    dbg_card_ns: u64,
    dbg_retrieve_ns: u64,
    dbg_ops: u64,
    /// Diagnostics: sampling interval (0 = off).
    pub trace_every: u64,
    /// Collected trace samples.
    pub trace: Vec<TraceSample>,
}

impl Sim {
    /// Build and seed the simulation.
    pub fn new(cfg: SimConfig) -> Self {
        let workers = (0..cfg.workers)
            .map(|_| WorkerSim {
                queue: VecDeque::new(),
                running: None,
                blocked: None,
                inflight_total: 0,
                inflight_asym: 0,
                ready: VecDeque::new(),
                poll_queued: false,
                failover_scheduled: false,
                busy_ns: 0,
                handshaking: 0,
                overloaded: false,
            })
            .collect();
        let clients = (0..cfg.clients + cfg.flood_clients)
            .map(|i| ClientSim {
                handshakes_since_full: 0,
                last_worker: None,
                is_flood: i >= cfg.clients,
                has_token: false,
            })
            .collect();
        let end = cfg.warmup_ns + cfg.measure_ns;
        let mut sim = Sim {
            cfg,
            now: 0,
            seq: 0,
            heap: BinaryHeap::new(),
            events: Vec::new(),
            workers,
            conns: Vec::new(),
            clients,
            card_busy: 0,
            card_q_asym: VecDeque::new(),
            card_q_sym: VecDeque::new(),
            card_rr_sym_next: false,
            qat_busy_ns: 0,
            link_free: 0,
            end,
            next_worker: 0,
            next_app: 0,
            central: vec![VecDeque::new(), VecDeque::new()],
            jitter_state: 0x243F_6A88_85A3_08D3,
            m_handshakes: 0,
            m_abbrev: 0,
            m_resume_misses: 0,
            m_responses: 0,
            m_bytes: 0,
            m_latency_sum_ns: 0,
            m_latency_count: 0,
            m_latency_samples: Vec::new(),
            m_polls: 0,
            m_empty_polls: 0,
            m_kernel_switches: 0,
            m_flood_handshakes: 0,
            m_challenges: 0,
            m_steals: 0,
            dbg_card_ns: 0,
            dbg_retrieve_ns: 0,
            dbg_ops: 0,
            trace_every: 0,
            trace: Vec::new(),
        };
        // Ramp clients up over the first part of the warmup so the
        // closed-loop pipeline primes gradually (s_time processes do not
        // all fire in the same microsecond either).
        let ramp = (sim.cfg.warmup_ns / 2).max(1);
        let n = sim.clients.len() as u64;
        for c in 0..sim.clients.len() {
            let at = (c as u64 * ramp) / n.max(1);
            sim.schedule(at, Ev::Connect { client: c as u32 });
        }
        sim
    }

    /// Run with state sampling every `every` ns after warmup.
    pub fn run_traced(mut self, every: u64) -> (SimReport, Vec<TraceSample>) {
        self.trace_every = every;
        let r = self.run_inner();
        (r, std::mem::take(&mut self.trace))
    }

    /// Run and also report diagnostic averages:
    /// (report, avg op card time µs, avg retrieval wait µs).
    pub fn run_with_debug(self) -> (SimReport, f64, f64) {
        let mut s = self;
        let report = s.run_inner();
        let n = s.dbg_ops.max(1) as f64;
        (
            report,
            s.dbg_card_ns as f64 / n / 1000.0,
            s.dbg_retrieve_ns as f64 / n / 1000.0,
        )
    }

    /// Run to completion and report.
    pub fn run(self) -> SimReport {
        let mut s = self;
        s.run_inner()
    }

    fn run_inner(&mut self) -> SimReport {
        let mut next_sample = if self.trace_every > 0 {
            self.cfg.warmup_ns
        } else {
            u64::MAX
        };
        while let Some(Reverse((t, _, id))) = self.heap.pop() {
            if t > self.end {
                break;
            }
            self.now = t;
            if t >= next_sample {
                next_sample = t + self.trace_every;
                let busy_engines = self.card_busy;
                let busy_workers = self.workers.iter().filter(|w| w.running.is_some()).count();
                let queued: usize = self.workers.iter().map(|w| w.queue.len()).sum();
                let ready: usize = self.workers.iter().map(|w| w.ready.len()).sum();
                self.trace
                    .push((t, busy_engines, busy_workers, queued, ready));
            }
            let ev = self.events[id as usize];
            self.dispatch(ev);
        }
        let secs = self.cfg.measure_ns as f64 / 1e9;
        let elapsed = self.end as f64;
        SimReport {
            cps: self.m_handshakes as f64 / secs,
            handshakes: self.m_handshakes,
            abbreviated: self.m_abbrev,
            resume_misses: self.m_resume_misses,
            rps: self.m_responses as f64 / secs,
            gbps: (self.m_bytes as f64 * 8.0) / secs / 1e9,
            avg_latency_ms: if self.m_latency_count > 0 {
                self.m_latency_sum_ns as f64 / self.m_latency_count as f64 / 1e6
            } else {
                0.0
            },
            p50_latency_ms: percentile(&mut self.m_latency_samples, 0.50),
            p99_latency_ms: percentile(&mut self.m_latency_samples, 0.99),
            worker_util: self.workers.iter().map(|w| w.busy_ns).sum::<u64>() as f64
                / (elapsed * self.cfg.workers as f64),
            qat_util: self.qat_busy_ns as f64 / (elapsed * self.cfg.qat_engines as f64),
            polls: self.m_polls,
            empty_polls: self.m_empty_polls,
            kernel_switches: self.m_kernel_switches,
            flood_handshakes: self.m_flood_handshakes,
            challenges: self.m_challenges,
            steals: self.m_steals,
        }
    }

    fn schedule(&mut self, at: Time, ev: Ev) {
        let id = self.events.len() as u32;
        self.events.push(ev);
        self.seq += 1;
        self.heap.push(Reverse((at, self.seq, id)));
    }

    fn lcg(&mut self) -> u64 {
        self.jitter_state = self
            .jitter_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.jitter_state >> 33
    }

    /// Client-side turnaround jitter (0..400 µs): real load generators
    /// (thousands of s_time/ab processes sharing client CPUs and NIC
    /// queues) never run in lockstep; without this, identical closed-loop
    /// clients phase-lock into worker/accelerator convoys that no real
    /// testbed exhibits.
    fn jitter(&mut self) -> u64 {
        self.lcg() % 400_000
    }

    /// ±25% multiplicative noise on service/CPU durations (cache and
    /// scheduler effects, input-dependent crypto timing, firmware
    /// dispatch variability).
    fn noisy(&mut self, ns: u64) -> u64 {
        let r = self.lcg() % 1000;
        ns * (750 + (r * 500) / 1000) / 1000
    }

    fn rtt(&self) -> u64 {
        self.cfg.cost.net.rtt_ns
    }

    /// Serialize `bytes` onto the shared egress link; returns completion.
    fn egress(&mut self, bytes: u64) -> Time {
        let ser = (bytes as f64 * 8.0 / (self.cfg.cost.net.egress_gbps * 1e9) * 1e9) as u64;
        let start = self.link_free.max(self.now);
        self.link_free = start + ser;
        self.link_free
    }

    /// Worker range that serves accepts + TLS/offload work (all workers
    /// unless a phase split dedicates a prefix to it).
    fn hs_pool(&self) -> std::ops::Range<usize> {
        match self.cfg.phase_split {
            Some((tls, _)) if tls > 0 && tls < self.cfg.workers => 0..tls,
            _ => 0..self.cfg.workers,
        }
    }

    /// Worker range that serves established-connection record I/O.
    fn app_pool(&self) -> std::ops::Range<usize> {
        match self.cfg.phase_split {
            Some((tls, _)) if tls > 0 && tls < self.cfg.workers => tls..self.cfg.workers,
            _ => 0..self.cfg.workers,
        }
    }

    /// Pool a given worker belongs to.
    fn pool_of(&self, worker: u32) -> std::ops::Range<usize> {
        let hs = self.hs_pool();
        if hs.contains(&(worker as usize)) {
            hs
        } else {
            self.app_pool()
        }
    }

    /// cFCFS shared-queue index for a worker's pool.
    fn central_idx(&self, worker: u32) -> usize {
        usize::from(!self.hs_pool().contains(&(worker as usize)))
    }

    /// The dispatcher's view of a worker's load: accepted-but-unserved
    /// backlog + inflight handshakes + staged offload depth — the sim
    /// mirror of the cluster's cache-padded load gauge.
    fn load_gauge(&self, worker: usize) -> u64 {
        let w = &self.workers[worker];
        w.queue.len() as u64 + w.handshaking as u64 + w.inflight_total as u64
    }

    /// Pick a worker from `pool` under the configured dispatch policy.
    /// Round-robin advances `cursor`; least-loaded is an exact argmin
    /// with ties broken toward the lowest index (no LCG draw, so the
    /// default policy stays byte-for-byte identical to the seed).
    fn pick_worker(&mut self, pool: std::ops::Range<usize>, app: bool) -> u32 {
        match self.cfg.dispatch {
            SimDispatch::RoundRobin => {
                let cursor = if app {
                    &mut self.next_app
                } else {
                    &mut self.next_worker
                };
                let w = pool.start + (*cursor % pool.len());
                *cursor += 1;
                w as u32
            }
            SimDispatch::LeastLoaded => pool
                .clone()
                .min_by_key(|&i| self.load_gauge(i))
                .expect("non-empty pool") as u32,
        }
    }

    /// Move a connection's home worker, keeping the inflight-handshake
    /// accounting consistent. Only legal while the connection has no
    /// pending card events: queued `Run`/`Challenge` tasks satisfy this
    /// (a conn with a submitted op is parked until `QatReady`, and its
    /// `Resume` continuation is never migrated).
    fn migrate_conn(&mut self, conn: u32, to: u32) {
        let from = self.conns[conn as usize].worker;
        if from == to {
            return;
        }
        let c = &self.conns[conn as usize];
        if !c.handshake_done && !c.closed {
            self.workers[from as usize].handshaking -= 1;
            self.workers[to as usize].handshaking += 1;
        }
        self.conns[conn as usize].worker = to;
    }

    /// dFCFS+stealing: an idle worker takes half of the stealable
    /// backlog (queued `Run`/`Challenge` tasks, taken from the back —
    /// the coldest work) of the most-loaded sibling in its pool.
    /// Returns true if anything was stolen.
    fn try_steal(&mut self, thief: u32) -> bool {
        let pool = self.pool_of(thief);
        let mut victim = None;
        let mut best = 0usize;
        for i in pool {
            if i == thief as usize {
                continue;
            }
            let n = self.workers[i]
                .queue
                .iter()
                .filter(|t| matches!(t, Task::Run(_) | Task::Challenge(_)))
                .count();
            if n > best {
                best = n;
                victim = Some(i);
            }
        }
        let Some(v) = victim else { return false };
        // Steal half, leaving the victim at least one task.
        if best < 2 {
            return false;
        }
        let take = best / 2;
        let mut stolen = Vec::with_capacity(take);
        let q = &mut self.workers[v].queue;
        let mut idx = q.len();
        while stolen.len() < take && idx > 0 {
            idx -= 1;
            if matches!(q[idx], Task::Run(_) | Task::Challenge(_)) {
                stolen.push(q.remove(idx).expect("index in bounds"));
            }
        }
        // Preserve the victim's FIFO order on the thief's queue.
        for t in stolen.into_iter().rev() {
            if let Task::Run(c) | Task::Challenge(c) = t {
                self.migrate_conn(c, thief);
            }
            self.workers[thief as usize].queue.push_back(t);
            self.m_steals += 1;
        }
        true
    }

    /// Kick every worker of the pool owning cFCFS queue `idx` (a push to
    /// the shared queue may wake any idle member).
    fn kick_pool(&mut self, idx: usize) {
        let pool = if idx == 0 {
            self.hs_pool()
        } else {
            self.app_pool()
        };
        for w in pool {
            self.kick(w as u32);
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Connect { client } => self.on_connect(client),
            Ev::Flight { conn } => self.on_flight(conn),
            Ev::Request { conn } => self.on_request(conn),
            Ev::QatArrive { worker, conn } => self.on_qat_arrive(worker, conn),
            Ev::QatDone { worker, conn } => self.on_qat_done(worker, conn),
            Ev::QatReady { worker, conn } => self.on_qat_ready(worker, conn),
            Ev::TaskDone { worker } => self.on_task_done(worker),
            Ev::Failover { worker } => self.on_failover(worker),
        }
    }

    fn on_connect(&mut self, client: u32) {
        // Decide full vs abbreviated for this connection.
        let want_abbreviated = {
            let c = &mut self.clients[client as usize];
            if c.is_flood || self.cfg.resumes_per_full == 0 {
                false
            } else if self.cfg.resumes_per_full == u32::MAX {
                true
            } else if c.handshakes_since_full < self.cfg.resumes_per_full {
                c.handshakes_since_full += 1;
                true
            } else {
                c.handshakes_since_full = 0;
                false
            }
        };
        let pool = self.hs_pool();
        let worker = self.pick_worker(pool, false);
        // Per-worker caches: a resumption attempt only succeeds if the
        // round-robin dispatcher happens to land the client back on the
        // worker holding its state; otherwise it silently pays the full
        // handshake. The shared store removes this failure mode.
        let (abbreviated, resume_missed) = if want_abbreviated
            && !self.cfg.shared_resumption
            && self.clients[client as usize].last_worker != Some(worker)
        {
            (false, true)
        } else {
            (want_abbreviated, false)
        };
        self.clients[client as usize].last_worker = Some(worker);
        let is_flood = self.clients[client as usize].is_flood;
        // A retry token earned from the previous challenge is spent on
        // this reconnect; abbreviated handshakes are admitted outright
        // (resumption proves prior work, the QFAM priority class).
        let admitted = std::mem::take(&mut self.clients[client as usize].has_token) || abbreviated;
        let flights = handshake_flights(self.cfg.suite, abbreviated, &self.cfg.cost);
        let conn_id = self.conns.len() as u32;
        self.workers[worker as usize].handshaking += 1;
        self.conns.push(ConnSim {
            client,
            worker,
            flights: flights.into(),
            segs: VecDeque::new(),
            started_at: self.now,
            requests_left: if is_flood
                || (self.cfg.heavy_clients > 0 && client as usize >= self.cfg.heavy_clients)
            {
                0
            } else {
                self.cfg.request.map(|r| r.requests_per_conn).unwrap_or(0)
            },
            handshake_done: false,
            abbreviated,
            resume_missed,
            is_flood,
            admitted,
            closed: false,
            inflight_asym_flag: false,
            pending_service_ns: 0,
            dbg_submit_at: 0,
            dbg_ready_at: 0,
        });
        // TCP connect (1 RTT) then the ClientHello arrives RTT/2 later.
        let at = self.now + self.rtt() + self.rtt() / 2 + self.jitter();
        self.schedule(at, Ev::Flight { conn: conn_id });
    }

    fn on_flight(&mut self, conn: u32) {
        let c = &mut self.conns[conn as usize];
        if c.closed {
            return;
        }
        let w = c.worker;
        let gated = self.cfg.admission_enabled && !c.admitted && !c.handshake_done;
        let overloaded = self.cfg.admission_enabled && self.overload_mode(w);
        // Admission gate: a token-less ClientHello landing on a worker
        // in overload mode is answered with a cheap stateless challenge
        // instead of handshake work.
        if gated && overloaded {
            self.enqueue(w, Task::Challenge(conn), false);
            return;
        }
        let c = &mut self.conns[conn as usize];
        c.admitted = true;
        if c.segs.is_empty() {
            if let Some(flight) = c.flights.pop_front() {
                c.segs = flight.into();
            }
        }
        self.enqueue(w, Task::Run(conn), false);
    }

    fn on_request(&mut self, conn: u32) {
        let size = self.cfg.request.expect("request workload").size;
        let c = &mut self.conns[conn as usize];
        if c.closed {
            return;
        }
        c.segs = request_flight(size, &self.cfg.cost).into();
        // Phase split: established-connection record I/O belongs to the
        // application pool; re-dispatch there (the connection is idle at
        // request arrival — no inflight op — so migration is safe).
        let w = if self.cfg.phase_split.is_some() {
            let pool = self.app_pool();
            let to = self.pick_worker(pool, true);
            self.migrate_conn(conn, to);
            to
        } else {
            self.conns[conn as usize].worker
        };
        // Overload prioritization: while overloaded, established-
        // connection record I/O jumps ahead of the queued new-ClientHello
        // work instead of aging behind it.
        let overloaded = self.cfg.admission_enabled && self.overload_mode(w);
        self.enqueue(w, Task::Run(conn), overloaded);
    }

    /// Route a dispatchable task to its queue: the worker's own under
    /// dFCFS, the pool's shared queue under cFCFS (`front` is the
    /// overload priority path).
    fn enqueue(&mut self, worker: u32, task: Task, front: bool) {
        if self.cfg.discipline == SimDiscipline::CFcfs {
            let idx = self.central_idx(worker);
            if front {
                self.central[idx].push_front(task);
            } else {
                self.central[idx].push_back(task);
            }
            self.kick_pool(idx);
        } else {
            let q = &mut self.workers[worker as usize].queue;
            if front {
                q.push_front(task);
            } else {
                q.push_back(task);
            }
            self.kick(worker);
        }
    }

    /// A request reaches the card (after driver/DMA fixed latency):
    /// start it on a free engine or queue it on its class ring.
    fn on_qat_arrive(&mut self, worker: u32, conn: u32) {
        if self.card_busy < self.cfg.qat_engines {
            self.card_busy += 1;
            let service = self.conns[conn as usize].pending_service_ns;
            let at = self.now + service;
            self.schedule(at, Ev::QatDone { worker, conn });
        } else if self.conns[conn as usize].inflight_was_asym() {
            self.card_q_asym.push_back((worker, conn));
        } else {
            self.card_q_sym.push_back((worker, conn));
        }
    }

    /// An engine finished a request: deliver the response toward the
    /// response ring and start the next queued request. The two ring
    /// classes are drained round-robin (hardware load-balances "requests
    /// from all rings across all available computation engines", §2.3),
    /// so short PRF/cipher ops never serialize behind an RSA backlog.
    fn on_qat_done(&mut self, worker: u32, conn: u32) {
        self.card_busy -= 1;
        self.qat_busy_ns += self.conns[conn as usize].pending_service_ns;
        // Start the next request, alternating classes.
        let next = if self.card_rr_sym_next {
            self.card_q_sym
                .pop_front()
                .or_else(|| self.card_q_asym.pop_front())
        } else {
            self.card_q_asym
                .pop_front()
                .or_else(|| self.card_q_sym.pop_front())
        };
        self.card_rr_sym_next = !self.card_rr_sym_next;
        if let Some((nw, nc)) = next {
            self.card_busy += 1;
            let service = self.conns[nc as usize].pending_service_ns;
            let at = self.now + service;
            self.schedule(
                at,
                Ev::QatDone {
                    worker: nw,
                    conn: nc,
                },
            );
        }
        // Response retrieval: tick-aligned for timer pollers; immediate
        // availability for the heuristic scheme.
        let at = match self.cfg.profile.timer_interval() {
            Some(interval) => ceil_to(self.now, interval),
            None => self.now,
        };
        self.schedule(at, Ev::QatReady { worker, conn });
    }

    fn on_qat_ready(&mut self, worker: u32, conn: u32) {
        let profile = self.cfg.profile;
        self.conns[conn as usize].dbg_ready_at = self.now;
        if !profile.uses_async() {
            // Straight offload: unblock the worker; the blocked span
            // counts as busy (it was busy-waiting). A response can also
            // come back before the submitting task even finishes (tiny
            // ops on an idle card) — park it as "already ready".
            let w = &mut self.workers[worker as usize];
            match w.blocked {
                Some((bconn, since)) if bconn == conn => {
                    w.blocked = None;
                    w.busy_ns += self.now - since;
                    w.queue.push_front(Task::ResumeBlocked(conn));
                    self.kick(worker);
                }
                _ => w.ready.push_back(conn),
            }
            return;
        }
        let w = &mut self.workers[worker as usize];
        if profile.timer_interval().is_some() {
            // Timer scheme: the event time is already tick-aligned; the
            // poller thread retrieves the response and notifies.
            w.inflight_total -= 1;
            self.dec_asym_if_needed(worker, conn);
            self.workers[worker as usize]
                .queue
                .push_back(Task::Resume(conn));
            self.kick(worker);
        } else {
            w.ready.push_back(conn);
            self.heuristic_check(worker);
        }
    }

    fn dec_asym_if_needed(&mut self, worker: u32, conn: u32) {
        // The op kind that was inflight for `conn` was recorded on the
        // connection (at most one inflight op per connection — §3.3).
        let was_asym = self.conns[conn as usize].inflight_was_asym();
        if was_asym {
            self.workers[worker as usize].inflight_asym -= 1;
        }
    }

    fn on_failover(&mut self, worker: u32) {
        let failover_ns = 5_000_000;
        let w = &mut self.workers[worker as usize];
        if w.inflight_total > 0 || !w.ready.is_empty() {
            if !w.ready.is_empty() && !w.poll_queued {
                w.queue.push_back(Task::Poll { idle_wake: false });
                w.poll_queued = true;
            }
            let at = self.now + failover_ns;
            self.schedule(at, Ev::Failover { worker });
            self.kick(worker);
        } else {
            w.failover_scheduled = false;
        }
    }

    fn heuristic_check(&mut self, worker: u32) {
        if self.cfg.profile.timer_interval().is_some() || !self.cfg.profile.uses_qat() {
            return;
        }
        let w = &self.workers[worker as usize];
        if w.poll_queued || w.ready.is_empty() {
            return;
        }
        let idle = w.running.is_none() && w.queue.is_empty();
        let threshold = if w.inflight_asym > 0 {
            self.cfg.heuristic_asym_threshold
        } else {
            self.cfg.heuristic_sym_threshold
        };
        if idle || w.inflight_total as u64 >= threshold {
            let w = &mut self.workers[worker as usize];
            w.queue.push_back(Task::Poll { idle_wake: idle });
            w.poll_queued = true;
            self.kick(worker);
        }
    }

    /// Start the next task if the worker is idle (and not blocked on a
    /// straight-offload response).
    fn kick(&mut self, worker: u32) {
        let w = &self.workers[worker as usize];
        if w.running.is_some() || w.blocked.is_some() {
            return;
        }
        // Own queue first: continuations (`Resume`, `Poll`) always live
        // there and must run on the worker that submitted the op.
        let (task, extra_ns) = match self.workers[worker as usize].queue.pop_front() {
            Some(t) => (t, 0),
            None => match self.cfg.discipline {
                SimDiscipline::DFcfs => return,
                SimDiscipline::DFcfsSteal => {
                    if !self.try_steal(worker) {
                        return;
                    }
                    match self.workers[worker as usize].queue.pop_front() {
                        Some(t) => (t, 0),
                        None => return,
                    }
                }
                SimDiscipline::CFcfs => {
                    let idx = self.central_idx(worker);
                    match self.central[idx].pop_front() {
                        Some(t) => {
                            if let Task::Run(c) | Task::Challenge(c) = t {
                                self.migrate_conn(c, worker);
                            }
                            (t, self.cfg.central_queue_op_ns)
                        }
                        None => return,
                    }
                }
            },
        };
        let (cpu_ns, outcome) = self.execute(worker, task);
        let cpu_ns = cpu_ns + extra_ns;
        // Timer-poller CPU tax: the dedicated polling thread (pinned to
        // the same core) steals a fixed fraction of cycles.
        let inflation = match self.cfg.profile.timer_interval() {
            Some(interval) => {
                let per_tick =
                    2 * self.cfg.cost.offload.ctx_switch_ns + self.cfg.cost.offload.poll_ns;
                1.0 + per_tick as f64 / interval as f64
            }
            None => 1.0,
        };
        let dur = (cpu_ns as f64 * inflation) as u64;
        self.workers[worker as usize].running = Some(outcome);
        self.workers[worker as usize].busy_ns += dur;
        let at = self.now + dur;
        self.schedule(at, Ev::TaskDone { worker });
    }

    /// Execute a task: returns (cpu time, outcome).
    fn execute(&mut self, worker: u32, task: Task) -> (u64, Outcome) {
        let off = self.cfg.cost.offload.clone();
        match task {
            Task::Poll { idle_wake } => {
                let w = &mut self.workers[worker as usize];
                let retrieved: Vec<u32> = w.ready.drain(..).collect();
                let n = retrieved.len() as u32;
                let mut cpu = off.poll_ns + retrieved.len() as u64 * off.per_response_ns;
                if idle_wake {
                    // Event-loop wake-up before the poll runs.
                    cpu += off.idle_wake_ns;
                }
                w.poll_queued = false;
                if self.now >= self.cfg.warmup_ns {
                    self.m_polls += 1;
                    if retrieved.is_empty() {
                        self.m_empty_polls += 1;
                    }
                }
                for conn in retrieved {
                    self.workers[worker as usize].inflight_total -= 1;
                    self.dec_asym_if_needed(worker, conn);
                    self.workers[worker as usize]
                        .queue
                        .push_back(Task::Resume(conn));
                }
                // Kernel-bypass queue ops are charged on the poll side.
                if matches!(self.cfg.profile, SimProfile::Qtls) {
                    cpu += n as u64 * off.queue_op_ns;
                }

                (cpu, Outcome::PollDone)
            }
            Task::Run(conn) => self.run_segments(worker, conn, 0),
            Task::Challenge(conn) => {
                let cpu = self.noisy(CHALLENGE_NS);
                (cpu, Outcome::ChallengeDone { conn })
            }
            Task::ResumeBlocked(conn) => {
                // Straight offload: the poll that retrieved the response.
                let cpu = off.poll_ns + off.per_response_ns;
                self.run_segments(worker, conn, cpu)
            }
            Task::Resume(conn) => {
                {
                    let c = &self.conns[conn as usize];
                    self.dbg_card_ns += c.dbg_ready_at.saturating_sub(c.dbg_submit_at);
                    self.dbg_retrieve_ns += self.now.saturating_sub(c.dbg_ready_at);
                    self.dbg_ops += 1;
                }
                // Post-processing entry: notification delivery + fiber
                // resume overhead.
                let mut cpu = off.pause_resume_ns;
                if self.cfg.profile.fd_notification() {
                    cpu += off.fd_switches_per_event * off.kernel_switch_ns;
                    if self.now >= self.cfg.warmup_ns {
                        self.m_kernel_switches += off.fd_switches_per_event;
                    }
                } else if matches!(self.cfg.profile, SimProfile::Qtls) {
                    cpu += off.queue_op_ns;
                }
                // Timer profiles also pay per-response retrieval here
                // (the poller thread's work happens on the same core).
                if self.cfg.profile.timer_interval().is_some() {
                    cpu += off.per_response_ns;
                }
                self.run_segments(worker, conn, cpu)
            }
        }
    }

    /// Run a connection's segments until an offload submission or the
    /// flight completes.
    fn run_segments(&mut self, worker: u32, conn: u32, mut cpu: u64) -> (u64, Outcome) {
        let off = self.cfg.cost.offload.clone();
        let profile = self.cfg.profile;
        loop {
            let Some(seg) = self.conns[conn as usize].segs.pop_front() else {
                return (cpu, Outcome::FlightDone { conn });
            };
            match seg {
                Seg::Cpu(ns) => cpu += self.noisy(ns),
                Seg::Op(op) => {
                    if !profile.uses_qat() {
                        let ns = op.sw_ns(&self.cfg.cost);
                        cpu += self.noisy(ns);
                        continue;
                    }
                    // Submit through the driver: the request reaches the
                    // card after a fixed DMA/firmware latency. Async
                    // profiles amortize the doorbell per the flush
                    // policy (sweep-boundary batching) and may pay a
                    // staging hold; the blocking profile rings per
                    // request.
                    let (submit_ns, hold_ns) = if profile.uses_async() {
                        // What this worker realistically has available to
                        // batch with on the shard this request lands on:
                        // sharding splits the worker's inflight over N
                        // queues, so one flush sees 1/N of the depth.
                        let shards = self.cfg.worker_shards.max(1);
                        let per_shard =
                            self.workers[worker as usize].inflight_total as u64 / shards;
                        let avail = per_shard + 1;
                        let mut submit = self.cfg.submit_flush.submit_cost_ns(&off, avail);
                        let mut hold = self
                            .cfg
                            .submit_flush
                            .hold_ns(avail, self.cfg.submit_hold_cap_ns);
                        // A finite ring caps a shard's inflight share:
                        // past capacity each flush defers the overflow,
                        // paying another doorbell and another sweep of
                        // staging delay per retry round — the single-ring
                        // bottleneck that extra shards remove.
                        if per_shard >= self.cfg.shard_ring_capacity {
                            let retries = (per_shard / self.cfg.shard_ring_capacity).min(4);
                            submit += retries * off.submit_doorbell_ns;
                            hold += retries * self.cfg.submit_hold_cap_ns;
                        }
                        (submit, hold)
                    } else {
                        (off.submit_per_req_ns + off.submit_doorbell_ns, 0)
                    };
                    cpu += submit_ns;
                    let fixed = self.noisy(if op.is_asym() {
                        off.fixed_latency_asym_ns
                    } else {
                        off.fixed_latency_sym_ns
                    }) + hold_ns;
                    let submit_at = self.now + cpu;
                    let service = self.noisy(op.qat_ns(&self.cfg.cost));
                    {
                        let c = &mut self.conns[conn as usize];
                        c.set_inflight_asym(op.is_asym());
                        c.pending_service_ns = service;
                        c.dbg_submit_at = submit_at;
                    }
                    self.schedule(submit_at + fixed, Ev::QatArrive { worker, conn });
                    if profile.uses_async() {
                        // Pre-processing: pause after submission; the
                        // remaining segments run at resume time.
                        let w = &mut self.workers[worker as usize];
                        w.inflight_total += 1;
                        if op.is_asym() {
                            w.inflight_asym += 1;
                        }
                        // Heuristic failover timer.
                        if profile.timer_interval().is_none()
                            && !self.workers[worker as usize].failover_scheduled
                        {
                            self.workers[worker as usize].failover_scheduled = true;
                            let at = self.now + 5_000_000;
                            self.schedule(at, Ev::Failover { worker });
                        }
                        return (cpu, Outcome::OpSubmitted);
                    } else {
                        // Straight offload: block the worker (§2.4) until
                        // the response is retrieved.
                        return (cpu, Outcome::OpSubmittedBlocking { conn });
                    }
                }
            }
        }
    }

    fn on_task_done(&mut self, worker: u32) {
        let outcome = self.workers[worker as usize]
            .running
            .take()
            .expect("task was running");
        match outcome {
            Outcome::OpSubmitted | Outcome::PollDone => {}
            Outcome::OpSubmittedBlocking { conn } => {
                // The worker busy-waits from now until the response is
                // retrieved — unless it already came back mid-task.
                let w = &mut self.workers[worker as usize];
                if let Some(pos) = w.ready.iter().position(|&c| c == conn) {
                    w.ready.remove(pos);
                    w.queue.push_front(Task::ResumeBlocked(conn));
                } else {
                    w.blocked = Some((conn, self.now));
                }
            }
            Outcome::FlightDone { conn } => self.flight_done(conn),
            Outcome::ChallengeDone { conn } => self.challenge_done(conn),
        }
        self.heuristic_check(worker);
        self.kick(worker);
    }

    /// Update and return the worker's sticky overload state: enter past
    /// the watermark, leave once inflight handshakes drop under half of
    /// it.
    fn overload_mode(&mut self, worker: u32) -> bool {
        let watermark = self.cfg.admission_watermark;
        let w = &mut self.workers[worker as usize];
        if w.overloaded {
            if w.handshaking * 2 < watermark {
                w.overloaded = false;
            }
        } else if w.handshaking > watermark {
            w.overloaded = true;
        }
        w.overloaded
    }

    /// A challenge frame went out: the connection is closed server-side.
    /// A legitimate client banks the token and reconnects with it; the
    /// spoofing flood cannot complete the round trip and just hammers
    /// another bare ClientHello.
    fn challenge_done(&mut self, conn: u32) {
        let rtt = self.rtt();
        let jitter = self.jitter();
        let c = &mut self.conns[conn as usize];
        c.closed = true;
        let client = c.client;
        let worker = c.worker;
        self.workers[worker as usize].handshaking -= 1;
        if self.now >= self.cfg.warmup_ns && self.now <= self.end {
            self.m_challenges += 1;
        }
        if !self.clients[client as usize].is_flood {
            self.clients[client as usize].has_token = true;
        }
        // Challenge reaches the client half an RTT out; the closed loop
        // turns around and reconnects.
        let at = self.now + rtt / 2 + jitter;
        self.schedule(at, Ev::Connect { client });
    }

    fn flight_done(&mut self, conn: u32) {
        let rtt = self.rtt();
        let jitter = self.jitter();
        let c = &mut self.conns[conn as usize];
        if !c.flights.is_empty() {
            // More handshake flights: client turnaround.
            let at = self.now + rtt + jitter;
            self.schedule(at, Ev::Flight { conn });
            return;
        }
        if !c.handshake_done {
            c.handshake_done = true;
            let worker = c.worker;
            let is_flood = c.is_flood;
            let in_window = self.now >= self.cfg.warmup_ns && self.now <= self.end;
            if in_window {
                if is_flood {
                    self.m_flood_handshakes += 1;
                } else {
                    self.m_handshakes += 1;
                    if c.abbreviated {
                        self.m_abbrev += 1;
                    }
                    if c.resume_missed {
                        self.m_resume_misses += 1;
                    }
                }
            }
            self.workers[worker as usize].handshaking -= 1;
            let c = &mut self.conns[conn as usize];
            if self.cfg.request.is_some() && !is_flood && c.requests_left > 0 {
                // First GET arrives one RTT after our final flight.
                let at = self.now + rtt + jitter;
                self.schedule(at, Ev::Request { conn });
            } else {
                // s_time: connection completes at the client, which
                // immediately reconnects.
                let done_at = self.now + rtt / 2;
                let client = c.client;
                c.closed = true;
                self.record_latency(conn, done_at);
                self.schedule(done_at + jitter, Ev::Connect { client });
            }
            return;
        }
        // A request flight finished: response leaves through the link.
        let size = self.cfg.request.expect("request workload").size;
        let sent_at = self.egress(size);
        let c = &mut self.conns[conn as usize];
        c.requests_left -= 1;
        let client_got_it = sent_at + rtt / 2;
        let in_window = client_got_it >= self.cfg.warmup_ns && client_got_it <= self.end;
        if in_window {
            self.m_responses += 1;
            self.m_bytes += size;
        }
        if c.requests_left > 0 {
            let at = sent_at + rtt + jitter;
            self.schedule(at, Ev::Request { conn });
        } else {
            let client = c.client;
            c.closed = true;
            self.record_latency(conn, client_got_it);
            self.schedule(client_got_it + jitter, Ev::Connect { client });
        }
    }

    fn record_latency(&mut self, conn: u32, done_at: Time) {
        if done_at >= self.cfg.warmup_ns && done_at <= self.end {
            let c = &self.conns[conn as usize];
            if c.is_flood {
                // The adversary's completion times are not a service
                // metric; keeping them out preserves the latency figures'
                // meaning under flood.
                return;
            }
            let sample = done_at - c.started_at;
            self.m_latency_sum_ns += sample;
            self.m_latency_count += 1;
            // Deterministic reservoir: keep the first 200K samples (more
            // than any measurement window produces per worker-seconds of
            // interest), replace pseudo-randomly beyond that.
            const CAP: usize = 200_000;
            if self.m_latency_samples.len() < CAP {
                self.m_latency_samples.push(sample);
            } else {
                let idx = (self.lcg() % self.m_latency_count) as usize;
                if idx < CAP {
                    self.m_latency_samples[idx] = sample;
                }
            }
        }
    }
}

/// Round `t` up to the next multiple of `step`.
fn ceil_to(t: Time, step: u64) -> Time {
    t.div_ceil(step) * step
}

/// In-place percentile (nearest-rank) in milliseconds; 0 if empty.
fn percentile(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let idx = ((samples.len() as f64 - 1.0) * q).round() as usize;
    samples[idx] as f64 / 1e6
}

impl ConnSim {
    fn set_inflight_asym(&mut self, asym: bool) {
        // Reuse `abbreviated`'s sibling storage: a dedicated flag.
        self.inflight_asym_flag = asym;
    }

    fn inflight_was_asym(&self) -> bool {
        self.inflight_asym_flag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtls_crypto::ecc::NamedCurve;

    fn quick(mut cfg: SimConfig) -> SimReport {
        cfg.warmup_ns = 1_500_000_000;
        cfg.measure_ns = 1_000_000_000;
        Sim::new(cfg).run()
    }

    #[test]
    fn sw_tls_rsa_matches_anchor() {
        let r = quick(SimConfig::handshake(
            SimProfile::Sw,
            8,
            400,
            SuiteKind::TlsRsa,
        ));
        // Paper Fig. 7a: SW at 8HT ≈ 4.3K CPS.
        assert!((3500.0..5200.0).contains(&r.cps), "cps={}", r.cps);
        assert!(
            r.worker_util > 0.9,
            "SW must be CPU-bound: {}",
            r.worker_util
        );
    }

    #[test]
    fn qtls_beats_sw_handshakes() {
        let sw = quick(SimConfig::handshake(
            SimProfile::Sw,
            8,
            2000,
            SuiteKind::TlsRsa,
        ));
        let qtls = quick(SimConfig::handshake(
            SimProfile::Qtls,
            8,
            2000,
            SuiteKind::TlsRsa,
        ));
        assert!(qtls.cps > 5.0 * sw.cps, "QTLS={} SW={}", qtls.cps, sw.cps);
    }

    #[test]
    fn config_ordering_matches_paper() {
        // SW < QAT+S < QAT+A < QAT+AH < QTLS for TLS-RSA full handshakes.
        let mut last = 0.0;
        for p in SimProfile::FIVE {
            let r = quick(SimConfig::handshake(p, 8, 2000, SuiteKind::TlsRsa));
            assert!(
                r.cps > last,
                "{} ({}) must beat previous ({})",
                p.label(),
                r.cps,
                last
            );
            last = r.cps;
        }
    }

    #[test]
    fn kernel_bypass_eliminates_switches() {
        let ah = quick(SimConfig::handshake(
            SimProfile::QatAH,
            4,
            500,
            SuiteKind::TlsRsa,
        ));
        let qtls = quick(SimConfig::handshake(
            SimProfile::Qtls,
            4,
            500,
            SuiteKind::TlsRsa,
        ));
        assert!(ah.kernel_switches > 0);
        assert_eq!(qtls.kernel_switches, 0);
    }

    #[test]
    fn abbreviated_handshakes_count() {
        let mut cfg = SimConfig::handshake(
            SimProfile::Sw,
            4,
            200,
            SuiteKind::EcdheRsa(NamedCurve::P256),
        );
        cfg.resumes_per_full = u32::MAX;
        let r = quick(cfg);
        assert!(r.handshakes > 0);
        assert_eq!(r.abbreviated, r.handshakes);
        assert_eq!(r.resume_misses, 0, "shared store honours every attempt");
    }

    #[test]
    fn per_worker_caches_miss_cross_worker_resumes() {
        // The pre-shared-store pathology: with round-robin dispatch over
        // several workers, a client resuming on a worker that did not
        // mint its state downgrades to a full handshake.
        let mut cfg = SimConfig::handshake(
            SimProfile::Sw,
            4,
            200,
            SuiteKind::EcdheRsa(NamedCurve::P256),
        );
        cfg.resumes_per_full = u32::MAX;
        cfg.shared_resumption = false;
        let r = quick(cfg.clone());
        assert!(r.resume_misses > 0, "cross-worker resumes must miss");
        assert!(
            r.abbreviated < r.handshakes,
            "misses downgrade to full handshakes"
        );
        // Restoring the shared plane restores the abbreviated rate.
        cfg.shared_resumption = true;
        let shared = quick(cfg);
        assert_eq!(shared.resume_misses, 0);
        assert!(shared.cps > r.cps, "misses cost CPS");
    }

    #[test]
    fn transfer_workload_produces_throughput() {
        let mut cfg = SimConfig::handshake(SimProfile::Sw, 8, 400, SuiteKind::TlsRsa);
        cfg.request = Some(RequestLoad {
            size: 128 * 1024,
            requests_per_conn: 50,
        });
        let r = quick(cfg);
        assert!(r.gbps > 1.0, "gbps={}", r.gbps);
        assert!(r.rps > 1000.0, "rps={}", r.rps);
    }

    #[test]
    fn latency_increases_with_concurrency() {
        let small = quick(SimConfig::handshake(
            SimProfile::Sw,
            1,
            1,
            SuiteKind::TlsRsa,
        ));
        let big = quick(SimConfig::handshake(
            SimProfile::Sw,
            1,
            64,
            SuiteKind::TlsRsa,
        ));
        assert!(big.avg_latency_ms > small.avg_latency_ms * 5.0);
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let r = quick(SimConfig::handshake(
            SimProfile::Qtls,
            2,
            100,
            SuiteKind::TlsRsa,
        ));
        assert!(r.p50_latency_ms > 0.0);
        assert!(r.p50_latency_ms <= r.p99_latency_ms);
        // The mean sits between the median and the tail for these
        // right-skewed queueing distributions.
        assert!(r.avg_latency_ms >= r.p50_latency_ms * 0.5);
        assert!(r.avg_latency_ms <= r.p99_latency_ms * 1.5);
    }

    #[test]
    fn short_ops_not_starved_behind_asym_backlog() {
        // Regression test for the per-class ring queues (§2.3): the card
        // must drain PRF requests round-robin with the RSA backlog.
        // Without class fairness, the whole fleet phase-locks behind the
        // RSA queue and worker+card utilization collapse in antiphase
        // (observed as a hard CPS plateau past ~17 workers).
        let r24 = quick(SimConfig::handshake(
            SimProfile::QatA {
                poll_interval_ns: 10_000,
            },
            24,
            2000,
            SuiteKind::TlsRsa,
        ));
        let r16 = quick(SimConfig::handshake(
            SimProfile::QatA {
                poll_interval_ns: 10_000,
            },
            16,
            2000,
            SuiteKind::TlsRsa,
        ));
        assert!(
            r24.cps > r16.cps * 1.1,
            "adding workers must keep helping: 16HT={} 24HT={}",
            r16.cps,
            r24.cps
        );
    }

    #[test]
    fn blocking_profile_counts_wait_as_busy() {
        // QAT+S busy-waits: the worker must look saturated even though
        // the card is nearly idle (§2.4's "CPU cycles spent waiting").
        let r = quick(SimConfig::handshake(
            SimProfile::QatS {
                poll_interval_ns: 10_000,
            },
            8,
            2000,
            SuiteKind::TlsRsa,
        ));
        assert!(r.worker_util > 0.95, "worker_util={}", r.worker_util);
        assert!(r.qat_util < 0.3, "qat_util={}", r.qat_util);
    }

    #[test]
    fn qat_card_capacity_limits_cps() {
        // With many workers, QTLS saturates the card at ~100K CPS.
        let r = quick(SimConfig::handshake(
            SimProfile::Qtls,
            32,
            4000,
            SuiteKind::TlsRsa,
        ));
        assert!(
            (80_000.0..115_000.0).contains(&r.cps),
            "cps={} (expected card limit ~100K)",
            r.cps
        );
        assert!(r.qat_util > 0.8, "card should be nearly saturated");
    }

    /// A keep-alive background population with an optional ClientHello
    /// flood riding on top — the QFAM ablation scenario.
    fn flood_cfg(flood_clients: usize, admission: bool) -> SimConfig {
        let mut cfg =
            SimConfig::handshake(SimProfile::Sw, 8, 32, SuiteKind::EcdheRsa(NamedCurve::P256));
        cfg.request = Some(RequestLoad {
            size: 16 * 1024,
            requests_per_conn: 8,
        });
        // The background population is the QFAM priority class: warm
        // keep-alive clients that resume on reconnect (resumption proves
        // prior work and is admitted outright).
        cfg.resumes_per_full = u32::MAX;
        // WAN-ish sources: the closed-loop flood's reconnect rate is
        // RTT-paced, so a longer RTT keeps the challenge storm itself
        // from becoming the bottleneck (real floods are pps-bounded at
        // the NIC, not at the worker).
        cfg.cost.net.rtt_ns = 1_000_000;
        cfg.flood_clients = flood_clients;
        cfg.admission_enabled = admission;
        cfg.admission_watermark = 8;
        cfg
    }

    #[test]
    fn admission_absorbs_handshake_flood() {
        // A longer measurement window than `quick` stabilizes the p99
        // estimate (~3K connection samples instead of ~700).
        let flood_run = |cfg: SimConfig| {
            let mut cfg = cfg;
            cfg.warmup_ns = 1_500_000_000;
            cfg.measure_ns = 2_000_000_000;
            Sim::new(cfg).run()
        };
        let base = flood_run(flood_cfg(0, false));
        let unprotected = flood_run(flood_cfg(320, false));
        let protected = flood_run(flood_cfg(320, true));
        // Without admission control the flood's full handshakes saturate
        // the workers and established-connection latency collapses.
        assert!(
            unprotected.p99_latency_ms >= base.p99_latency_ms * 2.0,
            "flood must hurt without admission: base p99={} flooded p99={}",
            base.p99_latency_ms,
            unprotected.p99_latency_ms
        );
        assert!(
            unprotected.flood_handshakes > 0,
            "unprotected workers complete the adversary's handshakes"
        );
        // With admission on, the same flood is absorbed by cheap
        // challenges: established traffic stays within 1.2x of baseline.
        assert!(
            protected.p99_latency_ms <= base.p99_latency_ms * 1.2,
            "admission must protect established p99: base={} protected={}",
            base.p99_latency_ms,
            protected.p99_latency_ms
        );
        assert!(protected.challenges > 0, "flood must be challenged");
        assert_eq!(
            protected.flood_handshakes, 0,
            "spoofed sources can never complete a challenged handshake"
        );
        // Legitimate clients still make progress (token retry admits them).
        assert!(
            protected.rps > base.rps * 0.7,
            "background rps must survive the flood: base={} protected={}",
            base.rps,
            protected.rps
        );
    }

    /// A skewed service-time mix: a quarter of the clients carry heavy
    /// keep-alive record traffic, the rest are handshake-only — the mix
    /// where blind rotation starves whoever lands behind the heavies.
    fn skew_cfg(dispatch: SimDispatch, discipline: SimDiscipline) -> SimConfig {
        let mut cfg =
            SimConfig::handshake(SimProfile::Sw, 8, 64, SuiteKind::EcdheRsa(NamedCurve::P256));
        cfg.request = Some(RequestLoad {
            size: 64 * 1024,
            requests_per_conn: 16,
        });
        cfg.heavy_clients = 16;
        cfg.dispatch = dispatch;
        cfg.discipline = discipline;
        cfg
    }

    #[test]
    fn scheduling_knobs_default_inert() {
        // The scheduling knobs default to the seed's blind round-robin;
        // setting `heavy_clients` to "every client" must be
        // indistinguishable from leaving it at 0 (same event stream,
        // same LCG draw order), and the default discipline never steals.
        let base_cfg = flood_cfg(0, false);
        let mut explicit_cfg = base_cfg.clone();
        explicit_cfg.heavy_clients = explicit_cfg.clients;
        let base = quick(base_cfg);
        let explicit = quick(explicit_cfg);
        assert_eq!(base.handshakes, explicit.handshakes);
        assert_eq!(base.abbreviated, explicit.abbreviated);
        assert_eq!(base.steals, 0);
        assert_eq!(explicit.steals, 0);
    }

    #[test]
    fn stealing_relieves_skewed_backlog() {
        let rr = quick(skew_cfg(SimDispatch::RoundRobin, SimDiscipline::DFcfs));
        let steal = quick(skew_cfg(
            SimDispatch::LeastLoaded,
            SimDiscipline::DFcfsSteal,
        ));
        assert!(steal.steals > 0, "idle workers must steal under skew");
        assert!(
            steal.p99_latency_ms <= rr.p99_latency_ms,
            "least-loaded + stealing must not worsen tail latency: rr p99={} steal p99={}",
            rr.p99_latency_ms,
            steal.p99_latency_ms
        );
        assert!(
            steal.cps >= rr.cps * 0.9,
            "throughput parity: rr={} steal={}",
            rr.cps,
            steal.cps
        );
    }

    #[test]
    fn phase_split_serves_both_phases() {
        let mut cfg = skew_cfg(SimDispatch::LeastLoaded, SimDiscipline::DFcfsSteal);
        cfg.phase_split = Some((5, 3));
        let r = quick(cfg);
        assert!(r.handshakes > 0, "TLS pool must complete handshakes");
        assert!(r.rps > 0.0, "app pool must serve record traffic");
    }

    #[test]
    fn cfcfs_matches_work_but_pays_per_pop() {
        // cFCFS still serves the full mix (no lost work through the
        // shared queues) — the per-pop centralization cost is a
        // throughput tax, not a correctness change.
        let c = quick(skew_cfg(SimDispatch::RoundRobin, SimDiscipline::CFcfs));
        assert!(c.handshakes > 0);
        assert!(c.rps > 0.0);
        assert_eq!(c.steals, 0, "cFCFS does not steal");
    }

    #[test]
    fn admission_off_is_byte_for_byte_inert() {
        // The knobs default off; a config that never sets them must not
        // perturb the calibrated anchors (same event stream, same LCG
        // draw order).
        let a = quick(flood_cfg(0, false));
        let b = quick(flood_cfg(0, true));
        assert_eq!(a.handshakes, b.handshakes);
        assert_eq!(a.challenges, 0);
        assert_eq!(b.challenges, 0, "no flood, low load: watermark untouched");
        assert_eq!(a.flood_handshakes, 0);
    }
}
