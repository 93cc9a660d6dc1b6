//! The calibrated cost model of the simulated testbed.
//!
//! Every constant is in nanoseconds of a hyper-threaded E5-2699 v4 worker
//! core (the paper's platform) unless stated otherwise. Calibration
//! anchors (derived from the paper's own reported numbers and public
//! OpenSSL speed / QAT datasheet figures) are noted per constant; the
//! system-level results of Figs. 7–12 are *emergent* from these
//! per-operation costs, not fitted per figure. See EXPERIMENTS.md for
//! the paper-vs-measured comparison.

use qtls_crypto::ecc::NamedCurve;
use qtls_qat::ServiceTable;

/// Software (CPU) crypto costs — the `SW` baseline with AES-NI-class
/// symmetric performance.
#[derive(Clone, Debug)]
pub struct SwCrypto {
    /// RSA-2048 private-key op. ≈600 ops/s/HT-core, consistent with the
    /// paper's 4.3K CPS on 8 HT workers for TLS-RSA (Fig. 7a anchor).
    pub rsa2048_ns: u64,
    /// ECDSA P-256 sign — the "Montgomery friendly" optimized
    /// implementation the paper highlights (2.33x faster than generic).
    pub ecdsa_p256_sign_ns: u64,
    /// P-256 ephemeral keygen (fixed-base multiplication).
    pub ec_keygen_p256_ns: u64,
    /// P-256 ECDH derive (variable-base multiplication).
    pub ecdh_p256_ns: u64,
    /// P-384 sign / keygen / derive: no Montgomery-domain shortcut;
    /// OpenSSL generic path is an order of magnitude slower.
    pub ecdsa_p384_sign_ns: u64,
    /// P-384 keygen.
    pub ec_keygen_p384_ns: u64,
    /// P-384 derive.
    pub ecdh_p384_ns: u64,
    /// Binary-curve (283-bit) sign/keygen (GF(2^m) software is slow).
    pub ec_b283_op_ns: u64,
    /// Binary-curve 283-bit variable-base multiplication.
    pub ecdh_b283_ns: u64,
    /// Binary-curve (409-bit) fixed-base op.
    pub ec_b409_op_ns: u64,
    /// Binary-curve 409-bit variable-base multiplication.
    pub ecdh_b409_ns: u64,
    /// One TLS 1.2 PRF invocation (multiple SHA-256 rounds).
    pub prf_ns: u64,
    /// One HKDF extract/expand (TLS 1.3; never offloaded).
    pub hkdf_ns: u64,
    /// AES-128-CBC + HMAC-SHA1 per 16 KB record (serial CBC ≈ 340 MB/s
    /// per HT core — the ~85% throughput drop at 100 KB of §2.1).
    pub cipher_16kb_ns: u64,
}

impl Default for SwCrypto {
    fn default() -> Self {
        SwCrypto {
            rsa2048_ns: 1_650_000,
            ecdsa_p256_sign_ns: 30_000,
            ec_keygen_p256_ns: 25_000,
            ecdh_p256_ns: 80_000,
            ecdsa_p384_sign_ns: 600_000,
            ec_keygen_p384_ns: 600_000,
            ecdh_p384_ns: 1_700_000,
            ec_b283_op_ns: 1_000_000,
            ecdh_b283_ns: 2_300_000,
            ec_b409_op_ns: 2_600_000,
            ecdh_b409_ns: 5_800_000,
            prf_ns: 25_000,
            hkdf_ns: 12_000,
            cipher_16kb_ns: 48_000,
        }
    }
}

impl SwCrypto {
    /// CPU cost of an EC sign on `curve`.
    pub fn ec_sign_ns(&self, curve: NamedCurve) -> u64 {
        match curve {
            NamedCurve::P256 => self.ecdsa_p256_sign_ns,
            NamedCurve::P384 => self.ecdsa_p384_sign_ns,
            NamedCurve::B283 | NamedCurve::K283 => self.ec_b283_op_ns,
            NamedCurve::B409 | NamedCurve::K409 => self.ec_b409_op_ns,
        }
    }

    /// CPU cost of an EC keygen on `curve`.
    pub fn ec_keygen_ns(&self, curve: NamedCurve) -> u64 {
        match curve {
            NamedCurve::P256 => self.ec_keygen_p256_ns,
            NamedCurve::P384 => self.ec_keygen_p384_ns,
            NamedCurve::B283 | NamedCurve::K283 => self.ec_b283_op_ns,
            NamedCurve::B409 | NamedCurve::K409 => self.ec_b409_op_ns,
        }
    }

    /// CPU cost of an ECDH derive on `curve`.
    pub fn ecdh_ns(&self, curve: NamedCurve) -> u64 {
        match curve {
            NamedCurve::P256 => self.ecdh_p256_ns,
            NamedCurve::P384 => self.ecdh_p384_ns,
            NamedCurve::B283 | NamedCurve::K283 => self.ecdh_b283_ns,
            NamedCurve::B409 | NamedCurve::K409 => self.ecdh_b409_ns,
        }
    }

    /// Cipher cost scaled by record size.
    pub fn cipher_ns(&self, bytes: u64) -> u64 {
        ((bytes as f64 / (16.0 * 1024.0)) * self.cipher_16kb_ns as f64) as u64
    }
}

/// Non-crypto per-connection TLS/HTTP processing costs (message parsing,
/// state machine, socket syscalls, memory management).
#[derive(Clone, Debug)]
pub struct ProcCosts {
    /// accept() + connection setup.
    pub accept_ns: u64,
    /// ClientHello parsing + ServerHello flight construction.
    pub ch_flight_ns: u64,
    /// ClientKeyExchange/Finished flight processing.
    pub ckx_flight_ns: u64,
    /// Final flight construction (NST/CCS/Finished) + teardown prep.
    pub finish_ns: u64,
    /// Extra processing in TLS 1.3 (heavier extensions, schedule glue).
    pub tls13_extra_ns: u64,
    /// HTTP request parsing + response header construction.
    pub http_request_ns: u64,
    /// Per-record framing/socket cost during transfer.
    pub per_record_ns: u64,
}

impl Default for ProcCosts {
    fn default() -> Self {
        ProcCosts {
            accept_ns: 15_000,
            ch_flight_ns: 70_000,
            ckx_flight_ns: 45_000,
            finish_ns: 40_000,
            tls13_extra_ns: 25_000,
            http_request_ns: 50_000,
            per_record_ns: 3_000,
        }
    }
}

/// Costs of the offload machinery itself.
#[derive(Clone, Debug)]
pub struct OffloadCosts {
    /// Per-submission fixed cost: ring-cursor publish + doorbell (MMIO)
    /// write. Batched submission amortizes this over the batch.
    pub submit_doorbell_ns: u64,
    /// Per-request submission cost: building the descriptor and writing
    /// the ring slot. Paid for every request, batched or not.
    pub submit_per_req_ns: u64,
    /// Fiber pause + resume pair (the "slight performance penalty" of
    /// fiber async, §4.1).
    pub pause_resume_ns: u64,
    /// One polling operation (ring scan), excluding per-response work.
    pub poll_ns: u64,
    /// Per-response retrieval + callback dispatch.
    pub per_response_ns: u64,
    /// One context switch (polling thread <-> worker, same core).
    pub ctx_switch_ns: u64,
    /// One user/kernel mode switch (eventfd write / epoll / read).
    pub kernel_switch_ns: u64,
    /// Kernel switches per FD-notified async event (write + epoll_wait
    /// amortized + read).
    pub fd_switches_per_event: u64,
    /// Async-queue push+pop (kernel-bypass; pure user space).
    pub queue_op_ns: u64,
    /// Event-loop wake-up latency before an idle worker's
    /// timeliness-triggered poll executes (a busy-looping QAT+S worker
    /// pays no such wake-up — why QAT+S has the lowest latency at
    /// concurrency 1, Fig. 11).
    pub idle_wake_ns: u64,
    /// Fixed request latency before an engine starts (DMA, firmware
    /// dispatch) — hidden by concurrency in async mode, fully exposed in
    /// straight-offload mode. Asymmetric ops take the long path.
    pub fixed_latency_asym_ns: u64,
    /// Fixed latency for symmetric/PRF requests.
    pub fixed_latency_sym_ns: u64,
}

impl Default for OffloadCosts {
    fn default() -> Self {
        OffloadCosts {
            submit_doorbell_ns: 3_500,
            submit_per_req_ns: 1_500,
            pause_resume_ns: 4_000,
            poll_ns: 1_000,
            per_response_ns: 700,
            ctx_switch_ns: 500,
            kernel_switch_ns: 1_300,
            fd_switches_per_event: 3,
            queue_op_ns: 150,
            idle_wake_ns: 12_000,
            fixed_latency_asym_ns: 120_000,
            fixed_latency_sym_ns: 25_000,
        }
    }
}

/// How the simulated worker amortizes the submission doorbell — the
/// paper-ablation model of the flush trade (the functional pipeline
/// flushes eagerly at every sweep boundary, DESIGN.md §9).
///
/// The simulator does not replay individual sweeps; instead each policy
/// maps the instantaneous submission concurrency (`avail`: how many
/// requests the worker realistically has to batch with this one, i.e.
/// its async inflight count plus the request being submitted) to an
/// effective batch depth and an added staging delay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimFlushPolicy {
    /// Legacy knob: assume a fixed mean batch depth regardless of load
    /// (the PR 2 `submit_flush_depth` semantics; 1 = per-request
    /// doorbells).
    AssumedDepth(u64),
    /// Fixed-depth batching with holds: the worker waits until `depth`
    /// requests are staged before ringing. Under light load the batch
    /// cannot fill and a held request pays the hold cap as extra
    /// latency; cost amortization is bounded by what is actually
    /// available.
    FixedHold {
        /// Target batch depth.
        depth: u64,
    },
    /// The adaptive policy: flush immediately when load is light (depth
    /// = what is available, no hold delay), deepen batches up to
    /// `max_depth` under saturation.
    Adaptive {
        /// Depth cap under saturation.
        max_depth: u64,
    },
}

impl Default for SimFlushPolicy {
    fn default() -> Self {
        SimFlushPolicy::AssumedDepth(1)
    }
}

impl SimFlushPolicy {
    /// Effective batch depth the doorbell is amortized over, given
    /// `avail` requests realistically available to batch.
    pub fn effective_depth(&self, avail: u64) -> u64 {
        match *self {
            SimFlushPolicy::AssumedDepth(d) => d.max(1),
            SimFlushPolicy::FixedHold { depth } => depth.min(avail).max(1),
            SimFlushPolicy::Adaptive { max_depth } => max_depth.min(avail).max(1),
        }
    }

    /// Staging delay added to the request's latency before it reaches
    /// the device: a fixed-depth policy holds a request that cannot fill
    /// its batch until the starvation cap expires; the adaptive policy
    /// (and the legacy assumed-depth model) never hold.
    pub fn hold_ns(&self, avail: u64, hold_cap_ns: u64) -> u64 {
        match *self {
            SimFlushPolicy::AssumedDepth(_) | SimFlushPolicy::Adaptive { .. } => 0,
            SimFlushPolicy::FixedHold { depth } => {
                if avail < depth {
                    hold_cap_ns
                } else {
                    0
                }
            }
        }
    }

    /// CPU cost of submitting one request under this policy.
    pub fn submit_cost_ns(&self, off: &OffloadCosts, avail: u64) -> u64 {
        off.submit_per_req_ns + off.submit_doorbell_ns.div_ceil(self.effective_depth(avail))
    }
}

/// Network model: back-to-back 40 GbE links to two client machines.
#[derive(Clone, Debug)]
pub struct NetCosts {
    /// Round-trip time between client and server.
    pub rtt_ns: u64,
    /// Aggregate server egress bandwidth in Gbit/s (2 × 40 GbE).
    pub egress_gbps: f64,
}

impl Default for NetCosts {
    fn default() -> Self {
        NetCosts {
            rtt_ns: 100_000,
            egress_gbps: 80.0,
        }
    }
}

/// The full testbed cost model.
#[derive(Clone, Debug, Default)]
pub struct CostModel {
    /// Software crypto costs.
    pub sw: SwCrypto,
    /// Protocol processing costs.
    pub proc: ProcCosts,
    /// Offload machinery costs.
    pub offload: OffloadCosts,
    /// Network model.
    pub net: NetCosts,
    /// QAT per-op service times (shared with the threaded device model).
    pub qat: ServiceTable,
}

/// Number of QAT engines on the card (3 endpoints × 12, DH8970-like;
/// gives the ≈100K RSA-2048 ops/s "upper limit" of Fig. 7a).
pub const QAT_ENGINES: usize = 36;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sw_tls_rsa_anchor() {
        // 8 HT workers should give ≈4.3K CPS for SW TLS-RSA (Fig. 7a).
        let m = CostModel::default();
        let handshake_ns = m.proc.accept_ns
            + m.proc.ch_flight_ns
            + m.proc.ckx_flight_ns
            + m.proc.finish_ns
            + m.sw.rsa2048_ns
            + 4 * m.sw.prf_ns;
        let cps = 8.0 / (handshake_ns as f64 / 1e9);
        assert!((3800.0..4800.0).contains(&cps), "cps={cps}");
    }

    #[test]
    fn qat_card_capacity_anchor() {
        // ≈100K RSA ops/s card limit.
        let m = CostModel::default();
        let ops = QAT_ENGINES as f64 / (m.qat.rsa2048_ns as f64 / 1e9);
        assert!((90_000.0..110_000.0).contains(&ops), "{ops}");
    }

    #[test]
    fn polling_thread_tax_anchor() {
        // A 10 µs timer poller costs ≈20% of the worker core (the
        // QAT+A → QAT+AH gap of Fig. 7a).
        let m = CostModel::default();
        let per_tick = 2 * m.offload.ctx_switch_ns + m.offload.poll_ns;
        let tax = per_tick as f64 / 10_000.0;
        assert!((0.15..0.35).contains(&tax), "tax={tax}");
    }

    #[test]
    fn sw_cipher_throughput_anchor() {
        // ≈340 MB/s per HT core for AES-CBC+HMAC-SHA1.
        let m = CostModel::default();
        let mbps = (16.0 * 1024.0) / (m.sw.cipher_16kb_ns as f64 / 1e9) / 1e6;
        assert!((250.0..450.0).contains(&mbps), "{mbps}");
    }

    #[test]
    fn flush_policy_cost_parity_at_both_ends() {
        // The adaptive policy must match the best fixed policy at each
        // end of the load curve. Saturation (64 inflight): adaptive@16
        // amortizes exactly like FixedHold@16 — identical per-request
        // cost, and both hold nothing because the batch fills. Light
        // load (nothing else inflight): adaptive flushes depth-1 like
        // FixedHold@1 — identical cost and zero staging delay, while
        // FixedHold@16 pays the full hold cap in latency.
        let off = OffloadCosts::default();
        let adaptive = SimFlushPolicy::Adaptive { max_depth: 16 };
        let fixed1 = SimFlushPolicy::FixedHold { depth: 1 };
        let fixed16 = SimFlushPolicy::FixedHold { depth: 16 };
        let cap = 50_000;

        // Saturation: avail = 64.
        assert_eq!(
            adaptive.submit_cost_ns(&off, 64),
            fixed16.submit_cost_ns(&off, 64)
        );
        assert_eq!(
            adaptive.submit_cost_ns(&off, 64),
            1_500 + 3_500_u64.div_ceil(16)
        );
        assert_eq!(adaptive.hold_ns(64, cap), 0);
        assert_eq!(fixed16.hold_ns(64, cap), 0);

        // Light load: avail = 1.
        assert_eq!(
            adaptive.submit_cost_ns(&off, 1),
            fixed1.submit_cost_ns(&off, 1)
        );
        assert_eq!(adaptive.submit_cost_ns(&off, 1), 1_500 + 3_500);
        assert_eq!(adaptive.hold_ns(1, cap), 0);
        assert_eq!(fixed16.hold_ns(1, cap), cap, "shallow batch pays the cap");

        // Legacy assumed-depth semantics: depth independent of avail.
        assert_eq!(
            SimFlushPolicy::AssumedDepth(16).submit_cost_ns(&off, 1),
            1_500 + 3_500_u64.div_ceil(16)
        );
    }

    #[test]
    fn montgomery_p256_is_fast() {
        // The paper's §5.2 observation: optimized P-256 sign beats even
        // the accelerator's per-op latency.
        let m = CostModel::default();
        assert!(m.sw.ecdsa_p256_sign_ns < m.qat.ecc_p256_ns);
        // ...while P-384 software (no Montgomery shortcut) is an order of
        // magnitude slower than optimized P-256.
        assert!(m.sw.ecdsa_p384_sign_ns >= 10 * m.sw.ecdsa_p256_sign_ns);
    }
}
