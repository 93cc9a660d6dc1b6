//! Firmware-style counters — the equivalent of
//! `cat /sys/kernel/debug/qat*/fw_counters` the paper's artifact appendix
//! uses to check how many requests the accelerator processed.

use crate::request::OpClass;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic device counters (all relaxed; read for monitoring).
#[derive(Debug, Default)]
pub struct FwCounters {
    /// Requests accepted onto request rings.
    pub submitted: AtomicU64,
    /// Submissions rejected because the request ring was full.
    pub ring_full: AtomicU64,
    /// Ring-cursor publishes (one per `submit`, one per `submit_batch`
    /// regardless of batch size) — the per-doorbell cost batching
    /// amortizes. `submitted / doorbells` is the mean batch depth.
    pub doorbells: AtomicU64,
    /// Completed asymmetric operations.
    pub asym: AtomicU64,
    /// Completed cipher operations.
    pub cipher: AtomicU64,
    /// Completed PRF operations.
    pub prf: AtomicU64,
    /// Responses retrieved by polling.
    pub polled: AtomicU64,
    /// Engine stalls on a full response ring.
    pub resp_stalls: AtomicU64,
    /// Engine wake-ups that found every ring empty: the siblings a
    /// doorbell woke beside the engine that took its batch whole.
    pub empty_wakes: AtomicU64,
}

impl FwCounters {
    /// Record the completion of an operation of `class`.
    pub fn record_completion(&self, class: OpClass) {
        match class {
            OpClass::Asym => &self.asym,
            OpClass::Cipher => &self.cipher,
            OpClass::Prf => &self.prf,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Total completed operations across classes.
    pub fn total_completed(&self) -> u64 {
        self.asym.load(Ordering::Relaxed)
            + self.cipher.load(Ordering::Relaxed)
            + self.prf.load(Ordering::Relaxed)
    }

    /// Render in the debugfs style of the artifact appendix.
    pub fn render(&self) -> String {
        format!(
            "+------------------------------------------------+\n\
             | FW Counters (qtls-qat simulated device)        |\n\
             +------------------------------------------------+\n\
             | Requests submitted : {:>10}                |\n\
             | Ring-full rejects  : {:>10}                |\n\
             | Doorbell writes    : {:>10}                |\n\
             | Asym completed     : {:>10}                |\n\
             | Cipher completed   : {:>10}                |\n\
             | PRF completed      : {:>10}                |\n\
             | Responses polled   : {:>10}                |\n\
             | Empty wake-ups     : {:>10}                |\n\
             +------------------------------------------------+",
            self.submitted.load(Ordering::Relaxed),
            self.ring_full.load(Ordering::Relaxed),
            self.doorbells.load(Ordering::Relaxed),
            self.asym.load(Ordering::Relaxed),
            self.cipher.load(Ordering::Relaxed),
            self.prf.load(Ordering::Relaxed),
            self.polled.load(Ordering::Relaxed),
            self.empty_wakes.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_routing() {
        let c = FwCounters::default();
        c.record_completion(OpClass::Asym);
        c.record_completion(OpClass::Asym);
        c.record_completion(OpClass::Prf);
        c.record_completion(OpClass::Cipher);
        assert_eq!(c.asym.load(Ordering::Relaxed), 2);
        assert_eq!(c.prf.load(Ordering::Relaxed), 1);
        assert_eq!(c.cipher.load(Ordering::Relaxed), 1);
        assert_eq!(c.total_completed(), 4);
    }

    #[test]
    fn render_contains_counts() {
        let c = FwCounters::default();
        c.submitted.store(42, Ordering::Relaxed);
        c.doorbells.store(17, Ordering::Relaxed);
        let page = c.render();
        assert!(page.contains("42"));
        assert!(page.contains("Doorbell writes"));
        assert!(page.contains("17"));
    }
}
