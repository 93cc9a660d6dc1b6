//! Quickstart: the four phases of the asynchronous offload framework,
//! on the real (threaded, real-compute) QAT device model.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use qtls::core::{poll_pass, EngineMode, OffloadEngine, WaitCtx};
use qtls::crypto::test_keys::test_rsa_2048;
use qtls::qat::{CryptoOp, QatConfig, QatDevice};
use std::sync::Arc;
use std::task::Poll;
use std::time::Instant;

fn main() {
    println!("== QTLS quickstart: asynchronous crypto offload ==\n");

    // A software-modeled QAT card: 1 endpoint, 4 computation engines,
    // real crypto executed on the engine threads.
    let device = QatDevice::new(QatConfig {
        endpoints: 1,
        engines_per_endpoint: 4,
        ..QatConfig::functional_small()
    });
    let engine = OffloadEngine::new(device.alloc_instance(), EngineMode::Async);
    let key = Arc::new(test_rsa_2048().clone());

    // --- Phase 1: pre-processing ------------------------------------
    // Start N offload passes; each is a future that submits an RSA-2048
    // signature request and answers `Pending` — the crypto pause is a
    // plain return. All N requests are inflight CONCURRENTLY from one
    // thread — the core capability straight offload lacks.
    let n = 8;
    let t0 = Instant::now();
    let mut passes = Vec::new();
    for i in 0..n {
        let wait = Arc::new(WaitCtx::new());
        let mut pass = Box::pin(engine.offload_async(CryptoOp::RsaSign {
            key: Arc::clone(&key),
            msg: format!("handshake transcript #{i}").into_bytes(),
        }));
        assert!(
            poll_pass(Some(&wait), pass.as_mut()).is_pending(),
            "an offload is pending until its response is retrieved"
        );
        passes.push((wait, pass));
    }
    println!(
        "submitted {n} RSA-2048 sign requests concurrently in {:?} \
         (inflight: {})",
        t0.elapsed(),
        engine.inflight().total()
    );

    // --- Phase 2: QAT response retrieval ------------------------------
    while engine.inflight().total() > 0 {
        engine.poll_all();
        std::thread::yield_now();
    }

    // --- Phases 3+4: notification happened via the wait contexts; the
    // next poll of each pass consumes its parked result
    // (post-processing).
    for (i, (wait, mut pass)) in passes.into_iter().enumerate() {
        match poll_pass(Some(&wait), pass.as_mut()) {
            Poll::Ready(result) => {
                let sig = result.expect("signing succeeded").into_bytes();
                key.public()
                    .verify_pkcs1_sha256(format!("handshake transcript #{i}").as_bytes(), &sig)
                    .expect("signature verifies");
            }
            Poll::Pending => unreachable!("result was ready"),
        }
    }
    let elapsed = t0.elapsed();
    println!("all {n} signatures completed and verified in {elapsed:?}");
    println!(
        "(a blocking client would have serialized them: ~{:?} estimated)\n",
        elapsed * 4 // 4 engines worked in parallel
    );

    println!("{}", device.fw_counters().render());
}
