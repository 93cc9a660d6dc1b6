//! The SSL Engine Framework configuration format (artifact appendix
//! §A.7): the paper's extension of Nginx's engine setting into a block
//! in the server configuration file:
//!
//! ```text
//! worker_processes 8;
//! ssl_engine {
//!     use qat_engine;
//!     default_algorithm RSA,EC,DH,PKEY_CRYPTO;
//!     qat_engine {
//!         qat_offload_mode async;
//!         qat_notify_mode poll;
//!         qat_poll_mode heuristic;
//!         qat_heuristic_poll_asym_threshold 48;
//!         qat_heuristic_poll_sym_threshold 24;
//!     }
//! }
//! ```
//!
//! [`parse_ssl_engine_conf`] turns this into an [`EngineDirectives`]
//! bundle (profile, offload selection, thresholds, worker count) that
//! maps directly onto [`crate::worker::WorkerConfig`].
//!
//! `default_algorithm` names the *eligible* classes — `RSA`/`EC`/`DH`
//! (asymmetric), `PKEY_CRYPTO`/`PRF`, `CIPHERS`, or `ALL`. Eligible is
//! not offloaded: an eligible asymmetric op always goes to the device,
//! an eligible PRF or record pass only when it processes at least
//! [`OffloadSelection::min_sym_bytes`] (2048 by default, no directive;
//! DESIGN.md §21), so under `ALL` every PRF and every sub-2 KB record
//! stays on the worker.

use crate::admission::AdmissionConfig;
use crate::metrics::MetricsConfig;
use crate::sched::DispatchPolicy;
use qtls_core::{HeuristicConfig, OffloadProfile};
use qtls_tls::provider::OffloadSelection;
use std::time::Duration;

/// Parsed configuration directives.
#[derive(Clone, Debug)]
pub struct EngineDirectives {
    /// `worker_processes N;`
    pub worker_processes: usize,
    /// Derived offload profile.
    pub profile: OffloadProfile,
    /// Which algorithm classes are eligible for offload
    /// (`default_algorithm`), with the default size rule.
    pub selection: OffloadSelection,
    /// Heuristic thresholds (`qat_heuristic_poll_*_threshold`).
    pub heuristic: HeuristicConfig,
    /// Timer poll interval (`qat_poll_interval_us`, for timer mode).
    pub timer_interval: Option<Duration>,
    /// Offload shards per worker (`qat_worker_shards N`); 0 = one per
    /// device endpoint.
    pub worker_shards: usize,
    /// Observability plane (`qat_metrics` directive family).
    pub metrics: MetricsConfig,
    /// Records per data-plane batch submission
    /// (`qat_record_batch_depth N`).
    pub record_batch_depth: usize,
    /// Shard count for the cluster-shared session/PSK store
    /// (`ssl_session_store_shards N`).
    pub session_store_shards: usize,
    /// Session/ticket lifetime (`ssl_session_timeout N`, seconds).
    pub session_timeout: Duration,
    /// Ticket key rotation interval (`ssl_ticket_key_rotation N`,
    /// seconds; 0 = never rotate).
    pub ticket_rotation: Duration,
    /// Handshake-flood admission control (`admission_*` family).
    pub admission: AdmissionConfig,
    /// How new sockets are routed to workers (`dispatch_policy
    /// round_robin|least_loaded`).
    pub dispatch_policy: DispatchPolicy,
    /// Idle workers steal half of the most-loaded sibling's accept
    /// backlog (`dispatch_steal on|off`).
    pub dispatch_steal: bool,
}

impl Default for EngineDirectives {
    fn default() -> Self {
        EngineDirectives {
            worker_processes: 1,
            profile: OffloadProfile::Sw,
            selection: OffloadSelection::default(),
            heuristic: HeuristicConfig::default(),
            timer_interval: None,
            worker_shards: 0,
            metrics: MetricsConfig::default(),
            record_batch_depth: qtls_tls::record::RecordCodec::DEFAULT_BATCH,
            session_store_shards: 8,
            session_timeout: Duration::from_secs(3600),
            ticket_rotation: Duration::ZERO,
            admission: AdmissionConfig::default(),
            dispatch_policy: DispatchPolicy::RoundRobin,
            dispatch_steal: false,
        }
    }
}

/// Configuration parse errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfError {
    /// Unbalanced `{`/`}`.
    UnbalancedBraces,
    /// A directive was malformed.
    BadDirective(String),
    /// A directive had an invalid value.
    BadValue(String),
    /// A directive the format no longer has: the behaviour it tuned is
    /// now fixed (see [`REMOVED_DIRECTIVES`]).
    Removed {
        /// The directive's name.
        directive: &'static str,
        /// What the server does instead.
        replacement: &'static str,
    },
}

impl std::fmt::Display for ConfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfError::UnbalancedBraces => f.write_str("unbalanced braces"),
            ConfError::BadDirective(d) => write!(f, "bad directive: {d}"),
            ConfError::BadValue(d) => write!(f, "bad value in: {d}"),
            ConfError::Removed {
                directive,
                replacement,
            } => write!(f, "directive {directive} was removed: {replacement}"),
        }
    }
}

/// Directives the format has dropped, each with the one behaviour that
/// replaced its settings (DESIGN.md §9, §10, §15). Naming one is an
/// error rather than a silent no-op, so a stale config is caught at
/// parse time.
pub const REMOVED_DIRECTIVES: [(&str, &str); 9] = [
    ("qat_submit_flush_mode", EAGER_FLUSH),
    ("qat_submit_flush_target_depth", EAGER_FLUSH),
    ("qat_submit_flush_max_hold_sweeps", EAGER_FLUSH),
    ("qat_submit_flush_max_hold_us", EAGER_FLUSH),
    ("qat_submit_flush_light_inflight", EAGER_FLUSH),
    ("qat_submit_flush_bypass", EAGER_FLUSH),
    (
        "qat_shard_policy",
        "a worker's offloads take its shards in round-robin order",
    ),
    ("shard_rebalance", FIXED_RING_PAIRS),
    ("shard_rebalance_threshold", FIXED_RING_PAIRS),
];

const EAGER_FLUSH: &str =
    "every sweep boundary publishes all staged submissions under one doorbell (eager flush)";
const FIXED_RING_PAIRS: &str =
    "a ring pair stays on the device endpoint it was allocated on for its lifetime";

impl std::error::Error for ConfError {}

/// Strip `#` comments, split into `;`-terminated directives and brace
/// tokens.
fn tokenize(input: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for line in input.lines() {
        let line = line.split('#').next().unwrap_or("");
        for ch in line.chars() {
            match ch {
                ';' => {
                    let t = current.trim();
                    if !t.is_empty() {
                        tokens.push(t.to_string());
                    }
                    current.clear();
                }
                '{' | '}' => {
                    let t = current.trim();
                    if !t.is_empty() {
                        tokens.push(t.to_string());
                    }
                    current.clear();
                    tokens.push(ch.to_string());
                }
                _ => current.push(ch),
            }
        }
        current.push(' ');
    }
    if !current.trim().is_empty() {
        tokens.push(current.trim().to_string());
    }
    tokens
}

/// Parse an Nginx-style configuration with the `ssl_engine` block.
pub fn parse_ssl_engine_conf(input: &str) -> Result<EngineDirectives, ConfError> {
    let mut out = EngineDirectives::default();
    let mut depth = 0usize;
    let mut use_engine = false;
    let mut offload_async = false;
    let mut poll_heuristic = true;
    let mut notify_bypass = true;

    for token in tokenize(input) {
        match token.as_str() {
            "{" => {
                depth += 1;
                continue;
            }
            "}" => {
                depth = depth.checked_sub(1).ok_or(ConfError::UnbalancedBraces)?;
                continue;
            }
            _ => {}
        }
        let mut parts = token.split_whitespace();
        let name = parts
            .next()
            .ok_or_else(|| ConfError::BadDirective(token.clone()))?;
        let value = parts.collect::<Vec<_>>().join(" ");
        let parse_u64 = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| ConfError::BadValue(token.clone()))
        };
        match name {
            "worker_processes" => {
                out.worker_processes = parse_u64(&value)? as usize;
                if out.worker_processes == 0 {
                    return Err(ConfError::BadValue(token.clone()));
                }
            }
            "load_module"
            | "events"
            | "http"
            | "server"
            | "listen"
            | "ssl_certificate"
            | "ssl_certificate_key"
            | "keepalive_timeout"
            | "ssl_session_cache"
            | "ssl_session_tickets" => {
                // Recognized-but-ignored standard directives.
            }
            "ssl_engine" | "qat_engine" if value.is_empty() => {
                // Block openers; the `{` token follows.
            }
            "use" => {
                use_engine = value == "qat_engine";
                if !use_engine {
                    return Err(ConfError::BadValue(token.clone()));
                }
            }
            "default_algorithm" => {
                let mut sel = OffloadSelection {
                    asym: false,
                    prf: false,
                    cipher: false,
                    ..out.selection
                };
                for alg in value.split(',') {
                    match alg.trim() {
                        "RSA" | "EC" | "DH" => sel.asym = true,
                        "PKEY_CRYPTO" | "PRF" => sel.prf = true,
                        "CIPHERS" | "CIPHER" => sel.cipher = true,
                        "ALL" => {
                            sel = OffloadSelection {
                                asym: true,
                                prf: true,
                                cipher: true,
                                ..sel
                            }
                        }
                        "" => {}
                        _ => return Err(ConfError::BadValue(token.clone())),
                    }
                }
                out.selection = sel;
            }
            "qat_offload_mode" => match value.as_str() {
                "async" => offload_async = true,
                "sync" => offload_async = false,
                _ => return Err(ConfError::BadValue(token.clone())),
            },
            "qat_notify_mode" => match value.as_str() {
                // `poll` = kernel-bypass (the async queue); `event` = FD.
                "poll" => notify_bypass = true,
                "event" => notify_bypass = false,
                _ => return Err(ConfError::BadValue(token.clone())),
            },
            "qat_poll_mode" => match value.as_str() {
                "heuristic" => poll_heuristic = true,
                "timer" => poll_heuristic = false,
                _ => return Err(ConfError::BadValue(token.clone())),
            },
            "qat_poll_interval_us" => {
                out.timer_interval = Some(Duration::from_micros(parse_u64(&value)?));
            }
            "qat_heuristic_poll_asym_threshold" => {
                out.heuristic.asym_threshold = parse_u64(&value)?;
            }
            "qat_heuristic_poll_sym_threshold" => {
                out.heuristic.sym_threshold = parse_u64(&value)?;
            }
            "qat_worker_shards" => {
                // 0 is the "auto" spelling: one shard per device endpoint.
                out.worker_shards = parse_u64(&value)? as usize;
            }
            "qat_record_batch_depth" => {
                let depth = parse_u64(&value)? as usize;
                if depth == 0 {
                    return Err(ConfError::BadValue(token.clone()));
                }
                out.record_batch_depth = depth;
            }
            "ssl_session_store_shards" => {
                let shards = parse_u64(&value)? as usize;
                if shards == 0 {
                    return Err(ConfError::BadValue(token.clone()));
                }
                out.session_store_shards = shards;
            }
            "ssl_session_timeout" => {
                out.session_timeout = Duration::from_secs(parse_u64(&value)?);
            }
            "ssl_ticket_key_rotation" => {
                out.ticket_rotation = Duration::from_secs(parse_u64(&value)?);
            }
            "admission_control" => match value.as_str() {
                "on" => out.admission.enabled = true,
                "off" => out.admission.enabled = false,
                _ => return Err(ConfError::BadValue(token.clone())),
            },
            "admission_watermark" => {
                let mark = parse_u64(&value)?;
                if mark == 0 {
                    return Err(ConfError::BadValue(token.clone()));
                }
                out.admission.watermark = mark;
            }
            "admission_accepts_per_sweep" => {
                let n = parse_u64(&value)? as usize;
                if n == 0 {
                    return Err(ConfError::BadValue(token.clone()));
                }
                out.admission.accepts_per_sweep = n;
            }
            "admission_backlog_cap" => {
                let cap = parse_u64(&value)? as usize;
                if cap == 0 {
                    return Err(ConfError::BadValue(token.clone()));
                }
                out.admission.backlog_cap = cap;
            }
            "admission_token_lifetime" => {
                let secs = parse_u64(&value)?;
                if secs == 0 {
                    return Err(ConfError::BadValue(token.clone()));
                }
                out.admission.token_lifetime = Duration::from_secs(secs);
            }
            "dispatch_policy" => match value.as_str() {
                "round_robin" => out.dispatch_policy = DispatchPolicy::RoundRobin,
                "least_loaded" => out.dispatch_policy = DispatchPolicy::LeastLoaded,
                _ => return Err(ConfError::BadValue(token.clone())),
            },
            "dispatch_steal" => match value.as_str() {
                "on" => out.dispatch_steal = true,
                "off" => out.dispatch_steal = false,
                _ => return Err(ConfError::BadValue(token.clone())),
            },
            "qat_metrics" => match value.as_str() {
                "on" => out.metrics.enabled = true,
                "off" => out.metrics.enabled = false,
                _ => return Err(ConfError::BadValue(token.clone())),
            },
            "qat_metrics_anomaly_p99_us" => {
                out.metrics.anomaly_p99_us = parse_u64(&value)?;
            }
            "qat_metrics_flight_capacity" => {
                let capacity = parse_u64(&value)? as usize;
                if capacity == 0 {
                    return Err(ConfError::BadValue(token.clone()));
                }
                out.metrics.flight_capacity = capacity;
            }
            "qat_anomaly_interval_ms" => {
                let interval = parse_u64(&value)?;
                if interval == 0 {
                    return Err(ConfError::BadValue(token.clone()));
                }
                out.metrics.anomaly_interval_ms = interval;
            }
            "trace_sample_rate" => {
                out.metrics.trace_sample_rate = parse_u64(&value)?;
            }
            "trace_buffer_spans" => {
                let spans = parse_u64(&value)? as usize;
                if spans == 0 {
                    return Err(ConfError::BadValue(token.clone()));
                }
                out.metrics.trace_buffer_spans = spans;
            }
            "trace_export" => match value.as_str() {
                "on" => out.metrics.trace_export = true,
                "off" => out.metrics.trace_export = false,
                _ => return Err(ConfError::BadValue(token.clone())),
            },
            _ => {
                return Err(match REMOVED_DIRECTIVES.iter().find(|(d, _)| *d == name) {
                    Some(&(directive, replacement)) => ConfError::Removed {
                        directive,
                        replacement,
                    },
                    None => ConfError::BadDirective(token.clone()),
                })
            }
        }
    }
    if depth != 0 {
        return Err(ConfError::UnbalancedBraces);
    }
    out.profile = match (use_engine, offload_async, poll_heuristic, notify_bypass) {
        (false, ..) => OffloadProfile::Sw,
        (true, false, ..) => OffloadProfile::QatS,
        (true, true, false, _) => OffloadProfile::QatA,
        (true, true, true, false) => OffloadProfile::QatAH,
        (true, true, true, true) => OffloadProfile::Qtls,
    };
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const APPENDIX_EXAMPLE: &str = r#"
worker_processes 8;
load_module modules/ngx_ssl_engine_qat_module.so;
ssl_engine {
    use qat_engine;
    default_algorithm RSA,EC,DH,PKEY_CRYPTO;
    qat_engine {
        qat_offload_mode async;
        qat_notify_mode poll;
        qat_poll_mode heuristic;
        qat_heuristic_poll_asym_threshold 48;
        qat_heuristic_poll_sym_threshold 24;
    }
}
"#;

    #[test]
    fn parses_the_artifact_appendix_example() {
        let d = parse_ssl_engine_conf(APPENDIX_EXAMPLE).unwrap();
        assert_eq!(d.worker_processes, 8);
        assert_eq!(d.profile, OffloadProfile::Qtls);
        // CIPHERS is not listed; the size rule keeps its default.
        assert_eq!(
            d.selection,
            OffloadSelection {
                cipher: false,
                ..OffloadSelection::default()
            }
        );
        assert_eq!(d.heuristic.asym_threshold, 48);
        assert_eq!(d.heuristic.sym_threshold, 24);
    }

    #[test]
    fn sync_mode_maps_to_straight_offload() {
        let conf = r#"
worker_processes 4;
ssl_engine {
    use qat_engine;
    qat_engine { qat_offload_mode sync; }
}
"#;
        let d = parse_ssl_engine_conf(conf).unwrap();
        assert_eq!(d.profile, OffloadProfile::QatS);
    }

    #[test]
    fn timer_polling_maps_to_qat_a() {
        let conf = r#"
ssl_engine {
    use qat_engine;
    qat_engine {
        qat_offload_mode async;
        qat_poll_mode timer;
        qat_poll_interval_us 10;
    }
}
"#;
        let d = parse_ssl_engine_conf(conf).unwrap();
        assert_eq!(d.profile, OffloadProfile::QatA);
        assert_eq!(d.timer_interval, Some(Duration::from_micros(10)));
    }

    #[test]
    fn fd_notification_maps_to_qat_ah() {
        let conf = r#"
ssl_engine {
    use qat_engine;
    qat_engine {
        qat_offload_mode async;
        qat_poll_mode heuristic;
        qat_notify_mode event;
    }
}
"#;
        let d = parse_ssl_engine_conf(conf).unwrap();
        assert_eq!(d.profile, OffloadProfile::QatAH);
    }

    #[test]
    fn no_engine_block_means_sw() {
        let d = parse_ssl_engine_conf("worker_processes 2;").unwrap();
        assert_eq!(d.profile, OffloadProfile::Sw);
        assert_eq!(d.worker_processes, 2);
    }

    #[test]
    fn comments_are_ignored() {
        let conf = "worker_processes 3; # the number of HT cores\n";
        assert_eq!(parse_ssl_engine_conf(conf).unwrap().worker_processes, 3);
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(
            parse_ssl_engine_conf("ssl_engine {"),
            Err(ConfError::UnbalancedBraces)
        ));
        assert!(matches!(
            parse_ssl_engine_conf("nonsense_directive on;"),
            Err(ConfError::BadDirective(_))
        ));
        assert!(matches!(
            parse_ssl_engine_conf("worker_processes many;"),
            Err(ConfError::BadValue(_))
        ));
        assert!(matches!(
            parse_ssl_engine_conf("worker_processes 0;"),
            Err(ConfError::BadValue(_))
        ));
        assert!(matches!(
            parse_ssl_engine_conf("ssl_engine { use openssl_default; }"),
            Err(ConfError::BadValue(_))
        ));
    }

    #[test]
    fn removed_directives_are_rejected_by_name() {
        for name in [
            "qat_submit_flush_mode",
            "qat_submit_flush_target_depth",
            "qat_submit_flush_max_hold_sweeps",
            "qat_submit_flush_max_hold_us",
            "qat_submit_flush_light_inflight",
            "qat_submit_flush_bypass",
            "qat_shard_policy",
            "shard_rebalance",
            "shard_rebalance_threshold",
        ] {
            for conf in [
                format!("{name} 1;"),
                format!("ssl_engine {{ use qat_engine; qat_engine {{ {name} on; }} }}"),
            ] {
                let err = parse_ssl_engine_conf(&conf).unwrap_err();
                let ConfError::Removed {
                    directive,
                    replacement,
                } = err
                else {
                    panic!("{conf}: expected ConfError::Removed, got {err:?}");
                };
                assert_eq!(directive, name);
                let shown = err.to_string();
                assert!(
                    shown.contains(name) && shown.contains(replacement),
                    "{shown}"
                );
            }
        }
    }

    #[test]
    fn sharding_directives_parse() {
        let conf = r#"
ssl_engine {
    use qat_engine;
    qat_engine {
        qat_offload_mode async;
        qat_worker_shards 4;
    }
}
"#;
        let d = parse_ssl_engine_conf(conf).unwrap();
        assert_eq!(d.worker_shards, 4);
        // Default: auto shard count.
        let d = parse_ssl_engine_conf(APPENDIX_EXAMPLE).unwrap();
        assert_eq!(d.worker_shards, 0);
    }

    #[test]
    fn sharding_rejects_a_bad_count() {
        let bad = "ssl_engine { use qat_engine; qat_engine { qat_worker_shards lots; } }";
        assert!(matches!(
            parse_ssl_engine_conf(bad),
            Err(ConfError::BadValue(_))
        ));
    }

    #[test]
    fn record_plane_directives_parse() {
        let conf = r#"
ssl_engine {
    use qat_engine;
    qat_engine {
        qat_offload_mode async;
        qat_record_batch_depth 32;
    }
}
"#;
        let d = parse_ssl_engine_conf(conf).unwrap();
        assert_eq!(d.record_batch_depth, 32);
        // Default: the codec's batch depth.
        let d = parse_ssl_engine_conf(APPENDIX_EXAMPLE).unwrap();
        assert_eq!(
            d.record_batch_depth,
            qtls_tls::record::RecordCodec::DEFAULT_BATCH
        );
    }

    #[test]
    fn record_plane_rejects_bad_values() {
        for bad in [
            "ssl_engine { use qat_engine; qat_engine { qat_record_batch_depth 0; } }",
            "ssl_engine { use qat_engine; qat_engine { qat_record_batch_depth deep; } }",
        ] {
            assert!(
                matches!(parse_ssl_engine_conf(bad), Err(ConfError::BadValue(_))),
                "should reject: {bad}"
            );
        }
    }

    #[test]
    fn metrics_directives_parse() {
        let conf = r#"
ssl_engine {
    use qat_engine;
    qat_engine {
        qat_offload_mode async;
        qat_metrics on;
        qat_metrics_anomaly_p99_us 5000;
        qat_metrics_flight_capacity 512;
        qat_anomaly_interval_ms 20;
        trace_sample_rate 64;
        trace_buffer_spans 8192;
        trace_export off;
    }
}
"#;
        let d = parse_ssl_engine_conf(conf).unwrap();
        assert!(d.metrics.enabled);
        assert_eq!(d.metrics.anomaly_p99_us, 5000);
        assert_eq!(d.metrics.flight_capacity, 512);
        assert_eq!(d.metrics.anomaly_interval_ms, 20);
        assert_eq!(d.metrics.trace_sample_rate, 64);
        assert_eq!(d.metrics.trace_buffer_spans, 8192);
        assert!(!d.metrics.trace_export);
        // Defaults: off, no anomaly threshold, default ring capacity,
        // tracing off with export allowed.
        let d = parse_ssl_engine_conf(APPENDIX_EXAMPLE).unwrap();
        assert!(!d.metrics.enabled);
        assert_eq!(d.metrics.anomaly_p99_us, 0);
        assert_eq!(
            d.metrics.flight_capacity,
            qtls_core::obs::FLIGHT_CAPACITY_DEFAULT
        );
        assert_eq!(
            d.metrics.anomaly_interval_ms,
            crate::metrics::ANOMALY_INTERVAL_MS_DEFAULT
        );
        assert_eq!(d.metrics.trace_sample_rate, 0);
        assert_eq!(
            d.metrics.trace_buffer_spans,
            qtls_core::obs::TRACE_BUFFER_SPANS_DEFAULT
        );
        assert!(d.metrics.trace_export);
    }

    #[test]
    fn metrics_rejects_bad_values() {
        for bad in [
            "ssl_engine { use qat_engine; qat_engine { qat_metrics maybe; } }",
            "ssl_engine { use qat_engine; qat_engine { qat_metrics_flight_capacity 0; } }",
            "ssl_engine { use qat_engine; qat_engine { qat_metrics_anomaly_p99_us soon; } }",
            "ssl_engine { use qat_engine; qat_engine { qat_anomaly_interval_ms 0; } }",
            "ssl_engine { use qat_engine; qat_engine { trace_sample_rate often; } }",
            "ssl_engine { use qat_engine; qat_engine { trace_buffer_spans 0; } }",
            "ssl_engine { use qat_engine; qat_engine { trace_export maybe; } }",
        ] {
            assert!(
                matches!(parse_ssl_engine_conf(bad), Err(ConfError::BadValue(_))),
                "should reject: {bad}"
            );
        }
    }

    #[test]
    fn resumption_directives_parse() {
        let conf = r#"
worker_processes 2;
ssl_session_store_shards 16;
ssl_session_timeout 300;
ssl_ticket_key_rotation 86400;
"#;
        let d = parse_ssl_engine_conf(conf).unwrap();
        assert_eq!(d.session_store_shards, 16);
        assert_eq!(d.session_timeout, Duration::from_secs(300));
        assert_eq!(d.ticket_rotation, Duration::from_secs(86400));
        // Defaults: 8 shards, 1h lifetime, no rotation.
        let d = parse_ssl_engine_conf(APPENDIX_EXAMPLE).unwrap();
        assert_eq!(d.session_store_shards, 8);
        assert_eq!(d.session_timeout, Duration::from_secs(3600));
        assert_eq!(d.ticket_rotation, Duration::ZERO);
    }

    #[test]
    fn resumption_rejects_bad_values() {
        for bad in [
            "ssl_session_store_shards 0;",
            "ssl_session_store_shards many;",
            "ssl_session_timeout forever;",
            "ssl_ticket_key_rotation weekly;",
        ] {
            assert!(
                matches!(parse_ssl_engine_conf(bad), Err(ConfError::BadValue(_))),
                "should reject: {bad}"
            );
        }
    }

    #[test]
    fn admission_directives_parse() {
        let conf = r#"
worker_processes 2;
admission_control on;
admission_watermark 32;
admission_accepts_per_sweep 16;
admission_backlog_cap 1024;
admission_token_lifetime 10;
"#;
        let d = parse_ssl_engine_conf(conf).unwrap();
        assert!(d.admission.enabled);
        assert_eq!(d.admission.watermark, 32);
        assert_eq!(d.admission.accepts_per_sweep, 16);
        assert_eq!(d.admission.backlog_cap, 1024);
        assert_eq!(d.admission.token_lifetime, Duration::from_secs(10));
        // Defaults: off, watermark 64, 64 accepts/sweep, listener
        // default backlog, 30 s tokens.
        let d = parse_ssl_engine_conf(APPENDIX_EXAMPLE).unwrap();
        assert!(!d.admission.enabled);
        assert_eq!(d.admission.watermark, 64);
        assert_eq!(d.admission.accepts_per_sweep, 64);
        assert_eq!(d.admission.backlog_cap, crate::net::DEFAULT_BACKLOG);
        assert_eq!(d.admission.token_lifetime, Duration::from_secs(30));
    }

    #[test]
    fn admission_rejects_bad_values() {
        for bad in [
            "admission_control maybe;",
            "admission_watermark 0;",
            "admission_watermark deep;",
            "admission_accepts_per_sweep 0;",
            "admission_backlog_cap 0;",
            "admission_token_lifetime 0;",
            "admission_token_lifetime soon;",
        ] {
            assert!(
                matches!(parse_ssl_engine_conf(bad), Err(ConfError::BadValue(_))),
                "should reject: {bad}"
            );
        }
    }

    #[test]
    fn scheduling_directives_parse() {
        let conf = r#"
worker_processes 4;
dispatch_policy least_loaded;
dispatch_steal on;
"#;
        let d = parse_ssl_engine_conf(conf).unwrap();
        assert_eq!(d.dispatch_policy, DispatchPolicy::LeastLoaded);
        assert!(d.dispatch_steal);
        // Defaults: blind round-robin, no stealing.
        let d = parse_ssl_engine_conf(APPENDIX_EXAMPLE).unwrap();
        assert_eq!(d.dispatch_policy, DispatchPolicy::RoundRobin);
        assert!(!d.dispatch_steal);
    }

    #[test]
    fn scheduling_rejects_bad_values() {
        for bad in ["dispatch_policy fastest;", "dispatch_steal maybe;"] {
            assert!(
                matches!(parse_ssl_engine_conf(bad), Err(ConfError::BadValue(_))),
                "should reject: {bad}"
            );
        }
    }

    #[test]
    fn all_algorithms_keyword() {
        let conf = r#"
ssl_engine {
    use qat_engine;
    default_algorithm ALL;
    qat_engine { qat_offload_mode async; }
}
"#;
        let d = parse_ssl_engine_conf(conf).unwrap();
        // Every class eligible; PRFs and small records still stay inline.
        assert_eq!(d.selection, OffloadSelection::default());
    }
}
