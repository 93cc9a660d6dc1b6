//! The repo's end-to-end benchmark: boots the real stack in-process,
//! drives one workload from its own closed-loop clients, checks every
//! response and the server's counters, and prints every metric by name
//! (`name unit value`) followed by one JSON object on the last line.
//!
//! `--trace 0` measures the end-to-end metrics with all tracing off.
//! `--trace 1` measures the per-layer metrics: a short untraced pass,
//! the same pass with the metrics plane, 1-in-1 connection tracing and
//! client spans on, then the layer probes. See `benchmark/README.md`.

mod client;
mod cpu;
mod probes;
mod server;
mod stats;
mod workload;

use client::ConnRecord;
use qtls_core::obs::SpanKind;
use qtls_server::MetricsPlane;
use qtls_tls::client::ClientSession;
use qtls_tls::suite::Version;
use qtls_tls::tls13::Tls13ClientSession;
use server::{Server, ServerTotals};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Op, Workload, CLIENTS};

/// Fresh processes timed per run for `setup_s` (the median is reported).
const SETUP_RUNS: usize = 5;

/// The measured window is cut into this many slices; throughput is the
/// median slice rate, so one slow spell on a shared host moves it little.
const SLICES: u64 = 5;

/// Reported in place of a CPU share that could not be read (the reason
/// is printed); never a zero that could be mistaken for a measurement.
const NOT_REPORTED: f64 = -1.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_child = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--setup-child" {
            setup_child = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes a whole number")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        setup_child,
    })
}

/// One printed metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    /// Sample counts and the like, for the human-readable line only.
    note: String,
}

fn metric(name: &str, unit: &'static str, value: f64, note: impl Into<String>) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        note: note.into(),
    }
}

/// Everything one pass over a freshly booted server produced.
struct Pass {
    conns: Vec<ConnRecord>,
    /// The measured window, ns since the pass began.
    window: (u64, u64),
    totals: ServerTotals,
    plane: Arc<MetricsPlane>,
    /// Firmware `(submitted, doorbells)`; `None` without a device.
    fw: Option<(u64, u64)>,
    /// CPU shares over the window (traced passes only).
    cpu: Option<Result<cpu::Shares, String>>,
}

fn spawn_clients(
    workload: &Workload,
    clients: usize,
    server: &Server,
    seed: u64,
    stop: &Arc<AtomicBool>,
    t0: Instant,
) -> Vec<std::thread::JoinHandle<Vec<ConnRecord>>> {
    let listener = server.listener();
    match workload.version {
        Version::Tls12 => {
            client::spawn::<ClientSession>(workload, clients, &listener, seed, stop, t0)
        }
        Version::Tls13 => {
            client::spawn::<Tls13ClientSession>(workload, clients, &listener, seed, stop, t0)
        }
    }
}

fn run_pass(
    workload: &Workload,
    seed: u64,
    warmup: Duration,
    measure: Duration,
    traced: bool,
) -> Pass {
    let server = Server::boot(workload, traced);
    let stop = Arc::new(AtomicBool::new(false));
    let t0 = Instant::now();
    let handles = spawn_clients(workload, CLIENTS, &server, seed, &stop, t0);
    std::thread::sleep(warmup);
    let cpu_before = traced.then(cpu::sample);
    let start = t0.elapsed().as_nanos() as u64;
    std::thread::sleep(measure);
    let end = t0.elapsed().as_nanos() as u64;
    let cpu = cpu_before.map(|before| cpu::shares(&before?, &cpu::sample()?));
    stop.store(true, Ordering::Relaxed);
    let conns: Vec<ConnRecord> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    // A sampled connection publishes its spans when the worker reaps it.
    let plane = server.plane();
    let reaped_by = Instant::now() + Duration::from_secs(2);
    while plane.snapshot().tc_alive > 0 && Instant::now() < reaped_by {
        std::thread::sleep(Duration::from_millis(1));
    }
    let fw = server.device().map(|device| {
        let counters = device.fw_counters();
        (
            counters.submitted.load(Ordering::Relaxed),
            counters.doorbells.load(Ordering::Relaxed),
        )
    });
    Pass {
        conns,
        window: (start, end),
        totals: server.shutdown(),
        plane,
        fw,
        cpu,
    }
}

/// The timed operations of a pass.
struct Ops {
    attempted: u64,
    failed: u64,
    /// Latency of the operations completed inside the window.
    latency: stats::Latency,
    /// Completed operations per second: the median slice rate.
    per_s: f64,
    /// Every slice's rate, for the printed note.
    slice_rates: Vec<f64>,
}

fn ops_of(workload: &Workload, pass: &Pass) -> Ops {
    let mut attempted = 0u64;
    let mut failed = 0u64;
    // (completion time, latency) of every successful operation.
    let mut done: Vec<(u64, u64)> = Vec::new();
    for conn in &pass.conns {
        let failed_here = u64::from(conn.error.is_some());
        failed += failed_here;
        match workload.op {
            Op::Connection => {
                attempted += 1;
                if conn.error.is_none() {
                    done.push((conn.end_ns, conn.end_ns - conn.start_ns));
                }
            }
            Op::Request => {
                attempted += conn.reqs.len() as u64 + failed_here;
                done.extend(conn.reqs.iter().map(|&(start, end)| (end, end - start)));
            }
        }
    }
    let (start, end) = pass.window;
    let slice = (end - start) / SLICES;
    let mut counts = [0u64; SLICES as usize];
    let mut latencies = Vec::new();
    for (at, latency) in done {
        if at >= start && at < start + slice * SLICES {
            counts[((at - start) / slice) as usize] += 1;
            latencies.push(latency);
        }
    }
    let rates: Vec<f64> = counts
        .iter()
        .map(|&c| c as f64 * 1e9 / slice as f64)
        .collect();
    Ops {
        attempted,
        failed,
        latency: stats::latency(latencies),
        per_s: stats::median(&rates),
        slice_rates: rates,
    }
}

/// Correctness of a pass beyond the per-response checks the clients
/// already made: the server's counters must match what the clients saw.
fn check_pass(pass: &Pass, failures: &mut Vec<String>) {
    let mut expect = |what: &str, server: u64, client: u64| {
        if server != client {
            failures.push(format!("{what}: server {server}, client {client}"));
        }
    };
    let conns = &pass.conns;
    let stats = &pass.totals.stats;
    for conn in conns.iter().filter(|c| c.error.is_some()).take(5) {
        eprintln!(
            "client {} failed at {} ns: {}",
            conn.client,
            conn.end_ns,
            conn.error.as_deref().unwrap_or("")
        );
    }
    expect("accepted", stats.accepted, conns.len() as u64);
    expect(
        "handshakes",
        stats.handshakes,
        conns.iter().filter(|c| c.hs_end_ns != 0).count() as u64,
    );
    expect(
        "requests",
        stats.requests,
        conns.iter().map(|c| c.reqs.len() as u64).sum(),
    );
    expect(
        "resumed_handshakes",
        stats.resumed,
        conns.iter().filter(|c| c.resumed).count() as u64,
    );
    expect("errors", stats.errors, 0);
    expect("resume_miss", stats.resume_miss, 0);
    // Stronger than a ratio band: each connection resumed exactly when
    // the seeded schedule said it would.
    let off_plan = conns
        .iter()
        .filter(|c| c.hs_end_ns != 0 && c.resumed != c.planned_resume)
        .count();
    if off_plan != 0 {
        failures.push(format!(
            "{off_plan} connections off the resumption schedule"
        ));
    }
    if let Err(why) = &pass.totals.conserved {
        failures.push(format!("socket conservation: {why}"));
    }
}

fn end_to_end(workload: &Workload, ops: &Ops, setup_s: f64, setup_note: String) -> Vec<Metric> {
    let note = format!("n={}", ops.latency.n);
    let slices: Vec<String> = ops.slice_rates.iter().map(|r| format!("{r:.1}")).collect();
    vec![
        metric("setup_s", "s", setup_s, setup_note),
        metric(
            "ops_per_s",
            "1/s",
            ops.per_s,
            format!("{note} slices: {}", slices.join(" ")),
        ),
        metric("op_p50_us", "us", ops.latency.p50_us, note.clone()),
        metric(
            "goodput_MBps",
            "MB/s",
            ops.per_s * workload.body_len() as f64 / 1e6,
            note,
        ),
    ]
}

/// The merged phase p50s from the `/metrics` page the plane serves.
fn phase_p50_ns(page: &str, phase: &str, class: &str) -> f64 {
    let labels =
        format!("{{phase=\"{phase}\",class=\"{class}\",shard=\"merged\",quantile=\"0.5\"}}");
    page.lines()
        .filter_map(|line| line.strip_prefix("qtls_phase_latency_ns"))
        .filter_map(|rest| rest.strip_prefix(labels.as_str()))
        .find_map(|value| value.trim().parse().ok())
        .unwrap_or(0.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics read from a traced pass: the worker's metrics
/// plane, the device's firmware counters, the CPU sampler and the
/// client's own spans. Per-op ratios count every operation the server
/// completed since boot, warm-up included, like the counters do.
fn traced_metrics(workload: &Workload, pass: &Pass, traced: &Ops, untraced: &Ops) -> Vec<Metric> {
    let mut out = Vec::new();
    let stats = &pass.totals.stats;
    let server_ops = match workload.op {
        Op::Connection => stats.handshakes,
        Op::Request => stats.requests,
    };
    let cpu_share = |group: fn(&cpu::Shares) -> f64| match &pass.cpu {
        Some(Ok(shares)) => group(shares),
        _ => NOT_REPORTED,
    };
    if let Some(Err(why)) = &pass.cpu {
        println!("# cpu.* not reported: {why}");
    }
    let per_op = |n: u64| ratio(n, server_ops);

    let (submitted, doorbells) = pass.fw.unwrap_or((0, 0));
    out.push(metric(
        "qat.requests_per_op",
        "count",
        per_op(submitted),
        "",
    ));
    out.push(metric(
        "qat.doorbells_per_op",
        "count",
        per_op(doorbells),
        "",
    ));
    out.push(metric(
        "cpu.qat_engine_share",
        "ratio",
        cpu_share(|s| s.qat_engine),
        "",
    ));

    let page = pass
        .plane
        .serve("/metrics", "")
        .map(|(_, _, page)| page)
        .unwrap_or_default();
    for phase in [
        "pre_processing",
        "retrieval",
        "notification",
        "post_processing",
    ] {
        for class in ["asym", "cipher"] {
            out.push(metric(
                &format!("core.phase.{phase}.{class}.p50_ns"),
                "ns",
                phase_p50_ns(&page, phase, class),
                "",
            ));
        }
    }
    out.push(metric(
        "core.async_jobs_per_op",
        "count",
        per_op(stats.async_jobs),
        "",
    ));
    out.push(metric(
        "core.resumptions_per_op",
        "count",
        per_op(stats.resumptions),
        "",
    ));
    out.push(metric(
        "core.flush_mean_depth",
        "count",
        ratio(stats.flushed_requests, stats.flushes),
        format!("flushes={}", stats.flushes),
    ));
    let poller = pass.plane.snapshot().heuristic.unwrap_or_default();
    out.push(metric(
        "core.poll_wasted_ratio",
        "ratio",
        ratio(poller.empty_polls, poller.shards_swept),
        format!("swept={}", poller.shards_swept),
    ));
    out.push(metric(
        "cpu.async_job_share",
        "ratio",
        cpu_share(|s| s.async_job),
        "",
    ));

    let sink = pass.plane.trace_sink();
    let stage = |kind: SpanKind| sink.stage_snapshot(kind);
    let mean_us = |kind: SpanKind| {
        let snap = stage(kind);
        ratio(snap.sum, snap.count()) / 1e3
    };
    // The plane's histograms keep counts per bucket, so the same
    // ten-samples-beyond rule picks the percentile a stage can back.
    let tail_us = |kind: SpanKind| {
        let snap = stage(kind);
        let pct = stats::tail_pct(snap.count());
        (pct, snap.quantile(pct / 100.0) as f64 / 1e3, snap.count())
    };
    let mut stage_mean = |name: &str, kind: SpanKind| {
        out.push(metric(
            &format!("stage.{name}.mean_us"),
            "us",
            mean_us(kind),
            format!("n={}", stage(kind).count()),
        ));
    };
    stage_mean("handshake", SpanKind::Handshake);
    stage_mean("record_seal", SpanKind::RecordSeal);
    stage_mean("record_open", SpanKind::RecordOpen);
    stage_mean("connection", SpanKind::Connection);
    stage_mean("accept_wait", SpanKind::AcceptWait);
    stage_mean("serve", SpanKind::Serve);
    stage_mean("offload_wait", SpanKind::OffloadWait);
    stage_mean("idle", SpanKind::Idle);
    for (name, kind) in [
        ("accept_wait", SpanKind::AcceptWait),
        ("offload_wait", SpanKind::OffloadWait),
    ] {
        let (pct, value, n) = tail_us(kind);
        out.push(metric(
            &format!("stage.{name}.tail_us"),
            "us",
            value,
            format!("p{pct} n={n}"),
        ));
        out.push(metric(&format!("stage.{name}.tail_pct"), "%", pct, ""));
    }
    out.push(metric(
        "stage.offload_wait.per_conn",
        "count",
        ratio(
            stage(SpanKind::OffloadWait).count(),
            stage(SpanKind::Connection).count(),
        ),
        format!("conns={}", stage(SpanKind::Connection).count()),
    ));
    out.push(metric(
        "cpu.worker_share",
        "ratio",
        cpu_share(|s| s.worker),
        "",
    ));
    out.push(metric(
        "cpu.master_share",
        "ratio",
        cpu_share(|s| s.master),
        "",
    ));

    // Like the server's stage histograms, the client's spans cover the
    // whole pass, warm-up included (a kept-alive connection handshakes
    // before the window and closes after it).
    let done: Vec<&ConnRecord> = pass.conns.iter().filter(|c| c.error.is_none()).collect();
    let span = |of: fn(&ConnRecord) -> u64| stats::latency(done.iter().map(|c| of(c)).collect());
    let handshake = span(|c| c.hs_end_ns - c.connected_ns);
    let close = span(|c| c.end_ns - c.close_ns);
    let conn = span(|c| c.end_ns - c.start_ns);
    let request = stats::latency(
        (pass.conns.iter().flat_map(|c| &c.reqs))
            .map(|(start, end)| end - start)
            .collect(),
    );
    let p50 = |name: &str, l: &stats::Latency| {
        metric(
            &format!("client.{name}_p50_us"),
            "us",
            l.p50_us,
            format!("n={}", l.n),
        )
    };
    let tail = |name: &str, l: &stats::Latency| {
        [
            metric(
                &format!("client.{name}_tail_us"),
                "us",
                l.tail_us,
                format!("p{} n={}", l.tail_pct, l.n),
            ),
            metric(&format!("client.{name}_tail_pct"), "%", l.tail_pct, ""),
        ]
    };
    out.push(p50("handshake", &handshake));
    out.push(p50("request", &request));
    out.push(p50("close", &close));
    out.extend(tail("conn", &conn));
    out.extend(tail("request", &request));
    out.push(metric(
        "cpu.loadgen_share",
        "ratio",
        cpu_share(|s| s.loadgen),
        "",
    ));
    out.push(metric(
        "trace.overhead_ratio",
        "ratio",
        if untraced.per_s > 0.0 {
            traced.per_s / untraced.per_s
        } else {
            0.0
        },
        format!(
            "traced {:.1}/s over untraced {:.1}/s",
            traced.per_s, untraced.per_s
        ),
    ));
    out
}

/// Write the client's spans as Chrome trace events: one track per
/// connection (`pid` = client, `tid` = connection), each span's `args`
/// naming the connection id and its parent span.
fn write_client_trace(workload: &Workload, conns: &[ConnRecord]) -> std::io::Result<String> {
    fn event(
        events: &mut Vec<String>,
        name: &str,
        conn: &ConnRecord,
        id: usize,
        start: u64,
        end: u64,
    ) {
        let parent = if name == "connection" {
            ""
        } else {
            "connection"
        };
        events.push(format!(
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":{},\"tid\":{id},\"ts\":{:.3},\
             \"dur\":{:.3},\"args\":{{\"conn\":{id},\"parent\":\"{parent}\"}}}}",
            conn.client,
            start as f64 / 1e3,
            end.saturating_sub(start) as f64 / 1e3,
        ));
    }
    let mut events = Vec::new();
    for (id, conn) in conns.iter().enumerate() {
        event(
            &mut events,
            "connection",
            conn,
            id,
            conn.start_ns,
            conn.end_ns,
        );
        event(
            &mut events,
            "connect",
            conn,
            id,
            conn.start_ns,
            conn.connected_ns,
        );
        if conn.hs_end_ns != 0 {
            event(
                &mut events,
                "handshake",
                conn,
                id,
                conn.connected_ns,
                conn.hs_end_ns,
            );
        }
        for &(start, end) in &conn.reqs {
            event(&mut events, "request", conn, id, start, end);
        }
        event(&mut events, "close", conn, id, conn.close_ns, conn.end_ns);
    }
    let out = format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"));
    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace_{}.json", workload.name));
    std::fs::write(&path, out)?;
    Ok(path.display().to_string())
}

/// `setup_s`: start a fresh process [`SETUP_RUNS`] times and time each
/// from spawn to its first completed, verified connection.
fn measure_setup(args: &Args) -> Result<(f64, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut times = Vec::new();
    for _ in 0..SETUP_RUNS {
        let started = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--workload", args.workload.name])
            .args(["--seed", &args.seed.to_string()])
            .arg("--setup-child")
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn set-up process: {e}"))?;
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
        let elapsed = started.elapsed().as_secs_f64();
        let status = child.wait().map_err(|e| format!("wait: {e}"))?;
        read.map_err(|e| format!("read set-up process: {e}"))?;
        if line.trim() != "ready" || !status.success() {
            return Err(format!("set-up process failed: {line:?}, {status}"));
        }
        times.push(elapsed);
    }
    let note = times
        .iter()
        .map(|t| format!("{t:.4}"))
        .collect::<Vec<_>>()
        .join(" ");
    Ok((stats::median(&times), format!("runs: {note}")))
}

/// The body of a set-up process: boot, one verified connection, report.
fn setup_child(args: &Args) -> ExitCode {
    let server = Server::boot(args.workload, false);
    let stop = Arc::new(AtomicBool::new(true));
    let conns: Vec<ConnRecord> =
        spawn_clients(args.workload, 1, &server, args.seed, &stop, Instant::now())
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
    let failure = conns.iter().find_map(|c| c.error.clone());
    if failure.is_none() {
        println!("ready");
        std::io::stdout().flush().expect("stdout");
    }
    let totals = server.shutdown();
    match (failure, totals.conserved) {
        (None, Ok(())) => ExitCode::SUCCESS,
        (failure, conserved) => {
            eprintln!("set-up connection: {failure:?}, sockets: {conserved:?}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!(
                "{why}\nusage: qtls-benchmark --workload <name> --seed <n> [--seconds <s>] \
                 [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    if args.setup_child {
        return setup_child(&args);
    }
    let workload = args.workload;
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# workload {} seed {} seconds {} trace {} cores {cores} clients {CLIENTS}",
        workload.name, args.seed, args.seconds, args.trace as u8
    );
    let warmup = Duration::from_secs_f64((args.seconds * 0.25).min(1.0));
    let mut failures = Vec::new();
    let (metrics, attempted, failed) = if args.trace {
        // A quarter of the time untraced (the base of the overhead
        // ratio), a third traced, the rest on the layer probes.
        let share = |f: f64| Duration::from_secs_f64(args.seconds * f);
        let untraced = run_pass(workload, args.seed, warmup, share(0.25), false);
        check_pass(&untraced, &mut failures);
        let untraced_ops = ops_of(workload, &untraced);
        let traced = run_pass(workload, args.seed, warmup, share(0.35), true);
        check_pass(&traced, &mut failures);
        let traced_ops = ops_of(workload, &traced);
        let mut metrics = traced_metrics(workload, &traced, &traced_ops, &untraced_ops);
        match write_client_trace(workload, &traced.conns) {
            Ok(path) => println!("# client spans written to {path}"),
            Err(e) => failures.push(format!("writing the client trace: {e}")),
        }
        for (name, unit, value) in probes::run(share(0.4)) {
            metrics.push(metric(name, unit, value, ""));
        }
        (
            metrics,
            untraced_ops.attempted + traced_ops.attempted,
            untraced_ops.failed + traced_ops.failed,
        )
    } else {
        let (setup_s, setup_note) = measure_setup(&args).unwrap_or_else(|why| {
            failures.push(why);
            (0.0, String::new())
        });
        let pass = run_pass(
            workload,
            args.seed,
            warmup,
            Duration::from_secs_f64(args.seconds),
            false,
        );
        check_pass(&pass, &mut failures);
        let ops = ops_of(workload, &pass);
        let metrics = end_to_end(workload, &ops, setup_s, setup_note);
        (metrics, ops.attempted, ops.failed)
    };

    for m in &metrics {
        if !m.value.is_finite() {
            failures.push(format!("{} is not finite", m.name));
        }
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  # {}", m.note)
        };
        println!("{} {} {}{note}", m.name, m.unit, m.value);
    }
    let fail_ratio = failed as f64 / attempted.max(1) as f64;
    println!("fail_ratio ratio {fail_ratio}  # {failed} of {attempted}");
    if fail_ratio > 0.001 {
        failures.push(format!("fail_ratio {fail_ratio} above 0.001"));
    }
    for why in &failures {
        println!("# FAILED: {why}");
    }
    let correct = failures.is_empty();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
