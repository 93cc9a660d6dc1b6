//! Per-thread CPU sampler (std-only): reads `/proc/self/task/*/comm` and
//! `schedstat`, grouped by the stack's existing thread names, plus the
//! process total from `/proc/self/stat`. Fiber threads (`async-job`)
//! live for one offload job and are gone by the time anyone samples
//! them, so their share is the process total minus the live named
//! threads.

use std::fs;

/// `comm` prefixes of the named thread groups: worker, master, QAT
/// engines, and the load generator (client threads plus the
/// benchmark's own main thread).
const GROUPS: [&[&str]; 4] = [
    &["qtls-worker"],
    &["qtls-master"],
    &["qat-ep"],
    &["loadgen", "qtls-benchmark"],
];

/// Each thread group's share of the process's CPU time.
pub struct Shares {
    pub worker: f64,
    pub master: f64,
    pub qat_engine: f64,
    pub loadgen: f64,
    /// The remainder: threads that were gone before they were sampled.
    pub async_job: f64,
}

/// `sysconf(_SC_CLK_TCK)`; 100 on every Linux this runs on, and std
/// has no call to ask.
const NS_PER_TICK: u64 = 10_000_000;

/// CPU time consumed so far, ns.
pub struct Sample {
    groups: [u64; GROUPS.len()],
    process: u64,
}

/// Read the counters now. `Err` says why they cannot be read (no
/// `/proc`, or a kernel without schedstats).
pub fn sample() -> Result<Sample, String> {
    if !std::path::Path::new("/proc/self/schedstat").exists() {
        return Err("/proc/self/schedstat is missing (kernel built without schedstats)".into());
    }
    let mut groups = [0u64; GROUPS.len()];
    let tasks = fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    for task in tasks.flatten() {
        let dir = task.path();
        // A thread can exit between the listing and the reads.
        let Ok(comm) = fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        let Some(group) = GROUPS
            .iter()
            .position(|prefixes| prefixes.iter().any(|p| comm.starts_with(p)))
        else {
            continue;
        };
        let Ok(stat) = fs::read_to_string(dir.join("schedstat")) else {
            continue;
        };
        let ns: u64 = stat
            .split_whitespace()
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("unparsable schedstat {stat:?}"))?;
        groups[group] += ns;
    }
    // utime and stime are fields 14 and 15; the comm field may hold
    // spaces, so count from the closing parenthesis.
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    let after_comm = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    let (Some(utime), Some(stime)) = (ticks(11), ticks(12)) else {
        return Err("unparsable /proc/self/stat".into());
    };
    Ok(Sample {
        groups,
        process: (utime + stime) * NS_PER_TICK,
    })
}

/// The shares of the CPU time the process used between two samples.
pub fn shares(before: &Sample, after: &Sample) -> Result<Shares, String> {
    let total = after.process.saturating_sub(before.process);
    if total == 0 {
        return Err("the process used no CPU time between the samples".into());
    }
    let used = |group: usize| after.groups[group].saturating_sub(before.groups[group]);
    let share = |ns: u64| ns as f64 / total as f64;
    let named: u64 = (0..GROUPS.len()).map(used).sum();
    Ok(Shares {
        worker: share(used(0)),
        master: share(used(1)),
        qat_engine: share(used(2)),
        loadgen: share(used(3)),
        async_job: share(total.saturating_sub(named)),
    })
}
