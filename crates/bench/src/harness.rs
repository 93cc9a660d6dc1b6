//! A minimal, std-only micro-benchmark harness exposing the subset of
//! the `criterion` API the bench files use (`Criterion`,
//! `benchmark_group`, `sample_size`, `throughput`, `bench_function`,
//! plus the `criterion_group!`/`criterion_main!` macros at the crate
//! root). It exists so `cargo bench` works in the hermetic build with
//! zero external dependencies.
//!
//! Methodology: each benchmark is calibrated until one sample takes at
//! least ~2 ms of wall time, then `sample_size` samples are collected
//! and the median, minimum and mean are reported. No statistical
//! outlier analysis — good enough for the relative comparisons the
//! EXPERIMENTS.md tables make.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Top-level harness state: the CLI filter and output formatting.
pub struct Criterion {
    filters: Vec<String>,
}

impl Criterion {
    /// Build from `cargo bench` CLI arguments: `--`-prefixed flags are
    /// ignored (cargo passes `--bench`), anything else is a substring
    /// filter on `group/name` ids.
    pub fn from_args() -> Self {
        Criterion {
            filters: std::env::args()
                .skip(1)
                .filter(|a| !a.starts_with('-'))
                .collect(),
        }
    }

    fn matches(&self, id: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| id.contains(f.as_str()))
    }

    /// Do the CLI filters select work reported under `group` that runs
    /// outside `bench_function` (paired A/B verdicts, side-by-side
    /// prints)? True with no filters, or when one is a substring of the
    /// group name.
    pub fn selects_group(&self, group: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| group.contains(f.as_str()))
    }

    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 20,
            throughput: None,
        }
    }
}

/// Units-per-iteration annotation used to derive a rate column.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// A named group of benchmarks sharing sample settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark (minimum 5).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(5);
        self
    }

    /// Annotate per-iteration work so a rate is reported.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run one benchmark; `f` receives a [`Bencher`] and calls
    /// [`Bencher::iter`] with the operation under test.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{}", self.name, name.into());
        if !self.criterion.matches(&id) {
            return self;
        }
        let mut b = Bencher {
            sample_size: self.sample_size,
            samples: Vec::new(),
        };
        f(&mut b);
        b.report(&id, self.throughput);
        self
    }

    /// End the group (parity with criterion; nothing to flush).
    pub fn finish(self) {}
}

/// Per-benchmark measurement driver.
pub struct Bencher {
    sample_size: usize,
    /// `(iterations, elapsed)` per sample.
    samples: Vec<(u64, Duration)>,
}

impl Bencher {
    /// Measure `f`, running it enough times per sample for stable
    /// timing. The return value is passed through [`black_box`] so the
    /// computation cannot be optimized away.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Calibrate: grow iterations until one sample takes >= 2 ms
        // (or a single iteration is already slower than that).
        let mut iters = 1u64;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let dt = t0.elapsed();
            if dt >= Duration::from_millis(2) || iters >= 1 << 24 {
                self.samples.push((iters, dt));
                break;
            }
            iters = iters.saturating_mul(2);
        }
        for _ in 1..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            self.samples.push((iters, t0.elapsed()));
        }
    }

    fn report(&self, id: &str, throughput: Option<Throughput>) {
        if self.samples.is_empty() {
            println!("{id:<44} (no samples)");
            return;
        }
        let mut per_iter: Vec<f64> = self
            .samples
            .iter()
            .map(|(iters, dt)| dt.as_secs_f64() / *iters as f64)
            .collect();
        per_iter.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let min = per_iter[0];
        let median = per_iter[per_iter.len() / 2];
        let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        let p99 = per_iter[(per_iter.len() * 99).div_ceil(100).saturating_sub(1)];
        let mut line = format!(
            "{id:<44} time: [min {} | median {} | mean {} | p99 {}]",
            fmt_time(min),
            fmt_time(median),
            fmt_time(mean),
            fmt_time(p99)
        );
        match throughput {
            Some(Throughput::Bytes(n)) => {
                line.push_str(&format!("  thrpt: {}/s", fmt_bytes(n as f64 / median)));
            }
            Some(Throughput::Elements(n)) => {
                line.push_str(&format!("  thrpt: {:.0} elem/s", n as f64 / median));
            }
            None => {}
        }
        println!("{line}");
    }
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

fn fmt_bytes(rate: f64) -> String {
    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
    const MIB: f64 = 1024.0 * 1024.0;
    const KIB: f64 = 1024.0;
    if rate >= GIB {
        format!("{:.2} GiB", rate / GIB)
    } else if rate >= MIB {
        format!("{:.2} MiB", rate / MIB)
    } else if rate >= KIB {
        format!("{:.2} KiB", rate / KIB)
    } else {
        format!("{rate:.0} B")
    }
}

/// Collect benchmark functions into a runnable group, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::harness::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Generate `fn main()` running the given groups, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::harness::Criterion::from_args();
            $( $group(&mut c); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_time(2.0), "2.000 s");
        assert_eq!(fmt_time(0.0025), "2.500 ms");
        assert_eq!(fmt_time(0.0000025), "2.500 µs");
        assert_eq!(fmt_time(0.0000000025), "2.5 ns");
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(512.0), "512 B");
        assert_eq!(fmt_bytes(2048.0), "2.00 KiB");
        assert_eq!(fmt_bytes(3.0 * 1024.0 * 1024.0), "3.00 MiB");
    }

    #[test]
    fn bencher_collects_requested_samples() {
        let mut b = Bencher {
            sample_size: 5,
            samples: Vec::new(),
        };
        b.iter(|| black_box(1 + 1));
        assert_eq!(b.samples.len(), 5);
        assert!(b.samples.iter().all(|(iters, _)| *iters >= 1));
    }
}
