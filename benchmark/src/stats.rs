//! Order statistics for the benchmark's timings.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one sample by
/// construction, so an empty input is a bug in the benchmark.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of an ascending-sorted sample (nearest rank).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile a sample of `count` values can back: the
/// largest of 99.9 / 99 / 95 / 90 / 75 that still has at least ten
/// samples beyond it, falling back to the median.
pub fn tail_pct(count: u64) -> f64 {
    // Per mille and in integers: 1.0 - 0.9 is not 0.1 in floating point.
    [999u64, 990, 950, 900, 750]
        .into_iter()
        .find(|per_mille| count * (1000 - per_mille) >= 10 * 1000)
        .map_or(50.0, |per_mille| per_mille as f64 / 10.0)
}

/// What is reported of a latency sample, in µs.
#[derive(Debug, PartialEq)]
pub struct Latency {
    /// Sample count.
    pub n: usize,
    pub p50_us: f64,
    /// The percentile [`tail_pct`] picked, and its value.
    pub tail_pct: f64,
    pub tail_us: f64,
}

/// Summarise a latency sample given in ns (all zeros, and a tail
/// percentile of 50, when there are no samples).
pub fn latency(mut ns: Vec<u64>) -> Latency {
    ns.sort_unstable();
    let tail_pct = tail_pct(ns.len() as u64);
    let us = |q: f64| {
        if ns.is_empty() {
            0.0
        } else {
            quantile(&ns, q) as f64 / 1e3
        }
    };
    Latency {
        n: ns.len(),
        p50_us: us(0.5),
        tail_pct,
        tail_us: us(tail_pct / 100.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn latency_reports_the_highest_backed_percentile() {
        let us = |n: u64| (1..=n).map(|i| i * 1000).collect::<Vec<u64>>();
        let l = latency(us(1000));
        assert_eq!(
            (l.n, l.p50_us, l.tail_pct, l.tail_us),
            (1000, 500.0, 99.0, 990.0)
        );
        let l = latency(us(100));
        assert_eq!((l.tail_pct, l.tail_us), (90.0, 90.0));
        let l = latency(us(20));
        assert_eq!((l.tail_pct, l.tail_us), (50.0, 10.0));
        assert_eq!(latency(Vec::new()).tail_pct, 50.0);
    }
}
