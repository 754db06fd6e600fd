//! Order statistics for the report: medians, percentiles, the highest
//! percentile a sample supports, and the quartile spread `--compare`
//! and the repeatability check use.

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending slice.
/// Returns 0 for an empty slice so a workload that acked nothing still
/// prints (and fails its output check).
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy and takes [`percentile_sorted`].
pub fn percentile(values: &[f64], q: f64) -> f64 {
    percentile_sorted(&sorted(values), q)
}

/// The median, interpolated between the two middle values of an even
/// sample (what Python's `statistics.median` returns).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The highest of p50, p90, p99, p99.9, p99.99 that still has at least
/// ten samples beyond it, as `(percent, value)`. `None` below 20
/// samples: not even the median has ten samples above it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    [0.9999, 0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|q| {
            let rank = (q * s.len() as f64).ceil() as usize;
            s.len() >= rank + 10
        })
        .map(|q| (q * 100.0, percentile_sorted(&s, q)))
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |i: usize| {
        // Position i * (n + 1) / 4 on a 1-based scale, interpolated.
        let pos = i as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        // Unclamped, so a two-value sample extrapolates as Python does.
        let frac = pos - lo as f64;
        s[lo - 1] + (s[lo] - s[lo - 1]) * frac
    };
    (at(1), at(3))
}

/// Quartile distance as a share of the median — the steadiness figure
/// the bounds in `BENCHMARK.json` are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Median time of `f` over `n` calls, µs — the probes' stopwatch.
pub fn time_p50_us<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut us = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = std::time::Instant::now();
        std::hint::black_box(f());
        us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    median(&us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let n = |k: usize| (0..k).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: the median has only 9 above it.
        assert_eq!(tail(&n(19)), None);
        assert_eq!(tail(&n(20)).unwrap().0, 50.0);
        // p90 of 100 leaves exactly 10 beyond; p99 leaves 1.
        assert_eq!(tail(&n(100)).unwrap().0, 90.0);
        assert_eq!(tail(&n(999)).unwrap().0, 90.0);
        assert_eq!(tail(&n(1000)).unwrap().0, 99.0);
        assert_eq!(tail(&n(10_000)).unwrap().0, 99.9);
        let (p, v) = tail(&n(100_000)).unwrap();
        assert_eq!(p, 99.99);
        assert_eq!(v, 99_989.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
