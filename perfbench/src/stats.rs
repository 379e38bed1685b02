//! The benchmark's own arithmetic: order statistics, the latency-tail
//! rule, host-drift normalisation and the DFT work normaliser.

/// Sorted copy of `values` (total order; NaN never occurs in timings).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Nearest-rank percentile (`0 < p <= 100`) of a non-empty sample: the
/// smallest value with at least `p`% of the sample at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let data = sorted(values);
    data[nearest_rank(data.len(), p) - 1]
}

/// The 1-based nearest rank `ceil(p/100 * n)`, clamped to `[1, n]`.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Median by the midpoint of the two middle values (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    let data = sorted(values);
    match data.len() {
        0 => 0.0,
        n if n % 2 == 1 => data[n / 2],
        n => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them — the definition the benchmark's spread gate uses.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let n = data.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The candidate percentiles of the latency tail, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 50.0];

/// The latency tail: the highest candidate percentile that still has at
/// least ten samples strictly beyond its nearest rank, as
/// `(percentile, value, sample count)`. `None` below twenty samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64, usize)> {
    let data = sorted(values);
    let n = data.len();
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let rank = nearest_rank(n.max(1), p);
        (n >= rank + 10).then(|| (p, data[rank - 1], n))
    })
}

/// A duration measured while the reference kernel took `measured_ref`,
/// restated for a host on which the kernel takes `nominal_ref`. The
/// benchmark passes the kernel's wall time and its CPU time, which
/// restates wall-clock timings as if the host had not taken the CPU away.
pub fn normalise_time(raw: f64, measured_ref: f64, nominal_ref: f64) -> f64 {
    raw * nominal_ref / measured_ref
}

/// A rate (work per second), restated like [`normalise_time`].
pub fn normalise_rate(raw: f64, measured_ref: f64, nominal_ref: f64) -> f64 {
    raw * measured_ref / nominal_ref
}

/// The work a 2-D DFT of a `w×h` grid does, `w·h·log₂√(w·h)` — `n²·log₂n`
/// for a square `n×n` grid — so per-size costs compare across shapes.
pub fn dft_work(width: usize, height: usize) -> f64 {
    let points = (width * height) as f64;
    points * 0.5 * points.log2()
}

/// Length of the part of `parent` (half-open `[start, end)` in ns) that
/// none of `children` covers — a span's self time. Children may overlap
/// each other and stick out of the parent; only their union inside the
/// parent counts.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = parent;
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(lo), e.min(hi))).filter(|&(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&data, 50.0), 5.0);
        assert_eq!(percentile(&data, 90.0), 9.0);
        assert_eq!(percentile(&data, 91.0), 10.0);
        assert_eq!(percentile(&data, 100.0), 10.0);
        assert_eq!(percentile(&data, 0.1), 1.0);
        assert_eq!(percentile(&[7.0, 3.0, 5.0], 50.0), 5.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((iqr_share(&data) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        let data: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 has 1 sample beyond it, p95 5, p90 exactly 10.
        assert_eq!(tail(&data), Some((90.0, 90.0, 100)));
        let data: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&data), Some((99.0, 990.0, 1000)));
        let data: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&data), Some((50.0, 10.0, 20)));
        assert_eq!(tail(&data[..19]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 40), (20, 50), (45, 60)]), 50);
        // Children are clipped to the parent.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time((10, 20), &[(30, 40)]), 10);
    }

    #[test]
    fn coverage_plus_unaccounted_is_the_unit() {
        let unit = (1_000, 9_000);
        let children = [(1_000, 3_000), (2_500, 4_000), (5_000, 8_999)];
        let unaccounted = self_time(unit, &children);
        let covered = (unit.1 - unit.0) - unaccounted;
        assert_eq!(unaccounted, 1_000 + 1);
        assert_eq!(covered + unaccounted, unit.1 - unit.0);
    }

    #[test]
    fn dft_work_is_n2_log2_n_for_squares_and_extends_to_rectangles() {
        assert_eq!(dft_work(512, 512), 512.0 * 512.0 * 9.0);
        assert_eq!(dft_work(8, 8), 64.0 * 3.0);
        // 504×392: w·h·log₂√(w·h)
        let expected = 504.0 * 392.0 * (504.0f64 * 392.0).sqrt().log2();
        assert!((dft_work(504, 392) - expected).abs() < 1e-6 * expected);
    }

    #[test]
    fn host_normalisation_cancels_a_uniform_slowdown() {
        // The reference kernel's CPU time: what it takes with the CPU to
        // itself.
        let nominal = 45.0;
        // A run on an undisturbed host, then the same run on a host that
        // takes the CPU away half the time: program and reference wall
        // times both double.
        let (latency, ref_ms, images_per_s) = (12.0, 45.0, 80.0);
        let slow = (latency * 2.0, ref_ms * 2.0, images_per_s / 2.0);
        assert_eq!(
            normalise_time(latency, ref_ms, nominal),
            normalise_time(slow.0, slow.1, nominal)
        );
        assert_eq!(
            normalise_rate(images_per_s, ref_ms, nominal),
            normalise_rate(slow.2, slow.1, nominal)
        );
        // At nominal speed the values are unchanged, units intact.
        assert_eq!(normalise_time(latency, nominal, nominal), latency);
        assert_eq!(normalise_rate(images_per_s, nominal, nominal), images_per_s);
    }
}
