//! Order statistics for the benchmark's timings and run-to-run spreads.

/// Samples that must lie beyond a reported percentile: a percentile with
/// fewer than this many samples above it is a statement about a handful of
/// outliers, not about the distribution.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0..1`) of `sorted` (ascending), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it — p90 needs
/// at least 100 samples, p99 at least 1000.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    // The epsilon keeps 0.9 × 100 from rounding up to rank 91.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Samples per block of a run: enough for a p90 with ten samples beyond.
pub const BLOCK: usize = 100;

/// The first-quartile value (nearest rank) of per-block measurements: the
/// run's least disturbed quarter. On a shared host other tenants slow whole
/// seconds of a run by up to 1.5×; this ignores any such slowdown that
/// covers less than three quarters of the blocks, while a change that slows
/// every block still shows in full.
pub fn least_disturbed(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() as f64 / 4.0).ceil().max(1.0) as usize;
    sorted.get(rank - 1).copied()
}

/// Percentile `q` of a run's timings: each consecutive block of `block`
/// samples (in the order they were taken; the remainder joins the last
/// block) gets its nearest-rank percentile, and the least disturbed block
/// value is reported. `None` when the blocks are too small for `q`.
pub fn blocked_percentile(samples: &[f64], block: usize, q: f64) -> Option<f64> {
    let blocks = samples.len() / block.max(1);
    let per_block = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks { samples.len() } else { (b + 1) * block };
            let mut chunk = samples[b * block..end].to_vec();
            chunk.sort_by(f64::total_cmp);
            percentile(&chunk, q)
        })
        .collect::<Option<Vec<f64>>>()?;
    least_disturbed(&per_block)
}

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// `--compare` reports the same spreads as a Python script over `--out`.
/// `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative at the clamped low end, exactly as in Python.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Median of `values` (the middle quartile), or the value itself for one.
pub fn median(values: &[f64]) -> Option<f64> {
    match values {
        [] => None,
        [only] => Some(*only),
        _ => quartiles(values).map(|[_, m, _]| m),
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Geometric mean of positive ratios (1.0 for none).
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn p90_is_refused_below_one_hundred_samples() {
        assert_eq!(percentile(&ramp(99), 0.90), None);
        assert_eq!(percentile(&ramp(100), 0.90), Some(90.0));
        assert_eq!(percentile(&ramp(19), 0.50), None);
        assert_eq!(percentile(&ramp(20), 0.50), Some(10.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
    }

    #[test]
    fn blocked_percentiles_ignore_slow_blocks() {
        // Eight blocks of 1..=100 ms; five of them 1.5× slower.
        let mut samples: Vec<f64> = (0..8).flat_map(|_| ramp(100)).collect();
        samples[300..800].iter_mut().for_each(|v| *v *= 1.5);
        assert_eq!(blocked_percentile(&samples, 100, 0.90), Some(90.0));
        assert_eq!(blocked_percentile(&samples, 100, 0.50), Some(50.0));
        assert_eq!(blocked_percentile(&samples[..99], 100, 0.50), None);
        // The remainder joins the last block.
        assert_eq!(blocked_percentile(&ramp(150), 100, 0.50), Some(75.0));
        assert_eq!(least_disturbed(&[4.0, 1.0, 3.0, 2.0, 5.0]), Some(2.0));
        assert_eq!(least_disturbed(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }
}
