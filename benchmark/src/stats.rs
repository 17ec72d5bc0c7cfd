//! Order statistics for the benchmark's timings.

/// Sorts `values` ascending (timings are never NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    values
}

/// Nearest rank (1-based) of the `p`-th percentile among `samples`, in
/// integer arithmetic on tenths of a percent so 99.9% of 10,000 is 9990.
fn nearest_rank(p: f64, samples: usize) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * samples).div_ceil(1000)
}

/// The `p`-th percentile (0–100) of an ascending slice, nearest-rank;
/// 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (the mean of the middle two when their
/// number is even); 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let data = sorted(values.to_vec());
    match data.len() {
        0 => 0.0,
        n if n % 2 == 1 => data[n / 2],
        n => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The percentiles a timing may be reported at, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`LADDER`] that still has at least ten of
/// `samples` samples beyond it, or `None` when even the median has not.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|&p| samples.saturating_sub(nearest_rank(p, samples)) >= 10)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (the default exclusive method) gives them. Needs two or more values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values.to_vec());
    let n = data.len();
    assert!(n >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let data: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&data, 50.0), 50.0);
        assert_eq!(percentile(&data, 90.0), 90.0);
        assert_eq!(percentile(&data, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        // 19 samples: the median is rank 10, nine lie beyond it.
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        // p90 of 100 is rank 90 with exactly ten beyond; of 99 it is rank
        // 90 with nine beyond.
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(125), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    }
}
