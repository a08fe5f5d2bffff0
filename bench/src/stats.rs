//! Order statistics over timed samples.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every metric has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(xs, n=4)` (the default, "exclusive"), so the
/// quartiles in `results.json` and `compare`'s spreads match what that
/// function computes from the same samples. A single sample is its own
/// quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let s = sorted(xs);
    let len = s.len();
    if len == 1 {
        return (s[0], s[0]);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Percentile levels a tail latency may be reported at (the median is
/// reported on its own).
const TAIL_LEVELS: [f64; 4] = [90.0, 95.0, 99.0, 99.9];

/// The highest percentile in [`TAIL_LEVELS`] that has at least ten
/// samples beyond it, as `(level, value)` by nearest rank; `None` when
/// even the 90th has fewer than ten samples above it.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len() as f64;
    let level = TAIL_LEVELS
        .iter()
        .rev()
        .copied()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0 - 1e-9)?;
    let s = sorted(xs);
    let rank = ((level / 100.0) * n).ceil() as usize;
    Some((level, s[rank.clamp(1, s.len()) - 1]))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 240 scenario latencies: p95 leaves 12 beyond, p99 only 2.4.
        assert_eq!(tail(&ramp(240)), Some((95.0, 228.0)));
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&ramp(99)), None);
        assert_eq!(tail(&ramp(6)), None);
    }
}
