//! The benchmark's own statistics: median, quartiles, the tail percentile
//! and the failure ratio.

/// Median: the middle sample, or the mean of the two middle samples for an
/// even count. `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by the same rule as Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method), so
/// spreads reported here match the ones a reader computes from the runs.
/// Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(samples);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let k = (i + 1) * m;
        // 1-based position k/4. Python clamps the index to the sample
        // range but not the weight, so the ends extrapolate linearly.
        let j = (k / 4).clamp(1, n - 1);
        let delta = (k as f64 - 4.0 * j as f64) / 4.0;
        *q = s[j - 1] + (s[j] - s[j - 1]) * delta;
    }
    Some(out)
}

/// The tail statistic: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile, `100 * (n - beyond) / n`.
    pub percentile: f64,
    /// Samples strictly beyond the reported one in sorted order.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// How many samples must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The sample with exactly [`TAIL_BEYOND`] samples above it in sorted
/// order (the `n - 10`-th smallest). With too few samples for that, the
/// maximum, flagged by `beyond == 0`. The percentile follows from `n`
/// alone, which is why an untraced run measures a fixed operation count
/// (`Quota`): then every run reports the same percentile.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let s = sorted(samples);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let beyond = if n > TAIL_BEYOND { TAIL_BEYOND } else { 0 };
    Some(Tail {
        value: s[n - 1 - beyond],
        percentile: 100.0 * (n - beyond) as f64 / n as f64,
        beyond,
        n,
    })
}

/// Operations that failed their reference check divided by operations
/// attempted. With nothing attempted nothing was verified, which counts as
/// total failure.
pub fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_averages_the_middle_pair_for_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        // Not the upper middle element (4.0): the mean of 2.0 and 4.0.
        assert_eq!(median(&[4.0, 1.0, 2.0, 9.0]), Some(3.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Values from `statistics.quantiles(data, n=4)` in CPython 3.11.
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some([1.25, 2.5, 3.75]));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        let odd = [7.0, 1.0, 3.0, 5.0, 9.0];
        assert_eq!(quartiles(&odd), Some([2.0, 5.0, 8.0]));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.n, 100);
        let beyond = hundred.iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, 10);

        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        let t = tail(&twenty).unwrap();
        assert_eq!((t.value, t.percentile), (10.0, 50.0));

        // Eleven samples: the smallest one still has ten beyond it.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven).unwrap().value, 1.0);

        // Too few samples: the maximum, flagged as having none beyond.
        let t = tail(&[2.0, 8.0, 5.0]).unwrap();
        assert_eq!((t.value, t.beyond, t.percentile), (8.0, 0, 100.0));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn failed_ratio_counts_failures_against_attempts() {
        assert_eq!(failed_ratio(0, 40), 0.0);
        assert_eq!(failed_ratio(1, 4), 0.25);
        assert_eq!(failed_ratio(3, 3), 1.0);
        assert_eq!(failed_ratio(0, 0), 1.0);
    }
}
