//! The benchmark's own arithmetic: medians, fastest runs, the tail rule,
//! ratios.

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// The fastest of samples of equal work: the one run that the host's
/// other tenants slowed least. `INFINITY` for no samples.
#[must_use]
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Samples that must lie strictly beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// A tail timing: the highest percentile with at least [`TAIL_BEYOND`]
/// samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, `100 · (n − 10) / n`.
    pub percentile: f64,
    /// Samples the tail was taken from.
    pub samples: usize,
}

/// The highest order statistic with [`TAIL_BEYOND`] samples above it —
/// the 11th-largest sample — or `None` with fewer than 11 samples.
#[must_use]
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        value: v[n - 1 - TAIL_BEYOND],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    })
}

/// `num / den`, or 0 when nothing was attempted.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Share of attempted operations that failed.
#[must_use]
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    ratio(failed as f64, attempted as f64)
}

/// Share of the workers' wall time they spent running tasks.
#[must_use]
pub fn busy_frac(busy_seconds: f64, wall_seconds: f64, workers: usize) -> f64 {
    ratio(busy_seconds, wall_seconds * workers as f64)
}

/// A span's self time: its duration minus the time its child spans
/// cover, never below zero (timer jitter can make the children read
/// longer than the parent).
#[must_use]
pub fn self_time(total: f64, children: f64) -> f64 {
    (total - children).max(0.0)
}

/// Two-sided asymptotic Kolmogorov–Smirnov critical value for `n`
/// samples at significance `alpha`: `sqrt(−ln(α/2) / 2) / sqrt(n)`.
#[must_use]
pub fn ks_critical(n: usize, alpha: f64) -> f64 {
    (-(alpha / 2.0).ln() / 2.0).sqrt() / (n as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn fastest_is_the_smallest_sample() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[]), f64::INFINITY);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).expect("100 samples");
        // 90 is the 11th largest: 91..=100 lie beyond it.
        assert_eq!(t.value, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
    }

    #[test]
    fn tail_percentile_moves_with_the_sample_count() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&xs).expect("1000 samples");
        assert_eq!(t.value, 989.0);
        assert_eq!(t.percentile, 99.0);
        // Order of the input does not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(tail(&rev), Some(t));
    }

    #[test]
    fn tail_needs_eleven_samples() {
        assert_eq!(tail(&[1.0; 10]), None);
        let t = tail(&[5.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0]).expect("11");
        assert_eq!(t.value, 1.0);
    }

    #[test]
    fn failed_frac_counts_against_attempts() {
        assert_eq!(failed_frac(0, 10), 0.0);
        assert_eq!(failed_frac(3, 12), 0.25);
        assert_eq!(failed_frac(0, 0), 0.0);
    }

    #[test]
    fn busy_frac_divides_by_worker_wall_time() {
        // Two workers over 2 s of wall time, 3 s busy between them.
        assert_eq!(busy_frac(3.0, 2.0, 2), 0.75);
        assert_eq!(busy_frac(1.0, 0.0, 2), 0.0);
    }

    #[test]
    fn self_time_subtracts_children_and_clamps() {
        assert_eq!(self_time(10.0, 4.0), 6.0);
        assert_eq!(self_time(1.0, 1.5), 0.0);
    }

    #[test]
    fn ks_critical_matches_the_tabulated_levels() {
        // The classical table: 1.358/sqrt(n) at 5%, 1.628/sqrt(n) at 1%.
        assert!((ks_critical(100, 0.05) - 0.1358).abs() < 1e-3);
        assert!((ks_critical(100, 0.01) - 0.1628).abs() < 1e-3);
    }
}
