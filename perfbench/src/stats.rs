//! Order statistics under the benchmark's tail rule.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it; a p99 therefore needs at least 1,000 samples. A shorter
//! run is an error that names the sample count, never a silently
//! reported tail drawn from a handful of points.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile could not be reported.
#[derive(Debug, Clone, PartialEq)]
pub struct TooFewSamples {
    /// The requested quantile, in `(0, 1)`.
    pub p: f64,
    /// Samples available.
    pub n: usize,
    /// Samples beyond the quantile's rank.
    pub beyond: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} needs {MIN_BEYOND} samples beyond it but has {} of n={} samples",
            self.p * 100.0,
            self.beyond,
            self.n
        )
    }
}

/// Nearest-rank rank (1-based) of quantile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The `p`-quantile of ascending `sorted` samples (nearest rank), or an
/// error when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Result<u64, TooFewSamples> {
    let n = sorted.len();
    let beyond = if n == 0 { 0 } else { n - rank(p, n) };
    if beyond < MIN_BEYOND {
        return Err(TooFewSamples { p, n, beyond });
    }
    Ok(sorted[rank(p, n) - 1])
}

/// The same rule over a log-bucketed registry histogram: `counts[i]`
/// observations fell in bucket `i`, whose reported value is
/// `upper(i)`. Returns `Ok(None)` for an empty histogram (the layer was
/// idle in this workload).
pub fn histogram_percentile(
    counts: &[u64],
    upper: impl Fn(usize) -> u64,
    p: f64,
) -> Result<Option<u64>, TooFewSamples> {
    let n: u64 = counts.iter().sum();
    if n == 0 {
        return Ok(None);
    }
    let n = n as usize;
    let r = rank(p, n);
    if n - r < MIN_BEYOND {
        return Err(TooFewSamples {
            p,
            n,
            beyond: n - r,
        });
    }
    let mut seen = 0usize;
    for (i, &c) in counts.iter().enumerate() {
        seen += c as usize;
        if seen >= r {
            return Ok(Some(upper(i)));
        }
    }
    unreachable!("rank {r} lies within the {n} counted samples")
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&samples, 0.99), Ok(990));
        assert_eq!(percentile(&samples, 0.5), Ok(500));
        let short: Vec<u64> = (1..=999).collect();
        let err = percentile(&short, 0.99).unwrap_err();
        assert_eq!(err.n, 999);
        assert_eq!(err.beyond, 9);
        assert!(err.to_string().contains("n=999"), "{err}");
    }

    #[test]
    fn median_needs_twenty_samples() {
        let samples: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&samples, 0.5), Ok(10));
        assert!(percentile(&samples[..19], 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn histogram_rule_matches_the_sample_rule() {
        let upper = |i: usize| (1u64 << i) - 1;
        // 990 samples in bucket 3, 10 in bucket 7: p99 lands in bucket 3
        // with exactly ten samples beyond it.
        let mut counts = vec![0u64; 10];
        counts[3] = 990;
        counts[7] = 10;
        assert_eq!(histogram_percentile(&counts, upper, 0.99), Ok(Some(7)));
        counts[7] = 9;
        assert!(histogram_percentile(&counts, upper, 0.99).is_err());
        assert_eq!(histogram_percentile(&[0; 10], upper, 0.99), Ok(None));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
