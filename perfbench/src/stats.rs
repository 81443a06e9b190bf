//! Summary statistics with the benchmark's reporting rule: a percentile
//! is reported only when at least [`MIN_ABOVE`] samples lie above it.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_ABOVE: usize = 10;

/// Nearest-rank percentile `p ∈ (0, 1)` of `samples` (any order).
///
/// Refuses (returns `Err`) when fewer than [`MIN_ABOVE`] samples rank
/// above it, so a tail figure always rests on a real tail.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let n = samples.len();
    let rank = (p * n as f64).ceil() as usize; // 1-based nearest rank
    if n == 0 || n - rank.max(1) < MIN_ABOVE {
        return Err(format!(
            "p{} needs {MIN_ABOVE} samples above it; have {n} samples",
            p * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank.max(1) - 1])
}

/// The median of `samples` under the same rule as [`percentile`].
pub fn median(samples: &[f64]) -> Result<f64, String> {
    percentile(samples, 0.5)
}

/// Plain median of a small set of repeats (set-up runs), no tail rule.
pub fn median_of(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty set (a layer that did no work).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_ten_samples_above_it() {
        let ok: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&ok, 0.95), Ok(190.0));
        let short: Vec<f64> = (1..=199).map(f64::from).collect();
        assert!(percentile(&short, 0.95).is_err());
    }

    #[test]
    fn p90_and_median_follow_the_same_rule() {
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Ok(90.0));
        assert!(percentile(&hundred[..99], 0.9).is_err());
        assert_eq!(median(&hundred), Ok(50.0));
        assert!(median(&[1.0; 20]).is_ok());
        assert!(median(&[1.0; 19]).is_err());
        assert!(median(&[]).is_err());
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
    }
}
