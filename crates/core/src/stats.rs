//! Small statistical helpers for sampled estimates: binomial confidence intervals on
//! miss shares and the rank-stability marking derived from them.  `merge` applies them
//! to a report's pooled counts, `whatif` to its block vote.
//!
//! A data-profile row's miss share is an estimate of a binomial proportion (`k` of the
//! phase's `n` L1-miss samples landed on the type).  The Wilson score interval is used
//! because miss shares are routinely near 0 or 1 and per-type sample counts can be
//! small — exactly where the naive normal approximation collapses to zero width.

/// z for a two-sided 95% interval.
pub(crate) const Z95: f64 = 1.959963984540054;

/// The 95% Wilson score interval for a binomial proportion, as `(low, high)` in
/// `[0, 1]`.  Returns `(0, 1)` when there are no trials (nothing is known).
pub fn wilson95(successes: u64, trials: u64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = Z95 * Z95;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (Z95 / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Marks which rows of a ranked list hold their rank with statistical confidence.
///
/// `intervals` are the rows' confidence intervals on the ranking metric, in rank
/// order (best first).  A row is *rank-stable* when its interval does not overlap
/// either neighbour's — swapping it with the row above or below would contradict the
/// intervals.  A single row is trivially stable.
pub fn mark_rank_stability(intervals: &[(f64, f64)]) -> Vec<bool> {
    let overlaps = |a: (f64, f64), b: (f64, f64)| a.0 <= b.1 && b.0 <= a.1;
    (0..intervals.len())
        .map(|i| {
            let above_ok = i == 0 || !overlaps(intervals[i], intervals[i - 1]);
            let below_ok = i + 1 == intervals.len() || !overlaps(intervals[i], intervals[i + 1]);
            above_ok && below_ok
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_interval_contains_the_point_estimate() {
        for &(k, n) in &[(0u64, 10u64), (1, 10), (5, 10), (10, 10), (500, 1000)] {
            let p = k as f64 / n as f64;
            let (lo, hi) = wilson95(k, n);
            assert!(
                lo <= p + 1e-12 && p <= hi + 1e-12,
                "({k},{n}): {lo} {p} {hi}"
            );
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        }
    }

    #[test]
    fn wilson_interval_narrows_with_more_trials() {
        let (lo1, hi1) = wilson95(5, 10);
        let (lo2, hi2) = wilson95(500, 1000);
        assert!(hi2 - lo2 < hi1 - lo1);
    }

    #[test]
    fn wilson_with_no_trials_is_vacuous() {
        assert_eq!(wilson95(0, 0), (0.0, 1.0));
    }

    #[test]
    fn rank_stability_requires_separation_from_both_neighbours() {
        // Row 0 clearly above row 1; rows 1 and 2 overlap each other.
        let marks = mark_rank_stability(&[(0.8, 0.9), (0.4, 0.5), (0.45, 0.55)]);
        assert_eq!(marks, vec![true, false, false]);
        assert_eq!(mark_rank_stability(&[(0.1, 0.9)]), vec![true]);
        assert!(mark_rank_stability(&[]).is_empty());
    }
}
