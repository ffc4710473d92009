//! The what-if prediction model: turning two measurement replays (baseline vs. a
//! candidate fix) into a predicted throughput gain with calibrated confidence.
//!
//! The raw material is a pair of *makespan trajectories* — the machine's max core
//! clock sampled at every measured round boundary, once for the identity baseline and
//! once for the candidate transform.  Both replays consume the identical event stream,
//! so round `i` covers the same work in both; the per-round makespan delta is the
//! causal effect of the fix on that slice of the run.
//!
//! Point estimate: `gain = (base - fix) / base` over the whole window — the fraction
//! of end-to-end simulated time the fix removes (equivalently, the predicted
//! per-request latency reduction; `speedup = base / fix`).
//!
//! Confidence: the window is chunked into at most [`MAX_BLOCKS`] equal round blocks
//! and each block votes "improved" iff its makespan shrank.  The 95% Wilson interval
//! on that vote fraction (reused from [`crate::stats`]) gates the `confident` flag —
//! a fix is confident when even the interval's low end says most blocks improved —
//! and the per-block gain spread yields a gain interval used for rank-stability
//! marking across candidates ([`crate::stats::mark_rank_stability`]).

use crate::stats::{mark_rank_stability, wilson95, Z95};

/// Maximum number of per-window blocks used for the vote statistics.
pub const MAX_BLOCKS: usize = 16;

/// One block's worth of measured cycles under the baseline and the candidate fix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockDelta {
    /// Baseline makespan growth across the block's rounds.
    pub base_cycles: u64,
    /// Candidate makespan growth across the same rounds.
    pub fix_cycles: u64,
}

impl BlockDelta {
    /// The block's fractional gain (positive when the fix is faster).
    pub fn gain(&self) -> f64 {
        if self.base_cycles == 0 {
            0.0
        } else {
            (self.base_cycles as f64 - self.fix_cycles as f64) / self.base_cycles as f64
        }
    }
}

/// Chunks two aligned cumulative-makespan series into at most [`MAX_BLOCKS`] blocks.
///
/// `base` and `fix` hold the makespan at each measured round boundary; `base_start` /
/// `fix_start` are the makespans at the start of the window (end of warmup).  The
/// series come from replays of the same events, so they have equal length for a
/// faithful trace; a divergent tail is truncated to the shorter series.
pub fn blocks_from_rounds(
    base: &[u64],
    fix: &[u64],
    base_start: u64,
    fix_start: u64,
) -> Vec<BlockDelta> {
    let rounds = base.len().min(fix.len());
    if rounds == 0 {
        return Vec::new();
    }
    let blocks = rounds.min(MAX_BLOCKS);
    (0..blocks)
        .map(|b| {
            let lo = b * rounds / blocks; // first round of the block
            let hi = (b + 1) * rounds / blocks; // one past the last round
            let base_lo = if lo == 0 { base_start } else { base[lo - 1] };
            let fix_lo = if lo == 0 { fix_start } else { fix[lo - 1] };
            BlockDelta {
                base_cycles: base[hi - 1].saturating_sub(base_lo),
                fix_cycles: fix[hi - 1].saturating_sub(fix_lo),
            }
        })
        .collect()
}

/// A candidate fix's predicted effect, with block-vote confidence.
#[derive(Debug, Clone, PartialEq)]
pub struct GainEstimate {
    /// Baseline window cycles (sum over blocks and streams).
    pub base_cycles: u64,
    /// Candidate window cycles.
    pub fix_cycles: u64,
    /// Predicted fractional throughput gain: `(base - fix) / base`.
    pub gain: f64,
    /// Predicted speedup: `base / fix` (1.0 when nothing changed).
    pub speedup: f64,
    /// Number of measurement blocks.
    pub blocks: u64,
    /// Blocks whose makespan shrank under the fix.
    pub blocks_improved: u64,
    /// 95% Wilson interval on the fraction of improved blocks.
    pub win_ci: (f64, f64),
    /// True when the interval's low end exceeds 1/2 — even pessimistically, most of
    /// the run improves.
    pub confident: bool,
    /// 95% normal interval on the mean per-block gain (used for rank stability).
    pub gain_ci: (f64, f64),
}

/// Builds a [`GainEstimate`] from per-block deltas (concatenated across streams).
pub fn estimate_gain(blocks: &[BlockDelta]) -> GainEstimate {
    let base_cycles: u64 = blocks.iter().map(|b| b.base_cycles).sum();
    let fix_cycles: u64 = blocks.iter().map(|b| b.fix_cycles).sum();
    let gain = if base_cycles == 0 {
        0.0
    } else {
        (base_cycles as f64 - fix_cycles as f64) / base_cycles as f64
    };
    let speedup = if fix_cycles == 0 {
        1.0
    } else {
        base_cycles as f64 / fix_cycles as f64
    };
    let n = blocks.len() as u64;
    let improved = blocks
        .iter()
        .filter(|b| b.fix_cycles < b.base_cycles)
        .count() as u64;
    let win_ci = wilson95(improved, n);
    let gains: Vec<f64> = blocks.iter().map(BlockDelta::gain).collect();
    let gain_ci = if gains.is_empty() {
        (0.0, 0.0)
    } else {
        let mean = gains.iter().sum::<f64>() / gains.len() as f64;
        let var =
            gains.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gains.len().max(1) as f64;
        let half = Z95 * (var / gains.len() as f64).sqrt();
        (mean - half, mean + half)
    };
    GainEstimate {
        base_cycles,
        fix_cycles,
        gain,
        speedup,
        blocks: n,
        blocks_improved: improved,
        confident: n > 0 && win_ci.0 > 0.5,
        win_ci,
        gain_ci,
    }
}

/// Ranks candidate estimates by predicted gain (descending, label tie-break) and marks
/// which ranks are statistically stable.  Returns the candidates' indices in rank
/// order paired with their stability flags.
pub fn rank_candidates<L: AsRef<str>>(candidates: &[(L, GainEstimate)]) -> Vec<(usize, bool)> {
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| {
        candidates[b]
            .1
            .gain
            .partial_cmp(&candidates[a].1.gain)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| candidates[a].0.as_ref().cmp(candidates[b].0.as_ref()))
    });
    let intervals: Vec<(f64, f64)> = order.iter().map(|&i| candidates[i].1.gain_ci).collect();
    let stable = mark_rank_stability(&intervals);
    order.into_iter().zip(stable).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(start: u64, per_round: u64, rounds: usize) -> Vec<u64> {
        (1..=rounds as u64).map(|r| start + r * per_round).collect()
    }

    #[test]
    fn blocks_partition_the_whole_window() {
        let base = series(100, 10, 40);
        let fix = series(100, 8, 40);
        let blocks = blocks_from_rounds(&base, &fix, 100, 100);
        assert_eq!(blocks.len(), MAX_BLOCKS);
        assert_eq!(blocks.iter().map(|b| b.base_cycles).sum::<u64>(), 400);
        assert_eq!(blocks.iter().map(|b| b.fix_cycles).sum::<u64>(), 320);
    }

    #[test]
    fn fewer_rounds_than_blocks_degrades_gracefully() {
        let base = series(0, 10, 3);
        let fix = series(0, 10, 3);
        assert_eq!(blocks_from_rounds(&base, &fix, 0, 0).len(), 3);
        assert!(blocks_from_rounds(&[], &[], 0, 0).is_empty());
    }

    #[test]
    fn a_uniform_improvement_is_confident() {
        let blocks = blocks_from_rounds(&series(0, 100, 32), &series(0, 60, 32), 0, 0);
        let est = estimate_gain(&blocks);
        assert!((est.gain - 0.4).abs() < 1e-9);
        assert!((est.speedup - 100.0 / 60.0).abs() < 1e-9);
        assert_eq!(est.blocks_improved, est.blocks);
        assert!(est.confident);
    }

    #[test]
    fn a_no_op_fix_is_not_confident() {
        let blocks = blocks_from_rounds(&series(0, 100, 32), &series(0, 100, 32), 0, 0);
        let est = estimate_gain(&blocks);
        assert_eq!(est.gain, 0.0);
        assert_eq!(est.blocks_improved, 0);
        assert!(!est.confident);
    }

    #[test]
    fn ranking_orders_by_gain_and_marks_separated_ranks_stable() {
        let big = estimate_gain(&blocks_from_rounds(
            &series(0, 100, 16),
            &series(0, 50, 16),
            0,
            0,
        ));
        let small = estimate_gain(&blocks_from_rounds(
            &series(0, 100, 16),
            &series(0, 95, 16),
            0,
            0,
        ));
        let ranked = rank_candidates(&[("small", small), ("big", big)]);
        assert_eq!(ranked[0].0, 1, "the bigger gain ranks first");
        assert!(ranked[0].1 && ranked[1].1, "disjoint intervals are stable");
    }
}
