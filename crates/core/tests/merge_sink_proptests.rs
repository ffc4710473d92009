//! Property tests for the [`MergeSink`] contract that the serve collector leans
//! on:
//!
//! 1. **Order-insensitivity** — absorbing the same shard set in any arrival
//!    order yields a bit-identical `MergedReport` (floats included), equal to
//!    the one-shot [`merge_shards`] over the canonically sorted set.
//! 2. **Compaction exactness** — a bounded sink (small compact threshold) keeps
//!    its resident shard count under the threshold while preserving every exact
//!    count (pooled miss samples per type, per-class miss samples, requests,
//!    thread multiplicities) against the unbounded merge of the same set, and
//!    every working-set mean to rounding.

use dprof_core::merge::{
    merge_shards, MergeSink, ProfileShard, ShardMeta, ShardMissRow, ShardProfileRow,
    ShardUtilization, ShardUtilizationOrigin, ShardUtilizationRow, ShardWorkingSet,
    ShardWorkingSetRow, StreamingMerge,
};
use proptest::prelude::*;

#[path = "support/shards.rs"]
mod shards;
use shards::{permutation, shard_set_strategy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Absorbing in permuted arrival order changes nothing: the sink's report is
    /// bit-identical to both the original-order sink and the one-shot
    /// `merge_shards` over the canonically sorted slice.
    #[test]
    fn streaming_merge_is_arrival_order_insensitive(
        shards in shard_set_strategy(),
        key in any::<u64>(),
    ) {
        let mut in_order = StreamingMerge::new();
        for s in &shards {
            in_order.absorb(s.clone());
        }
        let mut permuted = StreamingMerge::new();
        for &i in &permutation(shards.len(), key) {
            permuted.absorb(shards[i].clone());
        }
        prop_assert_eq!(in_order.absorbed(), shards.len() as u64);
        let report = in_order.finish();
        prop_assert_eq!(&report, &permuted.finish());

        // ... and equal to the one-shot merge over the canonically sorted set.
        let mut sorted: Vec<&ProfileShard> = shards.iter().collect();
        sorted.sort_by_key(|s| s.sort_key());
        prop_assert_eq!(&report, &merge_shards(&sorted));
    }

    /// A bounded sink keeps `shard_count() < threshold` after every absorb and
    /// preserves the exact pooled counts of the unbounded merge: per-type L1
    /// miss samples, per-class miss samples, total requests, pooled weight, and
    /// the working-set view (means to rounding, multiplicities exactly).
    #[test]
    fn compacting_sink_preserves_exact_counts(
        shards in shard_set_strategy(),
        threshold in 2usize..6,
    ) {
        let mut bounded = StreamingMerge::with_compact_threshold(threshold);
        for s in &shards {
            bounded.absorb(s.clone());
            // absorb() compacts at the threshold, so residency stays below it.
            prop_assert!(bounded.shard_count() < threshold.max(2) + 1);
        }
        prop_assert_eq!(bounded.absorbed(), shards.len() as u64);

        let mut unbounded = StreamingMerge::new();
        for s in &shards {
            unbounded.absorb(s.clone());
        }
        let compacted = bounded.finish();
        let exact = unbounded.finish();

        prop_assert_eq!(compacted.totals.requests, exact.totals.requests);
        prop_assert_eq!(compacted.totals.total_cycles, exact.totals.total_cycles);
        prop_assert!((compacted.pooled_weight - exact.pooled_weight).abs() < 1e-6);

        prop_assert_eq!(compacted.data_profile.len(), exact.data_profile.len());
        for (c, e) in compacted.data_profile.iter().zip(&exact.data_profile) {
            prop_assert_eq!(&c.name, &e.name);
            prop_assert_eq!(c.l1_miss_samples, e.l1_miss_samples);
            prop_assert_eq!(c.samples, e.samples);
            // Weighted-mean percentages are reconstructed at rounding accuracy.
            prop_assert!((c.pct_of_l1_misses - e.pct_of_l1_misses).abs() < 1e-6,
                "{}: {} vs {}", c.name, c.pct_of_l1_misses, e.pct_of_l1_misses);
        }

        prop_assert_eq!(compacted.miss_classification.len(), exact.miss_classification.len());
        for (c, e) in compacted.miss_classification.iter().zip(&exact.miss_classification) {
            prop_assert_eq!(&c.name, &e.name);
            prop_assert_eq!(c.miss_samples, e.miss_samples);
        }

        // Utilization counts pool exactly and rates are sums, so compaction
        // preserves the whole merged view bit-for-bit.
        prop_assert_eq!(&compacted.utilization, &exact.utilization);

        // A base shard keeps each working-set row's own thread multiplicity, so
        // the means survive compaction (rows may swap places on a rounding-level
        // tie, hence the lookup by name).
        let (c, e) = (&compacted.working_set, &exact.working_set);
        prop_assert_eq!(c.thread_count, e.thread_count);
        prop_assert_eq!(c.threads_exceeding_capacity, e.threads_exceeding_capacity);
        prop_assert_eq!(c.conflict_sets, e.conflict_sets);
        prop_assert_eq!(c.rows.len(), e.rows.len());
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs();
        for e in &e.rows {
            let c = c.rows.iter().find(|c| c.name == e.name).expect("row survives");
            prop_assert!(close(c.avg_live_bytes, e.avg_live_bytes),
                "{}: {} vs {}", e.name, c.avg_live_bytes, e.avg_live_bytes);
            prop_assert!(close(c.avg_live_objects, e.avg_live_objects));
            prop_assert_eq!(c.peak_live_bytes, e.peak_live_bytes);
            prop_assert_eq!(c.threads_seen, e.threads_seen);
        }
        prop_assert!(close(c.total_avg_bytes, e.total_avg_bytes));
    }
}
