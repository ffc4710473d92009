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

/// A small fixed name pool so shards overlap on some types and not others.
const NAMES: [&str; 5] = ["skbuff", "ring_desc", "scan_buffer", "hash_bucket", "slab"];

/// One generated shard: a subset of the name pool with per-type miss counts.
/// `ordinal` is assigned by the caller (arrival-unique shard ids, like the
/// producer-assigned ids the serve protocol requires).
fn shard_from(ordinal: u64, seed: u64, rows: Vec<(usize, u64, bool)>) -> ProfileShard {
    let mut picked: Vec<(String, u64, bool)> = Vec::new();
    for (name_idx, misses, bounce) in rows {
        let name = NAMES[name_idx];
        if picked.iter().any(|(n, _, _)| n == name) {
            continue; // one row per type, like a real profile
        }
        picked.push((name.to_string(), misses, bounce));
    }
    let total: u64 = picked.iter().map(|(_, m, _)| *m).sum::<u64>().max(1);
    let profile: Vec<ShardProfileRow> = picked
        .iter()
        .map(|(name, misses, bounce)| ShardProfileRow {
            name: name.clone(),
            description: format!("{name} (generated)"),
            working_set_bytes: 64.0 + *misses as f64,
            pct_of_l1_misses: 100.0 * *misses as f64 / total as f64,
            pct_of_miss_cycles: 100.0 * *misses as f64 / total as f64,
            bounce: *bounce,
            samples: misses * 2 + 1,
            l1_miss_samples: *misses,
            threads_seen: 1,
        })
        .collect();
    let classification: Vec<ShardMissRow> = picked
        .iter()
        .map(|(name, misses, bounce)| ShardMissRow {
            name: name.clone(),
            miss_samples: *misses,
            invalidation: if *bounce { 0.8 } else { 0.1 },
            conflict: 0.1,
            capacity: if *bounce { 0.1 } else { 0.8 },
        })
        .collect();
    let utilization_rows: Vec<ShardUtilizationRow> = picked
        .iter()
        .map(|(name, misses, bounce)| {
            let fetched = misses * 8;
            let touched = misses * if *bounce { 2 } else { 5 };
            ShardUtilizationRow {
                name: name.clone(),
                description: format!("{name} (generated)"),
                slots_fetched: fetched,
                slots_touched: touched,
                refetch_slots: misses / 2,
                wasted_bytes_per_sec: *misses as f64 * 3.0,
                origins: vec![ShardUtilizationOrigin {
                    origin: format!("cpu{}", seed % 4),
                    slots_fetched: fetched,
                    slots_touched: touched,
                }],
            }
        })
        .collect();
    // Working-set rows cover a *superset* of the profiled names: a thread allocates
    // types it never happens to sample, so a type's working-set multiplicity can
    // exceed its data-profile multiplicity.
    let working_set_rows: Vec<ShardWorkingSetRow> = NAMES
        .iter()
        .enumerate()
        .filter(|(i, name)| {
            !(seed + *i as u64).is_multiple_of(3) || picked.iter().any(|(n, _, _)| n == *name)
        })
        .map(|(i, name)| {
            let live = 100 + (seed * 7 + i as u64 * 131) % 900;
            ShardWorkingSetRow {
                name: name.to_string(),
                description: format!("{name} (generated)"),
                avg_live_bytes: live as f64,
                avg_live_objects: live as f64 / 64.0,
                peak_live_bytes: 2 * live,
                threads_seen: 1,
            }
        })
        .collect();
    let live_total: f64 = working_set_rows.iter().map(|r| r.avg_live_bytes).sum();
    let resolved_fetched: u64 = utilization_rows.iter().map(|r| r.slots_fetched).sum();
    let resolved_touched: u64 = utilization_rows.iter().map(|r| r.slots_touched).sum();
    ProfileShard {
        ordinal,
        weight: total as f64,
        meta: ShardMeta {
            thread: ordinal as usize,
            seed,
            requests: 100 + total,
            rps: 1000.0 + seed as f64,
            profiling_fraction: 0.02,
            samples: total * 2,
            total_cycles: 10_000 + total,
        },
        data_profile: profile,
        miss_classification: classification,
        utilization: ShardUtilization {
            rows: utilization_rows,
            total_fetches: total,
            total_refetches: total / 3,
            resolved_slots_fetched: resolved_fetched,
            resolved_slots_touched: resolved_touched,
        },
        working_set: ShardWorkingSet {
            rows: working_set_rows,
            cache_capacity: 2048,
            cache_ways: 8,
            total_avg_bytes: live_total,
            thread_count: 1,
            threads_exceeding_capacity: usize::from(live_total > 2048.0),
            conflict_sets: (seed % 5) as usize,
        },
        data_flows: Vec::new(),
    }
}

fn shard_set_strategy() -> impl Strategy<Value = Vec<ProfileShard>> {
    proptest::collection::vec(
        (
            0u64..1_000, // seed
            proptest::collection::vec((0usize..NAMES.len(), 0u64..500, any::<bool>()), 1..5),
        ),
        1..12,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (seed, rows))| shard_from(i as u64 + 1, seed, rows))
            .collect()
    })
}

/// Deterministic permutation of `0..n` driven by a generated key (the vendored
/// proptest has no shuffle strategy; a keyed sort is just as adversarial).
fn permutation(n: usize, key: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| {
        (i as u64)
            .wrapping_mul(6_364_136_223_846_793_005)
            .rotate_left((key % 64) as u32)
            ^ key
    });
    order
}

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
