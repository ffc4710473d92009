//! Generated shards for the fold's property tests: `merge_sink_proptests.rs` and the
//! running fold's oracle test in `src/merge/oracle.rs` include this file by `#[path]`.
//! The including module imports the `merge` shard types and `proptest::prelude::*`.

use super::*;

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
            name: name.as_str().into(),
            description: format!("{name} (generated)").into(),
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
            name: name.as_str().into(),
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
                name: name.as_str().into(),
                description: format!("{name} (generated)").into(),
                slots_fetched: fetched,
                slots_touched: touched,
                refetch_slots: misses / 2,
                wasted_bytes_per_sec: *misses as f64 * 3.0,
                origins: vec![ShardUtilizationOrigin {
                    origin: format!("cpu{}", seed % 4).into(),
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
                name: (*name).into(),
                description: format!("{name} (generated)").into(),
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

pub fn shard_set_strategy() -> impl Strategy<Value = Vec<ProfileShard>> {
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
pub fn permutation(n: usize, key: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| {
        (i as u64)
            .wrapping_mul(6_364_136_223_846_793_005)
            .rotate_left((key % 64) as u32)
            ^ key
    });
    order
}
