//! The fold as it was before it ran as shards arrive: six passes over a slice of
//! shards in the given order, keyed by names borrowed from them.  Kept verbatim as the
//! oracle of the running `Fold` and of what `StreamingMerge` reads from it.

use super::*;
use crate::schema::{self, JsonTape};
use proptest::prelude::*;
use std::sync::LazyLock;

#[path = "../../tests/support/shards.rs"]
mod shards;
use shards::{permutation, shard_set_strategy};

/// Folds shards, in the given order, into one base shard at the smallest ordinal
/// folded in.
///
/// Counts are pooled exactly; a mean becomes a single observation that carries its
/// pooled weight (`weight`, `threads_seen`, `thread_count`, `samples`), so folding the
/// base shard with new shards gives the same answer as folding the originals up to
/// float rounding.  Per-producer bookkeeping collapses into one aggregate
/// [`ShardMeta`]; every table is sorted on a total key.
pub fn fold(shards: &[&ProfileShard]) -> ProfileShard {
    let weight = sum_f64(shards, |s| s.weight);
    let total_cycles = sum_counts(shards, |s| s.meta.total_cycles);
    ProfileShard {
        ordinal: shards.iter().map(|s| s.ordinal).min().unwrap_or(0),
        weight,
        meta: ShardMeta {
            thread: 0,
            seed: 0,
            requests: sum_counts(shards, |s| s.meta.requests),
            rps: sum_f64(shards, |s| s.meta.rps),
            // Cycle-weighted, so a shard that simulated 10x more work counts 10x.
            profiling_fraction: if total_cycles == 0 {
                0.0
            } else {
                sum_f64(shards, |s| {
                    s.meta.profiling_fraction * s.meta.total_cycles as f64
                }) / total_cycles as f64
            },
            samples: sum_counts(shards, |s| s.meta.samples),
            total_cycles,
        },
        data_profile: fold_data_profile(shards, weight),
        miss_classification: fold_miss_classification(shards),
        utilization: fold_utilization(shards),
        working_set: fold_working_set(shards),
        data_flows: fold_data_flows(shards),
    }
}

/// A count summed over shards.
fn sum_counts(shards: &[&ProfileShard], count: impl Fn(&ProfileShard) -> u64) -> u64 {
    shards.iter().fold(0, |sum, s| add_counts(sum, count(s)))
}

/// A value summed over shards with [`add_f64`], from `-0.0` as `Iterator::sum` starts.
fn sum_f64(shards: &[&ProfileShard], value: impl Fn(&ProfileShard) -> f64) -> f64 {
    shards.iter().fold(-0.0, |sum, s| add_f64(sum, value(s)))
}

// Each table below accumulates into its own row type: while shards are being
// absorbed a mean field holds the weighted *sum*, and the final pass divides.

fn fold_data_profile(shards: &[&ProfileShard], total_weight: f64) -> Vec<ShardProfileRow> {
    let mut acc: NameMap<&str, ShardProfileRow> = NameMap::default();
    for shard in shards {
        for row in &shard.data_profile {
            let entry = acc.entry(&row.name).or_insert_with(|| ShardProfileRow {
                name: row.name.clone(),
                description: row.description.clone(),
                working_set_bytes: 0.0,
                pct_of_l1_misses: 0.0,
                pct_of_miss_cycles: 0.0,
                bounce: false,
                samples: 0,
                l1_miss_samples: 0,
                threads_seen: 0,
            });
            // `working_set_bytes` is the row's mean over `threads_seen` threads;
            // re-expanding to a sum keeps the merged mean exact under compaction
            // (and is a multiplication by 1.0 — bit-exact — for fresh shards).
            entry.working_set_bytes = add_f64(
                entry.working_set_bytes,
                row.working_set_bytes * row.threads_seen as f64,
            );
            entry.pct_of_l1_misses =
                add_f64(entry.pct_of_l1_misses, shard.weight * row.pct_of_l1_misses);
            entry.pct_of_miss_cycles = add_f64(
                entry.pct_of_miss_cycles,
                shard.weight * row.pct_of_miss_cycles,
            );
            entry.bounce |= row.bounce;
            entry.samples = add_counts(entry.samples, row.samples);
            entry.l1_miss_samples = add_counts(entry.l1_miss_samples, row.l1_miss_samples);
            entry.threads_seen = add_thread_counts(entry.threads_seen, row.threads_seen);
        }
    }
    let mut rows: Vec<ShardProfileRow> = acc
        .into_values()
        .map(|mut row| {
            row.working_set_bytes /= row.threads_seen as f64;
            if total_weight > 0.0 {
                row.pct_of_l1_misses /= total_weight;
                row.pct_of_miss_cycles /= total_weight;
            } else {
                row.pct_of_l1_misses = 0.0;
                row.pct_of_miss_cycles = 0.0;
            }
            row
        })
        .collect();
    rows.sort_by(|a, b| {
        b.pct_of_l1_misses
            .partial_cmp(&a.pct_of_l1_misses)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.name.cmp(&b.name))
    });
    rows
}

fn fold_miss_classification(shards: &[&ProfileShard]) -> Vec<ShardMissRow> {
    let mut acc: NameMap<&str, ShardMissRow> = NameMap::default();
    for shard in shards {
        for row in &shard.miss_classification {
            let w = row.miss_samples as f64;
            let entry = acc.entry(&row.name).or_insert_with(|| ShardMissRow {
                name: row.name.clone(),
                miss_samples: 0,
                invalidation: 0.0,
                conflict: 0.0,
                capacity: 0.0,
            });
            entry.miss_samples = add_counts(entry.miss_samples, row.miss_samples);
            entry.invalidation = add_f64(entry.invalidation, w * row.invalidation);
            entry.conflict = add_f64(entry.conflict, w * row.conflict);
            entry.capacity = add_f64(entry.capacity, w * row.capacity);
        }
    }
    let mut rows: Vec<ShardMissRow> = acc
        .into_values()
        .map(|mut row| {
            let w = row.miss_samples.max(1) as f64;
            row.invalidation /= w;
            row.conflict /= w;
            row.capacity /= w;
            row
        })
        .collect();
    rows.sort_by(|a, b| {
        b.miss_samples
            .cmp(&a.miss_samples)
            .then_with(|| a.name.cmp(&b.name))
    });
    rows
}

fn fold_utilization(shards: &[&ProfileShard]) -> ShardUtilization {
    type Origins<'a> = NameMap<&'a str, (u64, u64)>;
    let mut acc: NameMap<&str, (ShardUtilizationRow, Origins)> = NameMap::default();
    for shard in shards {
        for row in &shard.utilization.rows {
            let (entry, origins) = acc.entry(&row.name).or_insert_with(|| {
                let entry = ShardUtilizationRow {
                    name: row.name.clone(),
                    description: row.description.clone(),
                    ..ShardUtilizationRow::default()
                };
                (entry, Origins::default())
            });
            entry.slots_fetched = add_counts(entry.slots_fetched, row.slots_fetched);
            entry.slots_touched = add_counts(entry.slots_touched, row.slots_touched);
            entry.refetch_slots = add_counts(entry.refetch_slots, row.refetch_slots);
            // Per-shard rates are bandwidths of machines running in parallel, so they
            // add; the pooled slot counts stay exact for the Wilson interval.
            entry.wasted_bytes_per_sec =
                add_f64(entry.wasted_bytes_per_sec, row.wasted_bytes_per_sec);
            for o in &row.origins {
                let slot = origins.entry(&o.origin).or_default();
                slot.0 = add_counts(slot.0, o.slots_fetched);
                slot.1 = add_counts(slot.1, o.slots_touched);
            }
        }
    }
    let mut rows: Vec<ShardUtilizationRow> = acc
        .into_values()
        .map(|(mut row, origins)| {
            row.origins = origins
                .into_iter()
                .map(|(origin, (fetched, touched))| ShardUtilizationOrigin {
                    origin: origin.into(),
                    slots_fetched: fetched,
                    slots_touched: touched,
                })
                .collect();
            row.origins.sort_by(|x, y| {
                y.wasted_bytes()
                    .cmp(&x.wasted_bytes())
                    .then_with(|| x.origin.cmp(&y.origin))
            });
            row
        })
        .collect();
    rows.sort_by(|a, b| {
        b.wasted_bytes()
            .cmp(&a.wasted_bytes())
            .then_with(|| a.name.cmp(&b.name))
    });
    ShardUtilization {
        rows,
        total_fetches: sum_counts(shards, |s| s.utilization.total_fetches),
        total_refetches: sum_counts(shards, |s| s.utilization.total_refetches),
        resolved_slots_fetched: sum_counts(shards, |s| s.utilization.resolved_slots_fetched),
        resolved_slots_touched: sum_counts(shards, |s| s.utilization.resolved_slots_touched),
    }
}

fn fold_working_set(shards: &[&ProfileShard]) -> ShardWorkingSet {
    let mut acc: NameMap<&str, ShardWorkingSetRow> = NameMap::default();
    for shard in shards {
        for t in &shard.working_set.rows {
            let entry = acc.entry(&t.name).or_insert_with(|| ShardWorkingSetRow {
                name: t.name.clone(),
                description: t.description.clone(),
                avg_live_bytes: 0.0,
                avg_live_objects: 0.0,
                peak_live_bytes: 0,
                threads_seen: 0,
            });
            entry.avg_live_bytes = add_f64(
                entry.avg_live_bytes,
                t.avg_live_bytes * t.threads_seen as f64,
            );
            entry.avg_live_objects = add_f64(
                entry.avg_live_objects,
                t.avg_live_objects * t.threads_seen as f64,
            );
            entry.peak_live_bytes = entry.peak_live_bytes.max(t.peak_live_bytes);
            entry.threads_seen = add_thread_counts(entry.threads_seen, t.threads_seen);
        }
    }
    let mut rows: Vec<ShardWorkingSetRow> = acc
        .into_values()
        .map(|mut row| {
            row.avg_live_bytes /= row.threads_seen as f64;
            row.avg_live_objects /= row.threads_seen as f64;
            row
        })
        .collect();
    rows.sort_by(|a, b| {
        b.avg_live_bytes
            .partial_cmp(&a.avg_live_bytes)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.name.cmp(&b.name))
    });

    let first = shards.first().map(|s| &s.working_set);
    let thread_count = shards
        .iter()
        .fold(0, |n, s| add_thread_counts(n, s.working_set.thread_count));
    ShardWorkingSet {
        rows,
        cache_capacity: first.map_or(0, |ws| ws.cache_capacity),
        cache_ways: first.map_or(0, |ws| ws.cache_ways),
        total_avg_bytes: sum_f64(shards, |s| {
            s.working_set.total_avg_bytes * s.working_set.thread_count as f64
        }) / thread_count.max(1) as f64,
        thread_count,
        threads_exceeding_capacity: shards.iter().fold(0, |n, s| {
            add_thread_counts(n, s.working_set.threads_exceeding_capacity)
        }),
        conflict_sets: shards
            .iter()
            .map(|s| s.working_set.conflict_sets)
            .max()
            .unwrap_or(0),
    }
}

fn fold_data_flows(shards: &[&ProfileShard]) -> Vec<ShardFlow> {
    #[derive(Default)]
    struct FlowAcc<'a> {
        nodes: NameMap<&'a str, ShardFlowNode>,
        edges: NameMap<(&'a str, &'a str, bool), u64>,
    }
    let mut flows: NameMap<&str, FlowAcc> = NameMap::default();
    for shard in shards {
        for graph in &shard.data_flows {
            let flow = flows.entry(&graph.type_name).or_default();
            for node in &graph.nodes {
                let acc = flow
                    .nodes
                    .entry(&node.function)
                    .or_insert_with(|| ShardFlowNode {
                        function: node.function.clone(),
                        samples: 0,
                        weight: 0,
                        avg_latency: 0.0,
                    });
                acc.samples = add_counts(acc.samples, node.samples);
                acc.weight = add_counts(acc.weight, node.weight);
                // Per-shard avg_latency is a per-sample mean, so weight by samples to
                // keep the merged value a per-sample mean.
                acc.avg_latency = add_f64(acc.avg_latency, node.samples as f64 * node.avg_latency);
            }
            for edge in &graph.edges {
                let key = (&*edge.from, &*edge.to, edge.cpu_change);
                let count = flow.edges.entry(key).or_insert(0);
                *count = add_counts(*count, edge.count);
            }
        }
    }
    let mut merged: Vec<ShardFlow> = flows
        .into_iter()
        .map(|(type_name, flow)| {
            let mut nodes: Vec<ShardFlowNode> = flow
                .nodes
                .into_values()
                .map(|mut node| {
                    if node.samples > 0 {
                        node.avg_latency /= node.samples as f64;
                    } else {
                        node.avg_latency = 0.0;
                    }
                    node
                })
                .collect();
            nodes.sort_by(|a, b| {
                b.weight
                    .cmp(&a.weight)
                    .then_with(|| a.function.cmp(&b.function))
            });
            let mut edges: Vec<ShardFlowEdge> = flow
                .edges
                .into_iter()
                .map(|((from, to, cpu_change), count)| ShardFlowEdge {
                    from: from.into(),
                    to: to.into(),
                    count,
                    cpu_change,
                })
                .collect();
            // The full accumulation key — (from, to, cpu_change) — must participate
            // in the sort: two edges differing only in cpu_change would otherwise
            // tie and inherit HashMap iteration order, which is not stable across
            // processes (record vs replay byte-diffs the rendered report).
            edges.sort_by(|a, b| {
                b.count
                    .cmp(&a.count)
                    .then_with(|| a.from.cmp(&b.from))
                    .then_with(|| a.to.cmp(&b.to))
                    .then_with(|| a.cpu_change.cmp(&b.cpu_change))
            });
            ShardFlow {
                type_name: type_name.into(),
                nodes,
                edges,
            }
        })
        .collect();
    merged.sort_by(|a, b| a.type_name.cmp(&b.type_name));
    merged
}

/// `merge_shards` over the oracle's fold.
fn merge(shards: &[&ProfileShard]) -> MergedReport {
    MergedReport::rank(
        shards.iter().map(|s| s.meta.clone()).collect(),
        fold(shards),
    )
}

/// The retained shards in canonical order: sorted by key, equal keys in arrival order.
fn canonical(shards: &[ProfileShard]) -> Vec<&ProfileShard> {
    let mut sorted: Vec<&ProfileShard> = shards.iter().collect();
    sorted.sort_by_key(|s| s.sort_key());
    sorted
}

/// The four golden reports as pushed shards: real row counts, data-flow graphs and
/// per-origin utilization, which the generated shards do not have.
static GOLDEN: LazyLock<Vec<ProfileShard>> = LazyLock::new(|| {
    [
        include_str!("../../../../tests/golden/memcached_quick.report.json"),
        include_str!("../../../../tests/golden/false_sharing_quick.report.json"),
        include_str!("../../../../tests/golden/apache_quick.report.json"),
        include_str!("../../../../tests/golden/sparse_struct_waste_quick.report.json"),
    ]
    .iter()
    .map(|text| schema::shard_from_report_json(&JsonTape::parse(text).unwrap(), 0).unwrap())
    .collect()
});

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// In any arrival order, `folded()` and `finish()` are the oracle's fold and
    /// merge of the shards the sink retains — modelled here as a set the sink
    /// compacts into the oracle's fold at the threshold — sorted canonically, bit for
    /// bit (`Debug` tells `-0.0` from `0.0`).  The arrivals mix generated and golden
    /// shards, copies with equal sort keys, and a late shard below every ordinal;
    /// threshold 7 stands for a sink that never compacts.  Reads come after every
    /// absorb, every second or every third (and after the last), so that absorbs and
    /// compactions also meet a fold that an earlier absorb emptied.
    #[test]
    fn the_running_fold_reads_the_oracle_fold_of_the_retained_shards(
        generated in shard_set_strategy(),
        goldens in proptest::collection::vec((0usize..4, 0u64..14), 0..4),
        copies in proptest::collection::vec(any::<usize>(), 0..3),
        late in any::<bool>(),
        key in any::<u64>(),
        threshold in 2usize..8,
        read_every in 1usize..4,
    ) {
        let mut pool = generated;
        for (golden, ordinal) in goldens {
            pool.push(ProfileShard { ordinal, ..GOLDEN[golden].clone() });
        }
        for copy in copies {
            pool.push(pool[copy % pool.len()].clone());
        }
        let mut arrivals: Vec<ProfileShard> =
            permutation(pool.len(), key).into_iter().map(|i| pool[i].clone()).collect();
        if late {
            arrivals.push(ProfileShard { ordinal: 0, ..arrivals[0].clone() });
        }

        let mut sink = if threshold == 7 {
            StreamingMerge::new()
        } else {
            StreamingMerge::with_compact_threshold(threshold)
        };
        let mut retained: Vec<ProfileShard> = Vec::new();
        // How many of the canonically first retained shards the last read summed, and
        // how often an absorb sorted below one of them.
        let (mut summed, mut rebuilds) = (0, 0);
        let arrivals_len = arrivals.len();
        for (step, shard) in arrivals.into_iter().enumerate() {
            let below = canonical(&retained)
                .iter()
                .filter(|s| s.sort_key() > shard.sort_key())
                .count();
            if retained.len() - below < summed {
                (summed, rebuilds) = (0, rebuilds + 1);
            }
            retained.push(shard.clone());
            sink.absorb(shard);
            if retained.len() >= threshold && threshold < 7 {
                retained = vec![fold(&canonical(&retained))];
                summed = 0;
            }
            prop_assert_eq!(sink.shard_count(), retained.len());
            prop_assert_eq!(sink.fold_rebuilds(), rebuilds);
            if step % read_every != 0 && step + 1 < arrivals_len {
                continue;
            }
            summed = retained.len();
            let sorted = canonical(&retained);
            prop_assert_eq!(
                format!("{:?}", sink.folded()),
                format!("{:?}", fold(&sorted)),
                "folded() after absorb {}", step
            );
            prop_assert_eq!(
                format!("{:?}", sink.finish()),
                format!("{:?}", merge(&sorted)),
                "finish() after absorb {}", step
            );
        }
    }
}
