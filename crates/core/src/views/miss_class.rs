//! The miss-classification view (§4.3): for each data type, what kinds of misses it
//! suffers — invalidations (true/false sharing), associativity conflicts, or capacity.
//!
//! The classifier follows the thesis:
//!
//! * **Invalidations** are found by searching backwards in a path trace, from a missing
//!   access, for a write to the same cache line from a different CPU.  Sample-level
//!   evidence (accesses satisfied by a foreign cache) is used when no histories exist.
//! * **Conflict vs. capacity**: if only a few associativity sets are over-subscribed the
//!   remaining misses are conflicts; if most sets are about equally loaded the problem
//!   is capacity.  (Compulsory misses are assumed negligible, §4.3.)
//!
//! The view emits the shard's own rows ([`ShardMissRow`]): a miss count and the three
//! class fractions.  The dominant class is [`ShardMissRow::dominant`], the one rule
//! the per-thread view and the merged report share.

use crate::merge::ShardMissRow;
use crate::path_trace::PathTrace;
use crate::sample::AccessSample;
use crate::views::working_set::WorkingSetView;
use sim_cache::HitLevel;
use sim_kernel::{TypeId, TypeRegistry};
use std::collections::HashMap;

/// Estimates, from a type's path traces, the fraction of missing accesses that were
/// preceded (in the same trace) by a write to the same cache line from a different CPU —
/// the backward-search invalidation rule of §4.3.
fn invalidation_fraction_from_traces(traces: &[PathTrace]) -> Option<f64> {
    let mut weighted_missing = 0.0;
    let mut weighted_invalidation = 0.0;
    for t in traces {
        for (i, e) in t.entries.iter().enumerate() {
            let miss_prob =
                1.0 - e.stats.hit_probability(HitLevel::L1) - e.stats.hit_probability(HitLevel::L2);
            if miss_prob <= 0.0 || e.stats.count == 0 {
                continue;
            }
            let weight = t.frequency as f64 * miss_prob;
            weighted_missing += weight;
            let line_of = |off: u64| off / 64;
            let lines: Vec<u64> = e.offsets.iter().map(|&o| line_of(o)).collect();
            let invalidated = t.entries[..i].iter().rev().any(|prev| {
                prev.is_write
                    && prev.cpu_change_chain_differs(e)
                    && prev.offsets.iter().any(|&o| lines.contains(&line_of(o)))
            });
            if invalidated {
                weighted_invalidation += weight;
            }
        }
    }
    if weighted_missing == 0.0 {
        None
    } else {
        Some(weighted_invalidation / weighted_missing)
    }
}

impl crate::path_trace::PathTraceEntry {
    /// Heuristic: whether this entry and `other` ran on different CPUs, judged from the
    /// cpu-change flags (a change between them means different CPUs).
    fn cpu_change_chain_differs(&self, other: &crate::path_trace::PathTraceEntry) -> bool {
        // If either entry is marked as a CPU change the two accesses straddle a core
        // switch; that is the situation the backward search is looking for.
        self.cpu_change || other.cpu_change
    }
}

/// Classifies the misses of every type that appears in the samples.
pub fn classify_misses(
    samples: &[AccessSample],
    path_traces: &HashMap<TypeId, Vec<PathTrace>>,
    working_set: &WorkingSetView,
    registry: &TypeRegistry,
) -> Vec<ShardMissRow> {
    #[derive(Default)]
    struct Acc {
        misses: u64,
        remote: u64,
    }
    let mut acc: HashMap<TypeId, Acc> = HashMap::new();
    for s in samples {
        if s.is_l1_miss() {
            let a = acc.entry(s.type_id).or_default();
            a.misses += 1;
            if s.level == HitLevel::RemoteCache {
                a.remote += 1;
            }
        }
    }

    let mut rows: Vec<ShardMissRow> = acc
        .into_iter()
        .map(|(ty, a)| {
            // Invalidation fraction: prefer the path-trace backward search, fall back to
            // the fraction of foreign-cache fetches.
            let sample_fraction = if a.misses == 0 {
                0.0
            } else {
                a.remote as f64 / a.misses as f64
            };
            let invalidation = path_traces
                .get(&ty)
                .and_then(|t| invalidation_fraction_from_traces(t))
                .map(|f| f.max(sample_fraction))
                .unwrap_or(sample_fraction)
                .clamp(0.0, 1.0);

            // The remainder is split between conflict and capacity using the
            // associativity histogram: conflict if this type occupies one of the
            // flagged over-subscribed sets, otherwise capacity — pressure on the L2
            // when the total working set exceeds it, else on the smaller L1, which the
            // L2-scale analysis cannot see.
            let rest = 1.0 - invalidation;
            let (conflict, capacity) = if working_set.type_in_conflict_set(ty) {
                (rest, 0.0)
            } else {
                (0.0, rest)
            };

            ShardMissRow {
                name: registry.name(ty).into(),
                miss_samples: a.misses,
                invalidation,
                conflict,
                capacity,
            }
        })
        .collect();
    // Name tie-break for cross-process determinism (see build_data_profile).
    rows.sort_by(|a, b| {
        b.miss_samples
            .cmp(&a.miss_samples)
            .then_with(|| a.name.cmp(&b.name))
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::views::working_set::build_working_set;
    use sim_cache::CacheGeometry;
    use sim_kernel::AllocRecord;
    use sim_machine::FunctionId;

    fn registry() -> TypeRegistry {
        let mut r = TypeRegistry::new();
        r.register("shared", "shared structure", 64);
        r.register("big", "big buffer", 1024);
        r
    }

    fn sample(type_id: u32, level: HitLevel) -> AccessSample {
        AccessSample {
            type_id: TypeId(type_id),
            offset: 0,
            ip: FunctionId(1),
            cpu: 0,
            level,
            latency: 100,
            is_write: false,
        }
    }

    fn ws(records: &[AllocRecord], geom: CacheGeometry) -> WorkingSetView {
        build_working_set(records, &registry(), geom, 0, 1000)
    }

    #[test]
    fn remote_heavy_type_classified_as_invalidation() {
        let samples = vec![
            sample(0, HitLevel::RemoteCache),
            sample(0, HitLevel::RemoteCache),
            sample(0, HitLevel::RemoteCache),
            sample(0, HitLevel::L3),
        ];
        let view = ws(&[], CacheGeometry::l2_default());
        let rows = classify_misses(&samples, &HashMap::new(), &view, &registry());
        assert_eq!(rows[0].dominant(), "invalidation");
        assert!(rows[0].invalidation >= 0.75);
    }

    #[test]
    fn capacity_dominates_when_working_set_exceeds_cache() {
        let geom = CacheGeometry::new(64, 2, 16); // 2 KiB cache
        let records: Vec<AllocRecord> = (0..8)
            .map(|i| AllocRecord::new(0x1000 + i * 1024, TypeId(1), 1024, 0, 0, None))
            .collect();
        let samples = vec![
            sample(1, HitLevel::Dram),
            sample(1, HitLevel::Dram),
            sample(1, HitLevel::L3),
        ];
        let view = ws(&records, geom);
        let rows = classify_misses(&samples, &HashMap::new(), &view, &registry());
        assert_eq!(rows[0].dominant(), "capacity");
    }

    #[test]
    fn conflict_dominates_when_type_sits_in_crowded_set() {
        let geom = CacheGeometry::new(64, 4, 64);
        let stride = (geom.sets * geom.line_size) as u64;
        let records: Vec<AllocRecord> = (0..32)
            .map(|i| AllocRecord::new(0x10_0000 + i * stride, TypeId(0), 64, 0, 0, None))
            .collect();
        let samples = vec![sample(0, HitLevel::Dram), sample(0, HitLevel::L3)];
        let view = ws(&records, geom);
        let rows = classify_misses(&samples, &HashMap::new(), &view, &registry());
        assert_eq!(rows[0].dominant(), "conflict");
    }

    #[test]
    fn fractions_sum_to_one() {
        let samples = vec![
            sample(0, HitLevel::RemoteCache),
            sample(0, HitLevel::Dram),
            sample(0, HitLevel::L3),
        ];
        let view = ws(&[], CacheGeometry::l2_default());
        let rows = classify_misses(&samples, &HashMap::new(), &view, &registry());
        let total = rows[0].invalidation + rows[0].conflict + rows[0].capacity;
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_tie_goes_to_invalidation() {
        // One remote miss of two: invalidation and capacity both 0.5.  The first
        // maximum wins, as in the merged report.
        let samples = vec![sample(0, HitLevel::RemoteCache), sample(0, HitLevel::Dram)];
        let view = ws(&[], CacheGeometry::l2_default());
        let rows = classify_misses(&samples, &HashMap::new(), &view, &registry());
        assert_eq!((rows[0].invalidation, rows[0].capacity), (0.5, 0.5));
        assert_eq!(rows[0].dominant(), "invalidation");
    }
}
