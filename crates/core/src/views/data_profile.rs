//! The data-profile view (§3, §4.1): data types ranked by their share of cache misses,
//! with a flag showing whether objects of the type bounce between cores.
//!
//! This is the highest-level view and the one shown in Tables 6.1, 6.4 and 6.5.

use crate::path_trace::PathTrace;
use crate::sample::AccessSample;
use crate::views::working_set::WorkingSetView;
use serde::{Deserialize, Serialize};
use sim_cache::HitLevel;
use sim_kernel::{TypeId, TypeRegistry};
use std::collections::HashMap;

/// One row of the data profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DataProfileRow {
    /// The type.
    pub type_id: TypeId,
    /// Type name (e.g. `"size-1024"`).
    pub name: String,
    /// Human-readable description (e.g. `"packet payload"`).
    pub description: String,
    /// Working-set size in bytes (from the working-set view), if known.
    pub working_set_bytes: f64,
    /// Percentage of all L1 misses attributed to this type.
    pub pct_of_l1_misses: f64,
    /// Percentage of all L1-miss *latency cycles* attributed to this type (a useful
    /// secondary ranking when miss costs differ widely).
    pub pct_of_miss_cycles: f64,
    /// Whether objects of this type bounce between cores.
    pub bounce: bool,
    /// Number of samples observed for this type.
    pub samples: u64,
    /// L1-miss samples observed for this type (the numerator of
    /// [`Self::pct_of_l1_misses`]; the merge derives the confidence interval and rank
    /// mark from these counts, pooled).
    pub l1_miss_samples: u64,
}

/// Builds the data profile from access samples, path traces (for the bounce flag) and
/// the working-set view (for the size column), sorted by miss share.
pub fn build_data_profile(
    samples: &[AccessSample],
    path_traces: &HashMap<TypeId, Vec<PathTrace>>,
    working_set: &WorkingSetView,
    registry: &TypeRegistry,
) -> Vec<DataProfileRow> {
    #[derive(Default)]
    struct Acc {
        samples: u64,
        l1_misses: u64,
        miss_cycles: u64,
        remote_seen: bool,
    }
    let mut acc: HashMap<TypeId, Acc> = HashMap::new();
    let mut total_l1_misses = 0u64;
    let mut total_miss_cycles = 0u64;

    for s in samples {
        let a = acc.entry(s.type_id).or_default();
        a.samples += 1;
        if s.is_l1_miss() {
            a.l1_misses += 1;
            a.miss_cycles += s.latency;
            total_l1_misses += 1;
            total_miss_cycles += s.latency;
        }
        if s.level == HitLevel::RemoteCache {
            a.remote_seen = true;
        }
    }

    let mut rows: Vec<DataProfileRow> = acc
        .into_iter()
        .map(|(ty, a)| {
            let info = registry.info(ty);
            // The bounce flag is set if any path trace for the type sees a CPU change
            // (§4.1).  When no histories were collected for the type, fall back to the
            // sample-level evidence of foreign-cache fetches.
            let bounce = match path_traces.get(&ty) {
                Some(traces) if !traces.is_empty() => traces.iter().any(|t| t.has_cpu_change()),
                _ => a.remote_seen,
            };
            DataProfileRow {
                type_id: ty,
                name: info.name.clone(),
                description: info.description.clone(),
                working_set_bytes: working_set
                    .for_type(ty)
                    .map(|w| w.avg_live_bytes)
                    .unwrap_or(0.0),
                pct_of_l1_misses: if total_l1_misses == 0 {
                    0.0
                } else {
                    100.0 * a.l1_misses as f64 / total_l1_misses as f64
                },
                pct_of_miss_cycles: if total_miss_cycles == 0 {
                    0.0
                } else {
                    100.0 * a.miss_cycles as f64 / total_miss_cycles as f64
                },
                bounce,
                samples: a.samples,
                l1_miss_samples: a.l1_misses,
            }
        })
        .collect();
    // Tie-break on the type name: equal miss shares must order identically across
    // processes (trace replay compares reports byte-for-byte), and HashMap iteration
    // order is not stable between runs.
    rows.sort_by(|a, b| {
        b.pct_of_l1_misses
            .partial_cmp(&a.pct_of_l1_misses)
            .unwrap()
            .then_with(|| a.name.cmp(&b.name))
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cache::CacheGeometry;
    use sim_machine::FunctionId;

    fn sample(type_id: u32, level: HitLevel, latency: u64) -> AccessSample {
        AccessSample {
            type_id: TypeId(type_id),
            offset: 0,
            ip: FunctionId(1),
            cpu: 0,
            level,
            latency,
            is_write: false,
        }
    }

    fn empty_working_set() -> WorkingSetView {
        build_working_set_empty()
    }

    fn build_working_set_empty() -> WorkingSetView {
        crate::views::working_set::build_working_set(
            &[],
            &registry(),
            CacheGeometry::l2_default(),
            0,
            1,
        )
    }

    fn registry() -> TypeRegistry {
        let mut r = TypeRegistry::new();
        r.register("size-1024", "packet payload", 1024);
        r.register("skbuff", "packet bookkeeping structure", 256);
        r
    }

    #[test]
    fn ranks_types_by_miss_share() {
        let reg = registry();
        let samples = vec![
            // Type 0: three L1 misses (one remote).
            sample(0, HitLevel::L2, 15),
            sample(0, HitLevel::Dram, 250),
            sample(0, HitLevel::RemoteCache, 200),
            // Type 1: one L1 miss, two hits.
            sample(1, HitLevel::L1, 3),
            sample(1, HitLevel::L1, 3),
            sample(1, HitLevel::L2, 15),
        ];
        let rows = build_data_profile(&samples, &HashMap::new(), &empty_working_set(), &reg);
        assert_eq!(rows[0].type_id, TypeId(0));
        assert!((rows[0].pct_of_l1_misses - 75.0).abs() < 1e-9);
        assert!((rows[1].pct_of_l1_misses - 25.0).abs() < 1e-9);
        assert!(rows[0].bounce, "remote-cache samples imply bouncing");
        assert!(!rows[1].bounce);
        assert!(rows[0].pct_of_miss_cycles > rows[1].pct_of_miss_cycles);
    }

    #[test]
    fn path_traces_override_bounce_flag() {
        let reg = registry();
        let samples = vec![sample(0, HitLevel::L2, 15)];
        // A path trace with no CPU change: bounce must be false even though we have no
        // remote samples either way.
        let mut traces = HashMap::new();
        traces.insert(
            TypeId(0),
            vec![PathTrace {
                type_id: TypeId(0),
                entries: vec![],
                frequency: 1,
                avg_lifetime: 0.0,
            }],
        );
        let rows = build_data_profile(&samples, &traces, &empty_working_set(), &reg);
        assert!(!rows[0].bounce);
    }

    #[test]
    fn empty_samples_give_empty_profile() {
        let reg = registry();
        let rows = build_data_profile(&[], &HashMap::new(), &empty_working_set(), &reg);
        assert!(rows.is_empty());
    }

    #[test]
    fn percentages_sum_to_one_hundred() {
        let reg = registry();
        let samples = vec![
            sample(0, HitLevel::L2, 15),
            sample(0, HitLevel::L3, 45),
            sample(1, HitLevel::Dram, 250),
            sample(1, HitLevel::L1, 3),
        ];
        let rows = build_data_profile(&samples, &HashMap::new(), &empty_working_set(), &reg);
        let total: f64 = rows.iter().map(|r| r.pct_of_l1_misses).sum();
        assert!((total - 100.0).abs() < 1e-6);
    }
}
