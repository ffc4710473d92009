//! Path traces (§4, Table 4.1): the merged, statistics-annotated life histories of a
//! data type along each execution path it takes.
//!
//! A path trace is built by combining all object access histories of a type that follow
//! the same execution path (same sequence of instruction pointers and CPU-change flags),
//! then augmenting every entry with the cache statistics gathered by the access samples
//! for the same `(type, offset, ip)`.

use crate::history::ObjectAccessHistory;
use crate::sample::{
    aggregate_samples, aggregate_samples_by_ip, AccessSample, SampleKey, SampleStats,
};
use serde::{Deserialize, Serialize};
use sim_kernel::TypeId;
use sim_machine::FunctionId;
use std::collections::HashMap;

/// One row of a path trace (one program-counter step, Table 4.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PathTraceEntry {
    /// Instruction pointer.
    pub ip: FunctionId,
    /// Whether this instruction ran on a different CPU than the previous one.
    pub cpu_change: bool,
    /// Offsets into the data structure accessed at this step (merged across histories).
    pub offsets: Vec<u64>,
    /// Whether any of the merged accesses was a write.
    pub is_write: bool,
    /// Average time since allocation, in cycles.
    pub avg_timestamp: f64,
    /// Cache statistics from the access samples for this `(type, ip)` combination.
    pub stats: SampleStats,
}

/// A path trace: one execution path of one data type, with per-step statistics and the
/// number of times the path was observed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PathTrace {
    /// The data type.
    pub type_id: TypeId,
    /// The steps of the path, in order.
    pub entries: Vec<PathTraceEntry>,
    /// How many object access histories followed this path.
    pub frequency: u64,
    /// Average object lifetime along this path, in cycles.
    pub avg_lifetime: f64,
}

impl PathTrace {
    /// True if any step runs on a different CPU than its predecessor.
    pub fn has_cpu_change(&self) -> bool {
        self.entries.iter().any(|e| e.cpu_change)
    }
}

/// Builds path traces for one type from its object access histories and the access
/// samples collected for the workload.
pub fn build_path_traces(
    type_id: TypeId,
    histories: &[ObjectAccessHistory],
    samples: &[AccessSample],
) -> Vec<PathTrace> {
    let by_key = aggregate_samples(samples);
    let by_ip = aggregate_samples_by_ip(samples);

    // Group histories by execution path.
    let mut groups: HashMap<Vec<(FunctionId, bool)>, Vec<&ObjectAccessHistory>> = HashMap::new();
    for h in histories
        .iter()
        .filter(|h| h.type_id == type_id && !h.elements.is_empty())
    {
        groups.entry(h.execution_path()).or_default().push(h);
    }

    let mut traces: Vec<PathTrace> = groups
        .into_iter()
        .map(|(path, group)| {
            let mut entries = Vec::with_capacity(path.len());
            for (step, &(ip, cpu_change)) in path.iter().enumerate() {
                // Collect the offsets/timestamps observed at this step across the group.
                let mut offsets = Vec::new();
                let mut is_write = false;
                let mut time_sum = 0.0;
                for h in &group {
                    let e = &h.elements[step];
                    if !offsets.contains(&e.offset) {
                        offsets.push(e.offset);
                    }
                    is_write |= e.is_write;
                    time_sum += e.time as f64;
                }
                offsets.sort_unstable();
                // Attach sample statistics: prefer an offset-precise match, fall back to
                // the per-ip aggregate.
                let mut stats = SampleStats::default();
                for &off in &offsets {
                    if let Some(s) = by_key.get(&SampleKey {
                        type_id,
                        offset: off & !7,
                        ip,
                    }) {
                        stats.count += s.count;
                        stats.total_latency += s.total_latency;
                        for (k, v) in &s.level_counts {
                            *stats.level_counts.entry(k.clone()).or_insert(0) += v;
                        }
                    }
                }
                if stats.count == 0 {
                    if let Some(s) = by_ip.get(&(type_id, ip)) {
                        stats = s.clone();
                    }
                }
                entries.push(PathTraceEntry {
                    ip,
                    cpu_change,
                    offsets,
                    is_write,
                    avg_timestamp: time_sum / group.len() as f64,
                    stats,
                });
            }
            let lifetimes: Vec<f64> = group
                .iter()
                .filter_map(|h| h.lifetime)
                .map(|l| l as f64)
                .collect();
            PathTrace {
                type_id,
                entries,
                frequency: group.len() as u64,
                avg_lifetime: if lifetimes.is_empty() {
                    0.0
                } else {
                    lifetimes.iter().sum::<f64>() / lifetimes.len() as f64
                },
            }
        })
        .collect();
    // Equal-frequency paths tie-break on the execution path itself: the group map's
    // iteration order is not stable across processes, and the trace order feeds the
    // data-flow graph's node numbering (and therefore the rendered report).
    traces.sort_by(|a, b| {
        b.frequency.cmp(&a.frequency).then_with(|| {
            a.entries
                .iter()
                .map(|e| (e.ip, e.cpu_change))
                .cmp(b.entries.iter().map(|e| (e.ip, e.cpu_change)))
        })
    });
    traces
}

/// Counts the number of distinct execution paths present in a set of histories — the
/// metric of Figure 6-3 (percent of unique paths captured vs. history sets collected).
pub fn count_unique_paths(histories: &[ObjectAccessHistory]) -> usize {
    let mut set = std::collections::HashSet::new();
    for h in histories {
        if !h.elements.is_empty() {
            set.insert(h.execution_path());
        }
    }
    set.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryElement;
    use sim_cache::HitLevel;

    fn hist(type_id: u32, path: &[(u32, usize, bool)], lifetime: u64) -> ObjectAccessHistory {
        // path entries: (ip, cpu, is_write)
        ObjectAccessHistory {
            type_id: TypeId(type_id),
            watched_offsets: vec![0],
            alloc_core: 0,
            elements: path
                .iter()
                .enumerate()
                .map(|(i, &(ip, cpu, w))| HistoryElement {
                    offset: 24,
                    ip: FunctionId(ip),
                    cpu,
                    time: (i as u64 + 1) * 10,
                    is_write: w,
                })
                .collect(),
            lifetime: Some(lifetime),
        }
    }

    fn sample(type_id: u32, offset: u64, ip: u32, level: HitLevel, latency: u64) -> AccessSample {
        AccessSample {
            type_id: TypeId(type_id),
            offset,
            ip: FunctionId(ip),
            cpu: 0,
            level,
            latency,
            is_write: false,
        }
    }

    #[test]
    fn identical_paths_merge_and_count_frequency() {
        let histories = vec![
            hist(1, &[(10, 0, true), (20, 1, false)], 100),
            hist(1, &[(10, 0, true), (20, 1, false)], 200),
            hist(1, &[(10, 0, true), (30, 0, false)], 50),
        ];
        let traces = build_path_traces(TypeId(1), &histories, &[]);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].frequency, 2, "most frequent path first");
        assert_eq!(traces[1].frequency, 1);
        assert!((traces[0].avg_lifetime - 150.0).abs() < 1e-9);
        assert!(traces[0].has_cpu_change());
        assert!(!traces[1].has_cpu_change());
    }

    #[test]
    fn samples_annotate_matching_entries() {
        let histories = vec![hist(1, &[(10, 0, true), (20, 1, false)], 100)];
        let samples = vec![
            sample(1, 24, 20, HitLevel::RemoteCache, 200),
            sample(1, 24, 20, HitLevel::RemoteCache, 200),
            sample(1, 24, 10, HitLevel::L1, 3),
        ];
        let traces = build_path_traces(TypeId(1), &histories, &samples);
        let t = &traces[0];
        assert_eq!(t.entries[0].stats.count, 1);
        assert_eq!(t.entries[1].stats.count, 2);
        assert!(t.entries[1].stats.hit_probability(HitLevel::RemoteCache) > 0.99);
    }

    #[test]
    fn unique_path_counting() {
        let histories = vec![
            hist(1, &[(10, 0, false)], 1),
            hist(1, &[(10, 0, false)], 1),
            hist(1, &[(10, 0, false), (20, 0, false)], 1),
            hist(1, &[(30, 1, true)], 1),
        ];
        assert_eq!(count_unique_paths(&histories), 3);
        assert_eq!(count_unique_paths(&[]), 0);
    }

    #[test]
    fn histories_of_other_types_ignored() {
        let histories = vec![hist(1, &[(10, 0, false)], 1), hist(2, &[(99, 0, false)], 1)];
        let traces = build_path_traces(TypeId(1), &histories, &[]);
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].entries[0].ip, FunctionId(10));
    }
}
