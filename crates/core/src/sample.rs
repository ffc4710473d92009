//! Access samples: the IBS-derived raw data (§5.1, Table 5.1).
//!
//! Each sample records one randomly tagged memory operation: the data type and offset it
//! touched (resolved through the allocator's address set), the instruction pointer, the
//! CPU, and the cache statistics (which level satisfied the access and the latency).

use serde::{Deserialize, Serialize};
use sim_cache::{CoreId, HitLevel};
use sim_kernel::{SlabAllocator, TypeId};
use sim_machine::{FunctionId, IbsRecord};
use std::collections::HashMap;

/// A single access sample (Table 5.1 of the thesis).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccessSample {
    /// The data type containing the accessed address.
    pub type_id: TypeId,
    /// Offset of the accessed address within the object.
    pub offset: u64,
    /// Instruction address responsible for the access.
    pub ip: FunctionId,
    /// The CPU that executed the instruction.
    pub cpu: CoreId,
    /// Which level of the memory system satisfied the access.
    pub level: HitLevel,
    /// Access latency in cycles.
    pub latency: u64,
    /// Whether the access was a write.
    pub is_write: bool,
}

impl AccessSample {
    /// True if the access missed the local L1 (the "% of all L1 misses" metric the
    /// data-profile tables use).
    pub fn is_l1_miss(&self) -> bool {
        self.level != HitLevel::L1
    }

    /// True if the access missed both private cache levels.
    pub fn is_private_miss(&self) -> bool {
        self.level.is_miss()
    }
}

/// Resolves raw IBS records into typed access samples using the allocator's address set.
///
/// Records whose address cannot be attributed to any (live or historical) allocation are
/// dropped, mirroring how DProf ignores samples it cannot type.  The freed part of the
/// address set is indexed once, when the first record misses the live objects.
pub fn resolve_samples(records: &[IbsRecord], allocator: &SlabAllocator) -> Vec<AccessSample> {
    let mut history = None;
    records
        .iter()
        .filter_map(|r| {
            let resolved = allocator.resolve(r.addr).or_else(|| {
                history
                    .get_or_insert_with(|| allocator.history())
                    .resolve_historical(r.addr)
            })?;
            Some(AccessSample {
                type_id: resolved.type_id,
                offset: resolved.offset,
                ip: r.ip,
                cpu: r.core,
                level: r.level,
                latency: r.latency,
                is_write: r.kind.is_write(),
            })
        })
        .collect()
}

/// Per-(type, offset, ip) aggregate statistics computed from access samples; this is the
/// `stats` information DProf attaches to path-trace entries (§5.4).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SampleStats {
    /// Number of samples aggregated.
    pub count: u64,
    /// Samples per satisfying level.
    pub level_counts: HashMap<String, u64>,
    /// Total latency, for averaging.
    pub total_latency: u64,
}

impl SampleStats {
    /// Adds a sample.
    pub fn add(&mut self, s: &AccessSample) {
        self.count += 1;
        *self
            .level_counts
            .entry(s.level.display_name().to_string())
            .or_insert(0) += 1;
        self.total_latency += s.latency;
    }

    /// Average access latency in cycles.
    pub fn avg_latency(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.count as f64
        }
    }

    /// Probability (0..1) that the access was satisfied by the given level.
    pub fn hit_probability(&self, level: HitLevel) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let c = self
            .level_counts
            .get(level.display_name())
            .copied()
            .unwrap_or(0);
        c as f64 / self.count as f64
    }

    /// The most common satisfying level and its probability.
    pub fn dominant_level(&self) -> Option<(String, f64)> {
        let (name, &count) = self.level_counts.iter().max_by_key(|(_, &c)| c)?;
        Some((name.clone(), count as f64 / self.count as f64))
    }
}

/// Key for aggregating samples: `(type, offset, ip)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SampleKey {
    /// Data type.
    pub type_id: TypeId,
    /// Offset within the type, rounded down to the aggregation granularity (8 bytes).
    pub offset: u64,
    /// Instruction pointer.
    pub ip: FunctionId,
}

/// Aggregates access samples by `(type, offset, ip)`.
pub fn aggregate_samples(samples: &[AccessSample]) -> HashMap<SampleKey, SampleStats> {
    let mut map: HashMap<SampleKey, SampleStats> = HashMap::new();
    for s in samples {
        let key = SampleKey {
            type_id: s.type_id,
            offset: s.offset & !7,
            ip: s.ip,
        };
        map.entry(key).or_default().add(s);
    }
    map
}

/// Aggregates samples by `(type, ip)` regardless of offset (used when a path-trace entry
/// has no offset-precise match).
pub fn aggregate_samples_by_ip(
    samples: &[AccessSample],
) -> HashMap<(TypeId, FunctionId), SampleStats> {
    let mut map: HashMap<(TypeId, FunctionId), SampleStats> = HashMap::new();
    for s in samples {
        map.entry((s.type_id, s.ip)).or_default().add(s);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cache::AccessKind;

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
    fn l1_miss_detection() {
        assert!(!sample(0, 0, 0, HitLevel::L1, 3).is_l1_miss());
        assert!(sample(0, 0, 0, HitLevel::L2, 15).is_l1_miss());
        assert!(sample(0, 0, 0, HitLevel::RemoteCache, 200).is_private_miss());
        assert!(!sample(0, 0, 0, HitLevel::L2, 15).is_private_miss());
    }

    #[test]
    fn stats_aggregation_and_probabilities() {
        let mut st = SampleStats::default();
        st.add(&sample(0, 0, 0, HitLevel::L1, 3));
        st.add(&sample(0, 0, 0, HitLevel::L1, 3));
        st.add(&sample(0, 0, 0, HitLevel::RemoteCache, 200));
        assert_eq!(st.count, 3);
        assert!((st.hit_probability(HitLevel::L1) - 2.0 / 3.0).abs() < 1e-9);
        assert!((st.avg_latency() - 206.0 / 3.0).abs() < 1e-9);
        let (name, p) = st.dominant_level().unwrap();
        assert_eq!(name, "local L1");
        assert!(p > 0.5);
    }

    #[test]
    fn aggregation_groups_by_key() {
        let samples = vec![
            sample(1, 0, 10, HitLevel::L1, 3),
            sample(1, 4, 10, HitLevel::L2, 15), // same 8-byte granule as offset 0
            sample(1, 64, 10, HitLevel::L1, 3),
            sample(2, 0, 10, HitLevel::L1, 3),
        ];
        let agg = aggregate_samples(&samples);
        assert_eq!(agg.len(), 3);
        let k = SampleKey {
            type_id: TypeId(1),
            offset: 0,
            ip: FunctionId(10),
        };
        assert_eq!(agg[&k].count, 2);
        let by_ip = aggregate_samples_by_ip(&samples);
        assert_eq!(by_ip[&(TypeId(1), FunctionId(10))].count, 3);
    }

    #[test]
    fn resolution_drops_unknown_addresses() {
        use sim_kernel::{KernelTypes, TypeRegistry};
        use sim_machine::{Machine, MachineConfig};
        let mut m = Machine::new(MachineConfig::small_test());
        let mut reg = TypeRegistry::new();
        let kt = KernelTypes::register(&mut reg);
        let cores = m.cores();
        let mut alloc = SlabAllocator::new(&mut m, &mut reg, cores);
        let addr = alloc.alloc(&mut m, &reg, 0, kt.skbuff);
        let records = vec![
            IbsRecord {
                core: 0,
                ip: FunctionId(1),
                addr: addr + 24,
                kind: AccessKind::Read,
                level: HitLevel::L1,
                latency: 3,
                cycle: 100,
            },
            IbsRecord {
                core: 0,
                ip: FunctionId(1),
                addr: 0xdead_beef_0000,
                kind: AccessKind::Read,
                level: HitLevel::L1,
                latency: 3,
                cycle: 101,
            },
        ];
        let samples = resolve_samples(&records, &alloc);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].type_id, kt.skbuff);
        assert_eq!(samples[0].offset, 24);
    }
}
