//! Exact per-type miss profiles, resolved from a machine-level ground-truth tally.
//!
//! The simulated machine can count every memory operation ([`sim_cache::
//! GroundTruthTally`]) — something real IBS hardware cannot do — but the tally is
//! address-granular.  This module attributes each 8-byte granule to the data type
//! whose allocation most recently covered it (the same live-then-historical
//! resolution [`crate::sample::resolve_samples`] applies to IBS records, so the
//! sampled profile and the exact profile share one attribution rule) and aggregates
//! the counters into exact per-type rows.  The `dprof accuracy` harness compares
//! these rows against the sampled data profile to measure sampling fidelity.

use serde::{Deserialize, Serialize};
use sim_cache::GroundTruthTally;
use sim_kernel::{SlabAllocator, TypeId, TypeRegistry};
use std::collections::HashMap;

/// Exact (every-access) counters for one data type.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroundTruthRow {
    /// The type.
    pub type_id: TypeId,
    /// Type name.
    pub name: String,
    /// Human-readable description.
    pub description: String,
    /// Memory operations attributed to the type.
    pub accesses: u64,
    /// Operations that missed the local L1.
    pub l1_misses: u64,
    /// Total worst-line latency cycles of those misses.
    pub miss_cycles: u64,
    /// Operations satisfied by a foreign core's cache.
    pub remote_fetches: u64,
    /// Share of all resolved L1 misses, percent (the exact analogue of the sampled
    /// data profile's `% of L1 misses` column).
    pub pct_of_l1_misses: f64,
    /// Share of all resolved miss cycles, percent.
    pub pct_of_miss_cycles: f64,
}

/// The exact per-type profile of one sampling phase.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GroundTruthProfile {
    /// Per-type rows, ranked by L1 misses (descending; name breaks ties).
    pub rows: Vec<GroundTruthRow>,
    /// Every operation tallied during the phase, resolvable or not.
    pub total_accesses: u64,
    /// Every L1 miss tallied during the phase, resolvable or not.
    pub total_l1_misses: u64,
    /// L1 misses attributed to a type (the share denominator; unresolved granules
    /// are dropped exactly as unresolvable IBS samples are).
    pub resolved_l1_misses: u64,
    /// The exact utilization view (every line fill counted), built from the tally's
    /// embedded [`sim_cache::UtilizationTally`].  The accuracy harness compares the
    /// sampled utilization rankings against this.
    #[serde(default)]
    pub utilization: crate::merge::ShardUtilization,
}

impl GroundTruthProfile {
    /// The row for a type name, if present.
    pub fn row(&self, name: &str) -> Option<&GroundTruthRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// The rank (0 = most misses) of a type name.
    pub fn rank_of(&self, name: &str) -> Option<usize> {
        self.rows.iter().position(|r| r.name == name)
    }
}

/// Resolves a tally into exact per-type rows using the allocator's address set.
///
/// Attribution walks the address-set log oldest-to-newest, so a granule whose
/// address was recycled across allocations lands on the *most recent* covering
/// object — the identical rule `resolve_samples` applies (live object first, then
/// newest historical record), giving the sampled and exact profiles the same
/// attribution bias and making their comparison apples-to-apples.
pub fn resolve_ground_truth(
    tally: &GroundTruthTally,
    allocator: &SlabAllocator,
    registry: &TypeRegistry,
) -> GroundTruthProfile {
    // Which type covers each tallied granule?  One pass over the allocation log in
    // record order; later records overwrite earlier ones.
    let mut attribution: HashMap<u64, TypeId> = HashMap::with_capacity(tally.len());
    let tallied: std::collections::HashSet<u64> = tally.iter().map(|(g, _)| g).collect();
    for r in allocator.address_set() {
        let mut g = r.addr() & !7;
        let end = r.end();
        while g < end {
            if tallied.contains(&g) {
                attribution.insert(g, r.type_id());
            }
            g += 8;
        }
    }

    #[derive(Default)]
    struct Acc {
        accesses: u64,
        l1_misses: u64,
        miss_cycles: u64,
        remote_fetches: u64,
    }
    let mut acc: HashMap<TypeId, Acc> = HashMap::new();
    let mut resolved_l1_misses = 0u64;
    let mut resolved_miss_cycles = 0u64;
    for (granule, counts) in tally.iter() {
        let Some(&ty) = attribution.get(&granule) else {
            continue;
        };
        let a = acc.entry(ty).or_default();
        a.accesses += counts.accesses;
        a.l1_misses += counts.l1_misses;
        a.miss_cycles += counts.miss_cycles;
        a.remote_fetches += counts.remote_fetches;
        resolved_l1_misses += counts.l1_misses;
        resolved_miss_cycles += counts.miss_cycles;
    }

    let mut rows: Vec<GroundTruthRow> = acc
        .into_iter()
        .map(|(ty, a)| {
            let info = registry.info(ty);
            GroundTruthRow {
                type_id: ty,
                name: info.name.clone(),
                description: info.description.clone(),
                accesses: a.accesses,
                l1_misses: a.l1_misses,
                miss_cycles: a.miss_cycles,
                remote_fetches: a.remote_fetches,
                pct_of_l1_misses: if resolved_l1_misses == 0 {
                    0.0
                } else {
                    100.0 * a.l1_misses as f64 / resolved_l1_misses as f64
                },
                pct_of_miss_cycles: if resolved_miss_cycles == 0 {
                    0.0
                } else {
                    100.0 * a.miss_cycles as f64 / resolved_miss_cycles as f64
                },
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.l1_misses
            .cmp(&a.l1_misses)
            .then_with(|| a.name.cmp(&b.name))
    });

    GroundTruthProfile {
        rows,
        total_accesses: tally.total_accesses,
        total_l1_misses: tally.total_l1_misses,
        resolved_l1_misses,
        utilization: crate::merge::ShardUtilization::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cache::{AccessKind, HitLevel};
    use sim_kernel::KernelTypes;
    use sim_machine::{Machine, MachineConfig};

    #[test]
    fn tally_resolves_to_types_with_exact_shares() {
        let mut m = Machine::new(MachineConfig::small_test());
        let mut reg = TypeRegistry::new();
        let kt = KernelTypes::register(&mut reg);
        let cores = m.cores();
        let mut alloc = SlabAllocator::new(&mut m, &mut reg, cores);
        let skb = alloc.alloc(&mut m, &reg, 0, kt.skbuff);
        let sock = alloc.alloc(&mut m, &reg, 0, kt.udp_sock);

        let mut tally = GroundTruthTally::new();
        // Three skbuff misses, one udp_sock miss, one unresolvable miss.
        tally.record(skb, AccessKind::Read, HitLevel::Dram, 250);
        tally.record(skb + 8, AccessKind::Write, HitLevel::RemoteCache, 200);
        tally.record(skb + 8, AccessKind::Read, HitLevel::L2, 15);
        tally.record(sock, AccessKind::Read, HitLevel::Dram, 250);
        tally.record(0xdead_beef_0000, AccessKind::Read, HitLevel::Dram, 250);
        // And a pure hit, which must not contribute to miss shares.
        tally.record(skb, AccessKind::Read, HitLevel::L1, 3);

        let gt = resolve_ground_truth(&tally, &alloc, &reg);
        assert_eq!(gt.total_accesses, 6);
        assert_eq!(gt.total_l1_misses, 5);
        assert_eq!(gt.resolved_l1_misses, 4);
        assert_eq!(gt.rows[0].name, "skbuff");
        assert_eq!(gt.rows[0].l1_misses, 3);
        assert_eq!(gt.rows[0].remote_fetches, 1);
        assert!((gt.rows[0].pct_of_l1_misses - 75.0).abs() < 1e-9);
        assert_eq!(gt.rank_of("skbuff"), Some(0));
        let sock_row = gt.row("udp-sock").expect("udp_sock resolved");
        assert!((sock_row.pct_of_l1_misses - 25.0).abs() < 1e-9);
    }

    #[test]
    fn address_reuse_attributes_to_the_most_recent_object() {
        let mut m = Machine::new(MachineConfig::small_test());
        let mut reg = TypeRegistry::new();
        let kt = KernelTypes::register(&mut reg);
        let cores = m.cores();
        let mut alloc = SlabAllocator::new(&mut m, &mut reg, cores);
        let first = alloc.alloc(&mut m, &reg, 0, kt.skbuff);
        alloc.free(&mut m, 0, first);
        // Same size class: the address may be recycled for another skbuff-sized type.
        let second = alloc.alloc(&mut m, &reg, 0, kt.skbuff);

        let mut tally = GroundTruthTally::new();
        tally.record(second, AccessKind::Read, HitLevel::Dram, 250);
        let gt = resolve_ground_truth(&tally, &alloc, &reg);
        assert_eq!(gt.resolved_l1_misses, 1);
        assert_eq!(gt.rows[0].name, "skbuff");
    }
}
