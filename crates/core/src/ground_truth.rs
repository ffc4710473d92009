//! Exact per-type miss profiles, resolved from a machine-level ground-truth tally.
//!
//! The simulated machine can count every memory operation ([`sim_cache::
//! GroundTruthTally`]) — something real IBS hardware cannot do — but the tally is
//! address-granular: one L1-miss count per 8-byte granule.  This module attributes
//! each granule to the data type whose allocation most recently covered it, with the
//! utilization view's granule rule (the live-then-historical resolution
//! [`crate::sample::resolve_samples`] applies to IBS records, so the sampled profile
//! and the exact profile share one attribution rule), and sums the counts into exact
//! per-type rows.  The `dprof accuracy` harness compares these rows against the
//! sampled data profile to measure sampling fidelity.

use crate::views::utilization::resolve_granules;
use serde::{Deserialize, Serialize};
use sim_cache::GroundTruthTally;
use sim_kernel::{SlabAllocator, TypeId, TypeRegistry};
use std::collections::HashMap;

/// Exact (every-access) L1 misses of one data type.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroundTruthRow {
    /// Type name.
    pub name: String,
    /// Operations that missed the local L1.
    pub l1_misses: u64,
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

/// Resolves a tally into exact per-type rows using the allocator's address set.
///
/// Each tallied granule is a one-granule line to the utilization view's
/// `resolve_granules`, so a granule whose address was recycled across allocations
/// lands on the *most recent* covering object, as every view attributes its granules.
pub fn resolve_ground_truth(
    tally: &GroundTruthTally,
    allocator: &SlabAllocator,
    registry: &TypeRegistry,
) -> GroundTruthProfile {
    let mut tallied: Vec<(u64, u64)> = tally.iter().collect();
    tallied.sort_unstable();
    let granules: Vec<u64> = tallied.iter().map(|&(addr, _)| addr / 8).collect();
    let owners = resolve_granules(&granules, allocator.address_set(), 8);

    let mut misses: HashMap<TypeId, u64> = HashMap::new();
    let mut resolved_l1_misses = 0u64;
    for (&(_, count), owner) in tallied.iter().zip(owners) {
        if let Some((ty, _)) = owner {
            *misses.entry(ty).or_default() += count;
            resolved_l1_misses += count;
        }
    }
    let mut rows: Vec<GroundTruthRow> = misses
        .into_iter()
        .map(|(ty, l1_misses)| GroundTruthRow {
            name: registry.info(ty).name.clone(),
            l1_misses,
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
    use sim_cache::HitLevel;
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
        tally.record(skb, HitLevel::Dram);
        tally.record(skb + 8, HitLevel::RemoteCache);
        tally.record(skb + 8, HitLevel::L2);
        tally.record(sock, HitLevel::Dram);
        tally.record(0xdead_beef_0000, HitLevel::Dram);
        // And a pure hit, which must not contribute to miss counts.
        tally.record(skb, HitLevel::L1);

        let gt = resolve_ground_truth(&tally, &alloc, &reg);
        assert_eq!(gt.total_accesses, 6);
        assert_eq!(gt.total_l1_misses, 5);
        assert_eq!(gt.resolved_l1_misses, 4);
        let rows: Vec<_> = gt
            .rows
            .iter()
            .map(|r| (r.name.as_str(), r.l1_misses))
            .collect();
        assert_eq!(rows, [("skbuff", 3), ("udp-sock", 1)]);
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
        tally.record(second, HitLevel::Dram);
        let gt = resolve_ground_truth(&tally, &alloc, &reg);
        assert_eq!(gt.resolved_l1_misses, 1);
        assert_eq!(gt.rows[0].name, "skbuff");
    }
}
