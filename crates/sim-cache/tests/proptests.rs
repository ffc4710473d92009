//! Property-based tests for the cache substrate.

use proptest::prelude::*;
use sim_cache::reference::RefCacheHierarchy;
use sim_cache::{
    AccessKind, CacheGeometry, CacheHierarchy, HierarchyConfig, HitLevel, MesiState, SetAssocCache,
    Tag,
};

/// Strategy producing a random access: (core, address, is_write).
fn access_strategy(cores: usize) -> impl Strategy<Value = (usize, u64, bool)> {
    (0..cores, 0u64..0x40_000u64, any::<bool>()).prop_map(|(c, a, w)| (c, a * 8, w))
}

/// Fills `lines` into a cache of the given associativity under tags made by `tag_of`
/// (injective): no set ever holds more lines than ways or the same tag twice, and the
/// lines resident at the end are what strict LRU per set leaves of the sequence.
fn check_occupancy_and_uniqueness<T: Tag + std::hash::Hash>(
    ways: usize,
    lines: &[u64],
    tag_of: impl Fn(u64) -> T,
) {
    let geom = CacheGeometry::new(64, ways, 16);
    let mut c = SetAssocCache::<T>::new(geom);
    // Per set, most recent first.
    let mut model: Vec<Vec<u64>> = vec![Vec::new(); geom.sets];
    for &l in lines {
        let set = geom.set_index_of_line(l);
        let victim = c.fill(set, tag_of(l), MesiState::Exclusive);
        let recent = &mut model[set];
        recent.retain(|&m| m != l);
        recent.insert(0, l);
        let expected = (recent.len() > ways).then(|| recent.pop().unwrap());
        prop_assert_eq!(victim.map(|v| v.0), expected.map(&tag_of));
        prop_assert!(c.set_occupancy(set) <= geom.ways);
    }
    let mut seen = std::collections::HashSet::new();
    for (set, tag, _) in c.resident() {
        prop_assert!(seen.insert(tag), "duplicate resident tag {:?}", tag);
        prop_assert!(model[set].iter().any(|&l| tag_of(l) == tag));
    }
    prop_assert_eq!(seen.len(), model.iter().map(Vec::len).sum::<usize>());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The MESI single-owner invariant holds after any access sequence.
    #[test]
    fn coherence_invariant_holds(accesses in proptest::collection::vec(access_strategy(4), 1..300)) {
        let mut cfg = HierarchyConfig::small_test();
        cfg.cores = 4;
        let mut h = CacheHierarchy::new(cfg);
        for (core, addr, write) in accesses {
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            h.access(core, addr, kind);
            prop_assert!(h.check_coherence_invariants().is_ok());
        }
    }

    /// A second access to the same address by the same core, with no intervening
    /// activity, always hits in the L1.
    #[test]
    fn immediate_reaccess_hits(addr in 0u64..0x100_000u64, write in any::<bool>()) {
        let mut h = CacheHierarchy::new(HierarchyConfig::small_test());
        let kind = if write { AccessKind::Write } else { AccessKind::Read };
        h.access(0, addr, kind);
        let second = h.access(0, addr, AccessKind::Read);
        prop_assert_eq!(second.level, HitLevel::L1);
    }

    /// Total accesses recorded equals the number of accesses issued, and the per-level
    /// counts sum to the total.
    #[test]
    fn stats_account_for_every_access(accesses in proptest::collection::vec(access_strategy(2), 1..200)) {
        let mut h = CacheHierarchy::new(HierarchyConfig::small_test());
        let n = accesses.len() as u64;
        for (core, addr, write) in accesses {
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            h.access(core, addr, kind);
        }
        let s = &h.stats;
        prop_assert_eq!(s.accesses, n);
        prop_assert_eq!(
            s.l1_hits + s.l2_hits + s.l3_hits + s.remote_hits + s.dram_fills,
            n
        );
    }

    /// A set never holds more lines than its associativity, and never holds the same
    /// tag twice — under line-address tags (the L1s) and under four-byte slot tags
    /// (the L2s and the L3), from 2 ways to the 255 a one-byte rank allows.
    #[test]
    fn set_occupancy_and_uniqueness(
        ways in (2usize..19).prop_map(|w| if w == 18 { 255 } else { w }),
        lines in proptest::collection::vec(0u64..4096u64, 1..500),
    ) {
        check_occupancy_and_uniqueness::<u64>(ways, &lines, |l| l);
        // Slots as a directory would hand them out: first-touch order.
        let mut order: Vec<u64> = Vec::new();
        for &l in &lines {
            if !order.contains(&l) {
                order.push(l);
            }
        }
        let slot_of = |l| order.iter().position(|&o| o == l).unwrap() as u32;
        check_occupancy_and_uniqueness::<u32>(ways, &lines, slot_of);
    }

    /// Latency is always one of the modelled levels (plus possibly the upgrade penalty).
    #[test]
    fn latency_is_bounded(accesses in proptest::collection::vec(access_strategy(2), 1..100)) {
        let mut h = CacheHierarchy::new(HierarchyConfig::small_test());
        let lat = *h.config().latency();
        for (core, addr, write) in accesses {
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            let out = h.access(core, addr, kind);
            prop_assert!(out.latency >= lat.l1);
            prop_assert!(out.latency <= lat.dram + lat.upgrade);
        }
    }

    /// The optimized SoA/open-addressed hierarchy is observationally identical to the
    /// retained reference implementation: byte-identical [`sim_cache::AccessOutcome`]
    /// sequences (the ground-truth miss kind included) and identical final statistics
    /// for any access stream, at 4 cores and past 64, where sharer bits and a line's
    /// notes span more than one word of cores.  Every other access goes to one of 32
    /// hot lines, so lines are shared by many cores and invalidated from them.
    #[test]
    fn optimized_hierarchy_matches_reference(
        cores in (0usize..3).prop_map(|i| [4, 65, 128][i]),
        accesses in proptest::collection::vec(access_strategy(128), 1..600),
    ) {
        let mut cfg = HierarchyConfig::small_test();
        cfg.cores = cores;
        let mut new_h = CacheHierarchy::new(cfg);
        let mut ref_h = RefCacheHierarchy::new(cfg);
        for (i, (core, addr, write)) in accesses.iter().enumerate() {
            let kind = if *write { AccessKind::Write } else { AccessKind::Read };
            let core = core % cores;
            let addr = if i % 2 == 0 { addr % 0x800 } else { *addr };
            let new_out = new_h.access(core, addr, kind);
            let ref_out = ref_h.access(core, addr, kind);
            prop_assert_eq!(
                new_out, ref_out,
                "{} cores: outcome diverged at access #{} (core {}, addr {:#x}, write {})",
                cores, i, core, addr, write
            );
        }
        prop_assert_eq!(&new_h.stats, &ref_h.stats, "aggregate stats diverged");
        prop_assert_eq!(&new_h.per_core, &ref_h.per_core, "per-core stats diverged");
        prop_assert_eq!(new_h.check_coherence_invariants(), Ok(()));
        prop_assert_eq!(ref_h.check_coherence_invariants(), Ok(()));
    }

    /// Same equivalence on the paper-scale 16-core geometry, exercising wide sharer
    /// masks and the batched invalidation path.
    #[test]
    fn optimized_matches_reference_paper_machine(
        accesses in proptest::collection::vec(access_strategy(16), 1..300),
    ) {
        let cfg = HierarchyConfig::paper_machine();
        let mut new_h = CacheHierarchy::new(cfg);
        let mut ref_h = RefCacheHierarchy::new(cfg);
        for (core, addr, write) in accesses {
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            // Cluster addresses so cores actually contend for lines.
            let addr = addr % 0x4000;
            prop_assert_eq!(new_h.access(core, addr, kind), ref_h.access(core, addr, kind));
        }
        prop_assert_eq!(&new_h.stats, &ref_h.stats);
    }
}

/// Helper trait used by the latency property test to borrow the latency model.
trait LatencyAccess {
    fn latency(&self) -> &sim_cache::LatencyModel;
}

impl LatencyAccess for HierarchyConfig {
    fn latency(&self) -> &sim_cache::LatencyModel {
        &self.latency
    }
}
