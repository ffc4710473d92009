//! Property-based tests for the line-utilization tally: the per-fetched-line
//! touched-granule accounting that feeds the utilization view.  The tally is driven
//! here exactly the way the machine drives it — one `record_chunk` per access with
//! `granule_mask` and `AccessOutcome::level.is_miss()` — so these properties hold
//! for the real wiring, not a synthetic one.

use proptest::prelude::*;
use sim_cache::{
    granule_mask, AccessKind, CacheHierarchy, HierarchyConfig, UtilizationTally,
    MAX_GRANULES_PER_LINE,
};

/// Strategy producing a random 8-byte-aligned access: (core, address, is_write).
fn access_strategy(cores: usize) -> impl Strategy<Value = (usize, u64, bool)> {
    (0..cores, 0u64..0x4_000u64, any::<bool>()).prop_map(|(c, a, w)| (c, a * 8, w))
}

/// Runs an access stream through a hierarchy, feeding every chunk to the tally the
/// way `Machine::issue` does, and finalizes the tally.
fn tally_stream(
    h: &mut CacheHierarchy,
    tally: &mut UtilizationTally,
    accesses: &[(usize, u64, bool)],
) {
    let line_size = h.line_size() as u64;
    for &(core, addr, write) in accesses {
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let out = h.access(core, addr, kind);
        let mask = granule_mask(addr, 8, line_size);
        tally.record_chunk(core, out.line, mask, out.level.is_miss(), true);
    }
    tally.finalize();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every counted fill contributes exactly one residency that touched at least
    /// the filling granule, so per line: 0 < touched_slots <= fetches * granules —
    /// i.e. the utilization percentage derived from the tally is always in (0, 100].
    /// Per granule, the touch count never exceeds the fill count (a granule is
    /// touched at most once per residency).
    #[test]
    fn utilization_is_in_unit_interval(
        accesses in proptest::collection::vec(access_strategy(4), 1..500),
    ) {
        let mut cfg = HierarchyConfig::small_test();
        cfg.cores = 4;
        let mut h = CacheHierarchy::new(cfg);
        let mut tally = UtilizationTally::new();
        tally_stream(&mut h, &mut tally, &accesses);

        let mut fetches = 0u64;
        for (line, counts) in tally.iter() {
            prop_assert!(counts.fetches > 0, "line {line:#x} tallied without a fill");
            let touched = counts.touched_slots();
            prop_assert!(
                touched >= counts.fetches,
                "line {line:#x}: {touched} touched slots over {} residencies — a \
                 residency must touch at least the granule that filled it",
                counts.fetches
            );
            prop_assert!(
                touched <= counts.fetches * MAX_GRANULES_PER_LINE as u64,
                "line {line:#x}: {touched} touched slots exceed line capacity over {} \
                 residencies",
                counts.fetches
            );
            for (g, &t) in counts.touched.iter().enumerate() {
                prop_assert!(
                    t <= counts.fetches,
                    "line {line:#x} granule {g}: touched {t} times in {} residencies",
                    counts.fetches
                );
            }
            prop_assert!(counts.refetches <= counts.fetches);
            fetches += counts.fetches;
        }
        prop_assert_eq!(tally.total_fetches, fetches);
        prop_assert!(tally.total_refetches <= tally.total_fetches);
    }

    /// A cold single pass over distinct lines fetches each line exactly once and
    /// never re-fetches: the stream touches each line once and moves on, so the
    /// re-fetch ratio of a pure streaming workload is zero.
    #[test]
    fn cold_single_pass_has_zero_refetches(lines in proptest::collection::vec(0u64..0x1_000u64, 1..200)) {
        let mut h = CacheHierarchy::new(HierarchyConfig::small_test());
        let line_size = h.line_size() as u64;
        let mut tally = UtilizationTally::new();
        let mut ordered: Vec<u64> = lines.iter().map(|l| l * line_size).collect();
        ordered.sort_unstable();
        ordered.dedup();
        for addr in &ordered {
            let out = h.access(0, *addr, AccessKind::Read);
            tally.record_chunk(0, out.line, granule_mask(*addr, 8, line_size), out.level.is_miss(), true);
        }
        tally.finalize();

        prop_assert_eq!(tally.total_fetches, ordered.len() as u64);
        prop_assert_eq!(tally.total_refetches, 0, "cold distinct-line stream re-fetched");
        for (line, counts) in tally.iter() {
            prop_assert_eq!(counts.fetches, 1, "line {:#x} filled more than once", line);
            prop_assert_eq!(counts.refetches, 0);
            // One 8-byte read per line: exactly one granule touched once.
            prop_assert_eq!(counts.touched_slots(), 1);
        }
    }
}
