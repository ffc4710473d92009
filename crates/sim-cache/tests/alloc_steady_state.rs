//! Verifies the zero-allocation guarantee of the access hot path: once the hierarchy
//! has seen a working set, replaying accesses over that working set performs no heap
//! allocation at all.
//!
//! This file intentionally contains a single test: the counting allocator
//! (`tests/support/counting_alloc.rs`) is global to the test binary, and a
//! concurrently-running test would pollute the measured window.

use sim_cache::{AccessKind, CacheHierarchy, HierarchyConfig};
#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::measured;

/// One pass over a contended working set: mixed reads/writes from every core, with
/// enough distinct lines to cause steady-state evictions, invalidations and upgrades.
fn drive(h: &mut CacheHierarchy, cores: usize) {
    for i in 0..200_000u64 {
        let core = (i % cores as u64) as usize;
        // ~12k distinct lines: misses keep happening, but every line is already known
        // to the directory after the first pass.
        let addr = (i.wrapping_mul(2654435761) % 12_288) * 64;
        let kind = if i % 5 == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        h.access(core, addr, kind);
    }
}

#[test]
fn warmed_up_access_loop_does_not_allocate() {
    let cfg = HierarchyConfig::paper_machine();
    let cores = cfg.cores;
    let mut h = CacheHierarchy::new(cfg);

    // Warm-up: lets the directory table grow to its steady-state capacity and touches
    // every line of the working set from every core.
    drive(&mut h, cores);

    let ((), asked) = measured(|| drive(&mut h, cores));

    assert_eq!(
        asked.calls(),
        0,
        "the steady-state access loop must not allocate (got {} allocations \
         over 200k accesses)",
        asked.calls()
    );
    // Sanity: the loop really exercised the hierarchy.
    assert_eq!(h.stats.accesses, 400_000);
    assert!(h.stats.dram_fills > 0 || h.stats.l3_hits > 0);
}
