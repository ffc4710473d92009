//! Regression tests for the unbounded memory growth the seed implementation exhibited:
//! `distinct_per_set: Vec<HashSet<LineAddr>>` grew by one entry (plus hashing overhead)
//! for every distinct line ever installed, even when no analysis wanted the data.

use sim_cache::{
    AccessKind, CacheGeometry, CacheHierarchy, HierarchyConfig, MesiState, SetAssocCache,
};

/// Streaming workload over a default-configured hierarchy: no conflict-tracking memory
/// may be retained anywhere in the hierarchy.
#[test]
fn streaming_workload_retains_no_distinct_line_tracking() {
    let mut h = CacheHierarchy::new(HierarchyConfig::small_test());
    // Stream 100k distinct lines (a ~6 MiB footprint against 10 KiB of private cache):
    // the seed implementation would have retained every one of them in per-set sets.
    for i in 0..100_000u64 {
        h.access(0, i * 64, AccessKind::Read);
    }
    for core in 0..h.cores() {
        assert_eq!(h.l1_cache(core).conflict_tracking_bytes(), 0);
        assert_eq!(h.l2_cache(core).conflict_tracking_bytes(), 0);
        assert!(!h.l1_cache(core).conflict_tracking_enabled());
    }
    assert_eq!(h.l3_cache().conflict_tracking_bytes(), 0);
}

/// When tracking is requested, the compact structure stays within a small constant
/// factor of the information-theoretic minimum (8 bytes per distinct line).
#[test]
fn opt_in_tracking_is_compact_and_exact() {
    let geom = CacheGeometry::new(64, 4, 64);
    let mut c = SetAssocCache::with_conflict_tracking(geom);
    let n = 50_000u64;
    for i in 0..n {
        c.fill(i, MesiState::Exclusive);
    }
    let total: usize = (0..geom.sets).map(|s| c.distinct_lines_in_set(s)).sum();
    assert_eq!(total as u64, n, "tracking must stay exact");
    // Open addressing at <=75% load with 8-byte keys: at most ~24 bytes per line even
    // right after a growth doubling, far below the seed's HashSet-per-set overhead.
    let bytes = c.conflict_tracking_bytes();
    assert!(
        bytes <= 24 * n as usize,
        "tracker uses {bytes} bytes for {n} lines"
    );
}

/// The simulator's own tables are sized by what a session touched: after 100 000
/// distinct lines on the paper's machine the directory holds at most 110 bytes a line
/// (a 64-byte entry a line and 16-byte index positions at no less than 37.5 % load),
/// and a cache ten bytes a slot (tag, state, rank).  Before the directory went dense
/// and the LRU stamps became ranks: 189 and 17.
#[test]
fn table_bytes_per_line_and_per_slot_are_bounded() {
    let cfg = HierarchyConfig::paper_machine();
    let slots = cfg.cores * (cfg.l1.sets * cfg.l1.ways + cfg.l2.sets * cfg.l2.ways)
        + cfg.l3.sets * cfg.l3.ways;
    let mut h = CacheHierarchy::new(cfg);
    let lines = 100_000;
    for i in 0..lines as u64 {
        h.access((i % 16) as usize, i * 64, AccessKind::Read);
    }
    assert_eq!(h.directory_lines(), lines);
    let caches: usize = (0..cfg.cores)
        .flat_map(|c| [h.l1_cache(c), h.l2_cache(c)])
        .chain([h.l3_cache()])
        .map(SetAssocCache::heap_bytes)
        .sum();
    let directory = h.heap_bytes() - caches;
    assert!(
        directory <= 110 * lines,
        "directory: {directory} bytes for {lines} lines"
    );
    assert!(
        caches <= 10 * slots,
        "caches: {caches} bytes for {slots} slots"
    );
}
