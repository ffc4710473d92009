//! Regression tests for the unbounded memory growth the seed implementation exhibited:
//! `distinct_per_set: Vec<HashSet<LineAddr>>` grew by one entry (plus hashing overhead)
//! for every distinct line ever installed, even when no analysis wanted the data.

use sim_cache::{AccessKind, CacheHierarchy, HierarchyConfig};

/// Streaming workload over a hierarchy: its caches retain nothing per distinct line.
#[test]
fn streaming_workload_retains_no_distinct_line_tracking() {
    let mut h = CacheHierarchy::new(HierarchyConfig::small_test());
    let empty = h.cache_heap_bytes();
    // Stream 100k distinct lines (a ~6 MiB footprint against 10 KiB of private cache):
    // the seed implementation would have retained every one of them in per-set sets.
    for i in 0..100_000u64 {
        h.access(0, i * 64, AccessKind::Read);
    }
    assert_eq!(h.cache_heap_bytes(), empty);
}

/// The simulator's own tables are sized by what a session touched: after 100 000
/// distinct lines on the paper's machine the directory holds at most 58 bytes a line (a
/// 32-byte entry, 8-byte index positions at no less than 37.5 % load, and two bits of
/// notes a core a line: 4 bytes at 16 cores), an L1 ten bytes a slot (line-address tag,
/// state, rank) and an L2 or the L3 six (the tag is the line's four-byte directory
/// slot).  At 128 cores, where the notes are widest (32 bytes a line), the directory
/// holds at most 88 bytes a line.  Before the notes left the entry and the index kept
/// hash fragments: about 106 at any core count (bounded at 110); before the directory
/// went dense and the LRU stamps became ranks: 189 and 17; before slots were tags: 10
/// at every level, 2.79 MB for the empty machine.
#[test]
fn table_bytes_per_line_and_per_slot_are_bounded() {
    let cfg = HierarchyConfig::paper_machine();
    let slots = [cfg.l1, cfg.l2, cfg.l3].map(|g| g.sets * g.ways);
    let slots = [cfg.cores * slots[0], cfg.cores * slots[1], slots[2]];
    let mut h = CacheHierarchy::new(cfg);
    assert!(
        h.heap_bytes() <= 1_800_000,
        "empty paper machine: {} bytes",
        h.heap_bytes()
    );
    let lines = 100_000;
    touch_lines(&mut h, lines);
    let caches = h.cache_heap_bytes();
    let directory = h.heap_bytes() - caches.iter().sum::<usize>();
    assert!(
        directory <= 58 * lines,
        "directory: {directory} bytes for {lines} lines"
    );
    for (level, bound) in [(0, 10), (1, 6), (2, 6)] {
        assert!(
            caches[level] <= bound * slots[level],
            "L{}: {} bytes for {} slots",
            level + 1,
            caches[level],
            slots[level]
        );
    }

    let mut h = CacheHierarchy::new(HierarchyConfig::with_cores(128));
    touch_lines(&mut h, lines);
    let directory = h.heap_bytes() - h.cache_heap_bytes().iter().sum::<usize>();
    assert!(
        directory <= 88 * lines,
        "directory: {directory} bytes for {lines} lines at 128 cores"
    );
}

/// Reads `lines` distinct lines, round-robin over the hierarchy's cores.
fn touch_lines(h: &mut CacheHierarchy, lines: usize) {
    for i in 0..lines as u64 {
        h.access(i as usize % h.cores(), i * 64, AccessKind::Read);
    }
    assert_eq!(h.directory_lines(), lines);
}
