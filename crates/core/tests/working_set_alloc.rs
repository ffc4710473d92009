//! What the working-set view costs the heap, by count: the sweep keeps four bytes a
//! record it covers, sixteen an event, eight a set, and nothing a line.
//!
//! The counting allocator (`tests/support/counting_alloc.rs`) is global to the test
//! binary, so this binary runs without the libtest harness (`harness = false` in
//! `Cargo.toml`): its one check is `main`, on the only thread.  Under libtest the
//! harness's main thread made four allocations (900 bytes) after spawning the test's
//! thread, which a busy host let land inside the measured window: the peak read
//! 1 281 080 bytes in about one run in five with three copies on two vCPUs.

use dprof_core::views::working_set::build_working_set;
use sim_cache::CacheGeometry;
use sim_kernel::{AllocRecord, TypeRegistry};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::measured;

fn main() {
    the_view_of_a_drop_off_backlog_costs_its_events_not_its_lines();
}

fn the_view_of_a_drop_off_backlog_costs_its_events_not_its_lines() {
    let mut registry = TypeRegistry::new();
    let sock = registry.register("tcp-sock", "connection", 1024);
    let skb = registry.register("skbuff", "packet", 256);

    // A drop-off backlog: 30 000 connections accepted and never closed, each sixteen
    // lines, beside 10 000 packets that live 50 cycles in 64 recycled slots.
    let mut log: Vec<AllocRecord> = (0..30_000u64)
        .map(|i| AllocRecord::new(0x1_0000_0000 + i * 1024, sock, 1024, 0, i, None))
        .collect();
    log.extend((0..10_000u64).map(|i| {
        let base = 0x2_0000_0000 + (i % 64) * 256;
        AllocRecord::new(base, skb, 256, 1, 3 * i, Some(3 * i + 50))
    }));
    let geometry = CacheGeometry::l2_default();
    let (view, asked) = measured(|| build_working_set(&log, &registry, geometry, 0, 40_000));

    // Every record is live in the window, and every line it covers is counted.
    assert_eq!(
        view.assoc_histogram.iter().sum::<usize>(),
        30_000 * 16 + 64 * 4
    );
    assert_eq!(
        view.for_type("tcp-sock").unwrap().peak_live_bytes,
        30_000 * 1024
    );
    assert!(view.conflict_sets.is_empty());

    // The peak is the events, two a record, sorted in place, beside the per-type
    // tallies (180 bytes); the sweep that follows holds a position a record, the
    // histogram and the records covering one line.
    let bound = log.len() as u64 * 16 + geometry.sets as u64 * 8;
    assert!(asked.peak_bytes <= 2 * bound, "{asked:?} against {bound}");
    assert_eq!(asked.peak_bytes, 80_000 * 16 + 180, "{asked:?}");
}
