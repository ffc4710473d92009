//! The address index's memory discipline, measured: a lookup allocates nothing, and
//! alloc/free churn over a fixed set of slots allocates nothing once every slot has
//! been live at the same time — freed nodes are reused, and a page's bucket survives
//! its last object.
//!
//! This file intentionally contains a single test: the counting allocator
//! (`tests/support/counting_alloc.rs`) is global to the test binary, and a
//! concurrently-running test would pollute the measured window.

use sim_kernel::AddrIndex;
#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::measured;

const HEAP: u64 = 0x1_0000_0000;

/// 3 000 slab slots of 1 600 bytes (two or three to a page, most straddling one) and
/// a 256-byte descriptor alone on a page for every ten of them.
fn slots() -> Vec<(u64, u64)> {
    let mut slots = Vec::new();
    for slab in 0..300u64 {
        let pages = HEAP + slab * 5 * 4096;
        slots.push((pages, 256));
        slots.extend((0..10).map(|i| (pages + 4096 + i * 1600, 1600)));
    }
    slots
}

#[test]
fn lookups_and_warmed_up_churn_do_not_allocate() {
    let slots = slots();
    let mut index: AddrIndex<u32> = AddrIndex::new();
    // Warm-up: every slot live at once, then all of them freed, last page first.
    for (i, &(base, size)) in slots.iter().enumerate() {
        index.insert(base, size, i as u32);
    }
    for &(base, size) in slots.iter().rev() {
        assert_eq!(index.remove(base).map(|o| o.size), Some(size));
    }
    assert!(index.is_empty());

    let (hits, asked) = measured(|| {
        let mut hits = 0u64;
        for round in 0..4u64 {
            // A different order and a different subset live each round.
            let stride = [7, 11, 13, 17][round as usize];
            for k in 0..slots.len() {
                let i = (k * stride) % slots.len();
                index.insert(slots[i].0, slots[i].1, i as u32);
                // Its own last byte, the byte after it, and a page nothing was ever in.
                let (base, size) = slots[i];
                hits += u64::from(index.find(base + size - 1).is_some());
                hits += u64::from(index.find(base + size).is_some());
                hits += u64::from(index.find(HEAP - 3 * 4096 + k as u64).is_some());
                hits += index.covering(base + 8).count() as u64;
                if k % 3 == round as usize % 3 {
                    index.remove(slots[(i + slots.len() / 2) % slots.len()].0);
                }
            }
            for &(base, _) in &slots {
                index.remove(base);
            }
            assert!(index.is_empty());
        }
        hits
    });

    assert_eq!(
        asked.calls(),
        0,
        "lookups and churn over slots already seen must not allocate"
    );
    assert!(hits > 4 * slots.len() as u64, "the window looked things up");
}
