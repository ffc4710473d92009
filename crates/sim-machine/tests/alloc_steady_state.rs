//! The zero-allocation guarantee of `sim-cache`'s access path (its own
//! `alloc_steady_state` test), one layer up: a machine with IBS enabled and the sampled
//! line-utilization tally attached allocates only for the operations IBS tags.  Once
//! the working set has been seen and the sampling budget is spent, hits and fills alike
//! pass through the tally without touching the heap.
//!
//! This file intentionally contains a single test: the counting allocator
//! (`tests/support/counting_alloc.rs`) is global to the test binary, and a
//! concurrently-running test would pollute the measured window.

use sim_machine::{AccessKind, IbsConfig, Machine, MachineConfig, SamplingPolicy};
#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::measured;

/// One pass over a contended working set of ~12k lines from every core: mixed reads
/// and writes, every seventh operation spanning three lines.
fn drive(m: &mut Machine, cores: usize) {
    let ip = m.fn_id("hot");
    for i in 0..200_000u64 {
        let core = (i % cores as u64) as usize;
        let addr = (i.wrapping_mul(2654435761) % 12_288) * 64 + 8 * (i % 8);
        let len = if i % 7 == 0 { 160 } else { 8 };
        let kind = if i % 5 == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        m.access(core, ip, addr, len, kind);
    }
}

#[test]
fn warmed_up_profiled_access_loop_does_not_allocate() {
    let config = MachineConfig::paper_machine();
    let cores = config.hierarchy.cores;
    let mut m = Machine::new(config);
    m.configure_ibs(IbsConfig::with_policy(SamplingPolicy::adaptive(64)));
    m.start_utilization();

    // Warm-up: the directory and the tally's tables see every line, and the sampling
    // budget runs out, so IBS stays enabled but tags nothing from here on.
    drive(&mut m, cores);
    assert!(m.ibs.config().enabled() && m.ibs.budget_exhausted());
    let fills_before = m.hierarchy.stats.dram_fills + m.hierarchy.stats.l3_hits;

    let ((), asked) = measured(|| drive(&mut m, cores));

    assert_eq!(
        asked.calls(),
        0,
        "untagged operations must not allocate (got {} allocations over 200k operations)",
        asked.calls()
    );
    // Sanity: the window had fills for the tally to see, and the tally followed the
    // 64 tagged operations of the warm-up.
    assert!(m.hierarchy.stats.dram_fills + m.hierarchy.stats.l3_hits > fills_before);
    assert_eq!(m.ibs.samples_taken, 64);
    let tally = m.take_utilization().expect("tally attached");
    assert!(tally.total_fetches > 0 && tally.total_fetches <= 3 * 64);
}
