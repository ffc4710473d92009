//! Profiling a custom workload: shows how to drive the simulated kernel directly,
//! create a deliberate false-sharing bug, and let DProf's views find it.
//!
//! Two counters that belong to different "subsystems" are packed into the same cache
//! line of a shared statistics object; each core updates its own counter, so no lock is
//! needed — and lock-stat sees nothing — but the line ping-pongs between cores.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use dprof::core::report::{self, View};
use dprof::prelude::*;

fn main() {
    // A 2-core machine and a bare kernel.
    let mut machine = Machine::new(MachineConfig::with_cores(2));
    let mut kernel = KernelState::new(
        &mut machine,
        KernelConfig {
            cores: 2,
            workers_per_core: 1,
            ..Default::default()
        },
    );

    // Register a custom type: a per-module statistics block with two counters that
    // share a cache line (offsets 0 and 8).
    let stats_ty = kernel
        .types
        .register("pkt_stats", "per-module packet statistics", 128);
    kernel.types.add_field(stats_ty, "rx_count", 0, 8);
    kernel.types.add_field(stats_ty, "tx_count", 8, 8);
    let stats_addr = kernel
        .allocator
        .alloc(&mut machine, &kernel.types, 0, stats_ty);

    let rx_fn = machine.fn_id("rx_accounting");
    let tx_fn = machine.fn_id("tx_accounting");

    // The workload: core 0 bumps rx_count, core 1 bumps tx_count, plus some private
    // per-core work so the shared line is not the only traffic.
    let step = move |m: &mut Machine, k: &mut KernelState| {
        for _ in 0..4 {
            m.write(0, rx_fn, stats_addr, 8);
            m.write(1, tx_fn, stats_addr + 8, 8);
            let skb = k.netif_rx(m, 0, 100);
            k.kfree_skb(m, 0, skb, k.syms.kfree_skb);
            let skb = k.netif_rx(m, 1, 100);
            k.kfree_skb(m, 1, skb, k.syms.kfree_skb);
        }
    };

    // Profile it.
    let config = DprofConfig {
        sample_rounds: 400,
        history_types: 2,
        history: HistoryConfig {
            history_sets: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let profile = Dprof::new(config).run(&mut machine, &mut kernel, step);

    println!("{}", report::render_data_profile(&profile.data_profile, 6));
    println!(
        "{}",
        report::render_views(&profile.report(), &[View::MissClassification], 6)
    );

    if let Some(row) = profile.profile_row("pkt_stats") {
        println!(
            "pkt_stats: {:.1}% of all L1 misses, bounce = {} — the two counters share a \
             cache line and should be split onto separate lines.",
            row.pct_of_l1_misses, row.bounce
        );
    }
}
