//! The §6.1 case study end to end: find the true-sharing bottleneck in the memcached
//! workload with DProf, compare what OProfile and lock-stat say, apply the local-queue
//! fix and measure the improvement.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example memcached_true_sharing
//! ```

use dprof::core::report;
use dprof::prelude::*;

fn measure_policy(policy: TxQueuePolicy) -> (f64, bool) {
    let config = MemcachedConfig {
        cores: 4,
        tx_policy: policy,
        ..Default::default()
    };
    let (mut machine, mut kernel, mut workload) = Memcached::setup(config);
    let result = measure_throughput(&mut machine, &mut kernel, &mut workload, 20, 100);
    (result.throughput_rps, kernel.remote_enqueues > 0)
}

fn main() {
    // Step 1: profile the buggy configuration with DProf.
    let config = MemcachedConfig {
        cores: 4,
        tx_policy: TxQueuePolicy::HashTxQueue,
        ..Default::default()
    };
    let (mut machine, mut kernel, mut workload) = Memcached::setup(config);
    for _ in 0..20 {
        workload.step(&mut machine, &mut kernel);
    }
    let dconf = DprofConfig {
        sample_rounds: 80,
        history: HistoryConfig {
            history_sets: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let profile = Dprof::new(dconf).run(&mut machine, &mut kernel, |m, k| workload.step(m, k));

    println!("--- DProf data profile (cf. Table 6.1) ---");
    println!(
        "{}",
        report::render_data_profile(&profile.report().data_profile, 6)
    );

    // Step 2: the data-flow view for skbuff shows where packets change cores.
    let skbuff = kernel.kt.skbuff;
    if let Some(graph) = profile.data_flows.get(&skbuff) {
        println!("--- skbuff data flow: core transitions (cf. Figure 6-1) ---");
        for e in graph.cpu_crossing_edges().iter().take(5) {
            println!(
                "  {} -> {}   crosses cores (observed x{})",
                e.from, e.to, e.count
            );
        }
        println!();
    }

    // Step 3: what the baselines see on the same run.
    println!("--- lock-stat (cf. Table 6.2) ---");
    println!("{}", LockstatReport::collect(&machine, &kernel).render(5));
    println!("--- OProfile top functions (cf. Table 6.3) ---");
    println!("{}", OprofileReport::collect(&machine).render(12));

    // Step 4: apply the fix suggested by the data-flow view — transmit on the local
    // queue — and measure the improvement (the paper reports +57%).
    let (buggy, buggy_remote) = measure_policy(TxQueuePolicy::HashTxQueue);
    let (fixed, fixed_remote) = measure_policy(TxQueuePolicy::LocalQueue);
    println!("--- fix: local transmit-queue selection ---");
    println!("  hash policy : {buggy:.0} req/s (remote enqueues: {buggy_remote})");
    println!("  local policy: {fixed:.0} req/s (remote enqueues: {fixed_remote})");
    println!(
        "  improvement : {:+.1}%  (paper: +57%)",
        100.0 * (fixed - buggy) / buggy
    );
}
