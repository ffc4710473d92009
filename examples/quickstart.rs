//! Quickstart: profile the memcached workload with DProf and print its views.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dprof::core::report::{self, View};
use dprof::prelude::*;

fn main() {
    // 1. Build a small 4-core machine and the memcached workload with the kernel's
    //    default (buggy) hash-based transmit-queue selection.
    let config = MemcachedConfig {
        cores: 4,
        tx_policy: TxQueuePolicy::HashTxQueue,
        ..Default::default()
    };
    let (mut machine, mut kernel, mut workload) = Memcached::setup(config);

    // 2. Warm the caches to steady state.
    for _ in 0..20 {
        workload.step(&mut machine, &mut kernel);
    }

    // 3. Profile it with DProf: access samples via IBS-style sampling, then object
    //    access histories for the top miss-heavy types via debug-register watchpoints.
    let dprof_config = DprofConfig {
        sample_rounds: 80,
        history_types: 3,
        history: HistoryConfig {
            history_sets: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let profile =
        Dprof::new(dprof_config).run(&mut machine, &mut kernel, |m, k| workload.step(m, k));

    // 4. Print the views, as `dprof` prints them: the profile is a report of one shard.
    println!("{}", report::render_views(&profile.report(), &View::ALL, 8));

    // 5. The headline observation of the first case study: packet payload and skbuffs
    //    bounce between cores because replies are enqueued on remote transmit queues.
    if let Some(row) = profile.profile_row("size-1024") {
        println!(
            "size-1024 (packet payload): {:.1}% of L1 misses, bounce = {}",
            row.pct_of_l1_misses, row.bounce
        );
    }
}
