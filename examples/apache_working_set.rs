//! The §6.2 case study end to end: use DProf's working-set view to diagnose the Apache
//! drop-off, then apply accept-queue admission control and measure the improvement.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example apache_working_set
//! ```

use dprof::core::report::{self, View};
use dprof::prelude::*;

fn profile_apache(config: ApacheConfig, label: &str) -> f64 {
    let (mut machine, mut kernel, mut workload) = Apache::setup(config);
    for _ in 0..30 {
        workload.step(&mut machine, &mut kernel);
    }
    let dconf = DprofConfig {
        sample_rounds: 60,
        history: HistoryConfig {
            history_sets: 3,
            ..Default::default()
        },
        ..Default::default()
    };
    let profile = Dprof::new(dconf).run(&mut machine, &mut kernel, |m, k| workload.step(m, k));

    println!("--- Apache at {label} (cf. Tables 6.4 / 6.5) ---");
    println!(
        "average accept backlog: {:.1} connections",
        workload.avg_backlog(&kernel)
    );
    println!("{}", report::render_data_profile(&profile.data_profile, 6));
    println!(
        "{}",
        report::render_views(&profile.report(), &[View::WorkingSet], 6)
    );

    profile
        .profile_row("tcp-sock")
        .map(|r| r.working_set_bytes)
        .unwrap_or(0.0)
}

fn throughput(config: ApacheConfig) -> f64 {
    let (mut machine, mut kernel, mut workload) = Apache::setup(config);
    measure_throughput(&mut machine, &mut kernel, &mut workload, 40, 120).throughput_rps
}

fn main() {
    let mut peak = ApacheConfig::peak();
    peak.cores = 4;
    let mut drop = ApacheConfig::drop_off();
    drop.cores = 4;
    let mut fixed = ApacheConfig::admission_control();
    fixed.cores = 4;

    // Differential analysis: same server, two load levels.
    let peak_ws = profile_apache(peak, "peak performance");
    let drop_ws = profile_apache(drop, "drop off");
    println!(
        "tcp-sock working set grew from {} to {} ({}x)\n",
        report::format_bytes(peak_ws),
        report::format_bytes(drop_ws),
        if peak_ws > 0.0 {
            (drop_ws / peak_ws).round()
        } else {
            0.0
        }
    );

    // The fix: limit the number of in-flight connections (the paper reports +16% at the
    // drop-off request rate).
    let bad = throughput(drop);
    let good = throughput(fixed);
    println!("--- fix: accept-queue admission control ---");
    println!("  deep backlog      : {bad:.0} req/s");
    println!("  admission control : {good:.0} req/s");
    println!(
        "  improvement       : {:+.1}%  (paper: +16%)",
        100.0 * (good - bad) / bad
    );
}
