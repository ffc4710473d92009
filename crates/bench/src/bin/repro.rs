//! `repro`: regenerates the tables and figures of the DProf evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dprof-bench --bin repro -- [--quick] <experiment>...
//! cargo run --release -p dprof-bench --bin repro -- all
//! ```
//!
//! Experiments: `table4.1 table6.1 fig6.1 table6.2 table6.3 fix6.1 table6.4 table6.5
//! table6.6 fix6.2 fig6.2 table6.7 table6.8 table6.9 table6.10 fig6.3 all`

use dprof_bench::{
    apache_admission_fix, example_path_trace, history_overhead_rows, ibs_overhead_sweep,
    memcached_queue_fix, path_coverage, profile_apache, profile_memcached, render_history_rows,
    Scale, WhichWorkload,
};
use dprof_core::CollectionMode;
use workloads::ApacheConfig;

/// Every experiment, in the order `all` runs them.
const ALL: &str = "table4.1 table6.1 fig6.1 table6.2 table6.3 fix6.1 table6.4 table6.5 table6.6 \
                   fix6.2 fig6.2 table6.7 table6.8 table6.9 table6.10 fig6.3";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick {
        Scale::quick()
    } else {
        Scale::paper()
    };
    let mut wanted: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect();
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = ALL.split_whitespace().map(String::from).collect();
    }

    println!(
        "DProf reproduction — {} scale ({} cores)\n",
        if quick { "quick" } else { "paper" },
        scale.cores
    );

    // The memcached and Apache studies back several tables each; compute them lazily.
    let mut memcached_study = None;
    let mut apache_peak = None;
    let mut apache_drop = None;

    for what in &wanted {
        println!("==================================================================");
        match what.as_str() {
            "table4.1" => println!("{}", example_path_trace(&scale)),
            "table6.1" | "fig6.1" | "table6.2" | "table6.3" => {
                let study = memcached_study.get_or_insert_with(|| profile_memcached(&scale));
                let out = match what.as_str() {
                    "table6.1" => study.render_table_6_1(),
                    "fig6.1" => study.render_figure_6_1(),
                    "table6.2" => study.render_table_6_2(),
                    _ => study.render_table_6_3(),
                };
                println!("{out}");
            }
            "fix6.1" => {
                let fix = memcached_queue_fix(&scale);
                println!(
                    "{}",
                    fix.render(
                        "Case study 6.1 fix: local transmit-queue selection for memcached",
                        "+57%"
                    )
                );
            }
            "table6.4" => {
                let study =
                    apache_peak.get_or_insert_with(|| profile_apache(&scale, ApacheConfig::peak()));
                println!(
                    "{}",
                    study.render_data_profile("Table 6.4", "peak performance")
                );
            }
            "table6.5" => {
                let study = apache_drop
                    .get_or_insert_with(|| profile_apache(&scale, ApacheConfig::drop_off()));
                println!("{}", study.render_data_profile("Table 6.5", "drop off"));
            }
            "table6.6" => {
                let study = apache_drop
                    .get_or_insert_with(|| profile_apache(&scale, ApacheConfig::drop_off()));
                println!("{}", study.render_table_6_6());
            }
            "fix6.2" => {
                let fix = apache_admission_fix(&scale);
                println!(
                    "{}",
                    fix.render(
                        "Case study 6.2 fix: accept-queue admission control for Apache",
                        "+16%"
                    )
                );
            }
            "fig6.2" => {
                let rates: Vec<f64> = if quick {
                    vec![0.0, 2_000.0, 6_000.0, 18_000.0]
                } else {
                    vec![
                        0.0, 2_000.0, 4_000.0, 6_000.0, 9_000.0, 12_000.0, 15_000.0, 18_000.0,
                    ]
                };
                println!("Figure 6-2: DProf access-sampling overhead vs IBS sampling rate\n");
                for which in [WhichWorkload::Memcached, WhichWorkload::Apache] {
                    println!("{}", ibs_overhead_sweep(which, &scale, &rates).render());
                }
            }
            "table6.7" | "table6.8" | "table6.9" => {
                let mut rows = Vec::new();
                for which in [WhichWorkload::Memcached, WhichWorkload::Apache] {
                    rows.extend(history_overhead_rows(
                        which,
                        &scale,
                        CollectionMode::SingleOffset,
                    ));
                }
                let title = match what.as_str() {
                    "table6.7" => "Table 6.7: object access history collection times and overhead",
                    "table6.8" => "Table 6.8: average object access history collection rates",
                    _ => "Table 6.9: object access history overhead breakdown",
                };
                println!("{}", render_history_rows(title, &rows));
            }
            "table6.10" => {
                let mut rows = Vec::new();
                for which in [WhichWorkload::Memcached, WhichWorkload::Apache] {
                    rows.extend(history_overhead_rows(
                        which,
                        &scale,
                        CollectionMode::Pairwise,
                    ));
                }
                println!(
                    "{}",
                    render_history_rows(
                        "Table 6.10: object access history collection using pair sampling",
                        &rows
                    )
                );
            }
            "fig6.3" => {
                let set_counts: Vec<usize> = if quick {
                    vec![1, 2, 4, 8]
                } else {
                    vec![5, 10, 20, 40, 80, 160]
                };
                let reference = if quick { 16 } else { 240 };
                println!(
                    "Figure 6-3: percent of unique paths captured vs history sets collected\n"
                );
                let series = [
                    path_coverage(
                        WhichWorkload::Memcached,
                        &scale,
                        |k| (k.kt.skbuff, "skbuff"),
                        &set_counts,
                        reference,
                    ),
                    path_coverage(
                        WhichWorkload::Memcached,
                        &scale,
                        |k| (k.kt.size_1024, "size-1024"),
                        &set_counts,
                        reference,
                    ),
                    path_coverage(
                        WhichWorkload::Apache,
                        &scale,
                        |k| (k.kt.tcp_sock, "tcp-sock"),
                        &set_counts,
                        reference,
                    ),
                ];
                for s in &series {
                    println!("{}", s.render());
                }
            }
            other => eprintln!("unknown experiment: {other}"),
        }
    }
}
