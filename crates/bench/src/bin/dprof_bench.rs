//! `dprof-bench`: measures simulated-access throughput and records the bench
//! trajectory.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dprof-bench --bin dprof-bench -- [--quick] [--emit-json [PATH]]
//! ```
//!
//! For each workload (memcached, Apache) and core count, the tool records the
//! workload's session, lowers it to the per-line access stream the machine issues,
//! replays that stream through the cache hierarchy and prints accesses/second.  With
//! `--emit-json` the results are also written as a `dprof-bench-throughput/v1` document
//! (default path `BENCH_throughput.json`), which CI validates on every PR.

use dprof_bench::throughput::{
    measure_point, render_json, render_scaling, render_table, TraceWorkload,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let emit_json = args.iter().position(|a| a == "--emit-json").map(|i| {
        args.get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "BENCH_throughput.json".to_string())
    });

    // Quick mode keeps the CI smoke job fast; paper mode measures the trajectory
    // through the 16-core paper configuration and on up to 64/128 cores.  High core
    // counts generate proportionally more traffic per round, so they capture fewer
    // rounds to keep trace sizes comparable.
    let (scale_name, core_counts, base_rounds) = if quick {
        ("quick", vec![2, 4, 64], 40)
    } else {
        ("paper", vec![2, 4, 8, 16, 64, 128], 200)
    };
    let rounds_for = |cores: usize| {
        if cores >= 64 {
            base_rounds / 4
        } else {
            base_rounds
        }
    };

    println!(
        "dprof-bench: replaying workload access traces ({scale_name} scale, \
         {base_rounds} rounds per trace, quartered at 64+ cores)\n"
    );

    let mut points = Vec::new();
    for which in [TraceWorkload::Memcached, TraceWorkload::Apache] {
        for &cores in &core_counts {
            let p = measure_point(which, cores, rounds_for(cores));
            println!(
                "  {:<10} {:>3} cores: {:>12.0} accesses/s, directory of {} lines in {} bytes",
                p.workload, p.cores, p.optimized_aps, p.directory_lines, p.directory_bytes
            );
            points.push(p);
        }
    }

    println!("\n{}", render_table(&points));
    println!("{}", render_scaling(&points));

    if let Some(path) = emit_json {
        let doc = render_json(scale_name, &points);
        std::fs::write(&path, doc).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}
