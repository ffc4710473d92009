//! `dprof-bench`: measures simulated-access throughput and records the bench
//! trajectory.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dprof-bench --bin dprof-bench -- \
//!     [--quick] [--emit-json [PATH]] [--save-traces DIR | --traces DIR]
//! ```
//!
//! For each workload (memcached, Apache) and core count, the tool captures the
//! workload's real memory-access trace, replays it through the retained reference
//! hierarchy and the optimized hierarchy, and prints accesses/second for both.  With
//! `--emit-json` the results are also written as a `dprof-bench-throughput/v1` document
//! (default path `BENCH_throughput.json`), which CI validates on every PR.
//!
//! Trace reuse: `--save-traces DIR` writes each captured workload stream as an
//! access-only `.dtrace` file (named `<workload>_<cores>c.dtrace`) and measures from
//! it; `--traces DIR` skips capture entirely and replays those files, so successive
//! bench runs measure the *identical* access stream instead of re-simulating the
//! workload each time.

use dprof_bench::throughput::{
    capture_trace, measure_point, measure_point_from_trace, render_json, render_scaling,
    render_table, trace_file_name, trace_io, TraceWorkload,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut emit_json: Option<String> = None;
    let mut traces_dir: Option<String> = None;
    let mut save_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--emit-json" => {
                let path = args
                    .get(i + 1)
                    .filter(|a| !a.starts_with("--"))
                    .cloned()
                    .unwrap_or_else(|| "BENCH_throughput.json".to_string());
                emit_json = Some(path);
            }
            "--traces" => {
                traces_dir = args.get(i + 1).filter(|a| !a.starts_with("--")).cloned();
                if traces_dir.is_none() {
                    eprintln!("--traces requires a directory");
                    std::process::exit(2);
                }
            }
            "--save-traces" => {
                save_dir = args.get(i + 1).filter(|a| !a.starts_with("--")).cloned();
                if save_dir.is_none() {
                    eprintln!("--save-traces requires a directory");
                    std::process::exit(2);
                }
            }
            _ => {}
        }
        i += 1;
    }
    if let Some(dir) = &save_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {dir}: {e}"));
    }

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
            let p = if let Some(dir) = &traces_dir {
                // Replay a previously saved capture instead of re-running the
                // workload, streaming the line events straight from disk.
                let path = format!("{dir}/{}", trace_file_name(which, cores));
                let (trace_cores, trace) = trace_io::read_line_events(&path).unwrap_or_else(|e| {
                    panic!("{e}; run with --save-traces {dir} first to capture the set")
                });
                assert_eq!(
                    trace_cores, cores,
                    "{path} was captured on a {trace_cores}-core machine"
                );
                measure_point_from_trace(which.name(), cores, &trace)
            } else if let Some(dir) = &save_dir {
                let trace = capture_trace(which, cores, rounds_for(cores));
                let path = format!("{dir}/{}", trace_file_name(which, cores));
                trace_io::from_line_events(which, cores, rounds_for(cores), &trace)
                    .write(&path)
                    .unwrap_or_else(|e| panic!("{e}"));
                measure_point_from_trace(which.name(), cores, &trace)
            } else {
                measure_point(which, cores, rounds_for(cores))
            };
            println!(
                "  {:<10} {:>3} cores: {:>12.0} -> {:>12.0} accesses/s ({:.2}x)",
                p.workload, p.cores, p.reference_aps, p.optimized_aps, p.speedup
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
