//! One end-to-end and per-layer benchmark for the `dprof` toolchain.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- compare A B
//! ```
//!
//! Run from the repository root.  A run builds the shipped `dprof` binary, generates
//! the workload's inputs from `--seed` in a fresh scratch directory (seven times or
//! more: the median is `setup_s`), and then either measures the binary as a child process (one
//! invocation after another, or a `dprof serve` collector under batches of requests)
//! for `--seconds` (`--trace 0`: the end-to-end metrics) or makes the separate
//! in-process traced run (`--trace 1`: the per-layer metrics).  Every metric is printed by name
//! with its unit; the last line of standard output is the result as one JSON object.
//! See `benchmark/README.md`.

mod child;
mod compare;
mod host;
mod layers;
mod metrics;
mod probe;
mod serve;
mod stats;
mod workloads;

use child::{run_dprof, ScratchDir};
use compare::{one_line, Record};
use dprof::core::schema::Json;
use layers::Ledger;
use metrics::Metric;
use stats::{median, min_max, quartiles};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};
use workloads::{Env, Operation, Workload};

/// `setup_s` is the median of a run's set-ups: at least this many, and as many as fit
/// in [`SETUP_BUDGET`], so that a workload with a short set-up gets a steady median too.
const SETUPS: usize = 7;
const SETUP_BUDGET: Duration = Duration::from_secs(4);

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Duration,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 3471,
        seconds: Duration::from_secs(10),
        traced: false,
        smoke: false,
        out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            options.smoke = true;
            options.seconds = Duration::ZERO;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let workload =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?;
                options.workloads = vec![workload];
            }
            "--seed" => options.seed = number()?,
            "--seconds" => options.seconds = Duration::from_secs(number()?),
            "--trace" => options.traced = number()? != 0,
            "--out" => options.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option '{flag}'")),
        }
    }
    Ok(options)
}

/// `CARGO_TARGET_DIR` as cargo run from the repository `root` reads it, or the
/// repository's `target`.
fn target_dir(root: &Path) -> PathBuf {
    root.join(
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from),
    )
}

/// The newest modification time of the sources `dprof` is built from.
fn newest_source(dir: &Path, newest: &mut SystemTime) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            newest_source(&path, newest);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            if let Ok(modified) = entry.metadata().and_then(|m| m.modified()) {
                *newest = (*newest).max(modified);
            }
        }
    }
}

/// Builds the shipped `dprof` binary (before any timer starts) and returns its path.
/// Refuses to measure a binary that is missing or older than the sources.
fn build_dprof(root: &Path) -> Result<PathBuf, String> {
    if !root.join("crates/cli/Cargo.toml").exists() {
        return Err("run the benchmark from the repository root (crates/cli is not here)".into());
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let built = std::process::Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "dprof-cli",
        ])
        .current_dir(root)
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !built.success() {
        return Err("cargo build --release --offline -p dprof-cli failed".into());
    }
    let dprof = target_dir(root).join("release/dprof");
    let binary = std::fs::metadata(&dprof)
        .and_then(|m| m.modified())
        .map_err(|e| format!("{} is missing after the build: {e}", dprof.display()))?;
    let mut newest = SystemTime::UNIX_EPOCH;
    for dir in ["src", "crates"] {
        newest_source(&root.join(dir), &mut newest);
    }
    if binary < newest {
        return Err(format!(
            "{} is older than the sources it should be built from",
            dprof.display()
        ));
    }
    dprof
        .canonicalize()
        .map_err(|e| format!("{}: {e}", dprof.display()))
}

/// What one run of one workload found.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static Metric, f64)>,
    /// Medians as the clock read them, before the host-speed scaling, and the probe's.
    raw: Vec<(&'static str, f64)>,
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Prints the order statistics of `values` and returns their median.
fn describe(label: &str, values: &[f64], unit: &str) -> f64 {
    let (q1, q3) = if values.len() > 1 {
        quartiles(values)
    } else {
        (values[0], values[0])
    };
    let (min, max) = min_max(values);
    let median = median(values);
    println!("# {label}: median {median:.3} q1 {q1:.3} q3 {q3:.3} min {min:.3} max {max:.3} {unit}, n {}", values.len());
    median
}

/// Set-up, then either timed operations or the traced run.  Every timed operation is
/// bracketed by host-speed probes and reported in reference-host time (see [`probe`]);
/// the raw medians are printed beside them.
fn run_workload(
    env: &Env,
    workload: Workload,
    seconds: Duration,
    traced: bool,
) -> Result<Outcome, String> {
    let mut speed = probe::HostSpeed::start();
    let (mut raw_setups, mut setups) = (Vec::new(), Vec::new());
    let mut session = workloads::Session::default();
    let setting_up = Instant::now();
    while setups.len() < SETUPS || setting_up.elapsed() < seconds.min(SETUP_BUDGET) {
        // The previous set-up's collector is stopped outside the timer.
        workloads::close(session)?;
        let started = Instant::now();
        session = workloads::setup(env, workload)?;
        let took = started.elapsed().as_secs_f64();
        raw_setups.push(took);
        setups.push(took * speed.scale().wall);
    }

    // Traced runs need the child too: its CPU time is the total the layers must explain.
    let minimum = if traced { 3 } else { 2 };
    let mut operations = Vec::new();
    let mut digest = None;
    let started = Instant::now();
    while operations.len() < minimum || (!traced && started.elapsed() < seconds) {
        let operation = workloads::invoke(env, workload, &mut session)?;
        digest = operation.digest.or(digest);
        operations.push((operation, speed.scale()));
    }
    let column = |f: fn(&(Operation, probe::Scale)) -> f64| -> Vec<f64> {
        operations.iter().map(f).collect()
    };
    let cpu = column(|(o, _)| ms(o.cpu));
    let probes: Vec<f64> = speed.probes.iter().map(|p| ms(p.wall)).collect();
    let probe_ms = describe("probe", &probes, "ms");
    let raw = vec![
        ("setup_s", describe("raw setup_s", &raw_setups, "s")),
        (
            "wall_ms",
            describe("raw wall_ms", &column(|(o, _)| ms(o.wall)), "ms"),
        ),
        ("cpu_ms", describe("raw cpu_ms", &cpu, "ms")),
        ("probe_ms", probe_ms),
    ];
    if let Some(digest) = digest {
        println!("# sim_digest {digest:016x} (FNV-1a of the output document)");
    }
    let attempted = operations.len() as u64;
    let failed = operations.iter().filter(|(o, _)| !o.ok).count() as u64;
    // A collector that lost shards or did not exit cleanly fails one more operation.
    let close = |session| {
        Ok::<u64, String>((failed + u64::from(!workloads::close(session)?)).min(attempted))
    };
    if !traced {
        let failed = close(session)?;
        let values = [
            median(&setups),
            median(&column(|(o, scale)| ms(o.wall) * scale.wall)),
            median(&column(|(o, scale)| ms(o.cpu) * scale.cpu)),
            median(&column(|(o, _)| o.max_rss_kb as f64 / 1024.0)),
        ];
        return Ok(Outcome {
            attempted,
            failed,
            metrics: metrics::END_TO_END.iter().zip(values).collect(),
            raw,
        });
    }

    let mut ledger = Ledger::default();
    ledger.add("host.probe_ms", probe_ms);
    let version = ["--version".to_string()];
    let mut startups = Vec::new();
    for _ in 0..21 {
        startups.push(run_dprof(env.dprof, env.dir, &version)?.wall.as_secs_f64());
    }
    ledger.add("cli.startup_s", median(&startups));
    let parts = match workload {
        Workload::RecordMemcached => {
            layers::record_layers(env, &workloads::invocation_args(env, workload), &mut ledger)?
        }
        Workload::WhatifMemcached => {
            let document =
                std::fs::read(env.dir.join("out.json")).map_err(|e| format!("out.json: {e}"))?;
            layers::whatif_layers(env, &workloads::whatif_candidates(&document)?, &mut ledger)?
        }
        Workload::ReplayMemcached | Workload::ReplayApache => {
            layers::replay_layers(env, &mut ledger)?
        }
        Workload::ServeMixed => {
            let traffic = session
                .traffic
                .as_mut()
                .expect("set-up started the collector");
            layers::serve_layers(env, traffic, &mut ledger)?
        }
    };
    let failed = close(session)?;
    // Like the layers: the quietest of the child's runs.
    ledger.reconcile(min_max(&cpu).0 / 1e3, parts);
    Ok(Outcome {
        attempted,
        failed,
        metrics: ledger.finish(),
        raw,
    })
}

/// Runs one workload in a scratch directory of its own and prints its result.
fn run(
    workload: Workload,
    options: &Options,
    dprof: &Path,
    host: &host::Host,
) -> Result<(), String> {
    let scratch = ScratchDir::create(
        &target_dir(Path::new(".")).join("bench-scratch"),
        workload.name(),
    )?;
    let env = Env {
        dprof,
        dir: scratch.path(),
        seed: options.seed,
        smoke: options.smoke,
    };
    let outcome = run_workload(&env, workload, options.seconds, options.traced)?;
    drop(scratch);

    println!(
        "# {} seed {} on {} x {} ({})",
        workload.name(),
        options.seed,
        host.nproc,
        host.cpu_model,
        host.rustc
    );
    for (metric, value) in &outcome.metrics {
        println!("{:<38} {value:>16.6} {}", metric.name, metric.unit);
    }
    let record = Record {
        host: host.clone(),
        workload: workload.name().to_string(),
        seed: options.seed,
        traced: options.traced,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: outcome
            .metrics
            .iter()
            .map(|(m, v)| (m.name.to_string(), *v))
            .collect(),
        raw: outcome
            .raw
            .iter()
            .map(|(name, v)| (name.to_string(), *v))
            .collect(),
    };
    if let Some(out) = &options.out {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .map_err(|e| format!("{}: {e}", out.display()))?;
        writeln!(file, "{}", one_line(&record.to_json()))
            .map_err(|e| format!("{}: {e}", out.display()))?;
    }
    let metrics = outcome.metrics.iter().map(|(metric, value)| {
        (
            metric.name,
            Json::obj(vec![
                ("value", Json::num(*value)),
                ("unit", Json::str(metric.unit)),
            ]),
        )
    });
    let result = Json::obj(vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::num(outcome.attempted as f64)),
        ("failed", Json::num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics.collect())),
    ]);
    println!("{}", one_line(&result));
    Ok(())
}

/// `compare A B`: prints the verdicts; the exit code is 1 when any of them fails.
fn compare_files(parent: &str, change: &str) -> Result<i32, String> {
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        compare::parse_records(&text).map_err(|e| format!("{path}: {e}"))
    };
    let comparison = compare::compare(&read(parent)?, &read(change)?)?;
    for line in &comparison.lines {
        println!("{line}");
    }
    println!("{}", if comparison.pass { "PASS" } else { "FAIL" });
    Ok(i32::from(!comparison.pass))
}

/// A run that measured exits 0 even when operations failed: its result line says so.
fn real_main(args: &[String]) -> Result<i32, String> {
    if let [command, parent, change] = args {
        if command == "compare" {
            return compare_files(parent, change);
        }
    }
    let options = parse_options(args)?;
    let dprof = build_dprof(Path::new("."))?;
    let host = host::Host::detect();
    for workload in &options.workloads {
        run(*workload, &options, &dprof, &host)?;
    }
    Ok(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `exit` runs no destructors: every scratch directory is gone by the time
    // `real_main` returns.
    std::process::exit(real_main(&args).unwrap_or_else(|message| {
        eprintln!("error: {message}");
        2
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn repository() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }

    /// The binary under test, built once for all tests.
    fn dprof() -> &'static Path {
        static DPROF: OnceLock<PathBuf> = OnceLock::new();
        DPROF.get_or_init(|| build_dprof(&repository()).expect("dprof builds"))
    }

    fn smoke<T>(label: &str, test: impl FnOnce(&Env) -> T) -> T {
        let scratch =
            ScratchDir::create(&target_dir(&repository()).join("bench-scratch"), label).unwrap();
        test(&Env {
            dprof: dprof(),
            dir: scratch.path(),
            seed: 7,
            smoke: true,
        })
    }

    fn names(outcome: &Outcome) -> Vec<&'static str> {
        outcome.metrics.iter().map(|(m, _)| m.name).collect()
    }

    fn run_smoke(env: &Env, workload: Workload, traced: bool) -> Outcome {
        run_workload(env, workload, Duration::ZERO, traced).unwrap()
    }

    /// Every workload prints exactly the listed end-to-end metrics untraced and exactly
    /// the listed per-layer metrics traced, none of them zero end to end, with no
    /// failed operation; the traced layers and the remainder sum to the child's CPU.
    #[test]
    fn every_workload_prints_the_listed_metrics_in_both_modes() {
        for workload in Workload::ALL {
            smoke(workload.name(), |env| {
                let untraced = run_smoke(env, workload, false);
                assert_eq!(
                    names(&untraced),
                    metrics::END_TO_END.map(|m| m.name),
                    "{}",
                    workload.name()
                );
                assert_eq!(untraced.failed, 0, "{}", workload.name());
                assert!(untraced.attempted >= 2 && untraced.metrics.iter().all(|(_, v)| *v > 0.0));

                let traced = run_smoke(env, workload, true);
                assert_eq!(
                    names(&traced),
                    metrics::PER_LAYER.map(|m| m.name),
                    "{}",
                    workload.name()
                );
                assert_eq!(traced.failed, 0, "{}", workload.name());
                let value = |name: &str| {
                    traced
                        .metrics
                        .iter()
                        .find(|(m, _)| m.name == name)
                        .unwrap()
                        .1
                };
                let parts = match workload {
                    Workload::RecordMemcached => layers::RECORD_PARTS,
                    Workload::WhatifMemcached => layers::WHATIF_PARTS,
                    Workload::ServeMixed => layers::SERVE_PARTS,
                    _ => layers::REPLAY_PARTS,
                };
                let explained: f64 = parts.iter().map(|p| value(p)).sum();
                let total = value("cli.child_cpu_s");
                assert!(
                    total > 0.0 && (explained + value("cli.unexplained_s") - total).abs() < 1e-9
                );
            });
        }
    }

    #[test]
    fn a_corrupted_replay_output_is_a_failed_operation() {
        smoke("corrupt", |env| {
            let workload = Workload::ReplayMemcached;
            let mut session = workloads::setup(env, workload).unwrap();
            let operation = workloads::invoke(env, workload, &mut session).unwrap();
            assert!(operation.ok && operation.digest.is_some());

            // One flipped byte in what the child wrote fails the check ...
            let out = env.dir.join("out.json");
            let mut bytes = std::fs::read(&out).unwrap();
            let middle = bytes.len() / 2;
            bytes[middle] ^= 1;
            std::fs::write(&out, bytes).unwrap();
            assert!(workloads::check_outputs(env, workload).is_err());

            // ... and an invocation whose output does not match counts as failed.
            std::fs::write(env.dir.join(workloads::SESSION_REPORT), "{}").unwrap();
            let operation = workloads::invoke(env, workload, &mut session).unwrap();
            assert!(!operation.ok && operation.digest.is_none());
        });
    }

    #[test]
    fn options_parse_the_driver_flags() {
        let args = |line: &str| -> Vec<String> { line.split(' ').map(str::to_string).collect() };
        let options = parse_options(&args(
            "--workload replay-apache --seed 9 --seconds 4 --trace 1",
        ))
        .unwrap();
        assert_eq!(options.workloads, [Workload::ReplayApache]);
        assert_eq!(
            (options.seed, options.seconds, options.traced),
            (9, Duration::from_secs(4), true)
        );
        assert_eq!(parse_options(&[]).unwrap().workloads.len(), 5);
        assert!(parse_options(&args("--workload nope")).is_err());
        assert!(parse_options(&args("--seed")).is_err());
    }
}
