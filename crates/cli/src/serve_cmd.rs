//! The `dprof serve`, `dprof loadgen` and `dprof query` subcommands — the CLI
//! surface of the continuous-profiling service in `dprof-serve`.
//!
//! `serve` runs the collector in the foreground until a client sends
//! `shutdown`.  `loadgen` profiles a scenario's fixed and buggy variants once
//! to obtain realistic template shards, then replays a producer fleet against
//! a collector (its own `--spawn`ed one or an external one) and reports what
//! the collector absorbed and answered, with the sustained merge throughput.
//! `query` is the protocol client: pushes, top/regression/alert queries, admin
//! actions.

use crate::args::{Format, LoadgenOptions, QueryAction, QueryOptions, ServeOptions};
use crate::driver::{self, RunOptions};
use dprof::core::merge::ProfileShard;
use dprof::core::schema::{self, Json};
use dprof_serve::loadgen::{run_loadgen, LoadgenConfig};
use dprof_serve::server::{Server, ServerConfig};
use dprof_serve::Client;
use std::io::Read;
use std::path::PathBuf;

/// `dprof serve`: run the collector in the foreground until shut down.
pub fn run_serve(options: &ServeOptions) -> i32 {
    let config = ServerConfig {
        listen: options.listen.clone(),
        store_root: options.store.clone().map(PathBuf::from),
        snapshot_every: options.snapshot_every,
        compact_threshold: options.compact_threshold,
    };
    let mut server = match Server::start(config) {
        Ok(server) => server,
        Err(message) => {
            eprintln!("error: {message}");
            return 1;
        }
    };
    let addr = server.addr();
    if let Some(path) = &options.port_file {
        if let Err(e) = std::fs::write(path, format!("{addr}\n")) {
            eprintln!("error: cannot write {path}: {e}");
            server.shutdown();
            return 1;
        }
    }
    eprintln!(
        "dprof serve: listening on {addr} (store: {}, snapshot every {}, compact at {})",
        options.store.as_deref().unwrap_or("memory-only"),
        if options.snapshot_every == 0 {
            "manual".to_string()
        } else {
            options.snapshot_every.to_string()
        },
        options.compact_threshold,
    );
    server.wait();
    eprintln!("dprof serve: stopped");
    0
}

/// Profiles one scenario variant at quick scale and returns its shards.
fn template_shards(
    scenario: &str,
    variant: &str,
    rounds: usize,
) -> Result<Vec<ProfileShard>, String> {
    let spec = format!("{scenario}:{variant}");
    let workload = driver::parse_workload_spec(&spec).map_err(|e| {
        format!("--scenario: {e} (loadgen templates need a :buggy/:fixed scenario)")
    })?;
    let run = RunOptions {
        workload,
        threads: 2,
        cores: 2,
        warmup_rounds: 5,
        sample_rounds: rounds,
        history_types: 2,
        history_sets: 2,
        ..RunOptions::default()
    };
    let runs = driver::run_parallel(&run)?;
    Ok(runs
        .iter()
        .map(|run| run.shard(run.thread as u64))
        .collect())
}

/// `dprof loadgen`: drive a collector with concurrent producers and queries.
pub fn run_loadgen_cmd(options: &LoadgenOptions) -> i32 {
    // Template shards come from real quick-scale profiles of the two scenario
    // variants, so the collector merges realistic rows, and the fixed -> buggy
    // direction guarantees the regression/alert queries have signal.
    eprintln!(
        "loadgen: profiling {} (fixed, buggy) for template shards...",
        options.scenario
    );
    let templates = match ["fixed", "buggy"]
        .iter()
        .map(|variant| {
            template_shards(&options.scenario, variant, options.rounds)
                .map(|shards| (variant.to_string(), shards))
        })
        .collect::<Result<Vec<_>, String>>()
    {
        Ok(templates) => templates,
        Err(message) => {
            eprintln!("error: {message}");
            return 1;
        }
    };

    let mut spawned: Option<Server> = None;
    let addr = if options.spawn {
        let config = ServerConfig {
            listen: "127.0.0.1:0".into(),
            store_root: options.store.clone().map(PathBuf::from),
            snapshot_every: 64,
            compact_threshold: options.compact_threshold,
        };
        match Server::start(config) {
            Ok(server) => {
                let addr = server.addr().to_string();
                eprintln!("loadgen: spawned a collector on {addr}");
                spawned = Some(server);
                addr
            }
            Err(message) => {
                eprintln!("error: {message}");
                return 1;
            }
        }
    } else {
        options
            .connect
            .clone()
            .expect("parser enforces one of connect/spawn")
    };

    eprintln!(
        "loadgen: pushing {} shards via {} producer connection(s)...",
        options.shards, options.producers
    );
    let report = match run_loadgen(
        &LoadgenConfig {
            addr,
            workload: options.tag.clone(),
            shards: options.shards,
            producers: options.producers,
            top: 8,
        },
        &templates,
    ) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("error: {message}");
            return 1;
        }
    };
    if let Some(server) = spawned.as_mut() {
        server.shutdown();
    }

    let rendered = match options.format {
        Format::Json => Json::obj(vec![
            ("schema", Json::str(schema::LOADGEN_V1)),
            ("scenario", Json::str(&options.scenario)),
            ("workload", Json::str(&options.tag)),
            (
                "builds",
                Json::Arr(report.builds.iter().map(Json::str).collect()),
            ),
            ("producers", Json::num(options.producers as f64)),
            ("shards_pushed", Json::num(report.shards_pushed as f64)),
            ("elapsed_seconds", Json::num(report.elapsed_seconds)),
            ("shards_per_second", Json::num(report.shards_per_second)),
            (
                "queries_answered",
                Json::num(report.queries_answered as f64),
            ),
            ("verdict", Json::str(&report.verdict)),
            ("alerts_fired", Json::num(report.alerts_fired as f64)),
            ("shards_absorbed", Json::num(report.shards_absorbed as f64)),
            ("shards_resident", Json::num(report.shards_resident as f64)),
            ("fold_rebuilds", Json::num(report.fold_rebuilds as f64)),
        ])
        .to_pretty_string(),
        Format::Text => format!(
            "loadgen: {} shards via {} producer(s) in {:.2}s — {:.1} shards/s\n\
             builds: {}; verdict: {}; alerts fired: {}\n\
             queries answered: {}; collector resident shards: {} of {} absorbed, \
             fold rebuilds: {}\n",
            report.shards_pushed,
            options.producers,
            report.elapsed_seconds,
            report.shards_per_second,
            report.builds.join(" -> "),
            report.verdict,
            report.alerts_fired,
            report.queries_answered,
            report.shards_resident,
            report.shards_absorbed,
            report.fold_rebuilds,
        ),
    };
    crate::emit(&rendered, &options.output)
}

/// `dprof query`: one request against a collector; the response document goes
/// to stdout (or `--output`).
pub fn run_query(options: &QueryOptions) -> i32 {
    let mut client = match Client::connect(&options.connect) {
        Ok(client) => client,
        Err(message) => {
            eprintln!("error: {message}");
            return 1;
        }
    };
    let response = match &options.action {
        QueryAction::Push {
            workload,
            build,
            shard_id,
            file,
        } => match read_text(file) {
            Ok(report_json) => client.push_shard(workload, build, *shard_id, &report_json),
            Err(message) => Err(message),
        },
        QueryAction::PushTrace {
            workload,
            build,
            shard_id,
            file,
        } => match std::fs::read(file) {
            Ok(bytes) => client.push_trace(workload, build, *shard_id, bytes),
            Err(e) => Err(format!("cannot read {file}: {e}")),
        },
        QueryAction::Top {
            workload,
            build,
            top,
        } => client.query_top(workload, build, *top),
        QueryAction::Regressions {
            workload,
            from,
            to,
            top,
        } => client.query_regressions(workload, from, to, *top),
        QueryAction::Alerts { workload, from, to } => client.query_alerts(workload, from, to),
        QueryAction::Keys => client.list_keys(),
        QueryAction::Stats => client.stats(),
        QueryAction::Snapshot => client.snapshot(),
        QueryAction::Shutdown => client.shutdown(),
    };
    match response {
        Ok(document) => crate::emit(&document, &options.output),
        Err(message) => {
            eprintln!("error: {message}");
            1
        }
    }
}

fn read_text(file: &str) -> Result<String, String> {
    if file == "-" {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        Ok(text)
    } else {
        std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))
    }
}
