//! A concurrent load generator for the serve ingest path.
//!
//! `run_loadgen` replays a fleet: `producers` threads share `shards` pushes
//! round-robin over a set of template shards (one template set per build tag), each
//! written as its report and pushed with a unique shard id.  After the push phase it
//! issues every query once and checks the answers are well-formed.  The sustained merge
//! throughput it reports (shards per wall-clock second) is informational.

use crate::client::Client;
use dprof::core::merge::ProfileShard;
use dprof::core::schema::{self, JsonRef, JsonTape};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Loadgen parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Workload tag to push under.
    pub workload: String,
    /// Total shards to push across all producers.
    pub shards: u64,
    /// Concurrent producer connections.
    pub producers: usize,
    /// How many top/regression rows the verification queries request.
    pub top: u64,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            addr: String::new(),
            workload: "loadgen".into(),
            shards: 200,
            producers: 8,
            top: 8,
        }
    }
}

/// What one loadgen run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenReport {
    /// Shards pushed successfully.
    pub shards_pushed: u64,
    /// Push-phase wall-clock seconds.
    pub elapsed_seconds: f64,
    /// Sustained ingest throughput, shards per second.
    pub shards_per_second: f64,
    /// Build tags pushed, in template order.
    pub builds: Vec<String>,
    /// Verification queries answered (top per build + regressions + alerts +
    /// keys + stats).
    pub queries_answered: u64,
    /// Verdict of the regressions query between the first and last build.
    pub verdict: String,
    /// Alerts fired between the first and last build.
    pub alerts_fired: u64,
    /// Shards resident in server memory after the run (bounded-memory check).
    pub shards_resident: u64,
    /// Shards the server counted as absorbed (must equal `shards_pushed` plus
    /// whatever the store already held).
    pub shards_absorbed: u64,
    /// The server's `fold_rebuilds`: pushes that sorted below a shard their key's
    /// running fold had already summed, so that its resident shards were folded again
    /// (producers race, so ids interleave; without reads in between they cost nothing).
    pub fold_rebuilds: u64,
}

/// Runs the load against a server.  `templates` maps build tags to the shard
/// templates pushed under that build; shard `i` (0-based global counter) uses
/// template set `i % templates.len()` and within it shard `i / templates.len()
/// % set.len()`, with shard id `i + 1`.
pub fn run_loadgen(
    config: &LoadgenConfig,
    templates: &[(String, Vec<ProfileShard>)],
) -> Result<LoadgenReport, String> {
    if templates.is_empty() || templates.iter().any(|(_, shards)| shards.is_empty()) {
        return Err("loadgen needs at least one non-empty template set".into());
    }
    let producers = config.producers.max(1);
    let next = Arc::new(AtomicU64::new(0));
    let pushed = Arc::new(AtomicU64::new(0));
    let templates: Arc<Vec<(String, Vec<String>)>> = Arc::new(
        templates
            .iter()
            .map(|(build, shards)| {
                let docs = shards
                    .iter()
                    .map(|shard| schema::report_of_shard(shard.clone()))
                    .collect();
                (build.clone(), docs)
            })
            .collect(),
    );

    let started = Instant::now();
    let mut workers = Vec::new();
    for _ in 0..producers {
        let next = Arc::clone(&next);
        let pushed = Arc::clone(&pushed);
        let templates = Arc::clone(&templates);
        let addr = config.addr.clone();
        let workload = config.workload.clone();
        let total = config.shards;
        workers.push(std::thread::spawn(move || -> Result<(), String> {
            let mut client = Client::connect(&addr)?;
            loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= total {
                    return Ok(());
                }
                let (build, docs) = &templates[(i % templates.len() as u64) as usize];
                let doc = &docs[((i / templates.len() as u64) % docs.len() as u64) as usize];
                client.push_shard(&workload, build, i + 1, doc)?;
                pushed.fetch_add(1, Ordering::SeqCst);
            }
        }));
    }
    for worker in workers {
        worker
            .join()
            .map_err(|_| "producer thread panicked".to_string())??;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let shards_pushed = pushed.load(Ordering::SeqCst);

    // Verification phase: every query must answer over the freshly merged state.
    let mut client = Client::connect(&config.addr)?;
    let mut queries_answered = 0u64;
    let builds: Vec<String> = templates.iter().map(|(build, _)| build.clone()).collect();
    for build in &builds {
        let top = client.query_top(&config.workload, build, config.top)?;
        expect_rows(parse(&top)?.root(), "rows")?;
        queries_answered += 1;
    }
    let first = builds.first().expect("non-empty").clone();
    let last = builds.last().expect("non-empty").clone();
    let regressions = client.query_regressions(&config.workload, &first, &last, config.top)?;
    let verdict = parse(&regressions)?
        .root()
        .get("verdict")
        .and_then(JsonRef::as_str)
        .unwrap_or("unknown")
        .to_string();
    queries_answered += 1;
    let alerts = client.query_alerts(&config.workload, &first, &last)?;
    let alerts_fired = parse(&alerts)?
        .root()
        .get("alert_count")
        .and_then(JsonRef::as_f64)
        .unwrap_or(0.0) as u64;
    queries_answered += 1;
    let keys = client.list_keys()?;
    expect_rows(parse(&keys)?.root(), "keys")?;
    queries_answered += 1;
    let stats = client.stats()?;
    let stats = parse(&stats)?;
    let stats = stats.root();
    queries_answered += 1;

    Ok(LoadgenReport {
        shards_pushed,
        elapsed_seconds: elapsed,
        shards_per_second: if elapsed > 0.0 {
            shards_pushed as f64 / elapsed
        } else {
            0.0
        },
        builds,
        queries_answered,
        verdict,
        alerts_fired,
        shards_resident: stats
            .get("shards_resident")
            .and_then(JsonRef::as_f64)
            .unwrap_or(0.0) as u64,
        shards_absorbed: stats
            .get("shards_absorbed")
            .and_then(JsonRef::as_f64)
            .unwrap_or(0.0) as u64,
        fold_rebuilds: stats
            .get("fold_rebuilds")
            .and_then(JsonRef::as_f64)
            .unwrap_or(0.0) as u64,
    })
}

fn parse(text: &str) -> Result<JsonTape<'_>, String> {
    let doc = JsonTape::parse(text)?;
    match doc.root().get("schema").and_then(JsonRef::as_str) {
        Some(schema::SERVE_V1) => Ok(doc),
        other => Err(format!("unexpected response schema {other:?}")),
    }
}

fn expect_rows(doc: JsonRef, key: &str) -> Result<(), String> {
    match doc
        .get(key)
        .and_then(JsonRef::as_array)
        .map(|rows| rows.len())
    {
        Some(1..) => Ok(()),
        _ => Err(format!("query response has no '{key}' rows")),
    }
}
