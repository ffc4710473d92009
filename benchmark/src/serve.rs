//! `serve-mixed`: a `dprof serve` child under writes beside reads.
//!
//! Two [`Client`] connections, driven in turn from this one thread (a closed loop with
//! one request in flight, so that, like the CLI children, the workload keeps one core
//! busy at a time).  Each connection repeats a fixed ten-slot schedule: seven
//! `push_shard`s, alternating between the builds `v1` and `v2` with unique shard ids,
//! and one each of `query_top`, `query_regressions` and `query_alerts`.

use crate::child::Collector;
use crate::workloads::Env;
use dprof::core::schema::{self, Json};
use dprof_serve::Client;
use std::time::{Duration, Instant};

/// The reports set-up records: the shard documents pushed under `v1` and `v2`.
pub const SHARD_DOCUMENTS: [&str; 2] = ["shard-v1.json", "shard-v2.json"];
pub const BUILDS: [&str; 2] = ["v1", "v2"];
pub const KEY: &str = "memcached";

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    Push,
    Top,
    Regressions,
    Alerts,
}

use Slot::{Alerts, Push, Regressions, Top};
pub const SCHEDULE: [Slot; 10] = [
    Push,
    Push,
    Top,
    Push,
    Push,
    Regressions,
    Push,
    Push,
    Alerts,
    Push,
];
pub const CONNECTIONS: usize = 2;

/// A key is compacted, and snapshotted, every this many pushes to it.  A query folds
/// every resident shard of its key, so its cost climbs from one shard to this many
/// and falls back: a saw-tooth.  One pass (every connection's schedule once) pushes
/// seven shards to each key, so the period is ten passes, and a batch of
/// [`BATCH_PASSES`] covers two whole periods: every batch does the same work.
pub const PERIOD: u64 = 70;
pub const BATCH_PASSES: usize = 20;

/// The collector's flags: `--compact-every` counts resident shards (the base shard
/// included), `--snapshot-every` pushes.
pub fn collector_flags() -> [String; 4] {
    [
        "--compact-every".into(),
        (PERIOD + 1).to_string(),
        "--snapshot-every".into(),
        PERIOD.to_string(),
    ]
}

/// One batch as the client saw it.
pub struct Batch {
    pub wall: Duration,
    /// CPU time the collector spent on it.
    pub collector_cpu: Duration,
    pub push_latencies: Vec<Duration>,
    pub query_latencies: Vec<Duration>,
    /// Every response was a well-formed `dprof-serve/v1` document of the right kind.
    pub ok: bool,
}

/// A running collector and the connections that drive it.
pub struct Traffic {
    collector: Collector,
    clients: Vec<Client>,
    documents: [String; 2],
    pushes: u64,
}

/// Whether `response` is a `dprof-serve/v1` document of kind `kind`.
pub fn well_formed(response: &Result<String, String>, kind: &str) -> bool {
    let Ok(Ok(doc)) = response.as_ref().map(|text| Json::parse(text)) else {
        return false;
    };
    doc.get("schema").and_then(Json::as_str) == Some(schema::SERVE_V1)
        && doc.get("kind").and_then(Json::as_str) == Some(kind)
}

impl Traffic {
    /// Starts the collector on a fresh store and connects to it.
    pub fn start(env: &Env) -> Result<Traffic, String> {
        let collector = Collector::start(env.dprof, env.dir, &collector_flags())?;
        let clients = (0..CONNECTIONS)
            .map(|_| Client::connect(&collector.addr))
            .collect::<Result<_, _>>()?;
        let read = |name: &str| {
            std::fs::read_to_string(env.dir.join(name)).map_err(|e| format!("{name}: {e}"))
        };
        let documents = [read(SHARD_DOCUMENTS[0])?, read(SHARD_DOCUMENTS[1])?];
        Ok(Traffic {
            collector,
            clients,
            documents,
            pushes: 0,
        })
    }

    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    pub fn documents(&self) -> &[String; 2] {
        &self.documents
    }

    /// The round trips of `count` `stats` requests: the protocol's floor, with no merge
    /// work behind it.
    pub fn stats_roundtrips(&mut self, count: usize) -> Result<Vec<Duration>, String> {
        (0..count)
            .map(|_| {
                let started = Instant::now();
                self.clients[0].stats()?;
                Ok(started.elapsed())
            })
            .collect()
    }

    /// [`BATCH_PASSES`] passes of every connection's schedule.
    pub fn batch(&mut self) -> Result<Batch, String> {
        let mut batch = Batch {
            wall: Duration::ZERO,
            collector_cpu: Duration::ZERO,
            push_latencies: Vec::new(),
            query_latencies: Vec::new(),
            ok: true,
        };
        let cpu_before = self.collector.cpu()?;
        let started = Instant::now();
        for _ in 0..BATCH_PASSES {
            for slot in SCHEDULE {
                for client in &mut self.clients {
                    let sent = Instant::now();
                    let (response, kind) = match slot {
                        Push => {
                            let build = (self.pushes % 2) as usize;
                            self.pushes += 1;
                            (
                                client.push_shard(
                                    KEY,
                                    BUILDS[build],
                                    self.pushes,
                                    &self.documents[build],
                                ),
                                "push",
                            )
                        }
                        Top => (client.query_top(KEY, BUILDS[0], 8), "top"),
                        Regressions => (
                            client.query_regressions(KEY, BUILDS[0], BUILDS[1], 8),
                            "regressions",
                        ),
                        Alerts => (client.query_alerts(KEY, BUILDS[0], BUILDS[1]), "alerts"),
                    };
                    let latency = sent.elapsed();
                    match slot {
                        Push => batch.push_latencies.push(latency),
                        _ => batch.query_latencies.push(latency),
                    }
                    if !well_formed(&response, kind) {
                        eprintln!("serve-mixed: bad {kind} response: {response:?}");
                        batch.ok = false;
                    }
                }
            }
        }
        batch.wall = started.elapsed();
        batch.collector_cpu = self.collector.cpu()? - cpu_before;
        Ok(batch)
    }

    /// The collector's counters: the document a `stats` request returns.
    pub fn stats(&mut self) -> Result<Json, String> {
        let text = self.clients[0].stats()?;
        Json::parse(&text).map_err(|e| format!("stats: {e}"))
    }

    /// Checks that the collector absorbed every shard pushed, then shuts it down and
    /// waits for it.  Returns whether all of that went well.
    pub fn finish(mut self) -> Result<bool, String> {
        let absorbed = self.stats()?.get("shards_absorbed").and_then(Json::as_f64);
        let all_absorbed = absorbed == Some(self.pushes as f64);
        if !all_absorbed {
            eprintln!(
                "serve-mixed: pushed {} shards, the collector absorbed {absorbed:?}",
                self.pushes
            );
        }
        drop(self.clients);
        Ok(self.collector.stop()? && all_absorbed)
    }
}
