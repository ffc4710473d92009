//! The five workloads: what set-up generates from the seed, what one measured
//! operation is, and how its output is checked.
//!
//! The program under test only ever sees generated files: set-up records a session
//! with `dprof record --seed <seed>`, and the measured operations are `dprof` child
//! processes over that session's files — or, for `serve-mixed`, batches of requests
//! that push that session's reports at a `dprof serve` child (see [`crate::serve`]).

use crate::child::{run_dprof, ChildUsage};
use crate::serve::{self, Traffic};
use crate::stats::fnv1a;
use dprof::core::schema::{self, Json};
use std::path::Path;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReplayMemcached,
    ReplayApache,
    RecordMemcached,
    WhatifMemcached,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ReplayMemcached,
        Workload::ReplayApache,
        Workload::RecordMemcached,
        Workload::WhatifMemcached,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        crate::metrics::WORKLOADS[self as usize].0
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Where and how one run executes.
pub struct Env<'a> {
    /// The `dprof` binary under test.
    pub dprof: &'a Path,
    /// This run's scratch directory; children run with it as their working directory
    /// and name files relative to it, so no output document embeds a varying path.
    pub dir: &'a Path,
    pub seed: u64,
    /// Quick scale (2-core machines, a few rounds) for tests and `--smoke`.
    pub smoke: bool,
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

impl Env<'_> {
    /// The `dprof record` parameters that generate `workload`'s session; `tx_policy`
    /// is memcached's transmit-queue policy (`hash` is the paper's case study, `local`
    /// its fix).
    fn session_args(&self, workload: Workload, tx_policy: &str) -> Vec<String> {
        let program: &[&str] = match workload {
            Workload::ReplayApache => &["-w", "apache", "--apache-load", "drop-off"],
            _ => &["-w", "memcached", "--tx-policy", tx_policy],
        };
        // The paper's 16-core machine throughout, one recorded stream: the host's
        // second core stays free for this process, so a child's wall time does not
        // depend on two virtual CPUs being scheduled at once.  One history set per type
        // keeps an invocation to a few tenths of a second, so that a run's median is
        // taken over tens of invocations; `whatif` replays its stream seven times
        // over, so its session is the shortest that still yields candidates of every
        // fix family.
        let scale: &[&str] = match (workload, self.smoke) {
            (Workload::WhatifMemcached, false) => &[
                "--cores",
                "16",
                "--rounds",
                "60",
                "--history-types",
                "2",
                "--history-sets",
                "1",
            ],
            (Workload::WhatifMemcached, true) => &["--cores", "4", "--rounds", "120"],
            (Workload::ReplayApache, false) => {
                &["--cores", "16", "--rounds", "40", "--history-sets", "1"]
            }
            (_, false) => &["--cores", "16", "--rounds", "120", "--history-sets", "1"],
            (_, true) => &["--cores", "2", "--rounds", "40"],
        };
        let mut args = strings(program);
        args.extend(strings(&["--threads", "1"]));
        args.extend(strings(scale));
        if self.smoke {
            args.extend(strings(&[
                "--warmup",
                "5",
                "--history-types",
                "2",
                "--history-sets",
                "2",
            ]));
        }
        args.extend(["--seed".to_string(), self.seed.to_string()]);
        args
    }

    /// `dprof record <session> --trace <trace> -f json -o <report>`.
    fn record_args(&self, workload: Workload, trace: &str, report: &str) -> Vec<String> {
        let mut args = strings(&["record"]);
        args.extend(self.session_args(workload, "hash"));
        args.extend(strings(&["--trace", trace, "-f", "json", "-o", report]));
        args
    }

    fn run(&self, args: &[String]) -> Result<ChildUsage, String> {
        run_dprof(self.dprof, self.dir, args)
    }

    fn remove(&self, names: &[&str]) {
        for name in names {
            let _ = std::fs::remove_file(self.dir.join(name));
        }
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, String> {
        std::fs::read(self.dir.join(name)).map_err(|e| format!("{name}: {e}"))
    }
}

/// The session trace set-up records, and the report `dprof record` rendered for it.
pub const SESSION_TRACE: &str = "in.dtrace";
pub const SESSION_REPORT: &str = "expected.json";
const WHATIF_REFERENCE: &str = "expected-whatif.json";

/// What set-up leaves for the measured operations beside the files in the scratch
/// directory: for `serve-mixed`, the running collector and the connections to it.
#[derive(Default)]
pub struct Session {
    pub traffic: Option<Traffic>,
}

/// Set-up: records the session every operation will consume; for `serve-mixed`, the
/// two builds' reports, and starts the collector.
pub fn setup(env: &Env, workload: Workload) -> Result<Session, String> {
    if workload == Workload::ServeMixed {
        crate::child::pin_to_one_cpu()?;
        // v1 is memcached with the paper's fix, v2 without: the regression and alert
        // queries have a signal to find.
        for (document, tx_policy) in serve::SHARD_DOCUMENTS.iter().zip(["local", "hash"]) {
            env.remove(&[document]);
            let mut args = env.session_args(workload, tx_policy);
            args.extend(strings(&["-f", "json", "-o", document]));
            if !env.run(&args)?.success {
                return Err("set-up: dprof failed".into());
            }
        }
        return Ok(Session {
            traffic: Some(Traffic::start(env)?),
        });
    }
    env.remove(&[SESSION_TRACE, SESSION_REPORT, WHATIF_REFERENCE]);
    let usage = env.run(&env.record_args(workload, SESSION_TRACE, SESSION_REPORT))?;
    if !usage.success {
        return Err("set-up: dprof record failed".into());
    }
    Ok(Session::default())
}

/// Ends a session: the collector, if there is one, must have absorbed every shard
/// pushed and exit cleanly when told to.  Returns whether it did.
pub fn close(session: Session) -> Result<bool, String> {
    match session.traffic {
        Some(traffic) => traffic.finish(),
        None => Ok(true),
    }
}

/// The arguments of one measured invocation.
pub fn invocation_args(env: &Env, workload: Workload) -> Vec<String> {
    match workload {
        Workload::ReplayMemcached | Workload::ReplayApache => {
            strings(&["replay", SESSION_TRACE, "-f", "json", "-o", "out.json"])
        }
        Workload::RecordMemcached => env.record_args(workload, "out.dtrace", "out.json"),
        Workload::WhatifMemcached => strings(&[
            "whatif",
            SESSION_TRACE,
            "--auto",
            "-f",
            "json",
            "-o",
            "out.json",
        ]),
        Workload::ServeMixed => Vec::new(),
    }
}

/// A what-if document is acceptable as the reference when it is a `dprof-whatif/v1`
/// document ranking at least one candidate.
pub fn whatif_candidates(document: &[u8]) -> Result<Vec<String>, String> {
    let text = std::str::from_utf8(document).map_err(|e| format!("what-if document: {e}"))?;
    let doc = Json::parse(text).map_err(|e| format!("what-if document: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(schema::WHATIF_V1) {
        return Err("what-if document has the wrong schema".into());
    }
    let fixes: Vec<String> = doc
        .get("candidates")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|c| c.get("fix").and_then(Json::as_str).map(str::to_string))
        .collect();
    if fixes.is_empty() {
        return Err("what-if document ranks no candidate".into());
    }
    Ok(fixes)
}

/// Checks the files one invocation wrote and returns the digest of its output
/// document: a replayed report must be byte-identical to the report `dprof record`
/// wrote in set-up, a re-recorded trace to set-up's trace, and a what-if document to
/// the first invocation's (which must itself be well-formed and non-empty).
pub fn check_outputs(env: &Env, workload: Workload) -> Result<u64, String> {
    let same = |got: &str, want: &str| -> Result<Vec<u8>, String> {
        let bytes = env.read(got)?;
        if bytes != env.read(want)? {
            return Err(format!("{got} differs from {want}"));
        }
        Ok(bytes)
    };
    let document = match workload {
        Workload::RecordMemcached => {
            same("out.dtrace", SESSION_TRACE)?;
            same("out.json", SESSION_REPORT)?
        }
        Workload::WhatifMemcached => {
            if !env.dir.join(WHATIF_REFERENCE).exists() {
                whatif_candidates(&env.read("out.json")?)?;
                std::fs::copy(env.dir.join("out.json"), env.dir.join(WHATIF_REFERENCE))
                    .map_err(|e| format!("{WHATIF_REFERENCE}: {e}"))?;
            }
            same("out.json", WHATIF_REFERENCE)?
        }
        Workload::ReplayMemcached | Workload::ReplayApache => same("out.json", SESSION_REPORT)?,
        Workload::ServeMixed => return Err("serve-mixed writes no output document".into()),
    };
    Ok(fnv1a(&document))
}

/// What one measured operation cost.
pub struct Operation {
    pub wall: Duration,
    /// User plus system time of the child (for `serve-mixed`, of the collector).
    pub cpu: Duration,
    /// Peak RSS of the child (for `serve-mixed`, of the collector so far).
    pub max_rss_kb: u64,
    /// The operation succeeded and its output passed the check.  A failed operation
    /// is a result, not a broken benchmark.
    pub ok: bool,
    /// FNV-1a of the output document of a CLI operation that passed.
    pub digest: Option<u64>,
}

/// One measured operation: a `dprof` child whose output is checked, or one batch of
/// `serve-mixed` requests whose responses are.
pub fn invoke(env: &Env, workload: Workload, session: &mut Session) -> Result<Operation, String> {
    if let Some(traffic) = &mut session.traffic {
        let batch = traffic.batch()?;
        return Ok(Operation {
            wall: batch.wall,
            cpu: batch.collector_cpu,
            max_rss_kb: traffic.collector().peak_rss_kb()?,
            ok: batch.ok,
            digest: None,
        });
    }
    env.remove(&["out.json", "out.dtrace"]);
    let usage = env.run(&invocation_args(env, workload))?;
    let digest = if usage.success {
        check_outputs(env, workload)
            .map_err(|why| eprintln!("{}: output check failed: {why}", workload.name()))
            .ok()
    } else {
        None
    };
    Ok(Operation {
        wall: usage.wall,
        cpu: usage.cpu,
        max_rss_kb: usage.max_rss_kb,
        ok: digest.is_some(),
        digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn whatif_reference_must_rank_a_candidate() {
        let doc = |candidates: Vec<Json>| {
            Json::obj(vec![
                ("schema", Json::str(schema::WHATIF_V1)),
                ("candidates", Json::Arr(candidates)),
            ])
            .to_pretty_string()
            .into_bytes()
        };
        let fix = Json::obj(vec![("fix", Json::str("pad:skbuff"))]);
        assert_eq!(whatif_candidates(&doc(vec![fix])).unwrap(), ["pad:skbuff"]);
        assert!(whatif_candidates(&doc(vec![])).is_err());
        assert!(whatif_candidates(b"").is_err());
    }
}
