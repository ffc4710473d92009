//! The `dprof accuracy` harness: one live profiling run records its session, and a
//! replay of that recording under `fixed:1` samples every operation — a census.  The
//! live run is the sampled side and the census the exact side (profiling never
//! touches the caches, and a replay issues the recorded accesses whatever the clocks
//! read, so every difference between them is sampling error and nothing else); the
//! harness reports how faithful the sampled ranking is — per-type miss-share error,
//! top-K rank agreement and the samples spent doing it.
//!
//! This is the measurement the paper cannot make: real IBS hardware never sees the
//! full access stream, so DProf's evaluation argues fidelity indirectly.  The
//! simulator can sample every access, which turns "is the sampled profile right?"
//! into a number CI can gate on (the `scenario-oracle` job runs this harness over the
//! planted-bottleneck corpus on every change).

use crate::args::{AccuracyOptions, Format};
use crate::driver::{run_parallel, RunOptions, ThreadRun};
use crate::merge::merge;
use dprof::core::schema::Json;
use dprof::machine::SamplingPolicy;
use dprof::trace::{replay_all_streaming, TraceReader};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// JSON schema identifier of the accuracy report.
pub const SCHEMA: &str = dprof::core::schema::ACCURACY_V1;

/// One per-type comparison row.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Type name.
    pub name: String,
    /// Exact L1 misses (every access counted), all threads.
    pub exact_l1_misses: u64,
    /// Exact share of resolved L1 misses, percent.
    pub exact_share: f64,
    /// L1-miss samples the sampled profile attributed to the type, all threads.
    pub sampled_misses: u64,
    /// Sampled share of L1-miss samples, percent.
    pub sampled_share: f64,
    /// `|sampled_share - exact_share|`, percentage points.
    pub abs_error: f64,
    /// 0-based rank in the exact profile.
    pub exact_rank: usize,
    /// 0-based rank in the sampled profile, if the type was sampled at all.
    pub sampled_rank: Option<usize>,
}

/// The full accuracy comparison of one run.
#[derive(Debug, Clone)]
pub struct AccuracyReport {
    /// Per-type rows, ordered by exact rank.
    pub rows: Vec<AccuracyRow>,
    /// `k` used for the rank-agreement metric (clamped to the exact row count).
    pub top_k: usize,
    /// The exact top-K type names, best first.
    pub exact_top: Vec<String>,
    /// The sampled top-K type names, best first.
    pub sampled_top: Vec<String>,
    /// Fraction of the exact top-K present anywhere in the sampled top-K.
    pub topk_agreement: f64,
    /// The exact utilization top-K type names (wasted bytes, best first).
    pub utilization_exact_top: Vec<String>,
    /// The sampled utilization top-K type names (wasted bytes, best first).
    pub utilization_sampled_top: Vec<String>,
    /// Fraction of the exact utilization top-K present in the sampled utilization
    /// top-K.
    pub utilization_topk_agreement: f64,
    /// Mean absolute share error over all rows, percentage points.
    pub mean_abs_error: f64,
    /// Largest absolute share error, percentage points.
    pub max_abs_error: f64,
    /// The type carrying the largest error, if any rows exist.
    pub worst_type: Option<String>,
    /// Raw IBS samples spent, summed over threads.
    pub samples_spent: u64,
    /// The per-thread adaptive budget, if the policy was adaptive.
    pub budget_per_thread: Option<u64>,
    /// True when no thread exceeded its budget (vacuously true for fixed policies).
    pub within_budget: bool,
    /// Every operation of the census (all threads, hits included).
    pub exact_accesses: u64,
    /// Every L1 miss of the census (all threads, unresolvable included).
    pub exact_l1_misses_total: u64,
}

/// One side of the comparison, read off the merge of its runs: L1-miss samples per
/// type name, the types ranked by them, and the types ranked by wasted bytes.
struct Side {
    misses: HashMap<String, u64>,
    ranked: Vec<(String, u64)>,
    wasted: Vec<(String, u64)>,
}

impl Side {
    fn of(runs: &[ThreadRun]) -> Side {
        let merged = merge(runs);
        let misses: HashMap<String, u64> = (merged.data_profile.iter())
            .map(|row| (row.name.to_string(), row.l1_miss_samples))
            .collect();
        Side {
            ranked: ranked(misses.iter().map(|(n, &c)| (n.clone(), c))),
            misses,
            wasted: ranked(merged.utilization.rows.iter().map(|row| {
                let wasted = 8 * row.slots_fetched.saturating_sub(row.slots_touched);
                (row.name.to_string(), wasted)
            })),
        }
    }
}

/// Names by score, highest first (name ascending breaks ties, as the views do), zero
/// scores dropped.
fn ranked(scores: impl Iterator<Item = (String, u64)>) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = scores.filter(|&(_, score)| score > 0).collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

/// The first `k` names of both rankings and the share of the exact ones among the
/// sampled ones (1 for none).  Both sides use the same `k`, clamped to the exact
/// ranking: a sampled side that kept the unclamped `k` would count a type ranked
/// anywhere in it as agreeing whenever `--top-k` exceeds the exact row count.
fn top_names(
    exact: &[(String, u64)],
    sampled: &[(String, u64)],
    k: usize,
) -> (Vec<String>, Vec<String>, f64) {
    let k = k.min(exact.len());
    let names = |ranked: &[(String, u64)]| -> Vec<String> {
        ranked.iter().take(k).map(|(n, _)| n.clone()).collect()
    };
    let (exact, sampled) = (names(exact), names(sampled));
    let agreed = exact.iter().filter(|n| sampled.contains(n)).count();
    let agreement = if k == 0 {
        1.0
    } else {
        agreed as f64 / k as f64
    };
    (exact, sampled, agreement)
}

/// Compares the census (`exact`, the `fixed:1` replays) with the sampled runs.
///
/// Threads profile independent machines, so both sides are read off
/// [`crate::merge::merge`] of their runs, the report `dprof` prints: keyed by type
/// name, counts summed before shares are computed.
///
/// `Err` names a type the sampled side saw miss L1 and the census did not: the
/// sampled side is a subsample of the census, so that is a harness fault.
pub fn compare(
    sampled: &[ThreadRun],
    exact: &[ThreadRun],
    top_k: usize,
    budget_per_thread: Option<u64>,
) -> Result<AccuracyReport, String> {
    let (sampled_side, exact_side) = (Side::of(sampled), Side::of(exact));
    if let Some((name, count)) = (sampled_side.ranked.iter())
        .find(|(name, _)| exact_side.misses.get(name).is_none_or(|&c| c == 0))
    {
        return Err(format!(
            "type '{name}' has {count} sampled L1 misses and none in the census: the \
             sampled run is not a subsample of its replay"
        ));
    }
    let share = |count: u64, total: u64| {
        if total == 0 {
            0.0
        } else {
            100.0 * count as f64 / total as f64
        }
    };
    let sampled_total: u64 = sampled_side.misses.values().sum();
    let exact_total: u64 = exact_side.misses.values().sum();
    let sampled_rank: HashMap<&str, usize> = (sampled_side.ranked.iter())
        .enumerate()
        .map(|(i, (n, _))| (n.as_str(), i))
        .collect();
    let rows: Vec<AccuracyRow> = (exact_side.ranked.iter())
        .enumerate()
        .map(|(i, (name, count))| {
            let exact_share = share(*count, exact_total);
            let sampled_misses = sampled_side.misses.get(name).copied().unwrap_or(0);
            let sampled_share = share(sampled_misses, sampled_total);
            AccuracyRow {
                name: name.clone(),
                exact_l1_misses: *count,
                exact_share,
                sampled_misses,
                sampled_share,
                abs_error: (sampled_share - exact_share).abs(),
                exact_rank: i,
                sampled_rank: sampled_rank.get(name.as_str()).copied(),
            }
        })
        .collect();

    let (exact_top, sampled_top, topk_agreement) =
        top_names(&exact_side.ranked, &sampled_side.ranked, top_k);
    let (utilization_exact_top, utilization_sampled_top, utilization_topk_agreement) =
        top_names(&exact_side.wasted, &sampled_side.wasted, top_k);

    let mean_abs_error = if rows.is_empty() {
        0.0
    } else {
        rows.iter().map(|r| r.abs_error).sum::<f64>() / rows.len() as f64
    };
    let worst = rows
        .iter()
        .max_by(|a, b| a.abs_error.partial_cmp(&b.abs_error).unwrap());
    let (max_abs_error, worst_type) = worst
        .map(|r| (r.abs_error, Some(r.name.clone())))
        .unwrap_or((0.0, None));

    let within_budget = match budget_per_thread {
        Some(budget) => sampled.iter().all(|r| r.profile.samples_spent <= budget),
        None => true,
    };

    Ok(AccuracyReport {
        rows,
        top_k: exact_top.len(),
        exact_top,
        sampled_top,
        topk_agreement,
        utilization_exact_top,
        utilization_sampled_top,
        utilization_topk_agreement,
        mean_abs_error,
        max_abs_error,
        worst_type,
        samples_spent: sampled.iter().map(|r| r.profile.samples_spent).sum(),
        budget_per_thread,
        within_budget,
        exact_accesses: exact.iter().map(|r| r.profile.samples_spent).sum(),
        exact_l1_misses_total: exact.iter().map(|r| r.profile.l1_miss_samples_spent).sum(),
    })
}

/// Runs `run` live with its session recorded and replays the recording under
/// `fixed:1` with no history phase: the live runs (the sampled side) and the replays
/// (the census), each in thread order.  The recording is spooled to a temporary
/// `.dtrace`, which is removed on every path out.
pub fn sampled_and_census(run: &RunOptions) -> Result<(Vec<ThreadRun>, Vec<ThreadRun>), String> {
    static SPOOLED: AtomicUsize = AtomicUsize::new(0);
    let run = RunOptions {
        record_session: true,
        ..run.clone()
    };
    let mut sampled = run_parallel(&run)?;
    let trace = crate::session_trace(run.session_params(), &mut sampled)?;
    let path = std::env::temp_dir().join(format!(
        "dprof-accuracy-{}-{}.dtrace",
        std::process::id(),
        SPOOLED.fetch_add(1, Ordering::Relaxed)
    ));
    let census = (|| {
        let mut file = std::fs::File::create(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        trace
            .write_to(&mut file)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        drop(trace);
        replay_census(&path)
    })();
    let _ = std::fs::remove_file(&path);
    Ok((sampled, census?))
}

/// Replays the trace at `path` under `fixed:1` with no history phase.  A replay that
/// leaves recorded events unconsumed did not see every operation: `Err`.
fn replay_census(path: &Path) -> Result<Vec<ThreadRun>, String> {
    let mut reader = TraceReader::open(&path.display().to_string()).map_err(String::from)?;
    reader.params.sampling = SamplingPolicy::fixed(1);
    reader.params.history_types = 0;
    replay_all_streaming(&reader)?
        .into_iter()
        .map(|(run, trailing)| match trailing {
            0 => Ok(run),
            _ => Err(format!(
                "stream {}: the census left {trailing} recorded event(s) unreplayed",
                run.thread
            )),
        })
        .collect()
}

/// Runs the accuracy harness end to end and returns the process exit code.
pub fn run_accuracy(options: &AccuracyOptions) -> i32 {
    eprintln!(
        "accuracy: profiling {} on {} thread(s) x {} core(s) under {}, then replaying \
         the recording as a fixed:1 census...",
        options.run.workload.name(),
        options.run.threads,
        options.run.cores,
        options.run.sampling,
    );
    let report = sampled_and_census(&options.run).and_then(|(sampled, census)| {
        compare(
            &sampled,
            &census,
            options.top_k,
            options.run.sampling.budget(),
        )
    });
    let report = match report {
        Ok(report) => report,
        Err(message) => {
            eprintln!("error: {message}");
            return 1;
        }
    };
    let rendered = match options.format {
        Format::Text => render_text(&report, options),
        Format::Json => render_json(&report, options).to_pretty_string(),
    };
    crate::emit(&rendered, &options.output)
}

/// Renders the text form of the accuracy report.
pub fn render_text(report: &AccuracyReport, options: &AccuracyOptions) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "dprof accuracy — workload {}, sampling {}",
        options.run.workload.name(),
        options.run.sampling
    )
    .unwrap();
    writeln!(
        out,
        "{} samples spent{}; exact tally: {} accesses, {} L1 misses",
        report.samples_spent,
        match report.budget_per_thread {
            Some(b) => format!(
                " of {} budgeted ({})",
                b * options.run.threads as u64,
                if report.within_budget {
                    "within budget"
                } else {
                    "BUDGET EXCEEDED"
                }
            ),
            None => String::new(),
        },
        report.exact_accesses,
        report.exact_l1_misses_total
    )
    .unwrap();
    writeln!(
        out,
        "top-{} rank agreement: {:.0}%  (exact: {} | sampled: {})",
        report.top_k,
        100.0 * report.topk_agreement,
        report.exact_top.join(", "),
        report.sampled_top.join(", ")
    )
    .unwrap();
    writeln!(
        out,
        "utilization top-{} rank agreement: {:.0}%  (exact: {} | sampled: {})",
        report.utilization_exact_top.len(),
        100.0 * report.utilization_topk_agreement,
        report.utilization_exact_top.join(", "),
        report.utilization_sampled_top.join(", ")
    )
    .unwrap();
    writeln!(
        out,
        "share error: mean {:.2} pp, max {:.2} pp{}",
        report.mean_abs_error,
        report.max_abs_error,
        report
            .worst_type
            .as_deref()
            .map(|t| format!(" ({t})"))
            .unwrap_or_default()
    )
    .unwrap();
    writeln!(
        out,
        "\n{:<18} {:>12} {:>10} {:>12} {:>10} {:>8}",
        "Type name", "Exact miss", "Exact %", "Sampled", "Sampled %", "Err pp"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(76)).unwrap();
    for r in &report.rows {
        writeln!(
            out,
            "{:<18} {:>12} {:>9.2}% {:>12} {:>9.2}% {:>8.2}",
            r.name,
            r.exact_l1_misses,
            r.exact_share,
            r.sampled_misses,
            r.sampled_share,
            r.abs_error
        )
        .unwrap();
    }
    out
}

/// Builds the `dprof-accuracy/v1` JSON document.
pub fn render_json(report: &AccuracyReport, options: &AccuracyOptions) -> Json {
    let run = &options.run;
    Json::Obj(vec![
        ("schema".into(), Json::str(SCHEMA)),
        (
            "run".into(),
            Json::obj(vec![
                ("workload", Json::str(run.workload.name())),
                ("threads", Json::num(run.threads as u32)),
                ("cores_per_machine", Json::num(run.cores as u32)),
                ("warmup_rounds", Json::num(run.warmup_rounds as u32)),
                ("sample_rounds", Json::num(run.sample_rounds as u32)),
                ("sampling", Json::str(run.sampling.to_string())),
                ("base_seed", Json::num(run.base_seed as f64)),
                ("top_k", Json::num(options.top_k as u32)),
            ]),
        ),
        (
            "samples".into(),
            Json::obj(vec![
                ("spent", Json::num(report.samples_spent as f64)),
                (
                    "budget_per_thread",
                    match report.budget_per_thread {
                        Some(b) => Json::num(b as f64),
                        None => Json::Null,
                    },
                ),
                ("within_budget", Json::Bool(report.within_budget)),
                ("exact_accesses", Json::num(report.exact_accesses as f64)),
                (
                    "exact_l1_misses",
                    Json::num(report.exact_l1_misses_total as f64),
                ),
            ]),
        ),
        (
            "top_k".into(),
            Json::obj(vec![
                ("k", Json::num(report.top_k as u32)),
                ("agreement", Json::num(report.topk_agreement)),
                (
                    "exact",
                    Json::Arr(report.exact_top.iter().map(Json::str).collect()),
                ),
                (
                    "sampled",
                    Json::Arr(report.sampled_top.iter().map(Json::str).collect()),
                ),
            ]),
        ),
        (
            "utilization_top_k".into(),
            Json::obj(vec![
                ("k", Json::num(report.utilization_exact_top.len() as u32)),
                ("agreement", Json::num(report.utilization_topk_agreement)),
                (
                    "exact",
                    Json::Arr(report.utilization_exact_top.iter().map(Json::str).collect()),
                ),
                (
                    "sampled",
                    Json::Arr(
                        report
                            .utilization_sampled_top
                            .iter()
                            .map(Json::str)
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "share_error".into(),
            Json::obj(vec![
                ("mean_abs_pct", Json::num(report.mean_abs_error)),
                ("max_abs_pct", Json::num(report.max_abs_error)),
                (
                    "worst_type",
                    match &report.worst_type {
                        Some(t) => Json::str(t),
                        None => Json::Null,
                    },
                ),
            ]),
        ),
        (
            "rows".into(),
            Json::Arr(
                report
                    .rows
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("type", Json::str(&*r.name)),
                            ("exact_l1_misses", Json::num(r.exact_l1_misses as f64)),
                            ("exact_share_pct", Json::num(r.exact_share)),
                            (
                                "sampled_l1_miss_samples",
                                Json::num(r.sampled_misses as f64),
                            ),
                            ("sampled_share_pct", Json::num(r.sampled_share)),
                            ("abs_error_pct", Json::num(r.abs_error)),
                            ("exact_rank", Json::num(r.exact_rank as f64)),
                            (
                                "sampled_rank",
                                match r.sampled_rank {
                                    Some(i) => Json::num(i as f64),
                                    None => Json::Null,
                                },
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{RunOptions, WorkloadKind};
    use dprof::machine::SamplingPolicy;

    fn accuracy_options(workload: WorkloadKind, sampling: SamplingPolicy) -> AccuracyOptions {
        AccuracyOptions {
            run: RunOptions {
                workload,
                threads: 1,
                cores: 2,
                warmup_rounds: 5,
                sample_rounds: 60,
                sampling,
                history_types: 0,
                ..Default::default()
            },
            top_k: 3,
            format: Format::Json,
            output: None,
        }
    }

    #[test]
    fn harness_compares_sampled_against_exact_and_respects_budget() {
        let options = accuracy_options(
            WorkloadKind::Custom,
            SamplingPolicy::Adaptive { budget: 1_500 },
        );
        let (sampled, census) = sampled_and_census(&options.run).expect("runs");
        let report = compare(
            &sampled,
            &census,
            options.top_k,
            options.run.sampling.budget(),
        )
        .expect("the sampled side is a subsample of the census");
        assert!(!report.rows.is_empty(), "no types compared");
        assert!(report.samples_spent > 0);
        assert_eq!(report.budget_per_thread, Some(1_500));
        assert!(report.within_budget);
        assert!(report.samples_spent <= 1_500);
        assert!((0.0..=1.0).contains(&report.topk_agreement));
        // Exact shares over resolved misses must sum to ~100.
        let exact_sum: f64 = report.rows.iter().map(|r| r.exact_share).sum();
        assert!(
            (exact_sum - 100.0).abs() < 1e-6,
            "exact shares sum to {exact_sum}"
        );
        // The planted false-sharing type must top the exact profile and be found by
        // the sampled profile.
        assert!(report.rows.iter().any(|r| r.name == "pkt_stats"));
        // JSON renders and parses.
        let doc = Json::parse(&render_json(&report, &options).to_pretty_string()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert!(doc.get("top_k").unwrap().get("agreement").is_some());
        assert!(doc
            .get("utilization_top_k")
            .unwrap()
            .get("agreement")
            .is_some());
        assert!((0.0..=1.0).contains(&report.utilization_topk_agreement));
        let text = render_text(&report, &options);
        assert!(text.contains("rank agreement"));
    }

    #[test]
    fn fixed_policy_reports_no_budget() {
        let options = accuracy_options(
            WorkloadKind::Memcached,
            SamplingPolicy::Fixed { interval_ops: 100 },
        );
        let (sampled, census) = sampled_and_census(&options.run).expect("runs");
        let report = compare(
            &sampled,
            &census,
            options.top_k,
            options.run.sampling.budget(),
        )
        .expect("the sampled side is a subsample of the census");
        assert_eq!(report.budget_per_thread, None);
        assert!(report.within_budget);
        assert!(report.exact_accesses > 0);
        // The census as the sampled side is no subsample of the sampled run: a type
        // the sampler never saw miss is named.
        let swapped = compare(&census, &sampled, options.top_k, None).unwrap_err();
        assert!(swapped.contains("none in the census"), "{swapped}");
    }
}
