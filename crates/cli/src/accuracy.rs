//! The `dprof accuracy` harness: one profiling run collects the sampled profile and
//! the exact ground-truth profile *simultaneously* (same access stream, so every
//! difference between them is sampling error and nothing else), then reports how
//! faithful the sampled ranking is — per-type miss-share error, top-K rank agreement
//! and the samples spent doing it.
//!
//! This is the measurement the paper cannot make: real IBS hardware never sees the
//! full access stream, so DProf's evaluation argues fidelity indirectly.  The
//! simulator counts every access, which turns "is the sampled profile right?" into a
//! number CI can gate on (the `scenario-oracle` job runs this harness over the
//! planted-bottleneck corpus on every PR).

use crate::args::{AccuracyOptions, Format};
use crate::driver::{run_parallel, ThreadRun};
use crate::merge::merge;
use dprof::core::schema::Json;
use std::collections::HashMap;
use std::fmt::Write as _;

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
    /// Exact accesses tallied (all threads, hits included).
    pub exact_accesses: u64,
    /// Exact L1 misses tallied (all threads, unresolvable included).
    pub exact_l1_misses_total: u64,
}

/// Compares the pooled exact profiles with the sampled side of the merged report.
///
/// Threads profile independent machines, so — exactly as [`crate::merge`] does for
/// reports — everything is keyed by type name and counts are summed before shares
/// are computed.  The sampled counts are read off [`crate::merge::merge`] of the
/// runs, the report `dprof` prints.
pub fn compare(runs: &[ThreadRun], top_k: usize, budget_per_thread: Option<u64>) -> AccuracyReport {
    assert!(!runs.is_empty(), "accuracy requires at least one run");

    // Pool the exact profiles.
    let mut exact: HashMap<String, u64> = HashMap::new();
    let mut exact_util: HashMap<String, (u64, u64)> = HashMap::new();
    let mut exact_total = 0u64;
    let mut exact_accesses = 0u64;
    let mut exact_l1_misses_total = 0u64;
    for run in runs {
        let gt = run
            .profile
            .ground_truth
            .as_ref()
            .expect("accuracy runs collect ground truth");
        exact_accesses += gt.total_accesses;
        exact_l1_misses_total += gt.total_l1_misses;
        exact_total += gt.resolved_l1_misses;
        for row in &gt.rows {
            *exact.entry(row.name.clone()).or_insert(0) += row.l1_misses;
        }
        for row in &gt.utilization.rows {
            let e = exact_util.entry(row.name.clone()).or_insert((0, 0));
            e.0 += row.slots_fetched;
            e.1 += row.slots_touched;
        }
    }

    // The sampled side, pooled by the merge.
    let merged = merge(runs);
    let sampled: HashMap<String, u64> = merged
        .data_profile
        .iter()
        .map(|row| (row.name.clone(), row.l1_miss_samples))
        .collect();
    let sampled_total: u64 = sampled.values().sum();
    let sampled_util: HashMap<String, (u64, u64)> = merged
        .utilization
        .rows
        .iter()
        .map(|row| (row.name.clone(), (row.slots_fetched, row.slots_touched)))
        .collect();

    let share = |count: u64, total: u64| {
        if total == 0 {
            0.0
        } else {
            100.0 * count as f64 / total as f64
        }
    };

    // Rank both profiles (count desc, name asc — the same tie-break the views use).
    let ranked = |counts: &HashMap<String, u64>| -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = counts
            .iter()
            .filter(|(_, &c)| c > 0)
            .map(|(n, &c)| (n.clone(), c))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    };
    let exact_ranked = ranked(&exact);
    let sampled_ranked = ranked(&sampled);
    let sampled_rank: HashMap<&str, usize> = sampled_ranked
        .iter()
        .enumerate()
        .map(|(i, (n, _))| (n.as_str(), i))
        .collect();

    let mut rows: Vec<AccuracyRow> = exact_ranked
        .iter()
        .enumerate()
        .map(|(i, (name, count))| {
            let exact_share = share(*count, exact_total);
            let sampled_misses = sampled.get(name).copied().unwrap_or(0);
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
    // Types that were sampled but never actually missed in the exact tally (possible:
    // a sample attributes the *worst line* of a multi-line access) still contribute
    // share error.  Sorted before appending — HashMap iteration order is not stable
    // across processes, and report output must be.
    let mut sampled_only: Vec<(String, u64)> = sampled
        .iter()
        .filter(|(name, &count)| count > 0 && exact.get(name.as_str()).copied().unwrap_or(0) == 0)
        .map(|(name, &count)| (name.clone(), count))
        .collect();
    sampled_only.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    for (name, count) in sampled_only {
        let sampled_share = share(count, sampled_total);
        rows.push(AccuracyRow {
            sampled_rank: sampled_rank.get(name.as_str()).copied(),
            name,
            exact_l1_misses: 0,
            exact_share: 0.0,
            sampled_misses: count,
            sampled_share,
            abs_error: sampled_share,
            exact_rank: usize::MAX,
        });
    }

    // Both sides use the same clamped k: letting the sampled side keep the unclamped
    // top_k would count a type ranked anywhere in the sampled profile as "agreeing"
    // whenever --top-k exceeds the exact row count, making the metric vacuous.
    let k = top_k.min(exact_ranked.len());
    let exact_top: Vec<String> = exact_ranked
        .iter()
        .take(k)
        .map(|(n, _)| n.clone())
        .collect();
    let sampled_top: Vec<String> = sampled_ranked
        .iter()
        .take(k)
        .map(|(n, _)| n.clone())
        .collect();
    let agreed = exact_top.iter().filter(|n| sampled_top.contains(n)).count();
    let topk_agreement = if k == 0 {
        1.0
    } else {
        agreed as f64 / k as f64
    };

    // Utilization fidelity: (fetched, touched) granule slots per type on each side —
    // exact from the ground-truth tally, sampled from the merged utilization view —
    // compared by their wasted-byte rankings the same way.
    let ranked_by_waste = |counts: &HashMap<String, (u64, u64)>| -> Vec<String> {
        let mut v: Vec<(String, u64)> = counts
            .iter()
            .map(|(n, &(fetched, touched))| (n.clone(), 8 * fetched.saturating_sub(touched)))
            .filter(|(_, wasted)| *wasted > 0)
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v.into_iter().map(|(n, _)| n).collect()
    };
    let exact_util_ranked = ranked_by_waste(&exact_util);
    let sampled_util_ranked = ranked_by_waste(&sampled_util);
    let uk = top_k.min(exact_util_ranked.len());
    let utilization_exact_top: Vec<String> = exact_util_ranked.into_iter().take(uk).collect();
    let utilization_sampled_top: Vec<String> = sampled_util_ranked.into_iter().take(uk).collect();
    let util_agreed = utilization_exact_top
        .iter()
        .filter(|n| utilization_sampled_top.contains(n))
        .count();
    let utilization_topk_agreement = if uk == 0 {
        1.0
    } else {
        util_agreed as f64 / uk as f64
    };

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
        Some(budget) => runs.iter().all(|r| r.profile.samples_spent <= budget),
        None => true,
    };

    AccuracyReport {
        rows,
        top_k: k,
        exact_top,
        sampled_top,
        topk_agreement,
        utilization_exact_top,
        utilization_sampled_top,
        utilization_topk_agreement,
        mean_abs_error,
        max_abs_error,
        worst_type,
        samples_spent: runs.iter().map(|r| r.profile.samples_spent).sum(),
        budget_per_thread,
        within_budget,
        exact_accesses,
        exact_l1_misses_total,
    }
}

/// Runs the accuracy harness end to end and returns the process exit code.
pub fn run_accuracy(options: &AccuracyOptions) -> i32 {
    eprintln!(
        "accuracy: profiling {} on {} thread(s) x {} core(s) under {} with exact \
         ground truth...",
        options.run.workload.name(),
        options.run.threads,
        options.run.cores,
        options.run.sampling,
    );
    let runs = match run_parallel(&options.run) {
        Ok(runs) => runs,
        Err(message) => {
            eprintln!("error: {message}");
            return 1;
        }
    };
    let report = compare(&runs, options.top_k, options.run.sampling.budget());
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
                            ("type", Json::str(&r.name)),
                            ("exact_l1_misses", Json::num(r.exact_l1_misses as f64)),
                            ("exact_share_pct", Json::num(r.exact_share)),
                            (
                                "sampled_l1_miss_samples",
                                Json::num(r.sampled_misses as f64),
                            ),
                            ("sampled_share_pct", Json::num(r.sampled_share)),
                            ("abs_error_pct", Json::num(r.abs_error)),
                            (
                                "exact_rank",
                                if r.exact_rank == usize::MAX {
                                    Json::Null
                                } else {
                                    Json::num(r.exact_rank as f64)
                                },
                            ),
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
                collect_ground_truth: true,
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
        let runs = run_parallel(&options.run).expect("runs");
        let report = compare(&runs, options.top_k, options.run.sampling.budget());
        assert!(!report.rows.is_empty(), "no types compared");
        assert!(report.samples_spent > 0);
        assert_eq!(report.budget_per_thread, Some(1_500));
        assert!(report.within_budget);
        assert!(report.samples_spent <= 1_500);
        assert!((0.0..=1.0).contains(&report.topk_agreement));
        // Exact shares over resolved misses must sum to ~100.
        let exact_sum: f64 = report
            .rows
            .iter()
            .filter(|r| r.exact_rank != usize::MAX)
            .map(|r| r.exact_share)
            .sum();
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
        let runs = run_parallel(&options.run).expect("runs");
        let report = compare(&runs, options.top_k, options.run.sampling.budget());
        assert_eq!(report.budget_per_thread, None);
        assert!(report.within_budget);
        assert!(report.exact_accesses > 0);
    }
}
