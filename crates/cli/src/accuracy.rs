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
use crate::merge::{merge, summary_from_merged};
use dprof::core::report::diff::{join, ReportSummary, TypeDelta};
use dprof::core::schema::JsonWriter;
use dprof::machine::SamplingPolicy;
use dprof::trace::{replay_all_streaming, TraceReader};
use std::cmp::Reverse;
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

/// Compares the census (`exact`, the `fixed:1` replays) with the sampled runs.
///
/// Threads profile independent machines, so both sides are read off
/// [`crate::merge::merge`] of their runs, the report `dprof` prints, reduced to its
/// [`summary_from_merged`] table (`compare_summaries`).
///
/// `Err` names a type the sampled side saw miss L1 and the census did not: the
/// sampled side is a subsample of the census, so that is a harness fault.
pub fn compare(
    sampled: &[ThreadRun],
    exact: &[ThreadRun],
    top_k: usize,
    budget_per_thread: Option<u64>,
) -> Result<AccuracyReport, String> {
    let report = compare_summaries(
        &summary_from_merged(&merge(exact)),
        &summary_from_merged(&merge(sampled)),
        top_k,
    )?;
    let spent = |runs: &[ThreadRun]| runs.iter().map(|r| r.profile.samples_spent).sum();
    Ok(AccuracyReport {
        samples_spent: spent(sampled),
        budget_per_thread,
        within_budget: budget_per_thread
            .is_none_or(|budget| sampled.iter().all(|r| r.profile.samples_spent <= budget)),
        exact_accesses: spent(exact),
        exact_l1_misses_total: exact.iter().map(|r| r.profile.l1_miss_samples_spent).sum(),
        ..report
    })
}

/// The comparison of two summary tables: the census is side `a` and the sampled run
/// side `b` of one [`join`], the walk `dprof diff` makes, and every ranking is a list
/// of positions in it.  The run-level counts (samples spent, budget, census totals)
/// are [`compare`]'s and read zero here.
fn compare_summaries(
    census: &ReportSummary,
    sample: &ReportSummary,
    top_k: usize,
) -> Result<AccuracyReport, String> {
    let types = join(census, sample);
    let exact_misses = |t: &TypeDelta| t.a.l1_miss_samples;
    let sampled_misses = |t: &TypeDelta| t.b.l1_miss_samples;
    // The first of the highest sampled counts in name order: the sampled ranking's
    // first offender.
    if let Some(t) = (types.iter())
        .filter(|t| sampled_misses(t) > 0 && exact_misses(t) == 0)
        .min_by_key(|t| Reverse(sampled_misses(t)))
    {
        return Err(format!(
            "type '{}' has {} sampled L1 misses and none in the census: the sampled run \
             is not a subsample of its replay",
            t.name(),
            sampled_misses(t)
        ));
    }
    let share = |count: u64, total: u64| {
        if total == 0 {
            0.0
        } else {
            100.0 * count as f64 / total as f64
        }
    };
    let exact_total: u64 = types.iter().map(exact_misses).sum();
    let sampled_total: u64 = types.iter().map(sampled_misses).sum();
    let (exact_ranked, sampled_ranked) = (
        ranking(&types, exact_misses),
        ranking(&types, sampled_misses),
    );
    let rows: Vec<AccuracyRow> = (exact_ranked.iter())
        .enumerate()
        .map(|(rank, &i)| {
            let t = &types[i];
            let exact_share = share(exact_misses(t), exact_total);
            let sampled_share = share(sampled_misses(t), sampled_total);
            AccuracyRow {
                name: t.name().to_string(),
                exact_l1_misses: exact_misses(t),
                exact_share,
                sampled_misses: sampled_misses(t),
                sampled_share,
                abs_error: (sampled_share - exact_share).abs(),
                exact_rank: rank,
                sampled_rank: sampled_ranked.iter().position(|&j| j == i),
            }
        })
        .collect();

    let (exact_top, sampled_top, topk_agreement) =
        top_names(&types, &exact_ranked, &sampled_ranked, top_k);
    let (utilization_exact_top, utilization_sampled_top, utilization_topk_agreement) = top_names(
        &types,
        &ranking(&types, |t| t.a.wasted_bytes),
        &ranking(&types, |t| t.b.wasted_bytes),
        top_k,
    );

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
        samples_spent: 0,
        budget_per_thread: None,
        within_budget: true,
        exact_accesses: 0,
        exact_l1_misses_total: 0,
    })
}

/// The positions in `types` of the rows `score` puts above zero, highest first.  The
/// join is in name order and the sort stable, so name breaks ties, as in the views.
fn ranking(types: &[TypeDelta], score: impl Fn(&TypeDelta) -> u64) -> Vec<usize> {
    let mut ranked: Vec<usize> = (0..types.len()).filter(|&i| score(&types[i]) > 0).collect();
    ranked.sort_by_key(|&i| Reverse(score(&types[i])));
    ranked
}

/// The names of the first `k` of both rankings and the share of the exact ones among
/// the sampled ones (1 for none).  Both sides use the same `k`, clamped to the exact
/// ranking: a sampled side that kept the unclamped `k` would count a type ranked
/// anywhere in it as agreeing whenever `--top-k` exceeds the exact row count.
fn top_names(
    types: &[TypeDelta],
    exact: &[usize],
    sampled: &[usize],
    k: usize,
) -> (Vec<String>, Vec<String>, f64) {
    let k = k.min(exact.len());
    let (exact, sampled) = (&exact[..k], &sampled[..k.min(sampled.len())]);
    let agreed = exact.iter().filter(|i| sampled.contains(i)).count();
    let names = |ranked: &[usize]| {
        ranked
            .iter()
            .map(|&i| types[i].name().to_string())
            .collect()
    };
    let agreement = if k == 0 {
        1.0
    } else {
        agreed as f64 / k as f64
    };
    (names(exact), names(sampled), agreement)
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
        Format::Json => render_json(&report, options),
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

/// Writes the `dprof-accuracy/v1` JSON document.
pub fn render_json(report: &AccuracyReport, options: &AccuracyOptions) -> String {
    let run = &options.run;
    let top_k = |w: &mut JsonWriter, key: &str, exact: &[String], sampled: &[String], agreement| {
        w.key(key).open_obj();
        w.key("k").num(exact.len() as f64);
        w.key("agreement").num(agreement);
        for (key, names) in [("exact", exact), ("sampled", sampled)] {
            w.key(key).open_arr();
            for name in names {
                w.item().str(name);
            }
            w.close_arr();
        }
        w.close_obj();
    };
    let mut w = JsonWriter::default();
    w.open_obj();
    w.key("schema").str(SCHEMA);
    w.key("run").open_obj();
    w.key("workload").str(run.workload.name());
    w.key("threads").num(run.threads as f64);
    w.key("cores_per_machine").num(run.cores as f64);
    w.key("warmup_rounds").num(run.warmup_rounds as f64);
    w.key("sample_rounds").num(run.sample_rounds as f64);
    w.key("sampling").str(&run.sampling.to_string());
    w.key("base_seed").num(run.base_seed as f64);
    w.key("top_k").num(options.top_k as f64);
    w.close_obj();
    w.key("samples").open_obj();
    w.key("spent").num(report.samples_spent as f64);
    match report.budget_per_thread {
        Some(b) => w.key("budget_per_thread").num(b as f64),
        None => w.key("budget_per_thread").null(),
    };
    w.key("within_budget").bool(report.within_budget);
    w.key("exact_accesses").num(report.exact_accesses as f64);
    w.key("exact_l1_misses")
        .num(report.exact_l1_misses_total as f64);
    w.close_obj();
    top_k(
        &mut w,
        "top_k",
        &report.exact_top,
        &report.sampled_top,
        report.topk_agreement,
    );
    top_k(
        &mut w,
        "utilization_top_k",
        &report.utilization_exact_top,
        &report.utilization_sampled_top,
        report.utilization_topk_agreement,
    );
    w.key("share_error").open_obj();
    w.key("mean_abs_pct").num(report.mean_abs_error);
    w.key("max_abs_pct").num(report.max_abs_error);
    match &report.worst_type {
        Some(t) => w.key("worst_type").str(t),
        None => w.key("worst_type").null(),
    };
    w.close_obj();
    w.key("rows").open_arr();
    for r in &report.rows {
        w.item().open_obj();
        w.key("type").str(&r.name);
        w.key("exact_l1_misses").num(r.exact_l1_misses as f64);
        w.key("exact_share_pct").num(r.exact_share);
        w.key("sampled_l1_miss_samples")
            .num(r.sampled_misses as f64);
        w.key("sampled_share_pct").num(r.sampled_share);
        w.key("abs_error_pct").num(r.abs_error);
        w.key("exact_rank").num(r.exact_rank as f64);
        match r.sampled_rank {
            Some(i) => w.key("sampled_rank").num(i as f64),
            None => w.key("sampled_rank").null(),
        };
        w.close_obj();
    }
    w.close_arr().close_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{RunOptions, WorkloadKind};
    use dprof::core::report::diff::TypeSummary;
    use dprof::core::schema::Json;

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
        let doc = Json::parse(&render_json(&report, &options)).unwrap();
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
        // The census as the sampled side is no subsample of the sampled run: of the
        // types the sampler never saw miss, the one the census saw miss most is named,
        // the first by name among equals.
        let swapped = compare(&census, &sampled, options.top_k, None).unwrap_err();
        assert!(swapped.contains("none in the census"), "{swapped}");
        let misses = |runs: &[ThreadRun]| -> Vec<(String, u64)> {
            (merge(runs).data_profile.iter())
                .map(|row| (row.name.to_string(), row.l1_miss_samples))
                .collect()
        };
        let seen = misses(&sampled);
        let (name, count) = (misses(&census).into_iter())
            .filter(|(name, count)| *count > 0 && !seen.iter().any(|(n, c)| n == name && *c > 0))
            .min_by(|x, y| y.1.cmp(&x.1).then_with(|| x.0.cmp(&y.0)))
            .expect("a type the sampler never saw miss");
        let named = format!("type '{name}' has {count} sampled L1 misses and none in the census");
        assert!(swapped.starts_with(&named), "{swapped}");
    }

    /// A summary table of `(name, l1_miss_samples, wasted_bytes)` rows.
    fn summary(rows: &[(&str, u64, u64)]) -> ReportSummary {
        let rows = rows
            .iter()
            .map(|&(name, l1_miss_samples, wasted_bytes)| TypeSummary {
                name: name.into(),
                l1_miss_samples,
                wasted_bytes,
                ..TypeSummary::default()
            });
        ReportSummary::new(rows.collect(), 0.0)
    }

    #[test]
    fn rankings_clamp_k_to_the_census_and_leave_zero_counts_out() {
        // `idle` has a row on both sides and nothing to rank it by.  Only `hot` wastes
        // bytes in the census; the sampled run ranks `far` above it.
        let census = summary(&[
            ("hot", 90, 4096),
            ("warm", 10, 0),
            ("idle", 0, 0),
            ("far", 5, 0),
        ]);
        let sample = summary(&[
            ("hot", 0, 64),
            ("warm", 3, 0),
            ("idle", 0, 0),
            ("far", 1, 512),
        ]);
        let report = compare_summaries(&census, &sample, 10).unwrap();
        let names = |rows: &[AccuracyRow]| rows.iter().map(|r| r.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&report.rows), ["hot", "warm", "far"]);
        let ranks: Vec<_> = (report.rows.iter())
            .map(|r| (r.exact_rank, r.sampled_rank))
            .collect();
        assert_eq!(ranks, [(0, None), (1, Some(0)), (2, Some(1))]);
        assert_eq!(report.rows[0].exact_share, 100.0 * 90.0 / 105.0);
        assert_eq!(report.rows[1].sampled_share, 75.0);
        assert_eq!((report.top_k, report.exact_top.len()), (3, 3));
        assert_eq!(report.sampled_top, ["warm", "far"]);
        assert_eq!(report.topk_agreement, 2.0 / 3.0);
        // `--top-k 10` is clamped to the census's one wasting type on both sides: `far`,
        // second in the sampled ranking, does not count as agreeing.
        assert_eq!(report.utilization_exact_top, ["hot"]);
        assert_eq!(report.utilization_sampled_top, ["far"]);
        assert_eq!(report.utilization_topk_agreement, 0.0);
        assert_eq!(report.worst_type.as_deref(), Some("hot"));

        // Three types the census never saw miss tie on the highest sampled count (one
        // with a census row, two without): the first by name is named.
        let offenders = summary(&[
            ("hot", 1, 0),
            ("b_new", 7, 0),
            ("idle", 7, 0),
            ("a_new", 7, 0),
            ("c_new", 3, 0),
        ]);
        let err = compare_summaries(&census, &offenders, 3).unwrap_err();
        assert!(
            err.starts_with("type 'a_new' has 7 sampled L1 misses"),
            "{err}"
        );
    }
}
