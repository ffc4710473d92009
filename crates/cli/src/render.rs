//! Report rendering: thesis-style text tables and the `dprof-report/v1` JSON document,
//! both driven by the same [`MergedReport`].  The tables are the library's
//! ([`dprof::core::report::render_views`]), the one renderer of the views; this module
//! adds their two header lines and builds the JSON document.

use crate::args::{Format, Options, View};
use crate::merge::MergedReport;
use dprof::core::report::render_views;
use dprof::core::schema::Json;
use std::fmt::Write as _;

/// JSON schema identifier emitted in every report.
pub const SCHEMA: &str = dprof::core::schema::REPORT_V1;

/// Renders the report in the requested format.
pub fn render(report: &MergedReport, options: &Options) -> String {
    match options.format {
        Format::Text => render_text(report, options),
        Format::Json => render_json(report, options).to_pretty_string(),
    }
}

/// Renders the thesis-style text report: two header lines, then the view tables.
pub fn render_text(report: &MergedReport, options: &Options) -> String {
    let mut out = String::new();
    let workload = options.run.workload.name();
    writeln!(
        out,
        "dprof report — workload {workload}, {} thread(s) x {} core(s)",
        options.run.threads, options.run.cores
    )
    .unwrap();
    writeln!(
        out,
        "{} requests profiled, {:.0} req/s simulated, {:.2}% profiling overhead",
        report.totals.requests,
        report.totals.rps,
        100.0 * report.totals.profiling_fraction
    )
    .unwrap();
    out.push_str(&render_views(report, &options.views, options.top));
    out
}

/// Builds the `dprof-report/v1` JSON document.
pub fn render_json(report: &MergedReport, options: &Options) -> Json {
    let mut root = vec![
        ("schema".to_string(), Json::str(SCHEMA)),
        ("run".to_string(), run_section(options)),
        ("throughput".to_string(), throughput_section(report)),
    ];
    for view in &options.views {
        let section = match view {
            View::DataProfile => data_profile_section(report, options.top),
            View::MissClassification => miss_classification_section(report, options.top),
            View::WorkingSet => working_set_section(report, options.top),
            View::Utilization => utilization_section(report, options.top),
            View::DataFlow => data_flow_section(report, options.top),
        };
        root.push((view.key().replace('-', "_"), section));
    }
    Json::Obj(root)
}

fn run_section(options: &Options) -> Json {
    let run = &options.run;
    Json::obj(vec![
        ("workload", Json::str(run.workload.name())),
        ("threads", Json::num(run.threads as u32)),
        ("cores_per_machine", Json::num(run.cores as u32)),
        ("warmup_rounds", Json::num(run.warmup_rounds as u32)),
        ("sample_rounds", Json::num(run.sample_rounds as u32)),
        ("sampling", Json::str(run.sampling.to_string())),
        ("history_types", Json::num(run.history_types as u32)),
        ("history_sets", Json::num(run.history_sets as u32)),
        ("base_seed", Json::num(run.base_seed as f64)),
        (
            "views",
            Json::Arr(options.views.iter().map(|v| Json::str(v.key())).collect()),
        ),
    ])
}

fn throughput_section(report: &MergedReport) -> Json {
    Json::obj(vec![
        ("total_requests", Json::num(report.totals.requests as f64)),
        ("aggregate_rps", Json::num(report.totals.rps)),
        (
            "profiling_fraction",
            Json::num(report.totals.profiling_fraction),
        ),
        (
            "per_thread",
            Json::Arr(
                report
                    .threads
                    .iter()
                    .map(|t| {
                        Json::obj(vec![
                            ("thread", Json::num(t.thread as u32)),
                            ("seed", Json::num(t.seed as f64)),
                            ("requests", Json::num(t.requests as f64)),
                            ("rps", Json::num(t.rps)),
                            ("profiling_fraction", Json::num(t.profiling_fraction)),
                            ("samples", Json::num(t.samples as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn data_profile_section(report: &MergedReport, top: usize) -> Json {
    Json::obj(vec![(
        "rows",
        Json::Arr(
            report
                .data_profile
                .iter()
                .take(top)
                .map(|row| {
                    Json::obj(vec![
                        ("type", Json::str(&*row.name)),
                        ("description", Json::str(&*row.description)),
                        ("working_set_bytes", Json::num(row.working_set_bytes)),
                        ("pct_of_l1_misses", Json::num(row.pct_of_l1_misses)),
                        ("ci95_low", Json::num(row.ci95_low)),
                        ("ci95_high", Json::num(row.ci95_high)),
                        ("rank_stable", Json::Bool(row.rank_stable)),
                        ("pct_of_miss_cycles", Json::num(row.pct_of_miss_cycles)),
                        ("bounce", Json::Bool(row.bounce)),
                        ("samples", Json::num(row.samples as f64)),
                        ("l1_miss_samples", Json::num(row.l1_miss_samples as f64)),
                        ("threads_seen", Json::num(row.threads_seen as u32)),
                    ])
                })
                .collect(),
        ),
    )])
}

fn miss_classification_section(report: &MergedReport, top: usize) -> Json {
    Json::obj(vec![(
        "rows",
        Json::Arr(
            report
                .miss_classification
                .iter()
                .take(top)
                .map(|row| {
                    Json::obj(vec![
                        ("type", Json::str(&*row.name)),
                        ("miss_samples", Json::num(row.miss_samples as f64)),
                        (
                            "fractions",
                            Json::obj(vec![
                                ("invalidation", Json::num(row.invalidation)),
                                ("conflict", Json::num(row.conflict)),
                                ("capacity", Json::num(row.capacity)),
                            ]),
                        ),
                        ("dominant", Json::str(row.dominant())),
                    ])
                })
                .collect(),
        ),
    )])
}

fn working_set_section(report: &MergedReport, top: usize) -> Json {
    let ws = &report.working_set;
    Json::obj(vec![
        ("cache_capacity_bytes", Json::num(ws.cache_capacity as f64)),
        ("cache_ways", Json::num(ws.cache_ways as u32)),
        ("total_avg_bytes", Json::num(ws.total_avg_bytes)),
        (
            "threads_exceeding_capacity",
            Json::num(ws.threads_exceeding_capacity as u32),
        ),
        ("max_conflict_sets", Json::num(ws.conflict_sets as u32)),
        (
            "rows",
            Json::Arr(
                ws.rows
                    .iter()
                    .take(top)
                    .map(|row| {
                        Json::obj(vec![
                            ("type", Json::str(&*row.name)),
                            ("description", Json::str(&*row.description)),
                            ("avg_live_bytes", Json::num(row.avg_live_bytes)),
                            ("avg_live_objects", Json::num(row.avg_live_objects)),
                            ("peak_live_bytes", Json::num(row.peak_live_bytes as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn utilization_section(report: &MergedReport, top: usize) -> Json {
    let util = &report.utilization;
    Json::obj(vec![
        ("total_fetches", Json::num(util.total_fetches as f64)),
        ("total_refetches", Json::num(util.total_refetches as f64)),
        (
            "resolved_slots_fetched",
            Json::num(util.resolved_slots_fetched as f64),
        ),
        (
            "resolved_slots_touched",
            Json::num(util.resolved_slots_touched as f64),
        ),
        (
            "rows",
            Json::Arr(
                util.rows
                    .iter()
                    .take(top)
                    .map(|row| {
                        Json::obj(vec![
                            ("type", Json::str(&*row.name)),
                            ("description", Json::str(&*row.description)),
                            ("slots_fetched", Json::num(row.slots_fetched as f64)),
                            ("slots_touched", Json::num(row.slots_touched as f64)),
                            ("refetch_slots", Json::num(row.refetch_slots as f64)),
                            ("utilization_pct", Json::num(row.utilization_pct())),
                            ("ci95_low", Json::num(row.ci95_low)),
                            ("ci95_high", Json::num(row.ci95_high)),
                            ("rank_stable", Json::Bool(row.rank_stable)),
                            ("wasted_bytes", Json::num(row.wasted_bytes() as f64)),
                            ("wasted_bytes_per_sec", Json::num(row.wasted_bytes_per_sec)),
                            ("refetch_ratio", Json::num(row.refetch_ratio())),
                            (
                                "origins",
                                Json::Arr(
                                    row.origins
                                        .iter()
                                        .map(|o| {
                                            Json::obj(vec![
                                                ("origin", Json::str(&*o.origin)),
                                                (
                                                    "slots_fetched",
                                                    Json::num(o.slots_fetched as f64),
                                                ),
                                                (
                                                    "slots_touched",
                                                    Json::num(o.slots_touched as f64),
                                                ),
                                                (
                                                    "wasted_bytes",
                                                    Json::num(o.wasted_bytes() as f64),
                                                ),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Nodes keep `--top`; every edge is written, so a reader of the document re-derives
/// the `core_crossings` written beside them.
fn data_flow_section(report: &MergedReport, top: usize) -> Json {
    Json::obj(vec![(
        "types",
        Json::Arr(
            report
                .data_flows
                .iter()
                .map(|flow| {
                    Json::obj(vec![
                        ("type", Json::str(&*flow.type_name)),
                        ("core_crossings", Json::num(flow.core_crossings() as f64)),
                        (
                            "nodes",
                            Json::Arr(
                                flow.nodes
                                    .iter()
                                    .take(top)
                                    .map(|n| {
                                        Json::obj(vec![
                                            ("function", Json::str(&*n.function)),
                                            ("samples", Json::num(n.samples as f64)),
                                            ("weight", Json::num(n.weight as f64)),
                                            ("avg_latency", Json::num(n.avg_latency)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                        (
                            "edges",
                            Json::Arr(
                                flow.edges
                                    .iter()
                                    .map(|e| {
                                        Json::obj(vec![
                                            ("from", Json::str(&*e.from)),
                                            ("to", Json::str(&*e.to)),
                                            ("count", Json::num(e.count as f64)),
                                            ("cpu_change", Json::Bool(e.cpu_change)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        ),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{Format, Options, View};
    use crate::driver::{run_parallel, RunOptions, WorkloadKind};
    use crate::merge::merge;

    fn small_options() -> Options {
        Options {
            run: RunOptions {
                workload: WorkloadKind::Memcached,
                threads: 2,
                cores: 2,
                warmup_rounds: 5,
                sample_rounds: 40,
                history_types: 2,
                history_sets: 2,
                ..Default::default()
            },
            views: View::ALL.to_vec(),
            format: Format::Json,
            top: 8,
            output: None,
            trace_out: None,
        }
    }

    #[test]
    fn json_report_has_all_sections_and_parses() {
        let options = small_options();
        let runs = run_parallel(&options.run).unwrap();
        let report = merge(&runs);
        let text = render(&report, &options);
        let doc = Json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        for section in [
            "run",
            "throughput",
            "data_profile",
            "miss_classification",
            "working_set",
            "utilization",
            "data_flow",
        ] {
            assert!(doc.get(section).is_some(), "missing section {section}");
        }
        let rows = doc
            .get("data_profile")
            .unwrap()
            .get("rows")
            .unwrap()
            .as_array()
            .unwrap();
        assert!(!rows.is_empty());
        assert!(rows
            .iter()
            .any(|r| r.get("type").and_then(Json::as_str) == Some("skbuff")));
    }

    #[test]
    fn a_rendered_report_reads_back_as_a_shard_with_the_same_counts() {
        use crate::merge::{merge_shards, ProfileShard};
        let mut options = small_options();
        options.run.threads = 1;
        options.top = 64;
        let report = merge(&run_parallel(&options.run).unwrap());
        let shard: ProfileShard =
            dprof::core::schema::shard_from_report_json(&render_json(&report, &options), 0)
                .unwrap();
        let again = merge_shards(&[&shard]);

        assert!(!report.data_profile.is_empty() && !report.utilization.rows.is_empty());
        assert_eq!(again.pooled_weight, report.pooled_weight);
        assert_eq!(again.totals.requests, report.totals.requests);
        assert_eq!(again.data_profile.len(), report.data_profile.len());
        for (a, b) in again.data_profile.iter().zip(&report.data_profile) {
            assert_eq!(
                (
                    &a.name,
                    a.samples,
                    a.l1_miss_samples,
                    a.bounce,
                    a.threads_seen
                ),
                (
                    &b.name,
                    b.samples,
                    b.l1_miss_samples,
                    b.bounce,
                    b.threads_seen
                )
            );
        }
        let misses = |r: &MergedReport| -> Vec<(String, u64)> {
            let rows = r.miss_classification.iter();
            rows.map(|m| (m.name.to_string(), m.miss_samples)).collect()
        };
        assert_eq!(misses(&again), misses(&report));
        // No float is recombined on this path: counts pool, rates add to themselves.
        assert_eq!(again.utilization, report.utilization);
    }

    /// What `dprof diff` reads back from a rendered report is the summary of the
    /// report it was rendered from, cut to the rows the document carries: `--top` rows
    /// per table, every flow with every edge (so a crossing edge past `--top` counts).
    #[test]
    fn a_report_read_back_summarizes_as_the_report_it_was_rendered_from() {
        use crate::merge::{merge_shards, summary_from_merged};
        use dprof::core::{diff, schema::shard_from_report_json};
        let mut crossing_past_top = false;
        for (workload, threads) in [
            ("memcached", 1),
            ("memcached", 3),
            ("sparse-struct-waste:buggy", 3),
        ] {
            let mut options = small_options();
            options.run.workload = crate::driver::parse_workload_spec(workload).unwrap();
            options.run.threads = threads;
            let report = merge(&run_parallel(&options.run).unwrap());
            let in_memory = summary_from_merged(&report);
            let widest = [
                report.data_profile.len(),
                report.miss_classification.len(),
                report.utilization.rows.len(),
                report.working_set.rows.len(),
            ];
            crossing_past_top |= report
                .data_flows
                .iter()
                .any(|f| f.edges.iter().skip(1).any(|e| e.cpu_change));
            for top in [1, 8, 64] {
                options.top = top;
                let shard = shard_from_report_json(&render_json(&report, &options), 0).unwrap();
                let read_back = summary_from_merged(&merge_shards(&[&shard]));
                let case = format!("{workload} x{threads} --top {top}");
                let covers_every_type = widest.iter().all(|&rows| rows <= top);
                assert!(covers_every_type || top < 64, "{case}: {widest:?} rows");
                if covers_every_type {
                    assert_eq!(read_back, in_memory, "{case}");
                    assert!(diff(&read_back, &in_memory, None).is_neutral(), "{case}");
                } else {
                    let mut carried = report.clone();
                    carried.data_profile.truncate(top);
                    carried.miss_classification.truncate(top);
                    carried.utilization.rows.truncate(top);
                    carried.working_set.rows.truncate(top);
                    assert_eq!(read_back, summary_from_merged(&carried), "{case}");
                }
            }
        }
        assert!(crossing_past_top, "no crossing edge sorts past --top 1");
    }

    #[test]
    fn a_folded_shard_counts_its_threads_in_the_working_set_summary() {
        use crate::merge::merge_shards;
        use dprof::core::merge::fold;
        let runs = run_parallel(&small_options().run).unwrap();
        let shards: Vec<_> = runs.iter().map(|r| r.shard(r.thread as u64)).collect();
        let report = merge_shards(&[&fold(&shards.iter().collect::<Vec<_>>())]);
        assert_eq!(report.threads.len(), 1);
        let text = render_views(&report, &[View::WorkingSet], 8);
        assert!(text.contains(" of 2 thread(s) over capacity"), "{text}");
    }

    #[test]
    fn view_filtering_limits_sections() {
        let mut options = small_options();
        options.views = vec![View::WorkingSet];
        let runs = run_parallel(&options.run).unwrap();
        let report = merge(&runs);
        let doc = Json::parse(&render(&report, &options)).unwrap();
        assert!(doc.get("working_set").is_some());
        assert!(doc.get("data_profile").is_none());
        assert!(doc.get("data_flow").is_none());
    }

    #[test]
    fn text_report_renders_requested_views() {
        let mut options = small_options();
        options.format = Format::Text;
        options.views = vec![View::DataProfile, View::DataFlow];
        let runs = run_parallel(&options.run).unwrap();
        let report = merge(&runs);
        let text = render(&report, &options);
        assert!(text.contains("=== Data profile ==="));
        assert!(text.contains("=== Data flow"));
        assert!(!text.contains("=== Working set ==="));
        assert!(text.contains("dprof report — workload memcached"));
    }
}
