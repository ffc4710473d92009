//! Report rendering: thesis-style text tables and the `dprof-report/v1` JSON document,
//! both driven by the same [`MergedReport`].

use crate::args::{Format, Options, View};
use crate::merge::MergedReport;
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

use dprof::core::report::format_bytes;

/// Renders the thesis-style text report.
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

    for view in &options.views {
        match view {
            View::DataProfile => text_data_profile(&mut out, report, options.top),
            View::MissClassification => text_miss_classification(&mut out, report, options.top),
            View::WorkingSet => text_working_set(&mut out, report, options.top),
            View::Utilization => text_utilization(&mut out, report, options.top),
            View::DataFlow => text_data_flow(&mut out, report, options.top),
        }
    }
    out
}

fn text_data_profile(out: &mut String, report: &MergedReport, top: usize) {
    writeln!(out, "\n=== Data profile ===").unwrap();
    writeln!(
        out,
        "{:<16} {:>12} {:>14} {:>17} {:>14} {:>8} {:>8} {:>7}",
        "Type name",
        "WS size",
        "% L1 misses",
        "95% CI",
        "% miss cycles",
        "Bounce",
        "Threads",
        "Rank"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(104)).unwrap();
    for row in report.data_profile.iter().take(top) {
        writeln!(
            out,
            "{:<16} {:>12} {:>13.2}% {:>17} {:>13.2}% {:>8} {:>8} {:>7}",
            row.name,
            format_bytes(row.working_set_bytes),
            row.pct_of_l1_misses,
            format!("[{:.2}, {:.2}]", row.ci95_low, row.ci95_high),
            row.pct_of_miss_cycles,
            if row.bounce { "yes" } else { "no" },
            row.threads_seen,
            if row.rank_stable { "firm" } else { "~" }
        )
        .unwrap();
    }
}

fn text_miss_classification(out: &mut String, report: &MergedReport, top: usize) {
    writeln!(out, "\n=== Miss classification ===").unwrap();
    writeln!(
        out,
        "{:<16} {:>10} {:>14} {:>10} {:>10}  Dominant",
        "Type name", "Misses", "Invalidation", "Conflict", "Capacity"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(78)).unwrap();
    for row in report.miss_classification.iter().take(top) {
        writeln!(
            out,
            "{:<16} {:>10} {:>13.1}% {:>9.1}% {:>9.1}%  {}",
            row.name,
            row.miss_samples,
            100.0 * row.invalidation,
            100.0 * row.conflict,
            100.0 * row.capacity,
            row.dominant()
        )
        .unwrap();
    }
}

fn text_working_set(out: &mut String, report: &MergedReport, top: usize) {
    let ws = &report.working_set;
    writeln!(out, "\n=== Working set ===").unwrap();
    writeln!(
        out,
        "{:<16} {:>14} {:>14} {:>14}",
        "Type name", "Avg bytes", "Avg objects", "Peak bytes"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(62)).unwrap();
    for row in ws.rows.iter().take(top) {
        writeln!(
            out,
            "{:<16} {:>14} {:>14.1} {:>14}",
            row.name,
            format_bytes(row.avg_live_bytes),
            row.avg_live_objects,
            format_bytes(row.peak_live_bytes as f64)
        )
        .unwrap();
    }
    writeln!(out, "{}", "-".repeat(62)).unwrap();
    writeln!(
        out,
        "avg working set {} vs cache capacity {}; {} of {} thread(s) over capacity; \
         up to {} over-subscribed sets",
        format_bytes(ws.total_avg_bytes),
        format_bytes(ws.cache_capacity as f64),
        ws.threads_exceeding_capacity,
        report.threads.len(),
        ws.conflict_sets
    )
    .unwrap();
}

fn text_utilization(out: &mut String, report: &MergedReport, top: usize) {
    let util = &report.utilization;
    writeln!(out, "\n=== Line utilization ===").unwrap();
    writeln!(
        out,
        "{:<16} {:>8} {:>15} {:>12} {:>12} {:>9} {:>7}  Origin",
        "Type name", "Util%", "95% CI", "Wasted", "Wasted/s", "Re-fetch", "Rank"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(100)).unwrap();
    for row in util.rows.iter().take(top) {
        let origin = row
            .origins
            .first()
            .map(|o| o.origin.as_str())
            .unwrap_or("-");
        writeln!(
            out,
            "{:<16} {:>7.1}% [{:>5.1}, {:>5.1}] {:>12} {:>10}/s {:>8.1}% {:>7}  {}",
            row.name,
            row.utilization_pct(),
            row.ci95_low,
            row.ci95_high,
            format_bytes(row.wasted_bytes() as f64),
            format_bytes(row.wasted_bytes_per_sec),
            100.0 * row.refetch_ratio(),
            if row.rank_stable { "firm" } else { "~" },
            origin
        )
        .unwrap();
    }
    writeln!(out, "{}", "-".repeat(100)).unwrap();
    writeln!(
        out,
        "{} line fills tallied, {} re-fetches of evicted lines",
        util.total_fetches, util.total_refetches
    )
    .unwrap();
}

fn text_data_flow(out: &mut String, report: &MergedReport, top: usize) {
    writeln!(out, "\n=== Data flow (core crossings) ===").unwrap();
    if report.data_flows.is_empty() {
        writeln!(out, "no object access histories collected").unwrap();
        return;
    }
    for flow in &report.data_flows {
        let core_crossings = flow.core_crossings();
        if core_crossings == 0 {
            writeln!(out, "{}: no core transitions observed", flow.type_name).unwrap();
            continue;
        }
        writeln!(
            out,
            "{}: {} core-crossing traversal(s)",
            flow.type_name, core_crossings
        )
        .unwrap();
        for edge in flow.edges.iter().filter(|e| e.cpu_change).take(top.min(3)) {
            writeln!(
                out,
                "  {} -> {} crosses cores (x{})",
                edge.from, edge.to, edge.count
            )
            .unwrap();
        }
    }
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
                        ("type", Json::str(&row.name)),
                        ("description", Json::str(&row.description)),
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
                        ("type", Json::str(&row.name)),
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
                            ("type", Json::str(&row.name)),
                            ("description", Json::str(&row.description)),
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
                            ("type", Json::str(&row.name)),
                            ("description", Json::str(&row.description)),
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
                                                ("origin", Json::str(&o.origin)),
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

fn data_flow_section(report: &MergedReport, top: usize) -> Json {
    Json::obj(vec![(
        "types",
        Json::Arr(
            report
                .data_flows
                .iter()
                .map(|flow| {
                    Json::obj(vec![
                        ("type", Json::str(&flow.type_name)),
                        ("core_crossings", Json::num(flow.core_crossings() as f64)),
                        (
                            "nodes",
                            Json::Arr(
                                flow.nodes
                                    .iter()
                                    .take(top)
                                    .map(|n| {
                                        Json::obj(vec![
                                            ("function", Json::str(&n.function)),
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
                                    .take(top)
                                    .map(|e| {
                                        Json::obj(vec![
                                            ("from", Json::str(&e.from)),
                                            ("to", Json::str(&e.to)),
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
            rows.map(|m| (m.name.clone(), m.miss_samples)).collect()
        };
        assert_eq!(misses(&again), misses(&report));
        // No float is recombined on this path: counts pool, rates add to themselves.
        assert_eq!(again.utilization, report.utilization);
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
