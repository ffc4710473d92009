//! Report rendering: thesis-style text tables and the `dprof-report/v1` JSON document,
//! both driven by the same [`MergedReport`].  Both are the library's: the tables
//! ([`dprof::core::report::render_views`], the one renderer of the views) under two
//! header lines this module adds, and the document ([`schema::write_report`], the one
//! writer of a report) with the `run` section this module writes from the options.

use crate::args::{Format, Options};
use crate::merge::MergedReport;
use dprof::core::report::render_views;
use dprof::core::schema::{self, JsonWriter};
use std::fmt::Write as _;

/// JSON schema identifier emitted in every report.
pub const SCHEMA: &str = schema::REPORT_V1;

/// Renders the report in the requested format.
pub fn render(report: &MergedReport, options: &Options) -> String {
    match options.format {
        Format::Text => render_text(report, options),
        Format::Json => {
            let mut w = JsonWriter::with_capacity(16 * 1024);
            schema::write_report(&mut w, report, &options.views, options.top, |w| {
                run_section(w, options)
            });
            w.finish()
        }
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

/// The run that produced the report, as its options say.
fn run_section(w: &mut JsonWriter, options: &Options) {
    let run = &options.run;
    w.open_obj();
    w.key("workload").str(run.workload.name());
    w.key("threads").num(run.threads as f64);
    w.key("cores_per_machine").num(run.cores as f64);
    w.key("warmup_rounds").num(run.warmup_rounds as f64);
    w.key("sample_rounds").num(run.sample_rounds as f64);
    w.key("sampling").str(&run.sampling.to_string());
    w.key("history_types").num(run.history_types as f64);
    w.key("history_sets").num(run.history_sets as f64);
    w.key("base_seed").num(run.base_seed as f64);
    w.key("views").open_arr();
    for view in &options.views {
        w.item().str(view.key());
    }
    w.close_arr().close_obj();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{Format, Options, View};
    use crate::driver::{run_parallel, RunOptions, WorkloadKind};
    use crate::merge::{merge, ProfileShard};
    use dprof::core::schema::{shard_from_report_json, Json, JsonTape};

    /// The report rendered as a document and read back as one shard.
    fn read_back(report: &MergedReport, options: &Options) -> ProfileShard {
        let text = render(report, options);
        shard_from_report_json(&JsonTape::parse(&text).unwrap(), 0).unwrap()
    }

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
        use crate::merge::merge_shards;
        let mut options = small_options();
        options.run.threads = 1;
        options.top = 64;
        let report = merge(&run_parallel(&options.run).unwrap());
        let again = merge_shards(&[&read_back(&report, &options)]);

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
        use dprof::core::diff;
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
                let shard = read_back(&report, &options);
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

    /// A report of several threads reads back as one shard that still counts them: its
    /// working-set rows were once written without `threads_seen` and read back as one
    /// thread each, so a fold weighed a two-thread report's means as one thread's.
    #[test]
    fn reports_of_several_threads_fold_as_their_threads_do() {
        use dprof::core::merge::fold;
        let mut options = small_options();
        options.top = usize::MAX;
        let two = run_parallel(&options.run).unwrap();
        options.run.threads = 1;
        options.run.base_seed += 1;
        let one = run_parallel(&options.run).unwrap();
        let reports = [merge(&two), merge(&one)];
        options.run.threads = 2;
        let two_read = read_back(&reports[0], &options);
        options.run.threads = 1;
        let from_reports = fold(&[&two_read, &read_back(&reports[1], &options)]);
        let runs = [&two[0], &two[1], &one[0]];
        let shards: Vec<ProfileShard> = (0..).zip(runs).map(|(i, r)| r.shard(i)).collect();
        let direct = fold(&shards.iter().collect::<Vec<_>>());

        // Rows are matched by name: means that agree only to rounding may sort apart.
        let (a, b) = (&from_reports.working_set, &direct.working_set);
        assert_eq!(a.thread_count, 3);
        assert_eq!(a.thread_count, b.thread_count);
        assert_eq!(a.rows.len(), b.rows.len());
        assert!(a.rows.iter().any(|row| row.threads_seen == 3));
        for row in &a.rows {
            let twin = b.rows.iter().find(|r| r.name == row.name).unwrap();
            assert_eq!(row.threads_seen, twin.threads_seen, "{}", row.name);
            let (x, y) = (row.avg_live_bytes, twin.avg_live_bytes);
            assert!((x - y).abs() <= 1e-9 * y, "{}: {x} vs {y}", row.name);
        }
        let (a, b) = (&from_reports.data_profile, &direct.data_profile);
        assert_eq!(a.len(), b.len());
        for row in a {
            let twin = b.iter().find(|r| r.name == row.name).unwrap();
            assert_eq!(row.threads_seen, twin.threads_seen, "{}", row.name);
        }
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
