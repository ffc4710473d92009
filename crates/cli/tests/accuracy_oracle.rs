//! The accuracy oracle: for every planted-bottleneck scenario, an adaptive-sampled
//! profile must agree with the `fixed:1` census of its own recording — the planted
//! type tops both rankings, the top-3 sets mostly coincide, the sample budget is
//! respected, and the sampled side is a subsample of the census.  This is the
//! in-process twin of the CI `scenario-oracle` job's `dprof accuracy` loop, so the
//! gate also holds on a plain `cargo test --workspace`.

use dprof::core::schema::{write_whole_report, Json, JsonWriter};
use dprof::machine::SamplingPolicy;
use dprof::workloads::scenarios::{self, ExpectedView};
use dprof_cli::accuracy::{compare, render_json, render_text, sampled_and_census};
use dprof_cli::args::{AccuracyOptions, Format};
use dprof_cli::diff::load_summary;
use dprof_cli::driver::{RunOptions, ThreadRun, WorkloadKind};
use dprof_cli::merge::{merge, summary_from_merged};
use std::collections::HashMap;
use std::path::PathBuf;

const BUDGET: u64 = 2_500;
const TOP_K: usize = 3;

fn accuracy_run(index: usize) -> RunOptions {
    RunOptions {
        workload: WorkloadKind::Scenario {
            index,
            variant: scenarios::Variant::Buggy,
        },
        threads: 1,
        cores: 2,
        warmup_rounds: 6,
        sample_rounds: 80,
        sampling: SamplingPolicy::Adaptive { budget: BUDGET },
        history_types: 0,
        ..Default::default()
    }
}

/// `(fetched, touched)` utilization slots per type name of the runs' merged report.
fn utilization_slots(runs: &[ThreadRun]) -> HashMap<String, (u64, u64)> {
    (merge(runs).utilization.rows.iter())
        .map(|row| (row.name.to_string(), (row.slots_fetched, row.slots_touched)))
        .collect()
}

#[test]
fn adaptive_sampling_agrees_with_the_census_on_every_planted_scenario() {
    for (index, spec) in scenarios::registry().iter().enumerate() {
        let planted = spec.planted.type_name;
        let (sampled, census) = sampled_and_census(&accuracy_run(index)).expect("accuracy run");
        let report = compare(&sampled, &census, TOP_K, Some(BUDGET))
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));

        // The sampled side is a subsample of the census: every operation it sampled
        // is one the census counted, and so is every residency it followed.
        assert!(
            report.samples_spent <= report.exact_accesses,
            "{}: {} samples spent over a census of {} operations",
            spec.name,
            report.samples_spent,
            report.exact_accesses
        );
        for row in &report.rows {
            assert!(
                row.sampled_misses <= row.exact_l1_misses,
                "{}: {} has {} sampled L1 misses, the census {}",
                spec.name,
                row.name,
                row.sampled_misses,
                row.exact_l1_misses
            );
        }
        let census_slots = utilization_slots(&census);
        for (name, (fetched, touched)) in utilization_slots(&sampled) {
            let (census_fetched, census_touched) =
                census_slots.get(&name).copied().unwrap_or_default();
            assert!(
                fetched <= census_fetched && touched <= census_touched,
                "{}: {name} has sampled slots {fetched} fetched / {touched} touched, the \
                 census {census_fetched} / {census_touched}",
                spec.name
            );
        }

        assert!(
            report.within_budget && report.samples_spent <= BUDGET,
            "{}: spent {} of {BUDGET} budgeted samples",
            spec.name,
            report.samples_spent
        );
        assert!(
            report.samples_spent > 0,
            "{}: adaptive run took no samples",
            spec.name
        );
        if spec.planted.expected_view == ExpectedView::Utilization {
            // Layout-waste scenarios plant bottlenecks the miss-share rankings are
            // deliberately blind to; fidelity is judged on the wasted-bytes ranking.
            assert_eq!(
                report.utilization_exact_top.first().map(String::as_str),
                Some(planted),
                "{}: the census must rank the planted type first by wasted bytes \
                 (got {:?})",
                spec.name,
                report.utilization_exact_top
            );
            assert_eq!(
                report.utilization_sampled_top.first().map(String::as_str),
                Some(planted),
                "{}: the sampled utilization view must rank the planted type first \
                 (got {:?})",
                spec.name,
                report.utilization_sampled_top
            );
            // Below the planted row the wasted-bytes ranking holds background kernel
            // types whose sampled waste is a handful of granules — too noisy for a
            // set-agreement gate at this budget.  First place carrying the planted
            // type on both sides (asserted above) plus a non-degenerate agreement is
            // the meaningful fidelity bar here.
            assert!(
                report.utilization_topk_agreement > 0.0,
                "{}: utilization top-{TOP_K} rank agreement degenerate \
                 (exact {:?}, sampled {:?})",
                spec.name,
                report.utilization_exact_top,
                report.utilization_sampled_top
            );
        } else {
            assert_eq!(
                report.exact_top.first().map(String::as_str),
                Some(planted),
                "{}: the census must rank the planted type first (got {:?})",
                spec.name,
                report.exact_top
            );
            assert_eq!(
                report.sampled_top.first().map(String::as_str),
                Some(planted),
                "{}: the sampled profile must rank the planted type first (got {:?})",
                spec.name,
                report.sampled_top
            );
            assert!(
                report.topk_agreement >= 2.0 / 3.0 - 1e-9,
                "{}: top-{TOP_K} rank agreement {:.2} below 2/3 (exact {:?}, sampled {:?})",
                spec.name,
                report.topk_agreement,
                report.exact_top,
                report.sampled_top
            );
        }
        // The planted type's share estimate must be in the right ballpark: the
        // sampled share may wobble, but a >15-percentage-point error on the
        // dominant type would mean the sampler misweights the very thing it exists
        // to rank.
        let row = report
            .rows
            .iter()
            .find(|r| r.name == planted)
            .expect("planted type row");
        assert!(
            row.abs_error < 15.0,
            "{}: planted-type share error {:.2} pp (exact {:.2}%, sampled {:.2}%)",
            spec.name,
            row.abs_error,
            row.exact_share,
            row.sampled_share
        );
    }
}

#[test]
fn accuracy_cli_emits_schema_v1_json() {
    // One scenario through the real CLI surface, end to end.
    let out = std::env::temp_dir().join(format!("dprof-accuracy-{}.json", std::process::id()));
    let args: Vec<String> = [
        "accuracy",
        "-w",
        "remote-hot-lock:buggy",
        "--cores",
        "2",
        "--warmup",
        "6",
        "--rounds",
        "80",
        "--sampling",
        "adaptive:2500",
        "-f",
        "json",
        "-o",
        out.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert_eq!(dprof_cli::run(&args), 0, "accuracy subcommand must succeed");
    let text = std::fs::read_to_string(&out).expect("accuracy report written");
    let doc = Json::parse(&text).expect("valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("dprof-accuracy/v1")
    );
    assert_eq!(
        doc.get("run")
            .and_then(|r| r.get("sampling"))
            .and_then(Json::as_str),
        Some("adaptive:2500")
    );
    assert_eq!(
        doc.get("samples")
            .and_then(|s| s.get("within_budget"))
            .and_then(Json::as_bool),
        Some(true)
    );
    let _ = std::fs::remove_file(out);
}

/// The `dprof accuracy -f json` documents of two scenarios are committed under
/// `tests/golden` (`<scenario>_quick.accuracy.json`, written by `dprof accuracy -w
/// <scenario>:buggy --cores 2 --threads <n> --warmup 6 --rounds 80 --sampling
/// adaptive:2500 -f json`); the harness must reproduce them byte for byte.  CI's
/// determinism job runs the same check through the binary.
#[test]
fn accuracy_documents_match_their_goldens() {
    for (scenario, threads) in [("remote-hot-lock", 2), ("sparse-struct-waste", 1)] {
        let index = scenarios::registry()
            .iter()
            .position(|spec| spec.name == scenario)
            .expect("registered scenario");
        let options = AccuracyOptions {
            run: RunOptions {
                threads,
                ..accuracy_run(index)
            },
            top_k: TOP_K,
            format: Format::Json,
            output: None,
        };
        let (sampled, census) = sampled_and_census(&options.run).expect("accuracy run");
        let report = compare(&sampled, &census, TOP_K, Some(BUDGET)).expect("accuracy report");
        let document = render_json(&report, &options);
        let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden")
            .join(format!(
                "{}_quick.accuracy.json",
                scenario.replace('-', "_")
            ));
        let expected = std::fs::read_to_string(&golden).expect("golden accuracy document");
        assert!(
            document == expected,
            "{scenario}: the accuracy document differs from {}:\n{document}",
            golden.display()
        );
    }
}

/// `tests/golden/remote_hot_lock_quick.accuracy.txt` is the text form of the first
/// golden run (the same command with `-f text`), the one pin on the text renderer.
#[test]
fn the_accuracy_text_matches_its_golden() {
    let index = scenarios::registry()
        .iter()
        .position(|spec| spec.name == "remote-hot-lock")
        .expect("registered scenario");
    let options = AccuracyOptions {
        run: RunOptions {
            threads: 2,
            ..accuracy_run(index)
        },
        top_k: TOP_K,
        format: Format::Text,
        output: None,
    };
    let (sampled, census) = sampled_and_census(&options.run).expect("accuracy run");
    let report = compare(&sampled, &census, TOP_K, Some(BUDGET)).expect("accuracy report");
    let text = render_text(&report, &options);
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/remote_hot_lock_quick.accuracy.txt");
    let expected = std::fs::read_to_string(&golden).expect("golden accuracy text");
    assert!(
        text == expected,
        "the accuracy text differs from {}:\n{text}",
        golden.display()
    );
}

/// The census is a report `dprof diff` reads unchanged: its merge, written whole and
/// loaded back the way `dprof diff` loads a report (one shard, merged alone), has the
/// summary of the merge it was written from, every column included.
#[test]
fn the_census_written_as_a_report_reads_back_as_its_summary() {
    for (scenario, threads) in [("remote-hot-lock", 2), ("sparse-struct-waste", 1)] {
        let index = scenarios::registry()
            .iter()
            .position(|spec| spec.name == scenario)
            .expect("registered scenario");
        let run = RunOptions {
            threads,
            ..accuracy_run(index)
        };
        let (_, census) = sampled_and_census(&run).expect("accuracy run");
        let report = merge(&census);
        let mut w = JsonWriter::default();
        write_whole_report(&mut w, &report);
        let path = std::env::temp_dir().join(format!(
            "dprof-census-{}-{scenario}.json",
            std::process::id()
        ));
        std::fs::write(&path, w.finish()).expect("census report written");
        let read_back = load_summary(path.to_str().unwrap());
        let _ = std::fs::remove_file(&path);
        let (read_back, in_memory) = (
            read_back.expect("dprof diff reads it"),
            summary_from_merged(&report),
        );
        assert!(
            in_memory.types().iter().any(|t| t.l1_miss_samples > 0),
            "{scenario}: the census saw no L1 miss"
        );
        assert_eq!(read_back, in_memory, "{scenario}");
    }
}
