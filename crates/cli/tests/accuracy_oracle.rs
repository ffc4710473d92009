//! The accuracy oracle: for every planted-bottleneck scenario, an adaptive-sampled
//! profile must agree with exact ground truth — the planted type tops both rankings,
//! the top-3 sets mostly coincide, and the sample budget is respected.  This is the
//! in-process twin of the CI `scenario-oracle` job's `dprof accuracy` loop, so the
//! gate also holds on a plain `cargo test --workspace`.

use dprof::core::schema::Json;
use dprof::machine::SamplingPolicy;
use dprof::workloads::scenarios::{self, ExpectedView};
use dprof_cli::accuracy::{compare, render_json};
use dprof_cli::args::{AccuracyOptions, Format};
use dprof_cli::driver::{run_parallel, RunOptions, WorkloadKind};
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
        collect_ground_truth: true,
        ..Default::default()
    }
}

#[test]
fn adaptive_sampling_agrees_with_ground_truth_on_every_planted_scenario() {
    for (index, spec) in scenarios::registry().iter().enumerate() {
        let planted = spec.planted.type_name;
        let runs = run_parallel(&accuracy_run(index)).expect("accuracy run");
        let report = compare(&runs, TOP_K, Some(BUDGET));

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
                "{}: ground truth must rank the planted type first by wasted bytes \
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
                "{}: ground truth must rank the planted type first (got {:?})",
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
        let runs = run_parallel(&options.run).expect("accuracy run");
        let report = compare(&runs, TOP_K, Some(BUDGET));
        let document = render_json(&report, &options).to_pretty_string();
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
