//! Integration tests of the `dprof diff` subcommand and the scenario workload surface
//! through the real binary: happy paths (neutral self-diff of a golden report, a
//! scenario run feeding a diff) and every error path, each of which must exit non-zero
//! with a one-line actionable message on stderr.

use dprof::core::schema::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

fn dprof() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dprof"))
}

fn golden_report() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/memcached_quick.report.json")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dprof-diff-test-{}-{name}", std::process::id()));
    p
}

/// Asserts an error invocation: non-zero exit, a single-line `error:` diagnostic on
/// stderr containing `needle`.
fn assert_error(output: &Output, needle: &str) {
    assert!(
        !output.status.success(),
        "expected failure, got success with stdout: {}",
        String::from_utf8_lossy(&output.stdout)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    let error_lines: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(
        error_lines.len(),
        1,
        "expected exactly one error line, got stderr: {stderr}"
    );
    assert!(
        error_lines[0].contains(needle),
        "error line '{}' should mention '{needle}'",
        error_lines[0]
    );
}

#[test]
fn self_diff_of_a_golden_report_is_neutral_in_json_and_text() {
    let golden = golden_report();
    let out_path = tmp("self.json");
    let output = dprof()
        .arg("diff")
        .arg(&golden)
        .arg(&golden)
        .args(["-f", "json", "-o"])
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "diff failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let doc = Json::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("dprof-diff/v1")
    );
    assert_eq!(doc.get("verdict").and_then(Json::as_str), Some("unchanged"));
    assert_eq!(doc.get("neutral").and_then(Json::as_bool), Some(true));
    for row in doc.get("types").and_then(Json::as_array).unwrap() {
        assert_eq!(row.get("delta_pct").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            row.get("delta_miss_samples").and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            row.get("delta_core_crossings").and_then(Json::as_f64),
            Some(0.0)
        );
    }
    let text = dprof()
        .arg("diff")
        .arg(&golden)
        .arg(&golden)
        .output()
        .unwrap();
    assert!(text.status.success());
    let stdout = String::from_utf8_lossy(&text.stdout);
    assert!(stdout.contains("verdict: bottleneck unchanged"));
    assert!(stdout.contains("reports are identical"));
    std::fs::remove_file(&out_path).ok();
}

#[test]
fn scenario_run_feeds_diff_end_to_end() {
    // The oracle's quick scale (tests/scenario_oracle.rs uses the same numbers
    // in-process); smaller runs yield too few miss samples for a meaningful verdict.
    let scale = [
        "--threads",
        "1",
        "--cores",
        "2",
        "--warmup",
        "6",
        "--rounds",
        "80",
        "--ibs-interval",
        "32",
        "--history-types",
        "2",
        "--history-sets",
        "1",
    ];
    let buggy = tmp("scenario-buggy.json");
    let fixed = tmp("scenario-fixed.json");
    for (variant, path) in [("buggy", &buggy), ("fixed", &fixed)] {
        let output = dprof()
            .args([
                "-w",
                &format!("ring-false-sharing:{variant}"),
                "-f",
                "json",
                "-o",
            ])
            .arg(path)
            .args(scale)
            .output()
            .unwrap();
        assert!(
            output.status.success(),
            "scenario {variant} run failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            doc.get("run")
                .unwrap()
                .get("workload")
                .and_then(Json::as_str),
            Some(format!("ring-false-sharing:{variant}").as_str())
        );
        let rows = doc
            .get("data_profile")
            .unwrap()
            .get("rows")
            .unwrap()
            .as_array()
            .unwrap();
        assert!(
            rows.iter()
                .any(|r| r.get("type").and_then(Json::as_str) == Some("ring_desc")),
            "ring_desc missing from the {variant} profile"
        );
    }
    let output = dprof()
        .arg("diff")
        .arg(&buggy)
        .arg(&fixed)
        .args(["--focus", "ring_desc", "-f", "json"])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "diff failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let doc = Json::parse(&String::from_utf8_lossy(&output.stdout)).unwrap();
    assert_eq!(doc.get("focus").and_then(Json::as_str), Some("ring_desc"));
    assert_eq!(
        doc.get("verdict").and_then(Json::as_str),
        Some("eliminated"),
        "diff of the buggy vs fixed ring profiles should eliminate the bottleneck"
    );
    for p in [buggy, fixed] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn unknown_workloads_and_scenario_variants_fail_with_one_line_errors() {
    let unknown = dprof().args(["--workload", "nginx"]).output().unwrap();
    assert_error(&unknown, "unknown workload 'nginx'");

    let bad_variant = dprof()
        .args(["--workload", "ring-false-sharing:borked"])
        .output()
        .unwrap();
    assert_error(&bad_variant, "unknown scenario variant 'borked'");

    let builtin_variant = dprof()
        .args(["--workload", "memcached:fixed"])
        .output()
        .unwrap();
    assert_error(&builtin_variant, "does not take a ':variant' suffix");
}

#[test]
fn diff_against_missing_or_malformed_files_fails_cleanly() {
    let golden = golden_report();

    let missing = dprof()
        .arg("diff")
        .arg(&golden)
        .arg("/nonexistent/nope.json")
        .output()
        .unwrap();
    assert_error(&missing, "cannot read report '/nonexistent/nope.json'");

    let not_json = tmp("not-json.txt");
    std::fs::write(&not_json, "this is not json").unwrap();
    let garbage = dprof()
        .arg("diff")
        .arg(&not_json)
        .arg(&golden)
        .output()
        .unwrap();
    assert_error(&garbage, "not valid JSON");

    let wrong_schema = tmp("wrong-schema.json");
    std::fs::write(&wrong_schema, "{\"schema\": \"some-other-tool/v2\"}").unwrap();
    let mismatched = dprof()
        .arg("diff")
        .arg(&golden)
        .arg(&wrong_schema)
        .output()
        .unwrap();
    assert_error(&mismatched, "some-other-tool/v2");

    let no_profile = tmp("no-profile.json");
    std::fs::write(
        &no_profile,
        "{\"schema\": \"dprof-report/v1\", \"throughput\": {}}",
    )
    .unwrap();
    let sectionless = dprof()
        .arg("diff")
        .arg(&no_profile)
        .arg(&golden)
        .output()
        .unwrap();
    assert_error(&sectionless, "no data_profile section");

    for p in [not_json, wrong_schema, no_profile] {
        std::fs::remove_file(p).ok();
    }
}

/// A report derives each share from its miss count; a document whose rows carry shares
/// but no counts weighed 0 and printed every share as 0 %.  It is refused, naming the
/// section and the row.
#[test]
fn a_share_without_its_miss_count_is_refused_not_read_as_zero() {
    let shares_only = tmp("shares-only.json");
    std::fs::write(
        &shares_only,
        r#"{"schema": "dprof-report/v1", "data_profile": {"rows": [
            {"type": "skbuff", "pct_of_l1_misses": 60},
            {"type": "payload", "pct_of_l1_misses": 40}]}}"#,
    )
    .unwrap();
    let output = dprof()
        .arg("diff")
        .arg(&shares_only)
        .arg(&shares_only)
        .output()
        .unwrap();
    assert_error(&output, "data_profile row 'skbuff'");
    assert!(output.stdout.is_empty(), "no diff is printed");
    std::fs::remove_file(shares_only).ok();
}

#[test]
fn diff_arity_conflicting_flags_and_bad_focus_are_rejected() {
    let golden = golden_report();

    let one_file = dprof().arg("diff").arg(&golden).output().unwrap();
    assert_eq!(one_file.status.code(), Some(2));
    assert_error(&one_file, "exactly two report files");

    let conflicting = dprof()
        .arg("diff")
        .arg(&golden)
        .arg(&golden)
        .args(["--workload", "memcached"])
        .output()
        .unwrap();
    assert_eq!(conflicting.status.code(), Some(2));
    assert_error(&conflicting, "conflicts with diff");

    let bad_focus = dprof()
        .arg("diff")
        .arg(&golden)
        .arg(&golden)
        .args(["--focus", "no_such_type"])
        .output()
        .unwrap();
    assert_error(&bad_focus, "appears in neither report");
}

#[test]
fn diff_focus_on_a_utilization_only_type_uses_the_wasted_bytes_verdict() {
    // A type can be invisible to the miss views (no data_profile/miss rows) yet
    // dominate by wasted fetch bandwidth; focusing the diff on it must fall back to
    // the utilization axis instead of reporting "appears in neither report".
    // The derived columns are written as a report writes them, from the counts a
    // reader recomputes them from: 8 wasted bytes per fetched slot never touched.
    let report = |fetched: u64, touched: u64| {
        let (wasted, pct) = (
            8 * (fetched - touched),
            100.0 * touched as f64 / fetched as f64,
        );
        format!(
            r#"{{"schema": "dprof-report/v1",
  "data_profile": {{"rows": [{{"type": "rx_ring", "pct_of_l1_misses": 100.0,
    "samples": 10, "l1_miss_samples": 10}}]}},
  "utilization": {{"total_fetches": {fetched}, "total_refetches": 0, "rows": [
    {{"type": "sparse_only", "slots_fetched": {fetched}, "slots_touched": {touched},
      "utilization_pct": {pct}, "wasted_bytes": {wasted}}}]}}}}"#
        )
    };
    let before = tmp("util-only-before.json");
    let after = tmp("util-only-after.json");
    // 100 000 wasted bytes before the fix, 400 after.
    std::fs::write(&before, report(16_000, 3_500)).unwrap();
    std::fs::write(&after, report(4_096, 4_046)).unwrap();

    let output = dprof()
        .arg("diff")
        .arg(&before)
        .arg(&after)
        .args(["--focus", "sparse_only", "-f", "json"])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "diff failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let doc = Json::parse(&String::from_utf8_lossy(&output.stdout)).unwrap();
    assert_eq!(doc.get("focus").and_then(Json::as_str), Some("sparse_only"));
    assert_eq!(
        doc.get("verdict").and_then(Json::as_str),
        Some("eliminated"),
        "a >60% wasted-bytes drop on a miss-invisible focus type should be judged \
         eliminated via the utilization axis"
    );

    // A negligible-waste focus type stays "unchanged" rather than erroring out.
    let unchanged = dprof()
        .arg("diff")
        .arg(&after)
        .arg(&before)
        .args(["--focus", "sparse_only", "-f", "json"])
        .output()
        .unwrap();
    assert!(unchanged.status.success());
    let doc = Json::parse(&String::from_utf8_lossy(&unchanged.stdout)).unwrap();
    assert_eq!(
        doc.get("verdict").and_then(Json::as_str),
        Some("unchanged"),
        "wasted bytes below the verdict floor must not produce a spurious verdict"
    );

    for p in [before, after] {
        std::fs::remove_file(p).ok();
    }
}

/// The three diff documents committed under `tests/golden`, byte for byte.  Each
/// names its inputs, so the binary runs from the repository root with the relative
/// paths they were written with.
#[test]
fn the_golden_pair_diffs_to_its_committed_documents() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let whatif = "tests/golden/memcached_quick.fixes.whatif.json";
    for (args, golden) in [
        (&[][..], "memcached_to_false_sharing_quick.diff.txt"),
        (
            &["-f", "json"][..],
            "memcached_to_false_sharing_quick.diff.json",
        ),
        (
            &["--whatif", whatif, "-f", "json"][..],
            "memcached_to_false_sharing_quick.whatif.diff.json",
        ),
    ] {
        let output = dprof()
            .current_dir(&root)
            .args(["diff", "tests/golden/memcached_quick.report.json"])
            .args([
                "tests/golden/false_sharing_quick.report.json",
                "--top",
                "64",
            ])
            .args(args)
            .output()
            .unwrap();
        assert!(
            output.status.success(),
            "{golden}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let want = std::fs::read(root.join("tests/golden").join(golden)).unwrap();
        assert!(
            output.stdout == want,
            "{golden}: the diff differs from the committed document"
        );
    }
}

/// The collector's `query regressions` and `dprof diff` reduce a report the same way
/// (`summary_from_merged`), so over the pair CI pushes to the collector golden — each
/// report three times, as builds `v1` and `v2` — they agree on the focus, the verdict
/// and every type's miss shares; the collector's miss counts are three times the diff's.
#[test]
fn diff_agrees_with_the_collectors_regressions_over_the_golden_pair() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let output = dprof()
        .arg("diff")
        .arg(golden.join("memcached_quick.report.json"))
        .arg(golden.join("false_sharing_quick.report.json"))
        .args(["--top", "64", "-f", "json"])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "diff failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let diff = Json::parse(&String::from_utf8_lossy(&output.stdout)).unwrap();
    let regressions =
        Json::parse(&std::fs::read_to_string(golden.join("serve/regressions.json")).unwrap())
            .unwrap();
    for key in ["focus", "verdict"] {
        assert_eq!(diff.get(key), regressions.get(key), "{key}");
    }
    assert_eq!(
        diff.get("focus").and_then(Json::as_str),
        Some("size-1024"),
        "the golden pair's focus"
    );

    let num = |row: &Json, key: &str| row.get(key).and_then(Json::as_f64).unwrap();
    let types = diff.get("types").and_then(Json::as_array).unwrap();
    let rows = regressions.get("rows").and_then(Json::as_array).unwrap();
    assert_eq!(types.len(), rows.len(), "one collector row per diffed type");
    for row in rows {
        let name = row.get("type").and_then(Json::as_str).unwrap();
        let t = types
            .iter()
            .find(|t| t.get("type").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("{name}: in the collector's rows, not the diff's"));
        for (ours, theirs) in [
            ("pct_of_l1_misses_a", "pct_from"),
            ("pct_of_l1_misses_b", "pct_to"),
            ("delta_pct", "delta_pct"),
        ] {
            assert!(
                (num(t, ours) - num(row, theirs)).abs() < 1e-9,
                "{name}: {ours} {} vs {theirs} {}",
                num(t, ours),
                num(row, theirs)
            );
        }
        for (ours, theirs) in [
            ("miss_samples_a", "misses_from"),
            ("miss_samples_b", "misses_to"),
        ] {
            assert_eq!(3.0 * num(t, ours), num(row, theirs), "{name}: {theirs}");
        }
    }
}
