//! Integration tests of the `dprof whatif` subcommand through the real binary: the
//! happy path over the committed golden ring trace, the `diff --whatif` wiring, and
//! every error path — each of which must exit non-zero with a one-line actionable
//! `error:` message on stderr (same convention as `diff_cli.rs`).

use dprof::core::schema::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

fn dprof() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dprof"))
}

fn golden_trace() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/ring_false_sharing_quick.dtrace")
}

fn golden_report() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/memcached_quick.report.json")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dprof-whatif-test-{}-{name}", std::process::id()));
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
fn auto_on_the_golden_ring_trace_ranks_the_padding_fix_first() {
    let out_path = tmp("auto.json");
    let output = dprof()
        .arg("whatif")
        .arg(golden_trace())
        .args(["--auto", "-f", "json", "-o"])
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "whatif failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let doc = Json::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("dprof-whatif/v1")
    );
    let candidates = doc.get("candidates").and_then(Json::as_array).unwrap();
    assert!(!candidates.is_empty());
    let top = &candidates[0];
    assert_eq!(top.get("fix").and_then(Json::as_str), Some("pad:ring_desc"));
    assert_eq!(top.get("kind").and_then(Json::as_str), Some("pad"));
    assert_eq!(top.get("confident").and_then(Json::as_bool), Some(true));
    assert!(top.get("predicted_gain").and_then(Json::as_f64).unwrap() > 0.0);
}

#[test]
fn diff_carries_the_prediction_when_given_a_whatif_document() {
    // Rank the golden trace, then self-diff a golden report with the prediction
    // attached: the diff document must carry the predicted fix and gain verbatim
    // (realized gain needs two live-run reports; the golden pair suffices here to
    // prove the wiring, not the calibration).
    let whatif_path = tmp("wire.json");
    assert!(dprof()
        .arg("whatif")
        .arg(golden_trace())
        .args(["--auto", "-f", "json", "-o"])
        .arg(&whatif_path)
        .output()
        .unwrap()
        .status
        .success());
    let out_path = tmp("wire-diff.json");
    let output = dprof()
        .arg("diff")
        .arg(golden_report())
        .arg(golden_report())
        .args(["--whatif"])
        .arg(&whatif_path)
        .args(["-f", "json", "-o"])
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "diff --whatif failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let doc = Json::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
    assert_eq!(
        doc.get("predicted_fix").and_then(Json::as_str),
        Some("pad:ring_desc")
    );
    assert!(doc.get("predicted_gain").and_then(Json::as_f64).unwrap() > 0.0);
}

#[test]
fn unknown_fix_spec_is_rejected_at_parse_time() {
    let output = dprof()
        .arg("whatif")
        .arg(golden_trace())
        .args(["--fix", "unpad:ring_desc"])
        .output()
        .unwrap();
    assert_error(&output, "unknown fix spec");
}

#[test]
fn malformed_shrink_byte_count_is_rejected_at_parse_time() {
    let output = dprof()
        .arg("whatif")
        .arg(golden_trace())
        .args(["--fix", "shrink:ring_desc:lots"])
        .output()
        .unwrap();
    assert_error(&output, "malformed shrink byte count");
}

#[test]
fn fix_targeting_a_type_absent_from_the_trace_is_rejected() {
    let output = dprof()
        .arg("whatif")
        .arg(golden_trace())
        .args(["--fix", "pad:no_such_type"])
        .output()
        .unwrap();
    assert_error(&output, "does not appear in the trace");
}

#[test]
fn whatif_without_fix_or_auto_is_rejected() {
    let output = dprof().arg("whatif").arg(golden_trace()).output().unwrap();
    assert_error(&output, "--fix <spec> or --auto");
}

#[test]
fn unreadable_trace_is_a_runtime_error() {
    let output = dprof()
        .args(["whatif", "/no/such/trace.dtrace", "--auto"])
        .output()
        .unwrap();
    assert_error(&output, "trace");
}

#[test]
fn auto_on_a_sample_free_trace_reports_no_candidates() {
    // Record with a near-infinite sampling interval: the replayed profile then has
    // no data-profile rows with enough miss samples for --auto to diagnose.
    let trace_path = tmp("empty.dtrace");
    let output = dprof()
        .args([
            "record",
            "-w",
            "ring-false-sharing:buggy",
            "--cores",
            "2",
            "--warmup",
            "2",
            "--rounds",
            "10",
            "--ibs-interval",
            "1000000",
            "--history-sets",
            "0",
            "--trace",
        ])
        .arg(&trace_path)
        .args(["-o", "/dev/null"])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "record failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let output = dprof()
        .arg("whatif")
        .arg(&trace_path)
        .arg("--auto")
        .output()
        .unwrap();
    assert_error(&output, "--auto found no candidates");
}

#[test]
fn diff_rejects_a_non_whatif_document_for_predictions() {
    let output = dprof()
        .arg("diff")
        .arg(golden_report())
        .arg(golden_report())
        .args(["--whatif"])
        .arg(golden_report())
        .output()
        .unwrap();
    assert_error(&output, "dprof-whatif/v1");
}
