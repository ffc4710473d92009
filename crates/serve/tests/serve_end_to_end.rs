//! End-to-end tests of the serve stack over real sockets: concurrent ingest,
//! arrival-order independence, query answers, Wilson-gated alerts, snapshot
//! persistence across a restart, the malformed-input error paths, and the byte
//! spine in `tests/golden/serve`.

use dprof::core::merge::{
    ProfileShard, ShardMeta, ShardMissRow, ShardProfileRow, ShardUtilizationOrigin,
    ShardUtilizationRow, ShardWorkingSet,
};
use dprof::core::schema::{self, Json};
use dprof_serve::loadgen::{run_loadgen, LoadgenConfig};
use dprof_serve::server::{Server, ServerConfig};
use dprof_serve::Client;
use std::io::{Read, Write};

/// A synthetic shard with two types splitting `total` miss samples.
fn shard(ordinal: u64, total: u64, hot_share: f64) -> ProfileShard {
    let hot = (total as f64 * hot_share).round() as u64;
    let cold = total - hot;
    let row = |name: &str, misses: u64| ShardProfileRow {
        name: name.into(),
        description: format!("{name} (synthetic)").into(),
        working_set_bytes: 64.0,
        pct_of_l1_misses: 100.0 * misses as f64 / total as f64,
        pct_of_miss_cycles: 100.0 * misses as f64 / total as f64,
        bounce: name == "ring_desc",
        samples: misses * 2,
        l1_miss_samples: misses,
        threads_seen: 1,
    };
    ProfileShard {
        ordinal,
        weight: total as f64,
        meta: ShardMeta {
            thread: 0,
            seed: ordinal,
            requests: 1000,
            rps: 50_000.0,
            profiling_fraction: 0.02,
            samples: total * 2,
            total_cycles: 100_000,
        },
        data_profile: vec![row("ring_desc", hot), row("scan_buffer", cold)],
        miss_classification: vec![
            ShardMissRow {
                name: "ring_desc".into(),
                miss_samples: hot,
                invalidation: 0.9,
                conflict: 0.05,
                capacity: 0.05,
            },
            ShardMissRow {
                name: "scan_buffer".into(),
                miss_samples: cold,
                invalidation: 0.1,
                conflict: 0.1,
                capacity: 0.8,
            },
        ],
        working_set: ShardWorkingSet {
            thread_count: 1,
            ..ShardWorkingSet::default()
        },
        data_flows: Vec::new(),
        utilization: Default::default(),
    }
}

/// The shard as a producer pushes it: its report, written whole.
fn doc(shard: &ProfileShard) -> String {
    schema::report_of_shard(shard.clone())
}

#[test]
fn ingest_is_arrival_order_independent_and_queries_answer() {
    // Two servers receive the same shard set in opposite arrival orders.
    let mut server_a = Server::start(ServerConfig::default()).unwrap();
    let mut server_b = Server::start(ServerConfig::default()).unwrap();
    let shards: Vec<ProfileShard> = (0..12).map(|i| shard(i + 1, 200, 0.7)).collect();

    let mut client_a = Client::connect(&server_a.addr().to_string()).unwrap();
    let mut client_b = Client::connect(&server_b.addr().to_string()).unwrap();
    for s in &shards {
        client_a
            .push_shard("ring", "v1", s.ordinal, &doc(s))
            .unwrap();
    }
    for s in shards.iter().rev() {
        client_b
            .push_shard("ring", "v1", s.ordinal, &doc(s))
            .unwrap();
    }

    let top_a = client_a.query_top("ring", "v1", 8).unwrap();
    let top_b = client_b.query_top("ring", "v1", 8).unwrap();
    assert_eq!(top_a, top_b, "merged state depends on arrival order");

    let parsed = Json::parse(&top_a).unwrap();
    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some(schema::SERVE_V1)
    );
    let rows = parsed.get("rows").and_then(Json::as_array).unwrap();
    assert_eq!(
        rows[0].get("type").and_then(Json::as_str),
        Some("ring_desc")
    );
    let pct = rows[0]
        .get("pct_of_l1_misses")
        .and_then(Json::as_f64)
        .unwrap();
    assert!((pct - 70.0).abs() < 1.0, "hot share ~70%, got {pct}");

    server_a.shutdown();
    server_b.shutdown();
}

#[test]
fn regressions_and_alerts_fire_only_on_confident_growth() {
    let mut server = Server::start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    // Build "good": the hot type holds 10% of ~2000 pooled misses; build "bad":
    // 80%.  The Wilson intervals are far apart, so exactly one alert fires.
    for i in 0..10 {
        client
            .push_shard("ring", "good", i + 1, &doc(&shard(i + 1, 200, 0.1)))
            .unwrap();
        client
            .push_shard("ring", "bad", i + 1, &doc(&shard(i + 1, 200, 0.8)))
            .unwrap();
    }

    let regressions =
        Json::parse(&client.query_regressions("ring", "good", "bad", 8).unwrap()).unwrap();
    let rows = regressions.get("rows").and_then(Json::as_array).unwrap();
    // Worst regression first: ring_desc grew by ~70 points.
    assert_eq!(
        rows[0].get("type").and_then(Json::as_str),
        Some("ring_desc")
    );
    assert!(rows[0].get("delta_pct").and_then(Json::as_f64).unwrap() > 60.0);

    let alerts = Json::parse(&client.query_alerts("ring", "good", "bad").unwrap()).unwrap();
    assert_eq!(alerts.get("alert_count").and_then(Json::as_f64), Some(1.0));
    let entries = alerts.get("alerts").and_then(Json::as_array).unwrap();
    assert_eq!(
        entries[0].get("type").and_then(Json::as_str),
        Some("ring_desc")
    );
    assert!(
        entries[0]
            .get("ci95_low_to")
            .and_then(Json::as_f64)
            .unwrap()
            > entries[0]
                .get("ci95_high_from")
                .and_then(Json::as_f64)
                .unwrap()
    );

    // The reverse direction (bad -> good) must stay silent: ring_desc shrank
    // and scan_buffer's growth came with more misses - check it does alert,
    // while same-build comparison never does.
    let same = Json::parse(&client.query_alerts("ring", "good", "good").unwrap()).unwrap();
    assert_eq!(same.get("alert_count").and_then(Json::as_f64), Some(0.0));

    server.shutdown();
}

#[test]
fn snapshots_persist_across_a_restart() {
    let root = std::env::temp_dir().join(format!("dprof-serve-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let mut server = Server::start(ServerConfig {
        store_root: Some(root.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    for i in 0..6 {
        client
            .push_shard("ring", "v1", i + 1, &doc(&shard(i + 1, 150, 0.6)))
            .unwrap();
    }
    let top_before = client.query_top("ring", "v1", 4).unwrap();
    let written = Json::parse(&client.snapshot().unwrap()).unwrap();
    assert_eq!(written.get("written").and_then(Json::as_f64), Some(1.0));
    server.shutdown();

    // A fresh server over the same root reloads the snapshot.
    let mut server = Server::start(ServerConfig {
        store_root: Some(root.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    let keys = Json::parse(&client.list_keys().unwrap()).unwrap();
    let entries = keys.get("keys").and_then(Json::as_array).unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(
        entries[0].get("shards").and_then(Json::as_f64),
        Some(6.0),
        "shard count survives the snapshot"
    );
    // Exact counts survive; the top rows agree on the pooled numerators.
    let top_after = Json::parse(&client.query_top("ring", "v1", 4).unwrap()).unwrap();
    let before = Json::parse(&top_before).unwrap();
    assert_eq!(
        top_after.get("rows").and_then(Json::as_array).unwrap()[0]
            .get("l1_miss_samples")
            .and_then(Json::as_f64),
        before.get("rows").and_then(Json::as_array).unwrap()[0]
            .get("l1_miss_samples")
            .and_then(Json::as_f64)
    );
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn malformed_input_errors_do_not_take_the_server_down() {
    let mut server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.addr();

    // A malformed frame (zero length can never hold the kind byte): the server
    // answers one error frame and hangs up.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.write_all(&[0x00]).unwrap();
    raw.flush().unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap();
    assert!(!reply.is_empty(), "expected an error frame before close");
    let (kind, payload) = dprof_serve::frame::read_frame(&mut std::io::Cursor::new(reply))
        .unwrap()
        .unwrap();
    match dprof_serve::proto::Response::decode(kind, payload).unwrap() {
        dprof_serve::proto::Response::Err(message) => {
            assert!(message.contains("zero length"), "{message}")
        }
        other => panic!("expected an error response, got {other:?}"),
    }

    // The server still accepts and serves new connections.
    let mut client = Client::connect(&addr.to_string()).unwrap();
    client
        .push_shard("ring", "v1", 1, &doc(&shard(1, 100, 0.5)))
        .unwrap();

    // Unknown keys and invalid tags error without killing the connection.
    let err = client.query_top("ring", "nope", 4).unwrap_err();
    assert!(err.contains("unknown key ring/nope"), "{err}");
    let err = client.push_shard("../etc", "v1", 2, "{}").unwrap_err();
    assert!(err.contains("invalid workload tag"), "{err}");
    let err = client
        .push_shard("ring", "v1", 3, "this is not json")
        .unwrap_err();
    assert!(err.contains("server:"), "{err}");
    // A push is a report: a raw shard, or any other document, is none.
    for (document, said) in [
        (
            r#"{"ordinal": 1, "weight": 0, "meta": {}}"#,
            "missing 'schema' field",
        ),
        (
            r#"{"schema": "dprof-serve/v1"}"#,
            "schema is 'dprof-serve/v1'",
        ),
    ] {
        let err = client.push_shard("ring", "v1", 3, document).unwrap_err();
        assert!(err.starts_with(&format!("server: {said}")), "{err}");
        assert!(err.ends_with("(is this a dprof report?)"), "{err}");
    }

    // A truncated trace upload errors; the connection and server survive.
    let err = client
        .push_trace("ring", "v1", 9, b"DPROFTRC-but-cut".to_vec())
        .unwrap_err();
    assert!(err.contains("server:"), "{err}");

    // Utilization counts no tally can produce (more slots touched than fetched,
    // on a row or on one of its origins) are refused at the boundary, wherever the
    // report carries them: folded, they would underflow `wasted_bytes` under the
    // store lock.
    let mut with_row = shard(4, 100, 0.5);
    with_row.utilization.rows.push(ShardUtilizationRow {
        name: "ring_desc".into(),
        description: "".into(),
        slots_fetched: 8,
        slots_touched: 3,
        refetch_slots: 0,
        wasted_bytes_per_sec: 0.0,
        origins: vec![ShardUtilizationOrigin {
            origin: "cpu0".into(),
            slots_fetched: 8,
            slots_touched: 2,
        }],
    });
    let valid = doc(&with_row);
    let hostile_row = valid.replace("\"slots_touched\": 3,", "\"slots_touched\": 9,");
    let hostile_origin = valid.replace("\"slots_touched\": 2,", "\"slots_touched\": 9,");
    assert!(hostile_row != valid && hostile_origin != valid);
    let hostile_report = r#"{"schema": "dprof-report/v1", "utilization": {"rows": [
        {"type": "ring_desc", "slots_fetched": 1, "slots_touched": 2}]}}"#;
    for hostile in [&hostile_row, &hostile_origin, hostile_report] {
        let err = client.push_shard("ring", "v1", 4, hostile).unwrap_err();
        assert!(err.contains("exceeds slots_fetched"), "{err}");
    }
    let top = Json::parse(&client.query_top("ring", "v1", 4).unwrap()).unwrap();
    assert_eq!(top.get("pooled_misses").and_then(Json::as_f64), Some(100.0));

    let stats = Json::parse(&client.stats().unwrap()).unwrap();
    assert_eq!(
        stats.get("shards_absorbed").and_then(Json::as_f64),
        Some(1.0)
    );

    server.shutdown();
}

/// A connection thread has a 2 MiB stack and the parser recurses per level: without a
/// depth bound, 10 KB of `[` is a stack overflow, which aborts the whole process.
#[test]
fn a_deeply_nested_push_is_an_error_not_a_stack_overflow() {
    let mut server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let err = client
        .push_shard("ring", "v1", 1, &"[".repeat(10_000))
        .unwrap_err();
    assert_eq!(err, "server: push: nesting deeper than 128 at byte 128");
    let err = client
        .push_shard("ring", "v1", 1, &"{\"a\":".repeat(10_000))
        .unwrap_err();
    assert_eq!(err, "server: push: nesting deeper than 128 at byte 640");
    // The connection that sent it, and a new one, are still served.
    for client in [&mut client, &mut Client::connect(&addr).unwrap()] {
        let stats = Json::parse(&client.stats().unwrap()).unwrap();
        assert_eq!(
            stats.get("shards_absorbed").and_then(Json::as_f64),
            Some(0.0)
        );
    }
    server.shutdown();
}

/// Counts are read into `u64`s the fold adds up: a count of `1e30` used to saturate
/// to `u64::MAX`, and the second such shard overflowed the sum under the store lock.
#[test]
fn out_of_range_counts_are_refused_by_the_first_push() {
    let mut server = Server::start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    client
        .push_shard("ring", "v1", 1, &doc(&shard(1, 100, 0.5)))
        .unwrap();
    let hostile =
        doc(&shard(2, 100, 0.5)).replace("\"total_requests\": 1000", "\"total_requests\": 1e30");
    assert!(hostile.contains("1e30"));
    for shard_id in [2, 3] {
        let err = client
            .push_shard("ring", "v1", shard_id, &hostile)
            .unwrap_err();
        assert_eq!(
            err,
            format!(
                "server: throughput 'total_requests': count {} out of range",
                1e30
            )
        );
    }
    let hostile_report = r#"{"schema": "dprof-report/v1", "data_profile": {"rows": [
        {"type": "ring_desc", "l1_miss_samples": -1}]}}"#;
    let err = client
        .push_shard("ring", "v1", 4, hostile_report)
        .unwrap_err();
    assert!(
        err.contains("'l1_miss_samples': count -1 out of range"),
        "{err}"
    );
    let top = Json::parse(&client.query_top("ring", "v1", 4).unwrap()).unwrap();
    assert_eq!(top.get("pooled_misses").and_then(Json::as_f64), Some(100.0));
    assert_eq!(top.get("shards").and_then(Json::as_f64), Some(1.0));
    server.shutdown();
}

/// `str::parse` rounds `1e999` to an infinity without an error.  The readers used to
/// take it into `rps` unchecked, the fold summed it, a snapshot wrote it as `null` and
/// a restart read that as 0: a store that did not read back what it had snapshotted.
/// And a type name written the way `json.dumps` writes anything beyond ASCII — a scalar
/// outside the BMP as an escaped surrogate pair — used to come back as two U+FFFD.
#[test]
fn a_non_finite_number_is_refused_and_an_escaped_surrogate_pair_is_its_scalar() {
    let mut server = Server::start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    let report = read_golden("memcached_quick.report.json");
    let key = "\"aggregate_rps\": ";
    let at = report.find(key).unwrap() + key.len();
    let end = at + report[at..].find(',').unwrap();
    let hostile = format!("{}1e999{}", &report[..at], &report[end..]);
    assert_eq!(
        client.push_shard("golden", "v1", 1, &hostile).unwrap_err(),
        format!("server: push: number out of range at byte {at}")
    );
    let stats = Json::parse(&client.stats().unwrap()).unwrap();
    assert_eq!(
        stats.get("shards_absorbed").and_then(Json::as_f64),
        Some(0.0)
    );

    let renamed = report.replace("\"size-1024\"", r#""size-\ud83d\ude00""#);
    assert_ne!(renamed, report);
    client.push_shard("golden", "v1", 1, &renamed).unwrap();
    let top = client.query_top("golden", "v1", 64).unwrap();
    assert!(top.contains("\"type\": \"size-😀\""), "{top}");
    assert!(!top.contains('\u{fffd}') && !top.contains("size-1024"));
    server.shutdown();
}

/// A trace upload's ordinals are `shard_id * 1024 + thread` and the id is the client's:
/// `u64::MAX` used to overflow on the connection thread (a panic in debug, a silent
/// wrap onto other uploads' ordinals in release).
#[test]
fn a_trace_upload_with_an_out_of_range_shard_id_is_one_error_line() {
    let mut server = Server::start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    let trace = std::fs::read(golden("memcached_quick.dtrace")).unwrap();
    // `u64::MAX / 1024 + 1` is the smallest id whose first ordinal does not fit.
    for shard_id in [u64::MAX, u64::MAX / 1024 + 1] {
        let err = client
            .push_trace("golden", "v1", shard_id, trace.clone())
            .unwrap_err();
        assert_eq!(
            err,
            format!("server: trace upload: shard id {shard_id} out of range")
        );
    }
    // The same connection is still served, nothing was absorbed, and the largest id
    // that fits is taken.
    let stats = Json::parse(&client.stats().unwrap()).unwrap();
    assert_eq!(
        stats.get("shards_absorbed").and_then(Json::as_f64),
        Some(0.0)
    );
    let ack = client
        .push_trace("golden", "v1", u64::MAX / 1024, trace)
        .unwrap();
    let ack = Json::parse(&ack).unwrap();
    assert_eq!(ack.get("streams").and_then(Json::as_f64), Some(1.0));
    server.shutdown();
}

/// An upload is spooled to a file the replay opens, and every exit removes the file: a
/// write that fails part-way (here the next spool name is a link to `/dev/full`, a
/// Linux device on which every write fails for want of space) used to return before
/// the removal and leave it behind.
#[test]
fn an_upload_whose_spool_cannot_be_written_is_one_error_and_leaves_no_file() {
    let root = std::env::temp_dir().join(format!("dprof-serve-spool-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let mut server = Server::start(ServerConfig {
        store_root: Some(root.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    // The collector runs in this process, and this is its first upload.
    let spool = root.join(format!("dprof-upload-{}-0.dtrace", std::process::id()));
    std::os::unix::fs::symlink("/dev/full", &spool).unwrap();
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    let trace = std::fs::read(golden("memcached_quick.dtrace")).unwrap();
    let err = client.push_trace("golden", "v1", 1, trace).unwrap_err();
    assert!(err.starts_with("server: spool upload: "), "{err}");
    assert!(!err.contains('\n'), "{err}");
    assert!(
        std::fs::symlink_metadata(&spool).is_err(),
        "the spool is left behind"
    );
    let stats = Json::parse(&client.stats().unwrap()).unwrap();
    assert_eq!(
        stats.get("shards_absorbed").and_then(Json::as_f64),
        Some(0.0)
    );
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn loadgen_pushes_concurrently_with_bounded_memory() {
    let mut server = Server::start(ServerConfig {
        compact_threshold: 8,
        ..ServerConfig::default()
    })
    .unwrap();
    let templates = vec![
        ("base".to_string(), vec![shard(0, 200, 0.1)]),
        ("cand".to_string(), vec![shard(0, 200, 0.8)]),
    ];
    let report = run_loadgen(
        &LoadgenConfig {
            addr: server.addr().to_string(),
            workload: "ring".into(),
            shards: 60,
            producers: 4,
            top: 8,
        },
        &templates,
    )
    .unwrap();
    assert_eq!(report.shards_pushed, 60);
    assert_eq!(report.shards_absorbed, 60);
    assert!(
        report.shards_resident <= 2 * 8,
        "resident {} not bounded by keys * threshold",
        report.shards_resident
    );
    assert!(report.queries_answered >= 6);
    assert!(report.alerts_fired >= 1, "base->cand growth must alert");
    assert!(report.shards_per_second > 0.0);

    // Shutdown through the protocol (what `dprof query shutdown` does).
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    client.shutdown().unwrap();
    server.wait();
}

fn golden(relative: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(relative)
}

fn read_golden(relative: &str) -> String {
    let path = golden(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `tests/golden/serve` is what `dprof serve --compact-every 2 --snapshot-every 0`
/// answers after the pushes below (`dprof query top|regressions|alerts`; the three
/// answers were written by the binary of the commit *before* the fold learnt to return
/// a shard) and the snapshots it then writes (`dprof query snapshot`, the report of each
/// key's fold).  Every shard of a key carries the same rows, so the answers exercise
/// compaction, ranking and the regression summary without depending on which threads
/// saw which type.
#[test]
fn golden_pushes_answer_byte_for_byte_and_old_snapshots_load() {
    let written = std::env::temp_dir().join(format!("dprof-serve-written-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&written);
    let mut server = Server::start(ServerConfig {
        store_root: Some(written.clone()),
        compact_threshold: 2,
        snapshot_every: 0,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    for (build, report, ids) in [
        ("v1", "memcached_quick.report.json", 1..=3),
        ("v2", "false_sharing_quick.report.json", 4..=6),
    ] {
        let report = read_golden(report);
        for id in ids {
            client.push_shard("golden", build, id, &report).unwrap();
        }
    }
    let expected_top = read_golden("serve/top.json");
    assert_eq!(client.query_top("golden", "v1", 64).unwrap(), expected_top);
    assert_eq!(
        client.query_regressions("golden", "v1", "v2", 64).unwrap(),
        read_golden("serve/regressions.json")
    );
    assert_eq!(
        client.query_alerts("golden", "v1", "v2").unwrap(),
        read_golden("serve/alerts.json")
    );
    client.snapshot().unwrap();
    for build in ["v1.json", "v2.json"] {
        let snapshot = std::fs::read_to_string(written.join("golden").join(build)).unwrap();
        assert_eq!(
            snapshot,
            read_golden(&format!("serve/store/golden/{build}"))
        );
    }
    server.shutdown();
    std::fs::remove_dir_all(&written).ok();

    // A collector opened on (a copy of) the store that binary wrote.
    let root = std::env::temp_dir().join(format!("dprof-serve-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("golden")).unwrap();
    for build in ["v1.json", "v2.json"] {
        let from = golden("serve/store/golden").join(build);
        std::fs::copy(from, root.join("golden").join(build)).unwrap();
    }
    let mut server = Server::start(ServerConfig {
        store_root: Some(root.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    let keys = Json::parse(&client.list_keys().unwrap()).unwrap();
    let keys: Vec<(&str, f64)> = keys
        .get("keys")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|k| {
            (
                k.get("build").and_then(Json::as_str).unwrap(),
                k.get("shards").and_then(Json::as_f64).unwrap(),
            )
        })
        .collect();
    assert_eq!(keys, [("v1", 3.0), ("v2", 3.0)]);

    // A snapshot reads back as the fold it was written from: the same answer.
    assert_eq!(client.query_top("golden", "v1", 64).unwrap(), expected_top);
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}
