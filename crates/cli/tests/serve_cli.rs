//! End-to-end tests of the `dprof serve` / `dprof query` error paths through the
//! real binary: every client-side failure prints one `error:` line and exits
//! non-zero, and none of them take the server down — the next valid request on a
//! fresh connection still answers.

use dprof::core::schema::Json;
use std::io::Write;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

fn dprof() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dprof"))
}

/// A `dprof serve` child plus the address it bound (via `--port-file`).
struct ServeProcess {
    child: Child,
    addr: String,
}

impl ServeProcess {
    /// Spawns `dprof serve --listen 127.0.0.1:0` and waits for the port file.
    fn start() -> ServeProcess {
        let dir = std::env::temp_dir().join(format!(
            "dprof-serve-cli-{}-{:p}",
            std::process::id(),
            &std::process::id() as *const u32
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let port_file = dir.join("addr.txt");
        let child = dprof()
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--port-file",
                port_file.to_str().unwrap(),
            ])
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("serve spawns");
        let deadline = Instant::now() + Duration::from_secs(10);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                let trimmed = text.trim().to_string();
                if !trimmed.is_empty() {
                    break trimmed;
                }
            }
            assert!(Instant::now() < deadline, "serve never wrote the port file");
            std::thread::sleep(Duration::from_millis(20));
        };
        std::fs::remove_dir_all(&dir).ok();
        ServeProcess { child, addr }
    }

    fn query(&self, args: &[&str]) -> std::process::Output {
        dprof()
            .args(["query"])
            .args(args)
            .args(["-c", &self.addr])
            .output()
            .expect("query runs")
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        // Best-effort: ask nicely over the protocol, then make sure.
        let _ = self.query(&["shutdown"]);
        let _ = self.child.wait();
    }
}

fn stderr_error_line(output: &std::process::Output) -> String {
    let stderr = String::from_utf8_lossy(&output.stderr);
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(
        errors.len(),
        1,
        "expected exactly one error: line, got stderr:\n{stderr}"
    );
    errors[0].to_string()
}

#[test]
fn query_error_paths_print_one_error_line_and_the_server_survives() {
    let server = ServeProcess::start();

    // 1. Unknown key: error + exit 1.
    let output = server.query(&["top", "-w", "ring", "--build", "nope", "--top", "3"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(
        stderr_error_line(&output).contains("unknown key ring/nope"),
        "wrong message"
    );

    // 2. Invalid workload tag (path traversal shape): rejected server-side.
    let output = server.query(&[
        "push",
        "-w",
        "../etc",
        "--build",
        "v1",
        "--shard-id",
        "1",
        "--file",
        "-",
    ]);
    assert_eq!(output.status.code(), Some(1));
    assert!(stderr_error_line(&output).contains("invalid workload tag"));

    // 3. A garbage frame on a raw socket: the server answers an error frame and
    //    hangs up that connection only.
    let mut raw = std::net::TcpStream::connect(&server.addr).expect("raw connect");
    raw.write_all(&[0x00]).unwrap();
    raw.flush().unwrap();
    drop(raw);

    // 4. Truncated trace upload: the replay fails server-side, reported as one
    //    error line; the upload never becomes a shard.
    let dir = std::env::temp_dir();
    let torn = dir.join(format!(
        "dprof-serve-cli-torn-{}.dtrace",
        std::process::id()
    ));
    std::fs::write(&torn, b"DPROFTRC-but-cut-short").unwrap();
    let output = server.query(&[
        "push-trace",
        "-w",
        "ring",
        "--build",
        "v1",
        "--shard-id",
        "9",
        "--file",
        torn.to_str().unwrap(),
    ]);
    std::fs::remove_file(&torn).ok();
    assert_eq!(output.status.code(), Some(1));
    assert!(stderr_error_line(&output).starts_with("error: server:"));

    // 5. Unreadable local file: fails client-side before any frame is sent.
    let output = server.query(&[
        "push-trace",
        "-w",
        "ring",
        "--build",
        "v1",
        "--shard-id",
        "10",
        "--file",
        "/nonexistent/nope.dtrace",
    ]);
    assert_eq!(output.status.code(), Some(1));
    assert!(stderr_error_line(&output).contains("cannot read"));

    // After all of that the server still answers: stats shows zero absorbed
    // shards (every push above failed) and the keys list is empty.
    let output = server.query(&["stats"]);
    assert!(
        output.status.success(),
        "stats failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let doc = Json::parse(&String::from_utf8(output.stdout).unwrap()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("dprof-serve/v1")
    );
    assert_eq!(doc.get("shards_absorbed").and_then(Json::as_f64), Some(0.0));
}

#[test]
fn connecting_to_a_dead_collector_fails_cleanly() {
    // Port 1 on localhost is essentially never listening.
    let output = dprof()
        .args(["query", "keys", "-c", "127.0.0.1:1"])
        .output()
        .expect("query runs");
    assert_eq!(output.status.code(), Some(1));
    assert!(stderr_error_line(&output).starts_with("error:"));
}

#[test]
fn query_parse_errors_exit_2_before_touching_the_network() {
    // Unknown action.
    let output = dprof()
        .args(["query", "frobnicate", "-c", "127.0.0.1:1"])
        .output()
        .expect("query runs");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("error:"), "{stderr}");

    // Missing required flag.
    let output = dprof()
        .args(["query", "top", "-c", "127.0.0.1:1", "-w", "ring"])
        .output()
        .expect("query runs");
    assert_eq!(output.status.code(), Some(2));

    // loadgen: --connect and --spawn are mutually exclusive with neither given.
    let output = dprof().args(["loadgen"]).output().expect("loadgen runs");
    assert_eq!(output.status.code(), Some(2));

    // loadgen: a compaction bound configures only a collector it spawns; against an
    // external one it would be silently ignored, so it is refused.
    let output = dprof()
        .args(["loadgen", "-c", "127.0.0.1:1", "--compact-every", "8"])
        .output()
        .expect("loadgen runs");
    assert_eq!(output.status.code(), Some(2));
    assert_eq!(
        stderr_error_line(&output),
        "error: '--compact-every' only applies to a --spawn collector"
    );
}

#[test]
fn push_and_query_round_trip_through_the_binary() {
    let server = ServeProcess::start();

    // A real (tiny) report pushed as a shard, then queried back.
    let report = dprof()
        .args([
            "-w",
            "streaming-scan:buggy",
            "--threads",
            "2",
            "--cores",
            "2",
            "--warmup",
            "5",
            "--rounds",
            "30",
            "--history-types",
            "0",
            "-f",
            "json",
        ])
        .output()
        .expect("profile runs");
    assert!(report.status.success());
    let dir = std::env::temp_dir();
    let path = dir.join(format!("dprof-serve-cli-push-{}.json", std::process::id()));
    std::fs::write(&path, &report.stdout).unwrap();

    let output = server.query(&[
        "push",
        "-w",
        "scan",
        "--build",
        "v1",
        "--shard-id",
        "1",
        "--file",
        path.to_str().unwrap(),
    ]);
    std::fs::remove_file(&path).ok();
    assert!(
        output.status.success(),
        "push failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    let output = server.query(&["top", "-w", "scan", "--build", "v1", "--top", "3"]);
    assert!(output.status.success());
    let doc = Json::parse(&String::from_utf8(output.stdout).unwrap()).unwrap();
    let rows = doc.get("rows").and_then(Json::as_array).expect("rows");
    assert!(!rows.is_empty());
    assert_eq!(
        rows[0].get("type").and_then(Json::as_str),
        Some("scan_buffer"),
        "streaming-scan:buggy's top miss type is scan_buffer"
    );
}

#[test]
fn hostile_pushes_print_one_error_line_and_the_server_survives() {
    let server = ServeProcess::start();
    let push = |name: &str, document: &str| {
        let path = std::env::temp_dir().join(format!(
            "dprof-serve-cli-{name}-{}.json",
            std::process::id()
        ));
        std::fs::write(&path, document).unwrap();
        let output = server.query(&[
            "push",
            "-w",
            "ring",
            "--build",
            "v1",
            "--shard-id",
            "1",
            "--file",
            path.to_str().unwrap(),
        ]);
        std::fs::remove_file(&path).ok();
        assert_eq!(output.status.code(), Some(1), "{name}");
        stderr_error_line(&output)
    };

    // 10 KB of `[`: unbounded, the parser's recursion overflows the connection
    // thread's stack and the collector aborts.
    assert_eq!(
        push("nested", &"[".repeat(10_000)),
        "error: server: push: nesting deeper than 128 at byte 128"
    );
    // A count no tally can produce, refused where it enters rather than summed.
    let counts = r#"{"schema": "dprof-report/v1", "throughput": {"total_requests": 1e30}}"#;
    assert_eq!(
        push("counts", counts),
        format!(
            "error: server: throughput 'total_requests': count {} out of range",
            1e30
        )
    );

    let output = server.query(&["stats"]);
    assert!(
        output.status.success(),
        "stats failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let doc = Json::parse(&String::from_utf8(output.stdout).unwrap()).unwrap();
    assert_eq!(doc.get("shards_absorbed").and_then(Json::as_f64), Some(0.0));
}
