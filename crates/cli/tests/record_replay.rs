//! Record/replay determinism through the real CLI surface.
//!
//! Four layers of enforcement:
//!
//! 1. A fresh `dprof record` → `dprof replay` round trip must produce byte-identical
//!    JSON reports.
//! 2. The checked-in golden traces under `tests/golden/` must replay to byte-identical
//!    copies of their committed golden reports — the same gate the CI determinism job
//!    applies, enforced locally on every `cargo test`.  Two of them also pin the text
//!    report (every view's table), the one output no JSON document covers.
//! 3. Re-recording each golden session reproduces the committed trace *and* report
//!    byte for byte: the write side's spine, so a change to the recorder, the encoder
//!    or the container writer cannot move a byte unnoticed.
//! 4. A trace whose events contradict each other, or ask for the impossible, is one
//!    `error:` line from the real binary that names the event and the address.

use dprof::machine::SessionEvent;
use dprof::trace::{ThreadStream, TraceFile, TraceKind, TraceReader};
use std::path::PathBuf;
use std::process::Command;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn tmp(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("dprof-cli-test-{}-{name}", std::process::id()));
    p.to_string_lossy().into_owned()
}

fn run(args: &[&str]) -> i32 {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    dprof_cli::run(&args)
}

#[test]
fn fresh_record_then_replay_is_byte_identical() {
    let trace = tmp("fresh.dtrace");
    let live = tmp("fresh-live.json");
    let replayed = tmp("fresh-replayed.json");

    assert_eq!(
        run(&[
            "record",
            "-w",
            "memcached",
            "--cores",
            "2",
            "--threads",
            "2",
            "--warmup",
            "3",
            "--rounds",
            "15",
            "--history-types",
            "1",
            "--history-sets",
            "1",
            "--trace",
            &trace,
            "-f",
            "json",
            "-o",
            &live,
        ]),
        0,
        "record must succeed"
    );
    assert_eq!(run(&["replay", &trace, "-f", "json", "-o", &replayed]), 0);

    let live_bytes = std::fs::read(&live).expect("live report exists");
    let replayed_bytes = std::fs::read(&replayed).expect("replayed report exists");
    assert!(
        live_bytes == replayed_bytes,
        "replayed report differs from the live report"
    );

    for p in [trace, live, replayed] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn golden_traces_replay_to_their_committed_reports() {
    for name in [
        "memcached_quick",
        "false_sharing_quick",
        "apache_quick",
        "sparse_struct_waste_quick",
    ] {
        let trace = golden_dir().join(format!("{name}.dtrace"));
        let golden = golden_dir().join(format!("{name}.report.json"));
        let out = tmp(&format!("{name}.json"));
        assert_eq!(
            run(&["replay", trace.to_str().unwrap(), "-f", "json", "-o", &out]),
            0,
            "replay of {name} must succeed"
        );
        let expected = std::fs::read(&golden).expect("golden report exists");
        let got = std::fs::read(&out).expect("replayed report exists");
        assert!(
            expected == got,
            "{name}: replayed report is not byte-identical to the committed golden report; \
             if the profiler/simulator changed intentionally, regenerate tests/golden/ with \
             `dprof record` (see README)"
        );
        let _ = std::fs::remove_file(out);
    }
}

#[test]
fn golden_traces_replay_to_their_committed_text_reports() {
    for name in ["memcached_quick", "apache_quick"] {
        let trace = golden_dir().join(format!("{name}.dtrace"));
        let golden = golden_dir().join(format!("{name}.report.txt"));
        let out = tmp(&format!("{name}.txt"));
        assert_eq!(
            run(&["replay", trace.to_str().unwrap(), "-o", &out]),
            0,
            "replay of {name} must succeed"
        );
        let expected = std::fs::read(&golden).expect("golden text report exists");
        let got = std::fs::read(&out).expect("replayed text report exists");
        assert!(
            expected == got,
            "{name}: replayed text report is not byte-identical to tests/golden/{name}.report.txt"
        );
        let _ = std::fs::remove_file(out);
    }
}

/// The recording commands of `docs/trace-format.md` ("Golden traces"), minus the
/// output paths.
const GOLDEN_SESSIONS: [(&str, &[&str]); 4] = [
    (
        "memcached_quick",
        &[
            "-w",
            "memcached",
            "--cores",
            "2",
            "--threads",
            "1",
            "--warmup",
            "4",
            "--rounds",
            "25",
            "--history-types",
            "2",
            "--history-sets",
            "2",
        ],
    ),
    (
        "false_sharing_quick",
        &[
            "-w",
            "custom",
            "--cores",
            "2",
            "--threads",
            "1",
            "--warmup",
            "4",
            "--rounds",
            "30",
            "--history-types",
            "2",
            "--history-sets",
            "2",
        ],
    ),
    (
        "apache_quick",
        &[
            "-w",
            "apache",
            "--cores",
            "2",
            "--threads",
            "1",
            "--warmup",
            "3",
            "--rounds",
            "10",
            "--history-types",
            "2",
            "--history-sets",
            "1",
        ],
    ),
    (
        "sparse_struct_waste_quick",
        &[
            "-w",
            "sparse-struct-waste:buggy",
            "--cores",
            "2",
            "--threads",
            "1",
            "--warmup",
            "4",
            "--rounds",
            "4",
            "--history-types",
            "0",
            "--history-sets",
            "0",
        ],
    ),
];

#[test]
fn golden_sessions_re_record_to_their_committed_traces_and_reports() {
    for (name, session) in GOLDEN_SESSIONS {
        let trace = tmp(&format!("{name}-rerecorded.dtrace"));
        let report = tmp(&format!("{name}-rerecorded.json"));
        let mut args = vec!["record"];
        args.extend_from_slice(session);
        args.extend_from_slice(&["--trace", &trace, "-f", "json", "-o", &report]);
        assert_eq!(run(&args), 0, "re-recording {name} must succeed");
        for (got, committed) in [
            (&trace, format!("{name}.dtrace")),
            (&report, format!("{name}.report.json")),
        ] {
            let expected = std::fs::read(golden_dir().join(&committed)).expect("golden exists");
            let got = std::fs::read(got).expect("re-recorded output exists");
            assert!(
                expected == got,
                "{name}: re-recording no longer reproduces tests/golden/{committed} byte for \
                 byte ({} bytes against {} committed)",
                got.len(),
                expected.len()
            );
        }
        for p in [trace, report] {
            let _ = std::fs::remove_file(p);
        }
    }
}

#[test]
fn scenario_record_replay_round_trips_byte_identically() {
    // Scenarios implement the same Workload trait as the built-ins, so the
    // record/replay subsystem must cover them with no scenario-specific code: the
    // trace header carries the `name:variant` spelling and the replayed report is
    // byte-identical, run section included.
    let trace = tmp("scenario.dtrace");
    let live = tmp("scenario-live.json");
    let replayed = tmp("scenario-replayed.json");
    assert_eq!(
        run(&[
            "record",
            "-w",
            "job-migration-bounce:buggy",
            "--cores",
            "2",
            "--threads",
            "1",
            "--warmup",
            "3",
            "--rounds",
            "15",
            "--history-types",
            "1",
            "--history-sets",
            "1",
            "--trace",
            &trace,
            "-f",
            "json",
            "-o",
            &live,
        ]),
        0,
        "scenario record must succeed"
    );
    assert_eq!(run(&["replay", &trace, "-f", "json", "-o", &replayed]), 0);
    let live_bytes = std::fs::read(&live).expect("live report exists");
    assert!(
        String::from_utf8_lossy(&live_bytes).contains("job-migration-bounce:buggy"),
        "run section must carry the scenario spelling"
    );
    let replayed_bytes = std::fs::read(&replayed).expect("replayed report exists");
    assert!(
        live_bytes == replayed_bytes,
        "replayed scenario report differs from the live report"
    );
    for p in [trace, live, replayed] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn adaptive_sampled_record_replay_round_trips_byte_identically() {
    // The trace header records the sampling policy, so a session recorded under an
    // adaptive budget replays under the identical budget — and, the controller being
    // a pure function of the event stream, the report is byte-identical.
    let trace = tmp("adaptive.dtrace");
    let live = tmp("adaptive-live.json");
    let replayed = tmp("adaptive-replayed.json");
    assert_eq!(
        run(&[
            "record",
            "-w",
            "memcached",
            "--cores",
            "2",
            "--threads",
            "2",
            "--warmup",
            "3",
            "--rounds",
            "15",
            "--sampling",
            "adaptive:800",
            "--history-types",
            "1",
            "--history-sets",
            "1",
            "--trace",
            &trace,
            "-f",
            "json",
            "-o",
            &live,
        ]),
        0,
        "adaptive record must succeed"
    );
    assert_eq!(run(&["replay", &trace, "-f", "json", "-o", &replayed]), 0);
    let live_bytes = std::fs::read(&live).expect("live report exists");
    assert!(
        String::from_utf8_lossy(&live_bytes).contains("\"sampling\": \"adaptive:800\""),
        "run section must carry the sampling policy"
    );
    let replayed_bytes = std::fs::read(&replayed).expect("replayed report exists");
    assert!(
        live_bytes == replayed_bytes,
        "adaptive-sampled replayed report differs from the live report"
    );
    for p in [trace, live, replayed] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn replay_rejects_garbage_and_missing_files() {
    let bogus = tmp("bogus.dtrace");
    std::fs::write(&bogus, b"definitely not a trace").unwrap();
    assert_ne!(run(&["replay", &bogus]), 0, "bad magic must fail");
    assert_ne!(
        run(&["replay", "/nonexistent/nope.dtrace"]),
        0,
        "missing file must fail"
    );
    let _ = std::fs::remove_file(bogus);
}

/// The golden memcached trace in memory, and its stream's events decoded.
fn golden_session() -> (TraceFile, Vec<SessionEvent>) {
    let golden = golden_dir().join("memcached_quick.dtrace");
    let reader = TraceReader::open(golden.to_str().unwrap()).expect("golden trace opens");
    let events: Vec<SessionEvent> = (reader.events(0).expect("stream opens"))
        .collect::<Result<_, _>>()
        .expect("golden trace decodes");
    let header = &reader.headers()[0];
    let file = TraceFile {
        kind: TraceKind::FullSession,
        machine: reader.machine,
        params: reader.params.clone(),
        streams: vec![ThreadStream {
            seed: header.seed,
            requests: header.requests,
            symbols: header.symbols.clone(),
            types: header.types.clone(),
            events: events.clone().into(),
        }],
    };
    (file, events)
}

/// The golden memcached trace with `hostile` inserted as event `at` of its stream.
fn golden_with_event(at: usize, hostile: SessionEvent, name: &str) -> String {
    let (mut file, mut events) = golden_session();
    events.insert(at, hostile);
    file.streams[0].events = events.into();
    let path = tmp(name);
    file.write(&path).expect("hostile trace writes");
    path
}

/// Runs the real binary, killing it (and failing) if it has not exited in 30 s: the
/// inputs below used to make it spin.
fn dprof_output(args: &[&str]) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dprof"))
        .args(args)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while child.try_wait().unwrap().is_none() {
        if std::time::Instant::now() > deadline {
            child.kill().unwrap();
            panic!("{args:?} still running after 30 s");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
}

/// `replay`, `whatif --auto` and `whatif --fix` of `trace` each exit 1 with exactly
/// one `error:` line, which contains `message`, and no panic.
fn assert_one_error_line(trace: &str, message: &str) {
    for args in [
        vec!["replay", trace],
        vec!["whatif", trace, "--auto"],
        vec!["whatif", trace, "--fix", "pad:skbuff"],
    ] {
        let output = dprof_output(&args);
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "{args:?}: {stderr}");
        assert!(errors[0].contains(message), "{args:?}: {}", errors[0]);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn hostile_alloc_and_free_events_are_one_error_line_naming_event_and_address() {
    let never_allocated = golden_with_event(
        1234,
        SessionEvent::Free {
            core: 1,
            addr: 0xdead_0000,
            cycle: 9,
        },
        "bad-free.dtrace",
    );
    let sixteen_exbibytes = golden_with_event(
        77,
        SessionEvent::Alloc {
            core: 0,
            type_id: 0,
            size: u64::MAX,
            addr: 0x1000,
            cycle: 9,
            hookable: true,
        },
        "huge-alloc.dtrace",
    );
    for (trace, message) in [
        (
            &never_allocated,
            "stream 0: event 1234: free of non-live address 0xdead0000",
        ),
        (
            &sixteen_exbibytes,
            "stream 0: corrupt trace: event 77 allocates 18446744073709551615 bytes at 0x1000",
        ),
    ] {
        assert_one_error_line(trace, message);
        let _ = std::fs::remove_file(trace);
    }
}

/// The prologue is input too: a cache geometry the simulator's tables cannot be sized
/// from, and round counts no stream of the file could hold.  At the parent the first
/// two aborted on a 128 TiB and a 4 PiB allocation, the third panicked in the
/// utilization view, the fourth replayed to a report, and the last three spun until
/// killed.
#[test]
fn hostile_prologues_are_one_error_line_naming_level_and_value() {
    type Edit = fn(&mut TraceFile);
    let cases: [(&str, Edit, &str); 7] = [
        (
            "l3-sets",
            |f| f.machine.hierarchy.l3.sets = 1 << 40,
            "corrupt trace: L3 cache geometry: 1099511627776 sets of 16 ways is more than 16777216 slots",
        ),
        (
            "l2-ways",
            |f| f.machine.hierarchy.l2.ways = 1 << 40,
            "corrupt trace: L2 cache geometry: 1099511627776 ways, 1..=255 supported",
        ),
        (
            "l1-line",
            |f| f.machine.hierarchy.l1.line_size = 1,
            "corrupt trace: L1 cache geometry: line size 1 is not a power of two in 8..=64",
        ),
        (
            "l2-line",
            |f| f.machine.hierarchy.l2.line_size = 32,
            "corrupt trace: L2 cache geometry: line size 32 differs from the L1's 64",
        ),
        (
            "warmup",
            |f| f.params.warmup_rounds = 1 << 51,
            "corrupt trace: 2251799813685248 warmup and 25 sample rounds, but the shortest stream has",
        ),
        (
            "rounds",
            |f| f.params.sample_rounds = 1 << 51,
            "corrupt trace: 4 warmup and 2251799813685248 sample rounds, but the shortest stream has",
        ),
        (
            "history-sets",
            |f| f.params.history_sets = 1 << 51,
            "corrupt trace: 2251799813685248 history sets, but the shortest stream has",
        ),
    ];
    for (name, edit, message) in cases {
        let (mut file, _) = golden_session();
        edit(&mut file);
        let trace = tmp(&format!("prologue-{name}.dtrace"));
        file.write(&trace).expect("hostile trace writes");
        assert_one_error_line(&trace, message);
        let _ = std::fs::remove_file(trace);
    }
}

/// A type table is input too, and replay rebuilds the kernel's well-known types from
/// it: a trace that lacks one is refused by name before any replay starts.  At the
/// parent, `skbuff` renamed in the golden memcached trace panicked in the kernel's
/// type lookup, and `replay` printed a backtrace and `stream 0: replay thread
/// panicked`.
#[test]
fn a_trace_without_a_kernel_type_is_one_error_line_naming_it() {
    let (mut file, _) = golden_session();
    let skbuff = (file.streams[0].types.iter_mut())
        .find(|t| t.name == "skbuff")
        .expect("the golden trace records skbuff");
    skbuff.name = "skbufg".into();
    let trace = tmp("no-skbuff.dtrace");
    file.write(&trace).expect("trace writes");
    // `whatif --fix pad:skbuff` is refused earlier, for a target the trace lacks.
    assert_one_error_line(&trace, "'skbuff'");
    for args in [vec!["replay", &trace], vec!["whatif", &trace, "--auto"]] {
        let stderr = String::from_utf8_lossy(&dprof_output(&args).stderr).into_owned();
        assert!(
            stderr
                .contains("error: stream 0: the trace's type table lacks the kernel type 'skbuff'"),
            "{args:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_file(trace);
}
