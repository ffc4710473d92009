//! The bounded fan-out, end to end: however many streams a trace records and however
//! many replays an analysis makes, at most `workers` universes exist at once; a job
//! that fails is that job's error and nobody else's; and nothing a report or a
//! what-if document says depends on the worker count — including the identity baseline
//! `--auto` reads off its profiled replays, which is held to the profiler-free identity
//! pass it stands in for.

use dprof::machine::SessionEvent;
use dprof::trace::{
    for_each_stream, measure_all_streaming, measure_stream_streaming, replay_all_streaming,
    replay_and_measure_stream, replay_stream_streaming, FixSpec, TraceFile, TraceReader,
};
use dprof_cli::args::{self, Parsed};
use dprof_cli::whatif::{analyze_trace, analyze_trace_on, render_whatif_json};
use dprof_serve::server::{Server, ServerConfig};
use dprof_serve::Client;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

use dprof::{machine, trace};
#[path = "../../../tests/support/dtrace.rs"]
mod dtrace;
use dtrace::{on_disk, read_back};

fn dprof() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dprof"))
}

fn tmp(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("dprof-fan-out-test-{}-{name}", std::process::id()));
    p.to_string_lossy().into_owned()
}

fn golden_trace(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(format!("../../tests/golden/{name}.dtrace"))
        .to_string_lossy()
        .into_owned()
}

/// Records a quick 2-core memcached session of `threads` streams through the real
/// binary; returns the live run's JSON report.
fn record_memcached(threads: usize, rounds: usize, trace: &str) -> Vec<u8> {
    let report = format!("{trace}.live.json");
    let output = dprof()
        .args(["record", "-w", "memcached", "--cores", "2", "--warmup", "3"])
        .args(["--threads", &threads.to_string()])
        .args(["--rounds", &rounds.to_string()])
        .args([
            "--ibs-interval",
            "32",
            "--history-types",
            "1",
            "--history-sets",
            "1",
        ])
        .args(["--trace", trace, "-f", "json", "-o", &report])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "record failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let live = std::fs::read(&report).expect("live report exists");
    let _ = std::fs::remove_file(report);
    live
}

/// Asserts an error invocation: exit code 1 and a single `error:` line on stderr
/// containing every needle.
fn assert_one_error_line(output: &Output, needles: &[&str]) {
    assert_eq!(output.status.code(), Some(1), "expected exit code 1");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let error_lines: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(error_lines.len(), 1, "stderr: {stderr}");
    for needle in needles {
        assert!(
            error_lines[0].contains(needle),
            "error line '{}' should mention '{needle}'",
            error_lines[0]
        );
    }
}

#[test]
fn a_twelve_stream_replay_builds_at_most_workers_universes_and_the_same_report() {
    let trace = tmp("twelve.dtrace");
    let live = record_memcached(12, 8, &trace);
    let reader = TraceReader::open(&trace).expect("trace opens");
    assert_eq!(reader.stream_count(), 12);
    let Ok(Parsed::Replay(options)) =
        args::parse(&["replay", &trace, "-f", "json"].map(String::from))
    else {
        panic!("replay arguments parse");
    };

    for workers in [1, 2, 12] {
        let in_flight = AtomicUsize::new(0);
        let high_water = AtomicUsize::new(0);
        let replays = for_each_stream(workers, &reader, 1, |_, thread| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            high_water.fetch_max(now, Ordering::SeqCst);
            let run = replay_stream_streaming(&reader, thread).map(|(run, _)| run);
            in_flight.fetch_sub(1, Ordering::SeqCst);
            run
        })
        .expect("every stream replays");
        assert!(
            high_water.load(Ordering::SeqCst) <= workers,
            "{} replays in flight on {workers} worker(s)",
            high_water.load(Ordering::SeqCst)
        );
        let replayed = dprof_cli::render_replay(&reader, &replays, &options);
        assert!(
            replayed.as_bytes() == live.as_slice(),
            "{workers} worker(s): replayed report differs from the live one"
        );
    }
    let _ = std::fs::remove_file(trace);
}

#[test]
fn an_inconsistent_stream_is_a_clean_error_naming_it_while_the_others_complete() {
    // Stream 1 opens by freeing an address nothing allocated: the decoder cannot see
    // that, the replay allocator refuses it, and the error says which event it was.
    let trace = tmp("bad-free.dtrace");
    record_memcached(2, 8, &trace);
    let reader = TraceReader::open(&trace).expect("trace opens");
    let mut file = read_back(&reader).expect("trace decodes");
    let bad_free = SessionEvent::Free {
        core: 0,
        addr: 0xdead_0000,
        cycle: 1,
    };
    let recorded = (reader.events(1).expect("stream opens")).map(|ev| ev.expect("stream decodes"));
    file.streams[1].events = std::iter::once(bad_free).chain(recorded).collect();
    file.write(&trace).expect("bad trace writes");
    let reader = TraceReader::open(&trace).expect("the damage is semantic, not structural");

    let names_stream_1 = |e: String| {
        assert_eq!(e, "stream 1: event 0: free of non-live address 0xdead0000");
    };
    names_stream_1(replay_all_streaming(&reader).unwrap_err());
    names_stream_1(measure_all_streaming(&reader, &FixSpec::Identity).unwrap_err());
    names_stream_1(analyze_trace(&reader, &[], true).unwrap_err());
    names_stream_1(
        analyze_trace(&reader, &[FixSpec::parse("pad:skbuff").unwrap()], false).unwrap_err(),
    );

    // One worker, two passes: stream 0's second job runs on the very worker whose
    // previous job failed.
    let completed = AtomicUsize::new(0);
    let result = for_each_stream(1, &reader, 2, |_, thread| {
        let (run, _) = replay_stream_streaming(&reader, thread)?;
        completed.fetch_add(1, Ordering::SeqCst);
        Ok(run.thread)
    });
    names_stream_1(result.unwrap_err());
    assert_eq!(completed.load(Ordering::SeqCst), 2);

    assert_one_error_line(
        &dprof().args(["replay", &trace]).output().unwrap(),
        &["stream 1: event 0: free of non-live address 0xdead0000"],
    );
    let _ = std::fs::remove_file(trace);
}

#[test]
fn scheduling_cannot_reach_the_whatif_document() {
    let fresh = tmp("two-streams.dtrace");
    record_memcached(2, 30, &fresh);
    // The ring trace needs the sharing walk.  No hot type of the sparse one is
    // invalidation-dominated: a walk started before the diagnosis is abandoned, and
    // one started after it walks nothing.  Both goldens' documents are committed, under
    // the trace path `dprof whatif` is given from the repository root.
    let golden = |name: &str| (golden_trace(name), format!("tests/golden/{name}.dtrace"));
    for ((path, input), fixes) in [
        (golden("ring_false_sharing_quick"), vec![]),
        (golden("sparse_struct_waste_quick"), vec![]),
        ((fresh.clone(), fresh.clone()), vec!["pad:skbuff"]),
    ] {
        let mut argv = vec!["whatif", input.as_str(), "--auto", "-f", "json"];
        for fix in &fixes {
            argv.extend(["--fix", fix]);
        }
        let argv: Vec<String> = argv.into_iter().map(String::from).collect();
        let Ok(Parsed::Whatif(options)) = args::parse(&argv) else {
            panic!("whatif arguments parse");
        };
        let reader = TraceReader::open(&path).expect("trace opens");
        let render = |analysis| render_whatif_json(&analysis, &options);

        let reference = render(analyze_trace_on(1, &reader, &options.fixes, true).unwrap());
        if path != fresh {
            let committed = path.replace(".dtrace", ".whatif.json");
            let committed = std::fs::read_to_string(&committed).expect("golden document");
            assert!(reference == committed, "{path}: not the committed document");
        }
        // From 2 workers on the sharing walk runs on a worker of its own beside the
        // profiled replay of a one-stream trace.
        for workers in [2, 3, 7] {
            let streamed = analyze_trace_on(workers, &reader, &options.fixes, true).unwrap();
            assert!(render(streamed) == reference, "{path}: {workers} workers");
        }
    }
    let _ = std::fs::remove_file(fresh);
}

#[test]
fn the_benchmark_shaped_session_ranks_the_same_on_one_worker_and_on_two() {
    // `whatif-memcached`'s session (benchmark/src/workloads.rs): 16 cores, one stream,
    // eight replays of it; candidates of every fix family come out of `--auto`.
    let trace = tmp("benchmark-shaped.dtrace");
    let output = dprof()
        .args(["record", "-w", "memcached", "--tx-policy", "hash"])
        .args(["--threads", "1", "--cores", "16", "--rounds", "60"])
        .args(["--history-types", "2", "--history-sets", "1"])
        .args(["--seed", "3471", "--trace", &trace, "-o", "/dev/null"])
        .output()
        .unwrap();
    assert!(output.status.success(), "record failed");
    let argv = ["whatif", &trace, "--auto", "-f", "json"].map(String::from);
    let Ok(Parsed::Whatif(options)) = args::parse(&argv) else {
        panic!("whatif arguments parse");
    };
    let reader = TraceReader::open(&trace).expect("trace opens");
    let render = |workers| {
        let analysis = analyze_trace_on(workers, &reader, &options.fixes, true).unwrap();
        assert!(analysis.candidates.len() >= 3, "one worker or two");
        render_whatif_json(&analysis, &options)
    };
    assert!(render(1) == render(2));
    let _ = std::fs::remove_file(trace);
}

#[test]
fn a_pushed_trace_folds_to_the_report_the_cli_merges_from_its_replay() {
    // The collector turns an uploaded trace into shards itself (ordinals
    // `shard_id * 1024 + stream`); its fold must be the CLI's merge of the same replay,
    // row for row and count for count.
    let fresh = tmp("pushed.dtrace");
    record_memcached(2, 12, &fresh);
    let golden = golden_trace("memcached_quick");
    let mut server = Server::start(ServerConfig::default()).expect("collector starts");
    let mut client = Client::connect(&server.addr().to_string()).expect("collector answers");
    for (build, path, streams) in [("golden", &golden, 1), ("fresh", &fresh, 2)] {
        let bytes = std::fs::read(path).expect("trace reads");
        client
            .push_trace("pushed", build, 7, bytes)
            .expect("upload absorbed");
        let reader = TraceReader::open(path).expect("trace opens");
        assert_eq!(reader.stream_count(), streams, "{path}");
        let runs: Vec<_> = (replay_all_streaming(&reader).expect("trace replays"))
            .into_iter()
            .map(|(run, _)| run)
            .collect();
        let folded = (server.store().lock().unwrap())
            .report("pushed", build)
            .expect("the upload made a key");
        assert_eq!(*folded, dprof_cli::merge::merge(&runs), "{path}");
    }
    server.shutdown();
    let _ = std::fs::remove_file(fresh);
}

/// Holds the identity baseline read off every stream's profiled replay to the
/// profiler-free identity pass, measure for measure, at one worker and two; returns
/// the streams' trailing-event counts.
fn derived_baselines_are_the_identity_pass(reader: &TraceReader, label: &str) -> Vec<usize> {
    let mut trailing = Vec::new();
    for workers in [1, 2] {
        let derived = for_each_stream(workers, reader, 1, |_, thread| {
            replay_and_measure_stream(reader, thread)
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
        let identity = for_each_stream(workers, reader, 1, |_, thread| {
            measure_stream_streaming(reader, thread, &FixSpec::Identity)
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(derived.len(), identity.len(), "{label}");
        for ((_, _, derived), identity) in derived.iter().zip(&identity) {
            assert_eq!(
                identity.round_clocks.len(),
                reader.params.sample_rounds,
                "{label}: the window is the sampled rounds"
            );
            assert_eq!(
                derived, identity,
                "{label}: stream {}, {workers} worker(s)",
                identity.thread
            );
        }
        trailing = derived.iter().map(|(_, trailing, _)| *trailing).collect();
    }
    trailing
}

/// A copy of the golden sparse-struct session (which collects no histories) whose
/// header asks the profiler for two sample rounds fewer than were recorded: its replay
/// stops early and leaves those rounds behind.
fn diverged_session() -> TraceFile {
    let reader =
        TraceReader::open(&golden_trace("sparse_struct_waste_quick")).expect("trace opens");
    let mut file = read_back(&reader).expect("trace decodes");
    file.params.sample_rounds -= 2;
    file
}

#[test]
fn the_baseline_read_off_the_profiled_replay_is_the_identity_pass() {
    let goldens = [
        "memcached_quick",
        "apache_quick",
        "false_sharing_quick",
        "ring_false_sharing_quick",
        "sparse_struct_waste_quick",
    ];
    for name in goldens {
        let reader = TraceReader::open(&golden_trace(name)).expect("trace opens");
        let trailing = derived_baselines_are_the_identity_pass(&reader, name);
        assert_eq!(trailing, vec![0], "{name}: a faithful replay");
    }

    let fresh = tmp("three-streams.dtrace");
    record_memcached(3, 12, &fresh);
    let reader = TraceReader::open(&fresh).expect("trace opens");
    assert_eq!(reader.stream_count(), 3);
    assert_eq!(
        derived_baselines_are_the_identity_pass(&reader, "3 streams"),
        [0; 3]
    );
    let _ = std::fs::remove_file(fresh);

    // The profiler stops early, and both passes end their window where it does.
    let diverged = on_disk(&diverged_session());
    let trailing = derived_baselines_are_the_identity_pass(&diverged, "diverged");
    assert!(trailing[0] > 0, "the replay diverged: {trailing:?}");
}

#[test]
fn whatif_auto_warns_of_a_diverged_profiled_replay_as_replay_does() {
    let diverged = on_disk(&diverged_session());
    let path = diverged.path();
    let warnings = |args: &[&str]| -> Vec<String> {
        let output = dprof().args(args).output().unwrap();
        assert!(output.status.success(), "{args:?}");
        (String::from_utf8_lossy(&output.stderr).lines())
            .filter(|l| l.starts_with("warning:"))
            .map(String::from)
            .collect()
    };
    let replayed = warnings(&["replay", path, "-f", "json", "-o", "/dev/null"]);
    assert_eq!(replayed.len(), 1, "{replayed:?}");
    assert!(
        replayed[0].starts_with("warning: stream 0 diverged from the recording ("),
        "{replayed:?}"
    );
    let whatif = warnings(&["whatif", path, "--auto", "-f", "json", "-o", "/dev/null"]);
    assert_eq!(whatif, replayed);
    // Without `--auto` there is no profiled replay to diverge.
    let fix = "shrink:sparse_record:64";
    let fixed = warnings(&["whatif", path, "--fix", fix, "-o", "/dev/null"]);
    assert_eq!(fixed, Vec::<String>::new());
}
