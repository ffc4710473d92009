//! End-to-end record → replay determinism at the profiler level: a live memcached
//! session recorded to a trace and replayed through
//! [`dprof_trace::replay_stream_streaming`] must reproduce the live profile exactly —
//! same IBS samples, same object access histories, same view contents — after a full
//! encode/decode round trip of the trace bytes through a file on disk.

use dprof_trace::{
    profile_window, replay_stream_streaming, EventEncoder, RecordedStream, SessionParams,
    ThreadRun, TraceFile, TraceKind, TraceReader,
};
use sim_machine::SamplingPolicy;
use workloads::{Memcached, MemcachedConfig, Workload};

const WARMUP: usize = 4;
const SAMPLE_ROUNDS: usize = 25;
const SEED: u64 = 3471;

fn record_live() -> (ThreadRun, TraceFile) {
    record_live_with(SamplingPolicy::Fixed { interval_ops: 150 })
}

/// Runs a live recorded session exactly as the CLI driver does for one thread, and
/// returns the live run plus the recorded trace file.
fn record_live_with(sampling: SamplingPolicy) -> (ThreadRun, TraceFile) {
    let config = MemcachedConfig {
        cores: 2,
        seed: SEED,
        record_session: true,
        ..Default::default()
    };
    let (mut machine, mut kernel, mut workload) = Memcached::setup(config);
    machine.mark_session_round(); // end of setup segment

    for _ in 0..WARMUP {
        workload.step(&mut machine, &mut kernel);
        machine.mark_session_round();
    }
    let params = SessionParams {
        workload: "memcached".into(),
        threads: 1,
        cores: 2,
        warmup_rounds: WARMUP,
        sample_rounds: SAMPLE_ROUNDS,
        sampling,
        history_types: 2,
        history_sets: 2,
        base_seed: SEED,
    };
    let config = params.dprof_config(SEED);
    let requests_before = workload.requests_completed();
    let mut live = profile_window(&mut machine, &mut kernel, 0, config, |m, k| {
        workload.step(m, k);
        m.mark_session_round();
    });
    live.requests = workload.requests_completed() - requests_before;

    let (requests, encoder) = (live.requests, EventEncoder::new());
    let recorded = RecordedStream::capture(&mut machine, &kernel.types, SEED, requests, encoder);
    let file = TraceFile {
        kind: TraceKind::FullSession,
        machine: recorded.machine,
        params,
        streams: vec![recorded.stream],
    };
    (live, file)
}

/// Writes `file` to a temp path unique to `name` and opens it for streaming.  The
/// reader re-opens the path for every event walk, so the caller removes it when done.
fn on_disk(file: &TraceFile, name: &str) -> (TraceReader, std::path::PathBuf) {
    let path =
        std::env::temp_dir().join(format!("dprof_replay_{}_{name}.dtrace", std::process::id()));
    file.write(path.to_str().expect("temp path is utf-8"))
        .expect("trace writes");
    let reader = TraceReader::open(path.to_str().unwrap()).expect("trace opens");
    (reader, path)
}

#[test]
fn replayed_profile_is_identical_to_the_live_run() {
    let (run, file) = record_live();
    let live = &run.profile;

    // Round-trip through the on-disk byte form first: the replay below therefore
    // also proves the codec preserves everything the profiler depends on.
    let (reader, path) = on_disk(&file, "fixed");
    let (replayed, trailing) = replay_stream_streaming(&reader, 0).expect("stream replays");
    std::fs::remove_file(path).ok();
    // Replaying the in-memory stream is the same driver over a different source.
    let (in_memory, _) = replay_stream_streaming(&file, 0).expect("stream replays");
    assert_eq!(in_memory.profile.samples, replayed.profile.samples);
    assert_eq!(in_memory.profile.histories, replayed.profile.histories);

    assert_eq!(
        trailing, 0,
        "replay must consume the recorded stream exactly"
    );
    assert_eq!(replayed.requests, run.requests);
    // One window, live or replayed: the same simulated time, cycles and overhead.
    assert_eq!(replayed.elapsed_seconds, run.elapsed_seconds);
    assert_eq!(replayed.total_cycles, run.total_cycles);
    assert_eq!(replayed.profiling_fraction, run.profiling_fraction);

    // The profiler's raw material must match sample-for-sample...
    assert_eq!(replayed.profile.samples, live.samples);
    assert_eq!(replayed.profile.sample_window, live.sample_window);
    // ...and so must the collected object access histories...
    assert_eq!(replayed.profile.histories, live.histories);
    // ...and the derived views (row identity via the fields that feed the report).
    assert_eq!(replayed.profile.data_profile.len(), live.data_profile.len());
    for (r, l) in replayed
        .profile
        .data_profile
        .iter()
        .zip(live.data_profile.iter())
    {
        assert_eq!(r.name, l.name);
        assert_eq!(r.samples, l.samples);
        assert_eq!(r.bounce, l.bounce);
        assert!((r.pct_of_l1_misses - l.pct_of_l1_misses).abs() < 1e-12);
        assert!((r.working_set_bytes - l.working_set_bytes).abs() < 1e-12);
    }
    assert_eq!(
        replayed.profile.miss_classification.len(),
        live.miss_classification.len()
    );
    // Working-set rows and data flows are the shard's rows: equal, row for row.
    assert_eq!(
        replayed.profile.working_set.per_type,
        live.working_set.per_type
    );
    assert_eq!(replayed.profile.data_flows.len(), live.data_flows.len());
    for (ty, flow) in &live.data_flows {
        assert_eq!(
            replayed.profile.data_flows.get(ty),
            Some(flow),
            "replayed flow of {}",
            flow.type_name
        );
    }
}

#[test]
fn adaptive_sampled_session_replays_identically() {
    // The adaptive controller's decisions must be a pure function of the recorded
    // event stream: replaying under the recorded `adaptive:<budget>` policy must
    // reproduce the identical sample stream, spend count and views.
    let (run, file) = record_live_with(SamplingPolicy::Adaptive { budget: 400 });
    let live = &run.profile;
    assert!(
        live.samples_spent <= 400,
        "budget exceeded: {} samples",
        live.samples_spent
    );
    assert!(live.samples_spent > 0, "adaptive run took no samples");

    let (reader, path) = on_disk(&file, "adaptive");
    assert_eq!(
        reader.params.sampling,
        SamplingPolicy::Adaptive { budget: 400 }
    );
    let (replayed, trailing) = replay_stream_streaming(&reader, 0).expect("stream replays");
    std::fs::remove_file(path).ok();
    assert_eq!(trailing, 0);
    assert_eq!(replayed.requests, run.requests);
    assert_eq!(replayed.profile.samples, live.samples);
    assert_eq!(replayed.profile.samples_spent, live.samples_spent);
    assert_eq!(replayed.profile.data_profile.len(), live.data_profile.len());
    for (r, l) in replayed
        .profile
        .data_profile
        .iter()
        .zip(live.data_profile.iter())
    {
        assert_eq!(r.name, l.name);
        assert_eq!(r.l1_miss_samples, l.l1_miss_samples);
    }
}

/// Kind byte 1 is the only kind: a recorded file with any other byte in its place
/// (right after the magic and the version) is refused at open, with the byte named.
#[test]
fn a_kind_byte_other_than_a_session_is_refused_at_open() {
    let (_, file) = record_live();
    let (_, path) = on_disk(&file, "kind_byte");
    let bytes = std::fs::read(&path).expect("trace reads back");
    std::fs::remove_file(&path).ok();
    let at = dprof_trace::format::MAGIC.len() + 2;
    assert_eq!(bytes[at], 1, "a recorded session's kind byte");
    for kind in [0u8, 2, 255] {
        let mut patched = bytes.clone();
        patched[at] = kind;
        let path = std::env::temp_dir().join(format!(
            "dprof_replay_{}_kind_{kind}.dtrace",
            std::process::id()
        ));
        std::fs::write(&path, &patched).expect("patched trace writes");
        let opened = TraceReader::open(path.to_str().unwrap());
        std::fs::remove_file(&path).ok();
        let error = opened.expect_err("a trace of an unknown kind opens");
        assert_eq!(
            error.to_string(),
            format!("corrupt trace: unknown trace kind {kind}")
        );
    }
}
