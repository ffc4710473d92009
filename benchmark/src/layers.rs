//! The traced run: per-layer numbers (layer = crate), measured from outside.
//!
//! Nothing in the program is instrumented.  Each function here drives one workload's
//! work in-process through the crates' public functions, serially over streams so
//! spans never overlap, and times the calls into each layer with two or three clock
//! reads per workload round — none per event.  Only the paths ROADMAP's "one engine,
//! one decoder" item keeps are called: `TraceReader`, `CacheHierarchy`,
//! `replay_stream_streaming`, `measure_*_streaming`.

use crate::metrics::{Metric, PER_LAYER};
use crate::serve::{self, Slot, Traffic};
use crate::stats::percentile;
use crate::workloads::{Env, SESSION_REPORT, SESSION_TRACE};
use dprof::cache::CacheHierarchy;
use dprof::core::merge::{MergeSink, StreamingMerge};
use dprof::core::schema::{shard_from_report_json, Json};
use dprof::core::{Dprof, DprofConfig, DprofProfile, HistoryConfig};
use dprof::kernel::{KernelState, TxQueuePolicy, TypeId, TypeRegistry};
use dprof::machine::{Machine, SamplingPolicy, SessionEvent};
use dprof::trace::{
    line::push_line_events, measure_all_streaming, measure_stream_streaming,
    replay_stream_streaming, EventReader, FixSpec, SessionParams, TraceFile, TraceKind,
    TraceReader,
};
use dprof::workloads::{Memcached, MemcachedConfig, Workload as _};
use dprof_cli::args::{self, Parsed};
use dprof_cli::driver::{self, RunOptions, ThreadRun, TxPolicyChoice};
use dprof_cli::{merge, render};
use dprof_serve::ProfileStore;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Named per-layer values of one traced run.
#[derive(Default)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Runs `f` and adds its duration, in seconds, to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let result = f();
        self.add(name, started.elapsed().as_secs_f64());
        result
    }

    /// Adds every value of `other`.
    fn absorb(&mut self, other: Ledger) {
        for (name, value) in other.0 {
            self.add(name, value);
        }
    }

    /// `name = numerator / denominator`, or 0 when the denominator is.
    fn ratio(&mut self, name: &'static str, numerator: f64, denominator: f64) {
        let value = if denominator > 0.0 {
            numerator / denominator
        } else {
            0.0
        };
        self.add(name, value);
    }

    /// What remains of `total` once the self times `parts` are taken out, stored as
    /// `cli.unexplained_s` beside the total itself: parts + remainder = total.
    pub fn reconcile(&mut self, total: f64, parts: &[&str]) {
        let explained: f64 = parts.iter().map(|name| self.get(name)).sum();
        self.add("cli.child_cpu_s", total);
        self.add("cli.unexplained_s", total - explained);
    }

    /// Every per-layer metric, in table order.  A workload that never calls a layer
    /// still opens and closes that layer's span once here, so an unused layer's time
    /// reads as the clock's own cost (tens of nanoseconds) and its counts read 0.
    pub fn finish(mut self) -> Vec<(&'static Metric, f64)> {
        for name in self.0.keys() {
            assert!(
                crate::metrics::per_layer(name).is_some(),
                "{name} is not a listed metric"
            );
        }
        for metric in &PER_LAYER {
            if self.0.contains_key(metric.name) {
                continue;
            }
            match metric.unit {
                "s" => self.time(metric.name, || ()),
                _ => self.add(metric.name, 0.0),
            }
        }
        PER_LAYER.iter().map(|m| (m, self.0[m.name])).collect()
    }
}

fn seconds(duration: Duration) -> f64 {
    duration.as_secs_f64()
}

/// Runs `pass` three times on each of `items` in turn and keeps, per item, the
/// shortest run: returns the results in item order, the spans of the kept runs added
/// up, and the sum of their durations.  The host is shared, and interference from its
/// other tenants only ever adds time, so the quietest of a few passes over a stream
/// is the one closest to what the code costs.
fn quietest<I: Copy, T>(
    items: impl IntoIterator<Item = I>,
    mut pass: impl FnMut(I, &mut Ledger) -> Result<T, String>,
) -> Result<(Vec<T>, Ledger, Duration), String> {
    let (mut results, mut ledger, mut total) = (Vec::new(), Ledger::default(), Duration::ZERO);
    for item in items {
        let mut best: Option<(T, Ledger, Duration)> = None;
        for _ in 0..3 {
            let mut spans = Ledger::default();
            let started = Instant::now();
            let result = pass(item, &mut spans)?;
            let took = started.elapsed();
            if best.as_ref().is_none_or(|b| took < b.2) {
                best = Some((result, spans, took));
            }
        }
        let (result, spans, took) = best.expect("three passes ran");
        results.push(result);
        ledger.absorb(spans);
        total += took;
    }
    Ok((results, ledger, total))
}

// ---------------------------------------------------------------------------------
// Shared pieces of the replay and record pipelines
// ---------------------------------------------------------------------------------

/// The machine and replay kernel a recorded stream ran in: symbols interned and types
/// registered in recorded id order, the kernel shell built after both.
fn rebuild_universe(reader: &TraceReader, thread: usize) -> (Machine, KernelState) {
    let header = &reader.headers()[thread];
    let mut machine = Machine::new(reader.machine);
    for name in &header.symbols {
        machine.fn_id(name);
    }
    let mut registry = TypeRegistry::new();
    for t in &header.types {
        let id = registry.register(&t.name, &t.description, t.size);
        for f in &t.fields {
            registry.add_field(id, &f.name, f.offset, f.size);
        }
    }
    let kernel = KernelState::for_replay(&mut machine, reader.params.cores, registry);
    (machine, kernel)
}

/// Applies one recorded event to the machine and kernel, counting allocator events.
fn dispatch(
    ev: &SessionEvent,
    machine: &mut Machine,
    kernel: &mut KernelState,
    allocs: &mut [u64; 2],
) {
    match *ev {
        SessionEvent::Access {
            core,
            ip,
            addr,
            len,
            kind,
        } => {
            machine.access(core as usize, ip, addr, len, kind);
        }
        SessionEvent::Compute { core, ip, cycles } => machine.compute(core as usize, ip, cycles),
        SessionEvent::Alloc {
            core,
            type_id,
            size,
            addr,
            cycle,
            hookable,
        } => {
            allocs[0] += 1;
            let ty = TypeId(type_id);
            kernel
                .allocator
                .replay_alloc(machine, core as usize, ty, size, addr, cycle, hookable);
        }
        SessionEvent::Free { core, addr, cycle } => {
            allocs[1] += 1;
            kernel
                .allocator
                .replay_free(machine, core as usize, addr, cycle);
        }
        SessionEvent::RoundEnd => {}
    }
}

fn profiler_config(
    sampling: SamplingPolicy,
    sample_rounds: usize,
    history_types: usize,
    history_sets: usize,
    seed: u64,
) -> DprofConfig {
    DprofConfig {
        sampling,
        sample_rounds,
        history_types,
        history: HistoryConfig {
            history_sets,
            seed,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The machine counters a run's measurement window starts from.
struct Window {
    elapsed: f64,
    cycles: u64,
    profiling: u64,
}

fn total_cycles(machine: &Machine) -> u64 {
    (0..machine.cores()).map(|c| machine.clock(c)).sum()
}

impl Window {
    fn open(machine: &Machine) -> Window {
        Window {
            elapsed: machine.elapsed_seconds(),
            cycles: total_cycles(machine),
            profiling: machine.total_profiling_cycles(),
        }
    }

    /// The per-thread result the CLI merges, over the window since `open`.
    fn close(
        self,
        machine: &Machine,
        thread: usize,
        seed: u64,
        requests: u64,
        profile: DprofProfile,
    ) -> ThreadRun {
        let mut type_names: HashMap<TypeId, String> = profile
            .data_profile
            .iter()
            .map(|row| (row.type_id, row.name.clone()))
            .collect();
        for ty in profile.data_flows.keys() {
            type_names
                .entry(*ty)
                .or_insert_with(|| format!("type#{}", ty.0));
        }
        let cycles = total_cycles(machine) - self.cycles;
        let profiling = machine.total_profiling_cycles() - self.profiling;
        ThreadRun {
            thread,
            seed,
            profile,
            type_names,
            requests,
            elapsed_seconds: machine.elapsed_seconds() - self.elapsed,
            total_cycles: cycles,
            profiling_fraction: if cycles == 0 {
                0.0
            } else {
                profiling as f64 / cycles as f64
            },
            recorded: None,
        }
    }
}

/// Runs the real profiler around `step`, which reports the time it took itself.  The
/// rest of the interval is `core`'s own: split by step index into the sampling phase
/// (first `sample_rounds` steps), the history phase (the remaining steps) and view
/// construction (last step's end to return).  Returns the profile and the number of
/// steps taken.
fn profile_with_timed_steps(
    config: DprofConfig,
    machine: &mut Machine,
    kernel: &mut KernelState,
    ledger: &mut Ledger,
    mut step: impl FnMut(&mut Machine, &mut KernelState),
) -> (DprofProfile, usize) {
    let sample_rounds = config.sample_rounds;
    let history_sets = config.history.history_sets;
    let mut steps: Vec<(Instant, Instant)> = Vec::new();
    let entered = Instant::now();
    let profile = Dprof::new(config).run(machine, kernel, |m, k| {
        let started = Instant::now();
        step(m, k);
        steps.push((started, Instant::now()));
    });
    let returned = Instant::now();

    let in_steps =
        |steps: &[(Instant, Instant)]| -> Duration { steps.iter().map(|(a, b)| *b - *a).sum() };
    let sampled = &steps[..sample_rounds.min(steps.len())];
    let sampling_ended = sampled.last().map_or(entered, |s| s.1);
    let steps_ended = steps.last().map_or(entered, |s| s.1);
    ledger.add(
        "core.sample_phase_self_s",
        seconds((sampling_ended - entered) - in_steps(sampled)),
    );
    ledger.add(
        "core.history_phase_self_s",
        seconds((steps_ended - sampling_ended) - in_steps(&steps[sampled.len()..])),
    );
    ledger.add("core.views_s", seconds(returned - steps_ended));

    ledger.add("core.samples", profile.samples.len() as f64);
    ledger.add(
        "core.histories",
        profile.histories.values().map(Vec::len).sum::<usize>() as f64,
    );
    ledger.add("core.history_rounds", (steps.len() - sampled.len()) as f64);
    ledger.add("sim-machine.ibs_samples", profile.samples_spent as f64);
    let complete: u64 = profile
        .history_stats
        .values()
        .map(|s| s.sets_completed)
        .sum();
    ledger.add("core.history_sets_complete", complete as f64);
    ledger.add(
        "core.history_sets_attempted",
        (history_sets * profile.history_stats.len()) as f64,
    );
    (profile, steps.len())
}

/// The render options `dprof replay <trace> -f json` would use: the CLI's own
/// defaults for views and row counts, the run section rebuilt from the trace header.
fn replay_render_options(reader: &TraceReader) -> Result<args::Options, String> {
    let Parsed::Replay(replay) =
        args::parse(&["replay".into(), "t".into(), "-f".into(), "json".into()])?
    else {
        return Err("`replay` did not parse as a replay".into());
    };
    let params = &reader.params;
    Ok(args::Options {
        run: RunOptions {
            workload: driver::parse_workload_spec(&params.workload)?,
            threads: reader.stream_count(),
            cores: params.cores,
            warmup_rounds: params.warmup_rounds,
            sample_rounds: params.sample_rounds,
            sampling: params.sampling,
            history_types: params.history_types,
            history_sets: params.history_sets,
            base_seed: params.base_seed,
            ..Default::default()
        },
        views: replay.views,
        format: replay.format,
        top: replay.top,
        output: None,
        trace_out: None,
    })
}

/// Merges and renders `runs` as the CLI does, timing both, and checks the document
/// against the report `dprof record` wrote in set-up.
fn merge_render_check(
    env: &Env,
    runs: &[ThreadRun],
    options: &args::Options,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let report = ledger.time("cli.merge_s", || merge::merge(runs));
    let rendered = ledger.time("cli.render_s", || render::render(&report, options));
    let expected = std::fs::read(env.dir.join(SESSION_REPORT)).map_err(|e| e.to_string())?;
    if rendered.as_bytes() != expected {
        return Err(format!(
            "the traced run's report differs from {SESSION_REPORT}"
        ));
    }
    Ok(())
}

/// Ratios and rates that follow from the sums collected so far.
fn derive(ledger: &mut Ledger) {
    let complete = ledger.0.remove("core.history_sets_complete").unwrap_or(0.0);
    let attempted = ledger
        .0
        .remove("core.history_sets_attempted")
        .unwrap_or(0.0);
    ledger.ratio("core.history_complete_ratio", complete, attempted);
    let access_s = ledger.get("sim-cache.access_s");
    ledger.ratio(
        "sim-cache.accesses_per_s",
        ledger.get("sim-cache.accesses"),
        access_s,
    );
    if ledger.0.contains_key("sim-machine.dispatch_s") {
        ledger.add(
            "sim-machine.self_s",
            ledger.get("sim-machine.dispatch_s") - access_s,
        );
    }
}

// ---------------------------------------------------------------------------------
// replay-*
// ---------------------------------------------------------------------------------

/// Pulls one workload round out of `events` into `buffer` (the round marker is
/// consumed, not stored) and returns whether the marker was reached.  A decode error
/// ends the stream and is parked in `error`.
fn decode_round(
    events: &mut EventReader,
    buffer: &mut Vec<SessionEvent>,
    error: &mut Option<String>,
) -> bool {
    buffer.clear();
    for ev in events {
        match ev {
            Ok(SessionEvent::RoundEnd) => return true,
            Ok(ev) => buffer.push(ev),
            Err(e) => *error = Some(e.to_string()),
        }
    }
    false
}

/// One stream through the full profiler pipeline, as `dprof replay` runs it, with a
/// `trace.decode` and a `sim-machine.dispatch` span per round.
fn traced_replay_stream(
    reader: &TraceReader,
    thread: usize,
    ledger: &mut Ledger,
) -> Result<ThreadRun, String> {
    let header = &reader.headers()[thread];
    let params = &reader.params;
    let (mut machine, mut kernel) = rebuild_universe(reader, thread);
    let mut events = reader
        .events(thread)
        .map_err(|e| format!("stream {thread}: {e}"))?;
    let mut buffer = Vec::new();
    let mut error = None;
    let (mut decode, mut apply) = (Duration::ZERO, Duration::ZERO);
    let mut allocs = [0u64; 2];
    let mut round = |m: &mut Machine, k: &mut KernelState| {
        let started = Instant::now();
        decode_round(&mut events, &mut buffer, &mut error);
        let decoded = Instant::now();
        for ev in &buffer {
            dispatch(ev, m, k, &mut allocs);
        }
        decode += decoded - started;
        apply += decoded.elapsed();
    };

    // Set-up traffic, then the warm-up, phase-shifted per thread as the live run was.
    for _ in 0..1 + params.warmup_rounds + thread {
        round(&mut machine, &mut kernel);
    }
    let window = Window::open(&machine);
    let config = profiler_config(
        params.sampling,
        params.sample_rounds,
        params.history_types,
        params.history_sets,
        header.seed,
    );
    let (profile, _) =
        profile_with_timed_steps(config, &mut machine, &mut kernel, ledger, &mut round);
    if let Some(e) = error {
        return Err(format!("stream {thread}: {e}"));
    }
    ledger.add("trace.decode_s", seconds(decode));
    ledger.add("sim-machine.dispatch_s", seconds(apply));
    ledger.add("sim-kernel.alloc_events", allocs[0] as f64);
    ledger.add("sim-kernel.free_events", allocs[1] as f64);
    Ok(window.close(&machine, thread, header.seed, header.requests, profile))
}

/// A second pass over one stream: lowers each round to per-line events and feeds a
/// bare hierarchy, so `sim-cache` is timed alone and its simulated statistics (which
/// must repeat exactly from run to run and commit to commit) are read off.
fn bare_hierarchy_pass(
    reader: &TraceReader,
    thread: usize,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let line_size = reader.machine.hierarchy.l1.line_size as u64;
    let mut hierarchy = CacheHierarchy::new(reader.machine.hierarchy);
    let mut events = reader
        .events(thread)
        .map_err(|e| format!("stream {thread}: {e}"))?;
    let (mut buffer, mut lines, mut error) = (Vec::new(), Vec::new(), None);
    let (mut lower, mut access) = (Duration::ZERO, Duration::ZERO);
    let mut more = true;
    while more {
        more = decode_round(&mut events, &mut buffer, &mut error);
        let started = Instant::now();
        lines.clear();
        for ev in &buffer {
            push_line_events(ev, line_size, &mut lines);
        }
        let lowered = Instant::now();
        for line in &lines {
            std::hint::black_box(hierarchy.access(line.core as usize, line.addr, line.kind));
        }
        lower += lowered - started;
        access += lowered.elapsed();
    }
    if let Some(e) = error {
        return Err(format!("stream {thread}: {e}"));
    }
    ledger.add("trace.lower_s", seconds(lower));
    ledger.add("sim-cache.access_s", seconds(access));
    let stats = &hierarchy.stats;
    ledger.add("sim-cache.accesses", stats.accesses as f64);
    ledger.add("sim-cache.l1_misses", stats.l1_misses() as f64);
    ledger.add(
        "sim-cache.invalidations",
        stats.miss_kinds.invalidation as f64,
    );
    ledger.add(
        "sim-cache.directory_lines",
        hierarchy.directory_lines() as f64,
    );
    Ok(())
}

fn open_trace(env: &Env, ledger: &mut Ledger) -> Result<TraceReader, String> {
    let path = env.dir.join(SESSION_TRACE).display().to_string();
    ledger
        .time("trace.open_s", || TraceReader::open(&path))
        .map_err(|e| e.to_string())
}

/// The bare-hierarchy pass over every stream, with the miss ratio it yields.
fn bare_hierarchy_passes(reader: &TraceReader, ledger: &mut Ledger) -> Result<(), String> {
    let streams = 0..reader.stream_count();
    ledger.absorb(quietest(streams, |t, spans| bare_hierarchy_pass(reader, t, spans))?.1);
    let misses = ledger.0.remove("sim-cache.l1_misses").unwrap_or(0.0);
    ledger.ratio(
        "sim-cache.l1_miss_ratio",
        misses,
        ledger.get("sim-cache.accesses"),
    );
    Ok(())
}

/// Every stream, serially, through [`traced_replay_stream`]: the runs, and how long
/// the streams took together.
fn traced_replay(
    reader: &TraceReader,
    ledger: &mut Ledger,
) -> Result<(Vec<ThreadRun>, Duration), String> {
    let streams = 0..reader.stream_count();
    let (runs, spans, took) = quietest(streams, |t, spans| traced_replay_stream(reader, t, spans))?;
    ledger.absorb(spans);
    Ok((runs, took))
}

/// The layer self times that, with `cli.unexplained_s`, make up the CPU time of one
/// `dprof replay`, `dprof record` and `dprof whatif` child.
pub const REPLAY_PARTS: &[&str] = &[
    "trace.open_s",
    "trace.decode_s",
    "sim-cache.access_s",
    "sim-machine.self_s",
    "core.sample_phase_self_s",
    "core.history_phase_self_s",
    "core.views_s",
    "cli.merge_s",
    "cli.render_s",
    "cli.startup_s",
];
pub const RECORD_PARTS: &[&str] = &[
    "workloads.self_s",
    "sim-machine.self_s",
    "sim-cache.access_s",
    "core.sample_phase_self_s",
    "core.history_phase_self_s",
    "core.views_s",
    "trace.encode_s",
    "trace.write_s",
    "cli.merge_s",
    "cli.render_s",
    "cli.startup_s",
];
pub const WHATIF_PARTS: &[&str] = &["trace.open_s", "trace.measure_s", "cli.startup_s"];

/// The layers of `dprof replay`; returns the parts that make up its CPU time.
pub fn replay_layers(env: &Env, ledger: &mut Ledger) -> Result<&'static [&'static str], String> {
    let reader = open_trace(env, ledger)?;
    let (runs, traced) = traced_replay(&reader, ledger)?;
    merge_render_check(env, &runs, &replay_render_options(&reader)?, ledger)?;
    bare_hierarchy_passes(&reader, ledger)?;

    let streams = 0..reader.stream_count();
    // Profiling off: the same streams through the machine with no sampler, no
    // watchpoints and no views — the paper's overhead question, in host time.
    let (_, _, unprofiled) = quietest(streams.clone(), |t, _| {
        measure_stream_streaming(&reader, t, &FixSpec::Identity).map(drop)
    })?;
    ledger.add("trace.measure_s", seconds(unprofiled));
    ledger.ratio(
        "sim-machine.profiling_on_off_ratio",
        seconds(traced),
        seconds(unprofiled),
    );
    // The library's own replay of the same streams: what the spans above cost.
    let (_, _, untraced) = quietest(streams, |t, _| {
        replay_stream_streaming(&reader, t).map(drop)
    })?;
    ledger.ratio("trace_overhead_ratio", seconds(traced), seconds(untraced));

    let events: usize = reader.headers().iter().map(|h| h.event_count).sum();
    let bytes = std::fs::metadata(env.dir.join(SESSION_TRACE))
        .map_err(|e| e.to_string())?
        .len();
    let decode_s = ledger.get("trace.decode_s");
    ledger.ratio("trace.decode_events_per_s", events as f64, decode_s);
    ledger.ratio("trace.decode_mb_per_s", bytes as f64 / 1e6, decode_s);
    derive(ledger);
    Ok(REPLAY_PARTS)
}

// ---------------------------------------------------------------------------------
// record-memcached
// ---------------------------------------------------------------------------------

/// One live memcached thread as `driver::run_single` runs it, with every workload step
/// timed (`workloads.step_s`) and `core`'s own time split out around the steps.
fn traced_live_thread(options: &RunOptions, thread: usize, ledger: &mut Ledger) -> DprofProfile {
    let seed = options.base_seed.wrapping_add(thread as u64);
    let (mut machine, mut kernel, mut workload) = Memcached::setup(MemcachedConfig {
        cores: options.cores,
        tx_policy: match options.tx_policy {
            TxPolicyChoice::Hash => TxQueuePolicy::HashTxQueue,
            TxPolicyChoice::Local => TxQueuePolicy::LocalQueue,
        },
        seed,
        record_session: options.record_session,
        ..Default::default()
    });
    machine.mark_session_round();
    let mut in_steps = Duration::ZERO;
    let mut step = |m: &mut Machine, k: &mut KernelState| {
        let started = Instant::now();
        workload.step(m, k);
        m.mark_session_round();
        in_steps += started.elapsed();
    };
    let warmup = options.warmup_rounds + thread;
    for _ in 0..warmup {
        step(&mut machine, &mut kernel);
    }
    let config = profiler_config(
        options.sampling,
        options.sample_rounds,
        options.history_types,
        options.history_sets,
        seed,
    );
    let (profile, steps) =
        profile_with_timed_steps(config, &mut machine, &mut kernel, ledger, &mut step);
    ledger.add("workloads.step_s", seconds(in_steps));
    ledger.add("workloads.rounds", (warmup + steps) as f64);
    profile
}

/// Assembles the `.dtrace` file of a recorded run, as `dprof record` does.
fn trace_file(options: &RunOptions, runs: &mut [ThreadRun]) -> Result<TraceFile, String> {
    let recorded: Vec<_> = runs.iter_mut().filter_map(|r| r.recorded.take()).collect();
    let machine = recorded
        .first()
        .ok_or("recording produced no session streams")?
        .machine;
    Ok(TraceFile {
        kind: TraceKind::FullSession,
        machine,
        params: SessionParams {
            workload: options.workload.name().to_string(),
            threads: options.threads,
            cores: options.cores,
            warmup_rounds: options.warmup_rounds,
            sample_rounds: options.sample_rounds,
            sampling: options.sampling,
            history_types: options.history_types,
            history_sets: options.history_sets,
            base_seed: options.base_seed,
        },
        streams: recorded.into_iter().map(|r| r.stream).collect(),
    })
}

/// The layers of `dprof record`: the live generator, the profiler, the encoder.
/// `record_args` are the arguments of the measured invocation.
pub fn record_layers(
    env: &Env,
    record_args: &[String],
    ledger: &mut Ledger,
) -> Result<&'static [&'static str], String> {
    let Parsed::Run(options) = args::parse(record_args)? else {
        return Err("`record` did not parse as a run".into());
    };
    let threads = 0..options.run.threads;

    // The library's own recording run, serially: the streams to encode, and what the
    // traced live run below is compared with.
    let (mut runs, _, untraced) = quietest(threads.clone(), |t, _| {
        Ok(driver::run_single(&options.run, t))
    })?;
    let file = trace_file(&options.run, &mut runs)?;
    let bytes = ledger.time("trace.encode_s", || file.encode());
    drop(file);
    ledger
        .time("trace.write_s", || {
            std::fs::write(env.dir.join("traced.dtrace"), &bytes)
        })
        .map_err(|e| e.to_string())?;
    ledger.add("trace.encoded_mb", bytes.len() as f64 / 1e6);
    if bytes != std::fs::read(env.dir.join(SESSION_TRACE)).map_err(|e| e.to_string())? {
        return Err(format!(
            "the traced run's trace differs from {SESSION_TRACE}"
        ));
    }
    drop(bytes);
    merge_render_check(env, &runs, &options, ledger)?;

    let (profiles, spans, traced) = quietest(threads, |t, spans| {
        Ok(traced_live_thread(&options.run, t, spans))
    })?;
    ledger.absorb(spans);
    for (traced, run) in profiles.iter().zip(&runs) {
        if traced.samples.len() != run.profile.samples.len() {
            return Err(format!(
                "traced live thread {} diverged from driver::run_single",
                run.thread
            ));
        }
    }
    ledger.ratio("trace_overhead_ratio", seconds(traced), seconds(untraced));

    // Set-up's trace is the identical simulated stream, so replaying it gives the
    // machine's and the hierarchy's share of each live step; what is left of the step
    // is the generator's own.  Only those two sums are taken from the replay.
    let reader = open_trace(env, &mut Ledger::default())?;
    let mut replay = Ledger::default();
    traced_replay(&reader, &mut replay)?;
    bare_hierarchy_passes(&reader, &mut replay)?;
    let dispatch_s = replay.get("sim-machine.dispatch_s");
    ledger.add("sim-machine.dispatch_s", dispatch_s);
    ledger.add(
        "workloads.self_s",
        ledger.get("workloads.step_s") - dispatch_s,
    );
    for name in [
        "sim-cache.access_s",
        "sim-cache.accesses",
        "sim-cache.l1_miss_ratio",
        "sim-cache.invalidations",
        "sim-cache.directory_lines",
    ] {
        ledger.add(name, replay.get(name));
    }
    derive(ledger);
    Ok(RECORD_PARTS)
}

// ---------------------------------------------------------------------------------
// whatif-memcached
// ---------------------------------------------------------------------------------

/// The layers of `dprof whatif --auto`: one profiler-free replay for the identity
/// baseline and one per candidate `fixes` (taken from the child's document).  The
/// CLI's slurp, sharing analysis and single profiling pass are not reproduced; they
/// land in `cli.unexplained_s`.
pub fn whatif_layers(
    env: &Env,
    fixes: &[String],
    ledger: &mut Ledger,
) -> Result<&'static [&'static str], String> {
    let reader = open_trace(env, ledger)?;
    let mut specs = vec![FixSpec::Identity];
    for fix in fixes {
        specs.push(FixSpec::parse(fix)?);
    }
    let (_, _, measured) = quietest(&specs, |spec, _| {
        measure_all_streaming(&reader, spec).map(drop)
    })?;
    ledger.add("trace.measure_s", seconds(measured));
    ledger.add("trace.whatif_candidates", fixes.len() as f64);
    bare_hierarchy_passes(&reader, ledger)?;
    derive(ledger);
    Ok(WHATIF_PARTS)
}

// ---------------------------------------------------------------------------------
// serve-mixed
// ---------------------------------------------------------------------------------

/// What the collector does for one batch, in-process on `store` with no sockets: per
/// push the JSON parse, the shard built from the document, the store's absorb (with
/// its compactions) and the periodic snapshot, as `server::absorb` runs them; per query
/// the store's fold over the resident shards of the keys it reads.
fn in_process_batch(
    store: &mut ProfileStore,
    documents: &[String; 2],
    pushes: &mut u64,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let [v1, v2] = serve::BUILDS;
    for _ in 0..serve::BATCH_PASSES * serve::CONNECTIONS {
        for slot in serve::SCHEDULE {
            if slot != Slot::Push {
                ledger.time("serve.store_report_s", || {
                    std::hint::black_box(store.report(serve::KEY, v1));
                    if slot != Slot::Top {
                        std::hint::black_box(store.report(serve::KEY, v2));
                    }
                });
                continue;
            }
            let build = (*pushes % 2) as usize;
            *pushes += 1;
            let doc = ledger.time("core.json_parse_s", || Json::parse(&documents[build]))?;
            ledger.add("core.json_parse_mb", documents[build].len() as f64 / 1e6);
            let mut shard = ledger.time("core.shard_from_json_s", || {
                shard_from_report_json(&doc, *pushes)
            })?;
            shard.ordinal = *pushes;
            ledger.time("serve.store_push_s", || {
                store.push_shard(serve::KEY, serve::BUILDS[build], shard)
            });
            if store.dirty(serve::KEY, serve::BUILDS[build]) >= serve::PERIOD {
                ledger.time("serve.snapshot_s", || store.snapshot())?;
            }
        }
    }
    Ok(())
}

/// The collector's CPU time for one batch is made of these, the remainder being frames,
/// sockets, response documents and thread hand-offs.
pub const SERVE_PARTS: &[&str] = &[
    "core.json_parse_s",
    "core.shard_from_json_s",
    "serve.store_push_s",
    "serve.snapshot_s",
    "serve.store_report_s",
];

/// The layers of `dprof serve` under the mixed traffic: what the clients see of the
/// child collector over three more batches, then the same batch in-process.
pub fn serve_layers(
    env: &Env,
    traffic: &mut Traffic,
    ledger: &mut Ledger,
) -> Result<&'static [&'static str], String> {
    let us = |d: Duration| seconds(d) * 1e6;
    let roundtrips: Vec<f64> = traffic
        .stats_roundtrips(2000)?
        .into_iter()
        .map(us)
        .collect();
    ledger.add("serve.frame_roundtrip_us", percentile(&roundtrips, 0.50));
    let (mut pushes, mut queries, mut wall) = (Vec::new(), Vec::new(), Duration::ZERO);
    for _ in 0..3 {
        let batch = traffic.batch()?;
        if !batch.ok {
            return Err("the traced run's batch got a malformed response".into());
        }
        pushes.extend(batch.push_latencies.into_iter().map(us));
        queries.extend(batch.query_latencies.into_iter().map(us));
        wall += batch.wall;
    }
    ledger.ratio(
        "serve.ops_per_s",
        (pushes.len() + queries.len()) as f64,
        seconds(wall),
    );
    ledger.add("serve.push_p50_us", percentile(&pushes, 0.50));
    ledger.add("serve.push_p99_us", percentile(&pushes, 0.99));
    ledger.add("serve.query_p50_us", percentile(&queries, 0.50));
    ledger.add("serve.query_p99_us", percentile(&queries, 0.99));
    // Every traced run sends the same number of batches, so these repeat exactly.
    let stats = traffic.stats()?;
    for (name, field) in [
        ("serve.shards_resident", "shards_resident"),
        ("serve.snapshots_written", "snapshots_written"),
    ] {
        ledger.add(
            name,
            stats
                .get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("stats: no {field}"))?,
        );
    }

    let documents = traffic.documents();
    let root = env.dir.join("traced-store");
    let mut store = ProfileStore::new(Some(root), serve::PERIOD as usize + 1)?;
    let mut pushed = 0;
    // One batch fills the store; the quietest of the next three is kept.
    in_process_batch(&mut store, documents, &mut pushed, &mut Ledger::default())?;
    let (_, mut spans, _) = quietest([()], |(), spans| {
        in_process_batch(&mut store, documents, &mut pushed, spans)
    })?;
    let parsed_mb = spans.0.remove("core.json_parse_mb").unwrap_or(0.0);
    ledger.absorb(spans);
    ledger.ratio(
        "core.json_parse_mb_per_s",
        parsed_mb,
        ledger.get("core.json_parse_s"),
    );

    // The fold behind every query, alone: 256 shards absorbed and merged once.
    let doc = Json::parse(&documents[0])?;
    let shards = (0..256)
        .map(|i| shard_from_report_json(&doc, i))
        .collect::<Result<Vec<_>, _>>()?;
    ledger.time("core.merge_fold_s", || {
        let mut sink = StreamingMerge::new();
        for shard in shards {
            sink.absorb(shard);
        }
        std::hint::black_box(sink.finish());
    });
    Ok(SERVE_PARTS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_the_unexplained_remainder_sum_to_the_total() {
        let mut ledger = Ledger::default();
        ledger.add("trace.decode_s", 0.25);
        ledger.add("sim-cache.access_s", 0.5);
        ledger.add("cli.startup_s", 0.001);
        let parts = [
            "trace.decode_s",
            "sim-cache.access_s",
            "cli.startup_s",
            "cli.merge_s",
        ];
        ledger.reconcile(1.0, &parts);
        let explained: f64 = parts.iter().map(|p| ledger.get(p)).sum();
        assert_eq!(
            explained + ledger.get("cli.unexplained_s"),
            ledger.get("cli.child_cpu_s")
        );
        assert_eq!(ledger.get("cli.child_cpu_s"), 1.0);
    }

    #[test]
    fn finish_lists_every_per_layer_metric_once_in_table_order() {
        let mut ledger = Ledger::default();
        ledger.add("core.samples", 7.0);
        let rows = ledger.finish();
        let names: Vec<_> = rows.iter().map(|(m, _)| m.name).collect();
        assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
        for (metric, value) in rows {
            match (metric.name, metric.unit) {
                ("core.samples", _) => assert_eq!(value, 7.0),
                // An unused layer's span is still opened and closed: a time, not a constant.
                (_, "s") => assert!((0.0..1.0).contains(&value)),
                _ => assert_eq!(value, 0.0),
            }
        }
    }
}
