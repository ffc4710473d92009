//! # dprof-cli
//!
//! The unified command-line driver for the DProf reproduction.  One binary — `dprof` —
//! selects a workload (memcached / apache / custom false-sharing), a machine
//! configuration, and any subset of the four data-centric views, runs the profile
//! across multiple worker threads (one independent simulated machine per thread), and
//! emits either thesis-style text tables or a `dprof-report/v1` JSON document.
//!
//! ```text
//! cargo run -p dprof-cli -- --workload memcached --threads 4 --format json
//! ```
//!
//! The crate is a thin shell over the workspace: [`driver`] builds machines and runs
//! [`dprof::core::Dprof`] sessions, [`merge`] folds per-thread profiles into one
//! report keyed by type / function names, [`render`] emits text or JSON (via the
//! dependency-free `dprof::core::schema` document model), and [`args`] parses the
//! flag surface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod args;
pub mod diff;
pub mod driver;
pub mod merge;
pub mod registry;
pub mod render;
pub mod serve_cmd;
pub mod whatif;

use args::{Parsed, View};

/// Version string reported by `dprof --version`.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Runs the CLI against an already-split argument list (no program name) and returns
/// the process exit code.  Report text goes to stdout (or `--output`), diagnostics to
/// stderr.
pub fn run(args: &[String]) -> i32 {
    match args::parse(args) {
        Ok(Parsed::Help) => {
            print!("{}", args::usage());
            0
        }
        Ok(Parsed::Version) => {
            println!("dprof {VERSION}");
            0
        }
        // `record` parses to `Parsed::Run` deliberately: record *is* a run.
        Ok(Parsed::Run(options)) => run_profile(options),
        Ok(Parsed::Replay(options)) => run_replay(&options),
        Ok(Parsed::Diff(options)) => diff::run_diff(&options),
        Ok(Parsed::Accuracy(options)) => accuracy::run_accuracy(&options),
        Ok(Parsed::Whatif(options)) => whatif::run_whatif(&options),
        Ok(Parsed::Serve(options)) => serve_cmd::run_serve(&options),
        Ok(Parsed::Loadgen(options)) => serve_cmd::run_loadgen_cmd(&options),
        Ok(Parsed::Query(options)) => serve_cmd::run_query(&options),
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("usage: dprof [SUBCOMMAND] [OPTIONS] (try --help)");
            2
        }
    }
}

/// `dprof run` / `dprof record`: profile a workload live, optionally recording a
/// replayable session trace, and render the merged report.
pub(crate) fn run_profile(options: args::Options) -> i32 {
    eprintln!(
        "profiling {} on {} thread(s) x {} core(s), {} sampling rounds...",
        options.run.workload.name(),
        options.run.threads,
        options.run.cores,
        options.run.sample_rounds
    );

    // `dprof record`: create the trace before simulating, so that a path that cannot
    // be written is an error now and not after the whole run.
    let trace_out = match &options.trace_out {
        Some(path) => match std::fs::File::create(path) {
            Ok(file) => Some((path, file)),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                return 1;
            }
        },
        None => None,
    };

    let recorded = driver::run_parallel(&options.run).and_then(|mut runs| {
        // Persist the session trace before rendering the report.
        if let Some((path, file)) = &trace_out {
            write_trace(&options, &mut runs, path, file)?;
        }
        Ok(runs)
    });
    let runs = match recorded {
        Ok(runs) => runs,
        Err(message) => {
            eprintln!("error: {message}");
            if let Some((path, file)) = trace_out {
                // Nothing usable was written: leave no empty or torn trace behind.
                drop(file);
                let _ = std::fs::remove_file(path);
            }
            return 1;
        }
    };

    let report = merge::merge(&runs);

    let missing_flows = report.data_flows.is_empty()
        && options.views.contains(&View::DataFlow)
        && options.run.history_types > 0;
    if missing_flows {
        eprintln!(
            "note: no object access histories were collected; try more --rounds or a \
             larger --history-sets"
        );
    }

    let rendered = render::render(&report, &options);
    emit(&rendered, &options.output)
}

pub(crate) fn emit(rendered: &str, output: &Option<String>) -> i32 {
    match output {
        None => {
            print!("{rendered}");
            0
        }
        Some(path) => match std::fs::write(path, rendered.as_bytes()) {
            Ok(()) => {
                eprintln!("report written to {path}");
                0
            }
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                1
            }
        },
    }
}

/// The `.dtrace` file of a recorded multi-thread run.  The streams are taken by move —
/// each holds its whole encoded session, and nothing after the trace write needs them.
pub fn session_trace(
    params: dprof::trace::SessionParams,
    runs: &mut [driver::ThreadRun],
) -> Result<dprof::trace::TraceFile, String> {
    let recorded: Vec<_> = runs.iter_mut().filter_map(|r| r.recorded.take()).collect();
    let machine = match recorded.first() {
        Some(first) if recorded.len() == runs.len() => first.machine,
        _ => return Err("recording produced no session streams".into()),
    };
    Ok(dprof::trace::TraceFile {
        kind: dprof::trace::TraceKind::FullSession,
        machine,
        params,
        streams: recorded.into_iter().map(|r| r.stream).collect(),
    })
}

/// Assembles the `.dtrace` file from a recorded multi-thread run and writes it to
/// `file` (created at `path`).
fn write_trace(
    options: &args::Options,
    runs: &mut [driver::ThreadRun],
    path: &str,
    mut file: &std::fs::File,
) -> Result<(), String> {
    let trace = session_trace(options.run.session_params(), runs)?;
    trace
        .write_to(&mut file)
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    let events: usize = trace.streams.iter().map(|s| s.events.len()).sum();
    eprintln!(
        "session trace written to {path} ({} stream(s), {events} events)",
        trace.streams.len()
    );
    Ok(())
}

/// `dprof replay`: re-profiles a recorded session and renders the report.  The run
/// parameters come from the trace header, so the emitted report is byte-identical to
/// the recorded run's (given the same report options).  Events stream from disk in
/// bounded chunks rather than being slurped.
pub(crate) fn run_replay(options: &args::ReplayOptions) -> i32 {
    let reader = match dprof::trace::TraceReader::open(&options.input) {
        Ok(reader) => reader,
        Err(message) => {
            eprintln!("error: {message}");
            return 1;
        }
    };
    eprintln!(
        "replaying {} ({} workload, {} stream(s), {} events)...",
        options.input,
        reader.params.workload,
        reader.stream_count(),
        reader
            .headers()
            .iter()
            .map(|h| h.event_count)
            .sum::<usize>(),
    );

    let replays = match dprof::trace::replay_all_streaming(&reader) {
        Ok(replays) => replays,
        Err(message) => {
            eprintln!("error: {message}");
            return 1;
        }
    };
    for (run, trailing) in &replays {
        if *trailing > 0 {
            warn_diverged(run.thread, *trailing);
        }
    }
    let runs: Vec<driver::ThreadRun> = replays.into_iter().map(|(run, _)| run).collect();
    emit(&render_replay(&reader, &runs, options), &options.output)
}

/// Says on stderr that stream `stream`'s profiled replay left `trailing` events of the
/// recording unconsumed.
pub(crate) fn warn_diverged(stream: usize, trailing: usize) {
    eprintln!(
        "warning: stream {stream} diverged from the recording ({trailing} trailing \
         event(s)); the trace was probably produced by a different build"
    );
}

/// Merges replayed streams (in stream order) and renders the report as the recorded
/// run rendered its own: the header and `run` section say what the trace header says,
/// with one thread a stream.
pub fn render_replay(
    reader: &dprof::trace::TraceReader,
    runs: &[driver::ThreadRun],
    options: &args::ReplayOptions,
) -> String {
    let run = dprof::trace::SessionParams {
        threads: reader.stream_count(),
        ..reader.params.clone()
    };
    let report = merge::merge(runs);
    render::render_session(&report, &run, &options.views, options.format, options.top)
}
