//! Hand-rolled argument parsing for the `dprof` binary (the workspace builds offline,
//! so no `clap`).  Flags map one-to-one onto [`crate::driver::RunOptions`] plus the
//! output controls.

use crate::driver::{parse_workload_spec, ApacheLoad, RunOptions, TxPolicyChoice, WorkloadKind};
use dprof::machine::SamplingPolicy;
use dprof::trace::FixSpec;

/// The five DProf views, as selectable from the command line.
pub use dprof::core::report::View;

/// Report output format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Thesis-style text tables.
    Text,
    /// The `dprof-report/v1` JSON document.
    Json,
}

/// Everything the CLI needs to execute one invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Profiling run parameters (workload, scale, sampling).
    pub run: RunOptions,
    /// Which views to include in the report, in report order.
    pub views: Vec<View>,
    /// Output format.
    pub format: Format,
    /// Maximum rows per table.
    pub top: usize,
    /// Write the report here instead of stdout.
    pub output: Option<String>,
    /// `dprof record`: also write the recorded session trace to this `.dtrace` path.
    pub trace_out: Option<String>,
}

/// Options of a `dprof replay` invocation.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// The `.dtrace` file to replay.
    pub input: String,
    /// Which views to include in the report, in report order.
    pub views: Vec<View>,
    /// Output format.
    pub format: Format,
    /// Maximum rows per table.
    pub top: usize,
    /// Write the report here instead of stdout.
    pub output: Option<String>,
}

/// Options of a `dprof diff` invocation.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// The baseline report (JSON).
    pub a: String,
    /// The comparison report (JSON).
    pub b: String,
    /// Focus type for the verdict; defaults to A's top miss type.
    pub focus: Option<String>,
    /// Output format.
    pub format: Format,
    /// Maximum delta rows in the text table.
    pub top: usize,
    /// Write the diff here instead of stdout.
    pub output: Option<String>,
    /// Attach a `dprof-whatif/v1` prediction: the verdict then carries predicted vs.
    /// realized gain.
    pub whatif: Option<String>,
}

/// Options of a `dprof whatif` invocation.
#[derive(Debug, Clone)]
pub struct WhatifOptions {
    /// The `.dtrace` file to analyze.
    pub input: String,
    /// Explicit candidate fixes (`--fix <spec>`, repeatable), grammar-checked at
    /// parse time.
    pub fixes: Vec<FixSpec>,
    /// Enumerate candidates from the trace's top data-profile rows (`--auto`).
    pub auto: bool,
    /// Output format.
    pub format: Format,
    /// Write the ranking here instead of stdout.
    pub output: Option<String>,
}

/// Options of a `dprof accuracy` invocation.
#[derive(Debug, Clone)]
pub struct AccuracyOptions {
    /// The profiling run to measure (the harness records its session for the exact
    /// replay; history collection is skipped — accuracy compares rankings, not paths).
    pub run: RunOptions,
    /// How many top exact types the rank-agreement metric covers.
    pub top_k: usize,
    /// Output format.
    pub format: Format,
    /// Write the accuracy report here instead of stdout.
    pub output: Option<String>,
}

/// Options of a `dprof serve` invocation (the continuous-profiling collector).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address; port 0 picks a free port.
    pub listen: String,
    /// Snapshot tree root; `None` keeps the store memory-only.
    pub store: Option<String>,
    /// Snapshot a key automatically after this many pushes (0 = manual only).
    pub snapshot_every: u64,
    /// Per-key resident-shard bound (streaming-merge compaction threshold).
    pub compact_threshold: usize,
    /// Write the bound address to this file once listening (scripting aid).
    pub port_file: Option<String>,
}

/// Options of a `dprof loadgen` invocation (the collector load test).
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Collector address; `None` requires `--spawn`.
    pub connect: Option<String>,
    /// Start an in-process collector on a free port for the run.
    pub spawn: bool,
    /// Snapshot tree for a spawned collector.
    pub store: Option<String>,
    /// Total shards to push across all producers.
    pub shards: u64,
    /// Concurrent producer connections.
    pub producers: usize,
    /// Scenario whose fixed/buggy variants provide the template shards.
    pub scenario: String,
    /// Workload tag the shards are pushed under.
    pub tag: String,
    /// Sampling rounds of the two template profiling runs.
    pub rounds: usize,
    /// Spawned collector's compaction threshold (bounded-memory proof).
    pub compact_threshold: usize,
    /// Output format.
    pub format: Format,
    /// Write the loadgen report here instead of stdout.
    pub output: Option<String>,
}

/// The action of a `dprof query` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryAction {
    /// Push a `dprof-report/v1` JSON file as one shard.
    Push {
        /// Workload tag.
        workload: String,
        /// Build tag.
        build: String,
        /// Producer-assigned unique shard id.
        shard_id: u64,
        /// Report file path (`-` reads stdin).
        file: String,
    },
    /// Upload a recorded `.dtrace` session.
    PushTrace {
        /// Workload tag.
        workload: String,
        /// Build tag.
        build: String,
        /// Producer-assigned unique upload id.
        shard_id: u64,
        /// Trace file path.
        file: String,
    },
    /// Top miss types of one build.
    Top {
        /// Workload tag.
        workload: String,
        /// Build tag.
        build: String,
        /// Maximum rows.
        top: u64,
    },
    /// Per-type deltas between two builds, worst regressions first.
    Regressions {
        /// Workload tag.
        workload: String,
        /// Baseline build tag.
        from: String,
        /// Comparison build tag.
        to: String,
        /// Maximum rows.
        top: u64,
    },
    /// Wilson-confidence-gated regression alerts between two builds.
    Alerts {
        /// Workload tag.
        workload: String,
        /// Baseline build tag.
        from: String,
        /// Comparison build tag.
        to: String,
    },
    /// Every (workload, build) key the collector holds.
    Keys,
    /// Collector counters.
    Stats,
    /// Force a snapshot of every dirty key.
    Snapshot,
    /// Stop the collector.
    Shutdown,
}

/// Options of a `dprof query` invocation.
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Collector address (`host:port`).
    pub connect: String,
    /// What to ask.
    pub action: QueryAction,
    /// Write the response document here instead of stdout.
    pub output: Option<String>,
}

/// Result of parsing a command line.
#[derive(Debug, Clone)]
pub enum Parsed {
    /// Run a profile with these options (`dprof` / `dprof run` / `dprof record`).
    Run(Options),
    /// Replay a recorded trace (`dprof replay`).
    Replay(ReplayOptions),
    /// Compare two reports (`dprof diff`).
    Diff(DiffOptions),
    /// Measure sampling fidelity against a `fixed:1` census (`dprof accuracy`).
    Accuracy(AccuracyOptions),
    /// Predict fix impact by counterfactual replay (`dprof whatif`).
    Whatif(WhatifOptions),
    /// Run the continuous-profiling collector (`dprof serve`).
    Serve(ServeOptions),
    /// Drive a collector with concurrent producers (`dprof loadgen`).
    Loadgen(LoadgenOptions),
    /// Push to / query a collector (`dprof query`).
    Query(QueryOptions),
    /// `--help` was requested.
    Help,
    /// `--version` was requested.
    Version,
}

/// The `--help` text above the synopsis (the synopsis itself is generated from
/// the subcommand registry by [`usage`]).
const USAGE_HEADER: &str = "\
dprof — data-centric cache profiling of a simulated multicore kernel
(reproduction of DProf, EuroSys 2010)

USAGE:
";

/// The per-flag sections of the `--help` text.
const USAGE_SECTIONS: &str = "\
RECORD/REPLAY:
        --trace <PATH>        (record) session trace output   [default: dprof.dtrace]
    replay accepts only the REPORT options below; the workload, machine and
    sampling parameters are read from the trace header.  Events stream from disk in
    fixed-size chunks, so replay memory stays bounded regardless of trace size.

DIFF:
        --focus <TYPE>        type the verdict is about    [default: A's top miss type]
        --whatif <FILE>       attach a dprof-whatif/v1 prediction; the verdict then
                              carries predicted vs. realized gain
    diff also accepts --format, --top and --output from REPORT below.

ACCURACY:
        --top-k <K>           exact top-K for rank agreement  [default: 3]
    accuracy also accepts the WORKLOAD and PROFILING options (history collection is
    skipped) plus --format and --output; see docs/sampling.md for the report schema.

WHATIF:
        --fix <SPEC>          candidate fix, repeatable:  pad:<type> |
                              localize:<type> | pin:<type> | shrink:<type>:<bytes>
        --auto                derive candidates from the trace's top data-profile
                              rows (dominant miss class + sharing stats pick the
                              fix family)
    whatif also accepts --format and --output; candidates are ranked by predicted
    end-to-end gain with block-vote confidence (see docs/whatif.md).

SERVE:
        --listen <ADDR>       listen address (port 0 picks)  [default: 127.0.0.1:7464]
        --store <DIR>         snapshot tree, reloaded on start   (omit: memory-only)
        --snapshot-every <N>  snapshot a key after N pushes (0 = manual only)
                                                                 [default: 64]
        --compact-every <N>   fold a key's resident shards into one base shard at
                              N, keeping collector memory bounded [default: 256]
        --port-file <PATH>    write the bound address here once listening
    the collector merges pushed shards per (workload, build) key with the same
    streaming merge the CLI uses; stop it with `dprof query shutdown -c <ADDR>`
    (see docs/serve.md for the protocol and schemas).

LOADGEN:
    -c, --connect <ADDR>      collector to drive (or --spawn one in-process)
        --spawn               start a collector on a free port for this run
        --store <DIR>         snapshot tree of the spawned collector
        --shards <N>          total shards to push               [default: 200]
        --producers <N>       concurrent producer connections    [default: 8]
        --scenario <NAME>     scenario profiled once per variant (fixed + buggy)
                              to make the template shards
                                                       [default: streaming-scan]
        --tag <NAME>          workload tag pushed under          [default: loadgen]
        --rounds <N>          template profiling rounds          [default: 40]
        --compact-every <N>   spawned collector's resident-shard bound
                                                                 [default: 32]
    loadgen also accepts --format and --output; the JSON report is
    dprof-loadgen/v1 (sustained shards/s, query answers, verdict, alerts).

QUERY:
    dprof query <ACTION> -c <ADDR> [OPTIONS]; the actions are
      top           top miss types of one build       (-w, --build, --top)
      regressions   per-type deltas between two builds, worst regression
                    first, plus a bottleneck verdict  (-w, --from, --to, --top)
      alerts        Wilson-gated alerts: types whose merged miss-share
                    confidence intervals separated upward between builds
                                                      (-w, --from, --to)
      keys          every (workload, build) key the collector holds
      stats         collector counters (keys, shards absorbed/resident)
      push          push a dprof-report/v1 JSON file as one shard
                                     (-w, --build, --shard-id, --file; '-' = stdin)
      push-trace    upload a recorded .dtrace session (-w, --build, --shard-id,
                                                       --file)
      snapshot      force a snapshot of every dirty key
      shutdown      stop the collector
    responses are dprof-serve/v1 JSON documents (redirect with --output).

WORKLOAD:
    -w, --workload <NAME>     memcached | apache | custom, or a bottleneck scenario
                              <scenario>[:buggy|:fixed]  (bare name = buggy):
                                remote-hot-lock, ring-false-sharing, streaming-scan,
                                hash-capacity-thrash, read-mostly-true-sharing,
                                job-migration-bounce, sparse-struct-waste,
                                hot-cold-field-mix       (see docs/scenarios.md)
                                                                 [default: memcached]
        --tx-policy <P>       memcached TX queue: hash | local   [default: hash]
        --apache-load <L>     peak | drop-off | admission-control [default: drop-off]
        --cores <N>           cores per simulated machine        [default: 4]

PROFILING:
    -j, --threads <N>         worker threads, one machine each   [default: 1]
        --warmup <N>          warmup rounds before sampling      [default: 20]
        --rounds <N>          workload rounds while sampling     [default: 120]
        --sampling <P>        IBS policy, per machine:
                                fixed:<interval>   one sample per <interval> mem
                                                   ops on average
                                adaptive:<budget>  at most <budget> samples for the
                                                   whole phase, spread adaptively
                                                                 [default: fixed:200]
        --ibs-interval <N>    shorthand for --sampling fixed:<N>
        --history-types <N>   top miss types to collect for      [default: 3]
        --history-sets <N>    history sets per profiled type     [default: 3]
        --seed <N>            base RNG seed (thread i adds i)    [default: 3471]

REPORT:
    -v, --view <VIEW>         data-profile | miss-classification | working-set |
                              utilization | data-flow | all
                              (repeatable, comma-separable)      [default: all]
    -f, --format <F>          text | json                        [default: text]
        --top <N>             max rows per table                 [default: 8]
    -o, --output <PATH>       write the report to a file instead of stdout

MISC:
    -h, --help                print this help
    -V, --version             print version

EXAMPLES:
    dprof --workload memcached --threads 4 --format json
    dprof -w apache --apache-load drop-off -v working-set
    dprof -w custom -v data-profile -v miss-classification --top 5
    dprof -w sparse-struct-waste -v utilization            # wasted-bandwidth ranking
    dprof record -w memcached --trace session.dtrace -f json -o live.json
    dprof replay session.dtrace -f json -o replayed.json   # byte-identical to live.json
    dprof -w ring-false-sharing:buggy -f json -o buggy.json
    dprof -w ring-false-sharing:fixed -f json -o fixed.json
    dprof diff buggy.json fixed.json --focus ring_desc     # => bottleneck eliminated
    dprof accuracy -w remote-hot-lock:buggy --sampling adaptive:2500 -f json
    dprof record -w ring-false-sharing --trace buggy.dtrace
    dprof whatif buggy.dtrace --auto                       # ranked fix predictions
    dprof whatif buggy.dtrace --fix pad:ring_desc -f json -o whatif.json
    dprof diff buggy.json fixed.json --whatif whatif.json  # predicted vs realized
    dprof serve --store .dprof-store --port-file serve.addr &
    dprof query push -c $(cat serve.addr) -w ring --build v1 --shard-id 1 \\
        --file buggy.json
    dprof query push-trace -c $(cat serve.addr) -w ring --build v2 --shard-id 2 \\
        --file buggy.dtrace
    dprof query alerts -c $(cat serve.addr) -w ring --from v1 --to v2
    dprof loadgen --spawn --shards 200 --producers 8
";

/// Builds the `--help` text: the header, a synopsis line per registered
/// subcommand (straight from [`crate::registry::registry`], so a new
/// subcommand cannot forget to document itself), then the flag sections.
pub fn usage() -> String {
    use std::fmt::Write;
    let mut text = String::from(USAGE_HEADER);
    for command in crate::registry::registry() {
        let mut about = command.about.iter();
        if let Some(first) = about.next() {
            let _ = writeln!(text, "    {:<30} {first}", command.synopsis);
        }
        for line in about {
            let _ = writeln!(text, "{:35}{line}", "");
        }
    }
    text.push('\n');
    text.push_str(USAGE_SECTIONS);
    text
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse::<T>()
        .map_err(|_| format!("invalid value '{value}' for {flag}"))
}

fn parse_views(value: &str, views: &mut Vec<View>) -> Result<(), String> {
    for part in value.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        match part {
            "all" => {
                for v in View::ALL {
                    if !views.contains(&v) {
                        views.push(v);
                    }
                }
            }
            "data-profile" => push_unique(views, View::DataProfile),
            "miss-classification" | "miss-class" => push_unique(views, View::MissClassification),
            "working-set" => push_unique(views, View::WorkingSet),
            "utilization" => push_unique(views, View::Utilization),
            "data-flow" => push_unique(views, View::DataFlow),
            other => {
                return Err(format!(
                    "unknown view '{other}' (expected data-profile, miss-classification, \
                     working-set, utilization, data-flow, or all)"
                ))
            }
        }
    }
    Ok(())
}

fn push_unique(views: &mut Vec<View>, view: View) {
    if !views.contains(&view) {
        views.push(view);
    }
}

fn take_value(
    iter: &mut std::iter::Peekable<std::slice::Iter<String>>,
    flag: &str,
) -> Result<String, String> {
    iter.next()
        .map(|s| s.to_string())
        .ok_or_else(|| format!("{flag} requires a value"))
}

fn parse_format(value: &str) -> Result<Format, String> {
    match value {
        "text" => Ok(Format::Text),
        "json" => Ok(Format::Json),
        other => Err(format!("unknown format '{other}' (expected text or json)")),
    }
}

/// `--ibs-interval N` is shorthand for `--sampling fixed:N`.
fn parse_ibs_interval(flag: &str, value: &str) -> Result<SamplingPolicy, String> {
    let interval: u64 = parse_num(flag, value)?;
    if interval == 0 {
        // Interval 0 means "sampling disabled" to the IBS unit; a profile without
        // samples is always empty, so reject it rather than mislead.
        return Err("--ibs-interval must be at least 1".into());
    }
    Ok(SamplingPolicy::Fixed {
        interval_ops: interval,
    })
}

/// Shape checks shared by `dprof run`/`record` and `dprof accuracy`.
fn validate_run_shape(run: &RunOptions) -> Result<(), String> {
    if run.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    if run.threads > 256 {
        return Err("--threads is capped at 256".into());
    }
    if run.cores == 0 {
        return Err("--cores must be at least 1".into());
    }
    if run.cores > 64 {
        return Err("--cores is capped at 64".into());
    }
    if run.cores < 2 && matches!(run.workload, WorkloadKind::Scenario { .. }) {
        // Every scenario plants a cross-core or capacity pathology; on one core there
        // is nothing to detect (and the builders assert the same minimum).
        return Err(format!(
            "scenario '{}' needs --cores of at least 2",
            run.workload.name()
        ));
    }
    if run.sample_rounds == 0 {
        return Err("--rounds must be at least 1".into());
    }
    if !run.sampling.enabled() {
        return Err("sampling must be enabled (see --sampling)".into());
    }
    Ok(())
}

/// Parses a command line (without the program name).
///
/// The first argument may name a subcommand from [`crate::registry::registry`];
/// everything else (flags, or no arguments at all) falls through to `run`, the
/// default subcommand.
pub fn parse(args: &[String]) -> Result<Parsed, String> {
    match args.first().map(String::as_str) {
        Some(first) if !first.starts_with('-') => match crate::registry::find(first) {
            Some(command) => (command.parse)(&args[1..]),
            None => parse_run(args),
        },
        _ => parse_run(args),
    }
}

/// `dprof record`: a run that also captures a replayable `.dtrace` session.
pub(crate) fn parse_record(args: &[String]) -> Result<Parsed, String> {
    let parsed = parse_run(args)?;
    if let Parsed::Run(mut options) = parsed {
        options.run.record_session = true;
        options
            .trace_out
            .get_or_insert_with(|| "dprof.dtrace".to_string());
        Ok(Parsed::Run(options))
    } else {
        Ok(parsed)
    }
}

/// Parses the flags of a `dprof serve` invocation.
pub(crate) fn parse_serve(args: &[String]) -> Result<Parsed, String> {
    let mut options = ServeOptions {
        listen: "127.0.0.1:7464".into(),
        store: None,
        snapshot_every: 64,
        compact_threshold: 256,
        port_file: None,
    };
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(Parsed::Help),
            "-V" | "--version" => return Ok(Parsed::Version),
            "--listen" => options.listen = take_value(&mut iter, arg)?,
            "--store" => options.store = Some(take_value(&mut iter, arg)?),
            "--snapshot-every" => {
                options.snapshot_every = parse_num(arg, &take_value(&mut iter, arg)?)?
            }
            "--compact-every" => {
                options.compact_threshold = parse_num(arg, &take_value(&mut iter, arg)?)?;
                if options.compact_threshold < 2 {
                    return Err("--compact-every must be at least 2".into());
                }
            }
            "--port-file" => options.port_file = Some(take_value(&mut iter, arg)?),
            other => return Err(format!("unknown serve argument '{other}' (try --help)")),
        }
    }
    Ok(Parsed::Serve(options))
}

/// Parses the flags of a `dprof loadgen` invocation.
pub(crate) fn parse_loadgen(args: &[String]) -> Result<Parsed, String> {
    let mut options = LoadgenOptions {
        connect: None,
        spawn: false,
        store: None,
        shards: 200,
        producers: 8,
        scenario: "streaming-scan".into(),
        tag: "loadgen".into(),
        rounds: 40,
        compact_threshold: 32,
        format: Format::Text,
        output: None,
    };
    let mut compact_given = false;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(Parsed::Help),
            "-V" | "--version" => return Ok(Parsed::Version),
            "-c" | "--connect" => options.connect = Some(take_value(&mut iter, arg)?),
            "--spawn" => options.spawn = true,
            "--store" => options.store = Some(take_value(&mut iter, arg)?),
            "--shards" => options.shards = parse_num(arg, &take_value(&mut iter, arg)?)?,
            "--producers" => options.producers = parse_num(arg, &take_value(&mut iter, arg)?)?,
            "--scenario" => options.scenario = take_value(&mut iter, arg)?,
            "--tag" => options.tag = take_value(&mut iter, arg)?,
            "--rounds" => options.rounds = parse_num(arg, &take_value(&mut iter, arg)?)?,
            "--compact-every" => {
                options.compact_threshold = parse_num(arg, &take_value(&mut iter, arg)?)?;
                if options.compact_threshold < 2 {
                    return Err("--compact-every must be at least 2".into());
                }
                compact_given = true;
            }
            "-f" | "--format" => options.format = parse_format(&take_value(&mut iter, arg)?)?,
            "-o" | "--output" => options.output = Some(take_value(&mut iter, arg)?),
            other => return Err(format!("unknown loadgen argument '{other}' (try --help)")),
        }
    }
    if options.connect.is_some() && options.spawn {
        return Err("'--connect' conflicts with --spawn: pick one collector".into());
    }
    if options.connect.is_none() && !options.spawn {
        return Err("loadgen needs a collector: --connect <ADDR> or --spawn".into());
    }
    if options.store.is_some() && !options.spawn {
        return Err("'--store' only applies to a --spawn collector".into());
    }
    // Only a spawned collector is configured here; an external one keeps its own bound.
    if compact_given && !options.spawn {
        return Err("'--compact-every' only applies to a --spawn collector".into());
    }
    if options.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    if options.producers == 0 {
        return Err("--producers must be at least 1".into());
    }
    if options.rounds == 0 {
        return Err("--rounds must be at least 1".into());
    }
    Ok(Parsed::Loadgen(options))
}

/// Parses the flags of a `dprof query` invocation.  The first positional
/// argument picks the action; which tag flags are required depends on it.
pub(crate) fn parse_query(args: &[String]) -> Result<Parsed, String> {
    let mut action_name: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut workload: Option<String> = None;
    let mut build: Option<String> = None;
    let mut from: Option<String> = None;
    let mut to: Option<String> = None;
    let mut shard_id: Option<u64> = None;
    let mut file: Option<String> = None;
    let mut top = 8u64;
    let mut output: Option<String> = None;

    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(Parsed::Help),
            "-V" | "--version" => return Ok(Parsed::Version),
            "-c" | "--connect" => connect = Some(take_value(&mut iter, arg)?),
            "-w" | "--workload" => workload = Some(take_value(&mut iter, arg)?),
            "--build" => build = Some(take_value(&mut iter, arg)?),
            "--from" => from = Some(take_value(&mut iter, arg)?),
            "--to" => to = Some(take_value(&mut iter, arg)?),
            "--shard-id" => shard_id = Some(parse_num(arg, &take_value(&mut iter, arg)?)?),
            "--file" => file = Some(take_value(&mut iter, arg)?),
            "--top" => top = parse_num(arg, &take_value(&mut iter, arg)?)?,
            "-o" | "--output" => output = Some(take_value(&mut iter, arg)?),
            other if !other.starts_with('-') && action_name.is_none() => {
                action_name = Some(other.to_string())
            }
            other => return Err(format!("unknown query argument '{other}' (try --help)")),
        }
    }
    let action_name = action_name.ok_or(
        "query requires an action: top, regressions, alerts, keys, stats, push, \
         push-trace, snapshot or shutdown",
    )?;
    if top == 0 {
        return Err("--top must be at least 1".into());
    }
    let need = |value: Option<String>, flag: &str| -> Result<String, String> {
        value.ok_or_else(|| format!("query {action_name} requires {flag}"))
    };
    let action = match action_name.as_str() {
        "push" => QueryAction::Push {
            workload: need(workload, "-w/--workload")?,
            build: need(build, "--build")?,
            shard_id: shard_id.ok_or("query push requires --shard-id")?,
            file: need(file, "--file")?,
        },
        "push-trace" => QueryAction::PushTrace {
            workload: need(workload, "-w/--workload")?,
            build: need(build, "--build")?,
            shard_id: shard_id.ok_or("query push-trace requires --shard-id")?,
            file: need(file, "--file")?,
        },
        "top" => QueryAction::Top {
            workload: need(workload, "-w/--workload")?,
            build: need(build, "--build")?,
            top,
        },
        "regressions" => QueryAction::Regressions {
            workload: need(workload, "-w/--workload")?,
            from: need(from, "--from")?,
            to: need(to, "--to")?,
            top,
        },
        "alerts" => QueryAction::Alerts {
            workload: need(workload, "-w/--workload")?,
            from: need(from, "--from")?,
            to: need(to, "--to")?,
        },
        "keys" => QueryAction::Keys,
        "stats" => QueryAction::Stats,
        "snapshot" => QueryAction::Snapshot,
        "shutdown" => QueryAction::Shutdown,
        other => {
            return Err(format!(
                "unknown query action '{other}' (expected top, regressions, alerts, \
                 keys, stats, push, push-trace, snapshot or shutdown)"
            ))
        }
    };
    Ok(Parsed::Query(QueryOptions {
        connect: connect.ok_or("query requires -c/--connect <ADDR>")?,
        action,
        output,
    }))
}

/// Parses the flags of a `dprof diff` invocation.
pub(crate) fn parse_diff(args: &[String]) -> Result<Parsed, String> {
    let mut inputs: Vec<String> = Vec::new();
    let mut focus: Option<String> = None;
    let mut format = Format::Text;
    let mut top = 8usize;
    let mut output: Option<String> = None;
    let mut whatif: Option<String> = None;

    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(Parsed::Help),
            "-V" | "--version" => return Ok(Parsed::Version),
            "--focus" => focus = Some(take_value(&mut iter, arg)?),
            "--whatif" => whatif = Some(take_value(&mut iter, arg)?),
            "-f" | "--format" => format = parse_format(&take_value(&mut iter, arg)?)?,
            "--top" => top = parse_num(arg, &take_value(&mut iter, arg)?)?,
            "-o" | "--output" => output = Some(take_value(&mut iter, arg)?),
            "-w" | "--workload" | "-v" | "--view" | "--trace" => {
                return Err(format!(
                    "'{arg}' conflicts with diff: diff compares two existing reports \
                     and runs no workload (try --help)"
                ))
            }
            other if !other.starts_with('-') => inputs.push(other.to_string()),
            other => return Err(format!("unknown diff argument '{other}' (try --help)")),
        }
    }
    if top == 0 {
        return Err("--top must be at least 1".into());
    }
    if inputs.len() != 2 {
        return Err(format!(
            "diff requires exactly two report files (got {})",
            inputs.len()
        ));
    }
    let b = inputs.pop().expect("two inputs");
    let a = inputs.pop().expect("two inputs");
    Ok(Parsed::Diff(DiffOptions {
        a,
        b,
        focus,
        format,
        top,
        output,
        whatif,
    }))
}

/// Parses the flags of a `dprof whatif` invocation.  Fix-spec grammar errors are
/// parse errors (exit 2); whether the target type exists in the trace is checked at
/// run time, once the trace is decoded.
pub(crate) fn parse_whatif(args: &[String]) -> Result<Parsed, String> {
    let mut input: Option<String> = None;
    let mut fixes: Vec<FixSpec> = Vec::new();
    let mut auto = false;
    let mut format = Format::Text;
    let mut output: Option<String> = None;

    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(Parsed::Help),
            "-V" | "--version" => return Ok(Parsed::Version),
            "--fix" => fixes.push(FixSpec::parse(&take_value(&mut iter, arg)?)?),
            "--auto" => auto = true,
            "-f" | "--format" => format = parse_format(&take_value(&mut iter, arg)?)?,
            "-o" | "--output" => output = Some(take_value(&mut iter, arg)?),
            "-w" | "--workload" | "-v" | "--view" | "--trace" | "--top" => {
                return Err(format!(
                    "'{arg}' conflicts with whatif: whatif replays an existing trace \
                     and its ranking has a fixed shape (try --help)"
                ))
            }
            other if !other.starts_with('-') && input.is_none() => input = Some(other.to_string()),
            other => return Err(format!("unknown whatif argument '{other}' (try --help)")),
        }
    }
    let input = input.ok_or("whatif requires a .dtrace file argument")?;
    if fixes.is_empty() && !auto {
        return Err("whatif needs at least one --fix <spec> or --auto".into());
    }
    Ok(Parsed::Whatif(WhatifOptions {
        input,
        fixes,
        auto,
        format,
        output,
    }))
}

/// Tries to consume one of the run-shape flags shared by `dprof run`/`record` and
/// `dprof accuracy` (workload selection, machine size, rounds, sampling, seed).
/// Returns `Ok(true)` when `arg` was recognized and applied to `run` — keeping the
/// two subcommands' flag surfaces in lockstep by construction.
fn parse_shared_run_flag(
    run: &mut RunOptions,
    arg: &str,
    iter: &mut std::iter::Peekable<std::slice::Iter<String>>,
) -> Result<bool, String> {
    match arg {
        "-w" | "--workload" => run.workload = parse_workload_spec(&take_value(iter, arg)?)?,
        "--tx-policy" => {
            let v = take_value(iter, arg)?;
            run.tx_policy = match v.as_str() {
                "hash" => TxPolicyChoice::Hash,
                "local" => TxPolicyChoice::Local,
                other => {
                    return Err(format!(
                        "unknown tx policy '{other}' (expected hash or local)"
                    ))
                }
            };
        }
        "--apache-load" => {
            let v = take_value(iter, arg)?;
            run.apache_load = match v.as_str() {
                "peak" => ApacheLoad::Peak,
                "drop-off" => ApacheLoad::DropOff,
                "admission-control" => ApacheLoad::AdmissionControl,
                other => {
                    return Err(format!(
                        "unknown apache load '{other}' (expected peak, drop-off, or \
                         admission-control)"
                    ))
                }
            };
        }
        "--cores" => run.cores = parse_num(arg, &take_value(iter, arg)?)?,
        "-j" | "--threads" => run.threads = parse_num(arg, &take_value(iter, arg)?)?,
        "--warmup" => run.warmup_rounds = parse_num(arg, &take_value(iter, arg)?)?,
        "--rounds" => run.sample_rounds = parse_num(arg, &take_value(iter, arg)?)?,
        "--sampling" => run.sampling = SamplingPolicy::parse(&take_value(iter, arg)?)?,
        "--ibs-interval" => run.sampling = parse_ibs_interval(arg, &take_value(iter, arg)?)?,
        "--seed" => run.base_seed = parse_num(arg, &take_value(iter, arg)?)?,
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parses the flags of a `dprof accuracy` invocation: the run surface minus views,
/// history collection and trace capture, plus `--top-k`.
pub(crate) fn parse_accuracy(args: &[String]) -> Result<Parsed, String> {
    let mut run = RunOptions {
        // Accuracy compares sampled and exact *rankings*; the history-collection
        // phase contributes nothing to either and would dominate the runtime.
        history_types: 0,
        ..RunOptions::default()
    };
    let mut top_k = 3usize;
    let mut format = Format::Text;
    let mut output: Option<String> = None;

    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if parse_shared_run_flag(&mut run, arg, &mut iter)? {
            continue;
        }
        match arg.as_str() {
            "-h" | "--help" => return Ok(Parsed::Help),
            "-V" | "--version" => return Ok(Parsed::Version),
            "--top-k" => top_k = parse_num(arg, &take_value(&mut iter, arg)?)?,
            "-f" | "--format" => format = parse_format(&take_value(&mut iter, arg)?)?,
            "-o" | "--output" => output = Some(take_value(&mut iter, arg)?),
            "-v" | "--view" | "--trace" | "--history-types" | "--history-sets" | "--top" => {
                return Err(format!(
                    "'{arg}' conflicts with accuracy: the accuracy report has a fixed \
                     shape and skips history collection (try --help)"
                ))
            }
            other => return Err(format!("unknown accuracy argument '{other}' (try --help)")),
        }
    }
    validate_run_shape(&run)?;
    if top_k == 0 {
        return Err("--top-k must be at least 1".into());
    }
    Ok(Parsed::Accuracy(AccuracyOptions {
        run,
        top_k,
        format,
        output,
    }))
}

/// Parses the flags of a `dprof replay` invocation.
pub(crate) fn parse_replay(args: &[String]) -> Result<Parsed, String> {
    let mut input: Option<String> = None;
    let mut views: Vec<View> = Vec::new();
    let mut format = Format::Text;
    let mut top = 8usize;
    let mut output: Option<String> = None;

    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(Parsed::Help),
            "-V" | "--version" => return Ok(Parsed::Version),
            "-v" | "--view" => parse_views(&take_value(&mut iter, arg)?, &mut views)?,
            "-f" | "--format" => format = parse_format(&take_value(&mut iter, arg)?)?,
            "--top" => top = parse_num(arg, &take_value(&mut iter, arg)?)?,
            "-o" | "--output" => output = Some(take_value(&mut iter, arg)?),
            other if !other.starts_with('-') && input.is_none() => input = Some(other.to_string()),
            other => return Err(format!("unknown replay argument '{other}' (try --help)")),
        }
    }
    if views.is_empty() {
        views = View::ALL.to_vec();
    }
    if top == 0 {
        return Err("--top must be at least 1".into());
    }
    let input = input.ok_or("replay requires a .dtrace file argument")?;
    Ok(Parsed::Replay(ReplayOptions {
        input,
        views,
        format,
        top,
        output,
    }))
}

/// Parses the flags shared by `dprof run` and `dprof record`.
pub(crate) fn parse_run(args: &[String]) -> Result<Parsed, String> {
    let mut options = Options {
        run: RunOptions::default(),
        views: Vec::new(),
        format: Format::Text,
        top: 8,
        output: None,
        trace_out: None,
    };

    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if parse_shared_run_flag(&mut options.run, arg, &mut iter)? {
            continue;
        }
        match arg.as_str() {
            "-h" | "--help" => return Ok(Parsed::Help),
            "-V" | "--version" => return Ok(Parsed::Version),
            "--history-types" => {
                options.run.history_types = parse_num(arg, &take_value(&mut iter, arg)?)?
            }
            "--history-sets" => {
                options.run.history_sets = parse_num(arg, &take_value(&mut iter, arg)?)?
            }
            "-v" | "--view" => parse_views(&take_value(&mut iter, arg)?, &mut options.views)?,
            "-f" | "--format" => options.format = parse_format(&take_value(&mut iter, arg)?)?,
            "--top" => options.top = parse_num(arg, &take_value(&mut iter, arg)?)?,
            "-o" | "--output" => options.output = Some(take_value(&mut iter, arg)?),
            "--trace" => options.trace_out = Some(take_value(&mut iter, arg)?),
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }

    if options.views.is_empty() {
        options.views = View::ALL.to_vec();
    }
    validate_run_shape(&options.run)?;
    if options.top == 0 {
        return Err("--top must be at least 1".into());
    }
    // `--trace` implies recording even without the `record` subcommand spelling.
    if options.trace_out.is_some() {
        options.run.record_session = true;
    }
    Ok(Parsed::Run(options))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprof::workloads::scenarios::{self, Variant};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|s| s.to_string()).collect()
    }

    #[test]
    fn scenario_workloads_parse_with_and_without_variants() {
        let Parsed::Run(o) = parse(&args("-w ring-false-sharing:fixed")).unwrap() else {
            panic!("expected run")
        };
        let WorkloadKind::Scenario { index, variant } = o.run.workload else {
            panic!("expected scenario workload, got {:?}", o.run.workload)
        };
        assert_eq!(scenarios::registry()[index].name, "ring-false-sharing");
        assert_eq!(variant, Variant::Fixed);
        // Bare scenario name = buggy variant; every registered name parses.
        for spec in scenarios::registry() {
            let Parsed::Run(o) = parse(&["--workload".to_string(), spec.name.to_string()]).unwrap()
            else {
                panic!("expected run")
            };
            assert!(matches!(
                o.run.workload,
                WorkloadKind::Scenario {
                    variant: Variant::Buggy,
                    ..
                }
            ));
            assert_eq!(o.run.workload.name(), spec.buggy_name);
        }
        // Bad variants and variant suffixes on built-ins are rejected.
        assert!(parse(&args("-w ring-false-sharing:borked")).is_err());
        assert!(parse(&args("-w memcached:fixed")).is_err());
        // Scenarios need at least 2 cores; a clean error, not the builder's panic.
        assert!(parse(&args("-w remote-hot-lock --cores 1"))
            .unwrap_err()
            .contains("at least 2"));
        assert!(parse(&args("record -w remote-hot-lock --cores 1")).is_err());
        assert!(parse(&args("-w memcached --cores 1")).is_ok());
    }

    #[test]
    fn diff_subcommand_parses_two_files_and_flags() {
        let Parsed::Diff(d) = parse(&args(
            "diff a.json b.json --focus ring_desc -f json --top 5 -o out.json",
        ))
        .unwrap() else {
            panic!("expected diff")
        };
        assert_eq!(d.a, "a.json");
        assert_eq!(d.b, "b.json");
        assert_eq!(d.focus.as_deref(), Some("ring_desc"));
        assert_eq!(d.format, Format::Json);
        assert_eq!(d.top, 5);
        assert_eq!(d.output.as_deref(), Some("out.json"));
    }

    #[test]
    fn diff_rejects_wrong_arity_and_conflicting_flags() {
        assert!(parse(&args("diff only.json"))
            .unwrap_err()
            .contains("exactly two report files (got 1)"));
        assert!(parse(&args("diff a.json b.json c.json"))
            .unwrap_err()
            .contains("exactly two report files (got 3)"));
        assert!(parse(&args("diff a.json b.json --workload memcached"))
            .unwrap_err()
            .contains("conflicts with diff"));
        assert!(parse(&args("diff a.json b.json -v data-flow")).is_err());
        assert!(parse(&args("diff a.json b.json --top 0")).is_err());
        assert!(matches!(parse(&args("diff --help")).unwrap(), Parsed::Help));
    }

    #[test]
    fn defaults() {
        let Parsed::Run(o) = parse(&[]).unwrap() else {
            panic!("expected run")
        };
        assert_eq!(o.views, View::ALL.to_vec());
        assert_eq!(o.format, Format::Text);
        assert_eq!(o.run.threads, 1);
        assert!(matches!(o.run.workload, WorkloadKind::Memcached));
    }

    #[test]
    fn acceptance_command_line() {
        let Parsed::Run(o) =
            parse(&args("--workload memcached --threads 4 --format json")).unwrap()
        else {
            panic!("expected run")
        };
        assert_eq!(o.run.threads, 4);
        assert_eq!(o.format, Format::Json);
        assert_eq!(o.views.len(), 5);
    }

    #[test]
    fn views_accumulate_and_dedupe() {
        let Parsed::Run(o) = parse(&args(
            "-v data-profile,working-set -v data-profile -v data-flow",
        ))
        .unwrap() else {
            panic!("expected run")
        };
        assert_eq!(
            o.views,
            vec![View::DataProfile, View::WorkingSet, View::DataFlow]
        );
    }

    #[test]
    fn utilization_view_parses_and_unknown_views_name_it() {
        let Parsed::Run(o) = parse(&args("-v utilization")).unwrap() else {
            panic!("expected run")
        };
        assert_eq!(o.views, vec![View::Utilization]);
        // `all` includes it, and the help text documents the spelling.
        let Parsed::Run(o) = parse(&args("-v all")).unwrap() else {
            panic!("expected run")
        };
        assert!(o.views.contains(&View::Utilization));
        assert!(usage().contains("utilization"));
        // The unknown-view error enumerates every valid spelling, utilization
        // included.
        let err = parse(&args("-v utilisation")).unwrap_err();
        assert!(err.contains("unknown view"), "{err}");
        assert!(err.contains("utilization"), "{err}");
    }

    #[test]
    fn rejects_unknown_flags_and_values() {
        assert!(parse(&args("--frobnicate")).is_err());
        assert!(parse(&args("--workload nginx")).is_err());
        assert!(parse(&args("--threads zero")).is_err());
        assert!(parse(&args("--threads 0")).is_err());
        assert!(parse(&args("--ibs-interval 0")).is_err());
        assert!(parse(&args("--threads")).is_err());
        assert!(parse(&args("-v everything")).is_err());
        let err = parse(&args("loadgen --spawn --min-throughput 5")).unwrap_err();
        assert!(
            err.contains("unknown loadgen argument '--min-throughput'"),
            "{err}"
        );
    }

    #[test]
    fn loadgen_refuses_spawn_only_flags_against_an_external_collector() {
        for (name, value) in [("--store", "s"), ("--compact-every", "8")] {
            let err = parse(&args(&format!("loadgen -c 127.0.0.1:1 {name} {value}")));
            assert_eq!(
                err.unwrap_err(),
                format!("'{name}' only applies to a --spawn collector")
            );
            assert!(parse(&args(&format!("loadgen --spawn {name} {value}"))).is_ok());
        }
    }

    #[test]
    fn record_subcommand_enables_recording_with_default_path() {
        let Parsed::Run(o) = parse(&args("record -w memcached --threads 2")).unwrap() else {
            panic!("expected run")
        };
        assert!(o.run.record_session);
        assert_eq!(o.trace_out.as_deref(), Some("dprof.dtrace"));
        // Explicit path wins; bare --trace implies recording too.
        let Parsed::Run(o) = parse(&args("--trace s.dtrace")).unwrap() else {
            panic!("expected run")
        };
        assert!(o.run.record_session);
        assert_eq!(o.trace_out.as_deref(), Some("s.dtrace"));
        // Plain runs record nothing.
        let Parsed::Run(o) = parse(&args("run -w apache")).unwrap() else {
            panic!("expected run")
        };
        assert!(!o.run.record_session);
        assert!(o.trace_out.is_none());
    }

    #[test]
    fn replay_subcommand_parses_file_and_report_flags() {
        let Parsed::Replay(r) = parse(&args(
            "replay session.dtrace -f json -v working-set --top 5 -o out.json",
        ))
        .unwrap() else {
            panic!("expected replay")
        };
        assert_eq!(r.input, "session.dtrace");
        assert_eq!(r.format, Format::Json);
        assert_eq!(r.views, vec![View::WorkingSet]);
        assert_eq!(r.top, 5);
        assert_eq!(r.output.as_deref(), Some("out.json"));
        // Defaults: all views, text format.
        let Parsed::Replay(r) = parse(&args("replay x.dtrace")).unwrap() else {
            panic!("expected replay")
        };
        assert_eq!(r.views, View::ALL.to_vec());
        assert_eq!(r.format, Format::Text);
    }

    #[test]
    fn replay_rejects_missing_file_and_run_flags() {
        assert!(parse(&args("replay")).is_err());
        assert!(parse(&args("replay x.dtrace --workload memcached")).is_err());
        assert!(parse(&args("replay x.dtrace --top 0")).is_err());
        assert!(matches!(
            parse(&args("replay --help")).unwrap(),
            Parsed::Help
        ));
    }

    #[test]
    fn sampling_policies_parse_on_run_and_reject_garbage() {
        let Parsed::Run(o) = parse(&args("--sampling adaptive:5000")).unwrap() else {
            panic!("expected run")
        };
        assert_eq!(o.run.sampling, SamplingPolicy::Adaptive { budget: 5000 });
        let Parsed::Run(o) = parse(&args("--sampling fixed:64")).unwrap() else {
            panic!("expected run")
        };
        assert_eq!(o.run.sampling, SamplingPolicy::Fixed { interval_ops: 64 });
        // --ibs-interval stays as the fixed-rate shorthand.
        let Parsed::Run(o) = parse(&args("--ibs-interval 32")).unwrap() else {
            panic!("expected run")
        };
        assert_eq!(o.run.sampling, SamplingPolicy::Fixed { interval_ops: 32 });
        assert!(parse(&args("--sampling adaptive:0")).is_err());
        assert!(parse(&args("--sampling fixed")).is_err());
        assert!(parse(&args("--sampling 200")).is_err());
        assert!(parse(&args("--sampling turbo:9")).is_err());
    }

    #[test]
    fn accuracy_subcommand_parses_run_surface_plus_top_k() {
        let Parsed::Accuracy(a) = parse(&args(
            "accuracy -w remote-hot-lock:buggy --cores 2 --rounds 50 \
             --sampling adaptive:2500 --top-k 4 -f json -o acc.json",
        ))
        .unwrap() else {
            panic!("expected accuracy")
        };
        assert_eq!(a.run.workload.name(), "remote-hot-lock:buggy");
        assert_eq!(a.run.sampling, SamplingPolicy::Adaptive { budget: 2500 });
        assert_eq!(a.run.sample_rounds, 50);
        assert_eq!(a.top_k, 4);
        assert_eq!(a.format, Format::Json);
        assert_eq!(a.output.as_deref(), Some("acc.json"));
        assert_eq!(a.run.history_types, 0, "accuracy skips history collection");
        // Defaults.
        let Parsed::Accuracy(a) = parse(&args("accuracy")).unwrap() else {
            panic!("expected accuracy")
        };
        assert_eq!(a.top_k, 3);
        assert_eq!(a.format, Format::Text);
    }

    #[test]
    fn accuracy_rejects_conflicting_and_invalid_flags() {
        assert!(parse(&args("accuracy -v data-profile"))
            .unwrap_err()
            .contains("conflicts with accuracy"));
        assert!(parse(&args("accuracy --trace t.dtrace")).is_err());
        assert!(parse(&args("accuracy --history-types 2")).is_err());
        assert!(parse(&args("accuracy --top 5")).is_err());
        assert!(parse(&args("accuracy --top-k 0")).is_err());
        assert!(parse(&args("accuracy -w remote-hot-lock --cores 1")).is_err());
        assert!(matches!(
            parse(&args("accuracy --help")).unwrap(),
            Parsed::Help
        ));
    }

    #[test]
    fn help_and_version() {
        assert!(matches!(parse(&args("--help")).unwrap(), Parsed::Help));
        assert!(matches!(parse(&args("-V")).unwrap(), Parsed::Version));
        // Help wins even with other flags present.
        assert!(matches!(
            parse(&args("--threads 4 -h")).unwrap(),
            Parsed::Help
        ));
    }
}
