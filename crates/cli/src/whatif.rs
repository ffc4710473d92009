//! The `dprof whatif` subcommand: causal what-if profiling.
//!
//! A data-profile row says *where* the misses are; it does not say how much fixing
//! them would actually buy.  `dprof whatif` answers that causally: it replays a
//! recorded `.dtrace` session against hypothetical memory layouts (the
//! [`FixSpec`] transforms in `dprof-trace`) and reports each candidate's predicted
//! end-to-end throughput gain — the makespan delta between the identity baseline and
//! the counterfactual replay — ranked, with Wilson-gated block-vote confidence from
//! `dprof-core`.
//!
//! `--auto` enumerates candidates from the trace itself: it re-profiles the trace
//! (the ordinary replay pipeline), takes the top data-profile rows, and picks a fix
//! family per type from the dominant miss class plus granule-sharing statistics —
//! capacity/conflict misses suggest `shrink`, invalidation misses split into `pad`
//! (single-owner granules: false sharing), `pin` (serial migration) and `localize`
//! (concurrent sharing).

use crate::args::{Format, WhatifOptions};
use crate::{driver, merge};
use dprof::core::schema::Json;
use dprof::core::{blocks_from_rounds, estimate_gain, rank_candidates, BlockDelta, GainEstimate};
use dprof::trace::{
    analyze_sharing, available_workers, for_each_stream, measure_stream_streaming,
    replay_stream_streaming, validate_spec, FixSpec, SharingProfile, TraceReader, TraceSource,
    WhatifMeasure,
};
use std::fmt::Write as _;

/// JSON schema identifier of the what-if document.
pub const WHATIF_SCHEMA: &str = dprof::core::schema::WHATIF_V1;

/// Minimum merged L1-miss samples a data-profile row needs before `--auto` spends a
/// measurement replay on it.
const AUTO_MISS_FLOOR: u64 = 8;
/// How many top data-profile rows `--auto` diagnoses.
const AUTO_TOP_TYPES: usize = 3;
/// Below this foreign-access fraction, invalidation misses come from granules that
/// each have a single owning core — false sharing, `pad` territory.
const PAD_FOREIGN_MAX: f64 = 0.25;
/// Below this mean per-round core concurrency, sharing is serial hand-off between
/// cores (`pin` territory); above, genuinely concurrent (`localize` territory).
const PIN_CONCURRENCY_MAX: f64 = 1.4;
/// Minimum pooled granule slots a utilization row needs before `--auto` treats its
/// wasted bandwidth as evidence rather than noise.
const AUTO_UTIL_FETCH_FLOOR: u64 = 64;
/// Utilization at or above this fraction of the line is healthy; only rows below it
/// become layout-fix candidates.
const AUTO_UTIL_PCT_MAX: f64 = 50.0;

/// One measured candidate fix, in rank order.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The fix that was applied at replay time.
    pub spec: FixSpec,
    /// Where the candidate came from: `--fix`, or `--auto`'s diagnosis one-liner.
    pub source: String,
    /// Predicted effect with block-vote confidence.
    pub estimate: GainEstimate,
    /// True when the candidate's rank is statistically firm (its gain interval does
    /// not overlap either ranked neighbour's).
    pub rank_stable: bool,
}

/// The full outcome of a what-if analysis: the baseline measurement plus every
/// candidate, ranked by predicted gain (descending).
#[derive(Debug, Clone)]
pub struct WhatifAnalysis {
    /// Recorded streams measured (one simulated machine each).
    pub streams: usize,
    /// Measured post-warmup rounds per stream.
    pub rounds: usize,
    /// Identity-baseline makespan cycles, summed over streams.
    pub baseline_cycles: u64,
    /// Identity-baseline simulated seconds (max over streams; they run in parallel).
    pub baseline_seconds: f64,
    /// Candidates in rank order.
    pub candidates: Vec<Candidate>,
}

/// Runs the what-if engine over a trace: validates and/or enumerates the candidate
/// fixes, measures the identity baseline and every candidate, and ranks the results.
/// This is the same entry point the oracle harness drives in-process.
pub fn analyze_trace(
    source: &impl TraceSource,
    explicit: &[FixSpec],
    auto: bool,
) -> Result<WhatifAnalysis, String> {
    analyze_trace_on(available_workers(), source, explicit, auto)
}

/// One wave-1 job's result.
enum Wave1 {
    /// `--auto`'s re-profile of one stream.
    Profiled(Box<driver::ThreadRun>),
    /// The identity baseline of one stream.
    Baseline(WhatifMeasure),
}

/// [`analyze_trace`] with at most `workers` replays in flight.  Every replay is an
/// independent job with its own universe, run in two waves on the bounded fan-out
/// and slotted by index, and everything computed from them runs on the calling thread
/// in candidate order — so the analysis is the same for every `workers`.
pub fn analyze_trace_on(
    workers: usize,
    source: &impl TraceSource,
    explicit: &[FixSpec],
    auto: bool,
) -> Result<WhatifAnalysis, String> {
    for spec in explicit {
        validate_spec(source, spec)?;
    }
    if explicit.is_empty() && !auto {
        return Err("no candidate fixes (pass --fix <spec> and/or --auto)".into());
    }

    // Wave 1: the identity baseline and, under `--auto`, the profiled replay the
    // candidates are enumerated from.  Neither needs the other.
    let profiled_passes = usize::from(auto);
    let wave1 = for_each_stream(workers, source, profiled_passes + 1, |pass, thread| {
        if pass < profiled_passes {
            replay_stream_streaming(source, thread).map(|(run, _)| Wave1::Profiled(Box::new(run)))
        } else {
            measure_stream_streaming(source, thread, &FixSpec::Identity).map(Wave1::Baseline)
        }
    })?;
    let mut runs: Vec<driver::ThreadRun> = Vec::new();
    let mut baseline: Vec<WhatifMeasure> = Vec::new();
    for result in wave1 {
        match result {
            Wave1::Profiled(run) => runs.push(*run),
            Wave1::Baseline(measure) => baseline.push(measure),
        }
    }

    let mut specs: Vec<(FixSpec, String)> = explicit
        .iter()
        .map(|s| (s.clone(), "--fix".to_string()))
        .collect();
    if auto {
        for (spec, why) in auto_candidates(source, &runs)? {
            if !specs.iter().any(|(s, _)| s == &spec) {
                specs.push((spec, why));
            }
        }
    }

    let baseline_cycles: u64 = baseline.iter().map(WhatifMeasure::window_cycles).sum();
    let baseline_seconds = baseline
        .iter()
        .map(WhatifMeasure::window_seconds)
        .fold(0.0_f64, f64::max);
    let rounds = baseline
        .iter()
        .map(|m| m.round_clocks.len())
        .max()
        .unwrap_or(0);

    // Wave 2: every candidate's measurement of every stream.
    let fixed = for_each_stream(workers, source, specs.len(), |candidate, thread| {
        measure_stream_streaming(source, thread, &specs[candidate].0)
    })?;
    let measured: Vec<(FixSpec, String, GainEstimate)> = specs
        .into_iter()
        .zip(fixed.chunks(baseline.len()))
        .map(|((spec, source), fixed)| {
            let mut blocks: Vec<BlockDelta> = Vec::new();
            for (b, f) in baseline.iter().zip(fixed) {
                blocks.extend(blocks_from_rounds(
                    &b.round_clocks,
                    &f.round_clocks,
                    b.warmup_clock,
                    f.warmup_clock,
                ));
            }
            (spec, source, estimate_gain(&blocks))
        })
        .collect();

    let labelled: Vec<(String, GainEstimate)> = measured
        .iter()
        .map(|(spec, _, est)| (spec.to_string(), est.clone()))
        .collect();
    let candidates = rank_candidates(&labelled)
        .into_iter()
        .map(|(i, rank_stable)| {
            let (spec, source, estimate) = measured[i].clone();
            Candidate {
                spec,
                source,
                estimate,
                rank_stable,
            }
        })
        .collect();

    Ok(WhatifAnalysis {
        streams: baseline.len(),
        rounds,
        baseline_cycles,
        baseline_seconds,
        candidates,
    })
}

/// Enumerates `--auto` candidates from the trace's re-profile (`runs`, the ordinary
/// replay pipeline's output): take the top data-profile rows and diagnose a fix
/// family per type.
fn auto_candidates(
    source: &impl TraceSource,
    runs: &[driver::ThreadRun],
) -> Result<Vec<(FixSpec, String)>, String> {
    let report = merge::merge(runs);
    let line = source.machine().hierarchy.l1.line_size as u64;

    let hot: Vec<(&str, &str)> = report
        .data_profile
        .iter()
        .filter(|r| r.l1_miss_samples >= AUTO_MISS_FLOOR)
        .take(AUTO_TOP_TYPES)
        .map(|row| {
            let dominant = report
                .miss_classification
                .iter()
                .find(|m| m.name == row.name)
                .map(|m| m.dominant())
                .unwrap_or("invalidation");
            (row.name.as_str(), dominant)
        })
        .collect();
    // One walk gathers the sharing statistics of every invalidation-dominated type.
    let invalidated: Vec<&str> = hot
        .iter()
        .filter(|(_, dominant)| *dominant == "invalidation")
        .map(|(name, _)| *name)
        .collect();
    let mut sharing = analyze_sharing(source, &invalidated)?.into_iter();
    let mut out: Vec<(FixSpec, String)> = hot
        .iter()
        .map(|&(name, dominant)| match dominant {
            "invalidation" => diagnose_sharing(name, sharing.next().expect("one per type")),
            _ => (
                FixSpec::Shrink {
                    type_name: name.to_string(),
                    bytes: line,
                },
                format!("{dominant}-dominated misses: compact each object to one {line}-byte line"),
            ),
        })
        .collect();
    // The utilization view surfaces layout waste the miss-share rows can hide: a
    // type whose misses land in L2/L3 never reaches the data-profile top, yet every
    // fetch of its lines can still be mostly dead bytes.  Low-utilization rows with
    // enough pooled evidence become shrink candidates too.
    for row in report
        .utilization
        .rows
        .iter()
        .filter(|r| {
            r.slots_fetched >= AUTO_UTIL_FETCH_FLOOR && r.utilization_pct() < AUTO_UTIL_PCT_MAX
        })
        .take(AUTO_TOP_TYPES)
    {
        let spec = FixSpec::Shrink {
            type_name: row.name.clone(),
            bytes: line,
        };
        if out.iter().any(|(s, _)| s == &spec) {
            continue;
        }
        out.push((
            spec,
            format!(
                "line utilization {:.0}% ({} wasted bytes/s): pack live fields into one \
                 {line}-byte line",
                row.utilization_pct(),
                row.wasted_bytes_per_sec as u64
            ),
        ));
    }
    if out.is_empty() {
        return Err(
            "--auto found no candidates: the trace's profile has no data-profile rows \
             with enough miss samples (record with a smaller sampling interval or more \
             rounds)"
                .into(),
        );
    }
    Ok(out)
}

/// Picks the fix family for one invalidation-dominated hot type from its
/// granule-sharing statistics.
fn diagnose_sharing(name: &str, sharing: SharingProfile) -> (FixSpec, String) {
    if sharing.foreign_fraction < PAD_FOREIGN_MAX {
        (
            FixSpec::Pad {
                type_name: name.to_string(),
            },
            format!(
                "invalidations on single-owner granules ({:.0}% foreign): false sharing",
                100.0 * sharing.foreign_fraction
            ),
        )
    } else if sharing.concurrency < PIN_CONCURRENCY_MAX {
        (
            FixSpec::Pin {
                type_name: name.to_string(),
            },
            format!(
                "invalidations from serial migration ({:.1} cores/round): pin to home core",
                sharing.concurrency
            ),
        )
    } else {
        (
            FixSpec::Localize {
                type_name: name.to_string(),
            },
            format!(
                "invalidations from concurrent sharing ({:.1} cores/round): per-core copies",
                sharing.concurrency
            ),
        )
    }
}

/// Runs the full `dprof whatif` subcommand and returns the process exit code.
pub fn run_whatif(options: &WhatifOptions) -> i32 {
    let reader = match TraceReader::open(&options.input) {
        Ok(reader) => reader,
        Err(message) => {
            eprintln!("error: {message}");
            return 1;
        }
    };
    eprintln!(
        "what-if analysis of {} ({} workload, {} stream(s))...",
        options.input,
        reader.params.workload,
        reader.stream_count()
    );
    let analysis = match analyze_trace(&reader, &options.fixes, options.auto) {
        Ok(analysis) => analysis,
        Err(message) => {
            eprintln!("error: {message}");
            return 1;
        }
    };
    let rendered = match options.format {
        Format::Text => render_whatif_text(&analysis, options),
        Format::Json => render_whatif_json(&analysis, options).to_pretty_string(),
    };
    crate::emit(&rendered, &options.output)
}

fn fmt_pct(x: f64) -> String {
    format!("{:+.2}%", 100.0 * x)
}

/// Renders the human-readable ranking.
pub fn render_whatif_text(a: &WhatifAnalysis, options: &WhatifOptions) -> String {
    let mut out = String::new();
    writeln!(out, "dprof whatif — {}", options.input).unwrap();
    writeln!(
        out,
        "baseline: {} cycles over {} round(s) x {} stream(s) ({:.6}s simulated)",
        a.baseline_cycles, a.rounds, a.streams, a.baseline_seconds
    )
    .unwrap();
    writeln!(
        out,
        "\n{:<4} {:<28} {:>14} {:>8} {:>9} {:>9} {:>7}",
        "rank", "fix", "predicted gain", "speedup", "improved", "confident", "stable"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(85)).unwrap();
    for (rank, c) in a.candidates.iter().enumerate() {
        let e = &c.estimate;
        writeln!(
            out,
            "{:<4} {:<28} {:>14} {:>7.2}x {:>9} {:>9} {:>7}",
            rank + 1,
            c.spec.to_string(),
            fmt_pct(e.gain),
            e.speedup,
            format!("{}/{}", e.blocks_improved, e.blocks),
            if e.confident { "yes" } else { "no" },
            if c.rank_stable { "yes" } else { "no" },
        )
        .unwrap();
        writeln!(out, "     - {}", c.source).unwrap();
    }
    if let Some(best) = a.candidates.first() {
        writeln!(
            out,
            "\nbest fix {}: predicted {} end-to-end ({})",
            best.spec,
            fmt_pct(best.estimate.gain),
            if best.estimate.confident {
                "confident: the Wilson 95% low bound has most blocks improving"
            } else {
                "NOT confident: the block votes do not separate it from noise"
            }
        )
        .unwrap();
    }
    out
}

/// Builds the `dprof-whatif/v1` JSON document.
pub fn render_whatif_json(a: &WhatifAnalysis, options: &WhatifOptions) -> Json {
    Json::obj(vec![
        ("schema", Json::str(WHATIF_SCHEMA)),
        ("trace", Json::str(&options.input)),
        ("streams", Json::num(a.streams as u32)),
        ("rounds", Json::num(a.rounds as u32)),
        ("baseline_cycles", Json::num(a.baseline_cycles as f64)),
        ("baseline_seconds", Json::num(a.baseline_seconds)),
        (
            "candidates",
            Json::Arr(
                a.candidates
                    .iter()
                    .enumerate()
                    .map(|(rank, c)| {
                        let e = &c.estimate;
                        Json::obj(vec![
                            ("rank", Json::num((rank + 1) as u32)),
                            ("fix", Json::str(c.spec.to_string())),
                            ("kind", Json::str(c.spec.kind())),
                            (
                                "target",
                                c.spec.target().map(Json::str).unwrap_or(Json::Null),
                            ),
                            ("source", Json::str(&c.source)),
                            ("predicted_gain", Json::num(e.gain)),
                            ("speedup", Json::num(e.speedup)),
                            ("base_cycles", Json::num(e.base_cycles as f64)),
                            ("fix_cycles", Json::num(e.fix_cycles as f64)),
                            ("blocks", Json::num(e.blocks as f64)),
                            ("blocks_improved", Json::num(e.blocks_improved as f64)),
                            (
                                "win_ci",
                                Json::Arr(vec![Json::num(e.win_ci.0), Json::num(e.win_ci.1)]),
                            ),
                            ("confident", Json::Bool(e.confident)),
                            (
                                "gain_ci",
                                Json::Arr(vec![Json::num(e.gain_ci.0), Json::num(e.gain_ci.1)]),
                            ),
                            ("rank_stable", Json::Bool(c.rank_stable)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
