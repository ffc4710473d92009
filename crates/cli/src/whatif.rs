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
use crate::json::Json;
use crate::{driver, merge};
use dprof::core::{blocks_from_rounds, estimate_gain, rank_candidates, BlockDelta, GainEstimate};
use dprof::trace::{
    analyze_sharing, measure_all_streaming, replay_all_streaming, validate_spec, FixSpec,
    TraceFile, WhatifMeasure,
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

/// Runs the what-if engine over a decoded trace: validates and/or enumerates the
/// candidate fixes, measures the identity baseline and every candidate, and ranks
/// the results.  This is the same entry point the oracle harness drives in-process.
pub fn analyze_trace(
    file: &TraceFile,
    explicit: &[FixSpec],
    auto: bool,
) -> Result<WhatifAnalysis, String> {
    for spec in explicit {
        validate_spec(file, spec)?;
    }
    let mut specs: Vec<(FixSpec, String)> = explicit
        .iter()
        .map(|s| (s.clone(), "--fix".to_string()))
        .collect();
    if auto {
        for (spec, why) in auto_candidates(file)? {
            if !specs.iter().any(|(s, _)| s == &spec) {
                specs.push((spec, why));
            }
        }
    }
    if specs.is_empty() {
        return Err("no candidate fixes (pass --fix <spec> and/or --auto)".into());
    }

    let baseline = measure_all_streaming(file, &FixSpec::Identity)?;
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

    let mut measured: Vec<(FixSpec, String, GainEstimate)> = Vec::new();
    for (spec, source) in specs {
        let fixed = measure_all_streaming(file, &spec)?;
        let mut blocks: Vec<BlockDelta> = Vec::new();
        for (b, f) in baseline.iter().zip(&fixed) {
            blocks.extend(blocks_from_rounds(
                &b.round_clocks,
                &f.round_clocks,
                b.warmup_clock,
                f.warmup_clock,
            ));
        }
        measured.push((spec, source, estimate_gain(&blocks)));
    }

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

/// Enumerates `--auto` candidates: re-profile the trace through the ordinary replay
/// pipeline, take the top data-profile rows, and diagnose a fix family per type.
fn auto_candidates(file: &TraceFile) -> Result<Vec<(FixSpec, String)>, String> {
    let runs: Vec<driver::ThreadRun> = replay_all_streaming(file)?
        .into_iter()
        .map(|r| driver::ThreadRun {
            thread: r.thread,
            seed: r.seed,
            profile: r.profile,
            type_names: r.type_names,
            requests: r.requests,
            elapsed_seconds: r.elapsed_seconds,
            total_cycles: r.total_cycles,
            profiling_fraction: r.profiling_fraction,
            recorded: None,
        })
        .collect();
    let report = merge::merge(&runs);
    let line = file.machine.hierarchy.l1.line_size as u64;

    let mut out: Vec<(FixSpec, String)> = Vec::new();
    for row in report
        .data_profile
        .iter()
        .filter(|r| r.l1_miss_samples >= AUTO_MISS_FLOOR)
        .take(AUTO_TOP_TYPES)
    {
        let dominant = report
            .miss_classification
            .iter()
            .find(|m| m.name == row.name)
            .map(merge::MergedMissRow::dominant)
            .unwrap_or("invalidation");
        out.push(diagnose(file, &row.name, dominant, line)?);
    }
    // The utilization view surfaces layout waste the miss-share rows can hide: a
    // type whose misses land in L2/L3 never reaches the data-profile top, yet every
    // fetch of its lines can still be mostly dead bytes.  Low-utilization rows with
    // enough pooled evidence become shrink candidates too.
    for row in report
        .utilization
        .rows
        .iter()
        .filter(|r| {
            r.slots_fetched >= AUTO_UTIL_FETCH_FLOOR && r.utilization_pct < AUTO_UTIL_PCT_MAX
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
                row.utilization_pct, row.wasted_bytes_per_sec as u64
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

/// Picks the fix family for one hot type from its dominant miss class and its
/// granule-sharing statistics.
fn diagnose(
    file: &TraceFile,
    name: &str,
    dominant: &str,
    line: u64,
) -> Result<(FixSpec, String), String> {
    if dominant != "invalidation" {
        return Ok((
            FixSpec::Shrink {
                type_name: name.to_string(),
                bytes: line,
            },
            format!("{dominant}-dominated misses: compact each object to one {line}-byte line"),
        ));
    }
    let sharing = analyze_sharing(file, name)?;
    Ok(if sharing.foreign_fraction < PAD_FOREIGN_MAX {
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
    })
}

/// Runs the full `dprof whatif` subcommand and returns the process exit code.
pub fn run_whatif(options: &WhatifOptions) -> i32 {
    let file = match TraceFile::read(&options.input) {
        Ok(file) => file,
        Err(message) => {
            eprintln!("error: {message}");
            return 1;
        }
    };
    eprintln!(
        "what-if analysis of {} ({} workload, {} stream(s))...",
        options.input,
        file.params.workload,
        file.streams.len()
    );
    let analysis = match analyze_trace(&file, &options.fixes, options.auto) {
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
