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
//! (concurrent sharing).  The same re-profile yields the identity baseline, so
//! `--auto` spends no pass of its own on it.

use crate::args::{Format, WhatifOptions};
use crate::merge::MergedReport;
use crate::{driver, merge};
use dprof::core::schema::JsonWriter;
use dprof::core::{blocks_from_rounds, estimate_gain, rank_candidates, BlockDelta, GainEstimate};
use dprof::trace::{
    analyze_sharing, analyze_sharing_unless, available_workers, fan_out, for_each_stream,
    measure_stream_streaming, replay_and_measure_stream, session_streams, trace_type_names,
    validate_spec, FixSpec, SharingProfile, TraceReader, WhatifMeasure,
};
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

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
    /// Measured rounds per stream: the rounds the session sampled after warmup.
    pub rounds: usize,
    /// Identity-baseline makespan cycles, summed over streams: read off the profiled
    /// replays under `--auto`, measured by profiler-free identity passes without it
    /// (the same numbers either way).
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
    reader: &TraceReader,
    explicit: &[FixSpec],
    auto: bool,
) -> Result<WhatifAnalysis, String> {
    analyze_trace_on(available_workers(), reader, explicit, auto)
}

/// The types a sharing walk covered, and their profiles.
type Walked = (Vec<String>, Vec<SharingProfile>);

/// One wave-1 job's result.
enum Wave1 {
    /// The identity baseline of one stream, and how many events its profiled replay
    /// left unconsumed (always 0 without `--auto`, which replays no profile).
    Baseline(WhatifMeasure, usize),
    /// `--auto`'s sharing walk: the types it walked and their profiles, or `None` when
    /// it was abandoned because the diagnosis needs none.
    Sharing(Option<Walked>),
}

/// What `--auto` diagnoses from: the merged report of the profiled replays, and the
/// invalidation-dominated hot types, whose sharing profiles the diagnosis reads.
type Diagnosis = (MergedReport, Vec<String>);

/// [`analyze_trace`] with at most `workers` jobs in flight.  Every replay is an
/// independent job with its own universe, run in two waves on the bounded fan-out
/// and slotted by index, and everything computed from them runs on the calling thread
/// in candidate order — so the analysis is the same for every `workers`.
///
/// Wave 1 is one replay of every stream that yields its identity baseline.  Under
/// `--auto` that is the profiled replay, which the baseline is read off (the machine
/// books the profiler's cycles apart: [`replay_and_measure_stream`]), and, last, the
/// sharing walk (`sharing_walk`); without it, a profiler-free identity pass
/// ([`measure_stream_streaming`]).  The last profiled replay to finish merges them
/// all, which names the types the walk must cover.  On two workers the walk starts at
/// once, beside the profile, so it walks every type; on one it starts after the
/// profile and walks only the types named.  The candidates are diagnosed on the
/// calling thread; wave 2 measures them.
pub fn analyze_trace_on(
    workers: usize,
    reader: &TraceReader,
    explicit: &[FixSpec],
    auto: bool,
) -> Result<WhatifAnalysis, String> {
    for spec in explicit {
        validate_spec(reader, spec)?;
    }
    if explicit.is_empty() && !auto {
        return Err("no candidate fixes (pass --fix <spec> and/or --auto)".into());
    }

    let streams = session_streams(reader)?;
    let profiled: Mutex<Vec<Option<driver::ThreadRun>>> =
        Mutex::new((0..streams).map(|_| None).collect());
    let diagnosis: OnceLock<Diagnosis> = OnceLock::new();
    let wave1 = fan_out(workers, streams + usize::from(auto), |thread| {
        if thread == streams {
            return sharing_walk(reader, &diagnosis).map(Wave1::Sharing);
        }
        if !auto {
            let measure = measure_stream_streaming(reader, thread, &FixSpec::Identity)?;
            return Ok(Wave1::Baseline(measure, 0));
        }
        // The last profiled replay in merges them all and names the types the
        // diagnosis will read the sharing profiles of.
        let (run, trailing, measure) = replay_and_measure_stream(reader, thread)?;
        let mut runs = profiled.lock().expect("no job panics holding it");
        runs[thread] = Some(run);
        if runs.iter().all(Option::is_some) {
            let runs: Vec<driver::ThreadRun> = runs.iter_mut().flat_map(Option::take).collect();
            let report = merge::merge(&runs);
            let invalidated = invalidated(&hot_types(&report));
            let _ = diagnosis.set((report, invalidated));
        }
        Ok(Wave1::Baseline(measure, trailing))
    });
    let mut baseline: Vec<WhatifMeasure> = Vec::new();
    let mut walked: Option<Walked> = None;
    for (i, result) in wave1.into_iter().enumerate() {
        // The walk names the stream it failed on itself.
        let result = if i < streams {
            result.map_err(|e| format!("stream {i}: {e}"))
        } else {
            result
        };
        match result? {
            Wave1::Baseline(measure, trailing) => {
                // Said before the diagnosis, which a diverged profile may fail.
                if trailing > 0 {
                    crate::warn_diverged(i, trailing);
                }
                baseline.push(measure);
            }
            Wave1::Sharing(profiles) => walked = profiles,
        }
    }

    let mut specs: Vec<(FixSpec, String)> = explicit
        .iter()
        .map(|s| (s.clone(), "--fix".to_string()))
        .collect();
    if let Some(diagnosis) = diagnosis.get() {
        let walked = walked.as_ref().map(|(n, p)| (n.as_slice(), p.as_slice()));
        for (spec, why) in auto_candidates(reader, diagnosis, walked)? {
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
    let fixed = for_each_stream(workers, reader, specs.len(), |candidate, thread| {
        measure_stream_streaming(reader, thread, &specs[candidate].0)
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

/// `--auto`'s sharing walk, a wave-1 job that may start before the profiled replays
/// are done.  Once the diagnosis is in, it walks the types the diagnosis needs; before,
/// it walks every recorded type (a type's profile does not depend on which types are
/// walked beside it) and gives up at the first round end after the diagnosis turns
/// out to need none.
fn sharing_walk(
    reader: &TraceReader,
    diagnosis: &OnceLock<Diagnosis>,
) -> Result<Option<Walked>, String> {
    let names = match diagnosis.get() {
        Some((_, invalidated)) => invalidated.clone(),
        None => trace_type_names(reader),
    };
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let needless = || {
        diagnosis
            .get()
            .is_some_and(|(_, invalidated)| invalidated.is_empty())
    };
    Ok(analyze_sharing_unless(reader, &refs, needless)?.map(|profiles| (names, profiles)))
}

/// The top data-profile rows `--auto` diagnoses, each with its dominant miss class.
fn hot_types(report: &MergedReport) -> Vec<(&str, &str)> {
    report
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
            (&*row.name, dominant)
        })
        .collect()
}

/// The invalidation-dominated types among `hot`, in order.
fn invalidated(hot: &[(&str, &str)]) -> Vec<String> {
    hot.iter()
        .filter(|(_, dominant)| *dominant == "invalidation")
        .map(|(name, _)| name.to_string())
        .collect()
}

/// Enumerates `--auto` candidates from the trace's re-profile (the ordinary replay
/// pipeline's output, merged in `diagnosis`): take the top data-profile rows and
/// diagnose a fix family per type.  An invalidation-dominated type's family comes from
/// its sharing profile, read from `walked` (the types wave 1's walk covered, and their
/// profiles) or, when the walk was abandoned, from one walk of just those types.
fn auto_candidates(
    reader: &TraceReader,
    (report, invalidated): &Diagnosis,
    walked: Option<(&[String], &[SharingProfile])>,
) -> Result<Vec<(FixSpec, String)>, String> {
    let line = reader.machine.hierarchy.l1.line_size as u64;

    let hot = hot_types(report);
    let sharing = match walked {
        // A name the walk did not cover is a type no stream registered, and walking
        // it would give the zero profile.
        Some((names, profiles)) => invalidated
            .iter()
            .map(|name| {
                let i = names.iter().position(|n| n == name);
                i.map_or(SharingProfile::default(), |i| profiles[i])
            })
            .collect(),
        None => {
            let names: Vec<&str> = invalidated.iter().map(String::as_str).collect();
            analyze_sharing(reader, &names)?
        }
    };
    let mut sharing = sharing.into_iter();
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
            type_name: row.name.to_string(),
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
        Format::Json => render_whatif_json(&analysis, options),
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

/// Writes the `dprof-whatif/v1` JSON document.
pub fn render_whatif_json(a: &WhatifAnalysis, options: &WhatifOptions) -> String {
    let pair = |w: &mut JsonWriter, key: &str, (low, high): (f64, f64)| {
        w.key(key)
            .open_arr()
            .item()
            .num(low)
            .item()
            .num(high)
            .close_arr();
    };
    let mut w = JsonWriter::default();
    w.open_obj();
    w.key("schema").str(WHATIF_SCHEMA);
    w.key("trace").str(&options.input);
    w.key("streams").num(a.streams as f64);
    w.key("rounds").num(a.rounds as f64);
    w.key("baseline_cycles").num(a.baseline_cycles as f64);
    w.key("baseline_seconds").num(a.baseline_seconds);
    w.key("candidates").open_arr();
    for (rank, c) in a.candidates.iter().enumerate() {
        let e = &c.estimate;
        w.item().open_obj();
        w.key("rank").num((rank + 1) as f64);
        w.key("fix").str(&c.spec.to_string());
        w.key("kind").str(c.spec.kind());
        match c.spec.target() {
            Some(target) => w.key("target").str(target),
            None => w.key("target").null(),
        };
        w.key("source").str(&c.source);
        w.key("predicted_gain").num(e.gain);
        w.key("speedup").num(e.speedup);
        w.key("base_cycles").num(e.base_cycles as f64);
        w.key("fix_cycles").num(e.fix_cycles as f64);
        w.key("blocks").num(e.blocks as f64);
        w.key("blocks_improved").num(e.blocks_improved as f64);
        pair(&mut w, "win_ci", e.win_ci);
        w.key("confident").bool(e.confident);
        pair(&mut w, "gain_ci", e.gain_ci);
        w.key("rank_stable").bool(c.rank_stable);
        w.close_obj();
    }
    w.close_arr().close_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprof::trace::replay_stream_streaming;

    #[test]
    fn a_profiled_type_no_stream_registered_is_diagnosed_from_the_zero_profile() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/ring_false_sharing_quick.dtrace"
        );
        let reader = TraceReader::open(path).unwrap();
        let (mut run, _) = replay_stream_streaming(&reader, 0).unwrap();
        // The hot, invalidation-dominated row, under a name the trace does not record.
        let profile = &mut run.profile;
        for row in profile
            .data_profile
            .iter_mut()
            .filter(|r| r.name == "ring_desc")
        {
            row.name = "__nosuch".to_string();
        }
        for row in (profile.miss_classification.iter_mut()).filter(|m| &*m.name == "ring_desc") {
            row.name = "__nosuch".into();
        }
        let report = merge::merge(&[run]);
        let invalidated = invalidated(&hot_types(&report));
        let diagnosis = (report, invalidated);
        let names = trace_type_names(&reader);
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let profiles = analyze_sharing(&reader, &refs).unwrap();

        let from_wave1 = auto_candidates(&reader, &diagnosis, Some((&names, &profiles))).unwrap();
        assert_eq!(
            from_wave1,
            auto_candidates(&reader, &diagnosis, None).unwrap()
        );
        let pad = FixSpec::Pad {
            type_name: "__nosuch".to_string(),
        };
        assert!(
            from_wave1
                .iter()
                .any(|(spec, why)| *spec == pad && why.contains("(0% foreign)")),
            "{from_wave1:?}"
        );
    }
}
