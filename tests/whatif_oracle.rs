//! The causal what-if oracle: for every scenario in the registry, `dprof whatif
//! --auto` on a buggy-variant trace must (1) rank the scenario's declared fix spec
//! first by predicted gain, with the block-vote confidence gate passing, and (2)
//! predict a gain within the scenario's declared tolerance of the *realized*
//! buggy→fixed gain that `dprof diff` measures from two live runs.
//!
//! The realized runs are profiled with a near-infinite sampling interval and no
//! history collection: the prediction models application time without the profiler,
//! so the reference measurement must not be diluted by profiling overhead (at the
//! oracle's trace-recording settings the profiler accounts for 70–90% of all cycles,
//! which would compress an 4x app-level speedup into a ~1.2x end-to-end one).

use dprof::core::report::diff::diff;
use dprof::core::summary_from_merged;
use dprof::machine::SamplingPolicy;
use dprof::trace::{TraceFile, TraceKind};
use dprof::workloads::scenarios::{self, Variant};
use dprof_cli::driver::{self, RunOptions, WorkloadKind};
use dprof_cli::merge::merge;
use dprof_cli::whatif::{analyze_trace, WhatifAnalysis};

use dprof::{machine, trace};
#[path = "support/dtrace.rs"]
mod dtrace;
use dtrace::on_disk;

const CORES: usize = 2;
const WARMUP_ROUNDS: usize = 6;
const SAMPLE_ROUNDS: usize = 80;

/// The settings the trace is recorded under — the same quick-scale profile the
/// scenario-detection oracle uses, so `--auto`'s replayed data profile sees the same
/// evidence DProf's views do.
fn recording_options(index: usize) -> RunOptions {
    RunOptions {
        workload: WorkloadKind::Scenario {
            index,
            variant: Variant::Buggy,
        },
        cores: CORES,
        warmup_rounds: WARMUP_ROUNDS,
        sample_rounds: SAMPLE_ROUNDS,
        sampling: SamplingPolicy::Fixed { interval_ops: 64 },
        record_session: true,
        ..Default::default()
    }
}

/// The settings the realized gain is measured under: identical workload window, but
/// a near-infinite sampling interval and no histories, so profiling overhead is ~0
/// and the rps ratio reflects application time alone.
fn measurement_options(index: usize, variant: Variant) -> RunOptions {
    RunOptions {
        workload: WorkloadKind::Scenario { index, variant },
        cores: CORES,
        warmup_rounds: WARMUP_ROUNDS,
        sample_rounds: SAMPLE_ROUNDS,
        sampling: SamplingPolicy::Fixed {
            interval_ops: 1_000_000,
        },
        history_sets: 0,
        ..Default::default()
    }
}

/// Records the buggy variant and packages the stream as the `.dtrace` file `dprof
/// record` would have written (same header the CLI builds).
fn record_buggy_trace(index: usize) -> TraceFile {
    let options = recording_options(index);
    let mut run = driver::run_single(&options, 0);
    let recorded = run.recorded.take().expect("recording produced a stream");
    TraceFile {
        kind: TraceKind::FullSession,
        machine: recorded.machine,
        params: options.session_params(),
        streams: vec![recorded.stream],
    }
}

/// The realized buggy→fixed gain as `dprof diff` reports it: `1 - rps_a / rps_b`
/// over two low-overhead live runs.
fn realized_gain(index: usize, focus: &str) -> f64 {
    let buggy = driver::run_single(&measurement_options(index, Variant::Buggy), 0);
    let fixed = driver::run_single(&measurement_options(index, Variant::Fixed), 0);
    let summary_buggy = summary_from_merged(&merge(&[buggy]));
    let summary_fixed = summary_from_merged(&merge(&[fixed]));
    let d = diff(&summary_buggy, &summary_fixed, Some(focus));
    d.realized_gain
        .expect("both live runs completed requests, so the diff carries a realized gain")
}

/// The CI `whatif-oracle` job drives the corpus through the real CLI with a
/// hand-written `name:fix` list; hold that list to the registry so adding or
/// renaming a scenario (or changing its planted fix) cannot silently drop it from
/// the CLI-level gate.
#[test]
fn ci_job_covers_every_registered_scenario() {
    let ci = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(".github/workflows/ci.yml"),
    )
    .expect("CI workflow readable");
    for spec in scenarios::registry() {
        let entry = format!("{}:{}", spec.name, spec.planted.whatif_fix);
        assert!(
            ci.contains(&entry),
            "the CI whatif-oracle job's scenario list is missing '{entry}'; \
             update .github/workflows/ci.yml (and docs/whatif.md)"
        );
    }
}

#[test]
fn auto_ranks_the_planted_fix_first_within_tolerance_on_every_scenario() {
    assert_eq!(
        scenarios::registry().len(),
        8,
        "registry size drifted; update docs/whatif.md and the CI whatif list"
    );
    for (index, spec) in scenarios::registry().iter().enumerate() {
        let reader = on_disk(&record_buggy_trace(index));
        let analysis: WhatifAnalysis = analyze_trace(&reader, &[], true)
            .unwrap_or_else(|e| panic!("{}: whatif --auto failed: {e}", spec.name));
        // The window is the rounds the session sampled, which is also the window the
        // realized gain is measured over; the history phase is not measured.
        assert_eq!(
            analysis.rounds, SAMPLE_ROUNDS,
            "{}: what-if measured a window other than the sampled rounds",
            spec.name
        );
        assert!(
            !analysis.candidates.is_empty(),
            "{}: --auto enumerated no candidates",
            spec.name
        );

        // (1) The planted fix ranks #1 by predicted impact, and the block-vote
        // confidence gate passes — the engine is sure the gain is not replay noise.
        let top = &analysis.candidates[0];
        assert_eq!(
            top.spec.to_string(),
            spec.planted.whatif_fix,
            "{}: --auto ranked '{}' first ({}), expected the planted fix '{}' \
             (candidates: {:?})",
            spec.name,
            top.spec,
            top.source,
            spec.planted.whatif_fix,
            analysis
                .candidates
                .iter()
                .map(|c| format!("{} {:+.3}", c.spec, c.estimate.gain))
                .collect::<Vec<_>>()
        );
        assert!(
            top.estimate.confident,
            "{}: the top candidate '{}' is not confident (win_ci {:?}, {}/{} blocks)",
            spec.name,
            top.spec,
            top.estimate.win_ci,
            top.estimate.blocks_improved,
            top.estimate.blocks
        );
        assert!(
            top.estimate.gain > 0.0,
            "{}: the planted fix predicts no gain ({:+.4})",
            spec.name,
            top.estimate.gain
        );

        // (2) The prediction is causally calibrated: within the scenario's declared
        // tolerance of the realized gain dprof diff measures from live runs.
        let realized = realized_gain(index, spec.planted.type_name);
        let gap = (top.estimate.gain - realized).abs();
        assert!(
            gap <= spec.planted.whatif_tolerance,
            "{}: predicted {:+.4} vs realized {:+.4} — gap {:.4} exceeds the \
             declared tolerance {:.2}",
            spec.name,
            top.estimate.gain,
            realized,
            gap,
            spec.planted.whatif_tolerance
        );
    }
}
