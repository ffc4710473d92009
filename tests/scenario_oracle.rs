//! The bottleneck-detection oracle: for every scenario in the registry, DProf must
//! (1) find the planted data type in the top-3 of the scenario's declared view on the
//! buggy variant, with the declared dominant miss class and bounce flag, and (2) judge
//! the bottleneck *eliminated* when diffing the buggy profile against the fixed one —
//! a self-checking, quick-scale reproduction of the paper's Tables 6.1–6.5 workflow
//! (profile → localise → fix → re-profile → confirm).
//!
//! This harness is what keeps later hot-path refactors honest: a change to the cache
//! model, sampler or views that silently stops DProf from detecting a planted bug
//! fails here, not in production.

use dprof::core::report::diff::{diff, Verdict};
use dprof::core::{summary_from_merged, Dprof, DprofConfig, DprofProfile, HistoryConfig};
use dprof::workloads::scenarios::{self, ExpectedView, ScenarioConfig, ScenarioSpec, Variant};

const CORES: usize = 2;
const WARMUP_ROUNDS: usize = 6;

fn quick_profile(spec: &ScenarioSpec, variant: Variant) -> DprofProfile {
    let config = ScenarioConfig {
        variant,
        cores: CORES,
        ..Default::default()
    };
    let (mut machine, mut kernel, mut workload) = spec.build(&config);
    for _ in 0..WARMUP_ROUNDS {
        workload.step(&mut machine, &mut kernel);
    }
    let dprof_config = DprofConfig {
        sampling: dprof::machine::SamplingPolicy::Fixed { interval_ops: 64 },
        sample_rounds: 80,
        history_types: 3,
        history: HistoryConfig {
            history_sets: 2,
            max_rounds_per_object: 10,
            sampling_skip_max: 2,
            ..Default::default()
        },
    };
    Dprof::new(dprof_config).run(&mut machine, &mut kernel, |m, k| workload.step(m, k))
}

/// 0-based rank of the planted type in the view the scenario declares, or `None` if
/// the type does not appear there at all.
fn rank_in_expected_view(profile: &DprofProfile, spec: &ScenarioSpec) -> Option<usize> {
    let name = spec.planted.type_name;
    match spec.planted.expected_view {
        ExpectedView::DataProfile => profile.data_profile.iter().position(|r| r.name == name),
        ExpectedView::MissClassification => profile
            .miss_classification
            .iter()
            .position(|r| &*r.name == name),
        ExpectedView::WorkingSet => profile
            .working_set
            .per_type
            .iter()
            .position(|r| &*r.name == name),
        ExpectedView::Utilization => {
            // Rows are already ranked by wasted fetch bandwidth (descending).
            let pos = profile
                .utilization
                .rows
                .iter()
                .position(|r| &*r.name == name)?;
            // A rank here is only meaningful with actual waste.
            (profile.utilization.rows[pos].wasted_bytes() > 0).then_some(pos)
        }
        ExpectedView::DataFlow => {
            // Rank history-profiled types by data-flow core crossings (most first).
            let mut flows: Vec<(&str, u64)> = profile
                .data_flows
                .values()
                .map(|flow| (&*flow.type_name, flow.core_crossings()))
                .collect();
            flows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
            let pos = flows.iter().position(|&(n, _)| n == name)?;
            // A rank in this view is only meaningful with actual crossings.
            (flows[pos].1 > 0).then_some(pos)
        }
    }
}

/// The CI `scenario-oracle` job drives the corpus through the real CLI with a
/// hand-written `name:focus` list; hold that list to the registry so adding or
/// renaming a scenario cannot silently drop it from the CLI-level gate.
#[test]
fn ci_job_covers_every_registered_scenario() {
    let ci = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(".github/workflows/ci.yml"),
    )
    .expect("CI workflow readable");
    for spec in scenarios::registry() {
        let entry = format!("{}:{}", spec.name, spec.planted.type_name);
        assert!(
            ci.contains(&entry),
            "the CI scenario-oracle job's scenario list is missing '{entry}'; \
             update .github/workflows/ci.yml (and docs/scenarios.md)"
        );
    }
}

#[test]
fn every_scenario_plants_a_detectable_bottleneck_and_its_fix_eliminates_it() {
    assert_eq!(
        scenarios::registry().len(),
        8,
        "registry size drifted; update docs/scenarios.md and the CI scenario list"
    );
    for spec in scenarios::registry() {
        let planted = spec.planted.type_name;
        let buggy = quick_profile(spec, Variant::Buggy);

        // (1) Detection: the planted type tops (top-3) its declared view.
        let rank = rank_in_expected_view(&buggy, spec).unwrap_or_else(|| {
            panic!(
                "{}: planted type '{planted}' missing from the {} view",
                spec.name,
                spec.planted.expected_view.key()
            )
        });
        assert!(
            rank < 3,
            "{}: planted type '{planted}' ranked #{} in the {} view, expected top-3",
            spec.name,
            rank + 1,
            spec.planted.expected_view.key()
        );

        // (2) The declared dominant miss class matches.
        if let Some(expected) = spec.planted.expected_dominant {
            let row = buggy
                .miss_classification
                .iter()
                .find(|r| &*r.name == planted)
                .unwrap_or_else(|| panic!("{}: '{planted}' not classified", spec.name));
            assert_eq!(
                row.dominant(),
                expected,
                "{}: expected dominant miss class {expected} for '{planted}' ({row:?})",
                spec.name
            );
        }

        // (3) The declared bounce flag matches.
        if spec.planted.expect_bounce {
            let row = buggy
                .profile_row(planted)
                .unwrap_or_else(|| panic!("{}: '{planted}' not in data profile", spec.name));
            assert!(
                row.bounce,
                "{}: '{planted}' should be flagged as bouncing between cores",
                spec.name
            );
        }

        // (4) Differential confirmation: diff(buggy, fixed) says "eliminated".
        let fixed = quick_profile(spec, Variant::Fixed);
        let summary_buggy = summary_from_merged(&buggy.report());
        let summary_fixed = summary_from_merged(&fixed.report());
        let d = diff(&summary_buggy, &summary_fixed, Some(planted));
        assert_eq!(
            d.verdict,
            Verdict::Eliminated,
            "{}: diff(buggy, fixed) on '{planted}' should report the bottleneck \
             eliminated, got {} (share {:.2}% -> {:.2}%, moved_to {:?})",
            spec.name,
            d.verdict,
            d.focus_a.pct_of_l1_misses,
            d.focus_b.pct_of_l1_misses,
            d.moved_to
        );

        // (5) Self-diff sanity: identical inputs produce an empty/neutral diff.
        let self_diff = diff(&summary_buggy, &summary_buggy, Some(planted));
        assert!(
            self_diff.is_neutral() && self_diff.verdict == Verdict::Unchanged,
            "{}: diff of a report with itself must be neutral",
            spec.name
        );
    }
}
