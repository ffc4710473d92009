//! Property tests for the report-diff engine's algebraic invariants:
//!
//! 1. `diff(a, a)` is empty/neutral (verdict `Unchanged`, every delta zero),
//! 2. swapping the arguments negates every numeric delta and mirrors every
//!    before/after pair,
//! 3. the verdict and the delta rows are stable under arbitrary reordering of either
//!    input's type rows (the diff is a function of report *contents*, not row order).

use dprof_core::report::diff::{diff, ReportSummary, TypeSummary, Verdict};
use proptest::prelude::*;

/// A small fixed name pool, so generated report pairs overlap on some types and
/// differ on others.
const NAMES: [&str; 6] = [
    "skbuff",
    "size-1024",
    "ring_desc",
    "tcp-sock",
    "hash_bucket",
    "route_cache",
];

const DOMINANTS: [Option<&str>; 4] = [
    None,
    Some("invalidation"),
    Some("conflict"),
    Some("capacity"),
];

/// Generates one report summary from packed integer tuples (the vendored proptest
/// supports ranges, tuples and `collection::vec`).
fn summary_strategy() -> impl Strategy<Value = ReportSummary> {
    proptest::collection::vec(
        (
            (0usize..NAMES.len(), 0u32..10_000, 0u64..100_000),
            (0u32..1_000_000, 0u64..5_000, 0usize..DOMINANTS.len()),
            (0u32..1_000, any::<bool>()),
        ),
        0..8,
    )
    .prop_map(|rows| {
        let mut types: Vec<TypeSummary> = Vec::new();
        for ((name_idx, pct_centi, misses), (ws_bytes, crossings, dom_idx), (mix, bounce)) in rows {
            let name = NAMES[name_idx];
            if types.iter().any(|t: &TypeSummary| &*t.name == name) {
                continue; // one row per type, like a real report
            }
            // Split `mix` into three fractions summing to <= 1.
            let invalidation = f64::from(mix % 10) / 10.0;
            let conflict = f64::from((mix / 10) % 10) / 10.0 * (1.0 - invalidation);
            let capacity = (1.0 - invalidation - conflict).max(0.0);
            types.push(TypeSummary {
                name: name.into(),
                pct_of_l1_misses: f64::from(pct_centi) / 100.0,
                miss_samples: misses,
                bounce,
                working_set_bytes: f64::from(ws_bytes),
                invalidation,
                conflict,
                capacity,
                dominant_miss: DOMINANTS[dom_idx].map(|s| s.to_string()),
                core_crossings: crossings,
                utilization_pct: f64::from(100 - mix % 100),
                wasted_bytes: u64::from(ws_bytes) * 8,
            });
        }
        ReportSummary { types, rps: 0.0 }
    })
}

/// A deterministic shuffle driven by `key` (the vendored proptest has no
/// `Just`/`prop_shuffle`, so reorderings are derived from an extra generated integer).
fn reorder(summary: &ReportSummary, key: u64) -> ReportSummary {
    let mut types = summary.types.clone();
    if types.is_empty() {
        return summary.clone();
    }
    let rot = (key as usize) % types.len();
    types.rotate_left(rot);
    if key.is_multiple_of(2) {
        types.reverse();
    }
    ReportSummary { types, rps: 0.0 }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn self_diff_is_neutral(a in summary_strategy(), key in 0u64..1000) {
        let d = diff(&a, &a, None);
        prop_assert_eq!(d.verdict, Verdict::Unchanged);
        prop_assert!(d.is_neutral(), "diff(a, a) must be neutral: {:?}", d);
        // Even against a reordered copy of itself: same contents, same (neutral) diff.
        let d2 = diff(&a, &reorder(&a, key), None);
        prop_assert!(d2.is_neutral());
    }

    #[test]
    fn swapping_arguments_negates_every_delta(
        a in summary_strategy(),
        b in summary_strategy(),
    ) {
        let ab = diff(&a, &b, None);
        let ba = diff(&b, &a, None);
        prop_assert_eq!(ab.types.len(), ba.types.len());
        for t in &ab.types {
            let r = ba.for_type(&t.name).expect("union is symmetric");
            prop_assert!((t.delta_pct + r.delta_pct).abs() < 1e-9);
            prop_assert_eq!(t.delta_miss_samples, -r.delta_miss_samples);
            prop_assert!((t.delta_invalidation + r.delta_invalidation).abs() < 1e-9);
            prop_assert!((t.delta_conflict + r.delta_conflict).abs() < 1e-9);
            prop_assert!((t.delta_capacity + r.delta_capacity).abs() < 1e-9);
            prop_assert!((t.delta_working_set_bytes + r.delta_working_set_bytes).abs() < 1e-9);
            prop_assert_eq!(t.delta_core_crossings, -r.delta_core_crossings);
            // Before/after pairs mirror.
            prop_assert_eq!(t.in_a, r.in_b);
            prop_assert_eq!(t.in_b, r.in_a);
            prop_assert!((t.pct_a - r.pct_b).abs() < 1e-12);
            prop_assert!((t.pct_b - r.pct_a).abs() < 1e-12);
            prop_assert_eq!(&t.dominant_a, &r.dominant_b);
            prop_assert_eq!(&t.dominant_b, &r.dominant_a);
            prop_assert_eq!(t.ws_rank_a, r.ws_rank_b);
            prop_assert_eq!(t.ws_rank_b, r.ws_rank_a);
            prop_assert_eq!(t.bounce_a, r.bounce_b);
            prop_assert_eq!(t.bounce_b, r.bounce_a);
            prop_assert_eq!(t.delta_wasted_bytes, -r.delta_wasted_bytes);
            prop_assert!((t.utilization_pct_a - r.utilization_pct_b).abs() < 1e-12);
            prop_assert!((t.utilization_pct_b - r.utilization_pct_a).abs() < 1e-12);
            prop_assert_eq!(t.wasted_bytes_a, r.wasted_bytes_b);
        }
    }

    #[test]
    fn verdict_and_rows_are_stable_under_row_reordering(
        a in summary_strategy(),
        b in summary_strategy(),
        key_a in 0u64..1000,
        key_b in 0u64..1000,
    ) {
        let baseline = diff(&a, &b, None);
        let shuffled = diff(&reorder(&a, key_a), &reorder(&b, key_b), None);
        prop_assert_eq!(baseline.verdict, shuffled.verdict);
        prop_assert_eq!(&baseline.focus, &shuffled.focus);
        prop_assert_eq!(&baseline.moved_to, &shuffled.moved_to);
        // The delta rows (including their order) are identical.
        prop_assert_eq!(&baseline.types, &shuffled.types);
    }
}
