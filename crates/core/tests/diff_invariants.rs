//! Property tests for the report-diff engine's algebraic invariants:
//!
//! 1. `diff(a, a)` is empty/neutral (verdict `Unchanged`, every delta zero),
//! 2. swapping the arguments negates every numeric delta and mirrors every
//!    before/after pair,
//! 3. the verdict and the delta rows are stable under arbitrary reordering of either
//!    input's type rows (the diff is a function of report *contents*, not row order),
//! 4. the join is exact: every type of either report is one delta row, and
//! 5. a type's working-set rank is its position in its report's rows sorted by bytes
//!    (largest first, name tie-break, `-0.0` tying `0.0`).

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

/// Generates one report's rows, one per type, from packed integer tuples (the vendored
/// proptest supports ranges, tuples and `collection::vec`).
fn rows_strategy() -> impl Strategy<Value = Vec<TypeSummary>> {
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
                l1_miss_samples: misses / 2,
                bounce,
                working_set_bytes: f64::from(ws_bytes),
                invalidation,
                conflict,
                capacity,
                dominant_miss: DOMINANTS[dom_idx],
                core_crossings: crossings,
                utilization_pct: f64::from(100 - mix % 100),
                wasted_bytes: u64::from(ws_bytes) * 8,
                ws_rank: 0,
            });
        }
        types
    })
}

/// One report summary: the table of generated rows.
fn summary_strategy() -> impl Strategy<Value = ReportSummary> {
    rows_strategy().prop_map(|rows| ReportSummary::new(rows, 0.0))
}

/// The table of `summary`'s rows, built again from them in an order driven by `key`
/// (the vendored proptest has no `Just`/`prop_shuffle`, so reorderings are derived
/// from an extra generated integer).
fn reorder(summary: &ReportSummary, key: u64) -> ReportSummary {
    let mut types = summary.types().to_vec();
    if !types.is_empty() {
        let rot = (key as usize) % types.len();
        types.rotate_left(rot);
    }
    if key.is_multiple_of(2) {
        types.reverse();
    }
    ReportSummary::new(types, summary.rps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn self_diff_is_neutral(a in summary_strategy(), key in 0u64..1000) {
        let d = diff(&a, &a, None);
        prop_assert_eq!(d.verdict, Verdict::Unchanged);
        prop_assert!(d.is_neutral(), "diff(a, a) must be neutral: {:?}", d);
        // Even against a reordered copy of itself: same contents, same (neutral) diff.
        let reordered = reorder(&a, key);
        let d2 = diff(&a, &reordered, None);
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
            let r = ba.for_type(t.name()).expect("union is symmetric");
            // Before/after pairs mirror, so every delta `b - a` negates.
            prop_assert_eq!(t.in_a, r.in_b);
            prop_assert_eq!(t.in_b, r.in_a);
            prop_assert_eq!(t.a, r.b);
            prop_assert_eq!(t.b, r.a);
            prop_assert_eq!(t.ws_rank_a(), r.ws_rank_b());
            prop_assert_eq!(t.ws_rank_b(), r.ws_rank_a());
            prop_assert!((t.delta_pct() + r.delta_pct()).abs() < 1e-9);
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
        let (a2, b2) = (reorder(&a, key_a), reorder(&b, key_b));
        // The table is the same whatever order its rows came in.
        prop_assert_eq!(&a2, &a);
        prop_assert_eq!(&b2, &b);
        let shuffled = diff(&a2, &b2, None);
        prop_assert_eq!(baseline.verdict, shuffled.verdict);
        prop_assert_eq!(&baseline.focus, &shuffled.focus);
        prop_assert_eq!(&baseline.moved_to, &shuffled.moved_to);
        // The delta rows (including their order) are identical.
        prop_assert_eq!(&baseline.types, &shuffled.types);
    }

    #[test]
    fn every_type_of_either_report_is_one_delta_row(
        a in summary_strategy(),
        b in summary_strategy(),
    ) {
        let d = diff(&a, &b, None);
        let mut rows: Vec<&str> = d.types.iter().map(|t| t.name()).collect();
        rows.sort_unstable();
        let mut names: Vec<&str> = (a.types().iter().chain(b.types())).map(|t| &*t.name).collect();
        names.sort_unstable();
        names.dedup();
        prop_assert_eq!(rows, names);
        for t in &d.types {
            prop_assert_eq!(t.in_a, a.get(t.name()).is_some());
            prop_assert_eq!(t.in_b, b.get(t.name()).is_some());
        }
    }

    #[test]
    fn working_set_ranks_are_positions_in_the_byte_order(
        rows in rows_strategy(),
        bytes in 0u64..1 << 16,
        other in summary_strategy(),
    ) {
        // Few distinct byte counts, `-0.0` and `0.0` among them, so ranks tie often.
        let rows: Vec<TypeSummary> = (rows.into_iter().enumerate())
            .map(|(i, mut t)| {
                t.working_set_bytes = [-0.0, 0.0, 64.0, 4096.0][(bytes >> (2 * i)) as usize & 3];
                t
            })
            .collect();
        let mut order: Vec<&TypeSummary> = rows.iter().collect();
        order.sort_by(|x, y| {
            (y.working_set_bytes.partial_cmp(&x.working_set_bytes))
                .unwrap()
                .then_with(|| x.name.cmp(&y.name))
        });
        let this = ReportSummary::new(rows.clone(), 0.0);
        let (as_a, as_b) = (diff(&this, &other, None), diff(&other, &this, None));
        for (position, t) in order.iter().enumerate() {
            prop_assert_eq!(as_a.for_type(&t.name).unwrap().ws_rank_a(), Some(position));
            prop_assert_eq!(as_b.for_type(&t.name).unwrap().ws_rank_b(), Some(position));
        }
    }
}
