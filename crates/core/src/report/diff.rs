//! Differential report comparison — the paper's before/after methodology as code.
//!
//! Every DProf case study ends the same way: profile the workload, localise the
//! offending data type, apply a fix, re-profile, and check that the bottleneck is gone
//! (memcached's TX-queue false sharing in §6.1, Apache's working-set explosion in
//! §6.2).  This module turns that comparison into a first-class operation: two
//! [`ReportSummary`]s go in, a structured [`ReportDiff`] comes out — per-type deltas in
//! miss share, miss-class mix, working-set rank and data-flow core crossings, plus a
//! threshold-based [`Verdict`] on the focus type ("bottleneck eliminated / moved /
//! unchanged").
//!
//! A [`ReportSummary`] is one table per report: a row per type, ordered by type name,
//! each row carrying its working-set rank, ranked once when the table is built
//! ([`ReportSummary::new`]).  It is name-keyed and self-contained, so recorded reports
//! from different machines remain comparable.  Its one builder from a report is
//! [`summary_from_merged`](crate::merge::summary_from_merged).  `dprof serve` and the
//! oracle harnesses merge shards in memory; the `dprof diff` subcommand reads each
//! `dprof-report/v1` document as one shard (`schema::shard_from_report_json`, as the
//! collector ingests a push) and merges that.
//!
//! [`join`] walks both tables in name order once; [`diff`] orders its rows, and `dprof
//! accuracy` reads the census against the sampled run off the same walk.  Each
//! [`TypeDelta`] holds its two sides — a side the type is absent from reads as the zero
//! summary — and a reader subtracts what it shows, `b - a`.  The verdict is one rule
//! applied to one axis at a time: the focus type's miss magnitude first (counts when
//! both reports carry them, otherwise shares) and, when that is below its floor, its
//! wasted bytes.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::sync::{Arc, LazyLock};

/// Everything the diff needs to know about one data type in one report.  The default
/// is the zero summary, which a side the type is absent from reads as.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TypeSummary {
    /// Type name (the cross-report join key).
    pub name: Arc<str>,
    /// Share of L1-miss samples attributed to the type, in percent.
    pub pct_of_l1_misses: f64,
    /// Miss samples behind the classification (0 when unknown).
    pub miss_samples: u64,
    /// L1-miss samples the data profile attributed to the type (0 when it has no
    /// data-profile row).  Nothing holds it equal to `miss_samples`, which the
    /// classification view counts.
    #[serde(default)]
    pub l1_miss_samples: u64,
    /// Whether the type was flagged as bouncing between cores.
    pub bounce: bool,
    /// Average live bytes (working-set footprint).
    pub working_set_bytes: f64,
    /// Fraction of misses classified as invalidation.
    pub invalidation: f64,
    /// Fraction of misses classified as associativity conflict.
    pub conflict: f64,
    /// Fraction of misses classified as capacity.
    pub capacity: f64,
    /// Dominant miss class, when a classification exists.
    pub dominant_miss: Option<&'static str>,
    /// Core-crossing traversals in the type's data-flow graph.
    pub core_crossings: u64,
    /// Line-utilization percentage from the utilization view (0 when the type has no
    /// utilization row).
    #[serde(default)]
    pub utilization_pct: f64,
    /// Bytes fetched for the type but never touched before eviction.
    #[serde(default)]
    pub wasted_bytes: u64,
    /// 0-based rank by working-set footprint within its report (largest first, name
    /// tie-break).  [`ReportSummary::new`] sets it; a row built by hand leaves it 0.
    #[serde(default)]
    pub ws_rank: usize,
}

/// The side a type absent from a report reads as.
static ZERO: LazyLock<TypeSummary> = LazyLock::new(TypeSummary::default);

/// The per-type digest of one report, the input to [`diff`]: one row per type, ordered
/// by type name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportSummary {
    types: Vec<TypeSummary>,
    /// Aggregate request throughput (requests per simulated second) of the run the
    /// report came from, or 0 when unknown (e.g. a shard whose producer counted no
    /// requests).  When both sides of a diff carry it, the diff reports the realized
    /// gain — the counterpart to the what-if engine's predicted gain.
    pub rps: f64,
}

impl ReportSummary {
    /// The table of `types`, one row per type name in any order: each row ranked by
    /// working-set bytes (largest first, name tie-break; `-0.0` and `0.0` tie), then
    /// the rows ordered by name.
    pub fn new(mut types: Vec<TypeSummary>, rps: f64) -> ReportSummary {
        types.sort_unstable_by(|x, y| {
            (y.working_set_bytes.partial_cmp(&x.working_set_bytes))
                .unwrap_or(Ordering::Equal)
                .then_with(|| x.name.cmp(&y.name))
        });
        for (rank, t) in types.iter_mut().enumerate() {
            t.ws_rank = rank;
        }
        types.sort_unstable_by(|x, y| x.name.cmp(&y.name));
        debug_assert!(types.windows(2).all(|w| w[0].name < w[1].name));
        ReportSummary { types, rps }
    }

    /// Every row, ordered by type name.
    pub fn types(&self) -> &[TypeSummary] {
        &self.types
    }

    /// The summary row for a type name.
    pub fn get(&self, name: &str) -> Option<&TypeSummary> {
        let i = self.types.binary_search_by(|t| (*t.name).cmp(name)).ok()?;
        Some(&self.types[i])
    }

    /// The row for a type name, or the zero summary when the report has none.
    fn side(&self, name: &str) -> &TypeSummary {
        self.get(name).unwrap_or(&ZERO)
    }

    /// The type with the largest miss share (ties break on name, so the answer does not
    /// depend on row order).
    pub fn top_type(&self) -> Option<&TypeSummary> {
        self.types.iter().min_by(|a, b| {
            b.pct_of_l1_misses
                .partial_cmp(&a.pct_of_l1_misses)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        })
    }
}

// Thresholds steering the `Verdict` classification.
//
// The verdict compares the focus type's **miss magnitude** across the two reports:
// its miss-sample count when both reports carry classification counts (the paper's
// before/after tables compare absolute misses at fixed load), falling back to its
// share of L1 misses when counts are unavailable.  Shares alone cannot express a
// fixed bottleneck whose removal shrinks the whole miss pool — the survivor's share
// of almost nothing approaches 100 %.

/// Relative drop in the focus type's miss magnitude needed to call the bottleneck
/// eliminated (0.6 = it fell by at least 60 %).
const ELIMINATED_DROP: f64 = 0.6;
/// Relative change below which the bottleneck counts as unchanged.
const UNCHANGED_BAND: f64 = 0.15;
/// A *different* type whose miss-sample count reaches this fraction of the focus
/// type's old count **and** at least doubled its own count is a moved bottleneck.
const MOVED_COUNT_FACTOR: f64 = 0.6;
/// Focus shares below this (percent points) are noise; the verdict is `Unchanged`.
const MIN_SHARE_POINTS: f64 = 1.0;
/// Focus miss-sample counts below this are noise; the verdict is `Unchanged`.
const MIN_FOCUS_SAMPLES: u64 = 10;
/// When the focus type's miss magnitude is below its floor, the verdict falls back
/// to the utilization axis (wasted bytes) — layout bugs can be invisible to miss
/// counts.  Focus wasted-bytes magnitudes below this are noise.
const MIN_FOCUS_WASTED_BYTES: u64 = 512;

/// The outcome of comparing the focus type across two reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// The focus type's miss share collapsed and no other type took its place.
    Eliminated,
    /// The focus type's share collapsed but another type's misses grew to fill the gap.
    Moved,
    /// The share dropped noticeably, short of elimination.
    Reduced,
    /// The share is within the no-change band (or there was no bottleneck to begin
    /// with).
    Unchanged,
    /// The share grew.
    Worsened,
}

impl Verdict {
    /// The stable lowercase spelling used in JSON and CI assertions.
    pub fn key(self) -> &'static str {
        match self {
            Verdict::Eliminated => "eliminated",
            Verdict::Moved => "moved",
            Verdict::Reduced => "reduced",
            Verdict::Unchanged => "unchanged",
            Verdict::Worsened => "worsened",
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// One type across the two reports: its two sides, each the report's own row or, where
/// the type is absent, the zero summary.  A delta is `b - a`, taken where it is read,
/// so swapping the diff's arguments negates every delta.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeDelta<'s> {
    /// The type in report A.
    pub a: &'s TypeSummary,
    /// The type in report B.
    pub b: &'s TypeSummary,
    /// Whether the type appears in report A at all.
    pub in_a: bool,
    /// Whether the type appears in report B at all.
    pub in_b: bool,
}

impl<'s> TypeDelta<'s> {
    /// The type name.
    pub fn name(&self) -> &'s str {
        if self.in_a {
            &self.a.name
        } else {
            &self.b.name
        }
    }

    /// Change in miss share, percent points.
    pub fn delta_pct(&self) -> f64 {
        self.b.pct_of_l1_misses - self.a.pct_of_l1_misses
    }

    /// Working-set rank in A (0 = largest footprint), if the type is there.
    pub fn ws_rank_a(&self) -> Option<usize> {
        self.in_a.then_some(self.a.ws_rank)
    }

    /// Working-set rank in B, if the type is there.
    pub fn ws_rank_b(&self) -> Option<usize> {
        self.in_b.then_some(self.b.ws_rank)
    }
}

/// The structured comparison of two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportDiff<'s> {
    /// The type the verdict is about.
    pub focus: &'s str,
    /// The verdict on the focus type.
    pub verdict: Verdict,
    /// The focus type in A (the zero summary when A lacks it).
    pub focus_a: &'s TypeSummary,
    /// The focus type in B.
    pub focus_b: &'s TypeSummary,
    /// When the verdict is [`Verdict::Moved`], the type the bottleneck moved to.
    pub moved_to: Option<&'s str>,
    /// Realized fractional reduction in per-request time going from A to B
    /// (`1 - rps_a / rps_b`), when both summaries carry throughput.  Positive when B
    /// is faster; comparable to the what-if engine's predicted gain.
    pub realized_gain: Option<f64>,
    /// One row per type of either report, ordered by `max(pct_a, pct_b)` descending
    /// (name tie-break) — stable under row reordering of either input and symmetric
    /// under argument swap.
    pub types: Vec<TypeDelta<'s>>,
}

impl<'s> ReportDiff<'s> {
    /// True when the diff carries no signal: every delta is (numerically) zero and
    /// nothing appeared or disappeared.  `diff(a, a)` is always neutral.
    pub fn is_neutral(&self) -> bool {
        const EPS: f64 = 1e-9;
        let near = |x: f64, y: f64| (y - x).abs() < EPS;
        self.verdict == Verdict::Unchanged
            && self.types.iter().all(|t| {
                let (a, b) = (t.a, t.b);
                // In both reports or (impossibly) in neither: both ranks are real.
                t.in_a == t.in_b
                    && near(a.pct_of_l1_misses, b.pct_of_l1_misses)
                    && a.miss_samples == b.miss_samples
                    && a.l1_miss_samples == b.l1_miss_samples
                    && near(a.invalidation, b.invalidation)
                    && near(a.conflict, b.conflict)
                    && near(a.capacity, b.capacity)
                    && near(a.working_set_bytes, b.working_set_bytes)
                    && a.core_crossings == b.core_crossings
                    && a.wasted_bytes == b.wasted_bytes
                    && near(a.utilization_pct, b.utilization_pct)
                    && a.dominant_miss == b.dominant_miss
                    && a.ws_rank == b.ws_rank
                    && a.bounce == b.bounce
            })
    }

    /// The delta row for a type name.
    pub fn for_type(&self, name: &str) -> Option<&TypeDelta<'s>> {
        self.types.iter().find(|t| t.name() == name)
    }
}

/// Every type of either table as one [`TypeDelta`], in name order.  Both tables are
/// ordered by name, so one walk joins them.
pub fn join<'s>(a: &'s ReportSummary, b: &'s ReportSummary) -> Vec<TypeDelta<'s>> {
    let mut types = Vec::with_capacity(a.types.len() + b.types.len());
    let (mut rows_a, mut rows_b) = (a.types.iter().peekable(), b.types.iter().peekable());
    loop {
        let order = match (rows_a.peek(), rows_b.peek()) {
            (Some(x), Some(y)) => x.name.cmp(&y.name),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => break,
        };
        let side_a = if order.is_le() { rows_a.next() } else { None };
        let side_b = if order.is_ge() { rows_b.next() } else { None };
        types.push(TypeDelta {
            a: side_a.unwrap_or(&ZERO),
            b: side_b.unwrap_or(&ZERO),
            in_a: side_a.is_some(),
            in_b: side_b.is_some(),
        });
    }
    types
}

/// Compares report `b` against baseline `a`.
///
/// `focus` picks the type the verdict is about; `None` focuses the top miss type of
/// `a`.
pub fn diff<'s>(
    a: &'s ReportSummary,
    b: &'s ReportSummary,
    focus: Option<&'s str>,
) -> ReportDiff<'s> {
    let focus = focus
        .or_else(|| a.top_type().map(|t| &*t.name))
        .unwrap_or_default();

    let mut types = join(a, b);
    // Names are unique, so the order is total and an unstable sort is exact.
    types.sort_unstable_by(|x, y| {
        let kx = x.a.pct_of_l1_misses.max(x.b.pct_of_l1_misses);
        let ky = y.a.pct_of_l1_misses.max(y.b.pct_of_l1_misses);
        ky.partial_cmp(&kx)
            .unwrap_or(Ordering::Equal)
            .then_with(|| x.name().cmp(y.name()))
    });

    let (verdict, moved_to) = classify(a, b, focus);
    ReportDiff {
        focus,
        verdict,
        focus_a: a.side(focus),
        focus_b: b.side(focus),
        moved_to,
        realized_gain: (a.rps > 0.0 && b.rps > 0.0).then(|| 1.0 - a.rps / b.rps),
        types,
    }
}

/// One axis the verdict can be read on.
struct Axis {
    /// The size of a type's bottleneck on this axis.
    magnitude: fn(&TypeSummary) -> f64,
    /// Focus magnitudes below this are noise.
    floor: f64,
    /// The count a rival must grow to take the bottleneck over.
    count: fn(&TypeSummary) -> u64,
}

/// The verdict on `focus`: read on the miss axis, or, when the focus has no
/// miss-magnitude bottleneck, on the utilization axis — a layout bug can waste
/// bandwidth on every fetch while staying invisible to miss counts.
fn classify<'s>(
    a: &'s ReportSummary,
    b: &'s ReportSummary,
    focus: &str,
) -> (Verdict, Option<&'s str>) {
    // Prefer absolute miss-sample counts when both reports carry them; a report with
    // no classification counts anywhere (e.g. rendered without the
    // miss-classification view) falls back to shares.
    let counts = |s: &ReportSummary| s.types.iter().any(|t| t.miss_samples > 0);
    let misses = if counts(a) && counts(b) {
        Axis {
            magnitude: |t| t.miss_samples as f64,
            floor: MIN_FOCUS_SAMPLES as f64,
            count: |t| t.miss_samples,
        }
    } else {
        Axis {
            magnitude: |t| t.pct_of_l1_misses,
            floor: MIN_SHARE_POINTS,
            count: |t| t.miss_samples,
        }
    };
    let waste = Axis {
        magnitude: |t| t.wasted_bytes as f64,
        floor: MIN_FOCUS_WASTED_BYTES as f64,
        count: |t| t.wasted_bytes,
    };
    [misses, waste]
        .iter()
        .find_map(|axis| judge(a, b, focus, axis))
        .unwrap_or((Verdict::Unchanged, None))
}

/// The verdict on `focus` read on one axis, or `None` when the focus is below the
/// axis's floor in A.
fn judge<'s>(
    a: &'s ReportSummary,
    b: &'s ReportSummary,
    focus: &str,
    axis: &Axis,
) -> Option<(Verdict, Option<&'s str>)> {
    let (before, after) = (
        (axis.magnitude)(a.side(focus)),
        (axis.magnitude)(b.side(focus)),
    );
    if before < axis.floor {
        return None;
    }
    let rel = (after - before) / before;
    let verdict = if rel.abs() <= UNCHANGED_BAND {
        Verdict::Unchanged
    } else if rel > 0.0 {
        Verdict::Worsened
    } else if rel > -ELIMINATED_DROP {
        Verdict::Reduced
    } else {
        // The focus collapsed; decide eliminated vs moved.  Shares always re-normalise
        // to 100 %, so a *rising share* of a shrinking pool is not a new bottleneck —
        // only a type whose own count grew to rival the focus's old count.
        let old = (axis.count)(a.side(focus));
        let moved_to = (b.types.iter())
            .filter(|t| &*t.name != focus && (axis.count)(t) > 0 && old > 0)
            .filter(|t| {
                let (now, was) = ((axis.count)(t), (axis.count)(a.side(&t.name)));
                now as f64 >= MOVED_COUNT_FACTOR * old as f64
                    && now >= was.saturating_mul(2).max(was + 1)
            })
            .max_by(|x, y| {
                ((axis.count)(x).cmp(&(axis.count)(y))).then_with(|| y.name.cmp(&x.name))
            });
        return Some(match moved_to {
            Some(t) => (Verdict::Moved, Some(&*t.name)),
            None => (Verdict::Eliminated, None),
        });
    };
    Some((verdict, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ty(name: &str, pct: f64, misses: u64) -> TypeSummary {
        TypeSummary {
            name: name.into(),
            pct_of_l1_misses: pct,
            miss_samples: misses,
            working_set_bytes: pct * 100.0,
            invalidation: 0.5,
            conflict: 0.25,
            capacity: 0.25,
            dominant_miss: Some("invalidation"),
            ..TypeSummary::default()
        }
    }

    fn ty_util(name: &str, utilization_pct: f64, wasted_bytes: u64) -> TypeSummary {
        TypeSummary {
            name: name.into(),
            utilization_pct,
            wasted_bytes,
            ..TypeSummary::default()
        }
    }

    fn summary(rows: &[TypeSummary]) -> ReportSummary {
        ReportSummary::new(rows.to_vec(), 0.0)
    }

    #[test]
    fn self_diff_is_neutral_and_unchanged() {
        let a = summary(&[ty("skbuff", 60.0, 600), ty("payload", 40.0, 400)]);
        let d = diff(&a, &a, None);
        assert_eq!(d.verdict, Verdict::Unchanged);
        assert!(d.is_neutral());
        assert_eq!(d.focus, "skbuff");
    }

    #[test]
    fn collapse_without_replacement_is_eliminated() {
        let a = summary(&[ty("hot", 70.0, 700), ty("skbuff", 30.0, 300)]);
        // Misses on `hot` vanish; skbuff's share rises to ~100 % but its *count* does
        // not grow — a shrinking pie, not a moved bottleneck.
        let b = summary(&[ty("hot", 3.0, 9), ty("skbuff", 97.0, 310)]);
        let d = diff(&a, &b, Some("hot"));
        assert_eq!(d.verdict, Verdict::Eliminated);
        assert!(d.moved_to.is_none());
    }

    #[test]
    fn collapse_with_growing_rival_is_moved() {
        let a = summary(&[ty("hot", 70.0, 700), ty("other", 10.0, 100)]);
        let b = summary(&[ty("hot", 5.0, 50), ty("other", 80.0, 800)]);
        let d = diff(&a, &b, Some("hot"));
        assert_eq!(d.verdict, Verdict::Moved);
        assert_eq!(d.moved_to, Some("other"));
    }

    #[test]
    fn small_changes_are_unchanged_and_growth_is_worsened() {
        let a = summary(&[ty("hot", 50.0, 500)]);
        assert_eq!(
            diff(&a, &summary(&[ty("hot", 53.0, 530)]), Some("hot")).verdict,
            Verdict::Unchanged
        );
        assert_eq!(
            diff(&a, &summary(&[ty("hot", 75.0, 900)]), Some("hot")).verdict,
            Verdict::Worsened
        );
        assert_eq!(
            diff(&a, &summary(&[ty("hot", 30.0, 300)]), Some("hot")).verdict,
            Verdict::Reduced
        );
    }

    #[test]
    fn deltas_are_signed_b_minus_a_and_cover_the_union() {
        let a = summary(&[ty("only-a", 10.0, 100), ty("both", 20.0, 200)]);
        let b = summary(&[ty("both", 30.0, 320), ty("only-b", 5.0, 50)]);
        let d = diff(&a, &b, Some("both"));
        assert_eq!(d.types.len(), 3);
        let both = d.for_type("both").unwrap();
        assert!((both.delta_pct() - 10.0).abs() < 1e-9);
        assert_eq!(both.b.miss_samples - both.a.miss_samples, 120);
        let only_a = d.for_type("only-a").unwrap();
        assert!(only_a.in_a && !only_a.in_b);
        assert!((only_a.delta_pct() + 10.0).abs() < 1e-9);
        let only_b = d.for_type("only-b").unwrap();
        assert!(!only_b.in_a && only_b.in_b);
    }

    #[test]
    fn realized_gain_needs_throughput_on_both_sides() {
        let mut a = summary(&[ty("hot", 50.0, 500)]);
        let mut b = summary(&[ty("hot", 50.0, 500)]);
        assert_eq!(diff(&a, &b, Some("hot")).realized_gain, None);
        a.rps = 1000.0;
        assert_eq!(diff(&a, &b, Some("hot")).realized_gain, None);
        // B serves each request in half the time: the fix removed 50 % of it.
        b.rps = 2000.0;
        let d = diff(&a, &b, Some("hot"));
        let gain = d.realized_gain.unwrap();
        assert!((gain - 0.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_fallback_verdicts_when_miss_counts_are_silent() {
        // The focus type has almost no misses on either side (below the sample floor)
        // but wastes kilobytes per fetch; the fix collapses the waste.
        let mut focus_a = ty_util("sparse", 12.5, 100_000);
        focus_a.miss_samples = 3;
        let mut focus_b = ty_util("sparse", 95.0, 2_000);
        focus_b.miss_samples = 3;
        let noise = ty("noise", 90.0, 900); // keeps counts_available true
        let a = summary(&[focus_a.clone(), noise.clone()]);
        let b = summary(&[focus_b.clone(), noise.clone()]);
        let d = diff(&a, &b, Some("sparse"));
        assert_eq!(d.verdict, Verdict::Eliminated);
        let row = d.for_type("sparse").unwrap();
        assert_eq!(row.a.wasted_bytes - row.b.wasted_bytes, 98_000);
        assert!((row.b.utilization_pct - row.a.utilization_pct - 82.5).abs() < 1e-9);

        // Unchanged waste stays unchanged; growth worsens.
        assert_eq!(diff(&a, &a, Some("sparse")).verdict, Verdict::Unchanged);
        let mut worse = focus_a.clone();
        worse.wasted_bytes = 200_000;
        assert_eq!(
            diff(&a, &summary(&[worse, noise.clone()]), Some("sparse")).verdict,
            Verdict::Worsened
        );

        // Tiny waste is noise: no bottleneck to begin with.
        let mut tiny_a = ty_util("sparse", 50.0, 100);
        tiny_a.miss_samples = 3;
        let tiny = summary(&[tiny_a, noise.clone()]);
        assert_eq!(diff(&tiny, &b, Some("sparse")).verdict, Verdict::Unchanged);

        // Waste collapsing onto a growing rival is a moved bottleneck.
        let rival_b = summary(&[focus_b, ty_util("rival", 10.0, 90_000), noise]);
        let d = diff(&a, &rival_b, Some("sparse"));
        assert_eq!(d.verdict, Verdict::Moved);
        assert_eq!(d.moved_to, Some("rival"));
    }

    #[test]
    fn ws_rank_is_order_independent() {
        let a = summary(&[ty("small", 1.0, 10), ty("big", 50.0, 500)]);
        let reordered = summary(&[ty("big", 50.0, 500), ty("small", 1.0, 10)]);
        let rank = |s: &ReportSummary, name: &str| s.get(name).map(|t| t.ws_rank);
        assert_eq!(rank(&a, "big"), Some(0));
        assert_eq!(rank(&a, "small"), Some(1));
        assert_eq!(a, reordered);
        assert_eq!(rank(&a, "missing"), None);
    }
}
