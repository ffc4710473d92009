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
//! [`ReportSummary`] is deliberately name-keyed and self-contained, so recorded reports
//! from different machines remain comparable.  It has one builder,
//! [`summary_from_merged`](crate::merge::summary_from_merged), over a merged report.
//! `dprof serve` and the oracle harnesses merge shards in memory; the `dprof diff`
//! subcommand reads each `dprof-report/v1` document as one shard
//! (`schema::shard_from_report_json`, as the collector ingests a push) and merges
//! that.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Everything the diff needs to know about one data type in one report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TypeSummary {
    /// Type name (the cross-report join key).
    pub name: Arc<str>,
    /// Share of L1-miss samples attributed to the type, in percent.
    pub pct_of_l1_misses: f64,
    /// Miss samples behind the classification (0 when unknown).
    pub miss_samples: u64,
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
}

impl TypeSummary {
    /// A neutral (all-zero) summary for a type that does not appear in a report.
    pub fn absent(name: &Arc<str>) -> TypeSummary {
        TypeSummary {
            name: Arc::clone(name),
            pct_of_l1_misses: 0.0,
            miss_samples: 0,
            bounce: false,
            working_set_bytes: 0.0,
            invalidation: 0.0,
            conflict: 0.0,
            capacity: 0.0,
            dominant_miss: None,
            core_crossings: 0,
            utilization_pct: 0.0,
            wasted_bytes: 0,
        }
    }
}

/// The per-type digest of one report, the input to [`diff`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReportSummary {
    /// One row per type, in no particular order (the diff never depends on it).
    pub types: Vec<TypeSummary>,
    /// Aggregate request throughput (requests per simulated second) of the run the
    /// report came from, or 0 when unknown (e.g. a shard whose producer counted no
    /// requests).  When both sides of a diff carry it, the diff reports the realized
    /// gain — the counterpart to the what-if engine's predicted gain.
    pub rps: f64,
}

impl ReportSummary {
    /// The summary row for a type name.
    pub fn get(&self, name: &str) -> Option<&TypeSummary> {
        self.types.iter().find(|t| &*t.name == name)
    }

    /// The summary row for a type name, appended as [`TypeSummary::absent`] first if
    /// the report has none yet (how a report's sections are joined by name).
    pub fn entry(&mut self, name: &Arc<str>) -> &mut TypeSummary {
        let i = match self.types.iter().position(|t| t.name == *name) {
            Some(i) => i,
            None => {
                self.types.push(TypeSummary::absent(name));
                self.types.len() - 1
            }
        };
        &mut self.types[i]
    }

    /// The type with the largest miss share (ties break on name, so the answer does not
    /// depend on row order).
    pub fn top_type(&self) -> Option<&TypeSummary> {
        self.types.iter().min_by(|a, b| {
            b.pct_of_l1_misses
                .partial_cmp(&a.pct_of_l1_misses)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        })
    }

    /// 0-based rank of a type by working-set footprint (largest first, name
    /// tie-break); `None` if the type is absent.
    pub fn working_set_rank(&self, name: &str) -> Option<usize> {
        let row = self.get(name)?;
        let mut rank = 0;
        for t in &self.types {
            let bigger = t.working_set_bytes > row.working_set_bytes
                || (t.working_set_bytes == row.working_set_bytes && &*t.name < name);
            if bigger {
                rank += 1;
            }
        }
        Some(rank)
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

/// Per-type differences between the two reports.  For every numeric field the
/// convention is `delta = b - a`, so swapping the diff's arguments negates every delta.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TypeDelta {
    /// Type name: the summaries' own.
    pub name: Arc<str>,
    /// Whether the type appears in report A / report B at all.
    pub in_a: bool,
    /// See [`TypeDelta::in_a`].
    pub in_b: bool,
    /// Miss share in A, percent.
    pub pct_a: f64,
    /// Miss share in B, percent.
    pub pct_b: f64,
    /// `pct_b - pct_a`.
    pub delta_pct: f64,
    /// Miss samples in A.
    pub miss_samples_a: u64,
    /// Miss samples in B.
    pub miss_samples_b: u64,
    /// `miss_samples_b - miss_samples_a`.
    pub delta_miss_samples: i64,
    /// Invalidation-fraction change.
    pub delta_invalidation: f64,
    /// Conflict-fraction change.
    pub delta_conflict: f64,
    /// Capacity-fraction change.
    pub delta_capacity: f64,
    /// Dominant miss class in A.
    pub dominant_a: Option<&'static str>,
    /// Dominant miss class in B.
    pub dominant_b: Option<&'static str>,
    /// Working-set rank in A (0 = largest footprint).
    pub ws_rank_a: Option<usize>,
    /// Working-set rank in B.
    pub ws_rank_b: Option<usize>,
    /// Working-set byte change.
    pub delta_working_set_bytes: f64,
    /// Data-flow core crossings in A.
    pub core_crossings_a: u64,
    /// Data-flow core crossings in B.
    pub core_crossings_b: u64,
    /// `core_crossings_b - core_crossings_a`.
    pub delta_core_crossings: i64,
    /// Bounce flag in A.
    pub bounce_a: bool,
    /// Bounce flag in B.
    pub bounce_b: bool,
    /// Line-utilization percentage in A.
    #[serde(default)]
    pub utilization_pct_a: f64,
    /// Line-utilization percentage in B.
    #[serde(default)]
    pub utilization_pct_b: f64,
    /// Wasted bytes in A.
    #[serde(default)]
    pub wasted_bytes_a: u64,
    /// Wasted bytes in B.
    #[serde(default)]
    pub wasted_bytes_b: u64,
    /// `wasted_bytes_b - wasted_bytes_a`.
    #[serde(default)]
    pub delta_wasted_bytes: i64,
}

/// The structured comparison of two reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportDiff {
    /// The type the verdict is about.
    pub focus: String,
    /// The verdict on the focus type.
    pub verdict: Verdict,
    /// Focus miss share in A, percent.
    pub focus_share_a: f64,
    /// Focus miss share in B, percent.
    pub focus_share_b: f64,
    /// Focus miss-sample count in A (0 when the report carries no counts).
    pub focus_misses_a: u64,
    /// Focus miss-sample count in B.
    pub focus_misses_b: u64,
    /// When the verdict is [`Verdict::Moved`], the type the bottleneck moved to.
    pub moved_to: Option<String>,
    /// Realized fractional reduction in per-request time going from A to B
    /// (`1 - rps_a / rps_b`), when both summaries carry throughput.  Positive when B
    /// is faster; comparable to the what-if engine's predicted gain.
    pub realized_gain: Option<f64>,
    /// Per-type deltas over the union of both reports' types, ordered by
    /// `max(pct_a, pct_b)` descending (name tie-break) — stable under row reordering
    /// of either input and symmetric under argument swap.
    pub types: Vec<TypeDelta>,
}

impl ReportDiff {
    /// True when the diff carries no signal: every delta is (numerically) zero and
    /// nothing appeared or disappeared.  `diff(a, a)` is always neutral.
    pub fn is_neutral(&self) -> bool {
        const EPS: f64 = 1e-9;
        self.verdict == Verdict::Unchanged
            && self.types.iter().all(|t| {
                t.in_a == t.in_b
                    && t.delta_pct.abs() < EPS
                    && t.delta_miss_samples == 0
                    && t.delta_invalidation.abs() < EPS
                    && t.delta_conflict.abs() < EPS
                    && t.delta_capacity.abs() < EPS
                    && t.delta_working_set_bytes.abs() < EPS
                    && t.delta_core_crossings == 0
                    && t.delta_wasted_bytes == 0
                    && (t.utilization_pct_b - t.utilization_pct_a).abs() < EPS
                    && t.dominant_a == t.dominant_b
                    && t.ws_rank_a == t.ws_rank_b
                    && t.bounce_a == t.bounce_b
            })
    }

    /// The delta row for a type name.
    pub fn for_type(&self, name: &str) -> Option<&TypeDelta> {
        self.types.iter().find(|t| &*t.name == name)
    }
}

/// Compares report `b` against baseline `a`.
///
/// `focus` picks the type the verdict is about; `None` focuses the top miss type of
/// `a`.
pub fn diff(a: &ReportSummary, b: &ReportSummary, focus: Option<&str>) -> ReportDiff {
    let focus_name = focus
        .map(|s| s.to_string())
        .or_else(|| a.top_type().map(|t| t.name.to_string()))
        .unwrap_or_default();

    // Union of type names, deduplicated; ordering is fixed later from values only.
    let mut names: Vec<&Arc<str>> = a
        .types
        .iter()
        .chain(b.types.iter())
        .map(|t| &t.name)
        .collect();
    names.sort_unstable();
    names.dedup();

    let mut types: Vec<TypeDelta> = names
        .into_iter()
        .map(|name| {
            let ra = a.get(name);
            let rb = b.get(name);
            let absent = TypeSummary::absent(name);
            let sa = ra.unwrap_or(&absent);
            let sb = rb.unwrap_or(&absent);
            TypeDelta {
                name: Arc::clone(name),
                in_a: ra.is_some(),
                in_b: rb.is_some(),
                pct_a: sa.pct_of_l1_misses,
                pct_b: sb.pct_of_l1_misses,
                delta_pct: sb.pct_of_l1_misses - sa.pct_of_l1_misses,
                miss_samples_a: sa.miss_samples,
                miss_samples_b: sb.miss_samples,
                delta_miss_samples: sb.miss_samples as i64 - sa.miss_samples as i64,
                delta_invalidation: sb.invalidation - sa.invalidation,
                delta_conflict: sb.conflict - sa.conflict,
                delta_capacity: sb.capacity - sa.capacity,
                dominant_a: sa.dominant_miss,
                dominant_b: sb.dominant_miss,
                ws_rank_a: a.working_set_rank(name),
                ws_rank_b: b.working_set_rank(name),
                delta_working_set_bytes: sb.working_set_bytes - sa.working_set_bytes,
                core_crossings_a: sa.core_crossings,
                core_crossings_b: sb.core_crossings,
                delta_core_crossings: sb.core_crossings as i64 - sa.core_crossings as i64,
                bounce_a: sa.bounce,
                bounce_b: sb.bounce,
                utilization_pct_a: sa.utilization_pct,
                utilization_pct_b: sb.utilization_pct,
                wasted_bytes_a: sa.wasted_bytes,
                wasted_bytes_b: sb.wasted_bytes,
                delta_wasted_bytes: sb.wasted_bytes as i64 - sa.wasted_bytes as i64,
            }
        })
        .collect();
    types.sort_by(|x, y| {
        let kx = x.pct_a.max(x.pct_b);
        let ky = y.pct_a.max(y.pct_b);
        ky.partial_cmp(&kx)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.name.cmp(&y.name))
    });

    let share_a = a
        .get(&focus_name)
        .map(|t| t.pct_of_l1_misses)
        .unwrap_or(0.0);
    let share_b = b
        .get(&focus_name)
        .map(|t| t.pct_of_l1_misses)
        .unwrap_or(0.0);
    let (verdict, moved_to) = classify(a, b, &focus_name, share_a, share_b);

    ReportDiff {
        focus: focus_name.clone(),
        verdict,
        focus_share_a: share_a,
        focus_share_b: share_b,
        focus_misses_a: a.get(&focus_name).map(|t| t.miss_samples).unwrap_or(0),
        focus_misses_b: b.get(&focus_name).map(|t| t.miss_samples).unwrap_or(0),
        moved_to,
        realized_gain: (a.rps > 0.0 && b.rps > 0.0).then(|| 1.0 - a.rps / b.rps),
        types,
    }
}

fn classify(
    a: &ReportSummary,
    b: &ReportSummary,
    focus: &str,
    share_a: f64,
    share_b: f64,
) -> (Verdict, Option<String>) {
    // Prefer absolute miss-sample counts when both reports carry them; a report with
    // no classification counts anywhere (e.g. rendered without the
    // miss-classification view) falls back to shares.
    let counts_available =
        a.types.iter().any(|t| t.miss_samples > 0) && b.types.iter().any(|t| t.miss_samples > 0);
    let (magnitude_a, magnitude_b, floor) = if counts_available {
        (
            a.get(focus).map(|t| t.miss_samples).unwrap_or(0) as f64,
            b.get(focus).map(|t| t.miss_samples).unwrap_or(0) as f64,
            MIN_FOCUS_SAMPLES as f64,
        )
    } else {
        (share_a, share_b, MIN_SHARE_POINTS)
    };
    if magnitude_a < floor {
        // No miss-magnitude bottleneck on the focus type — fall back to the
        // utilization axis: a layout bug can waste bandwidth on every fetch while
        // staying invisible to miss counts.
        return classify_utilization(a, b, focus);
    }
    let rel = (magnitude_b - magnitude_a) / magnitude_a;
    if rel.abs() <= UNCHANGED_BAND {
        return (Verdict::Unchanged, None);
    }
    if rel > 0.0 {
        return (Verdict::Worsened, None);
    }
    if rel > -ELIMINATED_DROP {
        return (Verdict::Reduced, None);
    }
    // The focus collapsed; decide eliminated vs moved.  Shares always re-normalise to
    // 100 %, so a *rising share* of a shrinking miss pool is not a new bottleneck —
    // only a type whose absolute miss-sample count grew to rival the old focus counts.
    let focus_misses_a = a.get(focus).map(|t| t.miss_samples).unwrap_or(0);
    let moved_to = b
        .types
        .iter()
        .filter(|t| &*t.name != focus && t.miss_samples > 0 && focus_misses_a > 0)
        .filter(|t| {
            let before = a.get(&t.name).map(|p| p.miss_samples).unwrap_or(0);
            t.miss_samples as f64 >= MOVED_COUNT_FACTOR * focus_misses_a as f64
                && t.miss_samples >= before.saturating_mul(2).max(before + 1)
        })
        .max_by(|x, y| {
            x.miss_samples
                .cmp(&y.miss_samples)
                .then_with(|| y.name.cmp(&x.name))
        })
        .map(|t| t.name.to_string());
    match moved_to {
        Some(name) => (Verdict::Moved, Some(name)),
        None => (Verdict::Eliminated, None),
    }
}

/// The utilization-axis verdict: compares the focus type's wasted bytes across the
/// two reports.  Used when the focus has no miss-magnitude bottleneck.
fn classify_utilization(
    a: &ReportSummary,
    b: &ReportSummary,
    focus: &str,
) -> (Verdict, Option<String>) {
    let wasted_a = a.get(focus).map(|t| t.wasted_bytes).unwrap_or(0);
    let wasted_b = b.get(focus).map(|t| t.wasted_bytes).unwrap_or(0);
    if wasted_a < MIN_FOCUS_WASTED_BYTES {
        return (Verdict::Unchanged, None);
    }
    let rel = (wasted_b as f64 - wasted_a as f64) / wasted_a as f64;
    if rel.abs() <= UNCHANGED_BAND {
        return (Verdict::Unchanged, None);
    }
    if rel > 0.0 {
        return (Verdict::Worsened, None);
    }
    if rel > -ELIMINATED_DROP {
        return (Verdict::Reduced, None);
    }
    // The waste collapsed; a *different* type whose wasted bytes grew to rival the
    // old focus is a moved bottleneck (same shape as the miss-count rule).
    let moved_to = b
        .types
        .iter()
        .filter(|t| &*t.name != focus && t.wasted_bytes > 0)
        .filter(|t| {
            let before = a.get(&t.name).map(|p| p.wasted_bytes).unwrap_or(0);
            t.wasted_bytes as f64 >= MOVED_COUNT_FACTOR * wasted_a as f64
                && t.wasted_bytes >= before.saturating_mul(2).max(before + 1)
        })
        .max_by(|x, y| {
            x.wasted_bytes
                .cmp(&y.wasted_bytes)
                .then_with(|| y.name.cmp(&x.name))
        })
        .map(|t| t.name.to_string());
    match moved_to {
        Some(name) => (Verdict::Moved, Some(name)),
        None => (Verdict::Eliminated, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ty(name: &str, pct: f64, misses: u64) -> TypeSummary {
        TypeSummary {
            name: name.into(),
            pct_of_l1_misses: pct,
            miss_samples: misses,
            bounce: false,
            working_set_bytes: pct * 100.0,
            invalidation: 0.5,
            conflict: 0.25,
            capacity: 0.25,
            dominant_miss: Some("invalidation"),
            core_crossings: 0,
            utilization_pct: 0.0,
            wasted_bytes: 0,
        }
    }

    fn ty_util(name: &str, utilization_pct: f64, wasted_bytes: u64) -> TypeSummary {
        let mut t = TypeSummary::absent(&name.into());
        t.utilization_pct = utilization_pct;
        t.wasted_bytes = wasted_bytes;
        t
    }

    fn summary(rows: &[TypeSummary]) -> ReportSummary {
        ReportSummary {
            types: rows.to_vec(),
            rps: 0.0,
        }
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
        assert_eq!(d.moved_to.as_deref(), Some("other"));
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
        assert!((both.delta_pct - 10.0).abs() < 1e-9);
        assert_eq!(both.delta_miss_samples, 120);
        let only_a = d.for_type("only-a").unwrap();
        assert!(only_a.in_a && !only_a.in_b);
        assert!((only_a.delta_pct + 10.0).abs() < 1e-9);
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
        assert_eq!(row.delta_wasted_bytes, -98_000);
        assert!((row.utilization_pct_b - row.utilization_pct_a - 82.5).abs() < 1e-9);

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
        assert_eq!(d.moved_to.as_deref(), Some("rival"));
    }

    #[test]
    fn working_set_rank_is_order_independent() {
        let a = summary(&[ty("small", 1.0, 10), ty("big", 50.0, 500)]);
        let reordered = summary(&[ty("big", 50.0, 500), ty("small", 1.0, 10)]);
        assert_eq!(a.working_set_rank("big"), Some(0));
        assert_eq!(a.working_set_rank("small"), Some(1));
        assert_eq!(a.working_set_rank("big"), reordered.working_set_rank("big"));
        assert_eq!(a.working_set_rank("missing"), None);
    }
}
