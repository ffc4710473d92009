//! Textual rendering of DProf views in the style of the thesis' tables, plus the
//! [`diff`] module comparing two reports (the paper's before/after-fix methodology).
//!
//! The view tables have one renderer, [`render_views`], and it reads a
//! [`MergedReport`]: `dprof` prints the merge of its threads' shards, and a single
//! profile prints as the merge of its one shard ([`DprofProfile::report`]).
//! [`render_data_profile`] lays the same merged data-profile rows out as the thesis'
//! Tables 6.1 / 6.4 / 6.5 (with Description and Total columns), and [`render_dot`]
//! draws one merged data flow as Figure 6-1 does.  Only [`render_path_trace`]
//! (Table 4.1) reads one run's raw profile: path traces are not a report view.
//!
//! [`DprofProfile::report`]: crate::DprofProfile::report

pub mod diff;

use crate::merge::{MergedReport, Ranked, ShardFlow, ShardProfileRow};
use crate::path_trace::PathTrace;
use sim_machine::SymbolTable;
use std::fmt;
use std::fmt::Write as _;

/// The five DProf views, in the order a report prints them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    /// Types ranked by their share of cache misses (§3.1 / Table 6.1).
    DataProfile,
    /// Per-type invalidation / conflict / capacity classification (§3.2).
    MissClassification,
    /// Per-type cache footprint and over-subscribed sets (§3.3).
    WorkingSet,
    /// Line utilization: wasted bandwidth on fetched-but-untouched bytes, with
    /// allocator-origin attribution (beyond the thesis's four views).
    Utilization,
    /// Merged object paths with core-crossing edges (§3.4 / Figure 6-1).
    DataFlow,
}

impl View {
    /// Every view, in report order.
    pub const ALL: [View; 5] = [
        View::DataProfile,
        View::MissClassification,
        View::WorkingSet,
        View::Utilization,
        View::DataFlow,
    ];

    /// The CLI / JSON-section spelling of the view.
    pub fn key(self) -> &'static str {
        match self {
            View::DataProfile => "data-profile",
            View::MissClassification => "miss-classification",
            View::WorkingSet => "working-set",
            View::Utilization => "utilization",
            View::DataFlow => "data-flow",
        }
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// Formats a byte count the way the thesis tables do (e.g. "14.6MB", "128B").
pub fn format_bytes(bytes: f64) -> String {
    if bytes >= 1024.0 * 1024.0 {
        format!("{:.2}MB", bytes / (1024.0 * 1024.0))
    } else if bytes >= 1024.0 {
        format!("{:.1}KB", bytes / 1024.0)
    } else {
        format!("{:.0}B", bytes)
    }
}

/// Renders `views` of a merged report as text tables, each under its `=== … ===`
/// heading and at most `top` rows long: what `dprof` prints below its two header lines.
pub fn render_views(report: &MergedReport, views: &[View], top: usize) -> String {
    let mut out = String::new();
    for view in views {
        match view {
            View::DataProfile => text_data_profile(&mut out, report, top),
            View::MissClassification => text_miss_classification(&mut out, report, top),
            View::WorkingSet => text_working_set(&mut out, report, top),
            View::Utilization => text_utilization(&mut out, report, top),
            View::DataFlow => text_data_flow(&mut out, report, top),
        }
    }
    out
}

fn text_data_profile(out: &mut String, report: &MergedReport, top: usize) {
    writeln!(out, "\n=== Data profile ===").unwrap();
    writeln!(
        out,
        "{:<16} {:>12} {:>14} {:>17} {:>14} {:>8} {:>8} {:>7}",
        "Type name",
        "WS size",
        "% L1 misses",
        "95% CI",
        "% miss cycles",
        "Bounce",
        "Threads",
        "Rank"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(104)).unwrap();
    for row in report.data_profile.iter().take(top) {
        writeln!(
            out,
            "{:<16} {:>12} {:>13.2}% {:>17} {:>13.2}% {:>8} {:>8} {:>7}",
            row.name,
            format_bytes(row.working_set_bytes),
            row.pct_of_l1_misses,
            format!("[{:.2}, {:.2}]", row.ci95_low, row.ci95_high),
            row.pct_of_miss_cycles,
            if row.bounce { "yes" } else { "no" },
            row.threads_seen,
            if row.rank_stable { "firm" } else { "~" }
        )
        .unwrap();
    }
}

fn text_miss_classification(out: &mut String, report: &MergedReport, top: usize) {
    writeln!(out, "\n=== Miss classification ===").unwrap();
    writeln!(
        out,
        "{:<16} {:>10} {:>14} {:>10} {:>10}  Dominant",
        "Type name", "Misses", "Invalidation", "Conflict", "Capacity"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(78)).unwrap();
    for row in report.miss_classification.iter().take(top) {
        writeln!(
            out,
            "{:<16} {:>10} {:>13.1}% {:>9.1}% {:>9.1}%  {}",
            row.name,
            row.miss_samples,
            100.0 * row.invalidation,
            100.0 * row.conflict,
            100.0 * row.capacity,
            row.dominant()
        )
        .unwrap();
    }
}

fn text_working_set(out: &mut String, report: &MergedReport, top: usize) {
    let ws = &report.working_set;
    writeln!(out, "\n=== Working set ===").unwrap();
    writeln!(
        out,
        "{:<16} {:>14} {:>14} {:>14}",
        "Type name", "Avg bytes", "Avg objects", "Peak bytes"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(62)).unwrap();
    for row in ws.rows.iter().take(top) {
        writeln!(
            out,
            "{:<16} {:>14} {:>14.1} {:>14}",
            row.name,
            format_bytes(row.avg_live_bytes),
            row.avg_live_objects,
            format_bytes(row.peak_live_bytes as f64)
        )
        .unwrap();
    }
    writeln!(out, "{}", "-".repeat(62)).unwrap();
    writeln!(
        out,
        "avg working set {} vs cache capacity {}; {} of {} thread(s) over capacity; \
         up to {} over-subscribed sets",
        format_bytes(ws.total_avg_bytes),
        format_bytes(ws.cache_capacity as f64),
        ws.threads_exceeding_capacity,
        ws.thread_count,
        ws.conflict_sets
    )
    .unwrap();
}

fn text_utilization(out: &mut String, report: &MergedReport, top: usize) {
    let util = &report.utilization;
    writeln!(out, "\n=== Line utilization ===").unwrap();
    writeln!(
        out,
        "{:<16} {:>8} {:>15} {:>12} {:>12} {:>9} {:>7}  Origin",
        "Type name", "Util%", "95% CI", "Wasted", "Wasted/s", "Re-fetch", "Rank"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(100)).unwrap();
    for row in util.rows.iter().take(top) {
        let origin = row.origins.first().map(|o| &*o.origin).unwrap_or("-");
        writeln!(
            out,
            "{:<16} {:>7.1}% [{:>5.1}, {:>5.1}] {:>12} {:>10}/s {:>8.1}% {:>7}  {}",
            row.name,
            row.utilization_pct(),
            row.ci95_low,
            row.ci95_high,
            format_bytes(row.wasted_bytes() as f64),
            format_bytes(row.wasted_bytes_per_sec),
            100.0 * row.refetch_ratio(),
            if row.rank_stable { "firm" } else { "~" },
            origin
        )
        .unwrap();
    }
    writeln!(out, "{}", "-".repeat(100)).unwrap();
    writeln!(
        out,
        "{} line fills tallied, {} re-fetches of evicted lines",
        util.total_fetches, util.total_refetches
    )
    .unwrap();
}

fn text_data_flow(out: &mut String, report: &MergedReport, top: usize) {
    writeln!(out, "\n=== Data flow (core crossings) ===").unwrap();
    if report.data_flows.is_empty() {
        writeln!(out, "no object access histories collected").unwrap();
        return;
    }
    for flow in &report.data_flows {
        let core_crossings = flow.core_crossings();
        if core_crossings == 0 {
            writeln!(out, "{}: no core transitions observed", flow.type_name).unwrap();
            continue;
        }
        writeln!(
            out,
            "{}: {} core-crossing traversal(s)",
            flow.type_name, core_crossings
        )
        .unwrap();
        for edge in flow.edges.iter().filter(|e| e.cpu_change).take(top.min(3)) {
            writeln!(
                out,
                "  {} -> {} crosses cores (x{})",
                edge.from, edge.to, edge.count
            )
            .unwrap();
        }
    }
}

/// Renders merged data-profile rows as the combined working-set + data-profile table
/// (Tables 6.1 / 6.4 / 6.5).
pub fn render_data_profile(rows: &[Ranked<ShardProfileRow>], top: usize) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<16} {:<36} {:>12} {:>14} {:>8}",
        "Type name", "Description", "WS Size", "% of L1 misses", "Bounce"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(92)).unwrap();
    let mut total_ws = 0.0;
    let mut total_pct = 0.0;
    for r in rows.iter().take(top) {
        writeln!(
            out,
            "{:<16} {:<36} {:>12} {:>13.2}% {:>8}",
            r.name,
            truncate(&r.description, 36),
            format_bytes(r.working_set_bytes),
            r.pct_of_l1_misses,
            if r.bounce { "yes" } else { "no" }
        )
        .unwrap();
        total_ws += r.working_set_bytes;
        total_pct += r.pct_of_l1_misses;
    }
    writeln!(out, "{}", "-".repeat(92)).unwrap();
    writeln!(
        out,
        "{:<16} {:<36} {:>12} {:>13.2}% {:>8}",
        "Total",
        "",
        format_bytes(total_ws),
        total_pct,
        "-"
    )
    .unwrap();
    out
}

/// Renders a type's data flow in Graphviz DOT format: bold edges are core transitions,
/// dark nodes have an average access latency of at least `hot_threshold_cycles` — the
/// same visual vocabulary as Figure 6-1.  An edge whose endpoint is not among the
/// flow's nodes is not drawn.
pub fn render_dot(flow: &ShardFlow, hot_threshold_cycles: f64) -> String {
    let mut out = String::from("digraph data_flow {\n  rankdir=TB;\n  node [shape=box];\n");
    for (i, n) in flow.nodes.iter().enumerate() {
        let style = if n.avg_latency >= hot_threshold_cycles && n.samples > 0 {
            ", style=filled, fillcolor=gray55, fontcolor=white"
        } else {
            ""
        };
        writeln!(
            out,
            "  n{} [label=\"{}\\navg {:.0} cyc\"{}];",
            i, n.function, n.avg_latency, style
        )
        .unwrap();
    }
    let node = |function: &str| flow.nodes.iter().position(|n| &*n.function == function);
    for e in &flow.edges {
        let (Some(from), Some(to)) = (node(&e.from), node(&e.to)) else {
            continue; // a pushed report may name an endpoint it lists no node for
        };
        let style = if e.cpu_change {
            ", penwidth=3, color=black"
        } else {
            ""
        };
        writeln!(out, "  n{from} -> n{to} [label=\"x{}\"{style}];", e.count).unwrap();
    }
    out.push_str("}\n");
    out
}

/// Renders a path trace in the style of Table 4.1.
pub fn render_path_trace(trace: &PathTrace, symbols: &SymbolTable) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "path observed {} times, avg lifetime {:.0} cycles",
        trace.frequency, trace.avg_lifetime
    )
    .unwrap();
    writeln!(
        out,
        "{:>10}  {:<26} {:>10} {:>12}  {:<24} {:>10}",
        "timestamp", "program counter", "CPU change", "offsets", "cache hit", "avg time"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(100)).unwrap();
    for e in &trace.entries {
        let offsets = e
            .offsets
            .iter()
            .map(|o| o.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let hit = e
            .stats
            .dominant_level()
            .map(|(name, p)| format!("{:.0}% {}", p * 100.0, name))
            .unwrap_or_else(|| "-".to_string());
        writeln!(
            out,
            "{:>10.0}  {:<26} {:>10} {:>12}  {:<24} {:>7.0} cyc",
            e.avg_timestamp,
            symbols.name(e.ip),
            if e.cpu_change { "yes" } else { "no" },
            offsets,
            hit,
            e.stats.avg_latency()
        )
        .unwrap();
    }
    out
}

/// `s` cut to at most `n` characters, the last of them `…` where it was cut.
fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        let head: String = s.chars().take(n.saturating_sub(1)).collect();
        format!("{head}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{ShardFlowEdge, ShardFlowNode};

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(128.0), "128B");
        assert_eq!(format_bytes(1536.0), "1.5KB");
        assert_eq!(format_bytes(14.6 * 1024.0 * 1024.0), "14.60MB");
    }

    #[test]
    fn data_profile_table_contains_rows_and_total() {
        let rows = vec![Ranked {
            row: ShardProfileRow {
                name: "size-1024".into(),
                description: "packet payload".into(),
                working_set_bytes: 14.6 * 1024.0 * 1024.0,
                pct_of_l1_misses: 45.4,
                pct_of_miss_cycles: 50.0,
                bounce: true,
                samples: 1000,
                l1_miss_samples: 454,
                threads_seen: 1,
            },
            ci95_low: 42.3,
            ci95_high: 48.5,
            rank_stable: true,
        }];
        let t = render_data_profile(&rows, 10);
        assert!(t.contains("size-1024"));
        assert!(t.contains("45.40%"));
        assert!(t.contains("yes"));
        assert!(t.contains("Total"));
    }

    #[test]
    fn a_dot_skips_an_edge_to_a_node_the_flow_does_not_list() {
        // A JSON report's flow lists every edge but only its top nodes.
        let node = |function: &str| ShardFlowNode {
            function: function.into(),
            samples: 1,
            weight: 1,
            avg_latency: 3.0,
        };
        let edge = |to: &str| ShardFlowEdge {
            from: "a".into(),
            to: to.into(),
            count: 2,
            cpu_change: false,
        };
        let flow = ShardFlow {
            type_name: "t".into(),
            nodes: vec![node("a"), node("b")],
            edges: vec![edge("b"), edge("unlisted")],
        };
        let dot = render_dot(&flow, 100.0);
        assert!(dot.contains("  n0 -> n1 [label=\"x2\"];\n"));
        assert_eq!(dot.matches("->").count(), 1, "{dot}");
    }

    #[test]
    fn truncate_adds_ellipsis() {
        assert_eq!(truncate("short", 10), "short");
        let t = truncate("a very long description indeed", 10);
        assert!(t.chars().count() <= 10);
        assert!(t.ends_with('…'));
        // A multi-byte character across the cut.
        let t = truncate(&("a".repeat(34) + "é" + "bb"), 36);
        assert_eq!(t, "a".repeat(34) + "é…");
    }
}
