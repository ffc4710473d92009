//! Textual rendering of DProf views in the style of the thesis' tables, plus the
//! [`diff`] module comparing two reports (the paper's before/after-fix methodology).

pub mod diff;

use crate::merge::{ShardMissRow, ShardUtilizationRow};
use crate::path_trace::PathTrace;
use crate::profiler::DprofProfile;
use crate::views::{DataProfileRow, WorkingSetView};
use sim_machine::SymbolTable;
use std::fmt::Write as _;

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

/// Renders the combined working-set + data-profile table (Tables 6.1 / 6.4 / 6.5).
pub fn render_data_profile(rows: &[DataProfileRow], top: usize) -> String {
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

/// Renders the working-set view: per-type footprint plus the conflict-set summary.
pub fn render_working_set(view: &WorkingSetView, top: usize) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<16} {:>14} {:>14} {:>14}",
        "Type name", "Avg bytes", "Avg objects", "Peak bytes"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(62)).unwrap();
    for t in view.per_type.iter().take(top) {
        writeln!(
            out,
            "{:<16} {:>14} {:>14.1} {:>14}",
            t.name,
            format_bytes(t.avg_live_bytes),
            t.avg_live_objects,
            format_bytes(t.peak_live_bytes as f64)
        )
        .unwrap();
    }
    writeln!(out, "{}", "-".repeat(62)).unwrap();
    writeln!(
        out,
        "total working set {} vs cache capacity {} => {}",
        format_bytes(view.total_avg_bytes()),
        format_bytes(view.cache_capacity as f64),
        if view.exceeds_capacity() {
            "capacity pressure"
        } else {
            "fits"
        }
    )
    .unwrap();
    if view.conflict_sets.is_empty() {
        writeln!(out, "no over-subscribed associativity sets").unwrap();
    } else {
        writeln!(
            out,
            "{} over-subscribed associativity sets (top 3):",
            view.conflict_sets.len()
        )
        .unwrap();
        for s in view.conflict_sets.iter().take(3) {
            writeln!(
                out,
                "  set {:>4}: {} distinct lines",
                s.set_index, s.distinct_lines
            )
            .unwrap();
        }
    }
    out
}

/// Renders the miss-classification view.
pub fn render_miss_classification(rows: &[ShardMissRow], top: usize) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<16} {:>10} {:>14} {:>10} {:>10}  Dominant",
        "Type name", "Misses", "Invalidation", "Conflict", "Capacity"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(86)).unwrap();
    for r in rows.iter().take(top) {
        writeln!(
            out,
            "{:<16} {:>10} {:>13.1}% {:>9.1}% {:>9.1}%  {}",
            r.name,
            r.miss_samples,
            100.0 * r.invalidation,
            100.0 * r.conflict,
            100.0 * r.capacity,
            r.dominant()
        )
        .unwrap();
    }
    out
}

/// Renders the line-utilization view: types ranked by the bandwidth wasted on
/// fetched-but-untouched bytes.  A per-thread row carries counts only; the merged
/// report's renderer adds the pooled interval and rank mark.
pub fn render_utilization(rows: &[ShardUtilizationRow], top: usize) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<16} {:>8} {:>12} {:>12} {:>9}  Origin",
        "Type name", "Util%", "Wasted", "Wasted/s", "Re-fetch"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(76)).unwrap();
    for r in rows.iter().take(top) {
        let origin = r.origins.first().map(|o| o.origin.as_str()).unwrap_or("-");
        writeln!(
            out,
            "{:<16} {:>7.1}% {:>12} {:>10}/s {:>8.1}%  {}",
            r.name,
            r.utilization_pct(),
            format_bytes(r.wasted_bytes() as f64),
            format_bytes(r.wasted_bytes_per_sec),
            100.0 * r.refetch_ratio(),
            origin
        )
        .unwrap();
    }
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

/// Renders a complete profile: data profile, working set, miss classification, and the
/// core-crossing summary of every collected data-flow graph, by type name.
pub fn render_profile(profile: &DprofProfile, top: usize) -> String {
    let mut out = String::new();
    writeln!(out, "=== Data profile ===").unwrap();
    out.push_str(&render_data_profile(&profile.data_profile, top));
    writeln!(out, "\n=== Working set ===").unwrap();
    out.push_str(&render_working_set(&profile.working_set, top));
    writeln!(out, "\n=== Miss classification ===").unwrap();
    out.push_str(&render_miss_classification(
        &profile.miss_classification,
        top,
    ));
    writeln!(out, "\n=== Line utilization ===").unwrap();
    out.push_str(&render_utilization(&profile.utilization.rows, top));
    writeln!(out, "\n=== Data flow (core crossings) ===").unwrap();
    let mut flows: Vec<_> = profile
        .data_flows
        .iter()
        .map(|(ty, graph)| {
            let name = profile
                .data_profile
                .iter()
                .find(|r| r.type_id == *ty)
                .map(|r| r.name.clone())
                .unwrap_or_else(|| format!("type#{}", ty.0));
            (name, graph)
        })
        .collect();
    flows.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, graph) in flows {
        let crossings = graph.cpu_crossing_edges();
        if crossings.is_empty() {
            writeln!(out, "{name}: no core transitions observed").unwrap();
        } else {
            for e in crossings.iter().take(3) {
                writeln!(
                    out,
                    "{name}: {} -> {} crosses cores (x{})",
                    graph.nodes[e.from].name, graph.nodes[e.to].name, e.count
                )
                .unwrap();
            }
        }
    }
    out
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n.saturating_sub(1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_kernel::TypeId;

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(128.0), "128B");
        assert_eq!(format_bytes(1536.0), "1.5KB");
        assert_eq!(format_bytes(14.6 * 1024.0 * 1024.0), "14.60MB");
    }

    #[test]
    fn data_profile_table_contains_rows_and_total() {
        let rows = vec![DataProfileRow {
            type_id: TypeId(0),
            name: "size-1024".into(),
            description: "packet payload".into(),
            working_set_bytes: 14.6 * 1024.0 * 1024.0,
            pct_of_l1_misses: 45.4,
            pct_of_miss_cycles: 50.0,
            bounce: true,
            samples: 1000,
            l1_miss_samples: 454,
        }];
        let t = render_data_profile(&rows, 10);
        assert!(t.contains("size-1024"));
        assert!(t.contains("45.40%"));
        assert!(t.contains("yes"));
        assert!(t.contains("Total"));
    }

    #[test]
    fn truncate_adds_ellipsis() {
        assert_eq!(truncate("short", 10), "short");
        let t = truncate("a very long description indeed", 10);
        assert!(t.chars().count() <= 10);
        assert!(t.ends_with('…'));
    }
}
