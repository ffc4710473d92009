//! The collector's replies: every `dprof-serve/v1` document a request is answered
//! with, written field by field through one [`JsonWriter`].  A reply builds no
//! [`Json`](dprof::core::schema::Json) tree: no key is copied and no row is an object
//! of its own, so a reply allocates its text, whatever its row count, and a query
//! besides only what it computes (a diff, the rows that alert).  Every reply opens
//! with its `schema` and its `kind`.

use dprof::core::merge::MergedReport;
use dprof::core::report::diff::diff;
use dprof::core::schema::{self, JsonWriter};
use dprof::core::{summary_from_merged, wilson95};

use crate::store::StoreStats;

/// Room a reply's text starts with: a `top`, `regressions` or `alerts` reply of the
/// default eight rows fits, so it is written without growing.
const REPLY_BYTES: usize = 2048;

/// Rows a `top` or `regressions` request of `top: 0` returns.
const DEFAULT_ROWS: usize = 8;

/// A reply's head: the open document with its `schema` and `kind`.
fn head(kind: &str) -> JsonWriter {
    let mut w = JsonWriter::with_capacity(REPLY_BYTES);
    w.open_obj();
    w.key("schema").str(schema::SERVE_V1).key("kind").str(kind);
    w
}

/// The document's text, its object closed.
fn end(mut w: JsonWriter) -> String {
    w.close_obj();
    w.finish()
}

/// The answer to a pushed shard: the key and how many shards it has absorbed.
pub fn push(workload: &str, build: &str, shards: u64) -> String {
    let mut w = head("push");
    w.key("workload").str(workload).key("build").str(build);
    w.key("shards").num(shards as f64);
    end(w)
}

/// The answer to a pushed trace: the key, the streams replayed into shards and how many
/// shards the key has absorbed.
pub fn push_trace(workload: &str, build: &str, streams: usize, shards: u64) -> String {
    let mut w = head("push-trace");
    w.key("workload").str(workload).key("build").str(build);
    w.key("streams").num(streams as f64);
    w.key("shards").num(shards as f64);
    end(w)
}

/// The key's `top` data-profile rows (eight for `top: 0`).
pub fn top(workload: &str, build: &str, report: &MergedReport, top: usize) -> String {
    let top = if top == 0 { DEFAULT_ROWS } else { top };
    let mut w = head("top");
    w.key("workload").str(workload).key("build").str(build);
    w.key("shards").num(report.threads.len() as f64);
    w.key("pooled_misses").num(report.pooled_weight);
    w.key("aggregate_rps").num(report.totals.rps);
    w.key("rows").open_arr();
    for row in report.data_profile.iter().take(top) {
        w.item().open_obj();
        w.key("type").str(&row.name);
        w.key("pct_of_l1_misses").num(row.pct_of_l1_misses);
        w.key("ci95_low").num(row.ci95_low);
        w.key("ci95_high").num(row.ci95_high);
        w.key("rank_stable").bool(row.rank_stable);
        w.key("l1_miss_samples").num(row.l1_miss_samples as f64);
        w.key("bounce").bool(row.bounce);
        w.key("threads_seen").num(row.threads_seen as f64);
        w.close_obj();
    }
    w.close_arr();
    end(w)
}

/// The diff of build `from` against build `to`: its focus, its verdict and the `top`
/// per-type deltas, worst regressions (largest share growth) first.
pub fn regressions(
    workload: &str,
    from: &str,
    to: &str,
    report_a: &MergedReport,
    report_b: &MergedReport,
    top: usize,
) -> String {
    let top = if top == 0 { DEFAULT_ROWS } else { top };
    let (summary_a, summary_b) = (summary_from_merged(report_a), summary_from_merged(report_b));
    let mut result = diff(&summary_a, &summary_b, None);
    // Names are unique, so the order is total and an unstable sort is exact.
    result.types.sort_unstable_by(|a, b| {
        b.delta_pct()
            .partial_cmp(&a.delta_pct())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.name().cmp(b.name()))
    });
    let mut w = head("regressions");
    w.key("workload").str(workload);
    w.key("from").str(from).key("to").str(to);
    w.key("focus").str(result.focus);
    w.key("verdict").str(result.verdict.key());
    w.key("rows").open_arr();
    for d in result.types.iter().take(top) {
        w.item().open_obj();
        w.key("type").str(d.name());
        w.key("pct_from").num(d.a.pct_of_l1_misses);
        w.key("pct_to").num(d.b.pct_of_l1_misses);
        w.key("delta_pct").num(d.delta_pct());
        w.key("misses_from").num(d.a.miss_samples as f64);
        w.key("misses_to").num(d.b.miss_samples as f64);
        w.close_obj();
    }
    w.close_arr();
    end(w)
}

/// The types of build `to` whose miss share grew past build `from`'s confidence
/// interval, with their miss count.
pub fn alerts(
    workload: &str,
    from: &str,
    to: &str,
    report_a: &MergedReport,
    report_b: &MergedReport,
) -> String {
    let pooled_a = report_a.pooled_weight.round().max(0.0) as u64;
    let mut w = head("alerts");
    w.key("workload").str(workload);
    w.key("from").str(from).key("to").str(to);
    let mut alerts = Vec::new();
    for row in &report_b.data_profile {
        let baseline = report_a
            .data_profile
            .iter()
            .find(|candidate| candidate.name == row.name);
        // The Wilson gate: alert only when the comparison share's lower
        // confidence bound clears the baseline share's upper bound AND the raw
        // miss count actually grew — interval separation alone can be an
        // artifact of a shrinking denominator.
        let (from_pct, from_high, from_misses) = match baseline {
            Some(base) => (base.pct_of_l1_misses, base.ci95_high, base.l1_miss_samples),
            // Absent from the baseline: its share there is zero with the Wilson
            // upper bound a zero-success sample of the pooled size gets.
            None => (0.0, 100.0 * wilson95(0, pooled_a).1, 0),
        };
        if row.ci95_low > from_high && row.l1_miss_samples > from_misses {
            alerts.push((row, from_pct, from_high, from_misses));
        }
    }
    w.key("alert_count").num(alerts.len() as f64);
    w.key("alerts").open_arr();
    for (row, from_pct, from_high, from_misses) in alerts {
        w.item().open_obj();
        w.key("type").str(&row.name);
        w.key("pct_from").num(from_pct);
        w.key("pct_to").num(row.pct_of_l1_misses);
        w.key("ci95_high_from").num(from_high);
        w.key("ci95_low_to").num(row.ci95_low);
        w.key("misses_from").num(from_misses as f64);
        w.key("misses_to").num(row.l1_miss_samples as f64);
        w.close_obj();
    }
    w.close_arr();
    end(w)
}

/// Every key the store holds, as `(workload, build, shards absorbed)`.
pub fn keys(keys: &[(String, String, u64)]) -> String {
    let mut w = head("keys");
    w.key("keys").open_arr();
    for (workload, build, shards) in keys {
        w.item().open_obj();
        w.key("workload").str(workload).key("build").str(build);
        w.key("shards").num(*shards as f64);
        w.close_obj();
    }
    w.close_arr();
    end(w)
}

/// The store's counters and whether it persists snapshots.
pub fn stats(stats: &StoreStats, persistent: bool) -> String {
    let mut w = head("stats");
    w.key("keys").num(stats.keys as f64);
    w.key("shards_absorbed").num(stats.shards_absorbed as f64);
    w.key("shards_resident").num(stats.shards_resident as f64);
    w.key("snapshots_written")
        .num(stats.snapshots_written as f64);
    w.key("fold_rebuilds").num(stats.fold_rebuilds as f64);
    w.key("persistent").bool(persistent);
    end(w)
}

/// How many snapshot files a `snapshot` request wrote.
pub fn snapshot(written: u64) -> String {
    let mut w = head("snapshot");
    w.key("written").num(written as f64);
    end(w)
}

/// The acknowledgement of a `shutdown` request.
pub fn shutdown() -> String {
    end(head("shutdown"))
}
