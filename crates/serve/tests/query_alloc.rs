//! What a collector's reply costs the heap: each reply kind rendered over the golden
//! memcached → false-sharing pair, the one `tests/golden/serve` pins, with its
//! allocations counted.  A reply is written field by field into one text sized for it
//! up front, so a `top` or `push` reply is that one allocation, an `alerts` reply one
//! more for the rows that alert, and a `regressions` reply adds only what the diff
//! under it builds: the two summaries, each a table sized for its rows up front, and
//! the deltas, sized for both tables' rows.  Before replies were written this way, each built a `Json` tree first, a
//! `String` a key and an object a row: `top` took 94 allocations and 9 growths,
//! `regressions` 157 and 13, `alerts` 27 and 7, `push` 13 and 5; before the diff joined
//! its two name-ordered tables in one walk, `regressions` took 7 and 4 (the summaries
//! grew row by row, and the names' union and the focus were allocations of their own).
//!
//! The counting allocator (`tests/support/counting_alloc.rs`) is global to the test
//! binary, so this binary runs without the libtest harness (`harness = false` in
//! `Cargo.toml`): its one check is `main`, on the only thread.

use dprof::core::merge::MergedReport;
use dprof::core::schema::{shard_from_report_json, JsonTape};
use dprof_serve::{reply, ProfileStore};
use std::sync::Arc;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::measured;

fn main() {
    each_reply_kind_allocates_its_text_and_its_diff_only();
}

/// The two keys of `tests/golden/serve`: three pushes of each report, folded as the
/// collector that wrote it folded them (compaction every two resident shards).
fn golden_reports() -> (Arc<MergedReport>, Arc<MergedReport>) {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
    let mut store = ProfileStore::new(None, 2).unwrap();
    for (build, name, ids) in [
        ("v1", "memcached_quick.report.json", 1..=3),
        ("v2", "false_sharing_quick.report.json", 4..=6),
    ] {
        let text = std::fs::read_to_string(format!("{golden}/{name}")).unwrap();
        for id in ids {
            let shard = shard_from_report_json(&JsonTape::parse(&text).unwrap(), id).unwrap();
            store.push_shard("golden", build, shard);
        }
    }
    let v1 = store.report("golden", "v1").unwrap();
    let v2 = store.report("golden", "v2").unwrap();
    (v1, v2)
}

/// A reply's text and what rendering it asked of the allocator, as `alloc` and
/// `realloc` calls: the same on a second render, since nothing is cached or warmed up.
fn rendered(kind: &str, render: impl Fn() -> String) -> (String, (u64, u64)) {
    let (text, asked) = measured(&render);
    assert_eq!(measured(&render).1.calls(), asked.calls(), "{kind}");
    (text, (asked.allocations, asked.growths))
}

fn each_reply_kind_allocates_its_text_and_its_diff_only() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/serve");
    let read = |name: &str| std::fs::read_to_string(format!("{golden}/{name}")).unwrap();
    let (v1, v2) = golden_reports();

    let (top, top_cost) = rendered("top", || reply::top("golden", "v1", &v1, 64));
    assert_eq!(top, read("top.json"));
    let (regressions, regressions_cost) = rendered("regressions", || {
        reply::regressions("golden", "v1", "v2", &v1, &v2, 64)
    });
    assert_eq!(regressions, read("regressions.json"));
    let (alerts, alerts_cost) =
        rendered("alerts", || reply::alerts("golden", "v1", "v2", &v1, &v2));
    assert_eq!(alerts, read("alerts.json"));
    let (_, push_cost) = rendered("push", || reply::push("golden", "v1", 3));
    assert_eq!(
        [top_cost, regressions_cost, alerts_cost, push_cost],
        [(1, 0), (4, 0), (2, 0), (1, 0)]
    );
}
