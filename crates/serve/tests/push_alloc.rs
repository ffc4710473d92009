//! What a push costs the heap once its connection has seen its names: the reader
//! allocates the shard's row vectors and no name, the store's absorb nothing, and the
//! fold a read takes after it shares every name it hands out.
//!
//! The counting allocator (`tests/support/counting_alloc.rs`) is global to the test
//! binary, so this binary runs without the libtest harness (`harness = false` in
//! `Cargo.toml`): its one check is `main`, on the only thread.  Under libtest the
//! harness's main thread, allocating after it spawned the test's thread, added
//! allocations to a push's count in about one run in nine with three copies on two
//! vCPUs.

use dprof::core::merge::{MergedReport, ProfileShard};
use dprof::core::schema::{shard_from_report_json_with, JsonTape, NameTable};
use dprof_serve::ProfileStore;
use std::sync::Arc;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::measured;

/// The non-empty vectors of a shard: what reading it must allocate when every name is
/// already known.
fn vectors(shard: &ProfileShard) -> u64 {
    let some = |len: usize| u64::from(len > 0);
    let util = &shard.utilization.rows;
    some(shard.data_profile.len())
        + some(shard.miss_classification.len())
        + some(util.len())
        + util.iter().map(|r| some(r.origins.len())).sum::<u64>()
        + some(shard.working_set.rows.len())
        + some(shard.data_flows.len())
        + (shard.data_flows.iter())
            .map(|f| some(f.nodes.len()) + some(f.edges.len()))
            .sum::<u64>()
}

/// Every name of a shard's rows.
fn shard_names(shard: &ProfileShard) -> Vec<&Arc<str>> {
    let mut names = Vec::new();
    for r in &shard.data_profile {
        names.extend([&r.name, &r.description]);
    }
    names.extend(shard.miss_classification.iter().map(|r| &r.name));
    for r in &shard.utilization.rows {
        names.extend([&r.name, &r.description]);
        names.extend(r.origins.iter().map(|o| &o.origin));
    }
    for r in &shard.working_set.rows {
        names.extend([&r.name, &r.description]);
    }
    for f in &shard.data_flows {
        names.push(&f.type_name);
        names.extend(f.nodes.iter().map(|n| &n.function));
        names.extend(f.edges.iter().flat_map(|e| [&e.from, &e.to]));
    }
    names
}

/// Every name of a merged report's rows.
fn report_names(report: &MergedReport) -> Vec<&Arc<str>> {
    let mut names = Vec::new();
    for r in &report.data_profile {
        names.extend([&r.name, &r.description]);
    }
    names.extend(report.miss_classification.iter().map(|r| &r.name));
    for r in &report.utilization.rows {
        names.extend([&r.name, &r.description]);
        names.extend(r.origins.iter().map(|o| &o.origin));
    }
    for r in &report.working_set.rows {
        names.extend([&r.name, &r.description]);
    }
    for f in &report.data_flows {
        names.push(&f.type_name);
        names.extend(f.nodes.iter().map(|n| &n.function));
        names.extend(f.edges.iter().flat_map(|e| [&e.from, &e.to]));
    }
    names
}

fn main() {
    a_push_allocates_its_rows_and_a_read_after_it_copies_no_name();
}

fn a_push_allocates_its_rows_and_a_read_after_it_copies_no_name() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
    let read = |name: &str| std::fs::read_to_string(format!("{golden}/{name}")).unwrap();
    let documents = [
        read("memcached_quick.report.json"),
        read("false_sharing_quick.report.json"),
    ];
    let tapes: Vec<JsonTape> = documents
        .iter()
        .map(|d| JsonTape::parse(d).unwrap())
        .collect();

    // One connection's table and one key, which never compacts here, so that every
    // push adds a shard the key keeps.
    let mut names = NameTable::default();
    let mut store = ProfileStore::new(None, 1024).unwrap();
    let mut per_push = [None; 2];
    let mut spelled = [0; 2];
    let mut known = 0;
    let mut folds = Vec::new();
    for ordinal in 1..=40u64 {
        let doc = (ordinal % 2) as usize;
        let (asked, shard_vectors) = {
            let (shard, read) =
                measured(|| shard_from_report_json_with(&tapes[doc], ordinal, &mut names).unwrap());
            let shard_vectors = vectors(&shard);
            spelled[doc] = shard_names(&shard).len();
            for name in shard_names(&shard) {
                assert!(Arc::ptr_eq(name, &names.name(name)), "{name} is a copy");
            }
            let ((), pushed) = measured(|| {
                store.push_shard("memcached", "v1", shard);
            });
            (read.allocations + pushed.allocations, shard_vectors)
        };
        if ordinal <= 2 {
            // The first push of each document is where its new names are made.
            assert!(asked > shard_vectors, "push {ordinal}: {asked}");
            known = names.len();
        } else {
            // From then on a push is its rows' vectors, whatever its names: the table
            // holds the same names, and neither reading nor keeping the shard makes
            // one more.
            assert_eq!(asked, shard_vectors, "push {ordinal}");
            assert_eq!(names.len(), known, "push {ordinal}");
            assert_eq!(*per_push[doc].get_or_insert(asked), asked, "push {ordinal}");
        }

        // The read after a push folds the new shard into the kept sums and ranks them:
        // every name it hands out is the one the pushes share.
        let (report, finished) = measured(|| store.report("memcached", "v1").unwrap());
        for name in report_names(&report) {
            assert!(Arc::ptr_eq(name, &names.name(name)), "{name} was copied");
        }
        if ordinal > 2 {
            folds.push(finished.allocations);
        }
    }
    // Once read, a push of either document allocates its row vectors only, not the 80
    // and 37 names its rows spell (a push of the memcached report, a copy of every
    // name, took 91), and the table holds the 40 distinct ones.
    assert_eq!(per_push, [Some(11), Some(8)]);
    assert_eq!(spelled, [80, 37]);
    assert_eq!(known, 40);
    // A read's allocations are its tables' vectors, the same after every push.
    assert!(folds.iter().all(|&n| n == folds[0]), "{folds:?}");
}
