//! The merged-profile store: one streaming merge sink per `(workload, build)`.
//!
//! Memory is bounded per key by the sink's compaction threshold (shards fold
//! into a single base shard once the threshold is reached), and the whole store
//! survives restarts through JSON snapshots: each key writes the fold of its resident
//! shards, as the `dprof-report/v1` report of that one shard, under
//! `<root>/<workload>/<build>.json`, and [`ProfileStore::new`] reloads every snapshot
//! it finds (a snapshot of the raw shard an older collector wrote is refused by name).
//! A reloaded key keeps absorbing new shards on top of its snapshot shard.  A snapshot
//! is written beside its file as `<build>.json.tmp` and renamed over it, so a collector killed while
//! writing leaves the previous snapshot and a stray `.tmp`, which the next start
//! removes; it is not `fsync`ed (that would be a disk flush under the store's lock
//! every few pushes), so a power cut may still cost the last snapshots.

use dprof::core::merge::{self, MergeSink, MergedReport, ProfileShard, StreamingMerge};
use dprof::core::schema::{self, JsonRef, JsonTape, JsonWriter};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Whether a workload/build tag is acceptable: 1–64 characters drawn from
/// `[A-Za-z0-9._-]`, not starting with a separator.  Tags become path
/// components of the snapshot tree, so this also rules out traversal.
pub fn valid_tag(tag: &str) -> bool {
    let mut chars = tag.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphanumeric() => {}
        _ => return false,
    }
    tag.len() <= 64 && chars.all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-')
}

/// Store-wide counters, as reported by the `stats` query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Number of `(workload, build)` keys.
    pub keys: usize,
    /// Shards absorbed over the store's lifetime (including reloaded snapshots,
    /// each of which counts with the shard count it folded).
    pub shards_absorbed: u64,
    /// Shards currently resident in memory across all sinks (bounded by
    /// `keys * compact_threshold`).
    pub shards_resident: usize,
    /// Snapshot files written since the store opened.
    pub snapshots_written: u64,
    /// Pushes whose shard sorted below one its key's running fold had already summed,
    /// so that the key's resident shards were folded again from the first (see
    /// [`StreamingMerge::fold_rebuilds`]).  Every other push is added to the fold by
    /// the key's next read.
    pub fold_rebuilds: u64,
}

struct BuildEntry {
    sink: StreamingMerge,
    /// Total shards this key represents (snapshot shards count what they folded).
    absorbed: u64,
    /// Pushes since the last snapshot (drives the snapshot-every-N policy).
    dirty: u64,
    /// The ranked fold of the shards in `sink`, kept from the first read after a push
    /// until the next push.  A pure function of the shard set, so it is dropped
    /// exactly where that set changes: in [`ProfileStore::push_shard`].
    report: Option<Arc<MergedReport>>,
}

/// The in-memory store behind the server, optionally backed by a snapshot tree.
pub struct ProfileStore {
    root: Option<PathBuf>,
    compact_threshold: usize,
    /// By workload, then build: a key is found by its two tags as they are, without
    /// building an owned pair to look it up by.
    entries: BTreeMap<String, BTreeMap<String, BuildEntry>>,
    snapshots_written: u64,
}

/// The value at `key`, made by `new` (and `key` copied) only when there is none.
fn slot<'m, V>(map: &'m mut BTreeMap<String, V>, key: &str, new: impl FnOnce() -> V) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_owned(), new());
    }
    map.get_mut(key).expect("the key was inserted above")
}

impl ProfileStore {
    /// Opens a store.  With a `root`, every `<root>/<workload>/<build>.json`
    /// snapshot is reloaded; the directory is created if missing.
    pub fn new(root: Option<PathBuf>, compact_threshold: usize) -> Result<ProfileStore, String> {
        let mut store = ProfileStore {
            root,
            compact_threshold: compact_threshold.max(2),
            entries: BTreeMap::new(),
            snapshots_written: 0,
        };
        if let Some(root) = store.root.clone() {
            std::fs::create_dir_all(&root)
                .map_err(|e| format!("create store root {}: {e}", root.display()))?;
            store.load_snapshots(&root)?;
        }
        Ok(store)
    }

    fn load_snapshots(&mut self, root: &PathBuf) -> Result<(), String> {
        let workloads =
            std::fs::read_dir(root).map_err(|e| format!("read {}: {e}", root.display()))?;
        for workload_dir in workloads.flatten() {
            if !workload_dir.path().is_dir() {
                continue;
            }
            let builds = std::fs::read_dir(workload_dir.path())
                .map_err(|e| format!("read {}: {e}", workload_dir.path().display()))?;
            for build_file in builds.flatten() {
                let path = build_file.path();
                let name = build_file.file_name();
                let name = name.to_string_lossy();
                if name.ends_with(".json.tmp") {
                    // A snapshot its writer did not live to rename: whatever it
                    // holds, the file it was to replace is the last good state.  One
                    // that cannot be removed is still never read, and the key's next
                    // snapshot writes over it.
                    let _ = std::fs::remove_file(&path);
                    continue;
                }
                if !name.ends_with(".json") {
                    continue;
                }
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("read snapshot {}: {e}", path.display()))?;
                let doc = JsonTape::parse_local(&text)
                    .map_err(|e| format!("parse snapshot {}: {e}", path.display()))?;
                let (workload, build, absorbed, shard) = snapshot_from_json(doc.root())
                    .map_err(|e| format!("snapshot {}: {e}", path.display()))?;
                let entry = self.entry(&workload, &build);
                entry.sink.absorb(shard);
                entry.absorbed = absorbed;
            }
        }
        Ok(())
    }

    fn entry(&mut self, workload: &str, build: &str) -> &mut BuildEntry {
        let threshold = self.compact_threshold;
        let builds = slot(&mut self.entries, workload, BTreeMap::new);
        slot(builds, build, || BuildEntry {
            sink: StreamingMerge::with_compact_threshold(threshold),
            absorbed: 0,
            dirty: 0,
            report: None,
        })
    }

    /// The entries of every key, in key order.
    fn all(&self) -> impl Iterator<Item = (&str, &str, &BuildEntry)> {
        self.entries.iter().flat_map(|(workload, builds)| {
            builds
                .iter()
                .map(move |(build, entry)| (workload.as_str(), build.as_str(), entry))
        })
    }

    /// Absorbs one shard under `(workload, build)` and returns the key's new
    /// total shard count.  Tags must already be validated.
    pub fn push_shard(&mut self, workload: &str, build: &str, shard: ProfileShard) -> u64 {
        let entry = self.entry(workload, build);
        entry.sink.absorb(shard);
        entry.report = None;
        entry.absorbed = merge::add_counts(entry.absorbed, 1);
        entry.dirty += 1;
        entry.absorbed
    }

    /// The merged report of one key, or `None` for an unknown key.  Folds the key's
    /// resident shards on the first call after a push; until the next push every call
    /// returns the same `Arc`.
    pub fn report(&mut self, workload: &str, build: &str) -> Option<Arc<MergedReport>> {
        let entry = self.entries.get_mut(workload)?.get_mut(build)?;
        let sink = &entry.sink;
        Some(Arc::clone(
            entry.report.get_or_insert_with(|| Arc::new(sink.finish())),
        ))
    }

    /// Every key with its total shard count, in key order.
    pub fn keys(&self) -> Vec<(String, String, u64)> {
        self.all()
            .map(|(w, b, entry)| (w.to_string(), b.to_string(), entry.absorbed))
            .collect()
    }

    /// How many pushes key `(workload, build)` has seen since its last snapshot.
    pub fn dirty(&self, workload: &str, build: &str) -> u64 {
        self.entries
            .get(workload)
            .and_then(|builds| builds.get(build))
            .map_or(0, |entry| entry.dirty)
    }

    /// Store-wide counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            keys: self.all().count(),
            shards_absorbed: self.all().map(|(_, _, e)| e.absorbed).sum(),
            shards_resident: self.all().map(|(_, _, e)| e.sink.shard_count()).sum(),
            snapshots_written: self.snapshots_written,
            fold_rebuilds: self.all().map(|(_, _, e)| e.sink.fold_rebuilds()).sum(),
        }
    }

    /// Whether the store persists snapshots at all.
    pub fn persistent(&self) -> bool {
        self.root.is_some()
    }

    /// Writes a snapshot of every dirty key; returns how many files were
    /// written.  A no-op (0) for a store without a root.
    pub fn snapshot(&mut self) -> Result<u64, String> {
        let Some(root) = self.root.clone() else {
            return Ok(0);
        };
        let mut written = 0;
        let entries = self.entries.iter_mut().flat_map(|(workload, builds)| {
            builds
                .iter_mut()
                .map(move |(build, entry)| (&*workload, build, entry))
        });
        for (workload, build, entry) in entries {
            if entry.dirty == 0 {
                continue;
            }
            // The fold sits at the smallest ordinal it folded, so a reloaded store
            // folds the snapshot at the same canonical position.
            let doc = snapshot_to_json(workload, build, entry.absorbed, entry.sink.folded());
            let dir = root.join(workload);
            std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            let path = dir.join(format!("{build}.json"));
            let tmp = dir.join(format!("{build}.json.tmp"));
            std::fs::write(&tmp, doc)
                .and_then(|()| std::fs::rename(&tmp, &path))
                .map_err(|e| {
                    // Whatever part got written is no snapshot; `path` is untouched.
                    let _ = std::fs::remove_file(&tmp);
                    format!(
                        "write snapshot {} via {}: {e}",
                        path.display(),
                        tmp.display()
                    )
                })?;
            entry.dirty = 0;
            written += 1;
        }
        self.snapshots_written += written;
        Ok(written)
    }
}

/// A key's snapshot: its envelope (the key, the shards it represents and the fold's
/// ordinal, which a report does not carry) around the report of its fold, written
/// whole, which reads back as that fold.
fn snapshot_to_json(workload: &str, build: &str, absorbed: u64, shard: ProfileShard) -> String {
    let mut w = JsonWriter::with_capacity(64 * 1024);
    w.open_obj();
    w.key("schema").str(schema::SERVE_V1);
    w.key("kind").str("snapshot");
    w.key("workload").str(workload);
    w.key("build").str(build);
    w.key("absorbed").num(absorbed as f64);
    w.key("ordinal").num(shard.ordinal as f64);
    w.key("report");
    schema::write_whole_report(&mut w, &MergedReport::of_shard(shard));
    w.close_obj();
    w.finish()
}

/// What a snapshot an older collector wrote, its fold as a raw `shard`, is refused with.
const OLDER_SNAPSHOT: &str = "the snapshot format changed: this file holds a raw 'shard', \
                              which only an older collector reads; a snapshot now holds a 'report'";

fn snapshot_from_json(doc: JsonRef) -> Result<(String, String, u64, ProfileShard), String> {
    match doc.get("schema").and_then(JsonRef::as_str) {
        Some(schema::SERVE_V1) => {}
        other => return Err(format!("unsupported snapshot schema {other:?}")),
    }
    let field = |key: &str| {
        doc.get(key)
            .and_then(JsonRef::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("snapshot without a '{key}' string"))
    };
    let workload = field("workload")?;
    let build = field("build")?;
    if !valid_tag(&workload) || !valid_tag(&build) {
        return Err(format!("invalid snapshot key {workload}/{build}"));
    }
    let absorbed = schema::count_at(doc, "snapshot", "absorbed")?;
    if doc.get("shard").is_some() {
        return Err(OLDER_SNAPSHOT.into());
    }
    let report = doc
        .get("report")
        .ok_or("snapshot without a 'report' object")?;
    // An ordinal is an identifier, never summed: one past 2^64 saturates.
    let ordinal = doc.get("ordinal").and_then(JsonRef::as_f64).unwrap_or(0.0) as u64;
    let shard = schema::shard_from_report_json(report, ordinal)?;
    Ok((workload, build, absorbed, shard))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprof::core::merge::{ShardMeta, ShardMissRow, ShardProfileRow, ShardWorkingSet};

    fn shard(ordinal: u64, misses: u64) -> ProfileShard {
        ProfileShard {
            ordinal,
            weight: misses as f64,
            meta: ShardMeta {
                thread: 0,
                seed: ordinal,
                requests: 100 + ordinal,
                rps: 1000.0,
                profiling_fraction: 0.01,
                samples: misses * 2,
                total_cycles: 10_000,
            },
            data_profile: vec![ShardProfileRow {
                name: "ring_desc".into(),
                description: "test type".into(),
                working_set_bytes: 64.0,
                pct_of_l1_misses: 100.0,
                pct_of_miss_cycles: 100.0,
                bounce: true,
                samples: misses * 2,
                l1_miss_samples: misses,
                threads_seen: 1,
            }],
            miss_classification: vec![ShardMissRow {
                name: "ring_desc".into(),
                miss_samples: misses,
                invalidation: 0.9,
                conflict: 0.05,
                capacity: 0.05,
            }],
            working_set: ShardWorkingSet {
                thread_count: 1,
                ..ShardWorkingSet::default()
            },
            data_flows: Vec::new(),
            utilization: Default::default(),
        }
    }

    #[test]
    fn tags_are_validated() {
        assert!(valid_tag("memcached"));
        assert!(valid_tag("v1.2-rc_3"));
        assert!(!valid_tag(""));
        assert!(!valid_tag(".hidden"));
        assert!(!valid_tag("a/b"));
        assert!(!valid_tag("../escape"));
        assert!(!valid_tag(&"x".repeat(65)));
    }

    #[test]
    fn snapshots_survive_a_restart() {
        let dir = scratch("test");

        let mut store = ProfileStore::new(Some(dir.clone()), 8).unwrap();
        for i in 0..5 {
            store.push_shard("ring", "v1", shard(i + 1, 40 + i));
        }
        store.push_shard("ring", "v2", shard(1, 80));
        let before = store.report("ring", "v1").unwrap();
        assert_eq!(store.snapshot().unwrap(), 2);
        assert_eq!(store.snapshot().unwrap(), 0, "clean keys are not rewritten");

        let mut reloaded = ProfileStore::new(Some(dir.clone()), 8).unwrap();
        assert_eq!(
            reloaded.keys(),
            vec![
                ("ring".into(), "v1".into(), 5),
                ("ring".into(), "v2".into(), 1)
            ]
        );
        let after = reloaded.report("ring", "v1").unwrap();
        // Counts are preserved exactly through the snapshot round trip.
        assert_eq!(after.totals.requests, before.totals.requests);
        assert_eq!(
            after.data_profile[0].l1_miss_samples,
            before.data_profile[0].l1_miss_samples
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A fresh store directory for one test (tests of one process run side by side).
    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dprof-store-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn counts_folded_past_what_a_document_may_carry_snapshot_and_reload() {
        let dir = scratch("maximal");
        let mut maximal = shard(1, 40);
        maximal.meta.requests = merge::MAX_COUNT;
        maximal.meta.samples = merge::MAX_COUNT;
        maximal.data_profile[0].samples = merge::MAX_COUNT;
        let mut store = ProfileStore::new(Some(dir.clone()), 2).unwrap();
        store.push_shard("big", "b", maximal.clone());
        maximal.ordinal = 2;
        // The second push compacts: the sums are in the sink's one shard.
        store.push_shard("big", "b", maximal);
        let before = store.report("big", "b").unwrap();
        assert_eq!(before.totals.requests, merge::MAX_COUNT);
        assert_eq!(store.snapshot().unwrap(), 1);

        let mut reloaded = ProfileStore::new(Some(dir.clone()), 2).unwrap();
        assert_eq!(reloaded.keys(), vec![("big".into(), "b".into(), 2)]);
        assert_eq!(reloaded.report("big", "b").unwrap(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rates_folded_past_what_an_f64_holds_snapshot_and_reload() {
        // Each push's rate is a finite f64, their sum is not: it stops at f64::MAX.
        let golden = include_str!("../../../tests/golden/memcached_quick.report.json");
        let huge = golden.replace(
            "\"aggregate_rps\": 110459.51783484367,",
            "\"aggregate_rps\": 1.5e308,",
        );
        assert_ne!(huge, golden);
        let report = JsonTape::parse(&huge).unwrap();
        let dir = scratch("huge-rps");
        let mut store = ProfileStore::new(Some(dir.clone()), 2).unwrap();
        for ordinal in 1..=2 {
            let shard = schema::shard_from_report_json(&report, ordinal).unwrap();
            store.push_shard("huge", "b", shard);
        }
        let before = store.report("huge", "b").unwrap();
        assert_eq!(before.totals.rps, f64::MAX);
        assert_eq!(store.snapshot().unwrap(), 1);

        let mut reloaded = ProfileStore::new(Some(dir.clone()), 2).unwrap();
        assert_eq!(reloaded.keys(), vec![("huge".into(), "b".into(), 2)]);
        assert_eq!(reloaded.report("huge", "b").unwrap(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_fold_past_what_one_push_may_carry_snapshots_and_reloads() {
        // Two pushes of 2 100 types each, no name in common: each is inside the budget
        // a pushed frame is held to, their fold (which keeps every row) is not.
        let wide = |ordinal: u64| {
            let mut wide = shard(ordinal, 40);
            let (profile, miss) = (
                wide.data_profile.remove(0),
                wide.miss_classification.remove(0),
            );
            for i in 0..2_100 {
                let name: Arc<str> = format!("type_{ordinal}_{i}").into();
                wide.data_profile.push(ShardProfileRow {
                    name: name.clone(),
                    ..profile.clone()
                });
                wide.miss_classification.push(ShardMissRow {
                    name,
                    ..miss.clone()
                });
            }
            wide
        };
        let pushed = schema::report_of_shard(wide(1));
        assert!(JsonTape::parse(&pushed).is_ok());

        let dir = scratch("wide");
        let mut store = ProfileStore::new(Some(dir.clone()), 2).unwrap();
        store.push_shard("wide", "b", wide(1));
        store.push_shard("wide", "b", wide(2));
        let before = store.report("wide", "b").unwrap();
        assert_eq!(before.data_profile.len(), 4_200);
        assert_eq!(store.snapshot().unwrap(), 1);
        let text = std::fs::read_to_string(dir.join("wide/b.json")).unwrap();
        let over = JsonTape::parse(&text).unwrap_err();
        assert!(
            over.starts_with("more than 65536 values at byte "),
            "{over}"
        );

        let mut reloaded = ProfileStore::new(Some(dir.clone()), 2).unwrap();
        assert_eq!(reloaded.keys(), vec![("wide".into(), "b".into(), 2)]);
        assert_eq!(reloaded.report("wide", "b").unwrap(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A pushed report carries its cycles, so its profiling overhead survives the fold
    /// (weighted by cycles) and the snapshot; without them every pushed report weighed
    /// 0 and the fold of pushes read an overhead of 0.
    #[test]
    fn pushed_reports_keep_their_profiling_overhead_through_a_snapshot() {
        let golden = include_str!("../../../tests/golden/memcached_quick.report.json");
        let report = JsonTape::parse(golden).unwrap();
        let pushed = schema::shard_from_report_json(&report, 1).unwrap();
        assert!(pushed.meta.profiling_fraction > 0.4 && pushed.meta.total_cycles > 0);
        let dir = scratch("overhead");
        let mut store = ProfileStore::new(Some(dir.clone()), 2).unwrap();
        for ordinal in 1..=3 {
            let shard = schema::shard_from_report_json(&report, ordinal).unwrap();
            store.push_shard("golden", "v1", shard);
        }
        let close = |f: f64| (f - pushed.meta.profiling_fraction).abs() < 1e-12;
        let before = store.report("golden", "v1").unwrap();
        assert!(close(before.totals.profiling_fraction), "{before:?}");
        assert_eq!(before.totals.total_cycles, 3 * pushed.meta.total_cycles);
        assert_eq!(store.snapshot().unwrap(), 1);

        let text = std::fs::read_to_string(dir.join("golden/v1.json")).unwrap();
        let snapshot = JsonTape::parse(&text).unwrap();
        let throughput = snapshot
            .root()
            .get("report")
            .unwrap()
            .get("throughput")
            .unwrap();
        let written = throughput
            .get("profiling_fraction")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(close(written), "{written}");
        let mut reloaded = ProfileStore::new(Some(dir.clone()), 2).unwrap();
        assert_eq!(reloaded.report("golden", "v1").unwrap(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_snapshot_an_older_collector_wrote_is_refused_by_name() {
        let dir = scratch("older");
        std::fs::create_dir_all(dir.join("ring")).unwrap();
        let older = r#"{"schema": "dprof-serve/v1", "kind": "snapshot", "workload": "ring",
            "build": "v1", "absorbed": 1, "shard": {"ordinal": 1, "weight": 0}}"#;
        std::fs::write(dir.join("ring/v1.json"), older).unwrap();
        let Err(e) = ProfileStore::new(Some(dir.clone()), 8) else {
            panic!("an older snapshot was loaded");
        };
        assert!(e.contains("ring/v1.json") && !e.contains('\n'), "{e}");
        assert!(e.contains("the snapshot format changed"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_torn_tmp_is_removed_and_a_cut_snapshot_is_an_error_naming_it() {
        let dir = scratch("torn");
        let mut store = ProfileStore::new(Some(dir.clone()), 8).unwrap();
        for i in 0..3 {
            store.push_shard("ring", "v1", shard(i + 1, 40 + i));
        }
        assert_eq!(store.snapshot().unwrap(), 1);
        let snapshot = dir.join("ring/v1.json");
        let text = std::fs::read(&snapshot).unwrap();
        assert!(
            !dir.join("ring/v1.json.tmp").exists(),
            "renamed, not copied"
        );
        let mut good = ProfileStore::new(Some(dir.clone()), 8).unwrap();
        let before = good.report("ring", "v1").unwrap();

        // Killed while writing the next snapshot: half a document beside the good
        // one, and the start of another key's first.
        std::fs::write(dir.join("ring/v1.json.tmp"), &text[..text.len() / 2]).unwrap();
        std::fs::write(dir.join("ring/v2.json.tmp"), b"{").unwrap();
        let mut reloaded = ProfileStore::new(Some(dir.clone()), 8).unwrap();
        assert_eq!(reloaded.keys(), vec![("ring".into(), "v1".into(), 3)]);
        assert_eq!(reloaded.report("ring", "v1").unwrap(), before);
        assert!(!dir.join("ring/v1.json.tmp").exists());
        assert!(!dir.join("ring/v2.json.tmp").exists());

        // A snapshot cut short some other way is refused by name, wherever the cut
        // (every 256 bytes of this 1.3 KB document, empty file included).
        assert!(text.len() > 1024);
        for cut in (0..text.len()).step_by(256) {
            std::fs::write(&snapshot, &text[..cut]).unwrap();
            let Err(e) = ProfileStore::new(Some(dir.clone()), 8) else {
                panic!("a snapshot cut at byte {cut} was accepted");
            };
            assert!(e.contains("ring/v1.json") && !e.contains('\n'), "{e}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_snapshot_that_cannot_be_written_leaves_no_tmp_and_names_it() {
        let dir = scratch("unwritable");
        let mut store = ProfileStore::new(Some(dir.clone()), 8).unwrap();
        store.push_shard("ring", "v1", shard(1, 40));
        // A directory where the snapshot goes: the write succeeds, the rename cannot.
        std::fs::create_dir_all(dir.join("ring/v1.json")).unwrap();
        let e = store.snapshot().unwrap_err();
        assert!(e.contains("ring/v1.json via ") && e.contains("ring/v1.json.tmp"));
        assert!(!e.contains('\n'), "{e}");
        assert!(!dir.join("ring/v1.json.tmp").exists());
        assert_eq!(store.dirty("ring", "v1"), 1, "still to be written");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_report_is_kept_until_the_next_push_to_its_key() {
        let mut store = ProfileStore::new(None, 8).unwrap();
        store.push_shard("ring", "v1", shard(1, 40));
        store.push_shard("ring", "v2", shard(1, 80));
        let first = store.report("ring", "v1").unwrap();
        assert!(Arc::ptr_eq(&first, &store.report("ring", "v1").unwrap()));

        store.push_shard("ring", "v2", shard(2, 80));
        assert!(
            Arc::ptr_eq(&first, &store.report("ring", "v1").unwrap()),
            "a push to another key must not drop this one's report"
        );

        store.push_shard("ring", "v1", shard(2, 41));
        let second = store.report("ring", "v1").unwrap();
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(first.data_profile[0].l1_miss_samples, 40);
        assert_eq!(second.data_profile[0].l1_miss_samples, 81);
        assert!(store.report("ring", "v3").is_none());
    }

    #[test]
    fn compaction_and_snapshots_leave_the_answer_a_fresh_store_gives() {
        let dir = scratch("cache");
        let mut store = ProfileStore::new(Some(dir.clone()), 4).unwrap();
        let fresh = |pushes: u64| {
            let mut fresh = ProfileStore::new(None, 4).unwrap();
            for i in 0..pushes {
                fresh.push_shard("w", "b", shard(i + 1, 10 + i));
            }
            fresh.report("w", "b").unwrap()
        };
        for i in 0..3 {
            store.push_shard("w", "b", shard(i + 1, 10 + i));
        }
        assert_eq!(store.report("w", "b").unwrap(), fresh(3));
        // The fourth push compacts the sink; the report held from before must not
        // outlive it.
        store.push_shard("w", "b", shard(4, 13));
        assert_eq!(store.stats().shards_resident, 1);
        assert_eq!(store.report("w", "b").unwrap(), fresh(4));
        // A snapshot leaves the shard set, and so the report, as it is.
        assert_eq!(store.snapshot().unwrap(), 1);
        assert_eq!(store.report("w", "b").unwrap(), fresh(4));
        // A reloaded store starts with nothing kept.
        let mut reloaded = ProfileStore::new(Some(dir.clone()), 4).unwrap();
        assert_eq!(
            reloaded.report("w", "b").unwrap().data_profile,
            fresh(4).data_profile
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_push_below_a_shard_already_read_refolds_and_reads_what_ascending_pushes_do() {
        let store = |ids: [u64; 4], read: bool| {
            let mut store = ProfileStore::new(None, 8).unwrap();
            for id in ids {
                store.push_shard("w", "b", shard(id, 10 + id));
                if read {
                    store.report("w", "b").unwrap();
                }
            }
            store
        };
        let debug = |store: &mut ProfileStore| format!("{:?}", store.report("w", "b").unwrap());
        let mut ascending = store([1, 2, 3, 4], true);
        assert_eq!(ascending.stats().fold_rebuilds, 0);
        let answer = debug(&mut ascending);
        // Shard 3 sorts below shard 4, which the read after its push summed.
        let mut late = store([1, 2, 4, 3], true);
        assert_eq!(late.stats().fold_rebuilds, 1);
        assert_eq!(debug(&mut late), answer);
        // Unread, shard 4 is not summed yet: shard 3 goes before it for nothing.
        let mut unread = store([1, 2, 4, 3], false);
        assert_eq!(unread.stats().fold_rebuilds, 0);
        assert_eq!(debug(&mut unread), answer);
    }

    #[test]
    fn memory_stays_bounded_by_compaction() {
        let mut store = ProfileStore::new(None, 4).unwrap();
        for i in 0..100 {
            store.push_shard("w", "b", shard(i + 1, 10));
        }
        let stats = store.stats();
        assert_eq!(stats.shards_absorbed, 100);
        assert!(
            stats.shards_resident <= 4,
            "resident {} exceeds threshold",
            stats.shards_resident
        );
        let report = store.report("w", "b").unwrap();
        assert_eq!(report.data_profile[0].l1_miss_samples, 1000);
    }

    const BUILDS: [&str; 3] = ["v1", "v2", "v3"];

    proptest::proptest! {
        /// Pushes, reads and snapshots in any interleaving: every read equals what a
        /// sink that is folded afresh for each read, and never snapshotted, gives.
        #[test]
        fn any_interleaving_reads_what_a_fresh_fold_would(
            threshold in 2usize..6,
            ops in proptest::collection::vec((0usize..4, 0usize..3, 1u64..50), 1..60),
        ) {
            let dir = scratch("interleave");
            let mut store = ProfileStore::new(Some(dir.clone()), threshold).unwrap();
            let mut uncached: Vec<StreamingMerge> = BUILDS
                .iter()
                .map(|_| StreamingMerge::with_compact_threshold(threshold))
                .collect();
            let check = |store: &mut ProfileStore, uncached: &[StreamingMerge], key: usize| {
                let read = store.report("w", BUILDS[key]);
                if uncached[key].absorbed() == 0 {
                    assert!(read.is_none());
                } else {
                    assert_eq!(*read.unwrap(), uncached[key].finish());
                }
            };
            for (ordinal, (op, key, misses)) in ops.into_iter().enumerate() {
                match op {
                    0 | 1 => {
                        let shard = shard(ordinal as u64 + 1, misses);
                        uncached[key].absorb(shard.clone());
                        store.push_shard("w", BUILDS[key], shard);
                    }
                    2 => check(&mut store, &uncached, key),
                    _ => {
                        store.snapshot().unwrap();
                    }
                }
            }
            for key in 0..BUILDS.len() {
                check(&mut store, &uncached, key);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
