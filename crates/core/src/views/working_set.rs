//! The working-set view (§4.2): which types occupy the cache, how many of each are live
//! at once, and how they map onto associativity sets.
//!
//! DProf generates this view by running a lightweight cache simulation over the address
//! set.  Here the equivalent is computed analytically: the address set records every
//! allocation's lifetime, so the time-weighted average footprint of each type and the
//! distribution of live objects over associativity sets follow directly.

use crate::merge::ShardWorkingSetRow;
use serde::{Deserialize, Serialize};
use sim_cache::CacheGeometry;
use sim_kernel::{AllocRecord, TypeId, TypeRegistry};
use std::collections::{BinaryHeap, HashMap};

/// One crowded associativity set and the types occupying it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AssocSetUsage {
    /// Set index in the (per-core L2) cache.
    pub set_index: usize,
    /// Distinct cache lines that mapped to this set during the window.
    pub distinct_lines: usize,
    /// Number of distinct lines contributed by each type.
    pub types: Vec<(TypeId, usize)>,
}

/// The working-set view.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkingSetView {
    /// Per-type footprint, the shard's rows (`threads_seen: 1`), sorted by average
    /// live bytes (largest first).
    pub per_type: Vec<ShardWorkingSetRow>,
    /// Distinct lines that mapped to each associativity set during the window.
    pub assoc_histogram: Vec<usize>,
    /// Sets holding far more distinct lines than the average (candidate conflict sets),
    /// sorted by occupancy.
    pub conflict_sets: Vec<AssocSetUsage>,
    /// Associativity (ways) of the modelled cache.
    pub cache_ways: usize,
    /// Total bytes of the modelled cache.
    pub cache_capacity: u64,
}

impl WorkingSetView {
    /// Total average working set across all types, in bytes.
    pub fn total_avg_bytes(&self) -> f64 {
        self.per_type.iter().map(|t| t.avg_live_bytes).sum()
    }

    /// The working-set row for a type name, if present.
    pub fn for_type(&self, name: &str) -> Option<&ShardWorkingSetRow> {
        self.per_type.iter().find(|t| &*t.name == name)
    }

    /// True if the total working set exceeds the cache capacity (the precondition for
    /// capacity misses).
    pub fn exceeds_capacity(&self) -> bool {
        self.total_avg_bytes() > self.cache_capacity as f64
    }

    /// True if the type contributes lines to any flagged conflict set.
    pub fn type_in_conflict_set(&self, type_id: TypeId) -> bool {
        self.conflict_sets
            .iter()
            .any(|s| s.types.iter().any(|(t, _)| *t == type_id))
    }
}

/// Builds the working-set view from the address set over the cycle window
/// `[window_start, window_end)`, using `geometry` (typically the per-core L2) for the
/// associativity analysis.
pub fn build_working_set(
    address_set: &[AllocRecord],
    registry: &TypeRegistry,
    geometry: CacheGeometry,
    window_start: u64,
    window_end: u64,
) -> WorkingSetView {
    let window_end = window_end.max(window_start + 1);
    let window = (window_end - window_start) as f64;

    // Time-weighted average live bytes/objects per type.
    #[derive(Default)]
    struct Acc {
        byte_cycles: f64,
        object_cycles: f64,
        peak_bytes: u64,
        current_bytes: u64,
    }
    let mut acc: HashMap<TypeId, Acc> = HashMap::new();

    // Event sweep: a start at alloc (clamped to window), an end at free (or window end).
    // An event is `(cycle, record, is_start)`; the record has the type and the size.
    let lifetime = |r: &AllocRecord| {
        let start = r.alloc_cycle().max(window_start);
        let end = r.free_cycle().unwrap_or(window_end).min(window_end);
        (start < end).then_some((start, end))
    };
    let in_window = address_set.iter().filter(|r| lifetime(r).is_some()).count();
    let mut events: Vec<(u64, u32, bool)> = Vec::with_capacity(2 * in_window);
    for (i, r) in address_set.iter().enumerate() {
        let Some((start, end)) = lifetime(r) else {
            continue;
        };
        events.push((start, record_index(i), true));
        events.push((end, record_index(i), false));
        let a = acc.entry(r.type_id()).or_default();
        let live = (end - start) as f64;
        a.byte_cycles += live * r.size() as f64;
        a.object_cycles += live;
    }
    // Peak tracking needs ordered events, and the order of the events at one cycle
    // decides the peak: it is log order, the order a stable sort by cycle leaves them
    // in (a record's start and end are at different cycles).  Sorting by the record
    // too names that order, so the sort can be the one that works in place.
    events.sort_unstable_by_key(|&(cycle, record, _)| (cycle, record));
    for &(_, i, is_start) in &events {
        let r = &address_set[i as usize];
        let a = acc.entry(r.type_id()).or_default();
        if is_start {
            a.current_bytes += r.size();
            a.peak_bytes = a.peak_bytes.max(a.current_bytes);
        } else {
            a.current_bytes = a.current_bytes.saturating_sub(r.size());
        }
    }
    drop(events);

    let mut per_type: Vec<ShardWorkingSetRow> = acc
        .iter()
        .map(|(&ty, a)| {
            let info = registry.info(ty);
            ShardWorkingSetRow {
                name: info.name.as_str().into(),
                description: info.description.as_str().into(),
                avg_live_bytes: a.byte_cycles / window,
                avg_live_objects: a.object_cycles / window,
                peak_live_bytes: a.peak_bytes,
                threads_seen: 1,
            }
        })
        .collect();
    // Name tie-break for cross-process determinism (trace replay byte-compares reports).
    per_type.sort_by(|a, b| {
        b.avg_live_bytes
            .partial_cmp(&a.avg_live_bytes)
            .unwrap()
            .then_with(|| a.name.cmp(&b.name))
    });

    // Associativity-set histogram over the objects live at any point in the window: each
    // line one of them covers counts once, in its set.
    let mut by_base: Vec<u32> = address_set
        .iter()
        .enumerate()
        .filter(|(_, r)| {
            r.free_cycle().unwrap_or(u64::MAX) > window_start
                && r.alloc_cycle() < window_end
                && r.size() > 0
        })
        .map(|(i, _)| record_index(i))
        .collect();
    by_base.sort_unstable_by_key(|&i| address_set[i as usize].addr());
    let mut assoc_histogram = vec![0usize; geometry.sets];
    for_each_covered_line(address_set, &by_base, geometry, |line, _| {
        assoc_histogram[geometry.set_index_of_line(line)] += 1;
    });
    let avg_lines =
        assoc_histogram.iter().sum::<usize>() as f64 / assoc_histogram.len().max(1) as f64;

    // Conflict sets: more lines than the set can hold AND much more crowded than average
    // (the thesis uses a factor of 2).  A second sweep counts the types of their lines.
    let crowded: Vec<usize> = (0..geometry.sets)
        .filter(|&set| {
            let n = assoc_histogram[set];
            n > geometry.ways && (n as f64) > 2.0 * avg_lines
        })
        .collect();
    let mut counts: Vec<HashMap<TypeId, usize>> = vec![HashMap::new(); crowded.len()];
    if !crowded.is_empty() {
        for_each_covered_line(address_set, &by_base, geometry, |line, owner| {
            if let Ok(k) = crowded.binary_search(&geometry.set_index_of_line(line)) {
                *counts[k]
                    .entry(address_set[owner as usize].type_id())
                    .or_insert(0) += 1;
            }
        });
    }
    let mut conflict_sets: Vec<AssocSetUsage> = crowded
        .into_iter()
        .zip(counts)
        .map(|(set_index, counts)| {
            let mut types: Vec<(TypeId, usize)> = counts.into_iter().collect();
            types.sort_by_key(|&(ty, n)| (std::cmp::Reverse(n), ty));
            AssocSetUsage {
                set_index,
                distinct_lines: assoc_histogram[set_index],
                types,
            }
        })
        .collect();
    conflict_sets.sort_by_key(|s| (std::cmp::Reverse(s.distinct_lines), s.set_index));

    WorkingSetView {
        per_type,
        assoc_histogram,
        conflict_sets,
        cache_ways: geometry.ways,
        cache_capacity: geometry.capacity() as u64,
    }
}

/// A position in the address set, as the views keep it: four bytes.
fn record_index(i: usize) -> u32 {
    u32::try_from(i).expect("an address set of fewer than 2^32 allocations")
}

/// Calls `visit(line, owner)` once for each line covered by a record of `by_base`
/// (positions in `records`, sorted by base, none of size 0), in address order.  A
/// record covers `ceil(size / line_size)` lines from its base's, and a line's `owner`
/// is the newest record covering it: the type a map from line to type, written in log
/// order, would be left holding.
///
/// The records covering the current line sit in a max-heap of `(position, last line)`,
/// where the top is the newest; one that has stopped covering leaves when it reaches
/// the top.
fn for_each_covered_line(
    records: &[AllocRecord],
    by_base: &[u32],
    geometry: CacheGeometry,
    mut visit: impl FnMut(u64, u32),
) {
    let lines_of = |i: u32| {
        let r = &records[i as usize];
        let first = geometry.line_addr(r.addr());
        (first, first + (r.size() - 1) / geometry.line_size as u64)
    };
    let mut covering: BinaryHeap<(u32, u64)> = BinaryHeap::new();
    let mut next = by_base.iter().copied().peekable();
    let mut line = 0;
    loop {
        if covering.is_empty() {
            match next.peek() {
                Some(&i) => line = lines_of(i).0,
                None => return,
            }
        }
        while let Some(i) = next.next_if(|&i| lines_of(i).0 <= line) {
            covering.push((i, lines_of(i).1));
        }
        while covering.peek().is_some_and(|&(_, last)| last < line) {
            covering.pop();
        }
        if let Some(&(owner, _)) = covering.peek() {
            visit(line, owner);
            line += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(addr: u64, type_id: u32, size: u64, alloc: u64, free: Option<u64>) -> AllocRecord {
        AllocRecord::new(addr, TypeId(type_id), size, 0, alloc, free)
    }

    fn registry() -> TypeRegistry {
        let mut r = TypeRegistry::new();
        r.register("a", "type a", 1024); // TypeId(0)
        r.register("b", "type b", 256); // TypeId(1)
        r
    }

    /// The view as `build_working_set` computed it before it swept the log: events that
    /// carry their type and size, and one map from line to type per set, filled in log
    /// order.
    fn build_working_set_oracle(
        address_set: &[AllocRecord],
        registry: &TypeRegistry,
        geometry: CacheGeometry,
        window_start: u64,
        window_end: u64,
    ) -> WorkingSetView {
        let window_end = window_end.max(window_start + 1);
        let window = (window_end - window_start) as f64;
        #[derive(Default)]
        struct Acc {
            byte_cycles: f64,
            object_cycles: f64,
            peak_bytes: u64,
            current_bytes: u64,
        }
        let mut acc: HashMap<TypeId, Acc> = HashMap::new();
        let mut events: Vec<(u64, TypeId, i64, u64)> = Vec::new();
        for r in address_set {
            let start = r.alloc_cycle().max(window_start);
            let end = r.free_cycle().unwrap_or(window_end).min(window_end);
            if end <= start || start >= window_end {
                continue;
            }
            events.push((start, r.type_id(), 1, r.size()));
            events.push((end, r.type_id(), -1, r.size()));
            let a = acc.entry(r.type_id()).or_default();
            let live = (end - start) as f64;
            a.byte_cycles += live * r.size() as f64;
            a.object_cycles += live;
        }
        events.sort_by_key(|e| e.0);
        for (_, ty, delta, size) in &events {
            let a = acc.entry(*ty).or_default();
            if *delta > 0 {
                a.current_bytes += size;
                a.peak_bytes = a.peak_bytes.max(a.current_bytes);
            } else {
                a.current_bytes = a.current_bytes.saturating_sub(*size);
            }
        }
        let mut per_type: Vec<ShardWorkingSetRow> = acc
            .iter()
            .map(|(&ty, a)| {
                let info = registry.info(ty);
                ShardWorkingSetRow {
                    name: info.name.as_str().into(),
                    description: info.description.as_str().into(),
                    avg_live_bytes: a.byte_cycles / window,
                    avg_live_objects: a.object_cycles / window,
                    peak_live_bytes: a.peak_bytes,
                    threads_seen: 1,
                }
            })
            .collect();
        per_type.sort_by(|a, b| {
            b.avg_live_bytes
                .partial_cmp(&a.avg_live_bytes)
                .unwrap()
                .then_with(|| a.name.cmp(&b.name))
        });

        let mut per_set_lines: Vec<HashMap<u64, TypeId>> = vec![HashMap::new(); geometry.sets];
        for r in address_set {
            let end = r.free_cycle().unwrap_or(u64::MAX);
            if end <= window_start || r.alloc_cycle() >= window_end {
                continue;
            }
            let mut addr = r.addr();
            while addr < r.end() {
                let set = geometry.set_index(addr);
                per_set_lines[set].insert(geometry.line_addr(addr), r.type_id());
                addr += geometry.line_size as u64;
            }
        }
        let assoc_histogram: Vec<usize> = per_set_lines.iter().map(|m| m.len()).collect();
        let avg_lines =
            assoc_histogram.iter().sum::<usize>() as f64 / assoc_histogram.len().max(1) as f64;
        let mut conflict_sets: Vec<AssocSetUsage> = assoc_histogram
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > geometry.ways && (n as f64) > 2.0 * avg_lines)
            .map(|(set_index, &n)| {
                let mut counts: HashMap<TypeId, usize> = HashMap::new();
                for ty in per_set_lines[set_index].values() {
                    *counts.entry(*ty).or_insert(0) += 1;
                }
                let mut types: Vec<(TypeId, usize)> = counts.into_iter().collect();
                types.sort_by_key(|&(ty, n)| (std::cmp::Reverse(n), ty));
                AssocSetUsage {
                    set_index,
                    distinct_lines: n,
                    types,
                }
            })
            .collect();
        conflict_sets.sort_by_key(|s| (std::cmp::Reverse(s.distinct_lines), s.set_index));
        WorkingSetView {
            per_type,
            assoc_histogram,
            conflict_sets,
            cache_ways: geometry.ways,
            cache_capacity: geometry.capacity() as u64,
        }
    }

    #[test]
    fn the_sweep_builds_the_view_the_per_set_maps_built() {
        // Logs over a 32-line arena (some at the top of the address space): a few bases
        // reused by records of other sizes and types, before or after a free, and half
        // the records based in one set; sizes of zero bytes to fifteen lines at odd
        // offsets; frees at the window's edges, at the last cycle, or never; records
        // wholly before or after the window.  Small geometries, so that sets are
        // crowded past their ways.
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % bound
        };
        let mut reg = registry();
        for name in ["c", "d", "e"] {
            reg.register(name, "another type", 64);
        }
        let (window_start, window_end) = (100, 200);
        let mut crowded = 0;
        for case in 0..400 {
            let geometry = CacheGeometry::new(
                [16, 32, 64][next(3) as usize],
                1 + next(4) as usize,
                2 << next(3),
            );
            let line = geometry.line_size as u64;
            let stride = geometry.sets as u64 * line;
            let arena = match next(4) {
                0 => u64::MAX - 256 * line,
                _ => 0x1_0000 + next(4) * line,
            };
            let slots: Vec<u64> = (0..4).map(|_| arena + next(32 * line)).collect();
            let records: Vec<AllocRecord> = (0..next(48))
                .map(|_| {
                    let (base, size) = match next(6) {
                        0 => (slots[next(4) as usize], next(line)),
                        1 => (arena + next(32 * line), line * next(3)),
                        2 => (arena + next(32 * line), 1 + next(15 * line)),
                        // Into the arena's first set.
                        _ => (arena + next(16) * stride + next(line), 1 + next(line)),
                    };
                    let alloc = next(300);
                    let free = match next(8) {
                        0 => None,
                        1 => Some(window_start),
                        2 => Some(window_end),
                        3 => Some(u64::MAX),
                        _ => Some(alloc + next(150)),
                    };
                    AllocRecord::new(base, TypeId(next(5) as u32), size, 0, alloc, free)
                })
                .collect();
            let swept = build_working_set(&records, &reg, geometry, window_start, window_end);
            let oracle =
                build_working_set_oracle(&records, &reg, geometry, window_start, window_end);
            assert_eq!(
                format!("{swept:?}"),
                format!("{oracle:?}"),
                "case {case}: {geometry:?}, records {records:x?}"
            );
            crowded += usize::from(!swept.conflict_sets.is_empty());
        }
        assert!(crowded > 50, "only {crowded} cases had a conflict set");
    }

    #[test]
    fn average_live_bytes_time_weighted() {
        let reg = registry();
        // One object of type a live for the whole window, one of type b for half of it.
        let recs = vec![
            record(0x1000, 0, 1024, 0, None),
            record(0x2000, 1, 256, 0, Some(500)),
        ];
        let ws = build_working_set(&recs, &reg, CacheGeometry::l2_default(), 0, 1000);
        let a = ws.for_type("a").unwrap();
        let b = ws.for_type("b").unwrap();
        assert!((a.avg_live_bytes - 1024.0).abs() < 1.0);
        assert!((b.avg_live_bytes - 128.0).abs() < 1.0);
        assert!((a.avg_live_objects - 1.0).abs() < 0.01);
        assert_eq!(&*ws.per_type[0].name, "a", "largest type first");
    }

    #[test]
    fn peak_bytes_tracked() {
        let reg = registry();
        let recs = vec![
            record(0x1000, 1, 256, 0, Some(400)),
            record(0x2000, 1, 256, 100, Some(300)),
        ];
        let ws = build_working_set(&recs, &reg, CacheGeometry::l2_default(), 0, 1000);
        assert_eq!(ws.for_type("b").unwrap().peak_live_bytes, 512);
    }

    #[test]
    fn conflict_sets_detected_when_one_set_is_crowded() {
        let reg = registry();
        let geom = CacheGeometry::new(64, 4, 64); // small cache: 4 ways, 64 sets
                                                  // 32 one-line objects that all map to set 0 (stride = sets * line).
        let stride = (geom.sets * geom.line_size) as u64;
        let mut recs = Vec::new();
        for i in 0..32u64 {
            recs.push(record(0x10_0000 + i * stride, 1, 64, 0, None));
        }
        // Plus a few objects spread over other sets.
        for i in 0..8u64 {
            recs.push(record(0x20_0040 + i * 64, 0, 64, 0, None));
        }
        let ws = build_working_set(&recs, &reg, geom, 0, 1000);
        assert!(
            !ws.conflict_sets.is_empty(),
            "the crowded set must be flagged"
        );
        assert_eq!(ws.conflict_sets[0].distinct_lines, 32);
        assert!(ws.type_in_conflict_set(TypeId(1)));
        assert!(!ws.type_in_conflict_set(TypeId(0)));
    }

    #[test]
    fn capacity_detection() {
        let reg = registry();
        let geom = CacheGeometry::new(64, 2, 16); // 2 KiB cache
        let recs: Vec<AllocRecord> = (0..8)
            .map(|i| record(0x1000 + i * 1024, 0, 1024, 0, None))
            .collect();
        let ws = build_working_set(&recs, &reg, geom, 0, 100);
        assert!(ws.exceeds_capacity());
        assert!(ws.total_avg_bytes() >= 8.0 * 1024.0 - 1.0);
    }

    #[test]
    fn objects_outside_window_ignored() {
        let reg = registry();
        let recs = vec![record(0x1000, 0, 1024, 2000, Some(3000))];
        let ws = build_working_set(&recs, &reg, CacheGeometry::l2_default(), 0, 1000);
        assert!(ws.for_type("a").is_none());
    }
}
