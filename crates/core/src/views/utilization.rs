//! The line-utilization view (the fifth view, beyond the thesis's four): data types
//! ranked by the bandwidth they waste on fetched-but-never-touched bytes.
//!
//! The miss-share views localize *where* misses land; this view says *how much of each
//! fetched line is ever used* before eviction — the signal that exposes sparse-struct
//! waste and hot/cold field mixing, where a type's miss count looks unremarkable but
//! every one of its fetches drags in a line of mostly dead bytes.  Three metrics per
//! type, derived from the machine's per-residency granule tally
//! ([`sim_cache::UtilizationTally`]):
//!
//! * **line utilization %** — of the 8-byte granule-slots the type's fetches brought
//!   in, the share that was touched at least once before eviction,
//! * **wasted bytes (and bytes/s)** — the untouched remainder, i.e. interconnect and
//!   DRAM bandwidth spent moving dead bytes,
//! * **re-fetch ratio** — the share of the type's fetched slots on lines the core had
//!   already fetched before: traffic re-reading evicted-then-reused data.
//!
//! Granules are attributed to types through the allocator's address set with the same
//! live-then-historical rule as every other view, and additionally to an *allocation
//! origin* (the core whose slab the object came from), so a row can show which CPU's
//! allocations produce the waste.
//!
//! The view emits the shard's own rows ([`ShardUtilizationRow`]): counts, plus the
//! bytes/s rate that needs the window's length.  The ratios are the row's methods; the
//! Wilson interval and the rank mark are derived once, from pooled counts, when
//! `merge` ranks the folded rows.

use crate::merge::{ShardUtilization, ShardUtilizationOrigin, ShardUtilizationRow};
use sim_cache::UtilizationTally;
use sim_kernel::{AllocRecord, SlabAllocator, TypeId, TypeRegistry};
use std::collections::HashMap;

/// Which `(type, origin core)` covers each 8-byte granule of the given lines: entry
/// `i * (line_size / 8) + g` is granule `g` of `lines[i]`.  `lines` must be sorted.
///
/// One pass over the allocation log in record order, so later records overwrite
/// earlier ones; each record binary-searches the first line it can reach and writes
/// only the granules it covers.
pub(crate) fn resolve_granules(
    lines: &[u64],
    records: &[AllocRecord],
    line_size: u64,
) -> Vec<Option<(TypeId, usize)>> {
    let granules_per_line = (line_size / 8) as usize;
    let mut owners = vec![None; lines.len() * granules_per_line];
    for r in records {
        let start = r.addr() & !7;
        let end = r.end();
        let first_line = start / line_size;
        let first = lines.partition_point(|&l| l < first_line);
        for (i, &line) in lines.iter().enumerate().skip(first) {
            let base = line * line_size;
            if base >= end {
                break;
            }
            let from = ((start.max(base) - base) / 8) as usize;
            let to = (end.min(base + line_size) - base).div_ceil(8) as usize;
            owners[i * granules_per_line..][from..to].fill(Some((r.type_id(), r.alloc_core())));
        }
    }
    owners
}

/// Builds the utilization view from a line tally, attributing each 8-byte granule of
/// every fetched line to the type (and allocation origin) whose allocation most
/// recently covered it — the identical live-then-historical rule the other views use.
/// Rows are sorted by wasted bytes (descending; name breaks ties), origins likewise.
pub fn build_utilization(
    tally: &UtilizationTally,
    allocator: &SlabAllocator,
    registry: &TypeRegistry,
    line_size: u64,
    window_cycles: u64,
    cycles_per_second: u64,
) -> ShardUtilization {
    let granules_per_line = (line_size / 8) as usize;
    let tallied = tally.snapshot(); // sorted by line
    let lines: Vec<u64> = tallied.iter().map(|&(line, _)| line).collect();
    let owners = resolve_granules(&lines, allocator.address_set(), line_size);

    #[derive(Default)]
    struct Acc {
        slots_fetched: u64,
        slots_touched: u64,
        refetch_slots: u64,
        origins: HashMap<usize, (u64, u64)>, // core -> (fetched, touched)
    }
    let mut acc: HashMap<TypeId, Acc> = HashMap::new();
    let mut resolved_slots_fetched = 0u64;
    let mut resolved_slots_touched = 0u64;
    for ((_, counts), owners) in tallied.iter().zip(owners.chunks(granules_per_line)) {
        for (g, owner) in owners.iter().enumerate() {
            let Some((ty, core)) = *owner else {
                continue;
            };
            let touched = counts.touched[g];
            let a = acc.entry(ty).or_default();
            a.slots_fetched += counts.fetches;
            a.slots_touched += touched;
            a.refetch_slots += counts.refetches;
            let o = a.origins.entry(core).or_default();
            o.0 += counts.fetches;
            o.1 += touched;
            resolved_slots_fetched += counts.fetches;
            resolved_slots_touched += touched;
        }
    }

    let mut rows: Vec<ShardUtilizationRow> = acc
        .into_iter()
        .map(|(ty, a)| {
            let info = registry.info(ty);
            let mut origins: Vec<ShardUtilizationOrigin> = a
                .origins
                .into_iter()
                .map(|(core, (fetched, touched))| ShardUtilizationOrigin {
                    origin: AllocRecord::origin_label_for(core).into(),
                    slots_fetched: fetched,
                    slots_touched: touched,
                })
                .collect();
            origins.sort_by(|x, y| {
                y.wasted_bytes()
                    .cmp(&x.wasted_bytes())
                    .then_with(|| x.origin.cmp(&y.origin))
            });
            let mut row = ShardUtilizationRow {
                name: info.name.as_str().into(),
                description: info.description.as_str().into(),
                slots_fetched: a.slots_fetched,
                slots_touched: a.slots_touched,
                refetch_slots: a.refetch_slots,
                wasted_bytes_per_sec: 0.0,
                origins,
            };
            if window_cycles > 0 {
                row.wasted_bytes_per_sec =
                    row.wasted_bytes() as f64 * cycles_per_second as f64 / window_cycles as f64;
            }
            row
        })
        .collect();
    // Name tie-break for cross-process determinism (see build_data_profile).
    rows.sort_by(|a, b| {
        b.wasted_bytes()
            .cmp(&a.wasted_bytes())
            .then_with(|| a.name.cmp(&b.name))
    });

    ShardUtilization {
        rows,
        total_fetches: tally.total_fetches,
        total_refetches: tally.total_refetches,
        resolved_slots_fetched,
        resolved_slots_touched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_kernel::KernelTypes;
    use sim_machine::{Machine, MachineConfig};

    fn setup() -> (Machine, TypeRegistry, SlabAllocator, KernelTypes) {
        let mut m = Machine::new(MachineConfig::small_test());
        let mut reg = TypeRegistry::new();
        let kt = KernelTypes::register(&mut reg);
        let cores = m.cores();
        let alloc = SlabAllocator::new(&mut m, &mut reg, cores);
        (m, reg, alloc, kt)
    }

    #[test]
    fn attributes_granules_and_ranks_by_wasted_bytes() {
        let (mut m, reg, mut alloc, kt) = setup();
        let skb = alloc.alloc(&mut m, &reg, 0, kt.skbuff); // 256 B, line-aligned slabs
        let sock = alloc.alloc(&mut m, &reg, 1, kt.udp_sock);

        let mut t = UtilizationTally::new();
        // skbuff: two lines fetched, one granule touched each => 7/8 wasted per line.
        t.record_chunk(0, skb / 64, 0b1, true, true);
        t.record_chunk(0, skb / 64 + 1, 0b1, true, true);
        // udp_sock: one line fetched, all granules touched => nothing wasted.
        t.record_chunk(1, sock / 64, 0xff, true, true);
        t.finalize();

        let p = build_utilization(&t, &alloc, &reg, 64, 1_000, 1_000_000);
        assert_eq!(p.total_fetches, 3);
        assert_eq!(&*p.rows[0].name, "skbuff");
        assert_eq!(p.rows[0].slots_fetched, 16);
        assert_eq!(p.rows[0].slots_touched, 2);
        assert_eq!(p.rows[0].wasted_bytes(), 112);
        assert!((p.rows[0].utilization_pct() - 12.5).abs() < 1e-9);
        // bytes/s = 112 * 1e6 / 1e3
        assert!((p.rows[0].wasted_bytes_per_sec - 112_000.0).abs() < 1e-6);
        let sock_row = &p.rows[1];
        assert_eq!(&*sock_row.name, "udp-sock");
        assert_eq!(sock_row.wasted_bytes(), 0);
        assert!((sock_row.utilization_pct() - 100.0).abs() < 1e-9);
        // Origin attribution: skbuff was allocated from core 0's slab.
        assert_eq!(p.rows[0].origins.len(), 1);
        assert_eq!(&*p.rows[0].origins[0].origin, "cpu0");
        assert_eq!(&*sock_row.origins[0].origin, "cpu1");
    }

    #[test]
    fn refetch_ratio_counts_refetched_slots() {
        let (mut m, reg, mut alloc, kt) = setup();
        let skb = alloc.alloc(&mut m, &reg, 0, kt.skbuff);
        let mut t = UtilizationTally::new();
        t.record_chunk(0, skb / 64, 0b1, true, true);
        t.record_chunk(0, skb / 64, 0b1, true, true); // re-fetch
        t.finalize();
        let p = build_utilization(&t, &alloc, &reg, 64, 100, 100);
        let row = &p.rows[0];
        assert_eq!(row.refetch_slots, 8);
        assert!((row.refetch_ratio() - 0.5).abs() < 1e-9);
        assert_eq!(p.total_refetches, 1);
    }

    #[test]
    fn unresolved_lines_count_only_in_totals() {
        let (_m, reg, alloc, _kt) = setup();
        let mut t = UtilizationTally::new();
        t.record_chunk(0, 0xdead_beef, 0b1, true, true);
        t.finalize();
        let p = build_utilization(&t, &alloc, &reg, 64, 100, 100);
        assert!(p.rows.is_empty());
        assert_eq!(p.total_fetches, 1);
        assert_eq!(p.resolved_slots_fetched, 0);
    }

    /// The per-granule resolution `build_utilization` used before it was inverted:
    /// every granule of every record is looked up in a map of the tallied granules.
    fn resolve_granules_oracle(
        lines: &[u64],
        records: &[AllocRecord],
        line_size: u64,
    ) -> Vec<Option<(TypeId, usize)>> {
        let granules = |&l: &u64| (0..line_size / 8).map(move |g| l * line_size + 8 * g);
        let mut tallied: HashMap<u64, Option<(TypeId, usize)>> =
            lines.iter().flat_map(granules).map(|g| (g, None)).collect();
        for r in records {
            let mut g = r.addr() & !7;
            while g < r.end() {
                if let Some(slot) = tallied.get_mut(&g) {
                    *slot = Some((r.type_id(), r.alloc_core()));
                }
                g += 8;
            }
        }
        lines
            .iter()
            .flat_map(granules)
            .map(|g| tallied[&g])
            .collect()
    }

    #[test]
    fn granule_resolution_matches_per_granule_oracle() {
        // Allocation logs over a 64-line arena: a few slot addresses reused again and
        // again by different types, objects at odd offsets that overlap their
        // neighbours partially, sizes from one byte to five lines; and tallies that
        // cover some of those lines, none of them, or lines outside the arena.
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % bound
        };
        const ARENA: u64 = 0x1_0000;
        for case in 0..200 {
            let slots: Vec<u64> = (0..6).map(|_| ARENA + next(64 * 64)).collect();
            let records: Vec<AllocRecord> = (0..next(40))
                .map(|i| {
                    let addr = if next(3) == 0 {
                        slots[next(6) as usize]
                    } else {
                        ARENA + next(64 * 64)
                    };
                    let type_id = TypeId(next(5) as u32);
                    let size = match next(4) {
                        0 => 0,
                        1 => 1 + next(16),
                        _ => 1 + next(320),
                    };
                    AllocRecord::new(addr, type_id, size, next(4) as usize, i, None)
                })
                .collect();
            // Cache lines, and the one-granule lines ground truth resolves.
            for line_size in [64, 8] {
                let arena_lines = 64 * 64 / line_size;
                let mut lines: Vec<u64> = (0..next(24 * 64 / line_size))
                    .map(|_| ARENA / line_size - 4 + next(arena_lines + 16))
                    .collect();
                lines.sort_unstable();
                lines.dedup();
                assert_eq!(
                    resolve_granules(&lines, &records, line_size),
                    resolve_granules_oracle(&lines, &records, line_size),
                    "case {case}, line size {line_size}: lines {lines:x?}, records {records:x?}"
                );
            }
        }
    }

    #[test]
    fn empty_tally_gives_default_profile() {
        let (_m, reg, alloc, _kt) = setup();
        let t = UtilizationTally::new();
        let p = build_utilization(&t, &alloc, &reg, 64, 0, 100);
        assert_eq!(p, ShardUtilization::default());
    }
}
