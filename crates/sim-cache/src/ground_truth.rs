//! Exact ground-truth access/miss tallying.
//!
//! IBS-style sampling only ever sees a rate-limited subset of the access stream; the
//! simulator, unlike real hardware, can afford to count *every* access.  When a
//! [`GroundTruthTally`] is attached to a machine, each memory operation contributes one
//! tally entry keyed by its 8-byte-aligned start address — the same address and the
//! same worst-line outcome an IBS sample of that operation would have reported, so the
//! sampled profile is statistically a subsample of exactly this population.
//!
//! The tally is address-granular on purpose: the cache simulator knows nothing about
//! data types.  `dprof-core` resolves the granules through the kernel allocator's
//! address set after the phase ends (the same live-then-historical resolution applied
//! to IBS samples) to obtain exact per-type miss counts, which the accuracy harness
//! (`dprof accuracy`) compares against the sampled profile.

use crate::hierarchy::{AccessKind, HitLevel};
use crate::line_table::BuildMixHasher;
use crate::{CoreId, CoreMask, LineAddr};
use serde::{Deserialize, Serialize};

/// The tallies are probed on every access while profiling is on, so their tables hash
/// with [`crate::line_table::MixHasher`], not SipHash.
type MixMap<K, V> = std::collections::HashMap<K, V, BuildMixHasher>;

/// Exact counters for one 8-byte granule of the address space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GranuleCounts {
    /// Memory operations whose start address fell in the granule.
    pub accesses: u64,
    /// Of those, operations whose worst line missed the local L1.
    pub l1_misses: u64,
    /// Total worst-line latency cycles of the L1-missing operations.
    pub miss_cycles: u64,
    /// Operations satisfied by a foreign core's cache (the bounce signal).
    pub remote_fetches: u64,
    /// Write operations.
    pub writes: u64,
}

/// An exact per-granule tally of every memory operation issued while attached.
#[derive(Debug, Clone, Default)]
pub struct GroundTruthTally {
    granules: MixMap<u64, GranuleCounts>,
    /// Total operations tallied (hits included).
    pub total_accesses: u64,
    /// Total operations that missed the local L1.
    pub total_l1_misses: u64,
    /// Exact per-line utilization tally (every fetch counted), fed alongside the
    /// granule counts by the machine's per-line-chunk hook.
    pub utilization: UtilizationTally,
}

/// The maximum number of 8-byte granules per cache line the utilization tally can
/// track (a `u8` bitmask per open residency; 64-byte lines have exactly 8).
pub const MAX_GRANULES_PER_LINE: usize = 8;

/// Per-line utilization counters, accumulated over *residencies*: the interval from
/// one private-hierarchy fill of the line (an access the local L1/L2 could not
/// satisfy) to the next fill on the same core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineUtilCounts {
    /// Counted fills of the line from beyond the private caches (L3 / foreign cache /
    /// DRAM).  For a sampled tally this counts only the residencies the sampler
    /// elected to follow.
    pub fetches: u64,
    /// Of the counted fills, those re-fetching a line this core had already fetched
    /// before — traffic spent re-reading evicted-then-reused data.
    pub refetches: u64,
    /// Per-granule touch counts: `touched[i]` is the number of counted residencies
    /// during which granule `i` was accessed at least once.  Each entry is at most
    /// `fetches`.
    pub touched: [u64; MAX_GRANULES_PER_LINE],
}

impl Default for LineUtilCounts {
    fn default() -> Self {
        LineUtilCounts {
            fetches: 0,
            refetches: 0,
            touched: [0; MAX_GRANULES_PER_LINE],
        }
    }
}

impl LineUtilCounts {
    /// Total touched granule-slots over all counted residencies.
    pub fn touched_slots(&self) -> u64 {
        self.touched.iter().sum()
    }
}

/// The granule bitmask a line-chunk access covers: bit `i` set when the chunk
/// overlaps granule `i` of its cache line.  `addr`/`len` must not cross a line
/// boundary of `line_size` bytes.
#[inline]
pub fn granule_mask(addr: u64, len: u64, line_size: u64) -> u8 {
    debug_assert!(len > 0);
    let base = addr & !(line_size - 1);
    let first = (addr - base) / 8;
    let last = (addr + len - 1 - base) / 8;
    debug_assert!(last < MAX_GRANULES_PER_LINE as u64);
    let mut mask = 0u8;
    for g in first..=last {
        mask |= 1 << g;
    }
    mask
}

/// A per-line tally of cache-line utilization: which 8-byte granules of each fetched
/// line are touched during its residency in the private caches, and how often a fill
/// is a *re-fetch* of a line the core had already pulled in before.
///
/// A residency is opened when an access misses the private hierarchy (the line is
/// filled from L3, a foreign cache or DRAM) and closed by the next such fill on the
/// same core — in the inclusive simulated hierarchy a second fill implies the line
/// left the private caches in between.  Touches (hits at any level) accumulate into
/// the open residency; closing one commits its touch bitmask to the per-line
/// [`LineUtilCounts`].
///
/// The same structure serves two roles: the *exact* tally inside
/// [`GroundTruthTally`] counts every fill, while the machine's standalone sampled
/// tally opens residencies only for fills the IBS sampler observed (touches still
/// accumulate exactly, so each counted residency is measured precisely — fill
/// sampling, not touch sampling).
///
/// It is fed every line-chunk of every operation, so it costs what it follows: a hit
/// reads one bit of a per-core guard and goes to the `open` table only when that core
/// may have an open residency on the line; a fill does one table operation (the
/// line's mask of cores that filled it) and touches `open`/`lines` only when it is
/// counted or the guard says there may be a residency to close.
#[derive(Debug, Clone, Default)]
pub struct UtilizationTally {
    lines: MixMap<LineAddr, LineUtilCounts>,
    /// Open residencies: the touch bitmask accumulated since the counted fill.
    open: MixMap<(CoreId, LineAddr), u8>,
    /// Per core, [`GUARD_BITS`] bits indexed by [`guard_slot`] of a line address: set
    /// when the core opens a residency on such a line and never cleared, so a clear
    /// bit proves `open` holds nothing for `(core, line)`.
    guard: Vec<[u64; GUARD_WORDS]>,
    /// Per line, the cores that ever filled it (counted or not), for re-fetch
    /// detection.
    filled_by: MixMap<LineAddr, CoreMask>,
    /// Total counted fills.
    pub total_fetches: u64,
    /// Of the counted fills, re-fetches of previously fetched lines.
    pub total_refetches: u64,
}

/// Width of the per-core open-residency guard, in bits (128 bytes a core).
const GUARD_BITS: usize = 1024;
const GUARD_WORDS: usize = GUARD_BITS / 64;

/// The guard bit of a line, as `(word, bit mask)`.  The top bits of a multiplicative
/// hash, not the low bits of the address: the hot field of every object of one slab
/// sits at the same offset, so such lines differ by a multiple of the object size.
#[inline]
fn guard_slot(line: LineAddr) -> (usize, u64) {
    let slot = (line.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - GUARD_BITS.ilog2())) as usize;
    (slot / 64, 1 << (slot % 64))
}

impl UtilizationTally {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// False only if `core` has no open residency on `line`.
    #[inline]
    fn may_be_open(&self, core: CoreId, line: LineAddr) -> bool {
        let (word, bit) = guard_slot(line);
        self.guard.get(core).is_some_and(|g| g[word] & bit != 0)
    }

    /// Records one line-chunk of a memory operation.
    ///
    /// `mask` is the chunk's granule bitmask (see [`granule_mask`]); `is_fetch` is
    /// true when the chunk missed the private caches; `count` is false when a sampled
    /// tally elects not to follow this fill (the fill still closes any open residency
    /// — the line factually left the cache — it just does not open a new one).
    #[inline]
    pub fn record_chunk(
        &mut self,
        core: CoreId,
        line: LineAddr,
        mask: u8,
        is_fetch: bool,
        count: bool,
    ) {
        debug_assert!(mask != 0, "a chunk touches at least one granule");
        if !is_fetch {
            if self.may_be_open(core, line) {
                if let Some(open_mask) = self.open.get_mut(&(core, line)) {
                    *open_mask |= mask;
                }
            }
            return;
        }
        if self.may_be_open(core, line) {
            if let Some(open_mask) = self.open.remove(&(core, line)) {
                self.close(line, open_mask);
            }
        }
        let filled_by = self.filled_by.entry(line).or_default();
        let bit = (1 as CoreMask) << core;
        let seen_before = *filled_by & bit != 0;
        *filled_by |= bit;
        if count {
            let counts = self.lines.entry(line).or_default();
            counts.fetches += 1;
            self.total_fetches += 1;
            if seen_before {
                counts.refetches += 1;
                self.total_refetches += 1;
            }
            self.open.insert((core, line), mask);
            if core >= self.guard.len() {
                self.guard.resize(core + 1, [0; GUARD_WORDS]);
            }
            let (word, bit) = guard_slot(line);
            self.guard[core][word] |= bit;
        }
    }

    /// Commits a closed residency's touch bitmask to the per-line counters.
    fn close(&mut self, line: LineAddr, mask: u8) {
        let counts = self.lines.entry(line).or_default();
        for g in 0..MAX_GRANULES_PER_LINE {
            if mask & (1 << g) != 0 {
                counts.touched[g] += 1;
            }
        }
    }

    /// Closes every still-open residency, committing its touches.  Call once when
    /// detaching the tally; afterwards the per-line counters are consistent (every
    /// counted fill has contributed exactly one residency).
    pub fn finalize(&mut self) {
        let open: Vec<(LineAddr, u8)> = {
            let mut v: Vec<_> = self
                .open
                .drain()
                .map(|((_, line), mask)| (line, mask))
                .collect();
            v.sort_unstable();
            v
        };
        for (line, mask) in open {
            self.close(line, mask);
        }
    }

    /// Number of distinct lines with counted fills.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True if no fill was ever counted.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Iterates over `(line_addr, counts)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &LineUtilCounts)> {
        self.lines.iter().map(|(&l, c)| (l, c))
    }

    /// The per-line counters in line-address order (a canonical snapshot, used by the
    /// determinism tests to compare two runs byte for byte).
    pub fn snapshot(&self) -> Vec<(LineAddr, LineUtilCounts)> {
        let mut v: Vec<(LineAddr, LineUtilCounts)> =
            self.lines.iter().map(|(&l, &c)| (l, c)).collect();
        v.sort_unstable_by_key(|&(l, _)| l);
        v
    }
}

impl GroundTruthTally {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed memory operation: `addr` is the operation's start
    /// address, `level`/`latency` its worst-line outcome (what IBS would report).
    #[inline]
    pub fn record(&mut self, addr: u64, kind: AccessKind, level: HitLevel, latency: u64) {
        let g = self.granules.entry(addr & !7).or_default();
        g.accesses += 1;
        self.total_accesses += 1;
        if level != HitLevel::L1 {
            g.l1_misses += 1;
            g.miss_cycles += latency;
            self.total_l1_misses += 1;
        }
        if level == HitLevel::RemoteCache {
            g.remote_fetches += 1;
        }
        if kind.is_write() {
            g.writes += 1;
        }
    }

    /// Number of distinct granules touched.
    pub fn len(&self) -> usize {
        self.granules.len()
    }

    /// True if nothing was tallied.
    pub fn is_empty(&self) -> bool {
        self.granules.is_empty()
    }

    /// Iterates over `(granule_start_addr, counts)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &GranuleCounts)> {
        self.granules.iter().map(|(&a, c)| (a, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    /// What [`UtilizationTally`] must compute, written the obvious way: a table
    /// operation or two on every chunk.
    #[derive(Default)]
    struct NaiveTally {
        lines: HashMap<LineAddr, LineUtilCounts>,
        open: HashMap<(CoreId, LineAddr), u8>,
        seen: HashSet<(CoreId, LineAddr)>,
        refetches: u64,
    }

    impl NaiveTally {
        fn record_chunk(
            &mut self,
            core: CoreId,
            line: LineAddr,
            mask: u8,
            fetch: bool,
            count: bool,
        ) {
            if !fetch {
                if let Some(open_mask) = self.open.get_mut(&(core, line)) {
                    *open_mask |= mask;
                }
                return;
            }
            if let Some(open_mask) = self.open.remove(&(core, line)) {
                self.close(line, open_mask);
            }
            let seen_before = !self.seen.insert((core, line));
            if count {
                let counts = self.lines.entry(line).or_default();
                counts.fetches += 1;
                counts.refetches += u64::from(seen_before);
                self.refetches += u64::from(seen_before);
                self.open.insert((core, line), mask);
            }
        }

        fn close(&mut self, line: LineAddr, mask: u8) {
            let counts = self
                .lines
                .get_mut(&line)
                .expect("an open residency was counted");
            for g in (0..MAX_GRANULES_PER_LINE).filter(|g| mask & (1 << g) != 0) {
                counts.touched[g] += 1;
            }
        }

        fn finalize(&mut self) {
            for ((_, line), mask) in std::mem::take(&mut self.open) {
                self.close(line, mask);
            }
        }
    }

    /// A few neighbouring lines, and for the first of them three more that share its
    /// guard bit: a residency open on one makes the guard pass hits and fills on the
    /// others through to `open`, which must then find nothing.
    fn line_pool() -> Vec<LineAddr> {
        let colliding = (0x2000u64..).filter(|&l| guard_slot(l) == guard_slot(0x1000));
        (0x1000..0x1006).chain(colliding.take(3)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn tally_equals_the_naive_model(
            chunks in proptest::collection::vec(
                ((0usize..8, 0usize..9), 1u16..256, (0u8..12, any::<bool>())),
                1..400,
            ),
        ) {
            let pool = line_pool();
            // Cores as the machine numbers them, then some far above any seen before.
            let cores = [0, 1, 2, 3, 3, 17, 64, 127];
            let (mut tally, mut model) = (UtilizationTally::new(), NaiveTally::default());
            for ((core, line), mask, (kind, count)) in chunks {
                let (core, line, mask) = (cores[core], pool[line], mask as u8);
                match kind {
                    // Detach-time flush in mid-stream: what follows starts from no
                    // open residency but remembers every fill.
                    0 => {
                        tally.finalize();
                        model.finalize();
                    }
                    // Fills, followed or not: an unfollowed one closes what is open.
                    1..=4 => {
                        tally.record_chunk(core, line, mask, true, count);
                        model.record_chunk(core, line, mask, true, count);
                    }
                    _ => {
                        tally.record_chunk(core, line, mask, false, count);
                        model.record_chunk(core, line, mask, false, count);
                    }
                }
            }
            tally.finalize();
            model.finalize();
            let mut expected: Vec<_> = model.lines.iter().map(|(&l, &c)| (l, c)).collect();
            expected.sort_unstable_by_key(|&(l, _)| l);
            prop_assert_eq!(tally.snapshot(), expected);
            let fetches: u64 = model.lines.values().map(|c| c.fetches).sum();
            prop_assert_eq!(tally.total_fetches, fetches);
            prop_assert_eq!(tally.total_refetches, model.refetches);
        }
    }

    #[test]
    fn tally_accumulates_per_granule() {
        let mut t = GroundTruthTally::new();
        t.record(0x1000, AccessKind::Read, HitLevel::L1, 3);
        t.record(0x1004, AccessKind::Write, HitLevel::Dram, 250); // same granule
        t.record(0x1008, AccessKind::Read, HitLevel::RemoteCache, 200);
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_accesses, 3);
        assert_eq!(t.total_l1_misses, 2);
        let g0 = t.iter().find(|(a, _)| *a == 0x1000).unwrap().1;
        assert_eq!(g0.accesses, 2);
        assert_eq!(g0.l1_misses, 1);
        assert_eq!(g0.miss_cycles, 250);
        assert_eq!(g0.writes, 1);
        assert_eq!(g0.remote_fetches, 0);
        let g1 = t.iter().find(|(a, _)| *a == 0x1008).unwrap().1;
        assert_eq!(g1.remote_fetches, 1);
    }

    #[test]
    fn empty_tally_reports_empty() {
        let t = GroundTruthTally::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.total_accesses, 0);
        assert!(t.utilization.is_empty());
    }

    #[test]
    fn granule_mask_covers_chunk_extent() {
        assert_eq!(granule_mask(0x1000, 8, 64), 0b0000_0001);
        assert_eq!(granule_mask(0x1000, 1, 64), 0b0000_0001);
        assert_eq!(granule_mask(0x1008, 8, 64), 0b0000_0010);
        assert_eq!(granule_mask(0x1000, 64, 64), 0b1111_1111);
        assert_eq!(granule_mask(0x1004, 8, 64), 0b0000_0011); // straddles granules 0-1
        assert_eq!(granule_mask(0x1038, 8, 64), 0b1000_0000);
    }

    #[test]
    fn utilization_counts_touches_per_residency() {
        let mut t = UtilizationTally::new();
        let line = 0x40u64;
        // Fill touching granule 0, then hit granules 1 and 2 while resident.
        t.record_chunk(0, line, 0b001, true, true);
        t.record_chunk(0, line, 0b010, false, true);
        t.record_chunk(0, line, 0b100, false, true);
        // Second fill: closes the first residency (3 granules), opens another.
        t.record_chunk(0, line, 0b001, true, true);
        t.finalize();
        let counts = t.snapshot()[0].1;
        assert_eq!(counts.fetches, 2);
        assert_eq!(counts.refetches, 1);
        assert_eq!(counts.touched[0], 2);
        assert_eq!(counts.touched[1], 1);
        assert_eq!(counts.touched[2], 1);
        assert_eq!(counts.touched_slots(), 4);
        assert_eq!(t.total_fetches, 2);
        assert_eq!(t.total_refetches, 1);
    }

    #[test]
    fn refetch_requires_same_core() {
        let mut t = UtilizationTally::new();
        let line = 0x80u64;
        t.record_chunk(0, line, 0b001, true, true);
        t.record_chunk(1, line, 0b001, true, true); // other core's first fill
        t.finalize();
        assert_eq!(t.total_fetches, 2);
        assert_eq!(t.total_refetches, 0);
        t.record_chunk(0, line, 0b001, true, true);
        t.finalize();
        assert_eq!(t.total_refetches, 1);
    }

    #[test]
    fn uncounted_fill_closes_but_does_not_open() {
        let mut t = UtilizationTally::new();
        let line = 0xc0u64;
        t.record_chunk(0, line, 0b001, true, true);
        t.record_chunk(0, line, 0b010, false, true);
        // Sampler skipped this fill: the prior residency still closes...
        t.record_chunk(0, line, 0b100, true, false);
        // ...and touches in the skipped residency are dropped, not misattributed.
        t.record_chunk(0, line, 0b1000_0000, false, true);
        t.finalize();
        let counts = t.snapshot()[0].1;
        assert_eq!(counts.fetches, 1);
        assert_eq!(counts.touched[0], 1);
        assert_eq!(counts.touched[1], 1);
        assert_eq!(counts.touched[2], 0);
        assert_eq!(counts.touched[7], 0);
        // The skipped fill still marked the line seen: the next counted fill is a
        // re-fetch.
        t.record_chunk(0, line, 0b001, true, true);
        assert_eq!(t.total_refetches, 1);
    }

    #[test]
    fn finalize_flushes_open_residencies() {
        let mut t = UtilizationTally::new();
        t.record_chunk(0, 0x100, 0b011, true, true);
        // Not yet closed: touched counters still zero.
        assert_eq!(t.snapshot()[0].1.touched_slots(), 0);
        t.finalize();
        let counts = t.snapshot()[0].1;
        assert_eq!(counts.touched[0], 1);
        assert_eq!(counts.touched[1], 1);
        assert_eq!(counts.touched_slots(), 2);
    }
}
