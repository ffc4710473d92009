//! A single set-associative cache with LRU replacement, stored struct-of-arrays.
//!
//! The cache is the innermost data structure of the simulator: every memory access
//! probes two or three of them.  Lines are therefore kept as packed parallel vectors
//! (`tags` / `states` / `ranks`, ten bytes a slot) rather than `Vec<Option<CacheLine>>`:
//! a way-scan touches a dense run of eight-byte tags instead of striding over 32-byte
//! option-wrapped structs, and the invalid-slot check is a tag compare against a
//! sentinel instead of an `Option` discriminant load.
//!
//! LRU order is a one-byte *recency rank* per slot: within a set the ranks are a
//! permutation of `0..ways`, 0 the most recently used way.  A use of the way ranked `r`
//! moves the ways ranked below `r` down by one and ranks it 0, so the way ranked
//! `ways - 1` is the least recently used: strict LRU, as an eight-byte stamp per slot
//! kept it.  An invalidated way keeps its rank and is reused before any eviction.

use crate::geometry::CacheGeometry;
use crate::line::{CacheLine, MesiState};
use crate::line_table::LineSet;
use crate::stats::CacheStats;
use crate::LineAddr;

/// Sentinel tag meaning "slot is invalid".  Real line addresses never reach this value.
const INVALID: LineAddr = LineAddr::MAX;

/// Branch-free way scan: compares tags against the probe line eight at a time.
///
/// Each chunk XORs the eight tags against the probe, folds the zero-tests into one
/// equality bitmask (`(t ^ line) == 0` compiles to a flag set, not a jump), and
/// branches once per chunk instead of once per way.  Way counts in this simulator
/// are 8 or 16, so the scalar tail below only runs for odd test geometries.
/// Sentinel-safe: a probe for a line is a real line address, which never equals
/// [`INVALID`], so an empty slot can never produce a false match; `place` probes for
/// [`INVALID`] itself, and gets the first empty way.
#[inline]
fn find_way(tags: &[LineAddr], line: LineAddr) -> Option<usize> {
    let (chunks, tail) = tags.as_chunks::<8>();
    for (c, chunk) in chunks.iter().enumerate() {
        let mut mask = 0u32;
        for (j, &t) in chunk.iter().enumerate() {
            mask |= u32::from((t ^ line) == 0) << j;
        }
        if mask != 0 {
            return Some(c * 8 + mask.trailing_zeros() as usize);
        }
    }
    let way = tail.iter().position(|&t| t == line)?;
    Some(chunks.len() * 8 + way)
}

/// Opt-in tracker of distinct line addresses installed per associativity set.
///
/// The conflict analysis wants "how many distinct lines ever mapped to set `s`", which
/// the seed implementation kept as one `HashSet<LineAddr>` per set — unbounded growth
/// on streaming workloads and an allocation on nearly every fill.  The tracker keeps a
/// single open-addressed [`LineSet`] (8 bytes per distinct line) plus a `u32` counter
/// per set, and is only instantiated when conflict analysis is requested.
#[derive(Debug, Clone)]
struct ConflictTracker {
    seen: LineSet,
    per_set: Vec<u32>,
}

impl ConflictTracker {
    fn new(sets: usize) -> Self {
        ConflictTracker {
            seen: LineSet::new(),
            per_set: vec![0; sets],
        }
    }

    /// Out of line: the tracker is opt-in, and every fill checks for it.
    #[inline(never)]
    fn note(&mut self, set: usize, line: LineAddr) {
        if self.seen.insert(line) {
            self.per_set[set] += 1;
        }
    }
}

/// A set-associative cache with strict LRU replacement within each associativity set.
///
/// The cache stores only metadata (tags and coherence state), never data bytes — the
/// simulation cares about hits, misses, evictions and latencies, not values.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    /// Line address per slot, [`INVALID`] when empty.  Set `s` occupies
    /// `[s*ways, (s+1)*ways)` in every parallel vector.
    tags: Vec<LineAddr>,
    /// Coherence state per slot (meaningful only where the tag is valid).
    states: Vec<MesiState>,
    /// Recency rank per slot: a permutation of `0..ways` within each set, 0 the most
    /// recently used way (see the module docs).
    ranks: Vec<u8>,
    /// Hit/miss/eviction statistics.
    pub stats: CacheStats,
    /// Opt-in distinct-lines-per-set tracking for the conflict analysis.
    conflict: Option<ConflictTracker>,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.  Conflict tracking is off by
    /// default; [`Self::with_conflict_tracking`] / [`Self::enable_conflict_tracking`]
    /// turn on [`Self::distinct_lines_in_set`] for analyses that want per-set
    /// distinct-line counts from the simulated caches themselves.  (The shipped
    /// working-set view computes its histogram from allocation records instead, so
    /// nothing in the profiler pays for tracking it does not use.)
    /// Panics on more than [`CacheGeometry::MAX_WAYS`] ways: a rank is one byte.
    pub fn new(geometry: CacheGeometry) -> Self {
        assert!(geometry.ways <= CacheGeometry::MAX_WAYS, "too many ways");
        let slot_count = geometry.sets * geometry.ways;
        SetAssocCache {
            geometry,
            tags: vec![INVALID; slot_count],
            states: vec![MesiState::Invalid; slot_count],
            ranks: (0..slot_count).map(|i| (i % geometry.ways) as u8).collect(),
            stats: CacheStats::default(),
            conflict: None,
        }
    }

    /// Creates an empty cache that tracks distinct lines per set for conflict analysis.
    pub fn with_conflict_tracking(geometry: CacheGeometry) -> Self {
        let mut c = Self::new(geometry);
        c.enable_conflict_tracking();
        c
    }

    /// Turns on distinct-lines-per-set tracking (idempotent).
    pub fn enable_conflict_tracking(&mut self) {
        if self.conflict.is_none() {
            self.conflict = Some(ConflictTracker::new(self.geometry.sets));
        }
    }

    /// True if distinct-lines-per-set tracking is active.
    pub fn conflict_tracking_enabled(&self) -> bool {
        self.conflict.is_some()
    }

    /// Heap bytes consumed by the conflict tracker (zero when tracking is off).  Used
    /// by the memory-growth regression tests.
    pub fn conflict_tracking_bytes(&self) -> usize {
        self.conflict
            .as_ref()
            .map(|t| t.seen.heap_bytes() + t.per_set.len() * std::mem::size_of::<u32>())
            .unwrap_or(0)
    }

    /// Heap bytes of the cache's tables (tag, state and rank per slot) and tracker.
    pub fn heap_bytes(&self) -> usize {
        let slot = size_of::<LineAddr>() + size_of::<MesiState>() + size_of::<u8>();
        self.tags.len() * slot + self.conflict_tracking_bytes()
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    #[inline]
    fn set_base(&self, line: LineAddr) -> usize {
        self.geometry.set_index_of_line(line) * self.geometry.ways
    }

    /// Ranks slot `i`, in `line`'s set, that set's most recent: its rank becomes 0 and
    /// every rank below it moves down by one.  Selects written as arithmetic (`+ 1`
    /// where below, `& 0` where equal), eight ranks at a time, so an 8-way set is one
    /// vector operation and one store; no early return for a slot already ranked 0,
    /// a branch the host cannot predict (the update leaves such a set as it was).
    #[inline]
    fn touch(&mut self, line: LineAddr, i: usize) {
        let base = self.set_base(line);
        let rank = self.ranks[i];
        let moved = |r: u8| (r + u8::from(r < rank)) & u8::from(r == rank).wrapping_sub(1);
        let (chunks, tail) = self.ranks[base..base + self.geometry.ways].as_chunks_mut::<8>();
        for chunk in chunks {
            for r in chunk {
                *r = moved(*r);
            }
        }
        for r in tail {
            *r = moved(*r);
        }
    }

    /// Slot index of a resident line, if present.
    #[inline]
    fn slot_of(&self, line: LineAddr) -> Option<usize> {
        let base = self.set_base(line);
        find_way(&self.tags[base..base + self.geometry.ways], line).map(|w| base + w)
    }

    /// Looks up a line, updating LRU and hit/miss statistics.  Does not fill on miss.
    ///
    /// A hit returns the slot it found beside the line's state, so the caller can
    /// change that state with [`Self::set_state_at`] instead of scanning the set
    /// again.  The slot is valid until the next `fill` or `invalidate` on this cache.
    #[inline]
    pub fn lookup(&mut self, line: LineAddr) -> Option<(usize, MesiState)> {
        match self.slot_of(line) {
            Some(i) => {
                self.touch(line, i);
                self.stats.hits += 1;
                Some((i, self.states[i]))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Combined `contains` + `lookup` for callers that only want to refresh a line
    /// already resident: on a hit this is exactly `lookup` (LRU refresh, hit count);
    /// on a miss the cache is left completely untouched — the same end state a
    /// separate `contains()` pre-check would leave, in a single way scan.
    #[inline]
    pub fn touch_existing(&mut self, line: LineAddr) -> Option<MesiState> {
        let i = self.slot_of(line)?;
        self.touch(line, i);
        self.stats.hits += 1;
        Some(self.states[i])
    }

    /// The state of a resident line, without perturbing LRU order or statistics.
    #[inline]
    pub fn peek(&self, line: LineAddr) -> Option<MesiState> {
        self.slot_of(line).map(|i| self.states[i])
    }

    /// True if the line is resident (no LRU or statistics update).
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.slot_of(line).is_some()
    }

    /// Changes the coherence state of a resident line.  Returns `false` if absent.
    #[inline]
    pub fn set_state(&mut self, line: LineAddr, state: MesiState) -> bool {
        match self.slot_of(line) {
            Some(i) => {
                self.states[i] = state;
                true
            }
            None => false,
        }
    }

    /// Changes the coherence state of the line [`Self::lookup`] found at `slot`.
    #[inline]
    pub fn set_state_at(&mut self, slot: usize, state: MesiState) {
        debug_assert_ne!(self.tags[slot], INVALID, "slot holds no line");
        self.states[slot] = state;
    }

    /// Counts a miss the hierarchy's directory already answered: what [`Self::lookup`]
    /// does when its way scan finds nothing, without the scan.
    #[inline]
    pub(crate) fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Installs a line, evicting the LRU victim of its set if the set is full.
    ///
    /// Returns the evicted line, if any.  If the line is already present its state and
    /// LRU position are refreshed instead (no eviction, no fill counted).
    pub fn fill(&mut self, line: LineAddr, state: MesiState) -> Option<CacheLine> {
        let Some(i) = self.slot_of(line) else {
            return self.place(line, state);
        };
        self.note_conflict(line);
        self.states[i] = state;
        self.touch(line, i);
        None
    }

    /// [`Self::fill`] for a line the caller knows is absent, and the one
    /// victim-selection routine: the first invalid way if the set has one, else the
    /// least recently used way — the one ranked `ways - 1`.
    pub(crate) fn place(&mut self, line: LineAddr, state: MesiState) -> Option<CacheLine> {
        debug_assert!(!self.contains(line), "place of a resident line");
        self.note_conflict(line);
        let base = self.set_base(line);
        let ways = self.geometry.ways;
        self.stats.fills += 1;

        let (i, evicted) = match find_way(&self.tags[base..base + ways], INVALID) {
            Some(free) => (base + free, None),
            None => {
                let mut set = self.ranks[base..base + ways].iter();
                let lru = set.position(|&r| r as usize == ways - 1);
                let i = base + lru.expect("a set's ranks are a permutation of 0..ways");
                self.stats.evictions += 1;
                (i, Some(self.line_at(i)))
            }
        };
        self.tags[i] = line;
        self.states[i] = state;
        self.touch(line, i);
        evicted
    }

    /// Removes a line (e.g. due to a coherence invalidation).  Returns whether it was
    /// resident.
    #[inline]
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let Some(i) = self.slot_of(line) else {
            return false;
        };
        self.tags[i] = INVALID;
        self.states[i] = MesiState::Invalid;
        self.stats.invalidations += 1;
        true
    }

    #[inline]
    fn note_conflict(&mut self, line: LineAddr) {
        if let Some(t) = self.conflict.as_mut() {
            t.note(self.geometry.set_index_of_line(line), line);
        }
    }

    #[inline]
    fn line_at(&self, i: usize) -> CacheLine {
        CacheLine {
            line: self.tags[i],
            state: self.states[i],
        }
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }

    /// Iterates over all resident lines.
    pub fn resident_lines(&self) -> impl Iterator<Item = CacheLine> + '_ {
        self.tags
            .iter()
            .enumerate()
            .filter(|(_, &t)| t != INVALID)
            .map(|(i, _)| self.line_at(i))
    }

    /// Number of valid lines in associativity set `set`.
    pub fn set_occupancy(&self, set: usize) -> usize {
        let start = set * self.geometry.ways;
        self.tags[start..start + self.geometry.ways]
            .iter()
            .filter(|&&t| t != INVALID)
            .count()
    }

    /// Number of distinct line addresses ever installed into associativity set `set`.
    ///
    /// Always zero unless conflict tracking was enabled (see [`Self::new`]).
    pub fn distinct_lines_in_set(&self, set: usize) -> usize {
        self.conflict
            .as_ref()
            .map(|t| t.per_set[set] as usize)
            .unwrap_or(0)
    }

    /// Resets statistics and distinct-line tracking (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        if let Some(t) = self.conflict.as_mut() {
            t.seen.clear();
            t.per_set.fill(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2-way, 4 sets, 64-byte lines => 512 bytes.
        SetAssocCache::new(CacheGeometry::new(64, 2, 4))
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = tiny();
        assert_eq!(c.lookup(10), None);
        c.fill(10, MesiState::Exclusive);
        assert_eq!(c.lookup(10).map(|(_, s)| s), Some(MesiState::Exclusive));
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn lookup_slot_takes_a_state_store() {
        let mut c = tiny();
        c.fill(0, MesiState::Exclusive);
        c.fill(4, MesiState::Shared);
        let (slot, state) = c.lookup(4).expect("resident");
        assert_eq!(state, MesiState::Shared);
        c.set_state_at(slot, MesiState::Modified);
        assert_eq!(c.peek(4), Some(MesiState::Modified));
        assert_eq!(c.peek(0), Some(MesiState::Exclusive));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets). 2 ways -> third fill evicts.
        c.fill(0, MesiState::Exclusive);
        c.fill(4, MesiState::Exclusive);
        // Touch line 0 so it is MRU.
        assert_eq!(c.lookup(0).map(|(_, s)| s), Some(MesiState::Exclusive));
        let evicted = c.fill(8, MesiState::Exclusive).expect("eviction");
        assert_eq!(evicted.line, 4, "LRU victim should be line 4");
        assert!(c.peek(0).is_some());
        assert!(c.peek(8).is_some());
        assert!(c.peek(4).is_none());
    }

    #[test]
    fn fill_existing_line_does_not_evict() {
        let mut c = tiny();
        c.fill(0, MesiState::Exclusive);
        c.fill(4, MesiState::Exclusive);
        assert!(c.fill(0, MesiState::Modified).is_none());
        assert_eq!(c.peek(0), Some(MesiState::Modified));
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(7, MesiState::Shared);
        assert!(c.invalidate(7));
        assert!(c.peek(7).is_none());
        assert!(!c.invalidate(7));
        assert_eq!(c.stats.invalidations, 1);
    }

    #[test]
    fn distinct_lines_tracked_per_set_when_enabled() {
        let mut c = SetAssocCache::with_conflict_tracking(CacheGeometry::new(64, 2, 4));
        c.fill(0, MesiState::Exclusive);
        c.fill(4, MesiState::Exclusive);
        c.fill(8, MesiState::Exclusive); // evicts, still counts as distinct
        c.fill(0, MesiState::Exclusive); // already counted
        assert_eq!(c.distinct_lines_in_set(0), 3);
        assert_eq!(c.distinct_lines_in_set(1), 0);
    }

    #[test]
    fn distinct_tracking_off_by_default() {
        let mut c = tiny();
        assert!(!c.conflict_tracking_enabled());
        for i in 0..100u64 {
            c.fill(i, MesiState::Exclusive);
        }
        assert_eq!(c.distinct_lines_in_set(0), 0);
        assert_eq!(c.conflict_tracking_bytes(), 0);
    }

    #[test]
    fn reset_clears_distinct_tracking() {
        let mut c = SetAssocCache::with_conflict_tracking(CacheGeometry::new(64, 2, 4));
        c.fill(0, MesiState::Exclusive);
        c.fill(4, MesiState::Exclusive);
        c.reset_stats();
        assert_eq!(c.distinct_lines_in_set(0), 0);
        // Contents preserved; refilling the same lines counts them again.
        assert!(c.peek(0).is_some());
        c.fill(0, MesiState::Exclusive);
        assert_eq!(c.distinct_lines_in_set(0), 1);
    }

    #[test]
    fn set_occupancy_bounded_by_ways() {
        let mut c = tiny();
        for i in 0..10 {
            c.fill(i * 4, MesiState::Exclusive); // all set 0
        }
        assert_eq!(c.set_occupancy(0), 2);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn peek_does_not_affect_lru() {
        let mut c = tiny();
        c.fill(0, MesiState::Exclusive);
        c.fill(4, MesiState::Exclusive);
        // Peek at 0 (should NOT refresh it), then lookup 4 so it is clearly MRU,
        // then fill a conflicting line: victim must be 0.
        let _ = c.peek(0);
        let _ = c.lookup(4);
        let evicted = c.fill(8, MesiState::Exclusive).unwrap();
        assert_eq!(evicted.line, 0);
    }

    /// The optimized cache and the reference, driven in lockstep: every operation must
    /// return the same thing and leave the same counts and, set by set, the same lines
    /// and states in the same recency order — the reference's stamps sorted, the
    /// ranks read off.
    struct Lockstep {
        c: SetAssocCache,
        r: crate::reference::RefSetAssocCache,
    }

    impl Lockstep {
        fn new(ways: usize, sets: usize) -> Self {
            let g = CacheGeometry::new(64, ways, sets);
            Lockstep {
                c: SetAssocCache::new(g),
                r: crate::reference::RefSetAssocCache::new(g),
            }
        }

        /// `fill`, through `place` when the line is absent (what the hierarchy's miss
        /// path does).  Returns the victim's line.
        fn fill(&mut self, line: LineAddr, state: MesiState) -> Option<LineAddr> {
            let got = if self.c.contains(line) {
                self.c.fill(line, state)
            } else {
                self.c.place(line, state)
            };
            let want = self.r.fill(line, state);
            assert_eq!(
                got.map(|v| (v.line, v.state)),
                want.map(|v| (v.line, v.state)),
                "victim of filling {line:#x}"
            );
            self.check();
            got.map(|v| v.line)
        }

        fn lookup(&mut self, line: LineAddr) {
            use crate::reference::LookupResult;
            let want = match self.r.lookup(line) {
                LookupResult::Hit(s) => Some(s),
                LookupResult::Miss => None,
            };
            assert_eq!(self.c.lookup(line).map(|(_, s)| s), want);
            self.check();
        }

        fn invalidate(&mut self, line: LineAddr) {
            assert_eq!(self.c.invalidate(line), self.r.invalidate(line).is_some());
            self.check();
        }

        fn check(&self) {
            assert_eq!(self.c.stats, self.r.stats);
            let g = self.c.geometry;
            for set in 0..g.sets {
                let slots = set * g.ways..(set + 1) * g.ways;
                // Invalid ways included: the ranks are a permutation of 0..ways.
                let mut ranks = self.c.ranks[slots.clone()].to_vec();
                ranks.sort_unstable();
                assert!(ranks.iter().map(|&r| r as usize).eq(0..g.ways), "set {set}");
                // Which way a line sits in is not the reference's business; how
                // recently it was used, next to its set's other lines, is.
                let mut got: Vec<_> = slots
                    .filter(|&i| self.c.tags[i] != INVALID)
                    .map(|i| (self.c.ranks[i], self.c.tags[i], self.c.states[i]))
                    .collect();
                let mut want: Vec<_> = (self.r.resident_lines())
                    .filter(|l| g.set_index_of_line(l.line) == set)
                    .map(|l| (std::cmp::Reverse(l.last_used), l.line, l.state))
                    .collect();
                got.sort_unstable_by_key(|l| l.0);
                want.sort_unstable_by_key(|l| l.0);
                assert!(
                    (got.iter().map(|l| (l.1, l.2))).eq(want.iter().map(|l| (l.1, l.2))),
                    "set {set}: {got:?} against {want:?}"
                );
            }
        }

        /// A pseudo-random fill/lookup/invalidate sequence over few enough lines that
        /// sets fill up, empty out and refill.
        fn random_ops(&mut self, seed: u64, ops: usize) {
            const STATES: [MesiState; 3] =
                [MesiState::Shared, MesiState::Exclusive, MesiState::Modified];
            let lines = (self.c.tags.len() * 3) as u64;
            let mut x = seed | 1;
            for _ in 0..ops {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let line = (x >> 8) % lines;
                match x % 8 {
                    0..=3 => {
                        self.fill(line, STATES[(x >> 40) as usize % 3]);
                    }
                    4..=5 => self.lookup(line),
                    _ => self.invalidate(line),
                }
            }
        }
    }

    #[test]
    fn place_takes_the_first_invalid_way_over_any_older_valid_way() {
        let mut m = Lockstep::new(4, 2);
        // Lines 0, 2, 4, 6 fill set 0 in way order; then ways 1 and 2 empty out, and
        // way 0 holds the oldest line of the set.
        for line in [0, 2, 4, 6] {
            m.fill(line, MesiState::Exclusive);
        }
        m.invalidate(2);
        m.invalidate(4);
        assert_eq!(m.fill(8, MesiState::Shared), None);
        assert_eq!(m.c.tags[..4], [0, 8, INVALID, 6]);
        assert_eq!(m.fill(10, MesiState::Shared), None);
        assert_eq!(m.c.tags[..4], [0, 8, 10, 6]);
        assert_eq!(m.c.stats.evictions, 0);
        m.random_ops(0x9e37_79b9_7f4a_7c15, 4_000);
    }

    #[test]
    fn place_evicts_the_least_recently_used_way_of_a_full_set() {
        let mut m = Lockstep::new(4, 2);
        for line in [0, 2, 4, 6] {
            m.fill(line, MesiState::Exclusive);
        }
        // Refresh everything but line 4 (way 2), out of way order.
        for line in [6, 0, 2] {
            m.lookup(line);
        }
        assert_eq!(m.fill(8, MesiState::Modified), Some(4));
        // Now line 6 is the oldest, then 0, then 2.
        assert_eq!(m.fill(10, MesiState::Shared), Some(6));
        assert_eq!(m.fill(12, MesiState::Shared), Some(0));
        assert_eq!(m.c.tags[..4], [12, 2, 8, 10]);
        // 8- and 16-way sets go through the chunked tag compare and rank update, 17
        // through a chunk and the tail, 2, 3 and 4 through the tail alone.
        for ways in [2, 3, 4, 8, 16, 17] {
            let mut m = Lockstep::new(ways, 4);
            m.random_ops(0xd1b5_4a32_d192_ed03 + ways as u64, 6_000);
            assert!(m.c.stats.evictions > 100, "{ways} ways: sets never filled");
        }
    }

    #[test]
    fn fill_of_a_resident_line_refreshes_state_and_lru_without_counting_a_fill() {
        let mut m = Lockstep::new(2, 4);
        m.fill(0, MesiState::Exclusive);
        m.fill(4, MesiState::Exclusive);
        let before = m.c.stats;
        assert_eq!(m.fill(0, MesiState::Modified), None);
        assert_eq!(m.c.stats, before);
        assert_eq!(m.c.peek(0), Some(MesiState::Modified));
        // The refill made line 0 the most recent: line 4 is the next victim.
        assert_eq!(m.fill(8, MesiState::Shared), Some(4));
        m.random_ops(0x2545_f491_4f6c_dd1d, 4_000);
    }

    #[test]
    fn note_miss_is_a_lookup_miss_without_the_scan() {
        let mut scanned = tiny();
        scanned.fill(0, MesiState::Exclusive);
        scanned.fill(4, MesiState::Shared);
        let mut told = scanned.clone();
        assert_eq!(scanned.lookup(8), None);
        told.note_miss();
        // Ranks, contents and counts: the whole cache.
        assert_eq!(format!("{told:?}"), format!("{scanned:?}"));
        assert_eq!(told.stats.misses, 1);
    }

    #[test]
    fn the_widest_set_keeps_strict_lru_and_one_way_more_is_refused() {
        let mut m = Lockstep::new(CacheGeometry::MAX_WAYS, 1);
        m.random_ops(0x6a09_e667_f3bc_c908, 3_000);
        assert!(m.c.stats.evictions > 100);
        assert_eq!(m.c.heap_bytes(), 255 * 10);
        let wider = CacheGeometry {
            line_size: 64,
            ways: CacheGeometry::MAX_WAYS + 1,
            sets: 1,
        };
        assert!(std::panic::catch_unwind(|| SetAssocCache::new(wider)).is_err());
    }
}
