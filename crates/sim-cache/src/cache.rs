//! A single set-associative cache with LRU replacement, stored struct-of-arrays.
//!
//! The cache is the innermost data structure of the simulator: every memory access
//! probes two or three of them.  Lines are therefore kept as packed parallel vectors
//! (`tags` / `states` / `ranks`) rather than `Vec<Option<CacheLine>>`: a way-scan
//! touches a dense run of tags instead of striding over 32-byte option-wrapped structs,
//! and the invalid-slot check is a tag compare against a sentinel instead of an
//! `Option` discriminant load.
//!
//! A cache does not know what a line is.  Its caller names a line by the associativity
//! set it maps to and a [`Tag`] that is the line's alone within that set: the hierarchy
//! tags its L1s with the line address (ten bytes a slot), so an L1 hit asks nothing
//! else, and its L2s and L3 with the line's four-byte directory slot (six bytes a
//! slot), which every access that reaches them has resolved already.
//!
//! LRU order is a one-byte *recency rank* per slot: within a set the ranks are a
//! permutation of `0..ways`, 0 the most recently used way.  A use of the way ranked `r`
//! moves the ways ranked below `r` down by one and ranks it 0, so the way ranked
//! `ways - 1` is the least recently used: strict LRU, as an eight-byte stamp per slot
//! kept it.  An invalidated way keeps its rank and is reused before any eviction.

use crate::geometry::CacheGeometry;
use crate::line::MesiState;
use crate::stats::CacheStats;

/// What a [`SetAssocCache`] files a line under, next to its set: a line address or a
/// directory slot.  Equality is all the cache asks of it.
pub trait Tag: Copy + Eq + std::fmt::Debug {
    /// "This way holds no line".  Never a line's tag: a line address would need a byte
    /// address above 2^70, and the directory hands out no such slot
    /// ([`crate::line_table::Slot`]).
    const INVALID: Self;
}

impl Tag for u64 {
    const INVALID: Self = u64::MAX;
}

impl Tag for u32 {
    const INVALID: Self = u32::MAX;
}

/// Branch-free way scan: compares a set's tags against the probe eight at a time.
///
/// Each chunk folds its eight compares into one equality bitmask (`t == tag` compiles
/// to a flag set, not a jump) and branches once per chunk instead of once per way.  Way
/// counts in this simulator are 8 or 16, so the scalar tail below only runs for odd
/// test geometries.  Sentinel-safe: a probe for a line never equals
/// [`Tag::INVALID`], so an empty slot can never produce a false match; `place` probes
/// for [`Tag::INVALID`] itself, and gets the first empty way.
#[inline]
fn find_way<T: Tag>(tags: &[T], tag: T) -> Option<usize> {
    let (chunks, tail) = tags.as_chunks::<8>();
    for (c, chunk) in chunks.iter().enumerate() {
        let mut mask = 0u32;
        for (j, &t) in chunk.iter().enumerate() {
            mask |= u32::from(t == tag) << j;
        }
        if mask != 0 {
            return Some(c * 8 + mask.trailing_zeros() as usize);
        }
    }
    let way = tail.iter().position(|&t| t == tag)?;
    Some(chunks.len() * 8 + way)
}

/// A set-associative cache with strict LRU replacement within each associativity set.
///
/// The cache stores only metadata (tags and coherence state), never data bytes — the
/// simulation cares about hits, misses, evictions and latencies, not values.  Every
/// operation on a line takes the set the line maps to and the line's [`Tag`]; a tag
/// must always come with the same set.
#[derive(Debug, Clone)]
pub struct SetAssocCache<T> {
    geometry: CacheGeometry,
    /// Tag per slot, [`Tag::INVALID`] when empty.  Set `s` occupies
    /// `[s*ways, (s+1)*ways)` in every parallel vector.
    tags: Vec<T>,
    /// Coherence state per slot (meaningful only where the tag is valid).
    states: Vec<MesiState>,
    /// Recency rank per slot: a permutation of `0..ways` within each set, 0 the most
    /// recently used way (see the module docs).
    ranks: Vec<u8>,
    /// Hit/miss/eviction statistics.
    pub stats: CacheStats,
}

impl<T: Tag> SetAssocCache<T> {
    /// Creates an empty cache with the given geometry.  Panics on more than
    /// [`CacheGeometry::MAX_WAYS`] ways: a rank is one byte.
    pub fn new(geometry: CacheGeometry) -> Self {
        assert!(geometry.ways <= CacheGeometry::MAX_WAYS, "too many ways");
        let slot_count = geometry.sets * geometry.ways;
        SetAssocCache {
            geometry,
            tags: vec![T::INVALID; slot_count],
            states: vec![MesiState::Invalid; slot_count],
            // Each set starts ranked in way order; `MAX_WAYS` keeps the cast exact.
            ranks: (0..geometry.ways as u8)
                .collect::<Vec<u8>>()
                .repeat(geometry.sets),
            stats: CacheStats::default(),
        }
    }

    /// Heap bytes of the cache's tables (tag, state and rank per slot).
    pub fn heap_bytes(&self) -> usize {
        let slot = size_of::<T>() + size_of::<MesiState>() + size_of::<u8>();
        self.tags.len() * slot
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// The slots of associativity set `set`.
    #[inline]
    fn ways_of(&self, set: usize) -> std::ops::Range<usize> {
        debug_assert!(set < self.geometry.sets, "set {set} out of range");
        set * self.geometry.ways..(set + 1) * self.geometry.ways
    }

    /// Ranks slot `i`, of set `set`, that set's most recent: its rank becomes 0 and
    /// every rank below it moves down by one.  Selects written as arithmetic (`+ 1`
    /// where below, `& 0` where equal), eight ranks at a time, so an 8-way set is one
    /// vector operation and one store; no early return for a slot already ranked 0,
    /// a branch the host cannot predict (the update leaves such a set as it was).
    #[inline]
    fn touch(&mut self, set: usize, i: usize) {
        let ways = self.ways_of(set);
        let rank = self.ranks[i];
        let moved = |r: u8| (r + u8::from(r < rank)) & u8::from(r == rank).wrapping_sub(1);
        let (chunks, tail) = self.ranks[ways].as_chunks_mut::<8>();
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
    fn slot_of(&self, set: usize, tag: T) -> Option<usize> {
        let ways = self.ways_of(set);
        find_way(&self.tags[ways.clone()], tag).map(|w| ways.start + w)
    }

    /// Looks up a line, updating LRU and hit/miss statistics.  Does not fill on miss.
    ///
    /// A hit returns the slot it found beside the line's state, so the caller can
    /// change that state with [`Self::set_state_at`] instead of scanning the set
    /// again.  The slot is valid until the next `fill` or `invalidate` on this cache.
    #[inline]
    pub fn lookup(&mut self, set: usize, tag: T) -> Option<(usize, MesiState)> {
        match self.slot_of(set, tag) {
            Some(i) => {
                self.touch(set, i);
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
    pub fn touch_existing(&mut self, set: usize, tag: T) -> Option<MesiState> {
        let i = self.slot_of(set, tag)?;
        self.touch(set, i);
        self.stats.hits += 1;
        Some(self.states[i])
    }

    /// The state of a resident line, without perturbing LRU order or statistics.
    #[inline]
    pub fn peek(&self, set: usize, tag: T) -> Option<MesiState> {
        self.slot_of(set, tag).map(|i| self.states[i])
    }

    /// True if the line is resident (no LRU or statistics update).
    #[inline]
    pub fn contains(&self, set: usize, tag: T) -> bool {
        self.slot_of(set, tag).is_some()
    }

    /// Changes the coherence state of a resident line.  Returns `false` if absent.
    #[inline]
    pub fn set_state(&mut self, set: usize, tag: T, state: MesiState) -> bool {
        match self.slot_of(set, tag) {
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
        debug_assert_ne!(self.tags[slot], T::INVALID, "slot holds no line");
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
    /// Returns the evicted line's tag and state, if any.  If the line is already
    /// present its state and LRU position are refreshed instead (no eviction, no fill
    /// counted).
    pub fn fill(&mut self, set: usize, tag: T, state: MesiState) -> Option<(T, MesiState)> {
        let Some(i) = self.slot_of(set, tag) else {
            return self.place(set, tag, state);
        };
        self.states[i] = state;
        self.touch(set, i);
        None
    }

    /// [`Self::fill`] for a line the caller knows is absent, and the one
    /// victim-selection routine: the first invalid way if the set has one, else the
    /// least recently used way — the one ranked `ways - 1`.
    pub(crate) fn place(&mut self, set: usize, tag: T, state: MesiState) -> Option<(T, MesiState)> {
        debug_assert_ne!(tag, T::INVALID, "the empty way's tag is no line's");
        debug_assert!(!self.contains(set, tag), "place of a resident line");
        let ways = self.ways_of(set);
        self.stats.fills += 1;

        let (i, evicted) = match find_way(&self.tags[ways.clone()], T::INVALID) {
            Some(free) => (ways.start + free, None),
            None => {
                let lru = (self.ranks[ways.clone()].iter())
                    .position(|&r| r as usize == self.geometry.ways - 1);
                let i = ways.start + lru.expect("a set's ranks are a permutation of 0..ways");
                self.stats.evictions += 1;
                (i, Some((self.tags[i], self.states[i])))
            }
        };
        self.tags[i] = tag;
        self.states[i] = state;
        self.touch(set, i);
        evicted
    }

    /// Removes a line (e.g. due to a coherence invalidation).  Returns whether it was
    /// resident.
    #[inline]
    pub fn invalidate(&mut self, set: usize, tag: T) -> bool {
        let Some(i) = self.slot_of(set, tag) else {
            return false;
        };
        self.tags[i] = T::INVALID;
        self.states[i] = MesiState::Invalid;
        self.stats.invalidations += 1;
        true
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != T::INVALID).count()
    }

    /// Iterates over all resident lines: the set each sits in, its tag and its state.
    pub fn resident(&self) -> impl Iterator<Item = (usize, T, MesiState)> + '_ {
        let ways = self.geometry.ways;
        (self.tags.iter().zip(&self.states).enumerate())
            .filter(|(_, (&t, _))| t != T::INVALID)
            .map(move |(i, (&t, &s))| (i / ways, t, s))
    }

    /// Number of valid lines in associativity set `set`.
    pub fn set_occupancy(&self, set: usize) -> usize {
        self.tags[self.ways_of(set)]
            .iter()
            .filter(|&&t| t != T::INVALID)
            .count()
    }

    /// Resets statistics (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LineAddr;

    /// A cache filed the way the hierarchy files its L1s: tag = line address, set = the
    /// line's low bits.  The unit tests below speak lines; `Lockstep` runs both tags.
    struct ByLine(SetAssocCache<LineAddr>);

    impl ByLine {
        fn set(&self, line: LineAddr) -> usize {
            self.0.geometry.set_index_of_line(line)
        }
        fn lookup(&mut self, line: LineAddr) -> Option<(usize, MesiState)> {
            self.0.lookup(self.set(line), line)
        }
        fn fill(&mut self, line: LineAddr, state: MesiState) -> Option<(LineAddr, MesiState)> {
            self.0.fill(self.set(line), line, state)
        }
        fn peek(&self, line: LineAddr) -> Option<MesiState> {
            self.0.peek(self.set(line), line)
        }
        fn invalidate(&mut self, line: LineAddr) -> bool {
            self.0.invalidate(self.set(line), line)
        }
    }

    fn tiny() -> ByLine {
        // 2-way, 4 sets, 64-byte lines => 512 bytes.
        ByLine(SetAssocCache::new(CacheGeometry::new(64, 2, 4)))
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = tiny();
        assert_eq!(c.lookup(10), None);
        c.fill(10, MesiState::Exclusive);
        assert_eq!(c.lookup(10).map(|(_, s)| s), Some(MesiState::Exclusive));
        assert_eq!(c.0.stats.hits, 1);
        assert_eq!(c.0.stats.misses, 1);
    }

    #[test]
    fn lookup_slot_takes_a_state_store() {
        let mut c = tiny();
        c.fill(0, MesiState::Exclusive);
        c.fill(4, MesiState::Shared);
        let (slot, state) = c.lookup(4).expect("resident");
        assert_eq!(state, MesiState::Shared);
        c.0.set_state_at(slot, MesiState::Modified);
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
        assert_eq!(evicted.0, 4, "LRU victim should be line 4");
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
        assert_eq!(c.0.occupancy(), 2);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(7, MesiState::Shared);
        assert!(c.invalidate(7));
        assert!(c.peek(7).is_none());
        assert!(!c.invalidate(7));
        assert_eq!(c.0.stats.invalidations, 1);
    }

    #[test]
    fn a_tag_is_a_line_only_beside_its_set() {
        // The hierarchy's L2s: the tag is a directory slot and says nothing about the
        // set.  Slot 5 in set 0 and slot 5 in set 1 are different ways (the hierarchy
        // never files one slot in two sets; the cache does not care), and a slot equal
        // to another line's address bits is just another tag.
        let mut c = SetAssocCache::<u32>::new(CacheGeometry::new(64, 2, 4));
        assert_eq!(c.fill(0, 5, MesiState::Exclusive), None);
        assert_eq!(c.peek(1, 5), None);
        assert_eq!(c.fill(1, 5, MesiState::Shared), None);
        assert!(c.invalidate(0, 5));
        assert_eq!(c.peek(1, 5), Some(MesiState::Shared));
        assert_eq!(
            c.resident().collect::<Vec<_>>(),
            [(1, 5, MesiState::Shared)]
        );
        // Six bytes a slot against the line-tagged cache's ten.
        assert_eq!(c.heap_bytes(), 8 * 6);
        assert_eq!(tiny().0.heap_bytes(), 8 * 10);
    }

    #[test]
    fn set_occupancy_bounded_by_ways() {
        let mut c = tiny();
        for i in 0..10 {
            c.fill(i * 4, MesiState::Exclusive); // all set 0
        }
        assert_eq!(c.0.set_occupancy(0), 2);
        assert_eq!(c.0.occupancy(), 2);
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
        assert_eq!(evicted.0, 0);
    }

    /// The line-to-tag maps the two instantiations are driven with: the line itself
    /// (the L1s) and a stand-in for first-touch directory slots — unrelated to the
    /// line's set bits, and `u32::MAX - 1`, the last slot the directory can hand out,
    /// for line 0.
    trait TestTag: Tag {
        fn of(line: LineAddr) -> Self;
    }

    impl TestTag for u64 {
        fn of(line: LineAddr) -> Self {
            line
        }
    }

    impl TestTag for u32 {
        fn of(line: LineAddr) -> Self {
            u32::MAX - 1 - u32::try_from(line * 7).expect("test lines are small")
        }
    }

    /// The optimized cache and the reference, driven in lockstep: every operation must
    /// return the same thing and leave the same counts and, set by set, the same lines
    /// and states in the same recency order — the reference's stamps sorted, the
    /// ranks read off.
    struct Lockstep<T> {
        c: SetAssocCache<T>,
        r: crate::reference::RefSetAssocCache,
    }

    impl<T: TestTag> Lockstep<T> {
        fn new(ways: usize, sets: usize) -> Self {
            let g = CacheGeometry::new(64, ways, sets);
            Lockstep {
                c: SetAssocCache::new(g),
                r: crate::reference::RefSetAssocCache::new(g),
            }
        }

        fn set(&self, line: LineAddr) -> usize {
            self.c.geometry.set_index_of_line(line)
        }

        /// `fill`, through `place` when the line is absent (what the hierarchy's miss
        /// path does).  Returns the victim's tag.
        fn fill(&mut self, line: LineAddr, state: MesiState) -> Option<T> {
            let (set, tag) = (self.set(line), T::of(line));
            let got = if self.c.contains(set, tag) {
                self.c.fill(set, tag, state)
            } else {
                self.c.place(set, tag, state)
            };
            let want = self.r.fill(line, state);
            assert_eq!(
                got,
                want.map(|v| (T::of(v.line), v.state)),
                "victim of filling {line:#x}"
            );
            self.check();
            got.map(|v| v.0)
        }

        fn lookup(&mut self, line: LineAddr) {
            use crate::reference::LookupResult;
            let want = match self.r.lookup(line) {
                LookupResult::Hit(s) => Some(s),
                LookupResult::Miss => None,
            };
            let got = self.c.lookup(self.set(line), T::of(line));
            assert_eq!(got.map(|(_, s)| s), want);
            self.check();
        }

        fn invalidate(&mut self, line: LineAddr) {
            assert_eq!(
                self.c.invalidate(self.set(line), T::of(line)),
                self.r.invalidate(line).is_some()
            );
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
                    .filter(|&i| self.c.tags[i] != T::INVALID)
                    .map(|i| (self.c.ranks[i], self.c.tags[i], self.c.states[i]))
                    .collect();
                let mut want: Vec<_> = (self.r.resident_lines())
                    .filter(|l| g.set_index_of_line(l.line) == set)
                    .map(|l| (std::cmp::Reverse(l.last_used), T::of(l.line), l.state))
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

    /// Each rank test below, under line tags and under slot tags.
    fn under_both_tags(test: fn(Lockstep<u64>), and: fn(Lockstep<u32>), ways: usize, sets: usize) {
        test(Lockstep::new(ways, sets));
        and(Lockstep::new(ways, sets));
    }

    fn first_invalid_way<T: TestTag>(mut m: Lockstep<T>) {
        // Lines 0, 2, 4, 6 fill set 0 in way order; then ways 1 and 2 empty out, and
        // way 0 holds the oldest line of the set.
        for line in [0, 2, 4, 6] {
            m.fill(line, MesiState::Exclusive);
        }
        m.invalidate(2);
        m.invalidate(4);
        assert_eq!(m.fill(8, MesiState::Shared), None);
        assert_eq!(m.c.tags[..4], [T::of(0), T::of(8), T::INVALID, T::of(6)]);
        assert_eq!(m.fill(10, MesiState::Shared), None);
        assert_eq!(m.c.tags[..4], [0, 8, 10, 6].map(T::of));
        assert_eq!(m.c.stats.evictions, 0);
        m.random_ops(0x9e37_79b9_7f4a_7c15, 4_000);
    }

    #[test]
    fn place_takes_the_first_invalid_way_over_any_older_valid_way() {
        under_both_tags(first_invalid_way, first_invalid_way, 4, 2);
    }

    fn least_recently_used_way<T: TestTag>(mut m: Lockstep<T>) {
        for line in [0, 2, 4, 6] {
            m.fill(line, MesiState::Exclusive);
        }
        // Refresh everything but line 4 (way 2), out of way order.
        for line in [6, 0, 2] {
            m.lookup(line);
        }
        assert_eq!(m.fill(8, MesiState::Modified), Some(T::of(4)));
        // Now line 6 is the oldest, then 0, then 2.
        assert_eq!(m.fill(10, MesiState::Shared), Some(T::of(6)));
        assert_eq!(m.fill(12, MesiState::Shared), Some(T::of(0)));
        assert_eq!(m.c.tags[..4], [12, 2, 8, 10].map(T::of));
        // 8- and 16-way sets go through the chunked tag compare and rank update, 17
        // through a chunk and the tail, 2, 3 and 4 through the tail alone.
        for ways in [2, 3, 4, 8, 16, 17] {
            let mut m = Lockstep::<T>::new(ways, 4);
            m.random_ops(0xd1b5_4a32_d192_ed03 + ways as u64, 6_000);
            assert!(m.c.stats.evictions > 100, "{ways} ways: sets never filled");
        }
    }

    #[test]
    fn place_evicts_the_least_recently_used_way_of_a_full_set() {
        under_both_tags(least_recently_used_way, least_recently_used_way, 4, 2);
    }

    fn refill_of_a_resident_line<T: TestTag>(mut m: Lockstep<T>) {
        m.fill(0, MesiState::Exclusive);
        m.fill(4, MesiState::Exclusive);
        let before = m.c.stats;
        assert_eq!(m.fill(0, MesiState::Modified), None);
        assert_eq!(m.c.stats, before);
        assert_eq!(m.c.peek(0, T::of(0)), Some(MesiState::Modified));
        // The refill made line 0 the most recent: line 4 is the next victim.
        assert_eq!(m.fill(8, MesiState::Shared), Some(T::of(4)));
        m.random_ops(0x2545_f491_4f6c_dd1d, 4_000);
    }

    #[test]
    fn fill_of_a_resident_line_refreshes_state_and_lru_without_counting_a_fill() {
        under_both_tags(refill_of_a_resident_line, refill_of_a_resident_line, 2, 4);
    }

    #[test]
    fn note_miss_is_a_lookup_miss_without_the_scan() {
        let mut scanned = tiny();
        scanned.fill(0, MesiState::Exclusive);
        scanned.fill(4, MesiState::Shared);
        let mut told = scanned.0.clone();
        assert_eq!(scanned.lookup(8), None);
        told.note_miss();
        // Ranks, contents and counts: the whole cache.
        assert_eq!(format!("{told:?}"), format!("{:?}", scanned.0));
        assert_eq!(told.stats.misses, 1);
    }

    fn widest_set<T: TestTag>(mut m: Lockstep<T>) {
        m.random_ops(0x6a09_e667_f3bc_c908, 3_000);
        assert!(m.c.stats.evictions > 100);
        assert_eq!(m.c.heap_bytes(), 255 * (size_of::<T>() + 2));
        let wider = CacheGeometry {
            line_size: 64,
            ways: CacheGeometry::MAX_WAYS + 1,
            sets: 1,
        };
        assert!(std::panic::catch_unwind(|| SetAssocCache::<T>::new(wider)).is_err());
    }

    #[test]
    fn the_widest_set_keeps_strict_lru_and_one_way_more_is_refused() {
        under_both_tags(widest_set, widest_set, CacheGeometry::MAX_WAYS, 1);
    }

    #[test]
    fn a_fresh_cache_ranks_every_set_in_way_order() {
        for geometry in [
            CacheGeometry::l1_default(),
            CacheGeometry::l2_default(),
            CacheGeometry::l3_default(),
            CacheGeometry::new(64, 3, 8),
            CacheGeometry::new(64, 5, 16),
        ] {
            let cache = SetAssocCache::<LineAddr>::new(geometry);
            assert_eq!(cache.ranks.len(), geometry.sets * geometry.ways);
            for (set, ranks) in cache.ranks.chunks(geometry.ways).enumerate() {
                assert!(
                    ranks.iter().copied().eq(0..geometry.ways as u8),
                    "{geometry:?}: set {set} ranked {ranks:?}"
                );
            }
        }
    }
}
