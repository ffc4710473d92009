//! Open-addressed, power-of-two-sized hash tables keyed by cache-line address.
//!
//! The per-access hot path of the hierarchy needs three pieces of per-line bookkeeping
//! (directory sharers/owner, invalidation notes, touched bits).  Storing them in
//! `std::collections::HashMap`s costs a SipHash computation plus a pointer chase per
//! lookup, and the per-core `departures`/`touched` maps allocate on nearly every miss.
//! This module replaces all of that with one flat table:
//!
//! * linear probing over a power-of-two capacity (index = mixed key & mask),
//! * no tombstones — entries are never removed, their bitmasks are merely cleared,
//!   which matches how the directory retires lines (sharer bits drop to zero but the
//!   line's history remains useful for miss classification),
//! * zero allocation per access in the steady state: the table only grows (amortized)
//!   when a previously-unseen line is inserted.
//!
//! [`LineSet`] is the same machinery reduced to membership-only, used by the opt-in
//! conflict tracker in [`crate::SetAssocCache`].

use crate::{CoreId, CoreMask, LineAddr, MissKind};
use std::hash::{BuildHasherDefault, Hasher};

/// Sentinel meaning "this slot is empty".  Real line addresses never reach this value:
/// it would require a byte address above 2^70.
const EMPTY: LineAddr = LineAddr::MAX;

/// Initial capacity (slots) of a table; must be a power of two.
const INITIAL_CAPACITY: usize = 1024;

/// Grow when `len * 4 > capacity * 3` (75 % load factor).
#[inline]
fn needs_grow(len: usize, capacity: usize) -> bool {
    len * 4 > capacity * 3
}

/// Multiplicative hash (splitmix64 finalizer) spreading line addresses over the table.
#[inline]
fn mix(key: LineAddr) -> u64 {
    let mut x = key;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// This module's mixer as a `std` hasher, for the `HashMap`s that are probed on every
/// access and keyed by integers and small tuples of them — the profiling tallies
/// (addresses, `(core, line)` pairs), `sim-kernel`'s address index (pages) and the
/// what-if tables (`(base, granule, core)`): one multiply-xorshift round per integer
/// written instead of SipHash.  Iteration order depends on nothing but the keys
/// inserted; every consumer sorts or sums anyway.
#[derive(Debug, Clone, Copy, Default)]
pub struct MixHasher(u64);

/// `BuildHasher` of [`MixHasher`].
pub type BuildMixHasher = BuildHasherDefault<MixHasher>;

impl Hasher for MixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Not on any path here: every key is an integer or a tuple of integers.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = mix(self.0 ^ v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v.into());
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Linear probe over a power-of-two key array (`mask = len - 1`): `Ok(slot)` if `line`
/// is present, `Err(empty_slot)` where it would be inserted.  Shared by [`LineTable`]
/// and [`LineSet`] (lookups, inserts and rehash-on-grow all route through it) so the
/// probing logic cannot diverge; the grow routines themselves stay separate because
/// the table must move its entry payloads alongside the keys.
#[inline]
fn probe(keys: &[LineAddr], mask: usize, line: LineAddr) -> Result<usize, usize> {
    let mut i = (mix(line) as usize) & mask;
    loop {
        let k = keys[i];
        if k == line {
            return Ok(i);
        }
        if k == EMPTY {
            return Err(i);
        }
        i = (i + 1) & mask;
    }
}

/// Per-line directory entry: everything the hierarchy tracks about one cache line,
/// packed into bitmasks indexed by core (the hierarchy supports at most
/// [`crate::MAX_CORES`] cores — one bit per core in a [`CoreMask`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirEntry {
    /// Bitmask of cores holding the line in their private caches (exact: bit `c` is set
    /// exactly when core `c`'s L2 holds the line).
    pub sharers: CoreMask,
    /// Bitmask of cores that have ever touched the line (cold-miss detection).
    pub touched: CoreMask,
    /// Bitmask of cores whose copy was taken by a coherence invalidation since their
    /// last fill; the note outlives a later eviction.  (A copy that left by replacement
    /// needs no note: the core is in `touched`, not in `sharers`, and not in here.)
    pub invalidated: CoreMask,
    /// Core holding the line in Modified state; [`DirEntry::NO_OWNER`] if none.
    pub owner: u8,
}

impl Default for DirEntry {
    fn default() -> Self {
        DirEntry {
            sharers: 0,
            touched: 0,
            invalidated: 0,
            owner: DirEntry::NO_OWNER,
        }
    }
}

impl DirEntry {
    /// Sentinel `owner` value meaning "no modified owner".
    pub const NO_OWNER: u8 = u8::MAX;

    /// The owning core, if any.
    #[inline]
    pub fn owner_core(&self) -> Option<CoreId> {
        if self.owner == Self::NO_OWNER {
            None
        } else {
            Some(self.owner as CoreId)
        }
    }

    /// Sets the owning core.
    #[inline]
    pub fn set_owner(&mut self, core: Option<CoreId>) {
        self.owner = match core {
            Some(c) => c as u8,
            None => Self::NO_OWNER,
        };
    }

    /// Clears the invalidation note for `core` (called when the core re-fetches the line).
    #[inline]
    pub fn clear_departure(&mut self, core: CoreId) {
        self.invalidated &= !((1 as CoreMask) << core);
    }

    /// Ground-truth classification of a private-cache miss by `core` on this line,
    /// asked before the fill marks the core in `touched`.  A default entry (a
    /// never-seen line) is a cold miss.
    #[inline]
    pub fn miss_kind(&self, core: CoreId) -> MissKind {
        let bit = (1 as CoreMask) << core;
        if self.invalidated & bit != 0 {
            MissKind::Invalidation
        } else if self.touched & bit != 0 {
            // Held once, not invalidated since: the copy was replaced.
            MissKind::Eviction
        } else {
            MissKind::Cold
        }
    }
}

/// The open-addressed line table: `LineAddr -> DirEntry` with linear probing.
///
/// Keys and entries live in parallel flat vectors so a probe touches one contiguous
/// cache line of keys before loading the (larger) entry.
#[derive(Debug, Clone)]
pub struct LineTable {
    keys: Vec<LineAddr>,
    entries: Vec<DirEntry>,
    mask: usize,
    len: usize,
    /// Incremented on every growth.  Slot indices obtained from [`Self::ensure_slot`] /
    /// [`Self::slot_of`] are valid only while the generation is unchanged.
    generation: u64,
}

impl Default for LineTable {
    fn default() -> Self {
        Self::new()
    }
}

impl LineTable {
    /// Creates an empty table with the initial capacity.
    pub fn new() -> Self {
        LineTable {
            keys: vec![EMPTY; INITIAL_CAPACITY],
            entries: vec![DirEntry::default(); INITIAL_CAPACITY],
            mask: INITIAL_CAPACITY - 1,
            len: 0,
            generation: 0,
        }
    }

    /// The growth generation.  A slot index is invalidated whenever this changes (any
    /// operation that can insert a *new* line may grow the table); callers threading a
    /// slot through multi-step operations re-resolve with [`Self::slot_of`] when the
    /// generation moved.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The slot holding `line`, inserting a default entry if absent.  Amortized O(1);
    /// combined with [`Self::entry_at_mut`] this lets the hierarchy's miss path probe
    /// the table once and reuse the slot for every subsequent directory update.
    #[inline]
    pub fn ensure_slot(&mut self, line: LineAddr) -> usize {
        debug_assert_ne!(line, EMPTY, "line address collides with the empty sentinel");
        match probe(&self.keys, self.mask, line) {
            Ok(i) => i,
            Err(mut i) => {
                if needs_grow(self.len + 1, self.keys.len()) {
                    self.grow();
                    i = probe(&self.keys, self.mask, line)
                        .expect_err("line cannot appear during growth");
                }
                self.keys[i] = line;
                self.entries[i] = DirEntry::default();
                self.len += 1;
                i
            }
        }
    }

    /// The slot holding `line`, if present.
    #[inline]
    pub fn slot_of(&self, line: LineAddr) -> Option<usize> {
        probe(&self.keys, self.mask, line).ok()
    }

    /// The entry at an occupied slot (from [`Self::ensure_slot`] / [`Self::slot_of`],
    /// same generation).
    #[inline]
    pub fn entry_at(&self, slot: usize) -> &DirEntry {
        debug_assert_ne!(self.keys[slot], EMPTY, "slot is not occupied");
        &self.entries[slot]
    }

    /// Mutable entry at an occupied slot.
    #[inline]
    pub fn entry_at_mut(&mut self, slot: usize) -> &mut DirEntry {
        debug_assert_ne!(self.keys[slot], EMPTY, "slot is not occupied");
        &mut self.entries[slot]
    }

    /// Number of distinct lines recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no lines have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot count (always a power of two).
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Looks up the entry for `line`, if present.
    #[inline]
    pub fn get(&self, line: LineAddr) -> Option<&DirEntry> {
        probe(&self.keys, self.mask, line)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Returns a mutable entry for `line`, inserting a default entry if absent.
    ///
    /// Amortized O(1); only allocates when an insertion of a never-seen line pushes
    /// the table past its load factor — lookups of existing lines never grow it.
    #[inline]
    pub fn entry_mut(&mut self, line: LineAddr) -> &mut DirEntry {
        let slot = self.ensure_slot(line);
        &mut self.entries[slot]
    }

    /// Iterates over all `(line, entry)` pairs (slot order, not insertion order).
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &DirEntry)> {
        self.keys
            .iter()
            .zip(self.entries.iter())
            .filter(|(k, _)| **k != EMPTY)
            .map(|(k, e)| (*k, e))
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<LineAddr>()
            + self.entries.len() * std::mem::size_of::<DirEntry>()
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_entries = std::mem::replace(&mut self.entries, vec![DirEntry::default(); new_cap]);
        self.mask = new_cap - 1;
        self.generation += 1;
        for (k, e) in old_keys.into_iter().zip(old_entries) {
            if k == EMPTY {
                continue;
            }
            let i = probe(&self.keys, self.mask, k).expect_err("keys are unique");
            self.keys[i] = k;
            self.entries[i] = e;
        }
    }
}

/// A membership-only open-addressed set of line addresses.
#[derive(Debug, Clone)]
pub struct LineSet {
    keys: Vec<LineAddr>,
    mask: usize,
    len: usize,
}

impl Default for LineSet {
    fn default() -> Self {
        Self::new()
    }
}

impl LineSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        LineSet {
            keys: vec![EMPTY; INITIAL_CAPACITY],
            mask: INITIAL_CAPACITY - 1,
            len: 0,
        }
    }

    /// Number of distinct lines recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `line`; returns `true` if it was not already present.  Only grows the
    /// set on an actual insertion, never on a re-insert of a known line.
    #[inline]
    pub fn insert(&mut self, line: LineAddr) -> bool {
        debug_assert_ne!(line, EMPTY, "line address collides with the empty sentinel");
        match probe(&self.keys, self.mask, line) {
            Ok(_) => false,
            Err(mut i) => {
                if needs_grow(self.len + 1, self.keys.len()) {
                    self.grow();
                    i = probe(&self.keys, self.mask, line)
                        .expect_err("line cannot appear during growth");
                }
                self.keys[i] = line;
                self.len += 1;
                true
            }
        }
    }

    /// True if `line` has been inserted.
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        probe(&self.keys, self.mask, line).is_ok()
    }

    /// Removes all elements, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.len = 0;
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<LineAddr>()
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        self.mask = new_cap - 1;
        for k in old_keys {
            if k == EMPTY {
                continue;
            }
            let i = probe(&self.keys, self.mask, k).expect_err("keys are unique");
            self.keys[i] = k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_insert_get_round_trip() {
        let mut t = LineTable::new();
        assert!(t.get(42).is_none());
        t.entry_mut(42).sharers = 0b101;
        assert_eq!(t.get(42).unwrap().sharers, 0b101);
        assert_eq!(t.len(), 1);
        // entry_mut on an existing line returns the same entry.
        t.entry_mut(42).touched |= 1;
        assert_eq!(t.get(42).unwrap().sharers, 0b101);
        assert_eq!(t.get(42).unwrap().touched, 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn table_survives_growth() {
        let mut t = LineTable::new();
        // Insert far more lines than the initial capacity, with clustered keys.
        for i in 0..10_000u64 {
            t.entry_mut(i).sharers = i as CoreMask;
        }
        assert_eq!(t.len(), 10_000);
        assert!(t.capacity().is_power_of_two());
        for i in (0..10_000u64).step_by(97) {
            assert_eq!(
                t.get(i).unwrap().sharers,
                i as CoreMask,
                "line {i} lost in growth"
            );
        }
        assert_eq!(t.iter().count(), 10_000);
    }

    #[test]
    fn lookup_of_existing_line_at_load_threshold_does_not_grow() {
        let mut t = LineTable::new();
        // Fill to exactly the 75% load threshold of the initial capacity.
        let threshold = INITIAL_CAPACITY * 3 / 4;
        for i in 0..threshold as u64 {
            t.entry_mut(i);
        }
        let cap = t.capacity();
        assert_eq!(cap, INITIAL_CAPACITY, "should not have grown yet");
        // Hitting existing lines (the steady-state path) must never trigger growth.
        for _ in 0..3 {
            for i in 0..threshold as u64 {
                t.entry_mut(i).touched |= 1;
            }
        }
        assert_eq!(t.capacity(), cap, "lookups must not grow the table");
        // The next genuinely new line crosses the threshold and doubles.
        t.entry_mut(threshold as u64);
        assert_eq!(t.capacity(), cap * 2);
    }

    #[test]
    fn slots_survive_until_growth_and_generation_tracks_it() {
        let mut t = LineTable::new();
        let slot = t.ensure_slot(77);
        t.entry_at_mut(slot).sharers = 0b11;
        assert_eq!(t.slot_of(77), Some(slot));
        assert_eq!(t.entry_at(slot).sharers, 0b11);
        let gen = t.generation();
        // Inserting existing lines never grows.
        assert_eq!(t.ensure_slot(77), slot);
        assert_eq!(t.generation(), gen);
        // Push past the load factor: the table grows, the generation moves, and the
        // line is still findable at its (possibly new) slot.
        for i in 0..INITIAL_CAPACITY as u64 {
            t.ensure_slot(1_000_000 + i);
        }
        assert!(t.generation() > gen, "growth must bump the generation");
        let new_slot = t.slot_of(77).expect("line survives growth");
        assert_eq!(t.entry_at(new_slot).sharers, 0b11);
    }

    #[test]
    fn dir_entry_departure_semantics() {
        assert_eq!(std::mem::size_of::<DirEntry>(), 64); // three masks and the owner
        let mut e = DirEntry::default();
        assert_eq!(e.miss_kind(3), MissKind::Cold);
        // A fill marks the core; a copy that then leaves by replacement leaves no note.
        e.touched |= 1 << 3;
        assert_eq!(e.miss_kind(3), MissKind::Eviction);
        assert_eq!(e.miss_kind(4), MissKind::Cold);
        // An invalidation takes precedence, until the re-fetch clears it.
        e.invalidated |= 1 << 3;
        assert_eq!(e.miss_kind(3), MissKind::Invalidation);
        e.clear_departure(3);
        assert_eq!(e.miss_kind(3), MissKind::Eviction);
    }

    #[test]
    fn dir_entry_owner_round_trip() {
        let mut e = DirEntry::default();
        assert_eq!(e.owner_core(), None);
        e.set_owner(Some(7));
        assert_eq!(e.owner_core(), Some(7));
        e.set_owner(None);
        assert_eq!(e.owner_core(), None);
    }

    #[test]
    fn set_insert_contains_clear() {
        let mut s = LineSet::new();
        assert!(s.insert(9));
        assert!(!s.insert(9));
        assert!(s.contains(9));
        assert!(!s.contains(10));
        for i in 0..5_000u64 {
            s.insert(i * 3);
        }
        assert_eq!(s.len(), 5_000); // 9 is a multiple of 3
        assert!(s.contains(4_998 * 3 / 3 * 3));
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(9));
    }
}
