//! The line directory: a flat table keyed by cache-line address.
//!
//! The per-access hot path of the hierarchy needs three pieces of per-line bookkeeping
//! (directory sharers/owner, invalidation notes, touched bits).  Storing them in
//! `std::collections::HashMap`s costs a SipHash computation plus a pointer chase per
//! lookup, and the per-core `departures`/`touched` maps allocate on nearly every miss.
//! [`LineTable`] replaces all of that with one dense table:
//!
//! * the entries are a vector in first-touch order, sized by the lines a session
//!   touched and by nothing else; a line's [`Slot`] is its position there and never
//!   moves, which is what lets the L2s and the L3 file a line under its slot,
//! * a small open-addressed index (linear probing over a power-of-two capacity, index =
//!   mixed key & mask) maps a line to its slot; only the index is re-filed on growth,
//! * nothing is ever removed — an entry's bitmasks are merely cleared: sharer bits drop
//!   to zero but the line's history remains useful for miss classification,
//! * zero allocation per access in the steady state: the table only grows (amortized)
//!   when a previously-unseen line is inserted.

use crate::{CoreId, CoreMask, LineAddr, MissKind};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};

/// Initial capacity of a table's index, in positions; a power of two.
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

/// `BuildHasher` of [`MixHasher`], unkeyed: never for a map keyed by strings or numbers
/// read from outside the program — that is [`BuildKeyedMixHasher`]'s, and the only
/// thing that tells the two apart.
pub type BuildMixHasher = BuildHasherDefault<MixHasher>;

/// `BuildHasher` of [`MixHasher`] for keys that arrive from outside the program (the
/// report fold's type and function names, which a collector reads from pushed
/// documents): every map starts its hashers from a state of the process's
/// [`RandomState`], so a document cannot aim its names at one bucket of a mixer anyone
/// can invert.  [`BuildMixHasher`] is for keys the simulator makes itself.
#[derive(Debug, Clone)]
pub struct BuildKeyedMixHasher(u64);

impl Default for BuildKeyedMixHasher {
    fn default() -> Self {
        BuildKeyedMixHasher(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for BuildKeyedMixHasher {
    type Hasher = MixHasher;

    fn build_hasher(&self) -> MixHasher {
        MixHasher(self.0)
    }
}

impl Hasher for MixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Strings (the report fold's type and function names).  Whole words but the last
    /// are folded in with a multiply and a rotate; the last eight bytes — read
    /// overlapping the word before when the length is no multiple of eight, so no tail
    /// is copied — go with the length through the full mixer, which every hash ends in
    /// (`str` adds its `0xff` terminator through here, another full round).
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let n = bytes.len();
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let half = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let last = if n >= 8 {
            let mut at = 0;
            while at + 8 < n {
                let folded = (self.0 ^ word(at)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                self.0 = folded.rotate_left(26);
                at += 8;
            }
            word(n - 8)
        } else if n >= 4 {
            u64::from(half(0)) | u64::from(half(n - 4)) << 32
        } else if n > 0 {
            u64::from(bytes[0]) | u64::from(bytes[n / 2]) << 8 | u64::from(bytes[n - 1]) << 16
        } else {
            0
        };
        self.write_u64(last ^ (n as u64).rotate_right(8));
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

/// Per-line directory entry: everything the hierarchy tracks about one cache line,
/// packed into bitmasks indexed by core (the hierarchy supports at most
/// [`crate::MAX_CORES`] cores — one bit per core in a [`CoreMask`]).  The three masks
/// are 16-byte aligned, so the line and the owner ride in what would be padding: 64
/// bytes, one host cache line.
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
    /// The line this entry describes (what [`LineTable`] re-files its index from).
    line: LineAddr,
    /// Core holding the line in Modified state; [`DirEntry::NO_OWNER`] if none.
    pub owner: u8,
}

impl DirEntry {
    /// Sentinel `owner` value meaning "no modified owner".
    pub const NO_OWNER: u8 = u8::MAX;

    /// The entry of a never-seen line: no sharer, no owner, touched by nobody.
    pub fn new(line: LineAddr) -> Self {
        DirEntry {
            sharers: 0,
            touched: 0,
            invalidated: 0,
            line,
            owner: DirEntry::NO_OWNER,
        }
    }

    /// The line this entry describes.
    #[inline]
    pub fn line(&self) -> LineAddr {
        self.line
    }

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
    /// asked before the fill marks the core in `touched`.  A new entry (a never-seen
    /// line) is a cold miss.
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

/// A line's position in the directory's entry vector, and the tag the L2s and the L3
/// file it under.  `u32::MAX` is no line's slot (the caches' empty way): the index
/// stores `slot + 1` in a `u32`, so [`LineTable::ensure_slot`] panics one line earlier.
pub type Slot = u32;

/// The line directory: `LineAddr -> DirEntry`, dense.
///
/// Entries sit in one vector in first-touch order and a line's *slot* is its position
/// there — handed out once by [`Self::ensure_slot`], valid for the table's lifetime,
/// whatever is inserted afterwards.  Finding a line's slot is a linear probe of a
/// power-of-two index of 16-byte `(line, slot + 1)` pairs, key and slot in one load;
/// an all-zero pair is an empty position.  Growth doubles the index where it stands
/// and re-files it from the entries, which stay put.
#[derive(Debug, Clone)]
pub struct LineTable {
    index: Vec<(LineAddr, u32)>,
    entries: Vec<DirEntry>,
}

impl Default for LineTable {
    fn default() -> Self {
        Self::new()
    }
}

impl LineTable {
    /// Creates an empty table with the initial index capacity.
    pub fn new() -> Self {
        LineTable {
            index: vec![(0, 0); INITIAL_CAPACITY],
            entries: Vec::new(),
        }
    }

    /// Linear probe of the index: `Ok(slot)` if `line` is present, `Err(i)` with the
    /// empty index position it would be filed at.
    #[inline]
    fn find(&self, line: LineAddr) -> Result<Slot, usize> {
        let mask = self.index.len() - 1;
        let mut i = (mix(line) as usize) & mask;
        loop {
            let (key, slot1) = self.index[i];
            if slot1 == 0 {
                return Err(i);
            }
            if key == line {
                return Ok(slot1 - 1);
            }
            i = (i + 1) & mask;
        }
    }

    /// The slot holding `line`, inserting a new entry if absent.  Amortized O(1);
    /// combined with [`Self::entry_at_mut`] this lets the hierarchy's miss path probe
    /// the table once and reuse the slot for every subsequent directory update.
    #[inline]
    pub fn ensure_slot(&mut self, line: LineAddr) -> Slot {
        match self.find(line) {
            Ok(slot) => slot,
            Err(at) => self.insert(line, at),
        }
    }

    /// Appends a never-seen line's entry, filed at index position `at` or, once the
    /// index has grown, where it then belongs.
    fn insert(&mut self, line: LineAddr, mut at: usize) -> Slot {
        let slot1 = slot_plus_one(self.entries.len());
        if needs_grow(self.entries.len() + 1, self.index.len()) {
            self.grow();
            at = self
                .find(line)
                .expect_err("line cannot appear during growth");
        }
        self.index[at] = (line, slot1);
        self.entries.push(DirEntry::new(line));
        slot1 - 1
    }

    /// The slot holding `line`, if present.
    #[inline]
    pub fn slot_of(&self, line: LineAddr) -> Option<Slot> {
        self.find(line).ok()
    }

    /// The entry at a slot from [`Self::ensure_slot`] / [`Self::slot_of`].
    #[inline]
    pub fn entry_at(&self, slot: Slot) -> &DirEntry {
        &self.entries[slot as usize]
    }

    /// Mutable entry at a slot.
    #[inline]
    pub fn entry_at_mut(&mut self, slot: Slot) -> &mut DirEntry {
        &mut self.entries[slot as usize]
    }

    /// Number of distinct lines recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no lines have been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the entry for `line`, if present.
    #[inline]
    pub fn get(&self, line: LineAddr) -> Option<&DirEntry> {
        self.find(line).ok().map(|slot| self.entry_at(slot))
    }

    /// Returns a mutable entry for `line`, inserting a new entry if absent.
    ///
    /// Amortized O(1); only allocates when an insertion of a never-seen line grows the
    /// entry vector or pushes the index past its load factor — lookups of existing
    /// lines never do.
    #[inline]
    pub fn entry_mut(&mut self, line: LineAddr) -> &mut DirEntry {
        let slot = self.ensure_slot(line);
        self.entry_at_mut(slot)
    }

    /// Iterates over all `(line, entry)` pairs, in slot (first-touch) order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &DirEntry)> {
        self.entries.iter().map(|e| (e.line, e))
    }

    /// Heap footprint in bytes: the index positions and the entries pushed.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&self.index[..]) + std::mem::size_of_val(&self.entries[..])
    }

    fn grow(&mut self) {
        let positions = self.index.len() * 2;
        // Emptied and lengthened where it stands: the entries say all the old index
        // said, and the pages it had are the new one's lower half.
        self.index.clear();
        self.index.resize(positions, (0, 0));
        for (slot, e) in self.entries.iter().enumerate() {
            let at = self.find(e.line).expect_err("lines are unique");
            self.index[at] = (e.line, slot as u32 + 1);
        }
    }
}

/// What the index stores for a new entry at position `slot`: `slot + 1`, zero being an
/// empty index position.  Where a [`Slot`] is made, and it refuses `u32::MAX`.
#[inline]
fn slot_plus_one(slot: usize) -> u32 {
    let slot1 = u32::try_from(slot + 1).ok();
    slot1.expect("a directory holds fewer than 2^32 - 1 lines")
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
        assert!(t.index.len().is_power_of_two());
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
        let cap = t.index.len();
        assert_eq!(cap, INITIAL_CAPACITY, "should not have grown yet");
        // Hitting existing lines (the steady-state path) must never trigger growth.
        for _ in 0..3 {
            for i in 0..threshold as u64 {
                t.entry_mut(i).touched |= 1;
            }
        }
        assert_eq!(t.index.len(), cap, "lookups must not grow the table");
        // The next genuinely new line crosses the threshold and doubles.
        t.entry_mut(threshold as u64);
        assert_eq!(t.index.len(), cap * 2);
    }

    #[test]
    fn a_slot_names_its_line_for_good() {
        let mut t = LineTable::new();
        let slot = t.ensure_slot(77);
        t.entry_at_mut(slot).sharers = 0b11;
        assert_eq!(t.slot_of(77), Some(slot));
        assert_eq!(t.ensure_slot(77), slot);
        // Slots are dense and in first-touch order, and growth re-files the index only.
        for i in 0..4 * INITIAL_CAPACITY as u64 {
            assert_eq!(t.ensure_slot(1_000_000 + i), 1 + i as Slot);
        }
        assert!(t.index.len() > INITIAL_CAPACITY, "the index grew");
        assert_eq!(t.slot_of(77), Some(slot));
        assert_eq!(t.entry_at(slot).sharers, 0b11);
        assert_eq!(t.iter().next().map(|(line, _)| line), Some(77));
    }

    #[test]
    fn the_last_slot_is_one_short_of_the_caches_empty_tag() {
        use crate::cache::Tag;
        // `slot + 1` has to fit the index's `u32`, so the largest slot ever handed out
        // is `u32::MAX - 1` and the slot-tagged caches' "no line here" names no line.
        assert_eq!(
            slot_plus_one(u32::MAX as usize - 1) - 1,
            <Slot as Tag>::INVALID - 1
        );
        assert!(std::panic::catch_unwind(|| slot_plus_one(u32::MAX as usize)).is_err());
    }

    #[test]
    fn mix_hasher_takes_strings_a_word_at_a_time() {
        use std::hash::BuildHasher;
        let hash = |s: &str| BuildMixHasher::default().hash_one(s);
        // Same bytes, same hash; a different byte anywhere, a prefix, or zero padding:
        // another.
        let names = [
            "",
            "a",
            "b",
            "ab",
            "ab\0",
            "skbuff",
            "skbuff\0\0",
            "size-1024",
            "size-1025",
            "tcp_sendmsg_locked",
            "tcp_sendmsg_lockee",
            "dev_queue_xmit__",
            "dev_queue_xmit_",
            "_dev_queue_xmit_",
            "tcp_sendmsg_locked\0",
        ];
        for (i, a) in names.iter().enumerate() {
            assert_eq!(hash(a), hash(String::from(*a).as_str()));
            for b in &names[i + 1..] {
                assert_ne!(hash(a), hash(b), "{a:?} against {b:?}");
            }
        }
        // An integer key hashes as it always did: `write` is not on that path.
        let mut h = MixHasher::default();
        h.write_u64(42);
        assert_eq!(h.finish(), mix(42));
        // Keyed: one map hashes a name one way, two maps (almost surely) two ways.
        let (one, other) = (
            BuildKeyedMixHasher::default(),
            BuildKeyedMixHasher::default(),
        );
        assert_eq!(one.hash_one("skbuff"), one.clone().hash_one("skbuff"));
        assert_ne!(one.hash_one("skbuff"), other.hash_one("skbuff"));
        // The key goes in before the first word, so it reaches a name of several.
        let long = "tcp_sendmsg_locked_and_then_some";
        assert_eq!(one.hash_one(long), one.clone().hash_one(long));
        assert_ne!(one.hash_one(long), other.hash_one(long));
    }

    #[test]
    fn footprint_counts_index_positions_and_pushed_entries() {
        let mut t = LineTable::new();
        assert_eq!(t.heap_bytes(), INITIAL_CAPACITY * 16);
        for i in 0..10u64 {
            t.entry_mut(i * 4096);
        }
        assert_eq!(t.heap_bytes(), INITIAL_CAPACITY * 16 + 10 * 64);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Generated `ensure_slot` / `entry_mut` / `get` / `slot_of` sequences against
        /// a `HashMap` of entries and the first-touch order kept beside it, over at
        /// least four growths of the index.
        #[test]
        fn table_equals_the_hashmap_model(
            layout in 0usize..4,
            ops in proptest::collection::vec(
                (0u8..10, proptest::prelude::any::<u32>()),
                10_000..12_000,
            ),
        ) {
            use proptest::prelude::*;
            use std::collections::HashMap;
            // Clustered, page-strided, and both ends of the key space (0 and
            // `u64::MAX` are lines like any other here).
            let line_of = |x: u32| -> LineAddr {
                let x = u64::from(x >> 8);
                match layout {
                    0 => x,
                    1 => x << 12,
                    2 => u64::MAX - x,
                    _ => mix(x),
                }
            };
            let mut t = LineTable::new();
            let mut model: HashMap<LineAddr, (Slot, DirEntry)> = HashMap::new();
            let mut order: Vec<LineAddr> = Vec::new();
            let mut growths = 0;

            for (step, &(op, x)) in ops.iter().enumerate() {
                // Lookups ask for a known line half the time.
                let line = match order.len() {
                    n if n > 0 && op >= 7 && x & 1 == 1 => order[x as usize % n],
                    _ => line_of(x),
                };
                let capacity = t.index.len();
                match op {
                    0..=6 => {
                        let known = model.entry(line).or_insert_with(|| {
                            order.push(line);
                            (order.len() as Slot - 1, DirEntry::new(line))
                        });
                        if op == 6 {
                            t.entry_mut(line).touched ^= CoreMask::from(x) << 64 | 1;
                            known.1.touched ^= CoreMask::from(x) << 64 | 1;
                        } else {
                            let slot = t.ensure_slot(line);
                            prop_assert_eq!(slot, known.0, "step {}: slot of {:#x}", step, line);
                        }
                    }
                    7 => {
                        if let Some(known) = model.get_mut(&line) {
                            for e in [t.entry_at_mut(known.0), &mut known.1] {
                                e.sharers |= 1 << (x % 128);
                                e.set_owner(Some((x % 128) as CoreId));
                            }
                        }
                    }
                    8 => prop_assert_eq!(
                        t.get(line), model.get(&line).map(|known| &known.1),
                        "step {}: get {:#x}", step, line
                    ),
                    _ => prop_assert_eq!(
                        t.slot_of(line), model.get(&line).map(|known| known.0),
                        "step {}: slot_of {:#x}", step, line
                    ),
                }
                prop_assert_eq!(t.len(), model.len(), "step {}", step);
                if t.index.len() != capacity {
                    growths += 1;
                    // Every slot handed out before the growth names the line it named.
                    for (slot, &line) in (0..).zip(&order) {
                        prop_assert_eq!(t.entry_at(slot).line, line);
                        prop_assert_eq!(t.slot_of(line), Some(slot), "growth {}", growths);
                    }
                }
            }
            prop_assert!(growths >= 4, "only {} growths", growths);
            prop_assert_eq!(t.is_empty(), order.is_empty());
            let walked: Vec<(LineAddr, DirEntry)> = t.iter().map(|(line, e)| (line, *e)).collect();
            let expected: Vec<(LineAddr, DirEntry)> =
                order.iter().map(|line| (*line, model[line].1)).collect();
            prop_assert_eq!(walked, expected);
        }
    }

    #[test]
    fn dir_entry_departure_semantics() {
        assert_eq!(std::mem::size_of::<DirEntry>(), 64); // three masks and the owner
        let mut e = DirEntry::new(0);
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
        let mut e = DirEntry::new(0);
        assert_eq!(e.owner_core(), None);
        e.set_owner(Some(7));
        assert_eq!(e.owner_core(), Some(7));
        e.set_owner(None);
        assert_eq!(e.owner_core(), None);
    }
}
