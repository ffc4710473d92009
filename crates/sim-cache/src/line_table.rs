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
//! * an entry holds only what every directory lookup reads (sharers, owner, line): 32
//!   bytes; the touched bits and invalidation notes, read only when a private cache
//!   misses, sit beside the entries in per-core bit planes, two bits a line a core,
//! * a small open-addressed index (linear probing over a power-of-two capacity, index =
//!   mixed key & mask) maps a line to its slot through 8-byte `(hash fragment, slot +
//!   1)` pairs, confirmed against the entry; only the index is re-filed on growth,
//! * nothing is ever removed — an entry's bitmasks are merely cleared: sharer bits drop
//!   to zero but the line's notes remain useful for miss classification,
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

/// Per-line directory entry: what every directory lookup reads about one cache line —
/// the cores holding it, one bit per core in a [`CoreMask`] (the hierarchy supports at
/// most [`crate::MAX_CORES`] cores), its modified owner, and the line itself.  The mask
/// is 16-byte aligned, so the line and the owner fill the second half: 32 bytes, two
/// entries a host cache line.  A core's touched bit and invalidation note for the line
/// are kept by [`LineTable`], beside the entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirEntry {
    /// Bitmask of cores holding the line in their private caches (exact: bit `c` is set
    /// exactly when core `c`'s L2 holds the line).
    pub sharers: CoreMask,
    /// The line this entry describes (what [`LineTable`] confirms an index hit against
    /// and re-files its index from).
    line: LineAddr,
    /// Core holding the line in Modified state; [`DirEntry::NO_OWNER`] if none.
    pub owner: u8,
}

impl DirEntry {
    /// Sentinel `owner` value meaning "no modified owner".
    pub const NO_OWNER: u8 = u8::MAX;

    /// The entry of a never-seen line: no sharer, no owner.
    pub fn new(line: LineAddr) -> Self {
        DirEntry {
            sharers: 0,
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
}

/// A line's position in the directory's entry vector, and the tag the L2s and the L3
/// file it under.  `u32::MAX` is no line's slot (the caches' empty way): the index
/// stores `slot + 1` in a `u32`, so [`LineTable::ensure_slot`] panics one line earlier.
pub type Slot = u32;

/// One core's notes on 64 consecutive slots: bit `slot % 64` of each word is the
/// slot's.
#[derive(Debug, Clone, Copy, Default)]
struct Notes {
    /// Lines the core has filled at least once (cold-miss detection).
    touched: u64,
    /// Lines whose copy a coherence invalidation took from the core since its last
    /// fill; the note outlives a later eviction.  (A copy that left by replacement
    /// needs no note: the core has touched the line, is not a sharer, and has no note.)
    invalidated: u64,
}

/// The line directory: `LineAddr -> DirEntry`, dense, with each core's notes on each
/// line beside it.
///
/// Entries sit in one vector in first-touch order and a line's *slot* is its position
/// there — handed out once by [`Self::ensure_slot`], valid for the table's lifetime,
/// whatever is inserted afterwards.  Finding a line's slot is a linear probe of a
/// power-of-two index of 8-byte `(hash fragment, slot + 1)` pairs: the fragment is the
/// high half of the line's hash (the low bits pick the position), and a matching
/// fragment is confirmed against the entry's line, the entry the caller reads next.
/// An all-zero pair is an empty position.  Growth doubles the index where it stands
/// and re-files it from the entries, which stay put.
///
/// The notes are bit planes, one pair of words per core per 64 slots, grown with the
/// entries: two bits a line a core, so a line costs 32 bytes of entry plus `cores / 4`
/// bytes of notes.
#[derive(Debug, Clone)]
pub struct LineTable {
    index: Vec<(u32, u32)>,
    entries: Vec<DirEntry>,
    /// Slot `s`'s notes for core `c` are bit `s % 64` of `notes[s / 64 * cores + c]`.
    notes: Vec<Notes>,
    cores: usize,
}

impl LineTable {
    /// Creates an empty table keeping notes for `cores` cores, with the initial index
    /// capacity.
    pub fn new(cores: usize) -> Self {
        LineTable {
            index: vec![(0, 0); INITIAL_CAPACITY],
            entries: Vec::new(),
            notes: Vec::new(),
            cores,
        }
    }

    /// Linear probe of the index: `Ok(slot)` if `line` is present, `Err(i)` with the
    /// empty index position it would be filed at.
    #[inline]
    fn find(&self, line: LineAddr) -> Result<Slot, usize> {
        let hash = mix(line);
        let mask = self.index.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let (fragment, slot1) = self.index[i];
            if slot1 == 0 {
                return Err(i);
            }
            if fragment == fragment_of(hash) && self.entries[slot1 as usize - 1].line == line {
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
    /// index has grown, where it then belongs; a slot that opens a run of 64 brings
    /// every core's notes on the run.
    fn insert(&mut self, line: LineAddr, mut at: usize) -> Slot {
        let slot = self.entries.len();
        let slot1 = slot_plus_one(slot);
        if needs_grow(slot + 1, self.index.len()) {
            self.grow();
            at = self
                .find(line)
                .expect_err("line cannot appear during growth");
        }
        self.index[at] = (fragment_of(mix(line)), slot1);
        self.entries.push(DirEntry::new(line));
        if slot.is_multiple_of(64) {
            let notes = self.notes.len() + self.cores;
            self.notes.resize(notes, Notes::default());
        }
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

    /// Where `core`'s notes on `slot` are: the word pair, and the slot's bit in it.
    #[inline]
    fn notes_of(&self, slot: Slot, core: CoreId) -> (usize, u64) {
        debug_assert!(core < self.cores, "core {core} has no notes");
        ((slot as usize / 64) * self.cores + core, 1 << (slot % 64))
    }

    /// Ground-truth classification of a private-cache miss by `core` on the line at
    /// `slot`, asked before the fill's [`Self::note_fill`].  A line the core never
    /// filled (a new entry, for one) is a cold miss.
    #[inline]
    pub fn miss_kind(&self, slot: Slot, core: CoreId) -> MissKind {
        let (at, bit) = self.notes_of(slot, core);
        let notes = self.notes[at];
        if notes.invalidated & bit != 0 {
            MissKind::Invalidation
        } else if notes.touched & bit != 0 {
            // Held once, not invalidated since: the copy was replaced.
            MissKind::Eviction
        } else {
            MissKind::Cold
        }
    }

    /// Records `core`'s fill of the line at `slot`: the core has touched the line, and
    /// its departure is cleared — an invalidation note, if it had one, is spent.
    #[inline]
    pub fn note_fill(&mut self, slot: Slot, core: CoreId) {
        let (at, bit) = self.notes_of(slot, core);
        let notes = &mut self.notes[at];
        notes.touched |= bit;
        notes.invalidated &= !bit;
    }

    /// Records that a coherence invalidation took `core`'s copy of the line at `slot`,
    /// so the core's next miss on it is an invalidation miss.
    #[inline]
    pub fn note_invalidation(&mut self, slot: Slot, core: CoreId) {
        let (at, bit) = self.notes_of(slot, core);
        self.notes[at].invalidated |= bit;
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

    /// Heap footprint in bytes: the index positions, the entries pushed and the notes
    /// on their runs of 64 slots.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&self.index[..])
            + std::mem::size_of_val(&self.entries[..])
            + std::mem::size_of_val(&self.notes[..])
    }

    fn grow(&mut self) {
        let positions = self.index.len() * 2;
        // Emptied and lengthened where it stands: the entries say all the old index
        // said, and the pages it had are the new one's lower half.
        self.index.clear();
        self.index.resize(positions, (0, 0));
        for (slot, e) in self.entries.iter().enumerate() {
            let at = self.find(e.line).expect_err("lines are unique");
            self.index[at] = (fragment_of(mix(e.line)), slot as u32 + 1);
        }
    }
}

/// The part of a line's hash its index pair keeps: the high half, which the probe's
/// starting position (the low bits) does not already say.
#[inline]
fn fragment_of(hash: u64) -> u32 {
    (hash >> 32) as u32
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
        let mut t = LineTable::new(2);
        assert!(t.get(42).is_none());
        t.entry_mut(42).sharers = 0b101;
        assert_eq!(t.get(42).unwrap().sharers, 0b101);
        assert_eq!(t.len(), 1);
        // entry_mut on an existing line returns the same entry.
        t.entry_mut(42).owner = 1;
        assert_eq!(t.get(42).unwrap().sharers, 0b101);
        assert_eq!(t.get(42).unwrap().owner_core(), Some(1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn table_survives_growth() {
        let mut t = LineTable::new(2);
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
        let mut t = LineTable::new(2);
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
                let slot = t.ensure_slot(i);
                t.note_fill(slot, 1);
            }
        }
        assert_eq!(t.index.len(), cap, "lookups must not grow the table");
        // The next genuinely new line crosses the threshold and doubles.
        t.entry_mut(threshold as u64);
        assert_eq!(t.index.len(), cap * 2);
    }

    #[test]
    fn a_slot_names_its_line_for_good() {
        let mut t = LineTable::new(2);
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
    fn footprint_counts_index_positions_pushed_entries_and_their_notes() {
        let mut t = LineTable::new(16);
        assert_eq!(t.heap_bytes(), INITIAL_CAPACITY * 8);
        // One run of 64 slots: 16 bytes of notes a core.
        for i in 0..10u64 {
            t.entry_mut(i * 4096);
        }
        assert_eq!(t.heap_bytes(), INITIAL_CAPACITY * 8 + 10 * 32 + 16 * 16);
        for i in 10..65u64 {
            t.entry_mut(i * 4096);
        }
        assert_eq!(t.heap_bytes(), INITIAL_CAPACITY * 8 + 65 * 32 + 2 * 16 * 16);
    }

    /// The model's classification of a miss by `core`, from its `[touched,
    /// invalidated]` masks.
    fn model_miss_kind(notes: [CoreMask; 2], core: CoreId) -> MissKind {
        if notes[1] >> core & 1 == 1 {
            MissKind::Invalidation
        } else if notes[0] >> core & 1 == 1 {
            MissKind::Eviction
        } else {
            MissKind::Cold
        }
    }

    /// Two sequential lines whose hashes share their high halves, the index's
    /// fragment: the first such pair from line 0 up, which the birthday bound puts
    /// within about 10^5 lines.
    fn colliding_fragments() -> (LineAddr, LineAddr) {
        let mut seen = std::collections::HashMap::new();
        (0..)
            .find_map(|line| {
                let first = seen.insert(fragment_of(mix(line)), line)?;
                Some((first, line))
            })
            .expect("a fragment repeats within 2^32 + 1 lines")
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Generated `ensure_slot` / `entry_mut` / `get` / `slot_of` / note sequences
        /// at 128 cores against a `HashMap` of entries and notes and the first-touch
        /// order kept beside it, over at least four growths of the index.
        #[test]
        fn table_equals_the_hashmap_model(
            layout in 0usize..5,
            ops in proptest::collection::vec(
                (0u8..10, proptest::prelude::any::<u32>()),
                10_000..12_000,
            ),
        ) {
            use proptest::prelude::*;
            use std::collections::HashMap;
            // Clustered, page-strided, both ends of the key space (0 and `u64::MAX`
            // are lines like any other here), random, and random with one line in
            // eight a neighbour of two lines whose index fragments are equal.
            let pair = colliding_fragments();
            let line_of = |x: u32| -> LineAddr {
                let y = u64::from(x >> 8);
                match layout {
                    0 => y,
                    1 => y << 12,
                    2 => u64::MAX - y,
                    4 if x.is_multiple_of(8) => {
                        let line = [pair.0, pair.1][(x >> 3) as usize % 2];
                        line.wrapping_add(y % 3).wrapping_sub(1)
                    }
                    _ => mix(y),
                }
            };
            let mut t = LineTable::new(128);
            let mut model: HashMap<LineAddr, (Slot, DirEntry, [CoreMask; 2])> = HashMap::new();
            let mut order: Vec<LineAddr> = Vec::new();
            let mut growths = 0;

            for (step, &(op, x)) in ops.iter().enumerate() {
                // Lookups ask for a known line half the time.
                let line = match order.len() {
                    n if n > 0 && op >= 7 && x & 1 == 1 => order[x as usize % n],
                    _ => line_of(x),
                };
                let core = (x % 128) as CoreId;
                let capacity = t.index.len();
                match op {
                    0..=6 => {
                        let known = model.entry(line).or_insert_with(|| {
                            order.push(line);
                            (order.len() as Slot - 1, DirEntry::new(line), [0; 2])
                        });
                        let slot = t.ensure_slot(line);
                        prop_assert_eq!(slot, known.0, "step {}: slot of {:#x}", step, line);
                        let bit = (1 as CoreMask) << core;
                        match (op, x >> 7 & 1) {
                            (6, 0) => {
                                t.note_fill(slot, core);
                                known.2 = [known.2[0] | bit, known.2[1] & !bit];
                            }
                            (6, _) => {
                                t.note_invalidation(slot, core);
                                known.2[1] |= bit;
                            }
                            _ => {}
                        }
                    }
                    7 => {
                        if let Some(known) = model.get_mut(&line) {
                            for e in [t.entry_at_mut(known.0), &mut known.1] {
                                e.sharers |= 1 << core;
                                e.set_owner(Some(core));
                            }
                        }
                    }
                    8 => {
                        let known = model.get(&line);
                        prop_assert_eq!(
                            t.get(line), known.map(|known| &known.1),
                            "step {}: get {:#x}", step, line
                        );
                        if let Some(&(slot, _, notes)) = known {
                            prop_assert_eq!(
                                t.miss_kind(slot, core), model_miss_kind(notes, core),
                                "step {}: core {}'s notes on {:#x}", step, core, line
                            );
                        }
                    }
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
            for (slot, line) in (0..).zip(&order) {
                for core in 0..128 {
                    prop_assert_eq!(
                        t.miss_kind(slot, core), model_miss_kind(model[line].2, core),
                        "core {}'s notes on {:#x}", core, line
                    );
                }
            }
        }
    }

    /// Two lines with one fragment: the second's probe is made to walk over the first's
    /// pair, which only the confirmation against the entry tells apart; then both, with
    /// their neighbours, are filed again across a growth.
    #[test]
    fn lines_with_equal_fragments_keep_their_own_slots() {
        let (a, b) = colliding_fragments();
        assert_ne!(a, b);
        let home = |line| mix(line) as usize % INITIAL_CAPACITY;
        // The first-filed line sits at most half the index ahead of the other's home.
        let ahead = |from: usize, to: usize| (to + INITIAL_CAPACITY - from) % INITIAL_CAPACITY;
        let (first, second) = if ahead(home(b), home(a)) <= INITIAL_CAPACITY / 2 {
            (a, b)
        } else {
            (b, a)
        };
        let mut t = LineTable::new(2);
        assert_eq!(t.ensure_slot(first), 0);
        // Fill every position from the second line's home up to the first's with a
        // line whose home it is, so the second line's probe passes the first's pair.
        let mut fillers = (1u64 << 40..).filter(|&l| l != a && l != b);
        let mut position = home(second);
        while position != home(first) {
            let filler = fillers.by_ref().find(|&l| home(l) == position).unwrap();
            t.ensure_slot(filler);
            position = (position + 1) % INITIAL_CAPACITY;
        }
        assert_eq!(t.index.len(), INITIAL_CAPACITY, "no growth yet");
        assert_eq!(t.slot_of(second), None, "a fragment alone is not the line");
        assert!(t.get(second).is_none());
        let slot = t.ensure_slot(second);
        assert_eq!(slot as usize, t.len() - 1);
        for (line, slot) in [(first, 0), (second, slot)] {
            assert_eq!(t.slot_of(line), Some(slot));
            assert_eq!(t.ensure_slot(line), slot);
            assert_eq!(t.get(line).map(DirEntry::line), Some(line));
        }
        // The neighbours of both, then sequential lines past the load threshold.
        let mut filed: Vec<(LineAddr, Slot)> =
            t.iter().zip(0..).map(|((l, _), s)| (l, s)).collect();
        let neighbours = [a, b]
            .into_iter()
            .flat_map(|l| [l.wrapping_sub(1), l + 1, l + 2]);
        for line in neighbours.chain(1u64 << 50..(1u64 << 50) + 1_000) {
            if t.slot_of(line).is_none() {
                filed.push((line, t.ensure_slot(line)));
            }
        }
        assert!(t.index.len() > INITIAL_CAPACITY, "the index grew");
        for &(line, slot) in &filed {
            assert_eq!(t.slot_of(line), Some(slot), "{line:#x}");
            assert_eq!(t.ensure_slot(line), slot, "{line:#x}");
            assert_eq!(t.get(line).map(DirEntry::line), Some(line));
        }
    }

    #[test]
    fn the_layout_is_a_32_byte_entry_and_an_8_byte_index_pair() {
        assert_eq!(std::mem::size_of::<DirEntry>(), 32); // a mask, the line, the owner
        assert_eq!(std::mem::size_of_val(&LineTable::new(1).index[0]), 8);
        assert_eq!(std::mem::size_of::<Notes>(), 16); // two bits a line, 64 lines
    }

    #[test]
    fn notes_classify_misses_per_core() {
        let mut t = LineTable::new(128);
        for line in 0..200 {
            assert_eq!(t.ensure_slot(line << 12), line as Slot);
        }
        // Slots 0 and 64 open the first two runs of notes; 127 and 128 sit either side
        // of the second run's end.
        for slot in [0, 64, 127, 128] {
            for core in [0, 3, 63, 64, 127] {
                assert_eq!(t.miss_kind(slot, core), MissKind::Cold);
                // A fill marks the core; a copy that then leaves by replacement leaves
                // no note.
                t.note_fill(slot, core);
                assert_eq!(t.miss_kind(slot, core), MissKind::Eviction);
                // An invalidation takes precedence, until the re-fetch clears it.
                t.note_invalidation(slot, core);
                assert_eq!(t.miss_kind(slot, core), MissKind::Invalidation);
            }
            assert_eq!(t.miss_kind(slot, 4), MissKind::Cold);
            t.note_fill(slot, 3);
            assert_eq!(t.miss_kind(slot, 3), MissKind::Eviction);
            assert_eq!(t.miss_kind(slot, 127), MissKind::Invalidation);
        }
        // Nobody's notes leaked onto a neighbouring slot.
        for slot in [1, 63, 65, 126, 129] {
            assert!((0..128).all(|core| t.miss_kind(slot, core) == MissKind::Cold));
        }
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
