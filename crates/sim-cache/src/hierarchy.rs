//! The multi-core cache hierarchy: per-core L1/L2, shared L3, directory-based MESI.
//!
//! The per-access hot path is deliberately flat: the private caches are
//! struct-of-arrays [`SetAssocCache`]s, and all per-line coherence bookkeeping lives in
//! a single dense [`LineTable`] instead of the seed's `HashMap`/`HashSet` trio: a
//! 32-byte entry a line for what every lookup reads (sharer mask, modified owner), and
//! beside it the per-core touched bits and invalidation notes that only a private miss
//! reads (to classify itself) or writes (its fill, and each copy an invalidation takes).
//! In the steady state an access performs no heap allocation (verified by the
//! `alloc_steady_state` integration test) and no SipHash computations.
//!
//! Three invariants keep the path short, and [`CacheHierarchy::check_coherence_invariants`]
//! checks all of them.  *Inclusion*: a line resident in a core's L1 is resident in that
//! core's L2, in the same state (every L1 fill is paired with an L2 fill or follows an L2
//! hit, every L2 departure drops the L1 copy, and state changes are applied to both), so
//! remote invalidation or downgrade touches an L1 only when the L2 had the line.
//! *Ownership*: a line Modified on a core has that core as its directory owner and
//! sharer, so a write hit on a Modified line changes nothing and returns straight after
//! the lookup.  *Exactness*: core `c`'s sharer bit is set exactly when `c`'s L2 holds
//! the line, and a directory owner holds the line (every fill sets the bit, every
//! eviction and invalidation clears it and the owner with it), so the directory answers
//! "who holds this line" without probing a cache: after an L1 miss a clear sharer bit
//! *is* the L2 miss, a line is held elsewhere when another bit is set, and a fill after
//! a miss places the line without looking for it.
//!
//! Below the L1 a line *is* its directory slot.  The L1s are tagged by line address, so
//! a hit there asks the directory nothing; everything that reaches an L2 or the L3 has
//! resolved the line's [`Slot`] on the way (or, for a victim, reads it back as the tag),
//! so those caches are tagged by slot, four bytes a way, and an L2 victim's directory
//! entry is an array index away, its line address inside it.  Each level's set index
//! is computed here, from the line address, and handed to the cache with the tag.

use crate::cache::SetAssocCache;
use crate::geometry::CacheGeometry;
use crate::latency::LatencyModel;
use crate::line::MesiState;
use crate::line_table::{LineTable, Slot};
use crate::stats::{HierarchyStats, MissKind};
use crate::{Addr, CoreId, CoreMask, LineAddr, MAX_CORES};
use serde::{Deserialize, Serialize};

/// Whether an access reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl AccessKind {
    /// True for stores.
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// Which level of the memory system satisfied an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HitLevel {
    /// Local level-1 cache.
    L1,
    /// Local level-2 cache.
    L2,
    /// Shared last-level cache.
    L3,
    /// Another core's private cache ("foreign cache" in the thesis).
    RemoteCache,
    /// Main memory.
    Dram,
}

impl HitLevel {
    /// True if the access missed the local private caches (L1 and L2).
    pub fn is_miss(self) -> bool {
        !matches!(self, HitLevel::L1 | HitLevel::L2)
    }

    /// Human-readable name used in path-trace output ("local L1", "foreign cache", ...).
    pub fn display_name(self) -> &'static str {
        match self {
            HitLevel::L1 => "local L1",
            HitLevel::L2 => "local L2",
            HitLevel::L3 => "shared L3",
            HitLevel::RemoteCache => "foreign cache",
            HitLevel::Dram => "DRAM",
        }
    }
}

/// The outcome of a single memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessOutcome {
    /// Where the data came from.
    pub level: HitLevel,
    /// Cycles spent waiting for the data.
    pub latency: u64,
    /// Ground-truth classification when the access missed the private caches.
    pub miss_kind: Option<MissKind>,
    /// The associativity set index (in the L2) the line maps to.
    pub l2_set: usize,
    /// The line address accessed.
    pub line: LineAddr,
}

/// One access of at most one cache line, as [`CacheHierarchy::access`] takes it: what
/// a recorded session lowers to (`dprof_trace::line::push_line_events`) so a bare
/// hierarchy can replay it, as the throughput grid and the benchmark's layer rows do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Core that issued the access.
    pub core: u32,
    /// Byte address accessed.
    pub addr: Addr,
    /// Load or store.
    pub kind: AccessKind,
}

/// Configuration of the cache hierarchy.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Number of cores (each gets a private L1 and L2).
    pub cores: usize,
    /// L1 geometry.
    pub l1: CacheGeometry,
    /// L2 geometry.
    pub l2: CacheGeometry,
    /// Shared L3 geometry.
    pub l3: CacheGeometry,
    /// Latency model.
    pub latency: LatencyModel,
}

impl HierarchyConfig {
    /// The 16-core configuration used for the paper-scale experiments.
    pub fn paper_machine() -> Self {
        HierarchyConfig {
            cores: 16,
            l1: CacheGeometry::l1_default(),
            l2: CacheGeometry::l2_default(),
            l3: CacheGeometry::l3_default(),
            latency: LatencyModel::default(),
        }
    }

    /// A small 2-core configuration for unit tests and doc examples.
    pub fn small_test() -> Self {
        HierarchyConfig {
            cores: 2,
            l1: CacheGeometry::new(64, 2, 16), // 2 KiB
            l2: CacheGeometry::new(64, 4, 32), // 8 KiB
            l3: CacheGeometry::new(64, 8, 64), // 32 KiB
            latency: LatencyModel::default(),
        }
    }

    /// Same as [`Self::paper_machine`] but with a custom core count.
    pub fn with_cores(cores: usize) -> Self {
        let mut c = Self::paper_machine();
        c.cores = cores;
        c
    }
}

/// One line as every level files it: by address in the L1s, by directory slot in the
/// L2s and the L3, in the set its address selects at each level.
#[derive(Debug, Clone, Copy)]
struct Filed {
    line: LineAddr,
    slot: Slot,
    l1_set: usize,
    l2_set: usize,
    l3_set: usize,
}

/// The full multi-core cache hierarchy.
///
/// All coherence is modelled with a central directory: for every line we track the set
/// of cores holding it and the single owner (if dirty).  Private caches are looked up
/// L1-then-L2 and each L2 includes its L1; the shared L3 is non-inclusive and mostly
/// acts as a victim/shared cache.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    config: HierarchyConfig,
    l1: Vec<SetAssocCache<LineAddr>>,
    l2: Vec<SetAssocCache<Slot>>,
    l3: SetAssocCache<Slot>,
    /// Per-line directory entries, and each core's touched bits and invalidation notes.
    table: LineTable,
    /// Aggregated statistics.
    pub stats: HierarchyStats,
    /// Per-core statistics.
    pub per_core: Vec<HierarchyStats>,
}

impl CacheHierarchy {
    /// Creates an empty hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        assert!(
            config.cores >= 1 && config.cores <= MAX_CORES,
            "1..={MAX_CORES} cores supported"
        );
        CacheHierarchy {
            l1: (0..config.cores)
                .map(|_| SetAssocCache::new(config.l1))
                .collect(),
            l2: (0..config.cores)
                .map(|_| SetAssocCache::new(config.l2))
                .collect(),
            l3: SetAssocCache::new(config.l3),
            table: LineTable::new(config.cores),
            stats: HierarchyStats::default(),
            per_core: vec![HierarchyStats::default(); config.cores],
            config,
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.config.cores
    }

    /// Line size in bytes (identical across levels).
    pub fn line_size(&self) -> usize {
        self.config.l1.line_size
    }

    /// Converts a byte address to a line address.
    pub fn line_addr(&self, addr: Addr) -> LineAddr {
        self.config.l1.line_addr(addr)
    }

    /// Number of distinct lines the directory has ever tracked.
    pub fn directory_lines(&self) -> usize {
        self.table.len()
    }

    /// Heap bytes of the cache tables (tag, state and rank per slot) by level: all L1s,
    /// all L2s, the L3.
    pub fn cache_heap_bytes(&self) -> [usize; 3] {
        [
            self.l1.iter().map(SetAssocCache::heap_bytes).sum(),
            self.l2.iter().map(SetAssocCache::heap_bytes).sum(),
            self.l3.heap_bytes(),
        ]
    }

    /// Heap bytes of the simulator's own tables: [`Self::cache_heap_bytes`] and the
    /// directory's index and entries.  Read off the tables' lengths when asked;
    /// nothing is counted on the access path.
    pub fn heap_bytes(&self) -> usize {
        self.cache_heap_bytes().iter().sum::<usize>() + self.table.heap_bytes()
    }

    /// Performs a single memory access of at most one cache line.
    ///
    /// Accesses spanning a line boundary should be split by the caller (the
    /// `sim-machine` crate does this); each call touches exactly one line.
    pub fn access(&mut self, core: CoreId, addr: Addr, kind: AccessKind) -> AccessOutcome {
        assert!(core < self.config.cores, "core {core} out of range");
        let line = self.line_addr(addr);
        let l2_set = self.config.l2.set_index_of_line(line);
        let latency_model = self.config.latency;

        let (level, extra, miss_kind) = self.access_line(core, line, l2_set, kind);
        let latency = latency_model.for_level(level) + extra;

        self.record_stats(core, level, latency, miss_kind);

        AccessOutcome {
            level,
            latency,
            miss_kind,
            l2_set,
            line,
        }
    }

    /// Core of the access algorithm: returns the satisfying level, extra latency (e.g.
    /// a shared-to-modified upgrade penalty) and, for private misses, the ground-truth
    /// miss classification.
    ///
    /// The miss path resolves the line's directory slot once ([`LineTable::ensure_slot`])
    /// and threads it through every L2 and L3 operation and every directory update,
    /// including the final classification — the seed probed the table 3-4 times per
    /// miss.  A slot is the line's for good, whatever the fill's victim bookkeeping
    /// inserts meanwhile.
    fn access_line(
        &mut self,
        core: CoreId,
        line: LineAddr,
        l2_set: usize,
        kind: AccessKind,
    ) -> (HitLevel, u64, Option<MissKind>) {
        let is_write = kind.is_write();
        let l1_set = self.config.l1.set_index_of_line(line);
        let l3_set = self.config.l3.set_index_of_line(line);
        let filed = |slot| Filed {
            line,
            slot,
            l1_set,
            l2_set,
            l3_set,
        };

        // L1 lookup.  A hit hands back its way, so a state change is a store; a write
        // that finds the line Modified has nothing to change (see the module docs).
        if let Some((way, state)) = self.l1[core].lookup(l1_set, line) {
            let mut extra = 0;
            if is_write && state != MesiState::Modified {
                let at = filed(self.table.ensure_slot(line));
                extra = self.take_ownership(core, at, state);
                self.l1[core].set_state_at(way, MesiState::Modified);
                self.l2[core].set_state(l2_set, at.slot, MesiState::Modified);
            }
            return (HitLevel::L1, extra, None);
        }

        // L1 miss: resolve the directory slot once, before the L2.  Every miss ends
        // with a directory update for this line and every line an L2 holds has an
        // entry, so inserting the (default) entry up front changes nothing observable
        // and lets the rest of the path reuse the slot.
        let at = filed(self.table.ensure_slot(line));
        let entry = *self.table.entry_at(at.slot);
        let bit = (1 as CoreMask) << core;

        // L2 lookup, scanned only when the directory says the line is there
        // (exactness); otherwise the miss is counted without a way scan.
        if entry.sharers & bit == 0 {
            debug_assert!(
                !self.l2[core].contains(l2_set, at.slot),
                "clear sharer bit, line held"
            );
            self.l2[core].note_miss();
        } else if let Some((way, state)) = self.l2[core].lookup(l2_set, at.slot) {
            let mut extra = 0;
            if is_write && state != MesiState::Modified {
                extra = self.take_ownership(core, at, state);
                self.l2[core].set_state_at(way, MesiState::Modified);
            }
            // Promote into L1.
            let new_state = if is_write { MesiState::Modified } else { state };
            self.fill_private(core, at, new_state, /*l1_only=*/ true);
            return (HitLevel::L2, extra, None);
        }

        // Private miss.  The directory is exact, so it says who else holds the line.
        let other_sharers = entry.sharers & !bit;
        let remote_owner = entry.owner_core().filter(|&o| o != core);
        debug_assert!(remote_owner.is_none_or(|o| other_sharers >> o & 1 == 1));
        // Asked once: it picks the level below and the fill state after it, and
        // nothing in between changes residency (downgrades keep the line resident; a
        // write invalidates, but fills Modified whatever the answer was).
        let held_elsewhere = other_sharers != 0;

        let level = if let Some(owner) = remote_owner {
            // Dirty line lives in another core's cache: cache-to-cache transfer.
            if is_write {
                self.invalidate_remote_copies(core, at, entry.sharers);
            } else {
                // Owner downgrades to Shared; line is also pushed to L3.
                self.downgrade_to_shared(owner, at);
                self.l3.fill(l3_set, at.slot, MesiState::Shared);
                self.table.entry_at_mut(at.slot).set_owner(None);
            }
            HitLevel::RemoteCache
        } else if held_elsewhere {
            // Clean copy in some other private cache (and possibly L3).
            if is_write {
                self.invalidate_remote_copies(core, at, entry.sharers);
            } else {
                // Remote Exclusive copies must downgrade to Shared so a later write on
                // that core performs a visible upgrade (and invalidates us).
                let mut mask = other_sharers;
                while mask != 0 {
                    let c = mask.trailing_zeros() as CoreId;
                    mask &= mask - 1;
                    self.downgrade_to_shared(c, at);
                }
                // (None of them is the directory owner: an owner would have been the
                // remote owner above.)
            }
            // Clean sharing is typically serviced by the L3 / snoop at L3 latency.
            // `touch_existing` is a single way scan: on a hit it is exactly the old
            // `contains` + `lookup` pair; on a miss it leaves the L3 untouched, the
            // same state the old `contains` pre-check left.
            if self.l3.touch_existing(l3_set, at.slot).is_none() {
                self.l3.place(l3_set, at.slot, MesiState::Shared);
            }
            HitLevel::L3
        } else if self.l3.touch_existing(l3_set, at.slot).is_some() {
            if is_write {
                self.invalidate_remote_copies(core, at, entry.sharers);
            }
            HitLevel::L3
        } else {
            if is_write {
                self.invalidate_remote_copies(core, at, entry.sharers);
            }
            HitLevel::Dram
        };

        // Fill into this core's private caches with the right state.
        let state = if is_write {
            MesiState::Modified
        } else if held_elsewhere {
            MesiState::Shared
        } else {
            MesiState::Exclusive
        };
        self.fill_private(core, at, state, /*l1_only=*/ false);

        // Update the directory and classify the miss with the single resolved slot.
        let e = self.table.entry_at_mut(at.slot);
        e.sharers |= 1 << core;
        if is_write {
            e.set_owner(Some(core));
        }
        // A read leaves no owner: a remote one was downgraded and cleared above.
        debug_assert!(is_write || e.owner_core().is_none());
        let miss_kind = self.table.miss_kind(at.slot, core);
        self.table.note_fill(at.slot, core);

        (level, 0, Some(miss_kind))
    }

    /// Downgrades core `c`'s copy of the line, if it has one, to Shared.
    #[inline]
    fn downgrade_to_shared(&mut self, c: CoreId, at: Filed) {
        if self.l2[c].set_state(at.l2_set, at.slot, MesiState::Shared) {
            self.l1[c].set_state(at.l1_set, at.line, MesiState::Shared);
        }
    }

    /// Directory side of a write hit on a line held Exclusive or Shared: records
    /// `core` as the owner, invalidating every other copy first if the line was
    /// Shared.  Returns the extra latency.  The caller stores Modified into the
    /// private copies.  (A write-hit line is always in the table already: its fill
    /// inserted it.)
    fn take_ownership(&mut self, core: CoreId, at: Filed, state: MesiState) -> u64 {
        let bit = (1 as CoreMask) << core;
        if state.can_write_silently() {
            let e = self.table.entry_at_mut(at.slot);
            e.set_owner(Some(core));
            e.sharers |= bit;
            0
        } else {
            let sharers = self.table.entry_at(at.slot).sharers;
            self.invalidate_remote_copies(core, at, sharers);
            let e = self.table.entry_at_mut(at.slot);
            e.set_owner(Some(core));
            e.sharers = bit;
            self.config.latency.upgrade
        }
    }

    /// Removes the line from every core except `writer`, recording the invalidation so
    /// the victims' next miss on this line is classified as an invalidation miss.
    ///
    /// `sharers` is the directory's sharer mask, so only the cores that hold the line
    /// are visited — the seed implementation scanned all cores' sets
    /// unconditionally.
    fn invalidate_remote_copies(&mut self, writer: CoreId, at: Filed, sharers: CoreMask) {
        let mut mask = sharers & !((1 as CoreMask) << writer);
        while mask != 0 {
            let c = mask.trailing_zeros() as CoreId;
            mask &= mask - 1;
            // L2 first: when it lacks the line, so does the L1 (inclusion).
            if self.l2[c].invalidate(at.l2_set, at.slot) {
                self.l1[c].invalidate(at.l1_set, at.line);
                self.table.note_invalidation(at.slot, c);
            }
        }
        // A remote write also invalidates the stale L3 copy.
        self.l3.invalidate(at.l3_set, at.slot);
        let e = self.table.entry_at_mut(at.slot);
        e.sharers &= 1 << writer;
        e.set_owner(Some(writer));
    }

    /// Places the line, which just missed there, into this core's private caches,
    /// handling evictions.
    fn fill_private(&mut self, core: CoreId, at: Filed, state: MesiState, l1_only: bool) {
        // An L1 victim still lives in the L2 (inclusion), in the same state, so it
        // has not left the core and there is nothing to write back or record.
        let l1_victim = self.l1[core].place(at.l1_set, at.line, state);
        debug_assert!(
            l1_victim.is_none_or(|(line, state)| self.l2_state(core, line) == Some(state))
        );
        if !l1_only {
            if let Some((victim, victim_state)) = self.l2[core].place(at.l2_set, at.slot, state) {
                // The victim's tag is its directory slot, and the entry there knows
                // its line.  Leaving the L2 means leaving the core: drop the L1 copy.
                let line = self.table.entry_at(victim).line();
                self.l1[core].invalidate(self.config.l1.set_index_of_line(line), line);
                if victim_state == MesiState::Modified {
                    let l3_set = self.config.l3.set_index_of_line(line);
                    self.l3.fill(l3_set, victim, MesiState::Modified);
                }
                self.note_eviction(core, victim);
            }
        }
    }

    /// Records that the line at directory slot `slot` left `core`'s private caches by
    /// replacement.
    fn note_eviction(&mut self, core: CoreId, slot: Slot) {
        // No note is kept: the core has touched the line (see `LineTable::miss_kind`).
        let e = self.table.entry_at_mut(slot);
        e.sharers &= !((1 as CoreMask) << core);
        if e.owner_core() == Some(core) {
            e.set_owner(None);
        }
    }

    /// The state of `line` in `core`'s L2, asked by address: through the directory's
    /// index, which the access path never needs (it holds the slot).  For the checks.
    fn l2_state(&self, core: CoreId, line: LineAddr) -> Option<MesiState> {
        let slot = self.table.slot_of(line)?;
        self.l2[core].peek(self.config.l2.set_index_of_line(line), slot)
    }

    fn record_stats(
        &mut self,
        core: CoreId,
        level: HitLevel,
        latency: u64,
        miss_kind: Option<MissKind>,
    ) {
        for s in [&mut self.stats, &mut self.per_core[core]] {
            s.accesses += 1;
            s.total_latency += latency;
            match level {
                HitLevel::L1 => s.l1_hits += 1,
                HitLevel::L2 => s.l2_hits += 1,
                HitLevel::L3 => s.l3_hits += 1,
                HitLevel::RemoteCache => s.remote_hits += 1,
                HitLevel::Dram => s.dram_fills += 1,
            }
            if let Some(kind) = miss_kind {
                s.miss_kinds.bump(kind);
            }
        }
    }

    /// Resets all statistics (cache contents and coherence state are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
        for s in &mut self.per_core {
            *s = HierarchyStats::default();
        }
        for c in &mut self.l1 {
            c.reset_stats();
        }
        for c in &mut self.l2 {
            c.reset_stats();
        }
        self.l3.reset_stats();
    }

    /// The lines a slot-tagged cache holds, or what is wrong with one of its tags.
    fn lines_of(
        &self,
        cache: &SetAssocCache<Slot>,
        name: &str,
    ) -> Result<Vec<(LineAddr, MesiState)>, String> {
        let line_of = |(set, slot, state)| {
            if slot as usize >= self.table.len() {
                return Err(format!(
                    "{name} holds slot {slot} in set {set}, but the directory has {} lines",
                    self.table.len()
                ));
            }
            let line = self.table.entry_at(slot).line();
            if cache.geometry().set_index_of_line(line) != set {
                return Err(format!(
                    "{name} holds line {line:#x} (slot {slot}) in set {set}, not the line's"
                ));
            }
            Ok((line, state))
        };
        cache.resident().map(line_of).collect()
    }

    /// Checks the MESI and directory invariants.  Used by property tests.
    ///
    /// * slot tags: every tag of an L2 or of the L3 is a slot the directory handed out,
    ///   and sits in the set that slot's line maps to (as every L1 line does);
    /// * single owner: a line Modified on one core is not valid on any other core;
    /// * directory ownership: a Modified line's directory entry names that core as the
    ///   owner, and a directory owner holds the line;
    /// * exact sharers: core `c`'s sharer bit is set exactly when `c`'s L2 holds the
    ///   line's slot, in the line's set;
    /// * inclusion: a line resident in a core's L1 is resident in that core's L2, in
    ///   the same state;
    /// * notes: a sharer has touched the line and carries no invalidation note.
    pub fn check_coherence_invariants(&self) -> Result<(), String> {
        use std::collections::{HashMap, HashSet};
        let mut modified_lines: HashMap<LineAddr, CoreId> = HashMap::new();
        let mut holders: HashMap<LineAddr, HashSet<CoreId>> = HashMap::new();
        self.lines_of(&self.l3, "the L3")?;
        for c in 0..self.config.cores {
            let mut lines = self.lines_of(&self.l2[c], &format!("core {c}'s L2"))?;
            for (set, line, state) in self.l1[c].resident() {
                if self.config.l1.set_index_of_line(line) != set {
                    return Err(format!(
                        "core {c}'s L1 holds line {line:#x} in set {set}, not the line's"
                    ));
                }
                lines.push((line, state));
            }
            for (line, state) in lines {
                holders.entry(line).or_default().insert(c);
                if state == MesiState::Modified {
                    if let Some(prev) = modified_lines.insert(line, c) {
                        if prev != c {
                            return Err(format!("line {line:#x} Modified on cores {prev} and {c}"));
                        }
                    }
                }
            }
        }
        for (line, owner) in &modified_lines {
            let hs = &holders[line];
            if hs.len() > 1 {
                return Err(format!(
                    "line {line:#x} Modified on core {owner} but also held by {} cores",
                    hs.len()
                ));
            }
            // Directory must agree on the modified owner.
            match self.table.get(*line) {
                Some(e) if e.owner_core() == Some(*owner) => {}
                Some(e) => {
                    return Err(format!(
                        "line {line:#x} Modified on core {owner} but directory owner is {:?}",
                        e.owner_core()
                    ));
                }
                None => {
                    return Err(format!(
                        "line {line:#x} Modified on core {owner} but absent from the directory"
                    ));
                }
            }
        }
        // Every holder has its sharer bit set...
        for (line, hs) in &holders {
            let sharers = self.table.get(*line).map(|e| e.sharers).unwrap_or(0);
            for c in hs {
                if sharers & ((1 as CoreMask) << c) == 0 {
                    return Err(format!(
                        "line {line:#x} held by core {c} but its sharer bit is clear \
                         (mask {sharers:#b})"
                    ));
                }
            }
        }
        for c in 0..self.config.cores {
            for (_, line, l1_state) in self.l1[c].resident() {
                match self.l2_state(c, line) {
                    Some(state) if state == l1_state => {}
                    Some(state) => {
                        return Err(format!(
                            "line {line:#x} is {l1_state:?} in core {c}'s L1 but {state:?} in \
                             its L2"
                        ));
                    }
                    None => {
                        return Err(format!(
                            "line {line:#x} resident in core {c}'s L1 but not in its L2 \
                             (inclusion)"
                        ));
                    }
                }
            }
        }
        // ...and (exactness, the other direction) every set bit, and the owner, names
        // a core whose L2 has the line's slot.  After inclusion, so a lost L2 copy
        // under a live L1 copy reads as the inclusion failure it is.
        for (slot, (line, e)) in self.table.iter().enumerate() {
            let l2_set = self.config.l2.set_index_of_line(line);
            let owner = e.owner_core().map_or(0, |o| (1 as CoreMask) << o);
            let mut mask = e.sharers | owner;
            while mask != 0 {
                let c = mask.trailing_zeros() as CoreId;
                mask &= mask - 1;
                if c >= self.config.cores || !self.l2[c].contains(l2_set, slot as Slot) {
                    let what = if e.sharers >> c & 1 == 1 {
                        "sharer"
                    } else {
                        "owner"
                    };
                    return Err(format!(
                        "line {line:#x} has core {c} as a {what}, but core {c}'s L2 lacks it \
                         (stale {what})"
                    ));
                }
            }
            let mut sharers = e.sharers;
            while sharers != 0 {
                let c = sharers.trailing_zeros() as CoreId;
                sharers &= sharers - 1;
                let note = match self.table.miss_kind(slot as Slot, c) {
                    MissKind::Eviction => continue,
                    MissKind::Cold => "no touched bit",
                    MissKind::Invalidation => "an invalidation note",
                };
                return Err(format!(
                    "line {line:#x} has core {c} as a sharer, but core {c} has {note} on it"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::small_test())
    }

    /// The tests speak lines; these say where a level files one.
    impl CacheHierarchy {
        fn l1_at(&self, line: LineAddr) -> (usize, LineAddr) {
            (self.config.l1.set_index_of_line(line), line)
        }

        fn l2_at(&self, line: LineAddr) -> (usize, Slot) {
            let slot = self
                .table
                .slot_of(line)
                .expect("line has a directory entry");
            (self.config.l2.set_index_of_line(line), slot)
        }

        fn l1_state(&self, core: CoreId, line: LineAddr) -> Option<MesiState> {
            let (set, tag) = self.l1_at(line);
            self.l1[core].peek(set, tag)
        }

        /// How each core's next miss on `line` would classify, from its notes.
        fn notes(&self, line: LineAddr) -> Vec<MissKind> {
            let slot = self.l2_at(line).1;
            (0..self.cores())
                .map(|c| self.table.miss_kind(slot, c))
                .collect()
        }
    }

    #[test]
    fn cold_miss_then_l1_hit() {
        let mut h = hierarchy();
        let first = h.access(0, 0x1000, AccessKind::Read);
        assert_eq!(first.level, HitLevel::Dram);
        assert_eq!(first.miss_kind, Some(MissKind::Cold));
        let second = h.access(0, 0x1000, AccessKind::Read);
        assert_eq!(second.level, HitLevel::L1);
        assert_eq!(second.miss_kind, None);
        assert!(second.latency < first.latency);
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut h = hierarchy();
        h.access(0, 0x1000, AccessKind::Read);
        let o = h.access(0, 0x1030, AccessKind::Read);
        assert_eq!(o.level, HitLevel::L1);
    }

    #[test]
    fn remote_dirty_line_is_foreign_cache_fetch() {
        let mut h = hierarchy();
        h.access(0, 0x2000, AccessKind::Write);
        let r = h.access(1, 0x2000, AccessKind::Read);
        assert_eq!(r.level, HitLevel::RemoteCache);
        assert_eq!(r.latency, LatencyModel::default().remote_cache);
    }

    #[test]
    fn write_invalidates_reader_then_reader_misses_as_invalidation() {
        let mut h = hierarchy();
        // Core 1 reads the line, core 0 writes it, core 1 reads again.
        h.access(1, 0x3000, AccessKind::Read);
        h.access(1, 0x3000, AccessKind::Read);
        h.access(0, 0x3000, AccessKind::Write);
        let r = h.access(1, 0x3000, AccessKind::Read);
        assert!(r.level.is_miss());
        assert_eq!(r.miss_kind, Some(MissKind::Invalidation));
    }

    #[test]
    fn read_sharing_keeps_both_copies() {
        let mut h = hierarchy();
        h.access(0, 0x4000, AccessKind::Read);
        h.access(1, 0x4000, AccessKind::Read);
        // Both cores should now hit locally.
        assert_eq!(h.access(0, 0x4000, AccessKind::Read).level, HitLevel::L1);
        assert_eq!(h.access(1, 0x4000, AccessKind::Read).level, HitLevel::L1);
        h.check_coherence_invariants().unwrap();
    }

    #[test]
    fn write_to_shared_line_upgrades_and_invalidates() {
        let mut h = hierarchy();
        h.access(0, 0x5000, AccessKind::Read);
        h.access(1, 0x5000, AccessKind::Read);
        // Core 0 writes: core 1's copy must be invalidated.
        let w = h.access(0, 0x5000, AccessKind::Write);
        assert_eq!(w.level, HitLevel::L1);
        assert!(w.latency >= LatencyModel::default().l1 + LatencyModel::default().upgrade);
        let r = h.access(1, 0x5000, AccessKind::Read);
        assert!(r.level.is_miss());
        assert_eq!(r.miss_kind, Some(MissKind::Invalidation));
        h.check_coherence_invariants().unwrap();
    }

    #[test]
    fn capacity_eviction_classified_as_eviction() {
        let mut h = hierarchy();
        // Touch far more distinct lines than L1+L2 can hold, all from core 0, then
        // re-touch the first line.
        let l2_capacity_lines =
            h.config().l2.sets * h.config().l2.ways + h.config().l1.sets * h.config().l1.ways;
        h.access(0, 0x10_0000, AccessKind::Read);
        for i in 0..(l2_capacity_lines as u64 * 4) {
            h.access(0, 0x20_0000 + i * 64, AccessKind::Read);
        }
        let r = h.access(0, 0x10_0000, AccessKind::Read);
        assert!(r.level.is_miss());
        assert_eq!(r.miss_kind, Some(MissKind::Eviction));
    }

    #[test]
    fn evicted_dirty_line_lands_in_l3() {
        let mut h = hierarchy();
        h.access(0, 0x30_0000, AccessKind::Write);
        // Push it out of the private caches with conflicting lines.
        let stride = (h.config().l2.sets * h.config().l2.line_size) as u64;
        for i in 1..=(h.config().l2.ways as u64 + h.config().l1.ways as u64 + 2) {
            h.access(0, 0x30_0000 + i * stride, AccessKind::Write);
        }
        // Now the original line should be served from L3, not DRAM.
        let r = h.access(0, 0x30_0000, AccessKind::Read);
        assert_eq!(
            r.level,
            HitLevel::L3,
            "dirty victim should have been written back to L3"
        );
    }

    #[test]
    fn per_core_stats_recorded() {
        let mut h = hierarchy();
        h.access(0, 0x1000, AccessKind::Read);
        h.access(0, 0x1000, AccessKind::Read);
        h.access(1, 0x8000, AccessKind::Read);
        assert_eq!(h.per_core[0].accesses, 2);
        assert_eq!(h.per_core[1].accesses, 1);
        assert_eq!(h.stats.accesses, 3);
        assert_eq!(h.stats.l1_hits, 1);
    }

    #[test]
    fn stats_reset_preserves_contents() {
        let mut h = hierarchy();
        h.access(0, 0x1000, AccessKind::Read);
        h.reset_stats();
        assert_eq!(h.stats.accesses, 0);
        // Content still cached.
        assert_eq!(h.access(0, 0x1000, AccessKind::Read).level, HitLevel::L1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_invalid_core() {
        let mut h = hierarchy();
        h.access(99, 0x1000, AccessKind::Read);
    }

    // ------------------------------------------------------------------
    // check_coherence_invariants under the flat directory layout.
    // ------------------------------------------------------------------

    #[test]
    fn invariants_hold_after_heavy_mixed_traffic() {
        let mut cfg = HierarchyConfig::small_test();
        cfg.cores = 4;
        let mut h = CacheHierarchy::new(cfg);
        for i in 0..2_000u64 {
            let core = (i % 4) as CoreId;
            let addr = (i * 97) % 0x8000;
            let kind = if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            h.access(core, addr, kind);
        }
        h.check_coherence_invariants().unwrap();
    }

    #[test]
    fn modified_with_multiple_sharers_is_flagged() {
        let mut h = hierarchy();
        h.access(0, 0x6000, AccessKind::Write);
        // Corrupt the model: force a second valid copy of the dirty line on core 1.
        let line = h.line_addr(0x6000);
        let (set, tag) = h.l1_at(line);
        h.l1[1].fill(set, tag, MesiState::Shared);
        let err = h.check_coherence_invariants().unwrap_err();
        assert!(
            err.contains("Modified on core") && err.contains("held by 2"),
            "unexpected error: {err}"
        );
        // Two Modified copies must also be flagged.
        let mut h2 = hierarchy();
        h2.access(0, 0x6000, AccessKind::Write);
        h2.l1[1].fill(set, tag, MesiState::Modified);
        let err = h2.check_coherence_invariants().unwrap_err();
        assert!(err.contains("Modified on cores"), "unexpected error: {err}");
    }

    #[test]
    fn broken_inclusion_is_flagged() {
        // An L1 line whose L2 copy is gone.
        let mut h = hierarchy();
        h.access(0, 0x6000, AccessKind::Read);
        let line = h.line_addr(0x6000);
        let (set, slot) = h.l2_at(line);
        assert!(h.l2[0].invalidate(set, slot));
        let err = h.check_coherence_invariants().unwrap_err();
        assert!(err.contains("inclusion"), "unexpected error: {err}");
        // An L1 line whose L2 copy is in another state.
        let mut h = hierarchy();
        h.access(0, 0x6000, AccessKind::Read);
        assert!(h.l2[0].set_state(set, slot, MesiState::Shared));
        let err = h.check_coherence_invariants().unwrap_err();
        assert!(
            err.contains("Exclusive in core 0's L1 but Shared in its L2"),
            "unexpected error: {err}"
        );
    }

    /// Drives the optimized hierarchy and the reference with one access and requires
    /// the same outcome from both.
    fn both(
        h: &mut CacheHierarchy,
        r: &mut crate::reference::RefCacheHierarchy,
        core: CoreId,
        line: LineAddr,
        kind: AccessKind,
    ) -> AccessOutcome {
        let out = h.access(core, line * 64, kind);
        assert_eq!(
            out,
            r.access(core, line * 64, kind),
            "core {core} line {line:#x}"
        );
        out
    }

    #[test]
    fn write_hits_change_what_the_reference_changes_and_nothing_else() {
        use AccessKind::{Read, Write};
        let cfg = HierarchyConfig::small_test();
        let lat = cfg.latency;
        let mut h = CacheHierarchy::new(cfg);
        let mut r = crate::reference::RefCacheHierarchy::new(cfg);
        // Everything a write hit could touch on core 0, for before/after comparisons.
        let snapshot = |h: &CacheHierarchy, line: LineAddr| {
            (
                (h.l1_state(0, line), h.l1[0].stats),
                (h.l2_state(0, line), h.l2[0].stats),
                h.table.get(line).map(|e| (*e, h.notes(line))),
            )
        };
        // L1 has 16 sets of 2 ways, L2 32 sets of 4: these lines share L1 set 0; `t`,
        // `u`, `v`, `w`, `x` share L2 set 0 as well, `p` and `q` sit in L2 set 16.
        let (t, u, v, w, x, p, q) = (0x40, 0x60, 0x80, 0xa0, 0xc0, 0x50, 0x70);

        // --- Write hits in the L1.
        // E -> M: a store into the L1 slot, the L2 copy follows, the directory gains
        // an owner; no upgrade latency.
        both(&mut h, &mut r, 0, t, Read);
        let out = both(&mut h, &mut r, 0, t, Write);
        assert_eq!((out.level, out.latency), (HitLevel::L1, lat.l1));
        let (l1, l2, dir) = snapshot(&h, t);
        assert_eq!(l1.0, Some(MesiState::Modified));
        assert_eq!(l2.0, Some(MesiState::Modified));
        assert_eq!((l1.1.hits, l1.1.misses, l2.1.hits), (1, 1, 0));
        let dir = dir.unwrap();
        assert_eq!(
            (dir.0.owner_core(), dir.0.sharers, &dir.1[..]),
            (Some(0), 1, &[MissKind::Eviction, MissKind::Cold][..])
        );
        // M -> M: one more L1 hit and nothing else moves.
        let out = both(&mut h, &mut r, 0, t, Write);
        assert_eq!((out.level, out.latency), (HitLevel::L1, lat.l1));
        let (l1_after, l2_after, dir_after) = snapshot(&h, t);
        assert_eq!(l1_after.1.hits, l1.1.hits + 1);
        assert_eq!((l1_after.0, l1_after.1.misses), (l1.0, l1.1.misses));
        assert_eq!(l2_after, l2);
        assert_eq!(dir_after, Some(dir));
        // S -> M: an upgrade; core 1's copies are invalidated and it is told so.
        both(&mut h, &mut r, 0, p, Read);
        both(&mut h, &mut r, 1, p, Read);
        let out = both(&mut h, &mut r, 0, p, Write);
        assert_eq!(
            (out.level, out.latency),
            (HitLevel::L1, lat.l1 + lat.upgrade)
        );
        assert_eq!(h.l1[1].stats.invalidations, 1);
        assert_eq!(h.l2[1].stats.invalidations, 1);
        let dir = *h.table.get(p).unwrap();
        assert_eq!(
            (dir.owner_core(), dir.sharers, h.notes(p)),
            (Some(0), 1, vec![MissKind::Eviction, MissKind::Invalidation])
        );
        assert_eq!(h.l2_state(0, p), Some(MesiState::Modified));
        // The written lines are the L1 set's most recent: `t` (older) is the victim
        // of the next fill, `p` stays.
        both(&mut h, &mut r, 0, q, Read);
        assert_eq!(both(&mut h, &mut r, 0, p, Read).level, HitLevel::L1);
        assert_eq!(both(&mut h, &mut r, 0, t, Read).level, HitLevel::L2);
        let out = both(&mut h, &mut r, 1, p, Read);
        assert_eq!(out.level, HitLevel::RemoteCache);
        assert_eq!(out.miss_kind, Some(MissKind::Invalidation));

        // --- Write hits in the L2 (the line is pushed out of the L1 first).
        let mut h = CacheHierarchy::new(cfg);
        let mut r = crate::reference::RefCacheHierarchy::new(cfg);
        for line in [t, u, v, w] {
            both(&mut h, &mut r, 0, line, Read);
        }
        // E -> M: `t` is the L2 set's oldest line until the write's lookup refreshes
        // it; it is promoted into the L1 as Modified.
        assert_eq!(h.l1_state(0, t), None);
        let out = both(&mut h, &mut r, 0, t, Write);
        assert_eq!((out.level, out.latency), (HitLevel::L2, lat.l2));
        let (l1, l2, dir) = snapshot(&h, t);
        assert_eq!(l1.0, Some(MesiState::Modified));
        assert_eq!(l2.0, Some(MesiState::Modified));
        assert_eq!((l2.1.hits, l2.1.misses), (1, 4));
        let dir = dir.unwrap();
        assert_eq!(
            (dir.0.owner_core(), dir.0.sharers, &dir.1[..]),
            (Some(0), 1, &[MissKind::Eviction, MissKind::Cold][..])
        );
        // M -> M: push `t` out of the L1 again, write it: an L2 hit, an L1 refill.
        both(&mut h, &mut r, 0, v, Read);
        both(&mut h, &mut r, 0, w, Read);
        assert_eq!(h.l1_state(0, t), None);
        let before = snapshot(&h, t);
        let out = both(&mut h, &mut r, 0, t, Write);
        assert_eq!((out.level, out.latency), (HitLevel::L2, lat.l2));
        let after = snapshot(&h, t);
        assert_eq!(after.1 .0, Some(MesiState::Modified));
        assert_eq!(after.1 .1.hits, before.1 .1.hits + 1);
        assert_eq!(after.1 .1.misses, before.1 .1.misses);
        assert_eq!(after.2, before.2);
        // The L2 set's victim is now `u`, the one line no hit refreshed: not `t`.
        both(&mut h, &mut r, 0, x, Read);
        assert_eq!(h.l2_state(0, u), None);
        assert_eq!(both(&mut h, &mut r, 0, t, Read).level, HitLevel::L1);
        let out = both(&mut h, &mut r, 0, u, Read);
        assert_eq!(out.miss_kind, Some(MissKind::Eviction));
        // S -> M: shared with core 1, pushed out of core 0's L1, then written.
        both(&mut h, &mut r, 0, p, Read);
        both(&mut h, &mut r, 1, p, Read);
        both(&mut h, &mut r, 0, t, Read);
        both(&mut h, &mut r, 0, u, Read);
        assert_eq!(h.l1_state(0, p), None);
        let out = both(&mut h, &mut r, 0, p, Write);
        assert_eq!(
            (out.level, out.latency),
            (HitLevel::L2, lat.l2 + lat.upgrade)
        );
        assert_eq!(h.l1_state(0, p), Some(MesiState::Modified));
        assert_eq!(h.l2_state(0, p), Some(MesiState::Modified));
        let dir = *h.table.get(p).unwrap();
        assert_eq!(
            (dir.owner_core(), dir.sharers, h.notes(p)),
            (Some(0), 1, vec![MissKind::Eviction, MissKind::Invalidation])
        );
        let out = both(&mut h, &mut r, 1, p, Write);
        assert_eq!(out.level, HitLevel::RemoteCache);
        assert_eq!(out.miss_kind, Some(MissKind::Invalidation));

        assert_eq!(h.stats, r.stats);
        assert_eq!(h.per_core, r.per_core);
        h.check_coherence_invariants().unwrap();
        r.check_coherence_invariants().unwrap();
    }

    #[test]
    fn directory_answered_l2_misses_count_and_age_like_scanned_ones() {
        use AccessKind::{Read, Write};
        let cfg = HierarchyConfig::small_test();
        let mut h = CacheHierarchy::new(cfg);
        let mut r = crate::reference::RefCacheHierarchy::new(cfg);
        // Five lines of L2 set 0 (4 ways) and L1 set 0 (2 ways).
        let (t, u, v, w, x) = (0x40, 0x60, 0x80, 0xa0, 0xc0);
        let l2 = |h: &CacheHierarchy| {
            let s = h.l2[0].stats;
            (s.hits, s.misses, s.fills, s.evictions)
        };

        // Never-seen lines: the sharer bit is clear, so each L2 miss is counted
        // without a scan, and each fill places into the next empty way.
        for line in [t, u, v, w] {
            assert_eq!(both(&mut h, &mut r, 0, line, Read).level, HitLevel::Dram);
        }
        assert_eq!(l2(&h), (0, 4, 4, 0));
        // Bit set: a scanned L2 hit, which makes `t` the set's most recent line.
        assert_eq!(both(&mut h, &mut r, 0, t, Read).level, HitLevel::L2);
        assert_eq!(l2(&h), (1, 4, 4, 0));
        // A counted miss ages the set like a scanned one: the victim is `u`, the
        // oldest line, exactly as in the reference (which scans every time).
        assert_eq!(both(&mut h, &mut r, 0, x, Read).level, HitLevel::Dram);
        assert_eq!(l2(&h), (1, 5, 5, 1));
        assert_eq!(h.l2_state(0, u), None);
        let out = both(&mut h, &mut r, 0, u, Read);
        assert_eq!(out.miss_kind, Some(MissKind::Eviction));
        assert_eq!(h.l2_state(0, v), None, "`v` was the oldest after `u` left");
        assert_eq!(l2(&h), (1, 6, 6, 2));
        // An invalidation clears the bit: the next access is a counted miss again,
        // and its fill takes the emptied way instead of evicting.
        both(&mut h, &mut r, 1, w, Write);
        assert_eq!(h.table.get(w).unwrap().sharers, 2);
        let out = both(&mut h, &mut r, 0, w, Read);
        assert_eq!(
            (out.level, out.miss_kind),
            (HitLevel::RemoteCache, Some(MissKind::Invalidation))
        );
        assert_eq!(l2(&h), (1, 7, 7, 2));
        for line in [t, x, u, w] {
            assert!(h.l2_state(0, line).is_some(), "line {line:#x}");
        }

        assert_eq!(h.stats, r.stats);
        assert_eq!(h.per_core, r.per_core);
        h.check_coherence_invariants().unwrap();
    }

    #[test]
    fn directory_owner_mismatch_is_flagged() {
        let mut h = hierarchy();
        h.access(0, 0x7000, AccessKind::Write);
        let line = h.line_addr(0x7000);
        // Corrupt the directory: claim core 1 owns the line core 0 holds Modified.
        h.table.entry_mut(line).set_owner(Some(1));
        let err = h.check_coherence_invariants().unwrap_err();
        assert!(err.contains("directory owner"), "unexpected error: {err}");
    }

    #[test]
    fn an_invalidation_note_on_a_sharer_is_flagged() {
        let mut h = hierarchy();
        h.access(0, 0x7000, AccessKind::Read);
        h.access(1, 0x7000, AccessKind::Read);
        h.check_coherence_invariants().unwrap();
        // Corrupt the notes: core 1 holds the line, yet is told a write took it.
        let slot = h.l2_at(h.line_addr(0x7000)).1;
        h.table.note_invalidation(slot, 1);
        let err = h.check_coherence_invariants().unwrap_err();
        assert!(
            err.contains("core 1 as a sharer") && err.contains("an invalidation note"),
            "unexpected error: {err}"
        );
    }

    /// Writes a line on core 0, then pushes it out of core 0's private caches with
    /// conflicting writes.  Returns the hierarchy and the departed line.
    fn with_departed_line() -> (CacheHierarchy, LineAddr) {
        let mut h = hierarchy();
        h.access(0, 0x40_0000, AccessKind::Write);
        let line = h.line_addr(0x40_0000);
        let stride = (h.config().l2.sets * h.config().l2.line_size) as u64;
        for i in 1..=(h.config().l2.ways as u64 + h.config().l1.ways as u64 + 2) {
            h.access(0, 0x40_0000 + i * stride, AccessKind::Write);
        }
        assert!(h.l2_state(0, line).is_none());
        h.check_coherence_invariants().unwrap();
        (h, line)
    }

    #[test]
    fn stale_owner_is_flagged() {
        // Eviction clears the owner; forge the state the access path no longer
        // re-validates (it trusts the directory instead of probing the owner's L2).
        let (mut h, line) = with_departed_line();
        assert_eq!(h.table.get(line).unwrap().owner_core(), None);
        h.table.entry_mut(line).set_owner(Some(0));
        let err = h.check_coherence_invariants().unwrap_err();
        assert!(err.contains("stale owner"), "unexpected error: {err}");
    }

    #[test]
    fn stale_sharer_bit_is_flagged() {
        let (mut h, line) = with_departed_line();
        assert_eq!(h.table.get(line).unwrap().sharers, 0);
        h.table.entry_mut(line).sharers = 1;
        let err = h.check_coherence_invariants().unwrap_err();
        assert!(err.contains("stale sharer"), "unexpected error: {err}");
    }

    #[test]
    fn cleared_sharer_bit_for_resident_line_is_flagged() {
        let mut h = hierarchy();
        h.access(0, 0x9000, AccessKind::Read);
        let line = h.line_addr(0x9000);
        h.table.entry_mut(line).sharers = 0;
        let err = h.check_coherence_invariants().unwrap_err();
        assert!(err.contains("sharer bit"), "unexpected error: {err}");
    }

    #[test]
    fn an_l2_victim_reaches_its_entry_by_slot_across_index_growths() {
        use AccessKind::{Read, Write};
        let cfg = HierarchyConfig::small_test();
        let mut h = CacheHierarchy::new(cfg);
        let mut r = crate::reference::RefCacheHierarchy::new(cfg);
        // The table less its 32-byte entries and its notes: 16 bytes a core a 64 slots.
        let index_bytes = |h: &CacheHierarchy| {
            let lines = h.table.len();
            h.table.heap_bytes() - 32 * lines - lines.div_ceil(64) * 16 * h.cores()
        };
        // Core 0 dirties `a`: slot 0, owner and sharer bit 0, filed in its L2 by slot.
        let a = 0x4_0000;
        both(&mut h, &mut r, 0, a, Write);
        let (l2_set, slot) = h.l2_at(a);
        assert_eq!(slot, 0);
        let before = index_bytes(&h);
        // Core 1 walks 2 000 other lines: the index doubles twice (at 769 and 1 537
        // lines) and is re-filed; core 0's L2 is not touched, the entries do not move.
        for i in 0..2_000 {
            both(&mut h, &mut r, 1, 0x10_0000 + i, Read);
        }
        assert_eq!(index_bytes(&h), 4 * before, "two growths");
        assert_eq!(h.l2_at(a), (l2_set, 0));
        assert_eq!(h.l2_state(0, a), Some(MesiState::Modified));
        // Now core 0 fills `a`'s L2 set: `a` is the victim, found by its tag alone.
        let stride = cfg.l2.sets as u64;
        for i in 1..=cfg.l2.ways as u64 {
            both(&mut h, &mut r, 0, a + i * stride, Read);
        }
        assert_eq!(h.l2_state(0, a), None);
        assert_eq!(h.l1_state(0, a), None, "leaving the L2 is leaving the core");
        let e = h.table.get(a).unwrap();
        assert_eq!(
            (e.sharers, e.owner_core(), h.notes(a)),
            (0, None, vec![MissKind::Eviction, MissKind::Cold])
        );
        // Nobody else's entry paid for it, and the dirty victim went to the L3.
        h.check_coherence_invariants().unwrap();
        let out = both(&mut h, &mut r, 0, a, Read);
        assert_eq!(
            (out.level, out.miss_kind),
            (HitLevel::L3, Some(MissKind::Eviction))
        );
        assert_eq!(h.stats, r.stats);
    }

    #[test]
    fn a_slot_equal_to_another_lines_address_bits_is_not_that_line() {
        use AccessKind::{Read, Write};
        let cfg = HierarchyConfig::small_test();
        let mut h = CacheHierarchy::new(cfg);
        let mut r = crate::reference::RefCacheHierarchy::new(cfg);
        // Five lines take slots 0..5, so `x` gets slot 5: the low 32 address bits of
        // lines `y` and `z`, which map to `x`'s set at every level (set 5 of 16, 32, 64).
        for filler in 0..5 {
            both(&mut h, &mut r, 1, 0x9000 + filler, Read);
        }
        let (x, y, z) = (5 + (1000 << 6), 5, 5 + (1 << 32));
        both(&mut h, &mut r, 0, x, Write);
        assert_eq!(h.l2_at(x).1, 5);
        for level in [cfg.l1, cfg.l2, cfg.l3] {
            assert_eq!([x, y, z].map(|l| level.set_index_of_line(l)), [5; 3]);
        }
        // Neither is `x`: cold misses from DRAM, in the L1, the L2 and the L3 alike.
        for line in [y, z] {
            let out = both(&mut h, &mut r, 0, line, Read);
            assert_eq!(
                (out.level, out.miss_kind),
                (HitLevel::Dram, Some(MissKind::Cold))
            );
        }
        assert_eq!((h.l2_at(y).1, h.l2_at(z).1), (6, 7));
        // And `x` is still itself: Modified on core 0, a foreign-cache fetch for core
        // 1, whose write then takes all of core 0's copies of `x` and none of `y`.
        assert_eq!(h.l2_state(0, x), Some(MesiState::Modified));
        assert_eq!(
            both(&mut h, &mut r, 1, x, Read).level,
            HitLevel::RemoteCache
        );
        both(&mut h, &mut r, 1, x, Write);
        assert_eq!((h.l1_state(0, x), h.l2_state(0, x)), (None, None));
        assert_eq!(h.l1_state(0, y), Some(MesiState::Exclusive));
        assert_eq!(h.l2_state(0, y), Some(MesiState::Exclusive));
        assert_eq!(both(&mut h, &mut r, 0, z, Read).level, HitLevel::L1);
        assert_eq!(h.stats, r.stats);
        h.check_coherence_invariants().unwrap();
    }

    #[test]
    fn a_slot_tag_the_directory_never_made_or_in_the_wrong_set_is_flagged() {
        let mut h = hierarchy();
        h.access(0, 0x6000, AccessKind::Read);
        let (set, slot) = h.l2_at(h.line_addr(0x6000));
        // A tag past the directory's last entry.
        let mut forged = h.clone();
        forged.l2[1].fill(set, 1, MesiState::Shared);
        let err = forged.check_coherence_invariants().unwrap_err();
        assert!(
            err.contains("core 1's L2 holds slot 1") && err.contains("has 1 lines"),
            "unexpected error: {err}"
        );
        // A real slot in a set its line does not map to: in the L3, and core 0's own L2
        // copy moved one set along.
        let mut forged = h.clone();
        forged.l3.fill(set + 1, slot, MesiState::Shared);
        let err = forged.check_coherence_invariants().unwrap_err();
        assert!(
            err.contains("the L3 holds line 0x180 (slot 0) in set"),
            "unexpected error: {err}"
        );
        let (l1_set, line) = h.l1_at(0x180);
        h.l1[0].invalidate(l1_set, line);
        h.l2[0].invalidate(set, slot);
        h.l2[0].fill(set + 1, slot, MesiState::Exclusive);
        let err = h.check_coherence_invariants().unwrap_err();
        assert!(err.contains("not the line's"), "unexpected error: {err}");
    }

    #[test]
    fn directory_growth_tracks_distinct_lines() {
        let mut h = hierarchy();
        for i in 0..5_000u64 {
            h.access(0, i * 64, AccessKind::Read);
        }
        assert_eq!(h.directory_lines(), 5_000);
        h.check_coherence_invariants().unwrap();
    }
}
