//! The retained reference implementation of the cache hierarchy.
//!
//! This is the seed (pre-optimization) model kept verbatim, less its per-set
//! distinct-line sets: `Vec<Option<CacheLine>>` slots, and a `HashMap`-based directory
//! plus per-core `departures`/`touched` maps.  It is an **oracle**: the property tests
//! replay randomized access streams, and `dprof-bench`'s tests the quick grid's
//! workload streams, through this model and the optimized [`crate::CacheHierarchy`],
//! and require identical [`AccessOutcome`] sequences and final statistics.
//!
//! It is not part of the supported API surface.

#![allow(missing_docs)]
// The module is the seed code kept verbatim (see above); lint-driven rewrites would
// defeat its purpose as the unchanged oracle.
#![allow(clippy::manual_flatten)]

use crate::geometry::CacheGeometry;
use crate::hierarchy::{AccessKind, AccessOutcome, HierarchyConfig, HitLevel};
use crate::line::MesiState;
use crate::stats::{CacheStats, HierarchyStats, MissKind};
use crate::{Addr, CoreId, CoreMask, LineAddr, MAX_CORES};
use std::collections::{HashMap, HashSet};

/// The seed's per-slot record.  (The optimized cache keeps no fill timestamp.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLine {
    pub line: u64,
    pub state: MesiState,
    pub last_used: u64,
    pub filled_at: u64,
}

impl CacheLine {
    pub fn new(line: u64, state: MesiState, now: u64) -> Self {
        CacheLine {
            line,
            state,
            last_used: now,
            filled_at: now,
        }
    }

    pub fn is_dirty(&self) -> bool {
        self.state == MesiState::Modified
    }
}

/// The seed's lookup result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    Hit(MesiState),
    Miss,
}

/// The seed set-associative cache: option-wrapped lines and fill stamps.
#[derive(Debug, Clone)]
pub struct RefSetAssocCache {
    geometry: CacheGeometry,
    slots: Vec<Option<CacheLine>>,
    tick: u64,
    pub stats: CacheStats,
}

impl RefSetAssocCache {
    pub fn new(geometry: CacheGeometry) -> Self {
        let slot_count = geometry.sets * geometry.ways;
        RefSetAssocCache {
            geometry,
            slots: vec![None; slot_count],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let set = self.geometry.set_index_of_line(line);
        let start = set * self.geometry.ways;
        start..start + self.geometry.ways
    }

    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    pub fn lookup(&mut self, line: LineAddr) -> LookupResult {
        let now = self.bump();
        let range = self.set_range(line);
        for slot in &mut self.slots[range] {
            if let Some(l) = slot {
                if l.line == line {
                    l.last_used = now;
                    self.stats.hits += 1;
                    return LookupResult::Hit(l.state);
                }
            }
        }
        self.stats.misses += 1;
        LookupResult::Miss
    }

    pub fn peek(&self, line: LineAddr) -> Option<&CacheLine> {
        let range = self.set_range(line);
        self.slots[range].iter().flatten().find(|l| l.line == line)
    }

    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut CacheLine> {
        let range = self.set_range(line);
        self.slots[range]
            .iter_mut()
            .flatten()
            .find(|l| l.line == line)
    }

    pub fn set_state(&mut self, line: LineAddr, state: MesiState) -> bool {
        match self.peek_mut(line) {
            Some(l) => {
                l.state = state;
                true
            }
            None => false,
        }
    }

    pub fn fill(&mut self, line: LineAddr, state: MesiState) -> Option<CacheLine> {
        let now = self.bump();
        let range = self.set_range(line);

        for slot in &mut self.slots[range.clone()] {
            if let Some(l) = slot {
                if l.line == line {
                    l.state = state;
                    l.last_used = now;
                    return None;
                }
            }
        }
        for slot in &mut self.slots[range.clone()] {
            if slot.is_none() {
                *slot = Some(CacheLine::new(line, state, now));
                self.stats.fills += 1;
                return None;
            }
        }
        let victim_idx = self.slots[range.clone()]
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.as_ref().map(|l| l.last_used).unwrap_or(0))
            .map(|(i, _)| i)
            .expect("set has at least one way");
        let abs_idx = range.start + victim_idx;
        let victim = self.slots[abs_idx].take();
        self.slots[abs_idx] = Some(CacheLine::new(line, state, now));
        self.stats.fills += 1;
        self.stats.evictions += 1;
        victim
    }

    pub fn invalidate(&mut self, line: LineAddr) -> Option<CacheLine> {
        let range = self.set_range(line);
        for slot in &mut self.slots[range] {
            if let Some(l) = slot {
                if l.line == line {
                    let removed = *l;
                    *slot = None;
                    self.stats.invalidations += 1;
                    return Some(removed);
                }
            }
        }
        None
    }

    pub fn resident_lines(&self) -> impl Iterator<Item = &CacheLine> {
        self.slots.iter().flatten()
    }

    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DepartReason {
    Invalidated,
    Evicted,
}

#[derive(Debug, Clone, Default)]
struct DirEntry {
    sharers: CoreMask,
    owner: Option<CoreId>,
}

/// The seed cache hierarchy: central `HashMap` directory, per-core `HashMap`
/// departure/touched bookkeeping.
#[derive(Debug, Clone)]
pub struct RefCacheHierarchy {
    config: HierarchyConfig,
    l1: Vec<RefSetAssocCache>,
    l2: Vec<RefSetAssocCache>,
    l3: RefSetAssocCache,
    directory: HashMap<LineAddr, DirEntry>,
    departures: Vec<HashMap<LineAddr, DepartReason>>,
    touched: Vec<HashMap<LineAddr, ()>>,
    pub stats: HierarchyStats,
    pub per_core: Vec<HierarchyStats>,
}

impl RefCacheHierarchy {
    pub fn new(config: HierarchyConfig) -> Self {
        assert!(
            config.cores >= 1 && config.cores <= MAX_CORES,
            "1..={MAX_CORES} cores supported"
        );
        RefCacheHierarchy {
            l1: (0..config.cores)
                .map(|_| RefSetAssocCache::new(config.l1))
                .collect(),
            l2: (0..config.cores)
                .map(|_| RefSetAssocCache::new(config.l2))
                .collect(),
            l3: RefSetAssocCache::new(config.l3),
            directory: HashMap::new(),
            departures: vec![HashMap::new(); config.cores],
            touched: vec![HashMap::new(); config.cores],
            stats: HierarchyStats::default(),
            per_core: vec![HierarchyStats::default(); config.cores],
            config,
        }
    }

    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    pub fn line_addr(&self, addr: Addr) -> LineAddr {
        self.config.l1.line_addr(addr)
    }

    pub fn access(&mut self, core: CoreId, addr: Addr, kind: AccessKind) -> AccessOutcome {
        assert!(core < self.config.cores, "core {core} out of range");
        let line = self.line_addr(addr);
        let l2_set = self.config.l2.set_index_of_line(line);
        let latency_model = self.config.latency;

        let (level, extra) = self.access_line(core, line, kind);
        let latency = latency_model.for_level(level) + extra;

        let miss_kind = if level.is_miss() {
            Some(self.classify_miss(core, line))
        } else {
            None
        };

        self.touched[core].insert(line, ());
        self.departures[core].remove(&line);

        self.record_stats(core, level, latency, miss_kind);

        AccessOutcome {
            level,
            latency,
            miss_kind,
            l2_set,
            line,
        }
    }

    fn access_line(&mut self, core: CoreId, line: LineAddr, kind: AccessKind) -> (HitLevel, u64) {
        let is_write = kind.is_write();

        if let LookupResult::Hit(state) = self.l1[core].lookup(line) {
            let extra = if is_write && !state.can_write_silently() {
                self.upgrade_to_modified(core, line);
                self.config.latency.upgrade
            } else if is_write {
                self.mark_modified_local(core, line);
                0
            } else {
                0
            };
            return (HitLevel::L1, extra);
        }

        if let LookupResult::Hit(state) = self.l2[core].lookup(line) {
            let extra = if is_write && !state.can_write_silently() {
                self.upgrade_to_modified(core, line);
                self.config.latency.upgrade
            } else if is_write {
                self.mark_modified_local(core, line);
                0
            } else {
                0
            };
            let new_state = if is_write { MesiState::Modified } else { state };
            self.fill_private(core, line, new_state, /*l1_only=*/ true);
            return (HitLevel::L2, extra);
        }

        let entry = self.directory.get(&line).cloned().unwrap_or_default();
        let other_sharers = entry.sharers & !((1 as CoreMask) << core);
        let remote_owner = entry
            .owner
            .filter(|&o| o != core && Self::holds(&self.l1, &self.l2, o, line));

        let level = if let Some(owner) = remote_owner {
            if is_write {
                self.invalidate_remote_copies(core, line);
            } else {
                self.l1[owner].set_state(line, MesiState::Shared);
                self.l2[owner].set_state(line, MesiState::Shared);
                self.l3.fill(line, MesiState::Shared);
                let e = self.directory.entry(line).or_default();
                e.owner = None;
            }
            HitLevel::RemoteCache
        } else if other_sharers != 0 && self.any_core_holds(other_sharers, line) {
            if is_write {
                self.invalidate_remote_copies(core, line);
            } else {
                for c in 0..self.config.cores {
                    if c != core && (other_sharers & (1 << c)) != 0 {
                        self.l1[c].set_state(line, MesiState::Shared);
                        self.l2[c].set_state(line, MesiState::Shared);
                        let e = self.directory.entry(line).or_default();
                        if e.owner == Some(c) {
                            e.owner = None;
                        }
                    }
                }
            }
            if self.l3.peek(line).is_none() {
                self.l3.fill(line, MesiState::Shared);
            } else {
                let _ = self.l3.lookup(line);
            }
            HitLevel::L3
        } else if self.l3.peek(line).is_some() {
            let _ = self.l3.lookup(line);
            if is_write {
                self.invalidate_remote_copies(core, line);
            }
            HitLevel::L3
        } else {
            if is_write {
                self.invalidate_remote_copies(core, line);
            }
            HitLevel::Dram
        };

        let state = if is_write {
            MesiState::Modified
        } else if other_sharers != 0 && self.any_core_holds(other_sharers, line) {
            MesiState::Shared
        } else {
            MesiState::Exclusive
        };
        self.fill_private(core, line, state, /*l1_only=*/ false);

        let e = self.directory.entry(line).or_default();
        e.sharers |= 1 << core;
        if is_write {
            e.owner = Some(core);
        } else if e.owner == Some(core) {
            // keep
        } else if state == MesiState::Exclusive {
            e.owner = None;
        }

        (level, 0)
    }

    fn holds(l1: &[RefSetAssocCache], l2: &[RefSetAssocCache], c: CoreId, line: LineAddr) -> bool {
        l1[c].peek(line).is_some() || l2[c].peek(line).is_some()
    }

    fn any_core_holds(&self, mask: CoreMask, line: LineAddr) -> bool {
        (0..self.config.cores)
            .filter(|c| mask & (1 << c) != 0)
            .any(|c| Self::holds(&self.l1, &self.l2, c, line))
    }

    fn mark_modified_local(&mut self, core: CoreId, line: LineAddr) {
        self.l1[core].set_state(line, MesiState::Modified);
        self.l2[core].set_state(line, MesiState::Modified);
        let e = self.directory.entry(line).or_default();
        e.owner = Some(core);
        e.sharers |= 1 << core;
    }

    fn upgrade_to_modified(&mut self, core: CoreId, line: LineAddr) {
        self.invalidate_remote_copies(core, line);
        self.l1[core].set_state(line, MesiState::Modified);
        self.l2[core].set_state(line, MesiState::Modified);
        let e = self.directory.entry(line).or_default();
        e.owner = Some(core);
        e.sharers = 1 << core;
    }

    fn invalidate_remote_copies(&mut self, writer: CoreId, line: LineAddr) {
        for c in 0..self.config.cores {
            if c == writer {
                continue;
            }
            let mut had = false;
            if self.l1[c].invalidate(line).is_some() {
                had = true;
            }
            if self.l2[c].invalidate(line).is_some() {
                had = true;
            }
            if had {
                self.departures[c].insert(line, DepartReason::Invalidated);
            }
        }
        self.l3.invalidate(line);
        let e = self.directory.entry(line).or_default();
        e.sharers &= 1 << writer;
        e.owner = Some(writer);
    }

    fn fill_private(&mut self, core: CoreId, line: LineAddr, state: MesiState, l1_only: bool) {
        if let Some(victim) = self.l1[core].fill(line, state) {
            if self.l2[core].peek(victim.line).is_none() {
                if victim.is_dirty() {
                    self.l3.fill(victim.line, MesiState::Modified);
                }
                self.note_eviction(core, victim.line);
            }
        }
        if !l1_only {
            if let Some(victim) = self.l2[core].fill(line, state) {
                self.l1[core].invalidate(victim.line);
                if victim.is_dirty() {
                    self.l3.fill(victim.line, MesiState::Modified);
                }
                self.note_eviction(core, victim.line);
            }
        }
    }

    fn note_eviction(&mut self, core: CoreId, line: LineAddr) {
        self.departures[core]
            .entry(line)
            .or_insert(DepartReason::Evicted);
        let e = self.directory.entry(line).or_default();
        if !Self::holds(&self.l1, &self.l2, core, line) {
            e.sharers &= !((1 as CoreMask) << core);
            if e.owner == Some(core) {
                e.owner = None;
            }
        }
    }

    fn classify_miss(&self, core: CoreId, line: LineAddr) -> MissKind {
        match self.departures[core].get(&line) {
            Some(DepartReason::Invalidated) => MissKind::Invalidation,
            Some(DepartReason::Evicted) => MissKind::Eviction,
            None => {
                if self.touched[core].contains_key(&line) {
                    MissKind::Eviction
                } else {
                    MissKind::Cold
                }
            }
        }
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

    pub fn check_coherence_invariants(&self) -> Result<(), String> {
        let mut modified_lines: HashMap<LineAddr, CoreId> = HashMap::new();
        let mut holders: HashMap<LineAddr, HashSet<CoreId>> = HashMap::new();
        for c in 0..self.config.cores {
            for cache in [&self.l1[c], &self.l2[c]] {
                for l in cache.resident_lines() {
                    holders.entry(l.line).or_default().insert(c);
                    if l.state == MesiState::Modified {
                        if let Some(prev) = modified_lines.insert(l.line, c) {
                            if prev != c {
                                return Err(format!(
                                    "line {:#x} Modified on cores {} and {}",
                                    l.line, prev, c
                                ));
                            }
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
        }
        Ok(())
    }
}
