//! Statistics collected by the caches and the hierarchy.

use serde::{Deserialize, Serialize};

/// Counters for a single cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found the line resident.
    pub hits: u64,
    /// Lookups that did not find the line.
    pub misses: u64,
    /// Lines installed.
    pub fills: u64,
    /// Lines displaced by capacity/conflict pressure.
    pub evictions: u64,
    /// Lines removed by coherence invalidations.
    pub invalidations: u64,
}

impl CacheStats {
    /// Total number of lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when no lookups occurred.
    pub fn miss_ratio(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.misses as f64 / self.lookups() as f64
        }
    }

    /// Accumulates another set of counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.fills += other.fills;
        self.evictions += other.evictions;
        self.invalidations += other.invalidations;
    }
}

/// Ground-truth classification of why a private-cache miss happened, following the
/// Hennessy & Patterson taxonomy used in the thesis (§1): invalidation (true/false
/// sharing), conflict, capacity and compulsory ("cold") misses.
///
/// The simulator records why the line left the cache; whether an eviction counts as a
/// *conflict* or a *capacity* miss is decided the same way DProf decides it — by looking
/// at whether the victim set is much more crowded than the average set — so the enum
/// carries the raw reason and the analysis refines it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MissKind {
    /// First access to the line by this core (compulsory miss).
    Cold,
    /// The line was previously present but removed by a remote core's write.
    Invalidation,
    /// The line was previously present but displaced by replacement pressure.
    Eviction,
}

/// Per-[`MissKind`] counters, stored as plain fields so the hierarchy's hot path can
/// bump them without hashing or allocating.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MissKindCounts {
    /// Compulsory (first-touch) misses.
    pub cold: u64,
    /// Misses caused by a remote core's invalidation.
    pub invalidation: u64,
    /// Misses caused by replacement pressure.
    pub eviction: u64,
}

impl MissKindCounts {
    /// The counter for a given kind.
    pub fn get(&self, kind: MissKind) -> u64 {
        match kind {
            MissKind::Cold => self.cold,
            MissKind::Invalidation => self.invalidation,
            MissKind::Eviction => self.eviction,
        }
    }

    /// Increments the counter for a given kind.
    pub fn bump(&mut self, kind: MissKind) {
        match kind {
            MissKind::Cold => self.cold += 1,
            MissKind::Invalidation => self.invalidation += 1,
            MissKind::Eviction => self.eviction += 1,
        }
    }

    /// Total misses across all kinds.
    pub fn total(&self) -> u64 {
        self.cold + self.invalidation + self.eviction
    }
}

/// Aggregated statistics for the whole hierarchy.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HierarchyStats {
    /// Total accesses issued.
    pub accesses: u64,
    /// Accesses that hit in the local L1.
    pub l1_hits: u64,
    /// Accesses that hit in the local L2 (after missing L1).
    pub l2_hits: u64,
    /// Accesses satisfied by the shared L3.
    pub l3_hits: u64,
    /// Accesses satisfied by a remote core's private cache.
    pub remote_hits: u64,
    /// Accesses satisfied by DRAM.
    pub dram_fills: u64,
    /// Per miss-kind counts (for accesses that missed the local private caches).
    pub miss_kinds: MissKindCounts,
    /// Total cycles of memory latency incurred.
    pub total_latency: u64,
}

impl HierarchyStats {
    /// Number of L1 misses (i.e. everything that had to go past the L1).
    pub fn l1_misses(&self) -> u64 {
        self.accesses - self.l1_hits
    }

    /// Average memory latency per access in cycles.
    pub fn avg_latency(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.accesses as f64
        }
    }

    /// Count for a particular miss kind.
    pub fn miss_kind(&self, kind: MissKind) -> u64 {
        self.miss_kinds.get(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_ratio_handles_empty() {
        let s = CacheStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
    }

    #[test]
    fn miss_ratio_computed() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.miss_ratio() - 0.25).abs() < 1e-9);
        assert_eq!(s.lookups(), 4);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CacheStats {
            hits: 1,
            misses: 2,
            fills: 3,
            evictions: 4,
            invalidations: 5,
        };
        let b = CacheStats {
            hits: 10,
            misses: 20,
            fills: 30,
            evictions: 40,
            invalidations: 50,
        };
        a.merge(&b);
        assert_eq!(a.hits, 11);
        assert_eq!(a.invalidations, 55);
    }

    #[test]
    fn hierarchy_derived_counts() {
        let h = HierarchyStats {
            accesses: 10,
            l1_hits: 5,
            l2_hits: 2,
            l3_hits: 1,
            remote_hits: 1,
            dram_fills: 1,
            total_latency: 100,
            ..Default::default()
        };
        assert_eq!(h.l1_misses(), 5);
        assert!((h.avg_latency() - 10.0).abs() < 1e-9);
    }
}
