//! Memory access latency model.
//!
//! The numbers follow the orders of magnitude reported in the DProf thesis: a local L1
//! hit costs a few cycles ("3 ns local L1" in Table 4.1), a fetch from another core's
//! cache costs roughly two orders of magnitude more ("200 ns foreign cache"), and the
//! Apache case study observes ~50 cycles for near-cache tcp_sock lines vs ~150 cycles
//! once they have been pushed out to farther levels.

use serde::{Deserialize, Serialize};

/// Access latencies, in CPU cycles, for each possible source of data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Local L1 hit.
    pub l1: u64,
    /// Local L2 hit.
    pub l2: u64,
    /// Shared L3 hit.
    pub l3: u64,
    /// Line supplied by another core's cache (dirty or shared intervention).
    pub remote_cache: u64,
    /// Line supplied by DRAM.
    pub dram: u64,
    /// Extra cycles for a write that must upgrade a Shared line (invalidation broadcast).
    pub upgrade: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            l1: 3,
            l2: 15,
            l3: 45,
            remote_cache: 200,
            dram: 250,
            upgrade: 25,
        }
    }
}

impl LatencyModel {
    /// Latency for a given hit level.
    pub fn for_level(&self, level: crate::HitLevel) -> u64 {
        match level {
            crate::HitLevel::L1 => self.l1,
            crate::HitLevel::L2 => self.l2,
            crate::HitLevel::L3 => self.l3,
            crate::HitLevel::RemoteCache => self.remote_cache,
            crate::HitLevel::Dram => self.dram,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HitLevel;

    #[test]
    fn default_latencies_are_monotone() {
        let m = LatencyModel::default();
        assert!(m.l1 < m.l2);
        assert!(m.l2 < m.l3);
        assert!(m.l3 < m.remote_cache);
        assert!(m.remote_cache <= m.dram);
    }

    #[test]
    fn for_level_maps_every_variant() {
        let m = LatencyModel::default();
        assert_eq!(m.for_level(HitLevel::L1), m.l1);
        assert_eq!(m.for_level(HitLevel::L2), m.l2);
        assert_eq!(m.for_level(HitLevel::L3), m.l3);
        assert_eq!(m.for_level(HitLevel::RemoteCache), m.remote_cache);
        assert_eq!(m.for_level(HitLevel::Dram), m.dram);
    }
}
