//! # sim-cache
//!
//! A cycle-approximate, set-associative, multi-level cache hierarchy simulator with
//! MESI coherence, used as the hardware substrate for the DProf reproduction.
//!
//! The original DProf system (Pesterev, EuroSys 2010 / MIT MEng thesis 2010) observes a
//! real 16-core AMD machine through AMD IBS samples and x86 debug registers.  This crate
//! provides the equivalent observable behaviour in simulation:
//!
//! * per-core private L1 and L2 caches and a shared L3, each set-associative with LRU
//!   replacement ([`SetAssocCache`]),
//! * a directory-based MESI coherence protocol across the private caches
//!   ([`CacheHierarchy`]),
//! * a latency model distinguishing local L1/L2/L3 hits, *foreign cache* (remote
//!   dirty-line) fetches and DRAM fills ([`LatencyModel`]),
//! * ground-truth miss classification (invalidation vs. eviction vs. cold) that the
//!   DProf statistical classifier can be validated against ([`MissKind`]).
//!
//! The hierarchy is deliberately deterministic: the same access stream always produces
//! the same hits, misses and latencies, which keeps the higher-level experiments
//! reproducible.
//!
//! ## Example
//!
//! ```
//! use sim_cache::{CacheHierarchy, HierarchyConfig, AccessKind};
//!
//! let mut h = CacheHierarchy::new(HierarchyConfig::small_test());
//! // Core 0 writes a line, core 1 then reads it: the read is a foreign-cache fetch.
//! let w = h.access(0, 0x1000, AccessKind::Write);
//! assert!(w.level.is_miss()); // cold miss
//! let r = h.access(1, 0x1000, AccessKind::Read);
//! assert_eq!(r.level, sim_cache::HitLevel::RemoteCache);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod geometry;
pub mod ground_truth;
pub mod hierarchy;
pub mod latency;
pub mod line;
pub mod line_table;
#[doc(hidden)]
pub mod reference;
pub mod stats;

pub use cache::{SetAssocCache, Tag};
pub use geometry::CacheGeometry;
pub use ground_truth::{
    granule_mask, GranuleCounts, GroundTruthTally, LineUtilCounts, UtilizationTally,
    MAX_GRANULES_PER_LINE,
};
pub use hierarchy::{
    AccessKind, AccessOutcome, CacheHierarchy, HierarchyConfig, HitLevel, TraceEvent,
};
pub use latency::LatencyModel;
pub use line::MesiState;
pub use stats::{CacheStats, HierarchyStats, MissKind, MissKindCounts};

/// Identifier of a simulated CPU core.
pub type CoreId = usize;

/// A physical memory address in the simulated machine.
pub type Addr = u64;

/// An address expressed in units of cache lines (i.e. `addr >> line_bits`).
pub type LineAddr = u64;

/// A bitmask with one bit per simulated core.  128 bits wide, which bounds the
/// simulated machine at [`MAX_CORES`] cores.
pub type CoreMask = u128;

/// The largest simulated core count the hierarchy (and the trace format) supports —
/// one bit per core in a [`CoreMask`].
pub const MAX_CORES: usize = 128;
