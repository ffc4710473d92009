//! Cache geometry: line size, associativity and set count.

use crate::{Addr, LineAddr};
use serde::{Deserialize, Serialize};

/// Describes the shape of a single set-associative cache.
///
/// `total size = line_size * ways * sets`.  Both `line_size` and `sets` must be powers
/// of two so that set indexing and tag extraction are simple bit operations, exactly as
/// on real hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Bytes per cache line (typically 64).
    pub line_size: usize,
    /// Associativity (number of ways per set).
    pub ways: usize,
    /// Number of associativity sets.
    pub sets: usize,
}

impl CacheGeometry {
    /// Largest associativity a cache can be built with: [`crate::SetAssocCache`] keeps
    /// a way's LRU position in one byte.
    pub const MAX_WAYS: usize = u8::MAX as usize;

    /// Creates a new geometry, validating the power-of-two constraints.
    ///
    /// # Panics
    /// Panics if `line_size` or `sets` is not a power of two, if any field is zero, or
    /// on more than [`Self::MAX_WAYS`] ways.
    pub fn new(line_size: usize, ways: usize, sets: usize) -> Self {
        assert!(
            line_size.is_power_of_two(),
            "line_size must be a power of two"
        );
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!((1..=Self::MAX_WAYS).contains(&ways), "1..=255 ways");
        CacheGeometry {
            line_size,
            ways,
            sets,
        }
    }

    /// Geometry from a total capacity in bytes.
    ///
    /// # Panics
    /// Panics if the capacity is not an exact multiple of `line_size * ways` or the
    /// resulting set count is not a power of two.
    pub fn from_capacity(capacity: usize, line_size: usize, ways: usize) -> Self {
        assert_eq!(
            capacity % (line_size * ways),
            0,
            "capacity not divisible by way size"
        );
        let sets = capacity / (line_size * ways);
        Self::new(line_size, ways, sets)
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.line_size * self.ways * self.sets
    }

    /// Number of address bits consumed by the line offset.
    pub fn line_bits(&self) -> u32 {
        self.line_size.trailing_zeros()
    }

    /// Converts a byte address to a line address.
    pub fn line_addr(&self, addr: Addr) -> LineAddr {
        addr >> self.line_bits()
    }

    /// The base byte address of the line containing `addr`.
    pub fn line_base(&self, addr: Addr) -> Addr {
        addr & !((self.line_size as Addr) - 1)
    }

    /// Associativity set index for a byte address.
    pub fn set_index(&self, addr: Addr) -> usize {
        (self.line_addr(addr) as usize) & (self.sets - 1)
    }

    /// Associativity set index for a line address.
    pub fn set_index_of_line(&self, line: LineAddr) -> usize {
        (line as usize) & (self.sets - 1)
    }

    /// Typical L1 data cache: 64 KiB, 8-way, 64-byte lines (128 sets).
    pub fn l1_default() -> Self {
        Self::from_capacity(64 * 1024, 64, 8)
    }

    /// Typical per-core L2: 512 KiB, 16-way, 64-byte lines (512 sets).
    pub fn l2_default() -> Self {
        Self::from_capacity(512 * 1024, 64, 16)
    }

    /// Shared L3: 8 MiB, 16-way, 64-byte lines.
    pub fn l3_default() -> Self {
        Self::from_capacity(8 * 1024 * 1024, 64, 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_round_trip() {
        let g = CacheGeometry::from_capacity(64 * 1024, 64, 8);
        assert_eq!(g.capacity(), 64 * 1024);
        assert_eq!(g.sets, 128);
    }

    #[test]
    fn line_addressing() {
        let g = CacheGeometry::new(64, 8, 128);
        assert_eq!(g.line_bits(), 6);
        assert_eq!(g.line_addr(0x1000), 0x40);
        assert_eq!(g.line_base(0x103f), 0x1000);
        assert_eq!(g.line_base(0x1040), 0x1040);
    }

    #[test]
    fn set_index_wraps_at_set_count() {
        let g = CacheGeometry::new(64, 8, 128);
        // Two addresses exactly one "way stride" apart map to the same set.
        let stride = (g.line_size * g.sets) as Addr;
        assert_eq!(g.set_index(0x4000), g.set_index(0x4000 + stride));
        assert_ne!(g.set_index(0x4000), g.set_index(0x4000 + 64));
    }

    #[test]
    fn default_geometries_have_expected_capacity() {
        assert_eq!(CacheGeometry::l1_default().capacity(), 64 * 1024);
        assert_eq!(CacheGeometry::l2_default().capacity(), 512 * 1024);
        assert_eq!(CacheGeometry::l3_default().capacity(), 8 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_line() {
        CacheGeometry::new(48, 8, 128);
    }
}
