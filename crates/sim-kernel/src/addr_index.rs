//! The page-indexed address index: the one place an address becomes an object.
//!
//! DProf resolves an address the way the kernel does — address → page → slab → pool →
//! type, in constant time (§5, the *address set*).  [`AddrIndex`] is that walk for the
//! simulator: objects are filed under the page their base lies in (`base >> 12`), a hash
//! map with the line table's mixer finds a page's bucket, and a bucket holds its
//! objects sorted by base, highest first.  A lookup reads the address's own bucket
//! and, only when no base there lies at or below the address, at most `ceil(largest
//! size ever inserted / PAGE_SIZE)` earlier pages — an object that starts further back
//! cannot reach the address.  For every shipped type that is one page (the largest,
//! `task-struct`, is 2 624 bytes).
//!
//! Memory is proportional to the number of objects filed, never to the magnitude of an
//! address: there is no table indexed by page number.  The buckets are chains through
//! numbered nodes, the nodes sit in 4 KiB chunks that are allocated once and never
//! moved, and a node freed is the next node used: alloc/free churn over a fixed set of
//! slots allocates nothing once the peak has been seen.  (Why not a `Vec` a page, or
//! one growing `Vec` of nodes: the first is 6 600 small blocks under a drop-off
//! backlog, the second leaves its outgrown copies behind it, and either way
//! `replay-apache` peaked 1.4 % higher than with the `BTreeMap` this replaces while
//! holding fewer bytes.  Fixed 4 KiB blocks fill the heap's holes as the tree's nodes
//! did.)  Like the line table, the mixer is not keyed: a trace crafted to collide
//! costs its own replay time, nothing else.
//!
//! Three users, one type: the allocator's live objects ([`AddrIndex::insert`] /
//! [`AddrIndex::remove`] / [`AddrIndex::find`], the semantics of a `BTreeMap` keyed by
//! base), the what-if sharing walk (the same, with a type slot and an object number as
//! payload), and the
//! index over the freed part of the allocation log behind
//! [`crate::AddressHistory::resolve_historical`] ([`AddrIndex::insert_newest`] /
//! [`AddrIndex::covering`]).

use sim_cache::line_table::BuildMixHasher;
use std::collections::HashMap;

/// Simulated page size: the allocator's, and the granularity objects are filed at.
pub const PAGE_SIZE: u64 = 1 << PAGE_BITS;
const PAGE_BITS: u32 = 12;

/// "No node": the end of a chain, an empty bucket, an empty free list.
const NIL: u32 = u32::MAX;

/// Nodes are kept in chunks of `1 << CHUNK_BITS`, each allocated once and never moved:
/// 4 KiB of the allocator's 32-byte nodes.
const CHUNK_BITS: u32 = 7;

/// The node numbered `i`.
#[inline]
fn node<T>(chunks: &[Vec<Node<T>>], i: u32) -> &Node<T> {
    &chunks[(i >> CHUNK_BITS) as usize][(i & ((1 << CHUNK_BITS) - 1)) as usize]
}

#[inline]
fn node_mut<T>(chunks: &mut [Vec<Node<T>>], i: u32) -> &mut Node<T> {
    &mut chunks[(i >> CHUNK_BITS) as usize][(i & ((1 << CHUNK_BITS) - 1)) as usize]
}

/// One filed object and the link to the next in its bucket.  Sizes are held in 32 bits
/// so that a node is 16 bytes plus its payload: the drop-off backlog keeps 14 000
/// objects live at once.
#[derive(Debug, Clone, Copy)]
struct Node<T> {
    base: u64,
    size: u32,
    /// The bucket's next node — the next lower base, or an older object at the same
    /// base — or, in a freed node, the next free one.
    next: u32,
    payload: T,
}

impl<T: Copy> Node<T> {
    #[inline]
    fn contains(&self, addr: u64) -> bool {
        // `base <= addr` first: the subtraction cannot wrap, and `base + size` is
        // never formed.
        self.base <= addr && addr - self.base < u64::from(self.size)
    }

    #[inline]
    fn object(&self) -> Object<T> {
        Object {
            base: self.base,
            size: self.size.into(),
            payload: self.payload,
        }
    }
}

/// An object as a lookup returns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Object<T> {
    /// Base address.
    pub base: u64,
    /// Size in bytes.
    pub size: u64,
    /// What the index's user filed with it.
    pub payload: T,
}

/// Objects (`base`, `size`, payload) filed by the page of their base.  See the module
/// documentation.
#[derive(Debug, Clone)]
pub struct AddrIndex<T> {
    /// Page → its bucket's first node (the highest base), [`NIL`] once emptied.
    heads: HashMap<u64, u32, BuildMixHasher>,
    /// The nodes, numbered through the chunks; every chunk but the last is full.
    chunks: Vec<Vec<Node<T>>>,
    /// How many nodes the chunks hold: the number of the next new one.
    fresh: u32,
    /// The freed nodes, chained.
    free: u32,
    len: usize,
    /// How many pages before an address's own can hold the base of an object that
    /// contains it: `ceil(largest size ever inserted / PAGE_SIZE)`.  Never lowered.
    look_back: u64,
}

impl<T> Default for AddrIndex<T> {
    fn default() -> Self {
        AddrIndex {
            heads: HashMap::default(),
            chunks: Vec::new(),
            fresh: 0,
            free: NIL,
            len: 0,
            look_back: 0,
        }
    }
}

impl<T: Copy> AddrIndex<T> {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of objects filed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no object is filed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Forgets every object and keeps the memory.
    pub fn clear(&mut self) {
        self.heads.values_mut().for_each(|head| *head = NIL);
        self.chunks.iter_mut().for_each(Vec::clear);
        self.fresh = 0;
        self.free = NIL;
        self.len = 0;
    }

    /// The nodes of one bucket, highest base first.
    #[inline]
    fn bucket(&self, page: u64) -> impl Iterator<Item = &Node<T>> + '_ {
        let mut at = self.heads.get(&page).copied().unwrap_or(NIL);
        std::iter::from_fn(move || {
            if at == NIL {
                return None;
            }
            let here = node(&self.chunks, at);
            at = here.next;
            Some(here)
        })
    }

    /// Every object filed, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = Object<T>> + '_ {
        self.heads
            .keys()
            .flat_map(move |&page| self.bucket(page))
            .map(Node::object)
    }

    /// Files an object, replacing the one filed at the same base — a map keyed by base.
    ///
    /// # Panics
    /// Panics if `size` exceeds `u32::MAX`, or at 2^32 − 1 objects.  The trace decoder
    /// bounds a recorded size far below the one, and memory the other.
    pub fn insert(&mut self, base: u64, size: u64, payload: T) {
        self.put(base, size, payload, |_| false);
    }

    /// Files an object as the newest at its base — a log keyed by base.  An older
    /// object at the same base stays only if it reaches further than the new one:
    /// every address a shorter one covers, the new one covers too, so
    /// [`AddrIndex::covering`] still yields the newest object covering any address,
    /// and a slot recycled at one size occupies one node however often it is reused.
    ///
    /// # Panics
    /// As [`AddrIndex::insert`].
    pub fn insert_newest(&mut self, base: u64, size: u64, payload: T) {
        self.put(base, size, payload, |older| u64::from(older) > size);
    }

    /// Walks a bucket from `head` past every base above `base`: the node it stops at
    /// ([`NIL`] at the end of the chain) and the node before that one ([`NIL`] when it
    /// stopped at the head).
    fn seek(chunks: &[Vec<Node<T>>], head: u32, base: u64) -> (u32, u32) {
        let (mut before, mut at) = (NIL, head);
        while at != NIL && node(chunks, at).base > base {
            before = at;
            at = node(chunks, at).next;
        }
        (before, at)
    }

    /// Makes `to` what follows `before` in the bucket of `head`.
    fn link(chunks: &mut [Vec<Node<T>>], head: &mut u32, before: u32, to: u32) {
        match before {
            NIL => *head = to,
            _ => node_mut(chunks, before).next = to,
        }
    }

    /// Hands an unlinked node to the free list.
    fn release(&mut self, at: u32) {
        node_mut(&mut self.chunks, at).next = self.free;
        self.free = at;
        self.len -= 1;
    }

    /// Files an object ahead of the objects already at its base, of which those
    /// `keep_older(size)` rejects are dropped.
    fn put(&mut self, base: u64, size: u64, payload: T, keep_older: impl Fn(u32) -> bool) {
        let filed = Node {
            base,
            size: u32::try_from(size).expect("an indexed object is smaller than 4 GiB"),
            next: NIL,
            payload,
        };
        self.look_back = self.look_back.max(size.div_ceil(PAGE_SIZE));
        let new = match self.free {
            NIL => {
                let fresh = self.fresh;
                assert!(fresh != NIL, "fewer than 2^32 - 1 objects");
                if (fresh >> CHUNK_BITS) as usize == self.chunks.len() {
                    self.chunks.push(Vec::with_capacity(1 << CHUNK_BITS));
                }
                self.chunks[(fresh >> CHUNK_BITS) as usize].push(filed);
                self.fresh += 1;
                fresh
            }
            reused => {
                let slot = node_mut(&mut self.chunks, reused);
                self.free = slot.next;
                *slot = filed;
                reused
            }
        };
        let head = self.heads.entry(base >> PAGE_BITS).or_insert(NIL);
        let (before, mut at) = Self::seek(&self.chunks, *head, base);
        Self::link(&mut self.chunks, head, before, new);
        self.len += 1;

        // The objects already at this base: kept ones stay chained behind the new
        // node, dropped ones go to the free list.
        let mut last = new;
        while at != NIL && node(&self.chunks, at).base == base {
            let next = node(&self.chunks, at).next;
            if keep_older(node(&self.chunks, at).size) {
                node_mut(&mut self.chunks, last).next = at;
                last = at;
            } else {
                self.release(at);
            }
            at = next;
        }
        node_mut(&mut self.chunks, last).next = at;
    }

    /// Removes and returns the object filed at exactly `base`.
    pub fn remove(&mut self, base: u64) -> Option<Object<T>> {
        let head = self.heads.get_mut(&(base >> PAGE_BITS))?;
        let (before, at) = Self::seek(&self.chunks, *head, base);
        if at == NIL || node(&self.chunks, at).base != base {
            return None;
        }
        let found = *node(&self.chunks, at);
        Self::link(&mut self.chunks, head, before, found.next);
        self.release(at);
        Some(found.object())
    }

    /// The object with the nearest base at or below `addr`, if it contains `addr` —
    /// what `range(..=addr).next_back()` and a containment test answer on a `BTreeMap`
    /// keyed by base.  Meant for an index filled by [`AddrIndex::insert`].
    #[inline]
    pub fn find(&self, addr: u64) -> Option<Object<T>> {
        let page = addr >> PAGE_BITS;
        let mut nearest = self.bucket(page).find(|n| n.base <= addr);
        // No base at or below `addr` in its own page: the nearest is the highest of
        // the first earlier page that has any, if that page is near enough to matter.
        let mut back = 0;
        while nearest.is_none() && back < self.look_back.min(page) {
            back += 1;
            nearest = self.bucket(page - back).next();
        }
        nearest.filter(|n| n.contains(addr)).map(Node::object)
    }

    /// Every object that contains `addr`, in no particular order.
    pub fn covering(&self, addr: u64) -> impl Iterator<Item = Object<T>> + '_ {
        let page = addr >> PAGE_BITS;
        (0..=self.look_back.min(page))
            .flat_map(move |back| self.bucket(page - back))
            .filter(move |n| n.contains(addr))
            .map(Node::object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// What `find` must answer: `range(..=addr).next_back()` and a containment test.
    fn model_find(model: &BTreeMap<u64, (u64, u16)>, addr: u64) -> Option<Object<u16>> {
        let (&base, &(size, payload)) = model.range(..=addr).next_back()?;
        (addr - base < size).then_some(Object {
            base,
            size,
            payload,
        })
    }

    fn sorted(objects: impl Iterator<Item = Object<u16>>) -> Vec<Object<u16>> {
        let mut v: Vec<_> = objects.collect();
        v.sort_unstable_by_key(|o| o.base);
        v
    }

    /// Object sizes: nothing, a byte, a granule, slab objects, one that straddles a
    /// page boundary from most bases, ones that straddle two, and three pages — the
    /// later, larger ones raise the look-back in mid-sequence.
    const SIZES: [u64; 10] = [0, 1, 8, 256, 2_624, 4_096, 4_097, 8_292, 12_288, 1_600];
    const ARENA_PAGES: u64 = 12;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Generated insert / remove / lookup sequences against a `BTreeMap`: equal
        /// answers and equal `len()` after every step.
        #[test]
        fn index_equals_the_btreemap_model(
            origin in 0u8..3,
            slots in proptest::collection::vec(0u64..ARENA_PAGES * PAGE_SIZE, 4..20),
            ops in proptest::collection::vec(
                ((0u8..10, 0usize..64, 0usize..SIZES.len()), any::<u16>(), 0u64..ARENA_PAGES * PAGE_SIZE),
                1..300,
            ),
        ) {
            // At the bottom of the address space (no earlier page to look back to), in
            // the heap, and at the top (nothing may wrap).
            let origin = [0, 0x1_0000_0000 - PAGE_SIZE, u64::MAX - (ARENA_PAGES + 4) * PAGE_SIZE + 1]
                [origin as usize];
            // Bases a few objects fight over: page starts, page ends, and the case's own.
            let mut bases = vec![0, 1, PAGE_SIZE - 1, PAGE_SIZE, 2 * PAGE_SIZE - 128, 5 * PAGE_SIZE + 7];
            bases.extend(&slots);
            let mut index: AddrIndex<u16> = AddrIndex::new();
            let mut model: BTreeMap<u64, (u64, u16)> = BTreeMap::new();

            for (step, &((op, slot, size), payload, anywhere)) in ops.iter().enumerate() {
                let base = origin + bases[slot % bases.len()];
                let size = SIZES[size];
                match op {
                    0..=4 => {
                        index.insert(base, size, payload);
                        model.insert(base, (size, payload));
                    }
                    5..=7 => prop_assert_eq!(
                        index.remove(base),
                        model.remove(&base).map(|(size, payload)| Object { base, size, payload }),
                        "step {}: remove {:#x}", step, base
                    ),
                    _ => {}
                }
                prop_assert_eq!(index.len(), model.len(), "step {}", step);
                prop_assert_eq!(index.is_empty(), model.is_empty());

                // Around the object just touched, somewhere in the arena (gaps
                // included), and in pages that never had a bucket.
                let probes = [
                    base.saturating_sub(1),
                    base,
                    base + size.saturating_sub(1),
                    base + size,
                    origin + anywhere,
                    origin + (ARENA_PAGES + 3) * PAGE_SIZE + (anywhere % PAGE_SIZE),
                    origin.saturating_sub(PAGE_SIZE + 1),
                ];
                for addr in probes {
                    prop_assert_eq!(
                        index.find(addr),
                        model_find(&model, addr),
                        "step {}: find {:#x}", step, addr
                    );
                    let covering = model
                        .iter()
                        .filter(|(&b, &(s, _))| b <= addr && addr - b < s)
                        .map(|(&base, &(size, payload))| Object { base, size, payload });
                    prop_assert_eq!(
                        sorted(index.covering(addr)),
                        sorted(covering),
                        "step {}: covering {:#x}", step, addr
                    );
                }
            }
            let everything = model
                .iter()
                .map(|(&base, &(size, payload))| Object { base, size, payload });
            prop_assert_eq!(sorted(index.iter()), sorted(everything));

            index.clear();
            prop_assert!(index.is_empty() && index.iter().next().is_none());
            prop_assert_eq!(index.find(origin + bases[0]), None);
        }

        /// `insert_newest` and `covering` against a scan of the log: the newest entry
        /// covering an address is found however bases were reused, at whatever sizes.
        #[test]
        fn newest_covering_equals_a_scan_of_the_log(
            log in proptest::collection::vec((0usize..6, 0usize..SIZES.len(), 0u64..3 * PAGE_SIZE), 1..120),
            probes in proptest::collection::vec(0u64..7 * PAGE_SIZE, 1..60),
        ) {
            const ORIGIN: u64 = 0x1_0000_0000;
            let slots = [0, 100, PAGE_SIZE - 8, PAGE_SIZE, 2 * PAGE_SIZE + 1, 3 * PAGE_SIZE - 1];
            let mut index: AddrIndex<u32> = AddrIndex::new();
            let mut scanned: Vec<(u64, u64)> = Vec::new();
            for (i, &(slot, size, stray)) in log.iter().enumerate() {
                // Two in three recycle a slot, at any size; the rest land anywhere.
                let base = ORIGIN + if i % 3 == 2 { stray } else { slots[slot] };
                index.insert_newest(base, SIZES[size], i as u32);
                scanned.push((base, SIZES[size]));
                prop_assert!(index.len() <= scanned.len());
            }
            for addr in probes.iter().map(|p| ORIGIN - PAGE_SIZE + p) {
                let newest = scanned.iter().rposition(|&(b, s)| b <= addr && addr - b < s);
                prop_assert_eq!(
                    index.covering(addr).map(|o| o.payload).max(),
                    newest.map(|i| i as u32),
                    "address {:#x}", addr
                );
            }
        }
    }

    #[test]
    fn a_recycled_slot_is_one_node_and_a_shorter_successor_hides_nothing() {
        let mut index: AddrIndex<u32> = AddrIndex::new();
        for i in 0..100 {
            index.insert_newest(0x4000, 256, i);
        }
        assert_eq!(index.len(), 1);
        index.insert_newest(0x4000, 64, 100);
        assert_eq!(
            index.len(),
            2,
            "the longer, older object still reaches past 64"
        );
        let newest = |addr| index.covering(addr).map(|o| o.payload).max();
        assert_eq!(newest(0x4000 + 63), Some(100));
        assert_eq!(newest(0x4000 + 64), Some(99));
        assert_eq!(newest(0x4000 + 256), None);
    }

    #[test]
    fn a_lookup_reads_no_further_back_than_the_largest_object_reaches() {
        let mut index: AddrIndex<()> = AddrIndex::new();
        index.insert(0x10_0000, 2_624, ());
        assert_eq!(index.look_back, 1);
        // Ten pages on, the object is out of reach, and not looked for.
        assert_eq!(index.find(0x10_0000 + 10 * PAGE_SIZE), None);
        index.insert(0x20_0000, 3 * PAGE_SIZE + 1, ());
        assert_eq!(index.look_back, 4);
        assert!(index.find(0x20_0000 + 3 * PAGE_SIZE).is_some());
        assert_eq!(index.find(0x20_0000 + 3 * PAGE_SIZE + 1), None);
        // Removing the large object does not lower the bound: it is the largest *ever*.
        index.remove(0x20_0000);
        assert_eq!(index.look_back, 4);
    }

    #[test]
    #[should_panic(expected = "smaller than 4 GiB")]
    fn an_object_of_four_gibibytes_is_refused() {
        AddrIndex::new().insert(0, 1 << 32, ());
    }
}
