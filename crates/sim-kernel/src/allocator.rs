//! The typed SLAB memory allocator.
//!
//! The Linux SLAB allocator keeps a separate pool per object type, per-core caches of
//! recently freed objects (`array_cache`), and "alien" handling for objects freed on a
//! core other than the one they were allocated from.  DProf leans on exactly this
//! structure for its address-to-type resolver (§5.2), and the allocator's own
//! bookkeeping structures (`slab`, `array-cache`) show up prominently in the memcached
//! data profile (Table 6.1) because they bounce between cores.
//!
//! The simulated allocator reproduces those behaviours:
//!
//! * every allocation/free is logged to the **address set** ([`AllocRecord`]) with its
//!   type, allocating core, and allocation/free timestamps,
//! * `resolve(addr)` maps any address inside a live object back to `(type, base)`
//!   through the page-indexed [`AddrIndex`] — address → page → object, as the kernel
//!   goes address → page → slab — and [`SlabAllocator::history`] files the rest of
//!   the log in a second index of the same type, to answer which allocation, live or
//!   freed, covered an address most recently,
//! * allocation and free touch the per-core `array_cache` object and the slab
//!   descriptor through the machine, so profilers see the bookkeeping traffic,
//! * objects freed on a remote core take the alien path and are periodically drained
//!   (`__drain_alien_cache`), writing to the home slab descriptor and therefore
//!   invalidating the home core's cached copy — the "slab / array-cache bounce" of
//!   Table 6.1,
//! * a [`ProfileHook`] lets DProf reserve "the next allocation of type T" for object
//!   access history collection and learn when the watched object is freed.

use crate::addr_index::{AddrIndex, Object, PAGE_SIZE};
use crate::locks::KLock;
use crate::types::{TypeId, TypeRegistry};
use serde::{Deserialize, Serialize};
use sim_cache::CoreId;
use sim_machine::{FunctionId, Machine};
use std::collections::HashMap;

/// Size classes of the generic (`kmalloc`-style) pools.
pub const GENERIC_SIZES: &[u64] = &[64, 128, 256, 512, 1024, 2048];

/// Number of objects moved into a per-core cache on refill.
const REFILL_BATCH: usize = 16;
/// Capacity of a per-core free-object cache.
const ARRAY_CACHE_LIMIT: usize = 32;
/// Alien-cache drain threshold.
const ALIEN_LIMIT: usize = 12;
/// Base of the simulated dynamic-allocation address range.
const HEAP_BASE: u64 = 0x0001_0000_0000;

/// One entry of the address set: the full life of one allocation.
///
/// Forty bytes, because a replay keeps one for every allocation it ever saw (73 808 on
/// the apache benchmark session).  The narrow fields hold what the allocator already
/// refuses past: a size in four bytes, as in [`AddrIndex`] (the trace decoder refuses
/// an `Alloc` of more than a mebibyte), a core in one, as in the live index, and "not
/// freed" as a free at `u64::MAX`, a cycle every reader of the log already took for
/// "never".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocRecord {
    addr: u64,
    alloc_cycle: u64,
    /// [`NOT_FREED`] while the object is live.
    free_cycle: u64,
    type_id: TypeId,
    size: u32,
    alloc_core: u8,
}

/// The free cycle of an allocation that has not been freed.
const NOT_FREED: u64 = u64::MAX;

impl AllocRecord {
    /// A record of an allocation of `size` bytes at `addr`; `free_cycle` is `None` for
    /// an object not freed (yet), and a free at `u64::MAX` is the same thing.
    ///
    /// # Panics
    /// Panics on a size of 4 GiB or more and on a core past 255 (a machine has at most
    /// 128).
    pub fn new(
        addr: u64,
        type_id: TypeId,
        size: u64,
        alloc_core: CoreId,
        alloc_cycle: u64,
        free_cycle: Option<u64>,
    ) -> Self {
        AllocRecord {
            addr,
            alloc_cycle,
            free_cycle: free_cycle.unwrap_or(NOT_FREED),
            type_id,
            size: u32::try_from(size).expect("an allocation is smaller than 4 GiB"),
            alloc_core: u8::try_from(alloc_core).expect("a machine has at most 128 cores"),
        }
    }

    /// Base address of the object.
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Type of the object.
    pub fn type_id(&self) -> TypeId {
        self.type_id
    }

    /// Object size in bytes.
    pub fn size(&self) -> u64 {
        self.size.into()
    }

    /// One past the object's last byte.
    pub fn end(&self) -> u64 {
        self.addr + self.size()
    }

    /// Core that allocated the object.
    pub fn alloc_core(&self) -> CoreId {
        self.alloc_core.into()
    }

    /// Core-local cycle count at allocation.
    pub fn alloc_cycle(&self) -> u64 {
        self.alloc_cycle
    }

    /// Cycle count at free, if freed.
    pub fn free_cycle(&self) -> Option<u64> {
        (self.free_cycle != NOT_FREED).then_some(self.free_cycle)
    }

    /// The origin label for a given allocating core: the per-core slab the object was
    /// carved from.  Attribution axes (e.g. the utilization view) group by this.
    pub fn origin_label_for(core: CoreId) -> String {
        format!("cpu{core}")
    }
}

/// Result of resolving an address to the object containing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedAddr {
    /// The type of the containing object.
    pub type_id: TypeId,
    /// The object's base address.
    pub base: u64,
    /// Offset of the resolved address within the object.
    pub offset: u64,
}

/// Result of [`SlabAllocator::resolve_remap`]: the live object containing an address,
/// plus the size and allocating core an address-remap layer keys its decisions on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemapTarget {
    /// The containing object, as [`SlabAllocator::resolve`] would report it.
    pub resolved: ResolvedAddr,
    /// Object size in bytes.
    pub size: u64,
    /// Core that allocated the object.
    pub alloc_core: CoreId,
}

/// What the live index files with an object's base and size.  Sixteen bytes, so that
/// a node of the index is thirty-two, two to a cache line: the drop-off backlog is
/// 14 000 of these at once.
#[derive(Debug, Clone, Copy)]
struct LiveObject {
    type_id: TypeId,
    /// Index of this allocation in the address-set log.
    record: u32,
    /// The slab descriptor this object was carved from, as its page's number in the
    /// heap: descriptors come a page each from the bump allocator.
    slab_page: u32,
    /// Core that allocated the object, kept here so that no lookup reads the log.
    alloc_core: u8,
    /// Core whose array cache "owns" the slab.
    home_core: u8,
}

impl LiveObject {
    /// # Panics
    /// Panics on a core the machine cannot have (`sim_cache::MAX_CORES` is 128), on a
    /// log of 2^32 allocations (170 GB of records) and on a descriptor 16 TiB up the
    /// heap.
    fn new(
        type_id: TypeId,
        slab_desc: u64,
        alloc_core: CoreId,
        home_core: CoreId,
        record: usize,
    ) -> Self {
        let core = |c: CoreId| u8::try_from(c).expect("a machine has at most 128 cores");
        LiveObject {
            type_id,
            record: u32::try_from(record).expect("fewer than 2^32 allocations"),
            slab_page: u32::try_from((slab_desc - HEAP_BASE) / PAGE_SIZE)
                .expect("a heap of fewer than 2^32 pages"),
            alloc_core: core(alloc_core),
            home_core: core(home_core),
        }
    }

    fn slab_desc(&self) -> u64 {
        HEAP_BASE + u64::from(self.slab_page) * PAGE_SIZE
    }
}

/// The address set's past, by address: every allocation that is no longer live, in an
/// index of its own, beside the allocator's live one.  A snapshot — it borrows the
/// allocator, so it cannot go stale — built by one pass over the log
/// ([`SlabAllocator::history`]) and asked any number of times.
#[derive(Debug)]
pub struct AddressHistory<'a> {
    allocator: &'a SlabAllocator,
    /// `records` position of each allocation that is not live any more.
    retired: AddrIndex<u32>,
}

impl AddressHistory<'_> {
    /// Resolves an address against the full address set, returning the most recent
    /// allocation — live or freed — covering it.  DProf uses this when an IBS sample
    /// arrives after the object has already been freed.
    pub fn resolve_historical(&self, addr: u64) -> Option<ResolvedAddr> {
        let live = self.allocator.live.covering(addr).map(|o| o.payload.record);
        let retired = self.retired.covering(addr).map(|o| o.payload);
        let r = &self.allocator.records[live.chain(retired).max()? as usize];
        Some(ResolvedAddr {
            type_id: r.type_id,
            base: r.addr,
            offset: addr - r.addr,
        })
    }
}

/// Per-core portion of a kmem cache.
#[derive(Debug, Clone, Default)]
struct CoreCache {
    /// Address of this core's `array_cache` bookkeeping object.
    ac_addr: u64,
    /// Locally cached free objects: `(base, slab_desc, home_core)`.
    free: Vec<(u64, u64, CoreId)>,
    /// Objects freed on this core that belong to another core's slab.
    alien: Vec<(u64, u64, CoreId)>,
}

/// A per-type object pool.
#[derive(Debug, Clone)]
struct KmemCache {
    type_id: TypeId,
    obj_size: u64,
    per_core: Vec<CoreCache>,
    /// Free objects not cached by any core: `(base, slab_desc, home_core)`.
    global_free: Vec<(u64, u64, CoreId)>,
    /// Slab descriptors created for this cache.
    slabs: Vec<u64>,
}

/// A request from DProf: watch the next allocation of `type_id` at the given offsets.
///
/// Arming happens *inside the allocator*, at allocation time, exactly as the real tool
/// "cooperates with the kernel memory allocator to wait until an object of that type is
/// allocated" and configures the debug registers the moment the allocation happens
/// (§5.3 of the thesis).  Doing it synchronously means even very short-lived objects
/// (skbuffs that live for a fraction of a request) can be profiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRequest {
    /// Type to watch.
    pub type_id: TypeId,
    /// Offsets within the object to watch (one debug register each).
    pub offsets: Vec<u64>,
    /// Bytes covered per watchpoint (1..=8).
    pub granularity: u64,
    /// Number of matching allocations to skip before arming.  DProf profiles a
    /// *randomly selected* subset of objects (§4); skipping a random count keeps the
    /// collector from always catching the first allocation of every round (e.g. only
    /// ever the receive-side packet and never the transmit-side one).
    pub skip: u32,
}

/// An object that has been (or is being) profiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfiledObject {
    /// Base address of the object.
    pub base: u64,
    /// Its type.
    pub type_id: TypeId,
    /// Its size in bytes.
    pub size: u64,
    /// Core that allocated it.
    pub alloc_core: CoreId,
    /// Cycle at which it was allocated.
    pub alloc_cycle: u64,
    /// Cycle at which it was freed, once it has been.
    pub free_cycle: Option<u64>,
    /// Watchpoints armed for it (already disarmed by the time it appears in
    /// [`ProfileHook::finished`]).
    pub watchpoints: Vec<sim_machine::WatchpointId>,
}

/// DProf's hook into the allocator, used for object-access-history collection.
#[derive(Debug, Clone, Default)]
pub struct ProfileHook {
    /// Outstanding request: watch the next allocation of this type.
    pub request: Option<ProfileRequest>,
    /// The object currently being watched.
    pub armed: Option<ProfiledObject>,
    /// A watched object that has been freed and is waiting for DProf to collect its
    /// history.
    pub finished: Option<ProfiledObject>,
}

/// Aggregate allocator statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocStats {
    /// Objects allocated.
    pub allocs: u64,
    /// Objects freed.
    pub frees: u64,
    /// Frees that took the alien (remote-core) path.
    pub alien_frees: u64,
    /// Per-core cache refills from slabs / the global pool.
    pub refills: u64,
    /// Alien-cache drains performed.
    pub drains: u64,
    /// Slabs created.
    pub slabs_created: u64,
}

/// Function symbols the allocator attributes its bookkeeping accesses to.
#[derive(Debug, Clone, Copy)]
struct AllocSymbols {
    kmem_cache_alloc_node: FunctionId,
    cache_alloc_refill: FunctionId,
    kmem_cache_free: FunctionId,
    drain_alien_cache: FunctionId,
}

/// The typed SLAB allocator.
#[derive(Debug, Clone)]
pub struct SlabAllocator {
    cores: usize,
    page_cursor: u64,
    caches: Vec<KmemCache>,
    cache_of_type: HashMap<TypeId, usize>,
    generic_caches: Vec<(u64, usize)>,
    live: AddrIndex<LiveObject>,
    records: Vec<AllocRecord>,
    syms: AllocSymbols,
    /// Types for the allocator's own bookkeeping objects.
    slab_type: TypeId,
    array_cache_type: TypeId,
    /// The global list lock ("SLAB cache lock" in lock-stat), taken on refills and
    /// alien-cache drains.
    slab_lock: KLock,
    /// DProf's profiling hook.
    pub profile_hook: ProfileHook,
    /// Aggregate statistics.
    pub stats: AllocStats,
}

impl SlabAllocator {
    /// Creates the allocator.  `registry` must already contain the `slab` and
    /// `array-cache` types (see [`crate::types::KernelTypes::register`]); the generic
    /// `size-N` pools are registered here if missing.
    pub fn new(machine: &mut Machine, registry: &mut TypeRegistry, cores: usize) -> Self {
        let syms = AllocSymbols {
            kmem_cache_alloc_node: machine.fn_id("kmem_cache_alloc_node"),
            cache_alloc_refill: machine.fn_id("cache_alloc_refill"),
            kmem_cache_free: machine.fn_id("kmem_cache_free"),
            drain_alien_cache: machine.fn_id("__drain_alien_cache"),
        };
        let slab_type = registry.register("slab", "SLAB bookkeeping structure", 256);
        let array_cache_type =
            registry.register("array-cache", "SLAB per-core bookkeeping structure", 128);

        let mut alloc = SlabAllocator {
            cores,
            // The first page is reserved for the global list lock word.
            page_cursor: HEAP_BASE + PAGE_SIZE,
            caches: Vec::new(),
            cache_of_type: HashMap::new(),
            generic_caches: Vec::new(),
            live: AddrIndex::new(),
            records: Vec::new(),
            syms,
            slab_type,
            array_cache_type,
            slab_lock: KLock::new("SLAB cache lock", HEAP_BASE),
            profile_hook: ProfileHook::default(),
            stats: AllocStats::default(),
        };

        // Generic size-N pools.
        for &size in GENERIC_SIZES {
            let name = format!("size-{size}");
            let tid = registry.register(&name, "generic allocation", size);
            let idx = alloc.create_cache_internal(tid, size);
            alloc.generic_caches.push((size, idx));
        }
        alloc
    }

    /// Creates (or returns) the pool for a registered type.
    pub fn create_cache(&mut self, registry: &TypeRegistry, type_id: TypeId) -> usize {
        if let Some(&idx) = self.cache_of_type.get(&type_id) {
            return idx;
        }
        let size = registry.size(type_id);
        self.create_cache_internal(type_id, size)
    }

    fn create_cache_internal(&mut self, type_id: TypeId, obj_size: u64) -> usize {
        let idx = self.caches.len();
        self.caches.push(KmemCache {
            type_id,
            obj_size,
            per_core: (0..self.cores)
                .map(|_| CoreCache {
                    ac_addr: 0,
                    free: Vec::new(),
                    alien: Vec::new(),
                })
                .collect(),
            global_free: Vec::new(),
            slabs: Vec::new(),
        });
        self.cache_of_type.insert(type_id, idx);
        idx
    }

    /// The address-set log of every allocation seen so far.
    pub fn address_set(&self) -> &[AllocRecord] {
        &self.records
    }

    /// Number of currently live objects.
    pub fn live_objects(&self) -> usize {
        self.live.len()
    }

    /// Number of live objects of a specific type.
    pub fn live_objects_of(&self, type_id: TypeId) -> usize {
        self.live
            .iter()
            .filter(|o| o.payload.type_id == type_id)
            .count()
    }

    /// Live bytes of a specific type.
    pub fn live_bytes_of(&self, type_id: TypeId) -> u64 {
        self.live
            .iter()
            .filter(|o| o.payload.type_id == type_id)
            .map(|o| o.size)
            .sum()
    }

    /// Resolves an address to the live object containing it: of the live objects, the
    /// one with the nearest base at or below `addr`, if it reaches `addr`.
    pub fn resolve(&self, addr: u64) -> Option<ResolvedAddr> {
        self.resolve_remap(addr).map(|hit| hit.resolved)
    }

    /// Resolves an address to the live object containing it, together with the object's
    /// size and allocating core — everything an allocator-remap layer (e.g. the what-if
    /// engine's counterfactual transforms) needs to relocate or re-home the access.
    #[inline]
    pub fn resolve_remap(&self, addr: u64) -> Option<RemapTarget> {
        let obj = self.live.find(addr)?;
        Some(RemapTarget {
            resolved: ResolvedAddr {
                type_id: obj.payload.type_id,
                base: obj.base,
                offset: addr - obj.base,
            },
            size: obj.size,
            alloc_core: obj.payload.alloc_core.into(),
        })
    }

    /// Indexes the part of the address set that is no longer live — objects freed, and
    /// objects a replayed allocation at the same base displaced — for
    /// [`AddressHistory::resolve_historical`].  One pass over the log; the live
    /// objects, which a drop-off backlog makes nearly all of it, stay where they are.
    pub fn history(&self) -> AddressHistory<'_> {
        let mut retired = AddrIndex::new();
        for (i, r) in self.records.iter().enumerate() {
            // Exact: `LiveObject::new` checked every position as its record was pushed.
            let position = i as u32;
            let is_live = |o: Object<LiveObject>| o.payload.record == position;
            if r.free_cycle().is_some() || !self.live.find(r.addr).is_some_and(is_live) {
                retired.insert_newest(r.addr, r.size(), position);
            }
        }
        AddressHistory {
            allocator: self,
            retired,
        }
    }

    fn bump_pages(&mut self, pages: u64) -> u64 {
        let addr = self.page_cursor;
        self.page_cursor += pages * PAGE_SIZE;
        addr
    }

    /// Allocates a bookkeeping object (slab descriptor or array_cache) straight from the
    /// page allocator, registering it in the address set so it shows up in profiles.
    fn alloc_bookkeeping(
        &mut self,
        machine: &mut Machine,
        type_id: TypeId,
        size: u64,
        core: CoreId,
        cycle: u64,
    ) -> u64 {
        let addr = self.bump_pages(1);
        let record = self.records.len();
        self.records
            .push(AllocRecord::new(addr, type_id, size, core, cycle, None));
        self.live.insert(
            addr,
            size,
            LiveObject::new(type_id, addr, core, core, record),
        );
        machine.record_session_alloc(core, type_id.0, size, addr, cycle, false);
        addr
    }

    /// Ensures the per-core array_cache bookkeeping object exists, returning its address.
    fn ensure_array_cache(
        &mut self,
        machine: &mut Machine,
        cache_idx: usize,
        core: CoreId,
        cycle: u64,
    ) -> u64 {
        if self.caches[cache_idx].per_core[core].ac_addr == 0 {
            let addr = self.alloc_bookkeeping(machine, self.array_cache_type, 128, core, cycle);
            self.caches[cache_idx].per_core[core].ac_addr = addr;
        }
        self.caches[cache_idx].per_core[core].ac_addr
    }

    /// Carves a new slab for `cache_idx`, pushing its objects onto the global free list.
    fn grow_cache(&mut self, machine: &mut Machine, cache_idx: usize, core: CoreId) {
        let obj_size = self.caches[cache_idx].obj_size;
        let objs_per_slab = (PAGE_SIZE * 4 / obj_size).clamp(4, 64);
        let pages = (objs_per_slab * obj_size).div_ceil(PAGE_SIZE);
        let cycle = machine.clock(core);

        let slab_desc = self.alloc_bookkeeping(machine, self.slab_type, 256, core, cycle);
        let base = self.bump_pages(pages);
        self.stats.slabs_created += 1;

        // Touch the slab descriptor: the home core initialises it.
        machine.write(core, self.syms.cache_alloc_refill, slab_desc, 16);

        let cache = &mut self.caches[cache_idx];
        cache.slabs.push(slab_desc);
        for i in 0..objs_per_slab {
            cache
                .global_free
                .push((base + i * obj_size, slab_desc, core));
        }
    }

    /// Refills a core's array cache (`cache_alloc_refill` in Linux).
    fn refill(&mut self, machine: &mut Machine, cache_idx: usize, core: CoreId) {
        self.stats.refills += 1;
        let cycle = machine.clock(core);
        let ac = self.ensure_array_cache(machine, cache_idx, core, cycle);
        // Reading and updating the per-core array_cache header.
        machine.write(core, self.syms.cache_alloc_refill, ac, 8);

        self.slab_lock
            .acquire(machine, core, self.syms.cache_alloc_refill);
        if self.caches[cache_idx].global_free.is_empty() {
            self.grow_cache(machine, cache_idx, core);
        }
        let take = REFILL_BATCH.min(self.caches[cache_idx].global_free.len());
        for _ in 0..take {
            let obj = self.caches[cache_idx].global_free.pop().expect("non-empty");
            // Taking objects from a slab touches its descriptor.
            machine.write(core, self.syms.cache_alloc_refill, obj.1, 8);
            self.caches[cache_idx].per_core[core].free.push(obj);
        }
        self.slab_lock
            .release(machine, core, self.syms.cache_alloc_refill);
    }

    fn cache_for_type(&mut self, registry: &TypeRegistry, type_id: TypeId) -> usize {
        match self.cache_of_type.get(&type_id) {
            Some(&idx) => idx,
            None => self.create_cache(registry, type_id),
        }
    }

    /// Allocates one object of `type_id` on `core`.  Returns the base address.
    pub fn alloc(
        &mut self,
        machine: &mut Machine,
        registry: &TypeRegistry,
        core: CoreId,
        type_id: TypeId,
    ) -> u64 {
        let cache_idx = self.cache_for_type(registry, type_id);
        self.alloc_from_cache(machine, cache_idx, core)
    }

    /// Allocates a generic `size-N` object large enough for `size` bytes.
    pub fn alloc_sized(&mut self, machine: &mut Machine, core: CoreId, size: u64) -> u64 {
        let cache_idx = self
            .generic_caches
            .iter()
            .find(|(s, _)| *s >= size)
            .map(|(_, idx)| *idx)
            .unwrap_or_else(|| panic!("no generic cache can hold {size} bytes"));
        self.alloc_from_cache(machine, cache_idx, core)
    }

    fn alloc_from_cache(&mut self, machine: &mut Machine, cache_idx: usize, core: CoreId) -> u64 {
        let cycle = machine.clock(core);
        let ac = self.ensure_array_cache(machine, cache_idx, core, cycle);
        // Fast path: pop from the per-core array cache (touches the ac header + entry).
        machine.read(core, self.syms.kmem_cache_alloc_node, ac, 8);
        if self.caches[cache_idx].per_core[core].free.is_empty() {
            self.refill(machine, cache_idx, core);
        }
        let (base, slab_desc, home_core) = self.caches[cache_idx].per_core[core]
            .free
            .pop()
            .expect("refill guarantees an object");
        machine.write(core, self.syms.kmem_cache_alloc_node, ac + 8, 8);

        let type_id = self.caches[cache_idx].type_id;
        let size = self.caches[cache_idx].obj_size;
        let record = self.records.len();
        self.records
            .push(AllocRecord::new(base, type_id, size, core, cycle, None));
        self.live.insert(
            base,
            size,
            LiveObject::new(type_id, slab_desc, core, home_core, record),
        );
        self.stats.allocs += 1;
        machine.record_session_alloc(core, type_id.0, size, base, cycle, true);
        self.arm_profile_hook_if_requested(machine, base, type_id, size, core, cycle);
        base
    }

    /// DProf profiling hook: arms the requested watchpoints on a just-allocated object
    /// while the allocator still has control (mirrors the real allocator cooperation).
    /// Shared by the live allocation path and [`Self::replay_alloc`], so a replayed
    /// session re-makes exactly the same arming decision at the same point in the
    /// access stream.
    fn arm_profile_hook_if_requested(
        &mut self,
        machine: &mut Machine,
        base: u64,
        type_id: TypeId,
        size: u64,
        core: CoreId,
        cycle: u64,
    ) {
        let wants_this = self
            .profile_hook
            .request
            .as_ref()
            .map(|r| r.type_id == type_id)
            .unwrap_or(false);
        if wants_this && self.profile_hook.armed.is_none() && self.profile_hook.finished.is_none() {
            let skip_this_one = {
                let req = self.profile_hook.request.as_mut().expect("checked above");
                if req.skip > 0 {
                    req.skip -= 1;
                    true
                } else {
                    false
                }
            };
            if skip_this_one {
                return;
            }
            let req = self.profile_hook.request.take().expect("checked above");
            machine.charge_profiling_reservation(core);
            let mut watchpoints = Vec::new();
            for &off in &req.offsets {
                if off >= size {
                    continue;
                }
                let len = req.granularity.clamp(1, 8).min(size - off);
                if let Ok(id) = machine.arm_watchpoint(core, base + off, len) {
                    watchpoints.push(id);
                }
            }
            self.profile_hook.armed = Some(ProfiledObject {
                base,
                type_id,
                size,
                alloc_core: core,
                alloc_cycle: cycle,
                free_cycle: None,
                watchpoints,
            });
        }
    }

    /// Frees an object by base address on `core`.
    ///
    /// # Panics
    /// Panics if `addr` is not the base address of a live object (double free or wild
    /// free), mirroring the kernel's "bad page state" assertion.
    pub fn free(&mut self, machine: &mut Machine, core: CoreId, addr: u64) {
        let obj = self
            .live
            .remove(addr)
            .unwrap_or_else(|| panic!("free of non-live address {addr:#x}"))
            .payload;
        let home_core = CoreId::from(obj.home_core);
        let cycle = machine.clock(core);
        self.records[obj.record as usize].free_cycle = cycle;
        self.stats.frees += 1;
        machine.record_session_free(core, addr, cycle);
        self.finish_profile_hook_on_free(machine, addr, cycle);

        let cache_idx = *self
            .cache_of_type
            .get(&obj.type_id)
            .expect("freed object belongs to a known cache");
        let ac = self.ensure_array_cache(machine, cache_idx, core, cycle);
        machine.read(core, self.syms.kmem_cache_free, ac, 8);

        let entry = (addr, obj.slab_desc(), home_core);
        if home_core == core {
            // Local free: push onto this core's array cache.
            machine.write(core, self.syms.kmem_cache_free, ac + 8, 8);
            let cc = &mut self.caches[cache_idx].per_core[core];
            cc.free.push(entry);
            if cc.free.len() > ARRAY_CACHE_LIMIT {
                // Spill the oldest half back to the global pool.
                let spill: Vec<_> = cc.free.drain(..ARRAY_CACHE_LIMIT / 2).collect();
                self.caches[cache_idx].global_free.extend(spill);
            }
        } else {
            // Alien free: the object belongs to another core's slab.
            self.stats.alien_frees += 1;
            machine.write(core, self.syms.kmem_cache_free, ac + 16, 8);
            self.caches[cache_idx].per_core[core].alien.push(entry);
            if self.caches[cache_idx].per_core[core].alien.len() >= ALIEN_LIMIT {
                self.drain_alien(machine, cache_idx, core);
            }
        }
    }

    /// Drains a core's alien cache back to the owning slabs (`__drain_alien_cache`).
    fn drain_alien(&mut self, machine: &mut Machine, cache_idx: usize, core: CoreId) {
        self.stats.drains += 1;
        let aliens: Vec<_> = self.caches[cache_idx].per_core[core]
            .alien
            .drain(..)
            .collect();
        let cycle = machine.clock(core);
        self.slab_lock
            .acquire(machine, core, self.syms.drain_alien_cache);
        for (base, slab_desc, home_core) in aliens {
            // Writing the home slab descriptor from this core invalidates the home
            // core's cached copy: this is the slab/array-cache bouncing of Table 6.1.
            machine.write(core, self.syms.drain_alien_cache, slab_desc, 8);
            let home_ac = self.ensure_array_cache(machine, cache_idx, home_core, cycle);
            machine.write(core, self.syms.drain_alien_cache, home_ac, 8);
            self.caches[cache_idx]
                .global_free
                .push((base, slab_desc, home_core));
        }
        self.slab_lock
            .release(machine, core, self.syms.drain_alien_cache);
    }

    /// DProf profiling hook, free side: when the watched object dies, disarm its
    /// watchpoints and hand the record to the profiler.  Shared by [`Self::free`] and
    /// [`Self::replay_free`].
    fn finish_profile_hook_on_free(&mut self, machine: &mut Machine, addr: u64, cycle: u64) {
        if self
            .profile_hook
            .armed
            .as_ref()
            .map(|a| a.base == addr)
            .unwrap_or(false)
        {
            let mut done = self.profile_hook.armed.take().expect("checked above");
            for &id in &done.watchpoints {
                machine.disarm_watchpoint(id);
            }
            done.free_cycle = Some(cycle);
            self.profile_hook.finished = Some(done);
        }
    }

    // ------------------------------------------------------------------
    // Trace replay support.
    //
    // A replayed session applies recorded `Alloc`/`Free` events as pure bookkeeping:
    // the allocator's own memory traffic was captured as access events and is re-issued
    // by the replay driver, so these methods must NOT touch the machine's memory — only
    // the address set, the live index and the profile hook (whose watchpoint arming and
    // cycle charges are deliberately re-run, exactly as the live allocator ran them).
    // ------------------------------------------------------------------

    /// Creates a bare allocator for trace replay: no pools, no caches — just the
    /// address-set/live-index bookkeeping that [`Self::replay_alloc`] and
    /// [`Self::replay_free`] maintain, plus a working profile hook.
    ///
    /// `registry` must already contain the `slab` and `array-cache` types (a replayed
    /// registry always does: the live kernel registered them before the type dump was
    /// taken).  Calling the normal `alloc`/`free` paths on a replay allocator is a
    /// logic error.
    pub fn for_replay(machine: &mut Machine, registry: &TypeRegistry, cores: usize) -> Self {
        let syms = AllocSymbols {
            kmem_cache_alloc_node: machine.fn_id("kmem_cache_alloc_node"),
            cache_alloc_refill: machine.fn_id("cache_alloc_refill"),
            kmem_cache_free: machine.fn_id("kmem_cache_free"),
            drain_alien_cache: machine.fn_id("__drain_alien_cache"),
        };
        let slab_type = registry.lookup("slab").expect("replay registry has slab");
        let array_cache_type = registry
            .lookup("array-cache")
            .expect("replay registry has array-cache");
        SlabAllocator {
            cores,
            page_cursor: HEAP_BASE + PAGE_SIZE,
            caches: Vec::new(),
            cache_of_type: HashMap::new(),
            generic_caches: Vec::new(),
            live: AddrIndex::new(),
            records: Vec::new(),
            syms,
            slab_type,
            array_cache_type,
            slab_lock: KLock::new("SLAB cache lock", HEAP_BASE),
            profile_hook: ProfileHook::default(),
            stats: AllocStats::default(),
        }
    }

    /// Applies a recorded allocation event: inserts the address-set record and live
    /// entry with the live-recorded cycle stamp, then (for hookable allocations)
    /// re-runs the profile-hook arming decision.  An allocation at a base that is
    /// still live replaces that object.
    ///
    /// # Panics
    /// Panics if `size` exceeds `u32::MAX`; the trace decoder rejects an `Alloc` event
    /// of more than a mebibyte.
    #[allow(clippy::too_many_arguments)]
    pub fn replay_alloc(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        type_id: TypeId,
        size: u64,
        addr: u64,
        cycle: u64,
        hookable: bool,
    ) {
        let record = self.records.len();
        self.records
            .push(AllocRecord::new(addr, type_id, size, core, cycle, None));
        // Pool geometry is irrelevant during replay; the slab/home fields are only
        // consulted by the live free path, which replay never takes.
        self.live.insert(
            addr,
            size,
            LiveObject::new(type_id, HEAP_BASE, core, core, record),
        );
        if hookable {
            self.stats.allocs += 1;
            self.arm_profile_hook_if_requested(machine, addr, type_id, size, core, cycle);
        }
    }

    /// Applies a recorded free event: completes the address-set record, removes the
    /// live entry and re-runs the profile-hook completion.  The freeing core is the
    /// event's, and nothing keeps it.
    ///
    /// Returns `false`, having changed nothing, when `addr` is not the base of a live
    /// object.  A recorded stream is outside input: the caller reports that as an
    /// error naming the event, where [`Self::free`] panics on the program's own bug.
    pub fn replay_free(
        &mut self,
        machine: &mut Machine,
        _core: CoreId,
        addr: u64,
        cycle: u64,
    ) -> bool {
        let Some(obj) = self.live.remove(addr) else {
            return false;
        };
        self.records[obj.payload.record as usize].free_cycle = cycle;
        self.stats.frees += 1;
        self.finish_profile_hook_on_free(machine, addr, cycle);
        true
    }

    /// The global list lock ("SLAB cache lock"), exposed for lock-stat reporting.
    pub fn slab_lock(&self) -> &KLock {
        &self.slab_lock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::KernelTypes;
    use sim_machine::MachineConfig;

    fn setup() -> (Machine, TypeRegistry, KernelTypes, SlabAllocator) {
        let mut m = Machine::new(MachineConfig::small_test());
        let mut reg = TypeRegistry::new();
        let kt = KernelTypes::register(&mut reg);
        let cores = m.cores();
        let alloc = SlabAllocator::new(&mut m, &mut reg, cores);
        (m, reg, kt, alloc)
    }

    #[test]
    fn alloc_and_resolve() {
        let (mut m, reg, kt, mut a) = setup();
        let addr = a.alloc(&mut m, &reg, 0, kt.skbuff);
        let r = a.resolve(addr + 24).expect("resolvable");
        assert_eq!(r.type_id, kt.skbuff);
        assert_eq!(r.base, addr);
        assert_eq!(r.offset, 24);
        assert_eq!(a.live_objects_of(kt.skbuff), 1);
    }

    #[test]
    fn distinct_objects_do_not_overlap() {
        let (mut m, reg, kt, mut a) = setup();
        let mut addrs = Vec::new();
        for i in 0..200 {
            addrs.push(a.alloc(&mut m, &reg, i % 2, kt.skbuff));
        }
        addrs.sort_unstable();
        for w in addrs.windows(2) {
            assert!(
                w[1] - w[0] >= 256,
                "objects overlap: {:#x} {:#x}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn free_then_resolve_fails_but_historical_succeeds() {
        let (mut m, reg, kt, mut a) = setup();
        let addr = a.alloc(&mut m, &reg, 0, kt.udp_sock);
        a.free(&mut m, 0, addr);
        assert!(a.resolve(addr).is_none());
        let h = a
            .history()
            .resolve_historical(addr + 8)
            .expect("historical resolution");
        assert_eq!(h.type_id, kt.udp_sock);
        assert_eq!(h.offset, 8);
    }

    /// The linear scan `resolve_historical` was: the newest record covering `addr`.
    fn scan_the_log(a: &SlabAllocator, addr: u64) -> Option<ResolvedAddr> {
        a.address_set()
            .iter()
            .rev()
            .find(|r| addr >= r.addr() && addr < r.end())
            .map(|r| ResolvedAddr {
                type_id: r.type_id(),
                base: r.addr(),
                offset: addr - r.addr(),
            })
    }

    #[test]
    fn historical_resolution_equals_a_scan_of_the_log() {
        // Replayed logs over an eight-page arena: a few slots recycled again and again
        // by different types at different sizes (freed first, or — as only a crafted
        // trace does — allocated over), objects at odd offsets that overlap their
        // neighbours partially, sizes from one byte to three pages; a third of the
        // objects still live when the history is taken.
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % bound
        };
        const ARENA: u64 = 0x1_0000_0000;
        for case in 0..150 {
            let (mut m, reg, _kt, _) = setup();
            let mut a = SlabAllocator::for_replay(&mut m, &reg, 2);
            let slots: Vec<u64> = (0..6).map(|_| ARENA + next(8 * PAGE_SIZE)).collect();
            let mut live: Vec<u64> = Vec::new();
            for cycle in 0..next(60) {
                let base = if next(3) == 0 {
                    ARENA + next(8 * PAGE_SIZE)
                } else {
                    slots[next(6) as usize]
                };
                let size = match next(4) {
                    0 => 1 + next(16),
                    1 => 1 + next(3 * PAGE_SIZE),
                    _ => 64 << next(5),
                };
                if live.contains(&base) && next(4) != 0 {
                    assert!(a.replay_free(&mut m, 1, base, cycle));
                    live.retain(|&b| b != base);
                }
                let type_id = TypeId(next(5) as u32);
                a.replay_alloc(&mut m, next(2) as usize, type_id, size, base, cycle, true);
                if !live.contains(&base) {
                    live.push(base);
                }
                if next(3) != 0 {
                    let freed = live.swap_remove(next(live.len() as u64) as usize);
                    assert!(a.replay_free(&mut m, 0, freed, cycle));
                }
            }
            assert_eq!(a.live_objects(), live.len(), "case {case}");
            let history = a.history();
            let edges = a
                .address_set()
                .iter()
                .flat_map(|r| [r.addr().wrapping_sub(1), r.addr(), r.end() - 1, r.end()]);
            let anywhere = (0..64).map(|i| ARENA - PAGE_SIZE + i * 643);
            for addr in edges.chain(anywhere).collect::<Vec<_>>() {
                assert_eq!(
                    history.resolve_historical(addr),
                    scan_the_log(&a, addr),
                    "case {case}: {addr:#x} in {:x?}",
                    a.address_set()
                );
            }
        }
    }

    #[test]
    fn a_replayed_free_of_a_non_live_address_is_refused_and_changes_nothing() {
        let (mut m, reg, kt, _) = setup();
        let mut a = SlabAllocator::for_replay(&mut m, &reg, 2);
        assert!(!a.replay_free(&mut m, 0, 0xdead_0000, 1), "never allocated");
        a.replay_alloc(&mut m, 0, kt.skbuff, 256, 0x1_0000_1000, 2, true);
        assert!(
            !a.replay_free(&mut m, 0, 0x1_0000_1008, 3),
            "inside, not the base"
        );
        assert!(a.replay_free(&mut m, 1, 0x1_0000_1000, 4));
        assert!(!a.replay_free(&mut m, 1, 0x1_0000_1000, 5), "double free");
        assert_eq!((a.stats.allocs, a.stats.frees), (1, 1));
        assert_eq!(a.address_set()[0].free_cycle(), Some(4));
        assert_eq!(a.live_objects(), 0);
    }

    #[test]
    fn a_lookup_never_reads_the_log_for_the_allocating_core() {
        let (mut m, reg, kt, mut a) = setup();
        let addr = a.alloc(&mut m, &reg, 1, kt.tcp_sock);
        let hit = a
            .resolve_remap(addr + 1599)
            .expect("last byte of the object");
        assert_eq!(
            (hit.alloc_core, hit.size, hit.resolved.offset),
            (1, 1600, 1599)
        );
        assert_eq!(hit.resolved, a.resolve(addr + 1599).unwrap());
        assert!(a.resolve_remap(addr + 1600).is_none());
    }

    #[test]
    fn address_set_records_lifetimes() {
        let (mut m, reg, kt, mut a) = setup();
        let f = m.fn_id("worker");
        let addr = a.alloc(&mut m, &reg, 0, kt.tcp_sock);
        m.compute(0, f, 5_000);
        a.free(&mut m, 0, addr);
        let rec = a
            .address_set()
            .iter()
            .find(|r| r.addr() == addr)
            .expect("record exists");
        assert_eq!(
            (rec.type_id(), rec.size(), rec.alloc_core()),
            (kt.tcp_sock, 1600, 0)
        );
        assert!(rec.free_cycle().unwrap() - rec.alloc_cycle() >= 5_000);
    }

    #[test]
    fn a_record_is_forty_bytes_and_reads_back_what_it_was_given() {
        assert_eq!(std::mem::size_of::<AllocRecord>(), 40);
        let r = AllocRecord::new(u64::MAX - (1 << 20), TypeId(7), 1 << 20, 127, 5, Some(9));
        assert_eq!(
            (r.addr(), r.type_id(), r.size(), r.end(), r.alloc_core()),
            (u64::MAX - (1 << 20), TypeId(7), 1 << 20, u64::MAX, 127)
        );
        assert_eq!((r.alloc_cycle(), r.free_cycle()), (5, Some(9)));
        // No reader of the log tells a free at the last cycle from no free.
        let never = AllocRecord::new(0, TypeId(0), 0, 0, 0, Some(u64::MAX));
        assert_eq!(never, AllocRecord::new(0, TypeId(0), 0, 0, 0, None));
        assert_eq!(never.free_cycle(), None);
    }

    #[test]
    fn generic_size_classes() {
        let (mut m, _reg, _kt, mut a) = setup();
        let addr = a.alloc_sized(&mut m, 0, 900);
        let r = a.resolve(addr).unwrap();
        // 900 bytes lands in the size-1024 pool.
        assert_eq!(r.type_id, a.resolve(addr).unwrap().type_id);
        assert_eq!(a.live_bytes_of(r.type_id), 1024);
    }

    #[test]
    #[should_panic(expected = "no generic cache")]
    fn oversized_generic_alloc_panics() {
        let (mut m, _reg, _kt, mut a) = setup();
        a.alloc_sized(&mut m, 0, 1 << 20);
    }

    #[test]
    #[should_panic(expected = "non-live address")]
    fn double_free_panics() {
        let (mut m, reg, kt, mut a) = setup();
        let addr = a.alloc(&mut m, &reg, 0, kt.skbuff);
        a.free(&mut m, 0, addr);
        a.free(&mut m, 0, addr);
    }

    #[test]
    fn remote_free_takes_alien_path_and_drains() {
        let (mut m, reg, kt, mut a) = setup();
        // Allocate on core 0, free on core 1, enough times to force a drain.
        for _ in 0..(ALIEN_LIMIT * 2) {
            let addr = a.alloc(&mut m, &reg, 0, kt.skbuff);
            a.free(&mut m, 1, addr);
        }
        assert!(a.stats.alien_frees >= ALIEN_LIMIT as u64);
        assert!(a.stats.drains >= 1, "alien cache should have drained");
    }

    #[test]
    fn local_free_reuses_object() {
        let (mut m, reg, kt, mut a) = setup();
        let addr1 = a.alloc(&mut m, &reg, 0, kt.skbuff);
        a.free(&mut m, 0, addr1);
        let addr2 = a.alloc(&mut m, &reg, 0, kt.skbuff);
        assert_eq!(
            addr1, addr2,
            "LIFO per-core cache should hand back the same object"
        );
    }

    #[test]
    fn bookkeeping_objects_appear_in_address_set() {
        let (mut m, reg, kt, mut a) = setup();
        a.alloc(&mut m, &reg, 0, kt.skbuff);
        let has_slab = a.address_set().iter().any(|r| r.type_id() == kt.slab);
        let has_ac = a
            .address_set()
            .iter()
            .any(|r| r.type_id() == kt.array_cache);
        assert!(has_slab, "slab descriptor should be in the address set");
        assert!(has_ac, "array_cache should be in the address set");
    }

    #[test]
    fn profile_hook_arms_on_allocation_and_finishes_on_free() {
        let (mut m, reg, kt, mut a) = setup();
        a.profile_hook.request = Some(ProfileRequest {
            type_id: kt.skbuff,
            offsets: vec![24],
            granularity: 4,
            skip: 0,
        });
        // Allocating a different type does not trigger the hook.
        a.alloc(&mut m, &reg, 0, kt.udp_sock);
        assert!(a.profile_hook.armed.is_none());
        assert!(a.profile_hook.request.is_some());
        // Allocating the requested type arms the watchpoint immediately.
        let addr = a.alloc(&mut m, &reg, 0, kt.skbuff);
        let armed = a.profile_hook.armed.clone().expect("armed object");
        assert_eq!(armed.base, addr);
        assert_eq!(armed.type_id, kt.skbuff);
        assert_eq!(armed.watchpoints.len(), 1);
        assert!(a.profile_hook.request.is_none());
        // Accesses to the watched offset are now caught by the machine.
        let f = m.fn_id("writer");
        m.write(0, f, addr + 24, 4);
        assert_eq!(m.watchpoints.buffered(), 1);
        // Freeing the object hands it to the profiler and disarms the watchpoint.
        a.free(&mut m, 0, addr);
        assert!(a.profile_hook.armed.is_none());
        let finished = a.profile_hook.finished.clone().expect("finished object");
        assert_eq!(finished.base, addr);
        assert!(finished.free_cycle.is_some());
        m.write(0, f, addr + 24, 4);
        assert_eq!(
            m.watchpoints.buffered(),
            1,
            "watchpoint must be disarmed after free"
        );
    }

    #[test]
    fn profile_hook_skip_count_defers_arming() {
        let (mut m, reg, kt, mut a) = setup();
        a.profile_hook.request = Some(ProfileRequest {
            type_id: kt.skbuff,
            offsets: vec![0],
            granularity: 8,
            skip: 2,
        });
        let first = a.alloc(&mut m, &reg, 0, kt.skbuff);
        let second = a.alloc(&mut m, &reg, 0, kt.skbuff);
        assert!(
            a.profile_hook.armed.is_none(),
            "first two allocations are skipped"
        );
        let third = a.alloc(&mut m, &reg, 0, kt.skbuff);
        let armed = a
            .profile_hook
            .armed
            .clone()
            .expect("third allocation armed");
        assert_eq!(armed.base, third);
        assert_ne!(armed.base, first);
        assert_ne!(armed.base, second);
    }

    #[test]
    fn live_counts_track_alloc_and_free() {
        let (mut m, reg, kt, mut a) = setup();
        let addrs: Vec<_> = (0..10)
            .map(|_| a.alloc(&mut m, &reg, 0, kt.tcp_sock))
            .collect();
        assert_eq!(a.live_objects_of(kt.tcp_sock), 10);
        assert_eq!(a.live_bytes_of(kt.tcp_sock), 10 * 1600);
        for addr in &addrs[..5] {
            a.free(&mut m, 0, *addr);
        }
        assert_eq!(a.live_objects_of(kt.tcp_sock), 5);
    }
}
