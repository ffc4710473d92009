//! The counting global allocator of the workspace's allocation tests
//! (`alloc_steady_state.rs` in `sim-cache`, `sim-kernel` and `sim-machine`,
//! `json_alloc.rs`, `json_hostile.rs` and `working_set_alloc.rs` in `dprof-core`,
//! `sharing_walk_alloc.rs` and `dtrace_hostile.rs` in `dprof-trace`, `frame_alloc.rs` and
//! `push_alloc.rs` in `dprof-serve`),
//! included into each by `#[path]`.
//!
//! A test binary that includes it keeps to a single test: the allocator is global to
//! the binary, and a concurrently-running test would pollute the measured window.
#![allow(dead_code)] // no one test reads every counter

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static GROWTHS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        GROWTHS.fetch_add(1, Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What a piece of work asked of the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Asked {
    /// `alloc` calls.
    pub allocations: u64,
    /// `realloc` calls.
    pub growths: u64,
    /// The most bytes held above what was live when the work began.
    pub peak_bytes: u64,
}

impl Asked {
    /// `alloc` and `realloc` calls together: 0 for work that left the heap alone.
    pub fn calls(&self) -> u64 {
        self.allocations + self.growths
    }
}

/// Runs `work` and reports what it asked of the allocator.
pub fn measured<T>(work: impl FnOnce() -> T) -> (T, Asked) {
    let base = LIVE_BYTES.load(Relaxed);
    PEAK_BYTES.store(base, Relaxed);
    let (allocations, growths) = (ALLOCATIONS.load(Relaxed), GROWTHS.load(Relaxed));
    let value = work();
    let asked = Asked {
        allocations: ALLOCATIONS.load(Relaxed) - allocations,
        growths: GROWTHS.load(Relaxed) - growths,
        peak_bytes: PEAK_BYTES.load(Relaxed) - base,
    };
    (value, asked)
}
