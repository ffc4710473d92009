//! What a packed window costs the heap: 16 bytes an event in blocks allocated whole,
//! never a second copy while it grows, and nothing at all in a replay that is not
//! followed by what-if passes.
//!
//! The counting allocator (`tests/support/counting_alloc.rs`) is global to the test
//! binary, so this binary runs without the libtest harness (`harness = false` in
//! `Cargo.toml`): its one check is `main`, on the only thread.

use dprof_trace::stream::CHUNK_SIZE;
use dprof_trace::window::BLOCK_SLOTS;
use dprof_trace::{replay_and_measure_stream, replay_stream_streaming, PackedWindow, TraceReader};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::measured;

/// Bytes a block holds.
const BLOCK_BYTES: u64 = 16 * BLOCK_SLOTS as u64;

fn main() {
    a_window_holds_sixteen_bytes_an_event_and_a_replay_holds_none();
}

fn a_window_holds_sixteen_bytes_an_event_and_a_replay_holds_none() {
    // The golden session with the longest window: 81 403 events, every one sampled.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/sparse_struct_waste_quick.dtrace"
    );
    let reader = TraceReader::open(path).unwrap();
    // Once unmeasured, for whatever a first call initializes.
    drop(PackedWindow::read(&reader, 0));
    drop(replay_stream_streaming(&reader, 0).unwrap());

    let (window, asked) = measured(|| PackedWindow::read(&reader, 0));
    let events = window.len() as u64;
    let blocks = events.div_ceil(BLOCK_SLOTS as u64);
    assert!(events > 16 * BLOCK_SLOTS as u64, "{events} events");
    assert_eq!(window.slots() as u64, events, "one slot an event");
    assert_eq!(window.block_bytes() as u64, blocks * BLOCK_BYTES);
    // 16 bytes an event, plus the last block's free slots and the block list (24 bytes
    // a block, the list at most twice as long as it needs to be).
    let held = asked.held_bytes;
    assert!(
        (16 * events..=16 * events + BLOCK_BYTES + 48 * blocks).contains(&held),
        "{events} events held in {held} bytes"
    );
    // Growing, it held no more than itself and the decoder's two chunks: a full
    // block is never moved.
    assert!(
        asked.peak_bytes <= held + 2 * CHUNK_SIZE as u64 + 4096,
        "{held} bytes held, {} at the peak",
        asked.peak_bytes
    );
    drop(window);

    // The profiled replay `dprof replay` runs packs nothing; the one `--auto` runs
    // allocates each block of its window and the block list, and nothing else more.
    let (_, replay) = measured(|| replay_stream_streaming(&reader, 0).unwrap());
    let ((_, _, _, window), packing) = measured(|| replay_and_measure_stream(&reader, 0).unwrap());
    assert_eq!(window, PackedWindow::read(&reader, 0));
    assert_eq!(
        packing.allocations - replay.allocations,
        blocks + 1,
        "replay {replay:?}, packing {packing:?}"
    );
    assert!(
        packing.held_bytes - replay.held_bytes >= window.block_bytes() as u64,
        "replay {replay:?}, packing {packing:?}"
    );
    println!("window_alloc: {events} events, {held} bytes held");
}
