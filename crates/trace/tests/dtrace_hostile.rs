//! The one `.dtrace` decoder against hostile input: every golden trace, cut, flipped
//! and with its counts and lengths inflated, the ways a torn download, a bad disk or a
//! malicious upload to `dprof serve` would leave it.
//!
//! Every mutated document is opened with `TraceReader::open` and every stream it
//! declares is walked to its end.  That must give an `Err` or a clean end, never a
//! panic, and never more events than the stream declares (so never a hang).  It must
//! cost the heap at most `HEAP_BOUND`, whatever the input's length.  A
//! seeded handful of the bit-flipped documents per file that open are also replayed
//! through `replay_all_streaming`, which may fail but not with a worker's panic.  The
//! mutations are drawn from a splitmix64 stream, and every failure names the document,
//! the case and its seed.
//!
//! This file intentionally contains a single test: the counting allocator
//! (`tests/support/counting_alloc.rs`) is global to the test binary, and a
//! concurrently-running test would pollute the measured window.

use dprof_trace::codec::{get_varint, put_varint};
use dprof_trace::{replay_all_streaming, TraceError, TraceReader};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::measured;

use dprof_trace as trace;
use sim_machine as machine;
#[path = "../../../tests/support/dtrace.rs"]
mod dtrace;
use dtrace::open;

/// Heap bound of one open and walk, whatever the document's length: two 64 KiB chunks,
/// which `open` holds even for an 8-byte file (its one chunk, grown by a second read)
/// and a stream's walk reads through, plus 16 KiB for the tables the reader keeps.
/// The worst document in this corpus held 139 445 bytes.  Nothing is buffered in
/// proportion to the input: a prologue string longer than the rest of the file is
/// refused before any of it is read.  (Before that, a string length inflated past the
/// end made `open` buffer the rest of the file, and the bound was 2 bytes a byte plus
/// 192 KiB: a 320 219-byte trace held 532 157 bytes.  Before tables stopped reserving
/// room for the count they declare, an inflated type count held 5.4 MB.)
const HEAP_BOUND: u64 = (2 * 64 + 16) * 1024;

/// Single-bit flips per document, and truncations inside its event region.
const FLIPS: usize = 160;
const REGION_CUTS: usize = 24;
/// Access-run counts inflated per document.
const RUN_COUNTS: usize = 8;
/// Bit-flipped documents per file that are replayed, among those that open.
const REPLAYS: usize = 3;

/// A splitmix64 stream.
struct Choices(u64);

impl Choices {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The golden traces, by name.
fn documents() -> Vec<(String, Vec<u8>)> {
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let mut paths: Vec<_> = std::fs::read_dir(&golden)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|e| e == "dtrace"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 5, "five golden traces: {paths:?}");
    paths
        .into_iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

/// What one prologue item is, for the mutations that target it.
#[derive(Clone, Copy, PartialEq)]
enum Item {
    /// Magic, version, kind byte, a string's bytes or a plain varint.
    Plain,
    /// A varint that counts what follows, or sizes it: a table's entry count, a
    /// string's length prefix, a stream's event count or byte length.
    Count,
}

/// The prologue of a golden trace, item by item, as `docs/trace-format.md` lays it out:
/// `(start, end, item)` in file order, and each stream's event region.
#[derive(Default)]
struct Layout {
    items: Vec<(usize, usize, Item)>,
    regions: Vec<(usize, usize)>,
}

impl Layout {
    fn varint(&mut self, bytes: &[u8], pos: &mut usize, item: Item) -> u64 {
        let start = *pos;
        let v = get_varint(bytes, pos).expect("a golden trace decodes");
        self.items.push((start, *pos, item));
        v
    }

    fn string(&mut self, bytes: &[u8], pos: &mut usize) {
        let len = self.varint(bytes, pos, Item::Count) as usize;
        self.items.push((*pos, *pos + len, Item::Plain));
        *pos += len;
    }
}

fn layout(bytes: &[u8]) -> Layout {
    let mut l = Layout {
        items: vec![
            (0, 8, Item::Plain),
            (8, 10, Item::Plain),
            (10, 11, Item::Plain),
        ],
        regions: Vec::new(),
    };
    let mut pos = 11;
    // machine: cores, three geometries of three, six latencies, cycles/s, op cost.
    for _ in 0..18 {
        l.varint(bytes, &mut pos, Item::Plain);
    }
    // params: the workload's name, then nine varints.
    l.string(bytes, &mut pos);
    for _ in 0..9 {
        l.varint(bytes, &mut pos, Item::Plain);
    }
    for _ in 0..l.varint(bytes, &mut pos, Item::Count) {
        l.varint(bytes, &mut pos, Item::Plain); // seed
        l.varint(bytes, &mut pos, Item::Plain); // requests
        for _ in 0..l.varint(bytes, &mut pos, Item::Count) {
            l.string(bytes, &mut pos);
        }
        for _ in 0..l.varint(bytes, &mut pos, Item::Count) {
            l.string(bytes, &mut pos); // name
            l.string(bytes, &mut pos); // description
            l.varint(bytes, &mut pos, Item::Plain); // size
            for _ in 0..l.varint(bytes, &mut pos, Item::Count) {
                l.string(bytes, &mut pos);
                l.varint(bytes, &mut pos, Item::Plain); // offset
                l.varint(bytes, &mut pos, Item::Plain); // size
            }
        }
        l.varint(bytes, &mut pos, Item::Count); // event count
        let byte_len = l.varint(bytes, &mut pos, Item::Count) as usize;
        l.regions.push((pos, pos + byte_len));
        pos += byte_len;
    }
    assert_eq!(pos, bytes.len(), "the layout covers the file");
    l
}

/// Where each access run's item count sits in the event region `bytes[start..end]`
/// (`docs/trace-format.md`, "Event encoding").
fn run_counts(bytes: &[u8], (start, end): (usize, usize)) -> Vec<(usize, usize)> {
    let mut found = Vec::new();
    let mut pos = start;
    let skip = |pos: &mut usize, n: usize| {
        for _ in 0..n {
            get_varint(bytes, pos).expect("a golden trace decodes");
        }
    };
    while pos < end {
        let op = bytes[pos];
        pos += 1;
        match op {
            0x00 => {
                skip(&mut pos, 2);
                let at = pos;
                let count = get_varint(bytes, &mut pos).unwrap() as usize;
                found.push((at, pos));
                skip(&mut pos, 2 * count);
            }
            0x01 | 0x03 => skip(&mut pos, 3),
            0x02 => {
                pos += 1;
                skip(&mut pos, 5);
            }
            0x04 => {}
            other => panic!("opcode {other:#04x} in a golden trace"),
        }
    }
    assert_eq!(pos, end, "the walk ends with the region");
    found
}

/// `bytes` with `bytes[start..end]` replaced by the varint of `value`.
fn with_varint(bytes: &[u8], (start, end): (usize, usize), value: u64) -> Vec<u8> {
    let mut out = bytes[..start].to_vec();
    put_varint(&mut out, value);
    out.extend_from_slice(&bytes[end..]);
    out
}

/// Walks every stream of `reader` to its end: the decoder's verdict.
fn walk(reader: &TraceReader) -> Result<(), TraceError> {
    for (thread, header) in reader.headers().iter().enumerate() {
        let mut events = 0;
        for event in reader.events(thread)? {
            event?;
            events += 1;
            assert!(
                events <= header.event_count,
                "stream {thread} runs past its count"
            );
        }
    }
    Ok(())
}

/// Opens and walks one mutated document, holding it to everything the file promises,
/// and replays it when `replay` is set and it opens; `case` names it in every failure.
/// Returns whether it opened.
fn check(case: &str, bytes: &[u8], replay: bool) -> bool {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (walked, asked) = measured(|| open(bytes).map(|reader| walk(&reader)));
        assert!(
            asked.peak_bytes <= HEAP_BOUND,
            "open and walk held {} bytes of {HEAP_BOUND}",
            asked.peak_bytes
        );
        let opened = walked.is_ok();
        if replay && opened {
            let reader = open(bytes).expect("it opened once");
            if let Err(e) = replay_all_streaming(&reader) {
                assert!(!e.contains("panicked"), "replay: {e}");
            }
        }
        opened
    }));
    outcome.unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("?");
        panic!("{case}: {message}");
    })
}

#[test]
fn hostile_mutations_of_every_golden_trace_are_refused_or_walk_cleanly() {
    let mut cases = 0;
    for (index, (name, bytes)) in documents().into_iter().enumerate() {
        let seed = 0xd7ac_e000 + index as u64;
        let mut choices = Choices(seed);
        let case = |what: String| format!("{name}: {what} (seed {seed:#x})");
        assert!(check(&case("unchanged".into()), &bytes, false));
        let Layout { items, regions } = layout(&bytes);

        // Cut at every prologue item boundary, and at seeded offsets inside each
        // event region.
        let boundaries = (items.iter().map(|&(start, _, _)| start))
            .chain(regions.iter().map(|&(start, _)| start));
        for cut in boundaries {
            check(
                &case(format!("truncated at byte {cut}")),
                &bytes[..cut],
                false,
            );
            cases += 1;
        }
        for &(start, end) in &regions {
            for _ in 0..REGION_CUTS {
                let cut = start + choices.below(end - start);
                check(
                    &case(format!("truncated at byte {cut}")),
                    &bytes[..cut],
                    false,
                );
                cases += 1;
            }
        }

        // Single-bit flips anywhere; the first few that open are replayed too.
        let mut replayed = 0;
        for n in 0..FLIPS {
            let (at, bit) = (choices.below(bytes.len()), choices.below(8));
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << bit;
            let what = case(format!("case {n}: bit {bit} of byte {at} flipped"));
            if check(&what, &flipped, replayed < REPLAYS) && replayed < REPLAYS {
                replayed += 1;
            }
            cases += 1;
        }
        assert_eq!(replayed, REPLAYS, "{name}: too few flipped documents open");

        // Every count and length prefix of the prologue, and seeded access-run counts,
        // inflated to 2^32 and to 2^63.
        let mut counts: Vec<(usize, usize)> = (items.iter())
            .filter(|&&(_, _, item)| item == Item::Count)
            .map(|&(start, end, _)| (start, end))
            .collect();
        for &region in &regions {
            let runs = run_counts(&bytes, region);
            counts.extend((0..RUN_COUNTS).map(|_| runs[choices.below(runs.len())]));
        }
        for (start, end) in counts {
            for (power, value) in [(32, 1u64 << 32), (63, 1 << 63)] {
                let inflated = with_varint(&bytes, (start, end), value);
                let what = format!("count at byte {start} inflated to 2^{power}");
                check(&case(what), &inflated, false);
                cases += 1;
            }
        }
    }
    assert!(cases > 2_000, "{cases} cases");
}
