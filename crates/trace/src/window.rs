//! The sampled window of one stream, packed in memory.
//!
//! `dprof whatif` replays every stream once per candidate fix, and each pass covers
//! the same events: those up to the end of the last round the session sampled.  So the
//! first pass over a stream — the profiled replay under `--auto`, the identity pass
//! without it — keeps every event it applies, up to that round end, in a
//! [`PackedWindow`], and every later pass replays the window instead of the file.  A
//! stream is decoded and validated once per command.
//!
//! An event is one 16-byte slot, a `u128`; an `Alloc` or `Free` whose fields do not
//! fit one takes two.  Bits from the low end (tag in bits 0–2):
//!
//! ```text
//! access   tag 0 | write 3 | core 4..11 | len 11..32 | ip 32..64 | addr 64..128
//! compute  tag 1 |         | core 4..11 |            | ip 32..64 | cycles 64..128
//! round    tag 2
//! alloc    tag 3 | hookable 3 | core 4..11 | size 11..32 | type_id 32..48
//!                | addr 48..88 | cycle 88..128
//!          (size < 2^21, type_id < 2^16, addr and cycle < 2^40)
//! alloc    tag 4 | hookable 3 | core 4..11 | type_id 32..64 | addr 64..128,
//!          then size 0..64 | cycle 64..128                    (any other alloc)
//! free     tag 5 | core 4..11 | cycle 11..64 | addr 64..128   (cycle < 2^53)
//! free     tag 6 | core 4..11 | addr 64..128, then cycle 0..64
//! ```
//!
//! The decoder bounds a core below 128 and an access's length at `MAX_ACCESS_LEN`
//! (2^20), so every access and compute fits one slot.  So does every allocation and
//! free of the golden traces and of the benchmark session, whose largest address is
//! below 2^33 and largest cycle below 2^21; an allocation needs two slots only past
//! 2^40 cycles, about six minutes of a 3 GHz core.
//!
//! Slots are kept in blocks of [`BLOCK_SLOTS`], each allocated whole when the one
//! before it is full: a window grows without ever moving what it holds, so it never
//! needs two copies of itself, and holds at most one block more than its slots.

use crate::stream::TraceReader;
use crate::whatif::RoundClocks;
use sim_cache::AccessKind;
use sim_machine::{FunctionId, SessionEvent};

/// Slots a block holds: 64 KiB.
pub const BLOCK_SLOTS: usize = 4096;

const TAG_ACCESS: u128 = 0;
const TAG_COMPUTE: u128 = 1;
const TAG_ROUND_END: u128 = 2;
const TAG_ALLOC: u128 = 3;
const TAG_ALLOC_WIDE: u128 = 4;
const TAG_FREE: u128 = 5;
const TAG_FREE_WIDE: u128 = 6;

/// The events of one stream up to its last sampled round end, in order, 16 bytes an
/// event, and how the stream ended if it ended short of that round: read-only once
/// packed, and shared by every pass over the stream.
#[derive(PartialEq, Eq)]
pub struct PackedWindow {
    thread: usize,
    /// Every block but the last is full.
    blocks: Vec<Vec<u128>>,
    events: usize,
    /// The error that ended the stream before the window's last round end: a decode
    /// error, or a stream that could not be opened.
    cut: Option<String>,
}

impl std::fmt::Debug for PackedWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedWindow")
            .field("thread", &self.thread)
            .field("events", &self.events)
            .field("slots", &self.slots())
            .field("cut", &self.cut)
            .finish()
    }
}

impl PackedWindow {
    /// An empty window of stream `thread`.
    pub(crate) fn new(thread: usize) -> PackedWindow {
        PackedWindow {
            thread,
            blocks: Vec::new(),
            events: 0,
            cut: None,
        }
    }

    /// Decodes stream `thread` of `reader` up to the end of the last round the session
    /// sampled, or to the stream's end if it comes first.  A stream that does not
    /// decode that far is packed up to the error, which the window keeps
    /// ([`PackedWindow::error`]): a pass over it applies the events before the error,
    /// so an event that contradicts its stream earlier is still the error it reports.
    ///
    /// # Panics
    /// Panics if `thread` is out of range.
    pub fn read(reader: &TraceReader, thread: usize) -> PackedWindow {
        let mut window = PackedWindow::new(thread);
        let mut round_ends = RoundClocks::new(reader, thread).last_round();
        let events = match reader.events(thread) {
            Ok(events) => events,
            Err(e) => {
                window.cut = Some(e.into());
                return window;
            }
        };
        for ev in events {
            match ev {
                Ok(ev) => {
                    window.push(ev);
                    if matches!(ev, SessionEvent::RoundEnd) {
                        round_ends -= 1;
                        if round_ends == 0 {
                            break;
                        }
                    }
                }
                Err(e) => {
                    window.cut = Some(e.into());
                    break;
                }
            }
        }
        window
    }

    /// Appends one decoded event: its core below 128, and an access no longer than
    /// `MAX_ACCESS_LEN`, as the decoder holds every event it hands out.
    ///
    /// # Panics
    /// Panics on an event the decoder would have refused, which would not fit its slot.
    #[inline]
    pub(crate) fn push(&mut self, ev: SessionEvent) {
        self.events += 1;
        let core = |core: u32| {
            assert!(core < 128, "the decoder bounds cores");
            u128::from(core) << 4
        };
        match ev {
            SessionEvent::Access {
                core: c,
                ip,
                addr,
                len,
                kind,
            } => {
                assert!(len < 1 << 21, "the decoder bounds access lengths");
                self.put(
                    TAG_ACCESS
                        | u128::from(kind.is_write()) << 3
                        | core(c)
                        | u128::from(len) << 11
                        | u128::from(ip.0) << 32
                        | u128::from(addr) << 64,
                );
            }
            SessionEvent::Compute {
                core: c,
                ip,
                cycles,
            } => {
                self.put(TAG_COMPUTE | core(c) | u128::from(ip.0) << 32 | u128::from(cycles) << 64)
            }
            SessionEvent::RoundEnd => self.put(TAG_ROUND_END),
            SessionEvent::Alloc {
                core: c,
                type_id,
                size,
                addr,
                cycle,
                hookable,
            } => {
                let head = u128::from(hookable) << 3 | core(c);
                if size < 1 << 21 && type_id < 1 << 16 && addr < 1 << 40 && cycle < 1 << 40 {
                    self.put(
                        TAG_ALLOC
                            | head
                            | u128::from(size) << 11
                            | u128::from(type_id) << 32
                            | u128::from(addr) << 48
                            | u128::from(cycle) << 88,
                    );
                } else {
                    self.put(
                        TAG_ALLOC_WIDE | head | u128::from(type_id) << 32 | u128::from(addr) << 64,
                    );
                    self.put(u128::from(size) | u128::from(cycle) << 64);
                }
            }
            SessionEvent::Free {
                core: c,
                addr,
                cycle,
            } => {
                if cycle < 1 << 53 {
                    self.put(TAG_FREE | core(c) | u128::from(cycle) << 11 | u128::from(addr) << 64);
                } else {
                    self.put(TAG_FREE_WIDE | core(c) | u128::from(addr) << 64);
                    self.put(u128::from(cycle));
                }
            }
        }
    }

    #[inline]
    fn put(&mut self, slot: u128) {
        match self.blocks.last_mut() {
            Some(block) if block.len() < BLOCK_SLOTS => block.push(slot),
            _ => self.put_in_a_new_block(slot),
        }
    }

    /// Once a block: out of the way of the pushes in between.
    #[cold]
    #[inline(never)]
    fn put_in_a_new_block(&mut self, slot: u128) {
        let mut block = Vec::with_capacity(BLOCK_SLOTS);
        block.push(slot);
        self.blocks.push(block);
    }

    /// The stream the window was packed from.
    pub fn thread(&self) -> usize {
        self.thread
    }

    /// Events packed.
    pub fn len(&self) -> usize {
        self.events
    }

    /// True when no event was packed.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Slots the events take: one an event, two for a wide `Alloc` or `Free`.
    pub fn slots(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    /// Bytes the blocks hold, the partly filled last one whole.
    pub fn block_bytes(&self) -> usize {
        self.blocks.len() * BLOCK_SLOTS * std::mem::size_of::<u128>()
    }

    /// The error that ended the stream before the window's last round end, if one did.
    pub fn error(&self) -> Option<&str> {
        self.cut.as_deref()
    }

    /// The packed events, in stream order.
    pub fn events(&self) -> WindowEvents<'_> {
        WindowEvents {
            blocks: self.blocks.iter(),
            current: [].iter(),
        }
    }
}

/// The events of a [`PackedWindow`], unpacked one at a time.
#[derive(Debug, Clone)]
pub struct WindowEvents<'a> {
    blocks: std::slice::Iter<'a, Vec<u128>>,
    current: std::slice::Iter<'a, u128>,
}

impl WindowEvents<'_> {
    #[inline]
    fn slot(&mut self) -> Option<u128> {
        if let Some(&slot) = self.current.next() {
            return Some(slot);
        }
        // A block is never empty: it is made for the slot that does not fit the last.
        self.current = self.blocks.next()?.iter();
        self.current.next().copied()
    }
}

/// `width` bits of `slot` from bit `at` (`width` below 64).
#[inline(always)]
fn bits(slot: u128, at: u32, width: u32) -> u64 {
    (slot >> at) as u64 & ((1 << width) - 1)
}

impl Iterator for WindowEvents<'_> {
    type Item = SessionEvent;

    #[inline]
    fn next(&mut self) -> Option<SessionEvent> {
        let slot = self.slot()?;
        let core = bits(slot, 4, 7) as u32;
        let high = (slot >> 64) as u64;
        Some(match slot & 7 {
            TAG_ACCESS => SessionEvent::Access {
                core,
                ip: FunctionId(bits(slot, 32, 32) as u32),
                addr: high,
                len: bits(slot, 11, 21),
                kind: if slot & 1 << 3 != 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            },
            TAG_COMPUTE => SessionEvent::Compute {
                core,
                ip: FunctionId(bits(slot, 32, 32) as u32),
                cycles: high,
            },
            TAG_ROUND_END => SessionEvent::RoundEnd,
            TAG_ALLOC => SessionEvent::Alloc {
                core,
                type_id: bits(slot, 32, 16) as u32,
                size: bits(slot, 11, 21),
                addr: bits(slot, 48, 40),
                cycle: (slot >> 88) as u64,
                hookable: slot & 1 << 3 != 0,
            },
            TAG_ALLOC_WIDE => {
                let rest = self.slot().expect("a wide alloc packs two slots");
                SessionEvent::Alloc {
                    core,
                    type_id: bits(slot, 32, 32) as u32,
                    size: rest as u64,
                    addr: high,
                    cycle: (rest >> 64) as u64,
                    hookable: slot & 1 << 3 != 0,
                }
            }
            TAG_FREE => SessionEvent::Free {
                core,
                addr: high,
                cycle: bits(slot, 11, 53),
            },
            TAG_FREE_WIDE => SessionEvent::Free {
                core,
                addr: high,
                cycle: self.slot().expect("a wide free packs two slots") as u64,
            },
            _ => unreachable!("a window holds only the tags it packs"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::MAX_ACCESS_LEN;

    fn round_trip(events: &[SessionEvent]) -> PackedWindow {
        let mut window = PackedWindow::new(0);
        for &ev in events {
            window.push(ev);
        }
        assert_eq!(window.events().collect::<Vec<_>>(), events);
        assert_eq!(window.len(), events.len());
        window
    }

    #[test]
    fn every_event_round_trips_at_its_field_extremes() {
        let mut events = vec![SessionEvent::RoundEnd];
        for (core, ip, addr) in [(0, 0, 0), (127, u32::MAX, u64::MAX)] {
            let ip = FunctionId(ip);
            for (len, kind) in [(1, AccessKind::Read), (MAX_ACCESS_LEN, AccessKind::Write)] {
                events.push(SessionEvent::Access {
                    core,
                    ip,
                    addr,
                    len,
                    kind,
                });
            }
            for cycles in [0, u64::MAX] {
                events.push(SessionEvent::Compute { core, ip, cycles });
            }
        }
        // Each packed field at the last value of its one-slot form, and at the first
        // of the two-slot form, alone and all at once.
        let one = [1 << 21, 1 << 16, 1 << 40, 1 << 40].map(|limit: u64| limit - 1);
        let max = [u64::MAX, u64::from(u32::MAX), u64::MAX, u64::MAX];
        let mut shapes = vec![[0; 4], one, max];
        for field in 0..4 {
            let mut wide = one;
            wide[field] += 1;
            shapes.push(wide);
        }
        for [size, type_id, addr, cycle] in shapes {
            for (core, hookable) in [(0, false), (127, true)] {
                events.push(SessionEvent::Alloc {
                    core,
                    type_id: type_id as u32,
                    size,
                    addr,
                    cycle,
                    hookable,
                });
            }
        }
        for cycle in [0, (1 << 53) - 1, 1 << 53, u64::MAX] {
            for (core, addr) in [(0, 0), (127, u64::MAX)] {
                events.push(SessionEvent::Free { core, addr, cycle });
            }
        }
        events.push(SessionEvent::RoundEnd);
        let window = round_trip(&events);
        // Wide: four of the allocation shapes and two of the free cycles, each twice.
        assert_eq!(window.slots(), events.len() + 2 * (5 + 2));
    }

    #[test]
    fn a_window_grows_by_whole_blocks_and_reads_across_them() {
        let wide_free = SessionEvent::Free {
            core: 3,
            addr: 0x1000,
            cycle: u64::MAX,
        };
        // The last slot of the first block is the first half of a wide free.
        let mut events = vec![SessionEvent::RoundEnd; BLOCK_SLOTS - 1];
        events.push(wide_free);
        events.extend([SessionEvent::RoundEnd; 3]);
        let window = round_trip(&events);
        assert_eq!(window.slots(), BLOCK_SLOTS + 4);
        assert_eq!(window.block_bytes(), 2 * BLOCK_SLOTS * 16);
        assert!(PackedWindow::new(0).is_empty());
        assert_eq!(PackedWindow::new(0).events().next(), None);
    }

    #[test]
    fn the_window_of_a_golden_trace_is_its_stream_up_to_the_last_sampled_round_end() {
        let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
        let mut paths: Vec<_> = std::fs::read_dir(&golden)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|e| e == "dtrace"))
            .collect();
        paths.sort();
        assert_eq!(paths.len(), 5, "five golden traces: {paths:?}");
        for path in paths {
            let reader = TraceReader::open(path.to_str().unwrap()).unwrap();
            let last_round = RoundClocks::new(&reader, 0).last_round();
            let mut rounds = 0;
            let stream: Vec<SessionEvent> = (reader.events(0).unwrap())
                .map(|ev| ev.unwrap())
                .take_while(|ev| {
                    let before = rounds;
                    rounds += usize::from(matches!(ev, SessionEvent::RoundEnd));
                    before < last_round
                })
                .collect();
            assert_eq!(
                rounds, last_round,
                "{path:?}: the stream reaches the window's end"
            );
            let window = PackedWindow::read(&reader, 0);
            assert_eq!(window.error(), None);
            assert!(window.events().eq(stream.iter().copied()), "{path:?}");
            assert_eq!(window.slots(), stream.len(), "{path:?}: one slot an event");
        }
    }
}
