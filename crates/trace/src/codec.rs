//! Varint/zigzag primitives and the session-event wire *encoder*.
//!
//! The event stream is dominated by memory accesses, so the encoding optimizes for
//! them: consecutive accesses with the same `(core, ip)` are coalesced into one
//! *access run* (the on-disk mirror of a `Machine::access_run` batch), and addresses
//! are delta-encoded against the issuing core's previous address — workload request
//! paths walk objects with small strides, so the zigzag deltas are usually 1-2 bytes
//! instead of 5-6 for an absolute address.
//!
//! Wire grammar (all integers LEB128 varints unless noted):
//!
//! ```text
//! event      := access-run | compute | alloc | free | round-end
//! access-run := 0x00 core ip count item*count
//! item       := zigzag(addr - prev_addr[core])  (len << 1 | is_write)
//! compute    := 0x01 core ip cycles
//! alloc      := 0x02 flags(u8: bit0 = hookable) core type_id size addr cycle
//! free       := 0x03 core addr cycle
//! round-end  := 0x04
//! ```
//!
//! `prev_addr[core]` starts at 0 and is updated to each access's address; the decoder
//! ([`crate::stream::EventReader`], the only one) mirrors the encoder's state, so the
//! mapping is bijective.

use crate::TraceError;
use sim_machine::{FunctionId, SessionEvent};

pub(crate) const OP_ACCESS_RUN: u8 = 0x00;
pub(crate) const OP_COMPUTE: u8 = 0x01;
pub(crate) const OP_ALLOC: u8 = 0x02;
pub(crate) const OP_FREE: u8 = 0x03;
pub(crate) const OP_ROUND_END: u8 = 0x04;

/// Appends a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Longest LEB128 encoding of a `u64`.
const MAX_VARINT_BYTES: usize = 10;

/// Longest encoding of one event, a property of the format: an `alloc` is an opcode, a
/// flags byte and five varints.  (An access-run header is an opcode and three varints,
/// a run item two varints.)  The decoder buffers this much and decodes an event from
/// one window of bytes.
pub const MAX_EVENT_BYTES: usize = 2 + 5 * MAX_VARINT_BYTES;

/// Why a varint did not decode.  `Copy` and one byte, so the one varint loop below
/// returns through registers; the messages are attached where the error leaves the
/// decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarintError {
    /// The bytes ended inside the varint.
    Eof,
    /// The tenth byte carries bits beyond the 64th.
    Overflow,
    /// An eleventh byte follows.
    TooLong,
}

impl From<VarintError> for TraceError {
    #[cold]
    fn from(e: VarintError) -> TraceError {
        match e {
            VarintError::Eof => TraceError::UnexpectedEof,
            VarintError::Overflow => TraceError::Corrupt("varint overflows u64".into()),
            VarintError::TooLong => TraceError::Corrupt("varint too long".into()),
        }
    }
}

/// The varint decoder: reads one LEB128 varint at `*pos`, advancing it.  Forced inline:
/// the compiler unrolls the loop ten times, then finds it too large to inline by
/// itself, and an event decoder that calls it keeps `pos` in memory.
#[inline(always)]
pub(crate) fn varint(bytes: &[u8], pos: &mut usize) -> Result<u64, VarintError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos).ok_or(VarintError::Eof)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(VarintError::Overflow);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(VarintError::TooLong);
        }
    }
}

/// Reads a LEB128 varint.
pub fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    Ok(varint(bytes, pos)?)
}

/// Zigzag-encodes a signed value into an unsigned varint payload.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string.
pub fn get_string(bytes: &[u8], pos: &mut usize) -> Result<String, TraceError> {
    let len = get_varint(bytes, pos)? as usize;
    if bytes.len() - *pos < len {
        return Err(TraceError::UnexpectedEof);
    }
    let s = utf8(&bytes[*pos..*pos + len])?;
    *pos += len;
    Ok(s)
}

/// A string's bytes as a `String`, refused unless they are UTF-8.
pub(crate) fn utf8(bytes: &[u8]) -> Result<String, TraceError> {
    std::str::from_utf8(bytes)
        .map(str::to_string)
        .map_err(|_| TraceError::Corrupt("string is not valid UTF-8".into()))
}

/// A session's events in wire form: their count and their encoded bytes, which is how
/// a recorded stream is held from the moment it is produced (about 6 bytes an event
/// where the [`SessionEvent`]s themselves take 40).  Two of these are equal exactly
/// when they hold the same events: the encoding is canonical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EncodedEvents {
    count: usize,
    bytes: Vec<u8>,
}

impl EncodedEvents {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if there are no events.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The encoded event region, as a `.dtrace` stream carries it.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl FromIterator<SessionEvent> for EncodedEvents {
    fn from_iter<I: IntoIterator<Item = SessionEvent>>(events: I) -> Self {
        let mut encoder = EventEncoder::new();
        for ev in events {
            encoder.push(ev);
        }
        encoder.finish()
    }
}

impl From<Vec<SessionEvent>> for EncodedEvents {
    fn from(events: Vec<SessionEvent>) -> Self {
        events.into_iter().collect()
    }
}

/// The incremental event encoder — the only encoder: events are pushed as the session
/// produces them, in pieces of any size, and the bytes are the same as for the whole
/// session pushed at once.  It carries what [`crate::stream::EventReader`] carries on
/// the way back: the per-core delta bases and the current access run.
///
/// A run header holds the run's item count, which is known only when the run closes,
/// so the open run's items wait in a scratch buffer; the header and the items go out
/// when an event that cannot join the run arrives, or at [`EventEncoder::finish`].
/// The end of a pushed piece closes nothing.
#[derive(Debug, Clone)]
pub struct EventEncoder {
    out: Vec<u8>,
    count: usize,
    /// The delta-encoding base per core: the address of its previous access, 0 at
    /// first.  The decoder's table, and like it never grown.
    prev_addr: [u64; sim_cache::MAX_CORES],
    /// The open access run: `(core, ip, items so far)`; none open at 0.
    run: (u32, FunctionId, u64),
    /// The open run's encoded items.
    items: Vec<u8>,
}

impl Default for EventEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl EventEncoder {
    /// An encoder at the start of a stream.
    pub fn new() -> Self {
        EventEncoder {
            out: Vec::new(),
            count: 0,
            prev_addr: [0; sim_cache::MAX_CORES],
            run: (0, FunctionId(0), 0),
            items: Vec::new(),
        }
    }

    /// Encodes the next events of the stream.
    pub fn extend(&mut self, events: &[SessionEvent]) {
        for &ev in events {
            self.push(ev);
        }
    }

    /// Encodes the next event of the stream.  Consecutive accesses with the same
    /// `(core, ip)` coalesce into one access run.
    ///
    /// # Panics
    ///
    /// On an access whose core no machine can have (`>= sim_cache::MAX_CORES`): the
    /// recorder only ever sees a real machine's cores, and the format keeps a delta
    /// base per core.
    #[inline]
    pub fn push(&mut self, ev: SessionEvent) {
        self.count += 1;
        match ev {
            SessionEvent::Access {
                core,
                ip,
                addr,
                len,
                kind,
            } => {
                // A closed run leaves its `(core, ip)` behind with no items: an access
                // that matches it starts the next run under the same header.
                if (core, ip) != (self.run.0, self.run.1) {
                    self.close_run();
                    assert!(
                        (core as usize) < sim_cache::MAX_CORES,
                        "access on core {core}: a machine has at most {} cores",
                        sim_cache::MAX_CORES
                    );
                    self.run = (core, ip, 0);
                }
                self.run.2 += 1;
                let prev = &mut self.prev_addr[core as usize];
                put_varint(&mut self.items, zigzag(addr.wrapping_sub(*prev) as i64));
                *prev = addr;
                put_varint(&mut self.items, (len << 1) | u64::from(kind.is_write()));
            }
            SessionEvent::Compute { core, ip, cycles } => {
                let out = self.close_run();
                out.push(OP_COMPUTE);
                put_varint(out, u64::from(core));
                put_varint(out, u64::from(ip.0));
                put_varint(out, cycles);
            }
            SessionEvent::Alloc {
                core,
                type_id,
                size,
                addr,
                cycle,
                hookable,
            } => {
                let out = self.close_run();
                out.push(OP_ALLOC);
                out.push(u8::from(hookable));
                put_varint(out, u64::from(core));
                put_varint(out, u64::from(type_id));
                put_varint(out, size);
                put_varint(out, addr);
                put_varint(out, cycle);
            }
            SessionEvent::Free { core, addr, cycle } => {
                let out = self.close_run();
                out.push(OP_FREE);
                put_varint(out, u64::from(core));
                put_varint(out, addr);
                put_varint(out, cycle);
            }
            SessionEvent::RoundEnd => self.close_run().push(OP_ROUND_END),
        }
    }

    /// Writes the open run, if any — its header, now that the count is known, then its
    /// items — and returns the output, where the next event goes.
    fn close_run(&mut self) -> &mut Vec<u8> {
        let (core, ip, count) = self.run;
        if count > 0 {
            self.out.push(OP_ACCESS_RUN);
            put_varint(&mut self.out, u64::from(core));
            put_varint(&mut self.out, u64::from(ip.0));
            put_varint(&mut self.out, count);
            self.out.extend_from_slice(&self.items);
            self.items.clear();
            self.run.2 = 0;
        }
        &mut self.out
    }

    /// Closes the stream and returns its encoded form.
    pub fn finish(mut self) -> EncodedEvents {
        self.close_run();
        EncodedEvents {
            count: self.count,
            bytes: self.out,
        }
    }
}

/// Encodes a whole session-event stream at once: the [`EventEncoder`] over a slice.
pub fn encode_events(events: &[SessionEvent]) -> Vec<u8> {
    let mut encoder = EventEncoder::new();
    encoder.extend(events);
    encoder.finish().bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip_boundaries() {
        let mut out = Vec::new();
        let values = [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        for &v in &values {
            out.clear();
            put_varint(&mut out, v);
            let mut pos = 0;
            assert_eq!(get_varint(&out, &mut pos).unwrap(), v);
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn same_core_and_ip_accesses_coalesce_into_one_run() {
        use sim_cache::AccessKind;
        use sim_machine::FunctionId;
        let access = |ip, addr| SessionEvent::Access {
            core: 0,
            ip: FunctionId(ip),
            addr,
            len: 8,
            kind: AccessKind::Read,
        };
        // The same accesses with distinct (core, ip) pairs cannot share a run header,
        // so they must encode strictly larger.  (The decode half of the round trip is
        // tested where the decoder lives: `crate::stream`.)
        let coalesced = encode_events(&[access(7, 0x1000), access(7, 0x1008)]);
        let uncoalesced = encode_events(&[access(7, 0x1000), access(8, 0x1008)]);
        assert!(coalesced.len() < uncoalesced.len());
    }

    #[test]
    fn the_widest_event_of_each_opcode_fits_max_event_bytes() {
        use sim_cache::AccessKind;
        use sim_machine::FunctionId;
        let widest = [
            // A one-item run: header, a 2^63 delta and a 63-bit length.  (The encoder
            // keeps a delta base per core, so an access takes a core a machine can have.)
            SessionEvent::Access {
                core: sim_cache::MAX_CORES as u32 - 1,
                ip: FunctionId(u32::MAX),
                addr: 1 << 63,
                len: u64::MAX >> 1,
                kind: AccessKind::Write,
            },
            SessionEvent::Compute {
                core: u32::MAX,
                ip: FunctionId(u32::MAX),
                cycles: u64::MAX,
            },
            SessionEvent::Alloc {
                core: u32::MAX,
                type_id: u32::MAX,
                size: u64::MAX,
                addr: u64::MAX,
                cycle: u64::MAX,
                hookable: true,
            },
            SessionEvent::Free {
                core: u32::MAX,
                addr: u64::MAX,
                cycle: u64::MAX,
            },
            SessionEvent::RoundEnd,
        ];
        let lens = widest.map(|ev| encode_events(&[ev]).len());
        assert_eq!(lens, [28, 21, 42, 26, 1]);
        // The bound also covers a decoder-legal event whose `u32` fields are padded
        // to ten bytes: opcode, flags, five varints.
        assert!(lens.iter().all(|&n| n <= MAX_EVENT_BYTES));
        assert_eq!(MAX_EVENT_BYTES, 52);
        let mut ten = Vec::new();
        put_varint(&mut ten, u64::MAX);
        assert_eq!(ten.len(), MAX_VARINT_BYTES);
    }
}
