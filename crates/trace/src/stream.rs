//! The `.dtrace` decoder: streaming, with bounded memory.
//!
//! This is the only code that turns `.dtrace` bytes back into events.  Slurping a file
//! and materializing every stream's event vector before anything can run is, for
//! multi-gigabyte captures, both the peak-RSS and the time-to-first-event bottleneck,
//! so decoding is incremental:
//!
//! * [`TraceReader::open`] parses only the *prologue* — header, machine, session
//!   parameters, and each stream's identity + symbol/type tables (all small) — and
//!   records where each stream's encoded event region lives in the file.  Event bytes
//!   are skipped with seeks, never buffered.
//! * [`TraceReader::events`] returns an [`EventReader`]: an iterator that decodes one
//!   [`SessionEvent`] at a time from its own file handle, reading fixed-size chunks
//!   and carrying the codec's cross-event state (per-core address deltas, the current
//!   access run) across chunk boundaries.  An event is at most
//!   [`MAX_EVENT_BYTES`] long, so the reader keeps that much buffered and decodes each
//!   event from one window of bytes, clipped to the stream's declared region, with a
//!   local cursor: no refill, and no look at the next stream's bytes, mid-event.  Peak
//!   buffering is a couple of chunks regardless of trace size —
//!   [`EventReader::peak_buffered_bytes`] reports the high water mark and a regression
//!   test pins it.
//!
//! Every event is validated against the declared machine as it is decoded (core in
//! range, sane access extents) and against its stream's prologue (every function id
//! interned, every type id registered), and the total event count and byte length are verified
//! against the stream header at end of iteration, so a corrupt or truncated trace is
//! rejected with an error instead of panicking or hanging mid-replay — lazily, when
//! the damage is reached.  Each [`EventReader`] owns an independent file handle, so
//! per-stream readers can run on parallel replay threads.
//!
//! Every replay, measurement and walk reads its events from here, so the decode loop
//! is compiled once, in this crate.  A session just recorded is replayed the way
//! `dprof` replays it: written to a file and opened.

use crate::codec::{
    get_varint, unzigzag, utf8, varint, VarintError, MAX_EVENT_BYTES, OP_ACCESS_RUN, OP_ALLOC,
    OP_COMPUTE, OP_FREE, OP_ROUND_END,
};
use crate::format::{get_machine, get_params, TraceKind, TypeDump, MAGIC, MAX_ACCESS_LEN, VERSION};
use crate::TraceError;
use sim_cache::AccessKind;
use sim_machine::{FunctionId, MachineConfig, SessionEvent};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};

/// Bytes read from the file per refill.  Large enough to amortize syscalls, small
/// enough that an [`EventReader`]'s working set stays a rounding error next to the
/// decoded simulation state.
pub const CHUNK_SIZE: usize = 64 * 1024;

/// A chunked, forward-only reader: keeps at most a couple of chunks buffered, compacts
/// consumed bytes away, and tracks the buffering high-water mark.
struct ChunkedReader {
    file: File,
    /// The file's length when it was opened: no item read from it can be longer than
    /// what is left of it.
    file_len: u64,
    buf: Vec<u8>,
    /// Consumed prefix of `buf`.
    start: usize,
    /// Absolute file offset of `buf[start]` (i.e. bytes consumed or skipped so far).
    offset: u64,
    /// Largest number of bytes ever buffered at once.
    peak: usize,
}

impl ChunkedReader {
    fn open(path: &str) -> Result<Self, TraceError> {
        let file =
            File::open(path).map_err(|e| TraceError::Io(format!("cannot open {path}: {e}")))?;
        let file_len = file
            .metadata()
            .map_err(|e| TraceError::Io(format!("cannot stat {path}: {e}")))?
            .len();
        Ok(ChunkedReader {
            file,
            file_len,
            buf: Vec::new(),
            start: 0,
            offset: 0,
            peak: 0,
        })
    }

    /// Skips ahead to absolute file offset `target` (at or past the current one),
    /// seeking past whatever is not already buffered.
    fn skip_to(&mut self, target: u64) -> Result<(), TraceError> {
        let buffered = (self.available() as u64).min(target - self.offset);
        self.consume(buffered as usize);
        if self.offset < target {
            // Everything buffered was consumed, so the file cursor is at `offset`.
            self.file
                .seek(SeekFrom::Start(target))
                .map_err(|e| TraceError::Io(format!("seek failed: {e}")))?;
            self.offset = target;
        }
        Ok(())
    }

    fn available(&self) -> usize {
        self.buf.len() - self.start
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// Buffers at least `n` unconsumed bytes, reading more chunks as needed, but never
    /// room for more than what is left of the file.
    fn ensure(&mut self, n: usize) -> Result<(), TraceError> {
        while self.available() < n {
            if self.start > 0 {
                self.buf.copy_within(self.start.., 0);
                let len = self.buf.len() - self.start;
                self.buf.truncate(len);
                self.start = 0;
            }
            let old_len = self.buf.len();
            let unread = self.file_len.saturating_sub(self.offset + old_len as u64);
            // Nothing unread reads 0 bytes into no room: the end of the file.
            let want = CHUNK_SIZE
                .max(n - old_len)
                .min(usize::try_from(unread).unwrap_or(usize::MAX));
            self.buf.resize(old_len + want, 0);
            let read = self
                .file
                .read(&mut self.buf[old_len..])
                .map_err(|e| TraceError::Io(format!("read failed: {e}")))?;
            self.buf.truncate(old_len + read);
            if read == 0 {
                return Err(TraceError::UnexpectedEof);
            }
            self.peak = self.peak.max(self.buf.len());
        }
        Ok(())
    }

    fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.available());
        self.start += n;
        self.offset += n as u64;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
    }

    /// Parses one prologue item with `get`, buffering one more byte and retrying
    /// while it runs off the buffered bytes (a varint does at most ten times).
    fn read<T>(
        &mut self,
        get: impl Fn(&[u8], &mut usize) -> Result<T, TraceError>,
    ) -> Result<T, TraceError> {
        loop {
            let mut pos = 0;
            match get(self.bytes(), &mut pos) {
                Ok(v) => {
                    self.consume(pos);
                    return Ok(v);
                }
                Err(TraceError::UnexpectedEof) => self.ensure(self.available() + 1)?,
                Err(e) => return Err(e),
            }
        }
    }

    fn read_varint(&mut self) -> Result<u64, TraceError> {
        self.read(get_varint)
    }

    /// Reads a length-prefixed string.  A length longer than the rest of the file is
    /// refused before any of it is buffered.
    fn read_string(&mut self) -> Result<String, TraceError> {
        let len = self.read_varint()?;
        if len > self.file_len.saturating_sub(self.offset) {
            return Err(TraceError::UnexpectedEof);
        }
        self.ensure(len as usize)?;
        let s = utf8(&self.bytes()[..len as usize])?;
        self.consume(len as usize);
        Ok(s)
    }

    fn read_byte(&mut self) -> Result<u8, TraceError> {
        self.ensure(1)?;
        let b = self.bytes()[0];
        self.consume(1);
        Ok(b)
    }
}

/// The prologue of one recorded stream: everything except the event bytes, which
/// stay on disk until [`TraceReader::events`] walks them.
#[derive(Debug, Clone)]
pub struct StreamHeader {
    /// The seed this thread ran with.
    pub seed: u64,
    /// Application requests completed during the profiled window.
    pub requests: u64,
    /// Interned symbol names, ordered by id.
    pub symbols: Vec<String>,
    /// Registered types, ordered by id.
    pub types: Vec<TypeDump>,
    /// Number of events in the stream.
    pub event_count: usize,
    /// Encoded size of the event region.
    byte_len: u64,
    /// Absolute file offset of the event region.
    events_offset: u64,
}

/// A `.dtrace` file opened for streaming: prologue parsed and validated, event
/// regions indexed but not decoded.
#[derive(Debug)]
pub struct TraceReader {
    path: String,
    /// Machine configuration shared by all streams.
    pub machine: MachineConfig,
    /// Session parameters.
    pub params: crate::format::SessionParams,
    headers: Vec<StreamHeader>,
}

impl TraceReader {
    /// Opens a `.dtrace` file and parses its prologue.  Event bytes are located but
    /// not read; memory use is bounded by the chunk size plus the (small) symbol and
    /// type tables.
    pub fn open(path: &str) -> Result<Self, TraceError> {
        let mut r = ChunkedReader::open(path)?;
        let file_len = r.file_len;
        match r.ensure(MAGIC.len() + 2) {
            Ok(()) if r.bytes()[..MAGIC.len()] == MAGIC[..] => {}
            // Too short to hold magic + version: not a trace at all.
            Ok(()) | Err(TraceError::UnexpectedEof) => return Err(TraceError::BadMagic),
            Err(e) => return Err(e),
        }
        r.consume(MAGIC.len());
        let version = u16::from_le_bytes([r.bytes()[0], r.bytes()[1]]);
        r.consume(2);
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        TraceKind::from_byte(r.read_byte()?)?;

        // The machine and params sections are a few dozen bytes and a name; parse them
        // from buffered views rather than duplicating their field walks here.
        let machine = r.read(get_machine)?;
        let workload = r.read_string()?;
        let params = r.read(|bytes, pos| get_params(&workload, bytes, pos))?;

        let stream_count = r.read_varint()? as usize;
        let mut headers = Vec::new();
        for _ in 0..stream_count {
            // A stream prologue is unbounded only through its string tables, which
            // read incrementally; event bytes are skipped, never buffered.
            let (seed, requests, symbols, types) = read_stream_prologue(&mut r)?;
            let event_count = r.read_varint()? as usize;
            let byte_len = r.read_varint()?;
            // No event is shorter than a byte, so a count is bounded by its region,
            // and the region (below) by the file.
            if event_count as u64 > byte_len {
                return Err(TraceError::Corrupt(format!(
                    "stream {} declares {event_count} events in {byte_len} bytes",
                    headers.len()
                )));
            }
            let events_offset = r.offset;
            // The declared length comes from the file: check it against the file's
            // real size before trusting it as a seek target.  (A seek past
            // end-of-file succeeds silently, and a length near 2^64 would overflow
            // the offset arithmetic.)
            let events_end = events_offset
                .checked_add(byte_len)
                .filter(|&end| end <= file_len)
                .ok_or(TraceError::UnexpectedEof)?;
            r.skip_to(events_end)?;
            headers.push(StreamHeader {
                seed,
                requests,
                symbols,
                types,
                event_count,
                byte_len,
                events_offset,
            });
        }
        if r.offset != file_len {
            return Err(TraceError::Corrupt(
                "trailing bytes after the last stream".into(),
            ));
        }
        params.check(&machine, headers.iter().map(|h| h.event_count).min())?;
        Ok(TraceReader {
            path: path.to_string(),
            machine,
            params,
            headers,
        })
    }

    /// Number of recorded streams.
    pub fn stream_count(&self) -> usize {
        self.headers.len()
    }

    /// The parsed prologues, ordered by stream index.
    pub fn headers(&self) -> &[StreamHeader] {
        &self.headers
    }

    /// Opens an incremental event decoder over stream `thread`.  Each call opens an
    /// independent file handle, so readers for different streams can run on parallel
    /// threads.
    pub fn events(&self, thread: usize) -> Result<EventReader, TraceError> {
        let header = &self.headers[thread];
        let mut r = ChunkedReader::open(&self.path)?;
        r.file
            .seek(SeekFrom::Start(header.events_offset))
            .map_err(|e| TraceError::Io(format!("seek failed: {e}")))?;
        r.offset = header.events_offset;
        Ok(EventReader::new(r, header, self.machine.hierarchy.cores))
    }
}

fn read_stream_prologue(
    r: &mut ChunkedReader,
) -> Result<(u64, u64, Vec<String>, Vec<TypeDump>), TraceError> {
    // The stream grammar of `crate::format` up to (not including) the event region.
    // Counts are not trusted for allocation: tables grow as entries are read, so a
    // lying count simply runs into end-of-file.
    let seed = r.read_varint()?;
    let requests = r.read_varint()?;
    let mut symbols = Vec::new();
    for _ in 0..r.read_varint()? {
        symbols.push(r.read_string()?);
    }
    let mut types = Vec::new();
    for _ in 0..r.read_varint()? {
        let name = r.read_string()?;
        let description = r.read_string()?;
        let size = r.read_varint()?;
        let mut fields = Vec::new();
        for _ in 0..r.read_varint()? {
            fields.push(crate::format::FieldDump {
                name: r.read_string()?,
                offset: r.read_varint()?,
                size: r.read_varint()?,
            });
        }
        types.push(TypeDump {
            name,
            description,
            size,
            fields,
        });
    }
    Ok((seed, requests, symbols, types))
}

/// Incremental decoder over one stream's event region: an iterator of validated
/// [`SessionEvent`]s with bounded buffering.  Fused — after the first error, the
/// iterator yields `None` forever.
#[derive(Debug)]
pub struct EventReader {
    reader: ChunkedReader,
    /// Absolute offset one past the event region.
    region_end: u64,
    /// Event count the stream header declared.
    expected: usize,
    produced: usize,
    /// Core count of the declared machine, and the sizes of the stream's symbol and
    /// type tables, for semantic validation.
    cores: usize,
    symbols: usize,
    types: usize,
    /// The codec's per-core previous-address delta table (core ids are bounded as
    /// they are read, so it never grows).
    prev_addr: [u64; sim_cache::MAX_CORES],
    /// Current access run: `(core, ip, items remaining)`; none in progress at 0.
    run: (u32, FunctionId, u64),
    done: bool,
}

impl std::fmt::Debug for ChunkedReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkedReader")
            .field("offset", &self.offset)
            .field("buffered", &(self.buf.len() - self.start))
            .field("peak", &self.peak)
            .finish()
    }
}

impl EventReader {
    /// A decoder at the start of `header`'s event region, which `reader` stands at.
    fn new(reader: ChunkedReader, header: &StreamHeader, cores: usize) -> Self {
        EventReader {
            region_end: reader.offset + header.byte_len,
            reader,
            expected: header.event_count,
            produced: 0,
            cores,
            symbols: header.symbols.len(),
            types: header.types.len(),
            prev_addr: [0; sim_cache::MAX_CORES],
            run: (0, FunctionId(0), 0),
            done: false,
        }
    }

    /// Largest number of bytes this reader ever held buffered at once — the decoder's
    /// memory footprint, which stays a small constant regardless of trace size.
    pub fn peak_buffered_bytes(&self) -> usize {
        self.reader.peak
    }

    /// Number of events decoded so far.
    pub fn produced(&self) -> usize {
        self.produced
    }

    fn remaining_region(&self) -> u64 {
        self.region_end.saturating_sub(self.reader.offset)
    }

    fn next_inner(&mut self) -> Result<Option<SessionEvent>, TraceError> {
        loop {
            // One window per step (an event, a run header or a run item, none longer
            // than `MAX_EVENT_BYTES`): that many bytes, or the rest of the region if
            // it is shorter.  `open` checked that the file holds the whole region.
            // (`ensure` tests this too; testing here keeps the call off the common path.)
            let want = self.remaining_region().min(MAX_EVENT_BYTES as u64) as usize;
            if self.reader.available() < want {
                self.reader.ensure(want)?;
            }
            let mut w = Window {
                bytes: &self.reader.bytes()[..want],
                pos: 0,
            };

            let (core, ip, left) = self.run;
            if left > 0 {
                let delta = unzigzag(w.varint()?);
                let packed = w.varint()?;
                self.reader.consume(w.pos);
                self.run.2 = left - 1;
                let prev = &mut self.prev_addr[core as usize];
                let addr = prev.wrapping_add(delta as u64);
                *prev = addr;
                let kind = if packed & 1 == 1 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let len = packed >> 1;
                return self.emit(SessionEvent::Access {
                    core,
                    ip,
                    addr,
                    len,
                    kind,
                });
            }
            if want == 0 {
                if self.produced != self.expected {
                    return Err(TraceError::Corrupt(format!(
                        "stream decoded to {} events but the header declared {}",
                        self.produced, self.expected
                    )));
                }
                return Ok(None);
            }
            let ev = match w.byte()? {
                OP_ACCESS_RUN => {
                    let core = core_id(w.varint()?)?;
                    let ip = fn_id(w.varint()?)?;
                    let count = w.varint()?;
                    self.reader.consume(w.pos);
                    // Once a run, not once an item: every item runs in this `ip`.
                    self.check_ip(ip)?;
                    // Each item is at least two bytes; reject counts the remaining
                    // region cannot possibly satisfy.
                    if count > self.remaining_region().div_ceil(2).max(1) {
                        return Err(TraceError::Corrupt(format!(
                            "access run of {count} items exceeds the remaining stream"
                        )));
                    }
                    self.run = (core, ip, count);
                    // Loop: the next step decodes the run's first item (or, for a
                    // degenerate empty run, moves on to the next opcode).
                    continue;
                }
                OP_COMPUTE => {
                    let core = core_id(w.varint()?)?;
                    let ip = fn_id(w.varint()?)?;
                    self.check_ip(ip)?;
                    SessionEvent::Compute {
                        core,
                        ip,
                        cycles: w.varint()?,
                    }
                }
                OP_ALLOC => {
                    let flags = w.byte()?;
                    SessionEvent::Alloc {
                        core: core_id(w.varint()?)?,
                        type_id: u32::try_from(w.varint()?)
                            .map_err(|_| TraceError::Corrupt("type id overflows u32".into()))?,
                        size: w.varint()?,
                        addr: w.varint()?,
                        cycle: w.varint()?,
                        hookable: flags & 1 == 1,
                    }
                }
                OP_FREE => SessionEvent::Free {
                    core: core_id(w.varint()?)?,
                    addr: w.varint()?,
                    cycle: w.varint()?,
                },
                OP_ROUND_END => SessionEvent::RoundEnd,
                other => {
                    return Err(TraceError::Corrupt(format!(
                        "unknown event opcode {other:#04x} at byte {}",
                        self.reader.offset
                    )))
                }
            };
            self.reader.consume(w.pos);
            return self.emit(ev);
        }
    }

    /// Counts the event and validates it against the declared machine — core in
    /// range, sane access and allocation extents, a registered type — so a
    /// decodable-but-invalid trace is rejected here instead of panicking or hanging
    /// mid-replay.
    #[inline(always)]
    fn emit(&mut self, ev: SessionEvent) -> Result<Option<SessionEvent>, TraceError> {
        let i = self.produced;
        self.produced += 1;
        if self.produced > self.expected {
            return Err(TraceError::Corrupt(format!(
                "stream decoded more events than the {} the header declared",
                self.expected
            )));
        }
        let (core, extent) = match ev {
            SessionEvent::Access {
                core, addr, len, ..
            } => (core, Some((addr, len))),
            SessionEvent::Alloc {
                core,
                addr,
                size,
                type_id,
                ..
            } => {
                if type_id as usize >= self.types {
                    return Err(unregistered_type(i, type_id, self.types));
                }
                // Nothing longer can be accessed in one event, and the address index
                // looks back `size / 4096` pages for an object's base.
                if size > MAX_ACCESS_LEN || addr.checked_add(size).is_none() {
                    return Err(TraceError::Corrupt(format!(
                        "event {i} allocates {size} bytes at {addr:#x} (at most \
                         {MAX_ACCESS_LEN}, and inside the address space)"
                    )));
                }
                (core, None)
            }
            SessionEvent::Compute { core, .. } | SessionEvent::Free { core, .. } => (core, None),
            SessionEvent::RoundEnd => return Ok(Some(ev)),
        };
        if core as usize >= self.cores {
            return Err(TraceError::Corrupt(format!(
                "event {i} targets core {core} but the machine has {} cores",
                self.cores
            )));
        }
        if let Some((addr, len)) = extent {
            if len == 0 || len > MAX_ACCESS_LEN {
                return Err(TraceError::Corrupt(format!(
                    "event {i} has access length {len} (must be 1..={MAX_ACCESS_LEN})"
                )));
            }
            if addr.checked_add(len).is_none() {
                return Err(TraceError::Corrupt(format!(
                    "event {i} wraps the address space ({addr:#x} + {len})"
                )));
            }
        }
        Ok(Some(ev))
    }

    /// Holds an `ip` to the stream's symbol table, which names every function the
    /// replayed machine will be asked to count ([`FunctionId::UNKNOWN`] names none, and
    /// the machine counts it apart).  The event is the next one produced.
    #[inline]
    fn check_ip(&self, ip: FunctionId) -> Result<(), TraceError> {
        if ip.0 as usize >= self.symbols && ip != FunctionId::UNKNOWN {
            return Err(uninterned_function(self.produced, ip, self.symbols));
        }
        Ok(())
    }
}

#[cold]
fn uninterned_function(event: usize, ip: FunctionId, symbols: usize) -> TraceError {
    TraceError::Corrupt(format!(
        "event {event} runs in function {} but the stream interns {symbols} symbols",
        ip.0
    ))
}

#[cold]
fn unregistered_type(event: usize, type_id: u32, types: usize) -> TraceError {
    TraceError::Corrupt(format!(
        "event {event} allocates type {type_id} but the stream registers {types} types"
    ))
}

/// The bytes one decode step reads from, with a local cursor: the step's bytes are
/// consumed from the [`ChunkedReader`] once, when it has decoded.
struct Window<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Window<'_> {
    #[inline]
    fn byte(&mut self) -> Result<u8, TraceError> {
        let b = *self.bytes.get(self.pos).ok_or_else(past_region)?;
        self.pos += 1;
        Ok(b)
    }

    #[inline(always)]
    fn varint(&mut self) -> Result<u64, TraceError> {
        varint(self.bytes, &mut self.pos).map_err(|e| match e {
            VarintError::Eof => past_region(),
            e => e.into(),
        })
    }
}

/// A window holds a whole step unless the region ends first, so running out of window
/// is running out of region: the declared byte length cuts an event short.
#[cold]
fn past_region() -> TraceError {
    TraceError::Corrupt("event data runs past the stream's declared byte length".into())
}

/// Bounding core ids as they are read keeps a crafted varint from indexing past the
/// per-core delta table.
#[inline]
fn core_id(core: u64) -> Result<u32, TraceError> {
    if core >= sim_cache::MAX_CORES as u64 {
        return Err(TraceError::Corrupt(format!(
            "core id {core} exceeds the {}-core maximum",
            sim_cache::MAX_CORES
        )));
    }
    Ok(core as u32)
}

#[inline]
fn fn_id(id: u64) -> Result<FunctionId, TraceError> {
    u32::try_from(id)
        .map(FunctionId)
        .map_err(|_| TraceError::Corrupt("function id overflows u32".into()))
}

impl Iterator for EventReader {
    type Item = Result<SessionEvent, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let item = self.next_inner().transpose();
        self.done = !matches!(item, Some(Ok(_)));
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::tests_support::{
        decoded, read_bytes, sample_file, sample_stream, with_event_region,
    };
    use crate::format::TraceFile;

    fn temp_path(name: &str) -> String {
        let dir = std::env::temp_dir().join("dprof-stream-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    /// A synthetic full-session trace with enough events to span many chunks.
    fn big_file(events_per_stream: usize, streams: usize) -> TraceFile {
        use sim_machine::SessionEvent as E;
        let mut file = sample_file();
        file.streams.clear();
        for t in 0..streams {
            let mut events = Vec::with_capacity(events_per_stream);
            let mut x = 0x9e3779b97f4a7c15u64.wrapping_mul(t as u64 + 1) | 1;
            for i in 0..events_per_stream {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                events.push(match x % 10 {
                    0 => E::RoundEnd,
                    1 => E::Compute {
                        core: (x % 2) as u32,
                        ip: FunctionId((x % 2) as u32),
                        cycles: x % 1000,
                    },
                    2 => E::Alloc {
                        core: (x % 2) as u32,
                        type_id: 0,
                        size: 64,
                        addr: 0x5000_0000 + i as u64 * 64,
                        cycle: i as u64,
                        hookable: x.is_multiple_of(2),
                    },
                    _ => E::Access {
                        core: (x % 2) as u32,
                        ip: FunctionId((x % 2) as u32),
                        addr: 0x1000_0000 + (x % 100_000),
                        len: 1 + (x % 64),
                        kind: if x.is_multiple_of(3) {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        },
                    },
                });
            }
            let mut s = sample_stream();
            s.seed += t as u64;
            s.events = events.into();
            file.streams.push(s);
        }
        file
    }

    #[test]
    fn multi_chunk_streams_round_trip() {
        let file = big_file(20_000, 2);
        let path = temp_path("equiv.dtrace");
        file.write(&path).unwrap();
        assert!(
            std::fs::metadata(&path).unwrap().len() as usize > 2 * CHUNK_SIZE,
            "trace too small to cross a chunk boundary"
        );

        let reader = TraceReader::open(&path).unwrap();
        assert_eq!(reader.params, file.params);
        assert_eq!(reader.stream_count(), file.streams.len());
        for (i, s) in file.streams.iter().enumerate() {
            let h = &reader.headers()[i];
            assert_eq!(h.seed, s.seed);
            assert_eq!(h.requests, s.requests);
            assert_eq!(h.symbols, s.symbols);
            assert_eq!(h.types, s.types);
            assert_eq!(h.event_count, s.events.len());
            let streamed: Vec<SessionEvent> = reader
                .events(i)
                .unwrap()
                .map(|r| r.expect("event decodes"))
                .collect();
            assert_eq!(streamed, decoded(&s.events), "stream {i} events diverged");
        }
    }

    #[test]
    fn buffering_stays_bounded() {
        let file = big_file(150_000, 1);
        let path = temp_path("bounded.dtrace");
        file.write(&path).unwrap();
        let file_len = std::fs::metadata(&path).unwrap().len() as usize;
        assert!(
            file_len > 4 * CHUNK_SIZE,
            "trace too small ({file_len}B) to exercise chunking"
        );

        let reader = TraceReader::open(&path).unwrap();
        let mut events = reader.events(0).unwrap();
        let mut n = 0usize;
        for ev in &mut events {
            ev.expect("event decodes");
            n += 1;
        }
        assert_eq!(n, reader.headers()[0].event_count);
        // Bounded: a couple of chunks, not the file.  (The exact cap also guards the
        // ensure() compaction logic: a regression that stops compacting would buffer
        // the whole region and trip this.)
        assert!(
            events.peak_buffered_bytes() <= 3 * CHUNK_SIZE,
            "peak buffering {} exceeds 3 chunks ({} file bytes)",
            events.peak_buffered_bytes(),
            file_len
        );
    }

    /// A read that runs into the end of the file buffers what the file has left, not a
    /// chunk past it: an 8-byte file held two 64 KiB chunks, 131 110 bytes, before.
    #[test]
    fn a_short_file_is_buffered_to_its_end_and_no_further() {
        let path = temp_path("eight-bytes.dtrace");
        std::fs::write(&path, b"DPROFTRC").unwrap();
        let mut r = ChunkedReader::open(&path).unwrap();
        assert!(matches!(r.ensure(10), Err(TraceError::UnexpectedEof)));
        assert_eq!((r.peak, r.buf.capacity()), (8, 8));
        assert!(matches!(
            TraceReader::open(&path),
            Err(TraceError::BadMagic)
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn truncated_event_region_is_rejected() {
        let file = big_file(5_000, 1);
        let path = temp_path("trunc.dtrace");
        let bytes = file.encode();
        // Cut into the last stream's event bytes.
        std::fs::write(&path, &bytes[..bytes.len() - 100]).unwrap();
        assert!(
            TraceReader::open(&path).is_err(),
            "truncated event region must be rejected at open"
        );
    }

    #[test]
    fn corrupt_opcode_is_rejected_lazily() {
        let mut file = big_file(1_000, 1);
        // Force the last event (and therefore the file's last byte) to be a RoundEnd
        // opcode, so the clobber below is guaranteed to hit an opcode position.
        let mut events = decoded(&file.streams[0].events);
        events.push(SessionEvent::RoundEnd);
        file.streams[0].events = events.into();
        let path = temp_path("corrupt.dtrace");
        let mut bytes = file.encode();
        let len = bytes.len();
        bytes[len - 1] = 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let reader = TraceReader::open(&path).unwrap();
        let result: Result<Vec<_>, _> = reader.events(0).unwrap().collect();
        assert!(result.is_err(), "corrupt event bytes must surface an error");
    }

    /// One stream of the sample file holding exactly `events`, through the decoder.
    fn decode(events: Vec<SessionEvent>) -> Result<Vec<SessionEvent>, TraceError> {
        let mut file = sample_file();
        file.streams[0].events = events.into();
        Ok(decoded(&read_bytes(&file.encode())?.streams[0].events))
    }

    fn access(core: u32, addr: u64, len: u64, kind: AccessKind) -> SessionEvent {
        SessionEvent::Access {
            core,
            ip: FunctionId(1),
            addr,
            len,
            kind,
        }
    }

    #[test]
    fn access_runs_round_trip() {
        let events = vec![
            access(0, 0x1000, 8, AccessKind::Read),
            access(0, 0x1008, 8, AccessKind::Write),
            access(1, 0x1000, 64, AccessKind::Read),
            SessionEvent::RoundEnd,
            SessionEvent::Compute {
                core: 1,
                ip: FunctionId(1),
                cycles: 1_500,
            },
        ];
        assert_eq!(decode(events.clone()).unwrap(), events);
    }

    #[test]
    fn truncated_event_bytes_are_an_error() {
        let bytes = crate::codec::encode_events(&[SessionEvent::Alloc {
            core: 1,
            type_id: 0,
            size: 256,
            addr: 0x0001_0000_4000,
            cycle: 12_345,
            hookable: true,
        }]);
        assert_eq!(
            read_bytes(&with_event_region(1, bytes.len() as u64, &bytes))
                .unwrap()
                .streams[0]
                .events
                .len(),
            1
        );
        for cut in 1..bytes.len() {
            // An honest byte length over a cut event: the event runs past the region.
            assert!(
                read_bytes(&with_event_region(1, cut as u64, &bytes[..cut])).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn wrong_declared_count_is_an_error() {
        let bytes = crate::codec::encode_events(&[SessionEvent::RoundEnd, SessionEvent::RoundEnd]);
        for lie in [1, 3] {
            assert!(matches!(
                read_bytes(&with_event_region(lie, bytes.len() as u64, &bytes)),
                Err(TraceError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn unknown_opcode_is_an_error() {
        assert!(matches!(
            read_bytes(&with_event_region(0, 1, &[0xff])),
            Err(TraceError::Corrupt(m)) if m.contains("opcode")
        ));
    }

    #[test]
    fn out_of_range_cores_are_rejected() {
        // The sample machine has two cores.
        let compute = |core| SessionEvent::Compute {
            core,
            ip: FunctionId(0),
            cycles: 1,
        };
        assert!(decode(vec![compute(1)]).is_ok());
        assert!(matches!(
            decode(vec![compute(2)]),
            Err(TraceError::Corrupt(m)) if m.contains("targets core 2")
        ));
        // A core id no machine can have is refused before it sizes any table
        // (hand-encoded: `access-run core=2^32-1 ip=0 count=1 delta=0 len=8`).
        let mut run = vec![OP_ACCESS_RUN];
        crate::codec::put_varint(&mut run, u64::from(u32::MAX));
        run.extend_from_slice(&[0, 1, 0, 16]);
        assert!(matches!(
            read_bytes(&with_event_region(1, run.len() as u64, &run)),
            Err(TraceError::Corrupt(m)) if m.contains("exceeds")
        ));
    }

    /// A function id is held to the stream's symbol table (the sample stream interns
    /// two) once per access run and once per compute event; `FunctionId::UNKNOWN`
    /// names no symbol and always passes.
    #[test]
    fn function_ids_past_the_symbol_table_are_rejected() {
        // `access-run core=0 ip=IP count=1 delta=0 len=8`, then `compute core=0 ip=IP
        // cycles=1`.
        let events = |ip: u64| {
            let mut run = vec![OP_ACCESS_RUN, 0];
            crate::codec::put_varint(&mut run, ip);
            run.extend_from_slice(&[1, 0, 16]);
            let mut compute = vec![OP_COMPUTE, 0];
            crate::codec::put_varint(&mut compute, ip);
            compute.push(1);
            [run, compute]
        };
        for ip in [1, u64::from(FunctionId::UNKNOWN.0)] {
            for bytes in events(ip) {
                assert!(read_bytes(&with_event_region(1, bytes.len() as u64, &bytes)).is_ok());
            }
        }
        for ip in [2, 1 << 20] {
            for bytes in events(ip) {
                assert!(matches!(
                    read_bytes(&with_event_region(1, bytes.len() as u64, &bytes)),
                    Err(TraceError::Corrupt(m))
                        if m == format!("event 0 runs in function {ip} but the stream interns 2 symbols")
                ));
            }
        }
    }

    /// A type id is held to the stream's type table (the sample stream registers one).
    #[test]
    fn type_ids_past_the_type_table_are_rejected() {
        // `alloc hookable core=0 type=TYPE size=64 addr=0x1000 cycle=9`.
        let alloc = |type_id: u64| {
            let mut bytes = vec![OP_ALLOC, 1, 0];
            for v in [type_id, 64, 0x1000, 9] {
                crate::codec::put_varint(&mut bytes, v);
            }
            bytes
        };
        let ok = alloc(0);
        assert!(read_bytes(&with_event_region(1, ok.len() as u64, &ok)).is_ok());
        for type_id in [1, u64::from(u32::MAX)] {
            let bytes = alloc(type_id);
            assert!(matches!(
                read_bytes(&with_event_region(1, bytes.len() as u64, &bytes)),
                Err(TraceError::Corrupt(m))
                    if m == format!("event 0 allocates type {type_id} but the stream registers 1 types")
            ));
        }
    }

    #[test]
    fn zero_oversized_and_wrapping_access_extents_are_rejected() {
        assert!(decode(vec![access(0, 0x1000, MAX_ACCESS_LEN, AccessKind::Read)]).is_ok());
        for (addr, len, why) in [
            (0x1000, 0, "access length 0"),
            (0x1000, MAX_ACCESS_LEN + 1, "access length"),
            (u64::MAX - 3, 8, "wraps the address space"),
        ] {
            assert!(
                matches!(
                    decode(vec![access(0, addr, len, AccessKind::Write)]),
                    Err(TraceError::Corrupt(m)) if m.contains(why)
                ),
                "access of {len} bytes at {addr:#x} must be rejected"
            );
        }
    }

    #[test]
    fn oversized_and_wrapping_allocation_extents_are_rejected() {
        let alloc = |size, addr| SessionEvent::Alloc {
            core: 0,
            type_id: 0,
            size,
            addr,
            cycle: 1,
            hookable: true,
        };
        assert!(decode(vec![alloc(0, u64::MAX), alloc(MAX_ACCESS_LEN, 0x1000)]).is_ok());
        assert!(decode(vec![alloc(MAX_ACCESS_LEN, u64::MAX - MAX_ACCESS_LEN)]).is_ok());
        for (size, addr) in [
            (MAX_ACCESS_LEN + 1, 0x1000),
            (u64::MAX, 0x1000),
            (8, u64::MAX - 3),
        ] {
            // The message alone says which event, how much, and where.
            let message = format!("event 1 allocates {size} bytes at {addr:#x}");
            assert!(
                matches!(
                    decode(vec![SessionEvent::RoundEnd, alloc(size, addr)]),
                    Err(TraceError::Corrupt(m)) if m.contains(&message)
                ),
                "an allocation of {size} bytes at {addr:#x} must be rejected"
            );
        }
    }

    #[test]
    fn hostile_byte_len_is_an_error_not_a_panic() {
        // A declared event-region length is a seek target; none of these fit in the
        // file, and the largest overflow `offset + byte_len`.
        for byte_len in [u64::MAX, u64::MAX - 40, (1 << 63) + 5, 1 << 62] {
            assert_eq!(
                read_bytes(&with_event_region(0, byte_len, &[])).unwrap_err(),
                TraceError::UnexpectedEof,
                "byte_len {byte_len:#x}"
            );
        }
        // Not only the last stream's length is checked: a lying first stream must not
        // be trusted as a seek target either.
        let mut file = sample_file();
        file.streams.insert(0, sample_stream());
        file.streams[0].events = Default::default();
        let bytes = file.encode();
        let counts = with_event_region(0, 0, &[]).len() - 2; // stream 0's `0 0`
        let mut lying = bytes[..counts + 1].to_vec();
        crate::codec::put_varint(&mut lying, 1 << 62);
        lying.extend_from_slice(&bytes[counts + 2..]);
        assert_eq!(
            read_bytes(&lying).unwrap_err(),
            TraceError::UnexpectedEof,
            "a lying length in a non-final stream"
        );
    }

    #[test]
    fn short_first_region_is_corrupt_and_never_reads_the_next_stream() {
        // Two streams.  The first ends with an event whose last byte the declared
        // region cuts off; the byte that follows in the file is the second stream's
        // seed, chosen so that it would complete the event if the decoder took it.
        let mut file = sample_file();
        file.streams.push(sample_stream());
        let first = vec![
            SessionEvent::RoundEnd,
            access(0, 0x1000, 8, AccessKind::Read),
            SessionEvent::Compute {
                core: 1,
                ip: FunctionId(1),
                cycles: 1_500,
            },
        ];
        file.streams[0].events = first.clone().into();
        file.streams[1].seed = 5;
        let honest = file.encode();
        let path = temp_path("short-region.dtrace");
        std::fs::write(&path, &honest).unwrap();
        let h = TraceReader::open(&path).unwrap().headers()[0].clone();
        let (start, len) = (h.events_offset as usize, h.byte_len as usize);
        assert!(len < 0x80, "the length must stay a one-byte varint");
        assert_eq!(honest[start - 1], len as u8);
        assert_eq!(
            honest[start + len],
            5,
            "the second stream starts with its seed"
        );

        let mut cut = honest[..start - 1].to_vec();
        cut.push(len as u8 - 1);
        cut.extend_from_slice(&honest[start..start + len - 1]);
        cut.extend_from_slice(&honest[start + len..]);
        std::fs::write(&path, &cut).unwrap();
        let reader = TraceReader::open(&path).unwrap();
        let mut events = reader.events(0).unwrap();
        assert_eq!(events.next(), Some(Ok(first[0])));
        assert_eq!(events.next(), Some(Ok(first[1])));
        assert!(matches!(
            events.next(),
            Some(Err(TraceError::Corrupt(m))) if m.contains("declared byte length")
        ));
        assert_eq!(events.next(), None, "fused after the error");
        // The second stream is intact.
        let second: Result<Vec<_>, _> = reader.events(1).unwrap().collect();
        assert_eq!(second.unwrap(), decoded(&file.streams[1].events));
    }

    #[test]
    fn events_starting_around_a_chunk_boundary_round_trip() {
        // One-byte events pad the region so that the widest event a one-type stream
        // holds starts at every offset from 64 bytes before the decoder's first refill
        // to the refill itself.
        let path = temp_path("boundary.dtrace");
        for start in CHUNK_SIZE - 64..=CHUNK_SIZE {
            let mut events = vec![SessionEvent::RoundEnd; start];
            events.extend([
                SessionEvent::Alloc {
                    core: 1,
                    type_id: 0,
                    size: MAX_ACCESS_LEN,
                    addr: u64::MAX - MAX_ACCESS_LEN,
                    cycle: u64::MAX,
                    hookable: true,
                },
                access(
                    1,
                    u64::MAX - MAX_ACCESS_LEN,
                    MAX_ACCESS_LEN,
                    AccessKind::Write,
                ),
                access(1, 0x1000, 1, AccessKind::Read),
                SessionEvent::Free {
                    core: 0,
                    addr: u64::MAX,
                    cycle: u64::MAX,
                },
            ]);
            let mut file = sample_file();
            file.streams[0].events = events.clone().into();
            file.write(&path).unwrap();
            let reader = TraceReader::open(&path).unwrap();
            let mut decoded = reader.events(0).unwrap();
            let back: Result<Vec<_>, _> = decoded.by_ref().collect();
            assert_eq!(back.unwrap()[start..], events[start..], "start {start}");
            assert!(decoded.peak_buffered_bytes() <= 2 * CHUNK_SIZE);
        }
    }

    #[test]
    fn truncation_anywhere_in_the_tail_is_an_error() {
        let file = big_file(2_000, 2);
        let bytes = file.encode();
        for cut in 1..=256 {
            assert!(
                read_bytes(&bytes[..bytes.len() - cut]).is_err(),
                "a file {cut} bytes short must not decode"
            );
        }
        // Cut after `open` has checked the lengths: the decoder runs into the end of
        // the file inside the declared region.
        let path = temp_path("cut-after-open.dtrace");
        for cut in [1, 7, 52, 53, 256] {
            std::fs::write(&path, &bytes).unwrap();
            let reader = TraceReader::open(&path).unwrap();
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len((bytes.len() - cut) as u64).unwrap();
            let result: Result<Vec<_>, _> = reader.events(1).unwrap().collect();
            assert_eq!(result.unwrap_err(), TraceError::UnexpectedEof, "cut {cut}");
        }
    }

    #[test]
    fn the_longest_decodable_event_fits_one_window() {
        // Every varint of an `alloc` padded to ten bytes (`0x80 x 9, 0x00` is a
        // non-canonical zero): exactly `MAX_EVENT_BYTES`, and it decodes.
        let mut bytes = vec![OP_ALLOC, 1];
        for _ in 0..5 {
            bytes.extend_from_slice(&[0x80; 9]);
            bytes.push(0);
        }
        assert_eq!(bytes.len(), MAX_EVENT_BYTES);
        let back = read_bytes(&with_event_region(1, bytes.len() as u64, &bytes)).unwrap();
        assert_eq!(
            decoded(&back.streams[0].events),
            [SessionEvent::Alloc {
                core: 0,
                type_id: 0,
                size: 0,
                addr: 0,
                cycle: 0,
                hookable: true,
            }]
        );
        // An eleventh byte is refused, not read.
        bytes[11] = 0x80;
        assert!(matches!(
            read_bytes(&with_event_region(1, bytes.len() as u64, &bytes)),
            Err(TraceError::Corrupt(m)) if m.contains("varint")
        ));
    }
}
