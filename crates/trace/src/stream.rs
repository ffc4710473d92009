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
//! * [`TraceReader::events`] returns an [`EventReader`], which decodes a batch of
//!   events at a time ([`EventReader::next_batch`]: at most [`BATCH_EVENTS`], ending
//!   after a round end) from its own file handle, in one loop over the buffered bytes.
//!   The loop runs one decode step after another — the grammar and every check an
//!   event is held to, for run headers, run items, computes, allocs, frees and round
//!   ends alike — with the cursor, the current access run and the event count in
//!   locals, written back once when the batch is full.  An event is at most
//!   [`MAX_EVENT_BYTES`] long, so a step starts only where that many bytes are
//!   buffered or the rest of the stream's declared region is: no refill, and no look
//!   at the next stream's bytes, mid-event.  The reader refills when fewer bytes are
//!   left, reading at most a [`CHUNK_SIZE`] chunk and never past the region, so it
//!   holds one chunk and one batch however long the stream is —
//!   [`EventReader::peak_buffered_bytes`] reports the high water mark and a regression
//!   test pins it.  The [`Iterator`] over an [`EventReader`] hands the same batches out
//!   an event at a time.
//!
//! Every event is validated against the declared machine as it is decoded (core in
//! range, sane access extents) and against its stream's prologue (every function id
//! interned, every type id registered), and the total event count and byte length are verified
//! against the stream header at end of iteration, so a corrupt or truncated trace is
//! rejected with an error instead of panicking or hanging mid-replay — lazily, when
//! the damage is reached, and after every event before it has been handed out.  Each
//! [`EventReader`] owns an independent file handle, so per-stream readers can run on
//! parallel replay threads.
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

/// A chunked, forward-only reader: keeps at most a couple of chunks buffered (an event
/// reader one chunk and an event), compacts consumed bytes away, and tracks the
/// buffering high-water mark.
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

    /// Moves the unconsumed bytes to the front and reads up to a chunk behind them,
    /// never past absolute offset `limit`.  A read of nothing is the end of the file.
    fn refill(&mut self, limit: u64) -> Result<(), TraceError> {
        self.buf.drain(..self.start);
        self.start = 0;
        let old_len = self.buf.len();
        let unread = limit - (self.offset + old_len as u64);
        let want = CHUNK_SIZE.min(usize::try_from(unread).unwrap_or(usize::MAX));
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

/// Most events one [`EventReader::next_batch`] hands out: 10 KiB of [`SessionEvent`]s,
/// allocated once per reader and refilled in place for the whole pass.
pub const BATCH_EVENTS: usize = 256;

/// Incremental decoder over one stream's event region, a batch at a time: validated
/// [`SessionEvent`]s with bounded buffering.  [`EventReader::next_batch`] is the decode
/// loop; the [`Iterator`] hands the same batches out an event at a time.  Fused — after
/// the first error, every batch is empty and the iterator yields `None` forever.
#[derive(Debug)]
pub struct EventReader {
    reader: ChunkedReader,
    /// Absolute offset one past the event region.
    region_end: u64,
    limits: Limits,
    codec: CodecState,
    /// The batch the decode loop fills: [`BATCH_EVENTS`] slots, the first `len` of
    /// them decoded, the first `taken` of those handed out.
    batch: Box<[SessionEvent]>,
    len: usize,
    taken: usize,
    /// An error met after some events of a batch, returned once they are handed out.
    parked: Option<TraceError>,
    done: bool,
}

/// What every event is held to: the stream header's event count, the declared
/// machine's core count, and the sizes of the stream's symbol and type tables.
#[derive(Debug, Clone, Copy)]
struct Limits {
    expected: usize,
    cores: usize,
    symbols: usize,
    types: usize,
}

/// What one decode step hands the next: the encoder's state on the way back.
#[derive(Debug)]
struct CodecState {
    /// Events decoded so far; the next one's ordinal.
    produced: usize,
    /// The per-core previous-address delta table (core ids are bounded as they are
    /// read, so it never grows).
    prev_addr: [u64; sim_cache::MAX_CORES],
    /// Current access run: `(core, ip, items remaining)`; none in progress at 0.
    run: (u32, FunctionId, u64),
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
    fn new(mut reader: ChunkedReader, header: &StreamHeader, cores: usize) -> Self {
        // A refill keeps fewer than `MAX_EVENT_BYTES` and reads a chunk behind them,
        // never past the region: the buffer never outgrows this.
        let most = (CHUNK_SIZE + MAX_EVENT_BYTES) as u64;
        reader.buf = Vec::with_capacity(header.byte_len.min(most) as usize);
        EventReader {
            region_end: reader.offset + header.byte_len,
            reader,
            limits: Limits {
                expected: header.event_count,
                cores,
                symbols: header.symbols.len(),
                types: header.types.len(),
            },
            codec: CodecState {
                produced: 0,
                prev_addr: [0; sim_cache::MAX_CORES],
                run: (0, FunctionId(0), 0),
            },
            batch: vec![SessionEvent::RoundEnd; BATCH_EVENTS].into_boxed_slice(),
            len: 0,
            taken: 0,
            parked: None,
            done: false,
        }
    }

    /// Largest number of bytes this reader ever held buffered at once — the decoder's
    /// memory footprint, which stays a small constant regardless of trace size.
    pub fn peak_buffered_bytes(&self) -> usize {
        self.reader.peak
    }

    /// The next events of the stream, in order: at most [`BATCH_EVENTS`], ending after
    /// a [`SessionEvent::RoundEnd`] if they reach one, and empty at the stream's end.
    /// An error found after some events of a batch is returned by the next call, so
    /// the events before it are handed out first.  The events the iterator has not yet
    /// handed out of the current batch come first.
    pub fn next_batch(&mut self) -> Result<&[SessionEvent], TraceError> {
        if self.taken == self.len {
            (self.len, self.taken) = (0, 0);
            self.len = self.fill()?;
        }
        let start = std::mem::replace(&mut self.taken, self.len);
        Ok(&self.batch[start..self.len])
    }

    /// Decodes the next batch into `self.batch` and returns its length.
    fn fill(&mut self) -> Result<usize, TraceError> {
        if let Some(e) = self.parked.take() {
            return Err(e);
        }
        if self.done {
            return Ok(0);
        }
        let mut n = 0;
        let outcome = loop {
            let region_left = self.region_end - self.reader.offset;
            let buffered = self.reader.available();
            // Fewer bytes than the longest event, and the region goes on: read more.
            if buffered < MAX_EVENT_BYTES && (buffered as u64) < region_left {
                if let Err(e) = self.reader.refill(self.region_end) {
                    break Err(e);
                }
                continue;
            }
            let steps = decode(
                &mut self.codec,
                self.limits,
                Bytes {
                    bytes: &self.reader.buf[self.reader.start..],
                    offset: self.reader.offset,
                    region_left,
                },
                &mut self.batch,
                n,
            );
            self.reader.consume(steps.pos);
            n = steps.n;
            match steps.stop {
                Ok(Stop::Batch) => break Ok(()),
                // Every byte of the region decoded: the count is checked once, here.
                Ok(Stop::Bytes) if buffered as u64 == region_left => {
                    let (produced, expected) = (self.codec.produced, self.limits.expected);
                    self.done = true;
                    break if produced == expected {
                        Ok(())
                    } else {
                        Err(TraceError::Corrupt(format!(
                            "stream decoded to {produced} events but the header declared \
                             {expected}"
                        )))
                    };
                }
                Ok(Stop::Bytes) => {}
                Err(e) => break Err(e),
            }
        };
        match outcome {
            Ok(()) => Ok(n),
            Err(e) => {
                self.done = true;
                if n == 0 {
                    return Err(e);
                }
                self.parked = Some(e);
                Ok(n)
            }
        }
    }
}

/// The buffered, unconsumed bytes of a region: all of them belong to it.
struct Bytes<'a> {
    bytes: &'a [u8],
    /// Absolute file offset of `bytes[0]`.
    offset: u64,
    /// Bytes of the region from `bytes[0]` on, buffered or not.
    region_left: u64,
}

/// Why a run of decode steps stopped.
enum Stop {
    /// The batch is full, or ends with a round end.
    Batch,
    /// Fewer bytes are left than the longest event, and the region goes on; or every
    /// byte of the region decoded.
    Bytes,
}

/// Where a run of decode steps stopped: bytes consumed, the batch's length, and why.
struct Steps {
    pos: usize,
    n: usize,
    stop: Result<Stop, TraceError>,
}

/// The decode loop: [`step`] after step over `b`, each event into `batch[n..]`, until
/// the batch is full or ends with a round end, or the bytes run short of an event.
/// The cursor, the run, the event count and the batch length live in locals; the
/// codec state is written back once, when the loop stops.
fn decode(
    codec: &mut CodecState,
    limits: Limits,
    b: Bytes<'_>,
    batch: &mut [SessionEvent],
    mut n: usize,
) -> Steps {
    // A step may start wherever the longest event fits the bytes, or anywhere if the
    // bytes run to the region's end: no step looks past either.
    let whole = b.bytes.len() as u64 == b.region_left;
    let limit = if whole {
        b.bytes.len()
    } else {
        (b.bytes.len() + 1).saturating_sub(MAX_EVENT_BYTES)
    };
    let mut pos = 0;
    let mut run = codec.run;
    let mut produced = codec.produced;
    let stop = loop {
        if pos >= limit {
            // At the region's end, a run still owed items is cut short.
            break if whole && run.2 > 0 {
                Err(past_region())
            } else {
                Ok(Stop::Bytes)
            };
        }
        match step(
            &b,
            &mut pos,
            &mut run,
            &mut codec.prev_addr,
            &mut produced,
            &limits,
            &mut batch[n],
        ) {
            Ok(Decoded::Event) => {
                n += 1;
                if n == batch.len() {
                    break Ok(Stop::Batch);
                }
            }
            Ok(Decoded::RoundEnd) => {
                n += 1;
                break Ok(Stop::Batch);
            }
            Ok(Decoded::RunHeader) => {}
            Err(e) => break Err(e),
        }
    };
    codec.run = run;
    codec.produced = produced;
    Steps { pos, n, stop }
}

/// One decode step: the grammar of [`crate::codec`] and every check an event is held
/// to, over the bytes from `*pos`.  It decodes an event — an access-run item, a
/// compute, an alloc, a free or a round end — into `slot`, or an access-run header,
/// which opens the run the next steps read.  Its validation, in order: core ids
/// below `MAX_CORES` and function and type ids within `u32` as they are read, the
/// function id against the symbol table, the event count against the header, the
/// type id against the type table, an allocation's extent, the core against the
/// machine, an access's extent.  `*pos` moves past a step that decodes.
#[inline(always)]
fn step(
    b: &Bytes<'_>,
    pos: &mut usize,
    run: &mut (u32, FunctionId, u64),
    prev_addr: &mut [u64; sim_cache::MAX_CORES],
    produced: &mut usize,
    limits: &Limits,
    slot: &mut SessionEvent,
) -> Result<Decoded, TraceError> {
    let mut w = Window {
        bytes: b.bytes,
        pos: *pos,
    };
    let (core, ip, left) = *run;
    if left > 0 {
        let delta = unzigzag(w.varint()?);
        let packed = w.varint()?;
        *pos = w.pos;
        run.2 = left - 1;
        let prev = &mut prev_addr[core as usize];
        let addr = prev.wrapping_add(delta as u64);
        *prev = addr;
        let i = count(produced, limits)?;
        let len = packed >> 1;
        check_core(i, core, limits)?;
        if len.wrapping_sub(1) >= MAX_ACCESS_LEN || addr.checked_add(len).is_none() {
            return Err(bad_access(i, addr, len));
        }
        let kind = if packed & 1 == 1 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        *slot = SessionEvent::Access {
            core,
            ip,
            addr,
            len,
            kind,
        };
        return Ok(Decoded::Event);
    }
    let ev = match w.byte()? {
        OP_ACCESS_RUN => {
            let core = core_id(w.varint()?)?;
            let ip = fn_id(w.varint()?)?;
            let count = w.varint()?;
            *pos = w.pos;
            // Once a run, not once an item: every item runs in this `ip`.
            check_ip(*produced, ip, limits)?;
            // Each item is at least two bytes; reject counts the remaining region
            // cannot possibly satisfy.
            let remaining = b.region_left - *pos as u64;
            if count > remaining.div_ceil(2).max(1) {
                return Err(run_too_long(count));
            }
            *run = (core, ip, count);
            return Ok(Decoded::RunHeader);
        }
        OP_COMPUTE => {
            let core = core_id(w.varint()?)?;
            let ip = fn_id(w.varint()?)?;
            check_ip(*produced, ip, limits)?;
            let cycles = w.varint()?;
            let i = count(produced, limits)?;
            check_core(i, core, limits)?;
            SessionEvent::Compute { core, ip, cycles }
        }
        OP_ALLOC => {
            let hookable = w.byte()? & 1 == 1;
            let core = core_id(w.varint()?)?;
            let type_id = u32::try_from(w.varint()?).map_err(|_| type_id_overflow())?;
            let (size, addr, cycle) = (w.varint()?, w.varint()?, w.varint()?);
            let i = count(produced, limits)?;
            if type_id as usize >= limits.types {
                return Err(unregistered_type(i, type_id, limits.types));
            }
            // Nothing longer can be accessed in one event, and the address index looks
            // back `size / 4096` pages for an object's base.
            if size > MAX_ACCESS_LEN || addr.checked_add(size).is_none() {
                return Err(bad_alloc(i, size, addr));
            }
            check_core(i, core, limits)?;
            SessionEvent::Alloc {
                core,
                type_id,
                size,
                addr,
                cycle,
                hookable,
            }
        }
        OP_FREE => {
            let core = core_id(w.varint()?)?;
            let (addr, cycle) = (w.varint()?, w.varint()?);
            let i = count(produced, limits)?;
            check_core(i, core, limits)?;
            SessionEvent::Free { core, addr, cycle }
        }
        OP_ROUND_END => {
            count(produced, limits)?;
            *pos = w.pos;
            *slot = SessionEvent::RoundEnd;
            return Ok(Decoded::RoundEnd);
        }
        other => return Err(unknown_opcode(other, b.offset + *pos as u64)),
    };
    *pos = w.pos;
    *slot = ev;
    Ok(Decoded::Event)
}

/// What a step decoded.
enum Decoded {
    /// An event other than a round end, now in the slot.
    Event,
    /// A round end, now in the slot: the batch ends with it.
    RoundEnd,
    /// An access-run header, which fills no slot.
    RunHeader,
}

/// Counts an event and returns its ordinal, refusing one past the header's count.
#[inline(always)]
fn count(produced: &mut usize, limits: &Limits) -> Result<usize, TraceError> {
    let i = *produced;
    *produced += 1;
    if *produced > limits.expected {
        return Err(more_than_declared(limits.expected));
    }
    Ok(i)
}

/// Holds an event's core to the declared machine.
#[inline(always)]
fn check_core(event: usize, core: u32, limits: &Limits) -> Result<(), TraceError> {
    if core as usize >= limits.cores {
        return Err(core_past_machine(event, core, limits.cores));
    }
    Ok(())
}

/// Holds an `ip` to the stream's symbol table, which names every function the
/// replayed machine will be asked to count ([`FunctionId::UNKNOWN`] names none, and
/// the machine counts it apart).  `event` is the next one produced.
#[inline(always)]
fn check_ip(event: usize, ip: FunctionId, limits: &Limits) -> Result<(), TraceError> {
    if ip.0 as usize >= limits.symbols && ip != FunctionId::UNKNOWN {
        return Err(uninterned_function(event, ip, limits.symbols));
    }
    Ok(())
}

// The errors a step can end in, each built in a cold function of its own, out of the
// decode loop's way: handing one `corrupt(format_args!(…))` helper the arguments in
// the step cost 0.8 ns an event on the apache benchmark session.

#[cold]
fn more_than_declared(expected: usize) -> TraceError {
    TraceError::Corrupt(format!(
        "stream decoded more events than the {expected} the header declared"
    ))
}

#[cold]
fn core_past_machine(event: usize, core: u32, cores: usize) -> TraceError {
    TraceError::Corrupt(format!(
        "event {event} targets core {core} but the machine has {cores} cores"
    ))
}

#[cold]
fn bad_access(event: usize, addr: u64, len: u64) -> TraceError {
    TraceError::Corrupt(if len == 0 || len > MAX_ACCESS_LEN {
        format!("event {event} has access length {len} (must be 1..={MAX_ACCESS_LEN})")
    } else {
        format!("event {event} wraps the address space ({addr:#x} + {len})")
    })
}

#[cold]
fn bad_alloc(event: usize, size: u64, addr: u64) -> TraceError {
    TraceError::Corrupt(format!(
        "event {event} allocates {size} bytes at {addr:#x} (at most {MAX_ACCESS_LEN}, and \
         inside the address space)"
    ))
}

#[cold]
fn run_too_long(count: u64) -> TraceError {
    TraceError::Corrupt(format!(
        "access run of {count} items exceeds the remaining stream"
    ))
}

#[cold]
fn unknown_opcode(opcode: u8, offset: u64) -> TraceError {
    TraceError::Corrupt(format!(
        "unknown event opcode {opcode:#04x} at byte {offset}"
    ))
}

#[cold]
fn type_id_overflow() -> TraceError {
    TraceError::Corrupt("type id overflows u32".into())
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
/// consumed once it has decoded.
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

/// A step's bytes hold the longest event unless the region ends first, so running out
/// of bytes is running out of region: the declared byte length cuts an event short.
#[cold]
fn past_region() -> TraceError {
    TraceError::Corrupt("event data runs past the stream's declared byte length".into())
}

/// Bounding core ids as they are read keeps a crafted varint from indexing past the
/// per-core delta table.
#[inline]
fn core_id(core: u64) -> Result<u32, TraceError> {
    if core >= sim_cache::MAX_CORES as u64 {
        return Err(core_id_too_large(core));
    }
    Ok(core as u32)
}

#[cold]
fn core_id_too_large(core: u64) -> TraceError {
    TraceError::Corrupt(format!(
        "core id {core} exceeds the {}-core maximum",
        sim_cache::MAX_CORES
    ))
}

#[inline]
fn fn_id(id: u64) -> Result<FunctionId, TraceError> {
    u32::try_from(id)
        .map(FunctionId)
        .map_err(|_| fn_id_overflow())
}

#[cold]
fn fn_id_overflow() -> TraceError {
    TraceError::Corrupt("function id overflows u32".into())
}

/// The batches an event at a time.
impl Iterator for EventReader {
    type Item = Result<SessionEvent, TraceError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.taken == self.len {
            (self.len, self.taken) = (0, 0);
            match self.fill() {
                Ok(0) => return None,
                Ok(n) => self.len = n,
                Err(e) => return Some(Err(e)),
            }
        }
        self.taken += 1;
        Some(Ok(self.batch[self.taken - 1]))
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

        // A stream whose only round is one access run of 2^20 items: the round is
        // handed out in full batches, not held whole, and the buffering stays put.
        const ITEMS: usize = 1 << 20;
        let item = |i: usize| {
            access(
                1,
                0x1000_0000 + (i as u64 * 72) % (1 << 24),
                8,
                AccessKind::Read,
            )
        };
        let mut encoder = crate::EventEncoder::new();
        for first in (0..ITEMS).step_by(4096) {
            let piece: Vec<SessionEvent> = (first..first + 4096).map(item).collect();
            encoder.extend(&piece);
        }
        encoder.push(SessionEvent::RoundEnd);
        let mut file = sample_file();
        file.streams[0].events = encoder.finish();
        let path = temp_path("one-round.dtrace");
        file.write(&path).unwrap();
        let reader = TraceReader::open(&path).unwrap();
        let mut events = reader.events(0).unwrap();
        let mut n = 0;
        loop {
            let batch = events.next_batch().expect("event decodes");
            if batch.is_empty() {
                break;
            }
            assert!(batch.len() <= BATCH_EVENTS, "a batch of {}", batch.len());
            if n + batch.len() <= ITEMS {
                assert_eq!(
                    batch.len(),
                    BATCH_EVENTS,
                    "a batch ends short of a round end"
                );
            }
            for (i, ev) in (n..).zip(batch) {
                let expected = if i < ITEMS {
                    item(i)
                } else {
                    SessionEvent::RoundEnd
                };
                assert_eq!(*ev, expected, "event {i}");
            }
            n += batch.len();
        }
        assert_eq!(n, ITEMS + 1);
        assert!(
            events.peak_buffered_bytes() <= 3 * CHUNK_SIZE,
            "peak buffering {} exceeds 3 chunks",
            events.peak_buffered_bytes()
        );
        let _ = std::fs::remove_file(path);
    }

    /// Stream 0 of `reader` walked a batch at a time: its events, and the error that
    /// ended them if one did.  Every batch holds at most `BATCH_EVENTS` events, a round
    /// end only as its last, and the reader is fused after the error.
    fn batches(reader: &TraceReader) -> (Vec<SessionEvent>, Option<TraceError>) {
        let mut events = reader.events(0).unwrap();
        let mut all = Vec::new();
        loop {
            match events.next_batch() {
                Ok([]) => return (all, None),
                Ok(batch) => {
                    assert!(batch.len() <= BATCH_EVENTS);
                    let round_end = (batch.iter()).position(|ev| *ev == SessionEvent::RoundEnd);
                    assert!(round_end.is_none_or(|k| k == batch.len() - 1));
                    all.extend_from_slice(batch);
                }
                Err(e) => {
                    assert_eq!(events.next_batch(), Ok(&[][..]), "fused after the error");
                    return (all, Some(e));
                }
            }
        }
    }

    /// A decode error wherever it falls in a batch — its first event, its middle, just
    /// before its round end, or an event cut by the end of the first read — comes after
    /// exactly the events before it, with the ordinal and message of the event that is
    /// wrong, through the batches and through the iterator alike.
    #[test]
    fn an_error_inside_a_batch_comes_after_exactly_the_events_before_it() {
        // Four-byte computes on the sample machine's two cores, a round end after every
        // 2 500th event: batches break at 1 024 events and at every round end.
        let compute = |core, cycles| SessionEvent::Compute {
            core,
            ip: FunctionId(1),
            cycles,
        };
        let events: Vec<SessionEvent> = (0..20_000u64)
            .map(|i| match i % 2_501 {
                2_500 => SessionEvent::RoundEnd,
                _ => compute((i % 2) as u32, i % 100),
            })
            .collect();
        // Where each event starts in the region.
        let starts: Vec<usize> = (events.iter())
            .scan(0, |at, ev| {
                let start = *at;
                *at += crate::codec::encode_events(&[*ev]).len();
                Some(start)
            })
            .collect();
        let cut_by_the_first_read = (0..events.len())
            .find(|&k| starts[k] < CHUNK_SIZE && starts[k] + 4 > CHUNK_SIZE)
            .expect("an event spans the end of the first read");
        let path = temp_path("error-in-a-batch.dtrace");
        let cases = [
            ("the first event", 0),
            ("the first event of a later batch", BATCH_EVENTS),
            ("the first event of a round's batch", 2_501),
            ("the middle of a batch", 1_500),
            ("the event before a round end", 2 * 2_501 - 2),
            (
                "an event across the end of the first read",
                cut_by_the_first_read,
            ),
        ];
        for (case, bad) in cases {
            // A core the machine lacks, and then an opcode the grammar lacks.
            let mut wrong = events.clone();
            wrong[bad] = compute(2, 7);
            let mut file = sample_file();
            file.streams[0].events = wrong.clone().into();
            file.write(&path).unwrap();
            let core = format!("event {bad} targets core 2 but the machine has 2 cores");
            let mut bytes = std::fs::read(&path).unwrap();
            let at = TraceReader::open(&path).unwrap().headers()[0].events_offset as usize;
            bytes[at + starts[bad]] = 0xff;
            let opcode = format!("unknown event opcode 0xff at byte {}", at + starts[bad]);
            for (bytes, message) in [(file.encode(), core), (bytes, opcode)] {
                std::fs::write(&path, &bytes).unwrap();
                let reader = TraceReader::open(&path).unwrap();
                let error = Some(TraceError::Corrupt(message));
                assert_eq!(
                    batches(&reader),
                    (events[..bad].to_vec(), error.clone()),
                    "{case}"
                );
                let mut one_at_a_time = reader.events(0).unwrap();
                let before: Vec<SessionEvent> = (one_at_a_time.by_ref())
                    .take(bad)
                    .map(|ev| ev.expect("decodes"))
                    .collect();
                assert_eq!(before, events[..bad], "{case}");
                assert_eq!(
                    one_at_a_time.next().map(Result::unwrap_err),
                    error,
                    "{case}"
                );
                assert_eq!(one_at_a_time.next(), None, "{case}: fused after the error");
            }
        }
        let _ = std::fs::remove_file(path);
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
        file.streams[0].events = events.clone().into();
        let path = temp_path("corrupt.dtrace");
        let mut bytes = file.encode();
        let len = bytes.len();
        bytes[len - 1] = 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let reader = TraceReader::open(&path).unwrap();
        let result: Result<Vec<_>, _> = reader.events(0).unwrap().collect();
        assert!(result.is_err(), "corrupt event bytes must surface an error");
        // Every event before the clobbered one is handed out first, in batches.
        let error = format!("unknown event opcode 0xff at byte {}", len - 1);
        let before = events[..events.len() - 1].to_vec();
        assert_eq!(batches(&reader), (before, Some(TraceError::Corrupt(error))));
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
