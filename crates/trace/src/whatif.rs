//! Counterfactual ("what-if") trace transforms.
//!
//! A recorded `.dtrace` stream pins down *exactly* which accesses a workload issued;
//! because the simulated machine is deterministic, replaying that stream against a
//! **hypothetical memory layout** answers the causal question behind every data-profile
//! row: *how much end-to-end time would this fix actually buy?*  This module provides
//! the pieces:
//!
//! * [`FixSpec`] — the fix grammar (`pad:<type>`, `localize:<type>`, `pin:<type>`,
//!   `shrink:<type>:<bytes>`, plus the `identity` baseline).
//! * [`Transform`] — the address-rewrite / allocator-remap layer sitting between trace
//!   decode and machine dispatch.  Rewritten objects live in a *shadow* address range
//!   bump-allocated in whole cache lines, so two distinct allocations can never alias
//!   onto one line and the mapping is deterministic (first-touch in event order).
//! * [`measure_window`] — a profiler-free measurement replay that feeds the
//!   (transformed) events of a stream's [`PackedWindow`] through a rebuilt machine +
//!   kernel and snapshots the makespan (max core clock) at every round boundary of the
//!   window the session sampled: the `sample_rounds` rounds after warmup.  The history
//!   phase recorded after them is neither decoded nor measured.  A window is decoded
//!   once and replayed by every pass over its stream; [`measure_stream_streaming`] /
//!   [`measure_all_streaming`] pack one from the file and measure it.
//!   Keeping the profiler out of the measurement loop matters: watchpoints armed at
//!   recorded addresses would never fire on shadow addresses, biasing candidates.
//!   The identity baseline is the exception that needs no pass of its own: the
//!   machine books the profiler's cycles apart, so a profiled replay's round clocks
//!   less them are this pass's under [`FixSpec::Identity`], and
//!   [`crate::replay_and_measure_stream`] records them with the same recorder.
//! * [`analyze_sharing`] — per-type granule/concurrency statistics, gathered for any
//!   number of types in one walk, used by `dprof whatif --auto` to pick the fix family
//!   that matches the sharing pattern.
//!
//! The throughput metric is deliberately the **makespan delta**, not summed per-core
//! latency: `pin` serializes an object's accesses onto one core, which *reduces* summed
//! latency even when it lengthens the critical path.  Makespan is the machine's notion
//! of elapsed time ([`sim_machine::Machine::max_clock`]; without the profiler's
//! cycles, [`sim_machine::Machine::unprofiled_makespan`], which is the same number in
//! a profiler-free pass) and matches what `dprof` reports as throughput.

use crate::format::TypeDump;
use crate::replay::{apply_event, available_workers, for_each_stream, rebuild_universe};
use crate::stream::TraceReader;
use crate::window::PackedWindow;
use sim_cache::line_table::BuildMixHasher;
use sim_kernel::addr_index::PAGE_SIZE;
use sim_kernel::{AddrIndex, RemapTarget, TypeId};
use sim_machine::{Machine, SessionEvent};

/// The tables here are keyed by addresses, types and cores and probed on every access
/// or allocation; nothing reads them in iteration order.
type MixMap<K, V> = std::collections::HashMap<K, V, BuildMixHasher>;

/// Base of the shadow address range counterfactual layouts are carved from.  Far above
/// the allocator's heap (`0x0001_0000_0000`), so rewritten and pass-through traffic can
/// never collide.
pub const SHADOW_BASE: u64 = 0x4000_0000_0000;

/// One hypothetical fix, parsed from the CLI's `--fix <spec>` grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FixSpec {
    /// No transform: the baseline every candidate is measured against.
    Identity,
    /// Give every 8-byte granule of the type its own cache line (kills false sharing).
    Pad {
        /// Target type name.
        type_name: String,
    },
    /// Give every accessing core its own per-core copy of each object (kills remote
    /// misses from concurrently shared data, as per-core sharding would).
    Localize {
        /// Target type name.
        type_name: String,
    },
    /// Re-home every access to the core that allocated the object (kills migration
    /// bounce while keeping a single copy).
    Pin {
        /// Target type name.
        type_name: String,
    },
    /// Compact each object of the type to `bytes` bytes (models a hot/cold field split
    /// that improves cache-line utilization and shrinks the working set).
    Shrink {
        /// Target type name.
        type_name: String,
        /// Compacted object size in bytes (at least 8).
        bytes: u64,
    },
}

impl FixSpec {
    /// Parses a fix spec: `identity`, `pad:<type>`, `localize:<type>`, `pin:<type>` or
    /// `shrink:<type>:<bytes>`.
    pub fn parse(s: &str) -> Result<FixSpec, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let arity_err = |want: &str| format!("fix spec '{s}' is malformed (expected {want})");
        match parts[0] {
            "identity" if parts.len() == 1 => Ok(FixSpec::Identity),
            "pad" | "localize" | "pin" => {
                if parts.len() != 2 || parts[1].is_empty() {
                    return Err(arity_err(&format!("{}:<type>", parts[0])));
                }
                let type_name = parts[1].to_string();
                Ok(match parts[0] {
                    "pad" => FixSpec::Pad { type_name },
                    "localize" => FixSpec::Localize { type_name },
                    _ => FixSpec::Pin { type_name },
                })
            }
            "shrink" => {
                if parts.len() != 3 || parts[1].is_empty() {
                    return Err(arity_err("shrink:<type>:<bytes>"));
                }
                let bytes: u64 = parts[2].parse().map_err(|_| {
                    format!(
                        "malformed shrink byte count '{}' in fix spec '{s}'",
                        parts[2]
                    )
                })?;
                if bytes < 8 {
                    return Err(format!(
                        "shrink byte count must be at least 8, got {bytes} in fix spec '{s}'"
                    ));
                }
                Ok(FixSpec::Shrink {
                    type_name: parts[1].to_string(),
                    bytes,
                })
            }
            _ => Err(format!(
                "unknown fix spec '{s}' (expected pad:<type>, localize:<type>, pin:<type> \
                 or shrink:<type>:<bytes>)"
            )),
        }
    }

    /// The fix family name (`identity`, `pad`, `localize`, `pin`, `shrink`).
    pub fn kind(&self) -> &'static str {
        match self {
            FixSpec::Identity => "identity",
            FixSpec::Pad { .. } => "pad",
            FixSpec::Localize { .. } => "localize",
            FixSpec::Pin { .. } => "pin",
            FixSpec::Shrink { .. } => "shrink",
        }
    }

    /// The targeted type name, if the spec has one.
    pub fn target(&self) -> Option<&str> {
        match self {
            FixSpec::Identity => None,
            FixSpec::Pad { type_name }
            | FixSpec::Localize { type_name }
            | FixSpec::Pin { type_name }
            | FixSpec::Shrink { type_name, .. } => Some(type_name),
        }
    }
}

impl std::fmt::Display for FixSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FixSpec::Identity => write!(f, "identity"),
            FixSpec::Pad { type_name } => write!(f, "pad:{type_name}"),
            FixSpec::Localize { type_name } => write!(f, "localize:{type_name}"),
            FixSpec::Pin { type_name } => write!(f, "pin:{type_name}"),
            FixSpec::Shrink { type_name, bytes } => write!(f, "shrink:{type_name}:{bytes}"),
        }
    }
}

/// The recorded `TypeId` of `name` in a stream's type-dump table.  Replay re-registers
/// the type dumps in order, so an id is simply the dump position.
pub fn stream_type_id(types: &[TypeDump], name: &str) -> Option<TypeId> {
    types
        .iter()
        .position(|t| t.name == name)
        .map(|i| TypeId(i as u32))
}

/// Names of every type recorded in the trace (union over streams, first-seen order).
pub fn trace_type_names(reader: &TraceReader) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for stream in reader.headers() {
        for t in &stream.types {
            if !names.iter().any(|n| n == &t.name) {
                names.push(t.name.clone());
            }
        }
    }
    names
}

/// Checks that the spec's target type appears in the trace.
pub fn validate_spec(reader: &TraceReader, spec: &FixSpec) -> Result<(), String> {
    let Some(target) = spec.target() else {
        return Ok(());
    };
    if (reader.headers().iter()).any(|stream| stream_type_id(&stream.types, target).is_some()) {
        Ok(())
    } else {
        Err(format!(
            "fix '{spec}' targets type '{target}', which does not appear in the trace \
             (recorded types: {})",
            trace_type_names(reader).join(", ")
        ))
    }
}

/// The per-mode shadow bookkeeping of a [`Transform`].
#[derive(Debug)]
enum Mode {
    Identity,
    /// `base -> shadow region` (one line per 8-byte granule).
    Pad {
        shadow: MixMap<u64, u64>,
    },
    /// `(base, accessing core) -> shadow region` (a private copy per core).
    Localize {
        shadow: MixMap<(u64, u32), u64>,
    },
    Pin,
    /// `base -> shadow region` of `bytes` compacted bytes.
    Shrink {
        bytes: u64,
        shadow: MixMap<u64, u64>,
    },
}

/// Slots of a [`Transform`]'s page filter: 16 KiB of counts.
const PAGE_SLOTS: usize = 1 << 12;

/// The page filter's slot for page number `page`: the top bits of a multiplicative
/// hash, as the utilization tally's guard hashes a line, so that the pages of one slab
/// spread over the table.
#[inline]
fn page_slot(page: u64) -> usize {
    (page.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - PAGE_SLOTS.ilog2())) as usize
}

/// The replay-time address-rewrite / core-remap layer.
///
/// Accesses resolving to a live object of the target type are relocated into a shadow
/// region (or re-homed, for `pin`); everything else passes through untouched.  Shadow
/// regions are bump-allocated in whole cache lines and assigned at first touch, so the
/// mapping is a pure function of the event stream: deterministic, and alias-free across
/// distinct allocation bases by construction.
///
/// The transform also follows the stream's allocations ([`Transform::note_alloc`],
/// [`Transform::note_free`]) to count, per hashed page, the live target objects that
/// cover it.  A live object that holds an address covers that address's page, so an
/// access whose count is zero ([`Transform::may_rewrite`]) cannot be rewritten and
/// needs no address lookup.  That is most accesses of a candidate pass: only one type
/// is the target.
#[derive(Debug)]
pub struct Transform {
    mode: Mode,
    target: Option<TypeId>,
    line: u64,
    cursor: u64,
    /// The target type's live objects, `base -> size`.
    live: MixMap<u64, u64>,
    /// Per [`page_slot`], how many pages of live target objects hash there.
    pages: Box<[u32; PAGE_SLOTS]>,
}

impl Transform {
    /// Builds the transform for `spec`.  `target` is the recorded type id of the spec's
    /// target in the stream being replayed (`None` leaves every access untouched, e.g.
    /// for [`FixSpec::Identity`]).
    pub fn new(spec: &FixSpec, target: Option<TypeId>, line_size: u64) -> Transform {
        assert!(line_size >= 8, "cache lines are at least one granule");
        let mode = match spec {
            FixSpec::Identity => Mode::Identity,
            FixSpec::Pad { .. } => Mode::Pad {
                shadow: MixMap::default(),
            },
            FixSpec::Localize { .. } => Mode::Localize {
                shadow: MixMap::default(),
            },
            FixSpec::Pin { .. } => Mode::Pin,
            FixSpec::Shrink { bytes, .. } => Mode::Shrink {
                bytes: *bytes,
                shadow: MixMap::default(),
            },
        };
        let target = match mode {
            Mode::Identity => None,
            _ => target,
        };
        Transform {
            mode,
            target,
            line: line_size,
            cursor: SHADOW_BASE,
            live: MixMap::default(),
            pages: Box::new([0; PAGE_SLOTS]),
        }
    }

    /// Follows a recorded `Alloc` of `type_id` at `base`.  Whatever target object was
    /// live at `base` is retired, since an allocation displaces it in the replay
    /// kernel too, and an object of the target type is counted on every page it covers.
    pub fn note_alloc(&mut self, type_id: TypeId, base: u64, size: u64) {
        self.note_free(base);
        if self.target == Some(type_id) {
            self.live.insert(base, size);
            self.count_pages(base, size, false);
        }
    }

    /// Follows a recorded `Free` at `base`: a target object live there is retired.
    pub fn note_free(&mut self, base: u64) {
        if let Some(size) = self.live.remove(&base) {
            self.count_pages(base, size, true);
        }
    }

    /// Counts (or, retiring, uncounts) an object on every page it covers.
    fn count_pages(&mut self, base: u64, size: u64, retire: bool) {
        for page in base / PAGE_SIZE..base.saturating_add(size).div_ceil(PAGE_SIZE) {
            let count = &mut self.pages[page_slot(page)];
            if retire {
                *count -= 1;
            } else {
                *count += 1;
            }
        }
    }

    /// False only if no live object of the target type, as the noted allocations
    /// leave them, can hold `addr`: then [`Transform::rewrite`] would pass the access
    /// through whatever the address resolves to.  Always false for the identity.
    #[inline]
    pub fn may_rewrite(&self, addr: u64) -> bool {
        self.pages[page_slot(addr / PAGE_SIZE)] != 0
    }

    /// Carves a line-aligned, line-granular shadow region of at least `len` bytes.
    fn carve(cursor: &mut u64, line: u64, len: u64) -> u64 {
        let start = *cursor;
        *cursor += len.div_ceil(line) * line;
        start
    }

    /// Rewrites one recorded access.  `hit` is the resolution of `addr` against the
    /// replay kernel's live address set ([`sim_kernel::SlabAllocator::resolve_remap`]);
    /// accesses that miss the address set or hit a non-target type pass through.
    /// Returns the (possibly rewritten) `(core, addr, len)` to dispatch.
    pub fn rewrite(
        &mut self,
        core: u32,
        addr: u64,
        len: u64,
        hit: Option<RemapTarget>,
    ) -> (u32, u64, u64) {
        let Some(target) = self.target else {
            return (core, addr, len);
        };
        let Some(hit) = hit else {
            return (core, addr, len);
        };
        if hit.resolved.type_id != target || hit.resolved.offset >= hit.size {
            return (core, addr, len);
        }
        let (base, off, size) = (hit.resolved.base, hit.resolved.offset, hit.size);
        let line = self.line;
        match &mut self.mode {
            Mode::Identity => (core, addr, len),
            Mode::Pad { shadow } => {
                let region_len = size.div_ceil(8) * line;
                let region = *shadow
                    .entry(base)
                    .or_insert_with(|| Self::carve(&mut self.cursor, line, region_len));
                let rel = (off / 8) * line + off % 8;
                (core, region + rel, len.min(region_len - rel))
            }
            Mode::Localize { shadow } => {
                let region = *shadow
                    .entry((base, core))
                    .or_insert_with(|| Self::carve(&mut self.cursor, line, size));
                let region_len = size.div_ceil(line) * line;
                (core, region + off, len.min(region_len - off))
            }
            Mode::Pin => (hit.alloc_core as u32, addr, len),
            Mode::Shrink { bytes, shadow } => {
                let bytes = *bytes;
                let region = *shadow
                    .entry(base)
                    .or_insert_with(|| Self::carve(&mut self.cursor, line, bytes));
                let new_len = len.min(bytes);
                let mut rel = (off * bytes / size) & !7;
                if rel + new_len > bytes {
                    rel = (bytes - new_len) & !7;
                }
                (core, region + rel, new_len)
            }
        }
    }
}

/// The outcome of one stream's measurement replay: the makespan trajectory of the
/// measurement window, from which block-wise gain statistics are built.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatifMeasure {
    /// Stream index (the live run's thread index).
    pub thread: usize,
    /// Makespan without the profiler ([`sim_machine::Machine::unprofiled_makespan`])
    /// right after the setup + warmup segment.
    pub warmup_clock: u64,
    /// That makespan at each sampled round's end, in round order.
    pub round_clocks: Vec<u64>,
    /// Clock frequency, for converting cycle deltas to seconds.
    pub cycles_per_second: u64,
}

impl WhatifMeasure {
    /// Total measured-window cycles (makespan growth after warmup).
    pub fn window_cycles(&self) -> u64 {
        self.round_clocks
            .last()
            .map_or(0, |c| c.saturating_sub(self.warmup_clock))
    }

    /// Total measured-window simulated seconds.
    pub fn window_seconds(&self) -> f64 {
        self.window_cycles() as f64 / self.cycles_per_second as f64
    }
}

/// The makespan at a stream's round ends, as every replay of it records them: rounds
/// `1..=warmup_boundary` are set-up + (phase-shifted) warmup, whose last end is the
/// warmup clock; the `sample_rounds` ends after it are the measured rounds, the window
/// the session sampled, mirroring the live driver's counters.  The history phase's
/// round ends after them record nothing.  The makespan read is the machine's without
/// the profiler, so a profiled replay records what a profiler-free pass over the same
/// events does.
#[derive(Debug)]
pub struct RoundClocks {
    thread: usize,
    warmup_boundary: usize,
    /// The round end that closes the measured window: the sample phase's last.
    last_round: usize,
    round: usize,
    warmup_clock: u64,
    round_clocks: Vec<u64>,
}

impl RoundClocks {
    /// The recorder of stream `thread` of `reader`.
    pub fn new(reader: &TraceReader, thread: usize) -> RoundClocks {
        // Segment 0 is the kernel/workload set-up traffic (everything before the
        // first marker); the warmup after it is phase-shifted per thread, as the live
        // run's was.
        let warmup_boundary = 1 + reader.params.warmup_rounds + thread;
        RoundClocks {
            thread,
            warmup_boundary,
            last_round: warmup_boundary + reader.params.sample_rounds,
            round: 0,
            warmup_clock: 0,
            round_clocks: Vec::new(),
        }
    }

    /// How many round ends precede the measured window.
    pub(crate) fn warmup_boundary(&self) -> usize {
        self.warmup_boundary
    }

    /// How many round ends the measured window's last is, counted from the stream's
    /// start: where a pass over the stream stops.
    pub(crate) fn last_round(&self) -> usize {
        self.last_round
    }

    /// Records one round end.
    #[inline]
    pub fn round_end(&mut self, machine: &Machine) {
        self.round += 1;
        if self.round == self.warmup_boundary {
            self.warmup_clock = machine.unprofiled_makespan();
        } else if self.round > self.warmup_boundary && self.round <= self.last_round {
            self.round_clocks.push(machine.unprofiled_makespan());
        }
    }

    /// Whether the measured window's last round has ended.
    #[inline]
    pub fn complete(&self) -> bool {
        self.round >= self.last_round
    }

    /// The measure of the rounds recorded.
    pub fn measure(self, reader: &TraceReader) -> WhatifMeasure {
        WhatifMeasure {
            thread: self.thread,
            warmup_clock: self.warmup_clock,
            round_clocks: self.round_clocks,
            cycles_per_second: reader.machine.cycles_per_second,
        }
    }
}

/// Replays one stream under `spec` with **no profiler in the loop**, recording the
/// makespan at the end of every round the session sampled: packs the stream's window
/// ([`PackedWindow::read`]), which stops decoding at the last, and measures it
/// ([`measure_window`]).  Decode errors, and events that contradict their stream
/// (`event 1234: free of non-live address 0x…`), surface as `Err` if they come before
/// it.
///
/// # Panics
/// Panics if `thread` is out of range.
pub fn measure_stream_streaming(
    reader: &TraceReader,
    thread: usize,
    spec: &FixSpec,
) -> Result<WhatifMeasure, String> {
    measure_window(reader, &PackedWindow::read(reader, thread), spec)
}

/// The measurement pass: replays `window`, a stream of `reader`, under `spec` with no
/// profiler in the loop, and records the makespan at the end of every round the
/// session sampled.  An event that contradicts its stream is `Err` naming its ordinal;
/// past the events, so is the error that cut the window short, if one did.
pub fn measure_window(
    reader: &TraceReader,
    window: &PackedWindow,
    spec: &FixSpec,
) -> Result<WhatifMeasure, String> {
    measure_window_dispatching(reader, window, spec, |_, _, _| {})
}

/// [`measure_window`], handing `dispatched` each access's `(core, addr, len)` as the
/// machine is given it.  An address is resolved against the replay kernel's live
/// objects only when [`Transform::may_rewrite`] says it can matter.
fn measure_window_dispatching(
    reader: &TraceReader,
    window: &PackedWindow,
    spec: &FixSpec,
    mut dispatched: impl FnMut(u32, u64, u64),
) -> Result<WhatifMeasure, String> {
    let thread = window.thread();
    let (mut machine, mut kernel) = rebuild_universe(reader, thread);
    let target = spec
        .target()
        .and_then(|name| stream_type_id(&reader.headers()[thread].types, name));
    let line_size = reader.machine.hierarchy.l1.line_size as u64;
    let mut transform = Transform::new(spec, target, line_size);
    let mut clocks = RoundClocks::new(reader, thread);

    for (i, ev) in window.events().enumerate() {
        let ev = match ev {
            SessionEvent::RoundEnd => {
                clocks.round_end(&machine);
                if clocks.complete() {
                    break;
                }
                continue;
            }
            ev @ SessionEvent::Access {
                core, addr, len, ..
            } if transform.may_rewrite(addr) => {
                let hit = kernel.allocator.resolve_remap(addr);
                let (core, addr, len) = transform.rewrite(core, addr, len, hit);
                ev.with_access_target(core, addr, len)
            }
            ev @ SessionEvent::Alloc {
                type_id,
                size,
                addr,
                ..
            } => {
                transform.note_alloc(TypeId(type_id), addr, size);
                ev
            }
            ev @ SessionEvent::Free { addr, .. } => {
                transform.note_free(addr);
                ev
            }
            ev => ev,
        };
        if let SessionEvent::Access {
            core, addr, len, ..
        } = ev
        {
            dispatched(core, addr, len);
        }
        apply_event(ev, &mut machine, &mut kernel).map_err(|e| format!("event {i}: {e}"))?;
    }
    if let Some(e) = window.error() {
        return Err(e.to_string());
    }
    Ok(clocks.measure(reader))
}

/// Measures every stream of a full-session trace under `spec` on the bounded fan-out,
/// returning results ordered by stream index.
pub fn measure_all_streaming(
    reader: &TraceReader,
    spec: &FixSpec,
) -> Result<Vec<WhatifMeasure>, String> {
    for_each_stream(available_workers(), reader, 1, |_, thread| {
        measure_stream_streaming(reader, thread, spec)
    })
}

/// Granule-level sharing statistics for one type, aggregated over all streams: the raw
/// material of `--auto`'s fix-family diagnosis.  The default is the profile of a type
/// no access resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SharingProfile {
    /// Total accesses that resolved to an object of the type.
    pub accesses: u64,
    /// Fraction of those accesses touching an 8-byte granule from a core other than
    /// the granule's dominant accessor.  Low when each granule has one owner (false
    /// sharing: distinct granules, one line); high when cores contend on the *same*
    /// granules (true sharing / migration).
    pub foreign_fraction: f64,
    /// Mean number of distinct cores touching an object within one round, over all
    /// (object, round) pairs with any access.  ~1 means serially migrating exclusive
    /// access (pin territory); >1 means concurrent sharing (localize territory).
    pub concurrency: f64,
}

/// How many access keys the sharing walk logs before it sorts them into its table:
/// 512 KiB of keys, whatever the trace's length.
const SHARING_BATCH: usize = 1 << 16;

/// One walked type's totals.
#[derive(Default, Clone, Copy)]
struct SlotTotals {
    accesses: u64,
    /// Accesses of each granule's dominant core, summed over the type's granules.
    owner_sum: u64,
    object_rounds: u64,
    core_sum: u64,
}

/// Per-granule, per-core access counts of every walked object, as one sorted table of
/// packed keys `object << 24 | granule << 7 | core`.  The packing is exact: the decoder
/// bounds an object at `MAX_ACCESS_LEN` = 1 MiB, so a granule is below 2^17, and a
/// machine at 128 cores.  An access appends its key to a log; a full log is sorted and
/// its runs merged into the table, so memory is bounded by the distinct keys plus one
/// batch, not by the trace's length.
#[derive(Default)]
struct GranuleCounts {
    /// Keys of the accesses since the last compaction, in event order.
    log: Vec<u64>,
    /// `(key, accesses)`, sorted by key, each key once.
    table: Vec<(u64, u64)>,
}

impl GranuleCounts {
    fn key(object: u32, granule: u64, core: u32) -> u64 {
        assert!(granule < 1 << 17 && core < 128, "the decoder bounds both");
        (object as u64) << 24 | granule << 7 | core as u64
    }

    fn record(&mut self, key: u64) {
        self.log.push(key);
        if self.log.len() == SHARING_BATCH {
            self.compact();
        }
    }

    /// Sorts the log and merges its runs with the table.
    fn compact(&mut self) {
        self.log.sort_unstable();
        // Sized for the log's distinct keys, not its length, which they repeat.
        let distinct = self.log.chunk_by(|a, b| a == b).count();
        let mut merged = Vec::with_capacity(self.table.len() + distinct);
        let mut table = self.table.iter().copied().peekable();
        for run in self.log.chunk_by(|a, b| a == b) {
            let key = run[0];
            let mut count = run.len() as u64;
            while let Some((older, n)) = table.next_if(|&(older, _)| older <= key) {
                if older == key {
                    count += n;
                } else {
                    merged.push((older, n));
                }
            }
            merged.push((key, count));
        }
        merged.extend(table);
        self.table = merged;
        self.log.clear();
    }

    /// Adds each granule's dominant-core count to its object's type in `totals`.
    fn sum_owners(&mut self, object_slot: &[u32], totals: &mut [SlotTotals]) {
        self.compact();
        for granule in self.table.chunk_by(|a, b| a.0 >> 7 == b.0 >> 7) {
            let owner = granule
                .iter()
                .map(|&(_, n)| n)
                .max()
                .expect("chunks are not empty");
            totals[object_slot[(granule[0].0 >> 24) as usize] as usize].owner_sum += owner;
        }
    }
}

/// Computes the [`SharingProfile`] of every type in `type_names` (in that order) by a
/// single pass over every stream's events.  The live objects of those types are
/// tracked from their `Alloc`/`Free` events in one [`AddrIndex`], so an access is
/// looked up once, not once per type.  An object is numbered when it is allocated,
/// by `(type, base)` within its stream; its accesses go to one granule table shared by
/// every type, and its cores this round to a dense mask that the round's end reads for
/// the objects touched in it.  Each stream is a machine of its own, so two streams'
/// objects at one base are two objects, and core *c* of one stream is never a foreign
/// accessor of a granule core *c* of another owns.  A type's profile does not depend
/// on which other types are walked beside it.  A stream that registered none of the types is not decoded
/// at all.  Decode errors surface as `Err`, naming the stream.
pub fn analyze_sharing(
    reader: &TraceReader,
    type_names: &[&str],
) -> Result<Vec<SharingProfile>, String> {
    let walked = analyze_sharing_unless(reader, type_names, || false)?;
    Ok(walked.expect("a walk that is never abandoned"))
}

/// [`analyze_sharing`], abandoned with `Ok(None)` at the first round end at which
/// `abandon()` is true: for a caller that starts the walk before it knows whether it
/// will need the profiles.
pub fn analyze_sharing_unless(
    reader: &TraceReader,
    type_names: &[&str],
    abandon: impl Fn() -> bool,
) -> Result<Option<Vec<SharingProfile>>, String> {
    let mut totals = vec![SlotTotals::default(); type_names.len()];
    // `(type slot, base) -> object` of the stream walked, read only on `Alloc`.
    let mut objects: MixMap<(u32, u64), u32> = MixMap::default();
    let mut object_slot: Vec<u32> = Vec::new();
    // Cores that touched each object this round, and the objects touched.
    let mut round_cores: Vec<u128> = Vec::new();
    let mut touched: Vec<u32> = Vec::new();
    let mut granules = GranuleCounts::default();
    let mut live: AddrIndex<(u32, u32)> = AddrIndex::new();
    for (thread, stream) in reader.headers().iter().enumerate() {
        // The walked slot of each of the stream's type ids: a name's first position.
        let types = &stream.types;
        let mut slot_of: Vec<Option<u32>> = vec![None; types.len()];
        for (slot, name) in type_names.iter().enumerate() {
            if let Some(TypeId(id)) = stream_type_id(types, name) {
                slot_of[id as usize].get_or_insert(slot as u32);
            }
        }
        for object in touched.drain(..) {
            round_cores[object as usize] = 0;
        }
        objects.clear();
        live.clear();
        if slot_of.iter().all(Option::is_none) {
            continue;
        }
        let in_stream = |e: crate::TraceError| format!("stream {thread}: {e}");
        for ev in reader.events(thread).map_err(in_stream)? {
            match ev.map_err(in_stream)? {
                SessionEvent::Alloc {
                    type_id,
                    size,
                    addr,
                    ..
                } => {
                    if let Some(Some(slot)) = slot_of.get(type_id as usize).copied() {
                        let next = u32::try_from(object_slot.len()).expect("under 2^32 objects");
                        let object = *objects.entry((slot, addr)).or_insert(next);
                        if object == next {
                            object_slot.push(slot);
                            round_cores.push(0);
                        }
                        live.insert(addr, size, (slot, object));
                    }
                }
                SessionEvent::Free { addr, .. } => {
                    live.remove(addr);
                }
                SessionEvent::Access { core, addr, .. } => {
                    if let Some(obj) = live.find(addr) {
                        let (slot, object) = obj.payload;
                        totals[slot as usize].accesses += 1;
                        granules.record(GranuleCounts::key(object, (addr - obj.base) / 8, core));
                        let mask = &mut round_cores[object as usize];
                        if *mask == 0 {
                            touched.push(object);
                        }
                        *mask |= 1u128 << core;
                    }
                }
                SessionEvent::RoundEnd => {
                    if abandon() {
                        return Ok(None);
                    }
                    for object in touched.drain(..) {
                        let t = &mut totals[object_slot[object as usize] as usize];
                        t.object_rounds += 1;
                        t.core_sum += round_cores[object as usize].count_ones() as u64;
                        round_cores[object as usize] = 0;
                    }
                }
                SessionEvent::Compute { .. } => {}
            }
        }
    }
    granules.sum_owners(&object_slot, &mut totals);
    // A name given twice is one type: its objects were filed under its first position.
    let first = |name| type_names.iter().position(|n| n == name);
    Ok(Some(
        type_names
            .iter()
            .map(|name| {
                let t = totals[first(name).expect("is in the list")];
                SharingProfile {
                    accesses: t.accesses,
                    foreign_fraction: if t.accesses == 0 {
                        0.0
                    } else {
                        (t.accesses - t.owner_sum) as f64 / t.accesses as f64
                    },
                    concurrency: if t.object_rounds == 0 {
                        0.0
                    } else {
                        t.core_sum as f64 / t.object_rounds as f64
                    },
                }
            })
            .collect(),
    ))
}

#[cfg(test)]
use crate as trace;
#[cfg(test)]
use sim_machine as machine;
#[cfg(test)]
#[path = "../../../tests/support/dtrace.rs"]
mod dtrace;
#[cfg(test)]
#[path = "../../../tests/support/whatif_reference.rs"]
mod whatif_reference;

#[cfg(test)]
mod tests {
    use super::whatif_reference::measure_resolving_every_access;
    use super::*;
    use crate::{SessionParams, ThreadStream, TraceFile, TraceKind};
    use sim_kernel::ResolvedAddr;
    use sim_machine::{AccessKind, FunctionId, MachineConfig, SamplingPolicy};

    fn hit(type_id: u32, base: u64, offset: u64, size: u64, alloc_core: usize) -> RemapTarget {
        RemapTarget {
            resolved: ResolvedAddr {
                type_id: TypeId(type_id),
                base,
                offset,
            },
            size,
            alloc_core,
        }
    }

    #[test]
    fn fix_spec_grammar_round_trips_and_rejects_malformed_input() {
        for s in [
            "identity",
            "pad:ring_desc",
            "localize:conn_lock",
            "pin:job",
            "shrink:buf:64",
        ] {
            assert_eq!(FixSpec::parse(s).unwrap().to_string(), s);
        }
        assert!(FixSpec::parse("unpad:ring_desc")
            .unwrap_err()
            .contains("unknown fix spec"));
        assert!(FixSpec::parse("pad").unwrap_err().contains("malformed"));
        assert!(FixSpec::parse("pad:").unwrap_err().contains("malformed"));
        assert!(FixSpec::parse("shrink:buf")
            .unwrap_err()
            .contains("malformed"));
        assert!(FixSpec::parse("shrink:buf:lots")
            .unwrap_err()
            .contains("malformed shrink byte count"));
        assert!(FixSpec::parse("shrink:buf:4")
            .unwrap_err()
            .contains("at least 8"));
    }

    #[test]
    fn pad_separates_granules_onto_distinct_lines() {
        let spec = FixSpec::parse("pad:t").unwrap();
        let mut tf = Transform::new(&spec, Some(TypeId(3)), 64);
        let (_, a0, _) = tf.rewrite(0, 0x1000, 8, Some(hit(3, 0x1000, 0, 16, 0)));
        let (_, a1, _) = tf.rewrite(1, 0x1008, 8, Some(hit(3, 0x1008 - 8, 8, 16, 0)));
        assert_ne!(
            a0 / 64,
            a1 / 64,
            "granules 0 and 1 must land on different lines"
        );
        // Same granule, same line, stable across calls.
        let (_, a0_again, _) = tf.rewrite(1, 0x1000, 8, Some(hit(3, 0x1000, 0, 16, 0)));
        assert_eq!(a0, a0_again);
    }

    #[test]
    fn localize_gives_each_core_its_own_copy() {
        let spec = FixSpec::parse("localize:t").unwrap();
        let mut tf = Transform::new(&spec, Some(TypeId(1)), 64);
        let (_, a_c0, _) = tf.rewrite(0, 0x2000, 8, Some(hit(1, 0x2000, 0, 64, 0)));
        let (_, a_c1, _) = tf.rewrite(1, 0x2000, 8, Some(hit(1, 0x2000, 0, 64, 0)));
        assert_ne!(a_c0 / 64, a_c1 / 64);
        let (_, again, _) = tf.rewrite(0, 0x2000, 8, Some(hit(1, 0x2000, 0, 64, 0)));
        assert_eq!(a_c0, again);
    }

    #[test]
    fn pin_rehomes_the_access_without_moving_it() {
        let spec = FixSpec::parse("pin:t").unwrap();
        let mut tf = Transform::new(&spec, Some(TypeId(2)), 64);
        let (core, addr, len) = tf.rewrite(5, 0x3000, 8, Some(hit(2, 0x3000, 0, 256, 1)));
        assert_eq!((core, addr, len), (1, 0x3000, 8));
    }

    #[test]
    fn shrink_compacts_offsets_and_stays_in_the_region() {
        let spec = FixSpec::parse("shrink:t:64").unwrap();
        let mut tf = Transform::new(&spec, Some(TypeId(0)), 64);
        let (_, first, _) = tf.rewrite(0, 0x4000, 8, Some(hit(0, 0x4000, 0, 1024, 0)));
        for off in (0..1024).step_by(8) {
            let (_, a, l) = tf.rewrite(0, 0x4000 + off, 8, Some(hit(0, 0x4000, off, 1024, 0)));
            assert!(
                a >= first && a + l <= first + 64,
                "offset {off} escaped the region"
            );
        }
    }

    #[test]
    fn non_target_and_unresolved_accesses_pass_through() {
        let spec = FixSpec::parse("pad:t").unwrap();
        let mut tf = Transform::new(&spec, Some(TypeId(7)), 64);
        assert_eq!(tf.rewrite(2, 0x99, 8, None), (2, 0x99, 8));
        assert_eq!(
            tf.rewrite(2, 0x1000, 8, Some(hit(6, 0x1000, 0, 64, 0))),
            (2, 0x1000, 8)
        );
        let idspec = FixSpec::Identity;
        let mut id = Transform::new(&idspec, Some(TypeId(7)), 64);
        id.note_alloc(TypeId(7), 0x1000, 64);
        assert!(!id.may_rewrite(0x1000));
        assert_eq!(
            id.rewrite(2, 0x1000, 8, Some(hit(7, 0x1000, 0, 64, 0))),
            (2, 0x1000, 8)
        );
    }

    #[test]
    fn the_page_filter_follows_the_target_objects_allocations() {
        let spec = FixSpec::parse("pad:t").unwrap();
        let mut tf = Transform::new(&spec, Some(TypeId(1)), 64);
        // One target object over three pages, and nothing else counted.
        let base = 0x10_0000 + PAGE_SIZE - 0x100;
        let pages = [base, base + PAGE_SIZE, base + 2 * PAGE_SIZE];
        assert!(pages.iter().all(|&a| !tf.may_rewrite(a)));
        tf.note_alloc(TypeId(1), base, 2 * PAGE_SIZE + 64);
        assert!(pages.iter().all(|&a| tf.may_rewrite(a)));
        // An object of another type at the same base displaces it.
        tf.note_alloc(TypeId(2), base, 64);
        assert!(pages.iter().all(|&a| !tf.may_rewrite(a)));
        tf.note_free(base);
        tf.note_alloc(TypeId(1), base, 64);
        assert!(tf.may_rewrite(base));
        tf.note_free(base);
        tf.note_free(base);
        assert!(!tf.may_rewrite(base));
    }

    /// Holds every stream's pass under `spec` over its packed window, page filter and
    /// all, to the reference pass that reads the file and resolves every access, access
    /// for access and measure for measure.  Returns how many accesses the fix rewrote.
    fn assert_filtered_pass_matches(reader: &TraceReader, spec: &FixSpec, case: &str) -> usize {
        let mut rewritten = 0;
        for thread in 0..reader.stream_count() {
            let mut dispatched = Vec::new();
            let window = PackedWindow::read(reader, thread);
            let measure = measure_window_dispatching(reader, &window, spec, |core, addr, len| {
                dispatched.push((core, addr, len))
            })
            .unwrap();
            let (expected, reference, changed) =
                measure_resolving_every_access(reader, thread, spec);
            if let Some(at) = (dispatched.iter().zip(&reference)).position(|(a, b)| a != b) {
                panic!(
                    "{case}, {spec}, stream {thread}: access {at} dispatched as {:?}, not {:?}",
                    dispatched[at], reference[at]
                );
            }
            assert_eq!(dispatched.len(), reference.len(), "{case}, {spec}");
            assert_eq!(measure, expected, "{case}, {spec}, stream {thread}");
            rewritten += changed;
        }
        rewritten
    }

    fn families(target: &str) -> [FixSpec; 4] {
        [
            format!("pad:{target}"),
            format!("localize:{target}"),
            format!("pin:{target}"),
            format!("shrink:{target}:64"),
        ]
        .map(|spec| FixSpec::parse(&spec).unwrap())
    }

    fn golden_dir() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
    }

    /// Every golden trace, under the identity and under each fix family on each of its
    /// three busiest types: the pass over the window is the pass over the file.
    #[test]
    fn the_page_filter_changes_no_access_of_a_golden_trace() {
        let golden = golden_dir();
        let mut paths: Vec<_> = std::fs::read_dir(&golden)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|e| e == "dtrace"))
            .collect();
        paths.sort();
        assert_eq!(paths.len(), 5, "five golden traces: {paths:?}");
        for path in paths {
            let reader = TraceReader::open(path.to_str().unwrap()).unwrap();
            let case = path.display().to_string();
            assert_eq!(
                assert_filtered_pass_matches(&reader, &FixSpec::Identity, &case),
                0
            );
            let names = trace_type_names(&reader);
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            let profiles = analyze_sharing(&reader, &names).unwrap();
            let mut busiest: Vec<_> = names.iter().zip(&profiles).collect();
            busiest.sort_by(|a, b| b.1.accesses.cmp(&a.1.accesses).then(a.0.cmp(b.0)));
            for (name, profile) in busiest.into_iter().take(3) {
                assert!(profile.accesses > 0, "{path:?}: {name} is never accessed");
                let case = format!("{}, {name}", path.display());
                for spec in families(name) {
                    let rewritten = assert_filtered_pass_matches(&reader, &spec, &case);
                    if spec.kind() == "pad" {
                        assert!(rewritten > 0, "{case}: pad rewrote nothing");
                    }
                }
            }
        }
    }

    /// A one-stream, four-core trace of `events`, with no warmup.  Type 0 is `target`
    /// and type 1 `other`, both of 64 bytes; the kernel's own types follow.
    fn synthetic(events: Vec<SessionEvent>) -> TraceFile {
        let mut registry = sim_kernel::TypeRegistry::new();
        registry.register("target", "", 64);
        registry.register("other", "", 64);
        sim_kernel::KernelTypes::register(&mut registry);
        registry.register("slab", "", 256);
        registry.register("array-cache", "", 128);
        let cores = 4;
        let rounds = events
            .iter()
            .filter(|e| matches!(e, SessionEvent::RoundEnd))
            .count();
        TraceFile {
            kind: TraceKind::FullSession,
            machine: MachineConfig::with_cores(cores),
            params: SessionParams {
                workload: "generated".into(),
                threads: 1,
                cores,
                warmup_rounds: 0,
                sample_rounds: rounds - 1,
                sampling: SamplingPolicy::Fixed { interval_ops: 120 },
                history_types: 1,
                history_sets: 1,
                base_seed: 1,
            },
            streams: vec![ThreadStream {
                seed: 1,
                requests: 0,
                symbols: vec!["f".to_string()],
                types: (registry.iter())
                    .map(|t| crate::TypeDump {
                        name: t.name.clone(),
                        description: String::new(),
                        size: t.size,
                        fields: Vec::new(),
                    })
                    .collect(),
                events: events.into(),
            }],
        }
    }

    fn alloc(core: u32, type_id: u32, size: u64, addr: u64) -> SessionEvent {
        SessionEvent::Alloc {
            core,
            type_id,
            size,
            addr,
            cycle: 0,
            hookable: true,
        }
    }

    fn free(addr: u64) -> SessionEvent {
        SessionEvent::Free {
            core: 0,
            addr,
            cycle: 0,
        }
    }

    fn access(core: u32, addr: u64) -> SessionEvent {
        SessionEvent::Access {
            core,
            ip: FunctionId(0),
            addr,
            len: 8,
            kind: AccessKind::Write,
        }
    }

    /// Every fix family on `events`: the filtered passes match the reference, and
    /// `pad` rewrites `expected` accesses.
    fn assert_synthetic(events: Vec<SessionEvent>, expected: usize) {
        let file = synthetic(events);
        let reader = dtrace::on_disk(&file);
        for spec in families("target") {
            let rewritten = assert_filtered_pass_matches(&reader, &spec, "synthetic");
            if spec.kind() == "pad" {
                assert_eq!(rewritten, expected);
            }
        }
    }

    /// Four rounds after set-up, each touching one `target` object from every core; the
    /// last frees an address nothing allocated, if `bad_free`.
    fn four_rounds(bad_free: bool) -> Vec<SessionEvent> {
        const BASE: u64 = 0x1_0000_0040;
        let mut events = vec![alloc(0, 0, 64, BASE), SessionEvent::RoundEnd];
        for round in 0..4 {
            events.extend((0..4).map(|core| access(core, BASE + 8 * u64::from(core))));
            if bad_free && round == 3 {
                events.push(free(0xdead_0000));
            }
            events.push(SessionEvent::RoundEnd);
        }
        events
    }

    #[test]
    fn a_pass_stops_decoding_at_the_last_sampled_round() {
        let whole = dtrace::on_disk(&synthetic(four_rounds(false)));
        let mut file = synthetic(four_rounds(true));
        assert_eq!(file.params.sample_rounds, 4, "every round after set-up");
        // Measured over every round, the bad free is reached and refused.
        let error = measure_stream_streaming(&dtrace::on_disk(&file), 0, &FixSpec::Identity);
        assert!(error
            .unwrap_err()
            .contains("free of non-live address 0xdead0000"));

        file.params.sample_rounds = 3;
        let refused = dtrace::on_disk(&file);
        for spec in std::iter::once(FixSpec::Identity).chain(families("target")) {
            let measure = measure_stream_streaming(&refused, 0, &spec)
                .unwrap_or_else(|e| panic!("{spec}: the pass decoded past its window: {e}"));
            assert_eq!(measure.round_clocks.len(), 3, "{spec}");
            let mut prefix = measure_stream_streaming(&whole, 0, &spec).unwrap();
            prefix.round_clocks.truncate(3);
            assert_eq!(measure, prefix, "{spec}: the window is the sampled rounds");
        }
    }

    #[test]
    fn a_window_cut_by_a_decode_error_applies_the_events_before_it() {
        // The last event's opcode byte (the file's last) clobbered: the stream stops
        // decoding there, before its last sampled round ends.
        let cut = |bad_free: bool| {
            let mut bytes = synthetic(four_rounds(bad_free)).encode();
            *bytes.last_mut().unwrap() = 0xff;
            dtrace::open(&bytes).unwrap()
        };
        let reader = cut(false);
        let window = PackedWindow::read(&reader, 0);
        let error = window
            .error()
            .expect("the window ends at the error")
            .to_string();
        assert!(error.contains("unknown event opcode 0xff"), "{error}");
        assert_eq!(
            measure_window(&reader, &window, &FixSpec::Identity),
            Err(error)
        );
        // The bad free comes first, and is the error a pass reports.
        let reader = cut(true);
        let measured = measure_stream_streaming(&reader, 0, &FixSpec::Identity);
        assert!(measured
            .unwrap_err()
            .ends_with("free of non-live address 0xdead0000"));
    }

    #[test]
    fn the_identity_pass_is_the_profiled_replays_baseline_over_the_sampled_rounds() {
        let path = golden_dir().join("memcached_quick.dtrace");
        let reader = TraceReader::open(path.to_str().unwrap()).unwrap();
        let sample_rounds = reader.params.sample_rounds;
        let window = 1 + reader.params.warmup_rounds + sample_rounds;
        let round_ends = (reader.events(0).unwrap())
            .filter(|ev| matches!(ev, Ok(SessionEvent::RoundEnd)))
            .count();
        assert!(round_ends > window, "the recording has a history phase");

        let (_, trailing, baseline, _) = crate::replay_and_measure_stream(&reader, 0).unwrap();
        assert_eq!(trailing, 0, "a faithful replay");
        assert_eq!(baseline.round_clocks.len(), sample_rounds);
        let identity = measure_stream_streaming(&reader, 0, &FixSpec::Identity).unwrap();
        assert_eq!(identity, baseline);
    }

    #[test]
    fn the_page_filter_lets_a_displaced_target_object_go() {
        const BASE: u64 = 0x1_0000_0040;
        let touch = |events: &mut Vec<SessionEvent>| {
            for core in 0..4 {
                events.push(access(core, BASE + 8 * u64::from(core)));
            }
            events.push(SessionEvent::RoundEnd);
        };
        let mut events = vec![alloc(1, 0, 64, BASE)];
        touch(&mut events);
        // `other` at the target's base, with no `Free` between: the replay kernel
        // now resolves the base to `other`, and nothing there may be rewritten.
        events.push(alloc(2, 1, 64, BASE));
        touch(&mut events);
        events.extend([free(BASE), alloc(3, 0, 64, BASE)]);
        touch(&mut events);
        assert_synthetic(events, 8);
    }

    #[test]
    fn the_page_filter_covers_every_page_of_a_target_object() {
        // A target object over three pages, an `other` object beside it on its last
        // page, and an access just past each.
        const BASE: u64 = 0x1_0000_0F00;
        const SIZE: u64 = 2 * PAGE_SIZE + 64;
        const BESIDE: u64 = BASE + SIZE;
        let mut events = vec![alloc(0, 0, SIZE, BASE), alloc(1, 1, 64, BESIDE)];
        let targets = [BASE, BASE + PAGE_SIZE, BASE + 2 * PAGE_SIZE, BESIDE - 8];
        for round in 0..3 {
            for (core, &addr) in (0..).zip(&targets) {
                events.push(access(core, addr));
            }
            events.extend([access(round, BESIDE), access(round, BASE - 8)]);
            events.push(SessionEvent::RoundEnd);
        }
        events.push(free(BASE));
        events.extend(targets.map(|addr| access(1, addr)));
        events.push(SessionEvent::RoundEnd);
        assert_synthetic(events, 3 * targets.len());
    }
}
