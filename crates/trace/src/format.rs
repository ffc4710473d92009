//! The `.dtrace` container format.
//!
//! ```text
//! file    := magic("DPROFTRC") version(u16 LE) kind(u8) machine params
//!            stream_count streams...
//! machine := cores l1 l2 l3 latency cycles_per_second op_cost
//! geom    := line_size ways sets                      (one per cache level)
//! latency := l1 l2 l3 remote_cache dram upgrade
//! params  := workload(string) threads cores warmup_rounds sample_rounds
//!            sampling_tag sampling_value history_types history_sets base_seed
//! stream  := seed requests symbol_count symbol* type_count type*
//!            event_count byte_len event_bytes
//! type    := name(string) description(string) size field_count field*
//! field   := name(string) offset size
//! ```
//!
//! `sampling_tag`/`sampling_value` encode the IBS sampling policy the run used
//! (0 = disabled, 1 = fixed interval, 2 = adaptive budget); replay re-runs the
//! profiler under the identical policy, which is what keeps adaptive-sampled
//! sessions byte-identical across record and replay.
//!
//! All integers are LEB128 varints except the version.  Strings are length-prefixed
//! UTF-8.  Event bytes use the [`crate::codec`] wire encoding.  See
//! `docs/trace-format.md` for the full specification and versioning rules.
//!
//! This module writes the container ([`TraceFile::write_to`]) and parses its
//! fixed-size header sections; reading a file back — prologue, streams and events — is
//! [`crate::stream`]'s job.

use crate::codec::{get_varint, put_string, put_varint, EncodedEvents, EventEncoder};
use crate::TraceError;
use dprof_core::merge::{ProfileShard, ShardMeta};
use dprof_core::{DprofConfig, DprofProfile, HistoryConfig};
use sim_cache::{CacheGeometry, HierarchyConfig, LatencyModel};
use sim_kernel::{TypeId, TypeRegistry};
use sim_machine::{Machine, MachineConfig, SamplingPolicy};
use std::collections::HashMap;
use std::io::{self, Write};

/// File magic, first eight bytes of every `.dtrace`.
pub const MAGIC: &[u8; 8] = b"DPROFTRC";

/// Current format version.  Bump on any incompatible layout change; decoders reject
/// versions they do not know (see `docs/trace-format.md` for the rules).
/// v2 replaced the fixed `ibs_interval_ops` header field with a tagged sampling
/// policy (fixed interval or adaptive budget).
pub const VERSION: u16 = 2;

/// What a trace contains.  A recorded profiling session is the one kind, kind byte 1;
/// a decoder refuses any other byte at open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A complete recorded profiling session (accesses + computes + allocator events
    /// + round marks): replayable through the full profiler pipeline.
    FullSession,
}

impl TraceKind {
    fn to_byte(self) -> u8 {
        match self {
            TraceKind::FullSession => 1,
        }
    }

    pub(crate) fn from_byte(b: u8) -> Result<Self, TraceError> {
        match b {
            1 => Ok(TraceKind::FullSession),
            other => Err(TraceError::Corrupt(format!("unknown trace kind {other}"))),
        }
    }
}

/// The session parameters needed to re-run the profiler against a recorded stream
/// (what the CLI's `RunOptions::session_params` keeps of a run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionParams {
    /// Workload name ("memcached", "apache", "custom", ...).  Informational: replay
    /// never instantiates the workload.
    pub workload: String,
    /// Recorded worker threads (equals the stream count).
    pub threads: usize,
    /// Cores per simulated machine.
    pub cores: usize,
    /// Warmup rounds before sampling (thread `i` ran `warmup_rounds + i`).
    pub warmup_rounds: usize,
    /// Workload rounds during the access-sampling phase.
    pub sample_rounds: usize,
    /// The IBS sampling policy the run used (replay re-applies it verbatim).
    pub sampling: SamplingPolicy,
    /// Top miss-heavy types histories were collected for.
    pub history_types: usize,
    /// History sets per profiled type.
    pub history_sets: usize,
    /// Base RNG seed (thread `i` used `base_seed + i`).
    pub base_seed: u64,
}

impl SessionParams {
    /// The profiler configuration of the thread that ran with `seed`: the one place a
    /// recorded setting becomes a profiler setting, so a live run and its replay
    /// cannot configure the profiler differently.
    pub fn dprof_config(&self, seed: u64) -> DprofConfig {
        DprofConfig {
            sampling: self.sampling,
            sample_rounds: self.sample_rounds,
            history_types: self.history_types,
            history: HistoryConfig {
                history_sets: self.history_sets,
                seed,
                ..Default::default()
            },
        }
    }

    /// Holds the counts replay loops over to what the file can back.  Replay steps the
    /// profiler one round marker at a time — `warmup_rounds` then `sample_rounds`
    /// times, then at least once per history set — and a stream of `n` events holds
    /// at most `n` markers: a header asking for more than its shortest stream has
    /// events describes no recording, and would spin replay on an exhausted stream.
    /// `cores` sizes the replayed kernel's per-core tables and is the machine's count.
    pub(crate) fn check(
        &self,
        machine: &MachineConfig,
        shortest_stream: Option<usize>,
    ) -> Result<(), TraceError> {
        if self.cores != machine.hierarchy.cores {
            return Err(TraceError::Corrupt(format!(
                "session of {} cores on a machine of {}",
                self.cores, machine.hierarchy.cores
            )));
        }
        let Some(events) = shortest_stream else {
            return Ok(());
        };
        let rounds = self.warmup_rounds.checked_add(self.sample_rounds);
        if rounds.is_none_or(|rounds| rounds > events) {
            return Err(TraceError::Corrupt(format!(
                "{} warmup and {} sample rounds, but the shortest stream has {events} events",
                self.warmup_rounds, self.sample_rounds
            )));
        }
        if self.history_sets > events {
            return Err(TraceError::Corrupt(format!(
                "{} history sets, but the shortest stream has {events} events",
                self.history_sets
            )));
        }
        Ok(())
    }
}

/// One dumped field of a registered type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDump {
    /// Field name.
    pub name: String,
    /// Byte offset within the type.
    pub offset: u64,
    /// Field size in bytes.
    pub size: u64,
}

/// One dumped type-registry entry.  Dumps are ordered by type id, so re-registering
/// them in order reproduces the live run's `TypeId` assignment exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeDump {
    /// Type name.
    pub name: String,
    /// Human-readable description.
    pub description: String,
    /// Object size in bytes.
    pub size: u64,
    /// Named fields.
    pub fields: Vec<FieldDump>,
}

/// One recorded worker thread: its identity, its symbol/type universe and its event
/// stream.  Symbols are ordered by `FunctionId`, so re-interning them in order
/// reproduces the live id assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadStream {
    /// The seed this thread ran with (`base_seed + thread_index`).
    pub seed: u64,
    /// Application requests completed during the profiled window (replay cannot
    /// recount them — there is no application — so the live value is carried).
    pub requests: u64,
    /// Interned symbol names, ordered by id.
    pub symbols: Vec<String>,
    /// Registered types, ordered by id.
    pub types: Vec<TypeDump>,
    /// The recorded event stream, in wire form (a `Vec<SessionEvent>` converts with
    /// `.into()`, an iterator of events with `.collect()`).
    pub events: EncodedEvents,
}

/// A fully recorded stream plus the machine configuration it ran on, as handed from
/// the profiling driver to the trace writer.
#[derive(Debug, Clone)]
pub struct RecordedStream {
    /// Configuration of the machine that produced the stream.
    pub machine: MachineConfig,
    /// The stream itself.
    pub stream: ThreadStream,
    /// Most events the machine's recorder held at once while the stream was
    /// produced: the driver drains it into the encoder every round, so this is one
    /// round's events, not the session's.
    pub peak_buffered_events: usize,
}

impl RecordedStream {
    /// Ends a live recording: drains what followed the machine's last round mark into
    /// `encoder`, and dumps the symbols and types registered so far (in id order, so a
    /// replay re-registers the same ids) beside the events.
    pub fn capture(
        machine: &mut Machine,
        types: &TypeRegistry,
        seed: u64,
        requests: u64,
        mut encoder: EventEncoder,
    ) -> RecordedStream {
        machine.drain_session_events(|events| encoder.extend(events));
        let symbols = machine.symbols.iter().map(|(_, name)| name.to_string());
        let types = types.iter().map(|t| TypeDump {
            name: t.name.clone(),
            description: t.description.clone(),
            size: t.size,
            fields: (t.fields.iter())
                .map(|f| FieldDump {
                    name: f.name.clone(),
                    offset: f.offset,
                    size: f.size,
                })
                .collect(),
        });
        RecordedStream {
            machine: *machine.config(),
            stream: ThreadStream {
                seed,
                requests,
                symbols: symbols.collect(),
                types: types.collect(),
                events: encoder.finish(),
            },
            peak_buffered_events: machine.session_peak_events(),
        }
    }
}

/// One profiled thread, live or replayed: what [`crate::profile_window`] measured, plus
/// the requests its caller counted and, for a recording live run, its stream.
#[derive(Debug)]
pub struct ThreadRun {
    /// Thread index (0-based; a replayed stream's index).
    pub thread: usize,
    /// The seed this thread ran with.
    pub seed: u64,
    /// The full DProf profile.
    pub profile: DprofProfile,
    /// Type names for every `TypeId` appearing in the profile's maps.  The shard
    /// does not need them (every view but the data profile names its types, and
    /// data-profile rows carry their names); the benchmark harness builds and reads
    /// them.
    pub type_names: HashMap<TypeId, String>,
    /// Application requests completed while the profiler was attached (a replay
    /// carries the recorded count).
    pub requests: u64,
    /// Simulated elapsed seconds of the profiled window (warmup excluded).
    pub elapsed_seconds: f64,
    /// Total simulated cycles (all cores) spent in the profiled window.
    pub total_cycles: u64,
    /// Fraction of profiled-window cycles spent in profiling interrupts.
    pub profiling_fraction: f64,
    /// The recorded session stream, when the live run recorded one.
    pub recorded: Option<RecordedStream>,
}

impl ThreadRun {
    /// Simulated requests per second while profiled.
    pub fn rps(&self) -> f64 {
        if self.elapsed_seconds > 0.0 {
            self.requests as f64 / self.elapsed_seconds
        } else {
            0.0
        }
    }

    /// The run as a mergeable shard; `ordinal` places it in the canonical fold order.
    pub fn shard(&self, ordinal: u64) -> ProfileShard {
        ProfileShard::from_profile(
            &self.profile,
            ShardMeta {
                thread: self.thread,
                seed: self.seed,
                requests: self.requests,
                rps: self.rps(),
                profiling_fraction: self.profiling_fraction,
                samples: self.profile.samples.len() as u64,
                total_cycles: self.total_cycles,
            },
            ordinal,
        )
    }
}

/// An in-memory `.dtrace` file.
#[derive(Debug, Clone)]
pub struct TraceFile {
    /// What the trace contains.
    pub kind: TraceKind,
    /// Machine configuration shared by all streams.
    pub machine: MachineConfig,
    /// Session parameters.
    pub params: SessionParams,
    /// Per-thread streams.
    pub streams: Vec<ThreadStream>,
}

fn put_geometry(out: &mut Vec<u8>, g: &CacheGeometry) {
    put_varint(out, g.line_size as u64);
    put_varint(out, g.ways as u64);
    put_varint(out, g.sets as u64);
}

/// Most slots (`sets * ways`) one cache level of a trace's machine may declare.  The
/// simulator allocates ten bytes a slot before the first event is read; the paper's L3
/// has 2^17.
const MAX_CACHE_SLOTS: usize = 1 << 24;

/// Largest line size a trace's machine may declare: the utilization tally keeps one
/// bit per 8-byte granule of a line in a `u8`.
const MAX_LINE_SIZE: usize = 8 * sim_cache::MAX_GRANULES_PER_LINE;

/// One cache level's geometry.  The simulator's tables are sized from it, so every
/// field is bounded here, the error naming the level and the value.
fn get_geometry(bytes: &[u8], pos: &mut usize, level: &str) -> Result<CacheGeometry, TraceError> {
    let line_size = get_varint(bytes, pos)? as usize;
    let ways = get_varint(bytes, pos)? as usize;
    let sets = get_varint(bytes, pos)? as usize;
    let invalid = |what: String| {
        Err(TraceError::Corrupt(format!(
            "{level} cache geometry: {what}"
        )))
    };
    if !line_size.is_power_of_two() || !(8..=MAX_LINE_SIZE).contains(&line_size) {
        return invalid(format!(
            "line size {line_size} is not a power of two in 8..={MAX_LINE_SIZE}"
        ));
    }
    if !(1..=CacheGeometry::MAX_WAYS).contains(&ways) {
        return invalid(format!(
            "{ways} ways, 1..={} supported",
            CacheGeometry::MAX_WAYS
        ));
    }
    if !sets.is_power_of_two() {
        return invalid(format!("{sets} sets is not a power of two"));
    }
    if sets
        .checked_mul(ways)
        .is_none_or(|slots| slots > MAX_CACHE_SLOTS)
    {
        return invalid(format!(
            "{sets} sets of {ways} ways is more than {MAX_CACHE_SLOTS} slots"
        ));
    }
    Ok(CacheGeometry {
        line_size,
        ways,
        sets,
    })
}

fn put_machine(out: &mut Vec<u8>, m: &MachineConfig) {
    put_varint(out, m.hierarchy.cores as u64);
    put_geometry(out, &m.hierarchy.l1);
    put_geometry(out, &m.hierarchy.l2);
    put_geometry(out, &m.hierarchy.l3);
    let lat = &m.hierarchy.latency;
    for v in [
        lat.l1,
        lat.l2,
        lat.l3,
        lat.remote_cache,
        lat.dram,
        lat.upgrade,
    ] {
        put_varint(out, v);
    }
    put_varint(out, m.cycles_per_second);
    put_varint(out, m.op_cost);
}

pub(crate) fn get_machine(bytes: &[u8], pos: &mut usize) -> Result<MachineConfig, TraceError> {
    let cores = get_varint(bytes, pos)? as usize;
    if cores == 0 || cores > sim_cache::MAX_CORES {
        return Err(TraceError::Corrupt(format!("{cores} cores out of range")));
    }
    let l1 = get_geometry(bytes, pos, "L1")?;
    let l2 = get_geometry(bytes, pos, "L2")?;
    let l3 = get_geometry(bytes, pos, "L3")?;
    for (level, g) in [("L2", l2), ("L3", l3)] {
        if g.line_size != l1.line_size {
            return Err(TraceError::Corrupt(format!(
                "{level} cache geometry: line size {} differs from the L1's {}",
                g.line_size, l1.line_size
            )));
        }
    }
    let mut lat = [0u64; 6];
    for v in &mut lat {
        *v = get_varint(bytes, pos)?;
    }
    let cycles_per_second = get_varint(bytes, pos)?;
    let op_cost = get_varint(bytes, pos)?;
    Ok(MachineConfig {
        hierarchy: HierarchyConfig {
            cores,
            l1,
            l2,
            l3,
            latency: LatencyModel {
                l1: lat[0],
                l2: lat[1],
                l3: lat[2],
                remote_cache: lat[3],
                dram: lat[4],
                upgrade: lat[5],
            },
        },
        cycles_per_second,
        op_cost,
    })
}

fn put_sampling(out: &mut Vec<u8>, policy: SamplingPolicy) {
    let (tag, value) = match policy {
        SamplingPolicy::Disabled => (0u64, 0u64),
        SamplingPolicy::Fixed { interval_ops } => (1, interval_ops),
        SamplingPolicy::Adaptive { budget } => (2, budget),
    };
    put_varint(out, tag);
    put_varint(out, value);
}

fn get_sampling(bytes: &[u8], pos: &mut usize) -> Result<SamplingPolicy, TraceError> {
    let tag = get_varint(bytes, pos)?;
    let value = get_varint(bytes, pos)?;
    match (tag, value) {
        (0, _) => Ok(SamplingPolicy::Disabled),
        (1, v) if v > 0 => Ok(SamplingPolicy::Fixed { interval_ops: v }),
        (2, v) if v > 0 => Ok(SamplingPolicy::Adaptive { budget: v }),
        (tag, value) => Err(TraceError::Corrupt(format!(
            "invalid sampling policy (tag {tag}, value {value})"
        ))),
    }
}

fn put_params(out: &mut Vec<u8>, p: &SessionParams) {
    put_string(out, &p.workload);
    put_varint(out, p.threads as u64);
    put_varint(out, p.cores as u64);
    put_varint(out, p.warmup_rounds as u64);
    put_varint(out, p.sample_rounds as u64);
    put_sampling(out, p.sampling);
    put_varint(out, p.history_types as u64);
    put_varint(out, p.history_sets as u64);
    put_varint(out, p.base_seed);
}

/// The session parameters after the workload's name, which the reader reads as a string
/// of its own, so that its length is checked against the file before it is buffered.
pub(crate) fn get_params(
    workload: &str,
    bytes: &[u8],
    pos: &mut usize,
) -> Result<SessionParams, TraceError> {
    Ok(SessionParams {
        workload: workload.to_string(),
        threads: get_varint(bytes, pos)? as usize,
        cores: get_varint(bytes, pos)? as usize,
        warmup_rounds: get_varint(bytes, pos)? as usize,
        sample_rounds: get_varint(bytes, pos)? as usize,
        sampling: get_sampling(bytes, pos)?,
        history_types: get_varint(bytes, pos)? as usize,
        history_sets: get_varint(bytes, pos)? as usize,
        base_seed: get_varint(bytes, pos)?,
    })
}

/// A stream up to its event region: identity, symbol and type tables, and the region's
/// declared event count and byte length.
fn put_stream_header(out: &mut Vec<u8>, s: &ThreadStream) {
    put_varint(out, s.seed);
    put_varint(out, s.requests);
    put_varint(out, s.symbols.len() as u64);
    for name in &s.symbols {
        put_string(out, name);
    }
    put_varint(out, s.types.len() as u64);
    for t in &s.types {
        put_string(out, &t.name);
        put_string(out, &t.description);
        put_varint(out, t.size);
        put_varint(out, t.fields.len() as u64);
        for f in &t.fields {
            put_string(out, &f.name);
            put_varint(out, f.offset);
            put_varint(out, f.size);
        }
    }
    put_varint(out, s.events.len() as u64);
    put_varint(out, s.events.bytes().len() as u64);
}

/// Largest access length a stream may carry.  Live accesses are at most a few KiB
/// (payload copies chunk at 64 bytes); the generous 1 MiB bound exists purely so a
/// crafted trace cannot make replay's line-split loop iterate ~2^54 times.  An `Alloc`
/// event's size has the same bound, for the same reason: the address index walks back
/// `size / 4096` pages for an object's base, and no access could reach past it anyway.
/// What-if's sharing walk relies on it too: it packs an object's granule in 17 bits.
pub(crate) const MAX_ACCESS_LEN: u64 = 1 << 20;

impl TraceFile {
    /// Writes the trace in its on-disk byte form — the one container writer.  The
    /// prologue and each stream's header are a few hundred bytes assembled in a
    /// buffer; each event region, already encoded, goes out as it is held.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut head = Vec::new();
        head.extend_from_slice(MAGIC);
        head.extend_from_slice(&VERSION.to_le_bytes());
        head.push(self.kind.to_byte());
        put_machine(&mut head, &self.machine);
        put_params(&mut head, &self.params);
        put_varint(&mut head, self.streams.len() as u64);
        for s in &self.streams {
            put_stream_header(&mut head, s);
            w.write_all(&head)?;
            w.write_all(s.events.bytes())?;
            head.clear();
        }
        // Only a trace with no streams still holds its prologue here.
        w.write_all(&head)
    }

    /// Serializes the trace to its on-disk byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out)
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Writes the trace to a new file at `path`.
    pub fn write(&self, path: &str) -> Result<(), String> {
        std::fs::File::create(path)
            .and_then(|mut file| self.write_to(&mut file))
            .map_err(|e| format!("cannot write {path}: {e}"))
    }
}

/// Shared fixtures for this crate's tests (the streaming decoder's tests reuse them).
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use crate::stream::TraceReader;
    use sim_cache::AccessKind;
    use sim_machine::{FunctionId, SessionEvent};

    /// One plausible recorded stream with a small mixed event tail.
    pub(crate) fn sample_stream() -> ThreadStream {
        ThreadStream {
            seed: 3471,
            requests: 120,
            symbols: vec!["__alloc_skb".into(), "udp_rcv".into()],
            types: vec![TypeDump {
                name: "skbuff".into(),
                description: "packet bookkeeping structure".into(),
                size: 256,
                fields: vec![FieldDump {
                    name: "len".into(),
                    offset: 24,
                    size: 4,
                }],
            }],
            events: EncodedEvents::from(vec![
                SessionEvent::RoundEnd,
                SessionEvent::Access {
                    core: 0,
                    ip: FunctionId(1),
                    addr: 0x1_0000_1000,
                    len: 8,
                    kind: AccessKind::Write,
                },
                SessionEvent::Alloc {
                    core: 0,
                    type_id: 0,
                    size: 256,
                    addr: 0x1_0000_2000,
                    cycle: 42,
                    hookable: true,
                },
                SessionEvent::Free {
                    core: 1,
                    addr: 0x1_0000_2000,
                    cycle: 99,
                },
                SessionEvent::RoundEnd,
            ]),
        }
    }

    /// A stream's events back out of their wire form: the sample file holding them, on
    /// a machine of every core a trace may name, decoded through [`spooled`].
    pub(crate) fn decoded(events: &EncodedEvents) -> Vec<SessionEvent> {
        let mut file = sample_file();
        file.machine = MachineConfig::with_cores(sim_cache::MAX_CORES);
        file.params.cores = sim_cache::MAX_CORES;
        file.streams[0].events = events.clone();
        spooled(&file.encode(), |r| r.events(0)?.collect()).expect("encoded events decode")
    }

    /// A complete single-stream full-session trace on the small test machine.
    pub(crate) fn sample_file() -> TraceFile {
        TraceFile {
            kind: TraceKind::FullSession,
            machine: MachineConfig::small_test(),
            params: SessionParams {
                workload: "memcached".into(),
                threads: 1,
                cores: 2,
                // No rounds and no history sets: tests swap the event region for
                // short, empty and lying ones, and the prologue holds those counts
                // to the shortest stream's event count.
                warmup_rounds: 0,
                sample_rounds: 0,
                sampling: SamplingPolicy::Fixed { interval_ops: 200 },
                history_types: 2,
                history_sets: 0,
                base_seed: 3471,
            },
            streams: vec![sample_stream()],
        }
    }

    /// Hands `read` the [`TraceReader`] of `bytes`, which is the only way to decode
    /// them: spooled to a fresh temp file and opened.
    fn spooled<T>(
        bytes: &[u8],
        read: impl FnOnce(&TraceReader) -> Result<T, TraceError>,
    ) -> Result<T, TraceError> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "dprof-trace-unit-{}-{}.dtrace",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, bytes).unwrap();
        let result = TraceReader::open(path.to_str().unwrap()).and_then(|r| read(&r));
        let _ = std::fs::remove_file(&path);
        result
    }

    /// Decodes `bytes` with every stream walked once into memory.
    pub(crate) fn read_bytes(bytes: &[u8]) -> Result<TraceFile, TraceError> {
        spooled(bytes, |r| {
            let streams = (r.headers().iter().enumerate())
                .map(|(thread, h)| {
                    Ok(ThreadStream {
                        seed: h.seed,
                        requests: h.requests,
                        symbols: h.symbols.clone(),
                        types: h.types.clone(),
                        events: r.events(thread)?.collect::<Result<_, _>>()?,
                    })
                })
                .collect::<Result<_, TraceError>>()?;
            Ok(TraceFile {
                kind: TraceKind::FullSession,
                machine: r.machine,
                params: r.params.clone(),
                streams,
            })
        })
    }

    /// The sample file's bytes with its stream's event region replaced: the header
    /// declares `event_count` events in `byte_len` bytes, and `tail` (normally the
    /// event bytes) follows — so a test can make either declaration lie.
    pub(crate) fn with_event_region(event_count: u64, byte_len: u64, tail: &[u8]) -> Vec<u8> {
        let mut file = sample_file();
        file.streams[0].events = EncodedEvents::default();
        let mut bytes = file.encode();
        bytes.truncate(bytes.len() - 2); // the empty region's `event_count=0 byte_len=0`
        put_varint(&mut bytes, event_count);
        put_varint(&mut bytes, byte_len);
        bytes.extend_from_slice(tail);
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::{read_bytes, sample_file};
    use super::*;
    use crate::codec::OP_ROUND_END;

    #[test]
    fn file_round_trips() {
        let file = sample_file();
        let back = read_bytes(&file.encode()).expect("decodes");
        assert_eq!(back.kind, file.kind);
        assert_eq!(back.params, file.params);
        assert_eq!(back.streams, file.streams);
        assert_eq!(back.machine.hierarchy.cores, 2);
        assert_eq!(back.machine.hierarchy.l1, file.machine.hierarchy.l1);
    }

    #[test]
    fn sampling_policies_round_trip_in_the_header() {
        for policy in [
            SamplingPolicy::Disabled,
            SamplingPolicy::Fixed { interval_ops: 64 },
            SamplingPolicy::Adaptive { budget: 5_000 },
        ] {
            let mut file = sample_file();
            file.params.sampling = policy;
            let back = read_bytes(&file.encode()).expect("decodes");
            assert_eq!(back.params.sampling, policy);
        }
    }

    #[test]
    fn corrupt_sampling_policy_rejected() {
        let file = sample_file();
        // Re-encode the header by hand up to the sampling policy, with an invalid tag.
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(1); // kind
        put_machine(&mut out, &file.machine);
        put_string(&mut out, &file.params.workload);
        for v in [1u64, 2, 0, 0] {
            put_varint(&mut out, v);
        }
        put_varint(&mut out, 9); // invalid sampling tag
        put_varint(&mut out, 1);
        assert!(
            matches!(read_bytes(&out), Err(TraceError::Corrupt(m)) if m.contains("sampling")),
            "invalid sampling tag must be rejected"
        );
        // A fixed policy with a zero value is equally invalid.
        let mut zeroed = Vec::new();
        zeroed.extend_from_slice(&out[..out.len() - 2]);
        put_varint(&mut zeroed, 1); // fixed
        put_varint(&mut zeroed, 0); // zero interval
        assert!(matches!(read_bytes(&zeroed), Err(TraceError::Corrupt(_))));
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut bytes = sample_file().encode();
        assert_eq!(read_bytes(b"NOTATRACE").unwrap_err(), TraceError::BadMagic);
        assert_eq!(
            read_bytes(b"definitely not a trace").unwrap_err(),
            TraceError::BadMagic
        );
        bytes[8] = 0xfe; // clobber the version
        assert!(matches!(
            read_bytes(&bytes),
            Err(TraceError::UnsupportedVersion(_))
        ));
    }

    /// The sample file with `edit` applied to its machine, decoded: `Ok`, or the
    /// `Corrupt` message.
    fn with_machine(edit: impl Fn(&mut HierarchyConfig)) -> Result<(), String> {
        let mut file = sample_file();
        edit(&mut file.machine.hierarchy);
        match read_bytes(&file.encode()) {
            Ok(_) => Ok(()),
            Err(TraceError::Corrupt(m)) => Err(m),
            Err(other) => panic!("not a Corrupt error: {other:?}"),
        }
    }

    #[test]
    fn impossible_cache_geometry_rejected() {
        let corrupt = |edit: fn(&mut CacheGeometry)| matches!(with_machine(|h| edit(&mut h.l2)), Err(m) if m.contains("L2 cache geometry"));
        assert!(corrupt(|g| g.line_size = 0));
        assert!(corrupt(|g| g.line_size = 48));
        assert!(corrupt(|g| g.sets = 0));
        assert!(corrupt(|g| g.sets = 12));
        assert!(corrupt(|g| g.ways = 0));
    }

    #[test]
    fn cache_geometry_is_bounded_where_the_tables_are_sized_from_it() {
        let line_size = |size: usize| {
            with_machine(|h| {
                for g in [&mut h.l1, &mut h.l2, &mut h.l3] {
                    g.line_size = size;
                }
            })
        };
        assert_eq!(line_size(8), Ok(()));
        assert_eq!(line_size(64), Ok(()));
        for size in [1, 4, 128, 1 << 40] {
            let message = line_size(size).unwrap_err();
            assert!(
                message.contains(&format!("L1 cache geometry: line size {size} ")),
                "{message}"
            );
        }
        // One line size for the three levels.
        let message = with_machine(|h| h.l3.line_size = 32).unwrap_err();
        assert!(
            message.contains("L3 cache geometry: line size 32 differs from the L1's 64"),
            "{message}"
        );

        assert_eq!(with_machine(|h| h.l1.ways = 255), Ok(()));
        for ways in [256, 1 << 40] {
            let message = with_machine(|h| h.l1.ways = ways).unwrap_err();
            assert!(
                message.contains(&format!("L1 cache geometry: {ways} ways")),
                "{message}"
            );
        }

        let slots = |sets: usize, ways: usize| {
            with_machine(|h| {
                h.l3.sets = sets;
                h.l3.ways = ways;
            })
        };
        assert_eq!(slots(MAX_CACHE_SLOTS, 1), Ok(()));
        assert_eq!(slots(MAX_CACHE_SLOTS / 2, 2), Ok(()));
        for (sets, ways) in [
            (MAX_CACHE_SLOTS * 2, 1),
            (MAX_CACHE_SLOTS / 2, 3),
            (1 << 40, 16),
            (1 << 62, 255), // the product wraps
        ] {
            let message = slots(sets, ways).unwrap_err();
            assert!(
                message.contains(&format!("L3 cache geometry: {sets} sets of {ways} ways")),
                "{message}"
            );
        }
    }

    #[test]
    fn round_counts_are_held_to_the_shortest_streams_event_count() {
        let with_params = |edit: fn(&mut SessionParams)| {
            let mut file = sample_file();
            // A second, shorter stream: two events against the first one's five.
            let mut short = file.streams[0].clone();
            short.events = EncodedEvents::from(vec![sim_machine::SessionEvent::RoundEnd; 2]);
            file.streams.push(short);
            edit(&mut file.params);
            match read_bytes(&file.encode()) {
                Ok(_) => Ok(()),
                Err(TraceError::Corrupt(m)) => Err(m),
                Err(other) => panic!("not a Corrupt error: {other:?}"),
            }
        };
        assert_eq!(with_params(|_| {}), Ok(()));
        assert_eq!(
            with_params(|p| (p.warmup_rounds, p.sample_rounds) = (1, 1)),
            Ok(())
        );
        assert_eq!(with_params(|p| p.history_sets = 2), Ok(()));
        for edit in [
            (|p| (p.warmup_rounds, p.sample_rounds) = (1, 2)) as fn(&mut SessionParams),
            |p| p.warmup_rounds = 1 << 51,
            |p| p.sample_rounds = 1 << 51,
            |p| (p.warmup_rounds, p.sample_rounds) = (usize::MAX, 1),
        ] {
            let message = with_params(edit).unwrap_err();
            assert!(
                message.contains("sample rounds, but the shortest stream has 2 events"),
                "{message}"
            );
        }
        let message = with_params(|p| p.history_sets = 3).unwrap_err();
        assert!(
            message.contains("3 history sets, but the shortest stream has 2 events"),
            "{message}"
        );
        let message = with_params(|p| p.cores = 1 << 40).unwrap_err();
        assert!(
            message.contains("session of 1099511627776 cores on a machine of 2"),
            "{message}"
        );
    }

    #[test]
    fn a_stream_cannot_declare_more_events_than_bytes() {
        use super::tests_support::with_event_region;
        assert!(matches!(
            read_bytes(&with_event_region(3, 2, &[OP_ROUND_END; 2])),
            Err(TraceError::Corrupt(m)) if m.contains("stream 0 declares 3 events in 2 bytes")
        ));
        assert!(read_bytes(&with_event_region(2, 2, &[OP_ROUND_END; 2])).is_ok());
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample_file().encode();
        for cut in 0..bytes.len() {
            assert!(
                read_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_file().encode();
        bytes.push(0);
        assert!(matches!(read_bytes(&bytes), Err(TraceError::Corrupt(_))));
    }
}
