//! # dprof-trace
//!
//! The `.dtrace` binary access-trace subsystem: a compact, versioned on-disk format for
//! recorded DProf sessions, plus the machinery to replay a trace through the *full*
//! profiler pipeline — IBS access sampling, watchpoint-based object access histories
//! and all four data-centric views — without instantiating a workload.
//!
//! A recorded session captures, per worker thread, the machine's complete externally
//! driven event stream from birth (see [`sim_machine::session`]): every memory access
//! with its attributed function, every compute step, every allocator address-set
//! mutation, and workload-round boundaries.  Because the simulator is deterministic,
//! re-running the real [`dprof_core::Dprof`] profiler against that stream reproduces
//! the live run exactly: the replayed report is **byte-identical** to the recorded
//! run's report, which is what lets CI gate on golden reports instead of smoke-checking
//! schemas.
//!
//! Layout:
//!
//! * [`codec`] — hand-rolled varint/zigzag primitives and the event *encoder*:
//!   per-core address deltas and `AccessReq`-run coalescing (no external dependencies).
//! * [`mod@format`] — the `.dtrace` container: magic, version, machine configuration,
//!   session parameters (and the profiler configuration they imply) and per-thread
//!   streams (symbol + type dumps, encoded events), and how to write one; beside them
//!   [`ThreadRun`], one profiled thread, live or replayed.
//! * [`stream`] — the one bytes→events decoder: [`TraceReader`] parses a file's
//!   prologue and [`EventReader`] decodes and validates a stream's events
//!   incrementally in bounded 64 KiB chunks.  It is the one way to read a file, and
//!   every replay, measurement and walk below reads its trace through it: a session
//!   just recorded is replayed from the file it was written to.
//! * [`replay`] — [`profile_window`], the one profiled window a live thread and a
//!   replayed stream share, the one replay driver, over a [`TraceReader`], and
//!   the one bounded fan-out independent replays run on: each job drives a fresh
//!   machine + replay kernel through the profiler on one of at most
//!   [`available_workers`] threads; results come back in job order as [`ThreadRun`]s,
//!   which [`ThreadRun::shard`] turns into the shards every merge folds.
//! * [`mod@line`] — lowering of session events to per-cache-line
//!   [`sim_cache::TraceEvent`] streams, which `dprof-bench`'s core-count grid replays
//!   through a bare hierarchy.
//! * [`mod@whatif`] — counterfactual transforms: replay a recorded stream against a
//!   hypothetical memory layout (`pad`/`localize`/`pin`/`shrink` fixes) and measure
//!   the makespan delta, the engine behind `dprof whatif`.
//! * [`mod@window`] — [`PackedWindow`]: a stream's events up to its last sampled round
//!   end, packed in memory at 16 bytes an event by the first pass over the stream and
//!   replayed by every what-if pass after it, so `dprof whatif` decodes a stream once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod format;
pub mod line;
pub mod replay;
pub mod stream;
pub mod whatif;
pub mod window;

pub use codec::{EncodedEvents, EventEncoder};
pub use format::{
    FieldDump, RecordedStream, SessionParams, ThreadRun, ThreadStream, TraceFile, TraceKind,
    TypeDump,
};
pub use replay::{
    available_workers, fan_out, for_each_stream, profile_window, replay_all_streaming,
    replay_and_measure_stream, replay_stream_streaming, session_streams,
};
pub use stream::{EventReader, StreamHeader, TraceReader};
pub use whatif::{
    analyze_sharing, analyze_sharing_unless, measure_all_streaming, measure_stream_streaming,
    measure_window, trace_type_names, validate_spec, FixSpec, SharingProfile, Transform,
    WhatifMeasure,
};
pub use window::PackedWindow;

/// Errors produced while decoding a `.dtrace` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file does not start with the `DPROFTRC` magic.
    BadMagic,
    /// The format version is not supported by this build.
    UnsupportedVersion(u16),
    /// The byte stream ended in the middle of a field.
    UnexpectedEof,
    /// A structurally invalid value (bad opcode, impossible geometry, length overflow).
    Corrupt(String),
    /// An I/O failure while streaming from disk.
    Io(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a dprof trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::UnexpectedEof => write!(f, "truncated trace (unexpected end of file)"),
            TraceError::Corrupt(why) => write!(f, "corrupt trace: {why}"),
            TraceError::Io(why) => write!(f, "trace i/o error: {why}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// The replay entry points report errors as strings (they also surface worker panics),
/// so `?` may turn a decode error into its message.
impl From<TraceError> for String {
    fn from(e: TraceError) -> String {
        e.to_string()
    }
}
