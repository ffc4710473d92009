//! Full-pipeline trace replay.
//!
//! A recorded stream is the machine's complete event history from birth, punctuated by
//! round markers.  Replay rebuilds the identical universe — a machine with the recorded
//! configuration and pre-interned symbols, a kernel shell whose type registry and
//! allocator are rebuilt from the stream's dumps and events — and then runs the *real*
//! profiler ([`Dprof::run`]) with a `step` closure that feeds events up to the next
//! round marker instead of stepping a workload.
//!
//! Determinism does the rest: the replayed machine's clocks, cache state, IBS samples
//! and watchpoint hits evolve exactly as the live run's did, the profiler re-makes the
//! same decisions (same config, same seeds, same sample streams), and the resulting
//! [`DprofProfile`] — and therefore the rendered report — is byte-identical to the
//! live run's.
//!
//! There is one driver, generic over where the events come from ([`TraceSource`]): a
//! [`crate::TraceReader`] decodes each stream incrementally from its own file handle,
//! so peak memory is bounded by the simulation state, not the trace size; a
//! [`crate::TraceFile`] walks streams already in memory.  This module also owns the two
//! pieces every other walk over a trace shares: `apply_event`, the one place a
//! recorded event meets the machine and kernel, and `for_each_stream`, the one
//! worker-thread-per-stream fan-out.

use crate::format::TraceKind;
use crate::source::TraceSource;
use crate::TraceError;
use dprof_core::{Dprof, DprofConfig, DprofProfile};
use sim_kernel::{KernelState, TypeId, TypeRegistry};
use sim_machine::{Machine, SessionEvent};
use std::collections::HashMap;

/// The outcome of replaying one recorded stream: everything the CLI needs to build a
/// `ThreadRun` and merge it alongside (or instead of) live runs.
#[derive(Debug)]
pub struct ReplayRun {
    /// Stream index (the live run's thread index).
    pub thread: usize,
    /// The seed the recorded thread ran with.
    pub seed: u64,
    /// The full profile produced by the replayed profiler.
    pub profile: DprofProfile,
    /// Type names for every `TypeId` appearing in the profile's maps.
    pub type_names: HashMap<TypeId, String>,
    /// Application requests completed in the profiled window (carried from the trace).
    pub requests: u64,
    /// Simulated elapsed seconds of the profiled window.
    pub elapsed_seconds: f64,
    /// Total simulated cycles (all cores) spent in the profiled window.
    pub total_cycles: u64,
    /// Fraction of profiled-window cycles spent in profiling interrupts.
    pub profiling_fraction: f64,
    /// Events left unconsumed after the profiler finished.  Zero for a faithful
    /// replay; non-zero means the replayed profiler diverged from the recording
    /// (e.g. a trace produced by a different build).
    pub trailing_events: usize,
}

/// Rebuilds the universe stream `thread` was recorded in: a machine with the recorded
/// configuration and pre-interned symbols, and a replay kernel whose type registry
/// matches the recorded type ids.
///
/// Symbols are interned in recorded id order (so every `FunctionId` in the event
/// stream resolves to the same name) and the type registry is re-registered in
/// recorded id order (so every `TypeId` matches).  The kernel shell must be built
/// *after* pre-interning: its own interning then maps onto existing ids instead of
/// minting new ones.
pub(crate) fn rebuild_universe(source: &impl TraceSource, thread: usize) -> (Machine, KernelState) {
    let stream = source.stream(thread);
    let mut machine = Machine::new(source.machine());
    for name in stream.symbols {
        machine.fn_id(name);
    }
    let mut registry = TypeRegistry::new();
    for t in stream.types {
        let id = registry.register(&t.name, &t.description, t.size);
        for f in &t.fields {
            registry.add_field(id, &f.name, f.offset, f.size);
        }
    }
    let kernel = KernelState::for_replay(&mut machine, source.params().cores, registry);
    (machine, kernel)
}

/// Applies one recorded event to the rebuilt universe.  Round markers carry no machine
/// effect; what a round boundary means is up to the caller.
///
/// `#[inline]` because the replay loops are generic over the event source and so are
/// instantiated in the calling crate: without it this is an out-of-line call per event
/// (measured at ~20 ns an event, 15 % of a what-if measurement pass).
#[inline]
pub(crate) fn apply_event(ev: SessionEvent, machine: &mut Machine, kernel: &mut KernelState) {
    match ev {
        SessionEvent::RoundEnd => {}
        SessionEvent::Access {
            core,
            ip,
            addr,
            len,
            kind,
        } => {
            machine.access(core as usize, ip, addr, len, kind);
        }
        SessionEvent::Compute { core, ip, cycles } => {
            machine.compute(core as usize, ip, cycles);
        }
        SessionEvent::Alloc {
            core,
            type_id,
            size,
            addr,
            cycle,
            hookable,
        } => kernel.allocator.replay_alloc(
            machine,
            core as usize,
            TypeId(type_id),
            size,
            addr,
            cycle,
            hookable,
        ),
        SessionEvent::Free { core, addr, cycle } => {
            kernel
                .allocator
                .replay_free(machine, core as usize, addr, cycle)
        }
    }
}

/// A cursor feeding recorded events into the machine/kernel, one round per call.
struct EventCursor<I> {
    events: I,
    /// Events consumed so far.
    consumed: usize,
    /// Set if the cursor ran dry mid-round — replay divergence, reported to the user.
    exhausted: bool,
    /// A decode error ends the stream and is parked here: the profiler's `step`
    /// closure cannot fail, so the caller inspects it once the profiler pass finishes.
    error: Option<TraceError>,
}

impl<I: Iterator<Item = Result<SessionEvent, TraceError>>> EventCursor<I> {
    /// Applies events up to and including the next round marker.
    fn run_round(&mut self, machine: &mut Machine, kernel: &mut KernelState) {
        for ev in self.events.by_ref() {
            match ev {
                Ok(ev) => {
                    self.consumed += 1;
                    if matches!(ev, SessionEvent::RoundEnd) {
                        return;
                    }
                    apply_event(ev, machine, kernel);
                }
                Err(e) => {
                    self.error = Some(e);
                    break;
                }
            }
        }
        self.exhausted = true;
    }
}

/// Replays one stream of a full-session trace through the profiler pipeline.  Decode
/// errors surface as `Err`.
///
/// # Panics
/// Panics if `thread` is out of range.
pub fn replay_stream_streaming(
    source: &impl TraceSource,
    thread: usize,
) -> Result<ReplayRun, String> {
    let stream = source.stream(thread);
    let params = source.params();
    let (mut machine, mut kernel) = rebuild_universe(source, thread);
    let mut cursor = EventCursor {
        events: source.events(thread)?,
        consumed: 0,
        exhausted: false,
        error: None,
    };

    // Segment 0: kernel/workload setup traffic (everything before the first marker).
    cursor.run_round(&mut machine, &mut kernel);
    // Warmup, phase-shifted per thread exactly as the live driver ran it.
    for _ in 0..params.warmup_rounds + thread {
        cursor.run_round(&mut machine, &mut kernel);
    }

    // Snapshot counters after warmup, mirroring the live driver's measurement window.
    let elapsed_before = machine.elapsed_seconds();
    let cycles_before: u64 = (0..machine.cores()).map(|c| machine.clock(c)).sum();
    let profiling_before = machine.total_profiling_cycles();

    let config = DprofConfig {
        sampling: params.sampling,
        sample_rounds: params.sample_rounds,
        history_types: params.history_types,
        history: dprof_core::HistoryConfig {
            history_sets: params.history_sets,
            seed: stream.seed,
            ..Default::default()
        },
        ..Default::default()
    };

    let profile = Dprof::new(config).run(&mut machine, &mut kernel, |m, k| cursor.run_round(m, k));
    if let Some(e) = cursor.error {
        return Err(e.into());
    }

    let mut type_names: HashMap<TypeId, String> = profile
        .data_profile
        .iter()
        .map(|row| (row.type_id, row.name.clone()))
        .collect();
    for ty in profile.data_flows.keys() {
        type_names
            .entry(*ty)
            .or_insert_with(|| format!("type#{}", ty.0));
    }

    let total_cycles: u64 =
        (0..machine.cores()).map(|c| machine.clock(c)).sum::<u64>() - cycles_before;
    let profiling = machine.total_profiling_cycles() - profiling_before;
    Ok(ReplayRun {
        thread,
        seed: stream.seed,
        profile,
        type_names,
        requests: stream.requests,
        elapsed_seconds: machine.elapsed_seconds() - elapsed_before,
        total_cycles,
        profiling_fraction: if total_cycles == 0 {
            0.0
        } else {
            profiling as f64 / total_cycles as f64
        },
        trailing_events: stream.event_count - cursor.consumed + usize::from(cursor.exhausted),
    })
}

/// Replays every stream of a full-session trace, one worker thread per stream,
/// returning the runs ordered by stream index.
pub fn replay_all_streaming(source: &impl TraceSource) -> Result<Vec<ReplayRun>, String> {
    for_each_stream(source, |thread| replay_stream_streaming(source, thread))
}

/// Runs `f(thread)` for every stream of a full-session trace on scoped worker threads
/// and returns the results ordered by stream index.  Errors and worker panics are
/// surfaced as an `Err` naming the stream.
pub(crate) fn for_each_stream<T: Send>(
    source: &impl TraceSource,
    f: impl Fn(usize) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    if source.kind() != TraceKind::FullSession {
        return Err(
            "trace is access-only (e.g. a bench capture); replay and what-if analysis need a \
             full-session trace"
                .into(),
        );
    }
    if source.stream_count() == 0 {
        return Err("trace contains no streams".into());
    }
    let f = &f;
    // Even a single stream runs on a scoped worker thread: a panic while applying a
    // semantically inconsistent event stream (e.g. a crafted free of a never allocated
    // address) then surfaces as a clean error instead of aborting the caller.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..source.stream_count())
            .map(|thread| scope.spawn(move || f(thread)))
            .collect();
        // Join every handle before returning: short-circuiting on the first failure
        // would leave panicked threads for the scope to implicitly join, and the
        // scope would then re-panic instead of letting us report a clean error.
        let joined: Vec<_> = handles.into_iter().map(|handle| handle.join()).collect();
        joined
            .into_iter()
            .enumerate()
            .map(|(thread, result)| {
                result
                    .unwrap_or_else(|_| Err("replay thread panicked".into()))
                    .map_err(|e| format!("stream {thread}: {e}"))
            })
            .collect()
    })
}
