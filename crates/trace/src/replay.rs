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
//! [`dprof_core::DprofProfile`] — and therefore the rendered report — is
//! byte-identical to the live run's.  The window is not a copy of the live driver's:
//! both call [`profile_window`] with [`crate::SessionParams::dprof_config`] and both
//! produce a [`ThreadRun`].
//!
//! The profiled replay also records the makespan at the end of every sampled round,
//! without the cycles the machine booked to the profiler: the identity baseline `dprof
//! whatif --auto` would otherwise spend a profiler-free pass on
//! ([`replay_and_measure_stream`]).  The profiler steps every sampled round before its
//! history phase, so the baseline is complete when the profile is.  A round end costs
//! one max over the cores.  That replay also packs every event it applies up to the
//! last sampled round end into a [`PackedWindow`], which the candidate passes after it
//! replay instead of decoding the stream again; [`replay_stream_streaming`], what
//! `dprof replay` runs, packs nothing.
//!
//! There is one driver, and it reads a [`TraceReader`]: each stream is decoded
//! incrementally from its own file handle, so peak memory is bounded by the simulation
//! state (and, for what-if, the sampled window), not the trace size.  This module also
//! owns the pieces every other walk over a trace shares: [`rebuild_universe`], the
//! machine and kernel a stream was recorded in, [`apply_event`], the one place a
//! recorded event meets them, and [`fan_out`], the one bounded pool of worker threads
//! every set of independent replays runs on.

use crate::format::ThreadRun;
use crate::stream::{EventReader, TraceReader};
use crate::whatif::{RoundClocks, WhatifMeasure};
use crate::window::PackedWindow;
use dprof_core::{Dprof, DprofConfig};
use sim_kernel::{KernelState, KernelTypes, TypeId, TypeRegistry};
use sim_machine::{Machine, SessionEvent};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Profiles one thread's window: runs [`Dprof`] over `step` from the machine's current
/// state and accounts the window's simulated time, cycles and profiling share.  The
/// caller has already run set-up and warmup, and fills in `requests` (and `recorded`)
/// itself; the seed is the one `config` collects histories with.
pub fn profile_window(
    machine: &mut Machine,
    kernel: &mut KernelState,
    thread: usize,
    config: DprofConfig,
    step: impl FnMut(&mut Machine, &mut KernelState),
) -> ThreadRun {
    // Counters are snapshotted, not reset: `reset_measurement()` would zero the clocks
    // and corrupt the working-set view's allocation timestamps.
    let all_cycles = |m: &Machine| -> u64 { (0..m.cores()).map(|c| m.clock(c)).sum() };
    let elapsed_before = machine.elapsed_seconds();
    let cycles_before = all_cycles(machine);
    let profiling_before = machine.total_profiling_cycles();
    let seed = config.history.seed;

    let profile = Dprof::new(config).run(machine, kernel, step);

    let total_cycles = all_cycles(machine) - cycles_before;
    let profiling = machine.total_profiling_cycles() - profiling_before;
    ThreadRun {
        thread,
        seed,
        type_names: profile.type_names(),
        profile,
        requests: 0,
        elapsed_seconds: machine.elapsed_seconds() - elapsed_before,
        total_cycles,
        profiling_fraction: if total_cycles == 0 {
            0.0
        } else {
            profiling as f64 / total_cycles as f64
        },
        recorded: None,
    }
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
pub fn rebuild_universe(reader: &TraceReader, thread: usize) -> (Machine, KernelState) {
    let stream = &reader.headers()[thread];
    let mut machine = Machine::new(reader.machine);
    for name in &stream.symbols {
        machine.fn_id(name);
    }
    let mut registry = TypeRegistry::new();
    for t in &stream.types {
        let id = registry.register(&t.name, &t.description, t.size);
        for f in &t.fields {
            registry.add_field(id, &f.name, f.offset, f.size);
        }
    }
    let kernel = KernelState::for_replay(&mut machine, reader.params.cores, registry);
    (machine, kernel)
}

/// Applies one recorded event to the rebuilt universe.  Round markers carry no machine
/// effect; what a round boundary means is up to the caller.
///
/// `Err` when the event contradicts the stream before it — a `Free` of an address no
/// live object starts at.  The decoder cannot see that; the caller adds the event's
/// ordinal.
///
/// `#[inline]`: the profiled replay's cursor and the what-if measurement pass, both in
/// this crate, call it once an event, and as an out-of-line call it was measured at
/// ~20 ns an event, 15 % of a what-if measurement pass.
#[inline]
pub fn apply_event(
    ev: SessionEvent,
    machine: &mut Machine,
    kernel: &mut KernelState,
) -> Result<(), String> {
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
            if !kernel
                .allocator
                .replay_free(machine, core as usize, addr, cycle)
            {
                return Err(non_live_free(addr));
            }
        }
    }
    Ok(())
}

#[cold]
fn non_live_free(addr: u64) -> String {
    format!("free of non-live address {addr:#x}")
}

/// A cursor feeding recorded events into the machine/kernel, one round per call,
/// recording the makespan at every sampled round end it passes and, if it was given a
/// window, packing every event it applies up to the last.
struct EventCursor {
    events: EventReader,
    /// Events consumed so far.
    consumed: usize,
    /// Set if the cursor ran dry mid-round — replay divergence, reported to the user.
    exhausted: bool,
    /// A decode error, or an event that cannot be applied, ends the stream and is
    /// parked here: the profiler's `step` closure cannot fail, so the caller inspects
    /// it once the profiler pass finishes.
    error: Option<String>,
    clocks: RoundClocks,
    /// The sampled window, for the what-if passes after this one; `None` for a replay.
    window: Option<PackedWindow>,
}

impl EventCursor {
    /// Applies events up to and including the next round marker, a batch at a time: a
    /// batch ends at a round end, so the round's last batch is consumed whole.
    fn run_round(&mut self, machine: &mut Machine, kernel: &mut KernelState) {
        // A round is packed whole, end marker included, if it starts inside the window.
        let mut window = (self.window.as_mut()).filter(|_| !self.clocks.complete());
        'stream: loop {
            let batch = match self.events.next_batch() {
                Ok([]) => break,
                Ok(batch) => batch,
                Err(e) => {
                    self.error = Some(e.into());
                    break;
                }
            };
            let first = self.consumed;
            self.consumed += batch.len();
            for (i, &ev) in (first..).zip(batch) {
                if let Some(window) = window.as_deref_mut() {
                    window.push(ev);
                }
                if matches!(ev, SessionEvent::RoundEnd) {
                    self.clocks.round_end(machine);
                    return;
                }
                if let Err(e) = apply_event(ev, machine, kernel) {
                    self.consumed = i + 1;
                    self.error = Some(format!("event {i}: {e}"));
                    break 'stream;
                }
            }
        }
        self.exhausted = true;
    }

    /// The events of a stream of `event_count` the cursor has not consumed, plus one
    /// if it ran dry: zero exactly when the profiler consumed the recording.
    fn trailing(&self, event_count: usize) -> usize {
        event_count - self.consumed + usize::from(self.exhausted)
    }
}

/// Runs the profiler over stream `thread` of `reader`: the run, and the cursor where
/// the profiler stopped, short of the stream's end if it diverged.  The cursor packs
/// the sampled window into `window` if there is one.
fn profile_stream(
    reader: &TraceReader,
    thread: usize,
    window: Option<PackedWindow>,
) -> Result<(ThreadRun, EventCursor), String> {
    let stream = &reader.headers()[thread];
    let (mut machine, mut kernel) = rebuild_universe(reader, thread);
    let mut cursor = EventCursor {
        events: reader.events(thread)?,
        consumed: 0,
        exhausted: false,
        error: None,
        clocks: RoundClocks::new(reader, thread),
        window,
    };
    for _ in 0..cursor.clocks.warmup_boundary() {
        cursor.run_round(&mut machine, &mut kernel);
    }
    let mut run = profile_window(
        &mut machine,
        &mut kernel,
        thread,
        reader.params.dprof_config(stream.seed),
        |m, k| cursor.run_round(m, k),
    );
    if let Some(e) = cursor.error.take() {
        return Err(e);
    }
    run.requests = stream.requests;
    Ok((run, cursor))
}

/// Replays one stream of a full-session trace through the profiler pipeline, returning
/// the run and the events left unconsumed after the profiler finished: zero for a
/// faithful replay, non-zero when the replayed profiler diverged from the recording
/// (e.g. a trace produced by a different build).  Decode errors, and events that
/// contradict their stream (`event 1234: free of non-live address 0x…`), surface as
/// `Err`.
///
/// # Panics
/// Panics if `thread` is out of range.
pub fn replay_stream_streaming(
    reader: &TraceReader,
    thread: usize,
) -> Result<(ThreadRun, usize), String> {
    let (run, cursor) = profile_stream(reader, thread, None)?;
    Ok((run, cursor.trailing(reader.headers()[thread].event_count)))
}

/// [`replay_stream_streaming`], plus the stream's identity baseline read off the same
/// pass, and the window it covers: the [`WhatifMeasure`] a profiler-free
/// [`measure_stream_streaming`](crate::measure_stream_streaming) under
/// [`FixSpec::Identity`](crate::FixSpec::Identity) returns, because the round clocks
/// leave out the cycles the profiler booked, and the [`PackedWindow`] that pass would
/// read, packed as the events were applied.  Both cover the rounds the session
/// sampled, which the profiler steps through before anything else, so the events a
/// diverged profiler did not consume lie past the window and feed no clock.
///
/// # Panics
/// Panics if `thread` is out of range.
pub fn replay_and_measure_stream(
    reader: &TraceReader,
    thread: usize,
) -> Result<(ThreadRun, usize, WhatifMeasure, PackedWindow), String> {
    let (run, mut cursor) = profile_stream(reader, thread, Some(PackedWindow::new(thread)))?;
    let trailing = cursor.trailing(reader.headers()[thread].event_count);
    let window = cursor.window.take().expect("the cursor was given a window");
    Ok((run, trailing, cursor.clocks.measure(reader), window))
}

/// Replays every stream of a full-session trace on the bounded fan-out, returning the
/// runs (with their trailing-event counts) ordered by stream index.
pub fn replay_all_streaming(reader: &TraceReader) -> Result<Vec<(ThreadRun, usize)>, String> {
    for_each_stream(available_workers(), reader, 1, |_, thread| {
        replay_stream_streaming(reader, thread)
    })
}

/// How many replays run at once when the caller does not say: one per CPU this process
/// may use.  The only place the host's parallelism is read.
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The one fan-out: runs `job(i)` for every `i` in `0..jobs` on `min(workers, jobs)`
/// scoped worker threads that live for the whole call and pull job indices from a
/// shared counter, and returns the results in job order — so nothing a caller derives
/// from them can depend on which worker ran what, or when.
///
/// Jobs always run on a worker, never on the calling thread, and a job that panics
/// costs only itself: it reports `replay thread panicked`, the worker goes on to the
/// next index and every thread is joined before this returns.  (What a crafted stream
/// is known to be able to do — a free of a never-allocated address, an allocation of
/// 2^64 bytes — is an ordinary `Err` naming the event, not a panic.)
pub fn fan_out<T: Send>(
    workers: usize,
    jobs: usize,
    job: impl Fn(usize) -> Result<T, String> + Sync,
) -> Vec<Result<T, String>> {
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the counter hands out indices and publishes nothing else.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                return done;
            }
            let result = catch_unwind(AssertUnwindSafe(|| job(i)))
                .unwrap_or_else(|_| Err("replay thread panicked".into()));
            done.push((i, result));
        }
    };
    let mut done: Vec<(usize, Result<T, String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1).min(jobs))
            .map(|_| scope.spawn(work))
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("workers catch their jobs' panics"))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// The number of streams of a trace, or why it cannot be replayed: it has none, or a
/// stream's type table lacks one of the kernel's well-known types, which every replay
/// of the stream rebuilds its kernel from.  Every set of replays asks this before its
/// first thread starts.
pub fn session_streams(reader: &TraceReader) -> Result<usize, String> {
    for (thread, stream) in reader.headers().iter().enumerate() {
        let recorded = |name: &&str| stream.types.iter().any(|t| t.name == **name);
        if let Some(name) = KernelTypes::NAMES.iter().find(|name| !recorded(name)) {
            return Err(format!(
                "stream {thread}: the trace's type table lacks the kernel type '{name}'"
            ));
        }
    }
    match reader.stream_count() {
        0 => Err("trace contains no streams".into()),
        streams => Ok(streams),
    }
}

/// Runs `f(pass, thread)` for every stream of a full-session trace, `passes` times
/// over, on at most `workers` threads at once, and returns the results in
/// `(pass, thread)` order (index `pass * stream_count + thread`).  Every job builds
/// its own universe (a 16-core one is ≈5 MB), so `workers` bounds peak memory as well
/// as threads.  Errors and worker panics are surfaced as an `Err` naming the stream —
/// the first in job order, after every job has run.
pub fn for_each_stream<T: Send>(
    workers: usize,
    reader: &TraceReader,
    passes: usize,
    f: impl Fn(usize, usize) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    let streams = session_streams(reader)?;
    fan_out(workers, passes * streams, |i| f(i / streams, i % streams))
        .into_iter()
        .enumerate()
        .map(|(i, result)| result.map_err(|e| format!("stream {}: {e}", i % streams)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn fan_out_returns_results_in_job_order_at_any_worker_count() {
        for workers in [0, 1, 2, 7] {
            for jobs in [0, 1, 2, 13] {
                let results = fan_out(workers, jobs, |i| Ok(i * i));
                let expected: Vec<Result<usize, String>> = (0..jobs).map(|i| Ok(i * i)).collect();
                assert_eq!(results, expected, "workers {workers}, jobs {jobs}");
            }
        }
    }

    #[test]
    fn fan_out_runs_exactly_min_workers_jobs_at_once() {
        for (workers, jobs) in [(1, 5), (2, 5), (7, 12), (12, 3)] {
            let pool = workers.min(jobs);
            // The first `pool` jobs meet at a barrier: that many run side by side (or
            // this test hangs), and the high-water mark shows no more ever do.
            let barrier = Barrier::new(pool);
            let in_flight = AtomicUsize::new(0);
            let high_water = AtomicUsize::new(0);
            let results = fan_out(workers, jobs, |i| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                high_water.fetch_max(now, Ordering::SeqCst);
                if i < pool {
                    barrier.wait();
                }
                in_flight.fetch_sub(1, Ordering::SeqCst);
                Ok(i)
            });
            assert_eq!(results.len(), jobs);
            assert_eq!(
                high_water.load(Ordering::SeqCst),
                pool,
                "workers {workers}, jobs {jobs}"
            );
        }
    }

    #[test]
    fn a_panicking_job_is_that_jobs_error_and_its_worker_carries_on() {
        for workers in [1, 2, 7] {
            let results = fan_out(workers, 4, |i| match i {
                1 => panic!("job 1 meets an inconsistent event stream"),
                2 => Err("job 2 fails cleanly".to_string()),
                i => Ok(i),
            });
            assert_eq!(
                results,
                vec![
                    Ok(0),
                    Err("replay thread panicked".to_string()),
                    Err("job 2 fails cleanly".to_string()),
                    Ok(3),
                ],
                "workers {workers}"
            );
        }
    }
}
