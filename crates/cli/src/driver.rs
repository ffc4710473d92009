//! Profile-run orchestration: builds one simulated machine + kernel + workload per
//! worker thread, runs set-up and warmup on each, and hands the profiled window to
//! [`profile_window`] — the same window `dprof replay` runs over a recorded stream —
//! so a live thread and its replay are the same [`ThreadRun`], merged by
//! [`crate::merge`].
//!
//! Threads are deliberately *independent machines*, not cores of one machine: the
//! simulator is deterministic, so running the same configuration N times would produce
//! N identical profiles.  Each thread therefore gets a different seed (base seed +
//! thread index, applied to the workload RNG and the history-collection skip sequence)
//! and a phase-shifted warmup, and the merged report averages over genuinely different
//! sample streams — the same reason the paper profiles several runs of the real
//! machine.

use dprof::core::DprofConfig;
use dprof::kernel::{KernelConfig, KernelState, TxQueuePolicy, TypeId};
use dprof::machine::{AccessReq, Machine, MachineConfig, SamplingPolicy};
pub use dprof::trace::ThreadRun;
use dprof::trace::{profile_window, EventEncoder, RecordedStream, SessionParams};
use dprof::workloads::scenarios::{self, ScenarioConfig, Variant};
use dprof::workloads::{Apache, ApacheConfig, Memcached, MemcachedConfig, Workload};

/// Which workload to profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The §6.1 memcached-like UDP key/value server.
    Memcached,
    /// The §6.2 Apache-like TCP static-file server.
    Apache,
    /// A synthetic false-sharing workload (two per-subsystem counters in one cache
    /// line), mirroring `examples/custom_workload.rs`.
    Custom,
    /// One variant of a registered bottleneck scenario (see
    /// [`dprof::workloads::scenarios`]).
    Scenario {
        /// Index into [`scenarios::registry`].
        index: usize,
        /// Buggy or fixed variant.
        variant: Variant,
    },
}

impl WorkloadKind {
    /// The CLI spelling of the workload (scenarios spell as `name:variant`).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Memcached => "memcached",
            WorkloadKind::Apache => "apache",
            WorkloadKind::Custom => "custom",
            WorkloadKind::Scenario { index, variant } => {
                scenarios::registry()[index].full_name(variant)
            }
        }
    }
}

/// Resolves a `--workload` argument (or a trace header's workload string): one of the
/// built-in workloads, or `<scenario>[:buggy|:fixed]` from the scenario registry.
pub fn parse_workload_spec(spec: &str) -> Result<WorkloadKind, String> {
    match spec {
        "memcached" => Ok(WorkloadKind::Memcached),
        "apache" => Ok(WorkloadKind::Apache),
        "custom" => Ok(WorkloadKind::Custom),
        other => {
            if let Some((base, _)) = other.split_once(':') {
                if matches!(base, "memcached" | "apache" | "custom") {
                    return Err(format!(
                        "workload '{base}' does not take a ':variant' suffix (only \
                         scenarios have buggy/fixed variants)"
                    ));
                }
            }
            let (index, variant) = scenarios::parse_spec(other).map_err(|e| {
                format!("unknown workload '{other}': {e} (or memcached, apache, custom)")
            })?;
            Ok(WorkloadKind::Scenario { index, variant })
        }
    }
}

/// Transmit-queue policy choice for the memcached workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxPolicyChoice {
    /// Hash-based selection (the §6.1 bug).
    Hash,
    /// Local-queue selection (the §6.1 fix).
    Local,
}

/// Load configuration for the Apache workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApacheLoad {
    /// Offered load matches service capacity (Table 6.4).
    Peak,
    /// Overload with a deep accept backlog (Table 6.5, the bug).
    DropOff,
    /// Overload with a bounded accept queue (§6.2.1, the fix).
    AdmissionControl,
}

/// Parameters of one profiling invocation.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Which workload to run.
    pub workload: WorkloadKind,
    /// Worker threads; each runs an independent simulated machine.
    pub threads: usize,
    /// Cores per simulated machine.
    pub cores: usize,
    /// Warmup rounds before sampling starts (thread i runs `warmup_rounds + i`).
    pub warmup_rounds: usize,
    /// Workload rounds during the access-sampling phase.
    pub sample_rounds: usize,
    /// IBS sampling policy (fixed interval or adaptive budget), per machine.
    pub sampling: SamplingPolicy,
    /// Number of top miss-heavy types to collect object access histories for.
    pub history_types: usize,
    /// History sets per profiled type.
    pub history_sets: usize,
    /// Memcached transmit-queue policy.
    pub tx_policy: TxPolicyChoice,
    /// Apache load level.
    pub apache_load: ApacheLoad,
    /// Base RNG seed; thread i uses `base_seed + i`.
    pub base_seed: u64,
    /// Record the full session event stream of every thread (for `dprof record`).
    pub record_session: bool,
    /// Also tally every access of the sampling phase exactly (`dprof accuracy`).
    pub collect_ground_truth: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            workload: WorkloadKind::Memcached,
            threads: 1,
            cores: 4,
            warmup_rounds: 20,
            sample_rounds: 120,
            sampling: SamplingPolicy::Fixed { interval_ops: 200 },
            history_types: 3,
            history_sets: 3,
            tx_policy: TxPolicyChoice::Hash,
            apache_load: ApacheLoad::DropOff,
            base_seed: 3471,
            record_session: false,
            collect_ground_truth: false,
        }
    }
}

impl RunOptions {
    /// The session parameters a trace of this run records, and the profiler
    /// configuration every thread of it runs (see [`SessionParams::dprof_config`]).
    pub fn session_params(&self) -> SessionParams {
        SessionParams {
            workload: self.workload.name().to_string(),
            threads: self.threads,
            cores: self.cores,
            warmup_rounds: self.warmup_rounds,
            sample_rounds: self.sample_rounds,
            sampling: self.sampling,
            history_types: self.history_types,
            history_sets: self.history_sets,
            base_seed: self.base_seed,
        }
    }
}

/// The synthetic false-sharing workload behind `--workload custom`: every round, each
/// core bumps its own 8-byte counter, but all counters live in one cache line of a
/// shared `pkt_stats` object, so the line ping-pongs between cores while lock-stat-style
/// tools see nothing (no lock is ever contended).
struct FalseSharing {
    cores: usize,
    stats_ty: TypeId,
    stats_addr: u64,
    counter_fns: Vec<dprof::machine::FunctionId>,
    requests: u64,
    rounds: u64,
}

impl FalseSharing {
    /// Reallocate the stats block every this many rounds, so the profiler's
    /// history-collection phase (which arms watchpoints at allocation time) gets to
    /// observe fresh objects.
    const REALLOC_PERIOD: u64 = 16;

    fn new(machine: &mut Machine, kernel: &mut KernelState, cores: usize) -> Self {
        let stats_ty = kernel
            .types
            .register("pkt_stats", "per-module packet statistics", 128);
        for core in 0..cores.min(8) {
            kernel
                .types
                .add_field(stats_ty, "counter", (core as u64) * 8, 8);
        }
        let stats_addr = kernel.allocator.alloc(machine, &kernel.types, 0, stats_ty);
        let counter_fns = (0..cores)
            .map(|c| machine.fn_id(&format!("subsys{c}_accounting")))
            .collect();
        FalseSharing {
            cores,
            stats_ty,
            stats_addr,
            counter_fns,
            requests: 0,
            rounds: 0,
        }
    }
}

impl Workload for FalseSharing {
    fn name(&self) -> &str {
        "custom"
    }

    fn step(&mut self, machine: &mut Machine, kernel: &mut KernelState) {
        self.rounds += 1;
        if self.rounds.is_multiple_of(Self::REALLOC_PERIOD) {
            // Periodically recycle the stats block (as a real subsystem would on
            // reconfiguration) so object access histories can be collected for it.
            kernel.allocator.free(machine, 0, self.stats_addr);
            self.stats_addr = kernel
                .allocator
                .alloc(machine, &kernel.types, 0, self.stats_ty);
        }
        // The false-sharing traffic: the cores take turns bumping their own counters,
        // but all counters live in the stats block's first cache line, so nearly every
        // write invalidates the other cores' copies and re-fetches the line remotely.
        for _ in 0..8 {
            for core in 0..self.cores {
                let offset = ((core % 8) as u64) * 8;
                machine.write(core, self.counter_fns[core], self.stats_addr + offset, 8);
            }
        }
        // A rotating "reporter" core sums every counter (as a stats export would), so
        // each counter offset is touched by its owner core *and* the reporter — the
        // cross-core pattern DProf's path traces flag as a bounce.  The whole export
        // scan is issued as one batched access run.
        let reporter = (self.rounds as usize) % self.cores;
        let mut scan = [AccessReq::read(0, 8); 8];
        let n = self.cores.min(8);
        for (core, req) in scan.iter_mut().enumerate().take(n) {
            *req = AccessReq::read(self.stats_addr + (core as u64) * 8, 8);
        }
        machine.access_run(reporter, self.counter_fns[reporter], &scan[..n]);
        // Private per-core work so the shared line is not the only traffic.
        for core in 0..self.cores {
            let skb = kernel.netif_rx(machine, core, 100);
            kernel.kfree_skb(machine, core, skb, kernel.syms.kfree_skb);
            self.requests += 1;
        }
    }

    fn requests_completed(&self) -> u64 {
        self.requests
    }
}

fn build_workload(options: &RunOptions, seed: u64) -> (Machine, KernelState, Box<dyn Workload>) {
    match options.workload {
        WorkloadKind::Memcached => {
            let config = MemcachedConfig {
                cores: options.cores,
                tx_policy: match options.tx_policy {
                    TxPolicyChoice::Hash => TxQueuePolicy::HashTxQueue,
                    TxPolicyChoice::Local => TxQueuePolicy::LocalQueue,
                },
                seed,
                record_session: options.record_session,
                ..Default::default()
            };
            let (machine, kernel, workload) = Memcached::setup(config);
            (machine, kernel, Box::new(workload))
        }
        WorkloadKind::Apache => {
            let mut config = match options.apache_load {
                ApacheLoad::Peak => ApacheConfig::peak(),
                ApacheLoad::DropOff => ApacheConfig::drop_off(),
                ApacheLoad::AdmissionControl => ApacheConfig::admission_control(),
            };
            config.cores = options.cores;
            config.record_session = options.record_session;
            let (machine, kernel, workload) = Apache::setup(config);
            (machine, kernel, Box::new(workload))
        }
        WorkloadKind::Custom => {
            let mut machine = Machine::new(MachineConfig::with_cores(options.cores));
            if options.record_session {
                machine.start_session_recording();
            }
            let mut kernel = KernelState::new(
                &mut machine,
                KernelConfig {
                    cores: options.cores,
                    workers_per_core: 1,
                    ..Default::default()
                },
            );
            let workload = FalseSharing::new(&mut machine, &mut kernel, options.cores);
            (machine, kernel, Box::new(workload))
        }
        WorkloadKind::Scenario { index, variant } => {
            scenarios::registry()[index].build(&ScenarioConfig {
                variant,
                cores: options.cores,
                seed,
                record_session: options.record_session,
            })
        }
    }
}

/// Runs one complete profiling session on the calling thread.
pub fn run_single(options: &RunOptions, thread: usize) -> ThreadRun {
    let seed = options.base_seed.wrapping_add(thread as u64);
    let (mut machine, mut kernel, mut workload) = build_workload(options, seed);
    // When recording, mark the setup/warmup/profiling round boundaries the replay
    // driver steps through, and at each one move the round's events out of the
    // machine's recorder into this thread's encoder: the session is held as wire
    // bytes, the recorder never holds more than a round (both no-ops otherwise).
    let mut encoder = EventEncoder::new();
    let mut end_round = |m: &mut Machine| {
        m.mark_session_round();
        m.drain_session_events(|events| encoder.extend(events));
    };
    end_round(&mut machine);

    // Phase-shift each thread so even seedless workloads (Apache) produce distinct
    // sample streams.
    for _ in 0..options.warmup_rounds + thread {
        workload.step(&mut machine, &mut kernel);
        end_round(&mut machine);
    }
    let config = DprofConfig {
        collect_ground_truth: options.collect_ground_truth,
        ..options.session_params().dprof_config(seed)
    };
    let requests_before = workload.requests_completed();
    let mut run = profile_window(&mut machine, &mut kernel, thread, config, |m, k| {
        workload.step(m, k);
        end_round(m);
    });
    run.requests = workload.requests_completed() - requests_before;

    if options.record_session {
        run.recorded = Some(RecordedStream::capture(
            &mut machine,
            &kernel.types,
            seed,
            run.requests,
            encoder,
        ));
    }
    run
}

/// Runs `options.threads` independent profiling sessions in parallel and returns them
/// ordered by thread index.  Panics in worker threads are surfaced as an `Err` naming
/// the thread.
pub fn run_parallel(options: &RunOptions) -> Result<Vec<ThreadRun>, String> {
    if options.threads == 1 {
        return Ok(vec![run_single(options, 0)]);
    }
    let mut runs: Vec<ThreadRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..options.threads)
            .map(|thread| {
                let options = options.clone();
                scope.spawn(move || run_single(&options, thread))
            })
            .collect();
        // Join every handle before returning: short-circuiting on the first panic
        // would leave panicked threads for the scope to implicitly join, and the
        // scope would then re-panic instead of letting us report a clean error.
        let joined: Vec<(usize, std::thread::Result<ThreadRun>)> = handles
            .into_iter()
            .enumerate()
            .map(|(thread, handle)| (thread, handle.join()))
            .collect();
        joined
            .into_iter()
            .map(|(thread, result)| {
                result.map_err(|_| format!("profiling thread {thread} panicked"))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    runs.sort_by_key(|r| r.thread);
    Ok(runs)
}

#[cfg(test)]
use dprof::{machine, trace};
#[cfg(test)]
#[path = "../../../tests/support/dtrace.rs"]
mod dtrace;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: WorkloadKind) -> RunOptions {
        RunOptions {
            workload,
            threads: 1,
            cores: 2,
            warmup_rounds: 5,
            sample_rounds: 30,
            history_types: 2,
            history_sets: 2,
            ..Default::default()
        }
    }

    #[test]
    fn single_run_produces_profile_and_stats() {
        let run = run_single(&tiny(WorkloadKind::Memcached), 0);
        assert!(!run.profile.data_profile.is_empty());
        assert!(run.requests > 0);
        assert!(run.elapsed_seconds > 0.0);
        assert!(run.profiling_fraction >= 0.0);
        assert!(run.type_names.values().any(|n| n == "skbuff"));
    }

    #[test]
    fn parallel_runs_have_distinct_seeds_and_all_threads_report() {
        let mut options = tiny(WorkloadKind::Memcached);
        options.threads = 3;
        let runs = run_parallel(&options).expect("no thread panics");
        assert_eq!(runs.len(), 3);
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.thread, i);
            assert_eq!(run.seed, options.base_seed + i as u64);
            assert!(!run.profile.data_profile.is_empty());
        }
        // Different seeds / phases must yield different sample streams: the phase shift
        // alone guarantees thread 1 completes more warmup requests than thread 0.
        assert!(!runs[0].profile.samples.is_empty());
        let stream = |run: &crate::driver::ThreadRun| {
            run.profile
                .samples
                .iter()
                .map(|s| (s.offset, s.latency))
                .collect::<Vec<_>>()
        };
        assert_ne!(
            stream(&runs[0]),
            stream(&runs[1]),
            "threads produced identical samples"
        );
    }

    /// The writer's twin of the reader's `peak_buffered_bytes` bound: the machine's
    /// recorder is drained into the encoder at every round mark, so it never holds
    /// more than the largest round, and the bytes are those of the session encoded
    /// whole.
    #[test]
    fn recording_buffers_one_round_and_encodes_the_whole_session() {
        use dprof::machine::SessionEvent;
        use dprof::trace::{codec::encode_events, TraceFile, TraceKind};
        let options = RunOptions {
            record_session: true,
            ..tiny(WorkloadKind::Memcached)
        };
        let recorded = run_single(&options, 0).recorded.expect("session recorded");
        let peak = recorded.peak_buffered_events;
        let file = TraceFile {
            kind: TraceKind::FullSession,
            machine: recorded.machine,
            params: options.session_params(),
            streams: vec![recorded.stream],
        };
        let events = dtrace::decode(&file).remove(0);
        let encoded = &file.streams[0].events;
        assert_eq!(events.len(), encoded.len());
        assert_eq!(encoded.bytes(), encode_events(&events));

        // A round is the events up to and including its mark (set-up is the first).
        let largest_round = events
            .split_inclusive(|ev| *ev == SessionEvent::RoundEnd)
            .map(<[SessionEvent]>::len)
            .max()
            .expect("rounds were marked");
        assert!(peak > 0, "the recorder was used");
        assert!(
            peak <= largest_round,
            "recorder held {peak} events, the largest round is {largest_round}"
        );
        assert!(
            peak * 10 <= events.len(),
            "recorder held {peak} of the session's {} events",
            events.len()
        );
    }

    #[test]
    fn custom_workload_surfaces_false_sharing() {
        let mut options = tiny(WorkloadKind::Custom);
        options.sample_rounds = 150;
        let run = run_single(&options, 0);
        let row = run
            .profile
            .data_profile
            .iter()
            .find(|r| r.name == "pkt_stats")
            .expect("pkt_stats profiled");
        assert!(row.bounce, "falsely-shared stats line must bounce");
    }

    #[test]
    fn apache_runs_end_to_end() {
        let run = run_single(&tiny(WorkloadKind::Apache), 0);
        assert!(!run.profile.data_profile.is_empty());
        assert!(run.type_names.values().any(|n| n == "tcp-sock"));
    }

    #[test]
    fn scenario_workload_runs_and_profiles_planted_type() {
        let (index, spec) = scenarios::find("ring-false-sharing").expect("registered");
        let mut options = tiny(WorkloadKind::Scenario {
            index,
            variant: Variant::Buggy,
        });
        options.sample_rounds = 60;
        let run = run_single(&options, 0);
        assert!(
            run.type_names.values().any(|n| n == spec.planted.type_name),
            "planted type missing from the profile"
        );
        assert_eq!(options.workload.name(), "ring-false-sharing:buggy");
    }
}
