//! The simulated multicore machine: per-core cycle clocks, memory accesses routed
//! through the cache hierarchy, always-on per-function performance counters, the IBS
//! sampling unit and the watchpoint unit.

use crate::ibs::{IbsConfig, IbsUnit};
use crate::session::{SessionEvent, SessionRecorder};
use crate::symbols::{FunctionId, SymbolTable};
use crate::watchpoint::{WatchpointError, WatchpointId, WatchpointUnit};
use serde::{Deserialize, Serialize};
use sim_cache::{
    granule_mask, AccessKind, AccessOutcome, CacheHierarchy, CoreId, GroundTruthTally,
    HierarchyConfig, HitLevel, UtilizationTally,
};
use std::collections::HashMap;

/// Machine-wide configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Cache hierarchy configuration (includes the core count).
    pub hierarchy: HierarchyConfig,
    /// Simulated clock frequency, cycles per second.  Used to convert cycle counts into
    /// wall-clock seconds, sampling rates and throughput numbers.
    pub cycles_per_second: u64,
    /// Fixed instruction cost, in cycles, charged per memory operation on top of the
    /// memory latency (models the non-memory work around each access).
    pub op_cost: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            hierarchy: HierarchyConfig::paper_machine(),
            cycles_per_second: 3_000_000_000,
            op_cost: 1,
        }
    }
}

impl MachineConfig {
    /// The 16-core configuration used for paper-scale experiments.
    pub fn paper_machine() -> Self {
        Self::default()
    }

    /// A small 2-core configuration for tests.
    pub fn small_test() -> Self {
        MachineConfig {
            hierarchy: HierarchyConfig::small_test(),
            cycles_per_second: 1_000_000_000,
            op_cost: 1,
        }
    }

    /// Same as the paper machine but with a custom core count.
    pub fn with_cores(cores: usize) -> Self {
        MachineConfig {
            hierarchy: HierarchyConfig::with_cores(cores),
            ..Self::default()
        }
    }
}

/// Always-on per-function performance counters, equivalent to what a hardware-counter
/// profiler like OProfile accumulates per instruction pointer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionCounters {
    /// Cycles attributed to the function (memory latency + op cost + compute).
    pub cycles: u64,
    /// Memory operations issued by the function.
    pub accesses: u64,
    /// Accesses that missed the L1.
    pub l1_misses: u64,
    /// Accesses that missed both private caches ("L2 misses" in the paper's tables).
    pub l2_misses: u64,
}

/// One memory operation in a batched [`Machine::access_run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessReq {
    /// Byte address of the first accessed byte.
    pub addr: u64,
    /// Access length in bytes (non-zero; may span cache lines).
    pub len: u64,
    /// Load or store.
    pub kind: AccessKind,
}

impl AccessReq {
    /// A read request.
    pub fn read(addr: u64, len: u64) -> Self {
        AccessReq {
            addr,
            len,
            kind: AccessKind::Read,
        }
    }

    /// A write request.
    pub fn write(addr: u64, len: u64) -> Self {
        AccessReq {
            addr,
            len,
            kind: AccessKind::Write,
        }
    }
}

/// The simulated machine.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    /// The shared cache hierarchy.
    pub hierarchy: CacheHierarchy,
    /// The symbol table for function-name interning.
    pub symbols: SymbolTable,
    /// The IBS sampling unit.
    pub ibs: IbsUnit,
    /// The debug-register watchpoint unit.
    pub watchpoints: WatchpointUnit,
    clocks: Vec<u64>,
    /// Per-function counters, indexed densely by [`FunctionId`] (interned ids are
    /// small sequential integers, so this is an array index instead of a hash lookup
    /// on every access).
    fn_counters: Vec<FunctionCounters>,
    /// Counters attributed to [`FunctionId::UNKNOWN`].
    unknown_counters: FunctionCounters,
    /// Reused outcome buffer for [`Self::access_run`].
    run_outcomes: Vec<AccessOutcome>,
    /// Cycles charged for profiling interrupts, per core (IBS + watchpoints), so the
    /// overhead experiments can separate application time from profiling time.
    profiling_cycles: Vec<u64>,
    /// Session-event recorder for the trace record/replay subsystem.  `None` (the
    /// default) keeps the hot path to a single branch per access.
    session: Option<Box<SessionRecorder>>,
    /// Exact per-granule access/miss tally (the accuracy harness's ground truth).
    /// `None` (the default) keeps the hot path to a single branch per access.
    ground_truth: Option<Box<GroundTruthTally>>,
    /// Sampled line-utilization tally: residencies are opened only for fills the IBS
    /// unit sampled (what a real profiler could afford), while the exact tally inside
    /// `ground_truth` counts every fill.  `None` by default.
    utilization: Option<Box<UtilizationTally>>,
}

impl Machine {
    /// Creates a machine with all clocks at zero and cold caches.
    pub fn new(config: MachineConfig) -> Self {
        let cores = config.hierarchy.cores;
        Machine {
            hierarchy: CacheHierarchy::new(config.hierarchy),
            symbols: SymbolTable::new(),
            ibs: IbsUnit::new(cores),
            watchpoints: WatchpointUnit::new(),
            clocks: vec![0; cores],
            fn_counters: Vec::new(),
            unknown_counters: FunctionCounters::default(),
            run_outcomes: Vec::new(),
            profiling_cycles: vec![0; cores],
            session: None,
            ground_truth: None,
            utilization: None,
            config,
        }
    }

    /// Turns on exact ground-truth tallying: from now on every memory operation is
    /// counted (per 8-byte granule) with the same worst-line outcome IBS would report
    /// for it.  Used by the accuracy harness; idempotent.
    pub fn start_ground_truth(&mut self) {
        if self.ground_truth.is_none() {
            self.ground_truth = Some(Box::new(GroundTruthTally::new()));
        }
    }

    /// Detaches and returns the ground-truth tally (`None` if tallying was never
    /// enabled).  Tallying stops.  The embedded utilization tally is finalized (open
    /// line residencies are flushed) so its counters are consistent.
    pub fn take_ground_truth(&mut self) -> Option<GroundTruthTally> {
        self.ground_truth.take().map(|mut b| {
            b.utilization.finalize();
            *b
        })
    }

    /// Turns on the *sampled* line-utilization tally: from now on a line residency is
    /// tracked whenever its fill coincided with an IBS sample (touches during tracked
    /// residencies are recorded exactly).  Requires IBS sampling to be enabled for
    /// anything to be counted; idempotent.
    pub fn start_utilization(&mut self) {
        if self.utilization.is_none() {
            self.utilization = Some(Box::new(UtilizationTally::new()));
        }
    }

    /// Detaches and returns the sampled utilization tally, finalized (`None` if it was
    /// never enabled).  Tallying stops.
    pub fn take_utilization(&mut self) -> Option<UtilizationTally> {
        self.utilization.take().map(|mut b| {
            b.finalize();
            *b
        })
    }

    /// Turns on session-event recording (see [`crate::session`]).  To capture a
    /// replayable session this must be called before any accesses are issued — i.e.
    /// right after [`Machine::new`], before the kernel and workload are built — since
    /// replay reconstructs the machine's evolution from birth.
    pub fn start_session_recording(&mut self) {
        if self.session.is_none() {
            self.session = Some(Box::new(SessionRecorder::new()));
        }
    }

    /// Hands the session events recorded since the last drain to `sink` and empties
    /// the recorder, which keeps its capacity.  `sink` is not called when recording
    /// was never enabled.  A driver that drains at every round boundary keeps the
    /// recorder at one round's events however long the session runs.
    pub fn drain_session_events(&mut self, sink: impl FnOnce(&[SessionEvent])) {
        if let Some(s) = self.session.as_mut() {
            s.drain(sink);
        }
    }

    /// Most session events the recorder ever held at once (0 when not recording).
    pub fn session_peak_events(&self) -> usize {
        self.session.as_ref().map_or(0, |s| s.peak_buffered())
    }

    /// Marks a workload-round boundary in the session recording.  No-op when not
    /// recording, so drivers can call it unconditionally.
    #[inline]
    pub fn mark_session_round(&mut self) {
        if let Some(s) = self.session.as_mut() {
            s.push(SessionEvent::RoundEnd);
        }
    }

    /// Records an allocator address-set insertion.  Called by the kernel allocator;
    /// no-op when not recording.
    #[inline]
    pub fn record_session_alloc(
        &mut self,
        core: CoreId,
        type_id: u32,
        size: u64,
        addr: u64,
        cycle: u64,
        hookable: bool,
    ) {
        if let Some(s) = self.session.as_mut() {
            s.push(SessionEvent::Alloc {
                core: core as u32,
                type_id,
                size,
                addr,
                cycle,
                hookable,
            });
        }
    }

    /// Records an allocator address-set removal.  Called by the kernel allocator;
    /// no-op when not recording.
    #[inline]
    pub fn record_session_free(&mut self, core: CoreId, addr: u64, cycle: u64) {
        if let Some(s) = self.session.as_mut() {
            s.push(SessionEvent::Free {
                core: core as u32,
                addr,
                cycle,
            });
        }
    }

    /// The mutable counter slot for a function id (dense-array fast path).
    ///
    /// Ids must come from this machine's symbol table ([`Self::fn_id`]) or be
    /// [`FunctionId::UNKNOWN`]; interned ids are small sequential integers, which is
    /// what makes the dense array safe to size by id.
    #[inline]
    fn counters_mut(&mut self, ip: FunctionId) -> &mut FunctionCounters {
        if ip == FunctionId::UNKNOWN {
            return &mut self.unknown_counters;
        }
        let idx = ip.0 as usize;
        if idx >= self.fn_counters.len() {
            assert!(
                idx < self.symbols.len(),
                "FunctionId({idx}) was not interned by this machine's symbol table"
            );
            self.fn_counters
                .resize(idx + 1, FunctionCounters::default());
        }
        &mut self.fn_counters[idx]
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.clocks.len()
    }

    /// Interns a function name (convenience pass-through to the symbol table).
    pub fn fn_id(&mut self, name: &str) -> FunctionId {
        self.symbols.intern(name)
    }

    /// The current cycle count of a core.
    pub fn clock(&self, core: CoreId) -> u64 {
        self.clocks[core]
    }

    /// The largest core clock (the machine's notion of elapsed time).
    pub fn max_clock(&self) -> u64 {
        self.clocks.iter().copied().max().unwrap_or(0)
    }

    /// Elapsed simulated wall-clock seconds (max clock / frequency).
    pub fn elapsed_seconds(&self) -> f64 {
        self.max_clock() as f64 / self.config.cycles_per_second as f64
    }

    /// Cycles spent servicing profiling interrupts on a core.
    pub fn profiling_cycles(&self, core: CoreId) -> u64 {
        self.profiling_cycles[core]
    }

    /// Total profiling-interrupt cycles across all cores.
    pub fn total_profiling_cycles(&self) -> u64 {
        self.profiling_cycles.iter().sum()
    }

    /// Advances a core's clock by `cycles` of non-memory work, attributing the cycles to
    /// `ip` in the per-function counters.
    pub fn compute(&mut self, core: CoreId, ip: FunctionId, cycles: u64) {
        if let Some(s) = self.session.as_mut() {
            s.push(SessionEvent::Compute {
                core: core as u32,
                ip,
                cycles,
            });
        }
        self.clocks[core] += cycles;
        self.counters_mut(ip).cycles += cycles;
    }

    /// Performs a memory access of `len` bytes at `addr` on `core`, attributed to `ip`.
    ///
    /// Accesses spanning multiple cache lines are split; the returned outcome reports
    /// the *worst* (highest-latency) line but the clock is charged for all of them.
    pub fn access(
        &mut self,
        core: CoreId,
        ip: FunctionId,
        addr: u64,
        len: u64,
        kind: AccessKind,
    ) -> AccessOutcome {
        let ibs_on = self.ibs.config().enabled();
        let wp_armed = self.watchpoints.any_armed();
        self.access_inner(core, ip, addr, len, kind, ibs_on, wp_armed)
    }

    /// Performs a batch of memory accesses on `core`, all attributed to `ip`, returning
    /// one outcome per request (same order).
    ///
    /// Semantically identical to calling [`Self::access`] once per request, but the
    /// profiling-hardware checks ("is IBS enabled?", "is any watchpoint armed?") are
    /// hoisted out of the loop — neither can change mid-batch — and the outcomes land
    /// in a buffer reused across calls, so a batch performs no allocation in the steady
    /// state.  This is the API the workload request paths drive: a payload copy becomes
    /// one `access_run` instead of N individually-dispatched accesses.
    pub fn access_run(
        &mut self,
        core: CoreId,
        ip: FunctionId,
        reqs: &[AccessReq],
    ) -> &[AccessOutcome] {
        let ibs_on = self.ibs.config().enabled();
        let wp_armed = self.watchpoints.any_armed();
        let mut out = std::mem::take(&mut self.run_outcomes);
        out.clear();
        out.reserve(reqs.len());
        for r in reqs {
            out.push(self.access_inner(core, ip, r.addr, r.len, r.kind, ibs_on, wp_armed));
        }
        self.run_outcomes = out;
        &self.run_outcomes
    }

    /// One line-chunk of an operation: `len` bytes at `addr`, all within one line.  The
    /// utilization tallies see the chunk as it executes; a chunk is a *fetch* when its
    /// own line missed the private caches (filled from L3, a foreign cache or DRAM).
    /// The exact tally counts every fetch, the sampled one those of a `tagged` operation.
    #[inline(always)]
    fn access_chunk(
        &mut self,
        core: CoreId,
        addr: u64,
        len: u64,
        kind: AccessKind,
        tagged: bool,
    ) -> AccessOutcome {
        let outcome = self.hierarchy.access(core, addr, kind);
        if self.ground_truth.is_some() || self.utilization.is_some() {
            let line_size = self.hierarchy.config().l1.line_size as u64;
            let mask = granule_mask(addr, len, line_size);
            let is_fetch = outcome.level.is_miss();
            if let Some(gt) = self.ground_truth.as_mut() {
                gt.utilization
                    .record_chunk(core, outcome.line, mask, is_fetch, true);
            }
            if let Some(ut) = self.utilization.as_mut() {
                ut.record_chunk(core, outcome.line, mask, is_fetch, tagged);
            }
        }
        outcome
    }

    #[allow(clippy::too_many_arguments)]
    fn access_inner(
        &mut self,
        core: CoreId,
        ip: FunctionId,
        addr: u64,
        len: u64,
        kind: AccessKind,
        ibs_on: bool,
        wp_armed: bool,
    ) -> AccessOutcome {
        assert!(len > 0, "zero-length access");
        if let Some(s) = self.session.as_mut() {
            s.push(SessionEvent::Access {
                core: core as u32,
                ip,
                addr,
                len,
                kind,
            });
        }
        // IBS tags an operation before it executes: whether this one will be sampled
        // is known now, so the sampled tally follows its fills as they happen.
        let tagged = ibs_on && self.ibs.tags_next(core);
        // Line sizes are powers of two (`CacheGeometry::new` asserts it): lines are
        // split with the geometry's mask, not a divide per chunk.  The first chunk
        // runs to the end of its line; the others start on a line boundary.  Most
        // operations have one chunk: its outcome is built in place as `worst`, where
        // copying a just-written outcome out of a loop variable stalled on the stores.
        let l1 = self.hierarchy.config().l1;
        let line_size = l1.line_size as u64;
        let first = (l1.line_base(addr) + line_size - addr).min(len);
        let mut worst = self.access_chunk(core, addr, first, kind, tagged);
        let mut total_latency = worst.latency;
        let mut offset = first;
        while offset < len {
            let chunk = line_size.min(len - offset);
            let outcome = self.access_chunk(core, addr + offset, chunk, kind, tagged);
            total_latency += outcome.latency;
            if outcome.latency > worst.latency {
                worst = outcome;
            }
            offset += chunk;
        }

        if let Some(gt) = self.ground_truth.as_mut() {
            gt.record(addr, kind, worst.level, worst.latency);
        }

        // Charge the core and the function counters.
        let charged = total_latency + self.config.op_cost;
        self.clocks[core] += charged;
        let counters = self.counters_mut(ip);
        counters.cycles += charged;
        counters.accesses += 1;
        if worst.level != HitLevel::L1 {
            counters.l1_misses += 1;
        }
        if worst.level.is_miss() {
            counters.l2_misses += 1;
        }

        // Profiling hardware (skipped entirely when idle).
        if ibs_on || wp_armed {
            let cycle = self.clocks[core];
            let mut cost = 0;
            if ibs_on {
                cost += self
                    .ibs
                    .on_access(core, ip, addr, kind, worst.level, worst.latency, cycle);
            }
            if wp_armed {
                cost += self.watchpoints.on_access(core, ip, addr, len, kind, cycle);
            }
            if cost > 0 {
                self.clocks[core] += cost;
                self.profiling_cycles[core] += cost;
            }
        }

        worst
    }

    /// Convenience wrapper: a read access.
    pub fn read(&mut self, core: CoreId, ip: FunctionId, addr: u64, len: u64) -> AccessOutcome {
        self.access(core, ip, addr, len, AccessKind::Read)
    }

    /// Convenience wrapper: a write access.
    pub fn write(&mut self, core: CoreId, ip: FunctionId, addr: u64, len: u64) -> AccessOutcome {
        self.access(core, ip, addr, len, AccessKind::Write)
    }

    /// Configures IBS sampling.
    pub fn configure_ibs(&mut self, config: IbsConfig) {
        self.ibs.configure(config);
    }

    /// Arms a watchpoint, charging the cross-core broadcast cost to `core`.
    pub fn arm_watchpoint(
        &mut self,
        core: CoreId,
        addr: u64,
        len: u64,
    ) -> Result<WatchpointId, WatchpointError> {
        let (id, cost) = self.watchpoints.arm(addr, len)?;
        self.clocks[core] += cost;
        self.profiling_cycles[core] += cost;
        Ok(id)
    }

    /// Charges the memory-subsystem reservation cost for profiling an object to `core`.
    pub fn charge_profiling_reservation(&mut self, core: CoreId) {
        let cost = self.watchpoints.charge_memory_reservation();
        self.clocks[core] += cost;
        self.profiling_cycles[core] += cost;
    }

    /// Disarms a watchpoint.
    pub fn disarm_watchpoint(&mut self, id: WatchpointId) {
        self.watchpoints.disarm(id);
    }

    /// The per-function counters (OProfile's raw material), as a map keyed by function
    /// id.  Functions with no recorded activity are omitted.  Built on demand — the hot
    /// path stores counters in a dense array, not a hash map.
    pub fn function_counters(&self) -> HashMap<FunctionId, FunctionCounters> {
        let mut map: HashMap<FunctionId, FunctionCounters> = self
            .fn_counters
            .iter()
            .enumerate()
            .filter(|(_, c)| **c != FunctionCounters::default())
            .map(|(i, c)| (FunctionId(i as u32), *c))
            .collect();
        if self.unknown_counters != FunctionCounters::default() {
            map.insert(FunctionId::UNKNOWN, self.unknown_counters);
        }
        map
    }

    /// Resets statistics, clocks, counters and profiling costs, keeping the cache
    /// contents, interned symbols and armed watchpoints.
    pub fn reset_measurement(&mut self) {
        self.hierarchy.reset_stats();
        for c in &mut self.clocks {
            *c = 0;
        }
        for p in &mut self.profiling_cycles {
            *p = 0;
        }
        self.fn_counters.clear();
        self.unknown_counters = FunctionCounters::default();
        self.watchpoints.reset_overhead();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cache::LineUtilCounts;

    fn machine() -> Machine {
        Machine::new(MachineConfig::small_test())
    }

    #[test]
    fn access_advances_clock_by_latency_plus_op_cost() {
        let mut m = machine();
        let ip = m.fn_id("f");
        let before = m.clock(0);
        let out = m.read(0, ip, 0x1000, 8);
        assert_eq!(m.clock(0), before + out.latency + m.config().op_cost);
    }

    #[test]
    fn multi_line_access_touches_both_lines() {
        let mut m = machine();
        let ip = m.fn_id("memcpy");
        // 128-byte access spanning two 64-byte lines.
        m.read(0, ip, 0x1000, 128);
        // Both lines should now be resident.
        assert_eq!(m.read(0, ip, 0x1000, 8).level, HitLevel::L1);
        assert_eq!(m.read(0, ip, 0x1040, 8).level, HitLevel::L1);
    }

    #[test]
    fn straddling_access_hits_second_line() {
        let mut m = machine();
        let ip = m.fn_id("f");
        // Access that starts near the end of one line and spills into the next.
        m.read(0, ip, 0x1038, 16);
        assert_eq!(m.read(0, ip, 0x1040, 8).level, HitLevel::L1);
    }

    #[test]
    fn function_counters_accumulate() {
        let mut m = machine();
        let f = m.fn_id("udp_recvmsg");
        let g = m.fn_id("kfree");
        m.read(0, f, 0x1000, 8);
        m.read(0, f, 0x1000, 8);
        m.write(1, g, 0x2000, 8);
        let fc = m.function_counters();
        assert_eq!(fc[&f].accesses, 2);
        assert_eq!(fc[&g].accesses, 1);
        assert!(fc[&f].cycles > 0);
        // First access missed, second hit.
        assert_eq!(fc[&f].l2_misses, 1);
    }

    #[test]
    fn compute_charges_named_function() {
        let mut m = machine();
        let f = m.fn_id("do_work");
        m.compute(0, f, 500);
        assert_eq!(m.clock(0), 500);
        assert_eq!(m.function_counters()[&f].cycles, 500);
        assert_eq!(m.function_counters()[&f].accesses, 0);
    }

    #[test]
    fn ibs_sampling_adds_profiling_cycles() {
        let mut m = machine();
        let ip = m.fn_id("hot");
        m.configure_ibs(IbsConfig {
            policy: crate::ibs::SamplingPolicy::fixed(5),
            interrupt_cost: 2_000,
            seed: 1,
        });
        for i in 0..1_000u64 {
            m.read(0, ip, 0x1000 + (i % 16) * 64, 8);
        }
        assert!(m.ibs.samples_taken > 0);
        assert_eq!(m.profiling_cycles(0), m.ibs.samples_taken * 2_000);
    }

    #[test]
    fn watchpoint_arm_and_hit_charge_costs() {
        let mut m = machine();
        let ip = m.fn_id("tcp_write");
        let before = m.clock(0);
        let id = m.arm_watchpoint(0, 0x5000, 8).unwrap();
        assert!(m.clock(0) > before, "arming must charge the broadcast cost");
        m.write(1, ip, 0x5000, 4);
        assert_eq!(m.watchpoints.buffered(), 1);
        assert!(m.profiling_cycles(1) >= 1_000);
        m.disarm_watchpoint(id);
        m.write(1, ip, 0x5000, 4);
        assert_eq!(m.watchpoints.buffered(), 1, "no hit after disarm");
    }

    #[test]
    fn elapsed_seconds_uses_max_clock() {
        let mut m = machine();
        let ip = m.fn_id("f");
        m.compute(0, ip, 1_000_000);
        m.compute(1, ip, 2_000_000);
        let secs = m.elapsed_seconds();
        assert!((secs - 2e-3).abs() < 1e-9);
    }

    #[test]
    fn reset_measurement_clears_counters_but_keeps_cache() {
        let mut m = machine();
        let ip = m.fn_id("f");
        m.read(0, ip, 0x1000, 8);
        m.reset_measurement();
        assert_eq!(m.clock(0), 0);
        assert!(m.function_counters().is_empty());
        // Cache contents survive: immediate hit.
        assert_eq!(m.read(0, ip, 0x1000, 8).level, HitLevel::L1);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_access_rejected() {
        let mut m = machine();
        let ip = m.fn_id("f");
        m.read(0, ip, 0x1000, 0);
    }

    #[test]
    #[should_panic(expected = "not interned")]
    fn non_interned_function_id_rejected() {
        let mut m = machine();
        m.compute(0, FunctionId(999), 1);
    }

    #[test]
    fn access_run_equivalent_to_sequential_accesses() {
        // Two identical machines with IBS sampling on and a watchpoint armed: a batch
        // must produce exactly the same outcomes, clocks, counters and profiling
        // charges as the per-access API.
        let build = || {
            let mut m = machine();
            m.configure_ibs(IbsConfig {
                policy: crate::ibs::SamplingPolicy::fixed(3),
                interrupt_cost: 500,
                seed: 11,
            });
            m.arm_watchpoint(0, 0x2000, 8).unwrap();
            m.start_ground_truth();
            m.start_utilization();
            m
        };
        let mut seq = build();
        let mut bat = build();
        let ip_seq = seq.fn_id("hot");
        let ip_bat = bat.fn_id("hot");

        let reqs: Vec<AccessReq> = (0..64u64)
            .map(|i| {
                let addr = 0x2000 + (i % 7) * 24;
                if i % 3 == 0 {
                    AccessReq::write(addr, 16)
                } else {
                    AccessReq::read(addr, 8)
                }
            })
            .collect();

        let seq_outcomes: Vec<AccessOutcome> = reqs
            .iter()
            .map(|r| seq.access(0, ip_seq, r.addr, r.len, r.kind))
            .collect();
        let bat_outcomes = bat.access_run(0, ip_bat, &reqs).to_vec();

        assert_eq!(seq_outcomes, bat_outcomes);
        assert_eq!(seq.clock(0), bat.clock(0));
        assert_eq!(seq.profiling_cycles(0), bat.profiling_cycles(0));
        assert_eq!(seq.function_counters(), bat.function_counters());
        assert_eq!(seq.watchpoints.buffered(), bat.watchpoints.buffered());
        assert_eq!(seq.ibs.samples_taken, bat.ibs.samples_taken);
        assert!(bat.watchpoints.buffered() > 0, "watchpoint must have fired");

        let gt_seq = seq.take_ground_truth().unwrap();
        let gt_bat = bat.take_ground_truth().unwrap();
        assert_eq!(gt_seq.total_accesses, gt_bat.total_accesses);
        assert_eq!(
            gt_seq.utilization.snapshot(),
            gt_bat.utilization.snapshot(),
            "exact utilization tallies must match between batched and sequential runs"
        );
        let ut_seq = seq.take_utilization().unwrap();
        let ut_bat = bat.take_utilization().unwrap();
        assert_eq!(ut_seq.snapshot(), ut_bat.snapshot());
        assert_eq!(ut_seq.total_fetches, ut_bat.total_fetches);

        // What the tallies hold, pinned to what the SipHash-backed tables held for
        // this stream: three lines filled once each, every offset both read (8 bytes)
        // and written (16 bytes); IBS sampled only the fill of the third.
        let once = |touched| LineUtilCounts {
            fetches: 1,
            refetches: 0,
            touched,
        };
        let exact = vec![
            (0x80, once([1, 1, 0, 1, 1, 0, 1, 1])),
            (0x81, once([0, 1, 1, 0, 1, 1, 0, 1])),
            (0x82, once([1, 0, 1, 1, 0, 0, 0, 0])),
        ];
        assert_eq!(gt_seq.utilization.snapshot(), exact);
        assert_eq!(gt_seq.utilization.total_fetches, 3);
        assert_eq!(gt_seq.utilization.total_refetches, 0);
        assert_eq!(ut_seq.snapshot(), exact[2..]);
        assert_eq!(ut_seq.total_fetches, 1);
    }

    #[test]
    fn exact_utilization_tracks_touched_granules() {
        let mut m = machine();
        let ip = m.fn_id("f");
        m.start_ground_truth();
        // Cold fill touching granule 0, two more touches at granules 1 and 7, then
        // evict-and-refetch is approximated by a second pass after thrashing the set.
        m.read(0, ip, 0x1000, 8);
        m.read(0, ip, 0x1008, 8);
        m.read(0, ip, 0x1038, 8);
        let gt = m.take_ground_truth().unwrap();
        let snap = gt.utilization.snapshot();
        let (line, counts) = snap
            .iter()
            .find(|&&(l, _)| l == 0x1000 / 64)
            .copied()
            .unwrap();
        assert_eq!(line, 0x40);
        assert_eq!(counts.fetches, 1);
        assert_eq!(counts.refetches, 0);
        assert_eq!(counts.touched[0], 1);
        assert_eq!(counts.touched[1], 1);
        assert_eq!(counts.touched[7], 1);
        assert_eq!(counts.touched_slots(), 3);
    }

    #[test]
    fn exact_utilization_counts_refetch_after_eviction() {
        let mut m = machine();
        let ip = m.fn_id("f");
        m.start_ground_truth();
        m.read(0, ip, 0x1000, 8);
        // small_test L1: 2KB 2-way 16 sets, L2: 8KB 4-way 32 sets.  Walk enough
        // same-set lines to evict 0x1000 from both private levels (32KB stride-free
        // sweep exceeds L2 capacity).
        for i in 1..=512u64 {
            m.read(0, ip, 0x1000 + i * 64, 8);
        }
        m.read(0, ip, 0x1000, 8); // re-fetch of evicted-then-reused line
        let gt = m.take_ground_truth().unwrap();
        let counts = gt
            .utilization
            .snapshot()
            .iter()
            .find(|&&(l, _)| l == 0x40)
            .map(|&(_, c)| c)
            .unwrap();
        assert_eq!(counts.fetches, 2);
        assert_eq!(counts.refetches, 1);
        assert!(gt.utilization.total_refetches >= 1);
    }

    #[test]
    fn sampled_utilization_counts_only_sampled_fills() {
        let mut m = machine();
        let ip = m.fn_id("f");
        m.start_utilization();
        // IBS disabled: no fill is ever sampled, so nothing is counted.
        for i in 0..64u64 {
            m.read(0, ip, 0x1000 + i * 64, 8);
        }
        let ut = m.take_utilization().unwrap();
        assert!(ut.is_empty());
        assert_eq!(ut.total_fetches, 0);

        // With IBS on, sampled fills open residencies.
        m.configure_ibs(IbsConfig {
            policy: crate::ibs::SamplingPolicy::fixed(2),
            interrupt_cost: 0,
            seed: 7,
        });
        m.start_utilization();
        for i in 0..64u64 {
            m.read(1, ip, 0x4_0000 + i * 64, 8);
        }
        let ut = m.take_utilization().unwrap();
        assert!(ut.total_fetches > 0);
        assert!(ut.total_fetches <= 64);
    }

    #[test]
    fn access_run_reuses_outcome_buffer() {
        let mut m = machine();
        let ip = m.fn_id("f");
        let reqs = [AccessReq::read(0x1000, 8), AccessReq::write(0x1040, 8)];
        let first: Vec<AccessOutcome> = m.access_run(0, ip, &reqs).to_vec();
        assert_eq!(first.len(), 2);
        // Second run over the warmed lines: both hit L1.
        let second = m.access_run(0, ip, &reqs);
        assert_eq!(second.len(), 2);
        assert!(second.iter().all(|o| o.level == HitLevel::L1));
    }
}
