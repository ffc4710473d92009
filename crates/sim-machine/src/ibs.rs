//! Instruction-based sampling (IBS) unit.
//!
//! AMD's IBS hardware randomly tags an instruction about to enter the pipeline and, when
//! it retires, reports its instruction pointer, the data address it touched, whether the
//! access hit in the cache and the access latency, then raises an interrupt (§5.1 of the
//! thesis).  This module reproduces that interface: the unit is armed with a sampling
//! policy, picks operations pseudo-randomly, records an [`IbsRecord`] per sample and
//! charges the configured interrupt cost (~2,000 cycles on the paper's test machine) to
//! the sampled core.
//!
//! Two policies are supported (see `docs/sampling.md`):
//!
//! * [`SamplingPolicy::Fixed`] — the classic rate-limited mode: one sample every
//!   `interval_ops` memory operations on average, for as long as the unit is armed.
//! * [`SamplingPolicy::Adaptive`] — a *budgeted* mode: the caller specifies the maximum
//!   number of samples the whole armed phase may spend, and the unit steers its
//!   interval so the budget lasts however long the phase turns out to be.  The
//!   controller is exponential-decay: it spends half of the remaining budget per
//!   *generation*, quadrupling the mean interval at each generation boundary.  Halving
//!   the samples while quadrupling the interval means each generation covers twice the
//!   operations of the previous one — geometric growth, so the first samples arrive
//!   quickly (small workloads still get profiled) while an arbitrarily long phase can
//!   never exhaust the budget early.  The budget is a hard cap — the unit stops
//!   sampling outright once it is spent.
//!
//! Both policies are deterministic: the sample stream is a pure function of the
//! configuration (policy + seed) and the machine's access stream, which is what lets
//! `dprof replay` reproduce a recorded run's samples — and therefore its report —
//! byte for byte.

use crate::symbols::FunctionId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sim_cache::{AccessKind, CoreId, HitLevel};

/// How the IBS unit decides which memory operations to sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SamplingPolicy {
    /// Sampling off.
    Disabled,
    /// One sample every `interval_ops` memory operations on average.
    Fixed {
        /// Mean number of memory operations between samples on a given core.
        interval_ops: u64,
    },
    /// Budgeted adaptive sampling: at most `budget` samples for the whole armed
    /// phase, spread by the exponential-decay controller.
    Adaptive {
        /// Hard cap on samples taken between [`IbsUnit::configure`] calls.
        budget: u64,
    },
}

impl SamplingPolicy {
    /// A fixed-rate policy (`interval_ops` of 0 means disabled).
    pub fn fixed(interval_ops: u64) -> Self {
        if interval_ops == 0 {
            SamplingPolicy::Disabled
        } else {
            SamplingPolicy::Fixed { interval_ops }
        }
    }

    /// A budgeted adaptive policy (a `budget` of 0 means disabled).
    pub fn adaptive(budget: u64) -> Self {
        if budget == 0 {
            SamplingPolicy::Disabled
        } else {
            SamplingPolicy::Adaptive { budget }
        }
    }

    /// True unless the policy is [`SamplingPolicy::Disabled`].
    pub fn enabled(&self) -> bool {
        !matches!(self, SamplingPolicy::Disabled)
    }

    /// The adaptive budget, if this is an adaptive policy.
    pub fn budget(&self) -> Option<u64> {
        match self {
            SamplingPolicy::Adaptive { budget } => Some(*budget),
            _ => None,
        }
    }

    /// Parses the CLI / trace-header spelling: `fixed:<interval>` or
    /// `adaptive:<budget>` (both values must be positive).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (kind, value) = spec.split_once(':').ok_or_else(|| {
            format!(
                "invalid sampling policy '{spec}' (expected fixed:<interval> or adaptive:<budget>)"
            )
        })?;
        let n: u64 = value
            .parse()
            .map_err(|_| format!("invalid sampling policy value '{value}' in '{spec}'"))?;
        if n == 0 {
            return Err(format!(
                "sampling policy '{spec}' must have a positive value"
            ));
        }
        match kind {
            "fixed" => Ok(SamplingPolicy::Fixed { interval_ops: n }),
            "adaptive" => Ok(SamplingPolicy::Adaptive { budget: n }),
            other => Err(format!(
                "unknown sampling policy '{other}' (expected fixed or adaptive)"
            )),
        }
    }
}

impl std::fmt::Display for SamplingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SamplingPolicy::Disabled => f.write_str("disabled"),
            SamplingPolicy::Fixed { interval_ops } => write!(f, "fixed:{interval_ops}"),
            SamplingPolicy::Adaptive { budget } => write!(f, "adaptive:{budget}"),
        }
    }
}

/// Configuration of the IBS unit.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct IbsConfig {
    /// Which operations to sample.
    pub policy: SamplingPolicy,
    /// Cycles charged to the core for each sample interrupt (the thesis measures
    /// ~2,000 cycles, half of which is reading the IBS registers).
    pub interrupt_cost: u64,
    /// RNG seed so profiling runs are reproducible.
    pub seed: u64,
}

impl Default for IbsConfig {
    fn default() -> Self {
        IbsConfig {
            policy: SamplingPolicy::Disabled,
            interrupt_cost: 2_000,
            seed: 0x1b5,
        }
    }
}

impl IbsConfig {
    /// Enabled fixed-rate configuration sampling every `interval_ops` operations on
    /// average.
    pub fn with_interval(interval_ops: u64) -> Self {
        Self::with_policy(SamplingPolicy::fixed(interval_ops))
    }

    /// Enabled configuration with an arbitrary policy.
    pub fn with_policy(policy: SamplingPolicy) -> Self {
        IbsConfig {
            policy,
            ..Default::default()
        }
    }

    /// True if sampling is enabled.
    pub fn enabled(&self) -> bool {
        self.policy.enabled()
    }
}

/// One IBS sample: everything the hardware reports about a tagged memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IbsRecord {
    /// Core the tagged instruction executed on.
    pub core: CoreId,
    /// Instruction pointer (synthetic function id).
    pub ip: FunctionId,
    /// Data (virtual = physical in our simulation) address accessed.
    pub addr: u64,
    /// Whether the operation was a load or a store.
    pub kind: AccessKind,
    /// Which level of the memory system satisfied the access.
    pub level: HitLevel,
    /// Access latency in cycles.
    pub latency: u64,
    /// Core-local cycle count when the sample retired.
    pub cycle: u64,
}

/// First-generation mean interval of the adaptive controller: aggressively small, so
/// even a short phase spends most of its budget (a stream of `4 * budget / 2`
/// operations already exhausts generation 0) before the interval starts growing.
const ADAPTIVE_BASE_INTERVAL: u64 = 4;

/// Ceiling on the adaptive interval; beyond this the budget is effectively being
/// preserved for the tail of a very long phase and further doubling adds nothing.
const ADAPTIVE_MAX_INTERVAL: u64 = 1 << 20;

/// The per-machine IBS sampling unit.
#[derive(Debug, Clone)]
pub struct IbsUnit {
    config: IbsConfig,
    /// Per-core countdown until the next tagged operation.
    countdown: Vec<u64>,
    rng: StdRng,
    /// Collected samples, drained by the profiler.
    buffer: Vec<IbsRecord>,
    /// Total interrupt cycles charged, for overhead accounting (Figure 6-2).
    pub interrupt_cycles: u64,
    /// Total number of samples taken over the unit's lifetime.
    pub samples_taken: u64,
    /// Samples taken since the last [`Self::configure`] — what the adaptive budget
    /// is accounted against.
    phase_samples: u64,
    /// Mean re-arm interval currently in force (fixed: the configured interval;
    /// adaptive: quadruples at each generation boundary).
    current_interval: u64,
    /// Adaptive mode: samples left in the current generation before the interval
    /// grows.  Unused in fixed mode.
    generation_remaining: u64,
}

impl IbsUnit {
    /// Creates a disabled IBS unit for `cores` cores.
    pub fn new(cores: usize) -> Self {
        IbsUnit {
            config: IbsConfig::default(),
            countdown: vec![u64::MAX; cores],
            rng: StdRng::seed_from_u64(IbsConfig::default().seed),
            buffer: Vec::new(),
            interrupt_cycles: 0,
            samples_taken: 0,
            phase_samples: 0,
            current_interval: 0,
            generation_remaining: 0,
        }
    }

    /// Reconfigures (and re-arms) the unit.  All controller state — RNG, per-core
    /// countdowns, the adaptive generation ladder and the phase sample counter — is
    /// reset, so a sampling phase is a pure function of the configuration and the
    /// access stream that follows (the record/replay determinism contract).
    pub fn configure(&mut self, config: IbsConfig) {
        self.config = config;
        self.rng = StdRng::seed_from_u64(config.seed);
        self.phase_samples = 0;
        match config.policy {
            SamplingPolicy::Disabled => {
                self.current_interval = 0;
                self.generation_remaining = 0;
            }
            SamplingPolicy::Fixed { interval_ops } => {
                self.current_interval = interval_ops;
                self.generation_remaining = 0;
            }
            SamplingPolicy::Adaptive { budget } => {
                self.current_interval = ADAPTIVE_BASE_INTERVAL;
                // First generation: half the budget (every generation spends half of
                // what is left, so the ladder never runs dry before the phase ends).
                self.generation_remaining = (budget / 2).max(1);
            }
        }
        let cores = self.countdown.len();
        self.countdown = (0..cores).map(|_| self.next_interval()).collect();
    }

    /// The active configuration.
    pub fn config(&self) -> IbsConfig {
        self.config
    }

    /// Samples taken since the last [`Self::configure`] (what an adaptive budget is
    /// charged against).
    pub fn phase_samples(&self) -> u64 {
        self.phase_samples
    }

    /// The mean re-arm interval currently in force (diagnostic; the adaptive
    /// controller quadruples it at each generation boundary).
    pub fn current_interval(&self) -> u64 {
        self.current_interval
    }

    /// True if an adaptive budget is configured and fully spent.
    pub fn budget_exhausted(&self) -> bool {
        match self.config.policy {
            SamplingPolicy::Adaptive { budget } => self.phase_samples >= budget,
            _ => false,
        }
    }

    fn next_interval(&mut self) -> u64 {
        if !self.config.enabled() || self.budget_exhausted() {
            return u64::MAX;
        }
        // Real IBS uses a fixed maximum count with a randomized low-order offset; we
        // draw uniformly in [interval/2, 3*interval/2] which has the same mean.
        let base = self.current_interval;
        let lo = (base / 2).max(1);
        let hi = base.saturating_add(base / 2);
        self.rng.gen_range(lo..=hi.max(lo))
    }

    /// Adaptive bookkeeping after a sample fires: consume one generation slot and, at
    /// the generation boundary, budget half of what remains for the next generation
    /// while quadrupling the interval (so each generation spans twice the operations
    /// of the one before it).
    fn note_adaptive_sample(&mut self) {
        let SamplingPolicy::Adaptive { budget } = self.config.policy else {
            return;
        };
        self.generation_remaining = self.generation_remaining.saturating_sub(1);
        if self.generation_remaining == 0 {
            let remaining = budget.saturating_sub(self.phase_samples);
            self.generation_remaining = (remaining / 2).max(1).min(remaining.max(1));
            self.current_interval = (self.current_interval * 4).min(ADAPTIVE_MAX_INTERVAL);
        }
    }

    /// True if the next memory operation on `core` is the one IBS has tagged: the next
    /// [`Self::on_access`] for that core will take a sample.  Real IBS tags an
    /// operation as it enters the pipeline; here the decision depends on nothing the
    /// access itself produces, so the machine can ask before it performs the access
    /// and follow the operation's fills as they happen.
    #[inline]
    pub fn tags_next(&self, core: CoreId) -> bool {
        self.config.enabled() && self.countdown[core] <= 1 && !self.budget_exhausted()
    }

    /// Notifies the unit of a completed memory operation.  Returns the cycles of
    /// interrupt overhead to charge to the core (zero unless this op was sampled).
    #[allow(clippy::too_many_arguments)]
    pub fn on_access(
        &mut self,
        core: CoreId,
        ip: FunctionId,
        addr: u64,
        kind: AccessKind,
        level: HitLevel,
        latency: u64,
        cycle: u64,
    ) -> u64 {
        if !self.config.enabled() {
            return 0;
        }
        let cd = &mut self.countdown[core];
        if *cd > 1 {
            *cd -= 1;
            return 0;
        }
        if self.budget_exhausted() {
            // The adaptive budget is a hard cap: park the core instead of sampling.
            self.countdown[core] = u64::MAX;
            return 0;
        }
        // Sample fires.
        debug_assert!(self.tags_next(core), "tags_next must foretell every sample");
        self.phase_samples += 1;
        self.note_adaptive_sample();
        self.countdown[core] = self.next_interval();
        self.buffer.push(IbsRecord {
            core,
            ip,
            addr,
            kind,
            level,
            latency,
            cycle,
        });
        self.samples_taken += 1;
        self.interrupt_cycles += self.config.interrupt_cost;
        self.config.interrupt_cost
    }

    /// Drains all collected samples.
    pub fn drain(&mut self) -> Vec<IbsRecord> {
        std::mem::take(&mut self.buffer)
    }

    /// Number of samples currently buffered.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// What the machine's sampled tally rests on: [`IbsUnit::tags_next`], read before
        /// an operation, says whether that operation's `on_access` takes a sample — for
        /// every operation on every core, under every policy, across a budget running
        /// out mid-stream and across a reconfiguration.
        #[test]
        fn tags_next_foretells_every_sample(
            stream in proptest::collection::vec(0usize..4, 1..3_000),
            policies in (0usize..6, 0usize..6),
            reconfigure_at in 0usize..3_000,
            seed in 0u64..1_000,
        ) {
            let policy = |i| {
                [
                    SamplingPolicy::Disabled,
                    SamplingPolicy::fixed(1),
                    SamplingPolicy::fixed(7),
                    SamplingPolicy::fixed(150),
                    // Spent within the first few hundred operations.
                    SamplingPolicy::adaptive(3),
                    SamplingPolicy::adaptive(40),
                ][i]
            };
            let config = |i| IbsConfig { policy: policy(i), interrupt_cost: 5, seed };
            let (ip, addr, kind, level, lat) = sample_args();
            // A new unit is disabled until configured: index 0 leaves it as built.
            let mut u = IbsUnit::new(4);
            if policies.0 != 0 {
                u.configure(config(policies.0));
            }
            for (i, &core) in stream.iter().enumerate() {
                if i == reconfigure_at {
                    u.configure(config(policies.1));
                }
                let tagged = u.tags_next(core);
                let before = u.samples_taken;
                let cost = u.on_access(core, ip, addr, kind, level, lat, i as u64);
                prop_assert_eq!(
                    tagged,
                    u.samples_taken == before + 1,
                    "operation {} on core {} under {}", i, core, u.config().policy
                );
                prop_assert_eq!(cost, if tagged { 5 } else { 0 });
            }
            prop_assert!(u.phase_samples() <= u.config().policy.budget().unwrap_or(u64::MAX));
        }
    }

    fn sample_args() -> (FunctionId, u64, AccessKind, HitLevel, u64) {
        (FunctionId(1), 0x1000, AccessKind::Read, HitLevel::L1, 3)
    }

    #[test]
    fn disabled_unit_never_samples() {
        let mut u = IbsUnit::new(2);
        let (ip, addr, kind, level, lat) = sample_args();
        for i in 0..10_000 {
            assert_eq!(u.on_access(0, ip, addr, kind, level, lat, i), 0);
        }
        assert_eq!(u.buffered(), 0);
        assert_eq!(u.samples_taken, 0);
    }

    #[test]
    fn enabled_unit_samples_at_roughly_the_configured_rate() {
        let mut u = IbsUnit::new(1);
        u.configure(IbsConfig::with_interval(100));
        let (ip, addr, kind, level, lat) = sample_args();
        let n = 100_000u64;
        for i in 0..n {
            u.on_access(0, ip, addr, kind, level, lat, i);
        }
        let expected = n / 100;
        let got = u.samples_taken;
        assert!(
            got > expected / 2 && got < expected * 2,
            "expected ~{expected} samples, got {got}"
        );
    }

    #[test]
    fn sampling_charges_interrupt_cost() {
        let mut u = IbsUnit::new(1);
        u.configure(IbsConfig {
            policy: SamplingPolicy::fixed(10),
            interrupt_cost: 2_000,
            seed: 7,
        });
        let (ip, addr, kind, level, lat) = sample_args();
        let mut charged = 0;
        for i in 0..1_000 {
            charged += u.on_access(0, ip, addr, kind, level, lat, i);
        }
        assert_eq!(charged, u.samples_taken * 2_000);
        assert_eq!(u.interrupt_cycles, charged);
    }

    #[test]
    fn samples_carry_access_details() {
        let mut u = IbsUnit::new(1);
        u.configure(IbsConfig {
            policy: SamplingPolicy::fixed(1),
            interrupt_cost: 0,
            seed: 1,
        });
        u.on_access(
            0,
            FunctionId(9),
            0xdead,
            AccessKind::Write,
            HitLevel::RemoteCache,
            200,
            42,
        );
        // interval 1 means every access is eligible; the very first countdown may be 1.
        let drained = u.drain();
        assert!(!drained.is_empty());
        let r = drained[0];
        assert_eq!(r.ip, FunctionId(9));
        assert_eq!(r.addr, 0xdead);
        assert_eq!(r.level, HitLevel::RemoteCache);
        assert_eq!(u.buffered(), 0);
    }

    #[test]
    fn reconfigure_resets_reproducibly() {
        let run = |seed| {
            let mut u = IbsUnit::new(1);
            u.configure(IbsConfig {
                policy: SamplingPolicy::fixed(50),
                interrupt_cost: 0,
                seed,
            });
            let (ip, addr, kind, level, lat) = sample_args();
            for i in 0..10_000 {
                u.on_access(0, ip, addr, kind, level, lat, i);
            }
            u.samples_taken
        };
        assert_eq!(run(3), run(3), "same seed must give same sample count");
    }

    #[test]
    fn policy_parse_and_display_round_trip() {
        assert_eq!(
            SamplingPolicy::parse("fixed:200").unwrap(),
            SamplingPolicy::Fixed { interval_ops: 200 }
        );
        assert_eq!(
            SamplingPolicy::parse("adaptive:5000").unwrap(),
            SamplingPolicy::Adaptive { budget: 5000 }
        );
        for spec in ["fixed:200", "adaptive:5000"] {
            assert_eq!(SamplingPolicy::parse(spec).unwrap().to_string(), spec);
        }
        for bad in [
            "fixed",
            "fixed:",
            "fixed:0",
            "adaptive:0",
            "adaptive:x",
            "nope:5",
            "200",
        ] {
            assert!(
                SamplingPolicy::parse(bad).is_err(),
                "'{bad}' must not parse"
            );
        }
        assert_eq!(SamplingPolicy::fixed(0), SamplingPolicy::Disabled);
        assert_eq!(SamplingPolicy::adaptive(0), SamplingPolicy::Disabled);
    }

    #[test]
    fn adaptive_budget_is_a_hard_cap() {
        let (ip, addr, kind, level, lat) = sample_args();
        for budget in [1u64, 2, 7, 100, 1_000] {
            let mut u = IbsUnit::new(4);
            u.configure(IbsConfig {
                policy: SamplingPolicy::adaptive(budget),
                interrupt_cost: 0,
                seed: 9,
            });
            for i in 0..200_000u64 {
                u.on_access((i % 4) as usize, ip, addr, kind, level, lat, i);
            }
            assert!(
                u.phase_samples() <= budget,
                "budget {budget} exceeded: {} samples",
                u.phase_samples()
            );
            assert!(
                u.samples_taken > 0,
                "budget {budget} took no samples at all"
            );
        }
    }

    #[test]
    fn adaptive_interval_grows_across_generations() {
        let (ip, addr, kind, level, lat) = sample_args();
        let mut u = IbsUnit::new(1);
        u.configure(IbsConfig {
            policy: SamplingPolicy::adaptive(64),
            interrupt_cost: 0,
            seed: 5,
        });
        assert_eq!(u.current_interval(), ADAPTIVE_BASE_INTERVAL);
        // Spend the first generation (32 samples) and then some.
        for i in 0..20_000u64 {
            u.on_access(0, ip, addr, kind, level, lat, i);
        }
        assert!(
            u.current_interval() > ADAPTIVE_BASE_INTERVAL,
            "interval should have grown at least once, still {}",
            u.current_interval()
        );
        assert!(u.phase_samples() <= 64);
    }

    #[test]
    fn adaptive_spreads_samples_over_a_long_phase() {
        // With a fixed interval of 32 a 200k-op stream would burn ~6250 samples; the
        // adaptive controller must keep some budget alive into the last tenth of the
        // stream instead of exhausting it at the start.
        let (ip, addr, kind, level, lat) = sample_args();
        let mut u = IbsUnit::new(1);
        u.configure(IbsConfig {
            policy: SamplingPolicy::adaptive(200),
            interrupt_cost: 0,
            seed: 3,
        });
        let n = 200_000u64;
        let mut last_sample_at = 0u64;
        for i in 0..n {
            let before = u.buffered();
            u.on_access(0, ip, addr, kind, level, lat, i);
            if u.buffered() > before {
                last_sample_at = i;
            }
        }
        assert!(u.phase_samples() <= 200);
        assert!(
            last_sample_at > n / 2,
            "budget exhausted too early: last sample at op {last_sample_at} of {n}"
        );
    }
}
