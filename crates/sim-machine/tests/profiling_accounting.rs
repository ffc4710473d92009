//! The profiler's cycles are booked apart from the workload's: IBS and watchpoint
//! interrupts, watchpoint arming and the memory reservation each add the same cycles
//! to a core's clock and to its profiling count, and none of them touches the caches.
//! So one operation sequence, run once profiled and once not, must leave the profiled
//! machine's `clock(c) - profiling_cycles(c)` equal to the other's `clock(c)` on every
//! core, at every step — the identity `whatif` reads its baseline from a profiled
//! replay by.

use sim_machine::{AccessKind, AccessReq, IbsConfig, Machine, MachineConfig, SamplingPolicy};

/// splitmix64: a seeded, dependency-free operation stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Asserts the invariant on every core, naming the step it broke at.
fn assert_unprofiled_clocks(profiled: &Machine, plain: &Machine, step: usize) {
    for core in 0..plain.cores() {
        assert_eq!(
            profiled.clock(core) - profiled.profiling_cycles(core),
            plain.clock(core),
            "step {step}, core {core}"
        );
    }
    assert_eq!(
        profiled.unprofiled_makespan(),
        plain.max_clock(),
        "step {step}"
    );
    assert_eq!(
        plain.unprofiled_makespan(),
        plain.max_clock(),
        "step {step}"
    );
}

#[test]
fn profiling_cycles_are_exactly_what_profiling_adds_to_each_clock() {
    for seed in [1, 2, 3] {
        let config = MachineConfig::with_cores(4);
        let mut profiled = Machine::new(config);
        let mut plain = Machine::new(config);
        let ips = ["tcp_sendmsg", "memcpy", "kfree"].map(|f| {
            plain.fn_id(f);
            profiled.fn_id(f)
        });
        profiled.configure_ibs(IbsConfig {
            policy: SamplingPolicy::fixed(7),
            interrupt_cost: 2_000,
            seed,
        });

        let mut rng = Rng(seed);
        // A small address range, so watched addresses are hit and lines are shared.
        let addr = |rng: &mut Rng| 0x1_0000 + rng.below(64 * 64);
        let mut armed = Vec::new();
        for step in 0..20_000 {
            let core = rng.below(4) as usize;
            let ip = ips[rng.below(3) as usize];
            let kind = if rng.below(3) == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            match rng.below(10) {
                0 => {
                    let cycles = rng.below(500);
                    profiled.compute(core, ip, cycles);
                    plain.compute(core, ip, cycles);
                }
                1 => {
                    // A batch spanning lines, through the hoisted-check path.
                    let reqs: Vec<AccessReq> = (0..1 + rng.below(4))
                        .map(|_| AccessReq {
                            addr: addr(&mut rng),
                            len: 1 + rng.below(160),
                            kind,
                        })
                        .collect();
                    let a: Vec<_> = profiled.access_run(core, ip, &reqs).to_vec();
                    let b = plain.access_run(core, ip, &reqs);
                    assert_eq!(a.len(), b.len(), "step {step}");
                }
                // Only the profiled machine arms, reserves and disarms.
                2 if rng.below(4) == 0 => match armed.len() {
                    0..=3 if rng.below(2) == 0 => {
                        let id = profiled
                            .arm_watchpoint(core, addr(&mut rng), 8)
                            .expect("at most four armed");
                        armed.push(id);
                    }
                    0 => profiled.charge_profiling_reservation(core),
                    _ => profiled.disarm_watchpoint(armed.swap_remove(0)),
                },
                _ => {
                    let (at, len) = (addr(&mut rng), 1 + rng.below(16));
                    let a = profiled.access(core, ip, at, len, kind);
                    let b = plain.access(core, ip, at, len, kind);
                    assert_eq!(a.level, b.level, "step {step}");
                }
            }
            assert_unprofiled_clocks(&profiled, &plain, step);
        }

        assert!(profiled.ibs.samples_taken > 0, "seed {seed}: IBS sampled");
        assert!(
            profiled.watchpoints.hits_recorded > 0,
            "seed {seed}: a watchpoint fired"
        );
        assert!(
            profiled.watchpoints.arms > 0,
            "seed {seed}: watchpoints were armed"
        );
        let reserved = profiled.watchpoints.overhead.memory_cycles;
        assert!(reserved > 0, "seed {seed}: memory was reserved");
        assert!(profiled.total_profiling_cycles() > 0, "seed {seed}");
        assert_eq!(plain.total_profiling_cycles(), 0, "seed {seed}");
        assert_eq!(
            profiled.hierarchy.stats, plain.hierarchy.stats,
            "seed {seed}: profiling touched the caches"
        );
        assert_eq!(
            profiled.hierarchy.per_core, plain.hierarchy.per_core,
            "seed {seed}"
        );
    }
}
