//! The machine asks IBS *before* an operation whether it is the tagged one
//! ([`IbsUnit::tags_next`]) and feeds the sampled line-utilization tally chunk by chunk
//! as the operation executes.  These tests pin what that decides: which fills the
//! sampled tally follows, and that following all of them is the exact tally.

use sim_cache::LineUtilCounts;
use sim_machine::{AccessKind, IbsConfig, Machine, MachineConfig, SamplingPolicy};

fn ibs(policy: SamplingPolicy) -> IbsConfig {
    IbsConfig {
        policy,
        interrupt_cost: 0,
        seed: 1,
    }
}

fn once(touched: [u64; 8]) -> LineUtilCounts {
    LineUtilCounts {
        fetches: 1,
        refetches: 0,
        touched,
    }
}

#[test]
fn a_tagged_operation_follows_its_fetch_chunks_and_only_those() {
    let mut m = Machine::new(MachineConfig::small_test());
    let ip = m.fn_id("memcpy");
    // The middle one of three lines is resident before anything is tallied.
    m.read(0, ip, 0x1040, 8);

    // Far from its first sample, IBS tags nothing: a cold three-line read is three
    // fills and the sampled tally follows none of them.
    m.configure_ibs(ibs(SamplingPolicy::fixed(1_000)));
    m.start_utilization();
    assert!(!m.ibs.tags_next(0));
    assert!(m.read(0, ip, 0x8030, 96).level.is_miss());
    assert!(m.take_utilization().unwrap().is_empty());

    // `fixed:1` tags every operation.  Bytes 0x1030..0x1090 are the last two granules
    // of line 0x40 (a fill), all of line 0x41 (a hit) and the first two of line 0x42
    // (a fill): both fills are followed, the hit chunk opens nothing.
    m.configure_ibs(ibs(SamplingPolicy::fixed(1)));
    m.start_utilization();
    assert!(m.ibs.tags_next(0));
    assert!(m.read(0, ip, 0x1030, 96).level.is_miss());
    assert_eq!(m.ibs.samples_taken, 1);
    // Later hits, tagged themselves, add their granules to the residencies that are
    // open and open none on the line that has none.
    m.read(0, ip, 0x1000, 8);
    m.read(0, ip, 0x1048, 8);
    m.read(0, ip, 0x10b8, 8);
    let ut = m.take_utilization().unwrap();
    assert_eq!(
        ut.snapshot(),
        vec![
            (0x40, once([1, 0, 0, 0, 0, 0, 1, 1])),
            (0x42, once([1, 1, 0, 0, 0, 0, 0, 1])),
        ]
    );
    assert_eq!((ut.total_fetches, ut.total_refetches), (2, 0));
}

/// Following every fill is the exact tally: with `fixed:1` the sampled tally and the
/// one inside the ground truth, fed side by side, end up equal.  (CI runs this one in
/// release mode too: the two are fed from one loop the optimiser is free to split.)
#[test]
fn with_fixed_1_the_sampled_tally_equals_the_exact_one() {
    let mut m = Machine::new(MachineConfig::small_test());
    let ip = m.fn_id("f");
    m.configure_ibs(ibs(SamplingPolicy::fixed(1)));
    m.start_ground_truth();
    m.start_utilization();
    // 64 KiB from two cores through 8 KiB private caches: evictions, re-fetches,
    // invalidations, operations of 1 to 4 lines.
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let (addr, len) = (0x1_0000 + x % 0x1_0000, 1 + (x >> 32) % 200);
        let kind = if i % 4 == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        m.access((i % 2) as usize, ip, addr, len, kind);
    }
    assert_eq!(m.ibs.samples_taken, 20_000);
    let exact = m.take_ground_truth().unwrap().utilization;
    let sampled = m.take_utilization().unwrap();
    assert_eq!(sampled.snapshot(), exact.snapshot());
    assert_eq!(sampled.total_fetches, exact.total_fetches);
    assert_eq!(sampled.total_refetches, exact.total_refetches);
    assert!(exact.total_refetches > 1_000 && exact.len() > 1_000);
}
