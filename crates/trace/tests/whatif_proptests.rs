//! Property tests for the what-if transform layer: the counterfactual replay must be
//! a *pure, alias-free function* of the recorded stream.
//!
//! * A fix whose target never appears in the stream measures identically to the
//!   identity baseline (the identity fast path is genuinely a no-op).
//! * `pad`, `shrink` and `localize` may never map two distinct allocations onto one
//!   shadow cache line — aliasing would fabricate coherence traffic that the real fix
//!   could not produce.
//! * Every transform is deterministic: the same event sequence through two freshly
//!   built transforms (or two measurement replays) yields identical results.
//! * The sharing walk keeps its types apart: walking many types at once gives each the
//!   profile it gets walked alone — and the profile the walk gave when every type kept
//!   a `BTreeMap` of its own live objects.

use dprof_trace::whatif::{stream_type_id, SHADOW_BASE};
use dprof_trace::{
    analyze_sharing, analyze_sharing_unless, measure_stream_streaming, profile_window,
    trace_type_names, EventEncoder, FixSpec, RecordedStream, SessionParams, SharingProfile,
    ThreadStream, TraceFile, TraceKind, TraceReader, Transform, TypeDump,
};
use proptest::prelude::*;
use sim_kernel::{RemapTarget, ResolvedAddr, TypeId};
use sim_machine::{AccessKind, FunctionId, MachineConfig, SamplingPolicy, SessionEvent};
use std::collections::{BTreeMap, HashMap};
use workloads::{Memcached, MemcachedConfig, Workload};

use dprof_trace as trace;
use sim_machine as machine;
#[path = "../../../tests/support/dtrace.rs"]
mod dtrace;
use dtrace::on_disk;

const LINE: u64 = 64;

/// Non-overlapping synthetic allocation bases (64 KiB apart, far below the shadow
/// range): transform inputs, as the replay kernel's address resolution would hand
/// them over.
fn base_of(alloc: usize) -> u64 {
    0x1000 + alloc as u64 * 0x1_0000
}

fn hit(alloc: usize, offset: u64, size: u64, alloc_core: usize) -> RemapTarget {
    RemapTarget {
        resolved: ResolvedAddr {
            type_id: TypeId(0),
            base: base_of(alloc),
            offset,
        },
        size,
        alloc_core,
    }
}

/// One synthetic access: which allocation, which (pre-clamp) granule, which core.
fn access_strategy() -> impl Strategy<Value = (u8, u8, u32, u64)> {
    (0u8..6, 0u8..64, 0u32..4, 1u64..9)
}

/// Replays `accesses` through a fresh transform, returning the rewritten
/// `(core, addr, len)` sequence.  `sizes[alloc]` is each allocation's object size.
fn run_transform(
    spec: &FixSpec,
    sizes: &[u64],
    accesses: &[(u8, u8, u32, u64)],
) -> Vec<(u32, u64, u64)> {
    let mut tf = Transform::new(spec, Some(TypeId(0)), LINE);
    accesses
        .iter()
        .map(|&(alloc_raw, granule_raw, core, len)| {
            let alloc = alloc_raw as usize % sizes.len();
            let size = sizes[alloc];
            let offset = (granule_raw as u64 * 8) % size;
            tf.rewrite(
                core,
                base_of(alloc) + offset,
                len.min(size - offset),
                Some(hit(alloc, offset, size, alloc % 4)),
            )
        })
        .collect()
}

/// Records a tiny live memcached session the way the CLI driver does, so the
/// replay-level properties run against realistic streams.
fn record_session(seed: u64, sample_rounds: usize) -> TraceFile {
    const WARMUP: usize = 2;
    let config = MemcachedConfig {
        cores: 2,
        seed,
        record_session: true,
        ..Default::default()
    };
    let (mut machine, mut kernel, mut workload) = Memcached::setup(config);
    machine.mark_session_round();
    for _ in 0..WARMUP {
        workload.step(&mut machine, &mut kernel);
        machine.mark_session_round();
    }
    let params = SessionParams {
        workload: "memcached".into(),
        threads: 1,
        cores: 2,
        warmup_rounds: WARMUP,
        sample_rounds,
        sampling: SamplingPolicy::Fixed { interval_ops: 120 },
        history_types: 1,
        history_sets: 1,
        base_seed: seed,
    };
    let config = params.dprof_config(seed);
    let requests_before = workload.requests_completed();
    profile_window(&mut machine, &mut kernel, 0, config, |m, k| {
        workload.step(m, k);
        m.mark_session_round();
    });
    let requests = workload.requests_completed() - requests_before;
    let encoder = EventEncoder::new();
    let recorded = RecordedStream::capture(&mut machine, &kernel.types, seed, requests, encoder);
    TraceFile {
        kind: TraceKind::FullSession,
        machine: recorded.machine,
        params,
        streams: vec![recorded.stream],
    }
}

/// The set of shadow lines each rewritten access touches.
fn lines_touched(addr: u64, len: u64) -> std::ops::RangeInclusive<u64> {
    addr / LINE..=(addr + len.max(1) - 1) / LINE
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `pad`, `shrink` and `localize` bump-allocate shadow regions in whole cache
    /// lines: no shadow line may ever serve two distinct allocations (or, for
    /// localize, two distinct (allocation, core) copies).
    #[test]
    fn rewrites_never_alias_two_allocations_onto_one_line(
        sizes in proptest::collection::vec(1u64..65, 1..6),
        accesses in proptest::collection::vec(access_strategy(), 1..200),
    ) {
        let sizes: Vec<u64> = sizes.iter().map(|s| s * 8).collect(); // 8..=512, 8-aligned
        for spec in [
            FixSpec::parse("pad:t").unwrap(),
            FixSpec::parse("shrink:t:64").unwrap(),
            FixSpec::parse("localize:t").unwrap(),
        ] {
            let rewritten = run_transform(&spec, &sizes, &accesses);
            // line -> (allocation, core-for-localize) ownership
            let mut owner: HashMap<u64, (usize, u32)> = HashMap::new();
            for (&(alloc_raw, _, in_core, _), &(core, addr, len)) in
                accesses.iter().zip(&rewritten)
            {
                prop_assert!(addr >= SHADOW_BASE, "{spec}: rewrite left the shadow range");
                prop_assert_eq!(core, in_core, "{}: core changed", &spec);
                let alloc = alloc_raw as usize % sizes.len();
                let copy = if matches!(spec, FixSpec::Localize { .. }) { core } else { 0 };
                for l in lines_touched(addr, len) {
                    let prev = owner.insert(l, (alloc, copy));
                    if let Some(prev) = prev {
                        prop_assert_eq!(
                            prev, (alloc, copy),
                            "{}: shadow line {} serves two allocations", &spec, l
                        );
                    }
                }
            }
        }
    }

    /// The shadow mapping is first-touch in event order and nothing else: two fresh
    /// transforms fed the same sequence produce identical rewrites, for every fix
    /// family.
    #[test]
    fn transforms_are_deterministic_across_two_runs(
        sizes in proptest::collection::vec(1u64..65, 1..6),
        accesses in proptest::collection::vec(access_strategy(), 1..200),
    ) {
        let sizes: Vec<u64> = sizes.iter().map(|s| s * 8).collect();
        for spec_text in ["identity", "pad:t", "localize:t", "pin:t", "shrink:t:64"] {
            let spec = FixSpec::parse(spec_text).unwrap();
            let first = run_transform(&spec, &sizes, &accesses);
            let second = run_transform(&spec, &sizes, &accesses);
            prop_assert_eq!(first, second, "{} rewrites diverged", spec_text);
        }
    }
}

proptest! {
    // Recording a live session per case is comparatively expensive; a handful of
    // seeds suffices because each stream holds thousands of events.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A fix targeting a type that never appears in the stream is the identity: the
    /// measurement replay under it is identical to the baseline's, and the
    /// measurement replay is deterministic — under identity *and* under a real
    /// transform of the stream's hottest type.
    #[test]
    fn absent_target_measures_as_identity_and_measurement_is_deterministic(
        seed in 1u64..5000,
        sample_rounds in 6usize..12,
    ) {
        let file = record_session(seed, sample_rounds);
        prop_assert!(stream_type_id(&file.streams[0].types, "__no_such_type").is_none());
        let reader = on_disk(&file);
        let measure = |spec: &FixSpec| measure_stream_streaming(&reader, 0, spec).expect("measures");

        let identity = FixSpec::Identity;
        let m1 = measure(&identity);
        let m2 = measure(&identity);
        prop_assert_eq!(m1.warmup_clock, m2.warmup_clock);
        prop_assert_eq!(&m1.round_clocks, &m2.round_clocks);

        let absent = measure(&FixSpec::parse("pad:__no_such_type").unwrap());
        prop_assert_eq!(m1.warmup_clock, absent.warmup_clock);
        prop_assert_eq!(&m1.round_clocks, &absent.round_clocks);

        // A real transform of a type that *is* in the stream must be deterministic
        // too (the shadow map is first-touch in event order, no ambient state).
        let real = FixSpec::Pad {
            type_name: file.streams[0].types[0].name.clone(),
        };
        let f1 = measure(&real);
        let f2 = measure(&real);
        prop_assert_eq!(f1.warmup_clock, f2.warmup_clock);
        prop_assert_eq!(&f1.round_clocks, &f2.round_clocks);
    }
}

/// Walks every recorded type of `reader`, plus one no stream registered, in one fused
/// pass and one type at a time: each profile must be the same, bit for bit.  Returns
/// how many types had any access, so a caller can tell the comparison was not vacuous.
fn assert_fused_walk_equals_per_type(reader: &TraceReader, label: &str) -> usize {
    let mut names = trace_type_names(reader);
    names.push("__no_such_type".to_string());
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let fused = analyze_sharing(reader, &names).expect("fused walk");
    assert_eq!(fused.len(), names.len());
    for (name, fused) in names.iter().zip(&fused) {
        let alone = analyze_sharing(reader, &[name]).expect("single-type walk");
        assert_eq!(alone, [*fused], "{label}: type '{name}'");
    }
    assert_eq!(fused.last().unwrap().accesses, 0);
    fused.iter().filter(|p| p.accesses > 0).count()
}

#[test]
fn one_sharing_walk_equals_a_walk_per_type() {
    for name in [
        "memcached_quick",
        "false_sharing_quick",
        "apache_quick",
        "sparse_struct_waste_quick",
        "ring_false_sharing_quick",
    ] {
        let path = format!(
            "{}/../../tests/golden/{name}.dtrace",
            env!("CARGO_MANIFEST_DIR")
        );
        let reader = TraceReader::open(&path).expect("golden trace opens");
        assert!(assert_fused_walk_equals_per_type(&reader, name) > 0);
    }

    // Two streams, and a type each that the other never registered: per-type state
    // must sit a stream out and pick up again.
    let mut file = record_session(3471, 10);
    file.streams
        .push(record_session(3472, 10).streams.remove(0));
    let hot = "size-1024";
    for t in &mut file.streams[1].types {
        if t.name == hot {
            t.name = "size-1024-renamed".to_string();
        }
    }
    assert!(stream_type_id(&file.streams[0].types, hot).is_some());
    assert!(stream_type_id(&file.streams[1].types, hot).is_none());
    let reader = on_disk(&file);
    assert!(assert_fused_walk_equals_per_type(&reader, "two streams") > 2);
    let split = analyze_sharing(&reader, &[hot, "size-1024-renamed"]).unwrap();
    assert!(split[0].accesses > 0 && split[1].accesses > 0);
}

/// The sharing walk as it was before the address index: each type keeps a `BTreeMap`
/// of its own live objects and a heap map of cores per touched granule, and every
/// access is looked up once per type.  A granule is keyed by its stream too: each
/// stream is a machine of its own.
fn sharing_walk_oracle(reader: &TraceReader, type_names: &[&str]) -> Vec<SharingProfile> {
    #[derive(Default)]
    struct State {
        target: Option<TypeId>,
        live: BTreeMap<u64, u64>,
        granules: HashMap<(usize, u64, u64), HashMap<u32, u64>>,
        round_cores: HashMap<u64, u128>,
        accesses: u64,
        object_rounds: u64,
        core_sum: u64,
    }
    let mut states: Vec<State> = type_names.iter().map(|_| State::default()).collect();
    for (thread, stream) in reader.headers().iter().enumerate() {
        for (state, name) in states.iter_mut().zip(type_names) {
            state.target = stream_type_id(&stream.types, name);
            state.live.clear();
            state.round_cores.clear();
        }
        for ev in reader.events(thread).expect("stream opens") {
            match ev.expect("generated streams decode") {
                SessionEvent::Alloc {
                    type_id,
                    size,
                    addr,
                    ..
                } => {
                    for s in states.iter_mut() {
                        if s.target == Some(TypeId(type_id)) {
                            s.live.insert(addr, size);
                        }
                    }
                }
                SessionEvent::Free { addr, .. } => {
                    for s in states.iter_mut() {
                        s.live.remove(&addr);
                    }
                }
                SessionEvent::Access { core, addr, .. } => {
                    for s in states.iter_mut() {
                        let Some((&base, &size)) = s.live.range(..=addr).next_back() else {
                            continue;
                        };
                        if addr >= base + size {
                            continue;
                        }
                        s.accesses += 1;
                        let granule = (thread, base, (addr - base) / 8);
                        let by_core = s.granules.entry(granule).or_default();
                        *by_core.entry(core).or_insert(0) += 1;
                        *s.round_cores.entry(base).or_insert(0) |= 1u128 << core.min(127);
                    }
                }
                SessionEvent::RoundEnd => {
                    for s in states.iter_mut() {
                        for mask in s.round_cores.values_mut().filter(|m| **m != 0) {
                            s.object_rounds += 1;
                            s.core_sum += mask.count_ones() as u64;
                            *mask = 0;
                        }
                    }
                }
                SessionEvent::Compute { .. } => {}
            }
        }
    }
    states
        .iter()
        .map(|s| {
            let owner_sum: u64 = (s.granules.values())
                .map(|by_core| by_core.values().copied().max().unwrap_or(0))
                .sum();
            SharingProfile {
                accesses: s.accesses,
                foreign_fraction: if s.accesses == 0 {
                    0.0
                } else {
                    (s.accesses - owner_sum) as f64 / s.accesses as f64
                },
                concurrency: if s.object_rounds == 0 {
                    0.0
                } else {
                    s.core_sum as f64 / s.object_rounds as f64
                },
            }
        })
        .collect()
}

/// Five types; a stream registers them from `first_type` on, so the same name has a
/// different id in each stream.
const SHARED_TYPES: [(&str, u64); 5] = [
    ("granule", 8),
    ("line", 64),
    ("skb", 256),
    ("sock", 1_600),
    ("pages", 9_000),
];

/// One generated stream: slots 9 600 bytes apart from an odd base (so objects start
/// anywhere in a page, the larger ones straddle one or two boundaries, and none
/// overlap), each recycled by whatever type comes next; accesses inside objects, at
/// their edges, in the gaps and at freed slots; a round marker now and then.
fn sharing_stream(first_type: usize, ops: &[((u8, u8, u8), u32, u64)]) -> ThreadStream {
    const HEAP: u64 = 0x1_0000_0f38;
    let types: Vec<TypeDump> = (0..SHARED_TYPES.len())
        .map(|i| SHARED_TYPES[(first_type + i) % SHARED_TYPES.len()])
        .map(|(name, size)| TypeDump {
            name: name.to_string(),
            description: String::new(),
            size,
            fields: Vec::new(),
        })
        .collect();
    let mut live: [Option<u64>; 12] = [None; 12];
    let mut events = Vec::new();
    for (cycle, &((op, slot, ty), core, at)) in ops.iter().enumerate() {
        let slot = slot as usize % live.len();
        let addr = HEAP + slot as u64 * 9_600;
        match (op, live[slot]) {
            (0..=2, None) => {
                let type_id = ty as usize % types.len();
                live[slot] = Some(types[type_id].size);
                events.push(SessionEvent::Alloc {
                    core,
                    type_id: type_id as u32,
                    size: types[type_id].size,
                    addr,
                    cycle: cycle as u64,
                    hookable: true,
                });
            }
            (0..=2, Some(_)) => {
                live[slot] = None;
                events.push(SessionEvent::Free {
                    core,
                    addr,
                    cycle: cycle as u64,
                });
            }
            (3, _) => events.push(SessionEvent::RoundEnd),
            _ => {
                // From 16 bytes before the slot to 16 past the largest object's end.
                let size = live[slot].unwrap_or(256);
                events.push(SessionEvent::Access {
                    core,
                    ip: FunctionId(0),
                    addr: addr - 16 + at % (size + 32),
                    len: 8,
                    kind: AccessKind::Read,
                });
            }
        }
    }
    events.push(SessionEvent::RoundEnd);
    ThreadStream {
        seed: 1,
        requests: 0,
        symbols: vec!["f".to_string()],
        types,
        events: events.into(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On generated multi-type, two-stream traces the walk over one shared address
    /// index gives every type — asked for together, in any order, one of them twice,
    /// one of them unknown — the profile the per-type-`BTreeMap` walk gives it.
    #[test]
    fn sharing_walk_equals_the_per_type_btreemap_walk(
        first in proptest::collection::vec(((0u8..12, 0u8..12, 0u8..5), 0u32..4, 0u64..20_000), 1..500),
        second in proptest::collection::vec(((0u8..12, 0u8..12, 0u8..5), 0u32..4, 0u64..20_000), 1..500),
    ) {
        let file = TraceFile {
            kind: TraceKind::FullSession,
            machine: MachineConfig::with_cores(4),
            params: SessionParams {
                workload: "generated".into(),
                threads: 2,
                cores: 4,
                warmup_rounds: 0,
                sample_rounds: 1,
                sampling: SamplingPolicy::Fixed { interval_ops: 120 },
                history_types: 1,
                history_sets: 1,
                base_seed: 1,
            },
            streams: vec![sharing_stream(0, &first), sharing_stream(2, &second)],
        };
        let names = ["sock", "granule", "__no_such_type", "pages", "sock", "skb", "line"];
        let reader = on_disk(&file);
        let walked = analyze_sharing(&reader, &names).expect("generated streams decode");
        let oracle = sharing_walk_oracle(&reader, &names);
        for ((name, walked), oracle) in names.iter().zip(&walked).zip(&oracle) {
            prop_assert_eq!(walked, oracle, "type '{}'", name);
        }
        prop_assert_eq!(walked[0], walked[4], "a name given twice is one type");
        prop_assert_eq!(walked[2].accesses, 0);
    }
}

/// A one-stream, 128-core trace of `events` over the types `(name, size)`.
fn one_stream_file(types: &[(&str, u64)], events: Vec<SessionEvent>) -> TraceFile {
    let cores = sim_cache::MAX_CORES;
    TraceFile {
        kind: TraceKind::FullSession,
        machine: MachineConfig::with_cores(cores),
        params: SessionParams {
            workload: "generated".into(),
            threads: 1,
            cores,
            warmup_rounds: 0,
            sample_rounds: 1,
            sampling: SamplingPolicy::Fixed { interval_ops: 120 },
            history_types: 1,
            history_sets: 1,
            base_seed: 1,
        },
        streams: vec![ThreadStream {
            seed: 1,
            requests: 0,
            symbols: vec!["f".to_string()],
            types: types
                .iter()
                .map(|&(name, size)| TypeDump {
                    name: name.to_string(),
                    description: String::new(),
                    size,
                    fields: Vec::new(),
                })
                .collect(),
            events: events.into(),
        }],
    }
}

fn alloc(type_id: u32, size: u64, addr: u64) -> SessionEvent {
    SessionEvent::Alloc {
        core: 0,
        type_id,
        size,
        addr,
        cycle: 0,
        hookable: true,
    }
}

fn access(core: u32, addr: u64) -> SessionEvent {
    SessionEvent::Access {
        core,
        ip: FunctionId(0),
        addr,
        len: 8,
        kind: AccessKind::Read,
    }
}

#[test]
fn sharing_walk_equals_the_oracle_past_a_compaction_batch_and_at_the_edges() {
    // Three types on a 128-core machine.  `huge` is one 1 MiB object, touched up to its
    // last granule; base `SHARED` holds a `small` and then a `tiny`; base `RESIZED` holds
    // a `small` of 64 bytes and then one of 128.  Thirty other `small`s carry the
    // volume: 240 000 accesses, so the walk compacts three times and every batch finds
    // keys the table already counts.
    const MIB: u64 = 1 << 20;
    const HUGE: u64 = 0x1_0000_0000;
    const SHARED: u64 = 0x2_0000_0000;
    const RESIZED: u64 = 0x2_0000_1000;
    const SMALLS: u64 = 0x3_0000_0000;
    let types = [("small", 64), ("huge", MIB), ("tiny", 64)];
    let cores = [0, 1, 2, 63, 64, 126, 127];
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    let mut events = vec![
        alloc(1, MIB, HUGE),
        alloc(0, 64, SHARED),
        alloc(0, 64, RESIZED),
    ];
    events.extend((0..30).map(|i| alloc(0, 64, SMALLS + i * 64)));
    for half in 0..2 {
        if half == 1 {
            events.extend([
                SessionEvent::Free {
                    core: 5,
                    addr: SHARED,
                    cycle: 0,
                },
                alloc(2, 64, SHARED),
                SessionEvent::Free {
                    core: 5,
                    addr: RESIZED,
                    cycle: 0,
                },
                alloc(0, 128, RESIZED),
            ]);
        }
        for i in 0..120_000u64 {
            let core = cores[next(cores.len() as u64) as usize];
            let addr = match next(8) {
                0 => HUGE + MIB - 8,
                1 => HUGE + next(MIB / 8) * 8,
                2 => SHARED + next(8) * 8,
                3 => RESIZED + next(16) * 8,
                _ => SMALLS + next(30 * 8) * 8,
            };
            events.push(access(core, addr));
            if i % 997 == 0 {
                events.push(SessionEvent::RoundEnd);
            }
        }
    }
    events.push(SessionEvent::RoundEnd);
    let reader = on_disk(&one_stream_file(&types, events));

    let names = ["small", "huge", "tiny", "huge"];
    let walked = analyze_sharing(&reader, &names).expect("the generated stream decodes");
    assert_eq!(walked, sharing_walk_oracle(&reader, &names));
    assert!(walked[..3].iter().map(|p| p.accesses).sum::<u64>() > 3 * 65_536);
    assert!(walked
        .iter()
        .all(|p| p.accesses > 0 && p.foreign_fraction > 0.0));
}

#[test]
fn sharing_walk_keeps_streams_apart() {
    // One `t` at one base in each of two streams (two simulated machines): core 0
    // touches its granule 0 three times in stream 0, core 1 once in stream 1.  They
    // are two objects, each granule with one owner, so no access is foreign.
    let mut file = one_stream_file(
        &[("t", 64)],
        vec![
            alloc(0, 64, 0x1000),
            access(0, 0x1000),
            access(0, 0x1000),
            access(0, 0x1000),
            SessionEvent::RoundEnd,
        ],
    );
    let second = one_stream_file(
        &[("t", 64)],
        vec![
            alloc(0, 64, 0x1000),
            access(1, 0x1000),
            SessionEvent::RoundEnd,
        ],
    );
    file.streams.extend(second.streams);
    let reader = on_disk(&file);
    let walked = analyze_sharing(&reader, &["t"]).unwrap()[0];
    assert_eq!(walked.accesses, 4);
    assert_eq!(walked.foreign_fraction, 0.0);
    assert_eq!(walked.concurrency, 1.0);
    assert_eq!([walked], sharing_walk_oracle(&reader, &["t"])[..]);
}

#[test]
fn sharing_walk_is_abandoned_at_the_first_round_end_that_asks() {
    let reader = on_disk(&one_stream_file(
        &[("t", 64)],
        vec![
            alloc(0, 64, 0x1000),
            access(0, 0x1000),
            SessionEvent::RoundEnd,
            access(1, 0x1000),
            SessionEvent::RoundEnd,
        ],
    ));
    let asked = std::cell::Cell::new(0);
    let second_round = || {
        asked.set(asked.get() + 1);
        asked.get() == 2
    };
    assert_eq!(
        analyze_sharing_unless(&reader, &["t"], second_round),
        Ok(None)
    );
    assert_eq!(asked.get(), 2);
    let kept = analyze_sharing_unless(&reader, &["t"], || false).unwrap();
    assert_eq!(kept, Some(analyze_sharing(&reader, &["t"]).unwrap()));
}
