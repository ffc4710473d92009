//! Property tests for the `.dtrace` codec: encode → [`TraceReader`] must be the
//! identity over arbitrary event streams, and damaged inputs (truncation, corrupt
//! headers) must be rejected rather than misdecoded.

use dprof_trace::codec::encode_events;
use dprof_trace::{EventEncoder, SessionParams, ThreadStream, TraceError, TraceFile, TraceKind};
use proptest::prelude::*;
use sim_cache::AccessKind;
use sim_machine::{FunctionId, MachineConfig, SessionEvent};

use dprof_trace as trace;
use sim_machine as machine;
#[path = "../../../tests/support/dtrace.rs"]
mod dtrace;
use dtrace::{decode, open, read_back};

/// Decodes `bytes` through the streaming decoder: opened from a temp file of their own,
/// and every stream walked once into memory.
fn read_bytes(bytes: &[u8]) -> Result<TraceFile, TraceError> {
    read_back(&*open(bytes)?)
}

/// Strategy producing one arbitrary session event.
fn event_strategy() -> impl Strategy<Value = SessionEvent> {
    (
        (0u8..5, 0u32..8),
        (0u64..0x2_0000_0000, 1u64..4096, 0u64..200, any::<bool>()),
    )
        .prop_map(|((tag, core), (addr, len, small, flag))| match tag {
            0 => SessionEvent::Access {
                core,
                ip: FunctionId(small as u32),
                addr,
                len,
                kind: if flag {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            },
            1 => SessionEvent::Compute {
                core,
                ip: FunctionId(small as u32),
                cycles: addr,
            },
            2 => SessionEvent::Alloc {
                core,
                type_id: small as u32,
                size: len,
                addr,
                cycle: addr ^ len,
                hookable: flag,
            },
            3 => SessionEvent::Free {
                core,
                addr,
                cycle: addr.wrapping_mul(3),
            },
            _ => SessionEvent::RoundEnd,
        })
}

/// Strategy producing a stretch of a session as a recorder sees it: mostly access runs
/// — one `(core, ip)`, up to sixty accesses — and between them single events of any
/// opcode, an access on some other `(core, ip)` included.
fn stretch_strategy() -> impl Strategy<Value = Vec<SessionEvent>> {
    (
        0u8..3,
        (0u32..8, 0u32..4),
        proptest::collection::vec((0u64..0x2_0000_0000, 1u64..4096, any::<bool>()), 1..60),
        event_strategy(),
    )
        .prop_map(|(shape, (core, ip), items, single)| {
            if shape == 0 {
                return vec![single];
            }
            (items.into_iter())
                .map(|(addr, len, write)| SessionEvent::Access {
                    core,
                    ip: FunctionId(ip),
                    addr,
                    len,
                    kind: if write {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                })
                .collect()
        })
}

fn full_file(events: Vec<SessionEvent>) -> TraceFile {
    TraceFile {
        kind: TraceKind::FullSession,
        // Eight cores: the event strategy draws cores from 0..8, and decoding
        // validates every event against the declared machine.
        machine: MachineConfig::with_cores(8),
        params: SessionParams {
            workload: "memcached".into(),
            threads: 1,
            cores: 8,
            // No rounds, no history sets: the generated streams may be empty, and the
            // prologue holds those counts to the shortest stream's event count.
            warmup_rounds: 0,
            sample_rounds: 0,
            sampling: sim_machine::SamplingPolicy::Fixed { interval_ops: 100 },
            history_types: 2,
            history_sets: 0,
            base_seed: 1,
        },
        streams: vec![ThreadStream {
            seed: 1,
            requests: 7,
            symbols: vec!["f".into(), "g".into()],
            types: Vec::new(),
            events: events.into(),
        }],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// encode → decode is the identity for arbitrary event streams, and the stream
    /// header carries what the container declared.
    #[test]
    fn files_round_trip(events in proptest::collection::vec(event_strategy(), 0..400)) {
        let file = full_file(events);
        let back = read_bytes(&file.encode()).expect("decodes");
        prop_assert_eq!(&back.streams, &file.streams);
        prop_assert_eq!(back.params, file.params);
        prop_assert_eq!(back.kind, file.kind);
    }

    /// However a session is cut into pieces — in the middle of a run, between runs,
    /// into empty pieces — pushing the pieces encodes to the bytes of the whole session
    /// encoded at once, and those decode back to the session: the end of a piece closes
    /// nothing, so a run that straddles many drains still gets one header.
    #[test]
    fn encoding_is_invariant_under_chunking(
        stretches in proptest::collection::vec(stretch_strategy(), 0..24),
        cuts in proptest::collection::vec(0usize..48, 1..64),
    ) {
        let events: Vec<SessionEvent> = stretches.concat();
        let mut encoder = EventEncoder::new();
        let mut rest = &events[..];
        for len in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            // A zero-length cut is an empty piece: a round in which nothing happened.
            let (piece, tail) = rest.split_at((*len).min(rest.len()));
            encoder.extend(piece);
            encoder.extend(&[]);
            rest = tail;
        }
        let encoded = encoder.finish();
        prop_assert_eq!(encoded.len(), events.len());
        prop_assert_eq!(encoded.bytes(), &encode_events(&events)[..]);
        let mut file = full_file(Vec::new());
        file.streams[0].events = encoded;
        prop_assert_eq!(&decode(&file)[0], &events);
    }

    /// No truncation of a valid file decodes successfully (every prefix is rejected,
    /// never misinterpreted).
    #[test]
    fn truncations_never_decode(events in proptest::collection::vec(event_strategy(), 1..60),
                                cut_fraction in 0u64..1000) {
        let bytes = full_file(events).encode();
        let cut = (bytes.len() as u64 * cut_fraction / 1000) as usize;
        prop_assert!(cut < bytes.len());
        prop_assert!(read_bytes(&bytes[..cut]).is_err());
    }

    /// A corrupted header byte (magic or version region) is always rejected.
    #[test]
    fn corrupt_header_rejected(events in proptest::collection::vec(event_strategy(), 0..40),
                               byte in 0usize..10, bit in 0u32..8) {
        let mut bytes = full_file(events).encode();
        bytes[byte] ^= 1 << bit;
        // Flipping any bit of the magic or the version must fail to decode as v1.
        prop_assert!(read_bytes(&bytes).is_err());
    }

    /// Decodable events targeting a core the declared machine does not have are
    /// rejected at decode time (they would otherwise panic mid-replay).
    #[test]
    fn out_of_range_cores_rejected_at_decode(events in proptest::collection::vec(event_strategy(), 1..40)) {
        let has_high_core = events.iter().any(|e| matches!(e,
            SessionEvent::Access { core, .. }
            | SessionEvent::Compute { core, .. }
            | SessionEvent::Alloc { core, .. }
            | SessionEvent::Free { core, .. } if *core >= 2));
        let mut file = full_file(events);
        file.machine = MachineConfig::small_test(); // 2 cores
        file.params.cores = 2;
        let decoded = read_bytes(&file.encode());
        prop_assert_eq!(decoded.is_err(), has_high_core);
    }
}

/// The case the property is about, spelt out: one run pushed an access at a time is one
/// run header carrying the whole count, then the items.
#[test]
fn a_run_pushed_an_access_at_a_time_gets_one_header() {
    let run: Vec<SessionEvent> = (0..1000u64)
        .map(|i| SessionEvent::Access {
            core: 3,
            ip: FunctionId(7),
            addr: 0x1000 + 64 * i,
            len: 8,
            kind: AccessKind::Read,
        })
        .collect();
    let mut encoder = EventEncoder::new();
    for ev in &run {
        encoder.extend(std::slice::from_ref(ev));
    }
    let encoded = encoder.finish();
    // opcode 0x00, core 3, ip 7, count 1000 as a varint, then 1000 items.
    assert_eq!(encoded.bytes()[..5], [0x00, 3, 7, 0xe8, 0x07]);
    assert_eq!(encoded.bytes(), &encode_events(&run)[..]);
    let headers = encoded.bytes().iter().filter(|&&b| b == 0x00).count();
    assert_eq!(headers, 1, "no item byte of this run is zero");
}
