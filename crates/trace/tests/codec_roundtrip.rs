//! Property tests for the `.dtrace` codec: encode → [`TraceReader`] must be the
//! identity over arbitrary event streams, and damaged inputs (truncation, corrupt
//! headers) must be rejected rather than misdecoded.

use dprof_trace::codec::{encode_events, put_varint, zigzag};
use dprof_trace::{
    EventEncoder, SessionParams, ThreadStream, TraceError, TraceFile, TraceKind, TypeDump,
};
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
        // Tables naming every function and type id the strategies draw (`0..200`):
        // decoding holds each id to them.
        streams: vec![ThreadStream {
            seed: 1,
            requests: 7,
            symbols: (0..200).map(|i| format!("f{i}")).collect(),
            types: (0..200)
                .map(|i| TypeDump {
                    name: format!("t{i}"),
                    description: String::new(),
                    size: 64,
                    fields: Vec::new(),
                })
                .collect(),
            events: events.into(),
        }],
    }
}

/// The wire grammar of `dprof_trace::codec`, written out an event at a time with no
/// pieces, look-ahead or staging: the bytes every way of encoding a session must give.
fn reference_encoding(events: &[SessionEvent]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut prev_addr = [0u64; sim_cache::MAX_CORES];
    let mut i = 0;
    while let Some(&ev) = events.get(i) {
        i += 1;
        match ev {
            SessionEvent::Access { core, ip, .. } => {
                // An access run: every access after it on the same `(core, ip)`.
                let mut items = Vec::new();
                let mut count = 0;
                for next in &events[i - 1..] {
                    match *next {
                        SessionEvent::Access {
                            core: c,
                            ip: p,
                            addr,
                            len,
                            kind,
                        } if (c, p) == (core, ip) => {
                            let prev = &mut prev_addr[core as usize];
                            put_varint(&mut items, zigzag(addr.wrapping_sub(*prev) as i64));
                            *prev = addr;
                            put_varint(&mut items, len << 1 | u64::from(kind.is_write()));
                            count += 1;
                        }
                        _ => break,
                    }
                }
                i += count - 1;
                out.push(0x00);
                put_varint(&mut out, u64::from(core));
                put_varint(&mut out, u64::from(ip.0));
                put_varint(&mut out, count as u64);
                out.extend_from_slice(&items);
            }
            SessionEvent::Compute { core, ip, cycles } => {
                out.push(0x01);
                for v in [u64::from(core), u64::from(ip.0), cycles] {
                    put_varint(&mut out, v);
                }
            }
            SessionEvent::Alloc {
                core,
                type_id,
                size,
                addr,
                cycle,
                hookable,
            } => {
                out.extend([0x02, u8::from(hookable)]);
                for v in [u64::from(core), u64::from(type_id), size, addr, cycle] {
                    put_varint(&mut out, v);
                }
            }
            SessionEvent::Free { core, addr, cycle } => {
                out.push(0x03);
                for v in [u64::from(core), addr, cycle] {
                    put_varint(&mut out, v);
                }
            }
            SessionEvent::RoundEnd => out.push(0x04),
        }
    }
    out
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

    /// However a session is cut into pieces — at random, in the middle of a run or
    /// between runs, into empty pieces, one event at a time, at every run end, or a
    /// round a piece as the recorder drains it — encoding the pieces gives the bytes
    /// of the whole session, and those decode back to the session: the end of a piece
    /// closes nothing, so a run that straddles many pieces still gets one header.
    #[test]
    fn encoding_is_invariant_under_chunking(
        stretches in proptest::collection::vec(stretch_strategy(), 0..24),
        cuts in proptest::collection::vec(0usize..48, 1..64),
    ) {
        let events: Vec<SessionEvent> = stretches.concat();
        let whole = reference_encoding(&events);
        prop_assert_eq!(&encode_events(&events), &whole);
        let mut random = Vec::new();
        let mut rest = &events[..];
        for len in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            // A zero-length cut is an empty piece: a round in which nothing happened.
            let (piece, tail) = rest.split_at((*len).min(rest.len()));
            random.extend([piece, &[]]);
            rest = tail;
        }
        let runs_end = |a: &SessionEvent, b: &SessionEvent| match (a, b) {
            (
                SessionEvent::Access { core, ip, .. },
                SessionEvent::Access { core: c, ip: p, .. },
            ) => (core, ip) == (c, p),
            _ => false,
        };
        let splits: [Vec<&[SessionEvent]>; 4] = [
            random,
            events.chunks(1).collect(),
            events.chunk_by(runs_end).collect(),
            events.split_inclusive(|ev| *ev == SessionEvent::RoundEnd).collect(),
        ];
        for (split, pieces) in ["random", "one event", "run ends", "rounds"].iter().zip(&splits) {
            let mut encoder = EventEncoder::new();
            for piece in pieces {
                match piece {
                    [ev] if *split == "one event" => encoder.push(*ev),
                    _ => encoder.extend(piece),
                }
            }
            let encoded = encoder.finish();
            prop_assert_eq!(encoded.len(), events.len());
            prop_assert_eq!(encoded.bytes(), &whole[..], "split at {}", split);
        }
        let mut file = full_file(Vec::new());
        file.streams[0].events = events.iter().copied().collect();
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

/// Every golden trace, decoded and encoded again — whole, a round a piece as the
/// recorder drains it, and by the reference — is the file it was read from, byte for
/// byte: the encoder writes what the encoder that recorded them wrote.
#[test]
fn every_golden_trace_re_encodes_to_its_bytes() {
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let mut paths: Vec<_> = std::fs::read_dir(&golden)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|e| e == "dtrace"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 5, "five golden traces: {paths:?}");
    for path in paths {
        let bytes = std::fs::read(&path).unwrap();
        let reader = trace::TraceReader::open(path.to_str().unwrap()).unwrap();
        let mut file = read_back(&reader).unwrap();
        assert!(file.encode() == bytes, "{path:?}, encoded whole");
        for (thread, stream) in file.streams.iter_mut().enumerate() {
            let events: Vec<SessionEvent> = (reader.events(thread).unwrap())
                .map(|ev| ev.unwrap())
                .collect();
            let mut encoder = EventEncoder::new();
            for round in events.split_inclusive(|ev| *ev == SessionEvent::RoundEnd) {
                encoder.extend(round);
            }
            stream.events = encoder.finish();
            assert!(
                stream.events.bytes() == reference_encoding(&events),
                "{path:?}, stream {thread}: the reference"
            );
        }
        assert!(file.encode() == bytes, "{path:?}, encoded a round a piece");
    }
}
