//! What the what-if sharing walk costs the heap: its distinct `(object, granule, core)`
//! keys plus one batch of logged accesses, whatever the trace's length and however
//! many types the objects are spread over.
//!
//! This file intentionally contains a single test: the counting allocator
//! (`tests/support/counting_alloc.rs`) is global to the test binary, and a
//! concurrently-running test would pollute the measured window.

use dprof_trace::{analyze_sharing, SessionParams, ThreadStream, TraceFile, TraceKind, TypeDump};
use sim_machine::{AccessKind, FunctionId, MachineConfig, SamplingPolicy, SessionEvent};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::measured;

use dprof_trace as trace;
use sim_machine as machine;
#[path = "../../../tests/support/dtrace.rs"]
mod dtrace;
use dtrace::on_disk;

/// The walk's access log holds this many 8-byte keys before it is sorted away.
const BATCH_BYTES: u64 = (1 << 16) * 8;

/// A one-stream trace over `types` types: 16 objects of 64 bytes, filed round-robin
/// under the types, then `accesses` accesses cycling over the same 16 × 8 granules ×
/// 8 cores — 1 024 distinct keys — with a round marker every 500.
fn cycling_trace(types: usize, accesses: u64) -> TraceFile {
    let mut events: Vec<SessionEvent> = (0..16u64)
        .map(|i| SessionEvent::Alloc {
            core: 0,
            type_id: (i % types as u64) as u32,
            size: 64,
            addr: 0x1_0000_0000 + i * 64,
            cycle: 0,
            hookable: true,
        })
        .collect();
    for i in 0..accesses {
        events.push(SessionEvent::Access {
            core: (i % 8) as u32,
            ip: FunctionId(0),
            addr: 0x1_0000_0000 + (i / 8 % 128) * 8,
            len: 8,
            kind: AccessKind::Read,
        });
        if i % 500 == 499 {
            events.push(SessionEvent::RoundEnd);
        }
    }
    TraceFile {
        kind: TraceKind::FullSession,
        machine: MachineConfig::with_cores(8),
        params: SessionParams {
            workload: "generated".into(),
            threads: 1,
            cores: 8,
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
            types: (0..types)
                .map(|t| TypeDump {
                    name: format!("t{t}"),
                    description: String::new(),
                    size: 64,
                    fields: Vec::new(),
                })
                .collect(),
            events: events.into(),
        }],
    }
}

#[test]
fn the_sharing_walk_costs_its_distinct_keys_not_its_accesses_or_types() {
    const N: u64 = 100_000;
    let peak = |types: usize, accesses: u64| {
        let reader = on_disk(&cycling_trace(types, accesses));
        let names: Vec<String> = (0..types).map(|t| format!("t{t}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let (profiles, asked) = measured(|| analyze_sharing(&reader, &names).unwrap());
        let walked: u64 = profiles.iter().map(|p| p.accesses).sum();
        assert_eq!(walked, accesses, "every access resolves");
        asked.peak_bytes
    };
    let short = peak(1, N);
    let long = peak(1, 4 * N);
    let spread = peak(8, 4 * N);
    // Both lengths cross the batch, so both hold a full log beside the same table.
    assert!(short >= BATCH_BYTES, "{short} bytes");
    assert!(
        long.abs_diff(short) <= BATCH_BYTES,
        "{short} → {long} bytes"
    );
    assert!(
        spread.abs_diff(short) <= BATCH_BYTES,
        "{short} → {spread} bytes"
    );
    // One batch, the decoder's window of at most two 64 KiB chunks, and 64 bytes a key
    // for the table and the one a compaction merges it into, the objects and the index.
    assert!(
        short <= BATCH_BYTES + 2 * 65_536 + 64 * 1024,
        "{short} bytes"
    );
}
