//! The collector's request path against hostile bytes: real request frames — a push of
//! the golden memcached report, every query kind and `stats` — cut, bit-flipped and
//! with inflated length prefixes, fed through [`read_frame`] and [`Request::decode`]
//! as a connection feeds them.  Every case must come back `Ok` or `Err`: a panic fails
//! the test, a hang never finishes it, and the heap a case claims stays within a
//! bound set by its input's length, whatever its length prefix declares.
//!
//! The counting allocator (`tests/support/counting_alloc.rs`) is global to the test
//! binary, so this binary runs without the libtest harness (`harness = false` in
//! `Cargo.toml`): its one check is `main`, on the only thread.

use dprof::trace::codec::put_varint;
use dprof_serve::frame::{read_frame, write_frame, MAX_FRAME_BYTES};
use dprof_serve::Request;
use std::io::Cursor;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::measured;

/// Bits of the push frame flipped one at a time: this many, drawn by a splitmix64
/// stream from [`SEED`], beside every bit of the fields ahead of the report.
const PUSH_FLIPS: usize = 4096;
const SEED: u64 = 0x5e7e_f1a9;

/// What [`read_frame`] reserves for a body before any of it has arrived.
const BODY_RESERVE: u64 = 64 * 1024;

/// A splitmix64 stream.
struct Choices(u64);

impl Choices {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A request as it goes out: its frame on the wire.
fn framed(request: &Request) -> Vec<u8> {
    let (kind, payload) = request.encode();
    let mut wire = Vec::new();
    write_frame(&mut wire, kind, &payload).unwrap();
    wire
}

/// What a connection makes of `wire`: each frame read and decoded in turn, until the
/// stream ends or a frame is broken.  Returns how many frames were read and how many
/// of those decoded.
fn serve(wire: &[u8]) -> (usize, usize) {
    let mut stream = Cursor::new(wire);
    let (mut frames, mut requests) = (0, 0);
    while let Ok(Some((kind, payload))) = read_frame(&mut stream) {
        frames += 1;
        requests += usize::from(Request::decode(kind, payload).is_ok());
    }
    (frames, requests)
}

/// Runs `wire` through [`serve`] and holds the heap it claimed to a bound of its
/// length: the body buffer (the bytes that arrived, or the reservation ahead of them,
/// grown by doubling) and a message.
fn hostile(case: &str, wire: &[u8]) -> (usize, usize) {
    let (served, asked) = measured(|| serve(wire));
    let bound = BODY_RESERVE + 2 * wire.len() as u64 + 4096;
    assert!(asked.peak_bytes <= bound, "{case}: {asked:?} past {bound}");
    served
}

fn main() {
    hostile_request_frames_are_answered_not_panicked_on();
}

fn hostile_request_frames_are_answered_not_panicked_on() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
    let report = std::fs::read_to_string(format!("{golden}/memcached_quick.report.json"))
        .expect("golden report");
    let push = Request::PushShard {
        workload: "memcached".into(),
        build: "v1".into(),
        shard_id: 1,
        report_json: report,
    };
    let queries = [
        Request::QueryTop {
            workload: "memcached".into(),
            build: "v1".into(),
            top: 8,
        },
        Request::QueryRegressions {
            workload: "memcached".into(),
            from: "v1".into(),
            to: "v2".into(),
            top: 8,
        },
        Request::QueryAlerts {
            workload: "memcached".into(),
            from: "v1".into(),
            to: "v2".into(),
        },
        Request::ListKeys,
        Request::Stats,
    ];

    for request in queries.iter().chain([&push]) {
        let wire = framed(request);
        let (kind, payload) = request.encode();
        let name = format!("{kind:#04x} frame of {} bytes", wire.len());
        assert_eq!(hostile(&name, &wire), (1, 1), "{name}");

        // Cut at every byte: the frame is torn, and the payload cut and framed again
        // is read as a frame and refused by the decoder (every field is required).
        for cut in 0..wire.len() {
            assert_eq!(
                hostile(&format!("{name} cut at {cut}"), &wire[..cut]),
                (0, 0)
            );
        }
        for cut in 0..payload.len() {
            let mut reframed = Vec::new();
            write_frame(&mut reframed, kind, &payload[..cut]).unwrap();
            let case = format!("{name}, payload cut at {cut}");
            assert_eq!(hostile(&case, &reframed), (1, 0), "{case}");
        }

        // One bit flipped: every bit of a query and of the push's fields ahead of its
        // report, a seeded sample of the report's.
        let head = wire.len() - push_report_len(request);
        let mut bits: Vec<usize> = (0..8 * head).collect();
        if head < wire.len() {
            let mut choices = Choices(SEED);
            let report_bits = 8 * (wire.len() - head) as u64;
            bits.extend(
                (0..PUSH_FLIPS).map(|_| 8 * head + (choices.next() % report_bits) as usize),
            );
        }
        for bit in bits {
            let mut flipped = wire.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            hostile(
                &format!("{name}, bit {bit} flipped (seed {SEED:#x})"),
                &flipped,
            );
        }

        // A length prefix that declares more than follows: the frame is torn however
        // much it claims, and the body buffer holds what arrived.
        let body = &wire[prefix_len(&wire)..];
        for declared in [
            body.len() as u64 + 1,
            2 * body.len() as u64,
            BODY_RESERVE + 1,
            MAX_FRAME_BYTES,
            MAX_FRAME_BYTES + 1,
            u64::MAX,
        ] {
            let mut inflated = Vec::new();
            put_varint(&mut inflated, declared);
            inflated.extend_from_slice(body);
            let case = format!("{name} declaring {declared} bytes");
            assert_eq!(hostile(&case, &inflated), (0, 0), "{case}");
        }
        // A prefix whose varint never ends within ten bytes.
        let mut overlong = vec![0xff; 11];
        overlong.extend_from_slice(body);
        assert_eq!(
            hostile(&format!("{name}, overlong prefix"), &overlong),
            (0, 0)
        );
    }
}

/// The bytes of a push's report on the wire (0 for any other request).
fn push_report_len(request: &Request) -> usize {
    match request {
        Request::PushShard { report_json, .. } => report_json.len(),
        _ => 0,
    }
}

/// The bytes of a frame's varint length prefix.
fn prefix_len(wire: &[u8]) -> usize {
    1 + wire.iter().take_while(|&&b| b & 0x80 != 0).count()
}
