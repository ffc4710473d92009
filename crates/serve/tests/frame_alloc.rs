//! What reading a request asks of the allocator: a frame's body buffer holds what
//! arrived (with at most a fixed reservation ahead of it), whatever its header
//! declares, and a pushed report is read into that one buffer, which then becomes the
//! report's text.
//!
//! This file intentionally contains a single test: the counting allocator
//! (`tests/support/counting_alloc.rs`) is global to the test binary, and a
//! concurrently-running test would pollute the measured window.

use dprof::trace::codec::put_varint;
use dprof_serve::frame::{read_frame, write_frame, MAX_FRAME_BYTES};
use dprof_serve::Request;
use std::io::Cursor;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::measured;

#[test]
fn a_frame_costs_what_arrived_and_a_push_is_one_buffer() {
    // A header that declares the largest frame a reader accepts, its kind byte, ten
    // bytes of body and the end of the stream: before the reservation was bounded,
    // this asked for 64 MiB of zeroes.
    let mut torn = Vec::new();
    put_varint(&mut torn, MAX_FRAME_BYTES);
    torn.push(0x01);
    torn.extend_from_slice(&[b'{'; 10]);
    let (read, asked) = measured(|| read_frame(&mut Cursor::new(&torn)));
    assert_eq!(read, Err("truncated frame body".to_string()));
    assert!(asked.peak_bytes < 256 * 1024, "{asked:?}");

    // A 26 KB push (a golden report, padded to the size of the benchmark's larger
    // one) arrives in one allocation, which the decoded request keeps as its text.
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
    let mut report = std::fs::read_to_string(format!("{golden}/memcached_quick.report.json"))
        .expect("golden report");
    report.push_str(&" ".repeat(26 * 1024 - report.len()));
    let push = Request::PushShard {
        workload: "memcached".into(),
        build: "v1".into(),
        shard_id: 7,
        report_json: report.clone(),
    };
    let (kind, payload) = push.encode();
    let mut wire = Vec::new();
    write_frame(&mut wire, kind, &payload).unwrap();
    let (frame, asked) = measured(|| read_frame(&mut Cursor::new(&wire)).unwrap());
    let (kind, body) = frame.expect("one frame");
    assert_eq!(body, payload);
    assert_eq!((asked.allocations, asked.growths), (1, 0), "{asked:?}");
    let buffer = body.as_ptr();
    let (request, asked) = measured(|| Request::decode(kind, body).unwrap());
    // The two tags are copied; the report is not.
    assert_eq!(asked.calls(), 2, "{asked:?}");
    let Request::PushShard { report_json, .. } = &request else {
        panic!("decoded {request:?}");
    };
    assert_eq!(report_json.as_ptr(), buffer);
    assert_eq!(request, push);

    // A body past the reservation grows as it arrives, to at most twice its length.
    let large = vec![b' '; 200 * 1024];
    let mut wire = Vec::new();
    write_frame(&mut wire, 0x02, &large).unwrap();
    let (frame, asked) = measured(|| read_frame(&mut Cursor::new(&wire)).unwrap());
    assert_eq!(frame, Some((0x02, large)));
    assert!(asked.peak_bytes <= 2 * 200 * 1024, "{asked:?}");
}
