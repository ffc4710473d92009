//! The reference what-if measurement pass: it reads the stream from its file and
//! resolves every access against the replay kernel's live objects, where the measured
//! pass reads a packed window and asks the page filter first.  Included by `#[path]`
//! into the what-if unit tests of `dprof-trace` and into `fan_out.rs` in `dprof-cli`,
//! which hold the pass over a [`PackedWindow`](super::trace::PackedWindow) to it.
//!
//! The includer names the trace and machine crates `trace` and `machine`, as
//! `tests/support/dtrace.rs` asks.
#![allow(dead_code)] // no one includer reads every result

use super::machine::SessionEvent;
use super::trace::replay::{apply_event, rebuild_universe};
use super::trace::whatif::{stream_type_id, RoundClocks};
use super::trace::{FixSpec, TraceReader, Transform, WhatifMeasure};

/// Stream `thread` of `reader` measured under `spec` from its file, every access
/// resolved.  Returns the measure and each access's `(core, addr, len)` as the machine
/// was given it, and how many of them the transform changed.
pub fn measure_resolving_every_access(
    reader: &TraceReader,
    thread: usize,
    spec: &FixSpec,
) -> (WhatifMeasure, Vec<(u32, u64, u64)>, usize) {
    let (mut machine, mut kernel) = rebuild_universe(reader, thread);
    let target = spec
        .target()
        .and_then(|name| stream_type_id(&reader.headers()[thread].types, name));
    let line_size = reader.machine.hierarchy.l1.line_size as u64;
    let mut transform = Transform::new(spec, target, line_size);
    let mut clocks = RoundClocks::new(reader, thread);
    let (mut dispatched, mut rewritten) = (Vec::new(), 0);
    for ev in reader.events(thread).unwrap() {
        let ev = match ev.unwrap() {
            SessionEvent::RoundEnd => {
                clocks.round_end(&machine);
                if clocks.complete() {
                    break;
                }
                continue;
            }
            ev @ SessionEvent::Access {
                core, addr, len, ..
            } => {
                let hit = kernel.allocator.resolve_remap(addr);
                let access = transform.rewrite(core, addr, len, hit);
                rewritten += usize::from(access != (core, addr, len));
                dispatched.push(access);
                ev.with_access_target(access.0, access.1, access.2)
            }
            ev => ev,
        };
        apply_event(ev, &mut machine, &mut kernel).unwrap();
    }
    (clocks.measure(reader), dispatched, rewritten)
}
