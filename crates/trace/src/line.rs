//! Lowering of session events to per-cache-line access streams.
//!
//! The cache hierarchy consumes one access per line ([`CacheHierarchy::access`]
//! asserts single-line accesses); the machine splits multi-line requests at line
//! boundaries.  This module replicates that split so a recorded machine-level stream
//! can drive a bare hierarchy — which is what `dprof-bench`'s core-count grid does
//! with each round of a workload's recorded session.
//!
//! [`CacheHierarchy::access`]: sim_cache::CacheHierarchy::access

use sim_cache::TraceEvent;
use sim_machine::SessionEvent;

/// Appends the per-line accesses of one session event to `out`, splitting a
/// multi-line access exactly as `Machine::access` does (non-access events append
/// nothing).  Consumers lower events as they decode or drain them, so the session
/// stream is never materialized.
pub fn push_line_events(ev: &SessionEvent, line_size: u64, out: &mut Vec<TraceEvent>) {
    let SessionEvent::Access {
        core,
        addr,
        len,
        kind,
        ..
    } = *ev
    else {
        return;
    };
    let mut offset = 0u64;
    while offset < len {
        let a = addr + offset;
        let line_end = (a / line_size + 1) * line_size;
        let chunk = (line_end - a).min(len - offset);
        out.push(TraceEvent {
            core,
            addr: a,
            kind,
        });
        offset += chunk;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cache::AccessKind;
    use sim_machine::FunctionId;

    fn lower(events: &[SessionEvent]) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for ev in events {
            push_line_events(ev, 64, &mut out);
        }
        out
    }

    #[test]
    fn spanning_access_splits_at_line_boundaries() {
        let events = vec![
            SessionEvent::Access {
                core: 1,
                ip: FunctionId(0),
                addr: 0x1038,
                len: 16,
                kind: AccessKind::Write,
            },
            SessionEvent::RoundEnd,
            SessionEvent::Access {
                core: 0,
                ip: FunctionId(0),
                addr: 0x2000,
                len: 8,
                kind: AccessKind::Read,
            },
        ];
        let lines = lower(&events);
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].addr, 0x1038);
        assert_eq!(lines[1].addr, 0x1040);
        assert_eq!(lines[1].core, 1);
        assert_eq!(lines[2].addr, 0x2000);
        assert_eq!(lines[2].kind, AccessKind::Read);
    }

    #[test]
    fn exact_line_multiple_splits_cleanly() {
        let events = [SessionEvent::Access {
            core: 0,
            ip: FunctionId(0),
            addr: 0x1000,
            len: 128,
            kind: AccessKind::Read,
        }];
        let lines = lower(&events);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].addr, 0x1000);
        assert_eq!(lines[1].addr, 0x1040);
    }
}
