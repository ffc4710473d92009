//! Session event recording: the raw material of the `dprof-trace` record/replay
//! subsystem.
//!
//! A *session event* is one externally-driven state change of the simulated machine or
//! of the allocator's address-set bookkeeping.  Recording every such event from machine
//! birth onward captures everything a later replay needs to reproduce the machine's
//! evolution exactly — cache contents, per-core clocks, IBS samples, watchpoint hits and
//! the allocator's address set all follow deterministically from the event stream — so a
//! replayed profiling session produces a report byte-identical to the live run's.
//!
//! The event kinds:
//!
//! * [`SessionEvent::Access`] — one [`crate::Machine::access`]-level memory operation
//!   (`core`, attributed `ip`, byte address, length, read/write).  Line splitting is
//!   *not* applied here: replay re-issues the access through the machine, which splits
//!   it exactly as the live run did.
//! * [`SessionEvent::Compute`] — non-memory work advancing a core's clock.
//! * [`SessionEvent::Alloc`] / [`SessionEvent::Free`] — allocator bookkeeping: an
//!   object's birth/death with its live-recorded cycle stamps.  The allocator's own
//!   memory traffic is *not* folded in (it already appears as `Access` events); these
//!   events carry only the address-set mutation, plus whether the allocation is
//!   eligible for the DProf profile hook (`hookable`), so replay can re-run the
//!   watchpoint-arming decision at exactly the same point in the stream.
//! * [`SessionEvent::RoundEnd`] — a workload-round boundary.  The driver marks one
//!   after setup and one after every workload step, which is what lets replay feed the
//!   profiler one round at a time through the same `step`-closure interface the live
//!   workloads use.
//!
//! The profiler's own actions (IBS configuration, watchpoint arming costs) are
//! deliberately *not* recorded: replay runs the real profiler, which re-makes the same
//! deterministic decisions at the same stream positions.

use crate::symbols::FunctionId;
use sim_cache::AccessKind;

/// One recorded machine/allocator event.  See the module docs for semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEvent {
    /// A memory access as issued to [`crate::Machine::access`] / `access_run`.
    Access {
        /// Issuing core.
        core: u32,
        /// Function the access is attributed to.
        ip: FunctionId,
        /// First byte address.
        addr: u64,
        /// Length in bytes (may span cache lines).
        len: u64,
        /// Load or store.
        kind: AccessKind,
    },
    /// Non-memory work advancing a core's clock.
    Compute {
        /// Core performing the work.
        core: u32,
        /// Function the cycles are attributed to.
        ip: FunctionId,
        /// Cycles of work.
        cycles: u64,
    },
    /// An allocator address-set insertion (object allocated).
    Alloc {
        /// Allocating core.
        core: u32,
        /// Raw type id (`sim_kernel::TypeId.0`) of the object.
        type_id: u32,
        /// Object size in bytes.
        size: u64,
        /// Base address.
        addr: u64,
        /// Core-local cycle count recorded at allocation time.
        cycle: u64,
        /// True for ordinary pool allocations (eligible for the DProf profile hook);
        /// false for allocator-internal bookkeeping objects (slab descriptors,
        /// array-caches), which never trigger the hook in a live run.
        hookable: bool,
    },
    /// An allocator address-set removal (object freed).
    Free {
        /// Freeing core.
        core: u32,
        /// Base address of the freed object.
        addr: u64,
        /// Core-local cycle count recorded at free time.
        cycle: u64,
    },
    /// A workload-round boundary marker.
    RoundEnd,
}

impl SessionEvent {
    /// Counterfactual dispatch: for an [`SessionEvent::Access`], a copy with the
    /// issuing core, address and length replaced — the primitive a what-if replay
    /// layer rewrites recorded traffic with before re-issuing it to the machine.
    /// Non-access events are returned unchanged.
    #[must_use]
    pub fn with_access_target(self, core: u32, addr: u64, len: u64) -> SessionEvent {
        match self {
            SessionEvent::Access { ip, kind, .. } => SessionEvent::Access {
                core,
                ip,
                addr,
                len,
                kind,
            },
            other => other,
        }
    }
}

/// The in-memory session event buffer, owned by [`crate::Machine`] while recording.
/// Whoever records drains it as the session runs ([`SessionRecorder::drain`]), so it
/// holds the events since the last drain, not the session.
#[derive(Debug, Clone, Default)]
pub struct SessionRecorder {
    events: Vec<SessionEvent>,
    /// Most events ever buffered at a drain.
    peak: usize,
}

impl SessionRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    #[inline]
    pub fn push(&mut self, event: SessionEvent) {
        self.events.push(event);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Hands the buffered events to `sink` and empties the buffer, keeping its
    /// capacity (and still recording).
    pub fn drain(&mut self, sink: impl FnOnce(&[SessionEvent])) {
        self.peak = self.peak_buffered();
        sink(&self.events);
        self.events.clear();
    }

    /// Most events the buffer ever held at once — the recorder's memory footprint.
    pub fn peak_buffered(&self) -> usize {
        self.peak.max(self.events.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_buffers_and_drains() {
        let mut r = SessionRecorder::new();
        assert!(r.is_empty());
        r.push(SessionEvent::RoundEnd);
        r.push(SessionEvent::Compute {
            core: 1,
            ip: FunctionId(2),
            cycles: 30,
        });
        assert_eq!(r.len(), 2);
        let mut events = Vec::new();
        r.drain(|buffered| events.extend_from_slice(buffered));
        assert_eq!(events.len(), 2);
        assert!(r.is_empty());
        assert_eq!(events[0], SessionEvent::RoundEnd);
        // Still recording, and the mark is the fullest the buffer has been.
        r.push(SessionEvent::RoundEnd);
        assert_eq!(r.len(), 1);
        assert_eq!(r.peak_buffered(), 2);
    }
}
