//! The one abstraction replay is written against: something whose recorded streams can
//! be walked event by event.
//!
//! Two things provide it.  A [`TraceReader`] walks a `.dtrace` file on disk, decoding
//! each stream incrementally from its own file handle (`dprof replay`, `dprof whatif`,
//! `dprof serve`): every pass is a fresh decode, so passes can run side by side and
//! none of them holds the events.  A [`TraceFile`] walks the streams of a session just
//! recorded, held in memory in wire form, with the same decoder over a slice.  Every
//! replay, measurement and analysis function in this crate is generic over
//! [`TraceSource`], so each exists once.

use crate::format::{SessionParams, TraceFile, TypeDump};
use crate::stream::{EventReader, TraceReader};
use crate::TraceError;
use sim_machine::{MachineConfig, SessionEvent};

/// Everything about one recorded stream except its events.
#[derive(Debug, Clone, Copy)]
pub struct StreamInfo<'a> {
    /// The seed this thread ran with.
    pub seed: u64,
    /// Application requests completed during the profiled window.
    pub requests: u64,
    /// Interned symbol names, ordered by id.
    pub symbols: &'a [String],
    /// Registered types, ordered by id.
    pub types: &'a [TypeDump],
    /// Number of events in the stream.
    pub event_count: usize,
}

/// A recorded trace whose streams can be walked event by event.  `Sync`, because
/// replay walks the streams on parallel worker threads.
pub trait TraceSource: Sync {
    /// Machine configuration shared by all streams.
    fn machine(&self) -> MachineConfig;
    /// Session parameters.
    fn params(&self) -> &SessionParams;
    /// Number of recorded streams.
    fn stream_count(&self) -> usize;
    /// Stream `thread`'s identity and symbol/type tables.
    fn stream(&self, thread: usize) -> StreamInfo<'_>;
    /// Starts a fresh walk over stream `thread`'s events.
    fn events(
        &self,
        thread: usize,
    ) -> Result<impl Iterator<Item = Result<SessionEvent, TraceError>> + '_, TraceError>;
}

impl TraceSource for TraceReader {
    fn machine(&self) -> MachineConfig {
        self.machine
    }

    fn params(&self) -> &SessionParams {
        &self.params
    }

    fn stream_count(&self) -> usize {
        self.headers().len()
    }

    fn stream(&self, thread: usize) -> StreamInfo<'_> {
        let h = &self.headers()[thread];
        StreamInfo {
            seed: h.seed,
            requests: h.requests,
            symbols: &h.symbols,
            types: &h.types,
            event_count: h.event_count,
        }
    }

    fn events(
        &self,
        thread: usize,
    ) -> Result<impl Iterator<Item = Result<SessionEvent, TraceError>> + '_, TraceError> {
        TraceReader::events(self, thread)
    }
}

impl TraceSource for TraceFile {
    fn machine(&self) -> MachineConfig {
        self.machine
    }

    fn params(&self) -> &SessionParams {
        &self.params
    }

    fn stream_count(&self) -> usize {
        self.streams.len()
    }

    fn stream(&self, thread: usize) -> StreamInfo<'_> {
        let s = &self.streams[thread];
        StreamInfo {
            seed: s.seed,
            requests: s.requests,
            symbols: &s.symbols,
            types: &s.types,
            event_count: s.events.len(),
        }
    }

    fn events(
        &self,
        thread: usize,
    ) -> Result<impl Iterator<Item = Result<SessionEvent, TraceError>> + '_, TraceError> {
        Ok(EventReader::over(
            &self.streams[thread].events,
            self.machine.hierarchy.cores,
        ))
    }
}
