//! A `TraceFile` on disk: the one form a trace is replayed, walked or decoded from.  A
//! test that builds a session in memory writes it to a temp file and opens it, as
//! `dprof record` and `dprof replay` do.  Included by `#[path]` into
//! `replay_end_to_end.rs`, `codec_roundtrip.rs`, `whatif_proptests.rs`,
//! `sharing_walk_alloc.rs` and `dtrace_hostile.rs` in `dprof-trace`, `fan_out.rs` and
//! the driver's unit tests in `dprof-cli`, `case_study_session.rs` in `dprof-bench`, and
//! `whatif_oracle.rs` in the root package.
//!
//! The includer names the trace and machine crates `trace` and `machine`, as the `dprof`
//! facade does (`use dprof::{machine, trace};`, or `use dprof_trace as trace;` and `use
//! sim_machine as machine;` inside `dprof-trace`).
#![allow(dead_code)] // no one test uses every helper

use super::machine::SessionEvent;
use super::trace::{ThreadStream, TraceError, TraceFile, TraceKind, TraceReader};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A trace written to a temp path of its own and opened there.  It reads as the
/// [`TraceReader`]; the file goes when it does.
pub struct OnDisk {
    reader: TraceReader,
    path: PathBuf,
}

impl OnDisk {
    /// Where the trace is, for a test that hands it to the `dprof` binary.
    pub fn path(&self) -> &str {
        self.path.to_str().expect("temp path is utf-8")
    }
}

impl std::ops::Deref for OnDisk {
    type Target = TraceReader;

    fn deref(&self) -> &TraceReader {
        &self.reader
    }
}

impl Drop for OnDisk {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// `file`, written to a fresh temp path and opened.
pub fn on_disk(file: &TraceFile) -> OnDisk {
    open(&file.encode()).expect("a written trace opens")
}

/// `bytes`, written to a fresh temp path and opened: `Err` is what
/// [`TraceReader::open`] refuses them with.  Paths are numbered per process, because a
/// test binary runs its tests on parallel threads.
pub fn open(bytes: &[u8]) -> Result<OnDisk, TraceError> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "dprof-test-trace-{}-{}.dtrace",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).expect("temp trace writes");
    match TraceReader::open(path.to_str().expect("temp path is utf-8")) {
        Ok(reader) => Ok(OnDisk { reader, path }),
        Err(e) => {
            let _ = std::fs::remove_file(&path);
            Err(e)
        }
    }
}

/// The session `reader` reads, every stream walked once into memory.
pub fn read_back(reader: &TraceReader) -> Result<TraceFile, TraceError> {
    let streams = (reader.headers().iter().enumerate())
        .map(|(thread, h)| {
            Ok(ThreadStream {
                seed: h.seed,
                requests: h.requests,
                symbols: h.symbols.clone(),
                types: h.types.clone(),
                events: reader.events(thread)?.collect::<Result<_, _>>()?,
            })
        })
        .collect::<Result<_, TraceError>>()?;
    Ok(TraceFile {
        kind: TraceKind::FullSession,
        machine: reader.machine,
        params: reader.params.clone(),
        streams,
    })
}

/// Every stream's events of `file`, decoded from disk.
pub fn decode(file: &TraceFile) -> Vec<Vec<SessionEvent>> {
    let reader = on_disk(file);
    (0..reader.stream_count())
        .map(|thread| {
            (reader.events(thread).expect("stream opens"))
                .collect::<Result<_, _>>()
                .expect("stream decodes")
        })
        .collect()
}
