//! The TCP server: a thread-per-connection accept loop around a shared
//! [`ProfileStore`].
//!
//! Connections are long-lived: a producer keeps one socket open and streams
//! push frames; a dashboard keeps one open and issues queries.  A malformed
//! *request* gets an error response and the connection stays up (the frame
//! boundary is intact, so the stream can resync); a malformed *frame* gets an
//! error response and the connection is closed (the byte stream itself is
//! broken).  Either way the server keeps serving other connections — the
//! error-path tests pin exactly this.

use crate::frame::{read_frame, write_frame};
use crate::proto::{Request, Response};
use crate::reply;
use crate::store::{valid_tag, ProfileStore};
use dprof::core::merge::{MergedReport, ProfileShard};
use dprof::core::schema::{self, JsonTape, NameTable};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks a free port (read it back from
    /// [`Server::addr`]).
    pub listen: String,
    /// Snapshot tree root; `None` keeps the store memory-only.
    pub store_root: Option<PathBuf>,
    /// Snapshot a key automatically after this many pushes to it (0 disables
    /// automatic snapshots; the `snapshot` request always works).
    pub snapshot_every: u64,
    /// Per-key bound on resident shards (see
    /// [`dprof::core::StreamingMerge::with_compact_threshold`]).
    pub compact_threshold: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            listen: "127.0.0.1:0".into(),
            store_root: None,
            snapshot_every: 64,
            compact_threshold: 256,
        }
    }
}

/// A running server.  Dropping it (or calling [`Server::shutdown`]) stops the
/// accept loop; in-flight connections finish their current request.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    store: Arc<Mutex<ProfileStore>>,
}

impl Server {
    /// Binds and starts serving in background threads.
    pub fn start(config: ServerConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| format!("bind {}: {e}", config.listen))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let store = Arc::new(Mutex::new(ProfileStore::new(
            config.store_root.clone(),
            config.compact_threshold,
        )?));
        let stop = Arc::new(AtomicBool::new(false));

        let shared = Shared {
            store: Arc::clone(&store),
            stop: Arc::clone(&stop),
            snapshot_every: config.snapshot_every,
            scratch_dir: config.store_root.clone().unwrap_or_else(std::env::temp_dir),
            upload_counter: Arc::new(AtomicU64::new(0)),
            addr,
        };
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            for connection in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = connection else { continue };
                // Without TCP_NODELAY the small response frames sit behind
                // Nagle until the peer's delayed ACK (~40ms per round trip).
                let _ = stream.set_nodelay(true);
                let shared = shared.clone();
                std::thread::spawn(move || serve_connection(stream, shared));
            }
        });

        Ok(Server {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            store,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle to the store (tests use it to inspect state without a socket).
    pub fn store(&self) -> Arc<Mutex<ProfileStore>> {
        Arc::clone(&self.store)
    }

    /// Stops the accept loop and waits for it; flushes a final snapshot.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        if let Ok(mut store) = self.store.lock() {
            if store.persistent() {
                let _ = store.snapshot();
            }
        }
    }

    /// Blocks until a client asks the server to stop (`dprof serve` runs this).
    pub fn wait(&mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        if let Ok(mut store) = self.store.lock() {
            if store.persistent() {
                let _ = store.snapshot();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[derive(Clone)]
struct Shared {
    store: Arc<Mutex<ProfileStore>>,
    stop: Arc<AtomicBool>,
    snapshot_every: u64,
    scratch_dir: PathBuf,
    upload_counter: Arc<AtomicU64>,
    addr: SocketAddr,
}

fn serve_connection(stream: TcpStream, shared: Shared) {
    // Requests are read through the buffer; responses go to the socket under it.
    let mut stream = BufReader::new(stream);
    // The connection's pushes share their names: a name this producer sent before is
    // the one already held, in the table and in the store's shards alike.
    let mut names = NameTable::default();
    loop {
        let (kind, payload) = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => return,
            Err(message) => {
                // The byte stream is broken; answer once and hang up.
                let (k, p) = Response::Err(message).encode();
                let _ = write_frame(stream.get_mut(), k, &p);
                return;
            }
        };
        let response = match Request::decode(kind, payload) {
            Ok(Request::Shutdown) => {
                let (k, p) = Response::Ok(reply::shutdown()).encode();
                let _ = write_frame(stream.get_mut(), k, &p);
                shared.stop.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(shared.addr);
                return;
            }
            Ok(request) => handle(&shared, &mut names, request),
            Err(message) => Response::Err(message),
        };
        let (k, p) = response.encode();
        if write_frame(stream.get_mut(), k, &p).is_err() {
            return;
        }
    }
}

fn handle(shared: &Shared, names: &mut NameTable, request: Request) -> Response {
    match dispatch(shared, names, request) {
        Ok(json) => Response::Ok(json),
        Err(message) => Response::Err(message),
    }
}

fn dispatch(shared: &Shared, names: &mut NameTable, request: Request) -> Result<String, String> {
    match request {
        Request::PushShard {
            workload,
            build,
            shard_id,
            report_json,
        } => {
            check_key(&workload, &build)?;
            let tape = JsonTape::parse(&report_json).map_err(|e| format!("push: {e}"))?;
            // The client's shard_id is the fold ordinal, so the merged result does not
            // depend on arrival order until compaction groups shards, and from then on
            // only in its means' rounding.
            let shard = schema::shard_from_report_json_with(tape.root(), shard_id, names)?;
            let total = absorb(shared, &workload, &build, [shard])?;
            Ok(reply::push(&workload, &build, total))
        }
        Request::PushTrace {
            workload,
            build,
            shard_id,
            bytes,
        } => {
            check_key(&workload, &build)?;
            let shards = replay_trace_upload(shared, shard_id, &bytes)?;
            let added = shards.len();
            let total = absorb(shared, &workload, &build, shards)?;
            Ok(reply::push_trace(&workload, &build, added, total))
        }
        Request::QueryTop {
            workload,
            build,
            top,
        } => {
            let report = lookup(shared, &workload, &build)?;
            Ok(reply::top(&workload, &build, &report, top as usize))
        }
        Request::QueryRegressions {
            workload,
            from,
            to,
            top,
        } => {
            let report_a = lookup(shared, &workload, &from)?;
            let report_b = lookup(shared, &workload, &to)?;
            Ok(reply::regressions(
                &workload,
                &from,
                &to,
                &report_a,
                &report_b,
                top as usize,
            ))
        }
        Request::QueryAlerts { workload, from, to } => {
            let report_a = lookup(shared, &workload, &from)?;
            let report_b = lookup(shared, &workload, &to)?;
            Ok(reply::alerts(&workload, &from, &to, &report_a, &report_b))
        }
        Request::ListKeys => Ok(reply::keys(&lock(shared)?.keys())),
        Request::Stats => {
            let store = lock(shared)?;
            Ok(reply::stats(&store.stats(), store.persistent()))
        }
        Request::Snapshot => {
            let mut store = lock(shared)?;
            if !store.persistent() {
                return Err("server has no --store directory to snapshot into".into());
            }
            Ok(reply::snapshot(store.snapshot()?))
        }
        Request::Shutdown => unreachable!("handled in the connection loop"),
    }
}

fn check_key(workload: &str, build: &str) -> Result<(), String> {
    if !valid_tag(workload) {
        return Err(format!(
            "invalid workload tag '{workload}' (1-64 chars of [A-Za-z0-9._-], alphanumeric first)"
        ));
    }
    if !valid_tag(build) {
        return Err(format!(
            "invalid build tag '{build}' (1-64 chars of [A-Za-z0-9._-], alphanumeric first)"
        ));
    }
    Ok(())
}

fn lock(shared: &Shared) -> Result<std::sync::MutexGuard<'_, ProfileStore>, String> {
    shared
        .store
        .lock()
        .map_err(|_| "store poisoned".to_string())
}

/// The merged report of one key.  The store is locked for this only (and folds only
/// on the first read after a push); the caller renders its answer outside the lock.
fn lookup(shared: &Shared, workload: &str, build: &str) -> Result<Arc<MergedReport>, String> {
    check_key(workload, build)?;
    lock(shared)?
        .report(workload, build)
        .ok_or_else(|| format!("unknown key {workload}/{build} (see list-keys)"))
}

fn absorb(
    shared: &Shared,
    workload: &str,
    build: &str,
    shards: impl IntoIterator<Item = ProfileShard>,
) -> Result<u64, String> {
    let mut store = lock(shared)?;
    let mut total = 0;
    for shard in shards {
        total = store.push_shard(workload, build, shard);
    }
    if shared.snapshot_every > 0
        && store.persistent()
        && store.dirty(workload, build) >= shared.snapshot_every
    {
        store.snapshot()?;
    }
    Ok(total)
}

/// Replays an uploaded `.dtrace` into shards, outside the store lock (replay is
/// the expensive part; only the absorb needs exclusivity).
fn replay_trace_upload(
    shared: &Shared,
    shard_id: u64,
    bytes: &[u8],
) -> Result<Vec<ProfileShard>, String> {
    // 1024 streams per upload is far above any recorded trace; uploads stay disjoint
    // in ordinal space.  The id is the client's: refuse one whose ordinals do not fit
    // before replaying anything.
    let out_of_range = || format!("trace upload: shard id {shard_id} out of range");
    let first_ordinal = shard_id.checked_mul(1024).ok_or_else(out_of_range)?;
    let unique = shared.upload_counter.fetch_add(1, Ordering::SeqCst);
    let path = shared.scratch_dir.join(format!(
        "dprof-upload-{}-{unique}.dtrace",
        std::process::id()
    ));
    // Whatever part of the spool a failed write left is removed with the rest below.
    let result = (|| {
        std::fs::write(&path, bytes).map_err(|e| format!("spool upload: {e}"))?;
        let reader = dprof::trace::TraceReader::open(&path.display().to_string())
            .map_err(|e| format!("trace upload: {e}"))?;
        let runs = dprof::trace::replay_all_streaming(&reader)?;
        runs.iter()
            .map(|(run, _)| {
                let ordinal = first_ordinal
                    .checked_add(run.thread as u64)
                    .ok_or_else(out_of_range)?;
                Ok(run.shard(ordinal))
            })
            .collect()
    })();
    let _ = std::fs::remove_file(&path);
    result
}
