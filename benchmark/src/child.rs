//! Child processes: per-child wall, CPU and peak RSS from `wait4`, and a scratch
//! directory that is removed when the run ends.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// What one finished child cost.
#[derive(Debug, Clone, Copy)]
pub struct ChildUsage {
    pub wall: Duration,
    /// User plus system time.
    pub cpu: Duration,
    pub max_rss_kb: u64,
    /// The child exited normally with code 0.
    pub success: bool,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen `long`s of which the
/// first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

/// The kernel's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Confines the calling thread, and every child it starts from now on, to the first
/// CPU it may run on.  `serve-mixed` runs so: client and collector then hand a request
/// over with a context switch.  On two CPUs each hand-off wakes an idle virtual CPU
/// instead, which costs 30-50 us here or next to nothing depending on what the host's
/// other tenants do to the core's idle states, and whether the scheduler keeps the two
/// on one CPU anyway differs from run to run (measured: 110 or 155 ms for one batch).
pub fn pin_to_one_cpu() -> Result<(), String> {
    let mut set: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `set` is valid for writes of `size` bytes for the whole call; pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut set) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let word = set
        .iter()
        .position(|w| *w != 0)
        .ok_or("sched_getaffinity returned no CPU")?;
    let first = set[word] & set[word].wrapping_neg();
    set = [0; 16];
    set[word] = first;
    // SAFETY: `set` is valid for reads of `size` bytes for the whole call.
    if unsafe { sched_setaffinity(0, size, &set) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Waits for `child` and returns its resource usage; `started` is when it was spawned.
/// A child still running at `deadline` is killed (and then counts as failed).
pub fn wait_usage(
    mut child: Child,
    started: Instant,
    deadline: Option<Instant>,
) -> Result<ChildUsage, String> {
    const WNOHANG: i32 = 1;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    let pid = child.id() as i32;
    let mut wait = |options: i32| {
        // SAFETY: `status` and `usage` are valid for writes for the whole call, and
        // `Rusage` has the size and layout of the C `struct rusage` on 64-bit Linux.
        // The pid is a child of this process that nothing else reaps: `child` is
        // consumed by this function and `Child` does not wait on drop.
        unsafe { wait4(pid, &mut status, options, &mut usage) }
    };
    let reaped = match deadline {
        None => wait(0),
        Some(deadline) => loop {
            let reaped = wait(WNOHANG);
            if reaped != 0 {
                break reaped;
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                break wait(0);
            }
            std::thread::sleep(Duration::from_millis(2));
        },
    };
    let wall = started.elapsed();
    if reaped < 0 {
        return Err(format!("wait4: {}", std::io::Error::last_os_error()));
    }
    let timeval = |tv: [i64; 2]| Duration::new(tv[0] as u64, tv[1] as u32 * 1000);
    Ok(ChildUsage {
        wall,
        cpu: timeval(usage.utime) + timeval(usage.stime),
        max_rss_kb: usage.maxrss as u64,
        // WIFEXITED && WEXITSTATUS == 0
        success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
    })
}

fn spawn_dprof(dprof: &Path, dir: &Path, args: &[String], log: &Path) -> Result<Child, String> {
    let stderr = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    Command::new(dprof)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", dprof.display()))
}

/// Runs `dprof args...` in `dir` to completion.  Its stderr goes to `dir/stderr.log`
/// (replayed on failure); stdout is discarded.
pub fn run_dprof(dprof: &Path, dir: &Path, args: &[String]) -> Result<ChildUsage, String> {
    let log = dir.join("stderr.log");
    let started = Instant::now();
    let child = spawn_dprof(dprof, dir, args, &log)?;
    let usage = wait_usage(child, started, None)?;
    if !usage.success {
        let text = std::fs::read_to_string(&log).unwrap_or_default();
        eprintln!("dprof {} failed:\n{text}", args.join(" "));
    }
    Ok(usage)
}

/// A `dprof serve` child with a store directory of its own under the run's scratch
/// directory.  [`Collector::stop`] shuts it down and waits for it; dropping it on any
/// other path kills it and waits, so no collector outlives a run and none is still
/// writing snapshots when the scratch directory is removed.
pub struct Collector {
    child: Option<Child>,
    started: Instant,
    pub addr: String,
}

/// How long a collector may take to start listening, and to exit once told to.
const COLLECTOR_PATIENCE: Duration = Duration::from_secs(20);

impl Collector {
    /// Starts `dprof serve <flags>` on a free local port with a fresh store and waits
    /// until it listens.
    pub fn start(dprof: &Path, dir: &Path, flags: &[String]) -> Result<Collector, String> {
        let _ = std::fs::remove_dir_all(dir.join("store"));
        let _ = std::fs::remove_file(dir.join("serve.addr"));
        let args: Vec<String> = [
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--store",
            "store",
            "--port-file",
            "serve.addr",
        ]
        .iter()
        .map(|s| s.to_string())
        .chain(flags.iter().cloned())
        .collect();
        let started = Instant::now();
        let child = spawn_dprof(dprof, dir, &args, &dir.join("serve.log"))?;
        let mut collector = Collector {
            child: Some(child),
            started,
            addr: String::new(),
        };
        // The port file is written once the listener is bound.
        while collector.addr.is_empty() {
            if started.elapsed() > COLLECTOR_PATIENCE {
                return Err("dprof serve did not write its port file".into());
            }
            std::thread::sleep(Duration::from_millis(1));
            let text = std::fs::read_to_string(dir.join("serve.addr")).unwrap_or_default();
            if text.ends_with('\n') {
                collector.addr = text.trim().to_string();
            }
        }
        Ok(collector)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("the collector is running").id()
    }

    /// CPU time the collector has used so far: the on-CPU nanoseconds of every one of
    /// its threads, from `/proc/<pid>/task/*/schedstat` (`/proc/<pid>/stat` counts in
    /// 10 ms ticks, too coarse for one batch of requests).
    pub fn cpu(&self) -> Result<Duration, String> {
        let tasks = format!("/proc/{}/task", self.pid());
        let mut nanos = 0u64;
        for task in std::fs::read_dir(&tasks).map_err(|e| format!("{tasks}: {e}"))? {
            let path = task
                .map_err(|e| format!("{tasks}: {e}"))?
                .path()
                .join("schedstat");
            // A thread may exit between the listing and the read.
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            nanos += text
                .split(' ')
                .next()
                .and_then(|n| n.parse::<u64>().ok())
                .unwrap_or(0);
        }
        Ok(Duration::from_nanos(nanos))
    }

    /// The collector's peak RSS so far, `VmHWM` of `/proc/<pid>/status`, in KiB.
    pub fn peak_rss_kb(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        text.lines()
            .find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse()
                    .ok()
            })
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// Asks the collector to shut down and waits until it has exited (it writes its
    /// final snapshots first).  One that does not answer, or does not exit, is killed.
    /// Returns whether it answered and exited with code 0.
    pub fn stop(mut self) -> Result<bool, String> {
        let asked =
            dprof_serve::Client::connect(&self.addr).and_then(|mut client| client.shutdown());
        let mut child = self.child.take().expect("the collector is running");
        if let Err(why) = &asked {
            eprintln!("dprof serve: shutdown request failed ({why}); killing it");
            let _ = child.kill();
        }
        let deadline = Instant::now() + COLLECTOR_PATIENCE;
        Ok(wait_usage(child, self.started, Some(deadline))?.success && asked.is_ok())
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A fresh directory for one run's traces and reports; removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `<parent>/<label>-<pid>-<n>` (absolute), `n` unique within the process.
    pub fn create(parent: &Path, label: &str) -> Result<ScratchDir, String> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = parent.join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        dir.canonicalize()
            .map(ScratchDir)
            .map_err(|e| format!("{}: {e}", dir.display()))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_usage_reports_exit_code_and_cpu() {
        let spawn = |script: &str| {
            let started = Instant::now();
            let child = Command::new("sh").args(["-c", script]).spawn().unwrap();
            wait_usage(child, started, None).unwrap()
        };
        let ok = spawn("i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done");
        assert!(ok.success);
        assert!(ok.cpu > Duration::ZERO && ok.max_rss_kb > 0 && ok.wall >= ok.cpu / 2);
        assert!(!spawn("exit 3").success);
        assert!(!spawn("kill -9 $$").success);
    }

    #[test]
    fn pinning_leaves_one_cpu_and_children_inherit_it() {
        // On a thread of its own: the affinity is the thread's, and other tests keep theirs.
        std::thread::spawn(|| {
            pin_to_one_cpu().unwrap();
            let output = Command::new("sh")
                .args(["-c", "grep Cpus_allowed_list /proc/self/status"])
                .output()
                .unwrap();
            let list = String::from_utf8(output.stdout).unwrap();
            let cpus = list.split(':').nth(1).unwrap().trim();
            assert!(cpus.parse::<u32>().is_ok(), "not a single CPU: {cpus}");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn scratch_dirs_are_unique_and_removed() {
        let parent = crate::target_dir(&Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
            .join("bench-scratch");
        let a = ScratchDir::create(&parent, "unique").unwrap();
        let b = ScratchDir::create(&parent, "unique").unwrap();
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists() && b.path().exists());
    }
}
