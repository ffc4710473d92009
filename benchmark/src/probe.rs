//! The host-speed probe: a fixed piece of work that tells how fast this host is
//! running right now, so that timings taken minutes apart can be compared.
//!
//! The host is shared.  Its other tenants slow a memory-bound program like `dprof` by
//! 10-40 % for seconds to minutes at a time, which is more than any regression bound,
//! so a raw time says as much about the neighbours as about the program.  The probe
//! is a frozen miniature of what `dprof` does (a 16-core set-associative tag store in
//! front of a hash-map directory, driven by a pseudo-random object stream that bounces
//! between cores) and slows down with it; an ALU loop or a pointer chase does not.
//! It runs before and after every timed operation, and the operation's time is divided
//! by the mean of the two (see [`HostSpeed`]).
//!
//! The probe uses nothing of the repository's crates: a change to the program under
//! test cannot move it.  Changing the probe changes every timing's baseline.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// What the probe takes on the reference host (this benchmark's 2-vCPU Xeon guest) in
/// a quiet minute.  Normalised timings are scaled by it, so they read as the seconds
/// the operation would take there.
pub const NOMINAL: Duration = Duration::from_millis(30);

const CORES: usize = 16;
const SETS: usize = 512;
const WAYS: usize = 8;
/// Lines per object, objects in the pool, and line accesses per probe.
const OBJECT_LINES: u64 = 16;
const OBJECTS: u64 = 8_000;
const ACCESSES: u64 = 300_000;

/// Sharers (one bit per core) and whether the line is held modified.
#[derive(Default, Clone, Copy)]
struct DirEntry {
    sharers: u16,
    modified: bool,
}

/// The fixed work: returns a checksum of its simulated counts so that none of it can
/// be optimised away.
fn kernel() -> u64 {
    let mut tags = vec![[u64::MAX; WAYS]; CORES * SETS];
    let mut victim = vec![0u8; CORES * SETS];
    let mut directory: HashMap<u64, DirEntry> = HashMap::new();
    let set_of = |core: usize, line: u64| core * SETS + line as usize % SETS;
    let (mut misses, mut invalidations) = (0u64, 0u64);
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    for _ in 0..ACCESSES / OBJECT_LINES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let object = (x >> 20) % OBJECTS;
        let core = (x >> 8) as usize % CORES;
        let write = x & 3 == 0;
        for line in object * OBJECT_LINES..(object + 1) * OBJECT_LINES {
            let set = set_of(core, line);
            if !tags[set].contains(&line) {
                misses += 1;
                let way = victim[set] as usize % WAYS;
                victim[set] = victim[set].wrapping_add(1);
                let evicted = std::mem::replace(&mut tags[set][way], line);
                if let Some(entry) = directory.get_mut(&evicted) {
                    entry.sharers &= !(1 << core);
                }
            }
            let entry = directory.entry(line).or_default();
            let others = entry.sharers & !(1 << core);
            if write && others != 0 {
                invalidations += u64::from(others.count_ones());
                for other in (0..CORES).filter(|c| others >> c & 1 == 1) {
                    for tag in &mut tags[set_of(other, line)] {
                        if *tag == line {
                            *tag = u64::MAX;
                        }
                    }
                }
                *entry = DirEntry {
                    sharers: 1 << core,
                    modified: true,
                };
            } else {
                entry.sharers |= 1 << core;
            }
        }
    }
    let modified = directory.values().filter(|entry| entry.modified).count() as u64;
    misses ^ (invalidations << 20) ^ (modified << 40)
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// CPU time this thread has used, from `CLOCK_THREAD_CPUTIME_ID`.
fn thread_cpu() -> Duration {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is valid for writes for the whole call and has the layout of the
    // C `struct timespec` on 64-bit Linux; the clock id is a constant the kernel knows.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(time.sec as u64, time.nsec as u32)
}

/// How long one probe took.
#[derive(Debug, Clone, Copy)]
pub struct ProbeTime {
    pub wall: Duration,
    pub cpu: Duration,
}

pub fn run() -> ProbeTime {
    let (started, cpu_started) = (Instant::now(), thread_cpu());
    std::hint::black_box(kernel());
    ProbeTime {
        wall: started.elapsed(),
        cpu: thread_cpu() - cpu_started,
    }
}

/// The factors that turn a measured wall time and CPU time into reference-host time.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub wall: f64,
    pub cpu: f64,
}

/// Brackets timed operations with probes: `probe, operation, probe, operation, ...`.
pub struct HostSpeed {
    last: ProbeTime,
    /// Every probe taken, for the run's printed summary.
    pub probes: Vec<ProbeTime>,
}

impl HostSpeed {
    /// Takes the first probe (after one discarded run that faults its memory in).
    pub fn start() -> HostSpeed {
        run();
        let last = run();
        HostSpeed {
            last,
            probes: vec![last],
        }
    }

    /// Call right after a timed operation: probes again and returns the scale for that
    /// operation, from the mean of the probes before and after it.  A burst of
    /// interference lasts longer than one operation, so the two neighbours see what
    /// the operation saw; a run-wide average does not (measured: 8-13 % quartile
    /// spread between runs against 2-5 % with the neighbours).
    pub fn scale(&mut self) -> Scale {
        let before = std::mem::replace(&mut self.last, run());
        self.probes.push(self.last);
        let factor = |a: Duration, b: Duration| 2.0 * NOMINAL.as_secs_f64() / (a + b).as_secs_f64();
        Scale {
            wall: factor(before.wall, self.last.wall),
            cpu: factor(before.cpu, self.last.cpu),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_takes_measurable_time() {
        assert_eq!(kernel(), kernel());
        let time = run();
        assert!(time.wall > Duration::from_millis(1) && time.cpu > Duration::from_millis(1));
        assert!(time.cpu <= time.wall + Duration::from_millis(5));
    }

    #[test]
    fn the_scale_is_nominal_over_the_neighbouring_probes() {
        let mut speed = HostSpeed::start();
        let before = speed.last;
        let scale = speed.scale();
        let mean = (before.wall + speed.last.wall).as_secs_f64() / 2.0;
        assert!((scale.wall * mean - NOMINAL.as_secs_f64()).abs() < 1e-12);
        assert_eq!(speed.probes.len(), 2);
    }
}
