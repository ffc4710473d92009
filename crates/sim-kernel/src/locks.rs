//! Spinlocks with lock-stat instrumentation.
//!
//! The evaluation compares DProf against `lock-stat`, the Linux facility that reports,
//! for each kernel lock, how long it is held, how long waiters wait and which functions
//! acquire it (Tables 6.2 and 6.6).  Locks in the simulated kernel therefore carry the
//! same bookkeeping, and their acquire/release operations perform real (simulated)
//! memory accesses to the lock word so lock contention also produces coherence traffic.

use serde::{Deserialize, Serialize};
use sim_cache::CoreId;
use sim_machine::{FunctionId, Machine};
use std::collections::HashMap;

/// Per-caller acquisition counts.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LockStats {
    /// Total cycles spent waiting to acquire.
    pub wait_cycles: u64,
    /// Total cycles the lock was held.
    pub hold_cycles: u64,
    /// Number of acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that had to wait.
    pub contentions: u64,
    /// Acquisition counts per calling function.
    pub callers: HashMap<FunctionId, u64>,
}

/// A kernel spinlock.
///
/// The simulation is single-threaded, so "contention" is modelled with a busy-until
/// timestamp: if a core tries to acquire while the previous holder's critical section
/// (measured on *its* clock) has not yet elapsed on the acquirer's clock, the acquirer
/// spins for the difference.  Core clocks advance roughly in lockstep because the
/// workload drivers interleave work round-robin, so this approximation matches the
/// intuition that heavier cross-core use of a lock produces more waiting.
#[derive(Debug, Clone)]
pub struct KLock {
    /// Lock name as reported by lock-stat (e.g. `"Qdisc lock"`).
    pub name: String,
    /// Address of the lock word (embedded in some kernel object), so acquire/release
    /// generate coherence traffic on it.
    pub addr: u64,
    /// Global busy-until timestamp.
    busy_until: u64,
    /// Timestamp at which the current holder acquired the lock.
    held_since: u64,
    /// Whether the lock is currently held (for assertion purposes).
    held: bool,
    /// Collected statistics.
    pub stats: LockStats,
}

impl KLock {
    /// Creates a lock whose lock word lives at `addr`.
    pub fn new(name: &str, addr: u64) -> Self {
        KLock {
            name: name.to_string(),
            addr,
            busy_until: 0,
            held_since: 0,
            held: false,
            stats: LockStats::default(),
        }
    }

    /// Acquires the lock on `core` from function `caller`.
    ///
    /// Performs an atomic read-modify-write of the lock word (a write access) and spins
    /// if the lock is busy.  Returns the wait time in cycles.
    pub fn acquire(&mut self, machine: &mut Machine, core: CoreId, caller: FunctionId) -> u64 {
        // The cmpxchg on the lock word: a write, so it invalidates other cores' copies.
        machine.write(core, caller, self.addr, 8);
        let now = machine.clock(core);
        let wait = self.busy_until.saturating_sub(now);
        if wait > 0 {
            machine.compute(core, caller, wait);
            self.stats.contentions += 1;
        }
        self.stats.wait_cycles += wait;
        self.stats.acquisitions += 1;
        *self.stats.callers.entry(caller).or_insert(0) += 1;
        self.held_since = machine.clock(core);
        self.held = true;
        wait
    }

    /// Releases the lock on `core` from function `caller`.
    pub fn release(&mut self, machine: &mut Machine, core: CoreId, caller: FunctionId) {
        debug_assert!(
            self.held,
            "release of a lock that is not held: {}",
            self.name
        );
        machine.write(core, caller, self.addr, 8);
        let now = machine.clock(core);
        let hold = now.saturating_sub(self.held_since);
        self.stats.hold_cycles += hold;
        self.busy_until = now;
        self.held = false;
    }
}

/// A lock-stat style report row (one lock).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LockReportRow {
    /// Lock name.
    pub name: String,
    /// Total wait time in seconds.
    pub wait_seconds: f64,
    /// Wait time as a percentage of total machine time (cores x seconds).
    pub overhead_percent: f64,
    /// Acquiring functions, most frequent first.
    pub functions: Vec<String>,
    /// Number of acquisitions.
    pub acquisitions: u64,
    /// Number of contended acquisitions.
    pub contentions: u64,
}

/// Builds lock-stat rows for a set of locks, given the machine that ran the workload.
pub fn lock_report(machine: &Machine, locks: &[&KLock]) -> Vec<LockReportRow> {
    let cores = machine.cores() as f64;
    let freq = machine.config().cycles_per_second as f64;
    let elapsed = machine.elapsed_seconds().max(1e-12);
    let mut rows: Vec<LockReportRow> = locks
        .iter()
        .map(|l| {
            let wait_seconds = l.stats.wait_cycles as f64 / freq;
            let overhead_percent = 100.0 * wait_seconds / (elapsed * cores);
            let mut callers: Vec<_> = l.stats.callers.iter().collect();
            callers.sort_by_key(|(_, &n)| std::cmp::Reverse(n));
            LockReportRow {
                name: l.name.clone(),
                wait_seconds,
                overhead_percent,
                functions: callers
                    .into_iter()
                    .map(|(f, _)| machine.symbols.name(*f).to_string())
                    .collect(),
                acquisitions: l.stats.acquisitions,
                contentions: l.stats.contentions,
            }
        })
        .collect();
    rows.sort_by(|a, b| b.wait_seconds.partial_cmp(&a.wait_seconds).unwrap());
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_machine::MachineConfig;

    #[test]
    fn uncontended_lock_has_no_wait() {
        let mut m = Machine::new(MachineConfig::small_test());
        let f = m.fn_id("caller");
        let mut l = KLock::new("test lock", 0x9000);
        for _ in 0..10 {
            let w = l.acquire(&mut m, 0, f);
            assert_eq!(w, 0);
            m.compute(0, f, 100);
            l.release(&mut m, 0, f);
        }
        assert_eq!(l.stats.contentions, 0);
        assert_eq!(l.stats.acquisitions, 10);
        assert!(l.stats.hold_cycles >= 1000);
    }

    #[test]
    fn cross_core_contention_produces_wait() {
        let mut m = Machine::new(MachineConfig::small_test());
        let f = m.fn_id("dev_queue_xmit");
        let mut l = KLock::new("Qdisc lock", 0x9000);
        // Core 0 holds the lock for a long critical section.
        l.acquire(&mut m, 0, f);
        m.compute(0, f, 50_000);
        l.release(&mut m, 0, f);
        // Core 1 (whose clock is far behind) tries to acquire: it must spin until the
        // release time.
        let w = l.acquire(&mut m, 1, f);
        assert!(w > 0, "expected contention wait, got {w}");
        l.release(&mut m, 1, f);
        assert_eq!(l.stats.contentions, 1);
        assert!(l.stats.wait_cycles >= w);
    }

    #[test]
    fn callers_recorded_by_function() {
        let mut m = Machine::new(MachineConfig::small_test());
        let f = m.fn_id("dev_queue_xmit");
        let g = m.fn_id("__qdisc_run");
        let mut l = KLock::new("Qdisc lock", 0x9000);
        l.acquire(&mut m, 0, f);
        l.release(&mut m, 0, f);
        l.acquire(&mut m, 0, g);
        l.release(&mut m, 0, g);
        l.acquire(&mut m, 1, g);
        l.release(&mut m, 1, g);
        assert_eq!(l.stats.callers[&f], 1);
        assert_eq!(l.stats.callers[&g], 2);
    }

    #[test]
    fn report_rows_sorted_by_wait() {
        let mut m = Machine::new(MachineConfig::small_test());
        let f = m.fn_id("fn_a");
        let mut quiet = KLock::new("quiet", 0x9000);
        let mut busy = KLock::new("busy", 0x9100);
        quiet.acquire(&mut m, 0, f);
        quiet.release(&mut m, 0, f);
        busy.acquire(&mut m, 0, f);
        m.compute(0, f, 100_000);
        busy.release(&mut m, 0, f);
        busy.acquire(&mut m, 1, f);
        busy.release(&mut m, 1, f);
        let rows = lock_report(&m, &[&quiet, &busy]);
        assert_eq!(rows[0].name, "busy");
        assert!(rows[0].wait_seconds >= rows[1].wait_seconds);
        assert!(rows[0].functions.contains(&"fn_a".to_string()));
    }

    #[test]
    fn lock_word_traffic_causes_invalidations() {
        let mut m = Machine::new(MachineConfig::small_test());
        let f = m.fn_id("locker");
        let mut l = KLock::new("bouncing", 0x9000);
        // Ping-pong the lock between two cores; the lock word must bounce.
        for i in 0..10 {
            let core = i % 2;
            l.acquire(&mut m, core, f);
            l.release(&mut m, core, f);
        }
        assert!(
            m.hierarchy
                .stats
                .miss_kind(sim_cache::MissKind::Invalidation)
                > 0,
            "lock ping-pong should cause invalidation misses"
        );
    }
}
