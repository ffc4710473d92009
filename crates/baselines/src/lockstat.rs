//! A lock-stat style report: per-lock wait time, hold time and acquiring functions
//! (Tables 6.2 and 6.6).
//!
//! Lock-stat sees contended locks, which implies cross-CPU sharing of the data the lock
//! protects — but as the thesis discusses (§6.1.2), it often cannot point at the code
//! that *decided* to share the data, and it says nothing once locks are removed.

use serde::{Deserialize, Serialize};
use sim_kernel::{KernelState, LockReportRow};
use sim_machine::Machine;
use std::collections::HashMap;

/// A lock-stat report aggregated by lock name (the kernel reports one row per lock
/// class, e.g. a single "Qdisc lock" row covering all per-queue instances).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LockstatReport {
    /// Rows sorted by total wait time, longest first, equal waits by lock name.
    pub rows: Vec<LockReportRow>,
}

impl LockstatReport {
    /// Collects lock statistics from every instrumented lock in the kernel.
    pub fn collect(machine: &Machine, kernel: &KernelState) -> Self {
        let rows = sim_kernel::lock_report(machine, &kernel.all_locks());
        // Aggregate by name.
        let mut by_name: HashMap<String, LockReportRow> = HashMap::new();
        for r in rows {
            match by_name.get_mut(&r.name) {
                None => {
                    by_name.insert(r.name.clone(), r);
                }
                Some(agg) => {
                    agg.wait_seconds += r.wait_seconds;
                    agg.overhead_percent += r.overhead_percent;
                    agg.acquisitions += r.acquisitions;
                    agg.contentions += r.contentions;
                    for f in r.functions {
                        if !agg.functions.contains(&f) {
                            agg.functions.push(f);
                        }
                    }
                }
            }
        }
        let mut rows: Vec<LockReportRow> = by_name.into_values().collect();
        rows.sort_by(sim_kernel::by_wait_then_name);
        LockstatReport { rows }
    }

    /// The row for a named lock, if it saw any acquisitions.
    pub fn row(&self, name: &str) -> Option<&LockReportRow> {
        self.rows
            .iter()
            .find(|r| r.name == name && r.acquisitions > 0)
    }

    /// Renders the report as a text table.
    pub fn render(&self, top: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(
            out,
            "{:<18} {:>12} {:>10} {:>12} {:>12}  functions",
            "Lock name", "Wait (s)", "Overhead", "Acquisitions", "Contentions"
        )
        .unwrap();
        writeln!(out, "{}", "-".repeat(110)).unwrap();
        for r in self.rows.iter().take(top) {
            writeln!(
                out,
                "{:<18} {:>12.4} {:>9.2}% {:>12} {:>12}  {}",
                r.name,
                r.wait_seconds,
                r.overhead_percent,
                r.acquisitions,
                r.contentions,
                r.functions
                    .iter()
                    .take(4)
                    .cloned()
                    .collect::<Vec<_>>()
                    .join(", ")
            )
            .unwrap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_kernel::{KernelConfig, TxQueuePolicy};
    use sim_machine::MachineConfig;

    #[test]
    fn collects_and_aggregates_by_name() {
        let mut m = Machine::new(MachineConfig::with_cores(4));
        let mut k = KernelState::new(
            &mut m,
            KernelConfig {
                cores: 4,
                tx_policy: TxQueuePolicy::HashTxQueue,
                workers_per_core: 1,
                ..Default::default()
            },
        );
        // Drive some transmit traffic through the shared qdisc locks.
        for i in 0..80 {
            let core = i % 4;
            let skb = k.udp_sendmsg(&mut m, core, core, 1000);
            k.dev_queue_xmit(&mut m, core, skb);
        }
        for core in 0..4 {
            k.qdisc_run(&mut m, core);
            k.ixgbe_clean_tx_irq(&mut m, core);
        }
        let report = LockstatReport::collect(&m, &k);
        let qdisc = report.row("Qdisc lock").expect("qdisc lock used");
        assert!(qdisc.acquisitions >= 160, "enqueue + dequeue acquisitions");
        assert!(qdisc.functions.contains(&"dev_queue_xmit".to_string()));
        assert!(qdisc.functions.contains(&"__qdisc_run".to_string()));
        // Exactly one aggregated row per lock name.
        let qdisc_rows = report
            .rows
            .iter()
            .filter(|r| r.name == "Qdisc lock")
            .count();
        assert_eq!(qdisc_rows, 1);
        let text = report.render(10);
        assert!(text.contains("Qdisc lock"));
    }

    #[test]
    fn unused_locks_not_reported_as_rows_with_activity() {
        let mut m = Machine::new(MachineConfig::with_cores(2));
        let k = KernelState::new(
            &mut m,
            KernelConfig {
                cores: 2,
                workers_per_core: 1,
                ..Default::default()
            },
        );
        let report = LockstatReport::collect(&m, &k);
        assert!(
            report.row("futex lock").is_none(),
            "futex lock never acquired"
        );
    }
}
