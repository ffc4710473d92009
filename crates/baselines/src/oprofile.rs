//! An OProfile-style code profiler.
//!
//! OProfile counts hardware events (clock cycles, L2 misses, ...) and attributes them to
//! instruction pointers, producing a ranked list of functions (Table 6.3).  It cannot
//! aggregate by data type, which is exactly the comparison the thesis draws: the miss
//! cost of a widely shared object is smeared thinly over dozens of functions.

use serde::{Deserialize, Serialize};
use sim_machine::Machine;

/// One row of an OProfile report: a function and its share of each counted event.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OprofileRow {
    /// Function name.
    pub function: String,
    /// Percent of all sampled clock cycles spent in this function.
    pub pct_clock: f64,
    /// Percent of all L2 misses (misses of both private levels) in this function.
    pub pct_l2_misses: f64,
    /// Raw cycle count.
    pub cycles: u64,
    /// Raw L2-miss count.
    pub l2_misses: u64,
}

/// A complete OProfile report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OprofileReport {
    /// Rows sorted by percent of clock cycles, largest first.
    pub rows: Vec<OprofileRow>,
}

impl OprofileReport {
    /// Builds the report from the machine's per-function counters.
    pub fn collect(machine: &Machine) -> Self {
        let counters = machine.function_counters();
        let total_cycles: u64 = counters.values().map(|c| c.cycles).sum();
        let total_l2: u64 = counters.values().map(|c| c.l2_misses).sum();
        let mut rows: Vec<OprofileRow> = counters
            .iter()
            .map(|(id, c)| OprofileRow {
                function: machine.symbols.name(*id).to_string(),
                pct_clock: if total_cycles == 0 {
                    0.0
                } else {
                    100.0 * c.cycles as f64 / total_cycles as f64
                },
                pct_l2_misses: if total_l2 == 0 {
                    0.0
                } else {
                    100.0 * c.l2_misses as f64 / total_l2 as f64
                },
                cycles: c.cycles,
                l2_misses: c.l2_misses,
            })
            .collect();
        // The counters come from a `HashMap`: equal cycle counts are ordered by name.
        rows.sort_by(|a, b| (b.cycles.cmp(&a.cycles)).then_with(|| a.function.cmp(&b.function)));
        OprofileReport { rows }
    }

    /// The rank of a function (0 = hottest), if it appears at all.
    pub fn rank_of(&self, function: &str) -> Option<usize> {
        self.rows.iter().position(|r| r.function == function)
    }

    /// Number of functions with at least `threshold` percent of the clock samples —
    /// the "29 functions above 1 %" observation of §6.1.3.
    pub fn functions_above(&self, threshold: f64) -> usize {
        self.rows
            .iter()
            .filter(|r| r.pct_clock >= threshold)
            .count()
    }

    /// Renders the report as a text table.
    pub fn render(&self, top: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(out, "{:>8} {:>12}  function", "% CLK", "% L2 miss").unwrap();
        writeln!(out, "{}", "-".repeat(60)).unwrap();
        for r in self.rows.iter().take(top) {
            writeln!(
                out,
                "{:>7.1} {:>11.1}  {}",
                r.pct_clock, r.pct_l2_misses, r.function
            )
            .unwrap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_machine::MachineConfig;

    #[test]
    fn ranks_functions_by_cycles() {
        let mut m = Machine::new(MachineConfig::small_test());
        let hot = m.fn_id("hot_function");
        let cold = m.fn_id("cold_function");
        m.compute(0, hot, 10_000);
        m.compute(0, cold, 100);
        // Generate some misses attributed to the hot function.
        for i in 0..64 {
            m.read(0, hot, 0x100_0000 + i * 4096, 8);
        }
        let report = OprofileReport::collect(&m);
        assert_eq!(report.rank_of("hot_function"), Some(0));
        assert!(report.rank_of("cold_function").unwrap() > 0);
        let hot_row = &report.rows[0];
        assert!(hot_row.pct_clock > 90.0);
        assert!(hot_row.l2_misses > 0);
        let total: f64 = report.rows.iter().map(|r| r.pct_clock).sum();
        assert!((total - 100.0).abs() < 1e-6);
    }

    #[test]
    fn functions_above_threshold_counts() {
        let mut m = Machine::new(MachineConfig::small_test());
        let a = m.fn_id("a");
        let b = m.fn_id("b");
        m.compute(0, a, 990);
        m.compute(0, b, 10);
        let report = OprofileReport::collect(&m);
        assert_eq!(report.functions_above(50.0), 1);
        assert_eq!(report.functions_above(0.5), 2);
    }

    #[test]
    fn render_contains_function_names() {
        let mut m = Machine::new(MachineConfig::small_test());
        let f = m.fn_id("dev_queue_xmit");
        m.compute(0, f, 100);
        let text = OprofileReport::collect(&m).render(10);
        assert!(text.contains("dev_queue_xmit"));
        assert!(text.contains("% CLK"));
    }

    #[test]
    fn empty_machine_gives_empty_report() {
        let m = Machine::new(MachineConfig::small_test());
        let report = OprofileReport::collect(&m);
        assert!(report.rows.is_empty());
        assert_eq!(report.functions_above(1.0), 0);
    }
}
