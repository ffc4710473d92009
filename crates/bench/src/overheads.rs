//! Profiling-overhead and coverage experiments:
//!
//! * Figure 6-2 — throughput reduction vs. IBS sampling rate for both workloads.
//! * Tables 6.7 / 6.8 / 6.9 — object-access-history collection time, rates, and the
//!   interrupt / memory / communication overhead breakdown.
//! * Table 6.10 — the same collection using pairwise sampling.
//! * Figure 6-3 — percent of unique execution paths captured vs. history sets collected.
//! * Table 4.1 — an example path trace for a packet on the transmit path.

use crate::case_studies::run_session;
use crate::scale::Scale;
use dprof_core::{
    collect_histories, count_unique_paths, report, CollectionMode, CollectionStats, HistoryConfig,
};
use dprof_trace::SessionParams;
use sim_kernel::{KernelState, TxQueuePolicy, TypeId};
use sim_machine::{IbsConfig, Machine};
use workloads::{Apache, ApacheConfig, Memcached, MemcachedConfig, Workload};

/// One point of Figure 6-2.
#[derive(Debug, Clone, Copy)]
pub struct OverheadPoint {
    /// IBS samples per second per core (the figure's x axis).
    pub samples_per_second_per_core: f64,
    /// Percent throughput reduction relative to the unprofiled run (the y axis).
    pub throughput_reduction_percent: f64,
}

/// The Figure 6-2 sweep for one workload.
#[derive(Debug, Clone)]
pub struct OverheadSweep {
    /// Workload name.
    pub workload: String,
    /// Measured points, by increasing sampling rate.
    pub points: Vec<OverheadPoint>,
}

impl OverheadSweep {
    /// Renders the series as a text table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(
            out,
            "{} (samples/s/core -> % throughput reduction)",
            self.workload
        )
        .unwrap();
        for p in &self.points {
            writeln!(
                out,
                "  {:>10.0}  ->  {:>6.2}%",
                p.samples_per_second_per_core, p.throughput_reduction_percent
            )
            .unwrap();
        }
        out
    }
}

/// Workload selector for the overhead experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WhichWorkload {
    /// The memcached UDP workload.
    Memcached,
    /// The Apache TCP workload.
    Apache,
}

/// A set-up machine running `which` at `scale`: memcached with the hash transmit-queue
/// policy, Apache at peak load.
pub(crate) fn setup_workload(
    which: WhichWorkload,
    scale: &Scale,
) -> (Machine, KernelState, Box<dyn Workload>) {
    match which {
        WhichWorkload::Memcached => {
            let cfg = MemcachedConfig {
                cores: scale.cores,
                tx_policy: TxQueuePolicy::HashTxQueue,
                ..Default::default()
            };
            let (m, k, w) = Memcached::setup(cfg);
            (m, k, Box::new(w))
        }
        WhichWorkload::Apache => {
            let mut cfg = ApacheConfig::peak();
            cfg.cores = scale.cores;
            let (m, k, w) = Apache::setup(cfg);
            (m, k, Box::new(w))
        }
    }
}

/// Figure 6-2: sweeps the IBS sampling rate and reports the throughput reduction.
///
/// `rates_per_second_per_core` lists the x-axis points; the paper sweeps 0–18 k
/// samples/s/core.
pub fn ibs_overhead_sweep(
    which: WhichWorkload,
    scale: &Scale,
    rates_per_second_per_core: &[f64],
) -> OverheadSweep {
    // Baseline: no sampling.
    let (mut m0, mut k0, mut w0) = setup_workload(which, scale);
    let baseline = scale.measure_throughput(&mut m0, &mut k0, w0.as_mut());

    // To convert a samples/s/core target into an IBS interval we need the workload's
    // memory-operation rate, which the baseline run gives us.
    let total_accesses = m0.hierarchy.stats.accesses as f64;
    let ops_per_second_per_core =
        total_accesses / m0.elapsed_seconds().max(1e-12) / scale.cores as f64;

    let mut points = Vec::new();
    for &rate in rates_per_second_per_core {
        let reduction = if rate <= 0.0 {
            0.0
        } else {
            let interval = (ops_per_second_per_core / rate).max(1.0) as u64;
            let (mut m, mut k, mut w) = setup_workload(which, scale);
            m.configure_ibs(IbsConfig::with_interval(interval));
            let r = scale.measure_throughput(&mut m, &mut k, w.as_mut());
            100.0 * (baseline.throughput_rps - r.throughput_rps) / baseline.throughput_rps
        };
        points.push(OverheadPoint {
            samples_per_second_per_core: rate,
            throughput_reduction_percent: reduction,
        });
    }
    OverheadSweep {
        workload: match which {
            WhichWorkload::Memcached => "memcached".into(),
            WhichWorkload::Apache => "apache".into(),
        },
        points,
    }
}

/// One row of Tables 6.7–6.10: history collection cost for one data type of one
/// workload.
#[derive(Debug, Clone)]
pub struct HistoryOverheadRow {
    /// Workload name.
    pub workload: String,
    /// Data-type name.
    pub type_name: String,
    /// Object size in bytes.
    pub size: u64,
    /// Histories collected.
    pub histories: u64,
    /// History sets completed.
    pub sets: u64,
    /// Collection time in simulated seconds.
    pub collection_seconds: f64,
    /// Profiling overhead as a percent of application time.
    pub overhead_percent: f64,
    /// Average elements per history.
    pub elements_per_history: f64,
    /// Histories collected per second.
    pub histories_per_second: f64,
    /// Elements recorded per second.
    pub elements_per_second: f64,
    /// Overhead breakdown: percent of overhead spent in interrupts.
    pub pct_interrupt: f64,
    /// Percent spent in memory-subsystem reservation.
    pub pct_memory: f64,
    /// Percent spent in cross-core debug-register setup.
    pub pct_communication: f64,
}

impl HistoryOverheadRow {
    fn from_stats(
        workload: &str,
        type_name: &str,
        size: u64,
        stats: &CollectionStats,
        cycles_per_second: u64,
    ) -> Self {
        let (i, m, c) = stats.overhead_breakdown();
        HistoryOverheadRow {
            workload: workload.to_string(),
            type_name: type_name.to_string(),
            size,
            histories: stats.histories,
            sets: stats.sets_completed,
            collection_seconds: stats.collection_seconds(cycles_per_second),
            overhead_percent: 100.0 * stats.overhead_fraction(),
            elements_per_history: stats.elements_per_history(),
            histories_per_second: stats.histories_per_second(cycles_per_second),
            elements_per_second: stats.elements_per_second(cycles_per_second),
            pct_interrupt: 100.0 * i,
            pct_memory: 100.0 * m,
            pct_communication: 100.0 * c,
        }
    }
}

/// Renders rows in the format of Tables 6.7 / 6.8 / 6.9 / 6.10.
pub fn render_history_rows(title: &str, rows: &[HistoryOverheadRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(out, "{title}").unwrap();
    writeln!(
        out,
        "{:<10} {:<16} {:>6} {:>10} {:>6} {:>10} {:>9} {:>8} {:>9} {:>9} | {:>5} {:>5} {:>5}",
        "Benchmark",
        "Data Type",
        "Size",
        "Histories",
        "Sets",
        "Time (s)",
        "Ovhd (%)",
        "Elem/His",
        "His/s",
        "Elem/s",
        "Int%",
        "Mem%",
        "Com%"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(140)).unwrap();
    for r in rows {
        writeln!(
            out,
            "{:<10} {:<16} {:>6} {:>10} {:>6} {:>10.3} {:>9.2} {:>8.1} {:>9.0} {:>9.0} | {:>5.0} {:>5.0} {:>5.0}",
            r.workload,
            r.type_name,
            r.size,
            r.histories,
            r.sets,
            r.collection_seconds,
            r.overhead_percent,
            r.elements_per_history,
            r.histories_per_second,
            r.elements_per_second,
            r.pct_interrupt,
            r.pct_memory,
            r.pct_communication
        )
        .unwrap();
    }
    out
}

/// The data types Tables 6.7–6.10 profile for each workload.
pub fn paper_history_types(
    which: WhichWorkload,
    kernel: &KernelState,
) -> Vec<(TypeId, &'static str)> {
    match which {
        WhichWorkload::Memcached => vec![
            (kernel.kt.size_1024, "size-1024"),
            (kernel.kt.skbuff, "skbuff"),
        ],
        WhichWorkload::Apache => vec![
            (kernel.kt.size_1024, "size-1024"),
            (kernel.kt.skbuff, "skbuff"),
            (kernel.kt.skbuff_fclone, "skbuff_fclone"),
            (kernel.kt.tcp_sock, "tcp-sock"),
        ],
    }
}

/// Tables 6.7 / 6.8 / 6.9 (single-offset) or 6.10 (pairwise): collects object access
/// histories for the paper's data types and reports the costs.
pub fn history_overhead_rows(
    which: WhichWorkload,
    scale: &Scale,
    mode: CollectionMode,
) -> Vec<HistoryOverheadRow> {
    let (mut machine, mut kernel, mut workload) = setup_workload(which, scale);
    for _ in 0..scale.warmup_rounds {
        workload.step(&mut machine, &mut kernel);
    }
    let freq = machine.config().cycles_per_second;
    let workload_name = match which {
        WhichWorkload::Memcached => "memcached",
        WhichWorkload::Apache => "apache",
    };
    let types = paper_history_types(which, &kernel);
    let mut rows = Vec::new();
    for (ty, name) in types {
        let size = kernel.types.size(ty);
        let cfg = HistoryConfig {
            history_sets: scale.history_sets,
            mode,
            // Pairwise over every offset is quadratic; restrict to the hot members as
            // the thesis describes (§6.4).
            offsets_of_interest: match mode {
                CollectionMode::Pairwise => Some(vec![0, 8, 24, 64.min(size - 8)]),
                CollectionMode::SingleOffset => None,
            },
            ..Default::default()
        };
        machine.watchpoints.reset_overhead();
        let before = machine.max_clock();
        let (_h, mut stats) = collect_histories(&mut machine, &mut kernel, ty, &cfg, |m, k| {
            workload.step(m, k)
        });
        stats.elapsed_cycles = machine.max_clock() - before;
        rows.push(HistoryOverheadRow::from_stats(
            workload_name,
            name,
            size,
            &stats,
            freq,
        ));
    }
    rows
}

/// One series of Figure 6-3: percent of unique paths captured as a function of history
/// sets collected, for one (workload, type) pair.
#[derive(Debug, Clone)]
pub struct PathCoverageSeries {
    /// Workload name.
    pub workload: String,
    /// Data-type name.
    pub type_name: String,
    /// `(history sets collected, percent of unique paths captured)` points.
    pub points: Vec<(usize, f64)>,
    /// Number of unique paths in the reference (largest) profile.
    pub reference_paths: usize,
}

impl PathCoverageSeries {
    /// Renders the series.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(
            out,
            "{} {} ({} unique paths in reference profile)",
            self.workload, self.type_name, self.reference_paths
        )
        .unwrap();
        for (sets, pct) in &self.points {
            writeln!(out, "  {:>4} sets -> {:>6.1}% of unique paths", sets, pct).unwrap();
        }
        out
    }
}

/// Figure 6-3: collects a large reference profile for a type and measures what fraction
/// of its unique execution paths smaller profiles capture.
pub fn path_coverage(
    which: WhichWorkload,
    scale: &Scale,
    type_pick: fn(&KernelState) -> (TypeId, &'static str),
    set_counts: &[usize],
    reference_sets: usize,
) -> PathCoverageSeries {
    let (mut machine, mut kernel, mut workload) = setup_workload(which, scale);
    for _ in 0..scale.warmup_rounds {
        workload.step(&mut machine, &mut kernel);
    }
    let (ty, name) = type_pick(&kernel);
    let collect = |machine: &mut Machine,
                   kernel: &mut KernelState,
                   workload: &mut Box<dyn Workload>,
                   sets: usize| {
        let cfg = HistoryConfig {
            history_sets: sets,
            offsets_of_interest: Some(vec![0, 24]),
            ..Default::default()
        };
        let (h, _) = collect_histories(machine, kernel, ty, &cfg, |m, k| workload.step(m, k));
        h
    };
    let reference = collect(&mut machine, &mut kernel, &mut workload, reference_sets);
    let reference_paths = count_unique_paths(&reference).max(1);

    let mut points = Vec::new();
    for &sets in set_counts {
        let h = collect(&mut machine, &mut kernel, &mut workload, sets);
        let unique = count_unique_paths(&h);
        points.push((sets, 100.0 * unique as f64 / reference_paths as f64));
    }
    PathCoverageSeries {
        workload: match which {
            WhichWorkload::Memcached => "memcached".into(),
            WhichWorkload::Apache => "apache".into(),
        },
        type_name: name.to_string(),
        points,
        reference_paths,
    }
}

/// Table 4.1: an example path trace for a packet payload on the memcached transmit path:
/// the memcached study's session, with histories for its top two types.
pub fn example_path_trace(scale: &Scale) -> String {
    let session = SessionParams {
        history_types: 2,
        ..scale.session("memcached", MemcachedConfig::default().seed)
    };
    let (mut machine, mut kernel, mut workload) = setup_workload(WhichWorkload::Memcached, scale);
    let profile = run_session(&session, &mut machine, &mut kernel, workload.as_mut());
    let mut out = String::from(
        "Table 4.1: sample path trace for a packet structure on the transmit path\n\n",
    );
    match profile
        .path_traces
        .get(&kernel.kt.skbuff)
        .and_then(|t| t.first())
    {
        Some(trace) => out.push_str(&report::render_path_trace(trace, &machine.symbols)),
        None => out.push_str("(no skbuff path trace collected at this scale)\n"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ibs_overhead_grows_with_sampling_rate() {
        let scale = Scale::quick();
        let sweep = ibs_overhead_sweep(WhichWorkload::Memcached, &scale, &[0.0, 2_000.0, 50_000.0]);
        assert_eq!(sweep.points.len(), 3);
        assert_eq!(sweep.points[0].throughput_reduction_percent, 0.0);
        let low = sweep.points[1].throughput_reduction_percent;
        let high = sweep.points[2].throughput_reduction_percent;
        assert!(
            high > low,
            "heavier sampling must cost more ({high:.2}% vs {low:.2}%)"
        );
        assert!(high > 0.0);
    }

    #[test]
    fn history_overhead_rows_have_sane_breakdown() {
        let mut scale = Scale::quick();
        scale.history_sets = 2;
        scale.warmup_rounds = 5;
        let rows = history_overhead_rows(
            WhichWorkload::Memcached,
            &scale,
            CollectionMode::SingleOffset,
        );
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.histories > 0, "no histories for {}", r.type_name);
            assert!(r.overhead_percent >= 0.0);
            let total = r.pct_interrupt + r.pct_memory + r.pct_communication;
            assert!((total - 100.0).abs() < 1.0, "breakdown sums to {total}");
        }
        let text = render_history_rows("Table 6.7", &rows);
        assert!(text.contains("size-1024"));
    }

    #[test]
    fn path_coverage_increases_with_sets() {
        let mut scale = Scale::quick();
        scale.warmup_rounds = 5;
        let series = path_coverage(
            WhichWorkload::Memcached,
            &scale,
            |k| (k.kt.skbuff, "skbuff"),
            &[1, 6],
            12,
        );
        assert_eq!(series.points.len(), 2);
        assert!(series.reference_paths >= 1);
        assert!(series.points[1].1 >= series.points[0].1);
    }
}
