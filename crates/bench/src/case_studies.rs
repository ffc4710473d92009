//! The two case studies of Chapter 6 and their comparison tables:
//!
//! * §6.1 memcached / true sharing — Table 6.1 (DProf data profile), Figure 6-1 (skbuff
//!   data flow), Table 6.2 (lock-stat), Table 6.3 (OProfile), and the 57 % local-queue
//!   fix.
//! * §6.2 Apache / working set — Tables 6.4 and 6.5 (peak vs drop-off data profiles),
//!   Table 6.6 (lock-stat), and the 16 % admission-control fix.

use crate::scale::Scale;
use baselines::{LockstatReport, OprofileReport};
use dprof_core::{report, Dprof, DprofConfig, DprofProfile, HistoryConfig};
use serde::{Deserialize, Serialize};
use sim_kernel::{KernelState, TxQueuePolicy};
use sim_machine::Machine;
use workloads::{
    measure_throughput, throughput_change_percent, Apache, ApacheConfig, Memcached,
    MemcachedConfig, ThroughputResult, Workload,
};

/// Builds the DProf configuration used by the case studies.
fn dprof_config(scale: &Scale) -> DprofConfig {
    DprofConfig {
        sampling: sim_machine::SamplingPolicy::fixed(scale.ibs_interval_ops),
        sample_rounds: scale.sample_rounds,
        history_types: scale.history_types,
        history: HistoryConfig {
            history_sets: scale.history_sets,
            ..Default::default()
        },
    }
}

/// Everything produced by profiling one memcached run.
pub struct MemcachedStudy {
    /// The DProf profile (data profile, working set, miss classes, data flows).
    pub profile: DprofProfile,
    /// The OProfile baseline report over the same run.
    pub oprofile: OprofileReport,
    /// The lock-stat baseline report over the same run.
    pub lockstat: LockstatReport,
    /// The machine, kept for symbol resolution when rendering.
    pub machine: Machine,
    /// The kernel, kept for type information.
    pub kernel: KernelState,
}

/// Profiles the memcached workload (with the buggy hash queue selection) using DProf and
/// both baselines.  This single run backs Table 6.1, Figure 6-1, Table 6.2 and
/// Table 6.3.
pub fn profile_memcached(scale: &Scale) -> MemcachedStudy {
    let cfg = MemcachedConfig {
        cores: scale.cores,
        tx_policy: TxQueuePolicy::HashTxQueue,
        ..Default::default()
    };
    let (mut machine, mut kernel, mut workload) = Memcached::setup(cfg);
    // Warm up to steady state.
    for _ in 0..scale.warmup_rounds {
        workload.step(&mut machine, &mut kernel);
    }
    let profile =
        Dprof::new(dprof_config(scale)).run(&mut machine, &mut kernel, |m, k| workload.step(m, k));
    let oprofile = OprofileReport::collect(&machine);
    let lockstat = LockstatReport::collect(&machine, &kernel);
    MemcachedStudy {
        profile,
        oprofile,
        lockstat,
        machine,
        kernel,
    }
}

impl MemcachedStudy {
    /// Renders Table 6.1: the working-set + data-profile view for memcached.
    pub fn render_table_6_1(&self) -> String {
        format!(
            "Table 6.1: working set and data profile views for the top data types in memcached\n\n{}",
            report::render_data_profile(&self.profile.data_profile, 8)
        )
    }

    /// Renders Figure 6-1: the skbuff data-flow view (core-crossing summary + DOT).
    pub fn render_figure_6_1(&self) -> String {
        let skbuff = self.kernel.kt.skbuff;
        match self.profile.data_flows.get(&skbuff) {
            None => "Figure 6-1: no skbuff data flow collected".to_string(),
            Some(graph) => {
                let mut out = String::from(
                    "Figure 6-1: partial data flow view for skbuff objects in memcached\n",
                );
                for e in graph.cpu_crossing_edges().iter().take(5) {
                    out.push_str(&format!(
                        "  {} -> {}  [CORE TRANSITION, x{}]\n",
                        e.from, e.to, e.count
                    ));
                }
                out.push('\n');
                out.push_str(&report::render_dot(graph, 100.0));
                out
            }
        }
    }

    /// Renders Table 6.2: lock-stat for the memcached run.
    pub fn render_table_6_2(&self) -> String {
        format!(
            "Table 6.2: lock statistics for memcached\n\n{}",
            self.lockstat.render(8)
        )
    }

    /// Renders Table 6.3: OProfile's top functions for the memcached run.
    pub fn render_table_6_3(&self) -> String {
        format!(
            "Table 6.3: top functions by percent of clock cycles and L2 misses (OProfile)\n\n{}",
            self.oprofile.render(29)
        )
    }
}

/// The before/after throughput comparison for a fix.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FixResult {
    /// Throughput with the bug in place.
    pub baseline: ThroughputResult,
    /// Throughput with the fix applied.
    pub fixed: ThroughputResult,
    /// Improvement in percent.
    pub improvement_percent: f64,
}

impl FixResult {
    fn new(baseline: ThroughputResult, fixed: ThroughputResult) -> Self {
        FixResult {
            baseline,
            fixed,
            improvement_percent: throughput_change_percent(&baseline, &fixed),
        }
    }

    /// Renders the comparison.
    pub fn render(&self, what: &str, paper_claim: &str) -> String {
        format!(
            "{what}\n  baseline : {:>12.0} req/s ({:.0} cycles/req)\n  fixed    : {:>12.0} req/s ({:.0} cycles/req)\n  improvement: {:+.1}%   (paper reports {paper_claim})\n",
            self.baseline.throughput_rps,
            self.baseline.avg_request_cycles,
            self.fixed.throughput_rps,
            self.fixed.avg_request_cycles,
            self.improvement_percent,
        )
    }
}

/// §6.1 fix: hash-based vs local transmit-queue selection for memcached (the paper
/// measures a 57 % throughput improvement).
pub fn memcached_queue_fix(scale: &Scale) -> FixResult {
    let run = |policy| {
        let cfg = MemcachedConfig {
            cores: scale.cores,
            tx_policy: policy,
            ..Default::default()
        };
        let (mut m, mut k, mut w) = Memcached::setup(cfg);
        measure_throughput(
            &mut m,
            &mut k,
            &mut w,
            scale.warmup_rounds,
            scale.measured_rounds,
        )
    };
    FixResult::new(
        run(TxQueuePolicy::HashTxQueue),
        run(TxQueuePolicy::LocalQueue),
    )
}

/// Everything produced by profiling one Apache run.
pub struct ApacheStudy {
    /// The DProf profile.
    pub profile: DprofProfile,
    /// The lock-stat baseline report.
    pub lockstat: LockstatReport,
    /// Average accept-queue depth at the end of the run.
    pub avg_backlog: f64,
    /// Average memory latency over the measured window, in cycles.
    pub avg_latency: f64,
    /// The kernel (for type lookups).
    pub kernel: KernelState,
}

/// Profiles an Apache configuration with DProf and lock-stat (Tables 6.4 / 6.5 / 6.6).
pub fn profile_apache(scale: &Scale, config: ApacheConfig) -> ApacheStudy {
    let mut config = config;
    config.cores = scale.cores;
    let (mut machine, mut kernel, mut workload) = Apache::setup(config);
    for _ in 0..scale.warmup_rounds {
        workload.step(&mut machine, &mut kernel);
    }
    let profile =
        Dprof::new(dprof_config(scale)).run(&mut machine, &mut kernel, |m, k| workload.step(m, k));
    let lockstat = LockstatReport::collect(&machine, &kernel);
    let avg_backlog = workload.avg_backlog(&kernel);
    let avg_latency = machine.hierarchy.stats.avg_latency();
    ApacheStudy {
        profile,
        lockstat,
        avg_backlog,
        avg_latency,
        kernel,
    }
}

impl ApacheStudy {
    /// Renders the Apache data-profile table (Table 6.4 at peak, Table 6.5 at drop-off).
    pub fn render_data_profile(&self, table: &str, situation: &str) -> String {
        format!(
            "{table}: working set and data profile views for the top data types in Apache at {situation}\n(avg accept backlog {:.1} connections, avg memory latency {:.1} cycles)\n\n{}",
            self.avg_backlog,
            self.avg_latency,
            report::render_data_profile(&self.profile.data_profile, 8)
        )
    }

    /// Renders Table 6.6: lock-stat for the Apache run.
    pub fn render_table_6_6(&self) -> String {
        format!(
            "Table 6.6: lock statistics for Apache\n\n{}",
            self.lockstat.render(8)
        )
    }

    /// The working-set bytes DProf attributes to `tcp-sock` — the quantity that explodes
    /// between Table 6.4 and Table 6.5.
    pub fn tcp_sock_working_set(&self) -> f64 {
        self.profile
            .profile_row("tcp-sock")
            .map(|r| r.working_set_bytes)
            .unwrap_or(0.0)
    }
}

/// §6.2 fix: accept-queue admission control under overload (the paper measures a 16 %
/// throughput improvement at the drop-off request rate).
pub fn apache_admission_fix(scale: &Scale) -> FixResult {
    let run = |config: ApacheConfig| {
        let mut config = config;
        config.cores = scale.cores;
        let (mut m, mut k, mut w) = Apache::setup(config);
        measure_throughput(
            &mut m,
            &mut k,
            &mut w,
            scale.warmup_rounds,
            scale.measured_rounds,
        )
    };
    FixResult::new(
        run(ApacheConfig::drop_off()),
        run(ApacheConfig::admission_control()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memcached_study_reproduces_the_papers_shape() {
        let study = profile_memcached(&Scale::quick());
        let profile = &study.profile;
        // The top of the data profile must be packet payload / packet bookkeeping /
        // slab machinery, and they must bounce (Table 6.1's qualitative content).
        assert!(!profile.data_profile.is_empty());
        let payload = profile
            .profile_row("size-1024")
            .expect("size-1024 profiled");
        assert!(
            payload.bounce,
            "packet payload must bounce under the hash policy"
        );
        assert!(
            profile.rank_of("size-1024").unwrap() < 3,
            "size-1024 should be near the top of the data profile"
        );
        let skbuff = profile.profile_row("skbuff").expect("skbuff profiled");
        assert!(skbuff.bounce);
        // Figure 6-1: the skbuff data flow must show a core transition on the transmit
        // path (enqueue on one core, dequeue/transmit on another).
        let skb_ty = study.kernel.kt.skbuff;
        if let Some(graph) = profile.data_flows.get(&skb_ty) {
            assert!(
                !graph.cpu_crossing_edges().is_empty(),
                "skbuff data flow must contain a core-crossing edge"
            );
        }
        // Table 6.2: the Qdisc lock is among the contended locks.
        assert!(study.lockstat.row("Qdisc lock").is_some());
        // Table 6.3: OProfile sees many warm functions rather than one culprit.
        assert!(study.oprofile.functions_above(1.0) >= 10);
    }

    #[test]
    fn memcached_fix_gives_large_improvement() {
        let fix = memcached_queue_fix(&Scale::quick());
        assert!(
            fix.improvement_percent > 10.0,
            "local-queue selection should improve throughput substantially, got {:.1}%",
            fix.improvement_percent
        );
    }

    #[test]
    fn apache_studies_show_working_set_growth_and_fix() {
        let scale = Scale::quick();
        let peak = profile_apache(&scale, ApacheConfig::peak());
        let drop = profile_apache(&scale, ApacheConfig::drop_off());
        // Table 6.4 vs 6.5: the tcp_sock working set grows by a large factor at
        // drop-off, and the backlog is much deeper.
        assert!(drop.avg_backlog > peak.avg_backlog * 4.0);
        assert!(
            drop.tcp_sock_working_set() > peak.tcp_sock_working_set() * 2.0,
            "tcp-sock working set should explode at drop-off ({} vs {})",
            drop.tcp_sock_working_set(),
            peak.tcp_sock_working_set()
        );
        // Table 6.6: the futex lock shows up for Apache.
        assert!(drop.lockstat.row("futex lock").is_some());
        // The fix recovers throughput.
        let fix = apache_admission_fix(&scale);
        assert!(
            fix.improvement_percent > 0.0,
            "admission control should improve overloaded throughput, got {:.1}%",
            fix.improvement_percent
        );
    }
}
