//! Merging of per-thread [`ThreadRun`]s into one report.
//!
//! The merge algorithm itself lives in `dprof-core::merge` behind the
//! [`MergeSink`] trait, and a run becomes a [`ProfileShard`] through
//! [`ThreadRun::shard`] — the same conversion the `dprof serve` trace upload and
//! loadgen's template shards use.  This module folds a batch of runs through a
//! [`StreamingMerge`].  Ordinals are the thread indices, so the canonical fold order
//! is the run order.

use crate::driver::ThreadRun;
pub use dprof::core::merge::{
    merge_shards, summary_from_merged, MergeSink, MergedReport, ProfileShard, ShardMeta,
    StreamingMerge,
};

/// Merges per-thread profiling runs into one report.  `runs` must be non-empty.
pub fn merge(runs: &[ThreadRun]) -> MergedReport {
    assert!(!runs.is_empty(), "merge requires at least one run");
    let mut sink = StreamingMerge::new();
    for run in runs {
        sink.absorb(run.shard(run.thread as u64));
    }
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_parallel, RunOptions, WorkloadKind};

    fn runs(threads: usize) -> Vec<crate::driver::ThreadRun> {
        let options = RunOptions {
            workload: WorkloadKind::Memcached,
            threads,
            cores: 2,
            warmup_rounds: 5,
            sample_rounds: 40,
            history_types: 2,
            history_sets: 2,
            ..Default::default()
        };
        run_parallel(&options).expect("threads succeed")
    }

    #[test]
    fn a_profile_reports_the_rows_dprof_merges_for_its_run() {
        let run = runs(1).pop().unwrap();
        let merged = merge(std::slice::from_ref(&run));
        let report = run.profile.report();
        assert!(!report.data_profile.is_empty() && !report.data_flows.is_empty());
        assert_eq!(report.data_profile, merged.data_profile);
        assert_eq!(report.miss_classification, merged.miss_classification);
        assert_eq!(report.utilization, merged.utilization);
        assert_eq!(report.working_set, merged.working_set);
        assert_eq!(report.data_flows, merged.data_flows);
    }

    #[test]
    fn merged_shares_stay_percentages() {
        let report = merge(&runs(2));
        assert!(!report.data_profile.is_empty());
        let total_pct: f64 = report.data_profile.iter().map(|r| r.pct_of_l1_misses).sum();
        assert!(
            total_pct > 50.0 && total_pct <= 100.5,
            "merged miss shares should sum to ~100%, got {total_pct:.1}"
        );
        // Sorted descending.
        for pair in report.data_profile.windows(2) {
            assert!(pair[0].pct_of_l1_misses >= pair[1].pct_of_l1_misses);
        }
    }

    #[test]
    fn merged_totals_are_sums_of_threads() {
        let rs = runs(2);
        let report = merge(&rs);
        assert_eq!(
            report.totals.requests,
            rs.iter().map(|r| r.requests).sum::<u64>()
        );
        assert_eq!(report.threads.len(), 2);
        let samples_total: u64 = report.threads.iter().map(|t| t.samples).sum();
        assert_eq!(
            samples_total,
            rs.iter()
                .map(|r| r.profile.samples.len() as u64)
                .sum::<u64>()
        );
    }

    #[test]
    fn miss_fractions_are_convex_and_flows_merge_by_name() {
        let report = merge(&runs(2));
        for row in &report.miss_classification {
            let sum = row.invalidation + row.conflict + row.capacity;
            assert!(
                (0.0..=1.01).contains(&sum),
                "fractions of {} sum to {sum}",
                row.name
            );
            assert!(["invalidation", "conflict", "capacity"].contains(&row.dominant()));
        }
        for flow in &report.data_flows {
            // A graph may be empty when no traces were built for the type, but edges
            // always connect known nodes.
            assert!(!flow.type_name.is_empty());
            assert!(flow.edges.is_empty() || !flow.nodes.is_empty());
            let crossing_sum: u64 = flow
                .edges
                .iter()
                .filter(|e| e.cpu_change)
                .map(|e| e.count)
                .sum();
            assert_eq!(crossing_sum, flow.core_crossings());
        }
    }

    #[test]
    fn sink_order_matches_one_shot_merge_exactly() {
        // The shared-implementation guarantee on real data: absorbing shards in
        // reverse arrival order yields the same report as the one-shot path.
        let rs = runs(3);
        let one_shot = merge(&rs);
        let mut sink = StreamingMerge::new();
        for run in rs.iter().rev() {
            sink.absorb(run.shard(run.thread as u64));
        }
        assert_eq!(sink.finish(), one_shot);
    }
}
