//! Experiment scaling: every experiment can run at paper scale (16 cores, long runs) or
//! at a reduced "quick" scale for CI and unit tests.  A profiled experiment runs the
//! `dprof` session [`Scale::session`] describes.

use dprof_trace::SessionParams;
use sim_kernel::KernelState;
use sim_machine::{Machine, SamplingPolicy};
use workloads::{ThroughputResult, Workload};

/// Knobs shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Number of simulated cores (the paper machine has 16).
    pub cores: usize,
    /// Workload rounds used to warm caches before measuring.
    pub warmup_rounds: usize,
    /// Workload rounds measured for throughput numbers.
    pub measured_rounds: usize,
    /// Workload rounds run during DProf's access-sampling phase.
    pub sample_rounds: usize,
    /// IBS sampling interval (memory operations between samples).
    pub ibs_interval_ops: u64,
    /// Object-access-history sets collected per type.
    pub history_sets: usize,
    /// Number of top types DProf collects histories for.
    pub history_types: usize,
}

impl Scale {
    /// Paper-scale settings: 16 cores and run lengths that give stable statistics.
    pub fn paper() -> Self {
        Scale {
            cores: 16,
            warmup_rounds: 60,
            measured_rounds: 250,
            sample_rounds: 250,
            ibs_interval_ops: 120,
            history_sets: 24,
            history_types: 4,
        }
    }

    /// Reduced settings for fast runs (CI, unit tests).
    pub fn quick() -> Self {
        Scale {
            cores: 4,
            warmup_rounds: 15,
            measured_rounds: 60,
            sample_rounds: 60,
            ibs_interval_ops: 60,
            history_sets: 4,
            history_types: 3,
        }
    }

    /// The one-thread `dprof` session of `workload` at this scale, seeded `seed` (the
    /// workload's and the history collector's seed alike): what `dprof --workload
    /// <workload> --threads 1 --cores C --warmup W --rounds R --ibs-interval I
    /// --history-types T --history-sets S --seed <seed>` runs.
    pub fn session(&self, workload: &str, seed: u64) -> SessionParams {
        SessionParams {
            workload: workload.to_string(),
            threads: 1,
            cores: self.cores,
            warmup_rounds: self.warmup_rounds,
            sample_rounds: self.sample_rounds,
            sampling: SamplingPolicy::fixed(self.ibs_interval_ops),
            history_types: self.history_types,
            history_sets: self.history_sets,
            base_seed: seed,
        }
    }

    /// The throughput of a set-up workload over this scale's warm-up and measured rounds.
    pub fn measure_throughput(
        &self,
        machine: &mut Machine,
        kernel: &mut KernelState,
        workload: &mut dyn Workload,
    ) -> ThroughputResult {
        let (warmup, measured) = (self.warmup_rounds, self.measured_rounds);
        workloads::measure_throughput(machine, kernel, workload, warmup, measured)
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_testbed_core_count() {
        assert_eq!(Scale::paper().cores, 16);
        assert_eq!(Scale::default().cores, 16);
    }

    #[test]
    fn quick_scale_is_smaller_everywhere() {
        let p = Scale::paper();
        let q = Scale::quick();
        assert!(q.cores < p.cores);
        assert!(q.measured_rounds < p.measured_rounds);
        assert!(q.history_sets < p.history_sets);
    }
}
