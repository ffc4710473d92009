//! The DProf profiler driver: orchestrates the two collection phases (access samples via
//! IBS, object access histories via debug registers), resolves and aggregates the raw
//! data, and builds the four views.

use crate::history::{collect_histories, CollectionStats, HistoryConfig, ObjectAccessHistory};
use crate::merge::{
    merge_shards, MergedReport, ProfileShard, ShardFlow, ShardMeta, ShardMissRow, ShardUtilization,
};
use crate::path_trace::{build_path_traces, PathTrace};
use crate::sample::{resolve_samples, AccessSample};
use crate::views::{
    build_data_flow, build_data_profile, build_utilization, build_working_set, classify_misses,
    DataProfileRow, WorkingSetView,
};
use serde::{Deserialize, Serialize};
use sim_cache::HitLevel;
use sim_kernel::{KernelState, TypeId};
use sim_machine::{IbsConfig, Machine, SamplingPolicy};
use std::collections::HashMap;

/// Configuration of a DProf profiling run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DprofConfig {
    /// IBS sampling policy: `fixed:<interval>` samples every N memory operations on
    /// average (the evaluation sweeps the equivalent samples/s/core in Figure 6-2);
    /// `adaptive:<budget>` spends at most `budget` samples over the whole phase,
    /// steered by the exponential-decay controller (see `docs/sampling.md`).
    pub sampling: SamplingPolicy,
    /// Workload rounds to run during the access-sampling phase.
    pub sample_rounds: usize,
    /// Number of top miss-heavy types to collect object access histories for.
    pub history_types: usize,
    /// Object-access-history collection settings.
    pub history: HistoryConfig,
}

impl Default for DprofConfig {
    fn default() -> Self {
        DprofConfig {
            sampling: SamplingPolicy::Fixed { interval_ops: 200 },
            sample_rounds: 300,
            history_types: 4,
            history: HistoryConfig::default(),
        }
    }
}

/// Everything a DProf profiling run produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DprofProfile {
    /// The resolved access samples.
    pub samples: Vec<AccessSample>,
    /// The data-profile view (types ranked by miss share).
    pub data_profile: Vec<DataProfileRow>,
    /// The working-set view.
    pub working_set: WorkingSetView,
    /// The miss-classification view.
    pub miss_classification: Vec<ShardMissRow>,
    /// Path traces per profiled type.
    pub path_traces: HashMap<TypeId, Vec<PathTrace>>,
    /// Data-flow graphs per profiled type.  Keyed by the machine-local `TypeId`
    /// because the benchmark harness reads the keys to name a run's types; each
    /// graph names its type itself ([`ShardFlow::type_name`]).
    pub data_flows: HashMap<TypeId, ShardFlow>,
    /// Raw object access histories per profiled type.
    pub histories: HashMap<TypeId, Vec<ObjectAccessHistory>>,
    /// History-collection statistics per profiled type (the material of Tables 6.7-6.10).
    pub history_stats: HashMap<TypeId, CollectionStats>,
    /// The cycle window of the sampling phase (used for the working-set estimate).
    pub sample_window: (u64, u64),
    /// Raw IBS samples spent during the sampling phase (before address resolution;
    /// what an adaptive budget is charged against).
    pub samples_spent: u64,
    /// Of those, the samples that missed L1, unresolved ones included.  Under
    /// `fixed:1` the two are every operation of the phase and every L1 miss.
    pub l1_miss_samples_spent: u64,
    /// The sampled line-utilization view (always collected; residencies are followed
    /// when their fill coincided with an IBS sample).
    #[serde(default)]
    pub utilization: ShardUtilization,
}

impl DprofProfile {
    /// The data-profile row for a type name, if present.
    pub fn profile_row(&self, name: &str) -> Option<&DataProfileRow> {
        self.data_profile.iter().find(|r| r.name == name)
    }

    /// The rank (0 = most misses) of a type name in the data profile.
    pub fn rank_of(&self, name: &str) -> Option<usize> {
        self.data_profile.iter().position(|r| r.name == name)
    }

    /// A name for every `TypeId` in the profile's maps: the data-profile row's name,
    /// or `type#N` for a type with a data-flow graph but no row.  Nothing in the
    /// profiler needs it (every view but the data profile names its types); it fills
    /// `ThreadRun::type_names`, which the benchmark harness builds and reads.
    pub fn type_names(&self) -> HashMap<TypeId, String> {
        let mut names: HashMap<TypeId, String> = self
            .data_profile
            .iter()
            .map(|row| (row.type_id, row.name.clone()))
            .collect();
        for ty in self.data_flows.keys() {
            names.entry(*ty).or_insert_with(|| format!("type#{}", ty.0));
        }
        names
    }

    /// The profile as a report: the merge of its one shard, as `dprof` merges one
    /// thread's, so its rows are the ones `dprof` prints for the same run.  It carries
    /// no throughput: a profile does not count requests.
    pub fn report(&self) -> MergedReport {
        let meta = ShardMeta {
            samples: self.samples.len() as u64,
            ..ShardMeta::default()
        };
        let shard = ProfileShard::from_profile(self, meta, 0);
        merge_shards(&[&shard])
    }
}

/// The DProf profiler.
#[derive(Debug, Clone, Default)]
pub struct Dprof {
    config: DprofConfig,
}

impl Dprof {
    /// Creates a profiler with the given configuration.
    pub fn new(config: DprofConfig) -> Self {
        Dprof { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &DprofConfig {
        &self.config
    }

    /// Phase 1 only: collects and resolves access samples while running the workload.
    pub fn collect_access_samples<F>(
        &self,
        machine: &mut Machine,
        kernel: &mut KernelState,
        mut step: F,
    ) -> SamplePhase
    where
        F: FnMut(&mut Machine, &mut KernelState),
    {
        machine.configure_ibs(IbsConfig::with_policy(self.config.sampling));
        machine.ibs.drain();
        // The sampled utilization tally rides every phase: a residency is followed
        // whenever its fill coincided with an IBS sample, so the view costs nothing
        // extra in sample budget.
        machine.start_utilization();
        let start = machine.max_clock();
        for _ in 0..self.config.sample_rounds {
            step(machine, kernel);
        }
        let end = machine.max_clock();
        let samples_spent = machine.ibs.phase_samples();
        machine.configure_ibs(IbsConfig::default()); // disable
        let line_size = machine.hierarchy.line_size() as u64;
        let cps = machine.config().cycles_per_second;
        let utilization = machine
            .take_utilization()
            .map(|tally| {
                build_utilization(
                    &tally,
                    &kernel.allocator,
                    &kernel.types,
                    line_size,
                    end - start,
                    cps,
                )
            })
            .unwrap_or_default();
        let records = machine.ibs.drain();
        let l1_miss_samples_spent =
            records.iter().filter(|r| r.level != HitLevel::L1).count() as u64;
        SamplePhase {
            samples: resolve_samples(records, &kernel.allocator),
            window: (start, end),
            samples_spent,
            l1_miss_samples_spent,
            utilization,
        }
    }

    /// Runs a complete DProf profiling session: access samples, then object access
    /// histories for the top miss-heavy types, then view construction.
    pub fn run<F>(
        &self,
        machine: &mut Machine,
        kernel: &mut KernelState,
        mut step: F,
    ) -> DprofProfile
    where
        F: FnMut(&mut Machine, &mut KernelState),
    {
        // Phase 1: access samples.
        let SamplePhase {
            samples,
            window: sample_window,
            samples_spent,
            l1_miss_samples_spent,
            utilization,
        } = self.collect_access_samples(machine, kernel, &mut step);

        // Pick the types with the most L1-miss samples for history collection.
        let mut miss_counts: HashMap<TypeId, u64> = HashMap::new();
        for s in &samples {
            if s.is_l1_miss() {
                *miss_counts.entry(s.type_id).or_insert(0) += 1;
            }
        }
        let mut ranked: Vec<(TypeId, u64)> = miss_counts.into_iter().collect();
        // Ties must break on the stable type id, not on HashMap iteration order: the
        // selected set determines the entire history-collection phase, and trace replay
        // requires a recorded run and its replay (different processes, different
        // SipHash keys) to pick identical types.
        ranked.sort_by_key(|&(t, n)| (std::cmp::Reverse(n), t));
        let top_types: Vec<TypeId> = ranked
            .iter()
            .take(self.config.history_types)
            .map(|(t, _)| *t)
            .collect();

        // Phase 2: object access histories for the top types.
        let mut histories: HashMap<TypeId, Vec<ObjectAccessHistory>> = HashMap::new();
        let mut history_stats: HashMap<TypeId, CollectionStats> = HashMap::new();
        for &ty in &top_types {
            let mut cfg: HistoryConfig = self.config.history.clone();
            if cfg.offsets_of_interest.is_none() {
                // Focus on the most-accessed offsets of the type, as the thesis does to
                // keep collection tractable; fall back to the whole type if samples are
                // too sparse.
                let offsets = popular_offsets(&samples, ty, 8);
                if !offsets.is_empty() {
                    cfg.offsets_of_interest = Some(offsets);
                }
            }
            let (h, stats) = collect_histories(machine, kernel, ty, &cfg, &mut step);
            histories.insert(ty, h);
            history_stats.insert(ty, stats);
        }

        // View construction.
        let working_set = build_working_set(
            kernel.allocator.address_set(),
            &kernel.types,
            machine.config().hierarchy.l2,
            sample_window.0,
            sample_window.1,
        );
        let mut path_traces: HashMap<TypeId, Vec<PathTrace>> = HashMap::new();
        let mut data_flows: HashMap<TypeId, ShardFlow> = HashMap::new();
        for (&ty, hs) in &histories {
            let traces = build_path_traces(ty, hs, &samples);
            let flow = build_data_flow(ty, &traces, &kernel.types, &machine.symbols);
            data_flows.insert(ty, flow);
            path_traces.insert(ty, traces);
        }
        let data_profile = build_data_profile(&samples, &path_traces, &working_set, &kernel.types);
        let miss_classification =
            classify_misses(&samples, &path_traces, &working_set, &kernel.types);

        DprofProfile {
            samples,
            data_profile,
            working_set,
            miss_classification,
            path_traces,
            data_flows,
            histories,
            history_stats,
            sample_window,
            samples_spent,
            l1_miss_samples_spent,
            utilization,
        }
    }
}

/// Everything phase 1 (access sampling) produces.
#[derive(Debug, Clone)]
pub struct SamplePhase {
    /// The resolved access samples.
    pub samples: Vec<AccessSample>,
    /// The cycle window of the phase.
    pub window: (u64, u64),
    /// Raw IBS samples spent (pre-resolution; the adaptive budget accountant).
    pub samples_spent: u64,
    /// Of those, the samples that missed L1 (pre-resolution).
    pub l1_miss_samples_spent: u64,
    /// The sampled line-utilization view of the phase.
    pub utilization: ShardUtilization,
}

/// The most frequently sampled 8-byte-aligned offsets of a type, largest first.
pub fn popular_offsets(samples: &[AccessSample], type_id: TypeId, limit: usize) -> Vec<u64> {
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for s in samples.iter().filter(|s| s.type_id == type_id) {
        *counts.entry(s.offset & !7).or_insert(0) += 1;
    }
    let mut v: Vec<(u64, u64)> = counts.into_iter().collect();
    v.sort_by_key(|(off, n)| (std::cmp::Reverse(*n), *off));
    v.into_iter().take(limit).map(|(off, _)| off).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_machine::FunctionId;

    #[test]
    fn popular_offsets_ranked_by_frequency() {
        let mk = |offset| AccessSample {
            type_id: TypeId(1),
            offset,
            ip: FunctionId(0),
            cpu: 0,
            level: HitLevel::L1,
            latency: 3,
            is_write: false,
        };
        let samples = vec![mk(0), mk(64), mk(64), mk(64), mk(128), mk(128)];
        let offs = popular_offsets(&samples, TypeId(1), 2);
        assert_eq!(offs, vec![64, 128]);
        assert!(popular_offsets(&samples, TypeId(2), 4).is_empty());
    }

    #[test]
    fn default_config_is_sane() {
        let c = DprofConfig::default();
        assert!(c.sampling.enabled());
        assert!(c.history_types > 0);
        assert!(c.sample_rounds > 0);
    }
}
