//! # dprof-core
//!
//! A reproduction of **DProf**, the data-centric cache profiler from *"Locating Cache
//! Performance Bottlenecks Using Data Profiling"* (Pesterev; EuroSys 2010 / MIT MEng
//! thesis, 2010).
//!
//! Conventional profilers attribute cost to *code*; DProf attributes cache misses to
//! *data types* and to the execution paths objects of each type take through the
//! system.  It collects two kinds of raw data using CPU performance-monitoring
//! hardware — IBS-style access samples and debug-register object access histories —
//! combines them into *path traces*, and presents four views:
//!
//! 1. [`views::data_profile`] — types ranked by their share of cache misses,
//! 2. [`views::miss_class`] — the kinds of misses each type suffers,
//! 3. [`views::working_set`] — what occupies the cache and which associativity sets are
//!    over-subscribed,
//! 4. [`views::data_flow`] — where objects move between cores.
//!
//! The hardware dependencies are provided by the [`sim_machine`] crate (IBS unit,
//! watchpoint unit, per-core clocks) and the kernel substrate by [`sim_kernel`] (typed
//! SLAB allocator = address-to-type resolver, network stack, locks).
//!
//! ## Quick start
//!
//! ```
//! use dprof_core::{Dprof, DprofConfig};
//! use sim_kernel::{KernelConfig, KernelState};
//! use sim_machine::{Machine, MachineConfig};
//!
//! // Build a 2-core machine and kernel, and a trivial workload.
//! let mut machine = Machine::new(MachineConfig::with_cores(2));
//! let mut kernel = KernelState::new(
//!     &mut machine,
//!     KernelConfig { cores: 2, workers_per_core: 1, ..Default::default() },
//! );
//! let step = |m: &mut Machine, k: &mut KernelState| {
//!     for core in 0..2 {
//!         let skb = k.netif_rx(m, core, 100);
//!         k.udp_deliver(m, core, skb, core);
//!         k.udp_app_recv(m, core, core);
//!     }
//! };
//!
//! // Profile it.
//! let mut config = DprofConfig::default();
//! config.sample_rounds = 50;
//! config.history_types = 1;
//! config.history.history_sets = 2;
//! let profile = Dprof::new(config).run(&mut machine, &mut kernel, step);
//! assert!(!profile.data_profile.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ground_truth;
pub mod history;
pub mod merge;
pub mod path_trace;
pub mod profiler;
pub mod report;
pub mod sample;
pub mod schema;
pub mod stats;
pub mod views;
pub mod whatif;

pub use ground_truth::{resolve_ground_truth, GroundTruthProfile, GroundTruthRow};
pub use history::{
    collect_histories, CollectionMode, CollectionStats, HistoryConfig, HistoryElement,
    ObjectAccessHistory,
};
pub use merge::{
    merge_shards, summary_from_merged, MergeSink, MergedReport, ProfileShard, ShardMeta,
    StreamingMerge,
};
pub use path_trace::{build_path_traces, count_unique_paths, PathTrace, PathTraceEntry};
pub use profiler::{popular_offsets, Dprof, DprofConfig, DprofProfile, SamplePhase};
pub use report::diff::{
    diff, diff_with, DiffThresholds, ReportDiff, ReportSummary, TypeDelta, TypeSummary, Verdict,
};
pub use sample::{aggregate_samples, resolve_samples, AccessSample, SampleKey, SampleStats};
pub use stats::{mark_rank_stability, wilson95};
pub use views::{
    build_data_profile, build_utilization, build_working_set, classify_misses, DataFlowEdge,
    DataFlowGraph, DataFlowNode, DataProfileRow, TypeWorkingSet, WorkingSetView,
};
pub use whatif::{blocks_from_rounds, estimate_gain, rank_candidates, BlockDelta, GainEstimate};
