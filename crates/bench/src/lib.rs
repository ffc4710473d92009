//! # dprof-bench
//!
//! The harness that regenerates every table and figure of the DProf evaluation
//! (Chapter 6 of the thesis), and the simulated-access throughput grid.
//!
//! * [`case_studies`] — the memcached (§6.1) and Apache (§6.2) case studies: Tables
//!   6.1–6.6, Figure 6-1, and the two fixes (57 % and 16 %).  Each profiled study is a
//!   `dprof` session ([`Scale::session`]) whose DProf tables render from its merged
//!   report, so `dprof` prints the same rows and a recording of it replays to them.
//! * [`overheads`] — Figure 6-2 (IBS sampling overhead), Tables 6.7–6.10 (object access
//!   history collection costs), Figure 6-3 (unique-path coverage), Table 4.1 (example
//!   path trace).
//! * [`throughput`] — cache-hierarchy accesses per second over captured workload
//!   traces, per workload × simulated core count.
//! * [`scale`] — paper-scale vs quick-scale experiment settings, and the `dprof`
//!   session an experiment at that scale profiles.
//!
//! The `repro` binary (`cargo run -p dprof-bench --bin repro -- all`) prints the
//! paper-style tables; the `dprof-bench` binary measures the core-count grid.
//! End-to-end and per-layer timings of the `dprof` subcommands live in the
//! repository's `benchmark/` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case_studies;
pub mod overheads;
pub mod scale;
pub mod throughput;

pub use case_studies::{
    apache_admission_fix, memcached_queue_fix, profile_apache, profile_memcached, ApacheStudy,
    FixResult, MemcachedStudy,
};
pub use overheads::{
    example_path_trace, history_overhead_rows, ibs_overhead_sweep, path_coverage,
    render_history_rows, HistoryOverheadRow, OverheadPoint, OverheadSweep, PathCoverageSeries,
    WhichWorkload,
};
pub use scale::Scale;
