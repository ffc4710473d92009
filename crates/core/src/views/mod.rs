//! The four DProf views (§3 of the thesis), plus the line-utilization view.
//!
//! * [`data_profile`] — types ranked by their share of cache misses, with bounce flags.
//! * [`working_set`] — per-type cache footprint and the associativity-set histogram.
//! * [`miss_class`] — per-type classification into invalidation / conflict / capacity
//!   misses.
//! * [`data_flow`] — the merged graph of execution paths objects of a type take, with
//!   core-crossing edges highlighted.
//! * [`utilization`] — types ranked by the bandwidth wasted on fetched-but-untouched
//!   bytes, with per-allocation-origin attribution (beyond the thesis; after
//!   DINAMITE / cache-log-parser).
//!
//! The miss-classification and utilization views emit the rows a
//! [`ProfileShard`](crate::merge::ProfileShard) carries
//! ([`ShardMissRow`](crate::merge::ShardMissRow),
//! [`ShardUtilization`](crate::merge::ShardUtilization)), so a profiled thread's view *is* its shard's.  No view computes
//! a confidence interval or a rank mark: `merge` derives them once, from pooled counts.

pub mod data_flow;
pub mod data_profile;
pub mod miss_class;
pub mod utilization;
pub mod working_set;

pub use data_flow::{DataFlowEdge, DataFlowGraph, DataFlowNode};
pub use data_profile::{build_data_profile, DataProfileRow};
pub use miss_class::classify_misses;
pub use utilization::build_utilization;
pub use working_set::{build_working_set, AssocSetUsage, TypeWorkingSet, WorkingSetView};
