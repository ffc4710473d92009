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
//! Every view but the data profile emits the rows a
//! [`ProfileShard`](crate::merge::ProfileShard) carries, so a profiled thread's view
//! *is* its shard's: miss classification [`ShardMissRow`](crate::merge::ShardMissRow)s,
//! working-set [`ShardWorkingSetRow`](crate::merge::ShardWorkingSetRow)s, utilization a
//! [`ShardUtilization`](crate::merge::ShardUtilization) and data flow a
//! [`ShardFlow`](crate::merge::ShardFlow) per type.  A [`DataProfileRow`] keeps its
//! machine-local `TypeId` and is converted by
//! [`ProfileShard::from_profile`](crate::merge::ProfileShard::from_profile).  No view
//! computes a confidence interval or a rank mark: `merge` derives them once, from
//! pooled counts.

pub mod data_flow;
pub mod data_profile;
pub mod miss_class;
pub mod utilization;
pub mod working_set;

pub use data_flow::build_data_flow;
pub use data_profile::{build_data_profile, DataProfileRow};
pub use miss_class::classify_misses;
pub use utilization::build_utilization;
pub use working_set::{build_working_set, AssocSetUsage, WorkingSetView};
