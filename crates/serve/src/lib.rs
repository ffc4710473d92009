//! # dprof-serve
//!
//! A fleet-scale continuous-profiling service on top of the streaming merge API.
//!
//! The DProf paper profiles one machine at a time; operating a fleet turns the
//! one-shot "run, merge, render" pipeline into a long-lived service: many
//! producers stream profile shards (or whole `.dtrace` sessions) at a collector,
//! which merges them incrementally per `(workload, build)` key, keeps memory
//! bounded by compacting, persists snapshots across restarts, and answers
//! regression queries across builds.
//!
//! The crate is deliberately small and dependency-free:
//!
//! * [`frame`] — length-prefixed frames on a TCP stream, using the same LEB128
//!   varint codec as the `.dtrace` format (`dprof::trace::codec`).
//! * [`proto`] — the request/response protocol: push shard / push trace /
//!   query top / query regressions / query alerts / list keys / stats /
//!   snapshot / shutdown.
//! * [`store`] — the merged-profile store: one [`dprof::core::StreamingMerge`]
//!   sink per `(workload, build)` key, compaction for bounded memory, JSON
//!   snapshots on disk.
//! * [`server`] — the TCP server: thread-per-connection accept loop around a
//!   shared store.
//! * [`client`] — a blocking client speaking the same protocol (used by the
//!   `dprof query`, `dprof loadgen` and push subcommands, and by tests).
//! * [`loadgen`] — a concurrent load generator that checks every pushed shard is
//!   absorbed and every query answers (a correctness load test).
//!
//! Everything merged here is bit-identical to the CLI's one-shot merge: both
//! paths fold shards through `dprof::core::merge` in canonical order, so a
//! report queried from the server equals the report the CLI would have
//! rendered from the same shards.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod loadgen;
pub mod proto;
pub mod server;
pub mod store;

pub use client::Client;
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
pub use proto::{Request, Response};
pub use server::{Server, ServerConfig};
pub use store::{valid_tag, ProfileStore, StoreStats};
