//! Re-export of the core schema module's JSON support.
//!
//! Every emitter and parser in the workspace (CLI renderers, diff loading, the serve
//! store and its clients) shares the one document model in `dprof-core::schema`; this
//! shim keeps the `dprof_cli::json::Json` path working.

pub use dprof::core::schema::{Json, JsonOf, JsonRef};
