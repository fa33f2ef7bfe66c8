//! `tmg-service`: the persistent analysis layer of the timing-model
//! toolchain.
//!
//! The staged pipeline of `tmg_core` made every WCET stage a
//! content-addressed artifact, but the in-memory `ArtifactStore` dies with
//! the process.  This crate adds the two pieces that turn the pipeline into
//! a long-running service:
//!
//! * [`store::PersistentStore`] — an on-disk artifact cache (versioned
//!   binary frames, [`codec`]) layered under the in-memory store behind the
//!   `tmg_core::pipeline::TieredStore` trait.  A *fresh process's* analysis
//!   of an unchanged function is served from disk with zero
//!   lower/partition/testgen recomputation, bit-identical to the cold run.
//! * [`server::Server`] — a JSON-lines request server (`tmg-service/v1`:
//!   `analyse`, `sweep`, `stats`, `shutdown`) over stdin/stdout, driven by a
//!   concurrent scheduler that deduplicates identical in-flight requests and
//!   fans independent functions across the rayon worker pool.
//!
//! See `crates/service/README.md` for the protocol and the cache layout.

pub mod codec;
pub mod fault;
pub mod json;
pub mod latency;
mod memo;
pub mod segment;
pub mod server;
pub mod store;
pub mod tcp;

pub use fault::{FaultKind, FaultPlan, STALL_MS};
pub use latency::{Histogram, LatencySet};
pub use segment::{SegmentStats, DEFAULT_GROUP_COMMIT_WINDOW_MS, DEFAULT_SEGMENT_BYTES};
pub use server::{ServeSummary, Server, DEFAULT_QUEUE_CAPACITY, MAX_REQUEST_BYTES, PROTOCOL};
pub use store::{
    DiskStageStats, PersistentStore, PersistentStoreConfig, RecoveryReport, TierStats,
    DEFAULT_DISK_BUDGET,
};
