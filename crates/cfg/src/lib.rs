//! Control-flow graphs, dominators, program-segment regions and path
//! counting for the timing-model-generation toolchain.
//!
//! The DATE 2005 paper partitions the control flow graph of the analysed
//! function into *program segments* (PS): sub-graphs that can only be entered
//! through a single control edge.  This crate provides
//!
//! * [`builder::build_cfg`] — lowers a checked [`tmg_minic::Function`] into a
//!   [`graph::Cfg`] of basic blocks plus a [`regions::RegionTree`] describing
//!   the single-entry regions that follow the abstract syntax tree (function
//!   body, `then`/`else` branches, `switch` arms, loop bodies);
//! * [`dominators`] — an iterative dominator-tree computation used to verify
//!   that every region is indeed single-entry;
//! * [`paths`] — acyclic path counting (with loop bounds) and bounded path
//!   enumeration, the quantities the paper's path bound `b` is compared
//!   against;
//! * [`dot`] — Graphviz export for inspection.
//!
//! # Example
//!
//! ```
//! use tmg_minic::parse_function;
//! use tmg_cfg::build_cfg;
//!
//! let f = parse_function(
//!     "void f(int a) { p1(); if (a == 0) { p2(); } p3(); }",
//! )?;
//! let lowered = build_cfg(&f);
//! // entry + three code blocks + one join = 5 measurable units
//! assert_eq!(lowered.cfg.measurable_units().len(), 5);
//! assert_eq!(lowered.regions.root().path_count, 2);
//! # Ok::<(), tmg_minic::Error>(())
//! ```

pub mod block;
pub mod builder;
pub mod callgraph;
pub mod counts;
pub mod depend;
pub mod dominators;
pub mod dot;
pub mod graph;
pub mod hash;
pub mod paths;
pub mod regions;

pub use block::{BasicBlock, BlockId, BlockKind, Terminator};
pub use builder::{build_cfg, LoweredFunction};
pub use callgraph::{module_key, CallGraph, CallGraphError};
pub use counts::{PartitionStats, PathCounts};
pub use depend::{cone_of_influence, ConeOfInfluence};
pub use dominators::DominatorTree;
pub use graph::Cfg;
pub use hash::{
    combine_hashes, function_fingerprint, key_hex, stable_hash_debug, stable_hash_str, StableHasher,
};
pub use paths::{
    count_paths_block, count_region_paths, enumerate_region_paths, region_path_iter, PathSpec,
    RegionPathIter,
};
pub use regions::{Region, RegionId, RegionKind, RegionTree};
