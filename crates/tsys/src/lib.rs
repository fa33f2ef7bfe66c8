//! Transition-system model, explicit-state bounded model checker and
//! state-space optimisations — the toolchain's substitute for the SAL 2
//! model checker used in the paper.
//!
//! Section 3 of the DATE 2005 paper converts the analysed C function into a
//! SAL transition system and asks the model checker for an input assignment
//! ("test data pattern") that drives execution down a selected path; if no
//! assignment exists the path is infeasible.  The cost of that query is
//! dominated by the size of the encoded state vector and the number of
//! transitions, which is what the paper's six optimisations (Section 3.2)
//! attack.
//!
//! This crate rebuilds that machinery from scratch:
//!
//! * [`model`] — guarded transition systems over finite-domain scalar
//!   variables, with explicit state-vector bit accounting;
//! * [`encode`] — translation of a checked [`tmg_minic::Function`] into a
//!   [`model::Model`] (one transition per C statement, or fused transitions
//!   when statement concatenation is enabled);
//! * [`opt`] — the six optimisations of Section 3.2 (reverse CSE,
//!   live-variable analysis, statement concatenation, variable range
//!   analysis, variable initialisation, dead variable & code elimination);
//! * [`checker`] — an explicit-state reachability checker that lazily splits
//!   on unknown variable reads, returns witness input vectors (test data) or
//!   an infeasibility verdict, and reports the cost statistics reproduced in
//!   Table 2;
//! * [`multiquery`] — a multi-query reachability engine that explores one
//!   function's state space once and answers a whole batch of path queries
//!   from the shared, decision-signature-annotated graph
//!   ([`ModelChecker::check_many`]), with results bit-identical to
//!   one-query searches.  It is the crate's only search loop: a single
//!   query is explored as a batch of one, in one sequential run.  The
//!   batch path first reduces the model to the cone of influence of the
//!   queried decisions ([`opt::slice_for_queries`], fed by `tmg_cfg`'s
//!   def/use dependence analysis) and completes the slice's witnesses
//!   against the full model — see `crates/tsys/README.md` for the
//!   architecture and the budget rules;
//! * [`metrics`] — process-wide observability counters (states explored,
//!   slicing reductions, witness completions) embedded in the service
//!   `stats` snapshot.
//!
//! # Example: generate test data for a path
//!
//! ```
//! use tmg_minic::parse_function;
//! use tmg_cfg::build_cfg;
//! use tmg_tsys::{ModelChecker, PathQuery, Optimisations};
//!
//! let f = parse_function(
//!     "void f(int a __range(0, 5)) { if (a == 3) { hit(); } else { miss(); } }",
//! )?;
//! let lowered = build_cfg(&f);
//! let paths = tmg_cfg::enumerate_region_paths(&lowered.cfg, lowered.regions.root(), 16).expect("paths");
//! let checker = ModelChecker::with_optimisations(Optimisations::all());
//! let result = checker.find_test_data(&f, &PathQuery::new(paths[0].decisions.clone()));
//! assert!(result.outcome.witness().is_some());
//! # Ok::<(), tmg_minic::Error>(())
//! ```

pub mod cancel;
pub mod checker;
pub mod encode;
pub mod metrics;
pub mod model;
pub mod multiquery;
pub mod opt;
pub mod prepared;

pub use cancel::{catch_cancel, CancelToken, Cancelled};
pub use checker::{
    CheckOutcome, CheckResult, CheckStats, ModelChecker, PathQuery, SharedCheckModel,
};
pub use encode::{encode_function, EncodeOptions};
pub use metrics::CheckerMetrics;
pub use model::{LocId, Model, StateVar, Transition, VarRole};
pub use multiquery::MultiQueryEngine;
pub use opt::{apply_optimisations, slice_for_queries, OptReport, Optimisations, SliceReport};
pub use prepared::{OwnedPreparedModel, PreparedModel};
