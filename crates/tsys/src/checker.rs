//! Explicit-state bounded reachability checker — the reproduction's stand-in
//! for the SAL 2 model checker.
//!
//! The query the WCET pipeline needs is always the same: *is there an input
//! assignment that drives execution down a selected path, and if so, which
//! one?*  The checker answers it by a depth-first search over concrete states
//! `(location, valuation)` of the encoded transition system.  Variables whose
//! value is unknown (function parameters and uninitialised locals — the
//! paper's `D_I`) are enumerated lazily: the search splits over a variable's
//! domain the first time its value is actually read.  The cost of a query is
//! therefore governed by exactly the quantities the Section 3.2 optimisations
//! reduce: the width of variable domains, the number of variables in the
//! state vector and the number of transitions.
//!
//! There is one search loop, in [`crate::multiquery`]; a single query is
//! asked as a batch of one.  This module holds the checker's configuration
//! and entry points and the pieces the loop is built from: the packed state
//! arena — a flat `i64` value array plus a known-bits mask, pushed and
//! popped in stack discipline with zero per-state heap allocations — and
//! the evaluation of pre-resolved (index-based) expressions from a
//! [`PreparedModel`].

use crate::encode::encode_function;
use crate::model::{Model, VarRole};
use crate::multiquery::MultiQueryEngine;
use crate::opt::{apply_optimisations_preserving, OptReport, Optimisations};
use crate::prepared::{
    ExprPool, FastGuard, INode, NodeId, OwnedPreparedModel, PreparedModel, PreparedTransition,
};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::time::Duration;
use tmg_minic::ast::{BinOp, Function, StmtId, UnOp};
use tmg_minic::interp::BranchChoice;
use tmg_minic::value::InputVector;

/// A path query: the ordered branch decisions the witness execution must take.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PathQuery {
    /// Decisions in execution order (typically the decisions of one program
    /// segment path, produced by [`tmg_cfg::enumerate_region_paths`]).
    pub decisions: Vec<(StmtId, BranchChoice)>,
    /// Statements mentioned by the decisions, computed once at construction
    /// (the optimisation passes and the multi-query relevance filter consult
    /// it repeatedly).
    stmts: HashSet<StmtId>,
}

impl PartialEq for PathQuery {
    fn eq(&self, other: &PathQuery) -> bool {
        // The statement set is derived from the decisions; comparing it would
        // only repeat the comparison.
        self.decisions == other.decisions
    }
}

impl Eq for PathQuery {}

impl PathQuery {
    /// Creates a query from a decision sequence.
    pub fn new(decisions: Vec<(StmtId, BranchChoice)>) -> PathQuery {
        let stmts = decisions.iter().map(|(s, _)| *s).collect();
        PathQuery { decisions, stmts }
    }

    /// A query satisfied by any execution (used to probe reachability of the
    /// function end, e.g. in the Table-2 ablation).
    pub fn any_execution() -> PathQuery {
        PathQuery::default()
    }

    /// Statements mentioned by the query.
    pub fn stmts(&self) -> &HashSet<StmtId> {
        &self.stmts
    }
}

/// Verdict of a check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckOutcome {
    /// A witness input assignment driving the requested path was found.
    Feasible {
        /// Values for the function parameters (the paper's "test data
        /// pattern").
        witness: InputVector,
        /// Transitions along the witness run up to query completion.
        steps: u64,
    },
    /// The search space was exhausted without a witness: the path is
    /// infeasible (within the bounded domains and loop bounds).
    Infeasible,
    /// The search budget was exhausted before a verdict was reached.
    Unknown,
}

impl CheckOutcome {
    /// The witness input vector, if the path is feasible.
    pub fn witness(&self) -> Option<&InputVector> {
        match self {
            CheckOutcome::Feasible { witness, .. } => Some(witness),
            _ => None,
        }
    }

    /// Whether the path was proven infeasible.
    pub fn is_infeasible(&self) -> bool {
        matches!(self, CheckOutcome::Infeasible)
    }
}

/// Cost statistics of one check — the quantities reported in Table 2.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CheckStats {
    /// Total transitions fired during the search (∝ checking time).
    pub transitions_fired: u64,
    /// Concrete states created (splits included).
    pub states_created: u64,
    /// Deepest run explored.
    pub max_depth: u64,
    /// Bits of the encoded state vector.
    pub state_bits: u32,
    /// Bytes of one packed state.
    pub state_bytes: u64,
    /// Estimated memory for the explored-state store
    /// (`states_created × state_bytes`), the analogue of the paper's
    /// "memory use" column.
    pub memory_estimate_bytes: u64,
    /// Transitions along the witness run (the paper's "steps" column), if a
    /// witness was found.
    pub witness_steps: Option<u64>,
    /// Number of transitions in the checked model.
    pub model_transitions: usize,
    /// Number of state variables in the checked model.
    pub model_vars: usize,
    /// Wall-clock time of the search.
    pub duration: Duration,
}

/// Result of one model-checking query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckResult {
    /// Feasible / infeasible / unknown.
    pub outcome: CheckOutcome,
    /// Search cost statistics.
    pub stats: CheckStats,
    /// What the source-level optimisation passes did (empty when checking a
    /// pre-built model).
    pub opt_report: OptReport,
}

/// Explicit-state bounded model checker.
#[derive(Clone)]
pub struct ModelChecker {
    /// Optimisations applied before encoding in [`ModelChecker::find_test_data`].
    pub optimisations: Optimisations,
    /// Maximum number of transitions fired before giving up with
    /// [`CheckOutcome::Unknown`].
    pub max_transitions: u64,
    /// Maximum length of a single run (guards against loops whose bound
    /// annotation is violated for some inputs).
    pub max_depth: u64,
    /// Cone-of-influence slicing for multi-query batches
    /// ([`ModelChecker::check_many_shared`]): before the shared exploration
    /// runs, the batch model is sliced to the def/use cone of the queried
    /// decisions ([`crate::opt::slice_for_queries`]) — variables, assignments
    /// and whole unqueried branches that cannot affect any query's verdict
    /// are dropped, shrinking both the state vector and the set of domain
    /// splits.  Witnesses found on the slice are completed against the full
    /// model by a pinned re-search, so reported witnesses and step counts
    /// stay full-model-consistent; a completion that fails to replay falls
    /// back to a one-query search of the full model.  Part of the checker's
    /// `Debug`-rendered configuration, so the pipeline's content-addressed
    /// artifact keys change with it.
    pub slicing: bool,
    /// Cooperative cancellation handle, polled every few thousand pops of
    /// the exploration and between per-query fallback searches.  A
    /// fired token makes the search *unwind* with [`crate::cancel::Cancelled`]
    /// (caught by [`crate::cancel::catch_cancel`] at the pipeline boundary)
    /// rather than return a weaker verdict — a cancelled search never
    /// produces, and therefore never caches, a result.  Runtime-only state:
    /// deliberately excluded from the checker's `Debug` rendering so the
    /// content-addressed artifact keys are deadline-independent.
    pub cancel: crate::cancel::CancelToken,
}

impl Default for ModelChecker {
    fn default() -> Self {
        ModelChecker::new()
    }
}

impl std::fmt::Debug for ModelChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Renders exactly the configuration fields the derived impl covered
        // before the cancel token existed: the persistent artifact keys hash
        // this string, and a per-request deadline must not fragment the
        // cache (see `tmg_core::pipeline`'s key derivation).  The search
        // engine and the single-query search's dedup threshold are no longer
        // configurable, but their former fields are still written as the
        // literals `engine: Arena` and `dedup_after_pops: 1048576` so
        // existing keys stay valid.
        f.debug_struct("ModelChecker")
            .field("optimisations", &self.optimisations)
            .field("max_transitions", &self.max_transitions)
            .field("max_depth", &self.max_depth)
            .field("engine", &format_args!("Arena"))
            .field("slicing", &self.slicing)
            .field("dedup_after_pops", &format_args!("1048576"))
            .finish()
    }
}

impl ModelChecker {
    /// A checker with all optimisations enabled and default budgets.
    pub fn new() -> ModelChecker {
        ModelChecker::with_optimisations(Optimisations::all())
    }

    /// A checker with the given optimisation set.
    pub fn with_optimisations(optimisations: Optimisations) -> ModelChecker {
        ModelChecker {
            optimisations,
            max_transitions: 50_000_000,
            max_depth: 100_000,
            slicing: true,
            cancel: crate::cancel::CancelToken::none(),
        }
    }

    /// Sets the transition budget.
    pub fn with_budget(mut self, max_transitions: u64) -> ModelChecker {
        self.max_transitions = max_transitions;
        self
    }

    /// Enables or disables cone-of-influence slicing for multi-query batches
    /// (see [`ModelChecker::slicing`]; the slicing equivalence suite compares
    /// both settings).
    pub fn with_slicing(mut self, slicing: bool) -> ModelChecker {
        self.slicing = slicing;
        self
    }

    /// Installs a cooperative cancellation token (see
    /// [`ModelChecker::cancel`]).  Does not affect artifact keys.
    pub fn with_cancel(mut self, cancel: crate::cancel::CancelToken) -> ModelChecker {
        self.cancel = cancel;
        self
    }

    /// Generates test data for `query` on `function`: applies the configured
    /// optimisations, encodes the function and searches for a witness.
    pub fn find_test_data(&self, function: &Function, query: &PathQuery) -> CheckResult {
        let (optimised, opt_report) =
            apply_optimisations_preserving(function, &self.optimisations, query.stmts());
        let model = encode_function(&optimised, &self.optimisations.encode_options());
        let mut result = self.check_prepared(&PreparedModel::new(&model), query);
        result.opt_report = opt_report;
        result
    }

    /// Answers a batch of path queries over one function, sharing a single
    /// state-space exploration across all of them whenever that is provably
    /// equivalent to asking each query on its own.
    ///
    /// The shared path requires that the source-level optimisations
    /// produce the same function under every query's preserve set
    /// ([`crate::opt::shared_optimisation_for_queries`]);
    /// otherwise — and for the queries a budget-exhausted shared exploration
    /// leaves unresolved — the method falls back to per-query
    /// [`ModelChecker::find_test_data`].  Either way every returned
    /// [`CheckOutcome`] (verdict, witness and step count) is the one a batch
    /// of one would give for that query on every search that settles within
    /// the transition budget; the exception is slicing, which may settle a
    /// query whose full-model search would exhaust the budget (see
    /// [`ModelChecker::slicing`]).  Only the cost statistics differ, because
    /// batched queries report the cost of the shared exploration.
    pub fn check_many(&self, function: &Function, queries: &[PathQuery]) -> Vec<CheckResult> {
        if queries.len() < 2 {
            return self.check_each(function, queries);
        }
        let union: HashSet<StmtId> = queries
            .iter()
            .flat_map(|q| q.stmts().iter().copied())
            .collect();
        match self.prepare_shared(function, union) {
            Some(shared) => self.check_many_shared(function, &shared, queries),
            // Some query's preserve set changes the optimised source: the
            // shared model would not be the model each query is defined over.
            None => self.check_each(function, queries),
        }
    }

    /// Optimises, encodes and prepares `function` once for every batch of
    /// path queries whose statements fall within `union`, or `None` when no
    /// single optimised source serves them all
    /// ([`crate::opt::shared_optimisation_for_queries`]).
    ///
    /// Because removal sets are anti-monotone in the preserve set, a model
    /// prepared for `union` is also valid for any batch whose statement
    /// union is a *subset* of `union` — so preparing once with the union of
    /// every branch statement of the function yields an artifact reusable
    /// across path bounds and across [`check_many_shared`] batches, which is
    /// exactly how the staged pipeline caches it.
    ///
    /// [`check_many_shared`]: ModelChecker::check_many_shared
    pub fn prepare_shared(
        &self,
        function: &Function,
        union: HashSet<StmtId>,
    ) -> Option<SharedCheckModel> {
        let (optimised, opt_report) =
            crate::opt::shared_optimisation_for_queries(function, &self.optimisations, &union)?;
        let model = encode_function(&optimised, &self.optimisations.encode_options());
        Some(SharedCheckModel {
            prepared: OwnedPreparedModel::new(model),
            opt_report,
            union,
        })
    }

    /// Like [`check_many`](ModelChecker::check_many), but against a model
    /// previously built by [`prepare_shared`](ModelChecker::prepare_shared),
    /// skipping the per-batch optimisation, encoding and preparation.
    ///
    /// Outcomes are identical to `check_many` (and therefore to per-query
    /// [`find_test_data`](ModelChecker::find_test_data)): when the shared
    /// optimisation check succeeded, the prepared model *is* the
    /// preserve-free optimised model regardless of which union it was
    /// verified with — and, by the anti-monotonicity argument of
    /// [`crate::opt::shared_optimisation_for_queries`], also the model each
    /// covered query's own preserve set would produce — so any covered
    /// batch (even a solo query) explores the same state space.  A query the
    /// shared model does not cover (a statement outside the prepared union)
    /// drops the whole batch back to `check_many`, which re-verifies with
    /// the batch's own union.
    pub fn check_many_shared(
        &self,
        function: &Function,
        shared: &SharedCheckModel,
        queries: &[PathQuery],
    ) -> Vec<CheckResult> {
        if !queries.iter().all(|q| shared.covers(q)) {
            return self.check_many(function, queries);
        }
        // A solo batch is never sliced: nothing is shared, so it answers
        // straight off the cached model and nothing needs re-encoding.
        if self.slicing && queries.len() > 1 {
            if let Some(results) = self.check_many_sliced(function, shared, queries) {
                return results;
            }
        }
        let prepared = shared.prepared.view();
        let explored = MultiQueryEngine::explore(self, &prepared, queries);
        queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let mut result = explored.result(i).unwrap_or_else(|| {
                    // Budget exhausted before this query settled: re-ask
                    // alone, still on the cached model.  Between fallback
                    // searches is the last cooperative point before a
                    // potentially long exploration.
                    self.cancel.checkpoint();
                    self.check_prepared(&prepared, q)
                });
                result.opt_report = shared.opt_report.clone();
                result
            })
            .collect()
    }

    /// The slicing fast path of [`check_many_shared`]: builds a
    /// cone-of-influence slice of `function` for this batch's statement
    /// union, explores the (smaller) sliced model instead of the full one,
    /// and completes every feasible witness against the full model.
    ///
    /// Returns `None` when slicing cannot help — the cone covers the whole
    /// function, or the sliced source fails the shared-optimisation
    /// preserve-insensitivity check — in which case the caller proceeds on
    /// the full cached model, bit-identically to a checker with slicing
    /// disabled.
    ///
    /// Verdicts are preserved by construction (see
    /// [`crate::opt::slice_for_queries`]); witnesses and step counts are
    /// produced by a full-model re-search with the slice's relevant inputs
    /// pinned ([`ModelChecker::check_prepared_pinned`]), and any completion
    /// that fails to replay feasibly drops that query back to a one-query
    /// search of the full model — the slice never gets the last word on a
    /// witness.  The one intended divergence: a query whose full-model
    /// search would exhaust [`ModelChecker::max_transitions`] may settle to
    /// a definite verdict on the much cheaper slice.
    ///
    /// [`check_many_shared`]: ModelChecker::check_many_shared
    fn check_many_sliced(
        &self,
        function: &Function,
        shared: &SharedCheckModel,
        queries: &[PathQuery],
    ) -> Option<Vec<CheckResult>> {
        let union: HashSet<StmtId> = queries
            .iter()
            .flat_map(|q| q.stmts().iter().copied())
            .collect();
        let Some((sliced_fn, slice_report)) = crate::opt::slice_for_queries(function, &union)
        else {
            crate::metrics::add_slice_identity_batches(1);
            return None;
        };
        let (optimised, _) =
            crate::opt::shared_optimisation_for_queries(&sliced_fn, &self.optimisations, &union)?;
        let sliced_model = encode_function(&optimised, &self.optimisations.encode_options());
        let sliced = OwnedPreparedModel::new(sliced_model);
        crate::metrics::add_sliced_batches(1);
        crate::metrics::add_sliced_stmts(slice_report.removed_stmts as u64);
        crate::metrics::add_sliced_vars(slice_report.removed_vars.len() as u64);

        let full = shared.prepared.view();
        // Full-model state-vector indices of the inputs the slice actually
        // constrains; everything else is left free so the completing
        // re-search chooses exactly the values the unpinned full search
        // would.
        let relevant_inputs: Vec<(usize, String)> = shared
            .model()
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| {
                v.role == VarRole::Input && slice_report.constrained_inputs.contains(&v.name)
            })
            .map(|(i, v)| (i, v.name.clone()))
            .collect();

        let explored = MultiQueryEngine::explore(self, &sliced.view(), queries);
        let results = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let Some(result) = explored.result(i) else {
                    // Shared budget exhausted before this query settled.
                    let mut r = self.check_prepared(&full, q);
                    r.opt_report = shared.opt_report.clone();
                    return r;
                };
                let mut result = match result.outcome {
                    CheckOutcome::Feasible { ref witness, .. } => {
                        let pins: Vec<(usize, i64)> = relevant_inputs
                            .iter()
                            .filter_map(|(idx, name)| witness.get(name).map(|v| (*idx, v)))
                            .collect();
                        let completed = {
                            let _span = tmg_obs::span("checker:witness-completion");
                            self.check_prepared_pinned(&full, q, &pins)
                        };
                        match completed.outcome {
                            CheckOutcome::Feasible { witness, steps } => {
                                crate::metrics::add_witnesses_reconstructed(1);
                                let mut r = result;
                                r.stats.witness_steps = Some(steps);
                                r.outcome = CheckOutcome::Feasible { witness, steps };
                                r
                            }
                            // The completion oracle disagreed with the
                            // slice: distrust it and re-ask the full model
                            // from scratch.
                            _ => self.check_prepared(&full, q),
                        }
                    }
                    _ => result,
                };
                result.opt_report = shared.opt_report.clone();
                result
            })
            .collect();
        Some(results)
    }

    /// The per-query reference path: one independent search per query.
    fn check_each(&self, function: &Function, queries: &[PathQuery]) -> Vec<CheckResult> {
        queries
            .iter()
            .map(|q| self.find_test_data(function, q))
            .collect()
    }

    /// Runs one query on a [`PreparedModel`], reusing its outgoing
    /// transition index and pre-resolved expressions across queries.  The
    /// search is the [`MultiQueryEngine`] exploration of a batch of one.
    pub fn check_prepared(&self, prepared: &PreparedModel<'_>, query: &PathQuery) -> CheckResult {
        self.check_prepared_pinned(prepared, query, &[])
    }

    /// Like [`check_prepared`](ModelChecker::check_prepared), but with the
    /// given `(state-vector index, value)` pairs *pinned* in the initial
    /// state: the search never splits over a pinned variable and every
    /// witness carries the pinned values.  This is the witness-completion
    /// oracle of the slicing path: re-searching the full model with a sliced
    /// witness's relevant inputs pinned yields a witness and step count that
    /// are genuine full-model search results (the unconstrained splits take
    /// their lowest completing values, exactly as an unpinned search's
    /// would).  The completed witness usually coincides bit-for-bit with the
    /// unpinned full-model search's — the exception is a batch whose
    /// *dropped* statements read a relevant input before the kept code does,
    /// which shifts the full search's split order and can make it settle on
    /// a different (equally valid) lex-minimal assignment.  The binding
    /// contract is therefore the one the slicing equivalence suite pins:
    /// verdicts are bit-identical, and every witness is a feasible
    /// full-model witness for its query.
    pub(crate) fn check_prepared_pinned(
        &self,
        prepared: &PreparedModel<'_>,
        query: &PathQuery,
        pins: &[(usize, i64)],
    ) -> CheckResult {
        MultiQueryEngine::explore_pinned(self, prepared, std::slice::from_ref(query), pins)
            .result(0)
            .expect("a batch of one always settles")
    }
}

/// An optimised, encoded and prepared model valid for every path-query batch
/// whose statement union is a subset of the union it was built with.
///
/// Built by [`ModelChecker::prepare_shared`]; consumed by
/// [`ModelChecker::check_many_shared`].  Owning (rather than borrowing) the
/// model makes it the payload of the pipeline's `PreparedModelArtifact`:
/// cached once per `(function, checker configuration)` and shared across
/// path bounds, repeated analyses and threads.
#[derive(Debug, Clone)]
pub struct SharedCheckModel {
    prepared: OwnedPreparedModel,
    opt_report: OptReport,
    union: HashSet<StmtId>,
}

impl SharedCheckModel {
    /// The encoded transition-system model.
    pub fn model(&self) -> &Model {
        self.prepared.model()
    }

    /// Whether the shared model is valid for `query` (every statement the
    /// query mentions was in the preserve union the model was verified with).
    pub fn covers(&self, query: &PathQuery) -> bool {
        query.stmts().is_subset(&self.union)
    }
}

/// How an arena entry materialises its state.
#[derive(Debug, Clone, Copy)]
enum EntryKind {
    /// The entry owns the top packed block verbatim.
    Concrete,
    /// Lazy domain split: the entry owns the top packed block as the *parent*
    /// valuation and materialises one child per pop, assigning `next` to
    /// variable `var`, until `next` passes `hi`.
    Split { var: u32, next: i64, hi: i64 },
}

/// One entry of the packed state stack.
#[derive(Debug, Clone, Copy)]
struct StateEntry {
    loc: u32,
    monitor: u32,
    depth: u64,
    kind: EntryKind,
}

/// Popped state metadata.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PoppedState {
    pub(crate) loc: u32,
    pub(crate) monitor: u32,
    pub(crate) depth: u64,
}

/// Stack-disciplined arena of packed states: entry metadata in one vector,
/// values and known-bit masks in parallel flat arrays.  Push appends, pop
/// copies into caller scratch and truncates — no per-state allocation ever.
/// Domain splits are stored as a single parent block plus a value cursor, so
/// splitting over a 16-bit domain costs one block, not 65536.
#[derive(Debug)]
pub(crate) struct StateArena {
    vars: usize,
    words: usize,
    entries: Vec<StateEntry>,
    values: Vec<i64>,
    known: Vec<u64>,
}

impl StateArena {
    pub(crate) fn new(vars: usize, words: usize) -> StateArena {
        // Pre-size for a few hundred live states; grows amortised afterwards.
        let prealloc = 256;
        StateArena {
            vars,
            words,
            entries: Vec::with_capacity(prealloc),
            values: Vec::with_capacity(prealloc * vars),
            known: Vec::with_capacity(prealloc * words),
        }
    }

    pub(crate) fn push(&mut self, loc: u32, monitor: u32, depth: u64, vals: &[i64], known: &[u64]) {
        debug_assert_eq!(vals.len(), self.vars);
        debug_assert_eq!(known.len(), self.words);
        self.entries.push(StateEntry {
            loc,
            monitor,
            depth,
            kind: EntryKind::Concrete,
        });
        self.values.extend_from_slice(vals);
        self.known.extend_from_slice(known);
    }

    /// Pushes a lazy split over `var`'s domain `lo..=hi` of the given parent
    /// valuation.  Children pop in ascending value order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push_split(
        &mut self,
        loc: u32,
        monitor: u32,
        depth: u64,
        vals: &[i64],
        known: &[u64],
        var: u32,
        lo: i64,
        hi: i64,
    ) {
        debug_assert!(lo <= hi);
        self.entries.push(StateEntry {
            loc,
            monitor,
            depth,
            kind: EntryKind::Split { var, next: lo, hi },
        });
        self.values.extend_from_slice(vals);
        self.known.extend_from_slice(known);
    }

    pub(crate) fn pop(&mut self, vals: &mut [i64], known: &mut [u64]) -> Option<PoppedState> {
        let entry = self.entries.last_mut()?;
        let popped = PoppedState {
            loc: entry.loc,
            monitor: entry.monitor,
            depth: entry.depth,
        };
        let vbase = self.values.len() - self.vars;
        let kbase = self.known.len() - self.words;
        vals.copy_from_slice(&self.values[vbase..]);
        known.copy_from_slice(&self.known[kbase..]);
        match &mut entry.kind {
            EntryKind::Concrete => {
                self.entries.pop();
                self.values.truncate(vbase);
                self.known.truncate(kbase);
            }
            EntryKind::Split { var, next, hi } => {
                let v = *var as usize;
                vals[v] = *next;
                known[v >> 6] |= 1 << (v & 63);
                if *next < *hi {
                    // More children to come: advance the cursor in place —
                    // the entry and its parent block stay on the stack, so a
                    // wide split costs one cursor bump per child, not a
                    // pop/re-push of the entry.
                    *next += 1;
                } else {
                    // Last child consumed the block.
                    self.entries.pop();
                    self.values.truncate(vbase);
                    self.known.truncate(kbase);
                }
            }
        }
        Some(popped)
    }
}

pub(crate) fn witness_packed(model: &Model, vals: &[i64], known: &[u64]) -> InputVector {
    let mut witness = InputVector::new();
    for (idx, var) in model.vars.iter().enumerate() {
        if var.role == VarRole::Input {
            let value = if known[idx >> 6] & (1 << (idx & 63)) != 0 {
                vals[idx]
            } else {
                var.domain.0.max(0).min(var.domain.1)
            };
            witness.set(var.name.clone(), value);
        }
    }
    witness
}

#[derive(Clone, Copy)]
pub(crate) enum Eval {
    Known(i64),
    Unknown(usize),
    Error,
}

/// Evaluates a transition's guard over a packed state, taking the
/// specialised [`FastGuard`] path for the common single-comparison shapes
/// and falling back to the pool walk otherwise.  Semantics are identical to
/// evaluating the pre-resolved guard expression (comparisons cannot fault).
#[inline]
pub(crate) fn eval_guard(
    pool: &ExprPool,
    t: &PreparedTransition,
    vals: &[i64],
    known: &[u64],
) -> Eval {
    match t.fast_guard {
        FastGuard::Always => Eval::Known(1),
        FastGuard::Cmp {
            var,
            op,
            rhs,
            negate,
        } => {
            let v = var as usize;
            if known[v >> 6] & (1 << (v & 63)) != 0 {
                let holds = match eval_op(op, vals[v], rhs) {
                    Ok(r) => r != 0,
                    Err(()) => unreachable!("comparisons cannot fault"),
                };
                Eval::Known(i64::from(holds != negate))
            } else {
                Eval::Unknown(v)
            }
        }
        FastGuard::Node(g) => eval_packed(pool, g, vals, known),
    }
}

/// Evaluates one binary operator of the search's expression language.
fn eval_op(op: BinOp, l: i64, r: i64) -> Result<i64, ()> {
    Ok(match op {
        BinOp::Add => l.wrapping_add(r),
        BinOp::Sub => l.wrapping_sub(r),
        BinOp::Mul => l.wrapping_mul(r),
        BinOp::Div => {
            if r == 0 {
                return Err(());
            }
            l.wrapping_div(r)
        }
        BinOp::Mod => {
            if r == 0 {
                return Err(());
            }
            l.wrapping_rem(r)
        }
        BinOp::Lt => i64::from(l < r),
        BinOp::Le => i64::from(l <= r),
        BinOp::Gt => i64::from(l > r),
        BinOp::Ge => i64::from(l >= r),
        BinOp::Eq => i64::from(l == r),
        BinOp::Ne => i64::from(l != r),
        BinOp::And => i64::from(l != 0 && r != 0),
        BinOp::Or => i64::from(l != 0 || r != 0),
        BinOp::BitAnd => l & r,
        BinOp::BitOr => l | r,
        BinOp::BitXor => l ^ r,
        BinOp::Shl => l.wrapping_shl((r & 63) as u32),
        BinOp::Shr => l.wrapping_shr((r & 63) as u32),
    })
}

fn eval_unop(op: UnOp, v: i64) -> i64 {
    match op {
        UnOp::Neg => v.wrapping_neg(),
        UnOp::Not => i64::from(v == 0),
        UnOp::BitNot => !v,
    }
}

/// Partial evaluation of a pool-flattened expression over a packed state.
pub(crate) fn eval_packed(pool: &ExprPool, id: NodeId, vals: &[i64], known: &[u64]) -> Eval {
    match pool.node(id) {
        INode::Int(v) => Eval::Known(v),
        INode::Var(idx) => {
            let idx = idx as usize;
            if known[idx >> 6] & (1 << (idx & 63)) != 0 {
                Eval::Known(vals[idx])
            } else {
                Eval::Unknown(idx)
            }
        }
        INode::UnknownVar => Eval::Error,
        INode::Unary { op, operand } => match eval_packed(pool, operand, vals, known) {
            Eval::Known(v) => Eval::Known(eval_unop(op, v)),
            other => other,
        },
        INode::Binary { op, lhs, rhs } => {
            let l = match eval_packed(pool, lhs, vals, known) {
                Eval::Known(v) => v,
                other => return other,
            };
            // Short-circuit.
            if op == BinOp::And && l == 0 {
                return Eval::Known(0);
            }
            if op == BinOp::Or && l != 0 {
                return Eval::Known(1);
            }
            let r = match eval_packed(pool, rhs, vals, known) {
                Eval::Known(v) => v,
                other => return other,
            };
            match eval_op(op, l, r) {
                Ok(v) => Eval::Known(v),
                Err(()) => Eval::Error,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmg_cfg::{build_cfg, enumerate_region_paths};
    use tmg_minic::parse_function;
    use tmg_minic::parse_program;
    use tmg_minic::Interpreter;

    fn checker() -> ModelChecker {
        ModelChecker::new()
    }

    fn paths_of(src: &str) -> (Function, Vec<tmg_cfg::PathSpec>) {
        let f = parse_function(src).expect("parse");
        let lowered = build_cfg(&f);
        let paths =
            enumerate_region_paths(&lowered.cfg, lowered.regions.root(), 10_000).expect("paths");
        (f, paths)
    }

    use tmg_minic::ast::Function;

    #[test]
    fn finds_witness_for_every_feasible_path_of_a_nested_if() {
        let src = r#"
            void f(char a __range(0, 4), char b __range(0, 4)) {
                if (a > 2) { if (b == 1) { x(); } else { y(); } } else { z(); }
            }
        "#;
        let (f, paths) = paths_of(src);
        assert_eq!(paths.len(), 3);
        for path in &paths {
            let result = checker().find_test_data(&f, &PathQuery::new(path.decisions.clone()));
            let witness = result.outcome.witness().expect("feasible path").clone();
            // Replay on the interpreter and confirm the path is taken.
            let program = parse_program(src).expect("parse");
            let out = Interpreter::new(&program).run("f", &witness).expect("run");
            assert!(path.matches_trace(&out.trace.branch_signature()));
        }
    }

    #[test]
    fn proves_contradictory_paths_infeasible() {
        // a cannot be both > 2 and < 1.
        let src = r#"
            void f(char a __range(0, 4)) {
                if (a > 2) { x(); }
                if (a < 1) { y(); }
            }
        "#;
        let (f, paths) = paths_of(src);
        // The Then/Then path is infeasible.
        let infeasible: Vec<_> = paths
            .iter()
            .filter(|p| p.decisions.iter().all(|(_, c)| *c == BranchChoice::Then))
            .collect();
        assert_eq!(infeasible.len(), 1);
        let result = checker().find_test_data(&f, &PathQuery::new(infeasible[0].decisions.clone()));
        assert!(result.outcome.is_infeasible());
        // Feasible ones are found.
        let feasible = paths
            .iter()
            .filter(|p| !p.decisions.iter().all(|(_, c)| *c == BranchChoice::Then))
            .count();
        assert_eq!(feasible, 3);
    }

    #[test]
    fn switch_paths_yield_matching_selector_values() {
        let src = r#"
            void f(char s __range(0, 5)) {
                switch (s) { case 0: a0(); break; case 3: a3(); break; default: d(); break; }
            }
        "#;
        let (f, paths) = paths_of(src);
        for path in &paths {
            let result = checker().find_test_data(&f, &PathQuery::new(path.decisions.clone()));
            let witness = result.outcome.witness().expect("feasible").clone();
            match path.decisions[0].1 {
                BranchChoice::Case(v) => assert_eq!(witness.get("s"), Some(v)),
                BranchChoice::Default => {
                    let s = witness.get("s").expect("s");
                    assert!(s != 0 && s != 3);
                }
                other => panic!("unexpected decision {other:?}"),
            }
        }
    }

    #[test]
    fn any_execution_query_is_trivially_feasible() {
        let f = parse_function("void f(int a) { if (a) { g(); } }").expect("parse");
        let result = checker().find_test_data(&f, &PathQuery::any_execution());
        assert!(result.outcome.witness().is_some());
    }

    #[test]
    fn loop_iteration_counts_can_be_forced() {
        let src = r#"
            void f(char n __range(0, 3)) {
                char i = 0;
                while (i < n) __bound(3) { i = i + 1; }
            }
        "#;
        let f = parse_function(src).expect("parse");
        let lowered = build_cfg(&f);
        let paths =
            enumerate_region_paths(&lowered.cfg, lowered.regions.root(), 100).expect("paths");
        assert_eq!(paths.len(), 4);
        for (k, path) in paths.iter().enumerate() {
            let result = checker().find_test_data(&f, &PathQuery::new(path.decisions.clone()));
            let witness = result.outcome.witness().expect("feasible").clone();
            // Path k iterates the loop `iterations` times; the witness must
            // request exactly that many.
            let iterations = path
                .decisions
                .iter()
                .filter(|(_, c)| *c == BranchChoice::LoopIterate)
                .count() as i64;
            assert_eq!(witness.get("n"), Some(iterations), "path {k}");
        }
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let src = "void f(int a, int b) { if (a == 12345 && b == 23456) { x(); } }";
        let f = parse_function(src).expect("parse");
        let mut paths = {
            let lowered = build_cfg(&f);
            enumerate_region_paths(&lowered.cfg, lowered.regions.root(), 10).expect("paths")
        };
        let then_path = paths.remove(0);
        let tight = ModelChecker::with_optimisations(Optimisations::none()).with_budget(1_000);
        let result = tight.find_test_data(&f, &PathQuery::new(then_path.decisions));
        assert_eq!(result.outcome, CheckOutcome::Unknown);
    }

    #[test]
    fn optimisations_reduce_search_cost() {
        // The dead store writes a value, not a read of an uninitialised
        // local: a read would split the naive search over all 256 values
        // and make it 17M states instead of 67k.
        let src = r#"
            void f(bool go, char speed __range(0, 2)) {
                char tmp; char unused; char dead;
                tmp = speed + 1;
                dead = speed + 2;
                if (go) { if (tmp == 3) { deep(); } else { shallow(); } } else { off(); }
            }
        "#;
        let (f, paths) = paths_of(src);
        let deep_path = paths
            .iter()
            .find(|p| {
                p.decisions.len() == 2 && p.decisions.iter().all(|(_, c)| *c == BranchChoice::Then)
            })
            .expect("deep path");
        let naive = ModelChecker::with_optimisations(Optimisations::none())
            .find_test_data(&f, &PathQuery::new(deep_path.decisions.clone()));
        let optimised = ModelChecker::with_optimisations(Optimisations::all())
            .find_test_data(&f, &PathQuery::new(deep_path.decisions.clone()));
        assert!(naive.outcome.witness().is_some());
        assert!(optimised.outcome.witness().is_some());
        assert!(
            optimised.stats.transitions_fired < naive.stats.transitions_fired,
            "optimised {} vs naive {}",
            optimised.stats.transitions_fired,
            naive.stats.transitions_fired
        );
        assert!(optimised.stats.state_bits < naive.stats.state_bits);
        assert!(optimised.stats.memory_estimate_bytes < naive.stats.memory_estimate_bytes);
    }

    #[test]
    fn statement_concatenation_shortens_witness_runs() {
        let src = r#"
            void f(bool go) {
                char a; char b; char c; char d;
                a = 1; b = 2; c = 3; d = 4;
                if (go) { x(); }
            }
        "#;
        let (f, paths) = paths_of(src);
        let path = PathQuery::new(paths[0].decisions.clone());
        let plain =
            ModelChecker::with_optimisations(Optimisations::none()).find_test_data(&f, &path);
        let concat = ModelChecker::with_optimisations(Optimisations {
            statement_concatenation: true,
            ..Optimisations::none()
        })
        .find_test_data(&f, &path);
        let plain_steps = plain.stats.witness_steps.expect("witness");
        let concat_steps = concat.stats.witness_steps.expect("witness");
        assert!(concat_steps < plain_steps, "{concat_steps} < {plain_steps}");
    }

    #[test]
    fn stats_are_populated() {
        let f = parse_function("void f(bool a) { if (a) { x(); } }").expect("parse");
        let result = checker().find_test_data(&f, &PathQuery::any_execution());
        assert!(result.stats.state_bits > 0);
        assert!(result.stats.model_transitions > 0);
        assert!(result.stats.states_created > 0);
        assert_eq!(
            result.stats.memory_estimate_bytes,
            result.stats.states_created * result.stats.state_bytes
        );
    }

    #[test]
    fn prepared_model_is_reusable_across_queries() {
        let src = r#"
            void f(char a __range(0, 4), char b __range(0, 4)) {
                if (a > 2) { if (b == 1) { x(); } else { y(); } } else { z(); }
            }
        "#;
        let (f, paths) = paths_of(src);
        // No statement of this function is removable, so the preserve-free
        // model is the one `find_test_data` builds for every query.
        let model = crate::encode::encode_function(&f, &Optimisations::all().encode_options());
        let prepared = PreparedModel::new(&model);
        let mc = ModelChecker::new();
        for path in &paths {
            let query = PathQuery::new(path.decisions.clone());
            let via_prepared = mc.check_prepared(&prepared, &query);
            let fresh = mc.find_test_data(&f, &query);
            assert_eq!(via_prepared.outcome, fresh.outcome);
            assert_eq!(
                CheckStats {
                    duration: Duration::ZERO,
                    ..via_prepared.stats
                },
                CheckStats {
                    duration: Duration::ZERO,
                    ..fresh.stats
                }
            );
        }
    }

    #[test]
    fn shared_model_batches_agree_with_check_many_and_per_query() {
        // The shared model is prepared once with the union of *every* branch
        // statement (as the pipeline caches it), then answers batches whose
        // unions are strict subsets — outcomes must match both `check_many`
        // and the per-query reference.
        let src = r#"
            void f(char a __range(0, 4), char b __range(0, 3)) {
                if (a > 2) { x(); }
                if (a < 1) { y(); }
                if (b == 2) { z(); } else { w(); }
            }
        "#;
        let (f, paths) = paths_of(src);
        assert!(paths.len() >= 6);
        let all_queries: Vec<PathQuery> = paths
            .iter()
            .map(|p| PathQuery::new(p.decisions.clone()))
            .collect();
        let union: HashSet<StmtId> = all_queries
            .iter()
            .flat_map(|q| q.stmts().iter().copied())
            .collect();
        let mc = ModelChecker::new();
        let shared = mc
            .prepare_shared(&f, union)
            .expect("shared optimisation holds for plain branch code");
        // Full batch and a sub-batch (subset union) both go through the
        // cached artifact.
        for queries in [&all_queries[..], &all_queries[..2]] {
            let via_shared = mc.check_many_shared(&f, &shared, queries);
            let via_many = mc.check_many(&f, queries);
            for ((s, m), q) in via_shared.iter().zip(&via_many).zip(queries) {
                assert_eq!(s.outcome, m.outcome, "shared vs check_many");
                let single = mc.find_test_data(&f, q);
                assert_eq!(s.outcome, single.outcome, "shared vs per-query");
            }
        }
        // A query outside the prepared union falls back without changing
        // verdicts.
        let foreign = PathQuery::new(vec![(StmtId(9999), BranchChoice::Then)]);
        assert!(!shared.covers(&foreign));
        let mixed = vec![all_queries[0].clone(), foreign.clone()];
        let via_shared = mc.check_many_shared(&f, &shared, &mixed);
        let via_many = mc.check_many(&f, &mixed);
        for (s, m) in via_shared.iter().zip(&via_many) {
            assert_eq!(s.outcome, m.outcome);
        }
        assert!(!shared.model().transitions.is_empty());
    }
}
