//! Multi-query reachability: explore the state space once, answer every
//! coverage query from the shared annotated graph.
//!
//! The test-generation phase asks the model checker dozens of near-identical
//! questions about *one* function — one [`PathQuery`] per residual coverage
//! goal.  Asking them one at a time repeats the same depth-first exploration
//! of the same transition system over and over; the only thing that differs
//! between queries is the path monitor riding along.  The
//! [`MultiQueryEngine`] runs the exploration once and lets every monitor ride
//! the same traversal.
//!
//! It is also the checker's only search loop: a single query
//! ([`ModelChecker::check_prepared`], [`ModelChecker::find_test_data`], the
//! slicing path's pinned witness completion) is explored as a batch of one.
//! Below, "a query's own search" means that batch of one: a lazily
//! splitting packed-arena DFS whose path monitor prunes a run at the first
//! wrong decision.
//!
//! # Decision signatures
//!
//! Each explored state carries a **decision-signature id**: an interned
//! summary of the branch decisions taken en route.  The signature is *not*
//! the literal decision sequence — that would distinguish every path and
//! defeat revisit deduplication — but the product of all per-query monitor
//! states it induces: for a batch of `N` queries, a signature is the vector
//! `m₁ … m_N` where `m_q` is how many of query `q`'s decisions have been
//! matched so far, or `DEAD` once the run has taken a wrong choice at a
//! branch query `q` expected next.  Two decision histories with the same
//! vector are indistinguishable to every query, now and forever, so the
//! vector is the exact quotient the queries induce on histories and the
//! signature lattice stays small.  A per-query slice-style relevance filter
//! keeps it smaller still: decisions at statements outside
//! [`PathQuery::stmts`] of every query in the batch never extend a signature
//! (they cannot advance or kill any monitor), so straight-line code and
//! unqueried branches leave the signature — and thus the dedup key —
//! untouched.
//!
//! # One sequential run
//!
//! The traversal is every query's own DFS run side by side, on one thread:
//! the same split order and the same depth budget.  The first completing
//! pop per query is therefore exactly the witness state that query's own
//! search reports.  The run ends when the frontier drains, when every query
//! is settled, or when its op cap trips.  It polls the checker's cancel
//! token every [`CANCEL_POLL_POPS`] pops; a fired token unwinds with
//! nothing published, never with partial resolutions.
//!
//! # Per-query budget accounting
//!
//! A query's own search charges two kinds of ops — states created and
//! transitions fired — against
//! [`ModelChecker::max_transitions`], and reports
//! [`CheckOutcome::Unknown`](crate::CheckOutcome::Unknown) when the budget
//! trips.  The shared traversal reproduces those counters *per query*
//! without per-query work: every op is charged to the signature it occurs
//! under (pushes and splits to the state's signature, fires to the
//! post-decision signature — a transition whose decision kills query `q` is
//! exactly the transition the query's own search prunes before counting),
//! and query `q`'s counter is the sum over signatures in which `q` is not
//! dead.  The counter at `q`'s first completion is therefore the value its
//! own search would have seen.  Four rules settle a query:
//!
//! - a completion gives Feasible, or Unknown when the counter at its pop
//!   had reached the budget;
//! - a counter at or over the budget gives a **certified Unknown**;
//! - otherwise, a run that tripped its cap gives no answer, and the caller
//!   falls back to a one-query search;
//! - a drained or all-settled run gives Infeasible.
//!
//! The shared run's cap is up to [`SHARED_BUDGET_FACTOR`] per-query
//! budgets.  A batch of one always settles: its cap is its own budget and
//! every op it spends is charged to it, so it stops within one pop's
//! expansion of the budget.
//!
//! Nothing is deduplicated: a revisit skip would save work that an
//! undeduped search counts, and the per-query budget attribution would no
//! longer match the query's own search.

use crate::cancel::CancelToken;
use crate::checker::{
    eval_guard, eval_packed, witness_packed, CheckOutcome, CheckResult, CheckStats, Eval,
    ModelChecker, PathQuery, StateArena,
};
use crate::metrics;
use crate::prepared::{PreparedModel, PreparedTransition};
use rustc_hash::FxHashMap;
use std::collections::HashSet;
use std::time::Instant;
use tmg_minic::ast::StmtId;
use tmg_minic::value::InputVector;

/// Monitor value marking a query that can no longer be completed on this
/// decision history (a wrong choice was taken at an expected branch).
const DEAD: u32 = u32::MAX;

/// Interned id of a decision signature (an index into [`SigLattice::vecs`]).
type SigId = u32;

/// The interned signature lattice of one exploration run, including the
/// per-signature op counters that reconstruct every query's private budget.
struct SigLattice {
    /// Monitor vector of each signature (`decisions matched` per query, or
    /// [`DEAD`]).
    vecs: Vec<Box<[u32]>>,
    /// Vector → id interning table.
    intern: FxHashMap<Box<[u32]>, SigId>,
    /// Queries each signature completes (`m_q == len(q)`).
    completes: Vec<Vec<u32>>,
    /// Whether a signature still completes a query that has no recorded
    /// resolution (cleared on first pop so later pops skip the scan).
    pending: Vec<bool>,
    /// Budget ops (states created + transitions fired) charged under each
    /// signature.
    ops: Vec<u64>,
    /// Liveness cache: whether the signature still matters to any unsettled
    /// query (some unsettled query is neither dead nor settled under it).
    live: Vec<bool>,
    /// Epoch at which each `live` entry was computed.
    live_epoch: Vec<u64>,
    /// Memoised signature step per `(signature, relevant transition)`, as a
    /// flat `signatures × relevant-transitions` array (sentinel
    /// [`SigId::MAX`]): the hot loop consults it once per fired relevant
    /// transition, so it must be an index, not a hash lookup.  Rows cover
    /// only the transitions the batch's queries mention — irrelevant
    /// transitions never step a signature, and a row per *model* transition
    /// would waste memory proportional to function size.
    step_memo: Vec<SigId>,
    /// Relevant transitions per signature row of `step_memo`.
    relevant_n: usize,
}

impl SigLattice {
    fn new(queries: &[PathQuery], relevant_n: usize) -> SigLattice {
        let mut lattice = SigLattice {
            vecs: Vec::new(),
            intern: FxHashMap::default(),
            completes: Vec::new(),
            pending: Vec::new(),
            ops: Vec::new(),
            live: Vec::new(),
            live_epoch: Vec::new(),
            step_memo: Vec::new(),
            relevant_n,
        };
        // Root signature: nothing matched yet.  Queries of length zero (the
        // `any_execution` probe) are complete right here.
        lattice.intern_vec(vec![0u32; queries.len()].into_boxed_slice(), queries);
        lattice
    }

    fn intern_vec(&mut self, vec: Box<[u32]>, queries: &[PathQuery]) -> SigId {
        if let Some(&id) = self.intern.get(&vec) {
            return id;
        }
        let id = self.vecs.len() as SigId;
        let completes: Vec<u32> = queries
            .iter()
            .enumerate()
            .filter(|(q, query)| vec[*q] as usize == query.decisions.len())
            .map(|(q, _)| q as u32)
            .collect();
        self.pending.push(!completes.is_empty());
        self.completes.push(completes);
        self.ops.push(0);
        self.live.push(true);
        self.live_epoch.push(0);
        self.step_memo.resize(
            self.vecs.len().wrapping_add(1) * self.relevant_n,
            SigId::MAX,
        );
        self.intern.insert(vec.clone(), id);
        self.vecs.push(vec);
        id
    }

    /// Whether `sig` still matters to any query alive in this run,
    /// recomputing the cached answer when resolutions have advanced since it
    /// was last checked.  A signature in which every alive query is dead
    /// heads a subtree that no query's own search would explore (each of
    /// them pruned it at or before the killing decision), so the traversal
    /// prunes it too — the op attribution of alive queries is untouched by
    /// construction.
    fn is_live(&mut self, sig: SigId, alive: &[bool], epoch: u64) -> bool {
        let i = sig as usize;
        if self.live_epoch[i] != epoch {
            self.live_epoch[i] = epoch;
            self.live[i] = self.vecs[i]
                .iter()
                .zip(alive)
                .any(|(&m, &alive)| alive && m != DEAD);
        }
        self.live[i]
    }

    /// Steps `sig` over the decision of transition `t`, interning the
    /// successor on first encounter.
    fn step(
        &mut self,
        sig: SigId,
        dense: u32,
        t: &PreparedTransition,
        queries: &[PathQuery],
    ) -> SigId {
        let key = sig as usize * self.relevant_n + dense as usize;
        let memoised = self.step_memo[key];
        if memoised != SigId::MAX {
            return memoised;
        }
        let (stmt, choice) = t.decision.expect("stepped transitions carry a decision");
        let cur = self.vecs[sig as usize].clone();
        let mut next_vec: Option<Box<[u32]>> = None;
        for (q, query) in queries.iter().enumerate() {
            let m = cur[q];
            if m == DEAD || m as usize == query.decisions.len() {
                continue;
            }
            let (expected_stmt, expected_choice) = query.decisions[m as usize];
            if expected_stmt == stmt {
                let stepped = if expected_choice == choice {
                    m + 1
                } else {
                    DEAD
                };
                next_vec.get_or_insert_with(|| cur.clone())[q] = stepped;
            }
        }
        let next = match next_vec {
            None => sig,
            Some(vec) => self.intern_vec(vec, queries),
        };
        self.step_memo[key] = next;
        next
    }

    /// Query `q`'s op counter: the ops charged under every signature in
    /// which `q` is still matchable or complete.
    fn query_ops(&self, q: usize) -> u64 {
        self.ops
            .iter()
            .zip(&self.vecs)
            .filter(|(ops, vec)| **ops > 0 && vec[q] != DEAD)
            .map(|(ops, _)| *ops)
            .sum()
    }

    /// All queries' op counters in one pass over the charged signatures.
    fn query_ops_all(&self, out: &mut [u64]) {
        out.fill(0);
        for (ops, vec) in self.ops.iter().zip(&self.vecs) {
            if *ops == 0 {
                continue;
            }
            for (q, &m) in vec.iter().enumerate() {
                if m != DEAD {
                    out[q] += *ops;
                }
            }
        }
    }
}

/// How the shared exploration settled one query.
#[derive(Debug, Clone)]
enum Resolution {
    /// First completing pop under the per-query budget: witness inputs and
    /// witness run length.
    Feasible(InputVector, u64),
    /// The query's reconstructed op counter hit the per-query budget before
    /// a completing pop: its own search would have reported Unknown.
    Unknown,
    /// The frontier drained with the query's counter under budget and no
    /// completing pop.
    Infeasible,
}

/// Multiplier on [`ModelChecker::max_transitions`] bounding the shared
/// exploration: doing the work of up to `n` queries, it may spend up to
/// `min(n, 4)` per-query budgets before giving the rest back to per-query
/// fallback.
const SHARED_BUDGET_FACTOR: u64 = 4;

/// Ops between certification sweeps (checking every open query's
/// reconstructed counter against the budget).
const SWEEP_INTERVAL: u64 = 1 << 20;

/// Pops between polls of the checker's cancel token.
const CANCEL_POLL_POPS: u64 = 4096;

/// One query's first completion within the run.
struct Completion {
    witness: InputVector,
    depth: u64,
    /// The query's attributed op counter at the completing pop.
    ops_at_pop: u64,
}

/// Everything the traversal run produced.
struct RunOutput {
    /// First completion per query.
    completions: Vec<Option<Completion>>,
    states_created: u64,
    transitions_fired: u64,
    max_depth: u64,
    pops: u64,
    /// Whether the run hit its op cap with work left.
    tripped: bool,
}

/// Immutable context of the exploration run.
struct RunCtx<'a> {
    prepared: &'a PreparedModel<'a>,
    queries: &'a [PathQuery],
    /// Per model transition: its dense relevant-transition id, or
    /// `u32::MAX` when no query mentions its decision statement.
    relevant_dense: &'a [u32],
    vars_n: usize,
    words: usize,
    query_budget: u64,
    op_cap: u64,
    /// Maximum run length ([`ModelChecker::max_depth`]).
    max_depth: u64,
    /// The checker's cooperative cancellation token.
    cancel: &'a CancelToken,
}

/// The traversal: the packed-arena DFS with signature stepping, budget
/// attribution and liveness pruning.
fn run_exploration(
    ctx: &RunCtx<'_>,
    lattice: &mut SigLattice,
    arena: &mut StateArena,
    out: &mut RunOutput,
) {
    let model = ctx.prepared.model;
    let pool = &ctx.prepared.program.pool;
    let mut alive = vec![true; ctx.queries.len()];
    let mut open = alive.len();
    let mut epoch: u64 = 1;
    let mut next_sweep = SWEEP_INTERVAL;
    let mut next_cancel_poll = CANCEL_POLL_POPS;

    let mut cur_vals = vec![0i64; ctx.vars_n];
    let mut cur_known = vec![0u64; ctx.words];
    let mut child_vals = vec![0i64; ctx.vars_n];
    let mut child_known = vec![0u64; ctx.words];
    let mut enabled: Vec<usize> = Vec::with_capacity(8);
    let mut effect_cache: Vec<Eval> = Vec::with_capacity(8);
    let mut effect_offsets: Vec<usize> = Vec::with_capacity(8);

    if open == 0 {
        return;
    }

    loop {
        let total_ops = out.transitions_fired + out.states_created;
        if total_ops >= ctx.op_cap {
            out.tripped = true;
            return;
        }
        if total_ops >= next_sweep {
            // Certification sweep: any alive query whose attributed counter
            // has crossed its budget is spent — whatever the run finds for
            // it later can only confirm Unknown — so stop paying for it.
            // (Final verdicts recompute the exact counter; the sweep only
            // prunes.)
            next_sweep = total_ops + SWEEP_INTERVAL;
            for (q, alive_q) in alive.iter_mut().enumerate() {
                if *alive_q && lattice.query_ops(q) >= ctx.query_budget {
                    *alive_q = false;
                    open -= 1;
                    epoch += 1;
                }
            }
            if open == 0 {
                return;
            }
        }
        if out.pops >= next_cancel_poll {
            next_cancel_poll = out.pops + CANCEL_POLL_POPS;
            ctx.cancel.checkpoint();
        }

        let Some(entry) = arena.pop(&mut cur_vals, &mut cur_known) else {
            return;
        };
        out.pops += 1;
        out.max_depth = out.max_depth.max(entry.depth);
        let sig = entry.monitor;
        // Membership scan: does this state's signature complete a query that
        // is still alive?  Pops happen in the exact DFS order of each
        // query's own search, so the first hit per query *is* that search's
        // witness state.
        if lattice.pending[sig as usize] {
            for i in 0..lattice.completes[sig as usize].len() {
                let q = lattice.completes[sig as usize][i] as usize;
                if alive[q] {
                    out.completions[q] = Some(Completion {
                        witness: witness_packed(model, &cur_vals, &cur_known),
                        depth: entry.depth,
                        ops_at_pop: lattice.query_ops(q),
                    });
                    alive[q] = false;
                    open -= 1;
                    epoch += 1;
                }
            }
            lattice.pending[sig as usize] = false;
            if open == 0 {
                // Every query is settled; the rest of the traversal could
                // only prove infeasibilities nobody is waiting for.
                return;
            }
        }
        if !lattice.is_live(sig, &alive, epoch) {
            // Every alive query is dead here: no query's own search would
            // expand this state.
            continue;
        }
        if entry.depth >= ctx.max_depth {
            continue;
        }
        let transitions = &ctx.prepared.program.outgoing[entry.loc as usize];
        if transitions.is_empty() {
            continue;
        }

        // Enabled-set computation and lazy splitting: the first unknown
        // variable a guard or an enabled transition's effect reads splits
        // the state over its domain.
        let mut split_var: Option<usize> = None;
        enabled.clear();
        for (i, t) in transitions.iter().enumerate() {
            match eval_guard(pool, t, &cur_vals, &cur_known) {
                Eval::Known(v) => {
                    if v != 0 {
                        enabled.push(i);
                    }
                }
                Eval::Unknown(var) => {
                    split_var = Some(var);
                    break;
                }
                Eval::Error => {}
            }
        }
        effect_cache.clear();
        effect_offsets.clear();
        if split_var.is_none() {
            'effects: for &i in &enabled {
                effect_offsets.push(effect_cache.len());
                for &(_, e) in &transitions[i].effect {
                    let value = eval_packed(pool, e, &cur_vals, &cur_known);
                    if let Eval::Unknown(var) = value {
                        split_var = Some(var);
                        break 'effects;
                    }
                    effect_cache.push(value);
                }
            }
        }
        if let Some(var) = split_var {
            let (lo, hi) = model.vars[var].domain;
            out.states_created += model.vars[var].domain_size();
            lattice.ops[sig as usize] += model.vars[var].domain_size();
            arena.push_split(
                entry.loc,
                sig,
                entry.depth,
                &cur_vals,
                &cur_known,
                var as u32,
                lo,
                hi,
            );
            continue;
        }
        // Fire enabled transitions (in reverse so the first is explored
        // first by the DFS).  Unlike a one-query monitor there is no
        // pruning: a wrong decision only kills the affected monitors inside
        // the signature — the run stays interesting to the other queries,
        // and the fire/push ops are charged to the post-decision signature,
        // which is exactly the set of queries whose own search would have
        // paid for them.
        for pos in (0..enabled.len()).rev() {
            let t: &PreparedTransition = &transitions[enabled[pos]];
            let dense = ctx.relevant_dense[t.index as usize];
            let sig_next = if dense != u32::MAX {
                lattice.step(sig, dense, t, ctx.queries)
            } else {
                sig
            };
            if sig_next != sig && !lattice.is_live(sig_next, &alive, epoch) {
                // The decision just killed the last alive query that was
                // still matchable on this run: every query's own search
                // prunes this transition (at this decision or an earlier
                // one), so the shared traversal does too, and no alive
                // query's op counter is owed anything for it.
                continue;
            }
            child_vals.copy_from_slice(&cur_vals);
            child_known.copy_from_slice(&cur_known);
            let mut failed = false;
            let cached = &effect_cache[effect_offsets[pos]..];
            for (&(target, _), value) in t.effect.iter().zip(cached) {
                match *value {
                    Eval::Known(v) => {
                        let target = target as usize;
                        if target >= ctx.vars_n {
                            failed = true;
                            break;
                        }
                        child_vals[target] = model.vars[target].ty.wrap(v);
                        child_known[target >> 6] |= 1 << (target & 63);
                    }
                    Eval::Unknown(_) | Eval::Error => {
                        failed = true;
                        break;
                    }
                }
            }
            if failed {
                continue;
            }
            out.transitions_fired += 1;
            out.states_created += 1;
            lattice.ops[sig_next as usize] += 2;
            arena.push(t.to, sig_next, entry.depth + 1, &child_vals, &child_known);
        }
    }
}

/// The annotated result of one shared exploration, ready to answer any of
/// the queries it was explored for.
#[derive(Debug)]
pub struct MultiQueryEngine {
    /// Per query: how the shared exploration settled it (`None` = give the
    /// query back to per-query search).
    resolutions: Vec<Option<Resolution>>,
    /// Cost of the shared exploration.
    stats: CheckStats,
    /// Number of distinct decision signatures encountered.
    signatures: usize,
}

impl MultiQueryEngine {
    /// Explores `prepared`'s state space once and settles every query it can
    /// within `min(queries, 4)` multiples of `checker`'s per-query budget
    /// (see the module docs).
    pub fn explore(
        checker: &ModelChecker,
        prepared: &PreparedModel<'_>,
        queries: &[PathQuery],
    ) -> MultiQueryEngine {
        Self::explore_pinned(checker, prepared, queries, &[])
    }

    /// The exploration, with `(state-vector index, value)` pairs *pinned*
    /// in the initial state: the search never splits over a pinned variable
    /// and every witness carries the pinned values.  Only the slicing
    /// path's witness completion pins anything.
    ///
    /// A batch of one always settles: its op cap is `min(1, 4)` budgets,
    /// exactly its query's budget, and every op is charged to that query
    /// (an op under which the query is dead is pruned before it is
    /// counted), so a run that trips the cap has spent the budget and
    /// certifies Unknown.  Nothing is left to a fallback search.
    pub(crate) fn explore_pinned(
        checker: &ModelChecker,
        prepared: &PreparedModel<'_>,
        queries: &[PathQuery],
        pins: &[(usize, i64)],
    ) -> MultiQueryEngine {
        checker.cancel.checkpoint();
        let start = Instant::now();
        let model = prepared.model;
        let vars_n = model.vars.len();
        let words = vars_n.div_ceil(64).max(1);

        // Relevance filter: transitions whose decision statement no query
        // mentions can never move a monitor, so they skip signature stepping
        // entirely.
        let relevant_stmts: HashSet<StmtId> = queries
            .iter()
            .flat_map(|q| q.stmts().iter().copied())
            .collect();
        let mut relevant_dense = vec![u32::MAX; model.transitions.len()];
        let mut relevant_n: u32 = 0;
        for transitions in &prepared.program.outgoing {
            for t in transitions {
                if let Some((stmt, _)) = t.decision {
                    if relevant_stmts.contains(&stmt) {
                        relevant_dense[t.index as usize] = relevant_n;
                        relevant_n += 1;
                    }
                }
            }
        }

        let query_budget = checker.max_transitions;
        let ctx = RunCtx {
            prepared,
            queries,
            relevant_dense: &relevant_dense,
            vars_n,
            words,
            query_budget,
            op_cap: query_budget
                .saturating_mul(SHARED_BUDGET_FACTOR.min(queries.len().max(1) as u64)),
            max_depth: checker.max_depth,
            cancel: &checker.cancel,
        };

        let mut lattice = SigLattice::new(queries, relevant_n as usize);
        let mut arena = StateArena::new(vars_n, words);
        {
            let mut vals = vec![0i64; vars_n];
            let mut known = vec![0u64; words];
            for (i, var) in model.vars.iter().enumerate() {
                if let Some(init) = var.init {
                    vals[i] = init;
                    known[i >> 6] |= 1 << (i & 63);
                }
            }
            for &(idx, value) in pins {
                if idx < vars_n {
                    vals[idx] = value;
                    known[idx >> 6] |= 1 << (idx & 63);
                }
            }
            arena.push(model.initial.index() as u32, 0, 0, &vals, &known);
        }
        let mut out = RunOutput {
            completions: (0..queries.len()).map(|_| None).collect(),
            states_created: 1,
            transitions_fired: 0,
            max_depth: 0,
            pops: 0,
            tripped: false,
        };
        lattice.ops[0] += 1;
        {
            let _span = tmg_obs::span("checker:explore");
            run_exploration(&ctx, &mut lattice, &mut arena, &mut out);
        }
        checker.cancel.checkpoint();
        let mut query_ops = vec![0u64; queries.len()];
        lattice.query_ops_all(&mut query_ops);
        if queries.len() == 1 {
            // A batch of one charges every op to its query (see above),
            // which is what makes it always settle.
            debug_assert_eq!(query_ops[0], out.states_created + out.transitions_fired);
        }

        metrics::add_states_explored(out.pops);
        let stats = CheckStats {
            transitions_fired: out.transitions_fired,
            states_created: out.states_created,
            max_depth: out.max_depth,
            state_bits: model.state_bits(),
            state_bytes: model.state_bytes(),
            memory_estimate_bytes: out.states_created * model.state_bytes(),
            witness_steps: None,
            model_transitions: model.transitions.len(),
            model_vars: model.vars.len(),
            duration: start.elapsed(),
        };
        let tripped = out.tripped;
        let resolutions = out
            .completions
            .into_iter()
            .zip(query_ops)
            .map(|(completion, ops)| match completion {
                Some(c) if c.ops_at_pop < query_budget => {
                    Some(Resolution::Feasible(c.witness, c.depth))
                }
                Some(_) => Some(Resolution::Unknown),
                None if ops >= query_budget => Some(Resolution::Unknown),
                None if tripped => None,
                None => Some(Resolution::Infeasible),
            })
            .collect();
        MultiQueryEngine {
            resolutions,
            stats,
            signatures: lattice.vecs.len(),
        }
    }

    /// Number of distinct decision signatures the exploration encountered.
    pub fn signature_count(&self) -> usize {
        self.signatures
    }

    /// The outcome for query `q`, or `None` when the shared budget ran out
    /// before the query settled (the caller should fall back to per-query
    /// search).
    pub fn outcome(&self, q: usize) -> Option<CheckOutcome> {
        self.resolutions[q].as_ref().map(|r| match r {
            Resolution::Feasible(witness, steps) => CheckOutcome::Feasible {
                witness: witness.clone(),
                steps: *steps,
            },
            Resolution::Unknown => CheckOutcome::Unknown,
            Resolution::Infeasible => CheckOutcome::Infeasible,
        })
    }

    /// The full [`CheckResult`] for query `q` (outcome plus the shared
    /// exploration's cost statistics), or `None` when unresolved.
    pub fn result(&self, q: usize) -> Option<CheckResult> {
        let outcome = self.outcome(q)?;
        let mut stats = self.stats.clone();
        stats.witness_steps = match &outcome {
            CheckOutcome::Feasible { steps, .. } => Some(*steps),
            _ => None,
        };
        Some(CheckResult {
            outcome,
            stats,
            opt_report: Default::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::{catch_cancel, Cancelled};
    use crate::encode::encode_function;
    use crate::opt::Optimisations;
    use std::time::Duration;
    use tmg_cfg::{build_cfg, enumerate_region_paths};
    use tmg_minic::parse_function;

    fn all_queries(src: &str) -> (tmg_minic::Function, Vec<PathQuery>) {
        let f = parse_function(src).expect("parse");
        let lowered = build_cfg(&f);
        let paths =
            enumerate_region_paths(&lowered.cfg, lowered.regions.root(), 10_000).expect("paths");
        let queries = paths
            .into_iter()
            .map(|p| PathQuery::new(p.decisions))
            .collect();
        (f, queries)
    }

    fn assert_batch_matches_single(src: &str) {
        let (f, queries) = all_queries(src);
        let checker = ModelChecker::new();
        let batched = checker.check_many(&f, &queries);
        assert_eq!(batched.len(), queries.len());
        for (query, result) in queries.iter().zip(&batched) {
            let single = checker.find_test_data(&f, query);
            assert_eq!(
                result.outcome, single.outcome,
                "N-query batch and one-query batch outcomes diverge on {src} for {query:?}"
            );
        }
    }

    #[test]
    fn batch_matches_single_on_nested_ifs() {
        assert_batch_matches_single(
            r#"
            void f(char a __range(0, 4), char b __range(0, 4)) {
                if (a > 2) { if (b == 1) { x(); } else { y(); } } else { z(); }
            }
        "#,
        );
    }

    #[test]
    fn batch_matches_single_with_infeasible_paths() {
        assert_batch_matches_single(
            r#"
            void f(char a __range(0, 4)) {
                if (a > 2) { x(); }
                if (a < 1) { y(); }
            }
        "#,
        );
    }

    #[test]
    fn batch_matches_single_on_switches_and_loops() {
        assert_batch_matches_single(
            r#"
            void f(char s __range(0, 5), char n __range(0, 3)) {
                char i = 0;
                switch (s) { case 0: a0(); break; case 3: a3(); break; default: d(); break; }
                while (i < n) __bound(3) { i = i + 1; }
            }
        "#,
        );
    }

    #[test]
    fn batch_matches_single_on_needle_guards() {
        assert_batch_matches_single(
            r#"
            void f(int key __range(0, 3000), char mode __range(0, 2)) {
                if (key == 1234) { hit(); }
                if (mode > 1) { fast(); } else { slow(); }
                if (key < 0) { never(); }
            }
        "#,
        );
    }

    #[test]
    fn mixed_batches_with_any_execution_queries_agree() {
        let (f, mut queries) =
            all_queries("void f(char a __range(0, 3)) { if (a > 1) { x(); } else { y(); } }");
        queries.push(PathQuery::any_execution());
        let checker = ModelChecker::new();
        let batched = checker.check_many(&f, &queries);
        for (query, result) in queries.iter().zip(&batched) {
            assert_eq!(result.outcome, checker.find_test_data(&f, query).outcome);
        }
    }

    #[test]
    fn signature_lattice_stays_small_on_unqueried_branches() {
        // Only the first branch is queried: the second must not contribute
        // signatures (relevance filter), so the lattice holds just the
        // monitor states of the queried branch.
        let src = r#"
            void f(char a __range(0, 3), char b __range(0, 3)) {
                if (a > 1) { x(); } else { y(); }
                if (b > 1) { p(); } else { q(); }
            }
        "#;
        let (f, queries) = all_queries(src);
        let first_branch: Vec<PathQuery> = queries
            .iter()
            .map(|q| PathQuery::new(q.decisions[..1].to_vec()))
            .take(2)
            .collect();
        let model = encode_function(&f, &Optimisations::all().encode_options());
        let prepared = PreparedModel::new(&model);
        let engine = MultiQueryEngine::explore(&ModelChecker::new(), &prepared, &first_branch);
        // Root, each query advanced, each query dead — the product lattice of
        // two one-decision monitors is at most 4 reachable vectors here.
        assert!(
            engine.signature_count() <= 4,
            "lattice blew up: {} signatures",
            engine.signature_count()
        );
        assert!(engine.outcome(0).is_some());
    }

    #[test]
    fn budget_exhaustion_certifies_unknown_like_the_single_query_engine() {
        let src = "void f(int a, int b) { if (a == 12345 && b == 23456) { x(); } }";
        let (f, queries) = all_queries(src);
        let tight = ModelChecker::with_optimisations(Optimisations::none()).with_budget(1_000);
        let model = encode_function(&f, &Optimisations::none().encode_options());
        let prepared = PreparedModel::new(&model);
        let engine = MultiQueryEngine::explore(&tight, &prepared, &queries);
        // A 1k budget cannot settle a 2^32 input space: the very first domain
        // split charges every query past its budget, so the engine certifies
        // Unknown for all of them without re-running any search.
        for q in 0..queries.len() {
            assert_eq!(engine.outcome(q), Some(CheckOutcome::Unknown));
        }
        // ... which is exactly what the per-query searches report.
        let results = tight.check_many(&f, &queries);
        for (query, result) in queries.iter().zip(&results) {
            assert_eq!(result.outcome, tight.find_test_data(&f, query).outcome);
        }
    }

    #[test]
    fn preserve_sensitive_batches_fall_back_and_still_agree() {
        // The `if (dbg > 0)` branch only survives dead-code elimination when
        // a query names it, so no shared model serves both queries; check_many
        // must fall back to per-query search and still agree.
        let src = "void f(int dbg __range(0, 1), char a __range(0, 2)) { int c; if (dbg > 0) { c = 1; } if (a > 1) { x(); } }";
        let (f, queries) = all_queries(src);
        assert!(queries.len() >= 4);
        let checker = ModelChecker::new();
        let batched = checker.check_many(&f, &queries);
        for (query, result) in queries.iter().zip(&batched) {
            assert_eq!(result.outcome, checker.find_test_data(&f, query).outcome);
        }
    }

    #[test]
    fn solo_batches_answer_like_the_single_query_engine() {
        // A solo batch on a shared model skips slicing and explores the
        // cached model directly, exactly as `check_prepared` does.
        let (f, queries) =
            all_queries("void f(char a __range(0, 3)) { if (a > 1) { x(); } else { y(); } }");
        let checker = ModelChecker::new();
        let union = queries
            .iter()
            .flat_map(|q| q.stmts().iter().copied())
            .collect();
        let shared = checker.prepare_shared(&f, union).expect("shared model");
        let prepared = PreparedModel::new(shared.model());
        for query in &queries {
            let solo = checker.check_many_shared(&f, &shared, std::slice::from_ref(query));
            let direct = checker.check_prepared(&prepared, query);
            assert_eq!(solo[0].outcome, direct.outcome);
            assert_eq!(solo[0].stats.states_created, direct.stats.states_created);
            assert_eq!(
                solo[0].outcome,
                checker.find_test_data(&f, query).outcome,
                "a one-query batch must cost and answer like the plain search"
            );
        }
    }

    #[test]
    fn one_query_batches_always_settle_and_charge_every_op_to_their_query() {
        // The op cap of a batch of one is its query's budget and every op is
        // charged to that query, so at any budget the search settles, and it
        // reports Unknown exactly when its total op count reached the
        // budget.
        let (f, queries) = wide_fixture();
        let model = encode_function(&f, &Optimisations::all().encode_options());
        let prepared = PreparedModel::new(&model);
        let mut verdicts = [0usize; 3];
        for budget in [1, 100, 20_000, 40_000, 60_000, 1 << 20] {
            let checker = ModelChecker::new().with_budget(budget);
            for query in &queries {
                let engine =
                    MultiQueryEngine::explore(&checker, &prepared, std::slice::from_ref(query));
                let result = engine.result(0).expect("a batch of one always settles");
                let total = result.stats.states_created + result.stats.transitions_fired;
                let unknown = result.outcome == CheckOutcome::Unknown;
                assert_eq!(unknown, total >= budget, "budget {budget}, {total} ops");
                verdicts[match result.outcome {
                    CheckOutcome::Feasible { .. } => 0,
                    CheckOutcome::Infeasible => 1,
                    CheckOutcome::Unknown => 2,
                }] += 1;
            }
        }
        assert!(verdicts.iter().all(|&n| n > 0), "{verdicts:?}");
    }

    #[test]
    fn a_fired_deadline_unwinds_a_long_search_from_inside_the_loop() {
        // Four unknown locals read before any branch: 256^4 valuations per
        // input, so the search stops only at its 50M-op budget, seconds
        // away even in release.  The token fires after 5 ms and is polled
        // only inside the loop from then on.
        let src = r#"
            void f(bool go, char speed __range(0, 2)) {
                char tmp; char a; char b; char c; char d;
                tmp = speed + 1;
                a = a + 1; b = b + 1; c = c + 1; d = d + 1;
                if (go) { if (tmp == 3) { deep(); } else { shallow(); } } else { off(); }
            }
        "#;
        let (f, queries) = all_queries(src);
        let deadline = Instant::now() + Duration::from_millis(5);
        let checker = ModelChecker::with_optimisations(Optimisations::none())
            .with_cancel(CancelToken::with_deadline(deadline));
        let start = Instant::now();
        let result = catch_cancel(|| checker.find_test_data(&f, &queries[0]));
        let elapsed = start.elapsed();
        assert_eq!(
            result,
            Err(Cancelled),
            "a cancelled search publishes nothing"
        );
        assert!(
            elapsed < Duration::from_secs(1),
            "unwound after {elapsed:?}"
        );
    }

    #[test]
    fn an_unfired_deadline_changes_neither_outcome_nor_statistics() {
        let (f, queries) = wide_fixture();
        let model = encode_function(&f, &Optimisations::all().encode_options());
        let prepared = PreparedModel::new(&model);
        let plain = ModelChecker::new();
        let far = plain.clone().with_cancel(CancelToken::with_deadline(
            Instant::now() + Duration::from_secs(3600),
        ));
        let timeless = |mut r: CheckResult| {
            r.stats.duration = Duration::ZERO;
            r
        };
        let mut polled = 0;
        for query in &queries {
            let a = timeless(plain.check_prepared(&prepared, query));
            let b = timeless(far.check_prepared(&prepared, query));
            assert_eq!(a, b, "{:?}", query.decisions);
            // A drained search popped every state it created.
            if a.outcome == CheckOutcome::Infeasible && a.stats.states_created > CANCEL_POLL_POPS {
                polled += 1;
            }
        }
        assert!(polled > 0, "some search runs past a cancel poll");
        let a = MultiQueryEngine::explore(&plain, &prepared, &queries);
        let b = MultiQueryEngine::explore(&far, &prepared, &queries);
        for q in 0..queries.len() {
            assert_eq!(a.result(q).map(timeless), b.result(q).map(timeless));
        }
    }

    #[test]
    fn shared_stats_report_one_exploration() {
        let (f, queries) = all_queries(
            "void f(char a __range(0, 7)) { if (a > 3) { x(); } if (a == 2) { y(); } }",
        );
        let checker = ModelChecker::new();
        let batched = checker.check_many(&f, &queries);
        let per_query_total: u64 = queries
            .iter()
            .map(|q| checker.find_test_data(&f, q).stats.states_created)
            .sum();
        // Every batched result reports the same shared exploration, whose
        // state count undercuts the per-query total.
        assert!(batched[0].stats.states_created <= per_query_total);
        assert!(batched
            .windows(2)
            .all(|w| w[0].stats.states_created == w[1].stats.states_created));
    }

    /// A function with one 0..=20000 split at the first guard read.
    fn wide_fixture() -> (tmg_minic::Function, Vec<PathQuery>) {
        all_queries(
            r#"
            void f(int key __range(0, 20000), char mode __range(0, 3)) {
                if (key == 1234) { h1(); }
                if (key == 19999) { h2(); }
                if (mode > 1) { fast(); } else { slow(); }
            }
        "#,
        )
    }

    #[test]
    fn wide_batch_matches_single_query_results() {
        let (f, queries) = wide_fixture();
        let checker = ModelChecker::new();
        let model = encode_function(&f, &Optimisations::all().encode_options());
        let prepared = PreparedModel::new(&model);
        let engine = MultiQueryEngine::explore(&checker, &prepared, &queries);
        for (i, query) in queries.iter().enumerate() {
            let single = checker.check_prepared(&prepared, query);
            assert_eq!(
                engine.outcome(i).expect("settled"),
                single.outcome,
                "batch vs single on {:?}",
                query.decisions
            );
        }
    }
}
