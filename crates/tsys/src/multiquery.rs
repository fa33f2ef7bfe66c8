//! Multi-query reachability: explore the state space once, answer every
//! coverage query from the shared annotated graph — in parallel.
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
//! # Seed, then shards
//!
//! The traversal is every query's own DFS run side by side (same split
//! order, same depth budget).  Small explorations run it sequentially to
//! the end.  A large exploration runs a
//! sequential **seed phase** up to a fixed op budget ([`SHARD_SEED_OPS`] —
//! thread-count-independent, so the cut is deterministic), then snapshots
//! the DFS frontier into an ordered list of **shards**: each arena entry
//! becomes a work item, and a pending lazy domain split is cut into
//! ascending value ranges.  Shard order is exactly the sequential pop order,
//! so running the shards one after another *is* the sequential exploration —
//! and running them on worker threads explores the same states with the
//! same per-shard sub-DFS order, just wall-clock-parallel.
//!
//! **Deterministic reduction.**  Workers claim shards in index order from an
//! atomic counter.  Per query, the winning completion is the one from the
//! lexicographically smallest shard (and, inside a shard, the first pop of
//! its sub-DFS) — which by the order argument is precisely the completion
//! the sequential search reports.  Cross-shard knowledge only ever flows
//! from smaller to larger shard indices (a completion *hint* lets later
//! shards prune subtrees that are dead for every still-unsettled query, and
//! a shard is skipped outright once every query is settled by *finished*
//! earlier shards), so verdicts, witnesses and step counts are bit-identical
//! for every thread count, including one.  The cost statistics are summed
//! over the seed and the shards up to the last one a resolution came from,
//! so shards that ran only speculatively past it never count.  A settled
//! batch of one therefore reports its sequential counts at every thread
//! count, unless its budget ran out inside a shard.  In a larger batch,
//! hint-driven pruning still saves timing-dependent amounts of speculative
//! work inside the counted shards, so its statistics may vary.
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
//! dead.  Because shards partition the sequential traversal, the counter at
//! `q`'s winning completion is the seed's contribution plus every earlier
//! shard's plus the winning shard's count at the pop — the exact value the
//! sequential search would have seen.  A query whose counter reaches the
//! budget before its first completion is a **certified Unknown**, a
//! completion under budget is Feasible, a drained frontier under budget is
//! Infeasible; whatever the shared run cannot settle within its own cap
//! ([`SHARED_BUDGET_FACTOR`] per-query budgets) falls back to one-query
//! searches.  A batch of one always settles: its cap is its own budget.
//!
//! The traversal runs without revisit dedup in the seed and engages the
//! striped [`ShardedVisited`] table only when a single shard's sub-DFS grows
//! past [`SHARD_DEDUP_AFTER_POPS`] pops: dedup skips work an undeduped
//! search would count, which undercounts the per-query budget attribution
//! (a budget-limited query may then settle where an undeduped search reports
//! Unknown), so it stays a blow-up safety valve rather than a routine
//! pruning step.  Skips consult only entries the same shard wrote,
//! which keeps resolutions deterministic; the striping exists to bound the
//! table's total memory across shards and to expose contention counters.

use crate::checker::{
    eval_guard, eval_packed, witness_packed, CheckOutcome, CheckResult, CheckStats, Eval,
    FrontierEntry, ModelChecker, PathQuery, StateArena,
};
use crate::metrics;
use crate::prepared::{PreparedModel, PreparedTransition};
use rustc_hash::FxHashMap;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
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
    /// signature *within this run*.
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

    /// A shard's private copy of this lattice: same interned signatures and
    /// step memo (so shards reuse the seed's work), fresh op counters and a
    /// `pending` mask recomputed against the queries still `alive`.
    fn fork(&self, alive: &[bool]) -> SigLattice {
        SigLattice {
            vecs: self.vecs.clone(),
            intern: self.intern.clone(),
            completes: self.completes.clone(),
            pending: self
                .completes
                .iter()
                .map(|c| c.iter().any(|&q| alive[q as usize]))
                .collect(),
            ops: vec![0; self.vecs.len()],
            live: vec![true; self.vecs.len()],
            live_epoch: vec![0; self.vecs.len()],
            step_memo: self.step_memo.clone(),
            relevant_n: self.relevant_n,
        }
    }

    /// Resets a worker-local lattice for its next shard: zeroed op counters,
    /// recomputed `pending`, cleared liveness cache.  Signatures interned by
    /// earlier shards (and their step memo) are deliberately *kept* — every
    /// result the engine extracts is id-agnostic (completions are recorded
    /// per query, ops are summed over monitor vectors), so a superset
    /// lattice changes nothing but the amount of re-interning saved.
    fn reset_for_shard(&mut self, alive: &[bool]) {
        self.ops.fill(0);
        for (pending, completes) in self.pending.iter_mut().zip(&self.completes) {
            *pending = completes.iter().any(|&q| alive[q as usize]);
        }
        self.live.fill(true);
        self.live_epoch.fill(0);
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

    /// Query `q`'s op counter within this run: the ops charged under every
    /// signature in which `q` is still matchable or complete.
    fn query_ops(&self, q: usize) -> u64 {
        self.ops
            .iter()
            .zip(&self.vecs)
            .filter(|(ops, vec)| **ops > 0 && vec[q] != DEAD)
            .map(|(ops, _)| *ops)
            .sum()
    }

    /// All queries' op counters in one pass over the signatures this run
    /// actually charged (shards touch a small slice of the lattice, so this
    /// is far cheaper than a per-query scan).
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

/// Seed-phase op budget after which a large exploration snapshots its DFS
/// frontier into shards.  Fixed (never derived from the thread count) so the
/// shard set — and with it every verdict, witness and step count — is
/// deterministic across thread counts.
const SHARD_SEED_OPS: u64 = 1 << 15;

/// Target shard count for one exploration (fixed for determinism; actual
/// count depends on the frontier shape).
const SHARD_TARGET: u64 = 192;

/// Minimum frontier units (pending states + pending split values) worth
/// sharding; narrower frontiers keep exploring sequentially.
const SHARD_MIN_UNITS: u64 = 64;

/// Pops between a shard's polls of the cross-shard completion hints.
const HINT_POLL_POPS: u64 = 4096;

/// Shard-local pop count after which the sharded visited table engages
/// (blow-up safety valve; see the module docs for the attribution caveat).
const SHARD_DEDUP_AFTER_POPS: u64 = 1 << 20;

/// Stripes of the sharded visited table.
const VISITED_STRIPES: usize = 64;

/// Total entry budget of the sharded visited table across all stripes.
const VISITED_TOTAL_CAP: usize = 1 << 21;

/// One stripe of the sharded visited table: packed state key → (owning
/// shard, best depth).
type VisitedStripe = Mutex<FxHashMap<Box<[u64]>, (u32, u64)>>;

/// The striped-lock visited table shared by every shard of one exploration.
///
/// Entries are keyed by the packed `(location, signature, valuation)` state
/// and tagged with the shard that wrote them; a shard only *skips* on its
/// own entries (cross-shard skipping would make resolutions depend on race
/// timing), so the sharing exists to bound total memory and to surface
/// contention, not to prune across shards.
pub(crate) struct ShardedVisited {
    stripes: Vec<VisitedStripe>,
    insertions: AtomicU64,
    hits: AtomicU64,
    collisions: AtomicU64,
}

impl ShardedVisited {
    fn new() -> ShardedVisited {
        ShardedVisited {
            stripes: (0..VISITED_STRIPES)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            insertions: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
        }
    }

    fn stripe_of(key: &[u64]) -> usize {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in key.iter().take(2) {
            h ^= *w;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        (h as usize) & (VISITED_STRIPES - 1)
    }

    /// Records a visit of `key` at `depth` by `shard`; returns
    /// `(skippable, inserted)` — skippable when a previous visit *by the
    /// same shard* at the same or smaller depth covers the revisit.  The
    /// caller enforces a deterministic per-shard insertion quota via
    /// `may_insert` (a shared racy cap would make one shard's skip set
    /// depend on how fast the others filled the table).
    fn check_and_insert(
        &self,
        key: &[u64],
        shard: u32,
        depth: u64,
        may_insert: bool,
    ) -> (bool, bool) {
        let stripe = &self.stripes[Self::stripe_of(key)];
        let mut guard = match stripe.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.collisions.fetch_add(1, Ordering::Relaxed);
                stripe.lock().expect("visited stripe")
            }
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
        };
        match guard.get_mut(key) {
            Some((owner, best)) if *owner == shard => {
                if *best <= depth {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return (true, false);
                }
                *best = depth;
                (false, false)
            }
            Some(_) => (false, false),
            None => {
                if may_insert {
                    guard.insert(key.to_vec().into_boxed_slice(), (shard, depth));
                    self.insertions.fetch_add(1, Ordering::Relaxed);
                    (false, true)
                } else {
                    (false, false)
                }
            }
        }
    }

    /// Counter snapshot `(insertions, hits, stripe collisions)`; the caller
    /// publishes exactly one phase's numbers (a discarded speculative phase
    /// must not inflate the operator-facing metrics).
    fn counters(&self) -> (u64, u64, u64) {
        (
            self.insertions.load(Ordering::Relaxed),
            self.hits.load(Ordering::Relaxed),
            self.collisions.load(Ordering::Relaxed),
        )
    }
}

/// Cross-shard knowledge, published so running shards can stop spending on
/// queries whose fate is already sealed.  Every fact here is *deterministic
/// in content* — a completion's owning shard index, or the per-query op
/// total over a finished shard prefix — even though *when* a given shard
/// learns it is timing-dependent.  Pruning on such facts is result-safe:
/// it only ever skips subtrees whose contribution could no longer change
/// any verdict, witness or step count (see the module docs), so late
/// knowledge merely costs speculative work.
struct SharedKnowledge {
    /// Per query: the smallest shard index that found a completion so far.
    /// A shard consults indices strictly below its own, so knowledge flows
    /// only from lexicographically earlier work.
    first_shard: Vec<AtomicU64>,
    /// Per query: attributed ops summed over the finished shard prefix
    /// (monotone; written only under the prefix lock, in shard order, so
    /// every published value is a prefix sum the sequential run would also
    /// compute).
    prefix_ops: Vec<AtomicU64>,
}

impl SharedKnowledge {
    fn new(queries: usize) -> SharedKnowledge {
        SharedKnowledge {
            first_shard: (0..queries).map(|_| AtomicU64::new(u64::MAX)).collect(),
            prefix_ops: (0..queries).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record_completion(&self, q: usize, shard: u64) {
        self.first_shard[q].fetch_min(shard, Ordering::Relaxed);
    }

    fn completed_below(&self, q: usize, shard: u64) -> bool {
        self.first_shard[q].load(Ordering::Relaxed) < shard
    }

    fn prefix_ops(&self, q: usize) -> u64 {
        self.prefix_ops[q].load(Ordering::Relaxed)
    }
}

/// One query's first completion within a run.
struct Completion {
    witness: InputVector,
    depth: u64,
    /// The query's attributed op counter (run-local) at the completing pop.
    ops_at_pop: u64,
}

/// Everything one traversal run (seed or shard) produced.
struct RunOutput {
    /// Per-query attributed ops within this run.
    query_ops: Vec<u64>,
    /// First completion per query within this run.
    completions: Vec<Option<Completion>>,
    states_created: u64,
    transitions_fired: u64,
    max_depth: u64,
    pops: u64,
    /// Whether this run hit its op cap with work left.
    tripped: bool,
    /// Visited-table consultations (nonzero once the dedup valve engaged).
    dedup_checks: u64,
    signatures: usize,
}

enum RunExit {
    /// The arena drained.
    Drained,
    /// Every alive query was settled within this run's view.
    AllSettled,
    /// The op cap tripped with the arena non-empty.
    Tripped,
    /// Seed only: the shard trigger fired; the arena holds the frontier.
    ShardReady,
}

/// Immutable context shared by every run of one exploration.
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
    /// Ops already attributed to each query before this run (zeros for the
    /// seed; the seed's counters for shards).
    base_ops: &'a [u64],
    /// `(knowledge, own shard index)` — shards only.
    knowledge: Option<(&'a SharedKnowledge, u64)>,
    /// `(table, own shard tag)` — shards only.
    visited: Option<(&'a ShardedVisited, u32)>,
    /// Deterministic cap on this run's visited-table insertions (the total
    /// memory bound divided by the shard count).
    visited_quota: usize,
    /// Seed only: op count at which to stop and hand the frontier to shards
    /// (provided the frontier is wide enough).
    shard_trigger: Option<u64>,
    /// Maximum run length ([`ModelChecker::max_depth`]).
    max_depth: u64,
}

/// One traversal run: the packed-arena DFS with signature stepping, budget
/// attribution and liveness pruning.  The seed and every shard execute this
/// same loop; they differ only in their starting arena and context knobs.
fn run_exploration(
    ctx: &RunCtx<'_>,
    lattice: &mut SigLattice,
    arena: &mut StateArena,
    alive: &mut [bool],
    out: &mut RunOutput,
) -> RunExit {
    let model = ctx.prepared.model;
    let pool = &ctx.prepared.program.pool;
    let mut open = alive.iter().filter(|&&a| a).count();
    let mut epoch: u64 = 1;
    let mut next_sweep = SWEEP_INTERVAL;
    let mut next_hint_poll = HINT_POLL_POPS;
    // Throttle for the seed's frontier-width probe: scanning the arena is
    // O(stack depth), so it runs every few thousand ops, not every pop.
    let mut next_shard_check = ctx.shard_trigger.unwrap_or(u64::MAX);

    let mut cur_vals = vec![0i64; ctx.vars_n];
    let mut cur_known = vec![0u64; ctx.words];
    let mut child_vals = vec![0i64; ctx.vars_n];
    let mut child_known = vec![0u64; ctx.words];
    let mut enabled: Vec<usize> = Vec::with_capacity(8);
    let mut effect_cache: Vec<Eval> = Vec::with_capacity(8);
    let mut effect_offsets: Vec<usize> = Vec::with_capacity(8);
    let mut key_buf: Vec<u64> = Vec::with_capacity(1 + ctx.words + ctx.vars_n);
    let mut dedup_enabled = true;
    let mut dedup_checks: u64 = 0;
    let mut dedup_hits: u64 = 0;
    let mut dedup_inserted: usize = 0;

    if open == 0 {
        return RunExit::AllSettled;
    }

    'search: loop {
        let total_ops = out.transitions_fired + out.states_created;
        if total_ops >= ctx.op_cap {
            out.tripped = true;
            break 'search RunExit::Tripped;
        }
        if total_ops >= next_shard_check {
            if frontier_units(arena) >= SHARD_MIN_UNITS {
                return RunExit::ShardReady;
            }
            next_shard_check = total_ops + (SHARD_SEED_OPS >> 3);
        }
        if total_ops >= next_sweep {
            // Certification sweep: any alive query whose attributed counter
            // — base (seed), published finished-prefix total, and this run's
            // own share — has crossed its budget is spent: whatever this or
            // any later shard finds for it can only confirm Unknown, so stop
            // paying for it.  (Final verdicts recompute the exact counter
            // from the per-run outputs; the sweep only prunes.)
            next_sweep = total_ops + SWEEP_INTERVAL;
            for (q, alive_q) in alive.iter_mut().enumerate() {
                if !*alive_q {
                    continue;
                }
                let prefix = ctx.knowledge.map(|(k, _)| k.prefix_ops(q)).unwrap_or(0);
                if ctx.base_ops[q] + prefix + lattice.query_ops(q) >= ctx.query_budget {
                    *alive_q = false;
                    open -= 1;
                    epoch += 1;
                }
            }
            if open == 0 {
                break 'search RunExit::AllSettled;
            }
        }
        if let Some((knowledge, me)) = ctx.knowledge {
            if out.pops >= next_hint_poll {
                next_hint_poll = out.pops + HINT_POLL_POPS;
                for (q, alive_q) in alive.iter_mut().enumerate() {
                    if !*alive_q {
                        continue;
                    }
                    // A lexicographically earlier shard holds this query's
                    // winning completion, or the finished prefix already
                    // spent its budget: nothing this shard finds for it can
                    // matter any more.
                    let sealed = knowledge.completed_below(q, me)
                        || ctx.base_ops[q] + knowledge.prefix_ops(q) + lattice.query_ops(q)
                            >= ctx.query_budget;
                    if sealed {
                        *alive_q = false;
                        open -= 1;
                        epoch += 1;
                    }
                }
                if open == 0 {
                    break 'search RunExit::AllSettled;
                }
            }
        }

        let Some(entry) = arena.pop(&mut cur_vals, &mut cur_known) else {
            break 'search RunExit::Drained;
        };
        out.pops += 1;
        out.max_depth = out.max_depth.max(entry.depth);
        let sig = entry.monitor;
        // Membership scan: does this state's signature complete a query that
        // is still alive?  Pops happen in the exact DFS order of each
        // query's own search, so the first hit per query within the
        // seed-then-shard order *is* that search's witness state.
        if lattice.pending[sig as usize] {
            for i in 0..lattice.completes[sig as usize].len() {
                let q = lattice.completes[sig as usize][i] as usize;
                if alive[q] && out.completions[q].is_none() {
                    out.completions[q] = Some(Completion {
                        witness: witness_packed(model, &cur_vals, &cur_known),
                        depth: entry.depth,
                        ops_at_pop: lattice.query_ops(q),
                    });
                    if let Some((knowledge, me)) = ctx.knowledge {
                        knowledge.record_completion(q, me);
                    }
                    alive[q] = false;
                    open -= 1;
                    epoch += 1;
                }
            }
            lattice.pending[sig as usize] = false;
            if open == 0 {
                // Every query this run can still influence is settled; the
                // rest of the traversal could only prove infeasibilities
                // nobody is waiting for.
                break 'search RunExit::AllSettled;
            }
        }
        if !lattice.is_live(sig, alive, epoch) {
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

        // Blow-up safety valve: once a single run's sub-DFS is past the
        // engagement threshold, consult the sharded visited table (own-shard
        // entries only — see the struct docs).  It switches itself off when
        // the hit rate shows the state space is not reconverging —
        // wide-domain splits produce millions of unique states that would
        // only burn memory.
        if let Some((visited, tag)) = ctx.visited {
            if dedup_enabled && out.pops > SHARD_DEDUP_AFTER_POPS {
                dedup_checks += 1;
                key_buf.clear();
                key_buf.push(u64::from(entry.loc) | (u64::from(sig) << 32));
                key_buf.extend_from_slice(&cur_known);
                key_buf.extend(cur_vals.iter().map(|v| *v as u64));
                let (skip, inserted) = visited.check_and_insert(
                    &key_buf,
                    tag,
                    entry.depth,
                    dedup_inserted < ctx.visited_quota,
                );
                if inserted {
                    dedup_inserted += 1;
                }
                if skip {
                    dedup_hits += 1;
                    continue;
                }
                if dedup_checks & 0xFFFF == 0 && dedup_hits * 10 < dedup_checks {
                    dedup_enabled = false;
                }
                out.dedup_checks = dedup_checks;
            }
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
            if sig_next != sig && !lattice.is_live(sig_next, alive, epoch) {
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

impl<'a> RunCtx<'a> {
    fn output(&self) -> RunOutput {
        RunOutput {
            query_ops: vec![0; self.queries.len()],
            completions: (0..self.queries.len()).map(|_| None).collect(),
            states_created: 0,
            transitions_fired: 0,
            max_depth: 0,
            pops: 0,
            tripped: false,
            dedup_checks: 0,
            signatures: 0,
        }
    }
}

/// Pending work still on the arena, in frontier units (a concrete entry is
/// one unit, a pending split one unit per remaining value).
fn frontier_units(arena: &StateArena) -> u64 {
    arena
        .frontier_shape()
        .map(|width| width.max(1))
        .sum::<u64>()
}

/// One shard: a contiguous run of frontier work items, in sequential pop
/// order.
struct Shard {
    items: Vec<FrontierEntry>,
}

/// Cuts the seed's frontier into ordered shards: entries in pop order, lazy
/// splits chunked into ascending value ranges, consecutive items packed
/// until each shard holds roughly `units / SHARD_TARGET` frontier units.
/// Everything here is a pure function of the frontier — never of the thread
/// count — so the shard set is deterministic.
fn build_shards(frontier: Vec<FrontierEntry>) -> Vec<Shard> {
    let units: u64 = frontier
        .iter()
        .map(|e| match e.split {
            Some((_, lo, hi)) => (hi - lo + 1).max(1) as u64,
            None => 1,
        })
        .sum();
    let per_shard = (units / SHARD_TARGET).max(1);
    let mut shards: Vec<Shard> = Vec::new();
    let mut current: Vec<FrontierEntry> = Vec::new();
    let mut current_units: u64 = 0;
    let mut flush = |current: &mut Vec<FrontierEntry>, current_units: &mut u64| {
        if !current.is_empty() {
            shards.push(Shard {
                items: std::mem::take(current),
            });
            *current_units = 0;
        }
    };
    for entry in frontier {
        match entry.split {
            None => {
                current.push(entry);
                current_units += 1;
                if current_units >= per_shard {
                    flush(&mut current, &mut current_units);
                }
            }
            Some((var, lo, hi)) => {
                let mut next = lo;
                while next <= hi {
                    let room = per_shard - current_units;
                    let take = room.min((hi - next + 1) as u64).max(1);
                    let upper = next + take as i64 - 1;
                    current.push(FrontierEntry {
                        split: Some((var, next, upper)),
                        ..entry.clone()
                    });
                    current_units += take;
                    next = upper + 1;
                    if current_units >= per_shard {
                        flush(&mut current, &mut current_units);
                    }
                }
            }
        }
    }
    flush(&mut current, &mut current_units);
    shards
}

/// Resolves the explorer's worker count: one inside a rayon worker, else an
/// explicit override via `TMG_EXPLORE_THREADS` or `RAYON_NUM_THREADS`, else
/// the machine's available parallelism (both read once per process).
/// Thread count never changes results — only wall-clock time.
pub(crate) fn default_explore_threads() -> usize {
    // Inside a rayon worker (`WcetAnalysis::analyse_all`, the genetic
    // search's population fan-out) the cores are already owned by the outer parallelism:
    // spawning a full complement of scoped workers per task would
    // oversubscribe quadratically, so nested explorations stay sequential —
    // mirroring the vendored rayon shim's own nested-collect rule.
    if std::thread::current()
        .name()
        .is_some_and(|name| name.starts_with("rayon-shim-"))
    {
        return 1;
    }
    // The environment and the machine do not change under a running
    // process, and `available_parallelism` reads cgroup files on every call,
    // so the answer is resolved once.
    static PROCESS_THREADS: OnceLock<usize> = OnceLock::new();
    *PROCESS_THREADS.get_or_init(|| {
        for var in ["TMG_EXPLORE_THREADS", "RAYON_NUM_THREADS"] {
            if let Some(n) = std::env::var(var)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
            {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The annotated result of one shared exploration, ready to answer any of
/// the queries it was explored for.
#[derive(Debug)]
pub struct MultiQueryEngine {
    /// Per query: how the shared exploration settled it (`None` = give the
    /// query back to per-query search).
    resolutions: Vec<Option<Resolution>>,
    /// Whether the exploration stopped at the shared budget with work left.
    gave_up: bool,
    /// Cost of the shared exploration.
    stats: CheckStats,
    /// Number of distinct decision signatures encountered (seed lattice plus
    /// the largest shard extension).
    signatures: usize,
}

impl MultiQueryEngine {
    /// Explores `prepared`'s state space once and settles every query it can
    /// within `min(queries, 4)` multiples of `checker`'s per-query budget,
    /// fanning large explorations out across the machine's cores (see the
    /// module docs; results are identical for every thread count).
    pub fn explore(
        checker: &ModelChecker,
        prepared: &PreparedModel<'_>,
        queries: &[PathQuery],
    ) -> MultiQueryEngine {
        Self::explore_with_threads(checker, prepared, queries, default_explore_threads())
    }

    /// Like [`explore`](MultiQueryEngine::explore) with an explicit worker
    /// count (used by the determinism tests and the `--quick` cross-check).
    pub fn explore_with_threads(
        checker: &ModelChecker,
        prepared: &PreparedModel<'_>,
        queries: &[PathQuery],
        threads: usize,
    ) -> MultiQueryEngine {
        Self::explore_pinned(checker, prepared, queries, &[], threads)
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
        threads: usize,
    ) -> MultiQueryEngine {
        checker.cancel.checkpoint();
        let start = Instant::now();
        let model = prepared.model;
        let vars_n = model.vars.len();
        let words = vars_n.div_ceil(64).max(1);

        let mut stats = CheckStats {
            state_bits: model.state_bits(),
            state_bytes: model.state_bytes(),
            model_transitions: model.transitions.len(),
            model_vars: model.vars.len(),
            ..CheckStats::default()
        };

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
        let op_cap =
            query_budget.saturating_mul(SHARED_BUDGET_FACTOR.min(queries.len().max(1) as u64));
        let zeros = vec![0u64; queries.len()];
        let threads = threads.max(1);
        let seed_ctx = RunCtx {
            prepared,
            queries,
            relevant_dense: &relevant_dense,
            vars_n,
            words,
            query_budget,
            op_cap,
            base_ops: &zeros,
            knowledge: None,
            visited: None,
            visited_quota: 0,
            // The trigger never depends on the thread count: one worker runs
            // the exact same shard set in order, which is what makes 1-vs-N
            // results bit-identical even at the shared-budget give-up
            // boundary (the determinism tests pin this).
            shard_trigger: Some(SHARD_SEED_OPS),
            max_depth: checker.max_depth,
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
        let mut alive = vec![true; queries.len()];
        let mut seed_out = seed_ctx.output();
        seed_out.states_created = 1;
        lattice.ops[0] += 1;

        let seed_exit = {
            let _span = tmg_obs::span("checker:seed");
            run_exploration(
                &seed_ctx,
                &mut lattice,
                &mut arena,
                &mut alive,
                &mut seed_out,
            )
        };
        lattice.query_ops_all(&mut seed_out.query_ops);
        seed_out.signatures = lattice.vecs.len();
        // The seed/shard boundary is the first cooperative cancellation
        // point after real work: a cancelled exploration unwinds here with
        // nothing published, never with partial resolutions.
        checker.cancel.checkpoint();

        let mut shard_runs: Vec<ShardSlot> = Vec::new();
        let seed_tripped = matches!(seed_exit, RunExit::Tripped);

        if matches!(seed_exit, RunExit::ShardReady) {
            let frontier = arena.drain_frontier();
            let shards = build_shards(frontier);
            let shard_base: Vec<u64> = seed_out.query_ops.clone();
            let unresolved_at_seed: Vec<bool> = alive.clone();
            let open_after_seed = alive.iter().filter(|&&a| a).count();
            // Per-shard visited-table quota: the memory bound is divided
            // deterministically instead of raced for, so a shard's own
            // dedup-skip set never depends on how fast *other* shards filled
            // the table.
            let visited_quota = VISITED_TOTAL_CAP / shards.len().max(1);

            let run_shard_phase = |workers: usize| -> (Vec<ShardSlot>, (u64, u64, u64)) {
                let knowledge = SharedKnowledge::new(queries.len());
                let visited = ShardedVisited::new();
                let slots: Vec<Mutex<ShardSlotState>> = (0..shards.len())
                    .map(|_| Mutex::new(ShardSlotState::Pending))
                    .collect();
                let next_shard = AtomicUsize::new(0);
                let all_settled = AtomicBool::new(open_after_seed == 0);
                let prefix = Mutex::new(PrefixState {
                    next: 0,
                    cumulative: shard_base.clone(),
                    settled: unresolved_at_seed.iter().map(|&a| !a).collect(),
                    open: open_after_seed,
                });

                let run_one = |index: usize, local: &mut Option<SigLattice>| {
                    if checker.cancel.is_cancelled() {
                        // A fired token settles the phase: every remaining
                        // shard is still claimed (keeping the slot-state
                        // invariant) but marked skipped, so the worker scope
                        // joins promptly and the caller unwinds after the
                        // join — no shard result computed under a cancelled
                        // token is ever reduced or published.
                        all_settled.store(true, Ordering::Release);
                    }
                    if all_settled.load(Ordering::Acquire) {
                        *slots[index].lock().expect("slot") = ShardSlotState::Skipped;
                    } else {
                        let ctx = RunCtx {
                            prepared,
                            queries,
                            relevant_dense: &relevant_dense,
                            vars_n,
                            words,
                            query_budget,
                            op_cap,
                            base_ops: &shard_base,
                            knowledge: Some((&knowledge, index as u64)),
                            visited: Some((&visited, index as u32)),
                            visited_quota,
                            shard_trigger: None,
                            max_depth: checker.max_depth,
                        };
                        // Each worker forks the seed lattice once and resets
                        // it between shards: the interned signatures and the
                        // step memo are reusable verbatim, and every result
                        // the reduction extracts is id-agnostic, so reuse
                        // only saves the per-shard deep clone.
                        let shard_lattice = match local {
                            Some(lattice) => {
                                lattice.reset_for_shard(&unresolved_at_seed);
                                lattice
                            }
                            None => local.insert(lattice.fork(&unresolved_at_seed)),
                        };
                        let mut shard_arena = StateArena::new(vars_n, words);
                        for item in shards[index].items.iter().rev() {
                            shard_arena.push_frontier(item);
                        }
                        let mut shard_alive = unresolved_at_seed.clone();
                        let mut out = ctx.output();
                        run_exploration(
                            &ctx,
                            shard_lattice,
                            &mut shard_arena,
                            &mut shard_alive,
                            &mut out,
                        );
                        shard_lattice.query_ops_all(&mut out.query_ops);
                        out.signatures = shard_lattice.vecs.len();
                        *slots[index].lock().expect("slot") = ShardSlotState::Done(out);
                    }
                    // Advance the done prefix: accumulate per-query ops over
                    // finished shards *in index order* and mark queries
                    // settled once the prefix holds a completion for them or
                    // has spent their budget.  Every published value is a
                    // prefix sum the sequential run computes too, so the
                    // knowledge running shards prune on is deterministic in
                    // content.
                    let mut prefix = prefix.lock().expect("prefix");
                    while prefix.next < slots.len() {
                        let slot = slots[prefix.next].lock().expect("slot");
                        match &*slot {
                            ShardSlotState::Pending => break,
                            ShardSlotState::Skipped => {}
                            ShardSlotState::Done(out) => {
                                if out.tripped {
                                    // Everything behind the first trip is
                                    // discarded by the reduction's cutoff;
                                    // exploring it would be pure waste.
                                    all_settled.store(true, Ordering::Release);
                                }
                                let PrefixState {
                                    cumulative,
                                    settled,
                                    open,
                                    ..
                                } = &mut *prefix;
                                for (q, settled_q) in settled.iter_mut().enumerate() {
                                    if *settled_q {
                                        continue;
                                    }
                                    if out.completions[q].is_some() {
                                        *settled_q = true;
                                        *open -= 1;
                                        continue;
                                    }
                                    cumulative[q] += out.query_ops[q];
                                    knowledge.prefix_ops[q].store(
                                        cumulative[q].saturating_sub(shard_base[q]),
                                        Ordering::Relaxed,
                                    );
                                    if cumulative[q] >= query_budget {
                                        *settled_q = true;
                                        *open -= 1;
                                    }
                                }
                            }
                        }
                        drop(slot);
                        prefix.next += 1;
                    }
                    if prefix.open == 0 {
                        all_settled.store(true, Ordering::Release);
                    }
                };

                if workers <= 1 {
                    let mut local = None;
                    for index in 0..shards.len() {
                        run_one(index, &mut local);
                    }
                } else {
                    std::thread::scope(|scope| {
                        for _ in 0..workers {
                            scope.spawn(|| {
                                let mut local = None;
                                loop {
                                    let index = next_shard.fetch_add(1, Ordering::Relaxed);
                                    if index >= shards.len() {
                                        break;
                                    }
                                    run_one(index, &mut local);
                                }
                            });
                        }
                    });
                }
                let counters = visited.counters();
                let runs: Vec<ShardSlot> = slots
                    .into_iter()
                    .map(|slot| match slot.into_inner().expect("slot") {
                        ShardSlotState::Done(out) => ShardSlot::Done(out),
                        ShardSlotState::Skipped => ShardSlot::Skipped,
                        ShardSlotState::Pending => unreachable!("every shard was claimed"),
                    })
                    .collect();
                (runs, counters)
            };

            let workers = threads.max(1).min(shards.len().max(1));
            let shard_span = tmg_obs::span("checker:shards");
            let (runs, mut visited_counters) = run_shard_phase(workers);
            // Unwind before the sequential re-run and the reduction: a
            // cancelled phase's slots may be skipped mid-schedule, and
            // nothing downstream may observe them.
            checker.cancel.checkpoint();
            shard_runs = runs;
            if workers > 1
                && shard_runs.iter().any(
                    |s| matches!(s, ShardSlot::Done(out) if out.tripped || out.dedup_checks > 0),
                )
            {
                // A shard hit its op cap, or grew large enough for the
                // visited-table valve to engage.  Both make results depend on
                // how much speculative work the shard did before cross-shard
                // knowledge reached it — which is timing-dependent: the
                // give-up cutoff discards everything behind the first trip,
                // and dedup skips change the ops attribution.  To keep
                // resolutions bit-identical across thread counts, these rare
                // regimes re-run the shard schedule in order on one worker,
                // where knowledge is always complete before each shard
                // starts and every decision is a pure function of the
                // inputs.  (A multi-threaded run always does at least as
                // many pops per shard as the sequential schedule, so any
                // run the sequential schedule would trip or dedup is
                // re-run here too.)
                let (runs, counters) = run_shard_phase(1);
                checker.cancel.checkpoint();
                shard_runs = runs;
                visited_counters = counters;
            }
            drop(shard_span);
            // Publish metrics once, for the phase whose results are used.
            let (insertions, hits, collisions) = visited_counters;
            metrics::add_visited_insertions(insertions);
            metrics::add_visited_hits(hits);
            metrics::add_visited_collisions(collisions);
            metrics::add_shards_explored(
                shard_runs
                    .iter()
                    .filter(|s| matches!(s, ShardSlot::Done(_)))
                    .count() as u64,
            );
            metrics::add_shards_skipped(
                shard_runs
                    .iter()
                    .filter(|s| matches!(s, ShardSlot::Skipped))
                    .count() as u64,
            );
        }

        // Deterministic reduction over seed + shards in order.
        let mut gave_up = seed_tripped;
        // The cutoff: shards at or before the first tripped one contribute;
        // results past it are discarded (the sequential search would have
        // given up there).
        let mut cutoff = shard_runs.len();
        for (i, slot) in shard_runs.iter().enumerate() {
            if let ShardSlot::Done(out) = slot {
                if out.tripped {
                    cutoff = i + 1;
                    gave_up = true;
                    break;
                }
            }
        }
        // Whether the whole reachable frontier was explored (Infeasible
        // verdicts are only sound then).  `AllSettled` counts: the traversal
        // stopped early only because every query already had a completion or
        // certification, which the per-query reduction consumes first.
        let fully_drained = match seed_exit {
            RunExit::Drained | RunExit::AllSettled => true,
            RunExit::Tripped => false,
            RunExit::ShardReady => cutoff == shard_runs.len(),
        };
        if queries.len() == 1 {
            // A batch of one charges every op to its query (see
            // `explore_pinned`), which is what makes it always settle.
            let all_ops = |out: &RunOutput| out.states_created + out.transitions_fired;
            debug_assert_eq!(seed_out.query_ops[0], all_ops(&seed_out));
            debug_assert!(shard_runs
                .iter()
                .all(|s| !matches!(s, ShardSlot::Done(out) if out.query_ops[0] != all_ops(out))));
        }

        // Per query: its resolution and the run it came from (0 for the
        // seed, `i + 1` for shard `i`), or `None` to give it back to
        // per-query search.
        let resolve = |q: usize| -> Option<(Resolution, usize)> {
            let certify = |total: u64, c: &Completion| {
                if total >= query_budget {
                    Resolution::Unknown
                } else {
                    Resolution::Feasible(c.witness.clone(), c.depth)
                }
            };
            if let Some(c) = &seed_out.completions[q] {
                return Some((certify(c.ops_at_pop, c), 0));
            }
            let mut cumulative = seed_out.query_ops[q];
            if cumulative >= query_budget {
                return Some((Resolution::Unknown, 0));
            }
            if seed_tripped {
                return None;
            }
            for (i, slot) in shard_runs.iter().take(cutoff).enumerate() {
                // A shard is only skipped once every query is settled by
                // earlier *finished* shards, so a still-unsettled query
                // cannot legitimately get here; bail to per-query fallback
                // rather than mis-certify.
                let ShardSlot::Done(out) = slot else {
                    return None;
                };
                if let Some(c) = &out.completions[q] {
                    return Some((certify(cumulative + c.ops_at_pop, c), i + 1));
                }
                cumulative += out.query_ops[q];
                if cumulative >= query_budget {
                    return Some((Resolution::Unknown, i + 1));
                }
            }
            fully_drained.then_some((Resolution::Infeasible, cutoff))
        };
        let resolved: Vec<Option<(Resolution, usize)>> = (0..queries.len()).map(resolve).collect();

        // Cost statistics cover the seed and the shards up to the last one
        // any resolution came from.  With several workers, later shards may
        // have run speculatively before the knowledge that settles them
        // arrived; one worker skips them.  Counting them would make the
        // statistics depend on timing, so a settled batch of one reports
        // the sequential counts at every thread count.
        let stats_end = if resolved.iter().all(Option::is_some) {
            resolved
                .iter()
                .flatten()
                .map(|(_, run)| *run)
                .max()
                .unwrap_or(0)
        } else {
            cutoff
        };
        stats.states_created = seed_out.states_created;
        stats.transitions_fired = seed_out.transitions_fired;
        stats.max_depth = seed_out.max_depth;
        let mut signatures = seed_out.signatures;
        let mut pops = seed_out.pops;
        for slot in shard_runs.iter().take(stats_end) {
            if let ShardSlot::Done(out) = slot {
                stats.states_created += out.states_created;
                stats.transitions_fired += out.transitions_fired;
                stats.max_depth = stats.max_depth.max(out.max_depth);
                signatures = signatures.max(out.signatures);
                pops += out.pops;
            }
        }
        metrics::add_states_explored(pops);
        stats.memory_estimate_bytes = stats.states_created * stats.state_bytes;
        stats.duration = start.elapsed();
        MultiQueryEngine {
            resolutions: resolved
                .into_iter()
                .map(|r| r.map(|(res, _)| res))
                .collect(),
            gave_up,
            stats,
            signatures,
        }
    }

    /// Whether the exploration hit the shared budget before the frontier
    /// drained (queries it could not certify then report `None` from
    /// [`MultiQueryEngine::outcome`]).
    pub fn exhausted(&self) -> bool {
        self.gave_up
    }

    /// Cost statistics of the shared exploration.
    pub fn stats(&self) -> &CheckStats {
        &self.stats
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

/// A shard's published result.
enum ShardSlot {
    Done(RunOutput),
    Skipped,
}

enum ShardSlotState {
    Pending,
    Done(RunOutput),
    Skipped,
}

/// Deterministic settled-prefix tracking for the shard skip rule: the next
/// unprocessed shard index, the per-query op totals over the processed
/// prefix (seeded with the seed phase's counters), and which queries that
/// prefix already settles.
struct PrefixState {
    next: usize,
    cumulative: Vec<u64>,
    settled: Vec<bool>,
    open: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_function;
    use crate::opt::Optimisations;
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
        // budget.  Budgets above `SHARD_SEED_OPS` run into the shards.
        let (f, queries) = sharded_fixture();
        let model = encode_function(&f, &Optimisations::all().encode_options());
        let prepared = PreparedModel::new(&model);
        let mut verdicts = [0usize; 3];
        for budget in [1, 100, 20_000, 40_000, 60_000, 1 << 20] {
            let checker = ModelChecker::new().with_budget(budget);
            for query in &queries {
                for threads in [1, 2] {
                    let engine = MultiQueryEngine::explore_with_threads(
                        &checker,
                        &prepared,
                        std::slice::from_ref(query),
                        threads,
                    );
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
        }
        assert!(verdicts.iter().all(|&n| n > 0), "{verdicts:?}");
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

    /// A function wide enough to trip the shard trigger (one 0..=20000 split
    /// at the first guard read).
    fn sharded_fixture() -> (tmg_minic::Function, Vec<PathQuery>) {
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
    fn sharded_exploration_matches_single_query_results() {
        let (f, queries) = sharded_fixture();
        let checker = ModelChecker::new();
        let model = encode_function(&f, &Optimisations::all().encode_options());
        let prepared = PreparedModel::new(&model);
        let engine = MultiQueryEngine::explore_with_threads(&checker, &prepared, &queries, 2);
        for (i, query) in queries.iter().enumerate() {
            let single = checker.check_prepared(&prepared, query);
            assert_eq!(
                engine.outcome(i).expect("settled"),
                single.outcome,
                "sharded vs single on {:?}",
                query.decisions
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_resolutions() {
        let (f, queries) = sharded_fixture();
        let checker = ModelChecker::new();
        let model = encode_function(&f, &Optimisations::all().encode_options());
        let prepared = PreparedModel::new(&model);
        let reference: Vec<Option<CheckOutcome>> = {
            let engine = MultiQueryEngine::explore_with_threads(&checker, &prepared, &queries, 1);
            (0..queries.len()).map(|q| engine.outcome(q)).collect()
        };
        for threads in [2, 4, 8] {
            let engine =
                MultiQueryEngine::explore_with_threads(&checker, &prepared, &queries, threads);
            let outcomes: Vec<Option<CheckOutcome>> =
                (0..queries.len()).map(|q| engine.outcome(q)).collect();
            assert_eq!(outcomes, reference, "{threads} threads diverge from 1");
        }
    }

    #[test]
    fn shard_chunking_is_deterministic_and_ordered() {
        let frontier = vec![
            FrontierEntry {
                loc: 1,
                monitor: 0,
                depth: 3,
                vals: vec![0],
                known: vec![0],
                split: Some((0, 0, 999)),
            },
            FrontierEntry {
                loc: 2,
                monitor: 0,
                depth: 1,
                vals: vec![0],
                known: vec![0],
                split: None,
            },
        ];
        let shards = build_shards(frontier.clone());
        let shards_again = build_shards(frontier);
        assert_eq!(shards.len(), shards_again.len());
        // Split ranges come out ascending and contiguous, concrete entries
        // keep their position after the split.
        let mut next_expected = 0i64;
        let mut saw_concrete = false;
        for shard in &shards {
            for item in &shard.items {
                match item.split {
                    Some((_, lo, hi)) => {
                        assert!(!saw_concrete, "split chunks precede the deeper entry");
                        assert_eq!(lo, next_expected);
                        assert!(hi >= lo);
                        next_expected = hi + 1;
                    }
                    None => saw_concrete = true,
                }
            }
        }
        assert_eq!(next_expected, 1000);
        assert!(saw_concrete);
    }
}
