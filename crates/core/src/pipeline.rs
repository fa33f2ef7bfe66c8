//! The staged, content-addressed analysis pipeline.
//!
//! The paper's workflow is inherently staged — lower the CFG, partition it
//! under a path bound `b`, generate coverage tests by model checking,
//! measure on the target, combine into a WCET bound — and most workloads
//! re-enter it with inputs that only partially change: a tradeoff sweep
//! varies `b` but not the function, a before/after benchmark re-analyses the
//! same function twice, a multi-function module shares the cost model, a
//! repeated `reproduce` run changes nothing at all.  This module reifies
//! each stage's output as an explicit artifact keyed by a *stable content
//! hash of its inputs* and keeps them in an [`ArtifactStore`], so a stage
//! re-runs exactly when one of its inputs changed:
//!
//! ```text
//! function source ──► LoweredArtifact       (key: source fingerprint)
//!                     ├─► PartitionArtifact (key: + path bound)
//!                     ├─► PreparedModelArtifact (key: + checker config)
//!                     ├─► SuiteArtifact     (key: partition + generator config)
//!                     ├─► CampaignArtifact  (key: suite + cost model)
//!                     └─► BoundArtifact     (key: campaign + input space)
//! ```
//!
//! Keys are FNV-1a digests ([`tmg_cfg::hash`]) of the canonical
//! pretty-printed function source combined with the `Debug` rendering of the
//! relevant configuration (cost model, checker and heuristic settings) and
//! the path bound — every field that can change a stage's output feeds its
//! key, so a hit is always semantically safe to reuse.  Both renderings are
//! streamed into the hasher rather than built as strings, and a caller that
//! already holds a function's fingerprint or bound key (the module analysis)
//! hands it down instead of re-deriving it.  The store counts
//! hits, misses and evictions per [`Stage`]; tests assert that a second
//! analysis of an unchanged function performs no re-partitioning and no
//! re-encoding.
//!
//! Storage is *tiered*: the [`TieredStore`] trait abstracts over where the
//! artifacts live, so [`WcetAnalysis`](crate::WcetAnalysis) runs identically
//! over the in-memory [`ArtifactStore`] and over the persistent on-disk
//! store of the `tmg-service` crate (which layers a size-capped disk cache
//! under an in-memory tier and serves a *fresh process's* analysis of an
//! unchanged function from disk).  The stage methods of the trait mirror the
//! store's inherent get-or-compute methods; the lookup/insert/compute
//! primitives they are built from are public precisely so other tiers can
//! interpose between the cache probe and the computation.
//!
//! The in-memory tier is bounded: the bound map holds at most
//! [`ArtifactStore::capacity`] entries, the intermediate maps (lower through
//! measure, and call graphs) at most [`INTERMEDIATE_CAPACITY`], and each evicts
//! least-recently-used artifacts beyond that, so a long-running daemon does
//! not grow without limit.  Eviction is pure cache policy — an evicted
//! artifact is recomputed (or re-read from a lower tier) on the next request,
//! never lost semantically.

use crate::analysis::{AnalysisError, AnalysisReport, WcetAnalysis};
use crate::measurement::{exhaustive_end_to_end, MeasurementCampaign, MeasurementError};
use crate::partition::PartitionPlan;
use crate::schema::compute_wcet;
use crate::testgen::{HybridGenerator, TestSuite};
use rustc_hash::FxHashMap;
use std::collections::HashSet;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tmg_cfg::{
    build_cfg, combine_hashes, function_fingerprint, module_key, stable_hash_debug,
    stable_hash_str, CallGraph, CallGraphError, LoweredFunction, PathCounts, Terminator,
};
use tmg_minic::ast::{Function, Program};
use tmg_minic::value::InputVector;
use tmg_minic::StmtId;
use tmg_target::CostModel;
use tmg_tsys::{ModelChecker, SharedCheckModel};

/// The pipeline stages, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// CFG lowering + region path counts.
    Lower,
    /// CFG partitioning under the path bound.
    Partition,
    /// Model optimisation + encoding + preparation for the checker.
    PrepareModel,
    /// Hybrid test-data generation.
    Testgen,
    /// Instrumented measurement campaign.
    Measure,
    /// Timing-schema WCET bound (plus optional exhaustive comparison).
    Bound,
}

/// Every stage, in execution order.
pub const STAGES: [Stage; 6] = [
    Stage::Lower,
    Stage::Partition,
    Stage::PrepareModel,
    Stage::Testgen,
    Stage::Measure,
    Stage::Bound,
];

impl Stage {
    /// Dense index of the stage (0..6), usable as an array index.
    pub fn index(self) -> usize {
        match self {
            Stage::Lower => 0,
            Stage::Partition => 1,
            Stage::PrepareModel => 2,
            Stage::Testgen => 3,
            Stage::Measure => 4,
            Stage::Bound => 5,
        }
    }

    /// Stable lowercase name (used in error messages, reports and the cache
    /// directory layout of the persistent store).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Lower => "lower",
            Stage::Partition => "partition",
            Stage::PrepareModel => "prepare-model",
            Stage::Testgen => "testgen",
            Stage::Measure => "measure",
            Stage::Bound => "bound",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Hit/miss/eviction counters of one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageStats {
    /// Artifact served from the store.
    pub hits: u64,
    /// Artifact not present (computed and inserted by the caller).
    pub misses: u64,
    /// Artifacts evicted by the LRU entry cap.
    pub evictions: u64,
}

impl StageStats {
    /// Stats with the given hit/miss counts and no evictions (the common
    /// assertion shape in tests).
    pub fn hm(hits: u64, misses: u64) -> StageStats {
        StageStats {
            hits,
            misses,
            evictions: 0,
        }
    }
}

/// Complete counter snapshot of an [`ArtifactStore`], one [`StageStats`] plus
/// a live entry count per stage.  Rendered to hand-written JSON for the
/// service `stats` request and `reproduce -- sweep --stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Per-stage counters, indexed by [`Stage::index`].
    pub stages: [StageStats; 6],
    /// Live entries per stage, indexed by [`Stage::index`].
    pub entries: [usize; 6],
    /// Counters of the memory-only call-graph map (module-level analyses).
    pub callgraph: StageStats,
    /// Live call-graph entries.
    pub callgraph_entries: usize,
    /// Entry cap per stage map.
    pub capacity: usize,
}

impl StoreStats {
    /// Counters of one stage.
    pub fn stage(&self, stage: Stage) -> StageStats {
        self.stages[stage.index()]
    }

    /// Total hits across all stages.
    pub fn total_hits(&self) -> u64 {
        self.stages.iter().map(|s| s.hits).sum()
    }

    /// Total misses across all stages.
    pub fn total_misses(&self) -> u64 {
        self.stages.iter().map(|s| s.misses).sum()
    }

    /// Total evictions across all stages.
    pub fn total_evictions(&self) -> u64 {
        self.stages.iter().map(|s| s.evictions).sum()
    }

    /// Renders the snapshot as one JSON object (hand-written; the vendored
    /// serde is derive-markers only): schema `tmg-store-stats/v1`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{ \"schema\": \"tmg-store-stats/v1\", \"capacity\": {}, \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"stages\": {{",
            self.capacity,
            self.total_hits(),
            self.total_misses(),
            self.total_evictions()
        );
        for stage in STAGES {
            let s = self.stage(stage);
            let _ = write!(
                out,
                " \"{}\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"entries\": {} }},",
                stage.name(),
                s.hits,
                s.misses,
                s.evictions,
                self.entries[stage.index()],
            );
        }
        let _ = write!(
            out,
            " \"callgraph\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"entries\": {} }}",
            self.callgraph.hits, self.callgraph.misses, self.callgraph.evictions,
            self.callgraph_entries,
        );
        out.push_str(" } }");
        out
    }
}

/// The lowered function plus everything derived from the source alone.
#[derive(Debug)]
pub struct LoweredArtifact {
    /// Content fingerprint of the function source.
    pub function_key: u64,
    /// CFG + region tree.
    pub lowered: LoweredFunction,
    /// Reusable per-region path counts (feeds partitioning and the sweep).
    pub counts: PathCounts,
    /// Every branching statement of the function — the preserve-set union
    /// under which the shared checker model is prepared.
    pub decision_stmts: HashSet<StmtId>,
}

/// A partition plan at one `(function, path bound)`.
#[derive(Debug)]
pub struct PartitionArtifact {
    /// Content key the artifact is stored under.
    pub key: u64,
    /// The plan.
    pub plan: PartitionPlan,
}

/// The checker's optimised + encoded + prepared model for one
/// `(function, checker configuration)`.  `None` records that no single
/// shared model serves every query batch (the checker then re-verifies per
/// batch), so even the negative outcome is computed once.
#[derive(Debug)]
pub struct PreparedModelArtifact {
    /// Content key the artifact is stored under.
    pub key: u64,
    /// The shared model, if one is provably equivalent to per-query models.
    pub shared: Option<Arc<SharedCheckModel>>,
}

/// A generated test suite at one `(partition, generator configuration)`.
#[derive(Debug)]
pub struct SuiteArtifact {
    /// Content key the artifact is stored under.
    pub key: u64,
    /// The suite.
    pub suite: TestSuite,
}

/// A measurement campaign at one `(suite, cost model)`.
#[derive(Debug)]
pub struct CampaignArtifact {
    /// Content key the artifact is stored under.
    pub key: u64,
    /// The campaign.
    pub campaign: MeasurementCampaign,
}

/// A finished analysis report at one `(campaign, input space)`.
#[derive(Debug)]
pub struct BoundArtifact {
    /// Content key the artifact is stored under.
    pub key: u64,
    /// The report.
    pub report: AnalysisReport,
}

/// The module call graph plus its bottom-up summary order, keyed by
/// [`module_key`] over the function fingerprints.  Memory-tier only:
/// rebuilding is one AST walk, so persisting it would cost more than it
/// saves — its value is serving warm module analyses without re-walking
/// unchanged programs.  The order is cached as a `Result` so a recursive
/// module pays the cycle check once, not per analysis.
#[derive(Debug)]
pub struct CallGraphArtifact {
    /// Content key the artifact is stored under ([`module_key`]).
    pub key: u64,
    /// The call graph (nodes in program order).
    pub graph: CallGraph,
    /// Bottom-up summary order, or the recursion cycle that prevents one.
    pub order: Result<Vec<usize>, CallGraphError>,
}

/// Where the staged pipeline reads and writes its artifacts.
///
/// The in-memory [`ArtifactStore`] is the reference tier; the `tmg-service`
/// crate layers a persistent on-disk cache under it behind the same trait,
/// so [`WcetAnalysis::with_store`](crate::WcetAnalysis::with_store) accepts
/// either.  Implementations must be safe to share across the
/// `analyse_all` worker threads.
///
/// Contract: every method returns an artifact *identical* to what the
/// corresponding `compute_*` helper would produce for the same inputs — a
/// tier only changes where the bytes come from, never what they are.
pub trait TieredStore: fmt::Debug + Send + Sync {
    /// The in-memory tier backing this store (counter snapshots, tests).
    fn memory(&self) -> &ArtifactStore;

    /// The lowering stage, with the function fingerprint already computed.
    fn lowered_keyed(&self, function: &Function, key: u64) -> Arc<LoweredArtifact>;

    /// The partitioning stage at one path bound.
    fn partition(&self, lowered: &LoweredArtifact, path_bound: u128) -> Arc<PartitionArtifact>;

    /// The model-preparation stage.
    fn prepared_model(
        &self,
        function: &Function,
        lowered: &LoweredArtifact,
        checker: &ModelChecker,
    ) -> Arc<PreparedModelArtifact>;

    /// The test-generation stage.
    fn suite(
        &self,
        function: &Function,
        lowered: &LoweredArtifact,
        partition: &PartitionArtifact,
        generator: &HybridGenerator,
    ) -> Arc<SuiteArtifact>;

    /// The measurement stage.
    ///
    /// # Errors
    ///
    /// Propagates the target fault as an [`AnalysisError`] (stage `measure`);
    /// failures are not cached.
    fn campaign(
        &self,
        function: &Function,
        lowered: &LoweredArtifact,
        partition: &PartitionArtifact,
        suite: &SuiteArtifact,
        cost_model: &CostModel,
    ) -> Result<Arc<CampaignArtifact>, AnalysisError>;

    /// Looks up a finished bound artifact (no computation on miss — the
    /// staged runner owns the recomputation).
    fn bound(&self, key: u64) -> Option<Arc<BoundArtifact>>;

    /// Records a finished bound artifact.
    fn put_bound(&self, key: u64, report: AnalysisReport) -> Arc<BoundArtifact>;
}

/// Default entry cap of the bound map of the in-memory tier: generous enough
/// that the paper-reproduction workloads never evict, small enough that a
/// daemon analysing an unbounded stream of distinct functions stays bounded.
pub const DEFAULT_STAGE_CAPACITY: usize = 1024;

/// Entry cap of each intermediate map (lower, partition, prepare-model,
/// testgen, measure, and the module call graphs), whatever the store's
/// capacity: the working set of functions in flight plus a recent
/// same-function sweep.  Once a function's bound exists nothing reads its
/// intermediates again except a re-analysis at another path bound or cost
/// model, yet they weigh about 108 KB per function against a few hundred
/// bytes for the bound, and a call graph is stale after any edit of its
/// module, so keeping them for every analysis only holds memory.  A fixed
/// policy, like the persisted-stage set of the disk tier, not a knob.
pub const INTERMEDIATE_CAPACITY: usize = 16;

/// One LRU-managed stage map: artifacts keyed by content hash, each entry
/// carrying the logical timestamp of its last touch.  Eviction scans for the
/// minimum timestamp — O(n) on the rare insert beyond capacity, free
/// otherwise, and with the small per-stage caps that beats maintaining a
/// linked order on every hit.
struct LruMap<T> {
    entries: FxHashMap<u64, (Arc<T>, u64)>,
    tick: u64,
}

impl<T> Default for LruMap<T> {
    fn default() -> LruMap<T> {
        LruMap {
            entries: FxHashMap::default(),
            tick: 0,
        }
    }
}

impl<T> LruMap<T> {
    fn get(&mut self, key: u64) -> Option<Arc<T>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&key).map(|(value, touched)| {
            *touched = tick;
            Arc::clone(value)
        })
    }

    /// Get-or-insert; returns the resident artifact plus how many entries the
    /// capacity bound evicted.  The freshly touched key is never evicted, so
    /// even `capacity == 0` makes progress (the entry just does not persist
    /// past the next insert).
    fn insert(&mut self, key: u64, value: T, capacity: usize) -> (Arc<T>, u64) {
        self.tick += 1;
        let tick = self.tick;
        let resident = self
            .entries
            .entry(key)
            .or_insert_with(|| (Arc::new(value), tick));
        resident.1 = tick;
        let resident = Arc::clone(&resident.0);
        let mut evicted = 0;
        while self.entries.len() > capacity.max(1) {
            let Some(oldest) = self
                .entries
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, (_, touched))| *touched)
                .map(|(k, _)| *k)
            else {
                break;
            };
            self.entries.remove(&oldest);
            evicted += 1;
        }
        (resident, evicted)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Content-addressed in-memory store for every pipeline stage.
///
/// Thread-safe: `WcetAnalysis::analyse_all` fans functions out across cores
/// with all workers sharing one store.  Lookups and insertions take a
/// per-stage mutex; stage computations run outside any lock (two racing
/// workers may both compute the same artifact — the results are identical by
/// construction, and one insertion wins).  The bound map is bounded by
/// [`ArtifactStore::capacity`] entries and the intermediate maps by
/// [`INTERMEDIATE_CAPACITY`] (or the capacity, if smaller), each with
/// least-recently-used eviction.
pub struct ArtifactStore {
    lowered: Mutex<LruMap<LoweredArtifact>>,
    partitions: Mutex<LruMap<PartitionArtifact>>,
    models: Mutex<LruMap<PreparedModelArtifact>>,
    suites: Mutex<LruMap<SuiteArtifact>>,
    campaigns: Mutex<LruMap<CampaignArtifact>>,
    bounds: Mutex<LruMap<BoundArtifact>>,
    callgraphs: Mutex<LruMap<CallGraphArtifact>>,
    hits: [AtomicU64; 6],
    misses: [AtomicU64; 6],
    evictions: [AtomicU64; 6],
    callgraph_hits: AtomicU64,
    callgraph_misses: AtomicU64,
    callgraph_evictions: AtomicU64,
    capacity: usize,
}

impl Default for ArtifactStore {
    fn default() -> ArtifactStore {
        ArtifactStore::new()
    }
}

impl fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("ArtifactStore");
        for stage in STAGES {
            s.field(stage.name(), &self.stats(stage));
        }
        s.finish()
    }
}

macro_rules! stage_accessors {
    ($lookup:ident, $insert:ident, $field:ident, $stage:expr, $artifact:ty, $cap:ident) => {
        /// Probes the stage map; records a hit or miss.
        pub fn $lookup(&self, key: u64) -> Option<Arc<$artifact>> {
            let found = self.$field.lock().expect("store lock").get(key);
            self.record($stage, found.is_some());
            found
        }

        /// Inserts a computed artifact (first insertion wins on a race) and
        /// returns the resident copy, applying the LRU entry cap.
        pub fn $insert(&self, key: u64, artifact: $artifact) -> Arc<$artifact> {
            let (resident, evicted) =
                self.$field
                    .lock()
                    .expect("store lock")
                    .insert(key, artifact, self.$cap());
            if evicted > 0 {
                self.evictions[$stage.index()].fetch_add(evicted, Ordering::Relaxed);
            }
            resident
        }
    };
}

impl ArtifactStore {
    /// An empty store with the default per-stage entry cap.
    pub fn new() -> ArtifactStore {
        ArtifactStore::with_capacity(DEFAULT_STAGE_CAPACITY)
    }

    /// An empty store holding at most `capacity` bounds (minimum 1) and at
    /// most `capacity.min(INTERMEDIATE_CAPACITY)` entries per intermediate
    /// map, evicting least-recently-used artifacts beyond that.
    pub fn with_capacity(capacity: usize) -> ArtifactStore {
        ArtifactStore {
            lowered: Mutex::default(),
            partitions: Mutex::default(),
            models: Mutex::default(),
            suites: Mutex::default(),
            campaigns: Mutex::default(),
            bounds: Mutex::default(),
            callgraphs: Mutex::default(),
            hits: Default::default(),
            misses: Default::default(),
            evictions: Default::default(),
            callgraph_hits: AtomicU64::new(0),
            callgraph_misses: AtomicU64::new(0),
            callgraph_evictions: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    /// The entry cap of the bound map.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The entry cap of each intermediate map.
    fn intermediate_capacity(&self) -> usize {
        self.capacity.min(INTERMEDIATE_CAPACITY)
    }

    /// Hit/miss/eviction counters of one stage.
    pub fn stats(&self, stage: Stage) -> StageStats {
        StageStats {
            hits: self.hits[stage.index()].load(Ordering::Relaxed),
            misses: self.misses[stage.index()].load(Ordering::Relaxed),
            evictions: self.evictions[stage.index()].load(Ordering::Relaxed),
        }
    }

    /// Complete counter + occupancy snapshot (the satellite `stats()`
    /// struct; render with [`StoreStats::to_json`]).
    pub fn store_stats(&self) -> StoreStats {
        let mut stages = [StageStats::default(); 6];
        for stage in STAGES {
            stages[stage.index()] = self.stats(stage);
        }
        let entries = [
            self.lowered.lock().expect("store lock").len(),
            self.partitions.lock().expect("store lock").len(),
            self.models.lock().expect("store lock").len(),
            self.suites.lock().expect("store lock").len(),
            self.campaigns.lock().expect("store lock").len(),
            self.bounds.lock().expect("store lock").len(),
        ];
        StoreStats {
            stages,
            entries,
            callgraph: self.callgraph_stats(),
            callgraph_entries: self.callgraphs.lock().expect("store lock").len(),
            capacity: self.capacity,
        }
    }

    /// Hit/miss/eviction counters of the call-graph map.
    pub fn callgraph_stats(&self) -> StageStats {
        StageStats {
            hits: self.callgraph_hits.load(Ordering::Relaxed),
            misses: self.callgraph_misses.load(Ordering::Relaxed),
            evictions: self.callgraph_evictions.load(Ordering::Relaxed),
        }
    }

    /// The call-graph artifact of `program`, keyed by [`module_key`] over
    /// `fingerprints` (its functions' [`function_fingerprint`]s in program
    /// order, which the caller has already computed): graph plus bottom-up
    /// summary order, built on the first request and served from memory
    /// afterwards.
    pub fn callgraph(&self, program: &Program, fingerprints: &[u64]) -> Arc<CallGraphArtifact> {
        debug_assert_eq!(fingerprints.len(), program.functions.len());
        let key = module_key(fingerprints);
        let found = self.callgraphs.lock().expect("store lock").get(key);
        if let Some(hit) = found {
            self.callgraph_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.callgraph_misses.fetch_add(1, Ordering::Relaxed);
        let graph = CallGraph::build(program);
        let order = graph.reverse_topological_order();
        let (resident, evicted) = self.callgraphs.lock().expect("store lock").insert(
            key,
            CallGraphArtifact { key, graph, order },
            self.intermediate_capacity(),
        );
        if evicted > 0 {
            self.callgraph_evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
        resident
    }

    fn record(&self, stage: Stage, hit: bool) {
        let counters = if hit { &self.hits } else { &self.misses };
        counters[stage.index()].fetch_add(1, Ordering::Relaxed);
    }

    stage_accessors!(
        lookup_lowered,
        insert_lowered,
        lowered,
        Stage::Lower,
        LoweredArtifact,
        intermediate_capacity
    );
    stage_accessors!(
        lookup_partition,
        insert_partition,
        partitions,
        Stage::Partition,
        PartitionArtifact,
        intermediate_capacity
    );
    stage_accessors!(
        lookup_prepared_model,
        insert_prepared_model,
        models,
        Stage::PrepareModel,
        PreparedModelArtifact,
        intermediate_capacity
    );
    stage_accessors!(
        lookup_suite,
        insert_suite,
        suites,
        Stage::Testgen,
        SuiteArtifact,
        intermediate_capacity
    );
    stage_accessors!(
        lookup_campaign,
        insert_campaign,
        campaigns,
        Stage::Measure,
        CampaignArtifact,
        intermediate_capacity
    );
    stage_accessors!(
        lookup_bound,
        insert_bound,
        bounds,
        Stage::Bound,
        BoundArtifact,
        capacity
    );

    /// The lowering stage: CFG + region tree + path counts + decision-set.
    pub fn lowered(&self, function: &Function) -> Arc<LoweredArtifact> {
        TieredStore::lowered_keyed(self, function, function_fingerprint(function))
    }
}

impl TieredStore for ArtifactStore {
    fn memory(&self) -> &ArtifactStore {
        self
    }

    fn lowered_keyed(&self, function: &Function, key: u64) -> Arc<LoweredArtifact> {
        if let Some(hit) = self.lookup_lowered(key) {
            return hit;
        }
        self.insert_lowered(key, compute_lowered(function, key))
    }

    fn partition(&self, lowered: &LoweredArtifact, path_bound: u128) -> Arc<PartitionArtifact> {
        let key = partition_key(lowered.function_key, path_bound);
        if let Some(hit) = self.lookup_partition(key) {
            return hit;
        }
        self.insert_partition(key, compute_partition(lowered, path_bound, key))
    }

    fn prepared_model(
        &self,
        function: &Function,
        lowered: &LoweredArtifact,
        checker: &ModelChecker,
    ) -> Arc<PreparedModelArtifact> {
        let key = prepared_model_key(lowered.function_key, checker);
        if let Some(hit) = self.lookup_prepared_model(key) {
            return hit;
        }
        self.insert_prepared_model(key, compute_prepared_model(function, lowered, checker, key))
    }

    fn suite(
        &self,
        function: &Function,
        lowered: &LoweredArtifact,
        partition: &PartitionArtifact,
        generator: &HybridGenerator,
    ) -> Arc<SuiteArtifact> {
        let key = suite_key(partition.key, generator);
        if let Some(hit) = self.lookup_suite(key) {
            return hit;
        }
        self.insert_suite(
            key,
            compute_suite(self, function, lowered, partition, generator, key),
        )
    }

    fn campaign(
        &self,
        function: &Function,
        lowered: &LoweredArtifact,
        partition: &PartitionArtifact,
        suite: &SuiteArtifact,
        cost_model: &CostModel,
    ) -> Result<Arc<CampaignArtifact>, AnalysisError> {
        let key = campaign_key(suite.key, cost_model);
        if let Some(hit) = self.lookup_campaign(key) {
            return Ok(hit);
        }
        let campaign = compute_campaign(function, lowered, partition, suite, cost_model, key)?;
        Ok(self.insert_campaign(key, campaign))
    }

    fn bound(&self, key: u64) -> Option<Arc<BoundArtifact>> {
        self.lookup_bound(key)
    }

    fn put_bound(&self, key: u64, report: AnalysisReport) -> Arc<BoundArtifact> {
        self.insert_bound(key, BoundArtifact { key, report })
    }
}

// ---------------------------------------------------------------------------
// Stage keys.  Pure functions of the artifact inputs, shared by every tier so
// an artifact computed by one process is found by any other.
// ---------------------------------------------------------------------------

/// Key of the partition artifact at `(function, path bound)`.
pub fn partition_key(function_key: u64, path_bound: u128) -> u64 {
    combine_hashes(&[function_key, (path_bound >> 64) as u64, path_bound as u64])
}

/// Key of the prepared-model artifact at `(function, checker configuration)`.
pub fn prepared_model_key(function_key: u64, checker: &ModelChecker) -> u64 {
    combine_hashes(&[function_key, stable_hash_debug(checker)])
}

/// Key of the suite artifact at `(partition, generator configuration)`.
pub fn suite_key(partition_key: u64, generator: &HybridGenerator) -> u64 {
    combine_hashes(&[partition_key, stable_hash_debug(generator)])
}

/// Key of the campaign artifact at `(suite, cost model)`.
pub fn campaign_key(suite_key: u64, cost_model: &CostModel) -> u64 {
    combine_hashes(&[suite_key, stable_hash_debug(cost_model)])
}

/// Key of the final bound artifact.  Composes every upstream key without
/// running any stage: function source, path bound, generator (which embeds
/// the checker), cost model, and the exhaustive input space if supplied.
pub fn bound_key(
    analysis: &WcetAnalysis,
    function_key: u64,
    input_space: Option<&[InputVector]>,
) -> u64 {
    BoundKeys::new(analysis).key(function_key, &analysis.cost_model, input_space)
}

/// [`bound_key`] with the per-analysis part — path bound and generator,
/// whose `Debug` rendering dominates the hashing — derived once, for a
/// caller keying many functions or cost models under one analysis.
pub(crate) struct BoundKeys {
    path_bound: u128,
    generator: u64,
}

impl BoundKeys {
    pub(crate) fn new(analysis: &WcetAnalysis) -> BoundKeys {
        BoundKeys {
            path_bound: analysis.path_bound,
            generator: stable_hash_debug(&analysis.generator),
        }
    }

    /// The [`bound_key`] of `function_key` under `cost_model`.
    pub(crate) fn key(
        &self,
        function_key: u64,
        cost_model: &CostModel,
        input_space: Option<&[InputVector]>,
    ) -> u64 {
        compose_bound_key(
            function_key,
            self.path_bound,
            self.generator,
            stable_hash_debug(cost_model),
            input_space_hash(input_space),
        )
    }
}

/// The configuration half of [`bound_key`] for an analysis without an input
/// space — path bound, generator and cost model — hashed once, for a
/// long-lived caller that keys many functions under few configurations (the
/// analysis service keeps one per path bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigHash {
    path_bound: u128,
    generator: u64,
    cost_model: u64,
}

impl ConfigHash {
    /// Hashes the configuration of `analysis`.
    pub fn new(analysis: &WcetAnalysis) -> ConfigHash {
        ConfigHash {
            path_bound: analysis.path_bound,
            generator: stable_hash_debug(&analysis.generator),
            cost_model: stable_hash_debug(&analysis.cost_model),
        }
    }

    /// `bound_key(analysis, function_key, None)` for the hashed analysis.
    pub fn bound_key(&self, function_key: u64) -> u64 {
        compose_bound_key(
            function_key,
            self.path_bound,
            self.generator,
            self.cost_model,
            input_space_hash(None),
        )
    }
}

/// The one layout of a bound key over its hashed parts.
fn compose_bound_key(
    function_key: u64,
    path_bound: u128,
    generator: u64,
    cost_model: u64,
    input_space: u64,
) -> u64 {
    combine_hashes(&[
        function_key,
        (path_bound >> 64) as u64,
        path_bound as u64,
        generator,
        cost_model,
        input_space,
    ])
}

// ---------------------------------------------------------------------------
// Stage computations.  Pure (deterministic) functions from inputs to
// artifacts, shared by every tier — a tier decides *whether* to compute, these
// decide *what* the artifact is.
// ---------------------------------------------------------------------------

/// Computes the lowering artifact from the function source.
pub fn compute_lowered(function: &Function, key: u64) -> LoweredArtifact {
    let lowered = build_cfg(function);
    let counts = PathCounts::compute(&lowered);
    let decision_stmts = decision_statements(&lowered);
    LoweredArtifact {
        function_key: key,
        lowered,
        counts,
        decision_stmts,
    }
}

/// Computes the partition artifact at one path bound.
pub fn compute_partition(
    lowered: &LoweredArtifact,
    path_bound: u128,
    key: u64,
) -> PartitionArtifact {
    PartitionArtifact {
        key,
        plan: PartitionPlan::compute(&lowered.lowered, path_bound),
    }
}

/// Computes the prepared-model artifact: the checker's shared optimised,
/// encoded and prepared model, valid for every query batch over the function
/// (`None` when no shared model is provably equivalent — cached too, so the
/// verification itself is not repeated).
pub fn compute_prepared_model(
    function: &Function,
    lowered: &LoweredArtifact,
    checker: &ModelChecker,
    key: u64,
) -> PreparedModelArtifact {
    let shared = checker
        .prepare_shared(function, lowered.decision_stmts.clone())
        .map(Arc::new);
    PreparedModelArtifact { key, shared }
}

/// Computes the test-generation artifact.  The generator runs with the
/// tier's cached shared checker model (building it through `tier` only if a
/// residual checker batch exists), so neither the optimisation passes nor
/// the encoder run more than once per `(function, checker configuration)`
/// and a fully heuristic-covered function pays nothing.
pub fn compute_suite<S: TieredStore + ?Sized>(
    tier: &S,
    function: &Function,
    lowered: &LoweredArtifact,
    partition: &PartitionArtifact,
    generator: &HybridGenerator,
    key: u64,
) -> SuiteArtifact {
    let suite =
        generator.generate_with_model_provider(function, &lowered.lowered, &partition.plan, || {
            let _span = tmg_obs::span("stage:prepare-model");
            tier.prepared_model(function, lowered, &generator.checker)
                .shared
                .clone()
        });
    SuiteArtifact { key, suite }
}

/// Computes the measurement artifact.
///
/// # Errors
///
/// Propagates the target fault as an [`AnalysisError`] (stage `measure`).
pub fn compute_campaign(
    function: &Function,
    lowered: &LoweredArtifact,
    partition: &PartitionArtifact,
    suite: &SuiteArtifact,
    cost_model: &CostModel,
    key: u64,
) -> Result<CampaignArtifact, AnalysisError> {
    let campaign = MeasurementCampaign::run(
        function,
        &lowered.lowered,
        &partition.plan,
        &suite.suite.vectors(),
        cost_model,
    )?;
    Ok(CampaignArtifact { key, campaign })
}

/// Hash of an exhaustive input space (0 reserved for "none supplied").
fn input_space_hash(input_space: Option<&[InputVector]>) -> u64 {
    match input_space {
        None => 0,
        Some(space) => {
            let parts: Vec<u64> = space
                .iter()
                .map(|v| stable_hash_str(&v.to_string()))
                .collect();
            combine_hashes(&parts).max(1)
        }
    }
}

/// The union of every branching statement of the lowered function: the
/// preserve set under which the shared checker model is prepared (any path
/// query's statement set is a subset).
fn decision_statements(lowered: &LoweredFunction) -> HashSet<StmtId> {
    let mut stmts = HashSet::new();
    for block in lowered.cfg.blocks() {
        match &block.terminator {
            Terminator::Branch { stmt, .. } | Terminator::Switch { stmt, .. } => {
                stmts.insert(*stmt);
            }
            Terminator::Jump(_) | Terminator::Return { .. } | Terminator::Halt => {}
        }
    }
    stmts
}

/// Everything a staged run produces beyond the report, for callers that want
/// the intermediate artifacts (`analyse_detailed`, the bench harness).
#[derive(Debug)]
pub struct StagedAnalysis {
    /// The partitioning artifact.
    pub partition: Arc<PartitionArtifact>,
    /// The generated-suite artifact.
    pub suite: Arc<SuiteArtifact>,
    /// The measurement artifact.
    pub campaign: Arc<CampaignArtifact>,
    /// The summary report.
    pub report: AnalysisReport,
}

/// Runs the full staged pipeline for `analysis` on `function` through
/// `store`, returning only the report.  `function_key` is the function's
/// fingerprint and `key` its [`bound_key`], both derived by the caller.  A
/// hit on the final bound artifact short-circuits every earlier stage (no
/// lookup, no recompute).
///
/// Generic over the tier (`?Sized`, so `&dyn TieredStore` works too): calls
/// with a statically known store type monomorphise the whole stage chain.
///
/// # Errors
///
/// Returns [`AnalysisError`] when a measurement run faults on the target.
pub(crate) fn analyse_staged<S: TieredStore + ?Sized>(
    store: &S,
    analysis: &WcetAnalysis,
    function: &Function,
    function_key: u64,
    key: u64,
    input_space: Option<&[InputVector]>,
) -> Result<AnalysisReport, AnalysisError> {
    debug_assert_eq!(key, bound_key(analysis, function_key, input_space));
    if let Some(hit) = store.bound(key) {
        return Ok(hit.report.clone());
    }
    let staged = run_stages(store, analysis, function, function_key, input_space)?;
    store.put_bound(key, staged.report.clone());
    Ok(staged.report)
}

/// Like [`analyse_staged`] but returning the intermediate artifacts.  Always
/// materialises the stage chain (from the store where possible), so the
/// bound fast path is not taken.
///
/// # Errors
///
/// Returns [`AnalysisError`] when a measurement run faults on the target.
pub fn analyse_staged_detailed<S: TieredStore + ?Sized>(
    store: &S,
    analysis: &WcetAnalysis,
    function: &Function,
    input_space: Option<&[InputVector]>,
) -> Result<StagedAnalysis, AnalysisError> {
    run_stages(
        store,
        analysis,
        function,
        function_fingerprint(function),
        input_space,
    )
}

fn run_stages<S: TieredStore + ?Sized>(
    store: &S,
    analysis: &WcetAnalysis,
    function: &Function,
    function_key: u64,
    input_space: Option<&[InputVector]>,
) -> Result<StagedAnalysis, AnalysisError> {
    // Stage-boundary cancellation guards: each stage is atomic (it either
    // completes — and is then correct and safely cacheable — or, inside the
    // checker, unwinds with nothing published), so between stages is where a
    // fired deadline turns into a typed error with an accurate stage.
    let cancel = &analysis.generator.checker.cancel;
    let guard = |stage: Stage| {
        if cancel.is_cancelled() {
            Err(AnalysisError::cancelled(stage, &function.name))
        } else {
            Ok(())
        }
    };
    guard(Stage::Lower)?;
    let lowered = {
        let _span = tmg_obs::span("stage:lower");
        store.lowered_keyed(function, function_key)
    };
    guard(Stage::Partition)?;
    let partition = {
        let _span = tmg_obs::span("stage:partition");
        store.partition(&lowered, analysis.path_bound)
    };
    guard(Stage::Testgen)?;
    let suite = {
        let _span = tmg_obs::span("stage:testgen");
        store.suite(function, &lowered, &partition, &analysis.generator)
    };
    guard(Stage::Measure)?;
    let campaign = {
        let _span = tmg_obs::span("stage:measure");
        store.campaign(function, &lowered, &partition, &suite, &analysis.cost_model)?
    };
    guard(Stage::Bound)?;
    let _bound_span = tmg_obs::span("stage:bound");
    let exhaustive_max = match input_space {
        Some(space) => Some({
            let _span = tmg_obs::span("stage:exhaustive");
            exhaustive_end_to_end(function, &lowered.lowered, space, &analysis.cost_model)
                .map_err(AnalysisError::from)?
                .0
        }),
        None => None,
    };
    let plan = &partition.plan;
    let wcet_bound = compute_wcet(&lowered.lowered, plan, &campaign.campaign.worst_case_map());
    let report = AnalysisReport {
        function: function.name.clone(),
        path_bound: analysis.path_bound,
        segments: plan.segments.len(),
        instrumentation_points: plan.instrumentation_points(),
        measurements: plan.measurements(),
        goals: suite.suite.goal_count(),
        heuristic_covered: suite.suite.heuristic_covered(),
        checker_covered: suite.suite.checker_covered(),
        infeasible: suite.suite.infeasible_count(),
        unknown: suite.suite.unknown_count(),
        measurement_runs: campaign.campaign.runs,
        wcet_bound,
        exhaustive_max,
    };
    Ok(StagedAnalysis {
        partition,
        suite,
        campaign,
        report,
    })
}

impl From<MeasurementError> for AnalysisError {
    fn from(e: MeasurementError) -> AnalysisError {
        AnalysisError::new(Stage::Measure, e.function, e.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmg_minic::parse_function;

    fn small_function() -> Function {
        parse_function(
            "void f(char a __range(0, 3)) { if (a > 1) { x(); } else { y(); } if (a == 0) { z(); } }",
        )
        .expect("parse")
    }

    #[test]
    fn a_config_hash_keys_exactly_like_bound_key() {
        let fingerprint = function_fingerprint(&small_function());
        for path_bound in [1, 4, u128::MAX] {
            let analysis = WcetAnalysis::new(path_bound);
            let hash = ConfigHash::new(&analysis);
            assert_eq!(
                hash.bound_key(fingerprint),
                bound_key(&analysis, fingerprint, None)
            );
            // A deadline is not part of the configuration.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(3600);
            let cancellable = analysis.with_cancel(tmg_tsys::CancelToken::with_deadline(deadline));
            assert_eq!(ConfigHash::new(&cancellable), hash);
        }
        assert_ne!(
            ConfigHash::new(&WcetAnalysis::new(1)),
            ConfigHash::new(&WcetAnalysis::new(2))
        );
    }

    #[test]
    fn prepared_model_keys_incorporate_the_slicing_config() {
        // The checker's cone-of-influence slicing changes which model a
        // batch explores; a persisted artifact prepared under one slicing
        // setting must never be served to a checker running another.  The
        // key derives from the `Debug`-rendered configuration, which
        // includes the `slicing` flag.
        let function_key = tmg_cfg::function_fingerprint(&small_function());
        let sliced = prepared_model_key(function_key, &ModelChecker::new());
        let unsliced = prepared_model_key(function_key, &ModelChecker::new().with_slicing(false));
        assert_ne!(
            sliced, unsliced,
            "slicing configuration must feed the artifact key"
        );
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = STAGES.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "lower",
                "partition",
                "prepare-model",
                "testgen",
                "measure",
                "bound"
            ]
        );
        assert_eq!(Stage::PrepareModel.to_string(), "prepare-model");
    }

    #[test]
    fn lowered_artifacts_are_shared_by_content_not_identity() {
        let store = ArtifactStore::new();
        let f1 = small_function();
        let f2 = small_function(); // parsed separately, identical content
        let a1 = store.lowered(&f1);
        let a2 = store.lowered(&f2);
        assert!(
            Arc::ptr_eq(&a1, &a2),
            "same content must share the artifact"
        );
        assert_eq!(store.stats(Stage::Lower), StageStats::hm(1, 1));
        assert_eq!(a1.counts.len(), a1.lowered.regions.len());
        assert!(!a1.decision_stmts.is_empty());
    }

    #[test]
    fn partition_artifacts_key_on_the_bound() {
        let store = ArtifactStore::new();
        let f = small_function();
        let lowered = store.lowered(&f);
        let p1 = store.partition(&lowered, 1);
        let p2 = store.partition(&lowered, 4);
        let p1_again = store.partition(&lowered, 1);
        assert!(Arc::ptr_eq(&p1, &p1_again));
        assert_ne!(p1.key, p2.key);
        assert_eq!(store.stats(Stage::Partition), StageStats::hm(1, 2));
    }

    #[test]
    fn prepared_model_is_built_once_per_checker_config() {
        let store = ArtifactStore::new();
        let f = small_function();
        let lowered = store.lowered(&f);
        let checker = ModelChecker::new();
        let m1 = store.prepared_model(&f, &lowered, &checker);
        let m2 = store.prepared_model(&f, &lowered, &checker);
        assert!(Arc::ptr_eq(&m1, &m2));
        assert!(m1.shared.is_some(), "plain branches share one model");
        let tighter = ModelChecker::new().with_budget(1234);
        let m3 = store.prepared_model(&f, &lowered, &tighter);
        assert_ne!(m1.key, m3.key, "checker config feeds the key");
        assert_eq!(store.stats(Stage::PrepareModel), StageStats::hm(1, 2));
    }

    #[test]
    fn suite_stage_reuses_the_shared_model_and_matches_the_plain_generator() {
        let store = ArtifactStore::new();
        let f = small_function();
        let lowered = store.lowered(&f);
        // Bound 4 collapses the whole function into one segment whose path
        // goals include the infeasible `a > 1 && a == 0` combination, so the
        // residual checker batch — and with it the lazy model build — is
        // guaranteed to run.
        let partition = store.partition(&lowered, 4);
        let generator = HybridGenerator::new();
        let staged = store.suite(&f, &lowered, &partition, &generator);
        let plain = generator.generate(&f, &lowered.lowered, &partition.plan);
        assert_eq!(staged.suite, plain, "staged suite must be bit-identical");
        assert!(
            staged.suite.infeasible_count() > 0,
            "checker phase must run"
        );
        // The suite miss built the prepared model once; a second suite at a
        // different bound reuses it.
        let partition100 = store.partition(&lowered, 100);
        store.suite(&f, &lowered, &partition100, &generator);
        assert_eq!(
            store.stats(Stage::PrepareModel),
            StageStats::hm(1, 1),
            "one encoding serves both bounds"
        );
    }

    #[test]
    fn fully_heuristic_covered_suites_never_build_the_shared_model() {
        // Every goal of this function is reachable by random search, so the
        // residual batch is empty and the lazy provider must never fire.
        let store = ArtifactStore::new();
        let f =
            parse_function("void f(char a __range(0, 1)) { if (a) { x(); } y(); }").expect("parse");
        let lowered = store.lowered(&f);
        let partition = store.partition(&lowered, 100);
        let staged = store.suite(&f, &lowered, &partition, &HybridGenerator::new());
        assert_eq!(staged.suite.covered_count(), staged.suite.goal_count());
        assert_eq!(
            store.stats(Stage::PrepareModel),
            StageStats::hm(0, 0),
            "no residual batch, no model preparation"
        );
    }

    #[test]
    fn lru_cap_bounds_the_store_and_counts_evictions() {
        let store = ArtifactStore::with_capacity(2);
        let f = small_function();
        let lowered = store.lowered(&f);
        // Three distinct bounds through a 2-entry map: one eviction.
        store.partition(&lowered, 1);
        store.partition(&lowered, 2);
        store.partition(&lowered, 3);
        let stats = store.stats(Stage::Partition);
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 3, 1));
        let snapshot = store.store_stats();
        assert_eq!(snapshot.entries[Stage::Partition.index()], 2);
        // Bound 1 was least recently used and is gone; bound 3 is resident.
        store.partition(&lowered, 3);
        store.partition(&lowered, 1);
        let stats = store.stats(Stage::Partition);
        assert_eq!((stats.hits, stats.misses), (1, 4));
    }

    #[test]
    fn lru_eviction_prefers_the_least_recently_touched_entry() {
        let store = ArtifactStore::with_capacity(2);
        let f = small_function();
        let lowered = store.lowered(&f);
        store.partition(&lowered, 1);
        store.partition(&lowered, 2);
        // Touch bound 1 so bound 2 becomes the eviction victim.
        store.partition(&lowered, 1);
        store.partition(&lowered, 3);
        assert!(store
            .lookup_partition(partition_key(lowered.function_key, 1))
            .is_some());
        assert!(store
            .lookup_partition(partition_key(lowered.function_key, 2))
            .is_none());
    }

    #[test]
    fn store_stats_render_as_json() {
        let store = ArtifactStore::new();
        let f = small_function();
        store.lowered(&f);
        store.lowered(&f);
        let json = store.store_stats().to_json();
        assert!(json.contains("\"schema\": \"tmg-store-stats/v1\""));
        assert!(json.contains(
            "\"lower\": { \"hits\": 1, \"misses\": 1, \"evictions\": 0, \"entries\": 1 }"
        ));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let snapshot = store.store_stats();
        assert_eq!(snapshot.total_hits(), 1);
        assert_eq!(snapshot.total_misses(), 1);
        assert_eq!(snapshot.total_evictions(), 0);
    }
}
