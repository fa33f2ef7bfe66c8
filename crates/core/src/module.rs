//! Interprocedural WCET composition with differential dirty-cone
//! re-analysis.
//!
//! The single-function [`WcetAnalysis`](crate::WcetAnalysis) prices every
//! `call` statement as an external leaf: the uniform transfer overhead,
//! nothing else.  That is exact for calls that really do leave the analysed
//! module, and a silent under-approximation for calls to functions *defined
//! in the same program*.  [`ModuleAnalysis`] closes the gap bottom-up:
//!
//! 1. the module's [`CallGraph`](tmg_cfg::CallGraph) (cached as a
//!    [`CallGraphArtifact`] in the memory tier) yields a reverse-topological
//!    summary order — recursion is a typed [`AnalysisError`], the paper's
//!    segment calculus has no fixpoint story;
//! 2. each function is analysed under a cost model carrying
//!    [`CostModel::call_bounds`](tmg_target::CostModel) — the already-computed
//!    WCET bounds of its defined callees — so every defined call site is
//!    priced `call_overhead + bound(callee)` while external leaves keep the
//!    plain overhead;
//! 3. the resulting per-function bound is published as a *summary* under a
//!    key that folds the function's own bound key with its callees' summary
//!    keys.
//!
//! The summary keys are what make re-analysis *differential*: editing one
//! function changes its fingerprint, hence its summary key, hence (by the
//! fold) the summary key of every transitive caller — exactly the
//! [`dirty_cone`](tmg_cfg::CallGraph::dirty_cone) — and of nothing else.
//! Functions outside the cone are served straight from the store's bound
//! tier with zero recomputation (counter-asserted by the tests and the CI
//! smoke); functions inside the cone re-enter the staged pipeline, where the
//! unchanged early stages (lower, partition, prepare-model, testgen) still
//! hit — only the cost-model-dependent measure/bound stages re-run, and even
//! those are served warm when the edit did not change the callee's bound.
//!
//! Soundness of the composition is by induction over the acyclic call
//! graph: the priced `call_overhead + bound(callee)` dominates the actual
//! `call_overhead + actual(callee)` realised by the
//! [`ModuleMachine`](tmg_target::ModuleMachine) oracle, which the
//! module-level soundness tests sweep exhaustively.

use crate::analysis::{AnalysisError, AnalysisReport, WcetAnalysis};
use crate::pipeline::{ArtifactStore, BoundKeys, Stage, TieredStore};
use std::fmt;
use std::sync::Arc;
use tmg_cfg::{combine_hashes, function_fingerprint};
use tmg_minic::ast::Program;
use tmg_target::CostModel;
use tmg_tsys::CancelToken;

/// Process-wide differential-composition counters, mirroring
/// [`tmg_tsys::metrics`]: cheap relaxed atomics, snapshotted into the
/// service `stats` response and `reproduce -- sweep --stats` so dirty-cone
/// behaviour stays observable in production.
pub mod metrics {
    use std::fmt::Write as _;
    use std::sync::atomic::{AtomicU64, Ordering};

    static MODULE_ANALYSES: AtomicU64 = AtomicU64::new(0);
    static MODULES_SERVED_WARM: AtomicU64 = AtomicU64::new(0);
    static SUMMARIES_REUSED: AtomicU64 = AtomicU64::new(0);
    static SUMMARIES_COMPUTED: AtomicU64 = AtomicU64::new(0);
    static LAST_DIRTY_CONE: AtomicU64 = AtomicU64::new(0);

    /// One snapshot of the module-composition counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ModuleMetrics {
        /// Completed `analyse_module` runs.
        pub module_analyses: u64,
        /// Runs in which *every* function summary was served from the store
        /// (no function re-entered the pipeline at all).
        pub modules_served_warm: u64,
        /// Function summaries served from the store across all runs.
        pub summaries_reused: u64,
        /// Function summaries that had to be (re)computed across all runs.
        pub summaries_computed: u64,
        /// Summaries recomputed by the most recent run — for a differential
        /// re-analysis this is the realised dirty-cone size.
        pub last_dirty_cone: u64,
    }

    impl ModuleMetrics {
        /// Renders the snapshot as one JSON object (hand-written; the
        /// vendored serde is derive-markers only): schema
        /// `tmg-module-stats/v1`.
        pub fn to_json(&self) -> String {
            let mut out = String::new();
            let _ = write!(
                out,
                "{{ \"schema\": \"tmg-module-stats/v1\", \"module_analyses\": {}, \
                 \"modules_served_warm\": {}, \"summaries_reused\": {}, \
                 \"summaries_computed\": {}, \"last_dirty_cone\": {} }}",
                self.module_analyses,
                self.modules_served_warm,
                self.summaries_reused,
                self.summaries_computed,
                self.last_dirty_cone,
            );
            out
        }
    }

    /// Registers every counter, by its JSON name and in declaration order,
    /// into the unified metrics registry (group `"module"`, schema
    /// `tmg-module-stats/v1` as the struct renderer emits).  Idempotent;
    /// [`snapshot`] calls it, so any stats consumer sees the group
    /// registered.
    pub fn register() {
        tmg_obs::registry().register_counters(
            "module",
            Some("tmg-module-stats/v1"),
            vec![
                ("module_analyses", &MODULE_ANALYSES),
                ("modules_served_warm", &MODULES_SERVED_WARM),
                ("summaries_reused", &SUMMARIES_REUSED),
                ("summaries_computed", &SUMMARIES_COMPUTED),
                ("last_dirty_cone", &LAST_DIRTY_CONE),
            ],
        );
    }

    /// Reads the current counter values.
    pub fn snapshot() -> ModuleMetrics {
        register();
        ModuleMetrics {
            module_analyses: MODULE_ANALYSES.load(Ordering::Relaxed),
            modules_served_warm: MODULES_SERVED_WARM.load(Ordering::Relaxed),
            summaries_reused: SUMMARIES_REUSED.load(Ordering::Relaxed),
            summaries_computed: SUMMARIES_COMPUTED.load(Ordering::Relaxed),
            last_dirty_cone: LAST_DIRTY_CONE.load(Ordering::Relaxed),
        }
    }

    pub(super) fn record_module(reused: u64, computed: u64) {
        MODULE_ANALYSES.fetch_add(1, Ordering::Relaxed);
        if computed == 0 {
            MODULES_SERVED_WARM.fetch_add(1, Ordering::Relaxed);
        }
        SUMMARIES_REUSED.fetch_add(reused, Ordering::Relaxed);
        SUMMARIES_COMPUTED.fetch_add(computed, Ordering::Relaxed);
        LAST_DIRTY_CONE.store(computed, Ordering::Relaxed);
    }
}

/// The interprocedural summary of one function within a module analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionSummary {
    /// Function name.
    pub function: String,
    /// The summary key: the function's bound key under its priced cost
    /// model, folded with its callees' summary keys.  Any transitive edit
    /// changes it; nothing else does.
    pub summary_key: u64,
    /// Composed WCET bound (defined callees priced at their bounds).
    pub wcet_bound: u64,
    /// Defined callees, in program order.
    pub callees: Vec<String>,
    /// Whether the summary was served from the store without re-entering
    /// the pipeline.
    pub from_cache: bool,
}

/// A call-graph root (a function no defined function calls) and its
/// composed bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootBound {
    /// Function name.
    pub function: String,
    /// Composed WCET bound.
    pub wcet_bound: u64,
}

/// The result of one module-level analysis: per-function reports and
/// summaries (program order) plus the call-graph roots.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleReport {
    /// Content key of the whole analysis (fold of every summary key):
    /// identical module + configuration ⇒ identical key ⇒ identical report.
    pub module_key: u64,
    /// Path bound `b` the partitioning ran under.
    pub path_bound: u128,
    /// Per-function analysis reports, in program order.
    pub reports: Vec<AnalysisReport>,
    /// Per-function summaries, in program order.
    pub summaries: Vec<FunctionSummary>,
    /// Call-graph roots with their composed bounds.
    pub roots: Vec<RootBound>,
    /// Summaries served from the store this run.
    pub summaries_reused: usize,
    /// Summaries (re)computed this run — the realised dirty cone of a
    /// differential re-analysis.
    pub summaries_computed: usize,
}

impl ModuleReport {
    /// The composed bound of `function`, if defined.
    pub fn bound_of(&self, function: &str) -> Option<u64> {
        self.summaries
            .iter()
            .find(|s| s.function == function)
            .map(|s| s.wcet_bound)
    }

    /// The worst root: the entry point with the largest composed bound
    /// (ties broken by name for determinism).
    pub fn worst_root(&self) -> Option<&RootBound> {
        self.roots
            .iter()
            .max_by_key(|r| (r.wcet_bound, std::cmp::Reverse(&r.function)))
    }

    /// Names of the functions recomputed this run, in program order.
    pub fn recomputed(&self) -> Vec<&str> {
        self.summaries
            .iter()
            .filter(|s| !s.from_cache)
            .map(|s| s.function.as_str())
            .collect()
    }
}

impl fmt::Display for ModuleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "module WCET analysis: {} function(s), b = {}, {} reused / {} computed",
            self.summaries.len(),
            self.path_bound,
            self.summaries_reused,
            self.summaries_computed
        )?;
        for root in &self.roots {
            writeln!(
                f,
                "  root `{}`: composed bound {} cycles",
                root.function, root.wcet_bound
            )?;
        }
        Ok(())
    }
}

/// Module-level WCET composition over [`WcetAnalysis`].  See the module
/// docs for the summary and invalidation story.
#[derive(Debug, Clone)]
pub struct ModuleAnalysis {
    analysis: WcetAnalysis,
}

impl ModuleAnalysis {
    /// A module analysis with the given path bound and default settings.
    pub fn new(path_bound: u128) -> ModuleAnalysis {
        ModuleAnalysis {
            analysis: WcetAnalysis::new(path_bound),
        }
    }

    /// Replaces the *base* target cost model (per-function priced models are
    /// derived from it by adding callee bounds).
    pub fn with_cost_model(mut self, cost_model: CostModel) -> ModuleAnalysis {
        self.analysis = self.analysis.with_cost_model(cost_model);
        self
    }

    /// Attaches a shared artifact store tier; this is what makes repeated
    /// module analyses differential (without one, each call runs on a
    /// private transient store shared only within that call).
    pub fn with_store(mut self, store: Arc<dyn TieredStore>) -> ModuleAnalysis {
        self.analysis = self.analysis.with_store(store);
        self
    }

    /// Installs a cooperative cancellation token (see
    /// [`WcetAnalysis::with_cancel`]).
    pub fn with_cancel(mut self, cancel: CancelToken) -> ModuleAnalysis {
        self.analysis = self.analysis.with_cancel(cancel);
        self
    }

    /// Analyses every function of `program` in bottom-up call order,
    /// pricing defined call sites at their callees' composed bounds.
    ///
    /// # Errors
    ///
    /// [`AnalysisError`] when the call graph is recursive (no bottom-up
    /// summary order exists; attributed to stage `lower` of the first
    /// function of the cycle), when a measurement run faults, or when an
    /// installed deadline fires.
    pub fn analyse_module(&self, program: &Program) -> Result<ModuleReport, AnalysisError> {
        let store: Arc<dyn TieredStore> = self
            .analysis
            .store_tier()
            .unwrap_or_else(|| Arc::new(ArtifactStore::new()));
        let base = self.analysis.clone().with_store(Arc::clone(&store));
        // Every key below is derived once per run: one fingerprint per
        // function (shared by the call-graph memo, the summary keys and the
        // dirty cone's staged runs) and one hash of the generator.
        let fingerprints: Vec<u64> = program.functions.iter().map(function_fingerprint).collect();
        let bound_keys = BoundKeys::new(&base);
        let artifact = store.memory().callgraph(program, &fingerprints);
        let order = match &artifact.order {
            Ok(order) => order.clone(),
            Err(cycle) => {
                let function = cycle.cycle.first().cloned().unwrap_or_default();
                return Err(AnalysisError::new(
                    Stage::Lower,
                    function,
                    cycle.to_string(),
                ));
            }
        };
        let graph = &artifact.graph;
        let n = graph.len();
        let mut summary_keys = vec![0u64; n];
        let mut bounds = vec![0u64; n];
        let mut reports: Vec<Option<AnalysisReport>> = vec![None; n];
        let mut cached = vec![false; n];
        for &i in &order {
            let function = &program.functions[i];
            let call_bounds: Vec<(String, u64)> = graph
                .callees(i)
                .iter()
                .map(|&j| (graph.name(j).to_owned(), bounds[j]))
                .collect();
            let cost_model = base.cost_model.clone().with_call_bounds(call_bounds);
            // The summary key folds the function's own bound key (which the
            // priced cost model — and through it every callee *bound* —
            // already feeds) with the callees' summary keys, so a callee
            // edit that happens to leave its bound unchanged still re-keys
            // the caller: the probe below misses, but the pipeline then
            // hits the unchanged inner bound key and the re-publication is
            // near-free.
            let inner_key = bound_keys.key(fingerprints[i], &cost_model, None);
            let mut parts = vec![inner_key];
            parts.extend(graph.callees(i).iter().map(|&j| summary_keys[j]));
            let key = combine_hashes(&parts);
            summary_keys[i] = key;
            let report = match store.bound(key) {
                Some(hit) => {
                    cached[i] = true;
                    hit.report.clone()
                }
                None => {
                    let per_fn = base.clone().with_cost_model(cost_model);
                    let report = per_fn.run_keyed(function, fingerprints[i], inner_key, None)?;
                    store.put_bound(key, report.clone());
                    report
                }
            };
            bounds[i] = report.wcet_bound;
            reports[i] = Some(report);
        }
        let summaries: Vec<FunctionSummary> = (0..n)
            .map(|i| FunctionSummary {
                function: graph.name(i).to_owned(),
                summary_key: summary_keys[i],
                wcet_bound: bounds[i],
                callees: graph
                    .callees(i)
                    .iter()
                    .map(|&j| graph.name(j).to_owned())
                    .collect(),
                from_cache: cached[i],
            })
            .collect();
        let roots: Vec<RootBound> = graph
            .roots()
            .into_iter()
            .map(|i| RootBound {
                function: graph.name(i).to_owned(),
                wcet_bound: bounds[i],
            })
            .collect();
        let reused = cached.iter().filter(|&&c| c).count();
        metrics::record_module(reused as u64, (n - reused) as u64);
        Ok(ModuleReport {
            module_key: combine_hashes(&summary_keys),
            path_bound: self.analysis.path_bound,
            reports: reports
                .into_iter()
                .map(|r| r.expect("bottom-up order visits every function"))
                .collect(),
            summaries,
            roots,
            summaries_reused: reused,
            summaries_computed: n - reused,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmg_minic::parse_program;

    const MODULE: &str = "\
        void leaf(char v __range(0, 3)) { if (v > 1) { work(); } } \
        void mid(char a __range(0, 3)) { leaf(a); external(); } \
        void root(char a __range(0, 3)) { mid(a); if (a == 0) { extra(); } } \
        void lone(char z __range(0, 1)) { if (z) { other(); } }";

    fn module() -> Program {
        parse_program(MODULE).expect("parse")
    }

    #[test]
    fn composition_prices_defined_callees_above_leaf_analysis() {
        let program = module();
        let report = ModuleAnalysis::new(4)
            .analyse_module(&program)
            .expect("module");
        let leaf = report.bound_of("leaf").expect("leaf");
        let mid = report.bound_of("mid").expect("mid");
        let root = report.bound_of("root").expect("root");
        assert!(leaf > 0);
        assert!(mid > leaf, "mid embeds leaf's bound: {mid} vs {leaf}");
        assert!(root > mid, "root embeds mid's bound: {root} vs {mid}");
        // The standalone analysis treats `mid`'s call to `leaf` as an
        // external leaf and must come in strictly below the composed bound.
        let standalone = WcetAnalysis::new(4)
            .analyse(&program.functions[1])
            .expect("standalone");
        assert!(mid > standalone.wcet_bound);
        // Roots: `root` and `lone` (nobody calls them).
        let roots: Vec<&str> = report.roots.iter().map(|r| r.function.as_str()).collect();
        assert_eq!(roots, ["root", "lone"]);
        assert_eq!(report.worst_root().expect("roots").function, "root");
    }

    #[test]
    fn composed_bound_equals_manually_priced_standalone_analysis() {
        let program = module();
        let report = ModuleAnalysis::new(4)
            .analyse_module(&program)
            .expect("module");
        let leaf_bound = report.bound_of("leaf").expect("leaf");
        let priced = WcetAnalysis::new(4)
            .with_cost_model(
                CostModel::hcs12().with_call_bounds(vec![("leaf".to_owned(), leaf_bound)]),
            )
            .analyse(&program.functions[1])
            .expect("priced standalone");
        assert_eq!(report.bound_of("mid"), Some(priced.wcet_bound));
    }

    #[test]
    fn a_warm_second_run_reuses_every_summary() {
        let program = module();
        let store = Arc::new(ArtifactStore::new());
        let analysis = ModuleAnalysis::new(4).with_store(store.clone());
        let cold = analysis.analyse_module(&program).expect("cold");
        assert_eq!(cold.summaries_computed, 4);
        let warm = analysis.analyse_module(&program).expect("warm");
        assert_eq!(warm.summaries_reused, 4);
        assert_eq!(warm.summaries_computed, 0);
        assert!(warm.summaries.iter().all(|s| s.from_cache));
        assert_eq!(warm.reports, cold.reports);
        assert_eq!(warm.module_key, cold.module_key);
        // The call graph itself was reused, not rebuilt.
        let cg = store.memory().callgraph_stats();
        assert_eq!((cg.hits, cg.misses), (1, 1));
    }

    #[test]
    fn editing_one_function_recomputes_exactly_the_dirty_cone() {
        let store = Arc::new(ArtifactStore::new());
        let analysis = ModuleAnalysis::new(4).with_store(store.clone());
        let before = analysis.analyse_module(&module()).expect("cold");
        // Edit `leaf` (make the guarded branch heavier): dirty cone is
        // {leaf, mid, root}; `lone` stays cached.
        let edited = parse_program(&MODULE.replace("{ work(); }", "{ work(); more(); }"))
            .expect("parse edited");
        let after = analysis.analyse_module(&edited).expect("differential");
        assert_eq!(after.recomputed(), ["leaf", "mid", "root"]);
        assert_eq!(after.summaries_reused, 1);
        assert_eq!(
            after.bound_of("lone"),
            before.bound_of("lone"),
            "outside the cone nothing changes"
        );
        assert!(after.bound_of("leaf") > before.bound_of("leaf"));
        assert!(after.bound_of("root") > before.bound_of("root"));
        // Differential result ≡ from-scratch result, bit-identical.
        let scratch = ModuleAnalysis::new(4)
            .analyse_module(&edited)
            .expect("scratch");
        assert_eq!(after.reports, scratch.reports);
        assert_eq!(after.module_key, scratch.module_key);
    }

    #[test]
    fn recursion_is_a_typed_analysis_error() {
        let program =
            parse_program("void even() { odd(); } void odd() { even(); }").expect("parse");
        let err = ModuleAnalysis::new(4)
            .analyse_module(&program)
            .expect_err("recursive module");
        assert_eq!(err.stage, Stage::Lower);
        assert_eq!(err.function, "even");
        assert!(err.message.contains("recursive call cycle"));
        assert!(!err.is_cancelled());
    }

    #[test]
    fn empty_modules_compose_to_an_empty_report() {
        let program = parse_program("").expect("parse");
        let report = ModuleAnalysis::new(4)
            .analyse_module(&program)
            .expect("empty");
        assert!(report.reports.is_empty());
        assert!(report.roots.is_empty());
        assert!(report.worst_root().is_none());
    }

    #[test]
    fn module_metrics_render_as_json() {
        let snapshot = metrics::snapshot();
        let json = snapshot.to_json();
        assert!(json.contains("\"schema\": \"tmg-module-stats/v1\""));
        assert!(json.contains("\"summaries_reused\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
