//! The end-to-end WCET analysis pipeline.
//!
//! [`WcetAnalysis`] is a thin configuration wrapper over the staged,
//! content-addressed pipeline of [`crate::pipeline`]: every entry point runs
//! the same stage chain (lower → partition → prepare model → generate →
//! measure → bound) through an [`ArtifactStore`].  Without an attached store
//! each call uses a private transient one — identical behaviour and cost to
//! the historical free-running pipeline; with
//! [`WcetAnalysis::with_store`] artifacts are shared across calls, bounds
//! and threads, so repeated analyses reuse instead of recompute.

use crate::measurement::MeasurementCampaign;
use crate::partition::PartitionPlan;
use crate::pipeline::{
    analyse_staged, analyse_staged_detailed, bound_key, ArtifactStore, Stage, TieredStore,
};
use crate::testgen::{HybridGenerator, TestSuite};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use tmg_minic::ast::Function;
use tmg_minic::value::InputVector;
use tmg_target::CostModel;

/// Classifies an [`AnalysisError`] for callers that must tell genuine
/// pipeline faults apart from cooperative cancellation — the analysis
/// service maps the kind onto its typed JSON error vocabulary (`fault`
/// vs `deadline_exceeded`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisErrorKind {
    /// A real pipeline failure (e.g. a measurement run faulted on the
    /// target).
    Fault,
    /// The request's deadline expired (or its caller cancelled it) before
    /// the analysis completed.  Nothing was computed, published or cached
    /// under the fired token — re-running the same request without a
    /// deadline yields the normal result.
    Cancelled,
}

/// Error raised by the analysis pipeline, attributed to the stage and
/// function it occurred in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisError {
    /// The pipeline stage that failed.
    pub stage: Stage,
    /// Name of the function being analysed.
    pub function: String,
    /// What went wrong.
    pub message: String,
    /// Fault or cooperative cancellation.
    pub kind: AnalysisErrorKind,
}

impl AnalysisError {
    /// Creates an error attributed to `stage` and `function`.
    pub fn new(
        stage: Stage,
        function: impl Into<String>,
        message: impl Into<String>,
    ) -> AnalysisError {
        AnalysisError {
            stage,
            function: function.into(),
            message: message.into(),
            kind: AnalysisErrorKind::Fault,
        }
    }

    /// Creates a cancellation error: the deadline fired while `stage` was
    /// the next (or current) stage of `function`'s pipeline.
    pub fn cancelled(stage: Stage, function: impl Into<String>) -> AnalysisError {
        AnalysisError {
            stage,
            function: function.into(),
            message: "deadline expired or request cancelled before the analysis completed"
                .to_string(),
            kind: AnalysisErrorKind::Cancelled,
        }
    }

    /// Whether this error is a cooperative cancellation rather than a fault.
    pub fn is_cancelled(&self) -> bool {
        self.kind == AnalysisErrorKind::Cancelled
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wcet analysis error in stage `{}` of `{}`: {}",
            self.stage, self.function, self.message
        )
    }
}

impl std::error::Error for AnalysisError {}

/// Summary of one complete analysis run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Analysed function name.
    pub function: String,
    /// Path bound used for the partitioning.
    pub path_bound: u128,
    /// Number of program segments.
    pub segments: usize,
    /// Instrumentation points `ip` (two per segment).
    pub instrumentation_points: usize,
    /// Measurements `m` (one per segment path).
    pub measurements: u128,
    /// Coverage goals generated for the measurement campaign.
    pub goals: usize,
    /// Goals covered by the heuristic phase.
    pub heuristic_covered: usize,
    /// Goals covered by the model checker.
    pub checker_covered: usize,
    /// Goals proven infeasible.
    pub infeasible: usize,
    /// Goals left unresolved.
    pub unknown: usize,
    /// Number of instrumented measurement runs.
    pub measurement_runs: usize,
    /// The computed WCET bound in target cycles.
    pub wcet_bound: u64,
    /// Exhaustively measured end-to-end maximum, when an input space was
    /// supplied (the case-study comparison of Section 4).
    pub exhaustive_max: Option<u64>,
}

impl AnalysisReport {
    /// Pessimism of the bound relative to the exhaustive maximum
    /// (`bound / exhaustive`), when available.
    pub fn pessimism(&self) -> Option<f64> {
        self.exhaustive_max
            .map(|e| self.wcet_bound as f64 / e.max(1) as f64)
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "WCET analysis of `{}`", self.function)?;
        writeln!(
            f,
            "  path bound b = {}  →  {} segments, ip = {}, m = {}",
            self.path_bound, self.segments, self.instrumentation_points, self.measurements
        )?;
        writeln!(
            f,
            "  test data: {} goals, {} heuristic + {} model checker, {} infeasible, {} unknown",
            self.goals, self.heuristic_covered, self.checker_covered, self.infeasible, self.unknown
        )?;
        writeln!(f, "  measurement runs: {}", self.measurement_runs)?;
        write!(f, "  WCET bound: {} cycles", self.wcet_bound)?;
        if let Some(e) = self.exhaustive_max {
            write!(
                f,
                " (exhaustive maximum {e} cycles, pessimism {:.2}×)",
                self.pessimism().unwrap_or(1.0)
            )?;
        }
        Ok(())
    }
}

/// The complete measurement-based WCET analysis of the paper: partition the
/// CFG, generate test data, measure on the target, combine with the timing
/// schema.
#[derive(Debug, Clone)]
pub struct WcetAnalysis {
    /// Path bound `b` for the partitioning step.
    pub path_bound: u128,
    /// Cost model of the simulated target.
    pub cost_model: CostModel,
    /// Test-data generator (heuristic + model checker).
    pub generator: HybridGenerator,
    /// Artifact store shared across calls, if attached.  Any [`TieredStore`]
    /// tier works: the in-memory [`ArtifactStore`] or the persistent
    /// disk-backed store of the `tmg-service` crate.
    store: Option<Arc<dyn TieredStore>>,
}

impl WcetAnalysis {
    /// Creates an analysis with the given path bound and default settings.
    pub fn new(path_bound: u128) -> WcetAnalysis {
        WcetAnalysis {
            path_bound,
            cost_model: CostModel::hcs12(),
            generator: HybridGenerator::new(),
            store: None,
        }
    }

    /// Replaces the target cost model.
    pub fn with_cost_model(mut self, cost_model: CostModel) -> WcetAnalysis {
        self.cost_model = cost_model;
        self
    }

    /// Attaches a shared artifact store tier: subsequent analyses reuse every
    /// stage whose content-hashed inputs are unchanged (across calls, path
    /// bounds and `analyse_all` worker threads — and, with a persistent tier,
    /// across processes).  Without a store each call runs on a private
    /// transient in-memory store.
    pub fn with_store(mut self, store: Arc<dyn TieredStore>) -> WcetAnalysis {
        self.store = Some(store);
        self
    }

    /// Installs a cooperative cancellation token: the stage chain polls it
    /// at stage boundaries and the model checker every few thousand states
    /// of an exploration, so a fired deadline surfaces as a typed
    /// [`AnalysisErrorKind::Cancelled`] error instead of a weaker (and
    /// unsound-to-cache) result.  Stages are atomic with respect to
    /// cancellation — each one either completes (and may be cached, it is
    /// correct) or unwinds with nothing published.  The token is excluded
    /// from every artifact key, so deadlines never fragment the cache.
    pub fn with_cancel(mut self, cancel: tmg_tsys::CancelToken) -> WcetAnalysis {
        self.generator.checker.cancel = cancel;
        self
    }

    /// The attached store tier, if any (the module-level driver shares it
    /// across per-function analyses and summary probes).
    pub(crate) fn store_tier(&self) -> Option<Arc<dyn TieredStore>> {
        self.store.clone()
    }

    /// Runs the full pipeline on `function`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] when a measurement run faults on the target.
    pub fn analyse(&self, function: &Function) -> Result<AnalysisReport, AnalysisError> {
        self.run(function, None)
    }

    /// Runs the full pipeline on every function of a module, in input order.
    ///
    /// This is where the toolchain's parallelism lives: functions are
    /// analysed concurrently (each function's residual checker queries are
    /// already batched into one shared exploration by the generator, so
    /// fanning out *within* a function would only add pool overhead).  The
    /// worker pool runs a single function inline.  An attached store is
    /// shared by all workers.
    pub fn analyse_all(
        &self,
        functions: &[Function],
    ) -> Vec<Result<AnalysisReport, AnalysisError>> {
        // Workers continue the caller's trace (if any), so a traced
        // request's per-function spans land under its request span no
        // matter which pool thread ran them.
        let ctx = tmg_obs::current_context();
        functions
            .par_iter()
            .map(|f| {
                let _trace = tmg_obs::enter_trace(ctx);
                self.analyse(f)
            })
            .collect()
    }

    /// Runs the full pipeline and additionally determines the exact WCET by
    /// exhaustive end-to-end measurement over `input_space` (feasible only
    /// for small input spaces, as in the paper's case study).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] when a measurement run faults on the target.
    pub fn analyse_with_exhaustive(
        &self,
        function: &Function,
        input_space: &[InputVector],
    ) -> Result<AnalysisReport, AnalysisError> {
        self.run(function, Some(input_space))
    }

    /// Exposes the intermediate artefacts (plan, suite, campaign) for callers
    /// that want more than the summary report, such as the benchmark harness.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] when a measurement run faults on the target.
    pub fn analyse_detailed(
        &self,
        function: &Function,
    ) -> Result<
        (
            PartitionPlan,
            TestSuite,
            MeasurementCampaign,
            AnalysisReport,
        ),
        AnalysisError,
    > {
        let staged = tmg_tsys::catch_cancel(|| match &self.store {
            None => analyse_staged_detailed(&ArtifactStore::new(), self, function, None),
            Some(tier) => analyse_staged_detailed(&**tier, self, function, None),
        })
        .unwrap_or_else(|_| Err(AnalysisError::cancelled(Stage::Testgen, &function.name)))?;
        Ok((
            staged.partition.plan.clone(),
            staged.suite.suite.clone(),
            staged.campaign.campaign.clone(),
            staged.report,
        ))
    }

    fn run(
        &self,
        function: &Function,
        input_space: Option<&[InputVector]>,
    ) -> Result<AnalysisReport, AnalysisError> {
        let function_key = tmg_cfg::function_fingerprint(function);
        let key = bound_key(self, function_key, input_space);
        self.run_keyed(function, function_key, key, input_space)
    }

    /// [`Self::analyse`] (or, with an input space, the exhaustive variant)
    /// for a caller that already derived the function's fingerprint
    /// `function_key` and its [`bound_key`] `key` under this analysis.
    pub(crate) fn run_keyed(
        &self,
        function: &Function,
        function_key: u64,
        key: u64,
        input_space: Option<&[InputVector]>,
    ) -> Result<AnalysisReport, AnalysisError> {
        // A fired deadline unwinds out of the model checker (the only stage
        // component with in-flight checkpoints); catching it here converts
        // the unwind into a typed error and attributes it to the test
        // generation stage, which hosts the checker.
        tmg_tsys::catch_cancel(|| match &self.store {
            None => analyse_staged(
                &ArtifactStore::new(),
                self,
                function,
                function_key,
                key,
                input_space,
            ),
            Some(tier) => analyse_staged(&**tier, self, function, function_key, key, input_space),
        })
        .unwrap_or_else(|_| Err(AnalysisError::cancelled(Stage::Testgen, &function.name)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmg_minic::parse_function;

    #[test]
    fn pipeline_produces_a_sound_bound_on_a_small_controller() {
        let src = r#"
            int limiter(char demand __range(0, 10), bool enabled) {
                int out;
                out = 0;
                if (enabled) {
                    if (demand > 5) { saturate(); out = 5; } else { pass(); out = demand; }
                } else {
                    disabled(); out = 0;
                }
                return out;
            }
        "#;
        let f = parse_function(src).expect("parse");
        let space: Vec<InputVector> = (0..=10)
            .flat_map(|d| {
                (0..=1).map(move |e| InputVector::new().with("demand", d).with("enabled", e))
            })
            .collect();
        let report = WcetAnalysis::new(2)
            .analyse_with_exhaustive(&f, &space)
            .expect("analysis");
        let exhaustive = report.exhaustive_max.expect("exhaustive");
        assert!(report.wcet_bound >= exhaustive);
        assert!(report.pessimism().expect("pessimism") < 2.0);
        assert!(report.to_string().contains("WCET bound"));
    }

    #[test]
    fn path_bound_controls_instrumentation_point_count() {
        let src = "void f(char a __range(0, 1)) { if (a) { x(); } if (!a) { y(); } z(); }";
        let f = parse_function(src).expect("parse");
        let fine = WcetAnalysis::new(1).analyse(&f).expect("fine");
        let coarse = WcetAnalysis::new(100).analyse(&f).expect("coarse");
        assert!(fine.instrumentation_points > coarse.instrumentation_points);
        assert_eq!(coarse.instrumentation_points, 2);
        assert!(fine.wcet_bound >= coarse.wcet_bound);
    }

    #[test]
    fn analyse_all_matches_one_by_one_analysis() {
        let sources = [
            "void f1(char a __range(0, 3)) { if (a > 1) { x(); } else { y(); } }",
            "void f2(char b __range(0, 4)) { if (b > 2) { p(); } if (b < 1) { q(); } }",
            "void f3(char c __range(0, 1)) { if (c) { r(); } s(); }",
        ];
        let functions: Vec<Function> = sources
            .iter()
            .map(|s| parse_function(s).expect("parse"))
            .collect();
        let analysis = WcetAnalysis::new(4);
        let fanned = analysis.analyse_all(&functions);
        assert_eq!(fanned.len(), functions.len());
        for (f, report) in functions.iter().zip(&fanned) {
            assert_eq!(
                report.as_ref().expect("analysis"),
                &analysis.analyse(f).expect("analysis")
            );
        }
    }

    #[test]
    fn analyse_all_with_a_shared_store_matches_the_storeless_path() {
        let sources = [
            "void f1(char a __range(0, 3)) { if (a > 1) { x(); } else { y(); } }",
            "void f2(char b __range(0, 4)) { if (b > 2) { p(); } if (b < 1) { q(); } }",
        ];
        let functions: Vec<Function> = sources
            .iter()
            .map(|s| parse_function(s).expect("parse"))
            .collect();
        let plain = WcetAnalysis::new(4);
        let stored = WcetAnalysis::new(4).with_store(Arc::new(ArtifactStore::new()));
        for (a, b) in plain
            .analyse_all(&functions)
            .into_iter()
            .zip(stored.analyse_all(&functions))
        {
            assert_eq!(a.expect("plain"), b.expect("stored"));
        }
        // A second fan-out over the shared store must return identical
        // reports again.
        for (f, report) in functions.iter().zip(stored.analyse_all(&functions)) {
            assert_eq!(report.expect("cached"), plain.analyse(f).expect("plain"));
        }
    }

    #[test]
    fn detailed_analysis_exposes_the_intermediate_artefacts() {
        let f = parse_function("void f(char a __range(0, 1)) { if (a) { x(); } }").expect("parse");
        let (plan, suite, campaign, report) =
            WcetAnalysis::new(1).analyse_detailed(&f).expect("analysis");
        assert_eq!(plan.segments.len(), report.segments);
        assert_eq!(suite.goal_count(), report.goals);
        assert_eq!(campaign.timings.len(), plan.segments.len());
    }

    #[test]
    fn analysis_error_names_stage_and_function() {
        let e = AnalysisError::new(Stage::Measure, "wiper", "run faulted");
        assert_eq!(
            e.to_string(),
            "wcet analysis error in stage `measure` of `wiper`: run faulted"
        );
        assert_eq!(e.stage, Stage::Measure);
        assert_eq!(e.kind, AnalysisErrorKind::Fault);
        assert!(!e.is_cancelled());
    }

    #[test]
    fn a_fired_token_yields_a_typed_cancellation_error_and_poisons_nothing() {
        let f =
            parse_function("void f(char a __range(0, 3)) { if (a > 1) { x(); } }").expect("parse");
        let token = tmg_tsys::CancelToken::new();
        token.cancel();
        let store = Arc::new(ArtifactStore::new());
        let err = WcetAnalysis::new(2)
            .with_store(store.clone())
            .with_cancel(token)
            .analyse(&f)
            .expect_err("pre-fired token must cancel the analysis");
        assert!(err.is_cancelled(), "kind must be Cancelled: {err:?}");
        assert_eq!(err.kind, AnalysisErrorKind::Cancelled);
        // The cancelled run left nothing wrong behind: the same store now
        // serves the normal result, bit-identical to the storeless pipeline.
        let warm = WcetAnalysis::new(2)
            .with_store(store)
            .analyse(&f)
            .expect("uncancelled re-run");
        assert_eq!(warm, WcetAnalysis::new(2).analyse(&f).expect("plain"));
    }

    #[test]
    fn an_inert_token_changes_nothing() {
        let f =
            parse_function("void f(char a __range(0, 3)) { if (a > 1) { x(); } }").expect("parse");
        let plain = WcetAnalysis::new(2).analyse(&f).expect("plain");
        let with_token = WcetAnalysis::new(2)
            .with_cancel(tmg_tsys::CancelToken::none())
            .analyse(&f)
            .expect("inert token");
        assert_eq!(plain, with_token);
        // An unfired *live* token (a generous deadline) is also invisible.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(3600);
        let with_deadline = WcetAnalysis::new(2)
            .with_cancel(tmg_tsys::CancelToken::with_deadline(deadline))
            .analyse(&f)
            .expect("generous deadline");
        assert_eq!(plain, with_deadline);
    }
}
