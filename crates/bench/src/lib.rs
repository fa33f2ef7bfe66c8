//! Shared experiment drivers for the benchmark harness.
//!
//! Each public function regenerates the data behind one table or figure of
//! the paper's evaluation; the Criterion benches time them and the
//! `reproduce` binary prints them as tables (recorded in `EXPERIMENTS.md`).

pub mod chaos;
pub mod loadtest;

pub use chaos::{chaos, ChaosConfig, ChaosReport};
pub use loadtest::{loadtest, saturate, LoadtestConfig, LoadtestReport};

use serde::Serialize;
use std::time::Duration;
use tmg_cfg::build_cfg;
use tmg_codegen::{
    figure1_function, generate_automotive, table2::table2_function, wiper_function,
    wiper_input_space, AutomotiveConfig,
};
use tmg_core::measurement::exhaustive_end_to_end;
use tmg_core::tradeoff::{log_spaced_bounds, sweep_path_bounds, sweep_path_bounds_reference};
use tmg_core::{HybridGenerator, PartitionPlan, TradeoffPoint, WcetAnalysis};
use tmg_minic::{parse_function, Function};
use tmg_target::CostModel;
use tmg_tsys::{CheckOutcome, ModelChecker, Optimisations, PathQuery};

/// One row of Table 1: `(path bound b, instrumentation points ip, measurements m)`.
pub type Table1Row = (u128, usize, u128);

/// Regenerates Table 1 on the Figure-1 example for `b ∈ 1..=7`.
pub fn table1() -> Vec<Table1Row> {
    let lowered = build_cfg(&figure1_function(false));
    (1..=7u128)
        .map(|b| {
            let plan = PartitionPlan::compute(&lowered, b);
            (b, plan.instrumentation_points(), plan.measurements())
        })
        .collect()
}

/// The values the paper reports in Table 1, for the comparison in
/// EXPERIMENTS.md.
pub fn table1_paper() -> Vec<Table1Row> {
    vec![
        (1, 22, 11),
        (2, 16, 9),
        (3, 16, 9),
        (4, 16, 9),
        (5, 16, 9),
        (6, 2, 6),
        (7, 2, 6),
    ]
}

/// Statistics of the generated automotive function used for Figures 2 and 3.
#[derive(Debug, Clone, Serialize)]
pub struct AutomotiveStats {
    /// Basic blocks of the CFG (paper: ~857).
    pub blocks: usize,
    /// Conditional branches (paper: ~300).
    pub branches: usize,
    /// Source lines (paper: ~5000 with includes resolved).
    pub lines: usize,
    /// `ip` at path bound 1 (paper: 1714).
    pub ip_at_bound_1: usize,
}

/// Regenerates the Figure 2 / Figure 3 sweep: `ip` and `m` over a
/// log-spaced range of path bounds on a TargetLink-sized function.
pub fn figure2_3(target_blocks: usize) -> (AutomotiveStats, Vec<TradeoffPoint>) {
    figure2_3_sweep(target_blocks, |f| {
        sweep_path_bounds(&build_cfg(f), &log_spaced_bounds(1_000_000))
    })
}

/// [`figure2_3`] with the lowering routed through `store`, so the sweep's
/// CFG and path counts come from (and feed) the artifact cache — the
/// `reproduce -- sweep --stats` surface.  The curve is identical to
/// [`figure2_3`]'s (`sweep_with_counts` is bit-identical to
/// `sweep_path_bounds`, cross-checked in CI).
pub fn figure2_3_via_store(
    target_blocks: usize,
    store: &tmg_core::ArtifactStore,
) -> (AutomotiveStats, Vec<TradeoffPoint>) {
    figure2_3_sweep(target_blocks, |f| {
        let artifact = store.lowered(f);
        tmg_core::tradeoff::sweep_with_counts(&artifact.counts, &log_spaced_bounds(1_000_000))
    })
}

/// Shared generation + statistics assembly behind the Figure-2/3 variants.
fn figure2_3_sweep(
    target_blocks: usize,
    sweep: impl FnOnce(&Function) -> Vec<TradeoffPoint>,
) -> (AutomotiveStats, Vec<TradeoffPoint>) {
    let config = AutomotiveConfig {
        target_blocks,
        ..AutomotiveConfig::default()
    };
    let generated = generate_automotive(&config);
    let sweep = sweep(&generated.function);
    let stats = AutomotiveStats {
        blocks: generated.block_count,
        branches: generated.branch_count,
        lines: generated.line_count,
        ip_at_bound_1: sweep.first().map(|p| p.instrumentation_points).unwrap_or(0),
    };
    (stats, sweep)
}

/// One row of the Table-2 ablation.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Row {
    /// Optimisation configuration label.
    pub label: String,
    /// Wall-clock time of the check.
    pub duration: Duration,
    /// Estimated explored-state memory in bytes.
    pub memory_bytes: u64,
    /// Transitions along the witness run (the paper's "steps").
    pub steps: Option<u64>,
    /// Total transitions fired during the search.
    pub transitions_fired: u64,
    /// Bits of the encoded state vector.
    pub state_bits: u32,
    /// Whether the query was answered (feasible witness found).
    pub feasible: bool,
}

/// The optimisation configurations evaluated in Table 2, in the paper's row
/// order: unoptimised, all, then each optimisation on its own.
pub fn table2_configurations() -> Vec<(String, Optimisations)> {
    let single = |name: &str, set: Optimisations| (name.to_owned(), set);
    vec![
        ("unoptimized".to_owned(), Optimisations::none()),
        ("all optimisations used".to_owned(), Optimisations::all()),
        single(
            "Variable Initialisation",
            Optimisations {
                variable_initialisation: true,
                ..Optimisations::none()
            },
        ),
        single(
            "Variable Range Analysis",
            Optimisations {
                variable_range_analysis: true,
                ..Optimisations::none()
            },
        ),
        single(
            "Reverse CSE",
            Optimisations {
                reverse_cse: true,
                ..Optimisations::none()
            },
        ),
        single(
            "Statement Concatenation",
            Optimisations {
                statement_concatenation: true,
                ..Optimisations::none()
            },
        ),
        single(
            "Dead Variable Elimination",
            Optimisations {
                dead_code_elimination: true,
                ..Optimisations::none()
            },
        ),
        single(
            "Live-Variable Analysis",
            Optimisations {
                live_variable_analysis: true,
                ..Optimisations::none()
            },
        ),
    ]
}

/// Picks the path query used for the Table-2 ablation: the deepest feasible
/// path of the module (every configuration answers the same query).
pub fn table2_query(function: &Function) -> PathQuery {
    let lowered = build_cfg(function);
    let mut paths = tmg_cfg::enumerate_region_paths(&lowered.cfg, lowered.regions.root(), 4096)
        .unwrap_or_default();
    paths.sort_by_key(|p| std::cmp::Reverse(p.len()));
    let checker = ModelChecker::new();
    for path in &paths {
        let query = PathQuery::new(path.decisions.clone());
        if matches!(
            checker.find_test_data(function, &query).outcome,
            CheckOutcome::Feasible { .. }
        ) {
            return query;
        }
    }
    PathQuery::any_execution()
}

/// Regenerates the Table-2 ablation on the 105-line module.
pub fn table2() -> Vec<Table2Row> {
    let function = table2_function();
    let query = table2_query(&function);
    table2_configurations()
        .into_iter()
        .map(|(label, opts)| {
            let checker = ModelChecker::with_optimisations(opts);
            let result = checker.find_test_data(&function, &query);
            Table2Row {
                label,
                duration: result.stats.duration,
                memory_bytes: result.stats.memory_estimate_bytes,
                steps: result.stats.witness_steps,
                transitions_fired: result.stats.transitions_fired,
                state_bits: result.stats.state_bits,
                feasible: matches!(result.outcome, CheckOutcome::Feasible { .. }),
            }
        })
        .collect()
}

/// Result of the Section-4 case study.
#[derive(Debug, Clone, Serialize)]
pub struct CaseStudyResult {
    /// Path bound chosen so that every `switch` arm is one program segment.
    pub path_bound: u128,
    /// Number of program segments.
    pub segments: usize,
    /// Instrumentation points.
    pub instrumentation_points: usize,
    /// Measurements.
    pub measurements: u128,
    /// Goals covered by the heuristic phase.
    pub heuristic_covered: usize,
    /// Goals covered by the model checker.
    pub checker_covered: usize,
    /// Goals proven infeasible.
    pub infeasible: usize,
    /// WCET bound from the timing schema (paper: 274 cycles).
    pub wcet_bound: u64,
    /// Exhaustive end-to-end maximum (paper: 250 cycles).
    pub exhaustive_max: u64,
    /// `wcet_bound / exhaustive_max` (paper: 1.096).
    pub pessimism: f64,
}

/// Path bound that makes every case arm of the wiper controller one program
/// segment, as the paper does ("each case block equals one PS").
pub fn wiper_case_bound() -> u128 {
    let lowered = build_cfg(&wiper_function());
    lowered
        .regions
        .root()
        .children
        .iter()
        .map(|c| lowered.regions.region(*c).path_count)
        .max()
        .unwrap_or(1)
}

/// Regenerates the Section-4 case study: partition per case arm, generate
/// test data, measure, compute the bound, and compare against the exhaustive
/// end-to-end maximum.
pub fn case_study() -> CaseStudyResult {
    let function = wiper_function();
    let bound = wiper_case_bound();
    let space = wiper_input_space();
    let report = WcetAnalysis::new(bound)
        .analyse_with_exhaustive(&function, &space)
        .expect("case-study analysis");
    CaseStudyResult {
        path_bound: bound,
        segments: report.segments,
        instrumentation_points: report.instrumentation_points,
        measurements: report.measurements,
        heuristic_covered: report.heuristic_covered,
        checker_covered: report.checker_covered,
        infeasible: report.infeasible,
        wcet_bound: report.wcet_bound,
        exhaustive_max: report.exhaustive_max.expect("exhaustive space supplied"),
        pessimism: report.pessimism().expect("pessimism"),
    }
}

/// Result of the hybrid test-data-generation experiment (Section 3 claim).
#[derive(Debug, Clone, Serialize)]
pub struct TestGenResult {
    /// Total coverage goals.
    pub goals: usize,
    /// Goals covered by the heuristic phase.
    pub heuristic_covered: usize,
    /// Goals covered by the model checker.
    pub checker_covered: usize,
    /// Goals proven infeasible.
    pub infeasible: usize,
    /// Goals left unresolved.
    pub unknown: usize,
    /// Fraction of feasible goals covered heuristically (paper expects >0.9).
    pub heuristic_ratio: f64,
}

/// Regenerates the hybrid-generation statistics on the wiper controller.
pub fn testgen_experiment() -> TestGenResult {
    let function = wiper_function();
    let lowered = build_cfg(&function);
    let plan = PartitionPlan::compute(&lowered, wiper_case_bound());
    let suite = HybridGenerator::new().generate(&function, &lowered, &plan);
    TestGenResult {
        goals: suite.goal_count(),
        heuristic_covered: suite.heuristic_covered(),
        checker_covered: suite.checker_covered(),
        infeasible: suite.infeasible_count(),
        unknown: suite.unknown_count(),
        heuristic_ratio: suite.heuristic_ratio(),
    }
}

/// CI smoke check of the multi-query engine's equivalence guarantee: every
/// verdict of an N-query [`ModelChecker::check_many`] batch must be
/// identical to the verdict of the same query asked as a batch of one.
/// Returns the number of queries cross-checked.
///
/// # Panics
///
/// Panics on the first mismatching verdict or witness.
pub fn multiquery_crosscheck() -> usize {
    let cross = parse_function(
        r#"
        void cross(int key __range(0, 4000), char m __range(0, 3), bool g) {
            if (key == 77) { h1(); }
            if (m > 1) { p(); } else { q(); }
            if (m == 0 && g) { r(); }
            if (key < 0) { never(); }
        }
    "#,
    )
    .expect("cross-check module parses");
    let mut checked = 0;
    for function in [&cross, &wiper_function()] {
        let lowered = build_cfg(function);
        let Some(paths) =
            tmg_cfg::enumerate_region_paths(&lowered.cfg, lowered.regions.root(), 256)
        else {
            continue;
        };
        let mut queries: Vec<PathQuery> = paths
            .into_iter()
            .map(|p| PathQuery::new(p.decisions))
            .collect();
        queries.push(PathQuery::any_execution());
        let checker = ModelChecker::new();
        let batched = checker.check_many(function, &queries);
        for (query, result) in queries.iter().zip(&batched) {
            let single = checker.find_test_data(function, query);
            assert_eq!(
                result.outcome, single.outcome,
                "N-query batch and one-query batch verdicts diverge on `{}` for {:?}",
                function.name, query.decisions
            );
            checked += 1;
        }
    }
    checked
}

/// CI smoke check of the incremental sweep's bit-identity guarantee: the
/// single-walk event sweep must emit exactly the points of the per-bound
/// `PartitionPlan::compute` reference.  Returns the number of points
/// cross-checked.
///
/// # Panics
///
/// Panics on the first mismatching tradeoff point.
pub fn sweep_crosscheck() -> usize {
    let generated = generate_automotive(&AutomotiveConfig::small(9));
    let lowered = build_cfg(&generated.function);
    let bounds = log_spaced_bounds(1_000_000);
    let reference = sweep_path_bounds_reference(&lowered, &bounds);
    let incremental = sweep_path_bounds(&lowered, &bounds);
    assert_eq!(
        reference, incremental,
        "incremental sweep diverges from the per-bound reference"
    );
    reference.len()
}

/// Convenience used by the case-study bench: the exhaustive end-to-end
/// maximum on its own.
pub fn wiper_exhaustive_max() -> u64 {
    let function = wiper_function();
    let lowered = build_cfg(&function);
    exhaustive_end_to_end(
        &function,
        &lowered,
        &wiper_input_space(),
        &CostModel::hcs12(),
    )
    .expect("exhaustive")
    .0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper_exactly() {
        assert_eq!(table1(), table1_paper());
    }

    #[test]
    fn case_study_bound_dominates_the_exhaustive_maximum() {
        let result = case_study();
        assert!(result.wcet_bound >= result.exhaustive_max);
        assert!(result.pessimism >= 1.0 && result.pessimism < 1.6);
        assert!(result.segments >= 9, "at least one segment per state case");
    }

    #[test]
    fn table2_rows_follow_the_papers_ordering() {
        let rows = table2();
        assert_eq!(rows.len(), 8);
        let by_label = |label: &str| {
            rows.iter()
                .find(|r| r.label.starts_with(label))
                .unwrap_or_else(|| panic!("missing row {label}"))
        };
        let unopt = by_label("unoptimized");
        let all = by_label("all optimisations");
        assert!(all.transitions_fired < unopt.transitions_fired);
        assert!(all.memory_bytes < unopt.memory_bytes);
        assert!(all.state_bits < unopt.state_bits);
        assert!(all.steps.unwrap_or(0) < unopt.steps.unwrap_or(u64::MAX));
        // Every single-optimisation row improves (or at least does not
        // worsen) the unoptimised state-vector size or step count.
        for row in &rows {
            assert!(row.feasible, "{} must find a witness", row.label);
            assert!(row.state_bits <= unopt.state_bits);
        }
        let concat = by_label("Statement Concatenation");
        assert!(concat.steps.unwrap_or(u64::MAX) < unopt.steps.unwrap_or(0).max(1) + 1);
    }

    #[test]
    fn table2_deterministic_columns_are_pinned() {
        // Every column of `reproduce -- table2` except the time: memory in
        // bytes (printed in kB), witness steps, transitions fired and state
        // bits, one row per configuration in the paper's order.
        let expected: [(&str, u64, u64, u64, u32); 8] = [
            ("unoptimized", 43_956, 36, 393, 143),
            ("all optimisations used", 610, 19, 47, 36),
            ("Variable Initialisation", 39_348, 36, 393, 143),
            ("Variable Range Analysis", 6_084, 36, 137, 102),
            ("Reverse CSE", 32_070, 33, 89, 118),
            ("Statement Concatenation", 43_200, 22, 351, 142),
            ("Dead Variable Elimination", 31_720, 34, 391, 102),
            ("Live-Variable Analysis", 29_292, 35, 392, 94),
        ];
        let rows = table2();
        assert_eq!(rows.len(), expected.len());
        for (row, (label, memory, steps, transitions, bits)) in rows.iter().zip(expected) {
            assert_eq!(
                (
                    row.label.as_str(),
                    row.memory_bytes,
                    row.steps,
                    row.transitions_fired,
                    row.state_bits
                ),
                (label, memory, Some(steps), transitions, bits)
            );
        }
    }

    #[test]
    fn figure2_3_curves_have_the_papers_shape() {
        let (stats, sweep) = figure2_3(200);
        assert!(stats.blocks >= 200);
        assert_eq!(stats.ip_at_bound_1, stats.blocks * 2 - 2);
        for w in sweep.windows(2) {
            assert!(w[1].instrumentation_points <= w[0].instrumentation_points);
        }
        assert!(sweep.last().expect("sweep").measurements > sweep[0].measurements);
    }

    #[test]
    fn testgen_resolves_every_goal_on_the_wiper() {
        let result = testgen_experiment();
        assert_eq!(result.unknown, 0);
        assert!(
            result.heuristic_ratio > 0.8,
            "ratio {}",
            result.heuristic_ratio
        );
        assert!(result.goals >= result.heuristic_covered + result.checker_covered);
    }
}

/// Untimed correctness checks on the workloads the retired timing harness
/// measured: the checker-heavy function and the module-edit differential.
/// No clock is read; only the results are asserted.
#[cfg(test)]
mod perf {
    #[cfg(test)]
    mod tests {
        use std::sync::Arc;
        use tmg_cfg::{build_cfg, CallGraph};
        use tmg_codegen::{generate_module, ModuleGenConfig};
        use tmg_core::{ArtifactStore, ModuleAnalysis, Stage};
        use tmg_minic::parse_function;

        #[test]
        fn checker_heavy_module_parses_and_partitions() {
            // Narrow equality guards random search cannot hit, so the
            // checker has to resolve most goals.
            let f = parse_function(
                r#"
                void lookup_dispatch(int key __range(0, 20000), char mode __range(0, 5), char gate __range(0, 1)) {
                    if (key == 1234) { hit1(); }
                    if (key == 8190) { hit2(); }
                    if (key == 19999) { hit3(); }
                    if (mode > 3) { fast(); } else { slow(); }
                    if (mode == 2 && gate) { gated(); }
                    if (key < 0) { never(); }
                }
            "#,
            )
            .expect("checker-heavy module parses");
            let lowered = build_cfg(&f);
            assert!(lowered.regions.root().path_count > 8);
        }

        /// On the seeded bench module, a localised edit re-analysed against
        /// a primed store gives the from-scratch report bit-identically,
        /// re-lowering only the edited function and re-measuring only the
        /// dirty cone.
        #[test]
        fn module_edit_differential_comparison_is_identical() {
            let module = generate_module(&ModuleGenConfig::bench());
            let graph = CallGraph::build(&module.program);
            let (edit, cone) = (0..graph.len())
                .map(|i| (i, graph.dirty_cone(&[i])))
                .filter(|(_, cone)| cone.len() <= graph.len() / 8)
                .max_by_key(|(_, cone)| cone.len())
                .expect("the seeded module has a localised edit target");
            let edited = module.edited(edit);

            let scratch = ModuleAnalysis::new(4)
                .with_store(Arc::new(ArtifactStore::new()))
                .analyse_module(&edited.program)
                .expect("from-scratch module analysis");

            let store = Arc::new(ArtifactStore::new());
            let analysis = ModuleAnalysis::new(4).with_store(store.clone());
            analysis
                .analyse_module(&module.program)
                .expect("prime the store");
            let primed = store.store_stats();
            let differential = analysis
                .analyse_module(&edited.program)
                .expect("differential module analysis");
            let warm = store.store_stats();
            let misses = |stage: Stage| warm.stage(stage).misses - primed.stage(stage).misses;

            assert_eq!(differential.recomputed().len(), cone.len());
            assert_eq!(differential.summaries_reused, graph.len() - cone.len());
            assert_eq!(
                misses(Stage::Lower),
                1,
                "only the edited function is re-lowered"
            );
            assert_eq!(misses(Stage::Measure), cone.len() as u64);
            assert_eq!(differential.reports, scratch.reports);
            assert_eq!(differential.module_key, scratch.module_key);
            assert_eq!(differential.roots, scratch.roots);
        }
    }
}
