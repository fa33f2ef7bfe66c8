//! Acceptance tests for the content-addressed artifact store: a second
//! analysis of an unchanged function must perform no re-partitioning and no
//! re-encoding (asserted through the store's per-stage hit/miss counters),
//! a changed input must miss, and every cached path must return bit-identical
//! results to the storeless pipeline.

use std::sync::Arc;
use tmg_core::pipeline::{ArtifactStore, Stage, StageStats, INTERMEDIATE_CAPACITY};
use tmg_core::{ModuleAnalysis, WcetAnalysis};
use tmg_minic::{parse_function, parse_program};

fn controller() -> tmg_minic::Function {
    // The nested `demand > 3 && demand < 2` combination is infeasible, so
    // every partition leaves a residual goal for the model checker — at
    // fine bounds as an unreachable block-execution goal, at coarse bounds
    // as an unsatisfiable region-path goal.  The prepare-model stage (whose
    // lazy build only runs for a non-empty residual batch) is therefore
    // exercised at every bound.
    parse_function(
        r#"
        void controller(char demand __range(0, 6), bool enabled) {
            if (enabled) {
                if (demand > 3) { heavy(); } else { light(); }
            } else {
                off();
            }
            if (demand > 3) { if (demand < 2) { never(); } }
            if (demand == 0) { idle(); }
        }
        "#,
    )
    .expect("parse")
}

#[test]
fn second_analyse_of_an_unchanged_function_recomputes_nothing() {
    let store = Arc::new(ArtifactStore::new());
    let analysis = WcetAnalysis::new(2).with_store(store.clone());
    let f = controller();

    let first = analysis.analyse(&f).expect("first analysis");
    // The cold run computes each stage exactly once.
    for stage in [
        Stage::Lower,
        Stage::Partition,
        Stage::PrepareModel,
        Stage::Testgen,
        Stage::Measure,
        Stage::Bound,
    ] {
        assert_eq!(
            store.stats(stage),
            StageStats::hm(0, 1),
            "cold run must compute stage {stage} once"
        );
    }

    let second = analysis.analyse(&f).expect("second analysis");
    assert_eq!(first, second, "cached report must be bit-identical");
    // The warm run is served entirely from the final bound artifact: no
    // re-partitioning, no re-encoding, not even a lookup of the earlier
    // stages.
    assert_eq!(store.stats(Stage::Bound), StageStats::hm(1, 1));
    for stage in [
        Stage::Lower,
        Stage::Partition,
        Stage::PrepareModel,
        Stage::Testgen,
        Stage::Measure,
    ] {
        assert_eq!(
            store.stats(stage),
            StageStats::hm(0, 1),
            "warm run must not touch stage {stage}"
        );
    }
}

#[test]
fn changing_the_bound_reuses_lowering_and_the_prepared_model() {
    let store = Arc::new(ArtifactStore::new());
    let f = controller();
    let at_bound = |b: u128| {
        WcetAnalysis::new(b)
            .with_store(store.clone())
            .analyse(&f)
            .expect("analysis")
    };
    // Bound 2 keeps the infeasible `demand > 3 && demand < 2` pair inside a
    // collapsed region (a decision-carrying residual goal); bound 1 would
    // reduce it to a single-path region goal the heuristic matches
    // trivially, and the prepare-model stage would never run for that plan.
    let fine = at_bound(2);
    let coarse = at_bound(100);
    assert!(fine.instrumentation_points > coarse.instrumentation_points);
    // Two bounds → two partitions, two suites, two campaigns, two bounds...
    assert_eq!(store.stats(Stage::Partition), StageStats::hm(0, 2));
    assert_eq!(store.stats(Stage::Bound), StageStats::hm(0, 2));
    // ...but one lowering and one encoded model serve both.
    assert_eq!(store.stats(Stage::Lower), StageStats::hm(1, 1));
    assert_eq!(store.stats(Stage::PrepareModel), StageStats::hm(1, 1));
}

#[test]
fn a_changed_function_body_misses_every_stage() {
    let store = Arc::new(ArtifactStore::new());
    let analysis = WcetAnalysis::new(2).with_store(store.clone());
    analysis.analyse(&controller()).expect("original");
    // Same name and signature, different body: the content hash must differ.
    let changed = parse_function(
        r#"
        void controller(char demand __range(0, 6), bool enabled) {
            if (enabled) {
                if (demand > 3) { heavy(); } else { light(); }
            } else {
                off();
            }
            if (demand == 1) { idle(); }
        }
        "#,
    )
    .expect("parse");
    analysis.analyse(&changed).expect("changed");
    assert_eq!(store.stats(Stage::Lower), StageStats::hm(0, 2));
    assert_eq!(store.stats(Stage::Bound), StageStats::hm(0, 2));
}

#[test]
fn stored_and_storeless_reports_are_identical_including_exhaustive_runs() {
    let f = controller();
    let space: Vec<tmg_minic::value::InputVector> = (0..=6)
        .flat_map(|d| {
            (0..=1).map(move |e| {
                tmg_minic::value::InputVector::new()
                    .with("demand", d)
                    .with("enabled", e)
            })
        })
        .collect();
    let plain = WcetAnalysis::new(2)
        .analyse_with_exhaustive(&f, &space)
        .expect("plain");
    let store = Arc::new(ArtifactStore::new());
    let stored_analysis = WcetAnalysis::new(2).with_store(store.clone());
    let stored = stored_analysis
        .analyse_with_exhaustive(&f, &space)
        .expect("stored");
    assert_eq!(plain, stored);
    // The exhaustive space is part of the bound key: re-running hits, a
    // different space misses.
    let again = stored_analysis
        .analyse_with_exhaustive(&f, &space)
        .expect("stored again");
    assert_eq!(again, plain);
    assert_eq!(store.stats(Stage::Bound).hits, 1);
    let narrower = &space[..4];
    stored_analysis
        .analyse_with_exhaustive(&f, narrower)
        .expect("narrower space");
    assert_eq!(
        store.stats(Stage::Bound).misses,
        2,
        "a different input space must key a different bound artifact"
    );
}

#[test]
fn detailed_analysis_through_the_store_reuses_stage_artifacts() {
    let store = Arc::new(ArtifactStore::new());
    let analysis = WcetAnalysis::new(2).with_store(store.clone());
    let f = controller();
    let (plan1, suite1, campaign1, report1) = analysis.analyse_detailed(&f).expect("first");
    let (plan2, suite2, campaign2, report2) = analysis.analyse_detailed(&f).expect("second");
    assert_eq!(plan1, plan2);
    assert_eq!(suite1, suite2);
    assert_eq!(campaign1, campaign2);
    assert_eq!(report1, report2);
    // The second detailed run materialises the chain purely from hits.
    assert_eq!(store.stats(Stage::Partition), StageStats::hm(1, 1));
    assert_eq!(store.stats(Stage::Testgen), StageStats::hm(1, 1));
    assert_eq!(store.stats(Stage::Measure), StageStats::hm(1, 1));
}

#[test]
fn the_memory_tier_keeps_every_bound_but_only_a_working_set_of_intermediates() {
    const FUNCTIONS: usize = 64;
    let store = Arc::new(ArtifactStore::new());
    let analysis = WcetAnalysis::new(2).with_store(store.clone());
    let source = |i: usize| {
        format!(
            "void f{i}(char a __range(0, 6)) {{ if (a > 3) {{ g(); }} if (a == {}) {{ h(); }} }}",
            i % 7
        )
    };
    let functions: Vec<_> = (0..FUNCTIONS)
        .map(|i| parse_function(&source(i)).expect("parse"))
        .collect();
    for function in &functions {
        analysis.analyse(function).expect("analysis");
    }
    let snapshot = store.store_stats();
    assert_eq!(snapshot.entries[Stage::Bound.index()], FUNCTIONS);
    for stage in [
        Stage::Lower,
        Stage::Partition,
        Stage::PrepareModel,
        Stage::Testgen,
        Stage::Measure,
    ] {
        assert!(
            snapshot.entries[stage.index()] <= INTERMEDIATE_CAPACITY,
            "{stage} keeps {} entries",
            snapshot.entries[stage.index()]
        );
    }
    assert_eq!(
        store.stats(Stage::Lower).evictions,
        (FUNCTIONS - INTERMEDIATE_CAPACITY) as u64
    );
    // Every bound is still answered from memory ...
    for function in &functions {
        analysis.analyse(function).expect("warm analysis");
    }
    assert_eq!(
        store.stats(Stage::Bound),
        StageStats::hm(FUNCTIONS as u64, FUNCTIONS as u64)
    );
    // ... and the most recent function is still in the working set: a sweep
    // to another bound re-lowers nothing.
    WcetAnalysis::new(3)
        .with_store(store.clone())
        .analyse(functions.last().expect("a function"))
        .expect("sweep");
    assert_eq!(
        store.stats(Stage::Lower),
        StageStats {
            hits: 1,
            misses: FUNCTIONS as u64,
            evictions: (FUNCTIONS - INTERMEDIATE_CAPACITY) as u64,
        }
    );
    // A module's call graph is an intermediate too.
    let modules = ModuleAnalysis::new(2).with_store(store.clone());
    for i in 0..FUNCTIONS {
        let program = parse_program(&source(i)).expect("parse");
        modules.analyse_module(&program).expect("module analysis");
    }
    let snapshot = store.store_stats();
    assert_eq!(snapshot.callgraph_entries, INTERMEDIATE_CAPACITY);
    assert_eq!(
        snapshot.callgraph.evictions,
        (FUNCTIONS - INTERMEDIATE_CAPACITY) as u64
    );
}

#[test]
fn a_traced_analysis_returns_the_untraced_report() {
    let f = controller();
    let analyse = || {
        WcetAnalysis::new(2)
            .with_store(Arc::new(ArtifactStore::new()))
            .analyse(&f)
            .expect("analysis")
    };
    let plain = analyse();
    tmg_obs::set_enabled(true);
    let traced = analyse();
    tmg_obs::set_enabled(false);
    let spans = tmg_obs::drain_all();
    assert_eq!(traced, plain);
    assert!(
        spans.iter().any(|s| s.name.starts_with("stage:")),
        "the traced run must record its stage spans"
    );
}
