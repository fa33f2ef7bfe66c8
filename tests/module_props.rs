//! Property-based interprocedural invariants over generated call-DAG
//! modules:
//!
//! * the call graph's `dirty_cone` is exactly the reverse-reachable set of
//!   the edited function (computed here independently by forward DFS over
//!   callee edges),
//! * `reverse_topological_order` is a permutation in which every callee
//!   precedes its callers,
//! * a differential re-analysis after a random single-function edit
//!   recomputes exactly the dirty cone (one re-lowering, one measurement
//!   per cone member) and returns a report bit-identical to a from-scratch
//!   analysis of the edited module, and
//! * module reports are identical whether the internal fan-outs run on the
//!   worker pool or inline on one thread.

use proptest::prelude::*;
use std::sync::Arc;
use tmg_cfg::CallGraph;
use tmg_codegen::{generate_module, ModuleGenConfig};
use tmg_core::{ArtifactStore, ModuleAnalysis, Stage};

/// Whether `from` can reach `to` along callee edges (forward DFS; the
/// independent oracle for `dirty_cone`, which walks *caller* edges).
fn reaches(graph: &CallGraph, from: usize, to: usize) -> bool {
    let mut seen = vec![false; graph.len()];
    let mut stack = vec![from];
    while let Some(i) = stack.pop() {
        if i == to {
            return true;
        }
        if std::mem::replace(&mut seen[i], true) {
            continue;
        }
        stack.extend(graph.callees(i).iter().copied());
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_dirty_cone_is_the_exact_reverse_reachable_set(
        seed in 0u64..u64::MAX,
        edited in 0usize..5,
    ) {
        let module = generate_module(&ModuleGenConfig::small(seed));
        let graph = CallGraph::build(&module.program);
        let cone = graph.dirty_cone(&[edited]);
        let expected: Vec<usize> = (0..graph.len())
            .filter(|&i| reaches(&graph, i, edited))
            .collect();
        prop_assert_eq!(cone, expected, "cone diverges on\n{}", module.source);
    }

    #[test]
    fn the_summary_order_visits_every_callee_before_its_callers(seed in 0u64..u64::MAX) {
        let module = generate_module(&ModuleGenConfig::small(seed));
        let graph = CallGraph::build(&module.program);
        let order = graph.reverse_topological_order().expect("generated DAG");
        let mut position = vec![usize::MAX; graph.len()];
        for (pos, &i) in order.iter().enumerate() {
            position[i] = pos;
        }
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..graph.len()).collect::<Vec<_>>(), "not a permutation");
        for i in 0..graph.len() {
            for &j in graph.callees(i) {
                prop_assert!(
                    position[j] < position[i],
                    "callee f{} must be summarised before caller f{} in\n{}",
                    j, i, module.source
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn differential_reanalysis_recomputes_the_cone_and_matches_scratch(
        seed in 0u64..256,
        edited in 0usize..5,
    ) {
        let module = generate_module(&ModuleGenConfig::small(seed));
        let store = Arc::new(ArtifactStore::new());
        let analysis = ModuleAnalysis::new(4).with_store(store.clone());
        let before = analysis.analyse_module(&module.program).expect("cold");
        prop_assert_eq!(before.summaries_computed, module.function_count());

        let edited_module = module.edited(edited);
        let primed = store.store_stats();
        let after = analysis.analyse_module(&edited_module.program).expect("differential");
        let warm = store.store_stats();
        let misses = |stage: Stage| warm.stage(stage).misses - primed.stage(stage).misses;

        // Exactly the reverse-reachable cone of the edit is recomputed.
        let graph = CallGraph::build(&module.program);
        let cone: Vec<String> = graph
            .dirty_cone(&[edited])
            .into_iter()
            .map(|i| graph.name(i).to_owned())
            .collect();
        prop_assert_eq!(
            after.recomputed(),
            cone.iter().map(String::as_str).collect::<Vec<_>>(),
            "wrong cone on edit of f{} in\n{}", edited, module.source
        );
        prop_assert_eq!(after.summaries_reused, module.function_count() - cone.len());
        prop_assert_eq!(misses(Stage::Lower), 1, "only the edited function is re-lowered");
        prop_assert_eq!(misses(Stage::Measure), cone.len() as u64, "one measurement per cone member");

        // Outside the cone nothing moves; the edited function gets heavier.
        for summary in &before.summaries {
            if !cone.contains(&summary.function) {
                prop_assert_eq!(after.bound_of(&summary.function), Some(summary.wcet_bound));
            }
        }
        let f_edited = format!("f{edited}");
        prop_assert!(after.bound_of(&f_edited) > before.bound_of(&f_edited));

        // The differential result is bit-identical to a from-scratch run.
        let scratch = ModuleAnalysis::new(4)
            .analyse_module(&edited_module.program)
            .expect("scratch");
        prop_assert_eq!(&after.reports, &scratch.reports);
        prop_assert_eq!(&after.summaries.iter().map(|s| (s.summary_key, s.wcet_bound)).collect::<Vec<_>>(),
                        &scratch.summaries.iter().map(|s| (s.summary_key, s.wcet_bound)).collect::<Vec<_>>());
        prop_assert_eq!(after.module_key, scratch.module_key);
        prop_assert_eq!(&after.roots, &scratch.roots);
    }
}

/// The vendored worker pool runs nested fan-outs inline when the calling
/// thread is itself a pool worker (name prefix `rayon-shim-`).  Spawning the
/// whole analysis on such a thread therefore forces the single-threaded
/// path; the reports must be bit-identical to the parallel run.
#[test]
fn module_bounds_are_identical_across_thread_counts() {
    let module = generate_module(&ModuleGenConfig::small(0xAB));
    let parallel = ModuleAnalysis::new(4)
        .analyse_module(&module.program)
        .expect("parallel");
    let sequential = std::thread::Builder::new()
        .name("rayon-shim-inline-probe".to_owned())
        .spawn(move || {
            ModuleAnalysis::new(4)
                .analyse_module(&module.program)
                .expect("sequential")
        })
        .expect("spawn")
        .join()
        .expect("join");
    assert_eq!(parallel.reports, sequential.reports);
    assert_eq!(parallel.module_key, sequential.module_key);
    assert_eq!(parallel.roots, sequential.roots);
    assert_eq!(
        parallel
            .summaries
            .iter()
            .map(|s| (s.summary_key, s.wcet_bound))
            .collect::<Vec<_>>(),
        sequential
            .summaries
            .iter()
            .map(|s| (s.summary_key, s.wcet_bound))
            .collect::<Vec<_>>()
    );
}
