//! Integration test: hybrid test-data generation on the wiper controller.

use tmg_cfg::build_cfg;
use tmg_codegen::wiper_function;
use tmg_core::testgen::reference_suite;
use tmg_core::{HybridGenerator, PartitionPlan};
use tmg_minic::Interpreter;
use tmg_minic::Program;

#[test]
fn hybrid_generation_resolves_every_goal_on_the_wiper() {
    let function = wiper_function();
    let lowered = build_cfg(&function);
    let bound = lowered
        .regions
        .root()
        .children
        .iter()
        .map(|c| lowered.regions.region(*c).path_count)
        .max()
        .unwrap_or(1);
    let plan = PartitionPlan::compute(&lowered, bound);
    let suite = HybridGenerator::new().generate(&function, &lowered, &plan);

    assert_eq!(suite.unknown_count(), 0, "every goal must be settled");
    assert_eq!(
        suite.covered_count() + suite.infeasible_count(),
        suite.goal_count()
    );
    // The heuristic phase carries most of the load (the paper expects >90 %
    // on its industrial code; the wiper's guards are easy for random search).
    assert!(
        suite.heuristic_ratio() > 0.8,
        "heuristic ratio {}",
        suite.heuristic_ratio()
    );
}

#[test]
fn generated_vectors_replay_deterministically_on_the_interpreter() {
    let function = wiper_function();
    let lowered = build_cfg(&function);
    let plan = PartitionPlan::compute(&lowered, 4);
    let suite = HybridGenerator::new().generate(&function, &lowered, &plan);
    let program = Program::new(vec![function.clone()]);
    let interp = Interpreter::new(&program);
    for vector in suite.vectors() {
        let out = interp.run(&function.name, &vector).expect("replay");
        assert!(
            out.return_value.is_some(),
            "the step function always returns"
        );
        let state = out.return_value.expect("state").raw();
        assert!(
            (0..9).contains(&state),
            "next state {state} must be a chart state"
        );
    }
}

#[test]
fn infeasible_paths_are_only_reported_when_truly_contradictory() {
    // In this function the `a > 5 && a < 3` conjunction is unsatisfiable, so
    // the path taking its then-branch must be reported infeasible and nothing
    // else.
    let src = r#"
        void f(char a __range(0, 9)) {
            if (a > 5 && a < 3) { impossible(); }
            if (a > 4) { upper(); } else { lower(); }
        }
    "#;
    let function = tmg_minic::parse_function(src).expect("parse");
    let lowered = build_cfg(&function);
    let plan = PartitionPlan::compute(&lowered, 100);
    let suite = HybridGenerator::new().generate(&function, &lowered, &plan);
    assert_eq!(
        suite.infeasible_count(),
        2,
        "two of the four end-to-end paths are contradictory"
    );
    assert_eq!(suite.covered_count(), 2);
    assert_eq!(suite.unknown_count(), 0);
}

/// A 2–3-parameter function over small domains with a needle for the
/// checker, an infeasible pair and an input that faults the target.
fn small_domain_source(k: i64) -> String {
    let third = if k % 3 == 2 { ", bool c" } else { "" };
    let third_use = if k % 3 == 2 {
        "if (c) { r = r + 3; }"
    } else {
        ""
    };
    format!(
        r#"
        int f{k}(char a __range(0, {a_hi}), int b __range(-{b_hi}, {b_hi}){third}) {{
            int r = 0;
            if (a > {t}) {{ r = r + 1; }} else {{ low(); }}
            if (b == {needle}) {{ rare(); }}
            if (a > {a_hi} && b < 0) {{ never(); }}
            switch (a) {{
            case 1: r = r + 2; break;
            case 2: r = 100 / (b - {div}); break;
            default: other(); break;
            }}
            {third_use}
            return r;
        }}
        "#,
        a_hi = 2 + k % 5,
        b_hi = 3 + 7 * k,
        t = k % 3,
        needle = (5 * k) % (3 + 7 * k),
        div = k % 4,
    )
}

#[test]
fn memoised_heuristic_phase_matches_the_legacy_search_on_a_seeded_corpus() {
    use tmg_codegen::{generate_automotive, generate_module, AutomotiveConfig, ModuleGenConfig};

    let mut corpus: Vec<tmg_minic::ast::Function> = (1..=32)
        .map(|seed| {
            generate_automotive(&AutomotiveConfig {
                seed,
                target_blocks: 40,
                switch_arms: 3,
                max_if_depth: 2,
                sensor_inputs: 1,
                mode_inputs: 1,
            })
            .function
        })
        .collect();
    corpus.extend(
        (0..16).map(|k| tmg_minic::parse_function(&small_domain_source(k)).expect("parse")),
    );
    corpus.extend(
        generate_module(&ModuleGenConfig::small(7))
            .program
            .functions
            .into_iter()
            .chain(
                generate_module(&ModuleGenConfig::bench())
                    .program
                    .functions
                    .into_iter()
                    .take(16),
            ),
    );
    corpus.push(wiper_function());
    assert!(corpus.len() >= 64, "corpus of {} functions", corpus.len());
    // Equality needles that random search cannot hit, under one coarse
    // segment: this function leaves the checker far more residual goals
    // than any corpus member does at bounds 1 and 8.
    let checker_heavy = tmg_minic::parse_function(
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
    .expect("parse");
    let cases = corpus
        .iter()
        .flat_map(|function| [(function, 1u128), (function, 8)])
        .chain([(&checker_heavy, 4096)]);
    let generator = HybridGenerator::new();
    let (mut checker_covered, mut infeasible) = (0, 0);
    for (function, bound) in cases {
        let lowered = build_cfg(function);
        let plan = PartitionPlan::compute(&lowered, bound);
        let memoised = generator.generate(function, &lowered, &plan);
        let legacy = reference_suite(&generator, function, &lowered, &plan);
        assert_eq!(
            memoised, legacy,
            "suites diverge on {} at bound {bound}",
            function.name
        );
        checker_covered += memoised.checker_covered();
        infeasible += memoised.infeasible_count();
    }
    assert!(
        checker_covered > 0 && infeasible > 0,
        "the corpus must leave residual goals to the checker"
    );
}
