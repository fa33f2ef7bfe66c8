//! The explorer on a heavy batch (a 20 001-value split at the first guard
//! read): an N-query batch must answer every query exactly as N one-query
//! batches do — verdict, witness and step count — and every feasible
//! witness must replay on the interpreter under monitor semantics.  At a
//! budget too small to settle the space, the batch certifies the same
//! Unknowns as the one-query searches.  A batch whose disjoint work trips
//! the shared run's cap hands its open queries back to one-query searches,
//! with the same answers.

use tmg_cfg::{build_cfg, enumerate_region_paths};
use tmg_minic::ast::StmtId;
use tmg_minic::interp::BranchChoice;
use tmg_minic::{parse_function, parse_program, Interpreter};
use tmg_tsys::{
    encode_function, slice_for_queries, CheckOutcome, ModelChecker, MultiQueryEngine,
    Optimisations, PathQuery, PreparedModel,
};

/// The checker's path-monitor acceptance, replayed over an execution trace.
fn monitor_accepts(decisions: &[(StmtId, BranchChoice)], trace: &[(StmtId, BranchChoice)]) -> bool {
    let mut matched = 0;
    for &(stmt, choice) in trace {
        if matched == decisions.len() {
            break;
        }
        let (expected_stmt, expected_choice) = decisions[matched];
        if stmt == expected_stmt {
            if choice == expected_choice {
                matched += 1;
            } else {
                return false;
            }
        }
    }
    matched == decisions.len()
}

/// A 20001-value split at the first guard plus enough branching for a few
/// dozen queries.
const HEAVY_SRC: &str = r#"
    void f(int key __range(0, 20000), char mode __range(0, 5), char gate __range(0, 1)) {
        if (key == 1234) { hit1(); }
        if (key == 8190) { hit2(); }
        if (key == 19999) { hit3(); }
        if (mode > 3) { fast(); } else { slow(); }
        if (mode == 2 && gate) { gated(); }
        if (key < 0) { never(); }
    }
"#;

fn heavy_batch() -> (tmg_minic::Function, Vec<PathQuery>) {
    let f = parse_function(HEAVY_SRC).expect("parse");
    let lowered = build_cfg(&f);
    let paths =
        enumerate_region_paths(&lowered.cfg, lowered.regions.root(), 10_000).expect("paths");
    let queries = paths
        .into_iter()
        .map(|p| PathQuery::new(p.decisions))
        .collect();
    (f, queries)
}

/// Every query's outcome in one N-query batch.
fn batch_outcomes(
    checker: &ModelChecker,
    prepared: &PreparedModel<'_>,
    queries: &[PathQuery],
) -> Vec<Option<CheckOutcome>> {
    let engine = MultiQueryEngine::explore(checker, prepared, queries);
    (0..queries.len()).map(|q| engine.outcome(q)).collect()
}

/// Every query's outcome asked as a batch of one.
fn one_query_outcomes(
    checker: &ModelChecker,
    prepared: &PreparedModel<'_>,
    queries: &[PathQuery],
) -> Vec<CheckOutcome> {
    queries
        .iter()
        .map(|query| {
            MultiQueryEngine::explore(checker, prepared, std::slice::from_ref(query))
                .outcome(0)
                .expect("a batch of one always settles")
        })
        .collect()
}

#[test]
fn heavy_batch_matches_one_query_batches_and_replays_every_witness() {
    let (f, queries) = heavy_batch();
    assert!(queries.len() >= 32, "batch should be heavy");
    let checker = ModelChecker::new();
    let model = encode_function(&f, &Optimisations::all().encode_options());
    let prepared = PreparedModel::new(&model);
    let batched = batch_outcomes(&checker, &prepared, &queries);
    let single = one_query_outcomes(&checker, &prepared, &queries);
    for ((query, batched), single) in queries.iter().zip(&batched).zip(&single) {
        // Bit-identical: verdicts, witness vectors and step counts.
        assert_eq!(
            batched.as_ref(),
            Some(single),
            "the batch diverges from the one-query search of {:?}",
            query.decisions
        );
    }
    // Oracle replay: every feasible witness drives the interpreter down its
    // queried decision sequence.
    let program = parse_program(HEAVY_SRC).expect("parse");
    let interp = Interpreter::new(&program);
    let (mut feasible, mut infeasible) = (0, 0);
    for (query, outcome) in queries.iter().zip(&single) {
        match outcome {
            CheckOutcome::Feasible { witness, .. } => {
                feasible += 1;
                let run = interp.run("f", witness).expect("witness replays");
                assert!(
                    monitor_accepts(&query.decisions, &run.trace.branch_signature()),
                    "witness {witness:?} does not follow {:?}",
                    query.decisions
                );
            }
            CheckOutcome::Infeasible => infeasible += 1,
            CheckOutcome::Unknown => panic!("{:?} exhausts the budget", query.decisions),
        }
    }
    assert!(
        feasible >= 8 && infeasible >= 1,
        "the heavy batch has feasible and infeasible paths: {feasible}/{infeasible}"
    );
}

#[test]
fn tight_budget_certifies_unknowns_like_one_query_batches() {
    // A budget too small to settle the space: exact attributed-op
    // accounting certifies, inside the batch, the Unknowns that the
    // one-query searches report; whatever the shared cap leaves unsettled
    // goes back to a one-query search.
    let (f, queries) = heavy_batch();
    let tight = ModelChecker::new().with_budget(200_000);
    let model = encode_function(&f, &Optimisations::all().encode_options());
    let prepared = PreparedModel::new(&model);
    let batched = batch_outcomes(&tight, &prepared, &queries);
    let single = one_query_outcomes(&tight, &prepared, &queries);
    for ((query, batched), single) in queries.iter().zip(&batched).zip(&single) {
        if let Some(batched) = batched {
            assert_eq!(
                batched, single,
                "budget accounting of {:?}",
                query.decisions
            );
        }
    }
    assert!(
        batched
            .iter()
            .any(|o| matches!(o, Some(CheckOutcome::Unknown))),
        "the tight budget should leave certified Unknowns"
    );
}

#[test]
fn check_many_matches_per_query_search_on_the_heavy_batch() {
    // End-to-end: the public batch entry point (slicing + exploration +
    // witness completion) against the per-query reference engine.
    let (f, queries) = heavy_batch();
    let checker = ModelChecker::new();
    let batched = checker.check_many(&f, &queries);
    for (query, result) in queries.iter().zip(&batched) {
        let single = checker.find_test_data(&f, query);
        assert_eq!(
            result.outcome, single.outcome,
            "batched vs single on {:?}",
            query.decisions
        );
    }
}

#[test]
fn one_query_budgets_are_exact_on_the_heavy_batch() {
    // The run checks its op cap before every pop, so a one-query search
    // that runs out of budget stops within one pop's expansion of it.
    // After the root's 20 001-value split of `key`, one pop expands into
    // at most one split of another input or the transitions leaving one
    // location (two ops each).
    let (f, queries) = heavy_batch();
    let model = encode_function(&f, &Optimisations::all().encode_options());
    let prepared = PreparedModel::new(&model);
    let widest_other_split = model
        .vars
        .iter()
        .filter(|v| v.name != "key")
        .map(|v| v.domain_size())
        .max()
        .unwrap_or(0);
    let widest_fan_out = (0..model.locations)
        .map(|loc| model.transitions.iter().filter(|t| t.from.0 == loc).count() as u64)
        .max()
        .unwrap_or(0);
    let largest_expansion = widest_other_split.max(2 * widest_fan_out);
    for budget in [35_000, 50_000] {
        let checker = ModelChecker::new().with_budget(budget);
        let mut unknown = 0;
        for query in &queries {
            let result =
                MultiQueryEngine::explore(&checker, &prepared, std::slice::from_ref(query))
                    .result(0)
                    .expect("a batch of one always settles");
            let total = result.stats.states_created + result.stats.transitions_fired;
            if result.outcome == CheckOutcome::Unknown {
                unknown += 1;
                assert!(
                    total >= budget && total < budget + largest_expansion,
                    "budget {budget}: {total} ops on {:?}",
                    query.decisions
                );
            } else {
                assert!(total < budget, "budget {budget}: settled at {total} ops");
            }
        }
        assert!(unknown > 0, "budget {budget} leaves some query Unknown");
    }
}

/// Eight queries that each settle alone but share no work: query `i`
/// takes `case i` of the first decision, where it splits `b` over 1 000
/// values.  Odd cases find `b == 900`; even cases ask for a `b` outside
/// the domain.  The trailing `junk` branch is never queried, so slicing
/// drops it.
const DISJOINT_SRC: &str = r#"
    void f(char k __range(0, 7), int b __range(0, 999)) {
        int junk;
        switch (k) {
            case 0: if (b == 5000) { x0(); } break;
            case 1: if (b == 900) { x1(); } break;
            case 2: if (b == 5000) { x2(); } break;
            case 3: if (b == 900) { x3(); } break;
            case 4: if (b == 5000) { x4(); } break;
            case 5: if (b == 900) { x5(); } break;
            case 6: if (b == 5000) { x6(); } break;
            case 7: if (b == 900) { x7(); } break;
            default: other(); break;
        }
        junk = b + 1;
        if (junk > 3) { z(); }
    }
"#;

/// The `case i`, `b == …` then query of every case.
fn disjoint_batch() -> (tmg_minic::Function, Vec<PathQuery>) {
    use tmg_minic::ast::Stmt;
    let f = parse_function(DISJOINT_SRC).expect("parse");
    let Some(Stmt::Switch { id, cases, .. }) = f.body.stmts.first() else {
        panic!("the switch is the first statement");
    };
    let queries = cases
        .iter()
        .map(|case| {
            let [Stmt::If { id: inner, .. }] = case.body.stmts.as_slice() else {
                panic!("every case is one if");
            };
            PathQuery::new(vec![
                (*id, BranchChoice::Case(case.value)),
                (*inner, BranchChoice::Then),
            ])
        })
        .collect::<Vec<_>>();
    assert_eq!(queries.len(), 8);
    (f, queries)
}

#[test]
fn a_tripped_shared_run_answers_like_one_query_searches() {
    // The budget is one more than the costliest one-query search, so every
    // query settles alone.  The shared run's cap is four such budgets, and
    // the eight queries' disjoint work exceeds it on the full model and on
    // the slice: the queries it leaves open go back to one-query searches
    // (the fallback of `check_many_shared` with slicing off, of
    // `check_many_sliced` with it on).
    let (f, queries) = disjoint_batch();
    let options = Optimisations::all().encode_options();
    let model = encode_function(&f, &options);
    let prepared = PreparedModel::new(&model);
    let unbounded = ModelChecker::new();
    let costliest = queries
        .iter()
        .map(|query| {
            let result =
                MultiQueryEngine::explore(&unbounded, &prepared, std::slice::from_ref(query))
                    .result(0)
                    .expect("a batch of one always settles");
            result.stats.states_created + result.stats.transitions_fired
        })
        .max()
        .expect("queries");
    let checker = unbounded.with_budget(costliest + 1);

    let union = queries
        .iter()
        .flat_map(|q| q.stmts().iter().copied())
        .collect();
    let (sliced, _) = slice_for_queries(&f, &union).expect("the junk branch is sliced away");
    let sliced_model = encode_function(&sliced, &options);
    for (what, model) in [("full model", &model), ("slice", &sliced_model)] {
        let engine = MultiQueryEngine::explore(&checker, &PreparedModel::new(model), &queries);
        assert!(
            (0..queries.len()).any(|q| engine.outcome(q).is_none()),
            "the shared run on the {what} should trip its cap"
        );
    }

    for slicing in [false, true] {
        let checker = checker.clone().with_slicing(slicing);
        let batched = checker.check_many(&f, &queries);
        let (mut feasible, mut infeasible) = (0, 0);
        for (query, result) in queries.iter().zip(&batched) {
            let single = checker.find_test_data(&f, query);
            // Verdict, witness and step count.
            assert_eq!(
                result.outcome, single.outcome,
                "slicing {slicing}: {:?}",
                query.decisions
            );
            match single.outcome {
                CheckOutcome::Feasible { .. } => feasible += 1,
                CheckOutcome::Infeasible => infeasible += 1,
                CheckOutcome::Unknown => panic!("{:?} does not settle alone", query.decisions),
            }
        }
        assert_eq!((feasible, infeasible), (4, 4), "slicing {slicing}");
    }
}
