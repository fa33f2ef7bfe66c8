//! Determinism of the sharded parallel explorer: the same heavy batch run
//! at 1, 2 and 8 worker threads must produce bit-identical verdicts,
//! witnesses and step counts — one thread takes the pure sequential path,
//! so this also pins the sharded reduction against the sequential
//! semantics.  A one-query batch large enough to shard must also report
//! the same cost statistics at every thread count.  Feasible witnesses are
//! additionally oracle-replayed on the interpreter under monitor semantics.

use std::time::Duration;
use tmg_cfg::{build_cfg, enumerate_region_paths};
use tmg_minic::ast::StmtId;
use tmg_minic::interp::BranchChoice;
use tmg_minic::{parse_function, parse_program, Interpreter};
use tmg_tsys::{
    encode_function, CheckOutcome, CheckResult, ModelChecker, MultiQueryEngine, Optimisations,
    PathQuery, PreparedModel,
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

/// A batch wide enough to trip the shard trigger: a 20001-value split at the
/// first guard plus enough branching for a few dozen queries.
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

fn outcomes_at(
    checker: &ModelChecker,
    prepared: &PreparedModel<'_>,
    queries: &[PathQuery],
    threads: usize,
) -> Vec<Option<CheckOutcome>> {
    let engine = MultiQueryEngine::explore_with_threads(checker, prepared, queries, threads);
    (0..queries.len()).map(|q| engine.outcome(q)).collect()
}

/// `query` asked as a batch of one, with the wall-clock time zeroed so the
/// whole result can be compared.
fn one_query_at(
    checker: &ModelChecker,
    prepared: &PreparedModel<'_>,
    query: &PathQuery,
    threads: usize,
) -> CheckResult {
    let engine = MultiQueryEngine::explore_with_threads(
        checker,
        prepared,
        std::slice::from_ref(query),
        threads,
    );
    let mut result = engine.result(0).expect("a batch of one always settles");
    result.stats.duration = Duration::ZERO;
    result
}

/// Seed-phase op budget of the explorer (`SHARD_SEED_OPS`): a search that
/// spends more than this is cut into shards.
const SHARD_SEED_OPS: u64 = 1 << 15;

#[test]
fn verdicts_witnesses_and_steps_are_identical_across_thread_counts() {
    let (f, queries) = heavy_batch();
    assert!(queries.len() >= 32, "batch should be heavy");
    let checker = ModelChecker::new();
    let model = encode_function(&f, &Optimisations::all().encode_options());
    let prepared = PreparedModel::new(&model);
    let reference = outcomes_at(&checker, &prepared, &queries, 1);
    assert!(
        reference.iter().all(|o| o.is_some()),
        "the heavy batch settles within budget"
    );
    for threads in [2, 8] {
        let outcomes = outcomes_at(&checker, &prepared, &queries, threads);
        // Bit-identical: verdicts, witness vectors and step counts.
        assert_eq!(
            outcomes, reference,
            "{threads}-thread exploration diverges from the sequential path"
        );
    }
    // Oracle replay: every feasible witness drives the interpreter down its
    // queried decision sequence.
    let program = parse_program(HEAVY_SRC).expect("parse");
    let interp = Interpreter::new(&program);
    let mut feasible = 0;
    for (query, outcome) in queries.iter().zip(&reference) {
        if let Some(CheckOutcome::Feasible { witness, .. }) = outcome {
            feasible += 1;
            let run = interp.run("f", witness).expect("witness replays");
            assert!(
                monitor_accepts(&query.decisions, &run.trace.branch_signature()),
                "witness {witness:?} does not follow {:?}",
                query.decisions
            );
        }
    }
    assert!(feasible >= 8, "the heavy batch has feasible paths");

    // One-query batches that shard: outcome and every cost statistic but
    // the time are those of the sequential schedule at every thread count.
    let mut sharded = (0, 0);
    for query in &queries {
        let reference = one_query_at(&checker, &prepared, query, 1);
        let stats = &reference.stats;
        if stats.states_created + stats.transitions_fired <= SHARD_SEED_OPS {
            continue;
        }
        match reference.outcome {
            CheckOutcome::Feasible { .. } => sharded.0 += 1,
            CheckOutcome::Infeasible => sharded.1 += 1,
            CheckOutcome::Unknown => panic!("{:?} exhausts the budget", query.decisions),
        }
        for threads in [2, 8] {
            assert_eq!(
                one_query_at(&checker, &prepared, query, threads),
                reference,
                "{threads}-thread one-query search of {:?} diverges from the sequential one",
                query.decisions
            );
        }
    }
    assert!(
        sharded.0 >= 4 && sharded.1 >= 1,
        "feasible and infeasible one-query searches cross the seed budget: {sharded:?}"
    );
}

#[test]
fn budget_bound_batches_certify_identically_across_thread_counts() {
    // A budget too small to settle the space: every thread count must
    // certify the same Unknowns (exact attributed-op accounting across the
    // shard reduction).
    let (f, queries) = heavy_batch();
    let tight = ModelChecker::new().with_budget(200_000);
    let model = encode_function(&f, &Optimisations::all().encode_options());
    let prepared = PreparedModel::new(&model);
    let reference = outcomes_at(&tight, &prepared, &queries, 1);
    for threads in [2, 8] {
        let outcomes = outcomes_at(&tight, &prepared, &queries, threads);
        assert_eq!(
            outcomes, reference,
            "{threads}-thread budget accounting diverges from sequential"
        );
    }
    assert!(
        reference
            .iter()
            .any(|o| matches!(o, Some(CheckOutcome::Unknown))),
        "the tight budget should leave certified Unknowns"
    );
}

#[test]
fn check_many_matches_per_query_search_on_the_heavy_batch() {
    // End-to-end: the public batch entry point (slicing + sharding + witness
    // completion) against the per-query reference engine.
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
