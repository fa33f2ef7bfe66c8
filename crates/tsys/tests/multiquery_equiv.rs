//! Property-based equivalence of an N-query batch and N one-query batches:
//! for random mini-C functions and random decision queries,
//! [`ModelChecker::check_many`] must return the same feasibility verdict as
//! per-query [`ModelChecker::find_test_data`], and every witness must replay
//! on the interpreter to the queried path.
//!
//! Both sides run the same exploration loop, so the verdicts are also
//! checked against an oracle that does not use the checker at all: the
//! input domains are at most 6 × 6, so every input is run through the
//! interpreter, and a query is feasible exactly when some input's trace is
//! accepted by its path monitor.  An `Infeasible` verdict lowers a bound,
//! so it must never be given to a query that some input satisfies.
//!
//! Functions are generated from integer draws only (the vendored proptest
//! supports integer-range strategies); conditions read function parameters
//! exclusively (plus explicitly initialised loop counters), so a witness
//! fully determines the execution path and interpreter replay is exact.

use proptest::prelude::*;
use tmg_cfg::{build_cfg, enumerate_region_paths, PathSpec};
use tmg_minic::ast::StmtId;
use tmg_minic::interp::BranchChoice;
use tmg_minic::value::InputVector;
use tmg_minic::{parse_function, parse_program, Interpreter};
use tmg_tsys::{CheckOutcome, ModelChecker, PathQuery};

/// The checker's path-monitor acceptance, replayed over an execution trace:
/// decisions at the next expected statement must take the expected choice
/// (anything else kills the run), decisions elsewhere are ignored, and the
/// trace is accepted once every queried decision has been matched.
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

/// Deterministic draw stream decoding one `u64` seed into small choices.
struct Draws(u64);

impl Draws {
    fn next(&mut self, n: u64) -> u64 {
        let v = self.0 % n;
        // Rotate so later draws do not correlate with earlier ones once the
        // seed runs short of entropy.
        self.0 = (self.0 / n).rotate_left(17) ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        v
    }
}

/// Builds a random mini-C function whose control flow depends only on the
/// two parameters `a` (domain `0..=a_hi`) and `b` (domain `0..=b_hi`).
fn random_function(shape: u64, a_hi: i64, b_hi: i64) -> String {
    let mut d = Draws(shape);
    let stmt_count = 2 + d.next(3); // 2..=4 branching statements
    let mut body = String::new();
    let mut decls = String::new();
    for k in 0..stmt_count {
        let var = if d.next(2) == 0 { "a" } else { "b" };
        let hi = if var == "a" { a_hi } else { b_hi };
        // Literals may sit just outside the domain, producing always-false
        // (infeasible-path) and always-true guards on purpose.
        let lit = d.next((hi + 2) as u64) as i64 - 1;
        match d.next(4) {
            0 => body.push_str(&format!("    if ({var} > {lit}) {{ c{k}(); }}\n")),
            1 => body.push_str(&format!(
                "    if ({var} == {lit}) {{ t{k}(); }} else {{ e{k}(); }}\n"
            )),
            2 => {
                let case = 1 + d.next(hi.max(1) as u64);
                body.push_str(&format!(
                    "    switch ({var}) {{ case 0: s{k}a(); break; case {case}: s{k}b(); break; default: s{k}d(); break; }}\n"
                ));
            }
            _ => {
                decls.push_str(&format!("    char i{k} = 0;\n"));
                body.push_str(&format!(
                    "    while (i{k} < {var}) __bound(6) {{ i{k} = i{k} + 1; }}\n"
                ));
            }
        }
    }
    format!("void f(char a __range(0, {a_hi}), char b __range(0, {b_hi})) {{\n{decls}{body}}}\n")
}

/// Derives the query batch from the enumerated region paths: the full paths
/// themselves plus random prefixes, subsequences and wrong-choice mutants
/// (which exercise dead monitors and infeasible verdicts).
fn random_queries(paths: &[PathSpec], shape: u64) -> Vec<PathQuery> {
    let mut d = Draws(shape);
    let mut queries: Vec<PathQuery> = Vec::new();
    for path in paths {
        queries.push(PathQuery::new(path.decisions.clone()));
        let n = path.decisions.len();
        if n == 0 {
            continue;
        }
        match d.next(3) {
            0 => {
                // Random proper prefix.
                let cut = d.next(n as u64) as usize;
                queries.push(PathQuery::new(path.decisions[..cut].to_vec()));
            }
            1 => {
                // Subsequence: every other decision (the monitor must cope
                // with gaps between expected statements).
                let sub: Vec<(StmtId, BranchChoice)> =
                    path.decisions.iter().step_by(2).copied().collect();
                queries.push(PathQuery::new(sub));
            }
            _ => {
                // Flip one choice, often making the sequence infeasible.
                let mut mutant = path.decisions.clone();
                let at = d.next(n as u64) as usize;
                mutant[at].1 = match mutant[at].1 {
                    BranchChoice::Then => BranchChoice::Else,
                    BranchChoice::Else => BranchChoice::Then,
                    BranchChoice::Case(_) => BranchChoice::Default,
                    BranchChoice::Default => BranchChoice::Case(0),
                    BranchChoice::LoopIterate => BranchChoice::LoopExit,
                    BranchChoice::LoopExit => BranchChoice::LoopIterate,
                };
                queries.push(PathQuery::new(mutant));
            }
        }
    }
    queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn n_query_batch_agrees_with_n_one_query_batches_and_the_exhaustive_oracle(
        shape in 0u64..u64::MAX,
        query_shape in 0u64..u64::MAX,
        a_hi in 1i64..6,
        b_hi in 1i64..6,
    ) {
        let src = random_function(shape, a_hi, b_hi);
        let f = parse_function(&src).expect("generated function parses");
        let lowered = build_cfg(&f);
        let Some(paths) =
            enumerate_region_paths(&lowered.cfg, lowered.regions.root(), 192)
        else {
            // Path count above the enumeration cap — skip to the next case.
            continue;
        };
        let queries = random_queries(&paths, query_shape);
        let checker = ModelChecker::new();
        let batched = checker.check_many(&f, &queries);
        prop_assert_eq!(batched.len(), queries.len());
        let program = parse_program(&src).expect("program parses");
        let interp = Interpreter::new(&program);
        // Every input's branch trace, for the exhaustive oracle.
        let mut traces = Vec::new();
        for a in 0..=a_hi {
            for b in 0..=b_hi {
                let mut input = InputVector::new();
                input.set("a", a);
                input.set("b", b);
                let run = interp.run("f", &input).expect("every input runs");
                traces.push(run.trace.branch_signature());
            }
        }
        for (query, result) in queries.iter().zip(&batched) {
            let single = checker.find_test_data(&f, query);
            prop_assert_eq!(
                &result.outcome, &single.outcome,
                "N-query batch vs one-query batch verdict on {} for {:?}", src, query.decisions
            );
            // A query some input satisfies is Feasible; in particular an
            // Infeasible verdict never has such an input.
            let satisfiable = traces
                .iter()
                .any(|trace| monitor_accepts(&query.decisions, trace));
            prop_assert!(
                !satisfiable || matches!(result.outcome, CheckOutcome::Feasible { .. }),
                "an input follows {:?} in {} but the verdict is {:?}",
                query.decisions, src, result.outcome
            );
            if let CheckOutcome::Feasible { witness, .. } = &result.outcome {
                // The witness must drive the interpreter down the queried
                // decision sequence (under the checker's monitor semantics:
                // decisions at unexpected statements are skipped, which is
                // weaker than `PathSpec::matches_trace`'s contiguous window).
                let run = interp.run("f", witness).expect("witness replays");
                prop_assert!(
                    monitor_accepts(&query.decisions, &run.trace.branch_signature()),
                    "witness {:?} does not follow {:?} in {}",
                    witness, query.decisions, src
                );
            }
        }
    }
}
