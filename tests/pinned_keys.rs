//! Pinned artifact keys.
//!
//! Every pipeline artifact — in memory, in the persistent segment log and in
//! `perfbench/expected/module_edit.txt` — is addressed by a key derived from
//! the function's pretty-printed source and the `Debug` rendering of the
//! analysis configuration.  The literals below are those keys for one fixed
//! module under the default configuration.  A change that re-keys (a renamed
//! configuration field, a new `Debug` derive, a printer tweak, a different
//! composition order) fails here loudly instead of silently orphaning every
//! persisted artifact.  Update the literals only in a change that means to
//! re-key, and say so.

use tmg_cfg::{function_fingerprint, key_hex, stable_hash_str};
use tmg_codegen::automotive::{generate_automotive, AutomotiveConfig};
use tmg_codegen::ModuleGenConfig;
use tmg_codegen::{figure1_function, generate_module, table2_function, wiper_function};
use tmg_core::pipeline::{bound_key, campaign_key, partition_key, prepared_model_key, suite_key};
use tmg_core::{ModuleAnalysis, WcetAnalysis};
use tmg_minic::ast::Function;
use tmg_minic::pretty::function_to_string;
use tmg_minic::value::InputVector;
use tmg_minic::{parse_program, Program};
use tmg_target::CostModel;

const MODULE: &str = "\
    void leaf(char v __range(0, 3)) { if (v > 1) { work(); } } \
    void mid(char a __range(0, 3)) { leaf(a); external(); } \
    void root(char a __range(0, 3)) { mid(a); if (a == 0) { extra(); } } \
    void lone(char z __range(0, 1)) { if (z) { other(); } }";

const PATH_BOUND: u128 = 4;

const EXPECTED: &[&str] = &[
    "fingerprint leaf = bbc38154599b13cb",
    "fingerprint mid = fd0f37f3560fab6c",
    "fingerprint root = c0b9afce81f5b796",
    "fingerprint lone = f3ccaa041f62da51",
    "partition leaf = 49e39e6f0c169c8d",
    "prepared-model leaf = 6e7c4ff15281bbf7",
    "suite leaf = c12c6fb74baae2f6",
    "campaign leaf = 7237f0d413ad1683",
    "bound leaf = d122e051f250b9bd",
    "bound leaf exhaustive = 06e26ba556179e07",
    "campaign mid priced = 51c211e57e1528e5",
    "bound mid priced = a00bab8052e908d4",
    "summary leaf = 865786bdb2076c24",
    "summary mid = e1e37a93d5c688e3",
    "summary root = 27e9eacf1a344855",
    "summary lone = aae5524ad7febb9c",
    "module = 8bf4ba18223e0c12",
];

fn module() -> Program {
    parse_program(MODULE).expect("the pinned module parses")
}

#[test]
fn artifact_keys_match_their_pinned_values() {
    let program = module();
    let analysis = WcetAnalysis::new(PATH_BOUND);
    let mut lines = Vec::new();
    let mut pin = |name: String, key: u64| lines.push(format!("{name} = {}", key_hex(key)));

    for function in &program.functions {
        pin(
            format!("fingerprint {}", function.name),
            function_fingerprint(function),
        );
    }

    let leaf = function_fingerprint(&program.functions[0]);
    let partition = partition_key(leaf, PATH_BOUND);
    let suite = suite_key(partition, &analysis.generator);
    pin("partition leaf".into(), partition);
    pin(
        "prepared-model leaf".into(),
        prepared_model_key(leaf, &analysis.generator.checker),
    );
    pin("suite leaf".into(), suite);
    pin(
        "campaign leaf".into(),
        campaign_key(suite, &analysis.cost_model),
    );
    pin("bound leaf".into(), bound_key(&analysis, leaf, None));
    let space: Vec<InputVector> = (0..4).map(|v| InputVector::new().with("v", v)).collect();
    pin(
        "bound leaf exhaustive".into(),
        bound_key(&analysis, leaf, Some(&space)),
    );

    // `mid` priced with a callee bound, as `ModuleAnalysis` prices it.
    let mid = function_fingerprint(&program.functions[1]);
    let priced = CostModel::hcs12().with_call_bounds(vec![("leaf".to_owned(), 40)]);
    let mid_suite = suite_key(partition_key(mid, PATH_BOUND), &analysis.generator);
    pin(
        "campaign mid priced".into(),
        campaign_key(mid_suite, &priced),
    );
    pin(
        "bound mid priced".into(),
        bound_key(&analysis.clone().with_cost_model(priced), mid, None),
    );

    let report = ModuleAnalysis::new(PATH_BOUND)
        .analyse_module(&program)
        .expect("the pinned module is acyclic");
    for summary in &report.summaries {
        pin(format!("summary {}", summary.function), summary.summary_key);
    }
    pin("module".into(), report.module_key);

    assert_eq!(lines, EXPECTED);
}

/// Every function the repository generates or reproduces from the paper.
fn corpus() -> Vec<Function> {
    let mut functions = generate_module(&ModuleGenConfig::bench()).program.functions;
    functions.push(generate_automotive(&AutomotiveConfig::default()).function);
    functions
        .extend((0..4).map(|seed| generate_automotive(&AutomotiveConfig::small(seed)).function));
    functions.push(wiper_function());
    functions.push(table2_function());
    functions.push(figure1_function(false));
    functions.push(figure1_function(true));
    functions.extend(module().functions);
    functions
}

#[test]
fn fingerprints_hash_exactly_the_printed_source() {
    for function in corpus() {
        assert_eq!(
            function_fingerprint(&function),
            stable_hash_str(&function_to_string(&function)),
            "fingerprint of `{}` must hash the printed source byte for byte",
            function.name
        );
    }
}
