//! `module_edit`: the repository's 50-function benchmark module
//! (`ModuleGenConfig::bench`); each op applies an edit no earlier op made to
//! one seeded function, then runs `parse_program` and
//! `ModuleAnalysis::analyse_module` over the same `PersistentStore`.  Parsing,
//! the call graph, summary-key hashing and memory-tier lookups dominate: only
//! the dirty cone (about two functions) re-enters the pipeline.

use crate::measure::{self, Phase};
use crate::timed_store::{StageTimes, TimedStore};
use crate::{
    checker_since, end_to_end, ensure, open_store, ratio, repeated_setup, Ctx, Layers, Metric,
    Outcome, StoreDelta,
};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tmg_codegen::module_gen::{generate_module, ModuleGenConfig};
use tmg_core::{ModuleAnalysis, ModuleReport, Stage, TieredStore};
use tmg_minic::ast::Program;
use tmg_minic::parse_program;

/// Functions in the module.
const FUNCTIONS: usize = 50;
/// Path bound of every analysis.
const PATH_BOUND: u128 = 8;
/// Edits prepared (untimed) ahead of each timed chunk.
const CHUNK: u64 = 64;
/// Every this many ops, the differential answer is compared with a
/// from-scratch analysis on a fresh store.
const ORACLE_EVERY: u64 = 2048;
/// Answers pinned by `expected/module_edit.txt` on the default seed.
const ANSWERS: usize = 16;
const SALT_EDIT: u64 = 4 << 40;

/// The module every op edits.  Its call structure is fixed, so the mean
/// dirty-cone size does not change with `--seed`; the seed picks the
/// sequence of edited functions.
fn base_source() -> String {
    let module = generate_module(&ModuleGenConfig::bench());
    assert_eq!(
        module.function_count(),
        FUNCTIONS,
        "the bench module has 50 functions"
    );
    module.source
}

/// Op `index`'s module: the base with one seeded function given a call that
/// no other op adds, so every op is an edit the store has never seen.
fn edited(base: &str, seed: u64, index: u64) -> (usize, String) {
    let target = (measure::mix(seed, SALT_EDIT + index) % FUNCTIONS as u64) as usize;
    let marker = format!("touch_f{target}();");
    let source = base.replacen(&marker, &format!("{marker} edit_{index}_f{target}();"), 1);
    (target, source)
}

/// One answer line: the composed result of one edit.
fn answer(index: u64, target: usize, r: &ModuleReport) -> String {
    let roots: Vec<String> = r
        .roots
        .iter()
        .map(|root| format!("{}:{}", root.function, root.wcet_bound))
        .collect();
    format!(
        "edit {index} f{target}: key={:016x} computed={} reused={} roots={}",
        r.module_key,
        r.summaries_computed,
        r.summaries_reused,
        roots.join(",")
    )
}

/// The parts of a module report that must not depend on what the store
/// already held: everything but the reuse counters and cache flags.
fn same_answer(a: &ModuleReport, b: &ModuleReport) -> bool {
    let summaries = |r: &ModuleReport| {
        r.summaries
            .iter()
            .map(|s| {
                (
                    s.function.clone(),
                    s.summary_key,
                    s.wcet_bound,
                    s.callees.clone(),
                )
            })
            .collect::<Vec<_>>()
    };
    a.module_key == b.module_key
        && a.reports == b.reports
        && a.roots == b.roots
        && summaries(a) == summaries(b)
}

/// Running totals over every measured op.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    computed: u64,
    reused: u64,
    goals: u64,
    checker_goals: u64,
    /// Parse time per phase slot.
    parse_ns: [u64; 2],
    answers: Vec<String>,
}

/// Runs unique edits for `seconds`, chunk `i` through `analyses[i % len]`
/// into `phases[i % len]`, checking every answer between timed chunks.
fn measure(
    analyses: &[ModuleAnalysis],
    base: &str,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Result<Vec<Phase>, String> {
    let mut phases: Vec<Phase> = analyses.iter().map(|_| Phase::default()).collect();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut chunk = 0;
    while Instant::now() < deadline {
        let slot = chunk % analyses.len();
        let analysis = &analyses[slot];
        let first = chunk as u64 * CHUNK;
        chunk += 1;
        let edits: Vec<(usize, String)> = (first..first + CHUNK)
            .map(|i| edited(base, seed, i))
            .collect();
        let mut parse_ns = 0;
        let results = phases[slot].timed(|samples| {
            edits
                .iter()
                .map(|(_, source)| {
                    samples.op(|| {
                        let start = Instant::now();
                        let program = parse_program(source);
                        parse_ns += start.elapsed().as_nanos() as u64;
                        let report = program.as_ref().ok().map(|p| analysis.analyse_module(p));
                        (program, report)
                    })
                })
                .collect::<Vec<_>>()
        });
        tally.parse_ns[slot] += parse_ns;
        for ((index, (target, _)), (program, report)) in (first..).zip(&edits).zip(results) {
            tally.attempted += 1;
            let program = program.map_err(|e| format!("edit {index} does not parse: {e}"))?;
            let Some(Ok(report)) = report else {
                tally.failed += 1;
                continue;
            };
            check_answer(index, *target, &program, &report, tally)?;
        }
    }
    Ok(phases)
}

fn check_answer(
    index: u64,
    target: usize,
    program: &Program,
    report: &ModuleReport,
    tally: &mut Tally,
) -> Result<(), String> {
    let edited = &report.summaries[target];
    ensure(report.summaries_computed >= 1 && !edited.from_cache, || {
        format!("edit {index} of f{target} computed no summary")
    })?;
    if index.is_multiple_of(ORACLE_EVERY) {
        let scratch = ModuleAnalysis::new(PATH_BOUND)
            .analyse_module(program)
            .map_err(|e| format!("from-scratch analysis of edit {index} failed: {e}"))?;
        if !same_answer(report, &scratch) {
            return Err(format!(
                "wrong answer: edit {index} differs from a from-scratch analysis"
            ));
        }
    }
    tally.computed += report.summaries_computed as u64;
    tally.reused += report.summaries_reused as u64;
    for (summary, r) in report.summaries.iter().zip(&report.reports) {
        if !summary.from_cache {
            tally.goals += r.goals as u64;
            tally.checker_goals += (r.goals - r.heuristic_covered) as u64;
        }
    }
    if tally.answers.len() < ANSWERS {
        tally.answers.push(answer(index, target, report));
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let base = base_source();
    let (setup_s, store) = repeated_setup(
        |round| {
            let store = Arc::new(open_store(&ctx.fresh_dir(&format!("module-{round}")))?);
            let tier: Arc<dyn TieredStore> = store.clone();
            let program =
                parse_program(&base).map_err(|e| format!("base module does not parse: {e}"))?;
            let report = ModuleAnalysis::new(PATH_BOUND)
                .with_store(tier)
                .analyse_module(&program)
                .map_err(|e| format!("base module analysis failed: {e}"))?;
            ensure(report.summaries_computed == FUNCTIONS, || {
                format!(
                    "a fresh store computed {} summaries",
                    report.summaries_computed
                )
            })?;
            Ok(store)
        },
        |_| Ok(()),
    )?;
    let plain: Arc<dyn TieredStore> = store.clone();
    let timed = Arc::new(TimedStore::new(Arc::clone(&store)));
    let traced: Arc<dyn TieredStore> = timed.clone();
    let mut analyses = vec![ModuleAnalysis::new(PATH_BOUND).with_store(plain)];
    if ctx.trace {
        analyses.push(ModuleAnalysis::new(PATH_BOUND).with_store(traced));
    }

    let mut tally = Tally::default();
    let before = StoreDelta::of(&store);
    let checker = tmg_tsys::metrics::snapshot();
    let phases = measure(&analyses, &base, ctx.seed, ctx.seconds, &mut tally)?;
    let delta = StoreDelta::of(&store).since(&before);
    ensure(delta.disk_evictions == 0, || {
        format!("module_edit evicted {} frames", delta.disk_evictions)
    })?;
    let metrics = match &phases[..] {
        [untraced] => end_to_end(setup_s, untraced, delta.appended_bytes, tally.failed)?,
        [untraced, traced] => layers(
            untraced,
            traced,
            &timed.snapshot(),
            &delta,
            &checker_since(&checker),
            &tally,
        ),
        _ => unreachable!("one or two phases"),
    };
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        answers: tally.answers,
    })
}

/// Per-layer metrics.  Store, checker and summary counters are per op over
/// both halves; times come from the traced half alone.
fn layers(
    untraced: &Phase,
    traced: &Phase,
    stages: &StageTimes,
    delta: &StoreDelta,
    checker: &tmg_tsys::CheckerMetrics,
    tally: &Tally,
) -> Vec<Metric> {
    let all_ops = (untraced.ops() + traced.ops()) as f64;
    let ops = traced.ops() as f64;
    let mut layers = Layers::default();
    layers.set_store_and_checker(untraced.ops() + traced.ops(), delta, checker);
    layers.set_overhead(untraced, traced);
    layers.set_tail(untraced);
    for (name, stage) in [
        ("core.lower.ms_per_op", Stage::Lower),
        ("core.partition.ms_per_op", Stage::Partition),
        ("core.testgen.ms_per_op", Stage::Testgen),
        ("core.measure.ms_per_op", Stage::Measure),
        ("core.bound.ms_per_op", Stage::Bound),
    ] {
        layers.set(name, stages.busy_ms(stage) / ops);
    }
    let parse_ms = tally.parse_ns[1] as f64 / 1e6 / ops;
    layers.set("minic.parse_ms_per_op", parse_ms);
    layers.set(
        "core.module.residual_ms_per_op",
        traced.mean_wall_ms() - parse_ms - stages.total_busy_ms() / ops,
    );
    layers.set(
        "core.module.summaries_computed_per_op",
        tally.computed as f64 / all_ops,
    );
    layers.set(
        "core.module.summaries_reused_per_op",
        tally.reused as f64 / all_ops,
    );
    layers.set(
        "core.testgen.checker_goal_share",
        ratio(tally.checker_goals, tally.goals),
    );
    layers.set("target.runs_per_op", stages.measure_runs as f64 / ops);
    layers.into_metrics()
}
