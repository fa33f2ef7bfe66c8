//! `cold_analyse`: every op is `WcetAnalysis::analyse` on a never-seen,
//! seeded, small-domain generated function, in process, over a fresh
//! `PersistentStore`.  The whole pipeline runs at full cost and the segment
//! log only takes appends; there is no TCP, JSON or scheduler.

use crate::measure::{self, Phase};
use crate::timed_store::{StageTimes, TimedStore};
use crate::{
    checker_since, end_to_end, ensure, open_store, ratio, repeated_setup, Ctx, Layers, Metric,
    Outcome, StoreDelta,
};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tmg_codegen::automotive::{generate_automotive, AutomotiveConfig};
use tmg_core::{AnalysisReport, Stage, TieredStore, WcetAnalysis};
use tmg_minic::ast::Function;
use tmg_minic::value::InputVector;
use tmg_target::{CostModel, Machine};

/// Path bound of every analysis.
pub const PATH_BOUND: u128 = 8;
/// Functions generated (untimed) ahead of each timed chunk.
const CHUNK: u64 = 32;
/// Functions each set-up analyses to warm the process.
const WARMUP_FUNCTIONS: u64 = 32;
/// Answers pinned by `expected/cold_analyse.txt` on the default seed.
const ANSWERS: usize = 16;
/// The stages every computed analysis runs (prepare-model only runs when
/// the checker gets goals, so it is not among them).
const ALWAYS_COMPUTED: [Stage; 5] = [
    Stage::Lower,
    Stage::Partition,
    Stage::Testgen,
    Stage::Measure,
    Stage::Bound,
];
/// Seed salts keeping warm-up and measured functions apart.
const SALT_WARMUP: u64 = 1 << 40;
const SALT_MEASURED: u64 = 2 << 40;

/// A small-domain function: one sensor over -100..100 and one three-way
/// mode, so an op stays in the low milliseconds (none near 100 ms) and the
/// exhaustive oracle sweeps all 603 inputs cheaply.
pub fn config(seed: u64) -> AutomotiveConfig {
    AutomotiveConfig {
        seed,
        target_blocks: 40,
        switch_arms: 3,
        max_if_depth: 2,
        sensor_inputs: 1,
        mode_inputs: 1,
    }
}

fn generate(seed: u64) -> Function {
    generate_automotive(&config(seed)).function
}

/// The largest end-to-end cycle count over every input of `function`'s
/// declared domain, simulated on the target directly (independent of the
/// pipeline under test).
pub fn exhaustive_max(function: &Function, cost: &CostModel) -> Result<u64, String> {
    let lowered = tmg_cfg::build_cfg(function);
    let machine = Machine::new(&lowered.cfg, function, cost.clone());
    let ranges: Vec<(&str, i64, i64)> = function
        .params
        .iter()
        .map(|p| {
            p.range
                .map(|(lo, hi)| (p.name.as_str(), lo, hi))
                .ok_or_else(|| format!("parameter {} has no declared range", p.name))
        })
        .collect::<Result<_, _>>()?;
    let mut values: Vec<i64> = ranges.iter().map(|r| r.1).collect();
    let mut max = 0;
    loop {
        let mut inputs = InputVector::new();
        for (range, value) in ranges.iter().zip(&values) {
            inputs.set(range.0, *value);
        }
        let cycles = machine
            .end_to_end_cycles(&inputs)
            .map_err(|e| format!("target fault on {inputs}: {e}"))?;
        max = max.max(cycles);
        // Odometer step over the cartesian product of the ranges.
        let mut digit = 0;
        loop {
            if digit == values.len() {
                return Ok(max);
            }
            if values[digit] < ranges[digit].2 {
                values[digit] += 1;
                break;
            }
            values[digit] = ranges[digit].1;
            digit += 1;
        }
    }
}

/// One answer line: the report fields a regression could change.
fn answer(index: u64, r: &AnalysisReport) -> String {
    format!(
        "op {index}: bound={} segments={} goals={} heuristic={} checker={} infeasible={} unknown={} runs={}",
        r.wcet_bound,
        r.segments,
        r.goals,
        r.heuristic_covered,
        r.checker_covered,
        r.infeasible,
        r.unknown,
        r.measurement_runs
    )
}

/// Running totals over every measured op.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    goals: u64,
    checker_goals: u64,
    answers: Vec<String>,
}

/// Analyses fresh functions for `seconds`, chunk `i` through
/// `analyses[i % len]` into `phases[i % len]`, and checks every bound
/// against the exhaustive maximum between timed chunks.
fn measure(
    analyses: &[WcetAnalysis],
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
        let functions: Vec<Function> = (first..first + CHUNK)
            .map(|i| generate(measure::mix(seed, SALT_MEASURED + i)))
            .collect();
        let results = phases[slot].timed(|samples| {
            functions
                .iter()
                .map(|f| samples.op(|| analysis.analyse(f)))
                .collect::<Vec<_>>()
        });
        for ((index, function), result) in (first..).zip(&functions).zip(results) {
            tally.attempted += 1;
            let Ok(report) = result else {
                tally.failed += 1;
                continue;
            };
            let max = exhaustive_max(function, &analysis.cost_model)?;
            if report.wcet_bound < max {
                return Err(format!(
                    "wrong answer: op {index} bound {} is below the exhaustive maximum {max}",
                    report.wcet_bound
                ));
            }
            tally.goals += report.goals as u64;
            tally.checker_goals += (report.goals - report.heuristic_covered) as u64;
            if tally.answers.len() < ANSWERS {
                tally.answers.push(answer(index, &report));
            }
        }
    }
    Ok(phases)
}

/// Every attempted op computed each always-run stage exactly once (the
/// bound only on success), and nothing was read back or evicted, so the
/// byte growth is exactly the appends.
fn check_structure(delta: &StoreDelta, tally: &Tally) -> Result<(), String> {
    for stage in ALWAYS_COMPUTED {
        let want = if stage == Stage::Bound {
            tally.attempted - tally.failed
        } else {
            tally.attempted
        };
        ensure(delta.computes_of(stage) == want, || {
            format!(
                "cold_analyse computed {stage} {} times over {want} ops",
                delta.computes_of(stage)
            )
        })?;
    }
    ensure(delta.disk_hits == 0 && delta.disk_evictions == 0, || {
        format!(
            "cold_analyse read {} frames back and evicted {}",
            delta.disk_hits, delta.disk_evictions
        )
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (setup_s, store) = repeated_setup(
        |round| {
            let store = Arc::new(open_store(&ctx.fresh_dir(&format!("cold-{round}")))?);
            let tier: Arc<dyn TieredStore> = store.clone();
            let analysis = WcetAnalysis::new(PATH_BOUND).with_store(tier);
            for i in 0..WARMUP_FUNCTIONS {
                let function = generate(measure::mix(ctx.seed, SALT_WARMUP + i));
                analysis
                    .analyse(&function)
                    .map_err(|e| format!("warm-up analysis failed: {e}"))?;
            }
            Ok(store)
        },
        |_| Ok(()),
    )?;
    let plain: Arc<dyn TieredStore> = store.clone();
    let timed = Arc::new(TimedStore::new(Arc::clone(&store)));
    let traced: Arc<dyn TieredStore> = timed.clone();
    let mut analyses = vec![WcetAnalysis::new(PATH_BOUND).with_store(plain)];
    if ctx.trace {
        analyses.push(WcetAnalysis::new(PATH_BOUND).with_store(traced));
    }

    let mut tally = Tally::default();
    let before = StoreDelta::of(&store);
    let checker = tmg_tsys::metrics::snapshot();
    let phases = measure(&analyses, ctx.seed, ctx.seconds, &mut tally)?;
    let delta = StoreDelta::of(&store).since(&before);
    check_structure(&delta, &tally)?;
    let metrics = match &phases[..] {
        [untraced] => end_to_end(setup_s, untraced, delta.appended_bytes, tally.failed)?,
        [untraced, traced] => {
            let stages = timed.snapshot();
            ensure(
                stages.calls[Stage::Lower.index()] == traced.ops() as u64,
                || {
                    format!(
                        "the traced half lowered {} times over {} ops",
                        stages.calls[Stage::Lower.index()],
                        traced.ops()
                    )
                },
            )?;
            layers(
                untraced,
                traced,
                &stages,
                &delta,
                &checker_since(&checker),
                &tally,
            )
        }
        _ => unreachable!("one or two phases"),
    };
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        answers: tally.answers,
    })
}

/// Per-layer metrics.  Store and checker counters are per op over both
/// halves; stage times come from the traced half alone.
fn layers(
    untraced: &Phase,
    traced: &Phase,
    stages: &StageTimes,
    delta: &StoreDelta,
    checker: &tmg_tsys::CheckerMetrics,
    tally: &Tally,
) -> Vec<Metric> {
    let ops = traced.ops() as f64;
    let mut layers = Layers::default();
    layers.set_store_and_checker(untraced.ops() + traced.ops(), delta, checker);
    layers.set_overhead(untraced, traced);
    layers.set_tail(untraced);
    let mut staged_ms = 0.0;
    for (name, stage) in [
        ("core.lower.ms_per_op", Stage::Lower),
        ("core.partition.ms_per_op", Stage::Partition),
        ("core.testgen.ms_per_op", Stage::Testgen),
        ("core.measure.ms_per_op", Stage::Measure),
    ] {
        layers.set(name, stages.busy_ms(stage) / ops);
        staged_ms += stages.busy_ms(stage);
    }
    // The bound stage is the rest of the op: the bound-tier probe and
    // publish plus the timing schema.
    layers.set(
        "core.bound.ms_per_op",
        traced.mean_wall_ms() - staged_ms / ops,
    );
    layers.set(
        "core.testgen.checker_goal_share",
        ratio(tally.checker_goals, tally.goals),
    );
    layers.set("target.runs_per_op", stages.measure_runs as f64 / ops);
    layers.into_metrics()
}
