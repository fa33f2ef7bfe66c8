//! Hybrid test-data generation (Section 3 of the paper).
//!
//! Test data are generated in two phases, exactly as the paper proposes:
//! first a cheap heuristic search (a small genetic algorithm over the input
//! domains) runs until it stops finding new paths, then the remaining paths
//! are handed to the model checker, which either produces a witness input
//! vector or proves the path infeasible.  The paper (citing Tracey et al.)
//! expects the heuristic phase to cover more than 90 % of the required test
//! cases; the `testgen` experiment of EXPERIMENTS.md checks that ratio.
//!
//! Each generation of the genetic search runs the target once per
//! never-seen input: individuals are dense genomes, and a per-call memo
//! keeps the goals every evaluated genome exercises, so elites carried over
//! and crossovers that recreate a known vector cost one hash probe.  The
//! two phases are traced as the `testgen:heuristic` and `testgen:checker`
//! spans.

use crate::partition::{PartitionPlan, SegmentId, SegmentKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rustc_hash::{FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::Arc;
use tmg_cfg::{enumerate_region_paths, BlockId, LoweredFunction, PathSpec, Terminator};
use tmg_minic::ast::Function;
use tmg_minic::interp::BranchChoice;
use tmg_minic::value::InputVector;
use tmg_minic::StmtId;
use tmg_target::{CostModel, Machine};
use tmg_tsys::{ModelChecker, PathQuery, SharedCheckModel};

/// What a coverage goal asks for.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum GoalKind {
    /// Execute the given decision sequence inside a region segment.
    RegionPath(PathSpec),
    /// Execute the given basic block (single-block segments).
    BlockExecution(BlockId),
}

/// One coverage goal of the measurement campaign.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageGoal {
    /// The segment the goal belongs to.
    pub segment: SegmentId,
    /// What must be exercised.
    pub kind: GoalKind,
}

/// Which phase produced a covering test vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GeneratorKind {
    /// The heuristic (genetic) search.
    Heuristic,
    /// The model checker.
    ModelChecker,
}

/// Outcome for one coverage goal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoverageStatus {
    /// A test vector exercising the goal was found.
    Covered {
        /// The input vector.
        vector: InputVector,
        /// Which phase found it.
        by: GeneratorKind,
    },
    /// The model checker proved no input can exercise the goal.
    Infeasible,
    /// Neither phase settled the goal within its budget.
    Unknown,
}

/// The generated test suite with per-goal outcomes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TestSuite {
    /// Goals and their outcomes, in segment order.
    pub goals: Vec<(CoverageGoal, CoverageStatus)>,
}

impl TestSuite {
    /// All distinct covering input vectors.
    pub fn vectors(&self) -> Vec<InputVector> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for (_, status) in &self.goals {
            if let CoverageStatus::Covered { vector, .. } = status {
                if seen.insert(vector.clone()) {
                    out.push(vector.clone());
                }
            }
        }
        out
    }

    /// Number of goals.
    pub fn goal_count(&self) -> usize {
        self.goals.len()
    }

    /// Goals covered by either phase.
    pub fn covered_count(&self) -> usize {
        self.goals
            .iter()
            .filter(|(_, s)| matches!(s, CoverageStatus::Covered { .. }))
            .count()
    }

    /// Goals covered by the heuristic phase.
    pub fn heuristic_covered(&self) -> usize {
        self.count_by(GeneratorKind::Heuristic)
    }

    /// Goals covered by the model checker.
    pub fn checker_covered(&self) -> usize {
        self.count_by(GeneratorKind::ModelChecker)
    }

    fn count_by(&self, kind: GeneratorKind) -> usize {
        self.goals
            .iter()
            .filter(|(_, s)| matches!(s, CoverageStatus::Covered { by, .. } if *by == kind))
            .count()
    }

    /// Goals proven infeasible.
    pub fn infeasible_count(&self) -> usize {
        self.goals
            .iter()
            .filter(|(_, s)| matches!(s, CoverageStatus::Infeasible))
            .count()
    }

    /// Goals left unresolved.
    pub fn unknown_count(&self) -> usize {
        self.goals
            .iter()
            .filter(|(_, s)| matches!(s, CoverageStatus::Unknown))
            .count()
    }

    /// Fraction of *feasible* goals covered by the heuristic phase — the
    /// ">90 %" figure of Section 3.
    pub fn heuristic_ratio(&self) -> f64 {
        let feasible = self.covered_count();
        if feasible == 0 {
            return 1.0;
        }
        self.heuristic_covered() as f64 / feasible as f64
    }
}

/// Configuration of the heuristic (genetic) phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeuristicConfig {
    /// Individuals per generation.
    pub population: usize,
    /// Hard cap on generations.
    pub max_generations: usize,
    /// Stop after this many generations without new coverage — the paper's
    /// "no new paths have been reached with the last N generated patterns".
    pub stall_generations: usize,
    /// Per-parameter mutation probability.
    pub mutation_rate: f64,
    /// RNG seed (the whole pipeline is deterministic for a given seed).
    pub seed: u64,
}

impl Default for HeuristicConfig {
    fn default() -> Self {
        HeuristicConfig {
            population: 32,
            max_generations: 200,
            stall_generations: 15,
            mutation_rate: 0.25,
            seed: 0xC0FFEE,
        }
    }
}

/// The two-phase test-data generator.
#[derive(Clone)]
pub struct HybridGenerator {
    /// Heuristic-phase configuration.
    pub heuristic: HeuristicConfig,
    /// Model checker used for the residual paths.
    pub checker: ModelChecker,
    /// Cap on enumerated paths per segment.
    pub max_paths_per_segment: usize,
    /// Cost model of the target used to replay candidate vectors.
    pub cost_model: CostModel,
}

impl std::fmt::Debug for HybridGenerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The persistent artifact keys hash this string.  The generator's
        // former `parallel` and `batch_queries` switches are gone, but their
        // fields are still written as the literals the default configuration
        // rendered, so existing keys stay valid.
        f.debug_struct("HybridGenerator")
            .field("heuristic", &self.heuristic)
            .field("checker", &self.checker)
            .field("max_paths_per_segment", &self.max_paths_per_segment)
            .field("cost_model", &self.cost_model)
            .field("parallel", &true)
            .field("batch_queries", &true)
            .finish()
    }
}

impl Default for HybridGenerator {
    fn default() -> Self {
        HybridGenerator::new()
    }
}

impl HybridGenerator {
    /// A generator with default heuristic settings and a fully optimised
    /// model checker.
    pub fn new() -> HybridGenerator {
        HybridGenerator {
            heuristic: HeuristicConfig::default(),
            checker: ModelChecker::new(),
            max_paths_per_segment: 4096,
            cost_model: CostModel::hcs12(),
        }
    }

    /// Builds the coverage goals of a partition plan.
    pub fn goals(&self, lowered: &LoweredFunction, plan: &PartitionPlan) -> Vec<CoverageGoal> {
        let mut goals = Vec::new();
        for segment in &plan.segments {
            match segment.kind {
                SegmentKind::Region(region_id) => {
                    let region = lowered.regions.region(region_id);
                    let paths =
                        enumerate_region_paths(&lowered.cfg, region, self.max_paths_per_segment)
                            .unwrap_or_default();
                    if paths.is_empty() {
                        goals.push(CoverageGoal {
                            segment: segment.id,
                            kind: GoalKind::BlockExecution(region.entry_block),
                        });
                    } else {
                        for path in paths {
                            goals.push(CoverageGoal {
                                segment: segment.id,
                                kind: GoalKind::RegionPath(path),
                            });
                        }
                    }
                }
                SegmentKind::Block(block) => goals.push(CoverageGoal {
                    segment: segment.id,
                    kind: GoalKind::BlockExecution(block),
                }),
            }
        }
        goals
    }

    /// Runs both phases and returns the test suite.  The residual checker
    /// batch, if any, is answered by [`ModelChecker::check_many`].
    pub fn generate(
        &self,
        function: &Function,
        lowered: &LoweredFunction,
        plan: &PartitionPlan,
    ) -> TestSuite {
        self.generate_with_model_provider(function, lowered, plan, || None)
    }

    /// Like [`generate`](HybridGenerator::generate), but answering the
    /// residual checker batch through a previously prepared
    /// [`SharedCheckModel`] (the pipeline's cached artifact), skipping the
    /// per-batch optimisation, encoding and preparation.  `provider` is
    /// invoked only when a residual batch exists, so callers (the staged
    /// pipeline) never pay for a model that a fully heuristic-covered
    /// function would not use.  Suites are bit-identical with and without a
    /// model: a provider that returns `None`, or a batch the model does not
    /// cover, goes through the plain [`ModelChecker::check_many`].
    pub fn generate_with_model_provider(
        &self,
        function: &Function,
        lowered: &LoweredFunction,
        plan: &PartitionPlan,
        provider: impl FnOnce() -> Option<Arc<SharedCheckModel>>,
    ) -> TestSuite {
        let goals = self.goals(lowered, plan);
        let machine = Machine::new(&lowered.cfg, function, self.cost_model.clone());
        let mut status: Vec<Option<CoverageStatus>> = vec![None; goals.len()];

        // Phase 1: heuristic (genetic) search.
        {
            let _span = tmg_obs::span("testgen:heuristic");
            self.heuristic_phase(
                function,
                &machine,
                &goals,
                &mut status,
                Self::genetic_search,
            );
        }

        // Phase 2: every residual query of the function is answered through
        // one shared exploration, merged in goal order.
        let _span = tmg_obs::span("testgen:checker");
        let residual: Vec<usize> = (0..goals.len()).filter(|&i| status[i].is_none()).collect();
        if !residual.is_empty() {
            let shared = provider();
            let resolved = self.check_residual_batched(
                function,
                lowered,
                &machine,
                &goals,
                &residual,
                shared.as_deref(),
            );
            for (i, outcome) in resolved {
                status[i] = Some(outcome);
            }
        }
        into_suite(goals, status)
    }

    /// Runs `search` over the function's input domains, or the single run a
    /// function without inputs has.
    fn heuristic_phase(
        &self,
        function: &Function,
        machine: &Machine<'_>,
        goals: &[CoverageGoal],
        status: &mut [Option<CoverageStatus>],
        search: GeneticSearch,
    ) {
        let domains: Vec<(String, i64, i64)> = function
            .params
            .iter()
            .map(|p| {
                let (lo, hi) = p.range.unwrap_or_else(|| p.ty.value_range());
                (p.name.clone(), lo, hi)
            })
            .collect();
        if domains.is_empty() {
            // No inputs: a single run decides everything reachable.
            if let Ok(run) = machine.run(&InputVector::new(), &[]) {
                record_coverage(
                    &InputVector::new(),
                    &run,
                    goals,
                    status,
                    GeneratorKind::Heuristic,
                );
            }
            return;
        }
        search(self, machine, goals, &domains, status);
    }

    /// The genetic search of the optimised pipeline.  Individuals are dense
    /// genomes (one value per parameter, in parameter order) and every
    /// generation runs the target once per *never-seen* genome: a per-call
    /// memo keeps the goals each genome's run exercises, so elites and
    /// recombined duplicates cost one hash probe.  The RNG draws, fitness
    /// and first-coverer attribution are those of
    /// [`genetic_search_reference`](HybridGenerator::genetic_search_reference),
    /// so the suites are bit-identical.
    fn genetic_search(
        &self,
        machine: &Machine<'_>,
        goals: &[CoverageGoal],
        domains: &[(String, i64, i64)],
        status: &mut [Option<CoverageStatus>],
    ) {
        let config = &self.heuristic;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut matcher = GoalMatcher::new(goals);
        let to_vector = |genome: &[i64]| -> InputVector {
            domains
                .iter()
                .zip(genome)
                .map(|((name, _, _), value)| (name.clone(), *value))
                .collect()
        };
        // Genome -> ascending indices of the goals its run exercises, or
        // `None` when the run faults on the target.
        let mut memo: FxHashMap<Box<[i64]>, Option<Box<[usize]>>> = FxHashMap::default();
        let mut uncovered = status.iter().filter(|s| s.is_none()).count();
        let mut population: Vec<Box<[i64]>> = (0..config.population)
            .map(|_| {
                domains
                    .iter()
                    .map(|(_, lo, hi)| rng.gen_range(*lo..=*hi))
                    .collect()
            })
            .collect();
        let mut stall = 0usize;
        for _generation in 0..config.max_generations {
            for genome in &population {
                if memo.contains_key(&**genome) {
                    continue;
                }
                let exercised = machine.run(&to_vector(genome), &[]).ok().map(|run| {
                    (0..goals.len())
                        .filter(|&i| matcher.matches(i, &run))
                        .collect()
                });
                memo.insert(genome.clone(), exercised);
            }

            let mut new_coverage = false;
            // (fitness, population index), in population order.
            let mut scored: Vec<(usize, usize)> = Vec::with_capacity(population.len());
            for (k, genome) in population.iter().enumerate() {
                let Some(exercised) = &memo[&**genome] else {
                    scored.push((0, k));
                    continue;
                };
                let mut vector: Option<InputVector> = None;
                let mut newly = 0;
                for &i in exercised.iter() {
                    let slot = &mut status[i];
                    if slot.is_none() {
                        let vector = vector.get_or_insert_with(|| to_vector(genome));
                        *slot = Some(CoverageStatus::Covered {
                            vector: vector.clone(),
                            by: GeneratorKind::Heuristic,
                        });
                        newly += 1;
                    }
                }
                uncovered -= newly;
                new_coverage |= newly > 0;
                scored.push((exercised.len() + newly * 4, k));
            }
            if uncovered == 0 {
                return;
            }
            stall = if new_coverage { 0 } else { stall + 1 };
            if stall >= config.stall_generations {
                return;
            }
            // Next generation: elitism + tournament crossover + mutation.
            scored.sort_by_key(|(score, _)| std::cmp::Reverse(*score));
            let mut next: Vec<Box<[i64]>> = scored
                .iter()
                .take((config.population / 4).max(1))
                .map(|&(_, k)| population[k].clone())
                .collect();
            while next.len() < config.population {
                let pick = |rng: &mut StdRng| -> usize {
                    let a = rng.gen_range(0..scored.len());
                    let b = rng.gen_range(0..scored.len());
                    if scored[a].0 >= scored[b].0 {
                        scored[a].1
                    } else {
                        scored[b].1
                    }
                };
                let mother = pick(&mut rng);
                let father = pick(&mut rng);
                let child = domains
                    .iter()
                    .enumerate()
                    .map(|(p, (_, lo, hi))| {
                        let parent = if rng.gen_bool(0.5) { mother } else { father };
                        let inherited = population[parent][p];
                        if rng.gen_bool(config.mutation_rate) {
                            rng.gen_range(*lo..=*hi)
                        } else {
                            inherited
                        }
                    })
                    .collect();
                next.push(child);
            }
            population = next;
        }
    }

    /// The legacy genetic search over named input vectors, re-running every
    /// individual of every generation on the calling thread:
    /// [`reference_suite`]'s heuristic phase and the oracle of the memoised
    /// [`genetic_search`](HybridGenerator::genetic_search).
    fn genetic_search_reference(
        &self,
        machine: &Machine<'_>,
        goals: &[CoverageGoal],
        domains: &[(String, i64, i64)],
        status: &mut [Option<CoverageStatus>],
    ) {
        let mut rng = StdRng::seed_from_u64(self.heuristic.seed);
        let random_vector = |rng: &mut StdRng| -> InputVector {
            domains
                .iter()
                .map(|(name, lo, hi)| (name.clone(), rng.gen_range(*lo..=*hi)))
                .collect()
        };
        let mut population: Vec<InputVector> = (0..self.heuristic.population)
            .map(|_| random_vector(&mut rng))
            .collect();
        let mut stall = 0usize;
        for _generation in 0..self.heuristic.max_generations {
            let runs: Vec<Option<tmg_target::RunResult>> = population
                .iter()
                .map(|ind| machine.run(ind, &[]).ok())
                .collect();
            let mut new_coverage = false;
            let mut scored: Vec<(usize, InputVector)> = Vec::with_capacity(population.len());
            for (individual, run) in population.iter().zip(&runs) {
                let Some(run) = run else {
                    scored.push((0, individual.clone()));
                    continue;
                };
                // Fitness: how many goals (covered or not) this run exercises,
                // which rewards individuals that reach deep code.
                let newly =
                    record_coverage(individual, run, goals, status, GeneratorKind::Heuristic);
                let exercised = goals.iter().filter(|g| goal_matches(g, run)).count();
                new_coverage |= newly > 0;
                scored.push((exercised + newly * 4, individual.clone()));
            }
            if status.iter().all(|s| s.is_some()) {
                return;
            }
            stall = if new_coverage { 0 } else { stall + 1 };
            if stall >= self.heuristic.stall_generations {
                return;
            }
            // Next generation: elitism + tournament crossover + mutation.
            scored.sort_by_key(|(score, _)| std::cmp::Reverse(*score));
            let elite = scored
                .iter()
                .take((self.heuristic.population / 4).max(1))
                .map(|(_, v)| v.clone())
                .collect::<Vec<_>>();
            let mut next = elite.clone();
            while next.len() < self.heuristic.population {
                let pick = |rng: &mut StdRng| -> &InputVector {
                    let a = rng.gen_range(0..scored.len());
                    let b = rng.gen_range(0..scored.len());
                    if scored[a].0 >= scored[b].0 {
                        &scored[a].1
                    } else {
                        &scored[b].1
                    }
                };
                let mother = pick(&mut rng).clone();
                let father = pick(&mut rng).clone();
                let mut child = InputVector::new();
                for (name, lo, hi) in domains {
                    let from_mother = rng.gen_bool(0.5);
                    let inherited = if from_mother {
                        mother.get(name)
                    } else {
                        father.get(name)
                    }
                    .unwrap_or(*lo);
                    let value = if rng.gen_bool(self.heuristic.mutation_rate) {
                        rng.gen_range(*lo..=*hi)
                    } else {
                        inherited
                    };
                    child.set(name.clone(), value);
                }
                next.push(child);
            }
            population = next;
        }
    }

    /// One model-checker search per candidate query of `goal`:
    /// [`reference_suite`]'s checker phase.
    fn check_goal(
        &self,
        function: &Function,
        lowered: &LoweredFunction,
        machine: &Machine<'_>,
        goal: &CoverageGoal,
    ) -> CoverageStatus {
        let candidates = goal_candidate_queries(lowered, goal);
        if candidates.is_empty() {
            return CoverageStatus::Unknown;
        }
        let mut any_unknown = false;
        for query in candidates {
            let result = self.checker.find_test_data(function, &query);
            match resolve_candidate(goal, machine, &result.outcome) {
                CandidateVerdict::Covers(status) => return status,
                CandidateVerdict::Unknown => any_unknown = true,
                CandidateVerdict::Infeasible => {}
            }
        }
        if any_unknown {
            CoverageStatus::Unknown
        } else {
            CoverageStatus::Infeasible
        }
    }

    /// Resolves all residual goals of the function through one shared
    /// state-space exploration: every goal's candidate queries are collected
    /// into a single [`ModelChecker::check_many`] batch, then each goal folds
    /// its candidates' outcomes exactly as [`reference_suite`]'s per-goal
    /// search does.
    fn check_residual_batched(
        &self,
        function: &Function,
        lowered: &LoweredFunction,
        machine: &Machine<'_>,
        goals: &[CoverageGoal],
        residual: &[usize],
        shared: Option<&SharedCheckModel>,
    ) -> Vec<(usize, CoverageStatus)> {
        let mut queries: Vec<PathQuery> = Vec::new();
        // Per goal: the index range of its candidate queries in `queries`.
        let mut spans: Vec<(usize, usize, usize)> = Vec::with_capacity(residual.len());
        for &i in residual {
            let start = queries.len();
            queries.extend(goal_candidate_queries(lowered, &goals[i]));
            spans.push((i, start, queries.len()));
        }
        let results = match shared {
            Some(model) => self.checker.check_many_shared(function, model, &queries),
            None => self.checker.check_many(function, &queries),
        };
        spans
            .into_iter()
            .map(|(i, lo, hi)| {
                if lo == hi {
                    return (i, CoverageStatus::Unknown);
                }
                let mut any_unknown = false;
                for result in &results[lo..hi] {
                    match resolve_candidate(&goals[i], machine, &result.outcome) {
                        CandidateVerdict::Covers(status) => return (i, status),
                        CandidateVerdict::Unknown => any_unknown = true,
                        CandidateVerdict::Infeasible => {}
                    }
                }
                let status = if any_unknown {
                    CoverageStatus::Unknown
                } else {
                    CoverageStatus::Infeasible
                };
                (i, status)
            })
            .collect()
    }
}

/// One implementation of the genetic search: the memoised
/// [`HybridGenerator::genetic_search`] or its reference.
type GeneticSearch = fn(
    &HybridGenerator,
    &Machine<'_>,
    &[CoverageGoal],
    &[(String, i64, i64)],
    &mut [Option<CoverageStatus>],
);

/// The legacy sequential pipeline that [`HybridGenerator::generate`] must
/// match bit for bit: the genetic search re-runs every individual of every
/// generation and matches goals with [`PathSpec::matches_trace`], and each
/// residual goal gets its own model-checker search per candidate query.
/// Tests compare the production path against it; it is not a configuration
/// of the generator and keys no artifact.
pub fn reference_suite(
    generator: &HybridGenerator,
    function: &Function,
    lowered: &LoweredFunction,
    plan: &PartitionPlan,
) -> TestSuite {
    let goals = generator.goals(lowered, plan);
    let machine = Machine::new(&lowered.cfg, function, generator.cost_model.clone());
    let mut status: Vec<Option<CoverageStatus>> = vec![None; goals.len()];
    generator.heuristic_phase(
        function,
        &machine,
        &goals,
        &mut status,
        HybridGenerator::genetic_search_reference,
    );
    for (goal, slot) in goals.iter().zip(&mut status) {
        if slot.is_none() {
            *slot = Some(generator.check_goal(function, lowered, &machine, goal));
        }
    }
    into_suite(goals, status)
}

/// Pairs every goal with its outcome; a goal neither phase settled is
/// `Unknown`.
fn into_suite(goals: Vec<CoverageGoal>, status: Vec<Option<CoverageStatus>>) -> TestSuite {
    TestSuite {
        goals: goals
            .into_iter()
            .zip(status)
            .map(|(g, s)| (g, s.unwrap_or(CoverageStatus::Unknown)))
            .collect(),
    }
}

/// How one candidate query's outcome affects its goal.
enum CandidateVerdict {
    /// The goal is covered: stop looking at further candidates.
    Covers(CoverageStatus),
    /// Candidate proven infeasible: keep looking.
    Infeasible,
    /// Unresolved (budget, or a witness that fails target validation).
    Unknown,
}

/// Applies the witness-validation rule shared by the batched checker phase
/// and [`reference_suite`]'s per-goal one.
fn resolve_candidate(
    goal: &CoverageGoal,
    machine: &Machine<'_>,
    outcome: &tmg_tsys::CheckOutcome,
) -> CandidateVerdict {
    match outcome {
        tmg_tsys::CheckOutcome::Feasible { witness, .. } => {
            // Validate on the target: free locals chosen by the checker are
            // not controllable, so the replay is authoritative.
            if let Ok(run) = machine.run(witness, &[]) {
                if goal_matches(goal, &run) {
                    return CandidateVerdict::Covers(CoverageStatus::Covered {
                        vector: witness.clone(),
                        by: GeneratorKind::ModelChecker,
                    });
                }
            }
            CandidateVerdict::Unknown
        }
        tmg_tsys::CheckOutcome::Infeasible => CandidateVerdict::Infeasible,
        tmg_tsys::CheckOutcome::Unknown => CandidateVerdict::Unknown,
    }
}

/// The model-checking queries that can settle `goal`, in preference order.
/// Decision vectors are moved (not cloned) into the queries wherever the
/// candidate paths are freshly enumerated.
fn goal_candidate_queries(lowered: &LoweredFunction, goal: &CoverageGoal) -> Vec<PathQuery> {
    match &goal.kind {
        GoalKind::RegionPath(path) => vec![PathQuery::new(path.decisions.clone())],
        GoalKind::BlockExecution(block) => paths_to_block(lowered, *block, 64)
            .into_iter()
            .map(|p| PathQuery::new(p.decisions))
            .collect(),
    }
}

/// Whether a target run exercises the goal.
fn goal_matches(goal: &CoverageGoal, run: &tmg_target::RunResult) -> bool {
    match &goal.kind {
        GoalKind::RegionPath(path) => path.matches_trace(&run.branch_signature),
        GoalKind::BlockExecution(block) => run.executed_blocks.contains(block),
    }
}

/// Allocation-free goal matching for the heuristic phase's inner loop.
///
/// [`PathSpec::matches_trace`] rebuilds the relevant-statement set and the
/// restricted trace on every call; the genetic search matches every goal
/// against every never-seen individual's run, which made the matching —
/// not the target runs — the dominant cost on small functions.  The matcher
/// computes each goal's relevant set once as a dense bitmap over statement
/// ids (one array index per trace element instead of a hash probe) and
/// reuses one scratch buffer for the restricted trace, returning
/// bit-identical verdicts.
struct GoalMatcher<'g> {
    goals: &'g [CoverageGoal],
    /// Per region-path goal: dense membership bitmap of the statements its
    /// decisions mention (indexed by raw [`StmtId`]; out-of-range means
    /// irrelevant).
    relevant: Vec<Box<[bool]>>,
    /// Reused buffer for the relevant-restricted branch trace.
    scratch: Vec<(StmtId, BranchChoice)>,
}

impl<'g> GoalMatcher<'g> {
    fn new(goals: &'g [CoverageGoal]) -> GoalMatcher<'g> {
        let relevant = goals
            .iter()
            .map(|goal| match &goal.kind {
                GoalKind::RegionPath(path) => {
                    let max = path
                        .decisions
                        .iter()
                        .map(|(s, _)| s.0 as usize)
                        .max()
                        .unwrap_or(0);
                    let mut bits = vec![false; max + 1].into_boxed_slice();
                    for (s, _) in &path.decisions {
                        bits[s.0 as usize] = true;
                    }
                    bits
                }
                GoalKind::BlockExecution(_) => Box::default(),
            })
            .collect();
        GoalMatcher {
            goals,
            relevant,
            scratch: Vec::new(),
        }
    }

    /// Whether `run` exercises goal `i` (same verdict as [`goal_matches`]).
    fn matches(&mut self, i: usize, run: &tmg_target::RunResult) -> bool {
        match &self.goals[i].kind {
            GoalKind::BlockExecution(block) => run.executed_blocks.contains(block),
            GoalKind::RegionPath(path) => {
                if path.decisions.is_empty() {
                    return true;
                }
                let relevant = &self.relevant[i];
                self.scratch.clear();
                self.scratch.extend(
                    run.branch_signature
                        .iter()
                        .copied()
                        .filter(|(s, _)| relevant.get(s.0 as usize).copied().unwrap_or(false)),
                );
                if self.scratch.len() < path.decisions.len() {
                    return false;
                }
                self.scratch
                    .windows(path.decisions.len())
                    .any(|w| w == path.decisions.as_slice())
            }
        }
    }
}

/// Marks every goal exercised by `run` as covered; returns how many were new.
fn record_coverage(
    vector: &InputVector,
    run: &tmg_target::RunResult,
    goals: &[CoverageGoal],
    status: &mut [Option<CoverageStatus>],
    by: GeneratorKind,
) -> usize {
    let mut newly = 0;
    for (i, goal) in goals.iter().enumerate() {
        if status[i].is_some() {
            continue;
        }
        if goal_matches(goal, run) {
            status[i] = Some(CoverageStatus::Covered {
                vector: vector.clone(),
                by,
            });
            newly += 1;
        }
    }
    newly
}

/// Enumerates up to `cap` acyclic decision sequences from the function entry
/// to `target`, used to phrase block-execution goals as model-checking
/// queries.
fn paths_to_block(lowered: &LoweredFunction, target: BlockId, cap: usize) -> Vec<PathSpec> {
    let mut out = Vec::new();
    let mut current: Vec<(StmtId, BranchChoice)> = Vec::new();
    let mut visited: FxHashSet<BlockId> =
        FxHashSet::with_capacity_and_hasher(lowered.cfg.block_count(), Default::default());
    walk_to_block(
        lowered,
        lowered.cfg.entry(),
        target,
        &mut current,
        &mut visited,
        &mut out,
        cap,
    );
    out
}

fn walk_to_block(
    lowered: &LoweredFunction,
    block: BlockId,
    target: BlockId,
    current: &mut Vec<(StmtId, BranchChoice)>,
    visited: &mut FxHashSet<BlockId>,
    out: &mut Vec<PathSpec>,
    cap: usize,
) {
    if out.len() >= cap {
        return;
    }
    if block == target {
        out.push(PathSpec {
            decisions: current.clone(),
        });
        return;
    }
    if !visited.insert(block) {
        return;
    }
    match &lowered.cfg.block(block).terminator {
        Terminator::Jump(d) => walk_to_block(lowered, *d, target, current, visited, out, cap),
        Terminator::Return { exit } => {
            walk_to_block(lowered, *exit, target, current, visited, out, cap)
        }
        Terminator::Halt => {}
        Terminator::Branch {
            stmt,
            then_dest,
            else_dest,
            ..
        } => {
            let is_loop = lowered.cfg.loop_bound(*stmt).is_some();
            let then_choice = if is_loop {
                BranchChoice::LoopIterate
            } else {
                BranchChoice::Then
            };
            let else_choice = if is_loop {
                BranchChoice::LoopExit
            } else {
                BranchChoice::Else
            };
            current.push((*stmt, then_choice));
            walk_to_block(lowered, *then_dest, target, current, visited, out, cap);
            current.pop();
            current.push((*stmt, else_choice));
            walk_to_block(lowered, *else_dest, target, current, visited, out, cap);
            current.pop();
        }
        Terminator::Switch {
            stmt,
            arms,
            default_dest,
            ..
        } => {
            for (value, dest) in arms {
                current.push((*stmt, BranchChoice::Case(*value)));
                walk_to_block(lowered, *dest, target, current, visited, out, cap);
                current.pop();
            }
            current.push((*stmt, BranchChoice::Default));
            walk_to_block(lowered, *default_dest, target, current, visited, out, cap);
            current.pop();
        }
    }
    visited.remove(&block);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionPlan;
    use tmg_cfg::build_cfg;
    use tmg_minic::parse_function;

    fn suite_for(src: &str, bound: u128) -> (Function, LoweredFunction, TestSuite) {
        let f = parse_function(src).expect("parse");
        let lowered = build_cfg(&f);
        let plan = PartitionPlan::compute(&lowered, bound);
        let suite = HybridGenerator::new().generate(&f, &lowered, &plan);
        (f, lowered, suite)
    }

    #[test]
    fn covers_all_feasible_paths_of_a_simple_function() {
        let src = r#"
            void f(char a __range(0, 3), char b __range(0, 3)) {
                if (a > 1) { p1(); } else { p2(); }
                if (b == 0) { p3(); }
            }
        "#;
        let (_, _, suite) = suite_for(src, 10);
        assert_eq!(suite.goal_count(), 4);
        assert_eq!(suite.covered_count(), 4);
        assert_eq!(suite.infeasible_count(), 0);
        assert!(!suite.vectors().is_empty());
    }

    #[test]
    fn detects_infeasible_paths_via_the_model_checker() {
        // a > 2 and a < 1 cannot hold together.
        let src = r#"
            void f(char a __range(0, 4)) {
                if (a > 2) { p1(); }
                if (a < 1) { p2(); }
            }
        "#;
        let (_, _, suite) = suite_for(src, 10);
        assert_eq!(suite.goal_count(), 4);
        assert_eq!(suite.infeasible_count(), 1);
        assert_eq!(suite.covered_count(), 3);
        assert_eq!(suite.unknown_count(), 0);
    }

    #[test]
    fn block_goals_are_covered_at_bound_one() {
        let src = "void f(char a __range(0, 1)) { p1(); if (a) { p2(); } p3(); }";
        let (_, lowered, suite) = suite_for(src, 1);
        // One goal per measurable unit.
        assert_eq!(suite.goal_count(), lowered.cfg.measurable_units().len());
        assert_eq!(suite.covered_count(), suite.goal_count());
    }

    #[test]
    fn heuristic_covers_most_goals_and_checker_the_rest() {
        // The equality guard is a needle in the haystack for random search but
        // trivial for the model checker.
        let src = r#"
            void f(int a __range(0, 10000), char b __range(0, 3)) {
                if (b == 1) { common1(); }
                if (b > 1) { common2(); } else { common3(); }
                if (a == 7777) { rare(); }
            }
        "#;
        let (_, _, suite) = suite_for(src, 1000);
        assert_eq!(
            suite.covered_count() + suite.infeasible_count(),
            suite.goal_count()
        );
        assert!(suite.heuristic_covered() > 0);
        assert!(
            suite.checker_covered() > 0,
            "the a == 7777 paths need the model checker"
        );
        assert!(
            suite.heuristic_ratio() >= 0.5,
            "heuristic should carry at least half of the load: {}",
            suite.heuristic_ratio()
        );
    }

    #[test]
    fn generation_is_deterministic_for_a_fixed_seed() {
        let src = "void f(char a __range(0, 7)) { if (a > 3) { p1(); } else { p2(); } }";
        let f = parse_function(src).expect("parse");
        let lowered = build_cfg(&f);
        let plan = PartitionPlan::compute(&lowered, 10);
        let s1 = HybridGenerator::new().generate(&f, &lowered, &plan);
        let s2 = HybridGenerator::new().generate(&f, &lowered, &plan);
        assert_eq!(s1, s2);
    }

    #[test]
    fn batched_and_per_goal_checking_agree_exactly() {
        // Needles for the checker, an infeasible pair, and block goals at a
        // fine partition: every candidate-query shape goes through both the
        // batched phase 2 and the reference's per-goal searches.
        let sources = [
            (
                r#"
                void f(int a __range(0, 9000), char b __range(0, 3)) {
                    if (a == 4321) { rare(); }
                    if (b > 2) { p1(); }
                    if (b < 1) { p2(); }
                }
            "#,
                1000u128,
            ),
            (
                r#"
                void g(char a __range(0, 4)) {
                    if (a > 2) { x(); }
                    if (a < 1) { y(); }
                }
            "#,
                10,
            ),
            (
                "void h(char a __range(0, 1)) { p1(); if (a) { p2(); } p3(); }",
                1,
            ),
        ];
        let generator = HybridGenerator::new();
        for (src, bound) in sources {
            let f = parse_function(src).expect("parse");
            let lowered = build_cfg(&f);
            let plan = PartitionPlan::compute(&lowered, bound);
            let batched = generator.generate(&f, &lowered, &plan);
            let per_goal = reference_suite(&generator, &f, &lowered, &plan);
            assert_eq!(batched, per_goal, "suites diverge on {src}");
        }
    }

    #[test]
    fn shared_model_generation_is_bit_identical() {
        // The pipeline hands the generator a model prepared once with the
        // union of every branch statement; suites must match the plain path
        // exactly, including checker-resolved and infeasible goals.
        let src = r#"
            void f(int a __range(0, 9000), char b __range(0, 3)) {
                if (a == 4321) { rare(); }
                if (b > 2) { p1(); }
                if (b < 1) { p2(); }
            }
        "#;
        let f = parse_function(src).expect("parse");
        let lowered = build_cfg(&f);
        let union: std::collections::HashSet<tmg_minic::StmtId> = lowered
            .cfg
            .blocks()
            .iter()
            .filter_map(|blk| match &blk.terminator {
                Terminator::Branch { stmt, .. } | Terminator::Switch { stmt, .. } => Some(*stmt),
                _ => None,
            })
            .collect();
        let generator = HybridGenerator::new();
        let shared = Arc::new(
            generator
                .checker
                .prepare_shared(&f, union)
                .expect("shared model"),
        );
        for bound in [1u128, 1000] {
            let plan = PartitionPlan::compute(&lowered, bound);
            let provided = std::cell::Cell::new(0);
            let with_model = generator.generate_with_model_provider(&f, &lowered, &plan, || {
                provided.set(provided.get() + 1);
                Some(Arc::clone(&shared))
            });
            let plain = generator.generate(&f, &lowered, &plan);
            assert_eq!(with_model, plain, "bound {bound}");
            // The model is asked for exactly when a residual batch exists:
            // at bound 1000 the a == 4321 paths need the checker.
            let residual = plain.heuristic_covered() < plain.goal_count();
            assert_eq!(provided.get(), usize::from(residual), "bound {bound}");
            assert_eq!(residual, bound == 1000, "bound {bound}");
        }
    }

    #[test]
    fn paths_to_block_reach_nested_blocks() {
        let src = "void f(char a __range(0, 1)) { if (a) { inner(); } outer(); }";
        let f = parse_function(src).expect("parse");
        let lowered = build_cfg(&f);
        // Find the block containing `inner()`.
        let inner_block = lowered
            .cfg
            .blocks()
            .iter()
            .find(|b| {
                b.stmts.iter().any(
                    |s| matches!(s, tmg_minic::ast::Stmt::Call { callee, .. } if callee == "inner"),
                )
            })
            .expect("inner block")
            .id;
        let paths = paths_to_block(&lowered, inner_block, 16);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].decisions.len(), 1);
    }
}
