//! Machine-readable performance baseline (`BENCH_pr10.json`).
//!
//! Every PR that touches a hot path needs a number to beat.  This module
//! times the paper-reproduction workloads (Table 1, Table 2, Figure 2/3,
//! Section-4 case study) and — for each reworked hot path — records a
//! before/after comparison with the results verified identical.
//!
//! **Where the `before` side comes from.**  Through PR 3 the harness kept
//! the original clone-per-state checker engine (`SearchEngine::Baseline`)
//! in-tree purely to measure it.  With three PRs of `BENCH_*.json`
//! trajectory recorded, that engine is gone (ROADMAP-sanctioned); the
//! workloads it used to anchor now carry the wall times *recorded in
//! `BENCH_pr3.json`* as their fixed `before` reference
//! ([`RECORDED_BEFORE_MS`]), and their `identical_results` flag is checked
//! against the reference implementations still in-tree (the unbatched
//! sequential generator, per-query checking, the per-bound sweep).
//! Workloads whose pre-optimisation path still exists (`tradeoff_sweep`,
//! `checker_multiquery_heavy`, `pipeline_cached`, the service pair) keep
//! measuring both sides live.  Two workloads isolate the PR-5 tentpole:
//! `checker_sliced_vs_full` (one batch answered on the full model vs on its
//! cone-of-influence slice with full-model witness completion, outcomes
//! bit-identical) and `checker_shard_scaling` (the shard-triggering heavy
//! batch at one worker thread vs the machine's available parallelism,
//! resolutions bit-identical by the deterministic reduction — the speedup
//! column only moves on multi-core hosts).
//!
//! The JSON is written by hand (the vendored serde is derive-markers only);
//! the schema is documented in ROADMAP.md under "Open items".

use crate::{
    case_study, figure2_3, table1, table1_paper, table2_configurations, table2_query, Table1Row,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tmg_cfg::build_cfg;
use tmg_codegen::{generate_automotive, table2::table2_function, wiper_function, AutomotiveConfig};
use tmg_core::pipeline::{ArtifactStore, BoundArtifact, TieredStore};
use tmg_core::tradeoff::{log_spaced_bounds, sweep_path_bounds, sweep_path_bounds_reference};
use tmg_core::{AnalysisReport, GoalKind, HybridGenerator, PartitionPlan, WcetAnalysis};
use tmg_minic::parse_function;
use tmg_service::{codec, PersistentStore, Server};
use tmg_tsys::{CheckOutcome, ModelChecker, PathQuery};

/// Label recorded in the emitted JSON; the output file is `BENCH_<label>.json`.
pub const PR_LABEL: &str = "pr10";

/// `before_ms` wall times recorded in `BENCH_pr3.json` for the workloads
/// whose measured pre-optimisation implementation (the Baseline engine) was
/// dropped in this PR.  Same machine class (single-core container,
/// `--release`); kept verbatim so the speedup trajectory stays anchored to
/// the recorded floors instead of to code that no longer exists.
const RECORDED_BEFORE_MS: &[(&str, f64)] = &[
    ("table2_ablation", 1.547),
    ("testgen_wiper", 8.033),
    ("testgen_checker_heavy", 396.596),
    ("testgen_automotive", 14578.801),
    ("wcet_pipeline_wiper", 8.443),
];

fn recorded_before(name: &str) -> Duration {
    let (_, ms) = RECORDED_BEFORE_MS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no recorded floor for workload `{name}`"));
    Duration::from_secs_f64(ms / 1e3)
}

/// Before/after wall times of one reworked workload.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Workload label.
    pub name: String,
    /// Wall time of the pre-optimisation reference (measured live when the
    /// reference implementation is still in-tree, otherwise the wall time
    /// recorded in `BENCH_pr3.json`).
    pub before: Duration,
    /// Wall time on the optimised implementation.
    pub after: Duration,
    /// Whether the optimised implementation's results were verified
    /// identical against an independent reference.
    pub identical_results: bool,
}

impl Comparison {
    /// `before / after`.
    pub fn speedup(&self) -> f64 {
        self.before.as_secs_f64() / self.after.as_secs_f64().max(1e-9)
    }
}

/// The complete perf baseline.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Wall time of the Table-1 partitioning sweep.
    pub table1_wall: Duration,
    /// The reproduced Table-1 rows.
    pub table1_rows: Vec<Table1Row>,
    /// Whether the rows match the paper exactly.
    pub table1_matches_paper: bool,
    /// Wall time of the Figure-2/3 tradeoff sweep.
    pub figure2_3_wall: Duration,
    /// Blocks of the generated Figure-2/3 function.
    pub figure2_3_blocks: usize,
    /// Wall time of the Section-4 case study (full pipeline, optimised).
    pub case_study_wall: Duration,
    /// WCET bound of the case study in cycles.
    pub case_study_wcet: u64,
    /// Exhaustive end-to-end maximum in cycles.
    pub case_study_exhaustive: u64,
    /// Model-checker comparison on the Table-2 ablation.
    pub table2: Comparison,
    /// Test-data-generation comparisons (plus the service workloads).
    pub testgen: Vec<Comparison>,
    /// End-to-end WCET pipeline comparison (wiper case study).
    pub pipeline: Comparison,
    /// The socket loadtest measurement (mixed mix over loopback TCP).
    pub service_loadtest: ServiceLoadtest,
    /// The startup recovery-scan measurement (healthy populated cache).
    pub service_recovery: ServiceRecovery,
    /// The segment-tier measurement (compaction + group commit).
    pub segment_tier: SegmentTierReport,
    /// The quick chaos soak (kill/restart + wire faults), already asserted.
    pub chaos_soak: ChaosSoak,
    /// Happy-path cost of the resilient client over a raw socket.
    pub client_retry_overhead: ClientRetryOverhead,
}

/// What the TCP loadtest recorded.  Wall times are best-of-[`BEST_OF`] on a
/// shared (warming) cache root; throughput and p99 come from the fastest
/// full-pool run.  Single-core caveat: on a one-core host the full pool
/// degenerates to time slicing, so the 1-vs-N wall ratio is flat there —
/// the identity flag is the portable signal.
#[derive(Debug, Clone)]
pub struct ServiceLoadtest {
    /// Requests per run (excluding the control `stats`/`shutdown`).
    pub requests: u64,
    /// Best wall of the mixed run with a single scheduler worker.
    pub one_worker_wall: Duration,
    /// Best wall of the mixed run with the full worker pool.
    pub wall: Duration,
    /// Answered requests per second in the fastest full-pool run.
    pub throughput_rps: f64,
    /// Server-side `analyse` p99 (ms) reported by the final `stats`.
    pub p99_analyse_ms: f64,
    /// In-flight duplicates coalesced in the fastest full-pool run.
    pub deduplicated: u64,
    /// Deadline violations declined with a typed `cancelled`.
    pub expired: u64,
    /// Jobs shed by the dedicated zero-capacity saturation run.
    pub shed_under_saturation: u64,
    /// Whether 1-worker and full-pool runs answered byte-identically.
    pub identical_across_workers: bool,
}

/// What the recovery-scan measurement recorded.
#[derive(Debug, Clone)]
pub struct ServiceRecovery {
    /// `.tmga` frames the scan verified.
    pub frames: u64,
    /// Frames quarantined (must be 0 on a healthy cache).
    pub quarantined: u64,
    /// Best-of-[`BEST_OF`] wall of one full scan.
    pub wall: Duration,
    /// Post-scan warm analysis bit-identical with zero recomputation.
    pub healthy: bool,
}

/// What the segment-tier measurement recorded: one full compaction of a
/// half-dead segment, plus the group-commit and zero-copy counters from
/// the write/read phases that produced it.
#[derive(Debug, Clone)]
pub struct SegmentTierReport {
    /// Accounted dead bytes before the timed compaction.
    pub dead_bytes_before: u64,
    /// Accounted dead bytes after it.
    pub dead_bytes_after: u64,
    /// Compactions the timed store ran.
    pub compactions: u64,
    /// Live frames the compactor copied forward.
    pub compacted_frames: u64,
    /// Batched fsyncs issued by the writer (group commit).
    pub group_commit_batches: u64,
    /// The configured group-commit latency window in milliseconds.
    pub group_commit_window_ms: u64,
    /// Warm reads served from borrowed frame bytes during verification.
    pub zero_copy_hits: u64,
    /// Best-of-[`BEST_OF`] wall of one full compaction.
    pub wall: Duration,
    /// Every live key read bit-identically after compaction.
    pub identical: bool,
}

/// What the quick chaos soak recorded (every resilience assertion — zero
/// wrong answers, bounded recovery, no checker or measurement work after
/// the restart, every wire fault kind fired — already passed inside
/// [`crate::chaos`]).
#[derive(Debug, Clone)]
pub struct ChaosSoak {
    /// Slots driven across both phases.
    pub requests: u64,
    /// Server `kill -9` + restart cycles survived.
    pub kills: u64,
    /// Slowest kill-to-answered-probe recovery.
    pub max_recovery: Duration,
    /// Wire fault shots that fired on the final server.
    pub wire_faults_fired: u64,
    /// The restarted server's prepare-model, testgen, measure and bound
    /// computes (0 = no model-checker or measurement work).
    pub restart_computes: u64,
    /// Checker states the restarted server explored (0 when warm).
    pub restart_states_explored: u64,
    /// Soak answers verified bit-identical to the fault-free reference.
    pub verified_identical: u64,
    /// Wall clock of the whole soak.
    pub wall: Duration,
}

/// Happy-path overhead of `tmg-client` (retry/hedging/idempotency
/// machinery engaged but never firing) over a bare socket round trip,
/// both driving the same warm request against the same live server.
#[derive(Debug, Clone)]
pub struct ClientRetryOverhead {
    /// Warm round trips per side.
    pub requests: u64,
    /// Wall of the raw-socket loop.
    pub raw_wall: Duration,
    /// Wall of the `tmg-client` loop.
    pub client_wall: Duration,
    /// Answers byte-identical (modulo `id`) between the two sides.
    pub identical: bool,
}

impl ClientRetryOverhead {
    /// `client_wall / raw_wall` — the resilience layer's happy-path tax.
    pub fn overhead(&self) -> f64 {
        self.client_wall.as_secs_f64() / self.raw_wall.as_secs_f64().max(1e-9)
    }
}

impl PerfReport {
    /// Geometric mean of the hot-path speedups (Table 2 + test generation).
    pub fn hot_path_speedup(&self) -> f64 {
        let mut product = self.table2.speedup();
        let mut n = 1usize;
        for c in &self.testgen {
            product *= c.speedup();
            n += 1;
        }
        product.powf(1.0 / n as f64)
    }

    /// Whether every before/after pair produced identical results.
    pub fn all_results_identical(&self) -> bool {
        self.table2.identical_results
            && self.pipeline.identical_results
            && self.testgen.iter().all(|c| c.identical_results)
            && self.service_loadtest.identical_across_workers
            && self.service_recovery.healthy
            && self.segment_tier.identical
            && self.chaos_soak.restart_computes == 0
            && self.chaos_soak.restart_states_explored == 0
            && self.client_retry_overhead.identical
    }

    /// Serialises the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"tmg-bench-perf/v1\",");
        let _ = writeln!(out, "  \"pr\": \"{PR_LABEL}\",");
        let _ = writeln!(
            out,
            "  \"table1\": {{ \"wall_ms\": {:.3}, \"matches_paper\": {}, \"rows\": {} }},",
            ms(self.table1_wall),
            self.table1_matches_paper,
            rows_json(&self.table1_rows)
        );
        let _ = writeln!(
            out,
            "  \"figure2_3\": {{ \"wall_ms\": {:.3}, \"blocks\": {} }},",
            ms(self.figure2_3_wall),
            self.figure2_3_blocks
        );
        let _ = writeln!(
            out,
            "  \"case_study\": {{ \"wall_ms\": {:.3}, \"wcet_bound_cycles\": {}, \"exhaustive_max_cycles\": {} }},",
            ms(self.case_study_wall),
            self.case_study_wcet,
            self.case_study_exhaustive
        );
        let _ = writeln!(out, "  \"table2\": {},", comparison_json(&self.table2));
        let _ = writeln!(out, "  \"testgen\": [");
        for (i, c) in self.testgen.iter().enumerate() {
            let comma = if i + 1 < self.testgen.len() { "," } else { "" };
            let _ = writeln!(out, "    {}{}", comparison_json(c), comma);
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"pipeline\": {},", comparison_json(&self.pipeline));
        let lt = &self.service_loadtest;
        let _ = writeln!(
            out,
            "  \"service_loadtest\": {{ \"requests\": {}, \"one_worker_wall_ms\": {:.3}, \"wall_ms\": {:.3}, \"throughput_rps\": {:.1}, \"p99_analyse_ms\": {:.3}, \"deduplicated\": {}, \"expired\": {}, \"shed_under_saturation\": {}, \"identical_across_workers\": {} }},",
            lt.requests,
            ms(lt.one_worker_wall),
            ms(lt.wall),
            lt.throughput_rps,
            lt.p99_analyse_ms,
            lt.deduplicated,
            lt.expired,
            lt.shed_under_saturation,
            lt.identical_across_workers
        );
        let rec = &self.service_recovery;
        let _ = writeln!(
            out,
            "  \"service_recovery_scan\": {{ \"frames\": {}, \"quarantined\": {}, \"wall_ms\": {:.3}, \"healthy\": {} }},",
            rec.frames,
            rec.quarantined,
            ms(rec.wall),
            rec.healthy
        );
        let seg = &self.segment_tier;
        let _ = writeln!(
            out,
            "  \"segment_tier\": {{ \"dead_bytes_before\": {}, \"dead_bytes_after\": {}, \"compactions\": {}, \"compacted_frames\": {}, \"group_commit_batches\": {}, \"group_commit_window_ms\": {}, \"zero_copy_hits\": {}, \"compaction_wall_ms\": {:.3}, \"identical\": {} }},",
            seg.dead_bytes_before,
            seg.dead_bytes_after,
            seg.compactions,
            seg.compacted_frames,
            seg.group_commit_batches,
            seg.group_commit_window_ms,
            seg.zero_copy_hits,
            ms(seg.wall),
            seg.identical
        );
        let soak = &self.chaos_soak;
        let _ = writeln!(
            out,
            "  \"chaos_soak\": {{ \"requests\": {}, \"kills\": {}, \"max_recovery_ms\": {:.3}, \"wire_faults_fired\": {}, \"restart_computes\": {}, \"restart_states_explored\": {}, \"verified_identical\": {}, \"wall_ms\": {:.3} }},",
            soak.requests,
            soak.kills,
            ms(soak.max_recovery),
            soak.wire_faults_fired,
            soak.restart_computes,
            soak.restart_states_explored,
            soak.verified_identical,
            ms(soak.wall)
        );
        let cro = &self.client_retry_overhead;
        let _ = writeln!(
            out,
            "  \"client_retry_overhead\": {{ \"requests\": {}, \"raw_wall_ms\": {:.3}, \"client_wall_ms\": {:.3}, \"overhead\": {:.3}, \"identical\": {} }},",
            cro.requests,
            ms(cro.raw_wall),
            ms(cro.client_wall),
            cro.overhead(),
            cro.identical
        );
        let _ = writeln!(
            out,
            "  \"hot_path_speedup_geomean\": {:.3},",
            self.hot_path_speedup()
        );
        let _ = writeln!(
            out,
            "  \"all_results_identical\": {}",
            self.all_results_identical()
        );
        let _ = writeln!(out, "}}");
        out
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn rows_json(rows: &[Table1Row]) -> String {
    let cells: Vec<String> = rows
        .iter()
        .map(|(b, ip, m)| format!("[{b}, {ip}, {m}]"))
        .collect();
    format!("[{}]", cells.join(", "))
}

fn comparison_json(c: &Comparison) -> String {
    format!(
        "{{ \"name\": \"{}\", \"before_ms\": {:.3}, \"after_ms\": {:.3}, \"speedup\": {:.3}, \"identical_results\": {} }}",
        c.name,
        ms(c.before),
        ms(c.after),
        c.speedup(),
        c.identical_results
    )
}

fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed(), value)
}

/// Samples per measured comparison side: the recorded wall time is the
/// fastest of these (warm caches, minimal noise).  Raised from 3 to 5 when
/// the recorded-floor regime started (a fixed floor leaves no second chance
/// to a noisy sample), and from 5 to 7 in PR 5: the recording host shares
/// cores with other tenants and drifts by double-digit percentages between
/// phases, so the minimum needs more draws to reflect the code instead of
/// the noise floor.
const BEST_OF: usize = 7;

/// Runs a workload `runs` times and returns the fastest wall time with the
/// last result (warm caches, minimal noise).
fn best_of<T>(runs: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best = Duration::MAX;
    let mut value = None;
    for _ in 0..runs.max(1) {
        let (wall, v) = timed(&mut f);
        best = best.min(wall);
        value = Some(v);
    }
    (best, value.expect("at least one run"))
}

/// A synthetic module whose goals need the model checker (narrow equality
/// guards random search cannot hit), biasing the test-generation workload
/// toward the checker hot path, like the paper's industrial modules.
fn checker_heavy_function() -> tmg_minic::Function {
    parse_function(
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
    .expect("checker-heavy module parses")
}

/// One test-generation workload: the optimised generator timed against the
/// recorded floor, with the suite verified identical to the in-tree
/// reference pipeline (per-goal sequential checking, allocation-per-call
/// matching).
fn compare_testgen(name: &str, function: &tmg_minic::Function, bound: u128) -> Comparison {
    let lowered = build_cfg(function);
    let plan = PartitionPlan::compute(&lowered, bound);
    let after_gen = HybridGenerator::new();
    let (after, suite_after) = best_of(BEST_OF, || after_gen.generate(function, &lowered, &plan));
    // The reference runs once (unmeasured): it only anchors result identity.
    let reference = HybridGenerator::new()
        .sequential()
        .unbatched()
        .generate(function, &lowered, &plan);
    Comparison {
        name: name.to_owned(),
        before: recorded_before(name),
        after,
        identical_results: reference == suite_after,
    }
}

/// Isolated multi-query measurement: one function's coverage-query batch
/// answered per query on the arena engine (PR 1's optimised path) vs through
/// one shared exploration (`ModelChecker::check_many`).
fn compare_multiquery(
    name: &str,
    function: &tmg_minic::Function,
    bound: u128,
    cap: usize,
) -> Comparison {
    let lowered = build_cfg(function);
    let plan = PartitionPlan::compute(&lowered, bound);
    let queries: Vec<PathQuery> = HybridGenerator::new()
        .goals(&lowered, &plan)
        .into_iter()
        .filter_map(|g| match g.kind {
            GoalKind::RegionPath(path) => Some(PathQuery::new(path.decisions)),
            GoalKind::BlockExecution(_) => None,
        })
        .take(cap)
        .collect();
    let checker = ModelChecker::new();
    let (before, single) = best_of(BEST_OF, || {
        queries
            .iter()
            .map(|q| checker.find_test_data(function, q).outcome)
            .collect::<Vec<_>>()
    });
    let (after, batched) = best_of(BEST_OF, || {
        checker
            .check_many(function, &queries)
            .into_iter()
            .map(|r| r.outcome)
            .collect::<Vec<_>>()
    });
    Comparison {
        name: name.to_owned(),
        before,
        after,
        identical_results: single == batched,
    }
}

/// A module shaped like the slicing sweet spot: a narrow needle chain over
/// `key` interleaved with wide-domain branches over auxiliary inputs no
/// query mentions.  The batch queries only the `key` decisions, so the
/// cone-of-influence slice drops the auxiliary branches — and with them the
/// `21 × 21 × 6`-way domain splits the full model pays on every run.
fn sliced_probe_function() -> tmg_minic::Function {
    parse_function(
        r#"
        void sliced_probe(int key __range(0, 2000), int aux0 __range(0, 20), int aux1 __range(0, 20), char sel __range(0, 5)) {
            if (key == 777) { hit0(); }
            if (aux0 > 10) { a0(); } else { b0(); }
            if (key == 1500) { hit1(); }
            if (aux1 > 4) { a1(); } else { b1(); }
            switch (sel) { case 0: s0(); break; case 3: s3(); break; default: sd(); break; }
            if (key < 0) { never(); }
        }
    "#,
    )
    .expect("sliced-probe module parses")
}

/// The slicing workload: a batch whose statement union covers only the
/// `key` branches of [`sliced_probe_function`], answered by the same
/// checker with slicing disabled (full model, the pre-tentpole behaviour)
/// versus enabled (cone-of-influence slice + full-model witness
/// completion).  Every outcome — verdict, witness vector, step count —
/// must be bit-identical.
fn compare_sliced_vs_full() -> Comparison {
    use tmg_minic::ast::Stmt;
    let function = sliced_probe_function();
    let mut key_branches = Vec::new();
    function.for_each_stmt(&mut |s| {
        if let Stmt::If { id, cond, .. } = s {
            if cond.referenced_vars().contains(&"key") {
                key_branches.push(*id);
            }
        }
    });
    assert_eq!(key_branches.len(), 3, "three key branches expected");
    let mut queries = Vec::new();
    use tmg_minic::interp::BranchChoice;
    for c0 in [BranchChoice::Then, BranchChoice::Else] {
        for c1 in [BranchChoice::Then, BranchChoice::Else] {
            queries.push(PathQuery::new(vec![
                (key_branches[0], c0),
                (key_branches[1], c1),
                (key_branches[2], BranchChoice::Else),
            ]));
        }
    }
    let full = ModelChecker::new().with_slicing(false);
    let sliced = ModelChecker::new();
    let (before, full_outcomes) = best_of(BEST_OF, || {
        full.check_many(&function, &queries)
            .into_iter()
            .map(|r| r.outcome)
            .collect::<Vec<_>>()
    });
    let (after, sliced_outcomes) = best_of(BEST_OF, || {
        sliced
            .check_many(&function, &queries)
            .into_iter()
            .map(|r| r.outcome)
            .collect::<Vec<_>>()
    });
    Comparison {
        name: "checker_sliced_vs_full".to_owned(),
        before,
        after,
        identical_results: full_outcomes == sliced_outcomes,
    }
}

/// The thread-scaling workload: the shard-triggering heavy batch explored
/// with one worker versus the machine's available parallelism, results
/// bit-identical by the deterministic reduction.  On a single-core host the
/// two runs execute the same shard schedule and the ratio hovers around
/// 1.0×; the speedup column is the point of the workload on multi-core
/// hosts.
fn compare_shard_scaling() -> Comparison {
    use tmg_tsys::{encode_function, MultiQueryEngine, Optimisations, PreparedModel};
    let function = checker_heavy_function();
    let lowered = build_cfg(&function);
    let paths = tmg_cfg::enumerate_region_paths(&lowered.cfg, lowered.regions.root(), 256)
        .expect("heavy paths enumerate");
    let queries: Vec<PathQuery> = paths
        .into_iter()
        .map(|p| PathQuery::new(p.decisions))
        .collect();
    let checker = ModelChecker::new();
    let model = encode_function(&function, &Optimisations::all().encode_options());
    let prepared = PreparedModel::new(&model);
    // Two workers minimum even on a single-core host, so the recorded
    // bit-identity evidence genuinely exercises a multi-worker schedule
    // (the wall-clock speedup column is still what multi-core hosts see).
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .max(2);
    let collect = |engine: &MultiQueryEngine| {
        (0..queries.len())
            .map(|q| engine.outcome(q))
            .collect::<Vec<_>>()
    };
    let (before, sequential) = best_of(BEST_OF, || {
        collect(&MultiQueryEngine::explore_with_threads(
            &checker, &prepared, &queries, 1,
        ))
    });
    let (after, parallel) = best_of(BEST_OF, || {
        collect(&MultiQueryEngine::explore_with_threads(
            &checker, &prepared, &queries, threads,
        ))
    });
    Comparison {
        name: "checker_shard_scaling".to_owned(),
        before,
        after,
        identical_results: sequential == parallel && sequential.iter().all(|o| o.is_some()),
    }
}

/// The Figure-2/3 sweep workload: the pre-optimisation per-bound
/// `PartitionPlan::compute` sweep versus the incremental region-tree event
/// walk over the shared `PathCounts` artifact, on a TargetLink-sized
/// generated function.  Points must be bit-identical.
fn compare_tradeoff_sweep(target_blocks: usize) -> Comparison {
    let generated = generate_automotive(&AutomotiveConfig {
        target_blocks,
        ..AutomotiveConfig::default()
    });
    let lowered = build_cfg(&generated.function);
    let bounds = log_spaced_bounds(1_000_000);
    let (before, reference) = best_of(BEST_OF, || sweep_path_bounds_reference(&lowered, &bounds));
    let (after, incremental) = best_of(BEST_OF, || sweep_path_bounds(&lowered, &bounds));
    Comparison {
        name: "tradeoff_sweep".to_owned(),
        before,
        after,
        identical_results: reference == incremental,
    }
}

/// The repeated-analysis workload: `runs` full pipeline invocations on the
/// unchanged wiper controller, storeless (every invocation recomputes every
/// stage) versus through one shared [`ArtifactStore`] (the first invocation
/// computes, the rest are served from the bound artifact).  Reports must be
/// bit-identical run for run.
fn compare_pipeline_cached(runs: usize) -> Comparison {
    let wiper = wiper_function();
    let bound = crate::wiper_case_bound();
    let storeless = WcetAnalysis::new(bound);
    let (before, plain_reports) = best_of(BEST_OF, || {
        (0..runs)
            .map(|_| storeless.analyse(&wiper).expect("analysis"))
            .collect::<Vec<_>>()
    });
    let (after, cached_reports) = best_of(BEST_OF, || {
        // A fresh store per repetition batch, so every timed sample pays
        // exactly one cold run plus `runs - 1` cached ones.
        let analysis = WcetAnalysis::new(bound).with_store(Arc::new(ArtifactStore::new()));
        (0..runs)
            .map(|_| analysis.analyse(&wiper).expect("analysis"))
            .collect::<Vec<_>>()
    });
    Comparison {
        name: "pipeline_cached".to_owned(),
        before,
        after,
        identical_results: plain_reports == cached_reports,
    }
}

/// The PR-8 tentpole workload: re-analysing a 50-function call-DAG module
/// after a localised one-function edit.  `before` = a from-scratch module
/// composition of the edited module on a fresh store (what re-analysis cost
/// without summaries); `after` = the differential path — a store primed
/// with the pristine module (untimed), then one `analyse_module` of the
/// edited module, which may recompute only the edit's reverse-call-graph
/// cone.  `identical_results` requires the differential report to be
/// bit-identical to the from-scratch one *and* the store counters to prove
/// the confinement: exactly one re-lower (the edited function) and exactly
/// `cone` re-measures per differential run, nothing outside.
fn compare_module_edit_differential() -> Comparison {
    use tmg_cfg::CallGraph;
    use tmg_codegen::{generate_module, ModuleGenConfig};
    use tmg_core::{ModuleAnalysis, Stage};

    let module = generate_module(&ModuleGenConfig::bench());
    let graph = CallGraph::build(&module.program);
    // A localised edit: the largest dirty cone still within an eighth of
    // the module (a 50-function module edit typically dirties a handful).
    let (edit, cone) = (0..graph.len())
        .map(|i| (i, graph.dirty_cone(&[i])))
        .filter(|(_, cone)| cone.len() <= graph.len() / 8)
        .max_by_key(|(_, cone)| cone.len())
        .expect("the seeded module has a localised edit target");
    let edited = module.edited(edit);

    let (before, scratch) = best_of(BEST_OF, || {
        ModuleAnalysis::new(4)
            .with_store(Arc::new(ArtifactStore::new()))
            .analyse_module(&edited.program)
            .expect("from-scratch module analysis")
    });

    let mut after = Duration::MAX;
    let mut confined = true;
    let mut differential = None;
    for _ in 0..BEST_OF {
        // Untimed priming: the pristine module fills the summary store, as
        // it would be after the previous successful analysis run.
        let store = Arc::new(ArtifactStore::new());
        let analysis = ModuleAnalysis::new(4).with_store(store.clone());
        analysis
            .analyse_module(&module.program)
            .expect("prime the store");
        let primed = store.store_stats();
        let (wall, diff) = timed(|| {
            analysis
                .analyse_module(&edited.program)
                .expect("differential module analysis")
        });
        after = after.min(wall);
        let warm = store.store_stats();
        let delta = |stage: Stage| warm.stage(stage).misses - primed.stage(stage).misses;
        confined &= diff.recomputed().len() == cone.len()
            && diff.summaries_reused == graph.len() - cone.len()
            && delta(Stage::Lower) == 1
            && delta(Stage::Measure) == cone.len() as u64;
        differential = Some(diff);
    }
    let differential = differential.expect("at least one differential run");
    Comparison {
        name: "module_edit_differential".to_owned(),
        before,
        after,
        identical_results: confined
            && differential.reports == scratch.reports
            && differential.module_key == scratch.module_key
            && differential.roots == scratch.roots,
    }
}

/// A scratch cache directory under the system temp dir, wiped on entry.
fn scratch_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tmg-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The tentpole workload: a *fresh process's* analysis of an unchanged
/// function served from the on-disk artifact cache.  `before` = cold run
/// (empty cache directory, every stage computed and persisted); `after` =
/// warm run through a brand-new [`PersistentStore`] over the populated
/// directory (no shared memory with the writer — the in-test equivalent of
/// a second process).  The disk-served bound must be bit-identical, with
/// zero stage recomputation.
fn compare_service_cold_vs_warm() -> Comparison {
    let wiper = wiper_function();
    let bound = crate::wiper_case_bound();
    let root = scratch_cache("cold-warm");
    let (before, cold_report) = best_of(BEST_OF, || {
        let _ = std::fs::remove_dir_all(&root);
        let store = Arc::new(PersistentStore::open(&root).expect("open cache"));
        WcetAnalysis::new(bound)
            .with_store(store)
            .analyse(&wiper)
            .expect("cold analysis")
    });
    // The last cold sample left the directory populated.  The zero-
    // recomputation check reads the counter snapshot *after* the timed
    // region: `stats()` walks the disk index, which is not part of serving
    // the answer.
    let (after, warm) = best_of(BEST_OF, || {
        let store = Arc::new(PersistentStore::open(&root).expect("open cache"));
        let report = WcetAnalysis::new(bound)
            .with_store(store.clone())
            .analyse(&wiper)
            .expect("warm analysis");
        (report, store)
    });
    let (warm_report, warm_store) = warm;
    let warm_computes = warm_store.stats().total_computes();
    let _ = std::fs::remove_dir_all(&root);
    Comparison {
        name: "service_cold_vs_warm".to_owned(),
        before,
        after,
        identical_results: cold_report == warm_report && warm_computes == 0,
    }
}

/// A deterministic synthetic bound artifact for the storage-tier workloads
/// (content-addressed: one key, one payload, forever).
fn synthetic_report(i: u64) -> AnalysisReport {
    AnalysisReport {
        function: format!("bench_fn_{i}"),
        path_bound: 1 + u128::from(i % 7),
        segments: 3 + (i % 5) as usize,
        instrumentation_points: 6 + (i % 4) as usize,
        measurements: 20 + u128::from(i) * 3,
        goals: 7 + (i % 3) as usize,
        heuristic_covered: 4,
        checker_covered: 2,
        infeasible: 1,
        unknown: 0,
        measurement_runs: 2 + (i % 4) as usize,
        wcet_bound: 750 + i * 29,
        exhaustive_max: if i.is_multiple_of(2) {
            Some(700 + i * 29)
        } else {
            None
        },
    }
}

/// The zero-copy warm-read workload: `before` = the retired one-file-per-
/// artifact disk layout (one `open` + `read` + owned frame decode per warm
/// hit, reconstructed inline), `after` = the segment log (one shared fd,
/// `pread` into a pooled arena buffer, borrowed `BoundView` decode).  Both
/// sides serve the same 224 synthetic bound artifacts and every payload is
/// verified bit-identical outside the timed region.
fn compare_warm_read_zero_copy() -> Comparison {
    const ARTIFACTS: u64 = 224;
    // Before: one frame file per artifact, the PR 5/6 layout.
    let files_root = scratch_cache("zerocopy-files");
    std::fs::create_dir_all(&files_root).expect("create file-index dir");
    let frame_path = |i: u64| files_root.join(format!("{i:016x}.tmga"));
    for i in 0..ARTIFACTS {
        let artifact = BoundArtifact {
            key: i,
            report: synthetic_report(i),
        };
        std::fs::write(frame_path(i), codec::encode_bound(&artifact)).expect("write frame");
    }
    let (before, file_sum) = best_of(BEST_OF, || {
        (0..ARTIFACTS)
            .map(|i| {
                let bytes = std::fs::read(frame_path(i)).expect("read frame");
                codec::decode_bound(&bytes, i)
                    .expect("decode")
                    .report
                    .wcet_bound
            })
            .sum::<u64>()
    });

    // After: the same artifacts in the segment log, served zero-copy.
    let root = scratch_cache("zerocopy-log");
    let store = Arc::new(PersistentStore::open(&root).expect("open cache"));
    for i in 0..ARTIFACTS {
        store.put_bound(i, synthetic_report(i));
    }
    store.flush();
    let (after, log_sum) = best_of(BEST_OF, || {
        (0..ARTIFACTS)
            .map(|i| store.with_bound_view(i, |view| view.expect("warm hit").wcet_bound))
            .sum::<u64>()
    });
    let payloads_identical = (0..ARTIFACTS).all(|i| {
        store.with_bound_view(i, |view| view.map(|v| v.to_report())) == Some(synthetic_report(i))
    });
    let _ = std::fs::remove_dir_all(&files_root);
    let _ = std::fs::remove_dir_all(&root);
    Comparison {
        name: "warm_read_zero_copy".to_owned(),
        before,
        after,
        identical_results: file_sum == log_sum && payloads_identical,
    }
}

/// The shared-cache workload: a second OS process pointed at the same
/// `TMG_CACHE_DIR` must start fully warm.  `before` = the cold first
/// process (computes and persists every stage for four functions);
/// `after` = a brand-new store over the same directory — no shared memory,
/// the in-bench equivalent of the second process — analysing the same four.
/// `identical_results` demands bit-identical reports *and* a zero warm
/// recompute counter.
fn compare_multi_process_warm_start() -> Comparison {
    let sources = [
        "void m0(char a __range(0, 4)) { if (a > 2) { x(); } else { y(); } if (a == 0) { z(); } }",
        "void m1(char b __range(0, 5)) { if (b > 3) { p(); } if (b < 1) { q(); } }",
        "void m2(char c __range(0, 3), bool g) { if (g) { if (c > 1) { r(); } } else { s(); } }",
        "void m3(char d __range(0, 6)) { if (d > 4) { hi(); } else { if (d > 1) { mid(); } else { lo(); } } }",
    ];
    let functions: Vec<tmg_minic::Function> = sources
        .iter()
        .map(|s| parse_function(s).expect("parse"))
        .collect();
    let root = scratch_cache("multiproc");
    let (before, cold_reports) = best_of(BEST_OF, || {
        let _ = std::fs::remove_dir_all(&root);
        let store = Arc::new(PersistentStore::open(&root).expect("open cache"));
        functions
            .iter()
            .map(|f| {
                WcetAnalysis::new(4)
                    .with_store(store.clone())
                    .analyse(f)
                    .expect("cold analysis")
            })
            .collect::<Vec<_>>()
    });
    let (after, warm) = best_of(BEST_OF, || {
        let store = Arc::new(PersistentStore::open(&root).expect("open cache"));
        let reports = functions
            .iter()
            .map(|f| {
                WcetAnalysis::new(4)
                    .with_store(store.clone())
                    .analyse(f)
                    .expect("warm analysis")
            })
            .collect::<Vec<_>>();
        (reports, store)
    });
    let (warm_reports, warm_store) = warm;
    let warm_computes = warm_store.stats().total_computes();
    let _ = std::fs::remove_dir_all(&root);
    Comparison {
        name: "multi_process_warm_start".to_owned(),
        before,
        after,
        identical_results: cold_reports == warm_reports && warm_computes == 0,
    }
}

/// The compaction workload: two generations of 64 artifacts land in one
/// default-sized segment (the second generation kills the first), a fresh
/// store force-compacts the half-dead segment, and every live key is read
/// back bit-identically through the zero-copy route.  State is rebuilt
/// outside the timed region for each of the [`BEST_OF`] runs; the writer's
/// group-commit counters are captured after its final `flush`.
fn measure_segment_tier() -> SegmentTierReport {
    const KEYS: u64 = 64;
    let root = scratch_cache("segment-tier");
    let mut best = Duration::MAX;
    let mut group_commit_batches = 0;
    let mut group_commit_window_ms = 0;
    let mut dead_bytes_before = 0;
    let mut dead_bytes_after = 0;
    let mut compactions = 0;
    let mut compacted_frames = 0;
    let mut zero_copy_hits = 0;
    let mut identical = true;
    for _ in 0..BEST_OF {
        // Untimed seeding: rebuild the half-dead segment from scratch.
        let _ = std::fs::remove_dir_all(&root);
        let writer = PersistentStore::open(&root).expect("open cache");
        for _ in 0..2 {
            for i in 0..KEYS {
                writer.put_bound(3000 + i, synthetic_report(i));
            }
        }
        writer.flush();
        let seg = writer.stats().segment;
        group_commit_batches = seg.group_commit_batches;
        group_commit_window_ms = seg.group_commit_window_ms;
        drop(writer);

        let store = PersistentStore::open(&root).expect("open cache");
        dead_bytes_before = store.stats().segment.dead_bytes;
        let start = Instant::now();
        store.compact();
        best = best.min(start.elapsed());
        let seg = store.stats().segment;
        dead_bytes_after = seg.dead_bytes;
        compactions = seg.compactions;
        compacted_frames = seg.compacted_frames;
        identical &= (0..KEYS).all(|i| {
            store.with_bound_view(3000 + i, |view| view.map(|v| v.to_report()))
                == Some(synthetic_report(i))
        });
        zero_copy_hits = store.stats().segment.zero_copy_hits;
    }
    let _ = std::fs::remove_dir_all(&root);
    SegmentTierReport {
        dead_bytes_before,
        dead_bytes_after,
        compactions,
        compacted_frames,
        group_commit_batches,
        group_commit_window_ms,
        zero_copy_hits,
        wall: best,
        identical: identical && dead_bytes_after < dead_bytes_before && compactions >= 1,
    }
}

/// The scheduler workload: a duplicate-heavy `analyse` burst through the
/// JSON-lines server — one scheduler worker versus a full pool (in-flight
/// duplicates deduplicate either way).  Responses must be identical
/// line-for-line.
fn compare_service_concurrent_burst() -> Comparison {
    use std::io::Cursor;
    let sources = [
        "void c0(char a __range(0, 4)) { if (a > 2) { x(); } else { y(); } if (a == 0) { z(); } }",
        "void c1(char b __range(0, 5)) { if (b > 3) { p(); } if (b < 1) { q(); } }",
        "void c2(char c __range(0, 3), bool g) { if (g) { if (c > 1) { r(); } } else { s(); } }",
        "void c3(char d __range(0, 6)) { switch (d) { case 0: a0(); break; case 3: a3(); break; default: ad(); break; } }",
    ];
    let mut script = String::new();
    let mut id = 0;
    // One shared pinned trace_id: dedup waiters echo the leader's trace,
    // so distinct per-request ids would make the response lines depend on
    // which duplicate won the race to be scheduled first.
    for _ in 0..3 {
        for (i, src) in sources.iter().enumerate() {
            id += 1;
            let _ = writeln!(
                script,
                "{{\"id\": {id}, \"trace_id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": {}}}",
                src.replace('"', "\\\""),
                [2u32, 4][i % 2]
            );
        }
    }
    let _ = writeln!(
        script,
        "{{\"id\": {}, \"trace_id\": 1, \"op\": \"shutdown\"}}",
        id + 1
    );

    let run_burst = |workers: usize, tag: &str| {
        let root = scratch_cache(tag);
        let store = Arc::new(PersistentStore::open(&root).expect("open cache"));
        let mut out = Vec::new();
        let summary = Server::new(store)
            .with_workers(workers)
            .serve(Cursor::new(script.clone()), &mut out)
            .expect("serve burst");
        let _ = std::fs::remove_dir_all(&root);
        let mut lines: Vec<String> = String::from_utf8(out)
            .expect("utf-8 responses")
            .lines()
            .map(str::to_owned)
            .collect();
        lines.sort();
        (summary, lines)
    };
    // The burst is a ~2 ms workload whose two sides differ by well under
    // the run-to-run noise of thread spawning and tmpfs traffic; double the
    // sampling so the recorded minimum reflects the scheduler, not the
    // noise floor.
    let (before, (_, sequential)) = best_of(BEST_OF * 2, || run_burst(1, "burst-seq"));
    let (after, (summary, concurrent)) = best_of(BEST_OF * 2, || run_burst(8, "burst-par"));
    Comparison {
        name: "service_concurrent_burst".to_owned(),
        before,
        after,
        identical_results: sequential == concurrent && summary.responses == id as u64 + 1,
    }
}

/// The fault-tolerance tentpole workload, measured over real loopback
/// sockets: the deterministic mixed request stream (duplicate-heavy,
/// cache-hostile, deadline-violating) through [`Server::serve_tcp`].  Each
/// sample is a complete session — bind, worker pool, pipelined clients,
/// drain, flush.  All samples share one cache root, so the first 1-worker
/// sample pays the cold computes and everything after measures the
/// scheduler and transport, not the checker.
fn measure_service_loadtest() -> ServiceLoadtest {
    use crate::loadtest::{loadtest, saturate, LoadtestConfig};
    const REQUESTS: usize = 400;
    let root = scratch_cache("loadtest");
    let config = |workers: usize, connections: usize| LoadtestConfig {
        requests: REQUESTS,
        connections,
        workers,
        cache_root: Some(root.clone()),
        ..LoadtestConfig::default()
    };
    let best = |workers: usize, connections: usize| {
        let mut best: Option<crate::LoadtestReport> = None;
        for _ in 0..BEST_OF {
            let run = loadtest(&config(workers, connections));
            if best.as_ref().is_none_or(|b| run.wall < b.wall) {
                best = Some(run);
            }
        }
        best.expect("at least one run")
    };
    let one = best(1, 2);
    let many = best(8, 4);
    let shed = saturate(60);
    let _ = std::fs::remove_dir_all(&root);
    ServiceLoadtest {
        requests: REQUESTS as u64,
        one_worker_wall: one.wall,
        wall: many.wall,
        throughput_rps: many.throughput_rps,
        p99_analyse_ms: many.p99_analyse_ms,
        deduplicated: many.summary.deduplicated,
        expired: many.summary.expired,
        shed_under_saturation: shed.summary.shed,
        identical_across_workers: one.response_lines == many.response_lines,
    }
}

/// Startup recovery-scan cost on a healthy populated cache: what every
/// process pays before serving when crash recovery is on.  `healthy` also
/// re-checks the post-scan warm path (bit-identical, zero recomputation).
fn measure_service_recovery() -> ServiceRecovery {
    let wiper = wiper_function();
    let bound = crate::wiper_case_bound();
    let root = scratch_cache("recovery");
    let cold = {
        let store = Arc::new(PersistentStore::open(&root).expect("open cache"));
        WcetAnalysis::new(bound)
            .with_store(store)
            .analyse(&wiper)
            .expect("populate cache")
    };
    let (wall, report) = best_of(BEST_OF, || {
        PersistentStore::open(&root)
            .expect("reopen cache")
            .recovery_scan()
    });
    let fresh = Arc::new(PersistentStore::open(&root).expect("reopen cache"));
    fresh.recovery_scan();
    let warm = WcetAnalysis::new(bound)
        .with_store(fresh.clone())
        .analyse(&wiper)
        .expect("post-scan warm analysis");
    let healthy = report.quarantined == 0 && warm == cold && fresh.stats().total_computes() == 0;
    let _ = std::fs::remove_dir_all(&root);
    ServiceRecovery {
        frames: report.scanned,
        quarantined: report.quarantined,
        wall,
        healthy,
    }
}

/// The observability tax: one full cold WCET pipeline (fresh in-memory
/// store every run, so every stage actually executes and records its
/// span) with span tracing *enabled* (`before`) vs *disabled* (`after`).
/// The speedup column is therefore the live cost of tracing on the
/// instrumented hot path, and `identical_results` asserts both the
/// report equality and that the traced side really recorded spans.  The
/// disabled side is also the configuration every other workload in this
/// baseline runs under, so the pre-instrumentation floors recorded in
/// `BENCH_pr8.json` double as the regression guard for the
/// tracing-disabled overhead (contract: <= 2%).
fn compare_obs_overhead() -> Comparison {
    let function = wiper_function();
    let bound = crate::wiper_case_bound();
    let run = || {
        let store: Arc<dyn TieredStore> = Arc::new(ArtifactStore::new());
        WcetAnalysis::new(bound)
            .with_store(store)
            .analyse(&function)
            .expect("obs-overhead analysis")
    };
    tmg_obs::set_enabled(true);
    let (before, traced_report) = best_of(BEST_OF, run);
    let traced_spans = tmg_obs::drain_all().len();
    tmg_obs::set_enabled(false);
    let (after, plain_report) = best_of(BEST_OF, run);
    Comparison {
        name: "obs_overhead".to_owned(),
        before,
        after,
        identical_results: traced_report == plain_report && traced_spans > 0,
    }
}

/// Runs the quick chaos soak (every assertion lives in [`crate::chaos`])
/// and summarises it for the baseline JSON.  Spawns this binary as the
/// server process, so it only runs from `reproduce -- bench`.
fn measure_chaos_soak() -> ChaosSoak {
    let report = crate::chaos(&crate::ChaosConfig::quick());
    ChaosSoak {
        requests: report.requests,
        kills: report.kills,
        max_recovery: report.max_recovery(),
        wire_faults_fired: report.wire_faults_fired(),
        restart_computes: report.restart_computes,
        restart_states_explored: report.restart_states_explored,
        verified_identical: report.verified_identical,
        wall: report.wall,
    }
}

/// Times the same warm request over a bare socket and through
/// `tmg-client` against one live in-process server: the retry/hedging
/// layer's happy-path cost, with the answers checked identical.
fn measure_client_retry_overhead() -> ClientRetryOverhead {
    use std::io::{BufRead, BufReader, Write as _};
    const REQUESTS: usize = 200;
    let root = std::env::temp_dir().join(format!("tmg-client-overhead-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Arc::new(PersistentStore::open(&root).expect("open cache"));
    let server = Server::new(store);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    // The trace_id is pinned: the server would otherwise echo a fresh
    // auto-assigned id per request, and the client's bit-identity check
    // (rightly) flags repeat answers for one body that differ at all.
    let body = format!(
        "\"trace_id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": 2",
        tmg_service::json::escape(crate::loadtest::HOT_SOURCE)
    );

    let (raw_wall, client_wall, identical) = std::thread::scope(|scope| {
        let server = &server;
        let handle = scope.spawn(move || server.serve_tcp(listener).expect("serve_tcp"));

        // Raw side: one socket, synchronous round trips.  The first
        // request warms the cache and is excluded from both sides.
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut writer = stream;
        let mut raw_answer = String::new();
        let mut round_trip = |id: usize| {
            writer
                .write_all(format!("{{\"id\": {id}, {body}}}\n").as_bytes())
                .expect("send request");
            let mut line = String::new();
            assert!(reader.read_line(&mut line).expect("read response") > 0);
            line.trim_end().to_owned()
        };
        round_trip(1_000_000);
        let (raw_wall, _) = timed(|| {
            for i in 0..REQUESTS {
                raw_answer = round_trip(1_000_001 + i);
            }
        });

        // Client side: the full resilience stack on its happy path.
        let client = tmg_client::Client::new(addr, tmg_client::ClientConfig::default());
        let mut client_answer = String::new();
        let (client_wall, _) = timed(|| {
            for _ in 0..REQUESTS {
                client_answer = client.request(&body).expect("client request").normalized();
            }
        });
        let stats = client.stats();
        assert_eq!(stats.retries, 0, "the warm happy path must never retry");
        assert_eq!(stats.connects, 1, "the connection must be reused");

        writer
            .write_all(b"{\"id\": 2000000, \"op\": \"shutdown\"}\n")
            .expect("send shutdown");
        handle.join().expect("server thread");
        let identical = tmg_client::normalize(&raw_answer) == client_answer;
        (raw_wall, client_wall, identical)
    });
    let _ = std::fs::remove_dir_all(&root);
    ClientRetryOverhead {
        requests: REQUESTS as u64,
        raw_wall,
        client_wall,
        identical,
    }
}

/// Produces the complete perf baseline (the payload of
/// `BENCH_<`[`PR_LABEL`]`>.json`).
pub fn perf_report() -> PerfReport {
    // Table 1: partitioning sweep.
    let (table1_wall, table1_rows) = best_of(BEST_OF, table1);
    let table1_matches_paper = table1_rows == table1_paper();

    // Figure 2/3: tradeoff sweep on a mid-sized generated function (the full
    // 850-block sweep runs in the criterion benches; the baseline keeps the
    // JSON fast to regenerate).
    let (figure2_3_wall, (stats, _)) = timed(|| figure2_3(400));

    // Table 2: the model-checker ablation.  The Baseline engine it used to
    // measure is gone; the recorded floor anchors `before`, and result
    // stability is checked by running the ablation twice.
    let function = table2_function();
    let query = table2_query(&function);
    let configurations = table2_configurations();
    let run_table2 = || {
        configurations
            .iter()
            .map(|(_, opts)| {
                let checker = ModelChecker::with_optimisations(*opts);
                let result = checker.find_test_data(&function, &query);
                (
                    matches!(result.outcome, CheckOutcome::Feasible { .. }),
                    result.outcome.witness().cloned(),
                )
            })
            .collect::<Vec<_>>()
    };
    let (t2_after, verdicts) = best_of(BEST_OF, run_table2);
    let verdicts_again = run_table2();
    let table2 = Comparison {
        name: "table2_ablation".to_owned(),
        before: recorded_before("table2_ablation"),
        after: t2_after,
        identical_results: verdicts == verdicts_again && verdicts.iter().all(|(f, _)| *f),
    };

    // Test generation: the Section-3 hybrid generator on the case study and
    // on a checker-heavy synthetic module, plus the service workloads.
    let wiper = wiper_function();
    let wiper_bound = crate::wiper_case_bound();
    let heavy = checker_heavy_function();
    let automotive = generate_automotive(&AutomotiveConfig::small(11)).function;
    let mut testgen = vec![
        compare_testgen("testgen_wiper", &wiper, wiper_bound),
        compare_testgen("testgen_checker_heavy", &heavy, 4096),
        compare_testgen("testgen_automotive", &automotive, 64),
        compare_multiquery("checker_multiquery_heavy", &heavy, 4096, 64),
        compare_sliced_vs_full(),
        compare_shard_scaling(),
        compare_tradeoff_sweep(400),
        compare_pipeline_cached(5),
        compare_module_edit_differential(),
        compare_obs_overhead(),
    ];

    // End-to-end pipeline: the optimised path timed against the recorded
    // floor, report verified against the in-tree reference generator.
    // Measured *before* the service workloads: the burst comparison spawns
    // scheduler threads and touches the filesystem, which skews a
    // milliseconds-scale wall-clock sample taken right after it.
    let mut reference_analysis = WcetAnalysis::new(wiper_bound);
    reference_analysis.generator = HybridGenerator::new().sequential().unbatched();
    let after_analysis = WcetAnalysis::new(wiper_bound);
    let (pipe_after, report_after) = best_of(BEST_OF, || {
        after_analysis.analyse(&wiper).expect("analysis")
    });
    let report_reference = reference_analysis.analyse(&wiper).expect("analysis");
    let pipeline = Comparison {
        name: "wcet_pipeline_wiper".to_owned(),
        before: recorded_before("wcet_pipeline_wiper"),
        after: pipe_after,
        identical_results: report_reference == report_after,
    };

    // The service workloads run last (see above).
    testgen.push(compare_service_cold_vs_warm());
    testgen.push(compare_warm_read_zero_copy());
    testgen.push(compare_multi_process_warm_start());
    testgen.push(compare_service_concurrent_burst());
    let service_loadtest = measure_service_loadtest();
    let service_recovery = measure_service_recovery();
    let segment_tier = measure_segment_tier();
    let chaos_soak = measure_chaos_soak();
    let client_retry_overhead = measure_client_retry_overhead();

    // Case study summary (optimised path).
    let (case_study_wall, case) = timed(case_study);

    PerfReport {
        table1_wall,
        table1_rows,
        table1_matches_paper,
        figure2_3_wall,
        figure2_3_blocks: stats.blocks,
        case_study_wall,
        case_study_wcet: case.wcet_bound,
        case_study_exhaustive: case.exhaustive_max,
        table2,
        testgen,
        pipeline,
        service_loadtest,
        service_recovery,
        segment_tier,
        chaos_soak,
        client_retry_overhead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_heavy_module_parses_and_partitions() {
        let f = checker_heavy_function();
        let lowered = build_cfg(&f);
        assert!(lowered.regions.root().path_count > 8);
    }

    #[test]
    fn every_recorded_floor_is_positive_and_named_once() {
        let mut names: Vec<&str> = RECORDED_BEFORE_MS.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), RECORDED_BEFORE_MS.len());
        for (name, _) in RECORDED_BEFORE_MS {
            assert!(recorded_before(name) > Duration::ZERO);
        }
    }

    #[test]
    fn tradeoff_sweep_comparison_is_identical_on_a_small_function() {
        let c = compare_tradeoff_sweep(60);
        assert!(
            c.identical_results,
            "incremental sweep must be bit-identical"
        );
        assert_eq!(c.name, "tradeoff_sweep");
    }

    #[test]
    fn module_edit_differential_comparison_is_identical() {
        let c = compare_module_edit_differential();
        assert!(
            c.identical_results,
            "the differential report must be bit-identical to from-scratch \
             with recomputation confined to the dirty cone"
        );
        assert_eq!(c.name, "module_edit_differential");
    }

    #[test]
    fn pipeline_cached_comparison_is_identical() {
        // Result identity is the hard requirement; the speedup itself is
        // recorded by `reproduce bench` (a wall-clock assert here would
        // flake on loaded CI runners).
        let c = compare_pipeline_cached(2);
        assert!(c.identical_results, "cached reports must be bit-identical");
    }

    #[test]
    fn sliced_vs_full_comparison_is_identical() {
        let c = compare_sliced_vs_full();
        assert!(
            c.identical_results,
            "sliced and full-model outcomes must be bit-identical"
        );
        assert_eq!(c.name, "checker_sliced_vs_full");
    }

    #[test]
    fn shard_scaling_comparison_is_identical() {
        let c = compare_shard_scaling();
        assert!(
            c.identical_results,
            "1-thread and N-thread resolutions must be bit-identical"
        );
        assert_eq!(c.name, "checker_shard_scaling");
    }

    #[test]
    fn service_cold_vs_warm_comparison_is_identical() {
        let c = compare_service_cold_vs_warm();
        assert!(
            c.identical_results,
            "the disk-served bound must be bit-identical with zero recomputation"
        );
        assert_eq!(c.name, "service_cold_vs_warm");
    }

    #[test]
    fn service_concurrent_burst_responses_are_identical() {
        let c = compare_service_concurrent_burst();
        assert!(
            c.identical_results,
            "concurrent and sequential scheduling must produce identical responses"
        );
    }

    #[test]
    fn warm_read_zero_copy_comparison_is_identical() {
        let c = compare_warm_read_zero_copy();
        assert!(
            c.identical_results,
            "the segment log must serve every artifact bit-identically"
        );
        assert_eq!(c.name, "warm_read_zero_copy");
    }

    #[test]
    fn multi_process_warm_start_comparison_is_identical() {
        let c = compare_multi_process_warm_start();
        assert!(
            c.identical_results,
            "a second store over the same directory must start fully warm"
        );
        assert_eq!(c.name, "multi_process_warm_start");
    }

    #[test]
    fn segment_tier_measurement_reclaims_dead_bytes() {
        let seg = measure_segment_tier();
        assert!(
            seg.identical,
            "compaction must keep every live key: {seg:?}"
        );
        assert!(seg.dead_bytes_after < seg.dead_bytes_before);
        assert!(seg.compacted_frames >= 1);
        assert!(seg.group_commit_window_ms >= 1);
    }

    #[test]
    fn recovery_scan_measurement_is_healthy_on_a_clean_cache() {
        let rec = measure_service_recovery();
        assert_eq!(
            rec.frames, 2,
            "one frame per persisted stage: testgen and bound"
        );
        assert_eq!(rec.quarantined, 0);
        assert!(rec.healthy, "post-scan warm path must be bit-identical");
    }

    #[test]
    fn comparison_speedup_is_the_ratio() {
        let c = Comparison {
            name: "x".into(),
            before: Duration::from_millis(300),
            after: Duration::from_millis(100),
            identical_results: true,
        };
        assert!((c.speedup() - 3.0).abs() < 0.01);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = PerfReport {
            table1_wall: Duration::from_millis(1),
            table1_rows: vec![(1, 22, 11)],
            table1_matches_paper: true,
            figure2_3_wall: Duration::from_millis(2),
            figure2_3_blocks: 400,
            case_study_wall: Duration::from_millis(3),
            case_study_wcet: 274,
            case_study_exhaustive: 250,
            table2: Comparison {
                name: "t2".into(),
                before: Duration::from_millis(10),
                after: Duration::from_millis(5),
                identical_results: true,
            },
            testgen: vec![Comparison {
                name: "tg".into(),
                before: Duration::from_millis(10),
                after: Duration::from_millis(4),
                identical_results: true,
            }],
            pipeline: Comparison {
                name: "p".into(),
                before: Duration::from_millis(10),
                after: Duration::from_millis(9),
                identical_results: true,
            },
            service_loadtest: ServiceLoadtest {
                requests: 400,
                one_worker_wall: Duration::from_millis(40),
                wall: Duration::from_millis(20),
                throughput_rps: 20_000.0,
                p99_analyse_ms: 2.048,
                deduplicated: 10,
                expired: 57,
                shed_under_saturation: 40,
                identical_across_workers: true,
            },
            service_recovery: ServiceRecovery {
                frames: 6,
                quarantined: 0,
                wall: Duration::from_millis(1),
                healthy: true,
            },
            segment_tier: SegmentTierReport {
                dead_bytes_before: 4096,
                dead_bytes_after: 0,
                compactions: 1,
                compacted_frames: 64,
                group_commit_batches: 2,
                group_commit_window_ms: 4,
                zero_copy_hits: 64,
                wall: Duration::from_millis(1),
                identical: true,
            },
            chaos_soak: ChaosSoak {
                requests: 120,
                kills: 1,
                max_recovery: Duration::from_millis(72),
                wire_faults_fired: 8,
                restart_computes: 0,
                restart_states_explored: 0,
                verified_identical: 51,
                wall: Duration::from_millis(260),
            },
            client_retry_overhead: ClientRetryOverhead {
                requests: 200,
                raw_wall: Duration::from_millis(10),
                client_wall: Duration::from_millis(12),
                identical: true,
            },
        }
        .to_json();
        assert!(report.contains("\"schema\": \"tmg-bench-perf/v1\""));
        assert!(report.contains("\"speedup\""));
        assert!(report.contains("\"service_loadtest\""));
        assert!(report.contains("\"service_recovery_scan\""));
        assert!(report.contains("\"segment_tier\""));
        assert!(report.contains("\"group_commit_window_ms\""));
        assert!(report.contains("\"chaos_soak\""));
        assert!(report.contains("\"client_retry_overhead\""));
        assert!(report.contains("\"max_recovery_ms\""));
        assert_eq!(
            report.matches('{').count(),
            report.matches('}').count(),
            "balanced braces"
        );
    }
}
