//! End-to-end and per-layer benchmark of the WCET analysis stack.
//!
//! ```text
//! perfbench --workload <cold_analyse|module_edit|warm_serve> --seed <n>
//!           --seconds <s> --trace <0|1> --work-dir <dir> [--expected-dir <dir>]
//!           [--write-expected]
//! ```
//!
//! Each workload sets itself up several times (the median is `setup_s`),
//! then measures for `--seconds` seconds and checks every answer.  With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it prints
//! the per-layer metrics, taken from the benchmark's own timing wrapper
//! (`cold_analyse`, `module_edit`: timed chunks alternate between the plain
//! store and the wrapper) or from direct calls of the layers
//! (`warm_serve`).  The last line of
//! standard output is one JSON object; a wrong answer ends the process with
//! a non-zero code and no result line.  `perfbench/README.md` records why each
//! workload exists and which end-to-end metric each layer metric moves.

mod cold;
mod measure;
mod module_edit;
mod timed_store;
mod warm;

use measure::Phase;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tmg_core::Stage;
use tmg_service::PersistentStore;

/// Seed whose first answers are pinned by the files under `expected/`.
const DEFAULT_SEED: u64 = 1;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// Ops per block: enough that 10 samples lie beyond each block's p99.
const BLOCK_OPS: usize = 1000;

/// The run's parameters.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Fresh, private directory of this run (removed at exit).
    pub work: PathBuf,
}

impl Ctx {
    /// A fresh cache directory under the run's work directory.
    pub fn fresh_dir(&self, tag: &str) -> PathBuf {
        let dir = self.work.join(tag);
        assert!(!dir.exists(), "cache directory {} reused", dir.display());
        dir
    }
}

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a workload reports.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Answer lines of the first ops, compared against `expected/` on the
    /// default seed.
    pub answers: Vec<String>,
}

/// Every per-layer metric, with its unit.  Each workload reports all of
/// them; a layer a workload does not exercise reads 0.
pub const LAYER_METRICS: [(&str, &str); 27] = [
    ("core.lower.ms_per_op", "ms"),
    ("core.partition.ms_per_op", "ms"),
    ("core.testgen.ms_per_op", "ms"),
    ("core.measure.ms_per_op", "ms"),
    ("core.bound.ms_per_op", "ms"),
    ("tsys.states_per_op", "count"),
    ("tsys.shards_per_op", "count"),
    ("tsys.visited_hit_ratio", "ratio"),
    ("core.testgen.checker_goal_share", "ratio"),
    ("target.runs_per_op", "count"),
    ("service.segment.appends_per_op", "count"),
    ("service.segment.bytes_per_op", "B"),
    ("service.segment.fsyncs_per_op", "count"),
    ("service.store.computes_per_op", "count"),
    ("minic.parse_ms_per_op", "ms"),
    ("core.module.residual_ms_per_op", "ms"),
    ("core.module.summaries_computed_per_op", "count"),
    ("core.module.summaries_reused_per_op", "count"),
    ("service.store.memory_hit_ratio", "ratio"),
    ("service.segment.read_us", "us"),
    ("service.json.parse_us", "us"),
    ("minic.parse_us", "us"),
    ("service.transport_us", "us"),
    ("service.segment.zero_copy_hits_per_op", "count"),
    ("bench.tracing_overhead_pct", "%"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// The per-layer metric set of one traced run, every entry starting at 0.
#[derive(Debug)]
pub struct Layers(Vec<Metric>);

impl Default for Layers {
    fn default() -> Layers {
        Layers(
            LAYER_METRICS
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    unit,
                    value: 0.0,
                })
                .collect(),
        )
    }
}

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("unknown layer metric {name}"));
        slot.value = value;
    }

    /// Sets the counters every workload derives from the store and the
    /// checker over `ops` measured ops.
    pub fn set_store_and_checker(
        &mut self,
        ops: usize,
        store: &StoreDelta,
        checker: &tmg_tsys::CheckerMetrics,
    ) {
        let per_op = |n: u64| n as f64 / ops as f64;
        self.set("tsys.states_per_op", per_op(checker.STATES_EXPLORED));
        self.set("tsys.shards_per_op", per_op(checker.SHARDS_EXPLORED));
        self.set(
            "tsys.visited_hit_ratio",
            ratio(
                checker.VISITED_HITS,
                checker.VISITED_HITS + checker.VISITED_INSERTIONS,
            ),
        );
        self.set("service.segment.appends_per_op", per_op(store.appends));
        self.set("service.segment.bytes_per_op", per_op(store.appended_bytes));
        self.set("service.segment.fsyncs_per_op", per_op(store.fsyncs));
        self.set(
            "service.store.computes_per_op",
            per_op(store.total_computes()),
        );
        self.set(
            "service.store.memory_hit_ratio",
            ratio(store.memory_hits, store.memory_hits + store.memory_misses),
        );
        self.set(
            "service.segment.zero_copy_hits_per_op",
            per_op(store.zero_copy_hits),
        );
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        self.0
    }

    /// Records the tracing overhead: the traced chunks' median latency over
    /// the untraced chunks', minus one.
    pub fn set_overhead(&mut self, untraced: &Phase, traced: &Phase) {
        let overhead = traced.wall_percentile_ms(0.5) / untraced.wall_percentile_ms(0.5) - 1.0;
        self.set("bench.tracing_overhead_pct", overhead * 100.0);
    }

    /// Records the untraced chunks' p90 and p99 latency, medians over
    /// blocks as in [`end_to_end`].  They have no bound: on the workloads
    /// that write, the latency tail follows how fast the host's disk
    /// fsyncs.
    pub fn set_tail(&mut self, untraced: &Phase) {
        for (name, q) in [("latency_p90_ms", 0.9), ("latency_p99_ms", 0.99)] {
            self.set(
                name,
                block_median(untraced, |b| measure::percentile_ms(b.wall_ns, q)),
            );
        }
    }
}

/// `num / den`, 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Store counters of a [`PersistentStore`] at one instant, or their growth
/// over a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreDelta {
    pub appends: u64,
    pub appended_bytes: u64,
    pub fsyncs: u64,
    pub computes: [u64; 6],
    pub zero_copy_hits: u64,
    pub memory_hits: u64,
    pub memory_misses: u64,
    pub disk_hits: u64,
    pub disk_evictions: u64,
}

impl StoreDelta {
    pub fn of(store: &PersistentStore) -> StoreDelta {
        let stats = store.stats();
        StoreDelta {
            appends: stats.disk.iter().map(|s| s.stores).sum(),
            appended_bytes: stats.disk_bytes,
            fsyncs: stats.segment.group_commit_batches,
            computes: std::array::from_fn(|i| stats.disk[i].computes),
            zero_copy_hits: stats.segment.zero_copy_hits,
            memory_hits: stats.memory.total_hits(),
            memory_misses: stats.memory.total_misses(),
            disk_hits: stats.total_disk_hits(),
            disk_evictions: stats.disk.iter().map(|s| s.evictions).sum(),
        }
    }

    /// Growth since `earlier`.  `appended_bytes` is the growth of the
    /// accounted segment bytes, which equals the bytes appended as long as
    /// nothing was evicted or compacted (the workloads assert that).
    pub fn since(&self, earlier: &StoreDelta) -> StoreDelta {
        StoreDelta {
            appends: self.appends - earlier.appends,
            appended_bytes: self.appended_bytes - earlier.appended_bytes,
            fsyncs: self.fsyncs - earlier.fsyncs,
            computes: std::array::from_fn(|i| self.computes[i] - earlier.computes[i]),
            zero_copy_hits: self.zero_copy_hits - earlier.zero_copy_hits,
            memory_hits: self.memory_hits - earlier.memory_hits,
            memory_misses: self.memory_misses - earlier.memory_misses,
            disk_hits: self.disk_hits - earlier.disk_hits,
            disk_evictions: self.disk_evictions - earlier.disk_evictions,
        }
    }

    pub fn computes_of(&self, stage: Stage) -> u64 {
        self.computes[stage.index()]
    }

    pub fn total_computes(&self) -> u64 {
        self.computes.iter().sum()
    }
}

/// Checker counters grown since `earlier`.
pub fn checker_since(earlier: &tmg_tsys::CheckerMetrics) -> tmg_tsys::CheckerMetrics {
    let now = tmg_tsys::metrics::snapshot();
    tmg_tsys::CheckerMetrics {
        STATES_EXPLORED: now.STATES_EXPLORED - earlier.STATES_EXPLORED,
        SHARDS_EXPLORED: now.SHARDS_EXPLORED - earlier.SHARDS_EXPLORED,
        VISITED_HITS: now.VISITED_HITS - earlier.VISITED_HITS,
        VISITED_INSERTIONS: now.VISITED_INSERTIONS - earlier.VISITED_INSERTIONS,
        ..now
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the median wall time in
/// seconds with the last set-up's state (earlier ones are handed to
/// `discard` as soon as they are timed).
pub fn repeated_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for round in 0..SETUP_REPEATS {
        let start = Instant::now();
        let state = setup(round)?;
        times.push(start.elapsed().as_secs_f64());
        if let Some(previous) = last.replace(state) {
            discard(previous)?;
        }
    }
    let state = last.expect("at least one set-up round");
    Ok((measure::median(&times), state))
}

/// Median over the phase's blocks of at least [`BLOCK_OPS`] consecutive ops
/// of one per-block figure, so that a burst of outside interference moves
/// one block, not the result.
fn block_median(phase: &Phase, figure: impl Fn(&measure::Block<'_>) -> f64) -> f64 {
    let values: Vec<f64> = phase.blocks(BLOCK_OPS).iter().map(figure).collect();
    measure::median(&values)
}

/// The end-to-end metrics of one untraced run.  `moved_bytes` is the
/// segment-log traffic of the measured ops.
///
/// Throughput and p50 latency are on the wall clock, CPU per op on the
/// process CPU clock (`getrusage`, every thread), and each is the median
/// over blocks.  The latency tail is reported by the traced run
/// ([`Layers::set_tail`]).
pub fn end_to_end(
    setup_s: f64,
    phase: &Phase,
    moved_bytes: u64,
    failed: u64,
) -> Result<Vec<Metric>, String> {
    let ops = phase.ops();
    if ops < BLOCK_OPS {
        return Err(format!(
            "only {ops} ops measured: a block needs at least {BLOCK_OPS}; raise --seconds"
        ));
    }
    let usage = measure::usage();
    let metric = |name, unit, value| Metric { name, unit, value };
    Ok(vec![
        metric("setup_s", "s", setup_s),
        metric(
            "throughput_ops_s",
            "1/s",
            block_median(phase, |b| b.ops() as f64 / b.busy.as_secs_f64()),
        ),
        metric(
            "latency_p50_ms",
            "ms",
            block_median(phase, |b| measure::percentile_ms(b.wall_ns, 0.5)),
        ),
        metric(
            "cpu_ms_per_op",
            "ms",
            block_median(phase, |b| b.cpu.as_secs_f64() * 1e3 / b.ops() as f64),
        ),
        metric("peak_rss_mb", "MB", usage.max_rss_kib as f64 / 1024.0),
        metric("disk_bytes_per_op", "B", moved_bytes as f64 / ops as f64),
        metric(
            "answered_ratio",
            "ratio",
            (ops as u64 - failed) as f64 / ops as f64,
        ),
    ])
}

/// Opens a fresh persistent store with the default configuration (default
/// group-commit window, segment size and budgets).
pub fn open_store(dir: &Path) -> Result<PersistentStore, String> {
    PersistentStore::open(dir).map_err(|e| format!("cannot open store {}: {e}", dir.display()))
}

/// Asserts a structural property of a workload.
pub fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("structural check failed: {}", what()))
    }
}

struct Args {
    workload: String,
    ctx: Ctx,
    expected_dir: Option<PathBuf>,
    write_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut work = None;
    let mut expected_dir = None;
    let mut write_expected = false;
    while let Some(flag) = args.next() {
        if flag == "--write-expected" {
            write_expected = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--work-dir" => work = Some(PathBuf::from(value)),
            "--expected-dir" => expected_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let root = work.ok_or("--work-dir is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let work = root.join(format!("{workload}-{}-{stamp}", std::process::id()));
    Ok(Args {
        workload,
        ctx: Ctx {
            seed,
            seconds,
            trace,
            work,
        },
        expected_dir,
        write_expected,
    })
}

/// Compares (or, with `--write-expected`, records) the default seed's
/// answers.
fn check_expected(args: &Args, answers: &[String]) -> Result<(), String> {
    if args.ctx.seed != DEFAULT_SEED {
        return Ok(());
    }
    let Some(dir) = &args.expected_dir else {
        return Ok(());
    };
    let path = dir.join(format!("{}.txt", args.workload));
    if args.write_expected {
        let mut text = answers.join("\n");
        text.push('\n');
        return std::fs::write(&path, text)
            .map_err(|e| format!("cannot write {}: {e}", path.display()));
    }
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let expected: Vec<&str> = text.lines().collect();
    if answers.len() < expected.len() {
        return Err(format!(
            "only {} answers to compare against {} expected",
            answers.len(),
            expected.len()
        ));
    }
    for (i, (got, want)) in answers.iter().zip(&expected).enumerate() {
        if got != want {
            return Err(format!(
                "wrong answer {i} on the default seed:\n  got:      {got}\n  expected: {want}"
            ));
        }
    }
    Ok(())
}

fn json_result(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.ctx.work)
        .map_err(|e| format!("cannot create {}: {e}", args.ctx.work.display()))?;
    let outcome = match args.workload.as_str() {
        "cold_analyse" => cold::run(&args.ctx),
        "module_edit" => module_edit::run(&args.ctx),
        "warm_serve" => warm::run(&args.ctx),
        other => Err(format!("unknown workload `{other}`")),
    }?;
    check_expected(args, &outcome.answers)?;
    Ok(outcome)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Before any thread starts, so every thread (the crates' pools and the
    // in-process server included) runs on the same CPU.
    if let Err(e) = measure::pin_to_one_cpu() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    let result = run(&args);
    let _ = std::fs::remove_dir_all(&args.ctx.work);
    match result {
        Ok(outcome) => println!("{}", json_result(&outcome)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
