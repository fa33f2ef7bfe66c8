//! The traced run's store: a [`TieredStore`] that delegates every call to a
//! [`PersistentStore`] and records, per pipeline stage, how often the staged
//! runner called it and how long each call took.  The runner never nests
//! these calls (the persistent tier builds the prepared model on itself, not
//! through this wrapper), so each stage's busy time is its self time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tmg_core::pipeline::{
    BoundArtifact, CampaignArtifact, LoweredArtifact, PartitionArtifact, PreparedModelArtifact,
    SuiteArtifact,
};
use tmg_core::{AnalysisError, AnalysisReport, ArtifactStore, HybridGenerator, Stage, TieredStore};
use tmg_minic::ast::Function;
use tmg_service::PersistentStore;
use tmg_target::CostModel;
use tmg_tsys::ModelChecker;

/// Call count and busy time of each stage, indexed by [`Stage::index`]
/// (`bound` covers both the probe and the publish), plus the target runs of
/// the campaigns this wrapper saw computed.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    pub calls: [u64; 6],
    pub busy_ns: [u64; 6],
    pub measure_runs: u64,
}

impl StageTimes {
    /// Busy milliseconds of one stage.
    pub fn busy_ms(&self, stage: Stage) -> f64 {
        self.busy_ns[stage.index()] as f64 / 1e6
    }

    /// Busy milliseconds summed over every stage.
    pub fn total_busy_ms(&self) -> f64 {
        self.busy_ns.iter().sum::<u64>() as f64 / 1e6
    }
}

/// See the module docs.
pub struct TimedStore {
    inner: Arc<PersistentStore>,
    calls: [AtomicU64; 6],
    busy_ns: [AtomicU64; 6],
    measure_runs: AtomicU64,
}

impl std::fmt::Debug for TimedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedStore")
            .field("inner", &self.inner)
            .finish()
    }
}

impl TimedStore {
    pub fn new(inner: Arc<PersistentStore>) -> TimedStore {
        TimedStore {
            inner,
            calls: Default::default(),
            busy_ns: Default::default(),
            measure_runs: AtomicU64::new(0),
        }
    }

    pub fn snapshot(&self) -> StageTimes {
        let load = |a: &[AtomicU64; 6]| std::array::from_fn(|i| a[i].load(Ordering::Relaxed));
        StageTimes {
            calls: load(&self.calls),
            busy_ns: load(&self.busy_ns),
            measure_runs: self.measure_runs.load(Ordering::Relaxed),
        }
    }

    fn timed<R>(&self, stage: Stage, call: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = call();
        let ns = start.elapsed().as_nanos() as u64;
        self.calls[stage.index()].fetch_add(1, Ordering::Relaxed);
        self.busy_ns[stage.index()].fetch_add(ns, Ordering::Relaxed);
        out
    }
}

impl TieredStore for TimedStore {
    fn memory(&self) -> &ArtifactStore {
        self.inner.memory()
    }

    fn lowered_keyed(&self, function: &Function, key: u64) -> Arc<LoweredArtifact> {
        self.timed(Stage::Lower, || self.inner.lowered_keyed(function, key))
    }

    fn partition(&self, lowered: &LoweredArtifact, path_bound: u128) -> Arc<PartitionArtifact> {
        self.timed(Stage::Partition, || {
            self.inner.partition(lowered, path_bound)
        })
    }

    fn prepared_model(
        &self,
        function: &Function,
        lowered: &LoweredArtifact,
        checker: &ModelChecker,
    ) -> Arc<PreparedModelArtifact> {
        self.inner.prepared_model(function, lowered, checker)
    }

    fn suite(
        &self,
        function: &Function,
        lowered: &LoweredArtifact,
        partition: &PartitionArtifact,
        generator: &HybridGenerator,
    ) -> Arc<SuiteArtifact> {
        self.timed(Stage::Testgen, || {
            self.inner.suite(function, lowered, partition, generator)
        })
    }

    fn campaign(
        &self,
        function: &Function,
        lowered: &LoweredArtifact,
        partition: &PartitionArtifact,
        suite: &SuiteArtifact,
        cost_model: &CostModel,
    ) -> Result<Arc<CampaignArtifact>, AnalysisError> {
        let misses = || self.inner.memory().stats(Stage::Measure).misses;
        let before = misses();
        let out = self.timed(Stage::Measure, || {
            self.inner
                .campaign(function, lowered, partition, suite, cost_model)
        })?;
        // A memory-tier miss on a workload without disk hits is a compute.
        if misses() > before {
            self.measure_runs
                .fetch_add(out.campaign.runs as u64, Ordering::Relaxed);
        }
        Ok(out)
    }

    fn bound(&self, key: u64) -> Option<Arc<BoundArtifact>> {
        self.timed(Stage::Bound, || self.inner.bound(key))
    }

    fn put_bound(&self, key: u64, report: AnalysisReport) -> Arc<BoundArtifact> {
        self.timed(Stage::Bound, || self.inner.put_bound(key, report))
    }
}
