//! Crash-consistency tests for the segment-log disk tier, driven by the
//! deterministic [`FaultPlan`] injector.
//!
//! The invariant under test, for every fault site: an injected fault yields
//! either a *bit-identical* artifact or a *clean miss + recompute* — never a
//! wrong answer, never a poisoned cache, never a lost analysis.  The fault
//! sites map to the log's real I/O boundaries:
//!
//! * `torn_append`      — a record append dies halfway; the active segment
//!   is abandoned with a torn tail.
//! * `crash_after_publish` — an append is written and synced but the writer
//!   dies before accounting/publish; the record is durable yet unindexed.
//! * `torn_write`       — the index *snapshot* is torn at its final path;
//!   the snapshot is an accelerator, so data must survive via a scan.
//! * `crash_before_publish` — the snapshot temp file is written but never
//!   renamed; an orphan `index.*.tmp` remains.
//! * `short_read` / `bit_flip` — a warm read returns damaged bytes; the
//!   digest check must turn it into a miss.
//! * `crash_mid_compaction` — compaction copies the victim's live records
//!   but dies before deleting the victim; bit-identical duplicates remain.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use tmg_core::pipeline::{Stage, STAGES};
use tmg_core::{AnalysisReport, WcetAnalysis};
use tmg_minic::parse_function;
use tmg_service::{FaultKind, FaultPlan, PersistentStore, PersistentStoreConfig};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tmg-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn controller() -> tmg_minic::Function {
    // The infeasible `demand > 3 && demand < 2` pair forces a residual
    // checker goal, so the prepare-model stage and the explorer run.
    parse_function(
        r#"
        void controller(char demand __range(0, 6), bool enabled) {
            if (enabled) {
                if (demand > 3) { heavy(); } else { light(); }
            } else {
                off();
            }
            if (demand > 3) { if (demand < 2) { never(); } }
            if (demand == 0) { idle(); }
        }
        "#,
    )
    .expect("parse")
}

/// The stages whose artifacts are appended to the segment log: one append
/// each per cold analysis.
const PERSISTED: [Stage; 2] = [Stage::Testgen, Stage::Bound];

/// The memory-only stages: computed on a memory miss, never appended.
const MEMORY_ONLY: [Stage; 4] = [
    Stage::Lower,
    Stage::Partition,
    Stage::PrepareModel,
    Stage::Measure,
];

fn open_with(root: &Path, plan: FaultPlan) -> Arc<PersistentStore> {
    Arc::new(
        PersistentStore::with_config(PersistentStoreConfig::new(root).with_fault_plan(plan))
            .expect("open cache"),
    )
}

fn open(root: &Path) -> Arc<PersistentStore> {
    open_with(root, FaultPlan::none())
}

fn analyse(store: &Arc<PersistentStore>) -> AnalysisReport {
    WcetAnalysis::new(2)
        .with_store(store.clone())
        .analyse(&controller())
        .expect("analysis")
}

fn reference() -> AnalysisReport {
    WcetAnalysis::new(2)
        .analyse(&controller())
        .expect("storeless reference")
}

#[test]
fn a_torn_append_degrades_to_a_clean_miss_and_heals() {
    let root = temp_root("torn-append");
    // Every append dies halfway: nothing lands on disk, each abandoned
    // segment keeps a torn tail past its watermark.
    let plan = FaultPlan::none().with(FaultKind::TornAppend, 100);
    let store = open_with(&root, plan);
    let first = analyse(&store);
    assert_eq!(
        first,
        reference(),
        "a torn append must not change the bound"
    );
    let stats = store.stats();
    let stored: u64 = (0..6).map(|i| stats.disk[i].stores).sum();
    assert_eq!(stored, 0, "no torn frame may count as stored");
    assert_eq!(store.fault_shots_fired(), PERSISTED.len() as u64);
    drop(store);

    // A fresh process scans the torn tails, quarantines one per persisted
    // stage, and recomputes cleanly.
    let fresh = open(&root);
    let report = fresh.recovery_scan();
    assert_eq!(
        report.quarantined,
        PERSISTED.len() as u64,
        "every torn record must be quarantined: {report:?}"
    );
    let healed = analyse(&fresh);
    assert_eq!(healed, reference());
    assert_eq!(fresh.stats().total_computes(), 6, "cold after quarantine");
    drop(fresh);

    // Third process: fully warm, bit-identical.
    let warm = open(&root);
    assert_eq!(analyse(&warm), reference());
    assert_eq!(warm.stats().total_computes(), 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_crash_after_a_durable_append_is_recovered_by_the_tail_scan() {
    let root = temp_root("crash-after");
    // Every append (the bound included) is written and synced, but the
    // writer "dies" before accounting: the records are durable yet never
    // indexed or published by this process.
    let plan = FaultPlan::none().with(FaultKind::CrashAfterPublish, 100);
    let store = open_with(&root, plan);
    let first = analyse(&store);
    assert_eq!(first, reference());
    assert_eq!(store.fault_shots_fired(), PERSISTED.len() as u64);
    let stats = store.stats();
    let stored: u64 = (0..6).map(|i| stats.disk[i].stores).sum();
    assert_eq!(stored, 0, "a crashed append must not count as stored");
    drop(store);

    // A fresh process must find the unaccounted records by scanning past
    // the published watermarks — zero recomputation, bit-identical.
    let fresh = open(&root);
    assert_eq!(analyse(&fresh), reference());
    let stats = fresh.stats();
    assert_eq!(
        stats.total_computes(),
        0,
        "durable-but-unindexed records must be recovered: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_torn_index_snapshot_degrades_to_a_scan_rebuild() {
    let root = temp_root("torn-index");
    // The only publish in this run is the one at drop; it tears the
    // snapshot at its final path.
    let plan = FaultPlan::none().with(FaultKind::TornWrite, 100);
    let store = open_with(&root, plan);
    let first = analyse(&store);
    drop(store);
    assert!(
        root.join("index.tmgi").exists(),
        "the torn snapshot lands at the final path"
    );

    // The snapshot is an accelerator, not the authority: a fresh process
    // rejects the torn snapshot, rebuilds from the segment files, and is
    // fully warm.
    let fresh = open(&root);
    assert_eq!(analyse(&fresh), first);
    let stats = fresh.stats();
    assert_eq!(stats.total_computes(), 0, "data must survive a torn index");
    assert_eq!(
        stats.segment.index_rebuilds, 1,
        "the torn snapshot must be counted as a rebuild"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_crash_before_the_snapshot_rename_leaves_only_a_reclaimable_orphan() {
    let root = temp_root("crash-before");
    let plan = FaultPlan::none().with(FaultKind::CrashBeforePublish, 100);
    let store = open_with(&root, plan);
    let first = analyse(&store);
    drop(store);
    assert!(
        !root.join("index.tmgi").exists(),
        "the rename never happened"
    );

    // Segment data is durable independently of the snapshot: warm start
    // via scan, and the recovery pass reclaims the orphan temp file.
    let fresh = open(&root);
    let report = fresh.recovery_scan();
    assert!(
        report.reclaimed_tmp >= 1,
        "the orphan index temp must be reclaimed: {report:?}"
    );
    assert_eq!(report.quarantined, 0);
    assert_eq!(analyse(&fresh), first);
    assert_eq!(fresh.stats().total_computes(), 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn short_reads_and_bit_flips_turn_into_misses_not_wrong_bounds() {
    let root = temp_root("read-damage");
    let cold = open(&root);
    let first = analyse(&cold);
    drop(cold);

    for kind in [FaultKind::ShortRead, FaultKind::BitFlip] {
        let plan = FaultPlan::none().with(kind, 1);
        let store = open_with(&root, plan);
        let report = analyse(&store);
        assert_eq!(report, first, "{kind:?} must never change a bound");
        let stats = store.stats();
        assert_eq!(
            stats.disk_stage(Stage::Bound).misses,
            1,
            "{kind:?}: the damaged read must be a miss, not a hit"
        );
        assert!(
            stats.total_computes() >= 1,
            "{kind:?}: the damaged artifact must recompute"
        );
        assert_eq!(store.fault_shots_fired(), 1);
        drop(store);
        // The recompute re-appended the frame: the next process is warm.
        let healed = open(&root);
        assert_eq!(analyse(&healed), first);
        assert_eq!(healed.stats().total_computes(), 0, "{kind:?} must heal");
        drop(healed);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_crash_mid_compaction_leaves_only_bit_identical_duplicates() {
    use tmg_core::pipeline::TieredStore;

    fn report_for(i: u64) -> AnalysisReport {
        AnalysisReport {
            function: format!("dup_{i}"),
            path_bound: 2,
            segments: 4,
            instrumentation_points: 8,
            measurements: 30 + u128::from(i),
            goals: 6,
            heuristic_covered: 4,
            checker_covered: 2,
            infeasible: 0,
            unknown: 0,
            measurement_runs: 3,
            wcet_bound: 500 + i * 13,
            exhaustive_max: None,
        }
    }

    let root = temp_root("crash-compaction");
    // Two generations of identical frames in one (default-sized, so never
    // rotated) segment: 24 live records, 24 dead.  The clean exit seals it.
    let writer = open(&root);
    for _ in 0..2 {
        for i in 0..24u64 {
            writer.put_bound(7000 + i, report_for(i));
        }
    }
    drop(writer);

    // Compaction in the next process picks the half-dead segment, copies
    // its first live record, and "dies" before deleting the victim.
    let plan = FaultPlan::none().with(FaultKind::CrashMidCompaction, 1);
    let store = open_with(&root, plan);
    store.compact();
    assert_eq!(store.fault_shots_fired(), 1, "the crash shot must fire");
    assert!(store.stats().segment.compacted_frames >= 1);
    // In-process, every key still reads bit-identically (duplicates are
    // content-addressed: either copy is the right answer).
    for i in 0..24u64 {
        let got = store.with_bound_view(7000 + i, |view| view.map(|v| v.to_report()));
        assert_eq!(got, Some(report_for(i)), "key {i} during the crash run");
    }
    drop(store);

    // A fresh process reconciles the duplicates (last writer wins — both
    // copies are identical) and a clean compaction finishes the job.
    let fresh = open(&root);
    for i in 0..24u64 {
        let got = fresh.with_bound_view(7000 + i, |view| view.map(|v| v.to_report()));
        assert_eq!(got, Some(report_for(i)), "key {i} after the crash");
    }
    fresh.compact();
    assert!(fresh.stats().segment.compactions >= 1);
    for i in 0..24u64 {
        let got = fresh.with_bound_view(7000 + i, |view| view.map(|v| v.to_report()));
        assert_eq!(got, Some(report_for(i)), "key {i} after the retry");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_mixed_fault_plan_still_yields_the_reference_bound() {
    let root = temp_root("mixed");
    // Two appends per analysis (testgen, bound): the testgen append torn,
    // the bound append durable but never indexed.
    let plan = FaultPlan::parse("torn_append:1,crash_after_publish:1").expect("parse");
    let store = open_with(&root, plan);
    let first = analyse(&store);
    assert_eq!(first, reference());
    assert_eq!(store.fault_shots_fired(), 2);
    let stats = store.stats();
    assert_eq!(
        stats.disk_stage(Stage::Bound).stores,
        0,
        "the bound append died after its write: durable, not indexed"
    );
    drop(store);

    // The torn tail quarantined, and the durable-but-unindexed bound
    // recovered by the scan and served warm.
    let fresh = open(&root);
    let report = fresh.recovery_scan();
    assert_eq!(report.quarantined, 1, "{report:?}");
    assert_eq!(
        report.scanned,
        PERSISTED.len() as u64,
        "the scan sees both records: one torn, one valid: {report:?}"
    );
    assert_eq!(analyse(&fresh), reference());
    assert_eq!(fresh.stats().total_computes(), 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn an_unarmed_plan_is_inert_and_counts_nothing() {
    let root = temp_root("inert");
    let store = open_with(&root, FaultPlan::none());
    let first = analyse(&store);
    assert_eq!(first, reference());
    assert_eq!(store.fault_shots_fired(), 0);
    let stats = store.stats();
    for stage in STAGES {
        let expected = u64::from(PERSISTED.contains(&stage));
        assert_eq!(stats.disk_stage(stage).stores, expected, "stage {stage}");
    }
    for stage in MEMORY_ONLY {
        let disk = stats.disk_stage(stage);
        assert_eq!(
            (disk.hits, disk.misses, disk.computes),
            (0, 0, 1),
            "memory-only stage {stage} computes once and never probes the log"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}
