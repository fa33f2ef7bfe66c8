//! Acceptance tests for the persistent artifact tier: a *fresh process's*
//! analysis of an unchanged function must be served from disk — bit-identical
//! bound, no model-checker or measurement work — with the disk-hit counters
//! proving it.  Only testgen and bound are persisted; lowering,
//! partitioning, prepare-model and measure are memory-only and recompute in
//! a fresh process when a persisted stage downstream of them misses.  A
//! fresh [`PersistentStore`] over an existing cache
//! directory is the in-test equivalent of a fresh process: it shares no
//! memory with the store that wrote the frames, only the directory.
//!
//! The disk tier is an append-only segment log (`segments/seg-*.tmgs` plus
//! an `index.tmgi` snapshot); these tests cover both warm-start routes — the
//! published snapshot and the watermark tail scan that recovers records a
//! still-running (or crashed) writer never published.

use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};
use tmg_core::pipeline::{Stage, TieredStore, STAGES};
use tmg_core::WcetAnalysis;
use tmg_minic::parse_function;
use tmg_service::{PersistentStore, PersistentStoreConfig};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tmg-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn controller() -> tmg_minic::Function {
    // The `demand > 3 && demand < 2` pair is infeasible, so every partition
    // leaves a residual checker goal and the prepare-model stage runs.
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

/// The stages whose artifacts are written to the segment log.
const PERSISTED: [Stage; 2] = [Stage::Testgen, Stage::Bound];

/// The memory-only stages: never probed on disk, never appended.
const MEMORY_ONLY: [Stage; 4] = [
    Stage::Lower,
    Stage::Partition,
    Stage::PrepareModel,
    Stage::Measure,
];

/// The checker counters are process-wide and the harness runs tests on
/// parallel threads: every analysing test holds this lock shared, and the
/// test that asserts a zero states-explored delta holds it exclusively.
static CHECKER_COUNTERS: RwLock<()> = RwLock::new(());

fn analysing() -> RwLockReadGuard<'static, ()> {
    CHECKER_COUNTERS
        .read()
        .unwrap_or_else(PoisonError::into_inner)
}

fn open(root: &Path) -> Arc<PersistentStore> {
    Arc::new(PersistentStore::open(root).expect("open cache"))
}

/// Segment files currently on disk.
fn segment_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(root.join("segments")) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some("tmgs") {
            out.push(path);
        }
    }
    out.sort();
    out
}

#[test]
fn a_fresh_process_serves_the_bound_from_disk_with_zero_recomputation() {
    let _analysing = analysing();
    let root = temp_root("cold-warm");
    let f = controller();

    // Cold process: every stage computes once; the persisted ones land in
    // the log, the memory-only ones never touch it.
    let cold_store = open(&root);
    let cold = WcetAnalysis::new(2)
        .with_store(cold_store.clone())
        .analyse(&f)
        .expect("cold analysis");
    let stats = cold_store.stats();
    for stage in STAGES {
        assert_eq!(
            stats.disk_stage(stage).computes,
            1,
            "cold run must compute stage {stage} exactly once"
        );
    }
    for stage in PERSISTED {
        assert_eq!(
            stats.disk_stage(stage).stores,
            1,
            "cold run must persist stage {stage}"
        );
    }
    for stage in MEMORY_ONLY {
        let disk = stats.disk_stage(stage);
        assert_eq!(
            (disk.hits, disk.misses, disk.stores),
            (0, 0, 0),
            "memory-only stage {stage} must never touch the log"
        );
    }

    // Warm "process": a brand-new store over the same directory, while the
    // cold writer is still alive — its snapshot is unpublished, so this
    // exercises the watermark tail scan (shared-cache peers see each
    // other's appends without any publish).
    let warm_store = open(&root);
    let warm = WcetAnalysis::new(2)
        .with_store(warm_store.clone())
        .analyse(&f)
        .expect("warm analysis");
    assert_eq!(cold, warm, "disk-served report must be bit-identical");

    let stats = warm_store.stats();
    assert_eq!(
        stats.total_computes(),
        0,
        "warm run must recompute nothing: {stats:?}"
    );
    assert_eq!(
        stats.disk_stage(Stage::Bound).hits,
        1,
        "the bound artifact must be served from disk"
    );
    assert_eq!(
        stats.segment.zero_copy_hits, 1,
        "the bound fast path must serve without an owned payload decode"
    );
    assert_eq!(stats.segment.decoded_hits, 0);
    // The bound fast path short-circuits every earlier stage: no memory
    // probes, no disk probes, no computation.
    for stage in [
        Stage::Lower,
        Stage::Partition,
        Stage::PrepareModel,
        Stage::Testgen,
        Stage::Measure,
    ] {
        let disk = stats.disk_stage(stage);
        assert_eq!((disk.hits, disk.misses), (0, 0), "stage {stage} untouched");
        let memory = stats.memory.stage(stage);
        assert_eq!(
            (memory.hits, memory.misses),
            (0, 0),
            "stage {stage} not even probed in memory"
        );
    }

    // A third process after both writers exited cleanly starts from the
    // published snapshot — same answer, still zero recomputation.
    drop(cold_store);
    drop(warm_store);
    let snapshot_store = open(&root);
    let again = WcetAnalysis::new(2)
        .with_store(snapshot_store.clone())
        .analyse(&f)
        .expect("snapshot-warm analysis");
    assert_eq!(again, cold);
    assert_eq!(snapshot_store.stats().total_computes(), 0);
    assert!(
        root.join("index.tmgi").exists(),
        "a clean exit must publish the index snapshot"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_new_bound_in_a_fresh_process_recomputes_the_model_and_relowers_in_memory() {
    let _analysing = analysing();
    let root = temp_root("partial-warm");
    let f = controller();
    let cold_store = open(&root);
    WcetAnalysis::new(2)
        .with_store(cold_store.clone())
        .analyse(&f)
        .expect("cold analysis");
    drop(cold_store);

    // A different path bound in a fresh process: lowering and the prepared
    // model recompute in memory without probing the log (test generation
    // needs the model again anyway), and the bound-dependent stages
    // recompute.
    let warm_store = open(&root);
    WcetAnalysis::new(100)
        .with_store(warm_store.clone())
        .analyse(&f)
        .expect("warm analysis at a new bound");
    let stats = warm_store.stats();
    let lower = stats.disk_stage(Stage::Lower);
    assert_eq!(lower.computes, 1, "lowering is memory-only: it recomputes");
    assert_eq!(
        (lower.hits, lower.misses),
        (0, 0),
        "no disk probe for lower"
    );
    let model = stats.disk_stage(Stage::PrepareModel);
    assert_eq!(
        model.computes, 1,
        "prepare-model is memory-only: it recomputes"
    );
    assert_eq!(
        (model.hits, model.misses),
        (0, 0),
        "no disk probe for prepare-model"
    );
    assert_eq!(
        stats.segment.decoded_hits,
        stats.disk_stage(Stage::Testgen).hits,
        "only suite reads decode an owned artifact"
    );
    for stage in [
        Stage::Partition,
        Stage::Testgen,
        Stage::Measure,
        Stage::Bound,
    ] {
        assert_eq!(
            stats.disk_stage(stage).computes,
            1,
            "stage {stage} depends on the bound and must recompute"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Writes a segment file holding one record, as the segment log lays it
/// out: the 16-byte header, then the frame behind its `u32` length.
fn write_segment(root: &Path, id: u64, frame: &[u8]) -> Vec<u8> {
    use tmg_service::segment::{SEGMENT_EXT, SEGMENT_MAGIC, SEGMENT_VERSION};
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&SEGMENT_MAGIC);
    bytes.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&[0, 0]);
    bytes.extend_from_slice(&id.to_le_bytes());
    bytes.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    bytes.extend_from_slice(frame);
    let path = root
        .join("segments")
        .join(format!("seg-{id:016x}.{SEGMENT_EXT}"));
    std::fs::write(path, &bytes).expect("write segment");
    bytes
}

#[test]
fn a_prepare_model_frame_from_an_older_build_is_kept_but_never_probed() {
    let _analysing = analysing();
    let root = temp_root("older-build");
    let f = controller();
    let cold_store = open(&root);
    let cold = WcetAnalysis::new(2)
        .with_store(cold_store.clone())
        .analyse(&f)
        .expect("cold analysis");
    let cold_bytes = cold_store.stats().disk_bytes;
    drop(cold_store);

    // An older build also appended the prepared model, under the very key
    // this build derives for it.  Its payload is never decoded, so any
    // bytes stand in for the retired encoding.
    let analysis = WcetAnalysis::new(100);
    let function_key = tmg_core::pipeline::ArtifactStore::new()
        .lowered(&f)
        .function_key;
    let key = tmg_core::pipeline::prepared_model_key(function_key, &analysis.generator.checker);
    let frame =
        tmg_service::codec::encode_frame(Stage::PrepareModel, key, b"retired model encoding");
    let old_segment = write_segment(&root, 2, &frame);

    // The store opens cleanly: the frame verifies, and its bytes are
    // accounted like any other record's.
    let store = open(&root);
    let recovery = store.recovery_scan();
    assert_eq!(recovery.quarantined, 0, "{recovery:?}");
    assert_eq!(
        store.stats().disk_bytes,
        cold_bytes + old_segment.len() as u64,
        "the older frame is accounted until eviction reclaims its segment"
    );

    // The bound is served from disk with nothing recomputed.
    let warm = WcetAnalysis::new(2)
        .with_store(store.clone())
        .analyse(&f)
        .expect("warm analysis");
    assert_eq!(warm, cold);
    assert_eq!(store.stats().total_computes(), 0);

    // A new bound needs the model: it is recomputed in memory, and the
    // older frame under its key is never probed.
    let fresh = analysis
        .with_store(store.clone())
        .analyse(&f)
        .expect("analysis at a new bound");
    let plain = WcetAnalysis::new(100).analyse(&f).expect("storeless");
    assert_eq!(fresh, plain);
    let stats = store.stats();
    let model = stats.disk_stage(Stage::PrepareModel);
    assert_eq!(model.computes, 1);
    assert_eq!(
        (model.hits, model.misses, model.stores),
        (0, 0, 0),
        "prepare-model must never touch the log"
    );
    assert!(stats.disk_bytes > cold_bytes + old_segment.len() as u64);
    drop(store);
    let segment = std::fs::read(root.join("segments").join("seg-0000000000000002.tmgs"))
        .expect("the older segment is still on disk");
    assert_eq!(segment, old_segment, "its bytes are left untouched");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_measure_frame_from_an_older_build_is_kept_but_never_probed() {
    let _analysing = analysing();
    let root = temp_root("older-measure");
    let f = controller();

    // An older build appended the measurement campaign of the bound-100
    // analysis under the very key this build derives for it.  Its payload
    // is never decoded, so any bytes stand in for the retired encoding.
    let analysis = WcetAnalysis::new(100);
    let memory = tmg_core::pipeline::ArtifactStore::new();
    let lowered = memory.lowered(&f);
    let partition = memory.partition(&lowered, 100);
    let suite = memory.suite(&f, &lowered, &partition, &analysis.generator);
    let key = tmg_core::pipeline::campaign_key(suite.key, &analysis.cost_model);
    let frame = tmg_service::codec::encode_frame(Stage::Measure, key, b"retired campaign encoding");
    std::fs::create_dir_all(root.join("segments")).expect("segments directory");
    let old_segment = write_segment(&root, 1, &frame);

    let store = open(&root);
    let recovery = store.recovery_scan();
    assert_eq!(recovery.quarantined, 0, "{recovery:?}");
    let fresh = analysis
        .with_store(store.clone())
        .analyse(&f)
        .expect("analysis");
    let plain = WcetAnalysis::new(100).analyse(&f).expect("storeless");
    assert_eq!(fresh, plain);
    let measure = store.stats().disk_stage(Stage::Measure);
    assert_eq!(
        (
            measure.hits,
            measure.misses,
            measure.stores,
            measure.computes
        ),
        (0, 0, 0, 1),
        "measure recomputes in memory and never touches the log"
    );
    drop(store);
    let segment = std::fs::read(root.join("segments").join("seg-0000000000000001.tmgs"))
        .expect("the older segment is still on disk");
    assert_eq!(segment, old_segment, "its bytes are left untouched");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_fresh_process_redoes_only_the_memory_only_stages_and_the_bound() {
    let _exclusive = CHECKER_COUNTERS
        .write()
        .unwrap_or_else(PoisonError::into_inner);
    let root = temp_root("memory-only");
    // Path bound 100 makes the whole function one segment, whose
    // infeasible paths are proven by a shared checker exploration.
    let f = controller();
    let space = |enabled: &'static [i64]| -> Vec<tmg_minic::value::InputVector> {
        (0..=6)
            .flat_map(|d| {
                enabled.iter().map(move |&e| {
                    tmg_minic::value::InputVector::new()
                        .with("demand", d)
                        .with("enabled", e)
                })
            })
            .collect()
    };
    let cold_before = tmg_tsys::metrics::snapshot().STATES_EXPLORED;
    let cold_store = open(&root);
    WcetAnalysis::new(100)
        .with_store(cold_store.clone())
        .analyse_with_exhaustive(&f, &space(&[0, 1]))
        .expect("cold analysis");
    drop(cold_store);
    assert!(
        tmg_tsys::metrics::snapshot().STATES_EXPLORED > cold_before,
        "the cold run must explore checker states (its infeasible goals)"
    );

    // A different exhaustive input space misses the bound key while the
    // suite key (which does not depend on it) hits on disk; the campaign is
    // measured again from the decoded suite.
    let other = space(&[1]);
    let states_before = tmg_tsys::metrics::snapshot().STATES_EXPLORED;
    let warm_store = open(&root);
    let warm = WcetAnalysis::new(100)
        .with_store(warm_store.clone())
        .analyse_with_exhaustive(&f, &other)
        .expect("warm analysis");
    let states_after = tmg_tsys::metrics::snapshot().STATES_EXPLORED;
    let stats = warm_store.stats();
    let testgen = stats.disk_stage(Stage::Testgen);
    assert_eq!(
        (testgen.hits, testgen.computes),
        (1, 0),
        "the suite must be served from disk"
    );
    for stage in STAGES {
        let expected = u64::from(matches!(
            stage,
            Stage::Lower | Stage::Partition | Stage::Measure | Stage::Bound
        ));
        assert_eq!(
            stats.disk_stage(stage).computes,
            expected,
            "stage {stage}: only lower, partition, measure and bound may compute"
        );
    }
    assert_eq!(
        states_after - states_before,
        0,
        "no model-checker state may be explored in the fresh process"
    );
    let plain = WcetAnalysis::new(100)
        .analyse_with_exhaustive(&f, &other)
        .expect("storeless analysis");
    assert_eq!(
        warm, plain,
        "the disk-served report must match a storeless run"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn exhaustive_reports_round_trip_through_the_disk_tier() {
    let _analysing = analysing();
    let root = temp_root("exhaustive");
    let f = controller();
    let space: Vec<tmg_minic::value::InputVector> = (0..=6)
        .flat_map(|d| {
            (0..=1).map(move |e| {
                tmg_minic::value::InputVector::new()
                    .with("demand", d)
                    .with("enabled", e)
            })
        })
        .collect();
    let cold = WcetAnalysis::new(2)
        .with_store(open(&root))
        .analyse_with_exhaustive(&f, &space)
        .expect("cold");
    let warm_store = open(&root);
    let warm = WcetAnalysis::new(2)
        .with_store(warm_store.clone())
        .analyse_with_exhaustive(&f, &space)
        .expect("warm");
    assert_eq!(cold, warm);
    assert!(warm.exhaustive_max.is_some());
    assert_eq!(warm_store.stats().total_computes(), 0);
    // The storeless pipeline agrees with both.
    let plain = WcetAnalysis::new(2)
        .analyse_with_exhaustive(&f, &space)
        .expect("plain");
    assert_eq!(plain, warm);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupt_segments_degrade_to_a_clean_recompute() {
    let _analysing = analysing();
    let root = temp_root("corrupt");
    let f = controller();
    let reference = WcetAnalysis::new(2)
        .with_store(open(&root))
        .analyse(&f)
        .expect("cold analysis");

    // Rot every record body while leaving the published index snapshot
    // intact: each indexed location now points at bytes that fail the
    // digest, the worst case for a reader that trusts the index.
    let segments = segment_files(&root);
    assert!(!segments.is_empty(), "the cold run must write a segment");
    for path in &segments {
        let mut bytes = std::fs::read(path).expect("read segment");
        for b in bytes.iter_mut().skip(16) {
            *b ^= 0x5A;
        }
        std::fs::write(path, bytes).expect("write damaged segment");
    }

    // A fresh process over the damaged cache: every load fails verification,
    // everything recomputes, and the bound is still bit-identical.
    let store = open(&root);
    let report = WcetAnalysis::new(2)
        .with_store(store.clone())
        .analyse(&f)
        .expect("analysis over damaged cache");
    assert_eq!(report, reference, "damaged cache must never change a bound");
    let stats = store.stats();
    assert_eq!(stats.disk_stage(Stage::Bound).hits, 0);
    assert_eq!(stats.disk_stage(Stage::Bound).computes, 1);
    assert_eq!(stats.total_computes(), 6, "all stages recompute");
    drop(store);

    // The recomputed frames went to a fresh segment; a third process is
    // fully warm again.
    let healed = open(&root);
    let again = WcetAnalysis::new(2)
        .with_store(healed.clone())
        .analyse(&f)
        .expect("healed analysis");
    assert_eq!(again, reference);
    assert_eq!(healed.stats().total_computes(), 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn the_disk_budget_evicts_whole_segments_oldest_first() {
    let _analysing = analysing();
    let root = temp_root("budget");
    // Small segments so rotation produces several; a budget small enough
    // that a handful of functions overflows it, large enough for any
    // single frame.
    let store = Arc::new(
        PersistentStore::with_config(
            PersistentStoreConfig::new(&root)
                .with_disk_budget(2 * 1024)
                .with_segment_bytes(1024),
        )
        .expect("open"),
    );
    let sources: Vec<String> = (0..12)
        .map(|i| {
            format!(
                "void f{i}(char a __range(0, 3)) {{ if (a > {}) {{ x{i}(); }} else {{ y{i}(); }} }}",
                i % 3
            )
        })
        .collect();
    for src in &sources {
        let f = parse_function(src).expect("parse");
        WcetAnalysis::new(2)
            .with_store(store.clone())
            .analyse(&f)
            .expect("analysis");
    }
    let stats = store.stats();
    let evictions: u64 = (0..6).map(|i| stats.disk[i].evictions).sum();
    assert!(evictions > 0, "budget must force evictions: {stats:?}");
    assert!(
        stats.disk_bytes <= 2 * 1024,
        "byte budget must hold after eviction ({} bytes)",
        stats.disk_bytes
    );
    // Evicted artifacts are recomputed, not lost: re-analysing the first
    // function still matches the storeless pipeline.
    let f0 = parse_function(&sources[0]).expect("parse");
    let via_cache = WcetAnalysis::new(2)
        .with_store(store.clone())
        .analyse(&f0)
        .expect("cached");
    let plain = WcetAnalysis::new(2).analyse(&f0).expect("plain");
    assert_eq!(via_cache, plain);
    let _ = std::fs::remove_dir_all(&root);
}

fn synthetic_report(i: u64) -> tmg_core::AnalysisReport {
    tmg_core::AnalysisReport {
        function: format!("synthetic_{i}"),
        path_bound: 2,
        segments: 3 + (i % 5) as usize,
        instrumentation_points: 7,
        measurements: 40 + u128::from(i),
        goals: 9,
        heuristic_covered: 5,
        checker_covered: 3,
        infeasible: 1,
        unknown: 0,
        measurement_runs: 4,
        wcet_bound: 1000 + i * 17,
        exhaustive_max: if i.is_multiple_of(2) {
            Some(900 + i * 17)
        } else {
            None
        },
    }
}

#[test]
fn compaction_reclaims_dead_bytes_and_keeps_every_live_artifact_readable() {
    use tmg_core::pipeline::TieredStore;

    let root = temp_root("compaction");
    let store = Arc::new(
        PersistentStore::with_config(PersistentStoreConfig::new(&root).with_segment_bytes(512))
            .expect("open"),
    );
    // First generation fills several segments; the second writes
    // bit-identical frames under the same keys, turning every
    // first-generation record into dead bytes in sealed segments.
    for round in 0..2 {
        for i in 0..24u64 {
            store.put_bound(9000 + i, synthetic_report(i));
        }
        let _ = round;
    }
    store.flush();
    store.compact();
    let stats = store.stats();
    assert!(
        stats.segment.compactions >= 1,
        "rewriting every key must trigger compaction: {stats:?}"
    );
    assert!(stats.segment.compacted_frames >= 1);

    // Every live artifact survives compaction bit-identically; reads go
    // through the zero-copy view so the memory tier cannot mask disk loss.
    for i in 0..24u64 {
        let got = store.with_bound_view(9000 + i, |view| view.map(|v| v.to_report()));
        assert_eq!(got, Some(synthetic_report(i)), "key {i} after compaction");
    }
    drop(store);

    // A fresh process reconciles the compacted layout and sees the same data.
    let fresh = open(&root);
    for i in 0..24u64 {
        let got = fresh.with_bound_view(9000 + i, |view| view.map(|v| v.to_report()));
        assert_eq!(got, Some(synthetic_report(i)), "key {i} in a fresh process");
    }
    let dead = fresh.stats().segment.dead_bytes;
    drop(fresh);
    // Force-compacting again in yet another process drives sealed dead
    // bytes to zero (only the active tail may still hold dead records).
    let last = open(&root);
    last.compact();
    assert!(last.stats().segment.dead_bytes <= dead);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_fresh_process_serves_module_bounds_warm_from_the_log() {
    use tmg_core::{ModuleAnalysis, TieredStore};

    let _analysing = analysing();
    let root = temp_root("module-warm");
    let program = tmg_minic::parse_program(
        "void util(char v __range(0, 3)) { if (v > 1) { slow(); } else { fast(); } } \
         void mid(char m __range(0, 3)) { util(m); if (m == 0) { util(m); } } \
         void entry(char a __range(0, 3)) { mid(a); util(a); }",
    )
    .expect("parse module");

    // Cold process: every function summary computes and lands in the log.
    let cold_store = open(&root);
    let cold = ModuleAnalysis::new(4)
        .with_store(cold_store.clone() as Arc<dyn TieredStore>)
        .analyse_module(&program)
        .expect("cold module analysis");
    assert_eq!(cold.summaries_computed, 3);
    assert_eq!(cold.summaries_reused, 0);
    drop(cold_store);

    // Fresh process: a brand-new store over the same directory must serve
    // every summary from the segment log — bit-identical composed bounds,
    // nothing recomputed.
    let warm_before = tmg_core::module::metrics::snapshot().modules_served_warm;
    let warm_store = open(&root);
    let warm = ModuleAnalysis::new(4)
        .with_store(warm_store.clone() as Arc<dyn TieredStore>)
        .analyse_module(&program)
        .expect("warm module analysis");
    assert_eq!(warm.summaries_reused, 3);
    assert_eq!(warm.summaries_computed, 0);
    assert_eq!(
        warm.reports, cold.reports,
        "warm reports must be bit-identical"
    );
    assert_eq!(warm.summaries.len(), cold.summaries.len());
    for (w, c) in warm.summaries.iter().zip(&cold.summaries) {
        assert_eq!(w.function, c.function);
        assert_eq!(w.summary_key, c.summary_key);
        assert_eq!(w.wcet_bound, c.wcet_bound);
        assert_eq!(w.callees, c.callees);
        assert!(w.from_cache, "{} must be served from the log", w.function);
    }
    assert_eq!(warm.roots, cold.roots);
    assert_eq!(warm.module_key, cold.module_key);
    assert_eq!(
        tmg_core::module::metrics::snapshot().modules_served_warm,
        warm_before + 1,
        "a fully warm module run must count as served-warm"
    );
    assert_eq!(
        warm_store.stats().total_computes(),
        0,
        "the fresh process must recompute no pipeline stage"
    );
    let _ = std::fs::remove_dir_all(&root);
}
