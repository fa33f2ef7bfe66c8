//! Property tests for the segment log, plus the two-writer lock-contention
//! test.
//!
//! The property: under *any* interleaving of append / read / evict /
//! compact / flush / reopen / crashy-reopen, a read returns either the
//! bit-identical artifact that was put under that key or a clean miss —
//! never a wrong payload, never a panic, never a poisoned directory.
//! Keys are content-addressed in production (same key ⇒ same bytes), so
//! each test key maps to one deterministic report.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tmg_core::pipeline::TieredStore;
use tmg_core::AnalysisReport;
use tmg_service::{FaultKind, FaultPlan, PersistentStore, PersistentStoreConfig};

static CASE: AtomicU64 = AtomicU64::new(0);

fn temp_root(tag: &str) -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("tmg-segprop-{tag}-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The one true value for `key` — content-addressed storage means a key
/// never maps to two different payloads.
fn report_for(key: u64) -> AnalysisReport {
    AnalysisReport {
        function: format!("prop_fn_{key}"),
        path_bound: 1 + u128::from(key % 7),
        segments: 2 + (key % 9) as usize,
        instrumentation_points: 4 + (key % 5) as usize,
        measurements: 10 + u128::from(key) * 3,
        goals: 5 + (key % 4) as usize,
        heuristic_covered: (key % 4) as usize,
        checker_covered: (key % 3) as usize,
        infeasible: (key % 2) as usize,
        unknown: 0,
        measurement_runs: 1 + (key % 6) as usize,
        wcet_bound: 100 + key * 31,
        exhaustive_max: if key.is_multiple_of(3) {
            Some(90 + key * 31)
        } else {
            None
        },
    }
}

fn open_store(root: &Path, plan: FaultPlan) -> Arc<PersistentStore> {
    Arc::new(
        PersistentStore::with_config(
            PersistentStoreConfig::new(root)
                .with_disk_budget(24 * 1024)
                .with_segment_bytes(512)
                .with_fault_plan(plan),
        )
        .expect("open store"),
    )
}

/// Reads through the zero-copy disk route so the memory tier cannot mask a
/// disk-level wrong answer; panics on a payload mismatch.
fn check_read(store: &PersistentStore, key: u64, ever_put: &HashSet<u64>) {
    let got = store.with_bound_view(key, |view| view.map(|v| v.to_report()));
    match got {
        None => {} // a clean miss is always legal
        Some(report) => {
            assert!(
                ever_put.contains(&key),
                "key {key} was never put but read Some"
            );
            assert_eq!(
                report,
                report_for(key),
                "key {key} returned a WRONG payload"
            );
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Put(u64),
    Read(u64),
    Compact,
    Flush,
    /// Drop + reopen: exercises publish, snapshot load, and tail scan.
    Reopen,
    /// Drop + reopen with fault shots armed: `n % 3` torn appends and one
    /// mid-compaction crash poised over the following operations.
    CrashyReopen(u64),
    /// Drop + reopen + full recovery scan.
    Recover,
}

fn run_ops(ops: &[Op]) {
    let root = temp_root("ops");
    let mut store = open_store(&root, FaultPlan::none());
    let mut ever_put: HashSet<u64> = HashSet::new();
    for op in ops {
        match op {
            Op::Put(k) => {
                store.put_bound(*k, report_for(*k));
                ever_put.insert(*k);
            }
            Op::Read(k) => check_read(&store, *k, &ever_put),
            Op::Compact => store.compact(),
            Op::Flush => store.flush(),
            Op::Reopen => {
                drop(store);
                store = open_store(&root, FaultPlan::none());
            }
            Op::CrashyReopen(n) => {
                drop(store);
                let plan = FaultPlan::none()
                    .with(FaultKind::TornAppend, n % 3)
                    .with(FaultKind::CrashMidCompaction, 1);
                store = open_store(&root, plan);
            }
            Op::Recover => {
                drop(store);
                store = open_store(&root, FaultPlan::none());
                store.recovery_scan();
            }
        }
    }
    // Final sweep: a fresh fault-free process must still honour the
    // invariant for every key ever touched, and recovery must be clean.
    drop(store);
    let fresh = open_store(&root, FaultPlan::none());
    fresh.recovery_scan();
    for k in 0..8u64 {
        check_read(&fresh, k, &ever_put);
    }
    drop(fresh);
    let _ = std::fs::remove_dir_all(&root);
}

/// Expands a seed into a deterministic op sequence (the vendored proptest
/// generates integers only, so the structure comes from a splitmix walk).
fn ops_from_seed(seed: u64, len: u64) -> Vec<Op> {
    let mut x = seed | 1;
    let mut next = move || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..len)
        .map(|_| {
            let r = next();
            let key = r >> 32 & 7;
            match r % 17 {
                0..=5 => Op::Put(key),
                6..=11 => Op::Read(key),
                12 => Op::Compact,
                13 => Op::Flush,
                14 => Op::Reopen,
                15 => Op::CrashyReopen(r >> 16 & 7),
                _ => Op::Recover,
            }
        })
        .collect()
}

mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn any_interleaving_yields_bit_identical_or_clean_miss(
            seed in 0u64..u64::MAX,
            len in 1u64..48,
        ) {
            run_ops(&ops_from_seed(seed, len));
        }
    }
}

/// A deterministic worst case the generator may not hit: every key torn on
/// first write, then healed, then compacted twice around a crash.
#[test]
fn the_torn_then_healed_then_crash_compacted_sequence_is_sound() {
    let mut ops = Vec::new();
    ops.push(Op::CrashyReopen(2)); // arms 2 torn appends
    for k in 0..8 {
        ops.push(Op::Put(k));
        ops.push(Op::Read(k));
    }
    ops.push(Op::Recover);
    for k in 0..8 {
        ops.push(Op::Put(k)); // duplicates → dead bytes
    }
    ops.push(Op::CrashyReopen(1));
    ops.push(Op::Compact); // crashes mid-compaction
    for k in 0..8 {
        ops.push(Op::Read(k));
    }
    ops.push(Op::Compact); // retry completes
    ops.push(Op::Recover);
    for k in 0..8 {
        ops.push(Op::Read(k));
    }
    run_ops(&ops);
}

/// Two stores over one cache directory — the in-test stand-in for two
/// processes sharing `TMG_CACHE_DIR`.  Advisory segment locks must give
/// each writer its own active segment; after both exit, a third store must
/// see a consistent union index: every key from either writer, bit-identical.
#[test]
fn two_writers_over_one_directory_converge_to_a_consistent_index() {
    // Default (large) budget: nothing may be evicted, so every key from
    // either writer must survive to the third store.
    fn open_plain(root: &Path) -> Arc<PersistentStore> {
        Arc::new(
            PersistentStore::with_config(
                PersistentStoreConfig::new(root).with_segment_bytes(4 * 1024),
            )
            .expect("open store"),
        )
    }

    let root = temp_root("two-writers");
    let a = open_plain(&root);
    let b = open_plain(&root);

    let (a2, b2) = (a.clone(), b.clone());
    let ta = std::thread::spawn(move || {
        for k in 0..48u64 {
            a2.put_bound(k, report_for(k));
        }
        // Shared keys: both writers append bit-identical frames.
        for k in 200..216u64 {
            a2.put_bound(k, report_for(k));
        }
    });
    let tb = std::thread::spawn(move || {
        for k in 48..96u64 {
            b2.put_bound(k, report_for(k));
        }
        for k in 200..216u64 {
            b2.put_bound(k, report_for(k));
        }
    });
    ta.join().expect("writer a");
    tb.join().expect("writer b");

    // Each writer must at least see its own appends (the peer's may need a
    // rescan and are allowed to be misses here — but never wrong).
    let all: HashSet<u64> = (0..96).chain(200..216).collect();
    for k in 0..48u64 {
        let got = a.with_bound_view(k, |view| view.map(|v| v.to_report()));
        assert_eq!(got, Some(report_for(k)), "writer a lost its own key {k}");
    }
    for k in 48..96u64 {
        let got = b.with_bound_view(k, |view| view.map(|v| v.to_report()));
        assert_eq!(got, Some(report_for(k)), "writer b lost its own key {k}");
    }
    check_read(&a, 60, &all);
    check_read(&b, 10, &all);

    // The two writers must have used distinct active segments.
    assert!(
        a.stats().segment.segments >= 1 && b.stats().segment.segments >= 1,
        "both writers must own segments"
    );
    drop(a);
    drop(b);

    // A third process sees the union, fully warm and bit-identical, no
    // matter whose snapshot publish won the last-writer race.
    let c = open_plain(&root);
    for &k in &all {
        let got = c.with_bound_view(k, |view| view.map(|v| v.to_report()));
        assert_eq!(got, Some(report_for(k)), "union key {k} after both exit");
    }
    assert!(
        c.stats().segment.segments >= 2,
        "two writers, two+ segments"
    );
    // No stale lock files survive a clean exit.
    let locks = std::fs::read_dir(root.join("segments"))
        .map(|it| {
            it.flatten()
                .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("lock"))
                .count()
        })
        .unwrap_or(0);
    assert_eq!(locks, 0, "clean exits must release segment locks");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_published_index_snapshot_reloads_without_a_scan() {
    // The snapshot is streamed to its file with the digest taken on the
    // way; a reopen must accept it (digest over the whole body) and serve
    // every frame without rebuilding the index by scanning.
    let root = temp_root("snapshot");
    let keys: Vec<u64> = (1..=64).collect();
    {
        let store = open_store(&root, FaultPlan::none());
        for &key in &keys {
            store.put_bound(key, report_for(key));
        }
        store.flush();
        assert!(store.stats().segment.index_publishes > 0);
    }
    let reopened = open_store(&root, FaultPlan::none());
    let all: HashSet<u64> = keys.iter().copied().collect();
    let live: Vec<u64> = keys
        .iter()
        .copied()
        .filter(|&key| reopened.bound(key).is_some())
        .collect();
    assert!(!live.is_empty(), "the budget keeps the newest frames");
    for &key in &keys {
        check_read(&reopened, key, &all);
    }
    assert_eq!(reopened.stats().segment.index_rebuilds, 0);
    let _ = std::fs::remove_dir_all(&root);
}

/// Frames for `keys`, laid out as the segment log writes a segment file:
/// the 16-byte header, then each frame behind its `u32` length.
fn segment_bytes(id: u64, frames: &[Vec<u8>]) -> Vec<u8> {
    use tmg_service::segment::{SEGMENT_MAGIC, SEGMENT_VERSION};
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&SEGMENT_MAGIC);
    bytes.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&[0, 0]);
    bytes.extend_from_slice(&id.to_le_bytes());
    for frame in frames {
        bytes.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        bytes.extend_from_slice(frame);
    }
    bytes
}

fn bound_frame(key: u64, report: AnalysisReport) -> Vec<u8> {
    tmg_service::codec::encode_bound(&tmg_core::pipeline::BoundArtifact { key, report })
}

#[test]
fn a_stray_segment_id_beyond_u32_never_aliases_a_segment() {
    let root = temp_root("stray-id");
    {
        let store = open_store(&root, FaultPlan::none());
        for key in 1..=8 {
            store.put_bound(key, report_for(key));
        }
    }
    // A file named for id 2^32 + 1, whose low 32 bits name segment 1: a
    // frame for a key the log never wrote, and a different report under
    // key 1.  The log writes ids up to `u32::MAX` only, so it never loads
    // the file, and neither frame may be served.
    let stray_id = (1u64 << 32) + 1;
    let stray = root.join("segments").join(format!(
        "seg-{stray_id:016x}.{}",
        tmg_service::segment::SEGMENT_EXT
    ));
    let frames = [bound_frame(9, report_for(9)), bound_frame(1, report_for(2))];
    std::fs::write(&stray, segment_bytes(stray_id, &frames)).expect("write stray segment");
    let all: HashSet<u64> = (1..=8).collect();
    for recover in [false, true] {
        let store = open_store(&root, FaultPlan::none());
        if recover {
            let report = store.recovery_scan();
            assert_eq!(report.quarantined, 0, "{report:?}");
        }
        for key in 1..=9 {
            check_read(&store, key, &all);
        }
        assert!(
            store.with_bound_view(1, |view| view.is_some()),
            "key 1 is still served from its own segment"
        );
        let disk_bytes = store.stats().disk_bytes;
        drop(store);
        let stray_len = std::fs::metadata(&stray)
            .expect("the stray file is left alone")
            .len();
        let total: u64 = std::fs::read_dir(root.join("segments"))
            .expect("segments")
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmgs"))
            .map(|e| e.metadata().expect("metadata").len())
            .sum();
        assert!(
            disk_bytes <= total - stray_len,
            "the stray file's bytes are not accounted ({disk_bytes} of {total})"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn the_published_index_snapshot_keeps_its_byte_format() {
    // 96 bound frames over several segments, keys spread over all 64 bits.
    // The golden file holds the snapshot this log published before the
    // in-memory index packed its entries into 20 bytes: the packing changes
    // memory only, not a byte of the file.
    let root = temp_root("snapshot-format");
    {
        let store = Arc::new(
            PersistentStore::with_config(
                PersistentStoreConfig::new(&root).with_segment_bytes(4096),
            )
            .expect("open store"),
        );
        for i in 0..96u64 {
            store.put_bound(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1), report_for(i));
        }
    }
    let snapshot = std::fs::read(root.join(tmg_service::segment::INDEX_FILE)).expect("snapshot");
    let hex: String = snapshot.iter().map(|b| format!("{b:02x}")).collect();
    let golden: String = include_str!("golden/index-snapshot.hex")
        .split_whitespace()
        .collect();
    assert_eq!(hex, golden);
    let _ = std::fs::remove_dir_all(&root);
}
