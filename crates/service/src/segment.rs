//! The append-only segment log behind the disk tier.
//!
//! Artifact frames ([`crate::codec`]) are appended to bounded *segment
//! files* (`<root>/segments/seg-<id>.tmgs`); an in-memory
//! `key → (segment, offset, len)` index locates them, and an on-disk,
//! atomically published snapshot of that index (`<root>/index.tmgi`) lets a
//! fresh process start warm without re-scanning artifact data.  The design
//! in one paragraph:
//!
//! * **Appends** go to a per-process *active segment*, claimed by creating a
//!   `seg-<id>.lock` file with `O_EXCL` (the advisory lock: the pid inside
//!   marks the owner; `/proc/<pid>` liveness detects stale locks).  N
//!   processes sharing one cache directory therefore never contend on a
//!   write path — each appends to its own segment.
//! * **Durability is group commit**: appends are acknowledged immediately
//!   and fsync'd in batches (bounded by a latency window and a byte
//!   threshold).  Correctness never depends on the fsync — every frame is
//!   digest-verified on read, so a lost tail is a clean miss + recompute,
//!   never a wrong artifact.
//! * **Reads** are `pread`s of the exact record bytes into a reused arena
//!   buffer; verification is borrowed ([`codec::parse_frame`]) and payloads
//!   decode lazily, so the warm path never scans a directory and the bound
//!   fast path never builds an owned AST.
//! * **The index snapshot is an accelerator, not an authority**: it stores a
//!   per-segment *watermark* (bytes accounted); a fresh process tail-scans
//!   any segment bytes beyond the watermark, so records appended by writers
//!   that died before publishing (or by still-running peers) are recovered.
//!   A torn or missing snapshot degrades to a full scan rebuild.
//! * **Eviction is segment-granular** (oldest sealed segment first) and a
//!   **compaction** pass rewrites the live frames of mostly-dead segments —
//!   as verified raw bytes, no payload decode — into the active segment,
//!   then deletes the victims.  Crash-mid-compaction leaves bit-identical
//!   duplicates, which are reconciled (last wins) by the next scan.
//!
//! Fault-plan sites ([`crate::fault`]): `torn_append` and
//! `crash_after_publish` abandon the active segment mid-append,
//! `crash_mid_compaction` dies between the copy and the delete,
//! `torn_write`/`crash_before_publish` hit the index snapshot publish, and
//! `short_read`/`bit_flip` damage the `pread` bytes in flight.

use crate::codec::{self, CodecError};
use crate::fault::{self, FaultKind, FaultPlan};
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tmg_cfg::StableHasher;
use tmg_core::pipeline::{Stage, STAGES};

/// Segment file magic.
pub const SEGMENT_MAGIC: [u8; 4] = *b"TMGS";

/// Index snapshot magic.
pub const INDEX_MAGIC: [u8; 4] = *b"TMGI";

/// On-disk format version shared by segments and the index snapshot.
pub const SEGMENT_VERSION: u16 = 1;

/// File extension of segment files.
pub const SEGMENT_EXT: &str = "tmgs";

/// Name of the published index snapshot under the cache root.
pub const INDEX_FILE: &str = "index.tmgi";

/// Segment header: magic (4) + version (2) + reserved (2) + segment id (8).
const SEGMENT_HEADER_LEN: u64 = 16;

/// Every record is a `u32` frame length followed by the frame bytes.
const RECORD_PREFIX_LEN: u64 = 4;

/// Default rotation threshold for the active segment.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// Default group-commit latency window: the longest an acknowledged append
/// stays unsynced while later appends keep arriving.
pub const DEFAULT_GROUP_COMMIT_WINDOW_MS: u64 = 4;

/// Byte threshold that forces a group commit before the window elapses.
const GROUP_COMMIT_BYTES: u64 = 1024 * 1024;

/// Compaction trigger: a sealed segment whose live bytes are below this
/// fraction of its record bytes is rewritten.
pub const COMPACT_LIVE_RATIO: f64 = 0.5;

/// Arena buffers kept for reuse by the read path.
const ARENA_POOL_CAP: usize = 8;

/// Where one live frame lives: segment id, record offset and frame length.
/// Segment ids and record offsets fit `u32` (segment files are at most
/// `u32::MAX` bytes, and ids beyond `u32::MAX` are never loaded), so a
/// location is 12 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc {
    seg: u32,
    off: u32,
    len: u32,
}

impl Loc {
    /// The location of a record, `None` when its segment id or offset does
    /// not fit `u32`: such a record is never indexed, so it is a clean miss.
    fn new(seg: u64, off: u64, len: u32) -> Option<Loc> {
        Some(Loc {
            seg: u32::try_from(seg).ok()?,
            off: u32::try_from(off).ok()?,
            len,
        })
    }

    fn seg(&self) -> u64 {
        u64::from(self.seg)
    }

    fn off(&self) -> u64 {
        u64::from(self.off)
    }

    /// Record bytes: the length prefix plus the frame.
    fn record_len(&self) -> u64 {
        RECORD_PREFIX_LEN + u64::from(self.len)
    }
}

/// An artifact key held as two `u32` halves, so a map entry (key and
/// [`Loc`]) packs into 20 bytes at 4-byte alignment instead of 32 at 8.  It
/// hashes as the one `u64` it stands for.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key([u32; 2]);

impl Key {
    fn new(key: u64) -> Key {
        Key([key as u32, (key >> 32) as u32])
    }

    fn get(self) -> u64 {
        u64::from(self.0[0]) | u64::from(self.0[1]) << 32
    }
}

impl std::hash::Hash for Key {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.get());
    }
}

/// A writer that hashes every byte it passes on, for the snapshot digest.
struct DigestWriter<'a, W> {
    inner: &'a mut W,
    hasher: StableHasher,
}

impl<W: io::Write> io::Write for DigestWriter<'_, W> {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let written = self.inner.write(bytes)?;
        std::hash::Hasher::write(&mut self.hasher, &bytes[..written]);
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The live-frame index, `(stage, key) → Loc`, kept as one map per stage.
/// The stage is implied by the map, and a [`Key`] with a [`Loc`] is 20
/// bytes, so a bucket with its control byte is 21 bytes; the stage maps
/// grow (and rehash) one at a time.  The index is the only memory that
/// grows with the number of persisted artifacts.
#[derive(Default)]
struct Index([FxHashMap<Key, Loc>; STAGES.len()]);

impl Index {
    fn get(&self, &(stage, key): &(u8, u64)) -> Option<&Loc> {
        self.0[usize::from(stage)].get(&Key::new(key))
    }

    fn insert(&mut self, (stage, key): (u8, u64), loc: Loc) -> Option<Loc> {
        self.0[usize::from(stage)].insert(Key::new(key), loc)
    }

    fn remove(&mut self, &(stage, key): &(u8, u64)) -> Option<Loc> {
        self.0[usize::from(stage)].remove(&Key::new(key))
    }

    fn len(&self) -> usize {
        self.0.iter().map(FxHashMap::len).sum()
    }

    fn iter(&self) -> impl Iterator<Item = ((u8, u64), &Loc)> {
        (0u8..)
            .zip(&self.0)
            .flat_map(|(stage, map)| map.iter().map(move |(key, loc)| ((stage, key.get()), loc)))
    }

    fn values(&self) -> impl Iterator<Item = &Loc> {
        self.0.iter().flat_map(FxHashMap::values)
    }

    fn retain(&mut self, mut keep: impl FnMut(&Loc) -> bool) {
        for map in &mut self.0 {
            map.retain(|_, loc| keep(loc));
        }
    }
}

/// Accounting for one segment file.
#[derive(Debug, Clone, Copy, Default)]
struct SegmentInfo {
    /// Accounted byte length (the *watermark*): every record below this
    /// offset is indexed live or counted dead.  The physical file may be
    /// longer when a writer died mid-append; scans cover the gap.
    len: u64,
    /// Bytes of records the index still points at (prefix included).
    live: u64,
    /// Bytes of overwritten, discarded or abandoned records.
    dead: u64,
    /// Sealed segments take no more appends from this process.
    sealed: bool,
}

struct ActiveSegment {
    id: u64,
    file: Arc<File>,
    /// Group-commit state: bytes and appends acknowledged but not fsync'd,
    /// and when the oldest of them was written.
    unsynced: u64,
    first_unsynced: Option<Instant>,
}

#[derive(Default)]
struct LogState {
    index: Index,
    /// Ascending id = oldest first, which is the eviction order.
    segments: BTreeMap<u64, SegmentInfo>,
    readers: FxHashMap<u64, Arc<File>>,
    active: Option<ActiveSegment>,
    total_bytes: u64,
}

impl LogState {
    fn mark_dead(&mut self, loc: &Loc) {
        if let Some(info) = self.segments.get_mut(&loc.seg()) {
            let n = loc.record_len();
            info.live = info.live.saturating_sub(n);
            info.dead += n;
        }
    }
}

/// What a recovery pass found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Records examined (valid frames plus rejected ones).
    pub scanned: u64,
    /// Records that failed verification and were quarantined: torn tails
    /// are truncated away, mid-segment corruption ends the segment's
    /// scannable prefix.  Each becomes a clean miss on its next request.
    pub quarantined: u64,
    /// Orphaned index `.tmp` files reclaimed (crashed mid-publish).
    pub reclaimed_tmp: u64,
}

/// Counter snapshot of the segment tier, rendered into `tmg-tier-stats/v1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentStats {
    /// Segment files currently accounted.
    pub segments: u64,
    /// Bytes of live (indexed) records.
    pub live_bytes: u64,
    /// Bytes of dead records awaiting compaction or eviction.
    pub dead_bytes: u64,
    /// Compaction passes completed (victim segment deleted).
    pub compactions: u64,
    /// Live frames rewritten by compaction (raw verified bytes, no decode).
    pub compacted_frames: u64,
    /// Batched fsyncs issued by group commit.
    pub group_commit_batches: u64,
    /// The configured group-commit latency window, in milliseconds.
    pub group_commit_window_ms: u64,
    /// Warm hits served without materializing an owned artifact payload
    /// (borrowed verify + lazy decode; the bound fast path).
    pub zero_copy_hits: u64,
    /// Warm hits that materialized an owned artifact (AST-bearing stages).
    pub decoded_hits: u64,
    /// Index snapshots atomically published.
    pub index_publishes: u64,
    /// Opens that found no usable snapshot and rebuilt by scanning.
    pub index_rebuilds: u64,
}

/// A frame read into an arena buffer; hands the buffer back to the pool on
/// drop.  [`FrameBuf::frame`] is the raw (still-encoded, still-unverified)
/// frame bytes — verification happens exactly once, in the caller's decode.
pub struct FrameBuf {
    buf: Vec<u8>,
    pool: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl FrameBuf {
    /// The frame bytes (record minus its length prefix).
    pub fn frame(&self) -> &[u8] {
        &self.buf[RECORD_PREFIX_LEN as usize..]
    }
}

impl Drop for FrameBuf {
    fn drop(&mut self) {
        if let Ok(mut pool) = self.pool.lock() {
            if pool.len() < ARENA_POOL_CAP {
                pool.push(std::mem::take(&mut self.buf));
            }
        }
    }
}

/// Construction options for a [`SegmentLog`].
#[derive(Debug, Clone)]
pub struct SegmentLogOptions {
    /// Cache root; segments live under `<root>/segments/`.
    pub root: PathBuf,
    /// Byte budget across all accounted segments.
    pub budget: u64,
    /// Active-segment rotation threshold.
    pub segment_bytes: u64,
    /// Group-commit latency window in milliseconds.
    pub group_commit_window_ms: u64,
    /// Fault-injection plan.
    pub faults: FaultPlan,
}

/// The append-only segment log.  All operations are infallible from the
/// caller's perspective: I/O errors degrade to misses (reads) or dropped
/// appends (writes) — the analysis never depends on the disk succeeding.
pub struct SegmentLog {
    root: PathBuf,
    seg_dir: PathBuf,
    budget: u64,
    segment_bytes: u64,
    window: Duration,
    window_ms: u64,
    pub(crate) faults: FaultPlan,
    state: Mutex<Option<LogState>>,
    arena: Arc<Mutex<Vec<Vec<u8>>>>,
    tmp_seq: AtomicU64,
    pub(crate) hits: [AtomicU64; 6],
    pub(crate) misses: [AtomicU64; 6],
    pub(crate) stores: [AtomicU64; 6],
    pub(crate) evictions: [AtomicU64; 6],
    pub(crate) quarantined: [AtomicU64; 6],
    zero_copy_hits: AtomicU64,
    decoded_hits: AtomicU64,
    compactions: AtomicU64,
    compacted_frames: AtomicU64,
    group_commit_batches: AtomicU64,
    index_publishes: AtomicU64,
    index_rebuilds: AtomicU64,
}

impl SegmentLog {
    /// Opens (or creates) the log.  Like the store, this is lazy: no
    /// directory scan and no index read happens until the first operation —
    /// an unusable root must still fail here so operators see a typo'd
    /// cache path instead of silently losing persistence.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the cache directories cannot be created.
    pub fn open(options: SegmentLogOptions) -> io::Result<SegmentLog> {
        let seg_dir = options.root.join("segments");
        fs::create_dir_all(&seg_dir)?;
        Ok(SegmentLog {
            seg_dir,
            budget: options.budget,
            segment_bytes: options
                .segment_bytes
                .clamp(SEGMENT_HEADER_LEN + 64, u64::from(u32::MAX)),
            window: Duration::from_millis(options.group_commit_window_ms),
            window_ms: options.group_commit_window_ms,
            faults: options.faults,
            root: options.root,
            state: Mutex::new(None),
            arena: Arc::new(Mutex::new(Vec::new())),
            tmp_seq: AtomicU64::new(0),
            hits: Default::default(),
            misses: Default::default(),
            stores: Default::default(),
            evictions: Default::default(),
            quarantined: Default::default(),
            zero_copy_hits: AtomicU64::new(0),
            decoded_hits: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            compacted_frames: AtomicU64::new(0),
            group_commit_batches: AtomicU64::new(0),
            index_publishes: AtomicU64::new(0),
            index_rebuilds: AtomicU64::new(0),
        })
    }

    /// Cache root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn segment_path(&self, id: u64) -> PathBuf {
        self.seg_dir.join(format!("seg-{id:016x}.{SEGMENT_EXT}"))
    }

    fn lock_path(&self, id: u64) -> PathBuf {
        self.seg_dir.join(format!("seg-{id:016x}.lock"))
    }

    fn state_guard(&self) -> MutexGuard<'_, Option<LogState>> {
        let mut guard = self.state.lock().expect("segment log state");
        if guard.is_none() {
            *guard = Some(self.load_state());
        }
        guard
    }

    // -- counters ----------------------------------------------------------

    /// Records a warm probe outcome for `stage`.
    pub(crate) fn record(&self, stage: Stage, hit: bool) {
        let counters = if hit { &self.hits } else { &self.misses };
        counters[stage.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a hit served without materializing an owned payload.
    pub(crate) fn note_zero_copy_hit(&self) {
        self.zero_copy_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a hit that decoded an owned artifact.
    pub(crate) fn note_decoded_hit(&self) {
        self.decoded_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Bytes currently accounted across all segments.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.state_guard().as_ref().expect("loaded").total_bytes
    }

    /// The configured byte budget.
    pub(crate) fn budget(&self) -> u64 {
        self.budget
    }

    /// Segment-tier counter snapshot.
    pub fn snapshot(&self) -> SegmentStats {
        let (segments, live, dead) = {
            let guard = self.state_guard();
            let state = guard.as_ref().expect("loaded");
            let live = state.segments.values().map(|s| s.live).sum();
            let dead = state.segments.values().map(|s| s.dead).sum();
            (state.segments.len() as u64, live, dead)
        };
        SegmentStats {
            segments,
            live_bytes: live,
            dead_bytes: dead,
            compactions: self.compactions.load(Ordering::Relaxed),
            compacted_frames: self.compacted_frames.load(Ordering::Relaxed),
            group_commit_batches: self.group_commit_batches.load(Ordering::Relaxed),
            group_commit_window_ms: self.window_ms,
            zero_copy_hits: self.zero_copy_hits.load(Ordering::Relaxed),
            decoded_hits: self.decoded_hits.load(Ordering::Relaxed),
            index_publishes: self.index_publishes.load(Ordering::Relaxed),
            index_rebuilds: self.index_rebuilds.load(Ordering::Relaxed),
        }
    }

    // -- append ------------------------------------------------------------

    /// Appends a frame for `(stage, key)`.  Returns `true` when the record
    /// was written and indexed (counted as a store by the caller).
    pub(crate) fn append(&self, stage: Stage, key: u64, frame: &[u8]) -> bool {
        let _span = tmg_obs::span("segment:append");
        let mut guard = self.state_guard();
        let state = guard.as_mut().expect("loaded");
        if self.append_frame_locked(state, stage, key, frame, true) {
            self.stores[stage.index()].fetch_add(1, Ordering::Relaxed);
            self.evict_locked(state);
            self.maybe_compact_locked(state);
            true
        } else {
            false
        }
    }

    /// The shared append path.  `with_faults` is set only for caller appends
    /// (compaction rewrites must stay deterministic under a fault plan).
    fn append_frame_locked(
        &self,
        state: &mut LogState,
        stage: Stage,
        key: u64,
        frame: &[u8],
        with_faults: bool,
    ) -> bool {
        let rec_len = RECORD_PREFIX_LEN + frame.len() as u64;
        if let Some(active) = &state.active {
            let cur = state.segments[&active.id].len;
            if cur + rec_len > self.segment_bytes && cur > SEGMENT_HEADER_LEN {
                self.seal_active_locked(state, true);
            }
        }
        if !self.ensure_active_locked(state) {
            return false;
        }
        let active_id = state.active.as_ref().expect("active").id;
        let file = state.active.as_ref().expect("active").file.clone();
        let off = state.segments[&active_id].len;
        let mut record = Vec::with_capacity(rec_len as usize);
        record.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        record.extend_from_slice(frame);

        if with_faults && self.faults.take(FaultKind::TornAppend) {
            // The writer dies half a record in.  The watermark stays at
            // `off`, so a scan hits the torn bytes and stops cleanly; this
            // process abandons the segment as a real crash would.
            let _ = file.write_all_at(&fault::damage(FaultKind::TornAppend, &record), off);
            self.abandon_active_locked(state);
            return false;
        }
        if file.write_all_at(&record, off).is_err() {
            return false;
        }
        if with_faults && self.faults.take(FaultKind::CrashAfterPublish) {
            // Durable but unaccounted: the writer dies right after the
            // append, before touching its in-memory index — and before ever
            // publishing a snapshot covering the record, so a fresh process
            // must recover it by tail-scanning past the watermark.
            let _ = file.sync_data();
            self.abandon_active_locked(state);
            return false;
        }

        let info = state.segments.get_mut(&active_id).expect("active info");
        info.len += rec_len;
        info.live += rec_len;
        state.total_bytes += rec_len;
        // The rotation above keeps every record offset below
        // `segment_bytes <= u32::MAX`, and ids past `u32::MAX` are never
        // claimed.
        let loc = Loc::new(active_id, off, frame.len() as u32).expect("offset and id fit u32");
        if let Some(old) = state.index.insert((stage.index() as u8, key), loc) {
            state.mark_dead(&old);
        }

        // Group commit: acknowledge now, fsync when the window elapses or
        // enough bytes pile up.  Every seal/flush/drop syncs the remainder.
        let active = state.active.as_mut().expect("active");
        active.unsynced += rec_len;
        let now = Instant::now();
        let due = active.unsynced >= GROUP_COMMIT_BYTES
            || active
                .first_unsynced
                .is_some_and(|t| now.duration_since(t) >= self.window);
        if active.first_unsynced.is_none() {
            active.first_unsynced = Some(now);
        }
        if due {
            active.unsynced = 0;
            active.first_unsynced = None;
            let file = active.file.clone();
            let _span = tmg_obs::span("segment:fsync");
            let _ = file.sync_data();
            self.group_commit_batches.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Claims a fresh active segment: `O_EXCL` creation of the lock file
    /// arbitrates ids between processes.
    fn ensure_active_locked(&self, state: &mut LogState) -> bool {
        if state.active.is_some() {
            return true;
        }
        let mut id = state.segments.keys().max().copied().unwrap_or(0) + 1;
        let file = loop {
            if id > u64::from(u32::MAX) {
                return false;
            }
            let lock = self.lock_path(id);
            match OpenOptions::new().write(true).create_new(true).open(&lock) {
                Ok(mut lock_file) => {
                    if self.segment_path(id).exists() {
                        // A segment this process never loaded already owns
                        // the id (concurrent writer or leftover): skip it
                        // rather than truncate someone's data.
                        let _ = fs::remove_file(&lock);
                        id += 1;
                        continue;
                    }
                    let _ = lock_file.write_all(std::process::id().to_string().as_bytes());
                    let _ = lock_file.sync_all();
                    match OpenOptions::new()
                        .read(true)
                        .write(true)
                        .create(true)
                        .truncate(true)
                        .open(self.segment_path(id))
                    {
                        Ok(file) => break file,
                        Err(_) => {
                            let _ = fs::remove_file(&lock);
                            return false;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    id += 1;
                }
                Err(_) => return false,
            }
        };
        let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN as usize);
        header.extend_from_slice(&SEGMENT_MAGIC);
        header.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
        header.extend_from_slice(&0u16.to_le_bytes());
        header.extend_from_slice(&id.to_le_bytes());
        if file.write_all_at(&header, 0).is_err() {
            let _ = fs::remove_file(self.lock_path(id));
            let _ = fs::remove_file(self.segment_path(id));
            return false;
        }
        state.segments.insert(
            id,
            SegmentInfo {
                len: SEGMENT_HEADER_LEN,
                live: 0,
                dead: 0,
                sealed: false,
            },
        );
        state.total_bytes += SEGMENT_HEADER_LEN;
        let file = Arc::new(file);
        state.readers.insert(id, file.clone());
        state.active = Some(ActiveSegment {
            id,
            file,
            unsynced: 0,
            first_unsynced: None,
        });
        true
    }

    /// Seals the active segment: syncs the tail, releases the lock and
    /// (optionally) publishes the index snapshot.
    fn seal_active_locked(&self, state: &mut LogState, publish: bool) {
        if let Some(active) = state.active.take() {
            let _ = active.file.sync_data();
            if active.unsynced > 0 {
                self.group_commit_batches.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(info) = state.segments.get_mut(&active.id) {
                info.sealed = true;
            }
            let _ = fs::remove_file(self.lock_path(active.id));
            if publish {
                self.publish_index_locked(state);
            }
        }
    }

    /// Abandons the active segment as a crashed writer would: sealed in our
    /// accounting at the pre-crash watermark, lock released, nothing
    /// published.
    fn abandon_active_locked(&self, state: &mut LogState) {
        if let Some(active) = state.active.take() {
            if let Some(info) = state.segments.get_mut(&active.id) {
                info.sealed = true;
            }
            let _ = fs::remove_file(self.lock_path(active.id));
        }
    }

    // -- read --------------------------------------------------------------

    /// `pread`s the raw record for `(stage, key)` into an arena buffer.
    /// Returns the still-unverified frame bytes — the caller's decode is
    /// the single verification pass; on failure it must call
    /// [`SegmentLog::discard`].
    pub(crate) fn read(&self, stage: Stage, key: u64) -> Option<FrameBuf> {
        let (loc, file) = {
            let mut guard = self.state_guard();
            let state = guard.as_mut().expect("loaded");
            let loc = *state.index.get(&(stage.index() as u8, key))?;
            match self.reader_locked(state, loc.seg()) {
                Some(file) => (loc, file),
                None => {
                    // The segment vanished (evicted or truncated by a peer):
                    // every entry pointing at it is now a clean miss.
                    self.drop_segment_locked(state, loc.seg(), false);
                    return None;
                }
            }
        };
        let len = loc.record_len() as usize;
        let mut buf = {
            let mut pool = self.arena.lock().expect("arena");
            pool.pop().unwrap_or_default()
        };
        buf.clear();
        buf.resize(len, 0);
        if file.read_exact_at(&mut buf, loc.off()).is_err() {
            self.discard(stage, key, &CodecError::Malformed("unreadable record"));
            return None;
        }
        for kind in [FaultKind::ShortRead, FaultKind::BitFlip] {
            if self.faults.take(kind) {
                let damaged = fault::damage(kind, &buf);
                buf.clear();
                buf.extend_from_slice(&damaged);
            }
        }
        if buf.len() < RECORD_PREFIX_LEN as usize
            || u32::from_le_bytes(buf[..4].try_into().expect("prefix")) != loc.len
        {
            self.discard(stage, key, &CodecError::Malformed("record prefix mismatch"));
            return None;
        }
        Some(FrameBuf {
            buf,
            pool: self.arena.clone(),
        })
    }

    fn reader_locked(&self, state: &mut LogState, seg: u64) -> Option<Arc<File>> {
        if let Some(file) = state.readers.get(&seg) {
            return Some(file.clone());
        }
        let file = Arc::new(File::open(self.segment_path(seg)).ok()?);
        state.readers.insert(seg, file.clone());
        Some(file)
    }

    /// Drops a frame that failed verification; the slot becomes a clean
    /// miss and the bytes count as dead until compaction reclaims them.
    pub(crate) fn discard(&self, stage: Stage, key: u64, error: &CodecError) {
        eprintln!(
            "tmg-service: discarding unusable cache record {}/{key:016x} ({error})",
            stage.name()
        );
        let mut guard = self.state_guard();
        let state = guard.as_mut().expect("loaded");
        if let Some(old) = state.index.remove(&(stage.index() as u8, key)) {
            state.mark_dead(&old);
        }
    }

    // -- eviction & compaction ---------------------------------------------

    /// Whether a lock file names a live foreign owner; stale locks are
    /// reclaimed on the way.
    fn lock_alive(&self, id: u64) -> bool {
        let path = self.lock_path(id);
        let Ok(text) = fs::read_to_string(&path) else {
            return false;
        };
        let Ok(pid) = text.trim().parse::<u32>() else {
            let _ = fs::remove_file(&path);
            return false;
        };
        if pid == std::process::id() {
            return true;
        }
        if Path::new("/proc").join(pid.to_string()).exists() {
            return true;
        }
        let _ = fs::remove_file(&path);
        false
    }

    /// Deletes whole segments, oldest first, until the byte budget holds.
    /// The active segment and live peers' segments are never victims.
    fn evict_locked(&self, state: &mut LogState) {
        while state.total_bytes > self.budget {
            let active_id = state.active.as_ref().map(|a| a.id);
            let victim = state
                .segments
                .iter()
                .filter(|(id, info)| Some(**id) != active_id && info.sealed)
                .map(|(id, _)| *id)
                .find(|id| !self.lock_alive(*id));
            let Some(victim) = victim else { break };
            self.drop_segment_locked(state, victim, true);
        }
    }

    /// Removes a segment and every index entry into it.
    fn drop_segment_locked(&self, state: &mut LogState, id: u64, count_evictions: bool) {
        let doomed: Vec<(u8, u64)> = state
            .index
            .iter()
            .filter(|(_, loc)| loc.seg() == id)
            .map(|(k, _)| k)
            .collect();
        for key in doomed {
            state.index.remove(&key);
            if count_evictions {
                self.evictions[key.0 as usize].fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(info) = state.segments.remove(&id) {
            state.total_bytes = state.total_bytes.saturating_sub(info.len);
        }
        state.readers.remove(&id);
        let _ = fs::remove_file(self.segment_path(id));
        let _ = fs::remove_file(self.lock_path(id));
    }

    /// Whether the on-disk file holds nothing beyond the accounted
    /// watermark.  A longer file means an unreconciled tail — a torn append
    /// or a crashed writer's durable-but-unindexed record — which only a
    /// scan (fresh load or recovery) may judge; compaction must not delete
    /// it.
    fn physical_matches_accounting(&self, id: u64, info: &SegmentInfo) -> bool {
        fs::metadata(self.segment_path(id)).map_or(true, |m| m.len() <= info.len)
    }

    /// Compacts sealed segments whose live ratio fell under
    /// [`COMPACT_LIVE_RATIO`]; empty sealed segments are simply dropped.
    fn maybe_compact_locked(&self, state: &mut LogState) {
        loop {
            let active_id = state.active.as_ref().map(|a| a.id);
            let victim = state
                .segments
                .iter()
                .filter(|(id, info)| Some(**id) != active_id && info.sealed)
                .filter(|(_, info)| {
                    let records = info.len.saturating_sub(SEGMENT_HEADER_LEN);
                    records == 0
                        || (info.dead > 0
                            && (info.live as f64) < COMPACT_LIVE_RATIO * records as f64)
                })
                .filter(|(id, info)| self.physical_matches_accounting(**id, info))
                .map(|(id, _)| *id)
                .find(|id| !self.lock_alive(*id));
            let Some(victim) = victim else { return };
            if !self.compact_segment_locked(state, victim) {
                return;
            }
        }
    }

    /// Forces a compaction pass over every sealed segment that holds any
    /// dead bytes, regardless of the live-ratio trigger.  Benchmarks and
    /// tests use this for deterministic reclamation.
    pub fn force_compact(&self) {
        let mut guard = self.state_guard();
        let state = guard.as_mut().expect("loaded");
        loop {
            let active_id = state.active.as_ref().map(|a| a.id);
            let victim = state
                .segments
                .iter()
                .filter(|(id, info)| Some(**id) != active_id && info.sealed)
                .filter(|(_, info)| info.dead > 0 || info.len <= SEGMENT_HEADER_LEN)
                .filter(|(id, info)| self.physical_matches_accounting(**id, info))
                .map(|(id, _)| *id)
                .find(|id| !self.lock_alive(*id));
            let Some(victim) = victim else { return };
            if !self.compact_segment_locked(state, victim) {
                return;
            }
        }
    }

    /// Rewrites the victim's live frames (verified raw bytes, no payload
    /// decode) into the active segment, then deletes the victim.  Returns
    /// `false` when an injected crash or an append failure stopped the pass
    /// — the victim stays, already-copied frames exist twice bit-identically.
    fn compact_segment_locked(&self, state: &mut LogState, victim: u64) -> bool {
        let _span = tmg_obs::span("segment:compaction");
        let mut entries: Vec<((u8, u64), Loc)> = state
            .index
            .iter()
            .filter(|(_, loc)| loc.seg() == victim)
            .map(|(k, loc)| (k, *loc))
            .collect();
        entries.sort_by_key(|(_, loc)| loc.off);
        if !entries.is_empty() {
            let Some(reader) = self.reader_locked(state, victim) else {
                self.drop_segment_locked(state, victim, false);
                return true;
            };
            for (key, loc) in entries {
                let mut buf = vec![0u8; loc.record_len() as usize];
                if reader.read_exact_at(&mut buf, loc.off()).is_err()
                    || codec::parse_frame(&buf[RECORD_PREFIX_LEN as usize..]).is_err()
                {
                    // Unreadable under compaction = unreadable to a reader:
                    // quarantine it instead of copying rot forward.
                    state.index.remove(&key);
                    state.mark_dead(&loc);
                    self.quarantined[key.0 as usize].fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let stage = STAGES[key.0 as usize];
                if !self.append_frame_locked(
                    state,
                    stage,
                    key.1,
                    &buf[RECORD_PREFIX_LEN as usize..],
                    false,
                ) {
                    return false;
                }
                self.compacted_frames.fetch_add(1, Ordering::Relaxed);
                if self.faults.take(FaultKind::CrashMidCompaction) {
                    // Died after copying: the copied frames are indexed at
                    // their new home, the victim (with bit-identical
                    // duplicates) survives for the next scan to reconcile.
                    return false;
                }
            }
        }
        self.drop_segment_locked(state, victim, false);
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.publish_index_locked(state);
        true
    }

    // -- index snapshot ----------------------------------------------------

    /// Writes the index snapshot to `out`, digest last.  It is streamed,
    /// never built in memory whole: the snapshot grows with every persisted
    /// frame, and a buffer of it would be the largest allocation of a
    /// long-running writer.
    fn write_index(state: &LogState, out: &mut impl io::Write) -> io::Result<()> {
        let mut out = DigestWriter {
            inner: out,
            hasher: StableHasher::new(),
        };
        out.write_all(&INDEX_MAGIC)?;
        out.write_all(&SEGMENT_VERSION.to_le_bytes())?;
        out.write_all(&0u16.to_le_bytes())?;
        out.write_all(&(state.segments.len() as u32).to_le_bytes())?;
        for (id, info) in &state.segments {
            out.write_all(&id.to_le_bytes())?;
            out.write_all(&info.len.to_le_bytes())?;
            out.write_all(&[u8::from(info.sealed)])?;
        }
        out.write_all(&(state.index.len() as u64).to_le_bytes())?;
        for ((stage, key), loc) in state.index.iter() {
            out.write_all(&[stage])?;
            out.write_all(&key.to_le_bytes())?;
            out.write_all(&loc.seg().to_le_bytes())?;
            out.write_all(&loc.off().to_le_bytes())?;
            out.write_all(&loc.len.to_le_bytes())?;
        }
        let digest = std::hash::Hasher::finish(&out.hasher);
        out.inner.write_all(&digest.to_le_bytes())
    }

    /// Parses an index snapshot; `None` means torn/foreign/corrupt, which
    /// degrades to a scan rebuild.  The format stores segment ids and
    /// offsets as `u64`; an entry whose values do not fit a [`Loc`] is
    /// dropped (a clean miss).
    #[allow(clippy::type_complexity)]
    fn parse_index(bytes: &[u8]) -> Option<(Vec<(u64, u64, bool)>, Vec<((u8, u64), Loc)>)> {
        if bytes.len() < 8 + 8 || bytes[0..4] != INDEX_MAGIC {
            return None;
        }
        if u16::from_le_bytes(bytes[4..6].try_into().ok()?) != SEGMENT_VERSION {
            return None;
        }
        let body_end = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[body_end..].try_into().ok()?);
        let mut hasher = StableHasher::new();
        std::hash::Hasher::write(&mut hasher, &bytes[..body_end]);
        if std::hash::Hasher::finish(&hasher) != stored {
            return None;
        }
        let mut pos = 8usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let end = pos.checked_add(n)?;
            if end > body_end {
                return None;
            }
            let slice = &bytes[*pos..end];
            *pos = end;
            Some(slice)
        };
        let n_segments = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
        let mut segments = Vec::with_capacity(n_segments as usize);
        for _ in 0..n_segments {
            let id = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
            let len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
            let sealed = take(&mut pos, 1)?[0] != 0;
            segments.push((id, len, sealed));
        }
        let n_entries = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
        let mut entries = Vec::new();
        for _ in 0..n_entries {
            let stage = take(&mut pos, 1)?[0];
            if stage as usize >= STAGES.len() {
                return None;
            }
            let key = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
            let seg = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
            let off = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
            let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
            if let Some(loc) = Loc::new(seg, off, len) {
                entries.push(((stage, key), loc));
            }
        }
        if pos != body_end {
            return None;
        }
        Some((segments, entries))
    }

    /// Atomically publishes the index snapshot: unique tmp, fsync, rename,
    /// directory fsync.  Concurrent publishers race last-writer-wins, which
    /// is safe because the snapshot is only an accelerator — watermarks make
    /// a stale snapshot recoverable by tail scan.
    fn publish_index_locked(&self, state: &LogState) {
        let final_path = self.root.join(INDEX_FILE);
        if self.faults.take(FaultKind::TornWrite) {
            // The legacy non-atomic write dying mid-file: half a snapshot
            // lands on the final path.  The digest check rejects it and the
            // next open rebuilds by scanning.
            let mut bytes = Vec::new();
            Self::write_index(state, &mut bytes).expect("writing to a Vec cannot fail");
            let _ = fs::write(&final_path, fault::damage(FaultKind::TornWrite, &bytes));
            return;
        }
        let tmp = self.root.join(format!(
            "index.{}-{}.tmp",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let write = |dest: &Path| -> io::Result<()> {
            let mut file = io::BufWriter::new(File::create(dest)?);
            Self::write_index(state, &mut file)?;
            file.into_inner()
                .map_err(io::IntoInnerError::into_error)?
                .sync_all()
        };
        if write(&tmp).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        if self.faults.take(FaultKind::CrashBeforePublish) {
            // Crashed between the tmp fsync and the rename: the snapshot is
            // never published, the orphan .tmp stays for recovery to
            // reclaim.  Nothing is lost — the segments hold the data.
            return;
        }
        if fs::rename(&tmp, &final_path).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        if let Ok(dir) = File::open(&self.root) {
            let _ = dir.sync_all();
        }
        self.index_publishes.fetch_add(1, Ordering::Relaxed);
    }

    // -- load / scan / recovery --------------------------------------------

    /// Segment files on disk, as `(id, physical_len)`.  A file whose id
    /// exceeds `u32::MAX` is not one this log writes: it is left alone and
    /// never loaded, so it cannot alias the segment its truncated id names.
    fn list_segments(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let Ok(entries) = fs::read_dir(&self.seg_dir) else {
            return out;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(SEGMENT_EXT) {
                continue;
            }
            let Some(id) = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(|s| s.strip_prefix("seg-"))
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .filter(|&id| id <= u64::from(u32::MAX))
            else {
                continue;
            };
            let Ok(meta) = entry.metadata() else { continue };
            out.push((id, meta.len()));
        }
        out.sort_unstable();
        out
    }

    /// Scans records in `[from, to)`; returns the valid frames, the end of
    /// the valid prefix, and whether a torn/corrupt record stopped the scan.
    #[allow(clippy::type_complexity)]
    fn scan_records(file: &File, from: u64, to: u64) -> (Vec<(Stage, u64, u64, u32)>, u64, bool) {
        let mut found = Vec::new();
        let mut pos = from;
        while pos + RECORD_PREFIX_LEN <= to {
            let mut prefix = [0u8; 4];
            if file.read_exact_at(&mut prefix, pos).is_err() {
                return (found, pos, true);
            }
            let len = u64::from(u32::from_le_bytes(prefix));
            if pos + RECORD_PREFIX_LEN + len > to {
                return (found, pos, true);
            }
            let mut frame = vec![0u8; len as usize];
            if file
                .read_exact_at(&mut frame, pos + RECORD_PREFIX_LEN)
                .is_err()
            {
                return (found, pos, true);
            }
            match codec::parse_frame(&frame) {
                Ok(view) => {
                    found.push((view.stage, view.key, pos, len as u32));
                    pos += RECORD_PREFIX_LEN + len;
                }
                Err(_) => return (found, pos, true),
            }
        }
        (found, pos, pos != to)
    }

    /// Builds the in-memory state: read the snapshot, list the segments,
    /// tail-scan everything past the watermarks.  The warm path therefore
    /// costs one small file read plus one `read_dir` of the segments
    /// directory — never a scan over artifact data.
    fn load_state(&self) -> LogState {
        let mut state = LogState::default();
        let _ = fs::create_dir_all(&self.seg_dir);
        let mut watermarks: FxHashMap<u64, u64> = FxHashMap::default();
        if let Ok(bytes) = fs::read(self.root.join(INDEX_FILE)) {
            match Self::parse_index(&bytes) {
                Some((segments, entries)) => {
                    for (id, len, _) in segments {
                        watermarks.insert(id, len);
                    }
                    for (key, loc) in entries {
                        state.index.insert(key, loc);
                    }
                }
                None => {
                    self.index_rebuilds.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let on_disk = self.list_segments();
        for (id, file_len) in &on_disk {
            if *file_len < SEGMENT_HEADER_LEN {
                // Died creating the segment; nothing to account.
                continue;
            }
            let watermark = watermarks
                .get(id)
                .copied()
                .unwrap_or(SEGMENT_HEADER_LEN)
                .clamp(SEGMENT_HEADER_LEN, *file_len);
            let mut accounted = watermark;
            if *file_len > watermark {
                if let Ok(file) = File::open(self.segment_path(*id)) {
                    let (found, valid_end, _) = Self::scan_records(&file, watermark, *file_len);
                    for (stage, key, off, len) in found {
                        if let Some(loc) = Loc::new(*id, off, len) {
                            state.index.insert((stage.index() as u8, key), loc);
                        }
                    }
                    accounted = valid_end;
                }
            }
            state.segments.insert(
                *id,
                SegmentInfo {
                    len: accounted,
                    live: 0,
                    dead: 0,
                    sealed: true,
                },
            );
        }
        Self::settle_accounting(&mut state);
        state
    }

    /// Recomputes live/dead bytes and drops entries that point outside
    /// their segment's accounted range (truncated or vanished segments).
    fn settle_accounting(state: &mut LogState) {
        let segments = std::mem::take(&mut state.segments);
        state.index.retain(|loc| {
            segments
                .get(&loc.seg())
                .is_some_and(|info| loc.off() + loc.record_len() <= info.len)
        });
        state.segments = segments;
        for info in state.segments.values_mut() {
            info.live = 0;
        }
        for loc in state.index.values() {
            if let Some(info) = state.segments.get_mut(&loc.seg()) {
                info.live += loc.record_len();
            }
        }
        state.total_bytes = 0;
        for info in state.segments.values_mut() {
            info.dead = info.len.saturating_sub(SEGMENT_HEADER_LEN + info.live);
            state.total_bytes += info.len;
        }
    }

    /// Full-verification recovery pass: every record of every segment is
    /// re-verified (not just past the watermarks), torn tails are truncated
    /// away, orphaned index tmps are reclaimed, and a fresh snapshot is
    /// published.  Servers run this once at startup; it reads every frame,
    /// which is exactly what the lazy warm path avoids.
    pub fn recovery_scan(&self) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let mut guard = self.state.lock().expect("segment log state");
        if let Some(state) = guard.as_mut() {
            self.seal_active_locked(state, false);
        }
        let _ = fs::create_dir_all(&self.seg_dir);
        if let Ok(entries) = fs::read_dir(&self.root) {
            for entry in entries.flatten() {
                let path = entry.path();
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if name.starts_with("index.") && name.ends_with(".tmp") {
                    let _ = fs::remove_file(&path);
                    report.reclaimed_tmp += 1;
                }
            }
        }
        let mut state = LogState::default();
        for (id, file_len) in self.list_segments() {
            let path = self.segment_path(id);
            let locked = self.lock_alive(id);
            if file_len < SEGMENT_HEADER_LEN || !self.header_ok(&path, id) {
                // Died during creation, or rot in the header itself: the
                // whole segment is unusable.
                report.quarantined += 1;
                if !locked {
                    let _ = fs::remove_file(&path);
                }
                continue;
            }
            let Ok(file) = OpenOptions::new().read(true).write(true).open(&path) else {
                continue;
            };
            let (found, valid_end, torn) = Self::scan_records(&file, SEGMENT_HEADER_LEN, file_len);
            report.scanned += found.len() as u64;
            if torn {
                report.scanned += 1;
                report.quarantined += 1;
                self.count_quarantined_stage(&file, valid_end, file_len);
                if !locked {
                    let _ = file.set_len(valid_end);
                    let _ = file.sync_data();
                }
            }
            for (stage, key, off, len) in found {
                if let Some(loc) = Loc::new(id, off, len) {
                    state.index.insert((stage.index() as u8, key), loc);
                }
            }
            state.segments.insert(
                id,
                SegmentInfo {
                    len: valid_end,
                    live: 0,
                    dead: 0,
                    sealed: true,
                },
            );
        }
        Self::settle_accounting(&mut state);
        self.publish_index_locked(&state);
        *guard = Some(state);
        report
    }

    /// Best-effort per-stage attribution of a quarantined record: the stage
    /// tag sits 6 bytes into the frame (10 into the record) and may itself
    /// be unreadable, in which case only the report total counts it.
    fn count_quarantined_stage(&self, file: &File, record_at: u64, file_len: u64) {
        let tag_at = record_at + RECORD_PREFIX_LEN + 6;
        if tag_at < file_len {
            let mut tag = [0u8; 1];
            if file.read_exact_at(&mut tag, tag_at).is_ok() && (tag[0] as usize) < STAGES.len() {
                self.quarantined[tag[0] as usize].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn header_ok(&self, path: &Path, id: u64) -> bool {
        let Ok(file) = File::open(path) else {
            return false;
        };
        let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
        if file.read_exact_at(&mut header, 0).is_err() {
            return false;
        }
        header[0..4] == SEGMENT_MAGIC
            && u16::from_le_bytes(header[4..6].try_into().expect("version")) == SEGMENT_VERSION
            && u64::from_le_bytes(header[8..16].try_into().expect("id")) == id
    }

    /// Syncs the active segment's unsynced tail and publishes the index
    /// snapshot.  Part of the server's graceful drain.
    pub fn flush(&self) {
        let mut guard = self.state_guard();
        let state = guard.as_mut().expect("loaded");
        if let Some(active) = state.active.as_mut() {
            if active.unsynced > 0 {
                active.unsynced = 0;
                active.first_unsynced = None;
                let _span = tmg_obs::span("segment:fsync");
                let _ = active.file.sync_data();
                self.group_commit_batches.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.publish_index_locked(state);
    }
}

impl Drop for SegmentLog {
    fn drop(&mut self) {
        // A clean exit seals the active segment (releasing the advisory
        // lock) and publishes the snapshot so the next process starts warm
        // without any tail scanning.  Crashed processes skip this — that is
        // what the watermark scan recovers from.
        let Ok(mut guard) = self.state.lock() else {
            return;
        };
        if let Some(state) = guard.as_mut() {
            self.seal_active_locked(state, true);
        }
    }
}

impl std::fmt::Debug for SegmentLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentLog")
            .field("root", &self.root)
            .field("budget", &self.budget)
            .field("segment_bytes", &self.segment_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_index_entry_is_twenty_bytes_and_hashes_as_its_key() {
        assert_eq!(std::mem::size_of::<(Key, Loc)>(), 20);
        assert_eq!(std::mem::align_of::<(Key, Loc)>(), 4);
        let hash = |h: &dyn Fn(&mut rustc_hash::FxHasher)| {
            let mut hasher = rustc_hash::FxHasher::default();
            h(&mut hasher);
            std::hash::Hasher::finish(&hasher)
        };
        for key in [
            0,
            1,
            u64::from(u32::MAX),
            1 << 32,
            u64::MAX,
            0x0123_4567_89AB_CDEF,
        ] {
            assert_eq!(Key::new(key).get(), key);
            assert_eq!(
                hash(&|h| std::hash::Hash::hash(&Key::new(key), h)),
                hash(&|h| std::hash::Hash::hash(&key, h))
            );
        }
    }

    #[test]
    fn a_location_beyond_u32_is_not_indexed() {
        let max = u64::from(u32::MAX);
        assert!(Loc::new(max, max, 7).is_some());
        assert_eq!(Loc::new(max + 1, 16, 7), None);
        assert_eq!(Loc::new(1, max + 1, 7), None);
    }
}
