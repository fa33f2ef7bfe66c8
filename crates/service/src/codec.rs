//! Hand-rolled versioned binary codec for the persisted pipeline artifacts.
//!
//! Every artifact [`crate::store`] writes to disk — [`SuiteArtifact`] and
//! [`BoundArtifact`] — round-trips through a self-describing binary frame
//! so the on-disk cache can serve a *different process's* artifacts.
//! Lowering, partition, prepared-model and measurement-campaign artifacts
//! are never persisted (their frames cost more than they save), so they
//! have no codec; their stage tags stay reserved in the frame header, and
//! frames an older build wrote under them still verify but are never
//! probed.  The build environment has no crates.io access, so the format
//! is written by hand against the vendored-shim reality: fixed-width
//! little-endian integers, length-prefixed strings, explicit enum tags.
//!
//! # Frame layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "TMGA"
//! 4       2     codec version (currently 1), little-endian
//! 6       1     artifact kind tag (Stage::index of the producing stage)
//! 7       1     reserved (0)
//! 8       8     content key (the store key, = filename stem)
//! 16      8     payload length
//! 24      n     payload (artifact-specific, see the `encode_*` functions)
//! 24+n    8     FNV-1a digest of bytes [0, 24+n)
//! ```
//!
//! The trailing digest (computed with the same [`StableHasher`] that derives
//! the content keys) makes torn writes and bit rot detectable: a frame that
//! fails *any* header or digest check decodes to [`CodecError`], which the
//! cache treats as a clean miss — never a panic, never a wrong artifact.  A
//! version bump invalidates every stored frame the same way.
//!
//! # Payload conventions
//!
//! Collections are length-prefixed and written in the artifact's own order,
//! so encoding is a pure function of the artifact value — the proptest
//! suite asserts `encode(decode(encode(x))) == encode(x)` byte for byte.

use std::hash::Hasher as _;
use tmg_cfg::{BlockId, PathSpec, StableHasher};
use tmg_core::pipeline::{BoundArtifact, Stage, SuiteArtifact, STAGES};
use tmg_core::{
    AnalysisReport, CoverageGoal, CoverageStatus, GeneratorKind, GoalKind, SegmentId, TestSuite,
};
use tmg_minic::interp::BranchChoice;
use tmg_minic::value::InputVector;
use tmg_minic::StmtId;

/// Current frame format version.  Bumping it turns every previously written
/// cache file into a clean miss.
pub const CODEC_VERSION: u16 = 1;

/// Frame magic.
pub const MAGIC: [u8; 4] = *b"TMGA";

const HEADER_LEN: usize = 24;
const DIGEST_LEN: usize = 8;

/// Why a frame failed to decode.  Every variant degrades to a cache miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The frame does not start with [`MAGIC`].
    BadMagic,
    /// The frame was written by a different codec version.
    VersionMismatch {
        /// Version found in the frame header.
        found: u16,
    },
    /// The frame holds a different artifact kind than requested.
    KindMismatch {
        /// Stage tag found in the frame header.
        found: u8,
    },
    /// The frame's content key differs from the requested key.
    KeyMismatch,
    /// The trailing digest does not match the frame bytes.
    ChecksumMismatch,
    /// The payload ended early or contains an impossible value.
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad frame magic"),
            CodecError::VersionMismatch { found } => {
                write!(f, "codec version {found} (expected {CODEC_VERSION})")
            }
            CodecError::KindMismatch { found } => write!(f, "unexpected artifact kind {found}"),
            CodecError::KeyMismatch => write!(f, "frame key differs from requested key"),
            CodecError::ChecksumMismatch => write!(f, "frame digest mismatch"),
            CodecError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

type Result<T> = std::result::Result<T, CodecError>;

// ---------------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------------

/// Append-only byte sink with fixed-width little-endian primitives.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }
    fn opt<T>(&mut self, v: &Option<T>, mut f: impl FnMut(&mut Enc, &T)) {
        match v {
            None => self.bool(false),
            Some(inner) => {
                self.bool(true);
                f(self, inner);
            }
        }
    }
}

/// Bounds-checked cursor over a payload; every read returns `Err` instead of
/// panicking on truncated or impossible data.
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Dec<'a> {
        Dec { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(CodecError::Malformed("unexpected end of payload"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn u128(&mut self) -> Result<u128> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError::Malformed("length overflows usize"))
    }
    fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed("boolean out of range")),
        }
    }
    fn str(&mut self) -> Result<String> {
        Ok(self.str_ref()?.to_owned())
    }
    /// Borrowed string read: validates UTF-8 in place, allocates nothing.
    fn str_ref(&mut self) -> Result<&'a str> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::Malformed("invalid utf-8"))
    }
    fn opt<T>(&mut self, mut f: impl FnMut(&mut Dec<'a>) -> Result<T>) -> Result<Option<T>> {
        if self.bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }
    /// Guards length prefixes against nonsense values: every element of a
    /// sequence occupies at least one byte, so a claimed length beyond the
    /// remaining payload is malformed (prevents huge pre-allocations).
    fn seq_len(&mut self) -> Result<usize> {
        let len = self.usize()?;
        if len > self.bytes.len().saturating_sub(self.pos) {
            return Err(CodecError::Malformed("sequence length exceeds payload"));
        }
        Ok(len)
    }
    fn finish(self) -> Result<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(CodecError::Malformed("trailing bytes after payload"))
        }
    }
}

// ---------------------------------------------------------------------------
// Frame
// ---------------------------------------------------------------------------

fn digest(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write(bytes);
    h.finish()
}

/// Wraps a payload into a checksummed frame for `stage` under `key`.
pub fn encode_frame(stage: Stage, key: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + DIGEST_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&CODEC_VERSION.to_le_bytes());
    out.push(stage.index() as u8);
    out.push(0);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let digest = digest(&out);
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

/// A verified frame borrowed from its raw bytes: header fields plus the
/// payload slice.  Produced by [`parse_frame`]; nothing is copied and no
/// payload structure is decoded — this is the zero-copy half of the segment
/// log's warm read path (verify up front, materialize lazily).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameView<'a> {
    /// Stage the frame was written for.
    pub stage: Stage,
    /// Content key the frame was written under.
    pub key: u64,
    /// The still-encoded artifact payload.
    pub payload: &'a [u8],
}

/// Verifies a frame's magic, version, length and digest *without* an
/// expected stage/key (the segment scan discovers both from the header) and
/// returns a borrowed [`FrameView`].  A frame this accepts is exactly one
/// [`decode_frame`] would accept for its own `(stage, key)`.
pub fn parse_frame(bytes: &[u8]) -> Result<FrameView<'_>> {
    if bytes.len() < HEADER_LEN + DIGEST_LEN {
        return Err(CodecError::Malformed("frame shorter than header"));
    }
    if bytes[0..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version != CODEC_VERSION {
        return Err(CodecError::VersionMismatch { found: version });
    }
    let kind = bytes[6];
    let stage = *STAGES
        .get(kind as usize)
        .ok_or(CodecError::KindMismatch { found: kind })?;
    let key = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let expected_len = (bytes.len() - HEADER_LEN - DIGEST_LEN) as u64;
    if payload_len != expected_len {
        return Err(CodecError::Malformed("payload length disagrees with frame"));
    }
    let body_end = bytes.len() - DIGEST_LEN;
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().unwrap());
    if digest(&bytes[..body_end]) != stored {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok(FrameView {
        stage,
        key,
        payload: &bytes[HEADER_LEN..body_end],
    })
}

/// Verifies a frame's magic, version, kind, key and digest, returning the
/// payload slice.
pub fn decode_frame(bytes: &[u8], stage: Stage, key: u64) -> Result<&[u8]> {
    let view = parse_frame(bytes)?;
    if view.stage != stage {
        return Err(CodecError::KindMismatch {
            found: view.stage.index() as u8,
        });
    }
    if view.key != key {
        return Err(CodecError::KeyMismatch);
    }
    Ok(view.payload)
}

/// Integrity check of a raw frame without decoding the payload: magic,
/// version, kind tag, content key, declared length and the trailing digest.
/// This is what the startup recovery scan runs over every `.tmga` file —
/// any frame it rejects would also fail [`decode_frame`] on the read path,
/// so quarantining it early turns a would-be runtime discard into a clean
/// startup miss.  (Payload *structure* is still validated by the typed
/// decoder on first use; the digest makes a structurally-bad-but-verified
/// frame require a writer bug, not disk corruption.)
///
/// # Errors
///
/// Returns the same [`CodecError`] the read path would report.
pub fn verify_frame(bytes: &[u8], stage: Stage, key: u64) -> Result<()> {
    decode_frame(bytes, stage, key).map(|_| ())
}

// ---------------------------------------------------------------------------
// Branch decisions — embedded in the suite's region-path goals.
// ---------------------------------------------------------------------------

fn enc_branch_choice(e: &mut Enc, choice: BranchChoice) {
    match choice {
        BranchChoice::Then => e.u8(0),
        BranchChoice::Else => e.u8(1),
        BranchChoice::Case(v) => {
            e.u8(2);
            e.i64(v);
        }
        BranchChoice::Default => e.u8(3),
        BranchChoice::LoopIterate => e.u8(4),
        BranchChoice::LoopExit => e.u8(5),
    }
}

fn dec_branch_choice(d: &mut Dec<'_>) -> Result<BranchChoice> {
    Ok(match d.u8()? {
        0 => BranchChoice::Then,
        1 => BranchChoice::Else,
        2 => BranchChoice::Case(d.i64()?),
        3 => BranchChoice::Default,
        4 => BranchChoice::LoopIterate,
        5 => BranchChoice::LoopExit,
        _ => return Err(CodecError::Malformed("branch choice tag")),
    })
}

// ---------------------------------------------------------------------------
// Test suite
// ---------------------------------------------------------------------------

fn enc_input_vector(e: &mut Enc, v: &InputVector) {
    e.usize(v.len());
    for (name, value) in v.iter() {
        e.str(name);
        e.i64(value);
    }
}

fn dec_input_vector(d: &mut Dec<'_>) -> Result<InputVector> {
    let n = d.seq_len()?;
    let mut out = InputVector::new();
    for _ in 0..n {
        let name = d.str()?;
        let value = d.i64()?;
        out.set(name, value);
    }
    Ok(out)
}

fn enc_path_spec(e: &mut Enc, p: &PathSpec) {
    e.usize(p.decisions.len());
    for (stmt, choice) in &p.decisions {
        e.u32(stmt.0);
        enc_branch_choice(e, *choice);
    }
}

fn dec_path_spec(d: &mut Dec<'_>) -> Result<PathSpec> {
    let n = d.seq_len()?;
    let mut decisions = Vec::with_capacity(n);
    for _ in 0..n {
        let stmt = StmtId(d.u32()?);
        let choice = dec_branch_choice(d)?;
        decisions.push((stmt, choice));
    }
    Ok(PathSpec { decisions })
}

fn enc_goal(e: &mut Enc, g: &CoverageGoal) {
    e.u32(g.segment.0);
    match &g.kind {
        GoalKind::RegionPath(path) => {
            e.u8(0);
            enc_path_spec(e, path);
        }
        GoalKind::BlockExecution(block) => {
            e.u8(1);
            e.u32(block.0);
        }
    }
}

fn dec_goal(d: &mut Dec<'_>) -> Result<CoverageGoal> {
    let segment = SegmentId(d.u32()?);
    let kind = match d.u8()? {
        0 => GoalKind::RegionPath(dec_path_spec(d)?),
        1 => GoalKind::BlockExecution(BlockId(d.u32()?)),
        _ => return Err(CodecError::Malformed("goal kind tag")),
    };
    Ok(CoverageGoal { segment, kind })
}

fn enc_status(e: &mut Enc, s: &CoverageStatus) {
    match s {
        CoverageStatus::Covered { vector, by } => {
            e.u8(0);
            enc_input_vector(e, vector);
            e.u8(match by {
                GeneratorKind::Heuristic => 0,
                GeneratorKind::ModelChecker => 1,
            });
        }
        CoverageStatus::Infeasible => e.u8(1),
        CoverageStatus::Unknown => e.u8(2),
    }
}

fn dec_status(d: &mut Dec<'_>) -> Result<CoverageStatus> {
    Ok(match d.u8()? {
        0 => {
            let vector = dec_input_vector(d)?;
            let by = match d.u8()? {
                0 => GeneratorKind::Heuristic,
                1 => GeneratorKind::ModelChecker,
                _ => return Err(CodecError::Malformed("generator kind tag")),
            };
            CoverageStatus::Covered { vector, by }
        }
        1 => CoverageStatus::Infeasible,
        2 => CoverageStatus::Unknown,
        _ => return Err(CodecError::Malformed("coverage status tag")),
    })
}

/// Encodes a test-suite artifact.
pub fn encode_suite(artifact: &SuiteArtifact) -> Vec<u8> {
    let mut e = Enc::default();
    e.usize(artifact.suite.goals.len());
    for (goal, status) in &artifact.suite.goals {
        enc_goal(&mut e, goal);
        enc_status(&mut e, status);
    }
    encode_frame(Stage::Testgen, artifact.key, &e.buf)
}

/// Decodes a test-suite artifact.
pub fn decode_suite(bytes: &[u8], key: u64) -> Result<SuiteArtifact> {
    let payload = decode_frame(bytes, Stage::Testgen, key)?;
    let mut d = Dec::new(payload);
    let n = d.seq_len()?;
    let mut goals = Vec::with_capacity(n);
    for _ in 0..n {
        let goal = dec_goal(&mut d)?;
        let status = dec_status(&mut d)?;
        goals.push((goal, status));
    }
    d.finish()?;
    Ok(SuiteArtifact {
        key,
        suite: TestSuite { goals },
    })
}

// ---------------------------------------------------------------------------
// Analysis report (the bound artifact)
// ---------------------------------------------------------------------------

/// Encodes a bound artifact.
pub fn encode_bound(artifact: &BoundArtifact) -> Vec<u8> {
    let r = &artifact.report;
    let mut e = Enc::default();
    e.str(&r.function);
    e.u128(r.path_bound);
    e.usize(r.segments);
    e.usize(r.instrumentation_points);
    e.u128(r.measurements);
    e.usize(r.goals);
    e.usize(r.heuristic_covered);
    e.usize(r.checker_covered);
    e.usize(r.infeasible);
    e.usize(r.unknown);
    e.usize(r.measurement_runs);
    e.u64(r.wcet_bound);
    e.opt(&r.exhaustive_max, |e, v| e.u64(*v));
    encode_frame(Stage::Bound, artifact.key, &e.buf)
}

/// A bound artifact decoded without allocation: every field is a scalar and
/// the function name borrows the payload bytes.  This is the zero-copy view
/// the segment log's bound fast-path validates against before deciding
/// whether an owned [`BoundArtifact`] is needed at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundView<'a> {
    /// Function name, borrowed from the frame payload.
    pub function: &'a str,
    /// Path bound the analysis ran under.
    pub path_bound: u128,
    /// Partition segment count.
    pub segments: usize,
    /// Instrumentation points placed.
    pub instrumentation_points: usize,
    /// Total measurements taken.
    pub measurements: u128,
    /// Coverage goals issued.
    pub goals: usize,
    /// Goals covered heuristically.
    pub heuristic_covered: usize,
    /// Goals covered by the model checker.
    pub checker_covered: usize,
    /// Goals proved infeasible.
    pub infeasible: usize,
    /// Goals left unknown.
    pub unknown: usize,
    /// Measurement campaign runs.
    pub measurement_runs: usize,
    /// The WCET bound.
    pub wcet_bound: u64,
    /// Exhaustive-simulation maximum, when one was computed.
    pub exhaustive_max: Option<u64>,
}

impl BoundView<'_> {
    /// Materializes the owned report (the only allocation: the name).
    pub fn to_report(&self) -> AnalysisReport {
        AnalysisReport {
            function: self.function.to_owned(),
            path_bound: self.path_bound,
            segments: self.segments,
            instrumentation_points: self.instrumentation_points,
            measurements: self.measurements,
            goals: self.goals,
            heuristic_covered: self.heuristic_covered,
            checker_covered: self.checker_covered,
            infeasible: self.infeasible,
            unknown: self.unknown,
            measurement_runs: self.measurement_runs,
            wcet_bound: self.wcet_bound,
            exhaustive_max: self.exhaustive_max,
        }
    }
}

/// Decodes a bound payload (as returned by [`decode_frame`] /
/// [`parse_frame`]) into a borrowed [`BoundView`] without allocating.
pub fn decode_bound_view(payload: &[u8]) -> Result<BoundView<'_>> {
    let mut d = Dec::new(payload);
    let view = BoundView {
        function: d.str_ref()?,
        path_bound: d.u128()?,
        segments: d.usize()?,
        instrumentation_points: d.usize()?,
        measurements: d.u128()?,
        goals: d.usize()?,
        heuristic_covered: d.usize()?,
        checker_covered: d.usize()?,
        infeasible: d.usize()?,
        unknown: d.usize()?,
        measurement_runs: d.usize()?,
        wcet_bound: d.u64()?,
        exhaustive_max: d.opt(|d| d.u64())?,
    };
    d.finish()?;
    Ok(view)
}

/// Decodes a bound artifact.
pub fn decode_bound(bytes: &[u8], key: u64) -> Result<BoundArtifact> {
    let payload = decode_frame(bytes, Stage::Bound, key)?;
    let report = decode_bound_view(payload)?.to_report();
    Ok(BoundArtifact { key, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmg_core::pipeline::{self, ArtifactStore, TieredStore};
    use tmg_core::{HybridGenerator, WcetAnalysis};
    use tmg_minic::parse_function;

    fn artifacts() -> (ArtifactStore, tmg_minic::Function) {
        let f = parse_function(
            r#"
            void ctl(char a __range(0, 4), char b __range(0, 3)) {
                char i = 0;
                if (a > 2) { x(); }
                if (a < 1) { y(); }
                while (i < b) __bound(3) { i = i + 1; }
                switch (b) { case 0: z0(); break; default: zd(); break; }
            }
            "#,
        )
        .expect("parse");
        (ArtifactStore::new(), f)
    }

    #[test]
    fn suite_and_bound_round_trip() {
        let (store, f) = artifacts();
        let analysis = WcetAnalysis::new(3);
        let staged =
            pipeline::analyse_staged_detailed(&store, &analysis, &f, None).expect("analysis");
        let s = encode_suite(&staged.suite);
        let s_back = decode_suite(&s, staged.suite.key).expect("suite");
        assert_eq!(s_back.suite, staged.suite.suite);
        assert_eq!(encode_suite(&s_back), s);

        let key = pipeline::bound_key(&analysis, tmg_cfg::function_fingerprint(&f), None);
        let bound = tmg_core::pipeline::BoundArtifact {
            key,
            report: staged.report.clone(),
        };
        let b = encode_bound(&bound);
        let b_back = decode_bound(&b, key).expect("bound");
        assert_eq!(b_back.report, staged.report);
        assert_eq!(encode_bound(&b_back), b);
    }

    #[test]
    fn decoded_suite_feeds_an_identical_downstream_pipeline() {
        // The acceptance property behind the round-trip: a campaign measured
        // from a *decoded* suite equals one measured from the original.
        let (store, f) = artifacts();
        let lowered = store.lowered(&f);
        let partition = store.partition(&lowered, 3);
        let suite = store.suite(&f, &lowered, &partition, &HybridGenerator::new());
        let decoded = decode_suite(&encode_suite(&suite), suite.key).expect("suite");
        let original = pipeline::compute_campaign(
            &f,
            &lowered,
            &partition,
            &suite,
            &tmg_target::CostModel::hcs12(),
            0,
        )
        .expect("campaign");
        let replayed = pipeline::compute_campaign(
            &f,
            &lowered,
            &partition,
            &decoded,
            &tmg_target::CostModel::hcs12(),
            0,
        )
        .expect("campaign");
        assert_eq!(original.campaign, replayed.campaign);
    }

    /// A test-suite frame: the largest persisted frame, carrying goals with
    /// region paths and covering input vectors, so the verification tests
    /// below damage a payload with real structure.
    fn suite_frame() -> (Vec<u8>, u64) {
        let (store, f) = artifacts();
        let lowered = store.lowered(&f);
        let partition = store.partition(&lowered, 3);
        let suite = store.suite(&f, &lowered, &partition, &HybridGenerator::new());
        assert!(
            !suite.suite.goals.is_empty(),
            "the fixture must generate goals"
        );
        (encode_suite(&suite), suite.key)
    }

    #[test]
    fn header_checks_reject_foreign_and_damaged_frames() {
        let (good, key) = suite_frame();

        // Magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(decode_suite(&bad, key).err(), Some(CodecError::BadMagic));
        // Version.
        let mut bad = good.clone();
        bad[4] = CODEC_VERSION as u8 + 1;
        assert!(matches!(
            decode_suite(&bad, key),
            Err(CodecError::VersionMismatch { .. })
        ));
        // Kind.
        assert!(matches!(
            decode_bound(&good, key),
            Err(CodecError::KindMismatch { .. })
        ));
        // Key.
        assert_eq!(
            decode_suite(&good, key ^ 1).err(),
            Some(CodecError::KeyMismatch)
        );
        // Payload corruption: flip one byte in the middle.
        let mut bad = good.clone();
        let mid = HEADER_LEN + (bad.len() - HEADER_LEN - DIGEST_LEN) / 2;
        bad[mid] ^= 0xFF;
        assert_eq!(
            decode_suite(&bad, key).err(),
            Some(CodecError::ChecksumMismatch)
        );
        // Truncation.
        assert!(decode_suite(&good[..good.len() - 3], key).is_err());
        assert!(decode_suite(&good[..10], key).is_err());
        // The original still decodes.
        assert!(decode_suite(&good, key).is_ok());
    }

    #[test]
    fn parse_frame_discovers_stage_and_key_and_rejects_what_decode_rejects() {
        let (good, key) = suite_frame();
        let view = parse_frame(&good).expect("parse");
        assert_eq!(view.stage, Stage::Testgen);
        assert_eq!(view.key, key);
        assert_eq!(
            view.payload,
            decode_frame(&good, Stage::Testgen, key).expect("decode")
        );

        // An impossible stage tag is a kind mismatch, not a panic.
        let mut bad = good.clone();
        bad[6] = 6;
        assert_eq!(
            parse_frame(&bad).err(),
            Some(CodecError::KindMismatch { found: 6 })
        );
        // Same rejection surface as the typed path.
        let mut torn = good.clone();
        torn.truncate(torn.len() / 2);
        assert!(parse_frame(&torn).is_err());
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert_eq!(
            parse_frame(&flipped).err(),
            Some(CodecError::ChecksumMismatch)
        );
    }

    #[test]
    fn bound_view_borrows_the_payload_and_matches_the_owned_decode() {
        let report = AnalysisReport {
            function: "wiper".to_owned(),
            path_bound: 10,
            segments: 4,
            instrumentation_points: 7,
            measurements: 120,
            goals: 9,
            heuristic_covered: 5,
            checker_covered: 3,
            infeasible: 1,
            unknown: 0,
            measurement_runs: 12,
            wcet_bound: 4242,
            exhaustive_max: Some(4100),
        };
        let artifact = BoundArtifact { key: 77, report };
        let bytes = encode_bound(&artifact);
        let payload = decode_frame(&bytes, Stage::Bound, 77).expect("frame");
        let view = decode_bound_view(payload).expect("view");
        assert_eq!(view.function, "wiper");
        assert_eq!(view.to_report(), artifact.report);
        assert_eq!(
            decode_bound(&bytes, 77).expect("owned").report,
            artifact.report
        );
    }
}
