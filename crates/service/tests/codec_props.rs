//! Property-based codec guarantees: for random mini-C functions and random
//! path bounds,
//!
//! * every persisted artifact round-trips — `decode(encode(x))` equals `x`
//!   and re-encoding is bit-identical (the on-disk representation is a pure
//!   function of the artifact value);
//! * any single-byte corruption of a frame is *detected* — decode returns an
//!   error (never a panic, never a silently different artifact);
//! * a frame written by a different codec version is a clean miss.

use proptest::prelude::*;
use tmg_core::pipeline::{self, ArtifactStore, TieredStore};
use tmg_core::{HybridGenerator, WcetAnalysis};
use tmg_minic::parse_function;
use tmg_service::codec;

/// Deterministic draw stream decoding one `u64` seed into small choices
/// (the vendored proptest only supplies integer-range strategies).
struct Draws(u64);

impl Draws {
    fn next(&mut self, n: u64) -> u64 {
        let v = self.0 % n;
        self.0 = (self.0 / n).rotate_left(17) ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        v
    }
}

/// The encoded test-suite frame of `f` and its key: the largest persisted
/// frame (goals with region paths and their covering input vectors), so the
/// corruption properties damage real structure.
fn suite_frame(f: &tmg_minic::Function) -> (Vec<u8>, u64) {
    let store = ArtifactStore::new();
    let lowered = store.lowered(f);
    let partition = store.partition(&lowered, 2);
    let suite = store.suite(f, &lowered, &partition, &HybridGenerator::new());
    (codec::encode_suite(&suite), suite.key)
}

/// Builds a random mini-C function with nested branches, switches and
/// bounded loops over two small-domain parameters (the partition-invariant
/// suite uses the same shape).
fn random_function(shape: u64, depth: u64) -> String {
    let mut d = Draws(shape);
    let mut decls = String::new();
    let mut body = String::new();
    let mut label = 0usize;
    emit_block(&mut d, depth, &mut decls, &mut body, &mut label, 1);
    format!("void f(char a __range(0, 4), char b __range(0, 3)) {{\n{decls}{body}}}\n")
}

fn emit_block(
    d: &mut Draws,
    depth: u64,
    decls: &mut String,
    body: &mut String,
    label: &mut usize,
    indent: usize,
) {
    let stmts = 1 + d.next(3);
    for _ in 0..stmts {
        let k = *label;
        *label += 1;
        let pad = "    ".repeat(indent);
        let var = if d.next(2) == 0 { "a" } else { "b" };
        match d.next(if depth > 0 { 5 } else { 2 }) {
            0 => body.push_str(&format!("{pad}call{k}();\n")),
            1 => {
                let lit = d.next(5);
                body.push_str(&format!("{pad}if ({var} > {lit}) {{ leaf{k}(); }}\n"));
            }
            2 => {
                let lit = d.next(4);
                body.push_str(&format!("{pad}if ({var} == {lit}) {{\n"));
                emit_block(d, depth - 1, decls, body, label, indent + 1);
                body.push_str(&format!("{pad}}} else {{\n"));
                emit_block(d, depth - 1, decls, body, label, indent + 1);
                body.push_str(&format!("{pad}}}\n"));
            }
            3 => {
                body.push_str(&format!("{pad}switch ({var}) {{\n"));
                let arms = 1 + d.next(3);
                for arm in 0..arms {
                    body.push_str(&format!("{pad}case {arm}:\n"));
                    emit_block(d, depth - 1, decls, body, label, indent + 1);
                    body.push_str(&format!("{pad}    break;\n"));
                }
                body.push_str(&format!("{pad}default:\n"));
                emit_block(d, depth - 1, decls, body, label, indent + 1);
                body.push_str(&format!("{pad}    break;\n"));
                body.push_str(&format!("{pad}}}\n"));
            }
            _ => {
                decls.push_str(&format!("    char i{k} = 0;\n"));
                body.push_str(&format!(
                    "{pad}while (i{k} < {var}) __bound(3) {{\n{pad}    i{k} = i{k} + 1;\n"
                ));
                emit_block(d, depth.saturating_sub(1), decls, body, label, indent + 1);
                body.push_str(&format!("{pad}}}\n"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_truncation_is_a_clean_error_never_a_panic(
        shape in 0u64..u64::MAX,
        cut_seed in 0u64..u64::MAX,
    ) {
        let src = random_function(shape, 2);
        let f = parse_function(&src).expect("generated function parses");
        let (good, key) = suite_frame(&f);
        let cut = (cut_seed % good.len() as u64) as usize;
        prop_assert!(
            codec::decode_suite(&good[..cut], key).is_err(),
            "a frame truncated to {} of {} bytes must be a clean miss on {}",
            cut, good.len(), src
        );
        prop_assert!(
            codec::verify_frame(&good[..cut], pipeline::Stage::Testgen, key).is_err(),
            "the recovery scan must reject the same truncation"
        );
    }

    #[test]
    fn single_byte_corruption_is_always_detected(
        shape in 0u64..u64::MAX,
        victim in 0u64..u64::MAX,
        flip in 1u64..256,
    ) {
        let src = random_function(shape, 2);
        let f = parse_function(&src).expect("generated function parses");
        let (good, key) = suite_frame(&f);
        let mut bad = good.clone();
        let at = (victim % bad.len() as u64) as usize;
        bad[at] ^= flip as u8; // flip != 0, so the frame genuinely changes
        let decoded = codec::decode_suite(&bad, key);
        prop_assert!(
            decoded.is_err(),
            "corrupting byte {} of {} must not decode on {}",
            at, good.len(), src
        );
    }
}

proptest! {
    // The full chain (testgen runs a genetic search + model checker per
    // case) is heavier, so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn the_full_artifact_chain_round_trips(
        shape in 0u64..u64::MAX,
        bound_pick in 0u64..4,
    ) {
        let src = random_function(shape, 2);
        let f = parse_function(&src).expect("generated function parses");
        let bound = [1u128, 2, 5, 1000][bound_pick as usize];
        let store = ArtifactStore::new();
        let analysis = WcetAnalysis::new(bound);
        let staged = pipeline::analyse_staged_detailed(&store, &analysis, &f, None)
            .expect("analysis");

        let bytes = codec::encode_suite(&staged.suite);
        let back = codec::decode_suite(&bytes, staged.suite.key).expect("decode suite");
        prop_assert_eq!(&back.suite, &staged.suite.suite, "suite diverges on {}", src);
        prop_assert_eq!(codec::encode_suite(&back), bytes);

        let key = pipeline::bound_key(&analysis, tmg_cfg::function_fingerprint(&f), None);
        let bound_artifact = pipeline::BoundArtifact { key, report: staged.report.clone() };
        let bytes = codec::encode_bound(&bound_artifact);
        let back = codec::decode_bound(&bytes, key).expect("decode bound");
        prop_assert_eq!(&back.report, &staged.report);
        prop_assert_eq!(codec::encode_bound(&back), bytes);
    }
}

/// Recomputes a frame's trailing digest so that *only* the check under
/// test can reject it (same technique as the version-bump test).
fn repair_digest(frame: &mut [u8]) {
    use std::hash::Hasher;
    let body_end = frame.len() - 8;
    let mut h = tmg_cfg::StableHasher::new();
    h.write(&frame[..body_end]);
    let digest = h.finish();
    frame[body_end..].copy_from_slice(&digest.to_le_bytes());
}

#[test]
fn truncation_at_every_header_byte_boundary_is_a_clean_error() {
    let f = parse_function("void f(char a __range(0, 3)) { if (a > 1) { x(); } }").expect("parse");
    let (good, key) = suite_frame(&f);
    // Every prefix is rejected without a panic — most importantly each of
    // the 24 header byte boundaries and each digest byte, where a sloppy
    // decoder would index past the end.
    for cut in 0..good.len() {
        assert!(
            codec::decode_suite(&good[..cut], key).is_err(),
            "a frame truncated to {cut} of {} bytes must not decode",
            good.len()
        );
        assert!(
            codec::verify_frame(&good[..cut], pipeline::Stage::Testgen, key).is_err(),
            "the recovery scan must reject the truncation to {cut} bytes"
        );
    }
}

#[test]
fn a_zero_length_payload_is_a_valid_frame_but_a_clean_typed_miss() {
    let frame = codec::encode_frame(pipeline::Stage::Testgen, 42, &[]);
    // The frame layer round-trips an empty payload...
    assert_eq!(
        codec::decode_frame(&frame, pipeline::Stage::Testgen, 42).expect("empty frame verifies"),
        &[] as &[u8]
    );
    assert!(codec::verify_frame(&frame, pipeline::Stage::Testgen, 42).is_ok());
    // ...but the typed decoder reports a malformed payload, never a panic.
    assert!(matches!(
        codec::decode_suite(&frame, 42),
        Err(codec::CodecError::Malformed(_))
    ));
}

#[test]
fn a_declared_payload_length_beyond_the_frame_is_rejected() {
    let f = parse_function("void f(char a __range(0, 3)) { if (a > 1) { x(); } }").expect("parse");
    let (good, key) = suite_frame(&f);
    let mut frame = good.clone();
    // Claim a payload far larger than the file and repair the digest, so
    // only the length check can reject the frame: a decoder trusting the
    // declared length would read past the end of the mapping.
    frame[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
    repair_digest(&mut frame);
    assert!(matches!(
        codec::decode_suite(&frame, key),
        Err(codec::CodecError::Malformed(
            "payload length disagrees with frame"
        ))
    ));
    assert!(codec::verify_frame(&frame, pipeline::Stage::Testgen, key).is_err());

    // The under-declared twin: the length field claims less than the frame
    // holds.  Same clean rejection.
    let mut frame = good;
    frame[16..24].copy_from_slice(&0u64.to_le_bytes());
    repair_digest(&mut frame);
    assert!(matches!(
        codec::decode_suite(&frame, key),
        Err(codec::CodecError::Malformed(
            "payload length disagrees with frame"
        ))
    ));
}

#[test]
fn a_version_bump_invalidates_stored_frames() {
    let f = parse_function("void f(char a __range(0, 3)) { if (a > 1) { x(); } }").expect("parse");
    let (good, key) = suite_frame(&f);
    let mut frame = good;
    // Patch the version field to a future codec and repair the digest so
    // *only* the version check can reject it.
    let next = codec::CODEC_VERSION + 1;
    frame[4..6].copy_from_slice(&next.to_le_bytes());
    let body_end = frame.len() - 8;
    let digest = {
        use std::hash::Hasher;
        let mut h = tmg_cfg::StableHasher::new();
        h.write(&frame[..body_end]);
        h.finish()
    };
    frame[body_end..].copy_from_slice(&digest.to_le_bytes());
    assert!(matches!(
        codec::decode_suite(&frame, key),
        Err(codec::CodecError::VersionMismatch { found }) if found == next
    ));
}
