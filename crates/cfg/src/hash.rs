//! Stable content hashing for pipeline artifact keys.
//!
//! The staged analysis pipeline (`tmg_core::pipeline`) keys every cached
//! artifact by a content hash of its inputs — function source, cost model,
//! path bound, encoder configuration.  Those keys must be *stable*: the same
//! inputs must hash identically across runs, threads and builds, which rules
//! out `std::collections::hash_map::RandomState` (randomly seeded) and any
//! hasher whose algorithm is unspecified.  [`StableHasher`] is a plain
//! FNV-1a over the byte stream, fully determined by the bytes written.
//!
//! Rendered inputs — the pretty-printed function source, the `Debug` text of
//! a configuration — are hashed as they are rendered: [`function_fingerprint`]
//! and [`stable_hash_debug`] write through a [`fmt::Write`] sink straight into
//! the hasher, and hash exactly the bytes (and length terminator)
//! [`stable_hash_str`] hashes for the rendered `String`, without building it.

use std::fmt::{self, Write as _};
use std::hash::Hasher;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Deterministic 64-bit FNV-1a hasher.
///
/// Usable everywhere a [`std::hash::Hasher`] is expected; `#[derive(Hash)]`
/// implementations fed through it produce stable digests because the derive
/// only ever calls the `write*` methods with value bytes in declaration
/// order.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> StableHasher {
        StableHasher { state: FNV_OFFSET }
    }

    /// Digest of everything written so far.
    pub fn digest(&self) -> u64 {
        self.state
    }
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher::new()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    // The std defaults for the multi-byte writes feed native-endian bytes,
    // which would make digests differ between little- and big-endian
    // targets; fix the byte order so the keys stay portable (persisted
    // caches must not silently miss across platforms).
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        self.write(&(i as u64).to_le_bytes());
    }
}

/// Stable hash of a string (its UTF-8 bytes plus a length terminator, so
/// concatenation ambiguities cannot collide keys built from several parts).
pub fn stable_hash_str(s: &str) -> u64 {
    let mut sink = StrHasher::default();
    sink.write_str(s).expect("hashing never fails");
    sink.finish()
}

/// Stable hash of a value's `Debug` rendering: equal to
/// `stable_hash_str(&format!("{value:?}"))`, rendered straight into the
/// hasher.
pub fn stable_hash_debug(value: &impl fmt::Debug) -> u64 {
    let mut sink = StrHasher::default();
    write!(sink, "{value:?}").expect("hashing never fails");
    sink.finish()
}

/// A [`fmt::Write`] sink hashing the concatenation of everything written
/// exactly as [`stable_hash_str`] hashes that string: its bytes, then its
/// total length.
#[derive(Default)]
struct StrHasher {
    hasher: StableHasher,
    len: u64,
}

impl StrHasher {
    fn finish(mut self) -> u64 {
        self.hasher.write_u64(self.len);
        self.hasher.finish()
    }
}

impl fmt::Write for StrHasher {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.hasher.write(s.as_bytes());
        self.len += s.len() as u64;
        Ok(())
    }
}

/// Mixes an ordered sequence of part-hashes into one key.  Order matters:
/// `combine(&[a, b]) != combine(&[b, a])` for `a != b`.
pub fn combine_hashes(parts: &[u64]) -> u64 {
    let mut h = StableHasher::new();
    for &p in parts {
        h.write_u64(p);
    }
    h.write_u64(parts.len() as u64);
    h.finish()
}

/// Canonical filename stem of a content key: 16 lowercase hex digits, fixed
/// width so cache directories sort and compare predictably.  The persistent
/// artifact store names every on-disk artifact `<key_hex(key)>.tmga`; keeping
/// the rendering next to the hasher pins the two halves of the contract
/// (key derivation and key spelling) to one crate.
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

/// Stable fingerprint of a function: the hash of its canonical
/// pretty-printed source.  The printer emits the full semantic content —
/// name, signature with `__range` annotations, local declarations and
/// initialisers, loop `__bound`s — so two functions share a fingerprint
/// exactly when the analysis pipeline cannot distinguish them.
pub fn function_fingerprint(function: &tmg_minic::ast::Function) -> u64 {
    let mut sink = StrHasher::default();
    tmg_minic::pretty::write_function(&mut sink, function).expect("hashing never fails");
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmg_minic::parse_function;

    #[test]
    fn hashing_is_deterministic_across_hasher_instances() {
        assert_eq!(stable_hash_str("abc"), stable_hash_str("abc"));
        assert_ne!(stable_hash_str("abc"), stable_hash_str("abd"));
        // Known FNV-1a property: empty input hashes to the offset basis
        // mixed with the zero length.
        let mut h = StableHasher::new();
        h.write_u64(0);
        assert_eq!(stable_hash_str(""), h.finish());
    }

    #[test]
    fn debug_hash_streams_the_rendered_string() {
        let value = (vec![("leaf", 40u64)], Some("x\ny"));
        assert_eq!(
            stable_hash_debug(&value),
            stable_hash_str(&format!("{value:?}"))
        );
    }

    #[test]
    fn combine_is_order_sensitive_and_length_terminated() {
        let (a, b) = (stable_hash_str("a"), stable_hash_str("b"));
        assert_ne!(combine_hashes(&[a, b]), combine_hashes(&[b, a]));
        assert_ne!(combine_hashes(&[a]), combine_hashes(&[a, a]));
    }

    #[test]
    fn key_hex_is_fixed_width_lowercase() {
        assert_eq!(key_hex(0), "0000000000000000");
        assert_eq!(key_hex(u64::MAX), "ffffffffffffffff");
        assert_eq!(key_hex(0xCBF2_9CE4_8422_2325), "cbf29ce484222325");
    }

    #[test]
    fn function_fingerprint_tracks_semantic_content() {
        let f1 = parse_function("void f(char a __range(0, 3)) { if (a) { x(); } }").unwrap();
        let f1_again = parse_function("void f(char a __range(0, 3)) { if (a) { x(); } }").unwrap();
        let wider = parse_function("void f(char a __range(0, 4)) { if (a) { x(); } }").unwrap();
        let renamed = parse_function("void g(char a __range(0, 3)) { if (a) { x(); } }").unwrap();
        assert_eq!(function_fingerprint(&f1), function_fingerprint(&f1_again));
        assert_ne!(function_fingerprint(&f1), function_fingerprint(&wider));
        assert_ne!(function_fingerprint(&f1), function_fingerprint(&renamed));
    }
}
