//! The keys behind the server's resident-answer fast path.
//!
//! A warm `analyse` of a source the server has already parsed needs only
//! the bound keys of its functions: each is the function's fingerprint
//! combined with the configuration hash of the request's path bound.
//! [`ResidentKeys`] remembers both, so the fast path skips the mini-C parse,
//! the fingerprinting and the `Debug` rendering of the configuration.
//!
//! The memo maps a source to its functions' names and fingerprints, never
//! to an answer: every answer is still read from the segment log.  It is
//! keyed by the full source text, so a hit compares every byte of the stored
//! source (a hash collision cannot alias two sources), and it is bounded by
//! [`MEMO_BYTES`] with least-recently-used eviction.  The sources come from
//! clients, so the map keeps the standard library's randomly keyed hasher:
//! crafted colliding sources cannot degrade its lookups.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use tmg_core::pipeline::ConfigHash;
use tmg_core::WcetAnalysis;
use tmg_minic::ast::Program;

/// Bytes the source memo may hold: the sources themselves plus an estimate
/// of each entry's bookkeeping.  Beyond it, the least recently used sources
/// are forgotten (and re-parsed by their next request).
pub(crate) const MEMO_BYTES: usize = 4 << 20;

/// Configuration hashes kept, one per recently requested path bound.
const CONFIGS: usize = 8;

/// Bytes charged per memo entry and per remembered function on top of the
/// source and name bytes: the map slot, the `Arc` and the vectors.
const ENTRY_OVERHEAD: usize = 64;
const FUNCTION_OVERHEAD: usize = 32;

/// One analysed function of a remembered source, in program order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FunctionKey {
    pub(crate) name: String,
    pub(crate) fingerprint: u64,
}

struct Entry {
    functions: Arc<[FunctionKey]>,
    bytes: usize,
    touched: u64,
}

#[derive(Default)]
struct Sources {
    entries: HashMap<Box<str>, Entry>,
    bytes: usize,
    tick: u64,
}

/// See the module docs.
#[derive(Default)]
pub(crate) struct ResidentKeys {
    sources: Mutex<Sources>,
    /// `(path bound, its configuration hash)`, most recent last.
    configs: Mutex<Vec<(u128, ConfigHash)>>,
}

impl ResidentKeys {
    /// The functions of `source` (when remembered) and the configuration
    /// hash of `path_bound`, from which every bound key follows.
    pub(crate) fn lookup(
        &self,
        source: &str,
        path_bound: u128,
    ) -> Option<(Arc<[FunctionKey]>, ConfigHash)> {
        let functions = {
            let mut sources = self.sources.lock().expect("source memo");
            sources.tick += 1;
            let tick = sources.tick;
            let entry = sources.entries.get_mut(source)?;
            entry.touched = tick;
            Arc::clone(&entry.functions)
        };
        Some((functions, self.config(path_bound)))
    }

    /// Remembers the functions of `program`, parsed from `source`.
    pub(crate) fn remember(&self, source: &str, program: &Program) {
        let functions: Arc<[FunctionKey]> = program
            .functions
            .iter()
            .map(|f| FunctionKey {
                name: f.name.clone(),
                fingerprint: tmg_cfg::function_fingerprint(f),
            })
            .collect();
        let bytes = ENTRY_OVERHEAD
            + source.len()
            + functions
                .iter()
                .map(|f| FUNCTION_OVERHEAD + f.name.len())
                .sum::<usize>();
        if bytes > MEMO_BYTES {
            return;
        }
        let mut sources = self.sources.lock().expect("source memo");
        if sources.entries.contains_key(source) {
            return;
        }
        while sources.bytes + bytes > MEMO_BYTES {
            let oldest = sources
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.touched)
                .map(|(source, _)| source.clone())
                .expect("a memo over budget holds an entry");
            let evicted = sources.entries.remove(&oldest).expect("present");
            sources.bytes -= evicted.bytes;
        }
        sources.tick += 1;
        let touched = sources.tick;
        sources.bytes += bytes;
        sources.entries.insert(
            source.into(),
            Entry {
                functions,
                bytes,
                touched,
            },
        );
    }

    /// The configuration hash of the server's analysis at `path_bound`,
    /// derived once while the bound stays among the recent ones.
    fn config(&self, path_bound: u128) -> ConfigHash {
        let mut configs = self.configs.lock().expect("config hashes");
        if let Some(&(_, hash)) = configs.iter().find(|(bound, _)| *bound == path_bound) {
            return hash;
        }
        let hash = ConfigHash::new(&WcetAnalysis::new(path_bound));
        if configs.len() == CONFIGS {
            configs.remove(0);
        }
        configs.push((path_bound, hash));
        hash
    }

    #[cfg(test)]
    fn memo_bytes(&self) -> usize {
        self.sources.lock().expect("source memo").bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmg_core::pipeline::bound_key;
    use tmg_minic::parse_program;

    const SOURCE: &str =
        "void f(char a __range(0, 3)) { if (a > 1) { x(); } } void g(void) { y(); }";

    #[test]
    fn a_remembered_source_yields_the_pipeline_bound_keys() {
        let keys = ResidentKeys::default();
        assert!(keys.lookup(SOURCE, 4).is_none());
        let program = parse_program(SOURCE).expect("parse");
        keys.remember(SOURCE, &program);
        let (functions, config) = keys.lookup(SOURCE, 4).expect("remembered");
        let names: Vec<&str> = functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["f", "g"]);
        let analysis = WcetAnalysis::new(4);
        for (key, function) in functions.iter().zip(&program.functions) {
            let fingerprint = tmg_cfg::function_fingerprint(function);
            assert_eq!(key.fingerprint, fingerprint);
            assert_eq!(
                config.bound_key(key.fingerprint),
                bound_key(&analysis, fingerprint, None)
            );
        }
    }

    #[test]
    fn a_source_one_byte_apart_misses() {
        let keys = ResidentKeys::default();
        keys.remember(SOURCE, &parse_program(SOURCE).expect("parse"));
        let edited = SOURCE.replacen("x()", "z()", 1);
        assert_eq!(edited.len(), SOURCE.len());
        assert!(keys.lookup(&edited, 4).is_none());
        assert!(keys.lookup(&SOURCE[..SOURCE.len() - 1], 4).is_none());
        assert!(keys.lookup(SOURCE, 4).is_some());
    }

    #[test]
    fn the_memo_stays_within_its_budget_and_forgets_the_least_recent() {
        let keys = ResidentKeys::default();
        // Sources of about 1 MiB each: the budget holds three of them.
        let padding = " ".repeat(1 << 20);
        let sources: Vec<String> = (0..5)
            .map(|i| format!("void f{i}(void) {{ x(); }}{padding}"))
            .collect();
        for (i, source) in sources.iter().enumerate() {
            keys.remember(source, &parse_program(source).expect("parse"));
            if i == 2 {
                // Touch the oldest: the second source becomes the victim.
                assert!(keys.lookup(&sources[0], 1).is_some());
            }
            assert!(keys.memo_bytes() <= MEMO_BYTES);
        }
        let resident: Vec<bool> = sources
            .iter()
            .map(|s| keys.lookup(s, 1).is_some())
            .collect();
        assert_eq!(resident, [true, false, false, true, true]);
    }
}
