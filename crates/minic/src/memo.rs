//! The per-function parse memo behind [`crate::parse_program`].
//!
//! Regenerating a module after a model change leaves most of its function
//! texts byte-identical, so a multi-function source is parsed a function at
//! a time: it is cut after every top-level closing brace, and each
//! chunk's exact text maps to its parsed and locally checked [`Function`].
//! Only the chunks never seen before are lexed, parsed and checked; the
//! cross-function rules (unique names, call arity) run over the assembled
//! program every time.
//!
//! The memo is keyed by the full chunk text in a standard `HashMap` with its
//! randomly keyed hasher, so a hit compares every byte (a hash collision
//! cannot alias two functions) and crafted colliding sources cannot degrade
//! the lookups.  It is bounded by [`MEMO_BYTES`] with least-recently-used
//! eviction.  Its hit, miss and eviction counts and its resident bytes are
//! the `parse` group of the service's `stats` snapshot.

use crate::ast::{for_each_stmt_in_block_mut, Function, Program, Stmt, StmtId};
use crate::{lexer, parser, sema};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Bytes the memo may hold, as charged by [`charge`].  When an insertion
/// would pass it, the least recently used functions are forgotten (and
/// re-parsed when next seen) until at most three quarters of it remain, so
/// the scan over all entries runs once per many insertions.
pub const MEMO_BYTES: usize = 1 << 20;

/// Bytes charged per byte of function text: the text itself plus its
/// checked AST, which measured 4–7 times its source (52.7 KB for the 7.7 KB
/// bench module).
const BYTES_PER_TEXT_BYTE: usize = 8;

/// Bytes charged per entry on top of the text: the map slot, the `Arc` and
/// the LRU tick.
const ENTRY_OVERHEAD: usize = 64;

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);
static RESIDENT_BYTES: AtomicU64 = AtomicU64::new(0);

/// The memo counters by JSON name, in the order the service's `stats`
/// snapshot renders them as its `parse` group.
pub fn counters() -> Vec<(&'static str, &'static AtomicU64)> {
    vec![
        ("memo_hits", &HITS),
        ("memo_misses", &MISSES),
        ("memo_evictions", &EVICTIONS),
        ("memo_bytes", &RESIDENT_BYTES),
    ]
}

/// A point-in-time copy of the memo counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Functions served from the memo.
    pub hits: u64,
    /// Functions parsed because the memo did not hold their text.
    pub misses: u64,
    /// Functions forgotten to stay within [`MEMO_BYTES`].
    pub evictions: u64,
    /// Bytes charged for the functions the memo holds now.
    pub bytes: u64,
}

/// Reads the memo counters (relaxed; monotone except `bytes`).
pub fn stats() -> MemoStats {
    MemoStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        bytes: RESIDENT_BYTES.load(Ordering::Relaxed),
    }
}

struct Entry {
    function: Arc<Function>,
    /// Line breaks in the function's text.
    newlines: u32,
    bytes: usize,
    touched: u64,
}

#[derive(Default)]
struct Chunks {
    entries: HashMap<Box<str>, Entry>,
    bytes: usize,
    tick: u64,
}

impl Chunks {
    /// Forgets the least recently used entries, all entries of one tick at
    /// a time, until at most `target` bytes remain.
    fn evict_to(&mut self, target: usize) {
        let mut ages: Vec<(u64, usize)> = self
            .entries
            .values()
            .map(|entry| (entry.touched, entry.bytes))
            .collect();
        ages.sort_unstable();
        let mut left = self.bytes;
        let mut keep_from = 0;
        for (touched, bytes) in ages {
            if left <= target {
                break;
            }
            left -= bytes;
            keep_from = touched + 1;
        }
        let before = self.entries.len();
        self.entries.retain(|_, entry| entry.touched >= keep_from);
        self.bytes = self.entries.values().map(|entry| entry.bytes).sum();
        EVICTIONS.fetch_add((before - self.entries.len()) as u64, Ordering::Relaxed);
    }
}

fn memo() -> &'static Mutex<Chunks> {
    static MEMO: OnceLock<Mutex<Chunks>> = OnceLock::new();
    MEMO.get_or_init(Mutex::default)
}

fn charge(text: &str) -> usize {
    ENTRY_OVERHEAD + text.len() * BYTES_PER_TEXT_BYTE
}

/// Parses a source of two or more functions through the memo.  `None` means
/// the caller must run the whole-source path: the source did not split into
/// functions, a chunk was not exactly one valid function, or a
/// cross-function rule failed.  The whole-source path then yields the
/// error, byte for byte.
pub(crate) fn parse(source: &str) -> Option<Program> {
    let chunks = split(source)?;
    if chunks.len() < 2 {
        return None;
    }
    let mut functions: Vec<Option<(Arc<Function>, u32)>> = {
        let mut memo = memo().lock().expect("parse memo");
        memo.tick += 1;
        let tick = memo.tick;
        chunks
            .iter()
            .map(|chunk| {
                let entry = memo.entries.get_mut(*chunk)?;
                entry.touched = tick;
                Some((Arc::clone(&entry.function), entry.newlines))
            })
            .collect()
    };
    let hits = functions.iter().filter(|f| f.is_some()).count();
    HITS.fetch_add(hits as u64, Ordering::Relaxed);
    MISSES.fetch_add((chunks.len() - hits) as u64, Ordering::Relaxed);

    let mut parsed = Vec::new();
    for (slot, chunk) in functions.iter_mut().zip(&chunks) {
        if slot.is_none() {
            let function = Arc::new(parse_chunk(chunk)?);
            let newlines = chunk.bytes().filter(|&b| b == b'\n').count() as u32;
            parsed.push((*chunk, Arc::clone(&function), newlines));
            *slot = Some((function, newlines));
        }
    }
    remember(parsed);
    let functions: Vec<(Arc<Function>, u32)> = functions
        .into_iter()
        .map(|slot| slot.expect("every miss was parsed"))
        .collect();
    assemble(&functions)
}

/// Cuts `source` after the closing brace of every top-level `{ ... }`; the
/// text after the last one joins the last chunk.  The scan skips the
/// lexer's trivia exactly as the lexer does (`//` and `#` to the end of the
/// line, `/*` to the next `*/`), so every brace it counts is a token.
/// `None` when the braces do not balance or a block comment never ends.
fn split(source: &str) -> Option<Vec<&str>> {
    let bytes = source.as_bytes();
    let line_end = |from: usize| {
        bytes[from..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |n| from + n)
    };
    let mut ends = Vec::new();
    let mut depth = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'#' => i = line_end(i),
            b'/' if bytes.get(i + 1) == Some(&b'/') => i = line_end(i),
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let close = bytes[i + 2..].windows(2).position(|w| w == b"*/")?;
                i += close + 3;
            }
            b'{' => depth += 1,
            b'}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    ends.push(i + 1);
                }
            }
            _ => {}
        }
        i += 1;
    }
    if depth != 0 {
        return None;
    }
    if let Some(last) = ends.last_mut() {
        *last = source.len();
    }
    let mut start = 0;
    Some(
        ends.into_iter()
            .map(|end| {
                let chunk = &source[start..end];
                start = end;
                chunk
            })
            .collect(),
    )
}

/// Lexes, parses and locally checks one chunk, lines counted from its start
/// (its statement ids are left for [`assemble`] to number); `None` unless
/// it is exactly one function that passes.
fn parse_chunk(chunk: &str) -> Option<Function> {
    let tokens = lexer::lex(chunk).ok()?;
    let program = parser::Parser::new(tokens).parse_program().ok()?;
    let [function] = <[Function; 1]>::try_from(program.functions).ok()?;
    sema::check_function(&function, &HashMap::new()).ok()?;
    Some(function)
}

/// Inserts freshly parsed functions, forgetting the least recently used ones
/// beyond the budget.  A function larger than the whole budget is not kept.
fn remember(parsed: Vec<(&str, Arc<Function>, u32)>) {
    if parsed.is_empty() {
        return;
    }
    let mut memo = memo().lock().expect("parse memo");
    for (text, function, newlines) in parsed {
        let bytes = charge(text);
        if bytes > MEMO_BYTES || memo.entries.contains_key(text) {
            continue;
        }
        if memo.bytes + bytes > MEMO_BYTES {
            memo.evict_to((MEMO_BYTES * 3 / 4).saturating_sub(bytes));
        }
        let touched = memo.tick;
        memo.bytes += bytes;
        memo.entries.insert(
            text.into(),
            Entry {
                function,
                newlines,
                bytes,
                touched,
            },
        );
    }
    RESIDENT_BYTES.store(memo.bytes as u64, Ordering::Relaxed);
}

/// Clones the functions into one program: each chunk's lines move down by
/// the lines before it and statement ids run densely in pre-order across
/// the program, as the whole-source path numbers them.  Then the
/// cross-function rules of [`sema::check_program`]: `None` on a duplicate
/// name or on a call whose argument count differs from its defined callee.
fn assemble(functions: &[(Arc<Function>, u32)]) -> Option<Program> {
    let mut arity: HashMap<&str, usize> = HashMap::with_capacity(functions.len());
    for (function, _) in functions {
        if arity
            .insert(&function.name, function.params.len())
            .is_some()
        {
            return None;
        }
    }
    let mut calls_match = true;
    let mut next_id = 0u32;
    let mut line_offset = 0u32;
    let mut assembled = Vec::with_capacity(functions.len());
    for (function, newlines) in functions {
        let mut function = Function::clone(function);
        for_each_stmt_in_block_mut(&mut function.body, &mut |stmt| {
            if let Stmt::Call { callee, args, .. } = stmt {
                calls_match &= arity.get(callee.as_str()).is_none_or(|&n| n == args.len());
            }
            let (Stmt::Assign { id, line, .. }
            | Stmt::Call { id, line, .. }
            | Stmt::If { id, line, .. }
            | Stmt::Switch { id, line, .. }
            | Stmt::While { id, line, .. }
            | Stmt::Return { id, line, .. }) = stmt;
            *id = StmtId(next_id);
            *line += line_offset;
            next_id += 1;
        });
        line_offset += newlines;
        assembled.push(function);
    }
    calls_match.then_some(Program {
        functions: assembled,
        stmt_count: next_id,
    })
}
