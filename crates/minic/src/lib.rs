//! Mini-C frontend for the timing-model-generation toolchain.
//!
//! The DATE 2005 paper analyses C code that was produced automatically by the
//! dSpace TargetLink code generator from Matlab/Simulink models.  That code
//! has a very regular shape: one analysed function, scalar integer/boolean
//! variables, nested `if`/`switch` statements, bounded loops and calls to
//! external leaf routines.  `tmg-minic` implements exactly that subset of C —
//! enough to express the paper's case study and the industrial-sized generated
//! programs — together with
//!
//! * a [`lexer`] and recursive-descent [`parser`],
//! * a typed [`ast`] with statement identities ([`ast::StmtId`]) that the CFG
//!   and instrumentation layers refer back to,
//! * a [`sema`] pass (symbol resolution, type checking, loop-bound checking),
//! * a reference [`interp`]reter used as the semantic oracle for exhaustive
//!   end-to-end measurements and for validating generated test data, and
//! * a [`pretty`] printer so generated programs can be inspected as C source.
//!
//! # Example
//!
//! ```
//! use tmg_minic::parse_program;
//!
//! let src = r#"
//!     int clamp(int x) {
//!         int y;
//!         y = x;
//!         if (y > 100) { y = 100; }
//!         if (y < 0) { y = 0; }
//!         return y;
//!     }
//! "#;
//! let program = parse_program(src)?;
//! assert_eq!(program.functions.len(), 1);
//! assert_eq!(program.functions[0].name, "clamp");
//! # Ok::<(), tmg_minic::Error>(())
//! ```

pub mod ast;
pub mod interp;
pub mod lexer;
pub mod memo;
pub mod parser;
pub mod pretty;
pub mod sema;
pub mod token;
pub mod types;
pub mod value;

mod error;

pub use ast::{BinOp, Block, Expr, Function, Program, Stmt, StmtId, UnOp, VarDecl};
pub use error::{Error, Result};
pub use interp::{ExecOutcome, ExecTrace, Interpreter};
pub use types::Ty;
pub use value::Value;

/// Parses and semantically checks a complete mini-C program.
///
/// This is the main entry point of the crate: it runs the lexer, the parser
/// and the semantic analysis pass and returns a checked [`Program`] whose
/// statements carry stable [`StmtId`]s.
///
/// # Incremental parsing
///
/// A source of two or more functions goes through the process-wide
/// per-function parse [`memo`]: the source is split after each top-level
/// function, and only a function text not seen before is lexed, parsed and
/// checked on its own.  Known functions are cloned from the memo with
/// their lines moved to where they now stand, statement ids are
/// renumbered across the program, and the cross-function rules (unique
/// names, argument counts of calls to defined functions) run on the whole.
/// The result equals the whole-source parse, ids and lines included.
/// Whenever the memo cannot vouch for that (the braces do not balance, a
/// chunk is not exactly one valid function, or a cross-function rule
/// fails), the whole source is lexed, parsed and checked in one go, so
/// every error is the one the whole-source path reports.  A single-function
/// source always takes the whole-source path and is never remembered.
///
/// The memo holds at most [`memo::MEMO_BYTES`], charging each function
/// eight bytes per byte of its text (the text plus its AST); beyond that,
/// the least recently used functions are forgotten.
///
/// # Errors
///
/// Returns [`Error::Lex`], [`Error::Parse`] or [`Error::Sema`] when the source
/// is not valid mini-C.
///
/// # Example
///
/// ```
/// let p = tmg_minic::parse_program("int f(int a) { return a; }")?;
/// assert_eq!(p.functions[0].params.len(), 1);
/// # Ok::<(), tmg_minic::Error>(())
/// ```
pub fn parse_program(source: &str) -> Result<Program> {
    match memo::parse(source) {
        Some(program) => Ok(program),
        None => parse_whole(source),
    }
}

/// The whole-source path of [`parse_program`]: lex, parse and check the
/// entire text in one go, without the memo.  It is the reference the
/// memo's results are tested against.
///
/// # Errors
///
/// Same as [`parse_program`].
pub fn parse_whole(source: &str) -> Result<Program> {
    let tokens = lexer::lex(source)?;
    let mut program = parser::Parser::new(tokens).parse_program()?;
    sema::check_program(&mut program)?;
    Ok(program)
}

/// Parses a single function definition and wraps it in a [`Program`].
///
/// Convenience for tests and generators that deal with one analysed function
/// (the common case in the paper).
///
/// # Errors
///
/// Same as [`parse_program`].
pub fn parse_function(source: &str) -> Result<Function> {
    let program = parse_program(source)?;
    program
        .functions
        .into_iter()
        .next()
        .ok_or_else(|| Error::Parse("source contains no function definition".to_owned()))
}
