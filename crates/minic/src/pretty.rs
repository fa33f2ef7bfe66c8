//! Pretty printer: turns an AST back into C-like source text.
//!
//! Generated programs (wiper-control case study, TargetLink-style automotive
//! code) are built directly as ASTs; the pretty printer lets users inspect
//! them, and round-tripping through [`crate::parse_program`] is used as a
//! property test of parser/printer consistency.

use crate::ast::{Block, Expr, Function, Program, Stmt, UnOp};
use std::fmt::{self, Write};

const STRING_SINK: &str = "writing to a String cannot fail";

/// Renders a whole program as C-like source.
pub fn program_to_string(program: &Program) -> String {
    let mut out = String::new();
    for (i, f) in program.functions.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        write_function(&mut out, f).expect(STRING_SINK);
    }
    out
}

/// Renders a single function definition.
pub fn function_to_string(function: &Function) -> String {
    let mut out = String::new();
    write_function(&mut out, function).expect(STRING_SINK);
    out
}

/// Writes a single function definition into any [`fmt::Write`] sink — the
/// exact bytes [`function_to_string`] returns.  Content hashing streams the
/// source through this without building the `String`.
///
/// # Errors
///
/// Only the sink's own errors.
pub fn write_function<W: Write>(out: &mut W, function: &Function) -> fmt::Result {
    let ret = function.ret_ty.map_or("void", |t| t.keyword());
    write!(out, "{ret} {}(", function.name)?;
    for (i, p) in function.params.iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        write!(out, "{} {}", p.ty.keyword(), p.name)?;
        if let Some((lo, hi)) = p.range {
            write!(out, " __range({lo}, {hi})")?;
        }
    }
    out.write_str(") {\n")?;
    for local in &function.locals {
        write!(out, "    {} {}", local.ty.keyword(), local.name)?;
        if let Some((lo, hi)) = local.range {
            write!(out, " __range({lo}, {hi})")?;
        }
        if let Some(init) = &local.init {
            out.write_str(" = ")?;
            write_expr(out, init)?;
        }
        out.write_str(";\n")?;
    }
    write_block(out, &function.body, 1)?;
    out.write_str("}\n")
}

fn indent<W: Write>(out: &mut W, level: usize) -> fmt::Result {
    for _ in 0..level {
        out.write_str("    ")?;
    }
    Ok(())
}

fn write_block<W: Write>(out: &mut W, block: &Block, level: usize) -> fmt::Result {
    for stmt in &block.stmts {
        write_stmt(out, stmt, level)?;
    }
    Ok(())
}

fn write_stmt<W: Write>(out: &mut W, stmt: &Stmt, level: usize) -> fmt::Result {
    indent(out, level)?;
    match stmt {
        Stmt::Assign { target, value, .. } => {
            write!(out, "{target} = ")?;
            write_expr(out, value)?;
            out.write_str(";\n")
        }
        Stmt::Call { callee, args, .. } => {
            write!(out, "{callee}(")?;
            for (i, arg) in args.iter().enumerate() {
                if i > 0 {
                    out.write_str(", ")?;
                }
                write_expr(out, arg)?;
            }
            out.write_str(");\n")
        }
        Stmt::Return { value, .. } => match value {
            Some(v) => {
                out.write_str("return ")?;
                write_expr(out, v)?;
                out.write_str(";\n")
            }
            None => out.write_str("return;\n"),
        },
        Stmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            out.write_str("if (")?;
            write_expr(out, cond)?;
            out.write_str(") {\n")?;
            write_block(out, then_branch, level + 1)?;
            indent(out, level)?;
            match else_branch {
                Some(e) => {
                    out.write_str("} else {\n")?;
                    write_block(out, e, level + 1)?;
                    indent(out, level)?;
                    out.write_str("}\n")
                }
                None => out.write_str("}\n"),
            }
        }
        Stmt::Switch {
            selector,
            cases,
            default,
            ..
        } => {
            out.write_str("switch (")?;
            write_expr(out, selector)?;
            out.write_str(") {\n")?;
            for case in cases {
                indent(out, level + 1)?;
                writeln!(out, "case {}:", case.value)?;
                write_block(out, &case.body, level + 2)?;
                indent(out, level + 2)?;
                out.write_str("break;\n")?;
            }
            if let Some(d) = default {
                indent(out, level + 1)?;
                out.write_str("default:\n")?;
                write_block(out, d, level + 2)?;
                indent(out, level + 2)?;
                out.write_str("break;\n")?;
            }
            indent(out, level)?;
            out.write_str("}\n")
        }
        Stmt::While {
            cond, bound, body, ..
        } => {
            out.write_str("while (")?;
            write_expr(out, cond)?;
            writeln!(out, ") __bound({bound}) {{")?;
            write_block(out, body, level + 1)?;
            indent(out, level)?;
            out.write_str("}\n")
        }
    }
}

/// Writes an expression with full parenthesisation (unambiguous and easy to
/// re-parse; the paper's generated code is similarly parenthesis-heavy).
fn write_expr<W: Write>(out: &mut W, expr: &Expr) -> fmt::Result {
    match expr {
        Expr::Int(v) => write!(out, "{v}"),
        Expr::Var(name) => out.write_str(name),
        Expr::Unary { op, operand } => {
            out.write_str(match op {
                UnOp::Neg => "-(",
                UnOp::Not => "!(",
                UnOp::BitNot => "~(",
            })?;
            write_expr(out, operand)?;
            out.write_str(")")
        }
        Expr::Binary { op, lhs, rhs } => {
            out.write_str("(")?;
            write_expr(out, lhs)?;
            write!(out, " {} ", op.symbol())?;
            write_expr(out, rhs)?;
            out.write_str(")")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    #[test]
    fn round_trips_a_structured_function() {
        let src = r#"
            int control(int speed __range(0, 2), bool pump) {
                int state = 0;
                if (speed == 1 && pump) { state = 1; } else { state = 2; }
                switch (state) { case 1: act1(); break; case 2: act2(); break; default: break; }
                while (state > 0) __bound(3) { state = state - 1; }
                return state;
            }
        "#;
        let p1 = parse_program(src).expect("parse original");
        let printed = program_to_string(&p1);
        let p2 = parse_program(&printed).expect("parse printed");
        // Compare structure (ignoring line numbers) via a second print.
        assert_eq!(printed, program_to_string(&p2));
        assert_eq!(p1.stmt_count(), p2.stmt_count());
    }

    #[test]
    fn prints_range_annotations_and_bounds() {
        let src = "void f(int a __range(0, 3)) { int i; while (i < a) __bound(3) { i = i + 1; } }";
        let p = parse_program(src).expect("parse");
        let printed = program_to_string(&p);
        assert!(printed.contains("__range(0, 3)"));
        assert!(printed.contains("__bound(3)"));
    }

    #[test]
    fn expr_printing_is_fully_parenthesised() {
        let p = parse_program("void f(int a, int b) { a = a + b * 2; }").expect("parse");
        let printed = program_to_string(&p);
        assert!(printed.contains("(a + (b * 2))"), "{printed}");
    }
}
