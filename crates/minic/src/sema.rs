//! Semantic analysis: symbol resolution, light type checking, loop-bound
//! checking and dense [`StmtId`] assignment.

use crate::ast::{for_each_stmt_in_block_mut, Expr, Function, Program, Stmt, StmtId};
use crate::error::{Error, Result};
use std::collections::{HashMap, HashSet};

/// Checks `program` and assigns dense statement ids.
///
/// The following rules are enforced:
///
/// * variable names are unique per function (parameters and locals share one
///   namespace);
/// * every read variable is declared;
/// * assignment targets are declared;
/// * a call either targets an *external* leaf routine (a name without a
///   definition in the program — any arity) or a *defined* function, in
///   which case the argument count must match the definition's parameter
///   count (recursion is legal here; the call-graph analysis rejects
///   cycles with a typed error when bounds are composed);
/// * every `while` loop carries a positive `__bound(n)` annotation;
/// * `__range(lo, hi)` annotations are ordered and fit the declared type;
/// * `switch` case labels are unique per switch statement.
///
/// # Errors
///
/// Returns [`Error::Sema`] describing the first violation found.
pub fn check_program(program: &mut Program) -> Result<()> {
    let defined: HashMap<String, usize> = program
        .functions
        .iter()
        .map(|f| (f.name.clone(), f.params.len()))
        .collect();
    let mut names_seen = HashSet::new();
    for f in &program.functions {
        if !names_seen.insert(f.name.clone()) {
            return Err(Error::Sema(format!(
                "duplicate function definition `{}`",
                f.name
            )));
        }
    }

    let mut next_id: u32 = 0;
    for function in &mut program.functions {
        check_function(function, &defined)?;
        assign_ids(function, &mut next_id);
    }
    program.stmt_count = next_id;
    Ok(())
}

/// Checks one function against the argument counts of the `defined`
/// functions.  With no functions defined, this is every rule of
/// [`check_program`] but the two that span functions: unique function
/// names and the argument count of calls to defined functions.
pub(crate) fn check_function(function: &Function, defined: &HashMap<String, usize>) -> Result<()> {
    let mut vars: HashSet<&str> = HashSet::new();
    for decl in function.decls() {
        if !vars.insert(decl.name.as_str()) {
            return Err(Error::Sema(format!(
                "variable `{}` declared twice in function `{}`",
                decl.name, function.name
            )));
        }
        if let Some((lo, hi)) = decl.range {
            if lo > hi {
                return Err(Error::Sema(format!(
                    "range annotation of `{}` in `{}` is reversed ({lo} > {hi})",
                    decl.name, function.name
                )));
            }
            let (tlo, thi) = decl.ty.value_range();
            if lo < tlo || hi > thi {
                return Err(Error::Sema(format!(
                    "range annotation of `{}` in `{}` exceeds its type `{}`",
                    decl.name, function.name, decl.ty
                )));
            }
        }
        if let Some(init) = &decl.init {
            check_expr(init, &vars, &function.name)?;
        }
    }
    check_block(&function.body, &vars, defined, function)?;
    Ok(())
}

fn check_block(
    block: &crate::ast::Block,
    vars: &HashSet<&str>,
    defined: &HashMap<String, usize>,
    function: &Function,
) -> Result<()> {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Assign {
                target,
                value,
                line,
                ..
            } => {
                if !vars.contains(target.as_str()) {
                    return Err(Error::Sema(format!(
                        "assignment to undeclared variable `{target}` in `{}` (line {line})",
                        function.name
                    )));
                }
                check_expr(value, vars, &function.name)?;
            }
            Stmt::Call {
                callee, args, line, ..
            } => {
                if let Some(&arity) = defined.get(callee) {
                    if args.len() != arity {
                        return Err(Error::Sema(format!(
                            "call to `{callee}` in `{}` (line {line}) passes {} argument(s) but the definition takes {arity}",
                            function.name,
                            args.len()
                        )));
                    }
                }
                for a in args {
                    check_expr(a, vars, &function.name)?;
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                check_expr(cond, vars, &function.name)?;
                check_block(then_branch, vars, defined, function)?;
                if let Some(e) = else_branch {
                    check_block(e, vars, defined, function)?;
                }
            }
            Stmt::Switch {
                selector,
                cases,
                default,
                line,
                ..
            } => {
                check_expr(selector, vars, &function.name)?;
                let mut labels = HashSet::new();
                for case in cases {
                    if !labels.insert(case.value) {
                        return Err(Error::Sema(format!(
                            "duplicate case label {} in switch of `{}` (line {line})",
                            case.value, function.name
                        )));
                    }
                    check_block(&case.body, vars, defined, function)?;
                }
                if let Some(d) = default {
                    check_block(d, vars, defined, function)?;
                }
            }
            Stmt::While {
                cond,
                bound,
                body,
                line,
                ..
            } => {
                if *bound == 0 {
                    return Err(Error::Sema(format!(
                        "loop on line {line} of `{}` is missing a positive `__bound(n)` annotation (required for WCET analysis)",
                        function.name
                    )));
                }
                check_expr(cond, vars, &function.name)?;
                check_block(body, vars, defined, function)?;
            }
            Stmt::Return { value, .. } => {
                if let Some(v) = value {
                    check_expr(v, vars, &function.name)?;
                }
            }
        }
    }
    Ok(())
}

fn check_expr(expr: &Expr, vars: &HashSet<&str>, fname: &str) -> Result<()> {
    for v in expr.referenced_vars() {
        if !vars.contains(v) {
            return Err(Error::Sema(format!(
                "use of undeclared variable `{v}` in function `{fname}`"
            )));
        }
    }
    Ok(())
}

fn assign_ids(function: &mut Function, next_id: &mut u32) {
    for_each_stmt_in_block_mut(&mut function.body, &mut |stmt| {
        let id = StmtId(*next_id);
        *next_id += 1;
        match stmt {
            Stmt::Assign { id: slot, .. }
            | Stmt::Call { id: slot, .. }
            | Stmt::If { id: slot, .. }
            | Stmt::Switch { id: slot, .. }
            | Stmt::While { id: slot, .. }
            | Stmt::Return { id: slot, .. } => *slot = id,
        }
    });
}

#[cfg(test)]
mod tests {
    use crate::parse_program;

    #[test]
    fn assigns_dense_preorder_ids() {
        let p = parse_program("void f(int a) { a = 1; if (a) { a = 2; } a = 3; }").expect("parse");
        let mut ids = Vec::new();
        p.functions[0].for_each_stmt(&mut |s| ids.push(s.id().0));
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(p.stmt_count(), 4);
    }

    #[test]
    fn rejects_undeclared_variable_read() {
        let err = parse_program("void f() { int a; a = b; }").expect_err("should fail");
        assert!(err.to_string().contains("undeclared variable `b`"));
    }

    #[test]
    fn rejects_undeclared_assignment_target() {
        let err = parse_program("void f() { x = 1; }").expect_err("should fail");
        assert!(err.to_string().contains("undeclared variable `x`"));
    }

    #[test]
    fn rejects_duplicate_declaration() {
        let err = parse_program("void f(int a) { int a; }").expect_err("should fail");
        assert!(err.to_string().contains("declared twice"));
    }

    #[test]
    fn rejects_duplicate_function() {
        let err = parse_program("void f() { } void f() { }").expect_err("should fail");
        assert!(err.to_string().contains("duplicate function"));
    }

    #[test]
    fn allows_calls_to_defined_functions() {
        assert!(parse_program("void g() { } void f() { g(); }").is_ok());
    }

    #[test]
    fn rejects_arity_mismatch_on_defined_callee() {
        let err = parse_program("void g(int a) { } void f() { g(); }").expect_err("should fail");
        assert!(err.to_string().contains("0 argument(s)"));
        let err =
            parse_program("void g() { } void f(int a) { g(a, a); }").expect_err("should fail");
        assert!(err.to_string().contains("2 argument(s)"));
    }

    #[test]
    fn allows_calls_to_external_leaves() {
        assert!(parse_program("void f() { printf1(); }").is_ok());
    }

    #[test]
    fn rejects_unbounded_loop() {
        let err = parse_program("void f(int n) { int i; i = 0; while (i < n) { i = i + 1; } }")
            .expect_err("should fail");
        assert!(err.to_string().contains("__bound"));
    }

    #[test]
    fn rejects_reversed_or_oversized_range_annotation() {
        let err = parse_program("void f(int a __range(5, 1)) { }").expect_err("should fail");
        assert!(err.to_string().contains("reversed"));
        let err = parse_program("void f(char a __range(0, 300)) { }").expect_err("should fail");
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn rejects_duplicate_case_labels() {
        let err = parse_program("void f(int s) { switch (s) { case 1: break; case 1: break; } }")
            .expect_err("should fail");
        assert!(err.to_string().contains("duplicate case label"));
    }

    #[test]
    fn ids_are_unique_across_functions() {
        let p = parse_program("void f(int a) { a = 1; } void g(int b) { b = 2; b = 3; }")
            .expect("parse");
        let mut ids = Vec::new();
        for f in &p.functions {
            f.for_each_stmt(&mut |s| ids.push(s.id().0));
        }
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(p.stmt_count(), 3);
    }
}
