//! Recursive-descent parser for mini-C.

use crate::ast::{BinOp, Block, Expr, Function, Program, Stmt, StmtId, SwitchCase, UnOp, VarDecl};
use crate::error::{Error, Result};
use crate::token::{Keyword, Punct, Token, TokenKind};
use crate::types::Ty;

/// Deepest nesting the parser accepts, counting every enclosing statement
/// body, parenthesis, unary operator and binary operator of the syntax tree
/// being built.  Deeper input is a parse error, so neither the parser's own
/// recursion nor any recursive walk of the tree it returns (printer, sema,
/// CFG builder, encoder, interpreter, drop) can exhaust a thread's stack on
/// hostile source.  Real code nests a few dozen levels at most.
pub const MAX_NESTING: usize = 256;

/// Recursive-descent parser over the token stream produced by
/// [`crate::lexer::lex`].
///
/// The parser leaves every statement id as [`StmtId::UNASSIGNED`]; semantic
/// analysis assigns dense ids afterwards.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current nesting depth (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    /// Creates a parser over `tokens` (which must end in [`TokenKind::Eof`]).
    pub fn new(tokens: Vec<Token>) -> Parser {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    /// Enters one more level of nesting, failing past [`MAX_NESTING`].  The
    /// caller leaves it again by decrementing `self.depth`.
    fn descend(&mut self) -> Result<()> {
        if self.depth == MAX_NESTING {
            return Err(Error::Parse(format!(
                "nesting deeper than {MAX_NESTING} levels on line {}",
                self.peek_line()
            )));
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs `parse` one nesting level deeper.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Parser) -> Result<T>) -> Result<T> {
        self.descend()?;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_line(&self) -> u32 {
        self.tokens[self.pos.min(self.tokens.len() - 1)].line
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)]
            .kind
            .clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek() == &TokenKind::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected `{}` but found {} on line {}",
                p.as_str(),
                self.peek(),
                self.peek_line()
            )))
        }
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if self.peek() == &TokenKind::Keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected keyword `{}` but found {} on line {}",
                kw.as_str(),
                self.peek(),
                self.peek_line()
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.bump() {
            TokenKind::Ident(name) => Ok(name),
            other => Err(Error::Parse(format!(
                "expected identifier but found {other} on line {}",
                self.peek_line()
            ))),
        }
    }

    fn expect_int(&mut self) -> Result<i64> {
        match self.bump() {
            TokenKind::Int(v) => Ok(v),
            TokenKind::Punct(Punct::Minus) => match self.bump() {
                TokenKind::Int(v) => Ok(-v),
                other => Err(Error::Parse(format!(
                    "expected integer literal but found {other} on line {}",
                    self.peek_line()
                ))),
            },
            other => Err(Error::Parse(format!(
                "expected integer literal but found {other} on line {}",
                self.peek_line()
            ))),
        }
    }

    /// Parses a complete program (a sequence of function definitions).
    pub fn parse_program(&mut self) -> Result<Program> {
        let mut functions = Vec::new();
        while self.peek() != &TokenKind::Eof {
            functions.push(self.parse_function()?);
        }
        Ok(Program::new(functions))
    }

    fn try_parse_type(&mut self) -> Option<Ty> {
        match self.peek() {
            TokenKind::Keyword(Keyword::Bool) => {
                self.bump();
                Some(Ty::Bool)
            }
            TokenKind::Keyword(Keyword::Char) => {
                self.bump();
                Some(Ty::I8)
            }
            TokenKind::Keyword(Keyword::Int) => {
                self.bump();
                Some(Ty::I16)
            }
            TokenKind::Keyword(Keyword::Long) => {
                self.bump();
                Some(Ty::I32)
            }
            TokenKind::Keyword(Keyword::Unsigned) => {
                self.bump();
                if self.eat_keyword(Keyword::Char) {
                    Some(Ty::U8)
                } else {
                    // `unsigned` and `unsigned int` are both 16 bit.
                    self.eat_keyword(Keyword::Int);
                    Some(Ty::U16)
                }
            }
            _ => None,
        }
    }

    fn parse_function(&mut self) -> Result<Function> {
        let ret_ty = if self.eat_keyword(Keyword::Void) {
            None
        } else {
            match self.try_parse_type() {
                Some(ty) => Some(ty),
                None => {
                    return Err(Error::Parse(format!(
                        "expected return type but found {} on line {}",
                        self.peek(),
                        self.peek_line()
                    )))
                }
            }
        };
        let name = self.expect_ident()?;
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.eat_punct(Punct::RParen) {
            loop {
                if self.eat_keyword(Keyword::Void)
                    && self.peek() == &TokenKind::Punct(Punct::RParen)
                {
                    self.expect_punct(Punct::RParen)?;
                    break;
                }
                let ty = self.try_parse_type().ok_or_else(|| {
                    Error::Parse(format!(
                        "expected parameter type but found {} on line {}",
                        self.peek(),
                        self.peek_line()
                    ))
                })?;
                let pname = self.expect_ident()?;
                let mut decl = VarDecl::new(pname, ty);
                if let Some((lo, hi)) = self.try_parse_range()? {
                    decl = decl.with_range(lo, hi);
                }
                params.push(decl);
                if self.eat_punct(Punct::RParen) {
                    break;
                }
                self.expect_punct(Punct::Comma)?;
            }
        }
        self.expect_punct(Punct::LBrace)?;
        let mut locals = Vec::new();
        // C89-style declarations at the top of the body.
        while let Some(ty) = self.try_parse_type() {
            loop {
                let vname = self.expect_ident()?;
                let mut decl = VarDecl::new(vname, ty);
                if let Some((lo, hi)) = self.try_parse_range()? {
                    decl = decl.with_range(lo, hi);
                }
                if self.eat_punct(Punct::Assign) {
                    decl = decl.with_init(self.parse_expr()?);
                }
                locals.push(decl);
                if self.eat_punct(Punct::Comma) {
                    continue;
                }
                self.expect_punct(Punct::Semicolon)?;
                break;
            }
        }
        let body = self.parse_stmts_until_rbrace()?;
        Ok(Function {
            name,
            params,
            locals,
            ret_ty,
            body,
        })
    }

    fn try_parse_range(&mut self) -> Result<Option<(i64, i64)>> {
        if !self.eat_keyword(Keyword::Range) {
            return Ok(None);
        }
        self.expect_punct(Punct::LParen)?;
        let lo = self.expect_int()?;
        self.expect_punct(Punct::Comma)?;
        let hi = self.expect_int()?;
        self.expect_punct(Punct::RParen)?;
        Ok(Some((lo, hi)))
    }

    fn parse_stmts_until_rbrace(&mut self) -> Result<Block> {
        let mut stmts = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            if self.peek() == &TokenKind::Eof {
                return Err(Error::Parse(
                    "unexpected end of input inside block".to_owned(),
                ));
            }
            self.parse_stmt_into(&mut stmts)?;
        }
        Ok(Block::from_stmts(stmts))
    }

    fn parse_block(&mut self) -> Result<Block> {
        self.expect_punct(Punct::LBrace)?;
        self.parse_stmts_until_rbrace()
    }

    /// Parses one statement; bare nested blocks are flattened into the parent
    /// statement list, which is why this pushes into `out` instead of
    /// returning a single statement.
    fn parse_stmt_into(&mut self, out: &mut Vec<Stmt>) -> Result<()> {
        self.nested(|parser| parser.parse_stmt_at_depth(out))
    }

    fn parse_stmt_at_depth(&mut self, out: &mut Vec<Stmt>) -> Result<()> {
        let line = self.peek_line();
        match self.peek().clone() {
            TokenKind::Punct(Punct::LBrace) => {
                let inner = self.parse_block()?;
                out.extend(inner.stmts);
                Ok(())
            }
            TokenKind::Punct(Punct::Semicolon) => {
                self.bump();
                Ok(())
            }
            TokenKind::Keyword(Keyword::If) => {
                let stmt = self.parse_if(line)?;
                out.push(stmt);
                Ok(())
            }
            TokenKind::Keyword(Keyword::Switch) => {
                let stmt = self.parse_switch(line)?;
                out.push(stmt);
                Ok(())
            }
            TokenKind::Keyword(Keyword::While) => {
                let stmt = self.parse_while(line)?;
                out.push(stmt);
                Ok(())
            }
            TokenKind::Keyword(Keyword::For) => {
                self.parse_for_into(line, out)?;
                Ok(())
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value = if self.eat_punct(Punct::Semicolon) {
                    None
                } else {
                    let e = self.parse_expr()?;
                    self.expect_punct(Punct::Semicolon)?;
                    Some(e)
                };
                out.push(Stmt::Return {
                    id: StmtId::UNASSIGNED,
                    line,
                    value,
                });
                Ok(())
            }
            TokenKind::Ident(_) => {
                let stmt = self.parse_assign_or_call(line)?;
                self.expect_punct(Punct::Semicolon)?;
                out.push(stmt);
                Ok(())
            }
            other => Err(Error::Parse(format!(
                "unexpected {other} at start of statement on line {line}"
            ))),
        }
    }

    fn parse_assign_or_call(&mut self, line: u32) -> Result<Stmt> {
        let name = self.expect_ident()?;
        match self.peek() {
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                let mut args = Vec::new();
                if !self.eat_punct(Punct::RParen) {
                    loop {
                        args.push(self.parse_expr()?);
                        if self.eat_punct(Punct::RParen) {
                            break;
                        }
                        self.expect_punct(Punct::Comma)?;
                    }
                }
                Ok(Stmt::Call {
                    id: StmtId::UNASSIGNED,
                    line,
                    callee: name,
                    args,
                })
            }
            TokenKind::Punct(Punct::Assign) => {
                self.bump();
                let value = self.parse_expr()?;
                Ok(Stmt::Assign {
                    id: StmtId::UNASSIGNED,
                    line,
                    target: name,
                    value,
                })
            }
            TokenKind::Punct(Punct::PlusPlus) => {
                self.bump();
                Ok(Stmt::Assign {
                    id: StmtId::UNASSIGNED,
                    line,
                    target: name.clone(),
                    value: Expr::binary(BinOp::Add, Expr::var(name), Expr::int(1)),
                })
            }
            TokenKind::Punct(Punct::MinusMinus) => {
                self.bump();
                Ok(Stmt::Assign {
                    id: StmtId::UNASSIGNED,
                    line,
                    target: name.clone(),
                    value: Expr::binary(BinOp::Sub, Expr::var(name), Expr::int(1)),
                })
            }
            other => Err(Error::Parse(format!(
                "expected `=`, `++`, `--` or `(` after identifier `{name}` but found {other} on line {line}"
            ))),
        }
    }

    fn parse_if(&mut self, line: u32) -> Result<Stmt> {
        self.expect_keyword(Keyword::If)?;
        self.expect_punct(Punct::LParen)?;
        let cond = self.parse_expr()?;
        self.expect_punct(Punct::RParen)?;
        let then_branch = self.parse_branch_body()?;
        let else_branch = if self.eat_keyword(Keyword::Else) {
            if self.peek() == &TokenKind::Keyword(Keyword::If) {
                let nested_line = self.peek_line();
                let nested = self.nested(|parser| parser.parse_if(nested_line))?;
                Some(Block::from_stmts(vec![nested]))
            } else {
                Some(self.parse_branch_body()?)
            }
        } else {
            None
        };
        Ok(Stmt::If {
            id: StmtId::UNASSIGNED,
            line,
            cond,
            then_branch,
            else_branch,
        })
    }

    /// A branch body is either a braced block or a single statement.
    fn parse_branch_body(&mut self) -> Result<Block> {
        if self.peek() == &TokenKind::Punct(Punct::LBrace) {
            self.parse_block()
        } else {
            let mut stmts = Vec::new();
            self.parse_stmt_into(&mut stmts)?;
            Ok(Block::from_stmts(stmts))
        }
    }

    fn parse_switch(&mut self, line: u32) -> Result<Stmt> {
        self.expect_keyword(Keyword::Switch)?;
        self.expect_punct(Punct::LParen)?;
        let selector = self.parse_expr()?;
        self.expect_punct(Punct::RParen)?;
        self.expect_punct(Punct::LBrace)?;
        let mut cases = Vec::new();
        let mut default = None;
        loop {
            if self.eat_punct(Punct::RBrace) {
                break;
            }
            if self.eat_keyword(Keyword::Case) {
                let value = self.expect_int()?;
                self.expect_punct(Punct::Colon)?;
                let body = self.parse_case_body()?;
                cases.push(SwitchCase { value, body });
            } else if self.eat_keyword(Keyword::Default) {
                self.expect_punct(Punct::Colon)?;
                let body = self.parse_case_body()?;
                if default.is_some() {
                    return Err(Error::Parse(format!(
                        "duplicate `default` label in switch on line {line}"
                    )));
                }
                default = Some(body);
            } else {
                return Err(Error::Parse(format!(
                    "expected `case`, `default` or `}}` in switch but found {} on line {}",
                    self.peek(),
                    self.peek_line()
                )));
            }
        }
        Ok(Stmt::Switch {
            id: StmtId::UNASSIGNED,
            line,
            selector,
            cases,
            default,
        })
    }

    /// Parses the statements of a case arm up to (and consuming) the `break;`.
    /// Fall-through is not supported: every arm must end with `break;` or be
    /// followed directly by `case`/`default`/`}` with an empty body.
    fn parse_case_body(&mut self) -> Result<Block> {
        let mut stmts = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Keyword(Keyword::Break) => {
                    self.bump();
                    self.expect_punct(Punct::Semicolon)?;
                    return Ok(Block::from_stmts(stmts));
                }
                TokenKind::Keyword(Keyword::Case)
                | TokenKind::Keyword(Keyword::Default)
                | TokenKind::Punct(Punct::RBrace) => {
                    if stmts.is_empty() {
                        return Ok(Block::from_stmts(stmts));
                    }
                    return Err(Error::Parse(format!(
                        "switch case starting before line {} must end with `break;` (fall-through is not supported)",
                        self.peek_line()
                    )));
                }
                TokenKind::Eof => {
                    return Err(Error::Parse(
                        "unexpected end of input inside switch case".to_owned(),
                    ))
                }
                _ => self.parse_stmt_into(&mut stmts)?,
            }
        }
    }

    fn parse_while(&mut self, line: u32) -> Result<Stmt> {
        self.expect_keyword(Keyword::While)?;
        self.expect_punct(Punct::LParen)?;
        let cond = self.parse_expr()?;
        self.expect_punct(Punct::RParen)?;
        let bound = self.parse_bound()?;
        let body = self.parse_branch_body()?;
        Ok(Stmt::While {
            id: StmtId::UNASSIGNED,
            line,
            cond,
            bound,
            body,
        })
    }

    fn parse_bound(&mut self) -> Result<u32> {
        if !self.eat_keyword(Keyword::Bound) {
            // A missing bound is a semantic error, but the parser accepts it so
            // the error message can point at the loop.
            return Ok(0);
        }
        self.expect_punct(Punct::LParen)?;
        let v = self.expect_int()?;
        self.expect_punct(Punct::RParen)?;
        if v < 0 {
            return Err(Error::Parse("loop bound must be non-negative".to_owned()));
        }
        Ok(v as u32)
    }

    /// Desugars `for (init; cond; step) __bound(n) { body }` into
    /// `init; while (cond) __bound(n) { body; step; }`.
    fn parse_for_into(&mut self, line: u32, out: &mut Vec<Stmt>) -> Result<()> {
        self.expect_keyword(Keyword::For)?;
        self.expect_punct(Punct::LParen)?;
        if !self.eat_punct(Punct::Semicolon) {
            let init = self.parse_assign_or_call(line)?;
            self.expect_punct(Punct::Semicolon)?;
            out.push(init);
        }
        let cond = if self.peek() == &TokenKind::Punct(Punct::Semicolon) {
            Expr::int(1)
        } else {
            self.parse_expr()?
        };
        self.expect_punct(Punct::Semicolon)?;
        let step = if self.peek() == &TokenKind::Punct(Punct::RParen) {
            None
        } else {
            Some(self.parse_assign_or_call(line)?)
        };
        self.expect_punct(Punct::RParen)?;
        let bound = self.parse_bound()?;
        let mut body = self.parse_branch_body()?;
        if let Some(step) = step {
            body.stmts.push(step);
        }
        out.push(Stmt::While {
            id: StmtId::UNASSIGNED,
            line,
            cond,
            bound,
            body,
        });
        Ok(())
    }

    /// Parses an expression with standard C precedence.
    pub fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_binary(0)
    }

    /// Folds a left-associative chain.  Each folded operator deepens the
    /// tree by one level, so the chain counts against [`MAX_NESTING`] like
    /// nesting does even though it does not recurse here.
    fn parse_binary(&mut self, min_prec: u8) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        let mut folded = 0;
        let out = loop {
            let Some((op, prec)) = self.peek_binop() else {
                break Ok(lhs);
            };
            if prec < min_prec {
                break Ok(lhs);
            }
            self.bump();
            if let Err(e) = self.descend() {
                break Err(e);
            }
            folded += 1;
            match self.parse_binary(prec + 1) {
                Ok(rhs) => lhs = Expr::binary(op, lhs, rhs),
                Err(e) => break Err(e),
            }
        };
        self.depth -= folded;
        out
    }

    fn peek_binop(&self) -> Option<(BinOp, u8)> {
        let p = match self.peek() {
            TokenKind::Punct(p) => *p,
            _ => return None,
        };
        Some(match p {
            Punct::OrOr => (BinOp::Or, 1),
            Punct::AndAnd => (BinOp::And, 2),
            Punct::Pipe => (BinOp::BitOr, 3),
            Punct::Caret => (BinOp::BitXor, 4),
            Punct::Amp => (BinOp::BitAnd, 5),
            Punct::EqEq => (BinOp::Eq, 6),
            Punct::NotEq => (BinOp::Ne, 6),
            Punct::Lt => (BinOp::Lt, 7),
            Punct::Le => (BinOp::Le, 7),
            Punct::Gt => (BinOp::Gt, 7),
            Punct::Ge => (BinOp::Ge, 7),
            Punct::Shl => (BinOp::Shl, 8),
            Punct::Shr => (BinOp::Shr, 8),
            Punct::Plus => (BinOp::Add, 9),
            Punct::Minus => (BinOp::Sub, 9),
            Punct::Star => (BinOp::Mul, 10),
            Punct::Slash => (BinOp::Div, 10),
            Punct::Percent => (BinOp::Mod, 10),
            _ => return None,
        })
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        match self.peek() {
            TokenKind::Punct(Punct::Minus) => {
                self.bump();
                let operand = self.nested(Parser::parse_unary)?;
                Ok(Expr::unary(UnOp::Neg, operand))
            }
            TokenKind::Punct(Punct::Not) => {
                self.bump();
                let operand = self.nested(Parser::parse_unary)?;
                Ok(Expr::unary(UnOp::Not, operand))
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        let line = self.peek_line();
        match self.bump() {
            TokenKind::Int(v) => Ok(Expr::Int(v)),
            TokenKind::Ident(name) => Ok(Expr::Var(name)),
            TokenKind::Punct(Punct::LParen) => {
                let e = self.nested(Parser::parse_expr)?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            other => Err(Error::Parse(format!(
                "expected expression but found {other} on line {line}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Program {
        Parser::new(lex(src).expect("lex"))
            .parse_program()
            .expect("parse")
    }

    fn parse_err(src: &str) -> Error {
        Parser::new(lex(src).expect("lex"))
            .parse_program()
            .expect_err("should fail")
    }

    #[test]
    fn parses_empty_void_function() {
        let p = parse("void f() { }");
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.functions[0].ret_ty, None);
        assert!(p.functions[0].body.is_empty());
    }

    #[test]
    fn parses_params_and_locals_with_annotations() {
        let p = parse(
            "int f(int a __range(0, 2), bool b) { unsigned char s __range(0, 8); long t = 5; return a; }",
        );
        let f = &p.functions[0];
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].range, Some((0, 2)));
        assert_eq!(f.params[1].ty, Ty::Bool);
        assert_eq!(f.locals.len(), 2);
        assert_eq!(f.locals[0].ty, Ty::U8);
        assert_eq!(f.locals[0].range, Some((0, 8)));
        assert_eq!(f.locals[1].init, Some(Expr::int(5)));
    }

    #[test]
    fn parses_if_else_chain() {
        let p =
            parse("void f(int a) { if (a == 0) { g(); } else if (a == 1) { h(); } else { k(); } }");
        let f = &p.functions[0];
        assert_eq!(f.body.stmts.len(), 1);
        match &f.body.stmts[0] {
            Stmt::If { else_branch, .. } => {
                let else_b = else_branch.as_ref().expect("else");
                assert!(matches!(else_b.stmts[0], Stmt::If { .. }));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_switch_with_cases_and_default() {
        let p = parse(
            "void f(int s) { switch (s) { case 0: g(); break; case 1: break; default: h(); break; } }",
        );
        match &p.functions[0].body.stmts[0] {
            Stmt::Switch { cases, default, .. } => {
                assert_eq!(cases.len(), 2);
                assert_eq!(cases[0].value, 0);
                assert!(cases[1].body.is_empty());
                assert!(default.is_some());
            }
            other => panic!("expected switch, got {other:?}"),
        }
    }

    #[test]
    fn rejects_switch_fall_through() {
        let err = parse_err("void f(int s) { switch (s) { case 0: g(); case 1: break; } }");
        assert!(matches!(err, Error::Parse(_)));
    }

    #[test]
    fn parses_while_with_bound() {
        let p = parse("void f(int n) { int i; i = 0; while (i < n) __bound(10) { i = i + 1; } }");
        match &p.functions[0].body.stmts[1] {
            Stmt::While { bound, .. } => assert_eq!(*bound, 10),
            other => panic!("expected while, got {other:?}"),
        }
    }

    #[test]
    fn desugars_for_loop_into_while() {
        let p = parse("void f() { int i; for (i = 0; i < 4; i++) __bound(4) { g(); } }");
        let stmts = &p.functions[0].body.stmts;
        assert!(matches!(stmts[0], Stmt::Assign { .. }));
        match &stmts[1] {
            Stmt::While { body, bound, .. } => {
                assert_eq!(*bound, 4);
                // body = { g(); i = i + 1; }
                assert_eq!(body.stmts.len(), 2);
                assert!(matches!(body.stmts[1], Stmt::Assign { .. }));
            }
            other => panic!("expected while, got {other:?}"),
        }
    }

    #[test]
    fn expression_precedence_is_c_like() {
        let p = parse(
            "void f(int a, int b, int c) { a = a + b * c; b = (a + b) * c; c = a == 0 && b < 2; }",
        );
        let stmts = &p.functions[0].body.stmts;
        match &stmts[0] {
            Stmt::Assign { value, .. } => match value {
                Expr::Binary {
                    op: BinOp::Add,
                    rhs,
                    ..
                } => {
                    assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
                }
                other => panic!("expected a + (b*c), got {other:?}"),
            },
            other => panic!("expected assign, got {other:?}"),
        }
        match &stmts[2] {
            Stmt::Assign { value, .. } => {
                assert!(matches!(value, Expr::Binary { op: BinOp::And, .. }));
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn increment_and_decrement_desugar_to_assignments() {
        let p = parse("void f(int a) { a++; a--; }");
        let stmts = &p.functions[0].body.stmts;
        assert!(matches!(
            &stmts[0],
            Stmt::Assign {
                value: Expr::Binary { op: BinOp::Add, .. },
                ..
            }
        ));
        assert!(matches!(
            &stmts[1],
            Stmt::Assign {
                value: Expr::Binary { op: BinOp::Sub, .. },
                ..
            }
        ));
    }

    #[test]
    fn bare_blocks_are_flattened() {
        let p = parse("void f() { { g(); { h(); } } k(); }");
        assert_eq!(p.functions[0].body.stmts.len(), 3);
    }

    #[test]
    fn figure1_example_parses() {
        let src = r#"
            int main() {
                int i;
                printf1();
                printf2();
                if (i == 0) {
                    printf3();
                    if (i == 0) { printf4(); } else { printf5(); }
                }
                if (i == 0) {
                    printf6();
                    printf7();
                }
                printf8();
                return 0;
            }
        "#;
        let p = parse(src);
        assert_eq!(p.functions[0].branch_count(), 3);
    }

    #[test]
    fn reports_unexpected_token() {
        let err = parse_err("void f() { + }");
        assert!(err.to_string().contains("statement"));
    }

    /// `return` of `a` inside `depth` parentheses: the statement is one
    /// level, each parenthesis one more.
    fn parenthesised(depth: usize) -> String {
        format!(
            "int f(int a) {{ return {}a{}; }}",
            "(".repeat(depth),
            ")".repeat(depth)
        )
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        let p = parse(&parenthesised(MAX_NESTING - 1));
        assert!(matches!(
            &p.functions[0].body.stmts[0],
            Stmt::Return { value: Some(Expr::Var(name)), .. } if name == "a"
        ));
        let nested_ifs = format!(
            "void f(int a) {{ {}g();{} }}",
            "if (a) { ".repeat(MAX_NESTING - 1),
            " }".repeat(MAX_NESTING - 1)
        );
        parse(&nested_ifs);
        let chain = format!(
            "int f(int a) {{ return a{}; }}",
            " + a".repeat(MAX_NESTING - 1)
        );
        parse(&chain);
    }

    #[test]
    fn nesting_past_the_limit_is_a_parse_error() {
        let deeper = [
            parenthesised(MAX_NESTING),
            format!("int f(int a) {{ return {}a; }}", "- ".repeat(MAX_NESTING)),
            format!("int f(int a) {{ return a{}; }}", " + a".repeat(MAX_NESTING)),
            format!(
                "void f(int a) {{ {}g();{} }}",
                "{ ".repeat(MAX_NESTING),
                " }".repeat(MAX_NESTING)
            ),
            format!(
                "void f(int a) {{ if (a) {{ g(); }}{} }}",
                " else if (a) { g(); }".repeat(MAX_NESTING)
            ),
            // Far past any thread's stack if the parser recursed unchecked.
            parenthesised(50_000),
        ];
        for source in &deeper {
            match parse_err(source) {
                Error::Parse(message) => assert!(
                    message.starts_with(&format!("nesting deeper than {MAX_NESTING} levels")),
                    "{message}"
                ),
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn reports_missing_close_brace() {
        let err = parse_err("void f() { g();");
        assert!(matches!(err, Error::Parse(_)));
    }
}
