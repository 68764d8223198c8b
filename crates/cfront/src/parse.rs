//! Recursive-descent parser for the C subset.
//!
//! The grammar covers what the points-to analysis (and the synthetic
//! benchmark generator) need: globals, struct definitions, functions,
//! pointer declarators of arbitrary depth, function-pointer declarators
//! `ret (*name)(…)`, arrays, the usual expression grammar with C precedence,
//! casts, and `if`/`while`/`for`/`return` statements. Prototypes are parsed
//! and discarded.
//!
//! Every place the grammar nests — a parenthesized or operand expression,
//! an initializer list, a statement body — goes through one depth counter,
//! so input nested deeper than [`MAX_NESTING`] is a [`ParseError`] instead
//! of a stack overflow.

use crate::ast::*;
use crate::lex::{lex, LexError};
use crate::token::{Spanned, Token};
use std::fmt;

/// How deeply expressions and statements may nest. Low enough that a
/// debug build parses at this depth on a 2 MiB thread; no program in the
/// synthetic suite comes close.
pub const MAX_NESTING: usize = 96;

/// A syntax error with its source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// 1-based source line (0 for end of input).
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError { message: e.message, line: e.line }
    }
}

/// Parses a full translation unit.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first lexical or syntactic
/// problem.
///
/// # Examples
///
/// ```
/// use bane_cfront::parse::parse;
///
/// let program = parse("int main(void) { int x; int *p; p = &x; return *p; }")?;
/// assert_eq!(program.functions.len(), 1);
/// assert_eq!(program.functions[0].name, "main");
/// # Ok::<(), bane_cfront::parse::ParseError>(())
/// ```
pub fn parse(source: &str) -> Result<Program, ParseError> {
    let tokens = lex(source)?;
    Parser { tokens, pos: 0, depth: 0 }.program()
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Nesting levels currently open (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    /// Parses one nested construct with `f`, one level deeper, failing
    /// instead of recursing past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth >= MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let result = f(self);
        self.depth -= 1;
        result
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1).map(|s| &s.token)
    }

    fn line(&self) -> u32 {
        self.tokens.get(self.pos).map(|s| s.line).unwrap_or(0)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        self.pos += 1;
        t
    }

    fn eat(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Token) -> Result<(), ParseError> {
        if self.eat(&tok) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{tok}`, found {}",
                self.peek().map_or("end of input".to_string(), |t| format!("`{t}`"))
            )))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError { message, line: self.line() }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(ParseError {
                message: format!(
                    "expected identifier, found {}",
                    other.map_or("end of input".to_string(), |t| format!("`{t}`"))
                ),
                line: self.tokens.get(self.pos - 1).map(|s| s.line).unwrap_or(0),
            }),
        }
    }

    // ------------------------------------------------------------------
    // Top level
    // ------------------------------------------------------------------

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut program = Program::default();
        while self.peek().is_some() {
            // Storage qualifiers are parsed and discarded (no effect on the
            // flow-insensitive analysis).
            while self.eat(&Token::KwStatic) || self.eat(&Token::KwExtern) {}
            if self.peek() == Some(&Token::KwStruct)
                && matches!(self.peek2(), Some(Token::Ident(_)))
                && self.tokens.get(self.pos + 2).map(|s| &s.token) == Some(&Token::LBrace)
            {
                program.structs.push(self.struct_def()?);
                continue;
            }
            self.top_item(&mut program)?;
        }
        Ok(program)
    }

    fn struct_def(&mut self) -> Result<StructDef, ParseError> {
        self.expect(Token::KwStruct)?;
        let name = self.ident()?;
        self.expect(Token::LBrace)?;
        let mut fields = Vec::new();
        while !self.eat(&Token::RBrace) {
            let base = self.base_type()?;
            loop {
                let (ty, field) = self.declarator(base.clone())?;
                fields.push(Decl { ty, name: field, init: None });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(Token::Semi)?;
        }
        self.expect(Token::Semi)?;
        Ok(StructDef { name, fields })
    }

    /// A function definition, prototype, or global declaration list.
    fn top_item(&mut self, program: &mut Program) -> Result<(), ParseError> {
        let base = self.base_type()?;
        let (ty, name) = self.declarator(base.clone())?;

        // Function definition or prototype: `name(params) { … }` / `;`.
        if ty.base != BaseType::FnPtr && self.peek() == Some(&Token::LParen) {
            self.expect(Token::LParen)?;
            let params = self.params()?;
            self.expect(Token::RParen)?;
            if self.eat(&Token::Semi) {
                return Ok(()); // prototype: discard
            }
            self.expect(Token::LBrace)?;
            let body = self.block_items()?;
            program.functions.push(Function { ret: ty, name, params, body });
            return Ok(());
        }

        // Global declaration list.
        let mut decl_ty = ty;
        let mut decl_name = name;
        loop {
            let init =
                if self.eat(&Token::Assign) { Some(self.initializer()?) } else { None };
            program.globals.push(Decl { ty: decl_ty, name: decl_name, init });
            if !self.eat(&Token::Comma) {
                break;
            }
            let (t, n) = self.declarator(base.clone())?;
            decl_ty = t;
            decl_name = n;
        }
        self.expect(Token::Semi)?;
        Ok(())
    }

    fn params(&mut self) -> Result<Vec<Decl>, ParseError> {
        let mut params = Vec::new();
        if self.peek() == Some(&Token::RParen) {
            return Ok(params);
        }
        if self.peek() == Some(&Token::KwVoid) && self.peek2() == Some(&Token::RParen) {
            self.bump();
            return Ok(params);
        }
        loop {
            let base = self.base_type()?;
            // Parameter names are optional (prototypes).
            let (ty, name) = if matches!(
                self.peek(),
                Some(Token::Ident(_)) | Some(Token::Star) | Some(Token::LParen)
            ) {
                self.declarator(base)?
            } else {
                (Type::scalar(base), String::new())
            };
            params.push(Decl { ty, name, init: None });
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(params)
    }

    // ------------------------------------------------------------------
    // Types and declarators
    // ------------------------------------------------------------------

    fn at_type(&self) -> bool {
        matches!(
            self.peek(),
            Some(Token::KwInt) | Some(Token::KwChar) | Some(Token::KwVoid)
                | Some(Token::KwStruct)
        )
    }

    fn base_type(&mut self) -> Result<BaseType, ParseError> {
        match self.bump() {
            Some(Token::KwInt) => Ok(BaseType::Int),
            Some(Token::KwChar) => Ok(BaseType::Char),
            Some(Token::KwVoid) => Ok(BaseType::Void),
            Some(Token::KwStruct) => Ok(BaseType::Struct(self.ident()?)),
            other => Err(self.err(format!(
                "expected type, found {}",
                other.map_or("end of input".to_string(), |t| format!("`{t}`"))
            ))),
        }
    }

    /// Parses `'*'* name ('[' N ']')?` or the function-pointer declarator
    /// `'(' '*' name ')' '(' … ')'`. Returns the full type and the name.
    fn declarator(&mut self, base: BaseType) -> Result<(Type, String), ParseError> {
        let mut depth = 0;
        while self.eat(&Token::Star) {
            depth += 1;
        }
        if self.peek() == Some(&Token::LParen) && self.peek2() == Some(&Token::Star) {
            // ret (*name)(param-types) — the analysis only needs "a pointer
            // to a function", so parameter types are skipped.
            self.expect(Token::LParen)?;
            self.expect(Token::Star)?;
            let name = self.ident()?;
            self.expect(Token::RParen)?;
            self.expect(Token::LParen)?;
            let mut nesting = 1;
            while nesting > 0 {
                match self.bump() {
                    Some(Token::LParen) => nesting += 1,
                    Some(Token::RParen) => nesting -= 1,
                    Some(_) => {}
                    None => return Err(self.err("unterminated declarator".into())),
                }
            }
            return Ok((Type { base: BaseType::FnPtr, ptr_depth: depth + 1, array: None }, name));
        }
        let name = self.ident()?;
        let array = if self.eat(&Token::LBracket) {
            let n = match self.bump() {
                Some(Token::Int(v)) if v >= 0 => v as u64,
                _ => return Err(self.err("expected array length".into())),
            };
            self.expect(Token::RBracket)?;
            Some(n)
        } else {
            None
        };
        Ok((Type { base, ptr_depth: depth, array }, name))
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn block_items(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut items = Vec::new();
        while !self.eat(&Token::RBrace) {
            if self.peek().is_none() {
                return Err(self.err("unterminated block".into()));
            }
            items.push(self.stmt()?);
        }
        Ok(items)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Some(Token::LBrace) => {
                self.bump();
                Ok(Stmt::Block(self.nested(Self::block_items)?))
            }
            Some(Token::KwIf) => {
                self.bump();
                self.expect(Token::LParen)?;
                let cond = self.expr()?;
                self.expect(Token::RParen)?;
                let then = self.stmt_as_block()?;
                let els = if self.eat(&Token::KwElse) {
                    self.stmt_as_block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If(cond, then, els))
            }
            Some(Token::KwWhile) => {
                self.bump();
                self.expect(Token::LParen)?;
                let cond = self.expr()?;
                self.expect(Token::RParen)?;
                Ok(Stmt::While(cond, self.stmt_as_block()?))
            }
            Some(Token::KwFor) => {
                self.bump();
                self.expect(Token::LParen)?;
                let init = if self.peek() == Some(&Token::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Token::Semi)?;
                let cond = if self.peek() == Some(&Token::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Token::Semi)?;
                let step = if self.peek() == Some(&Token::RParen) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Token::RParen)?;
                Ok(Stmt::For(init, cond, step, self.stmt_as_block()?))
            }
            Some(Token::KwDo) => {
                self.bump();
                let body = self.stmt_as_block()?;
                self.expect(Token::KwWhile)?;
                self.expect(Token::LParen)?;
                let cond = self.expr()?;
                self.expect(Token::RParen)?;
                self.expect(Token::Semi)?;
                Ok(Stmt::DoWhile(body, cond))
            }
            Some(Token::KwSwitch) => {
                self.bump();
                self.expect(Token::LParen)?;
                let scrutinee = self.expr()?;
                self.expect(Token::RParen)?;
                self.expect(Token::LBrace)?;
                let mut cases = Vec::new();
                while !self.eat(&Token::RBrace) {
                    let value = if self.eat(&Token::KwCase) {
                        let v = match self.bump() {
                            Some(Token::Int(v)) => v,
                            Some(Token::Char(v)) => v,
                            Some(Token::Minus) => match self.bump() {
                                Some(Token::Int(v)) => -v,
                                _ => return Err(self.err("expected case value".into())),
                            },
                            _ => return Err(self.err("expected case value".into())),
                        };
                        Some(v)
                    } else if self.eat(&Token::KwDefault) {
                        None
                    } else {
                        return Err(self.err("expected `case` or `default`".into()));
                    };
                    self.expect(Token::Colon)?;
                    let mut body = Vec::new();
                    while !matches!(
                        self.peek(),
                        Some(Token::KwCase) | Some(Token::KwDefault) | Some(Token::RBrace)
                            | None
                    ) {
                        body.push(self.nested(Self::stmt)?);
                    }
                    cases.push(SwitchCase { value, body });
                }
                Ok(Stmt::Switch(scrutinee, cases))
            }
            Some(Token::KwBreak) => {
                self.bump();
                self.expect(Token::Semi)?;
                Ok(Stmt::Break)
            }
            Some(Token::KwContinue) => {
                self.bump();
                self.expect(Token::Semi)?;
                Ok(Stmt::Continue)
            }
            Some(Token::KwGoto) => {
                self.bump();
                let label = self.ident()?;
                self.expect(Token::Semi)?;
                Ok(Stmt::Goto(label))
            }
            Some(Token::Ident(_)) if self.peek2() == Some(&Token::Colon) => {
                let label = self.ident()?;
                self.expect(Token::Colon)?;
                Ok(Stmt::Label(label))
            }
            Some(Token::KwStatic) | Some(Token::KwExtern) => {
                self.bump();
                self.nested(Self::stmt)
            }
            Some(Token::KwReturn) => {
                self.bump();
                let value = if self.peek() == Some(&Token::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Token::Semi)?;
                Ok(Stmt::Return(value))
            }
            Some(Token::Semi) => {
                self.bump();
                Ok(Stmt::Block(Vec::new()))
            }
            _ if self.at_type() => {
                let base = self.base_type()?;
                let (ty, name) = self.declarator(base)?;
                let init = if self.eat(&Token::Assign) {
                    Some(self.initializer()?)
                } else {
                    None
                };
                self.expect(Token::Semi)?;
                Ok(Stmt::Decl(Decl { ty, name, init }))
            }
            _ => {
                let e = self.expr()?;
                self.expect(Token::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn stmt_as_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.nested(|p| {
            if p.eat(&Token::LBrace) {
                p.block_items()
            } else {
                Ok(vec![p.stmt()?])
            }
        })
    }

    // ------------------------------------------------------------------
    // Expressions (C precedence, subset)
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.assign_expr()?;
        while self.eat(&Token::Comma) {
            let rhs = self.assign_expr()?;
            e = Expr::Comma(Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    /// An initializer: a brace list (possibly nested) or an assignment
    /// expression.
    fn initializer(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Token::LBrace) {
            let mut items = Vec::new();
            if self.peek() != Some(&Token::RBrace) {
                loop {
                    items.push(self.nested(Self::initializer)?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                    if self.peek() == Some(&Token::RBrace) {
                        break; // trailing comma
                    }
                }
            }
            self.expect(Token::RBrace)?;
            Ok(Expr::InitList(items))
        } else {
            self.assign_expr()
        }
    }

    fn assign_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.ternary_expr()?;
        // Compound assignments desugar: `l op= r` becomes `l = l op r`
        // (sound for a flow-insensitive analysis; the printer emits the
        // desugared form).
        let compound = match self.peek() {
            Some(Token::Assign) => None.into_iter().next(),
            Some(Token::PlusAssign) => Some(BinOp::Add),
            Some(Token::MinusAssign) => Some(BinOp::Sub),
            Some(Token::StarAssign) => Some(BinOp::Mul),
            Some(Token::SlashAssign) => Some(BinOp::Div),
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.nested(Self::assign_expr)?;
        match compound {
            None => Ok(Expr::assign(lhs, rhs)),
            Some(op) => {
                let combined = Expr::Binary(op, Box::new(lhs.clone()), Box::new(rhs));
                Ok(Expr::assign(lhs, combined))
            }
        }
    }

    fn ternary_expr(&mut self) -> Result<Expr, ParseError> {
        let cond = self.binary_expr(0)?;
        if self.eat(&Token::Question) {
            let then = self.nested(Self::expr)?;
            self.expect(Token::Colon)?;
            let els = self.nested(Self::assign_expr)?;
            Ok(Expr::Ternary(Box::new(cond), Box::new(then), Box::new(els)))
        } else {
            Ok(cond)
        }
    }

    /// Precedence-climbing over the binary operators.
    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let (op, prec) = match self.peek() {
                Some(Token::OrOr) => (BinOp::Or, 1),
                Some(Token::AndAnd) => (BinOp::And, 2),
                Some(Token::Pipe) => (BinOp::BitOr, 3),
                Some(Token::Caret) => (BinOp::BitXor, 4),
                Some(Token::Amp) => (BinOp::BitAnd, 5),
                Some(Token::Eq) => (BinOp::Eq, 6),
                Some(Token::Ne) => (BinOp::Ne, 6),
                Some(Token::Lt) => (BinOp::Lt, 7),
                Some(Token::Gt) => (BinOp::Gt, 7),
                Some(Token::Le) => (BinOp::Le, 7),
                Some(Token::Ge) => (BinOp::Ge, 7),
                Some(Token::Shl) => (BinOp::Shl, 8),
                Some(Token::Shr) => (BinOp::Shr, 8),
                Some(Token::Plus) => (BinOp::Add, 9),
                Some(Token::Minus) => (BinOp::Sub, 9),
                Some(Token::Star) => (BinOp::Mul, 10),
                Some(Token::Slash) => (BinOp::Div, 10),
                Some(Token::Percent) => (BinOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.nested(|p| p.binary_expr(prec + 1))?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Token::Star) => {
                self.bump();
                Ok(Expr::deref(self.nested(Self::unary_expr)?))
            }
            Some(Token::Amp) => {
                self.bump();
                Ok(Expr::addr_of(self.nested(Self::unary_expr)?))
            }
            Some(Token::Minus) => {
                self.bump();
                Ok(Expr::Unary(UnOp::Neg, Box::new(self.nested(Self::unary_expr)?)))
            }
            Some(Token::Not) => {
                self.bump();
                Ok(Expr::Unary(UnOp::Not, Box::new(self.nested(Self::unary_expr)?)))
            }
            Some(Token::Tilde) => {
                self.bump();
                Ok(Expr::Unary(UnOp::BitNot, Box::new(self.nested(Self::unary_expr)?)))
            }
            Some(Token::PlusPlus) | Some(Token::MinusMinus) => {
                let op = if self.bump() == Some(Token::PlusPlus) {
                    BinOp::Add
                } else {
                    BinOp::Sub
                };
                // ++e desugars to e = e ± 1 (value semantics are irrelevant
                // to the flow-insensitive analysis).
                let e = self.nested(Self::unary_expr)?;
                let stepped = Expr::Binary(op, Box::new(e.clone()), Box::new(Expr::Int(1)));
                Ok(Expr::assign(e, stepped))
            }
            Some(Token::KwSizeof) => {
                self.bump();
                // sizeof(type) or sizeof expr — both reduce to an integer.
                if self.peek() == Some(&Token::LParen)
                    && matches!(
                        self.peek2(),
                        Some(Token::KwInt) | Some(Token::KwChar) | Some(Token::KwVoid)
                            | Some(Token::KwStruct)
                    )
                {
                    self.bump();
                    let _ty = self.type_name()?;
                    self.expect(Token::RParen)?;
                    Ok(Expr::Sizeof(Box::new(Expr::Int(0))))
                } else {
                    Ok(Expr::Sizeof(Box::new(self.nested(Self::unary_expr)?)))
                }
            }
            Some(Token::LParen)
                if matches!(
                    self.peek2(),
                    Some(Token::KwInt) | Some(Token::KwChar) | Some(Token::KwVoid)
                        | Some(Token::KwStruct)
                ) =>
            {
                self.bump();
                let ty = self.type_name()?;
                self.expect(Token::RParen)?;
                Ok(Expr::Cast(ty, Box::new(self.nested(Self::unary_expr)?)))
            }
            _ => self.postfix_expr(),
        }
    }

    /// A type inside a cast or `sizeof`: base + stars.
    fn type_name(&mut self) -> Result<Type, ParseError> {
        let base = self.base_type()?;
        let mut depth = 0;
        while self.eat(&Token::Star) {
            depth += 1;
        }
        Ok(Type { base, ptr_depth: depth, array: None })
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary_expr()?;
        loop {
            match self.peek() {
                Some(Token::LParen) => {
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != Some(&Token::RParen) {
                        loop {
                            args.push(self.nested(Self::assign_expr)?);
                            if !self.eat(&Token::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(Token::RParen)?;
                    e = Expr::Call(Box::new(e), args);
                }
                Some(Token::LBracket) => {
                    self.bump();
                    let idx = self.nested(Self::expr)?;
                    self.expect(Token::RBracket)?;
                    e = Expr::Index(Box::new(e), Box::new(idx));
                }
                Some(Token::Dot) => {
                    self.bump();
                    let field = self.ident()?;
                    e = Expr::Member(Box::new(e), field, false);
                }
                Some(Token::Arrow) => {
                    self.bump();
                    let field = self.ident()?;
                    e = Expr::Member(Box::new(e), field, true);
                }
                Some(Token::PlusPlus) | Some(Token::MinusMinus) => {
                    let op = if self.bump() == Some(Token::PlusPlus) {
                        BinOp::Add
                    } else {
                        BinOp::Sub
                    };
                    let stepped =
                        Expr::Binary(op, Box::new(e.clone()), Box::new(Expr::Int(1)));
                    e = Expr::assign(e, stepped);
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Some(Token::Ident(name)) => Ok(Expr::Id(name)),
            Some(Token::Int(v)) => Ok(Expr::Int(v)),
            Some(Token::Char(v)) => Ok(Expr::Int(v)),
            Some(Token::Str(s)) => Ok(Expr::Str(s)),
            Some(Token::KwNull) => Ok(Expr::Null),
            Some(Token::LParen) => {
                let e = self.nested(Self::expr)?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            other => Err(ParseError {
                message: format!(
                    "expected expression, found {}",
                    other.map_or("end of input".to_string(), |t| format!("`{t}`"))
                ),
                line: self.tokens.get(self.pos - 1).map(|s| s.line).unwrap_or(0),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pointer_chain_program() {
        let p = parse(
            "int x;\n\
             int *p;\n\
             int **q;\n\
             int main(void) { p = &x; q = &p; **q = 3; return 0; }",
        )
        .unwrap();
        assert_eq!(p.globals.len(), 3);
        assert_eq!(p.globals[2].ty.ptr_depth, 2);
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.functions[0].body.len(), 4);
    }

    #[test]
    fn parses_function_pointers() {
        let p = parse(
            "int add(int a, int b) { return a + b; }\n\
             int (*op)(int, int);\n\
             int use(void) { op = &add; return op(1, 2); }",
        )
        .unwrap();
        assert_eq!(p.globals.len(), 1);
        assert_eq!(p.globals[0].ty.base, BaseType::FnPtr);
        assert_eq!(p.globals[0].ty.ptr_depth, 1);
        assert_eq!(p.functions.len(), 2);
    }

    #[test]
    fn parses_structs_arrays_members() {
        let p = parse(
            "struct node { int value; struct node *next; };\n\
             struct node pool[16];\n\
             struct node *head;\n\
             void link(void) { head = &pool[0]; head->next = head; }",
        )
        .unwrap();
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.structs[0].fields.len(), 2);
        assert_eq!(p.globals[0].ty.array, Some(16));
    }

    #[test]
    fn precedence_binds_correctly() {
        let p = parse("int f(void) { return 1 + 2 * 3 == 7 && 1; }").unwrap();
        let body = &p.functions[0].body[0];
        // ((1 + (2*3)) == 7) && 1
        let Stmt::Return(Some(Expr::Binary(BinOp::And, lhs, _))) = body else {
            panic!("expected &&: {body:?}");
        };
        let Expr::Binary(BinOp::Eq, add, _) = lhs.as_ref() else {
            panic!("expected ==");
        };
        assert!(matches!(add.as_ref(), Expr::Binary(BinOp::Add, _, _)));
    }

    #[test]
    fn deref_and_call_postfix() {
        let p = parse("void f(void) { *g()[1] = (int*)h(&x); }").unwrap();
        let Stmt::Expr(Expr::Assign(lhs, rhs)) = &p.functions[0].body[0] else {
            panic!();
        };
        assert!(matches!(lhs.as_ref(), Expr::Unary(UnOp::Deref, _)));
        assert!(matches!(rhs.as_ref(), Expr::Cast(_, _)));
    }

    #[test]
    fn control_flow_forms() {
        let p = parse(
            "void f(int n) {\n\
               int i;\n\
               for (i = 0; i < n; i = i + 1) { g(i); }\n\
               while (n > 0) n = n - 1;\n\
               if (n) return; else g(0);\n\
             }",
        )
        .unwrap();
        assert_eq!(p.functions[0].body.len(), 4);
        assert!(matches!(p.functions[0].body[1], Stmt::For(..)));
        assert!(matches!(p.functions[0].body[3], Stmt::If(..)));
    }

    #[test]
    fn prototypes_are_discarded() {
        let p = parse("int f(int);\nint f(int x) { return x; }").unwrap();
        assert_eq!(p.functions.len(), 1);
    }

    #[test]
    fn multi_declarators() {
        let p = parse("int *a, b, **c;").unwrap();
        assert_eq!(p.globals.len(), 3);
        assert_eq!(p.globals[0].ty.ptr_depth, 1);
        assert_eq!(p.globals[1].ty.ptr_depth, 0);
        assert_eq!(p.globals[2].ty.ptr_depth, 2);
    }

    #[test]
    fn sizeof_forms() {
        let p = parse("int f(void) { return sizeof(int*) + sizeof f; }").unwrap();
        assert_eq!(p.functions.len(), 1);
    }

    #[test]
    fn error_reports_line() {
        let err = parse("int x;\nint f( { }").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn null_and_string_literals() {
        let p = parse("char *s;\nvoid f(void) { s = \"hi\"; s = NULL; }").unwrap();
        let Stmt::Expr(Expr::Assign(_, rhs)) = &p.functions[0].body[0] else { panic!() };
        assert!(matches!(rhs.as_ref(), Expr::Str(_)));
    }
}
