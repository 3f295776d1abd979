use crate::ast::{AssignOp, BinOp, Expr, IncludeKind, LValue, Param, Program, Stmt, StrPart, UnOp};
use crate::error::ParseError;
use crate::lexer::Lexer;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Parses a PHP source string into a [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] if lexing or parsing fails.
///
/// # Examples
///
/// ```
/// use php_front::parse_source;
///
/// let p = parse_source("<?php $q = \"id=$id\"; mysql_query($q);")?;
/// assert_eq!(p.stmts.len(), 2);
/// # Ok::<(), php_front::ParseError>(())
/// ```
pub fn parse_source(source: &str) -> Result<Program, ParseError> {
    Parser::new(source).parse_program()
}

/// Recursive-descent parser pulling tokens from a [`Lexer`] with one
/// token of lookahead.
///
/// A lex error anywhere in the source wins over a parse error before
/// it, as if the whole source were tokenized first: the lexer ends its
/// stream at its first error, and on a parse error the parser drains
/// the rest of the stream before reporting.
#[derive(Debug)]
pub struct Parser<'src> {
    lexer: Lexer<'src>,
    /// The lookahead token.
    tok: Token<'src>,
    /// Span of the last token consumed (the first token's before any).
    prev: Span,
    /// The lexer's error, once it has failed; the lookahead is then an
    /// `Eof` standing in for the rest of the stream.
    lex_error: Option<ParseError>,
    /// Statement and expression nesting levels open at the lookahead.
    depth: usize,
    /// The operator height (most binary and postfix operator nodes on
    /// one root-to-leaf path) of the tallest expression finished since
    /// the innermost open operand began.
    height: usize,
    /// `elseif` arms open at the lookahead, over all enclosing `if`s.
    arms: usize,
}

/// Maximum combined nesting depth of statements, parenthesized and
/// argument expressions, prefix operators, chained assignments and
/// ternary branches. Deeper input is rejected with a parse error
/// instead of overflowing the stack.
const MAX_DEPTH: usize = 64;

/// Maximum operator height of an expression: binary operators
/// (`.`, `+`, `&&`, `or`, …) and postfix ones (`[i]`, `->p`, `->m()`,
/// `++`) on one root-to-leaf path. Their chains are parsed by loops,
/// but they build a left-leaning tree that every later pass walks
/// recursively; an expression at this bound verifies on a 2 MiB thread
/// in a debug build.
const MAX_HEIGHT: usize = 256;

/// Maximum number of `elseif` (or `else if`) arms open at once, summed
/// over nested `if`s. The parser reads an arm chain with a loop, but
/// the filter lowers each arm into the previous arm's `else`, and every
/// later pass walks that nesting recursively; an `if` with this many
/// arms verifies on a 2 MiB thread in a debug build.
const MAX_ARMS: usize = 512;

/// The binary operator at `kind` and its binding power (higher binds
/// tighter), for [`Parser::parse_binary`].
fn binary_op(kind: &TokenKind<'_>) -> Option<(BinOp, u8)> {
    Some(match kind {
        TokenKind::OrOr => (BinOp::Or, 1),
        TokenKind::AndAnd => (BinOp::And, 2),
        TokenKind::EqEq => (BinOp::Eq, 3),
        TokenKind::EqEqEq => (BinOp::StrictEq, 3),
        TokenKind::NotEq => (BinOp::NotEq, 3),
        TokenKind::NotEqEq => (BinOp::StrictNotEq, 3),
        TokenKind::Lt => (BinOp::Lt, 4),
        TokenKind::Gt => (BinOp::Gt, 4),
        TokenKind::Le => (BinOp::Le, 4),
        TokenKind::Ge => (BinOp::Ge, 4),
        TokenKind::Plus => (BinOp::Add, 5),
        TokenKind::Minus => (BinOp::Sub, 5),
        TokenKind::Dot => (BinOp::Concat, 5),
        TokenKind::Star => (BinOp::Mul, 6),
        TokenKind::Slash => (BinOp::Div, 6),
        TokenKind::Percent => (BinOp::Mod, 6),
        _ => return None,
    })
}

/// Length of the longest keyword (`include_once`, `require_once`).
const KEYWORD_MAX: usize = 12;

/// `name` lowercased into `buf` when it could be a keyword; the empty
/// string (no keyword) when it is longer than any keyword.
fn keyword_lowercase<'b>(name: &str, buf: &'b mut [u8; KEYWORD_MAX]) -> &'b str {
    let Some(out) = buf.get_mut(..name.len()) else {
        return "";
    };
    for (o, b) in out.iter_mut().zip(name.bytes()) {
        *o = b.to_ascii_lowercase();
    }
    // Identifiers are ASCII, so the lowercase copy is valid UTF-8.
    std::str::from_utf8(out).unwrap_or("")
}

impl<'src> Parser<'src> {
    /// Creates a parser over PHP source text.
    pub fn new(source: &'src str) -> Self {
        let mut parser = Parser {
            lexer: Lexer::new(source),
            tok: Token::new(TokenKind::Eof, Span::default()),
            prev: Span::default(),
            lex_error: None,
            depth: 0,
            height: 0,
            arms: 0,
        };
        parser.tok = parser.pull();
        parser.prev = parser.tok.span;
        parser
    }

    /// Parses a whole program.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on malformed input or any construct
    /// outside the subset.
    pub fn parse_program(mut self) -> Result<Program, ParseError> {
        let mut stmts = Vec::new();
        let parsed = loop {
            if self.at(TokenKind::Eof) {
                break Ok(());
            }
            match self.parse_stmt() {
                Ok(s) => stmts.push(s),
                Err(e) => break Err(e),
            }
        };
        if parsed.is_err() && self.lex_error.is_none() {
            // A lex error later in the source takes precedence.
            self.lex_error = self.lexer.find_map(Result::err);
        }
        match (self.lex_error, parsed) {
            (Some(e), _) | (None, Err(e)) => Err(e),
            (None, Ok(())) => Ok(Program { stmts }),
        }
    }

    /// The lexer's next token, or an `Eof` in place of its error.
    fn pull(&mut self) -> Token<'src> {
        match self.lexer.next() {
            Some(Ok(t)) => t,
            Some(Err(e)) => {
                let span = e.span;
                self.lex_error = Some(e);
                Token::new(TokenKind::Eof, span)
            }
            None => Token::new(TokenKind::Eof, self.tok.span),
        }
    }

    fn peek(&self) -> &Token<'src> {
        &self.tok
    }

    fn peek_kind(&self) -> &TokenKind<'src> {
        &self.tok.kind
    }

    fn at(&self, kind: TokenKind<'src>) -> bool {
        self.tok.kind == kind
    }

    fn at_ident(&self, text: &str) -> bool {
        self.tok.kind.is_ident(text)
    }

    /// Consumes the lookahead token. At `Eof` the parser stays put and
    /// returns another `Eof`.
    fn bump(&mut self) -> Token<'src> {
        if self.tok.kind == TokenKind::Eof {
            return self.tok.clone();
        }
        let next = self.pull();
        self.prev = self.tok.span;
        std::mem::replace(&mut self.tok, next)
    }

    fn expect(&mut self, kind: TokenKind<'src>) -> Result<Token<'src>, ParseError> {
        if self.at(kind.clone()) {
            Ok(self.bump())
        } else {
            Err(self.error_here(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek_kind().describe()
            )))
        }
    }

    fn expect_semicolon(&mut self) -> Result<Span, ParseError> {
        if self.at(TokenKind::Semicolon) {
            Ok(self.bump().span)
        } else if self.at(TokenKind::Eof) {
            // PHP permits a missing `;` before EOF / close tag.
            Ok(self.peek().span)
        } else {
            Err(self.error_here(format!(
                "expected `;`, found {}",
                self.peek_kind().describe()
            )))
        }
    }

    fn error_here(&self, message: String) -> ParseError {
        ParseError::new(message, self.peek().span)
    }

    /// Runs `parse` one nesting level deeper, or fails past
    /// [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.depth += 1;
        let result = if self.depth > MAX_DEPTH {
            Err(self.error_here(format!("nesting deeper than {MAX_DEPTH} levels")))
        } else {
            parse(self)
        };
        self.depth -= 1;
        result
    }

    // ---- statements ------------------------------------------------

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::parse_stmt_inner)
    }

    fn parse_stmt_inner(&mut self) -> Result<Stmt, ParseError> {
        let span = self.tok.span;
        match self.tok.kind {
            TokenKind::InlineHtml(h) => {
                self.bump();
                Ok(Stmt::InlineHtml(h.to_owned(), span))
            }
            TokenKind::Semicolon => {
                self.bump();
                Ok(Stmt::Nop(span))
            }
            TokenKind::LBrace => {
                self.bump();
                let body = self.parse_block_until_rbrace()?;
                Ok(Stmt::Block(body))
            }
            TokenKind::Ident(name) => {
                let mut buf = [0u8; KEYWORD_MAX];
                let lower = keyword_lowercase(name, &mut buf);
                match lower {
                    "if" => self.parse_if(),
                    "while" => self.parse_while(),
                    "do" => self.parse_do_while(),
                    "for" => self.parse_for(),
                    "foreach" => self.parse_foreach(),
                    "switch" => self.parse_switch(),
                    "function" => self.parse_func_decl(),
                    "return" => self.parse_return(),
                    "echo" => self.parse_echo(),
                    "global" => self.parse_global(),
                    "break" => {
                        self.bump();
                        // Optional break level (ignored).
                        if matches!(self.peek_kind(), TokenKind::IntLit(_)) {
                            self.bump();
                        }
                        let end = self.expect_semicolon()?;
                        Ok(Stmt::Break(span.merge(end)))
                    }
                    "continue" => {
                        self.bump();
                        if matches!(self.peek_kind(), TokenKind::IntLit(_)) {
                            self.bump();
                        }
                        let end = self.expect_semicolon()?;
                        Ok(Stmt::Continue(span.merge(end)))
                    }
                    "exit" | "die" => {
                        self.bump();
                        let arg = if self.at(TokenKind::LParen) {
                            self.bump();
                            let a = if self.at(TokenKind::RParen) {
                                None
                            } else {
                                Some(self.parse_expr()?)
                            };
                            self.expect(TokenKind::RParen)?;
                            a
                        } else {
                            None
                        };
                        let end = self.expect_semicolon()?;
                        Ok(Stmt::Exit(arg, span.merge(end)))
                    }
                    "include" | "include_once" | "require" | "require_once" => {
                        self.bump();
                        let kind = match lower {
                            "include" => IncludeKind::Include,
                            "include_once" => IncludeKind::IncludeOnce,
                            "require" => IncludeKind::Require,
                            _ => IncludeKind::RequireOnce,
                        };
                        let path = self.parse_expr()?;
                        let end = self.expect_semicolon()?;
                        Ok(Stmt::Include {
                            kind,
                            path,
                            span: span.merge(end),
                        })
                    }
                    _ => self.parse_expr_stmt(),
                }
            }
            _ => self.parse_expr_stmt(),
        }
    }

    fn parse_expr_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.peek().span;
        let expr = self.parse_expr()?;
        let end = self.expect_semicolon()?;
        Ok(Stmt::Expr(expr, start.merge(end)))
    }

    fn parse_block_until_rbrace(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut stmts = Vec::new();
        while !self.at(TokenKind::RBrace) {
            if self.at(TokenKind::Eof) {
                return Err(self.error_here("unexpected end of input, expected `}`".into()));
            }
            stmts.push(self.parse_stmt()?);
        }
        self.bump(); // }
        Ok(stmts)
    }

    /// A loop/branch body: either `{ … }` or a single statement.
    fn parse_body(&mut self) -> Result<Vec<Stmt>, ParseError> {
        if self.at(TokenKind::LBrace) {
            self.bump();
            self.parse_block_until_rbrace()
        } else {
            Ok(vec![self.parse_stmt()?])
        }
    }

    fn parse_if(&mut self) -> Result<Stmt, ParseError> {
        let start = self.bump().span; // if
        self.expect(TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        let close = self.expect(TokenKind::RParen)?.span;
        if self.at(TokenKind::Colon) {
            return self.parse_if_alternative(cond, start.merge(close));
        }
        let then_branch = self.parse_body()?;
        let mut elseifs = Vec::new();
        let mut else_branch = None;
        loop {
            if self.at_ident("elseif") {
                self.bump();
                let c = self.parse_arm_condition()?;
                elseifs.push((c, self.parse_body()?));
            } else if self.at_ident("else") {
                self.bump();
                if self.at_ident("if") {
                    self.bump();
                    let c = self.parse_arm_condition()?;
                    elseifs.push((c, self.parse_body()?));
                } else {
                    else_branch = Some(self.parse_body()?);
                    break;
                }
            } else {
                break;
            }
        }
        self.arms -= elseifs.len();
        Ok(Stmt::If {
            cond,
            then_branch,
            elseifs,
            else_branch,
            span: start.merge(close),
        })
    }

    /// Opens one more `elseif` arm and parses its parenthesized
    /// condition; fails past [`MAX_ARMS`]. The caller closes its arms
    /// when the `if` ends.
    fn parse_arm_condition(&mut self) -> Result<Expr, ParseError> {
        self.arms += 1;
        if self.arms > MAX_ARMS {
            return Err(self.error_here(format!("nesting deeper than {MAX_ARMS} elseif arms")));
        }
        self.expect(TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(TokenKind::RParen)?;
        Ok(cond)
    }

    /// PHP's alternative syntax: `if (c): … elseif (c): … else: … endif;`
    fn parse_if_alternative(&mut self, cond: Expr, span: Span) -> Result<Stmt, ParseError> {
        self.expect(TokenKind::Colon)?;
        let stop = ["elseif", "else", "endif"];
        let then_branch = self.parse_alt_body(&stop)?;
        let mut elseifs = Vec::new();
        let mut else_branch = None;
        loop {
            if self.at_ident("elseif") {
                self.bump();
                let c = self.parse_arm_condition()?;
                self.expect(TokenKind::Colon)?;
                elseifs.push((c, self.parse_alt_body(&stop)?));
            } else if self.at_ident("else") {
                self.bump();
                self.expect(TokenKind::Colon)?;
                else_branch = Some(self.parse_alt_body(&["endif"])?);
            } else if self.at_ident("endif") {
                self.bump();
                let _ = self.expect_semicolon()?;
                break;
            } else {
                return Err(self.error_here("expected `elseif`, `else`, or `endif`".into()));
            }
        }
        self.arms -= elseifs.len();
        Ok(Stmt::If {
            cond,
            then_branch,
            elseifs,
            else_branch,
            span,
        })
    }

    /// Statements until one of the given closing keywords (not consumed).
    fn parse_alt_body(&mut self, stop: &[&str]) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        loop {
            if self.at(TokenKind::Eof) {
                return Err(
                    self.error_here(format!("unexpected end of input, expected one of {stop:?}"))
                );
            }
            if stop.iter().any(|k| self.at_ident(k)) {
                return Ok(out);
            }
            out.push(self.parse_stmt()?);
        }
    }

    fn parse_do_while(&mut self) -> Result<Stmt, ParseError> {
        let start = self.bump().span; // do
        let body = self.parse_body()?;
        if !self.at_ident("while") {
            return Err(self.error_here("expected `while` after do-block".into()));
        }
        self.bump();
        self.expect(TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        let close = self.expect(TokenKind::RParen)?.span;
        let _ = self.expect_semicolon()?;
        Ok(Stmt::DoWhile {
            body,
            cond,
            span: start.merge(close),
        })
    }

    fn parse_while(&mut self) -> Result<Stmt, ParseError> {
        let start = self.bump().span;
        self.expect(TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        let close = self.expect(TokenKind::RParen)?.span;
        let body = if self.at(TokenKind::Colon) {
            self.bump();
            let b = self.parse_alt_body(&["endwhile"])?;
            self.bump(); // endwhile
            let _ = self.expect_semicolon()?;
            b
        } else {
            self.parse_body()?
        };
        Ok(Stmt::While {
            cond,
            body,
            span: start.merge(close),
        })
    }

    fn parse_for(&mut self) -> Result<Stmt, ParseError> {
        let start = self.bump().span;
        self.expect(TokenKind::LParen)?;
        let init = self.parse_expr_list_until(TokenKind::Semicolon)?;
        self.expect(TokenKind::Semicolon)?;
        let cond = if self.at(TokenKind::Semicolon) {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect(TokenKind::Semicolon)?;
        let step = self.parse_expr_list_until(TokenKind::RParen)?;
        let close = self.expect(TokenKind::RParen)?.span;
        let body = if self.at(TokenKind::Colon) {
            self.bump();
            let b = self.parse_alt_body(&["endfor"])?;
            self.bump();
            let _ = self.expect_semicolon()?;
            b
        } else {
            self.parse_body()?
        };
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
            span: start.merge(close),
        })
    }

    fn parse_expr_list_until(
        &mut self,
        terminator: TokenKind<'src>,
    ) -> Result<Vec<Expr>, ParseError> {
        let mut out = Vec::new();
        if self.at(terminator.clone()) {
            return Ok(out);
        }
        out.push(self.parse_expr()?);
        while self.at(TokenKind::Comma) {
            self.bump();
            out.push(self.parse_expr()?);
        }
        Ok(out)
    }

    fn parse_foreach(&mut self) -> Result<Stmt, ParseError> {
        let start = self.bump().span;
        self.expect(TokenKind::LParen)?;
        let array = self.parse_expr()?;
        if !self.at_ident("as") {
            return Err(self.error_here("expected `as` in foreach".into()));
        }
        self.bump();
        if self.at(TokenKind::Amp) {
            self.bump();
        }
        let first = match self.bump() {
            Token {
                kind: TokenKind::Variable(v),
                ..
            } => v.to_owned(),
            t => return Err(ParseError::new("expected variable after `as`", t.span)),
        };
        let (key, value) = if self.at(TokenKind::DoubleArrow) {
            self.bump();
            if self.at(TokenKind::Amp) {
                self.bump();
            }
            match self.bump() {
                Token {
                    kind: TokenKind::Variable(v),
                    ..
                } => (Some(first), v.to_owned()),
                t => return Err(ParseError::new("expected variable after `=>`", t.span)),
            }
        } else {
            (None, first)
        };
        let close = self.expect(TokenKind::RParen)?.span;
        let body = if self.at(TokenKind::Colon) {
            self.bump();
            let b = self.parse_alt_body(&["endforeach"])?;
            self.bump();
            let _ = self.expect_semicolon()?;
            b
        } else {
            self.parse_body()?
        };
        Ok(Stmt::Foreach {
            array,
            key,
            value,
            body,
            span: start.merge(close),
        })
    }

    fn parse_switch(&mut self) -> Result<Stmt, ParseError> {
        let start = self.bump().span;
        self.expect(TokenKind::LParen)?;
        let subject = self.parse_expr()?;
        let close = self.expect(TokenKind::RParen)?.span;
        // `switch (e): case …: endswitch;` alternative form.
        let alternative = self.at(TokenKind::Colon);
        if alternative {
            self.bump();
        } else {
            self.expect(TokenKind::LBrace)?;
        }
        let at_end = |p: &Self| {
            if alternative {
                p.at_ident("endswitch")
            } else {
                p.at(TokenKind::RBrace)
            }
        };
        let mut cases = Vec::new();
        while !at_end(self) {
            let label = if self.at_ident("case") {
                self.bump();
                let v = self.parse_expr()?;
                Some(v)
            } else if self.at_ident("default") {
                self.bump();
                None
            } else {
                return Err(self.error_here("expected `case`, `default`, or `}`".into()));
            };
            // `case x:` or `case x;` (PHP allows both).
            if self.at(TokenKind::Colon) || self.at(TokenKind::Semicolon) {
                self.bump();
            }
            let mut body = Vec::new();
            while !at_end(self) && !self.at_ident("case") && !self.at_ident("default") {
                if self.at(TokenKind::Eof) {
                    return Err(self.error_here("unexpected end of input in switch".into()));
                }
                body.push(self.parse_stmt()?);
            }
            cases.push((label, body));
        }
        self.bump(); // } or endswitch
        if alternative {
            let _ = self.expect_semicolon()?;
        }
        Ok(Stmt::Switch {
            subject,
            cases,
            span: start.merge(close),
        })
    }

    fn parse_func_decl(&mut self) -> Result<Stmt, ParseError> {
        let start = self.bump().span; // function
        if self.at(TokenKind::Amp) {
            self.bump(); // return-by-reference marker
        }
        let name = match self.bump() {
            Token {
                kind: TokenKind::Ident(n),
                ..
            } => n.to_owned(),
            t => return Err(ParseError::new("expected function name", t.span)),
        };
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        while !self.at(TokenKind::RParen) {
            let by_ref = if self.at(TokenKind::Amp) {
                self.bump();
                true
            } else {
                false
            };
            let pname = match self.bump() {
                Token {
                    kind: TokenKind::Variable(v),
                    ..
                } => v.to_owned(),
                t => return Err(ParseError::new("expected parameter variable", t.span)),
            };
            let default = if self.at(TokenKind::Assign) {
                self.bump();
                Some(self.parse_expr()?)
            } else {
                None
            };
            params.push(Param {
                name: pname,
                by_ref,
                default,
            });
            if self.at(TokenKind::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        let close = self.expect(TokenKind::RParen)?.span;
        self.expect(TokenKind::LBrace)?;
        let body = self.parse_block_until_rbrace()?;
        Ok(Stmt::FuncDecl {
            name,
            params,
            body,
            span: start.merge(close),
        })
    }

    fn parse_return(&mut self) -> Result<Stmt, ParseError> {
        let start = self.bump().span;
        let value = if self.at(TokenKind::Semicolon) || self.at(TokenKind::Eof) {
            None
        } else {
            Some(self.parse_expr()?)
        };
        let end = self.expect_semicolon()?;
        Ok(Stmt::Return(value, start.merge(end)))
    }

    fn parse_echo(&mut self) -> Result<Stmt, ParseError> {
        let start = self.bump().span;
        let mut args = vec![self.parse_expr()?];
        while self.at(TokenKind::Comma) {
            self.bump();
            args.push(self.parse_expr()?);
        }
        let end = self.expect_semicolon()?;
        Ok(Stmt::Echo(args, start.merge(end)))
    }

    fn parse_global(&mut self) -> Result<Stmt, ParseError> {
        let start = self.bump().span;
        let mut names = Vec::new();
        loop {
            match self.bump() {
                Token {
                    kind: TokenKind::Variable(v),
                    ..
                } => names.push(v.to_owned()),
                t => return Err(ParseError::new("expected variable in global", t.span)),
            }
            if self.at(TokenKind::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        let end = self.expect_semicolon()?;
        Ok(Stmt::Global(names, start.merge(end)))
    }

    // ---- expressions -----------------------------------------------

    /// Entry point: lowest precedence (`or` / `xor` / `and` keywords).
    pub(crate) fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::parse_expr_inner)
    }

    fn parse_expr_inner(&mut self) -> Result<Expr, ParseError> {
        let outer = std::mem::take(&mut self.height);
        let mut left = self.parse_assignment()?;
        let mut height = self.height;
        loop {
            let op = if self.at_ident("or") {
                BinOp::Or
            } else if self.at_ident("and") {
                BinOp::And
            } else if self.at_ident("xor") {
                BinOp::NotEq
            } else {
                break;
            };
            self.bump();
            self.height = 0;
            let right = self.parse_assignment()?;
            self.raise(&mut height)?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        self.height = outer.max(height);
        Ok(left)
    }

    fn parse_assignment(&mut self) -> Result<Expr, ParseError> {
        let start = self.peek().span;
        let target = self.parse_ternary()?;
        self.parse_assignment_from(start, target)
    }

    /// `target`, parsed from `start`, or the assignment it begins when
    /// an assignment operator follows. Assignments are right-associative:
    /// in `$a = $b .= value` the second is the first's value, one nesting
    /// level deeper.
    fn parse_assignment_from(&mut self, start: Span, target: Expr) -> Result<Expr, ParseError> {
        let Some(op) = self.assign_op() else {
            return Ok(target);
        };
        let op_span = self.bump().span;
        let target = Self::expr_to_lvalue(target)
            .ok_or_else(|| ParseError::new("invalid assignment target", op_span))?;
        // `$a = &$b;` reference assignment — modeled as a copy.
        if self.at(TokenKind::Amp) {
            self.bump();
        }
        let value_start = self.peek().span;
        let mut value = self.parse_ternary()?;
        if self.assign_op().is_some() {
            value = self.nested(|p| p.parse_assignment_from(value_start, value))?;
        }
        let end = self.prev_span();
        Ok(Expr::Assign {
            target,
            op,
            value: Box::new(value),
            span: start.merge(end),
        })
    }

    /// The assignment operator at the lookahead, if any.
    fn assign_op(&self) -> Option<AssignOp> {
        Some(match self.peek_kind() {
            TokenKind::Assign => AssignOp::Assign,
            TokenKind::PlusAssign => AssignOp::Add,
            TokenKind::MinusAssign => AssignOp::Sub,
            TokenKind::MulAssign => AssignOp::Mul,
            TokenKind::DivAssign => AssignOp::Div,
            TokenKind::DotAssign => AssignOp::Concat,
            _ => return None,
        })
    }

    fn prev_span(&self) -> Span {
        self.prev
    }

    fn expr_to_lvalue(e: Expr) -> Option<LValue> {
        match e {
            Expr::Var(v) => Some(LValue::Var(v)),
            Expr::ArrayAccess { base, index } => match *base {
                Expr::Var(v) => Some(LValue::ArrayElem { var: v, index }),
                // Nested `$a[i][j]` — taint tracked on the root array.
                Expr::ArrayAccess { .. } => Self::expr_to_lvalue(*base).map(|lv| match lv {
                    LValue::ArrayElem { var, .. } | LValue::Var(var) => {
                        LValue::ArrayElem { var, index: None }
                    }
                    other => other,
                }),
                _ => None,
            },
            Expr::PropFetch { base, name } => Some(LValue::Prop { base, name }),
            Expr::Call { name, args, .. } if name == "list" => {
                let items: Option<Vec<LValue>> =
                    args.into_iter().map(Self::expr_to_lvalue).collect();
                items.map(LValue::List)
            }
            _ => None,
        }
    }

    fn parse_ternary(&mut self) -> Result<Expr, ParseError> {
        let cond = self.parse_binary(1)?;
        if !self.at(TokenKind::Question) {
            return Ok(cond);
        }
        self.bump();
        if self.at(TokenKind::Colon) {
            // `?:` short ternary.
            self.bump();
            let otherwise = self.nested(Self::parse_assignment)?;
            return Ok(Expr::Ternary {
                cond: Box::new(cond),
                then: None,
                otherwise: Box::new(otherwise),
            });
        }
        let then = self.nested(Self::parse_assignment)?;
        self.expect(TokenKind::Colon)?;
        let otherwise = self.nested(Self::parse_assignment)?;
        Ok(Expr::Ternary {
            cond: Box::new(cond),
            then: Some(Box::new(then)),
            otherwise: Box::new(otherwise),
        })
    }

    /// The binary operators from `||` to `%` by precedence climbing:
    /// one loop over [`binary_op`]'s binding powers. All of them are
    /// left-associative, so a right operand takes only operators that
    /// bind tighter than its own.
    fn parse_binary(&mut self, min_power: u8) -> Result<Expr, ParseError> {
        let outer = std::mem::take(&mut self.height);
        let mut left = self.parse_unary()?;
        let mut height = self.height;
        while let Some((op, power)) = binary_op(self.peek_kind()) {
            if power < min_power {
                break;
            }
            self.bump();
            self.height = 0;
            let right = self.parse_binary(power + 1)?;
            self.raise(&mut height)?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        self.height = outer.max(height);
        Ok(left)
    }

    /// Puts one operator node over an operand of height `height` and
    /// operands of height `self.height`, raising `height` to the node's;
    /// fails past [`MAX_HEIGHT`].
    fn raise(&mut self, height: &mut usize) -> Result<(), ParseError> {
        *height = (*height).max(self.height) + 1;
        if *height > MAX_HEIGHT {
            return Err(self.error_here(format!("nesting deeper than {MAX_HEIGHT} operators")));
        }
        Ok(())
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek_kind() {
            TokenKind::Not => {
                self.bump();
                let e = self.nested(Self::parse_unary)?;
                Ok(Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(e),
                })
            }
            TokenKind::Minus => {
                self.bump();
                let e = self.nested(Self::parse_unary)?;
                Ok(Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(e),
                })
            }
            TokenKind::Plus => {
                self.bump();
                let e = self.nested(Self::parse_unary)?;
                Ok(Expr::Unary {
                    op: UnOp::Plus,
                    expr: Box::new(e),
                })
            }
            TokenKind::At => {
                // `@expr` error suppression; mark calls, otherwise drop.
                self.bump();
                let e = self.nested(Self::parse_unary)?;
                Ok(match e {
                    Expr::Call {
                        name, args, span, ..
                    } => Expr::Call {
                        name,
                        args,
                        suppressed: true,
                        span,
                    },
                    other => other,
                })
            }
            TokenKind::Inc | TokenKind::Dec => {
                let span = self.bump().span;
                let e = self.nested(Self::parse_unary)?;
                let target = Self::expr_to_lvalue(e)
                    .ok_or_else(|| ParseError::new("invalid increment target", span))?;
                Ok(Expr::IncDec { target })
            }
            _ => self.parse_postfix(),
        }
    }

    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        let outer = std::mem::take(&mut self.height);
        let mut e = self.parse_primary()?;
        let mut height = self.height;
        loop {
            self.height = 0;
            match self.peek_kind() {
                TokenKind::LBracket => {
                    self.bump();
                    let index = if self.at(TokenKind::RBracket) {
                        None
                    } else {
                        Some(Box::new(self.parse_expr()?))
                    };
                    self.expect(TokenKind::RBracket)?;
                    e = Expr::ArrayAccess {
                        base: Box::new(e),
                        index,
                    };
                }
                TokenKind::Arrow => {
                    self.bump();
                    let name = match self.bump() {
                        Token {
                            kind: TokenKind::Ident(n),
                            ..
                        } => n.to_owned(),
                        t => {
                            return Err(ParseError::new("expected member name after `->`", t.span))
                        }
                    };
                    if self.at(TokenKind::LParen) {
                        let start = self.peek().span;
                        let args = self.parse_call_args()?;
                        let end = self.prev_span();
                        e = Expr::MethodCall {
                            base: Box::new(e),
                            name,
                            args,
                            span: start.merge(end),
                        };
                    } else {
                        e = Expr::PropFetch {
                            base: Box::new(e),
                            name,
                        };
                    }
                }
                TokenKind::Inc | TokenKind::Dec => {
                    let span = self.bump().span;
                    let target = Self::expr_to_lvalue(e)
                        .ok_or_else(|| ParseError::new("invalid increment target", span))?;
                    e = Expr::IncDec { target };
                }
                _ => break,
            }
            self.raise(&mut height)?;
        }
        self.height = outer.max(height);
        Ok(e)
    }

    fn parse_call_args(&mut self) -> Result<Vec<Expr>, ParseError> {
        self.expect(TokenKind::LParen)?;
        let mut args = Vec::new();
        while !self.at(TokenKind::RParen) {
            // Ignore by-reference markers in argument position.
            if self.at(TokenKind::Amp) {
                self.bump();
            }
            args.push(self.parse_expr()?);
            if self.at(TokenKind::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(TokenKind::RParen)?;
        Ok(args)
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        let span = self.tok.span;
        match self.tok.kind {
            TokenKind::Variable(name) => {
                self.bump();
                Ok(Expr::Var(name.to_owned()))
            }
            TokenKind::IntLit(n) => {
                self.bump();
                Ok(Expr::IntLit(n))
            }
            TokenKind::FloatLit(x) => {
                self.bump();
                Ok(Expr::FloatLit(x))
            }
            TokenKind::PlainString(text) => {
                self.bump();
                Ok(Expr::StringLit(vec![StrPart::Lit(text.to_owned())]))
            }
            TokenKind::StringLit(_) => {
                let TokenKind::StringLit(parts) = self.bump().kind else {
                    unreachable!("the lookahead is a string literal")
                };
                Ok(Expr::StringLit(parts))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::LBracket => {
                // Short array syntax `[a, k => v]`.
                self.bump();
                let entries = self.parse_array_entries(TokenKind::RBracket)?;
                Ok(Expr::ArrayLit(entries))
            }
            TokenKind::Ident(name) => {
                let mut buf = [0u8; KEYWORD_MAX];
                match keyword_lowercase(name, &mut buf) {
                    "true" => {
                        self.bump();
                        Ok(Expr::BoolLit(true))
                    }
                    "false" => {
                        self.bump();
                        Ok(Expr::BoolLit(false))
                    }
                    "null" => {
                        self.bump();
                        Ok(Expr::NullLit)
                    }
                    "array" => {
                        self.bump();
                        self.expect(TokenKind::LParen)?;
                        let entries = self.parse_array_entries(TokenKind::RParen)?;
                        Ok(Expr::ArrayLit(entries))
                    }
                    "list" => {
                        let start = self.bump().span;
                        let args = self.parse_call_args()?;
                        let end = self.prev_span();
                        Ok(Expr::Call {
                            name: "list".to_owned(),
                            args,
                            suppressed: false,
                            span: start.merge(end),
                        })
                    }
                    "print" => {
                        let start = self.bump().span;
                        let arg = self.nested(Self::parse_assignment)?;
                        let end = self.prev_span();
                        Ok(Expr::Call {
                            name: "print".to_owned(),
                            args: vec![arg],
                            suppressed: false,
                            span: start.merge(end),
                        })
                    }
                    "new" => {
                        let start = self.bump().span;
                        let class = match self.bump() {
                            Token {
                                kind: TokenKind::Ident(c),
                                ..
                            } => c,
                            t => {
                                return Err(ParseError::new(
                                    "expected class name after `new`",
                                    t.span,
                                ))
                            }
                        };
                        let args = if self.at(TokenKind::LParen) {
                            self.parse_call_args()?
                        } else {
                            Vec::new()
                        };
                        let end = self.prev_span();
                        Ok(Expr::Call {
                            name: format!("new {class}"),
                            args,
                            suppressed: false,
                            span: start.merge(end),
                        })
                    }
                    "exit" | "die" => {
                        // Expression form: `$x or die("msg")`.
                        let start = self.bump().span;
                        let args = if self.at(TokenKind::LParen) {
                            self.parse_call_args()?
                        } else {
                            Vec::new()
                        };
                        let end = self.prev_span();
                        Ok(Expr::Call {
                            name: "exit".to_owned(),
                            args,
                            suppressed: false,
                            span: start.merge(end),
                        })
                    }
                    _ => {
                        self.bump();
                        if self.at(TokenKind::LParen) {
                            let args = self.parse_call_args()?;
                            let end = self.prev_span();
                            Ok(Expr::Call {
                                name: name.to_owned(),
                                args,
                                suppressed: false,
                                span: span.merge(end),
                            })
                        } else {
                            // A bare constant (`Nick`, `PHP_SELF`, …):
                            // constants carry trusted values.
                            Ok(Expr::StringLit(vec![StrPart::Lit(name.to_owned())]))
                        }
                    }
                }
            }
            ref other => Err(ParseError::new(
                format!("unexpected {} in expression", other.describe()),
                span,
            )),
        }
    }

    fn parse_array_entries(
        &mut self,
        terminator: TokenKind<'src>,
    ) -> Result<Vec<(Option<Expr>, Expr)>, ParseError> {
        let mut entries = Vec::new();
        while !self.at(terminator.clone()) {
            let first = self.parse_expr()?;
            if self.at(TokenKind::DoubleArrow) {
                self.bump();
                if self.at(TokenKind::Amp) {
                    self.bump();
                }
                let value = self.parse_expr()?;
                entries.push((Some(first), value));
            } else {
                entries.push((None, first));
            }
            if self.at(TokenKind::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(terminator)?;
        Ok(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Program {
        parse_source(src).expect("parse ok")
    }

    #[test]
    fn assignment_statement() {
        let p = parse("<?php $x = 1;");
        match &p.stmts[0] {
            Stmt::Expr(
                Expr::Assign {
                    target, op, value, ..
                },
                _,
            ) => {
                assert_eq!(target, &LValue::Var("x".into()));
                assert_eq!(*op, AssignOp::Assign);
                assert_eq!(**value, Expr::IntLit(1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn superglobal_assignment() {
        let p = parse("<?php $sid = $_GET['sid'];");
        match &p.stmts[0] {
            Stmt::Expr(Expr::Assign { value, .. }, _) => match value.as_ref() {
                Expr::ArrayAccess { base, index } => {
                    assert_eq!(**base, Expr::Var("_GET".into()));
                    assert!(index.is_some());
                }
                other => panic!("unexpected rhs {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn if_elseif_else() {
        let p = parse("<?php if ($a) { echo 1; } elseif ($b) echo 2; else { echo 3; }");
        match &p.stmts[0] {
            Stmt::If {
                elseifs,
                else_branch,
                ..
            } => {
                assert_eq!(elseifs.len(), 1);
                assert!(else_branch.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn else_if_two_words() {
        let p = parse("<?php if ($a) echo 1; else if ($b) echo 2;");
        match &p.stmts[0] {
            Stmt::If { elseifs, .. } => assert_eq!(elseifs.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn while_with_assignment_condition() {
        // Paper Figure 2: WHILE ($row = @mysql_fetch_array($result)) …
        let p = parse("<?php while ($row = @mysql_fetch_array($result)) { echo $row; }");
        match &p.stmts[0] {
            Stmt::While { cond, body, .. } => {
                assert!(matches!(cond, Expr::Assign { .. }));
                assert_eq!(body.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn suppressed_call() {
        let p = parse("<?php $r = @mysql_query($q);");
        match &p.stmts[0] {
            Stmt::Expr(Expr::Assign { value, .. }, _) => match value.as_ref() {
                Expr::Call {
                    name, suppressed, ..
                } => {
                    assert_eq!(name, "mysql_query");
                    assert!(*suppressed);
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn for_loop() {
        let p = parse("<?php for ($i = 0; $i < 10; $i++) echo $i;");
        match &p.stmts[0] {
            Stmt::For {
                init, cond, step, ..
            } => {
                assert_eq!(init.len(), 1);
                assert!(cond.is_some());
                assert_eq!(step.len(), 1);
                assert!(matches!(step[0], Expr::IncDec { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn foreach_with_key() {
        let p = parse("<?php foreach ($rows as $k => $v) echo $v;");
        match &p.stmts[0] {
            Stmt::Foreach { key, value, .. } => {
                assert_eq!(key.as_deref(), Some("k"));
                assert_eq!(value, "v");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn switch_with_cases_and_default() {
        let p = parse(
            "<?php switch ($x) { case 1: echo 1; break; case 2: echo 2; break; default: echo 3; }",
        );
        match &p.stmts[0] {
            Stmt::Switch { cases, .. } => {
                assert_eq!(cases.len(), 3);
                assert!(cases[2].0.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn function_declaration() {
        let p = parse("<?php function f($a, &$b, $c = 1) { return $a; }");
        match &p.stmts[0] {
            Stmt::FuncDecl {
                name, params, body, ..
            } => {
                assert_eq!(name, "f");
                assert_eq!(params.len(), 3);
                assert!(params[1].by_ref);
                assert!(params[2].default.is_some());
                assert!(matches!(body[0], Stmt::Return(Some(_), _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn echo_multiple_and_concat() {
        let p = parse("<?php echo $a, 'x' . $b;");
        match &p.stmts[0] {
            Stmt::Echo(args, _) => {
                assert_eq!(args.len(), 2);
                assert!(matches!(
                    args[1],
                    Expr::Binary {
                        op: BinOp::Concat,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn include_statement() {
        let p = parse("<?php include 'config.php'; require_once(\"lib.php\");");
        assert!(matches!(
            p.stmts[0],
            Stmt::Include {
                kind: IncludeKind::Include,
                ..
            }
        ));
        assert!(matches!(
            p.stmts[1],
            Stmt::Include {
                kind: IncludeKind::RequireOnce,
                ..
            }
        ));
    }

    #[test]
    fn global_declaration() {
        let p = parse("<?php global $db, $cfg;");
        match &p.stmts[0] {
            Stmt::Global(names, _) => assert_eq!(names, &vec!["db".to_owned(), "cfg".to_owned()]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn compound_concat_assignment() {
        let p = parse("<?php $q .= $part;");
        match &p.stmts[0] {
            Stmt::Expr(Expr::Assign { op, .. }, _) => assert_eq!(*op, AssignOp::Concat),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ternary_and_short_ternary() {
        let p = parse("<?php $a = $c ? $x : $y; $b = $c ?: $z;");
        match &p.stmts[0] {
            Stmt::Expr(Expr::Assign { value, .. }, _) => {
                assert!(matches!(
                    value.as_ref(),
                    Expr::Ternary { then: Some(_), .. }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &p.stmts[1] {
            Stmt::Expr(Expr::Assign { value, .. }, _) => {
                assert!(matches!(value.as_ref(), Expr::Ternary { then: None, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn array_literals_long_and_short() {
        let p = parse("<?php $a = array(1, 'k' => 2); $b = [3];");
        match &p.stmts[0] {
            Stmt::Expr(Expr::Assign { value, .. }, _) => match value.as_ref() {
                Expr::ArrayLit(entries) => {
                    assert_eq!(entries.len(), 2);
                    assert!(entries[1].0.is_some());
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn method_call_and_prop_fetch() {
        let p = parse("<?php $r = $db->query($q); $n = $db->name;");
        match &p.stmts[0] {
            Stmt::Expr(Expr::Assign { value, .. }, _) => {
                assert!(matches!(value.as_ref(), Expr::MethodCall { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &p.stmts[1] {
            Stmt::Expr(Expr::Assign { value, .. }, _) => {
                assert!(matches!(value.as_ref(), Expr::PropFetch { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn or_die_idiom() {
        let p = parse("<?php mysql_connect($h) or die('no db');");
        match &p.stmts[0] {
            Stmt::Expr(Expr::Binary { op: BinOp::Or, .. }, _) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bare_identifier_is_a_constant() {
        // Figure 6 of the paper: `if (Nick) …`.
        let p = parse("<?php if (Nick) { echo 1; }");
        match &p.stmts[0] {
            Stmt::If { cond, .. } => {
                assert!(matches!(cond, Expr::StringLit(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn exit_and_die_statements() {
        let p = parse("<?php exit; die('bye');");
        assert!(matches!(p.stmts[0], Stmt::Exit(None, _)));
        assert!(matches!(p.stmts[1], Stmt::Exit(Some(_), _)));
    }

    #[test]
    fn missing_semicolon_before_eof_is_ok() {
        let p = parse("<?php $x = 1");
        assert_eq!(p.stmts.len(), 1);
    }

    #[test]
    fn errors_unclosed_brace() {
        let err = parse_source("<?php if ($a) { echo 1;").unwrap_err();
        assert!(err.message.contains("expected `}`"));
    }

    #[test]
    fn errors_bad_assignment_target() {
        let err = parse_source("<?php 1 = 2;").unwrap_err();
        assert!(err.message.contains("invalid assignment target"));
    }

    #[test]
    fn errors_missing_paren() {
        let err = parse_source("<?php if $a) echo 1;").unwrap_err();
        assert!(err.message.contains("expected `(`"));
    }

    #[test]
    fn nested_array_assignment_target() {
        let p = parse("<?php $m[1][2] = $v;");
        match &p.stmts[0] {
            Stmt::Expr(Expr::Assign { target, .. }, _) => {
                assert_eq!(target.root_var(), Some("m"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_concat_binds_tighter_than_comparison() {
        let p = parse("<?php $b = $x . 'a' == $y;");
        match &p.stmts[0] {
            Stmt::Expr(Expr::Assign { value, .. }, _) => match value.as_ref() {
                Expr::Binary {
                    op: BinOp::Eq,
                    left,
                    ..
                } => {
                    assert!(matches!(
                        left.as_ref(),
                        Expr::Binary {
                            op: BinOp::Concat,
                            ..
                        }
                    ));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn statement_count_of_realistic_file() {
        let src = r#"<?php
$sid = $_GET['sid'];
if (!$sid) { $sid = $_POST['sid']; }
$iq = "SELECT * FROM groups WHERE sid=$sid";
DoSQL($iq);
"#;
        let p = parse(src);
        assert_eq!(p.stmts.len(), 4);
        assert_eq!(p.num_statements(), 5);
    }
}
