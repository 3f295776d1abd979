use std::fmt;

use crate::span::Span;

/// One piece of a (possibly interpolated) PHP string literal.
#[derive(Clone, Debug, PartialEq)]
pub enum StrPart {
    /// Literal text.
    Lit(String),
    /// An interpolated scalar variable, e.g. `$sid` in `"sid=$sid"`.
    Var(String),
    /// An interpolated array element, e.g. `$row[name]`.
    ArrayVar {
        /// Variable name without `$`.
        var: String,
        /// The literal index text.
        index: String,
    },
}

/// The kind (and payload) of a lexical token.
///
/// Names and undecorated literals borrow their text from the source
/// (`'src`); the parser copies a name once, when it moves into the AST.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // variant names mirror PHP's lexical grammar
pub enum TokenKind<'src> {
    /// Raw HTML outside `<?php … ?>` — modeled as output of trusted text.
    InlineHtml(&'src str),
    /// A `$name` variable; payload excludes the `$`.
    Variable(&'src str),
    /// An identifier or keyword.
    Ident(&'src str),
    IntLit(i64),
    FloatLit(f64),
    /// A string literal with no escape or interpolation: its text as
    /// written between the delimiters (one `Lit` part in the AST).
    PlainString(&'src str),
    /// A string literal with escapes or interpolation, already split
    /// into parts.
    StringLit(Vec<StrPart>),

    Assign,
    PlusAssign,
    MinusAssign,
    MulAssign,
    DivAssign,
    DotAssign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Dot,
    EqEq,
    EqEqEq,
    NotEq,
    NotEqEq,
    Lt,
    Gt,
    Le,
    Ge,
    AndAnd,
    OrOr,
    Not,
    Question,
    Colon,
    Semicolon,
    Comma,
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    At,
    Arrow,
    DoubleArrow,
    Inc,
    Dec,
    Amp,
    Eof,
}

impl TokenKind<'_> {
    /// Whether this is an `Ident` with the given (case-insensitive) text.
    pub fn is_ident(&self, text: &str) -> bool {
        matches!(self, TokenKind::Ident(s) if s.eq_ignore_ascii_case(text))
    }

    /// A short human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::InlineHtml(_) => "inline HTML".to_owned(),
            TokenKind::Variable(v) => format!("variable ${v}"),
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::IntLit(n) => format!("integer {n}"),
            TokenKind::FloatLit(x) => format!("float {x}"),
            TokenKind::PlainString(_) | TokenKind::StringLit(_) => "string literal".to_owned(),
            TokenKind::Eof => "end of input".to_owned(),
            other => format!("`{}`", other.symbol()),
        }
    }

    fn symbol(&self) -> &'static str {
        match self {
            TokenKind::Assign => "=",
            TokenKind::PlusAssign => "+=",
            TokenKind::MinusAssign => "-=",
            TokenKind::MulAssign => "*=",
            TokenKind::DivAssign => "/=",
            TokenKind::DotAssign => ".=",
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Star => "*",
            TokenKind::Slash => "/",
            TokenKind::Percent => "%",
            TokenKind::Dot => ".",
            TokenKind::EqEq => "==",
            TokenKind::EqEqEq => "===",
            TokenKind::NotEq => "!=",
            TokenKind::NotEqEq => "!==",
            TokenKind::Lt => "<",
            TokenKind::Gt => ">",
            TokenKind::Le => "<=",
            TokenKind::Ge => ">=",
            TokenKind::AndAnd => "&&",
            TokenKind::OrOr => "||",
            TokenKind::Not => "!",
            TokenKind::Question => "?",
            TokenKind::Colon => ":",
            TokenKind::Semicolon => ";",
            TokenKind::Comma => ",",
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::LBrace => "{",
            TokenKind::RBrace => "}",
            TokenKind::LBracket => "[",
            TokenKind::RBracket => "]",
            TokenKind::At => "@",
            TokenKind::Arrow => "->",
            TokenKind::DoubleArrow => "=>",
            TokenKind::Inc => "++",
            TokenKind::Dec => "--",
            TokenKind::Amp => "&",
            _ => unreachable!("non-symbol token"),
        }
    }
}

/// A token with its source span.
#[derive(Clone, Debug, PartialEq)]
pub struct Token<'src> {
    /// What was lexed.
    pub kind: TokenKind<'src>,
    /// Where it was lexed from.
    pub span: Span,
}

impl<'src> Token<'src> {
    /// Creates a token.
    pub fn new(kind: TokenKind<'src>, span: Span) -> Self {
        Token { kind, span }
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.kind.describe(), self.span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_ident_is_case_insensitive() {
        let k = TokenKind::Ident("Echo");
        assert!(k.is_ident("echo"));
        assert!(k.is_ident("ECHO"));
        assert!(!k.is_ident("print"));
        assert!(!TokenKind::Semicolon.is_ident("echo"));
    }

    #[test]
    fn describe_is_nonempty_for_all_kinds() {
        let kinds = vec![
            TokenKind::InlineHtml("x"),
            TokenKind::Variable("v"),
            TokenKind::Ident("f"),
            TokenKind::IntLit(1),
            TokenKind::FloatLit(1.5),
            TokenKind::PlainString("s"),
            TokenKind::StringLit(vec![]),
            TokenKind::Assign,
            TokenKind::DotAssign,
            TokenKind::EqEqEq,
            TokenKind::DoubleArrow,
            TokenKind::Eof,
        ];
        for k in kinds {
            assert!(!k.describe().is_empty());
        }
    }

    #[test]
    fn token_display_includes_span() {
        let t = Token::new(TokenKind::Semicolon, Span::new(3, 4));
        assert_eq!(t.to_string(), "`;` at bytes 3..4");
    }
}
