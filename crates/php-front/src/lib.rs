//! Lexer, parser, and AST for the PHP subset analyzed by WebSSARI.
//!
//! The paper's "code walker" (§4, Figure 8) consists of a lexer, a
//! parser, an AST maker, and a program abstractor, with include
//! resolution handled while the AST is built. This crate provides the
//! first three stages plus include resolution; the abstractor lives in
//! the `webssari-ir` crate.
//!
//! The subset covers what the information-flow analysis consumes:
//! assignments (including compound `.=`-style ones), `echo`/`print`,
//! function declarations and calls, `if`/`elseif`/`else`, `while`,
//! `for`, `foreach`, `return`, `global`, `include`/`require` (resolved
//! statically), superglobal array accesses (`$_GET['x']`), string
//! interpolation (`"WHERE sid=$sid"`), concatenation, and the usual
//! operators. Constructs outside the subset produce parse errors with
//! source locations, which the pipeline reports per file.
//!
//! # Examples
//!
//! ```
//! use php_front::{parse_source, ast::Stmt};
//!
//! let src = r#"<?php $x = $_GET['q']; echo $x;"#;
//! let program = parse_source(src)?;
//! assert_eq!(program.stmts.len(), 2);
//! assert!(matches!(program.stmts[1], Stmt::Echo { .. }));
//! # Ok::<(), php_front::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod error;
mod includes;
mod lexer;
mod parser;
mod printer;
mod span;
mod token;

pub use error::ParseError;
pub use includes::{resolve_includes, resolve_includes_recording, IncludeError, SourceSet};
pub use lexer::Lexer;
pub use parser::{parse_source, Parser};
pub use printer::print_program;
pub use span::{LineIndex, Span};
pub use token::{Token, TokenKind};
