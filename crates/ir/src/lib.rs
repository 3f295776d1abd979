//! The filtered command language `F(p)` and abstract interpretation
//! `AI(F(p))` of the WebSSARI pipeline (paper §3.2, Figure 4).
//!
//! Given a parsed PHP program, the [`filter`] stage produces an
//! [`FProgram`]: command sequences built from assignments, untrusted
//! input channels (UIC, `fi(X)`), sensitive output channels (SOC,
//! `fo(X)`), `stop`, conditionals, and loops — everything not associated
//! with information flow is discarded, and function calls are unfolded.
//! The [`ai`] stage then translates `F(p)` into an [`AiProgram`]
//! consisting solely of type assignments, assertions, and
//! nondeterministic `if` commands: loops deconstruct into selections
//! (Figure 4's `while e do c` → `if b then AI(c)` rule), after which the
//! program is loop-free, has a fixed diameter, and is ready for bounded
//! model checking.
//!
//! Pre- and postconditions of built-in functions come from a
//! [`Prelude`]: UICs are given postconditions that set the safety level
//! of retrieved data, SOCs preconditions that assert argument safety,
//! and sanitization routines reset data to the bottom (safest) type.
//!
//! # Examples
//!
//! ```
//! use php_front::parse_source;
//! use webssari_ir::{abstract_interpret, filter_program, FilterOptions, Prelude};
//!
//! let src = r#"<?php $q = "id=" . $_GET['id']; mysql_query($q);"#;
//! let program = parse_source(src).unwrap();
//! let prelude = Prelude::standard();
//! let f = filter_program(&program, src, "index.php", &prelude, &FilterOptions::default());
//! let ai = abstract_interpret(&f);
//! assert_eq!(ai.num_assertions(), 1); // the mysql_query precondition
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ai;
pub mod filter;
mod fir;
mod prelude;
mod site;
mod vartable;

pub use ai::{abstract_interpret, abstract_interpret_with, AiCmd, AiProgram, AssertId, BranchId};
pub use filter::{
    filter_program, filter_program_on_demand, filter_program_with_stores, FilterOptions,
};
pub use fir::{AssertKind, FCmd, FExpr, FProgram, StoreRead, StoreWrite};
pub use prelude::{Prelude, SocSpec};
pub use site::Site;
pub use vartable::{VarId, VarTable};
// Re-exported so downstream crates can build and consume store
// summaries and SQL sink metadata without a direct sinks dependency.
pub use webssari_sinks::{
    is_store_cell, store_cell_key, store_cell_name, SqlSinkMeta, SqlStmtKind, StoreEntry,
    StoreSummary,
};
