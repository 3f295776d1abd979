//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! The paper runs its bounded model checker on ZChaff, "an efficient SAT
//! solver that has been used with many industrial projects" whose key
//! engineering contributions were two-literal watching and VSIDS
//! decision heuristics. This crate is the reproduction's stand-in: a
//! from-scratch CDCL solver implementing the same technique family —
//!
//! * two-literal watching with blocker literals for cheap propagation,
//! * first-UIP conflict analysis with learned-clause minimization,
//! * VSIDS variable activities with exponential decay and phase saving,
//! * Luby-sequence restarts,
//! * learned-clause database reduction by activity, and
//! * incremental solving under assumptions (used by xBMC to enumerate
//!   all counterexamples of an assertion with blocking clauses).
//!
//! The clause database is a single flat `u32` arena (MiniSat's memory
//! layout) walked in place by propagation, and `add_formula` runs a
//! root-level preprocessing pass before search; see [`Solver`] for the
//! data-plane details. The pre-arena implementation is preserved as
//! [`reference::Solver`], the differential-testing oracle.
//!
//! Any complete solver preserves xBMC's soundness and completeness; the
//! tests validate this one against brute-force enumeration on thousands
//! of random formulas.
//!
//! # Examples
//!
//! ```
//! use cnf::{CnfFormula, Var};
//! use sat::{SatResult, Solver};
//!
//! let x = Var::new(0).positive();
//! let y = Var::new(1).positive();
//! let mut f = CnfFormula::new();
//! f.add_lits([x, y]);
//! f.add_lits([!x]);
//! let mut solver = Solver::from_formula(&f);
//! match solver.solve() {
//!     SatResult::Sat(model) => {
//!         assert!(!model.value(x.var()));
//!         assert!(model.value(y.var()));
//!     }
//!     _ => panic!("formula is satisfiable"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod budget;
mod heap;
mod heap_ref;
mod luby;
pub mod proof;
pub mod reference;
mod solver;
mod stats;
mod types;

pub use budget::Budget;
pub use proof::{parse_drat, write_drat, Proof, ProofError, ProofStep};
pub use solver::Solver;
pub use stats::SolverStats;
pub use types::{Model, SatResult};
