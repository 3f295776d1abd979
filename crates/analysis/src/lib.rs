//! # webssari-analysis — static screening and diagnostics.
//!
//! The layer between the abstract interpretation
//! (`webssari_ir::abstract_interpret`) and the bounded model checker
//! (`xbmc`), with three jobs:
//!
//! 1. **Cone-of-influence slicing** ([`cones`], [`slice`]): for each
//!    assertion, the backward closure of the variables it checks, plus
//!    the branch decisions that can influence it. The slice preserves
//!    the branch skeleton (the renaming encoder's blocking clauses
//!    quantify over the program-order branch prefix), so verdicts and
//!    counterexample sets are preserved exactly.
//! 2. **Tiered discharge** ([`screen`]): assertions the polynomial
//!    typestate pass proves clean are discharged statically with a
//!    proof tag ([`DischargeProof`]); only the survivors — sliced down
//!    to their cones — reach the SAT encoder. The verifier no longer
//!    runs these first two tiers: it skips BMC on a file with no
//!    typestate error and checks any other file's full AI. The screening
//!    benchmark and the benchmark mirror are their remaining callers.
//! 3. **Lint** ([`lint`], [`lint_file`]) with SARIF 2.1.0 export
//!    ([`to_sarif_json`]): taint findings, dead sanitizers, unreachable
//!    code, and approximation points as structured diagnostics with
//!    spans, severity, and stable rule ids.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cone;
pub mod lint;
pub mod sarif;
pub mod screen;

pub use cone::{cones, slice, AssertCone};
pub use lint::{lint, lint_file, Diagnostic, FlowStep, Severity, RULES};
pub use sarif::{to_sarif, to_sarif_json, SARIF_SCHEMA};
pub use screen::{
    screen, screen_two_stage, DischargeProof, Discharged, FlowScreenResult, ScreenResult,
};
