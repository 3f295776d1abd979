//! WebSSARI core: the end-to-end verification and assurance pipeline.
//!
//! This crate wires the reproduction's subsystems into the system of
//! Figure 8/9 of the paper:
//!
//! ```text
//! PHP source ──lexer/parser──► AST ──filter──► F(p) ──AI──► AI(F(p))
//!      ▲                                                        │
//!      │                                          ┌─────────────┤
//!      │                                     TS baseline    xBMC (SAT)
//!      │                                          │             │
//!      │                                          ▼             ▼
//!  instrumentor ◄── minimal fixing set ◄── counterexample analysis
//! ```
//!
//! The [`Verifier`] runs both the TS baseline and the bounded model
//! checker over each file, groups BMC counterexamples into root causes
//! via the minimal-fixing-set computation, renders error reports with
//! counterexample traces, and instruments the source with runtime
//! sanitization guards — at the *causes* (BMC mode) or at every
//! *symptom* (TS mode), reproducing the paper's 41.0% instrumentation
//! reduction.
//!
//! # Examples
//!
//! ```
//! use webssari_core::Verifier;
//!
//! let src = r#"<?php
//! $sid = $_GET['sid'];
//! $q = "SELECT * FROM g WHERE sid=$sid";
//! mysql_query($q);
//! "#;
//! let report = Verifier::new().verify_source(src, "index.php")?;
//! assert_eq!(report.ts_instrumentations(), 1);
//! assert_eq!(report.bmc_instrumentations(), 1);
//! assert_eq!(report.vulnerabilities[0].class, "sqli");
//! # Ok::<(), webssari_core::VerifyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod html;
mod instrument;
pub mod json;
mod report;
mod verifier;

pub use error::VerifyError;
pub use html::render_html;
pub use instrument::{instrument_bmc, instrument_ts, Instrumentation};
pub use report::{
    reduction_note, FileOutcome, FileReport, FileSummary, ProjectReport, Vulnerability,
};
pub use verifier::{FileReads, SolveBudget, StoreCell, Verifier, VerifierBuilder};
/// The cross-request store summary a [`StoreCell`] holds.
pub use webssari_ir::StoreSummary;
