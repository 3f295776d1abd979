//! The typestate-based (TS) verification algorithm — the paper's
//! baseline.
//!
//! "In an earlier work, we used a typestate-based algorithm (TS) that
//! essentially performs breadth-first searches on control flow graphs
//! and trades space for time. Although it has polynomial-time
//! complexity, it is incapable of providing counterexample traces."
//!
//! TS is a flow-sensitive, path-*insensitive* forward dataflow analysis:
//! at every program point each variable carries the join of its types
//! over all paths reaching that point. At a sensitive-output-channel
//! call it reports one error per vulnerable *statement* (the symptom),
//! with the tainted arguments listed — and WebSSARI's TS mode inserts
//! one runtime guard per such statement. It cannot tell which upstream
//! assignment introduced the taint, which is exactly the deficiency the
//! paper's BMC replaces it to fix.
//!
//! Two interchangeable implementations are provided and tested against
//! each other:
//!
//! * [`analyze`] — a structured walk over the loop-free AI (fast path);
//! * [`analyze_worklist`] — a classic breadth-first worklist fixpoint
//!   over an explicit control-flow graph, matching the paper's
//!   description of TS.
//!
//! # Examples
//!
//! ```
//! use php_front::parse_source;
//! use typestate::analyze;
//! use webssari_ir::{abstract_interpret, filter_program, FilterOptions, Prelude};
//!
//! let src = "<?php $x = $_GET['q']; echo $x; echo $x;";
//! let ast = parse_source(src).unwrap();
//! let f = filter_program(&ast, src, "a.php", &Prelude::standard(), &FilterOptions::default());
//! let ai = abstract_interpret(&f);
//! let r = analyze(&ai, &taint_lattice::TwoPoint::new());
//! assert_eq!(r.errors.len(), 2); // one symptom per vulnerable statement
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cfg;

pub use cfg::analyze_worklist;

use taint_lattice::{Elem, Lattice};
use webssari_ir::{AiCmd, AiProgram, AssertId, Site, VarId};

/// One TS-reported error: a vulnerable statement (symptom).
#[derive(Clone, Debug, PartialEq)]
pub struct TsError {
    /// The violated assertion.
    pub assert_id: AssertId,
    /// The SOC function.
    pub func: String,
    /// The vulnerable call site.
    pub site: Site,
    /// Arguments whose merged type violates the precondition.
    pub violating_vars: Vec<VarId>,
}

/// The TS analysis outcome.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TsResult {
    /// One entry per vulnerable statement, in program order.
    pub errors: Vec<TsError>,
    /// Number of assertions checked.
    pub checked_assertions: usize,
}

impl TsResult {
    /// Number of runtime guards TS-mode WebSSARI would insert: one per
    /// vulnerable statement.
    pub fn num_instrumentations(&self) -> usize {
        self.errors.len()
    }

    /// Whether no violations were found.
    pub fn is_safe(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Runs TS as a structured walk over the loop-free AI.
///
/// Branches merge by joining the per-variable states of both sides,
/// which is the classic may-taint over-approximation.
pub fn analyze(ai: &AiProgram, lattice: &impl Lattice) -> TsResult {
    analyze_with_state(ai, lattice).0
}

/// Runs the TS join-walk and returns only the final per-variable state
/// vector (indexed by [`VarId::index`]): the merged safety level that
/// reaches each variable at end of program, which the store-summary
/// pass reads for store-write variables.
pub fn final_state(ai: &AiProgram, lattice: &impl Lattice) -> Vec<Elem> {
    analyze_with_state(ai, lattice).1
}

/// [`analyze`] and [`final_state`] from one walk: the TS result and
/// the final per-variable state vector. Verification uses both, so a
/// file whose store writes it records costs no second walk.
pub fn analyze_with_state(ai: &AiProgram, lattice: &impl Lattice) -> (TsResult, Vec<Elem>) {
    let mut state: Vec<Elem> = vec![lattice.bottom(); ai.vars.len()];
    let mut result = TsResult::default();
    walk(&ai.cmds, lattice, &mut state, &mut result);
    result.checked_assertions = ai.num_assertions();
    (result, state)
}

fn walk(cmds: &[AiCmd], lattice: &impl Lattice, state: &mut Vec<Elem>, result: &mut TsResult) {
    for c in cmds {
        match c {
            AiCmd::Assign {
                var,
                base,
                deps,
                mask,
                ..
            } => {
                let mut t = *base;
                for d in deps {
                    t = lattice.join(t, state[d.index()]);
                }
                if let Some(m) = mask {
                    t = lattice.meet(t, *m);
                }
                state[var.index()] = t;
            }
            AiCmd::Assert {
                id,
                vars,
                bound,
                strict,
                func,
                site,
                ..
            } => {
                let ok = |t| {
                    if *strict {
                        lattice.lt(t, *bound)
                    } else {
                        lattice.leq(t, *bound)
                    }
                };
                let violating: Vec<VarId> = vars
                    .iter()
                    .copied()
                    .filter(|v| !ok(state[v.index()]))
                    .collect();
                if !violating.is_empty() {
                    result.errors.push(TsError {
                        assert_id: *id,
                        func: func.clone(),
                        site: site.clone(),
                        violating_vars: violating,
                    });
                }
            }
            AiCmd::If {
                then_cmds,
                else_cmds,
                ..
            } => {
                let mut then_state = state.clone();
                walk(then_cmds, lattice, &mut then_state, result);
                walk(else_cmds, lattice, state, result);
                for (s, t) in state.iter_mut().zip(&then_state) {
                    *s = lattice.join(*s, *t);
                }
            }
            // TS matches the BMC's Figure 5 semantics for `stop`.
            AiCmd::Stop { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use php_front::parse_source;
    use taint_lattice::TwoPoint;
    use webssari_ir::{abstract_interpret, filter_program, FilterOptions, Prelude};

    pub(crate) fn ai_of(src: &str) -> AiProgram {
        let ast = parse_source(src).expect("parse");
        let f = filter_program(
            &ast,
            src,
            "t.php",
            &Prelude::standard(),
            &FilterOptions::default(),
        );
        abstract_interpret(&f)
    }

    #[test]
    fn reports_one_error_per_statement() {
        let ai = ai_of("<?php $x = $_GET['q']; echo $x; mysql_query($x); echo $x;");
        let r = analyze(&ai, &TwoPoint::new());
        assert_eq!(r.errors.len(), 3);
        assert_eq!(r.num_instrumentations(), 3);
        assert_eq!(r.checked_assertions, 3);
    }

    #[test]
    fn clean_program_is_safe() {
        let ai = ai_of("<?php $x = htmlspecialchars($_GET['q']); echo $x;");
        let r = analyze(&ai, &TwoPoint::new());
        assert!(r.is_safe());
    }

    #[test]
    fn branches_merge_with_join() {
        // Tainted on one branch only: TS (path-insensitively) flags the
        // sink after the merge.
        let ai = ai_of("<?php if ($c) { $x = $_GET['q']; } else { $x = 'ok'; } echo $x;");
        let r = analyze(&ai, &TwoPoint::new());
        assert_eq!(r.errors.len(), 1);
    }

    #[test]
    fn kill_through_reassignment() {
        // Flow sensitivity: reassigning with a constant clears taint.
        let ai = ai_of("<?php $x = $_GET['q']; $x = 'clean'; echo $x;");
        let r = analyze(&ai, &TwoPoint::new());
        assert!(r.is_safe());
    }

    #[test]
    fn one_walk_yields_errors_and_final_state() {
        // A join on `$x` (tainted on one branch), a kill on `$y`.
        let ai = ai_of(
            "<?php if ($c) { $x = $_GET['q']; } else { $x = 'ok'; } echo $x; \
             $y = $_GET['p']; $y = 'clean'; $z = $x;",
        );
        let lattice = TwoPoint::new();
        let (result, state) = analyze_with_state(&ai, &lattice);
        assert_eq!(result, analyze_worklist(&ai, &lattice));
        assert_eq!(result.errors.len(), 1);
        let level = |name: &str| state[ai.vars.lookup(name).expect(name).index()];
        assert_eq!(level("x"), lattice.top());
        assert_eq!(level("z"), lattice.top());
        assert_eq!(level("y"), lattice.bottom());
    }

    #[test]
    fn violating_vars_listed_per_statement() {
        let ai = ai_of("<?php $a = $_GET['p']; $b = $_GET['q']; $c = 'ok'; echo $a, $b, $c;");
        let r = analyze(&ai, &TwoPoint::new());
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.errors[0].violating_vars.len(), 2);
    }

    #[test]
    fn ts_agrees_with_bmc_on_violated_statements() {
        // On loop-free AIs with nondeterministic branches, "merged type
        // violates" coincides with "some path violates", so TS and BMC
        // flag the same statements; they differ in grouping/precision of
        // the *report*, not the verdict.
        let srcs = [
            "<?php $x = $_GET['q']; echo $x;",
            "<?php if ($c) { $x = $_GET['q']; } echo $x; echo 'safe';",
            "<?php $q = \"id=$id\"; mysql_query($q);",
            "<?php while ($r = mysql_fetch_array($h)) { echo $r; }",
        ];
        for src in srcs {
            let ai = ai_of(src);
            let ts = analyze(&ai, &TwoPoint::new());
            let bmc = xbmc_violated(&ai);
            let ts_ids: Vec<u32> = ts.errors.iter().map(|e| e.assert_id.0).collect();
            assert_eq!(ts_ids, bmc, "{src}");
        }
    }

    fn xbmc_violated(ai: &AiProgram) -> Vec<u32> {
        let mut ids: Vec<u32> = xbmc::Xbmc::new(ai)
            .check_all()
            .counterexamples
            .iter()
            .map(|c| c.assert_id.0)
            .collect();
        ids.dedup();
        ids
    }
}
