//! Counterexample traces.
//!
//! "According to BN's values in αᵢ, we can trace the AI and generate a
//! sequence of single assignments, which represents one counterexample
//! trace" (paper §3.3.2). [`replay_trace`] is that tracing step: given
//! the branch decisions extracted from a satisfying assignment, it
//! replays the AI and records every executed assignment up to the
//! violated assertion.

use std::fmt::Write as _;

use taint_lattice::{Elem, Lattice};
use webssari_ir::{AiCmd, AiProgram, AssertId, Site, VarId};

/// One executed assignment on a counterexample trace.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceStep {
    /// The assigned variable (at this point on the path).
    pub var: VarId,
    /// The constant part of the right-hand side.
    pub base: Elem,
    /// The joined variables of the right-hand side.
    pub deps: Vec<VarId>,
    /// Kinds kept by a sanitizing assignment, if any.
    pub mask: Option<Elem>,
    /// Source location of the assignment.
    pub site: Site,
    /// `Some(w)` iff the assignment is exactly `var := w` — a single
    /// assignment with a unique r-value, the form Lemma 1's replacement
    /// sets are built from.
    pub copy_of: Option<VarId>,
}

/// One counterexample: a path (branch decisions) on which an assertion
/// is violated, with the violating variables and the executed trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Counterexample {
    /// The violated assertion.
    pub assert_id: AssertId,
    /// The SOC function whose precondition failed.
    pub func: String,
    /// Where the assertion (the SOC call) is in the source.
    pub site: Site,
    /// The values of every nondeterministic branch variable `BN`.
    pub branches: Vec<bool>,
    /// The checked variables whose types violate the bound on this path.
    pub violating_vars: Vec<VarId>,
    /// Executed assignments from program start to the assertion.
    pub trace: Vec<TraceStep>,
}

impl Counterexample {
    /// Renders the trace as a human-readable report fragment.
    pub fn render(&self, program: &AiProgram) -> String {
        let mut out = String::new();
        self.render_into(program, &mut out);
        out
    }

    /// Appends [`Counterexample::render`]'s text to `out`: one line
    /// naming the violation, one with the path, one per trace step.
    pub fn render_into(&self, program: &AiProgram, out: &mut String) {
        let var = |out: &mut String, v: VarId| {
            out.push('$');
            out.push_str(program.vars.name(v));
        };
        let _ = write!(out, "violation of {}() at {}", self.func, self.site);
        out.push_str(" — tainted argument(s): ");
        for (i, v) in self.violating_vars.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            var(out, *v);
        }
        out.push_str("\n  path: [");
        for (i, taken) in self.branches.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "b{i}={}", if *taken { 'T' } else { 'F' });
        }
        out.push_str("]\n");
        for step in &self.trace {
            let _ = write!(out, "  {} ", step.site);
            var(out, step.var);
            out.push_str(" := ");
            if step.deps.is_empty() {
                let _ = write!(out, "{}", step.base);
            }
            for (i, d) in step.deps.iter().enumerate() {
                if i > 0 {
                    out.push_str(" ⊔ ");
                }
                var(out, *d);
            }
            out.push('\n');
        }
    }
}

/// Replays the AI along `branches`, returning every assignment executed
/// before reaching assertion `target` (inclusive of none after it).
///
/// `stop` commands are ignored, matching the paper's Figure 5 encoding
/// where `stop` contributes the constraint `true`.
pub fn replay_trace(program: &AiProgram, branches: &[bool], target: AssertId) -> Vec<TraceStep> {
    let mut steps = Vec::new();
    let mut done = false;
    collect(&program.cmds, branches, target, &mut steps, &mut done);
    steps
}

fn collect(
    cmds: &[AiCmd],
    branches: &[bool],
    target: AssertId,
    steps: &mut Vec<TraceStep>,
    done: &mut bool,
) {
    for c in cmds {
        if *done {
            return;
        }
        match c {
            AiCmd::Assign {
                var,
                base,
                deps,
                mask,
                site,
            } => {
                // A sanitizing (masked) assignment is not a pure copy:
                // its value differs from its source.
                let copy_of = if deps.len() == 1 && base.index() == 0 && mask.is_none() {
                    Some(deps[0])
                } else {
                    None
                };
                steps.push(TraceStep {
                    var: *var,
                    base: *base,
                    deps: deps.clone(),
                    mask: *mask,
                    site: site.clone(),
                    copy_of,
                });
            }
            AiCmd::Assert { id, .. } => {
                if *id == target {
                    *done = true;
                    return;
                }
            }
            AiCmd::If {
                branch,
                then_cmds,
                else_cmds,
                ..
            } => {
                let taken = branches.get(branch.0 as usize).copied().unwrap_or(false);
                let side = if taken { then_cmds } else { else_cmds };
                collect(side, branches, target, steps, done);
            }
            AiCmd::Stop { .. } => {}
        }
    }
}

/// Concretely evaluates the AI along `branches` and returns the checked
/// variables of assertion `target` whose types violate its bound on
/// that path, in the assertion's argument order.
///
/// This mirrors the renaming encoding's per-path semantics exactly:
/// every variable starts at ⊥ and each executed assignment applies
/// `t_var = (base ⊔ ⊔deps) ⊓ mask`, so the result equals what a SAT
/// model of that path assigns to the per-variable violation literals.
/// The ALLSAT enumerator uses it to rebuild `violating_vars` for the
/// assignments covered by a generalized blocking cube, where no
/// satisfying model exists per expansion.
///
/// Returns `None` when the path never reaches the assertion (which
/// cannot happen for extensions of a cube that implies its violation
/// literal, since that literal is conjoined with the path guard).
pub fn path_violating_vars(
    program: &AiProgram,
    branches: &[bool],
    target: AssertId,
    lattice: &impl Lattice,
) -> Option<Vec<VarId>> {
    let mut vals: Vec<Elem> = vec![lattice.bottom(); program.vars.len()];
    eval(&program.cmds, branches, target, lattice, &mut vals)
}

fn eval(
    cmds: &[AiCmd],
    branches: &[bool],
    target: AssertId,
    lattice: &impl Lattice,
    vals: &mut Vec<Elem>,
) -> Option<Vec<VarId>> {
    for c in cmds {
        match c {
            AiCmd::Assign {
                var,
                base,
                deps,
                mask,
                ..
            } => {
                let mut v = *base;
                for d in deps {
                    v = lattice.join(v, vals[d.index()]);
                }
                if let Some(m) = mask {
                    v = lattice.meet(v, *m);
                }
                vals[var.index()] = v;
            }
            AiCmd::Assert {
                id,
                vars,
                bound,
                strict,
                ..
            } => {
                if *id == target {
                    return Some(
                        vars.iter()
                            .copied()
                            .filter(|v| {
                                let t = vals[v.index()];
                                !if *strict {
                                    lattice.lt(t, *bound)
                                } else {
                                    lattice.leq(t, *bound)
                                }
                            })
                            .collect(),
                    );
                }
            }
            AiCmd::If {
                branch,
                then_cmds,
                else_cmds,
                ..
            } => {
                let taken = branches.get(branch.0 as usize).copied().unwrap_or(false);
                let side = if taken { then_cmds } else { else_cmds };
                if let Some(r) = eval(side, branches, target, lattice, vals) {
                    return Some(r);
                }
            }
            AiCmd::Stop { .. } => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use php_front::parse_source;
    use taint_lattice::TwoPoint;
    use webssari_ir::{abstract_interpret, filter_program, FilterOptions, Prelude};

    fn ai_of(src: &str) -> AiProgram {
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
    fn replay_straight_line() {
        let ai = ai_of("<?php $a = $_GET['x']; $b = $a; echo $b;");
        let steps = replay_trace(&ai, &[], AssertId(0));
        // UIC init of $_GET, then the two program assignments.
        assert_eq!(steps.len(), 3);
        assert_eq!(steps[0].copy_of, None); // _GET := const ⊤, not a copy
        let get = ai.vars.lookup("_GET[x]").unwrap();
        let a = ai.vars.lookup("a").unwrap();
        assert_eq!(steps[1].copy_of, Some(get)); // $a := $_GET
        assert_eq!(steps[2].copy_of, Some(a)); // $b := $a
    }

    #[test]
    fn replay_follows_branches() {
        let ai = ai_of("<?php if ($c) { $x = $_GET['a']; } else { $x = 'ok'; } echo $x;");
        let then_steps = replay_trace(&ai, &[true], AssertId(0));
        let else_steps = replay_trace(&ai, &[false], AssertId(0));
        // Step 0 is the shared $_GET init; step 1 is the branch-local
        // assignment to $x.
        assert_eq!(then_steps.len(), 2);
        assert_eq!(else_steps.len(), 2);
        assert_ne!(then_steps[1].deps, else_steps[1].deps);
    }

    #[test]
    fn replay_stops_at_target_assertion() {
        let ai = ai_of("<?php $a = $_GET['x']; echo $a; $b = $a; echo $b;");
        let steps = replay_trace(&ai, &[], AssertId(0));
        assert_eq!(steps.len(), 2, "assignments after assert 0 are excluded");
        let steps = replay_trace(&ai, &[], AssertId(1));
        assert_eq!(steps.len(), 3);
    }

    #[test]
    fn path_violating_vars_follows_branches() {
        let ai = ai_of("<?php if ($c) { $x = $_GET['a']; } else { $x = 'ok'; } echo $x;");
        let l = TwoPoint::new();
        let tainted = path_violating_vars(&ai, &[true], AssertId(0), &l).unwrap();
        assert_eq!(tainted.len(), 1);
        assert_eq!(ai.vars.name(tainted[0]), "x");
        let clean = path_violating_vars(&ai, &[false], AssertId(0), &l).unwrap();
        assert!(clean.is_empty());
    }

    #[test]
    fn path_violating_vars_respects_sanitizer_masks() {
        let ai = ai_of("<?php $x = htmlspecialchars($_GET['a']); echo $x;");
        let l = TwoPoint::new();
        let v = path_violating_vars(&ai, &[], AssertId(0), &l).unwrap();
        assert!(v.is_empty());
    }

    #[test]
    fn path_violating_vars_is_none_for_unreached_assert() {
        let ai = ai_of("<?php if ($c) { echo $_GET['a']; } $y = 'ok'; echo $y;");
        let l = TwoPoint::new();
        // Branch not taken: the first assert (inside the arm) is never
        // reached on this path.
        assert!(path_violating_vars(&ai, &[false], AssertId(0), &l).is_none());
        assert!(path_violating_vars(&ai, &[true], AssertId(0), &l).is_some());
    }

    #[test]
    fn render_mentions_function_and_vars() {
        let ai = ai_of("<?php $q = $_GET['id']; mysql_query($q);");
        let cx = Counterexample {
            assert_id: AssertId(0),
            func: "mysql_query".into(),
            site: Site::synthetic("t.php", "mysql_query($q)"),
            branches: vec![],
            violating_vars: vec![ai.vars.lookup("q").unwrap()],
            trace: replay_trace(&ai, &[], AssertId(0)),
        };
        let text = cx.render(&ai);
        assert!(text.contains("mysql_query"));
        assert!(text.contains("$q"));
    }
}
