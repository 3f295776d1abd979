//! xBMC 1.0: constraint generation with variable renaming (§3.3.2).
//!
//! Following Clarke et al.'s CBMC algorithm, AI variables are renamed so
//! that each renamed variable is assigned only once (an SSA form without
//! φ-conditions). A guarded assignment under guard `g` constrains only
//! the new and the previous incarnation of the assigned variable:
//!
//! ```text
//! C(x = e, g) :=  tᵢx = g ? ρ(t_e) : tᵢ⁻¹x          (Figure 5)
//! ```
//!
//! so each assignment costs 2 type vectors — versus `2·|X|` in the
//! auxiliary-variable encoding of xBMC 0.1.
//!
//! Branch conditions are nondeterministic boolean variables (the set
//! `BN`); assertions become guarded violation literals that the checker
//! assumes one at a time.

use cnf::{CnfFormula, FormulaBuilder, Lit};
use taint_lattice::Lattice;
use webssari_ir::{AiCmd, AiProgram, AssertId, BranchId, Site, VarId};

use crate::typevec::TypeVec;

/// One encoded assertion.
#[derive(Clone, Debug)]
pub struct EncodedAssert {
    /// The assertion's id.
    pub id: AssertId,
    /// The SOC function name.
    pub func: String,
    /// The SOC call site.
    pub site: Site,
    /// True in a model iff the assertion is violated on the model's
    /// path (`guard ∧ ∃x: ¬(t_x < bound)`).
    pub violated: Lit,
    /// Per checked variable: a literal that is true iff that variable's
    /// type violates the bound *and* the assertion's guard holds.
    pub var_violations: Vec<(VarId, Lit)>,
    /// The nondeterministic branches that precede this assertion in
    /// program order — the `BN` of the per-assertion formula `Bᵢ`;
    /// counterexample blocking quantifies over exactly these.
    pub relevant_branches: Vec<BranchId>,
}

/// The result of encoding an [`AiProgram`] with variable renaming.
#[derive(Debug)]
pub struct RenamedEncoding {
    /// The program constraints `C(c, true)`.
    pub formula: CnfFormula,
    /// One boolean per nondeterministic branch, indexed by [`BranchId`].
    pub branch_lits: Vec<Lit>,
    /// Encoded assertions in program order.
    pub asserts: Vec<EncodedAssert>,
    /// Number of renamed incarnations created (≥ 1 per AI variable).
    pub num_incarnations: usize,
}

/// Encodes an AI program using the renaming procedure ρ.
pub fn encode(ai: &AiProgram, lattice: &impl Lattice) -> RenamedEncoding {
    encode_with(FormulaBuilder::new(), ai, lattice)
}

/// Number of CNF variables [`encode`] would allocate for `ai`, computed
/// by driving the same encoder walk through a counting builder that
/// discards clauses. Exact by construction (gate shortcuts depend only
/// on literal identity, never on emitted clauses) at a fraction of the
/// cost. Not on the verify path: the verifier does not screen. The
/// benchmark mirror calls it to fill `XbmcStats::cnf_vars_saved`
/// without re-encoding the full program.
pub fn count_vars(ai: &AiProgram, lattice: &impl Lattice) -> usize {
    encode_with(FormulaBuilder::new_counting(), ai, lattice)
        .formula
        .num_vars()
}

fn encode_with(
    mut builder: FormulaBuilder,
    ai: &AiProgram,
    lattice: &impl Lattice,
) -> RenamedEncoding {
    let branch_lits: Vec<Lit> = (0..ai.num_branches).map(|_| builder.fresh_lit()).collect();
    // Incarnation 0 of every variable is the constant ⊥ (uninitialized
    // PHP variables hold trusted empty values).
    let bottom = lattice.bottom();
    let mut current: Vec<TypeVec> = (0..ai.vars.len())
        .map(|_| TypeVec::constant(&mut builder, lattice, bottom))
        .collect();
    let mut cx = Encoder {
        lattice,
        builder: &mut builder,
        branch_lits: &branch_lits,
        asserts: Vec::new(),
        num_incarnations: ai.vars.len(),
        branches_seen: Vec::new(),
    };
    let true_lit = cx.builder.lit_true();
    cx.walk(&ai.cmds, true_lit, &mut current);
    let asserts = cx.asserts;
    let num_incarnations = cx.num_incarnations;
    RenamedEncoding {
        formula: builder.into_formula(),
        branch_lits,
        asserts,
        num_incarnations,
    }
}

struct Encoder<'a, L: Lattice> {
    lattice: &'a L,
    builder: &'a mut FormulaBuilder,
    branch_lits: &'a [Lit],
    asserts: Vec<EncodedAssert>,
    num_incarnations: usize,
    branches_seen: Vec<BranchId>,
}

impl<L: Lattice> Encoder<'_, L> {
    fn walk(&mut self, cmds: &[AiCmd], guard: Lit, current: &mut Vec<TypeVec>) {
        for c in cmds {
            match c {
                AiCmd::Assign {
                    var,
                    base,
                    deps,
                    mask,
                    ..
                } => {
                    let operands: Vec<TypeVec> =
                        deps.iter().map(|d| current[d.index()].clone()).collect();
                    let mut rhs = TypeVec::join_all(self.builder, self.lattice, *base, &operands);
                    if let Some(m) = mask {
                        let keep = TypeVec::constant(self.builder, self.lattice, *m);
                        rhs = rhs.meet(self.builder, self.lattice, &keep);
                    }
                    let prev = current[var.index()].clone();
                    // tᵢx = g ? ρ(t_e) : tᵢ⁻¹x
                    let next = TypeVec::define_ite(self.builder, guard, &rhs, &prev);
                    current[var.index()] = next;
                    self.num_incarnations += 1;
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
                    let mut var_violations = Vec::with_capacity(vars.len());
                    let mut any = Vec::with_capacity(vars.len());
                    for v in vars {
                        let ok = if *strict {
                            current[v.index()].lt_bound(self.builder, self.lattice, *bound)
                        } else {
                            current[v.index()].le_bound(self.builder, self.lattice, *bound)
                        };
                        let viol = self.builder.and(guard, !ok);
                        var_violations.push((*v, viol));
                        any.push(viol);
                    }
                    let violated = self.builder.or_all(any);
                    self.asserts.push(EncodedAssert {
                        id: *id,
                        func: func.clone(),
                        site: site.clone(),
                        violated,
                        var_violations,
                        relevant_branches: self.branches_seen.clone(),
                    });
                }
                AiCmd::If {
                    branch,
                    then_cmds,
                    else_cmds,
                    ..
                } => {
                    self.branches_seen.push(*branch);
                    let b = self.branch_lits[branch.0 as usize];
                    let then_guard = self.builder.and(guard, b);
                    self.walk(then_cmds, then_guard, current);
                    let else_guard = self.builder.and(guard, !b);
                    self.walk(else_cmds, else_guard, current);
                }
                // Figure 5: C(stop, g) := true.
                AiCmd::Stop { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use php_front::parse_source;
    use sat::{SatResult, Solver};
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
    fn unconditional_violation_is_sat() {
        let ai = ai_of("<?php $x = $_GET['a']; echo $x;");
        let enc = encode(&ai, &TwoPoint::new());
        assert_eq!(enc.asserts.len(), 1);
        let mut s = Solver::from_formula(&enc.formula);
        let res = s.solve_with_assumptions(&[enc.asserts[0].violated]);
        assert!(res.is_sat());
    }

    #[test]
    fn sanitized_program_is_unsat() {
        let ai = ai_of("<?php $x = htmlspecialchars($_GET['a']); echo $x;");
        let enc = encode(&ai, &TwoPoint::new());
        let mut s = Solver::from_formula(&enc.formula);
        assert!(s
            .solve_with_assumptions(&[enc.asserts[0].violated])
            .is_unsat());
    }

    #[test]
    fn violation_only_under_tainting_branch() {
        let ai = ai_of("<?php $x = 'ok'; if ($c) { $x = $_GET['a']; } echo $x;");
        let enc = encode(&ai, &TwoPoint::new());
        let mut s = Solver::from_formula(&enc.formula);
        match s.solve_with_assumptions(&[enc.asserts[0].violated]) {
            SatResult::Sat(m) => {
                assert!(m.lit_value(enc.branch_lits[0]), "must take the then branch");
            }
            other => panic!("expected sat, got {other:?}"),
        }
        // Forcing the branch false must make the violation impossible.
        let res = s.solve_with_assumptions(&[enc.asserts[0].violated, !enc.branch_lits[0]]);
        assert!(res.is_unsat());
    }

    #[test]
    fn violating_var_literals_identify_arguments() {
        let ai = ai_of("<?php $a = $_GET['x']; $b = 'ok'; echo $a, $b;");
        let enc = encode(&ai, &TwoPoint::new());
        let mut s = Solver::from_formula(&enc.formula);
        match s.solve_with_assumptions(&[enc.asserts[0].violated]) {
            SatResult::Sat(m) => {
                let a = ai.vars.lookup("a").unwrap();
                let b = ai.vars.lookup("b").unwrap();
                let viol_of = |v| {
                    enc.asserts[0]
                        .var_violations
                        .iter()
                        .find(|(w, _)| *w == v)
                        .map(|(_, l)| m.lit_value(*l))
                        .unwrap()
                };
                assert!(viol_of(a));
                assert!(!viol_of(b));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn count_vars_matches_full_encoding() {
        let srcs = [
            "<?php $x = 'ok'; echo $x;",
            "<?php $x = $_GET['a']; echo $x;",
            "<?php $x = 'ok'; if ($a) { $x = $_GET['p']; } if ($b) { $x = $x . $_GET['q']; } echo $x;",
            "<?php $x = htmlspecialchars($_GET['a']); if ($c) { $x = $_GET['b']; } echo $x; mysql_query($x);",
        ];
        for src in srcs {
            let ai = ai_of(src);
            let l = TwoPoint::new();
            assert_eq!(
                count_vars(&ai, &l),
                encode(&ai, &l).formula.num_vars(),
                "{src}"
            );
        }
    }

    #[test]
    fn relevant_branches_are_the_prefix() {
        let ai = ai_of("<?php if ($a) { $x = 1; } echo $q; if ($b) { $y = 2; } echo $q;");
        let enc = encode(&ai, &TwoPoint::new());
        assert_eq!(enc.asserts[0].relevant_branches, vec![BranchId(0)]);
        assert_eq!(
            enc.asserts[1].relevant_branches,
            vec![BranchId(0), BranchId(1)]
        );
    }

    #[test]
    fn sequentialized_branches_restore_previous_value() {
        // After `if (c) { $x = taint; } else { $x = taint; }` the
        // violation holds on both paths; after an if with only one
        // tainting side, the else path stays clean.
        let ai = ai_of(
            "<?php $x = 'ok'; if ($c) { $x = $_GET['a']; } else { $x = $_GET['b']; } echo $x;",
        );
        let enc = encode(&ai, &TwoPoint::new());
        let mut s = Solver::from_formula(&enc.formula);
        for polarity in [true, false] {
            let b = if polarity {
                enc.branch_lits[0]
            } else {
                !enc.branch_lits[0]
            };
            assert!(
                s.solve_with_assumptions(&[enc.asserts[0].violated, b])
                    .is_sat(),
                "both paths taint"
            );
        }
    }

    #[test]
    fn incarnation_count_grows_with_assignments() {
        let ai = ai_of("<?php $a = 1; $a = 2; $a = 3;");
        let enc = encode(&ai, &TwoPoint::new());
        // 1 initial + 3 assignments.
        assert_eq!(enc.num_incarnations, ai.vars.len() + 3);
    }

    #[test]
    fn empty_program_encodes_trivially() {
        let ai = ai_of("<?php $x = 1;");
        let enc = encode(&ai, &TwoPoint::new());
        assert!(enc.asserts.is_empty());
        let mut s = Solver::from_formula(&enc.formula);
        assert!(s.solve().is_sat());
    }
}
