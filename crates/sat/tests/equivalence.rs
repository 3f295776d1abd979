//! Differential testing of the arena solver against the frozen
//! pre-refactor implementation ([`sat::reference::Solver`]).
//!
//! The arena rebuild changed the clause memory layout, the propagation
//! inner loop, and added `add_formula` preprocessing — none of which may
//! change *answers*. On every random formula the two solvers must agree
//! on SAT/UNSAT, enumerate the same number of models, emit proofs that
//! both check, and behave compatibly under budget interruption.

use cnf::{Clause, CnfFormula, Lit, Var};
use proptest::prelude::*;
use sat::{Budget, SatResult};

fn formula_strategy(
    max_vars: usize,
    max_clause_len: usize,
    max_clauses: usize,
) -> impl Strategy<Value = CnfFormula> {
    prop::collection::vec(
        prop::collection::vec((0..max_vars, any::<bool>()), 1..=max_clause_len),
        0..=max_clauses,
    )
    .prop_map(|clauses| {
        let mut f = CnfFormula::new();
        for c in clauses {
            f.add_clause(Clause::new(
                c.into_iter()
                    .map(|(v, pos)| Lit::new(Var::new(v), pos))
                    .collect(),
            ));
        }
        f
    })
}

fn verdict_of(r: &SatResult) -> &'static str {
    match r {
        SatResult::Sat(_) => "sat",
        SatResult::Unsat => "unsat",
        SatResult::Unknown => "unknown",
        SatResult::Interrupted => "interrupted",
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// Identical SAT/UNSAT verdicts, and any model satisfies the formula.
    #[test]
    fn same_verdict_as_reference(f in formula_strategy(8, 4, 28)) {
        let mut arena = sat::Solver::from_formula(&f);
        let mut oracle = sat::reference::Solver::from_formula(&f);
        let a = arena.solve();
        let o = oracle.solve();
        prop_assert_eq!(verdict_of(&a), verdict_of(&o));
        if let SatResult::Sat(m) = &a {
            prop_assert_eq!(f.eval(&m.values()[..f.num_vars()]), Some(true));
        }
        if let SatResult::Sat(m) = &o {
            prop_assert_eq!(f.eval(&m.values()[..f.num_vars()]), Some(true));
        }
    }

    /// Same verdicts under assumptions (the xBMC enumeration driver).
    #[test]
    fn same_verdict_under_assumptions(
        f in formula_strategy(7, 3, 18),
        assumed in prop::collection::vec((0usize..7, any::<bool>()), 0..3),
    ) {
        let assumptions: Vec<Lit> = assumed
            .iter()
            .map(|&(v, pos)| Lit::new(Var::new(v), pos))
            .collect();
        let mut arena = sat::Solver::from_formula(&f);
        let mut oracle = sat::reference::Solver::from_formula(&f);
        prop_assert_eq!(
            arena.solve_with_assumptions(&assumptions).is_sat(),
            oracle.solve_with_assumptions(&assumptions).is_sat(),
        );
        // And the solvers recover for an unconstrained follow-up call.
        prop_assert_eq!(arena.solve().is_sat(), oracle.solve().is_sat());
    }

    /// Blocking-clause model enumeration visits the same number of
    /// models (the sets are equal: both are exhaustive and blocked on
    /// all variables, so equal counts over the same universe means
    /// equal sets).
    #[test]
    fn same_model_set_as_reference(f in formula_strategy(5, 3, 12)) {
        let n = f.num_vars();
        prop_assume!(n > 0);

        let mut arena_models = std::collections::BTreeSet::new();
        let mut arena = sat::Solver::from_formula(&f);
        while let SatResult::Sat(m) = arena.solve() {
            let vals: Vec<bool> = (0..n).map(|v| m.value(Var::new(v))).collect();
            arena.add_clause((0..n).map(|v| Lit::new(Var::new(v), !vals[v])));
            prop_assert!(arena_models.insert(vals), "arena enumerated a duplicate model");
            prop_assert!(arena_models.len() <= 1 << n);
        }

        let mut oracle_models = std::collections::BTreeSet::new();
        let mut oracle = sat::reference::Solver::from_formula(&f);
        while let SatResult::Sat(m) = oracle.solve() {
            let vals: Vec<bool> = (0..n).map(|v| m.value(Var::new(v))).collect();
            oracle.add_clause((0..n).map(|v| Lit::new(Var::new(v), !vals[v])));
            prop_assert!(oracle_models.insert(vals), "reference enumerated a duplicate model");
            prop_assert!(oracle_models.len() <= 1 << n);
        }

        prop_assert_eq!(arena_models, oracle_models);
    }

    /// Proof-logging mode: when the formula is unsat both solvers emit
    /// refutations, and both refutations check against the *original*
    /// formula — i.e. arena preprocessing keeps proofs RUP-derivable.
    #[test]
    fn proofs_check_like_reference(f in formula_strategy(6, 3, 20)) {
        let mut arena = sat::Solver::from_formula(&f);
        arena.start_proof();
        let mut oracle = sat::reference::Solver::from_formula(&f);
        oracle.start_proof();
        let a = arena.solve();
        let o = oracle.solve();
        prop_assert_eq!(a.is_unsat(), o.is_unsat());
        if a.is_unsat() {
            let ap = arena.take_proof().expect("recording was on");
            prop_assert!(ap.proves_unsat());
            ap.verify_refutation(&f).expect("arena proof checks");
            let op = oracle.take_proof().expect("recording was on");
            prop_assert!(op.proves_unsat());
            op.verify_refutation(&f).expect("reference proof checks");
        }
    }

    /// Budget-interrupt mode: under a conflict ceiling each solver
    /// either gets interrupted or produces a sound verdict, and after
    /// lifting the budget both converge to the same final answer.
    #[test]
    fn budget_interrupts_are_recoverable(
        f in formula_strategy(7, 3, 24),
        max_conflicts in 0u64..6,
    ) {
        let budget = Budget::new().max_conflicts(max_conflicts);
        let mut arena = sat::Solver::from_formula(&f);
        arena.set_budget(budget);
        let mut oracle = sat::reference::Solver::from_formula(&f);
        oracle.set_budget(budget);
        let a = arena.solve();
        let o = oracle.solve();
        for (name, r) in [("arena", &a), ("reference", &o)] {
            if let SatResult::Sat(m) = r {
                prop_assert_eq!(
                    f.eval(&m.values()[..f.num_vars()]),
                    Some(true),
                    "{} returned a bogus model under budget", name
                );
            }
            prop_assert!(
                !matches!(r, SatResult::Unknown),
                "{} returned Unknown with no conflict limit", name
            );
        }
        arena.set_budget(Budget::default());
        oracle.set_budget(Budget::default());
        let a2 = arena.solve();
        let o2 = oracle.solve();
        prop_assert_eq!(verdict_of(&a2), verdict_of(&o2));
        // A non-interrupted first answer must agree with the final one.
        if !matches!(a, SatResult::Interrupted) {
            prop_assert_eq!(a.is_sat(), a2.is_sat());
        }
        if !matches!(o, SatResult::Interrupted) {
            prop_assert_eq!(o.is_sat(), o2.is_sat());
        }
    }

    /// Incremental clause addition between solves stays equivalent.
    #[test]
    fn incremental_addition_matches_reference(
        f1 in formula_strategy(6, 3, 12),
        f2 in formula_strategy(6, 3, 12),
    ) {
        let mut arena = sat::Solver::from_formula(&f1);
        let mut oracle = sat::reference::Solver::from_formula(&f1);
        prop_assert_eq!(arena.solve().is_sat(), oracle.solve().is_sat());
        arena.add_formula(&f2);
        oracle.add_formula(&f2);
        prop_assert_eq!(arena.solve().is_sat(), oracle.solve().is_sat());
    }
}

/// Hard structured instances (pigeonhole) where the conflict path
/// runs: every unsat row must conflict on both solvers, and at least
/// one row must drive the arena solver's clause-database reduction
/// (PHP(8,7) deletes learned clauses; the smaller rows stay under the
/// reduction threshold). The answers must match the reference solver,
/// and proofs must check.
#[test]
fn pigeonhole_matches_reference_through_compaction() {
    let php = |pigeons: usize, holes: usize| {
        let mut f = CnfFormula::new();
        let var = |p: usize, h: usize| Var::new(p * holes + h);
        for p in 0..pigeons {
            f.add_lits((0..holes).map(|h| var(p, h).positive()));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    f.add_lits([var(p1, h).negative(), var(p2, h).negative()]);
                }
            }
        }
        f
    };
    let mut deleted = 0;
    for (m, n) in [(5, 4), (6, 5), (5, 6), (8, 7)] {
        let f = php(m, n);
        let mut arena = sat::Solver::from_formula(&f);
        arena.start_proof();
        let mut oracle = sat::reference::Solver::from_formula(&f);
        let a = arena.solve();
        let o = oracle.solve();
        assert_eq!(a.is_sat(), o.is_sat(), "PHP({m},{n})");
        if a.is_unsat() {
            assert!(arena.stats().conflicts > 0, "PHP({m},{n}) arena");
            assert!(oracle.stats().conflicts > 0, "PHP({m},{n}) reference");
            let proof = arena.take_proof().expect("recording was on");
            proof
                .verify_refutation(&f)
                .unwrap_or_else(|e| panic!("PHP({m},{n}) proof rejected: {e:?}"));
        }
        deleted += arena.stats().deleted_clauses;
    }
    assert!(deleted > 0, "no row reached clause-database reduction");
}
