//! Cross-crate property tests: the whole pipeline on randomly
//! generated PHP programs — robustness (no panics), agreement between
//! TS and BMC verdicts, effectiveness of computed patches,
//! printer/parser round-trips, and the TS gate against the two-stage
//! screened pipeline.

use std::collections::BTreeSet;

use proptest::prelude::*;
use webssari::bmc::{CheckOptions, CheckResult, Xbmc};
use webssari::fixes::FixPlan;
use webssari::ir::{is_store_cell, AiCmd, AiProgram, Prelude};
use webssari::lattice::{Lattice, TwoPoint};
use webssari::php::ast::{AssignOp, BinOp, Expr, LValue, Program, Stmt};
use webssari::php::{parse_source, print_program, Span};
use webssari::{instrument_bmc, Verifier, VerifierBuilder};

/// Random small expressions over a fixed variable pool, weighted toward
/// the idioms web code uses.
fn expr_strategy() -> impl Strategy<Value = Expr> {
    let var_name = prop_oneof![
        Just("a".to_owned()),
        Just("b".to_owned()),
        Just("c".to_owned()),
        Just("q".to_owned()),
    ];
    let leaf = prop_oneof![
        var_name.clone().prop_map(Expr::Var),
        any::<i64>().prop_map(|n| Expr::IntLit(n % 1000)),
        Just(Expr::StringLit(vec![webssari::php::ast::StrPart::Lit(
            "text".into()
        )])),
        var_name.clone().prop_map(|v| Expr::ArrayAccess {
            base: Box::new(Expr::Var("_GET".into())),
            index: Some(Box::new(Expr::StringLit(vec![
                webssari::php::ast::StrPart::Lit(v)
            ]))),
        }),
        var_name.clone().prop_map(|v| Expr::Call {
            name: "htmlspecialchars".into(),
            args: vec![Expr::Var(v)],
            suppressed: false,
            span: Span::default(),
        }),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::Binary {
                op: BinOp::Concat,
                left: Box::new(l),
                right: Box::new(r),
            }),
            (inner.clone(), inner).prop_map(|(l, r)| Expr::Binary {
                op: BinOp::Add,
                left: Box::new(l),
                right: Box::new(r),
            }),
        ]
    })
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    let target = prop_oneof![
        Just("a".to_owned()),
        Just("b".to_owned()),
        Just("c".to_owned()),
    ];
    let assign = (target, expr_strategy()).prop_map(|(t, e)| {
        Stmt::Expr(
            Expr::Assign {
                target: LValue::Var(t),
                op: AssignOp::Assign,
                value: Box::new(e),
                span: Span::default(),
            },
            Span::default(),
        )
    });
    let echo = expr_strategy().prop_map(|e| Stmt::Echo(vec![e], Span::default()));
    let sink = expr_strategy().prop_map(|e| {
        Stmt::Expr(
            Expr::Call {
                name: "mysql_query".into(),
                args: vec![e],
                suppressed: false,
                span: Span::default(),
            },
            Span::default(),
        )
    });
    let leaf = prop_oneof![4 => assign, 2 => echo, 1 => sink];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            (
                expr_strategy(),
                prop::collection::vec(inner.clone(), 1..3),
                prop::collection::vec(inner.clone(), 0..2)
            )
                .prop_map(|(c, t, e)| Stmt::If {
                    cond: c,
                    then_branch: t,
                    elseifs: vec![],
                    else_branch: if e.is_empty() { None } else { Some(e) },
                    span: Span::default(),
                }),
            (expr_strategy(), prop::collection::vec(inner, 1..3)).prop_map(|(c, b)| {
                Stmt::While {
                    cond: c,
                    body: b,
                    span: Span::default(),
                }
            }),
        ]
    })
}

fn program_strategy() -> impl Strategy<Value = Program> {
    prop::collection::vec(stmt_strategy(), 1..10).prop_map(|stmts| Program { stmts })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Printing a random AST and parsing it back yields a program the
    /// verifier treats identically (same verdicts).
    #[test]
    fn printer_round_trip_preserves_verdicts(program in program_strategy()) {
        let src = print_program(&program);
        let reparsed = parse_source(&src).expect("printed programs parse");
        prop_assert_eq!(program.num_statements(), reparsed.num_statements());
        let verifier = Verifier::new();
        let report = verifier.verify_source(&src, "p.php").unwrap();
        // Verify again from the reparsed print (idempotent printing).
        let src2 = print_program(&reparsed);
        let report2 = verifier.verify_source(&src2, "p.php").unwrap();
        prop_assert_eq!(report.ts_instrumentations(), report2.ts_instrumentations());
        prop_assert_eq!(report.bmc_instrumentations(), report2.bmc_instrumentations());
    }

    /// TS and BMC agree on which statements are vulnerable (they differ
    /// in grouping, not verdicts), and the counterexample count bounds.
    #[test]
    fn ts_and_bmc_flag_the_same_statements(program in program_strategy()) {
        let src = print_program(&program);
        let report = Verifier::new().verify_source(&src, "p.php").unwrap();
        let ts_ids: Vec<u32> = report.ts.errors.iter().map(|e| e.assert_id.0).collect();
        let mut bmc_ids: Vec<u32> = report
            .bmc
            .counterexamples
            .iter()
            .map(|c| c.assert_id.0)
            .collect();
        bmc_ids.dedup();
        prop_assert_eq!(ts_ids, bmc_ids);
        prop_assert_eq!(report.bmc.violated_assertions, report.ts.errors.len());
    }

    /// Applying the BMC patch always yields a file that verifies clean.
    #[test]
    fn computed_patches_are_effective(program in program_strategy()) {
        let src = print_program(&program);
        let verifier = Verifier::new();
        let report = verifier.verify_source(&src, "p.php").unwrap();
        prop_assume!(!report.is_safe());
        // Guard lines must be insertable (non-synthetic introductions
        // exist or channel guards are used).
        let (patched, guards) = instrument_bmc(&src, &report);
        prop_assert!(!guards.is_empty());
        let after = verifier.verify_source(&patched, "p.php").unwrap();
        prop_assert!(after.is_safe(), "patched:\n{patched}");
    }

    /// The fixing set never exceeds the naive set, and both cover all
    /// constraints (Lemma 2's premise).
    #[test]
    fn fixing_set_is_no_larger_than_naive(program in program_strategy()) {
        let src = print_program(&program);
        let report = Verifier::new().verify_source(&src, "p.php").unwrap();
        prop_assert!(report.fix_plan.num_patches() <= report.fix_plan.num_naive().max(report.fix_plan.num_patches()));
        if report.bmc.counterexamples.is_empty() {
            prop_assert_eq!(report.fix_plan.num_patches(), 0);
        } else {
            prop_assert!(report.fix_plan.num_patches() >= 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The whole pipeline is total: arbitrary input either verifies or
    /// returns a parse error — it never panics.
    #[test]
    fn verifier_never_panics_on_arbitrary_input(input in ".{0,160}") {
        let _ = Verifier::new().verify_source(&input, "fuzz.php");
    }

    /// Ditto for PHP-shaped token soup, which gets much deeper into the
    /// parser and filter.
    #[test]
    fn verifier_never_panics_on_php_soup(
        tokens in prop::collection::vec(
            prop_oneof![
                Just("<?php".to_owned()), Just("$x".to_owned()), Just("$_GET['a']".to_owned()),
                Just("=".to_owned()), Just("echo".to_owned()), Just("if".to_owned()),
                Just("(".to_owned()), Just(")".to_owned()), Just("{".to_owned()),
                Just("}".to_owned()), Just(";".to_owned()), Just("mysql_query".to_owned()),
                Just("htmlspecialchars".to_owned()), Just("while".to_owned()),
                Just("function".to_owned()), Just("f".to_owned()), Just(".".to_owned()),
                Just("\"s $v\"".to_owned()), Just("foreach".to_owned()), Just("as".to_owned()),
            ],
            0..30,
        )
    ) {
        let src = tokens.join(" ");
        if let Ok(report) = Verifier::new().verify_source(&src, "soup.php") {
            // Whatever parses must round-trip through the report
            // renderer and the instrumentor without panicking either.
            let _ = report.render_text();
            let _ = instrument_bmc(&src, &report);
        }
    }
}

/// The two-stage screened check on a report's AI, as the verifier ran
/// it before the TS gate: typestate, static discharge and flow
/// re-attribution, BMC over the refined slice, the discharged count
/// merged back, traces re-replayed on the full program. Returns the
/// result with the fix plan the verifier derives from it.
fn screened_pipeline(
    ai: &AiProgram,
    prelude: &Prelude,
    lattice: &impl Lattice,
) -> (CheckResult, FixPlan) {
    let ts = webssari::ts::analyze(ai, lattice);
    let flow = webssari::analysis::screen_two_stage(ai, &ts, lattice);
    let mut bmc = if flow.screen.all_discharged() {
        CheckResult::default()
    } else {
        Xbmc::with_options(&flow.refined, CheckOptions::default()).check_all_with(lattice)
    };
    bmc.checked_assertions += flow.screen.discharged.len();
    for cx in &mut bmc.counterexamples {
        cx.trace = webssari::bmc::replay_trace(ai, &cx.branches, cx.assert_id);
    }
    let channels = ai
        .vars
        .iter()
        .filter(|v| {
            let name = ai.vars.name(*v);
            prelude.is_superglobal(name) || is_store_cell(name)
        })
        .collect();
    let mut plan = webssari::fixes::minimal_fixing_set_with(&bmc.counterexamples, &channels, false);
    let sql: BTreeSet<_> = ai
        .assertions()
        .iter()
        .filter_map(|(c, _)| match c {
            AiCmd::Assert { id, kind, .. } if kind.is_sql_structure() => Some(*id),
            _ => None,
        })
        .collect();
    for root in &plan.fix_vars {
        let asserts = &plan.groups[root];
        if !asserts.is_empty() && asserts.iter().all(|a| sql.contains(a)) {
            plan.parameterize.insert(*root);
        }
    }
    (bmc, plan)
}

/// Checks one verifier's report against [`screened_pipeline`].
fn gate_matches_screening(
    verifier: &Verifier,
    lattice: &impl Lattice,
    src: &str,
) -> Result<(), String> {
    let report = verifier.verify_source(src, "p.php").unwrap();
    let (screened, plan) = screened_pipeline(&report.ai, verifier.prelude(), lattice);
    prop_assert_eq!(&report.bmc.counterexamples, &screened.counterexamples);
    prop_assert_eq!(report.bmc.checked_assertions, screened.checked_assertions);
    prop_assert_eq!(&report.fix_plan, &plan);
    if report.ts.errors.is_empty() {
        prop_assert_eq!(report.bmc.stats.sat_calls, 0);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The TS gate is the screening tiers' verdict without their work:
    /// under both policies the verifier's counterexamples (traces
    /// included), checked assertions and fix plan equal those of the
    /// two-stage screened pipeline, and TS-clean files never reach the
    /// solver.
    #[test]
    fn ts_gate_matches_the_screened_pipeline(program in program_strategy()) {
        let src = print_program(&program);
        gate_matches_screening(&Verifier::new(), &TwoPoint::new(), &src)?;
        let (lattice, _) = Prelude::multiclass();
        gate_matches_screening(&VerifierBuilder::new().multiclass().build(), &lattice, &src)?;
    }
}
