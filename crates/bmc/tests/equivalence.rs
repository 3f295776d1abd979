//! Differential testing of the checker against the frozen pre-refactor
//! solver ([`sat::reference::Solver`]).
//!
//! The solver's data plane was rebuilt (flat clause arena, in-place
//! watcher walk, `add_formula` preprocessing) and the checker now clones
//! one base solver per encoding. This harness re-runs the paper's
//! per-assertion counterexample enumeration (§3.3.2) over the *same*
//! renaming encoding with the old solver and demands identical
//! `CheckResult` counterexample sets — assert id + branch assignment,
//! in the checker's deterministic order — on randomized `AiProgram`s
//! and randomized PHP-derived programs, plus agreement in certify
//! (proof-logging) and budget-interrupt modes.

use std::collections::BTreeSet;

use php_front::parse_source;
use proptest::prelude::*;
use taint_lattice::TwoPoint;
use webssari_ir::{
    abstract_interpret, filter_program, AiCmd, AiProgram, AssertId, AssertKind, BranchId,
    FilterOptions, Prelude, Site, VarId, VarTable,
};
use xbmc::{CheckOptions, CheckResult, Xbmc};

#[path = "../../ir/tests/support/store_php.rs"]
mod store_php;
use store_php::sql_store_php;

/// The checker's counterexample list as comparable data, preserving the
/// checker's deterministic order (assertions in program order, branch
/// assignments sorted within each assertion).
fn key(r: &CheckResult) -> Vec<(u32, Vec<bool>)> {
    r.counterexamples
        .iter()
        .map(|c| (c.assert_id.0, c.branches.clone()))
        .collect()
}

/// Re-implements the renaming-encoding enumeration loop of
/// `Xbmc::check_all` on the frozen pre-refactor solver: one selector
/// variable per assertion scoping its blocking clauses, enumeration to
/// UNSAT per assertion. Returns counterexamples in the same
/// deterministic order the checker reports them.
fn enumerate_with_reference_solver(ai: &AiProgram) -> Vec<(u32, Vec<bool>)> {
    let lattice = TwoPoint::new();
    let enc = xbmc::renaming::encode(ai, &lattice);
    let mut solver = sat::reference::Solver::from_formula(&enc.formula);
    let selector_base = enc.formula.num_vars();
    let mut out = Vec::new();
    for (ai_idx, a) in enc.asserts.iter().enumerate() {
        let selector = cnf::Var::new(selector_base + ai_idx).positive();
        let mut found: BTreeSet<Vec<bool>> = BTreeSet::new();
        loop {
            match solver.solve_with_assumptions(&[selector, a.violated]) {
                sat::SatResult::Sat(model) => {
                    let mut branches = vec![false; ai.num_branches];
                    for b in &a.relevant_branches {
                        branches[b.0 as usize] = model.lit_value(enc.branch_lits[b.0 as usize]);
                    }
                    assert!(found.insert(branches), "duplicate counterexample");
                    let mut blocking: Vec<cnf::Lit> = a
                        .relevant_branches
                        .iter()
                        .map(|b| {
                            let lit = enc.branch_lits[b.0 as usize];
                            if model.lit_value(lit) {
                                !lit
                            } else {
                                lit
                            }
                        })
                        .collect();
                    blocking.push(!selector);
                    solver.add_clause(blocking);
                }
                sat::SatResult::Unsat => break,
                other => panic!("reference enumeration got {other:?} with no budget"),
            }
        }
        out.extend(found.into_iter().map(|b| (a.id.0, b)));
    }
    out
}

/// Order-independent FNV-1a over a counterexample set, used here as the
/// equality oracle for cube expansion.
fn fingerprint(counterexamples: &mut [(u32, Vec<bool>)]) -> u64 {
    counterexamples.sort();
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    };
    for (id, branches) in counterexamples.iter() {
        for b in id.to_le_bytes() {
            eat(b);
        }
        for &bit in branches {
            eat(u8::from(bit));
        }
        eat(0xFF);
    }
    h
}

// ---------------------------------------------------------------------
// Randomized AiPrograms (direct IR generation, as in bmc_props.rs).
// ---------------------------------------------------------------------

const NUM_VARS: usize = 4;

#[derive(Clone, Debug)]
enum Proto {
    Assign {
        var: usize,
        base: bool,
        deps: Vec<usize>,
    },
    Assert {
        vars: Vec<usize>,
    },
    If {
        then_cmds: Vec<Proto>,
        else_cmds: Vec<Proto>,
    },
    Stop,
}

fn proto_strategy() -> impl Strategy<Value = Vec<Proto>> {
    let leaf = prop_oneof![
        (
            0..NUM_VARS,
            any::<bool>(),
            prop::collection::vec(0..NUM_VARS, 0..3)
        )
            .prop_map(|(var, base, deps)| Proto::Assign { var, base, deps }),
        prop::collection::vec(0..NUM_VARS, 1..3).prop_map(|vars| Proto::Assert { vars }),
        Just(Proto::Stop),
    ];
    let cmd = leaf.prop_recursive(3, 16, 4, |inner| {
        (
            prop::collection::vec(inner.clone(), 0..3),
            prop::collection::vec(inner, 0..3),
        )
            .prop_map(|(then_cmds, else_cmds)| Proto::If {
                then_cmds,
                else_cmds,
            })
    });
    prop::collection::vec(cmd, 1..6)
}

fn materialize(protos: &[Proto]) -> AiProgram {
    let mut vars = VarTable::new();
    for i in 0..NUM_VARS {
        vars.intern(&format!("x{i}"));
    }
    let mut next_branch = 0u32;
    let mut next_assert = 0u32;
    let cmds = build(protos, &mut next_branch, &mut next_assert);
    AiProgram::from_parts(vars, cmds, next_branch as usize)
}

fn build(protos: &[Proto], next_branch: &mut u32, next_assert: &mut u32) -> Vec<AiCmd> {
    use taint_lattice::Lattice;
    let l = TwoPoint::new();
    protos
        .iter()
        .map(|p| match p {
            Proto::Assign { var, base, deps } => AiCmd::Assign {
                var: VarId::from_index(*var),
                mask: None,
                base: if *base { l.top() } else { l.bottom() },
                deps: {
                    let mut d: Vec<VarId> = deps.iter().map(|&i| VarId::from_index(i)).collect();
                    d.sort_unstable();
                    d.dedup();
                    d
                },
                site: Site::synthetic("equiv.php", "assign"),
            },
            Proto::Assert { vars } => {
                let id = AssertId(*next_assert);
                *next_assert += 1;
                let mut vs: Vec<VarId> = vars.iter().map(|&i| VarId::from_index(i)).collect();
                vs.sort_unstable();
                vs.dedup();
                AiCmd::Assert {
                    id,
                    vars: vs,
                    bound: l.top(),
                    strict: true,
                    func: "echo".into(),
                    kind: AssertKind::Soc,
                    site: Site::synthetic("equiv.php", "assert"),
                }
            }
            Proto::If {
                then_cmds,
                else_cmds,
            } => {
                let branch = BranchId(*next_branch);
                *next_branch += 1;
                let t = build(then_cmds, next_branch, next_assert);
                let e = build(else_cmds, next_branch, next_assert);
                AiCmd::If {
                    branch,
                    then_cmds: t,
                    else_cmds: e,
                    site: Site::synthetic("equiv.php", "if"),
                }
            }
            Proto::Stop => AiCmd::Stop {
                site: Site::synthetic("equiv.php", "stop"),
            },
        })
        .collect()
}

// ---------------------------------------------------------------------
// Randomized PHP-derived AiPrograms: a seeded generator emits small PHP
// sources which go through the real front end (parse → filter →
// abstract interpretation), exercising encodings with the unit-heavy
// taint constraints real programs produce.
// ---------------------------------------------------------------------

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn random_php(seed: u64) -> String {
    let mut rng = XorShift(seed | 1);
    let mut src = String::from("<?php ");
    let mut depth = 0usize;
    let mut cond = 0usize;
    let stmts = 4 + rng.below(6);
    for _ in 0..stmts {
        let v = rng.below(3);
        match rng.below(8) {
            0 => src.push_str(&format!("$x{v} = $_GET['p{v}'];")),
            1 => src.push_str(&format!("$x{v} = 'lit{v}';")),
            2 => {
                let w = rng.below(3);
                src.push_str(&format!("$x{v} = htmlspecialchars($x{w});"));
            }
            3 => {
                let w = rng.below(3);
                let u = rng.below(3);
                src.push_str(&format!("$x{v} = $x{w} . $x{u};"));
            }
            4 => src.push_str(&format!("echo $x{v};")),
            5 => src.push_str(&format!("mysql_query($x{v});")),
            6 if depth < 2 => {
                src.push_str(&format!("if ($c{cond}) {{ "));
                cond += 1;
                depth += 1;
            }
            _ => {
                if depth > 0 {
                    src.push_str("} ");
                    depth -= 1;
                } else {
                    src.push_str(&format!("$x{v} = intval($x{v});"));
                }
            }
        }
        src.push(' ');
    }
    for _ in 0..depth {
        src.push_str("} ");
    }
    src
}

fn ai_of(src: &str) -> AiProgram {
    let ast = parse_source(src).expect("generated PHP parses");
    let f = filter_program(
        &ast,
        src,
        "equiv.php",
        &Prelude::standard(),
        &FilterOptions::default(),
    );
    abstract_interpret(&f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The incremental checker reports exactly the counterexample set
    /// the pre-refactor solver enumerates on the same encoding, in the
    /// same order.
    #[test]
    fn check_result_matches_reference_enumeration(protos in proto_strategy()) {
        let p = materialize(&protos);
        prop_assume!(p.num_branches <= 8);
        let expected = enumerate_with_reference_solver(&p);
        let incremental = Xbmc::new(&p).check_all();
        prop_assert_eq!(key(&incremental), expected);
        prop_assert!(!incremental.interrupted);
    }

    /// Certify (proof-logging) mode: every assertion the arena-based
    /// checker proves safe gets a certificate that checks, and the
    /// reference enumeration agrees those assertions have no
    /// counterexamples.
    #[test]
    fn certificates_agree_with_reference(protos in proto_strategy()) {
        let p = materialize(&protos);
        prop_assume!(p.num_branches <= 6);
        let r = Xbmc::with_options(
            &p,
            CheckOptions { certify: true, ..CheckOptions::default() },
        )
        .check_all();
        let violated: BTreeSet<u32> =
            r.counterexamples.iter().map(|c| c.assert_id.0).collect();
        prop_assert_eq!(
            r.certificates.len() + violated.len(),
            r.checked_assertions
        );
        prop_assert_eq!(r.verify_certificates().unwrap(), r.certificates.len());
        let reference_violated: BTreeSet<u32> = enumerate_with_reference_solver(&p)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        prop_assert_eq!(violated, reference_violated);
    }

    /// Budget-interrupt mode: a budgeted check either completes with
    /// the exact reference result or flags interruption, and whatever
    /// it gathered is a prefix-consistent subset of the full set.
    #[test]
    fn budgeted_check_is_sound(protos in proto_strategy(), max_conflicts in 0u64..5) {
        let p = materialize(&protos);
        prop_assume!(p.num_branches <= 6);
        let expected: BTreeSet<(u32, Vec<bool>)> =
            enumerate_with_reference_solver(&p).into_iter().collect();
        let r = Xbmc::with_options(
            &p,
            CheckOptions {
                budget: Some(sat::Budget::new().max_conflicts(max_conflicts)),
                ..CheckOptions::default()
            },
        )
        .check_all();
        let got: BTreeSet<(u32, Vec<bool>)> = key(&r).into_iter().collect();
        if r.interrupted {
            prop_assert!(got.is_subset(&expected));
        } else {
            prop_assert_eq!(got, expected);
        }
    }
}

// ---------------------------------------------------------------------
// Cube-generalized enumeration: the checker shrinks each model to a
// minimal implicant over the branch variables, blocks the cube, and
// expands it back to full assignments at report time. These tests pin
// the expansion to the per-model reference enumeration on the program
// family where generalization bites hardest (branchy taint chains) and
// on cap hits, where expanded assignments must count against `max_cx`
// exactly as individually-enumerated models did.
// ---------------------------------------------------------------------

/// A branchy taint chain through the real front end: `k` independent
/// branches, each either concatenating a tainted source (op 0), masking
/// with a sanitizer (op 1), or assigning a harmless literal (op 2), so
/// the violating set varies with the op pattern instead of always being
/// "any branch taken".
fn branchy_php(ops: &[u8]) -> String {
    let mut src = String::from("<?php $x = 'safe'; ");
    for (i, op) in ops.iter().enumerate() {
        let body = match op % 3 {
            0 => format!("$x = $x . $_GET['p{i}'];"),
            1 => "$x = htmlspecialchars($x);".to_string(),
            _ => format!("$x = 'lit{i}';"),
        };
        src.push_str(&format!("if ($c{i}) {{ {body} }} "));
    }
    src.push_str("echo $x;");
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Cube expansion reproduces the reference solver's exact
    /// counterexample set — same FNV fingerprint, and the same list
    /// element-for-element — across random
    /// branchy programs, and the generalization is not vacuous on pure
    /// taint chains.
    #[test]
    fn branchy_cube_expansion_matches_reference(ops in prop::collection::vec(0u8..3, 1..9)) {
        let p = ai_of(&branchy_php(&ops));
        let mut expected = enumerate_with_reference_solver(&p);
        let r = Xbmc::new(&p).check_all();
        let mut got = key(&r);
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(fingerprint(&mut got), fingerprint(&mut expected));
        // Every reported counterexample came from a cube expansion.
        prop_assert_eq!(r.stats.cube_assignments, got.len() as u64);
        prop_assert!(r.stats.cubes_learned <= r.stats.sat_calls as u64);
    }

    /// Cube enumeration on one solver shared by every assertion (each
    /// assertion's blocking clauses guarded by its own selector
    /// literal): shrinking each model to a minimal implicant, blocking
    /// the cube, and expanding it back must reproduce the reference
    /// solver's exact counterexample set while blocking clauses from
    /// earlier assertions stay in the database.
    #[test]
    fn cube_enumeration_on_a_shared_solver_matches_reference(
        ops in prop::collection::vec(0u8..3, 1..9),
    ) {
        let p = ai_of(&branchy_php(&ops));
        let mut expected = enumerate_with_reference_solver(&p);

        let lattice = TwoPoint::new();
        let enc = xbmc::renaming::encode(&p, &lattice);
        let mut solver = sat::Solver::from_formula(&enc.formula);
        let selector_base = enc.formula.num_vars();
        let mut got: Vec<(u32, Vec<bool>)> = Vec::new();
        for (ai_idx, a) in enc.asserts.iter().enumerate() {
            let selector = cnf::Var::new(selector_base + ai_idx).positive();
            let mut seen: BTreeSet<Vec<bool>> = BTreeSet::new();
            loop {
                match solver.solve_with_assumptions(&[selector, a.violated]) {
                    sat::SatResult::Sat(model) => {
                        let model_cube: Vec<cnf::Lit> = a
                            .relevant_branches
                            .iter()
                            .map(|b| {
                                let lit = enc.branch_lits[b.0 as usize];
                                if model.lit_value(lit) { lit } else { !lit }
                            })
                            .collect();
                        let cube = solver.shrink_cube(&model_cube, a.violated);
                        let mut fixed: Vec<(usize, bool)> = Vec::new();
                        let mut free: Vec<usize> = Vec::new();
                        for b in &a.relevant_branches {
                            let idx = b.0 as usize;
                            let lit = enc.branch_lits[idx];
                            match cube.iter().find(|l| l.var() == lit.var()) {
                                Some(&l) => fixed.push((idx, l == lit)),
                                None => free.push(idx),
                            }
                        }
                        let width = free.len();
                        for m in 0..1u64 << width {
                            let mut branches = vec![false; p.num_branches];
                            for &(idx, v) in &fixed {
                                branches[idx] = v;
                            }
                            for (i, &idx) in free.iter().enumerate() {
                                branches[idx] = m >> (width - 1 - i) & 1 == 1;
                            }
                            seen.insert(branches);
                        }
                        let mut blocking: Vec<cnf::Lit> =
                            cube.iter().map(|&l| !l).collect();
                        blocking.push(!selector);
                        solver.add_clause(blocking);
                    }
                    sat::SatResult::Unsat => break,
                    other => panic!("cube enumeration got {other:?} with no budget"),
                }
            }
            got.extend(seen.into_iter().map(|b| (a.id.0, b)));
        }
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(fingerprint(&mut got), fingerprint(&mut expected));
    }

    /// `max_cx` cap hits over cubes: expanded assignments count against
    /// the cap exactly as individually-enumerated models did — the
    /// capped result is a subset of the uncapped set of exactly
    /// `min(cap, total)` per assertion, and the truncation counter
    /// fires for precisely the assertions whose set met the cap.
    #[test]
    fn capped_check_counts_expanded_assignments(
        protos in proto_strategy(),
        cap in 1usize..6,
    ) {
        let p = materialize(&protos);
        prop_assume!(p.num_branches <= 8);
        let expected = enumerate_with_reference_solver(&p);
        let r = Xbmc::with_options(
            &p,
            CheckOptions { max_counterexamples_per_assert: cap, ..CheckOptions::default() },
        )
        .check_all();
        let mut expected_by_assert: std::collections::BTreeMap<u32, BTreeSet<Vec<bool>>> =
            std::collections::BTreeMap::new();
        for (id, branches) in expected {
            expected_by_assert.entry(id).or_default().insert(branches);
        }
        let mut got_by_assert: std::collections::BTreeMap<u32, BTreeSet<Vec<bool>>> =
            std::collections::BTreeMap::new();
        for (id, branches) in key(&r) {
            prop_assert!(
                got_by_assert.entry(id).or_default().insert(branches),
                "capped checker reported a duplicate"
            );
        }
        let mut want_truncated = 0usize;
        for (id, want) in &expected_by_assert {
            let got = got_by_assert.get(id).map(BTreeSet::len).unwrap_or(0);
            prop_assert_eq!(got, want.len().min(cap));
            if want.len() >= cap {
                want_truncated += 1;
            }
            if let Some(g) = got_by_assert.get(id) {
                prop_assert!(g.is_subset(want));
            }
        }
        for id in got_by_assert.keys() {
            prop_assert!(expected_by_assert.contains_key(id), "spurious assert {}", id);
        }
        prop_assert_eq!(r.stats.truncated_assertions, want_truncated);
        prop_assert_eq!(r.stats.cube_assignments, r.counterexamples.len() as u64);
    }
}

// ---------------------------------------------------------------------
// Screening equivalence: the static screening tier (typestate discharge
// plus cone-of-influence slicing, `webssari-analysis`) must be
// observationally invisible — identical verdicts, counterexample sets,
// traces, and fix plans, with screening on or off, under full and
// budgeted checks alike.
// ---------------------------------------------------------------------

/// Replicates the tiered check the core verifier runs when screening is
/// on: typestate, static discharge, BMC over the slice, counter merge,
/// and trace re-replay against the full program.
fn screened_check(ai: &AiProgram, options: CheckOptions) -> CheckResult {
    let lattice = TwoPoint::new();
    let ts = typestate::analyze(ai, &lattice);
    let screened = webssari_analysis::screen(ai, &ts, &lattice);
    let discharged = screened.discharged.len();
    let mut result = if screened.all_discharged() {
        CheckResult::default()
    } else {
        Xbmc::with_options(&screened.sliced, options).check_all()
    };
    result.checked_assertions += discharged;
    for cx in &mut result.counterexamples {
        cx.trace = xbmc::replay_trace(ai, &cx.branches, cx.assert_id);
    }
    result
}

/// Replicates the two-stage tiered check the core verifier runs when
/// the flow tier is on: typestate, static discharge, sparse
/// flow-sensitive re-attribution, BMC over the *refined* (dead-defs
/// dropped, constants folded) slice, counter merge, and trace re-replay
/// against the full program.
fn screened_check_flow(ai: &AiProgram, options: CheckOptions) -> CheckResult {
    let lattice = TwoPoint::new();
    let ts = typestate::analyze(ai, &lattice);
    let flow = webssari_analysis::screen_two_stage(ai, &ts, &lattice);
    let discharged = flow.screen.discharged.len();
    let mut result = if flow.screen.all_discharged() {
        CheckResult::default()
    } else {
        Xbmc::with_options(&flow.refined, options).check_all()
    };
    result.checked_assertions += discharged;
    for cx in &mut result.counterexamples {
        cx.trace = xbmc::replay_trace(ai, &cx.branches, cx.assert_id);
    }
    result
}

/// Channel variables (superglobals and synthetic cross-request store
/// cells) under the standard prelude, as the core verifier computes
/// them before planning fixes.
fn channels(ai: &AiProgram) -> BTreeSet<VarId> {
    let prelude = Prelude::standard();
    ai.vars
        .iter()
        .filter(|v| {
            let name = ai.vars.name(*v);
            prelude.is_superglobal(name) || webssari_ir::is_store_cell(name)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Screening on randomized IR programs: identical counterexamples
    /// (ids, branch assignments, and re-replayed traces), identical
    /// checked/violated counts, and identical minimal fixing sets.
    #[test]
    fn screening_is_observationally_invisible(protos in proto_strategy()) {
        let p = materialize(&protos);
        prop_assume!(p.num_branches <= 8);
        let full = Xbmc::new(&p).check_all();
        let screened = screened_check(&p, CheckOptions::default());
        prop_assert_eq!(&screened.counterexamples, &full.counterexamples);
        prop_assert_eq!(screened.checked_assertions, full.checked_assertions);
        prop_assert_eq!(screened.violated_assertions, full.violated_assertions);
        prop_assert!(!screened.interrupted);
        let chans = channels(&p);
        prop_assert_eq!(
            fixes::minimal_fixing_set_with(&screened.counterexamples, &chans, false),
            fixes::minimal_fixing_set_with(&full.counterexamples, &chans, false)
        );
    }

    /// Budget-interrupt mode under screening: a budgeted screened check
    /// either completes with exactly the unscreened counterexample set
    /// or flags interruption and reports a subset of it. Discharged
    /// assertions never consume budget, so screening can only complete
    /// *more* often — never report something the full check would not.
    #[test]
    fn budgeted_screening_is_sound(protos in proto_strategy(), max_conflicts in 0u64..5) {
        let p = materialize(&protos);
        prop_assume!(p.num_branches <= 6);
        let expected: BTreeSet<(u32, Vec<bool>)> =
            key(&Xbmc::new(&p).check_all()).into_iter().collect();
        let r = screened_check(
            &p,
            CheckOptions {
                budget: Some(sat::Budget::new().max_conflicts(max_conflicts)),
                ..CheckOptions::default()
            },
        );
        let got: BTreeSet<(u32, Vec<bool>)> = key(&r).into_iter().collect();
        if r.interrupted {
            prop_assert!(got.is_subset(&expected));
        } else {
            prop_assert_eq!(got, expected);
        }
    }
}

// ---------------------------------------------------------------------
// Flow-tier equivalence: the sparse flow-sensitive tier (pruned SSA,
// dead-definition elimination, constant folding, flow-clean
// re-attribution) must be exactly as invisible as cone screening —
// identical counterexamples, traces, counts, and fix plans against both
// the unscreened check and the cone-only screened check, under full and
// budgeted checks alike. SSA well-formedness is validated on every
// generated program.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Flow tier on randomized IR programs: the refined program's
    /// verdicts, counterexample sets (with re-replayed traces), counts,
    /// and minimal fixing sets are bit-identical to the unscreened and
    /// cone-only pipelines.
    #[test]
    fn flow_tier_is_observationally_invisible(protos in proto_strategy()) {
        let p = materialize(&protos);
        prop_assume!(p.num_branches <= 8);
        let full = Xbmc::new(&p).check_all();
        let cone_only = screened_check(&p, CheckOptions::default());
        let flowed = screened_check_flow(&p, CheckOptions::default());
        prop_assert_eq!(&flowed.counterexamples, &full.counterexamples);
        prop_assert_eq!(&flowed.counterexamples, &cone_only.counterexamples);
        prop_assert_eq!(flowed.checked_assertions, full.checked_assertions);
        prop_assert_eq!(flowed.violated_assertions, full.violated_assertions);
        prop_assert!(!flowed.interrupted);
        let chans = channels(&p);
        prop_assert_eq!(
            fixes::minimal_fixing_set_with(&flowed.counterexamples, &chans, false),
            fixes::minimal_fixing_set_with(&full.counterexamples, &chans, false)
        );
    }

    /// Budget-interrupt mode under the flow tier: a budgeted flow-tier
    /// check either completes with exactly the unscreened set or flags
    /// interruption and reports a subset of it — dead-def elimination
    /// can only shrink the CNF, never invent counterexamples.
    #[test]
    fn budgeted_flow_tier_is_sound(protos in proto_strategy(), max_conflicts in 0u64..5) {
        let p = materialize(&protos);
        prop_assume!(p.num_branches <= 6);
        let expected: BTreeSet<(u32, Vec<bool>)> =
            key(&Xbmc::new(&p).check_all()).into_iter().collect();
        let r = screened_check_flow(
            &p,
            CheckOptions {
                budget: Some(sat::Budget::new().max_conflicts(max_conflicts)),
                ..CheckOptions::default()
            },
        );
        let got: BTreeSet<(u32, Vec<bool>)> = key(&r).into_iter().collect();
        if r.interrupted {
            prop_assert!(got.is_subset(&expected));
        } else {
            prop_assert_eq!(got, expected);
        }
    }

    /// Pruned SSA construction is well-formed on every randomized IR
    /// program: defs dominate uses, φ arity matches predecessors, one
    /// entry definition per variable.
    #[test]
    fn ssa_is_well_formed_on_random_programs(protos in proto_strategy()) {
        let p = materialize(&protos);
        let ssa = webssari_dataflow::SsaProgram::build(&p);
        prop_assert!(ssa.validate().is_ok(), "{:?}", ssa.validate());
    }

    /// Flow tier over the SQL-structured / store-chained family:
    /// reports and fix plans stay bit-identical, and plans never root
    /// at a synthetic store cell.
    #[test]
    fn flow_tier_is_invisible_on_sql_store_programs(ops in prop::collection::vec(0u8..6, 1..8)) {
        let p = ai_of(&sql_store_php(&ops));
        let full = Xbmc::new(&p).check_all();
        let flowed = screened_check_flow(&p, CheckOptions::default());
        prop_assert_eq!(&flowed.counterexamples, &full.counterexamples);
        prop_assert_eq!(flowed.checked_assertions, full.checked_assertions);
        prop_assert_eq!(flowed.violated_assertions, full.violated_assertions);
        let chans = channels(&p);
        let plan_full = fixes::minimal_fixing_set_with(&full.counterexamples, &chans, false);
        let plan_flow =
            fixes::minimal_fixing_set_with(&flowed.counterexamples, &chans, false);
        prop_assert_eq!(&plan_flow, &plan_full);
        for v in &plan_full.fix_vars {
            prop_assert!(
                !webssari_ir::is_store_cell(p.vars.name(*v)),
                "fix plan rooted at synthetic store cell {}",
                p.vars.name(*v)
            );
        }
    }
}

/// PHP-derived flow-tier equivalence with a vacuity guard: SSA must
/// validate on every seed, reports and fix plans must be bit-identical
/// with the flow tier on, and across the corpus the tier must place a
/// nonzero number of φs (otherwise the sparse analysis never exercised
/// a merge and this harness proves nothing).
#[test]
fn php_derived_flow_tier_preserves_reports() {
    let lattice = TwoPoint::new();
    let mut total_phis = 0usize;
    let mut total_refined = 0usize;
    let mut total_asserts = 0usize;
    for seed in 1..=40u64 {
        let src = random_php(seed.wrapping_mul(0xD1B54A32D192ED03));
        let p = ai_of(&src);
        if p.num_assertions() == 0 {
            continue;
        }
        total_asserts += p.num_assertions();
        let ssa = webssari_dataflow::SsaProgram::build(&p);
        assert!(ssa.validate().is_ok(), "seed {seed}: {:?}", ssa.validate());
        total_phis += ssa.num_phis;
        let ts = typestate::analyze(&p, &lattice);
        let flow = webssari_analysis::screen_two_stage(&p, &ts, &lattice);
        total_refined += (flow.dead_defs_dropped + flow.consts_folded) as usize;
        let full = Xbmc::new(&p).check_all();
        let flowed = screened_check_flow(&p, CheckOptions::default());
        assert_eq!(
            flowed.counterexamples, full.counterexamples,
            "seed {seed}: {src}"
        );
        assert_eq!(
            flowed.checked_assertions, full.checked_assertions,
            "seed {seed}: {src}"
        );
        let chans = channels(&p);
        assert_eq!(
            fixes::minimal_fixing_set_with(&flowed.counterexamples, &chans, false),
            fixes::minimal_fixing_set_with(&full.counterexamples, &chans, false),
            "seed {seed}: fix plans must agree: {src}"
        );
    }
    assert!(total_asserts > 0, "corpus generated no assertions");
    assert!(
        total_phis > 0,
        "corpus placed no φs across {total_asserts} assertions — flow tier untested"
    );
    // The refinement counters are informational; log-style guard only,
    // since dead defs depend on kill patterns the generator may miss.
    let _ = total_refined;
}

/// PHP-derived programs: screening must preserve counterexamples,
/// traces, and fix plans on every seed, and across the corpus the
/// screening tier must actually discharge a nonzero number of
/// assertions (otherwise the tier is vacuous and this harness proves
/// nothing).
#[test]
fn php_derived_screening_preserves_reports() {
    let lattice = TwoPoint::new();
    let mut total_discharged = 0usize;
    let mut total_asserts = 0usize;
    for seed in 1..=40u64 {
        let src = random_php(seed.wrapping_mul(0x2545F4914F6CDD1D));
        let p = ai_of(&src);
        if p.num_assertions() == 0 {
            continue;
        }
        total_asserts += p.num_assertions();
        let ts = typestate::analyze(&p, &lattice);
        total_discharged += webssari_analysis::screen(&p, &ts, &lattice)
            .discharged
            .len();
        let full = Xbmc::new(&p).check_all();
        let screened = screened_check(&p, CheckOptions::default());
        assert_eq!(
            screened.counterexamples, full.counterexamples,
            "seed {seed}: {src}"
        );
        assert_eq!(
            screened.checked_assertions, full.checked_assertions,
            "seed {seed}: {src}"
        );
        let chans = channels(&p);
        assert_eq!(
            fixes::minimal_fixing_set_with(&screened.counterexamples, &chans, false),
            fixes::minimal_fixing_set_with(&full.counterexamples, &chans, false),
            "seed {seed}: fix plans must agree: {src}"
        );
    }
    assert!(total_asserts > 0, "corpus generated no assertions");
    assert!(
        total_discharged > 0,
        "screening discharged nothing across {total_asserts} assertions"
    );
}

// ---------------------------------------------------------------------
// SQL-structured and store-chained programs (the second-order store
// model): screening must stay observationally invisible when assertions
// carry `SqlStructure` kinds and when counterexample traces pass
// through synthetic store cells, and fix plans must be stable and
// rooted at real program variables — never at a store cell.
// ---------------------------------------------------------------------

/// One writer/reader pair over the same table, lowered the way the core
/// verifier's two-pass flow does it: pass 1 summarizes the writer's
/// store writes (filtered with an *empty* summary), pass 2 lowers the
/// reader against that summary. Returns the reader's `AiProgram`.
fn reader_with_store_summary(writer: &str, reader: &str) -> AiProgram {
    use webssari_ir::{filter_program_with_stores, StoreSummary};
    let prelude = Prelude::standard();
    let options = FilterOptions::default();
    let lattice = TwoPoint::new();

    let mut summary = StoreSummary::new();
    let ast = parse_source(writer).expect("writer parses");
    let f = filter_program(&ast, writer, "writer.php", &prelude, &options);
    let ai = abstract_interpret(&f);
    let state = typestate::final_state(&ai, &lattice);
    for w in &f.store_writes {
        summary.record(&w.key, state[w.var.index()], &w.site.to_string(), &lattice);
    }

    let ast = parse_source(reader).expect("reader parses");
    let f = filter_program_with_stores(
        &ast,
        reader,
        "reader.php",
        &prelude,
        &options,
        &summary,
        &lattice,
    );
    abstract_interpret(&f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// SQL-structured programs through the real front end: identical
    /// counterexamples, counts, and fix plans with screening on or off,
    /// and the plan never roots at a synthetic store cell.
    #[test]
    fn sql_structured_screening_is_invisible(ops in prop::collection::vec(0u8..6, 1..8)) {
        let p = ai_of(&sql_store_php(&ops));
        let full = Xbmc::new(&p).check_all();
        let screened = screened_check(&p, CheckOptions::default());
        prop_assert_eq!(&screened.counterexamples, &full.counterexamples);
        prop_assert_eq!(screened.checked_assertions, full.checked_assertions);
        prop_assert_eq!(screened.violated_assertions, full.violated_assertions);
        let chans = channels(&p);
        let plan_full = fixes::minimal_fixing_set_with(&full.counterexamples, &chans, false);
        let plan_screened =
            fixes::minimal_fixing_set_with(&screened.counterexamples, &chans, false);
        prop_assert_eq!(&plan_screened, &plan_full);
        for v in &plan_full.fix_vars {
            prop_assert!(
                !webssari_ir::is_store_cell(p.vars.name(*v)),
                "fix plan rooted at synthetic store cell {}",
                p.vars.name(*v)
            );
        }
    }

    /// Store-chained two-file programs: the reader violates exactly when
    /// the writer concatenated taint into the shared table (a tainted
    /// parameterized write or a literal write keeps the reader clean),
    /// the report is bit-identical with and without screening, and the
    /// fix plan is stable across repeated runs.
    #[test]
    fn store_chained_reports_are_bit_identical(write_op in 0u8..3, sanitized in any::<bool>()) {
        let writer = store_php::MSGS_WRITERS[write_op as usize];
        let reader = store_php::MSGS_READERS[usize::from(sanitized)];
        let p = reader_with_store_summary(writer, reader);
        let full = Xbmc::new(&p).check_all();
        let screened = screened_check(&p, CheckOptions::default());
        prop_assert_eq!(&screened.counterexamples, &full.counterexamples);
        prop_assert_eq!(screened.checked_assertions, full.checked_assertions);
        // Second-order semantics: only the tainted *concatenating*
        // write makes the unsanitized read vulnerable.
        let expect_violation = write_op == 0 && !sanitized;
        prop_assert_eq!(
            !full.counterexamples.is_empty(),
            expect_violation,
            "writer {:?} sanitized {:?}",
            write_op,
            sanitized
        );
        let chans = channels(&p);
        let plan_a = fixes::minimal_fixing_set_with(&full.counterexamples, &chans, false);
        let plan_b = fixes::minimal_fixing_set_with(&screened.counterexamples, &chans, false);
        prop_assert_eq!(&plan_a, &plan_b);
        for v in &plan_a.fix_vars {
            prop_assert!(!webssari_ir::is_store_cell(p.vars.name(*v)));
        }
    }
}

/// The SQL/store generator is not vacuous: across its op space it emits
/// SQL-structured assertions and synthetic store cells (otherwise the
/// two proptests above prove nothing about the new kinds).
#[test]
fn sql_store_generator_covers_the_new_shapes() {
    let mut sql_asserts = 0usize;
    let mut store_cells = 0usize;
    for ops in [[0u8, 1, 2, 3, 4, 5], [2, 2, 0, 5, 1, 3]] {
        let p = ai_of(&sql_store_php(&ops));
        sql_asserts += p
            .assertions()
            .iter()
            .filter(|(cmd, _)| matches!(cmd, AiCmd::Assert { kind, .. } if kind.is_sql_structure()))
            .count();
        store_cells += p
            .vars
            .iter()
            .filter(|v| webssari_ir::is_store_cell(p.vars.name(*v)))
            .count();
    }
    assert!(sql_asserts > 0, "no SqlStructure assertions generated");
    assert!(store_cells > 0, "no store cells generated");
}

/// PHP-derived programs through the real front end: the checker on the
/// arena solver and the reference-solver enumeration must agree on
/// every seed, with certification off and on.
#[test]
fn php_derived_programs_match_reference() {
    for seed in 1..=40u64 {
        let src = random_php(seed.wrapping_mul(0x9E3779B97F4A7C15));
        let p = ai_of(&src);
        if p.num_assertions() == 0 {
            continue;
        }
        let expected = enumerate_with_reference_solver(&p);
        let incremental = Xbmc::new(&p).check_all();
        assert_eq!(key(&incremental), expected, "seed {seed}: {src}");
        let certified = Xbmc::with_options(
            &p,
            CheckOptions {
                certify: true,
                ..CheckOptions::default()
            },
        )
        .check_all();
        assert_eq!(key(&certified), expected, "seed {seed} (certify): {src}");
        assert_eq!(
            certified.verify_certificates().unwrap(),
            certified.certificates.len(),
            "seed {seed}: certificates must check"
        );
    }
}
