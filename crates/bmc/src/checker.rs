use std::collections::HashSet;
use std::sync::Arc;

use sat::{ProofStep, SatResult, Solver};
use taint_lattice::{Lattice, TwoPoint};
use webssari_ir::AiProgram;

use crate::aux_encoding;
use crate::renaming;
use crate::trace::{path_violating_vars, replay_trace, Counterexample};

/// Which encoding the checker uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EncoderKind {
    /// xBMC 1.0 — variable renaming (§3.3.2). The default.
    #[default]
    Renaming,
    /// xBMC 0.1 — auxiliary location variable (§3.3.1). Ablation only:
    /// it reports one counterexample per violated assertion instead of
    /// enumerating all of them.
    AuxVariable,
}

/// Options for [`Xbmc`].
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Encoding to use.
    pub encoder: EncoderKind,
    /// Build a fresh solver per assertion (the paper's formulation of
    /// `Bᵢ`) instead of reusing one incremental solver. Semantically
    /// identical; the incremental mode is faster and is the default.
    pub fresh_solver_per_assert: bool,
    /// Upper bound on enumerated counterexamples per assertion; the
    /// result notes when an assertion was truncated.
    pub max_counterexamples_per_assert: usize,
    /// When set, every assertion that *holds* is certified: the solver
    /// emits a DRAT refutation of `Bᵢ = C(c, g) ∧ ¬assertᵢ`, checkable
    /// with [`sat::Proof::verify_refutation`] against
    /// [`CheckResult::certified_formula`]. "Soundness guarantees the
    /// absence of bugs" — with a machine-checkable witness.
    pub certify: bool,
    /// Cooperative work bound installed on every solver this check
    /// creates. When a solve is interrupted mid-search the check stops
    /// early with [`CheckResult::interrupted`] set; results gathered so
    /// far are kept but are incomplete.
    pub budget: Option<sat::Budget>,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            encoder: EncoderKind::Renaming,
            fresh_solver_per_assert: false,
            max_counterexamples_per_assert: 1024,
            certify: false,
            budget: None,
        }
    }
}

/// Work counters for one verification run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct XbmcStats {
    /// CNF variables in the encoded program.
    pub cnf_vars: usize,
    /// CNF clauses in the encoded program.
    pub cnf_clauses: usize,
    /// SAT solver invocations.
    pub sat_calls: usize,
    /// Assertions whose enumeration hit the per-assert cap.
    pub truncated_assertions: usize,
    /// Total solver conflicts across every solver this check used.
    pub conflicts: u64,
    /// Total solver decisions.
    pub decisions: u64,
    /// Total solver unit propagations.
    pub propagations: u64,
    /// Propagations served by the binary implication lists (a subset
    /// of `propagations` that never touched the clause arena).
    pub binary_propagations: u64,
    /// Total solver restarts.
    pub restarts: u64,
    /// Restarts triggered by the glue EMA rather than the Luby budget.
    pub glue_restarts: u64,
    /// Learned clauses with LBD ≤ 2 (core tier).
    pub glue_core: u64,
    /// Learned clauses with LBD 3–6 (mid tier).
    pub glue_mid: u64,
    /// Learned clauses with LBD > 6 (local tier).
    pub glue_local: u64,
    /// Live core-tier clauses after the last database reduction,
    /// summed over solvers (gauge-like; see `absorb_since`).
    pub tier_core_size: u64,
    /// Live mid-tier clauses after the last database reduction.
    pub tier_mid_size: u64,
    /// Live local-tier clauses after the last database reduction.
    pub tier_local_size: u64,
    /// Clauses deleted by backward subsumption during root-level
    /// inprocessing.
    pub subsumed_clauses: u64,
    /// Clauses strengthened by self-subsuming resolution.
    pub strengthened_clauses: u64,
    /// Clauses shortened by vivification.
    pub vivified_clauses: u64,
    /// Root-level inprocessing rounds run between restarts.
    pub inprocessing_rounds: u64,
    /// Long-lived certificate provers created (at most one per
    /// program: the certify path shares a single proof-logging solver
    /// across every held assertion instead of cloning per assertion).
    pub certify_provers: u64,
    /// Root-level units fixed by formula preprocessing.
    pub pre_units_fixed: u64,
    /// Clauses removed by formula preprocessing (tautologies and
    /// root-satisfied clauses).
    pub pre_clauses_removed: u64,
    /// Assertions discharged statically before encoding. Only callers
    /// that run the screening tier themselves fill it; the verifier no
    /// longer screens and leaves it 0.
    pub assertions_discharged: u64,
    /// CNF variables the cone-of-influence slice removed relative to
    /// encoding the full program (filled only by callers that screen;
    /// 0 from the verifier).
    pub cnf_vars_saved: u64,
    /// Generalized blocking cubes learned by ALLSAT enumeration (one
    /// per satisfiable solver answer on the renaming path).
    pub cubes_learned: u64,
    /// Counterexamples materialized by expanding those cubes back to
    /// full branch assignments. `cube_assignments / cubes_learned` is
    /// the mean cover per cube; > 1 means generalization pruned solver
    /// calls.
    pub cube_assignments: u64,
    /// Assertions carrying SQL-structured sink preconditions
    /// (`AssertKind::SqlStructure`; filled by `webssari-core`).
    pub sql_assertions_checked: u64,
    /// Violated assertions whose error trace flows through a store
    /// cell — second-order (stored) taint (filled by `webssari-core`).
    pub second_order_flows_found: u64,
    /// Assertions discharged by the flow-sensitive SSA tier with a
    /// `flow-clean` proof. This and the next three fields are filled
    /// only by callers that run the two-stage screening tier and
    /// `webssari_dataflow::compute_summaries` themselves; the verifier
    /// no longer does and leaves them 0.
    pub flow_discharged: u64,
    /// φ-functions placed while building the pruned SSA form of the
    /// checked program.
    pub ssa_phis: u64,
    /// Interprocedural function summaries computed bottom-up over the
    /// call graph.
    pub summaries_computed: u64,
    /// Call-site clones materialized for taint-polymorphic callees.
    pub contexts_cloned: u64,
}

impl XbmcStats {
    /// Total clauses removed by root-level inprocessing (subsumption
    /// plus the originals replaced by strengthening and vivification).
    pub fn inprocessing_removed(&self) -> u64 {
        self.subsumed_clauses + self.strengthened_clauses + self.vivified_clauses
    }

    /// Folds one solver's work counters into this check's totals.
    fn absorb(&mut self, s: &sat::SolverStats) {
        self.conflicts += s.conflicts;
        self.decisions += s.decisions;
        self.propagations += s.propagations;
        self.binary_propagations += s.binary_propagations;
        self.restarts += s.restarts;
        self.glue_restarts += s.glue_restarts;
        self.glue_core += s.glue_core;
        self.glue_mid += s.glue_mid;
        self.glue_local += s.glue_local;
        self.tier_core_size += s.tier_core_size;
        self.tier_mid_size += s.tier_mid_size;
        self.tier_local_size += s.tier_local_size;
        self.subsumed_clauses += s.subsumed_clauses;
        self.strengthened_clauses += s.strengthened_clauses;
        self.vivified_clauses += s.vivified_clauses;
        self.inprocessing_rounds += s.inprocessing_rounds;
        self.pre_units_fixed += s.pre_units_fixed;
        self.pre_clauses_removed += s.pre_clauses_removed;
        self.cubes_learned += s.cube_shrink_calls;
    }

    /// Folds in only the work a cloned solver did *since* it was cloned
    /// from a base solver whose own counters were already absorbed —
    /// the formula is ingested (and preprocessed) once, so the base's
    /// share must not be counted once per clone.
    fn absorb_since(&mut self, s: &sat::SolverStats, base: &sat::SolverStats) {
        self.conflicts += s.conflicts - base.conflicts;
        self.decisions += s.decisions - base.decisions;
        self.propagations += s.propagations - base.propagations;
        self.binary_propagations += s.binary_propagations - base.binary_propagations;
        self.restarts += s.restarts - base.restarts;
        self.glue_restarts += s.glue_restarts - base.glue_restarts;
        self.glue_core += s.glue_core - base.glue_core;
        self.glue_mid += s.glue_mid - base.glue_mid;
        self.glue_local += s.glue_local - base.glue_local;
        // Tier sizes are gauges (live clauses after the last
        // reduction), not monotone counters: a clone's reduction can
        // leave fewer live clauses than the base snapshot had.
        self.tier_core_size += s.tier_core_size.saturating_sub(base.tier_core_size);
        self.tier_mid_size += s.tier_mid_size.saturating_sub(base.tier_mid_size);
        self.tier_local_size += s.tier_local_size.saturating_sub(base.tier_local_size);
        self.subsumed_clauses += s.subsumed_clauses - base.subsumed_clauses;
        self.strengthened_clauses += s.strengthened_clauses - base.strengthened_clauses;
        self.vivified_clauses += s.vivified_clauses - base.vivified_clauses;
        self.inprocessing_rounds += s.inprocessing_rounds - base.inprocessing_rounds;
        self.pre_units_fixed += s.pre_units_fixed - base.pre_units_fixed;
        self.pre_clauses_removed += s.pre_clauses_removed - base.pre_clauses_removed;
        self.cubes_learned += s.cube_shrink_calls - base.cube_shrink_calls;
    }
}

/// The outcome of checking every assertion of an AI program.
#[derive(Clone, Debug, Default)]
pub struct CheckResult {
    /// All counterexamples, grouped by assertion in program order and
    /// sorted by branch assignment within each assertion.
    pub counterexamples: Vec<Counterexample>,
    /// Number of assertions checked.
    pub checked_assertions: usize,
    /// Number of assertions with at least one counterexample.
    pub violated_assertions: usize,
    /// Work counters.
    pub stats: XbmcStats,
    /// DRAT refutations of `Bᵢ` for every assertion that holds, when
    /// [`CheckOptions::certify`] was set.
    pub certificates: Vec<Certificate>,
    /// The program constraints the certificates refer to (present only
    /// when certifying). Shared, not deep-cloned: the encoding can run
    /// to hundreds of thousands of clauses at SourceForge scale.
    pub certified_formula: Option<Arc<cnf::CnfFormula>>,
    /// A [`CheckOptions::budget`] bound was hit: the check stopped
    /// early and the results above are incomplete. Callers must not
    /// treat such a run as a verification verdict.
    pub interrupted: bool,
}

/// A machine-checkable witness that one assertion holds: a DRAT
/// refutation of `Bᵢ = C(c, g) ∧ ¬assertᵢ`.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// The certified assertion.
    pub assert_id: webssari_ir::AssertId,
    /// The violation literal whose unit clause, conjoined with
    /// [`CheckResult::certified_formula`], the proof refutes.
    pub violated: cnf::Lit,
    /// The refutation.
    pub proof: sat::Proof,
}

impl Certificate {
    /// Independently re-checks this certificate against the program
    /// constraints.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`sat::ProofError`] if the proof does not
    /// check.
    pub fn verify(&self, program_formula: &cnf::CnfFormula) -> Result<(), sat::ProofError> {
        let mut f = program_formula.clone();
        f.add_lits([self.violated]);
        self.proof.verify_refutation(&f)
    }
}

impl CheckResult {
    /// Whether the program satisfies every assertion — the *soundness
    /// guarantee* case: "soundness guarantees the absence of bugs".
    pub fn is_safe(&self) -> bool {
        self.counterexamples.is_empty()
    }

    /// The certificate for one assertion, if it was certified.
    pub fn certificate(&self, id: webssari_ir::AssertId) -> Option<&Certificate> {
        self.certificates.iter().find(|c| c.assert_id == id)
    }

    /// Re-checks every certificate against the certified formula,
    /// returning how many were verified.
    ///
    /// # Errors
    ///
    /// Returns the first failing certificate's assert id and error.
    pub fn verify_certificates(&self) -> Result<usize, (webssari_ir::AssertId, sat::ProofError)> {
        let Some(formula) = &self.certified_formula else {
            return Ok(0);
        };
        for c in &self.certificates {
            c.verify(formula).map_err(|e| (c.assert_id, e))?;
        }
        Ok(self.certificates.len())
    }
}

/// The bounded model checker.
///
/// See the crate docs for the algorithm; [`Xbmc::check_all`] runs the
/// per-assertion counterexample enumeration over the two-point taint
/// lattice.
#[derive(Debug)]
pub struct Xbmc<'a> {
    ai: &'a AiProgram,
    options: CheckOptions,
}

impl<'a> Xbmc<'a> {
    /// Creates a checker with default options.
    pub fn new(ai: &'a AiProgram) -> Self {
        Xbmc {
            ai,
            options: CheckOptions::default(),
        }
    }

    /// Creates a checker with explicit options.
    pub fn with_options(ai: &'a AiProgram, options: CheckOptions) -> Self {
        Xbmc { ai, options }
    }

    /// Checks every assertion over the standard two-point taint lattice.
    pub fn check_all(&self) -> CheckResult {
        self.check_all_with(&TwoPoint::new())
    }

    /// Checks every assertion over an explicit lattice.
    pub fn check_all_with(&self, lattice: &impl Lattice) -> CheckResult {
        match self.options.encoder {
            EncoderKind::Renaming => self.check_renaming(lattice),
            EncoderKind::AuxVariable => self.check_aux(lattice),
        }
    }

    fn check_renaming(&self, lattice: &impl Lattice) -> CheckResult {
        let enc = renaming::encode(self.ai, lattice);
        let mut result = CheckResult {
            checked_assertions: enc.asserts.len(),
            ..CheckResult::default()
        };
        result.stats.cnf_vars = enc.formula.num_vars();
        result.stats.cnf_clauses = enc.formula.num_clauses();
        let budget = self.options.budget.unwrap_or_default();
        // Ingest (and preprocess) the encoded formula exactly once; every
        // prover this check needs — the shared incremental solver, the
        // per-assert fresh solvers, the certify provers — is a clone of
        // this base, which is much cheaper than re-parsing the CNF.
        let base_solver = {
            let mut s = Solver::from_formula(&enc.formula);
            s.set_budget(budget);
            s
        };
        let base_stats = *base_solver.stats();
        // The base's own work (preprocessing, root propagation) counts
        // once; clones later report only their delta over this.
        result.stats.absorb(&base_stats);
        let mut shared_solver = if self.options.fresh_solver_per_assert {
            None
        } else {
            Some(base_solver.clone())
        };
        // One long-lived proof-logging prover certifies every held
        // assertion (created lazily: most programs with violations
        // never need it). Clauses it learns while solving under the
        // assumption `violatedᵢ` are implied by the program formula
        // alone — assumptions act as decisions and never enter
        // conflict-clause resolution — so the accumulated proof prefix
        // stays RUP against `certified_formula` and each certificate
        // is the prefix snapshot plus `¬violatedᵢ` (root-falsified
        // when the single-assumption solve answers unsat) and the
        // empty clause. This replaces a per-assertion clone of
        // `base_solver`, and learned clauses carry over between
        // assertions of the same program.
        let mut cert_prover: Option<Solver> = None;
        // One free selector variable per assertion scopes its blocking
        // clauses: they only bite while that assertion is being
        // enumerated (the selector is assumed true), and are inert
        // afterwards (the solver may set the selector false).
        let selector_base = enc.formula.num_vars();
        for (ai_idx, a) in enc.asserts.iter().enumerate() {
            let selector = cnf::Var::new(selector_base + ai_idx).positive();
            let mut solver_storage;
            let solver: &mut Solver = match shared_solver.as_mut() {
                Some(s) => s,
                None => {
                    solver_storage = base_solver.clone();
                    &mut solver_storage
                }
            };
            let mut found: Vec<Counterexample> = Vec::new();
            // Distinct branch assignments emitted so far for this
            // assertion: generalized cubes may overlap (a later cube is
            // shrunk without regard to earlier blocking clauses), so
            // expansion dedups to reproduce the per-model set exactly.
            let mut seen: HashSet<Vec<bool>> = HashSet::new();
            loop {
                if found.len() >= self.options.max_counterexamples_per_assert {
                    result.stats.truncated_assertions += 1;
                    break;
                }
                result.stats.sat_calls += 1;
                match solver.solve_with_assumptions(&[selector, a.violated]) {
                    SatResult::Sat(model) => {
                        // The model restricted to Bᵢ's BN, then shrunk
                        // to a minimal implicant of the violation
                        // literal: every extension of the cube over the
                        // remaining branch variables still violates.
                        let model_cube: Vec<cnf::Lit> = a
                            .relevant_branches
                            .iter()
                            .map(|b| {
                                let lit = enc.branch_lits[b.0 as usize];
                                if model.lit_value(lit) {
                                    lit
                                } else {
                                    !lit
                                }
                            })
                            .collect();
                        let cube = solver.shrink_cube(&model_cube, a.violated);
                        self.expand_cube(
                            &enc,
                            a,
                            &cube,
                            lattice,
                            &mut found,
                            &mut seen,
                            &mut result,
                        );
                        // Negate the generalized cube, not just this
                        // model: Bᵢʲ⁺¹ = Bᵢʲ ∧ ¬cubeʲ (scoped by the
                        // selector in the incremental solver). A width-w
                        // cube over k branches prunes 2^(k−w)
                        // assignments per clause.
                        let mut blocking: Vec<cnf::Lit> = cube.iter().map(|&l| !l).collect();
                        blocking.push(!selector);
                        solver.add_clause(blocking);
                    }
                    SatResult::Unsat => break,
                    SatResult::Unknown => break,
                    SatResult::Interrupted => {
                        result.interrupted = true;
                        break;
                    }
                }
            }
            if self.options.fresh_solver_per_assert {
                result.stats.absorb_since(solver.stats(), &base_stats);
            }
            if result.interrupted {
                // Stop checking further assertions: the engine will
                // degrade this whole file to a timeout outcome, so
                // spending the remaining assertions' budgets here only
                // delays the worker.
                break;
            }
            if !found.is_empty() {
                result.violated_assertions += 1;
            } else if self.options.certify {
                // The assertion holds: certify Bᵢ's unsatisfiability
                // with a DRAT refutation from the shared prover, with
                // the violation literal as an assumption instead of a
                // unit clause so the database is never committed to
                // one assertion.
                let prover = cert_prover.get_or_insert_with(|| {
                    result.stats.certify_provers += 1;
                    let mut s = base_solver.clone();
                    s.start_proof();
                    s
                });
                result.stats.sat_calls += 1;
                let res = prover.solve_with_assumptions(&[a.violated]);
                if res == SatResult::Interrupted {
                    result.interrupted = true;
                    break;
                }
                debug_assert!(res.is_unsat(), "enumeration said Bᵢ is unsat");
                if res.is_unsat() {
                    if let Some(prefix) = prover.proof() {
                        // `¬violated` is RUP here: the only
                        // unsat-under-assumption exit with a single
                        // assumption is the literal being false at
                        // root level, i.e. derived by propagation
                        // from the clauses the prefix accounts for.
                        // With `violated` restored as the verifier's
                        // unit clause, the empty clause follows.
                        let mut proof = prefix.clone();
                        proof.push(ProofStep::Add(vec![!a.violated]));
                        proof.push(ProofStep::Add(Vec::new()));
                        result.certificates.push(Certificate {
                            assert_id: a.id,
                            violated: a.violated,
                            proof,
                        });
                    }
                }
            }
            found.sort_by(|a, b| a.branches.cmp(&b.branches));
            result.counterexamples.extend(found);
        }
        if let Some(s) = &shared_solver {
            result.stats.absorb_since(s.stats(), &base_stats);
        }
        if let Some(p) = &cert_prover {
            result.stats.absorb_since(p.stats(), &base_stats);
        }
        if self.options.certify {
            result.certified_formula = Some(Arc::new(enc.formula));
        }
        result
    }

    /// Expands one generalized cube back to full branch assignments,
    /// emitting a [`Counterexample`] per assignment not already seen.
    ///
    /// Branches pinned by the cube keep their cube polarity; the
    /// remaining relevant branches are free and enumerated both ways
    /// (false before true, earlier branches most significant), with
    /// branches outside `Bᵢ`'s BN normalized to false as before. Every
    /// extension of the cube violates the assertion, so each expansion
    /// is a genuine counterexample; `violating_vars` and the trace are
    /// recomputed per path since no satisfying model exists per
    /// expansion. Expansion stops at the per-assert cap so `max_cx`
    /// counts expanded assignments, exactly like the per-model loop.
    #[allow(clippy::too_many_arguments)]
    fn expand_cube(
        &self,
        enc: &renaming::RenamedEncoding,
        a: &renaming::EncodedAssert,
        cube: &[cnf::Lit],
        lattice: &impl Lattice,
        found: &mut Vec<Counterexample>,
        seen: &mut HashSet<Vec<bool>>,
        result: &mut CheckResult,
    ) {
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
        let total: u64 = if width >= 63 { u64::MAX } else { 1u64 << width };
        for m in 0..total {
            if found.len() >= self.options.max_counterexamples_per_assert {
                break;
            }
            let mut branches = vec![false; self.ai.num_branches];
            for &(idx, v) in &fixed {
                branches[idx] = v;
            }
            for (i, &idx) in free.iter().enumerate() {
                branches[idx] = m >> (width - 1 - i) & 1 == 1;
            }
            if !seen.insert(branches.clone()) {
                continue;
            }
            let violating_vars =
                path_violating_vars(self.ai, &branches, a.id, lattice).unwrap_or_default();
            result.stats.cube_assignments += 1;
            found.push(Counterexample {
                assert_id: a.id,
                func: a.func.clone(),
                site: a.site.clone(),
                violating_vars,
                trace: replay_trace(self.ai, &branches, a.id),
                branches,
            });
        }
    }

    fn check_aux(&self, lattice: &impl Lattice) -> CheckResult {
        let enc = aux_encoding::encode(self.ai, lattice);
        let mut result = CheckResult {
            checked_assertions: enc.asserts.len(),
            ..CheckResult::default()
        };
        result.stats.cnf_vars = enc.formula.num_vars();
        result.stats.cnf_clauses = enc.formula.num_clauses();
        let mut solver = Solver::from_formula(&enc.formula);
        solver.set_budget(self.options.budget.unwrap_or_default());
        for a in &enc.asserts {
            result.stats.sat_calls += 1;
            match solver.solve_with_assumptions(&[a.violated]) {
                SatResult::Sat(model) => {
                    result.violated_assertions += 1;
                    let branches = enc.decode_branches(&model);
                    let violating_vars = a
                        .var_violations
                        .iter()
                        .filter(|(_, l)| model.lit_value(*l))
                        .map(|(v, _)| *v)
                        .collect();
                    result.counterexamples.push(Counterexample {
                        assert_id: a.id,
                        func: a.func.clone(),
                        site: a.site.clone(),
                        violating_vars,
                        trace: replay_trace(self.ai, &branches, a.id),
                        branches,
                    });
                }
                SatResult::Interrupted => {
                    result.interrupted = true;
                    break;
                }
                SatResult::Unsat | SatResult::Unknown => {}
            }
        }
        result.stats.absorb(solver.stats());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use php_front::parse_source;
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
    fn safe_program_has_no_counterexamples() {
        let ai = ai_of("<?php $x = htmlspecialchars($_GET['a']); echo $x;");
        let r = Xbmc::new(&ai).check_all();
        assert!(r.is_safe());
        assert_eq!(r.checked_assertions, 1);
        assert_eq!(r.violated_assertions, 0);
    }

    #[test]
    fn unconditional_violation_yields_one_counterexample() {
        let ai = ai_of("<?php $x = $_GET['a']; echo $x;");
        let r = Xbmc::new(&ai).check_all();
        assert_eq!(r.counterexamples.len(), 1);
        assert_eq!(r.violated_assertions, 1);
        assert_eq!(r.counterexamples[0].func, "echo");
    }

    #[test]
    fn enumeration_finds_every_violating_path() {
        // Two independent tainting branches feeding one sink: paths
        // (T,T), (T,F), (F,T) violate; (F,F) does not.
        let ai = ai_of(
            "<?php $x = 'ok'; if ($a) { $x = $_GET['p']; } if ($b) { $x = $x . $_GET['q']; } echo $x;",
        );
        let r = Xbmc::new(&ai).check_all();
        let paths: Vec<Vec<bool>> = r
            .counterexamples
            .iter()
            .map(|c| c.branches.clone())
            .collect();
        assert_eq!(
            paths,
            vec![vec![false, true], vec![true, false], vec![true, true],]
        );
    }

    #[test]
    fn fresh_solver_mode_matches_incremental() {
        let src =
            "<?php $x = 'ok'; if ($a) { $x = $_GET['p']; } echo $x; if ($b) { mysql_query($x); }";
        let ai = ai_of(src);
        let inc = Xbmc::new(&ai).check_all();
        let fresh = Xbmc::with_options(
            &ai,
            CheckOptions {
                fresh_solver_per_assert: true,
                ..CheckOptions::default()
            },
        )
        .check_all();
        let key = |r: &CheckResult| {
            r.counterexamples
                .iter()
                .map(|c| (c.assert_id, c.branches.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&inc), key(&fresh));
    }

    #[test]
    fn counterexample_cap_truncates() {
        // 3 irrelevant branches around the sink → 8 violating paths.
        let ai = ai_of(
            "<?php $x = $_GET['p']; if ($a) { $u = 1; } if ($b) { $v = 2; } if ($c) { $w = 3; } echo $x;",
        );
        let capped = Xbmc::with_options(
            &ai,
            CheckOptions {
                max_counterexamples_per_assert: 2,
                ..CheckOptions::default()
            },
        )
        .check_all();
        assert_eq!(capped.counterexamples.len(), 2);
        assert_eq!(capped.stats.truncated_assertions, 1);
    }

    #[test]
    fn cube_generalization_prunes_solver_calls() {
        // 5 independent tainting branches: 31 violating paths. The
        // per-model loop would need 32 solver calls; generalized cubes
        // cover whole families per call.
        let mut src = String::from("<?php $x = 'ok';");
        for i in 0..5 {
            src.push_str(&format!(" if ($c{i}) {{ $x = $x . $_GET['p{i}']; }}"));
        }
        src.push_str(" echo $x;");
        let ai = ai_of(&src);
        let r = Xbmc::new(&ai).check_all();
        assert_eq!(r.counterexamples.len(), 31);
        assert!(r.stats.cubes_learned > 0);
        assert_eq!(r.stats.cube_assignments, 31);
        assert!(
            r.stats.sat_calls < 16,
            "expected generalization to prune solver calls, got {}",
            r.stats.sat_calls
        );
        // Mean cover per cube must beat one assignment per solve.
        assert!(r.stats.cube_assignments > r.stats.cubes_learned);
    }

    #[test]
    fn aux_encoder_agrees_on_violated_assertions() {
        let src = "<?php $x = 'ok'; if ($c) { $x = $_GET['a']; } echo $x; $y = 'safe'; echo $y;";
        let ai = ai_of(src);
        let ren = Xbmc::new(&ai).check_all();
        let aux = Xbmc::with_options(
            &ai,
            CheckOptions {
                encoder: EncoderKind::AuxVariable,
                ..CheckOptions::default()
            },
        )
        .check_all();
        assert_eq!(ren.violated_assertions, aux.violated_assertions);
        assert_eq!(ren.checked_assertions, aux.checked_assertions);
        // The aux path's single counterexample must be a genuine one.
        assert_eq!(aux.counterexamples.len(), 1);
        assert_eq!(aux.counterexamples[0].branches, vec![true]);
    }

    #[test]
    fn stats_are_populated() {
        let ai = ai_of("<?php $x = $_GET['a']; echo $x;");
        let r = Xbmc::new(&ai).check_all();
        assert!(r.stats.cnf_vars > 0);
        assert!(r.stats.cnf_clauses > 0);
        assert!(r.stats.sat_calls >= 2); // one sat + one unsat
    }

    #[test]
    fn traces_accompany_counterexamples() {
        let ai = ai_of("<?php $a = $_GET['x']; $b = $a; mysql_query($b);");
        let r = Xbmc::new(&ai).check_all();
        assert_eq!(r.counterexamples.len(), 1);
        let cx = &r.counterexamples[0];
        assert_eq!(cx.trace.len(), 3); // _GET init, $a, $b
        assert_eq!(cx.violating_vars.len(), 1);
        assert_eq!(ai.vars.name(cx.violating_vars[0]), "b");
    }
}

#[cfg(test)]
mod certify_tests {
    use super::*;
    use php_front::parse_source;
    use webssari_ir::{abstract_interpret, filter_program, FilterOptions, Prelude};

    fn ai_of(src: &str) -> webssari_ir::AiProgram {
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

    fn certifying() -> CheckOptions {
        CheckOptions {
            certify: true,
            ..CheckOptions::default()
        }
    }

    #[test]
    fn holding_assertions_get_verified_certificates() {
        let ai = ai_of(
            "<?php $a = htmlspecialchars($_GET['x']); echo $a; $b = intval($_GET['y']); mysql_query(\"LIMIT $b\");",
        );
        let r = Xbmc::with_options(&ai, certifying()).check_all();
        assert!(r.is_safe());
        assert_eq!(r.certificates.len(), 2);
        assert_eq!(r.verify_certificates().unwrap(), 2);
    }

    #[test]
    fn violated_assertions_are_not_certified() {
        let ai = ai_of("<?php $x = $_GET['a']; echo $x; echo 'safe' . $ok;");
        let r = Xbmc::with_options(&ai, certifying()).check_all();
        assert_eq!(r.violated_assertions, 1);
        // Only the second (holding) assertion is certified.
        assert_eq!(r.certificates.len(), 1);
        assert!(r.certificate(webssari_ir::AssertId(0)).is_none());
        assert!(r.certificate(webssari_ir::AssertId(1)).is_some());
        assert_eq!(r.verify_certificates().unwrap(), 1);
    }

    #[test]
    fn branchy_safe_program_certifies() {
        let ai = ai_of(
            "<?php $x = 'ok'; if ($c) { $x = intval($_GET['n']); } else { $x = 'other'; } echo $x; mysql_query($x);",
        );
        let r = Xbmc::with_options(&ai, certifying()).check_all();
        assert!(r.is_safe());
        assert_eq!(r.verify_certificates().unwrap(), 2);
    }

    #[test]
    fn tampered_certificate_fails_verification() {
        let ai = ai_of("<?php $a = 'clean'; echo $a;");
        let mut r = Xbmc::with_options(&ai, certifying()).check_all();
        assert_eq!(r.certificates.len(), 1);
        // Point the certificate at the wrong literal: it must no longer
        // refute.
        let cert = &mut r.certificates[0];
        cert.violated = !cert.violated;
        let formula = r.certified_formula.clone().unwrap();
        // Either the proof fails outright or it no longer ends with a
        // derivable empty clause.
        assert!(r.certificates[0].verify(&formula).is_err());
    }

    #[test]
    fn certify_path_shares_one_prover_per_program() {
        // Two holding assertions: the certify path must build exactly
        // one proof-logging prover (no per-assertion clone) and the
        // formula must be preprocessed exactly once for the whole
        // check — the run's preprocessing counters equal a single
        // solver ingestion of the certified formula.
        let ai = ai_of(
            "<?php $a = htmlspecialchars($_GET['x']); echo $a; $b = intval($_GET['y']); mysql_query(\"LIMIT $b\");",
        );
        let r = Xbmc::with_options(&ai, certifying()).check_all();
        assert_eq!(r.certificates.len(), 2);
        assert_eq!(r.stats.certify_provers, 1);
        let formula = r.certified_formula.as_ref().expect("certifying run");
        let single_pass = *Solver::from_formula(formula).stats();
        assert_eq!(r.stats.pre_units_fixed, single_pass.pre_units_fixed);
        assert_eq!(r.stats.pre_clauses_removed, single_pass.pre_clauses_removed);
        assert_eq!(r.verify_certificates().unwrap(), 2);
    }

    #[test]
    fn certify_prover_reuse_keeps_fresh_solver_path_working() {
        let ai = ai_of(
            "<?php $a = htmlspecialchars($_GET['x']); echo $a; $b = intval($_GET['y']); mysql_query(\"LIMIT $b\");",
        );
        let opts = CheckOptions {
            certify: true,
            fresh_solver_per_assert: true,
            ..CheckOptions::default()
        };
        let r = Xbmc::with_options(&ai, opts).check_all();
        assert!(r.is_safe());
        assert_eq!(r.stats.certify_provers, 1);
        assert_eq!(r.verify_certificates().unwrap(), 2);
    }

    #[test]
    fn certification_off_by_default() {
        let ai = ai_of("<?php $a = 'clean'; echo $a;");
        let r = Xbmc::new(&ai).check_all();
        assert!(r.certificates.is_empty());
        assert!(r.certified_formula.is_none());
        assert_eq!(r.verify_certificates().unwrap(), 0);
    }
}
