//! The pre-arena CDCL solver, retained verbatim as a differential
//! oracle.
//!
//! This is the solver as it stood before the clause-arena data-plane
//! rebuild: each clause is its own heap `Vec<Lit>`, `propagate` does a
//! `mem::take`/restore dance on watcher lists, and conflict analysis
//! clones clause literals. It is algorithmically identical to
//! [`Solver`](crate::Solver) (same watched-literal scheme, 1UIP
//! learning, VSIDS, phase saving, Luby restarts, database reduction),
//! so the equivalence property tests solve the same formulas on both
//! engines and demand identical verdicts.
//!
//! Do not use it in production paths; it is deliberately frozen.

use cnf::{CnfFormula, Lit, Var};

use crate::budget::{Budget, DEADLINE_CHECK_INTERVAL};
use crate::heap_ref::ActivityHeap;
use crate::luby::luby;
use crate::proof::{Proof, ProofStep};
use crate::stats::SolverStats;
use crate::types::{Model, SatResult};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LBool {
    True,
    False,
    Undef,
}

#[derive(Debug)]
struct ClauseData {
    lits: Vec<Lit>,
    learnt: bool,
    deleted: bool,
    activity: f64,
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    clause: u32,
    blocker: Lit,
}

const NO_REASON: u32 = u32::MAX;

/// Restart interval unit: conflicts per Luby term.
const RESTART_BASE: u64 = 100;
const VAR_DECAY: f64 = 0.95;
const CLAUSE_DECAY: f64 = 0.999;

/// The frozen pre-arena CDCL solver (see the module docs). Same
/// algorithm as [`Solver`](crate::Solver), pre-refactor data plane.
///
/// # Examples
///
/// ```
/// use cnf::Var;
/// use sat::reference::Solver;
///
/// let x = Var::new(0).positive();
/// let mut s = Solver::new();
/// s.add_clause([x]);
/// assert!(s.solve().is_sat());
/// s.add_clause([!x]);
/// assert!(s.solve().is_unsat());
/// ```
#[derive(Debug)]
pub struct Solver {
    clauses: Vec<ClauseData>,
    watches: Vec<Vec<Watcher>>,
    assign: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    heap: ActivityHeap,
    saved_phase: Vec<bool>,
    seen: Vec<bool>,
    ok: bool,
    stats: SolverStats,
    conflict_limit: Option<u64>,
    budget: Budget,
    num_learnt: usize,
    max_learnt: f64,
    proof: Option<Proof>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            heap: ActivityHeap::new(),
            saved_phase: Vec::new(),
            seen: Vec::new(),
            ok: true,
            stats: SolverStats::default(),
            conflict_limit: None,
            budget: Budget::default(),
            num_learnt: 0,
            max_learnt: 0.0,
            proof: None,
        }
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver::default()
    }

    /// Creates a solver preloaded with a formula's clauses.
    pub fn from_formula(formula: &CnfFormula) -> Self {
        let mut s = Solver::new();
        s.add_formula(formula);
        s
    }

    /// Adds every clause of `formula` (skipping tautologies) and
    /// declares its variables.
    pub fn add_formula(&mut self, formula: &CnfFormula) {
        if formula.num_vars() > 0 {
            self.ensure_var(Var::new(formula.num_vars() - 1));
        }
        for clause in formula.clauses() {
            if !clause.is_tautology() {
                self.add_clause(clause.lits().iter().copied());
            }
        }
    }

    /// Declares variables up to `var` inclusive.
    pub fn ensure_var(&mut self, var: Var) {
        let n = var.index() + 1;
        if self.assign.len() >= n {
            return;
        }
        self.assign.resize(n, LBool::Undef);
        self.level.resize(n, 0);
        self.reason.resize(n, NO_REASON);
        self.activity.resize(n, 0.0);
        self.saved_phase.resize(n, false);
        self.seen.resize(n, false);
        self.watches.resize(n * 2, Vec::new());
        self.heap.grow(n);
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of original (problem) clauses currently stored.
    pub fn num_clauses(&self) -> usize {
        self.clauses
            .iter()
            .filter(|c| !c.learnt && !c.deleted)
            .count()
    }

    /// Work counters.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Limits the total number of conflicts per `solve` call; when
    /// exceeded, `solve` returns [`SatResult::Unknown`]. `None` removes
    /// the limit.
    pub fn set_conflict_limit(&mut self, limit: Option<u64>) {
        self.conflict_limit = limit;
    }

    /// Installs a cooperative [`Budget`] checked during every `solve`
    /// call; when a bound is exceeded mid-search, `solve` returns
    /// [`SatResult::Interrupted`]. The budget persists across calls
    /// (each call re-measures conflicts from zero, but a wall-clock
    /// deadline naturally keeps counting down). Install
    /// `Budget::default()` to remove it.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The currently installed budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Starts recording a clausal (DRAT) proof: learned clauses,
    /// database deletions, and — on a global UNSAT answer — the empty
    /// clause. Check the result with
    /// [`Proof::verify_refutation`](crate::Proof::verify_refutation)
    /// against the clauses the solver was loaded with. Adding clauses
    /// *between* solves restarts the meaningful scope of the proof;
    /// call [`Solver::take_proof`] first.
    pub fn start_proof(&mut self) {
        self.proof = Some(Proof::new());
    }

    /// Stops recording and returns the proof, if recording was on.
    pub fn take_proof(&mut self) -> Option<Proof> {
        self.proof.take()
    }

    fn record(&mut self, step: ProofStep) {
        if let Some(p) = &mut self.proof {
            p.push(step);
        }
    }

    /// Adds a clause. Returns `false` if the solver is already in an
    /// unsatisfiable state (either before or because of this clause).
    ///
    /// The clause is normalized: duplicate literals are merged,
    /// tautologies are dropped, and literals already false at the top
    /// level are removed.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        self.cancel_until(0);
        if !self.ok {
            return false;
        }
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        for &l in &lits {
            self.ensure_var(l.var());
        }
        lits.sort_unstable();
        lits.dedup();
        // Tautology or satisfied-at-level-0 check; drop false literals.
        let mut filtered = Vec::with_capacity(lits.len());
        for (i, &l) in lits.iter().enumerate() {
            if i + 1 < lits.len() && lits[i + 1] == !l {
                return true; // tautology: x and ¬x are adjacent after sort
            }
            match self.value(l) {
                LBool::True => return true,
                LBool::False => continue,
                LBool::Undef => filtered.push(l),
            }
        }
        match filtered.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(filtered[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(filtered, false);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 2);
        let ci = self.clauses.len() as u32;
        let w0 = Watcher {
            clause: ci,
            blocker: lits[1],
        };
        let w1 = Watcher {
            clause: ci,
            blocker: lits[0],
        };
        self.watches[lits[0].code()].push(w0);
        self.watches[lits[1].code()].push(w1);
        if learnt {
            self.num_learnt += 1;
            self.stats.learnt_clauses = self.num_learnt as u64;
        }
        self.clauses.push(ClauseData {
            lits,
            learnt,
            deleted: false,
            activity: 0.0,
        });
        ci
    }

    fn value(&self, l: Lit) -> LBool {
        match self.assign[l.var().index()] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if l.is_positive() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
            LBool::False => {
                if l.is_positive() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
        }
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn enqueue(&mut self, p: Lit, reason: u32) {
        debug_assert_eq!(self.value(p), LBool::Undef);
        let v = p.var().index();
        self.assign[v] = if p.is_positive() {
            LBool::True
        } else {
            LBool::False
        };
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = reason;
        self.trail.push(p);
    }

    fn cancel_until(&mut self, target: usize) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target];
        for i in (bound..self.trail.len()).rev() {
            let p = self.trail[i];
            let v = p.var().index();
            self.saved_phase[v] = p.is_positive();
            self.assign[v] = LBool::Undef;
            self.reason[v] = NO_REASON;
            self.heap.insert(v, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target);
        self.qhead = bound;
    }

    /// Unit propagation. Returns the index of a conflicting clause, or
    /// `None` when a fixpoint is reached.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            while i < ws.len() {
                let w = ws[i];
                // Fast path: blocker already true.
                if self.value(w.blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                let ci = w.clause as usize;
                if self.clauses[ci].deleted {
                    ws.swap_remove(i);
                    continue;
                }
                // Make sure the false literal is at position 1.
                {
                    let lits = &mut self.clauses[ci].lits;
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], false_lit);
                }
                let first = self.clauses[ci].lits[0];
                if first != w.blocker && self.value(first) == LBool::True {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in 2..self.clauses[ci].lits.len() {
                    let cand = self.clauses[ci].lits[k];
                    if self.value(cand) != LBool::False {
                        self.clauses[ci].lits.swap(1, k);
                        self.watches[cand.code()].push(Watcher {
                            clause: w.clause,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting under the current trail.
                if self.value(first) == LBool::False {
                    // Conflict: restore remaining watchers and report.
                    self.qhead = self.trail.len();
                    self.watches[false_lit.code()] = ws;
                    return Some(w.clause);
                }
                self.enqueue(first, w.clause);
                i += 1;
            }
            self.watches[false_lit.code()] = ws;
        }
        None
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.bumped(v, &self.activity);
    }

    fn bump_clause(&mut self, ci: usize) {
        self.clauses[ci].activity += self.cla_inc;
        if self.clauses[ci].activity > 1e20 {
            for c in &mut self.clauses {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
        self.cla_inc /= CLAUSE_DECAY;
    }

    /// First-UIP conflict analysis. Returns the learned clause (with the
    /// asserting literal at index 0) and the backjump level.
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, usize) {
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = confl as usize;
        let current_level = self.decision_level() as u32;
        loop {
            if self.clauses[confl].learnt {
                self.bump_clause(confl);
            }
            let lits = self.clauses[confl].lits.clone();
            let start = usize::from(p.is_some());
            for &q in &lits[start..] {
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(v);
                    if self.level[v] >= current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            counter -= 1;
            self.seen[pl.var().index()] = false;
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            confl = self.reason[pl.var().index()] as usize;
        }
        self.minimize_learnt(&mut learnt);
        // Find the backjump level: the highest level among learnt[1..].
        let backjump = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()] as usize
        };
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        (learnt, backjump)
    }

    /// Local (non-recursive) learned-clause minimization: a literal is
    /// redundant if its reason clause's other literals are all already in
    /// the learned clause (marked `seen`).
    fn minimize_learnt(&mut self, learnt: &mut Vec<Lit>) {
        let mut kept = 1usize;
        for i in 1..learnt.len() {
            let l = learnt[i];
            let r = self.reason[l.var().index()];
            let redundant = r != NO_REASON
                && self.clauses[r as usize].lits.iter().all(|&q| {
                    q == !l || self.seen[q.var().index()] || self.level[q.var().index()] == 0
                });
            if redundant {
                self.stats.minimized_lits += 1;
                self.seen[l.var().index()] = false;
            } else {
                learnt[kept] = l;
                kept += 1;
            }
        }
        learnt.truncate(kept);
    }

    fn reduce_db(&mut self) {
        let mut learnt_indices: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| {
                let c = &self.clauses[i];
                c.learnt && !c.deleted && c.lits.len() > 2 && !self.is_locked(i)
            })
            .collect();
        learnt_indices.sort_by(|&a, &b| {
            self.clauses[a]
                .activity
                .partial_cmp(&self.clauses[b].activity)
                .expect("clause activities are finite")
        });
        let to_delete = learnt_indices.len() / 2;
        for &i in &learnt_indices[..to_delete] {
            self.clauses[i].deleted = true;
            let lits = self.clauses[i].lits.clone();
            self.record(ProofStep::Delete(lits));
            self.clauses[i].lits.clear();
            self.clauses[i].lits.shrink_to_fit();
            self.num_learnt -= 1;
            self.stats.deleted_clauses += 1;
        }
        self.stats.learnt_clauses = self.num_learnt as u64;
    }

    fn is_locked(&self, ci: usize) -> bool {
        let c = &self.clauses[ci];
        if c.lits.is_empty() {
            return false;
        }
        let v = c.lits[0].var().index();
        self.reason[v] == ci as u32 && self.value(c.lits[0]) == LBool::True
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap.pop_max(&self.activity) {
            if self.assign[v] == LBool::Undef {
                let var = Var::new(v);
                return Some(Lit::new(var, self.saved_phase[v]));
            }
        }
        None
    }

    /// Solves the current clause set.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// Returns [`SatResult::Unsat`] if the clauses are unsatisfiable in
    /// conjunction with the assumptions (the clause database itself may
    /// still be satisfiable).
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        self.stats.solves += 1;
        self.cancel_until(0);
        if !self.ok {
            // The database was already refuted while adding clauses
            // (top-level conflict): the empty clause is derivable.
            self.record(ProofStep::Add(Vec::new()));
            return SatResult::Unsat;
        }
        for &a in assumptions {
            self.ensure_var(a.var());
        }
        // Seed the decision heap with every unassigned variable.
        for v in 0..self.num_vars() {
            if self.assign[v] == LBool::Undef && !self.heap.contains(v) {
                self.heap.insert(v, &self.activity);
            }
        }
        if self.propagate().is_some() {
            self.ok = false;
            self.record(ProofStep::Add(Vec::new()));
            return SatResult::Unsat;
        }
        if self.budget.deadline_passed() {
            self.cancel_until(0);
            return SatResult::Interrupted;
        }
        let mut conflicts_this_solve = 0u64;
        let mut steps = 0u64;
        let mut restart_idx = 0u64;
        let mut conflicts_since_restart = 0u64;
        let mut restart_budget = RESTART_BASE * luby(restart_idx);
        self.max_learnt = (self.clauses.len() as f64 / 3.0).max(1000.0);
        loop {
            // Wall-clock deadline: checked every few loop iterations
            // (each iteration does a full propagation pass, so this
            // bounds overshoot without measurable clock overhead).
            steps += 1;
            if steps.is_multiple_of(DEADLINE_CHECK_INTERVAL) && self.budget.deadline_passed() {
                self.cancel_until(0);
                return SatResult::Interrupted;
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_this_solve += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    self.record(ProofStep::Add(Vec::new()));
                    return SatResult::Unsat;
                }
                let (learnt, backjump) = self.analyze(confl);
                self.record(ProofStep::Add(learnt.clone()));
                self.cancel_until(backjump);
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], NO_REASON);
                } else {
                    let asserting = learnt[0];
                    let ci = self.attach_clause(learnt, true);
                    self.bump_clause(ci as usize);
                    self.enqueue(asserting, ci);
                }
                self.decay_activities();
                if let Some(limit) = self.conflict_limit {
                    if conflicts_this_solve >= limit {
                        self.cancel_until(0);
                        return SatResult::Unknown;
                    }
                }
                if self.budget.conflicts_exhausted(conflicts_this_solve) {
                    self.cancel_until(0);
                    return SatResult::Interrupted;
                }
            } else {
                if conflicts_since_restart >= restart_budget {
                    restart_idx += 1;
                    conflicts_since_restart = 0;
                    restart_budget = RESTART_BASE * luby(restart_idx);
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                    continue;
                }
                if self.num_learnt as f64 > self.max_learnt {
                    self.reduce_db();
                    self.max_learnt *= 1.5;
                }
                // Assumption levels come first, then free decisions.
                if self.decision_level() < assumptions.len() {
                    let p = assumptions[self.decision_level()];
                    match self.value(p) {
                        LBool::True => self.new_decision_level(),
                        LBool::False => {
                            self.cancel_until(0);
                            return SatResult::Unsat;
                        }
                        LBool::Undef => {
                            self.new_decision_level();
                            self.enqueue(p, NO_REASON);
                        }
                    }
                } else {
                    match self.pick_branch() {
                        None => {
                            let model = self.extract_model();
                            self.cancel_until(0);
                            return SatResult::Sat(model);
                        }
                        Some(p) => {
                            self.stats.decisions += 1;
                            self.new_decision_level();
                            self.enqueue(p, NO_REASON);
                        }
                    }
                }
            }
        }
    }

    fn extract_model(&self) -> Model {
        let values = self.assign.iter().map(|&a| a == LBool::True).collect();
        Model::from_values(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: usize, pos: bool) -> Lit {
        Lit::new(Var::new(v), pos)
    }

    #[test]
    fn empty_solver_is_sat() {
        assert!(Solver::new().solve().is_sat());
    }

    #[test]
    fn single_unit() {
        let mut s = Solver::new();
        s.add_clause([lit(0, true)]);
        let m = match s.solve() {
            SatResult::Sat(m) => m,
            other => panic!("expected sat, got {other:?}"),
        };
        assert!(m.value(Var::new(0)));
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut s = Solver::new();
        assert!(s.add_clause([lit(0, true)]));
        assert!(!s.add_clause([lit(0, false)]));
        assert!(s.solve().is_unsat());
        // Once unsat, always unsat.
        assert!(s.solve().is_unsat());
        assert!(!s.add_clause([lit(1, true)]));
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause([]));
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn simple_implication_chain() {
        // x0 ∧ (¬x0 ∨ x1) ∧ (¬x1 ∨ x2) forces all true.
        let mut s = Solver::new();
        s.add_clause([lit(0, true)]);
        s.add_clause([lit(0, false), lit(1, true)]);
        s.add_clause([lit(1, false), lit(2, true)]);
        match s.solve() {
            SatResult::Sat(m) => {
                assert!(m.value(Var::new(0)));
                assert!(m.value(Var::new(1)));
                assert!(m.value(Var::new(2)));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn unsat_requires_learning() {
        // The 8 clauses over 3 vars forbidding every assignment.
        let mut s = Solver::new();
        for bits in 0..8u8 {
            let c: Vec<Lit> = (0..3).map(|i| lit(i, bits >> i & 1 == 0)).collect();
            s.add_clause(c);
        }
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn tautologies_are_ignored() {
        let mut s = Solver::new();
        s.add_clause([lit(0, true), lit(0, false)]);
        assert_eq!(s.num_clauses(), 0);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn duplicate_literals_are_merged() {
        let mut s = Solver::new();
        s.add_clause([lit(0, true), lit(0, true), lit(1, false)]);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn assumptions_restrict_but_do_not_commit() {
        let mut s = Solver::new();
        s.add_clause([lit(0, true), lit(1, true)]);
        // Assuming ¬x0 forces x1.
        match s.solve_with_assumptions(&[lit(0, false)]) {
            SatResult::Sat(m) => {
                assert!(!m.value(Var::new(0)));
                assert!(m.value(Var::new(1)));
            }
            other => panic!("expected sat, got {other:?}"),
        }
        // Contradictory assumptions are unsat, but the solver recovers.
        assert!(s
            .solve_with_assumptions(&[lit(0, false), lit(1, false)])
            .is_unsat());
        assert!(s.solve().is_sat());
    }

    #[test]
    fn assumption_of_level0_false_literal_is_unsat() {
        let mut s = Solver::new();
        s.add_clause([lit(0, true)]);
        assert!(s.solve_with_assumptions(&[lit(0, false)]).is_unsat());
        assert!(s.solve().is_sat());
    }

    #[test]
    fn incremental_blocking_enumerates_models() {
        // x0 ∨ x1 has three models; block each in turn.
        let mut s = Solver::new();
        s.add_clause([lit(0, true), lit(1, true)]);
        let mut count = 0;
        loop {
            match s.solve() {
                SatResult::Sat(m) => {
                    count += 1;
                    assert!(count <= 3, "more models than expected");
                    let blocking: Vec<Lit> = (0..2)
                        .map(|v| Lit::new(Var::new(v), !m.value(Var::new(v))))
                        .collect();
                    s.add_clause(blocking);
                }
                SatResult::Unsat => break,
                SatResult::Unknown | SatResult::Interrupted => panic!("no limit set"),
            }
        }
        assert_eq!(count, 3);
    }

    #[test]
    fn conflict_limit_returns_unknown() {
        // A formula hard enough to need more than one conflict:
        // pigeonhole PHP(4,3).
        let f = pigeonhole(4, 3);
        let mut s = Solver::from_formula(&f);
        s.set_conflict_limit(Some(1));
        assert_eq!(s.solve(), SatResult::Unknown);
        s.set_conflict_limit(None);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn budget_conflict_ceiling_interrupts() {
        let f = pigeonhole(4, 3);
        let mut s = Solver::from_formula(&f);
        s.set_budget(Budget::new().max_conflicts(1));
        assert_eq!(s.solve(), SatResult::Interrupted);
        // Clearing the budget restores completeness on the same solver.
        s.set_budget(Budget::default());
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn budget_expired_deadline_interrupts_immediately() {
        let f = pigeonhole(5, 4);
        let mut s = Solver::from_formula(&f);
        s.set_budget(Budget::new().deadline(std::time::Instant::now()));
        assert_eq!(s.solve(), SatResult::Interrupted);
    }

    #[test]
    fn budget_with_headroom_does_not_interfere() {
        let f = pigeonhole(4, 3);
        let mut s = Solver::from_formula(&f);
        s.set_budget(
            Budget::new()
                .max_conflicts(1_000_000)
                .deadline(std::time::Instant::now() + std::time::Duration::from_secs(3600)),
        );
        assert!(s.solve().is_unsat());
        assert!(s.budget().is_bounded());
    }

    /// PHP(m, n): m pigeons, n holes; unsat iff m > n.
    fn pigeonhole(pigeons: usize, holes: usize) -> CnfFormula {
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
    }

    #[test]
    fn pigeonhole_unsat() {
        for (m, n) in [(2, 1), (3, 2), (4, 3), (5, 4), (6, 5)] {
            let mut s = Solver::from_formula(&pigeonhole(m, n));
            assert!(s.solve().is_unsat(), "PHP({m},{n}) must be unsat");
        }
    }

    #[test]
    fn pigeonhole_sat_when_enough_holes() {
        for (m, n) in [(1, 1), (3, 3), (4, 5)] {
            let mut s = Solver::from_formula(&pigeonhole(m, n));
            let m_res = s.solve();
            let model = m_res.model().expect("PHP with enough holes is sat");
            // Verify the model against the formula.
            assert_eq!(pigeonhole(m, n).eval(model.values()), Some(true));
        }
    }

    #[test]
    fn model_satisfies_formula() {
        // A mid-size structured instance: parity chain.
        let mut f = CnfFormula::new();
        for i in 0..20 {
            f.add_lits([lit(i, true), lit(i + 1, true)]);
            f.add_lits([lit(i, false), lit(i + 1, false)]);
        }
        let mut s = Solver::from_formula(&f);
        match s.solve() {
            SatResult::Sat(m) => assert_eq!(f.eval(m.values()), Some(true)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::from_formula(&pigeonhole(4, 3));
        let _ = s.solve();
        assert!(s.stats().conflicts > 0);
        assert!(s.stats().propagations > 0);
        assert_eq!(s.stats().solves, 1);
    }

    #[test]
    fn clause_added_after_solve_takes_effect() {
        let mut s = Solver::new();
        s.add_clause([lit(0, true), lit(1, true)]);
        assert!(s.solve().is_sat());
        s.add_clause([lit(0, false)]);
        s.add_clause([lit(1, false)]);
        assert!(s.solve().is_unsat());
    }
}
