use cnf::{CnfFormula, Lit, Var};

use crate::arena::{ClauseArena, ClauseRef};
use crate::budget::{Budget, DEADLINE_CHECK_INTERVAL};
use crate::heap::ActivityHeap;
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

#[derive(Clone, Copy, Debug)]
struct Watcher {
    clause: ClauseRef,
    blocker: Lit,
}

/// Restart interval unit: conflicts per Luby term.
const RESTART_BASE: u64 = 100;
const VAR_DECAY: f64 = 0.95;
const CLAUSE_DECAY: f64 = 0.999;

/// A CDCL SAT solver with two-literal watching, 1UIP learning, VSIDS,
/// phase saving, Luby restarts, and learned-clause reduction.
///
/// The conflict path is deliberately plain: every restart follows the
/// Luby sequence (in units of 100 conflicts), and when the learned
/// clauses outgrow their cap the least-active half of those not
/// currently acting as reasons is deleted. BMC encodings are solved by
/// root propagation almost always, so the search rarely reaches
/// either.
///
/// The clause database is a single flat `u32` arena
/// ([`crate::arena`]): headers are inlined before the literals, clauses
/// are addressed by word offsets, and learned-clause reduction compacts
/// the buffer in place. Binary clauses skip the arena: they live in
/// per-literal implication lists that propagation walks before the
/// watcher lists. The propagation inner loop detaches the
/// active watcher list, walks it locally with blocker-first checks,
/// and swap-removes relocated watchers in O(1); conflict analysis
/// reuses a scratch buffer. Steady-state
/// search allocates only when a learned clause is appended to the
/// arena or a watcher list grows.
///
/// [`Solver::add_formula`] runs a root-level preprocessing pass (unit
/// propagation to fixpoint, duplicate-literal dedup, satisfied-clause
/// and false-literal elimination) so unit-heavy BMC encodings shrink
/// before search; the work is reported in
/// [`SolverStats::pre_units_fixed`] and friends.
///
/// Clauses can be added incrementally between `solve` calls, which is
/// how the xBMC counterexample loop works: solve, read off the model,
/// add a blocking clause, solve again — "we iteratively make Bi more
/// restrictive until it becomes unsatisfiable" (paper §3.3.2). The
/// solver is `Clone`, and cloning a freshly loaded solver is much
/// cheaper than re-ingesting the formula — the checker builds one base
/// solver per encoding and clones it per prover.
///
/// # Examples
///
/// ```
/// use cnf::Var;
/// use sat::{SatResult, Solver};
///
/// let x = Var::new(0).positive();
/// let mut s = Solver::new();
/// s.add_clause([x]);
/// assert!(s.solve().is_sat());
/// s.add_clause([!x]);
/// assert!(s.solve().is_unsat());
/// ```
#[derive(Clone, Debug)]
pub struct Solver {
    arena: ClauseArena,
    watches: Vec<Vec<Watcher>>,
    /// `bin_implications[l.code()]` lists every literal `o` such that
    /// the binary clause `(¬l ∨ o)` exists: when `l` becomes true,
    /// each `o` is implied. Binary clauses live only here — never in
    /// the arena — so propagating them touches one contiguous list and
    /// reduction/compaction never sees them.
    bin_implications: Vec<Vec<Lit>>,
    /// The two false literals of the last binary conflict (propagation
    /// returns a tagged [`ClauseRef`] that cannot carry both).
    bin_confl: [Lit; 2],
    assign: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<ClauseRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    cla_inc: f64,
    heap: ActivityHeap,
    saved_phase: Vec<bool>,
    seen: Vec<bool>,
    /// Scratch buffer recycled across conflict analyses.
    analyze_buf: Vec<Lit>,
    ok: bool,
    stats: SolverStats,
    budget: Budget,
    num_original: usize,
    /// Learned clauses living in the arena (binary learned clauses are
    /// counted separately — they are never reduced).
    num_learnt: usize,
    num_learnt_binary: usize,
    max_learnt: f64,
    proof: Option<Proof>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver {
            arena: ClauseArena::default(),
            watches: Vec::new(),
            bin_implications: Vec::new(),
            bin_confl: [Lit::from_code(0), Lit::from_code(0)],
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            cla_inc: 1.0,
            heap: ActivityHeap::new(),
            saved_phase: Vec::new(),
            seen: Vec::new(),
            analyze_buf: Vec::new(),
            ok: true,
            stats: SolverStats::default(),
            budget: Budget::default(),
            num_original: 0,
            num_learnt: 0,
            num_learnt_binary: 0,
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

    /// Adds every clause of `formula` after a root-level preprocessing
    /// pass: duplicate literals are merged, tautologies dropped, unit
    /// clauses propagated to fixpoint, and every clause simplified
    /// under the resulting root assignment (satisfied clauses removed,
    /// false literals stripped) before anything is attached to the
    /// watcher lists.
    ///
    /// Every variable the formula declares *or mentions* is declared
    /// explicitly up front — clauses over variables above
    /// `formula.num_vars()` are ingested like any other instead of
    /// relying on per-literal `ensure_var` side effects.
    pub fn add_formula(&mut self, formula: &CnfFormula) {
        let mut num_vars = formula.num_vars();
        for clause in formula.clauses() {
            for &l in clause.lits() {
                num_vars = num_vars.max(l.var().index() + 1);
            }
        }
        if num_vars > 0 {
            self.ensure_var(Var::new(num_vars - 1));
        }
        self.cancel_until(0);
        if !self.ok {
            return;
        }
        let trail_before = self.trail.len();

        // Phase 1: normalize every clause (dedup, drop tautologies)
        // without attaching anything yet. Literal order is preserved —
        // the first two surviving literals become the watched pair, so
        // on formulas preprocessing cannot simplify the search
        // trajectory stays identical to a solver without this pass.
        let mut pending: Vec<Vec<Lit>> = Vec::with_capacity(formula.num_clauses());
        'clauses: for clause in formula.clauses() {
            let mut lits: Vec<Lit> = Vec::with_capacity(clause.lits().len());
            for &l in clause.lits() {
                if lits.contains(&!l) {
                    self.stats.pre_clauses_removed += 1;
                    continue 'clauses;
                }
                if lits.contains(&l) {
                    self.stats.pre_lits_removed += 1;
                } else {
                    lits.push(l);
                }
            }
            pending.push(lits);
        }

        // Phase 2: root-level unit propagation to fixpoint, simplifying
        // the pending clauses under the growing root assignment. Each
        // sweep only shrinks clauses, so this terminates.
        loop {
            if self.propagate().is_some() {
                self.ok = false;
                break;
            }
            let units_before = self.trail.len();
            let mut conflict = false;
            pending.retain_mut(|lits| {
                if conflict {
                    return true;
                }
                let mut kept = 0usize;
                for i in 0..lits.len() {
                    match self.value(lits[i]) {
                        LBool::True => {
                            self.stats.pre_clauses_removed += 1;
                            return false;
                        }
                        LBool::False => {}
                        LBool::Undef => {
                            lits[kept] = lits[i];
                            kept += 1;
                        }
                    }
                }
                self.stats.pre_lits_removed += (lits.len() - kept) as u64;
                lits.truncate(kept);
                match kept {
                    0 => {
                        conflict = true;
                        true
                    }
                    1 => {
                        self.enqueue(lits[0], ClauseRef::UNDEF);
                        false
                    }
                    _ => true,
                }
            });
            if conflict {
                self.ok = false;
                break;
            }
            if self.trail.len() == units_before {
                break; // fixpoint: no new units, nothing left to simplify
            }
        }
        self.stats.pre_units_fixed += (self.trail.len() - trail_before) as u64;
        if !self.ok {
            return;
        }
        for lits in &pending {
            self.attach_clause(lits, false);
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
        self.reason.resize(n, ClauseRef::UNDEF);
        self.saved_phase.resize(n, false);
        self.seen.resize(n, false);
        self.watches.resize(n * 2, Vec::new());
        self.bin_implications.resize(n * 2, Vec::new());
        self.heap.grow(n);
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of original (problem) clauses currently stored. After
    /// [`Solver::add_formula`] preprocessing this counts the clauses
    /// that survived simplification.
    pub fn num_clauses(&self) -> usize {
        self.num_original
    }

    /// Work counters.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
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

    /// The proof recorded so far without stopping recording, if
    /// recording is on.
    ///
    /// Every `Add` step is RUP against the loaded clauses alone even
    /// when solves ran under assumptions: assumptions act as decisions
    /// and never enter conflict-clause resolution, so a snapshot of the
    /// prefix can seed a certificate for an
    /// unsatisfiable-under-assumption answer while the solver keeps
    /// accumulating clauses for later solves.
    pub fn proof(&self) -> Option<&Proof> {
        self.proof.as_ref()
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
                self.enqueue(filtered[0], ClauseRef::UNDEF);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(&filtered, false);
                true
            }
        }
    }

    /// Attaches a clause of ≥ 2 literals. Binary clauses go to the
    /// implication lists (the returned ref is then a tagged binary
    /// reason for `lits[0]`); longer clauses go to the arena and the
    /// watcher lists.
    fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        if lits.len() == 2 {
            self.attach_binary(lits[0], lits[1], learnt);
            return ClauseRef::binary(lits[1]);
        }
        let c = self.arena.alloc(lits, learnt);
        self.watches[lits[0].code()].push(Watcher {
            clause: c,
            blocker: lits[1],
        });
        self.watches[lits[1].code()].push(Watcher {
            clause: c,
            blocker: lits[0],
        });
        if learnt {
            self.num_learnt += 1;
            self.sync_learnt_count();
        } else {
            self.num_original += 1;
        }
        c
    }

    /// Attaches the binary clause `(a ∨ b)` to the implication lists:
    /// `¬a → b` and `¬b → a`.
    fn attach_binary(&mut self, a: Lit, b: Lit, learnt: bool) {
        debug_assert_ne!(a.var(), b.var());
        self.bin_implications[(!a).code()].push(b);
        self.bin_implications[(!b).code()].push(a);
        if learnt {
            self.num_learnt_binary += 1;
            self.sync_learnt_count();
        } else {
            self.num_original += 1;
        }
    }

    fn sync_learnt_count(&mut self) {
        self.stats.learnt_clauses = (self.num_learnt + self.num_learnt_binary) as u64;
    }

    #[inline]
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

    fn enqueue(&mut self, p: Lit, reason: ClauseRef) {
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
            self.reason[v] = ClauseRef::UNDEF;
            self.heap.insert(v);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target);
        self.qhead = bound;
    }

    /// Unit propagation. Returns the conflicting clause, or `None` when
    /// a fixpoint is reached.
    ///
    /// The active watcher list is detached with `mem::take` (three
    /// pointer writes, no allocation) and walked as a local vector, so
    /// the dominant blocker-true path costs one bounds check instead of
    /// re-resolving `watches[widx][i]` through two indirections per
    /// watcher — the double lookup cannot be hoisted past the
    /// `watches[cand]` pushes, and it is what the walk spends its time
    /// on once ALLSAT blocking clauses pile thousands of watchers onto
    /// a few branch literals. A watcher leaves the list only when its
    /// clause found a replacement watch (`swap_remove`, O(1) at any
    /// position); replacement watches always go onto *other* lists (the
    /// candidate literal is non-false, the list's literal is false), so
    /// detachment is sound and the iteration bound only shrinks.
    fn propagate(&mut self) -> Option<ClauseRef> {
        // Disjoint field borrows: the arena's literal slice stays live
        // across a clause visit while watcher lists and the trail are
        // updated beside it.
        let Solver {
            arena,
            watches,
            bin_implications,
            bin_confl,
            assign,
            level,
            reason,
            trail,
            trail_lim,
            qhead,
            stats,
            ..
        } = self;
        #[inline]
        fn value_of(assign: &[LBool], l: Lit) -> LBool {
            match assign[l.var().index()] {
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
        let dl = trail_lim.len() as u32;
        while *qhead < trail.len() {
            let p = trail[*qhead];
            *qhead += 1;
            stats.propagations += 1;
            // Binary fast path: every implication of `p` lives in one
            // contiguous list; no arena access, no watcher juggling.
            let bins = &bin_implications[p.code()];
            for &o in bins {
                match value_of(assign, o) {
                    LBool::True => {}
                    LBool::Undef => {
                        stats.binary_propagations += 1;
                        let v = o.var().index();
                        assign[v] = if o.is_positive() {
                            LBool::True
                        } else {
                            LBool::False
                        };
                        level[v] = dl;
                        reason[v] = ClauseRef::binary(!p);
                        trail.push(o);
                    }
                    LBool::False => {
                        // Binary conflict: both literals of (¬p ∨ o)
                        // are false. The tagged ref cannot carry the
                        // pair, so it is stashed for `analyze`.
                        *bin_confl = [o, !p];
                        *qhead = trail.len();
                        return Some(ClauseRef::binary(o));
                    }
                }
            }
            let false_lit = !p;
            let widx = false_lit.code();
            let mut ws = std::mem::take(&mut watches[widx]);
            let mut i = 0usize;
            'watchers: while i < ws.len() {
                let w = ws[i];
                // Fast path: blocker already true — keep the watcher
                // without touching the clause or the list.
                if value_of(assign, w.blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                let c = w.clause;
                let cl = arena.lits_mut(c);
                // Make sure the false literal is at position 1.
                if Lit::from_code(cl[0] as usize) == false_lit {
                    cl.swap(0, 1);
                }
                debug_assert_eq!(Lit::from_code(cl[1] as usize), false_lit);
                let first = Lit::from_code(cl[0] as usize);
                if first != w.blocker && value_of(assign, first) == LBool::True {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a replacement watch; when found, the clause
                // leaves this list and the last watcher is swapped into
                // the hole to be re-examined.
                for k in 2..cl.len() {
                    let cand = Lit::from_code(cl[k] as usize);
                    if value_of(assign, cand) != LBool::False {
                        cl.swap(1, k);
                        debug_assert_ne!(cand.code(), widx);
                        watches[cand.code()].push(Watcher {
                            clause: c,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting; the watcher stays.
                i += 1;
                if value_of(assign, first) == LBool::False {
                    // Conflict: reattach the list and report.
                    watches[widx] = ws;
                    *qhead = trail.len();
                    return Some(c);
                }
                // Unit: enqueue `first` with this clause as its reason.
                let v = first.var().index();
                debug_assert_eq!(assign[v], LBool::Undef);
                assign[v] = if first.is_positive() {
                    LBool::True
                } else {
                    LBool::False
                };
                level[v] = dl;
                reason[v] = c;
                trail.push(first);
            }
            watches[widx] = ws;
        }
        None
    }

    fn bump_clause(&mut self, c: ClauseRef) {
        debug_assert!(!c.is_binary());
        let a = self.arena.activity(c) + self.cla_inc as f32;
        self.arena.set_activity(c, a);
        if a > 1e20 {
            self.arena.rescale_activities(1e-20);
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.heap.decay(VAR_DECAY);
        self.cla_inc /= CLAUSE_DECAY;
    }

    /// First-UIP conflict analysis into `learnt` (a recycled scratch
    /// buffer; the asserting literal ends at index 0). Returns the
    /// backjump level. Clause literals are read straight out of the
    /// arena — nothing is cloned.
    fn analyze(&mut self, confl: ClauseRef, learnt: &mut Vec<Lit>) -> usize {
        learnt.clear();
        learnt.push(Lit::from_code(0)); // placeholder for the UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = confl;
        let current_level = self.decision_level() as u32;
        loop {
            if confl.is_binary() {
                // A binary reason contributes only its non-implied
                // literal; the initial binary conflict contributes the
                // stashed pair.
                if p.is_none() {
                    let pair = self.bin_confl;
                    for q in pair {
                        self.analyze_visit(q, current_level, &mut counter, learnt);
                    }
                } else {
                    let q = confl.binary_other();
                    self.analyze_visit(q, current_level, &mut counter, learnt);
                }
            } else {
                if self.arena.is_learnt(confl) {
                    self.bump_clause(confl);
                }
                let len = self.arena.len(confl);
                let start = usize::from(p.is_some());
                for k in start..len {
                    let q = self.arena.lit(confl, k);
                    self.analyze_visit(q, current_level, &mut counter, learnt);
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
            confl = self.reason[pl.var().index()];
        }
        self.minimize_learnt(learnt);
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
        for &l in learnt.iter() {
            self.seen[l.var().index()] = false;
        }
        backjump
    }

    #[inline]
    fn analyze_visit(
        &mut self,
        q: Lit,
        current_level: u32,
        counter: &mut usize,
        learnt: &mut Vec<Lit>,
    ) {
        let v = q.var().index();
        if !self.seen[v] && self.level[v] > 0 {
            self.seen[v] = true;
            self.heap.bump(v);
            if self.level[v] >= current_level {
                *counter += 1;
            } else {
                learnt.push(q);
            }
        }
    }

    /// Local (non-recursive) learned-clause minimization: a literal is
    /// redundant if its reason clause's other literals are all already in
    /// the learned clause (marked `seen`).
    fn minimize_learnt(&mut self, learnt: &mut Vec<Lit>) {
        let mut kept = 1usize;
        for i in 1..learnt.len() {
            let l = learnt[i];
            let r = self.reason[l.var().index()];
            let redundant = if r.is_undef() {
                false
            } else if r.is_binary() {
                let q = r.binary_other();
                self.seen[q.var().index()] || self.level[q.var().index()] == 0
            } else {
                let len = self.arena.len(r);
                (0..len).all(|k| {
                    let q = self.arena.lit(r, k);
                    q == !l || self.seen[q.var().index()] || self.level[q.var().index()] == 0
                })
            };
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

    /// Learned-clause reduction: deletes the least-active half of the
    /// unlocked learned clauses in the arena (the policy
    /// [`crate::reference`] uses). Locked clauses — current reasons —
    /// always survive, and binary learned clauses never enter the
    /// arena, so they are kept too. Each deletion is logged as a proof
    /// `Delete`, and the arena is compacted afterwards.
    fn reduce_db(&mut self) {
        let mut learnt_refs: Vec<ClauseRef> = self
            .arena
            .refs()
            .filter(|&c| self.arena.is_learnt(c) && !self.arena.is_deleted(c) && !self.is_locked(c))
            .collect();
        learnt_refs.sort_by(|&a, &b| {
            self.arena
                .activity(a)
                .partial_cmp(&self.arena.activity(b))
                .expect("clause activities are finite")
        });
        let to_delete = learnt_refs.len() / 2;
        for &c in &learnt_refs[..to_delete] {
            if self.proof.is_some() {
                let lits = self.arena.lits_vec(c);
                self.record(ProofStep::Delete(lits));
            }
            self.arena.delete(c);
            self.num_learnt -= 1;
            self.stats.deleted_clauses += 1;
        }
        self.sync_learnt_count();
        if self.arena.wasted() > 0 {
            self.garbage_collect();
        }
    }

    /// Compacts the clause arena and remaps every outstanding
    /// [`ClauseRef`] (watcher lists and reason pointers). Watchers of
    /// deleted clauses are dropped here, so propagation never sees a
    /// dead clause.
    fn garbage_collect(&mut self) {
        let new_arena = self.arena.compact_into();
        let old = &self.arena;
        for ws in self.watches.iter_mut() {
            ws.retain_mut(|w| match old.forward(w.clause) {
                Some(nc) => {
                    w.clause = nc;
                    true
                }
                None => false,
            });
        }
        for r in self.reason.iter_mut() {
            // Binary reasons encode a literal, not an arena offset —
            // they survive compaction untouched.
            if !r.is_undef() && !r.is_binary() {
                *r = old
                    .forward(*r)
                    .expect("reason clauses are locked and survive reduction");
            }
        }
        self.arena = new_arena;
    }

    fn is_locked(&self, c: ClauseRef) -> bool {
        let first = self.arena.lit(c, 0);
        self.reason[first.var().index()] == c && self.value(first) == LBool::True
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap.pop_max() {
            if self.assign[v] == LBool::Undef {
                let var = Var::new(v);
                return Some(Lit::new(var, self.saved_phase[v]));
            }
        }
        None
    }

    /// Shrinks a satisfying cube to a (locally) minimal implicant of
    /// `target` by greedy literal dropping with a propagation check.
    ///
    /// `cube` must be a set of literals that, together with the clause
    /// database, forces `target` — typically a slice of the model the
    /// last [`solve`](Self::solve) call produced, restricted to the
    /// input variables of interest. For each literal in turn the solver
    /// asks whether the remaining literals still unit-propagate
    /// `target` to true; if so the literal is a don't-care and is
    /// dropped. The returned subcube therefore still implies `target`
    /// (every extension of it violates the assertion it encodes), but
    /// may be exponentially smaller as a cover of assignments.
    ///
    /// The check runs at a throwaway decision level and unwinds to the
    /// root before returning, so the solver's clause database, trail
    /// and activities are unaffected apart from saved phases and the
    /// [`SolverStats::cube_shrink_calls`] /
    /// [`SolverStats::cube_lits_dropped`] counters.
    pub fn shrink_cube(&mut self, cube: &[Lit], target: Lit) -> Vec<Lit> {
        self.cancel_until(0);
        self.stats.cube_shrink_calls += 1;
        for l in cube {
            self.ensure_var(l.var());
        }
        self.ensure_var(target.var());
        let mut kept: Vec<Lit> = cube.to_vec();
        let mut i = 0;
        while i < kept.len() {
            // Would the cube minus kept[i] still force the target?
            self.new_decision_level();
            let mut consistent = true;
            for (j, &l) in kept.iter().enumerate() {
                if j == i {
                    continue;
                }
                match self.value(l) {
                    LBool::True => {}
                    LBool::False => {
                        consistent = false;
                        break;
                    }
                    LBool::Undef => self.enqueue(l, ClauseRef::UNDEF),
                }
            }
            let forced =
                consistent && self.propagate().is_none() && self.value(target) == LBool::True;
            self.cancel_until(0);
            if forced {
                kept.remove(i);
                self.stats.cube_lits_dropped += 1;
            } else {
                i += 1;
            }
        }
        kept
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
                self.heap.insert(v);
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
        self.max_learnt = (self.num_clauses() as f64 / 3.0).max(1000.0);
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
                let mut learnt = std::mem::take(&mut self.analyze_buf);
                let backjump = self.analyze(confl, &mut learnt);
                if self.proof.is_some() {
                    self.record(ProofStep::Add(learnt.clone()));
                }
                self.cancel_until(backjump);
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], ClauseRef::UNDEF);
                } else {
                    let asserting = learnt[0];
                    let c = self.attach_clause(&learnt, true);
                    if !c.is_binary() {
                        self.bump_clause(c);
                    }
                    self.enqueue(asserting, c);
                }
                self.analyze_buf = learnt;
                self.decay_activities();
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
                            self.enqueue(p, ClauseRef::UNDEF);
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
                            self.enqueue(p, ClauseRef::UNDEF);
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
    fn shrink_cube_drops_dont_care_literals() {
        // target ← x0 ∨ x1 (Tseitin): with x0 true, x1 and x2 are
        // don't-cares for the target.
        let mut s = Solver::new();
        let target = lit(3, true);
        s.add_clause([lit(0, false), target]);
        s.add_clause([lit(1, false), target]);
        s.add_clause([!target, lit(0, true), lit(1, true)]);
        s.ensure_var(Var::new(2));
        let cube = [lit(0, true), lit(1, false), lit(2, true)];
        let shrunk = s.shrink_cube(&cube, target);
        assert_eq!(shrunk, vec![lit(0, true)]);
        assert_eq!(s.stats().cube_shrink_calls, 1);
        assert_eq!(s.stats().cube_lits_dropped, 2);
        // The solver is unperturbed: still satisfiable, still at root.
        assert!(s.solve().is_sat());
    }

    #[test]
    fn shrink_cube_keeps_required_literals() {
        // target ← x0 ∧ x1: neither literal can be dropped.
        let mut s = Solver::new();
        let target = lit(2, true);
        s.add_clause([lit(0, false), lit(1, false), target]);
        s.add_clause([!target, lit(0, true)]);
        s.add_clause([!target, lit(1, true)]);
        let cube = [lit(0, true), lit(1, true)];
        let shrunk = s.shrink_cube(&cube, target);
        assert_eq!(shrunk, cube.to_vec());
        assert_eq!(s.stats().cube_lits_dropped, 0);
    }

    #[test]
    fn shrink_cube_can_return_empty_when_target_is_forced() {
        let mut s = Solver::new();
        let target = lit(1, true);
        s.add_clause([target]);
        let shrunk = s.shrink_cube(&[lit(0, true)], target);
        assert!(shrunk.is_empty());
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

    #[test]
    fn preprocessing_fixes_units_and_shrinks_clauses() {
        // x0 is a unit; (¬x0 ∨ x1) becomes the unit x1; (x0 ∨ x5) is
        // satisfied at the root; (¬x1 ∨ x2 ∨ x3) loses ¬x1.
        let mut f = CnfFormula::new();
        f.add_lits([lit(0, true)]);
        f.add_lits([lit(0, false), lit(1, true)]);
        f.add_lits([lit(0, true), lit(5, true)]);
        f.add_lits([lit(1, false), lit(2, true), lit(3, true)]);
        let s = Solver::from_formula(&f);
        // Only the shrunk (x2 ∨ x3) clause survives as an attached clause.
        assert_eq!(s.num_clauses(), 1);
        assert!(s.stats().pre_units_fixed >= 2, "x0 and x1 are root units");
        assert!(s.stats().pre_clauses_removed >= 1);
        assert!(s.stats().pre_lits_removed >= 1);
        let mut s = s;
        match s.solve() {
            SatResult::Sat(m) => {
                assert!(m.value(Var::new(0)));
                assert!(m.value(Var::new(1)));
                assert_eq!(f.eval(&m.values()[..f.num_vars()]), Some(true));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn preprocessing_detects_root_unsat() {
        // Units force x0 and the last clause then empties.
        let mut f = CnfFormula::new();
        f.add_lits([lit(0, true)]);
        f.add_lits([lit(0, false), lit(1, true)]);
        f.add_lits([lit(1, false)]);
        let mut s = Solver::from_formula(&f);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn out_of_order_variable_declaration() {
        // Regression (satellite): a formula whose clauses mention
        // variables in descending order — every variable must be
        // declared explicitly, not via incidental ensure_var ordering.
        let mut f = CnfFormula::new();
        f.add_lits([lit(9, true), lit(7, true)]);
        f.add_lits([lit(3, false), lit(9, false)]);
        f.add_lits([lit(0, true)]);
        let mut s = Solver::from_formula(&f);
        assert_eq!(s.num_vars(), 10);
        match s.solve() {
            SatResult::Sat(m) => {
                assert!(m.len() >= 10);
                assert_eq!(f.eval(&m.values()[..f.num_vars()]), Some(true));
            }
            other => panic!("expected sat, got {other:?}"),
        }
        // A formula declaring more vars than its clauses mention still
        // declares them all.
        let mut g = CnfFormula::with_vars(16);
        g.add_lits([lit(2, true)]);
        let s2 = Solver::from_formula(&g);
        assert_eq!(s2.num_vars(), 16);
    }

    #[test]
    fn cloned_solver_solves_independently() {
        let f = pigeonhole(4, 3);
        let base = Solver::from_formula(&f);
        let mut a = base.clone();
        let mut b = base.clone();
        assert!(a.solve().is_unsat());
        // `a`'s search must not have polluted `b`.
        assert_eq!(b.stats().conflicts, 0);
        assert!(b.solve().is_unsat());
        let mut c = base.clone();
        c.add_clause([lit(0, true)]);
        assert!(c.solve().is_unsat());
    }

    #[test]
    fn reduction_and_compaction_preserve_answers() {
        let f = pigeonhole(6, 5);
        let mut s = Solver::from_formula(&f);
        // Accumulate some learnt clauses: the budget interrupts the
        // search with the database populated.
        s.set_budget(Budget::new().max_conflicts(40));
        assert_eq!(s.solve(), SatResult::Interrupted);
        s.set_budget(Budget::default());
        let learnt_before = s.stats().learnt_clauses;
        s.reduce_db();
        assert_eq!(
            s.stats().deleted_clauses + s.stats().learnt_clauses,
            learnt_before
        );
        assert!(s.solve().is_unsat());

        // Satisfiable instance across a forced reduction.
        let g = pigeonhole(5, 6);
        let mut s = Solver::from_formula(&g);
        s.set_budget(Budget::new().max_conflicts(20));
        let _ = s.solve();
        s.set_budget(Budget::default());
        s.reduce_db();
        match s.solve() {
            SatResult::Sat(m) => assert_eq!(g.eval(&m.values()[..g.num_vars()]), Some(true)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn fully_binary_instance_uses_implication_lists() {
        // PHP(3,2) is made of binary clauses only: pigeon clauses over
        // 2 holes and pairwise hole-exclusion clauses. Everything must
        // flow through the implication lists.
        let mut s = Solver::from_formula(&pigeonhole(3, 2));
        assert!(s.solve().is_unsat());
        assert!(s.stats().binary_propagations > 0);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn learned_binary_clauses_act_as_reasons() {
        // PHP(4,3) mixes ternary pigeon clauses with binary hole
        // clauses; refuting it forces binary reasons through conflict
        // analysis and minimization.
        let mut s = Solver::from_formula(&pigeonhole(4, 3));
        assert!(s.solve().is_unsat());
        assert!(s.stats().binary_propagations > 0);
    }

    #[test]
    fn reduce_db_keeps_locked_clauses_and_the_more_active_half() {
        let mut s = Solver::new();
        s.ensure_var(Var::new(12));
        // Six unlocked learned clauses with activities 1..=6 ...
        let unlocked: Vec<Vec<Lit>> = (0..6)
            .map(|i| vec![lit(i, true), lit(i + 1, true), lit(i + 2, true)])
            .collect();
        for (i, lits) in unlocked.iter().enumerate() {
            let c = s.attach_clause(lits, true);
            s.arena.set_activity(c, (i + 1) as f32);
        }
        // ... and a locked one with the lowest activity of all: once x11
        // and x12 are decided it is the reason for x10.
        let mut locked = vec![lit(10, true), lit(11, false), lit(12, false)];
        let c = s.attach_clause(&locked, true);
        s.arena.set_activity(c, 0.0);
        for d in [lit(11, true), lit(12, true)] {
            s.new_decision_level();
            s.enqueue(d, ClauseRef::UNDEF);
            assert!(s.propagate().is_none());
        }
        assert_eq!(s.value(lit(10, true)), LBool::True);

        s.reduce_db();
        assert_eq!(s.stats().deleted_clauses, 3);
        assert_eq!(s.stats().learnt_clauses, 4);
        let mut live: Vec<Vec<Lit>> = s
            .arena
            .refs()
            .filter(|&c| !s.arena.is_deleted(c))
            .map(|c| {
                let mut lits = s.arena.lits_vec(c);
                lits.sort_unstable();
                lits
            })
            .collect();
        live.sort_unstable();
        locked.sort_unstable();
        let mut expected: Vec<Vec<Lit>> = unlocked[3..].to_vec();
        expected.push(locked.clone());
        expected.sort_unstable();
        assert_eq!(live, expected, "the least-active unlocked half is gone");
        // The reason pointer was forwarded through compaction.
        let reason = s.reason[10];
        assert!(s.is_locked(reason));
        let mut reason_lits = s.arena.lits_vec(reason);
        reason_lits.sort_unstable();
        assert_eq!(reason_lits, locked);
    }

    #[test]
    fn proof_survives_reduction_and_compaction() {
        let f = pigeonhole(6, 5);
        let mut s = Solver::from_formula(&f);
        s.start_proof();
        s.set_budget(Budget::new().max_conflicts(40));
        assert_eq!(s.solve(), SatResult::Interrupted);
        s.set_budget(Budget::default());
        s.reduce_db();
        assert!(s.stats().deleted_clauses > 0, "the run crossed a reduction");
        assert!(s.solve().is_unsat());
        let proof = s.take_proof().expect("recording was on");
        assert!(proof.proves_unsat());
        proof.verify_refutation(&f).expect("proof checks");
    }
}
