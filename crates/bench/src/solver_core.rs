//! The solver-core suite behind `BENCH_sat.json`: the arena solver
//! measured head-to-head against the frozen pre-refactor implementation
//! ([`sat::reference::Solver`]) on three workload families —
//!
//! * **propagation-bound** — parallel implication chains with
//!   scattered clause storage, re-propagated from scratch on every
//!   solve; no conflicts, no root units (so `add_formula` preprocessing
//!   cannot shortcut it), pure watcher-walk and clause-access
//!   throughput.
//! * **conflict-bound** — pigeonhole instances, random 3-SAT at the
//!   phase-transition ratio, and a BMC-shaped unrolled-counter unsat
//!   family; dominated by conflict analysis, learning, and
//!   clause-database maintenance (activity-based reduction, binary
//!   implication lists, Luby restarts). The headline is the
//!   geometric-mean speedup across the family, and a vacuity guard
//!   fails the run if any conflict workload stops producing conflicts.
//! * **enumeration-bound** — the xBMC counterexample loop (paper
//!   §3.3.2) over a branchy program's renaming encoding; repeated
//!   solve-plus-blocking-clause with a per-assertion selector, exactly
//!   as `Xbmc::check_all` drives it.
//!
//! Every workload records wall time and solver counters for both
//! solvers; enumeration workloads additionally record an
//! order-independent fingerprint of the counterexample set, which the
//! CI smoke job compares against the committed `BENCH_sat.json` so a
//! solver change that silently alters enumeration results fails the
//! build.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use cnf::{CnfFormula, Lit, Var};
use jsonio::Value;
use sat::{SatResult, SolverStats};
use taint_lattice::TwoPoint;
use webssari_ir::AiProgram;

use crate::branchy_program;

/// The two solver generations under measurement, behind one interface.
trait CoreSolver {
    /// Ingests a formula into a fresh solver.
    fn build(f: &CnfFormula) -> Self;
    /// Solves under assumptions.
    fn assume(&mut self, assumptions: &[Lit]) -> SatResult;
    /// Adds a clause.
    fn add(&mut self, lits: Vec<Lit>) -> bool;
    /// Work counters.
    fn counters(&self) -> SolverStats;
}

impl CoreSolver for sat::Solver {
    fn build(f: &CnfFormula) -> Self {
        sat::Solver::from_formula(f)
    }

    fn assume(&mut self, assumptions: &[Lit]) -> SatResult {
        self.solve_with_assumptions(assumptions)
    }

    fn add(&mut self, lits: Vec<Lit>) -> bool {
        self.add_clause(lits)
    }

    fn counters(&self) -> SolverStats {
        *self.stats()
    }
}

impl CoreSolver for sat::reference::Solver {
    fn build(f: &CnfFormula) -> Self {
        sat::reference::Solver::from_formula(f)
    }

    fn assume(&mut self, assumptions: &[Lit]) -> SatResult {
        self.solve_with_assumptions(assumptions)
    }

    fn add(&mut self, lits: Vec<Lit>) -> bool {
        self.add_clause(lits)
    }

    fn counters(&self) -> SolverStats {
        *self.stats()
    }
}

/// One solver's measurement on one workload.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    /// Wall time of the measured phase (formula ingestion included).
    pub wall: Duration,
    /// Literals propagated.
    pub propagations: u64,
    /// Conflicts found.
    pub conflicts: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Propagations served by binary implication lists (always zero on
    /// the reference solver, which has no such lists).
    pub binary_propagations: u64,
}

impl Side {
    fn new(wall: Duration, s: &SolverStats) -> Side {
        Side {
            wall,
            propagations: s.propagations,
            conflicts: s.conflicts,
            decisions: s.decisions,
            restarts: s.restarts,
            binary_propagations: s.binary_propagations,
        }
    }

    fn to_value(self) -> Value {
        Value::obj(vec![
            ("wall_us", Value::Num(self.wall.as_micros() as u64)),
            ("propagations", Value::Num(self.propagations)),
            ("conflicts", Value::Num(self.conflicts)),
            ("decisions", Value::Num(self.decisions)),
            ("restarts", Value::Num(self.restarts)),
            ("binary_propagations", Value::Num(self.binary_propagations)),
        ])
    }
}

/// One workload's before/after measurement.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Stable workload name (the `--check` comparison key).
    pub name: String,
    /// Workload family: `propagation`, `conflict`, or `enumeration`.
    pub kind: &'static str,
    /// The deterministic outcome: `sat`/`unsat` for solve workloads, a
    /// counterexample count for enumeration workloads.
    pub verdict: String,
    /// Arena solver measurement (the "after" number).
    pub arena: Side,
    /// Reference solver measurement (the "before" number).
    pub reference: Side,
    /// Order-independent FNV-1a fingerprint of the enumerated
    /// counterexample set, for enumeration workloads.
    pub fingerprint: Option<u64>,
    /// Blocking cubes learned, for cube-generalized enumeration
    /// workloads.
    pub cubes_learned: Option<u64>,
    /// Distinct assignments covered by the learned cubes, for
    /// cube-generalized enumeration workloads.
    pub cube_assignments: Option<u64>,
}

impl WorkloadResult {
    /// `reference.wall / arena.wall`, scaled by 100 (jsonio stores only
    /// integers).
    pub fn speedup_x100(&self) -> u64 {
        let arena_us = self.arena.wall.as_micros().max(1) as u64;
        let reference_us = self.reference.wall.as_micros() as u64;
        reference_us * 100 / arena_us
    }
}

/// A full suite run.
#[derive(Clone, Debug)]
pub struct SuiteResult {
    /// `full` or `fast`.
    pub mode: &'static str,
    /// Per-workload measurements, in suite order.
    pub workloads: Vec<WorkloadResult>,
}

impl SuiteResult {
    /// The propagation-bound workload's speedup ×100 (the acceptance
    /// headline).
    pub fn propagation_speedup_x100(&self) -> u64 {
        self.workloads
            .iter()
            .filter(|w| w.kind == "propagation")
            .map(WorkloadResult::speedup_x100)
            .min()
            .unwrap_or(0)
    }

    /// Geometric-mean speedup ×100 across conflict-bound workloads (the
    /// clause-learning acceptance headline). Geometric, not minimum:
    /// conflict-count trajectories diverge per instance once the
    /// propagation order changes, so the family-wide ratio is the
    /// meaningful number, not the single worst lottery ticket.
    pub fn conflict_speedup_x100(&self) -> u64 {
        let logs: Vec<f64> = self
            .workloads
            .iter()
            .filter(|w| w.kind == "conflict")
            .map(|w| (w.speedup_x100() as f64 / 100.0).max(1e-9).ln())
            .collect();
        if logs.is_empty() {
            return 0;
        }
        let mean = logs.iter().sum::<f64>() / logs.len() as f64;
        (mean.exp() * 100.0).round() as u64
    }

    /// The minimum speedup ×100 across cube-generalized enumeration
    /// workloads (cube loop vs per-model loop on the same solver).
    pub fn cube_enumeration_speedup_x100(&self) -> u64 {
        self.workloads
            .iter()
            .filter(|w| w.cubes_learned.is_some())
            .map(WorkloadResult::speedup_x100)
            .min()
            .unwrap_or(0)
    }

    /// Mean assignments covered per learned cube across cube-generalized
    /// enumeration workloads, ×100 (jsonio stores only integers). A
    /// value of 100 means every cube was full-width — generalization
    /// did nothing.
    pub fn mean_assignments_per_cube_x100(&self) -> u64 {
        let cubes: u64 = self.workloads.iter().filter_map(|w| w.cubes_learned).sum();
        let assignments: u64 = self
            .workloads
            .iter()
            .filter_map(|w| w.cube_assignments)
            .sum();
        (assignments * 100).checked_div(cubes).unwrap_or(0)
    }

    /// Rejects vacuous runs. Cube workloads must cover strictly more
    /// assignments than they learned cubes (at least one cube dropped a
    /// literal), and at least one must have run. Conflict workloads
    /// must produce conflicts on *both* solvers — a conflict-bound
    /// instance that one side solves without learning anything means
    /// the workload stopped exercising the conflict path (e.g.
    /// preprocessing started solving it outright) and its speedup is
    /// measuring nothing; at least one conflict workload must have run.
    ///
    /// # Errors
    ///
    /// Returns a description of the vacuous workload, or of the missing
    /// workload family.
    pub fn vacuity_guard(&self) -> Result<(), String> {
        let mut saw_cubes = false;
        let mut saw_conflicts = false;
        for w in &self.workloads {
            if w.kind == "conflict" {
                saw_conflicts = true;
                if w.arena.conflicts == 0 || w.reference.conflicts == 0 {
                    return Err(format!(
                        "workload {}: zero conflicts (arena {}, reference {}) — \
                         the conflict path was never exercised",
                        w.name, w.arena.conflicts, w.reference.conflicts
                    ));
                }
            }
            let (Some(cubes), Some(assignments)) = (w.cubes_learned, w.cube_assignments) else {
                continue;
            };
            saw_cubes = true;
            if assignments <= cubes {
                return Err(format!(
                    "workload {}: {cubes} cube(s) cover only {assignments} assignment(s) — \
                     every cube is full-width, generalization did nothing",
                    w.name
                ));
            }
        }
        if !saw_cubes {
            return Err("no cube-generalized enumeration workload ran".into());
        }
        if !saw_conflicts {
            return Err("no conflict-bound workload ran".into());
        }
        Ok(())
    }

    /// Serializes the suite to the `BENCH_sat.json` document.
    pub fn to_json(&self) -> Value {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                let mut pairs = vec![
                    ("name", Value::str(w.name.clone())),
                    ("kind", Value::str(w.kind)),
                    ("verdict", Value::str(w.verdict.clone())),
                    ("arena", w.arena.to_value()),
                    ("reference", w.reference.to_value()),
                    ("speedup_x100", Value::Num(w.speedup_x100())),
                ];
                if let Some(fp) = w.fingerprint {
                    pairs.push(("fingerprint", Value::str(format!("{fp:016x}"))));
                }
                if let Some(c) = w.cubes_learned {
                    pairs.push(("cubes_learned", Value::Num(c)));
                }
                if let Some(c) = w.cube_assignments {
                    pairs.push(("cube_assignments", Value::Num(c)));
                }
                Value::obj(pairs)
            })
            .collect();
        Value::obj(vec![
            ("schema", Value::str("bench_sat/v2")),
            ("mode", Value::str(self.mode)),
            (
                "summary",
                Value::obj(vec![
                    (
                        "propagation_speedup_x100",
                        Value::Num(self.propagation_speedup_x100()),
                    ),
                    (
                        "conflict_speedup_x100",
                        Value::Num(self.conflict_speedup_x100()),
                    ),
                    (
                        "cube_enumeration_speedup_x100",
                        Value::Num(self.cube_enumeration_speedup_x100()),
                    ),
                    (
                        "mean_assignments_per_cube_x100",
                        Value::Num(self.mean_assignments_per_cube_x100()),
                    ),
                ]),
            ),
            ("workloads", Value::Arr(workloads)),
        ])
    }

    /// Compares this run's deterministic outcomes (verdicts,
    /// enumeration fingerprints — never wall times) against a committed
    /// `BENCH_sat.json` document.
    ///
    /// Timing workloads are sized per mode and matched by name, so a
    /// fast run checked against a committed full run only compares the
    /// workloads both have. Enumeration workloads are identical in
    /// every mode by construction and must always be present.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch.
    pub fn check_against(&self, committed: &Value) -> Result<(), String> {
        let committed_workloads = committed
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("committed BENCH_sat.json has no workloads array")?;
        for w in &self.workloads {
            let found = committed_workloads
                .iter()
                .find(|c| c.get("name").and_then(Value::as_str) == Some(w.name.as_str()));
            let c = match found {
                Some(c) => c,
                None if w.kind != "enumeration" => continue,
                None => return Err(format!("workload {} missing from committed file", w.name)),
            };
            let committed_verdict = c.get("verdict").and_then(Value::as_str).unwrap_or("");
            if committed_verdict != w.verdict {
                return Err(format!(
                    "workload {}: verdict {} != committed {committed_verdict}",
                    w.name, w.verdict
                ));
            }
            let committed_fp = c.get("fingerprint").and_then(Value::as_str);
            let current_fp = w.fingerprint.map(|fp| format!("{fp:016x}"));
            if committed_fp != current_fp.as_deref() {
                return Err(format!(
                    "workload {}: fingerprint {:?} != committed {:?}",
                    w.name, current_fp, committed_fp
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Workload construction
// ---------------------------------------------------------------------

/// Parallel implication chains with no root units: `chains` chains of
/// `len` steps, every step clause
/// `(¬x_{c,i} ∨ ¬g₁ ∨ ¬g₂ ∨ ¬g₃ ∨ x_{c,i+1})` width 5 so the watcher
/// walk scans literals past the watched pair, with the guards `gⱼ`
/// assumed true. Solving under the returned assumptions propagates
/// `chains · len` literals and never conflicts; with no unit clauses at
/// the root, `add_formula` preprocessing cannot simplify anything away
/// — this isolates the propagation data plane.
///
/// Clause insertion order is scattered by a deterministic Fisher-Yates
/// shuffle so clause storage order is decorrelated from propagation
/// visit order, the way a long-lived solver's clause database looks
/// after learning and reduction churn. A sequential layout would let
/// the hardware prefetcher stream both solvers' clause storage and
/// hide exactly the pointer-chasing cost this workload exists to
/// measure.
pub fn propagation_chains(chains: usize, len: usize) -> (CnfFormula, Vec<Lit>) {
    let g1 = Var::new(0);
    let g2 = Var::new(1);
    let g3 = Var::new(2);
    let x = |c: usize, i: usize| Var::new(3 + c * (len + 1) + i);
    let mut clauses: Vec<[Lit; 5]> = Vec::with_capacity(chains * len);
    for c in 0..chains {
        for i in 0..len {
            clauses.push([
                x(c, i).negative(),
                g1.negative(),
                g2.negative(),
                g3.negative(),
                x(c, i + 1).positive(),
            ]);
        }
    }
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in (1..clauses.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        clauses.swap(i, j);
    }
    let mut f = CnfFormula::new();
    for cl in clauses {
        f.add_lits(cl);
    }
    let mut assumptions = vec![g1.positive(), g2.positive(), g3.positive()];
    assumptions.extend((0..chains).map(|c| x(c, 0).positive()));
    (f, assumptions)
}

fn time_propagation<S: CoreSolver>(f: &CnfFormula, assumptions: &[Lit], rounds: usize) -> Side {
    let start = Instant::now();
    let mut s = S::build(f);
    for _ in 0..rounds {
        assert!(s.assume(assumptions).is_sat(), "chains are satisfiable");
    }
    Side::new(start.elapsed(), &s.counters())
}

fn time_solve<S: CoreSolver>(f: &CnfFormula) -> (Side, SatResult) {
    let start = Instant::now();
    let mut s = S::build(f);
    let res = s.assume(&[]);
    (Side::new(start.elapsed(), &s.counters()), res)
}

/// Runs the xBMC enumeration loop (selector-scoped blocking clauses)
/// over a renaming encoding with solver `S`, returning the measurement
/// and the order-independent fingerprint of the counterexample set.
fn time_enumeration<S: CoreSolver>(ai: &AiProgram) -> (Side, usize, u64) {
    let lattice = TwoPoint::new();
    let start = Instant::now();
    let enc = xbmc::renaming::encode(ai, &lattice);
    let mut s = S::build(&enc.formula);
    let selector_base = enc.formula.num_vars();
    let mut counterexamples: Vec<(u32, Vec<bool>)> = Vec::new();
    for (ai_idx, a) in enc.asserts.iter().enumerate() {
        let selector = Var::new(selector_base + ai_idx).positive();
        loop {
            match s.assume(&[selector, a.violated]) {
                SatResult::Sat(model) => {
                    let mut branches = vec![false; ai.num_branches];
                    for b in &a.relevant_branches {
                        branches[b.0 as usize] = model.lit_value(enc.branch_lits[b.0 as usize]);
                    }
                    let mut blocking: Vec<Lit> = a
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
                    s.add(blocking);
                    counterexamples.push((a.id.0, branches));
                }
                SatResult::Unsat => break,
                other => panic!("enumeration hit {other:?} with no budget"),
            }
        }
    }
    let side = Side::new(start.elapsed(), &s.counters());
    let count = counterexamples.len();
    (side, count, fingerprint(&mut counterexamples))
}

/// Runs the cube-generalized ALLSAT loop over a renaming encoding:
/// each model is shrunk to a minimal implicant over the assertion's
/// branch variables ([`sat::Solver::shrink_cube`]), the negated cube is
/// blocked, and the cube is expanded back to full branch assignments —
/// exactly as `Xbmc::check_all` drives it since the cube refactor.
///
/// Returns the measurement, the expanded counterexample count, the
/// set fingerprint, and the number of cubes learned. Expansion and
/// deduplication run inside the measured wall, so the speedup against
/// [`time_enumeration`] prices the full report-time cost, not just the
/// saved solver calls.
///
/// Not generic over [`CoreSolver`]: cube lifting exists only on the
/// arena solver, so cube workloads run both sides on `sat::Solver` and
/// isolate the enumeration *algorithm*, not the solver data plane.
fn time_cube_enumeration(ai: &AiProgram) -> (Side, usize, u64, u64) {
    let lattice = TwoPoint::new();
    let start = Instant::now();
    let enc = xbmc::renaming::encode(ai, &lattice);
    let mut s = sat::Solver::from_formula(&enc.formula);
    let selector_base = enc.formula.num_vars();
    let mut counterexamples: Vec<(u32, Vec<bool>)> = Vec::new();
    let mut cubes_learned = 0u64;
    for (ai_idx, a) in enc.asserts.iter().enumerate() {
        let selector = Var::new(selector_base + ai_idx).positive();
        let mut seen: HashSet<Vec<bool>> = HashSet::new();
        loop {
            match s.solve_with_assumptions(&[selector, a.violated]) {
                SatResult::Sat(model) => {
                    let model_cube: Vec<Lit> = a
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
                    let cube = s.shrink_cube(&model_cube, a.violated);
                    cubes_learned += 1;
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
                        let mut branches = vec![false; ai.num_branches];
                        for &(idx, v) in &fixed {
                            branches[idx] = v;
                        }
                        for (i, &idx) in free.iter().enumerate() {
                            branches[idx] = m >> (width - 1 - i) & 1 == 1;
                        }
                        if seen.insert(branches.clone()) {
                            counterexamples.push((a.id.0, branches));
                        }
                    }
                    let mut blocking: Vec<Lit> = cube.iter().map(|&l| !l).collect();
                    blocking.push(!selector);
                    s.add_clause(blocking);
                }
                SatResult::Unsat => break,
                other => panic!("cube enumeration hit {other:?} with no budget"),
            }
        }
    }
    let side = Side::new(start.elapsed(), s.stats());
    let count = counterexamples.len();
    (
        side,
        count,
        fingerprint(&mut counterexamples),
        cubes_learned,
    )
}

/// Order-independent FNV-1a over the sorted counterexample set.
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

fn verdict_str(r: &SatResult) -> String {
    match r {
        SatResult::Sat(_) => "sat".into(),
        SatResult::Unsat => "unsat".into(),
        SatResult::Unknown => "unknown".into(),
        SatResult::Interrupted => "interrupted".into(),
    }
}

fn ai_of(src: &str) -> AiProgram {
    let ast = php_front::parse_source(src).expect("workload parses");
    let filtered = webssari_ir::filter_program(
        &ast,
        src,
        "bench.php",
        &webssari_ir::Prelude::standard(),
        &webssari_ir::FilterOptions::default(),
    );
    webssari_ir::abstract_interpret(&filtered)
}

// ---------------------------------------------------------------------
// The suite
// ---------------------------------------------------------------------

/// Runs the full suite. `fast` shrinks sizes and repetition counts for
/// the CI smoke job but keeps every enumeration workload (and therefore
/// every fingerprint) identical to full mode.
pub fn run_suite(fast: bool) -> SuiteResult {
    let mut workloads = Vec::new();

    // Propagation-bound: best-of-N so a cold cache or scheduler blip on
    // either side doesn't skew the ratio.
    let (chains, len, rounds, reps) = if fast {
        (4, 20_000, 4, 2)
    } else {
        (4, 60_000, 10, 3)
    };
    let (f, assumptions) = propagation_chains(chains, len);
    let mut arena: Option<Side> = None;
    let mut reference: Option<Side> = None;
    for _ in 0..reps {
        let a = time_propagation::<sat::Solver>(&f, &assumptions, rounds);
        let r = time_propagation::<sat::reference::Solver>(&f, &assumptions, rounds);
        if arena.is_none_or(|best| a.wall < best.wall) {
            arena = Some(a);
        }
        if reference.is_none_or(|best| r.wall < best.wall) {
            reference = Some(r);
        }
    }
    workloads.push(WorkloadResult {
        name: format!("propagation_chains_{chains}x{len}"),
        kind: "propagation",
        verdict: "sat".into(),
        arena: arena.expect("reps >= 1"),
        reference: reference.expect("reps >= 1"),
        fingerprint: None,
        cubes_learned: None,
        cube_assignments: None,
    });

    // Conflict-bound: pigeonhole, random 3-SAT at the phase-transition
    // ratio (~4.26 clauses per variable), and the BMC-shaped unrolled
    // counter family ([`crate::bmc_counter`]). The two solvers walk
    // different search trajectories here — watcher-list evolution
    // differs between the implementations, which perturbs unit order
    // and phase saving — so any single instance is a trajectory
    // lottery; the suite commits a family spanning both verdicts and
    // all three shapes, and the headline is the geometric mean
    // ([`SuiteResult::conflict_speedup_x100`]).
    let mut conflict_formulas: Vec<(String, CnfFormula)> = Vec::new();
    if fast {
        conflict_formulas.push(("pigeonhole_6x5".into(), crate::pigeonhole(6, 5)));
        conflict_formulas.push((
            "random3sat_100v_r426_s1".into(),
            crate::random_3sat(100, 426, 1),
        ));
        conflict_formulas.push(("bmc_counter_16".into(), crate::bmc_counter(16)));
    } else {
        conflict_formulas.push(("pigeonhole_8x7".into(), crate::pigeonhole(8, 7)));
        conflict_formulas.push(("pigeonhole_9x8".into(), crate::pigeonhole(9, 8)));
        conflict_formulas.push(("bmc_counter_48".into(), crate::bmc_counter(48)));
        conflict_formulas.push(("bmc_counter_64".into(), crate::bmc_counter(64)));
        for (vars, seed) in [
            (150, 1u64),
            (150, 8),
            (175, 6),
            (175, 7),
            (200, 2),
            (200, 4),
            (200, 5),
        ] {
            let clauses = (vars as f64 * 4.26) as usize;
            conflict_formulas.push((
                format!("random3sat_{vars}v_r426_s{seed}"),
                crate::random_3sat(vars, clauses, seed),
            ));
        }
    }
    for (name, f) in conflict_formulas {
        let mut arena: Option<Side> = None;
        let mut reference: Option<Side> = None;
        let mut verdict: Option<String> = None;
        for _ in 0..reps {
            let (a, a_res) = time_solve::<sat::Solver>(&f);
            let (r, r_res) = time_solve::<sat::reference::Solver>(&f);
            assert_eq!(
                verdict_str(&a_res),
                verdict_str(&r_res),
                "{name}: solvers disagree"
            );
            verdict = Some(verdict_str(&a_res));
            if arena.is_none_or(|best| a.wall < best.wall) {
                arena = Some(a);
            }
            if reference.is_none_or(|best| r.wall < best.wall) {
                reference = Some(r);
            }
        }
        workloads.push(WorkloadResult {
            name,
            kind: "conflict",
            verdict: verdict.expect("reps >= 1"),
            arena: arena.expect("reps >= 1"),
            reference: reference.expect("reps >= 1"),
            fingerprint: None,
            cubes_learned: None,
            cube_assignments: None,
        });
    }

    // Enumeration-bound: identical in both modes so fingerprints are
    // comparable across full runs and CI fast runs. k = 12 is the
    // blocking-clause-heavy regime (4095 clauses piling thousands of
    // watchers onto a few branch literals) where any propagate that
    // pays O(list) instead of O(1) to detach a watcher shows up as a
    // regression — the amplified version of the 0.96× slip the k = 11
    // row caught when removal compacted the whole tail.
    for k in [8usize, 11, 12] {
        let ai = ai_of(&branchy_program(k));
        let mut arena: Option<Side> = None;
        let mut reference: Option<Side> = None;
        let mut outcome: Option<(usize, u64)> = None;
        for _ in 0..reps {
            let (a, a_count, a_fp) = time_enumeration::<sat::Solver>(&ai);
            let (r, r_count, r_fp) = time_enumeration::<sat::reference::Solver>(&ai);
            assert_eq!(a_count, r_count, "enumeration counts diverge at k={k}");
            assert_eq!(a_fp, r_fp, "enumeration sets diverge at k={k}");
            outcome = Some((a_count, a_fp));
            if arena.is_none_or(|best| a.wall < best.wall) {
                arena = Some(a);
            }
            if reference.is_none_or(|best| r.wall < best.wall) {
                reference = Some(r);
            }
        }
        let (a_count, a_fp) = outcome.expect("reps >= 1");
        let (arena, reference) = (arena.expect("reps >= 1"), reference.expect("reps >= 1"));
        // And the production checker must report exactly this set.
        let check = xbmc::Xbmc::with_options(
            &ai,
            xbmc::CheckOptions {
                max_counterexamples_per_assert: 1 << 12,
                ..xbmc::CheckOptions::default()
            },
        )
        .check_all();
        let mut from_checker: Vec<(u32, Vec<bool>)> = check
            .counterexamples
            .iter()
            .map(|c| (c.assert_id.0, c.branches.clone()))
            .collect();
        assert_eq!(
            fingerprint(&mut from_checker),
            a_fp,
            "Xbmc::check_all diverges from the enumeration loop at k={k}"
        );
        workloads.push(WorkloadResult {
            name: format!("enumeration_branchy_{k}"),
            kind: "enumeration",
            verdict: format!("{a_count} counterexamples"),
            arena,
            reference,
            fingerprint: Some(a_fp),
            cubes_learned: None,
            cube_assignments: None,
        });
    }

    // Cube-generalized enumeration: depths where the per-model loop
    // needs 2^k − 1 solver calls and the cube loop needs a handful.
    // Both sides run on the arena solver (cube lifting exists only
    // there), so the ratio prices the algorithm change alone. The
    // per-model baseline runs once: at these depths it is three to four
    // orders of magnitude slower than the cube loop, so scheduler noise
    // amortizes away and extra reps would only stretch the suite.
    for k in [14usize, 16] {
        let ai = ai_of(&branchy_program(k));
        let (reference, r_count, r_fp) = time_enumeration::<sat::Solver>(&ai);
        let mut arena: Option<Side> = None;
        let mut outcome: Option<(usize, u64, u64)> = None;
        for _ in 0..reps {
            let (a, a_count, a_fp, cubes) = time_cube_enumeration(&ai);
            assert_eq!(a_count, r_count, "cube expansion count diverges at k={k}");
            assert_eq!(
                a_fp, r_fp,
                "cube expansion diverges from the per-model baseline at k={k}"
            );
            outcome = Some((a_count, a_fp, cubes));
            if arena.is_none_or(|best| a.wall < best.wall) {
                arena = Some(a);
            }
        }
        let (count, fp, cubes) = outcome.expect("reps >= 1");
        // And the production checker must report exactly this set.
        let check = xbmc::Xbmc::with_options(
            &ai,
            xbmc::CheckOptions {
                max_counterexamples_per_assert: 1 << 17,
                ..xbmc::CheckOptions::default()
            },
        )
        .check_all();
        let mut from_checker: Vec<(u32, Vec<bool>)> = check
            .counterexamples
            .iter()
            .map(|c| (c.assert_id.0, c.branches.clone()))
            .collect();
        assert_eq!(
            fingerprint(&mut from_checker),
            fp,
            "Xbmc::check_all diverges from the cube enumeration loop at k={k}"
        );
        workloads.push(WorkloadResult {
            name: format!("enumeration_cubes_branchy_{k}"),
            kind: "enumeration",
            verdict: format!("{count} counterexamples"),
            arena: arena.expect("reps >= 1"),
            reference,
            fingerprint: Some(fp),
            cubes_learned: Some(cubes),
            cube_assignments: Some(count as u64),
        });
    }

    SuiteResult {
        mode: if fast { "fast" } else { "full" },
        workloads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propagation_chains_has_no_root_units() {
        let (f, assumptions) = propagation_chains(2, 50);
        assert_eq!(f.num_clauses(), 100);
        // Three guards + one head per chain.
        assert_eq!(assumptions.len(), 5);
        // The arena solver's preprocessing must find nothing to do.
        let s = sat::Solver::from_formula(&f);
        assert_eq!(s.stats().pre_units_fixed, 0);
        assert_eq!(s.stats().pre_clauses_removed, 0);
        assert_eq!(s.num_clauses(), 100);
    }

    #[test]
    fn propagation_chains_propagate_fully() {
        let (f, assumptions) = propagation_chains(3, 40);
        let mut s = sat::Solver::from_formula(&f);
        match s.solve_with_assumptions(&assumptions) {
            SatResult::Sat(m) => {
                // Every chain variable is forced true.
                for c in 0..3 {
                    for i in 0..=40 {
                        assert!(m.value(Var::new(3 + c * 41 + i)), "chain {c} step {i}");
                    }
                }
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let mut a = vec![(0u32, vec![true, false]), (1u32, vec![false, false])];
        let mut b = vec![(1u32, vec![false, false]), (0u32, vec![true, false])];
        assert_eq!(fingerprint(&mut a), fingerprint(&mut b));
        let mut c = vec![(0u32, vec![true, true]), (1u32, vec![false, false])];
        assert_ne!(fingerprint(&mut a), fingerprint(&mut c));
    }

    #[test]
    fn suite_json_round_trips_and_check_catches_tampering() {
        // Synthetic measurements (running the real suite belongs to the
        // release-mode CI smoke job, not a debug unit test).
        let side = Side {
            wall: Duration::from_micros(1500),
            propagations: 10,
            conflicts: 2,
            decisions: 3,
            restarts: 0,
            binary_propagations: 4,
        };
        let suite = SuiteResult {
            mode: "fast",
            workloads: vec![
                WorkloadResult {
                    name: "propagation_chains_1x10".into(),
                    kind: "propagation",
                    verdict: "sat".into(),
                    arena: side,
                    reference: Side {
                        wall: Duration::from_micros(3000),
                        ..side
                    },
                    fingerprint: None,
                    cubes_learned: None,
                    cube_assignments: None,
                },
                WorkloadResult {
                    name: "pigeonhole_2x1".into(),
                    kind: "conflict",
                    verdict: "unsat".into(),
                    arena: side,
                    reference: Side {
                        wall: Duration::from_micros(3000),
                        ..side
                    },
                    fingerprint: None,
                    cubes_learned: None,
                    cube_assignments: None,
                },
                WorkloadResult {
                    name: "pigeonhole_3x2".into(),
                    kind: "conflict",
                    verdict: "unsat".into(),
                    arena: side,
                    reference: Side {
                        wall: Duration::from_micros(750),
                        ..side
                    },
                    fingerprint: None,
                    cubes_learned: None,
                    cube_assignments: None,
                },
                WorkloadResult {
                    name: "enumeration_branchy_2".into(),
                    kind: "enumeration",
                    verdict: "3 counterexamples".into(),
                    arena: side,
                    reference: side,
                    fingerprint: Some(0xDEADBEEF),
                    cubes_learned: None,
                    cube_assignments: None,
                },
            ],
        };
        assert_eq!(suite.workloads[0].speedup_x100(), 200);
        assert_eq!(suite.propagation_speedup_x100(), 200);
        // Conflict headline is the geometric mean: 2.0× and 0.5×
        // cancel to exactly 1.0×.
        assert_eq!(suite.conflict_speedup_x100(), 100);
        let text = suite.to_json().to_json();
        let parsed = jsonio::parse(&text).expect("suite JSON parses");
        suite
            .check_against(&parsed)
            .expect("a run checks against its own output");
        // A tampered fingerprint must be caught.
        let tampered = text.replace("00000000deadbeef", "0000000000000000");
        let tampered = jsonio::parse(&tampered).expect("still valid JSON");
        assert!(suite.check_against(&tampered).is_err());
        // A changed verdict must be caught too.
        let flipped = jsonio::parse(&text.replace("\"sat\"", "\"unsat\"")).unwrap();
        assert!(suite.check_against(&flipped).is_err());
        // Enumeration workloads are mode-invariant and must be present
        // in the committed file; timing workloads are sized per mode
        // and only compared when the names line up.
        let only_prop = SuiteResult {
            mode: "full",
            workloads: vec![suite.workloads[0].clone()],
        };
        let committed = jsonio::parse(&only_prop.to_json().to_json()).unwrap();
        assert!(suite.check_against(&committed).is_err());
        let only_enum = SuiteResult {
            mode: "full",
            workloads: vec![suite.workloads[3].clone()],
        };
        let committed = jsonio::parse(&only_enum.to_json().to_json()).unwrap();
        suite
            .check_against(&committed)
            .expect("timing workloads are matched by name only");
    }

    #[test]
    fn enumeration_matches_reference_on_small_program() {
        let ai = ai_of(&branchy_program(3));
        let (_, a_count, a_fp) = time_enumeration::<sat::Solver>(&ai);
        let (_, r_count, r_fp) = time_enumeration::<sat::reference::Solver>(&ai);
        assert_eq!(a_count, 7); // 2^3 - 1 violating branch patterns
        assert_eq!(a_count, r_count);
        assert_eq!(a_fp, r_fp);
    }

    #[test]
    fn cube_enumeration_matches_per_model_on_small_program() {
        let ai = ai_of(&branchy_program(5));
        let (_, c_count, c_fp, cubes) = time_cube_enumeration(&ai);
        let (_, m_count, m_fp) = time_enumeration::<sat::Solver>(&ai);
        assert_eq!(c_count, 31); // 2^5 - 1 violating branch patterns
        assert_eq!(c_count, m_count);
        assert_eq!(c_fp, m_fp);
        // Generalization must actually bite: far fewer cubes than
        // expanded assignments.
        assert!(
            cubes < c_count as u64,
            "{cubes} cubes for {c_count} assignments"
        );
    }

    #[test]
    fn vacuity_guard_rejects_full_width_cubes_and_conflictless_runs() {
        let side = Side {
            wall: Duration::from_micros(100),
            propagations: 1,
            conflicts: 0,
            decisions: 0,
            restarts: 0,
            binary_propagations: 0,
        };
        let conflictful = Side {
            conflicts: 5,
            ..side
        };
        let conflict_workload = |arena: Side, reference: Side| WorkloadResult {
            name: "pigeonhole_2x1".into(),
            kind: "conflict",
            verdict: "unsat".into(),
            arena,
            reference,
            fingerprint: None,
            cubes_learned: None,
            cube_assignments: None,
        };
        let workload = |cubes, assignments| WorkloadResult {
            name: "enumeration_cubes_branchy_2".into(),
            kind: "enumeration",
            verdict: format!("{assignments} counterexamples"),
            arena: side,
            reference: side,
            fingerprint: Some(1),
            cubes_learned: Some(cubes),
            cube_assignments: Some(assignments),
        };
        let good = SuiteResult {
            mode: "fast",
            workloads: vec![workload(2, 3), conflict_workload(conflictful, conflictful)],
        };
        good.vacuity_guard()
            .expect("2 cubes over 3 assignments generalized");
        assert_eq!(good.mean_assignments_per_cube_x100(), 150);
        let vacuous = SuiteResult {
            mode: "fast",
            workloads: vec![workload(3, 3), conflict_workload(conflictful, conflictful)],
        };
        assert!(
            vacuous.vacuity_guard().is_err(),
            "full-width cubes must be rejected"
        );
        let missing = SuiteResult {
            mode: "fast",
            workloads: Vec::new(),
        };
        assert!(
            missing.vacuity_guard().is_err(),
            "cube workloads must be present"
        );
        // A conflict workload where either solver never conflicted is
        // measuring nothing and must fail the run.
        for (a, r) in [(side, conflictful), (conflictful, side)] {
            let conflictless = SuiteResult {
                mode: "fast",
                workloads: vec![workload(2, 3), conflict_workload(a, r)],
            };
            assert!(
                conflictless.vacuity_guard().is_err(),
                "zero-conflict conflict workload must be rejected"
            );
        }
        // And a run with no conflict workload at all is equally vacuous.
        let no_conflicts = SuiteResult {
            mode: "fast",
            workloads: vec![workload(2, 3)],
        };
        assert!(no_conflicts.vacuity_guard().is_err());
    }
}
