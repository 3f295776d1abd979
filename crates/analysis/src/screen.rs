//! Tiered verification: static discharge before bounded model checking.
//!
//! The paper's architecture is already two-tier — a polynomial
//! typestate pass (TS) and an exact BMC. [`screen`] makes the tiers
//! cooperate: assertions the TS pass proves clean are *discharged
//! statically* with a proof tag, and only the survivors (with their
//! cones) are handed to the SAT encoder.
//!
//! # Why discharge is sound
//!
//! TS walks the same loop-free AI with the join-merge rule: at every
//! program point each variable carries the join of its values over all
//! paths. Every transfer function `t = (base ⊔ ⊔deps) ⊓ mask` is
//! monotone, so the TS state at an assertion over-approximates the
//! value on *every* concrete path, and the violation predicate
//! (`¬(t < bound)` resp. `¬(t ≤ bound)`) is upward-closed. A TS-clean
//! assertion therefore has no violating path, which is exactly what the
//! BMC would (expensively) confirm: discharging it cannot change the
//! verdict, the counterexample set, or any downstream fix plan.

use std::collections::{HashMap, HashSet};

use taint_lattice::{Elem, Lattice};
use typestate::TsResult;
use webssari_ir::{AiCmd, AiProgram, AssertId, Site, VarId};

use crate::cone::{cones, slice_with_cones, AssertCone};

/// How a discharged assertion was proven safe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DischargeProof {
    /// The cone contains no tainted source at all: the join of every
    /// cone assignment's constant base already satisfies the bound, so
    /// no path can violate regardless of control flow.
    TaintFreeCone,
    /// The sparse flow-sensitive analysis proved every SSA reaching
    /// definition at the assertion within the bound — the strongest
    /// evidence for cones that *do* see taint (the taint is killed or
    /// sanitized on every path before the sink).
    FlowClean,
    /// The cone does see taint, but the typestate join-merge state at
    /// the assertion satisfies the bound — an over-approximation of
    /// every path, hence no violating path exists. With the flow tier
    /// enabled this remains only as a defensive fallback: the flow
    /// verdict computes the same join at merges, so every
    /// typestate-clean assertion is expected to upgrade to
    /// [`DischargeProof::FlowClean`].
    TypestateClean,
}

impl DischargeProof {
    /// Stable tag for reports and JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            DischargeProof::TaintFreeCone => "taint-free-cone",
            DischargeProof::FlowClean => "flow-clean",
            DischargeProof::TypestateClean => "typestate-clean",
        }
    }
}

/// One statically discharged assertion.
#[derive(Clone, Debug)]
pub struct Discharged {
    /// The discharged assertion.
    pub id: AssertId,
    /// The SOC function whose precondition it is.
    pub func: String,
    /// Its call site.
    pub site: Site,
    /// The proof that discharging is sound.
    pub proof: DischargeProof,
}

/// The outcome of screening one AI program.
#[derive(Clone, Debug)]
pub struct ScreenResult {
    /// Assertions proven safe statically, in program order.
    pub discharged: Vec<Discharged>,
    /// Number of assertions that survive to the BMC tier.
    pub surviving: usize,
    /// The program sliced down to the surviving assertions' cones. When
    /// nothing was discharged this equals the input (same commands);
    /// when everything was, it still carries the branch skeleton but no
    /// assertions.
    pub sliced: AiProgram,
    /// Per-assertion cones (program order, all assertions).
    pub cones: Vec<AssertCone>,
}

impl ScreenResult {
    /// Whether every assertion was discharged (BMC can be skipped).
    pub fn all_discharged(&self) -> bool {
        self.surviving == 0
    }
}

/// Screens the program: discharges TS-clean assertions and slices the
/// rest down to their cones.
///
/// `ts` must be the result of `typestate::analyze` (or the worklist
/// variant) on the *same* `ai` and `lattice`.
pub fn screen(ai: &AiProgram, ts: &TsResult, lattice: &impl Lattice) -> ScreenResult {
    let all_cones = cones(ai);
    let cone_index: HashMap<AssertId, usize> = all_cones
        .iter()
        .enumerate()
        .map(|(i, c)| (c.id, i))
        .collect();
    let mut base_join = HashMap::new();
    joined_bases(&ai.cmds, lattice, &mut base_join);
    let dirty: HashSet<AssertId> = ts.errors.iter().map(|e| e.assert_id).collect();

    let mut discharged = Vec::new();
    let mut surviving: HashSet<AssertId> = HashSet::new();
    for (cmd, site) in ai.assertions() {
        let AiCmd::Assert {
            id,
            bound,
            strict,
            func,
            ..
        } = cmd
        else {
            continue;
        };
        if dirty.contains(id) {
            surviving.insert(*id);
            continue;
        }
        let taint_free = cone_index.get(id).is_some_and(|&i| {
            cone_is_taint_free(&all_cones[i], &base_join, *bound, *strict, lattice)
        });
        let proof = if taint_free {
            DischargeProof::TaintFreeCone
        } else {
            DischargeProof::TypestateClean
        };
        discharged.push(Discharged {
            id: *id,
            func: func.clone(),
            site: site.clone(),
            proof,
        });
    }

    let sliced = slice_with_cones(ai, &surviving, &all_cones);
    ScreenResult {
        discharged,
        surviving: surviving.len(),
        sliced,
        cones: all_cones,
    }
}

/// Outcome of the two-stage screening: cone slicing + the sparse
/// flow-sensitive dataflow tier.
#[derive(Clone, Debug)]
pub struct FlowScreenResult {
    /// The first-stage result with proof tags upgraded: discharged
    /// assertions the flow analysis independently proves clean carry
    /// [`DischargeProof::FlowClean`].
    pub screen: ScreenResult,
    /// The sliced program further refined by the flow tier: SSA
    /// definitions reaching no surviving assertion are dropped and
    /// all-paths-constant assignments are folded to constants. Per-path
    /// assertion valuations are unchanged, so this is what the BMC
    /// should encode.
    pub refined: AiProgram,
    /// Assertions discharged with the `flow-clean` proof.
    pub flow_discharged: u64,
    /// φ definitions placed building the full program's SSA.
    pub ssa_phis: u64,
    /// Dead definitions dropped from the sliced program.
    pub dead_defs_dropped: u64,
    /// Constant assignments folded in the sliced program.
    pub consts_folded: u64,
}

/// Two-stage screening: run [`screen`], then the sparse flow-sensitive
/// tier — upgrade discharge proofs with flow verdicts and refine the
/// sliced program (dead-definition elimination + constant folding)
/// before it reaches the encoder.
///
/// Not on the verify path: `webssari_core::Verifier` gates BMC on the
/// typestate verdict instead (a file with no TS error skips BMC, any
/// other file is checked in full), which reaches the same reports
/// without this work. The screening benchmark and the benchmark mirror
/// still call it.
///
/// # Why the refinement is report-invisible
///
/// The flow tier never changes *which* assertions are discharged — on
/// this loop-free AI the flow verdict coincides with the typestate
/// verdict (both compute the join at merges and kill-by-redefinition),
/// so stage two only re-attributes proofs and shrinks the CNF. The
/// refined program keeps the `If` skeleton, every `BranchId`,
/// `num_branches`, and all surviving assertions, and per-path assertion
/// valuations are preserved (see `webssari_dataflow::refine`), so
/// verdicts, counterexample sets, and fix plans stay bit-identical.
pub fn screen_two_stage(ai: &AiProgram, ts: &TsResult, lattice: &impl Lattice) -> FlowScreenResult {
    let mut first = screen(ai, ts, lattice);

    let ssa = webssari_dataflow::SsaProgram::build(ai);
    let flow = webssari_dataflow::analyze(&ssa, lattice);
    let flow_clean: HashSet<AssertId> = flow
        .verdicts
        .iter()
        .filter(|v| v.clean)
        .map(|v| v.id)
        .collect();
    #[cfg(debug_assertions)]
    {
        let ts_dirty: HashSet<AssertId> = ts.errors.iter().map(|e| e.assert_id).collect();
        for v in &flow.verdicts {
            debug_assert_eq!(
                !v.clean,
                ts_dirty.contains(&v.id),
                "flow verdict must agree with typestate on this loop-free AI (assert {:?})",
                v.id
            );
        }
    }

    let mut flow_discharged = 0u64;
    for d in &mut first.discharged {
        if d.proof == DischargeProof::TypestateClean && flow_clean.contains(&d.id) {
            d.proof = DischargeProof::FlowClean;
            flow_discharged += 1;
        }
    }

    let (refined, rstats) = webssari_dataflow::refine(&first.sliced, lattice);
    FlowScreenResult {
        screen: first,
        refined,
        flow_discharged,
        ssa_phis: ssa.num_phis as u64,
        dead_defs_dropped: rstats.dead_defs_dropped,
        consts_folded: rstats.consts_folded,
    }
}

/// Whether the join of every cone assignment's constant base already
/// satisfies the assertion's bound. Masks only lower values, so this
/// join is an upper bound on any variable in the cone on any path.
fn cone_is_taint_free(
    cone: &AssertCone,
    base_join: &HashMap<VarId, Elem>,
    bound: Elem,
    strict: bool,
    lattice: &impl Lattice,
) -> bool {
    let mut acc = lattice.bottom();
    for v in &cone.vars {
        if let Some(b) = base_join.get(v) {
            acc = lattice.join(acc, *b);
        }
    }
    if strict {
        lattice.lt(acc, bound)
    } else {
        lattice.leq(acc, bound)
    }
}

/// One pass over the program collecting, per variable, the join of the
/// constant bases of every assignment to it — the ingredient
/// [`cone_is_taint_free`] folds over a cone's variables.
fn joined_bases(cmds: &[AiCmd], lattice: &impl Lattice, out: &mut HashMap<VarId, Elem>) {
    for c in cmds {
        match c {
            AiCmd::Assign { var, base, .. } => {
                let acc = out.entry(*var).or_insert_with(|| lattice.bottom());
                *acc = lattice.join(*acc, *base);
            }
            AiCmd::If {
                then_cmds,
                else_cmds,
                ..
            } => {
                joined_bases(then_cmds, lattice, out);
                joined_bases(else_cmds, lattice, out);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use php_front::parse_source;
    use taint_lattice::TwoPoint;
    use typestate::analyze;
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

    fn screened(src: &str) -> (AiProgram, ScreenResult) {
        let ai = ai_of(src);
        let l = TwoPoint::new();
        let ts = analyze(&ai, &l);
        let s = screen(&ai, &ts, &l);
        (ai, s)
    }

    #[test]
    fn clean_untouched_assertion_is_taint_free_cone() {
        let (_, s) = screened("<?php $x = 'hello'; echo $x;");
        assert_eq!(s.discharged.len(), 1);
        assert_eq!(s.discharged[0].proof, DischargeProof::TaintFreeCone);
        assert!(s.all_discharged());
        assert_eq!(s.sliced.num_assertions(), 0);
    }

    #[test]
    fn sanitized_flow_is_typestate_clean() {
        // The cone does contain a tainted source ($_GET) but the
        // sanitizer kills it on every path: TS proves it, taint-free
        // cone cannot.
        let (_, s) = screened("<?php $x = $_GET['q']; $x = htmlspecialchars($x); echo $x;");
        assert_eq!(s.discharged.len(), 1);
        assert_eq!(s.discharged[0].proof, DischargeProof::TypestateClean);
    }

    #[test]
    fn tainted_assertion_survives_to_bmc() {
        let (ai, s) = screened("<?php $x = $_GET['q']; echo $x; $y = 'ok'; mysql_query($y);");
        assert_eq!(s.discharged.len(), 1); // the mysql_query($y)
        assert_eq!(s.surviving, 1); // the echo $x
        assert_eq!(s.sliced.num_assertions(), 1);
        assert!(s.sliced.num_commands() < ai.num_commands());
    }

    #[test]
    fn sliced_program_yields_identical_counterexamples() {
        let src = "<?php $x = 'ok'; if ($a) { $x = $_GET['p']; } if ($b) { $junk = $_GET['z']; } \
                   echo $x; $c = 'safe'; echo $c;";
        let (ai, s) = screened(src);
        assert_eq!(s.discharged.len(), 1);
        assert_eq!(s.surviving, 1);
        let full = xbmc::Xbmc::new(&ai).check_all();
        let sliced = xbmc::Xbmc::new(&s.sliced).check_all();
        let key = |r: &xbmc::CheckResult| {
            r.counterexamples
                .iter()
                .map(|c| (c.assert_id, c.branches.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&full), key(&sliced));
        assert!(sliced.stats.cnf_vars < full.stats.cnf_vars);
    }

    fn screened_two_stage(src: &str) -> (AiProgram, FlowScreenResult) {
        let ai = ai_of(src);
        let l = TwoPoint::new();
        let ts = analyze(&ai, &l);
        let s = screen_two_stage(&ai, &ts, &l);
        (ai, s)
    }

    #[test]
    fn killed_taint_upgrades_to_flow_clean() {
        // Cone-blind: the cone of $x contains $_GET, so taint-free-cone
        // cannot prove it; the flow tier can.
        let (_, s) = screened_two_stage("<?php $x = $_GET['q']; $x = 'safe'; echo $x;");
        assert_eq!(s.screen.discharged.len(), 1);
        assert_eq!(s.screen.discharged[0].proof, DischargeProof::FlowClean);
        assert_eq!(s.flow_discharged, 1);
    }

    #[test]
    fn taint_free_cone_keeps_its_stronger_tag() {
        let (_, s) = screened_two_stage("<?php $x = 'hello'; echo $x;");
        assert_eq!(s.screen.discharged[0].proof, DischargeProof::TaintFreeCone);
        assert_eq!(s.flow_discharged, 0);
    }

    #[test]
    fn two_stage_refinement_preserves_counterexamples() {
        // The first two defs of $x are killed by `$x = 'ok'` on every
        // path, but the flow-insensitive cone keeps them ($x is the
        // checked variable) — only the flow tier can drop them.
        let src = "<?php if ($p) { $x = $_GET['d']; } else { $x = 'd'; } \
                   $x = 'ok'; if ($a) { $x = $_GET['p']; } echo $x;";
        let (ai, s) = screened_two_stage(src);
        assert_eq!(s.screen.surviving, 1);
        assert!(
            s.dead_defs_dropped >= 2,
            "killed branch defs must be dropped, got {}",
            s.dead_defs_dropped
        );
        let full = xbmc::Xbmc::new(&ai).check_all();
        let refined = xbmc::Xbmc::new(&s.refined).check_all();
        let key = |r: &xbmc::CheckResult| {
            r.counterexamples
                .iter()
                .map(|c| (c.assert_id, c.branches.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&full), key(&refined));
        // Strictly smaller formula than the cone-only slice.
        let sliced = xbmc::Xbmc::new(&s.screen.sliced).check_all();
        assert!(refined.stats.cnf_clauses < sliced.stats.cnf_clauses);
    }

    #[test]
    fn phi_merge_both_arms_sanitized_is_flow_clean() {
        let src = "<?php if ($c) { $x = htmlspecialchars($_GET['a']); } \
                   else { $x = 'lit'; } echo $x;";
        let (_, s) = screened_two_stage(src);
        assert!(s.ssa_phis >= 1);
        assert_eq!(s.screen.discharged.len(), 1);
        assert!(matches!(
            s.screen.discharged[0].proof,
            DischargeProof::FlowClean | DischargeProof::TaintFreeCone
        ));
    }

    #[test]
    fn discharge_never_loses_a_violation() {
        // Screening must keep every assertion the BMC would flag.
        let srcs = [
            "<?php $x = $_GET['q']; echo $x;",
            "<?php if ($c) { $x = $_GET['q']; } echo $x; echo 'lit';",
            "<?php $q = \"id=$id\"; mysql_query($q); echo $q;",
            "<?php while ($r = mysql_fetch_array($h)) { echo $r; }",
        ];
        for src in srcs {
            let (ai, s) = screened(src);
            let full = xbmc::Xbmc::new(&ai).check_all();
            let flagged: HashSet<AssertId> =
                full.counterexamples.iter().map(|c| c.assert_id).collect();
            for d in &s.discharged {
                assert!(!flagged.contains(&d.id), "{src}: discharged a violation");
            }
            let sliced = xbmc::Xbmc::new(&s.sliced).check_all();
            assert_eq!(
                full.counterexamples.len(),
                sliced.counterexamples.len(),
                "{src}"
            );
        }
    }
}
