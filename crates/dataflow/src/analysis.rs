//! Sparse flow-sensitive analysis over SSA def-use chains.
//!
//! Each SSA definition carries one [`FlowValue`] — a point in the
//! product lattice *taint × constantness × sanitizer-state* — and a
//! worklist propagates changes along def-use edges only, so a change to
//! one definition revisits exactly its users instead of re-joining
//! whole environments. The CFG is acyclic (the AI is loop-free), so the
//! worklist converges to the least fixpoint, and because φ computes the
//! same join the typestate walk computes at merges, the per-assertion
//! verdict here agrees with [`typestate`]'s — the tier's value is the
//! *sparser* evidence it produces: per-assertion def-use witnesses and
//! per-definition constantness that [`crate::refine`] folds back into
//! the program the encoder sees.
//!
//! [`typestate`]: https://docs.rs/typestate

use taint_lattice::{Elem, Lattice};
use webssari_ir::{AssertId, Site, VarId};

use crate::ssa::{Def, DefId, SsaProgram, UserRef};

/// The product-lattice value of one SSA definition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowValue {
    /// Taint component: the join of the definition's reaching levels.
    pub taint: Elem,
    /// Constantness component: `Some(k)` when the definition evaluates
    /// to exactly `k` on *every* path reaching it, `None` otherwise.
    pub konst: Option<Elem>,
    /// Sanitizer-state component: whether the value passed through a
    /// sanitizer (a masked assignment) on some path.
    pub sanitized: bool,
}

/// The flow verdict for one assertion.
#[derive(Clone, Debug)]
pub struct AssertVerdict {
    /// The assertion id (program order).
    pub id: AssertId,
    /// Whether every checked use satisfies the bound flow-sensitively.
    pub clean: bool,
    /// The uses violating the bound (empty iff `clean`).
    pub dirty_uses: Vec<(VarId, DefId)>,
}

/// Result of the sparse analysis: one value per definition, one verdict
/// per assertion.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// `values[d]` is the fixpoint value of definition `d`.
    pub values: Vec<FlowValue>,
    /// Verdicts parallel to [`SsaProgram::asserts`] (program order).
    pub verdicts: Vec<AssertVerdict>,
}

/// One step of a def-use taint witness, in source→sink order.
#[derive(Clone, Debug)]
pub struct WitnessStep {
    /// The variable carrying the taint at this step.
    pub var: VarId,
    /// Source location, if the step corresponds to a program command
    /// (`None` for the implicit entry definition and φ merges).
    pub site: Option<Site>,
    /// Taint level at this step.
    pub taint: Elem,
    /// Whether the value was sanitized by this point.
    pub sanitized: bool,
}

fn transfer(ssa: &SsaProgram, lattice: &impl Lattice, values: &[FlowValue], d: DefId) -> FlowValue {
    match &ssa.defs[d.0 as usize] {
        Def::Entry { .. } => FlowValue {
            taint: lattice.bottom(),
            konst: Some(lattice.bottom()),
            sanitized: false,
        },
        Def::Assign {
            base, deps, mask, ..
        } => {
            let mut taint = *base;
            let mut konst = Some(*base);
            let mut sanitized = false;
            for &op in deps {
                let v = values[op.0 as usize];
                taint = lattice.join(taint, v.taint);
                konst = match (konst, v.konst) {
                    (Some(a), Some(b)) => Some(lattice.join(a, b)),
                    _ => None,
                };
                sanitized |= v.sanitized;
            }
            if let Some(m) = mask {
                taint = lattice.meet(taint, *m);
                konst = konst.map(|k| lattice.meet(k, *m));
                sanitized = true;
            }
            FlowValue {
                taint,
                konst,
                sanitized,
            }
        }
        Def::Phi { args, .. } => {
            let mut taint = lattice.bottom();
            // The φ is constant only when every incoming definition is
            // the *same* constant — otherwise the merged value is
            // path-dependent.
            let mut konst: Option<Option<Elem>> = None; // unseen
            let mut sanitized = false;
            for &op in args {
                let v = values[op.0 as usize];
                taint = lattice.join(taint, v.taint);
                konst = Some(match (konst, v.konst) {
                    (None, k) => k,
                    (Some(Some(a)), Some(b)) if a == b => Some(a),
                    _ => None,
                });
                sanitized |= v.sanitized;
            }
            FlowValue {
                taint,
                konst: konst.flatten(),
                sanitized,
            }
        }
    }
}

/// Runs the sparse worklist analysis to its least fixpoint.
pub fn analyze(ssa: &SsaProgram, lattice: &impl Lattice) -> FlowResult {
    let n = ssa.defs.len();
    let init = FlowValue {
        taint: lattice.bottom(),
        konst: Some(lattice.bottom()),
        sanitized: false,
    };
    let mut values = vec![init; n];
    // Seed with every definition once; afterwards only users of changed
    // definitions re-enter the worklist (the sparse part).
    let mut worklist: Vec<DefId> = (0..n as u32).map(DefId).collect();
    let mut queued = vec![true; n];
    while let Some(d) = worklist.pop() {
        queued[d.0 as usize] = false;
        let new = transfer(ssa, lattice, &values, d);
        if new != values[d.0 as usize] {
            values[d.0 as usize] = new;
            for u in &ssa.users[d.0 as usize] {
                if let UserRef::Def(ud) = u {
                    if !queued[ud.0 as usize] {
                        queued[ud.0 as usize] = true;
                        worklist.push(*ud);
                    }
                }
            }
        }
    }

    let verdicts = ssa
        .asserts
        .iter()
        .map(|a| {
            let ok = |t: Elem| {
                if a.strict {
                    lattice.lt(t, a.bound)
                } else {
                    lattice.leq(t, a.bound)
                }
            };
            let dirty_uses: Vec<(VarId, DefId)> = a
                .uses
                .iter()
                .copied()
                .filter(|&(_, d)| !ok(values[d.0 as usize].taint))
                .collect();
            AssertVerdict {
                id: a.id,
                clean: dirty_uses.is_empty(),
                dirty_uses,
            }
        })
        .collect();

    FlowResult { values, verdicts }
}

/// Extracts a def-use taint witness for assertion `assert_idx`: the
/// chain of definitions carrying the highest taint into the assertion,
/// in source→sink order. Returns an empty path for clean assertions.
pub fn witness(
    ssa: &SsaProgram,
    result: &FlowResult,
    lattice: &impl Lattice,
    assert_idx: usize,
) -> Vec<WitnessStep> {
    let verdict = &result.verdicts[assert_idx];
    let Some((_, start)) = verdict.dirty_uses.iter().copied().max_by(|a, b| {
        let (ta, tb) = (
            result.values[a.1 .0 as usize].taint,
            result.values[b.1 .0 as usize].taint,
        );
        // A total order refining ≤ for max-selection.
        if ta == tb {
            std::cmp::Ordering::Equal
        } else if lattice.leq(ta, tb) {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        }
    }) else {
        return Vec::new();
    };

    let mut steps = Vec::new();
    let mut cur = start;
    loop {
        let v = result.values[cur.0 as usize];
        // Pick the operand carrying the most taint; at a tie the first
        // wins, keeping the walk deterministic.
        let next = ssa.defs[cur.0 as usize]
            .operands()
            .iter()
            .copied()
            .max_by(|a, b| {
                let (ta, tb) = (
                    result.values[a.0 as usize].taint,
                    result.values[b.0 as usize].taint,
                );
                if ta == tb {
                    std::cmp::Ordering::Equal
                } else if lattice.leq(ta, tb) {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Greater
                }
            });
        match &ssa.defs[cur.0 as usize] {
            Def::Entry { var } => {
                steps.push(WitnessStep {
                    var: *var,
                    site: None,
                    taint: v.taint,
                    sanitized: v.sanitized,
                });
                break;
            }
            Def::Assign { var, site, .. } => {
                steps.push(WitnessStep {
                    var: *var,
                    site: Some(site.clone()),
                    taint: v.taint,
                    sanitized: v.sanitized,
                });
                match next {
                    // Stop at the taint source: once the operand adds no
                    // taint beyond this command's own base, this command
                    // *is* the source.
                    Some(op)
                        if !lattice.leq(result.values[op.0 as usize].taint, lattice.bottom()) =>
                    {
                        cur = op;
                    }
                    _ => break,
                }
            }
            Def::Phi { var, .. } => {
                steps.push(WitnessStep {
                    var: *var,
                    site: None,
                    taint: v.taint,
                    sanitized: v.sanitized,
                });
                match next {
                    Some(op) => cur = op,
                    None => break,
                }
            }
        }
    }
    steps.reverse();
    steps
}
