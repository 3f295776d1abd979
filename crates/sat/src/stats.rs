use std::fmt;

/// Counters describing the work a [`Solver`](crate::Solver) has done.
///
/// The benchmark harness reports these alongside wall-clock times so the
/// encoding experiments (paper §3.3.1 vs §3.3.2) can attribute blowups
/// to propagation and conflict counts rather than constant factors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct SolverStats {
    /// `solve`/`solve_with_assumptions` calls.
    pub solves: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Literals propagated through the binary implication lists (a
    /// subset of `propagations` that never touched the clause arena).
    pub binary_propagations: u64,
    /// Conflicts found.
    pub conflicts: u64,
    /// Learned clauses currently retained.
    pub learnt_clauses: u64,
    /// Learned clauses deleted by database reduction.
    pub deleted_clauses: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Literals removed by learned-clause minimization.
    pub minimized_lits: u64,
    /// Root-level units fixed by `add_formula` preprocessing.
    pub pre_units_fixed: u64,
    /// Clauses removed by `add_formula` preprocessing (tautologies and
    /// clauses satisfied at the root level).
    pub pre_clauses_removed: u64,
    /// False literals stripped from clauses by `add_formula`
    /// preprocessing.
    pub pre_lits_removed: u64,
    /// Calls to [`Solver::shrink_cube`](crate::Solver::shrink_cube).
    pub cube_shrink_calls: u64,
    /// Literals dropped from cubes by
    /// [`Solver::shrink_cube`](crate::Solver::shrink_cube).
    pub cube_lits_dropped: u64,
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "solves={} decisions={} propagations={} binary_props={} conflicts={} restarts={} learnt={} deleted={} minimized={} pre_units={} pre_clauses={} pre_lits={} cube_shrinks={} cube_lits_dropped={}",
            self.solves,
            self.decisions,
            self.propagations,
            self.binary_propagations,
            self.conflicts,
            self.restarts,
            self.learnt_clauses,
            self.deleted_clauses,
            self.minimized_lits,
            self.pre_units_fixed,
            self.pre_clauses_removed,
            self.pre_lits_removed,
            self.cube_shrink_calls,
            self.cube_lits_dropped,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = SolverStats::default();
        assert_eq!(s.decisions, 0);
        assert_eq!(s.conflicts, 0);
        assert_eq!(s.binary_propagations, 0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(SolverStats::default().to_string().contains("decisions=0"));
    }
}
