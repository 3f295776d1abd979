//! Cooperative per-solve resource budgets.
//!
//! A [`Budget`] bounds how much work a single `solve` call may do
//! before giving up with [`SatResult::Interrupted`](crate::SatResult).
//! Unlike the reference solver's conflict *limit* (which models an
//! incomplete solver and returns `Unknown`), a budget models an
//! external scheduler reclaiming a stuck job: the engine crate uses it
//! to degrade a pathological file to a `Timeout` outcome instead of
//! wedging a worker. It is the arena solver's only conflict bound.

use std::time::Instant;

/// How often (in conflicts) the wall clock is consulted. Reading
/// `Instant::now` is tens of nanoseconds, so checking every conflict
/// would be noticeable on conflict-heavy instances; every 64th keeps
/// the overhead lost in the noise while bounding overshoot.
pub(crate) const DEADLINE_CHECK_INTERVAL: u64 = 64;

/// A work bound for one `solve` call: a conflict ceiling, a wall-clock
/// deadline, or both. The solver checks it cooperatively inside the
/// search loop and returns `Interrupted` when any bound is exceeded.
///
/// # Examples
///
/// ```
/// use std::time::{Duration, Instant};
/// use sat::Budget;
///
/// let b = Budget::new()
///     .max_conflicts(10_000)
///     .deadline(Instant::now() + Duration::from_millis(250));
/// assert!(b.is_bounded());
/// assert!(!Budget::new().is_bounded());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum conflicts this solve may spend; `None` is unlimited.
    pub max_conflicts: Option<u64>,
    /// Wall-clock instant after which the solve is interrupted.
    pub deadline: Option<Instant>,
}

impl Budget {
    /// An unlimited budget (never interrupts).
    pub fn new() -> Self {
        Budget::default()
    }

    /// Caps the number of conflicts.
    #[must_use]
    pub fn max_conflicts(mut self, n: u64) -> Self {
        self.max_conflicts = Some(n);
        self
    }

    /// Sets the wall-clock deadline.
    #[must_use]
    pub fn deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Whether any bound is set at all.
    pub fn is_bounded(&self) -> bool {
        self.max_conflicts.is_some() || self.deadline.is_some()
    }

    /// Whether the conflict ceiling is spent.
    pub(crate) fn conflicts_exhausted(&self, conflicts_this_solve: u64) -> bool {
        self.max_conflicts
            .is_some_and(|max| conflicts_this_solve >= max)
    }

    /// Whether the deadline has passed (consults the wall clock).
    pub(crate) fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|at| Instant::now() >= at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unbounded_never_exhausts() {
        let b = Budget::new();
        assert!(!b.is_bounded());
        assert!(!b.conflicts_exhausted(u64::MAX));
        assert!(!b.deadline_passed());
    }

    #[test]
    fn conflict_ceiling() {
        let b = Budget::new().max_conflicts(5);
        assert!(b.is_bounded());
        assert!(!b.conflicts_exhausted(4));
        assert!(b.conflicts_exhausted(5));
    }

    #[test]
    fn deadline_in_past_and_future() {
        let past = Budget::new().deadline(Instant::now() - Duration::from_secs(1));
        assert!(past.deadline_passed());
        let future = Budget::new().deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!future.deadline_passed());
    }
}
