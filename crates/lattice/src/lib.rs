//! Finite security-type lattices for secure information flow.
//!
//! The WebSSARI information-flow model (paper §3.1) follows Denning's
//! lattice model of secure information flow: every program variable is
//! associated with a *safety type* drawn from a finite set `T` that is
//! partially ordered by `≤` (reflexive, transitive, antisymmetric) and
//! forms a complete lattice with a lower bound `⊥` (the safest type) and
//! an upper bound `⊤` (the least trusted type). Types that result from
//! expressions are computed with the least-upper-bound operator `⊔`
//! (join), and assertion checks compare against fixed thresholds with
//! `≤`.
//!
//! This crate provides:
//!
//! * [`Lattice`] — the abstract interface shared by every lattice
//!   implementation, together with blanket helpers (`join_all`,
//!   `meet_all`, comparability queries).
//! * [`Elem`] — a compact index newtype naming one element of a lattice.
//! * Concrete lattices:
//!   [`TwoPoint`] (untainted < tainted — the lattice the paper's
//!   experiments use and the default policy), [`Powerset`] (subsets of
//!   named taint kinds ordered by inclusion — the `--multiclass`
//!   policy), and [`Chain`] (linear orders of any height, used to
//!   exercise the type-vector circuits above two points).
//! * [`laws`] — executable lattice axioms, used by the unit and property
//!   tests of every implementation and available to downstream crates to
//!   validate their own lattices.
//!
//! # Examples
//!
//! ```
//! use taint_lattice::{Lattice, TwoPoint};
//!
//! let l = TwoPoint::new();
//! let (clean, dirty) = (TwoPoint::UNTAINTED, TwoPoint::TAINTED);
//! assert!(l.leq(clean, dirty));
//! assert_eq!(l.join(clean, dirty), dirty);
//! assert_eq!(l.meet(clean, dirty), clean);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod elem;
pub mod laws;
mod powerset;
mod two_point;

pub use chain::Chain;
pub use elem::Elem;
pub use powerset::Powerset;
pub use two_point::TwoPoint;

/// A finite complete lattice of safety types.
///
/// Elements are identified by [`Elem`] indices in `0..self.len()`.
/// Implementations must guarantee the usual lattice laws; the executable
/// checks in [`laws`] verify them exhaustively for small lattices.
///
/// # Examples
///
/// ```
/// use taint_lattice::{Chain, Lattice};
///
/// let l = Chain::new(4);
/// assert_eq!(l.len(), 4);
/// assert_eq!(l.join(l.bottom(), l.top()), l.top());
/// ```
pub trait Lattice {
    /// Number of elements in the lattice. Always at least 1.
    fn len(&self) -> usize;

    /// Whether the lattice has no elements. Always `false`: a lattice has
    /// at least `⊥ = ⊤`. Provided for `len`/`is_empty` API symmetry.
    fn is_empty(&self) -> bool {
        false
    }

    /// The partial order: `true` iff `a ≤ b` ("a is at least as safe as b").
    ///
    /// # Panics
    ///
    /// Implementations may panic if `a` or `b` is out of range.
    fn leq(&self, a: Elem, b: Elem) -> bool;

    /// Least upper bound `a ⊔ b`.
    fn join(&self, a: Elem, b: Elem) -> Elem;

    /// Greatest lower bound `a ⊓ b`.
    fn meet(&self, a: Elem, b: Elem) -> Elem;

    /// The least element `⊥` (the safest type).
    fn bottom(&self) -> Elem;

    /// The greatest element `⊤` (the least trusted type).
    fn top(&self) -> Elem;

    /// A human-readable name for element `a`, used in reports.
    fn name(&self, a: Elem) -> String {
        format!("τ{}", a.index())
    }

    /// Strict order: `a < b` iff `a ≤ b` and `a ≠ b` (paper §3.1 item 3).
    fn lt(&self, a: Elem, b: Elem) -> bool {
        a != b && self.leq(a, b)
    }

    /// Whether `a` and `b` are comparable under `≤`.
    fn comparable(&self, a: Elem, b: Elem) -> bool {
        self.leq(a, b) || self.leq(b, a)
    }

    /// Least upper bound of an iterator of elements (`⊔ Y`).
    ///
    /// Returns [`Lattice::bottom`] when the iterator is empty, matching
    /// the paper's convention that `⊔ ∅ = ⊥`.
    fn join_all<I: IntoIterator<Item = Elem>>(&self, elems: I) -> Elem
    where
        Self: Sized,
    {
        elems
            .into_iter()
            .fold(self.bottom(), |acc, e| self.join(acc, e))
    }

    /// Greatest lower bound of an iterator of elements (`⊓ Y`).
    ///
    /// Returns [`Lattice::top`] when the iterator is empty, matching the
    /// paper's convention that `⊓ ∅ = ⊤`.
    fn meet_all<I: IntoIterator<Item = Elem>>(&self, elems: I) -> Elem
    where
        Self: Sized,
    {
        elems
            .into_iter()
            .fold(self.top(), |acc, e| self.meet(acc, e))
    }

    /// All elements of the lattice, in index order.
    fn elems(&self) -> Vec<Elem> {
        (0..self.len()).map(Elem::new).collect()
    }

    /// Number of bits needed to binary-encode one element.
    ///
    /// Used by the CNF encoder in the `xbmc` crate: an element index in
    /// `0..len` fits in `ceil(log2(len))` bits (at least 1).
    fn bits(&self) -> usize {
        let n = self.len().max(2);
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_all_of_empty_is_bottom() {
        let l = Chain::new(5);
        assert_eq!(l.join_all(std::iter::empty()), l.bottom());
    }

    #[test]
    fn meet_all_of_empty_is_top() {
        let l = Chain::new(5);
        assert_eq!(l.meet_all(std::iter::empty()), l.top());
    }

    #[test]
    fn join_all_folds_left() {
        let l = Chain::new(5);
        let e = Elem::new;
        assert_eq!(l.join_all([e(1), e(3), e(2)]), e(3));
    }

    #[test]
    fn meet_all_folds_left() {
        let l = Chain::new(5);
        let e = Elem::new;
        assert_eq!(l.meet_all([e(1), e(3), e(2)]), e(1));
    }

    #[test]
    fn bits_is_ceil_log2() {
        assert_eq!(Chain::new(2).bits(), 1);
        assert_eq!(Chain::new(3).bits(), 2);
        assert_eq!(Chain::new(4).bits(), 2);
        assert_eq!(Chain::new(5).bits(), 3);
        assert_eq!(Chain::new(8).bits(), 3);
        assert_eq!(Chain::new(9).bits(), 4);
    }

    #[test]
    fn one_element_chain_has_one_bit() {
        assert_eq!(Chain::new(1).bits(), 1);
    }

    #[test]
    fn lt_is_strict() {
        let l = TwoPoint::new();
        assert!(l.lt(TwoPoint::UNTAINTED, TwoPoint::TAINTED));
        assert!(!l.lt(TwoPoint::TAINTED, TwoPoint::TAINTED));
        assert!(!l.lt(TwoPoint::TAINTED, TwoPoint::UNTAINTED));
    }

    #[test]
    fn comparable_in_chain_is_total() {
        let l = Chain::new(4);
        for a in l.elems() {
            for b in l.elems() {
                assert!(l.comparable(a, b));
            }
        }
    }

    #[test]
    fn is_empty_is_always_false() {
        assert!(!Chain::new(1).is_empty());
        assert!(!TwoPoint::new().is_empty());
    }
}
