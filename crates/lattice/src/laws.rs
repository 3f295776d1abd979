//! Executable lattice axioms.
//!
//! These checks make the algebraic requirements of the paper's §3.1
//! explicit and testable: the order must be a partial order, join/meet
//! must be the least upper/greatest lower bound, and `⊥`/`⊤` must bound
//! every element. They run in `O(n³)` and are intended for test code,
//! here and in downstream crates that define their own lattices.

use crate::{Elem, Lattice};

/// A violated lattice law, with the witnesses that violate it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LawViolation {
    /// `a ≤ a` failed.
    Reflexivity(Elem),
    /// `a ≤ b ∧ b ≤ a` with `a ≠ b`.
    Antisymmetry(Elem, Elem),
    /// `a ≤ b ∧ b ≤ c` but not `a ≤ c`.
    Transitivity(Elem, Elem, Elem),
    /// `a ⊔ b` is not an upper bound or not the least one.
    JoinNotLub(Elem, Elem),
    /// `a ⊓ b` is not a lower bound or not the greatest one.
    MeetNotGlb(Elem, Elem),
    /// `⊥ ≤ a` failed.
    BottomNotLeast(Elem),
    /// `a ≤ ⊤` failed.
    TopNotGreatest(Elem),
    /// `a ⊔ b ≠ b ⊔ a` (or the meet analogue).
    NotCommutative(Elem, Elem),
    /// Absorption `a ⊔ (a ⊓ b) = a` failed.
    NotAbsorptive(Elem, Elem),
}

/// Checks every lattice law, returning the first violation found.
///
/// # Examples
///
/// ```
/// use taint_lattice::{laws, TwoPoint};
///
/// assert_eq!(laws::check_lattice_laws(&TwoPoint::new()), None);
/// ```
pub fn check_lattice_laws<L: Lattice>(l: &L) -> Option<LawViolation> {
    let elems = l.elems();
    for &a in &elems {
        if !l.leq(a, a) {
            return Some(LawViolation::Reflexivity(a));
        }
        if !l.leq(l.bottom(), a) {
            return Some(LawViolation::BottomNotLeast(a));
        }
        if !l.leq(a, l.top()) {
            return Some(LawViolation::TopNotGreatest(a));
        }
    }
    for &a in &elems {
        for &b in &elems {
            if a != b && l.leq(a, b) && l.leq(b, a) {
                return Some(LawViolation::Antisymmetry(a, b));
            }
            let j = l.join(a, b);
            let m = l.meet(a, b);
            if j != l.join(b, a) || m != l.meet(b, a) {
                return Some(LawViolation::NotCommutative(a, b));
            }
            // Join is an upper bound and is least among upper bounds.
            if !l.leq(a, j) || !l.leq(b, j) {
                return Some(LawViolation::JoinNotLub(a, b));
            }
            // Meet is a lower bound and is greatest among lower bounds.
            if !l.leq(m, a) || !l.leq(m, b) {
                return Some(LawViolation::MeetNotGlb(a, b));
            }
            for &c in &elems {
                if l.leq(a, c) && l.leq(b, c) && !l.leq(j, c) {
                    return Some(LawViolation::JoinNotLub(a, b));
                }
                if l.leq(c, a) && l.leq(c, b) && !l.leq(c, m) {
                    return Some(LawViolation::MeetNotGlb(a, b));
                }
                if l.leq(a, b) && l.leq(b, c) && !l.leq(a, c) {
                    return Some(LawViolation::Transitivity(a, b, c));
                }
            }
            if l.join(a, l.meet(a, b)) != a || l.meet(a, l.join(a, b)) != a {
                return Some(LawViolation::NotAbsorptive(a, b));
            }
        }
    }
    None
}

/// Asserts that every lattice law holds; panics with the violation
/// otherwise. Intended for tests.
///
/// # Panics
///
/// Panics if [`check_lattice_laws`] reports a violation.
pub fn assert_lattice_laws<L: Lattice>(l: &L) {
    if let Some(v) = check_lattice_laws(l) {
        panic!("lattice law violated: {v:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Chain, Powerset, TwoPoint};

    #[test]
    fn all_shipped_lattices_pass() {
        assert_lattice_laws(&TwoPoint::new());
        assert_lattice_laws(&Chain::new(7));
        assert_lattice_laws(&Powerset::new(vec!["a".into(), "b".into(), "c".into()]));
    }

    /// A deliberately broken "lattice" to prove the checker detects
    /// violations rather than rubber-stamping.
    struct BrokenJoin;

    impl Lattice for BrokenJoin {
        fn len(&self) -> usize {
            2
        }
        fn leq(&self, a: Elem, b: Elem) -> bool {
            a.index() <= b.index()
        }
        fn join(&self, _a: Elem, _b: Elem) -> Elem {
            Elem::new(0) // wrong: join(0,1) should be 1
        }
        fn meet(&self, a: Elem, b: Elem) -> Elem {
            Elem::new(a.index().min(b.index()))
        }
        fn bottom(&self) -> Elem {
            Elem::new(0)
        }
        fn top(&self) -> Elem {
            Elem::new(1)
        }
    }

    #[test]
    fn broken_join_is_detected() {
        let v = check_lattice_laws(&BrokenJoin).expect("must detect violation");
        assert!(matches!(
            v,
            LawViolation::JoinNotLub(..) | LawViolation::NotAbsorptive(..)
        ));
    }

    struct BrokenBottom;

    impl Lattice for BrokenBottom {
        fn len(&self) -> usize {
            2
        }
        fn leq(&self, a: Elem, b: Elem) -> bool {
            a.index() <= b.index()
        }
        fn join(&self, a: Elem, b: Elem) -> Elem {
            Elem::new(a.index().max(b.index()))
        }
        fn meet(&self, a: Elem, b: Elem) -> Elem {
            Elem::new(a.index().min(b.index()))
        }
        fn bottom(&self) -> Elem {
            Elem::new(1) // wrong
        }
        fn top(&self) -> Elem {
            Elem::new(1)
        }
    }

    #[test]
    fn broken_bottom_is_detected() {
        let v = check_lattice_laws(&BrokenBottom).expect("must detect violation");
        assert_eq!(v, LawViolation::BottomNotLeast(Elem::new(0)));
    }
}
