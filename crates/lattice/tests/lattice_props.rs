//! Property-based tests on the lattice algebra.

use proptest::prelude::*;
use taint_lattice::{Chain, Elem, Lattice, Powerset};

fn elem_strategy(len: usize) -> impl Strategy<Value = Elem> {
    (0..len).prop_map(Elem::new)
}

proptest! {
    #[test]
    fn chain_join_meet_agree_with_min_max(h in 1usize..12, a in 0usize..12, b in 0usize..12) {
        let l = Chain::new(h);
        let a = Elem::new(a % h);
        let b = Elem::new(b % h);
        prop_assert_eq!(l.join(a, b).index(), a.index().max(b.index()));
        prop_assert_eq!(l.meet(a, b).index(), a.index().min(b.index()));
    }

    #[test]
    fn powerset_join_is_union(kinds in 1usize..8, a in any::<u16>(), b in any::<u16>()) {
        let names = (0..kinds).map(|i| format!("k{i}")).collect();
        let l = Powerset::new(names);
        let mask = (l.len() - 1) as u16;
        let a = Elem::new((a & mask) as usize);
        let b = Elem::new((b & mask) as usize);
        prop_assert_eq!(l.join(a, b).index(), a.index() | b.index());
        prop_assert_eq!(l.meet(a, b).index(), a.index() & b.index());
        prop_assert_eq!(l.leq(a, b), a.index() & !b.index() == 0);
    }

    #[test]
    fn join_is_idempotent_and_monotone(a in elem_strategy(8), b in elem_strategy(8)) {
        let l = Powerset::new(vec!["x".into(), "y".into(), "z".into()]);
        prop_assert_eq!(l.join(a, a), a);
        // a ≤ a ⊔ b always
        prop_assert!(l.leq(a, l.join(a, b)));
        // join with top is absorbing
        prop_assert_eq!(l.join(a, l.top()), l.top());
        prop_assert_eq!(l.meet(a, l.bottom()), l.bottom());
    }

    #[test]
    fn leq_iff_join_is_right_operand(a in elem_strategy(8), b in elem_strategy(8)) {
        // Paper §3.1: τ1 ≤ τ2 iff τ1 ⊔ τ2 = τ2 (lattice-theoretic ≤).
        let l = Powerset::new(vec!["x".into(), "y".into(), "z".into()]);
        prop_assert_eq!(l.leq(a, b), l.join(a, b) == b);
        prop_assert_eq!(l.leq(a, b), l.meet(a, b) == a);
    }

    #[test]
    fn join_all_equals_manual_fold(elems in prop::collection::vec(0usize..8, 0..10)) {
        let l = Powerset::new(vec!["x".into(), "y".into(), "z".into()]);
        let elems: Vec<Elem> = elems.into_iter().map(Elem::new).collect();
        let expected = elems.iter().fold(0usize, |acc, e| acc | e.index());
        prop_assert_eq!(l.join_all(elems).index(), expected);
    }
}
