use crate::{CnfFormula, Lit, Var};

/// Builds a CNF formula from circuit-level gates via the Tseitin
/// transformation.
///
/// Every gate method returns a literal whose value is *equivalent* to the
/// gate's output under the emitted definition clauses, so encoders can
/// freely compose gates and finally [`assert_lit`](Self::assert_lit) the
/// roots they require to hold.
///
/// Two distinguished literals, [`lit_true`](Self::lit_true) and its
/// negation, represent the Boolean constants; the builder lazily pins a
/// variable to true on first use. Gate methods shortcut on constants, so
/// encoding a program with many constant assignments produces a compact
/// formula.
///
/// # Examples
///
/// ```
/// use cnf::FormulaBuilder;
///
/// let mut b = FormulaBuilder::new();
/// let x = b.fresh_lit();
/// let t = b.lit_true();
/// // x ∧ true simplifies to x — no new variable is introduced.
/// assert_eq!(b.and(x, t), x);
/// ```
#[derive(Debug, Default)]
pub struct FormulaBuilder {
    formula: CnfFormula,
    next_var: usize,
    const_true: Option<Lit>,
    counting: bool,
}

impl FormulaBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        FormulaBuilder::default()
    }

    /// Creates a builder that discards every clause it would emit while
    /// still allocating variables exactly like a normal builder.
    ///
    /// Gate shortcuts depend only on literal identity and the pinned
    /// constant, never on emitted clauses, so an encoder driven through
    /// a counting builder allocates the same variables as a real run —
    /// [`num_vars`](Self::num_vars) is exact — at a fraction of the
    /// memory and time. Used to size encodings without materializing
    /// them.
    pub fn new_counting() -> Self {
        FormulaBuilder {
            counting: true,
            ..FormulaBuilder::default()
        }
    }

    /// Emits a clause unless this is a counting builder.
    fn emit(&mut self, lits: impl IntoIterator<Item = Lit>) {
        if !self.counting {
            self.formula.add_lits(lits);
        }
    }

    /// Allocates a fresh variable.
    pub fn fresh_var(&mut self) -> Var {
        let v = Var::new(self.next_var);
        self.next_var += 1;
        self.formula.ensure_var(v);
        v
    }

    /// Allocates a fresh variable and returns its positive literal.
    pub fn fresh_lit(&mut self) -> Lit {
        self.fresh_var().positive()
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.next_var
    }

    /// Number of clauses emitted so far.
    pub fn num_clauses(&self) -> usize {
        self.formula.num_clauses()
    }

    /// The literal that is constant-true in every model.
    pub fn lit_true(&mut self) -> Lit {
        if let Some(t) = self.const_true {
            return t;
        }
        let t = self.fresh_lit();
        self.emit([t]);
        self.const_true = Some(t);
        t
    }

    /// The literal that is constant-false in every model.
    pub fn lit_false(&mut self) -> Lit {
        !self.lit_true()
    }

    /// Whether `l` is the pinned constant-true (resp. false) literal.
    fn const_value(&self, l: Lit) -> Option<bool> {
        match self.const_true {
            Some(t) if l == t => Some(true),
            Some(t) if l == !t => Some(false),
            _ => None,
        }
    }

    /// Adds a clause requiring `l` to hold.
    pub fn assert_lit(&mut self, l: Lit) {
        self.emit([l]);
    }

    /// Adds an arbitrary clause (disjunction of the given literals).
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        self.emit(lits);
    }

    /// Returns a literal equivalent to `a ∧ b`.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        match (self.const_value(a), self.const_value(b)) {
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            (Some(false), _) | (_, Some(false)) => return self.lit_false(),
            _ => {}
        }
        if a == b {
            return a;
        }
        if a == !b {
            return self.lit_false();
        }
        let o = self.fresh_lit();
        // o → a, o → b, (a ∧ b) → o
        self.emit([!o, a]);
        self.emit([!o, b]);
        self.emit([!a, !b, o]);
        o
    }

    /// Returns a literal equivalent to `a ∨ b`.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// Returns a literal equivalent to the conjunction of all `lits`.
    ///
    /// An empty conjunction is the constant true.
    pub fn and_all(&mut self, lits: impl IntoIterator<Item = Lit>) -> Lit {
        let mut acc = self.lit_true();
        for l in lits {
            acc = self.and(acc, l);
        }
        acc
    }

    /// Returns a literal equivalent to the disjunction of all `lits`.
    ///
    /// An empty disjunction is the constant false.
    pub fn or_all(&mut self, lits: impl IntoIterator<Item = Lit>) -> Lit {
        let mut acc = self.lit_false();
        for l in lits {
            acc = self.or(acc, l);
        }
        acc
    }

    /// Returns a literal equivalent to `a → b`.
    pub fn implies(&mut self, a: Lit, b: Lit) -> Lit {
        self.or(!a, b)
    }

    /// Returns a literal equivalent to `a ↔ b`.
    pub fn iff(&mut self, a: Lit, b: Lit) -> Lit {
        match (self.const_value(a), self.const_value(b)) {
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            (Some(false), _) => return !b,
            (_, Some(false)) => return !a,
            _ => {}
        }
        if a == b {
            return self.lit_true();
        }
        if a == !b {
            return self.lit_false();
        }
        let o = self.fresh_lit();
        self.emit([!o, !a, b]);
        self.emit([!o, a, !b]);
        self.emit([o, a, b]);
        self.emit([o, !a, !b]);
        o
    }

    /// Returns a literal equivalent to `a ⊕ b`.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        !self.iff(a, b)
    }

    /// Returns a literal equivalent to `cond ? then_lit : else_lit`
    /// (the multiplexer used by the paper's guarded assignments
    /// `tᵢx = g ? ρ(te) : tᵢ⁻¹x`, Figure 5).
    pub fn ite(&mut self, cond: Lit, then_lit: Lit, else_lit: Lit) -> Lit {
        match self.const_value(cond) {
            Some(true) => return then_lit,
            Some(false) => return else_lit,
            None => {}
        }
        if then_lit == else_lit {
            return then_lit;
        }
        let o = self.fresh_lit();
        // cond → (o ↔ then), ¬cond → (o ↔ else)
        self.emit([!cond, !o, then_lit]);
        self.emit([!cond, o, !then_lit]);
        self.emit([cond, !o, else_lit]);
        self.emit([cond, o, !else_lit]);
        // Redundant (implied) clauses: when both arms agree the output
        // follows without knowing cond. They add nothing semantically
        // but make unit propagation ternary-complete through ITE
        // chains, which cube generalization in the ALLSAT enumerator
        // relies on to drop don't-care branch literals.
        self.emit([!then_lit, !else_lit, o]);
        self.emit([then_lit, else_lit, !o]);
        o
    }

    /// Constrains two equal-length bit vectors to be equal whenever
    /// `guard` holds (`guard → (a[i] ↔ b[i])` for every i).
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn guarded_equal(&mut self, guard: Lit, a: &[Lit], b: &[Lit]) {
        assert_eq!(a.len(), b.len(), "bit vectors must have equal widths");
        for (&ai, &bi) in a.iter().zip(b) {
            self.emit([!guard, !ai, bi]);
            self.emit([!guard, ai, !bi]);
        }
    }

    /// Returns a literal that is true iff the bit vector `bits` encodes
    /// the unsigned value `value` (LSB first).
    pub fn equals_const(&mut self, bits: &[Lit], value: usize) -> Lit {
        let lits: Vec<Lit> = bits
            .iter()
            .enumerate()
            .map(|(i, &b)| if value >> i & 1 == 1 { b } else { !b })
            .collect();
        self.and_all(lits)
    }

    /// Adds clauses forcing the bit vector `bits` to encode `value`
    /// (LSB first).
    pub fn assert_const(&mut self, bits: &[Lit], value: usize) {
        for (i, &b) in bits.iter().enumerate() {
            if value >> i & 1 == 1 {
                self.assert_lit(b);
            } else {
                self.assert_lit(!b);
            }
        }
    }

    /// The formula built so far, consuming the builder.
    pub fn into_formula(self) -> CnfFormula {
        self.formula
    }

    /// A view of the formula built so far.
    pub fn formula(&self) -> &CnfFormula {
        &self.formula
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks that `out` is equivalent to `expected(inputs)` in every
    /// model of the built formula, by brute force.
    fn assert_gate(
        build: impl Fn(&mut FormulaBuilder, Lit, Lit) -> Lit,
        expected: impl Fn(bool, bool) -> bool,
    ) {
        let mut b = FormulaBuilder::new();
        let x = b.fresh_lit();
        let y = b.fresh_lit();
        let o = build(&mut b, x, y);
        let f = b.into_formula();
        let mut seen = [false; 4];
        for m in f.brute_force_models() {
            let (xv, yv) = (x.eval(&m).unwrap(), y.eval(&m).unwrap());
            let ov = o.eval(&m).unwrap();
            assert_eq!(ov, expected(xv, yv), "gate wrong at x={xv}, y={yv}");
            seen[usize::from(xv) * 2 + usize::from(yv)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "gate clauses over-constrain inputs"
        );
    }

    #[test]
    fn and_gate_semantics() {
        assert_gate(|b, x, y| b.and(x, y), |x, y| x && y);
    }

    #[test]
    fn or_gate_semantics() {
        assert_gate(|b, x, y| b.or(x, y), |x, y| x || y);
    }

    #[test]
    fn implies_gate_semantics() {
        assert_gate(|b, x, y| b.implies(x, y), |x, y| !x || y);
    }

    #[test]
    fn iff_gate_semantics() {
        assert_gate(|b, x, y| b.iff(x, y), |x, y| x == y);
    }

    #[test]
    fn xor_gate_semantics() {
        assert_gate(|b, x, y| b.xor(x, y), |x, y| x != y);
    }

    #[test]
    fn ite_gate_semantics() {
        let mut b = FormulaBuilder::new();
        let c = b.fresh_lit();
        let t = b.fresh_lit();
        let e = b.fresh_lit();
        let o = b.ite(c, t, e);
        let f = b.into_formula();
        for m in f.brute_force_models() {
            let (cv, tv, ev) = (
                c.eval(&m).unwrap(),
                t.eval(&m).unwrap(),
                e.eval(&m).unwrap(),
            );
            assert_eq!(o.eval(&m).unwrap(), if cv { tv } else { ev });
        }
    }

    #[test]
    fn constant_shortcuts() {
        let mut b = FormulaBuilder::new();
        let x = b.fresh_lit();
        let t = b.lit_true();
        let f = b.lit_false();
        assert_eq!(b.and(x, t), x);
        assert_eq!(b.and(t, x), x);
        assert_eq!(b.and(x, f), f);
        assert_eq!(b.or(x, f), x);
        assert_eq!(b.or(x, t), t);
        assert_eq!(b.iff(x, t), x);
        assert_eq!(b.iff(x, f), !x);
        assert_eq!(b.ite(t, x, f), x);
        assert_eq!(b.ite(f, x, t), t);
    }

    #[test]
    fn idempotence_shortcuts() {
        let mut b = FormulaBuilder::new();
        let x = b.fresh_lit();
        assert_eq!(b.and(x, x), x);
        assert_eq!(b.or(x, x), x);
        let t = b.iff(x, x);
        assert_eq!(b.const_value(t), Some(true));
        let contradiction = b.and(x, !x);
        assert_eq!(b.const_value(contradiction), Some(false));
    }

    #[test]
    fn and_all_empty_is_true() {
        let mut b = FormulaBuilder::new();
        let t = b.and_all([]);
        assert_eq!(b.const_value(t), Some(true));
        let f = b.or_all([]);
        assert_eq!(b.const_value(f), Some(false));
    }

    #[test]
    fn equals_const_matches_binary_encoding() {
        let mut b = FormulaBuilder::new();
        let bits: Vec<Lit> = (0..3).map(|_| b.fresh_lit()).collect();
        let is5 = b.equals_const(&bits, 5);
        b.assert_lit(is5);
        let f = b.into_formula();
        for m in f.brute_force_models() {
            let val: usize = bits
                .iter()
                .enumerate()
                .map(|(i, &l)| usize::from(l.eval(&m).unwrap()) << i)
                .sum();
            assert_eq!(val, 5);
        }
    }

    #[test]
    fn assert_const_pins_bits() {
        let mut b = FormulaBuilder::new();
        let bits: Vec<Lit> = (0..4).map(|_| b.fresh_lit()).collect();
        b.assert_const(&bits, 0b1010);
        let f = b.into_formula();
        let models = f.brute_force_models();
        assert_eq!(models.len(), 1);
        assert!(!bits[0].eval(&models[0]).unwrap());
        assert!(bits[1].eval(&models[0]).unwrap());
    }

    #[test]
    fn guarded_equal_only_binds_under_guard() {
        let mut b = FormulaBuilder::new();
        let g = b.fresh_lit();
        let a: Vec<Lit> = (0..2).map(|_| b.fresh_lit()).collect();
        let c: Vec<Lit> = (0..2).map(|_| b.fresh_lit()).collect();
        b.guarded_equal(g, &a, &c);
        let f = b.into_formula();
        for m in f.brute_force_models() {
            if g.eval(&m).unwrap() {
                for (x, y) in a.iter().zip(&c) {
                    assert_eq!(x.eval(&m), y.eval(&m));
                }
            }
        }
        // With the guard false, unequal vectors must be allowed.
        assert!(f
            .brute_force_models()
            .iter()
            .any(|m| !g.eval(m).unwrap() && a[0].eval(m) != c[0].eval(m)));
    }

    #[test]
    fn ite_redundant_clauses_propagate_agreeing_arms() {
        // With both arms forced equal and cond left free, the output
        // must still be pinned in every model (the implied clauses do
        // this; the core four alone also do, semantically — this test
        // guards the gate's truth table with the extra clauses in).
        let mut b = FormulaBuilder::new();
        let c = b.fresh_lit();
        let t = b.fresh_lit();
        let e = b.fresh_lit();
        let o = b.ite(c, t, e);
        b.assert_lit(t);
        b.assert_lit(e);
        let f = b.into_formula();
        let models = f.brute_force_models();
        assert!(!models.is_empty());
        for m in &models {
            assert_eq!(o.eval(m), Some(true));
        }
    }

    #[test]
    fn counting_builder_allocates_identical_vars() {
        let drive = |b: &mut FormulaBuilder| {
            let x = b.fresh_lit();
            let y = b.fresh_lit();
            let t = b.lit_true();
            let a = b.and(x, y);
            let o = b.or(a, t);
            let i = b.ite(x, a, y);
            let e = b.iff(i, o);
            b.assert_lit(e);
            b.num_vars()
        };
        let mut real = FormulaBuilder::new();
        let mut counting = FormulaBuilder::new_counting();
        assert_eq!(drive(&mut real), drive(&mut counting));
        assert!(real.num_clauses() > 0);
        assert_eq!(counting.num_clauses(), 0);
    }

    #[test]
    #[should_panic(expected = "equal widths")]
    fn guarded_equal_rejects_mismatched_widths() {
        let mut b = FormulaBuilder::new();
        let g = b.fresh_lit();
        let a = [b.fresh_lit()];
        b.guarded_equal(g, &a, &[]);
    }
}
