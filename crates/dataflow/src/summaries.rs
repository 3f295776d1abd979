//! Context-sensitive function summaries over the PHP AST.
//!
//! The filter unfolds calls inline (with a recursion cutoff), so the
//! SSA analysis is already interprocedural *after* unfolding. This
//! module computes the complementary compact view: one summary per
//! declared function describing its return taint as a function of its
//! parameters — `ret = base ⊔ ⊔_{i ∈ deps} taint(arg_i)` — computed
//! bottom-up over the call graph (Tarjan SCCs), with a per-SCC fixpoint
//! for recursion that widens soundly to ⊤ at the configured cutoff.
//!
//! Summaries are context-insensitive by default. A function whose
//! summary is *taint-polymorphic* (its return taint depends on at least
//! one parameter, `deps ≠ 0`) gets 1-level call-site cloning: at a
//! direct call site the callee body is re-evaluated against the actual
//! argument values instead of instantiating the summary, which is
//! exactly one level of context sensitivity. Cloning counts are
//! reported so the `contexts_cloned` counter can surface how often the
//! polymorphic case fires in real corpora.

use std::collections::HashMap;

use php_front::ast::{Expr, Program, Stmt, StrPart};
use taint_lattice::{Elem, Lattice};
use webssari_ir::Prelude;

/// A summary value: taint as a function of the enclosing function's
/// parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SumVal {
    /// Parameter-independent taint.
    pub base: Elem,
    /// Bitmask of parameter indices whose taint joins into the value.
    pub deps: u64,
    /// Whether the value passed through a sanitizer.
    pub sanitized: bool,
}

impl SumVal {
    fn constant(base: Elem) -> SumVal {
        SumVal {
            base,
            deps: 0,
            sanitized: false,
        }
    }

    fn join(self, other: SumVal, lattice: &impl Lattice) -> SumVal {
        SumVal {
            base: lattice.join(self.base, other.base),
            deps: self.deps | other.deps,
            sanitized: self.sanitized || other.sanitized,
        }
    }
}

/// The summary of one declared function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuncSummary {
    /// Return value as a function of the parameters.
    pub ret: SumVal,
    /// Whether the return taint depends on parameter taint
    /// (`ret.deps ≠ 0`) — such functions get call-site cloning.
    pub polymorphic: bool,
    /// Whether this summary was widened to ⊤ at the recursion cutoff.
    pub widened: bool,
}

/// Result of summary computation over one program.
#[derive(Clone, Debug, Default)]
pub struct SummaryResult {
    /// Summaries keyed by lowercased function name.
    pub summaries: HashMap<String, FuncSummary>,
    /// Number of function summaries computed (SCC fixpoint iterations
    /// count once per function).
    pub summaries_computed: u64,
    /// Number of call sites where a taint-polymorphic callee was
    /// re-evaluated against actual arguments (1-level cloning).
    pub contexts_cloned: u64,
    /// Number of summaries widened to ⊤ at the recursion cutoff.
    pub recursion_widened: u64,
}

struct FuncDef<'a> {
    params: Vec<String>,
    body: &'a [Stmt],
}

struct Cx<'a, L: Lattice> {
    prelude: &'a Prelude,
    lattice: &'a L,
    funcs: HashMap<String, FuncDef<'a>>,
    summaries: HashMap<String, FuncSummary>,
    contexts_cloned: u64,
}

impl<L: Lattice> Cx<'_, L> {
    /// Evaluates `body` with `env` binding each variable to a summary
    /// value, returning the join of all `return` expressions (⊥ when
    /// the function never returns a value). `clone_depth` counts how
    /// many levels of call-site cloning remain.
    fn eval_body(
        &mut self,
        body: &[Stmt],
        env: &mut HashMap<String, SumVal>,
        clone_depth: usize,
    ) -> SumVal {
        let mut ret = SumVal::constant(self.lattice.bottom());
        self.eval_stmts(body, env, clone_depth, &mut ret);
        ret
    }

    fn eval_stmts(
        &mut self,
        stmts: &[Stmt],
        env: &mut HashMap<String, SumVal>,
        clone_depth: usize,
        ret: &mut SumVal,
    ) {
        for s in stmts {
            match s {
                Stmt::Expr(e, _) => {
                    self.eval_expr(e, env, clone_depth);
                }
                Stmt::Echo(es, _) => {
                    for e in es {
                        self.eval_expr(e, env, clone_depth);
                    }
                }
                Stmt::If {
                    cond,
                    then_branch,
                    elseifs,
                    else_branch,
                    ..
                } => {
                    self.eval_expr(cond, env, clone_depth);
                    // Join the environments of all arms against the
                    // fall-through (the selection is nondeterministic
                    // in the abstract semantics).
                    let mut merged = env.clone();
                    let mut arm = env.clone();
                    self.eval_stmts(then_branch, &mut arm, clone_depth, ret);
                    join_env(&mut merged, &arm, self.lattice);
                    for (c, body) in elseifs {
                        let mut arm = env.clone();
                        self.eval_expr(c, &mut arm, clone_depth);
                        self.eval_stmts(body, &mut arm, clone_depth, ret);
                        join_env(&mut merged, &arm, self.lattice);
                    }
                    if let Some(body) = else_branch {
                        let mut arm = env.clone();
                        self.eval_stmts(body, &mut arm, clone_depth, ret);
                        join_env(&mut merged, &arm, self.lattice);
                    }
                    *env = merged;
                }
                Stmt::While { cond, body, .. } => {
                    self.eval_expr(cond, env, clone_depth);
                    self.eval_loop(body, env, clone_depth, ret);
                }
                Stmt::DoWhile { body, cond, .. } => {
                    self.eval_loop(body, env, clone_depth, ret);
                    self.eval_expr(cond, env, clone_depth);
                }
                Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    ..
                } => {
                    for e in init {
                        self.eval_expr(e, env, clone_depth);
                    }
                    if let Some(c) = cond {
                        self.eval_expr(c, env, clone_depth);
                    }
                    let mut full: Vec<Stmt> = body.to_vec();
                    for e in step {
                        full.push(Stmt::Expr(e.clone(), php_front::Span::default()));
                    }
                    self.eval_loop(&full, env, clone_depth, ret);
                }
                Stmt::Foreach {
                    array,
                    key,
                    value,
                    body,
                    ..
                } => {
                    let v = self.eval_expr(array, env, clone_depth);
                    if let Some(k) = key {
                        env.insert(k.clone(), v);
                    }
                    env.insert(value.clone(), v);
                    self.eval_loop(body, env, clone_depth, ret);
                }
                Stmt::Switch { subject, cases, .. } => {
                    self.eval_expr(subject, env, clone_depth);
                    let mut merged = env.clone();
                    for (c, body) in cases {
                        let mut arm = env.clone();
                        if let Some(c) = c {
                            self.eval_expr(c, &mut arm, clone_depth);
                        }
                        self.eval_stmts(body, &mut arm, clone_depth, ret);
                        join_env(&mut merged, &arm, self.lattice);
                    }
                    *env = merged;
                }
                Stmt::Return(e, _) => {
                    let v = match e {
                        Some(e) => self.eval_expr(e, env, clone_depth),
                        None => SumVal::constant(self.lattice.bottom()),
                    };
                    *ret = ret.join(v, self.lattice);
                }
                Stmt::Exit(e, _) => {
                    if let Some(e) = e {
                        self.eval_expr(e, env, clone_depth);
                    }
                }
                Stmt::Block(stmts) => self.eval_stmts(stmts, env, clone_depth, ret),
                Stmt::FuncDecl { .. }
                | Stmt::Include { .. }
                | Stmt::Global(..)
                | Stmt::Break(..)
                | Stmt::Continue(..)
                | Stmt::InlineHtml(..)
                | Stmt::Nop(..) => {}
            }
        }
    }

    /// One-pass loop approximation matching the AI's single unfolding:
    /// evaluate the body once and join the resulting environment with
    /// the skip environment.
    fn eval_loop(
        &mut self,
        body: &[Stmt],
        env: &mut HashMap<String, SumVal>,
        clone_depth: usize,
        ret: &mut SumVal,
    ) {
        let mut once = env.clone();
        self.eval_stmts(body, &mut once, clone_depth, ret);
        join_env(env, &once, self.lattice);
    }

    fn eval_expr(
        &mut self,
        e: &Expr,
        env: &mut HashMap<String, SumVal>,
        clone_depth: usize,
    ) -> SumVal {
        let bottom = SumVal::constant(self.lattice.bottom());
        match e {
            Expr::Var(name) => self.read_var(name, env),
            Expr::ArrayAccess { base, index } => {
                if let Some(i) = index {
                    self.eval_expr(i, env, clone_depth);
                }
                self.eval_expr(base, env, clone_depth)
            }
            Expr::PropFetch { base, .. } => self.eval_expr(base, env, clone_depth),
            Expr::StringLit(parts) => {
                let mut v = bottom;
                for p in parts {
                    match p {
                        StrPart::Lit(_) => {}
                        StrPart::Var(name) | StrPart::ArrayVar { var: name, .. } => {
                            v = v.join(self.read_var(name, env), self.lattice);
                        }
                    }
                }
                v
            }
            Expr::IntLit(_) | Expr::FloatLit(_) | Expr::BoolLit(_) | Expr::NullLit => bottom,
            Expr::ArrayLit(entries) => {
                let mut v = bottom;
                for (k, val) in entries {
                    if let Some(k) = k {
                        v = v.join(self.eval_expr(k, env, clone_depth), self.lattice);
                    }
                    v = v.join(self.eval_expr(val, env, clone_depth), self.lattice);
                }
                v
            }
            Expr::Binary { left, right, .. } => {
                let l = self.eval_expr(left, env, clone_depth);
                let r = self.eval_expr(right, env, clone_depth);
                l.join(r, self.lattice)
            }
            Expr::Unary { expr, .. } => self.eval_expr(expr, env, clone_depth),
            Expr::Ternary {
                cond,
                then,
                otherwise,
            } => {
                let c = self.eval_expr(cond, env, clone_depth);
                let t = match then {
                    Some(t) => self.eval_expr(t, env, clone_depth),
                    None => c,
                };
                let o = self.eval_expr(otherwise, env, clone_depth);
                t.join(o, self.lattice)
            }
            Expr::Call { name, args, .. } => {
                let arg_vals: Vec<SumVal> = args
                    .iter()
                    .map(|a| self.eval_expr(a, env, clone_depth))
                    .collect();
                self.eval_call(name, &arg_vals, clone_depth)
            }
            Expr::MethodCall { base, args, .. } => {
                // Unknown callee: the result joins everything flowing
                // in (matches the filter's conservative treatment).
                let mut v = self.eval_expr(base, env, clone_depth);
                for a in args {
                    v = v.join(self.eval_expr(a, env, clone_depth), self.lattice);
                }
                v
            }
            Expr::Assign {
                target,
                op: _,
                value,
                ..
            } => {
                let v = self.eval_expr(value, env, clone_depth);
                for root in target.root_vars() {
                    env.insert(root.to_owned(), v);
                }
                v
            }
            Expr::IncDec { target } => match target.root_var() {
                Some(root) => self.read_var(root, env),
                None => bottom,
            },
        }
    }

    fn read_var(&self, name: &str, env: &HashMap<String, SumVal>) -> SumVal {
        if let Some(level) = self.prelude.superglobal_level(name) {
            return SumVal::constant(level);
        }
        env.get(name)
            .copied()
            .unwrap_or(SumVal::constant(self.lattice.bottom()))
    }

    fn eval_call(&mut self, name: &str, args: &[SumVal], clone_depth: usize) -> SumVal {
        let lower = name.to_ascii_lowercase();
        let join_args = |lattice: &L| {
            args.iter()
                .fold(SumVal::constant(lattice.bottom()), |a, &b| {
                    a.join(b, lattice)
                })
        };
        if let Some(level) = self.prelude.sanitizer_level(name) {
            // Full neutralizer: the result is reset to the sanitizer's
            // postcondition level and carries no parameter deps.
            let _ = args;
            return SumVal {
                base: level,
                deps: 0,
                sanitized: true,
            };
        }
        if let Some(mask) = self.prelude.sanitizer_mask(name) {
            let v = join_args(self.lattice);
            let base = self.lattice.meet(v.base, mask);
            // A kind-removing mask keeps parameter deps only when the
            // kept set is nonempty — the masked join could still carry
            // parameter taint of the kept kinds.
            let deps = if base == self.lattice.bottom() && mask == self.lattice.bottom() {
                0
            } else {
                v.deps
            };
            return SumVal {
                base,
                deps,
                sanitized: true,
            };
        }
        if self.prelude.returns_trusted(name) {
            return SumVal::constant(self.lattice.bottom());
        }
        if let Some(level) = self.prelude.uic_level(name) {
            return SumVal::constant(level);
        }
        if let Some(summary) = self.summaries.get(&lower).cloned() {
            if summary.polymorphic && clone_depth > 0 {
                if let Some(def) = self.funcs.get(&lower) {
                    // 1-level call-site cloning: re-evaluate the callee
                    // body against the actual argument values. Calls
                    // inside the clone fall back to summaries
                    // (clone_depth 0).
                    let params = def.params.clone();
                    let body = def.body;
                    let mut callee_env: HashMap<String, SumVal> = HashMap::new();
                    for (i, p) in params.iter().enumerate() {
                        let v = args
                            .get(i)
                            .copied()
                            .unwrap_or(SumVal::constant(self.lattice.bottom()));
                        callee_env.insert(p.clone(), v);
                    }
                    self.contexts_cloned += 1;
                    return self.eval_body(body, &mut callee_env, clone_depth - 1);
                }
            }
            // Summary instantiation: substitute actual argument values
            // for the parameter deps.
            let mut v = SumVal {
                base: summary.ret.base,
                deps: 0,
                sanitized: summary.ret.sanitized,
            };
            for (i, &a) in args.iter().enumerate() {
                if i < 64 && summary.ret.deps & (1u64 << i) != 0 {
                    v = v.join(a, self.lattice);
                }
            }
            return v;
        }
        // Unknown function: conservatively joins its arguments (the
        // filter's treatment of unknown calls).
        join_args(self.lattice)
    }
}

fn join_env<L: Lattice>(into: &mut HashMap<String, SumVal>, from: &HashMap<String, SumVal>, l: &L) {
    for (k, &v) in from {
        match into.get_mut(k) {
            Some(cur) => *cur = cur.join(v, l),
            None => {
                into.insert(k.clone(), v);
            }
        }
    }
}

fn collect_funcs<'a>(stmts: &'a [Stmt], out: &mut HashMap<String, FuncDef<'a>>) {
    // Top-level walk mirroring the filter's function collection:
    // declarations may be nested under conditionals.
    fn walk<'a>(stmts: &'a [Stmt], out: &mut HashMap<String, FuncDef<'a>>) {
        for s in stmts {
            match s {
                Stmt::FuncDecl {
                    name, params, body, ..
                } => {
                    out.insert(
                        name.to_ascii_lowercase(),
                        FuncDef {
                            params: params.iter().map(|p| p.name.clone()).collect(),
                            body,
                        },
                    );
                    walk(body, out);
                }
                Stmt::If {
                    then_branch,
                    elseifs,
                    else_branch,
                    ..
                } => {
                    walk(then_branch, out);
                    for (_, b) in elseifs {
                        walk(b, out);
                    }
                    if let Some(b) = else_branch {
                        walk(b, out);
                    }
                }
                Stmt::While { body, .. }
                | Stmt::DoWhile { body, .. }
                | Stmt::For { body, .. }
                | Stmt::Foreach { body, .. } => walk(body, out),
                Stmt::Switch { cases, .. } => {
                    for (_, b) in cases {
                        walk(b, out);
                    }
                }
                Stmt::Block(b) => walk(b, out),
                _ => {}
            }
        }
    }
    walk(stmts, out);
}

fn callees(body: &[Stmt], known: &HashMap<String, FuncDef<'_>>) -> Vec<String> {
    fn walk_expr(e: &Expr, out: &mut Vec<String>) {
        match e {
            Expr::Call { name, args, .. } => {
                out.push(name.to_ascii_lowercase());
                for a in args {
                    walk_expr(a, out);
                }
            }
            Expr::ArrayAccess { base, index } => {
                walk_expr(base, out);
                if let Some(i) = index {
                    walk_expr(i, out);
                }
            }
            Expr::PropFetch { base, .. } => walk_expr(base, out),
            Expr::ArrayLit(entries) => {
                for (k, v) in entries {
                    if let Some(k) = k {
                        walk_expr(k, out);
                    }
                    walk_expr(v, out);
                }
            }
            Expr::Binary { left, right, .. } => {
                walk_expr(left, out);
                walk_expr(right, out);
            }
            Expr::Unary { expr, .. } => walk_expr(expr, out),
            Expr::Ternary {
                cond,
                then,
                otherwise,
            } => {
                walk_expr(cond, out);
                if let Some(t) = then {
                    walk_expr(t, out);
                }
                walk_expr(otherwise, out);
            }
            Expr::MethodCall { base, args, .. } => {
                walk_expr(base, out);
                for a in args {
                    walk_expr(a, out);
                }
            }
            Expr::Assign { value, .. } => walk_expr(value, out),
            _ => {}
        }
    }
    fn walk(stmts: &[Stmt], out: &mut Vec<String>) {
        for s in stmts {
            match s {
                Stmt::Expr(e, _) => walk_expr(e, out),
                Stmt::Echo(es, _) => {
                    for e in es {
                        walk_expr(e, out);
                    }
                }
                Stmt::If {
                    cond,
                    then_branch,
                    elseifs,
                    else_branch,
                    ..
                } => {
                    walk_expr(cond, out);
                    walk(then_branch, out);
                    for (c, b) in elseifs {
                        walk_expr(c, out);
                        walk(b, out);
                    }
                    if let Some(b) = else_branch {
                        walk(b, out);
                    }
                }
                Stmt::While { cond, body, .. } => {
                    walk_expr(cond, out);
                    walk(body, out);
                }
                Stmt::DoWhile { body, cond, .. } => {
                    walk(body, out);
                    walk_expr(cond, out);
                }
                Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    ..
                } => {
                    for e in init {
                        walk_expr(e, out);
                    }
                    if let Some(c) = cond {
                        walk_expr(c, out);
                    }
                    for e in step {
                        walk_expr(e, out);
                    }
                    walk(body, out);
                }
                Stmt::Foreach { array, body, .. } => {
                    walk_expr(array, out);
                    walk(body, out);
                }
                Stmt::Switch { subject, cases, .. } => {
                    walk_expr(subject, out);
                    for (c, b) in cases {
                        if let Some(c) = c {
                            walk_expr(c, out);
                        }
                        walk(b, out);
                    }
                }
                Stmt::Return(Some(e), _) | Stmt::Exit(Some(e), _) => walk_expr(e, out),
                Stmt::Block(b) => walk(b, out),
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(body, &mut out);
    out.retain(|n| known.contains_key(n));
    out.sort();
    out.dedup();
    out
}

/// Tarjan strongly-connected components over the call graph, emitted in
/// reverse topological order (callees before callers) — exactly the
/// bottom-up order summary computation needs. The sorted `names` list
/// drives iteration, so emission order is deterministic.
fn sccs(names: &[String], edges: &HashMap<String, Vec<String>>) -> Vec<Vec<String>> {
    let idx_of: HashMap<&str, usize> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let succ: Vec<Vec<usize>> = names
        .iter()
        .map(|n| {
            edges
                .get(n)
                .map(|es| {
                    es.iter()
                        .filter_map(|e| idx_of.get(e.as_str()).copied())
                        .collect()
                })
                .unwrap_or_default()
        })
        .collect();

    const UNVISITED: usize = usize::MAX;
    struct T<'a> {
        succ: &'a [Vec<usize>],
        index: Vec<usize>,
        low: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: usize,
        out: Vec<Vec<usize>>,
    }
    fn strongconnect(t: &mut T<'_>, v: usize) {
        t.index[v] = t.next;
        t.low[v] = t.next;
        t.next += 1;
        t.stack.push(v);
        t.on_stack[v] = true;
        for i in 0..t.succ[v].len() {
            let w = t.succ[v][i];
            if t.index[w] == UNVISITED {
                strongconnect(t, w);
                t.low[v] = t.low[v].min(t.low[w]);
            } else if t.on_stack[w] {
                t.low[v] = t.low[v].min(t.index[w]);
            }
        }
        if t.low[v] == t.index[v] {
            let mut comp = Vec::new();
            while let Some(w) = t.stack.pop() {
                t.on_stack[w] = false;
                comp.push(w);
                if w == v {
                    break;
                }
            }
            comp.sort_unstable();
            t.out.push(comp);
        }
    }
    let n = names.len();
    let mut t = T {
        succ: &succ,
        index: vec![UNVISITED; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next: 0,
        out: Vec::new(),
    };
    for v in 0..n {
        if t.index[v] == UNVISITED {
            strongconnect(&mut t, v);
        }
    }
    t.out
        .into_iter()
        .map(|comp| comp.into_iter().map(|i| names[i].clone()).collect())
        .collect()
}

/// Computes bottom-up function summaries for every function declared in
/// `program`. `max_depth` bounds the per-SCC fixpoint iteration count
/// for recursive functions; at the cutoff the whole SCC widens soundly
/// to ⊤ (matching the filter's recursion cutoff approximation).
///
/// Not on the verify path: the verifier does not call it. The
/// benchmark mirror does, to fill `XbmcStats::summaries_computed` and
/// `contexts_cloned`.
pub fn compute_summaries(
    program: &Program,
    prelude: &Prelude,
    lattice: &impl Lattice,
    max_depth: usize,
) -> SummaryResult {
    let mut funcs = HashMap::new();
    collect_funcs(&program.stmts, &mut funcs);
    let mut names: Vec<String> = funcs.keys().cloned().collect();
    names.sort();
    let edges: HashMap<String, Vec<String>> = names
        .iter()
        .map(|n| (n.clone(), callees(funcs[n].body, &funcs)))
        .collect();
    let components = sccs(&names, &edges);

    let mut cx = Cx {
        prelude,
        lattice,
        funcs,
        summaries: HashMap::new(),
        contexts_cloned: 0,
    };
    let mut result = SummaryResult::default();

    for comp in components {
        let recursive = comp.len() > 1
            || edges
                .get(&comp[0])
                .map(|es| es.contains(&comp[0]))
                .unwrap_or(false);
        // Seed the component at ⊥ so the fixpoint climbs monotonically.
        for name in &comp {
            cx.summaries.insert(
                name.clone(),
                FuncSummary {
                    ret: SumVal::constant(lattice.bottom()),
                    polymorphic: false,
                    widened: false,
                },
            );
        }
        let max_iters = if recursive { max_depth.max(1) } else { 1 };
        let mut stable = !recursive;
        for _ in 0..max_iters {
            let mut changed = false;
            for name in &comp {
                let def = &cx.funcs[name];
                let params = def.params.clone();
                let body = def.body;
                let mut env: HashMap<String, SumVal> = HashMap::new();
                for (i, p) in params.iter().enumerate() {
                    let deps = if i < 64 { 1u64 << i } else { 0 };
                    env.insert(
                        p.clone(),
                        SumVal {
                            base: lattice.bottom(),
                            deps,
                            sanitized: false,
                        },
                    );
                }
                // Summary computation itself never clones — cloning is
                // a call-site refinement; the summary must stay the
                // context-insensitive join.
                let ret = cx.eval_body(body, &mut env, 0);
                let entry = cx.summaries.get_mut(name).expect("seeded");
                if entry.ret != ret {
                    entry.ret = ret;
                    entry.polymorphic = ret.deps != 0;
                    changed = true;
                }
            }
            if !changed {
                stable = true;
                break;
            }
            stable = false;
        }
        if recursive && !stable {
            // Recursion fixpoint did not close within the cutoff:
            // widen the whole component to ⊤ — sound (⊤ over-approximates
            // any concrete return taint) and mirrors the filter's
            // recursion-cutoff behavior.
            for name in &comp {
                let entry = cx.summaries.get_mut(name).expect("seeded");
                entry.ret = SumVal {
                    base: lattice.top(),
                    deps: 0,
                    sanitized: false,
                };
                entry.polymorphic = false;
                entry.widened = true;
                result.recursion_widened += 1;
            }
        }
        result.summaries_computed += comp.len() as u64;
    }

    // A final pass over the main program exercises the cloning path for
    // polymorphic callees called from top level.
    let mut env: HashMap<String, SumVal> = HashMap::new();
    let mut ret = SumVal::constant(lattice.bottom());
    let top_level: Vec<Stmt> = program
        .stmts
        .iter()
        .filter(|s| !matches!(s, Stmt::FuncDecl { .. }))
        .cloned()
        .collect();
    cx.eval_stmts(&top_level, &mut env, 1, &mut ret);

    result.summaries = cx.summaries;
    result.contexts_cloned = cx.contexts_cloned;
    result
}

#[cfg(test)]
mod tests {
    use php_front::parse_source;
    use taint_lattice::{Lattice, TwoPoint};
    use webssari_ir::Prelude;

    use super::*;

    fn summarize(src: &str) -> SummaryResult {
        let program = parse_source(src).expect("parse");
        compute_summaries(&program, &Prelude::standard(), &TwoPoint::new(), 3)
    }

    #[test]
    fn identity_function_is_taint_polymorphic() {
        let r = summarize("<?php function id($a) { return $a; }");
        let s = &r.summaries["id"];
        assert!(s.polymorphic);
        assert_eq!(s.ret.deps, 1);
        assert_eq!(s.ret.base, TwoPoint::new().bottom());
        assert_eq!(r.summaries_computed, 1);
    }

    #[test]
    fn sanitizing_function_is_monomorphic() {
        let r = summarize("<?php function clean($a) { return htmlspecialchars($a); }");
        let s = &r.summaries["clean"];
        assert!(!s.polymorphic);
        assert_eq!(s.ret.deps, 0);
        assert!(s.ret.sanitized);
    }

    #[test]
    fn source_function_returns_taint_regardless_of_args() {
        let r = summarize("<?php function src($a) { return $_GET['q']; }");
        let s = &r.summaries["src"];
        assert!(!s.polymorphic);
        assert_eq!(s.ret.base, TwoPoint::TAINTED);
    }

    #[test]
    fn summaries_compose_bottom_up() {
        // wrap() forwards through id(); its summary must inherit the
        // parameter dependency.
        let r = summarize(
            "<?php function id($a) { return $a; } \
             function wrap($b) { return id($b); }",
        );
        assert_eq!(r.summaries["wrap"].ret.deps, 1);
        assert!(r.summaries["wrap"].polymorphic);
        assert_eq!(r.summaries_computed, 2);
    }

    #[test]
    fn branch_joins_both_returns() {
        let r =
            summarize("<?php function pick($a) { if ($a) { return $_GET['x']; } return 'safe'; }");
        let s = &r.summaries["pick"];
        assert_eq!(
            s.ret.base,
            TwoPoint::TAINTED,
            "taken branch taints the join"
        );
    }

    #[test]
    fn recursion_within_cutoff_reaches_fixpoint() {
        // Self-recursive identity: f(x) = x ⊔ f(x) closes at deps={0}.
        let r = summarize("<?php function f($x) { if ($x) { return f($x); } return $x; }");
        let s = &r.summaries["f"];
        assert!(!s.widened, "fixpoint closes within the cutoff");
        assert_eq!(s.ret.deps, 1);
        assert_eq!(r.recursion_widened, 0);
    }

    #[test]
    fn mutual_identity_recursion_closes_at_bottom() {
        // f = g, g = f has least fixpoint ⊥ (neither ever produces a
        // value of its own) — the SCC fixpoint must close without
        // widening even at a tight cutoff.
        let program =
            parse_source("<?php function f($x) { return g($x); } function g($y) { return f($y); }")
                .expect("parse");
        let r = compute_summaries(&program, &Prelude::standard(), &TwoPoint::new(), 3);
        assert_eq!(r.recursion_widened, 0);
        assert_eq!(r.summaries["f"].ret.deps, 0);
    }

    #[test]
    fn cutoff_recursion_widens_to_top() {
        // f($x) = f($x) . $x needs a second iteration to stabilize at
        // deps = {0}; max_depth = 0 clamps the fixpoint to one round,
        // so the summary widens soundly to ⊤.
        let src = "<?php function f($x) { return f($x) . $x; }";
        let program = parse_source(src).expect("parse");
        let l = TwoPoint::new();
        let r0 = compute_summaries(&program, &Prelude::standard(), &l, 0);
        assert_eq!(r0.recursion_widened, 1);
        assert_eq!(r0.summaries["f"].ret.base, l.top());
        assert!(r0.summaries["f"].widened);
        // With room to iterate, the same function reaches its fixpoint.
        let r3 = compute_summaries(&program, &Prelude::standard(), &l, 3);
        assert_eq!(r3.recursion_widened, 0);
        assert_eq!(r3.summaries["f"].ret.deps, 1);
    }

    #[test]
    fn polymorphic_call_sites_are_cloned_once() {
        let r = summarize(
            "<?php function id($a) { return $a; } \
             $x = id($_GET['q']); echo $x; $y = id('safe'); echo $y;",
        );
        assert_eq!(r.contexts_cloned, 2, "both top-level call sites clone");
    }

    #[test]
    fn trusted_builtins_and_unknowns() {
        let r = summarize("<?php function f($a) { $n = strlen($a); $u = mystery($a); return $u; }");
        let s = &r.summaries["f"];
        // mystery() is unknown → joins its argument → param dep kept.
        assert_eq!(s.ret.deps, 1);
    }
}
