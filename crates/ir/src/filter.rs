//! The filter: PHP AST → `F(p)` (paper §3.2).
//!
//! "By preserving only assignments, function calls and conditional
//! structures, `F(p)` unfolds function calls and discards all program
//! constructs that are not associated with information flow."
//!
//! The lowering implements the paper's model plus the practical details
//! a real PHP corpus needs:
//!
//! * superglobal reads (`$_GET['x']`, `$HTTP_REFERER`) are constants at
//!   the UIC postcondition level,
//! * assignments through arrays/properties and compound assignments
//!   (`.=`) are weak updates (join with the old value),
//! * user functions are unfolded at call sites with per-call variable
//!   renaming; recursion is cut off at a configurable depth, after which
//!   calls degrade to the sound "join of arguments" approximation,
//! * `extract($row)` materializes assignments to variables that are read
//!   in the program but never assigned (the Figure 2 idiom); that set is
//!   computed when lowering reaches the first `extract` call,
//! * `die(expr)`/`exit(expr)` output their argument (an `echo`-class
//!   SOC) and then `stop`.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use php_front::ast::{AssignOp, BinOp, Expr, LValue, Param, Program, Stmt, StrPart};
use php_front::{LineIndex, Span};
use taint_lattice::{Lattice, TwoPoint};
use webssari_sinks::{
    store_cell_name, store_write_name, SqlSinkMeta, SqlStmtKind, SqlTemplate, StoreSummary,
    TplPart, WILDCARD_KEY,
};

use crate::fir::{AssertKind, FCmd, FExpr, FProgram, StoreRead, StoreWrite};
use crate::prelude::Prelude;
use crate::site::Site;
use crate::vartable::VarId;

/// Maximum depth of variable chasing when reconstructing a query
/// template from string-building expressions.
const MAX_TEMPLATE_DEPTH: usize = 8;

/// Options controlling the filter.
#[derive(Clone, Debug)]
pub struct FilterOptions {
    /// Maximum function-unfolding depth before calls degrade to the
    /// join-of-arguments approximation.
    pub max_inline_depth: usize,
}

impl Default for FilterOptions {
    fn default() -> Self {
        FilterOptions {
            max_inline_depth: 3,
        }
    }
}

/// Lowers a parsed program into the filtered command language.
///
/// `src` and `file` are used to attach [`Site`]s (line numbers and
/// snippets) to every command. Store reads are lowered against an empty
/// [`StoreSummary`]: every modeled store reads at the prelude's `⊤`,
/// reproducing the legacy treatment of database input exactly.
pub fn filter_program(
    program: &Program,
    src: &str,
    file: &str,
    prelude: &Prelude,
    options: &FilterOptions,
) -> FProgram {
    filter_program_with_stores(
        program,
        src,
        file,
        prelude,
        options,
        &StoreSummary::new(),
        &TwoPoint::new(),
    )
}

/// Lowers a parsed program with a cross-request store summary: reads of
/// modeled stores (fetches of resolved `SELECT` handles, `$_SESSION`
/// reads) observe the summary's per-store write levels instead of the
/// blanket `⊤` channel, turning a tainted write in one file into a
/// tainted read in another (second-order flows).
///
/// `lattice` is only consulted to join write levels recorded in
/// `stores`; stores the summary never saw read at the prelude's `⊤`.
pub fn filter_program_with_stores(
    program: &Program,
    src: &str,
    file: &str,
    prelude: &Prelude,
    options: &FilterOptions,
    stores: &StoreSummary,
    lattice: &impl Lattice,
) -> FProgram {
    filter_program_on_demand(program, src, file, prelude, options, &|| stores, lattice)
}

/// [`filter_program_with_stores`] with the summary behind an accessor
/// that is called only where the lowering consults it: a `$_SESSION`
/// read, a literal-path `file_get_contents`, and the initializers of
/// the store cells the program reads. Callers pass a closure that
/// forces a shared `OnceLock<StoreSummary>`, so a file that reaches
/// none of these sites never builds the summary — and its result is
/// then the same under every summary.
pub fn filter_program_on_demand<'s>(
    program: &Program,
    src: &str,
    file: &str,
    prelude: &Prelude,
    options: &FilterOptions,
    stores: &dyn Fn() -> &'s StoreSummary,
    lattice: &impl Lattice,
) -> FProgram {
    // Re-borrowed at the filter's own (shorter) lifetime.
    let stores = || -> &StoreSummary { stores() };
    let mut f = Filter {
        prelude,
        options,
        stores: &stores,
        file: file.into(),
        src,
        lines: LineIndex::new(src),
        program,
        out: FProgram::default(),
        funcs: HashMap::new(),
        unassigned_reads: None,
        used_superglobals: Vec::new(),
        call_counter: 0,
        inline_stack: Vec::new(),
        templates: HashMap::new(),
        handles: HashMap::new(),
        pending_select: None,
    };
    f.collect_functions(&program.stmts);
    let mut scope = Scope::global();
    let mut cmds = Vec::new();
    for stmt in &program.stmts {
        f.lower_stmt(stmt, &mut scope, &mut cmds);
    }
    // UIC postconditions: each read superglobal is a channel variable
    // whose type is set by fi(X) at program start (paper §3.2).
    let mut inits = Vec::with_capacity(f.used_superglobals.len());
    for (name, level) in std::mem::take(&mut f.used_superglobals) {
        let var = f.out.vars.intern(&name);
        inits.push(FCmd::Assign {
            var,
            expr: FExpr::Const(level),
            mask: None,
            site: Site::synthetic(
                Arc::clone(&f.file),
                &format!("UIC postcondition for ${name}"),
            ),
        });
    }
    // Second-order sources: each referenced store cell is initialized at
    // the level the summary says its writers reach. A store the summary
    // never saw written stays at the prelude's ⊤ (legacy database-input
    // treatment), so an empty summary changes nothing but provenance.
    let mut seen_cells = HashSet::new();
    for r in &f.out.store_reads {
        if seen_cells.insert(r.key.clone()) {
            let stores = f.stores();
            // Source-after-sink provenance: name the write sites that
            // feed this read so counterexample traces show the chain.
            let (level, detail) = match stores.entry(&r.key) {
                None => (
                    prelude.top(),
                    format!("second-order store read of {}", r.key),
                ),
                Some(_) => (
                    stores.read_level(&r.key, lattice),
                    format!(
                        "second-order store read of {} (written at {})",
                        r.key,
                        stores.provenance(&r.key).join(", "),
                    ),
                ),
            };
            inits.push(FCmd::Assign {
                var: r.var,
                expr: FExpr::Const(level),
                mask: None,
                site: Site::synthetic(Arc::clone(&f.file), &detail),
            });
        }
    }
    inits.extend(cmds);
    f.out.cmds = inits;
    f.out
}

/// A user function's declaration, borrowed from the program.
#[derive(Clone, Copy, Debug)]
struct FuncInfo<'p> {
    params: &'p [Param],
    body: &'p [Stmt],
}

#[derive(Clone, Debug)]
enum ScopeKind {
    Global,
    Function {
        prefix: String,
        globals: HashSet<String>,
        ret: VarId,
    },
}

#[derive(Clone, Debug)]
struct Scope {
    kind: ScopeKind,
}

impl Scope {
    fn global() -> Self {
        Scope {
            kind: ScopeKind::Global,
        }
    }
}

struct Filter<'a> {
    prelude: &'a Prelude,
    options: &'a FilterOptions,
    /// Forces the store summary; see [`Filter::stores`].
    stores: &'a dyn Fn() -> &'a StoreSummary,
    file: Arc<str>,
    src: &'a str,
    lines: LineIndex,
    program: &'a Program,
    out: FProgram,
    funcs: HashMap<String, FuncInfo<'a>>,
    /// Variables read somewhere but never assigned anywhere — the
    /// candidates that `extract()` may define dynamically. Computed at
    /// the first `extract` call.
    unassigned_reads: Option<Vec<String>>,
    /// Superglobals read by the program, in first-read order, with
    /// their UIC postcondition levels.
    used_superglobals: Vec<(String, taint_lattice::Elem)>,
    call_counter: usize,
    inline_stack: Vec<String>,
    /// Query templates tracked through string-building assignments:
    /// variable → literal/hole parts of the string it currently holds.
    templates: HashMap<VarId, Vec<TplPart<VarId>>>,
    /// Query-result handles: variable → store key of the `SELECT`
    /// result it holds, so the matching fetch reads the store cell.
    handles: HashMap<VarId, String>,
    /// Set when a resolved `SELECT` sink executes in the current
    /// statement; bound to a handle by the enclosing assignment or
    /// consumed directly by a nested fetch.
    pending_select: Option<String>,
}

impl<'a> Filter<'a> {
    /// The cross-request store summary. Every consult goes through
    /// here, and the first one may build it.
    fn stores(&self) -> &StoreSummary {
        (self.stores)()
    }

    fn site(&self, span: Span) -> Site {
        let line = self.lines.line(span.start);
        let snippet = if (span.end as usize) <= self.src.len() {
            span.slice(self.src)
        } else {
            ""
        };
        Site::new(Arc::clone(&self.file), line, span, snippet)
    }

    // ---- pre-passes --------------------------------------------------

    fn collect_functions(&mut self, stmts: &'a [Stmt]) {
        for s in stmts {
            match s {
                Stmt::FuncDecl {
                    name, params, body, ..
                } => {
                    self.funcs
                        .insert(name.to_ascii_lowercase(), FuncInfo { params, body });
                    self.collect_functions(body);
                }
                Stmt::If {
                    then_branch,
                    elseifs,
                    else_branch,
                    ..
                } => {
                    self.collect_functions(then_branch);
                    for (_, b) in elseifs {
                        self.collect_functions(b);
                    }
                    if let Some(b) = else_branch {
                        self.collect_functions(b);
                    }
                }
                Stmt::While { body, .. }
                | Stmt::DoWhile { body, .. }
                | Stmt::For { body, .. }
                | Stmt::Foreach { body, .. } => self.collect_functions(body),
                Stmt::Switch { cases, .. } => {
                    for (_, b) in cases {
                        self.collect_functions(b);
                    }
                }
                Stmt::Block(body) => self.collect_functions(body),
                _ => {}
            }
        }
    }

    /// The variables `extract()` may define, computed on first use.
    fn unassigned_reads(&mut self) -> &mut Vec<String> {
        let (program, prelude) = (self.program, self.prelude);
        self.unassigned_reads
            .get_or_insert_with(|| Self::collect_unassigned_reads(program, prelude))
    }

    /// Variables read somewhere in `program` but never assigned anywhere,
    /// superglobals aside, in first-read order: the candidates that
    /// `extract()` may define dynamically.
    fn collect_unassigned_reads(program: &Program, prelude: &Prelude) -> Vec<String> {
        let mut reads: Vec<String> = Vec::new();
        let mut writes: HashSet<&str> = HashSet::new();
        fn walk_stmts<'p>(
            stmts: &'p [Stmt],
            reads: &mut Vec<String>,
            writes: &mut HashSet<&'p str>,
        ) {
            for s in stmts {
                match s {
                    Stmt::Expr(e, _) => walk_expr(e, reads, writes),
                    Stmt::Echo(es, _) => {
                        for e in es {
                            walk_expr(e, reads, writes);
                        }
                    }
                    Stmt::If {
                        cond,
                        then_branch,
                        elseifs,
                        else_branch,
                        ..
                    } => {
                        walk_expr(cond, reads, writes);
                        walk_stmts(then_branch, reads, writes);
                        for (c, b) in elseifs {
                            walk_expr(c, reads, writes);
                            walk_stmts(b, reads, writes);
                        }
                        if let Some(b) = else_branch {
                            walk_stmts(b, reads, writes);
                        }
                    }
                    Stmt::While { cond, body, .. } | Stmt::DoWhile { cond, body, .. } => {
                        walk_expr(cond, reads, writes);
                        walk_stmts(body, reads, writes);
                    }
                    Stmt::For {
                        init,
                        cond,
                        step,
                        body,
                        ..
                    } => {
                        for e in init.iter().chain(step) {
                            walk_expr(e, reads, writes);
                        }
                        if let Some(c) = cond {
                            walk_expr(c, reads, writes);
                        }
                        walk_stmts(body, reads, writes);
                    }
                    Stmt::Foreach {
                        array,
                        key,
                        value,
                        body,
                        ..
                    } => {
                        walk_expr(array, reads, writes);
                        if let Some(k) = key {
                            writes.insert(k);
                        }
                        writes.insert(value);
                        walk_stmts(body, reads, writes);
                    }
                    Stmt::Switch { subject, cases, .. } => {
                        walk_expr(subject, reads, writes);
                        for (l, b) in cases {
                            if let Some(l) = l {
                                walk_expr(l, reads, writes);
                            }
                            walk_stmts(b, reads, writes);
                        }
                    }
                    Stmt::FuncDecl { params, body, .. } => {
                        for p in params {
                            writes.insert(&p.name);
                        }
                        walk_stmts(body, reads, writes);
                    }
                    Stmt::Return(Some(e), _) | Stmt::Exit(Some(e), _) => {
                        walk_expr(e, reads, writes)
                    }
                    Stmt::Block(b) => walk_stmts(b, reads, writes),
                    _ => {}
                }
            }
        }
        fn walk_expr<'p>(e: &'p Expr, reads: &mut Vec<String>, writes: &mut HashSet<&'p str>) {
            if let Expr::Assign { target, value, .. } = e {
                writes.extend(target.root_vars());
                walk_expr(value, reads, writes);
                if let LValue::ArrayElem { index: Some(i), .. } = target {
                    walk_expr(i, reads, writes);
                }
                return;
            }
            reads.extend(e.read_vars());
            // Recurse into subexpressions for nested assignments.
            match e {
                Expr::Binary { left, right, .. } => {
                    walk_expr(left, reads, writes);
                    walk_expr(right, reads, writes);
                }
                Expr::Unary { expr, .. } => walk_expr(expr, reads, writes),
                Expr::Ternary {
                    cond,
                    then,
                    otherwise,
                } => {
                    walk_expr(cond, reads, writes);
                    if let Some(t) = then {
                        walk_expr(t, reads, writes);
                    }
                    walk_expr(otherwise, reads, writes);
                }
                Expr::Call { args, .. } => {
                    for a in args {
                        walk_expr(a, reads, writes);
                    }
                }
                Expr::MethodCall { base, args, .. } => {
                    walk_expr(base, reads, writes);
                    for a in args {
                        walk_expr(a, reads, writes);
                    }
                }
                _ => {}
            }
        }
        walk_stmts(&program.stmts, &mut reads, &mut writes);
        let mut seen = HashSet::new();
        reads.retain(|r| {
            !writes.contains(r.as_str()) && !prelude.is_superglobal(r) && seen.insert(r.clone())
        });
        reads
    }

    // ---- variable resolution ------------------------------------------

    fn resolve(&mut self, scope: &Scope, name: &str) -> VarId {
        match &scope.kind {
            ScopeKind::Global => self.out.vars.intern(name),
            ScopeKind::Function {
                prefix, globals, ..
            } => {
                if globals.contains(name) {
                    self.out.vars.intern(name)
                } else {
                    self.out.vars.intern(&format!("{prefix}::{name}"))
                }
            }
        }
    }

    /// The keyed channel name (`_GET[sid]`) of a literal-indexed
    /// superglobal access, if the expression is one. Computed indexes
    /// fall back to the whole-channel read.
    fn keyed_superglobal(&self, base: &Expr, index: Option<&Expr>) -> Option<String> {
        let Expr::Var(name) = base else { return None };
        if !self.prelude.is_superglobal(name) {
            return None;
        }
        let key = index?.literal_key()?;
        Some(format!("{name}[{key}]"))
    }

    /// The channel name an interpolated array read (`"$_GET[sid]"`)
    /// resolves to: superglobal bases become keyed channels, everything
    /// else stays attributed to the base variable.
    fn interp_array_name(&self, var: &str, index: &str) -> String {
        if self.prelude.is_superglobal(var) {
            format!("{var}[{index}]")
        } else {
            var.to_owned()
        }
    }

    fn var_read(&mut self, scope: &Scope, name: &str) -> FExpr {
        if let Some(level) = self.prelude.superglobal_level(name) {
            // Superglobals are global in every scope and carry the UIC
            // postcondition level from an init emitted at program start.
            if !self.used_superglobals.iter().any(|(n, _)| n == name) {
                self.used_superglobals.push((name.to_owned(), level));
            }
            return FExpr::Var(self.out.vars.intern(name));
        }
        if name == "_SESSION" && self.stores().entry("_SESSION").is_some() {
            // A session read is a store read once the summary models any
            // session write; otherwise it stays a plain variable (legacy).
            let site = Site::synthetic(Arc::clone(&self.file), "read of $_SESSION");
            return self.store_read_expr("_SESSION", site);
        }
        FExpr::Var(self.resolve(scope, name))
    }

    // ---- query templates and store modeling -----------------------------

    /// The variable a template hole resolves to (no read side effects:
    /// the hole's expression is lowered separately by the normal path).
    fn template_var(&mut self, scope: &Scope, name: &str) -> VarId {
        if self.prelude.is_superglobal(name) {
            self.out.vars.intern(name)
        } else if name == "_SESSION" && self.stores().entry("_SESSION").is_some() {
            // Matches `var_read`: session reads resolve to the store
            // cell once the summary models any session write.
            self.out.vars.intern(&store_cell_name("_SESSION"))
        } else {
            self.resolve(scope, name)
        }
    }

    /// Reconstructs the literal/hole parts of a string-building
    /// expression, chasing variables through tracked templates. `None`
    /// means the expression's string structure is opaque.
    fn template_of_expr(
        &mut self,
        e: &Expr,
        scope: &Scope,
        depth: usize,
    ) -> Option<Vec<TplPart<VarId>>> {
        if depth > MAX_TEMPLATE_DEPTH {
            return None;
        }
        match e {
            Expr::StringLit(parts) => {
                let mut out = Vec::new();
                for p in parts {
                    match p {
                        StrPart::Lit(s) => out.push(TplPart::Lit(s.clone())),
                        StrPart::Var(v) => {
                            out.push(TplPart::Hole(self.template_var(scope, v)));
                        }
                        StrPart::ArrayVar { var, index } => {
                            let name = self.interp_array_name(var, index);
                            out.push(TplPart::Hole(self.template_var(scope, &name)));
                        }
                    }
                }
                Some(out)
            }
            Expr::Binary {
                op: BinOp::Concat,
                left,
                right,
            } => {
                let mut l = self.template_of_expr(left, scope, depth + 1)?;
                let r = self.template_of_expr(right, scope, depth + 1)?;
                l.extend(r);
                Some(l)
            }
            Expr::Var(name) => {
                let id = self.template_var(scope, name);
                match self.templates.get(&id) {
                    Some(t) => Some(t.clone()),
                    // An untracked variable is one opaque hole: inside a
                    // concatenation it is a concatenated-in value; as the
                    // whole argument it leaves the template unresolved.
                    None => Some(vec![TplPart::Hole(id)]),
                }
            }
            // An indexed read (`$_POST['msg']`) is one concatenated-in
            // value — attributed to the keyed channel when the index is
            // literal and the base is a superglobal, else to the base.
            Expr::ArrayAccess { base, index } => {
                if let Some(keyed) = self.keyed_superglobal(base, index.as_deref()) {
                    return Some(vec![TplPart::Hole(self.template_var(scope, &keyed))]);
                }
                match base.as_ref() {
                    Expr::Var(name) => Some(vec![TplPart::Hole(self.template_var(scope, name))]),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Drops tracked templates and handles for every variable assigned
    /// in `cmds` — used after conditional/loop bodies, where the
    /// assignment may or may not have executed.
    fn invalidate_tracked(&mut self, cmds: &[FCmd]) {
        fn collect(cmds: &[FCmd], out: &mut Vec<VarId>) {
            for c in cmds {
                match c {
                    FCmd::Assign { var, .. } => out.push(*var),
                    FCmd::If {
                        then_cmds,
                        else_cmds,
                        ..
                    } => {
                        collect(then_cmds, out);
                        collect(else_cmds, out);
                    }
                    FCmd::While { body, .. } => collect(body, out),
                    _ => {}
                }
            }
        }
        let mut assigned = Vec::new();
        collect(cmds, &mut assigned);
        for v in assigned {
            self.templates.remove(&v);
            self.handles.remove(&v);
        }
    }

    /// Lowers a read of store `key` to the synthetic cell variable
    /// (initialized at the summary's read level at program start).
    fn store_read_expr(&mut self, key: &str, site: Site) -> FExpr {
        let var = self.out.vars.intern(&store_cell_name(key));
        self.out.store_reads.push(StoreRead {
            var,
            key: key.to_owned(),
            site,
        });
        FExpr::Var(var)
    }

    /// Emits a fresh write variable capturing the level of one store
    /// write, so the first verification pass can read it off the final
    /// typestate.
    fn emit_store_write(&mut self, key: &str, expr: FExpr, site: Site, out: &mut Vec<FCmd>) {
        let k = self.out.store_writes.len();
        let var = self.out.vars.intern(&store_write_name(key, k));
        out.push(FCmd::Assign {
            var,
            expr,
            mask: None,
            site: site.clone(),
        });
        self.out.store_writes.push(StoreWrite {
            var,
            key: key.to_owned(),
            site,
        });
    }

    /// The constant text of a template with no holes (e.g. a literal
    /// file path), if it is fully literal.
    fn literal_text(parts: &[TplPart<VarId>]) -> Option<String> {
        let mut text = String::new();
        for p in parts {
            match p {
                TplPart::Lit(s) => text.push_str(s),
                TplPart::Hole(_) => return None,
            }
        }
        Some(text)
    }

    // ---- expressions ---------------------------------------------------

    fn lower_expr(&mut self, e: &Expr, scope: &mut Scope, out: &mut Vec<FCmd>) -> FExpr {
        match e {
            Expr::Var(name) => self.var_read(scope, name),
            Expr::ArrayAccess { base, index } => {
                // A literal-keyed superglobal read (`$_GET['sid']`) is a
                // first-class channel: each key gets its own variable
                // (`_GET[sid]`) initialized at the channel's level, so
                // fix plans and witnesses name the exact parameter.
                if let Some(keyed) = self.keyed_superglobal(base, index.as_deref()) {
                    return self.var_read(scope, &keyed);
                }
                if let Some(i) = index {
                    // Evaluate the index for side effects only; index
                    // taint does not flow into the retrieved value.
                    let _ = self.lower_expr(i, scope, out);
                }
                self.lower_expr(base, scope, out)
            }
            Expr::PropFetch { base, .. } => self.lower_expr(base, scope, out),
            Expr::StringLit(parts) => {
                let mut joined = vec![FExpr::Const(self.prelude.bottom())];
                for p in parts {
                    match p {
                        StrPart::Lit(_) => {}
                        StrPart::Var(v) => joined.push(self.var_read(scope, v)),
                        StrPart::ArrayVar { var, index } => {
                            let name = self.interp_array_name(var, index);
                            joined.push(self.var_read(scope, &name));
                        }
                    }
                }
                if joined.len() == 1 {
                    joined.pop().expect("nonempty")
                } else {
                    FExpr::Join(joined)
                }
            }
            Expr::IntLit(_) | Expr::FloatLit(_) | Expr::BoolLit(_) | Expr::NullLit => {
                FExpr::Const(self.prelude.bottom())
            }
            Expr::ArrayLit(entries) => {
                let mut joined = vec![FExpr::Const(self.prelude.bottom())];
                for (k, v) in entries {
                    if let Some(k) = k {
                        joined.push(self.lower_expr(k, scope, out));
                    }
                    joined.push(self.lower_expr(v, scope, out));
                }
                FExpr::Join(joined)
            }
            Expr::Binary { left, right, .. } => {
                let l = self.lower_expr(left, scope, out);
                let r = self.lower_expr(right, scope, out);
                FExpr::Join(vec![l, r])
            }
            Expr::Unary { expr, .. } => self.lower_expr(expr, scope, out),
            Expr::Ternary {
                cond,
                then,
                otherwise,
            } => {
                let c = self.lower_expr(cond, scope, out);
                let t = match then {
                    Some(t) => self.lower_expr(t, scope, out),
                    None => c, // `?:` yields the condition when truthy
                };
                let o = self.lower_expr(otherwise, scope, out);
                FExpr::Join(vec![t, o])
            }
            Expr::Call {
                name, args, span, ..
            } => self.lower_call(name, args, *span, scope, out),
            Expr::MethodCall {
                base,
                name,
                args,
                span,
            } => {
                let base_f = self.lower_expr(base, scope, out);
                let arg_fs: Vec<FExpr> = args
                    .iter()
                    .map(|a| self.lower_expr(a, scope, out))
                    .collect();
                if self.prelude.soc(name).is_some() {
                    // Method-call sinks ($db->query(...)) go through the
                    // same classifier as plain calls, so structured SQL
                    // and store modeling see both call shapes.
                    self.lower_soc_call(
                        &name.to_ascii_lowercase(),
                        args,
                        &arg_fs,
                        *span,
                        scope,
                        out,
                    );
                    return FExpr::Const(self.prelude.bottom());
                }
                if self.prelude.uic_level(name).is_some() {
                    // A fetch method on a resolved SELECT handle
                    // ($r->fetch_assoc()) reads the store cell; other
                    // method UICs keep the legacy join-of-receiver.
                    if let Expr::Var(n) = &**base {
                        let id = self.template_var(scope, n);
                        if let Some(key) = self.handles.get(&id).cloned() {
                            return self.store_read_expr(&key, self.site(*span));
                        }
                    }
                }
                let mut joined = vec![base_f];
                joined.extend(arg_fs);
                FExpr::Join(joined)
            }
            Expr::Assign {
                target,
                op,
                value,
                span,
            } => {
                let v = self.lower_expr(value, scope, out);
                // Evaluate array-index side effects.
                if let LValue::ArrayElem { index: Some(i), .. } = target {
                    let _ = self.lower_expr(i, scope, out);
                }
                if let LValue::List(items) = target {
                    // list($a, $b) = e: every element receives e's type.
                    for item in items {
                        let Some(root) = item.root_var() else {
                            continue;
                        };
                        let var = self.resolve(scope, root);
                        let weak = !matches!(item, LValue::Var(_));
                        let expr = if weak {
                            FExpr::Join(vec![FExpr::Var(var), v.clone()])
                        } else {
                            v.clone()
                        };
                        out.push(FCmd::Assign {
                            var,
                            expr,
                            mask: None,
                            site: self.site(*span),
                        });
                    }
                    return v;
                }
                let Some(root) = target.root_var() else {
                    return v; // unresolvable target: value still flows
                };
                let mut var = self.resolve(scope, root);
                let mut weak = !matches!(op, AssignOp::Assign) || !matches!(target, LValue::Var(_));
                if let LValue::ArrayElem {
                    var: base,
                    index: Some(i),
                } = target
                {
                    if self.prelude.is_superglobal(base) {
                        if let Some(key) = i.literal_key() {
                            // `$_GET['a'] = e` overwrites exactly the
                            // keyed channel — a strong update of the
                            // channel variable (the instrumentor's
                            // channel guards rely on this).
                            var = self.out.vars.intern(&format!("{base}[{key}]"));
                            weak = !matches!(op, AssignOp::Assign);
                        }
                    }
                }
                // Track query templates through string-building
                // assignments, and bind a SELECT handle produced while
                // lowering the value to the assigned variable.
                if matches!(target, LValue::Var(_)) {
                    match op {
                        AssignOp::Assign => {
                            match self.template_of_expr(value, scope, 0) {
                                Some(t) => {
                                    self.templates.insert(var, t);
                                }
                                None => {
                                    self.templates.remove(&var);
                                }
                            }
                            self.handles.remove(&var);
                            if let Some(key) = self.pending_select.take() {
                                self.handles.insert(var, key);
                            }
                        }
                        AssignOp::Concat => {
                            let appended = self.template_of_expr(value, scope, 0);
                            if let (Some(mut t), Some(more)) =
                                (self.templates.remove(&var), appended)
                            {
                                t.extend(more);
                                self.templates.insert(var, t);
                            }
                            self.handles.remove(&var);
                        }
                        _ => {
                            self.templates.remove(&var);
                            self.handles.remove(&var);
                        }
                    }
                } else {
                    self.templates.remove(&var);
                    self.handles.remove(&var);
                }
                let expr = if weak {
                    FExpr::Join(vec![FExpr::Var(var), v.clone()])
                } else {
                    v.clone()
                };
                out.push(FCmd::Assign {
                    var,
                    expr,
                    mask: None,
                    site: self.site(*span),
                });
                // `$_SESSION[...] = e` is a cross-request store write.
                if root == "_SESSION" {
                    self.emit_store_write("_SESSION", v, self.site(*span), out);
                }
                FExpr::Var(var)
            }
            Expr::IncDec { target } => match target.root_var() {
                Some(root) if !root.is_empty() => self.var_read(scope, root),
                _ => FExpr::Const(self.prelude.bottom()),
            },
        }
    }

    fn lower_call(
        &mut self,
        name: &str,
        args: &[Expr],
        span: Span,
        scope: &mut Scope,
        out: &mut Vec<FCmd>,
    ) -> FExpr {
        let arg_fs: Vec<FExpr> = args
            .iter()
            .map(|a| self.lower_expr(a, scope, out))
            .collect();
        // Prelude and function names are keyed in lowercase; most calls
        // already are.
        let lower = if name.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(name.to_ascii_lowercase())
        } else {
            Cow::Borrowed(name)
        };
        let lower = lower.as_ref();

        if let Some(keep) = self.prelude.sanitizer_mask(lower) {
            // Kind-removing sanitizer: materialize a temp assignment
            // `tmp := join(args) ⊓ keep` so the mask survives nesting.
            let k = self.call_counter;
            self.call_counter += 1;
            let tmp = self.out.vars.intern(&format!("{lower}#san{k}"));
            out.push(FCmd::Assign {
                var: tmp,
                expr: FExpr::Join(arg_fs),
                mask: Some(keep),
                site: self.site(span),
            });
            return FExpr::Var(tmp);
        }
        if let Some(level) = self.prelude.sanitizer_level(lower) {
            // Materialize the sanitizer's result as a temp so downstream
            // diagnostics can tell whether it ever reaches a sink.
            let k = self.call_counter;
            self.call_counter += 1;
            let tmp = self.out.vars.intern(&format!("{lower}#san{k}"));
            out.push(FCmd::Assign {
                var: tmp,
                expr: FExpr::Const(level),
                mask: None,
                site: self.site(span),
            });
            return FExpr::Var(tmp);
        }
        if let Some(level) = self.prelude.uic_level(lower) {
            // Second-order store reads: a fetch through a resolved
            // SELECT handle (or nested directly in the query call)
            // observes the store cell instead of the blanket ⊤ channel.
            let key = args
                .iter()
                .find_map(|a| match a {
                    Expr::Var(n) => {
                        let id = self.template_var(scope, n);
                        self.handles.get(&id).cloned()
                    }
                    _ => None,
                })
                .or_else(|| self.pending_select.take())
                .or_else(|| {
                    // file_get_contents of a literal path reads the file
                    // store — only when the summary models that file.
                    if lower != "file_get_contents" {
                        return None;
                    }
                    let parts = self.template_of_expr(args.first()?, scope, 0)?;
                    let key = format!("file:{}", Self::literal_text(&parts)?);
                    self.stores().entry(&key).map(|_| key)
                });
            if let Some(key) = key {
                return self.store_read_expr(&key, self.site(span));
            }
            return FExpr::Const(level);
        }
        if self.prelude.soc(lower).is_some() {
            self.lower_soc_call(lower, args, &arg_fs, span, scope, out);
            return FExpr::Const(self.prelude.bottom());
        }
        if lower == "extract" {
            // `extract($row)` defines variables dynamically; materialize
            // assignments to every read-but-never-assigned variable.
            let source = FExpr::Join(arg_fs);
            let names = std::mem::take(self.unassigned_reads());
            for name in &names {
                let var = self.resolve(scope, name);
                out.push(FCmd::Assign {
                    var,
                    expr: source.clone(),
                    mask: None,
                    site: self.site(span),
                });
            }
            self.unassigned_reads = Some(names);
            return FExpr::Const(self.prelude.bottom());
        }
        if self.prelude.returns_trusted(lower) {
            return FExpr::Const(self.prelude.bottom());
        }
        if let Some(&info) = self.funcs.get(lower) {
            let depth = self
                .inline_stack
                .iter()
                .filter(|f| f.as_str() == lower)
                .count();
            if depth < self.options.max_inline_depth {
                return self.inline_function(lower, info, args, arg_fs, span, scope, out);
            }
            // Depth cutoff: the call degrades to join-of-arguments; record
            // the exact call site so diagnostics can point at it.
            let site = self.site(span);
            self.out.recursion_cutoffs.push(site);
        }
        // Unknown function: taint propagates from arguments to result.
        FExpr::Join(arg_fs)
    }

    /// Emits the SOC precondition for a sink call, shared by plain
    /// calls and method-call receivers (`$db->query(...)`).
    ///
    /// Query-shaped (sqli-class) sinks are classified structurally: when
    /// the query argument's template resolves to a known statement kind,
    /// the assertion carries [`AssertKind::SqlStructure`], parameterized
    /// calls (`?` placeholders with bound data arguments) check only the
    /// query text, resolved writes record a store write at the join of
    /// the concatenated-in values, and resolved `SELECT`s arm the
    /// pending handle so the matching fetch reads the store cell.
    fn lower_soc_call(
        &mut self,
        lower: &str,
        args: &[Expr],
        arg_fs: &[FExpr],
        span: Span,
        scope: &mut Scope,
        out: &mut Vec<FCmd>,
    ) {
        let Some(spec) = self.prelude.soc(lower) else {
            return;
        };
        let mut vars = soc_arg_vars(arg_fs, spec.arg_positions.as_deref());
        let mut kind = AssertKind::Soc;
        // (key, written expression) of a store write to emit after the
        // precondition, so the trace shows sink-then-source order.
        let mut store_write: Option<(String, FExpr)> = None;
        if spec.class == "sqli" {
            let qi = if lower == "mysql_db_query" { 1 } else { 0 };
            let template = args
                .get(qi)
                .and_then(|a| self.template_of_expr(a, scope, 0))
                .map(SqlTemplate::parse);
            match template {
                Some(t) if t.is_resolved() => {
                    if t.placeholders >= 1 && args.len() > 1 {
                        // Parameterized call: data arguments are bound,
                        // not concatenated — only the query text is a
                        // SQLI precondition.
                        vars = arg_fs
                            .get(qi)
                            .map(|a| soc_arg_vars(std::slice::from_ref(a), None))
                            .unwrap_or_default();
                    }
                    let holes = t.holes();
                    if t.stmt.is_write() {
                        let key = t.store_write_key().unwrap_or(WILDCARD_KEY).to_owned();
                        let expr = if holes.is_empty() {
                            FExpr::Const(self.prelude.bottom())
                        } else {
                            FExpr::Join(holes.iter().map(|v| FExpr::Var(*v)).collect())
                        };
                        store_write = Some((key, expr));
                    } else if t.stmt == SqlStmtKind::Select {
                        self.pending_select = t.table.clone();
                    }
                    kind = AssertKind::SqlStructure(SqlSinkMeta {
                        stmt: t.stmt,
                        table: t.table,
                        placeholders: t.placeholders,
                    });
                }
                _ => {
                    // Opaque query text on a write-capable sink: the
                    // write may have hit any store. Record it under the
                    // wildcard key at the join of the checked values.
                    if !vars.is_empty() {
                        let expr = FExpr::Join(vars.iter().map(|v| FExpr::Var(*v)).collect());
                        store_write = Some((WILDCARD_KEY.to_owned(), expr));
                    }
                }
            }
        }
        if !vars.is_empty() {
            out.push(FCmd::Soc {
                func: lower.to_owned(),
                args: vars,
                bound: spec.bound,
                strict: spec.strict,
                kind,
                site: self.site(span),
            });
        }
        if lower == "file_put_contents" {
            // A file write is a store write keyed by the literal path
            // (wildcard when the path is dynamic).
            let key = args
                .first()
                .and_then(|a| self.template_of_expr(a, scope, 0))
                .and_then(|parts| Self::literal_text(&parts))
                .map(|path| format!("file:{path}"))
                .unwrap_or_else(|| WILDCARD_KEY.to_owned());
            let data: Vec<VarId> = arg_fs.iter().skip(1).flat_map(|a| a.vars()).collect();
            if !data.is_empty() {
                let expr = FExpr::Join(data.into_iter().map(FExpr::Var).collect());
                store_write = Some((key, expr));
            }
        }
        if let Some((key, expr)) = store_write {
            self.emit_store_write(&key, expr, self.site(span), out);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn inline_function(
        &mut self,
        name: &str,
        info: FuncInfo<'a>,
        args: &[Expr],
        arg_fs: Vec<FExpr>,
        call_span: Span,
        caller_scope: &mut Scope,
        out: &mut Vec<FCmd>,
    ) -> FExpr {
        let k = self.call_counter;
        self.call_counter += 1;
        let prefix = format!("{name}#{k}");
        let ret = self.out.vars.intern(&format!("{prefix}::return"));
        let mut callee_scope = Scope {
            kind: ScopeKind::Function {
                prefix: prefix.clone(),
                globals: HashSet::new(),
                ret,
            },
        };
        // Bind parameters: actual argument, or the default, or ⊥.
        for (i, p) in info.params.iter().enumerate() {
            let pvar = self.resolve(&callee_scope, &p.name);
            let expr = match arg_fs.get(i) {
                Some(a) => a.clone(),
                None => match &p.default {
                    Some(d) => self.lower_expr(d, &mut callee_scope, out),
                    None => FExpr::Const(self.prelude.bottom()),
                },
            };
            out.push(FCmd::Assign {
                var: pvar,
                expr,
                mask: None,
                site: self.site(call_span),
            });
        }
        // The return variable starts trusted.
        out.push(FCmd::Assign {
            var: ret,
            expr: FExpr::Const(self.prelude.bottom()),
            mask: None,
            site: self.site(call_span),
        });
        self.inline_stack.push(name.to_owned());
        for s in info.body {
            self.lower_stmt(s, &mut callee_scope, out);
        }
        self.inline_stack.pop();
        // Copy back by-reference parameters.
        for (i, p) in info.params.iter().enumerate() {
            if !p.by_ref {
                continue;
            }
            let Some(Expr::Var(arg_name)) = args.get(i) else {
                continue;
            };
            if self.prelude.is_superglobal(arg_name) {
                continue;
            }
            let pvar = self.resolve(&callee_scope, &p.name);
            let cvar = self.resolve(caller_scope, arg_name);
            out.push(FCmd::Assign {
                var: cvar,
                expr: FExpr::Var(pvar),
                mask: None,
                site: self.site(call_span),
            });
        }
        FExpr::Var(ret)
    }

    // ---- statements ----------------------------------------------------

    fn lower_stmt(&mut self, s: &Stmt, scope: &mut Scope, out: &mut Vec<FCmd>) {
        // A pending SELECT never survives its own statement.
        self.pending_select = None;
        match s {
            Stmt::Expr(e, _) => {
                let _ = self.lower_expr(e, scope, out);
            }
            Stmt::Echo(args, span) => {
                let mut vars = Vec::new();
                for a in args {
                    let f = self.lower_expr(a, scope, out);
                    vars.extend(f.vars());
                }
                if !vars.is_empty() {
                    let spec = self.prelude.soc("echo").expect("echo is in the prelude");
                    out.push(FCmd::Soc {
                        func: "echo".to_owned(),
                        args: vars,
                        bound: spec.bound,
                        strict: spec.strict,
                        kind: AssertKind::Soc,
                        site: self.site(*span),
                    });
                }
            }
            Stmt::If {
                cond,
                then_branch,
                elseifs,
                else_branch,
                span,
            } => {
                let _ = self.lower_expr(cond, scope, out);
                let mut then_cmds = Vec::new();
                for st in then_branch {
                    self.lower_stmt(st, scope, &mut then_cmds);
                }
                // Build the else side from elseif arms, right to left.
                let mut else_cmds = Vec::new();
                if let Some(b) = else_branch {
                    for st in b {
                        self.lower_stmt(st, scope, &mut else_cmds);
                    }
                }
                for (c, b) in elseifs.iter().rev() {
                    let mut arm_pre = Vec::new();
                    let _ = self.lower_expr(c, scope, &mut arm_pre);
                    let mut arm_cmds = Vec::new();
                    for st in b {
                        self.lower_stmt(st, scope, &mut arm_cmds);
                    }
                    let inner_else = std::mem::take(&mut else_cmds);
                    else_cmds = arm_pre;
                    else_cmds.push(FCmd::If {
                        then_cmds: arm_cmds,
                        else_cmds: inner_else,
                        site: self.site(*span),
                    });
                }
                self.invalidate_tracked(&then_cmds);
                self.invalidate_tracked(&else_cmds);
                out.push(FCmd::If {
                    then_cmds,
                    else_cmds,
                    site: self.site(*span),
                });
            }
            Stmt::While { cond, body, span } => {
                let mut cond_pre = Vec::new();
                let _ = self.lower_expr(cond, scope, &mut cond_pre);
                out.extend(cond_pre.iter().cloned());
                let mut body_cmds = Vec::new();
                for st in body {
                    self.lower_stmt(st, scope, &mut body_cmds);
                }
                body_cmds.extend(cond_pre);
                self.invalidate_tracked(&body_cmds);
                out.push(FCmd::While {
                    body: body_cmds,
                    site: self.site(*span),
                });
            }
            Stmt::DoWhile { body, cond, span } => {
                // The body runs at least once, then as a selection.
                let mut body_cmds = Vec::new();
                for st in body {
                    self.lower_stmt(st, scope, &mut body_cmds);
                }
                let _ = self.lower_expr(cond, scope, &mut body_cmds);
                out.extend(body_cmds.iter().cloned());
                self.invalidate_tracked(&body_cmds);
                out.push(FCmd::While {
                    body: body_cmds,
                    site: self.site(*span),
                });
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                span,
            } => {
                for e in init {
                    let _ = self.lower_expr(e, scope, out);
                }
                let mut cond_pre = Vec::new();
                if let Some(c) = cond {
                    let _ = self.lower_expr(c, scope, &mut cond_pre);
                }
                out.extend(cond_pre.iter().cloned());
                let mut body_cmds = Vec::new();
                for st in body {
                    self.lower_stmt(st, scope, &mut body_cmds);
                }
                for e in step {
                    let _ = self.lower_expr(e, scope, &mut body_cmds);
                }
                body_cmds.extend(cond_pre);
                self.invalidate_tracked(&body_cmds);
                out.push(FCmd::While {
                    body: body_cmds,
                    site: self.site(*span),
                });
            }
            Stmt::Foreach {
                array,
                key,
                value,
                body,
                span,
            } => {
                let arr = self.lower_expr(array, scope, out);
                let mut body_cmds = Vec::new();
                let vvar = self.resolve(scope, value);
                body_cmds.push(FCmd::Assign {
                    var: vvar,
                    expr: arr.clone(),
                    mask: None,
                    site: self.site(*span),
                });
                if let Some(k) = key {
                    let kvar = self.resolve(scope, k);
                    body_cmds.push(FCmd::Assign {
                        var: kvar,
                        expr: arr,
                        mask: None,
                        site: self.site(*span),
                    });
                }
                for st in body {
                    self.lower_stmt(st, scope, &mut body_cmds);
                }
                self.invalidate_tracked(&body_cmds);
                out.push(FCmd::While {
                    body: body_cmds,
                    site: self.site(*span),
                });
            }
            Stmt::Switch {
                subject,
                cases,
                span,
            } => {
                let _ = self.lower_expr(subject, scope, out);
                // Each case body may or may not run: a sequence of
                // independent nondeterministic selections soundly
                // over-approximates fallthrough.
                for (label, body) in cases {
                    if let Some(l) = label {
                        let _ = self.lower_expr(l, scope, out);
                    }
                    let mut case_cmds = Vec::new();
                    for st in body {
                        self.lower_stmt(st, scope, &mut case_cmds);
                    }
                    if !case_cmds.is_empty() {
                        self.invalidate_tracked(&case_cmds);
                        out.push(FCmd::If {
                            then_cmds: case_cmds,
                            else_cmds: Vec::new(),
                            site: self.site(*span),
                        });
                    }
                }
            }
            Stmt::FuncDecl { .. } => {} // unfolded at call sites
            Stmt::Return(value, span) => {
                if let Some(v) = value {
                    let f = self.lower_expr(v, scope, out);
                    if let ScopeKind::Function { ret, .. } = scope.kind {
                        // A function may return on several paths; join.
                        out.push(FCmd::Assign {
                            var: ret,
                            expr: FExpr::Join(vec![FExpr::Var(ret), f]),
                            mask: None,
                            site: self.site(*span),
                        });
                    }
                }
                if matches!(scope.kind, ScopeKind::Global) {
                    out.push(FCmd::Stop {
                        site: self.site(*span),
                    });
                }
            }
            Stmt::Include { path, span, .. } => {
                // Constant-path includes are spliced before filtering; a
                // leftover one has a dynamic path. Its content is unknown,
                // but the path itself flows to a sensitive channel: a
                // tainted path is a file-inclusion vulnerability.
                let f = self.lower_expr(path, scope, out);
                let vars = f.vars();
                if !vars.is_empty() {
                    if let Some(spec) = self.prelude.soc("include") {
                        out.push(FCmd::Soc {
                            func: "include".to_owned(),
                            args: vars,
                            bound: spec.bound,
                            strict: spec.strict,
                            kind: AssertKind::Soc,
                            site: self.site(*span),
                        });
                    }
                }
            }
            Stmt::Global(names, _) => {
                if let ScopeKind::Function { globals, .. } = &mut scope.kind {
                    for n in names {
                        globals.insert(n.clone());
                    }
                }
            }
            Stmt::Break(_) | Stmt::Continue(_) => {}
            Stmt::Exit(value, span) => {
                if let Some(v) = value {
                    let f = self.lower_expr(v, scope, out);
                    let vars = f.vars();
                    if !vars.is_empty() {
                        let spec = self.prelude.soc("echo").expect("echo is in the prelude");
                        out.push(FCmd::Soc {
                            func: "echo".to_owned(),
                            args: vars,
                            bound: spec.bound,
                            strict: spec.strict,
                            kind: AssertKind::Soc,
                            site: self.site(*span),
                        });
                    }
                }
                out.push(FCmd::Stop {
                    site: self.site(*span),
                });
            }
            Stmt::Block(body) => {
                for st in body {
                    self.lower_stmt(st, scope, out);
                }
            }
            Stmt::InlineHtml(..) | Stmt::Nop(_) => {}
        }
    }
}

/// Collects the variables a SOC precondition covers, honoring
/// `arg_positions` when present.
fn soc_arg_vars(arg_fs: &[FExpr], positions: Option<&[usize]>) -> Vec<VarId> {
    let mut vars = Vec::new();
    match positions {
        None => {
            for a in arg_fs {
                vars.extend(a.vars());
            }
        }
        Some(ps) => {
            for &p in ps {
                if let Some(a) = arg_fs.get(p) {
                    vars.extend(a.vars());
                }
            }
        }
    }
    let mut seen = HashSet::new();
    vars.retain(|v| seen.insert(*v));
    vars
}

#[cfg(test)]
mod tests {
    use super::*;
    use php_front::parse_source;

    fn filter(src: &str) -> FProgram {
        let program = parse_source(src).expect("parse");
        filter_program(
            &program,
            src,
            "test.php",
            &Prelude::standard(),
            &FilterOptions::default(),
        )
    }

    fn assigns_to<'p>(p: &'p FProgram, name: &str) -> Vec<&'p FCmd> {
        fn walk<'p>(cmds: &'p [FCmd], id: VarId, out: &mut Vec<&'p FCmd>) {
            for c in cmds {
                match c {
                    FCmd::Assign { var, .. } if *var == id => out.push(c),
                    FCmd::If {
                        then_cmds,
                        else_cmds,
                        ..
                    } => {
                        walk(then_cmds, id, out);
                        walk(else_cmds, id, out);
                    }
                    FCmd::While { body, .. } => walk(body, id, out),
                    _ => {}
                }
            }
        }
        let id = p
            .vars
            .lookup(name)
            .unwrap_or_else(|| panic!("no var {name}"));
        let mut out = Vec::new();
        walk(&p.cmds, id, &mut out);
        out
    }

    #[test]
    fn superglobal_read_flows_through_channel_variable() {
        let p = filter("<?php $sid = $_GET['sid'];");
        // The channel variable is initialized by a synthetic UIC
        // postcondition at program start…
        let inits = assigns_to(&p, "_GET[sid]");
        assert_eq!(inits.len(), 1);
        match inits[0] {
            FCmd::Assign { expr, site, .. } => {
                assert_eq!(expr, &FExpr::Const(taint_lattice::TwoPoint::TAINTED));
                assert!(site.is_synthetic());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(&p.cmds[0], FCmd::Assign { .. }));
        // …and the program variable copies from it. The bare `_GET`
        // channel is never materialized: only the key that was read.
        match assigns_to(&p, "sid")[0] {
            FCmd::Assign { expr, .. } => {
                let get = p.vars.lookup("_GET[sid]").unwrap();
                assert_eq!(expr, &FExpr::Var(get));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(p.vars.lookup("_GET").is_none());
    }

    #[test]
    fn distinct_keys_are_distinct_channels() {
        let p = filter(
            "<?php $a = $_GET['a']; $b = $_GET['b']; $c = $_POST['a']; \
             $d = $_GET[$k]; $q = \"x=$_COOKIE[tok]\"; echo $q;",
        );
        // One channel per (superglobal, literal key)…
        for name in ["_GET[a]", "_GET[b]", "_POST[a]", "_COOKIE[tok]"] {
            assert_eq!(assigns_to(&p, name).len(), 1, "{name}");
        }
        // …while a computed index degrades to the whole-channel read.
        assert_eq!(assigns_to(&p, "_GET").len(), 1);
    }

    #[test]
    fn echo_of_variable_is_a_soc() {
        let p = filter("<?php echo $x;");
        assert_eq!(p.num_socs(), 1);
    }

    #[test]
    fn echo_of_constant_is_not_a_soc() {
        let p = filter("<?php echo 'hello', 42;");
        assert_eq!(p.num_socs(), 0);
    }

    #[test]
    fn sanitizer_resets_taint() {
        let p = filter("<?php $x = htmlspecialchars($_GET['q']);");
        // The sanitizer materializes an untainted temp…
        match assigns_to(&p, "htmlspecialchars#san0")[0] {
            FCmd::Assign { expr, .. } => {
                assert_eq!(expr, &FExpr::Const(taint_lattice::TwoPoint::UNTAINTED));
            }
            other => panic!("unexpected {other:?}"),
        }
        // …and the program variable copies from it.
        match assigns_to(&p, "x")[0] {
            FCmd::Assign { expr, .. } => {
                let tmp = p.vars.lookup("htmlspecialchars#san0").unwrap();
                assert_eq!(expr, &FExpr::Var(tmp));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn string_interpolation_reads_vars() {
        let p = filter("<?php $q = \"WHERE sid=$sid\"; mysql_query($q);");
        match assigns_to(&p, "q")[0] {
            FCmd::Assign { expr, .. } => {
                let sid = p.vars.lookup("sid").unwrap();
                assert_eq!(expr.vars(), vec![sid]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(p.num_socs(), 1);
    }

    #[test]
    fn unknown_function_propagates_taint() {
        let p = filter("<?php $y = mystery($x, $z);");
        match assigns_to(&p, "y")[0] {
            FCmd::Assign { expr, .. } => {
                assert_eq!(expr.vars().len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn compound_concat_is_weak_update() {
        let p = filter("<?php $q .= $part;");
        match assigns_to(&p, "q")[0] {
            FCmd::Assign { expr, .. } => {
                let vars = expr.vars();
                let q = p.vars.lookup("q").unwrap();
                assert!(vars.contains(&q), "old value must be joined in");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn array_element_assignment_is_weak_update() {
        let p = filter("<?php $a['k'] = $v;");
        match assigns_to(&p, "a")[0] {
            FCmd::Assign { expr, .. } => {
                let a = p.vars.lookup("a").unwrap();
                assert!(expr.vars().contains(&a));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn if_branches_lower_to_nested_ifs() {
        let p = filter("<?php if ($c) { $x = 1; } elseif ($d) { $x = 2; } else { $x = 3; }");
        match &p.cmds[0] {
            FCmd::If { else_cmds, .. } => match &else_cmds[0] {
                FCmd::If { else_cmds, .. } => assert_eq!(else_cmds.len(), 1),
                other => panic!("expected nested if, got {other:?}"),
            },
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn while_condition_assignment_runs_in_loop() {
        // Figure 2 idiom: while ($row = @mysql_fetch_array($r)) …
        let p = filter("<?php while ($row = @mysql_fetch_array($r)) { echo $row; }");
        // The condition's assignment happens once before and once in the
        // loop body.
        assert_eq!(assigns_to(&p, "row").len(), 2);
        assert_eq!(p.num_socs(), 1);
    }

    #[test]
    fn db_fetch_is_untrusted_input() {
        let p = filter("<?php $row = mysql_fetch_array($r);");
        match assigns_to(&p, "row")[0] {
            FCmd::Assign { expr, .. } => {
                assert_eq!(expr, &FExpr::Const(taint_lattice::TwoPoint::TAINTED));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn function_unfolding_binds_params_and_return() {
        let p = filter(
            "<?php function wrap($s) { return $s . '!'; } $out = wrap($_GET['x']); echo $out;",
        );
        // A parameter binding for wrap#0::s must exist and carry taint.
        let binds = assigns_to(&p, "wrap#0::s");
        assert_eq!(binds.len(), 1);
        match binds[0] {
            FCmd::Assign { expr, site, .. } => {
                let get = p.vars.lookup("_GET[x]").unwrap();
                assert_eq!(expr, &FExpr::Var(get));
                // Parameter bindings carry the call site, not a
                // synthetic location.
                assert!(!site.is_synthetic());
            }
            other => panic!("unexpected {other:?}"),
        }
        // The return variable feeds $out.
        match assigns_to(&p, "out")[0] {
            FCmd::Assign { expr, .. } => {
                let ret = p.vars.lookup("wrap#0::return").unwrap();
                assert_eq!(expr, &FExpr::Var(ret));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn recursive_functions_are_cut_off() {
        let p = filter("<?php function r($x) { return r($x); } $y = r($_GET['q']); echo $y;");
        // Must terminate; inner recursive calls degrade to join-of-args.
        assert!(p.num_commands() > 0);
        // The degraded call records its exact call site.
        assert_eq!(p.recursion_cutoffs.len(), 1);
        let site = &p.recursion_cutoffs[0];
        assert!(!site.is_synthetic());
        assert!(site.snippet.contains("r($x)"), "{:?}", site.snippet);
    }

    #[test]
    fn non_recursive_programs_record_no_cutoffs() {
        let p = filter("<?php function w($s) { return $s; } echo w($_GET['x']);");
        assert!(p.recursion_cutoffs.is_empty());
    }

    #[test]
    fn dynamic_include_path_is_a_file_inclusion_soc() {
        let p = filter("<?php include $_GET['page'];");
        assert_eq!(p.num_socs(), 1);
        fn find_soc(cmds: &[FCmd]) -> Option<&FCmd> {
            cmds.iter().find(|c| matches!(c, FCmd::Soc { .. }))
        }
        match find_soc(&p.cmds).expect("one soc") {
            FCmd::Soc { func, args, .. } => {
                assert_eq!(func, "include");
                assert_eq!(args, &vec![p.vars.lookup("_GET[page]").unwrap()]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn constant_include_path_is_not_a_soc() {
        let p = filter("<?php include 'header.php';");
        assert_eq!(p.num_socs(), 0);
    }

    #[test]
    fn globals_link_function_locals_to_toplevel() {
        let p = filter("<?php $g = $_GET['x']; function f() { global $g; echo $g; } f();");
        assert_eq!(p.num_socs(), 1);
        // The echo inside f() must reference the top-level $g.
        fn find_soc(cmds: &[FCmd]) -> Option<&FCmd> {
            for c in cmds {
                match c {
                    FCmd::Soc { .. } => return Some(c),
                    FCmd::If {
                        then_cmds,
                        else_cmds,
                        ..
                    } => {
                        if let Some(s) = find_soc(then_cmds).or_else(|| find_soc(else_cmds)) {
                            return Some(s);
                        }
                    }
                    FCmd::While { body, .. } => {
                        if let Some(s) = find_soc(body) {
                            return Some(s);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        match find_soc(&p.cmds).expect("one soc") {
            FCmd::Soc { args, .. } => {
                assert_eq!(args, &vec![p.vars.lookup("g").unwrap()]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn by_ref_params_copy_back() {
        let p = filter("<?php function taintit(&$o) { $o = $_GET['x']; } taintit($v); echo $v;");
        let assigns = assigns_to(&p, "v");
        assert_eq!(
            assigns.len(),
            1,
            "by-ref copy-back must assign the caller var"
        );
    }

    #[test]
    fn extract_materializes_unassigned_reads() {
        // Figure 2: extract($row); echo "$tickets_username…";
        let p =
            filter("<?php $row = mysql_fetch_array($r); extract($row); echo \"$tickets_subject\";");
        let assigns = assigns_to(&p, "tickets_subject");
        assert_eq!(assigns.len(), 1);
        match assigns[0] {
            FCmd::Assign { expr, .. } => {
                let row = p.vars.lookup("row").unwrap();
                assert!(expr.vars().contains(&row));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn exit_emits_stop_and_die_message_is_checked() {
        let p = filter("<?php die($msg);");
        assert_eq!(p.num_socs(), 1);
        assert!(matches!(p.cmds.last(), Some(FCmd::Stop { .. })));
    }

    #[test]
    fn top_level_return_stops() {
        let p = filter("<?php return; echo $x;");
        assert!(matches!(p.cmds[0], FCmd::Stop { .. }));
    }

    #[test]
    fn foreach_assigns_value_and_key_in_loop() {
        let p = filter("<?php foreach ($rows as $k => $v) { echo $v; }");
        match &p.cmds[0] {
            FCmd::While { body, .. } => {
                assert!(matches!(body[0], FCmd::Assign { .. }));
                assert!(matches!(body[1], FCmd::Assign { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn switch_cases_become_selections() {
        let p = filter("<?php switch ($x) { case 1: $a = $_GET['p']; break; default: echo $a; }");
        let ifs = p
            .cmds
            .iter()
            .filter(|c| matches!(c, FCmd::If { .. }))
            .count();
        assert_eq!(ifs, 2);
    }

    #[test]
    fn exec_checks_first_argument_only() {
        let p = filter("<?php exec($cmd, $output_lines);");
        fn soc_args(cmds: &[FCmd]) -> Vec<VarId> {
            for c in cmds {
                if let FCmd::Soc { args, .. } = c {
                    return args.clone();
                }
            }
            Vec::new()
        }
        let args = soc_args(&p.cmds);
        assert_eq!(args.len(), 1);
        assert_eq!(args[0], p.vars.lookup("cmd").unwrap());
    }

    #[test]
    fn method_query_is_a_soc() {
        let p = filter("<?php $db->query($q);");
        assert_eq!(p.num_socs(), 1);
    }

    #[test]
    fn sites_carry_lines() {
        let src = "<?php\n$x = $_GET['a'];\necho $x;\n";
        let p = filter(src);
        // cmds[0] is the synthetic _GET init; the real statements follow.
        assert!(p.cmds[0].site().is_synthetic());
        assert_eq!(p.cmds[1].site().line, 2);
        assert_eq!(p.cmds[2].site().line, 3);
        assert_eq!(&*p.cmds[2].site().file, "test.php");
    }
}
