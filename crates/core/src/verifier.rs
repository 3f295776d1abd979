use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, OnceLock, PoisonError};

use php_front::{parse_source, resolve_includes, IncludeError, SourceSet};
use taint_lattice::{Lattice, Powerset, TwoPoint};
use webssari_ir::{
    abstract_interpret_with, filter_program, filter_program_on_demand, is_store_cell, AiCmd,
    AssertId, FilterOptions, Prelude, StoreSummary, StoreWrite,
};
use xbmc::{CheckOptions, Xbmc};

/// Which information-flow policy (lattice + prelude pairing) a
/// verifier runs.
#[derive(Debug, Clone, Default)]
enum Policy {
    /// The paper's two-point taint lattice.
    #[default]
    TwoPoint,
    /// Multi-class taint over a powerset lattice of kinds.
    MultiClass(Powerset),
}

use crate::error::VerifyError;
use crate::report::{FileOutcome, FileReport, ProjectReport, Vulnerability};

/// A per-file solve budget: bounds applied afresh to every file the
/// verifier checks (the wall-clock allowance restarts for each file,
/// unlike a raw [`sat::Budget`] whose deadline is one fixed instant).
///
/// When a file exhausts its budget, its [`FileReport::outcome`] is
/// [`FileOutcome::Timeout`] and the partial results carry no guarantee.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveBudget {
    /// Maximum solver conflicts per SAT solve within the file's check.
    pub max_conflicts: Option<u64>,
    /// Wall-clock allowance for the file's whole check.
    pub wall_time: Option<std::time::Duration>,
}

impl SolveBudget {
    /// An unlimited budget.
    pub fn unlimited() -> Self {
        SolveBudget::default()
    }

    /// Caps solver conflicts per solve.
    #[must_use]
    pub fn max_conflicts(mut self, n: u64) -> Self {
        self.max_conflicts = Some(n);
        self
    }

    /// Caps wall-clock time per file.
    #[must_use]
    pub fn wall_time(mut self, d: std::time::Duration) -> Self {
        self.wall_time = Some(d);
        self
    }

    /// Whether any bound is set.
    pub fn is_bounded(&self) -> bool {
        self.max_conflicts.is_some() || self.wall_time.is_some()
    }

    /// Materializes the budget into an absolute [`sat::Budget`] whose
    /// deadline starts counting now.
    fn start(&self) -> Option<sat::Budget> {
        if !self.is_bounded() {
            return None;
        }
        let mut b = sat::Budget::new();
        b.max_conflicts = self.max_conflicts;
        b.deadline = self.wall_time.map(|d| std::time::Instant::now() + d);
        Some(b)
    }
}

/// Configures and builds a [`Verifier`].
///
/// # Examples
///
/// ```
/// use webssari_core::VerifierBuilder;
/// use webssari_ir::Prelude;
///
/// let verifier = VerifierBuilder::new()
///     .prelude(Prelude::standard())
///     .exact_fixing_set(true)
///     .build();
/// let report = verifier.verify_source("<?php echo 'hi';", "a.php")?;
/// assert!(report.is_safe());
/// # Ok::<(), webssari_core::VerifyError>(())
/// ```
#[derive(Debug, Default)]
pub struct VerifierBuilder {
    prelude: Option<Prelude>,
    check_options: CheckOptions,
    exact_fixing_set: bool,
    minimize_guard_lines: bool,
    loop_unroll: usize,
    policy: Policy,
    solve_budget: SolveBudget,
    prefer_parameterize: bool,
}

impl VerifierBuilder {
    /// Creates a builder with default settings.
    pub fn new() -> Self {
        VerifierBuilder::default()
    }

    /// Replaces the prelude (UIC/SOC/sanitizer contracts).
    pub fn prelude(mut self, prelude: Prelude) -> Self {
        self.prelude = Some(prelude);
        self
    }

    /// Switches to the multi-class taint policy: the powerset lattice
    /// over `{xss, sqli, shell}` with kind-specific sanitizers. Unlike
    /// the two-point policy, `echo addslashes($_GET[...])` is still
    /// flagged (addslashes does not neutralize XSS) and
    /// `mysql_query(htmlspecialchars(...))` is still SQL injection.
    ///
    /// Installs the matching [`Prelude::multiclass`] contracts; a
    /// custom `prelude()` set earlier is replaced.
    pub fn multiclass(mut self) -> Self {
        let (lattice, prelude) = Prelude::multiclass();
        self.policy = Policy::MultiClass(lattice);
        self.prelude = Some(prelude);
        self
    }

    /// Uses the exact branch-and-bound minimal-fixing-set solver
    /// instead of the greedy heuristic.
    pub fn exact_fixing_set(mut self, exact: bool) -> Self {
        self.exact_fixing_set = exact;
        self
    }

    /// Minimizes the number of *inserted guard lines* instead of the
    /// number of patched variables: each candidate variable is weighted
    /// by how many tainting introduction points it has, and the
    /// weighted set-cover greedy picks the cheapest effective fix. A
    /// root cause introduced on two paths (`$sid` from `$_GET` *or*
    /// `$_POST`) then loses to a single downstream chain variable when
    /// that needs only one guard.
    pub fn minimize_guard_lines(mut self, minimize: bool) -> Self {
        self.minimize_guard_lines = minimize;
        self
    }

    /// Emits machine-checkable DRAT certificates for every assertion
    /// that holds (see [`xbmc::Certificate`]). The verified absence of
    /// taint flows then rests only on the encoder and an independent
    /// reverse-unit-propagation checker, not on the SAT solver.
    pub fn certify(mut self, certify: bool) -> Self {
        self.check_options.certify = certify;
        self
    }

    /// Loop unrolling factor for the abstract interpretation. The
    /// paper's Figure 4 rule is a single unfolding (`1`, the default);
    /// larger factors catch multi-step propagation chains through loop
    /// bodies at the cost of AI size (an extension, evaluated by the
    /// ablation tests/benches).
    ///
    /// # Panics
    ///
    /// Panics if `unroll` is zero.
    pub fn loop_unroll(mut self, unroll: usize) -> Self {
        assert!(unroll >= 1, "loop unrolling factor must be at least 1");
        self.loop_unroll = unroll;
        self
    }

    /// Prefers the "parameterize this query" patch shape in reports:
    /// when every symptom a fix variable repairs is a SQL-structured
    /// sink precondition, the vulnerability is reported as a query to
    /// parameterize (bind the value at a `?` position) instead of a
    /// variable to sanitize. The fix *plan* records the advice either
    /// way (see [`fixes::FixPlan::parameterize`]); this flag only picks
    /// which patch shape the report leads with.
    pub fn prefer_parameterize(mut self, prefer: bool) -> Self {
        self.prefer_parameterize = prefer;
        self
    }

    /// Bounds each file's check with a per-file [`SolveBudget`]. A file
    /// that exhausts it degrades to [`FileOutcome::Timeout`] instead of
    /// wedging the verifier — the batch engine's defense against
    /// pathological inputs.
    pub fn solve_budget(mut self, budget: SolveBudget) -> Self {
        self.solve_budget = budget;
        self
    }

    /// Builds the verifier.
    pub fn build(self) -> Verifier {
        Verifier {
            prelude: self.prelude.unwrap_or_default(),
            filter_options: FilterOptions::default(),
            check_options: self.check_options,
            exact_fixing_set: self.exact_fixing_set,
            minimize_guard_lines: self.minimize_guard_lines,
            loop_unroll: self.loop_unroll.max(1),
            policy: self.policy,
            solve_budget: self.solve_budget,
            prefer_parameterize: self.prefer_parameterize,
            store_cell: None,
        }
    }
}

/// One batch's cross-request store summary (pass 1 of project
/// verification), filled on demand by the first verify call that
/// consults it (see [`Verifier::with_store_cell`]).
///
/// The summary is the merge, in file-name order, of every file's store
/// part ([`Verifier::store_part`]). A cell can be seeded with parts a
/// caller kept from earlier batches. A verify call whose filter never
/// consulted the cell publishes its file's part from the program it
/// already built. Filling the cell takes the seeded and published parts
/// and builds only the missing ones from source, and
/// [`StoreCell::built_parts`] hands back every part the batch computed
/// so the caller can keep them too.
#[derive(Debug, Default)]
pub struct StoreCell {
    /// Parts supplied up front, by file name. Each must be the part of
    /// that file's *current* program in the batch's source set.
    seeded: BTreeMap<String, Arc<StoreSummary>>,
    summary: OnceLock<StoreSummary>,
    /// The parts the batch computed (published by verify calls or built
    /// by the fill), by file name; never a seeded file's.
    computed: Mutex<BTreeMap<String, Arc<StoreSummary>>>,
    /// How many of `computed` the fill built from source (a statistic,
    /// read once the batch's verify calls are done).
    built_from_source: AtomicUsize,
}

impl StoreCell {
    /// An empty cell seeded with known parts, keyed by file name.
    pub fn seeded(parts: impl IntoIterator<Item = (String, Arc<StoreSummary>)>) -> Self {
        StoreCell {
            seeded: parts.into_iter().collect(),
            ..StoreCell::default()
        }
    }

    /// The summary, once some verify call has filled the cell.
    pub fn get(&self) -> Option<&StoreSummary> {
        self.summary.get()
    }

    /// Every part the batch computed, published or built by the fill,
    /// in file-name order: once the cell is filled, the parts of every
    /// file it was not seeded with. Empty while it is unfilled, since a
    /// batch that never needed the summary has no use for its parts.
    pub fn built_parts(&self) -> Vec<(String, Arc<StoreSummary>)> {
        if self.summary.get().is_none() {
            return Vec::new();
        }
        self.computed()
            .iter()
            .map(|(name, part)| (name.clone(), Arc::clone(part)))
            .collect()
    }

    /// How many parts the fill built from source: the files that were
    /// neither seeded nor published when it reached them. Zero while
    /// the cell is unfilled.
    pub fn parts_built_from_source(&self) -> usize {
        self.built_from_source.load(Ordering::Relaxed)
    }

    /// Keeps `part` as `name`'s part, unless the cell was seeded with
    /// it or already holds one: a verify call and the fill can both
    /// compute the same file's part, and the two are equal.
    fn publish(&self, name: &str, part: Arc<StoreSummary>) {
        if self.seeded.contains_key(name) {
            return;
        }
        self.computed().entry(name.to_owned()).or_insert(part);
    }

    /// The computed parts. Every update is one map insert, so a lock a
    /// panicking thread poisoned still guards a valid map.
    fn computed(&self) -> MutexGuard<'_, BTreeMap<String, Arc<StoreSummary>>> {
        self.computed.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `name`'s part, if the cell was seeded with it or it was computed.
    fn known_part(&self, name: &str) -> Option<Arc<StoreSummary>> {
        if let Some(part) = self.seeded.get(name) {
            return Some(Arc::clone(part));
        }
        self.computed().get(name).cloned()
    }
}

/// The part of every program that writes no store: one allocation
/// shared by all of them.
static EMPTY_PART: LazyLock<Arc<StoreSummary>> = LazyLock::new(Arc::default);

/// The store part recorded by `writes`, reading each written variable's
/// level from the final TS `state`.
fn part_of(
    writes: &[StoreWrite],
    state: &[taint_lattice::Elem],
    lattice: &impl Lattice,
) -> Arc<StoreSummary> {
    if writes.is_empty() {
        return Arc::clone(&EMPTY_PART);
    }
    let mut part = StoreSummary::new();
    for w in writes {
        part.record(&w.key, state[w.var.index()], &w.site.to_string(), lattice);
    }
    Arc::new(part)
}

impl From<StoreSummary> for StoreCell {
    /// A cell filled up front: the eager summary.
    fn from(summary: StoreSummary) -> Self {
        StoreCell {
            summary: OnceLock::from(summary),
            ..StoreCell::default()
        }
    }
}

/// The WebSSARI verification pipeline (Figure 9 of the paper): filter,
/// abstract interpretation, renaming, constraint generation, SAT-based
/// counterexample enumeration, and counterexample analysis.
#[derive(Clone, Debug, Default)]
pub struct Verifier {
    prelude: Prelude,
    filter_options: FilterOptions,
    check_options: CheckOptions,
    exact_fixing_set: bool,
    minimize_guard_lines: bool,
    loop_unroll: usize,
    policy: Policy,
    solve_budget: SolveBudget,
    prefer_parameterize: bool,
    /// The installed batch cell for the cross-request store summary
    /// (pass 1 of project verification), built by the first file whose
    /// filter consults it. `None` means each verify call uses a cell of
    /// its own over whatever sources it was handed.
    store_cell: Option<Arc<StoreCell>>,
}

impl Verifier {
    /// A verifier with the standard prelude and default options.
    pub fn new() -> Self {
        VerifierBuilder::new().build()
    }

    /// The active prelude.
    pub fn prelude(&self) -> &Prelude {
        &self.prelude
    }

    /// The configured per-file solve budget.
    pub fn solve_budget(&self) -> SolveBudget {
        self.solve_budget
    }

    /// A copy of this verifier with a different per-file solve budget.
    ///
    /// The budget is excluded from [`Verifier::config_description`], so
    /// the copy shares the original's cache fingerprint — a service can
    /// map per-request deadlines onto the budget without splitting the
    /// result cache.
    #[must_use]
    pub fn with_solve_budget(&self, budget: SolveBudget) -> Verifier {
        let mut v = self.clone();
        v.solve_budget = budget;
        v
    }

    /// A copy of this verifier that shares one cross-request store
    /// summary cell across every verify call (pass 1, built on demand).
    /// The first file whose filter consults the summary — a
    /// `SELECT`+fetch, a `$_SESSION` read, a literal-path
    /// `file_get_contents` — fills the cell with the name-order merge of
    /// the store parts ([`Verifier::store_part`]) of *its* sources,
    /// taking the parts the cell was seeded with or that earlier
    /// [`Verifier::verify_file`] calls published (each call whose filter
    /// never consulted the cell publishes its file's part) and building
    /// the rest; every later call reads that value. So all calls through
    /// the copy must verify files of the same source set: a batch engine
    /// hands each batch a fresh cell. A cell filled up front is the
    /// eager summary.
    ///
    /// Like the solve budget, the summary is *data about the sources*,
    /// not a result-shaping knob, so it is excluded from
    /// [`Verifier::config_description`] — a batch engine derives it from
    /// the same sources whose fingerprints already key the cache.
    #[must_use]
    pub fn with_store_cell(&self, cell: Arc<StoreCell>) -> Verifier {
        let mut v = self.clone();
        v.store_cell = Some(cell);
        v
    }

    /// The store summary of `sources`: the installed batch cell, else
    /// `own`, filled on the first call.
    fn force_stores<'c>(&'c self, own: &'c StoreCell, sources: &SourceSet) -> &'c StoreSummary {
        self.fill(self.store_cell.as_deref().unwrap_or(own), sources)
    }

    /// Fills `cell` with the summary of `sources`, unless it is full.
    fn fill<'c>(&self, cell: &'c StoreCell, sources: &SourceSet) -> &'c StoreSummary {
        cell.summary.get_or_init(|| {
            #[cfg(test)]
            tests::STORE_BUILDS.with(|n| n.set(n.get() + 1));
            match &self.policy {
                Policy::TwoPoint => self.merge_parts(cell, sources, &TwoPoint::new()),
                Policy::MultiClass(lattice) => {
                    let lattice = lattice.clone();
                    self.merge_parts(cell, sources, &lattice)
                }
            }
        })
    }

    /// Pass 1 of second-order analysis: conservatively summarizes every
    /// cross-request store write (SQL `INSERT`/`UPDATE`, `$_SESSION`,
    /// file writes) in the source set, keyed by table/variable
    /// identity — the merge, in file-name order, of every file's
    /// [`Verifier::store_part`].
    ///
    /// Each part is computed with an *empty* summary installed, so
    /// recorded write levels never depend on read levels — the result
    /// is independent of file iteration order.
    pub fn compute_store_summary(&self, sources: &SourceSet) -> StoreSummary {
        let cell = StoreCell::default();
        self.fill(&cell, sources);
        cell.summary.into_inner().expect("fill forces the cell")
    }

    /// One file's store contribution: the writes its resolved program
    /// (includes inlined) makes to cross-request stores. Files that fail
    /// to parse contribute nothing. The part depends only on what
    /// `name`'s program reads from `sources`, so it can be reused for as
    /// long as the file and everything it includes are unchanged.
    pub fn store_part(&self, sources: &SourceSet, name: &str) -> StoreSummary {
        let Some(src) = sources.file(name) else {
            return StoreSummary::new();
        };
        let part = match &self.policy {
            Policy::TwoPoint => self.part_with(sources, name, src, &TwoPoint::new()),
            Policy::MultiClass(lattice) => {
                let lattice = lattice.clone();
                self.part_with(sources, name, src, &lattice)
            }
        };
        Arc::unwrap_or_clone(part)
    }

    /// Merges the parts of `sources` in file-name order, taking the ones
    /// `cell` was seeded with or that were published to it, and building
    /// (and recording) the rest.
    fn merge_parts(
        &self,
        cell: &StoreCell,
        sources: &SourceSet,
        lattice: &impl Lattice,
    ) -> StoreSummary {
        let mut summary = StoreSummary::new();
        for (name, src) in sources.iter() {
            let part = match cell.known_part(name) {
                Some(part) => part,
                None => {
                    let part = self.part_with(sources, name, src, lattice);
                    cell.built_from_source.fetch_add(1, Ordering::Relaxed);
                    cell.publish(name, Arc::clone(&part));
                    part
                }
            };
            summary.merge(&part, lattice);
        }
        summary
    }

    fn part_with(
        &self,
        sources: &SourceSet,
        name: &str,
        src: &str,
        lattice: &impl Lattice,
    ) -> Arc<StoreSummary> {
        let program = match resolve_includes(sources, name) {
            Ok(p) => p,
            Err(
                IncludeError::DynamicIncludePath { .. }
                | IncludeError::MissingFile { .. }
                | IncludeError::IncludeCycle(_),
            ) => match parse_source(src) {
                Ok(p) => p,
                Err(_) => return Arc::clone(&EMPTY_PART),
            },
            Err(_) => return Arc::clone(&EMPTY_PART),
        };
        let f = filter_program(&program, src, name, &self.prelude, &self.filter_options);
        let ai = abstract_interpret_with(&f, lattice, self.loop_unroll);
        let (_, state) = typestate::analyze_with_state(&ai, lattice);
        part_of(&f.store_writes, &state, lattice)
    }

    /// A deterministic, canonical text describing everything that
    /// influences this verifier's *results*: crate version, policy,
    /// loop-unroll depth, filter and check options, fix-plan settings,
    /// and the full prelude contents. Two verifiers with identical
    /// descriptions produce identical reports for identical sources.
    ///
    /// The incremental cache hashes this string into its fingerprint so
    /// results self-invalidate when any knob changes. The solve budget
    /// is deliberately excluded: it only decides whether a check
    /// *finishes*, and timed-out results are never cached.
    pub fn config_description(&self) -> String {
        use std::fmt::Write as _;

        let mut out = String::new();
        let _ = writeln!(out, "webssari-core {}", env!("CARGO_PKG_VERSION"));
        let _ = writeln!(out, "policy {:?}", self.policy);
        let _ = writeln!(out, "loop_unroll {}", self.loop_unroll);
        let _ = writeln!(out, "exact_fixing_set {}", self.exact_fixing_set);
        let _ = writeln!(out, "minimize_guard_lines {}", self.minimize_guard_lines);
        let _ = writeln!(out, "prefer_parameterize {}", self.prefer_parameterize);
        let _ = writeln!(out, "filter_options {:?}", self.filter_options);
        let _ = writeln!(
            out,
            "check_options encoder={:?} fresh={} max_cx={} certify={}",
            self.check_options.encoder,
            self.check_options.fresh_solver_per_assert,
            self.check_options.max_counterexamples_per_assert,
            self.check_options.certify,
        );
        let _ = writeln!(out, "prelude:");
        out.push_str(&self.prelude.canonical_description());
        out
    }

    /// Verifies one PHP source text.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::Parse`] when the source is outside the
    /// supported subset.
    pub fn verify_source(&self, src: &str, file: &str) -> Result<FileReport, VerifyError> {
        let program = parse_source(src)?;
        // Single-source two-pass: the file's own store writes feed its
        // own reads (an INSERT above a SELECT of the same table in one
        // script).
        let mut set = SourceSet::new();
        set.add_file(file, src);
        let own = StoreCell::default();
        let stores = || self.force_stores(&own, &set);
        Ok(self.verify_parsed(&program, src, file, &stores, None))
    }

    /// Verifies one file of a project, resolving its includes from the
    /// source set.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] on parse or include failures (dynamic
    /// include paths fall back to analyzing the file alone).
    pub fn verify_file(&self, sources: &SourceSet, entry: &str) -> Result<FileReport, VerifyError> {
        let src = sources.file(entry).ok_or_else(|| {
            VerifyError::Include(IncludeError::MissingFile {
                name: entry.to_owned(),
                included_from: None,
            })
        })?;
        let program = match resolve_includes(sources, entry) {
            Ok(p) => p,
            // Unresolvable includes (dynamic paths, files outside the
            // set, cycles) degrade gracefully: verify the file in
            // isolation instead of giving up. Parse errors in included
            // files still abort, since they hide real code.
            Err(
                IncludeError::DynamicIncludePath { .. }
                | IncludeError::MissingFile { .. }
                | IncludeError::IncludeCycle(_),
            ) => parse_source(src)?,
            Err(e) => return Err(e.into()),
        };
        let own = StoreCell::default();
        let stores = || self.force_stores(&own, sources);
        // The batch cell takes this file's store part if its filter
        // never consults the cell (see `verify_with_lattice`).
        let publish = self.store_cell.as_deref();
        Ok(self.verify_parsed(&program, src, entry, &stores, publish))
    }

    /// Verifies every file of a project as an entry point.
    ///
    /// Files that fail to parse are collected in
    /// [`ProjectReport::failed_files`] rather than aborting the project,
    /// matching how a batch corpus run must behave.
    pub fn verify_project(&self, sources: &SourceSet) -> ProjectReport {
        // Pass 1 at most once for the whole set, when the first file
        // reads a store; every file then reads stores at the
        // project-wide write levels.
        let shared = match &self.store_cell {
            Some(_) => self.clone(),
            None => self.with_store_cell(Arc::default()),
        };
        let mut report = ProjectReport::default();
        for (name, _) in sources.iter() {
            match shared.verify_file(sources, name) {
                Ok(f) => report.files.push(f),
                Err(e) => report.failed_files.push((name.to_owned(), e.to_string())),
            }
        }
        report
    }

    fn verify_parsed<'s>(
        &self,
        program: &php_front::ast::Program,
        src: &str,
        file: &str,
        stores: &dyn Fn() -> &'s StoreSummary,
        publish: Option<&StoreCell>,
    ) -> FileReport {
        match &self.policy {
            Policy::TwoPoint => {
                self.verify_with_lattice(program, src, file, stores, publish, &TwoPoint::new())
            }
            Policy::MultiClass(lattice) => {
                let lattice = lattice.clone();
                self.verify_with_lattice(program, src, file, stores, publish, &lattice)
            }
        }
    }

    fn verify_with_lattice<'s>(
        &self,
        program: &php_front::ast::Program,
        src: &str,
        file: &str,
        stores: &dyn Fn() -> &'s StoreSummary,
        publish: Option<&StoreCell>,
        lattice: &impl Lattice,
    ) -> FileReport {
        let consulted = Cell::new(false);
        let f = filter_program_on_demand(
            program,
            src,
            file,
            &self.prelude,
            &self.filter_options,
            &|| {
                consulted.set(true);
                stores()
            },
            lattice,
        );
        let ai = abstract_interpret_with(&f, lattice, self.loop_unroll);
        let (ts, state) = typestate::analyze_with_state(&ai, lattice);
        // Pass 1 from pass 2: a filter that never consulted the store
        // summary lowered exactly what `part_with`'s `filter_program`
        // lowers, so this AI yields the file's store part. A file that
        // consulted it must not publish: its write levels can depend on
        // the store levels it read, and a part is built against none.
        if let Some(cell) = publish.filter(|_| !consulted.get()) {
            cell.publish(file, part_of(&f.store_writes, &state, lattice));
        }
        let mut check_options = self.check_options.clone();
        if let Some(budget) = self.solve_budget.start() {
            // The wall-clock allowance starts now, per file.
            check_options.budget = Some(budget);
        }
        // The TS gate. Typestate over-approximates every path of the
        // loop-free AI (see `webssari_analysis::screen`): an assertion
        // it finds clean holds on every path, so a file with no TS
        // error has nothing for BMC to find and never enters the
        // solver. Any TS error sends the whole AI to BMC, which is
        // exact. Certificates need the encoding, so certifying always
        // runs BMC.
        let mut bmc = if ts.errors.is_empty() && !check_options.certify {
            xbmc::CheckResult {
                checked_assertions: ai.num_assertions(),
                ..Default::default()
            }
        } else {
            Xbmc::with_options(&ai, check_options).check_all_with(lattice)
        };
        // SQL-structure and second-order counters: how many assertions
        // carried a structural SQL precondition, and how many violated
        // assertions trace back to a store cell (stored taint).
        let sql_asserts: std::collections::BTreeSet<AssertId> = ai
            .assertions()
            .iter()
            .filter_map(|(c, _)| match c {
                AiCmd::Assert { id, kind, .. } if kind.is_sql_structure() => Some(*id),
                _ => None,
            })
            .collect();
        bmc.stats.sql_assertions_checked = sql_asserts.len() as u64;
        let second_order: std::collections::BTreeSet<AssertId> = bmc
            .counterexamples
            .iter()
            .filter(|cx| trace_reads_store(cx, &ai))
            .map(|cx| cx.assert_id)
            .collect();
        bmc.stats.second_order_flows_found = second_order.len() as u64;
        // Replacement chains stop before channel variables: the patch
        // sanitizes the program variable that read the channel, not the
        // superglobal itself. Store cells count as channels — you
        // sanitize the variable that fetched the row, not the synthetic
        // cross-request cell.
        let channels: std::collections::BTreeSet<_> = ai
            .vars
            .iter()
            .filter(|v| {
                let name = ai.vars.name(*v);
                self.prelude.is_superglobal(name) || is_store_cell(name)
            })
            .collect();
        let fix_plan = if self.minimize_guard_lines {
            // Cost of a variable = number of distinct tainting
            // introduction points (how many guard lines patching it
            // needs); channel variables cost one top-of-file guard.
            let mut intro_sites: std::collections::BTreeMap<
                webssari_ir::VarId,
                std::collections::BTreeSet<(std::sync::Arc<str>, u32)>,
            > = std::collections::BTreeMap::new();
            for cx in &bmc.counterexamples {
                for step in &cx.trace {
                    if step.deps.is_empty() && step.base.index() == 0 {
                        continue; // pure ⊥ constant: never guarded
                    }
                    intro_sites
                        .entry(step.var)
                        .or_default()
                        .insert((step.site.file.clone(), step.site.line));
                }
            }
            fixes::minimal_fixing_set_weighted(&bmc.counterexamples, &channels, |v| {
                intro_sites.get(&v).map_or(1.0, |s| s.len() as f64)
            })
        } else {
            fixes::minimal_fixing_set_with(&bmc.counterexamples, &channels, self.exact_fixing_set)
        };
        let mut fix_plan = fix_plan;
        // Patch-shape advice: when every symptom a fix variable repairs
        // is a SQL-structured sink, binding the value at a parameterized
        // position fixes the flaw structurally.
        for root in &fix_plan.fix_vars {
            let asserts = &fix_plan.groups[root];
            if !asserts.is_empty() && asserts.iter().all(|a| sql_asserts.contains(a)) {
                fix_plan.parameterize.insert(*root);
            }
        }
        // Build the grouped vulnerability report: one entry per root
        // cause, listing the symptoms (sites) it explains.
        let mut vulnerabilities = Vec::new();
        for root in &fix_plan.fix_vars {
            let asserts = &fix_plan.groups[root];
            let mut symptoms = Vec::new();
            let mut funcs = Vec::new();
            let mut class = String::from("taint");
            for cx in &bmc.counterexamples {
                if !asserts.contains(&cx.assert_id) {
                    continue;
                }
                let loc = cx.site.to_string();
                if !symptoms.contains(&loc) {
                    symptoms.push(loc);
                }
                if !funcs.contains(&cx.func) {
                    funcs.push(cx.func.clone());
                }
                if let Some(spec) = self.prelude.soc(&cx.func) {
                    class = spec.class.clone();
                }
            }
            vulnerabilities.push(Vulnerability {
                class,
                root_var: ai.vars.name(*root).to_owned(),
                symptoms,
                funcs,
                parameterize: self.prefer_parameterize && fix_plan.parameterize.contains(root),
            });
        }
        let outcome = if bmc.interrupted {
            FileOutcome::Timeout
        } else if bmc.is_safe() {
            FileOutcome::Verified
        } else {
            FileOutcome::Vulnerable
        };
        FileReport {
            file: file.to_owned(),
            num_statements: program.num_statements(),
            ai,
            ts,
            bmc,
            fix_plan,
            vulnerabilities,
            outcome,
        }
    }
}

/// Whether a counterexample's violating values flow — backwards along
/// its trace — from a store cell: the signature of a second-order
/// (stored) taint flow.
fn trace_reads_store(cx: &xbmc::Counterexample, ai: &webssari_ir::AiProgram) -> bool {
    let mut needed: std::collections::BTreeSet<webssari_ir::VarId> =
        cx.violating_vars.iter().copied().collect();
    for step in cx.trace.iter().rev() {
        if needed.remove(&step.var) {
            if is_store_cell(ai.vars.name(step.var)) {
                return true;
            }
            needed.extend(step.deps.iter().copied());
        }
    }
    // Variables never assigned in the trace keep their initial level.
    needed.iter().any(|v| is_store_cell(ai.vars.name(*v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Store summaries [`Verifier::fill`] built on this thread.
        pub(super) static STORE_BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn store_builds() -> usize {
        STORE_BUILDS.with(|n| n.get())
    }

    /// One tainted write to each kind of store, a file that reads no
    /// store, and two readers of the store kind `reader` reads.
    fn store_batch(reader: &str) -> SourceSet {
        let mut set = SourceSet::new();
        set.add_file(
            "writer.php",
            "<?php $v = $_POST['v']; mysql_query(\"INSERT INTO msgs (c) VALUES ('$v')\"); \
             $_SESSION['nick'] = $_GET['n']; file_put_contents('motd.txt', $_POST['m']);",
        );
        set.add_file(
            "plain.php",
            "<?php $x = $_GET['x']; echo htmlspecialchars($x);",
        );
        set.add_file("reader_a.php", reader);
        set.add_file("reader_b.php", reader);
        set
    }

    const STORE_READERS: [&str; 3] = [
        "<?php $h = mysql_query('SELECT c FROM msgs'); $r = mysql_fetch_array($h); echo $r;",
        "<?php $n = $_SESSION['nick']; echo $n;",
        "<?php $c = file_get_contents('motd.txt'); echo $c;",
    ];

    #[test]
    fn store_cell_stays_unforced_without_a_store_read() {
        let set = store_batch(STORE_READERS[0]);
        let cell: Arc<StoreCell> = Arc::default();
        let verifier = Verifier::new().with_store_cell(Arc::clone(&cell));
        let before = store_builds();
        for file in ["plain.php", "writer.php"] {
            verifier.verify_file(&set, file).unwrap();
        }
        assert!(cell.get().is_none());
        // Without an installed cell, a call's own cell stays unforced too.
        Verifier::new().verify_file(&set, "plain.php").unwrap();
        Verifier::new()
            .verify_source("<?php echo $_GET['x'];", "f.php")
            .unwrap();
        assert_eq!(store_builds(), before);
    }

    #[test]
    fn each_store_reader_forces_the_cell_once_per_batch() {
        for reader in STORE_READERS {
            let set = store_batch(reader);
            let eager = Verifier::new().compute_store_summary(&set);
            let cell: Arc<StoreCell> = Arc::default();
            let verifier = Verifier::new().with_store_cell(Arc::clone(&cell));
            let before = store_builds();
            let report = verifier.verify_file(&set, "reader_a.php").unwrap();
            assert_eq!(store_builds(), before + 1, "{reader}");
            assert_eq!(cell.get(), Some(&eager), "{reader}");
            // The summary carries the writer's taint into the read.
            assert_eq!(report.outcome, FileOutcome::Vulnerable, "{reader}");
            assert_eq!(report.bmc.stats.second_order_flows_found, 1, "{reader}");
            verifier.verify_file(&set, "reader_b.php").unwrap();
            assert_eq!(store_builds(), before + 1, "{reader}");

            // `verify_project` is one batch: one build for two readers.
            let before = store_builds();
            let project = Verifier::new().verify_project(&set);
            assert_eq!(store_builds(), before + 1, "{reader}");
            assert_eq!(project.files[1].render_text(), report.render_text());
        }
    }

    #[test]
    fn figure1_php_support_tickets_stored_xss() {
        // Figure 1: unsanitized $_POST values flow into an INSERT.
        let src = r#"<?php
$query = "INSERT INTO tickets_tickets VALUES('" . $_SESSION['username'] . "', '" . $_POST['ticketsubject'] . "', '" . $_POST['message'] . "')";
$result = @mysql_query($query);
"#;
        let report = Verifier::new().verify_source(src, "submit.php").unwrap();
        assert!(!report.is_safe());
        assert_eq!(report.vulnerabilities[0].class, "sqli");
    }

    #[test]
    fn figure2_display_tickets_stored_xss() {
        // Figure 2: DB data echoed without sanitization.
        let src = r#"<?php
$query = "SELECT tickets_id, tickets_username, tickets_subject FROM tickets_tickets";
$result = @mysql_query($query);
while ($row = @mysql_fetch_array($result)) {
    extract($row);
    echo "$tickets_username<BR>$tickets_subject<BR><BR>";
}
"#;
        let report = Verifier::new().verify_source(src, "view.php").unwrap();
        assert!(!report.is_safe());
        assert!(report.vulnerabilities.iter().any(|v| v.class == "xss"));
    }

    #[test]
    fn figure3_ilias_referer_sql_injection() {
        // Figure 3: $HTTP_REFERER flows into a SQL command.
        let src = r#"<?php
$sql = "INSERT INTO track_temp VALUES('$HTTP_REFERER');";
mysql_query($sql);
"#;
        let report = Verifier::new().verify_source(src, "track.php").unwrap();
        assert!(!report.is_safe());
        assert_eq!(report.vulnerabilities[0].class, "sqli");
        assert_eq!(report.ts_instrumentations(), 1);
        assert_eq!(report.bmc_instrumentations(), 1);
    }

    #[test]
    fn sanitized_code_verifies_clean() {
        let src = r#"<?php
$sid = intval($_GET['sid']);
$q = "SELECT * FROM g WHERE sid=$sid";
mysql_query($q);
echo htmlspecialchars($_GET['msg']);
"#;
        let report = Verifier::new().verify_source(src, "safe.php").unwrap();
        assert!(report.is_safe());
        // Both the SQL query and the sanitized echo are asserted (the
        // sanitizer's result is materialized as a temp), and both are
        // TS-clean, so the file never enters the solver.
        assert_eq!(report.bmc.checked_assertions, 2);
        assert!(report.ts.errors.is_empty());
        assert_eq!(report.bmc.stats.sat_calls, 0);
    }

    #[test]
    fn project_verification_aggregates_files() {
        let mut set = SourceSet::new();
        set.add_file(
            "lib.php",
            "<?php function esc($s) { return htmlspecialchars($s); }",
        );
        set.add_file("good.php", "<?php include 'lib.php'; echo esc($_GET['m']);");
        set.add_file("bad.php", "<?php echo $_GET['m'];");
        set.add_file("broken.php", "<?php if (");
        let report = Verifier::new().verify_project(&set);
        assert_eq!(report.files.len(), 3);
        assert_eq!(report.failed_files.len(), 1);
        assert_eq!(report.vulnerable_files(), 1);
        assert!(report.is_vulnerable());
        assert_eq!(report.ts_errors(), 1);
        assert_eq!(report.bmc_groups(), 1);
        assert_eq!(report.reduction(), Some(0.0));
    }

    #[test]
    fn dynamic_include_falls_back_to_isolated_analysis() {
        let mut set = SourceSet::new();
        set.add_file("page.php", "<?php include $theme; echo $_GET['x'];");
        let report = Verifier::new().verify_project(&set);
        assert_eq!(report.files.len(), 1);
        assert!(!report.files[0].is_safe());
    }

    #[test]
    fn missing_entry_file_errors() {
        let err = Verifier::new()
            .verify_file(&SourceSet::new(), "nope.php")
            .unwrap_err();
        assert!(matches!(err, VerifyError::Include(_)));
    }

    #[test]
    fn exact_fixing_set_option() {
        let src = "<?php $sid = $_GET['s']; $a = $sid; DoSQL($a); $b = $sid; DoSQL($b);";
        let exact = VerifierBuilder::new()
            .exact_fixing_set(true)
            .build()
            .verify_source(src, "f.php")
            .unwrap();
        let greedy = Verifier::new().verify_source(src, "f.php").unwrap();
        assert_eq!(exact.bmc_instrumentations(), 1);
        assert!(exact.bmc_instrumentations() <= greedy.bmc_instrumentations());
    }

    #[test]
    fn outcomes_distinguish_verified_and_vulnerable() {
        let safe = Verifier::new()
            .verify_source("<?php echo 'hi';", "s.php")
            .unwrap();
        assert_eq!(safe.outcome, FileOutcome::Verified);
        let vuln = Verifier::new()
            .verify_source("<?php echo $_GET['x'];", "v.php")
            .unwrap();
        assert_eq!(vuln.outcome, FileOutcome::Vulnerable);
        assert_eq!(vuln.summary().outcome, FileOutcome::Vulnerable);
    }

    #[test]
    fn zero_wall_budget_times_out() {
        let verifier = VerifierBuilder::new()
            .solve_budget(SolveBudget::unlimited().wall_time(std::time::Duration::ZERO))
            .build();
        let report = verifier
            .verify_source("<?php $x = $_GET['a']; echo $x;", "f.php")
            .unwrap();
        assert_eq!(report.outcome, FileOutcome::Timeout);
        // A timed-out file carries no guarantee.
        assert!(!report.is_safe());
        assert!(report.bmc.interrupted);
        assert!(report.render_text().contains("TIMEOUT"));
        // A TS-clean file makes no SAT call for the budget to interrupt.
        let clean = verifier
            .verify_source("<?php echo htmlspecialchars($_GET['m']);", "f.php")
            .unwrap();
        assert_eq!(clean.outcome, FileOutcome::Verified);
        assert!(!clean.bmc.interrupted);
    }

    #[test]
    fn generous_budget_changes_nothing() {
        let src = "<?php $x = $_GET['a']; echo $x;";
        let plain = Verifier::new().verify_source(src, "f.php").unwrap();
        let budgeted = VerifierBuilder::new()
            .solve_budget(
                SolveBudget::unlimited()
                    .max_conflicts(1_000_000)
                    .wall_time(std::time::Duration::from_secs(3600)),
            )
            .build()
            .verify_source(src, "f.php")
            .unwrap();
        assert_eq!(plain.outcome, budgeted.outcome);
        assert_eq!(plain.render_text(), budgeted.render_text());
    }

    #[test]
    fn config_description_tracks_result_knobs_only() {
        let base = Verifier::new().config_description();
        assert_eq!(base, Verifier::new().config_description());
        let unrolled = VerifierBuilder::new()
            .loop_unroll(3)
            .build()
            .config_description();
        assert_ne!(base, unrolled);
        let multi = VerifierBuilder::new()
            .multiclass()
            .build()
            .config_description();
        assert_ne!(base, multi);
        let exact = VerifierBuilder::new()
            .exact_fixing_set(true)
            .build()
            .config_description();
        assert_ne!(base, exact);
        // The budget only decides whether a check finishes, so it must
        // not perturb the fingerprint.
        let budgeted = VerifierBuilder::new()
            .solve_budget(SolveBudget::unlimited().max_conflicts(1))
            .build()
            .config_description();
        assert_eq!(base, budgeted);
    }

    #[test]
    fn with_solve_budget_rearms_without_changing_fingerprint() {
        let base = Verifier::new();
        let rearmed =
            base.with_solve_budget(SolveBudget::unlimited().wall_time(std::time::Duration::ZERO));
        assert_eq!(base.config_description(), rearmed.config_description());
        let report = rearmed
            .verify_source("<?php echo $_GET['x'];", "f.php")
            .unwrap();
        assert_eq!(report.outcome, FileOutcome::Timeout);
        // The original keeps its (unlimited) budget.
        let report = base
            .verify_source("<?php echo $_GET['x'];", "f.php")
            .unwrap();
        assert_eq!(report.outcome, FileOutcome::Vulnerable);
    }

    #[test]
    fn ts_gate_preserves_bmc_results_exactly() {
        // Skipping BMC on TS-clean files must be invisible: the gated
        // result equals a full BMC run over the same AI — same
        // counterexamples (incl. traces) and checked assertions.
        let srcs = [
            "<?php echo 'hi';",
            "<?php echo htmlspecialchars($_GET['m']);",
            "<?php $x = $_GET['a']; echo $x;",
            "<?php $x = 'ok'; if ($a) { $x = $_GET['p']; } if ($b) { $j = $_GET['z']; } \
             echo $x; $c = 'safe'; echo $c;",
            "<?php $sid = $_GET['sid']; $q = \"x=$sid\"; mysql_query($q); DoSQL($q);",
        ];
        for src in srcs {
            let gated = Verifier::new().verify_source(src, "f.php").unwrap();
            let full = Xbmc::new(&gated.ai).check_all_with(&TwoPoint::new());
            assert_eq!(gated.bmc.counterexamples, full.counterexamples, "{src}");
            assert_eq!(
                gated.bmc.checked_assertions, full.checked_assertions,
                "{src}"
            );
            assert_eq!(gated.bmc.is_safe(), full.is_safe(), "{src}");
        }
    }

    #[test]
    fn ts_error_sends_the_whole_program_to_bmc() {
        // One TS error is enough: every assertion of the file, clean or
        // not, is encoded and checked.
        let src = "<?php $x = $_GET['a']; echo $x; $y = 'ok'; mysql_query($y); \
                   if ($c) { $j = $_GET['z']; } echo 'lit';";
        let report = Verifier::new().verify_source(src, "f.php").unwrap();
        assert_eq!(report.outcome, FileOutcome::Vulnerable);
        assert_eq!(report.ts.errors.len(), 1);
        assert_eq!(report.bmc.checked_assertions, report.ai.num_assertions());
        assert!(report.bmc.checked_assertions >= 2);
        assert!(report.bmc.stats.sat_calls > 0);
        assert!(report.bmc.stats.cnf_vars > 0);
    }

    #[test]
    fn killed_taint_is_not_reported() {
        // A killed taint (`$x` reassigned before the sink) and a helper
        // call beside one live flow: BMC reports only the live one.
        let src = "<?php function wrap($v) { return $v; } \
                   if ($c) { $x = $_GET['a']; } $x = 'ok'; echo wrap($x); \
                   if ($d) { $m = 'a'; } else { $m = 'b'; } echo $m; \
                   $y = $_GET['b']; echo $y;";
        let report = Verifier::new().verify_source(src, "f.php").unwrap();
        assert_eq!(report.outcome, FileOutcome::Vulnerable);
        // One violated assertion, with a counterexample per path.
        let violated: std::collections::BTreeSet<_> = report
            .bmc
            .counterexamples
            .iter()
            .map(|cx| cx.assert_id)
            .collect();
        assert_eq!(violated.len(), 1);
        assert_eq!(report.vulnerabilities.len(), 1);
        assert_eq!(report.vulnerabilities[0].root_var, "y");
        assert_eq!(report.bmc.checked_assertions, report.ai.num_assertions());
    }

    #[test]
    fn certification_bypasses_the_ts_gate() {
        // DRAT certificates refer to the program formula, so a TS-clean
        // file still goes through BMC when certifying.
        let report = VerifierBuilder::new()
            .certify(true)
            .build()
            .verify_source("<?php echo 'safe'; $q = 'x'; mysql_query($q);", "f.php")
            .unwrap();
        assert!(report.is_safe());
        assert!(report.ts.errors.is_empty());
        assert!(report.bmc.stats.sat_calls > 0);
        assert!(!report.bmc.certificates.is_empty());
    }

    #[test]
    fn ts_clean_file_skips_sat_entirely() {
        let report = Verifier::new()
            .verify_source(
                "<?php $x = 'a'; echo $x; $y = $x; mysql_query($y);",
                "f.php",
            )
            .unwrap();
        assert_eq!(report.outcome, FileOutcome::Verified);
        assert_eq!(report.bmc.checked_assertions, 2);
        assert_eq!(report.bmc.stats.sat_calls, 0);
        assert_eq!(report.bmc.stats.cnf_vars, 0);
    }

    #[test]
    fn reduction_is_none_when_clean() {
        let mut set = SourceSet::new();
        set.add_file("a.php", "<?php echo 'hello';");
        let report = Verifier::new().verify_project(&set);
        assert_eq!(report.reduction(), None);
        assert_eq!(report.num_statements(), 1);
    }
}
