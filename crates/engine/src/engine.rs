//! The batch verification engine: a fixed worker pool over per-file
//! jobs, an incremental cache, per-job solve budgets, and metrics.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use php_front::SourceSet;
use webssari_core::{
    FileOutcome, FileReport, FileSummary, SolveBudget, StoreCell, Verifier, VerifyError,
};

use crate::cache::{CacheCaps, CacheShards};
use crate::handle::EngineHandle;
use crate::hash;
use crate::metrics::{EngineMetrics, FileMetrics};
use crate::stats::EngineStats;

/// Configures an [`Engine`].
///
/// ```
/// use webssari_core::{SolveBudget, VerifierBuilder};
/// use webssari_engine::EngineBuilder;
///
/// let engine = EngineBuilder::new()
///     .verifier(
///         VerifierBuilder::new()
///             .solve_budget(SolveBudget::unlimited().max_conflicts(100_000))
///             .build(),
///     )
///     .workers(4)
///     .build();
/// let mut set = php_front::SourceSet::new();
/// set.add_file("a.php", "<?php echo $_GET['x'];");
/// let report = engine.run(&set);
/// assert_eq!(report.vulnerable_files(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct EngineBuilder {
    verifier: Verifier,
    workers: usize,
    cache_dir: Option<PathBuf>,
    cache_caps: CacheCaps,
    cache_shards: Option<usize>,
}

impl EngineBuilder {
    /// Starts from a default [`Verifier`] and a single worker.
    pub fn new() -> Self {
        EngineBuilder {
            verifier: Verifier::new(),
            workers: 1,
            cache_dir: None,
            cache_caps: CacheCaps::unlimited(),
            cache_shards: None,
        }
    }

    /// The verifier configuration each job runs under — including its
    /// [`webssari_core::SolveBudget`], which every job re-arms
    /// independently (a stuck file exhausts *its* budget, not the
    /// batch's).
    #[must_use]
    pub fn verifier(mut self, verifier: Verifier) -> Self {
        self.verifier = verifier;
        self
    }

    /// Size of the worker pool (clamped to at least 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Enables the persistent incremental cache in this directory.
    #[must_use]
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Caps the warm cache at `n` entries; least-recently-used entries
    /// are evicted past the cap (unlimited by default).
    #[must_use]
    pub fn cache_max_entries(mut self, n: usize) -> Self {
        self.cache_caps.max_entries = Some(n);
        self
    }

    /// Caps the warm cache's approximate byte footprint (serialized
    /// entry bytes); LRU eviction past the cap (unlimited by default).
    #[must_use]
    pub fn cache_max_bytes(mut self, bytes: usize) -> Self {
        self.cache_caps.max_bytes = Some(bytes);
        self
    }

    /// Number of independent cache shards (default: the worker count).
    /// Shard choice only decides lock placement — reports are
    /// identical for any shard count.
    #[must_use]
    pub fn cache_shards(mut self, n: usize) -> Self {
        self.cache_shards = Some(n.max(1));
        self
    }

    /// Builds the engine.
    pub fn build(self) -> Engine {
        let workers = self.workers.max(1);
        Engine {
            verifier: self.verifier,
            workers,
            cache_dir: self.cache_dir,
            cache_caps: self.cache_caps,
            cache_shards: self.cache_shards.unwrap_or(workers),
        }
    }
}

/// The batch verification engine. See [`EngineBuilder`].
#[derive(Clone, Debug)]
pub struct Engine {
    pub(crate) verifier: Verifier,
    pub(crate) workers: usize,
    pub(crate) cache_dir: Option<PathBuf>,
    pub(crate) cache_caps: CacheCaps,
    pub(crate) cache_shards: usize,
}

/// One file's result in an [`EngineReport`].
#[derive(Clone, Debug)]
pub struct EngineFileResult {
    /// The per-file summary (always present).
    pub summary: FileSummary,
    /// The full report with counterexample traces — `None` when the
    /// result was served from the cache, which stores summaries only.
    pub report: Option<FileReport>,
    /// Whether the cache served this result.
    pub from_cache: bool,
}

impl EngineFileResult {
    /// Renders this file's report. Fresh results render the full
    /// counterexample traces (byte-identical to the sequential
    /// pipeline); cached results render from the stored summary.
    pub fn render_text(&self) -> String {
        if let Some(report) = &self.report {
            return report.render_text();
        }
        let s = &self.summary;
        let mut out = format!(
            "== {} == (cached)\nstatements: {}, TS errors: {}, BMC groups: {}, \
             counterexamples: {}, outcome: {}\n",
            s.file, s.num_statements, s.ts_errors, s.bmc_groups, s.counterexamples, s.outcome,
        );
        for v in &s.vulnerabilities {
            out.push_str(&format!(
                "[{}] sanitize ${} — fixes {} symptom(s): {}\n",
                v.class,
                v.root_var,
                v.symptoms.len(),
                v.symptoms.join(", "),
            ));
        }
        out
    }
}

/// The outcome of one [`Engine::run`] over a source set.
#[derive(Clone, Debug, Default)]
pub struct EngineReport {
    /// Per-file results in file-name order (deterministic regardless of
    /// worker count or scheduling).
    pub files: Vec<EngineFileResult>,
    /// Files that failed to parse or resolve, with the error text, in
    /// file-name order.
    pub failed_files: Vec<(String, String)>,
    /// Where the run spent its time.
    pub metrics: EngineMetrics,
    /// A cache persistence failure, if one occurred (the verification
    /// results themselves are unaffected).
    pub cache_error: Option<String>,
}

impl EngineReport {
    /// Total TS-reported errors across files.
    pub fn ts_errors(&self) -> usize {
        self.files.iter().map(|f| f.summary.ts_errors).sum()
    }

    /// Total BMC-reported error groups across files.
    pub fn bmc_groups(&self) -> usize {
        self.files.iter().map(|f| f.summary.bmc_groups).sum()
    }

    /// Total statements analyzed.
    pub fn num_statements(&self) -> usize {
        self.files.iter().map(|f| f.summary.num_statements).sum()
    }

    /// Files with at least one violation.
    pub fn vulnerable_files(&self) -> usize {
        self.count(FileOutcome::Vulnerable)
    }

    /// Files whose check was cut off by the solve budget.
    pub fn timeout_files(&self) -> usize {
        self.count(FileOutcome::Timeout)
    }

    /// Whether any file is vulnerable.
    pub fn is_vulnerable(&self) -> bool {
        self.vulnerable_files() > 0
    }

    /// The instrumentation reduction BMC achieves over TS (`1 − BMC/TS`),
    /// `None` when TS reports no errors.
    pub fn reduction(&self) -> Option<f64> {
        let ts = self.ts_errors();
        if ts == 0 {
            return None;
        }
        Some(1.0 - self.bmc_groups() as f64 / ts as f64)
    }

    /// Renders every file's report, one blank line between files —
    /// the same text the sequential CLI path prints.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.files {
            out.push_str(&f.render_text());
            out.push('\n');
        }
        out
    }

    fn count(&self, outcome: FileOutcome) -> usize {
        self.files
            .iter()
            .filter(|f| f.summary.outcome == outcome)
            .count()
    }
}

/// A unit of work: `(slot index, file name, content key)`.
type Job = (usize, String, u64);

struct JobDone {
    index: usize,
    file: String,
    content_key: u64,
    worker: usize,
    queue_wait: Duration,
    duration: Duration,
    result: Result<FileReport, VerifyError>,
}

enum Slot {
    Hit(FileSummary),
    Fresh(Box<JobDone>),
}

impl Engine {
    /// Starts configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The configuration fingerprint the cache is keyed by.
    pub fn fingerprint(&self) -> String {
        self.verifier.config_description()
    }

    /// The cache directory, when persistence is enabled.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache_dir.as_deref()
    }

    /// Converts this engine into a long-lived [`EngineHandle`] whose
    /// in-memory cache stays warm across runs (loaded once here,
    /// persisted by [`EngineHandle::flush_cache`]).
    pub fn into_handle(self) -> EngineHandle {
        EngineHandle::new(self)
    }

    /// Verifies every file of the set as an entry point, scheduling
    /// jobs across the worker pool. Results are ordered by file name —
    /// identical to the sequential [`Verifier::verify_project`] path
    /// for any worker count.
    ///
    /// Each call loads and persists the cache; a service that handles
    /// many batches should hold an [`EngineHandle`] instead, which
    /// keeps the cache in memory between runs.
    pub fn run(&self, sources: &SourceSet) -> EngineReport {
        let handle = EngineHandle::new(self.clone());
        let mut report = handle.run(sources);
        if let Err(e) = handle.flush_cache() {
            let dir = self.cache_dir.as_deref().unwrap_or(Path::new("?"));
            report.cache_error = Some(format!("cannot write cache in {}: {e}", dir.display()));
        }
        report
    }

    /// The shared run pipeline: serves hits from the sharded `cache`,
    /// verifies the rest on the worker pool, folds fresh results back
    /// into `cache`, and bumps `stats` live as each job completes. Does
    /// *not* persist the cache — that is the caller's (handle's)
    /// decision.
    ///
    /// Workers take jobs in file-name order from one shared cursor, so
    /// none idles while work is left. Scheduling never shows in the
    /// report: slots are assembled in file-name order, so reports stay
    /// byte-identical to the sequential path.
    pub(crate) fn run_shared(
        &self,
        sources: &SourceSet,
        budget: Option<SolveBudget>,
        cache: &CacheShards,
        stats: &EngineStats,
    ) -> EngineReport {
        let started = Instant::now();
        stats.batch_started();
        let names = content_keys(sources);

        // Serve cache hits on this thread; queue the rest. Each lookup
        // takes only its own shard's lock, so concurrent batches (and
        // the single-file `/verify` fast path) overlap freely.
        let mut slots: Vec<Option<Slot>> = Vec::with_capacity(names.len());
        slots.resize_with(names.len(), || None);
        let mut jobs: Vec<Job> = Vec::new();
        let mut parts = Vec::new();
        for (index, (name, key)) in names.iter().enumerate() {
            if let Some((summary, part)) = cache.lookup(name, *key) {
                stats.record_cache_hit(&summary);
                slots[index] = Some(Slot::Hit(summary));
                if let Some(part) = part {
                    parts.push((name.clone(), part));
                }
            } else {
                jobs.push((index, name.clone(), *key));
            }
        }

        // Pass 1 of second-order analysis is built at most once per
        // batch, and only if a job needs it: every job shares one cell,
        // and the first file whose filter consults the store summary
        // fills it. The summary is a pure function of the source set,
        // so whichever worker builds it, every report is the same; a
        // batch with no store-reading miss never builds it. The cell is
        // seeded with the store parts the hit entries hold (a part is
        // a function of the file's content key), and every miss whose
        // filter does not read a store publishes its part as it
        // finishes, so filling it builds from source only the parts of
        // the store readers, of misses not yet verified, and of hits
        // that hold none.
        let cell = Arc::new(StoreCell::seeded(parts));
        let verifier = match budget {
            Some(b) => self.verifier.with_solve_budget(b),
            None => self.verifier.clone(),
        }
        .with_store_cell(Arc::clone(&cell));

        let run_job = |worker: usize, (index, file, content_key): &Job| {
            let picked = Instant::now();
            stats.job_started();
            let result = verifier.verify_file(sources, file);
            let duration = picked.elapsed();
            // Live counters move the moment the job is done, not when
            // the batch is assembled — a snapshot mid-batch sees them.
            match &result {
                Ok(report) => stats.record_fresh(report.outcome, duration, Some(&report.bmc.stats)),
                Err(_) => stats.record_fresh(FileOutcome::ParseError, duration, None),
            }
            stats.job_finished();
            JobDone {
                index: *index,
                file: file.clone(),
                content_key: *content_key,
                worker,
                queue_wait: picked.duration_since(started),
                duration,
                result,
            }
        };

        if jobs.len() == 1 {
            // Single-job fast path — the common `/verify` shape. Run
            // inline: no scoped threads, no channels, no scheduler.
            let done = run_job(0, &jobs[0]);
            let index = done.index;
            slots[index] = Some(Slot::Fresh(Box::new(done)));
        } else if !jobs.is_empty() {
            let workers = self.workers.min(jobs.len());
            // The cursor only hands out indices into `jobs`, which every
            // worker borrows unchanged, so it publishes no data.
            let cursor = AtomicUsize::new(0);
            let (done_tx, done_rx) = mpsc::channel::<JobDone>();
            let (run_job, jobs, cursor) = (&run_job, &jobs, &cursor);
            std::thread::scope(|s| {
                for worker in 0..workers {
                    let done_tx = done_tx.clone();
                    s.spawn(move || {
                        while let Some(job) = jobs.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                            if done_tx.send(run_job(worker, job)).is_err() {
                                break;
                            }
                        }
                    });
                }
                drop(done_tx);
                for done in done_rx {
                    let index = done.index;
                    slots[index] = Some(Slot::Fresh(Box::new(done)));
                }
            });
        }

        let report = self.assemble(started, names, slots, &cell, cache, stats);
        stats.batch_completed();
        report
    }

    /// Serves a single-file set entirely from the warm cache, or
    /// returns `None` — with no counters touched — when the file is
    /// not cached (the caller then goes through [`Engine::run_shared`]
    /// as usual). The lookup is atomic, so there is no
    /// check-then-verify race: either the entry exists and the report
    /// is assembled from it, or the full pipeline runs.
    ///
    /// The report is bit-identical to what `run_shared` produces for
    /// the same all-hit run; the only difference is that the batch
    /// verifier setup (budget re-arm, store-summary cell) is skipped,
    /// since an all-hit batch never invokes the verifier. This is the
    /// serving tier's warm `/verify` path: a bounded cache lookup that
    /// is cheap enough to answer inline, without a worker dispatch.
    pub(crate) fn run_cached_shared(
        &self,
        sources: &SourceSet,
        cache: &CacheShards,
        stats: &EngineStats,
    ) -> Option<EngineReport> {
        if sources.len() != 1 {
            return None;
        }
        let started = Instant::now();
        let names = content_keys(sources);
        let (name, key) = (&names[0].0, names[0].1);
        let (summary, _) = cache.lookup(name, key)?;
        stats.batch_started();
        stats.record_cache_hit(&summary);
        let slots = vec![Some(Slot::Hit(summary))];
        let report = self.assemble(started, names, slots, &StoreCell::default(), cache, stats);
        stats.batch_completed();
        Some(report)
    }

    /// Folds filled slots into the final report and updates the
    /// in-memory cache (persistence is the caller's decision): misses
    /// are inserted, and the store parts the batch's `cell` computed are
    /// kept beside their files' entries.
    fn assemble(
        &self,
        started: Instant,
        names: Vec<(String, u64)>,
        slots: Vec<Option<Slot>>,
        cell: &StoreCell,
        cache: &CacheShards,
        stats: &EngineStats,
    ) -> EngineReport {
        let built = cell.built_parts();
        let mut report = EngineReport::default();
        let mut file_metrics = Vec::with_capacity(names.len());
        let mut hits = 0usize;
        let mut misses = 0usize;
        let mut built_parts = built.iter().peekable();
        for ((name, key), slot) in names.into_iter().zip(slots) {
            let part = built_parts.next_if(|(file, _)| *file == name);
            match slot.expect("every slot is either a hit or a finished job") {
                Slot::Hit(summary) => {
                    hits += 1;
                    file_metrics.push(FileMetrics {
                        file: name,
                        outcome: summary.outcome,
                        from_cache: true,
                        worker: None,
                        queue_wait: Duration::ZERO,
                        duration: Duration::ZERO,
                        conflicts: 0,
                        decisions: 0,
                        propagations: 0,
                        restarts: 0,
                        sat_calls: 0,
                        pre_units_fixed: 0,
                        pre_clauses_removed: 0,
                        cubes_learned: 0,
                        cube_assignments: 0,
                    });
                    report.files.push(EngineFileResult {
                        summary,
                        report: None,
                        from_cache: true,
                    });
                }
                Slot::Fresh(done) => {
                    misses += 1;
                    match done.result {
                        Ok(file_report) => {
                            let summary = file_report.summary();
                            let evicted = cache.insert(done.content_key, summary.clone());
                            if evicted > 0 {
                                stats.record_evictions(evicted);
                            }
                            let stats = &file_report.bmc.stats;
                            file_metrics.push(FileMetrics {
                                file: done.file,
                                outcome: summary.outcome,
                                from_cache: false,
                                worker: Some(done.worker),
                                queue_wait: done.queue_wait,
                                duration: done.duration,
                                conflicts: stats.conflicts,
                                decisions: stats.decisions,
                                propagations: stats.propagations,
                                restarts: stats.restarts,
                                sat_calls: stats.sat_calls,
                                pre_units_fixed: stats.pre_units_fixed,
                                pre_clauses_removed: stats.pre_clauses_removed,
                                cubes_learned: stats.cubes_learned,
                                cube_assignments: stats.cube_assignments,
                            });
                            report.files.push(EngineFileResult {
                                summary,
                                report: Some(file_report),
                                from_cache: false,
                            });
                        }
                        Err(e) => {
                            file_metrics.push(FileMetrics {
                                file: done.file.clone(),
                                outcome: FileOutcome::ParseError,
                                from_cache: false,
                                worker: Some(done.worker),
                                queue_wait: done.queue_wait,
                                duration: done.duration,
                                conflicts: 0,
                                decisions: 0,
                                propagations: 0,
                                restarts: 0,
                                sat_calls: 0,
                                pre_units_fixed: 0,
                                pre_clauses_removed: 0,
                                cubes_learned: 0,
                                cube_assignments: 0,
                            });
                            report.failed_files.push((done.file, e.to_string()));
                        }
                    }
                }
            }
            // After the insert, so a miss's new entry takes its part
            // (an uncached outcome leaves no entry to take it).
            if let Some((file, part)) = part {
                cache.attach_part(file, key, Arc::clone(part));
            }
        }
        report.metrics = EngineMetrics {
            workers: self.workers,
            wall_time: started.elapsed(),
            cache_hits: hits,
            cache_misses: misses,
            store_parts_built: cell.parts_built_from_source(),
            files: file_metrics,
        };
        report
    }
}

/// Each file's cache key, in file-name order: the file's own hash;
/// files whose verdict can depend on other files ([`depends_on_set`])
/// also fold in the whole set (conservative but sound — include
/// resolution is dynamic enough that computing the precise closure up
/// front would duplicate the parser).
///
/// Persisted caches are keyed by these values, so the tests pin them to
/// a verbatim copy of the original definition, which differs only in
/// missing include keywords that are not lowercase.
fn content_keys(sources: &SourceSet) -> Vec<(String, u64)> {
    let own: Vec<u64> = sources
        .iter()
        .map(|(name, src)| content_hash(name, src))
        .collect();
    let set_hash = own.iter().fold(0u64, |h, &own| hash::combine(h, own));
    let mut lower = String::new();
    sources
        .iter()
        .zip(own)
        .map(|((name, src), own)| {
            let key = if depends_on_set(src, &mut lower) {
                hash::combine(own, set_hash)
            } else {
                own
            };
            (name.to_owned(), key)
        })
        .collect()
}

/// Hashes one file's identity: its name and contents.
fn content_hash(name: &str, src: &str) -> u64 {
    hash::fold(
        hash::fold(hash::fnv1a_64(name.as_bytes()), &[0]),
        src.as_bytes(),
    )
}

/// Whether a file's verdict can depend on other files in the set.
/// Any PHP include form (`include`, `include_once`, `require`,
/// `require_once`, in any case — PHP keywords are case-insensitive)
/// contains one of the tokens below, so this test is conservative: it
/// never misses a dependency, at worst it rebuilds an independent file.
///
/// The same reasoning covers the cross-request store model: a file
/// whose verdict can read a store cell — a result-set fetch, a
/// `$_SESSION` access, a `file_get_contents` call — depends on the
/// write levels of *every* file in the set (the batch store summary).
/// Any such read site mentions one of the store tokens below, so files
/// without them keep per-file cache keys. The scan ignores ASCII case
/// throughout; `lower` is scratch space, reused across files.
fn depends_on_set(src: &str, lower: &mut String) -> bool {
    lower.clear();
    lower.push_str(src);
    lower.make_ascii_lowercase();
    [
        "include",
        "require",
        "fetch",
        "_session",
        "file_get_contents",
        "select",
    ]
    .iter()
    .any(|token| lower.contains(token))
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// `content_keys` and `depends_on_set` as first written, verbatim:
    /// persisted caches are keyed by their values.
    mod original {
        use super::super::content_hash;
        use crate::hash;
        use php_front::SourceSet;

        pub fn content_keys(sources: &SourceSet) -> Vec<(String, u64)> {
            let set_hash = sources.iter().fold(0u64, |h, (name, src)| {
                hash::combine(h, content_hash(name, src))
            });
            sources
                .iter()
                .map(|(name, src)| {
                    let own = content_hash(name, src);
                    let key = if depends_on_set(src) {
                        hash::combine(own, set_hash)
                    } else {
                        own
                    };
                    (name.to_owned(), key)
                })
                .collect()
        }

        pub fn depends_on_set(src: &str) -> bool {
            if src.contains("include") || src.contains("require") {
                return true;
            }
            let lower = src.to_ascii_lowercase();
            ["fetch", "_session", "file_get_contents", "select"]
                .iter()
                .any(|token| lower.contains(token))
        }
    }

    /// Source fragments: every dependency token in several cases,
    /// near misses, and non-ASCII text.
    const FRAGMENTS: [&str; 22] = [
        "<?php ",
        "include 'a.php'; ",
        "INCLUDE 'a.php'; ",
        "require_once 'b.php'; ",
        "Require 'b.php'; ",
        "$r = mysql_fetch_array($h); ",
        "FETCH",
        "fetc",
        "$_SESSION['n'] ",
        "_sEsSiOn",
        "file_get_contents('m.txt') ",
        "File_Get_Contents",
        "file_get_content",
        "SELECT c FROM t ",
        "Select",
        "selec",
        "s",
        "f",
        "_",
        "echo 'é ß ünïcode'; ",
        "$x = $_GET['x']; echo $x; ",
        "// comment\n",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Keys equal the original's for every file but those whose
        /// only include keyword is not lowercase: the original missed
        /// that dependency, so those files now fold in the set hash.
        #[test]
        fn content_keys_match_the_original(
            files in prop::collection::vec(
                (0usize..6, prop::collection::vec(0usize..FRAGMENTS.len(), 0..12)),
                0..6,
            ),
        ) {
            let mut set = SourceSet::new();
            for (name, fragments) in &files {
                let src: String = fragments.iter().map(|&i| FRAGMENTS[i]).collect();
                set.add_file(format!("f{name}.php"), src);
            }
            let keys = content_keys(&set);
            let original = original::content_keys(&set);
            prop_assert_eq!(keys.len(), original.len());
            for (((name, key), (_, original_key)), (_, src)) in
                keys.iter().zip(&original).zip(set.iter())
            {
                if depends_on_set(src, &mut String::new()) && !original::depends_on_set(src) {
                    let lower = src.to_ascii_lowercase();
                    prop_assert!(lower.contains("include") || lower.contains("require"), "{}", src);
                    prop_assert!(key != original_key, "{}", name);
                } else {
                    prop_assert_eq!(key, original_key, "{}", name);
                }
            }
        }
    }
}
