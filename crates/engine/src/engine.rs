//! The batch verification engine: a fixed worker pool over per-file
//! jobs, an incremental cache, per-job solve budgets, and metrics.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use php_front::SourceSet;
use webssari_core::{
    FileOutcome, FileReads, FileReport, FileSummary, SolveBudget, StoreCell, Verifier, VerifyError,
};
use xbmc::XbmcStats;

use crate::cache::{Cache, CacheCaps, EntryReads, StoreRead};
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
}

impl EngineBuilder {
    /// Starts from a default [`Verifier`] and a single worker.
    pub fn new() -> Self {
        EngineBuilder {
            verifier: Verifier::new(),
            workers: 1,
            cache_dir: None,
            cache_caps: CacheCaps::unlimited(),
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

    /// Builds the engine.
    pub fn build(self) -> Engine {
        Engine {
            verifier: self.verifier,
            workers: self.workers.max(1),
            cache_dir: self.cache_dir,
            cache_caps: self.cache_caps,
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
        let mut out = String::new();
        self.render_text_into(&mut out);
        out
    }

    /// Appends [`EngineFileResult::render_text`]'s text to `out`.
    pub fn render_text_into(&self, out: &mut String) {
        if let Some(report) = &self.report {
            report.render_text_into(out);
            return;
        }
        let s = &self.summary;
        let _ = write!(
            out,
            "== {} == (cached)\nstatements: {}, TS errors: {}, BMC groups: {}, \
             counterexamples: {}, outcome: {}\n",
            s.file, s.num_statements, s.ts_errors, s.bmc_groups, s.counterexamples, s.outcome,
        );
        for v in &s.vulnerabilities {
            v.render_into(out);
        }
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

    /// The instrumentation reduction BMC achieves over TS (`1 − BMC/TS`)
    /// over the files whose check finished: a timed-out file has TS
    /// errors but no BMC groups to weigh them against. `None` when those
    /// files report no TS errors.
    pub fn reduction(&self) -> Option<f64> {
        let (ts, bmc) = self
            .files
            .iter()
            .filter(|f| f.summary.outcome != FileOutcome::Timeout)
            .fold((0, 0), |(ts, bmc), f| {
                (ts + f.summary.ts_errors, bmc + f.summary.bmc_groups)
            });
        (ts > 0).then(|| 1.0 - bmc as f64 / ts as f64)
    }

    /// Renders every file's report, one blank line between files —
    /// the same text the sequential CLI path prints.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.files {
            f.render_text_into(&mut out);
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

/// One file of a batch: its name and content key ([`content_keys`]).
type Keyed<'s> = (&'s str, u64);

struct JobDone {
    index: usize,
    worker: usize,
    queue_wait: Duration,
    duration: Duration,
    result: Result<(FileReport, FileReads), VerifyError>,
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

    /// The shared run pipeline: serves hits from the warm `cache`,
    /// verifies the rest on the worker pool, folds fresh results back
    /// into `cache`, and bumps `stats` live as each job completes. Does
    /// *not* persist the cache — that is the caller's (handle's)
    /// decision.
    ///
    /// A batch runs in two phases. Phase 1 verifies the files whose
    /// cache entry does not hold ([`Cache::lookup`]: the file or one of
    /// its recorded includes changed). A hit whose verification read
    /// the store summary of another source set then stands only if the
    /// batch's summary has the digest it recorded; phase 2 re-verifies
    /// the store readers whose digest differs. The summary is taken
    /// after phase 1, so the misses have published their store parts
    /// by then. A hit that read the summary of this very set stands
    /// without it: the summary is a function of the set.
    ///
    /// Workers take jobs in file-name order from one shared cursor, so
    /// none idles while work is left. Scheduling never shows in the
    /// report: slots are assembled in file-name order, so reports stay
    /// byte-identical to the sequential path.
    pub(crate) fn run_shared(
        &self,
        sources: &SourceSet,
        budget: Option<SolveBudget>,
        cache: &Cache,
        stats: &EngineStats,
    ) -> EngineReport {
        let started = Instant::now();
        stats.batch_started();
        let keys = content_keys(sources);
        let set = set_hash(&keys);
        let current = |name: &str| key_of(&keys, name);

        // Serve cache hits on this thread; queue the rest. Each lookup
        // holds the cache lock only for itself, so concurrent batches
        // (and the single-file `/verify` fast path) overlap freely.
        let mut slots: Vec<Option<Slot>> = Vec::with_capacity(keys.len());
        slots.resize_with(keys.len(), || None);
        let mut misses = Vec::new();
        let mut store_hits = Vec::new();
        let mut parts = Vec::new();
        for (index, &(name, key)) in keys.iter().enumerate() {
            let Some(hit) = cache.lookup(name, key, &current) else {
                misses.push(index);
                continue;
            };
            if let Some(part) = hit.part {
                parts.push((name.to_owned(), part));
            }
            match hit.store {
                Some(read) if read.set != set => {
                    store_hits.push((index, read.digest, hit.summary));
                }
                _ => {
                    stats.record_cache_hit(&hit.summary);
                    slots[index] = Some(Slot::Hit(hit.summary));
                }
            }
        }

        // Pass 1 of second-order analysis is built at most once per
        // batch, and only if a job or a store-reading hit needs it:
        // every job shares one cell, and the first file whose filter
        // consults the store summary fills it. The summary is a pure
        // function of the source set, so whichever worker builds it,
        // every report is the same. The cell is seeded with the store
        // parts the hit entries hold (a part is a function of the file
        // and its includes, which a hit has unchanged), and every miss
        // whose filter does not read a store publishes its part as it
        // finishes, so filling it builds from source only the parts of
        // the store readers, of misses not yet verified, and of hits
        // that hold none.
        let cell = Arc::new(StoreCell::seeded(parts));
        let verifier = match budget {
            Some(b) => self.verifier.with_solve_budget(b),
            None => self.verifier.clone(),
        }
        .with_store_cell(Arc::clone(&cell));

        let mut finished = self.verify_jobs(&verifier, sources, &keys, &misses, started, stats);
        if !store_hits.is_empty() {
            // Fills the cell from the parts alone when no phase 1 job
            // read the summary.
            let digest = verifier.store_digest(&cell, sources);
            let mut stale = Vec::new();
            for (index, recorded, summary) in store_hits {
                if recorded == digest {
                    let (name, key) = keys[index];
                    cache.confirm_store_read(name, key, &current, StoreRead { digest, set });
                    stats.record_cache_hit(&summary);
                    slots[index] = Some(Slot::Hit(summary));
                } else {
                    stale.push(index);
                }
            }
            finished.extend(self.verify_jobs(&verifier, sources, &keys, &stale, started, stats));
        }
        for done in finished {
            let index = done.index;
            slots[index] = Some(Slot::Fresh(Box::new(done)));
        }

        let report = self.assemble(started, keys, set, slots, &cell, cache, stats);
        stats.batch_completed();
        report
    }

    /// Verifies the files at `jobs` (indices into `keys`) on the worker
    /// pool and returns the finished jobs, in no particular order.
    ///
    /// The calling thread is worker 0; only the other workers are
    /// spawned, and each hands back its finished jobs when joined.
    /// Worker 0 holds job 0 before any other worker starts, so the
    /// calling thread always does work; the rest come from one shared
    /// cursor in file-name order. The cursor only hands out indices
    /// into `jobs`, which every worker borrows unchanged, so it
    /// publishes no data.
    fn verify_jobs(
        &self,
        verifier: &Verifier,
        sources: &SourceSet,
        keys: &[Keyed<'_>],
        jobs: &[usize],
        started: Instant,
        stats: &EngineStats,
    ) -> Vec<JobDone> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let run_job = |worker: usize, index: usize| {
            let picked = Instant::now();
            stats.job_started();
            let result = verifier.verify_file_recorded(sources, keys[index].0);
            let duration = picked.elapsed();
            // Live counters move the moment the job is done, not when
            // the batch is assembled — a snapshot mid-batch sees them.
            match &result {
                Ok((report, _)) => stats.record_fresh(report.outcome, duration, &report.bmc.stats),
                Err(_) => {
                    stats.record_fresh(FileOutcome::ParseError, duration, &XbmcStats::default())
                }
            }
            stats.job_finished();
            JobDone {
                index,
                worker,
                queue_wait: picked.duration_since(started),
                duration,
                result,
            }
        };
        let workers = self.workers.min(jobs.len());
        let cursor = AtomicUsize::new(1);
        let claim = || cursor.fetch_add(1, Ordering::Relaxed);
        let work = |worker: usize, mut next: usize| {
            let mut done = Vec::new();
            while let Some(&index) = jobs.get(next) {
                done.push(run_job(worker, index));
                next = claim();
            }
            done
        };
        std::thread::scope(|s| {
            let helpers: Vec<_> = (1..workers)
                .map(|worker| s.spawn(move || work(worker, claim())))
                .collect();
            let mut finished = work(0, 0);
            for helper in helpers {
                match helper.join() {
                    Ok(done) => finished.extend(done),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            finished
        })
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
    /// since an all-hit batch never invokes the verifier. A hit that
    /// read the store summary of another set stands only if the
    /// one-file set's summary — the merge of the file's own part, which
    /// the entry must hold — has the digest it recorded. This is the
    /// serving tier's warm
    /// `/verify` path: a bounded cache lookup that is cheap enough to
    /// answer inline, without a worker dispatch.
    pub(crate) fn run_cached_shared(
        &self,
        sources: &SourceSet,
        cache: &Cache,
        stats: &EngineStats,
    ) -> Option<EngineReport> {
        if sources.len() != 1 {
            return None;
        }
        let started = Instant::now();
        let keys = content_keys(sources);
        let set = set_hash(&keys);
        let (name, key) = keys[0];
        let current = |other: &str| (other == name).then_some(key);
        let hit = cache.lookup(name, key, &current)?;
        if let Some(read) = hit.store.filter(|read| read.set != set) {
            let cell = StoreCell::seeded([(name.to_owned(), hit.part?)]);
            if self.verifier.store_digest(&cell, sources) != read.digest {
                return None;
            }
            let read = StoreRead { set, ..read };
            cache.confirm_store_read(name, key, &current, read);
        }
        stats.batch_started();
        stats.record_cache_hit(&hit.summary);
        let slots = vec![Some(Slot::Hit(hit.summary))];
        let report = self.assemble(
            started,
            keys,
            set,
            slots,
            &StoreCell::default(),
            cache,
            stats,
        );
        stats.batch_completed();
        Some(report)
    }

    /// Folds filled slots into the final report and updates the
    /// in-memory cache (persistence is the caller's decision): misses
    /// are inserted with what they read, and the store parts the
    /// batch's `cell` computed are kept beside the entries they belong
    /// to.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        &self,
        started: Instant,
        keys: Vec<Keyed<'_>>,
        set: u64,
        slots: Vec<Option<Slot>>,
        cell: &StoreCell,
        cache: &Cache,
        stats: &EngineStats,
    ) -> EngineReport {
        let built = cell.built_parts();
        let filled = cell.get().is_some();
        let current = |name: &str| key_of(&keys, name);
        let mut report = EngineReport::default();
        let mut file_metrics = Vec::with_capacity(keys.len());
        let mut hits = 0usize;
        let mut misses = 0usize;
        let mut built_parts = built.iter().peekable();
        for (&(name, key), slot) in keys.iter().zip(slots) {
            let built = built_parts.next_if(|(file, _)| file == name);
            let fresh = matches!(slot, Some(Slot::Fresh(_)));
            let metrics = match slot.expect("every slot is either a hit or a finished job") {
                Slot::Hit(summary) => {
                    hits += 1;
                    let metrics = FileMetrics {
                        file: name.to_owned(),
                        outcome: summary.outcome,
                        from_cache: true,
                        worker: None,
                        queue_wait: Duration::ZERO,
                        duration: Duration::ZERO,
                        bmc: XbmcStats::default(),
                    };
                    report.files.push(EngineFileResult {
                        summary,
                        report: None,
                        from_cache: true,
                    });
                    metrics
                }
                Slot::Fresh(done) => {
                    misses += 1;
                    let (outcome, bmc) = match done.result {
                        Ok((file_report, reads)) => {
                            let summary = file_report.summary();
                            let reads = entry_reads(name, reads, set, &current);
                            let evicted = cache.insert(key, reads, summary.clone());
                            if evicted > 0 {
                                stats.record_evictions(evicted);
                            }
                            let counted = (summary.outcome, file_report.bmc.stats);
                            report.files.push(EngineFileResult {
                                summary,
                                report: Some(file_report),
                                from_cache: false,
                            });
                            counted
                        }
                        Err(e) => {
                            report.failed_files.push((name.to_owned(), e.to_string()));
                            (FileOutcome::ParseError, XbmcStats::default())
                        }
                    };
                    FileMetrics {
                        file: name.to_owned(),
                        outcome,
                        from_cache: false,
                        worker: Some(done.worker),
                        queue_wait: done.queue_wait,
                        duration: done.duration,
                        bmc,
                    }
                }
            };
            file_metrics.push(metrics);
            // After the insert, so a miss's new entry takes its part
            // (an uncached outcome leaves no entry to take it, unless an
            // older one still holds for this set). A filled cell has
            // every file's part: a re-verified store reader's was seeded
            // from its old entry rather than built, and its new entry
            // takes it too.
            let part = match built {
                Some((_, part)) => Some(Arc::clone(part)),
                None if fresh && filled => cell.part(name),
                None => None,
            };
            if let Some(part) = part {
                cache.attach_part(name, key, &current, part);
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

/// Each file's content key, in file-name order: the hash of its own
/// name and text. A cache entry is keyed on it and on the content keys
/// of the files its verification looked up (see the [`crate::cache`]
/// module docs), so an edit re-verifies the edited file and the files
/// that read it, not the whole set.
fn content_keys(sources: &SourceSet) -> Vec<Keyed<'_>> {
    sources
        .iter()
        .map(|(name, src)| (name, content_hash(name, src)))
        .collect()
}

/// The hash of a batch's whole source set: every file's content key,
/// folded in name order. The store summary is a function of the set.
fn set_hash(keys: &[Keyed<'_>]) -> u64 {
    keys.iter().fold(0, |h, &(_, key)| hash::combine(h, key))
}

/// `name`'s content key in a batch's [`content_keys`], or `None` when
/// the batch has no such file.
fn key_of(keys: &[Keyed<'_>], name: &str) -> Option<u64> {
    keys.binary_search_by(|&(file, _)| file.cmp(name))
        .ok()
        .map(|i| keys[i].1)
}

/// What `file`'s verification read, as its cache entry keeps it: every
/// other file name include resolution looked up, once and in name
/// order, with its content key in this batch (`current`), and the
/// digest of the store summary it read, stamped with the batch's `set`.
fn entry_reads(
    file: &str,
    reads: FileReads,
    set: u64,
    current: &dyn Fn(&str) -> Option<u64>,
) -> EntryReads {
    let mut names = reads.includes;
    names.sort_unstable();
    names.dedup();
    let includes = names
        .into_iter()
        .filter(|name| name != file)
        .map(|name| {
            let key = current(&name);
            (name, key)
        })
        .collect();
    EntryReads {
        includes,
        store: reads.store.map(|digest| StoreRead { digest, set }),
    }
}

/// Hashes one file's identity: its name and contents.
fn content_hash(name: &str, src: &str) -> u64 {
    hash::fold(
        hash::fold(hash::fnv1a_64(name.as_bytes()), &[0]),
        src.as_bytes(),
    )
}
