//! A long-lived, shareable engine handle.
//!
//! [`Engine::run`](crate::Engine::run) is batch-oriented: every call
//! loads the cache from disk, verifies, and writes it back. A service
//! that stays resident — `webssari-serve`, an editor integration, a CI
//! runner amortizing startup — instead holds one [`EngineHandle`]:
//!
//! * the incremental cache is loaded **once** and stays warm in memory
//!   across runs (persist it explicitly with
//!   [`EngineHandle::flush_cache`], e.g. on graceful shutdown);
//! * live counters ([`EngineStats`]) are bumped as each job completes,
//!   so [`EngineHandle::snapshot`] observes work in flight;
//! * runs can re-arm the per-file [`SolveBudget`] per call
//!   ([`EngineHandle::run_with_budget`]) without invalidating the
//!   cache — the budget is excluded from the configuration
//!   fingerprint by design.
//!
//! The handle is `Sync`: wrap it in an `Arc` and call [`run`]
//! concurrently from many threads; the cache lock is held only for
//! lookups and inserts, never across verification.
//!
//! [`run`]: EngineHandle::run

use std::path::PathBuf;

use php_front::SourceSet;
use webssari_core::SolveBudget;

use crate::cache::Cache;
use crate::engine::{Engine, EngineReport};
use crate::stats::{EngineSnapshot, EngineStats};

/// A reusable verification service handle. See the module docs.
#[derive(Debug)]
pub struct EngineHandle {
    engine: Engine,
    cache: Cache,
    stats: EngineStats,
}

impl EngineHandle {
    /// Wraps an engine, loading its persistent cache (if any) once
    /// into one warm cache under the engine's caps.
    pub fn new(engine: Engine) -> Self {
        let fingerprint = engine.fingerprint();
        let caps = engine.cache_caps;
        let cache = match engine.cache_dir() {
            Some(dir) => Cache::load(dir, &fingerprint, caps),
            None => Cache::new(&fingerprint, caps),
        };
        EngineHandle {
            engine,
            cache,
            stats: EngineStats::new(),
        }
    }

    /// The wrapped engine configuration.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The live counters this handle's runs feed.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Reads the live counters; callable at any time, from any thread,
    /// including while runs are in flight.
    pub fn snapshot(&self) -> EngineSnapshot {
        self.stats.snapshot()
    }

    /// Number of results currently held in the warm cache.
    pub fn cached_files(&self) -> usize {
        self.cache.len()
    }

    /// The warm cache (gauge fodder for monitoring endpoints: entry
    /// count, byte footprint, store parts).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Verifies a source set through the warm cache and worker pool.
    /// Reports are deterministic exactly as with [`Engine::run`].
    pub fn run(&self, sources: &SourceSet) -> EngineReport {
        self.run_with_budget(sources, None)
    }

    /// Like [`EngineHandle::run`], re-arming the per-file
    /// [`SolveBudget`] for this run only. Cached results remain valid
    /// across budgets: the budget decides whether a check *finishes*,
    /// never what it concludes, and inconclusive (`Timeout`) outcomes
    /// are never cached.
    pub fn run_with_budget(
        &self,
        sources: &SourceSet,
        budget: Option<SolveBudget>,
    ) -> EngineReport {
        self.engine
            .run_shared(sources, budget, &self.cache, &self.stats)
    }

    /// Serves a single-file set straight from the warm cache. Returns
    /// `None` — without touching any counter — when the set has more
    /// than one file or its result is not cached; the caller should
    /// then fall back to [`EngineHandle::run`]. On a hit the report is
    /// bit-identical to what a full run would produce, and the hit is
    /// recorded in the live counters exactly as usual.
    pub fn try_run_cached(&self, sources: &SourceSet) -> Option<EngineReport> {
        self.engine
            .run_cached_shared(sources, &self.cache, &self.stats)
    }

    /// Persists the warm cache into the engine's cache directory.
    /// Returns the written path, or `Ok(None)` when the engine has no
    /// cache directory configured.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the cached results stay usable in
    /// memory either way.
    pub fn flush_cache(&self) -> std::io::Result<Option<PathBuf>> {
        let Some(dir) = self.engine.cache_dir() else {
            return Ok(None);
        };
        self.cache.save(dir).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use super::*;
    use crate::EngineBuilder;
    use webssari_core::FileOutcome;

    fn small_set() -> SourceSet {
        let mut set = SourceSet::new();
        set.add_file("safe.php", "<?php $a = 'x'; echo $a;");
        set.add_file("sqli.php", "<?php $s = $_GET['s']; mysql_query($s);");
        set
    }

    #[test]
    fn cache_stays_warm_across_runs_without_disk() {
        let handle = EngineBuilder::new().workers(2).build().into_handle();
        let set = small_set();
        let first = handle.run(&set);
        assert_eq!(first.metrics.cache_misses, 2);
        let second = handle.run(&set);
        assert_eq!(second.metrics.cache_hits, 2);
        assert_eq!(second.metrics.cache_misses, 0);
        // Cached results carry the same summaries (their rendered text
        // is the abbreviated cached form).
        for (a, b) in first.files.iter().zip(&second.files) {
            assert_eq!(a.summary, b.summary);
            assert!(b.from_cache);
        }
        let snap = handle.snapshot();
        assert_eq!(snap.batches_started, 2);
        assert_eq!(snap.batches_completed, 2);
        assert_eq!(snap.cache_hits, 2);
        assert_eq!(snap.cache_misses, 2);
        assert_eq!(snap.jobs_in_flight, 0);
        assert_eq!(handle.cached_files(), 2);
    }

    #[test]
    fn solver_totals_sum_the_fresh_reports_across_batches() {
        let handle = EngineBuilder::new().workers(2).build().into_handle();
        let mut set = small_set();
        set.add_file("xss.php", "<?php echo $_GET['x'];");
        let first = handle.run(&set);
        set.add_file("sqli.php", "<?php $t = $_GET['t']; mysql_query($t);");
        let second = handle.run(&set);
        assert_eq!(
            second.metrics.cache_misses, 1,
            "only the edited file re-verifies"
        );

        let mut both = xbmc::XbmcStats::default();
        for report in [&first, &second] {
            let mut fresh = xbmc::XbmcStats::default();
            for file in report.files.iter().filter_map(|f| f.report.as_ref()) {
                fresh.add(&file.bmc.stats);
            }
            assert!(fresh.sat_calls > 0, "a vulnerable file reaches the solver");
            assert_eq!(report.metrics.totals(), fresh);
            both.add(&fresh);
        }
        assert_eq!(handle.snapshot().bmc, both);
    }

    #[test]
    fn cache_caps_bound_the_whole_cache() {
        let file = |name: &str| {
            let mut set = SourceSet::new();
            set.add_file(name, "<?php $a = 'x'; echo $a;");
            set
        };
        // The FNV-1a hashes of a.php and b.php differ in parity; those
        // of a.php, c.php, e.php and g.php share it.
        let one = EngineBuilder::new()
            .workers(2)
            .cache_max_entries(1)
            .build()
            .into_handle();
        one.run(&file("a.php"));
        one.run(&file("b.php"));
        assert_eq!(one.cached_files(), 1);
        assert!(one.try_run_cached(&file("b.php")).is_some());

        // With room for two, the two most recently used files stay.
        let two = EngineBuilder::new()
            .workers(2)
            .cache_max_entries(2)
            .build()
            .into_handle();
        for name in ["a.php", "c.php", "e.php"] {
            two.run(&file(name));
        }
        assert!(two.try_run_cached(&file("c.php")).is_some());
        two.run(&file("g.php"));
        assert_eq!(two.cached_files(), 2);
        assert!(two.try_run_cached(&file("c.php")).is_some());
        assert!(two.try_run_cached(&file("g.php")).is_some());
        assert!(two.try_run_cached(&file("a.php")).is_none());
        assert!(two.try_run_cached(&file("e.php")).is_none());
        assert_eq!(two.snapshot().cache_evictions, 2);
    }

    #[test]
    fn flush_persists_for_a_fresh_handle() {
        let dir = std::env::temp_dir().join(format!(
            "webssari-handle-flush-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let set = small_set();
        let handle = EngineBuilder::new().cache_dir(&dir).build().into_handle();
        handle.run(&set);
        let path = handle.flush_cache().unwrap();
        assert!(path.is_some_and(|p| p.is_file()));

        let rewarmed = EngineBuilder::new().cache_dir(&dir).build().into_handle();
        assert_eq!(rewarmed.cached_files(), 2);
        let report = rewarmed.run(&set);
        assert_eq!(report.metrics.cache_hits, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn per_run_budget_degrades_without_poisoning_the_cache() {
        let handle = EngineBuilder::new().build().into_handle();
        let set = small_set();
        let strangled = handle.run_with_budget(
            &set,
            Some(SolveBudget::unlimited().wall_time(Duration::ZERO)),
        );
        assert!(strangled.timeout_files() >= 1);
        // Timeouts were not cached: an unbudgeted run re-verifies and
        // reaches the real verdicts.
        let full = handle.run(&set);
        assert_eq!(full.timeout_files(), 0);
        assert_eq!(full.vulnerable_files(), 1);
        assert!(handle.snapshot().files_timeout >= 1);
    }

    #[test]
    fn try_run_cached_serves_only_warm_single_files() {
        let handle = EngineBuilder::new().workers(2).build().into_handle();
        let mut single = SourceSet::new();
        single.add_file("safe.php", "<?php $a = 'x'; echo $a;");
        // Cold: declines without touching any counter.
        assert!(handle.try_run_cached(&single).is_none());
        assert_eq!(handle.snapshot().batches_started, 0);
        assert_eq!(handle.snapshot().cache_misses, 0);

        handle.run(&single);
        let fast = handle.try_run_cached(&single).expect("warm after a run");
        assert!(fast.files[0].from_cache);
        // Bit-identical to the full warm path.
        let full = handle.run(&single);
        assert_eq!(fast.render_text(), full.render_text());

        // Multi-file sets always decline, even fully warm.
        let set = small_set();
        handle.run(&set);
        assert!(handle.try_run_cached(&set).is_none());

        let snap = handle.snapshot();
        assert_eq!(snap.batches_started, 4);
        assert_eq!(snap.batches_completed, 4);
        // Fast-path hits count exactly like worker-path hits: one from
        // try_run_cached, one from the rerun, one for safe.php inside
        // the two-file set (same name and content, same key).
        assert_eq!(snap.cache_hits, 3);
        assert_eq!(snap.cache_misses, 2);
    }

    #[test]
    fn try_run_cached_checks_a_store_readers_digest() {
        let page = "<?php $_SESSION['n'] = 'hi'; $m = $_SESSION['n']; echo $m;";
        let mut single = SourceSet::new();
        single.add_file("guest.php", page);
        let mut with_writer = single.clone();
        with_writer.add_file("writer.php", "<?php $_SESSION['n'] = $_GET['n'];");
        let dir = std::env::temp_dir().join(format!(
            "webssari-handle-digest-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = EngineBuilder::new().cache_dir(&dir).build().into_handle();

        // Alone, the page reads its own write: the one-file summary.
        let alone = handle.run(&single);
        assert_eq!(alone.files[0].summary.outcome, FileOutcome::Verified);
        let fast = handle
            .try_run_cached(&single)
            .expect("warm and same summary");
        assert_eq!(fast.render_text(), handle.run(&single).render_text());

        // Beside a tainted writer the page read another summary, so the
        // one-file set no longer matches what its entry recorded.
        let both = handle.run(&with_writer);
        assert_eq!(both.files[0].summary.outcome, FileOutcome::Vulnerable);
        assert!(!both.files[0].from_cache);
        // The re-verified page keeps the part its old entry held, so the
        // fast path can take the digest, and declines on it.
        assert_eq!(handle.cache().store_parts(), 2);
        assert!(handle.try_run_cached(&single).is_none());
        let again = handle.run(&single);
        assert_eq!(again.files[0].summary.outcome, FileOutcome::Verified);
        assert!(!again.files[0].from_cache);

        // A reloaded entry holds no store part. It read the summary of
        // this very one-file set, so the fast path needs none.
        handle.flush_cache().unwrap();
        let engine = EngineBuilder::new().cache_dir(&dir).build();
        assert!(engine
            .clone()
            .into_handle()
            .try_run_cached(&single)
            .is_some());

        // Verified beside the writer, the page read another set's
        // summary: a reloaded fast path would need the page's part for
        // the digest, and declines; a full run builds it and re-verifies.
        handle.run(&with_writer);
        handle.flush_cache().unwrap();
        let reloaded = engine.into_handle();
        assert!(reloaded.try_run_cached(&single).is_none());
        let full = reloaded.run(&single);
        assert!(!full.files[0].from_cache);
        assert_eq!(full.metrics.store_parts_built, 1);
        assert!(reloaded.try_run_cached(&single).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_runs_share_the_cache() {
        let handle = Arc::new(EngineBuilder::new().workers(2).build().into_handle());
        let set = small_set();
        handle.run(&set); // prime
        let mut threads = Vec::new();
        for _ in 0..4 {
            let handle = Arc::clone(&handle);
            let set = set.clone();
            threads.push(std::thread::spawn(move || handle.run(&set)));
        }
        for t in threads {
            let report = t.join().unwrap();
            assert_eq!(report.metrics.cache_hits, 2);
        }
        assert_eq!(handle.snapshot().batches_completed, 5);
    }

    #[test]
    fn snapshot_is_readable_while_workers_run() {
        let handle = Arc::new(EngineBuilder::new().workers(2).build().into_handle());
        let mut set = SourceSet::new();
        for i in 0..6 {
            set.add_file(
                format!("f{i}.php"),
                format!("<?php $x{i} = $_GET['a']; echo $x{i};"),
            );
        }
        let runner = {
            let handle = Arc::clone(&handle);
            std::thread::spawn(move || handle.run(&set))
        };
        // Poll the snapshot while the batch runs; this must never
        // block or tear regardless of interleaving.
        let mut last = handle.snapshot();
        while !runner.is_finished() {
            last = handle.snapshot();
            assert!(last.jobs_in_flight <= 2, "gauge bounded by pool size");
        }
        let report = runner.join().unwrap();
        assert_eq!(report.files.len(), 6);
        let final_snap = handle.snapshot();
        assert_eq!(final_snap.cache_misses, 6);
        assert!(final_snap.cache_misses >= last.cache_misses);
        assert_eq!(final_snap.jobs_in_flight, 0);
    }
}
