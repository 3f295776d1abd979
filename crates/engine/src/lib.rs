//! # webssari-engine — parallel batch verification
//!
//! The DSN'04 evaluation verified a 230-project, 1.14M-statement
//! corpus; doing that sequentially wastes the per-file independence of
//! the pipeline. This crate schedules per-file verification jobs
//! across a fixed worker pool and adds the machinery a batch auditor
//! needs:
//!
//! * **Worker pool** ([`Engine`], [`EngineBuilder`]) — the calling
//!   thread is worker 0 and up to N − 1 scoped threads join it; they
//!   take jobs in file-name order from one shared cursor, and each
//!   hands its finished jobs back when joined. Results are re-ordered
//!   by file name, so the report is deterministic and identical to the
//!   sequential [`webssari_core::Verifier`] path for any worker count.
//!   The batch's cross-request store summary is built on demand, by the
//!   first job whose file reads a store, from per-file store parts the
//!   cache keeps in memory beside its entries — only files whose
//!   content key changed have their part recomputed, and a job whose
//!   file reads no store publishes its part from its own verification.
//! * **Incremental cache** ([`Cache`]) — results keyed by content hash
//!   and a configuration fingerprint
//!   ([`webssari_core::Verifier::config_description`]); persisted as
//!   JSON, self-invalidating when the tool version, policy, unroll
//!   depth, options, or prelude change. Inconclusive outcomes
//!   (`Timeout`, `ParseError`) are never cached.
//! * **Per-job budgets** — each job re-arms the verifier's
//!   [`webssari_core::SolveBudget`], so one pathological file degrades
//!   to a `Timeout` outcome without stalling or poisoning the batch.
//! * **Metrics** ([`EngineMetrics`]) — per-file wall time, queue wait,
//!   cache hits/misses, and SAT work counters, renderable as text or
//!   JSON.
//!
//! ```
//! use php_front::SourceSet;
//! use webssari_engine::EngineBuilder;
//!
//! let mut set = SourceSet::new();
//! set.add_file("safe.php", "<?php echo 'hello';");
//! set.add_file("vuln.php", "<?php echo $_GET['x'];");
//! let report = EngineBuilder::new().workers(2).build().run(&set);
//! assert_eq!(report.files.len(), 2);
//! assert_eq!(report.vulnerable_files(), 1);
//! assert_eq!(report.metrics.cache_misses, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod engine;
mod handle;
pub mod hash;
mod metrics;
mod stats;

/// The shared JSON value model (re-export of the [`jsonio`] crate,
/// kept under the historical `webssari_engine::json` path).
pub use jsonio as json;
/// Summary serialization (now shared via [`webssari_core::json`]; the
/// re-exports keep the historical `webssari_engine` paths working).
pub use webssari_core::json::{summary_from_value, summary_to_value};

pub use cache::{Cache, CacheCaps, CACHE_FILE_NAME};
pub use engine::{Engine, EngineBuilder, EngineFileResult, EngineReport};
pub use handle::EngineHandle;
pub use metrics::{EngineMetrics, FileMetrics};
pub use stats::{EngineSnapshot, EngineStats};

#[cfg(test)]
mod tests {
    use php_front::SourceSet;
    use webssari_core::{FileOutcome, SolveBudget, Verifier, VerifierBuilder};

    use super::*;

    fn small_set() -> SourceSet {
        let mut set = SourceSet::new();
        set.add_file("safe.php", "<?php $a = 'x'; echo $a;");
        set.add_file("sqli.php", "<?php $s = $_GET['s']; mysql_query($s);");
        set.add_file("xss.php", "<?php echo $_GET['x'];");
        set
    }

    #[test]
    fn engine_matches_sequential_for_any_worker_count() {
        let set = small_set();
        let sequential = Verifier::new().verify_project(&set);
        let expected: String = sequential
            .files
            .iter()
            .map(|f| format!("{}\n", f.render_text()))
            .collect();
        for workers in [1, 2, 4] {
            let report = EngineBuilder::new().workers(workers).build().run(&set);
            assert_eq!(report.render_text(), expected, "workers = {workers}");
            assert_eq!(report.ts_errors(), sequential.ts_errors());
            assert_eq!(report.bmc_groups(), sequential.bmc_groups());
            assert_eq!(report.vulnerable_files(), sequential.vulnerable_files());
        }
    }

    /// `n` small files, some vulnerable, in file-name order.
    fn many_files(n: usize) -> SourceSet {
        let mut set = SourceSet::new();
        for i in 0..n {
            let src = if i % 3 == 0 {
                format!("<?php echo $_GET['v{i}'];")
            } else {
                format!("<?php $a = 'x{i}'; echo $a;")
            };
            set.add_file(format!("f{i:02}.php"), src);
        }
        set
    }

    #[test]
    fn the_calling_thread_is_worker_zero() {
        let set = many_files(12);
        for workers in [1, 2, 4] {
            let report = EngineBuilder::new().workers(workers).build().run(&set);
            let ran: Vec<usize> = report
                .metrics
                .files
                .iter()
                .map(|f| f.worker.expect("every file is a fresh job"))
                .collect();
            assert!(ran.contains(&0), "workers = {workers}: {ran:?}");
            assert!(
                ran.iter().all(|&w| w < workers),
                "workers = {workers}: {ran:?}"
            );
        }
        // A one-job batch runs on the calling thread alone.
        let mut one = SourceSet::new();
        one.add_file("only.php", "<?php echo $_GET['x'];");
        let report = EngineBuilder::new().workers(4).build().run(&one);
        assert_eq!(report.metrics.files[0].worker, Some(0));
    }

    #[test]
    fn reports_are_byte_identical_for_any_worker_count() {
        let set = many_files(12);
        let render = |set: &SourceSet, workers: usize| {
            EngineBuilder::new()
                .workers(workers)
                .build()
                .run(set)
                .render_text()
        };
        let text = render(&set, 1);
        for workers in [2, 4] {
            assert_eq!(render(&set, workers), text, "workers = {workers}");
        }
        // A one-file batch renders that file's part of the whole.
        let (name, src) = set.iter().next().expect("nonempty set");
        let mut one = SourceSet::new();
        one.add_file(name, src);
        for workers in [1, 2, 4] {
            let one_text = render(&one, workers);
            assert!(
                !one_text.is_empty() && text.starts_with(&one_text),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn a_snapshot_mid_batch_counts_the_finished_jobs() {
        // Small files first, then one branch-heavy page whose solver
        // work keeps a worker busy after the rest have finished.
        let mut set = many_files(20);
        let mut slow = String::from("<?php\n$q = 'SELECT * FROM t WHERE a=';\n");
        for i in 0..12 {
            slow.push_str(&format!(
                "if ($_GET['c{i}']) {{ $q = $q . $_GET['v{i}']; }} else {{ $q = $q . 'k{i}'; }}\n"
            ));
        }
        slow.push_str("mysql_query($q);\necho $q;\n");
        set.add_file("zz_slow.php", slow);
        let handle = EngineBuilder::new().workers(2).build().into_handle();
        let finished = |s: &EngineSnapshot| {
            s.files_verified + s.files_vulnerable + s.files_timeout + s.files_parse_error
        };
        let mut mid_batch = Vec::new();
        std::thread::scope(|scope| {
            let run = scope.spawn(|| handle.run(&set));
            while !run.is_finished() {
                let snapshot = handle.snapshot();
                if snapshot.batches_started == 1 && snapshot.batches_completed == 0 {
                    mid_batch.push(snapshot);
                }
                std::thread::yield_now();
            }
            run.join().expect("batch completes");
        });
        let total = set.len() as u64;
        let counted = mid_batch
            .iter()
            .filter(|s| finished(s) > 0 && finished(s) < total)
            .count();
        assert!(counted > 0, "no mid-batch snapshot saw finished jobs");
        let after = handle.snapshot();
        assert_eq!(finished(&after), total);
        assert_eq!(after.cache_misses, total);
    }

    #[test]
    fn parse_errors_become_failed_files() {
        let mut set = small_set();
        set.add_file("broken.php", "<?php if (");
        let report = EngineBuilder::new().workers(2).build().run(&set);
        assert_eq!(report.files.len(), 3);
        assert_eq!(report.failed_files.len(), 1);
        assert_eq!(report.failed_files[0].0, "broken.php");
        assert_eq!(report.metrics.count(FileOutcome::ParseError), 1);
    }

    #[test]
    fn zero_budget_degrades_to_timeout_without_poisoning_batch() {
        let verifier = VerifierBuilder::new()
            .solve_budget(SolveBudget::unlimited().wall_time(std::time::Duration::ZERO))
            .build();
        let report = EngineBuilder::new()
            .verifier(verifier)
            .workers(2)
            .build()
            .run(&small_set());
        // Every file that needs solving times out; the batch completes.
        assert_eq!(report.files.len(), 3);
        assert!(report.timeout_files() >= 1);
        assert!(report.failed_files.is_empty());
    }

    #[test]
    fn second_run_with_cache_hits_every_file() {
        let dir = std::env::temp_dir().join(format!(
            "webssari-engine-cache-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let set = small_set();
        let engine = EngineBuilder::new().workers(2).cache_dir(&dir).build();
        let first = engine.run(&set);
        assert_eq!(first.metrics.cache_misses, set.len());
        assert!(first.cache_error.is_none(), "{:?}", first.cache_error);

        let second = engine.run(&set);
        assert_eq!(second.metrics.cache_hits, set.len());
        assert_eq!(second.metrics.cache_misses, 0);
        assert_eq!(second.ts_errors(), first.ts_errors());
        assert_eq!(second.bmc_groups(), first.bmc_groups());
        assert_eq!(second.vulnerable_files(), first.vulnerable_files());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn editing_one_file_reverifies_only_that_file() {
        let dir = std::env::temp_dir().join(format!(
            "webssari-engine-edit-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let mut set = small_set();
        let engine = EngineBuilder::new().workers(2).cache_dir(&dir).build();
        engine.run(&set);
        set.add_file("xss.php", "<?php echo htmlspecialchars($_GET['x']);");
        let second = engine.run(&set);
        assert_eq!(second.metrics.cache_hits, 2);
        assert_eq!(second.metrics.cache_misses, 1);
        let xss = second
            .files
            .iter()
            .find(|f| f.summary.file == "xss.php")
            .unwrap();
        assert!(!xss.from_cache);
        assert_eq!(xss.summary.outcome, FileOutcome::Verified);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn include_bearing_files_invalidate_with_the_set() {
        // PHP keywords are case-insensitive: every spelling is an include.
        for keyword in ["include", "INCLUDE", "Require_Once"] {
            let dir = std::env::temp_dir().join(format!(
                "webssari-engine-inc-{keyword}-{}-{:?}",
                std::process::id(),
                std::thread::current().id(),
            ));
            let mut set = SourceSet::new();
            set.add_file("lib.php", "<?php $v = 'safe';");
            set.add_file("main.php", format!("<?php {keyword} 'lib.php'; echo $v;"));
            let engine = EngineBuilder::new().cache_dir(&dir).build();
            let first = engine.run(&set);
            assert_eq!(first.vulnerable_files(), 0, "{keyword}");

            // Changing only lib.php must re-verify main.php too.
            set.add_file("lib.php", "<?php $v = $_GET['v'];");
            let second = engine.run(&set);
            let main = second
                .files
                .iter()
                .find(|f| f.summary.file == "main.php")
                .unwrap();
            assert!(
                !main.from_cache,
                "{keyword}: stale include result served from cache"
            );
            assert_eq!(main.summary.outcome, FileOutcome::Vulnerable, "{keyword}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
