//! The engine builds each batch's cross-request store summary on
//! demand, from per-file store parts it keeps beside its cache entries.
//! These tests pin that this is invisible: verdicts still follow edits
//! to the writers a reader depends on, reports stay byte-identical to
//! verifying the project against the eagerly built summary, for any
//! worker count, and the cache file is unchanged. They also pin that a
//! warm handle recomputes only the parts whose content key changed.

use std::sync::Arc;

use php_front::SourceSet;
use proptest::prelude::*;
use webssari_core::{FileOutcome, StoreCell, Verifier};
use webssari_engine::json::Value;
use webssari_engine::{EngineBuilder, EngineReport, CACHE_FILE_NAME};

#[path = "../../ir/tests/support/store_php.rs"]
mod store_php;
use store_php::{session_file_php, sql_store_php, MSGS_READERS, MSGS_WRITERS};

/// The `msgs` writer with its `INSERT` value sanitized.
const SANITIZED_WRITER: &str = "<?php $v = htmlspecialchars($_POST['v']); \
     mysql_query(\"INSERT INTO msgs (c) VALUES ('$v')\");";

fn project(writer: &str) -> SourceSet {
    let mut set = SourceSet::new();
    set.add_file("plain.php", "<?php echo htmlspecialchars($_GET['x']);");
    set.add_file("reader.php", MSGS_READERS[0]);
    set.add_file("writer.php", writer);
    set
}

fn outcome(report: &EngineReport, file: &str) -> (FileOutcome, bool) {
    let f = report
        .files
        .iter()
        .find(|f| f.summary.file == file)
        .expect("file in report");
    (f.summary.outcome, f.from_cache)
}

/// Editing the writer re-keys the reader on the same warm handle, and
/// the reader's verdict follows the writer's taint both ways. (Switching
/// back may be served from the cache: it can still hold the entry of
/// the first batch, under the same key and with the same verdict.)
#[test]
fn reader_verdict_follows_writer_edits_on_a_warm_handle() {
    for workers in [1, 2] {
        let handle = EngineBuilder::new().workers(workers).build().into_handle();
        let tainted = project(MSGS_WRITERS[0]);
        let sanitized = project(SANITIZED_WRITER);
        let steps = [
            (&tainted, FileOutcome::Vulnerable),
            (&sanitized, FileOutcome::Verified),
            (&tainted, FileOutcome::Vulnerable),
            (&sanitized, FileOutcome::Verified),
        ];
        for (step, (set, expected)) in steps.into_iter().enumerate() {
            let report = handle.run(set);
            let (verdict, cached) = outcome(&report, "reader.php");
            assert_eq!(verdict, expected, "workers {workers}, batch {step}");
            if step == 1 {
                assert!(
                    !cached,
                    "workers {workers}: the writer edit must re-key the reader"
                );
            }
            // The store-free file keeps its own cache key throughout.
            assert_eq!(outcome(&report, "plain.php").1, step > 0);
        }
        let rerun = handle.run(&sanitized);
        assert_eq!(outcome(&rerun, "reader.php"), (FileOutcome::Verified, true));
    }
}

/// A reader project: a store-free data file, a plain file, a `msgs`
/// reader and writer, and a `$_SESSION` writer. `data.php` carries a
/// comment that [`edited`] changes.
fn reader_project() -> SourceSet {
    let mut set = project(MSGS_WRITERS[0]);
    set.add_file(
        "data.php",
        "<?php // v1\n$rows = array('a', 'b'); echo $rows;",
    );
    set.add_file("session.php", "<?php $_SESSION['nick'] = $_GET['n'];");
    set
}

/// [`reader_project`] after a comment-only edit to `data.php`.
fn edited() -> SourceSet {
    let mut set = reader_project();
    set.add_file(
        "data.php",
        "<?php // v2\n$rows = array('a', 'b'); echo $rows;",
    );
    set
}

/// Every file's summary and, for fresh results, rendered report equal
/// those of a cold run of the same set.
fn assert_matches_cold(report: &EngineReport, set: &SourceSet, context: &str) {
    let cold = EngineBuilder::new().build().run(set);
    assert_eq!(report.files.len(), cold.files.len(), "{context}");
    for (warm, cold) in report.files.iter().zip(&cold.files) {
        assert_eq!(warm.summary, cold.summary, "{context}");
        if warm.report.is_some() {
            assert_eq!(warm.render_text(), cold.render_text(), "{context}");
        }
    }
}

/// Asserts a batch's `store_parts_built`: the parts pass 1 built from
/// source, which are those of the files that read a store, of hits that
/// held none and of misses verified after the fill. At one worker the
/// file order fixes that count at `sequential`. With more, a worker can
/// publish a part before or after the fill reaches it, so the count
/// only lies between `forced` (the readers and the hits without a
/// part) and `ceiling`.
fn assert_parts_built(
    report: &EngineReport,
    workers: usize,
    sequential: usize,
    forced: usize,
    ceiling: usize,
) {
    let built = report.metrics.store_parts_built;
    if workers == 1 {
        assert_eq!(built, sequential);
    } else {
        assert!(
            (forced..=ceiling).contains(&built),
            "workers {workers}: {built} parts built, expected {forced}..={ceiling}"
        );
    }
}

fn misses(report: &EngineReport) -> Vec<&str> {
    report
        .files
        .iter()
        .filter(|f| !f.from_cache)
        .map(|f| f.summary.file.as_str())
        .collect()
}

/// A comment edit to a data file re-keys it and every file whose key
/// folds in the whole set; a warm handle recomputes the store parts of
/// exactly those files and reuses the rest. Pass 1 builds from source
/// only the parts pass 2 did not publish.
#[test]
fn a_comment_edit_rebuilds_only_the_rekeyed_parts() {
    for workers in [1, 2] {
        let handle = EngineBuilder::new().workers(workers).build().into_handle();
        let set = reader_project();
        let cold = handle.run(&set);
        // One worker: `data.php` and `plain.php` publish, and
        // `reader.php` fills the cell with its own part and those of
        // the two files after it.
        assert_parts_built(&cold, workers, 3, 1, set.len());
        assert_eq!(handle.cache().store_parts(), set.len());

        let warm = handle.run(&set);
        assert_eq!(warm.metrics.cache_hits, set.len());
        assert_eq!(warm.metrics.store_parts_built, 0);

        let set = edited();
        let report = handle.run(&set);
        // `reader.php` and `session.php` mention store tokens, so their
        // keys fold in the set hash the edit changed; `plain.php` and
        // `writer.php` keep theirs.
        assert_eq!(
            misses(&report),
            ["data.php", "reader.php", "session.php"],
            "workers {workers}"
        );
        // `data.php` publishes; `reader.php` builds its own part and
        // the one of `session.php`.
        assert_parts_built(&report, workers, 2, 1, 3);
        // Every entry holds a part (the cache may still hold a re-keyed
        // file's entry of the first batch, part and all).
        assert_eq!(handle.cache().store_parts(), handle.cached_files());
        assert_eq!(outcome(&report, "reader.php").0, FileOutcome::Vulnerable);
        assert_matches_cold(&report, &set, &format!("workers {workers}"));
    }
}

/// Parts leave with their entries: under an entry cap the handle never
/// holds more parts than live entries.
#[test]
fn store_parts_never_outnumber_live_entries() {
    for workers in [1, 2] {
        let handle = EngineBuilder::new()
            .workers(workers)
            .cache_max_entries(3)
            .build()
            .into_handle();
        let mut held = 0;
        for round in 0..4 {
            let mut set = if round % 2 == 0 {
                reader_project()
            } else {
                edited()
            };
            set.add_file(format!("extra{round}.php"), "<?php echo 'x';");
            let report = handle.run(&set);
            assert_eq!(outcome(&report, "reader.php").0, FileOutcome::Vulnerable);
            assert!(handle.cached_files() <= 3, "workers {workers}");
            assert!(
                handle.cache().store_parts() <= handle.cached_files(),
                "workers {workers}, round {round}"
            );
            held += handle.cache().store_parts();
        }
        assert!(held > 0, "workers {workers}: no part was ever kept");
    }
}

/// Parts never reach the cache file: every entry keeps exactly the
/// persisted fields, a handle that reloads the file holds no parts and
/// writes it back byte for byte, and its first forced batch computes
/// every part again.
#[test]
fn parts_stay_out_of_the_cache_file() {
    for workers in [1, 2] {
        let dir = std::env::temp_dir().join(format!(
            "webssari-store-parts-{}-{workers}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = EngineBuilder::new()
            .workers(workers)
            .cache_dir(&dir)
            .build();
        let handle = engine.clone().into_handle();
        handle.run(&reader_project());
        handle.run(&edited());
        assert!(handle.cache().store_parts() > 0);
        handle.flush_cache().unwrap();
        let written = std::fs::read_to_string(dir.join(CACHE_FILE_NAME)).unwrap();
        let doc = webssari_engine::json::parse(&written).expect("cache file is JSON");
        let entries = doc.get("entries").and_then(|e| e.as_arr()).unwrap();
        assert!(!entries.is_empty());
        for entry in entries {
            let Value::Obj(fields) = entry else {
                panic!("entry is not an object: {}", entry.to_json());
            };
            let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                names,
                ["file", "content_key", "summary"],
                "workers {workers}"
            );
        }

        let reloaded = engine.into_handle();
        assert_eq!(reloaded.cached_files(), entries.len());
        assert_eq!(reloaded.cache().store_parts(), 0);
        reloaded.flush_cache().unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join(CACHE_FILE_NAME)).unwrap(),
            written,
            "workers {workers}"
        );
        let mut set = reader_project();
        set.add_file(
            "data.php",
            "<?php // v3\n$rows = array('a', 'b'); echo $rows;",
        );
        let report = reloaded.run(&set);
        assert_eq!(misses(&report), ["data.php", "reader.php", "session.php"]);
        // Only `data.php` publishes; the hits `plain.php` and
        // `writer.php` hold no part after the reload, so the fill
        // builds them with `reader.php`'s and `session.php`'s.
        assert_parts_built(&report, workers, 4, 3, set.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The reports `Verifier::verify_project` renders with the summary
/// built up front.
fn eager_project_text(set: &SourceSet) -> String {
    let verifier = Verifier::new();
    let eager = Arc::new(StoreCell::from(verifier.compute_store_summary(set)));
    let report = verifier.with_store_cell(eager).verify_project(set);
    assert!(report.failed_files.is_empty());
    report
        .files
        .iter()
        .map(|f| f.render_text() + "\n")
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Writer/reader sets: the engine renders exactly the eager
    /// project report at 1, 2 and 4 workers.
    #[test]
    fn engine_reports_match_the_eager_summary(
        writer in 0usize..3,
        reader in 0usize..2,
        sql_ops in prop::collection::vec(0u8..6, 0..5),
        store_ops in prop::collection::vec(0u8..5, 0..5),
    ) {
        let mut set = project(MSGS_WRITERS[writer]);
        set.add_file("reader.php", MSGS_READERS[reader]);
        set.add_file("mixed.php", sql_store_php(&sql_ops) + &session_file_php(&store_ops));
        let expected = eager_project_text(&set);
        for workers in [1, 2, 4] {
            let report = EngineBuilder::new().workers(workers).build().run(&set);
            prop_assert!(report.failed_files.is_empty());
            prop_assert_eq!(report.render_text(), expected.clone(), "workers {}", workers);
        }
    }
}
