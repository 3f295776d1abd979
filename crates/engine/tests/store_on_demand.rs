//! The engine builds each batch's cross-request store summary on
//! demand. These tests pin that this is invisible: verdicts still
//! follow edits to the writers a reader depends on, and reports stay
//! byte-identical to verifying the project against the eagerly built
//! summary, for any worker count.

use std::sync::{Arc, OnceLock};

use php_front::SourceSet;
use proptest::prelude::*;
use webssari_core::{FileOutcome, Verifier};
use webssari_engine::{EngineBuilder, EngineReport};

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
/// back may be served from the cache: a shard can still hold the entry
/// of the first batch, under the same key and with the same verdict.)
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

/// The reports `Verifier::verify_project` renders with the summary
/// built up front.
fn eager_project_text(set: &SourceSet) -> String {
    let verifier = Verifier::new();
    let eager = Arc::new(OnceLock::from(verifier.compute_store_summary(set)));
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
