//! Exactness of the per-file store parts: pass 1's summary, built as
//! the file-name-order merge of [`Verifier::store_part`]s, equals the
//! original sequential fold over the whole source set (kept below as
//! the oracle). A cell seeded with any subset of precomputed parts, or
//! handed parts that verifying files published, fills to that same
//! summary, computing exactly the missing parts.

use std::sync::Arc;

use php_front::{parse_source, resolve_includes, IncludeError, SourceSet};
use proptest::prelude::*;
use taint_lattice::{Lattice, TwoPoint};
use webssari_core::{ProjectReport, StoreCell, StoreSummary, Verifier, VerifierBuilder};
use webssari_ir::{abstract_interpret_with, filter_program, FilterOptions, Prelude};

#[path = "../../ir/tests/support/store_php.rs"]
mod store_php;
use store_php::{session_file_php, sql_store_php, MSGS_READERS, MSGS_WRITERS};

const LOOP_UNROLL: usize = 2;

/// Pass 1 as one sequential fold over every file, recording each write
/// straight into the project summary — the implementation the per-file
/// parts replaced.
fn oracle(verifier: &Verifier, sources: &SourceSet, lattice: &impl Lattice) -> StoreSummary {
    let mut summary = StoreSummary::new();
    for (name, src) in sources.iter() {
        let program = match resolve_includes(sources, name) {
            Ok(p) => p,
            Err(
                IncludeError::DynamicIncludePath { .. }
                | IncludeError::MissingFile { .. }
                | IncludeError::IncludeCycle(_),
            ) => match parse_source(src) {
                Ok(p) => p,
                Err(_) => continue,
            },
            Err(_) => continue,
        };
        let options = FilterOptions::default();
        let f = filter_program(&program, src, name, verifier.prelude(), &options);
        let ai = abstract_interpret_with(&f, lattice, LOOP_UNROLL);
        let state = typestate::final_state(&ai, lattice);
        for w in &f.store_writes {
            summary.record(&w.key, state[w.var.index()], &w.site.to_string(), lattice);
        }
    }
    summary
}

/// The oracle for one policy's lattice.
type Oracle = fn(&Verifier, &SourceSet) -> StoreSummary;

/// A verifier per policy, with the oracle for the lattice it runs.
fn policies() -> [(Verifier, Oracle); 2] {
    let build = |b: VerifierBuilder| b.loop_unroll(LOOP_UNROLL).build();
    [
        (build(VerifierBuilder::new()), |v, s| {
            check_merge(v, s, &TwoPoint::new())
        }),
        (build(VerifierBuilder::new().multiclass()), |v, s| {
            check_merge(v, s, &Prelude::multiclass().0)
        }),
    ]
}

/// The oracle's summary of `sources`, after asserting that the
/// file-name-order merge of the parts equals it.
fn check_merge(verifier: &Verifier, sources: &SourceSet, lattice: &impl Lattice) -> StoreSummary {
    let expected = oracle(verifier, sources, lattice);
    let mut merged = StoreSummary::new();
    for (name, _) in sources.iter() {
        merged.merge(&verifier.store_part(sources, name), lattice);
    }
    assert_eq!(merged, expected);
    expected
}

/// One generated file. Shapes: a mixed SQL/session/file program, a
/// `msgs` writer, a program including the shared writer `lib.php` (so
/// its writes recur in two parts), an unparsable file, writes
/// under the wildcard key (opaque query text, dynamic file path), and
/// an include of an unparsable file.
fn file_src(shape: u8, sql_ops: &[u8], store_ops: &[u8]) -> String {
    match shape % 6 {
        0 => sql_store_php(sql_ops) + &session_file_php(store_ops),
        1 => MSGS_WRITERS[sql_ops.len() % MSGS_WRITERS.len()].to_owned(),
        2 => "<?php include 'lib.php'; ".to_owned() + &sql_store_php(sql_ops)[6..],
        3 => "<?php if (".to_owned(),
        4 => {
            "<?php mysql_query($_GET['q']); \
              file_put_contents($_GET['p'], $_POST['d']); "
                .to_owned()
                + &session_file_php(store_ops)
        }
        _ => "<?php include 'broken.php'; $_SESSION['k'] = $_GET['k'];".to_owned(),
    }
}

type FileSpec = (u8, Vec<u8>, Vec<u8>);

/// The generated files, the shared `lib.php` and `broken.php`, and a
/// reader that makes every project verification fill the cell.
fn source_set(files: &[FileSpec]) -> SourceSet {
    let mut set = SourceSet::new();
    set.add_file(
        "lib.php",
        "<?php $v = $_POST['v']; mysql_query(\"INSERT INTO msgs (c) VALUES ('$v')\"); \
         $_SESSION['nick'] = $v;",
    );
    set.add_file("broken.php", "<?php if (");
    set.add_file("reader.php", MSGS_READERS[0]);
    for (i, (shape, sql_ops, store_ops)) in files.iter().enumerate() {
        set.add_file(format!("f{i}.php"), file_src(*shape, sql_ops, store_ops));
    }
    set
}

fn file_spec() -> impl Strategy<Value = FileSpec> {
    (
        0u8..6,
        prop::collection::vec(0u8..6, 0..5),
        prop::collection::vec(0u8..5, 0..5),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The name-order merge of the parts, and `compute_store_summary`,
    /// equal the sequential fold for both policies.
    #[test]
    fn merged_parts_equal_the_sequential_fold(
        files in prop::collection::vec(file_spec(), 0..6),
    ) {
        let set = source_set(&files);
        for (verifier, expected) in policies() {
            let expected = expected(&verifier, &set);
            prop_assert_eq!(&verifier.compute_store_summary(&set), &expected);
        }
    }

    /// A cell seeded with any subset of precomputed parts fills to the
    /// sequential fold, computes exactly the parts it was not handed,
    /// and the project reports equal those under the eager summary.
    #[test]
    fn a_seeded_cell_fills_to_the_same_summary(
        files in prop::collection::vec(file_spec(), 0..5),
        mask in any::<u64>(),
    ) {
        let set = source_set(&files);
        for (verifier, expected) in policies() {
            let expected = expected(&verifier, &set);
            let names: Vec<&str> = set.iter().map(|(name, _)| name).collect();
            let seeded: Vec<&str> = names
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, name)| *name)
                .collect();
            let cell = Arc::new(StoreCell::seeded(seeded.iter().map(|name| {
                ((*name).to_owned(), Arc::new(verifier.store_part(&set, name)))
            })));
            let project = verifier.with_store_cell(Arc::clone(&cell)).verify_project(&set);
            prop_assert_eq!(cell.get(), Some(&expected));
            let parts = cell.built_parts();
            let built: Vec<&str> = parts.iter().map(|(n, _)| n.as_str()).collect();
            let missing: Vec<&str> =
                names.iter().copied().filter(|n| !seeded.contains(n)).collect();
            prop_assert_eq!(built, missing);
            for (name, part) in &parts {
                prop_assert_eq!(&**part, &verifier.store_part(&set, name));
            }
            check_eager_reports(&verifier, &set, expected, &project)?;
        }
    }

    /// Verifying any subset of files before the cell is forced
    /// publishes the parts of the files that did not force it, and the
    /// fill builds exactly the rest: every part the cell then holds
    /// equals [`Verifier::store_part`], the summary is the sequential
    /// fold, and the project reports equal those under the eager
    /// summary.
    #[test]
    fn published_parts_fill_to_the_same_summary(
        files in prop::collection::vec(file_spec(), 0..5),
        mask in any::<u64>(),
    ) {
        let set = source_set(&files);
        for (verifier, expected) in policies() {
            let expected = expected(&verifier, &set);
            let names: Vec<&str> = set.iter().map(|(name, _)| name).collect();
            let cell: Arc<StoreCell> = Arc::default();
            let batch = verifier.with_store_cell(Arc::clone(&cell));
            let mut published = Vec::new();
            for (i, name) in names.iter().enumerate() {
                if mask >> i & 1 == 0 {
                    continue;
                }
                let verified = batch.verify_file(&set, name).is_ok();
                if cell.get().is_some() {
                    break; // `name` forced the cell
                }
                if verified {
                    published.push(*name);
                }
            }
            if cell.get().is_none() {
                prop_assert!(cell.built_parts().is_empty());
                prop_assert_eq!(cell.parts_built_from_source(), 0);
                // `verify_project` below publishes the parts of the
                // files it verifies before the first one that forces
                // the cell.
                for name in &names {
                    let (forces, verifies) = verify_alone(&verifier, &set, name);
                    if forces {
                        break;
                    }
                    if verifies && !published.contains(name) {
                        published.push(name);
                    }
                }
            }

            let project = batch.verify_project(&set);
            prop_assert_eq!(cell.get(), Some(&expected));
            prop_assert_eq!(cell.parts_built_from_source(), names.len() - published.len());
            let parts = cell.built_parts();
            let built: Vec<&str> = parts.iter().map(|(n, _)| n.as_str()).collect();
            prop_assert_eq!(&built, &names);
            for (name, part) in &parts {
                prop_assert_eq!(&**part, &verifier.store_part(&set, name));
            }
            check_eager_reports(&verifier, &set, expected, &project)?;
        }
    }
}

/// Whether verifying `name` in a batch of its own forces the batch's
/// cell, and whether it verifies.
fn verify_alone(verifier: &Verifier, set: &SourceSet, name: &str) -> (bool, bool) {
    let cell: Arc<StoreCell> = Arc::default();
    let verifies = verifier
        .with_store_cell(Arc::clone(&cell))
        .verify_file(set, name)
        .is_ok();
    (cell.get().is_some(), verifies)
}

/// `project`'s reports equal those `verify_project` renders with the
/// `expected` summary built up front.
fn check_eager_reports(
    verifier: &Verifier,
    set: &SourceSet,
    expected: StoreSummary,
    project: &ProjectReport,
) -> Result<(), String> {
    let eager = verifier
        .with_store_cell(Arc::new(StoreCell::from(expected)))
        .verify_project(set);
    let render =
        |p: &ProjectReport| -> String { p.files.iter().map(|f| f.render_text()).collect() };
    prop_assert_eq!(render(project), render(&eager));
    prop_assert_eq!(&project.failed_files, &eager.failed_files);
    Ok(())
}

/// A file that writes what it read from a store: under the filled
/// summary its write is clean, while its part, built against an empty
/// summary, records it at `⊤`. So pass 2 must not publish it, even
/// when the cell was filled up front.
#[test]
fn a_file_that_reads_a_store_never_publishes_its_part() {
    let mut set = SourceSet::new();
    set.add_file(
        "clean.php",
        "<?php $v = htmlspecialchars($_POST['v']); \
         mysql_query(\"INSERT INTO msgs (c) VALUES ('$v')\");",
    );
    set.add_file(
        "relay.php",
        "<?php $h = mysql_query('SELECT c FROM msgs'); $r = mysql_fetch_array($h); \
         $_SESSION['r'] = $r;",
    );
    let verifier = Verifier::new();
    let summary = verifier.compute_store_summary(&set);
    assert!(!verifier.store_part(&set, "relay.php").is_empty());

    let cell = Arc::new(StoreCell::from(summary));
    verifier
        .with_store_cell(Arc::clone(&cell))
        .verify_project(&set);
    let parts = cell.built_parts();
    let names: Vec<&str> = parts.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["clean.php"]);
    assert_eq!(*parts[0].1, verifier.store_part(&set, "clean.php"));
}

/// The generators reach every case the merge must handle: a site
/// written twice (generated programs are one line long), writes that
/// reach a part through an include, wildcard writes, and files that
/// contribute nothing because they (or a file they include) fail to
/// parse.
#[test]
fn the_generated_sets_cover_each_merge_case() {
    let verifier = Verifier::new();
    let files = [
        (0, vec![0, 1, 2, 0], vec![]),
        (2, vec![], vec![]),
        (3, vec![], vec![]),
        (4, vec![], vec![]),
        (5, vec![], vec![]),
    ];
    let set = source_set(&files);
    let part = |name: &str| verifier.store_part(&set, name);
    // `INSERT INTO t0` twice on line 1: one site.
    assert_eq!(part("f0.php").entry("t0").unwrap().sites, ["f0.php:1"]);
    assert!(
        part("f1.php").entry("msgs").is_some(),
        "write through an include"
    );
    assert!(part("f2.php").is_empty(), "unparsable file");
    assert!(part("f3.php").entry("*").is_some(), "wildcard write");
    assert!(part("f4.php").is_empty(), "include of an unparsable file");
    assert!(part("broken.php").is_empty());
}
