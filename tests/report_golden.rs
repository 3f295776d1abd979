//! Pins the bytes of every rendered report: the JSON that `/verify`,
//! `/batch` and the Figure 10 benchmark write for each file
//! (`report_to_value(..).to_json()`), the text `webssari verify` prints
//! (`EngineReport::render_text`), and one HTML page (`render_html`).
//!
//! Each row of `tests/fixtures/report_golden.txt` is
//! `name<TAB><bytes> <fnv64>`: the length and FNV-1a hash of one
//! rendering. Figure 10 rows come in corpus order, one per file in
//! report order. A rendering change must reproduce the table byte for
//! byte; after an intended change to the report format, rewrite it with
//!
//! ```text
//! cargo test --test report_golden -- --ignored regenerate
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use webssari::core::json::report_to_value;
use webssari::corpus_gen::Corpus;
use webssari::php::SourceSet;
use webssari::{render_html, EngineBuilder, Verifier};

const TABLE: &str = "tests/fixtures/report_golden.txt";

/// `<bytes> <fnv64>` of one rendering.
fn digest(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{} {hash:016x}", text.len())
}

/// The `.php` files under `dir`, keyed by their path relative to it,
/// as `webssari verify DIR` collects them.
fn load(dir: &str) -> SourceSet {
    fn walk(root: &Path, dir: &Path, set: &mut SourceSet) {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
            .expect("fixture directory exists")
            .map(|e| e.expect("readable entry").path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                walk(root, &path, set);
            } else if path.extension().is_some_and(|x| x == "php") {
                let rel = path.strip_prefix(root).expect("under the root");
                let text = std::fs::read_to_string(&path).expect("fixture is UTF-8");
                set.add_file(rel.to_string_lossy().into_owned(), text);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut set = SourceSet::new();
    walk(&root, &root, &mut set);
    set
}

fn render_table() -> String {
    let mut out = String::new();
    let verifier = Verifier::new();
    for project in Corpus::figure10().projects {
        let report = verifier.verify_project(&project.sources);
        for file in &report.files {
            let json = report_to_value(file).to_json();
            let _ = writeln!(
                out,
                "fig10/{}/{}\t{}",
                project.name,
                file.file,
                digest(&json)
            );
        }
    }
    for dir in ["examples/php", "tests/fixtures/guestbook"] {
        let text = EngineBuilder::new().build().run(&load(dir)).render_text();
        let _ = writeln!(out, "text/{dir}\t{}", digest(&text));
    }
    let guestbook = load("tests/fixtures/guestbook");
    let html = render_html(&verifier.verify_project(&guestbook), &guestbook);
    let _ = writeln!(out, "html/tests/fixtures/guestbook\t{}", digest(&html));
    out
}

#[test]
fn rendered_reports_match_the_pinned_table() {
    let expected = std::fs::read_to_string(TABLE).expect("golden table exists");
    let actual = render_table();
    let mut diffs = 0;
    for (e, a) in expected.lines().zip(actual.lines()) {
        if e != a {
            eprintln!("expected: {e}\n  actual: {a}");
            diffs += 1;
        }
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "row count differs"
    );
    assert_eq!(diffs, 0, "{diffs} row(s) differ from {TABLE}");
}

/// Rewrites the table from the current renderers (run on purpose only).
#[test]
#[ignore]
fn regenerate() {
    std::fs::write(TABLE, render_table()).expect("table is writable");
}
