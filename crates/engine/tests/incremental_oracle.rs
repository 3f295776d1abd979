//! The incremental cache's oracle: a warm handle that has seen every
//! earlier version of a project must report exactly what a cache-free
//! engine reports for the current one.
//!
//! Each case applies a random sequence of edits to a small project —
//! edit, add, delete and rename files, retarget an include (also to a
//! missing name, or into a cycle), change the level a store writer
//! writes, make a comment-only edit to a writer — and after every edit
//! compares, file by file, the summaries and the rendered text of the
//! fresh results with a cold run: at one and two workers, and with a
//! one-entry cap that keeps evicting.

use php_front::SourceSet;
use proptest::prelude::*;
use webssari_engine::{EngineBuilder, EngineHandle, EngineReport};

/// Names a project's files take; include targets come from the same
/// pool, so some point at files that do not exist.
const NAMES: [&str; 6] = ["a.php", "b.php", "c.php", "d.php", "e.php", "f.php"];

/// One file's source, as a shape and its parameters.
#[derive(Clone, Debug)]
enum Body {
    /// A store-free page: a tainted echo, a sanitized one, or a literal.
    Plain(u8),
    /// Sets `$v` from a request parameter or a literal.
    Lib { tainted: bool },
    /// Includes `target` (`include_once` when `once`), then echoes `$v`.
    Page { target: usize, once: bool },
    /// Writes table `t<table>` (or `$_SESSION` when `session`), tainted
    /// or sanitized, with a trailing comment numbered `comment`.
    Writer {
        table: u8,
        session: bool,
        tainted: bool,
        comment: u32,
    },
    /// Reads table `t<table>` (or `$_SESSION`) and echoes the value.
    Reader { table: u8, session: bool },
    /// A parse error.
    Broken,
}

impl Body {
    fn render(&self) -> String {
        match self {
            Body::Plain(0) => "<?php echo $_GET['p'];".to_owned(),
            Body::Plain(1) => "<?php echo htmlspecialchars($_GET['p']);".to_owned(),
            Body::Plain(_) => "<?php $a = 'x'; echo $a;".to_owned(),
            Body::Lib { tainted: true } => "<?php $v = $_GET['v'];".to_owned(),
            Body::Lib { tainted: false } => "<?php $v = 'safe';".to_owned(),
            Body::Page { target, once } => {
                let kind = if *once { "include_once" } else { "include" };
                format!("<?php {kind} '{}'; echo $v;", NAMES[*target])
            }
            Body::Writer {
                table,
                session,
                tainted,
                comment,
            } => {
                let value = if *tainted {
                    "$_POST['w']"
                } else {
                    "htmlspecialchars($_POST['w'])"
                };
                let write = if *session {
                    format!("$_SESSION['s{table}'] = $w;")
                } else {
                    format!("mysql_query(\"INSERT INTO t{table} (c) VALUES ('$w')\");")
                };
                format!("<?php $w = {value}; {write} // rev {comment}")
            }
            Body::Reader {
                table,
                session: true,
            } => format!("<?php $n = $_SESSION['s{table}']; echo $n;"),
            Body::Reader {
                table,
                session: false,
            } => format!(
                "<?php $h = mysql_query('SELECT c FROM t{table}'); \
                 $r = mysql_fetch_array($h); echo $r;"
            ),
            Body::Broken => "<?php if (".to_owned(),
        }
    }
}

fn body() -> impl Strategy<Value = Body> {
    prop_oneof![
        1 => (0u8..3).prop_map(Body::Plain),
        1 => any::<bool>().prop_map(|tainted| Body::Lib { tainted }),
        2 => (0..NAMES.len(), any::<bool>()).prop_map(|(target, once)| Body::Page { target, once }),
        2 => (0u8..2, any::<bool>(), any::<bool>()).prop_map(|(table, session, tainted)| {
            Body::Writer { table, session, tainted, comment: 0 }
        }),
        2 => (0u8..2, any::<bool>()).prop_map(|(table, session)| Body::Reader { table, session }),
        1 => Just(Body::Broken),
    ]
}

/// One edit. File indices are taken modulo the project's size when
/// the edit is applied.
#[derive(Clone, Debug)]
enum Edit {
    Replace(usize, Body),
    Add(usize, Body),
    Delete(usize),
    Rename(usize, usize),
    Retarget(usize, usize),
    FlipWrite(usize),
    Comment(usize),
}

fn edit() -> impl Strategy<Value = Edit> {
    let file = 0usize..8;
    let name = 0..NAMES.len();
    prop_oneof![
        1 => (file.clone(), body()).prop_map(|(i, b)| Edit::Replace(i, b)),
        1 => (name.clone(), body()).prop_map(|(n, b)| Edit::Add(n, b)),
        1 => file.clone().prop_map(Edit::Delete),
        1 => (file.clone(), name.clone()).prop_map(|(i, n)| Edit::Rename(i, n)),
        2 => (file.clone(), name).prop_map(|(i, n)| Edit::Retarget(i, n)),
        2 => file.clone().prop_map(Edit::FlipWrite),
        2 => file.prop_map(Edit::Comment),
    ]
}

/// A project: file name index → body, at most one file per name.
type Project = Vec<(usize, Body)>;

fn project() -> impl Strategy<Value = Project> {
    prop::collection::vec((0..NAMES.len(), body()), 1..6).prop_map(|files| {
        let mut project: Project = Vec::new();
        for (name, body) in files {
            if !project.iter().any(|(n, _)| *n == name) {
                project.push((name, body));
            }
        }
        project
    })
}

/// Applies `edit`; an edit that does not fit the project (retargeting
/// a file that includes nothing, renaming onto a taken name) changes
/// nothing.
fn apply(project: &mut Project, edit: &Edit) {
    let len = project.len();
    let at = |i: usize| if len == 0 { None } else { Some(i % len) };
    match edit {
        Edit::Replace(i, body) => {
            if let Some(i) = at(*i) {
                project[i].1 = body.clone();
            }
        }
        Edit::Add(name, body) => {
            if !project.iter().any(|(n, _)| n == name) {
                project.push((*name, body.clone()));
            }
        }
        Edit::Delete(i) => {
            if let Some(i) = at(*i) {
                project.remove(i);
            }
        }
        Edit::Rename(i, name) => {
            if let Some(i) = at(*i) {
                if !project.iter().any(|(n, _)| n == name) {
                    project[i].0 = *name;
                }
            }
        }
        Edit::Retarget(i, name) => {
            if let Some((_, Body::Page { target, .. })) = at(*i).map(|i| &mut project[i]) {
                *target = *name;
            }
        }
        Edit::FlipWrite(i) => {
            if let Some((_, Body::Writer { tainted, .. })) = at(*i).map(|i| &mut project[i]) {
                *tainted = !*tainted;
            }
        }
        Edit::Comment(i) => {
            if let Some((_, Body::Writer { comment, .. })) = at(*i).map(|i| &mut project[i]) {
                *comment += 1;
            }
        }
    }
}

fn sources(project: &Project) -> SourceSet {
    project
        .iter()
        .map(|(name, body)| (NAMES[*name].to_owned(), body.render()))
        .collect()
}

/// Asserts that `warm` reports what `cold`, a cache-free run of the same
/// set, reports: the same files, failures and summaries, and the same
/// text for every fresh result.
fn assert_same(warm: &EngineReport, cold: &EngineReport, context: &str) -> Result<(), String> {
    prop_assert_eq!(
        &warm.failed_files,
        &cold.failed_files,
        "{}: failed files {:?} != {:?}",
        context,
        warm.failed_files,
        cold.failed_files
    );
    prop_assert_eq!(
        warm.files.len(),
        cold.files.len(),
        "{}: file count",
        context
    );
    for (w, c) in warm.files.iter().zip(&cold.files) {
        prop_assert_eq!(
            &w.summary,
            &c.summary,
            "{}: {:?} != {:?}",
            context,
            w.summary,
            c.summary
        );
        if !w.from_cache {
            prop_assert_eq!(
                w.render_text(),
                c.render_text(),
                "{}: text of {}",
                context,
                c.summary.file
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn warm_reports_equal_cache_free_reports_under_random_edits(
        start in project(),
        edits in prop::collection::vec(edit(), 1..8),
    ) {
        let handles: [(&str, EngineHandle); 3] = [
            ("1 worker", EngineBuilder::new().workers(1).build().into_handle()),
            ("2 workers", EngineBuilder::new().workers(2).build().into_handle()),
            (
                "cap 1",
                EngineBuilder::new()
                    .workers(2)
                    .cache_max_entries(1)
                    .build()
                    .into_handle(),
            ),
        ];
        let mut project = start;
        for step in 0..=edits.len() {
            if step > 0 {
                apply(&mut project, &edits[step - 1]);
            }
            let set = sources(&project);
            let cold = EngineBuilder::new().build().run(&set);
            for (name, handle) in &handles {
                let warm = handle.run(&set);
                assert_same(&warm, &cold, &format!("{name}, step {step}: {project:?}"))?;
            }
        }
    }
}

/// The shapes the random edits draw from, edited one at a time on a
/// warm handle: each edit re-verifies exactly the files that read what
/// it changed.
#[test]
fn each_edit_reverifies_exactly_its_readers() {
    let writer = |tainted, comment| Body::Writer {
        table: 0,
        session: false,
        tainted,
        comment,
    };
    let base: Project = vec![
        (0, Body::Lib { tainted: false }),
        (
            1,
            Body::Page {
                target: 0,
                once: false,
            },
        ),
        (2, writer(true, 0)),
        (
            3,
            Body::Reader {
                table: 0,
                session: false,
            },
        ),
        (4, Body::Plain(0)),
    ];
    let steps: [(Edit, &[&str]); 5] = [
        // A comment changes no write level: the reader's hit stands.
        (Edit::Comment(2), &["c.php"]),
        // A new level changes the summary the reader read.
        (Edit::FlipWrite(2), &["c.php", "d.php"]),
        // The page read the library; nobody read the plain page.
        (
            Edit::Replace(0, Body::Lib { tainted: true }),
            &["a.php", "b.php"],
        ),
        (Edit::Retarget(1, 5), &["b.php"]),
        // Adding the file the page looked up and found absent.
        (
            Edit::Add(5, Body::Lib { tainted: false }),
            &["b.php", "f.php"],
        ),
    ];
    for workers in [1, 2] {
        let handle = EngineBuilder::new().workers(workers).build().into_handle();
        let mut project = base.clone();
        handle.run(&sources(&project));
        for (edit, expected) in &steps {
            apply(&mut project, edit);
            let set = sources(&project);
            let report = handle.run(&set);
            let misses: Vec<&str> = report
                .files
                .iter()
                .filter(|f| !f.from_cache)
                .map(|f| f.summary.file.as_str())
                .collect();
            assert_eq!(&misses, expected, "workers {workers}, {edit:?}");
            let cold = EngineBuilder::new().build().run(&set);
            assert_same(&report, &cold, &format!("workers {workers}, {edit:?}")).unwrap();
        }
    }
}

/// A store part is kept only beside an entry that holds for the batch
/// that computed it. Here the page's old entry outlives a batch whose
/// broken include made the page a parse error; that batch's part for
/// the page (empty) must not join the old entry, or the batch that
/// restores the include would seed the summary with it and read the
/// table as clean.
#[test]
fn a_part_is_kept_only_beside_an_entry_that_holds() {
    let project = |include: &str| {
        let mut set = SourceSet::new();
        set.add_file("a.php", "<?php $w = $_GET['x']; include 'b.php';");
        set.add_file("b.php", include);
        set.add_file(
            "c.php",
            "<?php $h = mysql_query('SELECT c FROM t0'); $r = mysql_fetch_array($h); echo $r;",
        );
        set
    };
    let writes = project("<?php mysql_query(\"INSERT INTO t0 (c) VALUES ('$w')\");");
    let broken = project("<?php if (");
    for workers in [1, 2] {
        let handle = EngineBuilder::new().workers(workers).build().into_handle();
        for (step, set) in [&writes, &broken, &writes].into_iter().enumerate() {
            let warm = handle.run(set);
            let cold = EngineBuilder::new().build().run(set);
            assert_same(&warm, &cold, &format!("workers {workers}, step {step}")).unwrap();
        }
    }
}
