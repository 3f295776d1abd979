//! Static include resolution.
//!
//! The paper's AST maker "handl[es] external file inclusions along the
//! way" (§4). [`resolve_includes`] takes a [`SourceSet`] of file name →
//! source text, parses the entry file, and splices the parsed bodies of
//! `include`/`require` statements in place, recursively. `*_once`
//! variants are spliced only on first inclusion; cycles through plain
//! `include` are detected and reported.

use std::collections::{BTreeMap, HashSet};

use crate::ast::{Expr, IncludeKind, Program, Stmt, StrPart};
use crate::error::ParseError;
use crate::parser::parse_source;

/// An in-memory set of PHP source files for one project.
///
/// # Examples
///
/// ```
/// use php_front::{resolve_includes, SourceSet};
///
/// let mut set = SourceSet::new();
/// set.add_file("lib.php", "<?php $safe = 1;");
/// set.add_file("index.php", "<?php include 'lib.php'; echo $safe;");
/// let program = resolve_includes(&set, "index.php")?;
/// assert_eq!(program.stmts.len(), 2);
/// # Ok::<(), php_front::IncludeError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct SourceSet {
    files: BTreeMap<String, String>,
}

impl SourceSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        SourceSet::default()
    }

    /// Adds (or replaces) a file.
    pub fn add_file(&mut self, name: impl Into<String>, source: impl Into<String>) {
        self.files.insert(name.into(), source.into());
    }

    /// Looks up a file's source.
    pub fn file(&self, name: &str) -> Option<&str> {
        self.files.get(name).map(String::as_str)
    }

    /// Iterates over `(name, source)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.files.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the set has no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

impl FromIterator<(String, String)> for SourceSet {
    fn from_iter<I: IntoIterator<Item = (String, String)>>(iter: I) -> Self {
        SourceSet {
            files: iter.into_iter().collect(),
        }
    }
}

/// Errors from include resolution.
#[derive(Clone, Debug, PartialEq)]
pub enum IncludeError {
    /// The entry (or an included) file is not in the set.
    MissingFile {
        /// The missing file's name.
        name: String,
        /// The file that included it, if any.
        included_from: Option<String>,
    },
    /// A file (transitively) includes itself via non-`_once` includes.
    IncludeCycle(Vec<String>),
    /// A file failed to parse.
    Parse {
        /// The failing file.
        file: String,
        /// The underlying parse error.
        error: ParseError,
    },
    /// An include path is not a constant string, so it cannot be
    /// resolved statically.
    DynamicIncludePath {
        /// The file containing the dynamic include.
        file: String,
    },
}

impl std::fmt::Display for IncludeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IncludeError::MissingFile {
                name,
                included_from,
            } => match included_from {
                Some(from) => write!(f, "included file {name:?} (from {from:?}) not found"),
                None => write!(f, "entry file {name:?} not found"),
            },
            IncludeError::IncludeCycle(chain) => {
                write!(f, "include cycle: {}", chain.join(" -> "))
            }
            IncludeError::Parse { file, error } => write!(f, "parse error in {file:?}: {error}"),
            IncludeError::DynamicIncludePath { file } => {
                write!(
                    f,
                    "dynamic include path in {file:?} cannot be resolved statically"
                )
            }
        }
    }
}

impl std::error::Error for IncludeError {}

/// Parses `entry` and splices included files' statements in place.
///
/// # Errors
///
/// See [`IncludeError`].
pub fn resolve_includes(set: &SourceSet, entry: &str) -> Result<Program, IncludeError> {
    resolve_includes_recording(set, entry, &mut Vec::new())
}

/// [`resolve_includes`], appending to `looked_up` every file name it
/// looks up in `set`, in lookup order, the entry first: present names
/// and absent ones, and the lookups made before an error. Resolution
/// reads nothing else of `set`, so its result — program or error — is
/// the same for any set whose files under these names are the same
/// (and absent where they were absent).
///
/// ```
/// use php_front::{resolve_includes_recording, SourceSet};
///
/// let mut set = SourceSet::new();
/// set.add_file("index.php", "<?php include 'lib.php'; include 'gone.php';");
/// set.add_file("lib.php", "<?php $x = 1;");
/// set.add_file("other.php", "<?php $y = 2;");
/// let mut looked_up = Vec::new();
/// assert!(resolve_includes_recording(&set, "index.php", &mut looked_up).is_err());
/// assert_eq!(looked_up, ["index.php", "lib.php", "gone.php"]);
/// ```
///
/// # Errors
///
/// See [`IncludeError`].
pub fn resolve_includes_recording(
    set: &SourceSet,
    entry: &str,
    looked_up: &mut Vec<String>,
) -> Result<Program, IncludeError> {
    let mut resolver = Resolver {
        set,
        once_done: HashSet::new(),
        stack: Vec::new(),
        looked_up,
    };
    let stmts = resolver.resolve_file(entry, None)?;
    Ok(Program { stmts })
}

struct Resolver<'a> {
    set: &'a SourceSet,
    once_done: HashSet<String>,
    stack: Vec<String>,
    looked_up: &'a mut Vec<String>,
}

impl Resolver<'_> {
    fn resolve_file(
        &mut self,
        name: &str,
        included_from: Option<&str>,
    ) -> Result<Vec<Stmt>, IncludeError> {
        self.looked_up.push(name.to_owned());
        let source = self
            .set
            .file(name)
            .ok_or_else(|| IncludeError::MissingFile {
                name: name.to_owned(),
                included_from: included_from.map(str::to_owned),
            })?;
        if self.stack.iter().any(|f| f == name) {
            let mut chain = self.stack.clone();
            chain.push(name.to_owned());
            return Err(IncludeError::IncludeCycle(chain));
        }
        let program = parse_source(source).map_err(|error| IncludeError::Parse {
            file: name.to_owned(),
            error,
        })?;
        let mut stmts = program.stmts;
        self.stack.push(name.to_owned());
        let out = self.resolve_stmts(&mut stmts, name);
        self.stack.pop();
        out.map(|()| stmts)
    }

    /// Splices included files into `stmts`, in place and in source
    /// order; bodies without includes are left as they are.
    fn resolve_stmts(&mut self, stmts: &mut Vec<Stmt>, file: &str) -> Result<(), IncludeError> {
        let mut i = 0;
        while i < stmts.len() {
            match &mut stmts[i] {
                Stmt::Include { kind, path, span } => {
                    let target = match const_string(path) {
                        Some(t) => t,
                        None => {
                            return Err(IncludeError::DynamicIncludePath {
                                file: file.to_owned(),
                            })
                        }
                    };
                    let once = matches!(kind, IncludeKind::IncludeOnce | IncludeKind::RequireOnce);
                    // PHP marks a file as included as soon as it starts
                    // executing, so an `_once` include of a file that is
                    // currently being processed is a no-op.
                    if once
                        && (self.once_done.contains(&target)
                            || self.stack.iter().any(|f| f == &target))
                    {
                        stmts[i] = Stmt::Nop(*span);
                        i += 1;
                        continue;
                    }
                    if once {
                        self.once_done.insert(target.clone());
                    }
                    // The included statements are resolved already.
                    let included = self.resolve_file(&target, Some(file))?;
                    let n = included.len();
                    stmts.splice(i..=i, included);
                    i += n;
                    continue;
                }
                Stmt::If {
                    then_branch,
                    elseifs,
                    else_branch,
                    ..
                } => {
                    self.resolve_stmts(then_branch, file)?;
                    for (_, b) in elseifs {
                        self.resolve_stmts(b, file)?;
                    }
                    if let Some(b) = else_branch {
                        self.resolve_stmts(b, file)?;
                    }
                }
                Stmt::While { body, .. }
                | Stmt::DoWhile { body, .. }
                | Stmt::For { body, .. }
                | Stmt::Foreach { body, .. }
                | Stmt::FuncDecl { body, .. }
                | Stmt::Block(body) => self.resolve_stmts(body, file)?,
                Stmt::Switch { cases, .. } => {
                    for (_, b) in cases {
                        self.resolve_stmts(b, file)?;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        Ok(())
    }
}

/// Extracts the constant value of a pure-literal string expression.
fn const_string(e: &Expr) -> Option<String> {
    match e {
        Expr::StringLit(parts) => {
            let mut s = String::new();
            for p in parts {
                match p {
                    StrPart::Lit(t) => s.push_str(t),
                    _ => return None,
                }
            }
            Some(s)
        }
        Expr::Binary {
            op: crate::ast::BinOp::Concat,
            left,
            right,
        } => Some(format!("{}{}", const_string(left)?, const_string(right)?)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(files: &[(&str, &str)]) -> SourceSet {
        files
            .iter()
            .map(|(n, s)| (n.to_string(), s.to_string()))
            .collect()
    }

    #[test]
    fn splices_simple_include() {
        let s = set(&[
            ("a.php", "<?php include 'b.php'; echo $x;"),
            ("b.php", "<?php $x = 1;"),
        ]);
        let p = resolve_includes(&s, "a.php").unwrap();
        assert_eq!(p.stmts.len(), 2);
        assert!(matches!(p.stmts[0], Stmt::Expr(..)));
        assert!(matches!(p.stmts[1], Stmt::Echo(..)));
    }

    #[test]
    fn include_inside_if_branch() {
        let s = set(&[
            ("a.php", "<?php if ($c) { include 'b.php'; }"),
            ("b.php", "<?php echo 1;"),
        ]);
        let p = resolve_includes(&s, "a.php").unwrap();
        match &p.stmts[0] {
            Stmt::If { then_branch, .. } => {
                assert!(matches!(then_branch[0], Stmt::Echo(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn once_is_included_once() {
        let s = set(&[
            ("a.php", "<?php include_once 'b.php'; include_once 'b.php';"),
            ("b.php", "<?php $x = 1;"),
        ]);
        let p = resolve_includes(&s, "a.php").unwrap();
        let assigns = p
            .stmts
            .iter()
            .filter(|s| matches!(s, Stmt::Expr(Expr::Assign { .. }, _)))
            .count();
        assert_eq!(assigns, 1);
    }

    #[test]
    fn plain_include_repeats() {
        let s = set(&[
            ("a.php", "<?php include 'b.php'; include 'b.php';"),
            ("b.php", "<?php $x = 1;"),
        ]);
        let p = resolve_includes(&s, "a.php").unwrap();
        assert_eq!(p.stmts.len(), 2);
    }

    #[test]
    fn cycle_is_detected() {
        let s = set(&[
            ("a.php", "<?php include 'b.php';"),
            ("b.php", "<?php include 'a.php';"),
        ]);
        let err = resolve_includes(&s, "a.php").unwrap_err();
        match err {
            IncludeError::IncludeCycle(chain) => {
                assert_eq!(chain, vec!["a.php", "b.php", "a.php"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn once_self_include_is_allowed() {
        let s = set(&[("a.php", "<?php include_once 'a.php'; $x = 1;")]);
        // `include_once` of the file currently executing is a no-op, as
        // in PHP, so this must resolve rather than report a cycle.
        let p = resolve_includes(&s, "a.php").unwrap();
        assert!(matches!(p.stmts[0], Stmt::Nop(_)));
        assert_eq!(p.stmts.len(), 2);
    }

    #[test]
    fn missing_file_reports_includer() {
        let s = set(&[("a.php", "<?php include 'nope.php';")]);
        let err = resolve_includes(&s, "a.php").unwrap_err();
        match err {
            IncludeError::MissingFile {
                name,
                included_from,
            } => {
                assert_eq!(name, "nope.php");
                assert_eq!(included_from.as_deref(), Some("a.php"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn missing_entry_file() {
        let err = resolve_includes(&SourceSet::new(), "a.php").unwrap_err();
        assert!(matches!(
            err,
            IncludeError::MissingFile {
                included_from: None,
                ..
            }
        ));
    }

    #[test]
    fn parse_error_names_the_file() {
        let s = set(&[
            ("a.php", "<?php include 'bad.php';"),
            ("bad.php", "<?php if ("),
        ]);
        let err = resolve_includes(&s, "a.php").unwrap_err();
        match err {
            IncludeError::Parse { file, .. } => assert_eq!(file, "bad.php"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dynamic_include_path_is_rejected() {
        let s = set(&[("a.php", "<?php include $page;")]);
        let err = resolve_includes(&s, "a.php").unwrap_err();
        assert!(matches!(err, IncludeError::DynamicIncludePath { .. }));
    }

    #[test]
    fn concatenated_constant_path_resolves() {
        let s = set(&[
            ("a.php", "<?php include 'lib' . '.php';"),
            ("lib.php", "<?php $x = 1;"),
        ]);
        let p = resolve_includes(&s, "a.php").unwrap();
        assert_eq!(p.stmts.len(), 1);
    }

    #[test]
    fn errors_display_nonempty() {
        let errs = [
            IncludeError::MissingFile {
                name: "x".into(),
                included_from: None,
            },
            IncludeError::IncludeCycle(vec!["a".into(), "a".into()]),
            IncludeError::DynamicIncludePath { file: "f".into() },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn recording_lists_every_lookup_up_to_the_error() {
        let record = |files: &[(&str, &str)], entry: &str| {
            let mut looked_up = Vec::new();
            let ok = resolve_includes_recording(&set(files), entry, &mut looked_up).is_ok();
            (ok, looked_up)
        };
        // An `_once` repeat reads nothing; a plain repeat reads again.
        let (ok, names) = record(
            &[
                ("a.php", "<?php include_once 'b.php'; include_once 'b.php'; include 'c.php'; include 'c.php';"),
                ("b.php", "<?php $x = 1;"),
                ("c.php", "<?php $y = 1;"),
            ],
            "a.php",
        );
        assert!(ok);
        assert_eq!(names, ["a.php", "b.php", "c.php", "c.php"]);
        // A cycle, a dynamic path and an absent file each stop the walk
        // after the lookups that led to them.
        let (ok, names) = record(
            &[
                ("a.php", "<?php include 'b.php';"),
                ("b.php", "<?php include 'a.php';"),
            ],
            "a.php",
        );
        assert!(!ok);
        assert_eq!(names, ["a.php", "b.php", "a.php"]);
        let (ok, names) = record(
            &[
                (
                    "a.php",
                    "<?php include 'b.php'; include $p; include 'c.php';",
                ),
                ("b.php", "<?php"),
            ],
            "a.php",
        );
        assert!(!ok);
        assert_eq!(names, ["a.php", "b.php"]);
        let (ok, names) = record(&[("a.php", "<?php include 'nope.php';")], "a.php");
        assert!(!ok);
        assert_eq!(names, ["a.php", "nope.php"]);
    }

    #[test]
    fn source_set_api() {
        let mut s = SourceSet::new();
        assert!(s.is_empty());
        s.add_file("x.php", "<?php");
        assert_eq!(s.len(), 1);
        assert_eq!(s.file("x.php"), Some("<?php"));
        assert_eq!(s.iter().count(), 1);
    }
}
