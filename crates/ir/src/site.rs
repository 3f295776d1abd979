use std::fmt;
use std::sync::Arc;

use php_front::Span;

/// Where an IR command came from in the original PHP source.
///
/// Sites survive filtering, abstract interpretation, renaming, and
/// constraint generation, so counterexample traces and runtime-guard
/// insertions can point back at concrete `file:line` locations. The
/// file name and snippet are shared, so copying a site along the
/// pipeline costs two reference-count increments.
///
/// # Examples
///
/// ```
/// use php_front::Span;
/// use webssari_ir::Site;
///
/// let s = Site::new("index.php", 12, Span::new(100, 130), "$q = \"id=$id\"");
/// assert_eq!(s.to_string(), "index.php:12");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Site {
    /// Source file name.
    pub file: Arc<str>,
    /// 1-based line number.
    pub line: u32,
    /// Byte span in the file.
    pub span: Span,
    /// A short source snippet for reports.
    pub snippet: Arc<str>,
}

impl Site {
    /// Maximum snippet length retained (characters).
    pub const MAX_SNIPPET: usize = 80;

    /// Creates a site, truncating the snippet to [`Site::MAX_SNIPPET`].
    pub fn new(file: impl Into<Arc<str>>, line: u32, span: Span, snippet: &str) -> Self {
        let snippet = snippet.trim();
        let snippet: Arc<str> = if snippet.chars().count() > Self::MAX_SNIPPET {
            let cut: String = snippet.chars().take(Self::MAX_SNIPPET - 1).collect();
            format!("{cut}…").into()
        } else {
            snippet.into()
        };
        Site {
            file: file.into(),
            line,
            span,
            snippet,
        }
    }

    /// A synthetic site for commands with no direct source location
    /// (e.g. implicit parameter-binding assignments).
    pub fn synthetic(file: impl Into<Arc<str>>, detail: &str) -> Self {
        Site {
            file: file.into(),
            line: 0,
            span: Span::default(),
            snippet: detail.into(),
        }
    }

    /// Whether this site was synthesized rather than read from source.
    pub fn is_synthetic(&self) -> bool {
        self.line == 0
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_synthetic() {
            write!(f, "{} (synthetic: {})", self.file, self.snippet)
        } else {
            write!(f, "{}:{}", self.file, self.line)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snippet_is_truncated() {
        let long = "x".repeat(200);
        let s = Site::new("f.php", 1, Span::default(), &long);
        assert!(s.snippet.chars().count() <= Site::MAX_SNIPPET);
        assert!(s.snippet.ends_with('…'));
    }

    #[test]
    fn snippet_is_trimmed() {
        let s = Site::new("f.php", 1, Span::default(), "  echo $x;  ");
        assert_eq!(&*s.snippet, "echo $x;");
    }

    #[test]
    fn synthetic_sites_display_detail() {
        let s = Site::synthetic("f.php", "param binding");
        assert!(s.is_synthetic());
        assert!(s.to_string().contains("param binding"));
    }

    #[test]
    fn real_sites_display_file_line() {
        let s = Site::new("dir/f.php", 42, Span::new(1, 2), "echo $x;");
        assert!(!s.is_synthetic());
        assert_eq!(s.to_string(), "dir/f.php:42");
    }
}
