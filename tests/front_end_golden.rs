//! Pins the front end's results: `parse_source` over every PHP file in
//! `examples/php/` and `tests/fixtures/`, a set of named edge cases,
//! seeded token and statement soup, and the generated corpora (Figure
//! 10 and the §5 corpus at small scale).
//!
//! Each row of `tests/fixtures/front_end_golden.txt` is
//! `name<TAB>result`, where the result is `ok <bytes> <fnv64>` (the
//! length and FNV-1a hash of the `Program`'s `Debug` text) or
//! `err <Display text of the ParseError>`; every error's span must
//! slice its source. Corpus rows hash every
//! file's row of one project. A lexer or parser change must reproduce
//! the table byte for byte; after an intended change, rewrite it with
//!
//! ```text
//! cargo test --test front_end_golden -- --ignored regenerate
//! ```

use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};

use webssari::corpus_gen::{Corpus, CorpusScale};
use webssari::php::parse_source;

const TABLE: &str = "tests/fixtures/front_end_golden.txt";

/// FNV-1a over everything written to it, so a `Debug` text is hashed
/// without being built.
struct Fnv {
    hash: u64,
    len: usize,
}

impl Fnv {
    fn new() -> Self {
        Fnv {
            hash: 0xcbf2_9ce4_8422_2325,
            len: 0,
        }
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
        self.len += s.len();
        Ok(())
    }
}

fn result_of(src: &str) -> String {
    match parse_source(src) {
        Ok(program) => {
            let mut h = Fnv::new();
            write!(h, "{program:?}").expect("hashing cannot fail");
            format!("ok {} {:016x}", h.len, h.hash)
        }
        Err(e) => {
            // Every error span selects text of its own source: this
            // panics if a span ends past the source or inside a
            // character.
            e.span.slice(src);
            format!("err {e}")
        }
    }
}

fn php_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("fixture directory exists")
        .map(|e| e.expect("readable entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            php_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "php") {
            out.push(path);
        }
    }
}

/// Hand-picked inputs for the lexer's and parser's corners. None holds
/// a non-ASCII string literal: those are pinned by php-front's own
/// UTF-8 round-trip test.
const EDGE_CASES: &[(&str, &str)] = &[
    ("empty", ""),
    ("html-only", "<html><body>hi</body></html>"),
    ("open-tag-at-eof", "<?php"),
    ("short-open-tag", "<? echo 1;"),
    ("echo-tag", "<p><?= $x ?></p>"),
    ("echo-tag-at-eof", "text<?="),
    ("close-tag-newline", "<?php echo 1; ?>\nafter<?php echo 2;"),
    ("close-tag-no-newline", "<?php echo 1; ?>after"),
    ("hash-comment-close-tag", "<?php # note ?>after"),
    ("line-comment-close-tag", "<?php // note ?>after<?php $x;"),
    ("block-comment", "<?php /* a\nb */ $x = 1;"),
    ("non-ascii-comment", "<?php // h\u{e9}llo w\u{f6}rld\n$x = 1; /* \u{2603} */"),
    ("non-ascii-html", "<p>caf\u{e9}</p><?php echo $x; ?>\u{fc}ber"),
    ("non-ascii-stray", "<?php $x = 1; \u{e9};"),
    (
        "single-quoted-escapes",
        r"<?php $a = 'it\'s'; $b = 'back\\slash'; $c = 'keep\n'; $d = '';",
    ),
    (
        "double-quoted-escapes",
        r#"<?php $a = "a\n\t\r\"\\\$b\0c\q"; $e = "";"#,
    ),
    (
        "interpolation",
        r#"<?php $q = "a{$x}b${y}c$row[name]d$row['k']e{$arr['k']}f$ g{ h$_GET[sid]";"#,
    ),
    ("interpolation-unclosed-index", r#"<?php $q = "a$row[name";"#),
    (
        "heredoc",
        "<?php $h = <<<EOT\nHello $name and {$other} and $row[key]\n  \\$ not \\n a var\nEOT;\necho $h;",
    ),
    ("heredoc-plain", "<?php $h = <<<EOT\nplain text\nEOT;\n"),
    ("heredoc-empty", "<?php $h = <<<EOT\nEOT;\n"),
    ("heredoc-no-semicolon", "<?php echo <<<EOT\nx $y\nEOT\n;"),
    ("nowdoc", "<?php $n = <<<'EOT'\nraw $name {$x}\nEOT;\n"),
    ("nowdoc-empty", "<?php $n = <<<'EOT'\nEOT;\n"),
    ("numbers", "<?php $a = 1 + 23 + 4.5 + 1e3 + 2.5e-1 + 0xFF + 0X1f + 7E+2;"),
    (
        "operators",
        "<?php $a = $b === $c == $d != $e !== $f <> $g <= $h >= $i < $j > $k; \
         $a += 1; $a -= 1; $a *= 2; $a /= 2; $a .= 'x'; $a++; --$a; \
         $z = !$a && $b || $c ? $d : $e ?: $f; $m = $o->p->q($r) % 3; @f();",
    ),
    (
        "keywords-any-case",
        "<?php IF ($a) ECHO 1; ElseIf ($b) Print 2; ELSE { RETURN; } \
         $t = TRUE; $f = False; $n = NULL; $l = ARRAY(1); LIST($p, $q) = $r; \
         $o = NEW Foo(1); Die('x');",
    ),
    (
        "alternative-syntax",
        "<?php if ($a): echo 1; elseif ($b): echo 2; else: echo 3; endif; \
         while ($c): $c--; endwhile; for ($i = 0; $i < 3; $i++): echo $i; endfor; \
         foreach ($xs as $k => &$v): echo $v; endforeach; \
         switch ($s): case 1: echo 1; break; default: echo 2; endswitch;",
    ),
    (
        "statements",
        "<?php function &f($a, &$b, $c = array()) { global $g, $h; return $a . $b; } \
         do { $x++; } while ($x < 3); for (;;) { break 2; continue; } \
         switch ($x) { case 'a'; echo 1; default: echo 2; } \
         include 'a.php'; include_once(\"b.php\"); require $p; require_once 'c.php'; \
         exit; exit(); exit(1); { $nested = [1, 'k' => &$v, [2]]; } $m[1][2] = $q; $x = &$y;",
    ),
    ("missing-semicolon-at-eof", "<?php $x = 1"),
    ("parse-error-missing-paren", "<?php if $a) echo 1;"),
    ("parse-error-unclosed-brace", "<?php if ($a) { echo 1;"),
    ("parse-error-assignment-target", "<?php 1 = 2;"),
    ("parse-error-increment-target", "<?php 1++;"),
    ("parse-error-foreach", "<?php foreach ($a as 1) {}"),
    ("parse-error-function-name", "<?php function 1() {}"),
    ("parse-error-member-name", "<?php $a->1;"),
    ("parse-error-new", "<?php new 1;"),
    ("parse-error-global", "<?php global 1;"),
    ("parse-error-alt-if", "<?php if ($a): echo 1; ?>"),
    ("parse-error-switch", "<?php switch ($a) { echo 1; }"),
    ("parse-error-do", "<?php do { } until ($x);"),
    ("parse-error-unexpected", "<?php $x = );"),
    ("parse-error-depth", "<?php $x = ((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((1))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))));"),
    // Tokenize-first semantics: a lex error anywhere in the file wins
    // over a parse error that comes before it.
    ("parse-error-before-lex-error", "<?php if ( ; $x = \"unterminated"),
    ("parse-error-before-stray-char", "<?php 1 = 2; $y = 3 ^ 4;"),
    ("parse-error-before-bad-comment", "<?php echo ); /* never closed"),
    ("parse-error-before-bad-variable", "<?php foo(; $ = 1;"),
    ("lex-error-unterminated-single", "<?php $x = 'abc"),
    ("lex-error-escape-at-eof-single", "<?php $x = 'abc\\"),
    ("lex-error-escape-at-eof-double", "<?php $x = \"abc\\"),
    ("lex-error-bad-hex", "<?php $x = 0x;"),
    ("lex-error-int-range", "<?php $x = 99999999999999999999;"),
    ("lex-error-heredoc-tag", "<?php $x = <<<\nbody\n"),
    ("lex-error-nowdoc-quote", "<?php $x = <<<'EOT\nbody\nEOT;\n"),
    ("lex-error-heredoc-unclosed", "<?php $x = <<<EOT\nbody\n"),
    ("lex-error-pipe", "<?php $x = $a | $b;"),
];

/// Fragments the token soup is built from: well-formed pieces, parse
/// hazards, and lex errors (stray characters, unterminated literals).
const SOUP: &[&str] = &[
    "$x",
    "$_GET['q']",
    "$row[id]",
    "=",
    ".=",
    "+",
    ".",
    "==",
    "===",
    "!",
    "&&",
    "||",
    "?",
    ":",
    ";",
    ";",
    ";",
    ",",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    "->",
    "=>",
    "++",
    "@",
    "&",
    "if",
    "else",
    "elseif",
    "while",
    "for",
    "foreach",
    "as",
    "function",
    "return",
    "echo",
    "print",
    "global",
    "switch",
    "case",
    "default",
    "break",
    "array",
    "list",
    "new",
    "die",
    "true",
    "null",
    "and",
    "or",
    "endif",
    "include",
    "mysql_query",
    "f",
    "Foo",
    "42",
    "3.5",
    "0x1F",
    "'lit'",
    "'it\\'s'",
    "\"plain\"",
    "\"a $x b\"",
    "\"{$y}\"",
    "\"\\n\\t\"",
    "// note\n",
    "# hash\n",
    "/* c */",
    "?>",
    "<?php",
    "<?=",
    "\n",
    "<<<EOT\nhi $x\nEOT;\n",
    "<<<'N'\nraw\nN;\n",
    "^",
    "$",
    "\"open",
    "'open",
    "/* open",
    "0x",
    "~",
    "\u{e9}",
];

/// Well-formed statements for soup that parses: nested at random
/// inside `if`/`while`/`function` bodies.
const STATEMENTS: &[&str] = &[
    "$x = $_GET['q'];",
    "$q = \"SELECT * FROM t WHERE id=$x\";",
    "mysql_query($q);",
    "echo htmlspecialchars($x), 'y';",
    "$a .= \"{$b}c$row[k]\" . 'd';",
    "list($p, $r) = f($x, 3.5, 0x10);",
    "$o->m($x)->n = [1, 'k' => $v];",
    "print $x ? $y : $z;",
    "$i++;",
    "global $g;",
    "return $x;",
    "include 'lib.php';",
    "?>html<?php",
    "?><?= $x ?><?php",
    "die('bye');",
    "$h = <<<EOT\nline $x\nEOT;\n",
];

/// xorshift64: a fixed-seed generator, so the soup is the same on every
/// run and platform.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn soup(seed: u64) -> String {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut out = String::new();
    if next(&mut state).is_multiple_of(4) {
        out.push_str("<b>html</b>");
    }
    out.push_str("<?php ");
    let n = 3 + next(&mut state) % 30;
    for _ in 0..n {
        out.push_str(SOUP[(next(&mut state) % SOUP.len() as u64) as usize]);
        if !next(&mut state).is_multiple_of(3) {
            out.push(' ');
        }
    }
    out
}

fn statements(seed: u64) -> String {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut out = String::from("<?php\n");
    let mut open = 0;
    for _ in 0..4 + next(&mut state) % 20 {
        match next(&mut state) % 8 {
            0 if open < 4 => {
                out.push_str("if ($c) {\n");
                open += 1;
            }
            1 if open < 4 => {
                out.push_str("while ($row = mysql_fetch_array($r)) {\n");
                open += 1;
            }
            2 if open == 0 => {
                out.push_str("function F($a, &$b = null) {\n");
                open += 1;
            }
            3 if open > 0 => {
                out.push_str("}\n");
                open -= 1;
            }
            _ => {
                out.push_str(STATEMENTS[(next(&mut state) % STATEMENTS.len() as u64) as usize]);
                out.push('\n');
            }
        }
    }
    out.push_str(&"}\n".repeat(open));
    out
}

fn render_table() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = String::new();
    let mut files = Vec::new();
    php_files(&root.join("examples/php"), &mut files);
    php_files(&root.join("tests/fixtures"), &mut files);
    for path in files {
        let src = std::fs::read_to_string(&path).expect("fixture is UTF-8");
        let name = path.strip_prefix(root).expect("under the repo root");
        let _ = writeln!(out, "{}\t{}", name.display(), result_of(&src));
    }
    for (name, src) in EDGE_CASES {
        let _ = writeln!(out, "edge/{name}\t{}", result_of(src));
    }
    for seed in 0..300 {
        let _ = writeln!(out, "soup/{seed}\t{}", result_of(&soup(seed)));
    }
    for seed in 0..100 {
        let _ = writeln!(out, "statements/{seed}\t{}", result_of(&statements(seed)));
    }
    let figure10 = Corpus::figure10().projects;
    let section5 = Corpus::sourceforge_230(CorpusScale::Small).projects;
    for project in figure10.into_iter().chain(section5) {
        let mut h = Fnv::new();
        let mut files = 0;
        for (name, src) in project.sources.iter() {
            let _ = writeln!(h, "{name}\t{}", result_of(src));
            files += 1;
        }
        let _ = writeln!(
            out,
            "corpus/{}\t{files} files {:016x}",
            project.name, h.hash
        );
    }
    out
}

#[test]
fn front_end_results_match_the_pinned_table() {
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

/// Rewrites the table from the current front end (run on purpose only).
#[test]
#[ignore]
fn regenerate() {
    std::fs::write(TABLE, render_table()).expect("table is writable");
}
