//! The parser's nesting bounds keep every later pass inside a small
//! stack: an expression at the bounds verifies on a 2 MiB thread (the
//! default for spawned threads, and what the engine's workers get),
//! even in a debug build, and one past them is a parse error.

use webssari::{FileOutcome, Verifier, VerifyError};

/// The parser's operator-height bound.
const HEIGHT: usize = 256;

/// The parser's bound on open `elseif` arms.
const ARMS: usize = 512;

/// Verifies `src` on a thread with a 2 MiB stack.
fn verify_on_small_stack(src: String) -> Result<FileOutcome, VerifyError> {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            Verifier::new()
                .verify_source(&src, "deep.php")
                .map(|r| r.outcome)
        })
        .expect("spawn verifier thread")
        .join()
        .expect("verifier thread does not panic")
}

/// Expressions whose operator height is `n` (with `$_GET['a']` itself
/// one postfix operator), under up to 60 levels of other nesting, or
/// in the last arm of an `if` with [`ARMS`] `elseif` arms in either
/// spelling, under 60 levels of `if`.
fn shapes(n: usize) -> Vec<(&'static str, String)> {
    let concat = |k: usize| " . $_GET['a']".repeat(k);
    let chain = |spelling: &str| {
        let mut src = String::from("<?php\n");
        src.push_str(&"if ($c) {\n".repeat(60));
        src.push_str("if ($c == 0) { echo 'a'; }");
        for i in 1..ARMS {
            src.push_str(&format!(" {spelling} ($c == {i}) {{ echo 'b'; }}"));
        }
        src.push_str(&format!(
            " {spelling} ($c == {ARMS}) {{ echo $_GET['a']{}; }}\n",
            concat(n - 1)
        ));
        src.push_str(&"}\n".repeat(60));
        src
    };
    let per = (n - 1) / 60;
    let mut parens = String::from("<?php $x = ");
    parens.push_str(&"(".repeat(60));
    parens.push_str("$_GET['a']");
    for _ in 0..60 {
        parens.push_str(&concat(per));
        parens.push(')');
    }
    parens.push_str(&concat(n - 1 - per * 60));
    parens.push_str("; echo $x;");
    vec![
        (
            "concat",
            format!("<?php $x = $_GET['a']{}; echo $x;", concat(n - 1)),
        ),
        ("echo", format!("<?php echo $_GET['a']{};", concat(n - 1))),
        (
            "sql",
            format!(
                "<?php $q = 'SELECT a FROM t WHERE b='{}; mysql_query($q);",
                concat(n - 1)
            ),
        ),
        (
            "or",
            format!(
                "<?php $x = $_GET['a']{}; echo $x;",
                " or $_GET['a']".repeat(n - 1)
            ),
        ),
        (
            "index",
            format!("<?php $x = $_GET['a']{}; echo $x;", "[0]".repeat(n - 1)),
        ),
        (
            "method",
            format!("<?php $x = $_GET['a']{}; echo $x;", "->m()".repeat(n - 1)),
        ),
        ("parens", parens),
        (
            "not",
            format!(
                "<?php $x = {}($_GET['a']{}); echo $x;",
                "!".repeat(60),
                concat(n - 1)
            ),
        ),
        (
            "ternary",
            format!(
                "<?php $x = {}$_GET['a']{}; echo $x;",
                "$c ? 1 : ".repeat(60),
                concat(n - 1)
            ),
        ),
        (
            "assign",
            format!(
                "<?php $x = {}$_GET['a']{}; echo $x;",
                "$y = ".repeat(60),
                concat(n - 1)
            ),
        ),
        (
            "call",
            format!(
                "<?php $x = {}$_GET['a']{}{}; echo $x;",
                "f(".repeat(60),
                concat(n - 1),
                ")".repeat(60),
            ),
        ),
        ("elseif", chain("elseif")),
        ("else if", chain("else if")),
    ]
}

#[test]
fn expressions_at_the_bounds_verify_on_a_small_stack() {
    for (name, src) in shapes(HEIGHT) {
        assert_eq!(
            verify_on_small_stack(src).unwrap_or_else(|e| panic!("{name}: {e}")),
            FileOutcome::Vulnerable,
            "{name}",
        );
    }
}

#[test]
fn one_operator_past_the_bound_is_a_parse_error() {
    for (name, src) in shapes(HEIGHT + 1) {
        let err = verify_on_small_stack(src).expect_err(name);
        assert!(
            err.to_string()
                .contains("nesting deeper than 256 operators"),
            "{name}: {err}",
        );
    }
}
