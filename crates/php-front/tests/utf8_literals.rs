//! Non-ASCII text in string literals survives lexing, parsing and
//! printing unchanged, in every literal form.

use php_front::ast::{Expr, Stmt, StrPart};
use php_front::{parse_source, print_program};

/// The literal parts assigned by each statement of `src`.
fn assigned_parts(src: &str) -> Vec<Vec<StrPart>> {
    parse_source(src)
        .expect("parses")
        .stmts
        .into_iter()
        .filter_map(|s| match s {
            Stmt::Expr(Expr::Assign { value, .. }, _) => match *value {
                Expr::StringLit(parts) => Some(parts),
                _ => None,
            },
            _ => None,
        })
        .collect()
}

const SRC: &str = "<?php\n\
    $a = 'h\u{e9}llo \u{2603} \\'q\\' \\\u{e9}';\n\
    $b = \"gr\u{fc}\u{df}e $name \u{1f600}\";\n\
    $c = \"\u{e9}sc\\n\\\u{e9}\";\n\
    $d = <<<EOT\nsch\u{f6}n $who \\\u{e7}a\nEOT;\n\
    $e = <<<'RAW'\nna\u{ef}ve $raw\nRAW;\n\
    $f = \"\u{e0}\";\n";

#[test]
fn non_ascii_literal_text_is_kept() {
    let lit = |s: &str| StrPart::Lit(s.to_owned());
    let var = |s: &str| StrPart::Var(s.to_owned());
    assert_eq!(
        assigned_parts(SRC),
        vec![
            vec![lit("h\u{e9}llo \u{2603} 'q' \\\u{e9}")],
            vec![lit("gr\u{fc}\u{df}e "), var("name"), lit(" \u{1f600}")],
            vec![lit("\u{e9}sc\n\\\u{e9}")],
            vec![lit("sch\u{f6}n "), var("who"), lit(" \\\u{e7}a\n")],
            vec![lit("na\u{ef}ve $raw\n")],
            vec![lit("\u{e0}")],
        ]
    );
}

#[test]
fn non_ascii_literals_print_and_reparse_unchanged() {
    let printed = print_program(&parse_source(SRC).expect("parses"));
    for text in [
        "\"h\u{e9}llo \u{2603} 'q' \\\\\u{e9}\"",
        "\"gr\u{fc}\u{df}e {$name} \u{1f600}\"",
        "\"\u{e9}sc\\n\\\\\u{e9}\"",
        "\"sch\u{f6}n {$who} \\\\\u{e7}a\\n\"",
        "\"na\u{ef}ve \\$raw\\n\"",
        "\"\u{e0}\"",
    ] {
        assert!(printed.contains(text), "{text} not in:\n{printed}");
    }
    assert_eq!(assigned_parts(&printed), assigned_parts(SRC));
}
