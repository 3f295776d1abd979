//! Deep expressions end in a parse error, not a stack overflow. Every
//! shape is 20,000 levels deep and parsed on a 2 MiB thread (the
//! default for spawned threads, and what the engine's workers get).

use php_front::ast::Program;
use php_front::{parse_source, ParseError};

const DEEP: usize = 20_000;

/// Parses `src` on a thread with a 2 MiB stack.
fn parse_on_small_stack(src: String) -> Result<Program, ParseError> {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || parse_source(&src))
        .expect("spawn parser thread")
        .join()
        .expect("parser thread does not panic")
}

fn assert_too_deep(src: String) {
    let err = parse_on_small_stack(src).expect_err("too deep to parse");
    assert!(
        err.message.starts_with("nesting deeper than"),
        "{}",
        err.message
    );
}

#[test]
fn prefix_operator_chain_is_bounded() {
    assert_too_deep(format!("<?php $x = {}1;", "!".repeat(DEEP)));
    assert_too_deep(format!("<?php $x = {}1;", "- ".repeat(DEEP)));
}

#[test]
fn suppression_chain_is_bounded() {
    assert_too_deep(format!("<?php $x = {}f();", "@".repeat(DEEP)));
}

#[test]
fn assignment_chain_is_bounded() {
    assert_too_deep(format!("<?php {}1;", "$a = ".repeat(DEEP)));
}

#[test]
fn nested_ternaries_are_bounded() {
    assert_too_deep(format!("<?php $x = {}1;", "1 ? 1 : ".repeat(DEEP)));
    assert_too_deep(format!(
        "<?php $x = {}1{};",
        "$c ? ".repeat(DEEP),
        " : 1".repeat(DEEP)
    ));
}

#[test]
fn concatenation_chain_is_bounded() {
    assert_too_deep(format!("<?php $x = $a{};", " . $a".repeat(DEEP)));
}

#[test]
fn other_operator_chains_are_bounded() {
    assert_too_deep(format!("<?php $x = 1{};", " + 1".repeat(DEEP)));
    assert_too_deep(format!("<?php $x = $a{};", " or $a".repeat(DEEP)));
    assert_too_deep(format!("<?php $x = $a{};", "[0]".repeat(DEEP)));
    assert_too_deep(format!("<?php $x = $a{};", "->b()".repeat(DEEP)));
}

#[test]
fn elseif_chains_are_bounded() {
    for arm in [" elseif ($a) { $b = 1; }", " else if ($a) { $b = 1; }"] {
        assert_too_deep(format!("<?php if ($a) {{ $b = 1; }}{}", arm.repeat(DEEP)));
    }
    assert_too_deep(format!(
        "<?php if ($a): $b = 1;{} endif;",
        " elseif ($a): $b = 1;".repeat(DEEP)
    ));
}

#[test]
fn operator_height_counts_through_parentheses() {
    // Each parenthesized chain is the leftmost operand of 7 more `.`:
    // 40 levels put 280 operators on one path, though no chain is
    // longer than 7 and the parentheses nest only 40 deep.
    let src = format!(
        "<?php $x = {}$a{};",
        "(".repeat(40),
        " . $a . $a . $a . $a . $a . $a . $a)".repeat(40),
    );
    let err = parse_on_small_stack(src).expect_err("too deep to parse");
    assert_eq!(err.message, "nesting deeper than 256 operators");
}

#[test]
fn the_bounds_admit_realistic_depths() {
    let chain = |n: usize| format!("<?php $x = $a{};", " . $a".repeat(n));
    assert!(parse_on_small_stack(chain(256)).is_ok());
    assert_too_deep(chain(257));
    let program = parse_on_small_stack(format!("<?php $x = {}1;", "!".repeat(60))).unwrap();
    assert_eq!(program.stmts.len(), 1);
    assert!(parse_on_small_stack(format!("<?php {}1;", "$a = ".repeat(60))).is_ok());
    assert!(parse_on_small_stack(format!("<?php $x = {}1;", "1 ? 1 : ".repeat(60))).is_ok());
    // Arms count over nested `if`s: 2 × 256 arms fit, one more does not.
    let arms = |n: usize| " elseif ($a) { $b = 1; }".repeat(n);
    let nested = |inner: usize| {
        format!(
            "<?php if ($a) {{ $b = 1; }}{} elseif ($a) {{ if ($a) {{ $b = 1; }}{} }}",
            arms(255),
            arms(inner)
        )
    };
    assert!(parse_on_small_stack(nested(256)).is_ok());
    let err = parse_on_small_stack(nested(257)).expect_err("too many arms");
    assert_eq!(err.message, "nesting deeper than 512 elseif arms");
    // Arms of an `if` that has ended are closed again.
    let siblings = format!(
        "<?php {}",
        format!("if ($a) {{ $b = 1; }}{}", arms(512)).repeat(3)
    );
    assert!(parse_on_small_stack(siblings).is_ok());
}
