//! PHP program generators for the store-model property tests. Shared
//! by the `webssari-ir` and `xbmc` test suites (each includes this file
//! with `#[path]`), so both exercise the same program shapes.

#![allow(dead_code)]

/// A program mixing structured-SQL shapes: tainted concat writes,
/// parameterized calls (clean by construction), fetch-read chains
/// through store cells, sanitized echoes, opaque concat sinks, and
/// branch-dependent writes.
pub fn sql_store_php(ops: &[u8]) -> String {
    let mut src = String::from("<?php ");
    for (i, op) in ops.iter().enumerate() {
        let t = i % 3;
        match op % 6 {
            0 => src.push_str(&format!(
                "$w{i} = $_POST['w{i}']; \
                 mysql_query(\"INSERT INTO t{t} (c) VALUES ('$w{i}')\"); "
            )),
            1 => src.push_str(&format!(
                "$b{i} = $_GET['b{i}']; \
                 execute_query(\"UPDATE t{t} SET c = ? WHERE id = {i}\", $b{i}); "
            )),
            2 => src.push_str(&format!(
                "$h{i} = mysql_query('SELECT c FROM t{t}'); \
                 $r{i} = mysql_fetch_array($h{i}); echo $r{i}; "
            )),
            3 => src.push_str(&format!(
                "$e{i} = htmlspecialchars($_GET['e{i}']); echo $e{i}; "
            )),
            4 => src.push_str(&format!(
                "$q{i} = 'DELETE FROM log WHERE tag=' . $_COOKIE['c{i}']; DoSQL($q{i}); "
            )),
            _ => src.push_str(&format!(
                "if ($g{i}) {{ $m{i} = $_GET['m{i}']; }} else {{ $m{i} = 'lit'; }} \
                 mysql_query(\"INSERT INTO t{t} (x) VALUES ('$m{i}')\"); "
            )),
        }
    }
    src
}

/// Statements to append to a [`sql_store_php`] program: `$_SESSION` and
/// file-store writes and reads, and store-free sanitized echoes.
pub fn session_file_php(ops: &[u8]) -> String {
    let mut src = String::new();
    for (i, op) in ops.iter().enumerate() {
        let f = i % 2;
        match op % 5 {
            0 => src.push_str(&format!("$_SESSION['s{i}'] = $_GET['s{i}']; ")),
            1 => src.push_str(&format!("$n{i} = $_SESSION['s{f}']; echo $n{i}; ")),
            2 => src.push_str(&format!("file_put_contents('f{f}.txt', $_POST['p{i}']); ")),
            3 => src.push_str(&format!(
                "$c{i} = file_get_contents('f{f}.txt'); echo $c{i}; "
            )),
            _ => src.push_str(&format!(
                "$z{i} = htmlspecialchars($_GET['z{i}']); echo $z{i}; "
            )),
        }
    }
    src
}

/// Writers of the `msgs` table: a tainted concatenated `INSERT`, a
/// clean one, and a tainted but parameterized one.
pub const MSGS_WRITERS: [&str; 3] = [
    "<?php $v = $_POST['v']; \
     mysql_query(\"INSERT INTO msgs (c) VALUES ('$v')\");",
    "<?php $v = 'clean'; \
     mysql_query(\"INSERT INTO msgs (c) VALUES ('$v')\");",
    "<?php $v = $_GET['v']; \
     execute_query(\"INSERT INTO msgs (c) VALUES (?)\", $v);",
];

/// Readers of the `msgs` table: an unsanitized and a sanitized echo of
/// the fetched row.
pub const MSGS_READERS: [&str; 2] = [
    "<?php $h = mysql_query('SELECT c FROM msgs'); \
     $r = mysql_fetch_array($h); echo $r;",
    "<?php $h = mysql_query('SELECT c FROM msgs'); \
     $r = mysql_fetch_array($h); echo htmlspecialchars($r);",
];
