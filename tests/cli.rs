//! End-to-end tests of the `webssari` command-line tool, driving the
//! real binary against real files on disk.

use std::path::PathBuf;
use std::process::Command;

fn webssari() -> Command {
    Command::new(env!("CARGO_BIN_EXE_webssari"))
}

/// Creates a scratch project directory; returns its path.
fn scratch(files: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "webssari-cli-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for (name, body) in files {
        let path = dir.join(name);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("create parent");
        }
        std::fs::write(path, body).expect("write file");
    }
    dir
}

const VULN: &str = "<?php\n$sid = $_GET['sid'];\n$q = \"WHERE sid=$sid\";\nmysql_query($q);\n";
const SAFE: &str = "<?php\necho 'hello';\n";

#[test]
fn verify_exits_nonzero_on_findings_and_zero_when_clean() {
    let dir = scratch(&[("index.php", VULN), ("safe.php", SAFE)]);
    let out = webssari()
        .args(["verify", dir.to_str().unwrap(), "--summary"])
        .output()
        .expect("run webssari");
    assert_eq!(out.status.code(), Some(1), "findings must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("VULNERABLE"), "{stdout}");
    assert!(stdout.contains("safe.php"), "{stdout}");

    let clean = scratch(&[("safe.php", SAFE)]);
    let out = webssari()
        .args(["verify", clean.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
}

/// A file the pipeline refuses is not verified, so it must not pass as
/// secure: the totals line counts it and `verify` exits 3, unless a
/// finding elsewhere makes it exit 1.
#[test]
fn skipped_files_are_counted_and_exit_3() {
    // One operator past the parser's chain bound, and a syntax error.
    let chain = format!(
        "<?php\n$q = $_GET['a']{};\necho $q;\n",
        " . 'x'".repeat(299)
    );
    for (name, src) in [
        ("chain.php", chain.as_str()),
        ("syntax.php", "<?php if (\n"),
    ] {
        let dir = scratch(&[(name, src), ("safe.php", SAFE)]);
        let out = webssari()
            .args(["verify", dir.to_str().unwrap()])
            .output()
            .expect("run webssari");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{name}: {stdout}{stderr}");
        assert!(stderr.contains(&format!("SKIPPED {name}")), "{stderr}");
        let totals = stdout.lines().last().unwrap_or_default();
        assert!(
            totals.starts_with("1 file(s),") && totals.ends_with("; 1 skipped"),
            "{name}: {totals}"
        );

        // A finding still exits 1.
        let dir = scratch(&[(name, src), ("index.php", VULN)]);
        let out = webssari()
            .args(["verify", dir.to_str().unwrap(), "--jobs", "2"])
            .output()
            .expect("run webssari");
        assert_eq!(out.status.code(), Some(1), "{name}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.trim_end().ends_with("; 1 skipped"), "{stdout}");
    }
}

#[test]
fn lint_exits_one_on_errors_and_writes_sarif() {
    let dir = scratch(&[("index.php", VULN), ("safe.php", SAFE)]);
    let sarif = dir.join("findings.sarif");
    let out = webssari()
        .args([
            "lint",
            dir.to_str().unwrap(),
            "--sarif",
            sarif.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "error findings must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error [unsanitized-sink]"), "{stdout}");
    let json = std::fs::read_to_string(&sarif).expect("SARIF written");
    assert!(json.contains("\"version\":\"2.1.0\""), "{json}");
    assert!(json.contains("\"ruleId\":\"unsanitized-sink\""), "{json}");
    assert!(json.contains("index.php"), "{json}");
}

#[test]
fn lint_exits_zero_on_clean_tree() {
    let dir = scratch(&[("safe.php", SAFE)]);
    let out = webssari()
        .args(["lint", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

#[test]
fn zero_solve_budget_verifies_ts_clean_files_and_times_out_the_rest() {
    // A file the typestate pass finds clean never enters the solver, so
    // even a zero budget cannot interrupt it; a file with a TS error
    // goes to BMC and times out. With or without engine flags, the
    // per-file line and the totals report the timeout as such.
    let sanitized = "<?php\necho htmlspecialchars($_GET['v']);\n";
    let dir = scratch(&[("index.php", VULN), ("safe.php", sanitized)]);
    let cache = dir.join("cache");
    for engine_flags in [&[][..], &["--cache-dir", cache.to_str().unwrap()]] {
        let out = webssari()
            .args(["verify", dir.to_str().unwrap(), "--summary"])
            .args(["--solve-budget-ms", "0"])
            .args(engine_flags)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "timeouts alone exit 0: {stdout}"
        );
        let line = |file: &str| {
            stdout
                .lines()
                .find(|l| l.starts_with(file) && l.contains(" BMC "))
                .unwrap_or_else(|| panic!("no summary line for {file}: {stdout}"))
                .to_owned()
        };
        assert!(line("index.php").ends_with("TIMEOUT"), "{stdout}");
        assert!(line("safe.php").ends_with(" ok"), "{stdout}");
        assert!(
            stdout.contains("0 vulnerable file(s), 1 timeout(s)"),
            "{stdout}"
        );
        if !engine_flags.is_empty() {
            assert!(stdout.contains("cache: 0 hit(s), 2 miss(es)"), "{stdout}");
            assert!(
                stdout.contains("1 verified, 0 vulnerable, 1 timeout"),
                "{stdout}"
            );
        }
    }
}

#[test]
fn timed_out_files_are_left_out_of_the_reduction() {
    // A timed-out file has TS errors but no BMC groups to weigh them
    // against; counting it would read as a 100% reduction.
    let dir = scratch(&[("index.php", VULN)]);
    let cache = dir.join("cache");
    let verify = |budget: &[&str]| {
        let out = webssari()
            .args(["verify", dir.to_str().unwrap()])
            .args(["--cache-dir", cache.to_str().unwrap()])
            .args(budget)
            .output()
            .unwrap();
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let stdout = verify(&["--solve-budget-ms", "0"]);
    assert!(
        stdout.contains(
            "1 timeout(s); TS errors 1, BMC groups 0 \
             (instrumentation reduction n/a, 1 timed-out file(s) left out)"
        ),
        "{stdout}"
    );
    // Cache `index.php`'s finished verdict, then time out a second
    // file beside it: the reduction covers the finished file alone.
    verify(&[]);
    std::fs::write(dir.join("other.php"), VULN).unwrap();
    let stdout = verify(&["--solve-budget-ms", "0"]);
    assert!(
        stdout.contains(
            "1 vulnerable file(s), 1 timeout(s); TS errors 2, BMC groups 1 \
             (instrumentation reduction 0.0%, 1 timed-out file(s) left out)"
        ),
        "{stdout}"
    );
}

#[test]
fn patch_then_verify_round_trip() {
    let dir = scratch(&[("index.php", VULN)]);
    let out = webssari()
        .args(["patch", dir.to_str().unwrap(), "--write"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let patched = std::fs::read_to_string(dir.join("index.php")).unwrap();
    assert!(patched.contains("webssari_sanitize"), "{patched}");
    let out = webssari()
        .args(["verify", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "patched tree must verify clean");
}

#[test]
fn patch_with_suffix_leaves_original() {
    let dir = scratch(&[("index.php", VULN)]);
    let out = webssari()
        .args(["patch", dir.to_str().unwrap(), "--suffix", ".fixed"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        std::fs::read_to_string(dir.join("index.php")).unwrap(),
        VULN
    );
    assert!(dir.join("index.php.fixed").exists());
}

#[test]
fn html_report_is_written() {
    let dir = scratch(&[("index.php", VULN)]);
    let report = dir.join("report.html");
    for jobs in [&[][..], &["--jobs", "2"]] {
        let _ = std::fs::remove_file(&report);
        let out = webssari()
            .args([
                "verify",
                dir.to_str().unwrap(),
                "--html",
                report.to_str().unwrap(),
            ])
            .args(jobs)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{jobs:?}");
        let html = std::fs::read_to_string(&report).unwrap();
        assert!(html.contains("WebSSARI verification report"));
        assert!(html.contains("class='line sink'"));
    }
}

#[test]
fn certify_reports_checked_certificates() {
    let dir = scratch(&[("safe.php", "<?php\necho htmlspecialchars($_GET['m']);\n$n = intval($_GET['n']);\nmysql_query(\"LIMIT $n\");\n")]);
    let out = webssari()
        .args(["verify", dir.to_str().unwrap(), "--certify", "--summary"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Both sinks carry an assertion: the sanitizer temps make even the
    // fully-sanitized echo a (trivially clean) checked assertion.
    assert!(
        stdout.contains("certified assertions: 2 (independently re-checked: 2)"),
        "{stdout}"
    );
}

#[test]
fn multiclass_flag_changes_the_verdict() {
    let dir = scratch(&[(
        "wrong.php",
        "<?php\n$n = addslashes($_GET['n']);\necho $n;\n",
    )]);
    let out = webssari()
        .args(["verify", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "two-point policy is blind here");
    let out = webssari()
        .args(["verify", dir.to_str().unwrap(), "--multiclass"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "multi-class policy must flag it"
    );
}

#[test]
fn custom_prelude_declares_new_contracts() {
    let dir = scratch(&[
        (
            "app.php",
            "<?php\n$body = read_feed('u');\ntemplate_render($body);\n",
        ),
        ("contracts.txt", "uic read_feed\nsoc template_render xss\n"),
    ]);
    // Without the prelude: read_feed is unknown (propagates nothing
    // tainted), template_render is not a sink.
    let out = webssari()
        .args(["verify", dir.join("app.php").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let out = webssari()
        .args([
            "verify",
            dir.join("app.php").to_str().unwrap(),
            "--prelude",
            dir.join("contracts.txt").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn stages_prints_the_pipeline() {
    let dir = scratch(&[("f.php", VULN)]);
    let out = webssari()
        .args(["stages", dir.join("f.php").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("F(p)"), "{stdout}");
    assert!(stdout.contains("AI(F(p))"), "{stdout}");
    assert!(stdout.contains("violation of"), "{stdout}");
}

#[test]
fn bad_usage_exits_2() {
    let out = webssari().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = webssari().args(["verify"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = webssari().args(["frobnicate", "/tmp"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn engine_flags_run_parallel_with_cache_and_metrics() {
    let dir = scratch(&[("index.php", VULN), ("safe.php", SAFE)]);
    let cache = dir.join("cache");
    let metrics = dir.join("metrics.json");
    let index = dir.join("index.php");
    let safe = dir.join("safe.php");
    let args = [
        "verify",
        index.to_str().unwrap(),
        safe.to_str().unwrap(),
        "--jobs",
        "4",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--metrics-json",
        metrics.to_str().unwrap(),
        "--summary",
    ];
    let out = webssari().args(args).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "findings still exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cache: 0 hit(s), 2 miss(es)"), "{stdout}");
    assert!(stdout.contains("VULNERABLE"), "{stdout}");
    let json = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(json.contains("\"cache_misses\":2"), "{json}");

    // Second run: everything is served from the cache.
    let out = webssari().args(args).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cache: 2 hit(s), 0 miss(es)"), "{stdout}");
    assert!(stdout.contains("(cached)"), "{stdout}");
}

#[test]
fn cached_groups_keep_the_parameterize_action() {
    let cache = scratch(&[]).join("cache");
    let args = [
        "verify",
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/examples/php/sqli_vulnerable.php"
        ),
        "--prefer-parameterize",
        "--cache-dir",
        cache.to_str().unwrap(),
    ];
    let group_lines = || {
        let out = webssari().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1));
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.starts_with("[sqli]"))
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    let fresh = group_lines();
    assert!(
        fresh[0].starts_with("[sqli] parameterize the query binding $"),
        "{fresh:?}"
    );
    // The cached rerun renders the group from its stored summary.
    assert_eq!(group_lines(), fresh);
}

#[test]
fn solve_budget_flag_is_accepted() {
    let dir = scratch(&[("index.php", VULN)]);
    let out = webssari()
        .args([
            "verify",
            dir.to_str().unwrap(),
            "--jobs",
            "2",
            "--solve-budget-ms",
            "60000",
        ])
        .output()
        .unwrap();
    // A generous budget changes nothing about the verdict.
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 timeout(s)"), "{stdout}");
}

#[test]
fn serve_daemon_answers_http_and_exits_cleanly_on_sigterm() {
    use std::io::{BufRead, BufReader, Read, Write};

    let dir = scratch(&[]);
    let mut child = webssari()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--jobs",
            "2",
            "--cache-dir",
            dir.join("cache").to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("daemon prints a banner")
        .expect("banner is UTF-8");
    let addr = banner
        .rsplit_once("http://")
        .map(|(_, a)| a.trim().to_owned())
        .expect("banner names the address");

    let mut stream = std::net::TcpStream::connect(&addr).expect("connect to daemon");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("\"status\":\"ok\""), "{response}");

    // SIGTERM must drain and exit 0 (the graceful path, not a kill).
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let status = child.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0), "graceful shutdown exits 0");
    assert!(
        dir.join("cache").join("webssari-cache.json").exists()
            || std::fs::read_dir(dir.join("cache")).is_ok_and(|d| d.count() > 0),
        "cache flushed on shutdown",
    );
}

#[test]
fn serve_has_one_transport_and_rejects_threaded() {
    // The trailing bad `--jobs 0` makes a build that still accepted the
    // retired flag fail fast on the wrong message instead of serving.
    let out = webssari()
        .args(["serve", "--threaded", "--jobs", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown serve option \"--threaded\""),
        "{stderr}"
    );
}

#[test]
fn engine_flags_reject_unsupported_combinations() {
    let dir = scratch(&[("index.php", VULN)]);
    let out = webssari()
        .args(["verify", dir.to_str().unwrap(), "--jobs", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = webssari()
        .args([
            "verify",
            dir.to_str().unwrap(),
            "--cache-dir",
            dir.join("cache").to_str().unwrap(),
            "--html",
            dir.join("r.html").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}
