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
    // goes to BMC and times out.
    let sanitized = "<?php\necho htmlspecialchars($_GET['v']);\n";
    let dir = scratch(&[("index.php", VULN), ("safe.php", sanitized)]);
    let cache = dir.join("cache");
    let out = webssari()
        .args([
            "verify",
            dir.to_str().unwrap(),
            "--summary",
            "--solve-budget-ms",
            "0",
            "--cache-dir",
            cache.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "timeouts alone exit 0: {stdout}"
    );
    assert!(stdout.contains("cache: 0 hit(s), 2 miss(es)"), "{stdout}");
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
        stdout.contains("1 verified, 0 vulnerable, 1 timeout"),
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
    let out = webssari()
        .args([
            "verify",
            dir.to_str().unwrap(),
            "--html",
            report.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let html = std::fs::read_to_string(&report).unwrap();
    assert!(html.contains("WebSSARI verification report"));
    assert!(html.contains("class='line sink'"));
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
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
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
            "--jobs",
            "2",
            "--html",
            dir.join("r.html").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}
