//! End-to-end smoke tests over real sockets: start the daemon on an
//! ephemeral port, speak raw HTTP/1.1 through `TcpStream`, and check
//! the full loop — routing, verification, warm cache, keep-alive and
//! pipelining, deadlines, load shedding, budgets, and graceful
//! shutdown with a cache flush.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use jsonio::Value;
use webssari_engine::EngineBuilder;
use webssari_serve::{Server, ServerConfig, ServerHandle};

/// The README's vulnerable quickstart snippet.
const SQLI: &str = r#"<?php
$sid = $_GET['sid'];
$query = "SELECT * FROM groups WHERE sid=$sid";
mysql_query($query);
"#;

fn start(config: ServerConfig) -> ServerHandle {
    let mut config = config;
    config.addr = "127.0.0.1:0".to_owned();
    Server::start(config, EngineBuilder::new().workers(2).build()).expect("bind ephemeral port")
}

/// Sends raw bytes, reads the whole response to EOF. The request must
/// carry `Connection: close` (or be an error the server answers with
/// one) or this blocks until the idle deadline.
fn send_raw(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(raw).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

fn get(addr: SocketAddr, path: &str) -> String {
    send_raw(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, path: &str, extra_headers: &str, body: &str) -> String {
    send_raw(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
             {extra_headers}Content-Length: {}\r\n\r\n{body}",
            body.len(),
        )
        .as_bytes(),
    )
}

/// Reads exactly one framed HTTP response off a persistent connection
/// (head to `\r\n\r\n`, then `Content-Length` body bytes). The head
/// is read a byte at a time so that no byte of the next pipelined
/// response is consumed and lost, however the responses coalesce.
fn read_framed(stream: &mut TcpStream) -> String {
    let mut bytes = Vec::new();
    let mut byte = [0u8; 1];
    while !bytes.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("read response head");
        assert!(n > 0, "EOF before response head finished");
        bytes.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&bytes).to_string();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .expect("response has a Content-Length");
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("EOF mid-body");
    bytes.extend_from_slice(&body);
    String::from_utf8_lossy(&bytes).to_string()
}

fn status_of(response: &str) -> u16 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"))
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or_else(|| panic!("no body in {response:?}"))
}

fn json_of(response: &str) -> Value {
    jsonio::parse(body_of(response)).unwrap_or_else(|| panic!("bad JSON in {response:?}"))
}

#[test]
fn verify_reports_sqli_rooted_at_sid_end_to_end() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();

    let health = get(addr, "/healthz");
    assert_eq!(status_of(&health), 200);
    assert_eq!(
        json_of(&health).get("status").and_then(Value::as_str),
        Some("ok"),
    );

    let response = post(addr, "/verify?file=index.php", "", SQLI);
    assert_eq!(status_of(&response), 200);
    let v = json_of(&response);
    assert_eq!(v.get("file").and_then(Value::as_str), Some("index.php"));
    assert_eq!(v.get("outcome").and_then(Value::as_str), Some("vulnerable"));
    let vulns = v.get("vulnerabilities").and_then(Value::as_arr).unwrap();
    assert_eq!(vulns.len(), 1, "one grouped root cause");
    assert_eq!(vulns[0].get("class").and_then(Value::as_str), Some("sqli"));
    assert_eq!(
        vulns[0].get("root_var").and_then(Value::as_str),
        Some("sid")
    );

    server.shutdown().expect("graceful shutdown");
}

#[test]
fn second_batch_is_served_from_the_warm_cache() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();
    let body = r#"{"files": [
        {"name": "a.php", "source": "<?php $x = $_GET['a']; echo $x;"},
        {"name": "b.php", "source": "<?php $y = 'safe'; echo $y;"}
    ]}"#;

    let first = post(addr, "/batch", "", body);
    assert_eq!(status_of(&first), 200);
    let summary = json_of(&first);
    let summary = summary.get("summary").unwrap();
    assert_eq!(summary.get("cache_misses").and_then(Value::as_u64), Some(2));

    let second = post(addr, "/batch", "", body);
    let v = json_of(&second);
    let summary = v.get("summary").unwrap();
    assert_eq!(summary.get("cache_hits").and_then(Value::as_u64), Some(2));
    assert_eq!(summary.get("cache_misses").and_then(Value::as_u64), Some(0));
    for f in v.get("files").and_then(Value::as_arr).unwrap() {
        assert_eq!(f.get("from_cache"), Some(&Value::Bool(true)));
    }

    // The warm cache shows up in the Prometheus exposition.
    let metrics = get(addr, "/metrics");
    assert_eq!(status_of(&metrics), 200);
    assert!(metrics.contains("webssari_engine_cache_hits_total 2"));
    assert!(metrics.contains("webssari_engine_cache_misses_total 2"));
    assert!(metrics.contains("webssari_http_requests_total{path=\"/batch\",status=\"200\"} 2"));

    server.shutdown().expect("graceful shutdown");
}

#[test]
fn sql_counters_flow_to_the_metrics_endpoint() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();

    // SQLI concatenates $sid into resolved SELECT query text: exactly
    // one SQL-structured assertion, and no store read in the trace.
    let response = post(addr, "/verify?file=q.php", "", SQLI);
    assert_eq!(status_of(&response), 200);
    assert_eq!(
        json_of(&response).get("outcome").and_then(Value::as_str),
        Some("vulnerable"),
    );

    let metrics = get(addr, "/metrics");
    assert_eq!(status_of(&metrics), 200);
    assert!(
        metrics.contains("webssari_engine_sql_assertions_total 1"),
        "metrics: {metrics}",
    );
    assert!(
        metrics.contains("webssari_engine_second_order_flows_total 0"),
        "metrics: {metrics}",
    );

    server.shutdown().expect("graceful shutdown");
}

/// Extracts one counter's value from the Prometheus exposition.
/// `name` includes labels when the metric has them.
fn metric_value(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("{name} missing from metrics:\n{metrics}"))
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("{name} is not an integer counter"))
}

#[test]
fn solver_counters_flow_to_metrics_and_are_monotone() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();

    const SOLVER_COUNTERS: [&str; 1] = ["webssari_sat_binary_propagations_total"];

    assert_eq!(status_of(&post(addr, "/verify?file=m1.php", "", SQLI)), 200);
    let first = get(addr, "/metrics");
    assert_eq!(status_of(&first), 200);
    // The solver keeps Luby restarts and activity reduction only, so
    // binary propagations are the one `webssari_sat_*` family left:
    // the retired restart, tier and root-simplification families are
    // absent.
    let sat_families: Vec<&str> = first
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split(' ').next())
        .filter(|name| name.starts_with("webssari_sat_"))
        .collect();
    assert_eq!(sat_families, SOLVER_COUNTERS, "metrics: {first}");
    let before: Vec<u64> = SOLVER_COUNTERS
        .iter()
        .map(|n| metric_value(&first, n))
        .collect();

    // A second, distinct file misses the cache, so the engine runs the
    // solver again: every counter is monotone across the two scrapes.
    let other = "<?php $x = $_GET['b']; echo $x; $y = 'safe'; mysql_query($y);";
    assert_eq!(
        status_of(&post(addr, "/verify?file=m2.php", "", other)),
        200,
    );
    let second = get(addr, "/metrics");
    for (name, prev) in SOLVER_COUNTERS.iter().zip(before) {
        let now = metric_value(&second, name);
        assert!(now >= prev, "{name} went backwards: {prev} -> {now}");
    }

    server.shutdown().expect("graceful shutdown");
}

#[test]
fn exhausted_budget_returns_well_formed_timeout_json() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();
    let response = post(addr, "/verify", "X-Webssari-Budget-Ms: 0\r\n", SQLI);
    assert_eq!(status_of(&response), 200);
    let v = json_of(&response);
    assert_eq!(v.get("outcome").and_then(Value::as_str), Some("timeout"));
    // The timeout was not cached: the next full-budget request concludes.
    let retry = post(addr, "/verify", "", SQLI);
    assert_eq!(
        json_of(&retry).get("outcome").and_then(Value::as_str),
        Some("vulnerable"),
    );
    // A TS-clean file never enters the solver, so a zero budget cannot
    // interrupt it: it verifies (and is uncached, so this is a fresh
    // check under the zero budget, not a cache hit).
    let clean = post(
        addr,
        "/verify?file=clean.php",
        "X-Webssari-Budget-Ms: 0\r\n",
        "<?php\necho htmlspecialchars($_GET['m']);\n",
    );
    assert_eq!(status_of(&clean), 200);
    let v = json_of(&clean);
    assert_eq!(v.get("outcome").and_then(Value::as_str), Some("verified"));
    assert_eq!(v.get("from_cache"), Some(&Value::Bool(false)));
    server.shutdown().expect("graceful shutdown");
}

/// A `/batch` body holding one branch-heavy vulnerable page: a cache
/// miss whose solver work keeps a worker busy for a while (~0.5 s in a
/// debug build, ~0.1 s in release).
fn slow_batch() -> String {
    let mut page = String::from("<?php\n$q = 'SELECT * FROM t WHERE a=';\n");
    for i in 0..12 {
        page.push_str(&format!(
            "if ($_GET['c{i}']) {{ $q = $q . $_GET['v{i}']; }} else {{ $q = $q . 'k{i}'; }}\n"
        ));
    }
    page.push_str("mysql_query($q);\necho $q;\n");
    format!(
        "{{\"files\": [{{\"name\": \"slow.php\", \"source\": {}}}]}}",
        Value::str(page).to_json(),
    )
}

/// Polls `done` every millisecond; fails after 20 s.
fn wait_for(what: &str, done: &dyn Fn() -> bool) {
    let begin = std::time::Instant::now();
    while !done() {
        assert!(begin.elapsed() < Duration::from_secs(20), "never {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn full_queue_sheds_with_429_and_retry_after() {
    // One worker, one queue slot: a long cold batch pins the worker, a
    // second request fills the slot, and a third must be shed.
    let server = start(ServerConfig {
        http_workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let state = std::sync::Arc::clone(server.state());

    let batch = slow_batch();
    let pinned = std::thread::spawn(move || post(addr, "/batch", "", &batch));
    wait_for("started the batch", &|| {
        state.engine.snapshot().jobs_in_flight > 0
    });
    let queued = std::thread::spawn(move || get(addr, "/healthz"));
    wait_for("queued the second request", &|| state.queue.len() == 1);

    let shed = get(addr, "/healthz");
    assert_eq!(status_of(&shed), 429, "response: {shed:?}");
    assert!(shed.contains("Retry-After: 1\r\n"), "response: {shed:?}");

    // The pinned and the queued request both complete; service resumes.
    let pinned = pinned.join().expect("batch client");
    assert_eq!(status_of(&pinned), 200, "response: {pinned:?}");
    let summary = json_of(&pinned);
    let summary = summary.get("summary").unwrap();
    assert_eq!(summary.get("cache_misses").and_then(Value::as_u64), Some(1));
    assert_eq!(status_of(&queued.join().expect("queued client")), 200);
    assert_eq!(status_of(&get(addr, "/healthz")), 200);

    let metrics = get(addr, "/metrics");
    assert!(metrics.contains("webssari_queue_rejected_total 1\n"));
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn an_idle_worker_takes_a_verify_while_another_runs_a_batch() {
    // Two workers: a long cold batch pins one, and a cold `/verify`
    // must go to the other at once rather than wait behind the batch.
    // `x.php` has an odd FNV-1a hash and the batch is the first
    // request, so lanes chosen by file-name hash beside a round robin
    // from 1 would queue both on the second worker.
    let server = start(ServerConfig {
        http_workers: 2,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let state = std::sync::Arc::clone(server.state());

    let batch = slow_batch();
    let pinned = std::thread::spawn(move || post(addr, "/batch", "", &batch));
    wait_for("started the batch", &|| {
        state.engine.snapshot().jobs_in_flight > 0
    });
    let verified = post(addr, "/verify?file=x.php", "", SQLI);
    let snapshot = state.engine.snapshot();
    assert_eq!(status_of(&verified), 200, "response: {verified:?}");
    let v = json_of(&verified);
    assert_eq!(v.get("outcome").and_then(Value::as_str), Some("vulnerable"));
    assert_eq!(v.get("from_cache"), Some(&Value::Bool(false)));
    assert_eq!(
        snapshot.batches_completed, 1,
        "the /verify waited for the batch"
    );

    let pinned = pinned.join().expect("batch client");
    assert_eq!(status_of(&pinned), 200, "response: {pinned:?}");
    assert_eq!(state.engine.snapshot().batches_completed, 2);
    server.shutdown().expect("graceful shutdown");
}

/// A `/batch` body of `files` (name, source).
fn batch_body(files: &[(&str, &str)]) -> String {
    let files: Vec<Value> = files
        .iter()
        .map(|(name, source)| {
            Value::obj(vec![
                ("name", Value::str(*name)),
                ("source", Value::str(*source)),
            ])
        })
        .collect();
    Value::obj(vec![("files", Value::Arr(files))]).to_json()
}

#[test]
fn an_edited_batch_reverifies_only_the_edited_page_and_its_includers() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();
    let project = |lib: &str| {
        batch_body(&[
            ("lib.php", lib),
            ("page.php", "<?php include 'lib.php'; echo $v;"),
            ("other.php", "<?php include 'footer.php'; echo 'x';"),
            ("footer.php", "<?php echo 'footer';"),
            (
                "writer.php",
                "<?php $w = $_POST['w']; mysql_query(\"INSERT INTO msgs (c) VALUES ('$w')\");",
            ),
            (
                "reader.php",
                "<?php $h = mysql_query('SELECT c FROM msgs'); \
                 $r = mysql_fetch_array($h); echo $r;",
            ),
        ])
    };
    let lib = "<?php $v = $_GET['v'];";
    let cold = json_of(&post(addr, "/batch", "", &project(lib)));
    let summary = cold.get("summary").unwrap();
    assert_eq!(summary.get("cache_misses").and_then(Value::as_u64), Some(6));

    let edited = post(addr, "/batch", "", &project(&format!("{lib}\n// edit\n")));
    assert_eq!(status_of(&edited), 200, "response: {edited:?}");
    let v = json_of(&edited);
    let summary = v.get("summary").unwrap();
    assert_eq!(summary.get("cache_misses").and_then(Value::as_u64), Some(2));
    assert_eq!(summary.get("cache_hits").and_then(Value::as_u64), Some(4));
    let fresh: Vec<&str> = v
        .get("files")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .filter(|f| f.get("from_cache") == Some(&Value::Bool(false)))
        .filter_map(|f| f.get("file").and_then(Value::as_str))
        .collect();
    assert_eq!(fresh, ["lib.php", "page.php"]);

    let metrics = get(addr, "/metrics");
    assert!(
        metrics.contains("webssari_engine_cache_hits_total 4\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("webssari_engine_cache_misses_total 8\n"),
        "{metrics}"
    );
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn a_warm_store_reader_is_answered_inline_from_the_cache() {
    // One worker, one queue slot: once a slow batch pins the worker and
    // a second request fills the slot, any request that needs a worker
    // is shed with 429. A warm `/verify` of a page that reads the store
    // it writes must still come back 200 from the cache: the inline
    // path checks the summary digest the entry recorded itself.
    let server = start(ServerConfig {
        http_workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let state = std::sync::Arc::clone(server.state());
    let page = "<?php $_SESSION['n'] = $_GET['n']; $m = $_SESSION['n']; echo $m;";

    let cold = json_of(&post(addr, "/verify?file=guest.php", "", page));
    assert_eq!(cold.get("from_cache"), Some(&Value::Bool(false)));
    assert_eq!(
        cold.get("outcome").and_then(Value::as_str),
        Some("vulnerable")
    );

    let batch = slow_batch();
    let pinned = std::thread::spawn(move || post(addr, "/batch", "", &batch));
    wait_for("started the batch", &|| {
        state.engine.snapshot().jobs_in_flight > 0
    });
    let queued = std::thread::spawn(move || get(addr, "/healthz"));
    wait_for("queued the second request", &|| state.queue.len() == 1);

    let warm = post(addr, "/verify?file=guest.php", "", page);
    assert_eq!(status_of(&warm), 200, "response: {warm:?}");
    let v = json_of(&warm);
    assert_eq!(v.get("from_cache"), Some(&Value::Bool(true)));
    assert_eq!(v.get("outcome").and_then(Value::as_str), Some("vulnerable"));

    assert_eq!(status_of(&pinned.join().expect("batch client")), 200);
    assert_eq!(status_of(&queued.join().expect("queued client")), 200);
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn malformed_requests_get_clean_errors_and_the_server_survives() {
    let server = start(ServerConfig {
        max_body_bytes: 1024,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    assert_eq!(status_of(&send_raw(addr, b"BLARG\r\n\r\n")), 400);
    assert_eq!(
        status_of(&send_raw(addr, b"POST /verify HTTP/1.1\r\nHost: t\r\n\r\n")),
        411,
    );
    let oversized = format!(
        "POST /verify HTTP/1.1\r\nContent-Length: 4096\r\n\r\n{}",
        "x".repeat(4096),
    );
    assert_eq!(status_of(&send_raw(addr, oversized.as_bytes())), 413);
    let huge_head = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(64 * 1024));
    assert_eq!(status_of(&send_raw(addr, huge_head.as_bytes())), 431);
    // A client that gives up mid-request never wedges a worker.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /verify HTTP/1.1\r\nContent-")
            .unwrap();
    }

    assert_eq!(status_of(&get(addr, "/healthz")), 200);
    let metrics = get(addr, "/metrics");
    assert!(metrics.contains("status=\"413\""));
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn deeply_nested_source_is_a_parse_error_and_the_server_survives() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();
    // 20,000 levels: each shape used to overflow a worker's stack and
    // abort the daemon.
    let deep = [
        format!("<?php $x = {}1;", "!".repeat(20_000)),
        format!("<?php $x = {}f();", "@".repeat(20_000)),
        format!("<?php {}1;", "$a = ".repeat(20_000)),
        format!("<?php $x = {}1;", "1 ? 1 : ".repeat(20_000)),
        format!("<?php $x = $a{};", " . $a".repeat(20_000)),
        // ~500 KB, under the 1 MiB body cap.
        format!(
            "<?php if ($a) {{ $b = 1; }}{} echo $_GET['a'];",
            " elseif ($a) { $b = 1; }".repeat(20_000)
        ),
    ];
    for (i, body) in deep.iter().enumerate() {
        let response = post(addr, &format!("/verify?file=deep{i}.php"), "", body);
        assert_eq!(status_of(&response), 200, "{response}");
        let v = json_of(&response);
        let file = format!("deep{i}.php");
        assert_eq!(v.get("file").and_then(Value::as_str), Some(file.as_str()));
        assert_eq!(
            v.get("outcome").and_then(Value::as_str),
            Some("parse-error")
        );
        let error = v.get("error").and_then(Value::as_str).unwrap_or_default();
        assert!(error.contains("nesting deeper than"), "{error}");
        // The next request, on a new connection, is answered.
        let health = get(addr, "/healthz");
        assert_eq!(status_of(&health), 200);
    }
    let response = post(addr, "/verify?file=index.php", "", SQLI);
    assert_eq!(
        json_of(&response).get("outcome").and_then(Value::as_str),
        Some("vulnerable"),
    );
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn deeply_nested_batch_json_is_a_400_and_the_server_survives() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();
    // ~100 KB, under the 1 MiB body cap: parsing it once recursed per
    // `[` and overflowed a worker's stack, aborting the daemon.
    let body = "{\"files\":".to_owned() + &"[".repeat(50_000);
    let response = post(addr, "/batch", "", &body);
    assert_eq!(status_of(&response), 400, "{response}");
    assert_eq!(status_of(&get(addr, "/healthz")), 200);
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn batch_json_with_escaped_astral_chars_is_accepted() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();
    // What Python's `json.dumps` writes for an emoji: a surrogate pair.
    let body = r#"{"files": [
        {"name": "\ud83d\ude00.php", "source": "<?php echo \"\ud83d\ude00\" . $_GET['a'];"}
    ]}"#;
    let response = post(addr, "/batch", "", body);
    assert_eq!(status_of(&response), 200, "{response}");
    let v = json_of(&response);
    let file = &v.get("files").and_then(Value::as_arr).unwrap()[0];
    assert_eq!(
        file.get("file").and_then(Value::as_str),
        Some("\u{1f600}.php")
    );
    assert_eq!(
        file.get("outcome").and_then(Value::as_str),
        Some("vulnerable")
    );
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn shutdown_flushes_the_cache_and_a_restart_rewarms_it() {
    let dir = std::env::temp_dir().join(format!(
        "webssari-serve-e2e-{}-{:?}",
        std::process::id(),
        std::thread::current().id(),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig::default();

    let server = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..config.clone()
        },
        EngineBuilder::new().cache_dir(&dir).build(),
    )
    .expect("bind");
    let first = post(server.local_addr(), "/verify?file=index.php", "", SQLI);
    assert_eq!(json_of(&first).get("from_cache"), Some(&Value::Bool(false)),);
    let flushed = server.shutdown().expect("graceful shutdown");
    assert!(flushed.is_some_and(|p| p.is_file()), "cache file written");

    // A fresh daemon over the same cache dir serves the result warm.
    let server = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..config
        },
        EngineBuilder::new().cache_dir(&dir).build(),
    )
    .expect("bind again");
    let again = post(server.local_addr(), "/verify?file=index.php", "", SQLI);
    let v = json_of(&again);
    assert_eq!(v.get("from_cache"), Some(&Value::Bool(true)));
    assert_eq!(v.get("outcome").and_then(Value::as_str), Some("vulnerable"));
    server.shutdown().expect("graceful shutdown");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for i in 0..3 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let response = read_framed(&mut stream);
        assert_eq!(status_of(&response), 200, "request {i}");
        assert!(
            response.contains("Connection: keep-alive\r\n"),
            "HTTP/1.1 without Connection: close stays open: {response:?}",
        );
    }
    drop(stream);

    let state = std::sync::Arc::clone(server.state());
    server.shutdown().expect("graceful shutdown");
    // All three requests shared one accepted connection.
    assert_eq!(state.metrics.requests_with_status(200), 3);
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Two back-to-back requests in a single write; the second is a
    // POST so mixing up response order would be obvious.
    let batch = format!(
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
         POST /verify?file=p.php HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{SQLI}",
        SQLI.len(),
    );
    stream.write_all(batch.as_bytes()).unwrap();

    let first = read_framed(&mut stream);
    assert_eq!(status_of(&first), 200);
    assert_eq!(
        json_of(&first).get("status").and_then(Value::as_str),
        Some("ok"),
        "first response answers the first (healthz) request",
    );
    let second = read_framed(&mut stream);
    assert_eq!(status_of(&second), 200);
    assert_eq!(
        json_of(&second).get("outcome").and_then(Value::as_str),
        Some("vulnerable"),
        "second response answers the pipelined verify",
    );
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn http_10_defaults_to_close_unless_keep_alive_is_asked_for() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();

    // Plain HTTP/1.0: answered, then closed (read_to_string sees EOF).
    let response = send_raw(addr, b"GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n");
    assert_eq!(status_of(&response), 200);
    assert!(response.contains("Connection: close\r\n"));

    // HTTP/1.0 with an explicit keep-alive: the connection survives a
    // second request.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.0\r\nHost: t\r\nConnection: keep-alive\r\n\r\n")
        .unwrap();
    let first = read_framed(&mut stream);
    assert_eq!(status_of(&first), 200);
    assert!(first.contains("Connection: keep-alive\r\n"));
    stream
        .write_all(b"GET /healthz HTTP/1.0\r\nHost: t\r\nConnection: keep-alive\r\n\r\n")
        .unwrap();
    assert_eq!(status_of(&read_framed(&mut stream)), 200);

    server.shutdown().expect("graceful shutdown");
}

#[test]
fn idle_keep_alive_connections_are_closed_at_the_idle_deadline() {
    let server = start(ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    assert_eq!(status_of(&read_framed(&mut stream)), 200);

    // Stay silent past the idle deadline: the server closes (EOF),
    // with no 408 or other bytes — the request was never started.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("EOF, not a timeout");
    assert!(
        rest.is_empty(),
        "idle close must be silent, got {:?}",
        String::from_utf8_lossy(&rest),
    );
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn half_sent_requests_get_408_at_the_read_deadline() {
    let server = start(ServerConfig {
        read_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Start a request and stall (slowloris).
    stream.write_all(b"GET /healthz HTT").unwrap();
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("408 then close");
    assert_eq!(status_of(&response), 408);
    assert!(response.contains("Connection: close\r\n"));
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn shutdown_closes_idle_keep_alive_connections_promptly() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();

    // Two established keep-alive connections sitting idle.
    let mut idle1 = TcpStream::connect(addr).expect("connect");
    let mut idle2 = TcpStream::connect(addr).expect("connect");
    for stream in [&mut idle1, &mut idle2] {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        assert_eq!(status_of(&read_framed(stream)), 200);
    }

    // Graceful shutdown must not wait out the 30s idle deadline.
    let begin = std::time::Instant::now();
    server.shutdown().expect("graceful shutdown");
    assert!(
        begin.elapsed() < Duration::from_secs(5),
        "drain stalled on idle keep-alive connections: {:?}",
        begin.elapsed(),
    );
    // Both idle peers see EOF.
    for stream in [&mut idle1, &mut idle2] {
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("EOF after shutdown");
        assert!(rest.is_empty());
    }
}

#[test]
fn latency_histogram_buckets_are_monotone_end_to_end() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();

    for _ in 0..5 {
        assert_eq!(status_of(&get(addr, "/healthz")), 200);
    }
    assert_eq!(status_of(&post(addr, "/verify?file=h.php", "", SQLI)), 200);

    let metrics = get(addr, "/metrics");
    let mut paths_seen = 0;
    for path in ["/healthz", "/verify"] {
        let prefix = format!("webssari_http_request_duration_seconds_bucket{{path=\"{path}\",le=");
        let counts: Vec<u64> = metrics
            .lines()
            .filter(|l| l.starts_with(&prefix))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(!counts.is_empty(), "no histogram for {path}:\n{metrics}");
        assert!(
            counts.windows(2).all(|w| w[0] <= w[1]),
            "{path} buckets must be cumulative-monotone: {counts:?}",
        );
        let count_line = format!(
            "webssari_http_request_duration_seconds_count{{path=\"{path}\"}} {}",
            counts.last().unwrap(),
        );
        assert!(
            metrics.contains(&count_line),
            "+Inf bucket must equal _count for {path}",
        );
        paths_seen += 1;
    }
    assert_eq!(paths_seen, 2);
    server.shutdown().expect("graceful shutdown");
}
