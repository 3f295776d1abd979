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
use webssari_serve::{ServeMode, Server, ServerConfig, ServerHandle};

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
/// (head to `\r\n\r\n`, then `Content-Length` body bytes).
fn read_framed(stream: &mut TcpStream) -> String {
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(i) = bytes.windows(4).position(|w| w == b"\r\n\r\n") {
            break i + 4;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "EOF before response head finished");
        bytes.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&bytes[..head_end]).to_string();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .expect("response has a Content-Length");
    while bytes.len() < head_end + content_length {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "EOF mid-body");
        bytes.extend_from_slice(&chunk[..n]);
    }
    String::from_utf8_lossy(&bytes[..head_end + content_length]).to_string()
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
fn solver_tier_counters_flow_to_metrics_and_are_monotone() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();

    const SOLVER_COUNTERS: [&str; 6] = [
        "webssari_sat_binary_propagations_total",
        "webssari_sat_glue_restarts_total",
        "webssari_sat_inprocessing_removed_total",
        "webssari_sat_glue_tier_total{tier=\"core\"}",
        "webssari_sat_glue_tier_total{tier=\"mid\"}",
        "webssari_sat_glue_tier_total{tier=\"local\"}",
    ];

    assert_eq!(status_of(&post(addr, "/verify?file=m1.php", "", SQLI)), 200);
    let first = get(addr, "/metrics");
    assert_eq!(status_of(&first), 200);
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

#[test]
fn full_queue_sheds_with_429_and_retry_after() {
    // The legacy threaded core: idle connections pin its workers, so
    // two of them are enough to fill the depth-1 queue.
    let server = start(ServerConfig {
        http_workers: 1,
        queue_depth: 1,
        mode: ServeMode::Threaded,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // Two idle connections: one parks the single worker mid-read, the
    // other fills the depth-1 queue.
    let idle1 = TcpStream::connect(addr).expect("connect idle");
    std::thread::sleep(Duration::from_millis(150));
    let idle2 = TcpStream::connect(addr).expect("connect idle");
    std::thread::sleep(Duration::from_millis(100));

    let shed = get(addr, "/healthz");
    assert_eq!(status_of(&shed), 429, "response: {shed:?}");
    assert!(shed.contains("Retry-After: 1\r\n"));

    // Closing the idle connections frees the worker; service resumes.
    drop(idle1);
    drop(idle2);
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(status_of(&get(addr, "/healthz")), 200);

    let metrics = get(addr, "/metrics");
    assert!(metrics.contains("webssari_queue_rejected_total 1"));
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

#[test]
fn warm_responses_are_identical_across_serve_modes() {
    // The event loop answers warm `/verify` hits inline; the threaded
    // mode goes through the worker path. Same request, same bytes.
    let mut bodies = Vec::new();
    for mode in [ServeMode::Threaded, ServeMode::default_for_platform()] {
        let server = start(ServerConfig {
            mode,
            ..ServerConfig::default()
        });
        let addr = server.local_addr();
        let cold = post(addr, "/verify?file=same.php", "", SQLI);
        assert_eq!(status_of(&cold), 200);
        let warm = post(addr, "/verify?file=same.php", "", SQLI);
        assert_eq!(status_of(&warm), 200);
        let v = json_of(&warm);
        assert_eq!(v.get("from_cache"), Some(&Value::Bool(true)));
        let body = body_of(&warm);
        let cut = body.rfind(",\"wall_ms\"").expect("wall_ms field");
        bodies.push(body[..cut].to_owned());
        server.shutdown().expect("graceful shutdown");
    }
    assert_eq!(bodies[0], bodies[1]);
}
