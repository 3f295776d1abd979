//! Load-generates the verification daemon and writes `BENCH_serve.json`:
//! the keep-alive event loop over a cold (all cache misses) and a warm
//! (all cache hits) phase, with open-loop client connections and
//! configurable pipelining depth.
//!
//! ```text
//! cargo run --release -p webssari-bench --bin bench_serve              # full run → BENCH_serve.json
//! cargo run --release -p webssari-bench --bin bench_serve -- \
//!     --fast --out BENCH_serve.fast.json --check BENCH_serve.json      # CI smoke mode
//! ```
//!
//! `--fast` shrinks request counts for CI. `--check FILE` validates a
//! committed baseline *and* the current run against the vacuity
//! guards — every row nonzero requests and zero errors, warm rows
//! with real cache hits at 8+ connections — and requires the warm
//! phase to reach an absolute floor of [`WARM_FLOOR_RPS_X100`]. Wall
//! times are never compared across runs.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use jsonio::Value;
use webssari_engine::EngineBuilder;
use webssari_serve::{Server, ServerConfig, ServerHandle};

/// Minimum warm throughput, in requests per second × 100 (10,000
/// req/s): about a quarter of what a 2-vCPU VM sustains, so only a
/// real regression trips it, not scheduling noise.
const WARM_FLOOR_RPS_X100: u64 = 1_000_000;

/// One measured serving phase.
struct Row {
    phase: &'static str,
    connections: usize,
    pipeline: usize,
    requests: u64,
    errors: u64,
    cache_hits: u64,
    wall: Duration,
    p50: Duration,
    p95: Duration,
    p99: Duration,
}

impl Row {
    fn rps(&self) -> f64 {
        self.requests as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("phase", Value::str(self.phase)),
            ("connections", Value::Num(self.connections as u64)),
            ("pipeline", Value::Num(self.pipeline as u64)),
            ("requests", Value::Num(self.requests)),
            ("errors", Value::Num(self.errors)),
            ("cache_hits", Value::Num(self.cache_hits)),
            ("wall_ms", Value::Num(self.wall.as_millis() as u64)),
            ("rps_x100", Value::Num((self.rps() * 100.0) as u64)),
            ("p50_us", Value::Num(self.p50.as_micros() as u64)),
            ("p95_us", Value::Num(self.p95.as_micros() as u64)),
            ("p99_us", Value::Num(self.p99.as_micros() as u64)),
        ])
    }
}

/// A distinct-per-index PHP source: unique content key, same tiny
/// verification workload.
fn php_source(tag: &str, index: usize) -> String {
    format!("<?php /* {tag}-{index} */ $x = $_GET['x']; echo $x;")
}

fn request_bytes(file: &str, source: &str) -> Vec<u8> {
    format!(
        "POST /verify?file={file} HTTP/1.1\r\nHost: bench\r\n\
         Content-Length: {}\r\n\r\n{source}",
        source.len(),
    )
    .into_bytes()
}

/// Reads one framed response from the front of `residue` (topping it
/// up from the socket as needed), leaving any overread bytes of the
/// next pipelined response in place. Returns whether it was a 200
/// with a verification outcome in the body.
fn read_framed(stream: &mut TcpStream, residue: &mut Vec<u8>) -> Result<bool, std::io::Error> {
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(i) = residue.windows(4).position(|w| w == b"\r\n\r\n") {
            break i + 4;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        residue.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&residue[..head_end]).to_string();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    while residue.len() < head_end + content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        residue.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&residue[head_end..head_end + content_length]).to_string();
    residue.drain(..head_end + content_length);
    let ok = head.starts_with("HTTP/1.1 200") && body.contains("outcome");
    if !ok && std::env::var_os("BENCH_SERVE_DEBUG").is_some() {
        eprintln!("--- bad response ---\n{head}{body}");
    }
    Ok(ok)
}

/// Issues `quota` requests over one keep-alive connection, `pipeline`
/// requests in flight per write burst. Returns per-request latencies
/// and the error count.
fn keep_alive_client(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    pipeline: usize,
) -> (Vec<Duration>, u64) {
    let mut latencies = Vec::with_capacity(requests.len());
    let mut errors = 0u64;
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return (latencies, requests.len() as u64);
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let mut residue = Vec::new();
    let mut next = 0usize;
    let mut answered = 0u64;
    while next < requests.len() {
        let burst = pipeline.min(requests.len() - next);
        let burst_started = Instant::now();
        for req in &requests[next..next + burst] {
            if stream.write_all(req).is_err() {
                return (latencies, errors + (requests.len() as u64 - answered));
            }
        }
        for _ in 0..burst {
            match read_framed(&mut stream, &mut residue) {
                Ok(true) => {
                    latencies.push(burst_started.elapsed());
                    answered += 1;
                }
                Ok(false) => {
                    errors += 1;
                    answered += 1;
                }
                Err(_) => return (latencies, errors + (requests.len() as u64 - answered)),
            }
        }
        next += burst;
    }
    (latencies, errors)
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Runs one phase: `per_conn[i]` is connection i's request scripts.
fn run_phase(
    server: &ServerHandle,
    phase: &'static str,
    per_conn: Vec<Vec<Vec<u8>>>,
    pipeline: usize,
) -> Row {
    let addr = server.local_addr();
    let connections = per_conn.len();
    let total: usize = per_conn.iter().map(Vec::len).sum();
    let hits_before = server.state().engine.snapshot().cache_hits;
    let started = Instant::now();
    let results: Vec<(Vec<Duration>, u64)> = std::thread::scope(|s| {
        per_conn
            .iter()
            .map(|requests| s.spawn(move || keep_alive_client(addr, requests, pipeline)))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed();
    if std::env::var_os("BENCH_SERVE_DEBUG").is_some() {
        let probe = (|| -> Result<String, std::io::Error> {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(5)))?;
            stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: d\r\nConnection: close\r\n\r\n")?;
            let mut text = String::new();
            stream.read_to_string(&mut text)?;
            Ok(text)
        })();
        match probe {
            Ok(text) => {
                for line in text.lines() {
                    if line.starts_with("webssari_shard_queue_depth")
                        || line.starts_with("webssari_http_requests_total")
                        || line.starts_with("webssari_http_responses_total")
                        || line.starts_with("webssari_http_connections")
                    {
                        eprintln!("[{phase}] {line}");
                    }
                }
            }
            Err(e) => eprintln!("[{phase}] metrics probe failed: {e}"),
        }
    }
    let mut latencies: Vec<Duration> = Vec::with_capacity(total);
    let mut errors = 0u64;
    for (lat, err) in results {
        latencies.extend(lat);
        errors += err;
    }
    latencies.sort_unstable();
    Row {
        phase,
        connections,
        pipeline,
        requests: latencies.len() as u64,
        errors,
        cache_hits: server.state().engine.snapshot().cache_hits - hits_before,
        wall,
        p50: percentile(&latencies, 50.0),
        p95: percentile(&latencies, 95.0),
        p99: percentile(&latencies, 99.0),
    }
}

/// Splits `files` round-robin into per-connection request scripts.
fn scatter(files: &[(String, String)], connections: usize) -> Vec<Vec<Vec<u8>>> {
    let mut per_conn: Vec<Vec<Vec<u8>>> = vec![Vec::new(); connections];
    for (i, (file, source)) in files.iter().enumerate() {
        per_conn[i % connections].push(request_bytes(file, source));
    }
    per_conn
}

fn bench_event_loop(
    connections: usize,
    pipeline: usize,
    cold_files: usize,
    warm_requests: usize,
) -> Vec<Row> {
    let server = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            http_workers: 4,
            ..ServerConfig::default()
        },
        EngineBuilder::new().workers(4).build(),
    )
    .expect("bind bench server");

    // Cold: every request a distinct file — all cache misses.
    let cold: Vec<(String, String)> = (0..cold_files)
        .map(|i| (format!("cold{i}.php"), php_source("cold", i)))
        .collect();
    let cold_row = run_phase(&server, "cold", scatter(&cold, connections), pipeline);

    // Warm: requests cycle over a small pre-seeded set — all hits.
    let warm_pool: Vec<(String, String)> = (0..16)
        .map(|i| (format!("warm{i}.php"), php_source("warm", i)))
        .collect();
    // Seed one request at a time (unmeasured) so the phase measures
    // pure hits.
    let seeds: Vec<Vec<u8>> = warm_pool
        .iter()
        .map(|(file, source)| request_bytes(file, source))
        .collect();
    let (lat, err) = keep_alive_client(server.local_addr(), &seeds, 1);
    assert!(err == 0 && lat.len() == seeds.len(), "warm seeding failed");
    let warm: Vec<(String, String)> = (0..warm_requests)
        .map(|i| warm_pool[i % warm_pool.len()].clone())
        .collect();
    let warm_row = run_phase(&server, "warm", scatter(&warm, connections), pipeline);

    server.shutdown().expect("bench server shutdown");
    vec![cold_row, warm_row]
}

/// Applies the vacuity guards and the warm floor; returns the warm
/// throughput (`rps_x100`).
fn guard_rows(rows: &[Value], source: &str) -> Result<u64, String> {
    let mut warm_rps = None;
    if rows.is_empty() {
        return Err(format!("{source}: no rows"));
    }
    for row in rows {
        let phase = row.get("phase").and_then(Value::as_str).unwrap_or("?");
        let requests = row.get("requests").and_then(Value::as_u64).unwrap_or(0);
        let errors = row
            .get("errors")
            .and_then(Value::as_u64)
            .unwrap_or(u64::MAX);
        if requests == 0 {
            return Err(format!("{source}: {phase} measured zero requests"));
        }
        if errors != 0 {
            return Err(format!("{source}: {phase} had {errors} errors"));
        }
        for key in ["p50_us", "p95_us", "p99_us"] {
            if row.get(key).and_then(Value::as_u64).is_none() {
                return Err(format!("{source}: {phase} missing {key}"));
            }
        }
        if phase == "warm" {
            let hits = row.get("cache_hits").and_then(Value::as_u64).unwrap_or(0);
            if hits == 0 {
                return Err(format!(
                    "{source}: warm had zero cache hits (vacuous warm phase)"
                ));
            }
            let conns = row.get("connections").and_then(Value::as_u64).unwrap_or(0);
            if conns < 8 {
                return Err(format!("{source}: warm ran at {conns} < 8 connections"));
            }
            warm_rps = row.get("rps_x100").and_then(Value::as_u64);
        }
    }
    let Some(rps) = warm_rps else {
        return Err(format!("{source}: no warm row"));
    };
    if rps < WARM_FLOOR_RPS_X100 {
        return Err(format!(
            "{source}: warm throughput {:.1} req/s is below the {:.0} req/s floor",
            rps as f64 / 100.0,
            WARM_FLOOR_RPS_X100 as f64 / 100.0,
        ));
    }
    Ok(rps)
}

fn main() -> ExitCode {
    let mut fast = false;
    let mut out = String::from("BENCH_serve.json");
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => fast = true,
            "--out" => match args.next() {
                Some(p) => out = p,
                None => return usage("--out needs a path"),
            },
            "--check" => match args.next() {
                Some(p) => check = Some(p),
                None => return usage("--check needs a path"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
    }

    let connections = 16;
    let pipeline = 8;
    let (cold_files, warm_requests) = if fast { (24, 320) } else { (64, 1280) };

    let rows = bench_event_loop(connections, pipeline, cold_files, warm_requests);

    for row in &rows {
        println!(
            "{:<5} {:>2} conn x{:<2} {:>5} req {:>3} err {:>6} hits \
             {:>8.1} rps  p50 {:>9.3?}  p95 {:>9.3?}  p99 {:>9.3?}",
            row.phase,
            row.connections,
            row.pipeline,
            row.requests,
            row.errors,
            row.cache_hits,
            row.rps(),
            row.p50,
            row.p95,
            row.p99,
        );
    }

    let row_values: Vec<Value> = rows.iter().map(Row::to_json).collect();
    let doc = Value::obj(vec![
        (
            "config",
            Value::obj(vec![
                ("connections", Value::Num(connections as u64)),
                ("pipeline", Value::Num(pipeline as u64)),
                ("cold_files", Value::Num(cold_files as u64)),
                ("warm_requests", Value::Num(warm_requests as u64)),
                ("fast", Value::Bool(fast)),
            ]),
        ),
        ("rows", Value::Arr(row_values.clone())),
    ]);
    if let Err(e) = std::fs::write(&out, format!("{}\n", doc.to_json())) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");

    // This run must satisfy the guards regardless of --check.
    match guard_rows(&row_values, "this run") {
        Ok(rps) => println!(
            "warm throughput {:.1} req/s (floor {:.0} req/s)",
            rps as f64 / 100.0,
            WARM_FLOOR_RPS_X100 as f64 / 100.0,
        ),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(baseline_path) = check {
        let text = match std::fs::read_to_string(&baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Some(baseline) = jsonio::parse(&text) else {
            eprintln!("error: {baseline_path} is not valid JSON");
            return ExitCode::FAILURE;
        };
        let Some(rows) = baseline.get("rows").and_then(Value::as_arr) else {
            eprintln!("error: {baseline_path} has no rows array");
            return ExitCode::FAILURE;
        };
        match guard_rows(rows, &baseline_path) {
            Ok(_) => {
                println!("baseline {baseline_path} passes the vacuity guards and the warm floor")
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("usage: bench_serve [--fast] [--out FILE] [--check FILE]");
    ExitCode::FAILURE
}
