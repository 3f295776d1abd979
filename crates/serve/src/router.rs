//! Route dispatch: one parsed [`Request`] in, one [`Response`] out.
//!
//! Handlers are pure functions over [`AppState`] — no sockets — so the
//! whole API surface is unit-testable without binding a port.

use std::time::Duration;

use jsonio::Value;
use php_front::SourceSet;
use webssari_core::{json as report_json, FileOutcome, SolveBudget};
use webssari_engine::{EngineFileResult, EngineReport};

use crate::http::{Request, Response};
use crate::metrics::route_label;
use crate::AppState;

/// The file name a `/verify` request without `?file=` is verified
/// (and cached) under.
const DEFAULT_VERIFY_FILE: &str = "request.php";

/// Dispatches one request. Returns the route label (for metrics) and
/// the response.
pub fn route(state: &AppState, req: &Request) -> (&'static str, Response) {
    let label = route_label(&req.path);
    let response = match (req.path.as_str(), req.method.as_str()) {
        ("/healthz", "GET") => healthz(state),
        ("/metrics", "GET") => metrics(state),
        ("/verify", "POST") => verify(state, req),
        ("/batch", "POST") => batch(state, req),
        ("/healthz" | "/metrics", _) => method_not_allowed("GET"),
        ("/verify" | "/batch", _) => method_not_allowed("POST"),
        _ => Response::error(
            404,
            "no such route; try POST /verify, POST /batch, GET /healthz, GET /metrics",
        ),
    };
    (label, response)
}

fn method_not_allowed(allow: &str) -> Response {
    Response::error(405, format!("method not allowed; use {allow}")).header("Allow", allow)
}

fn healthz(state: &AppState) -> Response {
    Response::json(
        200,
        &Value::obj(vec![
            ("status", Value::str("ok")),
            (
                "cached_files",
                Value::Num(state.engine.cached_files() as u64),
            ),
        ]),
    )
}

fn metrics(state: &AppState) -> Response {
    let snapshot = state.engine.snapshot();
    let text = state
        .metrics
        .render_prometheus(&snapshot, state.queue.len());
    Response::new(200)
        .header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        .with_body(text.into_bytes())
}

fn verify(state: &AppState, req: &Request) -> Response {
    let Ok(source) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "body must be UTF-8 PHP source");
    };
    if source.trim().is_empty() {
        return Response::error(400, "empty body; POST the PHP source to verify");
    }
    let file = req
        .query_param("file")
        .unwrap_or(DEFAULT_VERIFY_FILE)
        .to_owned();
    let budget = match effective_budget(state, req) {
        Ok(b) => b,
        Err(resp) => return *resp,
    };
    let mut set = SourceSet::new();
    set.add_file(file, source);
    let report = state.engine.run_with_budget(&set, budget);
    verify_report_response(&report)
}

/// The shared `/verify` response tail: one report in, one response
/// out. Both the worker path ([`verify`]) and the event loop's warm
/// fast path ([`try_verify_cached`]) end here, so a cached answer is
/// byte-identical to a freshly dispatched one.
fn verify_report_response(report: &EngineReport) -> Response {
    if let Some((name, error)) = report.failed_files.first() {
        return Response::json(
            200,
            &Value::obj(vec![
                ("file", Value::str(name.clone())),
                ("outcome", Value::str(FileOutcome::ParseError.as_str())),
                ("error", Value::str(error.clone())),
            ]),
        );
    }
    let Some(result) = report.files.first() else {
        return Response::error(500, "engine returned no result");
    };
    Response::json(200, &file_result_value(result, Some(report)))
}

/// Answers a `POST /verify` straight from the engine's warm cache, or
/// returns `None` when anything — wrong method, malformed body or
/// budget header, cache miss — needs the full worker path. Only clean
/// cache hits are answered here, so the event loop can call this
/// inline: the work is one bounded cache lookup plus serialization,
/// never a verification.
pub(crate) fn try_verify_cached(state: &AppState, req: &Request) -> Option<Response> {
    if req.path != "/verify" || req.method != "POST" {
        return None;
    }
    let source = std::str::from_utf8(&req.body).ok()?;
    if source.trim().is_empty() {
        return None;
    }
    // A malformed budget header must 400 through the worker path.
    if effective_budget(state, req).is_err() {
        return None;
    }
    let file = req
        .query_param("file")
        .unwrap_or(DEFAULT_VERIFY_FILE)
        .to_owned();
    let mut set = SourceSet::new();
    set.add_file(file, source);
    let report = state.engine.try_run_cached(&set)?;
    Some(verify_report_response(&report))
}

fn batch(state: &AppState, req: &Request) -> Response {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "body must be UTF-8 JSON");
    };
    let Some(value) = jsonio::parse(text) else {
        return Response::error(400, "body must be valid JSON");
    };
    let Some(files) = value.get("files").and_then(Value::as_arr) else {
        return Response::error(
            400,
            "expected {\"files\": [{\"name\": ..., \"source\": ...}]}",
        );
    };
    if files.is_empty() {
        return Response::error(400, "\"files\" must not be empty");
    }
    let mut set = SourceSet::new();
    for (i, entry) in files.iter().enumerate() {
        let name = entry.get("name").and_then(Value::as_str);
        let source = entry.get("source").and_then(Value::as_str);
        let (Some(name), Some(source)) = (name, source) else {
            return Response::error(
                400,
                format!("files[{i}] must have string \"name\" and \"source\" fields"),
            );
        };
        set.add_file(name, source);
    }
    let budget = match effective_budget(state, req) {
        Ok(b) => b,
        Err(resp) => return *resp,
    };
    let report = state.engine.run_with_budget(&set, budget);

    let file_values: Vec<Value> = report
        .files
        .iter()
        .map(|f| file_result_value(f, None))
        .collect();
    let failed: Vec<Value> = report
        .failed_files
        .iter()
        .map(|(file, error)| {
            Value::obj(vec![
                ("file", Value::str(file.clone())),
                ("error", Value::str(error.clone())),
            ])
        })
        .collect();
    let summary = Value::obj(vec![
        ("files", Value::Num(report.files.len() as u64)),
        ("failed", Value::Num(report.failed_files.len() as u64)),
        (
            "vulnerable_files",
            Value::Num(report.vulnerable_files() as u64),
        ),
        ("timeout_files", Value::Num(report.timeout_files() as u64)),
        ("cache_hits", Value::Num(report.metrics.cache_hits as u64)),
        (
            "cache_misses",
            Value::Num(report.metrics.cache_misses as u64),
        ),
        ("wall_ms", duration_ms(report.metrics.wall_time)),
    ]);
    Response::json(
        200,
        &Value::obj(vec![
            ("files", Value::Arr(file_values)),
            ("failed", Value::Arr(failed)),
            ("summary", summary),
        ]),
    )
}

/// One file's JSON: the shared summary/report shape from
/// `webssari_core::json` plus serve-side fields (`from_cache`, and —
/// for single-file responses — the batch wall time).
fn file_result_value(result: &EngineFileResult, whole: Option<&EngineReport>) -> Value {
    let base = match &result.report {
        Some(full) => report_json::report_to_value(full),
        None => report_json::summary_to_value(&result.summary),
    };
    let Value::Obj(mut pairs) = base else {
        unreachable!("report values are objects");
    };
    pairs.push(("from_cache".to_owned(), Value::Bool(result.from_cache)));
    if let Some(report) = whole {
        pairs.push(("wall_ms".to_owned(), duration_ms(report.metrics.wall_time)));
    }
    Value::Obj(pairs)
}

fn duration_ms(d: Duration) -> Value {
    Value::Num(u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

/// The solve deadline for this request: the configured default,
/// lowered (never raised) by the `X-Webssari-Budget-Ms` header.
fn effective_budget(state: &AppState, req: &Request) -> Result<Option<SolveBudget>, Box<Response>> {
    let header = match req.header("x-webssari-budget-ms") {
        Some(raw) => Some(raw.trim().parse::<u64>().map_err(|_| {
            Box::new(Response::error(
                400,
                "x-webssari-budget-ms must be a non-negative integer",
            ))
        })?),
        None => None,
    };
    let effective = match (
        header.map(Duration::from_millis),
        state.config.request_budget,
    ) {
        (Some(h), Some(c)) => Some(h.min(c)),
        (Some(h), None) => Some(h),
        (None, c) => c,
    };
    Ok(effective.map(|d| SolveBudget::unlimited().wall_time(d)))
}

#[cfg(test)]
mod tests {
    use webssari_engine::EngineBuilder;

    use super::*;
    use crate::ServerConfig;

    /// The README's vulnerable quickstart snippet: `sid` flows from
    /// `$_GET` into `mysql_query` unsanitized.
    const SQLI: &str = r#"<?php
$sid = $_GET['sid'];
$query = "SELECT * FROM groups WHERE sid=$sid";
mysql_query($query);
"#;

    fn state() -> AppState {
        AppState::new(
            ServerConfig::default(),
            EngineBuilder::new().workers(2).build(),
        )
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.to_owned(),
            path: path.to_owned(),
            query: Vec::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            minor_version: 1,
        }
    }

    fn body_json(resp: &Response) -> Value {
        jsonio::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap()
    }

    #[test]
    fn healthz_reports_ok() {
        let (label, resp) = route(&state(), &request("GET", "/healthz", ""));
        assert_eq!(label, "/healthz");
        assert_eq!(resp.status, 200);
        let v = body_json(&resp);
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    }

    #[test]
    fn verify_reports_one_sqli_group_rooted_at_sid() {
        let state = state();
        let mut req = request("POST", "/verify", SQLI);
        req.query.push(("file".to_owned(), "index.php".to_owned()));
        let (_, resp) = route(&state, &req);
        assert_eq!(resp.status, 200);
        let v = body_json(&resp);
        assert_eq!(v.get("file").and_then(Value::as_str), Some("index.php"));
        assert_eq!(v.get("outcome").and_then(Value::as_str), Some("vulnerable"));
        let vulns = v.get("vulnerabilities").and_then(Value::as_arr).unwrap();
        assert_eq!(vulns.len(), 1, "one grouped root cause");
        assert_eq!(vulns[0].get("class").and_then(Value::as_str), Some("sqli"));
        assert_eq!(
            vulns[0].get("root_var").and_then(Value::as_str),
            Some("sid")
        );
        assert_eq!(v.get("from_cache"), Some(&Value::Bool(false)));

        // The identical request is then served from the warm cache.
        let (_, again) = route(&state, &req);
        let v = body_json(&again);
        assert_eq!(v.get("from_cache"), Some(&Value::Bool(true)));
        assert_eq!(v.get("outcome").and_then(Value::as_str), Some("vulnerable"));
    }

    #[test]
    fn exhausted_budget_degrades_to_timeout_json() {
        let state = state();
        let mut req = request("POST", "/verify", SQLI);
        req.headers
            .push(("x-webssari-budget-ms".to_owned(), "0".to_owned()));
        let (_, resp) = route(&state, &req);
        assert_eq!(resp.status, 200);
        let v = body_json(&resp);
        assert_eq!(v.get("outcome").and_then(Value::as_str), Some("timeout"));
        // And the timeout was not cached: a full-budget retry concludes.
        let full = request("POST", "/verify", SQLI);
        let (_, resp) = route(&state, &full);
        let v = body_json(&resp);
        assert_eq!(v.get("outcome").and_then(Value::as_str), Some("vulnerable"));
    }

    #[test]
    fn bad_budget_header_is_rejected() {
        let state = state();
        let mut req = request("POST", "/verify", SQLI);
        req.headers
            .push(("x-webssari-budget-ms".to_owned(), "soon".to_owned()));
        let (_, resp) = route(&state, &req);
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn second_identical_batch_is_all_cache_hits() {
        let state = state();
        let body = r#"{"files": [
            {"name": "a.php", "source": "<?php $x = $_GET['a']; echo $x;"},
            {"name": "b.php", "source": "<?php $y = 'safe'; echo $y;"}
        ]}"#;
        let (_, first) = route(&state, &request("POST", "/batch", body));
        assert_eq!(first.status, 200);
        let v = body_json(&first);
        let summary = v.get("summary").unwrap();
        assert_eq!(summary.get("cache_misses").and_then(Value::as_u64), Some(2));
        assert_eq!(
            summary.get("vulnerable_files").and_then(Value::as_u64),
            Some(1)
        );

        let (_, second) = route(&state, &request("POST", "/batch", body));
        let v = body_json(&second);
        let summary = v.get("summary").unwrap();
        assert_eq!(summary.get("cache_hits").and_then(Value::as_u64), Some(2));
        assert_eq!(summary.get("cache_misses").and_then(Value::as_u64), Some(0));
        for f in v.get("files").and_then(Value::as_arr).unwrap() {
            assert_eq!(f.get("from_cache"), Some(&Value::Bool(true)));
        }
        assert_eq!(state.engine.snapshot().cache_hits, 2);
    }

    #[test]
    fn malformed_batch_bodies_are_400() {
        let state = state();
        for body in [
            "not json",
            "{}",
            r#"{"files": []}"#,
            r#"{"files": [{"name": "a.php"}]}"#,
            r#"{"files": [{"name": 3, "source": "x"}]}"#,
        ] {
            let (_, resp) = route(&state, &request("POST", "/batch", body));
            assert_eq!(resp.status, 400, "body: {body}");
        }
    }

    #[test]
    fn unknown_routes_and_methods() {
        let state = state();
        let (label, resp) = route(&state, &request("GET", "/nope", ""));
        assert_eq!((label, resp.status), ("other", 404));
        let (_, resp) = route(&state, &request("GET", "/verify", ""));
        assert_eq!(resp.status, 405);
        assert!(resp
            .headers
            .iter()
            .any(|(n, v)| n == "Allow" && v == "POST"));
        let (_, resp) = route(&state, &request("POST", "/metrics", ""));
        assert_eq!(resp.status, 405);
    }

    #[test]
    fn metrics_exposition_includes_engine_counters() {
        let state = state();
        route(&state, &request("POST", "/verify", SQLI));
        let (_, resp) = route(&state, &request("GET", "/metrics", ""));
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("webssari_engine_cache_misses_total 1"));
        assert!(text.contains("webssari_engine_files_total{outcome=\"vulnerable\"} 1"));
        assert!(text.contains("webssari_engine_cache_evictions_total 0"));
        // One depth gauge: the dispatch queue's.
        let depths: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("webssari_shard_queue_depth{"))
            .collect();
        assert_eq!(depths, ["webssari_shard_queue_depth{shard=\"0\"} 0"]);
    }

    /// Body bytes minus the volatile `wall_ms` tail.
    fn strip_wall(body: &[u8]) -> String {
        let text = std::str::from_utf8(body).unwrap();
        let cut = text.rfind(",\"wall_ms\"").expect("wall_ms field");
        text[..cut].to_owned()
    }

    #[test]
    fn warm_fast_path_matches_the_worker_path_byte_for_byte() {
        let state = state();
        let mut req = request("POST", "/verify", SQLI);
        req.query.push(("file".to_owned(), "index.php".to_owned()));
        // Cold: nothing cached, the fast path must decline.
        assert!(try_verify_cached(&state, &req).is_none());
        let (_, first) = route(&state, &req);
        assert_eq!(first.status, 200);
        // Warm: the fast path answers; a worker-path rerun of the same
        // request must produce the same bytes (modulo wall_ms).
        let fast = try_verify_cached(&state, &req).expect("cached after first run");
        let (_, slow) = route(&state, &req);
        assert_eq!(fast.status, 200);
        assert_eq!(strip_wall(&fast.body), strip_wall(&slow.body));
        let v = body_json(&fast);
        assert_eq!(v.get("from_cache"), Some(&Value::Bool(true)));
        // A malformed budget header needs the worker path's 400, so
        // the fast path declines even though the result is cached.
        let mut bad = request("POST", "/verify", SQLI);
        bad.query.push(("file".to_owned(), "index.php".to_owned()));
        bad.headers
            .push(("x-webssari-budget-ms".to_owned(), "soon".to_owned()));
        assert!(try_verify_cached(&state, &bad).is_none());
    }
}
