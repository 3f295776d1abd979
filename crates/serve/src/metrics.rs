//! Server-side counters and Prometheus text rendering.
//!
//! [`ServerMetrics`] tracks the HTTP side (connections, per-route
//! request counts and latencies, load-shed rejections);
//! [`render_prometheus`](ServerMetrics::render_prometheus) merges them
//! with the engine's live [`EngineSnapshot`] and the dispatch-queue
//! gauge into Prometheus text exposition format 0.0.4 for
//! `GET /metrics`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use webssari_engine::EngineSnapshot;

/// The route labels exported to Prometheus. Unknown paths collapse to
/// `"other"` so a scanner probing random URLs cannot blow up the label
/// cardinality.
pub const ROUTES: [&str; 5] = ["/verify", "/batch", "/healthz", "/metrics", "other"];

/// Fixed histogram bucket bounds (seconds) for request latency. The
/// implicit `+Inf` bucket is appended at render time. Fixed bounds
/// keep scrapes comparable across restarts and across instances.
pub const LATENCY_BUCKETS: [f64; 12] = [
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

/// Cumulative observation counts for one route's latency histogram.
#[derive(Debug, Default, Clone)]
struct Histogram {
    /// Observations `<=` each bound in [`LATENCY_BUCKETS`]
    /// (non-cumulative here; summed at render time).
    buckets: [u64; LATENCY_BUCKETS.len()],
    /// Observations past the largest bound (`+Inf` only).
    overflow: u64,
    count: u64,
    sum_micros: u64,
}

impl Histogram {
    fn observe(&mut self, seconds: f64, micros: u64) {
        match LATENCY_BUCKETS.iter().position(|b| seconds <= *b) {
            Some(i) => self.buckets[i] += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum_micros = self.sum_micros.saturating_add(micros);
    }
}

/// Normalizes a request path to one of [`ROUTES`].
pub fn route_label(path: &str) -> &'static str {
    ROUTES
        .iter()
        .find(|r| **r == path)
        .copied()
        .unwrap_or("other")
}

/// Live HTTP-side counters. All methods are callable concurrently.
#[derive(Debug)]
pub struct ServerMetrics {
    started: Instant,
    connections_total: AtomicU64,
    rejected_total: AtomicU64,
    in_flight: AtomicU64,
    /// Currently open connections (set by the event loop).
    connections_open: AtomicU64,
    /// Open connections idle between keep-alive requests.
    connections_idle: AtomicU64,
    /// `(route, status) -> count`.
    requests: Mutex<BTreeMap<(&'static str, u16), u64>>,
    /// `route -> latency histogram`.
    latency: Mutex<BTreeMap<&'static str, Histogram>>,
}

impl ServerMetrics {
    /// Fresh counters; uptime starts now.
    pub fn new() -> Self {
        ServerMetrics {
            started: Instant::now(),
            connections_total: AtomicU64::new(0),
            rejected_total: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
            connections_idle: AtomicU64::new(0),
            requests: Mutex::new(BTreeMap::new()),
            latency: Mutex::new(BTreeMap::new()),
        }
    }

    /// Counts an accepted connection.
    pub fn record_connection(&self) {
        self.connections_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request shed with `429` because the dispatch queue was
    /// full.
    pub fn record_rejected(&self) {
        self.rejected_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a request as started; pair with [`ServerMetrics::record`].
    pub fn request_started(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the connection-set gauges (open sockets
    /// and how many of them sit idle between keep-alive requests).
    pub fn set_connection_gauges(&self, open: u64, idle: u64) {
        self.connections_open.store(open, Ordering::Relaxed);
        self.connections_idle.store(idle, Ordering::Relaxed);
    }

    /// Records one finished request.
    pub fn record(&self, route: &'static str, status: u16, elapsed: Duration) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        *self
            .requests
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry((route, status))
            .or_insert(0) += 1;
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let mut latency = self.latency.lock().unwrap_or_else(PoisonError::into_inner);
        latency
            .entry(route)
            .or_default()
            .observe(elapsed.as_secs_f64(), micros);
    }

    /// Requests finished with the given status, summed over routes.
    pub fn requests_with_status(&self, status: u16) -> u64 {
        self.requests
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|((_, s), _)| *s == status)
            .map(|(_, n)| *n)
            .sum()
    }

    /// Renders everything as Prometheus text exposition format 0.0.4.
    /// `queue_depth` is the number of requests in the dispatch queue.
    pub fn render_prometheus(&self, engine: &EngineSnapshot, queue_depth: usize) -> String {
        fn metric(out: &mut String, name: &str, kind: &str, help: &str) {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
        }
        let mut out = String::with_capacity(4096);
        metric(
            &mut out,
            "webssari_build_info",
            "gauge",
            "Constant 1, labeled with the server version.",
        );
        let _ = writeln!(
            out,
            "webssari_build_info{{version=\"{}\"}} 1",
            env!("CARGO_PKG_VERSION"),
        );

        metric(
            &mut out,
            "webssari_uptime_seconds",
            "gauge",
            "Seconds since the server started.",
        );
        let _ = writeln!(
            out,
            "webssari_uptime_seconds {:.3}",
            self.started.elapsed().as_secs_f64(),
        );

        metric(
            &mut out,
            "webssari_http_connections_total",
            "counter",
            "Connections accepted, including ones later shed.",
        );
        let _ = writeln!(
            out,
            "webssari_http_connections_total {}",
            self.connections_total.load(Ordering::Relaxed),
        );

        metric(
            &mut out,
            "webssari_http_requests_total",
            "counter",
            "Finished requests by route and status.",
        );
        {
            let requests = self.requests.lock().unwrap_or_else(PoisonError::into_inner);
            for ((route, status), count) in requests.iter() {
                let _ = writeln!(
                    out,
                    "webssari_http_requests_total{{path=\"{route}\",status=\"{status}\"}} {count}",
                );
            }
        }

        metric(
            &mut out,
            "webssari_http_request_duration_seconds",
            "histogram",
            "Request handling latency by route (fixed buckets).",
        );
        {
            let latency = self.latency.lock().unwrap_or_else(PoisonError::into_inner);
            for (route, hist) in latency.iter() {
                let mut cumulative = 0u64;
                for (bound, count) in LATENCY_BUCKETS.iter().zip(hist.buckets.iter()) {
                    cumulative += count;
                    let _ = writeln!(
                        out,
                        "webssari_http_request_duration_seconds_bucket\
                         {{path=\"{route}\",le=\"{bound}\"}} {cumulative}",
                    );
                }
                let _ = writeln!(
                    out,
                    "webssari_http_request_duration_seconds_bucket\
                     {{path=\"{route}\",le=\"+Inf\"}} {}",
                    cumulative + hist.overflow,
                );
                let _ = writeln!(
                    out,
                    "webssari_http_request_duration_seconds_sum{{path=\"{route}\"}} {:.6}",
                    hist.sum_micros as f64 / 1e6,
                );
                let _ = writeln!(
                    out,
                    "webssari_http_request_duration_seconds_count{{path=\"{route}\"}} {}",
                    hist.count,
                );
            }
        }

        metric(
            &mut out,
            "webssari_http_requests_in_flight",
            "gauge",
            "Requests currently being handled.",
        );
        let _ = writeln!(
            out,
            "webssari_http_requests_in_flight {}",
            self.in_flight.load(Ordering::Relaxed),
        );

        metric(
            &mut out,
            "webssari_http_connections_open",
            "gauge",
            "Connections currently held by the event loop.",
        );
        let _ = writeln!(
            out,
            "webssari_http_connections_open {}",
            self.connections_open.load(Ordering::Relaxed),
        );
        metric(
            &mut out,
            "webssari_http_connections_idle",
            "gauge",
            "Open keep-alive connections idle between requests.",
        );
        let _ = writeln!(
            out,
            "webssari_http_connections_idle {}",
            self.connections_idle.load(Ordering::Relaxed),
        );

        metric(
            &mut out,
            "webssari_queue_rejected_total",
            "counter",
            "Requests shed with 429 because the dispatch queue was full.",
        );
        let _ = writeln!(
            out,
            "webssari_queue_rejected_total {}",
            self.rejected_total.load(Ordering::Relaxed),
        );

        metric(
            &mut out,
            "webssari_shard_queue_depth",
            "gauge",
            "Requests waiting in the dispatch queue.",
        );
        let _ = writeln!(
            out,
            "webssari_shard_queue_depth{{shard=\"0\"}} {queue_depth}",
        );

        metric(
            &mut out,
            "webssari_engine_batches_total",
            "counter",
            "Verification batches by state.",
        );
        let _ = writeln!(
            out,
            "webssari_engine_batches_total{{state=\"started\"}} {}",
            engine.batches_started,
        );
        let _ = writeln!(
            out,
            "webssari_engine_batches_total{{state=\"completed\"}} {}",
            engine.batches_completed,
        );

        metric(
            &mut out,
            "webssari_engine_jobs_in_flight",
            "gauge",
            "Files currently being verified by engine workers.",
        );
        let _ = writeln!(
            out,
            "webssari_engine_jobs_in_flight {}",
            engine.jobs_in_flight
        );

        metric(
            &mut out,
            "webssari_engine_cache_hits_total",
            "counter",
            "Files served from the incremental cache.",
        );
        let _ = writeln!(
            out,
            "webssari_engine_cache_hits_total {}",
            engine.cache_hits
        );
        metric(
            &mut out,
            "webssari_engine_cache_misses_total",
            "counter",
            "Files verified fresh.",
        );
        let _ = writeln!(
            out,
            "webssari_engine_cache_misses_total {}",
            engine.cache_misses,
        );
        metric(
            &mut out,
            "webssari_engine_cache_evictions_total",
            "counter",
            "Warm-cache entries evicted to honor the LRU size caps.",
        );
        let _ = writeln!(
            out,
            "webssari_engine_cache_evictions_total {}",
            engine.cache_evictions,
        );
        metric(
            &mut out,
            "webssari_engine_cache_hit_ratio",
            "gauge",
            "Fraction of served files that came from the cache.",
        );
        let _ = writeln!(
            out,
            "webssari_engine_cache_hit_ratio {:.6}",
            engine.cache_hit_rate().unwrap_or(0.0),
        );

        metric(
            &mut out,
            "webssari_engine_files_total",
            "counter",
            "Files served, by verification outcome.",
        );
        for (outcome, count) in [
            ("verified", engine.files_verified),
            ("vulnerable", engine.files_vulnerable),
            ("timeout", engine.files_timeout),
            ("parse-error", engine.files_parse_error),
        ] {
            let _ = writeln!(
                out,
                "webssari_engine_files_total{{outcome=\"{outcome}\"}} {count}",
            );
        }

        metric(
            &mut out,
            "webssari_engine_verify_seconds_total",
            "counter",
            "Wall time spent verifying files.",
        );
        let _ = writeln!(
            out,
            "webssari_engine_verify_seconds_total {:.6}",
            engine.verify_micros as f64 / 1e6,
        );

        let bmc = &engine.bmc;
        metric(
            &mut out,
            "webssari_engine_solver_events_total",
            "counter",
            "Cumulative SAT solver activity by kind.",
        );
        for (kind, count) in [
            ("conflicts", bmc.conflicts),
            ("calls", bmc.sat_calls as u64),
        ] {
            let _ = writeln!(
                out,
                "webssari_engine_solver_events_total{{kind=\"{kind}\"}} {count}",
            );
        }

        metric(
            &mut out,
            "webssari_engine_enumeration_total",
            "counter",
            "ALLSAT cube generalization: blocking cubes learned and \
             counterexamples materialized by expanding them.",
        );
        for (kind, count) in [
            ("cubes_learned", bmc.cubes_learned),
            ("cube_assignments", bmc.cube_assignments),
        ] {
            let _ = writeln!(
                out,
                "webssari_engine_enumeration_total{{kind=\"{kind}\"}} {count}",
            );
        }

        metric(
            &mut out,
            "webssari_engine_sql_assertions_total",
            "counter",
            "Assertions checked with SQL query-structure semantics.",
        );
        let _ = writeln!(
            out,
            "webssari_engine_sql_assertions_total {}",
            bmc.sql_assertions_checked,
        );
        metric(
            &mut out,
            "webssari_engine_second_order_flows_total",
            "counter",
            "Violations whose counterexample trace reads a cross-request \
             store cell (second-order taint).",
        );
        let _ = writeln!(
            out,
            "webssari_engine_second_order_flows_total {}",
            bmc.second_order_flows_found,
        );
        out
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_paths_collapse_to_other() {
        assert_eq!(route_label("/verify"), "/verify");
        assert_eq!(route_label("/verify/"), "other");
        assert_eq!(route_label("/../etc/passwd"), "other");
    }

    #[test]
    fn records_show_up_in_the_exposition() {
        let m = ServerMetrics::new();
        m.record_connection();
        m.request_started();
        m.record("/verify", 200, Duration::from_millis(3));
        m.request_started();
        m.record("/verify", 400, Duration::from_millis(1));
        m.record_rejected();
        m.set_connection_gauges(5, 3);
        let text = m.render_prometheus(&EngineSnapshot::default(), 1);
        assert!(text.contains("webssari_http_connections_total 1"));
        assert!(text.contains("webssari_http_requests_total{path=\"/verify\",status=\"200\"} 1"));
        assert!(text.contains("webssari_http_requests_total{path=\"/verify\",status=\"400\"} 1"));
        assert!(text.contains("webssari_http_request_duration_seconds_count{path=\"/verify\"} 2"));
        assert!(text.contains("webssari_http_requests_in_flight 0"));
        assert!(text.contains("webssari_http_connections_open 5"));
        assert!(text.contains("webssari_http_connections_idle 3"));
        assert!(text.contains("webssari_queue_rejected_total 1"));
        assert!(text.contains("webssari_shard_queue_depth{shard=\"0\"} 1"));
        assert_eq!(text.matches("webssari_shard_queue_depth{").count(), 1);
        assert_eq!(m.requests_with_status(200), 1);
    }

    #[test]
    fn latency_histogram_buckets_are_cumulative_and_monotone() {
        let m = ServerMetrics::new();
        m.request_started();
        m.record("/verify", 200, Duration::from_millis(3)); // <= 0.005
        m.request_started();
        m.record("/verify", 200, Duration::from_millis(40)); // <= 0.05
        m.request_started();
        m.record("/verify", 200, Duration::from_secs(60)); // +Inf only
        let text = m.render_prometheus(&EngineSnapshot::default(), 0);
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| {
                l.starts_with("webssari_http_request_duration_seconds_bucket{path=\"/verify\"")
            })
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(
            counts.len(),
            LATENCY_BUCKETS.len() + 1,
            "one line per bucket + +Inf"
        );
        assert!(
            counts.windows(2).all(|w| w[0] <= w[1]),
            "cumulative bucket counts must be monotone: {counts:?}",
        );
        assert_eq!(*counts.last().unwrap(), 3, "+Inf bucket equals the count");
        assert!(text.contains(
            "webssari_http_request_duration_seconds_bucket{path=\"/verify\",le=\"0.005\"} 1"
        ));
        assert!(text.contains(
            "webssari_http_request_duration_seconds_bucket{path=\"/verify\",le=\"0.05\"} 2"
        ));
        assert!(text.contains("webssari_http_request_duration_seconds_count{path=\"/verify\"} 3"));
        // One depth sample, for the one dispatch queue.
        assert_eq!(text.matches("webssari_shard_queue_depth{").count(), 1);
        assert!(text.contains("webssari_shard_queue_depth{shard=\"0\"} 0\n"));
    }

    #[test]
    fn engine_snapshot_flows_through() {
        let m = ServerMetrics::new();
        let mut snap = EngineSnapshot {
            cache_hits: 3,
            cache_misses: 1,
            cache_evictions: 2,
            files_vulnerable: 1,
            ..EngineSnapshot::default()
        };
        snap.bmc.sat_calls = 7;
        snap.bmc.conflicts = 11;
        snap.bmc.cubes_learned = 6;
        snap.bmc.cube_assignments = 19;
        snap.bmc.sql_assertions_checked = 4;
        snap.bmc.second_order_flows_found = 2;
        let text = m.render_prometheus(&snap, 0);
        assert!(text.contains("webssari_engine_cache_hits_total 3"));
        assert!(text.contains("webssari_engine_cache_evictions_total 2"));
        assert!(text.contains("webssari_engine_cache_hit_ratio 0.75"));
        assert!(text.contains("webssari_engine_files_total{outcome=\"vulnerable\"} 1"));
        assert!(text.contains("webssari_engine_solver_events_total{kind=\"calls\"} 7"));
        assert!(text.contains("webssari_engine_solver_events_total{kind=\"conflicts\"} 11"));
        assert_eq!(
            text.matches("webssari_engine_solver_events_total{").count(),
            2
        );
        assert!(!text.contains("webssari_sat_"));
        assert!(text.contains("webssari_engine_enumeration_total{kind=\"cubes_learned\"} 6"));
        assert!(text.contains("webssari_engine_enumeration_total{kind=\"cube_assignments\"} 19"));
        assert!(text.contains("webssari_engine_sql_assertions_total 4"));
        assert!(text.contains("webssari_engine_second_order_flows_total 2"));
        // Screening left the verify path, and its families with it.
        assert!(!text.contains("webssari_engine_screening_total"));
        assert!(!text.contains("webssari_engine_flow_total"));
        // Every exposed line is HELP, TYPE, or a sample.
        for line in text.lines() {
            assert!(
                line.starts_with("# HELP")
                    || line.starts_with("# TYPE")
                    || line.starts_with("webssari_"),
                "unexpected line: {line}",
            );
        }
    }
}
