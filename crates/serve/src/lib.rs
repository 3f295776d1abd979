//! # webssari-serve — the verification daemon
//!
//! A long-running HTTP service over the batch engine, built entirely
//! on `std::net` (the toolchain is offline; no HTTP framework). One
//! process holds an [`EngineHandle`](webssari_engine::EngineHandle),
//! so the incremental cache stays warm across requests and engine
//! counters accumulate for `/metrics`.
//!
//! ## Routes
//!
//! * `POST /verify` — PHP source in the body, one JSON report out.
//!   Optional `?file=name.php` and `X-Webssari-Budget-Ms` header.
//! * `POST /batch` — `{"files": [{"name": ..., "source": ...}]}`;
//!   files fan out across the engine worker pool and hit the shared
//!   cache.
//! * `GET /healthz` — liveness.
//! * `GET /metrics` — Prometheus text exposition.
//!
//! ## Serving core
//!
//! One `poll(2)`-driven event-loop thread (unix only) multiplexes
//! every connection: HTTP/1.1 keep-alive with pipelining,
//! per-connection read/idle deadlines, and one dispatch queue that
//! every worker of the pool pops. Off unix, [`Server::start`] fails with
//! [`std::io::ErrorKind::Unsupported`].
//!
//! ## Robustness
//!
//! * the dispatch queue is bounded; at capacity requests are shed with
//!   `429` + `Retry-After` immediately (load shedding, not buffering);
//! * every request runs under a [`SolveBudget`] deadline — a stuck
//!   solve degrades to a well-formed `"timeout"` JSON outcome, never a
//!   hung connection;
//! * request heads and bodies are size-capped ([`Limits`]); partial
//!   requests are held to a read deadline (slowloris → `408`), idle
//!   keep-alive connections to a longer idle deadline;
//! * SIGTERM/SIGINT flip a flag ([`shutdown_requested`]); shutdown
//!   stops accepting, closes idle keep-alive connections, finishes
//!   in-flight requests, and flushes the cache.
//!
//! [`SolveBudget`]: webssari_core::SolveBudget

#![warn(missing_docs)]

use std::time::{Duration, Instant};

use webssari_engine::{Engine, EngineHandle};

#[cfg(unix)]
mod event_loop;
mod http;
mod metrics;
#[cfg(unix)]
mod poll;
mod queue;
mod router;
mod server;
mod signals;

pub use http::{try_parse, Limits, Request, RequestError, Response};
pub use metrics::{route_label, ServerMetrics, LATENCY_BUCKETS, ROUTES};
pub use queue::{BoundedQueue, PushError};
pub use router::route;
pub use server::{Server, ServerHandle};
pub use signals::{install as install_signal_handlers, request_shutdown, shutdown_requested};

/// How the daemon listens and protects itself.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8077` (`:0` picks a free port).
    pub addr: String,
    /// Concurrent HTTP worker threads, all popping the one dispatch
    /// queue.
    pub http_workers: usize,
    /// Capacity of the dispatch queue: requests waiting for a free
    /// worker; beyond it requests are shed with `429`.
    pub queue_depth: usize,
    /// Default per-request solve deadline; `None` means unlimited.
    /// Clients may lower (never raise) it per request via the
    /// `X-Webssari-Budget-Ms` header.
    pub request_budget: Option<Duration>,
    /// Maximum accepted request-body size in bytes.
    pub max_body_bytes: usize,
    /// How long a started request may dribble in before the
    /// connection is answered `408` (slowloris defense).
    pub read_timeout: Duration,
    /// How long an idle keep-alive connection is kept before being
    /// closed.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8077".to_owned(),
            http_workers: 4,
            queue_depth: 64,
            request_budget: Some(Duration::from_secs(30)),
            max_body_bytes: 1024 * 1024,
            read_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
        }
    }
}

impl ServerConfig {
    /// The HTTP parser limits this configuration implies.
    pub fn limits(&self) -> Limits {
        Limits {
            max_body_bytes: self.max_body_bytes,
            ..Limits::default()
        }
    }
}

/// A parsed request in flight between the event loop and a worker.
#[derive(Debug)]
pub struct QueuedRequest {
    /// Correlates the finished response back to its connection.
    pub token: u64,
    /// The parsed request.
    pub request: Request,
    /// When the request was parsed off the wire (queue wait starts
    /// here, so `/metrics` latency includes dispatch delay).
    pub accepted: Instant,
}

/// Everything a request handler can reach: the warm engine handle,
/// server counters, the dispatch queue, and the config.
#[derive(Debug)]
pub struct AppState {
    /// The long-lived engine: warm cache + live counters.
    pub engine: EngineHandle,
    /// HTTP-side counters for `/metrics`.
    pub metrics: ServerMetrics,
    /// The bounded request queue every worker pops.
    pub queue: BoundedQueue<QueuedRequest>,
    /// The server configuration.
    pub config: ServerConfig,
}

impl AppState {
    /// Builds the state for one daemon instance, converting the engine
    /// into a long-lived handle (cache loaded once, here).
    pub fn new(config: ServerConfig, engine: Engine) -> Self {
        AppState {
            engine: engine.into_handle(),
            metrics: ServerMetrics::new(),
            queue: BoundedQueue::new(config.queue_depth),
            config,
        }
    }
}
