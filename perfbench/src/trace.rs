//! In-memory spans and counters for the traced run.
//!
//! A span records a name, its start and end, the span that was open
//! when it began (its parent), and the file or request it belongs to.
//! A layer's self time is its spans' durations minus the time their
//! child spans cover. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    id: u64,
}

/// Spans and counters of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost span, which must be `span`.
    pub fn exit(&mut self, span: usize) {
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(span), "spans close innermost first");
        self.spans[span].end = self.origin.elapsed();
    }

    /// Records a leaf span timed by the caller.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent: self.open.last().copied(),
            id,
        });
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name, id);
        let out = f();
        self.exit(span);
        out
    }

    /// The duration of a closed span.
    pub fn duration(&self, span: usize) -> Duration {
        self.spans[span].end - self.spans[span].start
    }

    /// Adds to a named counter.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counters.entry(name).or_default() += by;
    }

    /// A counter's value (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Self time in seconds of every span name, summed over the run.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            let own = (s.end - s.start).saturating_sub(children);
            *out.entry(s.name).or_default() += own.as_secs_f64();
        }
        out
    }

    /// Writes every span as one JSON line (times in microseconds since
    /// the run began).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"id\":{}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                s.id,
            )?;
        }
        out.flush()
    }
}
