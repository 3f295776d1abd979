//! Live engine counters, snapshotable while workers are running.
//!
//! [`EngineMetrics`](crate::EngineMetrics) describes one *finished*
//! batch; a long-running service needs totals it can read at any
//! moment — including mid-batch, from another thread. [`EngineStats`]
//! is a bundle of atomic counters that workers bump as each job
//! completes (and a gauge they bump when they pick a job up), plus the
//! summed [`xbmc::XbmcStats`] of every finished job, and
//! [`EngineSnapshot`] is one consistent-enough read of them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use webssari_core::{FileOutcome, FileSummary};
use xbmc::XbmcStats;

/// Cumulative engine counters shared across batches. Cloning shares
/// the underlying counters (the handle and its workers all write to
/// the same totals).
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    batches_started: AtomicU64,
    batches_completed: AtomicU64,
    jobs_in_flight: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    files_verified: AtomicU64,
    files_vulnerable: AtomicU64,
    files_timeout: AtomicU64,
    files_parse_error: AtomicU64,
    verify_micros: AtomicU64,
    /// Solver and BMC work of every finished job. One job's record is
    /// added under the lock at once, so a snapshot sees all of a job's
    /// solver fields or none of them (its miss and outcome counters
    /// above are bumped separately and may lead).
    bmc: Mutex<XbmcStats>,
}

/// One point-in-time read of [`EngineStats`]. Individual fields are
/// each exact; the set as a whole may straddle a job completing, which
/// a monitoring endpoint tolerates by design.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// Batches started ([`crate::EngineHandle::run`] calls).
    pub batches_started: u64,
    /// Batches that have completed.
    pub batches_completed: u64,
    /// Jobs currently being verified by a worker.
    pub jobs_in_flight: u64,
    /// Files served from the incremental cache.
    pub cache_hits: u64,
    /// Files that had to be verified.
    pub cache_misses: u64,
    /// Entries the LRU caps evicted from the warm cache.
    pub cache_evictions: u64,
    /// Files served with outcome `verified`.
    pub files_verified: u64,
    /// Files served with outcome `vulnerable`.
    pub files_vulnerable: u64,
    /// Files served with outcome `timeout`.
    pub files_timeout: u64,
    /// Files that failed to parse.
    pub files_parse_error: u64,
    /// Total wall time spent verifying files, in microseconds.
    pub verify_micros: u64,
    /// Solver and BMC work summed over every verified file.
    pub bmc: XbmcStats,
}

impl EngineSnapshot {
    /// Fraction of served files that came from the cache, `None`
    /// before any file has been served.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }
}

impl EngineStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        EngineStats::default()
    }

    /// Reads every counter. Safe to call from any thread at any time,
    /// including while a batch is in flight.
    pub fn snapshot(&self) -> EngineSnapshot {
        let c = &*self.inner;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        EngineSnapshot {
            batches_started: load(&c.batches_started),
            batches_completed: load(&c.batches_completed),
            jobs_in_flight: load(&c.jobs_in_flight),
            cache_hits: load(&c.cache_hits),
            cache_misses: load(&c.cache_misses),
            cache_evictions: load(&c.cache_evictions),
            files_verified: load(&c.files_verified),
            files_vulnerable: load(&c.files_vulnerable),
            files_timeout: load(&c.files_timeout),
            files_parse_error: load(&c.files_parse_error),
            verify_micros: load(&c.verify_micros),
            bmc: *c.bmc.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }

    pub(crate) fn batch_started(&self) {
        self.inner.batches_started.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn batch_completed(&self) {
        self.inner.batches_completed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn job_started(&self) {
        self.inner.jobs_in_flight.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn job_finished(&self) {
        self.inner.jobs_in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn record_evictions(&self, n: u64) {
        self.inner.cache_evictions.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_cache_hit(&self, summary: &FileSummary) {
        self.inner.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.record_outcome(summary.outcome);
    }

    pub(crate) fn record_fresh(&self, outcome: FileOutcome, duration: Duration, bmc: &XbmcStats) {
        self.inner.cache_misses.fetch_add(1, Ordering::Relaxed);
        self.record_outcome(outcome);
        self.inner.verify_micros.fetch_add(
            u64::try_from(duration.as_micros()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        self.inner
            .bmc
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .add(bmc);
    }

    fn record_outcome(&self, outcome: FileOutcome) {
        let counter = match outcome {
            FileOutcome::Verified => &self.inner.files_verified,
            FileOutcome::Vulnerable => &self.inner.files_vulnerable,
            FileOutcome::Timeout => &self.inner.files_timeout,
            FileOutcome::ParseError => &self.inner.files_parse_error,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_counters() {
        let stats = EngineStats::new();
        let clone = stats.clone();
        clone.batch_started();
        clone.record_fresh(
            FileOutcome::Verified,
            Duration::from_micros(5),
            &XbmcStats::default(),
        );
        let snap = stats.snapshot();
        assert_eq!(snap.batches_started, 1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.files_verified, 1);
        assert_eq!(snap.verify_micros, 5);
        assert_eq!(snap.cache_hit_rate(), Some(0.0));
    }

    #[test]
    fn hit_rate_is_none_before_traffic() {
        assert_eq!(EngineStats::new().snapshot().cache_hit_rate(), None);
    }

    #[test]
    fn gauge_tracks_in_flight_jobs() {
        let stats = EngineStats::new();
        stats.job_started();
        stats.job_started();
        assert_eq!(stats.snapshot().jobs_in_flight, 2);
        stats.job_finished();
        assert_eq!(stats.snapshot().jobs_in_flight, 1);
    }
}
