//! Live engine counters, snapshotable while workers are running.
//!
//! [`EngineMetrics`](crate::EngineMetrics) describes one *finished*
//! batch; a long-running service needs totals it can read at any
//! moment — including mid-batch, from another thread. [`EngineStats`]
//! is a bundle of atomic counters that workers bump as each job
//! completes (and a gauge they bump when they pick a job up), and
//! [`EngineSnapshot`] is one consistent-enough read of them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use webssari_core::{FileOutcome, FileSummary};

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
    conflicts: AtomicU64,
    decisions: AtomicU64,
    propagations: AtomicU64,
    binary_propagations: AtomicU64,
    restarts: AtomicU64,
    sat_calls: AtomicU64,
    pre_units_fixed: AtomicU64,
    pre_clauses_removed: AtomicU64,
    cubes_learned: AtomicU64,
    cube_assignments: AtomicU64,
    sql_assertions_checked: AtomicU64,
    second_order_flows_found: AtomicU64,
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
    /// SAT solver conflicts.
    pub conflicts: u64,
    /// SAT solver decisions.
    pub decisions: u64,
    /// SAT solver unit propagations.
    pub propagations: u64,
    /// Propagations served by the solver's binary implication lists (a
    /// subset of `propagations` that never touched the clause arena).
    pub binary_propagations: u64,
    /// SAT solver restarts.
    pub restarts: u64,
    /// SAT solver invocations.
    pub sat_calls: u64,
    /// Root-level unit literals fixed by formula preprocessing.
    pub pre_units_fixed: u64,
    /// Clauses removed by formula preprocessing before attachment.
    pub pre_clauses_removed: u64,
    /// Generalized blocking cubes learned by ALLSAT enumeration.
    pub cubes_learned: u64,
    /// Counterexamples materialized by expanding those cubes.
    pub cube_assignments: u64,
    /// Assertions checked with SQL query-structure semantics
    /// (concatenated-into-query-text sink arguments).
    pub sql_assertions_checked: u64,
    /// Violated assertions whose counterexample trace reads a
    /// cross-request store cell (second-order flows).
    pub second_order_flows_found: u64,
}

impl EngineSnapshot {
    /// Fraction of served files that came from the cache, `None`
    /// before any file has been served.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }

    /// Count for one outcome.
    pub fn outcome_count(&self, outcome: FileOutcome) -> u64 {
        match outcome {
            FileOutcome::Verified => self.files_verified,
            FileOutcome::Vulnerable => self.files_vulnerable,
            FileOutcome::Timeout => self.files_timeout,
            FileOutcome::ParseError => self.files_parse_error,
        }
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
            conflicts: load(&c.conflicts),
            decisions: load(&c.decisions),
            propagations: load(&c.propagations),
            binary_propagations: load(&c.binary_propagations),
            restarts: load(&c.restarts),
            sat_calls: load(&c.sat_calls),
            pre_units_fixed: load(&c.pre_units_fixed),
            pre_clauses_removed: load(&c.pre_clauses_removed),
            cubes_learned: load(&c.cubes_learned),
            cube_assignments: load(&c.cube_assignments),
            sql_assertions_checked: load(&c.sql_assertions_checked),
            second_order_flows_found: load(&c.second_order_flows_found),
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

    pub(crate) fn record_fresh(
        &self,
        outcome: FileOutcome,
        duration: Duration,
        stats: Option<&xbmc::XbmcStats>,
    ) {
        self.inner.cache_misses.fetch_add(1, Ordering::Relaxed);
        self.record_outcome(outcome);
        self.inner.verify_micros.fetch_add(
            u64::try_from(duration.as_micros()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        if let Some(s) = stats {
            self.inner
                .conflicts
                .fetch_add(s.conflicts, Ordering::Relaxed);
            self.inner
                .decisions
                .fetch_add(s.decisions, Ordering::Relaxed);
            self.inner
                .propagations
                .fetch_add(s.propagations, Ordering::Relaxed);
            self.inner
                .binary_propagations
                .fetch_add(s.binary_propagations, Ordering::Relaxed);
            self.inner.restarts.fetch_add(s.restarts, Ordering::Relaxed);
            self.inner
                .sat_calls
                .fetch_add(s.sat_calls as u64, Ordering::Relaxed);
            self.inner
                .pre_units_fixed
                .fetch_add(s.pre_units_fixed, Ordering::Relaxed);
            self.inner
                .pre_clauses_removed
                .fetch_add(s.pre_clauses_removed, Ordering::Relaxed);
            self.inner
                .cubes_learned
                .fetch_add(s.cubes_learned, Ordering::Relaxed);
            self.inner
                .cube_assignments
                .fetch_add(s.cube_assignments, Ordering::Relaxed);
            self.inner
                .sql_assertions_checked
                .fetch_add(s.sql_assertions_checked, Ordering::Relaxed);
            self.inner
                .second_order_flows_found
                .fetch_add(s.second_order_flows_found, Ordering::Relaxed);
        }
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
        clone.record_fresh(FileOutcome::Verified, Duration::from_micros(5), None);
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
