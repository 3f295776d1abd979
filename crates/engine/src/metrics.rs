//! Run metrics: where a batch verification spent its time.

use std::fmt::Write as _;
use std::time::Duration;

use webssari_core::FileOutcome;

use crate::json::Value;

/// Per-file measurements for one engine run.
#[derive(Clone, Debug)]
pub struct FileMetrics {
    /// File name.
    pub file: String,
    /// How verification concluded.
    pub outcome: FileOutcome,
    /// Whether the result came from the incremental cache.
    pub from_cache: bool,
    /// Index of the worker that verified the file (`None` for cache
    /// hits, which are served on the scheduler thread).
    pub worker: Option<usize>,
    /// Time between job submission and a worker picking the job up.
    pub queue_wait: Duration,
    /// Verification time (zero for cache hits).
    pub duration: Duration,
    /// SAT solver conflicts spent on this file.
    pub conflicts: u64,
    /// SAT solver decisions.
    pub decisions: u64,
    /// SAT solver unit propagations.
    pub propagations: u64,
    /// SAT solver restarts.
    pub restarts: u64,
    /// SAT solver invocations.
    pub sat_calls: usize,
    /// Root-level unit literals fixed by formula preprocessing.
    pub pre_units_fixed: u64,
    /// Clauses removed by formula preprocessing before attachment.
    pub pre_clauses_removed: u64,
    /// Assertions discharged statically by the screening tier.
    pub assertions_discharged: u64,
    /// CNF variables the cone-of-influence slice removed.
    pub cnf_vars_saved: u64,
    /// Generalized blocking cubes the ALLSAT enumerator learned.
    pub cubes_learned: u64,
    /// Counterexamples materialized by expanding those cubes.
    pub cube_assignments: u64,
}

/// Aggregate metrics for one engine run, with per-file breakdown in
/// file-name order.
#[derive(Clone, Debug, Default)]
pub struct EngineMetrics {
    /// Size of the worker pool.
    pub workers: usize,
    /// Wall-clock time of the whole run.
    pub wall_time: Duration,
    /// Files served from the incremental cache.
    pub cache_hits: usize,
    /// Files that had to be verified.
    pub cache_misses: usize,
    /// Store parts (per-file contributions to the batch's cross-request
    /// store summary) computed because no cache entry held them; zero
    /// when no verified file read a store.
    pub store_parts_built: usize,
    /// Per-file measurements, in file-name order.
    pub files: Vec<FileMetrics>,
}

impl EngineMetrics {
    /// Total solver conflicts across all files.
    pub fn total_conflicts(&self) -> u64 {
        self.files.iter().map(|f| f.conflicts).sum()
    }

    /// Total solver decisions across all files.
    pub fn total_decisions(&self) -> u64 {
        self.files.iter().map(|f| f.decisions).sum()
    }

    /// Total solver propagations across all files.
    pub fn total_propagations(&self) -> u64 {
        self.files.iter().map(|f| f.propagations).sum()
    }

    /// Total SAT solver invocations across all files.
    pub fn total_sat_calls(&self) -> usize {
        self.files.iter().map(|f| f.sat_calls).sum()
    }

    /// Total root-level units fixed by preprocessing across all files.
    pub fn total_pre_units_fixed(&self) -> u64 {
        self.files.iter().map(|f| f.pre_units_fixed).sum()
    }

    /// Total clauses removed by preprocessing across all files.
    pub fn total_pre_clauses_removed(&self) -> u64 {
        self.files.iter().map(|f| f.pre_clauses_removed).sum()
    }

    /// Total assertions discharged statically across all files.
    pub fn total_assertions_discharged(&self) -> u64 {
        self.files.iter().map(|f| f.assertions_discharged).sum()
    }

    /// Total CNF variables saved by slicing across all files.
    pub fn total_cnf_vars_saved(&self) -> u64 {
        self.files.iter().map(|f| f.cnf_vars_saved).sum()
    }

    /// Total generalized cubes learned across all files.
    pub fn total_cubes_learned(&self) -> u64 {
        self.files.iter().map(|f| f.cubes_learned).sum()
    }

    /// Total cube-expanded counterexamples across all files.
    pub fn total_cube_assignments(&self) -> u64 {
        self.files.iter().map(|f| f.cube_assignments).sum()
    }

    /// Files with the given outcome.
    pub fn count(&self, outcome: FileOutcome) -> usize {
        self.files.iter().filter(|f| f.outcome == outcome).count()
    }

    /// Renders a human-readable metrics table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "engine: {} worker(s), {} file(s) in {} \
             ({} verified, {} vulnerable, {} timeout, {} parse-error); \
             cache: {} hit(s), {} miss(es)",
            self.workers,
            self.files.len(),
            fmt_duration(self.wall_time),
            self.count(FileOutcome::Verified),
            self.count(FileOutcome::Vulnerable),
            self.count(FileOutcome::Timeout),
            self.count(FileOutcome::ParseError),
            self.cache_hits,
            self.cache_misses,
        );
        let _ = writeln!(
            out,
            "solver: {} call(s), {} conflict(s), {} decision(s), {} propagation(s); \
             preprocessing: {} unit(s) fixed, {} clause(s) removed",
            self.total_sat_calls(),
            self.total_conflicts(),
            self.total_decisions(),
            self.total_propagations(),
            self.total_pre_units_fixed(),
            self.total_pre_clauses_removed(),
        );
        let _ = writeln!(
            out,
            "screening: {} assertion(s) discharged statically, {} CNF var(s) saved",
            self.total_assertions_discharged(),
            self.total_cnf_vars_saved(),
        );
        let _ = writeln!(
            out,
            "enumeration: {} cube(s) learned covering {} assignment(s)",
            self.total_cubes_learned(),
            self.total_cube_assignments(),
        );
        let _ = writeln!(
            out,
            "{:<40} {:>12} {:>9} {:>9} {:>6} {:>10}",
            "file", "outcome", "time", "wait", "cache", "conflicts"
        );
        for f in &self.files {
            let _ = writeln!(
                out,
                "{:<40} {:>12} {:>9} {:>9} {:>6} {:>10}",
                f.file,
                f.outcome.as_str(),
                fmt_duration(f.duration),
                fmt_duration(f.queue_wait),
                if f.from_cache { "hit" } else { "miss" },
                f.conflicts,
            );
        }
        out
    }

    /// Serializes the metrics (durations in microseconds).
    pub fn to_json(&self) -> String {
        let files: Vec<Value> = self
            .files
            .iter()
            .map(|f| {
                Value::obj(vec![
                    ("file", Value::str(f.file.clone())),
                    ("outcome", Value::str(f.outcome.as_str())),
                    ("from_cache", Value::Bool(f.from_cache)),
                    (
                        "worker",
                        f.worker.map_or(Value::Null, |w| Value::Num(w as u64)),
                    ),
                    ("queue_wait_us", Value::Num(as_micros(f.queue_wait))),
                    ("duration_us", Value::Num(as_micros(f.duration))),
                    ("conflicts", Value::Num(f.conflicts)),
                    ("decisions", Value::Num(f.decisions)),
                    ("propagations", Value::Num(f.propagations)),
                    ("restarts", Value::Num(f.restarts)),
                    ("sat_calls", Value::Num(f.sat_calls as u64)),
                    ("pre_units_fixed", Value::Num(f.pre_units_fixed)),
                    ("pre_clauses_removed", Value::Num(f.pre_clauses_removed)),
                    ("assertions_discharged", Value::Num(f.assertions_discharged)),
                    ("cnf_vars_saved", Value::Num(f.cnf_vars_saved)),
                    ("cubes_learned", Value::Num(f.cubes_learned)),
                    ("cube_assignments", Value::Num(f.cube_assignments)),
                ])
            })
            .collect();
        Value::obj(vec![
            ("workers", Value::Num(self.workers as u64)),
            ("wall_time_us", Value::Num(as_micros(self.wall_time))),
            ("cache_hits", Value::Num(self.cache_hits as u64)),
            ("cache_misses", Value::Num(self.cache_misses as u64)),
            ("total_conflicts", Value::Num(self.total_conflicts())),
            ("total_sat_calls", Value::Num(self.total_sat_calls() as u64)),
            (
                "total_assertions_discharged",
                Value::Num(self.total_assertions_discharged()),
            ),
            (
                "total_cnf_vars_saved",
                Value::Num(self.total_cnf_vars_saved()),
            ),
            (
                "total_cubes_learned",
                Value::Num(self.total_cubes_learned()),
            ),
            (
                "total_cube_assignments",
                Value::Num(self.total_cube_assignments()),
            ),
            ("files", Value::Arr(files)),
        ])
        .to_json()
    }
}

fn as_micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> EngineMetrics {
        EngineMetrics {
            workers: 4,
            wall_time: Duration::from_millis(12),
            cache_hits: 1,
            cache_misses: 1,
            store_parts_built: 0,
            files: vec![
                FileMetrics {
                    file: "a.php".to_owned(),
                    outcome: FileOutcome::Verified,
                    from_cache: true,
                    worker: None,
                    queue_wait: Duration::ZERO,
                    duration: Duration::ZERO,
                    conflicts: 0,
                    decisions: 0,
                    propagations: 0,
                    restarts: 0,
                    sat_calls: 0,
                    pre_units_fixed: 0,
                    pre_clauses_removed: 0,
                    assertions_discharged: 0,
                    cnf_vars_saved: 0,
                    cubes_learned: 0,
                    cube_assignments: 0,
                },
                FileMetrics {
                    file: "b.php".to_owned(),
                    outcome: FileOutcome::Vulnerable,
                    from_cache: false,
                    worker: Some(2),
                    queue_wait: Duration::from_micros(150),
                    duration: Duration::from_millis(3),
                    conflicts: 17,
                    decisions: 40,
                    propagations: 200,
                    restarts: 1,
                    sat_calls: 5,
                    pre_units_fixed: 9,
                    pre_clauses_removed: 3,
                    assertions_discharged: 2,
                    cnf_vars_saved: 11,
                    cubes_learned: 4,
                    cube_assignments: 13,
                },
            ],
        }
    }

    #[test]
    fn totals_aggregate_per_file_counters() {
        let m = sample();
        assert_eq!(m.total_conflicts(), 17);
        assert_eq!(m.total_sat_calls(), 5);
        assert_eq!(m.total_pre_units_fixed(), 9);
        assert_eq!(m.total_pre_clauses_removed(), 3);
        assert_eq!(m.total_assertions_discharged(), 2);
        assert_eq!(m.total_cnf_vars_saved(), 11);
        assert_eq!(m.total_cubes_learned(), 4);
        assert_eq!(m.total_cube_assignments(), 13);
        assert_eq!(m.count(FileOutcome::Verified), 1);
        assert_eq!(m.count(FileOutcome::Timeout), 0);
    }

    #[test]
    fn render_text_mentions_cache_and_files() {
        let text = sample().render_text();
        assert!(text.contains("4 worker(s)"));
        assert!(text.contains("1 hit(s), 1 miss(es)"));
        assert!(text.contains("a.php"));
        assert!(text.contains("vulnerable"));
        assert!(text.contains("2 assertion(s) discharged statically, 11 CNF var(s) saved"));
        assert!(text.contains("4 cube(s) learned covering 13 assignment(s)"));
    }

    #[test]
    fn json_is_parseable_and_complete() {
        let m = sample();
        let v = json::parse(&m.to_json()).expect("valid JSON");
        assert_eq!(v.get("workers").and_then(Value::as_u64), Some(4));
        assert_eq!(v.get("cache_hits").and_then(Value::as_u64), Some(1));
        let files = v.get("files").and_then(Value::as_arr).unwrap();
        assert_eq!(files.len(), 2);
        assert_eq!(files[0].get("worker"), Some(&Value::Null));
        assert_eq!(files[1].get("conflicts").and_then(Value::as_u64), Some(17));
        assert_eq!(
            files[1].get("pre_units_fixed").and_then(Value::as_u64),
            Some(9)
        );
        assert_eq!(
            files[1]
                .get("assertions_discharged")
                .and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(
            v.get("total_cnf_vars_saved").and_then(Value::as_u64),
            Some(11)
        );
        assert_eq!(
            v.get("total_cube_assignments").and_then(Value::as_u64),
            Some(13)
        );
        assert_eq!(
            files[1].get("cubes_learned").and_then(Value::as_u64),
            Some(4)
        );
    }
}
