//! Shared workload generators and harness utilities for the benchmark
//! suite that regenerates the paper's evaluation.
//!
//! Binaries (run with `cargo run --release -p webssari-bench --bin …`):
//!
//! * `fig10_table` — regenerates Figure 10 (E1/E3): per-project TS vs
//!   BMC error counts over the 38 acknowledged projects, with totals
//!   and the instrumentation-reduction headline.
//! * `corpus_stats` — regenerates the §5 corpus statistics (E2):
//!   projects, files, statements, vulnerable files/projects.
//! * `encoding_blowup` — regenerates the §3.3.1-vs-§3.3.2 comparison
//!   (E7): CNF sizes and solve times of the auxiliary-variable encoding
//!   against variable renaming.
//!
//! Criterion benches (`cargo bench -p webssari-bench`) cover the SAT
//! substrate, both encodings, the fixing-set solvers, the Figure 10
//! pipeline, end-to-end scaling, and the policy ablations (two-point vs
//! multi-class lattice, certification overhead, loop unrolling).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cnf::{Clause, CnfFormula, Lit, Var};
use corpus::{Corpus, GeneratedProject};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webssari_core::Verifier;

/// The pigeonhole principle PHP(m, n): m pigeons into n holes.
/// Unsatisfiable iff `pigeons > holes`; classically hard for resolution.
pub fn pigeonhole(pigeons: usize, holes: usize) -> CnfFormula {
    let mut f = CnfFormula::new();
    let var = |p: usize, h: usize| Var::new(p * holes + h);
    for p in 0..pigeons {
        f.add_lits((0..holes).map(|h| var(p, h).positive()));
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                f.add_lits([var(p1, h).negative(), var(p2, h).negative()]);
            }
        }
    }
    f
}

/// Random 3-SAT with the given clause count (ratio ≈ 4.26 · vars puts
/// instances at the satisfiability phase transition).
pub fn random_3sat(num_vars: usize, num_clauses: usize, seed: u64) -> CnfFormula {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut f = CnfFormula::new();
    for _ in 0..num_clauses {
        let mut lits = Vec::with_capacity(3);
        for _ in 0..3 {
            let v = rng.random_range(0..num_vars);
            lits.push(Lit::new(Var::new(v), rng.random_bool(0.5)));
        }
        f.add_clause(Clause::new(lits));
    }
    f.ensure_var(Var::new(num_vars - 1));
    f
}

/// A straight-line PHP program with an `n`-step copy chain from an
/// untrusted read to a sink — the minimal workload where the
/// auxiliary-variable encoding's `2·|X|`-per-step cost shows.
pub fn chain_program(n: usize) -> String {
    let mut src = String::from("<?php\n$v0 = $_GET['p'];\n");
    for i in 1..n {
        let _ = writeln!(src, "$v{i} = $v{};", i - 1);
    }
    let _ = writeln!(src, "echo $v{};", n.saturating_sub(1));
    src
}

/// A PHP program with `k` independent branches guarding one shared
/// sink — exercises counterexample enumeration.
pub fn branchy_program(k: usize) -> String {
    let mut src = String::from("<?php\n$x = 'safe';\n");
    for i in 0..k {
        let _ = writeln!(src, "if ($c{i}) {{ $x = $x . $_GET['p{i}']; }}");
    }
    src.push_str("echo $x;\n");
    src
}

/// The PHP Surveyor shape (Figure 7): one root cause fanning out to
/// `k` vulnerable statements.
pub fn surveyor_like(k: usize) -> String {
    let mut src = String::from("<?php\n$sid = $_GET['sid'];\n");
    for i in 0..k {
        let _ = writeln!(
            src,
            "$q{i} = \"SELECT * FROM t{i} WHERE sid=$sid\";\nDoSQL($q{i});"
        );
    }
    src
}

/// One row of the regenerated Figure 10.
#[derive(Clone, Debug)]
pub struct Fig10Row {
    /// Project name.
    pub name: String,
    /// SourceForge activity percentile.
    pub activity: u8,
    /// Measured TS-reported errors.
    pub ts: usize,
    /// Measured BMC-reported groups.
    pub bmc: usize,
    /// Expected (paper) TS count.
    pub expected_ts: usize,
    /// Expected (paper) BMC count.
    pub expected_bmc: usize,
    /// Statements analyzed.
    pub statements: usize,
    /// Wall-clock verification time.
    pub elapsed: Duration,
}

/// Verifies every project of a corpus (in parallel across worker
/// threads) and returns the measured per-project rows.
pub fn verify_corpus(corpus: &Corpus, threads: usize) -> Vec<Fig10Row> {
    let queue = Mutex::new(corpus.projects.iter().collect::<Vec<_>>());
    let results = Mutex::new(Vec::<Fig10Row>::new());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let verifier = Verifier::new();
                loop {
                    let next = queue.lock().expect("queue lock poisoned").pop();
                    let Some(project): Option<&GeneratedProject> = next else {
                        break;
                    };
                    let start = Instant::now();
                    let report = verifier.verify_project(&project.sources);
                    let elapsed = start.elapsed();
                    results
                        .lock()
                        .expect("results lock poisoned")
                        .push(Fig10Row {
                            name: project.name.clone(),
                            activity: project.profile.activity,
                            ts: report.ts_errors(),
                            bmc: report.bmc_groups(),
                            expected_ts: project.expected_ts,
                            expected_bmc: project.expected_bmc,
                            statements: project.num_statements,
                            elapsed,
                        });
                }
            });
        }
    });
    let mut rows = results.into_inner().expect("results lock poisoned");
    rows.sort_by(|a, b| a.name.cmp(&b.name));
    rows
}

/// Formats rows as the Figure 10 table with totals and the reduction
/// headline.
pub fn render_fig10(rows: &[Fig10Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<40} {:>3} {:>6} {:>6} {:>9} {:>9}",
        "Project", "A", "TS", "BMC", "paper-TS", "paper-BMC"
    );
    let _ = writeln!(out, "{}", "-".repeat(80));
    let (mut ts, mut bmc, mut ets, mut ebmc) = (0usize, 0usize, 0usize, 0usize);
    for r in rows {
        let _ = writeln!(
            out,
            "{:<40} {:>3} {:>6} {:>6} {:>9} {:>9}",
            r.name, r.activity, r.ts, r.bmc, r.expected_ts, r.expected_bmc
        );
        ts += r.ts;
        bmc += r.bmc;
        ets += r.expected_ts;
        ebmc += r.expected_bmc;
    }
    let _ = writeln!(out, "{}", "-".repeat(80));
    let _ = writeln!(
        out,
        "{:<40} {:>3} {:>6} {:>6} {:>9} {:>9}",
        "Total", "", ts, bmc, ets, ebmc
    );
    if ts > 0 {
        let _ = writeln!(
            out,
            "Instrumentation reduction: {:.1}% (paper: 41.0%)",
            (1.0 - bmc as f64 / ts as f64) * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use php_front::parse_source;

    #[test]
    fn workload_programs_parse() {
        for src in [chain_program(5), branchy_program(3), surveyor_like(4)] {
            parse_source(&src).expect("workload must parse");
        }
    }

    #[test]
    fn pigeonhole_shapes() {
        let f = pigeonhole(4, 3);
        assert_eq!(f.num_vars(), 12);
        assert!(f.num_clauses() > 4);
    }

    #[test]
    fn random_3sat_is_deterministic() {
        let a = random_3sat(20, 85, 1);
        let b = random_3sat(20, 85, 1);
        assert_eq!(a.num_clauses(), b.num_clauses());
        assert_eq!(a.clauses(), b.clauses());
    }

    #[test]
    fn surveyor_like_reduces_to_one_patch() {
        let src = surveyor_like(16);
        let report = Verifier::new().verify_source(&src, "surveyor.php").unwrap();
        assert_eq!(report.ts_instrumentations(), 16);
        assert_eq!(report.bmc_instrumentations(), 1);
    }

    #[test]
    fn verify_corpus_parallel_matches_expectations() {
        // A small slice of Figure 10, three worker threads.
        let corpus = Corpus {
            projects: corpus::figure10_profiles()
                .iter()
                .take(4)
                .map(corpus::generate_project)
                .collect(),
        };
        let rows = verify_corpus(&corpus, 3);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert_eq!(r.ts, r.expected_ts, "{}", r.name);
            assert_eq!(r.bmc, r.expected_bmc, "{}", r.name);
        }
        let table = render_fig10(&rows);
        assert!(table.contains("Total"));
    }
}
