//! The screening suite behind `BENCH_screen.json`: the tiered
//! TS→slice→BMC pipeline (`webssari-analysis`) measured against the raw
//! BMC check over the Figure 10 corpus. The verifier no longer screens
//! (it gates BMC on the typestate verdict and checks the full AI), so
//! this suite and the benchmark mirror are the tiers' only callers.
//!
//! For every corpus file both pipelines run end to end:
//!
//! * **raw** — encode the full `AI(F(p))` and enumerate counterexamples
//!   for every assertion, as the verifier does for a file with a
//!   typestate error.
//! * **screened** — static discharge, cone-of-influence slice, then
//!   BMC over the slice only (skipped entirely when every assertion
//!   discharges), with traces re-replayed on the full program. The
//!   typestate result all tiers consume is computed outside the timed
//!   region: the verifier needs it for the report either way, so it is
//!   not part of screening's marginal cost.
//! * **flow** — the two-stage tier: static discharge with flow-clean
//!   re-attribution, then BMC over the *refined* slice (dead
//!   definitions dropped, constants folded). Its encoding must be
//!   strictly smaller than the cone-only slice across the corpus.
//!
//! The suite records the discharge fraction, the CNF variable/clause
//! reduction each tier buys, and the wall-clock deltas — and, for the
//! CI smoke job, per-project deterministic outcomes (assertion counts,
//! discharge counts, flow re-attribution counts, and an
//! order-independent counterexample fingerprint) that a committed
//! `BENCH_screen.json` must reproduce. All three pipelines'
//! counterexample sets are asserted identical on every file, so the
//! benchmark doubles as a corpus-scale equivalence check.

use std::time::{Duration, Instant};

use jsonio::Value;
use php_front::parse_source;
use taint_lattice::TwoPoint;
use webssari_ir::{abstract_interpret, filter_program, AiProgram, FilterOptions, Prelude};
use xbmc::{CheckResult, Xbmc};

/// One project's before/after measurement.
#[derive(Clone, Debug)]
pub struct ProjectResult {
    /// Corpus project name (the `--check` comparison key).
    pub name: String,
    /// Files that parsed and were measured.
    pub files: usize,
    /// Total assertions across the project's files.
    pub assertions: usize,
    /// Assertions the screening tier discharged statically.
    pub discharged: usize,
    /// CNF variables when encoding the full programs.
    pub full_cnf_vars: u64,
    /// CNF clauses when encoding the full programs.
    pub full_cnf_clauses: u64,
    /// CNF variables when encoding only the slices (0 for files whose
    /// assertions all discharge).
    pub sliced_cnf_vars: u64,
    /// CNF clauses when encoding only the slices.
    pub sliced_cnf_clauses: u64,
    /// Assertions whose discharge proof the flow tier re-attributed to
    /// `flow-clean`.
    pub flow_discharged: usize,
    /// CNF variables when encoding the flow-refined slices.
    pub flow_cnf_vars: u64,
    /// CNF clauses when encoding the flow-refined slices.
    pub flow_cnf_clauses: u64,
    /// Wall time of the raw pipeline.
    pub full_wall: Duration,
    /// Wall time of the screened pipeline (screen + BMC on the slice).
    pub screened_wall: Duration,
    /// Wall time of the flow pipeline (two-stage screen + BMC on the
    /// refined slice).
    pub flow_wall: Duration,
    /// Counterexamples found (identical in both pipelines).
    pub counterexamples: usize,
    /// Order-independent FNV-1a fingerprint of the counterexample set
    /// across the project's files.
    pub fingerprint: u64,
}

/// A full suite run.
#[derive(Clone, Debug)]
pub struct SuiteResult {
    /// `full` or `fast`.
    pub mode: &'static str,
    /// Per-project measurements, in corpus order.
    pub projects: Vec<ProjectResult>,
}

/// Percentage of `part` in `whole`, scaled by 100 (jsonio stores only
/// integers); 0 when `whole` is 0.
fn pct_x100(part: u64, whole: u64) -> u64 {
    (part * 10_000).checked_div(whole).unwrap_or(0)
}

impl SuiteResult {
    fn totals(&self) -> (u64, u64, u64, u64, u64, u64, u64, u64) {
        let mut t = (0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        for p in &self.projects {
            t.0 += p.assertions as u64;
            t.1 += p.discharged as u64;
            t.2 += p.full_cnf_vars;
            t.3 += p.sliced_cnf_vars;
            t.4 += p.full_cnf_clauses;
            t.5 += p.sliced_cnf_clauses;
            t.6 += p.full_wall.as_micros() as u64;
            t.7 += p.screened_wall.as_micros() as u64;
        }
        t
    }

    /// Fraction of assertions discharged statically, ×100 as a
    /// percentage ×100 (e.g. 4250 = 42.50 %). The acceptance headline:
    /// must be nonzero on the committed baseline.
    pub fn discharge_pct_x100(&self) -> u64 {
        let (assertions, discharged, ..) = self.totals();
        pct_x100(discharged, assertions)
    }

    /// CNF variables removed by slicing, as a percentage ×100 of the
    /// full encoding.
    pub fn cnf_var_reduction_pct_x100(&self) -> u64 {
        let (_, _, full, sliced, ..) = self.totals();
        pct_x100(full.saturating_sub(sliced), full)
    }

    /// CNF clauses removed by slicing, as a percentage ×100.
    pub fn cnf_clause_reduction_pct_x100(&self) -> u64 {
        let (.., full, sliced, _, _) = self.totals();
        pct_x100(full.saturating_sub(sliced), full)
    }

    /// `full_wall / screened_wall`, scaled by 100.
    pub fn speedup_x100(&self) -> u64 {
        let (.., full_us, screened_us) = self.totals();
        full_us * 100 / screened_us.max(1)
    }

    /// `(flow_vars, flow_clauses, flow_us, flow_discharged)` totals for
    /// the flow pipeline.
    fn flow_totals(&self) -> (u64, u64, u64, u64) {
        let mut t = (0u64, 0u64, 0u64, 0u64);
        for p in &self.projects {
            t.0 += p.flow_cnf_vars;
            t.1 += p.flow_cnf_clauses;
            t.2 += p.flow_wall.as_micros() as u64;
            t.3 += p.flow_discharged as u64;
        }
        t
    }

    /// CNF variables removed by the flow-refined slice, as a percentage
    /// ×100 of the full encoding.
    pub fn flow_cnf_var_reduction_pct_x100(&self) -> u64 {
        let (_, _, full, ..) = self.totals();
        let (flow, ..) = self.flow_totals();
        pct_x100(full.saturating_sub(flow), full)
    }

    /// CNF clauses removed by the flow-refined slice, as a percentage
    /// ×100 of the full encoding.
    pub fn flow_cnf_clause_reduction_pct_x100(&self) -> u64 {
        let full = self.totals().4;
        let (_, flow, ..) = self.flow_totals();
        pct_x100(full.saturating_sub(flow), full)
    }

    /// `full_wall / flow_wall`, scaled by 100.
    pub fn flow_speedup_x100(&self) -> u64 {
        let (.., full_us, _) = self.totals();
        let (_, _, flow_us, _) = self.flow_totals();
        full_us * 100 / flow_us.max(1)
    }

    /// Total flow-clean re-attributions across the corpus.
    pub fn flow_discharged_total(&self) -> u64 {
        self.flow_totals().3
    }

    /// Serializes the suite to the `BENCH_screen.json` document.
    pub fn to_json(&self) -> Value {
        let projects = self
            .projects
            .iter()
            .map(|p| {
                Value::obj(vec![
                    ("name", Value::str(p.name.clone())),
                    ("files", Value::Num(p.files as u64)),
                    ("assertions", Value::Num(p.assertions as u64)),
                    ("discharged", Value::Num(p.discharged as u64)),
                    ("full_cnf_vars", Value::Num(p.full_cnf_vars)),
                    ("full_cnf_clauses", Value::Num(p.full_cnf_clauses)),
                    ("sliced_cnf_vars", Value::Num(p.sliced_cnf_vars)),
                    ("sliced_cnf_clauses", Value::Num(p.sliced_cnf_clauses)),
                    ("flow_discharged", Value::Num(p.flow_discharged as u64)),
                    ("flow_cnf_vars", Value::Num(p.flow_cnf_vars)),
                    ("flow_cnf_clauses", Value::Num(p.flow_cnf_clauses)),
                    ("full_wall_us", Value::Num(p.full_wall.as_micros() as u64)),
                    (
                        "screened_wall_us",
                        Value::Num(p.screened_wall.as_micros() as u64),
                    ),
                    ("flow_wall_us", Value::Num(p.flow_wall.as_micros() as u64)),
                    ("counterexamples", Value::Num(p.counterexamples as u64)),
                    ("fingerprint", Value::str(format!("{:016x}", p.fingerprint))),
                ])
            })
            .collect();
        Value::obj(vec![
            ("schema", Value::str("bench_screen/v2")),
            ("mode", Value::str(self.mode)),
            (
                "summary",
                Value::obj(vec![
                    ("discharge_pct_x100", Value::Num(self.discharge_pct_x100())),
                    (
                        "cnf_var_reduction_pct_x100",
                        Value::Num(self.cnf_var_reduction_pct_x100()),
                    ),
                    (
                        "cnf_clause_reduction_pct_x100",
                        Value::Num(self.cnf_clause_reduction_pct_x100()),
                    ),
                    ("speedup_x100", Value::Num(self.speedup_x100())),
                    (
                        "flow_cnf_var_reduction_pct_x100",
                        Value::Num(self.flow_cnf_var_reduction_pct_x100()),
                    ),
                    (
                        "flow_cnf_clause_reduction_pct_x100",
                        Value::Num(self.flow_cnf_clause_reduction_pct_x100()),
                    ),
                    ("flow_speedup_x100", Value::Num(self.flow_speedup_x100())),
                    ("flow_discharged", Value::Num(self.flow_discharged_total())),
                ]),
            ),
            ("projects", Value::Arr(projects)),
        ])
    }

    /// Compares this run's deterministic outcomes (assertion counts,
    /// discharge counts, counterexample counts and fingerprints — never
    /// wall times or CNF sizes, which encoder changes may legitimately
    /// move) against a committed `BENCH_screen.json`.
    ///
    /// Projects are matched by name, so a fast run checked against a
    /// committed full run compares only the projects both have.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch.
    pub fn check_against(&self, committed: &Value) -> Result<(), String> {
        let committed_projects = committed
            .get("projects")
            .and_then(Value::as_arr)
            .ok_or("committed BENCH_screen.json has no projects array")?;
        for p in &self.projects {
            let Some(c) = committed_projects
                .iter()
                .find(|c| c.get("name").and_then(Value::as_str) == Some(p.name.as_str()))
            else {
                continue;
            };
            for (field, current) in [
                ("assertions", p.assertions as u64),
                ("discharged", p.discharged as u64),
                ("flow_discharged", p.flow_discharged as u64),
                ("counterexamples", p.counterexamples as u64),
            ] {
                let committed_n = c.get(field).and_then(Value::as_u64).unwrap_or(u64::MAX);
                if committed_n != current {
                    return Err(format!(
                        "project {}: {field} {current} != committed {committed_n}",
                        p.name
                    ));
                }
            }
            let committed_fp = c.get("fingerprint").and_then(Value::as_str).unwrap_or("");
            let current_fp = format!("{:016x}", p.fingerprint);
            if committed_fp != current_fp {
                return Err(format!(
                    "project {}: fingerprint {current_fp} != committed {committed_fp}",
                    p.name
                ));
            }
        }
        let committed_discharge = committed
            .get("summary")
            .and_then(|s| s.get("discharge_pct_x100"))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        if committed_discharge == 0 {
            return Err("committed baseline discharges nothing — screening is vacuous".into());
        }
        if committed_discharge < 4500 {
            return Err(format!(
                "committed baseline discharges only {:.2}% statically — below the 45% target",
                committed_discharge as f64 / 100.0
            ));
        }
        // The flow tier must buy a *strictly* smaller encoding than the
        // cone-only slice on this run (dead-definition elimination and
        // constant folding are its whole point), and must re-attribute
        // a nonzero number of proofs.
        let sliced_clauses = self.totals().5;
        let (_, flow_clauses, ..) = self.flow_totals();
        if sliced_clauses > 0 && flow_clauses >= sliced_clauses {
            return Err(format!(
                "flow-refined encoding ({flow_clauses} clauses) is not strictly smaller than \
                 the cone-only slice ({sliced_clauses} clauses) — the flow tier is vacuous"
            ));
        }
        if self.flow_discharged_total() == 0 {
            return Err(
                "flow tier re-attributed no discharge proofs — flow-clean is vacuous".into(),
            );
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------

/// Order-independent FNV-1a over a sorted `(file, assert, branches)`
/// counterexample set.
fn fingerprint(counterexamples: &mut [(usize, u32, Vec<bool>)]) -> u64 {
    counterexamples.sort();
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    };
    for (file, id, branches) in counterexamples.iter() {
        for b in (*file as u64).to_le_bytes() {
            eat(b);
        }
        for b in id.to_le_bytes() {
            eat(b);
        }
        for &bit in branches {
            eat(u8::from(bit));
        }
        eat(0xFF);
    }
    h
}

fn ai_of(src: &str, name: &str, prelude: &Prelude) -> Option<AiProgram> {
    let ast = parse_source(src).ok()?;
    let f = filter_program(&ast, src, name, prelude, &FilterOptions::default());
    Some(abstract_interpret(&f))
}

/// The raw pipeline: full encoding, full enumeration.
fn raw_check(ai: &AiProgram) -> CheckResult {
    Xbmc::new(ai).check_all()
}

/// The screened pipeline, exactly as `webssari-core` runs it: static
/// discharge then BMC over the slice (or no SAT at all when everything
/// discharges), with traces re-replayed on the full program. Takes the
/// typestate result as input because the verifier computes it for the
/// report whether or not screening is on — it is not part of
/// screening's marginal cost. Returns the merged result and the
/// discharge count.
fn screened_check(
    ai: &AiProgram,
    ts: &typestate::TsResult,
    lattice: &TwoPoint,
) -> (CheckResult, usize) {
    let screened = webssari_analysis::screen(ai, ts, lattice);
    let discharged = screened.discharged.len();
    let mut result = if screened.all_discharged() {
        CheckResult::default()
    } else {
        Xbmc::new(&screened.sliced).check_all()
    };
    result.checked_assertions += discharged;
    for cx in &mut result.counterexamples {
        cx.trace = xbmc::replay_trace(ai, &cx.branches, cx.assert_id);
    }
    (result, discharged)
}

/// The two-stage flow pipeline, exactly as `webssari-core` runs it with
/// the flow tier on: static discharge with flow-clean re-attribution,
/// then BMC over the refined (dead-defs-dropped, consts-folded) slice,
/// with traces re-replayed on the full program. Returns the merged
/// result and the flow-clean re-attribution count.
fn flow_check(
    ai: &AiProgram,
    ts: &typestate::TsResult,
    lattice: &TwoPoint,
) -> (CheckResult, usize) {
    let flow = webssari_analysis::screen_two_stage(ai, ts, lattice);
    let discharged = flow.screen.discharged.len();
    let mut result = if flow.screen.all_discharged() {
        CheckResult::default()
    } else {
        Xbmc::new(&flow.refined).check_all()
    };
    result.checked_assertions += discharged;
    for cx in &mut result.counterexamples {
        cx.trace = xbmc::replay_trace(ai, &cx.branches, cx.assert_id);
    }
    (result, flow.flow_discharged as usize)
}

/// Measures one project: every file through both pipelines, best-of-
/// `reps` wall times, deterministic outcomes asserted equal between the
/// pipelines on every rep.
fn measure_project(
    name: &str,
    files: &[(String, String)],
    prelude: &Prelude,
    reps: usize,
) -> ProjectResult {
    let lattice = TwoPoint::new();
    let programs: Vec<(AiProgram, typestate::TsResult)> = files
        .iter()
        .filter_map(|(file, src)| ai_of(src, file, prelude))
        .map(|ai| {
            let ts = typestate::analyze(&ai, &lattice);
            (ai, ts)
        })
        .collect();

    // Deterministic outcomes and CNF sizes, measured once.
    let mut assertions = 0usize;
    let mut discharged_total = 0usize;
    let mut flow_discharged_total = 0usize;
    let mut full_sizes = (0u64, 0u64);
    let mut sliced_sizes = (0u64, 0u64);
    let mut flow_sizes = (0u64, 0u64);
    let mut cxs: Vec<(usize, u32, Vec<bool>)> = Vec::new();
    for (idx, (ai, ts)) in programs.iter().enumerate() {
        assertions += ai.num_assertions();
        let full = raw_check(ai);
        let (screened, discharged) = screened_check(ai, ts, &lattice);
        assert_eq!(
            full.counterexamples, screened.counterexamples,
            "{name}: screening changed the counterexample set"
        );
        let (flowed, flow_discharged) = flow_check(ai, ts, &lattice);
        assert_eq!(
            full.counterexamples, flowed.counterexamples,
            "{name}: the flow tier changed the counterexample set"
        );
        discharged_total += discharged;
        flow_discharged_total += flow_discharged;
        full_sizes.0 += full.stats.cnf_vars as u64;
        full_sizes.1 += full.stats.cnf_clauses as u64;
        sliced_sizes.0 += screened.stats.cnf_vars as u64;
        sliced_sizes.1 += screened.stats.cnf_clauses as u64;
        flow_sizes.0 += flowed.stats.cnf_vars as u64;
        flow_sizes.1 += flowed.stats.cnf_clauses as u64;
        cxs.extend(
            full.counterexamples
                .iter()
                .map(|c| (idx, c.assert_id.0, c.branches.clone())),
        );
    }

    // Wall times: best of `reps` end-to-end sweeps per pipeline.
    let mut full_wall: Option<Duration> = None;
    let mut screened_wall: Option<Duration> = None;
    let mut flow_wall: Option<Duration> = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        for (ai, _) in &programs {
            let _ = raw_check(ai);
        }
        let f = t0.elapsed();
        if full_wall.is_none_or(|best| f < best) {
            full_wall = Some(f);
        }
        let t1 = Instant::now();
        for (ai, ts) in &programs {
            let _ = screened_check(ai, ts, &lattice);
        }
        let s = t1.elapsed();
        if screened_wall.is_none_or(|best| s < best) {
            screened_wall = Some(s);
        }
        let t2 = Instant::now();
        for (ai, ts) in &programs {
            let _ = flow_check(ai, ts, &lattice);
        }
        let w = t2.elapsed();
        if flow_wall.is_none_or(|best| w < best) {
            flow_wall = Some(w);
        }
    }

    let counterexamples = cxs.len();
    ProjectResult {
        name: name.to_owned(),
        files: programs.len(),
        assertions,
        discharged: discharged_total,
        full_cnf_vars: full_sizes.0,
        full_cnf_clauses: full_sizes.1,
        sliced_cnf_vars: sliced_sizes.0,
        sliced_cnf_clauses: sliced_sizes.1,
        flow_discharged: flow_discharged_total,
        flow_cnf_vars: flow_sizes.0,
        flow_cnf_clauses: flow_sizes.1,
        full_wall: full_wall.expect("reps >= 1"),
        screened_wall: screened_wall.expect("reps >= 1"),
        flow_wall: flow_wall.expect("reps >= 1"),
        counterexamples,
        fingerprint: fingerprint(&mut cxs),
    }
}

/// A wide synthetic file: `n` sanitized echo blocks (every one
/// discharged by the screening tier) around one small tainted core —
/// the shape slicing is built for. The raw pipeline encodes and checks
/// all `n + 1` assertions; the screened pipeline SAT-checks exactly one
/// over a cone-sized formula.
fn synthetic_wide(n: usize) -> Vec<(String, String)> {
    let mut src = String::from("<?php\n");
    for i in 0..n {
        src.push_str(&format!(
            "$s{i} = htmlspecialchars($_GET['p{i}']);\necho $s{i};\n"
        ));
    }
    src.push_str("$x = $_GET['x'];\nif ($c) { $x = 'safe'; }\nmysql_query($x);\n");
    vec![("wide.php".to_owned(), src)]
}

/// Runs the suite over the Figure 10 corpus plus one wide synthetic
/// workload. `fast` measures a prefix of the corpus with fewer
/// repetitions for the CI smoke job; deterministic outcomes for the
/// projects it does measure are identical to full mode.
pub fn run_suite(fast: bool) -> SuiteResult {
    let corpus = corpus::Corpus::figure10();
    let prelude = Prelude::standard();
    let (limit, reps) = if fast {
        (10, 1)
    } else {
        (corpus.projects.len(), 3)
    };
    let mut projects: Vec<ProjectResult> = corpus
        .projects
        .iter()
        .take(limit)
        .map(|p| {
            let files: Vec<(String, String)> = p
                .sources
                .iter()
                .map(|(n, s)| (n.to_owned(), s.to_owned()))
                .collect();
            measure_project(&p.name, &files, &prelude, reps)
        })
        .collect();
    // Sized identically in both modes so the smoke run's outcomes are
    // comparable against a committed full baseline.
    projects.push(measure_project(
        "synthetic-wide-sanitized",
        &synthetic_wide(150),
        &prelude,
        reps,
    ));
    // The SQL-heavy profile: structured-SQL sinks (concat vs
    // parameterized) and fetch-read pages, also identical across modes.
    let sql_heavy: Vec<(String, String)> = corpus::sql_heavy_project(12)
        .sources
        .iter()
        .map(|(n, s)| (n.to_owned(), s.to_owned()))
        .collect();
    projects.push(measure_project("sql-heavy", &sql_heavy, &prelude, reps));
    SuiteResult {
        mode: if fast { "fast" } else { "full" },
        projects,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_suite() -> SuiteResult {
        SuiteResult {
            mode: "fast",
            projects: vec![ProjectResult {
                name: "proj-a".into(),
                files: 2,
                assertions: 8,
                discharged: 4,
                full_cnf_vars: 400,
                full_cnf_clauses: 900,
                sliced_cnf_vars: 300,
                sliced_cnf_clauses: 700,
                flow_discharged: 2,
                flow_cnf_vars: 280,
                flow_cnf_clauses: 600,
                full_wall: Duration::from_micros(4000),
                screened_wall: Duration::from_micros(2500),
                flow_wall: Duration::from_micros(2000),
                counterexamples: 5,
                fingerprint: 0xABCD,
            }],
        }
    }

    #[test]
    fn summary_percentages_are_scaled_integers() {
        let suite = synthetic_suite();
        assert_eq!(suite.discharge_pct_x100(), 5000); // 4/8 = 50.00 %
        assert_eq!(suite.cnf_var_reduction_pct_x100(), 2500); // 100/400
        assert_eq!(suite.speedup_x100(), 160); // 4000/2500
        assert_eq!(suite.flow_cnf_var_reduction_pct_x100(), 3000); // 120/400
        assert_eq!(suite.flow_cnf_clause_reduction_pct_x100(), 3333); // 300/900
        assert_eq!(suite.flow_speedup_x100(), 200); // 4000/2000
        assert_eq!(suite.flow_discharged_total(), 2);
    }

    #[test]
    fn check_catches_outcome_drift_but_not_timing() {
        let suite = synthetic_suite();
        let text = suite.to_json().to_json();
        let committed = jsonio::parse(&text).expect("suite JSON parses");
        suite
            .check_against(&committed)
            .expect("a run checks against its own output");
        // Wall times may drift freely.
        let slower = text.replace("\"screened_wall_us\":2500", "\"screened_wall_us\":9999");
        suite
            .check_against(&jsonio::parse(&slower).unwrap())
            .expect("wall times are not compared");
        // Discharge counts may not.
        let drifted = text.replace("\"discharged\":4", "\"discharged\":2");
        assert!(suite
            .check_against(&jsonio::parse(&drifted).unwrap())
            .is_err());
        // Nor flow re-attribution counts.
        let flow_drifted = text.replace("\"flow_discharged\":2,", "\"flow_discharged\":1,");
        assert!(suite
            .check_against(&jsonio::parse(&flow_drifted).unwrap())
            .is_err());
        // Nor fingerprints.
        let tampered = text.replace("000000000000abcd", "0000000000000000");
        assert!(suite
            .check_against(&jsonio::parse(&tampered).unwrap())
            .is_err());
    }

    #[test]
    fn check_rejects_a_vacuous_baseline() {
        let mut suite = synthetic_suite();
        suite.projects[0].discharged = 0;
        let committed = jsonio::parse(&suite.to_json().to_json()).unwrap();
        assert!(suite.check_against(&committed).is_err());
    }

    #[test]
    fn check_rejects_a_baseline_below_the_discharge_target() {
        let mut suite = synthetic_suite();
        suite.projects[0].discharged = 3; // 37.50 % < 45 %
        let committed = jsonio::parse(&suite.to_json().to_json()).unwrap();
        let err = suite.check_against(&committed).unwrap_err();
        assert!(err.contains("45%"), "{err}");
    }

    #[test]
    fn check_rejects_a_flow_tier_that_buys_nothing() {
        // Equal clause counts: the refinement did not strictly shrink
        // the encoding.
        let mut suite = synthetic_suite();
        suite.projects[0].flow_cnf_clauses = suite.projects[0].sliced_cnf_clauses;
        let committed = jsonio::parse(&suite.to_json().to_json()).unwrap();
        let err = suite.check_against(&committed).unwrap_err();
        assert!(err.contains("strictly smaller"), "{err}");
        // Zero re-attributions: flow-clean never fired.
        let mut suite = synthetic_suite();
        suite.projects[0].flow_discharged = 0;
        let committed = jsonio::parse(&suite.to_json().to_json()).unwrap();
        let err = suite.check_against(&committed).unwrap_err();
        assert!(err.contains("re-attributed"), "{err}");
    }

    #[test]
    fn screened_pipeline_matches_raw_on_a_small_project() {
        let files = vec![
            (
                "clean.php".to_owned(),
                "<?php\n$a = htmlspecialchars($_GET['a']);\necho $a;\n".to_owned(),
            ),
            (
                "vuln.php".to_owned(),
                "<?php\n$b = $_GET['b'];\nmysql_query($b);\n".to_owned(),
            ),
        ];
        let r = measure_project("mini", &files, &Prelude::standard(), 1);
        assert_eq!(r.files, 2);
        assert!(r.assertions >= 2);
        assert!(r.discharged >= 1, "the sanitized file must discharge");
        assert_eq!(r.counterexamples, 1);
        assert!(r.sliced_cnf_vars < r.full_cnf_vars);
        assert!(r.flow_cnf_clauses <= r.sliced_cnf_clauses);
    }

    #[test]
    fn flow_pipeline_strictly_shrinks_a_dead_def_cone() {
        // The sink's cone variable carries a branch-dependent dead
        // definition the flow tier drops (along with the branch's merge
        // clauses); cone-only slicing must keep it.
        let files = vec![(
            "dead.php".to_owned(),
            "<?php\nif ($c) { $x = $_GET['a']; } else { $x = 'lit'; }\n\
             $x = $_GET['x'];\nmysql_query($x);\n\
             $tk = $_GET['tk'];\n$tk = 'safe';\necho $tk;\n"
                .to_owned(),
        )];
        let r = measure_project("dead-def", &files, &Prelude::standard(), 1);
        // The dead branch is in the sink's cone, so enumeration
        // quantifies over it: one counterexample per branch value.
        assert_eq!(r.counterexamples, 2);
        assert!(
            r.flow_cnf_clauses < r.sliced_cnf_clauses,
            "flow {} vs sliced {}",
            r.flow_cnf_clauses,
            r.sliced_cnf_clauses
        );
        assert!(
            r.flow_discharged >= 1,
            "the killed-taint echo must re-attribute to flow-clean"
        );
    }
}
