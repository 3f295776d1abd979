//! The traced pipeline: `Verifier::verify_file` re-run one stage at a
//! time through each crate's public functions, in the order
//! `webssari_core::Verifier::verify_with_lattice` runs them, with a span
//! around every call.
//!
//! The mirror covers the configuration the benchmark verifies with
//! (`Verifier::new()`: two-point lattice, one loop unfolding, default
//! filter and check options, screening on, greedy fixing set, no solve
//! budget). Its report is compared with the real one on every file, so
//! a stage that the real pipeline reorders, adds or drops shows up as
//! drift instead of as time charged to the wrong layer.

use std::collections::{BTreeMap, BTreeSet};

use php_front::{parse_source, resolve_includes, IncludeError, SourceSet};
use taint_lattice::TwoPoint;
use webssari_core::{FileOutcome, FileReport, Verifier, Vulnerability};
use webssari_ir::{
    abstract_interpret_with, filter_program_with_stores, is_store_cell, AiCmd, AiProgram, AssertId,
    FilterOptions, StoreSummary, VarId,
};
use xbmc::{CheckOptions, CheckResult, Counterexample, Xbmc};

use crate::trace::Tracer;

/// The verification stages, each a span name; their summed self time
/// over `core.verify_file_s` is `trace.mirror_ratio`.
pub const STAGES: [&str; 10] = [
    "php_front.parse",
    "ir.filter",
    "ir.ai",
    "typestate.analyze",
    "analysis.screen",
    "bmc.check",
    "dataflow.summaries",
    "bmc.count_vars",
    "bmc.replay",
    "fixes.plan",
];

/// Verifies `entry` of `sources` against an installed store summary,
/// as `verifier.with_store_summary(stores).verify_file(sources, entry)`
/// does, recording a span per stage and the layer counters.
pub fn verify_file(
    verifier: &Verifier,
    sources: &SourceSet,
    entry: &str,
    stores: &StoreSummary,
    tr: &mut Tracer,
    id: u64,
) -> Result<FileReport, String> {
    let src = sources.file(entry).ok_or("entry file missing")?;
    let program = tr.time("php_front.parse", id, || {
        match resolve_includes(sources, entry) {
            Ok(p) => Ok(p),
            Err(
                IncludeError::DynamicIncludePath { .. }
                | IncludeError::MissingFile { .. }
                | IncludeError::IncludeCycle(_),
            ) => parse_source(src).map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        }
    })?;
    tr.count("php_front.statements", program.num_statements() as f64);

    let lattice = TwoPoint::new();
    let filter_options = FilterOptions::default();
    let prelude = verifier.prelude();
    let f = tr.time("ir.filter", id, || {
        filter_program_with_stores(
            &program,
            src,
            entry,
            prelude,
            &filter_options,
            stores,
            &lattice,
        )
    });
    let ai = tr.time("ir.ai", id, || abstract_interpret_with(&f, &lattice, 1));
    tr.count("ir.ai_cmds", ai.cmds.len() as f64);
    let ts = tr.time("typestate.analyze", id, || {
        typestate::analyze(&ai, &lattice)
    });
    tr.count("typestate.ts_errors", ts.num_instrumentations() as f64);

    let flow = tr.time("analysis.screen", id, || {
        webssari_analysis::screen_two_stage(&ai, &ts, &lattice)
    });
    let discharged = flow.screen.discharged.len();
    let mut bmc = if flow.screen.all_discharged() {
        CheckResult::default()
    } else {
        tr.count("bmc.programs_checked", 1.0);
        tr.time("bmc.check", id, || {
            Xbmc::with_options(&flow.refined, CheckOptions::default()).check_all_with(&lattice)
        })
    };
    bmc.checked_assertions += discharged;
    bmc.stats.assertions_discharged = discharged as u64;
    bmc.stats.flow_discharged = flow.flow_discharged;
    bmc.stats.ssa_phis = flow.ssa_phis;
    let sums = tr.time("dataflow.summaries", id, || {
        webssari_dataflow::compute_summaries(
            &program,
            prelude,
            &lattice,
            filter_options.max_inline_depth,
        )
    });
    bmc.stats.summaries_computed = sums.summaries_computed;
    bmc.stats.contexts_cloned = sums.contexts_cloned;
    if discharged > 0 {
        let full_vars = tr.time("bmc.count_vars", id, || {
            xbmc::renaming::count_vars(&ai, &lattice)
        });
        bmc.stats.cnf_vars_saved = full_vars.saturating_sub(bmc.stats.cnf_vars) as u64;
    }
    tr.time("bmc.replay", id, || {
        for cx in &mut bmc.counterexamples {
            cx.trace = xbmc::replay_trace(&ai, &cx.branches, cx.assert_id);
        }
    });
    tr.count("analysis.assertions", bmc.checked_assertions as f64);
    tr.count("analysis.discharged", discharged as f64);
    tr.count("bmc.counterexamples", bmc.counterexamples.len() as f64);
    tr.count("cnf.vars", bmc.stats.cnf_vars as f64);
    tr.count("cnf.clauses", bmc.stats.cnf_clauses as f64);
    tr.count("sat.calls", bmc.stats.sat_calls as f64);
    tr.count("sat.conflicts", bmc.stats.conflicts as f64);
    tr.count("sat.cubes_learned", bmc.stats.cubes_learned as f64);

    let sql_asserts: BTreeSet<AssertId> = ai
        .assertions()
        .iter()
        .filter_map(|(c, _)| match c {
            AiCmd::Assert { id, kind, .. } if kind.is_sql_structure() => Some(*id),
            _ => None,
        })
        .collect();
    bmc.stats.sql_assertions_checked = sql_asserts.len() as u64;
    let second_order: BTreeSet<AssertId> = bmc
        .counterexamples
        .iter()
        .filter(|cx| trace_reads_store(cx, &ai))
        .map(|cx| cx.assert_id)
        .collect();
    bmc.stats.second_order_flows_found = second_order.len() as u64;
    let channels: BTreeSet<VarId> = ai
        .vars
        .iter()
        .filter(|v| {
            let name = ai.vars.name(*v);
            prelude.is_superglobal(name) || is_store_cell(name)
        })
        .collect();
    let mut fix_plan = tr.time("fixes.plan", id, || {
        fixes::minimal_fixing_set_with(&bmc.counterexamples, &channels, false)
    });
    tr.count("fixes.fix_vars", fix_plan.fix_vars.len() as f64);
    for root in &fix_plan.fix_vars {
        let asserts = &fix_plan.groups[root];
        if !asserts.is_empty() && asserts.iter().all(|a| sql_asserts.contains(a)) {
            fix_plan.parameterize.insert(*root);
        }
    }
    let mut vulnerabilities = Vec::new();
    for root in &fix_plan.fix_vars {
        let asserts = &fix_plan.groups[root];
        let mut symptoms = Vec::new();
        let mut funcs = Vec::new();
        let mut class = String::from("taint");
        for cx in &bmc.counterexamples {
            if !asserts.contains(&cx.assert_id) {
                continue;
            }
            let loc = cx.site.to_string();
            if !symptoms.contains(&loc) {
                symptoms.push(loc);
            }
            if !funcs.contains(&cx.func) {
                funcs.push(cx.func.clone());
            }
            if let Some(spec) = prelude.soc(&cx.func) {
                class = spec.class.clone();
            }
        }
        vulnerabilities.push(Vulnerability {
            class,
            root_var: ai.vars.name(*root).to_owned(),
            symptoms,
            funcs,
            parameterize: false,
        });
    }
    let outcome = if bmc.interrupted {
        FileOutcome::Timeout
    } else if bmc.is_safe() {
        FileOutcome::Verified
    } else {
        FileOutcome::Vulnerable
    };
    Ok(FileReport {
        file: entry.to_owned(),
        num_statements: program.num_statements(),
        ai,
        ts,
        bmc,
        fix_plan,
        vulnerabilities,
        outcome,
    })
}

/// Same test as the verifier's private second-order check: whether a
/// counterexample's violating values flow back along its trace from a
/// store cell.
fn trace_reads_store(cx: &Counterexample, ai: &AiProgram) -> bool {
    let mut needed: BTreeSet<VarId> = cx.violating_vars.iter().copied().collect();
    for step in cx.trace.iter().rev() {
        if needed.remove(&step.var) {
            if is_store_cell(ai.vars.name(step.var)) {
                return true;
            }
            needed.extend(step.deps.iter().copied());
        }
    }
    needed.iter().any(|v| is_store_cell(ai.vars.name(*v)))
}

/// How the mirrored report differs from the real one, if it does: TS
/// errors, BMC groups, counterexample count, fix variables, and the
/// rest of the per-file summary.
pub fn drift(real: &FileReport, mirrored: &FileReport) -> Option<String> {
    let fix_names = |r: &FileReport| -> BTreeMap<String, usize> {
        r.fix_plan
            .fix_vars
            .iter()
            .map(|v| (r.ai.vars.name(*v).to_owned(), r.fix_plan.groups[v].len()))
            .collect()
    };
    let checks = [
        (
            "TS errors",
            real.ts_instrumentations(),
            mirrored.ts_instrumentations(),
        ),
        (
            "BMC groups",
            real.bmc_instrumentations(),
            mirrored.bmc_instrumentations(),
        ),
        (
            "counterexamples",
            real.bmc.counterexamples.len(),
            mirrored.bmc.counterexamples.len(),
        ),
        (
            "checked assertions",
            real.bmc.checked_assertions,
            mirrored.bmc.checked_assertions,
        ),
    ];
    for (what, a, b) in checks {
        if a != b {
            return Some(format!("{}: {what} {a} real vs {b} mirrored", real.file));
        }
    }
    if fix_names(real) != fix_names(mirrored) {
        return Some(format!("{}: fix variables differ", real.file));
    }
    if real.summary() != mirrored.summary() {
        return Some(format!("{}: file summaries differ", real.file));
    }
    None
}
