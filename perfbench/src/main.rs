//! The repository's end-to-end benchmark runner. See `BENCH.md` for
//! the workloads, metrics and how to run it; `run.py` builds this
//! binary and the `webssari` daemon, then calls it.
//!
//! ```text
//! perfbench --workload corpus_audit|fig10_report|serve_mix --seed N
//!           --seconds S --trace 0|1 [--webssari PATH]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer
//! ones. Any answer that differs from its known answer makes the run
//! incorrect and the exit code 1.

mod batch;
mod mirror;
mod oracle;
mod poll;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub webssari: Option<PathBuf>,
}

/// The end-to-end metrics every workload reports, with their units.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rerun_wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("max_rps", "1/s"),
];

/// The per-layer metrics of the traced run, with their units. A layer a
/// workload does not exercise reads 0 (see `BENCH.md`).
const PER_LAYER: [(&str, &str); 45] = [
    ("core.store_summary_s", "s"),
    ("php_front.parse_s", "s"),
    ("php_front.stmts_per_s", "1/s"),
    ("ir.filter_s", "s"),
    ("ir.ai_s", "s"),
    ("ir.ai_cmds", "count"),
    ("typestate.analyze_s", "s"),
    ("typestate.ts_errors", "count"),
    ("analysis.screen_s", "s"),
    ("analysis.assertions", "count"),
    ("analysis.discharged", "count"),
    ("analysis.discharge_ratio", "ratio"),
    ("dataflow.summaries_s", "s"),
    ("bmc.check_s", "s"),
    ("bmc.programs_checked", "count"),
    ("bmc.counterexamples", "count"),
    ("bmc.count_vars_s", "s"),
    ("bmc.replay_s", "s"),
    ("cnf.vars", "count"),
    ("cnf.clauses", "count"),
    ("sat.calls", "count"),
    ("sat.conflicts", "count"),
    ("sat.cubes_learned", "count"),
    ("fixes.plan_s", "s"),
    ("fixes.fix_vars", "count"),
    ("core.report_value_s", "s"),
    ("jsonio.write_s", "s"),
    ("jsonio.bytes", "bytes"),
    ("engine.batch_s", "s"),
    ("engine.busy_s", "s"),
    ("engine.queue_wait_s", "s"),
    ("engine.worker_util", "ratio"),
    ("engine.serial_s", "s"),
    ("engine.cache_hit_ratio", "ratio"),
    ("serve.warm_verify_p50_ms", "ms"),
    ("serve.cold_verify_p50_ms", "ms"),
    ("serve.batch_p50_ms", "ms"),
    ("serve.generator_lag_p99_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.shed_429", "count"),
    ("core.verify_file_s", "s"),
    ("trace.mirror_ratio", "ratio"),
    ("trace.overhead", "ratio"),
];

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed (shown on standard error).
    pub notes: Vec<String>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// End-to-end metrics (untraced runs).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records an end-to-end metric; `unit` must match its entry in the
    /// metric table.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &str) {
        debug_assert!(END_TO_END.contains(&(name, unit)), "{name} [{unit}]");
        self.metrics.insert(name, value);
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        webssari: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_owned()),
                }
            }
            "--webssari" => args.webssari = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "corpus_audit" => batch::corpus_audit(&args),
        "fig10_report" => batch::fig10_report(&args),
        "serve_mix" => serve::serve_mix(&args),
        other => Err(format!(
            "unknown workload {other:?}; use corpus_audit, fig10_report or serve_mix"
        )),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &out.notes {
        eprintln!("failed: {note}");
    }
    for line in &out.lines {
        println!("{line}");
    }
    let (table, values): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER, &out.layers)
    } else {
        (&END_TO_END, &out.metrics)
    };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = values.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { f64::MAX };
        println!("{name:<28} {value:>16.6} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "failed_share                 {:>16.6} ({} of {} operations)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted,
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
