//! The batch workloads, `corpus_audit` and `fig10_report`: closed
//! loops with one project batch in flight, driven through the public
//! API (`corpus::Corpus`, `webssari_engine::EngineHandle`,
//! `webssari_core::Verifier`).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use corpus::{Corpus, CorpusScale, GeneratedProject};
use php_front::SourceSet;
use webssari_core::json::{report_to_value, summary_to_value};
use webssari_core::Verifier;
use webssari_engine::{EngineBuilder, EngineHandle, EngineReport};

use crate::mirror;
use crate::oracle::{self, Answer, FINGERPRINT_SEED};
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{Args, Outcome};

/// Engine workers for both batch workloads (the machine the benchmark
/// was sized on has two cores).
const WORKERS: usize = 2;

/// One batch workload, set up.
struct Workload {
    projects: Vec<GeneratedProject>,
    /// Each project's sources, namespaced (see [`namespaced`]).
    sources: Vec<SourceSet>,
    answers: Vec<Answer>,
    /// Each project's sources after the seeded comment-only edits (the
    /// original sources when the project has none).
    edited: Vec<SourceSet>,
    /// Whether every verdict is rendered to JSON as `/verify` and
    /// `/batch` return it.
    render_json: bool,
    /// Median set-up time over the repetitions.
    setup_s: f64,
}

/// `corpus_audit`: the paper's §5 run. All 230 projects at full scale
/// (11,848 files, 1.14M statements), one cold batch per project on an
/// in-memory handle, then a re-audit on the same handle after a seeded
/// 1% of files get a comment-only edit. Parse, filter/AI, screening,
/// dataflow summaries and the per-batch store summary do nearly all of
/// the work; BMC and SAT almost none.
pub fn corpus_audit(args: &Args) -> Result<Outcome, String> {
    let setup = |_: ()| Corpus::sourceforge_230(CorpusScale::Full).projects;
    let (projects, setup_s) = repeat_setup(3, setup);
    let answers = oracle::corpus_answers(&projects)?;
    let sources: Vec<SourceSet> = projects
        .iter()
        .map(|p| namespaced(p, &slug(&p.name)))
        .collect();
    // Every hundredth file in corpus order, from a seeded offset: 1% of
    // the files, spread evenly over the projects, so runs with
    // different seeds re-audit comparable amounts of work.
    let offset = (args.seed % 100) as usize;
    let mut picks = BTreeMap::<usize, Vec<String>>::new();
    let files = sources
        .iter()
        .enumerate()
        .flat_map(|(p, set)| set.iter().map(move |(name, _)| (p, name)));
    for (p, name) in files.skip(offset).step_by(100) {
        picks.entry(p).or_default().push(name.to_owned());
    }
    let edited = edit_projects(&sources, &picks, args.seed);
    let workload = Workload {
        projects,
        sources,
        answers,
        edited,
        render_json: false,
        setup_s,
    };
    run(&workload, args)
}

/// `fig10_report`: the paper's Figure 10 table. The 38 acknowledged
/// projects (154 files) verified on a fresh handle per pass, every
/// file's full report rendered to JSON, then a re-check on the same
/// handle after one seeded page per project gets a comment-only edit.
/// BMC cube enumeration, SAT calls, trace replay, fix planning and
/// report serialization carry a far larger share than in the corpus.
pub fn fig10_report(args: &Args) -> Result<Outcome, String> {
    let (projects, setup_s) = repeat_setup(51, |_: ()| Corpus::figure10().projects);
    let answers = oracle::figure10_answers(&projects)?;
    let sources: Vec<SourceSet> = projects
        .iter()
        .map(|p| namespaced(p, &slug(&p.name)))
        .collect();
    let mut rng = Rng::new(args.seed);
    let mut picks = BTreeMap::<usize, Vec<String>>::new();
    for (i, set) in sources.iter().enumerate() {
        let pages: Vec<&str> = set
            .iter()
            .map(|(n, _)| n)
            .filter(|n| n.contains("/page"))
            .collect();
        picks.insert(i, vec![pages[rng.below(pages.len())].to_owned()]);
    }
    let edited = edit_projects(&sources, &picks, args.seed);
    let workload = Workload {
        projects,
        sources,
        answers,
        edited,
        render_json: true,
        setup_s,
    };
    run(&workload, args)
}

/// A project's sources under its own directory (`<dir>/<file>`, with
/// the static includes rewritten to match). The engine caches one result per file
/// name, and every generated project has a `lib.php` and a
/// `page00.php`; without the directory, projects sharing one handle
/// would overwrite each other's entries.
pub fn namespaced(p: &GeneratedProject, dir: &str) -> SourceSet {
    let mut set = SourceSet::new();
    for (name, src) in p.sources.iter() {
        let src = src.replace("include '", &format!("include '{dir}/"));
        set.add_file(format!("{dir}/{name}"), src);
    }
    set
}

/// A file-name-safe form of a project name.
pub fn slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// Runs `setup` `n` times; returns the last result and the median time.
fn repeat_setup<T>(n: usize, mut setup: impl FnMut(()) -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let started = Instant::now();
        last = Some(std::hint::black_box(setup(())));
        times.push(started.elapsed().as_secs_f64());
    }
    (last.expect("n > 0"), stats::median(&times))
}

/// Appends a comment line to each picked file. The comment follows the
/// last line, so statement counts and symptom lines stay the same and
/// every known answer still holds.
fn edit_projects(
    sources: &[SourceSet],
    picks: &BTreeMap<usize, Vec<String>>,
    seed: u64,
) -> Vec<SourceSet> {
    sources
        .iter()
        .enumerate()
        .map(|(i, set)| {
            let mut edited = set.clone();
            for (k, name) in picks.get(&i).into_iter().flatten().enumerate() {
                let src = set.file(name).expect("picked file exists");
                edited.add_file(name.clone(), format!("{src}\n// re-audit {seed}:{i}:{k}\n"));
            }
            edited
        })
        .collect()
}

/// What one pass over the projects measured.
#[derive(Default)]
struct Pass {
    wall: Duration,
    cpu_s: f64,
    latencies_ms: Vec<f64>,
    fingerprint: u64,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

/// Verifies every project as one batch on `handle`, rendering JSON when
/// the workload does. `trace`, when given, receives a span per batch and
/// the engine counters.
fn pass(w: &Workload, handle: &EngineHandle, edited: bool, mut trace: Option<&mut Tracer>) -> Pass {
    let mut out = Pass {
        fingerprint: FINGERPRINT_SEED,
        ..Pass::default()
    };
    let cpu_before = stats::cpu_seconds(None);
    for (i, answer) in w.answers.iter().enumerate() {
        let set = if edited { &w.edited[i] } else { &w.sources[i] };
        let started = Instant::now();
        let report = handle.run(set);
        let ran = Instant::now();
        if w.render_json {
            let bytes: usize = report
                .files
                .iter()
                .map(|f| {
                    let value = match &f.report {
                        Some(full) => report_to_value(full),
                        None => summary_to_value(&f.summary),
                    };
                    value.to_json().len()
                })
                .sum();
            std::hint::black_box(bytes);
        }
        let elapsed = started.elapsed();
        out.wall += elapsed;
        out.latencies_ms.push(stats::ms(elapsed));
        if let Some(tr) = trace.as_deref_mut() {
            engine_counters(tr, &report, started, ran, i as u64);
        }
        out.attempted += 1;
        if !oracle::report_matches(&report, *answer) {
            out.failed += 1;
            out.notes.push(format!(
                "{}: TS {} BMC {} ({} failed files), expected TS {} BMC {}",
                w.projects[i].name,
                report.ts_errors(),
                report.bmc_groups(),
                report.failed_files.len(),
                answer.ts,
                answer.bmc,
            ));
        }
        out.fingerprint = oracle::fingerprint(out.fingerprint, &report);
    }
    // Over the whole pass: per-batch readings would be below the
    // 10 ms resolution of the kernel's CPU accounting.
    out.cpu_s = stats::cpu_seconds(None) - cpu_before;
    out
}

/// Folds one batch's engine metrics into the trace.
fn engine_counters(
    tr: &mut Tracer,
    report: &EngineReport,
    started: Instant,
    ran: Instant,
    id: u64,
) {
    tr.record("engine.batch", id, started, ran);
    let m = &report.metrics;
    let wall = m.wall_time.as_secs_f64();
    let fresh: Vec<_> = m.files.iter().filter(|f| !f.from_cache).collect();
    let busy: f64 = fresh.iter().map(|f| f.duration.as_secs_f64()).sum();
    let waited: f64 = fresh.iter().map(|f| f.queue_wait.as_secs_f64()).sum();
    // Serial time: from the batch start to the first job a worker picks
    // up (store summary, hashing, cache lookups), plus the assembly tail
    // after the last job ends.
    let first_pick = fresh
        .iter()
        .map(|f| f.queue_wait.as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    let last_end = fresh
        .iter()
        .map(|f| (f.queue_wait + f.duration).as_secs_f64())
        .fold(0.0, f64::max);
    let serial = if fresh.is_empty() {
        wall
    } else {
        first_pick + (wall - last_end).max(0.0)
    };
    tr.count("engine.batch_s", wall);
    tr.count("engine.busy_s", busy);
    tr.count("engine.queue_wait_s", waited);
    tr.count("engine.serial_s", serial);
    tr.count("engine.capacity_s", wall * m.workers as f64);
    tr.count("engine.hits", m.cache_hits as f64);
    tr.count("engine.lookups", (m.cache_hits + m.cache_misses) as f64);
}

fn fresh_handle(workers: usize) -> EngineHandle {
    EngineBuilder::new().workers(workers).build().into_handle()
}

/// Whether another pass of about `last` still fits in `seconds` after
/// `elapsed` (the first pass always runs).
fn another(elapsed: Duration, last: Duration, seconds: f64) -> bool {
    (elapsed + last).as_secs_f64() <= seconds
}

fn run(w: &Workload, args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return run_traced(w, args);
    }
    let mut out = Outcome::default();
    let mut walls = Vec::new();
    let mut rerun_walls = Vec::new();
    let mut cpus = Vec::new();
    // Per project, its batch latency in every pass.
    let mut latencies = vec![Vec::new(); w.projects.len()];
    let mut expected_fingerprint = None;
    let started = Instant::now();
    let mut last = Duration::ZERO;
    while walls.is_empty() || another(started.elapsed(), last, args.seconds) {
        let pass_started = Instant::now();
        let handle = fresh_handle(WORKERS);
        let cold = pass(w, &handle, false, None);
        let rerun = pass(w, &handle, true, None);
        last = pass_started.elapsed();
        for p in [&cold, &rerun] {
            out.attempted += p.attempted;
            out.failed += p.failed;
            out.notes.extend(p.notes.iter().cloned());
            // The edits are comment-only, so the re-audit's summaries
            // must hash exactly like the cold pass's, on every pass.
            out.attempted += 1;
            let expected = *expected_fingerprint.get_or_insert(cold.fingerprint);
            if p.fingerprint != expected {
                out.failed += 1;
                out.notes.push(format!(
                    "fingerprint {:016x} differs from {expected:016x}",
                    p.fingerprint
                ));
            }
        }
        walls.push(cold.wall.as_secs_f64());
        rerun_walls.push(rerun.wall.as_secs_f64());
        cpus.push(cold.cpu_s);
        for (per_project, l) in latencies.iter_mut().zip(cold.latencies_ms) {
            per_project.push(l);
        }
    }
    let wall_s = stats::median(&walls);
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.lines.push(format!("cold passes (s): {}", list(&walls)));
    out.lines
        .push(format!("re-audit passes (s): {}", list(&rerun_walls)));
    out.lines.push(format!(
        "fingerprint {:016x} over {} passes of {} projects",
        expected_fingerprint.unwrap_or(0),
        walls.len(),
        w.projects.len()
    ));
    out.metric("setup_s", w.setup_s, "s");
    out.metric("wall_s", wall_s, "s");
    out.metric("rerun_wall_s", stats::median(&rerun_walls), "s");
    // The mean, not the median: each pass reads whole 10 ms ticks.
    out.metric("cpu_s", cpus.iter().sum::<f64>() / cpus.len() as f64, "s");
    out.metric("peak_rss_mb", stats::peak_rss_mb(None), "MiB");
    // Quantiles over projects of each project's median batch latency:
    // a run has as few as two corpus passes, too few samples for a p99
    // of single batches.
    let per_project: Vec<f64> = latencies.iter().map(|l| stats::median(l)).collect();
    out.metric("p50_ms", stats::quantile(&per_project, 0.5), "ms");
    out.metric("p99_ms", stats::quantile(&per_project, 0.99), "ms");
    out.metric("max_rps", w.projects.len() as f64 / wall_s, "1/s");
    Ok(out)
}

/// The traced run: the engine passes again with a span per batch, then
/// a sequential pass on a one-worker handle whose real
/// `Verifier::verify_file` results are checked file by file against
/// the mirrored pipeline.
fn run_traced(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    let verifier = Verifier::new();
    let mut verify_file_s = 0.0;
    let mut traced_file_s = 0.0;
    let started = Instant::now();
    let mut last = Duration::ZERO;
    let mut passes = 0;
    let mut fingerprint = 0;
    while passes == 0 || another(started.elapsed(), last, args.seconds) {
        passes += 1;
        let pass_started = Instant::now();
        let two = fresh_handle(WORKERS);
        let cold = pass(w, &two, false, Some(&mut tr));
        let rerun = pass(w, &two, true, Some(&mut tr));

        let one = fresh_handle(1);
        let mut sequential = FINGERPRINT_SEED;
        for (i, sources) in w.sources.iter().enumerate() {
            let stores = tr.time("core.store_summary", i as u64, || {
                Arc::new(verifier.compute_store_summary(sources))
            });
            let report = one.run(sources);
            sequential = oracle::fingerprint(sequential, &report);
            for (file, metrics) in report.files.iter().zip(&report.metrics.files) {
                let Some(real) = &file.report else {
                    continue;
                };
                verify_file_s += metrics.duration.as_secs_f64();
                let id = (i as u64) << 32 | tr.counter("files") as u64;
                tr.count("files", 1.0);
                let span = tr.enter("file", id);
                let mirrored =
                    mirror::verify_file(&verifier, sources, &real.file, &stores, &mut tr, id);
                let json = match (&mirrored, w.render_json) {
                    (Ok(m), true) => {
                        let value = tr.time("core.report_value", id, || report_to_value(m));
                        let text = tr.time("jsonio.write", id, || value.to_json());
                        tr.count("jsonio.bytes", text.len() as f64);
                        Some(text)
                    }
                    _ => None,
                };
                tr.exit(span);
                traced_file_s += tr.duration(span).as_secs_f64();
                out.attempted += 1;
                let problem = match &mirrored {
                    Err(e) => Some(format!("{}: mirror failed: {e}", real.file)),
                    Ok(m) => mirror::drift(real, m).or_else(|| {
                        let real_json = report_to_value(real).to_json();
                        json.filter(|j| *j != real_json)
                            .map(|_| format!("{}: report JSON differs", real.file))
                    }),
                };
                if let Some(problem) = problem {
                    out.failed += 1;
                    out.notes.push(format!("mirror drift: {problem}"));
                }
            }
        }
        // One worker and two must produce the same reports, and the
        // comment-only re-audit the same summaries.
        out.attempted += 1;
        if cold.fingerprint != sequential || rerun.fingerprint != sequential {
            out.failed += 1;
            out.notes.push(format!(
                "fingerprints differ: 2 workers {:016x}, re-audit {:016x}, 1 worker {sequential:016x}",
                cold.fingerprint, rerun.fingerprint
            ));
        }
        for p in [&cold, &rerun] {
            out.attempted += p.attempted;
            out.failed += p.failed;
            out.notes.extend(p.notes.iter().cloned());
        }
        fingerprint = sequential;
        last = pass_started.elapsed();
    }
    let traced_wall = started.elapsed().as_secs_f64();
    let path = std::path::Path::new(".bench_trace").join(format!("{}.jsonl", args.workload));
    tr.write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    out.lines.push(format!(
        "fingerprint {fingerprint:016x} over {passes} traced passes (1 and 2 workers) in \
         {traced_wall:.2}s; spans in {}",
        path.display()
    ));
    out.layers = batch_layers(&tr, verify_file_s, traced_file_s, passes);
    Ok(out)
}

/// The per-layer metrics of a batch trace, per pass: times and counts
/// are summed over the run and divided by its passes (how many fit
/// depends on `--seconds`), so counts read like the oracle's totals.
fn batch_layers(
    tr: &Tracer,
    verify_file_s: f64,
    traced_file_s: f64,
    passes: usize,
) -> BTreeMap<&'static str, f64> {
    let own = tr.self_seconds();
    let s = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let c = |name: &str| tr.counter(name);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let stage_sum: f64 = mirror::STAGES.iter().map(|name| s(name)).sum();
    let mut m = BTreeMap::new();
    m.insert("core.store_summary_s", s("core.store_summary"));
    m.insert("php_front.parse_s", s("php_front.parse"));
    m.insert(
        "php_front.stmts_per_s",
        ratio(c("php_front.statements"), s("php_front.parse")),
    );
    m.insert("ir.filter_s", s("ir.filter"));
    m.insert("ir.ai_s", s("ir.ai"));
    m.insert("ir.ai_cmds", c("ir.ai_cmds"));
    m.insert("typestate.analyze_s", s("typestate.analyze"));
    m.insert("typestate.ts_errors", c("typestate.ts_errors"));
    m.insert("analysis.screen_s", s("analysis.screen"));
    m.insert("analysis.assertions", c("analysis.assertions"));
    m.insert("analysis.discharged", c("analysis.discharged"));
    m.insert(
        "analysis.discharge_ratio",
        ratio(c("analysis.discharged"), c("analysis.assertions")),
    );
    m.insert("dataflow.summaries_s", s("dataflow.summaries"));
    m.insert("bmc.check_s", s("bmc.check"));
    m.insert("bmc.programs_checked", c("bmc.programs_checked"));
    m.insert("bmc.counterexamples", c("bmc.counterexamples"));
    m.insert("bmc.count_vars_s", s("bmc.count_vars"));
    m.insert("bmc.replay_s", s("bmc.replay"));
    for name in [
        "cnf.vars",
        "cnf.clauses",
        "sat.calls",
        "sat.conflicts",
        "sat.cubes_learned",
    ] {
        m.insert(name, c(name));
    }
    m.insert("fixes.plan_s", s("fixes.plan"));
    m.insert("fixes.fix_vars", c("fixes.fix_vars"));
    m.insert("core.report_value_s", s("core.report_value"));
    m.insert("jsonio.write_s", s("jsonio.write"));
    m.insert("jsonio.bytes", c("jsonio.bytes"));
    m.insert("engine.batch_s", c("engine.batch_s"));
    m.insert("engine.busy_s", c("engine.busy_s"));
    m.insert("engine.queue_wait_s", c("engine.queue_wait_s"));
    m.insert(
        "engine.worker_util",
        ratio(c("engine.busy_s"), c("engine.capacity_s")),
    );
    m.insert("engine.serial_s", c("engine.serial_s"));
    m.insert(
        "engine.cache_hit_ratio",
        ratio(c("engine.hits"), c("engine.lookups")),
    );
    m.insert("core.verify_file_s", verify_file_s);
    m.insert("trace.mirror_ratio", ratio(stage_sum, verify_file_s));
    // The JSON stages have no counterpart in `verify_file`.
    let traced_verify_s = traced_file_s - s("core.report_value") - s("jsonio.write");
    m.insert("trace.overhead", ratio(traced_verify_s, verify_file_s));
    const RATIOS: [&str; 6] = [
        "php_front.stmts_per_s",
        "analysis.discharge_ratio",
        "engine.worker_util",
        "engine.cache_hit_ratio",
        "trace.mirror_ratio",
        "trace.overhead",
    ];
    for (name, value) in m.iter_mut() {
        if !RATIOS.contains(name) {
            *value /= passes as f64;
        }
    }
    m
}
