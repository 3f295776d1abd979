//! The WebSSARI command-line tool: verify PHP trees, print grouped
//! error reports with counterexample traces, and apply runtime-guard
//! patches.
//!
//! ```text
//! webssari verify <path>… [--exact] [--prelude FILE] [--summary]
//! webssari patch  <path>… [--mode bmc|ts] [--write] [--suffix SUF]
//! webssari stages <file.php>
//! ```
//!
//! `verify` exits 1 when vulnerabilities are found and 3 when none are
//! but some file could not be verified (a parse error, an include
//! failure, a nesting bound), so the tool can gate CI. `patch` writes `<file><suffix>` next to each vulnerable
//! file (or rewrites in place with `--write`).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use webssari::ir::{abstract_interpret, filter_program, FilterOptions, Prelude};
use webssari::php::{parse_source, SourceSet};
use webssari::{
    instrument_bmc, instrument_ts, EngineBuilder, FileOutcome, ProjectReport, SolveBudget,
    Verifier, VerifierBuilder,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match command.as_str() {
        "verify" => cmd_verify(rest),
        "lint" => cmd_lint(rest),
        "patch" => cmd_patch(rest),
        "stages" => cmd_stages(rest),
        "serve" => cmd_serve(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command {other:?}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
webssari — verify and patch PHP web applications (DSN'04 reproduction)

USAGE:
    webssari verify <path>... [--exact] [--prelude FILE] [--summary]
    webssari lint   <path>... [--sarif FILE] [--prelude FILE]
    webssari patch  <path>... [--mode bmc|ts] [--write] [--suffix SUF]
    webssari stages <file.php>
    webssari serve  [--addr HOST:PORT] [--jobs N] [--cache-dir DIR]
                    [--queue-depth N] [--request-budget-ms MS]
                    [--cache-max-entries N] [--cache-max-mb N]
                    [--read-timeout-ms MS] [--idle-timeout-ms MS]

COMMANDS:
    verify   Check every .php file; print grouped reports with
             counterexample traces. Exits 1 if vulnerabilities exist,
             else 3 if any file was skipped (not verified), else 0.
    lint     Static lint pass only (no SAT): taint findings, dead
             sanitizers, unreachable code, approximation points — with
             stable rule ids. Exits 1 if any error-level finding exists,
             else 3 if any file was skipped (not analyzed), else 0.
             With --sarif FILE a SARIF 2.1.0 report is also written.
    patch    Insert runtime sanitization guards. By default writes
             <file>.patched.php; --write rewrites files in place.
    stages   Print every pipeline stage for one file: F(p), AI(F(p)),
             CNF sizes, and counterexamples. With --dimacs FILE the
             renamed constraints are exported for external solvers.
    serve    Run the long-lived verification daemon: POST /verify,
             POST /batch, GET /healthz, GET /metrics (Prometheus).
             The incremental cache stays warm across requests; SIGTERM
             drains in-flight work and flushes it to --cache-dir.

OPTIONS:
    --exact          Use the exact (branch-and-bound) minimal fixing
                     set instead of the greedy heuristic.
    --multiclass     Multi-class taint policy: kind-specific sanitizers
                     over the {xss, sqli, shell} powerset lattice.
    --certify        Emit and re-check DRAT certificates for every
                     assertion that holds (machine-checked soundness).
                     Not available with --cache-dir.
    --min-guards     Weight the fixing set by introduction points, so
                     patches minimize inserted guard lines.
    --prefer-parameterize
                     Lead SQL-structured vulnerability reports with the
                     \"parameterize the query\" patch shape instead of
                     \"sanitize the variable\".
    --sarif FILE     (lint) Also write a SARIF 2.1.0 report.
    --prelude FILE   Load extra UIC/SOC/sanitizer contracts (one per
                     line: `uic f`, `soc f class [args=0,1]`,
                     `sanitizer f`, `superglobal NAME`).
    --summary        One line per file instead of full reports.
    --html FILE      Also write a cross-referenced HTML report (not
                     available with --cache-dir).
    --mode bmc|ts    Guard placement strategy (default: bmc).
    --suffix SUF     Patched-file suffix (default: .patched.php).
    --write          Patch files in place.

BATCH ENGINE (verify):
    --jobs N             Verify files on N parallel workers (default 1).
                         The report is identical for any N.
    --cache-dir DIR      Incremental cache: unchanged files under an
                         unchanged configuration are not re-verified.
    --solve-budget-ms MS Per-file SAT budget; files that exceed it are
                         reported as TIMEOUT instead of stalling the run.
                         Files the typestate pass finds clean never
                         reach the solver, so they verify even at 0.
    --metrics-json FILE  Write per-file timing/cache/solver metrics.
                         Any of --jobs, --cache-dir or --metrics-json
                         also prints the engine metrics block.

DAEMON (serve):
    --addr HOST:PORT       Bind address (default 127.0.0.1:8077).
    --jobs N               Engine workers per batch, and concurrent HTTP
                           workers (default 2).
    --cache-dir DIR        Persist the incremental cache here; loaded at
                           startup, flushed on graceful shutdown.
    --queue-depth N        Bounded dispatch queue that every worker
                           pops; beyond it requests are shed with
                           429 + Retry-After (default 64).
    --request-budget-ms MS Per-request solve deadline — exceeding it
                           yields a JSON \"timeout\" outcome, never a hung
                           connection (default 30000; 0 = unlimited).
    --max-body-kb N        Request body cap in KiB (default 1024).
    --cache-max-entries N  LRU cap on warm-cache entries; least recently
                           used results are evicted past it (default:
                           unlimited).
    --cache-max-mb N       LRU cap on the warm cache's approximate size
                           in MiB (default: unlimited).
    --read-timeout-ms MS   Close connections that dribble a partial
                           request for this long without completing it
                           (default 10000).
    --idle-timeout-ms MS   Close idle keep-alive connections after this
                           long (default 30000).";

struct CommonOptions {
    paths: Vec<PathBuf>,
    exact: bool,
    multiclass: bool,
    certify: bool,
    min_guards: bool,
    dimacs: Option<PathBuf>,
    prelude_file: Option<PathBuf>,
    summary: bool,
    html: Option<PathBuf>,
    mode: String,
    suffix: String,
    write: bool,
    jobs: Option<usize>,
    cache_dir: Option<PathBuf>,
    solve_budget_ms: Option<u64>,
    metrics_json: Option<PathBuf>,
    prefer_parameterize: bool,
    sarif: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<CommonOptions, String> {
    let mut opts = CommonOptions {
        paths: Vec::new(),
        exact: false,
        multiclass: false,
        certify: false,
        min_guards: false,
        dimacs: None,
        prelude_file: None,
        summary: false,
        html: None,
        mode: "bmc".to_owned(),
        suffix: ".patched.php".to_owned(),
        write: false,
        jobs: None,
        cache_dir: None,
        solve_budget_ms: None,
        metrics_json: None,
        prefer_parameterize: false,
        sarif: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--exact" => opts.exact = true,
            "--multiclass" => opts.multiclass = true,
            "--certify" => opts.certify = true,
            "--min-guards" => opts.min_guards = true,
            "--dimacs" => {
                opts.dimacs = Some(PathBuf::from(
                    it.next().ok_or("--dimacs needs a file argument")?,
                ));
            }
            "--summary" => opts.summary = true,
            "--html" => {
                opts.html = Some(PathBuf::from(
                    it.next().ok_or("--html needs a file argument")?,
                ));
            }
            "--write" => opts.write = true,
            "--prelude" => {
                opts.prelude_file = Some(PathBuf::from(
                    it.next().ok_or("--prelude needs a file argument")?,
                ));
            }
            "--mode" => {
                let m = it.next().ok_or("--mode needs bmc|ts")?;
                if m != "bmc" && m != "ts" {
                    return Err(format!("--mode must be bmc or ts, got {m:?}"));
                }
                opts.mode = m.clone();
            }
            "--suffix" => {
                opts.suffix = it.next().ok_or("--suffix needs an argument")?.clone();
            }
            "--jobs" => {
                let n = it.next().ok_or("--jobs needs a worker count")?;
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("--jobs needs a positive integer, got {n:?}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".to_owned());
                }
                opts.jobs = Some(n);
            }
            "--cache-dir" => {
                opts.cache_dir = Some(PathBuf::from(
                    it.next().ok_or("--cache-dir needs a directory argument")?,
                ));
            }
            "--solve-budget-ms" => {
                let ms = it.next().ok_or("--solve-budget-ms needs a duration")?;
                let ms: u64 = ms
                    .parse()
                    .map_err(|_| format!("--solve-budget-ms needs milliseconds, got {ms:?}"))?;
                opts.solve_budget_ms = Some(ms);
            }
            "--metrics-json" => {
                opts.metrics_json = Some(PathBuf::from(
                    it.next().ok_or("--metrics-json needs a file argument")?,
                ));
            }
            "--prefer-parameterize" => opts.prefer_parameterize = true,
            "--sarif" => {
                opts.sarif = Some(PathBuf::from(
                    it.next().ok_or("--sarif needs a file argument")?,
                ));
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other:?}"));
            }
            path => opts.paths.push(PathBuf::from(path)),
        }
    }
    if opts.paths.is_empty() {
        return Err("no input paths given".to_owned());
    }
    Ok(opts)
}

/// The prelude implied by `--multiclass`/`--prelude`, shared by the
/// verifier builder and the lint pass.
fn load_prelude(opts: &CommonOptions) -> Result<Prelude, String> {
    let mut prelude = if opts.multiclass {
        Prelude::multiclass().1
    } else {
        Prelude::standard()
    };
    if let Some(file) = &opts.prelude_file {
        let text = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read prelude {}: {e}", file.display()))?;
        prelude
            .extend_from_str(&text)
            .map_err(|e| format!("bad prelude {}: {e}", file.display()))?;
    }
    Ok(prelude)
}

fn build_verifier(opts: &CommonOptions) -> Result<Verifier, String> {
    let mut builder = VerifierBuilder::new();
    if opts.multiclass {
        builder = builder.multiclass();
    }
    // Install the (possibly extended) prelude; after `.multiclass()`
    // this keeps the multi-class policy but carries the extensions.
    builder = builder.prelude(load_prelude(opts)?);
    if let Some(ms) = opts.solve_budget_ms {
        builder = builder
            .solve_budget(SolveBudget::unlimited().wall_time(std::time::Duration::from_millis(ms)));
    }
    Ok(builder
        .exact_fixing_set(opts.exact)
        .certify(opts.certify)
        .minimize_guard_lines(opts.min_guards)
        .prefer_parameterize(opts.prefer_parameterize)
        .build())
}

/// Collects `.php` files under the given paths into a [`SourceSet`]
/// keyed by paths relative to the closest given root.
fn collect_sources(paths: &[PathBuf]) -> Result<(SourceSet, Vec<(String, PathBuf)>), String> {
    let mut set = SourceSet::new();
    let mut mapping = Vec::new();
    for root in paths {
        if root.is_file() {
            add_file(
                root,
                root.file_name().unwrap().to_string_lossy().as_ref(),
                &mut set,
                &mut mapping,
            )?;
        } else if root.is_dir() {
            walk(root, root, &mut set, &mut mapping)?;
        } else {
            return Err(format!("{}: no such file or directory", root.display()));
        }
    }
    Ok((set, mapping))
}

fn walk(
    root: &Path,
    dir: &Path,
    set: &mut SourceSet,
    mapping: &mut Vec<(String, PathBuf)>,
) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            walk(root, &path, set, mapping)?;
        } else if path.extension().is_some_and(|e| e == "php") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .into_owned();
            add_file(&path, &rel, set, mapping)?;
        }
    }
    Ok(())
}

fn add_file(
    path: &Path,
    name: &str,
    set: &mut SourceSet,
    mapping: &mut Vec<(String, PathBuf)>,
) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    set.add_file(name, text);
    mapping.push((name.to_owned(), path.to_owned()));
    Ok(())
}

fn cmd_verify(args: &[String]) -> ExitCode {
    let opts = match parse_options(args) {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    let verifier = match build_verifier(&opts) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let (sources, _) = match collect_sources(&opts.paths) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    if sources.is_empty() {
        return fail("no .php files found");
    }
    // A cache hit holds its summary alone, while --html and --certify
    // read every file's full report.
    if opts.cache_dir.is_some() && (opts.html.is_some() || opts.certify) {
        return fail(
            "--html and --certify need full reports for every file and are \
             not available with --cache-dir",
        );
    }
    let mut builder = EngineBuilder::new()
        .verifier(verifier)
        .workers(opts.jobs.unwrap_or(1));
    if let Some(dir) = &opts.cache_dir {
        builder = builder.cache_dir(dir);
    }
    let mut report = builder.build().run(&sources);
    if opts.summary {
        for file in &report.files {
            let status = match file.summary.outcome {
                FileOutcome::Verified => "ok",
                FileOutcome::Vulnerable => "VULNERABLE",
                FileOutcome::Timeout => "TIMEOUT",
                FileOutcome::ParseError => "PARSE ERROR",
            };
            println!(
                "{:<40} {:>6} stmts {:>4} TS {:>4} BMC {}{}",
                file.summary.file,
                file.summary.num_statements,
                file.summary.ts_errors,
                file.summary.bmc_groups,
                status,
                if file.from_cache { " (cached)" } else { "" },
            );
        }
    } else {
        print!("{}", report.render_text());
    }
    for (file, err) in &report.failed_files {
        eprintln!("SKIPPED {file}: {err}");
    }
    // A skipped file was never verified, so it must not read as secure.
    let skipped = report.failed_files.len();
    if let Some(e) = &report.cache_error {
        eprintln!("webssari: warning: {e}");
    }
    // Every file is fresh here (no --cache-dir), so the moved-out
    // reports are the whole project; the totals below read summaries.
    let project = (opts.certify || opts.html.is_some()).then(|| ProjectReport {
        files: report
            .files
            .iter_mut()
            .filter_map(|f| f.report.take())
            .collect(),
        failed_files: std::mem::take(&mut report.failed_files),
    });
    if let (true, Some(project)) = (opts.certify, &project) {
        let mut total = 0usize;
        let mut ok = 0usize;
        for file in &project.files {
            total += file.bmc.certificates.len();
            match file.bmc.verify_certificates() {
                Ok(n) => ok += n,
                Err((id, e)) => {
                    eprintln!(
                        "{}: certificate for assertion {id:?} FAILED: {e}",
                        file.file
                    )
                }
            }
        }
        println!("certified assertions: {total} (independently re-checked: {ok})");
    }
    if let (Some(html_path), Some(project)) = (&opts.html, &project) {
        let html = webssari::render_html(project, &sources);
        if let Err(e) = std::fs::write(html_path, html) {
            return fail(&format!("cannot write {}: {e}", html_path.display()));
        }
        println!("HTML report written to {}", html_path.display());
    }
    if opts.jobs.is_some() || opts.cache_dir.is_some() || opts.metrics_json.is_some() {
        print!("{}", report.metrics.render_text());
    }
    if let Some(path) = &opts.metrics_json {
        if let Err(e) = std::fs::write(path, report.metrics.to_json()) {
            return fail(&format!("cannot write {}: {e}", path.display()));
        }
        println!("metrics written to {}", path.display());
    }
    println!(
        "{} file(s), {} statements; {} vulnerable file(s), {} timeout(s); \
         TS errors {}, BMC groups {}{}{}",
        report.files.len(),
        report.num_statements(),
        report.vulnerable_files(),
        report.timeout_files(),
        report.ts_errors(),
        report.bmc_groups(),
        webssari::core::reduction_note(report.reduction(), report.timeout_files()),
        match skipped {
            0 => String::new(),
            n => format!("; {n} skipped"),
        },
    );
    if report.is_vulnerable() {
        ExitCode::FAILURE
    } else if skipped > 0 {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_lint(args: &[String]) -> ExitCode {
    use webssari::analysis::{lint_file, to_sarif_json, Severity};

    let opts = match parse_options(args) {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    let prelude = match load_prelude(&opts) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let (sources, _) = match collect_sources(&opts.paths) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    if sources.is_empty() {
        return fail("no .php files found");
    }
    let filter_options = FilterOptions::default();
    let mut diagnostics = Vec::new();
    let mut skipped: Vec<(String, String)> = Vec::new();
    for (name, src) in sources.iter() {
        let result = if opts.multiclass {
            lint_file(
                src,
                name,
                &prelude,
                &filter_options,
                &Prelude::multiclass().0,
            )
        } else {
            lint_file(
                src,
                name,
                &prelude,
                &filter_options,
                &webssari::lattice::TwoPoint::new(),
            )
        };
        match result {
            Ok(ds) => diagnostics.extend(ds),
            Err(e) => {
                eprintln!("SKIPPED {name}: {e}");
                skipped.push((name.to_owned(), e.to_string()));
            }
        }
    }
    for d in &diagnostics {
        println!("{}", d.render());
    }
    let errors = diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    // A skipped file was never analyzed, so it must not read as clean.
    println!(
        "{} finding(s) in {} file(s): {} error(s), {} warning(s), {} note(s){}",
        diagnostics.len(),
        sources.len(),
        errors,
        warnings,
        diagnostics.len() - errors - warnings,
        match skipped.len() {
            0 => String::new(),
            n => format!("; {n} skipped"),
        },
    );
    if let Some(path) = &opts.sarif {
        if let Err(e) = std::fs::write(path, to_sarif_json(&diagnostics, &skipped)) {
            return fail(&format!("cannot write {}: {e}", path.display()));
        }
        println!("SARIF report written to {}", path.display());
    }
    if errors > 0 {
        ExitCode::FAILURE
    } else if !skipped.is_empty() {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_patch(args: &[String]) -> ExitCode {
    let opts = match parse_options(args) {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    let verifier = match build_verifier(&opts) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let (sources, mapping) = match collect_sources(&opts.paths) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let report = verifier.verify_project(&sources);
    let mut patched_count = 0usize;
    for file in report.files.iter().filter(|f| !f.is_safe()) {
        let src = sources.file(&file.file).expect("verified file exists");
        let (patched, guards) = if opts.mode == "ts" {
            instrument_ts(src, file)
        } else {
            instrument_bmc(src, file)
        };
        let Some((_, disk_path)) = mapping.iter().find(|(n, _)| n == &file.file) else {
            continue;
        };
        let out_path = if opts.write {
            disk_path.clone()
        } else {
            let mut p = disk_path.as_os_str().to_owned();
            p.push(&opts.suffix);
            PathBuf::from(p)
        };
        if let Err(e) = std::fs::write(&out_path, &patched) {
            return fail(&format!("cannot write {}: {e}", out_path.display()));
        }
        println!(
            "{}: {} guard(s) -> {}",
            file.file,
            guards.len(),
            out_path.display()
        );
        patched_count += 1;
    }
    println!("patched {patched_count} file(s)");
    ExitCode::SUCCESS
}

fn cmd_stages(args: &[String]) -> ExitCode {
    let opts = match parse_options(args) {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    let [path] = opts.paths.as_slice() else {
        return fail("stages takes exactly one file");
    };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot read {}: {e}", path.display())),
    };
    let ast = match parse_source(&src) {
        Ok(p) => p,
        Err(e) => return fail(&format!("parse error: {e}")),
    };
    let prelude = Prelude::standard();
    let name = path.file_name().unwrap().to_string_lossy();
    let f = filter_program(&ast, &src, &name, &prelude, &FilterOptions::default());
    println!("--- F(p) ---------------------------------------------------");
    println!("{f}");
    let ai = abstract_interpret(&f);
    println!("--- AI(F(p)) -----------------------------------------------");
    println!("{ai}");
    println!(
        "diameter {}, |BN| = {}, {} assertion(s)",
        ai.diameter(),
        ai.num_branches,
        ai.num_assertions()
    );
    let enc = webssari::bmc::renaming::encode(&ai, &webssari::lattice::TwoPoint::new());
    println!(
        "renamed constraints: {} CNF vars, {} clauses",
        enc.formula.num_vars(),
        enc.formula.num_clauses()
    );
    if let Some(out_path) = &opts.dimacs {
        match std::fs::File::create(out_path) {
            Ok(mut f) => {
                if let Err(e) = webssari::cnf::write_dimacs(&mut f, &enc.formula) {
                    return fail(&format!("cannot write {}: {e}", out_path.display()));
                }
                println!("DIMACS written to {} (solve with xsat)", out_path.display());
            }
            Err(e) => return fail(&format!("cannot create {}: {e}", out_path.display())),
        }
    }
    let result = webssari::bmc::Xbmc::new(&ai).check_all();
    println!("--- counterexamples ------------------------------------------");
    if result.counterexamples.is_empty() {
        println!("none — every assertion holds (sound guarantee)");
    }
    for cx in &result.counterexamples {
        print!("{}", cx.render(&ai));
    }
    ExitCode::SUCCESS
}

fn cmd_serve(args: &[String]) -> ExitCode {
    use webssari::serve::{Server, ServerConfig};

    let mut config = ServerConfig::default();
    let mut jobs = 2usize;
    let mut cache_dir: Option<PathBuf> = None;
    let mut cache_max_entries: Option<usize> = None;
    let mut cache_max_bytes: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(addr) => config.addr = addr.clone(),
                None => return fail("--addr needs HOST:PORT"),
            },
            "--jobs" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => jobs = n,
                _ => return fail("--jobs needs a positive integer"),
            },
            "--cache-dir" => match it.next() {
                Some(dir) => cache_dir = Some(PathBuf::from(dir)),
                None => return fail("--cache-dir needs a directory argument"),
            },
            "--queue-depth" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => config.queue_depth = n,
                _ => return fail("--queue-depth needs a positive integer"),
            },
            "--request-budget-ms" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(0)) => config.request_budget = None,
                Some(Ok(ms)) => {
                    config.request_budget = Some(std::time::Duration::from_millis(ms));
                }
                _ => return fail("--request-budget-ms needs milliseconds (0 = unlimited)"),
            },
            "--max-body-kb" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => config.max_body_bytes = n * 1024,
                _ => return fail("--max-body-kb needs a positive integer"),
            },
            "--cache-max-entries" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => cache_max_entries = Some(n),
                _ => return fail("--cache-max-entries needs a positive integer"),
            },
            "--cache-max-mb" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => cache_max_bytes = Some(n * 1024 * 1024),
                _ => return fail("--cache-max-mb needs a positive integer"),
            },
            "--read-timeout-ms" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(ms)) if ms >= 1 => {
                    config.read_timeout = std::time::Duration::from_millis(ms);
                }
                _ => return fail("--read-timeout-ms needs milliseconds"),
            },
            "--idle-timeout-ms" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(ms)) if ms >= 1 => {
                    config.idle_timeout = std::time::Duration::from_millis(ms);
                }
                _ => return fail("--idle-timeout-ms needs milliseconds"),
            },
            other => return fail(&format!("unknown serve option {other:?}")),
        }
    }
    config.http_workers = jobs;
    let mut builder = EngineBuilder::new().workers(jobs);
    if let Some(dir) = &cache_dir {
        builder = builder.cache_dir(dir);
    }
    if let Some(n) = cache_max_entries {
        builder = builder.cache_max_entries(n);
    }
    if let Some(b) = cache_max_bytes {
        builder = builder.cache_max_bytes(b);
    }

    webssari::serve::install_signal_handlers();
    let handle = match Server::start(config, builder.build()) {
        Ok(h) => h,
        Err(e) => return fail(&format!("cannot start server: {e}")),
    };
    println!(
        "webssari serve: listening on http://{}",
        handle.local_addr()
    );
    println!("routes: POST /verify, POST /batch, GET /healthz, GET /metrics");
    while !webssari::serve::shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    println!("webssari serve: shutdown requested; draining in-flight work");
    match handle.shutdown() {
        Ok(Some(path)) => {
            println!("webssari serve: cache flushed to {}", path.display());
            ExitCode::SUCCESS
        }
        Ok(None) => {
            println!("webssari serve: stopped cleanly (no cache dir configured)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("webssari serve: cache flush failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("webssari: {message}");
    ExitCode::from(2)
}
