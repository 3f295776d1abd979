//! Regenerates the §5 corpus statistics (experiment E2): 230 projects,
//! 11,848 files, 1,140,091 statements, 69 vulnerable projects, 515
//! vulnerable files.
//!
//! ```text
//! cargo run --release -p webssari-bench --bin corpus_stats            # small scale
//! cargo run --release -p webssari-bench --bin corpus_stats -- --full  # paper scale
//! cargo run --release -p webssari-bench --bin corpus_stats -- --full --verify
//! ```
//!
//! Every run also times the front end stage by stage on one thread:
//! lexing, parsing with include resolution, filtering and abstract
//! interpretation of each file as its own entry point, reported as
//! seconds and MB/s of entry-file source.
//!
//! `--verify` additionally runs the whole pipeline over every project
//! (slow at full scale) and reports measured vulnerable projects.

use std::time::{Duration, Instant};

use corpus::{Corpus, CorpusScale};
use php_front::{parse_source, resolve_includes, IncludeError, Lexer};
use webssari_bench::verify_corpus;
use webssari_ir::{abstract_interpret, filter_program, FilterOptions, Prelude};

/// Single-thread time per front-end stage over every corpus file.
#[derive(Default)]
struct StageTimes {
    files: usize,
    bytes: usize,
    lex: Duration,
    parse: Duration,
    filter: Duration,
    ai: Duration,
}

/// Runs each file through the front end as `Verifier::verify_file`
/// does (an unresolvable include falls back to the file alone), timing
/// every stage.
fn time_stages(corpus: &Corpus) -> StageTimes {
    let prelude = Prelude::standard();
    let options = FilterOptions::default();
    let mut t = StageTimes::default();
    for project in &corpus.projects {
        let sources = &project.sources;
        for (name, src) in sources.iter() {
            t.files += 1;
            t.bytes += src.len();
            let start = Instant::now();
            let tokens = Lexer::new(src).count();
            t.lex += start.elapsed();
            std::hint::black_box(tokens);

            let start = Instant::now();
            let program = match resolve_includes(sources, name) {
                Ok(p) => Some(p),
                Err(
                    IncludeError::DynamicIncludePath { .. }
                    | IncludeError::MissingFile { .. }
                    | IncludeError::IncludeCycle(_),
                ) => parse_source(src).ok(),
                Err(_) => None,
            };
            t.parse += start.elapsed();
            let Some(program) = program else { continue };

            let start = Instant::now();
            let f = filter_program(&program, src, name, &prelude, &options);
            t.filter += start.elapsed();

            let start = Instant::now();
            let ai = abstract_interpret(&f);
            t.ai += start.elapsed();
            std::hint::black_box(ai);
        }
    }
    t
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let verify = args.iter().any(|a| a == "--verify");
    let scale = if full {
        CorpusScale::Full
    } else {
        CorpusScale::Small
    };
    println!("Generating the 230-project corpus ({scale:?} scale)…");
    let start = Instant::now();
    let corpus = Corpus::sourceforge_230(scale);
    let gen_time = start.elapsed();
    let statements: usize = corpus.projects.iter().map(|p| p.num_statements).sum();
    println!("generation time:        {gen_time:.2?}");
    println!(
        "projects:               {:>9}   (paper: 230)",
        corpus.projects.len()
    );
    println!(
        "files:                  {:>9}   (paper: 11,848)",
        corpus.num_files()
    );
    println!("statements:             {statements:>9}   (paper: 1,140,091)");
    println!(
        "vulnerable projects:    {:>9}   (paper: 69)",
        corpus.expected_vulnerable_projects()
    );
    let vulnerable_files: usize = corpus
        .projects
        .iter()
        .map(|p| p.expected_vulnerable_files)
        .sum();
    println!("vulnerable files:       {vulnerable_files:>9}   (paper: 515)");
    let acknowledged: usize = corpus
        .projects
        .iter()
        .filter(|p| corpus::figure10_profiles().iter().any(|f| f.name == p.name))
        .map(|p| p.expected_ts)
        .sum();
    println!("acknowledged TS errors: {acknowledged:>9}   (paper: 980)");

    let t = time_stages(&corpus);
    let mb = t.bytes as f64 / 1e6;
    println!(
        "\nfront-end stages, one thread, {} files, {mb:.1} MB:",
        t.files
    );
    for (stage, time) in [
        ("lex", t.lex),
        ("parse + includes", t.parse),
        ("filter", t.filter),
        ("AI", t.ai),
    ] {
        let secs = time.as_secs_f64();
        println!(
            "  {stage:<18} {secs:>8.3} s {:>9.1} MB/s",
            mb / secs.max(1e-9)
        );
    }
    if verify {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        println!("\nVerifying every project with {threads} threads…");
        let start = Instant::now();
        let rows = verify_corpus(&corpus, threads);
        let elapsed = start.elapsed();
        let vulnerable = rows.iter().filter(|r| r.bmc > 0).count();
        let ts: usize = rows.iter().map(|r| r.ts).sum();
        let bmc: usize = rows.iter().map(|r| r.bmc).sum();
        println!("measured vulnerable projects: {vulnerable}   (expected 69)");
        println!("measured TS errors:           {ts}");
        println!("measured BMC groups:          {bmc}");
        println!("verification time:            {elapsed:.2?}");
    }
}
