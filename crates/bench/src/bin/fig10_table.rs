//! Regenerates Figure 10 (experiments E1 and E3): per-project TS vs
//! BMC error counts over the 38 acknowledged projects, plus the 41.0%
//! instrumentation-reduction headline. Exits 1 when any row differs
//! from the paper's table.
//!
//! ```text
//! cargo run --release -p webssari-bench --bin fig10_table
//! ```
//!
//! It also times report rendering on one thread: every file's full
//! report through `report_to_value` and `Value::to_json` (the bytes
//! `webssari serve` answers `/verify` and `/batch` with), reported as
//! the median seconds of a few rounds and MB/s of JSON written.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use corpus::Corpus;
use webssari_bench::{render_fig10, verify_corpus};
use webssari_core::json::report_to_value;
use webssari_core::{ProjectReport, Verifier};

/// Rendering rounds; the median is reported.
const ROUNDS: usize = 7;

/// One round of rendering every report: time building the values, time
/// writing them, and the JSON bytes written.
fn render_round(reports: &[ProjectReport]) -> (Duration, Duration, usize) {
    let (mut value_time, mut write_time, mut bytes) = (Duration::ZERO, Duration::ZERO, 0);
    for file in reports.iter().flat_map(|r| &r.files) {
        let start = Instant::now();
        let value = report_to_value(file);
        let built = Instant::now();
        bytes += std::hint::black_box(value.to_json()).len();
        write_time += built.elapsed();
        value_time += built - start;
    }
    (value_time, write_time, bytes)
}

fn median(mut times: Vec<Duration>) -> f64 {
    times.sort();
    times[times.len() / 2].as_secs_f64()
}

fn main() -> ExitCode {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    println!("Generating the 38 acknowledged projects of Figure 10…");
    let corpus = Corpus::figure10();
    println!(
        "{} projects, {} files. Verifying with {} threads…\n",
        corpus.projects.len(),
        corpus.num_files(),
        threads
    );
    let start = Instant::now();
    let rows = verify_corpus(&corpus, threads);
    let elapsed = start.elapsed();
    print!("{}", render_fig10(&rows));
    let mismatches: Vec<_> = rows
        .iter()
        .filter(|r| r.ts != r.expected_ts || r.bmc != r.expected_bmc)
        .collect();
    if mismatches.is_empty() {
        println!("\nAll 38 rows match the paper's table.");
    } else {
        println!("\nMISMATCHED ROWS:");
        for r in &mismatches {
            println!(
                "  {}: measured {}/{} vs paper {}/{}",
                r.name, r.ts, r.bmc, r.expected_ts, r.expected_bmc
            );
        }
    }
    println!("Total verification time: {elapsed:.2?}");

    let verifier = Verifier::new();
    let reports: Vec<ProjectReport> = corpus
        .projects
        .iter()
        .map(|p| verifier.verify_project(&p.sources))
        .collect();
    let files: usize = reports.iter().map(|r| r.files.len()).sum();
    let (mut values, mut writes, mut bytes) = (Vec::new(), Vec::new(), 0);
    for _ in 0..ROUNDS {
        let (value, write, n) = render_round(&reports);
        values.push(value);
        writes.push(write);
        bytes = n;
    }
    let totals = values.iter().zip(&writes).map(|(v, w)| *v + *w).collect();
    let mb = bytes as f64 / 1e6;
    println!(
        "\nreport rendering, one thread, {files} files, {mb:.1} MB of JSON \
         (median of {ROUNDS} rounds):"
    );
    for (stage, secs) in [
        ("report_to_value", median(values)),
        ("to_json", median(writes)),
        ("total", median(totals)),
    ] {
        println!(
            "  {stage:<16} {secs:>8.4} s {:>9.1} MB/s",
            mb / secs.max(1e-9)
        );
    }
    if mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
