//! A standard-interface DIMACS SAT solver built on the `sat` crate —
//! the reproduction's ZChaff stand-in, usable on its own.
//!
//! ```text
//! xsat <input.cnf> [--proof out.drat] [--verify] [--limit N] [--budget-ms N]
//! ```
//!
//! Prints `s SATISFIABLE` with a `v …` model line, or
//! `s UNSATISFIABLE` (optionally writing and self-verifying a DRAT
//! refutation), using the conventional SAT-competition output and exit
//! codes (10 = SAT, 20 = UNSAT).

use std::fs::File;
use std::io::{BufReader, Write};
use std::process::ExitCode;

use cnf::parse_dimacs;
use sat::{write_drat, SatResult, Solver};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut input: Option<String> = None;
    let mut proof_path: Option<String> = None;
    let mut verify = false;
    let mut limit: Option<u64> = None;
    let mut budget_ms: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--proof" => proof_path = it.next().cloned(),
            "--verify" => verify = true,
            "--limit" => {
                limit = it.next().and_then(|s| s.parse().ok());
                if limit.is_none() {
                    eprintln!("c --limit needs a number");
                    return ExitCode::from(2);
                }
            }
            "--budget-ms" => {
                budget_ms = it.next().and_then(|s| s.parse().ok());
                if budget_ms.is_none() {
                    eprintln!("c --budget-ms needs a number");
                    return ExitCode::from(2);
                }
            }
            other if other.starts_with('-') => {
                eprintln!("c unknown option {other:?}");
                return ExitCode::from(2);
            }
            path => input = Some(path.to_owned()),
        }
    }
    let Some(input) = input else {
        eprintln!(
            "usage: xsat <input.cnf> [--proof out.drat] [--verify] [--limit N] [--budget-ms N]"
        );
        return ExitCode::from(2);
    };
    let file = match File::open(&input) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("c cannot open {input}: {e}");
            return ExitCode::from(2);
        }
    };
    let formula = match parse_dimacs(BufReader::new(file)) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("c parse error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "c {} variables, {} clauses",
        formula.num_vars(),
        formula.num_clauses()
    );
    let mut solver = Solver::from_formula(&formula);
    let mut budget = sat::Budget::new();
    if let Some(n) = limit {
        budget = budget.max_conflicts(n);
    }
    if let Some(ms) = budget_ms {
        budget = budget.deadline(std::time::Instant::now() + std::time::Duration::from_millis(ms));
    }
    solver.set_budget(budget);
    let want_proof = proof_path.is_some() || verify;
    if want_proof {
        solver.start_proof();
    }
    match solver.solve() {
        SatResult::Sat(model) => {
            println!("c {}", solver.stats());
            println!("s SATISFIABLE");
            let mut line = String::from("v");
            for v in 0..formula.num_vars() {
                let lit = if model.value(cnf::Var::new(v)) {
                    (v + 1) as i64
                } else {
                    -((v + 1) as i64)
                };
                line.push_str(&format!(" {lit}"));
            }
            line.push_str(" 0");
            println!("{line}");
            ExitCode::from(10)
        }
        SatResult::Unsat => {
            println!("c {}", solver.stats());
            let proof = solver.take_proof();
            if let (Some(path), Some(proof)) = (&proof_path, &proof) {
                match File::create(path) {
                    Ok(mut f) => {
                        if let Err(e) = write_drat(&mut f, proof).and_then(|()| f.flush()) {
                            eprintln!("c cannot write proof: {e}");
                        } else {
                            println!("c proof written to {path}");
                        }
                    }
                    Err(e) => eprintln!("c cannot create {path}: {e}"),
                }
            }
            if verify {
                match proof.as_ref().map(|p| p.verify_refutation(&formula)) {
                    Some(Ok(())) => println!("c proof VERIFIED"),
                    Some(Err(e)) => {
                        eprintln!("c proof check FAILED: {e}");
                        return ExitCode::from(2);
                    }
                    None => {}
                }
            }
            println!("s UNSATISFIABLE");
            ExitCode::from(20)
        }
        SatResult::Unknown => {
            println!("s UNKNOWN");
            ExitCode::SUCCESS
        }
        SatResult::Interrupted => {
            println!("c {}", solver.stats());
            println!("c interrupted by --limit or --budget-ms");
            println!("s UNKNOWN");
            ExitCode::SUCCESS
        }
    }
}
