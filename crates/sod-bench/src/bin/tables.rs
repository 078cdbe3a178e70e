//! Regenerate the paper's evaluation (§IV) and the repo's sweeps as tables.
//!
//! `tables [NAME ..]` prints the named tables in the order given, each as
//! its table function renders it. With no names it prints every table in
//! [`sod_bench::TABLES`]' order, each followed by a blank line: the
//! committed `BENCH_tables.txt`.

use std::process::ExitCode;

use sod_bench::TABLES;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if names.is_empty() {
        for (_, table) in TABLES {
            println!("{}", table());
        }
        return ExitCode::SUCCESS;
    }
    let mut chosen = Vec::with_capacity(names.len());
    for name in &names {
        match TABLES.iter().find(|(n, _)| *n == name.as_str()) {
            Some(&(_, table)) => chosen.push(table),
            None => {
                let known: Vec<_> = TABLES.iter().map(|(n, _)| *n).collect();
                eprintln!(
                    "unknown table {name:?}; usage: tables [{}]..",
                    known.join("|")
                );
                return ExitCode::from(2);
            }
        }
    }
    for table in chosen {
        print!("{}", table());
    }
    ExitCode::SUCCESS
}
