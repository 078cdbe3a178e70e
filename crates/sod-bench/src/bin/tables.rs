//! Regenerate the paper's evaluation (§IV) and the repo's sweeps as tables.
//!
//! `tables [NAME ..]` prints the named tables in the order given, each as
//! its table function renders it. With no names it prints every table in
//! the order below, each followed by a blank line.

use std::process::ExitCode;

use sod_bench::{chaos, codec, codecache, elastic, scale, vmdispatch};

/// A table function: simulates what it needs and renders the table.
type Table = fn() -> String;

/// Every table by name, in the order the full evaluation prints them.
const TABLES: [(&str, Table); 14] = [
    ("table1", sod_bench::table1),
    ("table2_3", sod_bench::table2_and_3),
    ("table4", sod_bench::table4),
    ("table5", sod_bench::table5),
    ("table6", sod_bench::table6),
    ("table7", sod_bench::table7),
    ("fig1", sod_bench::fig1),
    ("roaming", sod_bench::roaming),
    ("scale", scale::scale_table),
    ("vm", || vmdispatch::render_table(&vmdispatch::sweep())),
    ("codec", || codec::render_table(&codec::sweep())),
    ("codecache", codecache::codecache_table),
    ("chaos", chaos::chaos_table),
    ("elastic", elastic::elastic_table),
];

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
