//! # sod-bench — the evaluation harness
//!
//! One function per table/figure of the paper's §IV and of the repo's
//! sweeps; each simulates what it needs and returns the formatted table.
//! [`TABLES`] names them in order, and `bin/tables` prints them: the full
//! evaluation, committed as `BENCH_tables.txt`, which `tests/evaluation.rs`
//! holds every table to, one test per table. Every figure is virtual time
//! or a count: nothing here reads a host clock, so a run prints the same
//! bytes on every host, debug or release, and host time is the repo
//! benchmark's (`examples/benchmark/`).

pub mod chaos;
pub mod codecache;
pub mod elastic;
pub mod scale;
pub mod tables;

pub use tables::*;

/// A table function: simulates what it needs and renders the table.
pub type Table = fn() -> String;

/// Every table by name, in the order the full evaluation prints them.
pub const TABLES: [(&str, Table); 12] = [
    ("table1", table1),
    ("table2_3", table2_and_3),
    ("table4", table4),
    ("table5", table5),
    ("table6", table6),
    ("table7", table7),
    ("fig1", fig1),
    ("roaming", roaming),
    ("scale", scale::scale_table),
    ("codecache", codecache::codecache_table),
    ("chaos", chaos::chaos_table),
    ("elastic", elastic::elastic_table),
];
