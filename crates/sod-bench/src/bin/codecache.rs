//! Regenerate the code-shipping ablation (`TABLE CODECACHE`) and its
//! `BENCH_codecache.json`-compatible summary.
//!
//! With no arguments the table and the JSON line both print to stdout;
//! pass a path (e.g. `BENCH_codecache.json`) to write the JSON there
//! instead.

use std::process::ExitCode;

use sod_bench::codecache;

fn main() -> ExitCode {
    sod_bench::sweep_main("codecache [OUT.json]", std::env::args().skip(1), || {
        // Simulate the sweep once; render the table and the JSON from it.
        let rows = codecache::sweep();
        (
            codecache::render_table(&rows),
            codecache::render_json(&rows),
        )
    })
}
