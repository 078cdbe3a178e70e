//! Regenerate the autoscaling sweep (`TABLE ELASTIC`) and its
//! `BENCH_elastic.json`-compatible summary.
//!
//! With no arguments the table and the JSON line both print to stdout;
//! pass a path (e.g. `BENCH_elastic.json`) to write the JSON there
//! instead.

use std::process::ExitCode;

use sod_bench::elastic;

fn main() -> ExitCode {
    sod_bench::sweep_main("elastic [OUT.json]", std::env::args().skip(1), || {
        // Simulate the sweep once; render the table and the JSON from it.
        let rows = elastic::sweep();
        (elastic::render_table(&rows), elastic::render_json(&rows))
    })
}
