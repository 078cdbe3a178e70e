//! Regenerate the fault-tolerance sweep (`TABLE CHAOS`) and its
//! `BENCH_chaos.json`-compatible summary.
//!
//! With no arguments the table and the JSON line both print to stdout;
//! pass a path (e.g. `BENCH_chaos.json`) to write the JSON there instead.

use std::process::ExitCode;

use sod_bench::chaos;

fn main() -> ExitCode {
    sod_bench::sweep_main("chaos [OUT.json]", std::env::args().skip(1), || {
        // Simulate the sweep once; render the table and the JSON from it.
        let rows = chaos::sweep();
        (chaos::render_table(&rows), chaos::render_json(&rows))
    })
}
