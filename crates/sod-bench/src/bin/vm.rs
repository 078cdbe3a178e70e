//! Regenerate the interpreter-dispatch table (`TABLE VM`) and its
//! `BENCH_vm.json` summary: host ns per simulated instruction with the
//! fast path off (`Vm::reference`, the pre-fast-path semantics) and on
//! (inline caches, the default).
//!
//! The table and the JSON both print to stdout; pass a path (e.g.
//! `BENCH_vm.json`) to write the JSON there instead.

use std::process::ExitCode;

use sod_bench::vmdispatch;

fn main() -> ExitCode {
    sod_bench::sweep_main("vm [OUT.json]", std::env::args().skip(1), || {
        // Simulate the sweep once; render the table and the JSON from it.
        let rows = vmdispatch::sweep();
        (
            vmdispatch::render_table(&rows),
            vmdispatch::render_json(&rows),
        )
    })
}
