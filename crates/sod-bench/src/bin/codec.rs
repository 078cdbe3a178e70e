//! Regenerate the wire-codec table (`TABLE CODEC`) and its
//! `BENCH_codec.json` summary: host ns per shipped hop with the legacy
//! re-encode-per-size-query path versus the encode-once pooled path,
//! plus destination decode cost.
//!
//! The table and the JSON both print to stdout; pass a path (e.g.
//! `BENCH_codec.json`) to write the JSON there instead.

use std::process::ExitCode;

use sod_bench::codec;

fn main() -> ExitCode {
    sod_bench::sweep_main("codec [OUT.json]", std::env::args().skip(1), || {
        // Simulate the sweep once; render the table and the JSON from it.
        let rows = codec::sweep();
        (codec::render_table(&rows), codec::render_json(&rows))
    })
}
